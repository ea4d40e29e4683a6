//! Property-based tests for CPGAN's structural components.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach; panicking is the right
// failure mode in test code.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan::assembly::GraphAssembler;
use cpgan::config::{CpGanConfig, Variant};
use cpgan_graph::sampling;
use cpgan_graph::{Graph, NodeId};
use cpgan_nn::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (6usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), n..4 * n)
            .prop_map(move |edges| Graph::from_edges(n, edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn degree_sampling_is_subset_without_replacement(g in arb_graph(), seed in 0u64..500) {
        let k = (g.n() / 2).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = sampling::sample_nodes_by_degree(&g, k, &mut rng);
        prop_assert_eq!(nodes.len(), k);
        let set: std::collections::HashSet<_> = nodes.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(nodes.iter().all(|&v| (v as usize) < g.n()));
        // Sorted output (stable downstream indexing).
        prop_assert!(nodes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn assembler_never_exceeds_target_or_budgets(
        seed in 0u64..500,
        ns in 4usize..16,
        target in 1usize..40,
    ) {
        let n = 2 * ns;
        let probs = Matrix::from_fn(ns, ns, |i, j| if i == j { 0.0 } else { 0.4 });
        let budgets = vec![3usize; n];
        let mut asm = GraphAssembler::new(n, target).with_degree_budgets(budgets.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes: Vec<NodeId> = (0..ns as NodeId).collect();
        asm.add_subgraph(&nodes, &probs, target, &mut rng);
        asm.fill_residual(&mut rng);
        let g = asm.build();
        prop_assert!(g.m() <= target);
        // Budgets may be exceeded only by the categorical seeding step
        // (one edge per node) and residual fill targets them exactly, so
        // degree stays within budget + 1.
        for (v, &budget) in budgets.iter().enumerate() {
            prop_assert!(
                g.degree(v as NodeId) <= budget + 1,
                "node {v} degree {} budget {}",
                g.degree(v as NodeId),
                budget
            );
        }
    }

    #[test]
    fn pool_sizes_monotone_nonincreasing(n in 8usize..10_000, levels in 1usize..5) {
        let cfg = CpGanConfig {
            levels,
            ..CpGanConfig::default()
        };
        let sizes = cfg.pool_sizes(n);
        prop_assert_eq!(sizes.len(), levels.saturating_sub(1));
        let mut prev = n;
        for &s in &sizes {
            prop_assert!(s <= prev.max(2));
            prop_assert!(s >= 2);
            prev = s;
        }
    }

    #[test]
    fn untrained_model_generates_well_formed_graphs(
        seed in 0u64..100,
        n in 10usize..60,
    ) {
        // Generation must be robust even before fit() (prior path).
        let model = cpgan::CpGan::new(CpGanConfig {
            variant: Variant::Full,
            sample_size: 20,
            ..CpGanConfig::tiny()
        });
        let m = 2 * n;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = model.generate(n, m, &mut rng);
        prop_assert_eq!(g.n(), n);
        prop_assert!(g.m() <= m);
        for &(u, v) in g.edges() {
            prop_assert!(u < v);
            prop_assert!((v as usize) < n);
        }
    }
}
