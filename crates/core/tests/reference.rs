//! Generation's fast paths against the straightforward code they replace.
//!
//! `weighted_prefix_shuffle` (a Fenwick-tree draw) must pick exactly the
//! nodes of the linear scan `CpGan::generate` used to run, and consume the
//! RNG identically; `GraphAssembler::ranked_pairs` (budget-filtered,
//! unstable sort on an explicit key) must list exactly the pairs a stable
//! sort of every upper-triangle pair lists once over-budget pairs are
//! skipped. Both references live here, and only here.

use cpgan::assembly::GraphAssembler;
use cpgan::sampling::weighted_prefix_shuffle;
use cpgan_graph::NodeId;
use cpgan_nn::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The linear-scan weighted partial shuffle: subtract weights from `x` in
/// position order and stop at the first position that takes it to zero.
fn scan_shuffle<R: Rng>(ids: &mut [NodeId], weights: &[f64], ns: usize, rng: &mut R) {
    let n = ids.len();
    let mut total: f64 = ids.iter().map(|&v| weights[v as usize]).sum();
    for i in 0..ns {
        let mut x = rng.gen::<f64>() * total.max(f64::MIN_POSITIVE);
        let mut pick = i;
        for j in i..n {
            x -= weights[ids[j] as usize];
            if x <= 0.0 {
                pick = j;
                break;
            }
        }
        total -= weights[ids[pick] as usize];
        ids.swap(i, pick);
    }
}

/// Draws `u` on a 1/16 grid, zero included, so `x = u · total` often lands
/// exactly on a running weight sum (the tie the two searches must break
/// alike) or on zero.
struct CoarseRng(StdRng);

impl RngCore for CoarseRng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32() & 0xf000_0000
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64() & (0xf << 60)
    }
}

/// Runs both draws for a few rounds over one evolving `ids`, as generation
/// does, and checks they agree on every round and on the RNG left behind.
fn assert_same_draws(weights: &[f64], ns: usize, seed: u64) {
    assert_same_draws_with(weights, ns, || StdRng::seed_from_u64(seed));
}

fn assert_same_draws_with<R: Rng>(weights: &[f64], ns: usize, rng: impl Fn() -> R) {
    let n = weights.len();
    let mut scan: Vec<NodeId> = (0..n as NodeId).collect();
    let mut fast = scan.clone();
    let (mut scan_rng, mut fast_rng) = (rng(), rng());
    for round in 0..4 {
        scan_shuffle(&mut scan, weights, ns, &mut scan_rng);
        weighted_prefix_shuffle(&mut fast, weights, ns, &mut fast_rng);
        assert_eq!(fast, scan, "round {round}, weights {weights:?}, ns {ns}");
    }
    assert_eq!(fast_rng.gen::<u64>(), scan_rng.gen::<u64>());
}

/// Whole-number weights with zeros and a heavy tail: `a * 10^b`.
fn arb_weights(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u32..6, 0u32..5), n).prop_map(|ws| {
        ws.into_iter()
            .map(|(a, b)| f64::from(a * 10u32.pow(b)))
            .collect()
    })
}

/// The pairs top-k visits, by the old route: every upper-triangle pair,
/// stable-sorted by probability descending, over-budget pairs skipped.
fn stable_sorted_open_pairs(probs: &Matrix, open: &[bool]) -> Vec<(usize, usize)> {
    let ns = probs.rows();
    let mut entries: Vec<(f32, usize, usize)> = Vec::new();
    for i in 0..ns {
        for j in (i + 1)..ns {
            entries.push((probs.get(i, j), i, j));
        }
    }
    entries.sort_by(|a, b| b.0.total_cmp(&a.0));
    entries
        .into_iter()
        .filter(|&(_, i, j)| open[i] && open[j])
        .map(|(_, i, j)| (i, j))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fenwick_draw_matches_scan(
        case in (2usize..300).prop_flat_map(|n| (arb_weights(n..n + 1), 1..n + 1, 0u64..1000))
    ) {
        let (weights, ns, seed) = case;
        assert_same_draws(&weights, ns, seed);
    }

    #[test]
    fn fenwick_draw_matches_scan_with_an_all_zero_tail(
        case in (2usize..200).prop_flat_map(|n| (arb_weights(n..n + 1), 0..n + 1, 1..n + 1, 0u64..1000))
    ) {
        let (mut weights, live, ns, seed) = case;
        for w in &mut weights[live..] {
            *w = 0.0;
        }
        assert_same_draws(&weights, ns, seed);
    }

    #[test]
    fn fenwick_draw_matches_scan_when_every_node_is_drawn(
        case in (2usize..120).prop_flat_map(|n| (arb_weights(n..n + 1), 0u64..1000))
    ) {
        let (weights, seed) = case;
        assert_same_draws(&weights, weights.len(), seed);
    }

    #[test]
    fn fenwick_draw_matches_scan_on_two_nodes(
        weights in arb_weights(2..3),
        ns in 1usize..3,
        seed in 0u64..1000,
    ) {
        assert_same_draws(&weights, ns, seed);
    }

    #[test]
    fn fenwick_draw_matches_scan_on_exact_ties_and_zero_draws(
        case in (2usize..120).prop_flat_map(|n| (arb_weights(n..n + 1), 1..n + 1, 0u64..1000))
    ) {
        let (weights, ns, seed) = case;
        assert_same_draws_with(&weights, ns, || CoarseRng(StdRng::seed_from_u64(seed)));
    }

    #[test]
    fn budget_filtered_top_k_matches_stable_sort(
        case in (2usize..40).prop_flat_map(|ns| (
            proptest::collection::vec(0u32..6, ns * ns..ns * ns + 1),
            proptest::collection::vec(0u32..3, ns..ns + 1),
        ))
    ) {
        // Few distinct probabilities, so ties are common; budget 0 puts a
        // node over budget from the start.
        let (levels, budget_draw) = case;
        let ns = budget_draw.len();
        let probs = Matrix::from_vec(ns, ns, levels.iter().map(|&l| l as f32 / 5.0).collect());
        let budgets: Vec<usize> = budget_draw.iter().map(|&b| b as usize * 10).collect();
        let open: Vec<bool> = budgets.iter().map(|&b| b > 0).collect();
        let asm = GraphAssembler::new(ns, ns * ns).with_degree_budgets(budgets);
        let nodes: Vec<NodeId> = (0..ns as NodeId).collect();
        prop_assert_eq!(asm.ranked_pairs(&nodes, &probs), stable_sorted_open_pairs(&probs, &open));
    }
}
