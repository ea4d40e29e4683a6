//! Assembling full graphs from generated subgraph probabilities
//! (paper §III-G).
//!
//! The paper fills an empty `A_out` with edges generated in sampled
//! subgraphs until the target edge count is met, using a two-step strategy
//! that avoids both dropped low-degree nodes (pure thresholding) and high
//! variance (pure Bernoulli sampling):
//!
//! 1. for every node `i`, sample one edge from the categorical distribution
//!    given by row `i` of the probability matrix;
//! 2. fill the remainder with the globally largest probability entries.

use cpgan_graph::{Graph, GraphBuilder, NodeId};
use cpgan_nn::Matrix;
use rand::Rng;

/// Incrementally assembles an `n`-node graph with a target edge count.
#[derive(Debug)]
pub struct GraphAssembler {
    n: usize,
    target_m: usize,
    edges: std::collections::HashSet<(NodeId, NodeId)>,
    /// Nodes that already received their step-1 categorical edge; the
    /// low-degree guarantee is per node over the whole assembly, not per
    /// subgraph.
    seeded: std::collections::HashSet<NodeId>,
    /// Current degree per node.
    degree: Vec<usize>,
    /// Optional per-node degree budgets (top-k skips nodes at budget so the
    /// generated degree sequence tracks the observed one).
    budgets: Option<Vec<usize>>,
}

impl GraphAssembler {
    /// Creates an assembler for `n` nodes aiming at `target_m` edges.
    pub fn new(n: usize, target_m: usize) -> Self {
        let max = n.saturating_mul(n.saturating_sub(1)) / 2;
        GraphAssembler {
            n,
            target_m: target_m.min(max),
            edges: std::collections::HashSet::with_capacity(target_m.min(max) * 2),
            seeded: std::collections::HashSet::new(),
            degree: vec![0; n],
            budgets: None,
        }
    }

    /// Sets per-node degree budgets (typically the observed degrees, padded
    /// slightly): the top-k step skips nodes that reached their budget, so
    /// the generated degree sequence tracks the target. The categorical
    /// seeding step ignores budgets so no node is starved.
    pub fn with_degree_budgets(mut self, budgets: Vec<usize>) -> Self {
        assert_eq!(budgets.len(), self.n, "budget per node required");
        self.budgets = Some(budgets);
        self
    }

    /// Edges placed so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the target edge count has been reached.
    pub fn is_complete(&self) -> bool {
        self.edges.len() >= self.target_m
    }

    /// Remaining edges to place.
    pub fn remaining(&self) -> usize {
        self.target_m - self.edges.len().min(self.target_m)
    }

    fn insert(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || self.is_complete() {
            return false;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if self.edges.insert(key) {
            self.degree[u as usize] += 1;
            self.degree[v as usize] += 1;
            true
        } else {
            false
        }
    }

    fn over_budget(&self, v: NodeId) -> bool {
        self.budgets
            .as_ref()
            .is_some_and(|b| self.degree[v as usize] >= b[v as usize])
    }

    /// Merges one generated subgraph. `nodes[i]` is the global id of local
    /// row `i`; `probs` is the local `n_s x n_s` link-probability matrix.
    /// At most `budget` edges are taken from this subgraph. Returns the
    /// number of edges actually added.
    pub fn add_subgraph<R: Rng>(
        &mut self,
        nodes: &[NodeId],
        probs: &Matrix,
        budget: usize,
        rng: &mut R,
    ) -> usize {
        let ns = nodes.len();
        assert_eq!(probs.shape(), (ns, ns), "probability matrix shape");
        let budget = budget.min(self.remaining());
        let mut added = 0usize;

        // Step 1: one categorical edge per node (once over the whole
        // assembly) — guarantees low-degree nodes are not starved by global
        // thresholding.
        for i in 0..ns {
            if added >= budget {
                break;
            }
            if self.seeded.contains(&nodes[i]) {
                continue;
            }
            let row = probs.row(i);
            // Prefer under-budget picks so repeated categorical seeds cannot
            // inflate one node far past its degree budget; fall back to the
            // unrestricted row when everything is saturated.
            let allowed = |j: usize| j != i && !self.over_budget(nodes[j]);
            let mut total: f32 = row
                .iter()
                .enumerate()
                .filter(|&(j, _)| allowed(j))
                .map(|(_, &p)| p)
                .sum();
            let restricted = total > 0.0;
            if !restricted {
                total = row
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &p)| p)
                    .sum();
            }
            if total <= 0.0 {
                continue;
            }
            let mut x = rng.gen::<f32>() * total;
            let mut pick = usize::MAX;
            for (j, &p) in row.iter().enumerate() {
                if j == i || (restricted && !allowed(j)) {
                    continue;
                }
                x -= p;
                if x <= 0.0 {
                    pick = j;
                    break;
                }
            }
            if pick != usize::MAX {
                self.seeded.insert(nodes[i]);
                if self.insert(nodes[i], nodes[pick]) {
                    added += 1;
                }
            }
        }

        // Step 2: top entries of the upper triangle until the budget is hit.
        if added < budget {
            for (i, j) in self.ranked_pairs(nodes, probs) {
                if added >= budget {
                    break;
                }
                if self.over_budget(nodes[i]) || self.over_budget(nodes[j]) {
                    continue;
                }
                if self.insert(nodes[i], nodes[j]) {
                    added += 1;
                }
            }
        }
        added
    }

    /// Upper-triangle pairs `(i, j)` of `probs` whose endpoints are both
    /// under budget, by probability descending, ties in row-major order —
    /// the order a stable sort of all pairs gives. Degrees only grow, so
    /// top-k would skip every pair left out here anyway.
    pub fn ranked_pairs(&self, nodes: &[NodeId], probs: &Matrix) -> Vec<(usize, usize)> {
        let open: Vec<usize> = (0..nodes.len())
            .filter(|&i| !self.over_budget(nodes[i]))
            .collect();
        let mut entries: Vec<(f32, usize, usize)> = Vec::new();
        for (a, &i) in open.iter().enumerate() {
            let row = probs.row(i);
            entries.extend(open[a + 1..].iter().map(|&j| (row[j], i, j)));
        }
        entries
            .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        entries.into_iter().map(|(_, i, j)| (i, j)).collect()
    }

    /// Fills any remaining edge deficit by Chung-Lu sampling over the
    /// per-node *residual* budgets (`budget - degree`), so the final graph
    /// hits the edge target with a degree sequence matching the budgets.
    /// No-op without budgets or when already complete.
    pub fn fill_residual<R: Rng>(&mut self, rng: &mut R) {
        let Some(budgets) = self.budgets.clone() else {
            return;
        };
        let deficit: Vec<f64> = (0..self.n)
            .map(|v| budgets[v].saturating_sub(self.degree[v]) as f64)
            .collect();
        let total: f64 = deficit.iter().sum();
        if total <= 0.0 {
            return;
        }
        let mut prefix = Vec::with_capacity(self.n);
        let mut acc = 0.0;
        for &d in &deficit {
            acc += d;
            prefix.push(acc);
        }
        let mut guard = 0usize;
        let limit = 30 * self.remaining() + 100;
        while !self.is_complete() && guard < limit {
            guard += 1;
            let draw = |rng: &mut R| -> NodeId {
                let x = rng.gen::<f64>() * acc;
                prefix.partition_point(|&p| p <= x).min(self.n - 1) as NodeId
            };
            let (u, v) = (draw(rng), draw(rng));
            if self.over_budget(u) || self.over_budget(v) {
                continue;
            }
            self.insert(u, v);
        }
    }

    /// Finalizes into a [`Graph`].
    pub fn build(self) -> Graph {
        // Sort before pushing: `GraphBuilder::build` canonicalizes edge
        // order anyway, but feeding it in hash order would make the
        // builder's intermediate state process-seeded (DESIGN.md §8).
        let mut edges: Vec<(NodeId, NodeId)> = self.edges.into_iter().collect();
        edges.sort_unstable();
        let mut b = GraphBuilder::with_capacity(self.n, edges.len());
        for (u, v) in edges {
            b.push_edge(u, v);
        }
        b.build()
    }
}

/// The naive strategies §III-G argues against, kept for the ablation bench
/// (DESIGN.md §5): pure Bernoulli sampling (high variance) and pure
/// thresholding (drops low-degree nodes).
pub mod naive {
    use cpgan_graph::{Graph, GraphBuilder, NodeId};
    use cpgan_nn::Matrix;
    use rand::Rng;

    /// Samples every upper-triangle entry independently:
    /// `A_ij ~ Bernoulli(p_ij)`. Edge count is not controlled.
    pub fn bernoulli<R: Rng>(probs: &Matrix, rng: &mut R) -> Graph {
        let n = probs.rows();
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen::<f32>() < probs.get(i, j) {
                    b.push_edge(i as NodeId, j as NodeId);
                }
            }
        }
        b.build()
    }

    /// Keeps the `m` largest entries regardless of per-node coverage.
    pub fn threshold_top_m(probs: &Matrix, m: usize) -> Graph {
        let n = probs.rows();
        let mut entries: Vec<(f32, usize, usize)> = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                entries.push((probs.get(i, j), i, j));
            }
        }
        entries.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut b = GraphBuilder::with_capacity(n, m);
        for (_, i, j) in entries.into_iter().take(m) {
            b.push_edge(i as NodeId, j as NodeId);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_probs(ns: usize) -> Matrix {
        Matrix::from_fn(ns, ns, |i, j| if i == j { 0.0 } else { 0.5 })
    }

    #[test]
    fn respects_budget_and_target() {
        let mut asm = GraphAssembler::new(20, 15);
        let mut rng = StdRng::seed_from_u64(0);
        let nodes: Vec<u32> = (0..10).collect();
        let added = asm.add_subgraph(&nodes, &uniform_probs(10), 8, &mut rng);
        assert!(added <= 8);
        assert_eq!(asm.edge_count(), added);
        // Second subgraph completes the target.
        let nodes2: Vec<u32> = (10..20).collect();
        asm.add_subgraph(&nodes2, &uniform_probs(10), 100, &mut rng);
        assert!(asm.edge_count() <= 15);
        let g = asm.build();
        assert_eq!(g.n(), 20);
    }

    #[test]
    fn build_is_deterministic_and_canonically_ordered() {
        // PR 6: `build()` drains the edge set in sorted order, so the
        // assembled graph is a pure function of the inserted edge *set* —
        // never of the per-process hash seed (DESIGN.md §8).
        let assemble = || {
            let mut asm = GraphAssembler::new(12, 20);
            let mut rng = StdRng::seed_from_u64(3);
            let nodes: Vec<u32> = (0..12).collect();
            asm.add_subgraph(&nodes, &uniform_probs(12), 20, &mut rng);
            asm.build()
        };
        let (a, b) = (assemble(), assemble());
        assert_eq!(a.edges(), b.edges(), "assembly must be bit-stable");
        let mut sorted = a.edges().to_vec();
        sorted.sort_unstable();
        assert_eq!(a.edges(), &sorted[..], "edge list must be canonical");
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let mut asm = GraphAssembler::new(6, 100);
        let mut rng = StdRng::seed_from_u64(1);
        let nodes: Vec<u32> = (0..6).collect();
        for _ in 0..5 {
            asm.add_subgraph(&nodes, &uniform_probs(6), 100, &mut rng);
        }
        let g = asm.build();
        assert!(g.m() <= 15); // C(6,2)
        for &(u, v) in g.edges() {
            assert_ne!(u, v);
        }
    }

    #[test]
    fn every_positive_row_gets_an_edge_given_budget() {
        // Step 1 guarantees low-probability nodes still receive edges.
        let ns = 8;
        let mut probs = Matrix::from_fn(ns, ns, |i, j| {
            if i == j {
                0.0
            } else if i < 2 || j < 2 {
                0.9
            } else {
                0.01
            }
        });
        probs.set(7, 6, 0.02);
        probs.set(6, 7, 0.02);
        let mut asm = GraphAssembler::new(8, 100);
        let mut rng = StdRng::seed_from_u64(2);
        let nodes: Vec<u32> = (0..8).collect();
        asm.add_subgraph(&nodes, &probs, ns, &mut rng);
        let g = asm.build();
        // Each of the 8 rows sampled one edge; all nodes touched.
        assert!(g.degrees().iter().filter(|&&d| d > 0).count() >= 6);
    }

    #[test]
    fn top_k_prefers_high_probability() {
        let ns = 6;
        let mut probs = Matrix::zeros(ns, ns);
        // Only edges (0,1) and (2,3) have meaningful probability.
        for &(a, b, p) in &[(0, 1, 0.99f32), (2, 3, 0.98), (4, 5, 0.0001)] {
            probs.set(a, b, p);
            probs.set(b, a, p);
        }
        let mut asm = GraphAssembler::new(6, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let nodes: Vec<u32> = (0..6).collect();
        asm.add_subgraph(&nodes, &probs, 2, &mut rng);
        let g = asm.build();
        assert!(g.has_edge(0, 1) || g.has_edge(2, 3));
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn target_clamped_to_possible() {
        let asm = GraphAssembler::new(3, 100);
        assert_eq!(asm.remaining(), 3);
    }

    /// A probability matrix with two planted blocks plus one low-degree node
    /// whose best edge is still weak.
    fn blocky_probs(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else if i == n - 1 || j == n - 1 {
                0.05 // the low-degree node
            } else if (i < n / 2) == (j < n / 2) {
                0.6
            } else {
                0.02
            }
        })
    }

    #[test]
    fn paper_strategy_covers_low_degree_nodes_threshold_does_not() {
        // §III-G's motivation: thresholding leaves out low-degree nodes; the
        // categorical step keeps them attached.
        let n = 12;
        let probs = blocky_probs(n);
        let m = 16;
        let thresholded = naive::threshold_top_m(&probs, m);
        assert_eq!(
            thresholded.degree((n - 1) as u32),
            0,
            "threshold should drop the weak node"
        );

        let mut rng = StdRng::seed_from_u64(5);
        let mut asm = GraphAssembler::new(n, m);
        let nodes: Vec<u32> = (0..n as u32).collect();
        asm.add_subgraph(&nodes, &probs, m, &mut rng);
        let ours = asm.build();
        assert!(
            ours.degree((n - 1) as u32) > 0,
            "paper strategy must attach the weak node"
        );
    }

    #[test]
    fn paper_strategy_has_lower_edge_count_variance_than_bernoulli() {
        // §III-G's second motivation: Bernoulli sampling has high-variance
        // output; the budgeted strategy hits the target exactly.
        let n = 16;
        let probs = blocky_probs(n);
        let m = 24;
        let mut rng = StdRng::seed_from_u64(9);
        let mut bernoulli_counts = Vec::new();
        for _ in 0..20 {
            bernoulli_counts.push(naive::bernoulli(&probs, &mut rng).m() as f64);
        }
        let mean: f64 = bernoulli_counts.iter().sum::<f64>() / 20.0;
        let var: f64 = bernoulli_counts
            .iter()
            .map(|c| (c - mean).powi(2))
            .sum::<f64>()
            / 20.0;
        assert!(var > 0.5, "bernoulli variance unexpectedly tiny: {var}");

        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut asm = GraphAssembler::new(n, m);
            let nodes: Vec<u32> = (0..n as u32).collect();
            asm.add_subgraph(&nodes, &probs, m, &mut rng);
            assert_eq!(asm.build().m(), m, "budgeted strategy must be exact");
        }
    }
}
