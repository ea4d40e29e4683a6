//! GraphRNN-S (You et al. 2018), paper baseline "GraphRNN-S".
//!
//! The *simplified* GraphRNN variant the paper selects: a single graph-level
//! GRU consumes, per step, the new node's connection vector to the previous
//! `M` nodes (in BFS order) and an MLP head emits the next node's connection
//! logits at once (instead of a second edge-level RNN). Training and
//! inference are `O(n * M)` per pass but inherently sequential and
//! order-dependent — the permutation-variance the paper criticizes.

use crate::common::DeepConfig;
use cpgan_generators::GraphGenerator;
use cpgan_graph::{stats::path, Graph, GraphBuilder, NodeId};
use cpgan_nn::layers::{Activation, GruCell, Mlp};
use cpgan_nn::optim::{Adam, Optimizer};
use cpgan_nn::{Matrix, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

/// A trained GraphRNN-S.
pub struct GraphRnnS {
    gru: GruCell,
    head: Mlp,
    n: usize,
    /// Lookback window `M`.
    window: usize,
    hidden: usize,
}

/// BFS ordering from `start` (unreached nodes appended afterwards).
fn bfs_order(g: &Graph, start: NodeId) -> Vec<NodeId> {
    let dist = path::bfs_distances(g, start);
    let mut order: Vec<NodeId> = Vec::with_capacity(g.n());
    let mut seen = vec![false; g.n()];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    seen[start as usize] = true;
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in g.neighbors(v) {
            if !seen[w as usize] {
                seen[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    for v in 0..g.n() as NodeId {
        if !seen[v as usize] {
            order.push(v);
        }
    }
    debug_assert_eq!(order.len(), g.n());
    let _ = dist;
    order
}

/// The connection vector of `order[i]` to the previous `window` nodes:
/// entry `j` is 1 if `order[i]` ~ `order[i-1-j]`.
fn connection_vector(g: &Graph, order: &[NodeId], i: usize, window: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; window];
    for (j, slot) in v.iter_mut().enumerate() {
        if j < i {
            let prev = order[i - 1 - j];
            if g.has_edge(order[i], prev) {
                *slot = 1.0;
            }
        }
    }
    v
}

impl GraphRnnS {
    /// Builds and trains on the observed graph. The window `M` is the
    /// maximum BFS lookback observed, capped at 64 (GraphRNN's own trick).
    pub fn fit(g: &Graph, cfg: &DeepConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Estimate M from a BFS ordering.
        let order0 = bfs_order(g, 0);
        let mut pos = vec![0usize; g.n()];
        for (i, &v) in order0.iter().enumerate() {
            pos[v as usize] = i;
        }
        let mut window = 1usize;
        for &(u, v) in g.edges() {
            window = window.max(pos[u as usize].abs_diff(pos[v as usize]));
        }
        let window = window.clamp(1, 64);

        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, &mut rng, window, cfg.hidden_dim);
        let head = Mlp::new(
            &mut store,
            &mut rng,
            &[cfg.hidden_dim, cfg.hidden_dim, window],
            Activation::Relu,
        );
        let mut opt = Adam::with_lr(cfg.learning_rate);

        let model = GraphRnnS {
            gru,
            head,
            n: g.n(),
            window,
            hidden: cfg.hidden_dim,
        };

        // Teacher-forced MLE over fresh BFS orderings.
        let passes = cfg.epochs / 4 + 1;
        for _ in 0..passes {
            let start = rng.gen_range(0..g.n()) as NodeId;
            let order = bfs_order(g, start);
            let tape = Tape::new();
            let mut h = tape.constant(Matrix::zeros(1, model.hidden));
            // Start token: all ones.
            let mut x = tape.constant(Matrix::full(1, window, 1.0));
            let mut losses = Vec::with_capacity(g.n() - 1);
            for i in 1..g.n() {
                h = model.gru.forward(&tape, &x, &h);
                let logits = model.head.forward(&tape, &h);
                let target_vec = connection_vector(g, &order, i, window);
                let target = Arc::new(Matrix::from_vec(1, window, target_vec.clone()));
                losses.push(logits.bce_with_logits_mean(&target, None));
                x = tape.constant(Matrix::from_vec(1, window, target_vec));
            }
            let mut total = losses[0].clone();
            for l in &losses[1..] {
                total = total.add(l);
            }
            let total = total.scale(1.0 / losses.len() as f32);
            store.zero_grad();
            total.backward();
            opt.step(&store);
        }
        model
    }

    /// Lookback window `M`.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl GraphGenerator for GraphRnnS {
    fn name(&self) -> &'static str {
        "GraphRNN-S"
    }

    fn generate(&self, rng: &mut dyn RngCore) -> Graph {
        // Each step's values are released as the next step replaces them;
        // the tape keeps only an empty node per op of the generation.
        let tape = Tape::inference();
        let mut b = GraphBuilder::new(self.n);
        let mut h = tape.constant(Matrix::zeros(1, self.hidden));
        let mut x = tape.constant(Matrix::full(1, self.window, 1.0));
        for i in 1..self.n {
            h = self.gru.forward(&tape, &x, &h);
            let probs = self.head.forward(&tape, &h).sigmoid().into_value();
            let mut sampled = vec![0.0f32; self.window];
            for (j, s) in sampled.iter_mut().enumerate() {
                if j < i && rng.gen::<f32>() < probs.get(0, j) {
                    *s = 1.0;
                    b.push_edge(i as NodeId, (i - 1 - j) as NodeId);
                }
            }
            x = tape.constant(Matrix::from_vec(1, self.window, sampled));
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::two_block_fixture as two_blocks;

    #[test]
    fn bfs_order_covers_all_nodes() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (4, 5)]).unwrap();
        let order = bfs_order(&g, 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
        // BFS locality: 1 and 2 come right after 0.
        assert_eq!(order[0], 0);
        assert!(order[1] == 1);
    }

    #[test]
    fn connection_vectors_match_graph() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let order = bfs_order(&g, 0);
        let v = connection_vector(&g, &order, 2, 3);
        // order = [0,1,2,3]; node 2 connects to 1 (j=0) and 0 (j=1).
        assert_eq!(v, vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn fit_and_generate_reasonable_density() {
        let (g, _) = two_blocks(10);
        let model = GraphRnnS::fit(&g, &DeepConfig::tiny());
        assert!(model.window() >= 1);
        let mut rng = StdRng::seed_from_u64(0);
        let out = model.generate(&mut rng);
        assert_eq!(out.n(), g.n());
        // Density within a loose band of the original.
        let ratio = out.m() as f64 / g.m() as f64;
        assert!((0.2..5.0).contains(&ratio), "edge ratio {ratio}");
    }

    #[test]
    fn learns_to_avoid_dense_output_on_sparse_graph() {
        // A ring is very sparse; after training, generated density should be
        // far below the all-edges maximum.
        let edges: Vec<(u32, u32)> = (0..30u32).map(|i| (i, (i + 1) % 30)).collect();
        let g = Graph::from_edges(30, edges).unwrap();
        let model = GraphRnnS::fit(
            &g,
            &DeepConfig {
                epochs: 120,
                ..DeepConfig::tiny()
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        let out = model.generate(&mut rng);
        assert!(out.m() < 120, "generated {} edges on a 30-ring", out.m());
    }
}
