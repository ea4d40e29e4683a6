//! Shared plumbing for the learning-based baselines.

use cpgan_graph::sampling::SubgraphSampler;
use cpgan_graph::{spectral, Graph, GraphBuilder, NodeId};
use cpgan_nn::{BlockDiagCsr, Matrix};
use rand::{Rng, RngCore};
use std::sync::Arc;

/// Hyper-parameters shared by all deep baselines. The paper uses each
/// baseline's original settings; these defaults scale them to CPU while
/// keeping the ratios.
#[derive(Debug, Clone)]
pub struct DeepConfig {
    /// Hidden width of encoders.
    pub hidden_dim: usize,
    /// Latent width.
    pub latent_dim: usize,
    /// Input spectral-feature dimension.
    pub feature_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Seed for init, sampling, and noise.
    pub seed: u64,
}

impl Default for DeepConfig {
    fn default() -> Self {
        DeepConfig {
            hidden_dim: 32,
            latent_dim: 16,
            feature_dim: 16,
            epochs: 200,
            learning_rate: 5e-3,
            seed: 7,
        }
    }
}

impl DeepConfig {
    /// Light settings for unit tests.
    pub fn tiny() -> Self {
        DeepConfig {
            hidden_dim: 12,
            latent_dim: 6,
            epochs: 200,
            ..Default::default()
        }
    }
}

/// Spectral input features for a graph (the same default the paper uses for
/// featureless graphs, §III-C1). When the graph has fewer nodes than `dim`,
/// the embedding is zero-padded to the requested width so model layer
/// shapes stay fixed.
pub fn features(g: &Graph, dim: usize, seed: u64) -> Matrix {
    let d_eff = dim.min(g.n());
    let spec = spectral::spectral_embedding(g, d_eff, seed);
    Matrix::from_fn(g.n(), dim, |r, c| {
        if c < d_eff {
            spec[r * d_eff + c]
        } else {
            0.0
        }
    })
}

/// Dense adjacency target plus class-balancing BCE weights for an observed
/// graph (positives up-weighted by the negative/positive ratio, capped).
pub fn adjacency_target(g: &Graph) -> (Arc<Matrix>, Arc<Matrix>) {
    let n = g.n();
    let target = Arc::new(Matrix::from_vec(n, n, g.dense_adjacency()));
    let m = g.m() as f32;
    let pos_weight = (((n * n) as f32 - 2.0 * m) / (2.0 * m + 1.0)).clamp(1.0, 50.0);
    let weights = Arc::new(target.map(|t| if t > 0.5 { pos_weight } else { 1.0 }));
    (target, weights)
}

/// One block-diagonal training batch of sampled subgraphs (DESIGN §13).
///
/// The `b`-th subgraph occupies packed rows `ops.block_range(b)`; its rows
/// in `feats` were gathered from the full graph's feature matrix, so feature
/// semantics match the unbatched path exactly.
pub struct SubgraphBatch {
    /// Normalized adjacencies of every subgraph packed block-diagonally.
    pub ops: BlockDiagCsr,
    /// Input features for the packed node set (`total_rows x feature_dim`).
    pub feats: Matrix,
    /// Per-block dense reconstruction target + BCE weights.
    pub targets: Vec<(Arc<Matrix>, Arc<Matrix>)>,
    /// Per-block packed-row index lists, ready for `Var::gather_rows`.
    pub rows: Vec<Arc<Vec<usize>>>,
}

/// Draws `batch` subgraphs of `ns` nodes from `sampler` (one seeded stream —
/// the batch size can never change the draw sequence, see
/// `cpgan_graph::sampling`) and packs them into a [`SubgraphBatch`]. Feature
/// rows are gathered from `full_feats` by the sampled original node ids.
pub fn sample_batch(
    g: &Graph,
    full_feats: &Matrix,
    sampler: &mut SubgraphSampler,
    ns: usize,
    batch: usize,
) -> SubgraphBatch {
    // Clamp to the graph size so an oversized `ns` is not an error at this
    // seam (the sampler itself rejects `k > n`).
    let draws = sampler
        .next_batch(g, ns.min(g.n()), batch)
        .unwrap_or_default();
    let dim = full_feats.cols();
    let total: usize = draws.iter().map(|(sub, _)| sub.n()).sum();
    let mut data = Vec::with_capacity(total * dim);
    for (_, ids) in &draws {
        for &id in ids {
            data.extend_from_slice(full_feats.row(id as usize));
        }
    }
    let feats = Matrix::from_vec(total, dim, data);
    let graphs: Vec<&Graph> = draws.iter().map(|(sub, _)| sub).collect();
    let ops = BlockDiagCsr::from_graphs(graphs.iter().copied());
    let targets = draws.iter().map(|(sub, _)| adjacency_target(sub)).collect();
    let rows = (0..draws.len())
        .map(|b| Arc::new(ops.block_range(b).collect::<Vec<usize>>()))
        .collect();
    SubgraphBatch {
        ops,
        feats,
        targets,
        rows,
    }
}

/// Assembles a graph with exactly `m` edges (or as many as possible) from a
/// symmetric link-probability matrix: one categorical edge per row first
/// (so low-degree nodes survive), then global top-k.
pub fn assemble_from_probs(probs: &Matrix, m: usize, rng: &mut dyn RngCore) -> Graph {
    let n = probs.rows();
    assert_eq!(probs.cols(), n, "probability matrix must be square");
    let mut chosen = std::collections::HashSet::with_capacity(2 * m);
    let insert = |u: usize, v: usize, set: &mut std::collections::HashSet<(u32, u32)>| {
        if u == v {
            return false;
        }
        let key = if u < v {
            (u as u32, v as u32)
        } else {
            (v as u32, u as u32)
        };
        set.insert(key)
    };
    // Step 1: one categorical draw per row.
    for i in 0..n {
        if chosen.len() >= m {
            break;
        }
        let row = probs.row(i);
        let total: f32 = row
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &p)| p)
            .sum();
        if total <= 0.0 {
            continue;
        }
        let mut x = rng.gen::<f32>() * total;
        for (j, &p) in row.iter().enumerate() {
            if j == i {
                continue;
            }
            x -= p;
            if x <= 0.0 {
                insert(i, j, &mut chosen);
                break;
            }
        }
    }
    // Step 2: top-k fill.
    if chosen.len() < m {
        let mut entries: Vec<(f32, usize, usize)> = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                entries.push((probs.get(i, j), i, j));
            }
        }
        entries.sort_by(|a, b| b.0.total_cmp(&a.0));
        for (_, i, j) in entries {
            if chosen.len() >= m {
                break;
            }
            insert(i, j, &mut chosen);
        }
    }
    // Sorted drain: `GraphBuilder::build` canonicalizes anyway, but the
    // push order must not depend on the per-process hash seed (§8).
    let mut edges: Vec<(NodeId, NodeId)> = chosen.into_iter().collect();
    edges.sort_unstable();
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.push_edge(u, v);
    }
    b.build()
}

/// Deterministic two-community test fixture shared by the baseline tests:
/// two dense blocks of `size` nodes joined by one bridge edge. Returns the
/// graph and the planted labels.
pub fn two_block_fixture(size: usize) -> (Graph, Vec<usize>) {
    let n = 2 * size;
    let mut edges = Vec::new();
    for c in 0..2u32 {
        let base = c * size as u32;
        for a in 0..size as u32 {
            for b in (a + 1)..size as u32 {
                if (a + b) % 2 == 0 || b == a + 1 {
                    edges.push((base + a, base + b));
                }
            }
        }
    }
    edges.push((0, size as u32));
    let labels = (0..n).map(|v| (v >= size) as usize).collect();
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.push_edge(u, v);
    }
    (b.build(), labels)
}

#[cfg(test)]
// Tests may assert exact float values (constructed, not computed).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn assemble_hits_target() {
        let n = 10;
        let probs = Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { 0.3 });
        let mut rng = StdRng::seed_from_u64(0);
        let g = assemble_from_probs(&probs, 12, &mut rng);
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 12);
    }

    #[test]
    fn adjacency_target_weights_balance() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2)]).unwrap();
        let (t, w) = adjacency_target(&g);
        assert_eq!(t.get(0, 1), 1.0);
        assert_eq!(t.get(1, 0), 1.0);
        assert!(w.get(0, 1) > w.get(0, 3));
    }

    #[test]
    fn features_shape() {
        let g = Graph::from_edges(6, [(0, 1), (2, 3), (4, 5)]).unwrap();
        let f = features(&g, 3, 1);
        assert_eq!(f.shape(), (6, 3));
    }
}
