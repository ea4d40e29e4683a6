//! Graph convolution (paper Eq. 6).

use crate::kernels::FusedAct;
use crate::layers::Linear;
use crate::params::ParamStore;
use crate::sparse::Csr;
use crate::tape::{Tape, Var};
use rand::Rng;
use std::sync::Arc;

/// A graph convolution layer `Z = Â X W` where `Â` is a normalized adjacency
/// operator supplied per forward call (sparse for the input graph, dense
/// variable for pooled graphs).
#[derive(Debug, Clone)]
pub struct GcnConv {
    linear: Linear,
}

impl GcnConv {
    /// Creates the layer (no bias, following Kipf & Welling's formulation
    /// used in the paper).
    pub fn new<R: Rng>(store: &mut ParamStore, rng: &mut R, fan_in: usize, fan_out: usize) -> Self {
        GcnConv {
            linear: Linear::new(store, rng, fan_in, fan_out, false),
        }
    }

    /// Forward with a *constant sparse* operator (the input graph's
    /// `D̃^{-1/2} Ã D̃^{-1/2}`): `Â (X W)`. The activation is applied by the
    /// caller.
    pub fn forward_sparse(&self, tape: &Tape, adj: &Arc<Csr>, x: &Var) -> Var {
        self.linear.forward(tape, x).spmm(adj)
    }

    /// Forward with a *dense variable* operator (coarsened adjacencies from
    /// DiffPool are differentiable): `Â (X W)`.
    pub fn forward_dense(&self, tape: &Tape, adj: &Var, x: &Var) -> Var {
        adj.matmul(&self.linear.forward(tape, x))
    }

    /// Fused forward with a constant sparse operator: `act(Â (X W))` as
    /// one spmm+activation tape node — bit-identical to `forward_sparse(..)`
    /// followed by the activation, in one pass over the output.
    pub fn forward_sparse_fused(&self, tape: &Tape, adj: &Arc<Csr>, x: &Var, act: FusedAct) -> Var {
        self.linear
            .forward_weight(tape, x)
            .spmm_bias_act(adj, None, act)
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.linear.fan_out()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;
    use cpgan_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sparse_and_dense_paths_agree() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let adj = Arc::new(Csr::normalized_adjacency(&g));
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let conv = GcnConv::new(&mut store, &mut rng, 3, 2);

        let tape = Tape::new();
        let x = tape.constant(Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.5));
        let sparse_out = conv.forward_sparse(&tape, &adj, &x).value();

        // Dense adjacency as a constant Var.
        let mut dense = Matrix::zeros(4, 4);
        for r in 0..4 {
            for (c, v) in adj.row_iter(r) {
                dense.set(r, c as usize, v);
            }
        }
        let adj_var = tape.constant(dense);
        let dense_out = conv.forward_dense(&tape, &adj_var, &x).value();

        for (a, b) in sparse_out.as_slice().iter().zip(dense_out.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn message_passing_mixes_neighbors() {
        // One-hot features: after a GCN layer, connected nodes share signal.
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let adj = Arc::new(Csr::normalized_adjacency(&g));
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let conv = GcnConv::new(&mut store, &mut rng, 3, 3);
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_fn(3, 3, |r, c| (r == c) as u8 as f32));
        let out = conv.forward_sparse(&tape, &adj, &x).value();
        // Node 2 is isolated: its output must differ from node 0's, which has
        // a neighbor contribution.
        assert!(out.row(0) != out.row(2));
    }
}
