//! Degree-proportional node sampling (paper §III-E): [`NodeDraw`] is
//! generation's per-round node draw.
//!
//! Subgraph sampling for training lives in [`cpgan_graph::sampling`] so the
//! deep baselines (which do not depend on this crate) can share the exact
//! same seeded stream.

use cpgan_graph::NodeId;
use rand::Rng;

/// Weight-proportional draws without replacement over one evolving order
/// of the ids `0..n`, where id `v` weighs `weights[v]`: generation draws
/// one round's nodes with [`NodeDraw::draw`], and the next round's draw
/// starts from the order that one left.
///
/// A draw of `ns` ids moves them to the front of the order, in draw order.
/// Its `i`-th pick takes `x = u · total`, the weight left from position `i`
/// on, and picks the first position `j ≥ i` whose running weight sum from
/// `i` reaches `x` (position `i` itself when `x` is zero or no position
/// reaches it), then swaps it into slot `i`. One Fenwick tree over the
/// positions finds that position in `O(log n)`. A drawn position holds 0
/// until the draw ends, when the picks' weights are added back, so the
/// tree is built once, not once a round.
///
/// The weights must be non-negative whole numbers summing below 2^53
/// (degrees, or 1.0). Then every tree sum and every `x − sum` step is
/// exact: each draw picks exactly the id a linear scan subtracting weights
/// from `x` in position order would pick, and the restored tree holds
/// exactly the sums a fresh build over the new order would.
pub struct NodeDraw {
    ids: Vec<NodeId>,
    weights: Vec<f64>,
    tree: Fenwick,
    total: f64,
}

impl NodeDraw {
    /// A draw over the ids `0..weights.len()`, in ascending order. The
    /// length must fit in [`NodeId`].
    pub fn new(weights: Vec<f64>) -> Self {
        let ids: Vec<NodeId> = (0..weights.len() as NodeId).collect();
        NodeDraw {
            tree: Fenwick::new(weights.iter().copied()),
            total: weights.iter().sum(),
            ids,
            weights,
        }
    }

    /// Draws `ns` ids (every id when there are fewer) and returns them in
    /// draw order: the front of the new order.
    pub fn draw<R: Rng + ?Sized>(&mut self, ns: usize, rng: &mut R) -> &[NodeId] {
        let n = self.ids.len();
        let ns = ns.min(n);
        let mut total = self.total;
        for i in 0..ns {
            let x = rng.gen::<f64>() * total.max(f64::MIN_POSITIVE);
            let j = if x > 0.0 {
                self.tree.first_reaching(x)
            } else {
                n
            };
            let pick = if j < n { j } else { i };
            let (w_i, w_pick) = (self.weight(i), self.weight(pick));
            total -= w_pick;
            self.tree.add(i, -w_i);
            if pick != i {
                self.tree.add(pick, w_i - w_pick);
            }
            self.ids.swap(i, pick);
        }
        for i in 0..ns {
            self.tree.add(i, self.weight(i));
        }
        &self.ids[..ns]
    }

    /// The current order: the last draw's ids first, in draw order.
    pub fn order(&self) -> &[NodeId] {
        &self.ids
    }

    /// The weight of the id at position `i`.
    fn weight(&self, i: usize) -> f64 {
        self.weights[self.ids[i] as usize]
    }
}

/// Fenwick (binary indexed) tree of `f64` position weights, 1-based inside.
struct Fenwick {
    tree: Vec<f64>,
}

impl Fenwick {
    /// Builds the tree over `values` in `O(n)`.
    fn new(values: impl Iterator<Item = f64>) -> Self {
        let mut tree: Vec<f64> = std::iter::once(0.0).chain(values).collect();
        let n = tree.len() - 1;
        for k in 1..=n {
            let parent = k + (k & k.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[k];
            }
        }
        Fenwick { tree }
    }

    /// Adds `delta` to position `i` (0-based).
    fn add(&mut self, i: usize, delta: f64) {
        let mut k = i + 1;
        while k < self.tree.len() {
            self.tree[k] += delta;
            k += k & k.wrapping_neg();
        }
    }

    /// The first position (0-based) whose prefix sum reaches `x`, or the
    /// position count if none does.
    fn first_reaching(&self, x: f64) -> usize {
        let n = self.tree.len() - 1;
        let (mut pos, mut rem) = (0, x);
        let mut step = if n == 0 { 0 } else { 1 << n.ilog2() };
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] < rem {
                pos = next;
                rem -= self.tree[next];
            }
            step >>= 1;
        }
        pos
    }
}
