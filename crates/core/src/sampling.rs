//! Degree-proportional node sampling (paper §III-E):
//! [`weighted_prefix_shuffle`] is generation's per-round node draw.
//!
//! Subgraph sampling for training lives in [`cpgan_graph::sampling`] so the
//! deep baselines (which do not depend on this crate) can share the exact
//! same seeded stream.

use cpgan_graph::NodeId;
use rand::Rng;

/// Weighted partial shuffle: moves a weight-proportional draw without
/// replacement of `ns` entries of `ids` to its front, in draw order.
/// Entry `v` weighs `weights[v]`.
///
/// Each draw takes `x = u · total` and picks the first position `j ≥ i`
/// whose running weight sum from `i` reaches `x` (position `i` itself when
/// `x` is zero or no position reaches it), then swaps it into slot `i`.
/// A Fenwick tree over the positions of `ids` finds that position in
/// `O(log n)`, with consumed positions holding 0.
///
/// The weights must be non-negative whole numbers summing below 2^53
/// (degrees, or 1.0). Then every tree sum and every `x − sum` step is
/// exact, so the draw picks exactly the node a linear scan subtracting
/// weights from `x` in position order would pick.
pub fn weighted_prefix_shuffle<R: Rng + ?Sized>(
    ids: &mut [NodeId],
    weights: &[f64],
    ns: usize,
    rng: &mut R,
) {
    let weight = |v: NodeId| weights[v as usize];
    let mut tree = Fenwick::new(ids.iter().map(|&v| weight(v)));
    let mut total: f64 = ids.iter().map(|&v| weight(v)).sum();
    for i in 0..ns.min(ids.len()) {
        let x = rng.gen::<f64>() * total.max(f64::MIN_POSITIVE);
        let j = if x > 0.0 {
            tree.first_reaching(x)
        } else {
            ids.len()
        };
        let pick = if j < ids.len() { j } else { i };
        let (w_i, w_pick) = (weight(ids[i]), weight(ids[pick]));
        total -= w_pick;
        tree.add(i, -w_i);
        if pick != i {
            tree.add(pick, w_i - w_pick);
        }
        ids.swap(i, pick);
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
