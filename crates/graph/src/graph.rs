use crate::{GraphBuilder, GraphError, NodeId};

/// An undirected simple graph in compressed sparse row (CSR) form.
///
/// Self-loops and duplicate edges are removed at construction. Neighbor lists
/// are sorted, so adjacency queries are `O(log deg)` and neighbor-set
/// intersections (triangle counting) are linear merges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists, length `2m`.
    neighbors: Vec<NodeId>,
    /// Canonical edge list (`u < v`), sorted.
    edges: Vec<(NodeId, NodeId)>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge iterator.
    ///
    /// Duplicate edges, reversed duplicates, and self-loops are dropped.
    /// Returns an error if any endpoint is `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Builds a graph with `n` nodes from a *re-playable* edge stream in two
    /// passes, without materializing an intermediate edge `Vec`.
    ///
    /// `make_edges` is called twice and must yield the same sequence both
    /// times (e.g. a closure re-opening a file, or re-borrowing a slice).
    /// Pass 1 counts degrees; pass 2 scatters endpoints directly into the
    /// CSR arrays, which are then row-sorted and deduplicated in place. Peak
    /// transient memory is the `n + 1` cursor array — the builder never holds
    /// the `O(m)` edge list *and* a scatter buffer at once, which is what
    /// makes the 500k-node shard ingest fit its byte budget
    /// (`cpgan-shard`, DESIGN.md §14).
    ///
    /// Self-loops are dropped and duplicates merged, as in [`GraphBuilder`],
    /// so the result is identical to [`Graph::from_edges`] on the same
    /// sequence.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] on an endpoint `>= n`;
    /// [`GraphError::Stream`] if the two passes disagree (a non-replayable
    /// iterator).
    pub fn from_edge_stream<I, F>(n: usize, mut make_edges: F) -> Result<Self, GraphError>
    where
        F: FnMut() -> I,
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        // Pass 1: validate endpoints and count both directions of every kept
        // edge.
        let mut degrees = vec![0usize; n];
        let mut kept = 0usize;
        for (u, v) in make_edges() {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: u as u64, n });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v as u64, n });
            }
            if u == v {
                continue;
            }
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
            kept += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        drop(degrees);

        // Pass 2: scatter endpoints straight into the CSR neighbor array.
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as NodeId; acc];
        let mut seen = 0usize;
        for (u, v) in make_edges() {
            if u == v || u as usize >= n || v as usize >= n {
                continue; // pass 1 already validated and dropped these
            }
            seen += 1;
            if seen > kept {
                break; // diagnosed below
            }
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        if seen != kept {
            return Err(GraphError::Stream(format!(
                "edge stream is not replayable: pass 1 kept {kept} edges, pass 2 yielded {seen}"
            )));
        }
        drop(cursor);

        // Sort each neighbor run and deduplicate in place, compacting the
        // runs leftwards (write never overtakes read).
        let mut write = 0usize;
        let mut compact = Vec::with_capacity(n + 1);
        compact.push(0);
        for v in 0..n {
            let (s, e) = (offsets[v], offsets[v + 1]);
            neighbors[s..e].sort_unstable();
            let mut prev = NodeId::MAX;
            for i in s..e {
                let w = neighbors[i];
                if w == prev {
                    continue;
                }
                prev = w;
                neighbors[write] = w;
                write += 1;
            }
            compact.push(write);
        }
        neighbors.truncate(write);

        // Canonical sorted edge list from the upper-triangle scan.
        let mut edges = Vec::with_capacity(write / 2);
        for v in 0..n {
            for &w in &neighbors[compact[v]..compact[v + 1]] {
                if (v as NodeId) < w {
                    edges.push((v as NodeId, w));
                }
            }
        }
        Ok(Graph {
            n,
            offsets: compact,
            neighbors,
            edges,
        })
    }

    /// Internal constructor used by [`GraphBuilder`]; `edges` must already be
    /// canonical (`u < v`), sorted, and deduplicated.
    pub(crate) fn from_canonical_edges(n: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        let mut degrees = vec![0usize; n];
        for &(u, v) in &edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as NodeId; acc];
        for &(u, v) in &edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Edges are sorted by (u, v), so each node's neighbor run is filled in
        // ascending order for the `u` side but the `v` side interleaves; sort
        // each run to restore the invariant.
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph {
            n,
            offsets,
            neighbors,
            edges,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor slice of node `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the edge `{u, v}` exists (`O(log deg(u))`).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u as usize >= self.n || v as usize >= self.n {
            return false;
        }
        // Probe from the lower-degree endpoint.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Canonical sorted edge list (`u < v`).
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Degree sequence (indexed by node).
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.n).map(|v| self.degree(v as NodeId)).collect()
    }

    /// Mean degree `2m / n` (0 for the empty graph).
    pub fn mean_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n as f64
        }
    }

    /// The induced subgraph on `nodes`, relabelled `0..nodes.len()`.
    ///
    /// Nodes may be listed in any order; duplicates are ignored (first
    /// occurrence wins). Returns the subgraph and the mapping from new index
    /// to original node id.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut map = vec![NodeId::MAX; self.n];
        let mut order = Vec::with_capacity(nodes.len());
        for &v in nodes {
            if map[v as usize] == NodeId::MAX {
                map[v as usize] = order.len() as NodeId;
                order.push(v);
            }
        }
        let mut edges = Vec::new();
        for (new_u, &u) in order.iter().enumerate() {
            for &w in self.neighbors(u) {
                let new_w = map[w as usize];
                if new_w != NodeId::MAX && (new_u as NodeId) < new_w {
                    edges.push((new_u as NodeId, new_w));
                }
            }
        }
        edges.sort_unstable();
        (Graph::from_canonical_edges(order.len(), edges), order)
    }

    /// Applies a node permutation: node `v` becomes `perm[v]`.
    ///
    /// `perm` must be a permutation of `0..n`. Used by permutation-invariance
    /// tests (paper Eq. 5).
    pub fn permute(&self, perm: &[NodeId]) -> Graph {
        assert_eq!(perm.len(), self.n, "permutation length must equal n");
        let mut edges: Vec<(NodeId, NodeId)> = self
            .edges
            .iter()
            .map(|&(u, v)| {
                let (a, b) = (perm[u as usize], perm[v as usize]);
                if a < b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        edges.sort_unstable();
        Graph::from_canonical_edges(self.n, edges)
    }

    /// Node ids of the largest connected component.
    pub fn largest_component(&self) -> Vec<NodeId> {
        let mut comp = vec![usize::MAX; self.n];
        let mut best: (usize, usize) = (0, 0); // (size, id)
        let mut next_comp = 0usize;
        let mut stack = Vec::new();
        for start in 0..self.n {
            if comp[start] != usize::MAX {
                continue;
            }
            let id = next_comp;
            next_comp += 1;
            let mut size = 0usize;
            stack.push(start);
            comp[start] = id;
            while let Some(v) = stack.pop() {
                size += 1;
                for &w in self.neighbors(v as NodeId) {
                    let w = w as usize;
                    if comp[w] == usize::MAX {
                        comp[w] = id;
                        stack.push(w);
                    }
                }
            }
            if size > best.0 {
                best = (size, id);
            }
        }
        (0..self.n)
            .filter(|&v| comp[v] == best.1)
            .map(|v| v as NodeId)
            .collect()
    }

    /// Dense symmetric adjacency matrix as row-major `f32` (for small graphs
    /// fed to the neural models).
    pub fn dense_adjacency(&self) -> Vec<f32> {
        let n = self.n;
        let mut a = vec![0.0f32; n * n];
        for &(u, v) in &self.edges {
            a[u as usize * n + v as usize] = 1.0;
            a[v as usize * n + u as usize] = 1.0;
        }
        a
    }
}

#[cfg(test)]
// Tests may assert exact float values (constructed, not computed).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = path4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.mean_degree(), 1.5);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2)]).unwrap();
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn out_of_range_rejected() {
        let err = Graph::from_edges(2, [(0, 5)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, n: 2 }));
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let (sub, order) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2); // 1-2 and 2-3 survive
        assert_eq!(order, vec![1, 2, 3]);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn permute_preserves_structure() {
        let g = path4();
        let p = g.permute(&[3, 2, 1, 0]);
        assert_eq!(p.m(), g.m());
        assert!(p.has_edge(3, 2));
        assert!(p.has_edge(2, 1));
        assert!(p.has_edge(1, 0));
    }

    #[test]
    fn largest_component_found() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap();
        assert_eq!(g.largest_component(), vec![0, 1, 2]);
    }

    #[test]
    fn stream_matches_from_edges() {
        // The stream must be byte-identical to the buffered path, including
        // messy input (reversed duplicates, self-loops, unsorted order).
        let raw: Vec<(NodeId, NodeId)> = vec![(3, 1), (0, 1), (1, 0), (2, 2), (1, 2), (0, 1)];
        let buffered = Graph::from_edges(4, raw.iter().copied()).unwrap();
        let streamed = Graph::from_edge_stream(4, || raw.iter().copied()).unwrap();
        assert_eq!(streamed, buffered);
        let err = Graph::from_edge_stream(2, || [(0, 7)].iter().copied()).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 7, n: 2 }));
    }

    #[test]
    fn stream_detects_non_replayable_iterator() {
        use std::cell::Cell;
        let calls = Cell::new(0usize);
        let err = Graph::from_edge_stream(4, || {
            let pass = calls.get();
            calls.set(pass + 1);
            // Second pass yields one edge fewer than the first.
            let take = if pass == 0 { 3 } else { 2 };
            [(0, 1), (1, 2), (2, 3)].into_iter().take(take)
        })
        .unwrap_err();
        assert!(matches!(err, GraphError::Stream(_)), "{err}");
    }

    #[test]
    fn stream_empty_and_edgeless() {
        let g = Graph::from_edge_stream(0, std::iter::empty).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        let g = Graph::from_edge_stream(5, std::iter::empty).unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn dense_adjacency_symmetric() {
        let g = path4();
        let a = g.dense_adjacency();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(a[i * 4 + j], a[j * 4 + i]);
            }
        }
        assert_eq!(a[1], 1.0); // edge (0,1)
        assert_eq!(a[3], 0.0); // no edge (0,3)
    }
}
