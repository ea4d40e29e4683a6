use crate::{Graph, GraphError, NodeId};

/// Incremental builder for [`Graph`].
///
/// Collects edges, canonicalizes them (`u < v`), and deduplicates at
/// [`build`](GraphBuilder::build) time. Self-loops are silently dropped, which
/// matches how every generator in the paper post-processes its output.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with pre-reserved capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are ignored.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u as usize >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: u as u64,
                n: self.n,
            });
        }
        if v as usize >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: v as u64,
                n: self.n,
            });
        }
        if u == v {
            return Ok(());
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
        Ok(())
    }

    /// Like [`add_edge`](Self::add_edge) but panics on out-of-range indices.
    /// For generator code where indices are produced in-range by construction.
    pub fn push_edge(&mut self, u: NodeId, v: NodeId) {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n);
        if u != v {
            self.edges.push(if u < v { (u, v) } else { (v, u) });
        }
    }

    /// Number of edges currently buffered (before dedup).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finalizes into a [`Graph`], deduplicating edges.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        Graph::from_canonical_edges(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_dedups() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(1, 1).unwrap();
        b.push_edge(2, 1);
        let g = b.build();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn builder_capacity_and_len() {
        let mut b = GraphBuilder::with_capacity(4, 8);
        assert!(b.is_empty());
        b.push_edge(0, 3);
        assert_eq!(b.len(), 1);
    }
}
