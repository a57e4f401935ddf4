//! Incremental construction of [`CsrGraph`]s.
//!
//! The builder accepts edges in any order, with duplicates and self-loops,
//! and normalizes to a simple undirected graph. Construction is
//! counting-sort based (`O(n + m)`), not comparison-sort based, so building
//! the 10⁸-edge graphs of the paper's Table I stays linear.

use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};
use crate::node::NodeId;
use crate::relabel::Relabeling;

/// What normalization dropped while building a graph: counts of self-loops
/// and duplicate edges in the raw input. Surfaced by
/// [`GraphBuilder::try_build_report`] and the edge-list ingestion paths so
/// CLI users can see how much of their input was discarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildReport {
    /// Raw edges with `u == v`, dropped during normalization.
    pub self_loops: u64,
    /// Raw edges beyond the first occurrence of each undirected pair.
    pub duplicates: u64,
}

/// Builds a [`CsrGraph`] from an edge stream.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    /// Undirected edges as given; normalized at build time.
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// A builder for a graph with `node_count` nodes (ids `0..node_count`).
    ///
    /// # Panics
    /// Panics when `node_count` exceeds the `u32` id space; use
    /// [`GraphBuilder::try_new`] for a typed error instead.
    pub fn new(node_count: usize) -> Self {
        match GraphBuilder::try_new(node_count) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`GraphBuilder::new`]: rejects node counts
    /// beyond the `u32` id space with [`GraphError::TooManyNodes`].
    pub fn try_new(node_count: usize) -> Result<Self> {
        if node_count > u32::MAX as usize {
            return Err(GraphError::TooManyNodes {
                requested: node_count,
            });
        }
        Ok(GraphBuilder {
            node_count,
            edges: Vec::new(),
        })
    }

    /// A builder that will grow its node count to fit the edges it sees.
    pub fn new_growable() -> Self {
        GraphBuilder::new(0)
    }

    /// Pre-allocates for `m` edges.
    pub fn with_edge_capacity(mut self, m: usize) -> Self {
        self.edges.reserve(m);
        self
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Adds the undirected edge `{u, v}`, growing the node count if needed.
    /// Self-loops are accepted here and dropped at build time.
    #[inline]
    pub fn add_edge(&mut self, u: u32, v: u32) {
        let hi = u.max(v) as usize + 1;
        if hi > self.node_count {
            self.node_count = hi;
        }
        self.edges.push((u, v));
    }

    /// Adds all edges from an iterator.
    pub fn extend_edges<I: IntoIterator<Item = (u32, u32)>>(&mut self, iter: I) {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
    }

    /// Normalizes (drops self-loops, deduplicates, symmetrizes, sorts rows)
    /// and produces the CSR graph.
    ///
    /// # Panics
    /// Panics when the directed adjacency exceeds the compact CSR's `u32`
    /// offset space; use [`GraphBuilder::try_build`] for a typed error.
    pub fn build(self) -> CsrGraph {
        match self.try_build() {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`GraphBuilder::build`]: rejects edge sets
    /// whose directed adjacency (2 entries per undirected edge, before
    /// deduplication) overflows the `u32` offsets of [`CsrGraph`] with
    /// [`GraphError::TooManyEdges`].
    pub fn try_build(self) -> Result<CsrGraph> {
        self.try_build_report().map(|(g, _)| g)
    }

    /// Like [`GraphBuilder::try_build`], also returning a [`BuildReport`]
    /// with the self-loop and duplicate counts normalization dropped.
    pub fn try_build_report(self) -> Result<(CsrGraph, BuildReport)> {
        let n = self.node_count;
        // The growable path can push node_count past the u32 id space
        // without going through `try_new` — fail here, before the O(n)
        // allocations below.
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyNodes { requested: n });
        }
        if self.edges.len() > (u32::MAX / 2) as usize {
            return Err(GraphError::TooManyEdges {
                requested: self.edges.len(),
            });
        }
        let mut report = BuildReport::default();
        // Pass 1: count directed degree (both directions per edge).
        let mut counts = vec![0u32; n + 1];
        for &(u, v) in &self.edges {
            if u == v {
                report.self_loops += 1;
                continue;
            }
            counts[u as usize + 1] += 1;
            counts[v as usize + 1] += 1;
        }
        // Prefix-sum into offsets.
        let mut offsets = counts;
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Pass 2: scatter neighbors.
        let mut cursor = offsets.clone();
        let mut neighbors = vec![NodeId(0); *offsets.last().unwrap() as usize];
        for &(u, v) in &self.edges {
            if u == v {
                continue;
            }
            neighbors[cursor[u as usize] as usize] = NodeId(v);
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = NodeId(u);
            cursor[v as usize] += 1;
        }
        drop(cursor);
        // Pass 3: sort rows and deduplicate in place.
        let directed_total = *offsets.last().unwrap() as usize;
        let mut write = 0usize;
        let mut new_offsets = Vec::with_capacity(n + 1);
        new_offsets.push(0u32);
        let mut read_start = 0usize;
        for i in 0..n {
            let read_end = offsets[i + 1] as usize;
            let row = &mut neighbors[read_start..read_end];
            row.sort_unstable();
            let mut prev: Option<NodeId> = None;
            let mut w = write;
            for k in read_start..read_end {
                let v = neighbors[k];
                if prev != Some(v) {
                    neighbors[w] = v;
                    w += 1;
                    prev = Some(v);
                }
            }
            write = w;
            read_start = read_end;
            new_offsets.push(write as u32);
        }
        neighbors.truncate(write);
        // Each duplicate undirected edge contributed two directed entries
        // that pass 3's dedup discarded.
        report.duplicates = ((directed_total - write) / 2) as u64;
        Ok((CsrGraph::from_parts(new_offsets, neighbors), report))
    }

    /// Like [`GraphBuilder::build`], followed by a degree-ordered
    /// relabeling pass: the returned graph numbers nodes by descending
    /// degree (hub rows first — see [`Relabeling::degree_descending`] for
    /// why that helps the ascent's cache behavior), and the returned
    /// [`Relabeling`] maps its ids back to the builder's original ids, so
    /// communities found on the compact graph can be reported in original
    /// ids via [`Relabeling::cover_to_original`].
    pub fn build_degree_ordered(self) -> (CsrGraph, Relabeling) {
        let g = self.build();
        let relabeling = Relabeling::degree_descending(&g);
        (g.relabeled(&relabeling), relabeling)
    }
}

/// Builds a graph directly from `(u, v)` pairs, growing to fit.
pub fn from_edges<I: IntoIterator<Item = (u32, u32)>>(node_count: usize, edges: I) -> CsrGraph {
    let mut b = GraphBuilder::new(node_count);
    b.extend_edges(edges);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_graph() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn drops_self_loops_and_duplicates() {
        let g = from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert!(!g.has_edge(NodeId(2), NodeId(2)));
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn growable_builder_expands() {
        let mut b = GraphBuilder::new_growable();
        b.add_edge(5, 2);
        assert_eq!(b.node_count(), 6);
        let g = b.build();
        assert_eq!(g.node_count(), 6);
        assert!(g.has_edge(NodeId(5), NodeId(2)));
    }

    #[test]
    fn try_new_rejects_oversized_graphs() {
        assert!(GraphBuilder::try_new(u32::MAX as usize).is_ok());
        let err = GraphBuilder::try_new(u32::MAX as usize + 1).unwrap_err();
        assert!(err.to_string().contains("2^32"));
    }

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new(0).build();
        assert!(g.is_empty());
        let g = GraphBuilder::new(7).build();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn extend_edges_and_capacity() {
        let mut b = GraphBuilder::new(10).with_edge_capacity(3);
        b.extend_edges([(0, 1), (2, 3), (4, 5)]);
        let g = b.build();
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn build_degree_ordered_relabels_hubs_first() {
        // Node 2 is the hub (degree 3); 0 and 3 have degree 2; 1 and 4
        // have degree 1 (duplicates and the self-loop are normalized away
        // before degrees are taken).
        let mut b = GraphBuilder::new(5);
        b.extend_edges([(0, 2), (2, 3), (2, 4), (0, 3), (0, 3), (1, 1), (1, 0)]);
        let (g, relabeling) = b.build_degree_ordered();
        assert!(g.validate().is_ok());
        assert_eq!(g.edge_count(), 5);
        // Degrees are non-increasing along the new ids, hub first.
        assert_eq!(relabeling.to_original(NodeId(0)), NodeId(0), "degree 3");
        for v in 1..g.node_count() as u32 {
            assert!(g.degree(NodeId(v)) <= g.degree(NodeId(v - 1)));
        }
        // The permutation round-trips, and mapping the hub's compact row
        // back recovers its original neighborhood.
        for v in 0..g.node_count() as u32 {
            let v = NodeId(v);
            assert_eq!(relabeling.to_compact(relabeling.to_original(v)), v);
        }
        let mut hub_row: Vec<u32> = g
            .neighbors(NodeId(0))
            .iter()
            .map(|&u| relabeling.to_original(u).raw())
            .collect();
        hub_row.sort_unstable();
        assert_eq!(hub_row, vec![1, 2, 3], "original neighbors of node 0");
    }

    #[test]
    fn build_report_counts_self_loops_and_duplicates() {
        let mut b = GraphBuilder::new(3);
        // 2 self-loops; {0,1} appears 3 times (2 duplicates, once reversed);
        // {1,2} appears once.
        b.extend_edges([(0, 1), (1, 0), (0, 1), (2, 2), (1, 2), (0, 0)]);
        let (g, report) = b.try_build_report().unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(report.self_loops, 2);
        assert_eq!(report.duplicates, 2);
    }

    #[test]
    fn clean_input_reports_zero_drops() {
        let mut b = GraphBuilder::new(3);
        b.extend_edges([(0, 1), (1, 2)]);
        let (_, report) = b.try_build_report().unwrap();
        assert_eq!(report, BuildReport::default());
    }

    #[test]
    fn growable_builder_rejects_u32_boundary_ids_before_allocating() {
        // An edge touching id u32::MAX needs 2^32 nodes, which overflows
        // the id space; this must fail with a typed error *before* the
        // builder allocates its O(n) counting arrays.
        let mut b = GraphBuilder::new_growable();
        b.add_edge(u32::MAX, 0);
        let err = b.try_build().unwrap_err();
        assert!(matches!(err, GraphError::TooManyNodes { .. }), "{err}");
    }

    #[test]
    fn heavily_duplicated_input_normalizes() {
        let mut edges = Vec::new();
        for _ in 0..50 {
            edges.push((0, 1));
            edges.push((1, 0));
        }
        let g = from_edges(2, edges);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
    }
}
