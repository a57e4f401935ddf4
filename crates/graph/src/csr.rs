//! Compressed sparse row (CSR) storage for simple undirected graphs.
//!
//! This is the "ad hoc C++ structure" of the paper's Section V, rebuilt in
//! Rust: offsets + a flat neighbor array, with each undirected edge stored in
//! both endpoint rows. Neighbor rows are sorted, which gives `O(log deg)`
//! adjacency tests via binary search and cache-friendly merges (used heavily
//! by the triangle-counting path of the CFinder baseline).
//!
//! Offsets are `u32`, halving the offset-array footprint on 64-bit targets
//! and doubling how many rows fit a cache line during neighbor scans. The
//! cost is a capacity ceiling of `u32::MAX` *directed* adjacency entries
//! (≈ 2.1 × 10⁹ undirected edges) — an order of magnitude above the paper's
//! largest experiment — enforced by [`crate::builder::GraphBuilder`].

use crate::node::NodeId;
use crate::storage::{NodeSlab, U32Slab};

/// A simple undirected graph in CSR form.
///
/// Invariants (checked by [`CsrGraph::validate`], relied upon everywhere):
/// * `offsets.len() == node_count + 1`, `offsets[0] == 0`, non-decreasing;
/// * each neighbor row is strictly sorted (no duplicates, no self-loops);
/// * adjacency is symmetric: `v ∈ N(u)` iff `u ∈ N(v)`.
///
/// The two arrays live in `storage` slabs: owned `Vec`s for graphs
/// built in RAM, read-only windows of a memory-mapped `.ocg` file for graphs
/// opened via [`crate::ocg::open_ocg_path`]. Every accessor goes through the
/// same slice view either way, so consumers cannot tell the difference.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    offsets: U32Slab,
    neighbors: NodeSlab,
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets_slice() == other.offsets_slice()
            && self.neighbors_slice() == other.neighbors_slice()
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// Builds a CSR graph from raw parts.
    ///
    /// Callers must uphold the invariants in the type docs; this is intended
    /// for use by [`crate::builder::GraphBuilder`] and deserialization.
    ///
    /// Only the O(1) structural frame is asserted here (non-empty offsets,
    /// `offsets[0] == 0`, last offset equal to the neighbor count). The row
    /// checks — monotone offsets, sorted rows, symmetry — live in
    /// [`CsrGraph::validate`], which callers assembling parts from
    /// untrusted data should invoke explicitly; running it on every
    /// construction made large generated-graph tests pay a full validation
    /// sweep per build.
    pub fn from_parts(offsets: Vec<u32>, neighbors: Vec<NodeId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(offsets[0], 0, "offsets[0] must be 0");
        assert_eq!(
            *offsets.last().unwrap() as usize,
            neighbors.len(),
            "last offset must equal neighbor array length"
        );
        CsrGraph {
            offsets: U32Slab::Owned(offsets),
            neighbors: NodeSlab::Owned(neighbors),
        }
    }

    /// Assembles a graph directly from storage slabs (mmap-backed loads).
    /// Same O(1) structural asserts as [`CsrGraph::from_parts`].
    pub(crate) fn from_slabs(offsets: U32Slab, neighbors: NodeSlab) -> Self {
        {
            let off = offsets.as_slice();
            assert!(!off.is_empty(), "offsets must have at least one entry");
            assert_eq!(off[0], 0, "offsets[0] must be 0");
            assert_eq!(
                *off.last().unwrap() as usize,
                neighbors.as_slice().len(),
                "last offset must equal neighbor array length"
            );
        }
        CsrGraph { offsets, neighbors }
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            offsets: U32Slab::Owned(vec![0; n + 1]),
            neighbors: NodeSlab::Owned(Vec::new()),
        }
    }

    /// The raw offsets array (`node_count + 1` entries).
    #[inline]
    pub(crate) fn offsets_slice(&self) -> &[u32] {
        self.offsets.as_slice()
    }

    /// The raw directed neighbor array.
    #[inline]
    pub(crate) fn neighbors_slice(&self) -> &[NodeId] {
        self.neighbors.as_slice()
    }

    /// True if this graph's arrays are windows of a mapped file rather than
    /// owned heap memory.
    pub fn is_mapped(&self) -> bool {
        matches!(self.offsets, U32Slab::Mapped { .. })
    }

    /// A deep copy whose arrays are owned heap `Vec`s regardless of this
    /// graph's backing — the way to materialize a mapped graph fully in
    /// RAM (e.g. to compare the mmap path against in-memory behavior).
    pub fn to_owned_storage(&self) -> CsrGraph {
        CsrGraph::from_parts(
            self.offsets_slice().to_vec(),
            self.neighbors_slice().to_vec(),
        )
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.as_slice().len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.neighbors.as_slice().len() / 2
    }

    /// True if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        let offsets = self.offsets.as_slice();
        (offsets[i + 1] - offsets[i]) as usize
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        let offsets = self.offsets.as_slice();
        &self.neighbors.as_slice()[offsets[i] as usize..offsets[i + 1] as usize]
    }

    /// Every neighbor row in node order: item `i` is `neighbors(NodeId(i))`.
    /// Resolves the storage slabs once for the whole walk instead of once
    /// per row, for full sweeps such as a mat-vec.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        self.row_block(0..self.node_count())
    }

    /// The neighbor rows of the nodes in `block`, in node order: the
    /// slice of [`CsrGraph::rows`] one worker of a split sweep walks,
    /// with the storage slabs resolved once for the whole block.
    ///
    /// # Panics
    /// Panics if `block` reaches past `node_count()`.
    pub fn row_block(
        &self,
        block: std::ops::Range<usize>,
    ) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        let neighbors = self.neighbors.as_slice();
        self.offsets.as_slice()[block.start..block.end + 1]
            .windows(2)
            .map(move |w| &neighbors[w[0] as usize..w[1] as usize])
    }

    /// True if `{u, v}` is an edge. `O(log deg)`; probes the smaller row.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Iterator over undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree (`2m / n`), or 0.0 for an empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.neighbors.as_slice().len() as f64) / (self.node_count() as f64)
        }
    }

    /// Number of edges with both endpoints in `set_flags` (a node→bool mask).
    ///
    /// This is `Ein(S)` from the paper's fitness function. `O(Σ_{v∈S} deg v)`.
    pub fn internal_edges(&self, members: &[NodeId], set_flags: &[bool]) -> usize {
        let mut twice = 0usize;
        for &v in members {
            debug_assert!(set_flags[v.index()]);
            twice += self
                .neighbors(v)
                .iter()
                .filter(|&&u| set_flags[u.index()])
                .count();
        }
        twice / 2
    }

    /// Relabels the graph through `relabeling`: node `i` of the result is
    /// node `relabeling.to_original(i)` of `self`, with every row remapped
    /// and re-sorted. `O(n + m log max_degree)`.
    ///
    /// # Panics
    /// Panics if the relabeling's length differs from the node count.
    pub fn relabeled(&self, relabeling: &crate::relabel::Relabeling) -> CsrGraph {
        assert_eq!(
            relabeling.len(),
            self.node_count(),
            "relabeling covers a different node count"
        );
        let n = self.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for new in 0..n as u32 {
            total += self.degree(relabeling.to_original(NodeId(new))) as u32;
            offsets.push(total);
        }
        let mut neighbors = vec![NodeId(0); total as usize];
        for new in 0..n as u32 {
            let row =
                &mut neighbors[offsets[new as usize] as usize..offsets[new as usize + 1] as usize];
            for (slot, &u) in row
                .iter_mut()
                .zip(self.neighbors(relabeling.to_original(NodeId(new))))
            {
                *slot = relabeling.to_compact(u);
            }
            row.sort_unstable();
        }
        CsrGraph::from_parts(offsets, neighbors)
    }

    /// Checks all CSR invariants; returns a description of the first failure.
    ///
    /// One sequential pass over the rows plus one probe per undirected
    /// edge, with one `u32` cursor per row. Rows are walked in ascending
    /// `u`; each entry `v > u` claims the next unclaimed slot of row `v`,
    /// which must lie inside that row and hold `u`. Because claimants
    /// arrive in ascending order, on reaching row `u` its claims must
    /// cover exactly its entries below `u`: together the two checks say
    /// `v ∈ N(u)` iff `u ∈ N(v)` for every pair.
    pub fn validate(&self) -> Result<(), String> {
        let offsets = self.offsets.as_slice();
        let neighbors = self.neighbors.as_slice();
        if offsets.is_empty() {
            return Err("offsets must have at least one entry".into());
        }
        if offsets[0] != 0 {
            return Err("offsets[0] must be 0".into());
        }
        if *offsets.last().unwrap() as usize != neighbors.len() {
            return Err("last offset must equal neighbor array length".into());
        }
        let n = self.node_count();
        for w in offsets.windows(2) {
            if w[0] > w[1] {
                return Err("offsets must be non-decreasing".into());
            }
        }
        let mut cursor = offsets[..n].to_vec();
        for (i, w) in offsets.windows(2).enumerate() {
            let u = NodeId(i as u32);
            let row = &neighbors[w[0] as usize..w[1] as usize];
            for pair in row.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!("row of {u:?} not strictly sorted"));
                }
            }
            for &v in row {
                if v.index() >= n {
                    return Err(format!("neighbor {v:?} of {u:?} out of bounds"));
                }
                if v == u {
                    return Err(format!("self-loop at {u:?}"));
                }
            }
            let below = row.partition_point(|&v| v < u);
            let claimed = (cursor[i] - w[0]) as usize;
            if claimed != below {
                return Err(format!("edge {u:?}-{:?} not symmetric", row[claimed]));
            }
            for &v in &row[below..] {
                let slot = &mut cursor[v.index()];
                if *slot >= offsets[v.index() + 1] || neighbors[*slot as usize] != u {
                    return Err(format!("edge {u:?}-{v:?} not symmetric"));
                }
                *slot += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges, GraphBuilder};
    use crate::testing::XorShift;

    fn triangle_plus_pendant() -> CsrGraph {
        // 0-1, 1-2, 0-2 triangle; 3 pendant on 2; 4 isolated.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle_plus_pendant();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId(2)), 3);
        assert_eq!(g.degree(NodeId(4)), 0);
        assert_eq!(g.max_degree(), 3);
        assert!((g.average_degree() - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_plus_pendant();
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn rows_walk_every_neighbor_row_in_node_order() {
        let g = triangle_plus_pendant();
        assert_eq!(g.rows().len(), g.node_count());
        for (v, row) in g.nodes().zip(g.rows()) {
            assert_eq!(row, g.neighbors(v));
        }
        let block: Vec<&[NodeId]> = g.row_block(1..3).collect();
        assert_eq!(block, [g.neighbors(NodeId(1)), g.neighbors(NodeId(2))]);
        assert_eq!(g.row_block(4..4).len(), 0);
    }

    #[test]
    fn has_edge_both_directions_and_non_edges() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
        assert!(!g.has_edge(NodeId(4), NodeId(0)));
        assert!(!g.has_edge(NodeId(1), NodeId(1)), "no self loops");
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle_plus_pendant();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (u, v) in &edges {
            assert!(u < v);
        }
        assert!(edges.contains(&(NodeId(0), NodeId(2))));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(0);
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert!(g.validate().is_ok());

        let g = CsrGraph::empty(3);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn internal_edges_counts_ein() {
        let g = triangle_plus_pendant();
        let mut flags = vec![false; 5];
        for i in [0usize, 1, 2] {
            flags[i] = true;
        }
        let members = [NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(g.internal_edges(&members, &flags), 3);

        let mut flags2 = vec![false; 5];
        flags2[2] = true;
        flags2[3] = true;
        assert_eq!(g.internal_edges(&[NodeId(2), NodeId(3)], &flags2), 1);
    }

    #[test]
    fn validate_catches_asymmetry() {
        // 0 -> 1 but not 1 -> 0.
        let g = CsrGraph::from_parts(vec![0, 1, 1], vec![NodeId(1)]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_catches_self_loop() {
        let g = CsrGraph::from_parts(vec![0, 1], vec![NodeId(0)]);
        assert!(g.validate().is_err());
    }

    /// The binary-search checker `validate` replaced: for every directed
    /// entry `u → v`, a search for `u` in row `v`. The reference verdict
    /// for the differential test below.
    fn validate_reference(g: &CsrGraph) -> Result<(), String> {
        let offsets = g.offsets_slice();
        if offsets.is_empty() {
            return Err("offsets must have at least one entry".into());
        }
        if offsets[0] != 0 {
            return Err("offsets[0] must be 0".into());
        }
        if *offsets.last().unwrap() as usize != g.neighbors_slice().len() {
            return Err("last offset must equal neighbor array length".into());
        }
        let n = g.node_count();
        for w in offsets.windows(2) {
            if w[0] > w[1] {
                return Err("offsets must be non-decreasing".into());
            }
        }
        for u in g.nodes() {
            let row = g.neighbors(u);
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row of {u:?} not strictly sorted"));
                }
            }
            for &v in row {
                if v.index() >= n {
                    return Err(format!("neighbor {v:?} of {u:?} out of bounds"));
                }
                if v == u {
                    return Err(format!("self-loop at {u:?}"));
                }
                if g.neighbors(v).binary_search(&u).is_err() {
                    return Err(format!("edge {u:?}-{v:?} not symmetric"));
                }
            }
        }
        Ok(())
    }

    /// A random simple graph with a hub joined to most nodes and a tail
    /// of isolated nodes, as raw rows.
    fn random_rows(rng: &mut XorShift) -> Vec<Vec<u32>> {
        let linked = 1 + rng.below(40);
        let n = linked + rng.below(4);
        let hub = rng.below(linked) as u32;
        let mut edges = Vec::new();
        for v in 0..linked as u32 {
            if rng.below(4) != 0 {
                edges.push((hub, v));
            }
        }
        for _ in 0..rng.below(3 * linked) {
            edges.push((rng.below(linked) as u32, rng.below(linked) as u32));
        }
        let g = from_edges(n, edges);
        g.nodes()
            .map(|u| g.neighbors(u).iter().map(|v| v.raw()).collect())
            .collect()
    }

    fn flatten(rows: &[Vec<u32>]) -> (Vec<u32>, Vec<NodeId>) {
        let mut offsets = vec![0u32];
        let mut neighbors = Vec::new();
        for row in rows {
            neighbors.extend(row.iter().map(|&v| NodeId(v)));
            offsets.push(neighbors.len() as u32);
        }
        (offsets, neighbors)
    }

    /// Applies corruption `kind` where the graph has room for it; returns
    /// false (and changes nothing) where it has none.
    fn corrupt(rng: &mut XorShift, kind: usize, rows: &mut [Vec<u32>]) -> bool {
        let n = rows.len();
        let u = rng.below(n);
        let row = &mut rows[u];
        match kind {
            // Drop one direction of an edge.
            0 if !row.is_empty() => {
                row.remove(rng.below(row.len()));
            }
            // An extra entry below the diagonal.
            1 if u > 0 => {
                let w = rng.below(u) as u32;
                match row.binary_search(&w) {
                    Ok(_) => return false,
                    Err(at) => row.insert(at, w),
                }
            }
            // Two entries of a row swapped.
            2 if row.len() >= 2 => {
                let i = rng.below(row.len() - 1);
                let j = i + 1 + rng.below(row.len() - 1 - i);
                row.swap(i, j);
            }
            // A duplicated entry.
            3 if !row.is_empty() => {
                let i = rng.below(row.len());
                row.insert(i, row[i]);
            }
            // A self-loop.
            4 => {
                let at = row.partition_point(|&v| v < u as u32);
                row.insert(at, u as u32);
            }
            // An out-of-bounds id.
            5 => row.push((n + rng.below(3)) as u32),
            _ => return false,
        }
        true
    }

    /// Makes the offsets non-monotone at one interior node, if any row
    /// boundary can move.
    fn corrupt_offsets(rng: &mut XorShift, offsets: &mut [u32]) -> bool {
        let n = offsets.len() - 1;
        if n < 2 {
            return false;
        }
        let i = 1 + rng.below(n - 1);
        if offsets[i - 1] > 0 {
            offsets[i] = offsets[i - 1] - 1;
        } else if offsets[i + 1] < offsets[n] {
            offsets[i] = offsets[i + 1] + 1;
        } else {
            return false;
        }
        true
    }

    #[test]
    fn validate_agrees_with_the_binary_search_reference() {
        let mut rng = XorShift::new(0x0c5a);
        let mut verdicts = [0usize; 2];
        for _ in 0..crate::testing::cases(2000) {
            let mut rows = random_rows(&mut rng);
            let mut changed = false;
            for _ in 0..rng.below(3) {
                let kind = rng.below(6);
                changed |= corrupt(&mut rng, kind, &mut rows);
            }
            let (mut offsets, neighbors) = flatten(&rows);
            if rng.below(8) == 0 {
                changed |= corrupt_offsets(&mut rng, &mut offsets);
            }
            let g = CsrGraph::from_parts(offsets, neighbors);
            let (got, want) = (g.validate(), validate_reference(&g));
            assert_eq!(got.is_ok(), want.is_ok(), "{rows:?}: {got:?} vs {want:?}");
            if !changed {
                assert!(got.is_ok(), "{rows:?}: {got:?}");
            }
            verdicts[got.is_ok() as usize] += 1;
        }
        assert!(verdicts.iter().all(|&k| k > 0), "{verdicts:?}");
    }

    #[test]
    fn owned_graphs_are_not_mapped() {
        assert!(!triangle_plus_pendant().is_mapped());
    }
}
