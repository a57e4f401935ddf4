//! Node relabelings: bijections between an *original* and a *compact* id
//! space, with cover mapping.
//!
//! The paper's timing experiments (Section V) credit much of OCA's speed
//! to a cache-conscious "ad hoc" graph layout. A degree-ordered relabeling
//! is the layout half of that: renumbering nodes by descending degree
//! packs the hottest adjacency rows — the hubs every ascent keeps
//! re-scanning — into one contiguous prefix of the neighbor array, and
//! makes the small ids that dominate neighbor lists cheap to compare and
//! cache. Algorithms run on the relabeled graph and report results in
//! original ids by mapping covers back through the [`Relabeling`].

use crate::community::{Community, Cover};
use crate::csr::CsrGraph;
use crate::node::NodeId;

/// A bijection between original node ids and a compact relabeled space.
///
/// `new_to_old[i]` is the original id of relabeled node `i`;
/// `old_to_new` is its inverse. Both directions are O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relabeling {
    new_to_old: Vec<NodeId>,
    old_to_new: Vec<NodeId>,
}

impl Relabeling {
    /// The identity relabeling on `n` nodes.
    pub fn identity(n: usize) -> Self {
        let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        Relabeling {
            new_to_old: ids.clone(),
            old_to_new: ids,
        }
    }

    /// Builds the relabeling from the new→old permutation.
    ///
    /// # Panics
    /// Panics if `new_to_old` is not a permutation of `0..len`.
    pub fn from_new_to_old(new_to_old: Vec<NodeId>) -> Self {
        let n = new_to_old.len();
        let mut old_to_new = vec![NodeId(u32::MAX); n];
        for (new, &old) in new_to_old.iter().enumerate() {
            assert!(old.index() < n, "id {old} out of range for {n} nodes");
            assert_eq!(
                old_to_new[old.index()],
                NodeId(u32::MAX),
                "id {old} appears twice — not a permutation"
            );
            old_to_new[old.index()] = NodeId(new as u32);
        }
        Relabeling {
            new_to_old,
            old_to_new,
        }
    }

    /// The degree-descending relabeling of `graph`: relabeled id 0 is the
    /// highest-degree node. Ties break by ascending original id, so the
    /// result is deterministic.
    pub fn degree_descending(graph: &CsrGraph) -> Self {
        let mut order: Vec<NodeId> = (0..graph.node_count() as u32).map(NodeId).collect();
        order.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        Relabeling::from_new_to_old(order)
    }

    /// The original id of each relabeled node, in relabeled order.
    pub(crate) fn new_to_old(&self) -> &[NodeId] {
        &self.new_to_old
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    /// True for the empty relabeling.
    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// True if the relabeling maps every id to itself.
    pub fn is_identity(&self) -> bool {
        self.new_to_old
            .iter()
            .enumerate()
            .all(|(i, &old)| old.index() == i)
    }

    /// Maps a relabeled (compact) id back to the original id.
    #[inline]
    pub fn to_original(&self, new: NodeId) -> NodeId {
        self.new_to_old[new.index()]
    }

    /// Maps an original id to its relabeled (compact) id.
    #[inline]
    pub fn to_compact(&self, old: NodeId) -> NodeId {
        self.old_to_new[old.index()]
    }

    /// Maps a community of relabeled ids back to original ids.
    pub fn community_to_original(&self, community: &Community) -> Community {
        Community::new(
            community
                .members()
                .iter()
                .map(|&v| self.to_original(v))
                .collect(),
        )
    }

    /// Maps a cover over relabeled ids back to original ids.
    pub fn cover_to_original(&self, cover: &Cover) -> Cover {
        Cover::new(
            cover.node_count(),
            cover
                .communities()
                .iter()
                .map(|c| self.community_to_original(c))
                .collect(),
        )
    }

    /// Maps a community of original ids into the relabeled (compact)
    /// space — the inverse of [`Relabeling::community_to_original`].
    pub fn community_to_compact(&self, community: &Community) -> Community {
        Community::new(
            community
                .members()
                .iter()
                .map(|&v| self.to_compact(v))
                .collect(),
        )
    }

    /// Maps a cover expressed in original ids onto the relabeled graph —
    /// the inverse of [`Relabeling::cover_to_original`]. Used to bring
    /// ground-truth or warm-start covers (stored in input ids) into the
    /// id space detection runs in.
    pub fn cover_to_compact(&self, cover: &Cover) -> Cover {
        Cover::new(
            cover.node_count(),
            cover
                .communities()
                .iter()
                .map(|c| self.community_to_compact(c))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn pendant_path() -> CsrGraph {
        // Degrees: 0 → 1, 1 → 3, 2 → 2, 3 → 1, 4 → 1.
        from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    }

    #[test]
    fn identity_round_trips() {
        let r = Relabeling::identity(4);
        assert!(r.is_identity());
        assert_eq!(r.len(), 4);
        for v in 0..4u32 {
            assert_eq!(r.to_original(NodeId(v)), NodeId(v));
            assert_eq!(r.to_compact(NodeId(v)), NodeId(v));
        }
    }

    #[test]
    fn degree_descending_orders_hubs_first() {
        let g = pendant_path();
        let r = Relabeling::degree_descending(&g);
        // Node 1 (degree 3) becomes 0, node 2 (degree 2) becomes 1, the
        // degree-1 nodes follow in ascending original id.
        assert_eq!(r.to_original(NodeId(0)), NodeId(1));
        assert_eq!(r.to_original(NodeId(1)), NodeId(2));
        assert_eq!(r.to_original(NodeId(2)), NodeId(0));
        assert_eq!(r.to_original(NodeId(3)), NodeId(3));
        assert_eq!(r.to_original(NodeId(4)), NodeId(4));
        assert!(!r.is_identity());
    }

    #[test]
    fn round_trip_is_the_identity_both_ways() {
        let g = pendant_path();
        let r = Relabeling::degree_descending(&g);
        for v in 0..g.node_count() as u32 {
            assert_eq!(r.to_compact(r.to_original(NodeId(v))), NodeId(v));
            assert_eq!(r.to_original(r.to_compact(NodeId(v))), NodeId(v));
        }
    }

    #[test]
    fn relabeled_graph_is_isomorphic() {
        let g = pendant_path();
        let r = Relabeling::degree_descending(&g);
        let h = g.relabeled(&r);
        assert!(h.validate().is_ok());
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edge_count(), g.edge_count());
        for v in 0..g.node_count() as u32 {
            let old = r.to_original(NodeId(v));
            assert_eq!(h.degree(NodeId(v)), g.degree(old));
            for &u in h.neighbors(NodeId(v)) {
                assert!(g.has_edge(old, r.to_original(u)));
            }
        }
        // Degree-descending means non-increasing degrees along new ids.
        for v in 1..h.node_count() as u32 {
            assert!(h.degree(NodeId(v)) <= h.degree(NodeId(v - 1)));
        }
    }

    #[test]
    fn cover_maps_back_to_original_ids() {
        let g = pendant_path();
        let r = Relabeling::degree_descending(&g);
        // In relabeled space: {0, 1} = original {1, 2}.
        let cover = Cover::new(5, vec![Community::from_raw([0, 1])]);
        let mapped = r.cover_to_original(&cover);
        assert_eq!(mapped.communities()[0].members(), &[NodeId(1), NodeId(2)]);
        assert_eq!(mapped.node_count(), 5);
        // The inverse crossing round-trips.
        assert_eq!(r.cover_to_compact(&mapped), cover);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn duplicate_ids_are_rejected() {
        Relabeling::from_new_to_old(vec![NodeId(0), NodeId(0)]);
    }

    #[test]
    fn empty_relabeling() {
        let r = Relabeling::identity(0);
        assert!(r.is_empty());
        assert!(r.is_identity());
    }
}
