//! Incremental community state for the greedy search.
//!
//! Maintains the candidate set `S`, its internal edge count `Ein(S)`, and
//! the internal degree `deg_S(v)` of every touched node, so that evaluating
//! or applying a move costs `O(deg v)` instead of `O(Σ_{u∈S} deg u)`. This
//! is the difference between OCA's flat runtime curve (Fig. 6) and a
//! quadratic blow-up; the ablation bench quantifies it.
//!
//! The layout is built for zero steady-state allocation and cache locality
//! (DESIGN.md "Memory layout"): one packed 16-byte record per node holds
//! the membership/touched flags, the internal degree, the member-list slot
//! and the intrusive links of the bucket queues, so every hot-path access
//! to a node is a single cache line; the best-addition and best-removal
//! queues are intrusive doubly-linked bucket lists over those records
//! (true O(1) insert/delete/degree-move, no stale entries, no per-ascent
//! heap allocation); and the `√(s(s−1))` of every gain evaluation comes
//! from a memoized [`SqrtTable`].

use crate::fitness::SqrtTable;
use crate::seed::splitmix64;
use oca_graph::{Community, CsrGraph, NodeId};

/// Sentinel for "no node" in the intrusive links and head arrays.
const NIL: u32 = u32::MAX;

/// Domain-separation constants for the two 64-bit halves of the set
/// fingerprint (arbitrary odd constants; see [`CommunityState::fingerprint`]).
const FP_XOR_SALT: u64 = 0xA076_1D64_78BD_642F;
const FP_SUM_SALT: u64 = 0xE703_7ED1_A0B4_28DB;

/// The per-node mix feeding the XOR half of the fingerprint.
#[inline(always)]
fn fp_mix_xor(v: u32) -> u64 {
    splitmix64(v as u64 ^ FP_XOR_SALT)
}

/// The per-node mix feeding the additive half of the fingerprint.
#[inline(always)]
fn fp_mix_sum(v: u32) -> u64 {
    splitmix64(v as u64 ^ FP_SUM_SALT)
}

/// Folds the two halves into the 128-bit fingerprint: the additive half
/// high, the XOR half low.
#[inline(always)]
fn fp_combine(xor: u64, sum: u64) -> u128 {
    ((sum as u128) << 64) | xor as u128
}

/// The fingerprint [`CommunityState::fingerprint`] reports while the state
/// holds exactly the set `members` (which must be duplicate-free), computed
/// from scratch in `O(|members|)`. A resumed driver rebuilds its dedup set
/// from the checkpointed communities with it.
pub fn set_fingerprint(members: &[NodeId]) -> u128 {
    let (mut xor, mut sum) = (0u64, 0u64);
    for v in members {
        xor ^= fp_mix_xor(v.raw());
        sum = sum.wrapping_add(fp_mix_sum(v.raw()));
    }
    fp_combine(xor, sum)
}

/// `word` bit for "v ∈ S".
const IN_SET: u32 = 1 << 31;
/// `word` bit for "v is on the touched list".
const TOUCHED: u32 = 1 << 30;
/// `word` bits holding `deg_S(v)`. 30 bits suffice for any realistic
/// graph (a 2^30-neighbor row alone costs 8 GiB of symmetric adjacency);
/// [`CommunityState::new`] asserts the bound once so the per-move
/// arithmetic can never carry into the flag bits.
const DEG_MASK: u32 = TOUCHED - 1;

/// Packed per-node record: flags + internal degree in one word, the
/// intrusive queue links, and the member-list slot. 16 bytes, so the whole
/// hot-path state of a node is one aligned quarter-cache-line.
#[derive(Debug, Clone, Copy)]
struct NodeRec {
    /// Bit 31 = in set, bit 30 = touched, bits 0..30 = `deg_S(v)`.
    word: u32,
    /// Previous node in this node's bucket list, or [`NIL`].
    prev: u32,
    /// Next node in this node's bucket list, or [`NIL`].
    next: u32,
    /// Index in `members` while in the set (unused otherwise).
    slot: u32,
}

impl NodeRec {
    const EMPTY: NodeRec = NodeRec {
        word: 0,
        prev: NIL,
        next: NIL,
        slot: 0,
    };
}

/// Unlinks a node whose links `(prev, next)` the caller has already read
/// from bucket `d`. Does not touch the node's own record: callers rewrite
/// it wholesale right after (relink or retirement), so clearing the links
/// here would be a wasted store.
#[inline(always)]
fn unlink_known(recs: &mut [NodeRec], heads: &mut [u32], prev: u32, next: u32, d: usize) {
    if prev == NIL {
        heads[d] = next;
    } else {
        recs[prev as usize].next = next;
    }
    if next != NIL {
        recs[next as usize].prev = prev;
    }
}

/// Links `v` at the head of bucket `d`, returning the previous head so the
/// caller can fold it into the single write of `v`'s record (`next`).
#[inline(always)]
fn link_at_head(
    recs: &mut [NodeRec],
    heads: &mut [u32],
    dirty: &mut Vec<u32>,
    v: u32,
    d: usize,
) -> u32 {
    let head = heads[d];
    if head == NIL {
        dirty.push(d as u32);
    } else {
        recs[head as usize].prev = v;
    }
    heads[d] = v;
    head
}

/// Mutable state of one community search over a fixed graph.
///
/// Buffers are `O(n + max_degree)` but reusable across seeds via
/// [`CommunityState::reset`], which clears only the touched entries.
#[derive(Debug)]
pub struct CommunityState<'g> {
    graph: &'g CsrGraph,
    c: f64,
    /// One packed record per node (flags, degree, links, slot).
    recs: Vec<NodeRec>,
    /// Nodes whose record may differ from [`NodeRec::EMPTY`] (for cheap
    /// reset).
    touched: Vec<NodeId>,
    members: Vec<NodeId>,
    ein: usize,
    /// XOR half of the order-independent 128-bit set fingerprint,
    /// maintained O(1) per membership change.
    fp_xor: u64,
    /// Additive (wrapping-sum) half of the fingerprint.
    fp_sum: u64,
    /// Intrusive bucket heads for the boundary (best-addition) queue:
    /// `add_heads[d]` starts the list of non-members with `deg_S = d ≥ 1`.
    add_heads: Vec<u32>,
    /// Largest possibly-non-empty bucket of `add_heads`; tightened
    /// incrementally by [`CommunityState::best_addition`], never by a
    /// full-range scan.
    add_max: usize,
    /// Intrusive bucket heads for the member (best-removal) queue.
    rem_heads: Vec<u32>,
    /// Smallest possibly-non-empty bucket of `rem_heads` (mirror of
    /// `add_max`).
    rem_min: usize,
    /// Buckets of `add_heads` that may be non-[`NIL`] — pushed on the
    /// empty→non-empty transition, so [`CommunityState::reset`] clears
    /// only touched buckets instead of scanning up to the largest internal
    /// degree the state has ever seen (O(max_degree) on hub graphs).
    dirty_add: Vec<u32>,
    /// Same for `rem_heads`.
    dirty_rem: Vec<u32>,
    /// Bitmap of nodes excluded from the addition queue (covered hubs;
    /// see [`CommunityState::set_prune_snapshot`]). Empty = pruning off.
    /// The packed records still track exact internal degrees for pruned
    /// nodes — only their *candidacy* is suppressed — so `Ein` and every
    /// gain evaluation stay exact.
    prune: Vec<u64>,
    /// Memoized `√(s(s−1))`; grown when the member list grows, so gain
    /// evaluations never call `sqrt` at steady state.
    sqrt: SqrtTable,
    /// Bucket-head inspections performed by the best-candidate queries
    /// since construction; the drift regression test asserts this stays
    /// proportional to work done, not to the bucket range.
    probes: u64,
    /// How many bucket heads the last [`CommunityState::reset`] visited;
    /// the regression test asserts it stays proportional to work done.
    #[cfg(test)]
    last_reset_bucket_visits: usize,
}

impl<'g> CommunityState<'g> {
    /// Creates an empty state for `graph` with interaction strength `c`.
    ///
    /// # Panics
    /// Panics if the graph's maximum degree does not fit the 30-bit packed
    /// degree field (a single node with ≥ 2^30 neighbors; the builder's
    /// edge cap admits such a hub in principle, so the boundary is checked
    /// here once rather than per move).
    pub fn new(graph: &'g CsrGraph, c: f64) -> Self {
        let n = graph.node_count();
        // Internal degrees never exceed the graph's maximum degree, so the
        // head arrays are allocated once, here, at their final size — and
        // the packed records can never overflow their degree bits.
        let max_degree = graph.max_degree();
        assert!(
            max_degree < DEG_MASK as usize,
            "maximum degree {max_degree} exceeds the packed 30-bit deg_S field"
        );
        let buckets = max_degree + 1;
        let mut sqrt = SqrtTable::new();
        sqrt.ensure(1);
        CommunityState {
            graph,
            c,
            recs: vec![NodeRec::EMPTY; n],
            touched: Vec::new(),
            members: Vec::new(),
            ein: 0,
            fp_xor: 0,
            fp_sum: 0,
            add_heads: vec![NIL; buckets],
            add_max: 0,
            rem_heads: vec![NIL; buckets],
            rem_min: usize::MAX,
            dirty_add: Vec::new(),
            dirty_rem: Vec::new(),
            prune: Vec::new(),
            sqrt,
            probes: 0,
            #[cfg(test)]
            last_reset_bucket_visits: 0,
        }
    }

    /// The interaction strength in use.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Current community size `s`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Current internal edge count `Ein(S)`.
    pub fn internal_edges(&self) -> usize {
        self.ein
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.recs[v.index()].word & IN_SET != 0
    }

    /// Internal degree of `v` with respect to the current set.
    #[inline]
    pub fn internal_degree(&self, v: NodeId) -> usize {
        (self.recs[v.index()].word & DEG_MASK) as usize
    }

    /// The current members (unsorted).
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// The current fitness `L(S)`.
    pub fn fitness(&self) -> f64 {
        self.sqrt.fitness(self.members.len(), self.ein, self.c)
    }

    /// An order-independent 128-bit fingerprint of the current member
    /// *set*: two independently salted SplitMix64 mixes per node, folded
    /// with XOR (low half) and wrapping addition (high half). Both folds
    /// commute and invert, so the value is maintained in O(1) per
    /// [`CommunityState::add`]/[`CommunityState::remove`] and depends only
    /// on membership — two ascents converging to the same set report the
    /// same fingerprint no matter the move order. The driver's dedup set
    /// keys on this instead of cloning and hashing the member vector
    /// (collision odds for distinct sets ≈ 2⁻¹²⁸ per pair; DESIGN.md §4a).
    pub fn fingerprint(&self) -> u128 {
        fp_combine(self.fp_xor, self.fp_sum)
    }

    /// Fitness gain if `v` were added. `v` must not be a member.
    pub fn gain_add(&self, v: NodeId) -> f64 {
        debug_assert!(!self.contains(v));
        self.sqrt.gain_add(
            self.members.len(),
            self.ein,
            self.internal_degree(v),
            self.c,
        )
    }

    /// Fitness gain if `v` were removed. `v` must be a member.
    pub fn gain_remove(&self, v: NodeId) -> f64 {
        debug_assert!(self.contains(v));
        self.sqrt.gain_remove(
            self.members.len(),
            self.ein,
            self.internal_degree(v),
            self.c,
        )
    }

    /// Total bucket-head inspections by [`CommunityState::best_addition`]
    /// and [`CommunityState::best_removal`] since construction.
    ///
    /// With the intrusive queues this is O(moves + degree changes) over a
    /// run: the bounds only walk buckets they then permanently tighten
    /// past, so there is no repeated scanning of empty ranges — the drift
    /// regression test counts these.
    pub fn bucket_probes(&self) -> u64 {
        self.probes
    }

    /// True if `v` is suppressed from the addition queue by the prune
    /// snapshot. O(1) bit test; `false` whenever pruning is off.
    #[inline(always)]
    fn pruned_bit(&self, v: u32) -> bool {
        match self.prune.get((v >> 6) as usize) {
            Some(word) => (word >> (v & 63)) & 1 != 0,
            None => false,
        }
    }

    /// Installs (or, with an empty slice, clears) the covered-hub bitmap:
    /// nodes whose bit is set are skipped when enumerating add candidates.
    /// The driver passes `round-start coverage ∧ hub-degree mask`, so every
    /// ticket of a round — on any thread — sees the same snapshot and
    /// covers stay bit-identical across thread counts (DESIGN.md §2a).
    /// Takes effect from the next [`CommunityState::reset`]; must not be
    /// called mid-ascent (already-linked candidates would keep their
    /// queue entries).
    pub fn set_prune_snapshot(&mut self, words: &[u64]) {
        self.prune.clear();
        self.prune.extend_from_slice(words);
    }

    /// Adds `v` to the set. `O(deg v)`, allocation-free at steady state.
    ///
    /// Each neighbor costs one read and one write of its packed record
    /// plus the O(1) intrusive relink between adjacent buckets.
    ///
    /// # Panics
    /// Debug-panics if `v` is already a member.
    pub fn add(&mut self, v: NodeId) {
        debug_assert!(!self.contains(v));
        let i = v.index();
        let rec = self.recs[i];
        let d = (rec.word & DEG_MASK) as usize;
        self.ein += d;
        self.fp_xor ^= fp_mix_xor(v.raw());
        self.fp_sum = self.fp_sum.wrapping_add(fp_mix_sum(v.raw()));
        if d > 0 && !self.pruned_bit(v.raw()) {
            // Boundary nodes with positive internal degree sit in the
            // addition queue (unless pruned); v leaves it as it joins S.
            unlink_known(&mut self.recs, &mut self.add_heads, rec.prev, rec.next, d);
        }
        if rec.word & TOUCHED == 0 {
            self.touched.push(v);
        }
        let slot = self.members.len() as u32;
        self.members.push(v);
        self.sqrt.ensure(self.members.len() + 1);
        let head = link_at_head(
            &mut self.recs,
            &mut self.rem_heads,
            &mut self.dirty_rem,
            v.raw(),
            d,
        );
        self.recs[i] = NodeRec {
            word: rec.word | IN_SET | TOUCHED,
            prev: NIL,
            next: head,
            slot,
        };
        if d < self.rem_min {
            self.rem_min = d;
        }
        // Copying the `&'g` graph reference out of `self` lets the
        // neighbor slice outlive the `&mut self` accesses below.
        let graph = self.graph;
        for &u in graph.neighbors(v) {
            let j = u.index();
            let urec = self.recs[j];
            let du = (urec.word & DEG_MASK) as usize;
            if urec.word & TOUCHED == 0 {
                self.touched.push(u);
            }
            if urec.word & IN_SET != 0 {
                // A member moving up one bucket cannot lower the minimum.
                unlink_known(
                    &mut self.recs,
                    &mut self.rem_heads,
                    urec.prev,
                    urec.next,
                    du,
                );
                let head = link_at_head(
                    &mut self.recs,
                    &mut self.rem_heads,
                    &mut self.dirty_rem,
                    u.raw(),
                    du + 1,
                );
                self.recs[j] = NodeRec {
                    word: (urec.word | TOUCHED) + 1,
                    prev: NIL,
                    next: head,
                    slot: urec.slot,
                };
            } else if self.pruned_bit(u.raw()) {
                // Pruned boundary nodes stay out of the queue; only their
                // (exact) degree accounting advances.
                self.recs[j].word = (urec.word | TOUCHED) + 1;
            } else {
                if du > 0 {
                    unlink_known(
                        &mut self.recs,
                        &mut self.add_heads,
                        urec.prev,
                        urec.next,
                        du,
                    );
                }
                let head = link_at_head(
                    &mut self.recs,
                    &mut self.add_heads,
                    &mut self.dirty_add,
                    u.raw(),
                    du + 1,
                );
                self.recs[j] = NodeRec {
                    word: (urec.word | TOUCHED) + 1,
                    prev: NIL,
                    next: head,
                    slot: urec.slot,
                };
                if du + 1 > self.add_max {
                    self.add_max = du + 1;
                }
            }
        }
    }

    /// Removes `v` from the set. `O(deg v)` — the member list is
    /// slot-indexed, so the swap-remove needs no linear scan.
    ///
    /// # Panics
    /// Debug-panics if `v` is not a member.
    pub fn remove(&mut self, v: NodeId) {
        debug_assert!(self.contains(v));
        let i = v.index();
        let rec = self.recs[i];
        let d = (rec.word & DEG_MASK) as usize;
        self.ein -= d;
        self.fp_xor ^= fp_mix_xor(v.raw());
        self.fp_sum = self.fp_sum.wrapping_sub(fp_mix_sum(v.raw()));
        unlink_known(&mut self.recs, &mut self.rem_heads, rec.prev, rec.next, d);
        let slot = rec.slot as usize;
        self.members.swap_remove(slot);
        if let Some(&moved) = self.members.get(slot) {
            self.recs[moved.index()].slot = slot as u32;
        }
        let graph = self.graph;
        for &u in graph.neighbors(v) {
            let j = u.index();
            let urec = self.recs[j];
            let du = (urec.word & DEG_MASK) as usize;
            debug_assert!(du >= 1, "neighbor of a member must have deg_S >= 1");
            if urec.word & IN_SET != 0 {
                unlink_known(
                    &mut self.recs,
                    &mut self.rem_heads,
                    urec.prev,
                    urec.next,
                    du,
                );
                let head = link_at_head(
                    &mut self.recs,
                    &mut self.rem_heads,
                    &mut self.dirty_rem,
                    u.raw(),
                    du - 1,
                );
                self.recs[j] = NodeRec {
                    word: urec.word - 1,
                    prev: NIL,
                    next: head,
                    slot: urec.slot,
                };
                if du - 1 < self.rem_min {
                    self.rem_min = du - 1;
                }
            } else if self.pruned_bit(u.raw()) {
                self.recs[j].word = urec.word - 1;
            } else {
                // A boundary node moving down one bucket cannot raise the
                // maximum; at degree 0 it leaves the queue entirely.
                unlink_known(
                    &mut self.recs,
                    &mut self.add_heads,
                    urec.prev,
                    urec.next,
                    du,
                );
                let head = if du > 1 {
                    link_at_head(
                        &mut self.recs,
                        &mut self.add_heads,
                        &mut self.dirty_add,
                        u.raw(),
                        du - 1,
                    )
                } else {
                    NIL
                };
                self.recs[j] = NodeRec {
                    word: urec.word - 1,
                    prev: NIL,
                    next: head,
                    slot: urec.slot,
                };
            }
        }
        // v rejoins the boundary with its internal degree unchanged
        // (unless pruned).
        if d > 0 && !self.pruned_bit(v.raw()) {
            let head = link_at_head(
                &mut self.recs,
                &mut self.add_heads,
                &mut self.dirty_add,
                v.raw(),
                d,
            );
            self.recs[i] = NodeRec {
                word: rec.word & !IN_SET,
                prev: NIL,
                next: head,
                slot: rec.slot,
            };
            if d > self.add_max {
                self.add_max = d;
            }
        } else {
            self.recs[i] = NodeRec {
                word: rec.word & !IN_SET,
                prev: NIL,
                next: NIL,
                slot: rec.slot,
            };
        }
    }

    /// Iterates the boundary: non-members adjacent to at least one member.
    ///
    /// Derived from the touched list, so the cost is proportional to the
    /// neighborhood of the current and former members, not to `n`.
    pub fn boundary(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.touched.iter().copied().filter(|&v| {
            let word = self.recs[v.index()].word;
            word & IN_SET == 0 && word & DEG_MASK > 0
        })
    }

    /// The best addition candidate: the boundary node with the largest
    /// internal degree.
    ///
    /// Correct because `L(s+1, ein+d)` is strictly increasing in `d` (the
    /// `Ein` coefficient `1 − (s−2)/√(s(s−1))` is positive for all `s`), so
    /// the node maximizing `deg_S(v)` also maximizes the fitness gain. The
    /// intrusive bucket queue holds exactly the eligible boundary (pruned
    /// nodes are suppressed), so this is a head lookup plus the
    /// amortized-O(1) tightening of `add_max` (each empty bucket walked is
    /// never walked again until an insert re-raises the bound). Runs stay
    /// deterministic (LIFO order within a bucket).
    pub fn best_addition(&mut self) -> Option<NodeId> {
        let mut b = self.add_max;
        self.probes += 1;
        while b > 0 && self.add_heads[b] == NIL {
            b -= 1;
            self.probes += 1;
        }
        self.add_max = b;
        if b == 0 {
            None
        } else {
            Some(NodeId(self.add_heads[b]))
        }
    }

    /// The best removal candidate: the member with the smallest internal
    /// degree (the gain of removing is decreasing in `deg_S(v)`; see
    /// [`CommunityState::best_addition`] for the monotonicity argument).
    /// Returns `None` for sets of size ≤ 1.
    pub fn best_removal(&mut self) -> Option<NodeId> {
        if self.members.len() <= 1 {
            return None;
        }
        // A member is always linked in the removal queue, so the ascent
        // from `rem_min` terminates at a real candidate.
        let mut b = self.rem_min;
        self.probes += 1;
        while self.rem_heads[b] == NIL {
            b += 1;
            self.probes += 1;
        }
        self.rem_min = b;
        Some(NodeId(self.rem_heads[b]))
    }

    /// Snapshots the current set as a [`Community`].
    pub fn to_community(&self) -> Community {
        Community::new(self.members.clone())
    }

    /// Clears the set, zeroing only the touched records and the dirty
    /// bucket heads, so the state can be reused for the next seed at a
    /// cost proportional to the work done — not O(n), and not
    /// O(max_degree) even after an earlier ascent through a high-degree
    /// hub has raised the active bucket range.
    pub fn reset(&mut self) {
        for &v in &self.touched {
            self.recs[v.index()] = NodeRec::EMPTY;
        }
        self.touched.clear();
        self.members.clear();
        self.ein = 0;
        self.fp_xor = 0;
        self.fp_sum = 0;
        #[cfg(test)]
        {
            self.last_reset_bucket_visits = self.dirty_add.len() + self.dirty_rem.len();
        }
        for d in self.dirty_add.drain(..) {
            self.add_heads[d as usize] = NIL;
        }
        self.add_max = 0;
        for d in self.dirty_rem.drain(..) {
            self.rem_heads[d as usize] = NIL;
        }
        self.rem_min = usize::MAX;
    }

    /// Recomputes `Ein` from scratch; for tests and debug assertions.
    pub fn recompute_internal_edges(&self) -> usize {
        let mut twice = 0usize;
        for &v in &self.members {
            twice += self
                .graph
                .neighbors(v)
                .iter()
                .filter(|u| self.contains(**u))
                .count();
        }
        twice / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::from_edges;

    fn karate_ish() -> oca_graph::CsrGraph {
        // Two triangles joined by one bridge: 0-1-2 and 3-4-5, bridge 2-3.
        from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn node_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<NodeRec>(), 16);
    }

    #[test]
    fn add_tracks_internal_edges() {
        let g = karate_ish();
        let mut st = CommunityState::new(&g, 0.8);
        st.add(NodeId(0));
        assert_eq!(st.internal_edges(), 0);
        st.add(NodeId(1));
        assert_eq!(st.internal_edges(), 1);
        st.add(NodeId(2));
        assert_eq!(st.internal_edges(), 3);
        assert_eq!(st.recompute_internal_edges(), 3);
        assert_eq!(st.len(), 3);
    }

    #[test]
    fn remove_reverses_add() {
        let g = karate_ish();
        let mut st = CommunityState::new(&g, 0.8);
        for v in [0, 1, 2, 3] {
            st.add(NodeId(v));
        }
        let f_before = st.fitness();
        st.add(NodeId(4));
        st.remove(NodeId(4));
        assert!((st.fitness() - f_before).abs() < 1e-12);
        assert_eq!(st.internal_edges(), st.recompute_internal_edges());
        assert!(!st.contains(NodeId(4)));
    }

    #[test]
    fn boundary_is_exactly_adjacent_non_members() {
        let g = karate_ish();
        let mut st = CommunityState::new(&g, 0.8);
        st.add(NodeId(0));
        st.add(NodeId(1));
        let mut b: Vec<u32> = st.boundary().map(|v| v.raw()).collect();
        b.sort_unstable();
        assert_eq!(b, vec![2]);
        st.add(NodeId(2));
        let mut b: Vec<u32> = st.boundary().map(|v| v.raw()).collect();
        b.sort_unstable();
        assert_eq!(b, vec![3]);
    }

    #[test]
    fn gains_match_apply() {
        let g = karate_ish();
        let mut st = CommunityState::new(&g, 0.8);
        st.add(NodeId(3));
        st.add(NodeId(4));
        let before = st.fitness();
        let predicted = st.gain_add(NodeId(5));
        st.add(NodeId(5));
        assert!((st.fitness() - before - predicted).abs() < 1e-12);

        let before = st.fitness();
        let predicted = st.gain_remove(NodeId(3));
        st.remove(NodeId(3));
        assert!((st.fitness() - before - predicted).abs() < 1e-12);
    }

    #[test]
    fn reset_allows_reuse() {
        let g = karate_ish();
        let mut st = CommunityState::new(&g, 0.8);
        for v in [0, 1, 2] {
            st.add(NodeId(v));
        }
        st.reset();
        assert!(st.is_empty());
        assert_eq!(st.internal_edges(), 0);
        assert_eq!(st.boundary().count(), 0);
        st.add(NodeId(4));
        assert_eq!(st.internal_degree(NodeId(3)), 1);
        assert_eq!(st.internal_edges(), 0);
    }

    #[test]
    fn best_addition_tracks_max_internal_degree() {
        let g = karate_ish();
        let mut st = CommunityState::new(&g, 0.8);
        st.add(NodeId(0));
        st.add(NodeId(1));
        // Node 2 closes the triangle: deg_in 2, strictly best.
        assert_eq!(st.best_addition(), Some(NodeId(2)));
        st.add(NodeId(2));
        // Boundary is only node 3 (deg_in 1).
        assert_eq!(st.best_addition(), Some(NodeId(3)));
    }

    #[test]
    fn best_removal_tracks_min_internal_degree() {
        let g = karate_ish();
        let mut st = CommunityState::new(&g, 0.8);
        for v in [0, 1, 2, 3] {
            st.add(NodeId(v));
        }
        // Node 3 has deg_in 1 (edge to 2), everyone else ≥ 2.
        assert_eq!(st.best_removal(), Some(NodeId(3)));
        st.remove(NodeId(3));
        // Triangle members all have deg_in 2: any is valid.
        let v = st.best_removal().unwrap();
        assert_eq!(st.internal_degree(v), 2);
    }

    #[test]
    fn best_candidates_survive_reset_and_reuse() {
        let g = karate_ish();
        let mut st = CommunityState::new(&g, 0.8);
        for v in [0, 1, 2] {
            st.add(NodeId(v));
        }
        st.reset();
        assert_eq!(st.best_addition(), None);
        assert_eq!(st.best_removal(), None);
        st.add(NodeId(4));
        let b = st.best_addition().unwrap();
        assert!(b == NodeId(3) || b == NodeId(5), "neighbors of 4");
    }

    #[test]
    fn best_addition_handles_degree_decreases() {
        let g = karate_ish();
        let mut st = CommunityState::new(&g, 0.8);
        st.add(NodeId(0));
        st.add(NodeId(1));
        st.add(NodeId(2));
        // 3's deg_in is 1; removing 2 drops it to 0 → no candidates left
        // adjacent to {0,1} except 2 itself.
        st.remove(NodeId(2));
        assert_eq!(st.best_addition(), Some(NodeId(2)));
    }

    /// Regression: `reset` used to clear *every* bucket vec, so after one
    /// ascent through a high-degree hub every later ascent paid
    /// O(max_degree) on reset no matter how small its community was.
    #[test]
    fn reset_visits_only_dirty_buckets() {
        // A 10k-leaf star: adding all leaves walks the hub through buckets
        // 1..=10_000 of the addition queue.
        let leaves = 10_000u32;
        let g = from_edges(leaves as usize + 1, (1..=leaves).map(|leaf| (0, leaf)));
        let mut st = CommunityState::new(&g, 0.8);
        for leaf in 1..=leaves {
            st.add(NodeId(leaf));
        }
        st.reset();
        assert!(
            st.add_heads.len() > leaves as usize / 2,
            "the head arrays span the hub degree"
        );
        // A tiny follow-up ascent: one leaf, touching only the hub.
        st.add(NodeId(1));
        st.remove(NodeId(1));
        st.reset();
        assert!(
            st.last_reset_bucket_visits <= 8,
            "tiny ascent reset visited {} buckets (table size {})",
            st.last_reset_bucket_visits,
            st.add_heads.len()
        );
        // Correctness after the cheap reset: the state is genuinely clean.
        assert!(st.is_empty());
        assert_eq!(st.best_addition(), None);
        st.add(NodeId(0));
        assert_eq!(st.internal_degree(NodeId(1)), 1);
    }

    /// Regression for the bound-drift bug: `max_bucket`/`min_bucket` used
    /// to tighten only on reset, so late in a long ascent every
    /// best-candidate query re-scanned the same emptied bucket range. The
    /// intrusive queues tighten incrementally: total probes stay
    /// proportional to moves + degree churn, not moves × bucket range.
    #[test]
    fn best_candidate_probes_stay_proportional_to_work() {
        // Hub-and-spokes: the hub reaches internal degree `leaves` while
        // leaves sit at degree 1, leaving buckets 2..leaves empty.
        let leaves = 2_000u32;
        let g = from_edges(leaves as usize + 1, (1..=leaves).map(|leaf| (0, leaf)));
        let mut st = CommunityState::new(&g, 0.8);
        st.add(NodeId(0));
        for leaf in 1..=leaves {
            st.add(NodeId(leaf));
        }
        let before = st.bucket_probes();
        // Many queries at a fixed state: with a stale upper bound each
        // best_addition would walk the whole empty 2..leaves range; the
        // tightened bound makes every extra query O(1).
        for _ in 0..leaves {
            let _ = st.best_addition();
            let _ = st.best_removal();
        }
        let probes = st.bucket_probes() - before;
        assert!(
            probes <= 2 * leaves as u64 + leaves as u64 / 4,
            "repeated queries probed {probes} heads for {leaves} queries — bounds drifted"
        );
    }

    /// The fingerprint depends only on the final member *set*: different
    /// move orders (and intervening add/remove churn) converge to the same
    /// value, distinct sets get distinct values, and the empty set is 0.
    #[test]
    fn fingerprint_is_order_independent_and_set_determined() {
        let g = karate_ish();
        let mut a = CommunityState::new(&g, 0.8);
        let mut b = CommunityState::new(&g, 0.8);
        for v in [0, 1, 2] {
            a.add(NodeId(v));
        }
        for v in [2, 0, 5, 1] {
            b.add(NodeId(v));
        }
        b.remove(NodeId(5));
        assert_eq!(a.fingerprint(), b.fingerprint(), "same set, same print");
        assert_ne!(a.fingerprint(), 0, "non-empty sets are non-zero");
        b.remove(NodeId(2));
        b.add(NodeId(3));
        assert_ne!(a.fingerprint(), b.fingerprint(), "{{0,1,3}} != {{0,1,2}}");
        a.reset();
        assert_eq!(a.fingerprint(), 0, "reset restores the empty print");
        a.add(NodeId(4));
        a.remove(NodeId(4));
        assert_eq!(a.fingerprint(), 0, "add/remove round-trips to empty");
    }

    #[test]
    fn to_community_is_sorted() {
        let g = karate_ish();
        let mut st = CommunityState::new(&g, 0.8);
        st.add(NodeId(5));
        st.add(NodeId(3));
        let c = st.to_community();
        assert_eq!(c.members(), &[NodeId(3), NodeId(5)]);
    }

    /// Sets the prune bit for `v` in a mask sized for `g`.
    fn prune_mask(n: usize, nodes: &[u32]) -> Vec<u64> {
        let mut mask = vec![0u64; n.div_ceil(64)];
        for &v in nodes {
            mask[v as usize / 64] |= 1 << (v % 64);
        }
        mask
    }

    #[test]
    fn pruned_nodes_are_never_candidates_but_keep_exact_degrees() {
        let g = karate_ish();
        let mut st = CommunityState::new(&g, 0.8);
        st.set_prune_snapshot(&prune_mask(6, &[2]));
        st.reset();
        st.add(NodeId(0));
        st.add(NodeId(1));
        // 2 closes the triangle but is pruned; no other boundary node.
        assert_eq!(st.best_addition(), None);
        assert_eq!(st.internal_degree(NodeId(2)), 2, "degree stays exact");
        assert_eq!(st.internal_edges(), st.recompute_internal_edges());
        // Members can still be pruned *as re-add candidates*: force 2 in,
        // remove it, and it may not rejoin the queue.
        st.add(NodeId(2));
        assert_eq!(st.internal_edges(), 3);
        st.remove(NodeId(2));
        assert_eq!(st.best_addition(), None);
        assert_eq!(st.internal_edges(), st.recompute_internal_edges());
        // Clearing the snapshot restores candidacy from the next reset.
        st.set_prune_snapshot(&[]);
        st.reset();
        st.add(NodeId(0));
        st.add(NodeId(1));
        assert_eq!(st.best_addition(), Some(NodeId(2)));
    }

    #[test]
    fn member_slots_follow_swap_removals() {
        let g = karate_ish();
        let mut st = CommunityState::new(&g, 0.8);
        for v in [0, 1, 2, 3, 4, 5] {
            st.add(NodeId(v));
        }
        // Remove from the middle repeatedly; slots must stay consistent
        // (a broken slot map would corrupt the member list or panic).
        st.remove(NodeId(1));
        st.remove(NodeId(4));
        st.remove(NodeId(0));
        let mut left: Vec<u32> = st.members().iter().map(|v| v.raw()).collect();
        left.sort_unstable();
        assert_eq!(left, vec![2, 3, 5]);
        assert_eq!(st.internal_edges(), st.recompute_internal_edges());
    }
}
