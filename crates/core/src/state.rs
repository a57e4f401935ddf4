//! Incremental community state for the greedy search.
//!
//! Maintains the candidate set `S`, its internal edge count `Ein(S)`, and
//! the internal degree `deg_S(v)` of every touched node, so that evaluating
//! or applying a move costs `O(deg v)` instead of `O(Σ_{u∈S} deg u)`. This
//! is the difference between OCA's flat runtime curve (Fig. 6) and a
//! quadratic blow-up; the ablation bench quantifies it.
//!
//! The layout is built for zero steady-state allocation and few cache
//! lines per neighbour update (DESIGN.md §2a):
//!
//! - One 4-byte word per node holds the membership/touched flags and the
//!   internal degree, the only per-node data the neighbour loop reads. The
//!   member-list slot lives in a separate array that only `remove` reads.
//! - The best-addition and best-removal queues are lazy per-bucket LIFO
//!   stacks. Each queue is one append-only arena of 8-byte entries, and a
//!   head per degree indexes the top of that bucket's stack. Every
//!   (re)bucketing pushes an entry, so a neighbour update is one word write
//!   plus one sequential append. Entries whose node has since moved go
//!   stale and the best-candidate queries pop them lazily: a top entry is
//!   live iff the node's word still says that queue and that degree.
//! - The top live entry of a bucket is the node most recently (re)bucketed
//!   into it. Covers depend on this tie order: among equal internal
//!   degrees, the last node to change state wins.
//! - An arena is compacted in place when a move could take it past
//!   `8 × touched + 65,536` entries, so its memory stays O(touched) and not
//!   O(neighbour updates). [`CommunityState::reset`] clears the arenas but
//!   keeps their capacity.
//! - The `√(s(s−1))` of every gain evaluation comes from a memoized
//!   [`SqrtTable`].

use crate::fitness::SqrtTable;
use crate::seed::splitmix64;
use oca_graph::{Community, CsrGraph, NodeId};

/// Sentinel for "no entry" in the bucket heads and the `below` links.
const NIL: u32 = u32::MAX;

/// Arena entries allowed per touched node before a queue is compacted.
const ARENA_PER_TOUCHED: usize = 8;

/// Arena entries allowed on top of [`ARENA_PER_TOUCHED`], so that short
/// ascents never compact. Unit tests use a small floor so that compaction
/// fires in them.
#[cfg(not(test))]
const ARENA_FLOOR: usize = 65_536;
#[cfg(test)]
const ARENA_FLOOR: usize = 64;

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

/// One entry of a queue arena: a node pushed onto a bucket's stack, and
/// the arena index of the entry below it ([`NIL`] at the bottom).
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    node: u32,
    below: u32,
}

/// One queue borrowed for the pushes of a move: bucket heads, arena and
/// dirty list, with the arena's length in a field of this local view, so
/// the neighbour loop keeps it in a register rather than storing it back
/// around every write. The arena slice is the queue's high-water mark;
/// [`CommunityState::make_room`] sizes it for the move's pushes.
struct Pushes<'a> {
    heads: &'a mut [u32],
    arena: &'a mut [Entry],
    dirty: &'a mut Vec<u32>,
    len: usize,
}

impl Pushes<'_> {
    /// Pushes `v` onto bucket `d`.
    #[inline(always)]
    fn push(&mut self, v: u32, d: usize) {
        let below = self.heads[d];
        if below == NIL {
            self.dirty.push(d as u32);
        }
        self.heads[d] = self.len as u32;
        self.arena[self.len] = Entry { node: v, below };
        self.len += 1;
    }
}

/// The node of bucket `d`'s top live entry, popping the stale entries
/// above it. An entry is live iff its node's word, masked to the flag and
/// degree bits, equals `flags | d`: [`IN_SET`] for the removal queue, no
/// flag for the addition queue. A node's older entries below its top-most
/// one in the same bucket look live too, but popping stops at the top-most
/// one, so they are reached only after it went stale, and then they are
/// stale as well.
#[inline]
fn top_live(
    heads: &mut [u32],
    arena: &[Entry],
    words: &[u32],
    flags: u32,
    d: usize,
) -> Option<u32> {
    let want = flags | d as u32;
    loop {
        let at = heads[d];
        if at == NIL {
            return None;
        }
        let entry = arena[at as usize];
        if words[entry.node as usize] & (IN_SET | DEG_MASK) == want {
            return Some(entry.node);
        }
        heads[d] = entry.below;
    }
}

/// True if `v` is suppressed from the addition queue by the prune bitmap
/// `prune`. O(1) bit test; `false` whenever pruning is off (empty bitmap).
#[inline(always)]
fn pruned_bit(prune: &[u64], v: u32) -> bool {
    match prune.get((v >> 6) as usize) {
        Some(word) => (word >> (v & 63)) & 1 != 0,
        None => false,
    }
}

/// Empties every bucket a queue used.
fn clear_heads(heads: &mut [u32], dirty: &mut Vec<u32>) {
    for d in dirty.drain(..) {
        heads[d as usize] = NIL;
    }
}

/// Scratch of arena compaction, kept across compactions so that they
/// allocate nothing at steady state.
#[derive(Debug, Default)]
struct Compactor {
    /// One bit per node, all clear between compactions.
    seen: Vec<u64>,
    /// The kept nodes, each bucket's top to bottom.
    kept: Vec<u32>,
    /// `(bucket, start in kept)` per bucket with a kept node.
    spans: Vec<(u32, usize)>,
}

impl Compactor {
    /// Rebuilds every dirty bucket of a queue from its live entries (see
    /// [`top_live`] for `flags`), in order, and drops the rest. Each
    /// bucket's stack is walked top to bottom, and `seen` drops the stale
    /// look-alikes below a node's top-most entry. The kept nodes are pushed
    /// back bottom first, so every bucket's order is unchanged and the
    /// arena holds at most one entry per touched node. The dirty list comes
    /// out free of duplicates.
    fn run(&mut self, queue: Pushes<'_>, words: &[u32], flags: u32) -> usize {
        let Compactor { seen, kept, spans } = self;
        let Pushes {
            heads,
            arena,
            dirty,
            ..
        } = queue;
        kept.clear();
        spans.clear();
        for &d in dirty.iter() {
            // Taking the head makes a second listing of `d` a no-op.
            let mut at = std::mem::replace(&mut heads[d as usize], NIL);
            let want = flags | d;
            let start = kept.len();
            while at != NIL {
                let entry = arena[at as usize];
                at = entry.below;
                let (word, bit) = ((entry.node >> 6) as usize, 1u64 << (entry.node & 63));
                if words[entry.node as usize] & (IN_SET | DEG_MASK) == want && seen[word] & bit == 0
                {
                    seen[word] |= bit;
                    kept.push(entry.node);
                }
            }
            if kept.len() > start {
                spans.push((d, start));
            }
        }
        for &v in kept.iter() {
            seen[(v >> 6) as usize] &= !(1u64 << (v & 63));
        }
        dirty.clear();
        let mut out = Pushes {
            heads,
            arena,
            dirty,
            len: 0,
        };
        let mut end = kept.len();
        for &(d, start) in spans.iter().rev() {
            for &v in kept[start..end].iter().rev() {
                out.push(v, d as usize);
            }
            end = start;
        }
        out.len
    }
}

/// Mutable state of one community search over a fixed graph.
///
/// Buffers are `O(n + max_degree)` plus arenas of `O(touched)` entries,
/// reusable across seeds via [`CommunityState::reset`], which clears only
/// the touched entries.
#[derive(Debug)]
pub struct CommunityState<'g> {
    graph: &'g CsrGraph,
    c: f64,
    /// One word per node: bit 31 = in set, bit 30 = touched, bits 0..30 =
    /// `deg_S(v)`.
    words: Vec<u32>,
    /// Each member's index in `members` (unused for non-members).
    slots: Vec<u32>,
    /// Nodes whose word may be non-zero (for cheap reset).
    touched: Vec<NodeId>,
    members: Vec<NodeId>,
    ein: usize,
    /// XOR half of the order-independent 128-bit set fingerprint,
    /// maintained O(1) per membership change.
    fp_xor: u64,
    /// Additive (wrapping-sum) half of the fingerprint.
    fp_sum: u64,
    /// Bucket heads of the boundary (best-addition) queue: `add_heads[d]`
    /// indexes the top of the stack of non-members with `deg_S = d ≥ 1`.
    add_heads: Vec<u32>,
    /// The addition queue's entries, all buckets in push order. Only the
    /// first `add_len` are in use; the rest is the high-water mark, kept
    /// so that a move writes entries without growing the vector.
    add_arena: Vec<Entry>,
    add_len: usize,
    /// Largest possibly-non-empty bucket of `add_heads`; tightened
    /// incrementally by [`CommunityState::best_addition`], never by a
    /// full-range scan.
    add_max: usize,
    /// Bucket heads of the member (best-removal) queue.
    rem_heads: Vec<u32>,
    /// The removal queue's entries, `rem_len` of them in use.
    rem_arena: Vec<Entry>,
    rem_len: usize,
    /// Smallest possibly-non-empty bucket of `rem_heads` (mirror of
    /// `add_max`).
    rem_min: usize,
    /// Buckets of `add_heads` that may be non-[`NIL`] — pushed on every
    /// empty→non-empty transition, so [`CommunityState::reset`] clears
    /// only touched buckets instead of scanning up to the largest internal
    /// degree the state has ever seen (O(max_degree) on hub graphs). A
    /// bucket that popping emptied and a push refilled is listed twice
    /// until the next compaction.
    dirty_add: Vec<u32>,
    /// Same for `rem_heads`.
    dirty_rem: Vec<u32>,
    compactor: Compactor,
    /// Bitmap of nodes excluded from the addition queue (covered hubs;
    /// see [`CommunityState::set_prune_snapshot`]). Empty = pruning off.
    /// The words still track exact internal degrees for pruned nodes —
    /// only their *candidacy* is suppressed — so `Ein` and every gain
    /// evaluation stay exact.
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
    /// Arena compactions since construction.
    #[cfg(test)]
    compactions: usize,
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
        // the packed words can never overflow their degree bits.
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
            words: vec![0; n],
            slots: vec![0; n],
            touched: Vec::new(),
            members: Vec::new(),
            ein: 0,
            fp_xor: 0,
            fp_sum: 0,
            add_heads: vec![NIL; buckets],
            add_arena: Vec::new(),
            add_len: 0,
            add_max: 0,
            rem_heads: vec![NIL; buckets],
            rem_arena: Vec::new(),
            rem_len: 0,
            rem_min: usize::MAX,
            dirty_add: Vec::new(),
            dirty_rem: Vec::new(),
            compactor: Compactor {
                seen: vec![0; n.div_ceil(64)],
                kept: Vec::new(),
                spans: Vec::new(),
            },
            prune: Vec::new(),
            sqrt,
            probes: 0,
            #[cfg(test)]
            last_reset_bucket_visits: 0,
            #[cfg(test)]
            compactions: 0,
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
        self.words[v.index()] & IN_SET != 0
    }

    /// Internal degree of `v` with respect to the current set.
    #[inline]
    pub fn internal_degree(&self, v: NodeId) -> usize {
        (self.words[v.index()] & DEG_MASK) as usize
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
    /// This is O(moves + degree changes) over a run: the bounds only walk
    /// buckets they then permanently tighten past, so there is no repeated
    /// scanning of empty ranges — the drift regression test counts these.
    /// Popping a bucket's stale entries is not a probe; each pop undoes
    /// one push.
    pub fn bucket_probes(&self) -> u64 {
        self.probes
    }

    /// Installs (or, with an empty slice, clears) the covered-hub bitmap:
    /// nodes whose bit is set are skipped when enumerating add candidates.
    /// The driver passes `round-start coverage ∧ hub-degree mask`, so every
    /// ticket of a round — on any thread — sees the same snapshot and
    /// covers stay bit-identical across thread counts (DESIGN.md §2a).
    /// Takes effect from the next [`CommunityState::reset`]; must not be
    /// called mid-ascent (entries already pushed would stay live).
    pub fn set_prune_snapshot(&mut self, words: &[u64]) {
        self.prune.clear();
        self.prune.extend_from_slice(words);
    }

    /// The parts of the state a move writes, borrowed apart: the words,
    /// the touched list, the prune bitmap and the two queues.
    fn parts(&mut self) -> (&mut [u32], &mut Vec<NodeId>, &[u64], Pushes<'_>, Pushes<'_>) {
        let add = Pushes {
            heads: &mut self.add_heads,
            arena: &mut self.add_arena,
            dirty: &mut self.dirty_add,
            len: self.add_len,
        };
        let rem = Pushes {
            heads: &mut self.rem_heads,
            arena: &mut self.rem_arena,
            dirty: &mut self.dirty_rem,
            len: self.rem_len,
        };
        (&mut self.words, &mut self.touched, &self.prune, add, rem)
    }

    /// Makes room for a move of up to `pushes` pushes per queue. A queue
    /// whose arena would pass `min(8 × touched + ARENA_FLOOR, NIL)` entries
    /// is compacted first; an arena shorter than the move needs is grown.
    #[inline(always)]
    fn make_room(&mut self, pushes: usize) {
        let limit = (ARENA_PER_TOUCHED * self.touched.len() + ARENA_FLOOR).min(NIL as usize);
        if self.add_len.max(self.rem_len) + pushes > limit {
            self.compact(pushes, limit);
        }
        for (arena, len) in [
            (&mut self.add_arena, self.add_len),
            (&mut self.rem_arena, self.rem_len),
        ] {
            if arena.len() < len + pushes {
                arena.resize(len + pushes, Entry::default());
            }
        }
    }

    /// Compacts each queue whose arena would pass `limit` with `pushes`
    /// more entries. At most one entry per touched node survives, so only a
    /// graph of billions of nodes could leave too few 32-bit indices.
    #[cold]
    fn compact(&mut self, pushes: usize, limit: usize) {
        let mut compactor = std::mem::take(&mut self.compactor);
        let (words, _, _, add, rem) = self.parts();
        let (mut add_len, mut rem_len) = (add.len, rem.len);
        if add_len + pushes > limit {
            add_len = compactor.run(add, words, 0);
        }
        if rem_len + pushes > limit {
            rem_len = compactor.run(rem, words, IN_SET);
        }
        (self.add_len, self.rem_len) = (add_len, rem_len);
        self.compactor = compactor;
        assert!(
            self.add_len.max(self.rem_len) + pushes < NIL as usize,
            "queue arena exceeds 32-bit indices"
        );
        #[cfg(test)]
        {
            self.compactions += 1;
        }
    }

    /// Adds `v` to the set. `O(deg v)`, allocation-free at steady state.
    ///
    /// Each neighbor costs one read and one write of its word plus one
    /// push onto the queue its new degree puts it in.
    ///
    /// # Panics
    /// Debug-panics if `v` is already a member.
    pub fn add(&mut self, v: NodeId) {
        debug_assert!(!self.contains(v));
        // Copying the `&'g` graph reference out of `self` lets the
        // neighbor slice outlive the `&mut self` accesses below.
        let graph = self.graph;
        let neighbors = graph.neighbors(v);
        self.make_room(neighbors.len() + 1);
        let i = v.index();
        let word = self.words[i];
        let d = (word & DEG_MASK) as usize;
        self.ein += d;
        self.fp_xor ^= fp_mix_xor(v.raw());
        self.fp_sum = self.fp_sum.wrapping_add(fp_mix_sum(v.raw()));
        if word & TOUCHED == 0 {
            self.touched.push(v);
        }
        self.slots[i] = self.members.len() as u32;
        self.members.push(v);
        self.sqrt.ensure(self.members.len() + 1);
        // v's addition-queue entry, if any, goes stale with the flag.
        self.words[i] = word | IN_SET | TOUCHED;
        self.rem_min = self.rem_min.min(d);
        let mut add_max = self.add_max;
        let (words, touched, prune, mut add, mut rem) = self.parts();
        rem.push(v.raw(), d);
        for &u in neighbors {
            let j = u.index();
            let word = words[j];
            if word & TOUCHED == 0 {
                touched.push(u);
            }
            let up = (word | TOUCHED) + 1;
            words[j] = up;
            let du = (up & DEG_MASK) as usize;
            if word & IN_SET != 0 {
                // A member moving up one bucket cannot lower the minimum.
                rem.push(u.raw(), du);
            } else if !pruned_bit(prune, u.raw()) {
                // Pruned boundary nodes stay out of the queue; only their
                // (exact) degree accounting advances.
                add.push(u.raw(), du);
                add_max = add_max.max(du);
            }
        }
        (self.add_len, self.rem_len) = (add.len, rem.len);
        self.add_max = add_max;
    }

    /// Removes `v` from the set. `O(deg v)` — the member list is
    /// slot-indexed, so the swap-remove needs no linear scan.
    ///
    /// # Panics
    /// Debug-panics if `v` is not a member.
    pub fn remove(&mut self, v: NodeId) {
        debug_assert!(self.contains(v));
        let graph = self.graph;
        let neighbors = graph.neighbors(v);
        self.make_room(neighbors.len() + 1);
        let i = v.index();
        let word = self.words[i];
        let d = (word & DEG_MASK) as usize;
        self.ein -= d;
        self.fp_xor ^= fp_mix_xor(v.raw());
        self.fp_sum = self.fp_sum.wrapping_sub(fp_mix_sum(v.raw()));
        let slot = self.slots[i] as usize;
        self.members.swap_remove(slot);
        if let Some(&moved) = self.members.get(slot) {
            self.slots[moved.index()] = slot as u32;
        }
        // v's removal-queue entry goes stale with the flag.
        self.words[i] = word & !IN_SET;
        let mut rem_min = self.rem_min;
        let (words, _, prune, mut add, mut rem) = self.parts();
        for &u in neighbors {
            let j = u.index();
            let word = words[j];
            debug_assert!(
                word & DEG_MASK >= 1,
                "neighbor of a member must have deg_S >= 1"
            );
            let down = word - 1;
            words[j] = down;
            let du = (down & DEG_MASK) as usize;
            if word & IN_SET != 0 {
                rem.push(u.raw(), du);
                rem_min = rem_min.min(du);
            } else if du > 0 && !pruned_bit(prune, u.raw()) {
                // A boundary node moving down one bucket cannot raise the
                // maximum; at degree 0 it leaves the queue entirely.
                add.push(u.raw(), du);
            }
        }
        // v rejoins the boundary with its internal degree unchanged
        // (unless pruned).
        let rejoins = d > 0 && !pruned_bit(prune, v.raw());
        if rejoins {
            add.push(v.raw(), d);
        }
        (self.add_len, self.rem_len) = (add.len, rem.len);
        self.rem_min = rem_min;
        if rejoins {
            self.add_max = self.add_max.max(d);
        }
    }

    /// Iterates the boundary: non-members adjacent to at least one member.
    ///
    /// Derived from the touched list, so the cost is proportional to the
    /// neighborhood of the current and former members, not to `n`.
    pub fn boundary(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.touched.iter().copied().filter(|&v| {
            let word = self.words[v.index()];
            word & IN_SET == 0 && word & DEG_MASK > 0
        })
    }

    /// The best addition candidate: the boundary node with the largest
    /// internal degree, and among those the one most recently (re)bucketed.
    ///
    /// Correct because `L(s+1, ein+d)` is strictly increasing in `d` (the
    /// `Ein` coefficient `1 − (s−2)/√(s(s−1))` is positive for all `s`), so
    /// the node maximizing `deg_S(v)` also maximizes the fitness gain. The
    /// addition queue's live entries are exactly the eligible boundary
    /// (pruned nodes are never pushed), so this is a pop of stale entries
    /// (each undoing one push) plus the amortized-O(1) tightening of
    /// `add_max` (each empty bucket walked is never walked again until a
    /// push re-raises the bound). Runs stay deterministic (LIFO order
    /// within a bucket).
    pub fn best_addition(&mut self) -> Option<NodeId> {
        let mut b = self.add_max;
        self.probes += 1;
        while b > 0 {
            if let Some(v) = top_live(&mut self.add_heads, &self.add_arena, &self.words, 0, b) {
                self.add_max = b;
                return Some(NodeId(v));
            }
            b -= 1;
            self.probes += 1;
        }
        self.add_max = 0;
        None
    }

    /// The best removal candidate: the member with the smallest internal
    /// degree (the gain of removing is decreasing in `deg_S(v)`; see
    /// [`CommunityState::best_addition`] for the monotonicity argument and
    /// the tie order). Returns `None` for sets of size ≤ 1.
    pub fn best_removal(&mut self) -> Option<NodeId> {
        if self.members.len() <= 1 {
            return None;
        }
        // Every member has a live entry in the removal queue, so the
        // ascent from `rem_min` terminates at a real candidate.
        let mut b = self.rem_min;
        self.probes += 1;
        loop {
            if let Some(v) = top_live(&mut self.rem_heads, &self.rem_arena, &self.words, IN_SET, b)
            {
                self.rem_min = b;
                return Some(NodeId(v));
            }
            b += 1;
            self.probes += 1;
        }
    }

    /// Snapshots the current set as a [`Community`].
    pub fn to_community(&self) -> Community {
        Community::new(self.members.clone())
    }

    /// Clears the set, zeroing only the touched words and the dirty bucket
    /// heads and emptying the arenas (their capacity is kept), so the state
    /// can be reused for the next seed at a cost proportional to the work
    /// done — not O(n), and not O(max_degree) even after an earlier ascent
    /// through a high-degree hub has raised the active bucket range.
    pub fn reset(&mut self) {
        for &v in &self.touched {
            self.words[v.index()] = 0;
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
        clear_heads(&mut self.add_heads, &mut self.dirty_add);
        clear_heads(&mut self.rem_heads, &mut self.dirty_rem);
        (self.add_len, self.rem_len) = (0, 0);
        self.add_max = 0;
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn karate_ish() -> oca_graph::CsrGraph {
        // Two triangles joined by one bridge: 0-1-2 and 3-4-5, bridge 2-3.
        from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
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
    /// bucket queues tighten incrementally: total probes stay
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

    /// Bucket `d`'s live nodes, top of the stack first: each node's
    /// top-most live-looking entry, as compaction keeps them.
    fn live_order(st: &CommunityState<'_>, removal: bool, d: usize) -> Vec<u32> {
        let (heads, arena, flags) = if removal {
            (&st.rem_heads, &st.rem_arena, IN_SET)
        } else {
            (&st.add_heads, &st.add_arena, 0)
        };
        let mut order = Vec::new();
        let mut at = heads[d];
        while at != NIL {
            let entry = arena[at as usize];
            at = entry.below;
            let live = st.words[entry.node as usize] & (IN_SET | DEG_MASK) == flags | d as u32;
            if live && !order.contains(&entry.node) {
                order.push(entry.node);
            }
        }
        order
    }

    /// A from-scratch model of the queues' tie order: the best addition is
    /// the eligible boundary node of largest `deg_S`, the best removal the
    /// member of smallest `deg_S`, ties going to the node whose state
    /// changed last. `stamp` is bumped in the order the state pushes: the
    /// added node before its neighbours, the removed node after them.
    struct Oracle {
        member: Vec<bool>,
        deg: Vec<usize>,
        stamp: Vec<u64>,
        clock: u64,
        pruned: Vec<bool>,
    }

    impl Oracle {
        fn new(n: usize, pruned: Vec<bool>) -> Self {
            Oracle {
                member: vec![false; n],
                deg: vec![0; n],
                stamp: vec![0; n],
                clock: 0,
                pruned,
            }
        }

        fn bump(&mut self, v: usize) {
            self.clock += 1;
            self.stamp[v] = self.clock;
        }

        fn apply(&mut self, g: &CsrGraph, v: NodeId, add: bool) {
            let i = v.index();
            if add {
                self.member[i] = true;
                self.bump(i);
            } else {
                self.member[i] = false;
            }
            for u in g.neighbors(v) {
                let j = u.index();
                if add {
                    self.deg[j] += 1;
                } else {
                    self.deg[j] -= 1;
                }
                self.bump(j);
            }
            if !add {
                self.bump(i);
            }
        }

        fn best(&self, removal: bool) -> Option<NodeId> {
            let n = self.member.len();
            let pick = (0..n).filter(|&v| {
                if removal {
                    self.member[v]
                } else {
                    !self.member[v] && self.deg[v] > 0 && !self.pruned[v]
                }
            });
            let best = if removal {
                if self.member.iter().filter(|&&m| m).count() <= 1 {
                    return None;
                }
                pick.min_by_key(|&v| (self.deg[v], std::cmp::Reverse(self.stamp[v])))
            } else {
                pick.max_by_key(|&v| (self.deg[v], self.stamp[v]))
            };
            best.map(|v| NodeId(v as u32))
        }
    }

    /// A node that goes d → d+1 → d leaves a stale look-alike below its
    /// new entry in bucket d; neither it nor the node's entry in d+1 is
    /// ever returned once the node moves on.
    #[test]
    fn stale_duplicates_after_a_degree_round_trip() {
        // x = 0 and y = 1 both hang off a = 2; only x also hangs off b = 3.
        let g = from_edges(4, [(0, 2), (1, 2), (0, 3)]);
        let mut st = CommunityState::new(&g, 0.8);
        st.add(NodeId(2));
        assert_eq!(live_order(&st, false, 1), vec![1, 0]);
        assert_eq!(st.best_addition(), Some(NodeId(1)), "y re-bucketed last");
        st.add(NodeId(3));
        assert_eq!(st.best_addition(), Some(NodeId(0)), "x alone at degree 2");
        st.remove(NodeId(3));
        // x is back at degree 1, on top of y and of its own older entry.
        assert_eq!(live_order(&st, false, 1), vec![0, 1]);
        assert_eq!(st.add_len, 4, "x pushed three times, y once");
        assert_eq!(st.best_addition(), Some(NodeId(0)));
        st.add(NodeId(0));
        // b joins the boundary through x; both of x's entries are stale.
        assert_eq!(live_order(&st, false, 1), vec![3, 1]);
        assert_eq!(st.best_addition(), Some(NodeId(3)));
        st.add(NodeId(3));
        assert_eq!(
            st.best_addition(),
            Some(NodeId(1)),
            "x's look-alike is skipped"
        );
        st.add(NodeId(1));
        assert_eq!(st.best_addition(), None);
    }

    /// A member that flips to the boundary and back at the same degree
    /// leaves a look-alike in its removal bucket; its fresh entry decides
    /// its place among the ties.
    #[test]
    fn stale_duplicates_after_a_membership_round_trip() {
        // Triangle 0-1-2 plus a pendant 3 on 0.
        let g = from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)]);
        let mut st = CommunityState::new(&g, 0.8);
        for v in [0, 1, 2] {
            st.add(NodeId(v));
        }
        assert_eq!(live_order(&st, true, 2), vec![1, 0, 2]);
        assert_eq!(st.best_removal(), Some(NodeId(1)));
        st.remove(NodeId(1));
        // 1 sits on the boundary at degree 2, the same degree it had.
        assert_eq!(live_order(&st, false, 2), vec![1]);
        assert_eq!(st.best_addition(), Some(NodeId(1)));
        st.add(NodeId(1));
        // Adding 1 pushes it first, then re-buckets 0 and 2 above it.
        assert_eq!(live_order(&st, true, 2), vec![2, 0, 1]);
        assert_eq!(st.best_removal(), Some(NodeId(2)));
        st.remove(NodeId(2));
        st.remove(NodeId(0));
        assert_eq!(st.best_removal(), None, "a single member is never removed");
        assert_eq!(
            st.best_addition(),
            Some(NodeId(0)),
            "0 rejoined the boundary last"
        );
    }

    /// Compaction drops stale entries and keeps every bucket's order, and
    /// it fires (unit tests use a floor of 64) without changing any
    /// best-candidate answer.
    #[test]
    fn compaction_keeps_every_bucket_order() {
        let g = oca_gen::barabasi_albert(400, 4, &mut StdRng::seed_from_u64(11));
        let mut st = CommunityState::new(&g, 0.8);
        let mut oracle = Oracle::new(400, vec![false; 400]);
        let mut rng = 0x5EED_u64;
        let mut checked = 0;
        for step in 0..3_000u64 {
            rng = splitmix64(rng);
            let v = NodeId((rng % 400) as u32);
            let add = !st.contains(v);
            if add {
                st.add(v);
            } else {
                st.remove(v);
            }
            oracle.apply(&g, v, add);
            assert_eq!(st.best_addition(), oracle.best(false), "step {step}");
            assert_eq!(st.best_removal(), oracle.best(true), "step {step}");
            if step % 997 == 0 {
                let orders = |st: &CommunityState<'_>| -> Vec<Vec<u32>> {
                    (0..st.add_heads.len())
                        .flat_map(|d| [live_order(st, false, d), live_order(st, true, d)])
                        .collect()
                };
                let before = orders(&st);
                // A limit of 0 compacts both queues now.
                st.compact(0, 0);
                assert_eq!(orders(&st), before, "step {step}");
                assert!(st.add_len + st.rem_len <= 2 * st.touched.len());
                let mut dirty = st.dirty_add.clone();
                dirty.sort_unstable();
                dirty.dedup();
                assert_eq!(dirty.len(), st.dirty_add.len(), "duplicates dropped");
                checked += 1;
            }
        }
        assert!(st.compactions > checked, "compaction also fired on its own");
    }

    /// However long the churn around a hub, each arena stays within
    /// `8 × touched + ARENA_FLOOR` entries after every move.
    #[test]
    fn arena_stays_within_its_bound_through_hub_star_churn() {
        let leaves = 3_000u32;
        let g = from_edges(leaves as usize + 1, (1..=leaves).map(|leaf| (0, leaf)));
        let mut st = CommunityState::new(&g, 0.8);
        st.add(NodeId(0));
        for _ in 0..10 {
            for add in [true, false] {
                for leaf in 1..=leaves {
                    if add {
                        st.add(NodeId(leaf));
                    } else {
                        st.remove(NodeId(leaf));
                    }
                    let bound = ARENA_PER_TOUCHED * st.touched.len() + ARENA_FLOOR;
                    assert!(st.add_len <= bound && st.rem_len <= bound);
                }
            }
        }
        assert!(
            st.compactions >= 2,
            "the churn outgrew the bound repeatedly"
        );
        assert_eq!(st.best_removal(), None, "only the hub is left");
        assert_eq!(
            st.best_addition(),
            Some(NodeId(leaves)),
            "the last leaf removed"
        );
    }

    /// Arena capacity is kept by reset and reached again by an identical
    /// run, so a repeated ascent allocates nothing.
    #[test]
    fn arena_capacity_does_not_grow_on_a_repeated_ascent() {
        let leaves = 2_000u32;
        let g = from_edges(leaves as usize + 1, (1..=leaves).map(|leaf| (0, leaf)));
        let mut st = CommunityState::new(&g, 0.8);
        let run = |st: &mut CommunityState<'_>| {
            st.reset();
            st.add(NodeId(0));
            for _ in 0..5 {
                for leaf in 1..=leaves {
                    st.add(NodeId(leaf));
                }
                for leaf in 1..=leaves {
                    st.remove(NodeId(leaf));
                }
            }
            let arenas = [&st.add_arena, &st.rem_arena];
            (arenas.map(|a| (a.len(), a.capacity())), st.compactions)
        };
        let (sizes, first) = run(&mut st);
        assert!(first > 0, "the run compacts");
        let (again, second) = run(&mut st);
        assert_eq!(again, sizes, "arena lengths and capacities");
        assert_eq!(second, 2 * first, "the identical run compacts identically");
    }
}
