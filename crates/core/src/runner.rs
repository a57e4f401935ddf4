//! The OCA driver: repeated seeded ascents, dedup, halting, postprocessing.
//!
//! This is Section IV end-to-end, built around a **deterministic
//! ticket-ordered schedule**: ascent number `i` (its *ticket*) draws its
//! seed node and its initial set from an RNG stream derived only from
//! `(rng_seed, i)`, tickets are processed in rounds of [`OcaConfig::batch`]
//! whose seeds all see the same coverage snapshot, and an ordered reduction
//! applies dedup / min-size filtering / coverage / halting in ticket order.
//! Halting is therefore a monotone *cutoff ticket*: results past it are
//! discarded identically no matter how threads interleaved, so for a fixed
//! seed the cover is bit-identical across `threads ∈ {1, 2, …}`.
//!
//! The only cross-thread state during a round is read-only (the snapshot,
//! the [`CoverageBitmap`]) plus one atomic ticket cursor workers lease
//! small ticket batches from — no mutex anywhere on the hot path.

use crate::checkpoint::{
    config_checksum, graph_checksum, CheckpointConfig, CheckpointStats, DriverCheckpoint,
    ResumePolicy,
};
use crate::config::{CStrategy, OcaConfig};
use crate::halting::{AscentStopStats, HaltReason, HaltingState};
use crate::postprocess::{assign_orphans, merge_similar};
use crate::search::{ascend, AscentStop};
use crate::seed::{initial_set, ticket_seed};
use crate::state::CommunityState;
use oca_graph::{
    Community, ContainerError, Cover, CsrGraph, DetectContext, DetectError, Detection, NodeId,
    Relabeling,
};
use oca_spectral::interaction_strength;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-phase wall-clock breakdown of one run, in nanoseconds. The bench
/// and the detector telemetry expose these so an off-ascent regression
/// (dedup, merging, orphan assignment — the paper's Section IV
/// postprocessing) can never hide inside the end-to-end total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Greedy ascents: seed drawing plus local search. In parallel mode
    /// this is the wall time of the worker rounds, not summed CPU time.
    pub ascent_ns: u64,
    /// The ordered reduction: fingerprint dedup, coverage accounting and
    /// halting, per ticket.
    pub dedup_ns: u64,
    /// [`merge_similar`] over the accepted communities.
    pub merge_ns: u64,
    /// [`assign_orphans`], when enabled.
    pub orphan_ns: u64,
}

/// Result of an OCA run.
#[derive(Debug, Clone)]
pub struct OcaResult {
    /// The final (postprocessed) cover.
    pub cover: Cover,
    /// The interaction strength used.
    pub c: f64,
    /// The `λ_min` estimate behind it (0 when `c` was fixed).
    pub lambda_min: f64,
    /// Seeds processed before the halting cutoff (deterministic for a
    /// fixed seed, independent of the thread count).
    pub seeds_tried: usize,
    /// Communities accepted before merge postprocessing.
    pub raw_community_count: usize,
    /// Which halting criterion ended the run (`None` only for empty
    /// graphs, which never start).
    pub halt_reason: Option<HaltReason>,
    /// Why the recorded ascents stopped (converged vs. cap/budget/plateau),
    /// tallied in ticket order up to the halting cutoff — deterministic
    /// for a fixed seed like the cover itself.
    pub ascent_stops: AscentStopStats,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Where the wall-clock went, phase by phase.
    pub phases: PhaseNanos,
    /// Checkpoint telemetry (all-zero when checkpointing is off). On a
    /// resumed run, wall-clock and phase timers cover only the resumed
    /// process, while `seeds_tried` and the cover span the whole logical
    /// run.
    pub checkpoint: CheckpointStats,
}

/// The OCA algorithm, configured and ready to run.
#[derive(Debug, Clone, Default)]
pub struct Oca {
    config: OcaConfig,
}

/// Node-coverage bitmap over `AtomicU64` words.
///
/// Inside the driver the ordered reduction is the only writer (seed picks
/// deliberately use the round snapshot, not this bitmap — see
/// `Round::pick_seed`), but updates go through `&self` atomics so the
/// bitmap can be read lock-free from any thread at any time (progress
/// callbacks, external monitors) and shared across the worker scope
/// without borrow gymnastics. `Relaxed` suffices: bits only ever turn on,
/// and cross-round visibility is given by the scope join.
#[derive(Debug)]
pub struct CoverageBitmap {
    words: Vec<AtomicU64>,
}

impl CoverageBitmap {
    /// An all-uncovered bitmap for `n` nodes.
    pub fn new(n: usize) -> Self {
        CoverageBitmap {
            words: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// True if node `i` is covered. Lock-free.
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64].load(Ordering::Relaxed) & (1 << (i % 64)) != 0
    }

    /// Marks node `i` covered; returns true if it was newly covered.
    /// A real atomic RMW, so even concurrent setters could not lose bits.
    fn set(&self, i: usize) -> bool {
        let mask = 1 << (i % 64);
        self.words[i / 64].fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// Copies the current words into `dst` (lock-free snapshot). The
    /// driver takes one per round — at the round boundary, where the
    /// bitmap is identical on the sequential and parallel paths — to
    /// build the covered-hub prune mask every ticket of the round shares.
    pub fn copy_words_into(&self, dst: &mut [u64]) {
        debug_assert_eq!(dst.len(), self.words.len());
        for (d, w) in dst.iter_mut().zip(&self.words) {
            *d = w.load(Ordering::Relaxed);
        }
    }

    /// Number of 64-bit words backing the bitmap.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Rebuilds a bitmap from checkpointed words (validated upstream by
    /// [`DriverCheckpoint::decode`]).
    fn from_words(words: &[u64]) -> Self {
        CoverageBitmap {
            words: words.iter().map(|&w| AtomicU64::new(w)).collect(),
        }
    }
}

/// The uncovered-node list: O(1) unbiased seed picks (no rejection
/// sampling), updated by swap-removal on cover. Removals are buffered
/// during a round and applied at its end — the driver lends `nodes` out
/// as the round's pick snapshot without copying — and their order is the
/// deterministic reduction order, so the list content *and order* are
/// identical across thread counts.
#[derive(Debug)]
struct UncoveredList {
    nodes: Vec<NodeId>,
    /// Position of each node in `nodes`; `u32::MAX` once covered.
    pos: Vec<u32>,
}

impl UncoveredList {
    fn new(n: usize) -> Self {
        UncoveredList {
            nodes: (0..n as u32).map(NodeId).collect(),
            pos: (0..n as u32).collect(),
        }
    }

    fn remove(&mut self, v: NodeId) {
        let p = self.pos[v.index()];
        debug_assert_ne!(p, u32::MAX, "node removed twice");
        let last = *self.nodes.last().expect("non-empty when removing");
        self.nodes.swap_remove(p as usize);
        self.pos[last.index()] = p;
        self.pos[v.index()] = u32::MAX;
    }
}

/// What one ticket's ascent produced, in the cheapest form the ordered
/// reduction can decide on: the O(1) set fingerprint and size always, the
/// materialized member vector only when the ticket can still be accepted
/// (too-small sets and already-seen fingerprints skip the clone+sort of
/// [`CommunityState::to_community`] entirely — on hub graphs, where the
/// overwhelming majority of ascents re-converge to known communities,
/// this is most of the off-ascent wall-clock).
struct TicketOutcome {
    /// Order-independent 128-bit fingerprint of the final set.
    fp: u128,
    /// Member count of the final set.
    size: usize,
    /// The members, or `None` when the ticket was pre-filtered.
    community: Option<Community>,
    /// Why the ascent stopped, for the reduction's ordered stop tally.
    stop: AscentStop,
}

/// The ordered deterministic reduction: every accepted ascent flows
/// through [`Reduction::record`] in ascending ticket order, which is what
/// makes dedup, coverage accounting and the halting cutoff independent of
/// thread scheduling. The coverage bitmap lives *outside* (it is updated
/// through `&self` atomics), so workers can hold a shared reference to it
/// across rounds while the reduction advances between them.
struct Reduction {
    halting: HaltingState,
    uncovered: UncoveredList,
    /// Nodes newly covered this round; applied to `uncovered` at round
    /// end (in this deterministic order) while its `nodes` vec is lent
    /// out as the round's snapshot.
    newly_covered: Vec<NodeId>,
    /// Fingerprints of every accepted community: dedup is an O(1) probe
    /// with no member-vector clone (was `HashSet<Vec<NodeId>>`, which
    /// cloned and content-hashed the full vector once per ticket).
    seen: HashSet<u128>,
    accepted: Vec<Community>,
    /// The accepted communities' fingerprints in acceptance order,
    /// parallel to `accepted`. `seen` holds exactly this set (rejects
    /// never enter it), so this vector is both the checkpoint's canonical
    /// fingerprint serialization and the rewind path's O(round) undo log
    /// for `seen`.
    accepted_fps: Vec<u128>,
    min_size: usize,
    halted: bool,
    /// Stop-reason tally of every recorded ticket (budget telemetry).
    stops: AscentStopStats,
}

impl Reduction {
    fn new(config: &OcaConfig, n: usize) -> Self {
        let halting = HaltingState::new(config.halting, n);
        let halted = halting.should_halt();
        Reduction {
            halting,
            uncovered: UncoveredList::new(n),
            newly_covered: Vec::new(),
            seen: HashSet::new(),
            accepted: Vec::new(),
            accepted_fps: Vec::new(),
            min_size: config.min_community_size,
            halted,
            stops: AscentStopStats::default(),
        }
    }

    /// Reconstructs the round-start state a checkpoint recorded: the
    /// exact uncovered list (content *and* order — seed picks index it),
    /// the dedup set, the accepted communities and the halting counters.
    fn restore(config: &OcaConfig, n: usize, ckpt: &DriverCheckpoint) -> Self {
        let halting = HaltingState::restore(
            config.halting,
            n,
            ckpt.seeds_tried as usize,
            ckpt.covered as usize,
            ckpt.stagnant as usize,
            ckpt.rejected_streak as usize,
        );
        let halted = halting.should_halt();
        let nodes: Vec<NodeId> = ckpt.uncovered.iter().map(|&v| NodeId(v)).collect();
        let mut pos = vec![u32::MAX; n];
        for (i, v) in nodes.iter().enumerate() {
            pos[v.index()] = i as u32;
        }
        Reduction {
            halting,
            uncovered: UncoveredList { nodes, pos },
            newly_covered: Vec::new(),
            seen: ckpt.fingerprints.iter().copied().collect(),
            accepted: ckpt.accepted.clone(),
            accepted_fps: ckpt.fingerprints.clone(),
            min_size: config.min_community_size,
            halted,
            stops: ckpt.stops,
        }
    }

    /// Snapshots the current (round-boundary) state for checkpointing.
    /// The bitmap words are derived from the uncovered list rather than
    /// copied from the live bitmap: at a boundary the two agree, and on
    /// the cancellation flush path — where the live bitmap may have run
    /// ahead inside the abandoned round — the rewound uncovered list is
    /// the authoritative one.
    fn to_checkpoint(&self, rng_seed: u64, c: f64, lambda_min: f64, n: usize) -> DriverCheckpoint {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if n % 64 != 0 {
            words[n / 64] = (1u64 << (n % 64)) - 1;
        }
        for v in &self.uncovered.nodes {
            words[v.index() / 64] &= !(1u64 << (v.index() % 64));
        }
        DriverCheckpoint {
            rng_seed,
            c,
            lambda_min,
            seeds_tried: self.halting.seeds_tried() as u64,
            covered: self.halting.covered() as u64,
            stagnant: self.halting.stagnant() as u64,
            rejected_streak: self.halting.rejected_streak() as u64,
            stops: self.stops,
            node_count: n as u64,
            accepted: self.accepted.clone(),
            fingerprints: self.accepted_fps.clone(),
            uncovered: self.uncovered.nodes.iter().map(|v| v.0).collect(),
            bitmap_words: words,
        }
    }

    /// Records the next ticket's outcome (in ticket order) and emits the
    /// post-record progress tick. Returns true while the run should go on.
    fn record(
        &mut self,
        outcome: TicketOutcome,
        covered: &CoverageBitmap,
        ctx: &DetectContext,
        max_seeds: usize,
    ) -> bool {
        debug_assert!(!self.halted, "ticket recorded past the cutoff");
        self.stops.record(outcome.stop);
        // Too-small communities are dropped without entering the dedup
        // set; duplicates are rejected by the O(1) fingerprint probe.
        if outcome.size < self.min_size || !self.seen.insert(outcome.fp) {
            self.halting.record(0, false);
        } else {
            // The fingerprint was novel, so the worker cannot have
            // pre-filtered this ticket (`seen` only grows): the members
            // were materialized.
            let community = outcome
                .community
                .expect("novel fingerprint implies materialized members");
            let mut newly = 0usize;
            for &v in community.members() {
                if covered.set(v.index()) {
                    self.newly_covered.push(v);
                    newly += 1;
                }
            }
            self.accepted.push(community);
            self.accepted_fps.push(outcome.fp);
            self.halting.record(newly, true);
        }
        ctx.tick("ascent", self.halting.seeds_tried(), Some(max_seeds));
        self.halted = self.halting.should_halt();
        !self.halted
    }
}

/// Read-only per-round context shared with every worker.
struct Round<'a> {
    graph: &'a CsrGraph,
    config: &'a OcaConfig,
    /// The uncovered nodes as of the round start — the coverage snapshot
    /// every seed pick of the round is drawn against.
    snapshot: &'a [NodeId],
    /// The master RNG seed tickets derive from. Usually
    /// [`OcaConfig::rng_seed`], but a resumed run adopts the *original*
    /// run's seed from the checkpoint, so the remaining tickets continue
    /// the original schedule even under a different nominal seed.
    rng_seed: u64,
    /// Global ticket number of the round's first ticket.
    start: u64,
    /// Tickets in this round.
    len: usize,
}

impl Round<'_> {
    /// Runs the ascent for round-local ticket `t`: a pure function of
    /// `(rng_seed, start + t)` and the round snapshot.
    ///
    /// `seen` is a dedup-set snapshot no newer than the reduction's view
    /// of this ticket (the live set on the sequential path, the
    /// round-start set in parallel). Probing it never changes the
    /// *decision* — the reduction re-checks in ticket order — it only
    /// skips materializing member vectors for ascents that are already
    /// guaranteed to be rejected, so the output stays bit-identical at
    /// any thread count.
    fn run_ticket(
        &self,
        state: &mut CommunityState<'_>,
        t: usize,
        seen: &HashSet<u128>,
    ) -> TicketOutcome {
        let mut rng = StdRng::seed_from_u64(ticket_seed(self.rng_seed, self.start + t as u64));
        let seed = self.pick_seed(&mut rng);
        let initial = initial_set(self.config.seed_strategy, self.graph, seed, &mut rng);
        let outcome = ascend(state, &initial, &self.config.search);
        let fp = state.fingerprint();
        let size = state.len();
        let community = (size >= self.config.min_community_size && !seen.contains(&fp))
            .then(|| state.to_community());
        TicketOutcome {
            fp,
            size,
            community,
            stop: outcome.stop,
        }
    }

    /// O(1) unbiased pick from the uncovered snapshot; when everything is
    /// covered (possible while the coverage criterion is disabled) any
    /// node will do. Note the pick is against the *snapshot*, not the live
    /// bitmap: the sequential path reduces incrementally, so the bitmap
    /// may run ahead mid-round, and consulting it would reintroduce
    /// schedule-dependent output.
    fn pick_seed<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        if self.snapshot.is_empty() {
            return NodeId(rng.random_range(0..self.graph.node_count() as u32));
        }
        self.snapshot[rng.random_range(0..self.snapshot.len())]
    }
}

impl Oca {
    /// Creates a runner with the given configuration.
    ///
    /// # Panics
    /// Panics on an invalid configuration; use [`Oca::try_new`] for a
    /// typed error instead.
    pub fn new(config: OcaConfig) -> Self {
        match Oca::try_new(config) {
            Ok(oca) => oca,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`Oca::new`]: configuration problems are
    /// reported as [`DetectError::InvalidConfig`].
    pub fn try_new(config: OcaConfig) -> Result<Self, DetectError> {
        config.validate()?;
        Ok(Oca { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &OcaConfig {
        &self.config
    }

    /// Resolves the interaction strength for `graph`.
    fn resolve_c(&self, graph: &CsrGraph) -> (f64, f64) {
        match self.config.c {
            CStrategy::Fixed(c) => (c, 0.0),
            CStrategy::Spectral(ref pc) => {
                let s = interaction_strength(graph, pc);
                (s.c, s.lambda_min)
            }
        }
    }

    /// Runs OCA on `graph` and returns the overlapping cover.
    pub fn run(&self, graph: &CsrGraph) -> OcaResult {
        match self.run_ctx(graph, &DetectContext::new(self.config.rng_seed)) {
            Ok(result) => result,
            // The default context can never be cancelled, and the config
            // was validated at construction.
            Err(e) => unreachable!("uncancellable run failed: {e}"),
        }
    }

    /// Runs OCA under a [`DetectContext`]: the context's cancellation
    /// token is polled once per ascent and a progress tick (`"ascent"`) is
    /// emitted per ticket as the ordered reduction records it — ticks are
    /// monotone and the final tick reports the run's last ascent. On
    /// cancellation the accepted (raw, un-postprocessed) communities are
    /// returned inside [`DetectError::Cancelled`].
    ///
    /// Randomness still derives from [`OcaConfig::rng_seed`]; detector
    /// wrappers copy the context seed into the config first. For a fixed
    /// seed the result is identical at any [`OcaConfig::threads`] count.
    ///
    /// With [`OcaConfig::relabel`] set, the run happens on a
    /// degree-ordered copy of the graph and every cover leaving this
    /// function — the result's and a cancellation's partial — is mapped
    /// back to original ids.
    pub fn run_ctx(&self, graph: &CsrGraph, ctx: &DetectContext) -> Result<OcaResult, DetectError> {
        if !self.config.relabel {
            return self.run_ctx_inner(graph, ctx);
        }
        let relabeling = Relabeling::degree_descending(graph);
        let compact = graph.relabeled(&relabeling);
        match self.run_ctx_inner(&compact, ctx) {
            Ok(mut result) => {
                result.cover = relabeling.cover_to_original(&result.cover);
                Ok(result)
            }
            Err(DetectError::Cancelled { partial }) => Err(DetectError::cancelled(Detection {
                cover: relabeling.cover_to_original(&partial.cover),
                ..*partial
            })),
            Err(other) => Err(other),
        }
    }

    /// [`Oca::run_ctx`] on the graph as given (no relabeling pass).
    fn run_ctx_inner(
        &self,
        graph: &CsrGraph,
        ctx: &DetectContext,
    ) -> Result<OcaResult, DetectError> {
        let start = Instant::now();
        let n = graph.node_count();
        let cancelled =
            |cover: Cover, seeds: usize, c: f64, lambda_min: f64, ckpt: &CheckpointStats| {
                let mut stats = vec![
                    ("c", format!("{c:.6}")),
                    ("lambda_min", format!("{lambda_min:.6}")),
                ];
                stats.extend(ckpt.stat_entries());
                DetectError::cancelled(Detection {
                    cover,
                    elapsed: start.elapsed(),
                    complete: false,
                    iterations: seeds,
                    stats,
                })
            };
        let mut ckpt_stats = CheckpointStats::default();
        if ctx.is_cancelled() {
            return Err(cancelled(Cover::empty(n), 0, 0.0, 0.0, &ckpt_stats));
        }
        if n == 0 {
            let (c, lambda_min) = self.resolve_c(graph);
            return Ok(OcaResult {
                cover: Cover::empty(0),
                c,
                lambda_min,
                seeds_tried: 0,
                raw_community_count: 0,
                halt_reason: None,
                ascent_stops: AscentStopStats::default(),
                elapsed: start.elapsed(),
                phases: PhaseNanos::default(),
                checkpoint: ckpt_stats,
            });
        }

        let config = &self.config;
        // --- checkpoint arming and resume ------------------------------
        // The binding checksums are computed once per run: the config
        // hash is O(1), the graph hash O(n) over the degree sequence.
        let ckpt_cfg: Option<&CheckpointConfig> = config.checkpoint.as_ref();
        let bindings = ckpt_cfg.map(|_| (config_checksum(config), graph_checksum(graph)));
        let mut resumed: Option<DriverCheckpoint> = None;
        if let Some(ck) = ckpt_cfg {
            if ck.resume != ResumePolicy::Fresh {
                let (cfg_ck, g_ck) = bindings.expect("bindings computed when armed");
                match DriverCheckpoint::load(&ck.path, cfg_ck, g_ck) {
                    Ok(d) if d.node_count == n as u64 => resumed = Some(d),
                    Ok(d) => {
                        // The graph binding should have refused this
                        // already; belt and braces against checksum
                        // collisions on the degree sequence.
                        let source = ContainerError::Mismatch {
                            what: "node count",
                            recorded: d.node_count,
                            current: n as u64,
                        };
                        if ck.resume == ResumePolicy::Strict {
                            return Err(DetectError::Checkpoint {
                                path: ck.path.clone(),
                                source,
                            });
                        }
                        let _ = std::fs::remove_file(&ck.path);
                    }
                    // No file yet: the first run of a chain starts fresh.
                    Err(ContainerError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(source) => {
                        if ck.resume == ResumePolicy::Strict {
                            return Err(DetectError::Checkpoint {
                                path: ck.path.clone(),
                                source,
                            });
                        }
                        // Salvage: a damaged or foreign file must never
                        // wedge an unattended restart loop — discard it
                        // and start fresh.
                        let _ = std::fs::remove_file(&ck.path);
                    }
                }
            }
        }
        let (c, lambda_min) = match &resumed {
            // Re-resolving would give the same values (spectral
            // resolution is deterministic) at the cost of a power-method
            // run; the checkpoint carries them instead.
            Some(d) => (d.c, d.lambda_min),
            None => self.resolve_c(graph),
        };
        let rng_seed = resumed.as_ref().map_or(config.rng_seed, |d| d.rng_seed);

        let threads = config.threads;
        let covered = match &resumed {
            Some(d) => CoverageBitmap::from_words(&d.bitmap_words),
            None => CoverageBitmap::new(n),
        };
        let mut reduction = match &resumed {
            Some(d) => {
                ckpt_stats.resumed_from_ticket = Some(d.seeds_tried);
                Reduction::restore(config, n, d)
            }
            None => Reduction::new(config, n),
        };
        drop(resumed);
        let mut phases = PhaseNanos::default();
        // One reusable search state per worker; buffers persist across
        // rounds so reset cost stays proportional to work done.
        let mut states: Vec<CommunityState<'_>> = (0..threads.max(1))
            .map(|_| CommunityState::new(graph, c))
            .collect();
        // Covered-hub pruning: nodes of degree ≥ the threshold get a bit
        // in this fixed mask; each round intersects it with the round-start
        // coverage and hands the result to every worker state. Because the
        // bitmap only advances at round boundaries on the parallel path —
        // and the sequential path uses the same round-start snapshot — the
        // prune mask a ticket sees is a pure function of the schedule, so
        // covers stay bit-identical across thread counts.
        let hub_mask: Vec<u64> = if config.search.prune_hub_degree > 0 {
            let mut mask = vec![0u64; covered.word_count()];
            for v in 0..n {
                if graph.neighbors(NodeId(v as u32)).len() >= config.search.prune_hub_degree {
                    mask[v / 64] |= 1 << (v % 64);
                }
            }
            mask
        } else {
            Vec::new()
        };
        let mut prune_words = vec![0u64; hub_mask.len()];
        let mut rounds_since_start = 0u64;

        while !reduction.halted {
            if !hub_mask.is_empty() {
                covered.copy_words_into(&mut prune_words);
                for (w, m) in prune_words.iter_mut().zip(&hub_mask) {
                    *w &= m;
                }
                for state in &mut states {
                    state.set_prune_snapshot(&prune_words);
                }
            }
            let done = reduction.halting.seeds_tried();
            let len = config.batch.min(config.halting.max_seeds - done);
            debug_assert!(len > 0, "max_seeds exhausted without halting");
            // The uncovered list is *lent out* (no copy) as the round's
            // pick snapshot; the reduction buffers this round's removals
            // in `newly_covered` and applies them once the round is over,
            // so the sequential path can reduce incrementally (stopping
            // at the cutoff without wasted ascents) while every pick of
            // the round still sees the round-start coverage, exactly
            // like the parallel path.
            // Round-start guard for the cancellation rewind: counter
            // clones only, taken only while checkpointing is armed.
            let guard = ckpt_cfg.is_some().then(|| {
                (
                    reduction.halting.clone(),
                    reduction.stops,
                    reduction.accepted.len(),
                )
            });
            let snapshot = std::mem::take(&mut reduction.uncovered.nodes);
            let round = Round {
                graph,
                config,
                snapshot: &snapshot,
                rng_seed,
                start: done as u64,
                len,
            };

            if threads <= 1 || len == 1 {
                for t in 0..len {
                    if ctx.is_cancelled() {
                        break;
                    }
                    // Sequentially the reduction's live dedup set is
                    // current for this ticket, so it doubles as the
                    // pre-filter snapshot.
                    let t0 = Instant::now();
                    let outcome = round.run_ticket(&mut states[0], t, &reduction.seen);
                    let t1 = Instant::now();
                    let go_on = reduction.record(outcome, &covered, ctx, config.halting.max_seeds);
                    phases.ascent_ns += t1.duration_since(t0).as_nanos() as u64;
                    phases.dedup_ns += t1.elapsed().as_nanos() as u64;
                    if !go_on {
                        break;
                    }
                }
            } else {
                let t0 = Instant::now();
                let results = run_round_parallel(&round, &mut states, &reduction.seen, ctx);
                let t1 = Instant::now();
                phases.ascent_ns += t1.duration_since(t0).as_nanos() as u64;
                for slot in results {
                    // A hole means a worker bailed on cancellation; the
                    // contiguous prefix before it is still reduced so the
                    // partial result is well-formed.
                    let Some(outcome) = slot else { break };
                    if !reduction.record(outcome, &covered, ctx, config.halting.max_seeds)
                        || ctx.is_cancelled()
                    {
                        break;
                    }
                }
                phases.dedup_ns += t1.elapsed().as_nanos() as u64;
            }
            reduction.uncovered.nodes = snapshot;
            if ctx.is_cancelled() {
                if let (Some(ck), Some((halting, stops, accepted_len))) = (ckpt_cfg, guard) {
                    // Rewind to the round start — the only cut the
                    // schedule can resume from bit-identically — then
                    // flush a final checkpoint and return the rewound
                    // state as the partial. The abandoned round's accepts
                    // are undone (fingerprints out of `seen`, communities
                    // truncated, counters restored, buffered removals
                    // dropped); the live bitmap may keep stray mid-round
                    // bits, but the checkpoint derives coverage from the
                    // rewound uncovered list and this process does no
                    // further work with the bitmap.
                    for fp in reduction.accepted_fps.drain(accepted_len..) {
                        reduction.seen.remove(&fp);
                    }
                    reduction.accepted.truncate(accepted_len);
                    reduction.halting = halting;
                    reduction.stops = stops;
                    reduction.newly_covered.clear();
                    write_checkpoint(
                        ck,
                        bindings.expect("bindings computed when armed"),
                        &reduction,
                        &mut ckpt_stats,
                        rng_seed,
                        c,
                        lambda_min,
                        n,
                    );
                    let seeds = reduction.halting.seeds_tried();
                    let cover = Cover::new(n, std::mem::take(&mut reduction.accepted));
                    return Err(cancelled(cover, seeds, c, lambda_min, &ckpt_stats));
                }
                for v in std::mem::take(&mut reduction.newly_covered) {
                    reduction.uncovered.remove(v);
                }
                let seeds = reduction.halting.seeds_tried();
                let cover = Cover::new(n, reduction.accepted);
                return Err(cancelled(cover, seeds, c, lambda_min, &ckpt_stats));
            }
            for v in std::mem::take(&mut reduction.newly_covered) {
                reduction.uncovered.remove(v);
            }
            rounds_since_start += 1;
            if let Some(ck) = ckpt_cfg {
                if !reduction.halted && rounds_since_start % ck.every_rounds == 0 {
                    let wrote = write_checkpoint(
                        ck,
                        bindings.expect("bindings computed when armed"),
                        &reduction,
                        &mut ckpt_stats,
                        rng_seed,
                        c,
                        lambda_min,
                        n,
                    );
                    if wrote && ck.faults.check_kill(ckpt_stats.rounds_checkpointed) {
                        // Simulated kill-between-rounds: abandon the run
                        // at exactly the boundary the checkpoint just
                        // captured — the crash window resume must cover.
                        let seeds = reduction.halting.seeds_tried();
                        let cover = Cover::new(n, std::mem::take(&mut reduction.accepted));
                        return Err(cancelled(cover, seeds, c, lambda_min, &ckpt_stats));
                    }
                }
            }
        }

        let raw_count = reduction.accepted.len();
        let mut cover = Cover::new(n, reduction.accepted);
        if let Some(threshold) = config.merge_threshold {
            let t0 = Instant::now();
            cover = merge_similar(&cover, threshold);
            phases.merge_ns += t0.elapsed().as_nanos() as u64;
        }
        if config.assign_orphans {
            let t0 = Instant::now();
            cover = assign_orphans(graph, &cover, 16);
            phases.orphan_ns += t0.elapsed().as_nanos() as u64;
        }
        if let Some(ck) = ckpt_cfg {
            // The run completed: the checkpoint is spent. Removing it
            // keeps a later run over the same path (serve's next
            // recompute round, a re-invocation of the CLI) from resuming
            // into an already-finished state.
            let _ = std::fs::remove_file(&ck.path);
        }
        Ok(OcaResult {
            cover,
            c,
            lambda_min,
            seeds_tried: reduction.halting.seeds_tried(),
            raw_community_count: raw_count,
            halt_reason: reduction.halting.reason(),
            ascent_stops: reduction.stops,
            elapsed: start.elapsed(),
            phases,
            checkpoint: ckpt_stats,
        })
    }
}

/// Writes the reduction's current boundary state to the configured
/// checkpoint path, updating the telemetry. Failures (I/O errors,
/// injected torn writes) are counted, not fatal: the run continues, and
/// the previous complete checkpoint — the atomic writer never replaces a
/// file with a partial one — keeps covering it.
#[allow(clippy::too_many_arguments)]
fn write_checkpoint(
    ck: &CheckpointConfig,
    bindings: (u64, u64),
    reduction: &Reduction,
    stats: &mut CheckpointStats,
    rng_seed: u64,
    c: f64,
    lambda_min: f64,
    n: usize,
) -> bool {
    let snapshot = reduction.to_checkpoint(rng_seed, c, lambda_min, n);
    let t0 = Instant::now();
    match snapshot.save(&ck.path, bindings.0, bindings.1, &ck.faults) {
        Ok(bytes) => {
            let ns = t0.elapsed().as_nanos() as u64;
            stats.rounds_checkpointed += 1;
            stats.last_bytes = bytes;
            stats.last_write_ns = ns;
            stats.total_write_ns += ns;
            true
        }
        Err(_) => {
            stats.write_failures += 1;
            false
        }
    }
}

/// Executes one round's tickets across scoped worker threads. Workers
/// lease ticket chunks from an atomic cursor (one `fetch_add` per chunk —
/// the entire cross-thread synchronization of the round) and return their
/// results, which are assembled into ticket-indexed slots for the ordered
/// reduction. `None` slots only occur after cancellation.
fn run_round_parallel(
    round: &Round<'_>,
    states: &mut [CommunityState<'_>],
    seen: &HashSet<u128>,
    ctx: &DetectContext,
) -> Vec<Option<TicketOutcome>> {
    let cursor = AtomicUsize::new(0);
    // Small leases keep workers balanced near the end of a round while
    // amortizing the cursor traffic.
    let lease = (round.len / (states.len() * 4)).clamp(1, 32);
    let buffers: Vec<Vec<(usize, TicketOutcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut out: Vec<(usize, TicketOutcome)> = Vec::new();
                    'lease: loop {
                        let lo = cursor.fetch_add(lease, Ordering::Relaxed);
                        if lo >= round.len {
                            break;
                        }
                        for t in lo..(lo + lease).min(round.len) {
                            if ctx.is_cancelled() {
                                break 'lease;
                            }
                            out.push((t, round.run_ticket(state, t, seen)));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let mut slots: Vec<Option<TicketOutcome>> = Vec::new();
    slots.resize_with(round.len, || None);
    for (t, outcome) in buffers.into_iter().flatten() {
        debug_assert!(slots[t].is_none(), "ticket executed twice");
        slots[t] = Some(outcome);
    }
    slots
}

/// Convenience: run OCA with default configuration.
pub fn run_default(graph: &CsrGraph) -> OcaResult {
    Oca::default().run(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OcaConfig;
    use oca_graph::from_edges;
    use std::sync::Mutex;

    /// Three 5-cliques connected in a ring by single bridges.
    fn three_cliques() -> CsrGraph {
        let mut edges = Vec::new();
        for b in [0u32, 5, 10] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    edges.push((b + i, b + j));
                }
            }
        }
        edges.extend([(4, 5), (9, 10), (14, 0)]);
        from_edges(15, edges)
    }

    fn quick_config() -> OcaConfig {
        OcaConfig {
            halting: crate::halting::HaltingConfig {
                max_seeds: 200,
                target_coverage: 1.0,
                stagnation_limit: 30,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn finds_the_three_cliques() {
        let g = three_cliques();
        let result = Oca::new(quick_config()).run(&g);
        assert_eq!(result.cover.len(), 3, "expected 3 communities");
        let mut sizes: Vec<usize> = result.cover.communities().iter().map(|c| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![5, 5, 5]);
        assert!((result.cover.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(result.halt_reason, Some(HaltReason::Coverage));
    }

    #[test]
    fn sequential_runs_are_deterministic() {
        let g = three_cliques();
        let a = Oca::new(quick_config()).run(&g);
        let b = Oca::new(quick_config()).run(&g);
        assert_eq!(a.cover, b.cover);
        assert_eq!(a.seeds_tried, b.seeds_tried);
    }

    /// The determinism contract of this module: for a fixed seed the
    /// cover, the seeds-tried cutoff and the halt reason are bit-identical
    /// at any thread count — including cutoffs that land mid-round.
    #[test]
    fn parallel_equals_sequential_at_any_thread_count() {
        let g = three_cliques();
        let reference = Oca::new(quick_config()).run(&g);
        assert_eq!(reference.cover.len(), 3);
        for threads in [2, 3, 4, 8] {
            let r = Oca::new(OcaConfig {
                threads,
                ..quick_config()
            })
            .run(&g);
            assert_eq!(r.cover, reference.cover, "threads = {threads}");
            assert_eq!(r.seeds_tried, reference.seeds_tried, "threads = {threads}");
            assert_eq!(r.halt_reason, reference.halt_reason, "threads = {threads}");
        }
    }

    #[test]
    fn round_size_is_part_of_the_schedule_but_threads_are_not() {
        let g = three_cliques();
        for batch in [1, 7, 64] {
            let reference = Oca::new(OcaConfig {
                batch,
                ..quick_config()
            })
            .run(&g);
            for threads in [2, 4] {
                let r = Oca::new(OcaConfig {
                    batch,
                    threads,
                    ..quick_config()
                })
                .run(&g);
                assert_eq!(r.cover, reference.cover, "batch = {batch}");
                assert_eq!(r.seeds_tried, reference.seeds_tried, "batch = {batch}");
            }
        }
    }

    /// Ticks fire after each recorded ascent with the post-record count:
    /// strictly increasing by one, ending exactly at `seeds_tried`.
    #[test]
    fn progress_ticks_are_monotone_and_report_the_last_ascent() {
        let g = three_cliques();
        for threads in [1, 4] {
            let ticks = std::sync::Arc::new(Mutex::new(Vec::new()));
            let sink = std::sync::Arc::clone(&ticks);
            let ctx =
                DetectContext::new(0x0CA).with_progress(move |p| sink.lock().unwrap().push(p.done));
            let result = Oca::new(OcaConfig {
                threads,
                ..quick_config()
            })
            .run_ctx(&g, &ctx)
            .unwrap();
            let ticks = ticks.lock().unwrap();
            let expected: Vec<usize> = (1..=result.seeds_tried).collect();
            assert_eq!(*ticks, expected, "threads = {threads}");
        }
    }

    /// Once the three cliques are found every further ascent re-converges
    /// to one of them; with coverage unreachable the duplicate streak is
    /// what stops the run (long before the stagnation window, which the
    /// config leaves effectively open).
    #[test]
    fn duplicate_streak_halts_hub_style_repetition() {
        let g = three_cliques();
        let r = Oca::new(OcaConfig {
            halting: crate::halting::HaltingConfig {
                max_seeds: 10_000,
                target_coverage: 2.0,
                stagnation_limit: usize::MAX - 1,
                stagnation_streak: 25,
                ..Default::default()
            },
            ..Default::default()
        })
        .run(&g);
        assert_eq!(r.halt_reason, Some(HaltReason::DuplicateStreak));
        assert_eq!(r.cover.len(), 3, "the streak fires only after the finds");
        assert!(r.seeds_tried < 10_000, "the budget must not be exhausted");
    }

    /// The determinism contract extends to every hub-search feature: with
    /// scaled budgets, covered-hub pruning and the penalized move rule all
    /// enabled, the cover, cutoff, halt reason *and* the stop-reason tally
    /// are bit-identical at any thread count.
    #[test]
    fn hub_search_features_preserve_thread_determinism() {
        let g = three_cliques();
        let cfg = OcaConfig {
            search: crate::search::SearchConfig {
                budget_factor: 2.0,
                prune_hub_degree: 4,
                move_rule: crate::search::MoveRule::Penalized,
                plateau_moves: 6,
                tabu_tenure: 3,
                ..Default::default()
            },
            ..quick_config()
        };
        let reference = Oca::new(cfg.clone()).run(&g);
        assert!(!reference.cover.is_empty());
        for threads in [2, 3, 4] {
            let r = Oca::new(OcaConfig {
                threads,
                ..cfg.clone()
            })
            .run(&g);
            assert_eq!(r.cover, reference.cover, "threads = {threads}");
            assert_eq!(r.seeds_tried, reference.seeds_tried, "threads = {threads}");
            assert_eq!(r.halt_reason, reference.halt_reason, "threads = {threads}");
            assert_eq!(
                r.ascent_stops, reference.ascent_stops,
                "threads = {threads}"
            );
        }
    }

    /// The stop tally covers every recorded seed, and an unbudgeted run on
    /// an easy graph converges everything.
    #[test]
    fn ascent_stop_telemetry_accounts_for_every_seed() {
        let g = three_cliques();
        let r = Oca::new(quick_config()).run(&g);
        let s = r.ascent_stops;
        assert_eq!(
            s.converged + s.limited(),
            r.seeds_tried,
            "every recorded ascent is tallied exactly once"
        );
        assert_eq!(s.limited(), 0, "default config never cuts an ascent");
        // A one-move hard cap cuts every multi-move ascent.
        let capped = Oca::new(OcaConfig {
            search: crate::search::SearchConfig {
                max_moves: 1,
                ..Default::default()
            },
            ..quick_config()
        })
        .run(&g);
        assert!(capped.ascent_stops.move_cap > 0, "cap stops must be seen");
    }

    /// Pruning covered hubs changes which communities later seeds can
    /// reach, but never the validity of the cover.
    #[test]
    fn covered_hub_pruning_yields_a_valid_cover() {
        let g = three_cliques();
        let r = Oca::new(OcaConfig {
            search: crate::search::SearchConfig {
                // Every node of a 5-clique has degree ≥ 4, so after the
                // first accepted clique all its members are prunable.
                prune_hub_degree: 4,
                ..Default::default()
            },
            ..quick_config()
        })
        .run(&g);
        assert!(!r.cover.is_empty());
        for community in r.cover.communities() {
            assert!(!community.is_empty());
            for &v in community.members() {
                assert!(v.index() < 15);
            }
        }
    }

    #[test]
    fn phase_breakdown_accounts_for_the_run() {
        let g = three_cliques();
        let r = Oca::new(quick_config()).run(&g);
        assert!(r.phases.ascent_ns > 0, "ascent work must be timed");
        assert!(r.phases.dedup_ns > 0, "reduction work must be timed");
        assert_eq!(r.phases.orphan_ns, 0, "orphan assignment is off");
        let total = r.phases.ascent_ns + r.phases.dedup_ns + r.phases.merge_ns;
        assert!(
            total <= r.elapsed.as_nanos() as u64,
            "phases cannot exceed the wall clock"
        );
    }

    #[test]
    fn coverage_bitmap_tracks_sets() {
        let bm = CoverageBitmap::new(130);
        assert!(!bm.get(0) && !bm.get(129));
        assert!(bm.set(129), "first set is new");
        assert!(!bm.set(129), "second set is not");
        assert!(bm.get(129) && !bm.get(128));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(0);
        let r = run_default(&g);
        assert!(r.cover.is_empty());
        assert_eq!(r.seeds_tried, 0);
        assert_eq!(r.halt_reason, None);
    }

    #[test]
    fn edgeless_graph_yields_no_communities() {
        let g = CsrGraph::empty(10);
        let cfg = OcaConfig {
            halting: crate::halting::HaltingConfig {
                max_seeds: 30,
                target_coverage: 1.0,
                stagnation_limit: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = Oca::new(cfg).run(&g);
        assert!(r.cover.is_empty(), "singletons are below min size");
        assert_eq!(r.halt_reason, Some(HaltReason::Stagnation));
    }

    #[test]
    fn orphan_assignment_covers_everything_connected() {
        let g = three_cliques();
        let cfg = OcaConfig {
            assign_orphans: true,
            ..quick_config()
        };
        let r = Oca::new(cfg).run(&g);
        assert!(r.cover.orphans().is_empty());
    }

    #[test]
    fn fixed_c_skips_spectral() {
        let g = three_cliques();
        let cfg = OcaConfig {
            c: CStrategy::Fixed(0.7),
            ..quick_config()
        };
        let r = Oca::new(cfg).run(&g);
        assert_eq!(r.c, 0.7);
        assert_eq!(r.lambda_min, 0.0);
        assert_eq!(r.cover.len(), 3);
    }

    use crate::checkpoint::{
        CheckpointConfig, CheckpointFaultSpec, CheckpointFaults, ResumePolicy,
    };
    use oca_graph::{CancelToken, DetectError};

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("oca_runner_ckpt_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `quick_config` with a small round so runs span several checkpoint
    /// boundaries. A two-ticket round cannot cover the 15 nodes in its
    /// first round (two 5-cliques at most), so a kill after the first
    /// periodic write is always reachable.
    fn tiny_round_config() -> OcaConfig {
        OcaConfig {
            batch: 2,
            ..quick_config()
        }
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_removes_the_spent_file() {
        let g = three_cliques();
        let path = ckpt_dir("plain").join("run.ockpt");
        let plain = Oca::new(tiny_round_config()).run(&g);
        let r = Oca::new(OcaConfig {
            checkpoint: Some(CheckpointConfig::at(&path)),
            ..tiny_round_config()
        })
        .run(&g);
        assert_eq!(
            r.cover, plain.cover,
            "checkpointing must not change the cover"
        );
        assert_eq!(r.seeds_tried, plain.seeds_tried);
        assert!(
            r.checkpoint.rounds_checkpointed > 0,
            "boundaries were written"
        );
        assert!(r.checkpoint.last_bytes > 0);
        assert_eq!(r.checkpoint.resumed_from_ticket, None);
        assert!(
            !path.exists(),
            "a completed run removes its spent checkpoint"
        );
    }

    /// The tentpole contract: SIGKILL-style abandonment right after a
    /// boundary write, then a resume — under a *different* nominal seed
    /// and any thread count — reproduces the uninterrupted run bit for
    /// bit (cover, cutoff and halt reason).
    #[test]
    fn kill_between_rounds_then_resume_is_bit_identical() {
        let g = three_cliques();
        let baseline = Oca::new(tiny_round_config()).run(&g);
        for threads in [1usize, 2, 4] {
            let path = ckpt_dir("kill").join(format!("t{threads}.ockpt"));
            let faults = CheckpointFaults::new(CheckpointFaultSpec {
                torn_write_every: 0,
                kill_after_writes: 1,
            });
            let err = Oca::new(OcaConfig {
                threads,
                checkpoint: Some(CheckpointConfig {
                    path: path.clone(),
                    every_rounds: 1,
                    resume: ResumePolicy::Strict,
                    faults,
                }),
                ..tiny_round_config()
            })
            .run_ctx(&g, &DetectContext::new(0x0CA))
            .unwrap_err();
            assert!(
                matches!(err, DetectError::Cancelled { .. }),
                "threads = {threads}"
            );
            assert!(path.exists(), "the kill left a checkpoint behind");

            // Resume under a different nominal seed: the checkpoint's
            // recorded seed must win, or the remaining schedule diverges.
            let r = Oca::new(OcaConfig {
                threads,
                rng_seed: 0xDEAD_BEEF,
                checkpoint: Some(CheckpointConfig::at(&path)),
                ..tiny_round_config()
            })
            .run(&g);
            assert_eq!(r.cover, baseline.cover, "threads = {threads}");
            assert_eq!(r.seeds_tried, baseline.seeds_tried, "threads = {threads}");
            assert_eq!(r.halt_reason, baseline.halt_reason, "threads = {threads}");
            assert_eq!(r.ascent_stops, baseline.ascent_stops, "threads = {threads}");
            let resumed_from = r.checkpoint.resumed_from_ticket.expect("run resumed");
            assert!(resumed_from > 0 && resumed_from < baseline.seeds_tried as u64);
            assert!(!path.exists(), "the spent checkpoint is removed");
        }
    }

    /// Cancellation mid-round rewinds to the round start — the partial
    /// reports a whole number of rounds — and the flushed checkpoint
    /// resumes to the uninterrupted result.
    #[test]
    fn cancel_mid_round_rewinds_flushes_and_resumes_bit_identically() {
        let g = three_cliques();
        let cfg = OcaConfig {
            batch: 4,
            ..quick_config()
        };
        let baseline = Oca::new(cfg.clone()).run(&g);
        let path = ckpt_dir("cancel").join("run.ockpt");
        let token = CancelToken::new();
        let trigger = token.clone();
        // Cancel on the fifth ascent: one ticket into the second round.
        let ctx = DetectContext::new(0x0CA)
            .with_cancel(token)
            .with_progress(move |p| {
                if p.done == 5 {
                    trigger.cancel();
                }
            });
        let err = Oca::new(OcaConfig {
            checkpoint: Some(CheckpointConfig::at(&path)),
            ..cfg.clone()
        })
        .run_ctx(&g, &ctx)
        .unwrap_err();
        let DetectError::Cancelled { partial } = err else {
            panic!("expected Cancelled");
        };
        assert_eq!(
            partial.iterations % 4,
            0,
            "the partial is rewound to a round boundary"
        );
        assert!(path.exists(), "cancellation flushed a final checkpoint");

        let r = Oca::new(OcaConfig {
            checkpoint: Some(CheckpointConfig::at(&path)),
            ..cfg
        })
        .run(&g);
        assert_eq!(r.cover, baseline.cover);
        assert_eq!(r.seeds_tried, baseline.seeds_tried);
        assert_eq!(
            r.checkpoint.resumed_from_ticket,
            Some(partial.iterations as u64)
        );
    }

    #[test]
    fn strict_refuses_garbage_and_salvage_discards_it() {
        let g = three_cliques();
        let baseline = Oca::new(tiny_round_config()).run(&g);
        let path = ckpt_dir("garbage").join("run.ockpt");
        std::fs::write(&path, b"not a checkpoint at all").unwrap();

        let err = Oca::new(OcaConfig {
            checkpoint: Some(CheckpointConfig::at(&path)),
            ..tiny_round_config()
        })
        .run_ctx(&g, &DetectContext::new(0x0CA))
        .unwrap_err();
        assert!(matches!(err, DetectError::Checkpoint { .. }), "got {err}");
        assert!(path.exists(), "strict mode never deletes evidence");

        let r = Oca::new(OcaConfig {
            checkpoint: Some(CheckpointConfig {
                resume: ResumePolicy::Salvage,
                ..CheckpointConfig::at(&path)
            }),
            ..tiny_round_config()
        })
        .run(&g);
        assert_eq!(r.cover, baseline.cover, "salvage restarts from scratch");
        assert_eq!(r.checkpoint.resumed_from_ticket, None);
        assert!(!path.exists());
    }

    #[test]
    fn mismatched_config_binding_refuses_resume() {
        let g = three_cliques();
        let path = ckpt_dir("binding").join("run.ockpt");
        let faults = CheckpointFaults::new(CheckpointFaultSpec {
            torn_write_every: 0,
            kill_after_writes: 1,
        });
        Oca::new(OcaConfig {
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                every_rounds: 1,
                resume: ResumePolicy::Strict,
                faults,
            }),
            ..tiny_round_config()
        })
        .run_ctx(&g, &DetectContext::new(0x0CA))
        .unwrap_err();
        assert!(path.exists());

        // A different batch is a different deterministic schedule: the
        // config binding must refuse the resume rather than mix them.
        let err = Oca::new(OcaConfig {
            batch: 16,
            checkpoint: Some(CheckpointConfig::at(&path)),
            ..quick_config()
        })
        .run_ctx(&g, &DetectContext::new(0x0CA))
        .unwrap_err();
        match err {
            DetectError::Checkpoint { source, .. } => {
                assert!(source.to_string().contains("config"), "got {source}");
            }
            other => panic!("expected Checkpoint, got {other}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Injected torn writes fail every periodic write; the run itself
    /// must shrug (failures are telemetry, not errors) and the target
    /// path must never contain a half-written file.
    #[test]
    fn torn_writes_are_counted_and_never_leave_a_file() {
        let g = three_cliques();
        let baseline = Oca::new(tiny_round_config()).run(&g);
        let path = ckpt_dir("torn").join("run.ockpt");
        let faults = CheckpointFaults::new(CheckpointFaultSpec {
            torn_write_every: 1,
            kill_after_writes: 0,
        });
        let ck = CheckpointConfig {
            path: path.clone(),
            every_rounds: 1,
            resume: ResumePolicy::Strict,
            faults: faults.clone(),
        };
        let r = Oca::new(OcaConfig {
            checkpoint: Some(ck),
            ..tiny_round_config()
        })
        .run(&g);
        assert_eq!(r.cover, baseline.cover);
        assert_eq!(r.checkpoint.rounds_checkpointed, 0);
        assert!(r.checkpoint.write_failures > 0);
        assert_eq!(faults.counts().torn_writes, r.checkpoint.write_failures);
        assert!(!path.exists(), "a torn write must not surface at the path");
        // No temp debris either: atomic_write_path cleans up on error.
        let dir = path.parent().unwrap();
        let debris: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(debris.is_empty(), "temp debris: {debris:?}");
    }

    #[test]
    fn every_rounds_sets_the_write_cadence() {
        let g = three_cliques();
        let dense_path = ckpt_dir("cadence").join("dense.ockpt");
        let sparse_path = ckpt_dir("cadence").join("sparse.ockpt");
        let run = |path: &std::path::Path, every: u64| {
            Oca::new(OcaConfig {
                checkpoint: Some(CheckpointConfig {
                    path: path.to_path_buf(),
                    every_rounds: every,
                    resume: ResumePolicy::Strict,
                    faults: CheckpointFaults::none(),
                }),
                ..tiny_round_config()
            })
            .run(&g)
        };
        let dense = run(&dense_path, 1);
        let sparse = run(&sparse_path, 3);
        assert_eq!(dense.cover, sparse.cover, "cadence is not schedule");
        assert!(dense.checkpoint.rounds_checkpointed > sparse.checkpoint.rounds_checkpointed);
    }

    use oca_graph::CsrGraph;
}
