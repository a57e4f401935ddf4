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
//! Every round takes one path at any thread count: the workers (the
//! caller's thread plus `threads − 1` scoped threads) run all its tickets,
//! then the reduction records them in ticket order. The only cross-thread
//! state during a round is read-only (the uncovered snapshot, the
//! round-start dedup set) plus one atomic ticket cursor workers lease
//! small ticket batches from — no mutex anywhere on the hot path.

use crate::checkpoint::{
    config_checksum, graph_checksum, CheckpointConfig, CheckpointStats, DriverCheckpoint, Journal,
    ResumePolicy,
};
use crate::config::{CStrategy, OcaConfig};
use crate::halting::{AscentStopStats, HaltReason, HaltingState};
use crate::postprocess::{assign_orphans, merge_similar};
use crate::search::{ascend, AscentStop};
use crate::seed::{initial_set, ticket_seed};
use crate::state::{set_fingerprint, CommunityState};
use oca_graph::{
    Community, ContainerError, Cover, CsrGraph, DetectContext, DetectError, Detection, NodeId,
};
use oca_spectral::{interaction_strength_threaded, InteractionStrength, PowerResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-phase wall-clock breakdown of one run, in nanoseconds. The bench
/// and the detector telemetry expose these so an off-ascent regression
/// (dedup, merging, orphan assignment — the paper's Section IV
/// postprocessing) can never hide inside the end-to-end total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// The spectral solve for `c = −1/λ_min`; 0 when `c` is fixed or
    /// restored from a checkpoint.
    pub spectral_ns: u64,
    /// Everything else before the first round: checkpoint load and
    /// replay, the binding checksums, the worker states and the hub list.
    pub setup_ns: u64,
    /// Greedy ascents: seed drawing plus local search, as the wall time of
    /// the worker rounds (not summed CPU time).
    pub ascent_ns: u64,
    /// The ordered reduction: fingerprint dedup, coverage accounting (the
    /// uncovered-list swap-removes of each accepted community) and
    /// halting, per ticket.
    pub dedup_ns: u64,
    /// [`merge_similar`] over the accepted communities.
    pub merge_ns: u64,
    /// [`assign_orphans`], when enabled.
    pub orphan_ns: u64,
    /// The part of [`OcaResult::elapsed`] no phase above and no
    /// checkpoint write ([`CheckpointStats::total_write_ns`]) accounts
    /// for, saturating at zero: round bookkeeping, the prune mask, cover
    /// assembly.
    pub unattributed_ns: u64,
}

impl PhaseNanos {
    /// Sets [`PhaseNanos::unattributed_ns`] to what is left of `elapsed`
    /// after the other phases and `checkpoint_write_ns`.
    fn attribute(&mut self, elapsed: Duration, checkpoint_write_ns: u64) {
        let named = self.spectral_ns
            + self.setup_ns
            + self.ascent_ns
            + self.dedup_ns
            + self.merge_ns
            + self.orphan_ns
            + checkpoint_write_ns;
        self.unattributed_ns = (elapsed.as_nanos() as u64).saturating_sub(named);
    }
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
    /// Lanczos steps of the spectral solve; 0 when no solve ran (`c`
    /// fixed or restored from a checkpoint).
    pub spectral_iterations: usize,
    /// Whether the spectral solve met its tolerance; false when no solve
    /// ran.
    pub spectral_converged: bool,
    /// Seeds processed before the halting cutoff (deterministic for a
    /// fixed seed, independent of the thread count).
    pub seeds_tried: usize,
    /// Communities accepted before merge postprocessing.
    pub raw_community_count: usize,
    /// Which halting criterion ended the run (`None` only for empty
    /// graphs, which never start).
    pub halt_reason: Option<HaltReason>,
    /// Why the recorded ascents stopped (converged vs. cap/budget),
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

/// The uncovered-node list: O(1) unbiased seed picks (no rejection
/// sampling), updated by swap-removal as the ordered reduction accepts
/// communities. Its content *and order* are therefore a pure function of
/// the accepted communities in acceptance order — identical across thread
/// counts, and rebuilt on resume by replaying them.
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

    fn is_covered(&self, v: NodeId) -> bool {
        self.pos[v.index()] == u32::MAX
    }

    /// Swap-removes `v` if it is still uncovered; returns whether it was.
    fn remove(&mut self, v: NodeId) -> bool {
        let p = self.pos[v.index()];
        if p == u32::MAX {
            return false;
        }
        let last = *self.nodes.last().expect("non-empty when removing");
        self.nodes.swap_remove(p as usize);
        self.pos[last.index()] = p;
        self.pos[v.index()] = u32::MAX;
        true
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

/// The ordered deterministic reduction: every ticket flows through
/// [`Reduction::record`] in ascending ticket order, which is what makes
/// dedup, coverage accounting and the halting cutoff independent of
/// thread scheduling. Its state is the accepted list plus what replaying
/// that list derives: the uncovered list, the dedup set and the covered
/// count.
struct Reduction {
    halting: HaltingState,
    uncovered: UncoveredList,
    /// Fingerprints of every accepted community: dedup is an O(1) probe
    /// with no member-vector clone (was `HashSet<Vec<NodeId>>`, which
    /// cloned and content-hashed the full vector once per ticket).
    seen: HashSet<u128>,
    accepted: Vec<Community>,
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
            seen: HashSet::new(),
            accepted: Vec::new(),
            min_size: config.min_community_size,
            halted,
            stops: AscentStopStats::default(),
        }
    }

    /// Reconstructs the round-start state a checkpoint recorded by
    /// replaying its accepted communities, in order, through the same
    /// [`Reduction::accept`] the run used: that rebuilds the uncovered
    /// list in its exact swap-remove order (seed picks index it) and the
    /// dedup set. The halting counters come from the checkpoint.
    fn restore(config: &OcaConfig, n: usize, ckpt: DriverCheckpoint) -> Self {
        let mut reduction = Reduction::new(config, n);
        for community in ckpt.accepted {
            reduction.seen.insert(set_fingerprint(community.members()));
            reduction.accept(community);
        }
        reduction.halting = HaltingState::restore(
            config.halting,
            n,
            ckpt.seeds_tried as usize,
            n - reduction.uncovered.nodes.len(),
            ckpt.stagnant as usize,
            ckpt.rejected_streak as usize,
        );
        reduction.halted = reduction.halting.should_halt();
        reduction.stops = ckpt.stops;
        reduction
    }

    /// Appends `community` to the accepted list and swap-removes each of
    /// its members that is still uncovered, in member order. Returns how
    /// many nodes it newly covered.
    fn accept(&mut self, community: Community) -> usize {
        let mut newly = 0;
        for &v in community.members() {
            newly += usize::from(self.uncovered.remove(v));
        }
        self.accepted.push(community);
        newly
    }

    /// The current (round-start) state as a checkpoint that borrows the
    /// accepted list rather than copying it.
    fn checkpoint(&self, rng_seed: u64, c: f64, lambda_min: f64) -> DriverCheckpoint<&[Community]> {
        DriverCheckpoint {
            rng_seed,
            c,
            lambda_min,
            seeds_tried: self.halting.seeds_tried() as u64,
            stagnant: self.halting.stagnant() as u64,
            rejected_streak: self.halting.rejected_streak() as u64,
            stops: self.stops,
            node_count: self.uncovered.pos.len() as u64,
            accepted: &self.accepted,
        }
    }

    /// Records the next ticket's outcome (in ticket order) and emits the
    /// post-record progress tick. Returns true while the run should go on.
    fn record(&mut self, outcome: TicketOutcome, ctx: &DetectContext, max_seeds: usize) -> bool {
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
            let newly = self.accept(community);
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
    /// The dedup set as of the round start.
    seen: &'a HashSet<u128>,
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
    /// Executes the round's tickets: the caller's thread runs worker 0
    /// and one scoped thread per further state runs the rest. Workers
    /// lease ticket chunks from an atomic cursor (one `fetch_add` per
    /// chunk — the entire cross-thread synchronization of the round), and
    /// their results are assembled into ticket-indexed slots for the
    /// ordered reduction. `None` slots only occur after cancellation.
    fn run(
        &self,
        states: &mut [CommunityState<'_>],
        ctx: &DetectContext,
    ) -> Vec<Option<TicketOutcome>> {
        let cursor = AtomicUsize::new(0);
        // Small leases keep workers balanced near the end of a round while
        // amortizing the cursor traffic.
        let lease = (self.len / (states.len() * 4)).clamp(1, 32);
        let work = |state: &mut CommunityState<'_>| {
            let mut out: Vec<(usize, TicketOutcome)> = Vec::new();
            'lease: loop {
                let lo = cursor.fetch_add(lease, Ordering::Relaxed);
                if lo >= self.len {
                    break;
                }
                for t in lo..(lo + lease).min(self.len) {
                    if ctx.is_cancelled() {
                        break 'lease;
                    }
                    out.push((t, self.run_ticket(state, t)));
                }
            }
            out
        };
        let (first, rest) = states.split_first_mut().expect("one state per worker");
        let buffers: Vec<Vec<(usize, TicketOutcome)>> = std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = rest
                .iter_mut()
                .map(|state| scope.spawn(move || work(state)))
                .collect();
            let mut buffers = vec![work(first)];
            buffers.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker thread panicked")),
            );
            buffers
        });

        let mut slots: Vec<Option<TicketOutcome>> = Vec::new();
        slots.resize_with(self.len, || None);
        for (t, outcome) in buffers.into_iter().flatten() {
            debug_assert!(slots[t].is_none(), "ticket executed twice");
            slots[t] = Some(outcome);
        }
        slots
    }

    /// Runs the ascent for round-local ticket `t`: a pure function of
    /// `(rng_seed, start + t)` and the round snapshot.
    ///
    /// Every ticket of the round probes the round-start `seen` set, which
    /// is never newer than the reduction's view of that ticket. Probing it
    /// never changes the *decision* — the reduction re-checks in ticket
    /// order — it only skips materializing member vectors for ascents
    /// that are already guaranteed to be rejected, so the output stays
    /// bit-identical at any thread count.
    fn run_ticket(&self, state: &mut CommunityState<'_>, t: usize) -> TicketOutcome {
        let mut rng = StdRng::seed_from_u64(ticket_seed(self.rng_seed, self.start + t as u64));
        let seed = self.pick_seed(&mut rng);
        let initial = initial_set(self.config.seed_strategy, self.graph, seed, &mut rng);
        let outcome = ascend(state, &initial, &self.config.search);
        let fp = state.fingerprint();
        let size = state.len();
        let community = (size >= self.config.min_community_size && !self.seen.contains(&fp))
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
    /// node will do.
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

    /// Resolves the interaction strength for `graph`, timing a spectral
    /// solve into `phases`. The solve's mat-vecs run on the run's
    /// [`OcaConfig::threads`] workers; `c` is the same to the bit at any
    /// count.
    fn resolve_c(&self, graph: &CsrGraph, phases: &mut PhaseNanos) -> InteractionStrength {
        match self.config.c {
            CStrategy::Fixed(c) => unsolved(c, 0.0),
            CStrategy::Spectral(ref pc) => {
                let t0 = Instant::now();
                let s = interaction_strength_threaded(graph, pc, self.config.threads);
                phases.spectral_ns = t0.elapsed().as_nanos() as u64;
                s
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
    /// returned inside [`DetectError::Cancelled`]. An armed checkpoint is
    /// written at the start of every round and at no other point, so after
    /// a cancellation (or a kill) it holds the start of the interrupted
    /// round, which a resume continues from.
    ///
    /// Randomness still derives from [`OcaConfig::rng_seed`]; detector
    /// wrappers copy the context seed into the config first. For a fixed
    /// seed the result is identical at any [`OcaConfig::threads`] count.
    pub fn run_ctx(&self, graph: &CsrGraph, ctx: &DetectContext) -> Result<OcaResult, DetectError> {
        let start = Instant::now();
        let n = graph.node_count();
        let cancelled =
            |cover: Cover, seeds: usize, c: f64, lambda_min: f64, ckpt: &CheckpointStats| {
                // `{}` prints the shortest string that parses back to the
                // same f64, so a printed `c` reruns as `--fixed-c` exactly.
                let mut stats = vec![
                    ("c", format!("{c}")),
                    ("lambda_min", format!("{lambda_min}")),
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
        let mut phases = PhaseNanos::default();
        if n == 0 {
            let strength = self.resolve_c(graph, &mut phases);
            let elapsed = start.elapsed();
            phases.attribute(elapsed, 0);
            return Ok(OcaResult {
                cover: Cover::empty(0),
                c: strength.c,
                lambda_min: strength.lambda_min,
                spectral_iterations: strength.power.iterations,
                spectral_converged: strength.power.converged,
                seeds_tried: 0,
                raw_community_count: 0,
                halt_reason: None,
                ascent_stops: AscentStopStats::default(),
                elapsed,
                phases,
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
        let strength = match &resumed {
            // Re-resolving would give the same values (spectral
            // resolution is deterministic) at the cost of a Lanczos
            // solve; the checkpoint carries them instead.
            Some(d) => unsolved(d.c, d.lambda_min),
            None => self.resolve_c(graph, &mut phases),
        };
        let (c, lambda_min) = (strength.c, strength.lambda_min);
        let rng_seed = resumed.as_ref().map_or(config.rng_seed, |d| d.rng_seed);

        // The journal's first write is the new base: it replaces the file
        // the run resumed from (or any stale one) with this run's state.
        let mut journal =
            ckpt_cfg.map(|ck| Journal::new(ck, bindings.expect("bindings computed when armed")));
        let mut reduction = match resumed {
            Some(d) => {
                ckpt_stats.resumed_from_ticket = Some(d.seeds_tried);
                Reduction::restore(config, n, d)
            }
            None => Reduction::new(config, n),
        };
        // One reusable search state per worker; buffers persist across
        // rounds so reset cost stays proportional to work done.
        let mut states: Vec<CommunityState<'_>> = (0..config.threads)
            .map(|_| CommunityState::new(graph, c))
            .collect();
        // Covered-hub pruning: each round start marks the hubs (degree ≥
        // the threshold) that are already covered, and hands that mask to
        // every worker state. The mask a ticket sees is therefore a pure
        // function of the schedule, so covers stay bit-identical across
        // thread counts.
        let hubs: Vec<NodeId> = if config.search.prune_hub_degree > 0 {
            graph
                .nodes()
                .filter(|&v| graph.neighbors(v).len() >= config.search.prune_hub_degree)
                .collect()
        } else {
            Vec::new()
        };
        let mut prune_words = vec![0u64; n.div_ceil(64)];
        phases.setup_ns = (start.elapsed().as_nanos() as u64).saturating_sub(phases.spectral_ns);

        while !reduction.halted {
            if let Some(journal) = &mut journal {
                // The round start is the one cut a resume continues from
                // bit-identically, and the only point the driver writes.
                write_checkpoint(
                    journal,
                    &reduction.checkpoint(rng_seed, c, lambda_min),
                    &mut ckpt_stats,
                );
                let attempts = ckpt_stats.rounds_checkpointed + ckpt_stats.write_failures;
                if journal.faults.check_kill(attempts) {
                    // Simulated kill right after the write, landed or
                    // torn: the crash windows resume must cover.
                    let seeds = reduction.halting.seeds_tried();
                    let cover = Cover::new(n, reduction.accepted);
                    return Err(cancelled(cover, seeds, c, lambda_min, &ckpt_stats));
                }
            }
            if !hubs.is_empty() {
                prune_words.fill(0);
                for &v in &hubs {
                    if reduction.uncovered.is_covered(v) {
                        prune_words[v.index() / 64] |= 1 << (v.index() % 64);
                    }
                }
                for state in &mut states {
                    state.set_prune_snapshot(&prune_words);
                }
            }
            let done = reduction.halting.seeds_tried();
            let round = Round {
                graph,
                config,
                snapshot: &reduction.uncovered.nodes,
                seen: &reduction.seen,
                rng_seed,
                start: done as u64,
                len: config.batch.min(config.halting.max_seeds - done),
            };
            debug_assert!(round.len > 0, "max_seeds exhausted without halting");
            let t0 = Instant::now();
            let results = round.run(&mut states, ctx);
            let t1 = Instant::now();
            phases.ascent_ns += t1.duration_since(t0).as_nanos() as u64;
            for slot in results {
                // A hole means a worker bailed on cancellation; the
                // contiguous prefix before it is still reduced so the
                // partial result is well-formed.
                let Some(outcome) = slot else { break };
                if !reduction.record(outcome, ctx, config.halting.max_seeds) || ctx.is_cancelled() {
                    break;
                }
            }
            phases.dedup_ns += t1.elapsed().as_nanos() as u64;
            if ctx.is_cancelled() {
                // Nothing is written or undone: the partial is every
                // community reduced so far, and the checkpoint (if armed)
                // still holds this round's start.
                let seeds = reduction.halting.seeds_tried();
                let cover = Cover::new(n, reduction.accepted);
                return Err(cancelled(cover, seeds, c, lambda_min, &ckpt_stats));
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
        if let Some(journal) = journal {
            journal.discard();
        }
        let elapsed = start.elapsed();
        phases.attribute(elapsed, ckpt_stats.total_write_ns);
        Ok(OcaResult {
            cover,
            c,
            lambda_min,
            spectral_iterations: strength.power.iterations,
            spectral_converged: strength.power.converged,
            seeds_tried: reduction.halting.seeds_tried(),
            raw_community_count: raw_count,
            halt_reason: reduction.halting.reason(),
            ascent_stops: reduction.stops,
            elapsed,
            phases,
            checkpoint: ckpt_stats,
        })
    }
}

/// An interaction strength that no solve produced: a fixed `c`, or one
/// restored from a checkpoint.
fn unsolved(c: f64, lambda_min: f64) -> InteractionStrength {
    InteractionStrength {
        c,
        lambda_min,
        power: PowerResult {
            eigenvalue: lambda_min,
            iterations: 0,
            converged: false,
        },
    }
}

/// Records a round-start checkpoint in the journal, updating the
/// telemetry. Failures (I/O errors, injected torn writes) are counted, not
/// fatal: the run continues, and the journal's last whole record keeps
/// covering it (a torn base never replaces the file, and a torn append is
/// a torn tail that readers ignore and the next write cuts off).
fn write_checkpoint(
    journal: &mut Journal,
    snapshot: &DriverCheckpoint<&[Community]>,
    stats: &mut CheckpointStats,
) {
    let t0 = Instant::now();
    match journal.write(snapshot) {
        Ok(bytes) => {
            let ns = t0.elapsed().as_nanos() as u64;
            stats.rounds_checkpointed += 1;
            stats.last_bytes = bytes;
            stats.total_bytes = journal.whole_bytes();
            stats.last_write_ns = ns;
            stats.total_write_ns += ns;
        }
        Err(_) => stats.write_failures += 1,
    }
}

/// Convenience: run OCA with default configuration.
pub fn run_default(graph: &CsrGraph) -> OcaResult {
    Oca::default().run(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OcaConfig;
    use crate::search::AscentStop;
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

    /// The spectral solve splits its mat-vecs over the run's workers, and
    /// `c` must not notice: on a graph of several row blocks per worker,
    /// `c`, `λ_min` and the step count are bit-equal at every count.
    #[test]
    fn spectral_c_is_bit_identical_at_any_thread_count() {
        let g = oca_gen::lfr(&oca_gen::LfrParams::small(3000, 0.3, 5)).graph;
        let run = |threads| {
            let mut config = quick_config();
            config.threads = threads;
            config.halting.max_seeds = 16;
            Oca::new(config).run(&g)
        };
        let reference = run(1);
        assert!(reference.spectral_converged);
        for threads in [2, 4, 8] {
            let r = run(threads);
            assert_eq!(r.c.to_bits(), reference.c.to_bits(), "threads = {threads}");
            assert_eq!(
                r.lambda_min.to_bits(),
                reference.lambda_min.to_bits(),
                "threads = {threads}"
            );
            assert_eq!(
                r.spectral_iterations, reference.spectral_iterations,
                "threads = {threads}"
            );
            assert_eq!(r.cover, reference.cover, "threads = {threads}");
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
    /// scaled budgets and covered-hub pruning both enabled, the cover, cutoff, halt reason *and* the stop-reason tally
    /// are bit-identical at any thread count.
    #[test]
    fn hub_search_features_preserve_thread_determinism() {
        let g = three_cliques();
        let cfg = OcaConfig {
            search: crate::search::SearchConfig {
                budget_factor: 2.0,
                prune_hub_degree: 4,
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

    /// Every nanosecond of `elapsed` lands in exactly one part: a named
    /// phase, a checkpoint write, or `unattributed_ns`.
    #[test]
    fn phase_breakdown_accounts_for_the_run() {
        let g = three_cliques();
        let path = ckpt_dir("phases").join("run.ockpt");
        for checkpoint in [None, Some(CheckpointConfig::at(&path))] {
            let armed = checkpoint.is_some();
            let r = Oca::new(OcaConfig {
                checkpoint,
                ..quick_config()
            })
            .run(&g);
            let p = r.phases;
            assert!(p.setup_ns > 0, "setup must be timed");
            assert!(p.ascent_ns > 0, "ascent work must be timed");
            assert!(p.dedup_ns > 0, "reduction work must be timed");
            assert_eq!(p.orphan_ns, 0, "orphan assignment is off");
            assert_eq!(armed, r.checkpoint.total_write_ns > 0);
            let parts = p.spectral_ns
                + p.setup_ns
                + p.ascent_ns
                + p.dedup_ns
                + p.merge_ns
                + p.orphan_ns
                + r.checkpoint.total_write_ns
                + p.unattributed_ns;
            assert_eq!(parts, r.elapsed.as_nanos() as u64, "armed = {armed}");
        }
    }

    /// A config whose halting never fires, so random outcomes can be
    /// recorded for as many rounds as a property asks.
    fn never_halting_config() -> OcaConfig {
        OcaConfig {
            halting: crate::halting::HaltingConfig {
                max_seeds: usize::MAX,
                target_coverage: 2.0,
                stagnation_limit: usize::MAX,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// A random ticket outcome over `n` nodes: often a repeat of an
    /// earlier set (a duplicate), sometimes below the minimum size, and
    /// overlapping earlier sets through the small node range.
    fn random_outcome(rng: &mut StdRng, n: usize, earlier: &mut Vec<Vec<NodeId>>) -> TicketOutcome {
        let members: Vec<NodeId> = if !earlier.is_empty() && rng.random_range(0..3) == 0 {
            earlier[rng.random_range(0..earlier.len())].clone()
        } else {
            let len = rng.random_range(1..=n.min(8));
            let set = (0..len).map(|_| NodeId(rng.random_range(0..n as u32)));
            Community::new(set.collect()).members().to_vec()
        };
        earlier.push(members.clone());
        let stop = [
            AscentStop::Converged,
            AscentStop::MoveCap,
            AscentStop::MoveBudget,
        ][rng.random_range(0..3usize)];
        TicketOutcome {
            fp: set_fingerprint(&members),
            size: members.len(),
            community: Some(Community::new(members)),
            stop,
        }
    }

    proptest::proptest! {
        /// Resume is a replay: at every round start, restoring from the
        /// reduction's checkpoint (through the payload codec) rebuilds the
        /// uncovered list in order, its positions, the dedup set and the
        /// halting counters exactly as the live reduction holds them.
        #[test]
        fn restore_replays_the_round_start_state_exactly(
            n in 1usize..48,
            batch in 1usize..9,
            rounds in 1usize..10,
            seed in 0u64..u64::MAX,
        ) {
            let config = never_halting_config();
            let ctx = DetectContext::new(0);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut earlier = Vec::new();
            let mut live = Reduction::new(&config, n);
            for _ in 0..rounds {
                let payload = live.checkpoint(7, 0.5, -2.0).encode();
                let restored =
                    Reduction::restore(&config, n, DriverCheckpoint::decode(&payload).unwrap());
                assert_eq!(restored.uncovered.nodes, live.uncovered.nodes);
                assert_eq!(restored.uncovered.pos, live.uncovered.pos);
                assert_eq!(restored.seen, live.seen);
                assert_eq!(restored.accepted, live.accepted);
                assert_eq!(restored.stops, live.stops);
                assert_eq!(restored.halted, live.halted);
                let (a, b) = (&restored.halting, &live.halting);
                assert_eq!(a.seeds_tried(), b.seeds_tried());
                assert_eq!(a.covered(), b.covered());
                assert_eq!(a.stagnant(), b.stagnant());
                assert_eq!(a.rejected_streak(), b.rejected_streak());
                for _ in 0..batch {
                    let outcome = random_outcome(&mut rng, n, &mut earlier);
                    assert!(live.record(outcome, &ctx, usize::MAX));
                }
            }
        }
    }

    proptest::proptest! {
        /// The journal holds the round-start state: at every round start
        /// of a random run, reading the journal back gives exactly the
        /// checkpoint the live reduction encodes — or, after an injected
        /// torn write, the one its last whole record holds, which the
        /// next write's truncation then builds on.
        #[test]
        fn journal_restores_the_live_round_start_state(
            n in 1usize..48,
            batch in 1usize..9,
            rounds in 1usize..10,
            torn_write_every in 0u64..4,
            seed in 0u64..u64::MAX,
        ) {
            use crate::checkpoint::{CheckpointFaultSpec, CheckpointFaults};
            let config = never_halting_config();
            let path = ckpt_dir("journal").join(format!("{seed:x}.ockpt"));
            let faults = CheckpointFaults::new(CheckpointFaultSpec {
                torn_write_every,
                kill_after_writes: 0,
            });
            let ck = CheckpointConfig {
                faults,
                ..CheckpointConfig::at(&path)
            };
            let mut journal = Journal::new(&ck, (1, 2));
            let ctx = DetectContext::new(0);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut earlier = Vec::new();
            let mut live = Reduction::new(&config, n);
            let mut last_whole = None;
            for _ in 0..rounds {
                let state = live.checkpoint(7, 0.5, -2.0);
                if journal.write(&state).is_ok() {
                    last_whole = Some(DriverCheckpoint::decode(&state.encode()).unwrap());
                }
                match &last_whole {
                    Some(expected) => {
                        assert_eq!(&DriverCheckpoint::load(&path, 1, 2).unwrap(), expected)
                    }
                    None => assert!(!path.exists(), "a torn base never lands"),
                }
                for _ in 0..batch {
                    let outcome = random_outcome(&mut rng, n, &mut earlier);
                    assert!(live.record(outcome, &ctx, usize::MAX));
                }
            }
            journal.discard();
            assert!(!path.exists());
        }
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

    #[test]
    fn spectral_solve_is_timed_and_reported() {
        let g = three_cliques();
        let spectral = Oca::new(quick_config()).run(&g);
        assert!(spectral.phases.spectral_ns > 0);
        assert!(spectral.spectral_iterations > 0);
        assert!(spectral.spectral_converged);

        let fixed = Oca::new(OcaConfig {
            c: CStrategy::Fixed(spectral.c),
            ..quick_config()
        })
        .run(&g);
        assert_eq!(fixed.phases.spectral_ns, 0);
        assert_eq!(fixed.spectral_iterations, 0);
        assert!(!fixed.spectral_converged);
        assert_eq!(fixed.cover, spectral.cover, "same c, same cover");
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
    /// writes. A two-ticket round cannot cover the 15 nodes in its first
    /// round (two 5-cliques at most), so a kill after the second write
    /// is always reachable.
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
    /// round-start write, then a resume — under a *different* nominal seed
    /// and any thread count — reproduces the uninterrupted run bit for
    /// bit (cover, cutoff and halt reason).
    #[test]
    fn kill_between_rounds_then_resume_is_bit_identical() {
        let g = three_cliques();
        let baseline = Oca::new(tiny_round_config()).run(&g);
        // The kill fires right after the second write, which holds the
        // start of round 2.
        let kill_after = 2;
        for threads in [1usize, 2, 4] {
            let path = ckpt_dir("kill").join(format!("t{threads}.ockpt"));
            let faults = CheckpointFaults::new(CheckpointFaultSpec {
                torn_write_every: 0,
                kill_after_writes: kill_after,
            });
            let err = Oca::new(OcaConfig {
                threads,
                checkpoint: Some(CheckpointConfig {
                    path: path.clone(),
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
            assert_eq!(
                r.raw_community_count, baseline.raw_community_count,
                "threads = {threads}"
            );
            let resumed_from = r.checkpoint.resumed_from_ticket.expect("run resumed");
            let batch = tiny_round_config().batch as u64;
            assert_eq!(
                resumed_from,
                (kill_after - 1) * batch,
                "threads = {threads}"
            );
            assert!(!path.exists(), "the spent checkpoint is removed");
        }
    }

    /// Cancellation mid-round writes and undoes nothing: the partial holds
    /// every ascent reduced so far, the checkpoint still holds the start of
    /// the interrupted round, and resuming from it reproduces the
    /// uninterrupted result.
    #[test]
    fn cancel_mid_round_then_resume_is_bit_identical() {
        let g = three_cliques();
        let cfg = OcaConfig {
            batch: 4,
            ..quick_config()
        };
        let baseline = Oca::new(cfg.clone()).run(&g);
        for threads in [1usize, 2] {
            let path = ckpt_dir("cancel").join(format!("t{threads}.ockpt"));
            let token = CancelToken::new();
            let trigger = token.clone();
            // Cancel on the fifth ascent: one ticket into the second
            // round, which would have been the run's last.
            let ctx = DetectContext::new(0x0CA)
                .with_cancel(token)
                .with_progress(move |p| {
                    if p.done == 5 {
                        trigger.cancel();
                    }
                });
            let err = Oca::new(OcaConfig {
                threads,
                checkpoint: Some(CheckpointConfig::at(&path)),
                ..cfg.clone()
            })
            .run_ctx(&g, &ctx)
            .unwrap_err();
            let DetectError::Cancelled { partial } = err else {
                panic!("expected Cancelled");
            };
            assert_eq!(partial.iterations, 5, "threads = {threads}");
            assert!(path.exists(), "the round-start write survives the cancel");

            let r = Oca::new(OcaConfig {
                checkpoint: Some(CheckpointConfig::at(&path)),
                ..cfg.clone()
            })
            .run(&g);
            assert_eq!(r.cover, baseline.cover, "threads = {threads}");
            assert_eq!(r.seeds_tried, baseline.seeds_tried, "threads = {threads}");
            assert_eq!(
                r.raw_community_count, baseline.raw_community_count,
                "threads = {threads}"
            );
            assert_eq!(
                r.checkpoint.resumed_from_ticket,
                Some(4),
                "threads = {threads}"
            );
        }
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

    use oca_graph::CsrGraph;
}
