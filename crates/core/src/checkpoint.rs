//! Deterministic checkpoint/resume for the multi-seed driver.
//!
//! The ticket-ordered schedule makes the driver's entire state a pure
//! function of (config, graph, cutoff ticket): per-ticket RNGs are derived
//! statelessly from the master seed, and the ordered reduction applies
//! outcomes in ticket order. A *round boundary* — the point where one
//! batch of tickets has been fully reduced and the next round's coverage
//! snapshot has not yet been taken — is therefore a complete cut: the
//! accepted communities (in acceptance order) and the halting counters
//! together determine every subsequent ticket bit-for-bit, at any thread
//! count. Everything else the driver holds at a boundary is a function of
//! the accepted list: the uncovered list (whose order seed picks index)
//! only ever changes by swap-removing each accepted community's still
//! uncovered members in member order, so resume rebuilds it — and the
//! dedup fingerprints and the covered count with it — by replaying the
//! accepted communities through the same routine the run used.
//!
//! This module keeps that cut in an `.ockpt` file — an append-only
//! journal — and reconstructs it on resume. Two binding checksums refuse
//! foreign files: one over the schedule-affecting configuration
//! (everything except `threads`, which never affects the
//! output, and `rng_seed`, which is *carried in the payload* and adopted
//! on resume so a driver restarted under a different nominal seed — e.g.
//! serve's per-round recompute seeds — still continues the original
//! schedule), and one over the graph's shape (node count, edge count,
//! degree sequence).
//!
//! ## Journal layout (all integers little-endian)
//!
//! ```text
//! base      one sealed oca_graph::container frame, written atomically:
//!             config checksum  u64
//!             graph checksum   u64
//!             payload          DriverCheckpoint::encode (field order of the struct)
//! record*   appended and fdatasynced, one per later round start:
//!             body length      u64
//!             length check     u64  the bitwise complement of the length
//!             body             seeds_tried, stagnant, rejected_streak and the
//!                              three stop tallies (u64 each), then the
//!                              communities accepted since the previous write
//!                              (count u64; per community len u32, members u32)
//!             checksum         u64  FNV-1a of the length words and the body
//! ```
//!
//! A run's first write is the base: empty on a fresh start, the whole
//! replayed accepted list on resume. That is the journal's one compaction
//! point. Every later round start appends one record, so a round costs
//! O(communities accepted since the last write), not O(all accepted), and
//! the journal stays the size of the accepted state plus a few dozen
//! bytes per round. Reading applies the records to the base in order and
//! yields the state at the last whole record: exactly the state a
//! version-5 file, which rewrote everything every round, would have held.
//!
//! A final record that is cut short or fails its checksum is a *torn
//! tail*: the append the process died in. It is ignored, so the resume
//! runs from the record before it. Damage anywhere else — to the base, or
//! to a record that more bytes follow — is a typed [`ContainerError`].
//!
//! Mid-round state is deliberately *not* checkpointable: every ticket of
//! a round ascends against the round-start coverage snapshot, so a cut
//! inside a round would have to carry the ascents already run. The
//! runner writes at the start of every round and nowhere else, so an
//! interrupted run — killed or cancelled — resumes from the start of the
//! round it was in, redoing at most that one round.

use crate::config::OcaConfig;
use crate::halting::AscentStopStats;
use oca_graph::{
    atomic_write_path, fnv1a, Community, ContainerError, CsrGraph, Frame, NodeId, Reader,
};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How an existing checkpoint file at the configured path is treated when
/// a run starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumePolicy {
    /// Ignore any existing file and start from ticket zero (the file is
    /// replaced by the run's first write, a new journal base).
    Fresh,
    /// Resume from the file; any damage or binding mismatch is a typed
    /// error ([`oca_graph::DetectError::Checkpoint`]). A *missing* file is
    /// a fresh start — the first run of a chain needs no special casing.
    Strict,
    /// Resume from the file if it is valid; delete it and start fresh if
    /// it is damaged or mismatched. For unattended restart loops (serve's
    /// background recompute) where a stale file must never wedge the
    /// service.
    Salvage,
}

/// Checkpointing configuration carried inside [`OcaConfig`].
///
/// Excluded from the config binding checksum (the checksum normalizes
/// `checkpoint` to `None`), so a resumed run may checkpoint to a different
/// path than the run that wrote the file. The driver writes at the start
/// of every round.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// The `.ockpt` file to write (and resume from).
    pub path: PathBuf,
    /// What to do with an existing file at `path` on start.
    pub resume: ResumePolicy,
    /// Fault injection for crash testing; unarmed in production.
    pub faults: CheckpointFaults,
}

impl CheckpointConfig {
    /// Checkpoint to `path`, resuming strictly — the default shape for
    /// CLI `detect --checkpoint`.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            resume: ResumePolicy::Strict,
            faults: CheckpointFaults::none(),
        }
    }
}

/// Which checkpoint fail points to arm, mirroring the serving layer's
/// `FaultSpec`: every field is an every-Nth trigger, `0` = never.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointFaultSpec {
    /// Every Nth checkpoint write attempt is torn: half the bytes land,
    /// then the write fails. A torn base leaves the previous file in place
    /// (the atomic path deletes its temp file); a torn append leaves a
    /// torn tail, which the journal's next write cuts off.
    pub torn_write_every: u64,
    /// Right after the Nth checkpoint write attempt, torn or not, the
    /// driver aborts as if killed — exercising exactly the crash windows
    /// the resume path must cover.
    pub kill_after_writes: u64,
}

/// Shared fault counters; one allocation per armed plan.
#[derive(Debug)]
pub struct ArmedCheckpointFaults {
    spec: CheckpointFaultSpec,
    write_attempts: AtomicU64,
    torn_writes: AtomicU64,
    kills: AtomicU64,
}

/// A snapshot of how often each checkpoint fail point fired, so chaos
/// tests can assert they were not vacuous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointFaultCounts {
    /// Checkpoint write attempts observed.
    pub write_attempts: u64,
    /// Writes torn by injection.
    pub torn_writes: u64,
    /// Simulated kills taken right after a checkpoint write attempt.
    pub kills: u64,
}

/// Fault-injection handle carried in [`CheckpointConfig`]. Unarmed (the
/// production state) it is a single `Option` branch per site.
#[derive(Debug, Clone, Default)]
pub struct CheckpointFaults {
    armed: Option<Arc<ArmedCheckpointFaults>>,
}

impl PartialEq for CheckpointFaults {
    fn eq(&self, other: &Self) -> bool {
        match (&self.armed, &other.armed) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl CheckpointFaults {
    /// The unarmed plan: no fail point ever fires.
    pub fn none() -> Self {
        CheckpointFaults { armed: None }
    }

    /// Arms the fail points in `spec`.
    pub fn new(spec: CheckpointFaultSpec) -> Self {
        CheckpointFaults {
            armed: Some(Arc::new(ArmedCheckpointFaults {
                spec,
                write_attempts: AtomicU64::new(0),
                torn_writes: AtomicU64::new(0),
                kills: AtomicU64::new(0),
            })),
        }
    }

    /// True when any fail point is armed.
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }

    /// How often each fail point fired so far.
    pub fn counts(&self) -> CheckpointFaultCounts {
        match &self.armed {
            None => CheckpointFaultCounts::default(),
            Some(a) => CheckpointFaultCounts {
                write_attempts: a.write_attempts.load(Ordering::Relaxed),
                torn_writes: a.torn_writes.load(Ordering::Relaxed),
                kills: a.kills.load(Ordering::Relaxed),
            },
        }
    }

    /// Counts a write attempt; true if this one should be torn.
    pub(crate) fn check_torn_write(&self) -> bool {
        let Some(a) = &self.armed else { return false };
        let n = a.write_attempts.fetch_add(1, Ordering::Relaxed) + 1;
        let every = a.spec.torn_write_every;
        if every > 0 && n % every == 0 {
            a.torn_writes.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// True if the driver should simulate a kill now, given that it has
    /// attempted `write_attempts` checkpoint writes. Fires at most once.
    pub(crate) fn check_kill(&self, write_attempts: u64) -> bool {
        let Some(a) = &self.armed else { return false };
        let after = a.spec.kill_after_writes;
        if after > 0
            && write_attempts >= after
            && a.kills
                .compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            return true;
        }
        false
    }
}

/// Per-run checkpoint telemetry, surfaced on `OcaResult` and as
/// `Detection` stats (and from there into `BENCH_hotpath.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointStats {
    /// Round starts at which a checkpoint was successfully written.
    pub rounds_checkpointed: u64,
    /// Size in bytes of the last successful write: one appended record,
    /// or the journal's base on a run's first write.
    pub last_bytes: u64,
    /// Length of the journal after the last successful write: its base
    /// plus every record appended since.
    pub total_bytes: u64,
    /// Duration of the last successful write, in nanoseconds.
    pub last_write_ns: u64,
    /// Total time spent writing checkpoints, in nanoseconds.
    pub total_write_ns: u64,
    /// Write attempts that failed (I/O errors, injected tears); the run
    /// continues past them, and the journal's last whole record keeps
    /// covering it.
    pub write_failures: u64,
    /// The ticket this run resumed from, if it resumed at all.
    pub resumed_from_ticket: Option<u64>,
}

impl CheckpointStats {
    /// Renders the telemetry as `Detection`-style stat pairs (the
    /// `ckpt_*` namespace). `ckpt_resumed_from` appears only on runs that
    /// actually resumed.
    pub fn stat_entries(&self) -> Vec<(&'static str, String)> {
        let mut out = vec![
            ("ckpt_rounds", self.rounds_checkpointed.to_string()),
            ("ckpt_last_bytes", self.last_bytes.to_string()),
            ("ckpt_total_bytes", self.total_bytes.to_string()),
            ("ckpt_last_write_ns", self.last_write_ns.to_string()),
            ("ckpt_total_write_ns", self.total_write_ns.to_string()),
            ("ckpt_write_failures", self.write_failures.to_string()),
        ];
        if let Some(ticket) = self.resumed_from_ticket {
            out.push(("ckpt_resumed_from", ticket.to_string()));
        }
        out
    }
}

/// The driver's round-boundary state, as serialized: its counters and the
/// communities it accepted. The rest of its state is rebuilt on resume by
/// replaying `accepted` (see the module docs).
///
/// Field order is the base payload layout (all integers little-endian). `A`
/// holds the accepted list: owned when decoded, borrowed (`&[Community]`)
/// when the driver encodes its live state without copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverCheckpoint<A = Vec<Community>> {
    /// The master RNG seed of the original run; adopted on resume so the
    /// remaining tickets continue the original schedule.
    pub rng_seed: u64,
    /// The resolved interaction strength (spectral resolution is itself
    /// deterministic, but re-resolving costs a Lanczos solve).
    pub c: f64,
    /// The λ_min estimate behind `c` (telemetry; 0 when `c` was fixed).
    pub lambda_min: f64,
    /// Tickets fully reduced — the next round starts here.
    pub seeds_tried: u64,
    /// Stagnation-window counter at the boundary.
    pub stagnant: u64,
    /// Duplicate-streak counter at the boundary.
    pub rejected_streak: u64,
    /// Ascent stop tallies at the boundary.
    pub stops: AscentStopStats,
    /// Node count of the graph the driver ran on; redundant with the graph
    /// binding, kept for structural validation. The driver checks it
    /// against the graph before anything is sized by it.
    pub node_count: u64,
    /// Accepted communities, in acceptance (ticket) order.
    pub accepted: A,
}

/// The `.ockpt` journal's base frame. Older versions are refused as a
/// version mismatch: version 1 (the pre-container envelope), version 2 (a
/// fourth stop tally), version 3 (a covered counter, the dedup
/// fingerprints and the coverage bitmap), version 4 (the uncovered list,
/// rebuilt by replay since version 5) and version 5 (one frame rewritten
/// whole at every round start, with no records after it).
const FRAME: Frame = Frame {
    magic: *b"OCACKPT\0",
    version: 6,
};

/// A journal record's length word and its complement.
const RECORD_HEADER: usize = 16;
/// A journal record's bytes besides its body: the header and the checksum.
const RECORD_OVERHEAD: usize = RECORD_HEADER + 8;

/// The config binding checksum: a hash of every schedule-affecting field.
///
/// `checkpoint` (where/how to persist), `threads` (never affects output),
/// and `rng_seed` (carried in the payload and adopted on resume) are
/// normalized out. Everything else — halting, search, batch,
/// seed strategy, `c` strategy, postprocessing — changes which tickets
/// produce what, so a mismatch must refuse the resume.
pub fn config_checksum(config: &OcaConfig) -> u64 {
    let mut normalized = config.clone();
    normalized.checkpoint = None;
    normalized.threads = 1;
    normalized.rng_seed = 0;
    fnv1a(format!("{normalized:?}").as_bytes())
}

/// The graph binding checksum: node count, edge count, and the degree
/// sequence. O(n), computed once per run; deliberately not the full
/// `.ocg` payload checksum, which would re-hash every edge of a 100M-edge
/// graph just to open a checkpoint.
pub fn graph_checksum(graph: &CsrGraph) -> u64 {
    let mut bytes = Vec::with_capacity(16 + 4 * graph.node_count());
    bytes.extend_from_slice(&(graph.node_count() as u64).to_le_bytes());
    bytes.extend_from_slice(&(graph.edge_count() as u64).to_le_bytes());
    for v in graph.nodes() {
        bytes.extend_from_slice(&(graph.neighbors(v).len() as u32).to_le_bytes());
    }
    fnv1a(&bytes)
}

impl<A: AsRef<[Community]>> DriverCheckpoint<A> {
    /// Nodes covered at the boundary: the distinct members of the
    /// accepted communities. Counted by sorting the members, so the cost
    /// is bounded by the payload, never by `node_count`.
    pub fn covered(&self) -> u64 {
        let mut members: Vec<NodeId> = self
            .accepted
            .as_ref()
            .iter()
            .flat_map(|c| c.members().iter().copied())
            .collect();
        members.sort_unstable();
        members.dedup();
        members.len() as u64
    }

    /// Serializes the state into the `.ockpt` payload layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let accepted = self.accepted.as_ref();
        out.reserve(10 * 8 + communities_len(accepted));
        out.extend_from_slice(&self.rng_seed.to_le_bytes());
        out.extend_from_slice(&self.c.to_bits().to_le_bytes());
        out.extend_from_slice(&self.lambda_min.to_bits().to_le_bytes());
        self.encode_counters(out);
        out.extend_from_slice(&self.node_count.to_le_bytes());
        encode_communities(accepted, out);
    }

    /// The round counters, in payload order: what a journal record
    /// carries besides the newly accepted communities.
    fn encode_counters(&self, out: &mut Vec<u8>) {
        for word in [
            self.seeds_tried,
            self.stagnant,
            self.rejected_streak,
            self.stops.converged as u64,
            self.stops.move_cap as u64,
            self.stops.move_budget as u64,
        ] {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    /// The journal record that brings a journal holding the first
    /// `recorded` accepted communities up to this state.
    fn encode_record(&self, recorded: usize) -> Vec<u8> {
        let new = &self.accepted.as_ref()[recorded..];
        let mut out = Vec::with_capacity(RECORD_OVERHEAD + 6 * 8 + communities_len(new));
        out.extend_from_slice(&[0; RECORD_HEADER]);
        self.encode_counters(&mut out);
        encode_communities(new, &mut out);
        let len = (out.len() - RECORD_HEADER) as u64;
        out[..8].copy_from_slice(&len.to_le_bytes());
        out[8..RECORD_HEADER].copy_from_slice(&(!len).to_le_bytes());
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Atomically writes the state to `path` as the base of a new journal
    /// under the two binding checksums, replacing any file there, and
    /// returns the bytes written. Fault injection (torn writes) is applied
    /// when armed in `faults`.
    pub fn save(
        &self,
        path: &Path,
        config_checksum: u64,
        graph_checksum: u64,
        faults: &CheckpointFaults,
    ) -> std::io::Result<u64> {
        let body = |out: &mut Vec<u8>| {
            out.extend_from_slice(&config_checksum.to_le_bytes());
            out.extend_from_slice(&graph_checksum.to_le_bytes());
            self.encode_into(out);
        };
        if faults.check_torn_write() {
            // Write half the file, then fail: the atomic path must delete
            // the temp file and leave any previous checkpoint untouched.
            let bytes = FRAME.seal_with(body);
            let half = &bytes[..bytes.len() / 2];
            let result = atomic_write_path(path, |w| {
                std::io::Write::write_all(w, half)?;
                Err(std::io::Error::other("injected torn checkpoint write"))
            });
            return Err(result.expect_err("torn write cannot succeed"));
        }
        FRAME.write_path(path, body)
    }
}

impl DriverCheckpoint {
    /// Decodes and structurally validates a payload. The frame has already
    /// checksummed the bytes; failures here mean the payload is internally
    /// inconsistent, and are [`ContainerError::Malformed`] — resume refuses
    /// rather than loading garbage.
    pub fn decode(payload: &[u8]) -> Result<DriverCheckpoint, ContainerError> {
        let mut r = Reader::new(payload);
        let ckpt = DriverCheckpoint::decode_from(&mut r)?;
        r.finish()?;
        Ok(ckpt)
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<DriverCheckpoint, ContainerError> {
        let rng_seed = r.u64()?;
        let c = r.f64()?;
        let lambda_min = r.f64()?;
        let mut ckpt = DriverCheckpoint {
            rng_seed,
            c,
            lambda_min,
            seeds_tried: 0,
            stagnant: 0,
            rejected_streak: 0,
            stops: AscentStopStats::default(),
            node_count: 0,
            accepted: Vec::new(),
        };
        ckpt.read_counters(r)?;
        ckpt.node_count = r.u64()?;
        ckpt.read_communities(r)?;
        ckpt.validate()?;
        Ok(ckpt)
    }

    /// Reads the round counters (the [`encode_counters`] layout) over
    /// this state's.
    ///
    /// [`encode_counters`]: DriverCheckpoint::encode_counters
    fn read_counters(&mut self, r: &mut Reader<'_>) -> Result<(), ContainerError> {
        self.seeds_tried = r.u64()?;
        self.stagnant = r.u64()?;
        self.rejected_streak = r.u64()?;
        self.stops = AscentStopStats {
            converged: r.u64()? as usize,
            move_cap: r.u64()? as usize,
            move_budget: r.u64()? as usize,
        };
        Ok(())
    }

    /// Reads a community list onto the end of the accepted list, checking
    /// every member against the node count.
    fn read_communities(&mut self, r: &mut Reader<'_>) -> Result<(), ContainerError> {
        // Every count is checked against the bytes left before anything
        // is allocated: a forged count must not abort the process. Each
        // community costs at least its length word.
        let count = r.u64()?;
        self.accepted.reserve(r.fits(count, 4)?);
        for _ in 0..count {
            let len = r.u32()?;
            let mut members = Vec::with_capacity(r.fits(len.into(), 4)?);
            for _ in 0..len {
                let v = r.u32()?;
                if u64::from(v) >= self.node_count {
                    return Err(ContainerError::Malformed(format!(
                        "community member {v} out of bounds for {} nodes",
                        self.node_count
                    )));
                }
                members.push(NodeId::new(v));
            }
            self.accepted.push(Community::new(members));
        }
        Ok(())
    }

    /// Applies the body of one journal record: the round counters and the
    /// communities accepted since the previous write.
    fn apply_record(&mut self, body: &[u8]) -> Result<(), ContainerError> {
        let mut r = Reader::new(body);
        self.read_counters(&mut r)?;
        self.read_communities(&mut r)?;
        r.finish()?;
        self.validate()
    }

    /// Checks what the driver relies on: a finite `c`, no more accepted
    /// communities than tickets, and a node count that `u32` ids can
    /// name. (Member bounds were checked while decoding; replaying the
    /// members cannot fail on in-bounds input, since a repeated member is
    /// simply already covered.)
    fn validate(&self) -> Result<(), ContainerError> {
        if !self.c.is_finite() {
            return Err(ContainerError::Malformed(format!(
                "non-finite interaction strength {}",
                self.c
            )));
        }
        if self.seeds_tried < self.accepted.len() as u64 {
            return Err(ContainerError::Malformed(format!(
                "{} accepted communities from only {} tickets",
                self.accepted.len(),
                self.seeds_tried
            )));
        }
        if self.node_count > u64::from(u32::MAX) {
            return Err(ContainerError::Malformed(format!(
                "{} nodes exceed the u32 id space",
                self.node_count
            )));
        }
        Ok(())
    }

    /// Reads the journal at `path` to its last whole record, refusing
    /// files whose binding checksums disagree with the current run.
    pub fn load(
        path: &Path,
        config_checksum: u64,
        graph_checksum: u64,
    ) -> Result<DriverCheckpoint, ContainerError> {
        let journal = replay(&std::fs::read(path)?)?;
        for (what, recorded, current) in [
            ("config checksum", journal.bindings.0, config_checksum),
            ("graph checksum", journal.bindings.1, graph_checksum),
        ] {
            if recorded != current {
                return Err(ContainerError::Mismatch {
                    what,
                    recorded,
                    current,
                });
            }
        }
        Ok(journal.state)
    }
}

/// Bytes [`encode_communities`] writes for `communities`.
fn communities_len(communities: &[Community]) -> usize {
    8 + communities.iter().map(|c| 4 + 4 * c.len()).sum::<usize>()
}

/// A community list: its count, then per community its length and
/// members.
fn encode_communities(communities: &[Community], out: &mut Vec<u8>) {
    out.extend_from_slice(&(communities.len() as u64).to_le_bytes());
    for community in communities {
        out.extend_from_slice(&(community.len() as u32).to_le_bytes());
        for &v in community.members() {
            out.extend_from_slice(&(v.index() as u32).to_le_bytes());
        }
    }
}

/// A journal read back to its last whole record.
struct Replayed {
    /// The config and graph binding checksums in the base.
    bindings: (u64, u64),
    /// The state at the last whole record.
    state: DriverCheckpoint,
    /// Journal bytes up to the end of the last whole record.
    whole_bytes: usize,
}

/// Reads the journal in `bytes`: the base, then every whole record in
/// order, stopping at the end or at a torn tail.
fn replay(bytes: &[u8]) -> Result<Replayed, ContainerError> {
    let (body, mut at) = FRAME.unseal_prefix(bytes)?;
    let mut r = Reader::new(body);
    let config_checksum = r.u64()?;
    let graph_checksum = r.u64()?;
    let mut state = DriverCheckpoint::decode_from(&mut r)?;
    r.finish()?;
    while let Some(record) = whole_record(&bytes[at..])? {
        state.apply_record(record)?;
        at += RECORD_OVERHEAD + record.len();
    }
    Ok(Replayed {
        bindings: (config_checksum, graph_checksum),
        state,
        whole_bytes: at,
    })
}

/// The body of the record `rest` starts with, or `None` at the end of the
/// journal or at a torn tail: a final record cut short or failing its
/// checksum. Damage to a record that more bytes follow is a
/// [`ContainerError::ChecksumMismatch`].
fn whole_record(rest: &[u8]) -> Result<Option<&[u8]>, ContainerError> {
    if rest.len() < RECORD_HEADER {
        // The end, or a final record cut inside its length words.
        return Ok(None);
    }
    let word = |at: usize| u64::from_le_bytes(rest[at..at + 8].try_into().expect("8-byte range"));
    let (len, check) = (word(0), word(8));
    // Where a record with a body of `len` bytes would end.
    let end = |len: u64| len.saturating_add(RECORD_OVERHEAD as u64);
    let file_end = rest.len() as u64;
    if check != !len {
        // A damaged length word. Read by either word, a final record
        // reaches the end of the file; if either word puts more bytes
        // after it, this is not a torn tail.
        return if end(len) >= file_end && end(!check) >= file_end {
            Ok(None)
        } else {
            Err(ContainerError::ChecksumMismatch)
        };
    }
    if end(len) > file_end {
        // The final record, cut short.
        return Ok(None);
    }
    let end = end(len) as usize;
    let (sealed, trailer) = rest[..end].split_at(end - 8);
    if fnv1a(sealed) != u64::from_le_bytes(trailer.try_into().expect("8-byte trailer")) {
        return if end == rest.len() {
            Ok(None)
        } else {
            Err(ContainerError::ChecksumMismatch)
        };
    }
    Ok(Some(&sealed[RECORD_HEADER..]))
}

/// The writing side of a run's `.ockpt` journal. The driver hands it the
/// round-start state at every round start, its one write site.
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    bindings: (u64, u64),
    /// The fail points, which the driver's kill check shares.
    pub(crate) faults: CheckpointFaults,
    /// The file, open for appending, once this run's base is on disk.
    /// `None` before that, and after a torn append could not be cut off:
    /// the next write then starts over with a new base.
    file: Option<File>,
    /// Journal bytes up to the end of its last whole record.
    whole_bytes: u64,
    /// Accepted communities the journal holds.
    recorded: usize,
    /// The last append failed and may have left a torn tail.
    torn: bool,
}

impl Journal {
    /// A journal at `ck.path` bound to `bindings` (config and graph
    /// checksums). Nothing is written until the first [`Journal::write`].
    pub(crate) fn new(ck: &CheckpointConfig, bindings: (u64, u64)) -> Self {
        Journal {
            path: ck.path.clone(),
            bindings,
            faults: ck.faults.clone(),
            file: None,
            whole_bytes: 0,
            recorded: 0,
            torn: false,
        }
    }

    /// Journal bytes up to the end of its last whole record.
    pub(crate) fn whole_bytes(&self) -> u64 {
        self.whole_bytes
    }

    /// Records the round-start `state` and returns the bytes written. The
    /// run's first write is a new base holding all of it; each later one
    /// appends and syncs a record of the counters and the communities
    /// accepted since the previous write.
    pub(crate) fn write<A: AsRef<[Community]>>(
        &mut self,
        state: &DriverCheckpoint<A>,
    ) -> std::io::Result<u64> {
        if std::mem::take(&mut self.torn) {
            // Cut the failed append's torn tail off before appending after
            // it; if even that fails, start over from a new base.
            if let Some(file) = &self.file {
                if file.set_len(self.whole_bytes).is_err() {
                    self.file = None;
                }
            }
        }
        let Some(file) = &mut self.file else {
            let (config_checksum, graph_checksum) = self.bindings;
            let bytes = state.save(&self.path, config_checksum, graph_checksum, &self.faults)?;
            self.file = Some(OpenOptions::new().append(true).open(&self.path)?);
            self.whole_bytes = bytes;
            self.recorded = state.accepted.as_ref().len();
            return Ok(bytes);
        };
        let record = state.encode_record(self.recorded);
        let appended = if self.faults.check_torn_write() {
            file.write_all(&record[..record.len() / 2])
                .and_then(|()| Err(std::io::Error::other("injected torn checkpoint append")))
        } else {
            file.write_all(&record).and_then(|()| file.sync_data())
        };
        if let Err(e) = appended {
            self.torn = true;
            return Err(e);
        }
        self.whole_bytes += record.len() as u64;
        self.recorded = state.accepted.as_ref().len();
        Ok(record.len() as u64)
    }

    /// Removes the journal of a completed run: it is spent, and a later
    /// run over the same path (serve's next recompute round, a
    /// re-invocation of the CLI) must not resume into a finished state.
    pub(crate) fn discard(self) {
        drop(self.file);
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A human/ops view of a checkpoint journal, read without binding to any
/// particular run (the chaos bench uses it to watch a child's progress;
/// operators can use it to see how far a dead run got).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Tickets fully reduced at the last whole record's boundary.
    pub seeds_tried: u64,
    /// Covered nodes at the boundary: the distinct members of the
    /// accepted communities.
    pub covered: u64,
    /// Node count of the graph the run was on.
    pub node_count: u64,
    /// Accepted communities so far.
    pub communities: u64,
    /// The config binding checksum recorded in the file.
    pub config_checksum: u64,
    /// The graph binding checksum recorded in the file.
    pub graph_checksum: u64,
    /// Journal bytes up to the end of the last whole record: the base
    /// plus the records after it. Any bytes past it are a torn tail.
    pub journal_bytes: u64,
}

/// Reads and summarizes the journal at `path` as of its last whole record
/// (full verification, no binding check). A torn tail — say, from an
/// append still in progress — is not an error.
pub fn checkpoint_summary(path: &Path) -> Result<CheckpointSummary, ContainerError> {
    let journal = replay(&std::fs::read(path)?)?;
    let state = &journal.state;
    Ok(CheckpointSummary {
        seeds_tried: state.seeds_tried,
        covered: state.covered(),
        node_count: state.node_count,
        communities: state.accepted.len() as u64,
        config_checksum: journal.bindings.0,
        graph_checksum: journal.bindings.1,
        journal_bytes: journal.whole_bytes as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::from_edges;

    fn sample(n: u64) -> DriverCheckpoint {
        DriverCheckpoint {
            rng_seed: 0xABCD,
            c: 0.42,
            lambda_min: -2.38,
            seeds_tried: 128,
            stagnant: 7,
            rejected_streak: 3,
            stops: AscentStopStats {
                converged: 100,
                move_cap: 10,
                move_budget: 15,
            },
            node_count: n,
            accepted: vec![
                Community::from_raw([0, 2]),
                Community::from_raw([2, 0]), // the same set may be listed twice
            ],
        }
    }

    #[test]
    fn payload_round_trips_bit_identically() {
        let ckpt = sample(70);
        let decoded = DriverCheckpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn save_load_round_trips_through_the_container() {
        let dir = std::env::temp_dir().join(format!("oca_drvckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ockpt");
        let ckpt = sample(70);
        let bytes = ckpt
            .save(&path, 111, 222, &CheckpointFaults::none())
            .unwrap();
        assert!(bytes > 0);
        assert_eq!(DriverCheckpoint::load(&path, 111, 222).unwrap(), ckpt);

        // Binding mismatches are typed and name the side.
        let err = DriverCheckpoint::load(&path, 999, 222).unwrap_err();
        assert!(
            matches!(
                err,
                ContainerError::Mismatch {
                    what: "config checksum",
                    ..
                }
            ),
            "{err:?}"
        );
        let err = DriverCheckpoint::load(&path, 111, 999).unwrap_err();
        assert!(
            matches!(
                err,
                ContainerError::Mismatch {
                    what: "graph checksum",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(!err.is_corruption());

        let summary = checkpoint_summary(&path).unwrap();
        assert_eq!(summary.seeds_tried, 128);
        assert_eq!(summary.covered, 2);
        assert_eq!(summary.communities, 2);
        assert_eq!(summary.node_count, 70);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Saves `state` as a checksum-valid `.ockpt` and loads it back: the
    /// frame passes, so any refusal comes from the payload decoder.
    fn load_sealed(
        state: &DriverCheckpoint,
        tag: &str,
    ) -> Result<DriverCheckpoint, ContainerError> {
        let dir = std::env::temp_dir().join(format!("oca_sealed_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ockpt");
        state.save(&path, 1, 2, &CheckpointFaults::none()).unwrap();
        let loaded = DriverCheckpoint::load(&path, 1, 2);
        std::fs::remove_dir_all(&dir).ok();
        loaded
    }

    #[test]
    fn structural_inconsistencies_are_malformed() {
        assert!(load_sealed(&sample(70), "pristine").is_ok());
        // Claim 2 communities but provide 1: truncated payload.
        let mut bad = sample(70);
        bad.accepted.pop();
        let mut payload = bad.encode();
        payload[10 * 8..11 * 8].copy_from_slice(&2u64.to_le_bytes());
        assert!(DriverCheckpoint::decode(&payload).is_err());
        // More accepts than tickets is impossible.
        let mut bad = sample(70);
        bad.seeds_tried = 1;
        assert!(DriverCheckpoint::decode(&bad.encode()).is_err());
        // Out-of-bounds member.
        let mut bad = sample(70);
        bad.accepted[0] = Community::from_raw([0, 99]);
        assert!(DriverCheckpoint::decode(&bad.encode()).is_err());
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut payload = sample(70).encode();
        payload.push(0);
        assert!(matches!(
            DriverCheckpoint::decode(&payload).unwrap_err(),
            ContainerError::Malformed(_)
        ));
    }

    #[test]
    fn forged_counts_are_malformed_not_allocated() {
        // Offsets into the payload: 11 fixed u64 fields (the node count
        // is the tenth), then the communities.
        let payload = sample(70).encode();
        let node_count_at = 9 * 8;
        let communities_at = 10 * 8;
        let first_len_at = 11 * 8;
        for (at, forged) in [
            (communities_at, u64::MAX),
            (communities_at, 1 << 62),
            // Beyond the u32 id space: refused before anything could be
            // sized by it.
            (node_count_at, u64::MAX),
            (node_count_at, 1 << 32),
        ] {
            let mut bad = payload.clone();
            bad[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            let err = DriverCheckpoint::decode(&bad).unwrap_err();
            assert!(
                matches!(err, ContainerError::Malformed(_)),
                "count {forged} at {at}: {err:?}"
            );
        }
        // A member-count word of u32::MAX on the first community.
        let mut bad = payload.clone();
        bad[first_len_at..first_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            DriverCheckpoint::decode(&bad).unwrap_err(),
            ContainerError::Malformed(_)
        ));
    }

    #[test]
    fn config_checksum_ignores_threads_seed_and_checkpointing() {
        let base = OcaConfig::default();
        let mut other = base.clone();
        other.threads = 8;
        other.rng_seed = 999;
        other.checkpoint = Some(CheckpointConfig::at("/tmp/x.ockpt"));
        assert_eq!(config_checksum(&base), config_checksum(&other));

        // Schedule-affecting fields do change it.
        let mut batch = base.clone();
        batch.batch = 32;
        assert_ne!(config_checksum(&base), config_checksum(&batch));
        let mut halting = base.clone();
        halting.halting.max_seeds += 1;
        assert_ne!(config_checksum(&base), config_checksum(&halting));
        let mut orphans = base.clone();
        orphans.assign_orphans = true;
        assert_ne!(config_checksum(&base), config_checksum(&orphans));
    }

    #[test]
    fn graph_checksum_sees_shape_changes() {
        let a = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let b = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(graph_checksum(&a), graph_checksum(&b));
        // Same counts, different degree sequence.
        let c = from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert_ne!(graph_checksum(&a), graph_checksum(&c));
        let d = from_edges(5, [(0, 1), (1, 2), (2, 3)]);
        assert_ne!(graph_checksum(&a), graph_checksum(&d));
    }

    #[test]
    fn torn_write_fault_preserves_the_previous_checkpoint() {
        let dir = std::env::temp_dir().join(format!("oca_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ockpt");
        let first = sample(70);
        first.save(&path, 1, 2, &CheckpointFaults::none()).unwrap();
        // Every write torn: the save fails, the old file survives intact.
        let faults = CheckpointFaults::new(CheckpointFaultSpec {
            torn_write_every: 1,
            kill_after_writes: 0,
        });
        let mut second = first.clone();
        second.seeds_tried = 256;
        second.stagnant += 128;
        let err = second.save(&path, 1, 2, &faults).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert_eq!(DriverCheckpoint::load(&path, 1, 2).unwrap(), first);
        let counts = faults.counts();
        assert_eq!(counts.write_attempts, 1);
        assert_eq!(counts.torn_writes, 1);
        // No temp debris.
        let debris: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(debris.is_empty(), "{debris:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_damage_is_a_torn_tail_only_in_the_final_record() {
        let dir = std::env::temp_dir().join(format!("oca_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ockpt");
        let mut journal = Journal::new(&CheckpointConfig::at(&path), (1, 2));
        // A base and two records, with where the journal ended after each
        // write and the state it then held.
        let mut state = sample(70);
        let mut written: Vec<(u64, DriverCheckpoint)> = Vec::new();
        for round in 0..3u32 {
            let before = journal.whole_bytes();
            assert_eq!(
                journal.write(&state).unwrap(),
                journal.whole_bytes() - before
            );
            written.push((journal.whole_bytes(), state.clone()));
            state.seeds_tried += 64;
            state.stagnant = round.into();
            state.stops.converged += 64;
            state.accepted.push(Community::from_raw([round, 69]));
        }
        let bytes = std::fs::read(&path).unwrap();
        let ends: Vec<usize> = written.iter().map(|w| w.0 as usize).collect();
        assert_eq!(bytes.len(), ends[2]);
        let load = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            DriverCheckpoint::load(&path, 1, 2)
        };
        assert_eq!(load(&bytes).unwrap(), written[2].1);

        // The first record has another after it: a flip in its length
        // word, length check, body or checksum is damage.
        for at in [ends[0], ends[0] + 8, ends[0] + 20, ends[1] - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            let err = load(&bad).unwrap_err();
            assert!(
                matches!(err, ContainerError::ChecksumMismatch),
                "flip at {at}: {err:?}"
            );
        }
        // The final record cut short, or failing its checksum, is a torn
        // tail: the journal reads as of the record before it.
        let mut flipped = bytes.clone();
        flipped[ends[1] + 20] ^= 0x10;
        for torn in [&bytes[..ends[2] - 1], &bytes[..ends[1] + 3], &flipped[..]] {
            assert_eq!(load(torn).unwrap(), written[1].1);
            let summary = checkpoint_summary(&path).unwrap();
            assert_eq!(summary.journal_bytes, written[1].0);
            assert_eq!(summary.seeds_tried, written[1].1.seeds_tried);
        }
        // Version 5, the format before the journal, is refused as stale.
        let mut v5 = bytes.clone();
        v5[8..12].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(
            load(&v5).unwrap_err(),
            ContainerError::UnsupportedVersion {
                found: 5,
                supported: 6
            }
        ));
        journal.discard();
        assert!(!path.exists(), "a discarded journal is removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_fault_fires_once_after_the_threshold() {
        let faults = CheckpointFaults::new(CheckpointFaultSpec {
            torn_write_every: 0,
            kill_after_writes: 2,
        });
        assert!(!faults.check_kill(1));
        assert!(faults.check_kill(2));
        assert!(!faults.check_kill(3), "the kill fires at most once");
        assert_eq!(faults.counts().kills, 1);
        // Unarmed plans never fire anything.
        let none = CheckpointFaults::none();
        assert!(!none.check_kill(100));
        assert!(!none.check_torn_write());
        assert!(!none.is_armed());
        assert_eq!(none.counts(), CheckpointFaultCounts::default());
    }
}
