//! Deterministic checkpoint/resume for the multi-seed driver.
//!
//! The ticket-ordered schedule makes the driver's entire state a pure
//! function of (config, graph, cutoff ticket): per-ticket RNGs are derived
//! statelessly from the master seed, and the ordered reduction applies
//! outcomes in ticket order. A *round boundary* — the point where one
//! batch of tickets has been fully reduced and the next round's coverage
//! snapshot has not yet been taken — is therefore a complete cut: the
//! accepted communities, the dedup fingerprints, the uncovered list (in
//! its exact swap-remove order, because seed picks index it), the coverage
//! bitmap, and the halting counters together determine every subsequent
//! ticket bit-for-bit, at any thread count.
//!
//! This module serializes exactly that cut into an `.ockpt` file — a
//! sealed [`oca_graph::container`] frame — and reconstructs it on resume.
//! Two binding checksums refuse foreign files: one over the schedule-affecting
//! configuration (everything except `threads`, which never affects the
//! output, and `rng_seed`, which is *carried in the payload* and adopted
//! on resume so a driver restarted under a different nominal seed — e.g.
//! serve's per-round recompute seeds — still continues the original
//! schedule), and one over the graph's shape (node count, edge count,
//! degree sequence).
//!
//! ## Body layout (all integers little-endian)
//!
//! ```text
//! config checksum  u64
//! graph checksum   u64
//! payload          DriverCheckpoint::encode (field order of the struct)
//! ```
//!
//! Mid-round state is deliberately *not* checkpointable: tickets past the
//! round's cutoff may already be reduced out of order on other workers,
//! and the coverage snapshot lent to the workers is round-global. The
//! runner instead rewinds to the round start when asked to flush on
//! cancellation, which costs at most one round of redone work after
//! resume.

use crate::config::OcaConfig;
use crate::halting::AscentStopStats;
use oca_graph::{
    atomic_write_path, fnv1a, Community, ContainerError, CsrGraph, Frame, NodeId, Reader,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How an existing checkpoint file at the configured path is treated when
/// a run starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumePolicy {
    /// Ignore any existing file and start from ticket zero (the file is
    /// overwritten at the first boundary write).
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
/// path or cadence than the run that wrote the file.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// The `.ockpt` file to write (and resume from).
    pub path: PathBuf,
    /// Write every N round boundaries (1 = every round).
    pub every_rounds: u64,
    /// What to do with an existing file at `path` on start.
    pub resume: ResumePolicy,
    /// Fault injection for crash testing; unarmed in production.
    pub faults: CheckpointFaults,
}

impl CheckpointConfig {
    /// Checkpoint to `path` every round, resuming strictly — the default
    /// shape for CLI `detect --checkpoint`.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            every_rounds: 1,
            resume: ResumePolicy::Strict,
            faults: CheckpointFaults::none(),
        }
    }
}

/// Which checkpoint fail points to arm, mirroring the serving layer's
/// `FaultSpec`: every field is an every-Nth trigger, `0` = never.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointFaultSpec {
    /// Every Nth checkpoint write attempt is torn: half the bytes are
    /// written to the temp file, then the write fails. The atomic path
    /// must leave the previous complete checkpoint in place.
    pub torn_write_every: u64,
    /// After the Nth *successful* checkpoint write, the driver aborts at
    /// the next round boundary as if killed — exercising exactly the
    /// crash window the resume path must cover.
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
    /// Simulated kills taken at round boundaries.
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

    /// True if the driver should simulate a kill now, given that
    /// `successful_writes` checkpoints have landed. Fires at most once.
    pub(crate) fn check_kill(&self, successful_writes: u64) -> bool {
        let Some(a) = &self.armed else { return false };
        let after = a.spec.kill_after_writes;
        if after > 0
            && successful_writes >= after
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
    /// Round boundaries at which a checkpoint was successfully written.
    pub rounds_checkpointed: u64,
    /// Size in bytes of the last successful write.
    pub last_bytes: u64,
    /// Duration of the last successful write, in nanoseconds.
    pub last_write_ns: u64,
    /// Total time spent writing checkpoints, in nanoseconds.
    pub total_write_ns: u64,
    /// Write attempts that failed (I/O errors, injected tears); the run
    /// continues past them, keeping the previous checkpoint.
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

/// The driver's complete round-boundary state, as serialized.
///
/// Field order is the payload layout (all integers little-endian).
#[derive(Debug, Clone, PartialEq)]
pub struct DriverCheckpoint {
    /// The master RNG seed of the original run; adopted on resume so the
    /// remaining tickets continue the original schedule.
    pub rng_seed: u64,
    /// The resolved interaction strength (spectral resolution is itself
    /// deterministic, but re-resolving costs a power-method run).
    pub c: f64,
    /// The λ_min estimate behind `c` (telemetry; 0 when `c` was fixed).
    pub lambda_min: f64,
    /// Tickets fully reduced — the next round starts here.
    pub seeds_tried: u64,
    /// Covered-node count (must equal the bitmap's popcount).
    pub covered: u64,
    /// Stagnation-window counter at the boundary.
    pub stagnant: u64,
    /// Duplicate-streak counter at the boundary.
    pub rejected_streak: u64,
    /// Ascent stop tallies at the boundary.
    pub stops: AscentStopStats,
    /// Node count of the graph the driver ran on (the relabeled copy when
    /// `relabel` is set); redundant with the graph binding, kept for
    /// structural validation.
    pub node_count: u64,
    /// Accepted communities, in acceptance (ticket) order.
    pub accepted: Vec<Community>,
    /// The accepted communities' dedup fingerprints, parallel to
    /// `accepted` — stored rather than recomputed so the `seen` set is
    /// reconstructed bit-for-bit.
    pub fingerprints: Vec<u128>,
    /// The uncovered list in its exact order. Order is load-bearing: seed
    /// picks index this list, and its order is the deterministic product
    /// of the swap-removes applied so far.
    pub uncovered: Vec<u32>,
    /// The coverage bitmap words (must be the exact complement of
    /// `uncovered`).
    pub bitmap_words: Vec<u64>,
}

/// The `.ockpt` frame. Version 1 files (the pre-container envelope) are
/// refused as a version mismatch.
const FRAME: Frame = Frame {
    magic: *b"OCACKPT\0",
    version: 2,
};

/// The config binding checksum: a hash of every schedule-affecting field.
///
/// `checkpoint` (where/how to persist), `threads` (never affects output),
/// and `rng_seed` (carried in the payload and adopted on resume) are
/// normalized out. Everything else — halting, search, batch, relabel,
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

impl DriverCheckpoint {
    /// Serializes the state into the `.ockpt` payload layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(
            13 * 8
                + self.accepted.iter().map(|c| 4 + 4 * c.len()).sum::<usize>()
                + 16 * self.fingerprints.len()
                + 4 * self.uncovered.len()
                + 8 * self.bitmap_words.len(),
        );
        out.extend_from_slice(&self.rng_seed.to_le_bytes());
        out.extend_from_slice(&self.c.to_bits().to_le_bytes());
        out.extend_from_slice(&self.lambda_min.to_bits().to_le_bytes());
        out.extend_from_slice(&self.seeds_tried.to_le_bytes());
        out.extend_from_slice(&self.covered.to_le_bytes());
        out.extend_from_slice(&self.stagnant.to_le_bytes());
        out.extend_from_slice(&self.rejected_streak.to_le_bytes());
        out.extend_from_slice(&(self.stops.converged as u64).to_le_bytes());
        out.extend_from_slice(&(self.stops.move_cap as u64).to_le_bytes());
        out.extend_from_slice(&(self.stops.move_budget as u64).to_le_bytes());
        out.extend_from_slice(&(self.stops.plateau as u64).to_le_bytes());
        out.extend_from_slice(&self.node_count.to_le_bytes());
        out.extend_from_slice(&(self.accepted.len() as u64).to_le_bytes());
        for community in &self.accepted {
            out.extend_from_slice(&(community.len() as u32).to_le_bytes());
            for &v in community.members() {
                out.extend_from_slice(&(v.index() as u32).to_le_bytes());
            }
        }
        for fp in &self.fingerprints {
            out.extend_from_slice(&fp.to_le_bytes());
        }
        out.extend_from_slice(&(self.uncovered.len() as u64).to_le_bytes());
        for &v in &self.uncovered {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.bitmap_words.len() as u64).to_le_bytes());
        for &w in &self.bitmap_words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

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
        let seeds_tried = r.u64()?;
        let covered = r.u64()?;
        let stagnant = r.u64()?;
        let rejected_streak = r.u64()?;
        let stops = AscentStopStats {
            converged: r.u64()? as usize,
            move_cap: r.u64()? as usize,
            move_budget: r.u64()? as usize,
            plateau: r.u64()? as usize,
        };
        let node_count = r.u64()?;
        // Every count is checked against the bytes left before anything
        // is allocated: a forged count must not abort the process. Each
        // community costs at least its length word and its fingerprint.
        let n_communities = r.u64()?;
        r.fits(n_communities, 4 + 16)?;
        let mut accepted = Vec::new();
        for _ in 0..n_communities {
            let len = r.u32()?;
            let mut members = Vec::with_capacity(r.fits(len.into(), 4)?);
            for _ in 0..len {
                let v = r.u32()?;
                if u64::from(v) >= node_count {
                    return Err(ContainerError::Malformed(format!(
                        "community member {v} out of bounds for {node_count} nodes"
                    )));
                }
                members.push(NodeId::new(v));
            }
            accepted.push(Community::new(members));
        }
        let mut fingerprints = Vec::with_capacity(accepted.len());
        for _ in 0..n_communities {
            fingerprints.push(r.u128()?);
        }
        let n_uncovered = r.u64()?;
        if n_uncovered > node_count {
            return Err(ContainerError::Malformed(format!(
                "{n_uncovered} uncovered nodes on a {node_count}-node graph"
            )));
        }
        let mut uncovered = Vec::with_capacity(r.fits(n_uncovered, 4)?);
        for _ in 0..n_uncovered {
            let v = r.u32()?;
            if u64::from(v) >= node_count {
                return Err(ContainerError::Malformed(format!(
                    "uncovered node {v} out of bounds for {node_count} nodes"
                )));
            }
            uncovered.push(v);
        }
        let n_words = r.u64()?;
        let mut bitmap_words = Vec::with_capacity(r.fits(n_words, 8)?);
        for _ in 0..n_words {
            bitmap_words.push(r.u64()?);
        }
        let ckpt = DriverCheckpoint {
            rng_seed,
            c,
            lambda_min,
            seeds_tried,
            covered,
            stagnant,
            rejected_streak,
            stops,
            node_count,
            accepted,
            fingerprints,
            uncovered,
            bitmap_words,
        };
        ckpt.validate()?;
        Ok(ckpt)
    }

    /// Cross-checks the redundant encodings against each other: the
    /// bitmap must be the exact complement of the uncovered list, its
    /// popcount must equal the covered counter, and the uncovered list
    /// must be duplicate-free.
    fn validate(&self) -> Result<(), ContainerError> {
        if !self.c.is_finite() {
            return Err(ContainerError::Malformed(format!(
                "non-finite interaction strength {}",
                self.c
            )));
        }
        let n = self.node_count as usize;
        let expected_words = n.div_ceil(64);
        if self.bitmap_words.len() != expected_words {
            return Err(ContainerError::Malformed(format!(
                "{} bitmap words for {n} nodes (expected {expected_words})",
                self.bitmap_words.len()
            )));
        }
        let popcount: u64 = self
            .bitmap_words
            .iter()
            .map(|w| w.count_ones() as u64)
            .sum();
        if popcount != self.covered {
            return Err(ContainerError::Malformed(format!(
                "bitmap popcount {popcount} disagrees with covered counter {}",
                self.covered
            )));
        }
        if self.covered + self.uncovered.len() as u64 != self.node_count {
            return Err(ContainerError::Malformed(format!(
                "{} covered + {} uncovered != {} nodes",
                self.covered,
                self.uncovered.len(),
                self.node_count
            )));
        }
        // Complement + duplicate-freeness in one pass: every uncovered
        // node must have a *set-so-far-unseen* clear bit. Work on a copy
        // so validation stays read-only.
        let mut words = self.bitmap_words.clone();
        for &v in &self.uncovered {
            let (word, bit) = (v as usize / 64, v as usize % 64);
            if words[word] >> bit & 1 == 1 {
                return Err(ContainerError::Malformed(format!(
                    "node {v} is both covered and uncovered"
                )));
            }
            words[word] |= 1 << bit;
        }
        // All n bits are now set iff bitmap == complement(uncovered).
        let full: u64 = words.iter().map(|w| w.count_ones() as u64).sum();
        if full != self.node_count {
            return Err(ContainerError::Malformed(
                "bitmap is not the complement of the uncovered list".to_string(),
            ));
        }
        if self.fingerprints.len() != self.accepted.len() {
            return Err(ContainerError::Malformed(format!(
                "{} fingerprints for {} communities",
                self.fingerprints.len(),
                self.accepted.len()
            )));
        }
        if self.seeds_tried < self.accepted.len() as u64 {
            return Err(ContainerError::Malformed(format!(
                "{} accepted communities from only {} tickets",
                self.accepted.len(),
                self.seeds_tried
            )));
        }
        Ok(())
    }

    /// Atomically writes the state to `path` under the two binding
    /// checksums, returning the bytes written. Fault injection (torn
    /// writes) is applied when armed in `faults`.
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

    /// Reads, verifies and decodes the checkpoint at `path`, refusing
    /// files whose binding checksums disagree with the current run.
    pub fn load(
        path: &Path,
        config_checksum: u64,
        graph_checksum: u64,
    ) -> Result<DriverCheckpoint, ContainerError> {
        FRAME.read_path(path, |r| {
            for (what, current) in [
                ("config checksum", config_checksum),
                ("graph checksum", graph_checksum),
            ] {
                let recorded = r.u64()?;
                if recorded != current {
                    return Err(ContainerError::Mismatch {
                        what,
                        recorded,
                        current,
                    });
                }
            }
            DriverCheckpoint::decode_from(r)
        })
    }
}

/// A human/ops view of a checkpoint file, decoded without binding to any
/// particular run (the chaos bench uses it to watch a child's progress;
/// operators can use it to see how far a dead run got).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Tickets fully reduced at the recorded boundary.
    pub seeds_tried: u64,
    /// Covered nodes at the boundary.
    pub covered: u64,
    /// Node count of the graph the run was on.
    pub node_count: u64,
    /// Accepted communities so far.
    pub communities: u64,
    /// The config binding checksum recorded in the file.
    pub config_checksum: u64,
    /// The graph binding checksum recorded in the file.
    pub graph_checksum: u64,
    /// Payload size in bytes.
    pub payload_bytes: u64,
}

/// Reads and summarizes the checkpoint at `path` (full verification, no
/// binding check).
pub fn checkpoint_summary(path: &Path) -> Result<CheckpointSummary, ContainerError> {
    FRAME.read_path(path, |r| {
        let config_checksum = r.u64()?;
        let graph_checksum = r.u64()?;
        let payload_bytes = r.remaining() as u64;
        let ckpt = DriverCheckpoint::decode_from(r)?;
        Ok(CheckpointSummary {
            seeds_tried: ckpt.seeds_tried,
            covered: ckpt.covered,
            node_count: ckpt.node_count,
            communities: ckpt.accepted.len() as u64,
            config_checksum,
            graph_checksum,
            payload_bytes,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::from_edges;

    fn sample(n: u64) -> DriverCheckpoint {
        // Nodes 0 and 2 covered, the rest uncovered (reverse order to
        // prove order is preserved verbatim).
        let mut uncovered: Vec<u32> = (0..n as u32).filter(|&v| v != 0 && v != 2).collect();
        uncovered.reverse();
        let words = (n as usize).div_ceil(64);
        let mut bitmap_words = vec![0u64; words];
        bitmap_words[0] = 0b101;
        DriverCheckpoint {
            rng_seed: 0xABCD,
            c: 0.42,
            lambda_min: -2.38,
            seeds_tried: 128,
            covered: 2,
            stagnant: 7,
            rejected_streak: 3,
            stops: AscentStopStats {
                converged: 100,
                move_cap: 10,
                move_budget: 15,
                plateau: 3,
            },
            node_count: n,
            accepted: vec![
                Community::from_raw([0, 2]),
                Community::from_raw([2, 0]), // same set; dedup is the fps' job
            ],
            fingerprints: vec![0x1111_2222_3333_4444_5555_6666_7777_8888, 42],
            uncovered,
            bitmap_words,
        }
    }

    #[test]
    fn payload_round_trips_bit_identically() {
        let ckpt = sample(70);
        let decoded = DriverCheckpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded, ckpt);
        // Uncovered order survived verbatim.
        assert_eq!(decoded.uncovered, ckpt.uncovered);
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
        assert_eq!(summary.communities, 2);
        assert_eq!(summary.node_count, 70);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn structural_inconsistencies_are_malformed() {
        // Bitmap/counter disagreement.
        let mut bad = sample(70);
        bad.covered = 3;
        assert!(matches!(
            DriverCheckpoint::decode(&bad.encode()).unwrap_err(),
            ContainerError::Malformed(_)
        ));
        // A node both covered and uncovered.
        let mut bad = sample(70);
        bad.uncovered.push(0);
        bad.uncovered.remove(0);
        assert!(DriverCheckpoint::decode(&bad.encode()).is_err());
        // Duplicate uncovered entry (displacing another keeps the count).
        let mut bad = sample(70);
        bad.uncovered[0] = bad.uncovered[1];
        assert!(DriverCheckpoint::decode(&bad.encode()).is_err());
        // Fingerprint count disagreeing with the community count.
        let mut bad = sample(70);
        bad.fingerprints.pop();
        // (encode writes fps count == accepted count, so shrink accepted
        // instead to produce the mismatch on the wire)
        bad.accepted.pop();
        bad.seeds_tried = 1; // fewer accepts than tickets stays plausible
        let mut payload = bad.encode();
        // Claim 2 communities but provide 1: truncated payload.
        payload[12 * 8..13 * 8].copy_from_slice(&2u64.to_le_bytes());
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
        // Offsets into the payload: 13 fixed u64 fields, then the
        // communities, fingerprints, uncovered list and bitmap.
        let ckpt = sample(70);
        let payload = ckpt.encode();
        let communities_at = 12 * 8;
        let first_len_at = 13 * 8;
        let uncovered_at = 13 * 8 + (4 + 2 * 4) * 2 + 16 * 2;
        let words_at = uncovered_at + 8 + 4 * ckpt.uncovered.len();
        for (at, forged) in [
            (communities_at, u64::MAX),
            (communities_at, 1 << 62),
            (uncovered_at, u64::MAX),
            (words_at, u64::MAX),
            (words_at, 1 << 40),
        ] {
            let mut bad = payload.clone();
            bad[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            let err = DriverCheckpoint::decode(&bad).unwrap_err();
            assert!(
                matches!(err, ContainerError::Malformed(_)),
                "count {forged} at {at}: {err:?}"
            );
        }
        // A forged node count lets a forged uncovered count past the
        // bounds check; the bytes-left check still refuses it.
        let mut bad = payload.clone();
        bad[11 * 8..12 * 8].copy_from_slice(&u64::MAX.to_le_bytes());
        bad[uncovered_at..uncovered_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(
            DriverCheckpoint::decode(&bad).unwrap_err(),
            ContainerError::Malformed(_)
        ));
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
        let mut relabel = base.clone();
        relabel.relabel = true;
        assert_ne!(config_checksum(&base), config_checksum(&relabel));
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
