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
    /// Every Nth checkpoint write attempt is torn: half the bytes are
    /// written to the temp file, then the write fails. The atomic path
    /// must leave the previous complete checkpoint in place.
    pub torn_write_every: u64,
    /// Right after the Nth *successful* checkpoint write, the driver
    /// aborts as if killed — exercising exactly the crash window the
    /// resume path must cover.
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
    /// Simulated kills taken right after a checkpoint write.
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
    /// Round starts at which a checkpoint was successfully written.
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

/// The driver's round-boundary state, as serialized: its counters and the
/// communities it accepted. The rest of its state is rebuilt on resume by
/// replaying `accepted` (see the module docs).
///
/// Field order is the payload layout (all integers little-endian). `A`
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

/// The `.ockpt` frame. Older versions are refused as a version mismatch:
/// version 1 (the pre-container envelope), version 2 (a fourth stop
/// tally), version 3 (a covered counter, the dedup fingerprints and the
/// coverage bitmap) and version 4 (the uncovered list, rebuilt by replay
/// since version 5).
const FRAME: Frame = Frame {
    magic: *b"OCACKPT\0",
    version: 5,
};

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
        out.reserve(11 * 8 + accepted.iter().map(|c| 4 + 4 * c.len()).sum::<usize>());
        out.extend_from_slice(&self.rng_seed.to_le_bytes());
        out.extend_from_slice(&self.c.to_bits().to_le_bytes());
        out.extend_from_slice(&self.lambda_min.to_bits().to_le_bytes());
        out.extend_from_slice(&self.seeds_tried.to_le_bytes());
        out.extend_from_slice(&self.stagnant.to_le_bytes());
        out.extend_from_slice(&self.rejected_streak.to_le_bytes());
        out.extend_from_slice(&(self.stops.converged as u64).to_le_bytes());
        out.extend_from_slice(&(self.stops.move_cap as u64).to_le_bytes());
        out.extend_from_slice(&(self.stops.move_budget as u64).to_le_bytes());
        out.extend_from_slice(&self.node_count.to_le_bytes());
        out.extend_from_slice(&(accepted.len() as u64).to_le_bytes());
        for community in accepted {
            out.extend_from_slice(&(community.len() as u32).to_le_bytes());
            for &v in community.members() {
                out.extend_from_slice(&(v.index() as u32).to_le_bytes());
            }
        }
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
        let seeds_tried = r.u64()?;
        let stagnant = r.u64()?;
        let rejected_streak = r.u64()?;
        let stops = AscentStopStats {
            converged: r.u64()? as usize,
            move_cap: r.u64()? as usize,
            move_budget: r.u64()? as usize,
        };
        let node_count = r.u64()?;
        // Every count is checked against the bytes left before anything
        // is allocated: a forged count must not abort the process. Each
        // community costs at least its length word.
        let n_communities = r.u64()?;
        r.fits(n_communities, 4)?;
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
        let ckpt = DriverCheckpoint {
            rng_seed,
            c,
            lambda_min,
            seeds_tried,
            stagnant,
            rejected_streak,
            stops,
            node_count,
            accepted,
        };
        ckpt.validate()?;
        Ok(ckpt)
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
            covered: ckpt.covered(),
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
