//! Crash/resume properties of the checkpointed OCA driver (proptest).
//!
//! The tentpole contract under randomized abuse:
//!
//! * kill the driver right after a random round-start write, resume from
//!   the checkpoint — at any thread count, under a different nominal seed —
//!   and the final cover and `seeds_tried` are bit-identical to an
//!   uninterrupted run;
//! * cancel the driver at a random progress tick instead: the checkpoint
//!   still holds the start of the interrupted round, and resuming from it
//!   is just as bit-identical;
//! * a damaged `.ockpt` journal (a byte flip in its base or in a record
//!   that more records follow, a cut inside the base, a version patch) is
//!   refused with a typed error under the strict policy and discarded
//!   under salvage — garbage is never loaded as state;
//! * a torn final record (cut short, or failing its checksum) is ignored:
//!   the resume starts one round earlier and still ends bit-identical, as
//!   it does after an injected torn append followed by a kill;
//! * injected torn writes never corrupt the target path or the result.

use oca::{
    checkpoint_summary, CheckpointConfig, CheckpointFaultSpec, CheckpointFaults, Oca, OcaConfig,
    OcaResult, ResumePolicy,
};
use oca_gen::{lfr, LfrParams};
use oca_graph::{CancelToken, CsrGraph, DetectContext, DetectError};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

fn graph() -> &'static CsrGraph {
    static G: OnceLock<CsrGraph> = OnceLock::new();
    G.get_or_init(|| lfr(&LfrParams::small(300, 0.3, 3)).graph)
}

/// Tiny rounds so even this 300-node run crosses several checkpoint
/// writes — the kill points under test.
fn base_config() -> OcaConfig {
    OcaConfig {
        batch: 2,
        rng_seed: 0x0CA,
        ..OcaConfig::default()
    }
}

struct Baseline {
    plain: OcaResult,
    /// Round-start writes a full checkpointed run performs: the space of
    /// distinct kill points.
    writes: u64,
}

fn baseline() -> &'static Baseline {
    static B: OnceLock<Baseline> = OnceLock::new();
    B.get_or_init(|| {
        let plain = Oca::new(base_config()).run(graph());
        let path = case_path("baseline");
        let r = Oca::new(OcaConfig {
            checkpoint: Some(CheckpointConfig::at(&path)),
            ..base_config()
        })
        .run(graph());
        assert_eq!(
            r.cover, plain.cover,
            "checkpointing must not change the cover"
        );
        let writes = r.checkpoint.rounds_checkpointed;
        assert!(
            writes >= 2,
            "need at least two boundaries to kill at ({writes})"
        );
        Baseline { plain, writes }
    })
}

/// A fresh target path per case: cases must never see each other's files.
fn case_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("oca_ckpt_prop_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}_{}.ockpt",
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Runs under `kill_after_writes` faults until the kill, leaving the
/// checkpoint of the kill round's start at `path`.
fn killed_run(path: &Path, kill_after_writes: u64, threads: usize) {
    killed_run_with(path, 0, kill_after_writes, threads);
}

/// [`killed_run`] with every `torn_write_every`th write torn as well.
fn killed_run_with(path: &Path, torn_write_every: u64, kill_after_writes: u64, threads: usize) {
    let faults = CheckpointFaults::new(CheckpointFaultSpec {
        torn_write_every,
        kill_after_writes,
    });
    let err = Oca::new(OcaConfig {
        threads,
        checkpoint: Some(CheckpointConfig {
            path: path.to_path_buf(),
            resume: ResumePolicy::Strict,
            faults,
        }),
        ..base_config()
    })
    .run_ctx(graph(), &DetectContext::new(0x0CA))
    .unwrap_err();
    assert!(matches!(err, DetectError::Cancelled { .. }), "got {err}");
    assert!(path.exists(), "the kill must leave a checkpoint behind");
}

/// Resumes the checkpoint at `path` at `threads` under a nominal seed
/// other than the original one: the checkpoint's recorded seed must win.
fn resumed_run(path: &Path, threads: usize) -> OcaResult {
    Oca::new(OcaConfig {
        threads,
        rng_seed: 0xDEAD_BEEF,
        checkpoint: Some(CheckpointConfig::at(path)),
        ..base_config()
    })
    .run(graph())
}

/// Where the base and each record of a journal of whole records end: the
/// base frame's length follows from its body length (the u64 at offset
/// 12; 20 header and 8 checksum bytes around the body), a record's from
/// its length word (16 header and 8 checksum bytes around the body).
fn journal_ends(bytes: &[u8]) -> Vec<usize> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut ends = vec![20 + word(12) + 8];
    let mut at = ends[0];
    while at + 16 <= bytes.len() {
        at += 16 + word(at) + 8;
        ends.push(at);
    }
    ends
}

/// Runs the strict and then the salvage policy over the journal at
/// `path`: strict must refuse it with a typed error and keep the file,
/// salvage must discard it and restart from scratch.
fn assert_refused_then_salvaged(path: &Path) {
    let strict = Oca::new(OcaConfig {
        checkpoint: Some(CheckpointConfig {
            resume: ResumePolicy::Strict,
            ..CheckpointConfig::at(path)
        }),
        ..base_config()
    })
    .run_ctx(graph(), &DetectContext::new(0x0CA));
    match strict {
        Err(DetectError::Checkpoint { .. }) => {}
        Err(other) => panic!("expected a typed checkpoint refusal, got {other}"),
        Ok(_) => panic!("a damaged checkpoint must not resume"),
    }
    prop_assert!(path.exists(), "strict mode never deletes the evidence");

    let r = Oca::new(OcaConfig {
        checkpoint: Some(CheckpointConfig {
            resume: ResumePolicy::Salvage,
            ..CheckpointConfig::at(path)
        }),
        ..base_config()
    })
    .run(graph());
    prop_assert_eq!(
        &r.cover,
        &baseline().plain.cover,
        "salvage restarts from scratch"
    );
    prop_assert_eq!(r.checkpoint.resumed_from_ticket, None);
    prop_assert!(!path.exists(), "salvage consumed the damaged file");
}

/// Resumes the journal at `path` and checks the chain against the
/// uninterrupted run: same cover, cutoff, halt reason and raw count,
/// resumed from `ticket`.
fn assert_resumes_bit_identically(path: &Path, threads: usize, ticket: u64) {
    let base = baseline();
    let r = resumed_run(path, threads);
    prop_assert_eq!(&r.cover, &base.plain.cover);
    prop_assert_eq!(r.seeds_tried, base.plain.seeds_tried);
    prop_assert_eq!(r.halt_reason, base.plain.halt_reason);
    prop_assert_eq!(r.raw_community_count, base.plain.raw_community_count);
    prop_assert_eq!(r.checkpoint.resumed_from_ticket, Some(ticket));
    prop_assert!(!path.exists(), "the spent checkpoint is removed");
}

const THREADS: [usize; 3] = [1, 2, 4];

proptest! {
    /// Kill after a random round-start write, resume at a random (often
    /// different) thread count under a different nominal seed: the chain
    /// reproduces the uninterrupted run bit for bit, continuing from the
    /// start of the round the kill hit.
    #[test]
    fn kill_at_a_random_round_then_resume_is_bit_identical(
        raw_kill in 0u64..1_000_000,
        kill_threads in 0usize..3,
        resume_threads in 0usize..3,
    ) {
        let base = baseline();
        let kill_after = 1 + raw_kill % base.writes;
        let path = case_path("kill");
        killed_run(&path, kill_after, THREADS[kill_threads]);

        let batch = base_config().batch as u64;
        assert_resumes_bit_identically(&path, THREADS[resume_threads], (kill_after - 1) * batch);
    }

    /// Cancel from the progress callback at a random tick: nothing is
    /// written or undone, so the checkpoint still holds the start of the
    /// round the cancel hit. Resumed at a random thread count under a
    /// different nominal seed, the chain reproduces the uninterrupted run.
    #[test]
    fn cancel_at_a_random_tick_then_resume_is_bit_identical(
        raw_tick in 0u64..1_000_000,
        cancel_threads in 0usize..3,
        resume_threads in 0usize..3,
    ) {
        let base = baseline();
        let tick = 1 + raw_tick % base.plain.seeds_tried as u64;
        let path = case_path("cancel");
        let token = CancelToken::new();
        let trigger = token.clone();
        let ctx = DetectContext::new(0x0CA)
            .with_cancel(token)
            .with_progress(move |p| {
                if p.done as u64 == tick {
                    trigger.cancel();
                }
            });
        let err = Oca::new(OcaConfig {
            threads: THREADS[cancel_threads],
            checkpoint: Some(CheckpointConfig::at(&path)),
            ..base_config()
        })
        .run_ctx(graph(), &ctx)
        .unwrap_err();
        let DetectError::Cancelled { partial } = err else {
            panic!("expected Cancelled, got {err}");
        };
        prop_assert_eq!(partial.iterations as u64, tick, "the partial is not rewound");

        let batch = base_config().batch as u64;
        assert_resumes_bit_identically(&path, THREADS[resume_threads], (tick - 1) / batch * batch);
    }

    /// Damage a real journal where it is not a torn tail — a byte flip
    /// in its base or in a record that more records follow, a cut inside
    /// the base, or a version patch (to version 5, the format before the
    /// journal, or a future one) — and the strict policy refuses it with a
    /// typed error while salvage discards it and restarts clean. Garbage
    /// is never loaded as driver state.
    #[test]
    fn damaged_checkpoints_are_refused_never_loaded(
        raw_site in 0u64..1_000_000,
        kind in 0u8..3,
    ) {
        let base = baseline();
        let path = case_path("damage");
        killed_run(&path, 1 + raw_site % base.writes, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let ends = journal_ends(&bytes);
        prop_assert_eq!(*ends.last().unwrap(), bytes.len(), "the kill left whole records");
        match kind {
            0 => {
                // Bit rot anywhere before the final record: in the base
                // (the whole file when no record follows it) or in a
                // record that more records follow.
                let final_start = if ends.len() > 1 { ends[ends.len() - 2] } else { ends[0] };
                let at = (raw_site as usize) % final_start;
                bytes[at] ^= 0xFF;
            }
            1 => {
                // A cut inside the base.
                bytes.truncate((raw_site as usize) % ends[0]);
            }
            _ => {
                // A stale or future format version (the u32 after the
                // 8-byte magic).
                let version = [5, u32::MAX][raw_site as usize % 2];
                bytes[8..12].copy_from_slice(&version.to_le_bytes());
            }
        }
        std::fs::write(&path, &bytes).unwrap();
        assert_refused_then_salvaged(&path);
    }

    /// A torn final record — cut anywhere inside it, or with a byte of its
    /// body or checksum flipped — is the append a kill interrupted: the
    /// resume ignores it, starts one round earlier, and still ends in the
    /// uninterrupted run's cover and `seeds_tried`.
    #[test]
    fn torn_final_record_resumes_one_round_earlier(
        raw_kill in 0u64..1_000_000,
        raw_site in 0u64..1_000_000,
        flip in 0u8..2,
        resume_threads in 0usize..3,
    ) {
        let base = baseline();
        // At least two writes, so the journal has a record after its base.
        let kill_after = 2 + raw_kill % (base.writes - 1);
        let path = case_path("tail");
        killed_run(&path, kill_after, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let ends = journal_ends(&bytes);
        prop_assert_eq!(ends.len() as u64, kill_after, "one base and a record per later write");
        let final_start = ends[ends.len() - 2];
        if flip == 1 {
            let body_start = final_start + 16;
            let at = body_start + raw_site as usize % (bytes.len() - body_start);
            bytes[at] ^= 0xFF;
        } else {
            bytes.truncate(final_start + raw_site as usize % (bytes.len() - final_start));
        }
        std::fs::write(&path, &bytes).unwrap();
        let summary = checkpoint_summary(&path).unwrap();
        prop_assert_eq!(summary.journal_bytes, final_start as u64);

        let batch = base_config().batch as u64;
        assert_resumes_bit_identically(&path, THREADS[resume_threads], (kill_after - 2) * batch);
    }

    /// A torn append followed by a kill: the `k`th write dies halfway,
    /// leaving half a record on disk, and the driver is killed right
    /// after. The resume ignores the torn tail and continues from the
    /// record before it, bit-identically.
    #[test]
    fn torn_append_then_kill_resumes_bit_identically(
        raw_k in 0u64..1_000_000,
        kill_threads in 0usize..3,
        resume_threads in 0usize..3,
    ) {
        let base = baseline();
        // Write 1 is the base; appends start at write 2.
        let k = 2 + raw_k % (base.writes - 1);
        let path = case_path("torn_kill");
        killed_run_with(&path, k, k, THREADS[kill_threads]);
        let len = std::fs::metadata(&path).unwrap().len();
        let summary = checkpoint_summary(&path).unwrap();
        prop_assert!(summary.journal_bytes < len, "the torn append left a tail");

        let batch = base_config().batch as u64;
        assert_resumes_bit_identically(&path, THREADS[resume_threads], (k - 2) * batch);
    }

    /// Torn writes at a random cadence: failures are telemetry, the run's
    /// result is untouched, and the target path never holds a half-file.
    #[test]
    fn torn_writes_never_corrupt_the_run(every in 1u64..4) {
        let base = baseline();
        let path = case_path("torn");
        let faults = CheckpointFaults::new(CheckpointFaultSpec {
            torn_write_every: every,
            kill_after_writes: 0,
        });
        let r = Oca::new(OcaConfig {
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                resume: ResumePolicy::Strict,
                faults: faults.clone(),
            }),
            ..base_config()
        })
        .run(graph());
        prop_assert_eq!(&r.cover, &base.plain.cover);
        prop_assert_eq!(r.seeds_tried, base.plain.seeds_tried);
        prop_assert!(r.checkpoint.write_failures > 0);
        prop_assert_eq!(faults.counts().torn_writes, r.checkpoint.write_failures);
        prop_assert!(!path.exists(), "completed runs leave no checkpoint");
    }
}
