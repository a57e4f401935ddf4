//! Crash/resume chaos harness for the checkpointed OCA driver: runs the
//! real detection as a subprocess with a `.ockpt` armed, `SIGKILL`s it at
//! random instants, resumes, and repeats — then proves the survivor chain
//! converged to the exact uninterrupted result.
//!
//! Gates (exit 1 on any failure), written to `results/BENCH_resume.json`
//! (smoke runs: `target/bench-smoke/`):
//!
//! * the final resumed cover and `seeds_tried` are **bit-identical** to an
//!   uninterrupted baseline run;
//! * every checkpoint surviving a kill resumes in-process to the same
//!   bit-identical cover (every kill point is verified, not just the last);
//! * zero unreadable checkpoints: whenever the target path exists after a
//!   kill, its journal reads and verifies to its last whole record (a kill
//!   inside an append leaves a torn tail, which is ignored and counted as
//!   a mid-write kill);
//! * bounded redo: the recorded checkpoint ticket never regresses across
//!   the kill chain, and the final run reports the baseline's seed count;
//! * checkpoint overhead (write time over wall-clock) is at most 5%.
//!
//! ```text
//! cargo run -p oca-bench --release --bin resume_chaos            # 100k full run
//! cargo run -p oca-bench --release --bin resume_chaos -- --smoke # 5k CI gate
//! ```

use oca::{checkpoint_summary, CheckpointConfig, Oca, OcaConfig, OcaResult};
use oca_bench::report::report;
use oca_bench::{Args, Table};
use oca_gen::{lfr, LfrParams};
use oca_graph::{json::Value, object, CsrGraph};
use oca_serve::persist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// The one detection config of the whole harness. Parent baseline, killed
/// children and resumed children must agree on everything in the
/// checkpoint's config binding; `threads` and the checkpoint block are
/// deliberately outside it.
fn detect_config(seed: u64, threads: usize, ckpt: Option<&Path>) -> OcaConfig {
    OcaConfig {
        rng_seed: seed,
        threads,
        batch: 64,
        checkpoint: ckpt.map(CheckpointConfig::at),
        ..OcaConfig::default()
    }
}

/// Loads the shared `.ocg` graph exactly the way every process in the
/// harness does, so the checkpoint's graph binding always matches.
fn load_graph(ocg: &Path) -> CsrGraph {
    oca_api::GraphSource::from_path(ocg)
        .load()
        .unwrap_or_else(|e| panic!("loading {}: {e}", ocg.display()))
        .graph
}

// ---------------------------------------------------------------------
// Child mode: one (possibly resumed) checkpointed detection run. The
// parent SIGKILLs us at a random instant — or lets us finish, in which
// case we persist the cover and print the telemetry it gates on as one
// JSON line.
// ---------------------------------------------------------------------

fn run_detect_child(argv: &[String]) -> ! {
    let [ocg, ckpt, out, seed, threads] = argv else {
        eprintln!("usage: --detect-child <graph.ocg> <run.ockpt> <out.cover> <seed> <threads>");
        std::process::exit(2);
    };
    let seed: u64 = seed.parse().expect("seed");
    let threads: usize = threads.parse().expect("threads");
    let graph = load_graph(Path::new(ocg));
    let config = detect_config(seed, threads, Some(Path::new(ckpt)));
    match Oca::new(config).run_ctx(&graph, &oca_graph::DetectContext::new(seed)) {
        Ok(result) => {
            persist::save_cover_path(out, &result.cover, 0.5).expect("save cover");
            let resumed_from = result.checkpoint.resumed_from_ticket.unwrap_or(0);
            println!(
                "{}",
                object! { "seeds_tried": result.seeds_tried, "resumed_from_ticket": resumed_from }
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("detect child failed: {e}");
            std::process::exit(2);
        }
    }
}

/// What the parent observed at one kill point.
struct KillRound {
    delay_ms: u64,
    ckpt_present: bool,
    ckpt_readable: bool,
    seeds_at_kill: u64,
    advanced: bool,
    mid_write_kills: u64,
    /// The previous child outran its kill and completed (spending the
    /// checkpoint), so this round started a fresh chain — recorded
    /// progress legitimately resets to zero here.
    fresh_chain: bool,
}

#[allow(clippy::too_many_lines)]
fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() >= 2 && argv[1] == "--detect-child" {
        run_detect_child(&argv[2..]);
    }

    let args = Args::parse();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed: u64 = args.get("seed", 42);
    let nodes: usize = args.get("nodes", if smoke { 5_000 } else { 100_000 });
    let kill_rounds: u64 = args.get("kill-rounds", if smoke { 3 } else { 8 });
    let threads: usize = args.get("threads", 2);
    // The paper-scale gate is 5% on LFR-100k. Smoke runs are a fraction
    // of a second of work on a tiny graph, where per-round fsyncs are
    // proportionally enormous and jittery (shared CI hosts); the loose
    // smoke budget still catches pathological per-write cost.
    let overhead_budget_pct = if smoke { 50.0 } else { 5.0 };

    println!(
        "resume_chaos: checkpointed OCA detection under SIGKILL, n={nodes}, \
         {kill_rounds} kill/resume rounds, {threads} threads{}",
        if smoke { " (smoke mode)" } else { "" }
    );

    let work_dir = std::env::temp_dir().join(format!("oca-resume-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("work dir");
    let ocg_path = work_dir.join("graph.ocg");
    let ckpt_path = work_dir.join("run.ockpt");
    let out_path = work_dir.join("final.cover");

    // --- Shared graph: generate once, every process mmap-loads the same
    // file, so the checkpoint's graph binding holds across the fleet.
    let t0 = Instant::now();
    let params = LfrParams::timing(nodes, 100.min(nodes / 4), 300.min(nodes - 1), seed);
    let bench = lfr(&params);
    oca_graph::write_ocg_path(
        &bench.graph,
        None,
        oca_graph::BuildReport::default(),
        &ocg_path,
    )
    .expect("write shared ocg");
    drop(bench);
    let graph = load_graph(&ocg_path);
    println!(
        "generated lfr n={} m={} in {:.1}s",
        graph.node_count(),
        graph.edge_count(),
        t0.elapsed().as_secs_f64()
    );

    // --- Baselines: the uninterrupted cover the chain must reproduce,
    // and the checkpoint overhead of an uninterrupted checkpointed run.
    let baseline: OcaResult = Oca::new(detect_config(seed, threads, None)).run(&graph);
    let base_ckpt_path = work_dir.join("baseline.ockpt");
    let ckpt_baseline: OcaResult =
        Oca::new(detect_config(seed, threads, Some(&base_ckpt_path))).run(&graph);
    assert_eq!(
        ckpt_baseline.cover, baseline.cover,
        "checkpointing alone changed the cover"
    );
    let overhead_pct = 100.0 * ckpt_baseline.checkpoint.total_write_ns as f64
        / ckpt_baseline.elapsed.as_nanos().max(1) as f64;
    let baseline_ms = baseline.elapsed.as_millis().max(20) as u64;
    println!(
        "baseline: {} seeds, {} communities in {:.2}s; checkpointed run wrote {} rounds \
         ({} bytes last) for {overhead_pct:.3}% overhead",
        baseline.seeds_tried,
        baseline.cover.len(),
        baseline.elapsed.as_secs_f64(),
        ckpt_baseline.checkpoint.rounds_checkpointed,
        ckpt_baseline.checkpoint.last_bytes,
    );

    // --- Kill chain: spawn the child, SIGKILL it at a random instant,
    // inspect the surviving checkpoint, save a copy, resume. When a kill
    // lands so late the child finished, the chain just starts over.
    let exe = std::env::current_exe().expect("current_exe");
    let spawn = |stdout_piped: bool| {
        let mut cmd = Command::new(&exe);
        cmd.arg("--detect-child")
            .arg(&ocg_path)
            .arg(&ckpt_path)
            .arg(&out_path)
            .arg(seed.to_string())
            .arg(threads.to_string())
            .stderr(std::process::Stdio::inherit());
        cmd.stdout(if stdout_piped {
            std::process::Stdio::piped()
        } else {
            std::process::Stdio::null()
        });
        cmd.spawn().expect("spawn detect child")
    };

    let mut rng = StdRng::seed_from_u64(seed ^ 0x00C0_FFEE);
    let mut rounds: Vec<KillRound> = Vec::new();
    let mut saved_ckpts: Vec<PathBuf> = Vec::new();
    let mut last_seeds = 0u64;
    let mut completions_before_kill = 0u64;
    let mut chain_restarted = false;
    let t_chain = Instant::now();
    while (rounds.len() as u64) < kill_rounds {
        // The child pays its startup (graph load, and on a fresh chain
        // the spectral c resolution) before its first boundary write, so
        // a blind timer mostly kills before any checkpoint exists.
        // Instead: watch the checkpoint until THIS child has written one
        // past the spawn-time state, then dwell a random slice of the
        // remaining work so the kill lands at an arbitrary later instant
        // — usually a later round, sometimes mid-write.
        let seeds_at_spawn = checkpoint_summary(&ckpt_path)
            .map(|s| s.seeds_tried)
            .unwrap_or(0);
        let mut child = spawn(false);
        let t_spawn = Instant::now();
        let watch_cap = Duration::from_secs(120);
        loop {
            if t_spawn.elapsed() > watch_cap {
                break; // kill anyway; the round records whatever survived
            }
            if matches!(child.try_wait(), Ok(Some(_))) {
                break; // completed before advancing — handled below
            }
            let seeds_now = checkpoint_summary(&ckpt_path)
                .map(|s| s.seeds_tried)
                .unwrap_or(0);
            if seeds_now > seeds_at_spawn {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let remaining_ms = baseline_ms
            .saturating_sub(baseline_ms * last_seeds / baseline.seeds_tried.max(1) as u64);
        let dwell_ms = rng.random_range(0..=(remaining_ms.max(10) / 2));
        std::thread::sleep(Duration::from_millis(dwell_ms));
        let delay_ms = t_spawn.elapsed().as_millis() as u64;
        let _ = child.kill();
        // A SIGKILLed child dies on the signal (no exit code); a clean
        // zero exit means the child outran the kill and completed.
        let finished = child.wait().expect("wait").success();
        if finished {
            // The kill lost the race: that child completed and spent the
            // checkpoint. Verify its cover anyway and restart the chain.
            let (cover, _) = persist::load_cover_path(&out_path, Some(graph.node_count()))
                .expect("completed child left a loadable cover");
            assert_eq!(cover, baseline.cover, "early completion diverged");
            completions_before_kill += 1;
            last_seeds = 0;
            chain_restarted = true;
            continue;
        }
        // Temp debris = the kill landed inside the journal base's atomic
        // write; the target path itself must still be pristine.
        let mut mid_write_kills = 0u64;
        if let Ok(entries) = std::fs::read_dir(&work_dir) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().contains(".tmp.") {
                    mid_write_kills += 1;
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let ckpt_present = ckpt_path.exists();
        let (ckpt_readable, seeds_at_kill) = if ckpt_present {
            match checkpoint_summary(&ckpt_path) {
                Ok(summary) => {
                    // Bytes past the last whole record = the kill landed
                    // inside an append, whose torn tail a resume ignores.
                    let len = std::fs::metadata(&ckpt_path).map_or(0, |m| m.len());
                    if len > summary.journal_bytes {
                        mid_write_kills += 1;
                    }
                    (true, summary.seeds_tried)
                }
                Err(e) => {
                    eprintln!("kill round {}: unreadable checkpoint: {e}", rounds.len());
                    (false, last_seeds)
                }
            }
        } else {
            (false, last_seeds)
        };
        let advanced = seeds_at_kill > last_seeds;
        if ckpt_present && ckpt_readable {
            let copy = work_dir.join(format!("kill_{}.ockpt", rounds.len()));
            std::fs::copy(&ckpt_path, &copy).expect("save checkpoint copy");
            saved_ckpts.push(copy);
        }
        println!(
            "kill round {}: delay {delay_ms}ms, checkpoint {}{}",
            rounds.len(),
            if ckpt_present {
                if ckpt_readable {
                    format!("readable ({seeds_at_kill} seeds recorded)")
                } else {
                    "UNREADABLE".to_string()
                }
            } else {
                "absent (killed before the first write)".to_string()
            },
            if mid_write_kills > 0 {
                ", kill landed mid-write"
            } else {
                ""
            }
        );
        rounds.push(KillRound {
            delay_ms,
            ckpt_present,
            ckpt_readable,
            seeds_at_kill,
            advanced,
            mid_write_kills,
            fresh_chain: std::mem::take(&mut chain_restarted),
        });
        last_seeds = seeds_at_kill.max(last_seeds);
    }

    // --- Let the survivor finish: the chain's final resume must land on
    // the uninterrupted result exactly.
    let final_child = spawn(true);
    let output = final_child.wait_with_output().expect("final child");
    assert!(
        output.status.success(),
        "final resumed run failed (status {:?})",
        output.status.code()
    );
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let stats = Value::parse(stdout.trim()).unwrap_or(Value::Null);
    let stat = |key| stats.get(key).and_then(Value::as_u64).unwrap_or(0);
    let (final_seeds, final_resumed_from) = (stat("seeds_tried"), stat("resumed_from_ticket"));
    let (final_cover, _) =
        persist::load_cover_path(&out_path, Some(graph.node_count())).expect("final cover loads");
    let chain_secs = t_chain.elapsed().as_secs_f64();

    // --- Every kill point, not just the last: each saved checkpoint must
    // resume in-process to the identical cover.
    let mut kill_points_verified = 0u64;
    for copy in &saved_ckpts {
        let r = Oca::new(detect_config(
            // A different nominal seed: the checkpoint's recorded seed
            // must win or the resumed schedule diverges.
            seed ^ 0xDEAD_BEEF,
            threads,
            Some(copy),
        ))
        .run(&graph);
        assert_eq!(
            r.cover,
            baseline.cover,
            "resume from {} diverged",
            copy.display()
        );
        assert_eq!(r.seeds_tried, baseline.seeds_tried);
        kill_points_verified += 1;
    }

    // --- Gates ---------------------------------------------------------
    let unreadable = rounds
        .iter()
        .filter(|r| r.ckpt_present && !r.ckpt_readable)
        .count() as u64;
    // Bounded redo: within one chain the recorded boundary never regresses.
    // A `fresh_chain` round (the previous child completed and spent the
    // checkpoint before the kill landed) legitimately resets progress.
    let monotone = rounds
        .windows(2)
        .all(|w| w[1].fresh_chain || w[1].seeds_at_kill >= w[0].seeds_at_kill);
    let bit_identical = final_cover == baseline.cover;
    let seeds_match = final_seeds == baseline.seeds_tried as u64;
    let debris: u64 = rounds.iter().map(|r| r.mid_write_kills).sum();
    let overhead_ok = overhead_pct <= overhead_budget_pct;
    let pass = bit_identical
        && seeds_match
        && unreadable == 0
        && monotone
        && overhead_ok
        && kill_points_verified == saved_ckpts.len() as u64;

    let mut table = Table::new(["round", "delay_ms", "checkpoint", "seeds_at_kill"]);
    for (i, r) in rounds.iter().enumerate() {
        table.row([
            i.to_string(),
            r.delay_ms.to_string(),
            if !r.ckpt_present {
                "absent".to_string()
            } else if r.ckpt_readable {
                "readable".to_string()
            } else {
                "UNREADABLE".to_string()
            },
            r.seeds_at_kill.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "final resume: {} seeds (baseline {}), resumed from ticket {final_resumed_from}, \
         cover bit-identical: {bit_identical}; {kill_points_verified}/{} kill points \
         re-verified; chain took {chain_secs:.1}s",
        final_seeds,
        baseline.seeds_tried,
        saved_ckpts.len()
    );

    // --- Report --------------------------------------------------------
    let kill_chain: Vec<Value> = rounds
        .iter()
        .enumerate()
        .map(|(i, r)| {
            object! {
                "round": i,
                "delay_ms": r.delay_ms,
                "ckpt_present": r.ckpt_present,
                "ckpt_readable": r.ckpt_readable,
                "seeds_at_kill": r.seeds_at_kill,
                "advanced": r.advanced,
                "mid_write_kills": r.mid_write_kills,
                "fresh_chain": r.fresh_chain,
            }
        })
        .collect();
    let ckpt = &ckpt_baseline.checkpoint;
    let json = report(
        "resume_chaos",
        smoke,
        &format!("lfr-timing n={} seed {seed}", graph.node_count()),
        object! {
            "rng_seed": seed,
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "threads": threads,
            "kill_rounds": rounds.len(),
            "baseline": object! {
                "seeds_tried": baseline.seeds_tried,
                "communities": baseline.cover.len(),
                "elapsed_secs": baseline.elapsed.as_secs_f64(),
                "halt": baseline.halt_reason.map_or("none", |r| r.label()),
            },
            "checkpointed_baseline": object! {
                "ckpt_rounds": ckpt.rounds_checkpointed,
                "ckpt_last_bytes": ckpt.last_bytes,
                "ckpt_last_write_ns": ckpt.last_write_ns,
                "ckpt_total_write_ns": ckpt.total_write_ns,
                "elapsed_secs": ckpt_baseline.elapsed.as_secs_f64(),
                "overhead_pct": overhead_pct,
            },
            "kill_chain": kill_chain,
            "final_resume": object! {
                "seeds_tried": final_seeds,
                "resumed_from_ticket": final_resumed_from,
                "completions_before_kill": completions_before_kill,
                "chain_secs": chain_secs,
            },
            "gate": object! {
                "bit_identical_cover": bit_identical,
                "seeds_match": seeds_match,
                "kill_points_verified": kill_points_verified,
                "unreadable_checkpoints": unreadable,
                "mid_write_kills": debris,
                "monotone_progress": monotone,
                "overhead_limit_pct": overhead_budget_pct,
                "overhead_pct": overhead_pct,
                "overhead_ok": overhead_ok,
                "pass": pass,
            },
        },
    );

    let _ = std::fs::remove_dir_all(&work_dir);
    oca_bench::report::write("BENCH_resume.json", &json).unwrap_or_else(|e| {
        eprintln!("could not write the report: {e}");
        std::process::exit(1);
    });

    if pass {
        println!(
            "resume gate: PASS ({} kills, {kill_points_verified} kill points verified \
             bit-identical, overhead {overhead_pct:.3}% <= {overhead_budget_pct}%)",
            rounds.len()
        );
    } else {
        eprintln!(
            "resume gate: FAIL — bit_identical {bit_identical}, seeds_match {seeds_match}, \
             unreadable {unreadable}, monotone {monotone}, overhead {overhead_pct:.3}% \
             (limit {overhead_budget_pct}%)"
        );
        std::process::exit(1);
    }
}
