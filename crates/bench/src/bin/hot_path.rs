//! Hot-path bench: times the sequential greedy-ascent inner loop in
//! isolation (`local_search` over a reusable [`oca::CommunityState`]) and
//! end-to-end single-thread detection, on LFR / BA / hub-stress BA /
//! daisy graphs. Results go to `results/BENCH_hotpath.json`, or under
//! `target/bench-smoke/` in smoke mode (fields documented in README.md),
//! with ns/move, moves/s, every end-to-end phase (`oca::PhaseNanos`) and
//! the spectral solve's steps and convergence, peak RSS, and
//! before/after deltas against a committed baseline snapshot; a ns/move
//! regression beyond 25% of the baseline — or a dedup+merge phase blow-up
//! beyond 1.5x + 10 ms — exits non-zero, so CI can gate on it. So does a
//! case whose `unattributed_ns` exceeds 5% of its end-to-end wall time, or
//! whose spectral solve fails to converge (unless the case is on the
//! reported `spectral_known_failures` list).
//!
//! For the lfr family (up to 200k nodes) a second, checkpointed
//! end-to-end leg records the driver's `ckpt_*` telemetry — rounds
//! written, last/total write cost, overhead as a percentage of
//! wall-clock — so the steady-state price of `detect --checkpoint` is
//! visible next to the numbers it perturbs.
//!
//! The end-to-end leg runs the tuned preset (`oca::OcaConfig::tuned`,
//! DESIGN.md §2a) single-threaded. For ba-hub cases small
//! enough to afford it, an unbudgeted reference run scores the budgeted
//! cover (`theta_vs_unbudgeted` / `omega_vs_unbudgeted`), and the hub
//! gate holds both the wall-clock win (≤ 2x baseline + 1 s) and the
//! quality floor (θ no more than 0.10 below the baseline's).
//!
//! ```text
//! cargo run -p oca-bench --release --bin hot_path                      # full: n = 10k, 100k, 1M
//! cargo run -p oca-bench --release --bin hot_path -- --sizes 10000 --families lfr,daisy
//! cargo run -p oca-bench --release --bin hot_path -- --smoke           # tiny CI gate
//! cargo run -p oca-bench --release --bin hot_path -- --write-baseline  # refresh the snapshot
//! ```
//!
//! The default 1M point covers LFR and daisy; the BA variants are skipped
//! there because a structureless BA graph makes every ascent swallow a
//! macroscopic fraction of the nodes, turning its end-to-end run into a
//! multi-minute stress test rather than a hot-path measurement (opt in
//! with `--families ba --sizes 1000000`).

use oca::{
    initial_set, local_search, ticket_seed, CheckpointConfig, CommunityState, Oca, OcaConfig,
    PhaseNanos, SearchConfig, SeedStrategy,
};
use oca_bench::report::report;
use oca_bench::{peak_rss_bytes, results_dir, Args, Table};
use oca_gen::{barabasi_albert, daisy_tree, lfr, DaisyParams, LfrParams};
use oca_graph::{json::Value, object, Cover, CsrGraph, NodeId};
use oca_metrics::{omega_index, theta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Measurements of the isolated ascent loop on one graph.
struct AscentStats {
    ascents: usize,
    moves: usize,
    total_ns: u128,
    ns_per_move: f64,
    moves_per_sec: f64,
}

/// Measurements of one end-to-end single-thread detection, including
/// every phase of its wall clock (`OcaResult::phases`) so off-ascent
/// regressions — spectral solve, dedup, merging, orphans — are visible
/// and gateable on their own, not just inside `end_to_end_secs`.
struct EndToEndStats {
    secs: f64,
    seeds_tried: usize,
    communities: usize,
    coverage: f64,
    halt: &'static str,
    phases: PhaseNanos,
    spectral_iterations: usize,
    spectral_converged: bool,
}

/// One benchmark case: a (family, n) pair with both measurements. The
/// quality deltas are the θ / omega-index of the budgeted cover against
/// an unbudgeted reference run on the same graph — recorded for ba-hub
/// cases small enough that the reference is affordable, so the speedup
/// numbers always travel with proof they did not buy speed with quality.
struct Case {
    family: &'static str,
    nodes: usize,
    edges: usize,
    ascent: AscentStats,
    end_to_end: EndToEndStats,
    theta_vs_unbudgeted: Option<f64>,
    omega_vs_unbudgeted: Option<f64>,
    ckpt: Option<CkptLeg>,
}

/// Checkpoint telemetry from a second, checkpointed end-to-end run
/// (`Detection`'s `ckpt_*` counters), recorded for the lfr family so the
/// steady-state cost of `--checkpoint` travels with the hot-path numbers.
struct CkptLeg {
    rounds: u64,
    last_bytes: u64,
    last_write_ns: u64,
    total_write_ns: u64,
    overhead_pct: f64,
}

/// Moves after which the isolated-ascent loop stops early: plenty for a
/// stable ns/move, and it keeps families whose ascents swallow huge sets
/// (BA has no community structure to stop at) from dominating wall-clock.
const MOVE_BUDGET: usize = 4_000_000;

/// Times up to `max_ascents` isolated greedy ascents from the
/// deterministic ticket stream, reusing one `CommunityState` (steady
/// state: no allocation after warm-up). The move count is the unit of the
/// ns/move metric; the loop stops early at [`MOVE_BUDGET`] moves.
fn bench_ascents(graph: &CsrGraph, max_ascents: usize, seed: u64) -> AscentStats {
    let mut state = CommunityState::new(graph, 0.8);
    let config = SearchConfig::default();
    let strategy = SeedStrategy::default();
    let n = graph.node_count() as u32;
    let mut moves = 0usize;
    let mut ascents = 0usize;
    // Warm-up: touch the buffers once so first-use page faults and
    // bucket-table growth stay out of the timed region.
    let mut rng = StdRng::seed_from_u64(ticket_seed(seed, u64::MAX));
    let warm = initial_set(strategy, graph, NodeId(rng.random_range(0..n)), &mut rng);
    local_search(&mut state, &warm, &config);

    let start = Instant::now();
    for ticket in 0..max_ascents as u64 {
        let mut rng = StdRng::seed_from_u64(ticket_seed(seed, ticket));
        let v = NodeId(rng.random_range(0..n));
        let initial = initial_set(strategy, graph, v, &mut rng);
        let outcome = local_search(&mut state, &initial, &config);
        moves += outcome.moves;
        ascents += 1;
        if moves >= MOVE_BUDGET {
            break;
        }
    }
    let total_ns = start.elapsed().as_nanos();
    AscentStats {
        ascents,
        moves,
        total_ns,
        ns_per_move: total_ns as f64 / (moves as f64).max(1.0),
        moves_per_sec: moves as f64 / (total_ns as f64 / 1e9).max(1e-12),
    }
}

/// The end-to-end configuration the bench records and gates: the tuned
/// preset every CLI and harness run uses, single-threaded and seeded with
/// the bench's seed.
fn tuned_config(graph: &CsrGraph, seed: u64) -> OcaConfig {
    OcaConfig {
        rng_seed: seed,
        ..OcaConfig::tuned(graph)
    }
}

/// Runs the full single-thread OCA pipeline (spectral `c`, seeded ascents,
/// dedup, halting, merge postprocessing) — the Fig. 5/6 measurement.
/// Returns the cover alongside the timings so callers can score it
/// against a reference run.
fn bench_end_to_end(graph: &CsrGraph, config: OcaConfig) -> (EndToEndStats, Cover) {
    let result = Oca::new(config).run(graph);
    let stats = EndToEndStats {
        secs: result.elapsed.as_secs_f64(),
        seeds_tried: result.seeds_tried,
        communities: result.cover.len(),
        coverage: result.cover.coverage(),
        halt: result.halt_reason.map_or("none", |r| r.label()),
        phases: result.phases,
        spectral_iterations: result.spectral_iterations,
        spectral_converged: result.spectral_converged,
    };
    (stats, result.cover)
}

/// Largest lfr size for which the checkpointed second end-to-end leg is
/// repeated on every bench invocation. The leg doubles that case's e2e
/// cost, so the million-node point is left to `resume_chaos`.
const CKPT_LEG_MAX_NODES: usize = 200_000;

/// Reruns the end-to-end detection with `--checkpoint`-equivalent wiring
/// (every round, to a scratch path the completed run then removes) and
/// returns the driver's `ckpt_*` telemetry. The cover must be untouched:
/// checkpointing is pure observation plus I/O.
fn bench_checkpointed(graph: &CsrGraph, seed: u64, plain: &Cover) -> CkptLeg {
    let path = std::env::temp_dir().join(format!(
        "oca_hotpath_{}_{}.ockpt",
        std::process::id(),
        graph.node_count()
    ));
    let result = Oca::new(OcaConfig {
        checkpoint: Some(CheckpointConfig::at(&path)),
        ..tuned_config(graph, seed)
    })
    .run(graph);
    assert_eq!(
        &result.cover, plain,
        "checkpointing must not change the cover"
    );
    let stats = result.checkpoint;
    CkptLeg {
        rounds: stats.rounds_checkpointed,
        last_bytes: stats.last_bytes,
        last_write_ns: stats.last_write_ns,
        total_write_ns: stats.total_write_ns,
        overhead_pct: 100.0 * stats.total_write_ns as f64
            / (result.elapsed.as_nanos() as f64).max(1.0),
    }
}

/// Largest share of a case's end-to-end wall time that may fall outside
/// every named phase (`unattributed_ns`) before the gate fails: the phases
/// must explain where a run's time goes.
const MAX_UNATTRIBUTED_SHARE: f64 = 0.05;

/// Cases (`family/nodes`) whose spectral solve is known to stop at its
/// step budget unconverged: on the 1M-node LFR graph the λ_min solve runs
/// all its steps (ROADMAP, the million-node λ_min item). The convergence
/// gate lets these through, and the report lists them.
const SPECTRAL_KNOWN_FAILURES: [&str; 1] = ["lfr/1000000"];

/// Largest ba-hub size for which the unbudgeted reference run is cheap
/// enough to repeat on every bench invocation. Above this the reference
/// would dominate wall-clock (it is the multi-minute regime the budgets
/// exist to avoid), so the quality fields come from the smaller cases.
const QUALITY_REF_MAX_NODES: usize = 30_000;

/// The graph families of the bench. Daisy scales by *flower count*
/// (200-node flowers in a daisy tree), keeping community size constant as
/// n grows — the regime of the paper's Fig. 6 flat curve. `ba-hub`
/// doubles Barabási–Albert's attachment count: denser hubs mean more
/// ascents converging to overlapping near-duplicates, which is exactly
/// the workload that stresses dedup and merge rather than the ascent
/// inner loop (the regression class this bench phase-times).
fn make_graph(family: &str, n: usize, seed: u64) -> CsrGraph {
    match family {
        "lfr" => lfr(&LfrParams::timing(n, 20, 100, seed)).graph,
        "ba" => {
            let mut rng = StdRng::seed_from_u64(seed);
            barabasi_albert(n, 8, &mut rng)
        }
        "ba-hub" => {
            let mut rng = StdRng::seed_from_u64(seed);
            barabasi_albert(n, 16, &mut rng)
        }
        "daisy" => {
            let flower = 200.min(n.max(10));
            let k = (n / flower).saturating_sub(1);
            daisy_tree(&DaisyParams::default_shape(flower), k, 0.3, seed).graph
        }
        other => panic!("unknown family {other:?}"),
    }
}

/// A previously recorded case, read from the baseline report. The phase
/// fields are 0 when the baseline predates phase timing (pre-phase
/// snapshots stay comparable for ns/move and end-to-end).
struct BaselineCase {
    family: String,
    nodes: usize,
    ns_per_move: f64,
    end_to_end_secs: f64,
    dedup_ns: u64,
    merge_ns: u64,
    theta_vs_unbudgeted: Option<f64>,
}

/// The gateable cases of a baseline report: those carrying the ns/move
/// and end-to-end fields the gate compares.
fn parse_baseline(report: &Value) -> Vec<BaselineCase> {
    let Some(Value::Array(cases)) = report.get("cases") else {
        return Vec::new();
    };
    cases
        .iter()
        .filter_map(|case| {
            let u64_of = |key| case.get(key).and_then(Value::as_u64);
            let f64_of = |key| case.get(key).and_then(Value::as_f64);
            Some(BaselineCase {
                family: case.get("family")?.as_str()?.to_string(),
                nodes: usize::try_from(u64_of("nodes")?).ok()?,
                ns_per_move: f64_of("ns_per_move")?,
                end_to_end_secs: f64_of("end_to_end_secs")?,
                dedup_ns: u64_of("dedup_ns").unwrap_or(0),
                merge_ns: u64_of("merge_ns").unwrap_or(0),
                theta_vs_unbudgeted: f64_of("theta_vs_unbudgeted"),
            })
        })
        .collect()
}

fn case_report(case: &Case, baseline: Option<&BaselineCase>) -> Value {
    let e2e = &case.end_to_end;
    let phases = &e2e.phases;
    let mut out = object! {
        "family": case.family,
        "nodes": case.nodes,
        "edges": case.edges,
        "ascents": case.ascent.ascents,
        "moves": case.ascent.moves,
        "ascent_total_ns": case.ascent.total_ns,
        "ns_per_move": case.ascent.ns_per_move,
        "moves_per_sec": case.ascent.moves_per_sec,
        "end_to_end_secs": e2e.secs,
        "seeds_tried": e2e.seeds_tried,
        "communities": e2e.communities,
        "coverage": e2e.coverage,
        "halt": e2e.halt,
        "spectral_ns": phases.spectral_ns,
        "setup_ns": phases.setup_ns,
        "ascent_ns": phases.ascent_ns,
        "dedup_ns": phases.dedup_ns,
        "merge_ns": phases.merge_ns,
        "orphan_ns": phases.orphan_ns,
        "unattributed_ns": phases.unattributed_ns,
        "spectral_iterations": e2e.spectral_iterations,
        "spectral_converged": e2e.spectral_converged,
    };
    if let (Some(th), Some(om)) = (case.theta_vs_unbudgeted, case.omega_vs_unbudgeted) {
        out.push("theta_vs_unbudgeted", th);
        out.push("omega_vs_unbudgeted", om);
    }
    if let Some(c) = &case.ckpt {
        out.push("ckpt_rounds", c.rounds);
        out.push("ckpt_last_bytes", c.last_bytes);
        out.push("ckpt_last_write_ns", c.last_write_ns);
        out.push("ckpt_total_write_ns", c.total_write_ns);
        out.push("ckpt_overhead_pct", c.overhead_pct);
    }
    if let Some(b) = baseline {
        out.push("before_ns_per_move", b.ns_per_move);
        out.push(
            "ns_per_move_ratio",
            case.ascent.ns_per_move / b.ns_per_move.max(1e-9),
        );
        out.push("before_end_to_end_secs", b.end_to_end_secs);
        out.push("end_to_end_speedup", b.end_to_end_secs / e2e.secs.max(1e-9));
        if b.dedup_ns + b.merge_ns > 0 {
            out.push("before_dedup_ns", b.dedup_ns);
            out.push("before_merge_ns", b.merge_ns);
        }
    }
    out
}

fn main() {
    let args = Args::parse();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let seed: u64 = args.get("seed", 42);
    // Smoke mode only changes the default; an explicit --sizes still wins
    // (same convention as parallel_scaling's --nodes).
    let default_sizes = if smoke {
        "3000"
    } else {
        "10000,100000,1000000"
    };
    let sizes: Vec<usize> = {
        let raw: String = args.get("sizes", default_sizes.to_string());
        raw.split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid value for --sizes: {raw:?}");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    let baseline_path: String = args.get(
        "baseline",
        results_dir()
            .join("BENCH_hotpath_baseline.json")
            .display()
            .to_string(),
    );
    // A missing or unparseable baseline fails the smoke gate below: the
    // gate must compare something to pass.
    let baseline_report = oca_bench::report::read(&baseline_path);
    let (baseline, baseline_rss) = match &baseline_report {
        Ok(report) => (
            parse_baseline(report),
            report
                .get("peak_rss_bytes")
                .and_then(Value::as_u64)
                .unwrap_or(0),
        ),
        Err(_) => (Vec::new(), 0),
    };

    println!(
        "hot path: sequential ascent loop, sizes {sizes:?}, seed {seed}{}",
        if smoke { " (smoke mode)" } else { "" }
    );

    let families_raw: String = args.get("families", String::new());
    let explicit_families: Option<Vec<String>> = if families_raw.is_empty() {
        None
    } else {
        Some(
            families_raw
                .split(',')
                .map(|f| f.trim().to_string())
                .collect(),
        )
    };

    let mut cases: Vec<Case> = Vec::new();
    for &n in &sizes {
        for family in ["lfr", "ba", "ba-hub", "daisy"] {
            match &explicit_families {
                Some(want) if !want.iter().any(|f| f == family) => continue,
                Some(_) => {}
                // BA variants at the million-node point are opt-in (see
                // module docs).
                None if family.starts_with("ba") && n >= 1_000_000 => {
                    eprintln!(
                        "{family}/{n}: skipped by default (pass --families {family} to include)"
                    );
                    continue;
                }
                None => {}
            }
            eprint!("{family}/{n}: gen");
            let graph = make_graph(family, n, seed);
            // Enough ascents for a stable ns/move without making the 1M
            // point take minutes: the ascent count is capped, the move
            // count reported alongside.
            let ascents = (2 * n).clamp(200, 20_000);
            eprint!(" ascents");
            let ascent = bench_ascents(&graph, ascents, seed);
            eprint!(" e2e");
            let (end_to_end, cover) = bench_end_to_end(&graph, tuned_config(&graph, seed));
            // The quality check: rerun ba-hub with the budgets/pruning off
            // and score the budgeted cover against that reference. Only on
            // the hub family (the one the budgets reshape) and only where
            // the unbudgeted run is affordable.
            let (theta_vs, omega_vs) = if family == "ba-hub" && n <= QUALITY_REF_MAX_NODES {
                eprint!(" ref");
                let unbudgeted = OcaConfig {
                    search: SearchConfig::default(),
                    ..tuned_config(&graph, seed)
                };
                let (_, reference) = bench_end_to_end(&graph, unbudgeted);
                (
                    Some(theta(&reference, &cover)),
                    Some(omega_index(&reference, &cover)),
                )
            } else {
                (None, None)
            };
            // The checkpointed second leg: lfr is the paper's reference
            // family and the one `detect --checkpoint` targets, so its
            // ckpt_* telemetry rides along with the hot-path record.
            let ckpt = if family == "lfr" && n <= CKPT_LEG_MAX_NODES {
                eprint!(" ckpt");
                Some(bench_checkpointed(&graph, seed, &cover))
            } else {
                None
            };
            eprintln!(" done ({:.1}s)", end_to_end.secs);
            cases.push(Case {
                family,
                nodes: graph.node_count(),
                edges: graph.edge_count(),
                ascent,
                end_to_end,
                theta_vs_unbudgeted: theta_vs,
                omega_vs_unbudgeted: omega_vs,
                ckpt,
            });
        }
    }
    let peak_rss = peak_rss_bytes();

    let find_baseline = |case: &Case| {
        baseline
            .iter()
            .find(|b| b.family == case.family && b.nodes == case.nodes)
    };

    let mut table = Table::new([
        "graph",
        "nodes",
        "edges",
        "ns/move",
        "moves/s",
        "e2e secs",
        "off-ascent",
        "communities",
        "vs before",
    ]);
    for case in &cases {
        let phases = &case.end_to_end.phases;
        let off_ascent_ns = phases.dedup_ns + phases.merge_ns + phases.orphan_ns;
        table.row([
            case.family.to_string(),
            case.nodes.to_string(),
            case.edges.to_string(),
            format!("{:.1}", case.ascent.ns_per_move),
            format!("{:.2e}", case.ascent.moves_per_sec),
            format!("{:.3}", case.end_to_end.secs),
            format!("{:.3}", off_ascent_ns as f64 / 1e9),
            case.end_to_end.communities.to_string(),
            find_baseline(case).map_or("-".to_string(), |b| {
                format!("{:.2}x", b.end_to_end_secs / case.end_to_end.secs.max(1e-9))
            }),
        ]);
    }
    print!("{}", table.render());
    println!("peak RSS: {:.1} MiB", peak_rss as f64 / (1024.0 * 1024.0));

    let mut fields = object! {
        "rng_seed": seed,
        "peak_rss_bytes": peak_rss,
        "spectral_known_failures": SPECTRAL_KNOWN_FAILURES.to_vec(),
    };
    if baseline_rss > 0 {
        fields.push("before_peak_rss_bytes", baseline_rss);
        fields.push("peak_rss_ratio", peak_rss as f64 / baseline_rss as f64);
    }
    let case_reports: Vec<Value> = cases
        .iter()
        .map(|case| case_report(case, find_baseline(case)))
        .collect();
    fields.push("cases", case_reports);
    let json = report(
        "hot_path",
        smoke,
        &format!("lfr/ba/ba-hub/daisy sweep, sizes {sizes:?}"),
        fields,
    );
    // The baseline is committed even when it is a smoke snapshot: the
    // smoke gate reads it from `results/`.
    let written = if write_baseline {
        oca_bench::report::write_in(&results_dir(), "BENCH_hotpath_baseline.json", &json)
    } else {
        oca_bench::report::write("BENCH_hotpath.json", &json)
    };
    written.unwrap_or_else(|e| {
        eprintln!("could not write the report: {e}");
        std::process::exit(1);
    });

    // Regression gate: ns/move must stay within 25% of the baseline
    // snapshot for every case the baseline also measured, and the
    // off-ascent phases (dedup + merge) must not blow up either — the
    // BA-100k collapse this bench was extended for sat entirely outside
    // ns/move. Phase wall-clock is noisier than ns/move, so its gate is
    // wider: fail only past 1.5x the baseline plus a 10 ms grace (tiny
    // smoke-mode phases never trip on jitter, a reintroduced quadratic
    // sweep still does). The gate never passes vacuously: in smoke mode a
    // missing or unparseable baseline fails, and so do zero matches (a
    // misconfigured snapshot, e.g. a full-mode baseline checked against a
    // smoke run) rather than silently gating nothing.
    let mut regressed = false;
    // Attribution gate, no baseline needed: the named phases must account
    // for all but a sliver of each run, and the spectral solve must
    // converge unless the case is a listed known failure.
    for case in &cases {
        let label = format!("{}/{}", case.family, case.nodes);
        let e2e = &case.end_to_end;
        let share = e2e.phases.unattributed_ns as f64 / (e2e.secs * 1e9).max(1.0);
        if share > MAX_UNATTRIBUTED_SHARE {
            eprintln!(
                "REGRESSION: {label} unattributed_ns is {:.2}% of end-to-end (> {:.0}%)",
                100.0 * share,
                100.0 * MAX_UNATTRIBUTED_SHARE,
            );
            regressed = true;
        }
        if !e2e.spectral_converged && !SPECTRAL_KNOWN_FAILURES.contains(&label.as_str()) {
            eprintln!(
                "REGRESSION: {label} spectral solve did not converge in {} steps",
                e2e.spectral_iterations
            );
            regressed = true;
        }
    }
    let mut matched = 0usize;
    for case in &cases {
        if let Some(b) = find_baseline(case) {
            matched += 1;
            let ratio = case.ascent.ns_per_move / b.ns_per_move.max(1e-9);
            if ratio > 1.25 {
                eprintln!(
                    "REGRESSION: {}/{} ns/move {:.1} vs baseline {:.1} ({:.2}x > 1.25x)",
                    case.family, case.nodes, case.ascent.ns_per_move, b.ns_per_move, ratio
                );
                regressed = true;
            }
            let off_ascent = case.end_to_end.phases.dedup_ns + case.end_to_end.phases.merge_ns;
            let before = b.dedup_ns + b.merge_ns;
            if before > 0 && off_ascent > before + before / 2 + 10_000_000 {
                eprintln!(
                    "REGRESSION: {}/{} dedup+merge {:.1}ms vs baseline {:.1}ms (> 1.5x + 10ms)",
                    case.family,
                    case.nodes,
                    off_ascent as f64 / 1e6,
                    before as f64 / 1e6,
                );
                regressed = true;
            }
            // Hub-stress gate: the budgeted ba-hub end-to-end must hold
            // both the wall-clock win (within 2x baseline + 1 s grace for
            // small-case jitter) and the quality floor (θ against the
            // unbudgeted reference no more than 0.10 below the baseline's).
            if case.family == "ba-hub" {
                if case.end_to_end.secs > 2.0 * b.end_to_end_secs + 1.0 {
                    eprintln!(
                        "REGRESSION: {}/{} end-to-end {:.2}s vs baseline {:.2}s (> 2x + 1s)",
                        case.family, case.nodes, case.end_to_end.secs, b.end_to_end_secs,
                    );
                    regressed = true;
                }
                if let (Some(th), Some(before_th)) =
                    (case.theta_vs_unbudgeted, b.theta_vs_unbudgeted)
                {
                    if th < before_th - 0.10 {
                        eprintln!(
                            "REGRESSION: {}/{} theta_vs_unbudgeted {:.3} vs baseline {:.3} \
                             (quality floor is baseline - 0.10)",
                            case.family, case.nodes, th, before_th,
                        );
                        regressed = true;
                    }
                }
            }
        }
    }
    if regressed {
        std::process::exit(1);
    }
    if let Err(e) = &baseline_report {
        eprintln!("regression gate: no usable baseline ({e})");
        if smoke {
            std::process::exit(1);
        }
    } else if matched == 0 {
        eprintln!(
            "regression gate: baseline {baseline_path} matched none of the {} cases \
             (regenerate it with the sizes this run used, e.g. --smoke --write-baseline)",
            cases.len()
        );
        if smoke {
            std::process::exit(1);
        }
    } else {
        println!("regression gate: PASS ({matched} cases within 25% of baseline ns/move)");
    }
}
