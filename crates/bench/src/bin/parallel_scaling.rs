//! Parallel scaling bench: sweeps the OCA driver's thread count on
//! generated graphs, records throughput/speedup, and *verifies* the
//! driver's determinism contract — every thread count must produce a
//! cover, seeds-tried cutoff, `c` and `λ_min` identical (to the bit) to
//! the 1-thread run. Results go
//! to `results/BENCH_parallel.json` (fields documented in README.md); a
//! failed determinism check exits non-zero, so CI can gate on it.
//!
//! ```text
//! cargo run -p oca-bench --release --bin parallel_scaling -- --nodes 4000 --threads 1,2,4,8
//! cargo run -p oca-bench --release --bin parallel_scaling -- --smoke   # tiny CI gate
//! ```

use oca::{HaltingConfig, Oca, OcaConfig, OcaResult};
use oca_bench::report::report;
use oca_bench::{secs, Args, Table};
use oca_gen::{lfr, planted_partition, LfrParams};
use oca_graph::{json::Value, object, CsrGraph};

struct Point {
    threads: usize,
    result: OcaResult,
    deterministic: bool,
}

fn config(n: usize, seed: u64, threads: usize, batch: usize) -> OcaConfig {
    OcaConfig {
        halting: HaltingConfig {
            max_seeds: (4 * n).max(100),
            target_coverage: 0.99,
            stagnation_limit: 200,
            ..Default::default()
        },
        rng_seed: seed,
        threads,
        batch,
        ..Default::default()
    }
}

/// Runs the thread sweep on one graph; `points[0]` is the reference run.
fn sweep(graph: &CsrGraph, threads: &[usize], seed: u64, batch: usize) -> Vec<Point> {
    let mut points: Vec<Point> = Vec::new();
    for &t in threads {
        let result = Oca::new(config(graph.node_count(), seed, t, batch)).run(graph);
        let deterministic = points.first().is_none_or(|reference| {
            result.cover == reference.result.cover
                && result.seeds_tried == reference.result.seeds_tried
                && result.c.to_bits() == reference.result.c.to_bits()
                && result.lambda_min.to_bits() == reference.result.lambda_min.to_bits()
        });
        points.push(Point {
            threads: t,
            result,
            deterministic,
        });
        eprint!(".");
    }
    points
}

fn graph_report(family: &str, graph: &CsrGraph, points: &[Point]) -> Value {
    let base_secs = points[0].result.elapsed.as_secs_f64();
    let points: Vec<Value> = points
        .iter()
        .map(|p| {
            let s = p.result.elapsed.as_secs_f64();
            object! {
                "threads": p.threads,
                "secs": s,
                "seeds_tried": p.result.seeds_tried,
                "communities": p.result.cover.len(),
                "halt": p.result.halt_reason.map_or("none", |r| r.label()),
                "c": p.result.c,
                "lambda_min": p.result.lambda_min,
                "throughput_seeds_per_sec": p.result.seeds_tried as f64 / s.max(1e-9),
                "speedup": base_secs / s.max(1e-9),
                "identical_to_1_thread": p.deterministic,
            }
        })
        .collect();
    object! {
        "family": family,
        "nodes": graph.node_count(),
        "edges": graph.edge_count(),
        "points": points,
    }
}

fn main() {
    let args = Args::parse();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed: u64 = args.get("seed", 42);
    let batch: usize = args.get("batch", 64);
    let nodes: usize = args.get("nodes", if smoke { 300 } else { 4000 });
    let mut threads: Vec<usize> = if smoke {
        vec![1, 2]
    } else {
        let raw: String = args.get("threads", "1,2,4,8".to_string());
        raw.split(',')
            .map(|t| {
                t.trim().parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid value for --threads: {raw:?}");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    // The determinism verdict is "identical to the 1-thread run", so the
    // sweep always starts with an actual 1-thread reference.
    threads.retain(|&t| t != 1);
    threads.insert(0, 1);

    println!(
        "parallel scaling: OCA ticket-ordered driver, threads {threads:?}, batch {batch}, seed {seed}{}",
        if smoke { " (smoke mode)" } else { "" }
    );

    let mut graphs: Vec<(&str, CsrGraph)> =
        vec![("lfr", lfr(&LfrParams::small(nodes, 0.3, seed)).graph)];
    if !smoke {
        let pp = planted_partition(nodes / 50, 50, 0.3, 0.01, seed);
        graphs.push(("planted", pp.graph));
    }

    let mut table = Table::new([
        "graph",
        "threads",
        "secs",
        "seeds",
        "communities",
        "speedup",
        "deterministic",
    ]);
    let mut all_points: Vec<(&str, CsrGraph, Vec<Point>)> = Vec::new();
    for (family, graph) in graphs {
        let points = sweep(&graph, &threads, seed, batch);
        eprintln!();
        let base_secs = points[0].result.elapsed.as_secs_f64();
        for p in &points {
            table.row([
                family.to_string(),
                p.threads.to_string(),
                secs(p.result.elapsed),
                p.result.seeds_tried.to_string(),
                p.result.cover.len().to_string(),
                format!(
                    "{:.2}",
                    base_secs / p.result.elapsed.as_secs_f64().max(1e-9)
                ),
                p.deterministic.to_string(),
            ]);
        }
        all_points.push((family, graph, points));
    }
    print!("{}", table.render());

    let pass = all_points
        .iter()
        .all(|(_, _, points)| points.iter().all(|p| p.deterministic));
    let graphs: Vec<Value> = all_points
        .iter()
        .map(|(family, graph, points)| graph_report(family, graph, points))
        .collect();
    let json = report(
        "parallel_scaling",
        smoke,
        &format!(
            "lfr{} n={nodes} mu=0.3",
            if smoke { "" } else { "+planted" }
        ),
        object! {
            "rng_seed": seed,
            "batch": batch,
            "thread_counts": threads,
            "determinism": if pass { "pass" } else { "fail" },
            "graphs": graphs,
        },
    );
    oca_bench::report::write("BENCH_parallel.json", &json).unwrap_or_else(|e| {
        eprintln!("could not write the report: {e}");
        std::process::exit(1);
    });

    if pass {
        println!(
            "determinism check: PASS (identical cover, cutoff, c and lambda_min at every thread count)"
        );
    } else {
        eprintln!("determinism check: FAIL — parallel output diverged from the 1-thread run");
        std::process::exit(1);
    }
}
