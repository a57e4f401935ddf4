//! Serving-layer latency bench: stands up `oca-serve` on an LFR graph,
//! drives sustained `query`/`local` load from concurrent clients while a
//! background recompute keeps publishing fresh epochs, and reports exact
//! client-side p50/p99 per endpoint to `results/BENCH_serve.json` (fields
//! documented in README.md).
//!
//! Full mode measures the paper-scale serving target — LFR with one
//! million nodes — and **gates** on `query` p99 ≤ 1 ms: the cover-index
//! lookup path must stay index-speed no matter what the background
//! recompute is doing. `local` latency is reported but not gated (a
//! seeded ascent is real algorithmic work, not an index probe).
//!
//! ```text
//! cargo run -p oca-bench --release --bin query_latency            # LFR-1M
//! cargo run -p oca-bench --release --bin query_latency -- --smoke # 10k CI gate
//! ```

use oca::{CStrategy, LocalConfig};
use oca_bench::report::report;
use oca_bench::{fixed_c_recompute, latency, quantile, Args, CancelOnDrop, LatencyUnit, Table};
use oca_gen::{lfr, LfrParams};
use oca_graph::{json::Value, object};
use oca_serve::{Client, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one client thread measured: exact per-request nanoseconds.
#[derive(Default)]
struct ClientSamples {
    query_ns: Vec<u64>,
    local_ns: Vec<u64>,
    errors: u64,
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = Args::parse();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed: u64 = args.get("seed", 42);
    let nodes: usize = args.get("nodes", if smoke { 10_000 } else { 1_000_000 });
    let secs: f64 = args.get("secs", if smoke { 2.0 } else { 10.0 });
    // Closed-loop load matched to the host: on an oversubscribed box the
    // bench would otherwise measure scheduler queueing between its own
    // client threads, not serving latency.
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients: usize = args.get("clients", host.min(4));
    let workers: usize = args.get("workers", host.clamp(2, 4));
    let recompute_ms: u64 = args.get("recompute-millis", if smoke { 250 } else { 1000 });
    // Sized so a recompute round completes (and so publishes an epoch)
    // well inside the measurement window even on a single busy core.
    let recompute_seeds: usize = args.get("recompute-seeds", if smoke { 200 } else { 400 });
    let fixed_c: f64 = args.get("fixed-c", 0.75);
    // One in `local-every` requests is a seeded ascent; the rest are
    // index lookups — a read-heavy mix, like a deployed cover service.
    let local_every: usize = args.get("local-every", 16).max(1);

    println!(
        "query latency: oca-serve under sustained load, n={nodes}, {clients} clients x {secs}s, \
         {workers} workers, recompute every {recompute_ms}ms{}",
        if smoke { " (smoke mode)" } else { "" }
    );

    let t0 = Instant::now();
    let params = LfrParams::timing(nodes, 500.min(nodes / 2), 700.min(nodes - 1), seed);
    let bench = lfr(&params);
    let graph = Arc::new(bench.graph);
    println!(
        "generated lfr n={} m={} with {} ground-truth communities in {:.1}s",
        graph.node_count(),
        graph.edge_count(),
        bench.ground_truth.len(),
        t0.elapsed().as_secs_f64()
    );

    let config = ServeConfig {
        workers,
        seed,
        recompute_interval: Some(Duration::from_millis(recompute_ms)),
        max_duration: None,
        local: LocalConfig {
            // Fixed c keeps startup graph-size-independent.
            c: CStrategy::Fixed(fixed_c),
            ..ServeConfig::default().local
        },
        ..Default::default()
    };
    // The background refresh, with the serving config's fixed c.
    let recompute = fixed_c_recompute(fixed_c, recompute_seeds);

    let server = Server::new(
        Arc::clone(&graph),
        bench.ground_truth,
        config,
        Some(recompute),
    )
    .unwrap_or_else(|e| panic!("server construction failed: {e}"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let n = graph.node_count() as u64;

    let mut samples: Vec<ClientSamples> = Vec::new();
    let mut served = None;
    std::thread::scope(|scope| {
        let _guard = CancelOnDrop(server.cancel_token());
        let server = &server;
        let run = scope.spawn(move || server.run(listener));
        let load = |id: usize| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37 + id as u64));
            let mut client = Client::connect(addr).expect("connect");
            let mut out = ClientSamples::default();
            let deadline = Instant::now() + Duration::from_secs_f64(secs);
            let mut i = 0usize;
            while Instant::now() < deadline {
                let v = rng.random_range(0..n);
                i += 1;
                let (line, bucket) = if i % local_every == 0 {
                    (format!("local {v}"), true)
                } else {
                    (format!("query {v}"), false)
                };
                let start = Instant::now();
                let response = client.request(&line).expect("request");
                let nanos = start.elapsed().as_nanos() as u64;
                if bucket {
                    out.local_ns.push(nanos);
                } else {
                    out.query_ns.push(nanos);
                }
                let ok =
                    Value::parse(&response).is_ok_and(|r| r.get("ok") == Some(&Value::Bool(true)));
                if !ok {
                    out.errors += 1;
                }
            }
            out
        };
        let handles: Vec<_> = (0..clients)
            .map(|id| scope.spawn(move || load(id)))
            .collect();
        for handle in handles {
            samples.push(handle.join().expect("client thread"));
        }
        let mut control = Client::connect(addr).expect("connect for shutdown");
        let _ = control.request("shutdown").expect("shutdown");
        served = Some(run.join().expect("server thread").expect("server run"));
    });
    let served = served.expect("server report");

    let mut query_ns: Vec<u64> = samples.iter().flat_map(|s| s.query_ns.clone()).collect();
    let mut local_ns: Vec<u64> = samples.iter().flat_map(|s| s.local_ns.clone()).collect();
    let errors: u64 = samples.iter().map(|s| s.errors).sum();
    query_ns.sort_unstable();
    local_ns.sort_unstable();
    let total = query_ns.len() + local_ns.len();
    let throughput = total as f64 / secs;

    let mut table = Table::new(["endpoint", "count", "p50_us", "p99_us"]);
    for (name, sorted) in [("query", &query_ns), ("local", &local_ns)] {
        table.row([
            name.to_string(),
            sorted.len().to_string(),
            format!("{:.1}", quantile(sorted, 0.50, LatencyUnit::Micros)),
            format!("{:.1}", quantile(sorted, 0.99, LatencyUnit::Micros)),
        ]);
    }
    print!("{}", table.render());
    println!(
        "throughput {throughput:.0} req/s over {clients} clients; {} epochs published \
         (final epoch {}); {errors} request errors",
        served.recomputes, served.final_epoch
    );

    let query_p99 = quantile(&query_ns, 0.99, LatencyUnit::Micros);
    let pass = query_p99 <= 1_000.0 && errors == 0;

    let json = report(
        "query_latency",
        smoke,
        &format!(
            "lfr-timing n={} communities 500..700 seed {seed}",
            graph.node_count()
        ),
        object! {
            "rng_seed": seed,
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "workers": workers,
            "clients": clients,
            "duration_secs": secs,
            "local_every": local_every,
            "recompute_interval_ms": recompute_ms,
            "recompute_seed_budget": recompute_seeds,
            "recomputes_published": served.recomputes,
            "final_epoch": served.final_epoch,
            "client_query": latency(&query_ns, LatencyUnit::Micros),
            "client_local": latency(&local_ns, LatencyUnit::Micros),
            "throughput_req_per_sec": throughput,
            "request_errors": errors,
            "server_requests": served.requests,
            "server_errors": served.errors,
            "gate": object! { "query_p99_limit_us": 1000.0, "pass": pass },
        },
    );
    oca_bench::report::write("BENCH_serve.json", &json).unwrap_or_else(|e| {
        eprintln!("could not write the report: {e}");
        std::process::exit(1);
    });

    if pass {
        println!("latency gate: PASS (query p99 {query_p99:.1}us <= 1000us, no request errors)");
    } else {
        eprintln!(
            "latency gate: FAIL — query p99 {query_p99:.1}us (limit 1000us), {errors} errors"
        );
        std::process::exit(1);
    }
}
