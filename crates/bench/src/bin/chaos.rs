//! Fault-injection harness: stands up `oca-serve` on an LFR graph with
//! every fail point armed — request panics, stalls, worker kills,
//! recompute failures and panics — then drives it simultaneously with
//! well-formed clients (whose responses are the gate) and hostile ones
//! (garbage bytes, oversized lines, torn writes, byte-at-a-time slowpokes,
//! idlers). A separate phase `SIGKILL`s subprocesses mid-`save_cover_path`
//! / mid-`write_ocg_path` and verifies the surviving file every time.
//!
//! Gates (exit 1 on any failure), written to `results/BENCH_chaos.json`:
//!
//! * zero lost or torn responses to well-formed requests — every request
//!   gets exactly one parseable JSON line, even while panics fire;
//! * under-fault `query` p99 within budget (50 ms);
//! * overload burst observes at least one typed `overloaded` fast-reject;
//! * the armed fail points actually fired (the run is not vacuous);
//! * every kill-subprocess round leaves a cover / `.ocg` file that loads
//!   and verifies (old file intact or new file complete).
//!
//! ```text
//! cargo run -p oca-bench --release --bin chaos            # 100k full run
//! cargo run -p oca-bench --release --bin chaos -- --smoke # 5k CI gate
//! ```

use oca::{CStrategy, LocalConfig};
use oca_bench::report::report;
use oca_bench::{fixed_c_recompute, latency, quantile, Args, CancelOnDrop, LatencyUnit, Table};
use oca_gen::{lfr, LfrParams};
use oca_graph::{from_edges, json::Value, object, Community, Cover};
use oca_serve::{persist, Client, FaultPlan, FaultSpec, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one well-formed client measured. Any response that is not exactly
/// one parseable JSON line is `torn`; any I/O failure is `lost`.
#[derive(Default)]
struct ClientTally {
    sent: u64,
    answered: u64,
    lost: u64,
    torn: u64,
    error_responses: u64,
    partial_responses: u64,
    query_ns: Vec<u64>,
    local_ns: Vec<u64>,
    topk_ns: Vec<u64>,
}

// ---------------------------------------------------------------------
// Crash-writer subprocess modes: write the same file over and over until
// the parent SIGKILLs us. The payloads are deterministic and big enough
// that kills land mid-write.
// ---------------------------------------------------------------------

/// Cover written by the `--crash-writer` child: 200k nodes in 2000-node
/// blocks (~0.8 MB on disk).
fn crash_cover() -> Cover {
    let n = 200_000u32;
    let communities: Vec<Community> = (0..n)
        .step_by(2000)
        .map(|base| Community::from_raw((base..base + 2000).collect::<Vec<_>>()))
        .collect();
    Cover::new(n as usize, communities)
}

/// Ring graph written by the `--crash-writer-ocg` child (~1.6 MB on disk).
fn crash_graph() -> oca_graph::CsrGraph {
    let n = 200_000u32;
    let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    from_edges(n as usize, edges)
}

fn run_crash_writer(mode: &str, path: &str) -> ! {
    match mode {
        "--crash-writer" => {
            let cover = crash_cover();
            loop {
                if let Err(e) = persist::save_cover_path(path, &cover, 0.5) {
                    eprintln!("crash-writer save failed: {e}");
                    std::process::exit(2);
                }
            }
        }
        "--crash-writer-ocg" => {
            let graph = crash_graph();
            loop {
                if let Err(e) =
                    oca_graph::write_ocg_path(&graph, None, oca_graph::BuildReport::default(), path)
                {
                    eprintln!("crash-writer ocg failed: {e}");
                    std::process::exit(2);
                }
            }
        }
        other => {
            eprintln!("unknown crash-writer mode {other}");
            std::process::exit(2);
        }
    }
}

/// One kill-subprocess variant: `rounds` spawn/kill/verify cycles against
/// the same target path, with staggered kill delays so some kills land
/// before the first write, some mid-write, some between writes.
struct CrashOutcome {
    rounds: u64,
    verified: u64,
    temp_debris: u64,
}

fn crash_report(outcome: &CrashOutcome) -> Value {
    object! {
        "kill_rounds": outcome.rounds,
        "verified": outcome.verified,
        "mid_write_kills": outcome.temp_debris,
    }
}

fn crash_phase<V>(mode: &str, path: &Path, rounds: u64, verify: V) -> CrashOutcome
where
    V: Fn(&Path) -> Result<(), String>,
{
    let exe = std::env::current_exe().expect("current_exe");
    let dir = path.parent().expect("crash dir");
    let mut verified = 0u64;
    let mut temp_debris = 0u64;
    for round in 0..rounds {
        let mut child = Command::new(&exe)
            .arg(mode)
            .arg(path)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn crash writer");
        // Stagger the kill across the write cycle; the writer loops, so
        // later kills still interrupt *some* write or rename.
        std::thread::sleep(Duration::from_millis(3 + round * 7));
        let _ = child.kill();
        let _ = child.wait();
        // SIGKILL mid-write leaves the temp file behind — evidence the
        // kill landed inside a write, never a damaged target.
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if name.to_string_lossy().contains(".tmp.") {
                    temp_debris += 1;
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        match verify(path) {
            Ok(()) => verified += 1,
            Err(e) => eprintln!("{mode} round {round}: target failed verification: {e}"),
        }
    }
    CrashOutcome {
        rounds,
        verified,
        temp_debris,
    }
}

// ---------------------------------------------------------------------
// Hostile clients. Each runs until the shared deadline, counting the
// connections it abused.
// ---------------------------------------------------------------------

fn chaos_connect(addr: SocketAddr) -> Option<TcpStream> {
    let stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    Some(stream)
}

fn read_response_line(stream: &mut TcpStream) -> Option<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) if byte[0] == b'\n' => return Some(String::from_utf8_lossy(&line).into_owned()),
            Ok(_) => line.push(byte[0]),
            Err(_) => return None,
        }
    }
}

fn garbage_client(addr: SocketAddr, deadline: Instant, seed: u64, conns: &AtomicU64) {
    let mut rng = StdRng::seed_from_u64(seed);
    while Instant::now() < deadline {
        if let Some(mut stream) = chaos_connect(addr) {
            conns.fetch_add(1, Ordering::Relaxed);
            let mut junk: Vec<u8> = (0..64).map(|_| rng.random_range(0..=255) as u8).collect();
            junk.push(b'\n');
            let _ = stream.write_all(&junk);
            let _ = read_response_line(&mut stream);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn oversized_client(addr: SocketAddr, deadline: Instant, conns: &AtomicU64) {
    let huge = vec![b'a'; 256 * 1024];
    while Instant::now() < deadline {
        if let Some(mut stream) = chaos_connect(addr) {
            conns.fetch_add(1, Ordering::Relaxed);
            let _ = stream.write_all(&huge);
            let _ = stream.write_all(b"\n");
            let _ = read_response_line(&mut stream);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn torn_client(addr: SocketAddr, deadline: Instant, conns: &AtomicU64) {
    while Instant::now() < deadline {
        if let Some(mut stream) = chaos_connect(addr) {
            conns.fetch_add(1, Ordering::Relaxed);
            // Half a request, no newline, then vanish.
            let _ = stream.write_all(b"query 12");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn slow_client(addr: SocketAddr, deadline: Instant, conns: &AtomicU64) {
    while Instant::now() < deadline {
        if let Some(mut stream) = chaos_connect(addr) {
            conns.fetch_add(1, Ordering::Relaxed);
            for &b in b"query 5\n" {
                if stream.write_all(&[b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = read_response_line(&mut stream);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn idle_client(addr: SocketAddr, deadline: Instant, idle: Duration, conns: &AtomicU64) {
    while Instant::now() < deadline {
        if let Some(stream) = chaos_connect(addr) {
            conns.fetch_add(1, Ordering::Relaxed);
            // Sit past the idle timeout; the reaper must free the worker.
            std::thread::sleep(idle + Duration::from_millis(200));
            drop(stream);
        }
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    // Crash-writer child modes re-enter here via `current_exe`; they
    // never return.
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() >= 3 && argv[1].starts_with("--crash-writer") {
        run_crash_writer(&argv[1], &argv[2]);
    }

    let args = Args::parse();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed: u64 = args.get("seed", 42);
    let nodes: usize = args.get("nodes", if smoke { 5_000 } else { 100_000 });
    let secs: f64 = args.get("secs", if smoke { 2.5 } else { 8.0 });
    let clients: usize = args.get("clients", if smoke { 2 } else { 4 });
    // Well-formed clients pin one worker each for the whole window, so the
    // pool must be larger than the client count for hostile traffic (and
    // worker kills) to get serviced at all.
    let workers: usize = args.get("workers", clients + 4);
    let crash_rounds: u64 = args.get("crash-rounds", if smoke { 4 } else { 8 });
    let idle_timeout = Duration::from_millis(500);
    let query_budget_ms = 50.0;

    // Injected panics unwind through `catch_unwind` boundaries that print
    // the default hook's backtrace first; silence exactly those so the
    // output stays readable, and keep the default hook for real bugs.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.starts_with("injected"));
        if !injected {
            default_hook(info);
        }
    }));

    println!(
        "chaos: fault-injected oca-serve, n={nodes}, {clients} well-formed clients x {secs}s, \
         {workers} workers, {crash_rounds} kill-subprocess rounds per format{}",
        if smoke { " (smoke mode)" } else { "" }
    );

    // --- Phase 1: kill -9 mid-save, verify the survivor every time -----
    let crash_dir = std::env::temp_dir().join(format!("oca-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&crash_dir).expect("crash dir");
    let cover_path = crash_dir.join("warm.cover");
    let ocg_path = crash_dir.join("graph.ocg");
    // Pre-seed valid "old" files so round 0 kills (before the child's
    // first write completes) still have something that must verify.
    persist::save_cover_path(&cover_path, &crash_cover(), 0.5).expect("seed cover");
    oca_graph::write_ocg_path(
        &crash_graph(),
        None,
        oca_graph::BuildReport::default(),
        &ocg_path,
    )
    .expect("seed ocg");

    let t0 = Instant::now();
    let cover_crash = crash_phase("--crash-writer", &cover_path, crash_rounds, |p| {
        persist::load_cover_path(p, None)
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
    let ocg_crash = crash_phase("--crash-writer-ocg", &ocg_path, crash_rounds, |p| {
        oca_graph::verify_ocg_path(p)
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
    let _ = std::fs::remove_dir_all(&crash_dir);
    println!(
        "crash phase: cover {}/{} verified, ocg {}/{} verified \
         ({} temp debris = kills that landed mid-write) in {:.1}s",
        cover_crash.verified,
        cover_crash.rounds,
        ocg_crash.verified,
        ocg_crash.rounds,
        cover_crash.temp_debris + ocg_crash.temp_debris,
        t0.elapsed().as_secs_f64()
    );

    // --- Phase 2: serve under sustained load with every fault armed ----
    let t1 = Instant::now();
    let params = LfrParams::timing(nodes, 100.min(nodes / 4), 300.min(nodes - 1), seed);
    let bench = lfr(&params);
    let graph = Arc::new(bench.graph);
    println!(
        "generated lfr n={} m={} in {:.1}s",
        graph.node_count(),
        graph.edge_count(),
        t1.elapsed().as_secs_f64()
    );

    let fault_spec = FaultSpec {
        panic_request_every: 89,
        stall_request_every: 127,
        // Longer than the request deadline, so stalled `local`/`topk`
        // requests observably come back as typed partial results.
        stall: Duration::from_millis(30),
        kill_worker_every_conns: 7,
        fail_recompute_every: 3,
        panic_recompute_every: 5,
    };
    let faults = FaultPlan::new(fault_spec);
    let fixed_c = 0.75;
    let config = ServeConfig {
        workers,
        seed,
        recompute_interval: Some(Duration::from_millis(100)),
        max_duration: None,
        max_pending: 64,
        max_line_bytes: 64 * 1024,
        request_deadline: Some(Duration::from_millis(25)),
        idle_timeout: Some(idle_timeout),
        faults: faults.clone(),
        local: LocalConfig {
            c: CStrategy::Fixed(fixed_c),
            ..ServeConfig::default().local
        },
    };
    let recompute = fixed_c_recompute(fixed_c, 100);

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

    let chaos_conns = AtomicU64::new(0);
    let mut tallies: Vec<ClientTally> = Vec::new();
    let mut overloaded_seen = 0u64;
    let mut final_stats = String::new();
    let mut served = None;
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        let _guard = CancelOnDrop(server.cancel_token());
        let server = &server;
        let chaos_conns = &chaos_conns;
        let run = scope.spawn(move || server.run(listener));

        // Hostile traffic for the whole window.
        let hostiles = vec![
            scope.spawn(move || garbage_client(addr, deadline, seed ^ 0xBAD, chaos_conns)),
            scope.spawn(move || oversized_client(addr, deadline, chaos_conns)),
            scope.spawn(move || torn_client(addr, deadline, chaos_conns)),
            scope.spawn(move || slow_client(addr, deadline, chaos_conns)),
            scope.spawn(move || idle_client(addr, deadline, idle_timeout, chaos_conns)),
        ];

        // Well-formed load: the gate. Every request must get exactly one
        // parseable JSON line back, no matter what is failing around it.
        let load = |id: usize| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x51EE + id as u64));
            let mut client = Client::connect(addr).expect("connect well-formed client");
            let mut tally = ClientTally::default();
            let mut i = 0usize;
            while Instant::now() < deadline {
                let v = rng.random_range(0..n);
                i += 1;
                let (line, bucket) = match i % 8 {
                    1 => (format!("local {v}"), 1),
                    5 => (format!("topk {v} 5"), 2),
                    _ => (format!("query {v}"), 0),
                };
                tally.sent += 1;
                let start = Instant::now();
                match client.request(&line) {
                    Ok(response) => {
                        let nanos = start.elapsed().as_nanos() as u64;
                        // Answered means exactly one JSON object with a
                        // boolean `ok`; anything else is torn.
                        let parsed = Value::parse(&response).ok();
                        let field = |key| parsed.as_ref().and_then(|r| r.get(key));
                        match field("ok") {
                            Some(&Value::Bool(ok)) => {
                                tally.answered += 1;
                                if !ok {
                                    tally.error_responses += 1;
                                }
                            }
                            _ => tally.torn += 1,
                        }
                        if field("partial") == Some(&Value::Bool(true)) {
                            tally.partial_responses += 1;
                        }
                        match bucket {
                            1 => tally.local_ns.push(nanos),
                            2 => tally.topk_ns.push(nanos),
                            _ => tally.query_ns.push(nanos),
                        }
                    }
                    Err(e) => {
                        eprintln!("well-formed client {id} lost a response: {e}");
                        tally.lost += 1;
                        // The connection is gone; reconnect and continue.
                        match Client::connect(addr) {
                            Ok(fresh) => client = fresh,
                            Err(_) => break,
                        }
                    }
                }
            }
            tally
        };
        let handles: Vec<_> = (0..clients)
            .map(|id| scope.spawn(move || load(id)))
            .collect();
        for handle in handles {
            tallies.push(handle.join().expect("well-formed client thread"));
        }
        for hostile in hostiles {
            hostile.join().expect("hostile client thread");
        }

        // --- Phase 3: overload burst. Pin every worker with a held
        // connection, then connect faster than the bounded queue drains;
        // the overflow must be fast-rejected with a typed line.
        let held: Vec<Client> = (0..workers)
            .map(|_| {
                let mut c = Client::connect(addr).expect("hold connect");
                c.request("query 0").expect("hold request");
                c
            })
            .collect();
        // Connect the whole burst before reading anything: the accept
        // loop parks the first `max_pending` and must fast-reject the
        // rest. Reading newest-first finds the rejections (whose line is
        // already on the wire) without waiting out the parked sockets.
        let burst: Vec<TcpStream> = (0..(64 + 32)).filter_map(|_| chaos_connect(addr)).collect();
        for mut stream in burst.into_iter().rev() {
            let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
            let response = read_response_line(&mut stream).and_then(|l| Value::parse(&l).ok());
            let kind = response
                .as_ref()
                .and_then(|r| r.get("error")?.get("kind")?.as_str());
            if kind == Some("overloaded") {
                overloaded_seen += 1;
            }
            if overloaded_seen >= 8 {
                break;
            }
        }
        drop(held);

        // Scrape server-side observability before shutting down; the
        // dropped connections free workers within one poll tick, but give
        // a slow box a few retries.
        let scrape = Instant::now() + Duration::from_secs(5);
        let (stats, mut control) = loop {
            let attempt =
                Client::connect(addr).and_then(|mut c| c.request("stats").map(|s| (s, c)));
            match attempt {
                Ok(pair) => break pair,
                Err(e) if Instant::now() < scrape => {
                    eprintln!("stats scrape retry: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("could not scrape stats before shutdown: {e}"),
            }
        };
        final_stats = stats;
        let _ = control.request("shutdown").expect("shutdown");
        drop(control);
        served = Some(run.join().expect("server thread").expect("server run"));
    });
    let served = served.expect("server report");
    let counts = faults.counts();

    let mut query_ns: Vec<u64> = tallies.iter().flat_map(|t| t.query_ns.clone()).collect();
    let mut local_ns: Vec<u64> = tallies.iter().flat_map(|t| t.local_ns.clone()).collect();
    let mut topk_ns: Vec<u64> = tallies.iter().flat_map(|t| t.topk_ns.clone()).collect();
    query_ns.sort_unstable();
    local_ns.sort_unstable();
    topk_ns.sort_unstable();
    let sent: u64 = tallies.iter().map(|t| t.sent).sum();
    let answered: u64 = tallies.iter().map(|t| t.answered).sum();
    let lost: u64 = tallies.iter().map(|t| t.lost).sum();
    let torn: u64 = tallies.iter().map(|t| t.torn).sum();
    let error_responses: u64 = tallies.iter().map(|t| t.error_responses).sum();
    let partial_responses: u64 = tallies.iter().map(|t| t.partial_responses).sum();
    let last_recovery_ms = Value::parse(&final_stats)
        .ok()
        .and_then(|stats| stats.get("recompute")?.get("last_recovery_ms")?.as_u64())
        .unwrap_or(0);

    let mut table = Table::new(["endpoint", "count", "p50_ms", "p99_ms"]);
    for (name, sorted) in [
        ("query", &query_ns),
        ("local", &local_ns),
        ("topk", &topk_ns),
    ] {
        table.row([
            name.to_string(),
            sorted.len().to_string(),
            format!("{:.2}", quantile(sorted, 0.50, LatencyUnit::Millis)),
            format!("{:.2}", quantile(sorted, 0.99, LatencyUnit::Millis)),
        ]);
    }
    print!("{}", table.render());
    println!(
        "well-formed: {answered}/{sent} answered ({lost} lost, {torn} torn, \
         {error_responses} typed errors, {partial_responses} partial); \
         {} hostile connections",
        chaos_conns.load(Ordering::Relaxed)
    );
    println!(
        "faults fired: {} request panics, {} stalls, {} worker kills, \
         {} recompute failures, {} recompute panics",
        counts.request_panics,
        counts.request_stalls,
        counts.worker_kills,
        counts.recompute_failures,
        counts.recompute_panics
    );
    println!("server: {}", served.summary_line());

    let query_p99 = quantile(&query_ns, 0.99, LatencyUnit::Millis);
    let faults_fired = counts.request_panics >= 1
        && counts.request_stalls >= 1
        && counts.worker_kills >= 1
        && counts.recompute_failures + counts.recompute_panics >= 1;
    let crash_ok =
        cover_crash.verified == cover_crash.rounds && ocg_crash.verified == ocg_crash.rounds;
    let pass = lost == 0
        && torn == 0
        && sent > 0
        && query_p99 <= query_budget_ms
        && overloaded_seen >= 1
        && faults_fired
        && crash_ok;

    let json = report(
        "chaos",
        smoke,
        &format!("lfr-timing n={} seed {seed}", graph.node_count()),
        object! {
            "rng_seed": seed,
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "workers": workers,
            "well_formed_clients": clients,
            "duration_secs": secs,
            "fault_spec": object! {
                "panic_request_every": fault_spec.panic_request_every,
                "stall_request_every": fault_spec.stall_request_every,
                "stall_ms": fault_spec.stall.as_millis(),
                "kill_worker_every_conns": fault_spec.kill_worker_every_conns,
                "fail_recompute_every": fault_spec.fail_recompute_every,
                "panic_recompute_every": fault_spec.panic_recompute_every,
            },
            "faults_fired": object! {
                "request_panics": counts.request_panics,
                "request_stalls": counts.request_stalls,
                "worker_kills": counts.worker_kills,
                "recompute_failures": counts.recompute_failures,
                "recompute_panics": counts.recompute_panics,
            },
            "well_formed": object! {
                "sent": sent,
                "answered": answered,
                "lost": lost,
                "torn": torn,
                "typed_errors": error_responses,
                "partial_results": partial_responses,
            },
            "hostile_connections": chaos_conns.load(Ordering::Relaxed),
            "overloaded_rejects_observed": overloaded_seen,
            "under_fault_latency": object! {
                "query": latency(&query_ns, LatencyUnit::Millis),
                "local": latency(&local_ns, LatencyUnit::Millis),
                "topk": latency(&topk_ns, LatencyUnit::Millis),
            },
            "server": object! {
                "connections": served.connections,
                "requests": served.requests,
                "errors": served.errors,
                "panics": served.panics,
                "respawns": served.respawns,
                "overloaded_rejects": served.overloaded_rejects,
                "oversized_lines": served.oversized_lines,
                "idle_reaped": served.idle_reaped,
                "deadline_hits": served.deadline_hits,
                "shutdown_rejects": served.shutdown_rejects,
                "recomputes_published": served.recomputes,
                "recompute_failures": served.recompute_failures,
                "recovery_ms_after_last_outage": last_recovery_ms,
                "degraded_at_exit": served.degraded,
                "final_epoch": served.final_epoch,
            },
            "crash_safety": object! {
                "cover": crash_report(&cover_crash),
                "ocg": crash_report(&ocg_crash),
            },
            "gate": object! {
                "zero_lost": lost == 0,
                "zero_torn": torn == 0,
                "query_p99_limit_ms": query_budget_ms,
                "query_p99_ok": query_p99 <= query_budget_ms,
                "overload_observed": overloaded_seen >= 1,
                "faults_fired": faults_fired,
                "crash_safe": crash_ok,
                "pass": pass,
            },
        },
    );
    oca_bench::report::write("BENCH_chaos.json", &json).unwrap_or_else(|e| {
        eprintln!("could not write the report: {e}");
        std::process::exit(1);
    });

    if pass {
        println!(
            "chaos gate: PASS ({answered}/{sent} answered, query p99 {query_p99:.2}ms <= \
             {query_budget_ms}ms, {overloaded_seen} overload rejects, crash-safe \
             {}/{} rounds)",
            cover_crash.verified + ocg_crash.verified,
            cover_crash.rounds + ocg_crash.rounds
        );
    } else {
        eprintln!(
            "chaos gate: FAIL — lost {lost}, torn {torn}, query p99 {query_p99:.2}ms \
             (limit {query_budget_ms}ms), overloaded seen {overloaded_seen}, \
             faults fired {faults_fired}, crash safe {crash_ok}"
        );
        std::process::exit(1);
    }
}
