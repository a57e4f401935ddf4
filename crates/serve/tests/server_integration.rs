//! End-to-end tests of the line-protocol server: every endpoint, typed
//! errors for malformed requests, background recompute epochs, and
//! graceful shutdown with drained in-flight requests.

use oca::{CStrategy, LocalConfig};
use oca_graph::json::Value;
use oca_graph::{from_edges, Community, Cover, CsrGraph};
use oca_serve::{Client, ServeConfig, Server};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Two 4-cliques joined by a single bridge edge.
fn two_cliques() -> CsrGraph {
    let mut edges = Vec::new();
    for base in [0u32, 4] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                edges.push((base + i, base + j));
            }
        }
    }
    edges.push((3, 4));
    from_edges(8, edges)
}

fn clique_cover() -> Cover {
    Cover::new(
        8,
        vec![
            Community::from_raw([0, 1, 2, 3]),
            Community::from_raw([4, 5, 6, 7]),
        ],
    )
}

fn fixed_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        seed: 42,
        local: LocalConfig {
            c: CStrategy::Fixed(0.9),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Cancels the server on drop so a panicking test body (an assertion
/// failure in the scope closure) still lets the server thread exit — the
/// scope would otherwise wait on it forever during unwinding.
struct CancelOnDrop(oca_graph::CancelToken);

impl Drop for CancelOnDrop {
    fn drop(&mut self) {
        self.0.cancel();
    }
}

/// Runs `body` against a served two-clique graph, then shuts down and
/// returns the final report.
fn with_server<F>(config: ServeConfig, body: F) -> oca_serve::ServeReport
where
    F: FnOnce(&mut Client, &Server) + Send,
{
    let graph = Arc::new(two_cliques());
    let recompute: Option<Box<oca_serve::RecomputeFn>> = if config.recompute_interval.is_some() {
        // A deterministic stand-in detection: republish the clique cover.
        Some(Box::new(|_graph, _seed, _cancel| Ok(clique_cover())))
    } else {
        None
    };
    let server = Server::new(graph, clique_cover(), config, recompute).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let token = server.cancel_token();
    std::thread::scope(|scope| {
        let _guard = CancelOnDrop(token.clone());
        let handle = scope.spawn(|| server.run(listener).unwrap());
        let mut client = Client::connect(addr).unwrap();
        body(&mut client, &server);
        token.cancel();
        handle.join().unwrap()
    })
}

#[test]
fn query_answers_from_the_index() {
    with_server(fixed_config(), |client, _| {
        let a = client.request("query 0").unwrap();
        assert!(
            a.contains("\"ok\":true") && a.contains("\"op\":\"query\""),
            "{a}"
        );
        assert!(a.contains("\"count\":1"), "{a}");
        assert!(a.contains("\"members\":[0,1,2,3]"), "{a}");
        let b = client.request("query 6").unwrap();
        assert!(b.contains("\"members\":[4,5,6,7]"), "{b}");
    });
}

#[test]
fn local_runs_a_fresh_ascent_and_is_deterministic() {
    with_server(fixed_config(), |client, _| {
        let a = client.request("local 5").unwrap();
        assert!(
            a.contains("\"ok\":true") && a.contains("\"op\":\"local\""),
            "{a}"
        );
        // The home clique is always captured; the bridge node may ride
        // along depending on the seed expansion.
        assert!(a.contains("4,5,6,7"), "{a}");
        assert!(a.contains("\"converged\":true"), "{a}");
        // Same node, same seed, (possibly) different worker: same answer.
        for _ in 0..4 {
            assert_eq!(client.request("local 5").unwrap(), a);
        }
    });
}

#[test]
fn topk_ranks_by_neighborhood_overlap() {
    with_server(fixed_config(), |client, _| {
        // Node 3 closes over {0,1,2,3,4}: overlap 4 with clique 0, 1 with
        // clique 1.
        let a = client.request("topk 3 2").unwrap();
        assert!(a.contains("\"op\":\"topk\""), "{a}");
        assert!(
            a.contains("\"results\":[{\"id\":0,\"overlap\":4,\"size\":4},{\"id\":1,\"overlap\":1,\"size\":4}]"),
            "{a}"
        );
        let top1 = client.request("topk 3 1").unwrap();
        assert!(
            top1.contains("\"results\":[{\"id\":0,\"overlap\":4,\"size\":4}]"),
            "{top1}"
        );
    });
}

#[test]
fn snapshot_stats_and_health_report_the_current_epoch() {
    with_server(fixed_config(), |client, _| {
        let snapshot = client.request("snapshot").unwrap();
        assert!(snapshot.contains("\"epoch\":1"), "{snapshot}");
        assert!(snapshot.contains("\"node_count\":8"), "{snapshot}");
        assert!(snapshot.contains("\"communities\":2"), "{snapshot}");
        let parsed = Value::parse(&snapshot).unwrap();
        assert_eq!(
            parsed.get("coverage"),
            Some(&Value::Float(1.0)),
            "{snapshot}"
        );
        // `c` in shortest round-trip form, so it reruns as `--fixed-c`.
        assert!(snapshot.contains("\"c\":0.9,"), "{snapshot}");
        let health = client.request("health").unwrap();
        assert!(
            health.contains("\"ok\":true") && health.contains("\"epoch\":1"),
            "{health}"
        );
        client.request("query 0").unwrap();
        let stats = client.request("stats").unwrap();
        assert!(stats.contains("\"op\":\"stats\""), "{stats}");
        assert!(stats.contains("\"query\":{\"count\":1"), "{stats}");
    });
}

#[test]
fn malformed_requests_get_typed_errors_and_keep_the_connection() {
    with_server(fixed_config(), |client, _| {
        let cases = [
            ("bogus 1", "bad-request"),
            ("query", "bad-request"),
            ("query abc", "bad-request"),
            ("topk 1", "bad-request"),
            ("query 99", "out-of-bounds"),
            ("local 4294967295", "out-of-bounds"),
        ];
        for (line, kind) in cases {
            let response = client.request(line).unwrap();
            assert!(response.contains("\"ok\":false"), "{line}: {response}");
            assert!(
                response.contains(&format!("\"kind\":\"{kind}\"")),
                "{line}: {response}"
            );
        }
        // The connection survived all of that.
        let ok = client.request("query 0").unwrap();
        assert!(ok.contains("\"ok\":true"), "{ok}");
    });
    // Errors are counted in the report.
}

#[test]
fn background_recompute_publishes_new_epochs_without_blocking_reads() {
    let config = ServeConfig {
        recompute_interval: Some(Duration::from_millis(30)),
        ..fixed_config()
    };
    let report = with_server(config, |client, _| {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut last_epoch = 0u64;
        loop {
            let health = client.request("health").unwrap();
            let epoch: u64 = health
                .split("\"epoch\":")
                .nth(1)
                .map(|s| {
                    s.chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                })
                .and_then(|s| s.parse().ok())
                .unwrap();
            assert!(epoch >= last_epoch, "epochs must be monotone");
            last_epoch = epoch;
            // Queries keep answering correctly while epochs roll.
            let q = client.request("query 0").unwrap();
            assert!(q.contains("\"members\":[0,1,2,3]"), "{q}");
            if epoch >= 3 {
                break;
            }
            assert!(Instant::now() < deadline, "no recompute within 10s");
            std::thread::sleep(Duration::from_millis(10));
        }
    });
    assert!(report.recomputes >= 2, "report: {report:?}");
    assert!(report.final_epoch >= 3);
}

#[test]
fn shutdown_request_drains_and_reports() {
    let graph = Arc::new(two_cliques());
    let server = Server::new(graph, clique_cover(), fixed_config(), None).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let report = std::thread::scope(|scope| {
        let _guard = CancelOnDrop(server.cancel_token());
        let handle = scope.spawn(|| server.run(listener).unwrap());
        let mut client = Client::connect(addr).unwrap();
        client.request("query 0").unwrap();
        let bye = client.request("shutdown").unwrap();
        assert!(
            bye.contains("\"op\":\"shutdown\"") && bye.contains("\"draining\":true"),
            "{bye}"
        );
        handle.join().unwrap()
    });
    assert_eq!(report.requests, 2);
    assert_eq!(report.errors, 0);
    assert_eq!(report.query.count, 1);
    assert!(report.query.p99_us > 0.0);
    let line = report.summary_line();
    assert!(line.contains("served 2 requests"), "{line}");
}

#[test]
fn max_duration_auto_shuts_down() {
    let graph = Arc::new(two_cliques());
    let config = ServeConfig {
        max_duration: Some(Duration::from_millis(100)),
        ..fixed_config()
    };
    let server = Server::new(graph, clique_cover(), config, None).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let started = Instant::now();
    let report = server.run(listener).unwrap();
    assert!(started.elapsed() < Duration::from_secs(5));
    assert_eq!(report.connections, 0);
}

#[test]
fn mismatched_cover_is_rejected_at_construction() {
    let graph = Arc::new(two_cliques());
    let err = Server::new(graph, Cover::empty(9), fixed_config(), None).unwrap_err();
    assert!(err.to_string().contains("9"), "{err}");
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let graph = Arc::new(two_cliques());
    let config = ServeConfig {
        workers: 4,
        recompute_interval: Some(Duration::from_millis(20)),
        ..fixed_config()
    };
    let recompute: Box<oca_serve::RecomputeFn> =
        Box::new(|_graph, _seed, _cancel| Ok(clique_cover()));
    let server = Server::new(graph, clique_cover(), config, Some(recompute)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let token = server.cancel_token();
    let report = std::thread::scope(|scope| {
        let _guard = CancelOnDrop(token.clone());
        let handle = scope.spawn(|| server.run(listener).unwrap());
        let mut clients = Vec::new();
        for _ in 0..4 {
            clients.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..50u32 {
                    let v = round % 8;
                    let (exact, clique) = if v < 4 {
                        ("[0,1,2,3]", "0,1,2,3")
                    } else {
                        ("[4,5,6,7]", "4,5,6,7")
                    };
                    let q = client.request(&format!("query {v}")).unwrap();
                    assert!(q.contains(exact), "{q}");
                    // Local ascents from bridge nodes may also pick up the
                    // bridge neighbor; the home clique is always present.
                    let l = client.request(&format!("local {v}")).unwrap();
                    assert!(l.contains(clique), "{l}");
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        token.cancel();
        handle.join().unwrap()
    });
    assert_eq!(report.requests, 4 * 50 * 2);
    assert_eq!(report.errors, 0);
}
