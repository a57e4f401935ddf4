//! Every response kind the server emits, parsed with the one JSON reader:
//! `ok` is the first key, the line is the compact layout (no whitespace),
//! and each field README's endpoint table names is present with its JSON
//! type.

use oca::{CStrategy, LocalConfig};
use oca_graph::json::Value;
use oca_graph::{from_edges, CancelToken, Community, Cover, CsrGraph};
use oca_serve::{Client, FaultPlan, FaultSpec, RecomputeFn, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A field's JSON type.
#[derive(Debug, Clone, Copy)]
enum Ty {
    /// A non-negative integer.
    Count,
    /// Any number.
    Num,
    Bool,
    Str,
    Array,
    Object,
}

fn is(value: &Value, ty: Ty) -> bool {
    match ty {
        Ty::Count => value.as_u64().is_some(),
        Ty::Num => value.as_f64().is_some(),
        Ty::Bool => matches!(value, Value::Bool(_)),
        Ty::Str => value.as_str().is_some(),
        Ty::Array => matches!(value, Value::Array(_)),
        Ty::Object => matches!(value, Value::Object(_)),
    }
}

/// Asserts that `value` holds each of `fields` with its type.
fn has(value: &Value, fields: &[(&str, Ty)]) {
    for &(key, ty) in fields {
        let field = value.get(key);
        assert!(
            field.is_some_and(|f| is(f, ty)),
            "{key} should be {ty:?} in {value:?}"
        );
    }
}

/// Parses one response line: compact, `ok` first and equal to `ok`, and
/// `op` (when given) naming the endpoint.
fn parse(line: &str, ok: bool, op: Option<&str>) -> Value {
    assert!(line.starts_with("{\"ok\":"), "{line}");
    let value = Value::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    let mut compact = String::new();
    value.write_compact(&mut compact);
    assert_eq!(compact, line, "not in the compact layout");
    let Value::Object(entries) = &value else {
        panic!("not an object: {line}");
    };
    assert_eq!(entries[0], ("ok".to_string(), Value::Bool(ok)), "{line}");
    if let Some(op) = op {
        assert_eq!(value.get("op").and_then(Value::as_str), Some(op), "{line}");
    }
    value
}

/// A typed error response of `kind`.
fn error(line: &str, kind: &str) {
    let value = parse(line, false, None);
    let error = value.get("error").unwrap();
    has(error, &[("kind", Ty::Str), ("message", Ty::Str)]);
    assert_eq!(
        error.get("kind").and_then(Value::as_str),
        Some(kind),
        "{line}"
    );
}

fn local(line: &str) {
    let value = parse(line, true, Some("local"));
    has(
        &value,
        &[
            ("epoch", Ty::Count),
            ("node", Ty::Count),
            ("size", Ty::Count),
            ("fitness", Ty::Num),
            ("moves", Ty::Count),
            ("converged", Ty::Bool),
            ("stop", Ty::Str),
            ("members", Ty::Array),
        ],
    );
}

fn local_partial(line: &str) {
    let value = parse(line, true, Some("local"));
    has(
        &value,
        &[
            ("epoch", Ty::Count),
            ("node", Ty::Count),
            ("partial", Ty::Bool),
            ("why", Ty::Str),
            ("size", Ty::Count),
            ("members", Ty::Array),
        ],
    );
}

/// A `topk` answer; returns how many results it holds.
fn topk(line: &str, partial: bool) -> usize {
    let value = parse(line, true, Some("topk"));
    has(
        &value,
        &[
            ("epoch", Ty::Count),
            ("node", Ty::Count),
            ("k", Ty::Count),
            ("results", Ty::Array),
        ],
    );
    if partial {
        has(&value, &[("partial", Ty::Bool), ("why", Ty::Str)]);
        assert_eq!(
            value.get("why").and_then(Value::as_str),
            Some("deadline-exceeded")
        );
    }
    let Some(Value::Array(results)) = value.get("results") else {
        unreachable!("checked above");
    };
    for result in results {
        has(
            result,
            &[
                ("id", Ty::Count),
                ("overlap", Ty::Count),
                ("size", Ty::Count),
            ],
        );
    }
    results.len()
}

/// Two 4-cliques joined by a single bridge edge.
fn two_cliques() -> (CsrGraph, Cover) {
    let mut edges = vec![(3, 4)];
    for base in [0u32, 4] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                edges.push((base + i, base + j));
            }
        }
    }
    let cover = Cover::new(
        8,
        vec![
            Community::from_raw([0, 1, 2, 3]),
            Community::from_raw([4, 5, 6, 7]),
        ],
    );
    (from_edges(8, edges), cover)
}

fn base_config() -> ServeConfig {
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

/// Serves `graph` and `cover` under `config`, runs `body` with the
/// address and the shutdown token, then shuts down.
fn serve(
    (graph, cover): (CsrGraph, Cover),
    config: ServeConfig,
    recompute: Option<Box<RecomputeFn>>,
    body: impl FnOnce(SocketAddr, &CancelToken) + Send,
) {
    let server = Server::new(Arc::new(graph), cover, config, recompute).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let token = server.cancel_token();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(listener).unwrap());
        // Cancel even if `body` panics, so the scope can join the server.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr, &token)));
        token.cancel();
        handle.join().unwrap();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Sends raw bytes and reads the `\n`-terminated lines that come back.
fn exchange(addr: SocketAddr, bytes: &[u8], lines: usize) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    let mut reader = BufReader::new(stream);
    (0..lines)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        })
        .collect()
}

/// A 3000-leaf star whose one community is everything: a `topk` scan of
/// the hub runs long enough to reach its cancellation poll.
fn star() -> (CsrGraph, Cover) {
    let n = 3001u32;
    let graph = from_edges(n as usize, (1..n).map(|leaf| (0, leaf)));
    let cover = Cover::new(n as usize, vec![Community::from_raw(0..n)]);
    (graph, cover)
}

#[test]
fn every_response_kind_parses_with_ok_first_and_the_documented_fields() {
    // The endpoints, and the errors of malformed requests.
    let config = ServeConfig {
        max_line_bytes: 64,
        ..base_config()
    };
    serve(two_cliques(), config, None, |addr, _| {
        let mut client = Client::connect(addr).unwrap();
        let query = parse(&client.request("query 5").unwrap(), true, Some("query"));
        has(
            &query,
            &[
                ("epoch", Ty::Count),
                ("node", Ty::Count),
                ("count", Ty::Count),
                ("communities", Ty::Array),
            ],
        );
        let Some(Value::Array(communities)) = query.get("communities") else {
            unreachable!("checked above");
        };
        assert_eq!(communities.len(), 1);
        has(
            &communities[0],
            &[
                ("id", Ty::Count),
                ("size", Ty::Count),
                ("members", Ty::Array),
            ],
        );
        local(&client.request("local 5").unwrap());
        assert_eq!(topk(&client.request("topk 3 2").unwrap(), false), 2);

        let snapshot = parse(&client.request("snapshot").unwrap(), true, Some("snapshot"));
        has(
            &snapshot,
            &[
                ("epoch", Ty::Count),
                ("node_count", Ty::Count),
                ("communities", Ty::Count),
                ("memberships", Ty::Count),
                ("coverage", Ty::Num),
                ("c", Ty::Num),
                ("index_bytes", Ty::Count),
            ],
        );

        let stats = parse(&client.request("stats").unwrap(), true, Some("stats"));
        has(
            &stats,
            &[
                ("epoch", Ty::Count),
                ("uptime_ms", Ty::Count),
                ("connections", Ty::Count),
                ("requests", Ty::Count),
                ("errors", Ty::Count),
                ("recomputes", Ty::Count),
                ("workers", Ty::Object),
                ("robustness", Ty::Object),
                ("recompute", Ty::Object),
                ("latency", Ty::Object),
            ],
        );
        let counts =
            |keys: &[&'static str]| keys.iter().map(|&k| (k, Ty::Count)).collect::<Vec<_>>();
        has(
            stats.get("workers").unwrap(),
            &counts(&["configured", "live", "panics", "respawns"]),
        );
        has(
            stats.get("robustness").unwrap(),
            &counts(&[
                "overloaded_rejects",
                "oversized_lines",
                "idle_reaped",
                "deadline_hits",
                "shutdown_rejects",
            ]),
        );
        has(
            stats.get("recompute").unwrap(),
            &[
                ("published", Ty::Count),
                ("failures", Ty::Count),
                ("consecutive_failures", Ty::Count),
                ("degraded", Ty::Bool),
                ("last_recovery_ms", Ty::Count),
                ("last_error", Ty::Str),
                ("epoch_age_secs", Ty::Num),
            ],
        );
        for op in ["query", "local", "topk"] {
            let latency = stats.get("latency").and_then(|l| l.get(op)).unwrap();
            has(
                latency,
                &[
                    ("count", Ty::Count),
                    ("p50_us", Ty::Num),
                    ("p99_us", Ty::Num),
                ],
            );
        }

        let health = parse(&client.request("health").unwrap(), true, Some("health"));
        has(&health, &[("epoch", Ty::Count), ("degraded", Ty::Bool)]);

        error(&client.request("qeury 5").unwrap(), "bad-request");
        error(&client.request("query 99").unwrap(), "out-of-bounds");
        error(&client.request(&"x".repeat(100)).unwrap(), "bad-request");
        let lines = exchange(addr, b"\xff\xfe\n", 1);
        error(&lines[0], "bad-request");

        // `shutdown`, then a request pipelined behind the drain.
        let lines = exchange(addr, b"shutdown\nquery 0\n", 2);
        let bye = parse(&lines[0], true, Some("shutdown"));
        has(&bye, &[("epoch", Ty::Count), ("draining", Ty::Bool)]);
        error(&lines[1], "shutting-down");
    });

    // Deadline-partial `local` and `topk`: every request stalls past a
    // 5 ms deadline.
    let config = ServeConfig {
        workers: 1,
        request_deadline: Some(Duration::from_millis(5)),
        faults: FaultPlan::new(FaultSpec {
            stall_request_every: 1,
            stall: Duration::from_millis(30),
            ..Default::default()
        }),
        ..base_config()
    };
    serve(star(), config, None, |addr, _| {
        let mut client = Client::connect(addr).unwrap();
        local_partial(&client.request("local 0").unwrap());
        topk(&client.request("topk 0 3").unwrap(), true);
    });

    // A shutdown that lands while `local` is stalled, and a handler panic.
    let config = ServeConfig {
        faults: FaultPlan::new(FaultSpec {
            stall_request_every: 1,
            stall: Duration::from_millis(300),
            ..Default::default()
        }),
        ..base_config()
    };
    serve(two_cliques(), config, None, |addr, token| {
        let mut client = Client::connect(addr).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(100));
                token.cancel();
            });
            error(&client.request("local 0").unwrap(), "cancelled");
        });
    });
    let config = ServeConfig {
        faults: FaultPlan::new(FaultSpec {
            panic_request_every: 1,
            ..Default::default()
        }),
        ..base_config()
    };
    serve(two_cliques(), config, None, |addr, _| {
        let mut client = Client::connect(addr).unwrap();
        error(&client.request("query 0").unwrap(), "internal");
    });

    // Overload: one busy worker and a full queue of one.
    let config = ServeConfig {
        workers: 1,
        max_pending: 1,
        ..base_config()
    };
    serve(two_cliques(), config, None, |addr, _| {
        let mut held = Client::connect(addr).unwrap();
        held.request("query 0").unwrap();
        let _queued = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        error(&exchange(addr, b"", 1)[0], "overloaded");
    });

    // Degraded `health`: every background recompute fails.
    let config = ServeConfig {
        recompute_interval: Some(Duration::from_millis(10)),
        faults: FaultPlan::new(FaultSpec {
            fail_recompute_every: 1,
            ..Default::default()
        }),
        ..base_config()
    };
    let recompute: Box<RecomputeFn> = Box::new(|_, _, _| Ok(two_cliques().1));
    serve(two_cliques(), config, Some(recompute), |addr, _| {
        let mut client = Client::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let line = client.request("health").unwrap();
            if line.starts_with("{\"ok\":false") {
                let health = parse(&line, false, Some("health"));
                has(
                    &health,
                    &[
                        ("epoch", Ty::Count),
                        ("degraded", Ty::Bool),
                        ("reason", Ty::Str),
                    ],
                );
                break;
            }
            assert!(Instant::now() < deadline, "never degraded: {line}");
            std::thread::sleep(Duration::from_millis(10));
        }
    });
}
