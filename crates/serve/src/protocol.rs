//! The line protocol: plain-text requests in, one-line JSON responses out.
//!
//! Requests are single lines of whitespace-separated tokens — trivially
//! producible from `nc`/`telnet`, a shell script, or the bundled
//! [`crate::Client`]:
//!
//! ```text
//! query <v>        communities containing node v (from the index)
//! local <v>        fresh seeded ascent from v on the current snapshot
//! topk <v> <k>     top-k communities by overlap with v's neighborhood
//! snapshot         current epoch + cover summary
//! stats            request counters and latency percentiles
//! health           liveness + current epoch
//! shutdown         begin graceful shutdown (drains in-flight requests)
//! ```
//!
//! Every response is exactly one JSON line with `"ok"` as its first key,
//! built as a [`Value`] and written in the compact layout of
//! [`oca_graph::json`]: no whitespace, integers exact, floats as the
//! shortest text that reads back as the same `f64`. Malformed requests
//! get a typed error object — never a dropped connection:
//!
//! ```text
//! {"ok":false,"error":{"kind":"bad-request","message":"unknown command \"qeury\""}}
//! ```

use oca_graph::json::Value;
use oca_graph::object;

/// A parsed client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `query <v>` — indexed membership lookup.
    Query(u32),
    /// `local <v>` — seeded local detection from `v`.
    Local(u32),
    /// `topk <v> <k>` — top-k communities by neighborhood overlap.
    TopK(u32, usize),
    /// `snapshot` — epoch + cover summary.
    Snapshot,
    /// `stats` — counters and latency percentiles.
    Stats,
    /// `health` — liveness probe.
    Health,
    /// `shutdown` — graceful shutdown.
    Shutdown,
}

/// A protocol-level error, rendered as the `"error"` object of a JSON
/// response. `kind` is a stable machine-readable discriminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable error class: `bad-request`, `out-of-bounds`, `cancelled`,
    /// `overloaded`, `shutting-down`, `internal`. A request past its
    /// deadline is not an error: it answers `"ok":true` with a partial
    /// result labelled `"why":"deadline-exceeded"`.
    pub kind: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl ProtocolError {
    /// A malformed or unknown request line.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ProtocolError {
            kind: "bad-request",
            message: message.into(),
        }
    }

    /// A structurally valid request naming a node outside the graph.
    pub fn out_of_bounds(node: u32, node_count: usize) -> Self {
        ProtocolError {
            kind: "out-of-bounds",
            message: format!("node {node} out of bounds (graph has {node_count} nodes)"),
        }
    }

    /// The server's pending-connection queue is full; retry with backoff.
    pub fn overloaded() -> Self {
        ProtocolError {
            kind: "overloaded",
            message: "server overloaded, retry later".to_string(),
        }
    }

    /// A `local` or `topk` request whose work shutdown interrupted.
    pub fn cancelled() -> Self {
        ProtocolError {
            kind: "cancelled",
            message: "server is shutting down".to_string(),
        }
    }

    /// The server is draining connections for shutdown.
    pub fn shutting_down() -> Self {
        ProtocolError {
            kind: "shutting-down",
            message: "server is shutting down".to_string(),
        }
    }

    /// A request whose handler panicked; the fault was isolated to this
    /// request and the connection remains usable.
    pub fn internal(message: impl Into<String>) -> Self {
        ProtocolError {
            kind: "internal",
            message: message.into(),
        }
    }

    /// The response for this error.
    pub fn to_value(&self) -> Value {
        let error = object! { "kind": self.kind, "message": self.message.as_str() };
        object! { "ok": false, "error": error }
    }

    /// The response line for this error (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut line = String::new();
        self.to_value().write_compact(&mut line);
        line
    }
}

impl Request {
    /// Parses one request line. Surplus tokens, missing arguments,
    /// non-numeric arguments and unknown commands are each reported with a
    /// message naming the problem.
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let mut tokens = line.split_whitespace();
        let Some(command) = tokens.next() else {
            return Err(ProtocolError::bad_request("empty request"));
        };
        let rest: Vec<&str> = tokens.collect();
        let arity = |want: usize| -> Result<(), ProtocolError> {
            if rest.len() == want {
                Ok(())
            } else {
                Err(ProtocolError::bad_request(format!(
                    "{command} takes {want} argument{}, got {}",
                    if want == 1 { "" } else { "s" },
                    rest.len()
                )))
            }
        };
        let node = |token: &str| -> Result<u32, ProtocolError> {
            token.parse::<u32>().map_err(|_| {
                ProtocolError::bad_request(format!("expected a node id, got {token:?}"))
            })
        };
        match command {
            "query" => {
                arity(1)?;
                Ok(Request::Query(node(rest[0])?))
            }
            "local" => {
                arity(1)?;
                Ok(Request::Local(node(rest[0])?))
            }
            "topk" => {
                arity(2)?;
                let k = rest[1].parse::<usize>().map_err(|_| {
                    ProtocolError::bad_request(format!("expected a count, got {:?}", rest[1]))
                })?;
                if k == 0 {
                    return Err(ProtocolError::bad_request("k must be at least 1"));
                }
                Ok(Request::TopK(node(rest[0])?, k))
            }
            "snapshot" => {
                arity(0)?;
                Ok(Request::Snapshot)
            }
            "stats" => {
                arity(0)?;
                Ok(Request::Stats)
            }
            "health" => {
                arity(0)?;
                Ok(Request::Health)
            }
            "shutdown" => {
                arity(0)?;
                Ok(Request::Shutdown)
            }
            other => Err(ProtocolError::bad_request(format!(
                "unknown command {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_requests_parse() {
        assert_eq!(Request::parse("query 5"), Ok(Request::Query(5)));
        assert_eq!(Request::parse("  local 0 "), Ok(Request::Local(0)));
        assert_eq!(Request::parse("topk 3 10"), Ok(Request::TopK(3, 10)));
        assert_eq!(Request::parse("snapshot"), Ok(Request::Snapshot));
        assert_eq!(Request::parse("stats"), Ok(Request::Stats));
        assert_eq!(Request::parse("health"), Ok(Request::Health));
        assert_eq!(Request::parse("shutdown"), Ok(Request::Shutdown));
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        let cases = [
            ("", "empty"),
            ("qeury 5", "unknown command"),
            ("query", "takes 1 argument"),
            ("query 1 2", "takes 1 argument"),
            ("query x", "expected a node id"),
            ("query -1", "expected a node id"),
            ("topk 3", "takes 2 arguments"),
            ("topk 3 zero", "expected a count"),
            ("topk 3 0", "at least 1"),
            ("health now", "takes 0 arguments"),
        ];
        for (line, needle) in cases {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.kind, "bad-request");
            assert!(
                err.message.contains(needle),
                "{line:?}: {:?} should mention {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn robustness_error_kinds_are_stable() {
        assert_eq!(ProtocolError::overloaded().kind, "overloaded");
        assert_eq!(ProtocolError::cancelled().kind, "cancelled");
        assert_eq!(ProtocolError::shutting_down().kind, "shutting-down");
        assert_eq!(ProtocolError::internal("handler panicked").kind, "internal");
        assert!(ProtocolError::overloaded()
            .to_json()
            .starts_with("{\"ok\":false"));
    }

    #[test]
    fn error_json_is_escaped() {
        let err = ProtocolError::bad_request("bad \"quote\"\nline");
        let json = err.to_json();
        assert_eq!(
            json,
            "{\"ok\":false,\"error\":{\"kind\":\"bad-request\",\"message\":\"bad \\\"quote\\\"\\nline\"}}"
        );
    }

    #[test]
    fn escape_handles_control_characters() {
        let json = ProtocolError::bad_request("a\u{1}b tab\there plain").to_json();
        assert!(json.contains("\"a\\u0001b tab\\there plain\""), "{json}");
    }

    /// Clients find member lists by the literal `"members":[`, so arrays
    /// of ids stay compact on the wire.
    #[test]
    fn id_arrays_render_compactly() {
        let mut line = String::new();
        object! { "members": vec![1u32, 2, 3], "none": Vec::<u32>::new() }.write_compact(&mut line);
        assert_eq!(line, "{\"members\":[1,2,3],\"none\":[]}");
    }
}
