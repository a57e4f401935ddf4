//! # oca-serve — the query-centric serving layer
//!
//! The paper's setting is community *search* — "which communities contain
//! node v?" — and this crate turns the batch library into a system that
//! answers exactly that under sustained load:
//!
//! * [`CoverIndex`] — an inverted node→community index in the same
//!   two-flat-array CSR shape as the graph itself, built once per cover;
//! * [`CoverSnapshot`] / [`SnapshotStore`] — immutable versioned
//!   snapshots with monotonically increasing epochs, swapped atomically
//!   behind an `Arc` so readers never block a recompute and never observe
//!   a half-built epoch;
//! * [`persist`] — a versioned, checksummed binary cover format so a
//!   server warm-starts from the previous run's cover instead of
//!   re-detecting;
//! * [`Server`] — a line-protocol TCP server (see [`protocol`]) with a
//!   worker-thread pool, per-worker reusable ascent state for `local`
//!   queries, a background recompute thread, and cooperative graceful
//!   shutdown; plus the matching [`Client`];
//! * fault containment throughout — request-level panic isolation with
//!   worker respawn, bounded accept queue with typed `overloaded`
//!   rejection, request-size caps, idle reaping, per-request deadlines,
//!   and a recompute loop that degrades (keeps serving the last good
//!   epoch, retries with backoff) instead of dying; [`FaultPlan`] injects
//!   each failure deterministically for the chaos harness.
//!
//! ## Example: in-process round trip
//!
//! ```
//! use oca_graph::{from_edges, Community, Cover};
//! use oca_serve::{Client, ServeConfig, Server};
//! use oca::{CStrategy, LocalConfig};
//! use std::net::TcpListener;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(from_edges(4, [(0, 1), (1, 2), (0, 2)]));
//! let cover = Cover::new(4, vec![Community::from_raw([0, 1, 2])]);
//! let config = ServeConfig {
//!     local: LocalConfig {
//!         c: CStrategy::Fixed(0.9),
//!         ..Default::default()
//!     },
//!     ..Default::default()
//! };
//! let server = Server::new(graph, cover, config, None).unwrap();
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//! let token = server.cancel_token();
//! std::thread::scope(|scope| {
//!     let handle = scope.spawn(|| server.run(listener).unwrap());
//!     let mut client = Client::connect(addr).unwrap();
//!     let answer = client.request("query 1").unwrap();
//!     assert!(answer.contains("\"ok\":true"));
//!     token.cancel();
//!     let report = handle.join().unwrap();
//!     assert_eq!(report.requests, 1);
//! });
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod faults;
pub mod index;
pub mod persist;
pub mod protocol;
pub mod server;
pub mod snapshot;

pub use faults::{FaultCounts, FaultPlan, FaultSpec};
pub use index::CoverIndex;
pub use persist::{load_cover_path, save_cover_path};
pub use protocol::{ProtocolError, Request};
pub use server::{Client, OpLatency, RecomputeFn, ServeConfig, ServeReport, Server};
pub use snapshot::{CoverSnapshot, SnapshotStore};
