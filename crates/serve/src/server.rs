//! The long-running query server: TCP accept loop, worker-thread pool,
//! background recompute, graceful shutdown, and the bundled [`Client`].
//!
//! Threading model: the caller's thread runs the accept loop; accepted
//! connections are queued over a **bounded** mpsc channel to a pool of
//! worker threads (each owning its reusable [`CommunityState`] and scratch
//! counters, so steady-state queries allocate only their response string).
//! An optional recompute thread periodically re-detects the cover and
//! publishes it through the [`SnapshotStore`] — readers keep answering
//! from their pinned snapshot throughout. Shutdown is cooperative via the
//! shared [`CancelToken`]: the acceptor stops queueing and closes the
//! channel, workers finish the request in flight (plus any queued
//! connections) and exit, and the recompute thread aborts its in-flight
//! detection through the same token.
//!
//! ## Failure containment
//!
//! The server is built to stay up, answering, and honest about its state
//! under partial failure:
//!
//! * **Panic isolation.** A panic inside request dispatch is caught at the
//!   request boundary, answered with a typed `internal` error, and the
//!   connection (and worker) keep serving with freshly rebuilt scratch. A
//!   panic that unwinds a whole worker thread is swallowed at the thread
//!   boundary and the accept loop respawns a replacement; both are counted
//!   in `stats`.
//! * **Overload protection.** The connection queue is bounded
//!   ([`ServeConfig::max_pending`]); when full, new connections get a
//!   one-line typed `overloaded` rejection instead of unbounded queueing.
//!   Request lines are capped at [`ServeConfig::max_line_bytes`] (typed
//!   `bad-request`, connection survives), idle connections are reaped
//!   after [`ServeConfig::idle_timeout`], and `local`/`topk` honour a
//!   per-request deadline ([`ServeConfig::request_deadline`]) by returning
//!   a partial result labelled `deadline-exceeded`.
//! * **Recompute resilience.** A failing or panicking recompute never
//!   takes the serving path down: the last good epoch keeps serving,
//!   retries back off exponentially (capped), and `health` reports the
//!   pool as degraded until a recompute succeeds again.
//!
//! Failures can also be injected deterministically through
//! [`crate::faults::FaultPlan`] — that is how the chaos harness and the
//! robustness tests drive every path above.

use crate::faults::FaultPlan;
use crate::protocol::{ProtocolError, Request};
use crate::snapshot::SnapshotStore;
use oca::{ticket_seed, CommunityState, LocalConfig, LocalDetector};
use oca_graph::json::Value;
use oca_graph::{
    object, CancelToken, Cover, CsrGraph, DetectContext, DetectError, EpochCounters, NodeId,
    Relabeling,
};
use std::io::{BufRead, BufReader, ErrorKind, Read as _, Write as _};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a worker blocks on an idle connection before re-checking the
/// cancellation token.
const READ_POLL: Duration = Duration::from_millis(100);
/// How long the acceptor sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// Longest the acceptor keeps answering late connections with a typed
/// `shutting-down` line while workers drain. Workers notice cancellation
/// within [`READ_POLL`], so this cap only matters if a worker is wedged in
/// a long request.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);
/// Recompute backoff cap: consecutive failures double the retry interval
/// up to `interval << MAX_BACKOFF_SHIFT` (32×).
const MAX_BACKOFF_SHIFT: u32 = 5;

/// Rebuilds the cover for a new epoch: `(graph, seed, cancel)` to a cover,
/// or an error message explaining why this round produced none (logged and
/// counted; the server keeps serving the last good epoch and retries with
/// backoff). Implementations should wire `cancel` into their
/// [`DetectContext`] so server shutdown aborts an in-flight recompute
/// promptly.
pub type RecomputeFn = dyn Fn(&CsrGraph, u64, &CancelToken) -> Result<Cover, String> + Send + Sync;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (= maximum concurrently served connections).
    pub workers: usize,
    /// Master seed: `local <v>` answers derive from
    /// `ticket_seed(seed, v)`, so they are identical whichever worker
    /// serves them; recompute round `r` runs with `ticket_seed(seed, r)`.
    pub seed: u64,
    /// Publish a recomputed cover this often (`None` disables recompute).
    pub recompute_interval: Option<Duration>,
    /// Auto-shutdown after this long (testing/benchmarks); `None` runs
    /// until `shutdown` or external cancellation.
    pub max_duration: Option<Duration>,
    /// Configuration of the `local` endpoint's detector. Its
    /// interaction-strength strategy is resolved once at server start —
    /// `c` is a property of the (static) graph, not of any cover. The
    /// default is the tuned preset ([`LocalConfig::tuned`]), whose scaled
    /// move budget keeps hub queries cheap.
    pub local: LocalConfig,
    /// Accepted connections waiting for a free worker beyond this are
    /// rejected with a typed `overloaded` line instead of queueing
    /// without bound.
    pub max_pending: usize,
    /// Longest accepted request line in bytes; longer lines are consumed
    /// and answered with a typed `bad-request` (the connection survives).
    pub max_line_bytes: usize,
    /// Per-request deadline for `local` and `topk`. When it fires the
    /// request returns what it has, labelled `deadline-exceeded`, instead
    /// of holding a worker indefinitely. `None` disables deadlines.
    pub request_deadline: Option<Duration>,
    /// Connections with no traffic for this long are closed so slow or
    /// abandoned clients cannot pin workers forever. `None` disables
    /// reaping.
    pub idle_timeout: Option<Duration>,
    /// Deterministic fault injection (chaos testing); defaults to off.
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            seed: 0x0CA,
            recompute_interval: None,
            max_duration: None,
            local: LocalConfig::tuned(),
            max_pending: 128,
            max_line_bytes: 64 * 1024,
            request_deadline: None,
            idle_timeout: Some(Duration::from_secs(120)),
            faults: FaultPlan::none(),
        }
    }
}

/// A log₂-bucketed latency histogram with lock-free recording. Bucket `b`
/// covers `[2^b, 2^(b+1))` nanoseconds; quantiles report the upper bound
/// of the matched bucket, i.e. within 2× of the true value — plenty for a
/// `stats` endpoint (benchmarks measure client-side with exact timings).
#[derive(Debug)]
struct Histogram {
    buckets: [AtomicU64; 40],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    fn record(&self, nanos: u64) {
        let bucket = (63 - (nanos | 1).leading_zeros() as usize).min(self.buckets.len() - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The `q`-quantile in microseconds (0 when nothing was recorded).
    fn quantile_us(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (bucket, &count) in counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                return (1u64 << (bucket + 1)) as f64 / 1_000.0;
            }
        }
        f64::INFINITY
    }
}

/// One endpoint's counters.
#[derive(Debug, Default)]
struct OpStats {
    count: AtomicU64,
    hist: Histogram,
}

impl OpStats {
    fn record(&self, elapsed: Duration) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.hist.record(elapsed.as_nanos() as u64);
    }
}

/// Server-wide counters, shared across workers.
#[derive(Debug, Default)]
struct ServeStats {
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    recomputes: AtomicU64,
    // Robustness counters.
    live_workers: AtomicU64,
    panics: AtomicU64,
    respawns: AtomicU64,
    overloaded_rejects: AtomicU64,
    oversized_lines: AtomicU64,
    idle_reaped: AtomicU64,
    deadline_hits: AtomicU64,
    shutdown_rejects: AtomicU64,
    recompute_failures: AtomicU64,
    consecutive_recompute_failures: AtomicU64,
    last_recovery_ms: AtomicU64,
    last_recompute_error: Mutex<String>,
    query: OpStats,
    local: OpStats,
    topk: OpStats,
}

/// Decrements the live-worker gauge when its worker thread exits, however
/// it exits — the counter was incremented by the spawner *before* the
/// thread started, so the supervisor never observes a phantom worker.
struct LiveWorkerGuard<'a>(&'a ServeStats);

impl Drop for LiveWorkerGuard<'_> {
    fn drop(&mut self) {
        self.0.live_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Latency summary of one endpoint in the final [`ServeReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpLatency {
    /// Requests served.
    pub count: u64,
    /// Median latency in microseconds (log-bucket upper bound).
    pub p50_us: f64,
    /// 99th-percentile latency in microseconds (log-bucket upper bound).
    pub p99_us: f64,
}

/// What the server did over its lifetime, returned by [`Server::run`]
/// after shutdown completes (the CLI renders this as the final stats
/// line).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: u64,
    /// Requests served (including ones answered with protocol errors).
    pub requests: u64,
    /// Requests answered with an error object.
    pub errors: u64,
    /// Cover recomputes published.
    pub recomputes: u64,
    /// Epoch at shutdown.
    pub final_epoch: u64,
    /// Panics caught (request handlers, worker threads, recompute).
    pub panics: u64,
    /// Worker threads respawned after dying.
    pub respawns: u64,
    /// Connections rejected with `overloaded`.
    pub overloaded_rejects: u64,
    /// Request lines rejected for exceeding the size cap.
    pub oversized_lines: u64,
    /// Idle connections reaped.
    pub idle_reaped: u64,
    /// Requests answered with a `deadline-exceeded` partial result.
    pub deadline_hits: u64,
    /// Requests rejected with `shutting-down` during drain.
    pub shutdown_rejects: u64,
    /// Recompute rounds that failed (error or panic).
    pub recompute_failures: u64,
    /// Whether the server was degraded (dead workers or a failing
    /// recompute) at the moment of shutdown.
    pub degraded: bool,
    /// `query` endpoint latency.
    pub query: OpLatency,
    /// `local` endpoint latency.
    pub local: OpLatency,
    /// `topk` endpoint latency.
    pub topk: OpLatency,
}

impl ServeReport {
    /// The one-line summary the CLI prints at shutdown.
    pub fn summary_line(&self) -> String {
        format!(
            "served {} requests over {} connections (errors {}, recomputes {}, final epoch {}); \
             query p50/p99 {:.1}/{:.1}us over {}, local p50/p99 {:.1}/{:.1}us over {}, \
             topk p50/p99 {:.1}/{:.1}us over {}; \
             robustness: panics {}, respawns {}, overloaded {}, oversized {}, idle-reaped {}, \
             deadline {}, shutdown-rejects {}, recompute-failures {}{}",
            self.requests,
            self.connections,
            self.errors,
            self.recomputes,
            self.final_epoch,
            self.query.p50_us,
            self.query.p99_us,
            self.query.count,
            self.local.p50_us,
            self.local.p99_us,
            self.local.count,
            self.topk.p50_us,
            self.topk.p99_us,
            self.topk.count,
            self.panics,
            self.respawns,
            self.overloaded_rejects,
            self.oversized_lines,
            self.idle_reaped,
            self.deadline_hits,
            self.shutdown_rejects,
            self.recompute_failures,
            if self.degraded { " (degraded)" } else { "" },
        )
    }
}

/// Per-worker reusable scratch: the `CommunityState` (O(n) to build, so
/// built once per worker) and the `topk` overlap counters.
struct WorkerScratch<'g> {
    state: CommunityState<'g>,
    counters: EpochCounters,
}

/// Best-effort text of a panic payload for the typed `internal` response.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// The query server. Construct with [`Server::new`], then call
/// [`Server::run`] with a bound listener; `run` blocks until shutdown and
/// returns the [`ServeReport`].
pub struct Server {
    graph: std::sync::Arc<CsrGraph>,
    store: SnapshotStore,
    config: ServeConfig,
    detector: LocalDetector,
    c: f64,
    cancel: CancelToken,
    stats: ServeStats,
    recompute: Option<Box<RecomputeFn>>,
    relabeling: Option<Relabeling>,
    started: Instant,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("node_count", &self.graph.node_count())
            .field("epoch", &self.store.epoch())
            .field("workers", &self.config.workers)
            .field("has_recompute", &self.recompute.is_some())
            .finish()
    }
}

impl Server {
    /// Builds a server warm-started with `cover` (epoch 1). `recompute`
    /// (if given, together with `config.recompute_interval`) periodically
    /// rebuilds the cover and publishes the next epoch.
    pub fn new(
        graph: std::sync::Arc<CsrGraph>,
        cover: Cover,
        config: ServeConfig,
        recompute: Option<Box<RecomputeFn>>,
    ) -> Result<Server, DetectError> {
        if config.workers < 1 {
            return Err(DetectError::InvalidConfig {
                algorithm: "serve",
                message: "need at least one worker thread".to_string(),
            });
        }
        if cover.node_count() != graph.node_count() {
            return Err(DetectError::InvalidConfig {
                algorithm: "serve",
                message: format!(
                    "cover is over {} nodes but the graph has {}",
                    cover.node_count(),
                    graph.node_count()
                ),
            });
        }
        let detector = LocalDetector::new(config.local.clone())?;
        let c = detector.resolve_c(&graph);
        Ok(Server {
            store: SnapshotStore::new(cover, c),
            graph,
            config,
            detector,
            c,
            cancel: CancelToken::new(),
            stats: ServeStats::default(),
            recompute,
            relabeling: None,
            started: Instant::now(),
        })
    }

    /// Serves a relabeled (e.g. degree-ordered `.ocg`) graph under its
    /// *input* id space: request node ids are translated to compact ids
    /// before dispatch, and member arrays in responses are translated
    /// back, so clients never see the storage layout. The warm-start
    /// cover passed to [`Server::new`] must already be in compact ids.
    pub fn with_relabeling(mut self, relabeling: Relabeling) -> Result<Server, DetectError> {
        if relabeling.len() != self.graph.node_count() {
            return Err(DetectError::InvalidConfig {
                algorithm: "serve",
                message: format!(
                    "relabeling covers {} nodes but the graph has {}",
                    relabeling.len(),
                    self.graph.node_count()
                ),
            });
        }
        self.relabeling = (!relabeling.is_identity()).then_some(relabeling);
        Ok(self)
    }

    /// Maps a compact node id back to the id space clients speak.
    #[inline]
    fn external_id(&self, v: NodeId) -> u32 {
        match &self.relabeling {
            Some(r) => r.to_original(v).raw(),
            None => v.raw(),
        }
    }

    /// A clone of the shutdown token — cancel it (e.g. from a signal
    /// handler or a test) to begin graceful shutdown.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The snapshot store (the bench reads epochs through this).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// The token governing one request: a child carrying the configured
    /// deadline (so a timeout cancels the request, not the server), or
    /// the shutdown token itself when deadlines are off.
    fn request_token(&self) -> CancelToken {
        match self.config.request_deadline {
            Some(d) => self.cancel.child_with_deadline(Instant::now() + d),
            None => self.cancel.clone(),
        }
    }

    /// True when the server is running but impaired: dead (not yet
    /// respawned) workers, or a recompute that is currently failing.
    fn degraded_reason(&self) -> Option<String> {
        let live = self.stats.live_workers.load(Ordering::Relaxed) as usize;
        // The gauge only moves once `run` spawns the pool; a server that
        // is not running yet is not degraded.
        if live > 0 && live < self.config.workers {
            return Some(format!("{live}/{} workers live", self.config.workers));
        }
        let fails = self
            .stats
            .consecutive_recompute_failures
            .load(Ordering::Relaxed);
        if fails > 0 {
            return Some(format!("{fails} consecutive recompute failures"));
        }
        None
    }

    /// Serves until shutdown (a `shutdown` request, cancellation of
    /// [`Server::cancel_token`], or `config.max_duration` elapsing), then
    /// drains and returns the lifetime report.
    pub fn run(&self, listener: TcpListener) -> std::io::Result<ServeReport> {
        listener.set_nonblocking(true)?;
        let deadline = self.config.max_duration.map(|d| Instant::now() + d);
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(self.config.max_pending.max(1));
        let conn_rx = Mutex::new(conn_rx);
        let conn_rx = &conn_rx;
        std::thread::scope(|scope| {
            // Spawning increments the gauge *before* the thread exists, so
            // the supervisor below can never over-respawn; the guard
            // decrements when the thread exits for any reason. A panic
            // that unwinds the whole worker (not just a request) is
            // swallowed here so the scope's implicit join cannot re-raise
            // it on the accept thread.
            let spawn_worker = || {
                self.stats.live_workers.fetch_add(1, Ordering::Relaxed);
                scope.spawn(move || {
                    let _live = LiveWorkerGuard(&self.stats);
                    if catch_unwind(AssertUnwindSafe(|| self.worker_loop(conn_rx))).is_err() {
                        self.stats.panics.fetch_add(1, Ordering::Relaxed);
                    }
                });
            };
            for _ in 0..self.config.workers {
                spawn_worker();
            }
            if let (Some(interval), Some(recompute)) =
                (self.config.recompute_interval, self.recompute.as_deref())
            {
                scope.spawn(move || self.recompute_loop(interval, recompute));
            }
            // Accept loop on the calling thread; it doubles as the worker
            // supervisor.
            loop {
                if self.cancel.is_cancelled() {
                    break;
                }
                if let Some(deadline) = deadline {
                    if Instant::now() >= deadline {
                        self.cancel.cancel();
                        break;
                    }
                }
                let live = self.stats.live_workers.load(Ordering::Relaxed) as usize;
                if live < self.config.workers {
                    self.stats.respawns.fetch_add(1, Ordering::Relaxed);
                    spawn_worker();
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        self.stats.connections.fetch_add(1, Ordering::Relaxed);
                        match conn_tx.try_send(stream) {
                            Ok(()) => {}
                            Err(TrySendError::Full(stream)) => self.reject(
                                stream,
                                &ProtocolError::overloaded(),
                                &self.stats.overloaded_rejects,
                            ),
                            // The receiver lives in this frame, so a
                            // disconnect is impossible; bail defensively.
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
            // Drain: closing the channel lets workers finish queued
            // connections and exit. While they do, late connections get a
            // typed `shutting-down` line rather than silence.
            drop(conn_tx);
            let grace = Instant::now() + SHUTDOWN_GRACE;
            while self.stats.live_workers.load(Ordering::Relaxed) > 0 && Instant::now() < grace {
                match listener.accept() {
                    Ok((stream, _)) => {
                        self.stats.connections.fetch_add(1, Ordering::Relaxed);
                        self.reject(
                            stream,
                            &ProtocolError::shutting_down(),
                            &self.stats.shutdown_rejects,
                        );
                    }
                    _ => std::thread::sleep(ACCEPT_POLL),
                }
            }
        });
        Ok(self.report())
    }

    /// Answers a connection that will not be served (queue full, or
    /// draining for shutdown) with a single typed error line, then closes
    /// it. Best-effort: a peer that already vanished just loses the line.
    fn reject(&self, mut stream: TcpStream, error: &ProtocolError, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        let mut line = error.to_json();
        line.push('\n');
        let _ = stream.write_all(line.as_bytes());
    }

    /// The lifetime report so far.
    fn report(&self) -> ServeReport {
        let op = |s: &OpStats| OpLatency {
            count: s.count.load(Ordering::Relaxed),
            p50_us: s.hist.quantile_us(0.50),
            p99_us: s.hist.quantile_us(0.99),
        };
        ServeReport {
            connections: self.stats.connections.load(Ordering::Relaxed),
            requests: self.stats.requests.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            recomputes: self.stats.recomputes.load(Ordering::Relaxed),
            final_epoch: self.store.epoch(),
            panics: self.stats.panics.load(Ordering::Relaxed),
            respawns: self.stats.respawns.load(Ordering::Relaxed),
            overloaded_rejects: self.stats.overloaded_rejects.load(Ordering::Relaxed),
            oversized_lines: self.stats.oversized_lines.load(Ordering::Relaxed),
            idle_reaped: self.stats.idle_reaped.load(Ordering::Relaxed),
            deadline_hits: self.stats.deadline_hits.load(Ordering::Relaxed),
            shutdown_rejects: self.stats.shutdown_rejects.load(Ordering::Relaxed),
            recompute_failures: self.stats.recompute_failures.load(Ordering::Relaxed),
            degraded: self
                .stats
                .consecutive_recompute_failures
                .load(Ordering::Relaxed)
                > 0,
            query: op(&self.stats.query),
            local: op(&self.stats.local),
            topk: op(&self.stats.topk),
        }
    }

    fn worker_loop(&self, conn_rx: &Mutex<mpsc::Receiver<TcpStream>>) {
        let mut scratch = WorkerScratch {
            state: CommunityState::new(&self.graph, self.c),
            counters: EpochCounters::new(0),
        };
        loop {
            // Hold the lock only while waiting for the next connection;
            // a disconnected channel (acceptor exited) ends the worker
            // after the queue is drained.
            let stream = match conn_rx
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .recv()
            {
                Ok(stream) => stream,
                Err(_) => break,
            };
            let _ = self.serve_connection(stream, &mut scratch);
            // Fail point: die *between* connections, unwinding the whole
            // thread past the per-request isolation — this is what the
            // supervisor's respawn path is for.
            if self.config.faults.should_kill_worker() {
                panic!("injected worker kill");
            }
        }
    }

    /// Serves one connection until the peer closes it, an I/O error,
    /// shutdown, or the idle reaper. Complete request lines are always
    /// answered — with a typed error if oversized, non-UTF-8, received
    /// during drain, or if their handler panicked.
    fn serve_connection<'g>(
        &'g self,
        stream: TcpStream,
        scratch: &mut WorkerScratch<'g>,
    ) -> std::io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_POLL))?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        // Accumulates the current request line, bounded by
        // `max_line_bytes`; once a line overflows, `discarding` swallows
        // the remainder so one huge line costs one error response, not an
        // unbounded buffer.
        let mut line: Vec<u8> = Vec::new();
        // The response line, rendered into one reused buffer.
        let mut out = String::new();
        let mut discarding = false;
        let mut last_activity = Instant::now();
        let max_line = self.config.max_line_bytes.max(1);
        loop {
            let (consumed, complete) = match reader.fill_buf() {
                Ok([]) => break, // EOF
                Ok(buf) => {
                    last_activity = Instant::now();
                    let newline = buf.iter().position(|&b| b == b'\n');
                    let take = newline.unwrap_or(buf.len());
                    if !discarding {
                        if line.len() + take > max_line {
                            discarding = true;
                            line.clear();
                        } else {
                            line.extend_from_slice(&buf[..take]);
                        }
                    }
                    match newline {
                        Some(pos) => (pos + 1, true),
                        None => (take, false),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    // Idle: a partially read line stays in `line` and
                    // completes on a later pass.
                    if self.cancel.is_cancelled() {
                        break;
                    }
                    if let Some(idle) = self.config.idle_timeout {
                        if last_activity.elapsed() >= idle {
                            self.stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            reader.consume(consumed);
            if !complete {
                continue;
            }
            let mut close_after = false;
            let response = if discarding {
                discarding = false;
                self.stats.requests.fetch_add(1, Ordering::Relaxed);
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                self.stats.oversized_lines.fetch_add(1, Ordering::Relaxed);
                ProtocolError::bad_request(format!("request line exceeds {max_line} bytes"))
                    .to_value()
            } else if self.cancel.is_cancelled() {
                // Drain semantics: whatever was in flight when shutdown
                // began has been answered; requests arriving after it get
                // a typed rejection and the connection closes.
                self.stats.requests.fetch_add(1, Ordering::Relaxed);
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                self.stats.shutdown_rejects.fetch_add(1, Ordering::Relaxed);
                close_after = true;
                ProtocolError::shutting_down().to_value()
            } else {
                match std::str::from_utf8(&line) {
                    Ok(text) => self.respond_isolated(text.trim(), scratch),
                    Err(_) => {
                        self.stats.requests.fetch_add(1, Ordering::Relaxed);
                        self.stats.errors.fetch_add(1, Ordering::Relaxed);
                        ProtocolError::bad_request("request was not valid UTF-8").to_value()
                    }
                }
            };
            line.clear();
            out.clear();
            response.write_compact(&mut out);
            out.push('\n');
            writer.write_all(out.as_bytes())?;
            writer.flush()?;
            if close_after {
                break;
            }
        }
        Ok(())
    }

    /// [`Server::respond`] behind a panic boundary: a handler panic is
    /// converted to a typed `internal` error and the worker's scratch is
    /// rebuilt (the unwind may have left it mid-mutation), so the
    /// connection — and the worker — keep serving.
    fn respond_isolated<'g>(&'g self, line: &str, scratch: &mut WorkerScratch<'g>) -> Value {
        match catch_unwind(AssertUnwindSafe(|| self.respond(line, scratch))) {
            Ok(response) => response,
            Err(payload) => {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                scratch.state = CommunityState::new(&self.graph, self.c);
                scratch.counters = EpochCounters::new(0);
                ProtocolError::internal(format!(
                    "request handler panicked: {}",
                    panic_message(payload.as_ref())
                ))
                .to_value()
            }
        }
    }

    /// Produces the JSON response for one request line.
    fn respond(&self, line: &str, scratch: &mut WorkerScratch<'_>) -> Value {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                return e.to_value();
            }
        };
        // Fail point: panic inside dispatch of a data request, exercising
        // the per-request isolation in `respond_isolated`.
        if matches!(
            request,
            Request::Query(_) | Request::Local(_) | Request::TopK(_, _)
        ) && self.config.faults.should_panic_request()
        {
            panic!("injected request panic");
        }
        let timed = Instant::now();
        let result = match request {
            Request::Query(v) => {
                let r = self.do_query(v);
                self.stats.query.record(timed.elapsed());
                r
            }
            Request::Local(v) => {
                let r = self.do_local(v, scratch);
                self.stats.local.record(timed.elapsed());
                r
            }
            Request::TopK(v, k) => {
                let r = self.do_topk(v, k, scratch);
                self.stats.topk.record(timed.elapsed());
                r
            }
            Request::Snapshot => Ok(self.do_snapshot()),
            Request::Stats => Ok(self.do_stats()),
            Request::Health => Ok(self.do_health()),
            Request::Shutdown => {
                self.cancel.cancel();
                let epoch = self.store.epoch();
                Ok(object! { "ok": true, "op": "shutdown", "epoch": epoch, "draining": true })
            }
        };
        result.unwrap_or_else(|e| {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            e.to_value()
        })
    }

    fn check_node(&self, v: u32) -> Result<NodeId, ProtocolError> {
        let n = self.graph.node_count();
        if (v as usize) < n {
            Ok(match &self.relabeling {
                Some(r) => r.to_compact(NodeId(v)),
                None => NodeId(v),
            })
        } else {
            Err(ProtocolError::out_of_bounds(v, n))
        }
    }

    /// The ids of `members` in the id space clients speak.
    fn member_ids(&self, members: &[NodeId]) -> Value {
        let ids = members.iter().map(|&m| self.external_id(m));
        Value::Array(ids.map(Value::from).collect())
    }

    fn do_query(&self, v: u32) -> Result<Value, ProtocolError> {
        let node = self.check_node(v)?;
        let snapshot = self.store.load();
        let ids = snapshot.index.communities_of(node);
        let communities = ids.iter().map(|&ci| {
            let community = &snapshot.cover.communities()[ci as usize];
            object! {
                "id": ci,
                "size": community.len(),
                "members": self.member_ids(community.members()),
            }
        });
        Ok(object! {
            "ok": true,
            "op": "query",
            "epoch": snapshot.epoch,
            "node": v,
            "count": ids.len(),
            "communities": Value::Array(communities.collect()),
        })
    }

    fn do_local(&self, v: u32, scratch: &mut WorkerScratch<'_>) -> Result<Value, ProtocolError> {
        let node = self.check_node(v)?;
        let token = self.request_token();
        // Fail point: stall after the deadline clock started, so the
        // deadline observably fires mid-request.
        if let Some(stall) = self.config.faults.request_stall() {
            std::thread::sleep(stall);
        }
        let ctx = DetectContext::new(self.config.seed).with_cancel(token.clone());
        let found =
            match self
                .detector
                .detect_with(&self.graph, &mut scratch.state, self.c, &[node], &ctx)
            {
                Ok(found) => found,
                Err(DetectError::Cancelled { partial })
                    if token.deadline_exceeded() && !self.cancel.is_cancelled() =>
                {
                    // Deadline, not shutdown: return the community grown so
                    // far, labelled as partial.
                    self.stats.deadline_hits.fetch_add(1, Ordering::Relaxed);
                    let members: &[NodeId] = partial
                        .cover
                        .communities()
                        .first()
                        .map(|c| c.members())
                        .unwrap_or(&[]);
                    return Ok(object! {
                        "ok": true,
                        "op": "local",
                        "epoch": self.store.epoch(),
                        "node": v,
                        "partial": true,
                        "why": "deadline-exceeded",
                        "size": members.len(),
                        "members": self.member_ids(members),
                    });
                }
                Err(DetectError::Cancelled { .. }) => return Err(ProtocolError::cancelled()),
                Err(other) => return Err(ProtocolError::internal(other.to_string())),
            };
        Ok(object! {
            "ok": true,
            "op": "local",
            "epoch": self.store.epoch(),
            "node": v,
            "size": found.community.len(),
            "fitness": found.fitness,
            "moves": found.moves,
            "converged": found.converged,
            "stop": found.stop.label(),
            "members": self.member_ids(found.community.members()),
        })
    }

    fn do_topk(
        &self,
        v: u32,
        k: usize,
        scratch: &mut WorkerScratch<'_>,
    ) -> Result<Value, ProtocolError> {
        let node = self.check_node(v)?;
        let token = self.request_token();
        if let Some(stall) = self.config.faults.request_stall() {
            std::thread::sleep(stall);
        }
        let snapshot = self.store.load();
        if scratch.counters.len() < snapshot.cover.len() {
            scratch.counters = EpochCounters::new(snapshot.cover.len());
        }
        let (top, interrupted) = snapshot.index.top_overlapping_cancellable(
            &self.graph,
            node,
            k,
            &mut scratch.counters,
            Some(&token),
        );
        let partial = if interrupted {
            if token.deadline_exceeded() && !self.cancel.is_cancelled() {
                self.stats.deadline_hits.fetch_add(1, Ordering::Relaxed);
                true
            } else {
                return Err(ProtocolError::cancelled());
            }
        } else {
            false
        };
        let mut out = object! {
            "ok": true,
            "op": "topk",
            "epoch": snapshot.epoch,
            "node": v,
            "k": k,
        };
        if partial {
            out.push("partial", true);
            out.push("why", "deadline-exceeded");
        }
        let results = top.iter().map(|&(ci, overlap)| {
            let size = snapshot.cover.communities()[ci as usize].len();
            object! { "id": ci, "overlap": overlap, "size": size }
        });
        out.push("results", Value::Array(results.collect()));
        Ok(out)
    }

    fn do_snapshot(&self) -> Value {
        let snapshot = self.store.load();
        object! {
            "ok": true,
            "op": "snapshot",
            "epoch": snapshot.epoch,
            "node_count": snapshot.node_count(),
            "communities": snapshot.cover.len(),
            "memberships": snapshot.index.membership_count(),
            "coverage": snapshot.cover.coverage(),
            "c": snapshot.c,
            "index_bytes": snapshot.index.memory_bytes(),
        }
    }

    fn do_health(&self) -> Value {
        let epoch = self.store.epoch();
        match self.degraded_reason() {
            None => object! { "ok": true, "op": "health", "epoch": epoch, "degraded": false },
            Some(reason) => object! {
                "ok": false,
                "op": "health",
                "epoch": epoch,
                "degraded": true,
                "reason": reason,
            },
        }
    }

    fn do_stats(&self) -> Value {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let op = |s: &OpStats| {
            object! {
                "count": load(&s.count),
                "p50_us": s.hist.quantile_us(0.50),
                "p99_us": s.hist.quantile_us(0.99),
            }
        };
        let stats = &self.stats;
        // Poison is recovered, not propagated: requests run under
        // `catch_unwind`, and the guarded write is a single `String` store.
        let last_error = stats
            .last_recompute_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        object! {
            "ok": true,
            "op": "stats",
            "epoch": self.store.epoch(),
            "uptime_ms": self.started.elapsed().as_millis(),
            "connections": load(&stats.connections),
            "requests": load(&stats.requests),
            "errors": load(&stats.errors),
            "recomputes": load(&stats.recomputes),
            "workers": object! {
                "configured": self.config.workers,
                "live": load(&stats.live_workers),
                "panics": load(&stats.panics),
                "respawns": load(&stats.respawns),
            },
            "robustness": object! {
                "overloaded_rejects": load(&stats.overloaded_rejects),
                "oversized_lines": load(&stats.oversized_lines),
                "idle_reaped": load(&stats.idle_reaped),
                "deadline_hits": load(&stats.deadline_hits),
                "shutdown_rejects": load(&stats.shutdown_rejects),
            },
            "recompute": object! {
                "published": load(&stats.recomputes),
                "failures": load(&stats.recompute_failures),
                "consecutive_failures": load(&stats.consecutive_recompute_failures),
                "degraded": self.degraded_reason().is_some(),
                "last_recovery_ms": load(&stats.last_recovery_ms),
                "last_error": last_error,
                "epoch_age_secs": self.store.load().age_secs(),
            },
            "latency": object! {
                "query": op(&stats.query),
                "local": op(&stats.local),
                "topk": op(&stats.topk),
            },
        }
    }

    /// The background recompute: failures (including panics) never stop
    /// the loop or the server — the last good epoch keeps serving, the
    /// retry interval doubles per consecutive failure (capped at 32×),
    /// and the degraded flag clears on the first success.
    fn recompute_loop(&self, interval: Duration, recompute: &RecomputeFn) {
        let mut round = 0u64;
        let mut consecutive: u32 = 0;
        let mut first_failure_at: Option<Instant> = None;
        'rounds: loop {
            let wait = interval * (1u32 << consecutive.min(MAX_BACKOFF_SHIFT));
            // Sleep the interval in short slices so shutdown is prompt.
            let until = Instant::now() + wait;
            while Instant::now() < until {
                if self.cancel.is_cancelled() {
                    break 'rounds;
                }
                std::thread::sleep(Duration::from_millis(20).min(interval));
            }
            round += 1;
            let seed = ticket_seed(self.config.seed, round);
            let result = if self.config.faults.should_fail_recompute() {
                Err("injected recompute failure".to_string())
            } else {
                match catch_unwind(AssertUnwindSafe(|| {
                    if self.config.faults.should_panic_recompute() {
                        panic!("injected recompute panic");
                    }
                    recompute(&self.graph, seed, &self.cancel)
                })) {
                    Ok(result) => result,
                    Err(payload) => {
                        self.stats.panics.fetch_add(1, Ordering::Relaxed);
                        Err(format!(
                            "recompute panicked: {}",
                            panic_message(payload.as_ref())
                        ))
                    }
                }
            };
            if self.cancel.is_cancelled() {
                // An error produced by shutdown cancellation is not a
                // failure of the recompute path.
                break;
            }
            let failure = match result {
                Ok(cover) if cover.node_count() == self.graph.node_count() => {
                    self.store.publish(cover, self.c);
                    self.stats.recomputes.fetch_add(1, Ordering::Relaxed);
                    if let Some(at) = first_failure_at.take() {
                        self.stats
                            .last_recovery_ms
                            .store(at.elapsed().as_millis() as u64, Ordering::Relaxed);
                    }
                    consecutive = 0;
                    self.stats
                        .consecutive_recompute_failures
                        .store(0, Ordering::Relaxed);
                    None
                }
                Ok(cover) => Some(format!(
                    "recompute produced a cover over {} nodes for a {}-node graph",
                    cover.node_count(),
                    self.graph.node_count()
                )),
                Err(message) => Some(message),
            };
            if let Some(message) = failure {
                consecutive = consecutive.saturating_add(1);
                first_failure_at.get_or_insert_with(Instant::now);
                self.stats
                    .recompute_failures
                    .fetch_add(1, Ordering::Relaxed);
                self.stats
                    .consecutive_recompute_failures
                    .store(u64::from(consecutive), Ordering::Relaxed);
                *self
                    .stats
                    .last_recompute_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = message;
            }
        }
    }
}

/// Cap on one response line read by [`Client::request`] — beyond
/// this the server is assumed broken (or hostile) and the read fails with
/// a typed error instead of buffering without bound. `query` responses on
/// giant communities are the largest legitimate lines; 64 MiB covers a
/// multi-million-member community with room to spare.
pub const CLIENT_RESPONSE_CAP: usize = 64 << 20;

/// A minimal line-protocol client for tests, CI smoke checks and the
/// latency benchmark: one blocking request–response exchange per call.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and returns the (trimmed) JSON response
    /// line. Rejects requests containing a newline (they would smuggle a
    /// second request) and responses exceeding [`CLIENT_RESPONSE_CAP`].
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        if line.contains('\n') {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "request must be a single line",
            ));
        }
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = (&mut self.reader)
            .take(CLIENT_RESPONSE_CAP as u64)
            .read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if !response.ends_with('\n') {
            return Err(if n >= CLIENT_RESPONSE_CAP {
                std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("response exceeded the {CLIENT_RESPONSE_CAP}-byte cap"),
                )
            } else {
                std::io::Error::new(ErrorKind::UnexpectedEof, "connection closed mid-response")
            });
        }
        Ok(response.trim_end().to_string())
    }
}
