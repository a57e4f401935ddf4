//! The common detection API: every community-detection algorithm in the
//! workspace is driven through the object-safe [`CommunityDetector`] trait.
//!
//! The paper's evaluation protocol (Section V) runs OCA and each baseline
//! on identical graphs with identical postprocessing. This module is the
//! code-level counterpart of that protocol: one trait with a uniform
//! signature, a [`DetectContext`] carrying the run's RNG seed, a
//! cooperative [`CancelToken`] and an optional progress callback, a
//! [`Detection`] result with uniform telemetry, and a typed [`DetectError`]
//! hierarchy replacing `panic!`-based input validation.
//!
//! Algorithm crates implement the trait on thin config newtypes (e.g.
//! `OcaDetector` in `oca`, `LfkDetector` in `oca-baselines`); the `oca-api`
//! crate aggregates them behind a string-keyed registry so new backends are
//! a drop-in registration rather than a fan-out edit across call sites.
//!
//! # Example: implementing a detector
//!
//! ```
//! use oca_graph::detect::{CommunityDetector, DetectContext, DetectError, Detection};
//! use oca_graph::{from_edges, Community, Cover, CsrGraph};
//! use std::time::Instant;
//!
//! /// A toy detector: every connected pair of nodes is a community.
//! #[derive(Debug)]
//! struct EdgeDetector;
//!
//! impl CommunityDetector for EdgeDetector {
//!     fn name(&self) -> &'static str {
//!         "edges"
//!     }
//!
//!     fn detect(
//!         &self,
//!         graph: &CsrGraph,
//!         ctx: &mut DetectContext,
//!     ) -> Result<Detection, DetectError> {
//!         let start = Instant::now();
//!         let mut communities = Vec::new();
//!         for u in graph.nodes() {
//!             ctx.tick("edges", u.index(), Some(graph.node_count()));
//!             for &v in graph.neighbors(u) {
//!                 if u < v {
//!                     communities.push(Community::new(vec![u, v]));
//!                 }
//!             }
//!         }
//!         let cover = Cover::new(graph.node_count(), communities);
//!         Ok(Detection::new(cover, start.elapsed()))
//!     }
//! }
//!
//! let g = from_edges(3, [(0, 1), (1, 2)]);
//! let detection = EdgeDetector
//!     .detect(&g, &mut DetectContext::new(42))
//!     .unwrap();
//! assert_eq!(detection.cover.len(), 2);
//! assert!(detection.complete);
//! ```

use crate::community::Cover;
use crate::csr::CsrGraph;
use crate::error::GraphError;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared state behind a [`CancelToken`]: the flag itself, an optional
/// wall-clock deadline, and an optional parent token whose cancellation is
/// inherited.
#[derive(Debug, Default)]
struct CancelInner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    parent: Option<CancelToken>,
}

/// A cooperative cancellation token shared between a detector run and the
/// code controlling it (another thread, a signal handler, a progress
/// callback). Cloning is cheap; all clones observe the same flag.
///
/// Beyond the plain flag, a token can carry a wall-clock **deadline**
/// ([`CancelToken::with_deadline`]) after which it reports cancelled on its
/// own, and it can be **linked** to a parent ([`CancelToken::child`]) so
/// that cancelling the parent cancels the child but not vice versa. A
/// serving layer uses both together: one parent token for process shutdown,
/// one short-lived child per request carrying that request's deadline —
/// a single `is_cancelled` poll inside the hot loop observes either.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A fresh token that reports cancelled once `deadline` passes, even if
    /// [`CancelToken::cancel`] is never called.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                deadline: Some(deadline),
                ..Default::default()
            }),
        }
    }

    /// A child token: cancelled whenever `self` is, but cancelling the
    /// child leaves `self` untouched.
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                parent: Some(self.clone()),
                ..Default::default()
            }),
        }
    }

    /// A child token with its own deadline: cancelled when the parent is
    /// cancelled *or* `deadline` passes. [`CancelToken::deadline_exceeded`]
    /// distinguishes the two after the fact.
    pub fn child_with_deadline(&self, deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                deadline: Some(deadline),
                parent: Some(self.clone()),
                ..Default::default()
            }),
        }
    }

    /// Requests cancellation. Detectors poll the flag at their outer loops
    /// (per ascent, per clique, per sweep) and return
    /// [`DetectError::Cancelled`] with whatever partial result they hold.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone, the
    /// deadline (if any) has passed, or a linked parent is cancelled.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                // Latch, so later polls skip the clock read.
                self.inner.flag.store(true, Ordering::Relaxed);
                return true;
            }
        }
        match &self.inner.parent {
            Some(parent) => parent.is_cancelled(),
            None => false,
        }
    }

    /// True when this token's *own* deadline has passed — regardless of
    /// whether the flag was also set. Lets a caller that handed out a
    /// deadline child distinguish "timed out" from "shut down".
    pub fn deadline_exceeded(&self) -> bool {
        self.inner
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// One progress event emitted by a running detector.
///
/// `stage` names the detector's current phase (e.g. `"ascent"`,
/// `"cliques"`, `"sweep"`); `done` counts completed work items in that
/// stage and `total` bounds them when the bound is known upfront.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// The detector phase this event belongs to.
    pub stage: &'static str,
    /// Work items completed so far in this stage.
    pub done: usize,
    /// Upper bound on `done`, when known.
    pub total: Option<usize>,
}

type ProgressFn = Box<dyn Fn(Progress) + Send + Sync>;

/// Per-run context handed to [`CommunityDetector::detect`]: the RNG seed,
/// a cancellation token and an optional progress callback.
///
/// The context owns the run's determinism contract: detectors must derive
/// all randomness from [`DetectContext::seed`] so two runs with the same
/// seed on the same graph produce the same cover.
pub struct DetectContext {
    seed: u64,
    cancel: CancelToken,
    progress: Option<ProgressFn>,
}

impl fmt::Debug for DetectContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectContext")
            .field("seed", &self.seed)
            .field("cancelled", &self.cancel.is_cancelled())
            .field("has_progress", &self.progress.is_some())
            .finish()
    }
}

impl DetectContext {
    /// A context with the given RNG seed, no cancellation and no progress
    /// callback.
    pub fn new(seed: u64) -> Self {
        DetectContext {
            seed,
            cancel: CancelToken::new(),
            progress: None,
        }
    }

    /// Attaches an externally controlled cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Attaches a progress callback, invoked synchronously from the
    /// detector (possibly from worker threads). Keep it cheap.
    pub fn with_progress<F>(mut self, callback: F) -> Self
    where
        F: Fn(Progress) + Send + Sync + 'static,
    {
        self.progress = Some(Box::new(callback));
        self
    }

    /// The RNG seed every detector must derive its randomness from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A clone of the run's cancellation token (e.g. to cancel from
    /// another thread).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// True once cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Emits one progress event (no-op without a callback).
    pub fn tick(&self, stage: &'static str, done: usize, total: Option<usize>) {
        if let Some(callback) = &self.progress {
            callback(Progress { stage, done, total });
        }
    }
}

impl Default for DetectContext {
    /// Seed 0, no cancellation, no progress.
    fn default() -> Self {
        DetectContext::new(0)
    }
}

/// The uniform result of a detector run: the cover plus telemetry every
/// algorithm reports the same way.
#[derive(Debug, Clone)]
pub struct Detection {
    /// The cover produced (before any shared postprocessing).
    pub cover: Cover,
    /// Wall-clock duration of the algorithm proper.
    pub elapsed: Duration,
    /// False when the algorithm hit an internal cap (e.g. CFinder's clique
    /// budget) and the cover is partial.
    pub complete: bool,
    /// Outer-loop iterations: seeds tried (OCA, LFK), sweeps (LPA),
    /// cliques enumerated (CFinder).
    pub iterations: usize,
    /// Algorithm-specific telemetry as key–value pairs, in a stable order
    /// (e.g. OCA reports `c` and `lambda_min`).
    pub stats: Vec<(&'static str, String)>,
}

impl Detection {
    /// A complete detection with no extra telemetry.
    pub fn new(cover: Cover, elapsed: Duration) -> Self {
        Detection {
            cover,
            elapsed,
            complete: true,
            iterations: 0,
            stats: Vec::new(),
        }
    }
}

/// Errors produced by detector construction, validation and runs.
///
/// Together with [`GraphError`] this forms the workspace's typed error
/// hierarchy: input validation surfaces as values rather than panics.
#[derive(Debug)]
pub enum DetectError {
    /// The underlying graph was invalid or could not be built.
    Graph(GraphError),
    /// A detector configuration failed validation.
    InvalidConfig {
        /// Display name of the algorithm whose config is invalid.
        algorithm: &'static str,
        /// What is wrong with it.
        message: String,
    },
    /// A registry lookup used a name no detector is registered under.
    UnknownAlgorithm {
        /// The name that failed to resolve.
        name: String,
        /// Names the registry does know.
        known: Vec<&'static str>,
    },
    /// A detector constructor received an option key it does not accept.
    UnknownOption {
        /// The algorithm whose constructor rejected the key.
        algorithm: &'static str,
        /// The offending key.
        key: String,
        /// Keys the constructor accepts.
        accepted: Vec<&'static str>,
    },
    /// A detector option had a value that could not be parsed.
    InvalidOption {
        /// The option key.
        key: String,
        /// The unparsable value.
        value: String,
        /// What was expected.
        message: String,
    },
    /// The run was cancelled via [`CancelToken`]; `partial` holds whatever
    /// the detector had produced when it noticed.
    Cancelled {
        /// The partial result at the point of cancellation.
        partial: Box<Detection>,
    },
    /// A checkpoint file could not be used to resume the run (damaged,
    /// wrong version, or bound to a different config/graph).
    Checkpoint {
        /// The checkpoint file.
        path: std::path::PathBuf,
        /// Why it was refused.
        source: crate::container::ContainerError,
    },
}

impl DetectError {
    /// Shorthand for [`DetectError::Cancelled`].
    pub fn cancelled(partial: Detection) -> Self {
        DetectError::Cancelled {
            partial: Box::new(partial),
        }
    }
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::Graph(e) => write!(f, "graph error: {e}"),
            DetectError::InvalidConfig { algorithm, message } => {
                write!(f, "invalid {algorithm} configuration: {message}")
            }
            DetectError::UnknownAlgorithm { name, known } => {
                write!(f, "unknown algorithm {name:?}; known: {}", known.join(", "))
            }
            DetectError::UnknownOption {
                algorithm,
                key,
                accepted,
            } => {
                if accepted.is_empty() {
                    write!(f, "unknown option --{key} for {algorithm} (none accepted)")
                } else {
                    write!(
                        f,
                        "unknown option --{key} for {algorithm}; accepted: {}",
                        accepted
                            .iter()
                            .map(|k| format!("--{k}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
            }
            DetectError::InvalidOption {
                key,
                value,
                message,
            } => {
                write!(f, "invalid value {value:?} for --{key}: {message}")
            }
            DetectError::Cancelled { partial } => write!(
                f,
                "run cancelled after {:.3}s with {} partial communities",
                partial.elapsed.as_secs_f64(),
                partial.cover.len()
            ),
            DetectError::Checkpoint { path, source } => {
                write!(f, "checkpoint {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for DetectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DetectError::Graph(e) => Some(e),
            DetectError::Checkpoint { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<GraphError> for DetectError {
    fn from(e: GraphError) -> Self {
        DetectError::Graph(e)
    }
}

/// The common interface of every community-detection algorithm.
///
/// The trait is object-safe: drivers hold `Box<dyn CommunityDetector>` and
/// treat OCA and every baseline identically — the shape of the paper's
/// evaluation protocol. Implementations are thin newtypes over the
/// algorithm's config struct; construction validates the config, so
/// `detect` itself fails only on graph errors or cancellation. The
/// `Debug + Send + Sync` supertraits keep boxed detectors loggable and
/// movable across driver threads.
pub trait CommunityDetector: fmt::Debug + Send + Sync {
    /// Display name, unique per algorithm variant (used as the row label
    /// in experiment tables, so e.g. the faithful CFinder path must not
    /// collide with the triangle path).
    fn name(&self) -> &'static str;

    /// Runs the algorithm on `graph`.
    ///
    /// Contract:
    /// * all randomness derives from [`DetectContext::seed`] — equal seeds
    ///   on equal graphs give equal covers. Parallel implementations must
    ///   arrange their scheduling (e.g. OCA's ticket-ordered reduction) so
    ///   worker counts and thread interleavings never change the result;
    /// * the cancellation token is polled at least once per outer
    ///   iteration and honoured with [`DetectError::Cancelled`] carrying
    ///   the partial result;
    /// * progress is reported through [`DetectContext::tick`] with `done`
    ///   values that are monotone non-decreasing per stage (completed
    ///   work only — never a count captured before the work ran).
    fn detect(&self, graph: &CsrGraph, ctx: &mut DetectContext) -> Result<Detection, DetectError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled());
        assert!(b.is_cancelled());
    }

    #[test]
    fn context_carries_seed_and_token() {
        let token = CancelToken::new();
        let ctx = DetectContext::new(7).with_cancel(token.clone());
        assert_eq!(ctx.seed(), 7);
        assert!(!ctx.is_cancelled());
        token.cancel();
        assert!(ctx.is_cancelled());
        assert!(ctx.cancel_token().is_cancelled());
    }

    #[test]
    fn ticks_reach_the_progress_callback() {
        let count = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&count);
        let ctx = DetectContext::new(0).with_progress(move |p: Progress| {
            assert_eq!(p.stage, "stage");
            assert_eq!(p.total, Some(10));
            seen.fetch_add(1, Ordering::Relaxed);
        });
        for i in 0..3 {
            ctx.tick("stage", i, Some(10));
        }
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn ticks_without_callback_are_noops() {
        DetectContext::new(0).tick("stage", 1, None);
    }

    #[test]
    fn error_messages_name_the_problem() {
        let e = DetectError::UnknownAlgorithm {
            name: "nope".into(),
            known: vec!["oca", "lfk"],
        };
        let msg = e.to_string();
        assert!(msg.contains("nope") && msg.contains("oca") && msg.contains("lfk"));

        let e = DetectError::UnknownOption {
            algorithm: "OCA",
            key: "thread".into(),
            accepted: vec!["threads"],
        };
        assert!(e.to_string().contains("--thread") && e.to_string().contains("--threads"));

        let e = DetectError::InvalidConfig {
            algorithm: "CFinder",
            message: "k must be at least 2".into(),
        };
        assert!(e.to_string().contains("CFinder"));

        let partial = Detection::new(Cover::empty(0), Duration::from_millis(10));
        let e = DetectError::cancelled(partial);
        assert!(e.to_string().contains("cancelled"));
    }

    #[test]
    fn graph_errors_convert_and_chain() {
        use std::error::Error;
        let e = DetectError::from(GraphError::EmptyGraph);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("graph error"));
    }

    #[test]
    fn context_debug_is_informative() {
        let ctx = DetectContext::default().with_progress(|_| {});
        let dbg = format!("{ctx:?}");
        assert!(dbg.contains("seed") && dbg.contains("has_progress"));
    }
}
