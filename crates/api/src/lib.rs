//! # oca-api — the detector registry of the OCA reproduction
//!
//! The workspace's algorithms (OCA and the Section V baselines) all
//! implement the object-safe [`CommunityDetector`] trait from
//! [`oca_graph::detect`]; this crate aggregates them behind a
//! string-keyed [`DetectorRegistry`] so drivers — the experiment harness,
//! the CLI, library users — dispatch by name instead of hard-coding a
//! `match` per algorithm. Adding a backend is a single
//! [`DetectorRegistry::register`] call, not a fan-out edit across call
//! sites.
//!
//! Three construction paths per registered algorithm, all from
//! string-keyed [`DetectorOptions`] (e.g. parsed CLI flags), with unknown
//! keys rejected as typed [`DetectError::UnknownOption`]s:
//!
//! * [`DetectorSpec::build`] — the options over the library default;
//! * [`DetectorSpec::build_tuned`] — the options over the tuned preset
//!   for a concrete graph (for OCA, `oca::OcaConfig::tuned`);
//! * [`DetectorSpec::experiment`] — the tuned preset with the spec's
//!   protocol options, as the paper's evaluation protocol runs it.
//!
//! ```
//! use oca_api::{registry, DetectContext, DetectorOptions};
//! use oca_graph::from_edges;
//!
//! let g = from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
//! let detector = registry()
//!     .build("lfk", &DetectorOptions::new().with("alpha", "1.0"))
//!     .unwrap();
//! let detection = detector.detect(&g, &mut DetectContext::new(42)).unwrap();
//! assert!(!detection.cover.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod options;
pub mod recompute;
pub mod registry;
pub mod source;

pub use options::DetectorOptions;
pub use recompute::{registry_recompute, registry_recompute_with};
pub use registry::{registry, DetectorRegistry, DetectorSpec};
pub use source::{GraphSource, LoadedGraph};

// The detection API itself lives in `oca-graph`; re-export it so `oca-api`
// is a one-stop dependency for driving detectors.
pub use oca_graph::detect::{
    CancelToken, CommunityDetector, DetectContext, DetectError, Detection, Progress,
};
