//! # oca-repro — workspace facade for the OCA (ICDE 2010) reproduction
//!
//! Re-exports every crate of the reproduction under one roof so examples
//! and integration tests can use a single dependency. See the README for
//! the architecture overview and DESIGN.md for the paper-to-code map.
//!
//! The primary entry point is the [`prelude::CommunityDetector`] trait:
//! every algorithm (OCA and the Section V baselines) sits behind it, and
//! the [`prelude::registry()`] constructs any of them by name.
//!
//! ```
//! use oca_repro::prelude::*;
//!
//! // Two triangles sharing node 2 — an overlapping structure.
//! let g = oca_repro::graph::from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
//! let detector = registry().build("oca", &DetectorOptions::new()).unwrap();
//! let detection = detector.detect(&g, &mut DetectContext::new(42)).unwrap();
//! assert!(!detection.cover.is_empty());
//! ```

pub use oca as core_alg;
pub use oca_api as api;
pub use oca_baselines as baselines;
pub use oca_bench as bench;
pub use oca_gen as gen;
pub use oca_graph as graph;
pub use oca_metrics as metrics;
pub use oca_serve as serve;
pub use oca_spectral as spectral;

/// Convenience prelude: the types most programs need.
///
/// The detection API ([`CommunityDetector`](oca_graph::CommunityDetector),
/// [`DetectContext`](oca_graph::DetectContext), [`registry()`](fn@oca_api::registry))
/// is the primary entry point; the concrete `Oca` runner remains available
/// for code that wants OCA-specific telemetry.
pub mod prelude {
    pub use oca::{
        LocalConfig, LocalDetection, LocalDetector, Oca, OcaConfig, OcaDetector, OcaResult,
        SeedStrategy,
    };
    pub use oca_api::{registry, DetectorOptions, DetectorRegistry, DetectorSpec};
    pub use oca_graph::{
        CancelToken, CommunityDetector, DetectContext, DetectError, Detection, Progress,
    };
    pub use oca_graph::{Community, Cover, CsrGraph, GraphBuilder, GraphError, NodeId};
    pub use oca_metrics::{rho, theta};
    pub use oca_serve::{Client, CoverSnapshot, ServeConfig, Server, SnapshotStore};
}
