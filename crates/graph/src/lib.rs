//! # oca-graph — compact undirected graph substrate
//!
//! The graph engine underlying the OCA (ICDE 2010) reproduction. The paper
//! manages graphs "with C++ structures created ad hoc for this problem"
//! (Section V); this crate is the Rust equivalent: a CSR representation
//! tuned for 10⁷-node / 10⁸-edge graphs, plus the builders, traversals,
//! component analysis, community/cover types and edge-list I/O that the
//! algorithm, baselines, generators and metrics all share.
//!
//! ## Quick tour
//!
//! ```
//! use oca_graph::{GraphBuilder, NodeId, Community, Cover};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(0, 2);
//! let g = b.build();
//!
//! assert_eq!(g.edge_count(), 3);
//! assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
//!
//! let triangle = Community::from_raw([0, 1, 2]);
//! assert_eq!(triangle.internal_edges(&g), 3);
//!
//! let cover = Cover::new(4, vec![triangle]);
//! assert_eq!(cover.orphans(), vec![NodeId::new(3)]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod atomic;
pub mod builder;
pub mod community;
pub mod components;
pub mod container;
pub mod cover_io;
pub mod csr;
pub mod detect;
pub mod epoch;
pub mod error;
pub mod io;
pub mod json;
pub mod kcore;
pub mod node;
pub mod ocg;
pub mod ocg_build;
mod par;
pub mod relabel;
pub mod stats;
mod storage;
#[cfg(test)]
mod testing;
pub mod traversal;
pub mod union_find;

pub use atomic::atomic_write_path;
pub use builder::{from_edges, BuildReport, GraphBuilder};
pub use community::{Community, Cover};
pub use components::{is_connected, Components};
pub use container::{fnv1a, ContainerError, Fnv1a, Frame, IntegrityClass, Reader};
pub use cover_io::{read_cover, read_cover_path, write_cover, write_cover_path};
pub use csr::CsrGraph;
pub use detect::{CancelToken, CommunityDetector, DetectContext, DetectError, Detection, Progress};
pub use epoch::EpochCounters;
pub use error::{GraphError, Result};
pub use io::{
    read_edge_list, read_edge_list_path, write_edge_list, write_edge_list_path, IngestReport,
};
pub use kcore::CoreDecomposition;
pub use node::NodeId;
pub use ocg::{open_ocg_path, read_ocg_info, verify_ocg_path, write_ocg_path};
pub use ocg::{OcgGraph, OcgInfo};
pub use ocg_build::{
    build_ocg_from_edges, build_ocg_from_emitter, build_ocg_from_path, BuildOptions, BuildPhases,
    BuildStats,
};
pub use par::default_workers;
pub use relabel::Relabeling;
pub use stats::GraphStats;
pub use traversal::ball;
pub use union_find::UnionFind;
