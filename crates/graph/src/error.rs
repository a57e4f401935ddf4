//! Error types for graph construction and I/O.

use crate::container::{ContainerError, IntegrityClass};
use std::fmt;

/// Errors produced by graph construction, validation and I/O.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a node index `>= node_count`.
    NodeOutOfBounds {
        /// The offending node index.
        node: u32,
        /// The number of nodes in the graph being built.
        node_count: u32,
    },
    /// A parsed edge list line could not be understood.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The operation needs a non-empty graph.
    EmptyGraph,
    /// A graph was requested with more nodes than the `u32` id space holds.
    TooManyNodes {
        /// The requested node count.
        requested: usize,
    },
    /// An edge set whose directed adjacency overflows the compact CSR's
    /// `u32` offset space.
    TooManyEdges {
        /// The raw (pre-deduplication) undirected edge count.
        requested: usize,
    },
    /// A binary graph file (`.ocg`) was malformed or failed verification.
    InvalidFormat {
        /// Description of the problem.
        message: String,
    },
    /// A binary graph file (`.ocg`) failed an integrity check shared with
    /// the sealed container: bad magic, unsupported version, truncation
    /// or checksum mismatch.
    Container(ContainerError),
    /// An error annotated with the file path it came from.
    WithPath {
        /// The offending file.
        path: std::path::PathBuf,
        /// The underlying error.
        source: Box<GraphError>,
    },
}

impl GraphError {
    /// Annotates `self` with the file path it originated from. An error
    /// already carrying a path is returned unchanged, so nested helpers
    /// can all call this without double-wrapping.
    pub fn with_path(self, path: impl Into<std::path::PathBuf>) -> GraphError {
        match self {
            GraphError::WithPath { .. } => self,
            other => GraphError::WithPath {
                path: path.into(),
                source: Box::new(other),
            },
        }
    }

    /// Classifies an `.ocg` integrity failure, if `self` is one.
    pub fn integrity_class(&self) -> Option<IntegrityClass> {
        match self {
            GraphError::WithPath { source, .. } => source.integrity_class(),
            GraphError::Container(e) => e.integrity_class(),
            _ => None,
        }
    }
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfBounds { node, node_count } => write!(
                f,
                "node index {node} out of bounds for graph with {node_count} nodes"
            ),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::EmptyGraph => write!(f, "operation requires a non-empty graph"),
            GraphError::TooManyNodes { requested } => {
                write!(f, "graphs are limited to 2^32 - 1 nodes, got {requested}")
            }
            GraphError::TooManyEdges { requested } => {
                write!(
                    f,
                    "graphs are limited to 2^31 - 1 undirected edges, got {requested}"
                )
            }
            GraphError::InvalidFormat { message } => {
                write!(f, "invalid graph file: {message}")
            }
            GraphError::Container(e) => write!(f, "invalid graph file: {e}"),
            GraphError::WithPath { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            GraphError::Container(e) => Some(e),
            GraphError::WithPath { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenience alias for graph results.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::NodeOutOfBounds {
            node: 9,
            node_count: 5,
        };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("5"));

        let e = GraphError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));

        assert!(GraphError::EmptyGraph.to_string().contains("non-empty"));
    }

    #[test]
    fn io_error_source_is_preserved() {
        use std::error::Error;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = GraphError::from(io);
        assert!(e.source().is_some());
    }

    #[test]
    fn integrity_classes_recover_from_pinned_messages() {
        // The class comes from the typed variant; the messages ops logs
        // show are pinned here and, from the reader side, in `ocg`.
        let checksum = GraphError::Container(ContainerError::ChecksumMismatch);
        assert_eq!(
            checksum.integrity_class(),
            Some(IntegrityClass::ChecksumMismatch)
        );
        assert!(checksum.to_string().contains("checksum mismatch"));
        let version = GraphError::Container(ContainerError::UnsupportedVersion {
            found: 9,
            supported: 1,
        });
        assert_eq!(
            version.integrity_class(),
            Some(IntegrityClass::VersionMismatch)
        );
        assert!(version.to_string().contains("unsupported version 9"));
        let implied = GraphError::Container(ContainerError::Truncated {
            len: 100,
            expected: 200,
        });
        assert_eq!(implied.integrity_class(), Some(IntegrityClass::Truncated));
        assert!(implied
            .to_string()
            .contains("file is 100 bytes but the header implies 200"));
        // Classification sees through the path wrapper.
        assert_eq!(
            checksum.with_path("g.ocg").integrity_class(),
            Some(IntegrityClass::ChecksumMismatch)
        );
        // Non-integrity errors do not classify, whatever their text says.
        assert_eq!(GraphError::EmptyGraph.integrity_class(), None);
        let other = GraphError::InvalidFormat {
            message: "checksum mismatch in a message is just text".into(),
        };
        assert_eq!(other.integrity_class(), None);
        assert_eq!(
            GraphError::Container(ContainerError::BadMagic {
                expected: *b"OCAGRAPH"
            })
            .integrity_class(),
            None
        );
        // Labels are the stable strings ops scripts grep for.
        assert_eq!(IntegrityClass::Truncated.label(), "truncation");
        assert_eq!(
            IntegrityClass::ChecksumMismatch.label(),
            "checksum-mismatch"
        );
        assert_eq!(IntegrityClass::VersionMismatch.label(), "version-mismatch");
    }

    #[test]
    fn with_path_annotates_once() {
        use std::error::Error;
        let e = GraphError::EmptyGraph.with_path("a.txt").with_path("b.txt");
        let msg = e.to_string();
        assert!(msg.contains("a.txt"), "kept the original path: {msg}");
        assert!(!msg.contains("b.txt"), "no double wrapping: {msg}");
        assert!(e.source().is_some());
    }
}
