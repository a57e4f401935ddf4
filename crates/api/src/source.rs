//! Graph sources: one type answering "where does the graph come from".
//!
//! Front ends (the CLI, the serve warm path, the benches) accept either a
//! plain-text edge list that is ingested into RAM, or a prebuilt `.ocg`
//! on-disk graph that is memory-mapped in O(1). A [`GraphSource`] names
//! the choice; [`GraphSource::load`] produces a [`LoadedGraph`] carrying
//! the graph plus everything a driver needs to speak the *input* id
//! space: the relabeling recorded at build time (if any) and the
//! ingestion report (self-loops / duplicates skipped).
//!
//! The id-space contract: detectors always run on the loaded graph's
//! compact ids; covers read from or written to disk are always in input
//! (original) ids. [`LoadedGraph::cover_to_input`] and
//! [`LoadedGraph::cover_to_compact`] are the two crossings, and both are
//! the identity when the source carried no relabeling.

use oca_graph::{
    open_ocg_path, read_edge_list_path, Cover, CsrGraph, GraphError, IngestReport, OcgInfo,
    Relabeling,
};
use std::path::{Path, PathBuf};

/// Where a graph comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSource {
    /// A whitespace-separated edge-list file (plain text; gzip bytes are
    /// refused), ingested into an in-RAM CSR at load time.
    EdgeList(PathBuf),
    /// A prebuilt `.ocg` graph, memory-mapped read-only in O(1).
    Ocg(PathBuf),
}

impl GraphSource {
    /// Chooses the source kind from the file extension: `.ocg` maps the
    /// on-disk format, anything else is read as an edge list.
    pub fn from_path<P: AsRef<Path>>(path: P) -> Self {
        let path = path.as_ref().to_path_buf();
        if path.extension().is_some_and(|e| e == "ocg") {
            GraphSource::Ocg(path)
        } else {
            GraphSource::EdgeList(path)
        }
    }

    /// The underlying file path.
    pub fn path(&self) -> &Path {
        match self {
            GraphSource::EdgeList(p) | GraphSource::Ocg(p) => p,
        }
    }

    /// Loads the graph. Edge lists are ingested and built in RAM (the
    /// returned report counts skipped self-loops and duplicates); `.ocg`
    /// files are mapped without reading the payload, with the build-time
    /// relabeling (if recorded) reconstructed so covers can be mapped
    /// between id spaces.
    pub fn load(&self) -> Result<LoadedGraph, GraphError> {
        match self {
            GraphSource::EdgeList(path) => {
                let (graph, ingest) = read_edge_list_path(path)?;
                Ok(LoadedGraph {
                    graph,
                    relabeling: None,
                    ingest: Some(ingest),
                    info: None,
                })
            }
            GraphSource::Ocg(path) => {
                let ocg = open_ocg_path(path)?;
                let relabeling = ocg.relabeling().filter(|r| !r.is_identity());
                Ok(LoadedGraph {
                    graph: ocg.graph,
                    relabeling,
                    ingest: None,
                    info: Some(ocg.info),
                })
            }
        }
    }
}

/// A graph ready to detect on, plus the id-space and provenance metadata
/// its source carried.
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// The graph, in compact (detection) id space.
    pub graph: CsrGraph,
    /// Compact ↔ input id bijection, when the source was built with
    /// relabeling; `None` means the two spaces coincide.
    pub relabeling: Option<Relabeling>,
    /// Ingestion counts for edge-list sources (`None` for `.ocg`).
    pub ingest: Option<IngestReport>,
    /// On-disk header metadata for `.ocg` sources (`None` for edge
    /// lists). Carries the build-time self-loop/duplicate counts.
    pub info: Option<OcgInfo>,
}

impl LoadedGraph {
    /// True when compact and input ids differ.
    pub fn is_relabeled(&self) -> bool {
        self.relabeling.is_some()
    }

    /// Self-loops skipped while this graph was built (at ingest for edge
    /// lists, recorded in the header for `.ocg`).
    pub fn self_loops(&self) -> u64 {
        self.ingest
            .map(|r| r.self_loops)
            .or_else(|| self.info.as_ref().map(|i| i.self_loops))
            .unwrap_or(0)
    }

    /// Duplicate edges skipped while this graph was built.
    pub fn duplicates(&self) -> u64 {
        self.ingest
            .map(|r| r.duplicates)
            .or_else(|| self.info.as_ref().map(|i| i.duplicates))
            .unwrap_or(0)
    }

    /// Maps a cover produced on the compact graph back to input ids (the
    /// form that goes to disk or to the user).
    pub fn cover_to_input(&self, cover: &Cover) -> Cover {
        match &self.relabeling {
            Some(r) => r.cover_to_original(cover),
            None => cover.clone(),
        }
    }

    /// Maps a cover expressed in input ids (e.g. a ground truth or a
    /// saved warm-start cover) onto the compact graph.
    pub fn cover_to_compact(&self, cover: &Cover) -> Cover {
        match &self.relabeling {
            Some(r) => r.cover_to_compact(cover),
            None => cover.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::{build_ocg_from_edges, write_edge_list_path, BuildOptions, Community, NodeId};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("oca_api_source_{}_{name}", std::process::id()))
    }

    fn star_edges() -> Vec<(u32, u32)> {
        // Node 3 is the hub, so degree-ordered relabeling is non-trivial.
        vec![(3, 0), (3, 1), (3, 2), (3, 4), (0, 1), (2, 2), (3, 0)]
    }

    #[test]
    fn from_path_picks_by_extension() {
        assert!(matches!(
            GraphSource::from_path("g.ocg"),
            GraphSource::Ocg(_)
        ));
        assert!(matches!(
            GraphSource::from_path("g.edges"),
            GraphSource::EdgeList(_)
        ));
        assert!(matches!(
            GraphSource::from_path("graph.txt"),
            GraphSource::EdgeList(_)
        ));
        assert_eq!(GraphSource::from_path("g.ocg").path(), Path::new("g.ocg"));
    }

    #[test]
    fn edge_list_load_reports_ingest_counts() {
        let path = tmp("ingest.edges");
        std::fs::write(&path, "3 0\n3 1\n3 2\n3 4\n0 1\n2 2\n3 0\n").unwrap();
        let loaded = GraphSource::from_path(&path).load().unwrap();
        assert_eq!(loaded.graph.node_count(), 5);
        assert!(!loaded.is_relabeled());
        assert_eq!(loaded.self_loops(), 1);
        assert_eq!(loaded.duplicates(), 1);
        // Identity crossings.
        let cover = Cover::new(5, vec![Community::from_raw([0, 3])]);
        assert_eq!(loaded.cover_to_input(&cover), cover);
        assert_eq!(loaded.cover_to_compact(&cover), cover);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ocg_load_maps_covers_between_id_spaces() {
        let path = tmp("mapped.ocg");
        build_ocg_from_edges(
            star_edges(),
            &path,
            &BuildOptions {
                min_nodes: 5,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        let loaded = GraphSource::from_path(&path).load().unwrap();
        assert!(loaded.is_relabeled());
        assert_eq!(loaded.self_loops(), 1);
        assert_eq!(loaded.duplicates(), 1);
        // The hub (input id 3) has the highest degree, so it is compact 0.
        let hub = Cover::new(5, vec![Community::from_raw([3])]);
        let hub_compact = Cover::new(5, vec![Community::from_raw([0])]);
        assert_eq!(loaded.cover_to_compact(&hub), hub_compact);
        assert_eq!(loaded.cover_to_input(&hub_compact), hub);
        // Round-trip a cover through both crossings.
        let input_cover = Cover::new(5, vec![Community::from_raw([1, 3])]);
        let compact = loaded.cover_to_compact(&input_cover);
        assert!(compact.communities()[0].contains(NodeId(0)));
        assert_eq!(loaded.cover_to_input(&compact), input_cover);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ocg_and_edge_list_agree_on_the_graph() {
        let edges = tmp("agree.edges");
        let ocg = tmp("agree.ocg");
        let loaded_list = {
            let g = oca_graph::from_edges(5, star_edges());
            write_edge_list_path(&g, &edges).unwrap();
            GraphSource::from_path(&edges).load().unwrap()
        };
        build_ocg_from_edges(
            star_edges(),
            &ocg,
            &BuildOptions {
                min_nodes: 5,
                relabel: false,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        let loaded_ocg = GraphSource::from_path(&ocg).load().unwrap();
        assert_eq!(loaded_list.graph, loaded_ocg.graph);
        assert!(!loaded_ocg.is_relabeled());
        std::fs::remove_file(&edges).unwrap();
        std::fs::remove_file(&ocg).unwrap();
    }
}
