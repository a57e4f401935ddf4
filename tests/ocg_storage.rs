//! Storage-layer contracts across the workspace: the mmap-backed `.ocg`
//! source must be *indistinguishable* from the in-RAM path.
//!
//! * Round-trip (property-based): for arbitrary edge multisets, the
//!   external-memory builder — in RAM when the graph fits one chunk,
//!   through multi-run chunk merges when it does not — writes the same
//!   file, byte for byte, as `write_ocg_path` of
//!   `GraphBuilder::build_degree_ordered()`.
//! * Detector conformance: every registered detector produces a
//!   bit-identical cover on the mmap-backed graph and on the same graph
//!   held in owned `Vec`s, for a fixed seed.
//! * Threads determinism: detectors exposing a `threads` option stay
//!   bit-identical across thread counts when the graph is mmap-backed.
//! * Ingestion: gzip autodetection parses a compressed edge list to the
//!   same graph as the plain text, and I/O errors carry the file path.

use oca_repro::api::{registry, DetectorOptions, GraphSource};
use oca_repro::gen::{lfr, LfrParams};
use oca_repro::graph::{
    build_ocg_from_edges, build_ocg_from_path, open_ocg_path, read_edge_list_path,
    read_edge_list_report_path, verify_ocg_path, write_edge_list_path, write_ocg_path,
    BuildOptions, GraphBuilder, Relabeling,
};
use oca_repro::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oca_ocg_storage_{}_{name}", std::process::id()))
}

/// An LFR benchmark graph written as an edge list and built into a
/// degree-ordered `.ocg`, returning both loaded forms of the same graph.
fn lfr_both_sources(name: &str, n: usize, seed: u64) -> (CsrGraph, oca_repro::api::LoadedGraph) {
    let bench = lfr(&LfrParams::small(n, 0.3, seed));
    let edges = tmp(&format!("{name}.edges"));
    let ocg = tmp(&format!("{name}.ocg"));
    write_edge_list_path(&bench.graph, &edges).unwrap();
    build_ocg_from_path(
        &edges,
        &ocg,
        &BuildOptions {
            min_nodes: bench.graph.node_count(),
            ..BuildOptions::default()
        },
    )
    .unwrap();
    let loaded = GraphSource::from_path(&ocg).load().unwrap();
    assert!(loaded.graph.is_mapped(), "`.ocg` load must be mmap-backed");
    // The owned twin: the same degree-ordered graph built in RAM.
    let (in_ram, _) = bench.graph.clone().into_degree_ordered_pair();
    std::fs::remove_file(&edges).unwrap();
    std::fs::remove_file(&ocg).unwrap();
    (in_ram, loaded)
}

/// Helper: degree-order a graph in RAM, returning graph + relabeling.
trait DegreeOrdered {
    fn into_degree_ordered_pair(self) -> (CsrGraph, Relabeling);
}

impl DegreeOrdered for CsrGraph {
    fn into_degree_ordered_pair(self) -> (CsrGraph, Relabeling) {
        let relabeling = Relabeling::degree_descending(&self);
        (self.relabeled(&relabeling), relabeling)
    }
}

proptest! {
    /// The streamed external-memory build is bit-exact with the in-RAM
    /// builder: the same file bytes as `write_ocg_path` — on both of its
    /// paths. Against the 1024-edge chunk floor, short lists are built in
    /// RAM, and longer ones spill one or many ingest runs, cross-run
    /// duplicates and directed runs.
    #[test]
    fn streamed_ocg_build_is_bit_exact(
        edges in prop::collection::vec((0u32..120, 0u32..120), 0..3000),
        case in 0u32..1_000_000,
    ) {
        let n = 120usize;
        let path = tmp(&format!("prop_{case}.ocg"));

        // In-RAM reference: the degree-ordered build and its drop counts,
        // written by `write_ocg_path`.
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let (_, expect_report) = b.clone().try_build_report().unwrap();
        let (expect_graph, expect_relabel) = b.build_degree_ordered();
        let reference = tmp(&format!("prop_{case}.ref.ocg"));
        write_ocg_path(&expect_graph, Some(&expect_relabel), expect_report, &reference).unwrap();
        let expect_bytes = std::fs::read(&reference).unwrap();
        std::fs::remove_file(&reference).unwrap();

        // Streamed builds with a floor-clamped chunk budget (1024 edges):
        // in RAM while the 2·m directed pairs fit one chunk, spilled
        // otherwise, with multi-run merging from 1024 non-loop edges on;
        // and with the default chunk, always in RAM.
        for chunk_edges in [0, BuildOptions::default().chunk_edges] {
            let stats = build_ocg_from_edges(
                edges.iter().copied(),
                &path,
                &BuildOptions {
                    chunk_edges,
                    min_nodes: n,
                    ..BuildOptions::default()
                },
            )
            .unwrap();
            prop_assert!(std::fs::read(&path).unwrap() == expect_bytes, "chunk {}", chunk_edges);
            prop_assert_eq!(stats.self_loops, expect_report.self_loops);
            prop_assert_eq!(stats.duplicates, expect_report.duplicates);
            prop_assert_eq!(verify_ocg_path(&path).unwrap().node_count, n);
            // Which path ran: one ingest run per chunk of non-loop edges,
            // and spill files unless they made one chunk of at most half
            // its size.
            let chunk = chunk_edges.max(1024);
            let chunked = edges.iter().filter(|(u, v)| u != v).count();
            prop_assert_eq!(stats.ingest_runs, chunked.div_ceil(chunk));
            let in_ram = chunked < chunk && 2 * expect_graph.edge_count() <= chunk;
            prop_assert_eq!(stats.spill_bytes == 0, in_ram);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Writing an in-RAM graph with `write_ocg_path` and reopening it is
    /// the identity on graph, relabeling, and recorded build counts.
    #[test]
    fn write_ocg_round_trips(
        edges in prop::collection::vec((0u32..60, 0u32..60), 0..150),
        case in 0u32..1_000_000,
    ) {
        let n = 60usize;
        let path = tmp(&format!("prop_w_{case}.ocg"));
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let (graph, report) = b.try_build_report().unwrap();
        let relabeling = Relabeling::degree_descending(&graph);
        let graph = graph.relabeled(&relabeling);
        write_ocg_path(&graph, Some(&relabeling), report, &path).unwrap();
        let ocg = open_ocg_path(&path).unwrap();
        prop_assert_eq!(&ocg.graph, &graph);
        prop_assert_eq!(ocg.relabeling().unwrap(), relabeling);
        prop_assert_eq!(ocg.info.self_loops, report.self_loops);
        prop_assert_eq!(ocg.info.duplicates, report.duplicates);
        std::fs::remove_file(&path).unwrap();
    }
}

/// Every registered detector answers bit-identically on the mmap-backed
/// graph and its owned in-RAM twin: storage is invisible to detection.
#[test]
fn detectors_are_bitwise_identical_on_mmap_and_ram() {
    let (in_ram, loaded) = lfr_both_sources("conformance", 250, 33);
    assert!(!in_ram.is_mapped());
    assert_eq!(in_ram, loaded.graph, "the two sources must hold one graph");
    for spec in registry().iter() {
        let seed = 91;
        let d_ram = spec
            .experiment(&in_ram)
            .detect(&in_ram, &mut DetectContext::new(seed))
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
        let d_map = spec
            .experiment(&loaded.graph)
            .detect(&loaded.graph, &mut DetectContext::new(seed))
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
        assert_eq!(
            d_ram.cover,
            d_map.cover,
            "{}: cover differs between owned and mmap-backed storage",
            spec.name()
        );
        assert_eq!(d_ram.iterations, d_map.iterations, "{}", spec.name());
    }
}

/// The threads-determinism contract holds with an mmap-backed source:
/// thread count never changes the cover of a threaded detector.
#[test]
fn thread_count_is_invisible_on_mmap_graphs() {
    let (_, loaded) = lfr_both_sources("threads", 250, 57);
    let mut checked = 0;
    for spec in registry().iter() {
        if !spec.option_keys().contains(&"threads") {
            continue;
        }
        checked += 1;
        let mut reference: Option<Cover> = None;
        for threads in [1usize, 2, 4] {
            let detector = spec
                .build(&DetectorOptions::new().with("threads", &threads.to_string()))
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            let detection = detector
                .detect(&loaded.graph, &mut DetectContext::new(17))
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            match &reference {
                None => reference = Some(detection.cover),
                Some(cover) => assert_eq!(
                    &detection.cover,
                    cover,
                    "{}: cover differs at threads = {threads} on the mmap graph",
                    spec.name()
                ),
            }
        }
    }
    assert!(checked >= 1, "OCA must be covered by this contract");
}

/// A gzip-compressed edge list parses to the same graph as its plain
/// text, via magic-byte autodetection (the fixture was produced by
/// `gzip.compress` at level 9 with a zeroed mtime).
#[test]
fn gzip_edge_lists_parse_like_plain_text() {
    const PLAIN: &str = "# gzip fixture: 3-community toy graph\n\
                         0 1\n1 2\n0 2\n2 3\n3 4\n4 5\n3 5\n5 6\n6 7\n7 8\n6 8\n";
    const GZ: [u8; 92] = [
        0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x03, 0x0d, 0xc5, 0x4b, 0x0a, 0x80,
        0x20, 0x00, 0x05, 0xc0, 0xfd, 0x3b, 0xc5, 0x83, 0xd6, 0x41, 0xfe, 0xa5, 0xdb, 0x44, 0x94,
        0xb9, 0x30, 0x45, 0x14, 0xaa, 0xd3, 0xe7, 0x6c, 0x66, 0x62, 0xf8, 0x62, 0xe1, 0x19, 0x9f,
        0xd6, 0xeb, 0xb1, 0x52, 0xcd, 0x7b, 0x4e, 0xa9, 0xdf, 0xb1, 0xbd, 0x6c, 0xf9, 0x65, 0xa8,
        0x5b, 0xb9, 0xb0, 0x50, 0x40, 0x50, 0x8e, 0x25, 0x24, 0x15, 0x14, 0x35, 0x34, 0xcd, 0xd8,
        0xc0, 0xd0, 0xc2, 0xd2, 0xc1, 0xd1, 0x8f, 0x3d, 0x7e, 0x71, 0xcd, 0xfc, 0x1c, 0x52, 0x00,
        0x00, 0x00,
    ];
    let plain_path = tmp("fixture.edges");
    let gz_path = tmp("fixture.edges.gz");
    std::fs::write(&plain_path, PLAIN).unwrap();
    std::fs::write(&gz_path, GZ).unwrap();
    let plain = read_edge_list_path(&plain_path).unwrap();
    let (gz, report) = read_edge_list_report_path(&gz_path).unwrap();
    assert_eq!(plain, gz);
    assert_eq!(report.edges_read, 11);
    // And the compressed form builds the same `.ocg` as the plain one.
    let ocg_a = tmp("fixture_a.ocg");
    let ocg_b = tmp("fixture_b.ocg");
    let opts = BuildOptions::default();
    build_ocg_from_path(&plain_path, &ocg_a, &opts).unwrap();
    build_ocg_from_path(&gz_path, &ocg_b, &opts).unwrap();
    let a = open_ocg_path(&ocg_a).unwrap();
    let b = open_ocg_path(&ocg_b).unwrap();
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.info.checksum, b.info.checksum);
    for p in [&plain_path, &gz_path, &ocg_a, &ocg_b] {
        std::fs::remove_file(p).unwrap();
    }
}

/// I/O failures name the offending file, end to end.
#[test]
fn edge_list_errors_carry_the_path() {
    let missing = tmp("definitely_missing.edges");
    let err = read_edge_list_path(&missing).unwrap_err().to_string();
    assert!(
        err.contains("definitely_missing.edges"),
        "path missing from error: {err}"
    );
    // The streamed builder reports its *input* path the same way.
    let out = tmp("never_written.ocg");
    let err = build_ocg_from_path(&missing, &out, &BuildOptions::default())
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("definitely_missing.edges"),
        "path missing from builder error: {err}"
    );
}

/// The serve layer answers in input ids when given a relabeled mmap
/// graph: a query round-trip through `Server::with_relabeling` returns
/// member ids that exist in the input space and match the translated
/// cover.
#[test]
fn serve_translates_ids_over_a_relabeled_graph() {
    use std::sync::Arc;
    let (_, loaded) = lfr_both_sources("serve_ids", 150, 71);
    let relabeling = loaded.relabeling.clone().expect("LFR graphs relabel");
    let graph = Arc::new(loaded.graph.clone());
    // One community in compact space: the three highest-degree nodes.
    let cover = Cover::new(graph.node_count(), vec![Community::from_raw([0u32, 1, 2])]);
    let server = Server::new(Arc::clone(&graph), cover, ServeConfig::default(), None)
        .unwrap()
        .with_relabeling(relabeling.clone())
        .unwrap();
    let cancel = server.cancel_token();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(listener));
        let mut client = Client::connect(addr).unwrap();
        // Ask for the input id of compact node 0; the answer's members
        // must be the input ids of compact {0, 1, 2}.
        let hub_input = relabeling.to_original(NodeId(0)).raw();
        let response = client.request(&format!("query {hub_input}")).unwrap();
        assert!(response.contains("\"ok\":true"), "{response}");
        let mut expect: Vec<u32> = (0..3u32)
            .map(|v| relabeling.to_original(NodeId(v)).raw())
            .collect();
        expect.sort_unstable();
        // Members are emitted in compact order; parse them back out.
        let members_part = response.split("\"members\":[").nth(1).unwrap();
        let members_str = members_part.split(']').next().unwrap();
        let mut got: Vec<u32> = members_str.split(',').map(|s| s.parse().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, expect, "{response}");
        cancel.cancel();
        handle.join().unwrap().unwrap();
    });
}
