//! Degree-ordered relabeling (what `oca graph build` applies once per
//! graph): the permutation round-trips on generated graphs and orders
//! hubs first.

use oca_repro::gen::{lfr, LfrParams};
use oca_repro::graph::relabel::Relabeling;
use oca_repro::prelude::*;

fn lfr_bench(seed: u64) -> oca_repro::gen::LfrBenchmark {
    lfr(&LfrParams::small(600, 0.25, seed))
}

#[test]
fn degree_ordered_relabeling_round_trips_on_generated_graphs() {
    for seed in [1u64, 7, 42] {
        let graph = lfr_bench(seed).graph;
        let relabeling = Relabeling::degree_descending(&graph);
        let compact = graph.relabeled(&relabeling);
        assert!(compact.validate().is_ok(), "seed {seed}");
        assert_eq!(compact.edge_count(), graph.edge_count());
        for v in 0..graph.node_count() as u32 {
            let v = NodeId(v);
            assert_eq!(relabeling.to_compact(relabeling.to_original(v)), v);
            assert_eq!(relabeling.to_original(relabeling.to_compact(v)), v);
            assert_eq!(compact.degree(v), graph.degree(relabeling.to_original(v)));
        }
        // Hubs first: degrees are non-increasing along compact ids.
        for v in 1..compact.node_count() as u32 {
            assert!(compact.degree(NodeId(v)) <= compact.degree(NodeId(v - 1)));
        }
    }
}
