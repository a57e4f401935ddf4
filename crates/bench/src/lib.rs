//! # oca-bench — experiment harness for the OCA reproduction
//!
//! One runnable binary per table/figure of the paper's Section V (see
//! DESIGN.md §4 for the index), built on a shared harness that drives
//! every algorithm through the `oca-api` registry as a
//! `Box<dyn CommunityDetector>` — identical graphs, identical
//! postprocessing, no per-algorithm dispatch. The hot ascent kernel is
//! timed by the `hot_path` binary. Every `BENCH_*.json` report is written
//! and read through [`report`]: full runs to `results/`, smoke runs to
//! `target/bench-smoke/`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod harness;
pub mod report;

pub use harness::{
    display_name, fixed_c_recompute, latency, peak_rss_bytes, quantile, results_dir, run_algorithm,
    run_detector, secs, shared_postprocess, Args, CancelOnDrop, LatencyUnit, RunOutput, Table,
    QUALITY_ALGORITHMS,
};
