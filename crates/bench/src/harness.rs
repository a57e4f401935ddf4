//! Shared experiment harness: uniform algorithm runner, timers, table and
//! CSV output.
//!
//! Every figure/table binary goes through [`run_algorithm`] so all
//! algorithms see identical graphs and identical postprocessing — matching
//! the paper's protocol ("as our postprocessing techniques also improve the
//! quality of the other algorithms, we applied them to all the results").
//! Dispatch is fully generic: the harness asks the [`oca_api`] registry
//! for the tuned preset of a named algorithm with its protocol options
//! ([`oca_api::DetectorSpec::experiment`]) and drives it
//! through `Box<dyn CommunityDetector>` — no per-algorithm `match`, so a
//! newly registered backend is immediately comparable.

use oca::{merge_similar, CStrategy, HaltingConfig, OcaConfig, OcaDetector};
use oca_api::{registry, CommunityDetector, DetectContext};
use oca_graph::{json::Value, object, CancelToken, Cover, CsrGraph};
use oca_serve::RecomputeFn;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Registry names of the algorithms the paper's quality experiments
/// compare (Figures 2–4): OCA against both baselines.
pub const QUALITY_ALGORITHMS: [&str; 3] = ["oca", "lfk", "cfinder"];

/// One algorithm execution: the raw cover plus the detector's uniform
/// telemetry.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Display name of the algorithm that ran (unique per variant — the
    /// faithful CFinder path reports `"CFinder-faithful"`).
    pub algorithm: &'static str,
    /// The cover produced (before shared postprocessing).
    pub cover: Cover,
    /// Wall-clock duration of the algorithm proper.
    pub elapsed: Duration,
    /// True if the algorithm completed (CFinder may hit its clique cap).
    pub complete: bool,
    /// Outer-loop iterations (seeds, sweeps, cliques — see
    /// [`oca_graph::detect::Detection::iterations`]).
    pub iterations: usize,
    /// Algorithm-specific telemetry key–value pairs.
    pub stats: Vec<(&'static str, String)>,
}

/// Drives one detector under the harness's uniform context.
///
/// # Panics
/// Panics if the detector fails; protocol detectors are pre-validated and
/// the harness context is never cancelled, so a failure is a driver bug.
pub fn run_detector(detector: &dyn CommunityDetector, graph: &CsrGraph, seed: u64) -> RunOutput {
    let mut ctx = DetectContext::new(seed);
    let detection = detector
        .detect(graph, &mut ctx)
        .unwrap_or_else(|e| panic!("{} failed: {e}", detector.name()));
    RunOutput {
        algorithm: detector.name(),
        cover: detection.cover,
        elapsed: detection.elapsed,
        complete: detection.complete,
        iterations: detection.iterations,
        stats: detection.stats,
    }
}

/// Runs the named algorithm (a registry key such as `"oca"` or
/// `"cfinder-faithful"`) under the paper's protocol
/// ([`oca_api::DetectorSpec::experiment`]).
///
/// # Panics
/// Panics on an unregistered name; the figure binaries pass compile-time
/// constants.
pub fn run_algorithm(name: &str, graph: &CsrGraph, seed: u64) -> RunOutput {
    let reg = registry();
    let spec = reg.get(name).unwrap_or_else(|e| panic!("{e}"));
    run_detector(spec.experiment(graph).as_ref(), graph, seed)
}

/// The display name a registered algorithm reports in table rows (e.g.
/// for labelling skipped runs without executing anything).
///
/// # Panics
/// Panics on an unregistered name.
pub fn display_name(name: &str) -> &'static str {
    let reg = registry();
    reg.get(name)
        .unwrap_or_else(|e| panic!("{e}"))
        .display_name()
}

/// The shared postprocessing of Section IV, applied to every algorithm's
/// output in the quality experiments.
pub fn shared_postprocess(cover: &Cover) -> Cover {
    merge_similar(cover, 0.5)
}

/// A simple fixed-width table printer for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:width$}", cell, width = widths[i] + 2);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.max(cols * 3)));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Writes the table as CSV to `results/<name>.csv` under the workspace
    /// root, creating the directory if needed. Returns the path.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut csv = String::new();
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        csv.push_str(
            &self
                .header
                .iter()
                .map(|s| escape(s))
                .collect::<Vec<_>>()
                .join(","),
        );
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.iter().map(|s| escape(s)).collect::<Vec<_>>().join(","));
            csv.push('\n');
        }
        std::fs::write(&path, csv)?;
        Ok(path)
    }
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where unavailable. The high-water mark is
/// monotone for the lifetime of the process, so benches that want
/// per-phase peaks must isolate phases in subprocesses.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<u64>().ok())
            })
        })
        .map_or(0, |kb| kb * 1024)
}

/// The `results/` directory of the workspace the process runs in: beside
/// the nearest `Cargo.toml` with a `[workspace]` table at or above the
/// current directory, else `./results`. It is found at run time, so a
/// bench binary built in one checkout and run in another writes into the
/// one it runs in.
pub fn results_dir() -> PathBuf {
    results_dir_from(&std::env::current_dir().unwrap_or_default())
}

/// [`results_dir`] for the current directory `start`.
fn results_dir_from(start: &Path) -> PathBuf {
    let has_workspace = |dir: &&Path| match std::fs::read_to_string(dir.join("Cargo.toml")) {
        Ok(toml) => toml.lines().any(|line| line.trim() == "[workspace]"),
        Err(_) => false,
    };
    start
        .ancestors()
        .find(has_workspace)
        .unwrap_or(start)
        .join("results")
}

/// Cancels a server when dropped, so a panicking client thread can never
/// leave `std::thread::scope` waiting on the accept loop forever.
#[derive(Debug)]
pub struct CancelOnDrop(pub CancelToken);

impl Drop for CancelOnDrop {
    fn drop(&mut self) {
        self.0.cancel();
    }
}

/// The background recompute of the serving benches: a single-thread OCA
/// pass of at most `max_seeds` seeds with `c` fixed at `fixed_c`, the
/// serving config's value. `c` is a property of the static graph, so
/// re-running the spectral solve every round would spend the window
/// resolving what is already known.
pub fn fixed_c_recompute(fixed_c: f64, max_seeds: usize) -> Box<RecomputeFn> {
    Box::new(move |graph, seed, cancel| {
        let config = OcaConfig {
            halting: HaltingConfig {
                max_seeds,
                ..Default::default()
            },
            rng_seed: seed,
            threads: 1,
            c: CStrategy::Fixed(fixed_c),
            ..Default::default()
        };
        let detector = OcaDetector::new(config).map_err(|e| e.to_string())?;
        let mut ctx = DetectContext::new(seed).with_cancel(cancel.clone());
        detector
            .detect(graph, &mut ctx)
            .map(|d| d.cover)
            .map_err(|e| e.to_string())
    })
}

/// The unit a bench reports client-side latencies in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyUnit {
    /// Milliseconds, reported as `p50_ms` / `p99_ms`.
    Millis,
    /// Microseconds, reported as `p50_us` / `p99_us`.
    Micros,
}

impl LatencyUnit {
    fn nanos(self) -> f64 {
        match self {
            LatencyUnit::Millis => 1_000_000.0,
            LatencyUnit::Micros => 1_000.0,
        }
    }
}

/// Exact nearest-rank `q`-quantile of a sorted nanosecond sample, in
/// `unit`; 0 for an empty sample.
pub fn quantile(sorted: &[u64], q: f64, unit: LatencyUnit) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / unit.nanos()
}

/// Client-side `count` and p50/p99 of one endpoint's sorted nanosecond
/// sample, keyed by `unit` (`p50_ms`, or `p50_us`).
pub fn latency(sorted: &[u64], unit: LatencyUnit) -> Value {
    let (p50, p99) = match unit {
        LatencyUnit::Millis => ("p50_ms", "p99_ms"),
        LatencyUnit::Micros => ("p50_us", "p99_us"),
    };
    let mut out = object! { "count": sorted.len() };
    out.push(p50, quantile(sorted, 0.50, unit));
    out.push(p99, quantile(sorted, 0.99, unit));
    out
}

/// Parses `--key value` style arguments with defaults, for the experiment
/// binaries (no external CLI crate in the sanctioned dependency set).
#[derive(Debug, Clone)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Self {
        Args::from_argv(std::env::args().skip(1).collect())
    }

    /// Parses `--key value` pairs. A `--key` followed by another
    /// `--option` (or by nothing) is a valueless flag and produces no
    /// pair, so flags like `--smoke` never swallow the next option.
    fn from_argv(argv: Vec<String>) -> Self {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    pairs.push((key.to_string(), argv[i + 1].clone()));
                    i += 2;
                    continue;
                }
            }
            i += 1;
        }
        Args { pairs }
    }

    /// Returns the value for `key` parsed as `T`, or `default` when the
    /// option is absent. A present but malformed value is an error: the
    /// process exits 2 rather than silently running the default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.pairs.iter().rev().find(|(k, _)| k == key) {
            None => default,
            Some((_, v)) => v.parse().unwrap_or_else(|_| {
                eprintln!("error: invalid value for --{key}: {v:?}");
                std::process::exit(2);
            }),
        }
    }
}

/// Formats a duration as fractional seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::from_edges;

    fn toy() -> CsrGraph {
        let mut edges = Vec::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((4, 5));
        from_edges(10, edges)
    }

    #[test]
    fn all_registered_algorithms_run_on_toy_graph() {
        let g = toy();
        for name in registry().names() {
            let out = run_algorithm(name, &g, 7);
            assert!(out.complete, "{name} did not complete");
            assert!(!out.cover.is_empty(), "{name} found nothing");
        }
    }

    #[test]
    fn table_row_labels_are_unambiguous() {
        // Regression: the triangle and faithful CFinder paths used to both
        // label their rows "CFinder".
        let labels: Vec<&str> = registry().names().iter().map(|n| display_name(n)).collect();
        let mut unique = labels.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "ambiguous labels: {labels:?}");
        assert_eq!(display_name("cfinder"), "CFinder");
        assert_eq!(display_name("cfinder-faithful"), "CFinder-faithful");
    }

    #[test]
    fn cfinder_variants_agree() {
        let g = toy();
        let fast = run_algorithm("cfinder", &g, 1);
        let slow = run_algorithm("cfinder-faithful", &g, 1);
        assert_eq!(fast.cover, slow.cover);
        assert_ne!(fast.algorithm, slow.algorithm);
    }

    #[test]
    fn run_detector_accepts_any_boxed_implementation() {
        let g = toy();
        let reg = registry();
        let detectors: Vec<Box<dyn CommunityDetector>> =
            reg.iter().map(|spec| spec.experiment(&g)).collect();
        for det in &detectors {
            let out = run_detector(det.as_ref(), &g, 3);
            assert_eq!(out.algorithm, det.name());
        }
    }

    #[test]
    fn table_renders_and_aligns() {
        let mut t = Table::new(["a", "long-header", "x"]);
        t.row(["1", "2", "3"]);
        t.row(["wide-cell", "4", "5"]);
        let text = t.render();
        assert!(text.contains("long-header"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn results_dir_is_found_above_the_start_directory() {
        let root = std::env::temp_dir().join(format!("oca_results_dir_{}", std::process::id()));
        let member = root.join("crates").join("member");
        let start = member.join("src");
        std::fs::create_dir_all(&start).unwrap();
        std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
        // A member manifest that only inherits from the workspace is not
        // a workspace root.
        std::fs::write(
            member.join("Cargo.toml"),
            "[package]\nedition.workspace = true\n",
        )
        .unwrap();
        assert_eq!(results_dir_from(&start), root.join("results"));
        assert_eq!(results_dir_from(&root), root.join("results"));
        // Without a workspace manifest above it, `start` itself holds it.
        std::fs::remove_file(root.join("Cargo.toml")).unwrap();
        assert_eq!(results_dir_from(&start), start.join("results"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn flags_do_not_swallow_the_next_option() {
        // Regression: `--smoke --seed 7` used to pair ("smoke", "--seed")
        // and silently drop the seed.
        let args = Args::from_argv(
            ["--smoke", "--seed", "7", "--nodes", "300"]
                .map(String::from)
                .to_vec(),
        );
        assert_eq!(args.get("seed", 0u64), 7);
        assert_eq!(args.get("nodes", 0usize), 300);
        assert_eq!(args.get("smoke", 1usize), 1, "flag has no value");
    }

    #[test]
    fn shared_postprocess_merges_duplicates() {
        use oca_graph::Community;
        let cover = Cover::new(
            6,
            vec![
                Community::from_raw([0, 1, 2]),
                Community::from_raw([0, 1, 2]),
                Community::from_raw([3, 4, 5]),
            ],
        );
        assert_eq!(shared_postprocess(&cover).len(), 2);
    }
}
