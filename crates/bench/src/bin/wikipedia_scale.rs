//! The Wikipedia experiment at true scale: streaming `.ocg` build plus
//! OCA detection on a 100M+-edge graph, with peak-RSS gates.
//!
//! The paper runs OCA on the 2009 Wikipedia link graph (16,986,429 nodes,
//! 176,454,501 edges) and "found all relevant communities in less than
//! 3.25 hours" on a 2.83 GHz core with ~2.5 GB of RAM. The snapshot is not
//! redistributable, so this bench substitutes a Wikipedia-*like* graph —
//! scale-free R-MAT background plus planted dense cores — at a comparable
//! edge count, and exercises the storage layer the way that experiment
//! demands: the graph is *streamed* from the generator through the
//! external-memory `.ocg` builder (never materializing the edge list in
//! RAM), then detected on twice — once memory-mapped, once copied into
//! owned heap storage — and the two covers must match bit for bit.
//!
//! Because `VmHWM` is a per-process high-water mark, each measured phase
//! — build, full-file verify, detect-mmap, detect-ram — runs in its own
//! subprocess (the binary re-execs itself with `--phase`) and reports a
//! JSON fragment; the parent combines the fragments into
//! `results/BENCH_scale.json` and enforces three gates:
//!
//! 1. the builder's peak RSS stays within the configured chunk budget
//!    (the external-memory claim),
//! 2. the mmap path's load-peak RSS stays under a fixed fraction of the
//!    in-RAM path's (the zero-copy claim),
//! 3. the mmap and in-RAM covers are bit-identical (the storage layer is
//!    invisible to detection).
//!
//! ```text
//! cargo run -p oca-bench --release --bin wikipedia_scale -- --smoke
//! cargo run -p oca-bench --release --bin wikipedia_scale -- --scale 23 --edge-factor 16
//! ```

use oca::{HaltingConfig, Oca, OcaConfig};
use oca_bench::report::report;
use oca_bench::{peak_rss_bytes, results_dir, Args, Table};
use oca_gen::{wiki_like_edges, WikiLikeParams};
use oca_graph::{
    build_ocg_from_emitter, json::Value, object, open_ocg_path, read_cover_path, verify_ocg_path,
    write_cover_path, BuildOptions, Cover, Fnv1a,
};
use std::path::PathBuf;
use std::time::Instant;

/// The CI gate: the mmap path may use at most this fraction of the in-RAM
/// path's load-peak RSS. Opening a `.ocg` is O(1) and touches no payload
/// pages, so the mmap side is expected to sit far below this.
const MAX_LOAD_RSS_FRACTION: f64 = 0.75;

/// The full (non-smoke) run must reach this many deduplicated edges to
/// count as a Wikipedia-scale reproduction.
const FULL_MIN_EDGES: u64 = 100_000_000;

/// Everything a phase needs, resolved once by the parent and passed to
/// children explicitly so all processes agree on the configuration.
#[derive(Debug, Clone)]
struct Params {
    smoke: bool,
    scale: u32,
    edge_factor: usize,
    seed: u64,
    seeds: usize,
    threads: usize,
    chunk_edges: usize,
    dir: PathBuf,
    keep: bool,
}

impl Params {
    fn ocg_path(&self) -> PathBuf {
        self.dir.join(format!("wiki_scale_{}.ocg", self.scale))
    }

    fn planted_path(&self) -> PathBuf {
        self.dir.join(format!("wiki_scale_{}.planted", self.scale))
    }

    fn fragment_path(&self, phase: &str) -> PathBuf {
        self.dir.join(format!("fragment-{phase}.json"))
    }

    fn min_edges(&self) -> u64 {
        if self.smoke {
            0
        } else {
            FULL_MIN_EDGES
        }
    }
}

/// The builder's RSS allowance: two chunk buffers' worth of packed edges
/// (ingest and scatter generations), the per-node arrays (degrees,
/// permutation, offsets, plus the generator's shuffle pool), and a fixed
/// slack for the runtime, spill buffers, and allocator overhead. The
/// point is what the formula *excludes*: any term proportional to the
/// edge count — edges must live on disk, not in RAM.
fn builder_rss_budget(chunk_edges: usize, nodes: usize) -> u64 {
    16 * chunk_edges as u64 + 24 * nodes as u64 + 256 * 1024 * 1024
}

fn main() {
    let args = Args::parse();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let keep = std::env::args().any(|a| a == "--keep");
    let default_dir = results_dir()
        .parent()
        .map(|root| root.join("target").join("wikipedia_scale"))
        .unwrap_or_else(|| PathBuf::from("target/wikipedia_scale"));
    let params = Params {
        smoke,
        scale: args.get("scale", if smoke { 16 } else { 23 }),
        edge_factor: args.get("edge-factor", if smoke { 10 } else { 16 }),
        seed: args.get("seed", 42),
        seeds: args.get("seeds", if smoke { 200 } else { 1000 }),
        threads: args.get("threads", 1),
        chunk_edges: args.get("chunk-edges", if smoke { 1 << 16 } else { 8 << 20 }),
        dir: args.get("dir", default_dir),
        keep,
    };
    if params.threads == 0 {
        eprintln!("error: --threads must be at least 1");
        std::process::exit(2);
    }

    let phase: String = args.get("phase", String::new());
    if !phase.is_empty() {
        run_phase(&phase, &params);
    } else {
        orchestrate(&params);
    }
}

// ---------------------------------------------------------------------------
// Parent: drive the phases, combine fragments, enforce gates.
// ---------------------------------------------------------------------------

fn orchestrate(p: &Params) {
    println!(
        "Wikipedia-scale gate: streamed .ocg build + OCA on 2^{} nodes (edge factor {}){}",
        p.scale,
        p.edge_factor,
        if p.smoke { " [smoke]" } else { "" }
    );
    if let Err(e) = std::fs::create_dir_all(&p.dir) {
        eprintln!("error: cannot create {}: {e}", p.dir.display());
        std::process::exit(1);
    }
    let exe = std::env::current_exe().expect("own executable path");
    for phase in ["build", "verify", "detect-mmap", "detect-ram"] {
        std::fs::remove_file(p.fragment_path(phase)).ok();
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--phase", phase])
            .args(["--scale", &p.scale.to_string()])
            .args(["--edge-factor", &p.edge_factor.to_string()])
            .args(["--seed", &p.seed.to_string()])
            .args(["--seeds", &p.seeds.to_string()])
            .args(["--threads", &p.threads.to_string()])
            .args(["--chunk-edges", &p.chunk_edges.to_string()])
            .args(["--dir", &p.dir.display().to_string()]);
        if p.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().unwrap_or_else(|e| {
            eprintln!("error: could not spawn phase {phase}: {e}");
            std::process::exit(1);
        });
        if !status.success() {
            eprintln!("error: phase {phase} failed ({status})");
            std::process::exit(1);
        }
    }

    let build = read_fragment(p, "build");
    let verify = read_fragment(p, "verify");
    let mmap = read_fragment(p, "detect-mmap");
    let ram = read_fragment(p, "detect-ram");
    let number =
        |fragment: &Value, key: &str| fragment.get(key).and_then(Value::as_f64).unwrap_or(0.0);

    // Gate 1: external-memory build stays within its chunk budget.
    let edges = number(&build, "edges") as u64;
    let build_rss = number(&build, "peak_rss_bytes") as u64;
    let rss_budget = number(&build, "rss_budget_bytes") as u64;
    let build_within_budget = build_rss > 0 && build_rss <= rss_budget;
    // Gate 2: the mmap load path uses a fraction of the in-RAM load path.
    // Without an in-RAM reading (no /proc) the fraction is infinite, which
    // the report writes as null and the gate counts as failed.
    let mmap_load = number(&mmap, "load_peak_rss_bytes");
    let ram_load = number(&ram, "load_peak_rss_bytes");
    let load_fraction = if ram_load > 0.0 {
        mmap_load / ram_load
    } else {
        f64::INFINITY
    };
    let mmap_load_under_fraction = mmap_load > 0.0 && load_fraction <= MAX_LOAD_RSS_FRACTION;
    // Gate 3: storage choice is invisible to detection.
    let fp_mmap = mmap.get("cover_fingerprint").and_then(Value::as_str);
    let fp_ram = ram.get("cover_fingerprint").and_then(Value::as_str);
    let covers_bit_identical = fp_mmap.is_some() && fp_mmap == fp_ram;
    // Full runs must actually be at the paper's scale.
    let edges_at_scale = edges >= p.min_edges();

    let passed =
        build_within_budget && mmap_load_under_fraction && covers_bit_identical && edges_at_scale;

    let gb = 1024.0 * 1024.0 * 1024.0;
    let mut table = Table::new(["metric", "value"]);
    table.row([
        "nodes".to_string(),
        format!("{}", number(&build, "nodes") as u64),
    ]);
    table.row(["edges".to_string(), edges.to_string()]);
    table.row([
        "build secs".to_string(),
        format!("{:.1}", number(&build, "secs")),
    ]);
    table.row([
        "build peak RSS".to_string(),
        format!(
            "{:.2} GiB (budget {:.2} GiB)",
            build_rss as f64 / gb,
            rss_budget as f64 / gb
        ),
    ]);
    table.row([
        "verify secs".to_string(),
        format!("{:.1}", number(&verify, "secs")),
    ]);
    table.row([
        "load RSS mmap/ram".to_string(),
        format!(
            "{:.2} / {:.2} GiB (fraction {:.3} ≤ {MAX_LOAD_RSS_FRACTION})",
            mmap_load / gb,
            ram_load / gb,
            load_fraction
        ),
    ]);
    for (label, frag) in [("detect (mmap)", &mmap), ("detect (ram)", &ram)] {
        table.row([
            format!("{label} secs / F1 / peak RSS"),
            format!(
                "{:.1}s / {:.3} / {:.2} GiB",
                number(frag, "secs"),
                frag.get("recovery_f1")
                    .and_then(Value::as_f64)
                    .unwrap_or(-1.0),
                number(frag, "peak_rss_bytes") / gb
            ),
        ]);
    }
    table.row([
        "covers bit-identical".to_string(),
        covers_bit_identical.to_string(),
    ]);
    table.row(["gates passed".to_string(), passed.to_string()]);

    let json = report(
        "wikipedia_scale",
        p.smoke,
        &format!(
            "wiki-like scale={} edge_factor={} seed={}",
            p.scale, p.edge_factor, p.seed
        ),
        object! {
            "params": object! {
                "scale": p.scale,
                "edge_factor": p.edge_factor,
                "seed": p.seed,
                "seeds": p.seeds,
                "threads": p.threads,
                "chunk_edges": p.chunk_edges,
                "min_edges": p.min_edges(),
            },
            "build": build,
            "verify": verify,
            "detect_mmap": mmap,
            "detect_ram": ram,
            "gates": object! {
                "build_within_budget": build_within_budget,
                "edges_at_scale": edges_at_scale,
                "mmap_load_rss_fraction": load_fraction,
                "max_load_rss_fraction": MAX_LOAD_RSS_FRACTION,
                "mmap_load_under_fraction": mmap_load_under_fraction,
                "covers_bit_identical": covers_bit_identical,
                "passed": passed,
            },
        },
    );
    oca_bench::report::write("BENCH_scale.json", &json).unwrap_or_else(|e| {
        eprintln!("error: could not write the report: {e}");
        std::process::exit(1);
    });
    print!("{}", table.render());

    if !p.keep {
        std::fs::remove_file(p.ocg_path()).ok();
        std::fs::remove_file(p.planted_path()).ok();
    }
    for phase in ["build", "verify", "detect-mmap", "detect-ram"] {
        std::fs::remove_file(p.fragment_path(phase)).ok();
    }

    if !passed {
        eprintln!("error: scale gates failed (see the BENCH_scale.json written above)");
        std::process::exit(1);
    }
    println!("\npaper reference: all relevant communities of Wikipedia in < 3.25 h.");
}

fn read_fragment(p: &Params, phase: &str) -> Value {
    oca_bench::report::read(p.fragment_path(phase)).unwrap_or_else(|e| {
        eprintln!("error: phase {phase} left no readable fragment: {e}");
        std::process::exit(1);
    })
}

// ---------------------------------------------------------------------------
// Children: one measured phase per process (VmHWM is a process-wide
// high-water mark, so phases must not share an address space).
// ---------------------------------------------------------------------------

fn run_phase(phase: &str, p: &Params) {
    let fragment = match phase {
        "build" => phase_build(p),
        "verify" => phase_verify(p),
        "detect-mmap" => phase_detect(p, true),
        "detect-ram" => phase_detect(p, false),
        other => {
            eprintln!("error: unknown phase {other:?}");
            std::process::exit(2);
        }
    };
    let path = p.fragment_path(phase);
    if let Err(e) = std::fs::write(&path, fragment.to_string()) {
        eprintln!("error: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Streams the wiki-like generator through the external-memory `.ocg`
/// builder — the edge list never exists in RAM — and writes the planted
/// ground truth beside it for the detect phases to score against.
fn phase_build(p: &Params) -> Value {
    let start = Instant::now();
    let params = WikiLikeParams {
        edge_factor: p.edge_factor,
        ..WikiLikeParams::at_scale(p.scale, p.seed)
    };
    let options = BuildOptions {
        chunk_edges: p.chunk_edges,
        min_nodes: 1usize << p.scale,
        // The full audit sweep runs as its own subprocess phase: it pages
        // the whole file through this process's RSS, which would drown
        // the external-memory budget this phase exists to measure.
        verify: false,
        ..BuildOptions::default()
    };
    let (stats, planted) = build_ocg_from_emitter(
        |emit| wiki_like_edges(&params, emit),
        p.ocg_path(),
        &options,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: build failed: {e}");
        std::process::exit(1);
    });
    if let Err(e) = write_cover_path(&planted, p.planted_path()) {
        eprintln!("error: could not save planted cover: {e}");
        std::process::exit(1);
    }
    let secs = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_bytes();
    let budget = builder_rss_budget(p.chunk_edges, stats.nodes);
    println!(
        "build: {} nodes, {} edges ({} read, {} self-loops, {} duplicates) \
         in {secs:.1}s over {} run(s); peak RSS {:.1} MiB (budget {:.1} MiB)",
        stats.nodes,
        stats.edges,
        stats.edges_read,
        stats.self_loops,
        stats.duplicates,
        stats.ingest_runs,
        peak_rss as f64 / (1024.0 * 1024.0),
        budget as f64 / (1024.0 * 1024.0),
    );
    object! {
        "nodes": stats.nodes,
        "edges": stats.edges,
        "edges_read": stats.edges_read,
        "self_loops": stats.self_loops,
        "duplicates": stats.duplicates,
        "ingest_runs": stats.ingest_runs,
        "planted_communities": planted.len(),
        "secs": secs,
        "peak_rss_bytes": peak_rss,
        "rss_budget_bytes": budget,
    }
}

/// The full audit of the file the build phase wrote: payload checksum
/// against the header, every CSR invariant (sequential passes plus one
/// probe per undirected edge), permutation check.
/// Its RSS is dominated by paging the whole mapping through — that's why
/// it is not the phase the builder's budget gate measures.
fn phase_verify(p: &Params) -> Value {
    let start = Instant::now();
    let info = verify_ocg_path(p.ocg_path()).unwrap_or_else(|e| {
        eprintln!("error: verification failed: {e}");
        std::process::exit(1);
    });
    let secs = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_bytes();
    println!(
        "verify: checksum + full CSR invariants clean in {secs:.1}s \
         ({} nodes, {} edges, {:.2} GiB file)",
        info.node_count,
        info.edge_count,
        info.byte_len as f64 / (1024.0 * 1024.0 * 1024.0),
    );
    object! {
        "secs": secs,
        "peak_rss_bytes": peak_rss,
        "file_bytes": info.byte_len,
        "checksum": format!("{:016x}", info.checksum),
    }
}

/// Loads the built `.ocg` (memory-mapped, or copied into owned heap
/// storage for the in-RAM comparison), runs OCA, and reports recovery
/// against the planted cover plus the load-time and whole-phase RSS peaks.
fn phase_detect(p: &Params, mapped: bool) -> Value {
    let storage = if mapped { "mmap" } else { "ram" };
    let ocg = open_ocg_path(p.ocg_path()).unwrap_or_else(|e| {
        eprintln!("error: could not open graph: {e}");
        std::process::exit(1);
    });
    let relabeling = ocg.relabeling().filter(|r| !r.is_identity());
    let graph = if mapped {
        ocg.graph
    } else {
        let owned = ocg.graph.to_owned_storage();
        drop(ocg.graph);
        owned
    };
    // VmHWM here is the cost of *getting the graph into memory*: O(1) for
    // the mapped path (no payload page has been touched), the full copy
    // for the owned path. This is the number gate 2 compares.
    let load_peak_rss = peak_rss_bytes();

    let planted = read_cover_path(graph.node_count(), p.planted_path()).unwrap_or_else(|e| {
        eprintln!("error: could not read planted cover: {e}");
        std::process::exit(1);
    });
    let config = OcaConfig {
        halting: HaltingConfig {
            max_seeds: p.seeds,
            // Most nodes legitimately belong to no community (paper,
            // Section IV), so halting rides on stagnation, not coverage.
            target_coverage: 0.5,
            stagnation_limit: 10 * planted.len().max(50),
            ..Default::default()
        },
        threads: p.threads,
        rng_seed: p.seed,
        ..Default::default()
    };
    let result = Oca::new(config).run(&graph);
    // Detection ran in compact (degree-ordered) ids; the planted truth is
    // in input ids, so cross back before scoring or fingerprinting.
    let cover_input = match &relabeling {
        Some(r) => r.cover_to_original(&result.cover),
        None => result.cover.clone(),
    };
    let recovery = oca_metrics::average_f1(&planted, &cover_input);
    let fingerprint = cover_fingerprint(&cover_input);
    let secs = result.elapsed.as_secs_f64();
    let nodes_per_sec = graph.node_count() as f64 / secs.max(1e-9);
    let peak_rss = peak_rss_bytes();
    println!(
        "detect ({storage}): {} communities from {} seeds in {secs:.1}s \
         (F1 {recovery:.3}, {nodes_per_sec:.0} nodes/s); \
         load RSS {:.1} MiB, peak RSS {:.1} MiB",
        result.cover.len(),
        result.seeds_tried,
        load_peak_rss as f64 / (1024.0 * 1024.0),
        peak_rss as f64 / (1024.0 * 1024.0),
    );
    object! {
        "storage": storage,
        "load_peak_rss_bytes": load_peak_rss,
        "peak_rss_bytes": peak_rss,
        "secs": secs,
        "seeds_tried": result.seeds_tried,
        "communities": result.cover.len(),
        "recovery_f1": recovery,
        "nodes_per_sec": nodes_per_sec,
        "cover_fingerprint": fingerprint,
    }
}

/// An order-sensitive FNV-1a digest of a cover's exact community list —
/// two covers fingerprint equally iff they are bit-identical.
fn cover_fingerprint(cover: &Cover) -> String {
    let mut fnv = Fnv1a::default();
    let mut mix = |word: u32| fnv.update(&word.to_le_bytes());
    mix(cover.node_count() as u32);
    mix(cover.len() as u32);
    for community in cover.communities() {
        mix(community.len() as u32);
        for &member in community.members() {
            mix(member.raw());
        }
    }
    format!("{:016x}", fnv.finish())
}
