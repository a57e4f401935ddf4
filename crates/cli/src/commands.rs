//! CLI subcommand implementations.
//!
//! Community detection dispatches through the `oca-api` registry: the CLI
//! itself contains no per-algorithm `match`. Each subcommand declares its
//! accepted option/flag set, so unknown keys (typos like `--thread 4`)
//! are errors listing the valid options rather than silently ignored.

use crate::args::Cli;
use oca::{CStrategy, LocalDetector};
use oca_api::{registry, DetectContext, DetectorOptions, GraphSource, LoadedGraph, Progress};
use oca_gen::{
    barabasi_albert, daisy_tree, gnp, lfr, rmat, wiki_like, DaisyParams, LfrParams, RmatParams,
    WikiLikeParams,
};
use oca_graph::io::write_edge_list_path;
use oca_graph::{
    build_ocg_from_path, read_cover_path, read_ocg_info, verify_ocg_path, write_cover_path,
    BuildOptions, Cover, CsrGraph, GraphStats, IntegrityClass,
};
use oca_metrics::{average_f1, extended_modularity, overlapping_nmi, theta};
use oca_serve::{load_cover_path, save_cover_path, RecomputeFn, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// A command failure: the stderr message plus the process exit code.
/// Plain string errors exit 1; the integrity-checking commands (`cover
/// load`, `graph verify`) use [`EXIT_CHECKSUM_MISMATCH`],
/// [`EXIT_TRUNCATED`] and [`EXIT_VERSION_MISMATCH`] so restart scripts
/// can tell damage (retry from a backup) from staleness (rebuild).
#[derive(Debug)]
pub struct CmdError {
    /// What went wrong, for stderr.
    pub message: String,
    /// The process exit code (non-zero).
    pub code: i32,
}

impl From<String> for CmdError {
    fn from(message: String) -> Self {
        CmdError { message, code: 1 }
    }
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (exit {})", self.message, self.code)
    }
}

/// Exit code when a file's content checksum does not match (bit rot,
/// torn write that kept the length).
pub const EXIT_CHECKSUM_MISMATCH: i32 = 3;
/// Exit code when a file ends before its declared contents do.
pub const EXIT_TRUNCATED: i32 = 4;
/// Exit code when a file's format version is not one this build reads.
pub const EXIT_VERSION_MISMATCH: i32 = 5;

/// The one mapping from an integrity class to its exit code: integrity
/// failures exit 3/4/5 and name their class in the message; anything else
/// exits 1.
fn integrity_error(message: String, class: Option<IntegrityClass>) -> CmdError {
    let Some(class) = class else {
        return CmdError::from(message);
    };
    let code = match class {
        IntegrityClass::ChecksumMismatch => EXIT_CHECKSUM_MISMATCH,
        IntegrityClass::Truncated => EXIT_TRUNCATED,
        IntegrityClass::VersionMismatch => EXIT_VERSION_MISMATCH,
    };
    CmdError {
        message: format!("{message} [{}]", class.label()),
        code,
    }
}

/// Top-level dispatch; returns the message and exit code on failure.
pub fn run(cli: &Cli) -> Result<(), CmdError> {
    if cli.command.is_none() && cli.has_flag("list-algorithms") {
        print!("{}", algorithm_listing());
        return Ok(());
    }
    match cli.command.as_deref() {
        Some("generate") => generate(cli).map_err(CmdError::from),
        Some("detect") | Some("run") => detect(cli).map_err(CmdError::from),
        Some("eval") => eval(cli).map_err(CmdError::from),
        Some("stats") => stats(cli).map_err(CmdError::from),
        Some("serve") => serve(cli).map_err(CmdError::from),
        Some("cover") => cover(cli),
        Some("graph") => graph_cmd(cli),
        Some("help") | None => {
            print!("{}", usage());
            Ok(())
        }
        Some(other) => Err(CmdError::from(format!(
            "unknown command {other:?}\n\n{}",
            usage()
        ))),
    }
}

/// The usage text.
pub fn usage() -> String {
    "\
oca — Overlapping Community Search (ICDE 2010 reproduction)

USAGE: oca <command> [--key value]...

COMMANDS:
  generate   --family lfr|daisy|gnp|ba|rmat|wiki --output G.edges
             [--nodes N] [--seed S] [--truth T.cover]
             [--mu F (lfr)] [--p F (gnp)] [--m N (ba)]
  detect     --input G.edges | --graph G.ocg
  (or: run)  [--algorithm NAME] [--output C.cover]
             [--seed S] [--progress] [--orphans]
             [--checkpoint F.ockpt [--resume]]
             plus the algorithm's own options; see --list-algorithms
  eval       (--input G.edges | --graph G.ocg) --truth T.cover --found C.cover
  stats      --input G.edges | --graph G.ocg
  serve      (--input G.edges | --graph G.ocg) [--addr HOST:PORT]
             [--workers N] [--seed S] [--cover C.bin] [--save-cover C.bin]
             [--recompute-secs F] [--recompute-checkpoint F.ockpt]
             [--algorithm NAME] [--fixed-c F]
             [--max-seconds F] [--deadline-ms N] [--max-pending N]
             [--idle-secs F] [--max-line-bytes N]
  cover      save (--input G.edges | --graph G.ocg) --cover C.cover
                  --output C.bin [--fixed-c F]
             load (--input G.edges | --graph G.ocg) --binary C.bin
                  [--output C.cover]
  graph      build --input G.edges --output G.ocg [--chunk-edges N]
                   [--min-nodes N] [--tmp-dir D] [--no-relabel] [--no-verify]
             info --graph G.ocg
             verify --graph G.ocg
  help

`detect --list-algorithms` lists every registered algorithm with its
options.

Graphs come from a plain-text edge list (`--input`; skipped self-loops and
duplicates are reported) or from a prebuilt `.ocg` file (`--graph`), which
is memory-mapped in O(1) instead of parsed. A compressed edge list is
piped in: `zcat G.edges.gz | oca graph build --input /dev/stdin --output
G.ocg`. `graph build` produces `.ocg` from an edge list through a bounded-memory external
sort (`--chunk-edges` caps the RAM), applying the cache-friendly
degree-descending relabeling by default; covers on disk always use the
input's own node ids.

Long `detect` runs survive crashes: `--checkpoint F.ockpt` keeps the
driver's round-boundary state in a crash-safe journal (one small synced
append per round); after a crash (or ^C) rerun the
same command with `--resume` and the run continues where it stopped,
producing the bit-identical cover an uninterrupted run would have. ^C and
SIGTERM always stop at the next safe point and write the partial cover to
`--output` (if given) before exiting cleanly; the checkpoint (if
armed) holds the start of the interrupted round. `cover load` and `graph
verify` exit 3 on a checksum mismatch, 4 on truncation and 5 on a version
mismatch (1 for everything else), naming the class in the message.

`serve` answers `query`/`local`/`topk`/`snapshot`/`stats`/`health` as
one-line JSON over TCP (try `nc` and type `query 0`). `--cover` warm-starts
from a binary cover instead of detecting at startup (a corrupt file falls
back to a cold start); `--recompute-secs` republishes fresh epochs in the
background, retrying with backoff on failure while the last good epoch
keeps serving. Overload and abuse controls: `--max-pending` bounds the
connection queue (typed `overloaded` beyond it), `--deadline-ms` caps
`local`/`topk` time (typed `deadline-exceeded` partial results),
`--idle-secs` reaps silent connections, `--max-line-bytes` caps request
lines. Send `shutdown` (or set `--max-seconds`) for a graceful drain and a
final stats line.
"
    .to_string()
}

/// Renders the registry as a listing for `--list-algorithms`.
fn algorithm_listing() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("registered algorithms:\n");
    for spec in registry().iter() {
        let _ = writeln!(out, "\n  {:<18} {}", spec.name(), spec.summary());
        for (key, help) in spec.options() {
            let _ = writeln!(out, "      --{key:<16} {help}");
        }
    }
    out
}

/// Resolves `--input` (plain-text edge list) or `--graph`
/// (prebuilt `.ocg`, memory-mapped) into a loaded graph. Edge-list
/// ingestion notes on stderr how many self-loops and duplicate edges
/// were skipped, so silently cleaned input is visible.
fn load_graph(cli: &Cli) -> Result<LoadedGraph, String> {
    let source = match (cli.get_str("graph"), cli.get_str("input")) {
        (Some(_), Some(_)) => {
            return Err("pass either --input or --graph, not both".to_string());
        }
        (Some(path), None) => GraphSource::Ocg(path.into()),
        (None, Some(path)) => GraphSource::from_path(path),
        (None, None) => return Err("missing required option --input (or --graph)".to_string()),
    };
    let loaded = source.load().map_err(|e| e.to_string())?;
    if let Some(report) = loaded.ingest {
        if report.self_loops > 0 || report.duplicates > 0 {
            eprintln!(
                "note: skipped {} self-loop(s) and {} duplicate edge(s) reading {}",
                report.self_loops,
                report.duplicates,
                source.path().display()
            );
        }
    }
    if loaded.graph.is_mapped() {
        eprintln!(
            "mapped {} ({} nodes, {} edges{})",
            source.path().display(),
            loaded.graph.node_count(),
            loaded.graph.edge_count(),
            if loaded.is_relabeled() {
                ", degree-ordered"
            } else {
                ""
            }
        );
    }
    Ok(loaded)
}

fn generate(cli: &Cli) -> Result<(), String> {
    cli.ensure_known(
        &["family", "output", "nodes", "mu", "seed", "truth", "p", "m"],
        &[],
    )?;
    let family = cli.require("family")?.to_string();
    let output = cli.require("output")?.to_string();
    let nodes: usize = cli.get("nodes", 1000)?;
    let seed: u64 = cli.get("seed", 42)?;
    let mut rng = StdRng::seed_from_u64(seed);

    let (graph, truth): (CsrGraph, Option<Cover>) = match family.as_str() {
        "lfr" => {
            let mu: f64 = cli.get("mu", 0.3)?;
            let b = lfr(&LfrParams::small(nodes, mu, seed));
            (b.graph, Some(b.ground_truth))
        }
        "daisy" => {
            let flowers = (nodes / 100).max(1);
            let b = daisy_tree(&DaisyParams::default_shape(100), flowers - 1, 0.05, seed);
            (b.graph, Some(b.ground_truth))
        }
        "gnp" => {
            let p: f64 = cli.get("p", 0.01)?;
            (gnp(nodes, p, &mut rng), None)
        }
        "ba" => {
            let m: usize = cli.get("m", 5)?;
            (barabasi_albert(nodes, m, &mut rng), None)
        }
        "rmat" => {
            let scale = (nodes.max(2) as f64).log2().ceil() as u32;
            (rmat(&RmatParams::graph500(scale, 8), &mut rng), None)
        }
        "wiki" => {
            let scale = (nodes.max(2) as f64).log2().ceil() as u32;
            let b = wiki_like(&WikiLikeParams::at_scale(scale, seed));
            (b.graph, Some(b.planted))
        }
        other => return Err(format!("unknown family {other:?}")),
    };

    write_edge_list_path(&graph, &output).map_err(|e| format!("writing {output}: {e}"))?;
    println!(
        "wrote {} ({} nodes, {} edges)",
        output,
        graph.node_count(),
        graph.edge_count()
    );
    if let Some(path) = cli.get_str("truth") {
        match truth {
            Some(t) => {
                write_cover_path(&t, path).map_err(|e| format!("writing {path}: {e}"))?;
                println!("wrote {} ({} communities)", path, t.len());
            }
            None => return Err(format!("family {family:?} has no ground truth")),
        }
    }
    Ok(())
}

/// Options the `detect` subcommand owns itself; everything else must be
/// declared by the selected algorithm's registry entry.
const DETECT_OPTIONS: [&str; 6] = [
    "input",
    "graph",
    "algorithm",
    "output",
    "seed",
    "checkpoint",
];
const DETECT_FLAGS: [&str; 4] = ["list-algorithms", "orphans", "progress", "resume"];

fn detect(cli: &Cli) -> Result<(), String> {
    let reg = registry();
    if cli.has_flag("list-algorithms") {
        print!("{}", algorithm_listing());
        return Ok(());
    }
    let algorithm = cli.get_str("algorithm").unwrap_or("oca").to_string();
    let spec = reg.get(&algorithm).map_err(|e| e.to_string())?;
    let mut valid: Vec<&str> = DETECT_OPTIONS.to_vec();
    valid.extend(spec.option_keys());
    cli.ensure_known(&valid, &DETECT_FLAGS)?;
    // `--checkpoint F [--resume]` is shorthand for the registry keys; a
    // mix of the two spellings would let one silently override the other.
    if cli.get_str("checkpoint").is_some()
        && (cli.get_str("checkpoint-path").is_some() || cli.get_str("checkpoint-resume").is_some())
    {
        return Err(
            "pass either --checkpoint F [--resume] or --checkpoint-path F \
             [--checkpoint-resume fresh|strict|salvage], not both"
                .to_string(),
        );
    }

    let loaded = load_graph(cli)?;
    let graph = &loaded.graph;
    let seed: u64 = cli.get("seed", 42)?;
    let mut opts = DetectorOptions::new();
    for (key, value) in cli.option_pairs() {
        if !DETECT_OPTIONS.contains(&key) {
            opts.set(key, value);
        }
    }
    if cli.has_flag("orphans") {
        // Forwarded as an option so algorithms without an orphan rule
        // reject it with a typed UnknownOption error.
        opts.set("orphans", "true");
    }
    // `--checkpoint` / `--resume` forward as the registry's checkpoint
    // options, so algorithms without checkpoint support reject them with
    // a typed UnknownOption error like any other key.
    let checkpoint_path = cli.get_str("checkpoint").map(str::to_string);
    if let Some(path) = &checkpoint_path {
        opts.set("checkpoint-path", path);
        opts.set(
            "checkpoint-resume",
            if cli.has_flag("resume") {
                "strict"
            } else {
                "fresh"
            },
        );
    } else if cli.has_flag("resume") {
        return Err("--resume needs --checkpoint <path>".to_string());
    }
    // Graph-scaled tuned defaults (e.g. OCA's seed budget proportional to
    // the node count), overridden key by key by the user's options.
    let detector = spec.build_tuned(graph, &opts).map_err(|e| e.to_string())?;

    // ^C / SIGTERM cancel the run at the next safe point instead of
    // killing it: the driver flushes its checkpoint (if armed) and hands
    // back the partial cover.
    crate::signals::install();
    let cancel = oca_api::CancelToken::new();
    let watcher_flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
    {
        let token = cancel.clone();
        let done = Arc::clone(&watcher_flag);
        std::thread::spawn(move || {
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                if crate::signals::pending().is_some() {
                    token.cancel();
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
    }
    let mut ctx = DetectContext::new(seed).with_cancel(cancel);
    if cli.has_flag("progress") {
        ctx = ctx.with_progress(|p: Progress| match p.total {
            Some(total) => eprint!("\r[{}] {}/{total}    ", p.stage, p.done),
            None => eprint!("\r[{}] {}    ", p.stage, p.done),
        });
    }
    let outcome = detector.detect(graph, &mut ctx);
    watcher_flag.store(true, std::sync::atomic::Ordering::Relaxed);
    if cli.has_flag("progress") {
        eprintln!();
    }
    let detection = match outcome {
        Ok(detection) => detection,
        Err(oca_api::DetectError::Cancelled { partial }) => {
            let signal = crate::signals::pending().unwrap_or("cancellation");
            for (key, value) in &partial.stats {
                println!("{key} = {value}");
            }
            let cover = loaded.cover_to_input(&partial.cover);
            println!(
                "interrupted by {signal}: partial cover with {} communities, \
                 coverage {:.3}, {} iterations",
                cover.len(),
                cover.coverage(),
                partial.iterations
            );
            match &checkpoint_path {
                Some(ckpt) => println!(
                    "checkpoint {ckpt} holds the start of the interrupted round; \
                     rerun with --resume to continue from there"
                ),
                None => println!(
                    "halted: interrupted — no checkpoint was armed, so a rerun \
                     starts over (pass --checkpoint <path> next time)"
                ),
            }
            if let Some(path) = cli.get_str("output") {
                write_cover_path(&cover, path).map_err(|e| format!("writing {path}: {e}"))?;
                println!("wrote partial cover to {path}");
            }
            // A graceful interruption is a clean exit: everything the run
            // promised to persist is on disk.
            return Ok(());
        }
        Err(e) => return Err(e.to_string()),
    };
    if !detection.complete {
        eprintln!("warning: run incomplete (internal cap hit); cover is partial");
    }
    for (key, value) in &detection.stats {
        println!("{key} = {value}");
    }
    // Detection ran in the graph's compact id space; report and save the
    // cover in the input id space the user's files speak.
    let cover = loaded.cover_to_input(&detection.cover);
    println!(
        "{}: {} communities, coverage {:.3}, {} overlap nodes, {} iterations, {:.3}s",
        detector.name(),
        cover.len(),
        cover.coverage(),
        cover.overlap_node_count(),
        detection.iterations,
        detection.elapsed.as_secs_f64()
    );
    // Say *why* the run ended: a halt on stagnation or a seed budget with
    // nodes left uncovered means the cover is intentionally partial — the
    // paper keeps "just the most relevant nodes" — which is invisible from
    // the summary line alone.
    if let Some((_, reason)) = detection.stats.iter().find(|(k, _)| *k == "halt_reason") {
        if reason == "coverage" {
            println!("halted: reached the target coverage");
        } else if reason != "none" && cover.coverage() < 1.0 {
            println!(
                "halted: {reason} at coverage {:.3} — the cover is deliberately partial; \
                 raise --max-seeds / the halting budgets, or pass --orphans for a full cover",
                cover.coverage()
            );
        }
    }
    if let Some(path) = cli.get_str("output") {
        write_cover_path(&cover, path).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn eval(cli: &Cli) -> Result<(), String> {
    cli.ensure_known(&["input", "graph", "truth", "found"], &[])?;
    let loaded = load_graph(cli)?;
    let graph = &loaded.graph;
    let truth_path = cli.require("truth")?;
    let found_path = cli.require("found")?;
    let truth = read_cover_path(graph.node_count(), truth_path)
        .map_err(|e| format!("reading {truth_path}: {e}"))?;
    let found = read_cover_path(graph.node_count(), found_path)
        .map_err(|e| format!("reading {found_path}: {e}"))?;
    // Cover files are in input ids; the three cover-only metrics are
    // invariant under the id bijection, but modularity touches the graph,
    // so the found cover crosses into compact space for it.
    println!("theta (paper eq. V.2) = {:.4}", theta(&truth, &found));
    println!(
        "overlapping NMI       = {:.4}",
        overlapping_nmi(&truth, &found)
    );
    println!("average F1            = {:.4}", average_f1(&truth, &found));
    println!(
        "extended modularity   = {:.4}",
        extended_modularity(graph, &loaded.cover_to_compact(&found))
    );
    Ok(())
}

fn stats(cli: &Cli) -> Result<(), String> {
    cli.ensure_known(&["input", "graph"], &[])?;
    let graph = load_graph(cli)?.graph;
    let s = GraphStats::compute(&graph);
    println!("nodes        {}", s.nodes);
    println!("edges        {}", s.edges);
    println!("avg degree   {:.2}", s.avg_degree);
    println!("max degree   {}", s.max_degree);
    println!("isolated     {}", s.isolated);
    let comps = oca_graph::Components::compute(&graph);
    println!("components   {}", comps.count());
    let cores = oca_graph::CoreDecomposition::compute(&graph);
    println!("degeneracy   {}", cores.degeneracy());
    Ok(())
}

const SERVE_OPTIONS: [&str; 16] = [
    "input",
    "graph",
    "addr",
    "workers",
    "seed",
    "cover",
    "save-cover",
    "recompute-secs",
    "recompute-checkpoint",
    "algorithm",
    "fixed-c",
    "max-seconds",
    "deadline-ms",
    "max-pending",
    "idle-secs",
    "max-line-bytes",
];

/// Builds the initial cover for `serve`: a warm start from a binary cover
/// file when `--cover` is given (with the file's stored `c`), otherwise a
/// full detection run with the chosen algorithm's tuned preset (and no
/// `c`). A warm-start file that fails its
/// integrity checks (truncated by a crash mid-save, bit rot) is not fatal
/// — the reason is logged and detection runs cold instead; files that are
/// *valid but wrong* (different graph, unknown version) still abort,
/// because they signal operator error rather than damage.
fn initial_cover(
    cli: &Cli,
    loaded: &LoadedGraph,
    algorithm: &str,
    seed: u64,
) -> Result<(Cover, Option<f64>), String> {
    let graph = &loaded.graph;
    if let Some(path) = cli.get_str("cover") {
        match load_cover_path(path, Some(graph.node_count())) {
            Ok((cover, c)) => {
                println!(
                    "warm start: {} communities from {path} (c = {c})",
                    cover.len()
                );
                // Saved covers are in input ids; the server detects and
                // indexes in the graph's compact space.
                return Ok((loaded.cover_to_compact(&cover), Some(c)));
            }
            Err(e) if e.is_corruption() => {
                println!("warm start skipped: {path} is damaged ({e}); detecting from cold");
            }
            Err(e) => return Err(format!("loading {path}: {e}")),
        }
    }
    let reg = registry();
    let spec = reg.get(algorithm).map_err(|e| e.to_string())?;
    let detector = spec
        .build_tuned(graph, &DetectorOptions::new())
        .map_err(|e| e.to_string())?;
    let detection = detector
        .detect(graph, &mut DetectContext::new(seed))
        .map_err(|e| e.to_string())?;
    println!(
        "initial detection ({}): {} communities in {:.2}s",
        detector.name(),
        detection.cover.len(),
        detection.elapsed.as_secs_f64()
    );
    Ok((detection.cover, None))
}

fn serve(cli: &Cli) -> Result<(), String> {
    cli.ensure_known(&SERVE_OPTIONS, &[])?;
    let loaded = load_graph(cli)?;
    let addr = cli.get_str("addr").unwrap_or("127.0.0.1:7010").to_string();
    let workers: usize = cli.get("workers", 4)?;
    let seed: u64 = cli.get("seed", 42)?;
    let recompute_secs: f64 = cli.get("recompute-secs", 0.0)?;
    let max_seconds: f64 = cli.get("max-seconds", 0.0)?;
    let deadline_ms: u64 = cli.get("deadline-ms", 0)?;
    let max_pending: usize = cli.get("max-pending", 128)?;
    let idle_secs: f64 = cli.get("idle-secs", 120.0)?;
    let max_line_bytes: usize = cli.get("max-line-bytes", 64 * 1024)?;
    let algorithm = cli.get_str("algorithm").unwrap_or("oca").to_string();

    let mut local = ServeConfig::default().local;
    let fixed_c: Option<f64> = cli
        .get_str("fixed-c")
        .map(|c| {
            c.parse()
                .map_err(|_| format!("invalid value for --fixed-c: {c:?}"))
        })
        .transpose()?;

    let (initial, stored_c) = initial_cover(cli, &loaded, &algorithm, seed)?;
    // `--fixed-c` wins; otherwise a warm start serves with the `c` its
    // cover was saved with instead of re-running the spectral solver.
    if let Some(c) = fixed_c.or(stored_c) {
        local.c = CStrategy::Fixed(c);
    }
    let relabeling = loaded.relabeling.clone();
    let graph = Arc::new(loaded.graph);
    let config = ServeConfig {
        workers,
        seed,
        recompute_interval: (recompute_secs > 0.0).then(|| Duration::from_secs_f64(recompute_secs)),
        max_duration: (max_seconds > 0.0).then(|| Duration::from_secs_f64(max_seconds)),
        local,
        max_pending,
        max_line_bytes,
        request_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        idle_timeout: (idle_secs > 0.0).then(|| Duration::from_secs_f64(idle_secs)),
        ..Default::default()
    };
    let recompute_ckpt = cli.get_str("recompute-checkpoint").map(str::to_string);
    if recompute_ckpt.is_some() && recompute_secs <= 0.0 {
        return Err("--recompute-checkpoint needs --recompute-secs".to_string());
    }
    let recompute: Option<Box<RecomputeFn>> = (recompute_secs > 0.0).then(|| {
        let mut ropts = DetectorOptions::new();
        if let Some(path) = &recompute_ckpt {
            // Background recompute checkpoints its rounds and salvages on
            // damage: a restarted server resumes a long recompute mid-way
            // (the driver adopts the checkpoint's recorded seed), and a
            // torn file can never wedge the unattended loop.
            ropts.set("checkpoint-path", path);
            ropts.set("checkpoint-resume", "salvage");
        }
        Box::new(oca_api::registry_recompute_with(algorithm, ropts)) as Box<RecomputeFn>
    });

    let mut server =
        Server::new(Arc::clone(&graph), initial, config, recompute).map_err(|e| e.to_string())?;
    if let Some(relabeling) = relabeling.clone() {
        server = server
            .with_relabeling(relabeling)
            .map_err(|e| e.to_string())?;
    }
    let listener =
        std::net::TcpListener::bind(&addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
    println!(
        "serving {} nodes / {} edges on {bound} ({} workers); send `shutdown` to drain",
        graph.node_count(),
        graph.edge_count(),
        workers
    );
    let report = server.run(listener).map_err(|e| format!("serving: {e}"))?;
    if let Some(path) = cli.get_str("save-cover") {
        let snapshot = server.store().load();
        // Saved covers always live in input ids so they warm-start any
        // source (edge list or .ocg) over the same graph.
        let cover = match &relabeling {
            Some(r) => r.cover_to_original(&snapshot.cover),
            None => snapshot.cover.clone(),
        };
        save_cover_path(path, &cover, snapshot.c).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote {path} (epoch {}, {} communities)",
            snapshot.epoch,
            snapshot.cover.len()
        );
    }
    println!("{}", report.summary_line());
    Ok(())
}

fn cover(cli: &Cli) -> Result<(), CmdError> {
    match cli.positional(0) {
        Some("save") => cover_save(cli).map_err(CmdError::from),
        Some("load") => cover_load(cli),
        Some(other) => Err(CmdError::from(format!(
            "unknown cover action {other:?}; expected `cover save` or `cover load`"
        ))),
        None => Err(CmdError::from(
            "missing cover action; expected `cover save` or `cover load`".to_string(),
        )),
    }
}

/// `cover save`: text cover in, versioned checksummed binary out. The
/// stored interaction strength is spectral by default so a later
/// `serve --cover` warm-starts with the exact same `c`.
fn cover_save(cli: &Cli) -> Result<(), String> {
    cli.ensure_known(&["input", "graph", "cover", "output", "fixed-c"], &[])?;
    let graph = load_graph(cli)?.graph;
    let cover_path = cli.require("cover")?;
    let output = cli.require("output")?;
    let cover = read_cover_path(graph.node_count(), cover_path)
        .map_err(|e| format!("reading {cover_path}: {e}"))?;
    let c = match cli.get_str("fixed-c") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --fixed-c: {v:?}"))?,
        None => LocalDetector::default_detector().resolve_c(&graph),
    };
    save_cover_path(output, &cover, c).map_err(|e| format!("writing {output}: {e}"))?;
    println!(
        "wrote {output} ({} communities, {} nodes, c = {c})",
        cover.len(),
        cover.node_count()
    );
    Ok(())
}

/// `cover load`: verifies and summarizes a binary cover against a graph;
/// `--output` converts it back to the text format. Integrity failures
/// exit with their class's dedicated code and name the class, so a
/// restart script can distinguish a damaged file from a stale one.
fn cover_load(cli: &Cli) -> Result<(), CmdError> {
    cli.ensure_known(&["input", "graph", "binary", "output"], &[])
        .map_err(CmdError::from)?;
    let graph = load_graph(cli).map_err(CmdError::from)?.graph;
    let binary = cli.require("binary").map_err(CmdError::from)?;
    let (cover, c) = load_cover_path(binary, Some(graph.node_count()))
        .map_err(|e| integrity_error(format!("loading {binary}: {e}"), e.integrity_class()))?;
    println!(
        "{binary}: {} communities, coverage {:.3}, {} overlap nodes, c = {c}",
        cover.len(),
        cover.coverage(),
        cover.overlap_node_count()
    );
    if let Some(path) = cli.get_str("output") {
        write_cover_path(&cover, path)
            .map_err(|e| CmdError::from(format!("writing {path}: {e}")))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn graph_cmd(cli: &Cli) -> Result<(), CmdError> {
    match cli.positional(0) {
        Some("build") => graph_build(cli).map_err(CmdError::from),
        Some("info") => graph_info(cli).map_err(CmdError::from),
        Some("verify") => graph_verify(cli),
        Some(other) => Err(CmdError::from(format!(
            "unknown graph action {other:?}; expected `graph build`, `graph info` or `graph verify`"
        ))),
        None => Err(CmdError::from(
            "missing graph action; expected `graph build`, `graph info` or `graph verify`"
                .to_string(),
        )),
    }
}

/// `graph build`: plain-text edge list in, validated `.ocg` out,
/// through the bounded-memory external sort — the input never has to fit
/// in RAM. A graph whose `2·m` directed pairs fit one chunk is built in
/// RAM and spills nothing; its `phases:` line then times the parse and
/// in-RAM sort (ingest), the degree count (merge), the scatter into rows
/// (scatter) and the payload write (write). The build runs on the host's
/// available parallelism, capped at 8 workers, which the stats line
/// reports; the output bytes do not depend on it.
fn graph_build(cli: &Cli) -> Result<(), String> {
    cli.ensure_known(
        &["input", "output", "chunk-edges", "min-nodes", "tmp-dir"],
        &["no-relabel", "no-verify"],
    )?;
    let input = cli.require("input")?;
    let output = cli.require("output")?;
    let defaults = BuildOptions::default();
    let options = BuildOptions {
        chunk_edges: cli.get("chunk-edges", defaults.chunk_edges)?,
        min_nodes: cli.get("min-nodes", defaults.min_nodes)?,
        relabel: !cli.has_flag("no-relabel"),
        verify: !cli.has_flag("no-verify"),
        tmp_dir: cli.get_str("tmp-dir").map(Into::into),
    };
    let stats = build_ocg_from_path(input, output, &options).map_err(|e| e.to_string())?;
    println!(
        "wrote {output} ({} nodes, {} edges{})",
        stats.nodes,
        stats.edges,
        if options.relabel {
            ", degree-ordered"
        } else {
            ""
        }
    );
    println!(
        "read {} edge lines; skipped {} self-loop(s) and {} duplicate edge(s); {} sorted run(s), \
         {} spill byte(s), {} worker(s)",
        stats.edges_read,
        stats.self_loops,
        stats.duplicates,
        stats.ingest_runs,
        stats.spill_bytes,
        stats.workers
    );
    let p = stats.phases;
    println!(
        "phases: ingest_ns={} merge_ns={} scatter_ns={} write_ns={} verify_ns={} total_ns={}",
        p.ingest_ns,
        p.merge_ns,
        p.scatter_ns,
        p.write_ns,
        p.verify_ns,
        p.total_ns()
    );
    Ok(())
}

/// `graph info`: the O(1) header read — no payload is touched.
fn graph_info(cli: &Cli) -> Result<(), String> {
    cli.ensure_known(&["graph"], &[])?;
    let path = cli.require("graph")?;
    let info = read_ocg_info(path).map_err(|e| e.to_string())?;
    print_ocg_info(path, &info);
    Ok(())
}

/// `graph verify`: full checksum + structural validation, the expensive
/// counterpart of the O(1) open-time checks. Like `cover load`, the
/// three integrity classes exit with their own codes and are named in
/// the message.
fn graph_verify(cli: &Cli) -> Result<(), CmdError> {
    cli.ensure_known(&["graph"], &[]).map_err(CmdError::from)?;
    let path = cli.require("graph").map_err(CmdError::from)?;
    let info =
        verify_ocg_path(path).map_err(|e| integrity_error(e.to_string(), e.integrity_class()))?;
    println!("{path}: checksum and structure verified");
    print_ocg_info(path, &info);
    Ok(())
}

fn print_ocg_info(path: &str, info: &oca_graph::OcgInfo) {
    println!("{path}: ocg v{}", info.version);
    println!("nodes        {}", info.node_count);
    println!("edges        {}", info.edge_count);
    println!("self loops   {} (skipped at build)", info.self_loops);
    println!("duplicates   {} (skipped at build)", info.duplicates);
    println!("relabeled    {}", info.relabeled);
    println!("validated    {}", info.validated);
    println!("checksum     {:016x}", info.checksum);
    println!("file bytes   {}", info.byte_len);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("oca_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cli(s: &str) -> Cli {
        Cli::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn generate_detect_eval_pipeline() {
        let dir = tmpdir();
        let g = dir.join("g.edges");
        let t = dir.join("t.cover");
        let c = dir.join("c.cover");
        run(&cli(&format!(
            "generate --family lfr --nodes 200 --mu 0.2 --output {} --truth {}",
            g.display(),
            t.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "detect --input {} --algorithm oca --output {}",
            g.display(),
            c.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "eval --input {} --truth {} --found {}",
            g.display(),
            t.display(),
            c.display()
        )))
        .unwrap();
        run(&cli(&format!("stats --input {}", g.display()))).unwrap();
    }

    #[test]
    fn all_registered_algorithms_run_via_cli() {
        let dir = tmpdir();
        let g = dir.join("g2.edges");
        run(&cli(&format!(
            "generate --family daisy --nodes 300 --output {}",
            g.display()
        )))
        .unwrap();
        for alg in registry().names() {
            run(&cli(&format!(
                "detect --input {} --algorithm {alg}",
                g.display()
            )))
            .unwrap();
        }
        // `run` is an alias for `detect`, with algorithm options forwarded.
        run(&cli(&format!(
            "run --input {} --algorithm lfk --alpha 1.2",
            g.display()
        )))
        .unwrap();
    }

    #[test]
    fn oca_parallel_options_flow_through_detect() {
        let dir = tmpdir();
        let g = dir.join("g3.edges");
        run(&cli(&format!(
            "generate --family lfr --nodes 150 --mu 0.2 --output {}",
            g.display()
        )))
        .unwrap();
        // The ticket-ordered driver accepts threads/batch from the CLI;
        // thread count never changes the cover, so this is safe to vary.
        run(&cli(&format!(
            "detect --input {} --threads 2 --batch 16",
            g.display()
        )))
        .unwrap();
        let err = run(&cli(&format!("detect --input {} --batch 0", g.display()))).unwrap_err();
        assert!(err.message.contains("round"), "{err}");
    }

    #[test]
    fn list_algorithms_flag_works() {
        run(&cli("detect --list-algorithms")).unwrap();
        run(&cli("--list-algorithms")).unwrap();
        assert!(algorithm_listing().contains("cfinder-faithful"));
    }

    #[test]
    fn unknown_options_are_rejected_with_the_valid_set() {
        let err = run(&cli("detect --input g.edges --thread 4")).unwrap_err();
        assert!(err.message.contains("--thread"), "{err}");
        assert!(err.message.contains("--threads"), "{err}");

        // Algorithm-specific keys are validated against the registry entry.
        let err = run(&cli("detect --input g.edges --algorithm lfk --threads 4")).unwrap_err();
        assert!(err.message.contains("--threads"), "{err}");
        assert!(err.message.contains("--alpha"), "{err}");

        let err = run(&cli("generate --family lfr --nodez 10 --output /tmp/x")).unwrap_err();
        assert!(
            err.message.contains("--nodez") && err.message.contains("--nodes"),
            "{err}"
        );

        let err = run(&cli("stats --input g.edges --verbose")).unwrap_err();
        assert!(err.message.contains("--verbose"), "{err}");
    }

    #[test]
    fn unknown_algorithm_lists_registered_names() {
        let err = run(&cli("detect --input g.edges --algorithm nope")).unwrap_err();
        assert!(
            err.message.contains("nope") && err.message.contains("lpa"),
            "{err}"
        );
    }

    #[test]
    fn generators_without_truth() {
        let dir = tmpdir();
        for family in ["gnp", "ba", "rmat", "wiki"] {
            let g = dir.join(format!("{family}.edges"));
            run(&cli(&format!(
                "generate --family {family} --nodes 128 --output {}",
                g.display()
            )))
            .unwrap();
        }
    }

    #[test]
    fn cover_round_trips_through_the_binary_format() {
        let dir = tmpdir();
        let g = dir.join("g4.edges");
        let text = dir.join("c4.cover");
        let bin = dir.join("c4.bin");
        let back = dir.join("c4_back.cover");
        run(&cli(&format!(
            "generate --family lfr --nodes 150 --mu 0.2 --output {} --truth {}",
            g.display(),
            text.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "cover save --input {} --cover {} --output {} --fixed-c 0.7",
            g.display(),
            text.display(),
            bin.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "cover load --input {} --binary {} --output {}",
            g.display(),
            bin.display(),
            back.display()
        )))
        .unwrap();
        let original = read_cover_path(150, text.to_str().unwrap()).unwrap();
        let round = read_cover_path(150, back.to_str().unwrap()).unwrap();
        assert_eq!(original, round);
        // Loading against the wrong graph is a typed mismatch error.
        let g2 = dir.join("g5.edges");
        run(&cli(&format!(
            "generate --family gnp --nodes 70 --output {}",
            g2.display()
        )))
        .unwrap();
        let err = run(&cli(&format!(
            "cover load --input {} --binary {}",
            g2.display(),
            bin.display()
        )))
        .unwrap_err();
        assert!(
            err.message.contains("node count mismatch") && err.message.contains("records 150"),
            "{err}"
        );
        // Bad actions are named.
        let err = run(&cli("cover frobnicate")).unwrap_err();
        assert!(err.message.contains("frobnicate"), "{err}");
        assert!(run(&cli("cover")).is_err());
    }

    #[test]
    fn serve_runs_detects_and_saves_a_warm_start_cover() {
        let dir = tmpdir();
        let g = dir.join("g6.edges");
        let bin = dir.join("c6.bin");
        run(&cli(&format!(
            "generate --family lfr --nodes 150 --mu 0.2 --output {}",
            g.display()
        )))
        .unwrap();
        // Cold start: detect, serve briefly, save the cover on shutdown.
        run(&cli(&format!(
            "serve --input {} --addr 127.0.0.1:0 --workers 2 --max-seconds 0.2 \
             --fixed-c 0.6 --save-cover {}",
            g.display(),
            bin.display()
        )))
        .unwrap();
        // Warm start from the saved binary cover.
        run(&cli(&format!(
            "serve --input {} --addr 127.0.0.1:0 --workers 1 --max-seconds 0.2 --cover {}",
            g.display(),
            bin.display()
        )))
        .unwrap();
        // Typo'd options are rejected with the valid set.
        let err = run(&cli(&format!("serve --input {} --worker 2", g.display()))).unwrap_err();
        assert!(
            err.message.contains("--worker") && err.message.contains("--workers"),
            "{err}"
        );
    }

    #[test]
    fn graph_build_info_verify_and_detect_from_ocg() {
        let dir = tmpdir();
        let edges = dir.join("g7.edges");
        let ocg = dir.join("g7.ocg");
        let truth = dir.join("t7.cover");
        let from_list = dir.join("c7_list.cover");
        let from_ocg = dir.join("c7_ocg.cover");
        run(&cli(&format!(
            "generate --family lfr --nodes 200 --mu 0.2 --output {} --truth {}",
            edges.display(),
            truth.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "graph build --input {} --output {}",
            edges.display(),
            ocg.display()
        )))
        .unwrap();
        run(&cli(&format!("graph info --graph {}", ocg.display()))).unwrap();
        run(&cli(&format!("graph verify --graph {}", ocg.display()))).unwrap();
        // Detection from the mmap-backed source writes covers in input
        // ids, so eval against the edge-list truth just works.
        run(&cli(&format!(
            "detect --graph {} --output {} --seed 7",
            ocg.display(),
            from_ocg.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "detect --input {} --output {} --seed 7",
            edges.display(),
            from_list.display()
        )))
        .unwrap();
        // Same graph, same seed: the two sources give the same cover in
        // input ids (the .ocg path is degree-relabeled internally, but
        // OCA's result is invariant to it only after mapping back — so
        // compare through eval instead of bytes).
        run(&cli(&format!(
            "eval --graph {} --truth {} --found {}",
            ocg.display(),
            truth.display(),
            from_ocg.display()
        )))
        .unwrap();
        run(&cli(&format!("stats --graph {}", ocg.display()))).unwrap();
        // Both sources at once is an error, as is neither.
        let err = run(&cli(&format!(
            "stats --input {} --graph {}",
            edges.display(),
            ocg.display()
        )))
        .unwrap_err();
        assert!(err.message.contains("not both"), "{err}");
        let err = run(&cli("stats")).unwrap_err();
        assert!(err.message.contains("--input"), "{err}");
        // Unknown graph actions are named.
        let err = run(&cli("graph frobnicate")).unwrap_err();
        assert!(err.message.contains("frobnicate"), "{err}");
        assert!(run(&cli("graph")).is_err());
    }

    #[test]
    fn serve_from_ocg_translates_ids() {
        let dir = tmpdir();
        let edges = dir.join("g8.edges");
        let ocg = dir.join("g8.ocg");
        let bin = dir.join("c8.bin");
        run(&cli(&format!(
            "generate --family lfr --nodes 150 --mu 0.2 --output {}",
            edges.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "graph build --input {} --output {}",
            edges.display(),
            ocg.display()
        )))
        .unwrap();
        // Serve the relabeled mmap graph; save the cover (input ids).
        run(&cli(&format!(
            "serve --graph {} --addr 127.0.0.1:0 --workers 1 --max-seconds 0.2 \
             --fixed-c 0.6 --save-cover {}",
            ocg.display(),
            bin.display()
        )))
        .unwrap();
        // The saved cover warm-starts both source kinds.
        run(&cli(&format!(
            "serve --graph {} --addr 127.0.0.1:0 --workers 1 --max-seconds 0.2 --cover {}",
            ocg.display(),
            bin.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "serve --input {} --addr 127.0.0.1:0 --workers 1 --max-seconds 0.2 --cover {}",
            edges.display(),
            bin.display()
        )))
        .unwrap();
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&cli("frobnicate")).is_err());
        assert!(run(&cli("detect")).is_err());
        assert!(run(&cli("generate --family nope --output /tmp/x")).is_err());
        let err = run(&cli(
            "generate --family gnp --nodes 10 --output /tmp/oca_g.edges --truth /tmp/oca_t.cover",
        ))
        .unwrap_err();
        assert!(err.message.contains("no ground truth"));
    }

    #[test]
    fn help_prints() {
        run(&cli("help")).unwrap();
        run(&Cli::default()).unwrap();
        assert!(usage().contains("detect"));
    }

    /// The lines of `usage()`'s command list that document `command`
    /// (and `action`, for `cover` and `graph`). A block starts at a
    /// command name in column 2, or at an action word in column 13 that
    /// is followed by its options, and runs to the next such line.
    fn usage_block(command: &str, action: Option<&str>) -> String {
        let text = usage();
        let list = text
            .split("COMMANDS:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .expect("usage has a COMMANDS list");
        let word_at = |line: &str, col: usize| -> Option<String> {
            let rest = line.get(col..)?;
            rest.starts_with(|c: char| c.is_ascii_lowercase())
                .then(|| rest.split(' ').next().unwrap_or("").to_string())
        };
        let (mut cmd, mut act) = (String::new(), None::<String>);
        let mut block = String::new();
        for line in list.lines() {
            if let Some(name) = word_at(line, 2) {
                cmd = name;
                act = None;
            }
            if let Some(word) = word_at(line, 13) {
                let after = &line[13 + word.len()..];
                if after.starts_with(" --") || after.starts_with(" (") {
                    act = Some(word);
                }
            }
            if cmd == command && act.as_deref() == action {
                block.push_str(line);
                block.push('\n');
            }
        }
        block
    }

    /// The keys an `ensure_known` error lists after `marker`.
    fn listed_keys(message: &str, marker: &str) -> Vec<String> {
        match message.split(marker).nth(1) {
            Some(list) => list
                .split(", ")
                .map(|k| k.trim().trim_start_matches("--").to_string())
                .collect(),
            None => Vec::new(),
        }
    }

    #[test]
    fn usage_lists_every_key_each_command_accepts() {
        // `--key` as a whole token: not a prefix of a longer key.
        let mentions = |block: &str, key: &str| {
            let needle = format!("--{key}");
            block.match_indices(&needle).any(|(at, _)| {
                !block[at + needle.len()..]
                    .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
            })
        };
        let algorithm_keys = registry().get("oca").unwrap().option_keys();
        let commands: [(&str, Option<&str>); 10] = [
            ("generate", None),
            ("detect", None),
            ("eval", None),
            ("stats", None),
            ("serve", None),
            ("cover", Some("save")),
            ("cover", Some("load")),
            ("graph", Some("build")),
            ("graph", Some("info")),
            ("graph", Some("verify")),
        ];
        for (command, action) in commands {
            let invocation = format!("{command} {}", action.unwrap_or(""));
            let block = usage_block(command, action);
            assert!(!block.is_empty(), "no usage block for `{invocation}`");
            let option_err = run(&cli(&format!("{invocation} --zz-unknown 1"))).unwrap_err();
            let options = listed_keys(&option_err.message, "valid options: ");
            assert!(!options.is_empty(), "{option_err}");
            let flag_err = run(&cli(&format!("{invocation} --zz-unknown"))).unwrap_err();
            assert!(flag_err.message.contains("flag"), "{flag_err}");
            let flags = listed_keys(&flag_err.message, "valid flags: ");
            for key in options.iter().chain(&flags) {
                if command == "detect" && algorithm_keys.contains(&key.as_str()) {
                    continue; // `--list-algorithms` documents these.
                }
                assert!(
                    mentions(&block, key),
                    "`{invocation}` accepts --{key}, but its usage block does not list it:\n{block}"
                );
            }
        }
        // `summarize` is gone: it is an unknown command like any other.
        let err = run(&cli("summarize --input g.edges --cover c.cover")).unwrap_err();
        assert!(
            err.message.contains("unknown command \"summarize\""),
            "{err}"
        );
    }

    #[test]
    fn detect_with_checkpoint_completes_and_spends_the_file() {
        let dir = tmpdir();
        let g = dir.join("g9.edges");
        let ckpt = dir.join("run9.ockpt");
        let saved = dir.join("c9.cover");
        run(&cli(&format!(
            "generate --family lfr --nodes 150 --mu 0.2 --output {}",
            g.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "detect --input {} --checkpoint {} --output {}",
            g.display(),
            ckpt.display(),
            saved.display()
        )))
        .unwrap();
        // A completed run removes its spent checkpoint and the atomic
        // cover write landed (readable as a text cover).
        assert!(!ckpt.exists(), "spent checkpoint should be removed");
        let cover = read_cover_path(150, saved.to_str().unwrap()).unwrap();
        assert!(!cover.is_empty());
        // Resuming a spent (missing) checkpoint under --resume is the
        // strict policy: the missing file just starts fresh.
        run(&cli(&format!(
            "detect --input {} --checkpoint {} --resume",
            g.display(),
            ckpt.display()
        )))
        .unwrap();
        // --resume is meaningless without --checkpoint.
        let err = run(&cli(&format!("detect --input {} --resume", g.display()))).unwrap_err();
        assert!(err.message.contains("--checkpoint"), "{err}");
        // The cover file has one option, --output; --save-cover is serve's.
        let err = run(&cli(&format!(
            "detect --input {} --save-cover {}",
            g.display(),
            saved.display()
        )))
        .unwrap_err();
        assert!(err.message.contains("save-cover"), "{err}");
        // Algorithms without checkpoint support reject the key as typed.
        let err = run(&cli(&format!(
            "detect --input {} --algorithm lpa --checkpoint {}",
            g.display(),
            ckpt.display()
        )))
        .unwrap_err();
        assert!(err.message.contains("checkpoint"), "{err}");
    }

    #[test]
    fn checkpoint_shorthand_and_registry_keys_do_not_mix() {
        let dir = tmpdir();
        let g = dir.join("g13.edges");
        let bad = dir.join("bad13.ockpt");
        run(&cli(&format!(
            "generate --family lfr --nodes 150 --mu 0.2 --output {}",
            g.display()
        )))
        .unwrap();
        std::fs::write(&bad, b"not a checkpoint").unwrap();
        // Either registry key next to `--checkpoint` is refused, naming
        // both spellings, instead of being silently overridden.
        for extra in [
            "--resume --checkpoint-resume salvage".to_string(),
            format!("--checkpoint-path {}", bad.display()),
        ] {
            let err = run(&cli(&format!(
                "detect --input {} --checkpoint {} {extra}",
                g.display(),
                bad.display()
            )))
            .unwrap_err();
            assert!(
                err.message.contains("--checkpoint F")
                    && err.message.contains("--checkpoint-path F")
                    && err.message.contains("not both"),
                "{err}"
            );
        }
        // The registry spelling alone reaches `salvage`: the garbage file
        // is discarded and the run starts fresh.
        run(&cli(&format!(
            "detect --input {} --checkpoint-path {} --checkpoint-resume salvage",
            g.display(),
            bad.display()
        )))
        .unwrap();
        // The shorthand alone resumes strictly, so the garbage is an error.
        std::fs::write(&bad, b"not a checkpoint").unwrap();
        let err = run(&cli(&format!(
            "detect --input {} --checkpoint {} --resume",
            g.display(),
            bad.display()
        )))
        .unwrap_err();
        assert!(err.message.contains("magic"), "{err}");
    }

    #[test]
    fn cover_load_exit_codes_distinguish_the_damage() {
        let dir = tmpdir();
        let g = dir.join("g10.edges");
        let text = dir.join("c10.cover");
        let bin = dir.join("c10.bin");
        run(&cli(&format!(
            "generate --family lfr --nodes 150 --mu 0.2 --output {} --truth {}",
            g.display(),
            text.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "cover save --input {} --cover {} --output {} --fixed-c 0.7",
            g.display(),
            text.display(),
            bin.display()
        )))
        .unwrap();
        let pristine = std::fs::read(&bin).unwrap();
        let load = |path: &std::path::Path| {
            run(&cli(&format!(
                "cover load --input {} --binary {}",
                g.display(),
                path.display()
            )))
        };

        // Truncation: cut inside the fixed header (magic intact).
        let cut = dir.join("c10_cut.bin");
        std::fs::write(&cut, &pristine[..20]).unwrap();
        let err = load(&cut).unwrap_err();
        assert_eq!(err.code, EXIT_TRUNCATED, "{err}");
        assert!(err.message.contains("truncation"), "{err}");

        // Bit rot: flip a payload byte; the trailing checksum catches it.
        let mut rotted = pristine.clone();
        let mid = rotted.len() - 12;
        rotted[mid] ^= 0xFF;
        let rot = dir.join("c10_rot.bin");
        std::fs::write(&rot, &rotted).unwrap();
        let err = load(&rot).unwrap_err();
        assert_eq!(err.code, EXIT_CHECKSUM_MISMATCH, "{err}");
        assert!(err.message.contains("checksum-mismatch"), "{err}");

        // Version skew: patch the u32 version field (checked before the
        // checksum, so this reports as staleness, not damage).
        let mut future = pristine.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        let ver = dir.join("c10_ver.bin");
        std::fs::write(&ver, &future).unwrap();
        let err = load(&ver).unwrap_err();
        assert_eq!(err.code, EXIT_VERSION_MISMATCH, "{err}");
        assert!(err.message.contains("version-mismatch"), "{err}");
    }

    #[test]
    fn cover_load_exits_truncated_at_every_cut() {
        let dir = tmpdir();
        let g = dir.join("g_cut.edges");
        let text = dir.join("c_cut.cover");
        let bin = dir.join("c_cut.bin");
        run(&cli(&format!(
            "generate --family lfr --nodes 60 --mu 0.2 --output {} --truth {}",
            g.display(),
            text.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "cover save --input {} --cover {} --output {} --fixed-c 0.7",
            g.display(),
            text.display(),
            bin.display()
        )))
        .unwrap();
        let pristine = std::fs::read(&bin).unwrap();
        let cut = dir.join("c_cut_short.bin");
        // From a bare magic up to one byte short, the frame's length field
        // (or the missing header) says the file was cut, not rotted.
        for len in 8..pristine.len() {
            std::fs::write(&cut, &pristine[..len]).unwrap();
            let err = run(&cli(&format!(
                "cover load --input {} --binary {}",
                g.display(),
                cut.display()
            )))
            .unwrap_err();
            assert_eq!(err.code, EXIT_TRUNCATED, "cut to {len}: {err}");
        }
    }

    #[test]
    fn serve_warm_start_keeps_the_stored_c() {
        let dir = tmpdir();
        let g = dir.join("g_c.edges");
        let text = dir.join("c_c.cover");
        let bin = dir.join("c_c.bin");
        let out = dir.join("c_c_out.bin");
        run(&cli(&format!(
            "generate --family lfr --nodes 150 --mu 0.2 --output {} --truth {}",
            g.display(),
            text.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "cover save --input {} --cover {} --output {} --fixed-c 0.7",
            g.display(),
            text.display(),
            bin.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "serve --input {} --addr 127.0.0.1:0 --workers 1 --max-seconds 0.1 \
             --cover {} --save-cover {}",
            g.display(),
            bin.display(),
            out.display()
        )))
        .unwrap();
        let (_, c) = load_cover_path(&out, Some(150)).unwrap();
        assert_eq!(c, 0.7, "the warm start must serve with the stored c");
    }

    #[test]
    fn graph_verify_exit_codes_distinguish_the_damage() {
        let dir = tmpdir();
        let edges = dir.join("g11.edges");
        let ocg = dir.join("g11.ocg");
        run(&cli(&format!(
            "generate --family gnp --nodes 100 --output {}",
            edges.display()
        )))
        .unwrap();
        run(&cli(&format!(
            "graph build --input {} --output {}",
            edges.display(),
            ocg.display()
        )))
        .unwrap();
        let pristine = std::fs::read(&ocg).unwrap();

        // Payload corruption: checksum mismatch, exit 3.
        let mut rotted = pristine.clone();
        let last = rotted.len() - 1;
        rotted[last] ^= 0xFF;
        let rot = dir.join("g11_rot.ocg");
        std::fs::write(&rot, &rotted).unwrap();
        let err = run(&cli(&format!("graph verify --graph {}", rot.display()))).unwrap_err();
        assert_eq!(err.code, EXIT_CHECKSUM_MISMATCH, "{err}");
        assert!(err.message.contains("checksum-mismatch"), "{err}");

        // Truncation: the header implies more bytes than the file has.
        let cut = dir.join("g11_cut.ocg");
        std::fs::write(&cut, &pristine[..pristine.len() - 8]).unwrap();
        let err = run(&cli(&format!("graph verify --graph {}", cut.display()))).unwrap_err();
        assert_eq!(err.code, EXIT_TRUNCATED, "{err}");
        assert!(err.message.contains("truncation"), "{err}");
    }

    #[test]
    fn serve_recompute_checkpoint_needs_recompute_and_runs() {
        let dir = tmpdir();
        let g = dir.join("g12.edges");
        let ckpt = dir.join("serve12.ockpt");
        run(&cli(&format!(
            "generate --family lfr --nodes 150 --mu 0.2 --output {}",
            g.display()
        )))
        .unwrap();
        let err = run(&cli(&format!(
            "serve --input {} --addr 127.0.0.1:0 --max-seconds 0.1 --recompute-checkpoint {}",
            g.display(),
            ckpt.display()
        )))
        .unwrap_err();
        assert!(err.message.contains("--recompute-secs"), "{err}");
        // With the interval set, a short serve run with a checkpointing
        // background recompute comes up and drains cleanly.
        run(&cli(&format!(
            "serve --input {} --addr 127.0.0.1:0 --workers 1 --max-seconds 0.3 \
             --recompute-secs 0.1 --recompute-checkpoint {}",
            g.display(),
            ckpt.display()
        )))
        .unwrap();
    }
}
