//! The detect side: cover checks, the layer-by-layer detect and the
//! isolated ascent loop.

use crate::json::Obj;
use crate::trace::Tracer;
use crate::Args;
use oca::{
    initial_set, local_search, merge_similar, ticket_seed, CommunityState, SearchConfig,
    SeedStrategy,
};
use oca_api::{registry, DetectContext, DetectorOptions};
use oca_graph::{open_ocg_path, read_cover_path, write_cover_path, Cover, NodeId};
use oca_metrics::{rho, theta};
use oca_serve::CoverIndex;
use oca_spectral::{interaction_strength, PowerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Parses a cover over `--nodes` nodes and, with `--reference`, scores it
/// with Θ (paper eq. V.2) against that reference cover.
pub fn cover_check(args: &Args) -> Result<String, String> {
    let n: usize = args.num("nodes")?;
    let found_path = args.req("found")?;
    let found = read_cover_path(n, found_path).map_err(|e| format!("reading {found_path}: {e}"))?;
    let mut o = Obj::new();
    o.int("communities", found.len() as u64)
        .num("coverage", found.coverage());
    if let Some(path) = args.opt("reference") {
        let reference = read_cover_path(n, path).map_err(|e| format!("reading {path}: {e}"))?;
        // `oca_metrics::theta` scores every pair of communities, which
        // takes tens of seconds at this size; it must agree bit for bit
        // with the indexed form on a slice of the found cover.
        let slice = Cover::new(n, found.communities().iter().take(32).cloned().collect());
        let agrees = theta(&reference, &slice) == theta_indexed(&reference, &slice);
        o.num("theta", theta_indexed(&reference, &found))
            .bool("theta_agrees", agrees);
    }
    Ok(o.render())
}

/// Θ as `oca_metrics::theta` computes it, with the best-match search cut
/// down to the reference communities that share a node with the observed
/// one: every other reference community has ρ = 0, so scanning the
/// sharing ones in index order finds the same first maximum.
fn theta_indexed(reference: &Cover, observed: &Cover) -> f64 {
    if reference.is_empty() && observed.is_empty() {
        return 1.0;
    }
    if reference.is_empty() || observed.is_empty() {
        return 0.0;
    }
    let index = CoverIndex::build(reference);
    let refs = reference.communities();
    let mut rho_sum = vec![0.0f64; refs.len()];
    let mut counts = vec![0usize; refs.len()];
    let mut candidates: Vec<u32> = Vec::new();
    for oj in observed.communities() {
        candidates.clear();
        for &v in oj.members() {
            candidates.extend_from_slice(index.communities_of(v));
        }
        candidates.sort_unstable();
        candidates.dedup();
        let (mut best, mut best_rho) = (0usize, rho(&refs[0], oj));
        if !candidates.is_empty() {
            best_rho = f64::NEG_INFINITY;
            for &k in &candidates {
                let r = rho(&refs[k as usize], oj);
                if r > best_rho {
                    best_rho = r;
                    best = k as usize;
                }
            }
        }
        rho_sum[best] += best_rho;
        counts[best] += 1;
    }
    let total: f64 = rho_sum
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .sum();
    total / refs.len() as f64
}

fn stat<'a>(stats: &'a [(&'static str, String)], key: &str) -> &'a str {
    stats
        .iter()
        .find(|(k, _)| *k == key)
        .map_or("0", |(_, v)| v.as_str())
}

fn stat_u64(stats: &[(&'static str, String)], key: &str) -> u64 {
    stat(stats, key).parse().unwrap_or(0)
}

/// `oca detect --graph G.ocg` split into its public calls, one span each:
/// open the graph, resolve `c`, build the tuned detector with that `c`
/// fixed and merging off, run the driver, merge, write the cover. The
/// written cover is the one `oca detect` writes for the same options.
pub fn trace_detect(args: &Args) -> Result<String, String> {
    let graph_path = args.req("graph")?;
    let output = args.req("output")?;
    let seed: u64 = args.num("seed")?;
    let threads: usize = args.num("threads")?;
    let run = args.req("run")?;
    let mut tr = Tracer::new();
    let root = tr.open(run, "detect", None);

    let span = tr.open(run, "ocg.open", Some(root));
    let ocg = open_ocg_path(graph_path).map_err(|e| format!("opening {graph_path}: {e}"))?;
    let relabeling = ocg.relabeling().filter(|r| !r.is_identity());
    let graph = ocg.graph;
    let open_s = tr.close(span);

    let span = tr.open(run, "spectral", Some(root));
    let strength = interaction_strength(&graph, &PowerConfig::default());
    let spectral_s = tr.close(span);

    let span = tr.open(run, "registry.build_tuned", Some(root));
    let mut opts = DetectorOptions::new();
    opts.set("threads", &threads.to_string());
    // `{}` prints the shortest string that parses back to the same f64,
    // so the fixed `c` is bit-identical to the spectral one.
    opts.set("fixed-c", &format!("{}", strength.c));
    opts.set("merge-threshold", "none");
    if let Some(path) = args.opt("checkpoint") {
        opts.set("checkpoint-path", path);
        opts.set("checkpoint-resume", "fresh");
    }
    let registry = registry();
    let spec = registry.get("oca").map_err(|e| e.to_string())?;
    let detector = spec.build_tuned(&graph, &opts).map_err(|e| e.to_string())?;
    let build_s = tr.close(span);

    let driver = tr.open(run, "driver", Some(root));
    let driver_start = tr.now();
    let detection = detector
        .detect(&graph, &mut DetectContext::new(seed))
        .map_err(|e| e.to_string())?;
    let driver_s = tr.close(driver);
    let stats = &detection.stats;
    let ascent_s = stat_u64(stats, "ascent_ns") as f64 * 1e-9;
    let reduce_s = stat_u64(stats, "dedup_ns") as f64 * 1e-9;
    let ckpt_s = stat_u64(stats, "ckpt_total_write_ns") as f64 * 1e-9;
    // The driver reports these phases as totals, not intervals: their
    // spans start with the driver and carry the summed duration.
    for (name, secs) in [
        ("driver.ascent", ascent_s),
        ("driver.reduce", reduce_s),
        ("ckpt.write", ckpt_s),
    ] {
        tr.record(run, name, Some(driver), driver_start, driver_start + secs);
    }

    let span = tr.open(run, "merge", Some(root));
    let raw = &detection.cover;
    let merged = merge_similar(raw, 0.5);
    let merge_s = tr.close(span);

    let span = tr.open(run, "cover_write", Some(root));
    let cover = match &relabeling {
        Some(r) => r.cover_to_original(&merged),
        None => merged.clone(),
    };
    write_cover_path(&cover, output).map_err(|e| format!("writing {output}: {e}"))?;
    let cover_write_s = tr.close(span);
    let total_s = tr.close(root);
    tr.write(args.req("spans")?)?;

    let seeds = detection.iterations as f64;
    let mut o = Obj::new();
    o.num("open_s", open_s)
        .num("spectral_s", spectral_s)
        .int("spectral_iterations", strength.power.iterations as u64)
        .bool("spectral_converged", strength.power.converged)
        .str("c", &format!("{}", strength.c))
        .num("build_s", build_s)
        .num("driver_s", driver_s)
        .num("ascent_s", ascent_s)
        .num("reduce_s", reduce_s)
        .num("ckpt_write_s", ckpt_s)
        .int("ckpt_writes", stat_u64(stats, "ckpt_rounds"))
        .int("ckpt_bytes", stat_u64(stats, "ckpt_last_bytes"))
        .num("driver_other_s", driver_s - ascent_s - reduce_s - ckpt_s)
        .num("seeds_tried", seeds)
        .int("raw_communities", raw.len() as u64)
        .num("accept_ratio", raw.len() as f64 / seeds.max(1.0))
        .num("coverage", raw.coverage())
        .str("halt_reason", stat(stats, "halt_reason"))
        .num("merge_s", merge_s)
        .int("merge_in", raw.len() as u64)
        .int("merge_out", merged.len() as u64)
        .num("cover_write_s", cover_write_s)
        .num("total_s", total_s);
    Ok(o.render())
}

/// Ascents timed by `search-loop`.
const SEARCH_TICKETS: u64 = 2000;

/// The ascent inner loop alone: [`SEARCH_TICKETS`] ascents seeded the way the
/// driver seeds its first round (uniform seed node, the paper's random
/// neighbourhood), with the tuned preset's move budget.
pub fn search_loop(args: &Args) -> Result<String, String> {
    let graph_path = args.req("graph")?;
    let c: f64 = args.num("c")?;
    let seed: u64 = args.num("seed")?;
    let ocg = open_ocg_path(graph_path).map_err(|e| format!("opening {graph_path}: {e}"))?;
    let graph = ocg.graph;
    let n = graph.node_count();
    let config = SearchConfig {
        budget_factor: 64.0,
        ..SearchConfig::default()
    };
    let mut state = CommunityState::new(&graph, c);
    let mut moves = 0u64;
    let start = Instant::now();
    for t in 0..SEARCH_TICKETS {
        let mut rng = StdRng::seed_from_u64(ticket_seed(seed, t));
        let node = NodeId(rng.random_range(0..n) as u32);
        let initial = initial_set(SeedStrategy::default(), &graph, node, &mut rng);
        moves += local_search(&mut state, &initial, &config).moves as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    let mut o = Obj::new();
    o.int("tickets", SEARCH_TICKETS)
        .int("moves", moves)
        .num("secs", secs)
        .num("ns_per_move", secs * 1e9 / moves.max(1) as f64);
    Ok(o.render())
}
