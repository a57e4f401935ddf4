//! The serve side, layer by layer: the warm-start steps `oca serve`
//! takes before it answers, then the request stream of the load
//! generator replayed through the request path's public calls.

use crate::json::Obj;
use crate::loadgen::request_stream;
use crate::trace::Tracer;
use crate::Args;
use oca::{CStrategy, CommunityState, LocalConfig, LocalDetector, SearchConfig};
use oca_api::DetectContext;
use oca_graph::{open_ocg_path, NodeId};
use oca_serve::{load_cover_path, Request, SnapshotStore};
use std::hint::black_box;
use std::time::Instant;

/// The server's `--seed` default; `local` ascents draw from it.
const SERVE_SEED: u64 = 42;
/// Requests replayed through the request path.
const REQUESTS: usize = 4000;

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

pub fn trace_serve(args: &Args) -> Result<String, String> {
    let graph_path = args.req("graph")?;
    let cover_path = args.req("cover")?;
    let seed: u64 = args.num("seed")?;
    let run = args.req("run")?;
    let mut tr = Tracer::new();

    let startup = tr.open(run, "serve.startup", None);
    let span = tr.open(run, "ocg.open", Some(startup));
    let ocg = open_ocg_path(graph_path).map_err(|e| format!("opening {graph_path}: {e}"))?;
    let relabeling = ocg.relabeling().filter(|r| !r.is_identity());
    let graph = ocg.graph;
    let n = graph.node_count();
    let open_s = tr.close(span);

    let span = tr.open(run, "persist.load", Some(startup));
    let (cover, _stored_c) =
        load_cover_path(cover_path, Some(n)).map_err(|e| format!("loading {cover_path}: {e}"))?;
    let cover = match &relabeling {
        Some(r) => r.cover_to_compact(&cover),
        None => cover,
    };
    let load_s = tr.close(span);

    // The serving detector: `oca serve`'s scaled move budget, and `c`
    // fixed when the server is started with `--fixed-c`.
    let mut local = LocalConfig {
        search: SearchConfig {
            budget_factor: 64.0,
            ..Default::default()
        },
        ..Default::default()
    };
    if args.flag("fixed-c") {
        local.c = CStrategy::Fixed(args.num("fixed-c")?);
    }
    let detector = LocalDetector::new(local).map_err(|e| e.to_string())?;
    let span = tr.open(run, "spectral", Some(startup));
    let c = detector.resolve_c(&graph);
    let spectral_s = tr.close(span);

    let span = tr.open(run, "index.build", Some(startup));
    let store = SnapshotStore::new(cover, c);
    let index_s = tr.close(span);
    tr.close(startup);

    let stream = request_stream(seed, n, REQUESTS);
    let lines: Vec<String> = stream
        .iter()
        .map(|&(local, v)| format!("{} {v}", if local { "local" } else { "query" }))
        .collect();
    let mut state = CommunityState::new(&graph, c);
    let ctx = DetectContext::new(SERVE_SEED);
    let (mut parse, mut pin, mut probe, mut ascent) = (vec![], vec![], vec![], vec![]);
    let mut local_moves = 0u64;
    for (i, line) in lines.iter().enumerate() {
        let id = format!("{run}/req-{i}");
        let t0 = tr.now();
        let request = Request::parse(line).map_err(|e| e.to_json())?;
        let t1 = tr.now();
        let root = tr.record(&id, "request", None, t0, t0);
        tr.record(&id, "protocol.parse", Some(root), t0, t1);
        parse.push((t1 - t0) * 1e9);
        let (v, name) = match request {
            Request::Query(v) => (v, "index.probe"),
            Request::Local(v) => (v, "local.ascent"),
            other => return Err(format!("unexpected request {other:?}")),
        };
        let node = match &relabeling {
            Some(r) => r.to_compact(NodeId(v)),
            None => NodeId(v),
        };
        let t2;
        let t3;
        if name == "index.probe" {
            let snapshot = store.load();
            t2 = tr.now();
            black_box(snapshot.index.communities_of(node).len());
            t3 = tr.now();
            tr.record(&id, "snapshot.pin", Some(root), t1, t2);
            pin.push((t2 - t1) * 1e9);
            probe.push((t3 - t2) * 1e9);
        } else {
            t2 = t1;
            let started = Instant::now();
            let found = detector
                .detect_with(&graph, &mut state, c, &[node], &ctx)
                .map_err(|e| e.to_string())?;
            t3 = tr.now();
            ascent.push(started.elapsed().as_secs_f64() * 1e6);
            local_moves += found.moves as u64;
        }
        tr.record(&id, name, Some(root), t2, t3);
        tr.set_end(root, t3);
    }
    let locals = ascent.len();
    tr.write(args.req("spans")?)?;

    let mut o = Obj::new();
    o.num("open_s", open_s)
        .num("persist_load_s", load_s)
        .num("spectral_s", spectral_s)
        .num("index_build_s", index_s)
        .int("requests", REQUESTS as u64)
        .num("parse_ns", median(&mut parse))
        .num("pin_ns", median(&mut pin))
        .num("probe_ns", median(&mut probe))
        .num("local_ascent_us", median(&mut ascent))
        .num("local_moves", local_moves as f64 / locals.max(1) as f64);
    Ok(o.render())
}
