//! Seeded local detection: the query-centric mode of OCA.
//!
//! The paper's setting is community *search* — "which community contains
//! node v?" — and answering that does not require the global ticket driver
//! at all. [`LocalDetector`] runs a single budgeted ascent from the query
//! node (or an explicit node set) on a [`CommunityState`] and returns the
//! containing community plus ascent telemetry. For a fixed
//! [`DetectContext::seed`] the result is deterministic: the initial set is
//! drawn from the per-query SplitMix64 stream
//! `ticket_seed(ctx.seed(), query)`, so two servers warm-started with the
//! same seed answer identically.
//!
//! Two entry points:
//! * [`LocalDetector::detect_from`] — convenience: resolves `c`, builds a
//!   fresh state, runs the ascent. Fine for one-off CLI queries.
//! * [`LocalDetector::detect_with`] — the serving hot path: the caller
//!   keeps a per-worker [`CommunityState`] (its construction is O(n)) and
//!   a precomputed `c`, so a query costs only the ascent itself.
//!
//! Cancellation is cooperative via [`DetectContext`]: the ascent polls the
//! token every few moves ([`crate::search::ascend_cancellable`]) and an
//! interrupted query returns [`DetectError::Cancelled`] carrying the
//! partial community grown so far.

use crate::config::CStrategy;
use crate::search::{
    ascend_cancellable, AscentOutcome, AscentStop, SearchConfig, TUNED_BUDGET_FACTOR,
};
use crate::seed::{initial_set, splitmix64, ticket_seed, SeedStrategy};
use crate::state::CommunityState;
use oca_graph::{
    Community, CommunityDetector, Cover, CsrGraph, DetectContext, DetectError, Detection,
    GraphError, NodeId,
};
use oca_spectral::interaction_strength;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Configuration of a seeded local detection.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LocalConfig {
    /// Interaction-strength source. Spectral resolution is a whole-graph
    /// Lanczos solve — servers resolve it once per snapshot via
    /// [`LocalDetector::resolve_c`] and use [`LocalDetector::detect_with`].
    pub c: CStrategy,
    /// How the query node expands into the ascent's initial set.
    pub seed_strategy: SeedStrategy,
    /// Ascent tunables. The tuned preset ([`LocalConfig::tuned`]) enables
    /// the scaled move budget so a hub query cannot stall a serving worker.
    pub search: SearchConfig,
    /// Query node for the [`CommunityDetector`] entry point. `None` (the
    /// default) derives a node from the context seed — useful for
    /// conformance harnesses that run every detector the same way; real
    /// callers set it or use [`LocalDetector::detect_from`] directly.
    pub query: Option<NodeId>,
}

impl LocalConfig {
    /// The tuned preset: the default with a [`TUNED_BUDGET_FACTOR`]× ascent
    /// budget — what `oca serve`'s `local` endpoint and the registry's
    /// tuned `oca-local` build run.
    pub fn tuned() -> Self {
        LocalConfig {
            search: SearchConfig {
                budget_factor: TUNED_BUDGET_FACTOR,
                ..SearchConfig::default()
            },
            ..LocalConfig::default()
        }
    }

    /// Validates parameter ranges, reporting violations as typed errors.
    pub fn validate(&self) -> Result<(), DetectError> {
        let invalid = |message: String| DetectError::InvalidConfig {
            algorithm: "OCA-local",
            message,
        };
        if let CStrategy::Fixed(c) = self.c {
            if !(c > 0.0 && c < 1.0) {
                return Err(invalid(format!("fixed c must lie in (0, 1), got {c}")));
            }
        }
        if !(self.search.budget_factor >= 0.0 && self.search.budget_factor.is_finite()) {
            return Err(invalid(format!(
                "ascent budget factor must be finite and non-negative, got {}",
                self.search.budget_factor
            )));
        }
        if self.search.max_moves < 1 {
            return Err(invalid("need at least one move per ascent".to_string()));
        }
        Ok(())
    }
}

/// Result of one seeded local detection: the containing community plus the
/// ascent's telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDetection {
    /// The community grown around the query set.
    pub community: Community,
    /// Its fitness `L`.
    pub fitness: f64,
    /// Moves the ascent applied.
    pub moves: usize,
    /// Whether the ascent reached a true local maximum.
    pub converged: bool,
    /// Why the ascent stopped.
    pub stop: AscentStop,
    /// The materialized initial set the ascent started from (query nodes
    /// plus the seed-strategy expansion).
    pub seeds: Vec<NodeId>,
    /// The interaction strength used.
    pub c: f64,
    /// Wall-clock time of the query (excluding state construction for the
    /// [`LocalDetector::detect_with`] path).
    pub elapsed: Duration,
}

/// Single-query community detector: one budgeted ascent from a query node,
/// no global driver. See the [module docs](self) for the two entry points.
#[derive(Debug, Clone)]
pub struct LocalDetector {
    config: LocalConfig,
}

impl LocalDetector {
    /// Validates `config` and builds the detector.
    pub fn new(config: LocalConfig) -> Result<Self, DetectError> {
        config.validate()?;
        Ok(LocalDetector { config })
    }

    /// A detector with the default configuration.
    pub fn default_detector() -> Self {
        LocalDetector {
            config: LocalConfig::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &LocalConfig {
        &self.config
    }

    /// Resolves the interaction strength for `graph` under this
    /// configuration. Spectral resolution runs a Lanczos solve over the
    /// whole graph — call once per graph (or cover snapshot) and reuse the
    /// value through [`LocalDetector::detect_with`].
    pub fn resolve_c(&self, graph: &CsrGraph) -> f64 {
        match self.config.c {
            CStrategy::Fixed(c) => c,
            CStrategy::Spectral(ref pc) => interaction_strength(graph, pc).c,
        }
    }

    /// Convenience entry point: resolves `c`, builds a fresh state and
    /// runs the ascent. State construction is O(n) — serving loops should
    /// keep a per-worker state and call [`LocalDetector::detect_with`].
    pub fn detect_from(
        &self,
        graph: &CsrGraph,
        queries: &[NodeId],
        ctx: &DetectContext,
    ) -> Result<LocalDetection, DetectError> {
        self.check_queries(graph, queries)?;
        if ctx.is_cancelled() {
            return Err(self.cancelled(graph, queries.to_vec(), 0.0, Duration::ZERO));
        }
        let c = self.resolve_c(graph);
        let mut state = CommunityState::new(graph, c);
        self.detect_with(graph, &mut state, c, queries, ctx)
    }

    /// The serving hot path: runs the ascent on a caller-owned state with
    /// a precomputed `c`. The state must have been built on `graph` with
    /// the same `c` (it is reset before use, so reuse across queries is
    /// free). `queries` must be non-empty and in bounds.
    pub fn detect_with(
        &self,
        graph: &CsrGraph,
        state: &mut CommunityState<'_>,
        c: f64,
        queries: &[NodeId],
        ctx: &DetectContext,
    ) -> Result<LocalDetection, DetectError> {
        self.check_queries(graph, queries)?;
        let start = Instant::now();
        let seeds = self.expand(graph, queries, ctx.seed());
        ctx.tick("local", 0, Some(1));
        if ctx.is_cancelled() {
            return Err(self.cancelled(graph, seeds, 0.0, start.elapsed()));
        }
        let token = ctx.cancel_token();
        let (outcome, interrupted) =
            ascend_cancellable(state, &seeds, &self.config.search, Some(&token));
        if interrupted {
            // The state holds the partial set; surface it as the typed
            // partial result.
            let partial = self.to_detection(
                graph,
                state.to_community(),
                &outcome,
                c,
                start.elapsed(),
                false,
            );
            return Err(DetectError::cancelled(partial));
        }
        let mut community = state.to_community();
        let mut fitness = outcome.fitness;
        let mut moves = outcome.moves;
        let mut converged = outcome.converged;
        let mut stop = outcome.stop;
        // The seed expansion can pull the ascent across a bridge and the
        // removal moves may then drop the query itself — useless for a
        // query-centric caller. Re-anchor: rerun once from the full closed
        // neighborhood of the queries, whose dense core dominates the
        // ascent so stray far-side seeds get removed instead. Still
        // best-effort (a genuinely peripheral query can be removed again),
        // but deterministic and cheap.
        let anchor_seeds = if queries.iter().any(|q| !community.contains(*q)) {
            self.expand_ball(graph, queries)
        } else {
            Vec::new()
        };
        if !anchor_seeds.is_empty() && anchor_seeds != seeds {
            let (anchored, interrupted) =
                ascend_cancellable(state, &anchor_seeds, &self.config.search, Some(&token));
            if interrupted {
                let partial = self.to_detection(
                    graph,
                    state.to_community(),
                    &anchored,
                    c,
                    start.elapsed(),
                    false,
                );
                return Err(DetectError::cancelled(partial));
            }
            community = state.to_community();
            fitness = anchored.fitness;
            moves += anchored.moves;
            converged = anchored.converged;
            stop = anchored.stop;
        }
        ctx.tick("local", 1, Some(1));
        Ok(LocalDetection {
            community,
            fitness,
            moves,
            converged,
            stop,
            seeds,
            c,
            elapsed: start.elapsed(),
        })
    }

    /// Rejects empty or out-of-bounds query sets with typed errors.
    fn check_queries(&self, graph: &CsrGraph, queries: &[NodeId]) -> Result<(), DetectError> {
        if queries.is_empty() {
            return Err(DetectError::InvalidConfig {
                algorithm: "OCA-local",
                message: "need at least one query node".to_string(),
            });
        }
        let n = graph.node_count();
        for &v in queries {
            if v.index() >= n {
                return Err(DetectError::Graph(GraphError::NodeOutOfBounds {
                    node: v.raw(),
                    node_count: n as u32,
                }));
            }
        }
        Ok(())
    }

    /// The re-anchor seed set: every query node plus all its neighbors.
    fn expand_ball(&self, graph: &CsrGraph, queries: &[NodeId]) -> Vec<NodeId> {
        let mut set: Vec<NodeId> = Vec::new();
        for &q in queries {
            if !set.contains(&q) {
                set.push(q);
            }
            for &u in graph.neighbors(q) {
                if !set.contains(&u) {
                    set.push(u);
                }
            }
        }
        set
    }

    /// Materializes the initial set: every query node, each expanded under
    /// the seed strategy with its own deterministic per-query RNG stream.
    fn expand(&self, graph: &CsrGraph, queries: &[NodeId], seed: u64) -> Vec<NodeId> {
        let mut set: Vec<NodeId> = Vec::new();
        for &q in queries {
            let mut rng = StdRng::seed_from_u64(ticket_seed(seed, u64::from(q.raw())));
            for v in initial_set(self.config.seed_strategy, graph, q, &mut rng) {
                if !set.contains(&v) {
                    set.push(v);
                }
            }
        }
        set
    }

    /// Wraps a (possibly partial) community as a uniform [`Detection`].
    fn to_detection(
        &self,
        graph: &CsrGraph,
        community: Community,
        outcome: &AscentOutcome,
        c: f64,
        elapsed: Duration,
        complete: bool,
    ) -> Detection {
        let cover = Cover::new(graph.node_count(), vec![community]);
        Detection {
            cover,
            elapsed,
            complete,
            iterations: 1,
            stats: vec![
                ("c", format!("{c}")),
                ("fitness", format!("{:.6}", outcome.fitness)),
                ("moves", outcome.moves.to_string()),
                ("stop", outcome.stop.label().to_string()),
            ],
        }
    }

    /// A pre-ascent cancellation: the partial cover is the bare seed set.
    fn cancelled(
        &self,
        graph: &CsrGraph,
        seeds: Vec<NodeId>,
        c: f64,
        elapsed: Duration,
    ) -> DetectError {
        let cover = if seeds.is_empty() {
            Cover::empty(graph.node_count())
        } else {
            Cover::new(graph.node_count(), vec![Community::new(seeds)])
        };
        DetectError::cancelled(Detection {
            cover,
            elapsed,
            complete: false,
            iterations: 0,
            stats: vec![("c", format!("{c}"))],
        })
    }

    /// The query node the [`CommunityDetector`] entry point uses: the
    /// configured one, or a seed-derived node so harnesses that run every
    /// detector uniformly still exercise a real query.
    fn effective_query(&self, graph: &CsrGraph, seed: u64) -> NodeId {
        self.config.query.unwrap_or_else(|| {
            let n = graph.node_count() as u64;
            NodeId((splitmix64(seed) % n.max(1)) as u32)
        })
    }
}

impl CommunityDetector for LocalDetector {
    fn name(&self) -> &'static str {
        "OCA-local"
    }

    fn detect(&self, graph: &CsrGraph, ctx: &mut DetectContext) -> Result<Detection, DetectError> {
        let start = Instant::now();
        if graph.node_count() == 0 {
            return Ok(Detection {
                cover: Cover::empty(0),
                elapsed: start.elapsed(),
                complete: true,
                iterations: 1,
                stats: Vec::new(),
            });
        }
        let query = self.effective_query(graph, ctx.seed());
        let found = self.detect_from(graph, &[query], ctx)?;
        let outcome = AscentOutcome {
            fitness: found.fitness,
            moves: found.moves,
            converged: found.converged,
            stop: found.stop,
        };
        let mut detection = self.to_detection(
            graph,
            found.community,
            &outcome,
            found.c,
            start.elapsed(),
            true,
        );
        detection.stats.push(("query", query.raw().to_string()));
        Ok(detection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::from_edges;

    /// Two 4-cliques joined by a single bridge edge.
    fn two_cliques() -> CsrGraph {
        let mut edges = Vec::new();
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((3, 4));
        from_edges(8, edges)
    }

    fn fixed_detector() -> LocalDetector {
        LocalDetector::new(LocalConfig {
            c: CStrategy::Fixed(0.9),
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn query_recovers_the_containing_clique() {
        let g = two_cliques();
        let det = fixed_detector();
        let ctx = DetectContext::new(42);
        let found = det.detect_from(&g, &[NodeId(1)], &ctx).unwrap();
        let raw: Vec<u32> = found.community.members().iter().map(|v| v.raw()).collect();
        assert_eq!(raw, vec![0, 1, 2, 3]);
        assert!(found.converged);
        assert_eq!(found.stop, AscentStop::Converged);
        assert!(found.community.contains(NodeId(1)));
        let other = det.detect_from(&g, &[NodeId(6)], &ctx).unwrap();
        let raw: Vec<u32> = other.community.members().iter().map(|v| v.raw()).collect();
        assert_eq!(raw, vec![4, 5, 6, 7]);
    }

    #[test]
    fn bridge_query_is_reanchored_to_its_home_clique() {
        let g = two_cliques();
        let det = fixed_detector();
        // Both bridge endpoints, every seed: the answer must contain the
        // query. (An un-anchored ascent from node 3 can wander across the
        // bridge, converge on the far clique and drop the query — the
        // ball-seeded rerun pulls it back.)
        for seed in 0..16u64 {
            let ctx = DetectContext::new(seed);
            let a = det.detect_from(&g, &[NodeId(3)], &ctx).unwrap();
            assert!(
                a.community.contains(NodeId(3)),
                "seed {seed}: {:?}",
                a.community
            );
            let b = det.detect_from(&g, &[NodeId(4)], &ctx).unwrap();
            assert!(
                b.community.contains(NodeId(4)),
                "seed {seed}: {:?}",
                b.community
            );
        }
    }

    #[test]
    fn fixed_seed_is_deterministic() {
        let g = two_cliques();
        let det = fixed_detector();
        let a = det
            .detect_from(&g, &[NodeId(2)], &DetectContext::new(7))
            .unwrap();
        let b = det
            .detect_from(&g, &[NodeId(2)], &DetectContext::new(7))
            .unwrap();
        assert_eq!(a.community, b.community);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.moves, b.moves);
        // A different seed may draw a different initial neighborhood but
        // the query node is always in the seed set.
        let c = det
            .detect_from(&g, &[NodeId(2)], &DetectContext::new(8))
            .unwrap();
        assert!(c.seeds.contains(&NodeId(2)));
    }

    #[test]
    fn multi_node_queries_union_their_expansions() {
        let g = two_cliques();
        let det = fixed_detector();
        let ctx = DetectContext::new(1);
        let found = det.detect_from(&g, &[NodeId(0), NodeId(3)], &ctx).unwrap();
        assert!(found.seeds.contains(&NodeId(0)));
        assert!(found.seeds.contains(&NodeId(3)));
        let raw: Vec<u32> = found.community.members().iter().map(|v| v.raw()).collect();
        assert_eq!(raw, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_query_set_is_a_typed_error() {
        let g = two_cliques();
        let det = fixed_detector();
        let err = det
            .detect_from(&g, &[], &DetectContext::new(0))
            .unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { .. }));
    }

    #[test]
    fn out_of_bounds_query_is_a_graph_error() {
        let g = two_cliques();
        let det = fixed_detector();
        let err = det
            .detect_from(&g, &[NodeId(99)], &DetectContext::new(0))
            .unwrap_err();
        match err {
            DetectError::Graph(GraphError::NodeOutOfBounds { node, node_count }) => {
                assert_eq!(node, 99);
                assert_eq!(node_count, 8);
            }
            other => panic!("expected NodeOutOfBounds, got {other}"),
        }
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let err = LocalDetector::new(LocalConfig {
            c: CStrategy::Fixed(2.0),
            ..Default::default()
        })
        .unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { .. }));
    }

    #[test]
    fn pre_cancelled_query_returns_partial_with_the_seed_set() {
        let g = two_cliques();
        let det = fixed_detector();
        let token = oca_graph::CancelToken::new();
        token.cancel();
        let ctx = DetectContext::new(3).with_cancel(token);
        let err = det.detect_from(&g, &[NodeId(0)], &ctx).unwrap_err();
        match err {
            DetectError::Cancelled { partial } => {
                assert!(!partial.complete);
                assert_eq!(partial.cover.node_count(), 8);
            }
            other => panic!("expected Cancelled, got {other}"),
        }
    }

    #[test]
    fn detect_with_reuses_a_state_across_queries() {
        let g = two_cliques();
        let det = fixed_detector();
        let ctx = DetectContext::new(5);
        let c = det.resolve_c(&g);
        let mut state = CommunityState::new(&g, c);
        let a = det
            .detect_with(&g, &mut state, c, &[NodeId(0)], &ctx)
            .unwrap();
        let b = det
            .detect_with(&g, &mut state, c, &[NodeId(5)], &ctx)
            .unwrap();
        assert_eq!(a.community.len(), 4);
        assert_eq!(b.community.len(), 4);
        assert_eq!(a.community.intersection_size(&b.community), 0);
        // Fresh-state answers match reused-state answers exactly.
        let fresh = det.detect_from(&g, &[NodeId(0)], &ctx).unwrap();
        assert_eq!(fresh.community, a.community);
    }

    #[test]
    fn trait_entry_point_uses_the_configured_query() {
        let g = two_cliques();
        let det = LocalDetector::new(LocalConfig {
            c: CStrategy::Fixed(0.9),
            query: Some(NodeId(6)),
            ..Default::default()
        })
        .unwrap();
        let detection = det.detect(&g, &mut DetectContext::new(11)).unwrap();
        assert_eq!(detection.cover.len(), 1);
        assert!(detection.cover.communities()[0].contains(NodeId(6)));
        assert!(detection.complete);
        assert_eq!(detection.iterations, 1);
        let keys: Vec<&str> = detection.stats.iter().map(|(k, _)| *k).collect();
        assert!(keys.contains(&"query") && keys.contains(&"stop"));
    }

    #[test]
    fn trait_entry_point_handles_edge_case_graphs() {
        let det = fixed_detector();
        let empty = CsrGraph::empty(0);
        let d = det.detect(&empty, &mut DetectContext::new(0)).unwrap();
        assert!(d.cover.is_empty() && d.complete);
        let singleton = CsrGraph::empty(1);
        let d = det.detect(&singleton, &mut DetectContext::new(0)).unwrap();
        assert_eq!(d.cover.len(), 1);
        assert_eq!(d.cover.communities()[0].len(), 1);
    }

    #[test]
    fn spectral_c_resolution_matches_interaction_strength() {
        let g = two_cliques();
        let det = LocalDetector::default_detector();
        let c = det.resolve_c(&g);
        assert!(c > 0.0 && c < 1.0);
        let found = det
            .detect_from(&g, &[NodeId(0)], &DetectContext::new(9))
            .unwrap();
        assert!((found.c - c).abs() < 1e-12);
    }
}
