//! The string-keyed detector registry.
//!
//! One [`DetectorSpec`] per algorithm variant: a stable name, a summary,
//! the option keys its constructor accepts, a constructor from
//! [`DetectorOptions`] layered over the library default or over the tuned
//! preset for a graph, and the protocol options the benchmark harness
//! layers over the tuned preset so every algorithm runs under the paper's
//! protocol without per-algorithm dispatch at the call sites.

use crate::options::DetectorOptions;
use oca::{
    CheckpointConfig, HaltingConfig, LocalConfig, LocalDetector, OcaConfig, OcaDetector,
    ResumePolicy, SearchConfig, SeedStrategy,
};
use oca_baselines::{
    CFinderConfig, CFinderDetector, CFinderFaithfulDetector, LfkConfig, LfkDetector, LpaConfig,
    LpaDetector,
};
use oca_graph::{CommunityDetector, CsrGraph, DetectError};

/// A boxed detector constructor result.
pub type BoxedDetector = Box<dyn CommunityDetector>;

/// A detector constructor: `opts` layered over the library default, or
/// over the tuned preset for the graph when one is given.
pub type BuildFn = fn(&DetectorOptions, Option<&CsrGraph>) -> Result<BoxedDetector, DetectError>;

/// Option key/value pairs, as a static list.
pub type OptionList = &'static [(&'static str, &'static str)];

/// One registry entry: how to name, describe and construct a detector.
#[derive(Debug, Clone)]
pub struct DetectorSpec {
    name: &'static str,
    display_name: &'static str,
    summary: &'static str,
    options: OptionList,
    build: BuildFn,
    protocol: OptionList,
}

impl DetectorSpec {
    /// Creates a spec for registering a custom backend.
    ///
    /// `display_name` must match what the constructed detector reports
    /// via [`CommunityDetector::name`] and be unique across the registry.
    /// `options` lists the accepted keys with help text; `build` layers
    /// options over the library default, or over the tuned preset when
    /// given a graph; `protocol` holds the options (keys from `options`)
    /// the paper's evaluation protocol layers over the tuned preset.
    pub fn new(
        name: &'static str,
        display_name: &'static str,
        summary: &'static str,
        options: OptionList,
        build: BuildFn,
        protocol: OptionList,
    ) -> Self {
        DetectorSpec {
            name,
            display_name,
            summary,
            options,
            build,
            protocol,
        }
    }

    /// The registry key (lowercase, stable; e.g. `"cfinder-faithful"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The display name the constructed detector reports (e.g.
    /// `"CFinder-faithful"`); unique across the registry, usable as a
    /// table-row label without constructing anything.
    pub fn display_name(&self) -> &'static str {
        self.display_name
    }

    /// One-line description for listings.
    pub fn summary(&self) -> &'static str {
        self.summary
    }

    /// The option keys the constructor accepts, with help text.
    pub fn options(&self) -> OptionList {
        self.options
    }

    /// The accepted option keys alone.
    pub fn option_keys(&self) -> Vec<&'static str> {
        self.options.iter().map(|(k, _)| *k).collect()
    }

    /// Rejects option keys the constructor does not accept.
    fn check_keys(&self, opts: &DetectorOptions) -> Result<(), DetectError> {
        for key in opts.keys() {
            if !self.options.iter().any(|(k, _)| *k == key) {
                return Err(DetectError::UnknownOption {
                    algorithm: self.name,
                    key: key.to_string(),
                    accepted: self.option_keys(),
                });
            }
        }
        Ok(())
    }

    /// Constructs the detector from parsed options. Unknown keys are
    /// rejected with [`DetectError::UnknownOption`] listing the accepted
    /// set; malformed values surface as [`DetectError::InvalidOption`].
    pub fn build(&self, opts: &DetectorOptions) -> Result<BoxedDetector, DetectError> {
        self.check_keys(opts)?;
        (self.build)(opts, None)
    }

    /// Like [`DetectorSpec::build`], but starts from the tuned preset for
    /// `graph` (for OCA, [`OcaConfig::tuned`] on all host cores, capped at
    /// 8) and lets `opts` override it key by key — the right constructor
    /// for interactive use on a concrete graph.
    pub fn build_tuned(
        &self,
        graph: &CsrGraph,
        opts: &DetectorOptions,
    ) -> Result<BoxedDetector, DetectError> {
        self.check_keys(opts)?;
        (self.build)(opts, Some(graph))
    }

    /// The detector of the paper's evaluation protocol for `graph`: the
    /// tuned preset with this spec's protocol options layered over it.
    ///
    /// # Panics
    /// Panics if the spec's protocol options are rejected, which is a
    /// registration bug.
    pub fn experiment(&self, graph: &CsrGraph) -> BoxedDetector {
        let protocol: DetectorOptions = self.protocol.iter().copied().collect();
        self.build_tuned(graph, &protocol)
            .unwrap_or_else(|e| panic!("{}: protocol options rejected: {e}", self.name))
    }
}

/// The set of registered detectors, keyed by name.
#[derive(Debug, Clone, Default)]
pub struct DetectorRegistry {
    specs: Vec<DetectorSpec>,
}

impl DetectorRegistry {
    /// An empty registry (use [`registry`] for the built-in set).
    pub fn new() -> Self {
        DetectorRegistry::default()
    }

    /// Registers a spec; a spec with the same name is replaced, so
    /// downstream crates can override built-ins.
    pub fn register(&mut self, spec: DetectorSpec) {
        match self.specs.iter_mut().find(|s| s.name == spec.name) {
            Some(existing) => *existing = spec,
            None => self.specs.push(spec),
        }
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name).collect()
    }

    /// Iterates over the registered specs.
    pub fn iter(&self) -> impl Iterator<Item = &DetectorSpec> {
        self.specs.iter()
    }

    /// Number of registered detectors.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Looks a spec up by name; unknown names get a typed error listing
    /// what is registered.
    pub fn get(&self, name: &str) -> Result<&DetectorSpec, DetectError> {
        self.specs
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| DetectError::UnknownAlgorithm {
                name: name.to_string(),
                known: self.names(),
            })
    }

    /// Shorthand for `get(name)?.build(opts)`.
    pub fn build(&self, name: &str, opts: &DetectorOptions) -> Result<BoxedDetector, DetectError> {
        self.get(name)?.build(opts)
    }
}

/// The built-in registry: OCA and every baseline of the paper's Section V
/// (plus LPA), under stable lowercase names.
pub fn registry() -> DetectorRegistry {
    let mut reg = DetectorRegistry::new();
    reg.register(DetectorSpec::new(
        "oca",
        "OCA",
        "the paper's algorithm: greedy fitness ascents from random seeds (Sections II-IV)",
        &[
            (
                "threads",
                "worker threads; never changes the cover, only wall-clock time",
            ),
            (
                "batch",
                "tickets per scheduling round; part of the deterministic schedule",
            ),
            ("max-seeds", "hard cap on seeds tried"),
            ("target-coverage", "stop at this covered-node fraction"),
            ("stagnation", "stop after this many fruitless seeds"),
            (
                "stagnation-streak",
                "stop after this many consecutive rejected (duplicate or \
                 too-small) seeds; ends hub-graph runs that can only rediscover",
            ),
            (
                "seeds-per-covered",
                "seed-efficiency budget: stop once seeds tried exceeds \
                 2 x stagnation + this x covered nodes; 0 disables — caps \
                 hub-graph runs whose coverage saturates",
            ),
            (
                "merge-threshold",
                "merge communities with rho >= this, or 'none'",
            ),
            ("min-size", "discard communities smaller than this"),
            ("orphans", "true = assign every uncovered node afterwards"),
            (
                "fixed-c",
                "bypass the spectral c = -1/lambda_min with a fixed value",
            ),
            (
                "ascent-budget",
                "per-ascent move budget as a multiple of the initial set \
                 size; stops hub ascents from crawling whole cores; 0 \
                 disables (the library default)",
            ),
            (
                "hub-prune-degree",
                "skip already-covered nodes of at least this degree as add \
                 candidates (0 disables); uses the round-start coverage \
                 snapshot, so covers stay identical at any thread count",
            ),
            (
                "checkpoint-path",
                "persist round-boundary driver state to this .ockpt \
                 journal (one synced append per round); a resumed chain \
                 reproduces the uninterrupted cover bit for bit",
            ),
            (
                "checkpoint-resume",
                "'fresh' (ignore any existing checkpoint), 'strict' \
                 (resume; refuse damaged or mismatched files with a typed \
                 error) or 'salvage' (resume; discard bad files and start \
                 over — for unattended restart loops)",
            ),
        ],
        build_oca,
        // One thread, and no merge: the harness's shared postprocessing
        // merges every algorithm's cover alike.
        &[("threads", "1"), ("merge-threshold", "none")],
    ));
    reg.register(DetectorSpec::new(
        "lfk",
        "LFK",
        "local fitness maximization of Lancichinetti, Fortunato & Kertesz (ref [8])",
        &[
            ("alpha", "resolution exponent (the paper uses 1)"),
            ("min-size", "discard natural communities smaller than this"),
        ],
        build_lfk,
        &[("min-size", "2")],
    ));
    reg.register(DetectorSpec::new(
        "cfinder",
        "CFinder",
        "k-clique percolation of Palla et al. (ref [12]) with the k = 3 triangle shortcut",
        CFINDER_OPTIONS,
        build_cfinder,
        &[],
    ));
    reg.register(DetectorSpec::new(
        "cfinder-faithful",
        "CFinder-faithful",
        "CFinder via maximal-clique enumeration, the original tool's cost profile (Figs. 5-6)",
        CFINDER_OPTIONS,
        build_cfinder_faithful,
        &[],
    ));
    reg.register(DetectorSpec::new(
        "oca-local",
        "OCA-local",
        "query-centric variant: one seeded ascent answers 'which community contains v?'",
        &[
            (
                "seed-node",
                "the query node the ascent grows from; unset derives one \
                 from the run seed (conformance harnesses)",
            ),
            (
                "seed-strategy",
                "'singleton', 'neighborhood' (the paper's random inclusion) \
                 or 'ball' (the full 1-hop neighborhood)",
            ),
            (
                "fixed-c",
                "bypass the spectral c = -1/lambda_min with a fixed value",
            ),
            (
                "ascent-budget",
                "per-ascent move budget as a multiple of the initial set \
                 size; 0 disables",
            ),
        ],
        build_oca_local,
        &[],
    ));
    reg.register(DetectorSpec::new(
        "lpa",
        "LPA",
        "label propagation of Raghavan et al., a fast non-overlapping yardstick",
        &[("max-sweeps", "maximum sweeps over all nodes")],
        build_lpa,
        &[],
    ));
    reg
}

const CFINDER_OPTIONS: &[(&str, &str)] = &[
    ("k", "clique size (the paper uses 3)"),
    ("max-cliques", "cap on enumerated cliques, or 'none'"),
];

fn build_oca(
    opts: &DetectorOptions,
    graph: Option<&CsrGraph>,
) -> Result<BoxedDetector, DetectError> {
    // The tuned preset runs on the host's cores: the ticket-ordered driver
    // writes the same cover at any thread count, so this only buys time.
    let defaults = match graph {
        Some(graph) => OcaConfig {
            threads: oca_graph::default_workers(),
            ..OcaConfig::tuned(graph)
        },
        None => OcaConfig::default(),
    };
    let merge_threshold = match opts.get("merge-threshold") {
        None => defaults.merge_threshold,
        Some("none") => None,
        Some(_) => Some(opts.get_or("merge-threshold", 0.5)?),
    };
    let mut config = OcaConfig {
        threads: opts.get_or("threads", defaults.threads)?,
        batch: opts.get_or("batch", defaults.batch)?,
        halting: HaltingConfig {
            max_seeds: opts.get_or("max-seeds", defaults.halting.max_seeds)?,
            target_coverage: opts.get_or("target-coverage", defaults.halting.target_coverage)?,
            stagnation_limit: opts.get_or("stagnation", defaults.halting.stagnation_limit)?,
            stagnation_streak: opts
                .get_or("stagnation-streak", defaults.halting.stagnation_streak)?,
            seeds_per_covered: opts
                .get_or("seeds-per-covered", defaults.halting.seeds_per_covered)?,
        },
        merge_threshold,
        min_community_size: opts.get_or("min-size", defaults.min_community_size)?,
        assign_orphans: opts.get_or("orphans", defaults.assign_orphans)?,
        search: SearchConfig {
            budget_factor: opts.get_or("ascent-budget", defaults.search.budget_factor)?,
            prune_hub_degree: opts.get_or("hub-prune-degree", defaults.search.prune_hub_degree)?,
            ..defaults.search
        },
        ..defaults
    };
    if let Some(c) = opts.get_parsed::<f64>("fixed-c")? {
        config.c = oca::CStrategy::Fixed(c);
    }
    if let Some(path) = opts.get("checkpoint-path") {
        let resume = match opts.get("checkpoint-resume") {
            None | Some("fresh") => ResumePolicy::Fresh,
            Some("strict") => ResumePolicy::Strict,
            Some("salvage") => ResumePolicy::Salvage,
            Some(other) => {
                return Err(DetectError::InvalidOption {
                    key: "checkpoint-resume".to_string(),
                    value: other.to_string(),
                    message: "expected 'fresh', 'strict' or 'salvage'".to_string(),
                })
            }
        };
        config.checkpoint = Some(CheckpointConfig {
            resume,
            ..CheckpointConfig::at(path)
        });
    } else if opts.get("checkpoint-resume").is_some() {
        return Err(DetectError::InvalidOption {
            key: "checkpoint-path".to_string(),
            value: String::new(),
            message: "checkpoint-resume needs checkpoint-path".to_string(),
        });
    }
    Ok(Box::new(OcaDetector::new(config)?))
}

fn build_oca_local(
    opts: &DetectorOptions,
    graph: Option<&CsrGraph>,
) -> Result<BoxedDetector, DetectError> {
    let defaults = match graph {
        Some(_) => LocalConfig::tuned(),
        None => LocalConfig::default(),
    };
    let mut config = LocalConfig {
        query: opts.get_parsed::<u32>("seed-node")?.map(oca_graph::NodeId),
        seed_strategy: match opts.get("seed-strategy") {
            None => defaults.seed_strategy,
            Some("singleton") => SeedStrategy::Singleton,
            Some("neighborhood") => SeedStrategy::default(),
            Some("ball") => SeedStrategy::Ball { radius: 1 },
            Some(other) => {
                return Err(DetectError::InvalidOption {
                    key: "seed-strategy".to_string(),
                    value: other.to_string(),
                    message: "expected 'singleton', 'neighborhood' or 'ball'".to_string(),
                })
            }
        },
        search: SearchConfig {
            budget_factor: opts.get_or("ascent-budget", defaults.search.budget_factor)?,
            ..defaults.search
        },
        ..defaults
    };
    if let Some(c) = opts.get_parsed::<f64>("fixed-c")? {
        config.c = oca::CStrategy::Fixed(c);
    }
    Ok(Box::new(LocalDetector::new(config)?))
}

fn build_lfk(opts: &DetectorOptions, _: Option<&CsrGraph>) -> Result<BoxedDetector, DetectError> {
    let defaults = LfkConfig::default();
    let config = LfkConfig {
        alpha: opts.get_or("alpha", defaults.alpha)?,
        min_community_size: opts.get_or("min-size", defaults.min_community_size)?,
        ..defaults
    };
    Ok(Box::new(LfkDetector::new(config)?))
}

fn cfinder_config(opts: &DetectorOptions) -> Result<CFinderConfig, DetectError> {
    let defaults = CFinderConfig::default();
    let max_cliques = match opts.get("max-cliques") {
        None => defaults.max_cliques,
        Some("none") => None,
        Some(_) => Some(opts.get_or("max-cliques", 2_000_000)?),
    };
    Ok(CFinderConfig {
        k: opts.get_or("k", defaults.k)?,
        max_cliques,
        ..defaults
    })
}

fn build_cfinder(
    opts: &DetectorOptions,
    _: Option<&CsrGraph>,
) -> Result<BoxedDetector, DetectError> {
    Ok(Box::new(CFinderDetector::new(cfinder_config(opts)?)?))
}

fn build_cfinder_faithful(
    opts: &DetectorOptions,
    _: Option<&CsrGraph>,
) -> Result<BoxedDetector, DetectError> {
    Ok(Box::new(CFinderFaithfulDetector::new(cfinder_config(
        opts,
    )?)?))
}

fn build_lpa(opts: &DetectorOptions, _: Option<&CsrGraph>) -> Result<BoxedDetector, DetectError> {
    let defaults = LpaConfig::default();
    let config = LpaConfig {
        max_sweeps: opts.get_or("max-sweeps", defaults.max_sweeps)?,
        ..defaults
    };
    Ok(Box::new(LpaDetector::new(config)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::{from_edges, DetectContext};

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
    fn builtin_registry_has_all_six_variants() {
        let reg = registry();
        assert_eq!(
            reg.names(),
            vec![
                "oca",
                "lfk",
                "cfinder",
                "cfinder-faithful",
                "oca-local",
                "lpa"
            ]
        );
        assert_eq!(reg.len(), 6);
        assert!(!reg.is_empty());
    }

    #[test]
    fn oca_local_options_flow_into_the_config() {
        let g = toy();
        let reg = registry();
        // A pinned query answers with the community containing it.
        let det = reg
            .build(
                "oca-local",
                &DetectorOptions::new()
                    .with("seed-node", "7")
                    .with("fixed-c", "0.9")
                    .with("seed-strategy", "ball"),
            )
            .unwrap();
        assert_eq!(det.name(), "OCA-local");
        let d = det.detect(&g, &mut DetectContext::new(11)).unwrap();
        assert_eq!(d.cover.len(), 1);
        assert!(d.cover.communities()[0].contains(oca_graph::NodeId(7)));
        // A bad strategy value is a typed option error.
        assert!(matches!(
            reg.build(
                "oca-local",
                &DetectorOptions::new().with("seed-strategy", "global")
            ),
            Err(DetectError::InvalidOption { .. })
        ));
        // An out-of-range fixed c is a typed config error.
        assert!(matches!(
            reg.build("oca-local", &DetectorOptions::new().with("fixed-c", "1.5")),
            Err(DetectError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn display_names_are_unique_and_match_the_detectors() {
        let g = toy();
        let reg = registry();
        let mut names: Vec<&str> = Vec::new();
        for spec in reg.iter() {
            assert_eq!(
                spec.experiment(&g).name(),
                spec.display_name(),
                "{}: spec display name out of sync with the detector",
                spec.name()
            );
            names.push(spec.display_name());
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "ambiguous display names");
    }

    #[test]
    fn build_tuned_scales_oca_to_the_graph_and_honours_overrides() {
        let g = toy();
        let spec = registry();
        let spec = spec.get("oca").unwrap();
        // Tuned defaults alone build fine and run deterministically.
        let det = spec.build_tuned(&g, &DetectorOptions::new()).unwrap();
        assert!(!det
            .detect(&g, &mut DetectContext::new(2))
            .unwrap()
            .cover
            .is_empty());
        // User options still override the tuned defaults and are validated.
        assert!(spec
            .build_tuned(&g, &DetectorOptions::new().with("max-seeds", "1"))
            .is_ok());
        assert!(matches!(
            spec.build_tuned(&g, &DetectorOptions::new().with("max-seed", "1")),
            Err(DetectError::UnknownOption { .. })
        ));
    }

    #[test]
    fn every_entry_builds_and_detects_with_defaults() {
        let g = toy();
        let reg = registry();
        for spec in reg.iter() {
            let det = spec.build(&DetectorOptions::new()).unwrap();
            let d = det.detect(&g, &mut DetectContext::new(3)).unwrap();
            assert!(!d.cover.is_empty(), "{} found nothing", spec.name());
        }
    }

    #[test]
    fn unknown_algorithm_lists_known_names() {
        let err = registry().get("nope").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("nope") && msg.contains("cfinder-faithful"));
    }

    #[test]
    fn unknown_option_lists_accepted_keys() {
        let err = registry()
            .build("lpa", &DetectorOptions::new().with("thread", "4"))
            .unwrap_err();
        match &err {
            DetectError::UnknownOption { key, accepted, .. } => {
                assert_eq!(key, "thread");
                assert_eq!(accepted, &vec!["max-sweeps"]);
            }
            other => panic!("expected UnknownOption, got {other}"),
        }
    }

    /// The ascent has one move rule, so its old selector and tuning knobs
    /// are no longer options, and neither is the detect-time relabeling
    /// pass (`oca graph build` degree-orders the graph once): each is
    /// rejected as an unknown key, and the accepted-key list no longer
    /// names any of them.
    #[test]
    fn removed_ascent_options_are_unknown() {
        let reg = registry();
        let cases = [
            ("oca", "move-rule", "greedy", 15),
            ("oca", "plateau-moves", "8", 15),
            ("oca", "tabu-tenure", "4", 15),
            ("oca", "relabel", "true", 15),
            ("oca-local", "move-rule", "greedy", 4),
        ];
        for (algorithm, removed, value, count) in cases {
            match reg
                .build(algorithm, &DetectorOptions::new().with(removed, value))
                .unwrap_err()
            {
                DetectError::UnknownOption { key, accepted, .. } => {
                    assert_eq!(key, removed);
                    assert_eq!(accepted.len(), count, "{algorithm}: {accepted:?}");
                    for gone in ["move-rule", "plateau-moves", "tabu-tenure", "relabel"] {
                        assert!(!accepted.contains(&gone), "{algorithm} still lists {gone}");
                    }
                }
                other => panic!("{algorithm} {removed}: expected UnknownOption, got {other}"),
            }
        }
    }

    #[test]
    fn options_flow_into_the_config() {
        let g = toy();
        let det = registry()
            .build("cfinder", &DetectorOptions::new().with("k", "2"))
            .unwrap();
        let d = det.detect(&g, &mut DetectContext::new(0)).unwrap();
        // k = 2 percolation = connected components: the toy graph has one.
        assert_eq!(d.cover.len(), 1);
    }

    #[test]
    fn oca_thread_option_never_changes_the_cover() {
        let g = toy();
        let reg = registry();
        let opts = |threads: &str| {
            DetectorOptions::new()
                .with("batch", "16")
                .with("threads", threads)
        };
        let a = reg
            .build("oca", &opts("1"))
            .unwrap()
            .detect(&g, &mut DetectContext::new(5))
            .unwrap();
        let b = reg
            .build("oca", &opts("4"))
            .unwrap()
            .detect(&g, &mut DetectContext::new(5))
            .unwrap();
        assert_eq!(a.cover, b.cover);
        assert_eq!(a.iterations, b.iterations);
        // `batch` is part of the schedule, so zero is a typed config error.
        assert!(matches!(
            reg.build("oca", &DetectorOptions::new().with("batch", "0")),
            Err(DetectError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn malformed_and_invalid_option_values_are_typed() {
        let reg = registry();
        assert!(matches!(
            reg.build("oca", &DetectorOptions::new().with("threads", "many")),
            Err(DetectError::InvalidOption { .. })
        ));
        assert!(matches!(
            reg.build("oca", &DetectorOptions::new().with("fixed-c", "1.5")),
            Err(DetectError::InvalidConfig { .. })
        ));
        assert!(matches!(
            reg.build("cfinder", &DetectorOptions::new().with("k", "1")),
            Err(DetectError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn hub_search_options_flow_into_the_config_and_are_validated() {
        let reg = registry();
        // Both hub options build and detect.
        let det = reg
            .build(
                "oca",
                &DetectorOptions::new()
                    .with("ascent-budget", "8")
                    .with("hub-prune-degree", "32")
                    .with("max-seeds", "50"),
            )
            .unwrap();
        let g = toy();
        assert!(!det
            .detect(&g, &mut DetectContext::new(2))
            .unwrap()
            .cover
            .is_empty());
        // A malformed budget is typed; a negative one is a config error.
        assert!(matches!(
            reg.build("oca", &DetectorOptions::new().with("ascent-budget", "lots")),
            Err(DetectError::InvalidOption { .. })
        ));
        assert!(matches!(
            reg.build("oca", &DetectorOptions::new().with("ascent-budget", "-2")),
            Err(DetectError::InvalidConfig { .. })
        ));
    }

    /// A protocol key the spec does not accept would only surface as a
    /// panic inside a figure bench.
    #[test]
    fn protocol_keys_are_accepted_options() {
        for spec in registry().iter() {
            let keys = spec.option_keys();
            for (key, _) in spec.protocol {
                assert!(keys.contains(key), "{}: protocol key {key}", spec.name());
            }
        }
    }

    #[test]
    fn checkpoint_options_flow_into_the_config_and_are_validated() {
        let g = toy();
        let reg = registry();
        let dir = std::env::temp_dir().join(format!("oca_reg_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reg.ockpt");
        let det = reg
            .build(
                "oca",
                &DetectorOptions::new()
                    .with("checkpoint-path", path.to_str().unwrap())
                    .with("checkpoint-resume", "salvage")
                    .with("max-seeds", "50"),
            )
            .unwrap();
        // A checkpointed detection matches a plain one and reports the
        // ckpt_* telemetry namespace.
        let plain = reg
            .build("oca", &DetectorOptions::new().with("max-seeds", "50"))
            .unwrap()
            .detect(&g, &mut DetectContext::new(5))
            .unwrap();
        let d = det.detect(&g, &mut DetectContext::new(5)).unwrap();
        assert_eq!(d.cover, plain.cover);
        assert!(d.stats.iter().any(|(k, _)| *k == "ckpt_rounds"));
        assert!(!plain.stats.iter().any(|(k, _)| *k == "ckpt_rounds"));
        // Bad policy values and orphaned sub-options are typed errors.
        assert!(matches!(
            reg.build(
                "oca",
                &DetectorOptions::new()
                    .with("checkpoint-path", "x.ockpt")
                    .with("checkpoint-resume", "hope"),
            ),
            Err(DetectError::InvalidOption { .. })
        ));
        assert!(matches!(
            reg.build(
                "oca",
                &DetectorOptions::new().with("checkpoint-resume", "strict"),
            ),
            Err(DetectError::InvalidOption { .. })
        ));
        // The write cadence is no longer an option: the driver writes at
        // every round start.
        let cadence = "checkpoint-every-rounds";
        for opts in [
            DetectorOptions::new().with(cadence, "2"),
            DetectorOptions::new()
                .with("checkpoint-path", path.to_str().unwrap())
                .with(cadence, "2"),
        ] {
            assert!(matches!(
                reg.build("oca", &opts),
                Err(DetectError::UnknownOption { .. })
            ));
        }
    }

    #[test]
    fn merge_threshold_none_is_accepted() {
        let det = registry()
            .build(
                "oca",
                &DetectorOptions::new()
                    .with("merge-threshold", "none")
                    .with("max-seeds", "50"),
            )
            .unwrap();
        assert_eq!(det.name(), "OCA");
    }

    #[test]
    fn registration_replaces_same_name() {
        let mut reg = registry();
        let before = reg.len();
        reg.register(DetectorSpec::new(
            "lpa",
            "LPA",
            "override",
            &[],
            build_lpa,
            &[],
        ));
        assert_eq!(reg.len(), before);
        assert_eq!(reg.get("lpa").unwrap().summary(), "override");
    }
}
