//! Configuration of a full OCA run.

use crate::checkpoint::CheckpointConfig;
use crate::halting::HaltingConfig;
use crate::search::{SearchConfig, TUNED_BUDGET_FACTOR};
use crate::seed::SeedStrategy;
use oca_graph::{CsrGraph, DetectError};
use oca_spectral::PowerConfig;

/// Where the interaction strength `c` comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CStrategy {
    /// The paper's choice, `c = −1/λ_min`, with `λ_min` from a Lanczos
    /// solve (the paper uses the power method).
    Spectral(PowerConfig),
    /// A fixed value in `(0, 1)`; used by the ablation benches.
    Fixed(f64),
}

impl Default for CStrategy {
    fn default() -> Self {
        CStrategy::Spectral(PowerConfig::default())
    }
}

/// Full configuration of an OCA run.
#[derive(Debug, Clone, PartialEq)]
pub struct OcaConfig {
    /// Interaction-strength source.
    pub c: CStrategy,
    /// Initial-set construction per seed.
    pub seed_strategy: SeedStrategy,
    /// Greedy-ascent tunables.
    pub search: SearchConfig,
    /// Halting criteria for the seed loop.
    pub halting: HaltingConfig,
    /// Merge communities with similarity ≥ threshold (Section IV
    /// postprocessing); `None` disables merging.
    pub merge_threshold: Option<f64>,
    /// Force every node into a community afterwards (Section IV's orphan
    /// rule). Off by default — the paper keeps "just the most relevant
    /// nodes" unless an application needs a full cover.
    pub assign_orphans: bool,
    /// Discard local maxima smaller than this (noise communities).
    pub min_community_size: usize,
    /// Master RNG seed. Runs are fully deterministic: for a fixed seed
    /// (and fixed [`OcaConfig::batch`]) the cover is identical at any
    /// [`OcaConfig::threads`] count.
    pub rng_seed: u64,
    /// Worker threads, for the ascents and for the spectral solve's
    /// mat-vecs. Never affects the output, only wall-clock time.
    pub threads: usize,
    /// Tickets (seeded ascents) per scheduling round. All seeds of a round
    /// are drawn against the same coverage snapshot, so `batch` is part of
    /// the deterministic schedule: changing it changes the cover, changing
    /// `threads` does not. Larger rounds synchronize less often but may
    /// discard up to `batch − 1` ascents past the halting cutoff.
    pub batch: usize,
    /// Crash-safe progress: periodically persist the driver's round-start
    /// state to a `.ockpt` file and (per the policy) resume from it. Not
    /// part of the deterministic schedule — a checkpointed run, a plain
    /// run, and a crash/resume chain all produce the identical cover.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for OcaConfig {
    fn default() -> Self {
        OcaConfig {
            c: CStrategy::default(),
            seed_strategy: SeedStrategy::default(),
            search: SearchConfig::default(),
            halting: HaltingConfig::default(),
            merge_threshold: Some(0.5),
            assign_orphans: false,
            min_community_size: 3,
            rng_seed: 0x0CA,
            threads: 1,
            batch: 64,
            checkpoint: None,
        }
    }
}

impl OcaConfig {
    /// The tuned preset for `graph`: what `oca detect`, the bench harness
    /// and `hot_path` run. The paper fixes only `c` and the seeding rule and
    /// leaves halting out of scope (Section IV), so its values are this
    /// reproduction's choices: halting budgets scaled to the node count
    /// (DESIGN.md §4a) and the hub-aware search, a scaled ascent budget
    /// plus covered-hub pruning (§2a). Every other field, `threads`
    /// included, keeps its [`Default`]; the default is the unbudgeted
    /// reference the tuned cover is scored against.
    pub fn tuned(graph: &CsrGraph) -> Self {
        let n = graph.node_count();
        let avg_degree = 2 * graph.edge_count() / n.max(1);
        OcaConfig {
            halting: HaltingConfig {
                max_seeds: (4 * n).max(100),
                target_coverage: 0.99,
                stagnation_limit: 200,
                stagnation_streak: 500,
                seeds_per_covered: 0.15,
            },
            search: SearchConfig {
                budget_factor: TUNED_BUDGET_FACTOR,
                // On LFR-style graphs the maximum degree sits below this,
                // so pruning never fires; on scale-free graphs it singles
                // out the mega-hubs whose re-exploration dominates.
                prune_hub_degree: (8 * avg_degree).max(64),
                ..SearchConfig::default()
            },
            ..OcaConfig::default()
        }
    }

    /// Validates parameter ranges, reporting violations as typed errors
    /// (call before a long run).
    pub fn validate(&self) -> Result<(), DetectError> {
        let invalid = |message: String| DetectError::InvalidConfig {
            algorithm: "OCA",
            message,
        };
        if let CStrategy::Fixed(c) = self.c {
            if !(c > 0.0 && c < 1.0) {
                return Err(invalid(format!("fixed c must lie in (0, 1), got {c}")));
            }
        }
        if let Some(t) = self.merge_threshold {
            if !(0.0..=1.0).contains(&t) {
                return Err(invalid(format!(
                    "merge threshold must lie in [0, 1], got {t}"
                )));
            }
        }
        if self.threads < 1 {
            return Err(invalid("need at least one thread".to_string()));
        }
        if self.batch < 1 {
            return Err(invalid("need at least one ticket per round".to_string()));
        }
        if self.halting.max_seeds < 1 {
            return Err(invalid("need at least one seed".to_string()));
        }
        // A zero window (or a target coverage of zero or NaN) would halt
        // before the first seed, or silently switch the coverage criterion
        // off; a target above 1 stays valid and means "never".
        if self.halting.stagnation_limit < 1 {
            return Err(invalid(
                "stagnation limit must be at least one seed".to_string(),
            ));
        }
        let target = self.halting.target_coverage;
        if target.is_nan() || target <= 0.0 {
            return Err(invalid(format!(
                "target coverage must be a positive number, got {target}"
            )));
        }
        if self.halting.stagnation_streak < 1 {
            return Err(invalid(
                "stagnation streak must be at least one rejected seed".to_string(),
            ));
        }
        if !(self.halting.seeds_per_covered >= 0.0 && self.halting.seeds_per_covered.is_finite()) {
            return Err(invalid(format!(
                "seeds-per-covered budget must be finite and non-negative, got {}",
                self.halting.seeds_per_covered
            )));
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
        if let Some(ckpt) = &self.checkpoint {
            if ckpt.path.as_os_str().is_empty() {
                return Err(invalid("checkpoint path must not be empty".to_string()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        OcaConfig::default().validate().unwrap();
    }

    /// The tuned preset's values, spelled out: a retune shows up here as
    /// a test diff.
    #[test]
    fn tuned_preset_scales_halting_and_hub_search_to_the_graph() {
        use oca_graph::from_edges;
        // Two 5-cliques joined by one edge: average degree 4, so the
        // hub-pruning floor applies.
        let mut edges = Vec::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((4, 5));
        let toy = from_edges(10, edges);
        let cfg = OcaConfig::tuned(&toy);
        cfg.validate().unwrap();
        assert_eq!(
            cfg.halting,
            HaltingConfig {
                max_seeds: 100,
                target_coverage: 0.99,
                stagnation_limit: 200,
                stagnation_streak: 500,
                seeds_per_covered: 0.15,
            }
        );
        assert_eq!(
            cfg.search,
            SearchConfig {
                budget_factor: 64.0,
                prune_hub_degree: 64,
                ..SearchConfig::default()
            }
        );
        // Everything else is the library default, one thread included.
        assert_eq!(
            cfg,
            OcaConfig {
                halting: cfg.halting,
                search: cfg.search,
                ..OcaConfig::default()
            }
        );
        assert_eq!(cfg.threads, 1);
        // A 41-clique has average degree 40, so pruning starts at
        // 8 × 40 = 320; the seed budget scales as 4n.
        let k = 41u32;
        let clique = from_edges(
            k as usize,
            (0..k).flat_map(|i| ((i + 1)..k).map(move |j| (i, j))),
        );
        let dense = OcaConfig::tuned(&clique);
        assert_eq!(dense.search.prune_hub_degree, 320);
        assert_eq!(dense.halting.max_seeds, 164);
        let big = from_edges(1000, (0..999u32).map(|i| (i, i + 1)));
        assert_eq!(OcaConfig::tuned(&big).halting.max_seeds, 4000);
    }

    #[test]
    fn rejects_bad_fixed_c() {
        let cfg = OcaConfig {
            c: CStrategy::Fixed(1.5),
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("fixed c"));
    }

    #[test]
    fn rejects_zero_threads() {
        let cfg = OcaConfig {
            threads: 0,
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("thread"));
    }

    #[test]
    fn rejects_zero_stagnation_streak() {
        let cfg = OcaConfig {
            halting: HaltingConfig {
                stagnation_streak: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("streak"));
    }

    #[test]
    fn rejects_zero_stagnation_limit() {
        let cfg = OcaConfig {
            halting: HaltingConfig {
                stagnation_limit: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("stagnation limit"));
    }

    #[test]
    fn rejects_target_coverage_that_is_not_positive() {
        for target in [0.0, -0.5, f64::NAN] {
            let cfg = OcaConfig {
                halting: HaltingConfig {
                    target_coverage: target,
                    ..Default::default()
                },
                ..Default::default()
            };
            let err = cfg.validate().unwrap_err();
            assert!(err.to_string().contains("target coverage"), "{target}");
        }
        // Above 1 means "never reached": the coverage criterion is off.
        for target in [1.0, 2.0, f64::INFINITY] {
            let cfg = OcaConfig {
                halting: HaltingConfig {
                    target_coverage: target,
                    ..Default::default()
                },
                ..Default::default()
            };
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn rejects_negative_efficiency_budget() {
        let cfg = OcaConfig {
            halting: HaltingConfig {
                seeds_per_covered: -0.5,
                ..Default::default()
            },
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("seeds-per-covered"));
    }

    #[test]
    fn rejects_non_finite_budget_factor() {
        use crate::search::SearchConfig;
        let cfg = OcaConfig {
            search: SearchConfig {
                budget_factor: f64::NAN,
                ..Default::default()
            },
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("budget factor"));
        let cfg = OcaConfig {
            search: SearchConfig {
                budget_factor: -1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        cfg.validate().unwrap_err();
    }

    #[test]
    fn rejects_zero_batch() {
        let cfg = OcaConfig {
            batch: 0,
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("round"));
    }
}
