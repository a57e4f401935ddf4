//! Halting criteria for the multi-seed driver.
//!
//! The paper deliberately leaves the halting criterion out of scope
//! (Section IV) while noting it must be non-trivial because not every node
//! needs a community. We provide a composite criterion: a hard seed budget,
//! a target coverage, and a stagnation window (consecutive seeds that
//! produce nothing new).

/// Composite halting configuration; the run stops when *any* criterion fires.
/// The [`Default`] targets mid-sized graphs with the newer criteria off;
/// the tuned preset ([`crate::OcaConfig::tuned`]) scales the budgets to the
/// graph and enables them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HaltingConfig {
    /// Hard upper bound on the number of seeds to try.
    pub max_seeds: usize,
    /// Stop when this fraction of nodes is covered (1.0 = full cover).
    pub target_coverage: f64,
    /// Stop after this many consecutive seeds that discover nothing new
    /// (duplicate communities or no coverage gain).
    pub stagnation_limit: usize,
    /// Stop after this many consecutive *rejected* seeds (duplicate or
    /// below the minimum community size). Tighter than
    /// [`HaltingConfig::stagnation_limit`] on hub-dominated graphs, where
    /// almost every ascent re-converges to an already-accepted community:
    /// occasional accepts with tiny coverage gains keep resetting the
    /// stagnation window, so the run can burn its whole seed budget on
    /// duplicates the dedup set rejects in O(1) but the ascent still pays
    /// for in full. `usize::MAX` (the default) disables the criterion,
    /// so configs written before it existed behave unchanged; the tuned
    /// preset ([`crate::OcaConfig::tuned`]) enables it.
    pub stagnation_streak: usize,
    /// Seed-efficiency budget: stop once
    /// `seeds_tried ≥ 2 × stagnation_limit + seeds_per_covered × covered`.
    /// `0.0` disables (the default); the tuned preset
    /// ([`crate::OcaConfig::tuned`]) enables it.
    ///
    /// Consecutive-failure windows cannot end a hub-dominated run: on a
    /// scale-free graph, coverage saturates but *trickles* — a novel
    /// community covering one or two peripheral nodes arrives every few
    /// dozen seeds indefinitely, resetting every window while each of
    /// those seeds pays for a full multi-thousand-move ascent into the
    /// core. Healthy runs spend well under 0.05 seeds per covered node;
    /// saturated hub runs burn 25–50× that. This budget caps the spend
    /// proportionally to what the run has actually achieved, with twice
    /// the stagnation window as a warm-up floor so stagnation always gets
    /// a full window before the budget can fire. Because the floor scales
    /// with `stagnation_limit`, disabling stagnation by setting a huge
    /// limit also pushes the budget out of reach — keep the limit at a
    /// real window size when relying on this criterion.
    pub seeds_per_covered: f64,
}

impl Default for HaltingConfig {
    fn default() -> Self {
        HaltingConfig {
            max_seeds: 10_000,
            target_coverage: 0.95,
            stagnation_limit: 50,
            stagnation_streak: usize::MAX,
            seeds_per_covered: 0.0,
        }
    }
}

/// Which halting criterion fired, for telemetry (the scaling bench records
/// it per run; the decision itself is [`HaltingState::should_halt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// The hard seed budget (`max_seeds`) was exhausted.
    SeedBudget,
    /// The target coverage fraction was reached.
    Coverage,
    /// Too many consecutive seeds discovered nothing new.
    Stagnation,
    /// Too many consecutive seeds were rejected outright (duplicates or
    /// below the minimum size).
    DuplicateStreak,
    /// The seed-efficiency budget ran out: the run spent more seeds than
    /// its coverage justifies ([`HaltingConfig::seeds_per_covered`]).
    SeedEfficiency,
}

impl HaltReason {
    /// Stable lowercase label (used in `BENCH_parallel.json`).
    pub fn label(self) -> &'static str {
        match self {
            HaltReason::SeedBudget => "seed-budget",
            HaltReason::Coverage => "coverage",
            HaltReason::Stagnation => "stagnation",
            HaltReason::DuplicateStreak => "duplicate-streak",
            HaltReason::SeedEfficiency => "seed-efficiency",
        }
    }
}

/// Per-run tally of why ascents stopped ([`crate::AscentStop`]), for
/// telemetry: a healthy budgeted run converges most ascents and spends its
/// budget only inside hub cores; a run that budget-stops everything is
/// under-budgeted. Advanced only by the driver's ordered reduction
/// (tickets recorded in ascending ticket order up to the halting cutoff),
/// so the counts — like the cover — are a deterministic function of the
/// run, independent of thread scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AscentStopStats {
    /// Ascents that reached a true local maximum.
    pub converged: usize,
    /// Ascents stopped by the hard move cap with an improving move left.
    pub move_cap: usize,
    /// Ascents stopped by the scaled per-ascent budget.
    pub move_budget: usize,
}

impl AscentStopStats {
    /// Tallies one ascent's stop reason.
    pub fn record(&mut self, stop: crate::AscentStop) {
        match stop {
            crate::AscentStop::Converged => self.converged += 1,
            crate::AscentStop::MoveCap => self.move_cap += 1,
            crate::AscentStop::MoveBudget => self.move_budget += 1,
        }
    }

    /// Ascents cut short by any cap or budget (everything non-converged).
    pub fn limited(&self) -> usize {
        self.move_cap + self.move_budget
    }
}

/// Mutable halting state, updated once per processed seed.
///
/// In the parallel driver this state is only ever advanced by the ordered
/// reduction (tickets recorded in ascending order), so the point where
/// [`HaltingState::should_halt`] first fires — the *cutoff ticket* — is a
/// deterministic function of the run, not of thread scheduling.
#[derive(Debug, Clone)]
pub struct HaltingState {
    config: HaltingConfig,
    node_count: usize,
    seeds_tried: usize,
    covered: usize,
    stagnant: usize,
    rejected_streak: usize,
}

impl HaltingState {
    /// Fresh state for a graph of `node_count` nodes.
    pub fn new(config: HaltingConfig, node_count: usize) -> Self {
        HaltingState {
            config,
            node_count,
            seeds_tried: 0,
            covered: 0,
            stagnant: 0,
            rejected_streak: 0,
        }
    }

    /// Reconstructs a mid-run state from checkpointed counters. The
    /// counters must come from a round boundary of the same schedule
    /// (same config, same graph); the checkpoint layer binds and verifies
    /// that, this constructor just trusts it.
    pub fn restore(
        config: HaltingConfig,
        node_count: usize,
        seeds_tried: usize,
        covered: usize,
        stagnant: usize,
        rejected_streak: usize,
    ) -> Self {
        HaltingState {
            config,
            node_count,
            seeds_tried,
            covered,
            stagnant,
            rejected_streak,
        }
    }

    /// Records the outcome of one seed: how many previously uncovered nodes
    /// its community added, and whether the community was new (i.e.
    /// accepted into the cover rather than rejected as a duplicate or as
    /// too small).
    pub fn record(&mut self, newly_covered: usize, novel: bool) {
        self.seeds_tried += 1;
        self.covered += newly_covered;
        if novel && newly_covered > 0 {
            self.stagnant = 0;
        } else {
            self.stagnant += 1;
        }
        if novel {
            self.rejected_streak = 0;
        } else {
            self.rejected_streak += 1;
        }
    }

    /// Number of seeds processed so far.
    pub fn seeds_tried(&self) -> usize {
        self.seeds_tried
    }

    /// Current covered-node count.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Consecutive seeds without new coverage (the stagnation window).
    pub fn stagnant(&self) -> usize {
        self.stagnant
    }

    /// Consecutive rejected seeds (the duplicate-streak window).
    pub fn rejected_streak(&self) -> usize {
        self.rejected_streak
    }

    /// Current coverage fraction.
    pub fn coverage(&self) -> f64 {
        if self.node_count == 0 {
            1.0
        } else {
            self.covered as f64 / self.node_count as f64
        }
    }

    /// True if any criterion says stop.
    pub fn should_halt(&self) -> bool {
        self.reason().is_some()
    }

    /// The first criterion that currently says stop (budget before
    /// coverage before stagnation before the duplicate streak), or `None`
    /// while the run should go on.
    pub fn reason(&self) -> Option<HaltReason> {
        if self.seeds_tried >= self.config.max_seeds {
            Some(HaltReason::SeedBudget)
        } else if self.coverage() >= self.config.target_coverage {
            Some(HaltReason::Coverage)
        } else if self.stagnant >= self.config.stagnation_limit {
            Some(HaltReason::Stagnation)
        } else if self.rejected_streak >= self.config.stagnation_streak {
            Some(HaltReason::DuplicateStreak)
        } else if self.efficiency_exhausted() {
            Some(HaltReason::SeedEfficiency)
        } else {
            None
        }
    }

    /// True when the seed-efficiency budget is enabled and spent. The
    /// warm-up floor is twice the stagnation window, so stagnation always
    /// gets a full window before the budget can end a run.
    fn efficiency_exhausted(&self) -> bool {
        if self.config.seeds_per_covered <= 0.0 {
            return false;
        }
        let floor = self.config.stagnation_limit.saturating_mul(2) as f64;
        self.seeds_tried as f64 >= floor + self.config.seeds_per_covered * self.covered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_seeds: usize, cov: f64, stag: usize) -> HaltingConfig {
        HaltingConfig {
            max_seeds,
            target_coverage: cov,
            stagnation_limit: stag,
            stagnation_streak: usize::MAX,
            seeds_per_covered: 0.0,
        }
    }

    #[test]
    fn halts_on_seed_budget() {
        let mut st = HaltingState::new(cfg(3, 2.0, 100), 10);
        assert!(!st.should_halt());
        for _ in 0..3 {
            st.record(1, true);
        }
        assert!(st.should_halt());
        assert_eq!(st.seeds_tried(), 3);
    }

    #[test]
    fn halts_on_coverage() {
        let mut st = HaltingState::new(cfg(100, 0.5, 100), 10);
        st.record(4, true);
        assert!(!st.should_halt());
        st.record(1, true);
        assert!(st.should_halt(), "coverage 0.5 reached");
        assert!((st.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn halts_on_stagnation_and_resets_on_progress() {
        let mut st = HaltingState::new(cfg(100, 2.0, 3), 100);
        st.record(0, false);
        st.record(0, true); // novel but adds nothing → still stagnant
        assert!(!st.should_halt());
        st.record(5, true); // progress resets the window
        st.record(0, false);
        st.record(0, false);
        assert!(!st.should_halt());
        st.record(0, false);
        assert!(st.should_halt());
    }

    /// The duplicate streak counts consecutive *rejections* only: a novel
    /// community resets it even when it adds no coverage (which still
    /// advances the stagnation window — the two criteria are independent).
    #[test]
    fn halts_on_duplicate_streak_and_resets_on_any_accept() {
        let mut st = HaltingState::new(
            HaltingConfig {
                stagnation_streak: 3,
                ..cfg(100, 2.0, usize::MAX - 1)
            },
            100,
        );
        st.record(0, false);
        st.record(0, false);
        assert!(!st.should_halt());
        st.record(0, true); // novel, zero coverage: resets the streak
        st.record(0, false);
        st.record(0, false);
        assert!(!st.should_halt());
        st.record(0, false);
        assert_eq!(st.reason(), Some(HaltReason::DuplicateStreak));
        assert_eq!(st.reason().unwrap().label(), "duplicate-streak");
    }

    /// The efficiency budget scales the seed allowance with the coverage
    /// achieved: the hub-graph trickle (a tiny accept every few dozen
    /// seeds, which resets every consecutive-failure window forever) runs
    /// out of budget, while a run that covers nodes proportionally to the
    /// seeds it spends never trips it.
    #[test]
    fn halts_on_the_seed_efficiency_budget() {
        let config = HaltingConfig {
            stagnation_limit: 5,
            stagnation_streak: 5,
            seeds_per_covered: 0.5,
            ..cfg(100_000, 2.0, 5)
        };
        // A trickle: one 1-node novel accept every 4 seeds keeps both
        // consecutive-failure windows permanently reset, but each covered
        // node only buys 0.5 seeds of budget — the spend (1 seed/seed)
        // overtakes the budget growth (0.125/seed) and the run halts.
        let mut st = HaltingState::new(config, 1_000_000);
        st.record(20, true);
        let mut seeds = 1;
        while !st.should_halt() {
            seeds += 1;
            assert!(seeds < 1_000, "budget never fired");
            st.record(usize::from(seeds % 4 == 0), seeds % 4 == 0);
        }
        assert_eq!(st.reason(), Some(HaltReason::SeedEfficiency));
        assert_eq!(st.reason().unwrap().label(), "seed-efficiency");

        // Proportional coverage keeps the budget ahead of the spend.
        let mut st = HaltingState::new(config, 1_000_000);
        for _ in 0..200 {
            st.record(3, true);
            assert!(!st.should_halt());
        }
    }

    #[test]
    fn ascent_stop_stats_tally_each_reason() {
        use crate::AscentStop;
        let mut stats = AscentStopStats::default();
        for stop in [
            AscentStop::Converged,
            AscentStop::Converged,
            AscentStop::MoveCap,
            AscentStop::MoveBudget,
            AscentStop::MoveBudget,
        ] {
            stats.record(stop);
        }
        assert_eq!(stats.converged, 2);
        assert_eq!(stats.move_cap, 1);
        assert_eq!(stats.move_budget, 2);
        assert_eq!(stats.limited(), 3);
    }

    #[test]
    fn empty_graph_is_instantly_covered() {
        let st = HaltingState::new(HaltingConfig::default(), 0);
        assert!(st.should_halt());
        assert_eq!(st.reason(), Some(HaltReason::Coverage));
    }

    #[test]
    fn reasons_name_the_fired_criterion() {
        let mut st = HaltingState::new(cfg(2, 2.0, 100), 10);
        assert_eq!(st.reason(), None);
        st.record(1, true);
        st.record(1, true);
        assert_eq!(st.reason(), Some(HaltReason::SeedBudget));
        assert_eq!(st.reason().unwrap().label(), "seed-budget");

        let mut st = HaltingState::new(cfg(100, 2.0, 2), 10);
        st.record(0, false);
        st.record(0, false);
        assert_eq!(st.reason(), Some(HaltReason::Stagnation));
        assert_eq!(st.reason().unwrap().label(), "stagnation");
        assert_eq!(HaltReason::Coverage.label(), "coverage");
    }
}
