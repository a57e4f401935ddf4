//! Local maximization of the directed-Laplacian fitness (Section IV).
//!
//! From an initial set, repeatedly apply the single add-or-remove move with
//! the greatest fitness increment, as long as it strictly improves fitness
//! (by more than [`MIN_GAIN`]). Fitness increases every move, so
//! termination is guaranteed.
//!
//! The ascent can additionally run under a per-ascent move budget scaled
//! to the seed neighborhood ([`SearchConfig::budget_factor`]), which is
//! what keeps a single hub ascent from dominating a whole run on
//! scale-free graphs (DESIGN.md §2a).

use crate::state::CommunityState;
use oca_graph::{CancelToken, Community, NodeId};

/// Floor of the scaled per-ascent move budget: even a singleton seed may
/// spend this many moves, so tiny seeds can still grow a real community.
pub const MIN_MOVE_BUDGET: usize = 32;

/// The [`SearchConfig::budget_factor`] of the tuned presets
/// ([`crate::OcaConfig::tuned`], [`crate::LocalConfig::tuned`]): large
/// enough that community-structured ascents converge well inside it, small
/// enough that a hub ascent cannot crawl a whole scale-free core.
pub const TUNED_BUDGET_FACTOR: f64 = 64.0;

/// Minimum gain for a move to count as an improvement. A small positive
/// epsilon avoids chasing floating-point noise at the optimum.
pub const MIN_GAIN: f64 = 1e-9;

/// Why an ascent stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AscentStop {
    /// No applicable move improves fitness: a true local maximum.
    Converged,
    /// The hard [`SearchConfig::max_moves`] cap was hit while an
    /// improving move remained.
    MoveCap,
    /// The scaled per-ascent budget ([`SearchConfig::budget_factor`]) was
    /// spent while an improving move remained.
    MoveBudget,
}

impl AscentStop {
    /// Stable lowercase label (used in telemetry and the serve protocol).
    pub fn label(self) -> &'static str {
        match self {
            AscentStop::Converged => "converged",
            AscentStop::MoveCap => "move-cap",
            AscentStop::MoveBudget => "move-budget",
        }
    }
}

/// Tunables of one ascent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Hard cap on moves (safety net; ascent normally stops on its own).
    pub max_moves: usize,
    /// Per-ascent move budget as a multiple of the initial set's size
    /// (which is ~half the seed's closed neighborhood under the default
    /// [`crate::SeedStrategy`]): the ascent may spend
    /// `max(MIN_MOVE_BUDGET, ceil(budget_factor × (|initial| + 1)))`
    /// moves, never more than [`SearchConfig::max_moves`]. `0.0` disables
    /// the budget (the library default, preserving pre-budget behavior);
    /// the tuned preset sets [`TUNED_BUDGET_FACTOR`]. Scaling to the seed
    /// neighborhood means peripheral seeds stop crawling hub cores while
    /// dense seeds keep room to grow.
    pub budget_factor: f64,
    /// Skip already-covered nodes of at least this degree when enumerating
    /// add candidates (`0` disables). The driver feeds the round-start
    /// coverage snapshot to [`CommunityState::set_prune_snapshot`], so hub
    /// ascents stop re-exploring mega-neighborhoods that earlier accepted
    /// communities already cover — and because every ticket of a round
    /// sees the same snapshot, covers stay bit-identical across thread
    /// counts.
    pub prune_hub_degree: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_moves: 100_000,
            budget_factor: 0.0,
            prune_hub_degree: 0,
        }
    }
}

impl SearchConfig {
    /// The effective per-ascent move cap for an initial set of
    /// `initial_len` nodes, and whether the scaled budget (rather than the
    /// hard [`SearchConfig::max_moves`] cap) is what bounds it.
    pub fn move_cap(&self, initial_len: usize) -> (usize, bool) {
        if self.budget_factor > 0.0 {
            let scaled = (self.budget_factor * (initial_len as f64 + 1.0)).ceil() as usize;
            let budget = scaled.max(MIN_MOVE_BUDGET);
            if budget < self.max_moves {
                return (budget, true);
            }
        }
        (self.max_moves, false)
    }
}

/// Outcome of a local search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The community at the local maximum.
    pub community: Community,
    /// Its fitness `L`.
    pub fitness: f64,
    /// Number of applied moves.
    pub moves: usize,
    /// Whether the ascent reached a true local maximum (vs. a budget).
    pub converged: bool,
    /// Why the ascent stopped.
    pub stop: AscentStop,
}

/// One candidate move, as `(gain, node, is_addition)`.
///
/// Exploits the monotonicity of the gain in the internal degree (see
/// [`CommunityState::best_addition`]): only two fitness evaluations are
/// needed per move, one for the densest boundary node and one for the
/// loosest member.
fn best_move(state: &mut CommunityState<'_>) -> Option<(f64, NodeId, bool)> {
    let mut best: Option<(f64, NodeId, bool)> = None;
    if let Some(v) = state.best_addition() {
        best = Some((state.gain_add(v), v, true));
    }
    if let Some(v) = state.best_removal() {
        let g = state.gain_remove(v);
        if best.is_none_or(|(bg, _, _)| g > bg) {
            best = Some((g, v, false));
        }
    }
    best
}

/// Outcome of an in-place ascent: everything [`SearchOutcome`] carries
/// except the materialized community, which stays in the state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AscentOutcome {
    /// Fitness `L` at the local maximum.
    pub fitness: f64,
    /// Number of applied moves.
    pub moves: usize,
    /// Whether the ascent reached a true local maximum (vs. a budget).
    pub converged: bool,
    /// Why the ascent stopped.
    pub stop: AscentStop,
}

/// Runs the ascent from `initial` on a (reset) state, leaving the final
/// set *in the state* without building a member vector. The driver uses
/// this so rejected ascents — duplicates, too-small sets — never pay for
/// cloning and sorting their members: it checks [`CommunityState::len`]
/// and [`CommunityState::fingerprint`] first and calls
/// [`CommunityState::to_community`] only for candidates that can still be
/// accepted.
pub fn ascend(
    state: &mut CommunityState<'_>,
    initial: &[NodeId],
    config: &SearchConfig,
) -> AscentOutcome {
    ascend_cancellable(state, initial, config, None).0
}

/// How many moves pass between cancellation polls inside an ascent. A
/// relaxed atomic load is cheap but not free; polling every 32 moves keeps
/// the overhead unmeasurable while bounding the cancellation latency of
/// even a hub-sized ascent to microseconds.
const CANCEL_POLL_MASK: usize = 31;

/// Like [`ascend`], but polls `cancel` every few moves and stops early
/// when it fires. Returns the outcome plus whether the ascent was
/// interrupted: an interrupted ascent reports `converged: false` and the
/// cap-style stop of its configuration (the ascent was externally bounded
/// while improving moves may have remained), and the state holds the
/// partial set.
///
/// With `cancel: None` this is exactly [`ascend`]: the poll never fires
/// and the move sequence is bit-identical.
///
/// Convergence is reported from the actual stopping condition — no
/// improving move exists — so an ascent that naturally converges on
/// exactly its last allowed move counts as converged, and a cap stop
/// always means an improving move was forgone.
pub fn ascend_cancellable(
    state: &mut CommunityState<'_>,
    initial: &[NodeId],
    config: &SearchConfig,
    cancel: Option<&CancelToken>,
) -> (AscentOutcome, bool) {
    state.reset();
    for &v in initial {
        if !state.contains(v) {
            state.add(v);
        }
    }
    let (cap, budgeted) = config.move_cap(initial.len());
    let over_cap = if budgeted {
        AscentStop::MoveBudget
    } else {
        AscentStop::MoveCap
    };
    let mut moves = 0usize;
    let mut interrupted = false;
    let stop = loop {
        match best_move(state) {
            Some((gain, v, is_add)) if gain > MIN_GAIN => {
                if moves >= cap {
                    break over_cap;
                }
                if cancel.is_some_and(|t| moves & CANCEL_POLL_MASK == 0 && t.is_cancelled()) {
                    interrupted = true;
                    break over_cap;
                }
                if is_add {
                    state.add(v);
                } else {
                    state.remove(v);
                }
                moves += 1;
            }
            _ => break AscentStop::Converged,
        }
    };
    (
        AscentOutcome {
            fitness: state.fitness(),
            moves,
            converged: stop == AscentStop::Converged,
            stop,
        },
        interrupted,
    )
}

/// Runs the ascent from `initial` on a (reset) state. The state is left
/// holding the final set, so callers can inspect it before reusing.
pub fn local_search(
    state: &mut CommunityState<'_>,
    initial: &[NodeId],
    config: &SearchConfig,
) -> SearchOutcome {
    let outcome = ascend(state, initial, config);
    SearchOutcome {
        community: state.to_community(),
        fitness: outcome.fitness,
        moves: outcome.moves,
        converged: outcome.converged,
        stop: outcome.stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::{from_edges, CsrGraph};

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

    #[test]
    fn recovers_clique_from_one_member() {
        let g = two_cliques();
        let mut st = CommunityState::new(&g, 0.9);
        let out = local_search(&mut st, &[NodeId(0)], &SearchConfig::default());
        assert!(out.converged);
        assert_eq!(out.stop, AscentStop::Converged);
        let raw: Vec<u32> = out.community.members().iter().map(|v| v.raw()).collect();
        assert_eq!(raw, vec![0, 1, 2, 3], "should grow to the full clique");
    }

    #[test]
    fn recovers_clique_from_other_side_seed() {
        let g = two_cliques();
        let mut st = CommunityState::new(&g, 0.9);
        let out = local_search(&mut st, &[NodeId(5)], &SearchConfig::default());
        let raw: Vec<u32> = out.community.members().iter().map(|v| v.raw()).collect();
        assert_eq!(raw, vec![4, 5, 6, 7]);
    }

    #[test]
    fn prunes_bad_initial_members() {
        // Start with one clique plus a node from the other: the intruder
        // should be removed (or absorbed into a full merge, but with a
        // single bridge edge the split is the optimum).
        let g = two_cliques();
        let mut st = CommunityState::new(&g, 0.9);
        let out = local_search(
            &mut st,
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(6)],
            &SearchConfig::default(),
        );
        let raw: Vec<u32> = out.community.members().iter().map(|v| v.raw()).collect();
        assert_eq!(raw, vec![0, 1, 2, 3], "intruder 6 should be dropped");
    }

    #[test]
    fn fitness_never_decreases() {
        let g = two_cliques();
        let mut st = CommunityState::new(&g, 0.9);
        st.reset();
        st.add(NodeId(0));
        let mut last = st.fitness();
        // Manually replay the ascent, checking monotonicity.
        loop {
            match super::best_move(&mut st) {
                Some((gain, v, is_add)) if gain > MIN_GAIN => {
                    if is_add {
                        st.add(v)
                    } else {
                        st.remove(v)
                    }
                    let f = st.fitness();
                    assert!(f > last, "fitness decreased: {f} < {last}");
                    last = f;
                }
                _ => break,
            }
        }
    }

    #[test]
    fn move_cap_is_respected() {
        let g = two_cliques();
        let mut st = CommunityState::new(&g, 0.9);
        let cfg = SearchConfig {
            max_moves: 1,
            ..Default::default()
        };
        let out = local_search(&mut st, &[NodeId(0)], &cfg);
        assert_eq!(out.moves, 1);
        assert!(!out.converged);
        assert_eq!(out.stop, AscentStop::MoveCap);
    }

    /// Regression for the old `converged: moves < max_moves` formula: an
    /// ascent whose last improving move lands exactly on the cap *has*
    /// converged — the stopping condition (no further improving move) is
    /// what decides, not whether the cap was reached.
    #[test]
    fn converging_on_exactly_the_last_allowed_move_counts_as_converged() {
        let g = two_cliques();
        let mut st = CommunityState::new(&g, 0.9);
        let free = local_search(&mut st, &[NodeId(0)], &SearchConfig::default());
        assert!(free.converged);
        let cfg = SearchConfig {
            max_moves: free.moves,
            ..Default::default()
        };
        let capped = local_search(&mut st, &[NodeId(0)], &cfg);
        assert_eq!(capped.moves, free.moves);
        assert!(
            capped.converged,
            "natural convergence on the last allowed move misreported as a cap stop"
        );
        assert_eq!(capped.stop, AscentStop::Converged);
        assert_eq!(capped.community, free.community);
    }

    #[test]
    fn scaled_budget_stops_long_ascents_and_reports_it() {
        // A 40-clique: a singleton seed needs 39 improving moves, but the
        // scaled budget (floor 32) allows only 32.
        let k = 40u32;
        let mut edges = Vec::new();
        for i in 0..k {
            for j in (i + 1)..k {
                edges.push((i, j));
            }
        }
        let g = from_edges(k as usize, edges);
        let mut st = CommunityState::new(&g, 0.9);
        let cfg = SearchConfig {
            budget_factor: 1.0,
            ..Default::default()
        };
        let out = local_search(&mut st, &[NodeId(0)], &cfg);
        assert_eq!(out.moves, MIN_MOVE_BUDGET);
        assert_eq!(out.stop, AscentStop::MoveBudget);
        assert!(!out.converged);
        assert_eq!(out.community.len(), MIN_MOVE_BUDGET + 1);
        // Without the budget the same seed converges to the full clique.
        let free = local_search(&mut st, &[NodeId(0)], &SearchConfig::default());
        assert_eq!(free.community.len(), k as usize);
    }

    #[test]
    fn budget_scales_with_the_initial_set() {
        let cfg = SearchConfig {
            budget_factor: 8.0,
            ..Default::default()
        };
        assert_eq!(cfg.move_cap(0), (MIN_MOVE_BUDGET, true), "floor applies");
        assert_eq!(cfg.move_cap(9), (80, true));
        let off = SearchConfig::default();
        assert_eq!(off.move_cap(9), (off.max_moves, false));
        // A huge scaled budget degrades to the hard cap.
        let wide = SearchConfig {
            budget_factor: 1e9,
            ..Default::default()
        };
        assert_eq!(wide.move_cap(9), (wide.max_moves, false));
    }

    #[test]
    fn isolated_node_stays_singleton() {
        let g = from_edges(3, [(0, 1)]);
        let mut st = CommunityState::new(&g, 0.9);
        let out = local_search(&mut st, &[NodeId(2)], &SearchConfig::default());
        assert_eq!(out.community.len(), 1);
        assert_eq!(out.fitness, 1.0);
    }

    #[test]
    fn duplicate_initial_members_are_deduped() {
        let g = two_cliques();
        let mut st = CommunityState::new(&g, 0.9);
        let out = local_search(
            &mut st,
            &[NodeId(0), NodeId(0), NodeId(1)],
            &SearchConfig::default(),
        );
        let raw: Vec<u32> = out.community.members().iter().map(|v| v.raw()).collect();
        assert_eq!(raw, vec![0, 1, 2, 3]);
    }

    /// A pre-cancelled token stops the ascent before any move, and the
    /// outcome reports an interruption rather than convergence.
    #[test]
    fn pre_cancelled_token_interrupts_before_any_move() {
        let g = two_cliques();
        let mut st = CommunityState::new(&g, 0.9);
        let token = CancelToken::new();
        token.cancel();
        let (out, interrupted) = ascend_cancellable(
            &mut st,
            &[NodeId(0)],
            &SearchConfig::default(),
            Some(&token),
        );
        assert!(interrupted, "cancellation not observed");
        assert!(!out.converged);
        assert_eq!(out.moves, 0);
        assert_eq!(st.len(), 1, "partial set should be the seed");
    }

    /// Without a token (or with an unfired one) the cancellable entry point
    /// is bit-identical to the plain ascent.
    #[test]
    fn unfired_token_matches_plain_ascend() {
        let g = two_cliques();
        let mut st = CommunityState::new(&g, 0.9);
        let cfg = SearchConfig::default();
        let plain = local_search(&mut st, &[NodeId(0)], &cfg);
        let token = CancelToken::new();
        let (out, interrupted) = ascend_cancellable(&mut st, &[NodeId(0)], &cfg, Some(&token));
        assert!(!interrupted);
        assert_eq!(out.moves, plain.moves);
        assert_eq!(out.fitness, plain.fitness);
        assert_eq!(st.to_community(), plain.community);
    }
}
