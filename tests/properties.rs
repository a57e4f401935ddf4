//! Property-based tests (proptest) on the core data-structure and
//! algorithm invariants.

use oca::state::set_fingerprint;
use oca::{fitness, fitness_from_definition, local_search, CommunityState, SearchConfig, MIN_GAIN};
use oca_api::{registry, DetectorOptions};
use oca_graph::{from_edges, Community, Cover, CsrGraph, DetectContext, NodeId, UnionFind};
use oca_metrics::{omega_index, overlapping_nmi, rho, theta};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Reference for the driver's dedup semantics: exact member-vector sets,
/// the representation the fingerprint probe replaced.
fn exact_dedup_decisions(comms: &[Community]) -> Vec<bool> {
    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
    comms
        .iter()
        .map(|c| seen.insert(c.members().to_vec()))
        .collect()
}

/// Reference for the merge spec — per round, union every pair of current
/// communities that shares a node and has similarity ≥ threshold
/// (evaluated on the round-start sets), merge the groups, repeat to the
/// fixed point. Quadratic in the community count; order-independent by
/// construction.
fn merge_similar_reference(cover: &Cover, threshold: f64) -> Cover {
    let mut comms: Vec<Community> = cover.communities().to_vec();
    while let Some(merged) = merge_round_reference(&comms, threshold) {
        comms = merged;
    }
    Cover::new(cover.node_count(), comms)
}

/// One round of [`merge_similar_reference`]: the merged communities, or
/// `None` when no pair passes.
fn merge_round_reference(comms: &[Community], threshold: f64) -> Option<Vec<Community>> {
    let k = comms.len();
    let mut uf = UnionFind::new(k);
    let mut any = false;
    for i in 0..k {
        for j in (i + 1)..k {
            if comms[i].intersection_size(&comms[j]) > 0
                && comms[i].similarity(&comms[j]) >= threshold
            {
                any |= uf.union(i, j);
            }
        }
    }
    if !any {
        return None;
    }
    let mut emitted = vec![false; k];
    let mut merged: Vec<Community> = Vec::new();
    for i in 0..k {
        let root = uf.find(i);
        if emitted[root] {
            continue;
        }
        emitted[root] = true;
        let mut group = comms[root].clone();
        for (j, c) in comms.iter().enumerate() {
            if j != root && uf.find(j) == root {
                group = group.merged(c);
            }
        }
        merged.push(group);
    }
    Some(merged)
}

/// Thresholds that put merge pairs exactly on the join's bounds, each with
/// the step that makes `threshold·|S|` an integer for every multiple of it.
/// At 0.55, `0.55 * 100.0` rounds above 55 while `55.0 / 100.0` passes, so
/// a bound taken from `⌈t·s⌉` alone would be one too high.
const BOUND_THRESHOLDS: [(f64, usize); 6] = [
    (0.0, 1),
    (1.0 / 3.0, 3),
    (0.5, 2),
    (0.55, 20),
    (0.6, 5),
    (1.0, 1),
];

/// Near-duplicate communities over `0..n`: every set holds the hubs
/// `0..hubs`, and is either a family's base block with up to 60% of it
/// dropped and a few outsiders added, or a subset (or a copy) of an earlier
/// set. Sizes are trimmed to multiples of `step`, so subsets land exactly
/// on size ratios and overlaps exactly on `threshold·|S|`.
fn near_duplicate_cover(rng: &mut StdRng, n: u32, hubs: u32, sets: usize, step: usize) -> Cover {
    let mut others: Vec<u32> = (hubs..n).collect();
    let families: Vec<Vec<u32>> = (0..rng.random_range(1..=4))
        .map(|_| {
            others.shuffle(rng);
            let len = rng.random_range(others.len() / 5..=others.len() / 2);
            others[..len.max(1)].to_vec()
        })
        .collect();
    let mut comms: Vec<Vec<u32>> = Vec::new();
    for _ in 0..sets {
        let mut m: Vec<u32> = if !comms.is_empty() && rng.random_bool(0.2) {
            let parent = comms.choose(rng).unwrap().clone();
            let keep = if rng.random_bool(0.3) { 1.0 } else { 0.8 };
            parent
                .into_iter()
                .filter(|_| rng.random_bool(keep))
                .collect()
        } else {
            let family = families.choose(rng).unwrap();
            let keep = rng.random_range(0.4..1.0);
            let mut m: Vec<u32> = family
                .iter()
                .copied()
                .filter(|_| rng.random_bool(keep))
                .collect();
            for _ in 0..rng.random_range(0..=family.len() / 4) {
                m.push(rng.random_range(hubs..n));
            }
            m
        };
        m.extend(0..hubs);
        m.sort_unstable();
        m.dedup();
        while m.len() % step != 0 && m.len() > hubs as usize {
            let at = rng.random_range(hubs as usize..m.len());
            m.remove(at);
        }
        comms.push(m);
    }
    Cover::new(
        n as usize,
        comms.into_iter().map(Community::from_raw).collect(),
    )
}

/// Hub-shaped covers, the shape that makes merging expensive on BA graphs:
/// 20–60 large near-duplicate sets over 100–300 nodes that all hold a few
/// high-frequency hubs, so merged unions re-qualify in later rounds.
fn hub_cover(seed: u64, step: usize) -> Cover {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(100..=300);
    let hubs = rng.random_range(1..=5);
    let sets = rng.random_range(20..=60);
    near_duplicate_cover(&mut rng, n, hubs, sets, step)
}

/// Small near-duplicate covers: 2–12 sets over 8–30 nodes.
fn small_bound_cover(seed: u64, step: usize) -> Cover {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(8..=30);
    let hubs = rng.random_range(0..=2);
    let sets = rng.random_range(2..=12);
    near_duplicate_cover(&mut rng, n, hubs, sets, step)
}

/// Reference for orphan assignment: the per-node `HashMap` counting the
/// epoch-stamped counter array replaced — identical winner rule (max
/// neighbor count, lowest community index on ties), identical rounds.
fn assign_orphans_reference(graph: &CsrGraph, cover: &Cover, max_rounds: usize) -> Cover {
    let mut communities: Vec<Vec<NodeId>> = cover
        .communities()
        .iter()
        .map(|c| c.members().to_vec())
        .collect();
    if communities.is_empty() {
        return cover.clone();
    }
    let mut membership: Vec<Vec<u32>> = cover.membership_index();
    let mut orphans: Vec<NodeId> = cover.orphans();
    for _ in 0..max_rounds {
        if orphans.is_empty() {
            break;
        }
        let mut still_orphan = Vec::new();
        let mut assigned_any = false;
        for &v in &orphans {
            let mut counts: HashMap<u32, usize> = HashMap::new();
            for &u in graph.neighbors(v) {
                for &ci in &membership[u.index()] {
                    *counts.entry(ci).or_insert(0) += 1;
                }
            }
            let winner = counts
                .iter()
                .map(|(&ci, &cnt)| (cnt, std::cmp::Reverse(ci)))
                .max()
                .map(|(_, std::cmp::Reverse(ci))| ci);
            match winner {
                Some(ci) => {
                    communities[ci as usize].push(v);
                    membership[v.index()].push(ci);
                    assigned_any = true;
                }
                None => still_orphan.push(v),
            }
        }
        orphans = still_orphan;
        if !assigned_any {
            break;
        }
    }
    Cover::new(
        cover.node_count(),
        communities.into_iter().map(Community::new).collect(),
    )
}

/// Strategy: a random edge list over up to `n` nodes.
fn edge_list(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

/// Strategy: a random community over nodes `0..n`.
fn community(n: u32) -> impl Strategy<Value = Community> {
    prop::collection::vec(0..n, 0..(n as usize)).prop_map(Community::from_raw)
}

proptest! {
    #[test]
    fn builder_always_produces_valid_simple_graphs(edges in edge_list(40, 200)) {
        let g = from_edges(40, edges);
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn edge_iterator_matches_edge_count(edges in edge_list(30, 120)) {
        let g = from_edges(30, edges);
        prop_assert_eq!(g.edges().count(), g.edge_count());
        // Degrees sum to twice the edge count (handshake lemma).
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn has_edge_is_symmetric(edges in edge_list(25, 100)) {
        let g = from_edges(25, edges);
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(u, v));
                prop_assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn union_find_agrees_with_components(edges in edge_list(30, 60)) {
        let g = from_edges(30, edges.clone());
        let comps = oca_graph::Components::compute(&g);
        let mut uf = UnionFind::new(30);
        for (u, v) in edges {
            if u != v {
                uf.union(u as usize, v as usize);
            }
        }
        for u in 0..30usize {
            for v in (u + 1)..30usize {
                prop_assert_eq!(
                    uf.connected(u, v),
                    comps.same_component(NodeId(u as u32), NodeId(v as u32))
                );
            }
        }
    }

    #[test]
    fn closed_form_fitness_matches_definition(
        edges in edge_list(20, 80),
        members in prop::collection::btree_set(0u32..20, 1..15),
        c in 0.01f64..0.99,
    ) {
        let g = from_edges(20, edges);
        let members: Vec<NodeId> = members.into_iter().map(NodeId).collect();
        let mut st = CommunityState::new(&g, c);
        for &v in &members {
            st.add(v);
        }
        let internal_degrees: Vec<usize> =
            members.iter().map(|&v| st.internal_degree(v)).collect();
        let by_def = fitness_from_definition(&internal_degrees, st.internal_edges(), c);
        let closed = fitness(members.len(), st.internal_edges(), c);
        prop_assert!((by_def - closed).abs() < 1e-9, "{} vs {}", by_def, closed);
    }

    /// The incremental `CommunityState` (degree words, lazy bucket
    /// stacks, memoized sqrt) against a from-scratch oracle: after every
    /// operation of a random add/remove/reset sequence under random prune
    /// masks, membership, `Ein`, every node's `deg_S`, the boundary, the
    /// best candidates and the fitness (via `fitness_from_definition`) must
    /// all agree with naive recomputation, so a layout rewrite cannot
    /// silently corrupt gains or move a cover.
    ///
    /// The best candidates must be the oracle's *nodes*, ties included:
    /// the oracle stamps a node on every change of its membership or
    /// internal degree, in the order the state re-buckets them (the added
    /// node before its neighbours, the removed node after them), and among
    /// the eligible nodes at the extremal degree the highest stamp wins.
    #[test]
    fn community_state_matches_naive_oracle(
        edges in edge_list(24, 120),
        ops in prop::collection::vec((0u32..24, 0u32..100, 0u32..1 << 24), 1..60),
        c in 0.05f64..0.95,
    ) {
        let g = from_edges(24, edges);
        let n = g.node_count() as u32;
        let mut st = CommunityState::new(&g, c);
        let mut naive: std::collections::BTreeSet<NodeId> = Default::default();
        let mut stamp = vec![0u64; n as usize];
        let mut clock = 0u64;
        let mut pruned = 0u32;
        for (v, action, mask) in ops {
            let v = NodeId(v);
            if action < 8 {
                // Half the resets prune nothing, half a random node set.
                pruned = if action < 4 { 0 } else { mask };
                st.set_prune_snapshot(&[pruned as u64]);
                st.reset();
                naive.clear();
                continue;
            }
            let mut changed = g.neighbors(v).to_vec();
            if naive.contains(&v) {
                st.remove(v);
                naive.remove(&v);
                changed.push(v);
            } else {
                st.add(v);
                naive.insert(v);
                changed.insert(0, v);
            }
            for u in changed {
                clock += 1;
                stamp[u.index()] = clock;
            }
            let deg = |u: NodeId| g.neighbors(u).iter().filter(|w| naive.contains(w)).count();
            let members: Vec<NodeId> = naive.iter().copied().collect();
            let flags: Vec<bool> = (0..n).map(|i| naive.contains(&NodeId(i))).collect();
            let ein = g.internal_edges(&members, &flags);
            prop_assert_eq!(st.len(), naive.len());
            prop_assert_eq!(st.internal_edges(), ein);
            for u in g.nodes() {
                prop_assert_eq!(st.contains(u), naive.contains(&u));
                prop_assert_eq!(st.internal_degree(u), deg(u), "deg_S({u:?})");
            }
            let internal_degrees: Vec<usize> = members.iter().map(|&m| deg(m)).collect();
            let by_def = fitness_from_definition(&internal_degrees, ein, c);
            prop_assert!(
                (st.fitness() - by_def).abs() <= 1e-9 * by_def.abs().max(1.0),
                "fitness {} vs definition {}", st.fitness(), by_def
            );
            // Boundary: exactly the non-members with positive deg_S.
            let mut got: Vec<u32> = st.boundary().map(|x| x.raw()).collect();
            got.sort_unstable();
            let want: Vec<u32> = (0..n)
                .filter(|&i| !naive.contains(&NodeId(i)) && deg(NodeId(i)) > 0)
                .collect();
            prop_assert_eq!(got, want);
            // Best candidates are the oracle's nodes, ties included.
            let best_boundary = (0..n)
                .map(NodeId)
                .filter(|u| !naive.contains(u) && deg(*u) > 0 && pruned >> u.raw() & 1 == 0)
                .max_by_key(|&u| (deg(u), stamp[u.index()]));
            prop_assert_eq!(st.best_addition(), best_boundary);
            if naive.len() >= 2 {
                let min_member = members
                    .iter()
                    .copied()
                    .min_by_key(|&m| (deg(m), std::cmp::Reverse(stamp[m.index()])));
                prop_assert_eq!(st.best_removal(), min_member);
            } else {
                prop_assert_eq!(st.best_removal(), None);
            }
            // Gains equal the oracle's fitness differences.
            if let Some(u) = st.best_addition() {
                let oracle = fitness(naive.len() + 1, ein + deg(u), c) - fitness(naive.len(), ein, c);
                prop_assert!((st.gain_add(u) - oracle).abs() < 1e-9);
            }
            if naive.len() >= 2 {
                if let Some(u) = st.best_removal() {
                    let oracle = fitness(naive.len() - 1, ein - deg(u), c) - fitness(naive.len(), ein, c);
                    prop_assert!((st.gain_remove(u) - oracle).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn state_add_remove_round_trips(
        edges in edge_list(20, 80),
        members in prop::collection::btree_set(0u32..20, 1..12),
        c in 0.05f64..0.95,
    ) {
        let g = from_edges(20, edges);
        let members: Vec<NodeId> = members.into_iter().map(NodeId).collect();
        let mut st = CommunityState::new(&g, c);
        for &v in &members {
            st.add(v);
        }
        prop_assert_eq!(st.internal_edges(), st.recompute_internal_edges());
        for &v in &members {
            st.remove(v);
        }
        prop_assert_eq!(st.len(), 0);
        prop_assert_eq!(st.internal_edges(), 0);
    }

    #[test]
    fn rho_is_a_bounded_symmetric_similarity(a in community(30), b in community(30)) {
        let r = rho(&a, &b);
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!((r - rho(&b, &a)).abs() < 1e-12);
        prop_assert!((rho(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn theta_is_bounded_and_maximal_on_self(
        comms in prop::collection::vec(community(25), 1..6),
    ) {
        let cover = Cover::new(25, comms);
        prop_assume!(!cover.is_empty());
        let self_theta = theta(&cover, &cover);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&self_theta));
        // Self-similarity: every observed community matches itself at rho 1,
        // but duplicates of the same best-match can dilute; still ≥ 1/len.
        prop_assert!(self_theta >= 1.0 / cover.len() as f64 - 1e-9);
    }

    #[test]
    fn nmi_and_omega_are_symmetric(
        a in prop::collection::vec(community(20), 1..4),
        b in prop::collection::vec(community(20), 1..4),
    ) {
        let ca = Cover::new(20, a);
        let cb = Cover::new(20, b);
        let n1 = overlapping_nmi(&ca, &cb);
        let n2 = overlapping_nmi(&cb, &ca);
        prop_assert!((n1 - n2).abs() < 1e-9);
        prop_assert!((-1.0..=1.0 + 1e-9).contains(&n1) || n1.is_finite());
        let o1 = omega_index(&ca, &cb);
        let o2 = omega_index(&cb, &ca);
        prop_assert!((o1 - o2).abs() < 1e-9);
    }

    /// The incremental 128-bit fingerprint must accept/reject exactly the
    /// communities the old clone-the-member-vector dedup set did, for any
    /// sequence of sets (duplicates included). A collision would show up
    /// here as a decision mismatch.
    #[test]
    fn fingerprint_dedup_matches_exact_set_dedup(
        comms in prop::collection::vec(community(30), 1..40),
    ) {
        let g = CsrGraph::empty(30);
        let mut st = CommunityState::new(&g, 0.5);
        let mut fps: HashSet<u128> = HashSet::new();
        let exact = exact_dedup_decisions(&comms);
        for (c, want) in comms.iter().zip(exact) {
            st.reset();
            for &v in c.members() {
                st.add(v);
            }
            prop_assert_eq!(fps.insert(st.fingerprint()), want, "set {:?}", c.members());
        }
    }

    /// The from-scratch fingerprint a resumed driver rebuilds its dedup
    /// set with equals the incremental one after any add/remove sequence:
    /// toggling a node adds it when absent and removes it when present.
    #[test]
    fn set_fingerprint_matches_incremental_fingerprint(
        toggles in prop::collection::vec(0u32..30, 0..80),
    ) {
        let g = CsrGraph::empty(30);
        let mut st = CommunityState::new(&g, 0.5);
        for (i, &v) in toggles.iter().enumerate() {
            let v = NodeId::new(v);
            if st.contains(v) {
                st.remove(v);
            } else {
                st.add(v);
            }
            prop_assert_eq!(set_fingerprint(st.members()), st.fingerprint(), "after toggle {}", i);
        }
    }

    /// The inverted-index + union-find merge must equal the quadratic
    /// order-independent specification: same communities, same order.
    #[test]
    fn merge_similar_matches_quadratic_reference(
        comms in prop::collection::vec(community(20), 0..10),
        threshold in 0.05f64..1.0,
    ) {
        let cover = Cover::new(20, comms);
        let fast = oca::merge_similar(&cover, threshold);
        let reference = merge_similar_reference(&cover, threshold);
        prop_assert_eq!(fast, reference);
    }

    /// The prefix-filtered join against the quadratic reference on
    /// hub-shaped covers, at thresholds and sizes that sit exactly on its
    /// prefix, size and positional bounds.
    #[test]
    fn merge_similar_matches_reference_on_hub_covers(
        seed in 0u64..u64::MAX,
        t in 0usize..6,
    ) {
        let (threshold, step) = BOUND_THRESHOLDS[t];
        let cover = hub_cover(seed, step);
        let fast = oca::merge_similar(&cover, threshold);
        prop_assert_eq!(fast, merge_similar_reference(&cover, threshold), "seed {}", seed);
    }

    /// The same on small covers, where every bound is hit often.
    #[test]
    fn merge_similar_matches_reference_at_exact_bounds(
        seed in 0u64..u64::MAX,
        t in 0usize..6,
    ) {
        let (threshold, step) = BOUND_THRESHOLDS[t];
        let cover = small_bound_cover(seed, step);
        let fast = oca::merge_similar(&cover, threshold);
        prop_assert_eq!(fast, merge_similar_reference(&cover, threshold), "seed {}", seed);
    }

    /// Merging may not depend on the order communities arrive in (the old
    /// grown-union rule did): any permutation yields the same cover up to
    /// community order.
    #[test]
    fn merge_similar_is_order_independent(
        comms in prop::collection::vec(community(20), 0..8),
        threshold in 0.05f64..1.0,
        rot in 0usize..8,
    ) {
        let normalize = |cover: &Cover| {
            let mut sets: Vec<Vec<NodeId>> = cover
                .communities()
                .iter()
                .map(|c| c.members().to_vec())
                .collect();
            sets.sort();
            sets
        };
        let reference = normalize(&oca::merge_similar(&Cover::new(20, comms.clone()), threshold));
        let mut rotated = comms.clone();
        if !rotated.is_empty() {
            let by = rot % rotated.len();
            rotated.rotate_left(by);
            rotated.reverse();
        }
        let got = normalize(&oca::merge_similar(&Cover::new(20, rotated), threshold));
        prop_assert_eq!(got, reference);
    }

    /// The counter-based orphan assignment must equal the old HashMap
    /// implementation exactly (same covers, same community order).
    #[test]
    fn assign_orphans_matches_hashmap_reference(
        edges in edge_list(20, 60),
        comms in prop::collection::vec(community(20), 1..4),
        rounds in 1usize..6,
    ) {
        let g: CsrGraph = from_edges(20, edges);
        let cover = Cover::new(20, comms);
        prop_assume!(!cover.is_empty());
        let fast = oca::assign_orphans(&g, &cover, rounds);
        let reference = assign_orphans_reference(&g, &cover, rounds);
        prop_assert_eq!(fast, reference);
    }

    #[test]
    fn merge_similar_never_increases_count_and_is_idempotent(
        comms in prop::collection::vec(community(20), 0..8),
        threshold in 0.1f64..1.0,
    ) {
        let cover = Cover::new(20, comms);
        let merged = oca::merge_similar(&cover, threshold);
        prop_assert!(merged.len() <= cover.len());
        let twice = oca::merge_similar(&merged, threshold);
        prop_assert_eq!(twice.len(), merged.len());
    }

    #[test]
    fn orphan_assignment_only_grows_coverage(
        edges in edge_list(20, 60),
        comms in prop::collection::vec(community(20), 1..4),
    ) {
        let g: CsrGraph = from_edges(20, edges);
        let cover = Cover::new(20, comms);
        prop_assume!(!cover.is_empty());
        let out = oca::assign_orphans(&g, &cover, 8);
        prop_assert!(out.coverage() >= cover.coverage() - 1e-12);
        // Assigned orphans must have a neighbor in their new community.
        let before = cover.membership_index();
        for (ci, c) in out.communities().iter().enumerate() {
            for &v in c.members() {
                let was_orphan = before[v.index()].is_empty();
                if was_orphan {
                    let has_neighbor_inside =
                        g.neighbors(v).iter().any(|u| c.contains(*u));
                    prop_assert!(
                        has_neighbor_inside,
                        "orphan {v:?} joined community {ci} with no neighbor inside"
                    );
                }
            }
        }
    }

    /// With budgets, pruning and penalties all off (the library default),
    /// the reworked `ascend` must replay the pre-budget greedy loop
    /// exactly: same members, same fitness, same move count, for any graph
    /// and initial set. The reference runs on an identical
    /// `CommunityState`, so bucket-queue tie-breaking matches and the
    /// comparison is bit-exact, not just quality-equivalent.
    #[test]
    fn default_ascend_matches_the_unbudgeted_reference_loop(
        edges in edge_list(24, 120),
        initial in prop::collection::btree_set(0u32..24, 1..8),
        c in 0.05f64..0.95,
    ) {
        let g = from_edges(24, edges);
        let initial: Vec<NodeId> = initial.into_iter().map(NodeId).collect();
        let config = SearchConfig::default();
        let mut st = CommunityState::new(&g, c);
        let got = local_search(&mut st, &initial, &config);

        let mut rf = CommunityState::new(&g, c);
        rf.reset();
        for &v in &initial {
            if !rf.contains(v) {
                rf.add(v);
            }
        }
        let mut moves = 0usize;
        loop {
            let mut best: Option<(f64, NodeId, bool)> = None;
            if let Some(v) = rf.best_addition() {
                best = Some((rf.gain_add(v), v, true));
            }
            if let Some(v) = rf.best_removal() {
                let gain = rf.gain_remove(v);
                if best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, v, false));
                }
            }
            match best {
                Some((gain, v, is_add)) if gain > MIN_GAIN && moves < config.max_moves => {
                    if is_add {
                        rf.add(v);
                    } else {
                        rf.remove(v);
                    }
                    moves += 1;
                }
                _ => break,
            }
        }
        prop_assert_eq!(got.moves, moves);
        prop_assert!(got.converged);
        let reference = rf.to_community();
        prop_assert_eq!(got.community.members(), reference.members());
        prop_assert!((got.fitness - rf.fitness()).abs() < 1e-12);
    }

    /// Covered-hub pruning only suppresses candidacy: a pruned node can be
    /// in the final set only by arriving through the initial set, never by
    /// greedy addition.
    #[test]
    fn pruned_nodes_only_enter_through_the_initial_set(
        edges in edge_list(24, 120),
        initial in prop::collection::btree_set(0u32..24, 1..6),
        pruned in prop::collection::btree_set(0u32..24, 0..12),
        c in 0.05f64..0.95,
    ) {
        let g = from_edges(24, edges);
        let initial: Vec<NodeId> = initial.into_iter().map(NodeId).collect();
        let mut words = [0u64; 1];
        for &v in &pruned {
            words[0] |= 1u64 << v;
        }
        let mut st = CommunityState::new(&g, c);
        st.set_prune_snapshot(&words);
        let got = local_search(&mut st, &initial, &SearchConfig::default());
        for &v in got.community.members() {
            if pruned.contains(&v.raw()) {
                prop_assert!(
                    initial.contains(&v),
                    "pruned node {:?} entered by addition", v
                );
            }
        }
    }

    /// A point query must agree with the whole-graph detection: on a
    /// graph of disjoint cliques (sizes 3–7), `oca-local` pinned to any
    /// node the global `oca` cover assigns somewhere returns exactly the
    /// community the global cover placed that node in. Both run with the
    /// same fixed `c`, for which the full clique is the fitness optimum,
    /// so the seeded ascent and the global sweep must land on the same
    /// answer.
    #[test]
    fn local_query_agrees_with_the_global_cover_on_disjoint_cliques(
        sizes in prop::collection::vec(3u32..=7, 1..4),
        query_pick in 0usize..64,
        c in 0.6f64..0.9,
    ) {
        let n: u32 = sizes.iter().sum();
        let mut edges = Vec::new();
        let mut base = 0u32;
        for &s in &sizes {
            for i in 0..s {
                for j in (i + 1)..s {
                    edges.push((base + i, base + j));
                }
            }
            base += s;
        }
        let g = from_edges(n as usize, edges);
        let c_opt = format!("{c}");
        let reg = registry();
        let global = reg
            .build("oca", &DetectorOptions::new().with("fixed-c", &c_opt))
            .unwrap()
            .detect(&g, &mut DetectContext::new(5))
            .unwrap();
        let membership = global.cover.membership_index();
        let query = query_pick % n as usize;
        prop_assume!(!membership[query].is_empty());
        let local = reg
            .build(
                "oca-local",
                &DetectorOptions::new()
                    .with("seed-node", &query.to_string())
                    .with("fixed-c", &c_opt),
            )
            .unwrap()
            .detect(&g, &mut DetectContext::new(5))
            .unwrap();
        prop_assert_eq!(local.cover.len(), 1, "a point query answers with one community");
        let got = local.cover.communities()[0].members();
        let want = global.cover.communities()[membership[query][0] as usize].members();
        prop_assert_eq!(got, want);
    }
}

/// Guards the hub-cover properties against a vacuous generator: covers
/// merge at every bound threshold, and between 0 and 1 some need more
/// than one round, a merged union passing where its parts did not.
#[test]
fn merge_similar_hub_covers_cascade() {
    for (threshold, step) in BOUND_THRESHOLDS {
        let (mut merging, mut cascading) = (0, 0);
        for seed in 0..64 {
            let mut comms = hub_cover(seed, step).communities().to_vec();
            let mut rounds = 0;
            while let Some(merged) = merge_round_reference(&comms, threshold) {
                comms = merged;
                rounds += 1;
            }
            merging += usize::from(rounds >= 1);
            cascading += usize::from(rounds >= 2);
        }
        assert!(merging > 0, "no hub cover merges at {threshold}");
        if threshold > 0.0 && threshold < 1.0 {
            assert!(cascading > 0, "no hub cover cascades at {threshold}");
        }
    }
}
