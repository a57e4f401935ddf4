//! Postprocessing (Section IV): merging near-duplicate communities and
//! assigning orphan nodes.
//!
//! OCA's independent seeds frequently converge to communities that are
//! "too similar, i.e. that differ in very few nodes"; the paper merges
//! them. Optionally, every node is then forced into at least one community
//! by giving each orphan to the community holding most of its neighbors.
//!
//! Merging is an exact prefix-filtered set-similarity join (AllPairs,
//! Bayardo, Ma & Srikant, WWW 2007; PPJoin, Xiao et al., WWW 2008): nodes
//! are ranked rarest first, only each set's prefix of rarest members is
//! indexed, and every filter's bound is derived from the f64 test that
//! accepts a pair, so no accepted pair is ever missed.
//! Orphan assignment counts neighbor memberships in a flat
//! [`EpochCounters`] array over dense community ids — one bump per
//! observation, O(1) logical clearing between queries, no hashing and no
//! per-query allocation (DESIGN.md §4a has both cost models).

use oca_graph::{Community, Cover, CsrGraph, EpochCounters, NodeId, UnionFind};

/// Merges groups of similar communities until no two communities in the
/// result have similarity `ρ` at least `threshold`. Exact duplicates
/// always merge; communities sharing no node never do.
///
/// The acceptance rule is deterministic and **order-independent**: per
/// round, a pair merges iff the Jaccard similarity of their round-start
/// member sets reaches `threshold`, and the accepted pairs are closed
/// transitively (union–find), so permuting the input communities permutes
/// nothing but the output order. (The previous implementation compared
/// candidates against the partially *grown* union, so the scan order
/// decided which pairs passed — see the regression test
/// `merging_is_independent_of_community_order`.) Newly merged groups are
/// re-tested against the rest in the next round; the fixed point is
/// reached when a round accepts nothing, and only changed groups are ever
/// re-scanned.
///
/// Cost: a prefix-filtered set-similarity join (AllPairs; PPJoin), not a
/// sweep over every shared node. Nodes are ranked once, rarest first by
/// (frequency in the input cover, id), and each live set is indexed under
/// its `|S| − α(|S|) + 1` lowest-ranked members only, where `α(s)` is the
/// least overlap the acceptance test allows a set of size `s`: two sets
/// that merge share a node inside both prefixes. Hubs rank last, so they
/// sit outside all but the smallest sets' prefixes and their posting lists
/// stay short. A candidate is dropped uncounted
/// when its size ratio already fails the threshold, when the members left
/// after the first shared one cannot reach the overlap the pair needs, or
/// when it is already in the probing set's union–find component this round
/// (accepting it could not change the round's partition). Otherwise its
/// members from the first shared one on are checked against the probing
/// set's, stamped once per probe, until the needed overlap is reached or
/// out of reach. Every bound is derived from the acceptance test's own f64
/// expression, so no pair the test accepts is ever missed.
pub fn merge_similar(cover: &Cover, threshold: f64) -> Cover {
    assert!((0.0..=1.0).contains(&threshold), "threshold in [0,1]");
    let k = cover.len();
    if k <= 1 {
        return cover.clone();
    }
    let n = cover.node_count();
    // Global order: rank nodes rarest first, by (frequency, id). Sets are
    // held as ascending rank lists, so a set's prefix is its first entries.
    // `rank` holds each node's frequency until the ranks overwrite it.
    let mut rank = vec![0u32; n];
    for c in cover.communities() {
        for &v in c.members() {
            rank[v.index()] += 1;
        }
    }
    let mut node_of_rank: Vec<u32> = (0..n as u32).collect();
    node_of_rank.sort_unstable_by_key(|&v| (rank[v as usize], v));
    for (r, &v) in node_of_rank.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    let mut members: Vec<Vec<u32>> = cover
        .communities()
        .iter()
        .map(|c| {
            let mut m: Vec<u32> = c.members().iter().map(|v| rank[v.index()]).collect();
            m.sort_unstable();
            m
        })
        .collect();
    drop(rank);
    let prefix = |size: usize| size + 1 - min_overlap(size, threshold);
    // Prefix index: for each rank, the live sets holding it in their
    // prefix, with its position there. Changed sets probe it and are then
    // inserted, so each pair is found from one side only.
    let mut index: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    let mut uf = UnionFind::new(k);
    // Stamped with the current probe's sequence number: the candidates it
    // has seen, and the probing set's members.
    let mut seen = vec![0u32; k];
    let mut probe = vec![0u32; n];
    let mut probes = 0u32;
    // Slots a merge phase takes out of the index (absorbed ones stay out).
    let mut retired = vec![false; k];
    let mut changed: Vec<u32> = (0..k as u32).collect();
    loop {
        // Acceptance pass. Similarities are evaluated on the round-start
        // member sets only (nothing is mutated until the pass is over), so
        // the round's partition — the transitive closure of the accepted
        // pairs — is independent of the scan order. Pairs are unioned as
        // they are accepted; a pair already connected is not verified.
        let mut joined: Vec<(u32, u32)> = Vec::new();
        for &a in &changed {
            let set_a = &members[a as usize];
            let size_a = set_a.len();
            let prefix_a = &set_a[..prefix(size_a)];
            probes = probes.checked_add(1).unwrap_or_else(|| {
                seen.fill(0);
                probe.fill(0);
                1
            });
            for &x in set_a {
                probe[x as usize] = probes;
            }
            for (i, &x) in prefix_a.iter().enumerate() {
                for &(b, j) in &index[x as usize] {
                    if seen[b as usize] == probes {
                        continue;
                    }
                    seen[b as usize] = probes;
                    let set_b = &members[b as usize];
                    let Some(need) = min_join_overlap(size_a, set_b.len(), threshold) else {
                        continue;
                    };
                    // `x` is the first shared member of both sets: an
                    // earlier one would sit in both prefixes, and `b`
                    // would have been seen there. So the overlap is at
                    // most 1 + what either set holds after `x`.
                    let rest_b = &set_b[j as usize + 1..];
                    if 1 + (size_a - i - 1).min(rest_b.len()) < need {
                        continue;
                    }
                    if uf.find(a as usize) == uf.find(b as usize) {
                        continue;
                    }
                    // Count the rest of `b` against the probe's stamps,
                    // until the overlap reaches `need` or falls out of reach.
                    let mut overlap = 1;
                    for (checked, &y) in rest_b.iter().enumerate() {
                        if overlap >= need || overlap + rest_b.len() - checked < need {
                            break;
                        }
                        if probe[y as usize] == probes {
                            overlap += 1;
                        }
                    }
                    if overlap >= need {
                        uf.union(a as usize, b as usize);
                        joined.push((a, b));
                    }
                }
            }
            for (j, &x) in prefix_a.iter().enumerate() {
                index[x as usize].push((a, j as u32));
            }
        }
        changed.clear();
        if joined.is_empty() {
            break;
        }
        // Merge phase: rebuild each group that grew at its root slot.
        let mut constituents: Vec<(usize, u32)> = joined
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .map(|s| (uf.find(s as usize), s))
            .collect();
        constituents.sort_unstable();
        constituents.dedup();
        // Constituents leave the index, one pass over each list they are
        // in; the root is re-probed next round and re-inserted then.
        let mut stale: Vec<u32> = Vec::new();
        for &(_, slot) in &constituents {
            let set = &members[slot as usize];
            retired[slot as usize] = true;
            stale.extend_from_slice(&set[..prefix(set.len())]);
        }
        stale.sort_unstable();
        stale.dedup();
        for &x in &stale {
            index[x as usize].retain(|&(e, _)| !retired[e as usize]);
        }
        for group in constituents.chunk_by(|x, y| x.0 == y.0) {
            let root = group[0].0;
            let mut merged: Vec<u32> = Vec::new();
            for &(_, slot) in group {
                merged.append(&mut members[slot as usize]);
            }
            merged.sort_unstable();
            merged.dedup();
            members[root] = merged;
            retired[root] = false;
            changed.push(root as u32);
        }
    }
    // Emit survivors ordered by each group's smallest original index —
    // the order the pass-based merge used to produce.
    let mut emitted = vec![false; k];
    let mut out: Vec<Community> = Vec::new();
    for i in 0..k {
        let root = uf.find(i);
        if emitted[root] {
            continue;
        }
        emitted[root] = true;
        out.push(if uf.size_of(root) == 1 {
            cover.communities()[i].clone()
        } else {
            Community::from_raw(members[root].iter().map(|&r| node_of_rank[r as usize]))
        });
    }
    Cover::new(n, out)
}

/// `α(size)`: the smallest overlap `o ≥ 1` with `o as f64 / size as f64 >=
/// threshold`, i.e. the least overlap a set of `size` members can have
/// with any set it merges with. An accepted pair has `overlap / union ≥
/// threshold` with `union ≥ size`, and correctly rounded division is
/// monotone, so `overlap / size` passes too.
fn min_overlap(size: usize, threshold: f64) -> usize {
    least_passing(threshold * size as f64, size, |o| {
        o as f64 / size as f64 >= threshold
    })
}

/// The smallest overlap with which sets of sizes `a` and `b` merge: the
/// least `o` passing the acceptance test `o as f64 / (a + b - o) as f64 >=
/// threshold`, which only grows with `o`. `None` when even containment of
/// the smaller set fails, `min as f64 / max as f64 < threshold`: the size
/// filter.
fn min_join_overlap(a: usize, b: usize, threshold: f64) -> Option<usize> {
    let passes = |o: usize| o as f64 / (a + b - o) as f64 >= threshold;
    let lo = a.min(b);
    if !passes(lo) {
        return None;
    }
    let guess = threshold * (a + b) as f64 / (1.0 + threshold);
    Some(least_passing(guess, lo, passes))
}

/// The smallest `o` in `1..=max` that `passes`, found by stepping ±1 from
/// `⌈guess⌉`; `passes` must only grow with `o` and hold at `max`. The
/// steps absorb the rounding of `guess`: `(0.55 * 100.0).ceil()` is 56,
/// yet `55.0 / 100.0 >= 0.55`.
fn least_passing(guess: f64, max: usize, passes: impl Fn(usize) -> bool) -> usize {
    let mut o = (guess.ceil() as usize).clamp(1, max);
    while o > 1 && passes(o - 1) {
        o -= 1;
    }
    while !passes(o) {
        o += 1;
    }
    o
}

/// Assigns each orphan node to the community containing the most of its
/// neighbors (Section IV's "orphan node" rule). Orphans whose neighbors are
/// all orphans too are retried for `max_rounds` rounds, so chains attached
/// to a community get absorbed; nodes in componentless limbo stay orphans.
///
/// Membership counting uses a flat epoch-stamped counter over community
/// ids (one bump per neighbor membership, O(1) reset per orphan) instead
/// of a freshly allocated `HashMap` per node; the winner rule — maximum
/// count, lowest community index on ties — is a total order, so the
/// result is unchanged.
pub fn assign_orphans(graph: &CsrGraph, cover: &Cover, max_rounds: usize) -> Cover {
    let mut communities: Vec<Vec<NodeId>> = cover
        .communities()
        .iter()
        .map(|c| c.members().to_vec())
        .collect();
    if communities.is_empty() {
        return cover.clone();
    }
    // membership[v] = communities containing v (updated as we assign).
    let mut membership: Vec<Vec<u32>> = cover.membership_index();
    let mut orphans: Vec<NodeId> = cover.orphans();
    let mut counts = EpochCounters::new(communities.len());
    for _ in 0..max_rounds {
        if orphans.is_empty() {
            break;
        }
        let mut still_orphan = Vec::new();
        let mut assigned_any = false;
        for &v in &orphans {
            // Count neighbor memberships.
            counts.begin();
            for &u in graph.neighbors(v) {
                for &ci in &membership[u.index()] {
                    counts.bump(ci);
                }
            }
            // Deterministic winner: max count, lowest index on ties.
            let winner = counts
                .touched()
                .iter()
                .map(|&ci| (counts.get(ci), std::cmp::Reverse(ci)))
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

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::from_edges;

    fn c(ids: &[u32]) -> Community {
        Community::from_raw(ids.iter().copied())
    }

    #[test]
    fn merges_exact_duplicates() {
        let cover = Cover::new(5, vec![c(&[0, 1, 2]), c(&[0, 1, 2]), c(&[3, 4])]);
        let merged = merge_similar(&cover, 0.5);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn merges_near_duplicates_above_threshold() {
        // ρ({0..4}, {0..3,5}) = 4/6 = 0.667.
        let cover = Cover::new(7, vec![c(&[0, 1, 2, 3, 4]), c(&[0, 1, 2, 3, 5])]);
        let merged = merge_similar(&cover, 0.6);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.communities()[0].len(), 6);
        let kept = merge_similar(&cover, 0.7);
        assert_eq!(kept.len(), 2, "below-threshold pair must stay split");
    }

    #[test]
    fn merge_cascades_to_fixed_point() {
        // ρ(a,b) = ρ(b,c) = 3/5 = 0.6, ρ(a,c) = 2/6 = 0.333. At 0.5 the
        // chain collapses; at 0.6 both accepted pairs share b, so the
        // transitive closure still collapses it; at 0.65 no pair passes.
        let cover = Cover::new(
            10,
            vec![c(&[0, 1, 2, 3]), c(&[1, 2, 3, 4]), c(&[2, 3, 4, 5])],
        );
        let merged = merge_similar(&cover, 0.5);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.communities()[0].len(), 6);
        let closed = merge_similar(&cover, 0.6);
        assert_eq!(closed.len(), 1, "a–b and b–c close transitively");
        let untouched = merge_similar(&cover, 0.65);
        assert_eq!(untouched.len(), 3);
    }

    /// A merged group is re-tested against the rest with its *union*: the
    /// pair (a,b) merges first, and only the union reaches the threshold
    /// against d — a second round must pick that up.
    #[test]
    fn merged_groups_are_retested_until_a_fixed_point() {
        // a = {0,1,2,3}, b = {0,1,2,4}: ρ = 3/5 = 0.6 — merges at 0.55.
        // d = {0,1,2,3,4,9}: ρ(a,d) = ρ(b,d) = 4/7 ≈ 0.571 > 0.55, so
        // round 1 already chains everything; use a d that only the union
        // reaches: d = {3,4,5,6,7}: ρ(a,d) = 1/8, ρ(b,d) = 1/8, but
        // ρ(a∪b, d) = 2/8 = 0.25. Threshold 0.25: round 1 merges only
        // a–b (ρ 0.6), round 2 merges the union with d.
        let cover = Cover::new(
            10,
            vec![c(&[0, 1, 2, 3]), c(&[0, 1, 2, 4]), c(&[3, 4, 5, 6, 7])],
        );
        let merged = merge_similar(&cover, 0.25);
        assert_eq!(merged.len(), 1, "the union must be re-tested against d");
        assert_eq!(merged.communities()[0].len(), 8);
        // Sanity: at a threshold between 0.25 and 0.6 only a–b merge.
        let partial = merge_similar(&cover, 0.3);
        assert_eq!(partial.len(), 2);
    }

    /// The regression for the order-dependence bug: the old pass compared
    /// candidates against the partially grown union, so permuting the
    /// input changed which pairs passed. The union-find rule may not
    /// depend on community order.
    #[test]
    fn merging_is_independent_of_community_order() {
        let comms = vec![
            c(&[0, 1, 2, 3]),
            c(&[1, 2, 3, 4]),
            c(&[2, 3, 4, 5]),
            c(&[6, 7, 8]),
            c(&[5, 6, 7, 8]),
        ];
        let normalize = |cover: &Cover| {
            let mut sets: Vec<Vec<NodeId>> = cover
                .communities()
                .iter()
                .map(|c| c.members().to_vec())
                .collect();
            sets.sort();
            sets
        };
        for threshold in [0.3, 0.5, 0.6, 0.75, 0.9] {
            let reference = normalize(&merge_similar(&Cover::new(9, comms.clone()), threshold));
            // A few fixed permutations, including the reverse.
            let orders: [&[usize]; 3] = [&[4, 3, 2, 1, 0], &[2, 0, 4, 1, 3], &[1, 4, 0, 3, 2]];
            for order in orders {
                let permuted: Vec<Community> = order.iter().map(|&i| comms[i].clone()).collect();
                let got = normalize(&merge_similar(&Cover::new(9, permuted), threshold));
                assert_eq!(got, reference, "threshold {threshold}, order {order:?}");
            }
        }
    }

    #[test]
    fn disjoint_communities_never_merge() {
        let cover = Cover::new(6, vec![c(&[0, 1, 2]), c(&[3, 4, 5])]);
        let merged = merge_similar(&cover, 0.0);
        // Threshold 0 with no shared node: the index never pairs them.
        assert_eq!(merged.len(), 2);
    }

    /// Thresholds where `t·s` is an integer for many sizes `s`, so an
    /// off-by-one in a bound shows. At 0.55, `(0.55 * s as f64).ceil()` is
    /// one too high for 112 sizes up to 4096 (the first is 100).
    const BOUND_THRESHOLDS: [f64; 9] = [0.0, 1.0 / 3.0, 0.5, 0.55, 0.6, 1.0, 0.1, 0.75, 0.9];

    /// `α(s)` never exceeds the smallest overlap the acceptance test takes
    /// for a set of size `s` (and equals it, so prefixes are no longer than
    /// needed). Against any partner the union is at least `s`, so that
    /// smallest overlap is the first `o` with `o / s` passing.
    #[test]
    fn min_overlap_is_the_least_accepted_overlap() {
        for t in BOUND_THRESHOLDS {
            for s in 1..=4096usize {
                let least = (1..=s).find(|&o| o as f64 / s as f64 >= t).unwrap();
                assert_eq!(min_overlap(s, t), least, "size {s}, threshold {t}");
            }
        }
    }

    /// Every pair the acceptance test takes passes both filters: its
    /// overlap reaches `α` of either size and the pair's own needed
    /// overlap, and the size filter keeps it. Exhaustive over small sizes.
    #[test]
    fn filters_keep_every_accepted_pair() {
        for t in BOUND_THRESHOLDS {
            for a in 1..=120usize {
                for b in 1..=120usize {
                    let need = min_join_overlap(a, b, t);
                    for o in 1..=a.min(b) {
                        let accepted = o as f64 / (a + b - o) as f64 >= t;
                        if accepted {
                            assert!(o >= min_overlap(a, t) && o >= min_overlap(b, t));
                        }
                        assert_eq!(
                            need.is_some_and(|need| o >= need),
                            accepted,
                            "sizes {a}, {b}, overlap {o}, threshold {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn orphan_joins_majority_neighbor_community() {
        // Triangle community {0,1,2}; node 3 has 2 edges into it and one to
        // orphan 4.
        let g = from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (3, 4)]);
        let cover = Cover::new(5, vec![c(&[0, 1, 2])]);
        let out = assign_orphans(&g, &cover, 5);
        assert!(out.communities()[0].contains(NodeId(3)));
        assert!(out.communities()[0].contains(NodeId(4)), "chain absorbed");
        assert!(out.orphans().is_empty());
    }

    #[test]
    fn unreachable_orphans_stay() {
        let g = from_edges(4, [(0, 1), (2, 3)]);
        let cover = Cover::new(4, vec![c(&[0, 1])]);
        let out = assign_orphans(&g, &cover, 5);
        assert_eq!(out.orphans(), vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn ties_resolve_to_lowest_community_index() {
        let g = from_edges(5, [(4, 0), (4, 2)]);
        let cover = Cover::new(5, vec![c(&[0, 1]), c(&[2, 3])]);
        let out = assign_orphans(&g, &cover, 3);
        assert!(out.communities()[0].contains(NodeId(4)));
        assert!(!out.communities()[1].contains(NodeId(4)));
    }

    #[test]
    fn empty_cover_passthrough() {
        let g = from_edges(2, [(0, 1)]);
        let cover = Cover::empty(2);
        let out = assign_orphans(&g, &cover, 3);
        assert!(out.is_empty());
        let merged = merge_similar(&cover, 0.5);
        assert!(merged.is_empty());
    }
}
