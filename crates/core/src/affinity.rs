//! Affinity-based property clustering — the MPBMC direction.
//!
//! The §12 baseline ([`crate::cluster_properties`]) groups properties
//! greedily, in declaration order, on the Jaccard similarity of their
//! sequential latch cones. This module keeps that signal and replaces
//! the greedy scan: it scores every property pair into an **affinity
//! graph** and clusters it by agglomerative (average-linkage) merging
//! under a group-size cap, the scheme of MPBMC-style multi-property
//! engines (Guha Roy et al.).
//!
//! The affinity of two properties is the Jaccard similarity of their
//! latch supports ([`TransitionSystem::latch_support`]), in `[0, 1]`.
//!
//! # Examples
//!
//! ```
//! use japrove_aig::Aig;
//! use japrove_core::affinity_clusters;
//! use japrove_tsys::{TransitionSystem, Word};
//!
//! // Two independent counters, two properties each: clustering must
//! // pair the properties per counter and never merge across.
//! let mut aig = Aig::new();
//! let mut sys_props = Vec::new();
//! for _ in 0..2 {
//!     let w = Word::latches(&mut aig, 3, 0);
//!     let n = w.increment(&mut aig);
//!     w.set_next(&mut aig, &n);
//!     sys_props.push(w.lt_const(&mut aig, 6));
//!     sys_props.push(w.le_const(&mut aig, 5));
//! }
//! let mut sys = TransitionSystem::new("two", aig);
//! for (i, good) in sys_props.into_iter().enumerate() {
//!     sys.add_property(format!("p{i}"), good);
//! }
//! let clusters = affinity_clusters(&sys, 16, 0.5);
//! assert_eq!(clusters.len(), 2);
//! assert_eq!(clusters[0].len(), 2);
//! ```

use crate::cluster::{jaccard, latch_supports};
use japrove_tsys::{PropertyId, TransitionSystem};

/// The pairwise property-affinity scores of one design.
///
/// Scores are symmetric, lie in `[0, 1]` and are `1.0` on the
/// diagonal. Build once, then cluster (or inspect) as often as needed.
///
/// # Examples
///
/// ```
/// use japrove_aig::Aig;
/// use japrove_core::AffinityGraph;
/// use japrove_tsys::{TransitionSystem, Word};
///
/// let mut aig = Aig::new();
/// let w = Word::latches(&mut aig, 3, 0);
/// let n = w.increment(&mut aig);
/// w.set_next(&mut aig, &n);
/// let a = w.lt_const(&mut aig, 6);
/// let b = w.le_const(&mut aig, 5);
/// let mut sys = TransitionSystem::new("cnt", aig);
/// sys.add_property("a", a);
/// sys.add_property("b", b);
/// let g = AffinityGraph::build(&sys);
/// assert_eq!(g.len(), 2);
/// assert_eq!(g.score(0, 1), 1.0); // same counter, same latch support
/// assert_eq!(g.score(0, 0), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct AffinityGraph {
    n: usize,
    /// Upper-triangle scores, row-major: entry for `i < j` at
    /// `i * n - i * (i + 1) / 2 + (j - i - 1)`.
    scores: Vec<f64>,
}

impl AffinityGraph {
    /// Scores every property pair of `sys` by the Jaccard similarity
    /// of their latch supports. Purely structural: no solver runs.
    pub fn build(sys: &TransitionSystem) -> Self {
        let supports = latch_supports(sys);
        let n = supports.len();
        let mut scores = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                scores.push(jaccard(&supports[i], &supports[j]));
            }
        }
        AffinityGraph { n, scores }
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the design has no properties.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The affinity of properties `a` and `b` (symmetric; `1.0` for
    /// `a == b`).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn score(&self, a: usize, b: usize) -> f64 {
        assert!(a < self.n && b < self.n, "property index out of range");
        if a == b {
            return 1.0;
        }
        let (i, j) = (a.min(b), a.max(b));
        self.scores[i * self.n - i * (i + 1) / 2 + (j - i - 1)]
    }
}

/// Clusters the properties of `sys` by agglomerative average-linkage
/// merging over the affinity graph.
///
/// Every property starts as a singleton; the pair of clusters with the
/// highest average pairwise affinity is merged, as long as the merged
/// size stays within `max_group_size` and the affinity is at least
/// `min_affinity`. Ties break toward the lowest property indices, so
/// clustering is deterministic. Clusters are returned with members
/// sorted and ordered by their smallest member; together they
/// partition the property set.
///
/// `min_affinity` is clamped into `[0, 1]`; a `max_group_size` of 0 is
/// treated as 1 (singletons).
///
/// # Panics
///
/// Panics if `min_affinity` is NaN.
///
/// # Examples
///
/// ```
/// use japrove_aig::Aig;
/// use japrove_core::affinity_clusters;
/// use japrove_tsys::{TransitionSystem, Word};
///
/// let mut aig = Aig::new();
/// let w = Word::latches(&mut aig, 4, 0);
/// let n = w.increment(&mut aig);
/// w.set_next(&mut aig, &n);
/// let a = w.lt_const(&mut aig, 16);
/// let b = w.le_const(&mut aig, 15);
/// let mut sys = TransitionSystem::new("cnt", aig);
/// sys.add_property("a", a);
/// sys.add_property("b", b);
/// // Same cone: one cluster — unless the size cap forbids it.
/// assert_eq!(affinity_clusters(&sys, 16, 0.5).len(), 1);
/// assert_eq!(affinity_clusters(&sys, 1, 0.5).len(), 2);
/// ```
pub fn affinity_clusters(
    sys: &TransitionSystem,
    max_group_size: usize,
    min_affinity: f64,
) -> Vec<Vec<PropertyId>> {
    agglomerate(&AffinityGraph::build(sys), max_group_size, min_affinity)
}

/// The merging loop, split out so tests can drive it on a hand-built
/// graph.
///
/// Each live cluster row caches its best merge partner (see
/// [`best_partner`]); a merge recomputes only the rows whose cached
/// partner took part in it, so picking the next merge is a scan over
/// the cached rows instead of over every pair. The merge sequence, tie
/// breaks included, is exactly that of the all-pairs scan.
fn agglomerate(
    graph: &AffinityGraph,
    max_group_size: usize,
    min_affinity: f64,
) -> Vec<Vec<PropertyId>> {
    assert!(!min_affinity.is_nan(), "min_affinity must not be NaN");
    let min_affinity = min_affinity.clamp(0.0, 1.0);
    let max_group_size = max_group_size.max(1);
    let n = graph.len();
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut alive: Vec<bool> = vec![true; n];
    // Cluster-level affinities, kept exact under average linkage via
    // the Lance–Williams update, so a merge costs O(n) instead of a
    // full pairwise rescore.
    let mut aff: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| graph.score(i, j)).collect())
        .collect();
    let mut best: Vec<Option<(usize, f64)>> = (0..n)
        .map(|i| best_partner(i, &aff, &alive, &members, max_group_size, min_affinity))
        .collect();

    loop {
        // The all-pairs scan visits pairs in (row, column) order and
        // keeps the first strict maximum: the best row, lowest row on
        // ties, then that row's best column.
        let mut pick: Option<(usize, usize, f64)> = None;
        for (i, b) in best.iter().enumerate() {
            if let Some((j, s)) = *b {
                if pick.map_or(true, |(_, _, p)| s > p) {
                    pick = Some((i, j, s));
                }
            }
        }
        let Some((i, j, _)) = pick else { break };
        let (wi, wj) = (members[i].len() as f64, members[j].len() as f64);
        for k in 0..n {
            if alive[k] && k != i && k != j {
                let merged = (wi * aff[i][k] + wj * aff[j][k]) / (wi + wj);
                aff[i][k] = merged;
                aff[k][i] = merged;
            }
        }
        let moved = std::mem::take(&mut members[j]);
        members[i].extend(moved);
        alive[j] = false;
        best[j] = None;

        // Only pairs involving `i` or `j` changed: rescan the merged
        // row and every row whose partner was `i` or `j`.
        for k in 0..n {
            if !alive[k] {
                continue;
            }
            match best[k] {
                _ if k == i => {}
                Some((p, _)) if p == i || p == j => {}
                cached if k < i => {
                    // The merged score averages two scores this row
                    // already ranked, but rounding can lift it past the
                    // cached best, or onto it with the lower column.
                    let t = aff[k][i];
                    let wins = cached.map_or(true, |(p, s)| t > s || (t == s && i < p));
                    if wins
                        && t >= min_affinity
                        && members[k].len() + members[i].len() <= max_group_size
                    {
                        best[k] = Some((i, t));
                    }
                    continue;
                }
                _ => continue,
            }
            best[k] = best_partner(k, &aff, &alive, &members, max_group_size, min_affinity);
        }
    }

    let mut clusters: Vec<Vec<PropertyId>> = members
        .into_iter()
        .zip(alive)
        .filter(|(_, live)| *live)
        .map(|(mut m, _)| {
            m.sort_unstable();
            m.into_iter().map(PropertyId::new).collect()
        })
        .collect();
    clusters.sort_by_key(|c| c[0]);
    clusters
}

/// Row `i`'s best merge partner: the live cluster `j > i` of highest
/// affinity that fits under the size cap and meets the threshold,
/// lowest `j` on ties.
fn best_partner(
    i: usize,
    aff: &[Vec<f64>],
    alive: &[bool],
    members: &[Vec<usize>],
    max_group_size: usize,
    min_affinity: f64,
) -> Option<(usize, f64)> {
    if !alive[i] {
        return None;
    }
    let mut best: Option<(usize, f64)> = None;
    for j in (i + 1)..aff.len() {
        if !alive[j] || members[i].len() + members[j].len() > max_group_size {
            continue;
        }
        let s = aff[i][j];
        if s >= min_affinity && best.map_or(true, |(_, b)| s > b) {
            best = Some((j, s));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use japrove_aig::Aig;
    use japrove_tsys::Word;

    /// Three counters; properties 0 and 2 share the first counter.
    fn sys_with_shared_cones() -> TransitionSystem {
        let mut aig = Aig::new();
        let mut words = Vec::new();
        for _ in 0..3 {
            let w = Word::latches(&mut aig, 3, 0);
            let n = w.increment(&mut aig);
            w.set_next(&mut aig, &n);
            words.push(w);
        }
        let p0a = words[0].lt_const(&mut aig, 5);
        let p1 = words[1].lt_const(&mut aig, 5);
        let p0b = words[0].le_const(&mut aig, 6);
        let p2 = words[2].lt_const(&mut aig, 5);
        let mut sys = TransitionSystem::new("three", aig);
        sys.add_property("c0_lt5", p0a);
        sys.add_property("c1_lt5", p1);
        sys.add_property("c0_le6", p0b);
        sys.add_property("c2_lt5", p2);
        sys
    }

    #[test]
    fn both_metrics_separate_independent_counters() {
        let sys = sys_with_shared_cones();
        let clusters = affinity_clusters(&sys, 16, 0.5);
        assert_eq!(clusters.len(), 3);
        let shared = &clusters[0];
        assert!(shared.contains(&PropertyId::new(0)));
        assert!(shared.contains(&PropertyId::new(2)));
    }

    #[test]
    fn clusters_partition_the_property_set() {
        let sys = sys_with_shared_cones();
        for max in [1usize, 2, 16] {
            let clusters = affinity_clusters(&sys, max, 0.3);
            let mut seen: Vec<usize> = clusters
                .iter()
                .flat_map(|c| c.iter().map(|p| p.index()))
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3], "max={max}");
            assert!(clusters.iter().all(|c| c.len() <= max.max(1)));
        }
    }

    #[test]
    fn scores_are_symmetric_and_bounded() {
        let sys = sys_with_shared_cones();
        let g = AffinityGraph::build(&sys);
        for i in 0..g.len() {
            for j in 0..g.len() {
                let s = g.score(i, j);
                assert!((0.0..=1.0).contains(&s), "{i},{j}: {s}");
                assert_eq!(s, g.score(j, i));
                let (a, b) = (PropertyId::new(i), PropertyId::new(j));
                assert_eq!(
                    s,
                    jaccard(&sys.latch_support(a), &sys.latch_support(b)),
                    "{i},{j}"
                );
            }
        }
        assert!(g.score(0, 2) > g.score(0, 1));
    }

    #[test]
    fn zero_min_affinity_merges_up_to_the_size_cap() {
        let sys = sys_with_shared_cones();
        let clusters = affinity_clusters(&sys, 4, 0.0);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 4);
        // Out-of-range thresholds are clamped, not trusted.
        let clamped = affinity_clusters(&sys, 4, -7.5);
        assert_eq!(clamped.len(), 1);
        let nothing = affinity_clusters(&sys, 4, 99.0);
        assert!(nothing.len() >= 3, "threshold above 1 clamps to 1.0");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_min_affinity_panics() {
        let sys = sys_with_shared_cones();
        let _ = affinity_clusters(&sys, 4, f64::NAN);
    }

    #[test]
    fn empty_design_yields_no_clusters() {
        let mut aig = Aig::new();
        let l = aig.add_latch(false);
        aig.set_next(l, l);
        let sys = TransitionSystem::new("empty", aig);
        assert!(affinity_clusters(&sys, 8, 0.5).is_empty());
    }

    /// The all-pairs merging loop `agglomerate` replaced, kept as the
    /// reference its merge sequence must reproduce.
    fn reference_agglomerate(
        graph: &AffinityGraph,
        max_group_size: usize,
        min_affinity: f64,
    ) -> Vec<Vec<PropertyId>> {
        let n = graph.len();
        let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut alive: Vec<bool> = vec![true; n];
        let mut aff: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| graph.score(i, j)).collect())
            .collect();
        loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..n {
                if !alive[i] {
                    continue;
                }
                for j in (i + 1)..n {
                    if !alive[j] || members[i].len() + members[j].len() > max_group_size {
                        continue;
                    }
                    let s = aff[i][j];
                    if s >= min_affinity && best.map_or(true, |(_, _, b)| s > b) {
                        best = Some((i, j, s));
                    }
                }
            }
            let Some((i, j, _)) = best else { break };
            let (wi, wj) = (members[i].len() as f64, members[j].len() as f64);
            for k in 0..n {
                if alive[k] && k != i && k != j {
                    let merged = (wi * aff[i][k] + wj * aff[j][k]) / (wi + wj);
                    aff[i][k] = merged;
                    aff[k][i] = merged;
                }
            }
            let moved = std::mem::take(&mut members[j]);
            members[i].extend(moved);
            alive[j] = false;
        }
        let mut clusters: Vec<Vec<PropertyId>> = members
            .into_iter()
            .zip(alive)
            .filter(|(_, live)| *live)
            .map(|(mut m, _)| {
                m.sort_unstable();
                m.into_iter().map(PropertyId::new).collect()
            })
            .collect();
        clusters.sort_by_key(|c| c[0]);
        clusters
    }

    #[test]
    fn cached_agglomerate_matches_the_all_pairs_reference() {
        use japrove_rng::SplitMix64;
        for case in 0..96u64 {
            let mut rng = SplitMix64::seed_from_u64(0xa991_0000 + case);
            let n = rng.gen_index(0, 48);
            // Few distinct levels make ties the common case, in the
            // raw scores and in the averages merges produce.
            let levels = rng.gen_index(2, 6) as u64;
            let scores: Vec<f64> = (0..n * n.saturating_sub(1) / 2)
                .map(|_| rng.gen_range(0, levels) as f64 / (levels - 1) as f64)
                .collect();
            let graph = AffinityGraph { n, scores };
            for max in [1usize, 2, 16] {
                for min in [0.0, 0.3, 0.5] {
                    assert_eq!(
                        agglomerate(&graph, max, min),
                        reference_agglomerate(&graph, max, min),
                        "case {case} n={n} max={max} min={min}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_agglomerate_follows_rounding_in_merged_scores() {
        // Average linkage can round the merged score of two equal
        // scores above both: (1 * 0.1 + 2 * 0.1) / 3 is the next double
        // above 0.1. A cached row must then switch to the merged
        // cluster exactly as the all-pairs scan does.
        let above = (0.1 + 2.0 * 0.1) / 3.0;
        assert!(above > 0.1);
        let graph = |n: usize, score: &dyn Fn(usize, usize) -> f64| AffinityGraph {
            n,
            scores: (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .map(|(i, j)| score(i, j))
                .collect(),
        };
        let ids = |c: &[&[usize]]| -> Vec<Vec<PropertyId>> {
            c.iter()
                .map(|m| m.iter().map(|&p| PropertyId::new(p)).collect())
                .collect()
        };
        // Clusters {3,4} then {2,3,4} form; property 0 scores 0.1 with
        // every other property, so its merged score with {2,3,4} rounds
        // above its cached best (property 1) — or, at threshold
        // `above`, gives it its first eligible partner.
        let strictly_better = graph(5, &|i, j| match (i, j) {
            (3, 4) => 1.0,
            (2, 3) | (2, 4) => 0.9,
            (0, _) => 0.1,
            _ => 0.0,
        });
        // Clusters {2,3} then {1,2,3} form; property 0's merged score
        // with them rounds up to tie its cached best (property 4), and
        // the lower column wins the tie.
        let tie = graph(5, &|i, j| match (i, j) {
            (2, 3) => 1.0,
            (1, 2) | (1, 3) => 0.9,
            (0, 4) => above,
            (0, _) => 0.1,
            _ => 0.0,
        });
        for (g, min, want) in [
            (&strictly_better, 0.1, ids(&[&[0, 2, 3, 4], &[1]])),
            (&strictly_better, above, ids(&[&[0, 2, 3, 4], &[1]])),
            (&tie, 0.1, ids(&[&[0, 1, 2, 3], &[4]])),
        ] {
            assert_eq!(reference_agglomerate(g, 16, min), want);
            assert_eq!(agglomerate(g, 16, min), want);
        }
    }
}
