//! Affinity-based property clustering — the MPBMC direction.
//!
//! The §12 baseline ([`crate::cluster_properties`]) groups properties greedily on
//! a single signal (Jaccard similarity of sequential latch cones).
//! This module promotes clustering to a first-class citizen: it builds
//! a property **affinity graph** from several structural and observed
//! signals and clusters it by agglomerative (average-linkage) merging
//! under a group-size cap, the scheme of MPBMC-style multi-property
//! engines (Guha Roy et al.).
//!
//! The signals, each normalized to `[0, 1]`:
//!
//! * **sequential-COI Jaccard** — overlap of the latch supports, the
//!   baseline signal;
//! * **COI-size ratio** — `min/max` of the sequential cone sizes, so a
//!   tiny property is not merged into a giant one just because its
//!   cone is a subset;
//! * **shared-output structure** — Jaccard overlap of the
//!   *combinational* cones of the property outputs
//!   ([`japrove_aig::Cone::overlap`]): properties computed from the
//!   same gates keep sharing reasoning even when their latch supports
//!   barely differ;
//! * **observed UNSAT-core overlap** — a shallow probing BMC pass
//!   ([`japrove_ic3::Bmc::probe_core`]) records which latch *reset
//!   bits* each property's refutations actually lean on; overlapping
//!   cores are direct evidence that two proofs will share clauses.
//!
//! [`AffinityMetric::Jaccard`] uses the first signal alone (the
//! baseline metric on the new clustering algorithm);
//! [`AffinityMetric::Hybrid`] blends all four.
//!
//! # Examples
//!
//! ```
//! use japrove_aig::Aig;
//! use japrove_core::{affinity_clusters, AffinityMetric};
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
//! for metric in [AffinityMetric::Jaccard, AffinityMetric::Hybrid] {
//!     let clusters = affinity_clusters(&sys, metric, 16, 0.5);
//!     assert_eq!(clusters.len(), 2);
//!     assert_eq!(clusters[0].len(), 2);
//! }
//! ```

use crate::cluster::jaccard;
use japrove_aig::Cone;
use japrove_ic3::Bmc;
use japrove_sat::{BackendChoice, Budget};
use japrove_tsys::{PropertyId, TransitionSystem};
use std::fmt;
use std::str::FromStr;

/// Which affinity signal(s) score a property pair.
///
/// # Examples
///
/// ```
/// use japrove_core::AffinityMetric;
/// assert_eq!("hybrid".parse(), Ok(AffinityMetric::Hybrid));
/// assert_eq!(AffinityMetric::Jaccard.to_string(), "jaccard");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AffinityMetric {
    /// Sequential-COI Jaccard only: the §12 baseline signal on the
    /// agglomerative algorithm.
    Jaccard,
    /// All four signals blended (COI Jaccard, COI-size ratio,
    /// shared-output structure, probed UNSAT-core overlap). The
    /// default.
    #[default]
    Hybrid,
}

impl AffinityMetric {
    /// Short identifier, matching the CLI `--affinity` values.
    pub fn name(self) -> &'static str {
        match self {
            AffinityMetric::Jaccard => "jaccard",
            AffinityMetric::Hybrid => "hybrid",
        }
    }
}

impl fmt::Display for AffinityMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AffinityMetric {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jaccard" => Ok(AffinityMetric::Jaccard),
            "hybrid" => Ok(AffinityMetric::Hybrid),
            other => Err(format!(
                "unknown affinity metric '{other}' (available: jaccard, hybrid)"
            )),
        }
    }
}

/// Depth of the probing BMC pass behind the UNSAT-core signal. Shallow
/// on purpose: the probe is a structural fingerprint, not a
/// verification attempt, and deep queries would dominate clustering
/// time.
const PROBE_DEPTH: usize = 2;

/// Conflict allowance per probe query; a query that runs dry simply
/// contributes no core.
const PROBE_CONFLICTS: u64 = 500;

/// Hybrid blend weights: sequential-COI Jaccard, COI-size ratio,
/// shared combinational structure, probed core overlap. They sum to 1
/// so hybrid scores stay in `[0, 1]` and thresholds mean the same
/// thing under both metrics.
const W_SEQ: f64 = 0.4;
const W_SIZE: f64 = 0.2;
const W_COMB: f64 = 0.2;
const W_CORE: f64 = 0.2;

/// The pairwise property-affinity scores of one design.
///
/// Scores are symmetric, lie in `[0, 1]` and are `1.0` on the
/// diagonal. Build once, then cluster (or inspect) as often as needed.
///
/// # Examples
///
/// ```
/// use japrove_aig::Aig;
/// use japrove_core::{AffinityGraph, AffinityMetric};
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
/// let g = AffinityGraph::build(&sys, AffinityMetric::Hybrid);
/// assert_eq!(g.len(), 2);
/// assert!(g.score(0, 1) > 0.9); // same counter, same cone
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
    /// Scores every property pair of `sys` under `metric`, probing
    /// (for the hybrid metric) on the default SAT backend.
    pub fn build(sys: &TransitionSystem, metric: AffinityMetric) -> Self {
        AffinityGraph::build_with(sys, metric, BackendChoice::default())
    }

    /// Scores every property pair of `sys` under `metric`.
    ///
    /// The Jaccard metric is purely structural. The hybrid metric
    /// additionally runs the shallow probing BMC pass once per
    /// property (bounded depth and conflicts) on `backend`, so
    /// building it costs a little solver time up front — repaid by
    /// better clusters.
    pub fn build_with(
        sys: &TransitionSystem,
        metric: AffinityMetric,
        backend: BackendChoice,
    ) -> Self {
        let aig = sys.aig();
        let n = sys.num_properties();
        let seq_cones: Vec<Cone> = sys
            .properties()
            .iter()
            .map(|p| Cone::sequential(aig, [p.good]))
            .collect();
        let supports: Vec<Vec<usize>> = seq_cones
            .iter()
            .map(|cone| {
                aig.latches()
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| cone.contains(l.node))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();

        let (comb_cones, cores) = match metric {
            AffinityMetric::Jaccard => (Vec::new(), Vec::new()),
            AffinityMetric::Hybrid => {
                let comb: Vec<Cone> = sys
                    .properties()
                    .iter()
                    .map(|p| Cone::combinational(aig, [p.good]))
                    .collect();
                let mut bmc = Bmc::probing(sys, backend);
                let cores: Vec<Vec<usize>> = sys
                    .property_ids()
                    .map(|p| bmc.probe_core(p, PROBE_DEPTH, Budget::conflicts(PROBE_CONFLICTS)))
                    .collect();
                (comb, cores)
            }
        };

        let mut scores = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                let s_seq = jaccard(&supports[i], &supports[j]);
                let score = match metric {
                    AffinityMetric::Jaccard => s_seq,
                    AffinityMetric::Hybrid => {
                        let (a, b) = (seq_cones[i].size(), seq_cones[j].size());
                        let s_size = if a.max(b) == 0 {
                            1.0
                        } else {
                            a.min(b) as f64 / a.max(b) as f64
                        };
                        let (ca, cb) = (&comb_cones[i], &comb_cones[j]);
                        let inter = ca.overlap(cb);
                        let union = ca.size() + cb.size() - inter;
                        let s_comb = if union == 0 {
                            1.0
                        } else {
                            inter as f64 / union as f64
                        };
                        // An empty core means the probe learned nothing
                        // about that property; fall back to the
                        // structural signal instead of dragging the
                        // pair apart.
                        let s_core = if cores[i].is_empty() || cores[j].is_empty() {
                            s_seq
                        } else {
                            jaccard(&cores[i], &cores[j])
                        };
                        W_SEQ * s_seq + W_SIZE * s_size + W_COMB * s_comb + W_CORE * s_core
                    }
                };
                scores.push(score);
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
/// use japrove_core::{affinity_clusters, AffinityMetric};
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
/// assert_eq!(affinity_clusters(&sys, AffinityMetric::Hybrid, 16, 0.5).len(), 1);
/// assert_eq!(affinity_clusters(&sys, AffinityMetric::Hybrid, 1, 0.5).len(), 2);
/// ```
pub fn affinity_clusters(
    sys: &TransitionSystem,
    metric: AffinityMetric,
    max_group_size: usize,
    min_affinity: f64,
) -> Vec<Vec<PropertyId>> {
    let graph = AffinityGraph::build(sys, metric);
    agglomerate(&graph, max_group_size, min_affinity)
}

/// [`affinity_clusters`] with an explicit SAT backend for the hybrid
/// metric's probing pass (the clustered driver threads its configured
/// backend through here so `--backend` really covers every engine
/// run).
pub fn affinity_clusters_with(
    sys: &TransitionSystem,
    metric: AffinityMetric,
    max_group_size: usize,
    min_affinity: f64,
    backend: BackendChoice,
) -> Vec<Vec<PropertyId>> {
    let graph = AffinityGraph::build_with(sys, metric, backend);
    agglomerate(&graph, max_group_size, min_affinity)
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
        for metric in [AffinityMetric::Jaccard, AffinityMetric::Hybrid] {
            let clusters = affinity_clusters(&sys, metric, 16, 0.5);
            assert_eq!(clusters.len(), 3, "{metric}");
            let shared = &clusters[0];
            assert!(shared.contains(&PropertyId::new(0)), "{metric}");
            assert!(shared.contains(&PropertyId::new(2)), "{metric}");
        }
    }

    #[test]
    fn clusters_partition_the_property_set() {
        let sys = sys_with_shared_cones();
        for metric in [AffinityMetric::Jaccard, AffinityMetric::Hybrid] {
            for max in [1usize, 2, 16] {
                let clusters = affinity_clusters(&sys, metric, max, 0.3);
                let mut seen: Vec<usize> = clusters
                    .iter()
                    .flat_map(|c| c.iter().map(|p| p.index()))
                    .collect();
                seen.sort_unstable();
                assert_eq!(seen, vec![0, 1, 2, 3], "{metric} max={max}");
                assert!(clusters.iter().all(|c| c.len() <= max.max(1)));
            }
        }
    }

    #[test]
    fn scores_are_symmetric_and_bounded() {
        let sys = sys_with_shared_cones();
        for metric in [AffinityMetric::Jaccard, AffinityMetric::Hybrid] {
            let g = AffinityGraph::build(&sys, metric);
            for i in 0..g.len() {
                for j in 0..g.len() {
                    let s = g.score(i, j);
                    assert!((0.0..=1.0).contains(&s), "{metric} {i},{j}: {s}");
                    assert_eq!(s, g.score(j, i));
                }
            }
            assert!(g.score(0, 2) > g.score(0, 1), "{metric}");
        }
    }

    #[test]
    fn zero_min_affinity_merges_up_to_the_size_cap() {
        let sys = sys_with_shared_cones();
        let clusters = affinity_clusters(&sys, AffinityMetric::Jaccard, 4, 0.0);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 4);
        // Out-of-range thresholds are clamped, not trusted.
        let clamped = affinity_clusters(&sys, AffinityMetric::Jaccard, 4, -7.5);
        assert_eq!(clamped.len(), 1);
        let nothing = affinity_clusters(&sys, AffinityMetric::Jaccard, 4, 99.0);
        assert!(nothing.len() >= 3, "threshold above 1 clamps to 1.0");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_min_affinity_panics() {
        let sys = sys_with_shared_cones();
        let _ = affinity_clusters(&sys, AffinityMetric::Jaccard, 4, f64::NAN);
    }

    #[test]
    fn empty_design_yields_no_clusters() {
        let mut aig = Aig::new();
        let l = aig.add_latch(false);
        aig.set_next(l, l);
        let sys = TransitionSystem::new("empty", aig);
        assert!(affinity_clusters(&sys, AffinityMetric::Hybrid, 8, 0.5).is_empty());
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

    #[test]
    fn metric_names_round_trip() {
        for m in [AffinityMetric::Jaccard, AffinityMetric::Hybrid] {
            assert_eq!(m.name().parse::<AffinityMetric>(), Ok(m));
        }
        assert!("cosine".parse::<AffinityMetric>().is_err());
        assert_eq!(AffinityMetric::default(), AffinityMetric::Hybrid);
    }
}
