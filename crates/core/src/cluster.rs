//! Structural property grouping — the related-work baseline of §12.
//!
//! The paper contrasts JA-verification with the structure-aware
//! approaches of Cabodi & Nocco (DATE'11) and Camurati et al.
//! (DIFTS'14): group properties with similar cones of influence and
//! verify each group jointly. This module implements that baseline —
//! greedy clustering by Jaccard similarity of the sequential latch
//! cones — so the two philosophies can be compared head to head
//! (`grouping_ablation` in the bench crate).
//!
//! As §12 predicts, grouping favours *correct* designs and struggles
//! when broken properties fail for different reasons with vastly
//! different counterexamples.
//!
//! This greedy grouping is kept as the *baseline*; the first-class
//! clustering mode that superseded it lives in [`crate::affinity`]
//! (the same Jaccard signal, agglomerative merging) and
//! [`crate::clustered_verify`] (per-cluster verification with
//! cluster-scoped clause re-use and a per-property fallback that can
//! never lose verdicts). Reach for [`grouped_verify`] only when you
//! specifically want the §12 comparison point.

use crate::{joint_verify, JointOptions, MultiReport};
use japrove_tsys::{PropertyId, TransitionSystem};
use std::time::Instant;

/// Options for grouped verification.
///
/// # Examples
///
/// ```
/// use japrove_core::GroupingOptions;
/// let opts = GroupingOptions::new().max_group_size(8).min_similarity(0.3);
/// assert_eq!(opts.max_group_size, 8);
/// ```
#[derive(Clone, Debug)]
pub struct GroupingOptions {
    /// Upper bound on the number of properties per group.
    pub max_group_size: usize,
    /// Minimum Jaccard similarity of latch cones for two properties to
    /// share a group.
    pub min_similarity: f64,
    /// Options for the per-group joint runs.
    pub joint: JointOptions,
}

impl GroupingOptions {
    /// Defaults: groups of up to 16, similarity threshold 0.5.
    pub fn new() -> Self {
        GroupingOptions {
            max_group_size: 16,
            min_similarity: 0.5,
            joint: JointOptions::new(),
        }
    }

    /// Sets the maximum group size.
    pub fn max_group_size(mut self, n: usize) -> Self {
        self.max_group_size = n;
        self
    }

    /// Sets the similarity threshold.
    ///
    /// The threshold is a Jaccard similarity, so only values in
    /// `[0, 1]` are meaningful; out-of-range values are clamped (below
    /// 0 every pair qualifies, above 1 none does — both silently
    /// produced degenerate groupings before this was validated).
    ///
    /// # Panics
    ///
    /// Panics if `s` is NaN.
    pub fn min_similarity(mut self, s: f64) -> Self {
        assert!(!s.is_nan(), "min_similarity must not be NaN");
        self.min_similarity = s.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-group joint options.
    pub fn joint(mut self, joint: JointOptions) -> Self {
        self.joint = joint;
        self
    }
}

impl Default for GroupingOptions {
    fn default() -> Self {
        GroupingOptions::new()
    }
}

/// The latch support of each property (its sequential cone of
/// influence restricted to latches), as sorted index lists. The
/// pipeline uses the support sizes to schedule hardest-first, and
/// affinity clustering scores property pairs by their [`jaccard`]
/// similarity.
pub(crate) fn latch_supports(sys: &TransitionSystem) -> Vec<Vec<usize>> {
    sys.property_ids().map(|p| sys.latch_support(p)).collect()
}

/// The Jaccard similarity `|a ∩ b| / |a ∪ b|` of two sorted index
/// lists; `1.0` when both are empty.
pub(crate) fn jaccard(a: &[usize], b: &[usize]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Greedily clusters properties by cone-of-influence similarity.
///
/// Properties are scanned in declaration order; each unassigned
/// property seeds a group, which absorbs later properties whose latch
/// cones are at least `min_similarity`-similar (Jaccard), up to
/// `max_group_size`.
///
/// # Examples
///
/// ```
/// use japrove_aig::Aig;
/// use japrove_core::{cluster_properties, GroupingOptions};
/// use japrove_tsys::{TransitionSystem, Word};
///
/// // Two independent counters: their properties must not share a group.
/// let mut aig = Aig::new();
/// let a = Word::latches(&mut aig, 3, 0);
/// let na = a.increment(&mut aig);
/// a.set_next(&mut aig, &na);
/// let b = Word::latches(&mut aig, 3, 0);
/// let nb = b.increment(&mut aig);
/// b.set_next(&mut aig, &nb);
/// let pa = a.lt_const(&mut aig, 5);
/// let pb = b.lt_const(&mut aig, 5);
/// let mut sys = TransitionSystem::new("two", aig);
/// sys.add_property("a_ok", pa);
/// sys.add_property("b_ok", pb);
/// let groups = cluster_properties(&sys, &GroupingOptions::new());
/// assert_eq!(groups.len(), 2);
/// ```
pub fn cluster_properties(sys: &TransitionSystem, opts: &GroupingOptions) -> Vec<Vec<PropertyId>> {
    let supports = latch_supports(sys);
    let n = sys.num_properties();
    let mut assigned = vec![false; n];
    let mut groups = Vec::new();
    for seed in 0..n {
        if assigned[seed] {
            continue;
        }
        assigned[seed] = true;
        let mut group = vec![PropertyId::new(seed)];
        for cand in (seed + 1)..n {
            if assigned[cand] || group.len() >= opts.max_group_size {
                continue;
            }
            if jaccard(&supports[seed], &supports[cand]) >= opts.min_similarity {
                assigned[cand] = true;
                group.push(PropertyId::new(cand));
            }
        }
        groups.push(group);
    }
    groups
}

/// Grouped verification: cluster by cone similarity, then verify each
/// group jointly. The related-work baseline compared against
/// JA-verification in the `grouping_ablation` experiment.
///
/// Prefer [`crate::clustered_verify`] for actual verification work: it
/// clusters by agglomerative merging, re-uses clauses at cluster
/// scope, and falls back per-property instead of leaving verdicts
/// Unknown when a group resists joint solving. This function is kept
/// as the faithful §12 comparison point.
pub fn grouped_verify(sys: &TransitionSystem, opts: &GroupingOptions) -> MultiReport {
    let started = Instant::now();
    let groups = cluster_properties(sys, opts);
    let mut report = MultiReport::new(
        sys.name(),
        format!("grouped-joint ({} groups)", groups.len()),
    );
    for group in groups {
        let sub = joint_verify(sys, &opts.joint.clone().subset(group));
        report.results.extend(sub.results);
    }
    // Restore declaration order for comparability.
    report.results.sort_by_key(|r| r.id);
    report.total_time = started.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ja_verify, SeparateOptions};
    use japrove_aig::Aig;
    use japrove_tsys::Word;

    /// Three counters; two properties on the first, one on each other.
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
        let p0b = words[0].le_const(&mut aig, 6);
        let p1 = words[1].lt_const(&mut aig, 5);
        let p2 = words[2].lt_const(&mut aig, 5);
        let mut sys = TransitionSystem::new("three", aig);
        sys.add_property("c0_lt8", p0a);
        sys.add_property("c1_lt8", p1);
        sys.add_property("c0_le7", p0b);
        sys.add_property("c2_lt8", p2);
        sys
    }

    #[test]
    fn clustering_groups_shared_cones() {
        let sys = sys_with_shared_cones();
        let groups = cluster_properties(&sys, &GroupingOptions::new());
        assert_eq!(groups.len(), 3);
        // The group seeded by property 0 contains property 2 (same cone).
        let first = &groups[0];
        assert!(first.contains(&PropertyId::new(0)));
        assert!(first.contains(&PropertyId::new(2)));
    }

    #[test]
    fn max_group_size_is_respected() {
        let sys = sys_with_shared_cones();
        let groups = cluster_properties(&sys, &GroupingOptions::new().max_group_size(1));
        assert_eq!(groups.len(), 4);
    }

    #[test]
    fn grouped_verification_finds_all_failures() {
        // The free counters all exceed their bounds: every property is
        // false globally; grouped-joint must refute each of them.
        let sys = sys_with_shared_cones();
        let grouped = grouped_verify(&sys, &GroupingOptions::new());
        assert_eq!(grouped.num_false(), 4);
    }

    #[test]
    fn grouping_vs_ja_exposes_the_section_12_contrast() {
        // "c0 <= 6" is shadowed by "c0 < 5" on the same counter: the
        // grouped (global) approach refutes it with a deeper
        // counterexample, while JA proves it *locally* — its failure is
        // never first. This is exactly the §12 observation that
        // grouping does not provide debugging-set information.
        let sys = sys_with_shared_cones();
        let grouped = grouped_verify(&sys, &GroupingOptions::new());
        let ja = ja_verify(&sys, &SeparateOptions::local());
        let shadowed = PropertyId::new(2); // c0_le6
        assert!(grouped.result(shadowed).expect("present").fails());
        assert!(ja.result(shadowed).expect("present").holds());
        // The other three failures are unshadowed: both approaches
        // refute them.
        for id in [0usize, 1, 3].map(PropertyId::new) {
            assert!(grouped.result(id).expect("present").fails());
            assert!(ja.result(id).expect("present").fails());
        }
    }

    #[test]
    fn min_similarity_is_clamped_into_the_unit_interval() {
        // Regression: out-of-range thresholds used to pass through
        // unchecked. Below 0 everything clustered together; above 1
        // (or NaN) nothing ever did.
        assert_eq!(
            GroupingOptions::new().min_similarity(-3.5).min_similarity,
            0.0
        );
        assert_eq!(
            GroupingOptions::new().min_similarity(7.0).min_similarity,
            1.0
        );
        assert_eq!(
            GroupingOptions::new().min_similarity(0.25).min_similarity,
            0.25
        );
        // A clamped threshold of 0 must still respect max_group_size.
        let sys = sys_with_shared_cones();
        let opts = GroupingOptions::new()
            .min_similarity(-1.0)
            .max_group_size(2);
        for group in cluster_properties(&sys, &opts) {
            assert!(group.len() <= 2);
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_min_similarity_panics() {
        let _ = GroupingOptions::new().min_similarity(f64::NAN);
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-9);
    }
}
