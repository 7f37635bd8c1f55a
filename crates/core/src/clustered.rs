//! Clustered verification: affinity clusters as the unit of work.
//!
//! Where [`crate::grouped_verify`] is the faithful §12 baseline
//! (greedy single-signal groups, joint verification per group, Unknown
//! verdicts left on the floor), this driver makes clustering a
//! first-class verification mode in the MPBMC spirit:
//!
//! 1. properties are clustered on the **affinity graph** of
//!    [`crate::affinity`] (latch-support Jaccard scores, agglomerative
//!    merging under `max_group_size`);
//! 2. each cluster is verified as one unit. Under global scope a
//!    multi-property cluster first gets a budgeted **joint attempt**
//!    (one aggregate proof can cover the whole cluster — the grouped
//!    win on correct designs) run on the cluster's
//!    **cone-of-influence reduction**
//!    ([`TransitionSystem::restrict_to_cone`]): affinity clusters are
//!    cone-coherent, so the aggregate is encoded and solved on a
//!    fraction of the design; certificates and counterexamples are
//!    lifted back. The attempt starts from every whole certificate the
//!    run has already proved whose latch support lies inside the cone,
//!    so later clusters re-use earlier proofs instead of re-deriving
//!    them. Any member the attempt leaves Unknown — a
//!    *cluster-level Unknown* (budget out, spurious aggregate
//!    counterexample) — **falls back to a per-property check** on the
//!    worker's warm [`japrove_ic3::SolverCtx`], so clustering can
//!    never lose verdicts to grouping;
//! 3. clause re-use is **two-level** ([`crate::TwoLevelSource`]): each
//!    cluster owns a [`crate::ClauseDb`] whose clauses members import
//!    *eagerly* (cluster siblings share cones, so their clauses
//!    transfer best), layered over the global store whose clauses
//!    arrive lazily through the engine's mid-run refresh cursor. A
//!    finished cluster publishes its store globally;
//! 4. in the parallel driver, **clusters** are the unit of dispatch:
//!    they are dealt hardest-first (total latch-support size) into the
//!    same work-stealing deques the property-level driver uses.
//!
//! Under [`Scope::Local`](crate::Scope::Local) the joint attempt is skipped (aggregate
//! verdicts are global by construction) and the driver becomes
//! JA-verification scheduled by cluster: every member gets the
//! cone-first local check, re-using the run's proofs clause by clause
//! over its cone.

use crate::{JointOptions, MultiReport, SeparateOptions, Session};
use japrove_ic3::Ic3Options;
use japrove_obs::Journal;
use japrove_sat::{BackendChoice, Budget};
use japrove_tsys::TransitionSystem;

/// Conflict allowance of the default joint-attempt engine budget. The
/// attempt exists to harvest cheap whole-cluster proofs; anything
/// harder is the fallback's job, on a warm solver with clause re-use.
const DEFAULT_JOINT_CONFLICTS: u64 = 20_000;

/// Options for clustered verification.
///
/// Mirrors [`crate::GroupingOptions`] (size cap, affinity threshold,
/// per-unit engine options) and adds the per-property fallback options
/// and the joint-attempt switch.
///
/// The proof scope of [`ClusteredOptions::separate`] is honored:
/// [`Scope::Global`](crate::Scope::Global) (the default) yields globally valid verdicts
/// comparable to `joint`/`grouped`; [`Scope::Local`](crate::Scope::Local) turns the driver
/// into JA-verification scheduled by cluster (and skips the joint
/// attempt, whose aggregate verdicts would be global). The
/// `order` field of the embedded options is ignored — clusters define
/// the schedule.
///
/// # Examples
///
/// ```
/// use japrove_core::ClusteredOptions;
///
/// let opts = ClusteredOptions::new()
///     .max_group_size(8)
///     .min_affinity(0.3);
/// assert_eq!(opts.max_group_size, 8);
/// assert_eq!(opts.min_affinity, 0.3);
/// ```
#[derive(Clone, Debug)]
pub struct ClusteredOptions {
    /// Upper bound on the number of properties per cluster.
    pub max_group_size: usize,
    /// Minimum (average-linkage) affinity for two clusters to merge.
    pub min_affinity: f64,
    /// Options for the per-property checks (scope, re-use, budgets,
    /// backend portfolio). `order` is ignored.
    pub separate: SeparateOptions,
    /// Attempt one budgeted joint proof per multi-property cluster
    /// before falling back per-property (global scope only).
    pub cluster_joint: bool,
    /// Options for the joint attempts; the default caps each aggregate
    /// engine run at a modest conflict budget so a stubborn cluster
    /// falls through to the fallback quickly.
    pub joint: JointOptions,
}

impl ClusteredOptions {
    /// Defaults: clusters of up to 16 at threshold 0.5, global-scope
    /// per-property fallback, budgeted joint attempts.
    pub fn new() -> Self {
        ClusteredOptions {
            max_group_size: 16,
            min_affinity: 0.5,
            separate: SeparateOptions::global(),
            cluster_joint: true,
            joint: JointOptions::new()
                .ic3(Ic3Options::new().budget(Budget::conflicts(DEFAULT_JOINT_CONFLICTS))),
        }
    }

    /// Sets the maximum cluster size.
    pub fn max_group_size(mut self, n: usize) -> Self {
        self.max_group_size = n;
        self
    }

    /// Sets the affinity threshold.
    ///
    /// Affinities are normalized, so only values in `[0, 1]` are
    /// meaningful; out-of-range values are clamped.
    ///
    /// # Panics
    ///
    /// Panics if `s` is NaN.
    pub fn min_affinity(mut self, s: f64) -> Self {
        assert!(!s.is_nan(), "min_affinity must not be NaN");
        self.min_affinity = s.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-property check options.
    pub fn separate(mut self, separate: SeparateOptions) -> Self {
        self.separate = separate;
        self
    }

    /// Enables or disables the per-cluster joint attempts.
    pub fn cluster_joint(mut self, yes: bool) -> Self {
        self.cluster_joint = yes;
        self
    }

    /// Sets the joint-attempt options.
    pub fn joint(mut self, joint: JointOptions) -> Self {
        self.joint = joint;
        self
    }

    /// Selects the SAT backend for both the joint attempts and the
    /// per-property fallback.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.separate.backend = backend;
        self.joint.backend = backend;
        self
    }

    /// Attaches an observability journal to the driver, its joint
    /// attempts and its per-property fallback.
    pub fn journal(mut self, journal: Journal) -> Self {
        self.separate.journal = journal.clone();
        self.joint.journal = journal;
        self
    }
}

impl Default for ClusteredOptions {
    fn default() -> Self {
        ClusteredOptions::new()
    }
}

/// Clustered verification on the current thread.
///
/// Equivalent to [`parallel_clustered_verify`] with one worker; the
/// module-level docs above describe the algorithm.
///
/// # Examples
///
/// ```
/// use japrove_aig::Aig;
/// use japrove_core::{clustered_verify, ClusteredOptions};
/// use japrove_tsys::{TransitionSystem, Word};
///
/// let mut aig = Aig::new();
/// let c = Word::latches(&mut aig, 4, 0);
/// let n = c.increment(&mut aig);
/// c.set_next(&mut aig, &n);
/// let ok = c.lt_const(&mut aig, 16);
/// let tight = c.le_const(&mut aig, 15);
/// let mut sys = TransitionSystem::new("cnt", aig);
/// sys.add_property("lt16", ok);
/// sys.add_property("le15", tight);
/// let report = clustered_verify(&sys, &ClusteredOptions::new());
/// assert_eq!(report.num_true(), 2);
/// assert_eq!(report.num_unsolved(), 0);
/// ```
pub fn clustered_verify(sys: &TransitionSystem, opts: &ClusteredOptions) -> MultiReport {
    parallel_clustered_verify(sys, 1, opts)
}

/// Clustered verification with `threads` worker threads; whole
/// clusters are the unit of the hardest-first work-stealing dispatch.
///
/// Verdicts match [`crate::separate_verify`] under the same
/// [`ClusteredOptions::separate`] options (the per-property fallback
/// guarantees nothing is lost to grouping); results are reported in
/// declaration order.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn parallel_clustered_verify(
    sys: &TransitionSystem,
    threads: usize,
    opts: &ClusteredOptions,
) -> MultiReport {
    Session::clustered(opts.clone(), threads).run(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{separate_verify, SeparateOptions};
    use japrove_aig::Aig;
    use japrove_tsys::Word;
    use std::time::Duration;

    /// Counters of varying depth with a mix of true and false
    /// properties; properties on the same counter share cones.
    fn mixed_sys() -> TransitionSystem {
        let mut aig = Aig::new();
        let mut props = Vec::new();
        for i in 0..4usize {
            let w = Word::latches(&mut aig, 3, 0);
            let n = w.increment(&mut aig);
            w.set_next(&mut aig, &n);
            let bound = if i % 2 == 0 { 8 } else { 3 + i as u64 };
            props.push((format!("p{i}a"), w.lt_const(&mut aig, bound)));
            props.push((
                format!("p{i}b"),
                w.le_const(&mut aig, bound.saturating_sub(1)),
            ));
        }
        let mut sys = TransitionSystem::new("mixed", aig);
        for (name, good) in props {
            sys.add_property(name, good);
        }
        sys
    }

    #[test]
    fn clustered_matches_separate_global() {
        let sys = mixed_sys();
        let sep = separate_verify(&sys, &SeparateOptions::global());
        let clu = clustered_verify(&sys, &ClusteredOptions::new());
        assert_eq!(sep.results.len(), clu.results.len());
        for (a, b) in sep.results.iter().zip(&clu.results) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.holds(), b.holds(), "{}", a.name);
            assert_eq!(a.fails(), b.fails(), "{}", a.name);
        }
        assert!(clu.method.contains("clustered-global"), "{}", clu.method);
    }

    #[test]
    fn local_scope_matches_ja_and_skips_the_joint_attempt() {
        let sys = mixed_sys();
        let ja = crate::ja_verify(&sys, &SeparateOptions::local());
        let clu = clustered_verify(
            &sys,
            &ClusteredOptions::new().separate(SeparateOptions::local()),
        );
        assert!(clu.method.contains("clustered-ja"), "{}", clu.method);
        for (a, b) in ja.results.iter().zip(&clu.results) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.scope, b.scope);
            assert_eq!(a.holds(), b.holds(), "{}", a.name);
            assert_eq!(a.fails(), b.fails(), "{}", a.name);
        }
    }

    #[test]
    fn starved_joint_attempt_falls_back_without_losing_verdicts() {
        // A 1-conflict joint budget cannot decide anything: every
        // verdict must come from the per-property fallback.
        let sys = mixed_sys();
        let opts = ClusteredOptions::new()
            .joint(JointOptions::new().ic3(Ic3Options::new().budget(Budget::conflicts(1))));
        let clu = clustered_verify(&sys, &opts);
        assert_eq!(clu.num_unsolved(), 0, "{clu}");
        let sep = separate_verify(&sys, &SeparateOptions::global());
        for (a, b) in sep.results.iter().zip(&clu.results) {
            assert_eq!(a.holds(), b.holds(), "{}", a.name);
            assert_eq!(a.fails(), b.fails(), "{}", a.name);
        }
    }

    #[test]
    fn parallel_clustered_agrees_with_sequential() {
        let sys = mixed_sys();
        let seq = clustered_verify(&sys, &ClusteredOptions::new());
        for threads in [2usize, 4] {
            let par = parallel_clustered_verify(&sys, threads, &ClusteredOptions::new());
            assert_eq!(seq.results.len(), par.results.len());
            for (a, b) in seq.results.iter().zip(&par.results) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.holds(), b.holds(), "x{threads}/{}", a.name);
                assert_eq!(a.fails(), b.fails(), "x{threads}/{}", a.name);
            }
        }
    }

    #[test]
    fn disabled_reuse_still_decides_everything() {
        let sys = mixed_sys();
        let opts = ClusteredOptions::new().separate(SeparateOptions::global().reuse(false));
        let clu = clustered_verify(&sys, &opts);
        assert_eq!(clu.num_unsolved(), 0);
        assert_eq!(clu.results.len(), sys.num_properties());
    }

    #[test]
    fn total_timeout_marks_remaining_unsolved() {
        let sys = mixed_sys();
        let opts = ClusteredOptions::new()
            .cluster_joint(false)
            .separate(SeparateOptions::global().total_timeout(Duration::ZERO));
        let clu = clustered_verify(&sys, &opts);
        assert_eq!(clu.num_unsolved(), sys.num_properties());
    }

    #[test]
    fn zero_properties_yield_an_empty_report() {
        let mut aig = Aig::new();
        let l = aig.add_latch(false);
        aig.set_next(l, l);
        let sys = TransitionSystem::new("empty", aig);
        let report = parallel_clustered_verify(&sys, 4, &ClusteredOptions::new());
        assert!(report.results.is_empty());
    }

    #[test]
    fn min_affinity_is_validated_like_grouping_options() {
        assert_eq!(ClusteredOptions::new().min_affinity(-2.0).min_affinity, 0.0);
        assert_eq!(ClusteredOptions::new().min_affinity(3.0).min_affinity, 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_min_affinity_panics() {
        let _ = ClusteredOptions::new().min_affinity(f64::NAN);
    }
}
