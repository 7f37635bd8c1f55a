//! JA-verification: multi-property model checking with (possibly
//! wrong) assumptions.
//!
//! This crate implements the contribution of *"Efficient Verification
//! of Multi-Property Designs (The Benefit of Wrong Assumptions)"*
//! (Goldberg, Güdemann, Kroening, Mukherjee — DATE 2018):
//!
//! * [`ja_verify`] — **JA-verification** (§4): every property `Pi` is
//!   checked *locally*, i.e. assuming all Expected-To-Hold properties
//!   in non-final states (the projection `T^P` of §2-C). Properties
//!   failing locally form the **debugging set**: design behaviours
//!   that break first and must be fixed first;
//! * [`separate_verify`] — the same driver with global proofs (the
//!   baseline of Tables V/VI) or explicit option combinations
//!   (clause re-use on/off, lifting modes of §7-A);
//! * [`joint_verify`] — the Jnt-ver aggregate-property baseline (§9),
//!   optionally with a BMC front-end;
//! * [`parallel_ja_verify`] — the embarrassingly-parallel JA driver
//!   motivated in §11;
//! * [`clustered_verify`] / [`parallel_clustered_verify`] —
//!   affinity-based property clustering with cluster-level clause
//!   re-use (the structure-aware direction §12 contrasts with JA,
//!   promoted to a first-class mode; the greedy §12 baseline survives
//!   as [`grouped_verify`]);
//! * [`mine_verify`] — property mining composed with any of the
//!   drivers above: verify a design that carries *no* spec (cf.
//!   Goldberg's incomplete-specification line of work);
//! * [`ClauseDb`] — the clauseDB of §7-B re-using strengthening
//!   clauses across properties;
//! * [`validate_debugging_set`] / [`check_local_global_agreement`] /
//!   [`verify_reuse_soundness`] — independent validators for the
//!   paper's Propositions 2–6 and the §6-B re-use condition.
//!
//! # Examples
//!
//! ```
//! use japrove_aig::Aig;
//! use japrove_core::{ja_verify, SeparateOptions};
//! use japrove_tsys::{TransitionSystem, Word};
//!
//! // A counter with one deep failure shadowed by a shallow one.
//! let mut aig = Aig::new();
//! let c = Word::latches(&mut aig, 4, 0);
//! let n = c.increment(&mut aig);
//! c.set_next(&mut aig, &n);
//! let shallow = c.lt_const(&mut aig, 2);
//! let deep = c.lt_const(&mut aig, 9);
//! let mut sys = TransitionSystem::new("demo", aig);
//! let p_shallow = sys.add_property("lt2", shallow);
//! sys.add_property("lt9", deep);
//!
//! let report = ja_verify(&sys, &SeparateOptions::local());
//! // Only the shallow failure is in the debugging set; the deep
//! // failure holds locally (it cannot break first).
//! assert_eq!(report.debugging_set(), vec![p_shallow]);
//! ```

pub mod affinity;
mod cluster;
mod clustered;
mod debug_set;
mod enumerate;
mod joint;
mod mine;
mod parallel;
mod pipeline;
mod report;
mod reuse;
mod separate;
mod verdict_cache;

pub use affinity::{affinity_clusters, AffinityGraph};
pub use cluster::{cluster_properties, grouped_verify, GroupingOptions};
pub use clustered::{clustered_verify, parallel_clustered_verify, ClusteredOptions};
pub use debug_set::{check_local_global_agreement, validate_debugging_set, verify_reuse_soundness};
pub use enumerate::{
    enumerate_report, CountEstimate, EnumOptions, EnumeratedCex, Projection, PropertyEnumeration,
};
pub use joint::{joint_verify, JointOptions};
pub use mine::{mine_verify, MinedVerification};
pub use parallel::parallel_ja_verify;
pub use pipeline::{Plan, PlanUnit, Session};
pub use report::{MultiReport, PropertyResult, Scope};
pub use reuse::{ClauseDb, TwoLevelSource};
pub use separate::{
    check_one_property, ja_verify, local_assumptions, separate_verify, SeparateOptions,
};
pub use verdict_cache::{CacheEntry, VerdictCache};

#[cfg(test)]
mod tests {
    use super::*;
    use japrove_aig::Aig;
    use japrove_tsys::{Expectation, PropertyId, TransitionSystem, Word};

    /// The paper's Example 1 counter at a given width.
    fn paper_counter(bits: usize) -> (TransitionSystem, PropertyId, PropertyId) {
        let mut aig = Aig::new();
        let enable = aig.add_input();
        let req = aig.add_input();
        let rval = 1u64 << (bits - 1);
        let val = Word::latches(&mut aig, bits, 0);
        let at_rval = val.eq_const(&mut aig, rval);
        let reset = aig.and(at_rval, req); // buggy line
        let inc = val.increment(&mut aig);
        let zero = Word::constant(&mut aig, 0, bits);
        let updated = Word::mux(&mut aig, reset, &zero, &inc);
        let next = Word::mux(&mut aig, enable, &updated, &val);
        val.set_next(&mut aig, &next);
        let le_rval = val.le_const(&mut aig, rval);
        let mut sys = TransitionSystem::new("counter", aig);
        let p0 = sys.add_property("P0_req_high", req);
        let p1 = sys.add_property("P1_val_le_rval", le_rval);
        (sys, p0, p1)
    }

    #[test]
    fn paper_example_debugging_set_is_p0() {
        let (sys, p0, p1) = paper_counter(8);
        let report = ja_verify(&sys, &SeparateOptions::local());
        assert_eq!(report.debugging_set(), vec![p0]);
        let r1 = report.result(p1).expect("p1 present");
        assert!(r1.holds(), "P1 holds locally");
        let assumed = local_assumptions(&sys);
        validate_debugging_set(&sys, &report, &assumed).expect("guarantees");
    }

    #[test]
    fn joint_finds_both_failures() {
        let (sys, p0, p1) = paper_counter(4);
        let report = joint_verify(&sys, &JointOptions::new());
        assert!(report.result(p0).expect("p0").fails());
        assert!(report.result(p1).expect("p1").fails());
        assert_eq!(report.num_false(), 2);
    }

    #[test]
    fn joint_with_bmc_frontend_agrees() {
        let (sys, p0, p1) = paper_counter(4);
        let report = joint_verify(&sys, &JointOptions::new().bmc_depth(16));
        assert!(report.result(p0).expect("p0").fails());
        assert!(report.result(p1).expect("p1").fails());
    }

    #[test]
    fn etf_properties_are_not_assumed() {
        // P0 marked Expected-To-Fail: proving P1 locally must then NOT
        // assume P0, so P1's deep failure is found.
        let mut aig = Aig::new();
        let enable = aig.add_input();
        let req = aig.add_input();
        let rval = 1u64 << 3;
        let val = Word::latches(&mut aig, 4, 0);
        let at_rval = val.eq_const(&mut aig, rval);
        let reset = aig.and(at_rval, req);
        let inc = val.increment(&mut aig);
        let zero = Word::constant(&mut aig, 0, 4);
        let updated = Word::mux(&mut aig, reset, &zero, &inc);
        let next = Word::mux(&mut aig, enable, &updated, &val);
        val.set_next(&mut aig, &next);
        let le_rval = val.le_const(&mut aig, rval);
        let mut sys = TransitionSystem::new("counter_etf", aig);
        let p0 = sys.add_property_with("P0_req_high", req, Expectation::Fail);
        let p1 = sys.add_property("P1_val_le_rval", le_rval);
        assert_eq!(local_assumptions(&sys), vec![p1]);
        let report = ja_verify(&sys, &SeparateOptions::local());
        // Without the P0 assumption, P1 fails (its own failure is real).
        assert!(report.result(p1).expect("p1").fails());
        assert!(report.result(p0).expect("p0").fails());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let (sys, _, _) = paper_counter(6);
        let opts = SeparateOptions::local();
        let seq = ja_verify(&sys, &opts);
        let par = parallel_ja_verify(&sys, 3, &opts);
        for (a, b) in seq.results.iter().zip(&par.results) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.holds(), b.holds(), "{}", a.name);
            assert_eq!(a.fails(), b.fails(), "{}", a.name);
        }
    }

    #[test]
    fn parallel_honors_global_scope() {
        // Regression: parallel_ja_verify used to overwrite the scope
        // with Local, so a requested parallel-global run silently
        // proved under assumptions. Verdicts and recorded scope must
        // match the sequential separate-global driver.
        let (sys, _, _) = paper_counter(6);
        let opts = SeparateOptions::global();
        let seq = separate_verify(&sys, &opts);
        let par = parallel_ja_verify(&sys, 3, &opts);
        assert!(par.method.contains("separate-global"), "{}", par.method);
        for (a, b) in seq.results.iter().zip(&par.results) {
            assert_eq!(a.id, b.id);
            assert_eq!(b.scope, Scope::Global, "{}", b.name);
            assert_eq!(a.holds(), b.holds(), "{}", a.name);
            assert_eq!(a.fails(), b.fails(), "{}", a.name);
        }
        // The decisive difference to a local run: P1's deep failure is
        // real globally, while JA proves it locally.
        let local = parallel_ja_verify(&sys, 3, &SeparateOptions::local());
        let p1 = PropertyId::new(1);
        assert!(par.result(p1).expect("p1").fails());
        assert!(local.result(p1).expect("p1").holds());
    }

    #[test]
    fn joint_bmc_front_end_running_dry_falls_through_to_ic3() {
        // Regression: a BMC front-end that exhausted its budget used to
        // mark every remaining property Unknown without ever running
        // IC3. With a 1-conflict allowance the front-end runs dry on
        // the deep failure; IC3 must still decide both properties.
        use japrove_ic3::{Bmc, BmcResult};
        use japrove_sat::Budget;
        let (sys, p0, p1) = paper_counter(4);
        // The front-end really does run dry under this allowance (so
        // the old code would have reported p1 as Unknown).
        let dry = Bmc::new(&sys).run(&[p1], 8, Budget::conflicts(1));
        assert!(matches!(dry, BmcResult::Unknown(_)), "{dry:?}");
        let report = joint_verify(&sys, &JointOptions::new().bmc_depth(8).bmc_conflicts(1));
        assert_eq!(report.num_unsolved(), 0, "{report}");
        assert!(report.result(p0).expect("p0").fails());
        assert!(report.result(p1).expect("p1").fails());
        let cex = report
            .result(p1)
            .and_then(|r| r.counterexample())
            .expect("p1 cex");
        assert_eq!(cex.depth, 9);
    }

    #[test]
    fn spurious_aggregate_counterexamples_degrade_to_unknown() {
        use japrove_ic3::Counterexample;
        use japrove_tsys::{complete_trace, Trace};
        // A counter whose property never fails: a trace of it falsifies
        // nothing, and a malformed trace does not replay. Both cases
        // must yield an empty refutation set (the driver then reports
        // Unknown(SpuriousCex) instead of panicking).
        let mut aig = Aig::new();
        let c = Word::latches(&mut aig, 3, 0);
        let n = c.increment(&mut aig);
        c.set_next(&mut aig, &n);
        let ok = c.lt_const(&mut aig, 8);
        let mut sys = TransitionSystem::new("cnt", aig);
        let p = sys.add_property("always", ok);
        let good_trace = complete_trace(&sys, vec![vec![], vec![]]);
        let harmless = Counterexample {
            trace: good_trace,
            depth: 1,
        };
        assert!(crate::joint::falsified_by_replay(&sys, &[p], &harmless).is_empty());
        let unreplayable = Counterexample {
            trace: Trace::new(vec![vec![true]], vec![vec![]]),
            depth: 0,
        };
        assert!(crate::joint::falsified_by_replay(&sys, &[p], &unreplayable).is_empty());
    }

    #[test]
    fn per_property_backend_overrides_are_applied() {
        use japrove_sat::BackendChoice;
        let (sys, p0, p1) = paper_counter(5);
        let plain = ja_verify(&sys, &SeparateOptions::local());
        let opts = SeparateOptions::local()
            .backend(BackendChoice::Cdcl)
            .backend_for(p1, BackendChoice::ChronoCdcl);
        assert_eq!(opts.backend_of(p0), BackendChoice::Cdcl);
        assert_eq!(opts.backend_of(p1), BackendChoice::ChronoCdcl);
        let mixed = ja_verify(&sys, &opts);
        for (a, b) in plain.results.iter().zip(&mixed.results) {
            assert_eq!(a.holds(), b.holds(), "{}", a.name);
            assert_eq!(a.fails(), b.fails(), "{}", a.name);
        }
        assert_eq!(mixed.result(p0).expect("p0").backend, BackendChoice::Cdcl);
        assert_eq!(
            mixed.result(p1).expect("p1").backend,
            BackendChoice::ChronoCdcl
        );
        // Whole-run backend switch agrees too (joint driver included).
        let chrono = joint_verify(
            &sys,
            &JointOptions::new().backend(BackendChoice::ChronoCdcl),
        );
        assert_eq!(chrono.num_false(), 2);
        assert!(chrono
            .results
            .iter()
            .all(|r| r.backend == BackendChoice::ChronoCdcl));
    }

    #[test]
    fn reuse_flag_changes_method_label_not_verdicts() {
        let (sys, _, _) = paper_counter(5);
        let with = separate_verify(&sys, &SeparateOptions::local().reuse(true));
        let without = separate_verify(&sys, &SeparateOptions::local().reuse(false));
        assert_ne!(with.method, without.method);
        for (a, b) in with.results.iter().zip(&without.results) {
            assert_eq!(a.holds(), b.holds());
            assert_eq!(a.fails(), b.fails());
        }
    }

    #[test]
    fn property_order_is_respected() {
        let (sys, p0, p1) = paper_counter(4);
        let report = ja_verify(&sys, &SeparateOptions::local().order(vec![p1, p0]));
        assert_eq!(report.results[0].id, p1);
        assert_eq!(report.results[1].id, p0);
    }

    #[test]
    fn total_timeout_marks_remaining_unsolved() {
        use std::time::Duration;
        let (sys, _, _) = paper_counter(6);
        let report = ja_verify(
            &sys,
            &SeparateOptions::local().total_timeout(Duration::ZERO),
        );
        assert_eq!(report.num_unsolved(), 2);
    }
}
