//! Cross-engine consistency: BMC, IC3 and the multi-property drivers
//! must agree on randomly generated small designs, every
//! counterexample must replay, and every certificate must re-verify.

use japrove::core::{
    clustered_verify, ja_verify, parallel_clustered_verify, parallel_ja_verify, separate_verify,
    ClusteredOptions, JointOptions, SeparateOptions,
};
use japrove::genbench::FamilyParams;
use japrove::ic3::{verify_certificate, Bmc, BmcResult, CheckOutcome, Ic3, Ic3Options};
use japrove::sat::{BackendChoice, Budget};
use japrove::tsys::replay;

fn random_designs() -> Vec<japrove::genbench::GeneratedDesign> {
    (0..6u64)
        .map(|seed| {
            FamilyParams::new(format!("rnd{seed}"), seed)
                .easy_true(1 + (seed as usize % 3))
                .chain(1 + (seed as usize % 3), 4 + seed % 5)
                .shallow_fails(if seed % 2 == 0 {
                    vec![2 + seed % 4]
                } else {
                    vec![]
                })
                .shadow_group(2, vec![6 + seed % 7])
                .generate()
        })
        .collect()
}

#[test]
fn ic3_agrees_with_bmc_on_every_property() {
    for design in random_designs() {
        let sys = &design.sys;
        for p in sys.property_ids() {
            let ic3_outcome = Ic3::new(sys, p, Ic3Options::new()).run();
            let mut bmc = Bmc::new(sys);
            let bmc_outcome = bmc.run(&[p], 24, Budget::unlimited());
            match (&ic3_outcome, &bmc_outcome) {
                (CheckOutcome::Falsified(cex), BmcResult::Cex { cex: bcex, .. }) => {
                    assert_eq!(
                        cex.depth,
                        bcex.depth,
                        "{}/{}: IC3 and BMC disagree on CEX depth",
                        sys.name(),
                        sys.property(p).name
                    );
                }
                (CheckOutcome::Proved(cert), BmcResult::NoCexUpTo(24)) => {
                    verify_certificate(sys, p, &[], cert).unwrap_or_else(|e| {
                        panic!(
                            "{}/{}: bad certificate: {e}",
                            sys.name(),
                            sys.property(p).name
                        )
                    });
                }
                (a, b) => panic!(
                    "{}/{}: inconsistent verdicts: ic3={a:?} bmc={b:?}",
                    sys.name(),
                    sys.property(p).name
                ),
            }
        }
    }
}

#[test]
fn backend_differential_matrix_agrees_on_every_property() {
    // Every generated system is checked with every registered SAT
    // backend; the verdicts must agree, every counterexample must
    // replay and every certificate must re-verify, whichever backend
    // produced it.
    for design in random_designs() {
        let sys = &design.sys;
        for p in sys.property_ids() {
            let mut verdicts: Vec<(BackendChoice, bool)> = Vec::new();
            for &backend in BackendChoice::ALL {
                let outcome = Ic3::new(sys, p, Ic3Options::new().backend(backend)).run();
                match &outcome {
                    CheckOutcome::Falsified(cex) => {
                        let r = replay(sys, &cex.trace).unwrap_or_else(|e| {
                            panic!("{}/{}/{backend}: {e}", sys.name(), sys.property(p).name)
                        });
                        assert!(
                            r.violates_finally(p),
                            "{}/{}/{backend}: cex does not violate the property",
                            sys.name(),
                            sys.property(p).name
                        );
                    }
                    CheckOutcome::Proved(cert) => {
                        verify_certificate(sys, p, &[], cert).unwrap_or_else(|e| {
                            panic!("{}/{}/{backend}: {e}", sys.name(), sys.property(p).name)
                        });
                    }
                    CheckOutcome::Unknown(r) => panic!(
                        "{}/{}/{backend}: unexpected unknown ({r})",
                        sys.name(),
                        sys.property(p).name
                    ),
                }
                verdicts.push((backend, outcome.is_proved()));
            }
            let (b0, v0) = verdicts[0];
            for &(b, v) in &verdicts[1..] {
                assert_eq!(
                    v0,
                    v,
                    "{}/{}: {b0} and {b} disagree",
                    sys.name(),
                    sys.property(p).name
                );
            }
        }
    }
}

#[test]
fn bmc_backends_agree_on_depths() {
    // BMC searches depths in order, so every backend must report the
    // *same* minimal counterexample depth (or the same absence).
    for design in random_designs().into_iter().take(3) {
        let sys = &design.sys;
        for p in sys.property_ids() {
            let mut depths: Vec<(BackendChoice, Option<usize>)> = Vec::new();
            for &backend in BackendChoice::ALL {
                let mut bmc = Bmc::with_backend(sys, backend);
                let depth = match bmc.run(&[p], 16, Budget::unlimited()) {
                    BmcResult::Cex { cex, .. } => Some(cex.depth),
                    BmcResult::NoCexUpTo(16) => None,
                    other => panic!("{}/{backend}: {other:?}", sys.property(p).name),
                };
                depths.push((backend, depth));
            }
            let (b0, d0) = depths[0];
            for &(b, d) in &depths[1..] {
                assert_eq!(d0, d, "{}: {b0} vs {b}", sys.property(p).name);
            }
        }
    }
}

#[test]
fn driver_verdicts_are_backend_independent() {
    // The full JA driver (local proofs, clause re-use, spurious-CEX
    // retry) must reach the same verdicts on every backend, including
    // a mixed per-property portfolio assignment.
    for design in random_designs().into_iter().take(3) {
        let sys = &design.sys;
        let baseline = ja_verify(sys, &SeparateOptions::local());
        for &backend in &BackendChoice::ALL[1..] {
            let report = ja_verify(sys, &SeparateOptions::local().backend(backend));
            for (a, b) in baseline.results.iter().zip(&report.results) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.holds(), b.holds(), "{}/{}/{backend}", sys.name(), a.name);
                assert_eq!(a.fails(), b.fails(), "{}/{}/{backend}", sys.name(), a.name);
            }
        }
        // Portfolio: round-robin backend assignment over properties.
        let mut opts = SeparateOptions::local();
        for (i, p) in sys.property_ids().enumerate() {
            opts = opts.backend_for(p, BackendChoice::ALL[i % BackendChoice::ALL.len()]);
        }
        let portfolio = ja_verify(sys, &opts);
        for (a, b) in baseline.results.iter().zip(&portfolio.results) {
            assert_eq!(
                a.holds(),
                b.holds(),
                "{}/{} (portfolio)",
                sys.name(),
                a.name
            );
            assert_eq!(
                a.fails(),
                b.fails(),
                "{}/{} (portfolio)",
                sys.name(),
                a.name
            );
            assert_eq!(b.backend, opts.backend_of(b.id));
        }
    }
}

#[test]
fn parallel_verdicts_match_sequential_under_stress() {
    // The work-stealing driver must be verdict-deterministic: for every
    // generated design, every thread count and both re-use settings,
    // `parallel_ja_verify` agrees with the sequential `ja_verify`.
    // Scheduling order and clause exchange may differ run to run;
    // verdicts may not.
    for design in random_designs() {
        let sys = &design.sys;
        for reuse in [true, false] {
            let opts = SeparateOptions::local().reuse(reuse);
            let seq = ja_verify(sys, &opts);
            for threads in [1usize, 2, 8] {
                let par = parallel_ja_verify(sys, threads, &opts);
                assert_eq!(seq.results.len(), par.results.len());
                for (a, b) in seq.results.iter().zip(&par.results) {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.scope, b.scope);
                    assert_eq!(
                        a.holds(),
                        b.holds(),
                        "{}/{}: reuse={reuse} threads={threads}",
                        sys.name(),
                        a.name
                    );
                    assert_eq!(
                        a.fails(),
                        b.fails(),
                        "{}/{}: reuse={reuse} threads={threads}",
                        sys.name(),
                        a.name
                    );
                }
            }
        }
    }
}

#[test]
fn clustered_matches_separate_on_every_design() {
    // Verdict parity of the clustered driver against plain separate
    // verification, over every generated design × both scopes. The
    // designs mix valid and failing properties (including shadowed
    // ones, where local and global verdicts differ), so this also pins
    // down that clustered-local is JA and clustered-global is the
    // global baseline.
    for design in random_designs() {
        let sys = &design.sys;
        let global = separate_verify(sys, &SeparateOptions::global());
        let clustered = clustered_verify(sys, &ClusteredOptions::new());
        assert_eq!(global.results.len(), clustered.results.len());
        for (a, b) in global.results.iter().zip(&clustered.results) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.holds(), b.holds(), "{}/{} (global)", sys.name(), a.name);
            assert_eq!(a.fails(), b.fails(), "{}/{} (global)", sys.name(), a.name);
        }

        let local = ja_verify(sys, &SeparateOptions::local());
        let clustered_local = clustered_verify(
            sys,
            &ClusteredOptions::new().separate(SeparateOptions::local()),
        );
        for (a, b) in local.results.iter().zip(&clustered_local.results) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.scope, b.scope);
            assert_eq!(a.holds(), b.holds(), "{}/{} (local)", sys.name(), a.name);
            assert_eq!(a.fails(), b.fails(), "{}/{} (local)", sys.name(), a.name);
        }
    }
}

#[test]
fn clustered_fallback_recovers_every_verdict_on_a_mixed_family() {
    // A mixed valid/failing family where the per-cluster joint attempt
    // is starved (1-conflict budget): every verdict must come from the
    // per-property fallback, so nothing may be left Unknown and parity
    // with the separate baseline must still hold — in the parallel
    // driver too.
    use japrove::ic3::Ic3Options;
    use japrove::sat::Budget;
    let design = FamilyParams::new("mixed_fallback", 23)
        .easy_true(3)
        .ring(5, 4)
        .chain(2, 5)
        .shallow_fails(vec![2, 3])
        .shadow_group(2, vec![9])
        .generate();
    let sys = &design.sys;
    let separate = separate_verify(sys, &SeparateOptions::global());
    assert!(separate.num_false() >= 3, "family must mix verdicts");
    assert!(separate.num_true() >= 3, "family must mix verdicts");
    let starved = ClusteredOptions::new()
        .joint(JointOptions::new().ic3(Ic3Options::new().budget(Budget::conflicts(1))));
    for threads in [1usize, 3] {
        let report = parallel_clustered_verify(sys, threads, &starved);
        assert_eq!(report.num_unsolved(), 0, "x{threads}: {report}");
        for (a, b) in separate.results.iter().zip(&report.results) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.holds(), b.holds(), "{} x{threads}", a.name);
            assert_eq!(a.fails(), b.fails(), "{} x{threads}", a.name);
        }
    }
}

#[test]
fn clustered_certificates_and_counterexamples_check_out_on_the_original_design() {
    // The joint attempts run on cone reductions; the report must still
    // carry artifacts valid for the *original* system — certificates
    // re-verify and counterexamples replay.
    for design in random_designs().into_iter().take(3) {
        let sys = &design.sys;
        let report = clustered_verify(sys, &ClusteredOptions::new());
        assert_eq!(report.results.len(), sys.num_properties());
        for r in &report.results {
            match &r.outcome {
                CheckOutcome::Proved(cert) => {
                    verify_certificate(sys, r.id, &[], cert)
                        .unwrap_or_else(|e| panic!("{}/{}: {e}", sys.name(), r.name));
                }
                CheckOutcome::Falsified(cex) => {
                    let rp = replay(sys, &cex.trace)
                        .unwrap_or_else(|e| panic!("{}/{}: {e}", sys.name(), r.name));
                    assert!(
                        rp.violates_finally(r.id),
                        "{}/{}: lifted cex does not violate the property",
                        sys.name(),
                        r.name
                    );
                }
                CheckOutcome::Unknown(reason) => {
                    panic!("{}/{}: unexpected unknown ({reason})", sys.name(), r.name)
                }
            }
        }
    }
}

#[test]
fn mined_workload_parity_between_clustered_and_separate() {
    // A mined few-hundred-property workload is the adversarial case for
    // the clustered driver: hundreds of structurally similar,
    // all-holding properties that cluster aggressively. The clustered
    // verdicts must match the separate baseline exactly, at 1 and at 8
    // threads — and since every mined property is k-induction proved,
    // neither driver may falsify or abandon anything. Joint attempts
    // start from the certificates earlier clusters proved, so every
    // clustered certificate must also re-verify on the mined design: a
    // seed that is not a union of whole certificates breaks inductiveness
    // without changing a verdict.
    use japrove::mine::{mine, MineOptions};
    for family in ["syn_6s135", "syn_6s275"] {
        let design = japrove::genbench::resolve_spec(family)
            .expect("family exists")
            .generate();
        let outcome = mine(&design.sys, &MineOptions::new());
        let sys = &outcome.sys;
        assert!(
            sys.num_properties() >= 200,
            "need a few-hundred-property mined workload, got {}",
            sys.num_properties()
        );

        let separate = separate_verify(sys, &SeparateOptions::global());
        assert_eq!(separate.num_false(), 0, "mined properties cannot fail");
        assert_eq!(separate.num_unsolved(), 0, "{}", separate.summary());

        for threads in [1usize, 8] {
            let clustered = parallel_clustered_verify(
                sys,
                threads,
                &ClusteredOptions::new().separate(SeparateOptions::global()),
            );
            assert_eq!(separate.results.len(), clustered.results.len());
            for (a, b) in separate.results.iter().zip(&clustered.results) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.holds(), b.holds(), "{}/{} x{threads}", sys.name(), a.name);
                assert_eq!(a.fails(), b.fails(), "{}/{} x{threads}", sys.name(), a.name);
                if let CheckOutcome::Proved(cert) = &b.outcome {
                    verify_certificate(sys, b.id, &[], cert)
                        .unwrap_or_else(|e| panic!("{}/{} x{threads}: {e}", sys.name(), b.name));
                }
            }
        }
    }
}

#[test]
fn every_counterexample_replays() {
    for design in random_designs() {
        let sys = &design.sys;
        for opts in [SeparateOptions::local(), SeparateOptions::global()] {
            let report = separate_verify(sys, &opts);
            for r in &report.results {
                if let Some(cex) = r.counterexample() {
                    let rp = replay(sys, &cex.trace).unwrap_or_else(|e| panic!("{}: {e}", r.name));
                    assert!(
                        rp.violates_finally(r.id),
                        "{}: final state does not violate the property",
                        r.name
                    );
                    assert_eq!(cex.trace.len(), cex.depth, "{}: depth mismatch", r.name);
                }
            }
        }
    }
}

#[test]
fn local_and_global_scopes_are_consistent() {
    // fails-locally implies fails-globally; holds-globally implies
    // holds-locally (Prop. 2).
    for design in random_designs() {
        let sys = &design.sys;
        let local = ja_verify(sys, &SeparateOptions::local());
        let global = separate_verify(sys, &SeparateOptions::global());
        for (l, g) in local.results.iter().zip(&global.results) {
            assert_eq!(l.id, g.id);
            if l.fails() {
                assert!(g.fails(), "{}: local failure but global success", l.name);
            }
            if g.holds() {
                assert!(l.holds(), "{}: global success but local failure", l.name);
            }
        }
    }
}

#[test]
fn deep_counterexamples_match_ground_truth_depth() {
    // Stress the deep-CEX path: global proofs of shadowed properties.
    let design = FamilyParams::new("deep", 99)
        .shadow_group(2, vec![80])
        .generate();
    let sys = &design.sys;
    let global = separate_verify(sys, &SeparateOptions::global());
    let shadow = global
        .results
        .iter()
        .find(|r| r.name.starts_with("shadow"))
        .expect("shadow property");
    let cex = shadow.counterexample().expect("fails globally");
    assert_eq!(cex.depth, 82);
    let rp = replay(sys, &cex.trace).expect("replayable");
    assert!(rp.violates_finally(shadow.id));
}

#[test]
fn certificates_from_multi_property_runs_verify() {
    for design in random_designs().into_iter().take(3) {
        let sys = &design.sys;
        // Global scope: certificates must verify standalone.
        let report = separate_verify(sys, &SeparateOptions::global());
        for r in &report.results {
            if let CheckOutcome::Proved(cert) = &r.outcome {
                verify_certificate(sys, r.id, &[], cert)
                    .unwrap_or_else(|e| panic!("{}: {e}", r.name));
            }
        }
        // Local scope: certificates verify under the assumption set.
        let assumed = japrove::core::local_assumptions(sys);
        let report = ja_verify(sys, &SeparateOptions::local());
        for r in &report.results {
            if let CheckOutcome::Proved(cert) = &r.outcome {
                verify_certificate(sys, r.id, &assumed, cert)
                    .unwrap_or_else(|e| panic!("{}: {e}", r.name));
            }
        }
    }
}

/// Local certificates are closed over the proofs whose clauses seeded
/// them, so each must re-verify under the full ETH set — on every
/// genbench family, sequentially and at two workers, with re-use on.
#[test]
fn ja_certificates_and_debugging_sets_check_out_on_every_family() {
    use japrove::core::validate_debugging_set;
    use japrove::genbench::{all_true_specs, failing_specs, many_props_specs};
    let opts = SeparateOptions::local().reuse(true);
    let specs = many_props_specs()
        .into_iter()
        .chain(failing_specs())
        .chain(all_true_specs());
    for spec in specs {
        let design = spec.generate();
        let sys = &design.sys;
        let assumed = japrove::core::local_assumptions(sys);
        for report in [ja_verify(sys, &opts), parallel_ja_verify(sys, 2, &opts)] {
            for r in &report.results {
                let fails = design.expected[r.id.index()].fails_locally();
                assert_eq!(
                    r.fails(),
                    fails,
                    "{}/{}: {}",
                    spec.name,
                    r.name,
                    report.method
                );
                assert_eq!(
                    r.holds(),
                    !fails,
                    "{}/{}: {}",
                    spec.name,
                    r.name,
                    report.method
                );
                if let CheckOutcome::Proved(cert) = &r.outcome {
                    verify_certificate(sys, r.id, &assumed, cert).unwrap_or_else(|e| {
                        panic!("{}/{}: {}: {e}", spec.name, r.name, report.method)
                    });
                }
            }
            validate_debugging_set(sys, &report, &assumed)
                .unwrap_or_else(|e| panic!("{}: {}: {e}", spec.name, report.method));
        }
    }
}

#[test]
fn enumeration_parity_between_separate_and_clustered() {
    // The distinct-failure set of a falsified property is a semantic
    // object: whichever driver produced the verdicts (and whatever
    // depth its recorded witness had), the post-verdict enumerator
    // re-derives the minimal depth and must return the same projection
    // sets, the same exhaustion and the same count bracket. Only the
    // order of witnesses may differ.
    use japrove::core::{EnumOptions, Projection, Session};
    use std::collections::{BTreeMap, BTreeSet};
    let enum_opts = EnumOptions::new()
        .enumerate(true)
        .count(true)
        .max_cexes(4096)
        .projection(Projection::Latches);
    for design in random_designs().into_iter().take(4) {
        let sys = &design.sys;
        let separate = Session::separate(SeparateOptions::global())
            .enumeration(enum_opts.clone())
            .run(sys);
        let clustered = Session::clustered(
            ClusteredOptions::new().separate(SeparateOptions::global()),
            4,
        )
        .enumeration(enum_opts.clone())
        .run(sys);
        assert_eq!(
            separate.enumerations.len(),
            clustered.enumerations.len(),
            "{}: same falsified set",
            sys.name()
        );
        let key = |report: &japrove::core::MultiReport| -> BTreeMap<String, _> {
            report
                .enumerations
                .iter()
                .map(|e| {
                    assert!(!e.faulted, "{}/{}", sys.name(), e.name);
                    assert!(e.exhausted, "{}/{}: cap must not bind", sys.name(), e.name);
                    assert_eq!(e.rejected, 0, "{}/{}", sys.name(), e.name);
                    let set: BTreeSet<Vec<bool>> =
                        e.cexes.iter().map(|c| c.projection.clone()).collect();
                    let count = e.count.as_ref().map(|c| (c.lo, c.hi, c.exact));
                    (e.name.clone(), (e.depth, set, count))
                })
                .collect()
        };
        assert_eq!(key(&separate), key(&clustered), "{}", sys.name());
    }
}
