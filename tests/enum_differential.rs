//! Differential tests for counterexample enumeration and XOR-hash
//! counting.
//!
//! The enumeration subsystem claims to return *exactly* the distinct
//! failure set of a falsified property — no duplicates, no misses,
//! every witness replaying. On small seeded designs that claim is
//! checkable against ground truth: the bit-parallel [`Simulator`]
//! brute-forces every input sequence up to the counterexample depth
//! and records which projection assignments actually fail. The
//! enumerator must reproduce that set bit-for-bit across thread counts
//! and both in-tree SAT backends.
//!
//! The XOR-hash counter gets the statistical treatment instead: over
//! many fixed seeds its `[lo, hi]` bracket must contain the true count
//! (well within the recorded (ε, δ) failure budget), and each seed
//! must be perfectly reproducible and give its pinned bracket.

use japrove::aig::{Aig, Simulator};
use japrove::core::{
    enumerate_report, ja_verify, EnumOptions, Projection, SeparateOptions, Session,
};
use japrove::sat::BackendChoice;
use japrove::tsys::{TransitionSystem, Word};
use std::collections::BTreeSet;

/// A gated counter: increments only while its single input is high;
/// `good` = counter < `limit`. The minimal failure needs `limit`
/// consecutive high cycles.
fn gated_counter(bits: usize, limit: u64) -> TransitionSystem {
    let mut aig = Aig::new();
    let gate = aig.add_input();
    let c = Word::latches(&mut aig, bits, 0);
    let inc = c.increment(&mut aig);
    let next = Word::mux(&mut aig, gate, &inc, &c);
    c.set_next(&mut aig, &next);
    let good = c.lt_const(&mut aig, limit);
    let mut sys = TransitionSystem::new(format!("gated{bits}_{limit}"), aig);
    sys.add_property(format!("lt{limit}"), good);
    sys
}

/// A loadable register: every cycle the `bits`-wide input word is
/// registered verbatim; `good` = register < `bad_from`. Every value
/// `>= bad_from` is a distinct reachable bad state at depth 1.
fn loadable(bits: usize, bad_from: u64) -> TransitionSystem {
    let mut aig = Aig::new();
    let ins = Word::inputs(&mut aig, bits);
    let w = Word::latches(&mut aig, bits, 0);
    w.set_next(&mut aig, &ins);
    let good = w.lt_const(&mut aig, bad_from);
    let mut sys = TransitionSystem::new(format!("load{bits}_{bad_from}"), aig);
    sys.add_property(format!("lt{bad_from}"), good);
    sys
}

/// Ground truth by exhaustive simulation: tries *every* input sequence
/// of every depth `0..=max_depth` (64 sequences per simulator pass)
/// and returns the minimal depth at which `prop` fails finally, plus
/// the exact distinct projection sets at that depth.
///
/// Returns `(depth, input_projections, latch_projections)` where the
/// input set ranges over the flattened stimulus (frame-major, input
/// order within a frame — the order `Bmc::input_projection` uses) and
/// the latch set over the final-frame values of `latch_support`, in
/// support order.
type Truth = (usize, BTreeSet<Vec<bool>>, BTreeSet<Vec<bool>>);

fn brute_force(
    sys: &TransitionSystem,
    prop: japrove::tsys::PropertyId,
    max_depth: usize,
) -> Option<Truth> {
    let aig = sys.aig();
    let n_in = aig.num_inputs();
    let good = sys.property(prop).good;
    let support = sys.latch_support(prop);
    for depth in 0..=max_depth {
        let seq_bits = n_in * (depth + 1);
        assert!(seq_bits <= 20, "oracle design too wide to brute-force");
        let total: u64 = 1 << seq_bits;
        let mut inputs_set = BTreeSet::new();
        let mut latches_set = BTreeSet::new();
        let mut base = 0u64;
        while base < total {
            let lanes = 64.min(total - base) as usize;
            // Lane k of every word simulates sequence `base + k`; bit
            // `frame * n_in + i` of the sequence index is input `i` at
            // `frame`.
            let word = |frame: usize, i: usize| -> u64 {
                let mut w = 0u64;
                for lane in 0..lanes {
                    let seq = base + lane as u64;
                    if seq >> (frame * n_in + i) & 1 == 1 {
                        w |= 1 << lane;
                    }
                }
                w
            };
            let mut sim = Simulator::new(aig);
            for frame in 0..depth {
                let step: Vec<u64> = (0..n_in).map(|i| word(frame, i)).collect();
                sim.step(aig, &step);
            }
            let last: Vec<u64> = (0..n_in).map(|i| word(depth, i)).collect();
            sim.eval(aig, &last);
            let bad = !sim.value(good);
            for lane in 0..lanes {
                if bad >> lane & 1 == 0 {
                    continue;
                }
                let seq = base + lane as u64;
                inputs_set.insert((0..seq_bits).map(|b| seq >> b & 1 == 1).collect());
                latches_set.insert(
                    support
                        .iter()
                        .map(|&l| sim.state()[l] >> lane & 1 == 1)
                        .collect(),
                );
            }
            base += 64;
        }
        if !inputs_set.is_empty() {
            return Some((depth, inputs_set, latches_set));
        }
    }
    None
}

const BACKENDS: [BackendChoice; 2] = [BackendChoice::Cdcl, BackendChoice::ChronoCdcl];

/// Runs a full pipeline with enumeration attached and returns the
/// report.
fn run_session(
    sys: &TransitionSystem,
    threads: usize,
    backend: BackendChoice,
    projection: Projection,
) -> japrove::core::MultiReport {
    let opts = EnumOptions::new()
        .enumerate(true)
        .count(true)
        .max_cexes(4096)
        .projection(projection)
        .backend(backend);
    Session::parallel(SeparateOptions::local().backend(backend), threads)
        .enumeration(opts)
        .run(sys)
}

#[test]
fn enumeration_matches_brute_force_exactly() {
    let designs = [
        gated_counter(3, 2),
        gated_counter(4, 3),
        loadable(3, 5),
        loadable(4, 11),
    ];
    for sys in &designs {
        let p = sys.property_ids().next().unwrap();
        let (depth, inputs_oracle, latches_oracle) =
            brute_force(sys, p, 8).expect("every oracle design fails");
        for backend in BACKENDS {
            for threads in [1, 8] {
                for (projection, oracle) in [
                    (Projection::Inputs, &inputs_oracle),
                    (Projection::Latches, &latches_oracle),
                ] {
                    let report = run_session(sys, threads, backend, projection);
                    assert_eq!(report.enumerations.len(), 1, "{}", sys.name());
                    let e = &report.enumerations[0];
                    let label = format!(
                        "{}/{projection} backend={backend} threads={threads}",
                        sys.name()
                    );
                    assert!(!e.faulted, "{label}");
                    assert_eq!(e.depth, depth, "{label}: minimal depth");
                    assert!(e.exhausted, "{label}: the cap must not bind");
                    assert_eq!(e.rejected, 0, "{label}: every witness replays");
                    let got: BTreeSet<Vec<bool>> =
                        e.cexes.iter().map(|c| c.projection.clone()).collect();
                    assert_eq!(
                        got.len(),
                        e.cexes.len(),
                        "{label}: duplicate projection assignments"
                    );
                    assert_eq!(&got, oracle, "{label}: exact distinct-failure set");
                    for c in &e.cexes {
                        assert_eq!(c.cex.depth, depth, "{label}: witness depth");
                    }
                    // Small sets take the exact-counting path; larger
                    // ones must still bracket the oracle cardinality.
                    let truth = oracle.len() as u64;
                    let count = e.count.as_ref().expect("count requested");
                    if count.exact {
                        assert_eq!(count.lo, truth, "{label}: exact count");
                        assert_eq!(count.hi, count.lo, "{label}");
                    } else {
                        assert!(
                            count.lo <= truth && truth <= count.hi,
                            "{label}: truth {truth} outside [{}, {}]",
                            count.lo,
                            count.hi
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn holding_designs_enumerate_nothing() {
    // A 4-bit counter that never reaches its bound: no falsified
    // property, so the pass reports an empty (not absent) list.
    let mut aig = Aig::new();
    let c = Word::latches(&mut aig, 4, 0);
    let n = c.increment(&mut aig);
    c.set_next(&mut aig, &n);
    let ok = c.lt_const(&mut aig, 16);
    let mut sys = TransitionSystem::new("cnt_holds", aig);
    sys.add_property("in_range", ok);
    let report = run_session(&sys, 1, BackendChoice::Cdcl, Projection::Inputs);
    assert_eq!(report.num_false(), 0);
    assert!(report.enumerations.is_empty());
}

/// The boundary level of seeds `0..20` on `loadable(7, 37)`, per
/// projection. Every change to the counting rounds must reproduce them:
/// the reduction, the retired auxiliaries, the early majority stop and
/// the reused probe each leave every round's SAT/UNSAT answer as it was.
const LATCH_LEVELS: [usize; 20] = [4, 4, 4, 4, 7, 7, 7, 7, 7, 5, 7, 7, 6, 6, 6, 6, 6, 6, 7, 6];
const INPUT_LEVELS: [usize; 20] = [
    13, 13, 13, 14, 13, 13, 13, 13, 14, 14, 14, 14, 14, 14, 14, 13, 12, 13, 13, 11,
];

#[test]
fn xor_count_brackets_truth_on_every_seed_deterministically() {
    // 128 reachable states at depth 1, of which 128 - 37 = 91 violate
    // `w < 37`; 37 is odd so the comparison cone keeps all 7 latches in
    // the projection. 91 distinct bad states is past the exact-probe
    // limit, forcing the XOR up-search. The inputs projection spans
    // both frames' 7 input bits: the frame-1 inputs are free, so
    // 91 * 128 stimuli fail.
    let sys = loadable(7, 37);
    let p = sys.property_ids().next().unwrap();
    let (_, inputs_oracle, latches_oracle) = brute_force(&sys, p, 2).expect("fails");
    assert_eq!(latches_oracle.len(), 91, "oracle sanity");
    assert_eq!(inputs_oracle.len(), 91 * 128, "oracle sanity");
    let report = ja_verify(&sys, &SeparateOptions::local());
    assert_eq!(report.num_false(), 1);
    for (projection, oracle, levels) in [
        (Projection::Latches, &latches_oracle, LATCH_LEVELS),
        (Projection::Inputs, &inputs_oracle, INPUT_LEVELS),
    ] {
        let truth = oracle.len() as u64;
        for (seed, &level) in levels.iter().enumerate() {
            let pinned = match projection {
                Projection::Latches => (32, 128, level),
                Projection::Inputs => (1 << (level - 2), 1 << 14, level),
            };
            // Counting alone runs the exact-count probe; enumerating
            // first (64 witnesses, past the probe's limit) lets the
            // count reuse the enumeration round instead.
            for enumerate in [false, true] {
                let label = format!("{projection} seed {seed} enumerate={enumerate}");
                let opts = EnumOptions::new()
                    .enumerate(enumerate)
                    .count(true)
                    .max_cexes(64)
                    .projection(projection)
                    .seed(seed as u64);
                let runs: Vec<_> = (0..2)
                    .map(|_| {
                        let enums = enumerate_report(&sys, &report, &opts);
                        assert_eq!(enums.len(), 1, "{label}");
                        enums.into_iter().next().unwrap()
                    })
                    .collect();
                let a = runs[0].count.as_ref().expect("count requested");
                let b = runs[1].count.as_ref().expect("count requested");
                assert!(!a.exact, "{label}: must take the XOR path");
                assert!(
                    a.lo <= truth && truth <= a.hi,
                    "{label}: truth {truth} outside [{}, {}] (level {})",
                    a.lo,
                    a.hi,
                    a.level
                );
                assert!(
                    a.epsilon >= 1.0 && a.delta > 0.0 && a.delta < 1.0,
                    "{label}"
                );
                // Same seed, same bracket — the constraint streams are
                // pure functions of (seed, property, level, trial).
                assert_eq!((a.lo, a.hi, a.level), (b.lo, b.hi, b.level), "{label}");
                assert_eq!((a.lo, a.hi, a.level), pinned, "{label}");
            }
        }
    }
}
