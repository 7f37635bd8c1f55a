//! The verdict cache across a design edit: a warm cache must let a
//! rerun skip exactly the properties whose cones did not change, with
//! identical verdicts.

use japrove::aig::Aig;
use japrove::core::{SeparateOptions, Session, VerdictCache};
use japrove::tsys::{TransitionSystem, Word};

/// Two independent 3-bit counters; `bump1` controls how far counter 1
/// steps each cycle, so changing it edits counter 1's cone while
/// counter 0's cone stays structurally identical. With an even bump
/// the counter only visits even values: `ne3` holds (and genuinely
/// depends on the latches), `ne4` fails.
fn two_counters(bump1: usize) -> TransitionSystem {
    let mut aig = Aig::new();
    let mut props = Vec::new();
    for (i, bumps) in [2usize, bump1].into_iter().enumerate() {
        let w = Word::latches(&mut aig, 3, 0);
        let mut n = w.clone();
        for _ in 0..bumps {
            n = n.increment(&mut aig);
        }
        w.set_next(&mut aig, &n);
        let at3 = w.eq_const(&mut aig, 3);
        let at4 = w.eq_const(&mut aig, 4);
        props.push((format!("c{i}_ne3"), !at3));
        props.push((format!("c{i}_ne4"), !at4));
    }
    let mut sys = TransitionSystem::new("pair", aig);
    for (name, good) in props {
        sys.add_property(name, good);
    }
    sys
}

/// After a design edit, a warm verdict cache re-solves exactly the
/// properties whose cones changed and replays the rest from cache, with
/// identical verdicts.
#[test]
fn verdict_cache_skips_only_unchanged_cones_after_a_mutation() {
    let before = two_counters(2);
    let mut cold =
        Session::separate(SeparateOptions::global()).verdict_cache(VerdictCache::default());
    let cold_report = cold.run(&before);
    assert!(cold_report.results.iter().all(|r| !r.cached));
    let cache = cold.take_verdict_cache().unwrap();

    // Same-design warm rerun: whatever evidence fit its cone is now a
    // hit. (A certificate that mentions an out-of-cone latch is
    // soundly *not* cached, so derive the cacheable set empirically.)
    let mut same = Session::separate(SeparateOptions::global()).verdict_cache(cache);
    let same_report = same.run(&before);
    let cacheable: Vec<String> = same_report
        .results
        .iter()
        .filter(|r| r.cached)
        .map(|r| r.name.clone())
        .collect();
    assert!(
        cacheable.iter().any(|n| n.starts_with("c0_")),
        "some counter-0 verdict must be cacheable, got {cacheable:?}"
    );
    assert!(
        cacheable.iter().any(|n| n.starts_with("c1_")),
        "some counter-1 verdict must be cacheable, got {cacheable:?}"
    );
    let cache = same.take_verdict_cache().unwrap();

    // Counter 1 now steps by 4: its cone (and c1_* evidence) changed,
    // counter 0's did not. Only unchanged-cone entries may hit.
    let after = two_counters(4);
    let mut warm = Session::separate(SeparateOptions::global()).verdict_cache(cache);
    let warm_report = warm.run(&after);
    for r in &warm_report.results {
        let expect_cached = r.name.starts_with("c0_") && cacheable.contains(&r.name);
        assert_eq!(
            r.cached,
            expect_cached,
            "{}: cached={} (cone {})",
            r.name,
            r.cached,
            if r.name.starts_with("c0_") {
                "unchanged"
            } else {
                "edited"
            }
        );
    }
    // Verdicts stay what the design says: both counters only visit
    // even values, so `_ne3` holds and `_ne4` fails in both designs.
    for r in &warm_report.results {
        if r.name.ends_with("_ne3") {
            assert!(r.holds(), "{}", r.name);
        } else {
            assert!(r.fails(), "{}", r.name);
        }
    }
}
