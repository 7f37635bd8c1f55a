//! End-to-end observability checks: a journaled run's spans must
//! account for (nearly) all of its wall-clock, the emitted JSONL must
//! re-parse under the strict schema, and every driver mode must emit
//! its phase vocabulary.

use japrove::core::{
    ja_verify, joint_verify, parallel_clustered_verify, ClusteredOptions, JointOptions,
    SeparateOptions,
};
use japrove::genbench::FamilyParams;
use japrove::obs::journal::parse_jsonl;
use japrove::obs::metrics::{phase_breakdown, top_level_span_us};
use japrove::obs::{Event, EventKind, Journal, Phase};
use std::sync::{Mutex, MutexGuard};

/// Serializes this file's tests. The coverage bar compares span time
/// with wall-clock time, so a sibling test competing for the CPUs
/// stretches the untraced gaps between spans and can fail it.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the file lock; a test that panicked while holding it leaves
/// nothing to repair, so a poisoned lock is taken anyway.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn design() -> japrove::tsys::TransitionSystem {
    FamilyParams::new("trace_cov", 7)
        .chain(4, 5)
        .easy_true(3)
        .shallow_fails(vec![2])
        .generate()
        .sys
}

fn phases(events: &[Event]) -> Vec<Phase> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { phase, .. } => Some(phase),
            _ => None,
        })
        .collect()
}

/// The acceptance criterion: on a single-threaded clustered run the
/// top-level phase spans (encode, affinity probe, clusters) must sum
/// to within 5% of the run span's own duration — nothing the driver
/// does may escape tracing.
#[test]
fn clustered_spans_cover_wall_clock() {
    let _serial = serial();
    let sys = design();
    let journal = Journal::new();
    let opts = ClusteredOptions::new()
        .separate(SeparateOptions::global())
        .journal(journal.clone());
    let started = std::time::Instant::now();
    let report = {
        let _run = journal.span(Phase::Run);
        parallel_clustered_verify(&sys, 1, &opts)
    };
    let wall_us = started.elapsed().as_micros() as u64;
    assert_eq!(report.num_unsolved(), 0);

    let events = journal.events();
    let covered = top_level_span_us(&events);
    assert!(
        covered as f64 >= 0.95 * report.total_time.as_micros() as f64,
        "phase spans cover {covered} us of {} us reported",
        report.total_time.as_micros()
    );
    assert!(
        covered <= wall_us,
        "phase spans ({covered} us) cannot exceed wall-clock ({wall_us} us)"
    );

    let seen = phases(&events);
    for expected in [Phase::Encode, Phase::AffinityProbe, Phase::Cluster] {
        assert!(seen.contains(&expected), "missing {expected:?} span");
    }
    // The breakdown must list the run phase with exactly one span.
    let rows = phase_breakdown(&events);
    let run_row = rows.iter().find(|r| r.phase == Phase::Run).unwrap();
    assert_eq!(run_row.count, 1);
    // Joint attempts run inside the session's own solve stage: the
    // session plans once, however many clusters it attempts.
    assert!(seen.contains(&Phase::JointAttempt), "no joint attempt ran");
    let plans = seen.iter().filter(|&&p| p == Phase::Plan).count();
    assert_eq!(plans, 1, "a clustered run plans exactly once");
}

/// Whatever a real run emits must survive the strict JSONL schema —
/// the same check `japrove --check-trace` (and the CI smoke job)
/// performs.
#[test]
fn emitted_traces_reparse_under_strict_schema() {
    let _serial = serial();
    let sys = design();
    for mode in ["ja", "joint"] {
        let journal = Journal::new();
        {
            let _run = journal.span_labeled(Phase::Run, mode);
            match mode {
                "ja" => ja_verify(&sys, &SeparateOptions::local().journal(journal.clone())),
                _ => joint_verify(&sys, &JointOptions::new().journal(journal.clone())),
            };
        }
        let mut bytes = Vec::new();
        journal.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let parsed = parse_jsonl(&text).unwrap_or_else(|(line, e)| {
            panic!("{mode}: emitted trace rejected at line {line}: {e}")
        });
        let original = journal.events();
        assert_eq!(parsed.len(), original.len(), "{mode}: event count changed");
        for (a, b) in parsed.iter().zip(&original) {
            assert_eq!(a.kind, b.kind, "{mode}: event kind changed in transit");
        }
    }
}

/// A JA run emits one property span per property, labelled with the
/// property's name.
#[test]
fn ja_run_emits_labelled_property_spans() {
    let _serial = serial();
    let sys = design();
    let journal = Journal::new();
    ja_verify(&sys, &SeparateOptions::local().journal(journal.clone()));
    let events = journal.events();
    let labels: Vec<&str> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Span {
                phase: Phase::Property,
                label: Some(l),
                ..
            } => Some(l.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(labels.len(), sys.num_properties());
    for p in sys.properties() {
        assert!(labels.contains(&p.name.as_str()), "no span for {}", p.name);
    }
}
