//! The feature store across runs: records written by one run must be
//! found by the next through the design's *structural* hash (renaming
//! the design or file must not orphan them), and a store that has been
//! corrupted on disk must load lossily — malformed lines are counted
//! and skipped, never a panic.

use japrove::aig::Aig;
use japrove::obs::{FeatureStore, RunRecord};
use japrove::tsys::{TransitionSystem, Word};

/// One 4-bit counter with two properties, under any design name.
fn counter(name: &str) -> TransitionSystem {
    let mut aig = Aig::new();
    let w = Word::latches(&mut aig, 4, 0);
    let n = w.increment(&mut aig);
    w.set_next(&mut aig, &n);
    let ok = w.lt_const(&mut aig, 16);
    let tight = w.lt_const(&mut aig, 5);
    let mut sys = TransitionSystem::new(name, aig);
    sys.add_property("ok", ok);
    sys.add_property("tight", tight);
    sys
}

fn record(design: &str, property: &str, time_us: u64) -> RunRecord {
    RunRecord {
        design: design.into(),
        property: property.into(),
        mode: "separate-global".into(),
        verdict: "holds".into(),
        time_us,
        frames: 3,
        conflicts: time_us / 2,
        decisions: time_us,
        propagations: 10 * time_us,
        restarts: 1,
    }
}

fn temp_path(stem: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("japrove_{stem}_{}.jsonl", std::process::id()));
    p
}

/// A store written against one design name is found by a later run
/// that loads the *same structure* under a different name: the lookup
/// key is the structural hash, not the filename or design name.
#[test]
fn structural_hash_survives_a_design_rename() {
    let original = counter("block_a");
    let renamed = counter("block_a_refactored");
    assert_eq!(
        original.structural_hash(),
        renamed.structural_hash(),
        "renaming must not change the structural hash"
    );

    let design = format!("{:016x}", original.structural_hash());
    let mut store = FeatureStore::default();
    store.upsert(record(&design, "ok", 120));
    store.upsert(record(&design, "tight", 45_000));

    let path = temp_path("rename");
    store.save(&path).unwrap();
    let (reloaded, skipped) = FeatureStore::load_lossy(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(skipped, 0);
    assert_eq!(reloaded.len(), 2);

    let renamed_design = format!("{:016x}", renamed.structural_hash());
    let found: Vec<(&str, u64)> = reloaded
        .for_design(&renamed_design)
        .map(|r| (r.property.as_str(), r.time_us))
        .collect();
    assert_eq!(
        found,
        vec![("ok", 120), ("tight", 45_000)],
        "records found under the renamed design"
    );
}

/// A store with garbage lines, wrong types and unknown verdicts loads
/// lossily: every bad line is counted and skipped, every good record
/// survives, and nothing panics.
#[test]
fn malformed_and_stale_lines_are_counted_and_skipped() {
    let good = record("00000000deadbeef", "ok", 500);
    let mut store = FeatureStore::default();
    store.upsert(good.clone());
    let path = temp_path("lossy");
    store.save(&path).unwrap();

    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str("this is not json\n");
    text.push_str("{\"design\":\"feedface00000000\"}\n"); // missing fields
    text.push_str(concat!(
        "{\"design\":\"feedface00000000\",\"property\":\"p\",\"mode\":\"ja\",",
        "\"verdict\":\"maybe\",\"time_us\":1,\"frames\":1,\"conflicts\":1,",
        "\"decisions\":1,\"propagations\":1,\"restarts\":0}\n"
    )); // stale schema: verdict vocabulary changed
    text.push_str("[1,2,3]\n"); // wrong top-level shape
    std::fs::write(&path, &text).unwrap();

    let (reloaded, skipped) = FeatureStore::load_lossy(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(skipped, 4, "each bad line counted once");
    assert_eq!(reloaded.len(), 1, "the good record survives");
    let survivor = reloaded.records().first().expect("one record");
    assert_eq!(survivor.property, good.property);
    assert_eq!(survivor.time_us, good.time_us);
}

/// Save → load → save is byte-stable: the store is a deterministic
/// cross-run artifact, safe to keep under version control or in CI
/// caches.
#[test]
fn save_load_round_trip_is_byte_stable() {
    let mut store = FeatureStore::default();
    store.upsert(record("0123456789abcdef", "b", 7));
    store.upsert(record("0123456789abcdef", "a", 9));
    let path = temp_path("stable");
    store.save(&path).unwrap();
    let first = std::fs::read_to_string(&path).unwrap();

    let (reloaded, _) = FeatureStore::load_lossy(&path).unwrap();
    reloaded.save(&path).unwrap();
    let second = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(first, second);
}
