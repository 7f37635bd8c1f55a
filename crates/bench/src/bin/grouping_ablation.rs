//! Grouping ablation: separate vs joint vs grouped baseline vs
//! affinity-clustered verification.
//!
//! The §12 discussion contrasts JA-verification with structure-aware
//! grouping; this experiment measures the whole spectrum on the Table
//! VII generator families (correct designs — grouping's sweet spot)
//! plus a slice of the failing families (its weak spot):
//!
//! * `separate` — one global proof per property ([`separate_verify`]);
//! * `joint` — one aggregate for the whole design ([`joint_verify`]);
//! * `grouped` — the greedy single-signal §12 baseline
//!   ([`grouped_verify`]);
//! * `clustered` — the first-class clustering mode
//!   ([`clustered_verify`]): agglomerative clusters on latch-support
//!   Jaccard affinity, budgeted per-cluster joint attempts, warm
//!   per-property fallback with two-level clause re-use.
//!
//! All modes produce *global* verdicts, so the binary asserts verdict
//! parity across every mode on every design. `--json <path>` writes
//! the rows plus per-family wall-clock totals; the committed
//! `BENCH_grouping.json` at the repository root is regenerated exactly
//! this way. `--small` switches to two reduced designs so release-mode
//! CI can smoke-run the binary in seconds.
//!
//! The committed `BENCH_grouping.json` (rev `6ff309f509d1`) still has
//! two clustered rows per design, `clustered-jaccard` and
//! `clustered-hybrid`. The hybrid metric blended the Jaccard signal
//! with a COI-size ratio, combinational-cone overlap and a probing BMC
//! pass. It was at or above the Jaccard time on all seven rows, with
//! identical cluster counts, and was deleted on that evidence; those
//! rows are kept as the measurement the deletion rests on.

use japrove_bench::{fmt_time, limits, write_json, Json, Table};
use japrove_core::{
    clustered_verify, grouped_verify, joint_verify, separate_verify, ClusteredOptions,
    GroupingOptions, JointOptions, MultiReport, SeparateOptions,
};
use japrove_genbench::{all_true_specs, failing_specs, FamilyParams};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!("usage: grouping_ablation [--small] [--repeat <n>] [--json <path>]");
    std::process::exit(2)
}

/// Verdict fingerprint in property-id order (drivers report in
/// different orders; joint emits results as they resolve).
fn fingerprint(report: &MultiReport) -> Vec<(usize, bool, bool)> {
    let mut v: Vec<(usize, bool, bool)> = report
        .results
        .iter()
        .map(|r| (r.id.index(), r.holds(), r.fails()))
        .collect();
    v.sort_unstable();
    v
}

/// The group/cluster count a grouped or clustered driver embedded in
/// its method label (`"... (N groups)"` / `"... (N clusters)"`) — so
/// the bench need not re-run the clustering just to count units.
fn unit_count(report: &MultiReport) -> usize {
    report
        .method
        .rsplit('(')
        .next()
        .and_then(|tail| tail.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no unit count in method label '{}'", report.method))
}

/// Runs `f` `repeat` times, asserting identical verdicts, and returns
/// the best wall-clock time with that run's report.
fn timed_best<F: FnMut() -> MultiReport>(repeat: usize, mut f: F) -> (Duration, MultiReport) {
    let mut best: Option<(Duration, MultiReport)> = None;
    for _ in 0..repeat.max(1) {
        let t = Instant::now();
        let r = f();
        let elapsed = t.elapsed();
        match &best {
            Some((bt, br)) => {
                assert_eq!(
                    fingerprint(br),
                    fingerprint(&r),
                    "verdicts must be identical across repeats"
                );
                if elapsed < *bt {
                    best = Some((elapsed, r));
                }
            }
            None => best = Some((elapsed, r)),
        }
    }
    best.expect("at least one run")
}

/// The reduced designs for CI smoke runs.
fn small_specs() -> Vec<(FamilyParams, &'static str)> {
    vec![
        (
            FamilyParams::new("syn_small_true", 7)
                .chain(3, 6)
                .easy_true(3)
                .sinks(6, 6),
            "all-true",
        ),
        (
            FamilyParams::new("syn_small_fail", 8)
                .easy_true(2)
                .shallow_fails(vec![2, 3])
                .shadow_group(2, vec![9]),
            "failing",
        ),
    ]
}

fn main() -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut small = false;
    let mut repeat = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => small = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => usage(),
            },
            "--repeat" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => repeat = n,
                _ => usage(),
            },
            _ => usage(),
        }
    }

    let specs: Vec<(FamilyParams, &'static str)> = if small {
        small_specs()
    } else {
        // Failing designs whose deepest failure resolves within the
        // per-property limit on a laptop; the two specs with
        // depth-6000 shadows are skipped because the separate baseline
        // cannot decide them in-budget and verdict parity is asserted.
        let failing = ["syn_6s260", "syn_6s207", "syn_6s335"];
        all_true_specs()
            .into_iter()
            .take(4)
            .map(|s| (s, "all-true"))
            .chain(
                failing_specs()
                    .into_iter()
                    .filter(|s| failing.contains(&s.name.as_str()))
                    .map(|s| (s, "failing")),
            )
            .collect()
    };

    let mut table = Table::new(
        "Grouping ablation: separate / joint / grouped (§12) / clustered (affinity)",
        &[
            "name", "family", "#props", "mode", "#units", "#false", "time",
        ],
    );
    let mut rows: Vec<Json> = Vec::new();
    // (family, mode) → summed best-of wall-clock.
    let mut totals: Vec<(String, String, f64)> = Vec::new();
    let mut add_total = |family: &str, mode: &str, secs: f64| match totals
        .iter_mut()
        .find(|(f, m, _)| f == family && m == mode)
    {
        Some((_, _, t)) => *t += secs,
        None => totals.push((family.to_string(), mode.to_string(), secs)),
    };

    for (spec, family) in specs {
        let design = spec.generate();
        let sys = &design.sys;
        let sep_opts = SeparateOptions::global().per_property_timeout(limits::per_property());
        let joint_opts = JointOptions::new().total_timeout(limits::total());
        let grouping = GroupingOptions::new().joint(joint_opts.clone());

        // (mode, best time, report, verification units)
        let mut runs: Vec<(String, Duration, MultiReport, usize)> = Vec::new();

        let (t, r) = timed_best(repeat, || separate_verify(sys, &sep_opts));
        runs.push(("separate".into(), t, r, sys.num_properties()));

        let (t, r) = timed_best(repeat, || joint_verify(sys, &joint_opts));
        runs.push(("joint".into(), t, r, 1));

        let (t, r) = timed_best(repeat, || grouped_verify(sys, &grouping));
        let groups = unit_count(&r);
        runs.push(("grouped".into(), t, r, groups));

        let copts = ClusteredOptions::new().separate(sep_opts.clone());
        let (t, r) = timed_best(repeat, || clustered_verify(sys, &copts));
        let clusters = unit_count(&r);
        runs.push(("clustered".into(), t, r, clusters));

        // Every mode is global: verdicts must agree everywhere.
        let reference = fingerprint(&runs[0].2);
        for (mode, _, report, _) in &runs[1..] {
            assert_eq!(
                reference,
                fingerprint(report),
                "{}: mode '{mode}' disagrees with separate",
                sys.name()
            );
        }

        for (mode, time, report, units) in &runs {
            table.row(&[
                sys.name(),
                family,
                &sys.num_properties().to_string(),
                mode,
                &units.to_string(),
                &report.num_false().to_string(),
                &fmt_time(*time),
            ]);
            add_total(family, mode, time.as_secs_f64());
            rows.push(Json::obj([
                ("design", Json::str(sys.name())),
                ("family", Json::str(family.to_string())),
                ("properties", Json::int(sys.num_properties() as u64)),
                ("mode", Json::str(mode.clone())),
                ("units", Json::int(*units as u64)),
                ("seconds", Json::num(time.as_secs_f64())),
                ("best_of", Json::int(repeat as u64)),
                ("num_true", Json::int(report.num_true() as u64)),
                ("num_false", Json::int(report.num_false() as u64)),
                ("num_unsolved", Json::int(report.num_unsolved() as u64)),
            ]));
        }
    }

    table.print();
    println!(
        "(#units: verification units per run — properties for separate, 1 for joint, \
         groups/clusters otherwise; verdict parity is asserted across all modes)"
    );
    let mut totals_table = Table::new(
        "Per-family wall-clock totals",
        &["family", "mode", "total time"],
    );
    for (family, mode, secs) in &totals {
        totals_table.row(&[family, mode, &fmt_time(Duration::from_secs_f64(*secs))]);
    }
    totals_table.print();

    if let Some(path) = json_path {
        let doc = Json::obj([
            ("bench", Json::str("grouping_ablation")),
            ("provenance", japrove_bench::provenance()),
            ("small", Json::bool(small)),
            ("rows", Json::Arr(rows)),
            (
                "totals",
                Json::arr(totals.iter().map(|(family, mode, secs)| {
                    Json::obj([
                        ("family", Json::str(family.clone())),
                        ("mode", Json::str(mode.clone())),
                        ("seconds", Json::num(*secs)),
                    ])
                })),
            ),
        ]);
        if let Err(e) = write_json(&path, &doc) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
