//! Enumeration ablation: the cost and yield of post-verdict
//! counterexample enumeration and XOR-hash counting, per projection
//! set.
//!
//! For every failing generator family the binary first runs the plain
//! JA driver (the verdict cost that enumeration rides on), then the
//! enumeration/counting pass once per projection set. Per falsified
//! property it reports:
//!
//! * the minimal counterexample depth the pass re-derived,
//! * how many distinct witnesses the blocking loop found, and whether
//!   it exhausted the projection space or hit the cap,
//! * the `[lo, hi]` XOR-hash count bracket (or the exact count when
//!   the probe exhausted), with the boundary level,
//! * the wall-clock of the pass, separated from the verdict cost.
//!
//! Every witness the pass returns is replay-checked internally; the
//! bench asserts none were rejected, doubling as a soundness run.
//!
//! `--json <path>` writes the rows; the committed `BENCH_enum.json` at
//! the repository root is regenerated exactly this way. `--small`
//! reduces to two families so release-mode CI can smoke-run the binary
//! in seconds.

use japrove_bench::{fmt_time, write_json, Json, Table};
use japrove_core::{
    enumerate_report, ja_verify, CountEstimate, EnumOptions, Projection, SeparateOptions,
};
use japrove_genbench::{resolve_spec, FamilyParams};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: enum_ablation [--small] [--json <path>] [--enum-max <n>]");
    std::process::exit(2)
}

/// The family slice: failing families (Tables III/V regime) whose
/// shallow failures give the enumerator real work. syn_6s335 and
/// syn_6s207 fail at depth >= 3 over wide input words; their
/// input-projection XOR instances are solvable because each counting
/// round is Gauss–Jordan-reduced before it reaches the solver.
fn full_specs() -> Vec<FamilyParams> {
    [
        "syn_6s104",
        "syn_6s260",
        "syn_6s175",
        "syn_6s254",
        "syn_6s258",
        "syn_6s335",
        "syn_6s207",
    ]
    .iter()
    .map(|name| resolve_spec(name).expect("known family"))
    .collect()
}

fn small_specs() -> Vec<FamilyParams> {
    ["syn_6s260", "syn_6s175"]
        .iter()
        .map(|name| resolve_spec(name).expect("known family"))
        .collect()
}

fn main() -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut small = false;
    let mut max_cexes = 64usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => small = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => usage(),
            },
            "--enum-max" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => max_cexes = n,
                _ => usage(),
            },
            _ => usage(),
        }
    }

    let specs = if small { small_specs() } else { full_specs() };

    let mut table = Table::new(
        "Enumeration ablation: distinct-failure yield and counting cost per projection",
        &[
            "design",
            "property",
            "proj",
            "depth",
            "bits",
            "distinct",
            "all?",
            "count",
            "t(verify)",
            "t(enum)",
        ],
    );
    let mut rows: Vec<Json> = Vec::new();

    for spec in specs {
        let sys = spec.generate().sys;
        let t = Instant::now();
        let report = ja_verify(&sys, &SeparateOptions::local());
        let verify_time = t.elapsed();
        assert!(
            report.num_false() > 0,
            "{}: a failing family must falsify something",
            sys.name()
        );

        for projection in [Projection::Inputs, Projection::Latches] {
            let opts = EnumOptions::new()
                .enumerate(true)
                .count(true)
                .max_cexes(max_cexes)
                .projection(projection);
            let t = Instant::now();
            let enums = enumerate_report(&sys, &report, &opts);
            let enum_time = t.elapsed();
            let per_prop = if enums.is_empty() {
                enum_time
            } else {
                enum_time / enums.len() as u32
            };

            for e in &enums {
                assert!(!e.faulted, "{}/{}: pass faulted", sys.name(), e.name);
                assert_eq!(
                    e.rejected,
                    0,
                    "{}/{}: every witness must replay",
                    sys.name(),
                    e.name
                );
                let count = e.count.as_ref().expect("counting was on");
                let bracket = if count.exact {
                    format!("={}", count.lo)
                } else if count.hi == CountEstimate::HI_ABOVE_2_62 {
                    format!("[{},>2^62]", count.lo)
                } else {
                    format!("[{},{}]", count.lo, count.hi)
                };
                table.row(&[
                    sys.name(),
                    &e.name,
                    projection.name(),
                    &e.depth.to_string(),
                    &e.projection_bits.to_string(),
                    &e.cexes.len().to_string(),
                    if e.exhausted { "yes" } else { "cap" },
                    &bracket,
                    &fmt_time(verify_time),
                    &fmt_time(per_prop),
                ]);
                rows.push(Json::obj([
                    ("design", Json::str(sys.name())),
                    ("property", Json::str(&e.name)),
                    ("projection", Json::str(projection.name())),
                    ("depth", Json::int(e.depth as u64)),
                    ("projection_bits", Json::int(e.projection_bits as u64)),
                    ("distinct", Json::int(e.cexes.len() as u64)),
                    ("exhausted", Json::bool(e.exhausted)),
                    ("count_lo", Json::int(count.lo)),
                    ("count_hi", Json::int(count.hi)),
                    ("count_exact", Json::bool(count.exact)),
                    ("count_level", Json::int(count.level as u64)),
                    ("count_trials", Json::int(count.trials as u64)),
                    ("verify_us", Json::int(verify_time.as_micros() as u64)),
                    ("enum_us", Json::int(per_prop.as_micros() as u64)),
                ]));
            }
        }
    }

    table.print();
    println!(
        "(distinct: replay-checked witnesses no two of which agree on the projection set; \
         count: exact when the probe exhausted, else the XOR-hash bracket; \
         t(enum) is per falsified property, cap {max_cexes})"
    );

    if let Some(path) = json_path {
        let doc = Json::obj([
            ("bench", Json::str("enum_ablation")),
            ("provenance", japrove_bench::provenance()),
            ("small", Json::bool(small)),
            ("enum_max", Json::int(max_cexes as u64)),
            ("rows", Json::Arr(rows)),
        ]);
        if let Err(e) = write_json(&path, &doc) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
