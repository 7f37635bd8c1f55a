//! Mining ablation: per-stage accounting and wall-clock of the
//! guess → simulation-filter → k-induction pipeline, plus the cost of
//! verifying the mined workload with the separate and clustered
//! drivers.
//!
//! For every Table VII-style all-true family the binary reports, per
//! candidate kind and in total:
//!
//! * how many candidates the signature pass generated,
//! * how many the random-simulation filter killed (genuinely false,
//!   with a concrete witnessing run),
//! * how many k-induction killed (base case: genuinely false; step
//!   case: not provable at this depth),
//! * how many survived as proved properties of the mined system,
//!
//! together with the wall-clock of each stage and of the downstream
//! verification. Verdict parity between the separate baseline and the
//! clustered driver is asserted on every mined workload, and no mined
//! property may be falsified — the bench doubles as a soundness run.
//! Each row also reports clustered over separate verify time, and the
//! run names every row where clustered is the slower driver.
//!
//! `--json <path>` writes the rows; the committed `BENCH_mining.json`
//! at the repository root is regenerated exactly this way. `--small`
//! reduces to two families so release-mode CI can smoke-run the binary
//! in seconds.

use japrove_bench::{fmt_time, write_json, Json, Table};
use japrove_core::{clustered_verify, separate_verify, ClusteredOptions, SeparateOptions};
use japrove_genbench::{resolve_spec, FamilyParams};
use japrove_mine::{mine, CandidateKind, MineOptions, MiningOutcome};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!("usage: mining_ablation [--small] [--json <path>] [--mine-depth <k>]");
    std::process::exit(2)
}

/// The family slice: all-true generator families whose mined workload
/// lands in the hundreds (the paper's Table VII regime).
fn full_specs() -> Vec<FamilyParams> {
    [
        "syn_6s135",
        "syn_6s139",
        "syn_6s256",
        "syn_6s273",
        "syn_6s275",
    ]
    .iter()
    .map(|name| resolve_spec(name).expect("known family"))
    .collect()
}

fn small_specs() -> Vec<FamilyParams> {
    ["syn_6s135", "syn_6s275"]
        .iter()
        .map(|name| resolve_spec(name).expect("known family"))
        .collect()
}

fn per_kind_json(outcome: &MiningOutcome) -> Json {
    Json::arr(CandidateKind::ALL.iter().map(|&kind| {
        let s = outcome.stats.kind(kind);
        Json::obj([
            ("kind", Json::str(kind.name())),
            ("generated", Json::int(s.generated as u64)),
            ("sim_killed", Json::int(s.sim_killed as u64)),
            ("base_killed", Json::int(s.base_killed as u64)),
            ("step_killed", Json::int(s.step_killed as u64)),
            ("promoted", Json::int(s.promoted as u64)),
        ])
    }))
}

fn main() -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut small = false;
    let mut k = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => small = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => usage(),
            },
            "--mine-depth" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => k = n,
                _ => usage(),
            },
            _ => usage(),
        }
    }

    let specs = if small { small_specs() } else { full_specs() };

    let mut table = Table::new(
        "Mining ablation: guess / sim-filter / k-induction, then verify",
        &[
            "design", "#cand", "sim-kill", "ind-kill", "mined", "t(gen)", "t(sim)", "t(ind)",
            "t(sep)", "t(clu)", "clu/sep",
        ],
    );
    let mut rows: Vec<Json> = Vec::new();
    let mut clustered_slower: Vec<String> = Vec::new();

    for spec in specs {
        let sys = spec.generate().sys;
        let opts = MineOptions::new().k(k);

        let t = Instant::now();
        let outcome = mine(&sys, &opts);
        let mine_total = t.elapsed();
        let s = &outcome.stats;
        assert_eq!(
            s.generated(),
            s.sim_killed() + s.induction_killed() + s.promoted(),
            "{}: stage accounting must balance",
            sys.name()
        );

        let t = Instant::now();
        let separate = separate_verify(&outcome.sys, &SeparateOptions::global());
        let sep_time = t.elapsed();
        let t = Instant::now();
        let clustered = clustered_verify(
            &outcome.sys,
            &ClusteredOptions::new().separate(SeparateOptions::global()),
        );
        let clu_time = t.elapsed();

        // Soundness gate: mined invariants are k-induction proved, so
        // neither driver may falsify (or fail to re-prove) any of them.
        for (a, b) in separate.results.iter().zip(&clustered.results) {
            assert_eq!(a.id, b.id);
            assert!(
                a.holds(),
                "{}/{}: separate lost a mined proof",
                sys.name(),
                a.name
            );
            assert!(
                b.holds(),
                "{}/{}: clustered lost a mined proof",
                sys.name(),
                b.name
            );
        }

        let ratio = clu_time.as_secs_f64() / sep_time.as_secs_f64();
        if ratio > 1.0 {
            clustered_slower.push(sys.name().to_string());
        }
        table.row(&[
            sys.name(),
            &s.generated().to_string(),
            &s.sim_killed().to_string(),
            &s.induction_killed().to_string(),
            &s.promoted().to_string(),
            &fmt_time(Duration::from_micros(s.gen_us)),
            &fmt_time(Duration::from_micros(s.sim_us)),
            &fmt_time(Duration::from_micros(s.induction_us)),
            &fmt_time(sep_time),
            &fmt_time(clu_time),
            &format!("{ratio:.2}"),
        ]);
        rows.push(Json::obj([
            ("design", Json::str(sys.name())),
            ("latches", Json::int(sys.num_latches() as u64)),
            ("mine_depth", Json::int(k as u64)),
            ("generated", Json::int(s.generated() as u64)),
            ("sim_killed", Json::int(s.sim_killed() as u64)),
            ("induction_killed", Json::int(s.induction_killed() as u64)),
            ("promoted", Json::int(s.promoted() as u64)),
            ("truncated", Json::int(s.truncated as u64)),
            ("cegar_rounds", Json::int(s.rounds as u64)),
            ("gen_us", Json::int(s.gen_us)),
            ("sim_us", Json::int(s.sim_us)),
            ("induction_us", Json::int(s.induction_us)),
            ("mine_total_us", Json::int(mine_total.as_micros() as u64)),
            ("verify_separate_us", Json::int(sep_time.as_micros() as u64)),
            (
                "verify_clustered_us",
                Json::int(clu_time.as_micros() as u64),
            ),
            ("clustered_over_separate", Json::num(ratio)),
            ("per_kind", per_kind_json(&outcome)),
        ]));
    }

    table.print();
    println!(
        "(sim-kill: falsified by the random-simulation filter; ind-kill: rejected by \
         k={k} induction; every mined property re-proves under both drivers)"
    );
    if clustered_slower.is_empty() {
        println!("clustered verifies no slower than separate on every row");
    } else {
        println!(
            "clustered verifies slower than separate on: {}",
            clustered_slower.join(", ")
        );
    }

    if let Some(path) = json_path {
        let doc = Json::obj([
            ("bench", Json::str("mining_ablation")),
            ("provenance", japrove_bench::provenance()),
            ("small", Json::bool(small)),
            ("mine_depth", Json::int(k as u64)),
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
