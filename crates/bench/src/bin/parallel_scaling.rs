//! §11 — JA-verification and parallel computing.
//!
//! Runs JA-verification on the parallel probe design, once per
//! registered SAT backend: the sequential driver (`ja_verify`) as the
//! reference, then the parallel driver (`parallel_ja_verify`: shared
//! encoding, warm solvers, hardest-first work stealing) at increasing
//! worker counts. Every parallel run must reach exactly the sequential
//! verdicts; the per-row speedup is sequential vs. parallel time. On a
//! one-CPU host that column measures scheduling overhead; on a
//! many-core host it shows the (near embarrassing) parallel scaling
//! the paper argues for.
//!
//! `--json <path>` writes the rows in a CI-friendly schema. `--small`
//! switches to a reduced family so release-mode CI can smoke-run the
//! whole binary in seconds.
//!
//! The committed `BENCH_parallel_scaling.json` at the repository root
//! was written by an earlier version of this binary (rev
//! `dd906868241d`) that also ran a cold FIFO arm and a cost-model
//! ("learned") dispatch arm. Both lost to work stealing on all eight
//! backend × thread-count rows (cold FIFO 1.14–1.80×, learned
//! 1.06–1.15× slower), which is why they were removed; the file is kept
//! as that measurement.

use japrove_bench::{fmt_time, write_json, Json, Table};
use japrove_core::{ja_verify, parallel_ja_verify, MultiReport, SeparateOptions};
use japrove_genbench::FamilyParams;
use japrove_sat::BackendChoice;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: parallel_scaling [--small] [--repeat <n>] [--json <path>]");
    std::process::exit(2)
}

/// Runs `f` `repeat` times and returns the best (minimum) wall-clock
/// time together with *that run's* report, asserting every repeat
/// reached identical verdicts. Minimum-of-N is the standard way to
/// strip scheduler noise from wall-clock comparisons on shared hosts.
fn timed_best<F: FnMut() -> MultiReport>(
    repeat: usize,
    mut f: F,
) -> (std::time::Duration, MultiReport) {
    let mut best: Option<(std::time::Duration, MultiReport)> = None;
    for _ in 0..repeat.max(1) {
        let t = Instant::now();
        let r = f();
        let elapsed = t.elapsed();
        match &best {
            Some((best_time, best_report)) => {
                assert_eq!(
                    verdict_fingerprint(best_report),
                    verdict_fingerprint(&r),
                    "verdicts must be identical across repeats"
                );
                if elapsed < *best_time {
                    best = Some((elapsed, r));
                }
            }
            None => best = Some((elapsed, r)),
        }
    }
    best.expect("at least one run")
}

/// The reduced family for CI smoke runs: same structure, fewer and
/// shallower modules.
fn small_spec() -> FamilyParams {
    FamilyParams::new("syn_parallel_small", 1111)
        .chain(8, 24)
        .ring(8, 8)
        .easy_true(4)
}

fn verdict_fingerprint(report: &MultiReport) -> Vec<(bool, bool)> {
    report
        .results
        .iter()
        .map(|r| (r.holds(), r.fails()))
        .collect()
}

fn main() -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut small = false;
    let mut repeat = 3usize;
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

    let spec = if small {
        small_spec()
    } else {
        japrove_genbench::parallel_spec()
    };
    let design = spec.generate();
    let sys = &design.sys;
    let thread_counts: &[usize] = if small { &[1, 2] } else { &[1, 2, 4, 8] };

    let mut table = Table::new(
        "Section 11: parallel vs sequential JA-verification, per backend",
        &[
            "backend",
            "threads",
            "sequential",
            "parallel",
            "speedup",
            "#true",
            "#unsolved",
        ],
    );
    let mut rows: Vec<Json> = Vec::new();
    let row =
        |backend: BackendChoice, threads: usize, mode: &str, report: &MultiReport, seconds| {
            Json::obj([
                ("backend", Json::str(backend.name())),
                ("threads", Json::int(threads as u64)),
                ("mode", Json::str(mode)),
                ("seconds", Json::num(seconds)),
                ("best_of", Json::int(repeat as u64)),
                ("num_true", Json::int(report.num_true() as u64)),
                ("num_false", Json::int(report.num_false() as u64)),
                ("num_unsolved", Json::int(report.num_unsolved() as u64)),
            ])
        };
    for &backend in BackendChoice::ALL {
        let opts = SeparateOptions::local().backend(backend);
        let (seq_time, seq) = timed_best(repeat, || ja_verify(sys, &opts));
        rows.push(row(backend, 1, "sequential", &seq, seq_time.as_secs_f64()));
        for &threads in thread_counts {
            let (par_time, par) = timed_best(repeat, || parallel_ja_verify(sys, threads, &opts));
            assert_eq!(
                verdict_fingerprint(&seq),
                verdict_fingerprint(&par),
                "{backend} x{threads}: the parallel driver must reach the sequential verdicts"
            );
            let speedup = seq_time.as_secs_f64() / par_time.as_secs_f64();
            table.row(&[
                backend.name(),
                &threads.to_string(),
                &fmt_time(seq_time),
                &fmt_time(par_time),
                &format!("{speedup:.2}x"),
                &par.num_true().to_string(),
                &par.num_unsolved().to_string(),
            ]);
            let mut par_row = row(backend, threads, "parallel", &par, par_time.as_secs_f64());
            par_row.push("speedup_vs_sequential", Json::num(speedup));
            rows.push(par_row);
        }
    }
    table.print();
    println!(
        "(design: {} properties, {} latches; host exposes {} CPU(s) — with fewer CPUs than \
         threads the speedup column measures scheduling overhead, not parallel speedup)",
        sys.num_properties(),
        sys.num_latches(),
        host_cpus()
    );

    if let Some(path) = json_path {
        let doc = Json::obj([
            ("bench", Json::str("parallel_scaling")),
            ("provenance", japrove_bench::provenance()),
            ("design", Json::str(sys.name())),
            ("properties", Json::int(sys.num_properties() as u64)),
            ("latches", Json::int(sys.num_latches() as u64)),
            ("host_cpus", Json::int(host_cpus() as u64)),
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

fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
