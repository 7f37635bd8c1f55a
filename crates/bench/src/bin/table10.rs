//! Table X — single properties of a many-property design solved
//! globally vs locally (§11).
//!
//! Randomly-picked individual properties of the probe design are
//! verified with a global proof and with a local proof (no clause
//! exchange between the runs). The paper's effect: global proofs need
//! ~10+ frames, local proofs converge at frame 1-2 in a fraction of
//! the time — the basis of the parallel-verification argument.
//!
//! Every sampled property is solved once per registered SAT backend,
//! so the table doubles as a per-backend timing comparison for the
//! portfolio assignment. `--json <path>` additionally writes the rows
//! in the CI-friendly schema shared with `parallel_scaling`.

use japrove_bench::{fmt_time, write_json, Json, Table};
use japrove_core::Scope;
use japrove_core::{local_assumptions, SeparateOptions};
use japrove_genbench::probe_spec;
use japrove_sat::BackendChoice;
use japrove_tsys::PropertyId;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--json", Some(p)) => json_path = Some(p),
            _ => {
                eprintln!("usage: table10 [--json <path>]");
                return ExitCode::from(2);
            }
        }
    }
    let design = probe_spec().generate();
    let sys = &design.sys;
    let n = sys.num_properties();
    // A deterministic sample of *sink* properties — the analogue of the
    // 6s289 properties, which depend on a small cone whose global proof
    // needs the neighbour module's invariant (like the paper's indices
    // 20, 137, 500, ...).
    let sinks: Vec<usize> = (0..n)
        .filter(|&i| sys.properties()[i].name.starts_with("chain_sink"))
        .collect();
    let sample: Vec<usize> = (0..9).map(|i| sinks[(i * 7 + 3) % sinks.len()]).collect();

    let mut table = Table::new(
        "Table X: single properties solved globally vs locally, per backend",
        &[
            "prop index",
            "backend",
            "global #frames",
            "global time",
            "local #frames",
            "local time",
        ],
    );
    let assumed = local_assumptions(sys);
    let mut rows: Vec<Json> = Vec::new();
    for &backend in BackendChoice::ALL {
        let mut max_gf = 0usize;
        let mut max_lf = 0usize;
        for &i in &sample {
            let id = PropertyId::new(i);
            let global = japrove_core::check_one_property(
                sys,
                id,
                &[],
                &SeparateOptions::global().backend(backend),
                None,
            );
            let local = japrove_core::check_one_property(
                sys,
                id,
                &assumed,
                &SeparateOptions::local().backend(backend),
                None,
            );
            assert_eq!(global.scope, Scope::Global);
            assert_eq!(global.backend, backend);
            max_gf = max_gf.max(global.frames);
            max_lf = max_lf.max(local.frames);
            rows.push(Json::obj([
                ("prop_index", Json::int(i as u64)),
                ("backend", Json::str(backend.name())),
                ("global_frames", Json::int(global.frames as u64)),
                ("global_seconds", Json::num(global.time.as_secs_f64())),
                ("local_frames", Json::int(local.frames as u64)),
                ("local_seconds", Json::num(local.time.as_secs_f64())),
            ]));
            table.row(&[
                &i.to_string(),
                backend.name(),
                &global.frames.to_string(),
                &fmt_time(global.time),
                &local.frames.to_string(),
                &fmt_time(local.time),
            ]);
        }
        table.row(&[
            "max",
            backend.name(),
            &max_gf.to_string(),
            "",
            &max_lf.to_string(),
            "",
        ]);
    }
    table.print();
    println!(
        "(design has {} properties; local proofs converge almost immediately on every backend)",
        n
    );
    if let Some(path) = json_path {
        let doc = Json::obj([
            ("bench", Json::str("table10")),
            ("design", Json::str(sys.name())),
            ("properties", Json::int(n as u64)),
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
