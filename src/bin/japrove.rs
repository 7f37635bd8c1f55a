//! The japrove command-line front-end: the equivalent of the paper's
//! `Ja-ver`/`Jnt-ver` driver scripts (§7).
//!
//! Reads a (multi-property) AIGER design, runs the selected
//! verification mode and prints a per-property report plus the
//! debugging set; optionally writes AIGER witnesses for every failing
//! property.

use japrove::core::{
    enumerate_report, grouped_verify, local_assumptions, mine_verify, validate_debugging_set,
    ClusteredOptions, EnumOptions, GroupingOptions, JointOptions, MultiReport, Projection,
    SeparateOptions, Session, VerdictCache,
};
use japrove::ic3::Lifting;
use japrove::mine::MineOptions;
use japrove::obs::json::Value;
use japrove::obs::metrics::{phase_breakdown, render_breakdown};
use japrove::obs::{journal::parse_jsonl, FeatureStore, Journal, Phase, RunRecord};
use japrove::sat::BackendChoice;
use japrove::tsys::{write_witness, TransitionSystem};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
japrove — multi-property model checking with JA-verification (DATE'18)

USAGE:
    japrove [OPTIONS] <design.aag|design.aig>
    japrove [OPTIONS] --gen <family>
    japrove --check-trace <trace.jsonl>

OPTIONS:
    --mode <ja|joint|separate-global|grouped|clustered|parallel|parallel-global>
                              verification driver [default: ja]
    --threads <N>             workers for the parallel and clustered
                              modes [default: 2]
    --backend <cdcl|chrono>   SAT backend for every engine run
                              [default: cdcl]
    --per-property <SECS>     time limit per property
    --total <SECS>            time limit for the whole design
    --property-timeout <SECS> soft per-property watchdog: a check that
                              exceeds it is re-queued after every other
                              property with a doubled budget before the
                              unknown verdict sticks
    --retries <N>             supervised retry attempts for a faulted
                              (engine panic) or watchdog-timed-out
                              property [default: 1]
    --lifting <ignore|respect> state-lifting mode (§7-A) [default: ignore]
    --no-reuse                disable clause re-use (§6)
    --gen <family>            verify a generated benchmark design (by
                              spec name, e.g. syn_6s260) instead of a file
    --mine                    mine candidate invariants (const, equiv,
                              implication, one-hot, range) from the design
                              and verify the k-induction survivors as the
                              property workload
    --mine-depth <K>          induction depth for --mine promotion
                              [default: 2]
    --enum                    after the verdicts settle, enumerate
                              distinct counterexamples for every
                              falsified property (blocking clauses over
                              the --projection set; every witness is
                              replay-checked)
    --enum-max <N>            cap on enumerated counterexamples per
                              property [default: 16]
    --count                   XOR-hash estimate [lo, hi] of the number
                              of distinct failing --projection
                              assignments per falsified property
    --projection <inputs|latches>
                              what two counterexamples must differ on:
                              the whole input stimulus, or the final
                              state of the property cone's latch
                              support [default: inputs]
    --trace-out <FILE>        write the run journal as JSONL
    --metrics                 print the per-phase time breakdown
    --json <FILE>             write the report (with per-property solver
                              stats) as JSON
    --feature-store <FILE>    merge per-property cost records into a
                              persistent JSONL feature store
    --verdict-cache <FILE>    read/write a verdict cache keyed by
                              (cone structural hash, property); warm
                              hits re-certify the stored evidence
                              instead of re-solving
    --check-trace <FILE>      validate a JSONL trace against the event
                              schema and exit
    --fault-plan <SPEC>       deterministic fault injection: ';'-separated
                              clauses panic@SITE:RATE, delay@SITE:RATE:MILLIS
                              or truncate@SITE:RATE:BYTES (sites: check_one,
                              joint_attempt, enum_round,
                              feature_store_save, verdict_cache_save)
    --fault-seed <N>          seed for --fault-plan decisions [default: 0]
    --witness-dir <DIR>       write AIGER witnesses for failing properties,
                              one file per property named
                              P<index>_<name>.cex (<index> counts from 0
                              in declaration order; every character of
                              <name> outside [A-Za-z0-9._-] becomes '_')
    --validate                re-check the debugging-set guarantees
    -q, --quiet               only print the summary line
    -h, --help                show this help
";

/// The set of `--mode` values, in the order USAGE lists them.
const MODES: &[&str] = &[
    "ja",
    "joint",
    "separate-global",
    "grouped",
    "clustered",
    "parallel",
    "parallel-global",
];

struct Cli {
    path: String,
    gen: Option<String>,
    mine: bool,
    mine_depth: Option<usize>,
    enumerate: bool,
    count: bool,
    enum_max: usize,
    projection: Projection,
    mode: String,
    threads: usize,
    backend: BackendChoice,
    per_property: Option<Duration>,
    total: Option<Duration>,
    property_timeout: Option<Duration>,
    retries: Option<usize>,
    fault_plan: Option<String>,
    fault_seed: u64,
    lifting: Lifting,
    reuse: bool,
    trace_out: Option<String>,
    metrics: bool,
    json_out: Option<String>,
    feature_store: Option<String>,
    verdict_cache: Option<String>,
    check_trace: Option<String>,
    witness_dir: Option<String>,
    validate: bool,
    quiet: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        path: String::new(),
        gen: None,
        mine: false,
        mine_depth: None,
        enumerate: false,
        count: false,
        enum_max: 16,
        projection: Projection::default(),
        mode: "ja".into(),
        threads: 2,
        backend: BackendChoice::default(),
        per_property: None,
        total: None,
        property_timeout: None,
        retries: None,
        fault_plan: None,
        fault_seed: 0,
        lifting: Lifting::Ignore,
        reuse: true,
        trace_out: None,
        metrics: false,
        json_out: None,
        feature_store: None,
        verdict_cache: None,
        check_trace: None,
        witness_dir: None,
        validate: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "-q" | "--quiet" => cli.quiet = true,
            "--validate" => cli.validate = true,
            "--no-reuse" => cli.reuse = false,
            "--mode" => cli.mode = value("--mode")?,
            "--backend" => cli.backend = value("--backend")?.parse()?,
            "--threads" => {
                cli.threads = value("--threads")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "invalid --threads (need an integer >= 1)".to_string())?
            }
            "--per-property" => {
                cli.per_property = Some(parse_secs(
                    "--per-property",
                    &value("--per-property")?,
                    true,
                )?)
            }
            "--total" => cli.total = Some(parse_secs("--total", &value("--total")?, true)?),
            "--property-timeout" => {
                cli.property_timeout = Some(parse_secs(
                    "--property-timeout",
                    &value("--property-timeout")?,
                    false,
                )?)
            }
            "--retries" => {
                cli.retries = Some(value("--retries")?.parse().map_err(|_| {
                    "invalid --retries (need an integer >= 0, e.g. --retries 2)".to_string()
                })?)
            }
            "--fault-plan" => cli.fault_plan = Some(value("--fault-plan")?),
            "--fault-seed" => {
                cli.fault_seed = value("--fault-seed")?.parse().map_err(|_| {
                    "invalid --fault-seed (need an integer, e.g. --fault-seed 7)".to_string()
                })?
            }
            "--lifting" => {
                cli.lifting = match value("--lifting")?.as_str() {
                    "ignore" => Lifting::Ignore,
                    "respect" => Lifting::Respect,
                    other => return Err(format!("unknown lifting mode '{other}'")),
                }
            }
            "--gen" => cli.gen = Some(value("--gen")?),
            "--mine" => cli.mine = true,
            "--enum" => cli.enumerate = true,
            "--count" => cli.count = true,
            "--enum-max" => {
                cli.enum_max = value("--enum-max")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "invalid --enum-max (need an integer >= 1)".to_string())?
            }
            "--projection" => cli.projection = value("--projection")?.parse()?,
            "--mine-depth" => {
                cli.mine_depth = Some(
                    value("--mine-depth")?
                        .parse()
                        .ok()
                        .filter(|&k| k >= 1)
                        .ok_or_else(|| "invalid --mine-depth (need an integer >= 1)".to_string())?,
                )
            }
            "--trace-out" => cli.trace_out = Some(value("--trace-out")?),
            "--metrics" => cli.metrics = true,
            "--json" => cli.json_out = Some(value("--json")?),
            "--feature-store" => cli.feature_store = Some(value("--feature-store")?),
            "--verdict-cache" => cli.verdict_cache = Some(value("--verdict-cache")?),
            "--check-trace" => cli.check_trace = Some(value("--check-trace")?),
            "--witness-dir" => cli.witness_dir = Some(value("--witness-dir")?),
            other if other.starts_with('-') => return Err(format!("unknown option '{other}'")),
            path => {
                if !cli.path.is_empty() {
                    return Err("more than one design file given".into());
                }
                cli.path = path.to_string();
            }
        }
    }
    if !MODES.contains(&cli.mode.as_str()) {
        return Err(format!(
            "unknown mode '{}' (available: {})",
            cli.mode,
            MODES.join(", ")
        ));
    }
    if cli.check_trace.is_some() {
        return Ok(cli);
    }
    if cli.path.is_empty() && cli.gen.is_none() {
        return Err("no design file given (or use --gen <family>)".into());
    }
    if !cli.path.is_empty() && cli.gen.is_some() {
        return Err("give either a design file or --gen, not both".into());
    }
    if cli.mine_depth.is_some() && !cli.mine {
        return Err("--mine-depth only makes sense with --mine".into());
    }
    Ok(cli)
}

/// Parses the `<SECS>` value of a time flag into a `Duration`. NaN,
/// infinities, negative values and values too large for a `Duration`
/// are errors naming the flag; zero is an error unless `allow_zero`.
fn parse_secs(flag: &str, value: &str, allow_zero: bool) -> Result<Duration, String> {
    value
        .parse::<f64>()
        .ok()
        .filter(|&s| allow_zero || s > 0.0)
        .and_then(|s| Duration::try_from_secs_f64(s).ok())
        .ok_or_else(|| {
            let need = if allow_zero {
                "non-negative"
            } else {
                "positive"
            };
            format!("invalid {flag} '{value}' (need seconds as a {need} number, e.g. {flag} 2.5)")
        })
}

/// The enumeration options implied by the flags, or `None` when
/// neither `--enum` nor `--count` was given.
fn enum_options(cli: &Cli, journal: &Journal) -> Option<EnumOptions> {
    if !cli.enumerate && !cli.count {
        return None;
    }
    let mut opts = EnumOptions::new()
        .enumerate(cli.enumerate)
        .count(cli.count)
        .max_cexes(cli.enum_max)
        .projection(cli.projection)
        .backend(cli.backend)
        .journal(journal.clone());
    if let Some(n) = cli.retries {
        opts = opts.retries(n);
    }
    Some(opts)
}

fn load_design(cli: &Cli) -> Result<TransitionSystem, String> {
    if let Some(family) = &cli.gen {
        return Ok(japrove::genbench::resolve_spec(family)?.generate().sys);
    }
    let bytes = std::fs::read(&cli.path).map_err(|e| format!("cannot read {}: {e}", cli.path))?;
    let model = japrove::aig::read_aiger(&bytes).map_err(|e| e.to_string())?;
    if model.bads.is_empty() && !cli.mine {
        return Err("design has no bad-state properties (B section)".into());
    }
    let name = std::path::Path::new(&cli.path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design")
        .to_string();
    Ok(TransitionSystem::from_aiger(name, model))
}

fn run(cli: &Cli, journal: &Journal) -> Result<(MultiReport, TransitionSystem), String> {
    let sys = load_design(cli)?;

    let mut sep = SeparateOptions::local()
        .lifting(cli.lifting)
        .reuse(cli.reuse)
        .backend(cli.backend)
        .journal(journal.clone());
    if let Some(d) = cli.per_property {
        sep = sep.per_property_timeout(d);
    }
    if let Some(d) = cli.total {
        sep = sep.total_timeout(d);
    }
    if let Some(d) = cli.property_timeout {
        sep = sep.watchdog(d);
    }
    if let Some(n) = cli.retries {
        sep = sep.retries(n);
    }
    let mut joint = JointOptions::new()
        .backend(cli.backend)
        .journal(journal.clone());
    if let Some(d) = cli.total {
        joint = joint.total_timeout(d);
    }
    let global = |mut opts: SeparateOptions| {
        opts.scope = japrove::core::Scope::Global;
        opts
    };

    let mut cache_slot = match &cli.verdict_cache {
        Some(path) => {
            let (cache, skipped) = VerdictCache::load_lossy(path)
                .map_err(|e| format!("cannot read verdict cache {path}: {e}"))?;
            if skipped > 0 {
                eprintln!("warning: verdict cache {path}: skipped {skipped} malformed entries");
            }
            Some(cache)
        }
        None => None,
    };

    let _run_span = journal.span_labeled(Phase::Run, cli.mode.as_str());
    // Every Session-backed mode funnels through one closure so the mine
    // path (which verifies the *mined* system) shares the exact same
    // wiring.
    let enum_opts = enum_options(cli, journal);
    let mut verify = |sys: &TransitionSystem| match cli.mode.as_str() {
        "grouped" => {
            // The grouped baseline predates the Session pipeline; run
            // the post-verdict pass directly on its report.
            let mut report = grouped_verify(sys, &GroupingOptions::new().joint(joint.clone()));
            if let Some(opts) = &enum_opts {
                report.enumerations = enumerate_report(sys, &report, opts);
            }
            report
        }
        mode => {
            let mut session = match mode {
                "ja" => Session::separate(sep.clone()),
                "separate-global" => Session::separate(global(sep.clone())),
                "joint" => Session::joint(joint.clone()),
                "clustered" => {
                    let opts = ClusteredOptions::new()
                        .separate(global(sep.clone()))
                        .backend(cli.backend)
                        .journal(journal.clone());
                    Session::clustered(opts, cli.threads)
                }
                "parallel" => Session::parallel(sep.clone(), cli.threads),
                "parallel-global" => Session::parallel(global(sep.clone()), cli.threads),
                other => unreachable!("mode '{other}' slipped past validation"),
            };
            if let Some(cache) = cache_slot.take() {
                session = session.verdict_cache(cache);
            }
            if let Some(opts) = &enum_opts {
                session = session.enumeration(opts.clone());
            }
            let report = session.run(sys);
            cache_slot = session.take_verdict_cache();
            report
        }
    };

    let (report, sys) = if cli.mine {
        let k = cli.mine_depth.unwrap_or(2);
        let opts = MineOptions::new()
            .k(k)
            .backend(cli.backend)
            .journal(journal.clone());
        let outcome = mine_verify(&sys, &opts, verify);
        let s = &outcome.mined.stats;
        // One deterministic line the CI smoke job greps; printed even
        // under -q because it is the mining run's headline number.
        println!(
            "mined {} properties from {} ({} candidates, {} sim-killed, {} induction-killed; k={k})",
            s.promoted(),
            sys.name(),
            s.generated(),
            s.sim_killed(),
            s.induction_killed(),
        );
        (outcome.report, outcome.mined.sys)
    } else {
        let report = verify(&sys);
        (report, sys)
    };

    if let Some(path) = &cli.verdict_cache {
        if let Some(cache) = &cache_slot {
            cache
                .save(path)
                .map_err(|e| format!("cannot write verdict cache {path}: {e}"))?;
            let hits = report.results.iter().filter(|r| r.cached).count();
            // Deterministic line the CI verdict-cache-smoke job greps.
            println!("verdict cache {path}: {hits} hits, {} entries", cache.len());
        }
    }
    Ok((report, sys))
}

/// Prints the per-property enumeration/counting lines. Deterministic
/// (the CI enum-smoke job greps them) and printed even under `-q` —
/// they are the pass's headline numbers.
fn print_enumerations(cli: &Cli, report: &MultiReport) {
    if report.enumerations.is_empty() {
        println!("0 enumerable properties");
        return;
    }
    for e in &report.enumerations {
        if e.faulted {
            println!("enumeration of {} faulted (enum_round)", e.name);
            continue;
        }
        if cli.enumerate {
            println!(
                "enumerated {}: {} distinct counterexamples at depth {} over {} {} bits{}{}",
                e.name,
                e.cexes.len(),
                e.depth,
                e.projection_bits,
                e.projection,
                if e.exhausted { " (all)" } else { " (capped)" },
                if e.rejected > 0 {
                    " [replay rejected some!]"
                } else {
                    ""
                },
            );
        }
        if let Some(c) = &e.count {
            if c.exact {
                println!(
                    "counted {}: exactly {} bad {} assignments",
                    e.name, c.lo, e.projection
                );
            } else {
                println!(
                    "counted {}: [{}, {}] bad {} assignments (level {}, {} trials, eps={}, delta={})",
                    e.name, c.lo, c.hi, e.projection, c.level, c.trials, c.epsilon, c.delta
                );
            }
        }
    }
}

/// Renders the report (with each property's engine and SAT counters)
/// as a single JSON document.
fn report_json(report: &MultiReport) -> Value {
    let int = |x: u64| Value::Int(x as i64);
    let props: Vec<Value> = report
        .results
        .iter()
        .map(|r| {
            let verdict = if r.holds() {
                "holds"
            } else if r.fails() {
                "fails"
            } else {
                "unknown"
            };
            let s = &r.stats;
            Value::Obj(vec![
                ("name".into(), Value::Str(r.name.clone())),
                ("verdict".into(), Value::Str(verdict.into())),
                ("scope".into(), Value::Str(r.scope.to_string())),
                ("time_us".into(), int(r.time.as_micros() as u64)),
                ("frames".into(), int(r.frames as u64)),
                ("retried".into(), Value::Bool(r.retried)),
                ("cached".into(), Value::Bool(r.cached)),
                ("backend".into(), Value::Str(r.backend.to_string())),
                (
                    "stats".into(),
                    Value::Obj(vec![
                        ("queries".into(), int(s.queries)),
                        ("clauses".into(), int(s.clauses as u64)),
                        ("obligations".into(), int(s.obligations)),
                        ("generalized_lits".into(), int(s.generalized_lits)),
                        ("solves".into(), int(s.sat.solves)),
                        ("decisions".into(), int(s.sat.decisions)),
                        ("propagations".into(), int(s.sat.propagations)),
                        ("conflicts".into(), int(s.sat.conflicts)),
                        ("learnt_clauses".into(), int(s.sat.learnt_clauses)),
                        ("deleted_clauses".into(), int(s.sat.deleted_clauses)),
                        ("restarts".into(), int(s.sat.restarts)),
                    ]),
                ),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("design".into(), Value::Str(report.design.clone())),
        ("method".into(), Value::Str(report.method.clone())),
        (
            "total_time_us".into(),
            int(report.total_time.as_micros() as u64),
        ),
        ("num_true".into(), int(report.num_true() as u64)),
        ("num_false".into(), int(report.num_false() as u64)),
        ("num_unsolved".into(), int(report.num_unsolved() as u64)),
        ("properties".into(), Value::Arr(props)),
        (
            "enumerations".into(),
            Value::Arr(
                report
                    .enumerations
                    .iter()
                    .map(|e| {
                        let mut obj = vec![
                            ("name".into(), Value::Str(e.name.clone())),
                            ("depth".into(), int(e.depth as u64)),
                            ("projection".into(), Value::Str(e.projection.to_string())),
                            ("projection_bits".into(), int(e.projection_bits as u64)),
                            ("distinct".into(), int(e.cexes.len() as u64)),
                            ("exhausted".into(), Value::Bool(e.exhausted)),
                            ("faulted".into(), Value::Bool(e.faulted)),
                        ];
                        if let Some(c) = &e.count {
                            obj.push((
                                "count".into(),
                                Value::Obj(vec![
                                    ("lo".into(), int(c.lo)),
                                    ("hi".into(), int(c.hi)),
                                    ("exact".into(), Value::Bool(c.exact)),
                                    ("level".into(), int(c.level as u64)),
                                    ("trials".into(), int(c.trials as u64)),
                                    ("epsilon".into(), Value::Num(c.epsilon)),
                                    ("delta".into(), Value::Num(c.delta)),
                                ]),
                            ));
                        }
                        Value::Obj(obj)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `--witness-dir` file name of property `index`: `P{index}_{name}.cex`
/// with every character of `name` outside `[A-Za-z0-9._-]` replaced by
/// `_`. Property names come verbatim from the AIGER symbol table, so
/// the name alone could hold a path separator or repeat another
/// property's; the index keeps every file distinct and inside the
/// directory.
fn witness_file_name(index: usize, name: &str) -> String {
    let safe: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("P{index}_{safe}.cex")
}

/// Merges this run's per-property records into the JSONL feature store
/// at `path`.
fn update_feature_store(
    path: &str,
    sys: &TransitionSystem,
    report: &MultiReport,
    mode: &str,
) -> Result<usize, String> {
    let (mut store, skipped) = FeatureStore::load_lossy(path).map_err(|e| e.to_string())?;
    if skipped > 0 {
        eprintln!("warning: feature store {path}: skipped {skipped} malformed records");
    }
    let design = format!("{:016x}", sys.structural_hash());
    // Cache hits cost ~no solver time; recording them would claim the
    // property is free. Only fresh runs are recorded.
    for r in report.results.iter().filter(|r| !r.cached) {
        let verdict = if r.holds() {
            "holds"
        } else if r.fails() {
            "fails"
        } else {
            "unknown"
        };
        store.upsert(RunRecord {
            design: design.clone(),
            property: r.name.clone(),
            mode: mode.to_string(),
            verdict: verdict.into(),
            time_us: r.time.as_micros() as u64,
            frames: r.frames as u64,
            conflicts: r.stats.sat.conflicts,
            decisions: r.stats.sat.decisions,
            propagations: r.stats.sat.propagations,
            restarts: r.stats.sat.restarts,
        });
    }
    store.save(path).map_err(|e| e.to_string())?;
    Ok(store.len())
}

/// The `--check-trace` mode: parse a JSONL trace strictly, rejecting
/// unknown event kinds; the CI smoke job gates on the exit code.
fn check_trace(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match parse_jsonl(&text) {
        Ok(events) => {
            println!("trace ok: {} events", events.len());
            ExitCode::SUCCESS
        }
        Err((line, e)) => {
            eprintln!("trace invalid at line {line}: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &cli.check_trace {
        return check_trace(path);
    }

    // Arm the chaos harness: an explicit --fault-plan wins over the
    // JAPROVE_FAULT_PLAN env bootstrap (which reaches processes that
    // grew no flag, like the benches).
    let plan = match &cli.fault_plan {
        Some(spec) => japrove::obs::fault::FaultPlan::parse(spec, cli.fault_seed).map(Some),
        None => japrove::obs::fault::FaultPlan::from_env(),
    };
    match plan {
        Ok(Some(plan)) => japrove::obs::fault::install(plan),
        Ok(None) => {}
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    }

    // A journal costs one pointer check per call when disabled; only
    // allocate the real thing when some sink will consume it.
    let journal = if cli.trace_out.is_some() || cli.metrics {
        Journal::new()
    } else {
        Journal::disabled()
    };
    let (report, sys) = match run(&cli, &journal) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &cli.trace_out {
        let write = std::fs::File::create(path)
            .map_err(|e| e.to_string())
            .and_then(|mut f| journal.write_jsonl(&mut f).map_err(|e| e.to_string()));
        match write {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => {
                eprintln!("error writing trace {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if cli.metrics {
        let events = journal.events();
        let rows = phase_breakdown(&events);
        println!(
            "{}",
            render_breakdown(&rows, report.total_time.as_micros() as u64)
        );
    }
    if let Some(path) = &cli.json_out {
        let doc = report_json(&report);
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("error writing report {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("report written to {path}");
    }
    if let Some(path) = &cli.feature_store {
        match update_feature_store(path, &sys, &report, &cli.mode) {
            Ok(n) => eprintln!("feature store {path}: {n} records"),
            Err(e) => {
                eprintln!("error updating feature store {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if cli.quiet {
        println!("{}", report.summary());
    } else {
        println!("{report}");
        let debug_set: Vec<String> = report
            .debugging_set()
            .iter()
            .map(|&p| sys.property(p).name.clone())
            .collect();
        if !debug_set.is_empty() {
            println!("debugging set (fix these first): {debug_set:?}");
        }
    }
    if cli.enumerate || cli.count {
        print_enumerations(&cli, &report);
    }

    if let Some(dir) = &cli.witness_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {dir}: {e}");
            return ExitCode::from(2);
        }
        for r in &report.results {
            if let Some(cex) = r.counterexample() {
                let path = format!("{dir}/{}", witness_file_name(r.id.index(), &r.name));
                match std::fs::File::create(&path) {
                    Ok(mut f) => {
                        if let Err(e) = write_witness(&mut f, &sys, r.id, &cex.trace) {
                            eprintln!("error writing {path}: {e}");
                        }
                    }
                    Err(e) => eprintln!("error creating {path}: {e}"),
                }
            }
        }
    }

    if cli.validate {
        let assumed = local_assumptions(&sys);
        match validate_debugging_set(&sys, &report, &assumed) {
            Ok(()) => eprintln!("validation: debugging-set guarantees hold"),
            Err(e) => {
                eprintln!("validation FAILED: {e}");
                return ExitCode::from(3);
            }
        }
    }

    // Exit code 0: all hold; 1: some property fails; 4: unsolved left.
    if report.num_false() > 0 {
        ExitCode::from(1)
    } else if report.num_unsolved() > 0 {
        ExitCode::from(4)
    } else {
        ExitCode::SUCCESS
    }
}
