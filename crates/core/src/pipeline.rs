//! The unified verification pipeline: Plan → Dispatch → Solve →
//! Report.
//!
//! Every driver mode is one [`Session`] configuration over the same
//! four stages:
//!
//! * **Plan** — turn the property set into ordered *units* (singletons
//!   for the separate/parallel modes, affinity clusters for the
//!   clustered mode, one aggregate unit for the joint mode), consult
//!   the [`VerdictCache`] so unchanged-cone properties skip solving,
//!   and weigh units by the COI-size proxy;
//! * **Dispatch** — hand units to workers: hardest-first work-stealing
//!   deques ([`Dispatcher`]), or a plain in-order walk for the
//!   sequential drivers;
//! * **Solve** — run each unit on a warm [`CtxPool`] with clause
//!   re-use wired through [`ClauseDb`]/[`TwoLevelSource`];
//! * **Report** — restore the caller-visible result order, write fresh
//!   verdicts back to the cache, stamp totals.
//!
//! The public driver functions (`separate_verify`, `joint_verify`,
//! `parallel_ja_verify`, `clustered_verify`, …) are thin wrappers that
//! build a `Session`; their `--mode` semantics and verdict-parity
//! guarantees are unchanged.
//!
//! # Dispatch order and determinism
//!
//! Hardest-first ordering lives in one place ([`Plan`]): units are
//! stable-sorted by descending weight, so **ties keep the caller's
//! order** (declaration order for properties, discovery order for
//! clusters). At one worker thread the dispatch order is therefore
//! exactly [`Plan::dispatch_order`], fully deterministic; at more
//! threads the *deal* is deterministic and only the steal timing
//! varies, which affects speed, never verdicts.

use crate::affinity::affinity_clusters;
use crate::cluster::latch_supports;
use crate::joint::{aggregate_system, falsified_by_replay};
use crate::parallel::Dispatcher;
use crate::separate::{check_one, check_one_imports, local_assumptions, CtxPool};
use crate::verdict_cache::{CacheEntry, VerdictCache};
use crate::{
    ClauseDb, ClusteredOptions, JointOptions, MultiReport, PropertyResult, Scope, SeparateOptions,
    TwoLevelSource,
};
use japrove_ic3::{
    verify_certificate, Bmc, BmcResult, Certificate, CheckOutcome, ClauseSource, Counterexample,
    Ic3, RunStats, TsEncoding, UnknownReason,
};
use japrove_logic::{Clause, Var};
use japrove_obs::{EventKind, Journal, Phase};
use japrove_sat::{BackendChoice, Budget};
use japrove_tsys::{complete_trace, replay, CoiMap, PropertyId, TransitionSystem};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One schedulable unit of work: a singleton property or a cluster.
#[derive(Clone, Debug)]
pub struct PlanUnit {
    /// The unit's properties (one for singleton units).
    pub members: Vec<PropertyId>,
    /// Estimated cost, used for hardest-first ordering: the
    /// latch-support size proxy, normalized against the design's
    /// largest support. Cluster weights sum their members.
    pub weight: f64,
}

/// The Plan stage's output: cache-resolved results plus ordered units
/// for everything that still needs solving.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Units in dispatch order (hardest first where the mode sorts).
    pub units: Vec<PlanUnit>,
    /// Verdicts resolved from the verdict cache; these properties
    /// appear in no unit.
    pub cached: Vec<PropertyResult>,
    /// The full planned property list in caller (declaration or
    /// `order`-override) order, cached members included — the report
    /// stage restores this order.
    order: Vec<PropertyId>,
}

impl Plan {
    /// The properties that will be solved, flattened in dispatch
    /// order. At one worker thread this is exactly the solve order.
    pub fn dispatch_order(&self) -> Vec<PropertyId> {
        self.units.iter().flat_map(|u| u.members.clone()).collect()
    }
}

/// Stable hardest-first ordering, shared by the parallel and clustered
/// planners (it used to be duplicated in both drivers): descending
/// weight, and **ties keep the incoming order** — declaration order
/// for properties, discovery order for clusters — so dispatch is
/// deterministic at one thread.
fn order_units(units: &mut [PlanUnit]) {
    units.sort_by(|a, b| b.weight.total_cmp(&a.weight));
}

enum SessionKind {
    Separate(SeparateOptions),
    Parallel(SeparateOptions),
    Joint(JointOptions),
    Clustered(ClusteredOptions),
}

/// One verification run through the unified pipeline.
///
/// All four `--mode` families are configurations of this type:
///
/// ```
/// use japrove_aig::Aig;
/// use japrove_core::{SeparateOptions, Session};
/// use japrove_tsys::{TransitionSystem, Word};
///
/// let mut aig = Aig::new();
/// let c = Word::latches(&mut aig, 4, 0);
/// let n = c.increment(&mut aig);
/// c.set_next(&mut aig, &n);
/// let ok = c.lt_const(&mut aig, 16);
/// let mut sys = TransitionSystem::new("cnt", aig);
/// sys.add_property("in_range", ok);
///
/// let report = Session::separate(SeparateOptions::local()).run(&sys);
/// assert_eq!(report.num_true(), 1);
/// ```
pub struct Session {
    kind: SessionKind,
    threads: usize,
    cache: Option<VerdictCache>,
    enumeration: Option<crate::EnumOptions>,
}

impl Session {
    /// Sequential separate verification (JA under [`Scope::Local`],
    /// the separate-global baseline under [`Scope::Global`]).
    /// Properties are processed in declaration (or `order`-override)
    /// order; this kind is never reordered.
    pub fn separate(opts: SeparateOptions) -> Session {
        Session::new(SessionKind::Separate(opts), 1)
    }

    /// Parallel separate verification with `threads` workers,
    /// dispatched hardest-first with work stealing.
    pub fn parallel(opts: SeparateOptions, threads: usize) -> Session {
        Session::new(SessionKind::Parallel(opts), threads)
    }

    /// Joint (Jnt-ver) aggregate verification.
    pub fn joint(opts: JointOptions) -> Session {
        Session::new(SessionKind::Joint(opts), 1)
    }

    /// Clustered verification with `threads` workers; affinity
    /// clusters are the unit of dispatch.
    pub fn clustered(opts: ClusteredOptions, threads: usize) -> Session {
        Session::new(SessionKind::Clustered(opts), threads)
    }

    fn new(kind: SessionKind, threads: usize) -> Session {
        Session {
            kind,
            threads,
            cache: None,
            enumeration: None,
        }
    }

    /// Attaches a post-verdict enumeration/counting pass: after the
    /// Report stage (including supervision retries), every falsified
    /// property is enumerated and/or counted per `opts`, and the
    /// outcomes land in [`MultiReport::enumerations`].
    pub fn enumeration(mut self, opts: crate::EnumOptions) -> Session {
        self.enumeration = Some(opts);
        self
    }

    /// Attaches a verdict cache: consulted in Plan, written in Report.
    /// Only global verdicts participate (see the soundness note on
    /// [`VerdictCache`]).
    pub fn verdict_cache(mut self, cache: VerdictCache) -> Session {
        self.cache = Some(cache);
        self
    }

    /// Takes the verdict cache back (with this run's verdicts merged
    /// in) so the caller can persist it.
    pub fn take_verdict_cache(&mut self) -> Option<VerdictCache> {
        self.cache.take()
    }

    fn journal(&self) -> &Journal {
        match &self.kind {
            SessionKind::Separate(o) | SessionKind::Parallel(o) => &o.journal,
            SessionKind::Joint(o) => &o.journal,
            SessionKind::Clustered(o) => &o.separate.journal,
        }
    }

    fn backend(&self) -> BackendChoice {
        match &self.kind {
            SessionKind::Separate(o) | SessionKind::Parallel(o) => o.backend,
            SessionKind::Joint(o) => o.backend,
            SessionKind::Clustered(o) => o.separate.backend,
        }
    }

    /// Whether this session's per-property verdicts are global — the
    /// precondition for consulting or filling the verdict cache.
    fn verdicts_are_global(&self) -> bool {
        match &self.kind {
            SessionKind::Separate(o) | SessionKind::Parallel(o) => o.scope == Scope::Global,
            SessionKind::Joint(_) => true,
            SessionKind::Clustered(o) => o.separate.scope == Scope::Global,
        }
    }

    /// The full planned property list in caller order.
    fn planned_order(&self, sys: &TransitionSystem) -> Vec<PropertyId> {
        match &self.kind {
            SessionKind::Separate(o) | SessionKind::Parallel(o) => o
                .order
                .clone()
                .unwrap_or_else(|| sys.property_ids().collect()),
            SessionKind::Joint(o) => o
                .subset
                .clone()
                .unwrap_or_else(|| sys.property_ids().collect()),
            SessionKind::Clustered(_) => sys.property_ids().collect(),
        }
    }

    /// The Plan stage: verdict-cache consultation, unit formation
    /// (singletons, clusters or one aggregate) and hardest-first
    /// ordering. Public so callers can inspect the dispatch order
    /// without running anything.
    pub fn plan(&self, sys: &TransitionSystem) -> Plan {
        let _span = self.journal().span(Phase::Plan);
        let order = self.planned_order(sys);

        let mut cached = Vec::new();
        let mut hit = vec![false; sys.num_properties()];
        if let Some(cache) = &self.cache {
            if self.verdicts_are_global() {
                for &p in &order {
                    if let Some(result) = cache_lookup(sys, p, cache, self.backend()) {
                        hit[p.index()] = true;
                        cached.push(result);
                    }
                }
            }
        }

        // The COI-size proxy: a larger latch support means a deeper
        // proof. Normalized against the design's largest support.
        let supports = latch_supports(sys);
        let max_support = supports.iter().map(Vec::len).max().unwrap_or(0);
        let proxy = |p: &PropertyId| {
            if max_support == 0 {
                0.0
            } else {
                supports[p.index()].len() as f64 / max_support as f64
            }
        };
        let weigh = |members: &[PropertyId]| -> f64 { members.iter().map(proxy).sum() };

        let mut units: Vec<PlanUnit> = match &self.kind {
            SessionKind::Separate(_) | SessionKind::Parallel(_) => order
                .iter()
                .filter(|p| !hit[p.index()])
                .map(|&p| PlanUnit {
                    members: vec![p],
                    weight: weigh(&[p]),
                })
                .collect(),
            SessionKind::Joint(_) => {
                let members: Vec<PropertyId> =
                    order.iter().copied().filter(|p| !hit[p.index()]).collect();
                if members.is_empty() {
                    Vec::new()
                } else {
                    let weight = weigh(&members);
                    vec![PlanUnit { members, weight }]
                }
            }
            SessionKind::Clustered(o) => {
                let clusters = {
                    let _affinity_span = self.journal().span(Phase::AffinityProbe);
                    affinity_clusters(sys, o.max_group_size, o.min_affinity)
                };
                clusters
                    .into_iter()
                    .map(|mut c| {
                        c.retain(|p| !hit[p.index()]);
                        c
                    })
                    .filter(|c| !c.is_empty())
                    .map(|c| PlanUnit {
                        weight: weigh(&c),
                        members: c,
                    })
                    .collect()
            }
        };

        // Hardest-first ordering for the dispatching kinds. The
        // sequential separate kind keeps the caller's order (the
        // paper's "properties are verified in the order they are
        // given"), and the joint kind has a single unit.
        if matches!(
            self.kind,
            SessionKind::Parallel(_) | SessionKind::Clustered(_)
        ) {
            order_units(&mut units);
        }
        Plan {
            units,
            cached,
            order,
        }
    }

    /// Runs the full pipeline: Plan → Dispatch → Solve → Report.
    pub fn run(&mut self, sys: &TransitionSystem) -> MultiReport {
        let started = Instant::now();
        let plan = self.plan(sys);
        let mut report = match &self.kind {
            SessionKind::Separate(opts) => run_separate(sys, opts, &plan),
            SessionKind::Parallel(opts) => run_parallel(sys, self.threads, opts, &plan),
            SessionKind::Joint(opts) => {
                let members = plan
                    .units
                    .first()
                    .map(|u| u.members.clone())
                    .unwrap_or_default();
                run_joint(sys, opts, &plan.cached, members, &[])
            }
            SessionKind::Clustered(opts) => run_clustered(sys, self.threads, opts, &plan),
        };
        self.supervise_retries(sys, started, &mut report);
        if self.verdicts_are_global() {
            if let Some(cache) = &mut self.cache {
                for r in &report.results {
                    cache_store(sys, r, cache);
                }
            }
        }
        if let Some(opts) = &self.enumeration {
            report.enumerations = crate::enumerate_report(sys, &report, opts);
        }
        report.total_time = started.elapsed();
        report
    }

    /// The supervision-retry pass, run after the main solve stage (so a
    /// retry never delays a healthy property — "re-queued at lower
    /// priority"). Properties that settled on `Unknown(EngineFault)` —
    /// or on `Unknown(Budget)` when a soft per-property watchdog is
    /// configured — are re-run sequentially, each attempt on a fresh
    /// cold context (a poisoned pool or clause store never leaks into
    /// the retry) with a doubled watchdog budget, up to
    /// [`SeparateOptions::retries`] attempts, before the Unknown
    /// sticks. The joint driver has a single aggregate attempt and no
    /// per-property retry.
    fn supervise_retries(
        &self,
        sys: &TransitionSystem,
        started: Instant,
        report: &mut MultiReport,
    ) {
        let base = match &self.kind {
            SessionKind::Separate(o) | SessionKind::Parallel(o) => o,
            SessionKind::Clustered(o) => &o.separate,
            SessionKind::Joint(_) => return,
        };
        if base.retries == 0 {
            return;
        }
        let needs_retry = |r: &PropertyResult| {
            !r.cached
                && match r.outcome {
                    CheckOutcome::Unknown(UnknownReason::EngineFault) => true,
                    // A plain per-property budget exhaustion is a
                    // verdict, not a fault; only the soft watchdog
                    // opts into escalate-and-retry.
                    CheckOutcome::Unknown(UnknownReason::Budget) => base.property_timeout.is_some(),
                    _ => false,
                }
        };
        let pending: Vec<usize> = (0..report.results.len())
            .filter(|&i| needs_retry(&report.results[i]))
            .collect();
        if pending.is_empty() {
            return;
        }
        let deadline = base.total.map(|d| started + d);
        let assumed = match base.scope {
            Scope::Local => local_assumptions(sys),
            Scope::Global => Vec::new(),
        };
        for i in pending {
            let id = report.results[i].id;
            let mut escalated = base.property_timeout;
            for _attempt in 0..base.retries {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return;
                }
                escalated = escalated.map(|t| t * 2);
                let mut opts = base.clone();
                opts.per_property = None;
                opts.property_timeout = escalated;
                let db = ClauseDb::new();
                let mut pool = {
                    let _enc_span = opts.journal.span(Phase::Encode);
                    CtxPool::new(sys)
                };
                pool.set_journal(opts.journal.clone());
                let mut result = check_one(sys, id, &assumed, &db, &opts, deadline, &mut pool);
                result.retried = true;
                let settled = !needs_retry(&result);
                report.results[i] = result;
                if settled {
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Solve stage: the four drivers' loops, now in one place.
// ---------------------------------------------------------------------

/// Renders a caught panic payload for the journal's `fault` events.
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// A placeholder result with the given unknown reason.
fn unknown_result(
    sys: &TransitionSystem,
    id: PropertyId,
    opts: &SeparateOptions,
    reason: UnknownReason,
) -> PropertyResult {
    PropertyResult {
        id,
        name: sys.property(id).name.clone(),
        outcome: CheckOutcome::Unknown(reason),
        scope: opts.scope,
        time: Duration::ZERO,
        frames: 0,
        retried: false,
        backend: opts.backend_of(id),
        stats: RunStats::default(),
        cached: false,
    }
}

/// A deadline-expired placeholder result.
fn budget_expired(
    sys: &TransitionSystem,
    id: PropertyId,
    opts: &SeparateOptions,
) -> PropertyResult {
    unknown_result(sys, id, opts, UnknownReason::Budget)
}

/// Runs the solve-stage workers `0..workers` and gathers their results:
/// worker 0 on the calling thread, the others on scoped threads, so a
/// one-worker run spawns no thread and waits on no join. Survives a
/// worker that died of an *uncontained* panic (anything that escaped
/// the per-property `catch_unwind` in `check_one`): the payload is
/// journaled as a `fault` event and the dead worker's finished results
/// are simply absent — the callers fill the holes with
/// `Unknown(EngineFault)`.
fn run_workers<T: Send>(
    workers: usize,
    journal: &Journal,
    work: impl Fn(usize) -> Vec<T> + Sync,
) -> Vec<T> {
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|w| scope.spawn(move || work(w))).collect();
        let inline = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(0)));
        let mut all = Vec::new();
        for outcome in std::iter::once(inline).chain(handles.into_iter().map(|h| h.join())) {
            match outcome {
                Ok(mine) => all.extend(mine),
                Err(payload) => journal.event(EventKind::Fault {
                    site: "worker".into(),
                    detail: panic_detail(payload.as_ref()),
                }),
            }
        }
        all
    })
}

/// The sequential separate driver: caller-order walk, warm pool,
/// clause re-use through the shared store.
fn run_separate(sys: &TransitionSystem, opts: &SeparateOptions, plan: &Plan) -> MultiReport {
    let deadline = opts.total.map(|d| Instant::now() + d);
    let assumed = match opts.scope {
        Scope::Local => local_assumptions(sys),
        Scope::Global => Vec::new(),
    };
    let db = ClauseDb::new();
    let method = match (opts.scope, opts.reuse) {
        (Scope::Local, true) => "ja-verification",
        (Scope::Local, false) => "ja-verification (no reuse)",
        (Scope::Global, true) => "separate-global",
        (Scope::Global, false) => "separate-global (no reuse)",
    };
    let mut report = MultiReport::new(sys.name(), method);
    let cached: HashMap<PropertyId, &PropertyResult> =
        plan.cached.iter().map(|r| (r.id, r)).collect();
    let mut pool = {
        let _enc_span = opts.journal.span(Phase::Encode);
        CtxPool::new(sys)
    };
    pool.set_journal(opts.journal.clone());
    for &id in &plan.order {
        if let Some(&hit) = cached.get(&id) {
            report.results.push(hit.clone());
            continue;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            report.results.push(budget_expired(sys, id, opts));
            continue;
        }
        let result = check_one(sys, id, &assumed, &db, opts, deadline, &mut pool);
        publish_if_proved(&db, opts, &result);
        report.results.push(result);
    }
    report
}

fn publish_if_proved(db: &ClauseDb, opts: &SeparateOptions, result: &PropertyResult) {
    if opts.reuse {
        if let CheckOutcome::Proved(cert) = &result.outcome {
            db.publish(cert.clauses.iter().cloned());
        }
    }
}

/// The parallel separate driver: one shared encoding, warm per-worker
/// solver pools, jobs dealt hardest-first into the work-stealing
/// [`Dispatcher`]. Results are restored to caller-order slots, so
/// verdict comparisons with the sequential driver line up.
///
/// # Panics
///
/// Panics if `threads == 0`.
fn run_parallel(
    sys: &TransitionSystem,
    threads: usize,
    opts: &SeparateOptions,
    plan: &Plan,
) -> MultiReport {
    assert!(threads > 0, "need at least one worker thread");
    let deadline = opts.total.map(|d| Instant::now() + d);
    let assumed = match opts.scope {
        Scope::Local => local_assumptions(sys),
        Scope::Global => Vec::new(),
    };
    let db = ClauseDb::new();
    let order = &plan.order;
    let pos_of: HashMap<PropertyId, usize> =
        order.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let mut slots: Vec<Option<PropertyResult>> = vec![None; order.len()];
    for r in &plan.cached {
        slots[pos_of[&r.id]] = Some(r.clone());
    }
    // Jobs are caller-order positions, already unit-ordered by Plan.
    let jobs: Vec<usize> = plan
        .units
        .iter()
        .flat_map(|u| u.members.iter().map(|p| pos_of[p]))
        .collect();
    // No `.max(1)` guard: with zero jobs there is nothing to do, so
    // spawning zero workers is exactly right.
    let workers = threads.min(jobs.len());

    if workers > 0 {
        // Encode once; every worker's pool shares this.
        let enc = {
            let _enc_span = opts.journal.span(Phase::Encode);
            Arc::new(TsEncoding::new(sys))
        };
        let dispatcher = Dispatcher::new(&jobs, workers);
        let finished = run_workers(workers, &opts.journal, |w| {
            let mut pool = CtxPool::with_encoding(Arc::clone(&enc));
            pool.set_journal(opts.journal.clone());
            let mut mine = Vec::new();
            while let Some(i) = dispatcher.pop(w) {
                let result = check_one(sys, order[i], &assumed, &db, opts, deadline, &mut pool);
                publish_if_proved(&db, opts, &result);
                mine.push((i, result));
            }
            mine
        });
        for (i, result) in finished {
            slots[i] = Some(result);
        }
    }

    let scope_label = match opts.scope {
        Scope::Local => "parallel-ja",
        Scope::Global => "parallel-separate-global",
    };
    let mut report = MultiReport::new(sys.name(), format!("{scope_label} x{threads}"));
    // A slot left empty means its worker died of an uncontained panic
    // before publishing the result; degrade to EngineFault rather than
    // aborting the whole run.
    report.results = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.unwrap_or_else(|| unknown_result(sys, order[i], opts, UnknownReason::EngineFault))
        })
        .collect();
    report
}

/// The Jnt-ver loop (§9): verify the aggregate property over `members`,
/// refute the properties its counterexample falsifies, re-iterate.
/// `cached` results are reported as they are; every aggregate IC3 run
/// starts from the `imported` clauses, which must hold in every
/// reachable state of `sys`.
fn run_joint(
    sys: &TransitionSystem,
    opts: &JointOptions,
    cached: &[PropertyResult],
    members: Vec<PropertyId>,
    imported: &[Clause],
) -> MultiReport {
    let deadline = opts.total.map(|d| Instant::now() + d);
    let mut report = MultiReport::new(
        sys.name(),
        if opts.bmc_depth.is_some() {
            "joint (bmc+ic3)"
        } else {
            "joint"
        },
    );
    report.results.extend(cached.iter().cloned());
    let mut remaining = members;

    let push_result = |report: &mut MultiReport,
                       id: PropertyId,
                       outcome: CheckOutcome,
                       frames: usize,
                       stats: RunStats,
                       t0: Instant| {
        report.results.push(PropertyResult {
            id,
            name: sys.property(id).name.clone(),
            outcome,
            scope: Scope::Global,
            time: t0.elapsed(),
            frames,
            retried: false,
            backend: opts.backend,
            stats,
            cached: false,
        });
    };

    while !remaining.is_empty() {
        let iteration_start = Instant::now();
        if deadline.is_some_and(|d| Instant::now() >= d) {
            for id in remaining.drain(..) {
                push_result(
                    &mut report,
                    id,
                    CheckOutcome::Unknown(UnknownReason::Budget),
                    0,
                    RunStats::default(),
                    iteration_start,
                );
            }
            break;
        }
        // The engine budget starts from the caller's base budget (it is
        // no longer silently replaced) and additionally observes the
        // total deadline.
        let with_deadline = |b: Budget| match deadline {
            Some(d) => b.with_deadline(d),
            None => b,
        };
        let budget = with_deadline(opts.ic3.budget);
        let (agg, agg_id) = aggregate_system(sys, &remaining);

        // The whole BMC+IC3 attempt runs under `catch_unwind`: a
        // panicking engine degrades this iteration's remaining
        // properties to EngineFault (drained by the Unknown arm below)
        // instead of tearing the session down.
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            japrove_obs::fault::fire("joint_attempt", sys.name());
            // Optional BMC front-end for shallow refutations. A
            // front-end that runs out of budget must NOT decide the
            // verdict: unless the total deadline is actually spent,
            // control falls through to IC3.
            let mut outcome = None;
            if let Some(depth) = opts.bmc_depth {
                let _bmc_span = opts.journal.span(Phase::BmcFrontend);
                let bmc_budget = match opts.bmc_conflicts {
                    Some(n) => with_deadline(Budget::conflicts(n)),
                    None => budget,
                };
                let mut bmc = Bmc::with_backend(&agg, opts.backend);
                bmc.set_journal(opts.journal.clone());
                match bmc.run(&[agg_id], depth, bmc_budget) {
                    BmcResult::Cex { cex, .. } => {
                        outcome = Some(CheckOutcome::Falsified(cex));
                    }
                    BmcResult::NoCexUpTo(_) => {}
                    BmcResult::Unknown(r) => {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            outcome = Some(CheckOutcome::Unknown(r));
                        }
                    }
                }
            }
            match outcome {
                Some(o) => (o, 0, RunStats::default()),
                None => {
                    let _joint_span = opts.journal.span(Phase::JointAttempt);
                    let ic3_opts = opts.ic3.budget(budget).backend(opts.backend);
                    let mut engine =
                        Ic3::with_context(&agg, agg_id, ic3_opts, Vec::new(), imported.to_vec());
                    engine.set_journal(opts.journal.clone());
                    let o = engine.run();
                    (o, engine.stats().frames, *engine.stats())
                }
            }
        }));
        let (outcome, frames, stats) = match attempt {
            Ok(triple) => triple,
            Err(payload) => {
                opts.journal.event(EventKind::Fault {
                    site: "joint_attempt".into(),
                    detail: format!("{}: {}", sys.name(), panic_detail(payload.as_ref())),
                });
                (
                    CheckOutcome::Unknown(UnknownReason::EngineFault),
                    0,
                    RunStats::default(),
                )
            }
        };

        match outcome {
            CheckOutcome::Proved(cert) => {
                for id in remaining.drain(..) {
                    push_result(
                        &mut report,
                        id,
                        CheckOutcome::Proved(cert.clone()),
                        frames,
                        stats,
                        iteration_start,
                    );
                }
            }
            CheckOutcome::Unknown(r) => {
                for id in remaining.drain(..) {
                    push_result(
                        &mut report,
                        id,
                        CheckOutcome::Unknown(r),
                        frames,
                        stats,
                        iteration_start,
                    );
                }
            }
            CheckOutcome::Falsified(cex) => {
                // Replay on the original system to see which properties
                // the final state falsifies. An unreplayable trace, or
                // one that falsifies nothing, would loop forever here;
                // degrade the remaining properties to Unknown instead
                // of panicking.
                let falsified = falsified_by_replay(sys, &remaining, &cex);
                if falsified.is_empty() {
                    for id in remaining.drain(..) {
                        push_result(
                            &mut report,
                            id,
                            CheckOutcome::Unknown(UnknownReason::SpuriousCex),
                            frames,
                            stats,
                            iteration_start,
                        );
                    }
                    break;
                }
                for &id in &falsified {
                    push_result(
                        &mut report,
                        id,
                        CheckOutcome::Falsified(cex.clone()),
                        frames,
                        stats,
                        iteration_start,
                    );
                }
                remaining.retain(|p| !falsified.contains(p));
            }
        }
    }
    report
}

/// The clustered driver: affinity clusters (from Plan) are the unit of
/// the hardest-first work-stealing dispatch; results are restored to
/// declaration order.
///
/// # Panics
///
/// Panics if `threads == 0`.
fn run_clustered(
    sys: &TransitionSystem,
    threads: usize,
    opts: &ClusteredOptions,
    plan: &Plan,
) -> MultiReport {
    assert!(threads > 0, "need at least one worker thread");
    let journal = &opts.separate.journal;
    let deadline = opts.separate.total.map(|d| Instant::now() + d);
    let assumed = match opts.separate.scope {
        Scope::Local => local_assumptions(sys),
        Scope::Global => Vec::new(),
    };
    let units = &plan.units;

    let scope_label = match opts.separate.scope {
        Scope::Local => "clustered-ja",
        Scope::Global => "clustered-global",
    };
    let mut report = MultiReport::new(
        sys.name(),
        format!("{scope_label} x{threads} ({} clusters)", units.len()),
    );

    let workers = threads.min(units.len());
    let mut results: Vec<PropertyResult> = plan.cached.clone();
    // Seeds for the joint attempts: global proofs only, and only when
    // clause re-use is on.
    let ledger = (opts.separate.reuse && opts.separate.scope == Scope::Global).then(|| {
        let ledger = ProofLedger::default();
        for r in &results {
            if let CheckOutcome::Proved(cert) = &r.outcome {
                ledger.record(cert);
            }
        }
        ledger
    });
    if workers > 0 {
        let enc = {
            let _enc_span = journal.span(Phase::Encode);
            Arc::new(TsEncoding::new(sys))
        };
        let global_db = ClauseDb::new();
        // Units are already plan-ordered; deal them as-is.
        let jobs: Vec<usize> = (0..units.len()).collect();
        let dispatcher = Dispatcher::new(&jobs, workers);
        let solved = run_workers(workers, journal, |w| {
            let mut pool = CtxPool::with_encoding(Arc::clone(&enc));
            pool.set_journal(opts.separate.journal.clone());
            let mut mine = Vec::new();
            while let Some(c) = dispatcher.pop(w) {
                mine.extend(verify_cluster(
                    sys,
                    c,
                    &units[c].members,
                    opts,
                    &assumed,
                    &global_db,
                    ledger.as_ref(),
                    deadline,
                    &mut pool,
                ));
            }
            mine
        });
        results.extend(solved);
    }
    // A worker that died of an uncontained panic takes its cluster's
    // pending results with it; degrade those properties to
    // EngineFault so the report stays complete and the run never
    // aborts.
    let mut have = vec![false; sys.num_properties()];
    for r in &results {
        have[r.id.index()] = true;
    }
    for &id in &plan.order {
        if !have[id.index()] {
            results.push(unknown_result(
                sys,
                id,
                &opts.separate,
                UnknownReason::EngineFault,
            ));
        }
    }
    // Clusters partition the property set; restore declaration order
    // for comparability with the other drivers.
    results.sort_by_key(|r| r.id);
    report.results = results;
    report
}

/// Maps a certificate proved on a cone reduction back onto the
/// original system: certificate clauses range over latch variables,
/// which [`japrove_tsys::CoiMap::latches`] translates index-for-index.
/// Sound because the kept latches evolve identically in both systems,
/// so a clause holding in every reachable reduced state holds in every
/// reachable original state.
fn lift_certificate(cert: &Certificate, map: &CoiMap) -> Certificate {
    Certificate {
        clauses: cert
            .clauses
            .iter()
            .map(|c| {
                Clause::from_lits(c.lits().iter().map(|l| {
                    Var::new(map.latches[l.var().index() as usize] as u32).lit(l.is_negated())
                }))
            })
            .collect(),
    }
}

/// Materializes a reduced-system counterexample on the original
/// design: lift the input vectors, complete the trace by simulation,
/// and confirm by replay that it still falsifies `id`. `None` (never
/// expected — the kept cone behaves identically) sends the property to
/// the per-property fallback instead of trusting a bad trace.
fn lift_counterexample(
    sys: &TransitionSystem,
    map: &CoiMap,
    id: PropertyId,
    cex: &Counterexample,
) -> Option<Counterexample> {
    let inputs = map.lift_inputs(cex.trace.inputs());
    let trace = complete_trace(sys, inputs);
    let violates = replay(sys, &trace).is_ok_and(|r| r.violates_finally(id));
    violates.then_some(Counterexample {
        depth: cex.depth,
        trace,
    })
}

/// One certificate of the [`ProofLedger`], in original latch
/// coordinates.
struct LedgerEntry {
    clauses: Arc<[Clause]>,
    /// The latches the clauses mention, ascending.
    support: Vec<usize>,
}

/// The whole certificates a clustered run has proved so far, shared by
/// its workers: one entry per Proved fallback check and one per
/// successful joint attempt, however many members it decided.
///
/// A joint attempt starts from every entry whose support lies inside
/// its cluster's cone. Entries are whole certificates, never clauses
/// picked one by one: a conjunction of inductive invariants is
/// inductive, and one that mentions only cone latches stays inductive
/// on the cone reduction, whose latches evolve exactly as they do in
/// the full design. The attempt's own certificate includes its imports,
/// so it re-verifies on the original design. A clause-by-clause
/// projection of the clause store would keep verdicts sound but break
/// that: the projected set need not be inductive.
#[derive(Default)]
struct ProofLedger {
    entries: Mutex<Vec<LedgerEntry>>,
}

impl ProofLedger {
    /// Adds a global certificate (original coordinates).
    fn record(&self, cert: &Certificate) {
        if cert.clauses.is_empty() {
            return;
        }
        let mut support: Vec<usize> = cert
            .clauses
            .iter()
            .flat_map(|c| c.lits().iter().map(|l| l.var().index() as usize))
            .collect();
        support.sort_unstable();
        support.dedup();
        let entry = LedgerEntry {
            clauses: cert.clauses.clone().into(),
            support,
        };
        // A push either happens or not: a poisoned ledger is intact.
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(entry);
    }

    /// The union of the entries whose support lies inside the cone
    /// `map` keeps, deduplicated and remapped to reduced coordinates.
    fn seed(&self, map: &CoiMap, num_latches: usize) -> Vec<Clause> {
        let mut reduced_of: Vec<Option<u32>> = vec![None; num_latches];
        for (r, &o) in map.latches.iter().enumerate() {
            reduced_of[o] = Some(r as u32);
        }
        let in_cone: Vec<Arc<[Clause]>> = self
            .entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|e| e.support.iter().all(|&l| reduced_of[l].is_some()))
            .map(|e| Arc::clone(&e.clauses))
            .collect();
        let mut seen = HashSet::new();
        let mut seed = Vec::new();
        for clause in in_cone.iter().flat_map(|c| c.iter()) {
            let reduced = Clause::from_lits(clause.lits().iter().map(|l| {
                let r = reduced_of[l.var().index() as usize].expect("support lies in the cone");
                Var::new(r).lit(l.is_negated())
            }));
            if let Some(normalized) = reduced.normalized() {
                if seen.insert(normalized.clone()) {
                    seed.push(normalized);
                }
            }
        }
        seed
    }
}

/// Verifies one cluster: optional joint attempt, seeded from the
/// `ledger`'s in-cone certificates, then warm per-property checks with
/// two-level clause re-use for whatever the attempt left open.
#[allow(clippy::too_many_arguments)]
fn verify_cluster(
    sys: &TransitionSystem,
    index: usize,
    cluster: &[PropertyId],
    opts: &ClusteredOptions,
    assumed: &[PropertyId],
    global_db: &ClauseDb,
    ledger: Option<&ProofLedger>,
    deadline: Option<Instant>,
    pool: &mut CtxPool,
) -> Vec<PropertyResult> {
    let _cluster_span = opts.separate.journal.span_labeled(
        Phase::Cluster,
        format!("cluster-{index} ({} props)", cluster.len()),
    );
    let reuse = opts.separate.reuse;
    let cluster_db = ClauseDb::new();
    let mut results = Vec::new();
    let mut remaining: Vec<PropertyId> = cluster.to_vec();

    // The joint attempt: one aggregate run can prove (or refute into)
    // the whole cluster — and it runs on the cluster's
    // *cone-of-influence reduction*, not the full design. Affinity
    // clusters are cone-coherent, so the reduction is deep and the
    // aggregate encode/solve cost shrinks with it; this is where the
    // mode beats the grouped baseline (which re-encodes the whole
    // design per group). Only under global scope — an aggregate
    // counterexample refutes properties *globally*, which would
    // contradict local verdicts for shadowed properties.
    if opts.cluster_joint && opts.separate.scope == Scope::Global && cluster.len() >= 2 {
        let (sub, map) = sys.restrict_to_cone(&remaining);
        let mut jopts = opts.joint.clone();
        if let Some(d) = deadline {
            let left = d.saturating_duration_since(Instant::now());
            jopts.total = Some(jopts.total.map_or(left, |t| t.min(left)));
        }
        let seed = ledger.map_or_else(Vec::new, |l| l.seed(&map, sys.num_latches()));
        let attempt = run_joint(&sub, &jopts, &[], sub.property_ids().collect(), &seed);
        let mut solved = Vec::new();
        // Every Proved member of one attempt carries the same aggregate
        // certificate: lift, publish and record it once.
        let mut lifted: Option<Certificate> = None;
        for r in attempt.results {
            let id = map.properties[r.id.index()];
            // A cluster-level Unknown (budget, spurious aggregate
            // counterexample, unliftable trace): leave the property to
            // the fallback so grouping can never lose a verdict.
            let outcome = match r.outcome {
                CheckOutcome::Proved(cert) => {
                    let lifted = lifted.get_or_insert_with(|| {
                        let lifted = lift_certificate(&cert, &map);
                        if reuse {
                            cluster_db.publish(lifted.clauses.iter().cloned());
                        }
                        if let Some(ledger) = ledger {
                            ledger.record(&lifted);
                        }
                        lifted
                    });
                    Some(CheckOutcome::Proved(lifted.clone()))
                }
                CheckOutcome::Falsified(cex) => {
                    lift_counterexample(sys, &map, id, &cex).map(CheckOutcome::Falsified)
                }
                CheckOutcome::Unknown(_) => None,
            };
            if let Some(outcome) = outcome {
                solved.push(id);
                results.push(PropertyResult {
                    id,
                    name: sys.property(id).name.clone(),
                    outcome,
                    scope: Scope::Global,
                    time: r.time,
                    frames: r.frames,
                    retried: false,
                    backend: r.backend,
                    stats: r.stats,
                    cached: false,
                });
            }
        }
        remaining.retain(|p| !solved.contains(p));
    }

    // Warm per-property path: eager cluster import, lazy global
    // refresh through the two-level source.
    for &id in &remaining {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            results.push(budget_expired(sys, id, &opts.separate));
            continue;
        }
        let source = TwoLevelSource::new(&cluster_db, global_db);
        let (imported, src): (_, Option<(&dyn ClauseSource, u64)>) = if reuse {
            (
                cluster_db.snapshot(),
                Some((&source, source.primed_cursor())),
            )
        } else {
            (Vec::new(), None)
        };
        let result = check_one_imports(
            sys,
            id,
            assumed,
            imported,
            src,
            &opts.separate,
            deadline,
            pool,
        );
        if reuse {
            if let CheckOutcome::Proved(cert) = &result.outcome {
                cluster_db.publish(cert.clauses.iter().cloned());
                if let Some(ledger) = ledger {
                    ledger.record(cert);
                }
            }
        }
        results.push(result);
    }

    // Share what the cluster learned with everyone else.
    if reuse {
        global_db.publish(cluster_db.snapshot());
    }
    results
}

// ---------------------------------------------------------------------
// Verdict-cache plumbing: lookups in Plan, writes in Report.
// ---------------------------------------------------------------------

/// The property's cone reduction, its cache key and its reduced id.
fn property_cone(
    sys: &TransitionSystem,
    p: PropertyId,
) -> Option<(TransitionSystem, CoiMap, String, PropertyId)> {
    let (sub, map) = sys.restrict_to_cone(&[p]);
    let key = format!("{:016x}", sub.structural_hash());
    let rid = map
        .properties
        .iter()
        .position(|&q| q == p)
        .map(PropertyId::new)?;
    Some((sub, map, key, rid))
}

/// Consults the cache for `p`. A hit is *re-certified*, never trusted:
/// stored certificates are verified on the reduced system and lifted;
/// stored counterexamples are lifted, completed and replayed. Any
/// failure is a miss.
fn cache_lookup(
    sys: &TransitionSystem,
    p: PropertyId,
    cache: &VerdictCache,
    backend: BackendChoice,
) -> Option<PropertyResult> {
    let started = Instant::now();
    let name = sys.property(p).name.clone();
    let (sub, map, key, rid) = property_cone(sys, p)?;
    let entry = cache.get(&key, &name)?;
    let outcome = match entry.verdict.as_str() {
        "holds" => {
            let latches = sub.aig().latches().len();
            let mut clauses = Vec::with_capacity(entry.clauses.len());
            for c in &entry.clauses {
                let lits: Option<Vec<_>> = c
                    .iter()
                    .map(|&l| {
                        let idx = l.unsigned_abs() as usize - 1;
                        (idx < latches).then(|| Var::new(idx as u32).lit(l < 0))
                    })
                    .collect();
                clauses.push(Clause::from_lits(lits?));
            }
            let cert = Certificate { clauses };
            verify_certificate(&sub, rid, &[], &cert).ok()?;
            CheckOutcome::Proved(lift_certificate(&cert, &map))
        }
        "fails" => {
            if entry
                .inputs
                .iter()
                .any(|step| step.len() != map.inputs.len())
            {
                return None;
            }
            let trace = complete_trace(sys, map.lift_inputs(&entry.inputs));
            if !replay(sys, &trace).is_ok_and(|r| r.violates_finally(p)) {
                return None;
            }
            CheckOutcome::Falsified(Counterexample {
                depth: entry.depth as usize,
                trace,
            })
        }
        _ => return None,
    };
    Some(PropertyResult {
        id: p,
        name,
        outcome,
        scope: Scope::Global,
        time: started.elapsed(),
        frames: 0,
        retried: false,
        backend,
        stats: RunStats::default(),
        cached: true,
    })
}

/// Writes one fresh global verdict into the cache, with its evidence
/// down-mapped onto the property's cone and re-checked there first. A
/// verdict whose evidence does not fit the cone (e.g. an aggregate
/// certificate mentioning latches outside it) is simply not cached.
fn cache_store(sys: &TransitionSystem, result: &PropertyResult, cache: &mut VerdictCache) {
    if result.cached || result.scope != Scope::Global {
        return;
    }
    let Some((sub, map, key, rid)) = property_cone(sys, result.id) else {
        return;
    };
    let reduced_of: HashMap<usize, usize> = map
        .latches
        .iter()
        .enumerate()
        .map(|(r, &o)| (o, r))
        .collect();
    let entry = match &result.outcome {
        CheckOutcome::Proved(cert) => {
            let mut down = Vec::with_capacity(cert.clauses.len());
            let mut reduced_clauses = Vec::with_capacity(cert.clauses.len());
            for c in &cert.clauses {
                let Some(lits): Option<Vec<(usize, bool)>> = c
                    .lits()
                    .iter()
                    .map(|l| {
                        reduced_of
                            .get(&(l.var().index() as usize))
                            .map(|&r| (r, l.is_negated()))
                    })
                    .collect()
                else {
                    // The certificate reasons about latches outside the
                    // cone: not expressible in cone coordinates, so not
                    // cacheable.
                    return;
                };
                down.push(
                    lits.iter()
                        .map(|&(r, neg)| {
                            let v = (r + 1) as i64;
                            if neg {
                                -v
                            } else {
                                v
                            }
                        })
                        .collect::<Vec<i64>>(),
                );
                reduced_clauses.push(Clause::from_lits(
                    lits.iter().map(|&(r, neg)| Var::new(r as u32).lit(neg)),
                ));
            }
            let reduced_cert = Certificate {
                clauses: reduced_clauses,
            };
            if verify_certificate(&sub, rid, &[], &reduced_cert).is_err() {
                return;
            }
            CacheEntry {
                cone: key,
                property: result.name.clone(),
                verdict: "holds".into(),
                clauses: down,
                inputs: Vec::new(),
                depth: 0,
            }
        }
        CheckOutcome::Falsified(cex) => {
            let full = cex.trace.inputs();
            let reduced: Vec<Vec<bool>> = full
                .iter()
                .map(|step| map.inputs.iter().map(|&oi| step[oi]).collect())
                .collect();
            // The projected trace must still falsify the property on
            // the reduced system; otherwise the evidence leans on
            // out-of-cone inputs (it cannot) or is stale.
            let trace = complete_trace(&sub, reduced.clone());
            if !replay(&sub, &trace).is_ok_and(|r| r.violates_finally(rid)) {
                return;
            }
            CacheEntry {
                cone: key,
                property: result.name.clone(),
                verdict: "fails".into(),
                clauses: Vec::new(),
                inputs: reduced,
                depth: cex.depth as u64,
            }
        }
        CheckOutcome::Unknown(_) => return,
    };
    cache.upsert(entry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use japrove_aig::Aig;
    use japrove_tsys::Word;

    /// Two independent counters with one true and one false property
    /// each; cones differ, so the cache can tell them apart.
    fn two_counter_sys() -> TransitionSystem {
        let mut aig = Aig::new();
        let mut props = Vec::new();
        for i in 0..2usize {
            let w = Word::latches(&mut aig, 3, 0);
            let n = w.increment(&mut aig);
            w.set_next(&mut aig, &n);
            props.push((format!("c{i}_ok"), w.lt_const(&mut aig, 8)));
            props.push((format!("c{i}_tight"), w.lt_const(&mut aig, 3)));
        }
        let mut sys = TransitionSystem::new("two", aig);
        for (name, good) in props {
            sys.add_property(name, good);
        }
        sys
    }

    #[test]
    fn order_units_is_stable_on_ties() {
        let unit = |i: usize, w: f64| PlanUnit {
            members: vec![PropertyId::new(i)],
            weight: w,
        };
        let mut units = vec![unit(0, 1.0), unit(1, 2.0), unit(2, 1.0), unit(3, 2.0)];
        order_units(&mut units);
        let order: Vec<usize> = units.iter().map(|u| u.members[0].index()).collect();
        // Descending weight, ties keep the incoming order.
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn all_four_kinds_agree_on_global_verdicts() {
        let sys = two_counter_sys();
        let reference = Session::separate(SeparateOptions::global()).run(&sys);
        let reports = [
            Session::parallel(SeparateOptions::global(), 3).run(&sys),
            Session::joint(JointOptions::new()).run(&sys),
            Session::clustered(ClusteredOptions::new(), 2).run(&sys),
        ];
        for report in &reports {
            assert_eq!(report.num_true(), reference.num_true(), "{}", report.method);
            assert_eq!(
                report.num_false(),
                reference.num_false(),
                "{}",
                report.method
            );
            assert_eq!(report.num_unsolved(), 0, "{}", report.method);
        }
    }

    #[test]
    fn verdict_cache_round_trips_through_a_session() {
        let sys = two_counter_sys();
        let mut first =
            Session::separate(SeparateOptions::global()).verdict_cache(VerdictCache::default());
        let cold = first.run(&sys);
        assert!(cold.results.iter().all(|r| !r.cached));
        let cache = first.take_verdict_cache().unwrap();
        assert_eq!(
            cache.len(),
            sys.num_properties(),
            "all four verdicts cached"
        );

        let mut second = Session::separate(SeparateOptions::global()).verdict_cache(cache);
        let warm = second.run(&sys);
        assert!(warm.results.iter().all(|r| r.cached), "{warm}");
        for (a, b) in cold.results.iter().zip(&warm.results) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.holds(), b.holds(), "{}", a.name);
            assert_eq!(a.fails(), b.fails(), "{}", a.name);
        }
    }

    #[test]
    fn local_scope_never_touches_the_cache() {
        let sys = two_counter_sys();
        let mut session =
            Session::separate(SeparateOptions::local()).verdict_cache(VerdictCache::default());
        let report = session.run(&sys);
        assert!(report.results.iter().all(|r| !r.cached));
        assert!(session.take_verdict_cache().unwrap().is_empty());
    }
}
