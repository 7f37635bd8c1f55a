//! Separate verification: one engine run per property (§4, §9).
//!
//! Covers both variants compared in the paper: *global* proofs (no
//! assumptions) and *local* proofs (JA-verification, where every
//! Expected-To-Hold property is assumed in non-final states), each
//! with or without clause re-use.

use crate::cluster::latch_supports;
use crate::pipeline::{lift_certificate, lift_counterexample, ProofLedger};
use crate::{ClauseDb, MultiReport, PropertyResult, Scope};
use japrove_ic3::{
    CheckOutcome, ClauseSource, Ic3, Ic3Options, Lifting, RunStats, SolverCtx, TsEncoding,
    UnknownReason,
};
use japrove_logic::Clause;
use japrove_obs::{EventKind, Journal, Phase};
use japrove_sat::{BackendChoice, Budget};
use japrove_tsys::{replay, Expectation, PropertyId, Replay, TransitionSystem};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A per-worker set of warm [`SolverCtx`]s, one per SAT backend in
/// use, all sharing one [`TsEncoding`] of the design. This is what
/// makes the drivers *incremental*: the encoding is computed once per
/// design (even across worker threads) and consecutive property checks
/// on the same worker reuse warm solvers.
pub(crate) struct CtxPool {
    enc: Arc<TsEncoding>,
    ctxs: Vec<SolverCtx>,
    journal: Journal,
}

impl CtxPool {
    /// A pool that encodes `sys` now.
    pub(crate) fn new(sys: &TransitionSystem) -> Self {
        CtxPool::with_encoding(Arc::new(TsEncoding::new(sys)))
    }

    /// A pool over an encoding shared with other workers.
    pub(crate) fn with_encoding(enc: Arc<TsEncoding>) -> Self {
        CtxPool {
            enc,
            ctxs: Vec::new(),
            journal: Journal::disabled(),
        }
    }

    /// Attaches a journal; contexts already in the pool and those
    /// created later all report into it.
    pub(crate) fn set_journal(&mut self, journal: Journal) {
        for ctx in &mut self.ctxs {
            ctx.set_journal(journal.clone());
        }
        self.journal = journal;
    }

    /// The context for `backend`, created on first use.
    pub(crate) fn get(&mut self, backend: BackendChoice) -> &mut SolverCtx {
        let i = match self.ctxs.iter().position(|c| c.backend() == backend) {
            Some(i) => i,
            None => {
                let mut ctx = SolverCtx::with_encoding(Arc::clone(&self.enc), backend);
                ctx.set_journal(self.journal.clone());
                self.ctxs.push(ctx);
                self.ctxs.len() - 1
            }
        };
        &mut self.ctxs[i]
    }

    /// Drops the context for `backend`. Called after a caught panic:
    /// the context's solver state may be mid-mutation (poisoned in
    /// spirit, even where no mutex is involved), so the next
    /// [`CtxPool::get`] rebuilds a fresh one over the shared encoding —
    /// the encoding itself is immutable and stays warm.
    pub(crate) fn discard(&mut self, backend: BackendChoice) {
        self.ctxs.retain(|c| c.backend() != backend);
    }
}

/// Options for separate verification.
///
/// # Examples
///
/// ```
/// use japrove_core::{Scope, SeparateOptions};
/// use std::time::Duration;
///
/// let opts = SeparateOptions::local()
///     .per_property_timeout(Duration::from_secs(1))
///     .reuse(true);
/// assert_eq!(opts.scope, Scope::Local);
/// ```
#[derive(Clone, Debug)]
pub struct SeparateOptions {
    /// Proof scope: local realizes JA-verification.
    pub scope: Scope,
    /// Re-use strengthening clauses across properties (§6). Under
    /// [`Scope::Global`] proofs exchange clauses through a
    /// [`ClauseDb`]. Under [`Scope::Local`] they go through the run's
    /// proof ledger: each cone check is seeded with every proved clause
    /// over its latches, and its certificate then carries the whole
    /// certificates those clauses came from, so it re-verifies under
    /// the full ETH set.
    pub reuse: bool,
    /// Lifting mode for local proofs (§7-A).
    pub lifting: Lifting,
    /// Per-property wall-clock limit (the "time limit" column of the
    /// paper's tables).
    pub per_property: Option<Duration>,
    /// Total wall-clock limit for the whole benchmark.
    pub total: Option<Duration>,
    /// Soft per-property watchdog: a check exceeding it comes back
    /// `Unknown(Budget)` and is re-queued by the supervision layer at
    /// lower priority with an escalated (doubled) budget, up to
    /// [`SeparateOptions::retries`] times, before settling on Unknown.
    /// Unlike [`SeparateOptions::per_property`], which is the paper's
    /// hard per-property limit, this one buys the property another
    /// chance.
    pub property_timeout: Option<Duration>,
    /// Supervised retries for a faulted (engine panic) or
    /// watchdog-timed-out property: each retry runs after every other
    /// property, on a fresh cold context, with a doubled
    /// `property_timeout`.
    pub retries: usize,
    /// Base engine options.
    pub ic3: Ic3Options,
    /// Property order; `None` uses declaration order (the paper's
    /// default: "properties are verified in the order they are given").
    pub order: Option<Vec<PropertyId>>,
    /// SAT backend used for every property without an override.
    pub backend: BackendChoice,
    /// Per-property backend overrides: the portfolio assignment. Later
    /// entries win, so appending is enough to re-assign a property.
    pub backend_overrides: Vec<(PropertyId, BackendChoice)>,
    /// Observability journal the driver, its engines and their solvers
    /// report into. Disabled by default (and then free: every probe is
    /// one pointer check).
    pub journal: Journal,
}

impl SeparateOptions {
    /// Local proofs with clause re-use: the full JA-verification setup.
    pub fn local() -> Self {
        SeparateOptions {
            scope: Scope::Local,
            reuse: true,
            lifting: Lifting::Ignore,
            per_property: None,
            total: None,
            property_timeout: None,
            retries: 1,
            ic3: Ic3Options::new(),
            order: None,
            backend: BackendChoice::default(),
            backend_overrides: Vec::new(),
            journal: Journal::disabled(),
        }
    }

    /// Global proofs with clause re-use (the "separate verification
    /// with global proofs" baseline of Tables V/VI).
    pub fn global() -> Self {
        SeparateOptions {
            scope: Scope::Global,
            ..SeparateOptions::local()
        }
    }

    /// Sets the per-property time limit.
    pub fn per_property_timeout(mut self, d: Duration) -> Self {
        self.per_property = Some(d);
        self
    }

    /// Sets the total time limit.
    pub fn total_timeout(mut self, d: Duration) -> Self {
        self.total = Some(d);
        self
    }

    /// Sets the soft per-property watchdog (see
    /// [`SeparateOptions::property_timeout`]).
    pub fn watchdog(mut self, d: Duration) -> Self {
        self.property_timeout = Some(d);
        self
    }

    /// Sets the supervised retry count for faulted or watchdog-timed-
    /// out properties.
    pub fn retries(mut self, n: usize) -> Self {
        self.retries = n;
        self
    }

    /// Enables or disables clause re-use.
    pub fn reuse(mut self, yes: bool) -> Self {
        self.reuse = yes;
        self
    }

    /// Sets the lifting mode.
    pub fn lifting(mut self, lifting: Lifting) -> Self {
        self.lifting = lifting;
        self
    }

    /// Sets a property order.
    pub fn order(mut self, order: Vec<PropertyId>) -> Self {
        self.order = Some(order);
        self
    }

    /// Sets the default SAT backend for every property.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Assigns a specific backend to one property (portfolio mode).
    pub fn backend_for(mut self, id: PropertyId, backend: BackendChoice) -> Self {
        self.backend_overrides.push((id, backend));
        self
    }

    /// The backend that will check property `id`: the last override
    /// for it, or the default backend.
    pub fn backend_of(&self, id: PropertyId) -> BackendChoice {
        self.backend_overrides
            .iter()
            .rev()
            .find(|(p, _)| *p == id)
            .map(|&(_, b)| b)
            .unwrap_or(self.backend)
    }

    /// Sets the base engine options.
    pub fn ic3(mut self, ic3: Ic3Options) -> Self {
        self.ic3 = ic3;
        self
    }

    /// Attaches an observability journal.
    pub fn journal(mut self, journal: Journal) -> Self {
        self.journal = journal;
        self
    }
}

impl Default for SeparateOptions {
    fn default() -> Self {
        SeparateOptions::local()
    }
}

/// The assumption set for local proofs: every Expected-To-Hold
/// property (§5 — ETF properties are never assumed, so their
/// counterexamples are not suppressed).
pub fn local_assumptions(sys: &TransitionSystem) -> Vec<PropertyId> {
    sys.property_ids()
        .filter(|&p| sys.property(p).expectation == Expectation::Hold)
        .collect()
}

/// Where a check's imported clauses come from (§6).
pub(crate) enum Reuse<'a> {
    /// No clause re-use.
    Off,
    /// Global scope: clauses imported up front, plus the store the
    /// engine refreshes from mid-run with that store's version read
    /// before the import was taken. The caller supplies only clauses
    /// that are sound for global proofs (§6-B).
    Store(Vec<Clause>, &'a dyn ClauseSource, u64),
    /// Local scope: the run's proof ledger seeds the check, and the
    /// check records its proof there.
    Ledger(&'a ProofLedger),
}

impl<'a> Reuse<'a> {
    /// Global-scope re-use through `db`: its current clauses, then
    /// whatever is published to it while the engine runs.
    pub(crate) fn from_db(db: &'a ClauseDb) -> Self {
        // The version is read *before* the snapshot: clauses published
        // in between are both in the snapshot and re-offered by the
        // first refresh, where deduplication drops them — never lost.
        let version = db.version();
        Reuse::Store(db.snapshot(), db, version)
    }
}

/// Checks one property. The sequential, parallel and clustered drivers
/// all call this; `supports` holds every property's latch support.
///
/// Under [`Scope::Local`] the check is *cone-first*. It proves `id` on
/// the cone reduction of `id` plus every assumed property whose latch
/// support lies inside `id`'s, assuming those properties there. Fewer
/// assumptions admit more traces, so such a proof is also a local
/// proof under the full assumption set; its certificate is lifted back
/// through the [`japrove_tsys::CoiMap`] and, when the run's proof
/// ledger seeded the cone, closed over the certificates the seed came
/// from (see `ProofLedger`). A cone counterexample is
/// lifted, replayed on the full design and accepted only if no assumed
/// property fails before its final state. A rejected counterexample,
/// or an Unknown with budget left, falls back to the warm full-design
/// check, §7-A re-run included; one per-property deadline covers both
/// attempts. A cone that would keep every latch goes straight to the
/// full-design check. Global scope always runs the full-design check.
///
/// The whole check runs under `catch_unwind`: an engine panic (or an
/// injected chaos panic at the `check_one` fault site) degrades *this
/// property* to `Unknown(EngineFault)`, journals the panic payload as
/// a `fault` event, discards the worker's possibly-corrupted solver
/// context — the next check rebuilds a fresh one over the still-warm
/// shared encoding — and the run continues.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_one(
    sys: &TransitionSystem,
    id: PropertyId,
    assumed: &[PropertyId],
    supports: &[Vec<usize>],
    reuse: Reuse<'_>,
    opts: &SeparateOptions,
    deadline: Option<Instant>,
    pool: &mut CtxPool,
) -> PropertyResult {
    let started = Instant::now();
    let name = sys.property(id).name.clone();
    let backend = opts.backend_of(id);
    let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check_one_unguarded(sys, id, assumed, supports, reuse, opts, deadline, pool)
    }));
    match checked {
        Ok(result) => result,
        Err(payload) => {
            pool.discard(backend);
            opts.journal.event(EventKind::Fault {
                site: "check_one".into(),
                detail: format!("{name}: {}", crate::pipeline::panic_detail(&payload)),
            });
            PropertyResult {
                id,
                name,
                outcome: CheckOutcome::Unknown(UnknownReason::EngineFault),
                scope: opts.scope,
                time: started.elapsed(),
                frames: 0,
                retried: false,
                backend,
                stats: Default::default(),
                cached: false,
            }
        }
    }
}

/// Folds a later attempt on the same property into `total`: the work
/// counters add up, frames and clauses are the later attempt's.
fn add_attempt(total: &mut RunStats, s: RunStats) {
    total.sat += s.sat;
    total.queries += s.queries;
    total.obligations += s.obligations;
    total.generalized_lits += s.generalized_lits;
    total.clauses = s.clauses;
    total.frames = s.frames;
}

/// `true` if a replayed trace violates an `assumed` property in some
/// state before its final one: then it is no trace of the projected
/// system `T^P` (§7-A). [`japrove_tsys::Trace::len`] counts
/// transitions, so these are the states `0..len`.
pub(crate) fn breaks_assumption_early(r: &Replay, assumed: &[PropertyId]) -> bool {
    (0..r.num_states().saturating_sub(1))
        .any(|k| r.violated_at(k).iter().any(|p| assumed.contains(p)))
}

/// The body of [`check_one`], without the supervision wrapper.
#[allow(clippy::too_many_arguments)]
fn check_one_unguarded(
    sys: &TransitionSystem,
    id: PropertyId,
    assumed: &[PropertyId],
    supports: &[Vec<usize>],
    reuse: Reuse<'_>,
    opts: &SeparateOptions,
    deadline: Option<Instant>,
    pool: &mut CtxPool,
) -> PropertyResult {
    let started = Instant::now();
    let _span = opts
        .journal
        .span_labeled(Phase::Property, sys.property(id).name.as_str());
    japrove_obs::fault::fire("check_one", &sys.property(id).name);
    // One absolute deadline covers the cone attempt and any fallback.
    // A run deadline, when set, replaces the per-property limits.
    let deadline = deadline.or_else(|| {
        let limit = match (opts.per_property, opts.property_timeout) {
            (Some(a), Some(b)) => a.min(b),
            (Some(d), None) | (None, Some(d)) => d,
            (None, None) => return None,
        };
        started.checked_add(limit)
    });
    let budget = deadline.map_or_else(Budget::unlimited, |d| Budget::unlimited().with_deadline(d));
    let backend = opts.backend_of(id);
    let base = opts
        .ic3
        .lifting(opts.lifting)
        .budget(budget)
        .backend(backend);
    let result = |outcome, frames, retried, stats| PropertyResult {
        id,
        name: sys.property(id).name.clone(),
        outcome,
        scope: opts.scope,
        time: started.elapsed(),
        frames,
        retried,
        backend,
        stats,
        cached: false,
    };

    let mut stats = RunStats::default();
    if opts.scope == Scope::Local {
        let ledger = match &reuse {
            Reuse::Ledger(ledger) => Some(*ledger),
            _ => None,
        };
        match check_on_cone(sys, id, assumed, supports, ledger, base, &opts.journal) {
            ConeAttempt::Decided(outcome, s) => return result(outcome, s.frames, false, s),
            ConeAttempt::Undecided(s) => stats = s,
            ConeAttempt::Skipped => {}
        }
    }

    let (imported, source, seed) = match reuse {
        Reuse::Off => (Vec::new(), None, None),
        Reuse::Store(imported, source, version) => (imported, Some((source, version)), None),
        Reuse::Ledger(ledger) => {
            let seed = ledger.full_seed();
            (seed.clauses.clone(), None, Some((ledger, seed)))
        }
    };
    let ctx = pool.get(backend);
    let (mut outcome, s) = ctx.check(sys, id, base, assumed, imported.clone(), source);
    add_attempt(&mut stats, s);
    let mut retried = false;

    // Spurious-CEX detection for local proofs with ignore-mode lifting:
    // the materialized trace is always a real trace of T, but its
    // prefix may violate an assumed property — then it is not a trace
    // of T^P and the property must be re-checked with lifting that
    // respects the constraints (§7-A).
    if opts.scope == Scope::Local && opts.lifting == Lifting::Ignore {
        if let CheckOutcome::Falsified(cex) = &outcome {
            let r = replay(sys, &cex.trace).expect("engine traces replay");
            if breaks_assumption_early(&r, assumed) {
                retried = true;
                let strict = base.lifting(Lifting::Respect);
                let (o, s) = ctx.check(sys, id, strict, assumed, imported, source);
                outcome = o;
                // Every attempt worked on this property; report the sum.
                add_attempt(&mut stats, s);
            }
        }
    }

    if let (CheckOutcome::Proved(cert), Some((ledger, seed))) = (&outcome, &seed) {
        outcome = CheckOutcome::Proved(ledger.close(&seed.own(cert), seed));
    }
    result(outcome, stats.frames, retried, stats)
}

/// The cone-first attempt of a local check (see [`check_one`]).
enum ConeAttempt {
    /// The reduction would keep every latch: it is the identity, and
    /// the warm full-design check is strictly cheaper.
    Skipped,
    /// A verdict that stands on the full design: a lifted certificate,
    /// an accepted counterexample, or an Unknown whose budget is spent.
    Decided(CheckOutcome, RunStats),
    /// A rejected counterexample or an Unknown with budget left; the
    /// full-design check decides.
    Undecided(RunStats),
}

/// Runs the cone-first attempt of a local check of `id`: a cold engine
/// on `restrict_to_cone([id] ∪ A)`, where `A` holds the assumed
/// properties whose latch support lies inside `id`'s. With a `ledger`
/// the cone is seeded clause by clause and its proof recorded.
fn check_on_cone(
    sys: &TransitionSystem,
    id: PropertyId,
    assumed: &[PropertyId],
    supports: &[Vec<usize>],
    ledger: Option<&ProofLedger>,
    base: Ic3Options,
    journal: &Journal,
) -> ConeAttempt {
    let support = &supports[id.index()];
    if support.len() == sys.num_latches() {
        return ConeAttempt::Skipped;
    }
    let mut in_support = vec![false; sys.num_latches()];
    for &l in support {
        in_support[l] = true;
    }
    let members: Vec<PropertyId> = std::iter::once(id)
        .chain(
            assumed
                .iter()
                .copied()
                .filter(|&q| q != id && supports[q.index()].iter().all(|&l| in_support[l])),
        )
        .collect();
    let (cone, map) = sys.restrict_to_cone(&members);
    if map.latches.len() == sys.num_latches() {
        return ConeAttempt::Skipped;
    }
    // Reduced ids follow `members`. The cone assumes every member but
    // `id`, and `id` too where the full-design check would.
    let cone_assumed: Vec<PropertyId> = (0..members.len())
        .filter(|&i| i > 0 || assumed.contains(&id))
        .map(PropertyId::new)
        .collect();
    let seed = ledger.map(|l| (l, l.cone_seed(&map, sys.num_latches())));
    let imported = seed
        .as_ref()
        .map_or_else(Vec::new, |(_, s)| s.clauses.clone());
    let mut engine = Ic3::with_context(&cone, PropertyId::new(0), base, cone_assumed, imported);
    engine.set_journal(journal.clone());
    let outcome = engine.run();
    let stats = *engine.stats();
    match outcome {
        CheckOutcome::Proved(cert) => {
            let cert = match &seed {
                Some((ledger, seed)) => {
                    ledger.close(&lift_certificate(&seed.own(&cert), &map), seed)
                }
                None => lift_certificate(&cert, &map),
            };
            ConeAttempt::Decided(CheckOutcome::Proved(cert), stats)
        }
        CheckOutcome::Falsified(cex) => match lift_counterexample(sys, &map, id, assumed, &cex) {
            Some(cex) => ConeAttempt::Decided(CheckOutcome::Falsified(cex), stats),
            None => ConeAttempt::Undecided(stats),
        },
        CheckOutcome::Unknown(reason) if base.budget.deadline_passed() => {
            ConeAttempt::Decided(CheckOutcome::Unknown(reason), stats)
        }
        CheckOutcome::Unknown(_) => ConeAttempt::Undecided(stats),
    }
}

/// Checks a single property in an explicit context: assumption set and
/// options, with no clause re-use. Exposed for custom drivers (e.g.
/// the per-property probes of Table X); [`separate_verify`] is the
/// standard entry point.
pub fn check_one_property(
    sys: &TransitionSystem,
    id: PropertyId,
    assumed: &[PropertyId],
    opts: &SeparateOptions,
    deadline: Option<Instant>,
) -> PropertyResult {
    check_one(
        sys,
        id,
        assumed,
        &latch_supports(sys),
        Reuse::Off,
        opts,
        deadline,
        &mut CtxPool::new(sys),
    )
}

/// Runs separate verification over all properties.
///
/// With [`Scope::Local`] this is **JA-verification**: each property is
/// checked under the (possibly wrong) assumption that every ETH
/// property holds; the locally-failing properties form the debugging
/// set. With [`Scope::Global`] it is the plain one-property-at-a-time
/// baseline of Tables V/VI.
///
/// # Examples
///
/// ```
/// use japrove_aig::Aig;
/// use japrove_core::{separate_verify, SeparateOptions};
/// use japrove_tsys::{TransitionSystem, Word};
///
/// let mut aig = Aig::new();
/// let c = Word::latches(&mut aig, 4, 0);
/// let n = c.increment(&mut aig);
/// c.set_next(&mut aig, &n);
/// let ok = c.lt_const(&mut aig, 16);
/// let mut sys = TransitionSystem::new("cnt", aig);
/// sys.add_property("in_range", ok);
/// let report = separate_verify(&sys, &SeparateOptions::local());
/// assert_eq!(report.num_true(), 1);
/// ```
pub fn separate_verify(sys: &TransitionSystem, opts: &SeparateOptions) -> MultiReport {
    crate::Session::separate(opts.clone()).run(sys)
}

/// JA-verification (§4): separate verification with local proofs and
/// clause re-use. Equivalent to
/// `separate_verify(sys, &SeparateOptions::local())` but makes call
/// sites read like the paper.
pub fn ja_verify(sys: &TransitionSystem, opts: &SeparateOptions) -> MultiReport {
    let mut opts = opts.clone();
    opts.scope = Scope::Local;
    separate_verify(sys, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_debugging_set;
    use japrove_aig::Aig;
    use japrove_ic3::verify_certificate;
    use japrove_tsys::Word;

    /// Two latch groups: a 2-bit counter `a` and a latch `b` stuck at
    /// 0. `p` = `a < 3` fails at depth 3; `q` = ¬(`a` = 2 ∧ ¬`b`)
    /// fails at depth 2. `q`'s support does not lie inside `p`'s, so
    /// `p`'s cone does not assume `q`, and its counterexample violates
    /// `q` at step 2.
    fn two_groups() -> (TransitionSystem, PropertyId, PropertyId) {
        let mut aig = Aig::new();
        let a = Word::latches(&mut aig, 2, 0);
        let next = a.increment(&mut aig);
        a.set_next(&mut aig, &next);
        let b = aig.add_latch(false);
        aig.set_next(b, b);
        let p_good = a.lt_const(&mut aig, 3);
        let at_two = a.eq_const(&mut aig, 2);
        let q_bad = aig.and(at_two, !b);
        let mut sys = TransitionSystem::new("two_groups", aig);
        let q = sys.add_property("q", !q_bad);
        let p = sys.add_property("p", p_good);
        (sys, p, q)
    }

    #[test]
    fn a_cone_counterexample_that_breaks_an_outside_assumption_falls_back() {
        let (sys, p, q) = two_groups();
        assert!(sys.latch_support(p).len() < sys.num_latches());
        let assumed = local_assumptions(&sys);
        for reuse in [true, false] {
            let report = ja_verify(&sys, &SeparateOptions::local().reuse(reuse));
            assert!(
                report.result(q).expect("q").fails(),
                "reuse {reuse}: {report}"
            );
            let r = report.result(p).expect("p");
            let cert = r
                .outcome
                .certificate()
                .unwrap_or_else(|| panic!("reuse {reuse}: p must hold locally: {report}"));
            verify_certificate(&sys, p, &assumed, cert)
                .unwrap_or_else(|e| panic!("reuse {reuse}: {e}"));
            validate_debugging_set(&sys, &report, &assumed)
                .unwrap_or_else(|e| panic!("reuse {reuse}: {e}"));
        }
    }
}
