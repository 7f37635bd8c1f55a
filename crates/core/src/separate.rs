//! Separate verification: one engine run per property (§4, §9).
//!
//! Covers both variants compared in the paper: *global* proofs (no
//! assumptions) and *local* proofs (JA-verification, where every
//! Expected-To-Hold property is assumed in non-final states), each
//! with or without clause re-use.

use crate::{ClauseDb, MultiReport, PropertyResult, Scope};
use japrove_ic3::{
    CheckOutcome, ClauseSource, Ic3Options, Lifting, SolverCtx, TsEncoding, UnknownReason,
};
use japrove_obs::{EventKind, Journal, Phase};
use japrove_sat::{BackendChoice, Budget};
use japrove_tsys::{replay, Expectation, PropertyId, TransitionSystem};
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
    /// Re-use strengthening clauses across properties (§6).
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

/// Checks one property in the given context, handling the spurious-
/// counterexample retry of §7-A. Used by both the sequential and the
/// parallel drivers.
pub(crate) fn check_one(
    sys: &TransitionSystem,
    id: PropertyId,
    assumed: &[PropertyId],
    db: &ClauseDb,
    opts: &SeparateOptions,
    deadline: Option<Instant>,
    pool: &mut CtxPool,
) -> PropertyResult {
    // The version is read *before* the snapshot: clauses published in
    // between are both in the snapshot and re-offered by the first
    // refresh, where deduplication drops them — never lost.
    let db_version = db.version();
    let imported = if opts.reuse {
        db.snapshot()
    } else {
        Vec::new()
    };
    // With re-use on, the engine can also poll the store mid-run, so a
    // long proof sees clauses published after its snapshot was taken.
    let source: Option<(&dyn ClauseSource, u64)> = if opts.reuse {
        Some((db, db_version))
    } else {
        None
    };
    check_one_imports(sys, id, assumed, imported, source, opts, deadline, pool)
}

/// [`check_one`] with the imported clauses and refresh source supplied
/// by the caller — the clustered driver uses this to import its
/// cluster-scoped store eagerly while refreshing from a two-level
/// source. The caller is responsible for only supplying clauses that
/// are sound for the proof scope in `opts` (§6-B).
///
/// The whole check runs under `catch_unwind`: an engine panic (or an
/// injected chaos panic at the `check_one` fault site) degrades *this
/// property* to `Unknown(EngineFault)`, journals the panic payload as
/// a `fault` event, discards the worker's possibly-corrupted solver
/// context — the next check rebuilds a fresh one over the still-warm
/// shared encoding — and the run continues.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_one_imports(
    sys: &TransitionSystem,
    id: PropertyId,
    assumed: &[PropertyId],
    imported: Vec<japrove_logic::Clause>,
    source: Option<(&dyn ClauseSource, u64)>,
    opts: &SeparateOptions,
    deadline: Option<Instant>,
    pool: &mut CtxPool,
) -> PropertyResult {
    let started = Instant::now();
    let name = sys.property(id).name.clone();
    let backend = opts.backend_of(id);
    let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check_one_unguarded(sys, id, assumed, imported, source, opts, deadline, pool)
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

/// The body of [`check_one_imports`], without the supervision wrapper.
#[allow(clippy::too_many_arguments)]
fn check_one_unguarded(
    sys: &TransitionSystem,
    id: PropertyId,
    assumed: &[PropertyId],
    imported: Vec<japrove_logic::Clause>,
    source: Option<(&dyn ClauseSource, u64)>,
    opts: &SeparateOptions,
    deadline: Option<Instant>,
    pool: &mut CtxPool,
) -> PropertyResult {
    let started = Instant::now();
    let _span = opts
        .journal
        .span_labeled(Phase::Property, sys.property(id).name.as_str());
    japrove_obs::fault::fire("check_one", &sys.property(id).name);
    let mut budget = Budget::unlimited();
    match (opts.per_property, opts.property_timeout) {
        (Some(a), Some(b)) => budget = budget.with_timeout(a.min(b)),
        (Some(d), None) | (None, Some(d)) => budget = budget.with_timeout(d),
        (None, None) => {}
    }
    if let Some(d) = deadline {
        budget = budget.with_deadline(d);
    }
    let backend = opts.backend_of(id);
    let base = opts
        .ic3
        .lifting(opts.lifting)
        .budget(budget)
        .backend(backend);
    let ctx = pool.get(backend);
    let (mut outcome, mut stats) = ctx.check(sys, id, base, assumed, imported.clone(), source);
    let mut frames = stats.frames;
    let mut retried = false;

    // Spurious-CEX detection for local proofs with ignore-mode lifting:
    // the materialized trace is always a real trace of T, but its
    // prefix may violate an assumed property — then it is not a trace
    // of T^P and the property must be re-checked with lifting that
    // respects the constraints (§7-A).
    if opts.scope == Scope::Local && opts.lifting == Lifting::Ignore {
        if let CheckOutcome::Falsified(cex) = &outcome {
            let r = replay(sys, &cex.trace).expect("engine traces replay");
            let spurious =
                (0..cex.trace.len()).any(|k| r.violated_at(k).iter().any(|p| assumed.contains(p)));
            if spurious {
                retried = true;
                let strict = base.lifting(Lifting::Respect);
                let (o, s) = ctx.check(sys, id, strict, assumed, imported, source);
                outcome = o;
                frames = s.frames;
                // Both runs worked on this property; report their sum.
                stats.sat += s.sat;
                stats.queries += s.queries;
                stats.obligations += s.obligations;
                stats.generalized_lits += s.generalized_lits;
                stats.clauses = s.clauses;
                stats.frames = s.frames;
            }
        }
    }

    PropertyResult {
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
    }
}

/// Checks a single property in an explicit context: assumption set,
/// clause store and options. Exposed for custom drivers (e.g. the
/// per-property probes of Table X); [`separate_verify`] is the
/// standard entry point.
pub fn check_one_property(
    sys: &TransitionSystem,
    id: PropertyId,
    assumed: &[PropertyId],
    db: &ClauseDb,
    opts: &SeparateOptions,
    deadline: Option<Instant>,
) -> PropertyResult {
    check_one(sys, id, assumed, db, opts, deadline, &mut CtxPool::new(sys))
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
