//! Post-verdict counterexample enumeration and XOR-hash bad-state
//! counting.
//!
//! A Falsified verdict carries one witness; production triage asks
//! "how many distinct ways does this property fail, and show me a
//! diverse sample". This module answers both questions for every
//! falsified property of a finished [`MultiReport`]:
//!
//! * **Enumeration** — re-solve the BMC unrolling at the property's
//!   *minimal* counterexample depth, blocking each found model on a
//!   user-selectable *projection set* (the input stimulus of the
//!   whole trace, or the final-state values of the property cone's
//!   latch support) until the set is exhausted or `--enum-max`
//!   witnesses were collected. Every witness is replay-checked on the
//!   netlist before it is reported, like lifted cluster
//!   counterexamples.
//! * **Counting** — an MBound-style estimate of how many distinct
//!   projection assignments fail: `s` random XOR parity constraints
//!   over the projection set (fresh seeded [`SplitMix64`] streams)
//!   are Gauss–Jordan-reduced, added via guarded clauses and retired
//!   per round; the largest `s*` whose rounds stay majority-SAT
//!   brackets the count as `[2^s* / ε, 2^(s*+1) · ε]`, with the slack
//!   factor ε and the nominal failure probability δ recorded on the
//!   estimate. A level's vote stops once its majority is decided, and
//!   the exact-count probe reuses the enumeration round when that
//!   round already decides it; neither changes an estimate.
//!
//! Both passes share one warm [`Bmc`] across all properties of the
//! design — enumeration is repeated warm re-solving under retired
//! activation literals, never a cold re-encode. A panic inside one
//! property's round (the `enum_round` fault site) degrades only that
//! property's enumeration; verdicts are already settled by the time
//! this module runs.

use crate::pipeline::panic_detail;
use crate::MultiReport;
use japrove_ic3::{Bmc, BmcResult, Counterexample};
use japrove_logic::Var;
use japrove_obs::{fault, EventKind, Journal, Phase};
use japrove_rng::SplitMix64;
use japrove_sat::{BackendChoice, Budget, SolveResult};
use japrove_tsys::{replay, PropertyId, TransitionSystem};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;

/// Distinct counterexamples below this many equivalence classes are
/// counted exactly (by enumeration) instead of hashed.
const EXACT_LIMIT: usize = 32;

/// The XOR-hash bracket slack, in powers of two. `s*` is the *last*
/// majority-SAT level, so the two guarantees anchor one level apart:
/// majority-SAT at `s*` refutes counts below `2^(s*-SLACK)` (Markov on
/// the survivor mean), while majority-UNSAT at `s*+1` refutes counts
/// above `2^(s*+1+SLACK)` (Chebyshev needs the mean ≥ `2^SLACK` *at
/// that level*). The estimate is therefore the asymmetric bracket
/// `[2^(s*-SLACK), 2^(s*+1+SLACK)]`.
const SLACK: usize = 2;

/// Which variables two counterexamples must differ on to count as
/// distinct (and which variables the counting hash ranges over).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Projection {
    /// The input stimulus of the whole trace: design inputs of every
    /// frame `0..=depth`. Distinct stimuli are distinct traces (the
    /// design is deterministic given its inputs).
    #[default]
    Inputs,
    /// The final-state values of the latches in the property cone's
    /// support: distinct assignments are distinct *bad states*,
    /// however many stimuli reach each.
    Latches,
}

impl Projection {
    /// Every projection, in display order.
    pub const ALL: &'static [Projection] = &[Projection::Inputs, Projection::Latches];

    /// The CLI / wire name.
    pub fn name(self) -> &'static str {
        match self {
            Projection::Inputs => "inputs",
            Projection::Latches => "latches",
        }
    }
}

impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Projection {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Projection::ALL
            .iter()
            .copied()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown projection '{s}' (available: {})",
                    Projection::ALL
                        .iter()
                        .map(|p| p.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
    }
}

/// Options for the post-verdict enumeration pass.
///
/// # Examples
///
/// ```
/// use japrove_core::{EnumOptions, Projection};
///
/// let opts = EnumOptions::new()
///     .enumerate(true)
///     .count(true)
///     .projection(Projection::Latches)
///     .max_cexes(8);
/// assert_eq!(opts.projection, Projection::Latches);
/// ```
#[derive(Clone, Debug)]
pub struct EnumOptions {
    /// Collect distinct counterexamples.
    pub enumerate: bool,
    /// Estimate the number of distinct failing projection
    /// assignments.
    pub count: bool,
    /// Cap on collected counterexamples per property.
    pub max_cexes: usize,
    /// The projection set both passes range over.
    pub projection: Projection,
    /// Seed of the per-(property, level, trial) XOR constraint
    /// streams.
    pub seed: u64,
    /// Solver trials per XOR level (majority vote). A level stops
    /// once its majority is decided, so it may run fewer.
    pub trials: usize,
    /// Supervised re-attempts after a contained `enum_round` panic.
    pub retries: usize,
    /// SAT backend of the enumeration solver.
    pub backend: BackendChoice,
    /// Observability journal (`enum`/`count` spans, `enumerated`/
    /// `counted`/`fault` events).
    pub journal: Journal,
}

impl Default for EnumOptions {
    fn default() -> Self {
        EnumOptions {
            enumerate: false,
            count: false,
            max_cexes: 16,
            projection: Projection::default(),
            seed: 0,
            trials: 5,
            retries: 1,
            backend: BackendChoice::default(),
            journal: Journal::disabled(),
        }
    }
}

impl EnumOptions {
    /// Defaults: both passes off, 16 counterexamples, the `inputs`
    /// projection, 5 trials per XOR level, one supervised retry.
    pub fn new() -> Self {
        EnumOptions::default()
    }

    /// Enables/disables counterexample enumeration.
    pub fn enumerate(mut self, on: bool) -> Self {
        self.enumerate = on;
        self
    }

    /// Enables/disables XOR-hash counting.
    pub fn count(mut self, on: bool) -> Self {
        self.count = on;
        self
    }

    /// Sets the per-property counterexample cap.
    pub fn max_cexes(mut self, n: usize) -> Self {
        self.max_cexes = n;
        self
    }

    /// Sets the projection set.
    pub fn projection(mut self, p: Projection) -> Self {
        self.projection = p;
        self
    }

    /// Sets the XOR stream seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the trials per XOR level.
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the supervised re-attempt count.
    pub fn retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the SAT backend.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches an observability journal.
    pub fn journal(mut self, journal: Journal) -> Self {
        self.journal = journal;
        self
    }
}

/// One enumerated witness: the replay-checked trace plus the
/// projection-set assignment it was blocked on.
#[derive(Clone, Debug)]
pub struct EnumeratedCex {
    /// The concrete witness (depth = the property's minimal
    /// counterexample depth).
    pub cex: Counterexample,
    /// The projection bits, in projection-set order; no two witnesses
    /// of one property agree on all of them.
    pub projection: Vec<bool>,
}

/// The `[lo, hi]` bad-assignment count estimate of one property.
#[derive(Clone, Debug)]
pub struct CountEstimate {
    /// Lower end (inclusive; saturates at `2^62`, which keeps it a
    /// lower bound).
    pub lo: u64,
    /// Upper end (inclusive). When the guaranteed upper end exceeds
    /// `2^62` it does not fit, and `hi` is the sentinel
    /// [`CountEstimate::HI_ABOVE_2_62`] instead.
    pub hi: u64,
    /// `true` if the count was established by exhaustive enumeration
    /// (`lo == hi`, ε and δ are zero).
    pub exact: bool,
    /// The XOR level `s*` at the SAT/UNSAT boundary (0 when exact).
    pub level: usize,
    /// Solver trials per level: the size of the majority vote. A level
    /// stops once its majority is decided, so it may run fewer.
    pub trials: usize,
    /// Multiplicative slack: the bracket is
    /// `[2^s* / ε, 2^(s*+1) · ε]` (asymmetric because `s*` is the last
    /// majority-SAT level while the upper guarantee anchors at the
    /// first majority-UNSAT one).
    pub epsilon: f64,
    /// Nominal probability the bracket misses, `0.5^trials` — the
    /// majority vote at each level must be wrong for the boundary to
    /// be misplaced. Stopping a vote once its majority is decided
    /// leaves its outcome, and so δ, unchanged.
    pub delta: f64,
}

impl CountEstimate {
    /// The [`CountEstimate::hi`] of a bracket whose upper end exceeds
    /// `2^62`: `2^63 - 1`, read as "above `2^62`". It is never a power
    /// of two, so it cannot be mistaken for a bracket end, and it fits
    /// the writers that store counts as `i64`.
    pub const HI_ABOVE_2_62: u64 = i64::MAX as u64;
}

/// The enumeration/counting outcome of one falsified property.
#[derive(Clone, Debug)]
pub struct PropertyEnumeration {
    /// Which property.
    pub id: PropertyId,
    /// Its name.
    pub name: String,
    /// The minimal counterexample depth the rounds ran at (re-derived
    /// by BMC — drivers may have reported a deeper witness).
    pub depth: usize,
    /// The projection set used.
    pub projection: Projection,
    /// Size of the projection set in bits.
    pub projection_bits: usize,
    /// Distinct replay-checked counterexamples (empty unless
    /// [`EnumOptions::enumerate`] was on).
    pub cexes: Vec<EnumeratedCex>,
    /// `true` if every equivalence class was enumerated (the final
    /// query was UNSAT), `false` if the cap stopped the round.
    pub exhausted: bool,
    /// Witnesses the replay check rejected (an engine bug if ever
    /// nonzero; they are excluded from `cexes`).
    pub rejected: usize,
    /// The count estimate (present iff [`EnumOptions::count`] was
    /// on and the round completed).
    pub count: Option<CountEstimate>,
    /// `true` if a contained panic (`enum_round` fault site) degraded
    /// this property's enumeration after the supervised retries. The
    /// property's *verdict* is unaffected — it settled before this
    /// pass ran.
    pub faulted: bool,
}

/// Runs the enumeration/counting pass over every falsified property
/// of `report`, sharing one warm BMC unrolling across properties.
///
/// Properties whose round panics are retried up to
/// [`EnumOptions::retries`] times on a fresh solver, then reported
/// with [`PropertyEnumeration::faulted`] — the pass never unwinds
/// into the caller and never touches the verdicts in `report`.
pub fn enumerate_report(
    sys: &TransitionSystem,
    report: &MultiReport,
    opts: &EnumOptions,
) -> Vec<PropertyEnumeration> {
    if !opts.enumerate && !opts.count {
        return Vec::new();
    }
    let falsified: Vec<(PropertyId, usize)> = report
        .results
        .iter()
        .filter_map(|r| r.counterexample().map(|cex| (r.id, cex.depth)))
        .collect();
    let mut out = Vec::new();
    let mut warm: Option<Bmc> = None;
    for (id, depth) in falsified {
        let name = sys.property(id).name.clone();
        let mut entry = None;
        for _attempt in 0..=opts.retries {
            // A panicking round poisons its solver; it is dropped with
            // the unwind and the retry (and the next property) starts
            // from a fresh encoding.
            let mut bmc = warm.take().unwrap_or_else(|| {
                let _span = opts.journal.span(Phase::Encode);
                let mut b = Bmc::with_backend(sys, opts.backend);
                b.set_journal(opts.journal.clone());
                b
            });
            let round = catch_unwind(AssertUnwindSafe(|| {
                fault::fire("enum_round", &name);
                let e = enumerate_one(&mut bmc, sys, id, &name, depth, opts);
                (bmc, e)
            }));
            match round {
                Ok((bmc, e)) => {
                    warm = Some(bmc);
                    entry = Some(e);
                    break;
                }
                Err(payload) => opts.journal.event(EventKind::Fault {
                    site: "enum_round".into(),
                    detail: panic_detail(payload.as_ref()),
                }),
            }
        }
        out.push(entry.unwrap_or(PropertyEnumeration {
            id,
            name,
            depth,
            projection: opts.projection,
            projection_bits: 0,
            cexes: Vec::new(),
            exhausted: false,
            rejected: 0,
            count: None,
            faulted: true,
        }));
    }
    out
}

fn enumerate_one(
    bmc: &mut Bmc,
    sys: &TransitionSystem,
    id: PropertyId,
    name: &str,
    depth: usize,
    opts: &EnumOptions,
) -> PropertyEnumeration {
    let mut entry = PropertyEnumeration {
        id,
        name: name.to_string(),
        depth,
        projection: opts.projection,
        projection_bits: 0,
        cexes: Vec::new(),
        exhausted: false,
        rejected: 0,
        count: None,
        faulted: false,
    };
    // The property's first span also covers re-deriving its depth and
    // projection set.
    let first = if opts.enumerate {
        Phase::Enum
    } else {
        Phase::Count
    };
    let mut span = opts.journal.span_labeled(first, name);
    // Re-derive the minimal counterexample depth: the recorded witness
    // is an upper bound (IC3 traces need not be shallowest), and the
    // canonical depth is what makes enumeration driver-independent.
    let d = match bmc.run(&[id], depth, Budget::unlimited()) {
        BmcResult::Cex { cex, .. } => cex.depth,
        // Defensive: a falsified property always has a BMC witness at
        // its recorded depth; leave the entry empty if not.
        _ => return entry,
    };
    entry.depth = d;
    let projection: Vec<Var> = match opts.projection {
        Projection::Inputs => bmc.input_projection(d),
        Projection::Latches => bmc.state_projection(d, &sys.latch_support(id)),
    };
    entry.projection_bits = projection.len();
    // The counting probe's answer, when the enumeration round (on the
    // same projection) already decides it: the round exhausted the
    // set, or found at least as many raw witnesses as the probe
    // would.
    let mut probe = None;
    if opts.enumerate {
        let round = bmc.enumerate_at(id, d, &projection, opts.max_cexes, Budget::unlimited());
        let raw = round.cexes.len();
        if round.exhausted || raw >= EXACT_LIMIT {
            probe = Some((raw.min(EXACT_LIMIT), round.exhausted && raw < EXACT_LIMIT));
        }
        entry.exhausted = round.exhausted;
        for (cex, bits) in round.cexes {
            match replay(sys, &cex.trace) {
                Ok(r) if r.violates_finally(id) => entry.cexes.push(EnumeratedCex {
                    cex,
                    projection: bits,
                }),
                _ => entry.rejected += 1,
            }
        }
        opts.journal.event(EventKind::Enumerated {
            property: name.to_string(),
            depth: d,
            found: entry.cexes.len(),
            exhausted: entry.exhausted,
        });
        if opts.count {
            drop(span);
            span = opts.journal.span_labeled(Phase::Count, name);
        }
    }
    if opts.count {
        let est = count_one(bmc, id, d, &projection, probe, opts);
        opts.journal.event(EventKind::Counted {
            property: name.to_string(),
            lo: est.lo,
            hi: est.hi,
            level: est.level,
            trials: est.trials,
            exact: est.exact,
        });
        entry.count = Some(est);
    }
    drop(span);
    entry
}

/// The MBound-style up-search: exact below [`EXACT_LIMIT`], otherwise
/// the largest XOR level whose rounds stay majority-SAT, widened by
/// [`SLACK`] powers of two each way.
///
/// `probe` is the exact-count probe's `(found, exhausted)` answer when
/// the caller already has it; otherwise the probe runs here.
fn count_one(
    bmc: &mut Bmc,
    id: PropertyId,
    d: usize,
    projection: &[Var],
    probe: Option<(usize, bool)>,
    opts: &EnumOptions,
) -> CountEstimate {
    let trials = opts.trials.max(1);
    let (found, exhausted) = probe.unwrap_or_else(|| {
        let round = bmc.enumerate_at(id, d, projection, EXACT_LIMIT, Budget::unlimited());
        (round.cexes.len(), round.exhausted)
    });
    let found = found as u64;
    if exhausted {
        return CountEstimate {
            lo: found,
            hi: found,
            exact: true,
            level: 0,
            trials,
            epsilon: 0.0,
            delta: 0.0,
        };
    }
    let n = projection.len();
    let mut boundary = 0usize;
    for s in 1..=n {
        let mut sat = 0usize;
        for t in 0..trials {
            // Stop once the vote is decided. Every trial has its own
            // constraint stream, so skipping one changes no other.
            if sat * 2 > trials || (t - sat) * 2 >= trials {
                break;
            }
            let mut rng = SplitMix64::seed_from_u64(stream_seed(opts.seed, id.index(), s, t));
            let xors: Vec<(Vec<Var>, bool)> = (0..s)
                .map(|_| {
                    // Each constraint draws every projection variable
                    // with probability 1/2, plus a fair parity bit —
                    // the pairwise-independent hash family of MBound.
                    let vars: Vec<Var> = projection
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_bool())
                        .collect();
                    let parity = rng.gen_bool();
                    (vars, parity)
                })
                .collect();
            if bmc.solve_with_parity(id, d, &xors, Budget::unlimited()) == SolveResult::Sat {
                sat += 1;
            }
        }
        if sat * 2 > trials {
            boundary = s;
        } else {
            break;
        }
    }
    let (lo, hi) = bracket(boundary, n, found);
    CountEstimate {
        lo,
        hi,
        exact: false,
        level: boundary,
        trials,
        epsilon: (1u64 << SLACK) as f64,
        delta: 0.5f64.powi(trials as i32),
    }
}

/// The `[lo, hi]` bracket of boundary level `boundary` over an `n`-bit
/// projection set whose exact probe found `found` witnesses:
/// `[2^(s*-SLACK), 2^(min(s*+1+SLACK, n))]`. An end past `2^62` does
/// not fit: `lo` saturates at `2^62`, still a lower bound, and `hi`
/// becomes [`CountEstimate::HI_ABOVE_2_62`].
fn bracket(boundary: usize, n: usize, found: u64) -> (u64, u64) {
    let lo = (1u64 << boundary.saturating_sub(SLACK).min(62)).max(found);
    let e = (boundary + 1 + SLACK).min(n);
    let hi = if e > 62 {
        CountEstimate::HI_ABOVE_2_62
    } else {
        (1u64 << e).max(lo)
    };
    (lo, hi)
}

/// One SplitMix64 scramble keeps the per-(property, level, trial) XOR
/// streams independent of each other and of every other seeded stream
/// in the system.
fn stream_seed(seed: u64, prop: usize, level: usize, trial: usize) -> u64 {
    let mixed = seed ^ ((prop as u64) << 40) ^ ((level as u64) << 20) ^ trial as u64;
    SplitMix64::seed_from_u64(mixed).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_parses_and_rejects() {
        assert_eq!("inputs".parse::<Projection>(), Ok(Projection::Inputs));
        assert_eq!("latches".parse::<Projection>(), Ok(Projection::Latches));
        let err = "states".parse::<Projection>().unwrap_err();
        assert!(err.contains("inputs, latches"), "{err}");
        for &p in Projection::ALL {
            assert_eq!(p.name().parse::<Projection>(), Ok(p));
            assert_eq!(p.to_string(), p.name());
        }
    }

    #[test]
    fn brackets_keep_their_guarantee_past_2_62() {
        let found = EXACT_LIMIT as u64;
        assert_eq!(bracket(16, 20, found), (1 << 14, 1 << 19));
        assert_eq!(bracket(59, 62, found), (1 << 57, 1 << 62));
        for (level, n) in [(60, 80), (85, 88)] {
            let (lo, hi) = bracket(level, n, found);
            assert_eq!(hi, CountEstimate::HI_ABOVE_2_62, "level {level} of {n}");
            assert!(lo.is_power_of_two() && lo.ilog2() as usize <= level - SLACK);
        }
        assert!(!CountEstimate::HI_ABOVE_2_62.is_power_of_two());
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let a = stream_seed(7, 1, 2, 3);
        assert_eq!(a, stream_seed(7, 1, 2, 3));
        assert_ne!(a, stream_seed(7, 1, 2, 4));
        assert_ne!(a, stream_seed(7, 1, 3, 3));
        assert_ne!(a, stream_seed(7, 2, 2, 3));
        assert_ne!(a, stream_seed(8, 1, 2, 3));
    }
}
