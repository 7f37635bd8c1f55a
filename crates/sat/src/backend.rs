//! The solver-backend abstraction.
//!
//! IC3/BMC and the multi-property drivers talk to a SAT solver only
//! through the [`SatBackend`] trait — the surface the engines actually
//! use: variable allocation, clause loading, assumption-based solving
//! with models and unsat cores, budgets and statistics. Keeping this
//! interface narrow and object-safe lets a portfolio assign a
//! *different* backend to every property (the per-property engine
//! choice that TIUP-style configurations exploit) and leaves a slot for
//! an out-of-tree solver such as CaDiCaL behind a feature gate.
//!
//! In-tree backends:
//!
//! * [`Solver`] (`BackendChoice::Cdcl`) — the default CDCL solver with
//!   non-chronological backjumping;
//! * [`Solver::chronological`] (`BackendChoice::ChronoCdcl`) — the
//!   same CDCL machinery (clause store, VSIDS heap, learning) with
//!   *chronological* backtracking: one decision level per conflict;
//! * `CadicalBackend` (`BackendChoice::Cadical`, feature `cadical`) —
//!   the wiring point for a CaDiCaL FFI; see [`crate::cadical`].
//!
//! # Examples
//!
//! ```
//! use japrove_sat::{BackendChoice, SatBackend, SolveResult};
//!
//! for &choice in BackendChoice::ALL {
//!     let mut s = choice.build();
//!     let a = s.new_var();
//!     let b = s.new_var();
//!     s.add_clause(&[a.pos(), b.pos()]);
//!     s.add_clause(&[a.neg()]);
//!     assert_eq!(s.solve(&[]), SolveResult::Sat, "{choice}");
//!     assert!(s.model_value(b.pos()).is_true());
//!     assert_eq!(s.solve(&[b.neg()]), SolveResult::Unsat);
//!     assert_eq!(s.unsat_core(), &[b.neg()]);
//! }
//! ```

use crate::{Budget, SolveResult, Solver, SolverStats};
use japrove_logic::{LBool, Lit, Var};
use japrove_obs::Journal;
use std::fmt;
use std::str::FromStr;

/// The solver interface the model-checking engines are written
/// against.
///
/// Object-safe by design: engines hold `Box<dyn SatBackend>` so the
/// backend is a per-run (and hence per-property) runtime choice. Every
/// method mirrors the incremental-solver contract of [`Solver`]; see
/// there for the detailed semantics of models, cores and budgets.
pub trait SatBackend: fmt::Debug + Send {
    /// Short identifier used in reports and benchmark tables.
    fn backend_name(&self) -> &'static str;

    /// Allocates a fresh variable.
    fn new_var(&mut self) -> Var;

    /// Ensures variables `0..n` exist.
    fn ensure_vars(&mut self, n: u32);

    /// Number of allocated variables.
    fn num_vars(&self) -> u32;

    /// Adds a clause over existing variables; returns `false` if the
    /// solver is now unconditionally unsatisfiable.
    fn add_clause(&mut self, lits: &[Lit]) -> bool;

    /// Solves under the given assumptions.
    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult;

    /// Value of `lit` in the most recent satisfying model.
    fn model_value(&self, lit: Lit) -> LBool;

    /// Subset of assumptions responsible for the most recent
    /// [`SolveResult::Unsat`] answer.
    fn unsat_core(&self) -> &[Lit];

    /// Returns `true` if `lit` occurs in the current unsat core.
    fn core_contains(&self, lit: Lit) -> bool {
        self.unsat_core().contains(&lit)
    }

    /// Sets the budget applied to subsequent [`SatBackend::solve`]
    /// calls.
    fn set_budget(&mut self, budget: Budget);

    /// Cumulative statistics of this solver instance.
    fn stats(&self) -> &SolverStats;

    /// Attaches an observability journal; backends that cannot report
    /// (e.g. FFI stubs) may ignore it, which is the default.
    fn set_journal(&mut self, _journal: Journal) {}

    /// Returns `false` once the clause set is known unsatisfiable
    /// regardless of assumptions.
    fn is_ok(&self) -> bool;

    /// Removes clauses satisfied at level 0.
    fn simplify(&mut self);

    /// Adds `lits` as a clause guarded by the activation variable
    /// `act`: the clause constrains only those [`SatBackend::solve`]
    /// calls that assume `act` positively. The guard is the standard
    /// `!act ∨ lits` encoding, so a retired guard (see
    /// [`SatBackend::retire`]) permanently satisfies the clause.
    fn add_clause_guarded(&mut self, act: Var, lits: &[Lit]) -> bool {
        let mut clause = Vec::with_capacity(lits.len() + 1);
        clause.push(act.neg());
        clause.extend_from_slice(lits);
        self.add_clause(&clause)
    }

    /// Permanently retires the activation variable `act` by fixing it
    /// false at level 0. Every clause guarded by `act` becomes
    /// satisfied and is reclaimed by the next [`SatBackend::simplify`]
    /// call — the mechanism warm, long-lived solvers use to drop one
    /// property's clauses before the next property's run.
    fn retire(&mut self, act: Var) -> bool {
        self.add_clause(&[act.neg()])
    }

    /// Adds the parity constraint `XOR(vars) = parity` guarded by
    /// `act`, via a Tseitin chain of fresh auxiliary variables. Every
    /// clause of the encoding carries the `!act` guard, so retiring
    /// `act` (see [`SatBackend::retire`]) reclaims the whole
    /// constraint — the mechanism XOR-hash counting uses to add and
    /// drop one round's random parity constraints on a warm solver.
    ///
    /// The auxiliaries are the variables allocated by this call. They
    /// occur only in clauses guarded by `act` and in learnt clauses
    /// derived from them, and all of those contain `!act`. Once `act`
    /// is retired, any value of an auxiliary is consistent, so a caller
    /// may retire the auxiliaries too and keep later solves from
    /// deciding them.
    ///
    /// An empty `vars` set has XOR value `false`: with `parity ==
    /// true` the constraint is unsatisfiable under `act` (encoded as
    /// the guarded empty clause, i.e. the unit `!act`).
    fn add_xor_guarded(&mut self, act: Var, vars: &[Var], parity: bool) -> bool {
        let Some((&first, rest)) = vars.split_first() else {
            return if parity {
                self.add_clause(&[act.neg()])
            } else {
                true
            };
        };
        let mut acc = first.pos();
        for &v in rest {
            let out = self.new_var().pos();
            let b = v.pos();
            // out <-> acc XOR b, each clause guarded by act.
            let mut ok = self.add_clause(&[act.neg(), !out, acc, b]);
            ok &= self.add_clause(&[act.neg(), !out, !acc, !b]);
            ok &= self.add_clause(&[act.neg(), out, !acc, b]);
            ok &= self.add_clause(&[act.neg(), out, acc, !b]);
            if !ok {
                return false;
            }
            acc = out;
        }
        self.add_clause(&[act.neg(), if parity { acc } else { !acc }])
    }
}

impl SatBackend for Solver {
    fn backend_name(&self) -> &'static str {
        if self.is_chronological() {
            "chrono-cdcl"
        } else {
            "cdcl"
        }
    }

    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn ensure_vars(&mut self, n: u32) {
        Solver::ensure_vars(self, n);
    }

    fn num_vars(&self) -> u32 {
        Solver::num_vars(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        Solver::add_clause(self, lits.iter().copied())
    }

    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        Solver::solve(self, assumptions)
    }

    fn model_value(&self, lit: Lit) -> LBool {
        Solver::model_value(self, lit)
    }

    fn unsat_core(&self) -> &[Lit] {
        Solver::unsat_core(self)
    }

    fn core_contains(&self, lit: Lit) -> bool {
        Solver::core_contains(self, lit)
    }

    fn set_budget(&mut self, budget: Budget) {
        Solver::set_budget(self, budget);
    }

    fn stats(&self) -> &SolverStats {
        Solver::stats(self)
    }

    fn set_journal(&mut self, journal: Journal) {
        Solver::set_journal(self, journal);
    }

    fn is_ok(&self) -> bool {
        Solver::is_ok(self)
    }

    fn simplify(&mut self) {
        Solver::simplify(self);
    }
}

/// The registry of in-tree solver backends.
///
/// A `BackendChoice` is a cheap, copyable *description*; [`build`]
/// turns it into a live solver. Engines store the choice and rebuild
/// solvers from it, so every rebuilt solver stays on the selected
/// backend.
///
/// [`build`]: BackendChoice::build
///
/// # Examples
///
/// ```
/// use japrove_sat::BackendChoice;
///
/// assert_eq!(BackendChoice::default(), BackendChoice::Cdcl);
/// assert_eq!("chrono".parse::<BackendChoice>(), Ok(BackendChoice::ChronoCdcl));
/// assert!(BackendChoice::ALL.len() >= 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
#[non_exhaustive]
pub enum BackendChoice {
    /// The default CDCL solver with non-chronological backjumping.
    #[default]
    Cdcl,
    /// CDCL with chronological backtracking — the same clause store,
    /// watches, heap and learning, retreating one decision level per
    /// conflict (see [`Solver::chronological`]). Verdict-equivalent to
    /// [`BackendChoice::Cdcl`]; the search trajectory, and with it the
    /// models, generalizations and runtimes, differ.
    ChronoCdcl,
    /// The CaDiCaL FFI slot (currently a documented stub that delegates
    /// to the in-tree CDCL solver; see [`crate::cadical`]).
    #[cfg(feature = "cadical")]
    Cadical,
}

impl BackendChoice {
    /// Every backend compiled into this build, in registration order.
    /// Differential tests iterate this to enforce verdict parity.
    #[cfg(not(feature = "cadical"))]
    pub const ALL: &'static [BackendChoice] = &[BackendChoice::Cdcl, BackendChoice::ChronoCdcl];
    /// Every backend compiled into this build, in registration order.
    /// Differential tests iterate this to enforce verdict parity.
    #[cfg(feature = "cadical")]
    pub const ALL: &'static [BackendChoice] = &[
        BackendChoice::Cdcl,
        BackendChoice::ChronoCdcl,
        BackendChoice::Cadical,
    ];

    /// Builds a fresh, empty solver of this backend.
    pub fn build(self) -> Box<dyn SatBackend> {
        match self {
            BackendChoice::Cdcl => Box::new(Solver::new()),
            BackendChoice::ChronoCdcl => Box::new(Solver::chronological()),
            #[cfg(feature = "cadical")]
            BackendChoice::Cadical => Box::new(crate::cadical::CadicalBackend::new()),
        }
    }

    /// Short identifier, matching [`SatBackend::backend_name`] and the
    /// CLI `--backend` values.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Cdcl => "cdcl",
            BackendChoice::ChronoCdcl => "chrono-cdcl",
            #[cfg(feature = "cadical")]
            BackendChoice::Cadical => "cadical",
        }
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cdcl" => Ok(BackendChoice::Cdcl),
            "chrono" | "chrono-cdcl" => Ok(BackendChoice::ChronoCdcl),
            #[cfg(feature = "cadical")]
            "cadical" => Ok(BackendChoice::Cadical),
            other => Err(format!(
                "unknown backend '{other}' (available: {})",
                BackendChoice::ALL
                    .iter()
                    .map(|b| b.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_round_trip() {
        for &b in BackendChoice::ALL {
            assert_eq!(b.name().parse::<BackendChoice>(), Ok(b));
            assert_eq!(b.build().backend_name(), b.name());
        }
        assert!("minisat".parse::<BackendChoice>().is_err());
    }

    #[test]
    fn every_backend_solves_through_the_trait() {
        for &choice in BackendChoice::ALL {
            let mut s = choice.build();
            s.ensure_vars(3);
            let v0 = Var::new(0);
            let v1 = Var::new(1);
            let v2 = Var::new(2);
            assert!(s.add_clause(&[v0.neg(), v1.pos()]));
            assert!(s.add_clause(&[v1.neg(), v2.pos()]));
            assert_eq!(s.solve(&[v0.pos()]), SolveResult::Sat, "{choice}");
            assert!(s.model_value(v2.pos()).is_true(), "{choice}");
            assert_eq!(s.solve(&[v0.pos(), v2.neg()]), SolveResult::Unsat);
            assert!(s.core_contains(v2.neg()) || s.core_contains(v0.pos()));
            assert_eq!(s.num_vars(), 3);
            assert!(s.is_ok());
            s.simplify();
            assert_eq!(s.solve(&[v0.pos()]), SolveResult::Sat);
        }
    }

    #[test]
    fn guarded_xor_constrains_only_under_its_activation_literal() {
        for &choice in BackendChoice::ALL {
            let mut s = choice.build();
            let a = s.new_var();
            let b = s.new_var();
            let c = s.new_var();
            let act = s.new_var();
            assert!(s.add_xor_guarded(act, &[a, b, c], true));
            // Under act, exactly the odd-parity assignments survive.
            for m in 0u8..8 {
                let assumptions = [
                    act.pos(),
                    a.lit(m & 1 == 0),
                    b.lit(m & 2 == 0),
                    c.lit(m & 4 == 0),
                ];
                let expect = if (m.count_ones() % 2) == 1 {
                    SolveResult::Sat
                } else {
                    SolveResult::Unsat
                };
                assert_eq!(s.solve(&assumptions), expect, "{choice} m={m}");
            }
            // Without act the constraint is dormant.
            assert_eq!(s.solve(&[a.neg(), b.neg(), c.neg()]), SolveResult::Sat);
            // Retiring act drops the constraint permanently.
            assert!(s.retire(act));
            s.simplify();
            assert_eq!(
                s.solve(&[a.neg(), b.neg(), c.neg()]),
                SolveResult::Sat,
                "{choice}: retired XOR must not constrain"
            );
        }
    }

    #[test]
    fn guarded_xor_edge_cases() {
        let mut s = BackendChoice::default().build();
        let v = s.new_var();
        // Single-variable XOR degenerates to a guarded unit.
        let act = s.new_var();
        assert!(s.add_xor_guarded(act, &[v], false));
        assert_eq!(s.solve(&[act.pos(), v.pos()]), SolveResult::Unsat);
        assert_eq!(s.solve(&[act.pos(), v.neg()]), SolveResult::Sat);
        s.retire(act);
        // Empty XOR: parity false is a tautology, parity true is
        // unsatisfiable under its guard (and only under it).
        let taut = s.new_var();
        assert!(s.add_xor_guarded(taut, &[], false));
        assert_eq!(s.solve(&[taut.pos()]), SolveResult::Sat);
        let contra = s.new_var();
        s.add_xor_guarded(contra, &[], true);
        assert_eq!(s.solve(&[contra.pos()]), SolveResult::Unsat);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn chrono_solver_reports_its_flag() {
        let c = Solver::chronological();
        assert!(c.is_chronological());
        assert_eq!(SatBackend::backend_name(&c), "chrono-cdcl");
        let plain = Solver::new();
        assert_eq!(SatBackend::backend_name(&plain), "cdcl");
    }
}
