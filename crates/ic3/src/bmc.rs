//! Bounded model checking by incremental unrolling.

use crate::{Counterexample, UnknownReason};
use japrove_aig::CnfEncoder;
use japrove_logic::{Lit, Var};
use japrove_obs::{EventKind, Journal};
use japrove_sat::{BackendChoice, Budget, SatBackend, SolveResult};
use japrove_tsys::{PropertyId, Trace, TransitionSystem};
use std::time::Instant;

/// Outcome of a BMC run.
#[derive(Clone, Debug)]
pub enum BmcResult {
    /// A counterexample was found, together with the subset of the
    /// queried properties its final state falsifies.
    Cex {
        /// The concrete witness.
        cex: Counterexample,
        /// Queried properties falsified by the final state.
        falsified: Vec<PropertyId>,
    },
    /// No counterexample exists up to (and including) the given depth.
    NoCexUpTo(usize),
    /// Resources ran out first.
    Unknown(UnknownReason),
}

impl BmcResult {
    /// `true` if a counterexample was found.
    pub fn is_cex(&self) -> bool {
        matches!(self, BmcResult::Cex { .. })
    }
}

/// The result of one [`Bmc::enumerate_at`] round: the distinct
/// counterexamples found, each with its projection-set assignment.
#[derive(Clone, Debug)]
pub struct BmcEnumeration {
    /// Distinct counterexamples, in discovery order. Each pairs the
    /// witness with the Boolean assignment of the projection set it
    /// was blocked on (so two entries never agree on every bit).
    pub cexes: Vec<(Counterexample, Vec<bool>)>,
    /// `true` if the final query was UNSAT: every equivalence class of
    /// the projection set has been enumerated.
    pub exhausted: bool,
}

/// An incremental bounded model checker.
///
/// Unrolls the transition relation frame by frame inside one
/// incremental SAT solver; per-depth queries are assumption-based so
/// the unrolling is shared across depths and across properties
/// (including the aggregate-property queries of joint verification).
///
/// # Examples
///
/// ```
/// use japrove_aig::Aig;
/// use japrove_ic3::{Bmc, BmcResult};
/// use japrove_sat::Budget;
/// use japrove_tsys::{TransitionSystem, Word};
///
/// let mut aig = Aig::new();
/// let c = Word::latches(&mut aig, 3, 0);
/// let n = c.increment(&mut aig);
/// c.set_next(&mut aig, &n);
/// let safe = c.lt_const(&mut aig, 5);
/// let mut sys = TransitionSystem::new("cnt", aig);
/// let p = sys.add_property("lt5", safe);
///
/// let mut bmc = Bmc::new(&sys);
/// match bmc.run(&[p], 16, Budget::unlimited()) {
///     BmcResult::Cex { cex, .. } => assert_eq!(cex.depth, 5),
///     other => panic!("expected counterexample, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct Bmc<'a> {
    sys: &'a TransitionSystem,
    solver: Box<dyn SatBackend>,
    /// Present-state variables per unrolled frame.
    state_vars: Vec<Vec<Var>>,
    /// Input variables per frame.
    input_vars: Vec<Vec<Var>>,
    /// Good-literals per frame, one per property.
    good_lits: Vec<Vec<Lit>>,
    journal: Journal,
}

impl<'a> Bmc<'a> {
    /// Creates a checker with frame 0 (the initial state) encoded,
    /// running on the default SAT backend.
    pub fn new(sys: &'a TransitionSystem) -> Self {
        Bmc::with_backend(sys, BackendChoice::default())
    }

    /// Creates a checker on the given SAT backend.
    pub fn with_backend(sys: &'a TransitionSystem, backend: BackendChoice) -> Self {
        let mut bmc = Bmc {
            sys,
            solver: backend.build(),
            state_vars: Vec::new(),
            input_vars: Vec::new(),
            good_lits: Vec::new(),
            journal: Journal::disabled(),
        };
        // Frame 0 state variables, constrained to the initial state by
        // unit clauses.
        let vars: Vec<Var> = sys
            .aig()
            .latches()
            .iter()
            .map(|_| bmc.solver.new_var())
            .collect();
        for (v, latch) in vars.iter().zip(sys.aig().latches()) {
            bmc.solver.add_clause(&[v.lit(!latch.reset)]);
        }
        bmc.state_vars.push(vars);
        bmc.encode_frame_logic();
        bmc
    }

    /// Name of the SAT backend this checker runs on.
    pub fn backend_name(&self) -> &'static str {
        self.solver.backend_name()
    }

    /// Attaches an observability journal; each queried depth emits an
    /// `unroll` event with its duration and the solver reports its
    /// restart/reduction/conflict samples into the same journal.
    pub fn set_journal(&mut self, journal: Journal) {
        self.solver.set_journal(journal.clone());
        self.journal = journal;
    }

    /// Number of fully encoded frames (depths `0..frames()` are
    /// queryable).
    pub fn frames(&self) -> usize {
        self.good_lits.len()
    }

    /// Encodes the combinational logic (properties, constraints, next
    /// state) of the latest frame and prepares the next frame's state
    /// variables.
    fn encode_frame_logic(&mut self) {
        let aig = self.sys.aig();
        let t = self.state_vars.len() - 1;
        let mut enc = CnfEncoder::starting_at(self.solver.num_vars());
        for (latch, &v) in aig.latches().iter().zip(&self.state_vars[t]) {
            enc.pin_to(latch.node, v);
        }
        let inputs: Vec<Var> = aig.inputs().iter().map(|&n| enc.pin(n)).collect();
        let goods: Vec<Lit> = self
            .sys
            .properties()
            .iter()
            .map(|p| enc.lit_for(aig, p.good))
            .collect();
        let constraints: Vec<Lit> = self
            .sys
            .constraints()
            .iter()
            .map(|&c| enc.lit_for(aig, c))
            .collect();
        let nexts: Vec<Lit> = aig
            .latches()
            .iter()
            .map(|l| enc.lit_for(aig, l.next))
            .collect();
        let next_vars: Vec<Var> = (0..aig.num_latches()).map(|_| enc.fresh()).collect();
        let cnf = enc.take_new_clauses();
        self.solver.ensure_vars(cnf.num_vars());
        for c in cnf.clauses() {
            self.solver.add_clause(c.lits());
        }
        // Design constraints hold at every step.
        for &c in &constraints {
            self.solver.add_clause(&[c]);
        }
        for (&v, &f) in next_vars.iter().zip(&nexts) {
            self.solver.add_clause(&[v.neg(), f]);
            self.solver.add_clause(&[v.pos(), !f]);
        }
        self.input_vars.push(inputs);
        self.good_lits.push(goods);
        self.state_vars.push(next_vars);
    }

    /// Ensures depth `k` is queryable.
    fn extend_to(&mut self, k: usize) {
        while self.frames() <= k {
            self.encode_frame_logic();
        }
    }

    /// Checks whether some property in `props` can be violated at
    /// exactly depth `k`. Returns the witness on success.
    pub fn check_at(&mut self, props: &[PropertyId], k: usize, budget: Budget) -> BmcResult {
        let started = self.journal.enabled().then(Instant::now);
        let result = self.check_at_inner(props, k, budget);
        if let Some(started) = started {
            self.journal.event(EventKind::Unroll {
                depth: k,
                dur_us: started.elapsed().as_micros() as u64,
            });
        }
        result
    }

    fn check_at_inner(&mut self, props: &[PropertyId], k: usize, budget: Budget) -> BmcResult {
        self.extend_to(k);
        self.solver.set_budget(budget);
        // OR of the bad literals at frame k, via an auxiliary variable.
        let bads: Vec<Lit> = props
            .iter()
            .map(|&p| !self.good_lits[k][p.index()])
            .collect();
        let result = if bads.len() == 1 {
            self.solver.solve(&bads)
        } else {
            let aux = self.solver.new_var();
            let mut clause: Vec<Lit> = vec![aux.neg()];
            clause.extend(&bads);
            self.solver.add_clause(&clause);
            let r = self.solver.solve(&[aux.pos()]);
            // Permanently disable the auxiliary definition.
            self.solver.add_clause(&[aux.neg()]);
            r
        };
        match result {
            SolveResult::Unknown => BmcResult::Unknown(UnknownReason::Budget),
            SolveResult::Unsat => BmcResult::NoCexUpTo(k),
            SolveResult::Sat => {
                let trace = self.extract_trace(k);
                let falsified = self.falsified_at(props, k);
                BmcResult::Cex {
                    cex: Counterexample { depth: k, trace },
                    falsified,
                }
            }
        }
    }

    /// Searches depths `0..=max_depth` in order and returns the first
    /// counterexample, if any.
    pub fn run(&mut self, props: &[PropertyId], max_depth: usize, budget: Budget) -> BmcResult {
        for k in 0..=max_depth {
            match self.check_at(props, k, budget) {
                BmcResult::NoCexUpTo(_) => continue,
                other => return other,
            }
        }
        BmcResult::NoCexUpTo(max_depth)
    }

    /// Solves for the initialized trace that follows the given concrete
    /// stimulus (`inputs[t]` holds one Boolean per design input for
    /// step `t`) and returns it. With every input pinned the unrolling
    /// is deterministic, so the returned trace's latch valuations are
    /// *the* valuations the design reaches — the differential oracle
    /// the simulator is checked against. Returns `None` only if the
    /// stimulus is infeasible (it violates a design constraint).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or any step does not carry exactly
    /// one Boolean per design input.
    pub fn trace_with_stimulus(&mut self, inputs: &[Vec<bool>]) -> Option<Trace> {
        assert!(!inputs.is_empty(), "at least one step of stimulus");
        let k = inputs.len() - 1;
        self.extend_to(k);
        let mut assumptions = Vec::new();
        for (frame, step) in inputs.iter().enumerate() {
            assert_eq!(
                step.len(),
                self.sys.num_inputs(),
                "one Boolean per input at step {frame}"
            );
            for (&var, &bit) in self.input_vars[frame].iter().zip(step) {
                assumptions.push(var.lit(!bit));
            }
        }
        self.solver.set_budget(Budget::unlimited());
        match self.solver.solve(&assumptions) {
            SolveResult::Sat => Some(self.extract_trace(k)),
            _ => None,
        }
    }

    /// The input variables of frames `0..=k` — the *inputs* projection
    /// set: two depth-`k` traces are distinct iff they differ on some
    /// bit of this set (the design is deterministic given its inputs).
    pub fn input_projection(&mut self, k: usize) -> Vec<Var> {
        self.extend_to(k);
        self.input_vars[..=k].iter().flatten().copied().collect()
    }

    /// The frame-`k` state variables of the given latches — the
    /// *latch-support* projection set: distinct assignments are
    /// distinct bad states as seen by a property whose cone reads
    /// exactly those latches.
    pub fn state_projection(&mut self, k: usize, latches: &[usize]) -> Vec<Var> {
        self.extend_to(k);
        latches.iter().map(|&i| self.state_vars[k][i]).collect()
    }

    /// Enumerates counterexamples to `prop` at exactly depth `k`,
    /// distinct on the `projection` variables, up to `max` of them.
    ///
    /// Each found model is blocked with a clause over the projection
    /// set, guarded by a fresh activation literal that is retired when
    /// the round ends — so the unrolling stays warm and unpolluted for
    /// the next property's round (the same re-query discipline the
    /// warm consecution solvers use).
    pub fn enumerate_at(
        &mut self,
        prop: PropertyId,
        k: usize,
        projection: &[Var],
        max: usize,
        budget: Budget,
    ) -> BmcEnumeration {
        self.extend_to(k);
        self.solver.set_budget(budget);
        let act = self.solver.new_var();
        let assumptions = [!self.good_lits[k][prop.index()], act.pos()];
        let mut cexes: Vec<(Counterexample, Vec<bool>)> = Vec::new();
        let mut exhausted = false;
        while cexes.len() < max {
            match self.solver.solve(&assumptions) {
                SolveResult::Sat => {
                    let trace = self.extract_trace(k);
                    let bits: Vec<bool> = projection
                        .iter()
                        .map(|&v| self.solver.model_value(v.pos()).to_bool().unwrap_or(false))
                        .collect();
                    // The blocking clause: differ from this model on
                    // some projection bit. An empty projection has a
                    // single equivalence class, so one witness is all
                    // of them.
                    let block: Vec<Lit> = projection
                        .iter()
                        .zip(&bits)
                        .map(|(&v, &b)| v.lit(b))
                        .collect();
                    cexes.push((Counterexample { depth: k, trace }, bits));
                    if block.is_empty() {
                        exhausted = true;
                        break;
                    }
                    self.solver.add_clause_guarded(act, &block);
                }
                SolveResult::Unsat => {
                    exhausted = true;
                    break;
                }
                SolveResult::Unknown => break,
            }
        }
        self.solver.retire(act);
        self.solver.simplify();
        BmcEnumeration { cexes, exhausted }
    }

    /// Solves "`prop` fails at exactly depth `k`" under the given
    /// random parity constraints — one round of XOR-hash counting.
    /// Each entry of `xors` is a variable subset with a target parity;
    /// all of them are added guarded by one fresh activation literal
    /// and retired before returning, so consecutive rounds never see
    /// each other's constraints.
    pub fn solve_with_parity(
        &mut self,
        prop: PropertyId,
        k: usize,
        xors: &[(Vec<Var>, bool)],
        budget: Budget,
    ) -> SolveResult {
        self.extend_to(k);
        self.solver.set_budget(budget);
        let act = self.solver.new_var();
        for (vars, parity) in xors {
            self.solver.add_xor_guarded(act, vars, *parity);
        }
        let result = self
            .solver
            .solve(&[!self.good_lits[k][prop.index()], act.pos()]);
        self.solver.retire(act);
        self.solver.simplify();
        result
    }

    fn extract_trace(&self, k: usize) -> Trace {
        let value = |v: Var| self.solver.model_value(v.pos()).to_bool().unwrap_or(false);
        let states: Vec<Vec<bool>> = self.state_vars[..=k]
            .iter()
            .map(|vars| vars.iter().map(|&v| value(v)).collect())
            .collect();
        let inputs: Vec<Vec<bool>> = self.input_vars[..=k]
            .iter()
            .map(|vars| vars.iter().map(|&v| value(v)).collect())
            .collect();
        Trace::new(states, inputs)
    }

    fn falsified_at(&self, props: &[PropertyId], k: usize) -> Vec<PropertyId> {
        props
            .iter()
            .copied()
            .filter(|p| {
                self.solver
                    .model_value(self.good_lits[k][p.index()])
                    .is_false()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use japrove_aig::Aig;
    use japrove_tsys::{replay, Word};

    fn counter(bits: usize, limit: u64) -> (TransitionSystem, PropertyId) {
        let mut aig = Aig::new();
        let c = Word::latches(&mut aig, bits, 0);
        let n = c.increment(&mut aig);
        c.set_next(&mut aig, &n);
        let safe = c.lt_const(&mut aig, limit);
        let mut sys = TransitionSystem::new("cnt", aig);
        let p = sys.add_property("bound", safe);
        (sys, p)
    }

    #[test]
    fn finds_cex_at_exact_depth() {
        let (sys, p) = counter(4, 9);
        let mut bmc = Bmc::new(&sys);
        match bmc.run(&[p], 32, Budget::unlimited()) {
            BmcResult::Cex { cex, falsified } => {
                assert_eq!(cex.depth, 9);
                assert_eq!(falsified, vec![p]);
                let r = replay(&sys, &cex.trace).expect("replayable");
                assert!(r.violates_finally(p));
                assert_eq!(r.first_violation(p), Some(9));
            }
            other => panic!("expected cex, got {other:?}"),
        }
    }

    #[test]
    fn reports_no_cex_for_true_property() {
        let (sys, p) = counter(3, 8); // 3-bit counter always < 8
        let mut bmc = Bmc::new(&sys);
        match bmc.run(&[p], 20, Budget::unlimited()) {
            BmcResult::NoCexUpTo(20) => {}
            other => panic!("expected no cex, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_query_reports_all_falsified() {
        let mut aig = Aig::new();
        let c = Word::latches(&mut aig, 3, 0);
        let n = c.increment(&mut aig);
        c.set_next(&mut aig, &n);
        let lt3 = c.lt_const(&mut aig, 3);
        let lt4 = c.lt_const(&mut aig, 4);
        let ne3 = c.eq_const(&mut aig, 3);
        let mut sys = TransitionSystem::new("cnt", aig);
        let p_lt3 = sys.add_property("lt3", lt3);
        let p_lt4 = sys.add_property("lt4", lt4);
        let p_ne3 = sys.add_property("ne3", !ne3);
        let mut bmc = Bmc::new(&sys);
        match bmc.run(&[p_lt3, p_lt4, p_ne3], 10, Budget::unlimited()) {
            BmcResult::Cex { cex, falsified } => {
                // First failure is at depth 3 where lt3 and ne3 both break.
                assert_eq!(cex.depth, 3);
                assert!(falsified.contains(&p_lt3));
                assert!(falsified.contains(&p_ne3));
                assert!(!falsified.contains(&p_lt4));
            }
            other => panic!("expected cex, got {other:?}"),
        }
    }

    #[test]
    fn input_dependent_property_fails_at_depth_zero() {
        let mut aig = Aig::new();
        let req = aig.add_input();
        let l = aig.add_latch(false);
        aig.set_next(l, l);
        let mut sys = TransitionSystem::new("io", aig);
        let p = sys.add_property("req_high", req);
        let mut bmc = Bmc::new(&sys);
        match bmc.run(&[p], 4, Budget::unlimited()) {
            BmcResult::Cex { cex, .. } => {
                assert_eq!(cex.depth, 0);
                let r = replay(&sys, &cex.trace).expect("replayable");
                assert!(r.violates_finally(p));
            }
            other => panic!("expected cex, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let (sys, p) = counter(10, 900);
        let mut bmc = Bmc::new(&sys);
        let res = bmc.run(&[p], 1000, Budget::conflicts(1));
        assert!(matches!(
            res,
            BmcResult::Unknown(UnknownReason::Budget) | BmcResult::Cex { .. }
        ));
    }

    /// `k` latches loaded directly from `k` inputs, with "good" iff
    /// the latch word stays below `bad_from` — so at depth 1 exactly
    /// `2^k - bad_from` distinct bad states are reachable.
    fn loadable(bits: usize, bad_from: u64) -> (TransitionSystem, PropertyId) {
        let mut aig = Aig::new();
        let ins = Word::inputs(&mut aig, bits);
        let w = Word::latches(&mut aig, bits, 0);
        w.set_next(&mut aig, &ins);
        let good = w.lt_const(&mut aig, bad_from);
        let mut sys = TransitionSystem::new("load", aig);
        let p = sys.add_property("below", good);
        (sys, p)
    }

    #[test]
    fn enumeration_is_exhaustive_and_duplicate_free() {
        let (sys, p) = loadable(4, 11); // 16 - 11 = 5 bad states
        let mut bmc = Bmc::new(&sys);
        let proj = bmc.state_projection(1, &sys.latch_support(p));
        let round = bmc.enumerate_at(p, 1, &proj, 64, Budget::unlimited());
        assert!(round.exhausted);
        assert_eq!(round.cexes.len(), 5);
        let mut seen: Vec<&Vec<bool>> = Vec::new();
        for (cex, bits) in &round.cexes {
            assert_eq!(cex.depth, 1);
            let r = replay(&sys, &cex.trace).expect("replayable");
            assert!(r.violates_finally(p));
            assert!(!seen.contains(&bits), "duplicate projection {bits:?}");
            seen.push(bits);
        }
        // The cap is honored and leaves the round unexhausted.
        let capped = bmc.enumerate_at(p, 1, &proj, 2, Budget::unlimited());
        assert_eq!(capped.cexes.len(), 2);
        assert!(!capped.exhausted);
        // Retired rounds leave no blocking behind: a plain re-query
        // still finds a counterexample.
        assert!(bmc.check_at(&[p], 1, Budget::unlimited()).is_cex());
    }

    #[test]
    fn input_projection_separates_distinct_stimuli() {
        let (sys, p) = loadable(2, 3); // bad iff both latch bits set
        let mut bmc = Bmc::new(&sys);
        let proj = bmc.input_projection(1);
        assert_eq!(proj.len(), 2 * 2, "two inputs over two frames");
        let round = bmc.enumerate_at(p, 1, &proj, 64, Budget::unlimited());
        // Frame-0 inputs must both be set; frame-1 inputs are free.
        assert!(round.exhausted);
        assert_eq!(round.cexes.len(), 4);
    }

    #[test]
    fn parity_rounds_halve_and_retire_cleanly() {
        let (sys, p) = loadable(3, 0); // all 8 states bad
        let mut bmc = Bmc::new(&sys);
        let proj = bmc.state_projection(1, &[0, 1, 2]);
        // One XOR over the full projection keeps exactly half the
        // states, for either parity.
        for parity in [false, true] {
            let xors = vec![(proj.clone(), parity)];
            assert_eq!(
                bmc.solve_with_parity(p, 1, &xors, Budget::unlimited()),
                SolveResult::Sat
            );
        }
        // Three independent single-bit "XOR"s pin one exact state;
        // adding the complementary unit makes the round UNSAT.
        let pin: Vec<(Vec<Var>, bool)> = proj.iter().map(|&v| (vec![v], true)).collect();
        assert_eq!(
            bmc.solve_with_parity(p, 1, &pin, Budget::unlimited()),
            SolveResult::Sat
        );
        let mut contradictory = pin.clone();
        contradictory.push((vec![proj[0]], false));
        assert_eq!(
            bmc.solve_with_parity(p, 1, &contradictory, Budget::unlimited()),
            SolveResult::Unsat
        );
        // Rounds retire their constraints: the plain query is still SAT.
        assert!(bmc.check_at(&[p], 1, Budget::unlimited()).is_cex());
    }

    #[test]
    fn design_constraints_restrict_traces() {
        // Counter with constraint "count < 4": the property "count < 6"
        // can then never fail.
        let mut aig = Aig::new();
        let c = Word::latches(&mut aig, 3, 0);
        let n = c.increment(&mut aig);
        c.set_next(&mut aig, &n);
        let lt4 = c.lt_const(&mut aig, 4);
        let lt6 = c.lt_const(&mut aig, 6);
        let mut sys = TransitionSystem::new("cnt", aig);
        sys.add_constraint(lt4);
        let p = sys.add_property("lt6", lt6);
        let mut bmc = Bmc::new(&sys);
        match bmc.run(&[p], 12, Budget::unlimited()) {
            BmcResult::NoCexUpTo(12) => {}
            other => panic!("expected no cex, got {other:?}"),
        }
    }
}
