//! And-Inverter Graphs, AIGER I/O, CNF encoding and simulation.
//!
//! This crate provides the netlist substrate of japrove:
//!
//! * [`Aig`] — a structurally-hashed And-Inverter Graph with inputs,
//!   latches and derived gates (or/xor/mux/...),
//! * [`read_aiger`] / [`write_aiger_ascii`] / [`write_aiger_binary`] —
//!   AIGER 1.9 I/O including the multi-property `B`/`C` sections used
//!   by the HWMCC benchmark suites,
//! * [`CnfEncoder`] — incremental Tseitin encoding of AIG cones,
//! * [`Simulator`] — 64-way bit-parallel simulation (used to replay
//!   and validate counterexample traces),
//! * [`Cone`] — sequential cone-of-influence.
//!
//! # Examples
//!
//! ```
//! use japrove_aig::{Aig, Simulator};
//!
//! let mut aig = Aig::new();
//! let enable = aig.add_input();
//! let bit = aig.add_latch(false);
//! let next = aig.xor(bit, enable);
//! aig.set_next(bit, next);
//!
//! let mut sim = Simulator::new(&aig);
//! sim.step(&aig, &[1]); // enable high in instance 0
//! assert!(sim.value_bit(bit));
//! ```

mod aig;
mod aiger;
mod cnf;
mod coi;
mod sim;

pub use crate::aig::{Aig, AigLit, Latch, Node, NodeId};
pub use crate::aiger::{
    read_aiger, write_aiger_ascii, write_aiger_binary, AigerModel, ParseAigerError,
};
pub use crate::cnf::CnfEncoder;
pub use crate::coi::Cone;
pub use crate::sim::Simulator;

#[cfg(test)]
mod randomized {
    use super::*;
    use japrove_rng::SplitMix64;

    fn inv(l: AigLit, yes: bool) -> AigLit {
        if yes {
            !l
        } else {
            l
        }
    }

    /// A random sequential circuit description we can replay.
    #[derive(Debug, Clone)]
    struct CircuitPlan {
        num_inputs: usize,
        num_latches: usize,
        /// Gate operands as indices into the growing edge pool.
        gates: Vec<(usize, usize, bool, bool)>,
        /// Next-state function per latch: pool index and inversion.
        nexts: Vec<(usize, bool)>,
        outputs: Vec<(usize, bool)>,
    }

    fn random_plan(rng: &mut SplitMix64) -> CircuitPlan {
        let num_inputs = rng.gen_index(1, 4);
        let num_latches = rng.gen_index(1, 4);
        let ng = rng.gen_index(1, 12);
        let pool0 = 1 + num_inputs + num_latches;
        let gates = (0..ng)
            .map(|_| {
                (
                    rng.gen_index(0, pool0),
                    rng.gen_index(0, pool0),
                    rng.gen_bool(),
                    rng.gen_bool(),
                )
            })
            .collect();
        let nexts = (0..num_latches)
            .map(|_| (rng.gen_index(0, pool0 + ng), rng.gen_bool()))
            .collect();
        let outputs = (0..rng.gen_index(1, 3))
            .map(|_| (rng.gen_index(0, pool0 + ng), rng.gen_bool()))
            .collect();
        CircuitPlan {
            num_inputs,
            num_latches,
            gates,
            nexts,
            outputs,
        }
    }

    fn build(plan: &CircuitPlan) -> AigerModel {
        let mut aig = Aig::new();
        let mut pool: Vec<AigLit> = vec![AigLit::TRUE];
        for _ in 0..plan.num_inputs {
            pool.push(aig.add_input());
        }
        let latches: Vec<AigLit> = (0..plan.num_latches)
            .map(|k| aig.add_latch(k % 2 == 0))
            .collect();
        pool.extend(&latches);
        for &(a, b, na, nb) in &plan.gates {
            let ea = inv(pool[a % pool.len()], na);
            let eb = inv(pool[b % pool.len()], nb);
            let g = aig.and(ea, eb);
            pool.push(g);
        }
        for (k, &(n, invert)) in plan.nexts.iter().enumerate() {
            aig.set_next(latches[k], inv(pool[n % pool.len()], invert));
        }
        let outputs = plan
            .outputs
            .iter()
            .map(|&(n, invert)| inv(pool[n % pool.len()], invert))
            .collect();
        AigerModel {
            aig,
            outputs,
            ..AigerModel::default()
        }
    }

    #[test]
    fn aiger_round_trip_preserves_behaviour() {
        for case in 0..128u64 {
            let mut rng = SplitMix64::seed_from_u64(0xa16e_0000 + case);
            let plan = random_plan(&mut rng);
            let seed = rng.next_u64();
            let model = build(&plan);
            for write_binary in [false, true] {
                let mut data = Vec::new();
                if write_binary {
                    write_aiger_binary(&mut data, &model).expect("write");
                } else {
                    write_aiger_ascii(&mut data, &model).expect("write");
                }
                let back = read_aiger(&data).expect("parse");
                assert_eq!(back.outputs.len(), model.outputs.len(), "case {case}");
                // Compare 8 steps of simulation on pseudo-random inputs.
                let mut sa = Simulator::new(&model.aig);
                let mut sb = Simulator::new(&back.aig);
                let mut x = seed | 1;
                for _ in 0..8 {
                    let inputs: Vec<u64> = (0..model.aig.num_inputs())
                        .map(|_| {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            x
                        })
                        .collect();
                    sa.eval(&model.aig, &inputs);
                    sb.eval(&back.aig, &inputs);
                    for (oa, ob) in model.outputs.iter().zip(&back.outputs) {
                        assert_eq!(sa.value(*oa), sb.value(*ob), "case {case}");
                    }
                    sa.step(&model.aig, &inputs);
                    sb.step(&back.aig, &inputs);
                }
            }
        }
    }

    #[test]
    fn cnf_encoding_agrees_with_simulation() {
        use japrove_sat::{SolveResult, Solver};
        for case in 0..128u64 {
            let mut rng = SplitMix64::seed_from_u64(0xc4f0_0000 + case);
            let plan = random_plan(&mut rng);
            let seed = rng.next_u64();
            let model = build(&plan);
            let aig = &model.aig;
            let mut enc = CnfEncoder::new();
            let input_vars: Vec<_> = aig.inputs().iter().map(|&n| enc.pin(n)).collect();
            let latch_vars: Vec<_> = aig.latches().iter().map(|l| enc.pin(l.node)).collect();
            let out_lits: Vec<_> = model.outputs.iter().map(|&o| enc.lit_for(aig, o)).collect();
            let cnf = enc.take_new_clauses();
            let mut solver = Solver::new();
            solver.ensure_vars(cnf.num_vars());
            for c in cnf.clauses() {
                solver.add_clause(c.lits().iter().copied());
            }

            let mut sim = Simulator::new(aig);
            let mut x = seed | 1;
            let inputs: Vec<u64> = (0..aig.num_inputs())
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x
                })
                .collect();
            sim.eval(aig, &inputs);
            // Fix inputs and latch values at bit 0; outputs must match.
            let mut assumptions = Vec::new();
            for (k, v) in input_vars.iter().enumerate() {
                assumptions.push(v.lit(inputs[k] & 1 == 0));
            }
            for (k, v) in latch_vars.iter().enumerate() {
                let reset = aig.latches()[k].reset;
                assumptions.push(v.lit(!reset));
            }
            for (k, &ol) in out_lits.iter().enumerate() {
                let expect = sim.value(model.outputs[k]) & 1 == 1;
                let mut q = assumptions.clone();
                q.push(ol.apply_sign(expect));
                assert_eq!(
                    solver.solve(&q),
                    SolveResult::Unsat,
                    "case {case}: output {k} disagreed with simulation"
                );
            }
        }
    }
}
