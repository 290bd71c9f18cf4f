//! Area estimation (the other half of the paper's reference \[10\],
//! "Area and performance estimation from system-level specifications").
//!
//! A coarse FSMD (FSM + datapath) model, enough to expose the *area
//! side* of interface-synthesis trade-offs: protocol generation adds
//! controller states (the handshake sequencing) and registers (message
//! buffers) in exchange for fewer wires; the estimator makes that
//! visible.
//!
//! Model:
//!
//! * every statement that consumes time (assignment, signal assignment,
//!   wait, channel access, compute block) occupies one **controller
//!   state**; control logic costs [`AreaModel::gates_per_state`] gates
//!   per state;
//! * every variable bit is a **register bit** costing
//!   [`AreaModel::gates_per_register_bit`] gates;
//! * interconnect costs [`AreaModel::gates_per_wire`] gate-equivalents
//!   per bus wire (drivers/receivers).

use ifsyn_spec::{BehaviorId, Stmt, System};

use crate::error::EstimateError;

/// Gate-cost coefficients of the FSMD area model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Gate equivalents per controller state.
    pub gates_per_state: f64,
    /// Gate equivalents per register bit.
    pub gates_per_register_bit: f64,
    /// Gate equivalents per bus wire (driver + receiver).
    pub gates_per_wire: f64,
}

impl AreaModel {
    /// Default coefficients (typical standard-cell ballpark: a state
    /// costs ~10 gates of next-state/output logic, a register bit ~6, a
    /// pad/driver pair ~20).
    pub fn new() -> Self {
        Self {
            gates_per_state: 10.0,
            gates_per_register_bit: 6.0,
            gates_per_wire: 20.0,
        }
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::new()
    }
}

/// The estimated area of one behavior (or a whole system).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaEstimate {
    /// Controller states.
    pub states: u64,
    /// Register bits.
    pub register_bits: u64,
    /// Gate-equivalent total under the model used.
    pub gates: f64,
}

impl AreaEstimate {
    /// Combines two estimates (e.g. summing over behaviors).
    pub fn merged(self, other: AreaEstimate) -> AreaEstimate {
        AreaEstimate {
            states: self.states + other.states,
            register_bits: self.register_bits + other.register_bits,
            gates: self.gates + other.gates,
        }
    }
}

/// Estimates FSMD area of behaviors and systems.
#[derive(Debug, Clone, Default)]
pub struct AreaEstimator {
    model: AreaModel,
}

impl AreaEstimator {
    /// Creates an estimator with the default model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Estimates the area of one behavior: its controller states plus
    /// the registers of the variables it owns.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::UnknownBehavior`] for an out-of-range id.
    pub fn estimate_behavior(
        &self,
        system: &System,
        behavior: BehaviorId,
    ) -> Result<AreaEstimate, EstimateError> {
        if behavior.index() >= system.behaviors.len() {
            return Err(EstimateError::UnknownBehavior { id: behavior });
        }
        let mut states = 0u64;
        count_states(&system.behavior(behavior).body, &mut states);
        // Procedures called from this behavior contribute their states
        // once (shared controller / subroutine sharing).
        let mut called: Vec<usize> = Vec::new();
        collect_calls(system, &system.behavior(behavior).body, &mut called);
        for p in called {
            count_states(&system.procedures[p].body, &mut states);
        }
        let register_bits: u64 = system
            .variables
            .iter()
            .filter(|v| v.owner == behavior)
            .map(|v| u64::from(v.ty.bit_width()))
            .sum();
        Ok(self.finish(states, register_bits))
    }

    /// Estimates the whole system (sum over behaviors) plus `bus_wires`
    /// of interconnect.
    ///
    /// # Errors
    ///
    /// Propagates behavior-estimation errors.
    pub fn estimate_system(
        &self,
        system: &System,
        bus_wires: u32,
    ) -> Result<AreaEstimate, EstimateError> {
        let mut total = AreaEstimate::default();
        for i in 0..system.behaviors.len() {
            total = total.merged(self.estimate_behavior(system, BehaviorId::new(i as u32))?);
        }
        total.gates += f64::from(bus_wires) * self.model.gates_per_wire;
        Ok(total)
    }

    fn finish(&self, states: u64, register_bits: u64) -> AreaEstimate {
        AreaEstimate {
            states,
            register_bits,
            gates: states as f64 * self.model.gates_per_state
                + register_bits as f64 * self.model.gates_per_register_bit,
        }
    }
}

/// Counts controller states: one per time-consuming statement.
fn count_states(body: &[Stmt], states: &mut u64) {
    for stmt in body {
        match stmt {
            Stmt::Assign { .. }
            | Stmt::SignalAssign { .. }
            | Stmt::Wait(_)
            | Stmt::ChannelSend { .. }
            | Stmt::ChannelReceive { .. }
            | Stmt::Compute { .. } => *states += 1,
            _ => {}
        }
        for inner in stmt.bodies() {
            count_states(inner, states);
        }
    }
}

fn collect_calls(system: &System, body: &[Stmt], out: &mut Vec<usize>) {
    ifsyn_spec::visit::for_each_stmt(body, &mut |s| {
        if let Stmt::Call { procedure, .. } = s {
            if !out.contains(&procedure.index()) {
                out.push(procedure.index());
                // Transitive calls (procedures calling procedures).
                let inner = system.procedures[procedure.index()].body.clone();
                collect_calls(system, &inner, out);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsyn_spec::dsl::*;
    use ifsyn_spec::{Arg, ParamMode, Procedure, Ty};

    fn rig() -> (System, BehaviorId) {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let x = sys.add_variable("x", Ty::Bits(16), b);
        let i = sys.add_variable("i", Ty::Int(8), b);
        sys.behavior_mut(b).body = vec![
            assign(var(x), bits_const(0, 16)),
            for_loop(
                var(i),
                int_const(0, 8),
                int_const(3, 8),
                vec![Stmt::compute(2, "w")],
            ),
        ];
        (sys, b)
    }

    #[test]
    fn states_count_time_consuming_statements() {
        let (sys, b) = rig();
        let est = AreaEstimator::new().estimate_behavior(&sys, b).unwrap();
        // assign + compute (loop body counted once: shared state).
        assert_eq!(est.states, 2);
        assert_eq!(est.register_bits, 16 + 8);
    }

    #[test]
    fn gates_follow_the_model() {
        let (sys, b) = rig();
        let model = AreaModel {
            gates_per_state: 100.0,
            gates_per_register_bit: 1.0,
            gates_per_wire: 0.0,
        };
        let est = AreaEstimator { model }.estimate_behavior(&sys, b).unwrap();
        assert_eq!(est.gates, 2.0 * 100.0 + 24.0);
    }

    #[test]
    fn called_procedures_count_once() {
        let (mut sys, b) = rig();
        let mut p = Procedure::new("helper");
        p.add_param("a", Ty::Bits(8), ParamMode::In);
        p.body = vec![
            assign(local(0), bits_const(1, 8)),
            assign(local(0), bits_const(2, 8)),
        ];
        let pid = sys.add_procedure(p);
        sys.behavior_mut(b)
            .body
            .push(call(pid, vec![Arg::In(bits_const(0, 8))]));
        sys.behavior_mut(b)
            .body
            .push(call(pid, vec![Arg::In(bits_const(1, 8))]));
        let est = AreaEstimator::new().estimate_behavior(&sys, b).unwrap();
        // 2 original states + 2 from the procedure, shared across calls.
        assert_eq!(est.states, 4);
    }

    #[test]
    fn system_estimate_adds_wires() {
        let (sys, _) = rig();
        let without = AreaEstimator::new().estimate_system(&sys, 0).unwrap();
        let with = AreaEstimator::new().estimate_system(&sys, 10).unwrap();
        assert!(with.gates > without.gates);
        assert_eq!(with.states, without.states);
    }

    #[test]
    fn unknown_behavior_errors() {
        let (sys, _) = rig();
        assert!(AreaEstimator::new()
            .estimate_behavior(&sys, BehaviorId::new(9))
            .is_err());
    }

    #[test]
    fn merged_adds_componentwise() {
        let a = AreaEstimate {
            states: 1,
            register_bits: 2,
            gates: 3.0,
        };
        let b = AreaEstimate {
            states: 10,
            register_bits: 20,
            gates: 30.0,
        };
        let m = a.merged(b);
        assert_eq!(m.states, 11);
        assert_eq!(m.register_bits, 22);
        assert_eq!(m.gates, 33.0);
    }
}
