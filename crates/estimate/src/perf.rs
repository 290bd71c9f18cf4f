//! Analytic process execution-time estimation (the paper's reference \[10\]).

use std::collections::HashMap;

use ifsyn_spec::{BehaviorId, ChannelId, Expr, Stmt, System, Value, WaitCond};

use crate::cost::CostModel;
use crate::error::EstimateError;
use crate::timing::ChannelTimings;

/// The result of estimating one behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorEstimate {
    /// Estimated execution time of one pass over the body, in clocks.
    pub cycles: u64,
    /// Channel accesses performed during one pass, per channel.
    pub channel_accesses: HashMap<ChannelId, u64>,
    /// Modelling assumptions taken while estimating (unbounded loops,
    /// synchronisation waits, ...). Empty means the estimate is exact
    /// with respect to the cost model.
    pub assumptions: Vec<String>,
}

impl BehaviorEstimate {
    /// Total bits this behavior moves over `channel` during one pass,
    /// given the channel's message size.
    pub fn bits_on(&self, channel: ChannelId, message_bits: u32) -> u64 {
        self.channel_accesses.get(&channel).copied().unwrap_or(0) * u64::from(message_bits)
    }
}

/// Walks behavior bodies and totals clock cycles under a [`CostModel`],
/// pricing channel accesses with [`ChannelTimings`].
///
/// # Example
///
/// ```
/// use ifsyn_estimate::{PerformanceEstimator, ChannelTimings};
/// use ifsyn_spec::{System, Stmt, Ty};
///
/// let mut sys = System::new("demo");
/// let m = sys.add_module("chip");
/// let b = sys.add_behavior("P", m);
/// sys.behavior_mut(b).body.push(Stmt::compute(100, "work"));
///
/// let est = PerformanceEstimator::new()
///     .estimate(&sys, b, &ChannelTimings::new())
///     .unwrap();
/// assert_eq!(est.cycles, 100);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PerformanceEstimator;

/// The statement costs the estimator charges: the simulator's model.
const COSTS: CostModel = CostModel::new();

/// Cycles assumed for a synchronisation wait of unknown duration.
const SYNC_WAIT_CYCLES: u64 = 1;

impl PerformanceEstimator {
    /// Creates an estimator with the default cost model.
    pub fn new() -> Self {
        Self
    }

    /// Estimates one pass over `behavior`'s body.
    ///
    /// Channel accesses found in the body are priced by `timings`;
    /// channels missing from the map cost
    /// [`CostModel::abstract_channel_cycles`].
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::UnknownBehavior`] for an out-of-range id.
    pub fn estimate(
        &self,
        system: &System,
        behavior: BehaviorId,
        timings: &ChannelTimings,
    ) -> Result<BehaviorEstimate, EstimateError> {
        if behavior.index() >= system.behaviors.len() {
            return Err(EstimateError::UnknownBehavior { id: behavior });
        }
        let mut est = BehaviorEstimate {
            cycles: 0,
            channel_accesses: HashMap::new(),
            assumptions: Vec::new(),
        };
        est.cycles = self.walk(
            system,
            &system.behavior(behavior).body,
            timings,
            &mut est,
            0,
        )?;
        Ok(est)
    }

    fn channel_access_cycles(
        &self,
        system: &System,
        channel: ChannelId,
        timings: &ChannelTimings,
    ) -> u64 {
        match timings.get(channel) {
            Some(t) => t.cycles_per_access(system.channel(channel).message_bits()),
            None => u64::from(COSTS.abstract_channel_cycles),
        }
    }

    fn walk(
        &self,
        system: &System,
        body: &[Stmt],
        timings: &ChannelTimings,
        est: &mut BehaviorEstimate,
        depth: u32,
    ) -> Result<u64, EstimateError> {
        if depth > 64 {
            return Err(EstimateError::RecursionLimit);
        }
        let mut cycles = 0u64;
        for stmt in body {
            cycles += match stmt {
                Stmt::Assign { cost, .. } => u64::from(cost.unwrap_or(COSTS.assign_cycles)),
                Stmt::SignalAssign { cost, .. } => {
                    u64::from(cost.unwrap_or(COSTS.signal_assign_cycles))
                }
                Stmt::Compute { cycles, .. } => *cycles,
                Stmt::Wait(WaitCond::ForCycles(n)) => *n,
                Stmt::Wait(_) => {
                    if est.assumptions.is_empty()
                        || !est.assumptions.iter().any(|a| a.contains("sync wait"))
                    {
                        est.assumptions
                            .push(format!("sync wait assumed {SYNC_WAIT_CYCLES} cycle(s)"));
                    }
                    SYNC_WAIT_CYCLES
                }
                Stmt::If {
                    cond: _,
                    then_body,
                    else_body,
                } => {
                    // Worst case over the two branches.
                    let t = self.walk(system, then_body, timings, est, depth + 1)?;
                    let e = self.walk(system, else_body, timings, est, depth + 1)?;
                    t.max(e)
                }
                Stmt::For { from, to, body, .. } => {
                    let iters = match (const_eval(from), const_eval(to)) {
                        (Some(a), Some(b)) if b >= a => (b - a + 1) as u64,
                        (Some(_), Some(_)) => 0,
                        _ => {
                            est.assumptions.push(
                                "for-loop with non-constant bounds assumed 1 iteration".into(),
                            );
                            1
                        }
                    };
                    iters * self.scaled_walk(system, body, timings, est, depth, iters)?
                }
                Stmt::While { body, .. } => {
                    est.assumptions
                        .push("while-loop assumed 1 iteration".into());
                    self.walk(system, body, timings, est, depth + 1)?
                }
                Stmt::Call { procedure, args: _ } => {
                    let p = system.procedure(*procedure);
                    self.walk(system, &p.body, timings, est, depth + 1)?
                }
                Stmt::ChannelSend { channel, .. } | Stmt::ChannelReceive { channel, .. } => {
                    *est.channel_accesses.entry(*channel).or_insert(0) += 1;
                    self.channel_access_cycles(system, *channel, timings)
                }
                Stmt::Assert { .. } => 0,
                Stmt::Return => 0,
            };
        }
        Ok(cycles)
    }

    /// Walks a loop body once for cycle counting, but records channel
    /// accesses `iters` times (each iteration really performs them).
    fn scaled_walk(
        &self,
        system: &System,
        body: &[Stmt],
        timings: &ChannelTimings,
        est: &mut BehaviorEstimate,
        depth: u32,
        iters: u64,
    ) -> Result<u64, EstimateError> {
        let before: HashMap<ChannelId, u64> = est.channel_accesses.clone();
        let cycles = self.walk(system, body, timings, est, depth + 1)?;
        if iters != 1 {
            for (ch, after) in est.channel_accesses.iter_mut() {
                let base = before.get(ch).copied().unwrap_or(0);
                let delta = *after - base;
                *after = base + delta * iters;
            }
        }
        Ok(cycles)
    }
}

/// Evaluates an expression to a constant integer if possible.
fn const_eval(expr: &Expr) -> Option<i64> {
    match expr {
        Expr::Const(v) => match v {
            Value::Int { value, .. } => Some(*value),
            Value::Bit(b) => Some(*b as i64),
            Value::Bits(bv) => Some(bv.to_u64() as i64),
            Value::Array(_) => None,
        },
        Expr::Binary { op, lhs, rhs } => {
            use ifsyn_spec::BinOp::*;
            let a = const_eval(lhs)?;
            let b = const_eval(rhs)?;
            match op {
                Add => Some(a.wrapping_add(b)),
                Sub => Some(a.wrapping_sub(b)),
                Mul => Some(a.wrapping_mul(b)),
                Div => Some(if b == 0 { 0 } else { a / b }),
                Rem => Some(if b == 0 { 0 } else { a % b }),
                Min => Some(a.min(b)),
                Max => Some(a.max(b)),
                _ => None,
            }
        }
        Expr::Unary { op, arg } => {
            let a = const_eval(arg)?;
            match op {
                ifsyn_spec::UnaryOp::Neg => Some(-a),
                ifsyn_spec::UnaryOp::Not => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsyn_spec::dsl::*;
    use ifsyn_spec::{Channel, ChannelDirection, Ty};

    use crate::timing::BusTiming;

    fn system_with_loop(iters: i64, sends_per_iter: usize) -> (System, BehaviorId, ChannelId) {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let mem_owner = sys.add_behavior("MEMPROC", m);
        let v = sys.add_variable("MEM", Ty::array(Ty::Int(16), 128), mem_owner);
        let i = sys.add_variable("i", Ty::Int(16), b);
        let ch = sys.add_channel(Channel {
            name: "ch1".into(),
            accessor: b,
            variable: v,
            direction: ChannelDirection::Write,
            data_bits: 16,
            addr_bits: 7,
            accesses: iters as u64 * sends_per_iter as u64,
        });
        let mut body = Vec::new();
        for _ in 0..sends_per_iter {
            body.push(send_at(ch, load(var(i)), int_const(0, 16)));
        }
        sys.behavior_mut(b).body.push(for_loop(
            var(i),
            int_const(0, 16),
            int_const(iters - 1, 16),
            body,
        ));
        (sys, b, ch)
    }

    #[test]
    fn straight_line_costs_sum() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let x = sys.add_variable("X", Ty::Int(16), b);
        sys.behavior_mut(b).body = vec![
            assign(var(x), int_const(1, 16)),
            assign_cost(var(x), int_const(2, 16), 5),
            Stmt::compute(10, "work"),
        ];
        let est = PerformanceEstimator::new()
            .estimate(&sys, b, &ChannelTimings::new())
            .unwrap();
        assert_eq!(est.cycles, 1 + 5 + 10);
        assert!(est.assumptions.is_empty());
    }

    #[test]
    fn loop_multiplies_body() {
        let (sys, b, ch) = system_with_loop(128, 1);
        // Ideal channel: 1 cycle per access -> 128 cycles.
        let est = PerformanceEstimator::new()
            .estimate(&sys, b, &ChannelTimings::new())
            .unwrap();
        assert_eq!(est.cycles, 128);
        assert_eq!(est.channel_accesses[&ch], 128);
    }

    #[test]
    fn bus_timing_prices_channel_accesses() {
        let (sys, b, ch) = system_with_loop(128, 1);
        // 23-bit messages over an 8-bit handshake bus: 3 words x 2 clk = 6.
        let timings = ChannelTimings::uniform(&[ch], BusTiming::new(8, 2));
        let est = PerformanceEstimator::new()
            .estimate(&sys, b, &timings)
            .unwrap();
        assert_eq!(est.cycles, 128 * 6);
    }

    #[test]
    fn nested_channel_counts_scale_by_loop() {
        let (sys, b, ch) = system_with_loop(10, 3);
        let est = PerformanceEstimator::new()
            .estimate(&sys, b, &ChannelTimings::new())
            .unwrap();
        assert_eq!(est.channel_accesses[&ch], 30);
        assert_eq!(est.bits_on(ch, 23), 30 * 23);
    }

    #[test]
    fn if_takes_worst_case_branch() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        sys.behavior_mut(b).body = vec![if_else(
            bit_const(true),
            vec![Stmt::compute(3, "short")],
            vec![Stmt::compute(9, "long")],
        )];
        let est = PerformanceEstimator::new()
            .estimate(&sys, b, &ChannelTimings::new())
            .unwrap();
        assert_eq!(est.cycles, 9);
    }

    #[test]
    fn while_loop_records_assumption() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        sys.behavior_mut(b).body = vec![while_loop(bit_const(false), vec![Stmt::compute(2, "x")])];
        let est = PerformanceEstimator::new()
            .estimate(&sys, b, &ChannelTimings::new())
            .unwrap();
        assert_eq!(est.cycles, 2);
        assert!(!est.assumptions.is_empty());
    }

    #[test]
    fn empty_for_loop_is_zero() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let i = sys.add_variable("i", Ty::Int(16), b);
        sys.behavior_mut(b).body = vec![for_loop(
            var(i),
            int_const(5, 16),
            int_const(0, 16),
            vec![Stmt::compute(100, "never")],
        )];
        let est = PerformanceEstimator::new()
            .estimate(&sys, b, &ChannelTimings::new())
            .unwrap();
        assert_eq!(est.cycles, 0);
    }

    #[test]
    fn unknown_behavior_errors() {
        let sys = System::new("t");
        let r =
            PerformanceEstimator::new().estimate(&sys, BehaviorId::new(3), &ChannelTimings::new());
        assert!(matches!(r, Err(EstimateError::UnknownBehavior { .. })));
    }

    #[test]
    fn const_eval_arithmetic() {
        let e = mul(add(int_const(2, 8), int_const(3, 8)), int_const(4, 8));
        assert_eq!(const_eval(&e), Some(20));
        assert_eq!(const_eval(&load(var(ifsyn_spec::VarId::new(0)))), None);
    }

    #[test]
    fn wait_for_cycles_is_exact() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        sys.behavior_mut(b).body = vec![wait_cycles(42)];
        let est = PerformanceEstimator::new()
            .estimate(&sys, b, &ChannelTimings::new())
            .unwrap();
        assert_eq!(est.cycles, 42);
        assert!(est.assumptions.is_empty());
    }
}
