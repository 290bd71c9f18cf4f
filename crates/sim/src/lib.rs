//! # ifsyn-sim — discrete-event simulation of specification IR
//!
//! The DAC'94 paper's headline property is that protocol generation yields
//! a *simulatable* refined specification. This crate provides the
//! simulator: a deterministic discrete-event kernel with VHDL-style
//! semantics —
//!
//! * **signals** update at delta boundaries; an *event* is a value change;
//! * **processes** execute sequentially and suspend on `wait` statements;
//! * **time** advances in integer clock cycles; statements carry cycle
//!   costs (from the shared [`ifsyn_estimate::CostModel`]) so the measured
//!   finish time of a process is its execution time in clocks — directly
//!   comparable to the paper's Fig. 7 y-axis.
//!
//! One deliberate deviation from strict VHDL: `wait until` is
//! *level-sensitive* (if the condition already holds, execution continues
//! without waiting for an edge). This removes the lost-wakeup hazard of
//! edge-triggered waits in generated handshake code and matches
//! system-level languages like SpecCharts.
//!
//! ## Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use ifsyn_sim::Simulator;
//! use ifsyn_spec::{System, Stmt, Ty, dsl::*};
//!
//! let mut sys = System::new("demo");
//! let m = sys.add_module("chip");
//! let b = sys.add_behavior("P", m);
//! let x = sys.add_variable("X", Ty::Int(16), b);
//! sys.behavior_mut(b).body = vec![
//!     assign(var(x), int_const(5, 16)),
//!     Stmt::compute(9, "work"),
//! ];
//!
//! let report = Simulator::new(&sys)?.run_to_quiescence()?;
//! assert_eq!(report.finish_time(b), Some(10)); // 1 assign + 9 compute
//! assert_eq!(report.final_variable(x).as_i64()?, 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod config;
mod diagnose;
mod error;
mod eval;
mod exec;
mod fault;
mod interp;
mod kernel;
mod process;
mod program;
mod report;

pub mod analysis;
pub mod trace;
pub mod vcd;

pub use check::{
    BoundedInfo, CheckConfig, CheckStats, Checker, Counterexample, EnvFault, PropertyReport,
    StateSpace, StateView, Verdict,
};
pub use config::SimConfig;
pub use diagnose::{BlockedWait, DeadlockDiagnosis};
pub use error::SimError;
pub use exec::{ExprCode, MicroOp, Src};
pub use fault::{Fault, FaultKind, FaultPlan, InjectedFault};
pub use kernel::Simulator;
pub use program::{Code, CodeCache, CompiledCond, Instr, Program, WaitSpec};
pub use report::{SimReport, TraceEvent};

/// Test-support surface: evaluate one expression through each engine.
///
/// Exists so the differential property test in `tests/` can compare the
/// production bytecode pipeline against the reference tree-walker without
/// the crate exposing its evaluation internals as real API.
#[doc(hidden)]
pub mod testing {
    use ifsyn_spec::{Expr, System, Value};

    use crate::error::SimError;
    use crate::eval::{self, EvalCtx};
    use crate::exec::{self, RegFile};
    use crate::program;

    /// Evaluates `expr` with the reference tree-walking interpreter in a
    /// frameless (behavior-scope) context over the given storage.
    pub fn eval_tree(
        system: &System,
        vars: &[Value],
        signals: &[Value],
        expr: &Expr,
    ) -> Result<Value, SimError> {
        let _ = system;
        let ctx = EvalCtx {
            vars,
            signals,
            locals: &[],
        };
        eval::eval(&ctx, expr).map(|e| e.into_owned())
    }

    /// Evaluates `expr` through the production pipeline: constant fold,
    /// compile to register bytecode, execute with a fresh register file.
    pub fn eval_bytecode(
        system: &System,
        vars: &[Value],
        signals: &[Value],
        expr: &Expr,
    ) -> Result<Value, SimError> {
        let code = program::fold_and_compile(system, expr);
        let ctx = EvalCtx {
            vars,
            signals,
            locals: &[],
        };
        let mut regs = RegFile::new();
        exec::eval_code(&ctx, &code, &mut regs).cloned()
    }
}
