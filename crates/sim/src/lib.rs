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
pub mod vcd;

pub use check::{
    BoundedInfo, CheckConfig, CheckStats, Checker, Counterexample, EnvFault, PropertyReport,
    SignalView, StateSpace, StateView, Verdict,
};
pub use config::SimConfig;
pub use diagnose::{BlockedWait, DeadlockDiagnosis};
pub use error::SimError;
pub use exec::{Cond, IntArg, Slot};
pub use fault::{Fault, FaultKind, FaultPlan, InjectedFault};
pub use kernel::Simulator;
pub use program::{Code, CodeCache, Instr, Program, Until, WaitSpec};
pub use report::{SimReport, TraceEvent};

/// Test-support surface: evaluate one expression each way it can run.
///
/// Exists so the differential property test in `tests/` can compare the
/// production pipeline (constant folding, then the tree walk or a typed
/// condition) against the tree walk of the unfolded expression without
/// the crate exposing its evaluation internals as real API.
#[doc(hidden)]
pub mod testing {
    use ifsyn_spec::{Expr, System, Value};

    use crate::error::SimError;
    use crate::eval::{self, EvalCtx};
    use crate::process::CodeRef;
    use crate::program;

    /// The storage one evaluation sees: system variables and signals, and
    /// the local slots of a frame of `procedure` (`None`: a behavior body,
    /// with no locals).
    #[derive(Debug, Clone, Copy)]
    pub struct Scope<'a> {
        /// Variable values, indexed like `System::variables`.
        pub vars: &'a [Value],
        /// Signal values, indexed like `System::signals`.
        pub signals: &'a [Value],
        /// The procedure whose frame the evaluation runs in.
        pub procedure: Option<usize>,
        /// That frame's local slots, parameters first.
        pub locals: &'a [Value],
    }

    impl<'a> Scope<'a> {
        fn ctx(&self) -> EvalCtx<'a> {
            EvalCtx {
                vars: self.vars,
                signals: self.signals,
                locals: self.locals,
            }
        }
    }

    /// Evaluates `expr` as written, with the tree walker and no folding.
    pub fn eval_tree(scope: Scope<'_>, expr: &Expr) -> Result<Value, SimError> {
        eval::eval(&scope.ctx(), expr)
            .map(|e| e.into_owned())
            .map_err(|e| *e)
    }

    /// Evaluates `expr` through the production pipeline: constant fold,
    /// then the tree walk of the folded expression.
    pub fn eval_folded(scope: Scope<'_>, expr: &Expr) -> Result<Value, SimError> {
        eval_tree(scope, &program::fold_expr(expr))
    }

    /// Evaluates `expr` as a branch condition: constant fold, compile to
    /// a [`crate::Cond`] in the scope's block, evaluate to `bool`.
    pub fn eval_cond(system: &System, scope: Scope<'_>, expr: &Expr) -> Result<bool, SimError> {
        let block = scope
            .procedure
            .map_or(CodeRef::Behavior(0), CodeRef::Procedure);
        let cond = program::compile_cond(system, block, &program::fold_expr(expr));
        cond.eval(&scope.ctx()).map_err(|e| *e)
    }
}
