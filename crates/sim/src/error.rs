//! Error type for simulation and model checking.

use std::error::Error;
use std::fmt;

use crate::diagnose::DeadlockDiagnosis;

/// Errors produced while compiling or running a simulation, or while
/// exploring a model checker's state space.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The specification failed validation before simulation.
    InvalidSystem {
        /// The underlying validation message.
        message: String,
    },
    /// A process executed too many zero-time instructions in one
    /// activation (a combinational loop or a `while true` without waits).
    ZeroDelayLoop {
        /// Name of the offending behavior.
        behavior: String,
        /// Simulation time at which the loop was detected.
        time: u64,
    },
    /// Too many delta cycles elapsed without time advancing (processes
    /// exchanging zero-delay signal writes forever).
    DeltaOverflow {
        /// Simulation time at which the overflow was detected.
        time: u64,
    },
    /// Simulation time exceeded [`crate::SimConfig::max_time`].
    Timeout {
        /// The configured limit.
        max_time: u64,
        /// Which processes were suspended on waits when the limit was
        /// hit; `None` when nothing was blocked (the system was simply
        /// still making progress).
        diagnosis: Option<Box<DeadlockDiagnosis>>,
    },
    /// The system went quiescent with non-repeating processes still
    /// suspended on waits that no remaining event can satisfy. Only
    /// raised when [`crate::SimConfig::fail_on_deadlock`] is set.
    Deadlock {
        /// Per-process wait diagnosis, including wait-for cycles.
        diagnosis: Box<DeadlockDiagnosis>,
    },
    /// A runtime evaluation error (type mismatch, index out of range).
    Eval {
        /// Human-readable description including the evaluation site.
        message: String,
    },
    /// A specification assertion evaluated false.
    AssertionFailed {
        /// The behavior whose assertion failed.
        behavior: String,
        /// The assertion's diagnostic note.
        note: String,
        /// Simulation time of the failure.
        time: u64,
    },
    /// The model checker found more reachable states than its hard cap
    /// of 2^18 allows. A capacity limit,
    /// not a fault in the system: a state budget
    /// ([`crate::CheckConfig::with_state_limit`]) lifts the cap.
    StateCapExceeded {
        /// The cap that was exceeded.
        max_states: usize,
    },
    /// One model-checker transition consumed more cycles than a stored
    /// transition records (`u32::MAX`); a watchdog bound
    /// (`wait ... for N`) that large expires in one transition.
    TransitionCostOverflow {
        /// The behavior whose run it was.
        behavior: String,
        /// The run's cost in cycles.
        cost: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidSystem { message } => {
                write!(f, "invalid system: {message}")
            }
            SimError::ZeroDelayLoop { behavior, time } => {
                write!(f, "zero-delay loop in behavior `{behavior}` at time {time}")
            }
            SimError::DeltaOverflow { time } => {
                write!(f, "delta cycle overflow at time {time}")
            }
            SimError::Timeout {
                max_time,
                diagnosis,
            } => {
                write!(f, "simulation exceeded max time of {max_time} cycles")?;
                if let Some(d) = diagnosis {
                    write!(f, "; {}", d.to_string().trim_end())?;
                }
                Ok(())
            }
            SimError::Deadlock { diagnosis } => {
                write!(f, "{}", diagnosis.to_string().trim_end())
            }
            SimError::Eval { message } => write!(f, "evaluation error: {message}"),
            SimError::AssertionFailed {
                behavior,
                note,
                time,
            } => write!(
                f,
                "assertion failed in behavior `{behavior}` at time {time}: {note}"
            ),
            SimError::StateCapExceeded { max_states } => {
                write!(f, "reachable state space exceeds {max_states} states")
            }
            SimError::TransitionCostOverflow { behavior, cost } => write!(
                f,
                "a transition of `{behavior}` costs {cost} cycles; the checker \
                 records at most {} cycles per transition",
                u32::MAX
            ),
        }
    }
}

impl Error for SimError {}

/// The interpreter's error: a [`SimError`] behind one pointer.
///
/// Every instruction, expression and wait check returns a `Result`; with
/// the seven-word `SimError` inline, each success travels through a
/// seven-word return slot. Boxed, the success path stays one word. The
/// engines unbox it where a run hands its result to the public API.
pub(crate) type RunError = Box<SimError>;

/// A boxed [`SimError::Eval`].
pub(crate) fn eval_error(message: impl Into<String>) -> RunError {
    Box::new(SimError::eval(message))
}

impl SimError {
    /// Convenience constructor for evaluation errors.
    pub fn eval(message: impl Into<String>) -> Self {
        SimError::Eval {
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = SimError::ZeroDelayLoop {
            behavior: "P".into(),
            time: 7,
        };
        assert!(e.to_string().contains("`P`"));
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SimError>();
    }
}
