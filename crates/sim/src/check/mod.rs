//! Explicit-state model checking of specification IR.
//!
//! The simulator executes *one* schedule; the checker executes *all* of
//! them. It runs the same compiled [`Program`] through the same
//! instruction interpreter as the kernel, but under a nondeterministic
//! scheduler and an optional adversarial fault environment, enumerating
//! every reachable system state by breadth-first exploration. Over the
//! explored graph it decides:
//!
//! * **invariants** — a predicate over signals holds in every reachable
//!   state (e.g. bus grant mutual exclusion);
//! * **terminal properties** — a predicate over signals and variables
//!   holds in every quiescent state (e.g. no run ends with silently
//!   corrupted data). A path on which a
//!   process *crashes* — a runtime evaluation error such as a
//!   fault-corrupted address indexing past an array — is recorded as an
//!   error edge and fails every terminal property with the crashing trace
//!   as counterexample, rather than aborting the exploration;
//! * **leads-to properties** — from every reachable state satisfying a
//!   premise over signals, some continuation reaches the goal (`AG(premise
//!   → EF goal)`). This is "eventually, under scheduler fairness": a violation
//!   is a reachable state from which the goal is *unreachable on every
//!   continuation* — precisely the unrecoverable-request shape, not a mere
//!   unfortunate schedule;
//! * **completion bounds** — the maximum total cycle cost over all
//!   maximal paths ([`StateSpace::worst_cost_to_quiescence`]), turning
//!   the hardened protocols' "completes or aborts within N cycles" claim
//!   into a checked theorem (`None` = a cycle exists and no bound does).
//!
//! ## Abstraction
//!
//! States are time-abstracted: a state is the storage (signals,
//! variables), the control point of every process (frames, pcs, locals,
//! loop bounds) and the remaining fault budgets — but no clock. A
//! transition runs one process *atomically* from its current control
//! point up to its next cycle-consuming instruction (or blocking wait),
//! with the elapsed cycles recorded as the transition's cost. Signal
//! writes become visible immediately instead of at the next delta; the
//! reorderings the delta queue can produce are covered by the scheduler's
//! interleaving nondeterminism, so the checker over-approximates the
//! kernel's schedules. One refinement keeps the over-approximation from
//! inventing impossible misses: the kernel's event loop wakes *every*
//! waiter on a signal the instant it changes, so no waiter can sleep
//! through a pulse — the checker mirrors this by **eagerly releasing**
//! waiters after every transition (any process parked at a
//! level-sensitive wait whose condition now holds is advanced past it
//! without waiting to be scheduled). Without this, plain interleaving
//! lets an unscheduled process miss a brief `START` low phase between
//! two back-to-back bus words — a spurious deadlock the synchronous
//! kernel can never exhibit. Two further deliberate choices:
//!
//! * **watchdogs fire only at global stalls** — a `wait ... for N` expires
//!   exactly when no process can otherwise move, modelling the watchdog's
//!   role (escape from permanent blocking) without a clock;
//! * **faults are environment transitions** — each configured
//!   [`EnvFault`] may strike between any two process steps, budgeted in
//!   the state so the exploration stays finite. Fault transitions do not
//!   count against quiescence: a state that is deadlocked unless *another*
//!   fault strikes is a real deadlock.
//!
//! ## Scaling
//!
//! The exploration core is built to reach state counts two orders of
//! magnitude beyond the seed explorer (see `docs/ROBUSTNESS.md` for the
//! soundness arguments and `docs/PERFORMANCE.md` for numbers):
//!
//! * **compact states** — reachable states are stored as four interned
//!   component ids (16 bytes) instead of full deep clones. Every
//!   component pool and the visited set index their keys through one
//!   open-addressing table of `u32` ids, so a lookup allocates nothing
//!   and a stored state costs its id, not a boxed copy; fixed-length
//!   components (signal valuations, group-id and control-id vectors)
//!   sit back to back in arenas. Transitions are 8 bytes and parent
//!   links 12, with `u32` costs;
//! * **partial-order reduction** (on by default, [`CheckConfig::without_por`]
//!   to disable) — a process step that touches only its own private
//!   state stands in for the full successor set, with a cycle proviso
//!   guaranteeing no transition is deferred forever. Reduction preserves
//!   every verdict this module can produce; failing checks are replayed
//!   through an unreduced exploration so failure reports stay
//!   byte-identical to the seed explorer's. What a property can read is
//!   its predicate's parameter type: invariants and leads-to properties
//!   see a [`SignalView`], which no reduced step can change, and
//!   terminal properties see a [`StateView`], which adds variables —
//!   reduction keeps every terminal state;
//! * **transitions that pay for their effects** — every stored state is
//!   closed under eager release, so a process parked at a
//!   level-sensitive wait is never run except to expire its watchdog.
//!   Process controls stay interned while a state is expanded: only the
//!   running process's control is materialized, and a released control
//!   advances by id;
//! * **bounded exploration** — [`CheckConfig::with_state_limit`] stops at
//!   a state budget with a structured [`Verdict::Bounded`] instead of an
//!   error (or OOM).
//!
//! Exploration runs on one thread and is deterministic by discovery
//! order: states are expanded in the order they were found, and each
//! successor is interned where its run found it, so state numbering,
//! traces and verdicts depend only on the system and the configuration.

mod explore;
mod fx;
mod por;
mod space;
mod state;
mod step;
#[cfg(test)]
mod tests;

use ifsyn_spec::System;

use crate::error::SimError;
use crate::program::Program;

use por::PorTables;
use state::Layout;

pub use explore::{BoundedInfo, CheckStats};
pub use space::{Counterexample, PropertyReport, SignalView, StateSpace, StateView, Verdict};

/// A nondeterministic environment fault the checker may inject between
/// any two process steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvFault {
    /// Invert one bit of a signal's current value, at most `budget` times
    /// over any single execution.
    FlipBit {
        /// Signal name as declared in the system.
        signal: String,
        /// Bit position (0 = LSB; use 0 for `Ty::Bit`).
        bit: u32,
        /// Maximum strikes along any one path.
        budget: u32,
    },
    /// Force a signal to all-zeros and swallow every later write
    /// (stuck-at-0); strikes at most once.
    StuckLow {
        /// Signal name as declared in the system.
        signal: String,
    },
}

impl EnvFault {
    fn signal_name(&self) -> &str {
        match self {
            EnvFault::FlipBit { signal, .. } | EnvFault::StuckLow { signal } => signal,
        }
    }

    pub(super) fn budget(&self) -> u32 {
        match self {
            EnvFault::FlipBit { budget, .. } => *budget,
            EnvFault::StuckLow { .. } => 1,
        }
    }
}

/// Reachable states an exploration without a state budget may store
/// before it ends with [`SimError::StateCapExceeded`].
pub(crate) const MAX_STATES: usize = 1 << 18;

/// Instructions one atomic run may execute before the checker reports a
/// zero-cost loop, like the kernel's zero-delay guard.
pub(crate) const STEP_BUDGET: u64 = 1 << 20;

/// The fault environment and the two exploration knobs. Statement costs
/// are the simulator's, so checked bounds compare with simulated finish
/// times.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Environment faults the checker may inject nondeterministically.
    pub faults: Vec<EnvFault>,
    /// Stop exploration gracefully after this many discovered states,
    /// reporting [`Verdict::Bounded`] — without it, a reachable set past
    /// the 2^18-state cap is an error.
    pub state_limit: Option<usize>,
    /// Partial-order reduction (on by default; verdict-preserving).
    pub por: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            faults: Vec::new(),
            state_limit: None,
            por: true,
        }
    }
}

impl CheckConfig {
    /// The default configuration: no faults, 2^18 state cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one environment fault.
    pub fn with_fault(mut self, fault: EnvFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Stops exploration after `limit` discovered states with a
    /// structured [`Verdict::Bounded`] instead of an error. The budget
    /// supersedes the 2^18-state cap: a limit above the cap still ends
    /// in a `Bounded` verdict, not an exhaustion error.
    pub fn with_state_limit(mut self, limit: usize) -> Self {
        self.state_limit = Some(limit);
        self
    }

    /// Disables partial-order reduction.
    pub fn without_por(mut self) -> Self {
        self.por = false;
        self
    }
}

/// An explicit-state model checker over one compiled system.
pub struct Checker<'a> {
    system: &'a System,
    program: Program,
    /// Configured faults with their signal names resolved to indices.
    faults: Vec<(usize, EnvFault)>,
    config: CheckConfig,
    /// The cap on stored states without a budget: [`MAX_STATES`], which
    /// the module's tests lower.
    max_states: usize,
    /// Variable grouping for component interning.
    layout: Layout,
    /// Static purity tables when partial-order reduction is enabled.
    por: Option<PorTables>,
}

impl<'a> Checker<'a> {
    /// Builds a checker with the default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] if the system fails validation.
    pub fn new(system: &'a System) -> Result<Self, SimError> {
        Self::with_config(system, CheckConfig::new())
    }

    /// Builds a checker with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] if the system fails validation,
    /// a configured fault names an unknown signal, a [`EnvFault::FlipBit`]
    /// can never strike (its bit is not below the signal's declared
    /// width, or its budget is 0), or the system has more
    /// behaviors or faults than a stored transition label can name
    /// (2^30 each).
    pub fn with_config(system: &'a System, config: CheckConfig) -> Result<Self, SimError> {
        system.check().map_err(|e| SimError::InvalidSystem {
            message: e.to_string(),
        })?;
        if system.behaviors.len().max(config.faults.len()) > explore::MAX_LABEL_INDEX + 1 {
            return Err(SimError::InvalidSystem {
                message: format!(
                    "the checker labels at most {} behaviors and {0} faults",
                    explore::MAX_LABEL_INDEX + 1
                ),
            });
        }
        let program = Program::compile(system);
        let mut faults = Vec::with_capacity(config.faults.len());
        for f in &config.faults {
            let idx = system
                .signals
                .iter()
                .position(|s| s.name == f.signal_name())
                .ok_or_else(|| SimError::InvalidSystem {
                    message: format!("check fault names unknown signal `{}`", f.signal_name()),
                })?;
            if let EnvFault::FlipBit {
                signal,
                bit,
                budget,
            } = f
            {
                let width = system.signals[idx].ty.bit_width();
                if *bit >= width || *budget == 0 {
                    return Err(SimError::InvalidSystem {
                        message: format!(
                            "check fault flipping bit {bit} of `{signal}` ({width} bit(s)) \
                             with budget {budget} can never strike"
                        ),
                    });
                }
            }
            faults.push((idx, f.clone()));
        }
        let layout = Layout::new(system);
        let por = if config.por {
            let feet = ifsyn_partition::footprints(system);
            let fault_signals: Vec<usize> = faults.iter().map(|(i, _)| *i).collect();
            Some(PorTables::build(
                system,
                &feet,
                &program.behaviors,
                &program.procedures,
                &fault_signals,
            ))
        } else {
            None
        };
        Ok(Self {
            system,
            program,
            faults,
            config,
            max_states: MAX_STATES,
            layout,
            por,
        })
    }

    /// Explores the reachable state space by breadth-first search.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StateCapExceeded`] when the reachable set
    /// exceeds 2^18 states (unless a state limit is set, which bounds
    /// exploration gracefully instead). Returns another
    /// error when an atomic run exceeds the step budget or execution
    /// hits a runtime evaluation error or failed assertion.
    pub fn explore(&self) -> Result<StateSpace<'_>, SimError> {
        let g = self.explore_graph()?;
        Ok(StateSpace::new(self, g))
    }
}
