//! Explicit-state model checking of specification IR.
//!
//! The simulator executes *one* schedule; the checker executes *all* of
//! them. It runs the same compiled [`Program`] through the same
//! instruction interpreter as the kernel, but under a nondeterministic
//! scheduler and an optional adversarial fault environment, enumerating
//! every reachable system state by breadth-first exploration. Over the
//! explored graph it decides:
//!
//! * **invariants** — a predicate holds in every reachable state
//!   (e.g. bus grant mutual exclusion);
//! * **terminal properties** — a predicate holds in every quiescent state
//!   (e.g. no run ends with silently corrupted data). A path on which a
//!   process *crashes* — a runtime evaluation error such as a
//!   fault-corrupted address indexing past an array — is recorded as an
//!   error edge and fails every terminal property with the crashing trace
//!   as counterexample, rather than aborting the exploration;
//! * **leads-to properties** — from every reachable state satisfying a
//!   premise, some continuation reaches the goal (`AG(premise → EF
//!   goal)`). This is "eventually, under scheduler fairness": a violation
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
//!   component ids (16 bytes) instead of full deep clones, with dedup by
//!   16-byte compare under a 64-bit fingerprint;
//! * **partial-order reduction** (on by default, [`CheckConfig::without_por`]
//!   to disable) — a process step that touches only its own unobserved
//!   state stands in for the full successor set, with a cycle proviso
//!   guaranteeing no transition is deferred forever. Reduction preserves
//!   every verdict this module can produce; failing checks are replayed
//!   through an unreduced exploration so failure reports stay
//!   byte-identical to the seed explorer's. Property predicates read
//!   state through [`StateView`] by name; declare what they read with
//!   [`CheckConfig::with_observed_signals`] /
//!   [`CheckConfig::with_observed_variables`] to unlock reduction over
//!   the rest (by default everything is treated as observed);
//! * **bounded exploration** — [`CheckConfig::with_state_limit`] stops at
//!   a state budget with a structured [`Verdict::Bounded`] instead of an
//!   error (or OOM), and [`CheckConfig::with_bitstate`] opts into lossy
//!   fingerprint-only dedup for sweeps beyond exact-memory reach.
//!
//! Exploration runs on one thread and is deterministic by discovery
//! order: states are expanded in the order they were found, and each
//! successor is interned where its run found it, so state numbering,
//! pool ids, fingerprints, traces and verdicts depend only on the system
//! and the configuration. When reduction picks an ample run after
//! earlier successors were interned, the pools are truncated back to
//! where the expansion started before the ample successor is interned,
//! so the discarded successors leave no trace in pool ids, fingerprints
//! or bitstate collisions.

mod explore;
mod fx;
mod por;
mod space;
mod state;
mod step;
#[cfg(test)]
mod tests;

use ifsyn_estimate::CostModel;
use ifsyn_spec::System;

use crate::error::SimError;
use crate::program::Program;

use por::PorTables;
use state::Layout;

pub use explore::{BoundedInfo, CheckStats};
pub use space::{Counterexample, PropertyReport, StateSpace, StateView, Verdict};

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

/// Exploration limits, scaling knobs and the fault environment.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Abort exploration when the reachable set exceeds this many
    /// states. Not enforced when [`CheckConfig::state_limit`] is set —
    /// a budgeted run stops gracefully at the budget instead of
    /// erroring, wherever the budget sits relative to this cap.
    pub max_states: usize,
    /// Abort a single atomic run after this many instructions (guards
    /// zero-cost infinite loops, like the kernel's zero-delay guard).
    pub step_budget: u64,
    /// Environment faults the checker may inject nondeterministically.
    pub faults: Vec<EnvFault>,
    /// Statement costs, identical to the simulator's default model so
    /// checked bounds are comparable to simulated finish times.
    pub cost_model: CostModel,
    /// Stop exploration gracefully after this many discovered states,
    /// reporting [`Verdict::Bounded`] — unlike
    /// [`CheckConfig::max_states`], which treats exhaustion as an error.
    pub state_limit: Option<usize>,
    /// Lossy bitstate dedup over this many fingerprint bits (8..=63).
    /// Invariant and terminal violations found are real (their witness
    /// states were concretely reached); absence of violations proves
    /// nothing. Leads-to failures are reported
    /// [`Verdict::Inconclusive`] (a collision can forge unreachability)
    /// and completion bounds are unavailable.
    pub bitstate_bits: Option<u32>,
    /// Partial-order reduction (on by default; verdict-preserving).
    pub por: bool,
    /// Signals property predicates may read, by name (`None` = all).
    /// Currently advisory: signal-writing steps are never reduced.
    pub observed_signals: Option<Vec<String>>,
    /// Variables property predicates may read, by name (`None` = all).
    /// Narrowing this is what unlocks reduction over private data paths.
    pub observed_variables: Option<Vec<String>>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            max_states: 1 << 18,
            step_budget: 1 << 20,
            faults: Vec::new(),
            cost_model: CostModel::new(),
            state_limit: None,
            bitstate_bits: None,
            por: true,
            observed_signals: None,
            observed_variables: None,
        }
    }
}

impl CheckConfig {
    /// The default configuration: no faults, 2^18 state cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the state cap.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Adds one environment fault.
    pub fn with_fault(mut self, fault: EnvFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Stops exploration after `limit` discovered states with a
    /// structured [`Verdict::Bounded`] instead of an error. The budget
    /// supersedes [`CheckConfig::max_states`]: a limit above the hard
    /// cap still ends in a `Bounded` verdict, not an exhaustion error.
    pub fn with_state_limit(mut self, limit: usize) -> Self {
        self.state_limit = Some(limit);
        self
    }

    /// Enables lossy bitstate dedup over `bits` fingerprint bits
    /// (clamped to 8..=63). One-sided for invariant and terminal
    /// checks only; leads-to failures become
    /// [`Verdict::Inconclusive`] and
    /// [`StateSpace::worst_cost_to_quiescence`] returns `None`.
    pub fn with_bitstate(mut self, bits: u32) -> Self {
        self.bitstate_bits = Some(bits);
        self
    }

    /// Disables partial-order reduction.
    pub fn without_por(mut self) -> Self {
        self.por = false;
        self
    }

    /// Declares the signals property predicates may read (all others are
    /// invisible to properties).
    pub fn with_observed_signals(mut self, names: Vec<String>) -> Self {
        self.observed_signals = Some(names);
        self
    }

    /// Declares the variables property predicates may read (all others
    /// are invisible to properties, unlocking reduction over them).
    pub fn with_observed_variables(mut self, names: Vec<String>) -> Self {
        self.observed_variables = Some(names);
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
    max_regs: u16,
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
    /// a configured fault names an unknown signal, or an observed-state
    /// declaration names an unknown signal or variable.
    pub fn with_config(system: &'a System, config: CheckConfig) -> Result<Self, SimError> {
        system.check().map_err(|e| SimError::InvalidSystem {
            message: e.to_string(),
        })?;
        let program = Program::compile(system, &config.cost_model);
        let max_regs = program.max_regs();
        let mut faults = Vec::with_capacity(config.faults.len());
        for f in &config.faults {
            let idx = system
                .signals
                .iter()
                .position(|s| s.name == f.signal_name())
                .ok_or_else(|| SimError::InvalidSystem {
                    message: format!("check fault names unknown signal `{}`", f.signal_name()),
                })?;
            faults.push((idx, f.clone()));
        }
        if let Some(names) = &config.observed_signals {
            for name in names {
                if !system.signals.iter().any(|s| &s.name == name) {
                    return Err(SimError::InvalidSystem {
                        message: format!("check observes unknown signal `{name}`"),
                    });
                }
            }
        }
        let mut observed_var = vec![config.observed_variables.is_none(); system.variables.len()];
        if let Some(names) = &config.observed_variables {
            for name in names {
                let idx = system
                    .variables
                    .iter()
                    .position(|v| &v.name == name)
                    .ok_or_else(|| SimError::InvalidSystem {
                        message: format!("check observes unknown variable `{name}`"),
                    })?;
                observed_var[idx] = true;
            }
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
                &observed_var,
            ))
        } else {
            None
        };
        Ok(Self {
            system,
            program,
            faults,
            config,
            max_regs,
            layout,
            por,
        })
    }

    /// Explores the reachable state space by breadth-first search.
    ///
    /// # Errors
    ///
    /// Returns an error when the reachable set exceeds the configured
    /// state cap (unless a state limit is set, which bounds exploration
    /// gracefully instead), an atomic run exceeds the step budget, or
    /// execution hits a runtime evaluation error or failed assertion.
    pub fn explore(&self) -> Result<StateSpace<'_>, SimError> {
        let g = self.explore_graph()?;
        Ok(StateSpace::new(self, g))
    }
}
