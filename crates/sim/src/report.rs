//! Simulation results.

use ifsyn_spec::{BehaviorId, SignalId, Value, VarId};

use crate::fault::InjectedFault;

/// One recorded signal change.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the change.
    pub time: u64,
    /// The signal that changed.
    pub signal: SignalId,
    /// The new value.
    pub value: Value,
}

/// Outcome of one behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorOutcome {
    /// Behavior name.
    pub name: String,
    /// Finish time (non-repeating behaviors that completed).
    pub finish_time: Option<u64>,
    /// Completed body iterations (repeating behaviors).
    pub iterations: u64,
    /// `true` if the behavior ended the run suspended on a wait.
    pub blocked: bool,
    /// `true` for repeating behaviors (servers), whose idle blocking at
    /// the end of a run is expected rather than suspicious.
    pub repeats: bool,
    /// Clock cycles consumed by costed instructions.
    pub active_cycles: u64,
    /// Total instructions executed.
    pub instrs_executed: u64,
}

/// The result of running a simulation to quiescence.
///
/// Owns a snapshot of final variable values, per-behavior outcomes and
/// per-signal event counts, so it outlives the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    pub(crate) time: u64,
    pub(crate) behaviors: Vec<BehaviorOutcome>,
    pub(crate) variables: Vec<(String, Value)>,
    pub(crate) signals: Vec<(String, Value)>,
    pub(crate) signal_events: Vec<(String, u64)>,
    pub(crate) injected_faults: Vec<InjectedFault>,
    pub(crate) blocked_at_exit: usize,
    pub(crate) trace: Vec<TraceEvent>,
    pub(crate) total_deltas: u64,
    pub(crate) total_instrs: u64,
    pub(crate) assertions_checked: u64,
    pub(crate) heap_peak: usize,
    pub(crate) time_steps: u64,
}

impl SimReport {
    /// The time of the last event, in clock cycles.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Total delta cycles executed over the whole run.
    pub fn total_deltas(&self) -> u64 {
        self.total_deltas
    }

    /// Total instructions executed over the whole run.
    pub fn total_instrs(&self) -> u64 {
        self.total_instrs
    }

    /// Number of assertions that were reached and held.
    pub fn assertions_checked(&self) -> u64 {
        self.assertions_checked
    }

    /// Peak combined size of the scheduler's event heaps (timed writes
    /// plus sleeping processes) over the whole run.
    pub fn heap_peak(&self) -> usize {
        self.heap_peak
    }

    /// Number of time advances the scheduler made: the distinct
    /// simulation instants it visited after the initial one.
    pub fn time_steps(&self) -> u64 {
        self.time_steps
    }

    /// Delta cycles per time advance: every delta, the initial instant's
    /// included, over [`SimReport::time_steps`]; 0 when time never
    /// advanced.
    pub fn deltas_per_step(&self) -> f64 {
        if self.time_steps == 0 {
            0.0
        } else {
            self.total_deltas as f64 / self.time_steps as f64
        }
    }

    /// Finish time of a behavior: `Some(t)` once a non-repeating behavior
    /// completed its body at time `t`. This is the "execution time of the
    /// process" of the paper's Fig. 7.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn finish_time(&self, behavior: BehaviorId) -> Option<u64> {
        self.behaviors[behavior.index()].finish_time
    }

    /// Completed iterations of a (repeating) behavior.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn iterations(&self, behavior: BehaviorId) -> u64 {
        self.behaviors[behavior.index()].iterations
    }

    /// Per-behavior outcome record.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn outcome(&self, behavior: BehaviorId) -> &BehaviorOutcome {
        &self.behaviors[behavior.index()]
    }

    /// Final value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn final_variable(&self, variable: VarId) -> &Value {
        &self.variables[variable.index()].1
    }

    /// Final value of a variable looked up by name, if it exists.
    pub fn final_variable_by_name(&self, name: &str) -> Option<&Value> {
        self.variables
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Final value of a signal looked up by name, if it exists.
    ///
    /// Hardened protocols report aborts through per-channel status-flag
    /// signals; this is how campaigns read them after the run.
    pub fn final_signal_by_name(&self, name: &str) -> Option<&Value> {
        self.signals.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Faults the kernel actually injected during the run, in time order
    /// (empty without a fault plan). Recording caps at an internal bound
    /// so a stuck line on a long run cannot grow the report unboundedly.
    pub fn injected_faults(&self) -> &[InjectedFault] {
        &self.injected_faults
    }

    /// Number of *non-repeating* processes that had not finished when the
    /// run ended — still suspended on a wait or sleeping mid-work.
    ///
    /// [`crate::Simulator::run_until`] returns success at its deadline
    /// even when transfers are stuck; a nonzero count here is how callers
    /// tell a cleanly completed run from a stalled bus. Repeating servers
    /// are excluded: parked-on-the-bus is their normal idle state.
    pub fn blocked_at_exit(&self) -> usize {
        self.blocked_at_exit
    }

    /// Iterates over behaviors that ran to completion.
    pub fn finished_behaviors(&self) -> impl Iterator<Item = (BehaviorId, &BehaviorOutcome)> {
        self.behaviors
            .iter()
            .enumerate()
            .filter(|(_, o)| o.finish_time.is_some())
            .map(|(i, o)| (BehaviorId::new(i as u32), o))
    }

    /// Iterates over behaviors that ended the run suspended on a wait.
    ///
    /// For server processes (variable processes, arbiters) this is the
    /// normal idle state, not an error.
    pub fn blocked_behaviors(&self) -> impl Iterator<Item = (BehaviorId, &BehaviorOutcome)> {
        self.behaviors
            .iter()
            .enumerate()
            .filter(|(_, o)| o.blocked)
            .map(|(i, o)| (BehaviorId::new(i as u32), o))
    }

    /// Number of events (value changes) observed on a signal.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn signal_event_count(&self, signal: SignalId) -> u64 {
        self.signal_events[signal.index()].1
    }

    /// The recorded signal-change trace (empty unless tracing was on).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }
}
