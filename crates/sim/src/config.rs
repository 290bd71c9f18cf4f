//! Simulation configuration.

use crate::fault::FaultPlan;

/// Configuration knobs of the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Hard limit on simulated time (clock cycles).
    pub max_time: u64,
    /// Maximum delta cycles at one time instant before reporting a
    /// combinational oscillation.
    pub max_deltas_per_instant: u32,
    /// Maximum zero-time instructions one process may execute in a single
    /// activation before reporting a zero-delay loop.
    pub max_steps_per_activation: u64,
    /// Record signal-change trace events (bounded by
    /// [`SimConfig::max_trace_events`]).
    pub trace: bool,
    /// Maximum number of recorded trace events; recording stops (but the
    /// simulation continues) when the bound is reached.
    pub max_trace_events: usize,
    /// Scheduled signal faults (default: empty, no faults).
    pub fault_plan: FaultPlan,
    /// Treat a quiescent end state with blocked *non-repeating* processes
    /// as a [`crate::SimError::Deadlock`] carrying a structured diagnosis.
    ///
    /// Off by default: a refined system's servers idle on their bus at
    /// quiescence by design, and some specifications intentionally leave
    /// a process parked forever. Fault campaigns and the CLI turn this on
    /// to convert silent hangs into diagnosable failures.
    pub fail_on_deadlock: bool,
}

impl SimConfig {
    /// The default configuration: 100M-cycle horizon, tracing off.
    pub fn new() -> Self {
        Self {
            max_time: 100_000_000,
            max_deltas_per_instant: 10_000,
            max_steps_per_activation: 10_000_000,
            trace: false,
            max_trace_events: 100_000,
            fault_plan: FaultPlan::new(),
            fail_on_deadlock: false,
        }
    }

    /// Builder-style setter for [`SimConfig::max_time`].
    pub fn with_max_time(mut self, max_time: u64) -> Self {
        self.max_time = max_time;
        self
    }

    /// Builder-style switch enabling signal tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Builder-style setter for [`SimConfig::max_trace_events`] — traced
    /// analytics runs over long sweeps need more than the default bound.
    pub fn with_max_trace_events(mut self, max: usize) -> Self {
        self.max_trace_events = max;
        self
    }

    /// Builder-style setter for the fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Builder-style switch turning blocked-at-quiescence non-repeating
    /// processes into a [`crate::SimError::Deadlock`].
    pub fn with_deadlock_detection(mut self) -> Self {
        self.fail_on_deadlock = true;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_new() {
        assert_eq!(SimConfig::new(), SimConfig::default());
    }

    #[test]
    fn builders_chain() {
        let c = SimConfig::new().with_max_time(10).with_trace();
        assert_eq!(c.max_time, 10);
        assert!(c.trace);
    }
}
