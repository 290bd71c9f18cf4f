//! Channel average-rate and peak-rate estimation (the paper's ref \[8\]).

use std::collections::HashMap;

use ifsyn_spec::{ChannelId, System};

use crate::error::EstimateError;
use crate::perf::PerformanceEstimator;
use crate::timing::{BusTiming, ChannelTimings};

/// Computes the quantities bus generation feeds into its feasibility test
/// and cost function.
///
/// * **Average rate** of a channel: total bits moved over the lifetime of
///   the accessing process, divided by that lifetime (in clocks) — so the
///   rate *depends on the candidate bus width*: a narrower bus stretches
///   the process and lowers every channel's average rate, which is the
///   feedback loop the paper's Fig. 2 discussion describes.
/// * **Peak rate**: the burst transfer rate the bus offers the channel,
///   `min(width, message_bits) / cycles_per_word`.
#[derive(Debug, Clone, Default)]
pub struct ChannelRates {
    estimator: PerformanceEstimator,
}

impl ChannelRates {
    /// Creates a rate estimator with the default cost model.
    pub fn new() -> Self {
        Self {
            estimator: PerformanceEstimator::new(),
        }
    }

    /// Average rate of `channel` (bits/clock) when the channels in
    /// `timings` are implemented with the given bus timing.
    ///
    /// The lifetime is the estimated execution time of the accessing
    /// behavior under the same timing. Channels whose behavior performs
    /// no work at all (zero estimated cycles) are given rate 0.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::UnknownChannel`] for an out-of-range id,
    /// or any error from behavior estimation.
    pub fn average_rate(
        &self,
        system: &System,
        channel: ChannelId,
        timings: &ChannelTimings,
    ) -> Result<f64, EstimateError> {
        if channel.index() >= system.channels.len() {
            return Err(EstimateError::UnknownChannel { id: channel });
        }
        let ch = system.channel(channel);
        let est = self.estimator.estimate(system, ch.accessor, timings)?;
        if est.cycles == 0 {
            return Ok(0.0);
        }
        // Prefer the statically counted accesses (they respect loop
        // structure); fall back to the channel's declared access count
        // when the body has not been written out (pure-workload models).
        let accesses = est
            .channel_accesses
            .get(&channel)
            .copied()
            .filter(|&n| n > 0)
            .unwrap_or(ch.accesses);
        let bits = accesses * u64::from(ch.message_bits());
        Ok(bits as f64 / est.cycles as f64)
    }

    /// Sum of average rates over a channel group (the right-hand side of
    /// the paper's Eq. 1).
    ///
    /// # Errors
    ///
    /// Propagates the first per-channel estimation error.
    pub fn sum_average_rates(
        &self,
        system: &System,
        channels: &[ChannelId],
        timings: &ChannelTimings,
    ) -> Result<f64, EstimateError> {
        let mut sum = 0.0;
        for &ch in channels {
            sum += self.average_rate(system, ch, timings)?;
        }
        Ok(sum)
    }

    /// Peak rate of `channel` on a bus with the given timing (bits/clock).
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::UnknownChannel`] for an out-of-range id.
    pub fn peak_rate(
        &self,
        system: &System,
        channel: ChannelId,
        timing: BusTiming,
    ) -> Result<f64, EstimateError> {
        if channel.index() >= system.channels.len() {
            return Err(EstimateError::UnknownChannel { id: channel });
        }
        Ok(timing.peak_rate(system.channel(channel).message_bits()))
    }
}

/// Where the average rates that drive width selection come from.
///
/// The paper's algorithm prices each width with *statically estimated*
/// rates ([`ChannelRates`]). The trace-analytics loop closes the gap
/// between those estimates and what a simulation actually measures: a
/// [`RateModel::Calibrated`] model scales each channel's static estimate
/// by the measured-over-estimated ratio observed at one simulated width,
/// so re-running width selection reflects bus contention the static
/// model cannot see.
///
/// Peak rates are a property of the bus timing alone (the burst rate the
/// wires offer, not what traffic achieves), so both variants report the
/// same peak rate.
#[derive(Debug, Clone)]
pub enum RateModel {
    /// Purely static estimation — the paper's model, and the default.
    Static(ChannelRates),
    /// Static estimation with per-channel multiplicative correction
    /// factors measured from a simulation trace.
    Calibrated {
        /// The underlying static estimator.
        base: ChannelRates,
        /// `measured_rate / estimated_rate` per channel, applied
        /// multiplicatively. Channels absent from the map are left
        /// uncorrected (factor 1).
        scale: HashMap<ChannelId, f64>,
    },
}

impl Default for RateModel {
    fn default() -> Self {
        Self::Static(ChannelRates::default())
    }
}

impl RateModel {
    /// Creates the default static model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a static estimator without correction.
    pub fn from_static(rates: ChannelRates) -> Self {
        Self::Static(rates)
    }

    /// Creates a calibrated model from a static estimator and measured
    /// per-channel correction factors.
    pub fn calibrated(base: ChannelRates, scale: HashMap<ChannelId, f64>) -> Self {
        Self::Calibrated { base, scale }
    }

    /// The underlying static estimator.
    pub fn base(&self) -> &ChannelRates {
        match self {
            Self::Static(rates) => rates,
            Self::Calibrated { base, .. } => base,
        }
    }

    /// The correction factor applied to `channel` (1 when static or
    /// unmeasured).
    pub fn scale_for(&self, channel: ChannelId) -> f64 {
        match self {
            Self::Static(_) => 1.0,
            Self::Calibrated { scale, .. } => scale.get(&channel).copied().unwrap_or(1.0),
        }
    }

    /// Average rate of `channel` under this model (bits/clock).
    ///
    /// # Errors
    ///
    /// Same as [`ChannelRates::average_rate`].
    pub fn average_rate(
        &self,
        system: &System,
        channel: ChannelId,
        timings: &ChannelTimings,
    ) -> Result<f64, EstimateError> {
        match self {
            Self::Static(rates) => rates.average_rate(system, channel, timings),
            Self::Calibrated { base, scale } => {
                let factor = scale.get(&channel).copied().unwrap_or(1.0);
                Ok(base.average_rate(system, channel, timings)? * factor)
            }
        }
    }

    /// Sum of average rates over a channel group under this model.
    ///
    /// # Errors
    ///
    /// Propagates the first per-channel estimation error.
    pub fn sum_average_rates(
        &self,
        system: &System,
        channels: &[ChannelId],
        timings: &ChannelTimings,
    ) -> Result<f64, EstimateError> {
        let mut sum = 0.0;
        for &ch in channels {
            sum += self.average_rate(system, ch, timings)?;
        }
        Ok(sum)
    }

    /// Peak rate of `channel` — always the bus timing's burst rate,
    /// regardless of calibration.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::UnknownChannel`] for an out-of-range id.
    pub fn peak_rate(
        &self,
        system: &System,
        channel: ChannelId,
        timing: BusTiming,
    ) -> Result<f64, EstimateError> {
        self.base().peak_rate(system, channel, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsyn_spec::dsl::*;
    use ifsyn_spec::{Channel, ChannelDirection, Ty};

    /// A process sending `accesses` messages of (16+7) bits with
    /// `compute` extra cycles per access.
    fn rig(accesses: i64, compute: u64) -> (System, ChannelId) {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let owner = sys.add_behavior("MEMPROC", m);
        let mem = sys.add_variable("MEM", Ty::array(Ty::Int(16), 128), owner);
        let i = sys.add_variable("i", Ty::Int(16), b);
        let ch = sys.add_channel(Channel {
            name: "ch".into(),
            accessor: b,
            variable: mem,
            direction: ChannelDirection::Write,
            data_bits: 16,
            addr_bits: 7,
            accesses: accesses as u64,
        });
        let mut body = vec![send_at(ch, load(var(i)), int_const(1, 16))];
        if compute > 0 {
            body.push(ifsyn_spec::Stmt::compute(compute, "work"));
        }
        sys.behavior_mut(b).body.push(for_loop(
            var(i),
            int_const(0, 16),
            int_const(accesses - 1, 16),
            body,
        ));
        (sys, ch)
    }

    /// Every construction path prices a `wait until` of unknown length
    /// alike: `RateModel::default()`, which `BusGenerator::new()`
    /// installs, reads the same rate as `ChannelRates::new()`.
    #[test]
    fn every_construction_prices_a_sync_wait_alike() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let owner = sys.add_behavior("MEMPROC", m);
        let mem = sys.add_variable("MEM", Ty::Int(16), owner);
        let go = sys.add_signal("GO", Ty::Bit);
        let ch = sys.add_channel(Channel {
            name: "ch".into(),
            accessor: b,
            variable: mem,
            direction: ChannelDirection::Write,
            data_bits: 16,
            addr_bits: 0,
            accesses: 1,
        });
        sys.behavior_mut(b).body = vec![
            wait_until(eq(signal(go), bit_const(true))),
            ifsyn_spec::Stmt::compute(1, "work"),
            send(ch, int_const(7, 16)),
        ];
        let t = ChannelTimings::uniform(&[ch], BusTiming::new(16, 2));
        // 16 bits over 1 wait + 1 compute + 2 transfer cycles.
        let new = ChannelRates::new().average_rate(&sys, ch, &t).unwrap();
        assert_eq!(new, 4.0);
        assert_eq!(
            ChannelRates::default().average_rate(&sys, ch, &t).unwrap(),
            new
        );
        assert_eq!(
            RateModel::default().average_rate(&sys, ch, &t).unwrap(),
            new
        );
    }

    #[test]
    fn average_rate_reflects_transfer_and_compute_time() {
        let (sys, ch) = rig(128, 4);
        let rates = ChannelRates::new();
        // Width 8: 3 words x 2clk = 6 per access, +4 compute = 10/access.
        let timings = ChannelTimings::uniform(&[ch], BusTiming::new(8, 2));
        let r = rates.average_rate(&sys, ch, &timings).unwrap();
        let expected = (128.0 * 23.0) / (128.0 * 10.0);
        assert!((r - expected).abs() < 1e-9, "{r} vs {expected}");
    }

    #[test]
    fn wider_bus_raises_average_rate() {
        let (sys, ch) = rig(128, 4);
        let rates = ChannelRates::new();
        let mut last = 0.0;
        for w in [1u32, 2, 4, 8, 16, 23] {
            let t = ChannelTimings::uniform(&[ch], BusTiming::new(w, 2));
            let r = rates.average_rate(&sys, ch, &t).unwrap();
            assert!(r >= last, "rate should not decrease with width");
            last = r;
        }
    }

    #[test]
    fn sum_average_rates_adds() {
        let (sys, ch) = rig(16, 0);
        let rates = ChannelRates::new();
        let t = ChannelTimings::uniform(&[ch], BusTiming::new(23, 2));
        let single = rates.average_rate(&sys, ch, &t).unwrap();
        let sum = rates.sum_average_rates(&sys, &[ch], &t).unwrap();
        assert_eq!(single, sum);
    }

    #[test]
    fn peak_rate_uses_message_bits() {
        let (sys, ch) = rig(1, 0);
        let rates = ChannelRates::new();
        let r = rates.peak_rate(&sys, ch, BusTiming::new(32, 2)).unwrap();
        assert_eq!(r, 23.0 / 2.0);
    }

    #[test]
    fn unknown_channel_errors() {
        let sys = System::new("t");
        let rates = ChannelRates::new();
        assert!(rates
            .average_rate(&sys, ChannelId::new(0), &ChannelTimings::new())
            .is_err());
        assert!(rates
            .peak_rate(&sys, ChannelId::new(0), BusTiming::new(8, 2))
            .is_err());
    }

    #[test]
    fn zero_traffic_channel_has_zero_rate() {
        // A channel whose accessor does work but never touches it
        // (declared accesses = 0, no sends in the body) contributes
        // nothing to Eq. 1's right-hand side.
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let owner = sys.add_behavior("Q", m);
        let v = sys.add_variable("X", Ty::Bits(16), owner);
        let ch = sys.add_channel(Channel {
            name: "quiet".into(),
            accessor: b,
            variable: v,
            direction: ChannelDirection::Read,
            data_bits: 16,
            addr_bits: 0,
            accesses: 0,
        });
        sys.behavior_mut(b)
            .body
            .push(ifsyn_spec::Stmt::compute(50, "w"));
        let rates = ChannelRates::new();
        let t = ChannelTimings::uniform(&[ch], BusTiming::new(8, 2));
        assert_eq!(rates.average_rate(&sys, ch, &t).unwrap(), 0.0);
        assert_eq!(rates.sum_average_rates(&sys, &[ch], &t).unwrap(), 0.0);
    }

    #[test]
    fn empty_accessor_body_has_zero_rate_not_nan() {
        // Zero estimated lifetime must not divide: the rate is defined
        // as 0, never NaN/inf, so feasibility comparisons stay total.
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let owner = sys.add_behavior("Q", m);
        let v = sys.add_variable("X", Ty::Bits(16), owner);
        let ch = sys.add_channel(Channel {
            name: "ch".into(),
            accessor: b,
            variable: v,
            direction: ChannelDirection::Write,
            data_bits: 16,
            addr_bits: 0,
            accesses: 10,
        });
        let rates = ChannelRates::new();
        let r = rates
            .average_rate(&sys, ch, &ChannelTimings::new())
            .unwrap();
        assert_eq!(r, 0.0);
        assert!(r.is_finite());
    }

    #[test]
    fn static_rate_model_matches_channel_rates_exactly() {
        let (sys, ch) = rig(128, 4);
        let t = ChannelTimings::uniform(&[ch], BusTiming::new(8, 2));
        let direct = ChannelRates::new().average_rate(&sys, ch, &t).unwrap();
        let model = RateModel::new();
        assert_eq!(model.average_rate(&sys, ch, &t).unwrap(), direct);
        assert_eq!(model.scale_for(ch), 1.0);
    }

    #[test]
    fn calibrated_model_scales_average_but_not_peak() {
        let (sys, ch) = rig(128, 4);
        let timing = BusTiming::new(8, 2);
        let t = ChannelTimings::uniform(&[ch], timing);
        let base = ChannelRates::new();
        let static_rate = base.average_rate(&sys, ch, &t).unwrap();
        let static_peak = base.peak_rate(&sys, ch, timing).unwrap();
        let model = RateModel::calibrated(base, HashMap::from([(ch, 0.75)]));
        let r = model.average_rate(&sys, ch, &t).unwrap();
        assert!((r - static_rate * 0.75).abs() < 1e-12, "{r}");
        assert_eq!(model.peak_rate(&sys, ch, timing).unwrap(), static_peak);
        assert_eq!(model.scale_for(ch), 0.75);
    }

    #[test]
    fn calibrated_model_leaves_unmeasured_channels_alone() {
        let (sys, ch) = rig(16, 0);
        let t = ChannelTimings::uniform(&[ch], BusTiming::new(23, 2));
        let static_rate = ChannelRates::new().average_rate(&sys, ch, &t).unwrap();
        let model = RateModel::calibrated(ChannelRates::new(), HashMap::new());
        assert_eq!(model.average_rate(&sys, ch, &t).unwrap(), static_rate);
        assert_eq!(model.scale_for(ch), 1.0);
    }

    #[test]
    fn declared_accesses_used_when_body_is_abstract() {
        // Behavior whose body is pure compute (no ChannelSend stmts):
        // fall back to the channel's declared access count.
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let owner = sys.add_behavior("Q", m);
        let v = sys.add_variable("X", Ty::Bits(16), owner);
        let ch = sys.add_channel(Channel {
            name: "ch".into(),
            accessor: b,
            variable: v,
            direction: ChannelDirection::Read,
            data_bits: 16,
            addr_bits: 0,
            accesses: 10,
        });
        sys.behavior_mut(b)
            .body
            .push(ifsyn_spec::Stmt::compute(100, "w"));
        let rates = ChannelRates::new();
        let r = rates
            .average_rate(&sys, ch, &ChannelTimings::new())
            .unwrap();
        assert!((r - (10.0 * 16.0) / 100.0).abs() < 1e-9);
    }
}
