//! Bus generation: the five-step width-selection algorithm (paper §3).

use std::collections::HashMap;

use ifsyn_estimate::{ChannelTimings, RateModel};
use ifsyn_spec::{ChannelId, System};

use crate::constraint::{total_cost, Constraint, WidthMetrics};
use crate::error::CoreError;
use crate::protocol::ProtocolKind;

/// One explored width: the data behind the feasibility decision.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthRow {
    /// Candidate width in pins.
    pub width: u32,
    /// Bus rate at this width (Eq. 2), bits/clock.
    pub bus_rate: f64,
    /// Sum of channel average rates at this width, bits/clock.
    pub sum_ave_rates: f64,
    /// Eq. 1: `bus_rate >= sum_ave_rates`.
    pub feasible: bool,
    /// Cost under the constraint set (computed for feasible widths).
    pub cost: Option<f64>,
    /// The full metrics used for the cost (kept for reporting).
    pub metrics: WidthMetrics,
}

/// The complete width exploration (paper §3 steps 1–4 for every width).
///
/// Exposed on both success ([`BusDesign::exploration`]) and failure
/// ([`CoreError::NoFeasibleWidth`]) so callers can plot rate-vs-width
/// curves or diagnose infeasibility without re-running the algorithm.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Exploration {
    /// One row per candidate width, in increasing width order.
    pub rows: Vec<WidthRow>,
}

impl Exploration {
    /// The feasible rows only.
    pub fn feasible(&self) -> impl Iterator<Item = &WidthRow> {
        self.rows.iter().filter(|r| r.feasible)
    }

    /// The smallest feasible width, if any.
    pub fn min_feasible_width(&self) -> Option<u32> {
        self.feasible().map(|r| r.width).min()
    }

    /// Renders the exploration as CSV (`width,bus_rate,sum_ave_rates,
    /// feasible,cost`), ready for external plotting of rate-vs-width
    /// curves like the paper's Fig. 7 companion data.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("width,bus_rate,sum_ave_rates,feasible,cost\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                row.width,
                row.bus_rate,
                row.sum_ave_rates,
                row.feasible,
                row.cost.map(|c| c.to_string()).unwrap_or_default()
            ));
        }
        out
    }
}

/// A selected bus implementation for a channel group.
#[derive(Debug, Clone, PartialEq)]
pub struct BusDesign {
    /// The channels implemented on this bus.
    pub channels: Vec<ChannelId>,
    /// Selected data-line count (pins).
    pub width: u32,
    /// The protocol the width was priced with.
    pub protocol: ProtocolKind,
    /// Bus rate at the selected width, bits/clock.
    pub bus_rate: f64,
    /// Sum of channel average rates at the selected width, bits/clock.
    pub sum_ave_rates: f64,
    /// Cost of the selected width.
    pub cost: f64,
    /// Full per-width exploration data.
    pub exploration: Exploration,
}

impl BusDesign {
    /// Creates a design with a *designer-specified* width, bypassing the
    /// width-selection algorithm ("the number of data lines required can
    /// be determined by the bus-generation algorithm **or** they can be
    /// specified by the system designer", paper §4).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_width(channels: Vec<ChannelId>, width: u32, protocol: ProtocolKind) -> Self {
        assert!(width > 0, "bus width must be positive");
        Self {
            channels,
            width,
            protocol,
            bus_rate: protocol.timing(width).bus_rate(),
            sum_ave_rates: 0.0,
            cost: 0.0,
            exploration: Exploration::default(),
        }
    }

    /// ID lines needed to address the channels: `ceil(log2(N))`.
    pub fn id_bits(&self) -> u32 {
        let n = self.channels.len() as u32;
        if n <= 1 {
            0
        } else {
            32 - (n - 1).leading_zeros()
        }
    }

    /// Control lines of the protocol.
    pub fn control_lines(&self) -> u32 {
        self.protocol.control_lines()
    }

    /// Total wires of the bus: data + control + ID.
    pub fn total_wires(&self) -> u32 {
        self.width + self.control_lines() + self.id_bits()
    }

    /// Wires a dedicated (unmerged) implementation of the channels would
    /// need: the sum of per-channel message widths.
    pub fn dedicated_wires(&self, system: &System) -> u32 {
        self.channels
            .iter()
            .map(|&c| system.channel(c).dedicated_wires())
            .sum()
    }

    /// Interconnect reduction of the shared *data lines* versus dedicated
    /// per-channel wires, as a fraction in `[0, 1]` — the paper's Fig. 8
    /// metric ("reduction in the number of data lines").
    pub fn interconnect_reduction(&self, system: &System) -> f64 {
        let dedicated = self.dedicated_wires(system);
        if dedicated == 0 {
            return 0.0;
        }
        1.0 - f64::from(self.width) / f64::from(dedicated)
    }
}

/// The bus generation algorithm (paper §3).
///
/// For each width in `1..=max(message_bits)`:
///
/// 1. compute the bus rate (Eq. 2: `width / cycles_per_word`);
/// 2. estimate every channel's average rate *at that width* (narrower
///    buses stretch the accessing process, lowering its rates);
/// 3. keep the width if `bus_rate >= Σ ave_rates` (Eq. 1);
/// 4. price feasible widths with the constraint cost function;
/// 5. select the cheapest (ties broken toward fewer pins).
#[derive(Debug, Clone, Default)]
pub struct BusGenerator {
    protocol: ProtocolKind,
    constraints: Vec<Constraint>,
    rates: RateModel,
    width_range: Option<(u32, u32)>,
}

impl BusGenerator {
    /// Creates a generator with the paper's defaults: full handshake, no
    /// constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style setter for the protocol used to price widths.
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Adds one designer constraint.
    pub fn constraint(mut self, constraint: Constraint) -> Self {
        self.constraints.push(constraint);
        self
    }

    /// Adds several constraints at once.
    pub fn constraints<I: IntoIterator<Item = Constraint>>(mut self, iter: I) -> Self {
        self.constraints.extend(iter);
        self
    }

    /// Overrides the explored width range (default `1..=max message`).
    pub fn with_width_range(mut self, min: u32, max: u32) -> Self {
        self.width_range = Some((min.max(1), max.max(1)));
        self
    }

    /// Replaces the whole rate model — this is how the trace-analytics
    /// calibration loop re-runs width selection with measured per-channel
    /// correction factors ([`RateModel::Calibrated`]).
    pub fn with_rate_model(mut self, rates: RateModel) -> Self {
        self.rates = rates;
        self
    }

    /// The rate model currently installed.
    pub fn rate_model(&self) -> &RateModel {
        &self.rates
    }

    /// The constraints currently installed.
    pub fn installed_constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Runs the algorithm for `channels` of `system`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyChannelGroup`] for an empty group;
    /// * [`CoreError::UnknownChannel`] for a dangling id;
    /// * [`CoreError::NoFeasibleWidth`] when Eq. 1 fails at every width —
    ///   the error carries the exploration, and
    ///   [`crate::BusGenerator::generate_with_split`] can split the group.
    pub fn generate(
        &self,
        system: &System,
        channels: &[ChannelId],
    ) -> Result<BusDesign, CoreError> {
        let exploration = self.explore(system, channels)?;
        let best = exploration
            .rows
            .iter()
            .filter(|r| r.feasible)
            .min_by(|a, b| {
                let ca = a.cost.unwrap_or(f64::INFINITY);
                let cb = b.cost.unwrap_or(f64::INFINITY);
                ca.partial_cmp(&cb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.width.cmp(&b.width))
            })
            .cloned();
        match best {
            Some(row) => Ok(BusDesign {
                channels: channels.to_vec(),
                width: row.width,
                protocol: self.protocol,
                bus_rate: row.bus_rate,
                sum_ave_rates: row.sum_ave_rates,
                cost: row.cost.unwrap_or(0.0),
                exploration,
            }),
            None => Err(CoreError::NoFeasibleWidth { exploration }),
        }
    }

    /// Runs steps 1–4 for every candidate width without selecting.
    ///
    /// # Errors
    ///
    /// Same validation errors as [`BusGenerator::generate`], except that
    /// an infeasible exploration is returned, not an error.
    pub fn explore(
        &self,
        system: &System,
        channels: &[ChannelId],
    ) -> Result<Exploration, CoreError> {
        if channels.is_empty() {
            return Err(CoreError::EmptyChannelGroup);
        }
        for &ch in channels {
            if ch.index() >= system.channels.len() {
                return Err(CoreError::UnknownChannel { id: ch });
            }
        }
        let max_message = channels
            .iter()
            .map(|&c| system.channel(c).message_bits())
            .max()
            .unwrap_or(1)
            .max(1);
        let (lo, hi) = self.width_range.unwrap_or((1, max_message));
        let mut rows = Vec::with_capacity((hi - lo + 1) as usize);
        for width in lo..=hi {
            rows.push(self.evaluate_width(system, channels, width)?);
        }
        Ok(Exploration { rows })
    }

    /// Steps 2–4 for one candidate width.
    fn evaluate_width(
        &self,
        system: &System,
        channels: &[ChannelId],
        width: u32,
    ) -> Result<WidthRow, CoreError> {
        let timing = self.protocol.timing(width);
        let timings = ChannelTimings::uniform(channels, timing);
        let mut ave_rates = HashMap::new();
        let mut peak_rates = HashMap::new();
        for &ch in channels {
            ave_rates.insert(ch, self.rates.average_rate(system, ch, &timings)?);
            peak_rates.insert(ch, self.rates.peak_rate(system, ch, timing)?);
        }
        let metrics = WidthMetrics {
            width,
            bus_rate: timing.bus_rate(),
            ave_rates,
            peak_rates,
        };
        let sum = metrics.sum_ave_rates();
        let feasible = metrics.bus_rate >= sum;
        let cost = feasible.then(|| total_cost(&self.constraints, &metrics));
        Ok(WidthRow {
            width,
            bus_rate: metrics.bus_rate,
            sum_ave_rates: sum,
            feasible,
            cost,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsyn_spec::dsl::*;
    use ifsyn_spec::{Channel, ChannelDirection, Stmt, Ty};

    /// Two FLC-like channels: 128 accesses of (16 data + 7 addr) bits
    /// with per-access compute padding.
    fn flc_like() -> (System, ChannelId, ChannelId) {
        let mut sys = System::new("flc");
        let chip1 = sys.add_module("chip1");
        let chip2 = sys.add_module("chip2");
        let eval = sys.add_behavior("EVAL_R3", chip1);
        let conv = sys.add_behavior("CONV_R2", chip1);
        let store = sys.add_behavior("store", chip2);
        let trru0 = sys.add_variable("trru0", Ty::array(Ty::Int(16), 128), store);
        let trru2 = sys.add_variable("trru2", Ty::array(Ty::Int(16), 128), store);
        let i1 = sys.add_variable("i1", Ty::Int(16), eval);
        let i2 = sys.add_variable("i2", Ty::Int(16), conv);
        let tmp = sys.add_variable("tmp", Ty::Int(16), conv);
        let ch1 = sys.add_channel(Channel {
            name: "ch1".into(),
            accessor: eval,
            variable: trru0,
            direction: ChannelDirection::Write,
            data_bits: 16,
            addr_bits: 7,
            accesses: 128,
        });
        let ch2 = sys.add_channel(Channel {
            name: "ch2".into(),
            accessor: conv,
            variable: trru2,
            direction: ChannelDirection::Read,
            data_bits: 16,
            addr_bits: 7,
            accesses: 128,
        });
        sys.behavior_mut(eval).body = vec![for_loop(
            var(i1),
            int_const(0, 16),
            int_const(127, 16),
            vec![
                Stmt::compute(6, "evaluate rule"),
                send_at(ch1, load(var(i1)), load(var(i1))),
            ],
        )];
        sys.behavior_mut(conv).body = vec![for_loop(
            var(i2),
            int_const(0, 16),
            int_const(127, 16),
            vec![
                receive_at(ch2, load(var(i2)), var(tmp)),
                Stmt::compute(4, "convolve"),
            ],
        )];
        (sys, ch1, ch2)
    }

    #[test]
    fn unconstrained_generation_picks_smallest_feasible_width() {
        let (sys, ch1, ch2) = flc_like();
        let design = BusGenerator::new().generate(&sys, &[ch1, ch2]).unwrap();
        let min = design.exploration.min_feasible_width().unwrap();
        assert_eq!(design.width, min);
        assert!(design.bus_rate >= design.sum_ave_rates);
    }

    #[test]
    fn feasibility_is_monotone_in_width() {
        // Once feasible, wider buses stay feasible: the bus rate grows
        // linearly while average rates saturate.
        let (sys, ch1, ch2) = flc_like();
        let expl = BusGenerator::new().explore(&sys, &[ch1, ch2]).unwrap();
        let mut seen_feasible = false;
        for row in &expl.rows {
            if seen_feasible {
                assert!(row.feasible, "width {} regressed to infeasible", row.width);
            }
            seen_feasible |= row.feasible;
        }
        assert!(seen_feasible, "no feasible width at all");
    }

    #[test]
    fn peak_rate_constraint_pushes_width_up_to_twenty() {
        // Paper Fig. 8 design A: MinPeakRate(ch2) = 10 bits/clock forces
        // width/2 >= 10, i.e. width 20, reducing interconnect by ~56%.
        let (sys, ch1, ch2) = flc_like();
        let design = BusGenerator::new()
            .constraint(Constraint::min_peak_rate(ch2, 10.0, 10.0))
            .generate(&sys, &[ch1, ch2])
            .unwrap();
        assert_eq!(design.width, 20);
        let reduction = design.interconnect_reduction(&sys);
        assert!((reduction - (1.0 - 20.0 / 46.0)).abs() < 1e-9);
    }

    #[test]
    fn width_range_is_one_to_max_message() {
        let (sys, ch1, ch2) = flc_like();
        let expl = BusGenerator::new().explore(&sys, &[ch1, ch2]).unwrap();
        assert_eq!(expl.rows.first().unwrap().width, 1);
        assert_eq!(expl.rows.last().unwrap().width, 23);
    }

    #[test]
    fn no_feasible_width_reports_exploration() {
        // Channels with zero compute padding: every access is pure
        // transfer, so sum of rates ~ message/cycles exceeds bus rate at
        // every width for two saturating channels.
        let mut sys = System::new("hot");
        let m1 = sys.add_module("m1");
        let m2 = sys.add_module("m2");
        let store = sys.add_behavior("store", m2);
        let mut chans = Vec::new();
        for k in 0..3 {
            let b = sys.add_behavior(format!("P{k}"), m1);
            let v = sys.add_variable(format!("V{k}"), Ty::array(Ty::Int(16), 16), store);
            let i = sys.add_variable(format!("i{k}"), Ty::Int(16), b);
            let ch = sys.add_channel(Channel {
                name: format!("ch{k}"),
                accessor: b,
                variable: v,
                direction: ChannelDirection::Write,
                data_bits: 16,
                addr_bits: 4,
                accesses: 16,
            });
            sys.behavior_mut(b).body = vec![for_loop(
                var(i),
                int_const(0, 16),
                int_const(15, 16),
                vec![send_at(ch, load(var(i)), load(var(i)))],
            )];
            chans.push(ch);
        }
        let err = BusGenerator::new().generate(&sys, &chans).unwrap_err();
        match err {
            CoreError::NoFeasibleWidth { exploration } => {
                assert!(!exploration.rows.is_empty());
                assert!(exploration.min_feasible_width().is_none());
            }
            other => panic!("expected NoFeasibleWidth, got {other}"),
        }
    }

    #[test]
    fn empty_group_is_rejected() {
        let (sys, _, _) = flc_like();
        assert!(matches!(
            BusGenerator::new().generate(&sys, &[]),
            Err(CoreError::EmptyChannelGroup)
        ));
    }

    #[test]
    fn unknown_channel_is_rejected() {
        let (sys, ch1, _) = flc_like();
        assert!(matches!(
            BusGenerator::new().generate(&sys, &[ch1, ChannelId::new(99)]),
            Err(CoreError::UnknownChannel { .. })
        ));
    }

    #[test]
    fn id_and_wire_accounting() {
        let (sys, ch1, ch2) = flc_like();
        let design = BusGenerator::new()
            .constraint(Constraint::min_bus_width(16, 1.0))
            .generate(&sys, &[ch1, ch2])
            .unwrap();
        assert_eq!(design.id_bits(), 1); // 2 channels
        assert_eq!(design.control_lines(), 2); // full handshake
        assert_eq!(design.total_wires(), design.width + 3);
        assert_eq!(design.dedicated_wires(&sys), 46);
    }

    #[test]
    fn max_width_constraint_pulls_selection_down() {
        let (sys, ch1, ch2) = flc_like();
        let free = BusGenerator::new()
            .constraint(Constraint::min_peak_rate(ch2, 10.0, 10.0))
            .generate(&sys, &[ch1, ch2])
            .unwrap();
        let constrained = BusGenerator::new()
            .constraint(Constraint::min_peak_rate(ch2, 10.0, 1.0))
            .constraint(Constraint::min_bus_width(14, 5.0))
            .constraint(Constraint::max_bus_width(16, 5.0))
            .generate(&sys, &[ch1, ch2])
            .unwrap();
        assert!(constrained.width < free.width);
        assert_eq!(constrained.width, 16);
    }

    #[test]
    fn min_ave_rate_constraint_pushes_width_up() {
        // Demanding a floor on ch1's *average* rate penalises narrow
        // widths (where transfer time stretches the process and the
        // rate drops), pushing the selection up without any peak-rate
        // or width constraints.
        let (sys, ch1, ch2) = flc_like();
        let free = BusGenerator::new().generate(&sys, &[ch1, ch2]).unwrap();
        let constrained = BusGenerator::new()
            .constraint(Constraint::min_ave_rate(ch1, 2.8, 10.0))
            .generate(&sys, &[ch1, ch2])
            .unwrap();
        assert!(
            constrained.width > free.width,
            "{} !> {}",
            constrained.width,
            free.width
        );
        let rate = constrained
            .exploration
            .rows
            .iter()
            .find(|r| r.width == constrained.width)
            .unwrap()
            .metrics
            .ave_rate(ch1);
        assert!(rate >= 2.8 - 1e-9, "selected width satisfies the floor");
    }

    #[test]
    fn max_ave_rate_constraint_pulls_width_down() {
        // A ceiling on ch1's average rate (e.g. the remote memory can
        // only absorb so much) penalises wide, fast buses.
        let (sys, ch1, ch2) = flc_like();
        let constrained = BusGenerator::new()
            .constraint(Constraint::max_ave_rate(ch1, 2.0, 10.0))
            .generate(&sys, &[ch1, ch2])
            .unwrap();
        let rate = constrained
            .exploration
            .rows
            .iter()
            .find(|r| r.width == constrained.width)
            .unwrap()
            .metrics
            .ave_rate(ch1);
        assert!(rate <= 2.0 + 1e-9, "rate {rate} exceeds the ceiling");
    }

    #[test]
    fn cost_tie_at_adjacent_widths_breaks_toward_fewer_pins() {
        // With a satisfied min-width constraint every width >= the bound
        // prices at exactly 0, so adjacent feasible widths tie on cost
        // and the selection must fall to the tie-break (fewer pins).
        let (sys, ch1, ch2) = flc_like();
        let design = BusGenerator::new()
            .constraint(Constraint::min_bus_width(12, 5.0))
            .generate(&sys, &[ch1, ch2])
            .unwrap();
        let cost_at = |w: u32| {
            design
                .exploration
                .rows
                .iter()
                .find(|r| r.width == w)
                .and_then(|r| r.cost)
                .unwrap()
        };
        assert_eq!(cost_at(12), cost_at(13), "adjacent widths must tie");
        assert_eq!(design.width, 12, "tie broken toward fewer pins");
    }

    #[test]
    fn peak_rate_violation_cost_ranks_widths() {
        // Restrict exploration to widths where MinPeakRate(ch2)=10 is
        // violated everywhere (peak = width/2 < 10 for width < 20): the
        // cheapest violation — the widest bus in range — must win, and
        // the per-row costs must be the squared, weighted shortfalls.
        let (sys, ch1, ch2) = flc_like();
        let design = BusGenerator::new()
            .constraint(Constraint::min_peak_rate(ch2, 10.0, 10.0))
            .with_width_range(14, 18)
            .generate(&sys, &[ch1, ch2])
            .unwrap();
        assert_eq!(design.width, 18);
        for row in &design.exploration.rows {
            let shortfall = 10.0 - f64::from(row.width) / 2.0;
            let expected = 10.0 * shortfall * shortfall;
            assert!(
                (row.cost.unwrap() - expected).abs() < 1e-9,
                "width {}: cost {:?} != {expected}",
                row.width,
                row.cost
            );
        }
    }

    #[test]
    fn calibrated_rates_shift_the_feasibility_frontier() {
        // Doubling every measured rate makes narrow widths infeasible
        // that static estimation accepted — the calibration loop's whole
        // point. The selected width must not decrease, and the scaled
        // sums must be exactly 2x the static ones.
        let (sys, ch1, ch2) = flc_like();
        let static_design = BusGenerator::new().generate(&sys, &[ch1, ch2]).unwrap();
        let scale = HashMap::from([(ch1, 2.0), (ch2, 2.0)]);
        let model = RateModel::calibrated(ifsyn_estimate::ChannelRates::new(), scale);
        let calibrated = BusGenerator::new()
            .with_rate_model(model)
            .generate(&sys, &[ch1, ch2])
            .unwrap();
        assert!(calibrated.width > static_design.width);
        let static_row = &static_design.exploration.rows[0];
        let cal_row = &calibrated.exploration.rows[0];
        assert!((cal_row.sum_ave_rates - 2.0 * static_row.sum_ave_rates).abs() < 1e-12);
    }

    #[test]
    fn exploration_exports_csv() {
        let (sys, ch1, ch2) = flc_like();
        let expl = BusGenerator::new().explore(&sys, &[ch1, ch2]).unwrap();
        let csv = expl.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "width,bus_rate,sum_ave_rates,feasible,cost");
        assert_eq!(lines.len(), expl.rows.len() + 1);
        assert!(lines[1].starts_with("1,0.5,"));
    }

    #[test]
    fn explicit_width_range_is_respected() {
        let (sys, ch1, ch2) = flc_like();
        let expl = BusGenerator::new()
            .with_width_range(8, 12)
            .explore(&sys, &[ch1, ch2])
            .unwrap();
        assert_eq!(expl.rows.first().unwrap().width, 8);
        assert_eq!(expl.rows.last().unwrap().width, 12);
    }
}
