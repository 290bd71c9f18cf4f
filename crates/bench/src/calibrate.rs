//! Measured-rate calibration campaign and the `BENCH_analyze.json`
//! emitter.
//!
//! Closes the loop between the static rate estimator (Section 3's
//! inputs) and the simulator: across the Fig. 7 sweep the FLC system is
//! traced and analyzed at every width, once per channel alone on the
//! bus and once shared, and the analyzer's observed transfer rates are
//! compared against the static estimates the width-selection loop
//! consumes.
//!
//! Two results are pinned:
//!
//! * **alone-on-the-bus rates are exact** — a process that never
//!   arbitrates runs at the analytic rate, so the observed rate must
//!   match the static estimate to floating-point noise (the same
//!   invariant Fig. 7's `measured == analytic` columns rest on);
//! * **shared-bus rates never exceed the estimates** — arbitration can
//!   only stretch an accessor, and the worst relative shortfall across
//!   the sweep must stay inside a pinned tolerance.
//!
//! The campaign then runs the fixed-point calibration loop
//! ([`ifsyn_analyze::calibrate()`]) on the shared FLC: measured rates
//! replace the static ones, width selection re-runs, and the loop must
//! converge on a width that re-selects itself. `experiments calibrate`
//! writes everything to `BENCH_analyze.json` and exits nonzero when any
//! pinned check fails.

use ifsyn_analyze::{calibrate, BusMeta, CalibrationOptions, CalibrationReport};
use ifsyn_core::{BusDesign, BusGenerator, ProtocolGenerator, ProtocolKind};
use ifsyn_estimate::{ChannelRates, ChannelTimings};
use ifsyn_sim::SimConfig;
use ifsyn_spec::{ChannelId, System};
use ifsyn_systems::flc;

use crate::batch::BatchRunner;
use crate::emit::{array_rows, json_str};
use crate::table::Table;

/// Trace-event budget per simulation (the shared width-1 run is the
/// largest trace in the sweep).
const TRACE_CAP: usize = 2_000_000;

/// Default ceiling on the worst shared-bus relative error across the
/// sweep. Pinned from a measured worst case of ~0.455 (width 1, where
/// both FLC channels stretch heavily while arbitrating); growth past
/// this means the simulator or analyzer drifted, shrinkage is fine.
pub const DEFAULT_TOLERANCE: f64 = 0.5;

/// Absolute slack allowed on the alone-on-the-bus exactness invariant.
pub const ALONE_EPS: f64 = 1e-9;

/// Estimated-vs-observed rates for one channel at one sweep width.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Bus width in bits.
    pub width: u32,
    /// Channel name (`ch1` = `EVAL_R3`, `ch2` = `CONV_R2`).
    pub channel: String,
    /// Static estimate with the channel alone on the bus.
    pub estimated_alone: f64,
    /// Analyzer-observed rate with the channel alone on the bus.
    pub observed_alone: f64,
    /// Static estimate on the shared two-channel bus.
    pub estimated_shared: f64,
    /// Analyzer-observed rate on the shared two-channel bus.
    pub observed_shared: f64,
}

impl SweepRow {
    /// Absolute relative error of the alone run (must be ~0).
    pub fn alone_error(&self) -> f64 {
        if self.estimated_alone == 0.0 {
            return self.observed_alone.abs();
        }
        ((self.observed_alone - self.estimated_alone) / self.estimated_alone).abs()
    }

    /// Signed relative shortfall of the shared run: positive when the
    /// estimator overshoots what the trace measured (contention),
    /// negative would mean the simulator beat the analytic rate.
    pub fn shared_error(&self) -> f64 {
        if self.estimated_shared == 0.0 {
            return 0.0;
        }
        (self.estimated_shared - self.observed_shared) / self.estimated_shared
    }
}

/// The whole campaign: the sweep cross-check plus the calibration
/// fixed point.
#[derive(Debug, Clone)]
pub struct CalibrateData {
    /// One row per (width, channel).
    pub rows: Vec<SweepRow>,
    /// The fixed-point calibration run on the shared FLC.
    pub calibration: CalibrationReport,
}

impl CalibrateData {
    /// Worst alone-run relative error across the sweep.
    pub fn max_alone_error(&self) -> f64 {
        self.rows
            .iter()
            .map(SweepRow::alone_error)
            .fold(0.0, f64::max)
    }

    /// Worst shared-run relative shortfall across the sweep.
    pub fn max_shared_error(&self) -> f64 {
        self.rows
            .iter()
            .map(SweepRow::shared_error)
            .fold(0.0, f64::max)
    }
}

/// Refines the FLC system restricted to `channels` at `width` and pairs
/// it with its bus metadata, ready for [`BatchRunner::run_analyzed`].
fn job(sys: &System, channels: Vec<ChannelId>, width: u32) -> (System, BusMeta) {
    let design = BusDesign::with_width(channels, width, ProtocolKind::FullHandshake);
    let refined = ProtocolGenerator::new()
        .refine(sys, &design)
        .expect("flc refinement");
    let meta = BusMeta::from_refined(&refined);
    (refined.system, meta)
}

/// Runs the campaign over the given sweep widths.
pub fn run_widths(widths: &[u32]) -> CalibrateData {
    let f = flc::flc();
    // Three traced configurations per width: shared, eval alone, conv
    // alone — the same grid as Fig. 7, but analyzed instead of timed.
    let mut jobs = Vec::with_capacity(widths.len() * 3);
    for &w in widths {
        jobs.push(job(&f.system, f.bus_channels(), w));
        jobs.push(job(&f.system, vec![f.ch1], w));
        jobs.push(job(&f.system, vec![f.ch2], w));
    }
    let runner = BatchRunner::new().with_config(SimConfig::new().with_max_trace_events(TRACE_CAP));
    let analyses = runner.run_analyzed(&jobs);

    let mut rows = Vec::with_capacity(widths.len() * 2);
    for (i, &width) in widths.iter().enumerate() {
        let shared = analyses[i * 3].as_ref().expect("shared analysis");
        let timing = ProtocolKind::FullHandshake.timing(width);
        let shared_timings = ChannelTimings::uniform(&f.bus_channels(), timing);
        for (k, (ch, name)) in [(f.ch1, "ch1"), (f.ch2, "ch2")].into_iter().enumerate() {
            let alone = analyses[i * 3 + 1 + k].as_ref().expect("alone analysis");
            let alone_timings = ChannelTimings::uniform(&[ch], timing);
            rows.push(SweepRow {
                width,
                channel: name.to_string(),
                estimated_alone: ChannelRates::new()
                    .average_rate(&f.system, ch, &alone_timings)
                    .expect("alone estimate"),
                observed_alone: alone.observed_rate(name).expect("alone rate"),
                estimated_shared: ChannelRates::new()
                    .average_rate(&f.system, ch, &shared_timings)
                    .expect("shared estimate"),
                observed_shared: shared.observed_rate(name).expect("shared rate"),
            });
        }
    }

    let calibration = calibrate(
        &f.system,
        &f.bus_channels(),
        &BusGenerator::new(),
        CalibrationOptions::default(),
    )
    .expect("flc calibration");
    CalibrateData { rows, calibration }
}

/// Runs the full campaign (the Fig. 7 widths, 1..=30).
pub fn run() -> CalibrateData {
    let widths: Vec<u32> = (1..=30).collect();
    run_widths(&widths)
}

/// Renders the campaign as text.
pub fn render(data: &CalibrateData) -> String {
    let mut out = String::new();
    out.push_str("Estimated vs observed channel rates (FLC, Fig. 7 sweep)\n\n");
    let mut t = Table::new([
        "width",
        "channel",
        "est alone",
        "obs alone",
        "err",
        "est shared",
        "obs shared",
        "shortfall",
    ]);
    for r in &data.rows {
        t.row([
            r.width.to_string(),
            r.channel.clone(),
            format!("{:.4}", r.estimated_alone),
            format!("{:.4}", r.observed_alone),
            format!("{:.1e}", r.alone_error()),
            format!("{:.4}", r.estimated_shared),
            format!("{:.4}", r.observed_shared),
            format!("{:.1}%", r.shared_error() * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nworst alone error: {:.2e}   worst shared shortfall: {:.1}%\n",
        data.max_alone_error(),
        data.max_shared_error() * 100.0
    ));
    out.push('\n');
    out.push_str(&data.calibration.render());
    out
}

/// Serializes the campaign as the `BENCH_analyze.json` document.
pub fn to_json(data: &CalibrateData) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"ifsyn-bench-analyze-v1\",\n");
    out.push_str(&format!(
        "  \"max_alone_error\": {:e},\n",
        data.max_alone_error()
    ));
    out.push_str(&format!(
        "  \"max_shared_error\": {:.6},\n",
        data.max_shared_error()
    ));
    out.push_str("  \"sweep\": [\n");
    array_rows(&mut out, &data.rows, |r| {
        format!(
            "    {{\"width\": {}, \"channel\": {}, \"estimated_alone\": {:.6}, \
             \"observed_alone\": {:.6}, \"estimated_shared\": {:.6}, \
             \"observed_shared\": {:.6}, \"shared_error\": {:.6}}}",
            r.width,
            json_str(&r.channel),
            r.estimated_alone,
            r.observed_alone,
            r.estimated_shared,
            r.observed_shared,
            r.shared_error(),
        )
    });
    out.push_str("  ],\n");
    let c = &data.calibration;
    out.push_str("  \"calibration\": {\n");
    out.push_str(&format!("    \"initial_width\": {},\n", c.initial_width));
    out.push_str(&format!("    \"final_width\": {},\n", c.final_width));
    out.push_str(&format!("    \"converged\": {},\n", c.converged));
    out.push_str(&format!("    \"iterations\": {},\n", c.steps.len()));
    out.push_str(&format!(
        "    \"final_utilization\": {:.6},\n",
        c.final_analysis.utilization
    ));
    out.push_str("    \"steps\": [\n");
    array_rows(&mut out, &c.steps, |s| {
        let channels: Vec<String> = s
            .channels
            .iter()
            .map(|ch| {
                format!(
                    "{{\"name\": {}, \"estimated\": {:.6}, \"observed\": {:.6}, \
                     \"scale\": {:.6}}}",
                    json_str(&ch.name),
                    ch.estimated_rate,
                    ch.observed_rate,
                    ch.scale,
                )
            })
            .collect();
        format!(
            "      {{\"iteration\": {}, \"width\": {}, \"next_width\": {}, \"channels\": [{}]}}",
            s.iteration,
            s.width,
            s.next_width,
            channels.join(", "),
        )
    });
    out.push_str("    ]\n  }\n}\n");
    out
}

/// Applies the pinned checks: alone-run exactness, shared rates never
/// above the estimates, the worst shared shortfall inside `tolerance`,
/// and convergence of the calibration loop.
///
/// # Errors
///
/// Returns `Err` with the list of violations when any pinned invariant
/// fails; `Ok` carries a one-line summary otherwise.
pub fn check(data: &CalibrateData, tolerance: f64) -> Result<String, String> {
    let mut violations = Vec::new();
    for r in &data.rows {
        if r.alone_error() > ALONE_EPS {
            violations.push(format!(
                "  width {} {}: alone-on-bus rate {:.9} deviates from the static \
                 estimate {:.9} (error {:.2e} > {ALONE_EPS:e})",
                r.width,
                r.channel,
                r.observed_alone,
                r.estimated_alone,
                r.alone_error()
            ));
        }
        if r.shared_error() < -ALONE_EPS {
            violations.push(format!(
                "  width {} {}: shared rate {:.9} exceeds the analytic ceiling {:.9}",
                r.width, r.channel, r.observed_shared, r.estimated_shared
            ));
        }
    }
    let worst = data.max_shared_error();
    if worst > tolerance {
        violations.push(format!(
            "  worst shared shortfall {:.3} exceeds the pinned tolerance {tolerance:.3}",
            worst
        ));
    }
    let c = &data.calibration;
    if !c.converged {
        violations.push(format!(
            "  calibration did not converge within {} iteration(s)",
            c.steps.len()
        ));
    }
    if c.final_width > c.initial_width {
        violations.push(format!(
            "  calibration widened the bus ({} -> {}): measured contention must \
             only relax Eq. 1",
            c.initial_width, c.final_width
        ));
    }
    if violations.is_empty() {
        Ok(format!(
            "alone exact to {:.1e}; worst shared shortfall {:.1}% <= {:.1}%; \
             calibration {} -> {} in {} iteration(s)\n",
            data.max_alone_error(),
            worst * 100.0,
            tolerance * 100.0,
            c.initial_width,
            c.final_width,
            c.steps.len()
        ))
    } else {
        Err(violations.join("\n") + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CalibrateData {
        run_widths(&[4, 8])
    }

    #[test]
    fn alone_runs_match_the_static_estimates_exactly() {
        let data = small();
        assert_eq!(data.rows.len(), 4);
        assert!(
            data.max_alone_error() <= ALONE_EPS,
            "worst alone error {:.3e}",
            data.max_alone_error()
        );
    }

    #[test]
    fn shared_runs_fall_short_of_the_estimates_at_narrow_widths() {
        let data = small();
        // Width 4 is inside Fig. 7's contention region: both channels
        // stretch, so both shortfalls are strictly positive.
        for r in data.rows.iter().filter(|r| r.width == 4) {
            assert!(r.shared_error() > 0.0, "{}: {:?}", r.channel, r);
        }
        // Nothing ever beats the analytic ceiling.
        for r in &data.rows {
            assert!(r.shared_error() >= -ALONE_EPS, "{r:?}");
        }
    }

    #[test]
    fn check_passes_at_the_pinned_tolerance_and_fails_at_zero() {
        let data = small();
        let ok = check(&data, DEFAULT_TOLERANCE).expect("pinned tolerance holds");
        assert!(ok.contains("calibration"));
        // Width 4 contention pushes the worst shortfall above zero.
        let err = check(&data, 0.0).expect_err("zero tolerance must trip");
        assert!(err.contains("pinned tolerance"), "{err}");
    }

    #[test]
    fn calibration_converges_and_never_widens() {
        let data = small();
        assert!(data.calibration.converged, "{}", data.calibration.render());
        assert!(data.calibration.final_width <= data.calibration.initial_width);
    }

    #[test]
    fn json_names_the_schema_and_every_row() {
        let data = small();
        let json = to_json(&data);
        assert!(json.contains("\"schema\": \"ifsyn-bench-analyze-v1\""));
        assert!(json.contains("\"width\": 4"));
        assert!(json.contains("\"channel\": \"ch1\""));
        assert!(json.contains("\"calibration\": {"));
        assert!(json.contains("\"converged\": true"));
        assert!(json.trim_end().ends_with('}'));
    }
}
