//! Figure 7: FLC process execution time vs bus width.
//!
//! For every width 1..=30 we report, for `EVAL_R3` and `CONV_R2`:
//!
//! * the **analytic** execution time (the paper's methodology — each
//!   process priced independently with the estimator of their ref \[10\]);
//! * the **measured** execution time of the process running alone on the
//!   bus (cross-check: equals the analytic value exactly);
//! * the **measured** execution time with both channels sharing the
//!   arbitrated bus — contention data the paper defers to future work.
//!
//! Both curves fall with width and flatten past 23 pins (16 data + 7
//! address bits); the paper's example constraint — CONV_R2 within 2000
//! clocks — excludes widths of 4 pins and below.

use ifsyn_core::{BusDesign, ProtocolGenerator, ProtocolKind};
use ifsyn_estimate::BusTiming;
use ifsyn_sim::Simulator;
use ifsyn_systems::flc::{self, CONV_COMPUTE_CYCLES, EVAL_COMPUTE_CYCLES, FLC_ACCESSES};

use crate::sweep::parallel_sweep;
use crate::table::Table;

/// One width's results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig7Row {
    /// Bus width in pins.
    pub width: u32,
    /// Analytic EVAL_R3 time (clocks).
    pub eval_analytic: u64,
    /// Analytic CONV_R2 time (clocks).
    pub conv_analytic: u64,
    /// Measured EVAL_R3 alone on the bus.
    pub eval_alone: u64,
    /// Measured CONV_R2 alone on the bus.
    pub conv_alone: u64,
    /// Measured EVAL_R3 sharing the bus with CONV_R2.
    pub eval_shared: u64,
    /// Measured CONV_R2 sharing the bus with EVAL_R3.
    pub conv_shared: u64,
}

/// The Fig. 7 sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig7Data {
    /// One row per width.
    pub rows: Vec<Fig7Row>,
    /// Smallest width meeting the paper's example constraint
    /// (CONV_R2 <= 2000 clocks).
    pub min_width_for_2000_clocks: u32,
}

fn analytic(width: u32, compute: u64) -> u64 {
    FLC_ACCESSES * (compute + BusTiming::new(width, 2).cycles_per_access(23))
}

/// Measured finish time of the process running alone on the bus.
fn measure_alone(channel_is_eval: bool, width: u32) -> u64 {
    let f = flc::flc();
    let ch = if channel_is_eval { f.ch1 } else { f.ch2 };
    let behavior = if channel_is_eval {
        f.eval_r3
    } else {
        f.conv_r2
    };
    let design = BusDesign::with_width(vec![ch], width, ProtocolKind::FullHandshake);
    let refined = ProtocolGenerator::new()
        .refine(&f.system, &design)
        .expect("fig7 refinement");
    let report = Simulator::new(&refined.system)
        .expect("fig7 sim setup")
        .run_to_quiescence()
        .expect("fig7 sim");
    report.finish_time(behavior).expect("process finished")
}

fn measure_shared(width: u32) -> (u64, u64) {
    let f = flc::flc();
    let design = BusDesign::with_width(f.bus_channels(), width, ProtocolKind::FullHandshake);
    let refined = ProtocolGenerator::new()
        .refine(&f.system, &design)
        .expect("fig7 shared refinement");
    let report = Simulator::new(&refined.system)
        .expect("fig7 shared sim setup")
        .run_to_quiescence()
        .expect("fig7 shared sim");
    (
        report.finish_time(f.eval_r3).expect("eval finished"),
        report.finish_time(f.conv_r2).expect("conv finished"),
    )
}

/// Runs the sweep over widths `1..=max_width`.
///
/// The widths are independent refine-and-simulate jobs, so they fan out
/// over all available cores via [`parallel_sweep`]; results come back in
/// width order regardless of scheduling.
pub fn run_to(max_width: u32) -> Fig7Data {
    let widths: Vec<u32> = (1..=max_width).collect();
    let rows = parallel_sweep(&widths, |&width| {
        let (eval_shared, conv_shared) = measure_shared(width);
        Fig7Row {
            width,
            eval_analytic: analytic(width, EVAL_COMPUTE_CYCLES),
            conv_analytic: analytic(width, CONV_COMPUTE_CYCLES),
            eval_alone: measure_alone(true, width),
            conv_alone: measure_alone(false, width),
            eval_shared,
            conv_shared,
        }
    });
    let min_width_for_2000_clocks = rows
        .iter()
        .find(|r| r.conv_analytic <= 2000)
        .map(|r| r.width)
        .unwrap_or(max_width);
    Fig7Data {
        rows,
        min_width_for_2000_clocks,
    }
}

/// Runs the paper's full sweep (widths 1..=30).
pub fn run() -> Fig7Data {
    run_to(30)
}

/// Renders the sweep as text.
pub fn render(data: &Fig7Data) -> String {
    let mut out = String::new();
    out.push_str("Figure 7 — FLC performance vs bus width (clocks)\n\n");
    let mut t = Table::new([
        "width",
        "EVAL_R3 est",
        "EVAL_R3 sim",
        "CONV_R2 est",
        "CONV_R2 sim",
        "EVAL shared",
        "CONV shared",
    ]);
    for r in &data.rows {
        t.row([
            r.width.to_string(),
            r.eval_analytic.to_string(),
            r.eval_alone.to_string(),
            r.conv_analytic.to_string(),
            r.conv_alone.to_string(),
            r.eval_shared.to_string(),
            r.conv_shared.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nCONV_R2 <= 2000 clocks requires width >= {} pins \
         (paper: \"only buswidths greater than 4 bits\")\n",
        data.min_width_for_2000_clocks
    ));
    out.push_str(
        "curves flatten past 23 pins: the 23-bit message (16 data + 7 addr) \
         cannot be parallelised further\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_equals_analytic_for_isolated_processes() {
        let data = run_to(10);
        for r in &data.rows {
            assert_eq!(r.eval_alone, r.eval_analytic, "width {}", r.width);
            assert_eq!(r.conv_alone, r.conv_analytic, "width {}", r.width);
        }
    }

    #[test]
    fn execution_time_is_monotone_decreasing() {
        let data = run_to(24);
        for pair in data.rows.windows(2) {
            assert!(pair[1].eval_analytic <= pair[0].eval_analytic);
            assert!(pair[1].conv_analytic <= pair[0].conv_analytic);
        }
    }

    #[test]
    fn constraint_threshold_matches_paper() {
        // "if process CONV_R2 has a maximum execution time constraint of
        // 2000 clocks, then only buswidths greater than 4 bits will be
        // considered".
        let data = run_to(8);
        assert_eq!(data.min_width_for_2000_clocks, 5);
        let w4 = &data.rows[3];
        assert!(w4.conv_analytic > 2000);
    }

    #[test]
    fn sharing_never_speeds_a_process_up() {
        let data = run_to(8);
        for r in &data.rows {
            assert!(r.eval_shared >= r.eval_alone, "width {}", r.width);
            assert!(r.conv_shared >= r.conv_alone, "width {}", r.width);
        }
    }
}
