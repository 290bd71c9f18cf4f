//! Trace recording and truncation on a field of many parallel processes.
//!
//! A [`SimReport`] records its signal changes "in non-decreasing time
//! order, exactly as the kernel recorded them", and the VCD renderer
//! writes them in that order. A synthetic field whose processes
//! interleave over a few thousand events checks both promises, and that
//! the [`SimConfig::with_max_trace_events`] bound cuts the recorded
//! stream without reordering it.

use ifsyn_sim::vcd::to_vcd_string;
use ifsyn_sim::{SimConfig, SimReport, Simulator};
use ifsyn_spec::System;
use ifsyn_systems::{synth_system, SynthConfig};

/// A synthetic field busy enough to interleave many processes over a
/// few thousand trace events.
fn field() -> ifsyn_systems::SynthSystem {
    synth_system(
        &SynthConfig::new()
            .with_couples(6)
            .with_rounds(12)
            .with_compute(16)
            .with_seed(0x7eace),
    )
}

fn run(sys: &System, config: SimConfig) -> SimReport {
    Simulator::with_config(sys, config)
        .expect("system compiles")
        .run_to_quiescence()
        .expect("system quiesces")
}

#[test]
fn the_vcd_renders_the_report_trace_in_time_order() {
    let f = field();
    let report = run(&f.system, SimConfig::new().with_trace());
    let trace = report.trace();
    // The documented ordering guarantee: non-decreasing time.
    assert!(
        trace.windows(2).all(|w| w[0].time <= w[1].time),
        "events out of time order"
    );
    // The VCD body after `$dumpvars` holds one value line per signal,
    // then one per event, under strictly increasing timestamps that end
    // at the report's final time.
    let vcd = to_vcd_string(&f.system, &report);
    let (_, body) = vcd.split_once("$dumpvars\n").expect("VCD header rendered");
    let (initials, changes) = body.split_once("$end\n").expect("initial dump closed");
    assert_eq!(initials.lines().count(), f.system.signals.len());
    let stamps: Vec<u64> = changes
        .lines()
        .filter_map(|l| l.strip_prefix('#'))
        .map(|t| t.parse().expect("timestamp"))
        .collect();
    assert!(stamps.windows(2).all(|w| w[0] < w[1]), "timestamps repeat");
    assert_eq!(stamps.last(), Some(&report.time()));
    assert_eq!(
        changes.lines().filter(|l| !l.starts_with('#')).count(),
        trace.len(),
        "one value line per recorded event"
    );
}

#[test]
fn trace_truncation_cuts_at_the_same_event() {
    let f = field();
    let full = run(&f.system, SimConfig::new().with_trace());
    let cap = full.trace().len() / 2;
    assert!(cap > 0, "field produces enough events to truncate");
    let capped = run(
        &f.system,
        SimConfig::new().with_trace().with_max_trace_events(cap),
    );
    assert_eq!(capped.trace().len(), cap, "capped run filled the bound");
    assert_eq!(
        capped.trace(),
        &full.trace()[..cap],
        "truncation is a prefix of the full trace"
    );
}
