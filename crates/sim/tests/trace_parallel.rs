//! Trace replay and truncation on a field of many parallel processes.
//!
//! [`TraceSink`] documents that `change` hooks arrive "in non-decreasing
//! time order, exactly as the kernel recorded them", and every sink rides
//! the same [`emit_trace`] replay. A synthetic field whose processes
//! interleave over a few thousand events checks both promises, and that
//! the [`SimConfig::with_max_trace_events`] bound cuts the recorded stream
//! without reordering it.

use ifsyn_sim::trace::{emit_trace, MemorySink, TraceSink};
use ifsyn_sim::vcd::{to_vcd_string, VcdSink};
use ifsyn_sim::{SimConfig, SimReport, Simulator};
use ifsyn_spec::{SignalId, System};
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
fn memory_sink_sees_the_same_replay_as_the_vcd_renderer() {
    // Both sinks ride the same `emit_trace` replay: the MemorySink stream
    // mirrors the report, and feeding it back into a VcdSink renders the
    // VCD text drawn straight from the report.
    let f = field();
    let report = run(&f.system, SimConfig::new().with_trace());
    let mut sink = MemorySink::new();
    emit_trace(&f.system, &report, &mut sink);
    assert_eq!(sink.events, report.trace(), "sink mirrors its report");
    // The documented ordering guarantee: non-decreasing time.
    assert!(
        sink.events.windows(2).all(|w| w[0].time <= w[1].time),
        "events out of time order"
    );

    let mut vcd = VcdSink::new();
    vcd.begin(&f.system);
    for (i, value) in sink.initials.iter().enumerate() {
        vcd.initial(SignalId::new(i as u32), value);
    }
    vcd.start_changes();
    for event in &sink.events {
        vcd.change(event.time, event.signal, &event.value);
    }
    vcd.finish(sink.end_time);
    let vcd = vcd.into_string();
    assert!(vcd.contains("$enddefinitions"), "VCD header rendered");
    assert_eq!(
        vcd,
        to_vcd_string(&f.system, &report),
        "VCD renderer saw a different replay"
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
