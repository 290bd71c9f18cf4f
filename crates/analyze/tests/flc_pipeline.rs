//! End-to-end analytics over the paper's FLC example: metadata export,
//! report-path vs VCD-path agreement, the estimated-vs-observed
//! cross-check, and convergence of the calibration loop.

use ifsyn_analyze::{
    analyze_report, analyze_vcd, calibrate, simulate_and_analyze, BusMeta, CalibrationOptions,
};
use ifsyn_core::{BusDesign, BusGenerator, ProtocolGenerator, ProtocolKind};
use ifsyn_estimate::{ChannelRates, ChannelTimings};
use ifsyn_sim::{vcd, SimConfig, Simulator};
use ifsyn_systems::flc;

#[test]
fn sidecar_export_matches_in_process_metadata() {
    // The sidecar the CLI writes must read back as the metadata the
    // analyzer extracts in-process.
    let f = flc::flc();
    let design = BusDesign::with_width(f.bus_channels(), 8, ProtocolKind::FullHandshake);
    let refined = ProtocolGenerator::new().refine(&f.system, &design).unwrap();
    let meta = BusMeta::from_refined(&refined);
    assert_eq!(BusMeta::from_json(&meta.to_json()).unwrap(), meta);
}

#[test]
fn alone_on_the_bus_observed_rate_equals_static_estimate() {
    // The calibration invariant: for a process alone on its bus the
    // simulator reproduces the analytic execution time exactly (the
    // Fig. 7 cross-check), so the measured rate must equal the static
    // estimate and the calibration scale factor must be 1.
    let f = flc::flc();
    for width in [4u32, 8, 16] {
        let design = BusDesign::with_width(vec![f.ch1], width, ProtocolKind::FullHandshake);
        let analysis = simulate_and_analyze(&f.system, &design, 2_000_000).unwrap();
        let timings = ChannelTimings::uniform(&[f.ch1], ProtocolKind::FullHandshake.timing(width));
        let estimated = ChannelRates::new()
            .average_rate(&f.system, f.ch1, &timings)
            .unwrap();
        let observed = analysis.observed_rate("ch1").unwrap();
        assert!(
            (observed - estimated).abs() < 1e-9,
            "width {width}: observed {observed} != estimated {estimated}"
        );
    }
}

#[test]
fn shared_bus_reports_contention_the_estimator_misses() {
    // Two channels arbitrating for a narrow bus: each accessor
    // stretches (Fig. 7's shared columns exceed the alone columns below
    // width 8), so observed rates fall below the static estimates.
    let f = flc::flc();
    let width = 4;
    let design = BusDesign::with_width(f.bus_channels(), width, ProtocolKind::FullHandshake);
    let analysis = simulate_and_analyze(&f.system, &design, 2_000_000).unwrap();
    assert_eq!(analysis.width, width);
    assert_eq!(analysis.channels.len(), 2);
    let timings =
        ChannelTimings::uniform(&f.bus_channels(), ProtocolKind::FullHandshake.timing(width));
    for (ch, name) in [(f.ch1, "ch1"), (f.ch2, "ch2")] {
        let estimated = ChannelRates::new()
            .average_rate(&f.system, ch, &timings)
            .unwrap();
        let observed = analysis.observed_rate(name).unwrap();
        assert!(
            observed < estimated,
            "{name}: contention must lower the rate ({observed} vs {estimated})"
        );
        assert!(observed > 0.0, "{name} moved data");
    }
    // All 128 messages of each channel were seen.
    for ch in &analysis.channels {
        assert_eq!(ch.messages, flc::FLC_ACCESSES, "{}", ch.name);
        assert!(ch.runs >= 1);
    }
    assert!(analysis.utilization > 0.0 && analysis.utilization <= 1.0);
    assert!(analysis.response_latency.count() == analysis.words);
}

#[test]
fn vcd_path_agrees_with_report_path() {
    // Analysing the written-out VCD must reproduce the in-memory
    // analysis except for channel lifetimes (behavior finish times are
    // not recorded in VCD, so rates use last-activity lifetimes there).
    let f = flc::flc();
    let design = BusDesign::with_width(f.bus_channels(), 6, ProtocolKind::FullHandshake);
    let refined = ProtocolGenerator::new().refine(&f.system, &design).unwrap();
    let config = SimConfig::new()
        .with_trace()
        .with_max_trace_events(2_000_000);
    let report = Simulator::with_config(&refined.system, config)
        .unwrap()
        .run_to_quiescence()
        .unwrap();
    let meta = BusMeta::from_refined(&refined);
    let live = analyze_report(&refined.system, &report, &meta).unwrap();
    let offline = analyze_vcd(&vcd::to_vcd_string(&refined.system, &report), &meta).unwrap();
    assert_eq!(offline.words, live.words);
    assert_eq!(offline.busy_cycles, live.busy_cycles);
    assert_eq!(offline.utilization, live.utilization);
    assert_eq!(offline.backpressure_cycles, live.backpressure_cycles);
    assert_eq!(offline.response_latency, live.response_latency);
    assert_eq!(offline.transfer_gap, live.transfer_gap);
    for (o, l) in offline.channels.iter().zip(&live.channels) {
        assert_eq!(o.words, l.words);
        assert_eq!(o.messages, l.messages);
        assert_eq!(o.runs, l.runs);
        assert_eq!(o.max_run_words, l.max_run_words);
    }
}

#[test]
fn calibration_on_the_shared_flc_reaches_a_fixed_point() {
    // Measured rates under contention are *lower* than the estimates
    // (the accessor stretches while arbitrating), which relaxes Eq. 1;
    // the loop therefore walks the width down, never up, and must end
    // on a width that re-selects itself.
    let f = flc::flc();
    let generator = BusGenerator::new();
    let report = calibrate(
        &f.system,
        &f.bus_channels(),
        &generator,
        CalibrationOptions::default(),
    )
    .unwrap();
    assert!(
        report.converged,
        "loop must reach a fixed point:\n{}",
        report.render()
    );
    assert!(!report.steps.is_empty());
    let first = &report.steps[0];
    assert_eq!(first.width, report.initial_width);
    // At the statically selected width CONV_R2 is stretched by
    // arbitration (Fig. 7: shared > alone) while EVAL_R3 happens to
    // interleave cleanly; every factor stays in (0, 1].
    for ch in &first.channels {
        assert!(
            ch.scale > 0.0 && ch.scale <= 1.0,
            "{}: {}",
            ch.name,
            ch.scale
        );
    }
    assert!(
        first.channels.iter().any(|c| c.scale < 0.999),
        "some contention must be measured:\n{}",
        report.render()
    );
    assert!(report.final_width <= report.initial_width);
    // The report's final analysis corresponds to the final width.
    assert_eq!(
        report.final_analysis.width,
        report.steps.last().unwrap().width
    );
}

#[test]
fn calibration_walks_down_and_converges_under_heavy_contention() {
    // Three same-shaped writer processes: static selection prices each
    // channel as if alone, picks a wide bus, and the first traced run
    // measures heavy arbitration losses. The loop must walk the width
    // monotonically down through several iterations and still converge.
    use ifsyn_spec::dsl::*;
    use ifsyn_spec::{Channel, ChannelDirection, Stmt, System, Ty};

    let mut sys = System::new("trio");
    let m1 = sys.add_module("m1");
    let m2 = sys.add_module("m2");
    let store = sys.add_behavior("store", m2);
    let mut chans = Vec::new();
    for (k, compute) in [(0u32, 6u64), (1, 4), (2, 5)] {
        let b = sys.add_behavior(format!("P{k}"), m1);
        let v = sys.add_variable(format!("V{k}"), Ty::array(Ty::Int(16), 128), store);
        let i = sys.add_variable(format!("i{k}"), Ty::Int(16), b);
        let ch = sys.add_channel(Channel {
            name: format!("ch{k}"),
            accessor: b,
            variable: v,
            direction: ChannelDirection::Write,
            data_bits: 16,
            addr_bits: 7,
            accesses: 128,
        });
        sys.behavior_mut(b).body = vec![for_loop(
            var(i),
            int_const(0, 16),
            int_const(127, 16),
            vec![
                Stmt::compute(compute, "work"),
                send_at(ch, load(var(i)), load(var(i))),
            ],
        )];
        chans.push(ch);
    }

    let report = calibrate(
        &sys,
        &chans,
        &BusGenerator::new(),
        CalibrationOptions::default(),
    )
    .unwrap();
    assert!(report.converged, "{}", report.render());
    assert!(
        report.steps.len() >= 2,
        "expected movement:\n{}",
        report.render()
    );
    assert!(
        report.final_width < report.initial_width,
        "measured contention must narrow the bus:\n{}",
        report.render()
    );
    for pair in report.steps.windows(2) {
        assert!(pair[1].width <= pair[0].width, "widths must not climb");
        assert_eq!(pair[0].next_width, pair[1].width);
    }
    let last = report.steps.last().unwrap();
    assert_eq!(last.next_width, last.width, "fixed point");
    // Heavy sharing: every channel's estimate overshoots what the trace
    // measured, in every iteration.
    for step in &report.steps {
        for ch in &step.channels {
            assert!(ch.observed_rate < ch.estimated_rate, "{}", ch.name);
            assert!(ch.relative_error() > 0.0);
        }
    }
}
