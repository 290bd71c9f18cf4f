//! Round-trip tests of the simulator's VCD emitter through the
//! analyzer's parser: what `ifsyn_sim::vcd` writes, `ifsyn_analyze::vcd`
//! must read back losslessly.

use ifsyn_analyze::vcd::parse_vcd;
use ifsyn_sim::{vcd, SimConfig, Simulator};
use ifsyn_spec::dsl::*;
use ifsyn_spec::{System, Ty, Value};

fn traced(sys: &System) -> ifsyn_sim::SimReport {
    Simulator::with_config(sys, SimConfig::new().with_trace())
        .unwrap()
        .run_to_quiescence()
        .unwrap()
}

#[test]
fn round_trip_preserves_names_initials_and_events() {
    let mut sys = System::new("rt");
    let m = sys.add_module("chip");
    let req = sys.add_signal("REQ", Ty::Bit);
    let data = sys.add_signal("DATA", Ty::Bits(16));
    let b = sys.add_behavior("P", m);
    sys.behavior_mut(b).body = vec![
        drive_cost(data, bits_const(0xbeef, 16), 1),
        drive_cost(req, bit_const(true), 1),
        drive_cost(data, bits_const(0x1234, 16), 2),
        drive_cost(req, bit_const(false), 1),
    ];
    let report = traced(&sys);

    let parsed = parse_vcd(&vcd::to_vcd_string(&sys, &report)).unwrap();
    assert_eq!(
        parsed
            .vars
            .iter()
            .map(|v| v.name.as_str())
            .collect::<Vec<_>>(),
        vec!["REQ", "DATA"]
    );
    assert_eq!(parsed.vars[1].width, 16);
    // Initial values: Int/Bits initials come back as raw bit vectors.
    assert_eq!(parsed.initials[0], Value::Bit(false));
    assert_eq!(parsed.initials[1].to_bits().to_u64(), 0);
    // Events: same times, same signals (by index), same bit patterns.
    assert_eq!(parsed.events.len(), report.trace().len());
    for (p, m) in parsed.events.iter().zip(report.trace()) {
        assert_eq!(p.time, m.time);
        assert_eq!(p.signal, m.signal);
        assert_eq!(p.value.to_bits(), m.value.to_bits());
    }
    assert_eq!(parsed.end_time, report.time());
}

#[test]
fn wide_vectors_survive_the_round_trip() {
    // A 100-bit signal with bits set above position 64: the emitter must
    // print all 100 bits MSB-first and the parser must rebuild them.
    let mut sys = System::new("wide");
    let m = sys.add_module("chip");
    let wide = sys.add_signal("WIDE", Ty::Bits(100));
    let b = sys.add_behavior("P", m);
    // concat(hi 36 bits, lo 64 bits) -> 100 bits with high bits set.
    let value = concat(
        bits_const(0xf_feed_cafe, 36),
        bits_const(0xdead_beef_0123_4567, 64),
    );
    sys.behavior_mut(b).body = vec![drive_cost(wide, value, 1)];
    let report = traced(&sys);

    let text = vcd::to_vcd_string(&sys, &report);
    let parsed = parse_vcd(&text).unwrap();
    assert_eq!(parsed.vars[0].width, 100);
    let got = parsed.events.last().unwrap().value.to_bits();
    let want = report.trace().last().unwrap().value.to_bits();
    assert_eq!(got.width(), 100);
    assert_eq!(got, want);
    // Spot-check that bits above position 64 really are set.
    assert!((64..100).any(|i| got.bit(i)), "high bits lost: {got}");
}

#[test]
fn timestamps_are_monotone_and_accepted() {
    // The parser rejects backwards time, so a clean parse of a real dump
    // doubles as a monotonicity check of the emitter.
    let mut sys = System::new("mono");
    let m = sys.add_module("chip");
    let s = sys.add_signal("S", Ty::Bit);
    let t = sys.add_signal("T", Ty::Bit);
    let b1 = sys.add_behavior("P1", m);
    let b2 = sys.add_behavior("P2", m);
    sys.behavior_mut(b1).body = vec![
        drive_cost(s, bit_const(true), 1),
        drive_cost(s, bit_const(false), 3),
        drive_cost(s, bit_const(true), 2),
    ];
    sys.behavior_mut(b2).body = vec![
        drive_cost(t, bit_const(true), 2),
        drive_cost(t, bit_const(false), 2),
    ];
    let report = traced(&sys);
    let parsed = parse_vcd(&vcd::to_vcd_string(&sys, &report)).unwrap();
    for pair in parsed.events.windows(2) {
        assert!(pair[0].time <= pair[1].time);
    }
    assert!(parsed.end_time >= parsed.events.last().unwrap().time);
}

#[test]
fn identifier_codes_stay_unique_past_the_single_char_range() {
    // More signals than printable one-char codes (94): the emitter must
    // switch to multi-char codes without collisions — the parser errors
    // on duplicates, so a clean parse proves uniqueness.
    let mut sys = System::new("many");
    let m = sys.add_module("chip");
    let signals: Vec<_> = (0..200)
        .map(|i| sys.add_signal(format!("S{i}"), Ty::Bit))
        .collect();
    let b = sys.add_behavior("P", m);
    // Touch the last signal so codes appear in the change section too.
    sys.behavior_mut(b).body = vec![drive_cost(*signals.last().unwrap(), bit_const(true), 1)];
    let report = traced(&sys);
    let parsed = parse_vcd(&vcd::to_vcd_string(&sys, &report)).unwrap();
    assert_eq!(parsed.vars.len(), 200);
    assert_eq!(parsed.vars[199].name, "S199");
    assert_eq!(parsed.events.len(), 1);
    assert_eq!(parsed.events[0].signal.index(), 199);
}
