//! VCD (Value Change Dump) export of simulation traces.
//!
//! The recorded signal trace of a [`SimReport`] renders as an IEEE
//! 1364 VCD file, viewable in any waveform viewer (GTKWave etc.) —
//! handy for inspecting generated bus protocols cycle by cycle.
//!
//! Tracing must be enabled ([`crate::SimConfig::with_trace`]) for the
//! dump to contain changes; without it only initial values appear.

use std::fmt::Write as _;

use ifsyn_spec::{System, Value};

use crate::report::SimReport;

/// Renders the signal trace of `report` as VCD text.
///
/// Signals are declared in system order under one `top` scope; the
/// timescale is 1 ns per simulated clock. Changes follow in the order
/// the kernel recorded them (non-decreasing time), and the dump closes
/// at the report's final time.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use ifsyn_sim::{SimConfig, Simulator};
/// use ifsyn_spec::{System, Ty, dsl::*};
///
/// let mut sys = System::new("demo");
/// let m = sys.add_module("chip");
/// let s = sys.add_signal("PULSE", Ty::Bit);
/// let b = sys.add_behavior("P", m);
/// sys.behavior_mut(b).body = vec![
///     drive_cost(s, bit_const(true), 1),
///     drive_cost(s, bit_const(false), 1),
/// ];
/// let report = Simulator::with_config(&sys, SimConfig::new().with_trace())?
///     .run_to_quiescence()?;
/// let vcd = ifsyn_sim::vcd::to_vcd_string(&sys, &report);
/// assert!(vcd.contains("$var wire 1"));
/// assert!(vcd.contains("#1"));
/// # Ok(())
/// # }
/// ```
pub fn to_vcd_string(system: &System, report: &SimReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "$comment interface-synthesis simulation of {} $end",
        system.name
    );
    let _ = writeln!(out, "$timescale 1ns $end");
    let _ = writeln!(out, "$scope module top $end");
    let ids: Vec<String> = (0..system.signals.len()).map(code_for).collect();
    for (decl, id) in system.signals.iter().zip(&ids) {
        let width = decl.ty.bit_width();
        if width == 1 {
            let _ = writeln!(out, "$var wire 1 {id} {} $end", decl.name);
        } else {
            let _ = writeln!(
                out,
                "$var wire {width} {id} {} [{}:0] $end",
                decl.name,
                width - 1
            );
        }
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");
    let _ = writeln!(out, "$dumpvars");
    for (decl, id) in system.signals.iter().zip(&ids) {
        emit_value(&mut out, &decl.initial_value(), id);
    }
    let _ = writeln!(out, "$end");
    let mut current_time = None;
    for event in report.trace() {
        if current_time != Some(event.time) {
            let _ = writeln!(out, "#{}", event.time);
            current_time = Some(event.time);
        }
        emit_value(&mut out, &event.value, &ids[event.signal.index()]);
    }
    // Close the waveform at the final time.
    if current_time != Some(report.time()) {
        let _ = writeln!(out, "#{}", report.time());
    }
    out
}

/// VCD identifier codes: printable ASCII 33..=126, base-94 per index.
fn code_for(index: usize) -> String {
    let mut n = index;
    let mut code = String::new();
    loop {
        code.push(char::from(33 + (n % 94) as u8));
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    code
}

fn emit_value(out: &mut String, value: &Value, id: &str) {
    match value {
        Value::Bit(b) => {
            let _ = writeln!(out, "{}{id}", if *b { '1' } else { '0' });
        }
        other => {
            let bits = other.to_bits();
            let _ = writeln!(out, "b{bits} {id}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use ifsyn_spec::dsl::*;
    use ifsyn_spec::Ty;

    fn traced_report() -> (System, SimReport) {
        let mut sys = System::new("vcd");
        let m = sys.add_module("chip");
        let bit = sys.add_signal("REQ", Ty::Bit);
        let bus = sys.add_signal("DATA", Ty::Bits(8));
        let b = sys.add_behavior("P", m);
        sys.behavior_mut(b).body = vec![
            drive_cost(bus, bits_const(0xa5, 8), 1),
            drive_cost(bit, bit_const(true), 1),
            drive_cost(bit, bit_const(false), 2),
        ];
        let report = Simulator::with_config(&sys, SimConfig::new().with_trace())
            .unwrap()
            .run_to_quiescence()
            .unwrap();
        (sys, report)
    }

    #[test]
    fn declares_all_signals_with_widths() {
        let (sys, report) = traced_report();
        let vcd = to_vcd_string(&sys, &report);
        assert!(vcd.contains("$var wire 1 ! REQ $end"), "{vcd}");
        assert!(vcd.contains("$var wire 8 \" DATA [7:0] $end"), "{vcd}");
    }

    #[test]
    fn dumps_initial_values_and_changes() {
        let (sys, report) = traced_report();
        let vcd = to_vcd_string(&sys, &report);
        assert!(vcd.contains("$dumpvars"), "{vcd}");
        assert!(vcd.contains("0!"), "initial REQ low: {vcd}");
        assert!(
            vcd.contains("#1\nb10100101 \""),
            "DATA change at t=1: {vcd}"
        );
        assert!(vcd.contains("#2\n1!"), "REQ rise at t=2: {vcd}");
        assert!(vcd.contains("#4\n0!"), "REQ fall at t=4: {vcd}");
    }

    #[test]
    fn id_codes_are_unique_and_printable() {
        let codes: Vec<String> = (0..300).map(code_for).collect();
        let mut dedup = codes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
        for c in &codes {
            assert!(c.chars().all(|ch| ('!'..='~').contains(&ch)));
        }
    }

    #[test]
    fn untraced_report_still_renders_header() {
        let mut sys = System::new("plain");
        let m = sys.add_module("chip");
        sys.add_signal("S", Ty::Bit);
        let b = sys.add_behavior("P", m);
        sys.behavior_mut(b).body = vec![ifsyn_spec::Stmt::compute(3, "w")];
        let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
        let vcd = to_vcd_string(&sys, &report);
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("#3"));
    }
}
