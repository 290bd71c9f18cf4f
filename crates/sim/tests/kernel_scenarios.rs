//! End-to-end scenario tests for the discrete-event kernel.

use ifsyn_sim::{Checker, SimConfig, SimError, SimReport, Simulator};
use ifsyn_spec::dsl::*;
use ifsyn_spec::{
    Arg, BitVec, Channel, ChannelDirection, ParamMode, Procedure, Stmt, System, Ty, Value, VarId,
};

/// A one-module system shell.
fn shell() -> (System, ifsyn_spec::ModuleId) {
    let mut sys = System::new("test");
    let m = sys.add_module("chip");
    (sys, m)
}

/// Explores `sys` with the model checker and asserts that it agrees with
/// the kernel's run of the same deterministic system: a clean run must
/// be the checker's one terminal state, with the kernel report's final
/// variables; a run the kernel stops with an evaluation error must be
/// the checker's one crash, labelled with that error.
fn assert_checker_agrees(sys: &System, kernel: Result<&SimReport, &SimError>) {
    let checker = Checker::new(sys).unwrap();
    let space = checker.explore().unwrap();
    match kernel {
        Ok(report) => {
            assert_eq!(space.error_labels(), Vec::<String>::new());
            assert_eq!(space.terminal_count(), 1);
            let rep = space.check_terminal("kernel final variables", |v| {
                sys.variables
                    .iter()
                    .all(|d| v.variable(&d.name) == report.final_variable_by_name(&d.name))
            });
            assert!(rep.holds, "{rep}");
        }
        Err(err) => {
            assert!(matches!(err, SimError::Eval { .. }), "{err}");
            let labels = space.error_labels();
            assert_eq!(labels.len(), 1, "{labels:?}");
            assert!(
                labels[0].ends_with(&format!("crashes: {err}")),
                "{labels:?}"
            );
        }
    }
}

#[test]
fn straight_line_costs_accumulate_into_finish_time() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let x = sys.add_variable("x", Ty::Int(16), b);
    sys.behavior_mut(b).body = vec![
        assign(var(x), int_const(1, 16)),         // 1 cycle
        assign_cost(var(x), int_const(2, 16), 7), // 7 cycles
        Stmt::compute(10, "work"),                // 10 cycles
        wait_cycles(5),                           // 5 cycles
    ];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_eq!(report.finish_time(b), Some(23));
    assert_eq!(report.final_variable(x), &Value::int(2, 16));
}

#[test]
fn for_loop_runs_exact_iterations() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let i = sys.add_variable("i", Ty::Int(16), b);
    let acc = sys.add_variable("acc", Ty::Int(32), b);
    sys.behavior_mut(b).body = vec![for_loop(
        var(i),
        int_const(1, 16),
        int_const(10, 16),
        vec![assign(var(acc), add(load(var(acc)), load(var(i))))],
    )];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_checker_agrees(&sys, Ok(&report));
    // sum 1..=10 = 55; 10 assignments at 1 cycle each.
    assert_eq!(report.final_variable(acc).as_i64().unwrap(), 55);
    assert_eq!(report.finish_time(b), Some(10));
}

#[test]
fn nested_loops_multiply() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let i = sys.add_variable("i", Ty::Int(16), b);
    let j = sys.add_variable("j", Ty::Int(16), b);
    let acc = sys.add_variable("acc", Ty::Int(32), b);
    sys.behavior_mut(b).body = vec![for_loop(
        var(i),
        int_const(0, 16),
        int_const(3, 16),
        vec![for_loop(
            var(j),
            int_const(0, 16),
            int_const(4, 16),
            vec![assign(var(acc), add(load(var(acc)), int_const(1, 32)))],
        )],
    )];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_checker_agrees(&sys, Ok(&report));
    assert_eq!(report.final_variable(acc).as_i64().unwrap(), 20);
}

#[test]
fn while_loop_with_variable_condition() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let n = sys.add_variable_init("n", Ty::Int(16), b, Value::int(5, 16));
    let acc = sys.add_variable("acc", Ty::Int(16), b);
    sys.behavior_mut(b).body = vec![while_loop(
        lt(int_const(0, 16), load(var(n))),
        vec![
            assign(var(acc), add(load(var(acc)), int_const(2, 16))),
            assign(var(n), sub(load(var(n)), int_const(1, 16))),
        ],
    )];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_checker_agrees(&sys, Ok(&report));
    assert_eq!(report.final_variable(acc).as_i64().unwrap(), 10);
    assert_eq!(report.final_variable(n).as_i64().unwrap(), 0);
}

#[test]
fn procedure_out_param_copies_back() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let y = sys.add_variable("y", Ty::Int(16), b);
    let mut p = Procedure::new("give_seven");
    let out_slot = p.add_param("result", Ty::Int(16), ParamMode::Out);
    p.body = vec![assign(local(out_slot), int_const(7, 16))];
    let pid = sys.add_procedure(p);
    sys.behavior_mut(b).body = vec![call(pid, vec![Arg::Out(var(y))])];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_checker_agrees(&sys, Ok(&report));
    assert_eq!(report.final_variable(y).as_i64().unwrap(), 7);
}

#[test]
fn procedure_inout_reads_and_writes() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let y = sys.add_variable_init("y", Ty::Int(16), b, Value::int(20, 16));
    let mut p = Procedure::new("double");
    let s = p.add_param("x", Ty::Int(16), ParamMode::InOut);
    p.body = vec![assign(local(s), mul(load(local(s)), int_const(2, 16)))];
    let pid = sys.add_procedure(p);
    sys.behavior_mut(b).body = vec![
        call(pid, vec![Arg::InOut(var(y))]),
        call(pid, vec![Arg::InOut(var(y))]),
    ];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_checker_agrees(&sys, Ok(&report));
    assert_eq!(report.final_variable(y).as_i64().unwrap(), 80);
}

#[test]
fn out_param_array_index_captured_at_call_time() {
    // VHDL evaluates the actual's name once at the call: even if the index
    // variable changes inside the callee, copy-back hits the original slot.
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let arr = sys.add_variable("arr", Ty::array(Ty::Int(16), 4), b);
    let idx = sys.add_variable_init("idx", Ty::Int(16), b, Value::int(1, 16));
    let mut p = Procedure::new("clobber_index_then_store");
    let out_slot = p.add_param("result", Ty::Int(16), ParamMode::Out);
    p.body = vec![
        assign(var(idx), int_const(3, 16)), // callee changes the index var
        assign(local(out_slot), int_const(99, 16)),
    ];
    let pid = sys.add_procedure(p);
    sys.behavior_mut(b).body = vec![call(pid, vec![Arg::Out(index(var(arr), load(var(idx))))])];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_checker_agrees(&sys, Ok(&report));
    let arr_final = report.final_variable(arr);
    match arr_final {
        Value::Array(items) => {
            assert_eq!(items[1].as_i64().unwrap(), 99, "copy-back must use index 1");
            assert_eq!(items[3].as_i64().unwrap(), 0);
        }
        other => panic!("expected array, got {other}"),
    }
}

#[test]
fn slice_writes_update_only_their_bits() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let x = sys.add_variable("x", Ty::Bits(8), b);
    sys.behavior_mut(b).body = vec![
        assign(slice(var(x), 7, 4), bits_const(0b1010, 4)),
        assign(slice(var(x), 3, 0), bits_const(0b0101, 4)),
    ];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_checker_agrees(&sys, Ok(&report));
    assert_eq!(
        report.final_variable(x),
        &Value::Bits(BitVec::from_u64(0b1010_0101, 8))
    );
}

/// Builds a two-process four-phase handshake moving `words` data words,
/// with protocol-generation-style costs (rising edges cost 1, falling
/// edges and latches cost 0). Returns (system, sender, receiver, rx_var).
fn handshake_system(
    words: u64,
) -> (
    System,
    ifsyn_spec::BehaviorId,
    ifsyn_spec::BehaviorId,
    ifsyn_spec::VarId,
) {
    let (mut sys, m) = shell();
    let m2 = sys.add_module("chip2");
    let start = sys.add_signal("B_START", Ty::Bit);
    let done = sys.add_signal("B_DONE", Ty::Bit);
    let data = sys.add_signal("B_DATA", Ty::Bits(8));

    let tx = sys.add_behavior("sender", m);
    let rx = sys.add_behavior("receiver", m2);
    let txi = sys.add_variable("txi", Ty::Int(16), tx);
    let rxbuf = sys.add_variable("rxbuf", Ty::array(Ty::Bits(8), 64), rx);
    let rxi = sys.add_variable("rxi", Ty::Int(16), rx);

    // Sender: for each word drive DATA=word index, START<=1 (1 cycle);
    // wait DONE; START<=0 (0 cycles); wait not DONE.
    sys.behavior_mut(tx).body = vec![for_loop(
        var(txi),
        int_const(0, 16),
        int_const(words as i64 - 1, 16),
        vec![
            drive_cost(data, resize(load(var(txi)), 8), 0),
            drive_cost(start, bit_const(true), 1),
            wait_until(eq(signal(done), bit_const(true))),
            drive_cost(start, bit_const(false), 0),
            wait_until(eq(signal(done), bit_const(false))),
        ],
    )];
    // Receiver: for each word wait START; latch (0 cost); DONE<=1 (1);
    // wait not START; DONE<=0 (0).
    sys.behavior_mut(rx).body = vec![for_loop(
        var(rxi),
        int_const(0, 16),
        int_const(words as i64 - 1, 16),
        vec![
            wait_until(eq(signal(start), bit_const(true))),
            assign_cost(index(var(rxbuf), load(var(rxi))), signal(data), 0),
            drive_cost(done, bit_const(true), 1),
            wait_until(eq(signal(start), bit_const(false))),
            drive_cost(done, bit_const(false), 0),
        ],
    )];
    (sys, tx, rx, rxbuf)
}

#[test]
fn handshake_transfers_all_words_intact() {
    let (sys, _tx, _rx, rxbuf) = handshake_system(16);
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    match report.final_variable(rxbuf) {
        Value::Array(items) => {
            for (i, item) in items.iter().take(16).enumerate() {
                assert_eq!(item.as_u64().unwrap(), i as u64, "word {i}");
            }
        }
        other => panic!("expected array, got {other}"),
    }
}

#[test]
fn handshake_costs_two_cycles_per_word() {
    // The paper's Eq. 2 assumes 2 clocks per bus word for a full
    // handshake; the generated edge costs reproduce exactly that.
    for words in [1u64, 4, 16, 64] {
        let (sys, tx, _, _) = handshake_system(words);
        let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
        assert_eq!(
            report.finish_time(tx),
            Some(2 * words),
            "sender should finish at 2*{words}"
        );
    }
}

#[test]
fn repeating_server_blocks_at_quiescence() {
    let (mut sys, m) = shell();
    let req = sys.add_signal("REQ", Ty::Bit);
    let ack = sys.add_signal("ACK", Ty::Bit);
    let client = sys.add_behavior("client", m);
    let server = sys.add_behavior("server", m);
    sys.behavior_mut(server).repeats = true;
    sys.behavior_mut(server).body = vec![
        wait_until(eq(signal(req), bit_const(true))),
        drive_cost(ack, bit_const(true), 1),
        wait_until(eq(signal(req), bit_const(false))),
        drive_cost(ack, bit_const(false), 0),
    ];
    sys.behavior_mut(client).body = vec![
        drive_cost(req, bit_const(true), 1),
        wait_until(eq(signal(ack), bit_const(true))),
        drive_cost(req, bit_const(false), 0),
        wait_until(eq(signal(ack), bit_const(false))),
    ];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert!(report.finish_time(client).is_some());
    assert_eq!(report.iterations(server), 1);
    let blocked: Vec<_> = report
        .blocked_behaviors()
        .map(|(_, o)| o.name.clone())
        .collect();
    assert_eq!(blocked, vec!["server".to_string()]);
}

#[test]
fn abstract_channels_move_data_with_addresses() {
    let (mut sys, m) = shell();
    let m2 = sys.add_module("mem_chip");
    let p = sys.add_behavior("P", m);
    let memproc = sys.add_behavior("MEMproc", m2);
    let mem = sys.add_variable("MEM", Ty::array(Ty::Int(16), 64), memproc);
    let i = sys.add_variable("i", Ty::Int(16), p);
    let readback = sys.add_variable("readback", Ty::Int(16), p);
    let ch_w = sys.add_channel(Channel {
        name: "chw".into(),
        accessor: p,
        variable: mem,
        direction: ChannelDirection::Write,
        data_bits: 16,
        addr_bits: 6,
        accesses: 64,
    });
    let ch_r = sys.add_channel(Channel {
        name: "chr".into(),
        accessor: p,
        variable: mem,
        direction: ChannelDirection::Read,
        data_bits: 16,
        addr_bits: 6,
        accesses: 1,
    });
    sys.behavior_mut(p).body = vec![
        for_loop(
            var(i),
            int_const(0, 16),
            int_const(63, 16),
            vec![send_at(
                ch_w,
                load(var(i)),
                mul(load(var(i)), int_const(3, 16)),
            )],
        ),
        receive_at(ch_r, int_const(21, 16), var(readback)),
    ];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_checker_agrees(&sys, Ok(&report));
    assert_eq!(report.final_variable(readback).as_i64().unwrap(), 63);
    match report.final_variable(mem) {
        Value::Array(items) => assert_eq!(items[10].as_i64().unwrap(), 30),
        other => panic!("expected array, got {other}"),
    }
}

#[test]
fn zero_delay_infinite_loop_is_detected() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("spinner", m);
    let x = sys.add_variable("x", Ty::Int(16), b);
    sys.behavior_mut(b).body = vec![while_loop(
        bit_const(true),
        vec![assign_cost(var(x), int_const(1, 16), 0)],
    )];
    // A small step budget keeps the test fast; the default (10M) would
    // spin for seconds before diagnosing.
    let mut config = SimConfig::new();
    config.max_steps_per_activation = 10_000;
    let err = Simulator::with_config(&sys, config)
        .unwrap()
        .run_to_quiescence()
        .unwrap_err();
    assert!(matches!(err, SimError::ZeroDelayLoop { .. }), "{err}");
}

#[test]
fn timeout_is_reported() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("sleeper", m);
    sys.behavior_mut(b).body = vec![wait_cycles(1_000_000)];
    let config = SimConfig::new().with_max_time(100);
    let err = Simulator::with_config(&sys, config)
        .unwrap()
        .run_to_quiescence()
        .unwrap_err();
    assert!(
        matches!(err, SimError::Timeout { max_time: 100, .. }),
        "{err}"
    );
}

#[test]
fn waiting_forever_reports_blocked_not_error() {
    let (mut sys, m) = shell();
    let s = sys.add_signal("never", Ty::Bit);
    let b = sys.add_behavior("waiter", m);
    sys.behavior_mut(b).body = vec![wait_until(eq(signal(s), bit_const(true)))];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_eq!(report.finish_time(b), None);
    assert_eq!(report.blocked_behaviors().count(), 1);
}

#[test]
fn level_sensitive_wait_until_does_not_suspend_on_true() {
    let (mut sys, m) = shell();
    let s = sys.add_signal("hi", Ty::Bit);
    sys.signals[s.index()].init = Some(Value::Bit(true));
    let b = sys.add_behavior("P", m);
    sys.behavior_mut(b).body = vec![
        wait_until(eq(signal(s), bit_const(true))),
        Stmt::compute(3, "after"),
    ];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_eq!(report.finish_time(b), Some(3));
}

#[test]
fn last_writer_wins_within_a_delta() {
    let (mut sys, m) = shell();
    let s = sys.add_signal("s", Ty::Bits(8));
    let b = sys.add_behavior("P", m);
    sys.behavior_mut(b).body = vec![
        drive_cost(s, bits_const(1, 8), 0),
        drive_cost(s, bits_const(2, 8), 0),
        wait_cycles(1),
    ];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    // Only one event: value goes 0 -> 2 in a single delta.
    assert_eq!(report.signal_event_count(s), 1);
}

#[test]
fn trace_records_signal_changes_in_order() {
    let (mut sys, m) = shell();
    let s = sys.add_signal("s", Ty::Bit);
    let b = sys.add_behavior("P", m);
    sys.behavior_mut(b).body = vec![
        drive_cost(s, bit_const(true), 1),
        drive_cost(s, bit_const(false), 1),
    ];
    let config = SimConfig::new().with_trace();
    let report = Simulator::with_config(&sys, config)
        .unwrap()
        .run_to_quiescence()
        .unwrap();
    let trace = report.trace();
    assert_eq!(trace.len(), 2);
    assert_eq!(trace[0].time, 1);
    assert_eq!(trace[0].value, Value::Bit(true));
    assert_eq!(trace[1].time, 2);
    assert_eq!(trace[1].value, Value::Bit(false));
}

#[test]
fn coercion_through_channel_respects_target_type() {
    let (mut sys, m) = shell();
    let p = sys.add_behavior("P", m);
    let q = sys.add_behavior("Q", m);
    let x = sys.add_variable("X", Ty::Bits(8), q);
    let ch = sys.add_channel(Channel {
        name: "ch".into(),
        accessor: p,
        variable: x,
        direction: ChannelDirection::Write,
        data_bits: 8,
        addr_bits: 0,
        accesses: 1,
    });
    sys.behavior_mut(p).body = vec![send(ch, int_const(300, 16))];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_checker_agrees(&sys, Ok(&report));
    // 300 truncated to 8 bits = 44.
    assert_eq!(report.final_variable(x).as_u64().unwrap(), 300 % 256);
}

#[test]
fn finish_times_are_deterministic_across_runs() {
    let (sys, tx, rx, _) = handshake_system(8);
    let r1 = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    let r2 = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_eq!(r1.finish_time(tx), r2.finish_time(tx));
    assert_eq!(r1.finish_time(rx), r2.finish_time(rx));
    assert_eq!(r1.total_deltas(), r2.total_deltas());
}

#[test]
fn empty_system_is_quiescent_at_time_zero() {
    let sys = System::new("empty");
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_eq!(report.time(), 0);
    assert_eq!(report.finished_behaviors().count(), 0);
}

#[test]
fn estimator_matches_simulation_on_compute_only_behavior() {
    // The shared cost model must keep analytic and measured timing equal
    // on straight-line code.
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let x = sys.add_variable("x", Ty::Int(16), b);
    let i = sys.add_variable("i", Ty::Int(16), b);
    sys.behavior_mut(b).body = vec![
        for_loop(
            var(i),
            int_const(0, 16),
            int_const(9, 16),
            vec![
                assign(var(x), add(load(var(x)), int_const(1, 16))),
                Stmt::compute(3, "work"),
            ],
        ),
        Stmt::compute(7, "tail"),
    ];
    let est = ifsyn_estimate::PerformanceEstimator::new()
        .estimate(&sys, b, &ifsyn_estimate::ChannelTimings::new())
        .unwrap();
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_eq!(Some(est.cycles), report.finish_time(b));
}

#[test]
fn run_until_stops_free_running_systems_cleanly() {
    // A periodic producer that never quiesces: run_until terminates and
    // reports the iterations completed so far.
    let (mut sys, m) = shell();
    let tick = sys.add_signal("TICK", Ty::Bit);
    let b = sys.add_behavior("metronome", m);
    sys.behavior_mut(b).repeats = true;
    sys.behavior_mut(b).body = vec![drive_cost(tick, not(signal(tick)), 1), wait_cycles(9)];
    let report = Simulator::new(&sys).unwrap().run_until(100).unwrap();
    assert_eq!(report.time(), 100);
    // One iteration per 10 cycles.
    assert!(report.iterations(b) >= 9, "{}", report.iterations(b));
    assert_eq!(report.signal_event_count(tick), report.iterations(b));
}

#[test]
fn run_until_past_quiescence_reports_quiescent_state() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    sys.behavior_mut(b).body = vec![Stmt::compute(5, "w")];
    let report = Simulator::new(&sys).unwrap().run_until(1_000).unwrap();
    assert_eq!(report.finish_time(b), Some(5));
}

#[test]
fn zero_cost_signal_ping_pong_reports_delta_overflow() {
    // Two processes waking each other with zero-delay writes at one
    // time instant: classic combinational oscillation.
    let (mut sys, m) = shell();
    let s1 = sys.add_signal("s1", Ty::Bit);
    let s2 = sys.add_signal("s2", Ty::Bit);
    let p1 = sys.add_behavior("p1", m);
    sys.behavior_mut(p1).repeats = true;
    sys.behavior_mut(p1).body = vec![
        wait_until(eq(signal(s1), signal(s2))),
        drive_cost(s2, not(signal(s2)), 0),
    ];
    let p2 = sys.add_behavior("p2", m);
    sys.behavior_mut(p2).repeats = true;
    sys.behavior_mut(p2).body = vec![
        wait_until(ne(signal(s1), signal(s2))),
        drive_cost(s1, not(signal(s1)), 0),
    ];
    let mut config = SimConfig::new();
    config.max_steps_per_activation = 10_000;
    let err = Simulator::with_config(&sys, config)
        .unwrap()
        .run_to_quiescence()
        .unwrap_err();
    // Either diagnosis is correct: the per-process step budget may trip
    // (ZeroDelayLoop) before the instant-wide delta budget does.
    assert!(
        matches!(
            err,
            SimError::DeltaOverflow { time: 0 } | SimError::ZeroDelayLoop { time: 0, .. }
        ),
        "expected a zero-time oscillation diagnosis, got {err}"
    );
}

#[test]
fn out_param_copyback_coerces_to_target_type() {
    // Regression: a Bits(16) out-parameter copied back into an Int(16)
    // variable must sign-extend (bit-reinterpret), exactly like an
    // ordinary assignment — 0xFFFF is -1, not 65535.
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let y = sys.add_variable("y", Ty::Int(16), b);
    let mut p = Procedure::new("give_all_ones");
    let out_slot = p.add_param("result", Ty::Bits(16), ParamMode::Out);
    p.body = vec![assign(local(out_slot), bits_const(0xffff, 16))];
    let pid = sys.add_procedure(p);
    sys.behavior_mut(b).body = vec![call(pid, vec![Arg::Out(var(y))])];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_checker_agrees(&sys, Ok(&report));
    assert_eq!(report.final_variable(y).as_i64().unwrap(), -1);
}

#[test]
fn passing_assertions_are_counted() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let x = sys.add_variable("x", Ty::Int(16), b);
    sys.behavior_mut(b).body = vec![
        assign(var(x), int_const(5, 16)),
        Stmt::assert(eq(load(var(x)), int_const(5, 16)), "x is five"),
        Stmt::assert(lt(load(var(x)), int_const(10, 16)), "x below ten"),
    ];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_eq!(report.assertions_checked(), 2);
    // Assertions are free: only the assignment costs a cycle.
    assert_eq!(report.finish_time(b), Some(1));
}

#[test]
fn failing_assertion_stops_the_simulation_with_context() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("checker", m);
    let x = sys.add_variable("x", Ty::Int(16), b);
    sys.behavior_mut(b).body = vec![
        assign(var(x), int_const(5, 16)),
        Stmt::assert(eq(load(var(x)), int_const(6, 16)), "x should be six"),
    ];
    let err = Simulator::new(&sys)
        .unwrap()
        .run_to_quiescence()
        .unwrap_err();
    match err {
        SimError::AssertionFailed {
            behavior,
            note,
            time,
        } => {
            assert_eq!(behavior, "checker");
            assert_eq!(note, "x should be six");
            assert_eq!(time, 1);
        }
        other => panic!("expected assertion failure, got {other}"),
    }
}

#[test]
fn runtime_index_out_of_range_is_an_eval_error() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let arr = sys.add_variable("arr", Ty::array(Ty::Int(16), 4), b);
    let i = sys.add_variable_init("i", Ty::Int(16), b, Value::int(9, 16));
    sys.behavior_mut(b).body = vec![assign(index(var(arr), load(var(i))), int_const(1, 16))];
    let err = Simulator::new(&sys)
        .unwrap()
        .run_to_quiescence()
        .unwrap_err();
    assert_checker_agrees(&sys, Err(&err));
    assert!(matches!(err, SimError::Eval { .. }), "{err}");
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn report_lookup_by_name() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let x = sys.add_variable("answer", Ty::Int(16), b);
    sys.behavior_mut(b).body = vec![assign(var(x), int_const(42, 16))];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_eq!(
        report
            .final_variable_by_name("answer")
            .unwrap()
            .as_i64()
            .unwrap(),
        42
    );
    assert!(report.final_variable_by_name("missing").is_none());
}

#[test]
fn trace_recording_stops_at_the_cap_without_error() {
    let (mut sys, m) = shell();
    let s = sys.add_signal("S", Ty::Bits(8));
    let b = sys.add_behavior("P", m);
    let i = sys.add_variable("i", Ty::Int(16), b);
    sys.behavior_mut(b).body = vec![for_loop(
        var(i),
        int_const(0, 16),
        int_const(99, 16),
        vec![drive_cost(s, resize(load(var(i)), 8), 1)],
    )];
    let mut config = SimConfig::new().with_trace();
    config.max_trace_events = 10;
    let report = Simulator::with_config(&sys, config)
        .unwrap()
        .run_to_quiescence()
        .unwrap();
    assert_eq!(report.trace().len(), 10, "bounded trace");
    // The run itself is unaffected.
    assert_eq!(report.finish_time(b), Some(100));
    assert_eq!(report.signal_event_count(s), 99); // i=0 write is no event
}

#[test]
fn dynamic_slices_read_and_write_at_runtime_offsets() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let x = sys.add_variable("x", Ty::Bits(16), b);
    let y = sys.add_variable("y", Ty::Bits(4), b);
    let j = sys.add_variable_init("j", Ty::Int(16), b, Value::int(2, 16));
    // x(j*4 + 3 downto j*4) := "1010"  with j = 2  -> bits 11..8.
    sys.behavior_mut(b).body = vec![
        assign(
            dyn_slice(var(x), mul(load(var(j)), int_const(4, 16)), 4),
            bits_const(0b1010, 4),
        ),
        assign(
            var(y),
            dyn_slice_of(load(var(x)), mul(load(var(j)), int_const(4, 16)), 4),
        ),
    ];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_checker_agrees(&sys, Ok(&report));
    assert_eq!(
        report.final_variable(x),
        &Value::Bits(BitVec::from_u64(0b1010 << 8, 16))
    );
    assert_eq!(
        report.final_variable(y),
        &Value::Bits(BitVec::from_u64(0b1010, 4))
    );
}

#[test]
fn out_of_range_dynamic_slice_is_an_eval_error() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let x = sys.add_variable("x", Ty::Bits(8), b);
    let j = sys.add_variable_init("j", Ty::Int(16), b, Value::int(6, 16));
    sys.behavior_mut(b).body = vec![assign(
        dyn_slice(var(x), load(var(j)), 4), // bits 9..6 of an 8-bit value
        bits_const(0, 4),
    )];
    let err = Simulator::new(&sys)
        .unwrap()
        .run_to_quiescence()
        .unwrap_err();
    assert_checker_agrees(&sys, Err(&err));
    assert!(matches!(err, SimError::Eval { .. }), "{err}");
}

#[test]
fn report_carries_scheduler_stats() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let s = sys.add_signal("s", Ty::Bits(8));
    let i = sys.add_variable("i", Ty::Int(16), b);
    sys.behavior_mut(b).body = vec![for_loop(
        var(i),
        int_const(0, 16),
        int_const(9, 16),
        vec![drive_cost(s, resize(load(var(i)), 8), 1), wait_cycles(2)],
    )];
    // A second process sleeping on its own cadence interleaves its
    // wake-ups with the first one's timed writes and sleeps, so the
    // event heaps hold entries of both.
    let b2 = sys.add_behavior("Q", m);
    sys.behavior_mut(b2).body = vec![
        wait_cycles(3),
        wait_cycles(3),
        wait_cycles(3),
        wait_cycles(3),
        wait_cycles(3),
    ];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    // Timed writes and sleeps both pass through the event heaps, so a run
    // that uses them must have observed a non-empty heap at some point.
    assert!(
        report.heap_peak() >= 1,
        "heap_peak = {}",
        report.heap_peak()
    );
    // Ten loop iterations each advance time at least twice.
    assert!(
        report.time_steps() >= 20,
        "time_steps = {}",
        report.time_steps()
    );
    assert!(report.deltas_per_step() > 0.0);
}

#[test]
fn channel_send_evaluates_its_address_before_its_data() {
    // Address `A[k1]` and data `D[k2]` both index past their 4-element
    // arrays. The address is the send's first operand, so both engines
    // must stop on it.
    let (mut sys, m) = shell();
    let m2 = sys.add_module("mem_chip");
    let p = sys.add_behavior("P", m);
    let memproc = sys.add_behavior("MEMproc", m2);
    let mem = sys.add_variable("MEM", Ty::array(Ty::Int(16), 64), memproc);
    let a = sys.add_variable("A", Ty::array(Ty::Int(16), 4), p);
    let d = sys.add_variable("D", Ty::array(Ty::Int(16), 4), p);
    let k1 = sys.add_variable_init("k1", Ty::Int(16), p, Value::int(5, 16));
    let k2 = sys.add_variable_init("k2", Ty::Int(16), p, Value::int(7, 16));
    let ch = sys.add_channel(Channel {
        name: "ch".into(),
        accessor: p,
        variable: mem,
        direction: ChannelDirection::Write,
        data_bits: 16,
        addr_bits: 6,
        accesses: 1,
    });
    sys.behavior_mut(p).body = vec![send_at(
        ch,
        load(index(var(a), load(var(k1)))),
        load(index(var(d), load(var(k2)))),
    )];
    let err = Simulator::new(&sys)
        .unwrap()
        .run_to_quiescence()
        .unwrap_err();
    assert!(
        err.to_string().contains("array index 5 out of range"),
        "{err}"
    );
    assert_checker_agrees(&sys, Err(&err));
}

#[test]
fn wait_on_a_repeated_signal_wakes_once_and_is_diagnosed_once() {
    let (mut sys, m) = shell();
    let s = sys.add_signal("s", Ty::Bit);
    let w = sys.add_behavior("W", m);
    let n = sys.add_variable("n", Ty::Int(8), w);
    sys.behavior_mut(w).body = vec![
        wait_on(vec![s, s]),
        assign(var(n), add(load(var(n)), int_const(1, 8))),
        wait_on(vec![s, s]),
    ];
    let d = sys.add_behavior("D", m);
    sys.behavior_mut(d).body = vec![drive_cost(s, bit_const(true), 1)];
    let report = Simulator::new(&sys).unwrap().run_to_quiescence().unwrap();
    assert_eq!(report.final_variable(n), &Value::int(1, 8));
    assert_eq!(report.blocked_at_exit(), 1);

    let config = SimConfig::new().with_deadlock_detection();
    let err = Simulator::with_config(&sys, config)
        .unwrap()
        .run_to_quiescence()
        .expect_err("W waits forever");
    let SimError::Deadlock { diagnosis } = err else {
        panic!("expected Deadlock, got {err}");
    };
    let blocked = diagnosis.blocked_behavior("W").expect("W is blocked");
    assert_eq!(blocked.wait, "wait on s");
    assert_eq!(blocked.observed, vec![("s".to_string(), "'1'".to_string())]);
}

#[test]
fn dynamic_slice_past_u32_is_an_out_of_range_error() {
    // `o + 8 - 1` leaves `u32`: the read `y := x(o, 8)`, the write
    // `x(o, 8) := y` and the tree walk must each report the slice out of
    // range, in the kernel and as a checker crash edge, never overflow.
    const O: i64 = 4_294_967_290;
    let build = |write: bool| {
        let (mut sys, m) = shell();
        let p = sys.add_behavior("P", m);
        let x = sys.add_variable("x", Ty::Bits(16), p);
        let y = sys.add_variable("y", Ty::Bits(8), p);
        let o = sys.add_variable_init("o", Ty::Int(64), p, Value::int(O, 64));
        let slice = dyn_slice(var(x), load(var(o)), 8);
        sys.behavior_mut(p).body = vec![if write {
            assign(slice, load(var(y)))
        } else {
            assign(var(y), load(slice))
        }];
        sys
    };
    for (write, message) in [
        (
            false,
            "dynamic slice 4294967297 downto 4294967290 out of range for width 16",
        ),
        (
            true,
            "dynamic slice 4294967297 downto 4294967290 out of range",
        ),
    ] {
        let sys = build(write);
        let err = Simulator::new(&sys)
            .unwrap()
            .run_to_quiescence()
            .unwrap_err();
        assert_eq!(err, SimError::eval(message));
        assert_checker_agrees(&sys, Err(&err));
    }

    let vars = [
        Value::Bits(BitVec::zeros(16)),
        Value::Bits(BitVec::zeros(8)),
        Value::int(O, 64),
    ];
    let scope = ifsyn_sim::testing::Scope {
        vars: &vars,
        signals: &[],
        procedure: None,
        locals: &[],
    };
    let (x, o) = (VarId::new(0), load(var(VarId::new(2))));
    for expr in [
        load(dyn_slice(var(x), o.clone(), 8)),
        dyn_slice_of(load(var(x)), o, 8),
    ] {
        assert_eq!(
            ifsyn_sim::testing::eval_tree(scope, &expr),
            Err(SimError::eval(
                "dynamic slice 4294967297 downto 4294967290 out of range for width 16"
            )),
            "{expr:?}"
        );
    }
}
