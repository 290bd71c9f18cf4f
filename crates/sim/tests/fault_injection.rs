//! Fault injection and deadlock diagnosis: end-to-end kernel tests.

use ifsyn_sim::{FaultPlan, SimConfig, SimError, Simulator};
use ifsyn_spec::dsl::*;
use ifsyn_spec::{System, Ty, Value};

fn shell() -> (System, ifsyn_spec::ModuleId) {
    let mut sys = System::new("faults");
    let m = sys.add_module("chip");
    (sys, m)
}

fn run(sys: &System, config: SimConfig) -> Result<ifsyn_sim::SimReport, SimError> {
    Simulator::with_config(sys, config)?.run_to_quiescence()
}

#[test]
fn stuck_at_zero_forces_value_and_drops_writes() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let s = sys.add_signal("S", Ty::Bit);
    sys.behavior_mut(b).body = vec![
        drive_cost(s, bit_const(true), 1),
        drive_cost(s, bit_const(true), 1),
    ];
    let plan = FaultPlan::new().stuck_at_0("S", 0, None);
    let report = run(&sys, SimConfig::new().with_faults(plan)).unwrap();
    assert_eq!(report.final_signal_by_name("S"), Some(&Value::Bit(false)));
    // One forced injection plus two dropped writes.
    assert_eq!(report.injected_faults().len(), 3);
    assert!(report
        .injected_faults()
        .iter()
        .any(|f| f.effect.contains("stuck")));
}

#[test]
fn stuck_window_releases_the_signal_afterwards() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let s = sys.add_signal("S", Ty::Bit);
    sys.behavior_mut(b).body = vec![
        drive_cost(s, bit_const(true), 1), // t = 1, inside [0, 5): dropped
        wait_cycles(10),
        drive_cost(s, bit_const(true), 1), // t = 12, window over: lands
    ];
    let plan = FaultPlan::new().stuck_at_0("S", 0, Some(5));
    let report = run(&sys, SimConfig::new().with_faults(plan)).unwrap();
    assert_eq!(report.final_signal_by_name("S"), Some(&Value::Bit(true)));
}

#[test]
fn flip_bit_inverts_the_named_bit() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let s = sys.add_signal("S", Ty::Bits(8));
    sys.behavior_mut(b).body = vec![
        drive_cost(s, bits_const(0b0001_0000, 8), 1),
        wait_cycles(20),
    ];
    let plan = FaultPlan::new().flip_bit("S", 2, 5);
    let report = run(&sys, SimConfig::new().with_faults(plan)).unwrap();
    assert_eq!(
        report.final_signal_by_name("S"),
        Some(&Value::Bits(ifsyn_spec::BitVec::from_u64(0b0001_0100, 8)))
    );
    assert!(report
        .injected_faults()
        .iter()
        .any(|f| f.time == 5 && f.effect.contains("bit 2")));
}

#[test]
fn flip_wakes_a_waiting_process() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let s = sys.add_signal("S", Ty::Bit);
    sys.behavior_mut(b).body = vec![wait_until(eq(signal(s), bit_const(true)))];
    // Nobody drives S; only the transient flip at t = 7 satisfies the wait.
    let plan = FaultPlan::new().flip_bit("S", 0, 7);
    let report = run(&sys, SimConfig::new().with_faults(plan)).unwrap();
    assert_eq!(report.finish_time(b), Some(7));
}

#[test]
fn delayed_writes_postpone_the_wakeup() {
    let (mut sys, m) = shell();
    let p = sys.add_behavior("P", m);
    let q = sys.add_behavior("Q", m);
    let s = sys.add_signal("S", Ty::Bit);
    sys.behavior_mut(p).body = vec![drive_cost(s, bit_const(true), 1)];
    sys.behavior_mut(q).body = vec![wait_until(eq(signal(s), bit_const(true)))];
    let baseline = run(&sys, SimConfig::new()).unwrap();
    assert_eq!(baseline.finish_time(q), Some(1));
    let plan = FaultPlan::new().delay_writes("S", 4, 0, None);
    let report = run(&sys, SimConfig::new().with_faults(plan)).unwrap();
    assert_eq!(report.finish_time(q), Some(5));
}

#[test]
fn dropped_writes_leave_the_wire_value() {
    let (mut sys, m) = shell();
    let p = sys.add_behavior("P", m);
    let s = sys.add_signal("S", Ty::Bits(8));
    sys.behavior_mut(p).body = vec![
        drive_cost(s, bits_const(7, 8), 1),  // t = 1: lands
        drive_cost(s, bits_const(99, 8), 1), // t = 2, in [2, 10): dropped
    ];
    let plan = FaultPlan::new().drop_writes("S", 2, Some(10));
    let report = run(&sys, SimConfig::new().with_faults(plan)).unwrap();
    assert_eq!(
        report.final_signal_by_name("S"),
        Some(&Value::Bits(ifsyn_spec::BitVec::from_u64(7, 8)))
    );
}

#[test]
fn unknown_fault_signal_is_rejected() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    sys.behavior_mut(b).body = vec![wait_cycles(1)];
    let plan = FaultPlan::new().stuck_at_0("NO_SUCH_WIRE", 0, None);
    let err = match Simulator::with_config(&sys, SimConfig::new().with_faults(plan)) {
        Err(e) => e,
        Ok(_) => panic!("unknown signal must be rejected"),
    };
    assert!(matches!(err, SimError::InvalidSystem { .. }), "{err}");
    assert!(err.to_string().contains("NO_SUCH_WIRE"), "{err}");
}

#[test]
fn wait_until_timeout_fires_at_the_bound() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let s = sys.add_signal("S", Ty::Bit);
    // Nobody drives S: the watchdog alone resumes the process.
    sys.behavior_mut(b).body = vec![wait_until_for(eq(signal(s), bit_const(true)), 12)];
    let report = run(&sys, SimConfig::new()).unwrap();
    assert_eq!(report.finish_time(b), Some(12));
    assert_eq!(report.blocked_at_exit(), 0);
}

#[test]
fn wait_until_timeout_does_not_fire_when_satisfied_early() {
    let (mut sys, m) = shell();
    let p = sys.add_behavior("P", m);
    let q = sys.add_behavior("Q", m);
    let s = sys.add_signal("S", Ty::Bit);
    sys.behavior_mut(p).body = vec![wait_cycles(3), drive_cost(s, bit_const(true), 1)];
    sys.behavior_mut(q).body = vec![wait_until_for(eq(signal(s), bit_const(true)), 50)];
    let report = run(&sys, SimConfig::new()).unwrap();
    // Q resumes when S rises at t = 4, and the stale watchdog entry must
    // not stretch the simulation out to t = 50.
    assert_eq!(report.finish_time(q), Some(4));
    assert_eq!(report.time(), 4);
}

#[test]
fn handshake_with_stuck_done_yields_cyclic_deadlock_diagnosis() {
    let (mut sys, m) = shell();
    let client = sys.add_behavior("client", m);
    let server = sys.add_behavior("server", m);
    let start = sys.add_signal("START", Ty::Bit);
    let done = sys.add_signal("DONE", Ty::Bit);
    sys.behavior_mut(client).body = vec![
        drive_cost(start, bit_const(true), 1),
        wait_until(eq(signal(done), bit_const(true))),
        drive_cost(start, bit_const(false), 0),
        wait_until(eq(signal(done), bit_const(false))),
    ];
    sys.behavior_mut(server).body = vec![
        wait_until(eq(signal(start), bit_const(true))),
        drive_cost(done, bit_const(true), 1),
        wait_until(eq(signal(start), bit_const(false))),
        drive_cost(done, bit_const(false), 0),
    ];
    let plan = FaultPlan::new().stuck_at_0("DONE", 0, None);
    let config = SimConfig::new().with_faults(plan).with_deadlock_detection();
    let err = run(&sys, config).expect_err("stuck DONE must deadlock");
    let SimError::Deadlock { diagnosis } = err else {
        panic!("expected Deadlock, got {err}");
    };
    let blocked = diagnosis
        .blocked_behavior("client")
        .expect("client is blocked");
    assert!(blocked.wait.contains("DONE"), "{}", blocked.wait);
    assert!(
        blocked.observed.iter().any(|(n, _)| n == "DONE"),
        "{blocked:?}"
    );
    // client waits on DONE (written by server), server waits on START
    // (written by client): the classic two-party cycle.
    assert!(
        diagnosis
            .cycles
            .iter()
            .any(|c| { c.contains(&"client".to_string()) && c.contains(&"server".to_string()) }),
        "{:?}",
        diagnosis.cycles
    );
}

#[test]
fn three_party_diagnosis_reports_both_overlapping_cycles() {
    // A waits on X, which both B and C can write; B and C each wait on a
    // line only A writes. The wait-for graph is a figure-eight through A
    // (A -> B -> A and A -> C -> A) and the diagnosis must report both
    // elementary cycles, one `wait-for cycle:` line each.
    let (mut sys, m) = shell();
    let a = sys.add_behavior("A", m);
    let b = sys.add_behavior("B", m);
    let c = sys.add_behavior("C", m);
    let x = sys.add_signal("X", Ty::Bit);
    let y = sys.add_signal("Y", Ty::Bit);
    let z = sys.add_signal("Z", Ty::Bit);
    sys.behavior_mut(a).body = vec![
        wait_until(eq(signal(x), bit_const(true))),
        drive_cost(y, bit_const(true), 1),
        drive_cost(z, bit_const(true), 1),
    ];
    sys.behavior_mut(b).body = vec![
        wait_until(eq(signal(y), bit_const(true))),
        drive_cost(x, bit_const(true), 1),
    ];
    sys.behavior_mut(c).body = vec![
        wait_until(eq(signal(z), bit_const(true))),
        drive_cost(x, bit_const(true), 1),
    ];
    let err = run(&sys, SimConfig::new().with_deadlock_detection())
        .expect_err("nobody moves first: deadlock");
    let SimError::Deadlock { diagnosis } = err else {
        panic!("expected Deadlock, got {err}");
    };
    assert_eq!(diagnosis.blocked.len(), 3, "{diagnosis}");
    let mut cycles: Vec<Vec<String>> = diagnosis
        .cycles
        .iter()
        .map(|cy| {
            let mut s = cy.clone();
            s.sort();
            s
        })
        .collect();
    cycles.sort();
    assert_eq!(
        cycles,
        vec![
            vec!["A".to_string(), "B".into()],
            vec!["A".into(), "C".into()]
        ],
        "{diagnosis}"
    );
}

#[test]
fn self_wait_yields_a_blocked_entry_but_no_cycle() {
    // P waits on a signal only its own (unreachable) later code writes.
    // The kernel's wait-for edges deliberately exclude self-edges — a
    // process cannot unblock itself — so the diagnosis lists the blocked
    // wait without inventing a one-node cycle.
    let (mut sys, m) = shell();
    let p = sys.add_behavior("P", m);
    let s = sys.add_signal("SELF", Ty::Bit);
    sys.behavior_mut(p).body = vec![
        wait_until(eq(signal(s), bit_const(true))),
        drive_cost(s, bit_const(false), 1),
    ];
    let err =
        run(&sys, SimConfig::new().with_deadlock_detection()).expect_err("self-wait hangs forever");
    let SimError::Deadlock { diagnosis } = err else {
        panic!("expected Deadlock, got {err}");
    };
    let blocked = diagnosis.blocked_behavior("P").expect("P is blocked");
    assert!(blocked.wait.contains("SELF"), "{}", blocked.wait);
    assert!(diagnosis.cycles.is_empty(), "{:?}", diagnosis.cycles);
}

#[test]
fn blocked_on_stuck_signal_observes_the_forced_value() {
    // Q's write of ADDR = 5 is swallowed by a stuck-at-0 fault, so P
    // never sees the value it waits for. The diagnosis must show P
    // observing the *forced* all-zeros value (what the wire actually
    // carries), and still extract the P <-> Q wait-for cycle even though
    // the true culprit is the fault, not the peer's code.
    let (mut sys, m) = shell();
    let p = sys.add_behavior("P", m);
    let q = sys.add_behavior("Q", m);
    let addr = sys.add_signal("ADDR", Ty::Bits(8));
    let ack = sys.add_signal("ACK", Ty::Bit);
    sys.behavior_mut(p).body = vec![
        wait_until(eq(signal(addr), bits_const(5, 8))),
        drive_cost(ack, bit_const(true), 1),
    ];
    sys.behavior_mut(q).body = vec![
        drive_cost(addr, bits_const(5, 8), 1),
        wait_until(eq(signal(ack), bit_const(true))),
    ];
    let plan = FaultPlan::new().stuck_at_0("ADDR", 0, None);
    let config = SimConfig::new().with_faults(plan).with_deadlock_detection();
    let err = run(&sys, config).expect_err("stuck ADDR must deadlock");
    let SimError::Deadlock { diagnosis } = err else {
        panic!("expected Deadlock, got {err}");
    };
    let blocked = diagnosis.blocked_behavior("P").expect("P is blocked");
    let (_, observed) = blocked
        .observed
        .iter()
        .find(|(n, _)| n == "ADDR")
        .expect("P's sensitivity list names ADDR");
    assert!(
        !observed.contains('5'),
        "observed value must be the forced zeros, not the swallowed write: {observed}"
    );
    assert!(
        diagnosis
            .cycles
            .iter()
            .any(|c| c.contains(&"P".to_string()) && c.contains(&"Q".to_string())),
        "{:?}",
        diagnosis.cycles
    );
}

#[test]
fn deadlock_detection_stays_off_by_default() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    let s = sys.add_signal("S", Ty::Bit);
    sys.behavior_mut(b).body = vec![wait_until(eq(signal(s), bit_const(true)))];
    // No detection: a blocked process is reported, not an error.
    let report = run(&sys, SimConfig::new()).unwrap();
    assert_eq!(report.blocked_at_exit(), 1);
    // With detection: the same run is a diagnosed deadlock.
    let err = run(&sys, SimConfig::new().with_deadlock_detection())
        .expect_err("detection must flag the hang");
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
}

#[test]
fn repeating_processes_do_not_count_as_deadlocked() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("idle_server", m);
    let s = sys.add_signal("S", Ty::Bit);
    sys.behavior_mut(b).body = vec![wait_until(eq(signal(s), bit_const(true)))];
    sys.behavior_mut(b).repeats = true;
    let report = run(&sys, SimConfig::new().with_deadlock_detection()).unwrap();
    // A parked server is business as usual, not a deadlock...
    assert_eq!(report.time(), 0);
    // ...and it does not count as blocked-at-exit either.
    assert_eq!(report.blocked_at_exit(), 0);
}

#[test]
fn injection_recording_is_capped_but_simulation_continues() {
    let (mut sys, m) = shell();
    let p = sys.add_behavior("P", m);
    let i = sys.add_variable("i", Ty::Int(32), p);
    let s = sys.add_signal("S", Ty::Bit);
    // 12k dropped writes, beyond the 10k recording cap.
    sys.behavior_mut(p).body = vec![for_loop(
        var(i),
        int_const(0, 32),
        int_const(11_999, 32),
        vec![drive_cost(s, bit_const(true), 1)],
    )];
    let plan = FaultPlan::new().drop_writes("S", 0, None);
    let report = run(&sys, SimConfig::new().with_faults(plan)).unwrap();
    assert_eq!(report.injected_faults().len(), 10_000);
    assert_eq!(report.finish_time(p), Some(12_000)); // one cycle per drive
}

/// A flip of bit 8 of an 8-bit signal could never strike: the plan is
/// refused up front instead of simulating with no injection applied.
#[test]
fn a_flip_past_the_signal_width_is_rejected() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    sys.add_signal("S", Ty::Bits(8));
    sys.behavior_mut(b).body = vec![wait_cycles(10)];
    let plan = FaultPlan::new().flip_bit("S", 7, 5);
    let report = run(&sys, SimConfig::new().with_faults(plan)).unwrap();
    assert_eq!(report.injected_faults().len(), 1);
    let plan = FaultPlan::new().flip_bit("S", 8, 5);
    let err = match Simulator::with_config(&sys, SimConfig::new().with_faults(plan)) {
        Err(e) => e,
        Ok(_) => panic!("bit 8 of an 8-bit signal must be rejected"),
    };
    assert!(matches!(err, SimError::InvalidSystem { .. }), "{err}");
    assert!(err.to_string().contains("bit 8 of `S` (8 bit(s))"), "{err}");
}

/// A window that ends where or before it starts, and a delay of 0
/// cycles, could never strike: each plan is refused up front, while the
/// one-cycle window beside them still runs.
#[test]
fn faults_that_can_never_strike_are_rejected() {
    let (mut sys, m) = shell();
    let b = sys.add_behavior("P", m);
    sys.add_signal("S", Ty::Bit);
    sys.behavior_mut(b).body = vec![wait_cycles(10)];
    assert!(run(
        &sys,
        SimConfig::new().with_faults(FaultPlan::new().drop_writes("S", 5, Some(6)))
    )
    .is_ok());
    let refused = [
        (
            FaultPlan::new().drop_writes("S", 10, Some(5)),
            "window 10-5",
        ),
        (FaultPlan::new().drop_writes("S", 5, Some(5)), "window 5-5"),
        (FaultPlan::new().stuck_at_0("S", 10, Some(5)), "window 10-5"),
        (FaultPlan::new().stuck_at_1("S", 5, Some(5)), "window 5-5"),
        (
            FaultPlan::new().delay_writes("S", 2, 7, Some(3)),
            "window 7-3",
        ),
        (
            FaultPlan::new().delay_writes("S", 0, 0, Some(60)),
            "by 0 cycles",
        ),
        (
            FaultPlan::new().delay_writes("S", 0, 0, None),
            "by 0 cycles",
        ),
    ];
    for (plan, why) in refused {
        let err = match Simulator::with_config(&sys, SimConfig::new().with_faults(plan.clone())) {
            Err(e) => e,
            Ok(_) => panic!("{plan:?} must be rejected"),
        };
        assert!(matches!(err, SimError::InvalidSystem { .. }), "{err}");
        assert!(err.to_string().contains(why), "{err}");
        assert!(err.to_string().ends_with("so it can never strike"), "{err}");
    }
}
