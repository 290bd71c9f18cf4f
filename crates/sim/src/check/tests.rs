use super::*;
use ifsyn_spec::dsl::*;
use ifsyn_spec::{Arg, ParamMode, Procedure, System, Ty, Value};

/// Two-phase handshake: `P` raises REQ and waits for ACK; `C` waits
/// for REQ and raises ACK.
fn handshake() -> System {
    let mut sys = System::new("hs");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    let c = sys.add_behavior("C", m);
    let req = sys.add_signal("REQ", Ty::Bit);
    let ack = sys.add_signal("ACK", Ty::Bit);
    sys.behavior_mut(p).body = vec![
        drive(req, bit_const(true)),
        wait_until(eq(signal(ack), bit_const(true))),
        drive(req, bit_const(false)),
    ];
    sys.behavior_mut(c).body = vec![
        wait_until(eq(signal(req), bit_const(true))),
        drive(ack, bit_const(true)),
    ];
    sys
}

#[test]
fn handshake_completes_on_every_schedule() {
    let sys = handshake();
    let ck = Checker::new(&sys).unwrap();
    let ss = ck.explore().unwrap();
    assert!(ss.state_count() > 1);
    assert!(ss.terminal_count() >= 1);
    let report = ss.check_terminal("handshake completes", |v| v.all_done());
    assert!(report.holds, "{report}");
    assert_eq!(report.verdict, Verdict::Pass);
}

#[test]
fn cross_wait_deadlock_is_found_with_cycle() {
    let mut sys = System::new("dl");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    let c = sys.add_behavior("C", m);
    let req = sys.add_signal("REQ", Ty::Bit);
    let ack = sys.add_signal("ACK", Ty::Bit);
    // Both sides wait before driving: classic circular wait.
    sys.behavior_mut(p).body = vec![
        wait_until(eq(signal(ack), bit_const(true))),
        drive(req, bit_const(true)),
    ];
    sys.behavior_mut(c).body = vec![
        wait_until(eq(signal(req), bit_const(true))),
        drive(ack, bit_const(true)),
    ];
    let ck = Checker::new(&sys).unwrap();
    let ss = ck.explore().unwrap();
    let report = ss.check_terminal("completes", |v| v.all_done());
    assert!(!report.holds);
    assert_eq!(report.verdict, Verdict::Fail);
    let cex = report.counterexample.expect("counterexample");
    let diag = cex.diagnosis.expect("diagnosis");
    assert_eq!(diag.blocked.len(), 2);
    let cycle = diag.cycles.first().expect("wait-for cycle");
    assert!(cycle.contains(&"P".to_string()) && cycle.contains(&"C".to_string()));
}

#[test]
fn interleavings_reach_joint_state_and_bound_is_exact() {
    let mut sys = System::new("diamond");
    let m = sys.add_module("chip");
    let p1 = sys.add_behavior("P1", m);
    let p2 = sys.add_behavior("P2", m);
    let a = sys.add_signal("A", Ty::Int(8));
    let b = sys.add_signal("B", Ty::Int(8));
    sys.behavior_mut(p1).body = vec![drive(a, int_const(1, 8))];
    sys.behavior_mut(p2).body = vec![drive(b, int_const(1, 8))];
    let ck = Checker::new(&sys).unwrap();
    let ss = ck.explore().unwrap();
    let both_set = |v: &SignalView<'_>| {
        v.signal("A").unwrap().as_i64().unwrap() == 1
            && v.signal("B").unwrap().as_i64().unwrap() == 1
    };
    let report = ss.check_invariant("never both set", |v| !both_set(v));
    assert!(!report.holds, "the joint state must be reachable");
    // Two unit-cost drives on every maximal path.
    assert_eq!(ss.worst_cost_to_quiescence(), Some(2));
}

#[test]
fn repeating_server_eventually_grants() {
    let mut sys = System::new("grant");
    let m = sys.add_module("chip");
    let cl = sys.add_behavior("CLIENT", m);
    let sv = sys.add_behavior("SERVER", m);
    let req = sys.add_signal("REQ", Ty::Bit);
    let gnt = sys.add_signal("GNT", Ty::Bit);
    sys.behavior_mut(cl).body = vec![
        drive(req, bit_const(true)),
        wait_until(eq(signal(gnt), bit_const(true))),
        drive(req, bit_const(false)),
    ];
    sys.behavior_mut(sv).body = vec![
        wait_until(eq(signal(req), bit_const(true))),
        drive(gnt, bit_const(true)),
        wait_until(eq(signal(req), bit_const(false))),
        drive(gnt, bit_const(false)),
    ];
    sys.behavior_mut(sv).repeats = true;
    let ck = Checker::new(&sys).unwrap();
    let ss = ck.explore().unwrap();
    let report = ss.check_leads_to(
        "pending request is eventually granted",
        |v| v.signal_high("REQ") && !v.signal_high("GNT"),
        |v| v.signal_high("GNT"),
    );
    assert!(report.holds, "{report}");
}

#[test]
fn watchdog_expires_only_at_global_stall() {
    let mut sys = System::new("wd");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    let ack = sys.add_signal("ACK", Ty::Bit);
    let x = sys.add_variable("X", Ty::Int(8), p);
    sys.behavior_mut(p).body = vec![
        wait_until_for(eq(signal(ack), bit_const(true)), 8),
        if_else(
            eq(signal(ack), bit_const(true)),
            vec![assign(var(x), int_const(1, 8))],
            vec![assign(var(x), int_const(2, 8))],
        ),
    ];
    let ck = Checker::new(&sys).unwrap();
    let ss = ck.explore().unwrap();
    // ACK is never driven: the watchdog must fire and the abort
    // branch must run to quiescence on every schedule.
    let report = ss.check_terminal("aborts via watchdog", |v| {
        v.done("P") && v.variable("X").unwrap().as_i64().unwrap() == 2
    });
    assert!(report.holds, "{report}");
    let worst = ss.worst_cost_to_quiescence().expect("bounded");
    assert!(
        worst >= 8,
        "watchdog bound {worst} must include the timeout"
    );
}

#[test]
fn flip_bit_fault_wakes_a_blocked_waiter() {
    let build = || {
        let mut sys = System::new("flip");
        let m = sys.add_module("chip");
        let p = sys.add_behavior("P", m);
        let ack = sys.add_signal("ACK", Ty::Bit);
        let x = sys.add_signal("X", Ty::Int(8));
        sys.behavior_mut(p).body = vec![
            wait_until(eq(signal(ack), bit_const(true))),
            drive(x, int_const(1, 8)),
        ];
        sys
    };
    let sys = build();
    let ck = Checker::new(&sys).unwrap();
    let ss = ck.explore().unwrap();
    let x_zero = |v: &SignalView<'_>| v.signal("X").unwrap().as_i64().unwrap() == 0;
    assert!(ss.check_invariant("x stays 0", x_zero).holds);

    let sys = build();
    let config = CheckConfig::new().with_fault(EnvFault::FlipBit {
        signal: "ACK".to_string(),
        bit: 0,
        budget: 1,
    });
    let ck = Checker::with_config(&sys, config).unwrap();
    let ss = ck.explore().unwrap();
    let report = ss.check_invariant("x stays 0", x_zero);
    assert!(!report.holds, "the fault must wake P");
    let cex = report.counterexample.expect("counterexample");
    assert!(
        cex.trace.iter().any(|s| s.contains("flips `ACK`")),
        "trace must show the fault strike: {:?}",
        cex.trace
    );
}

/// A flip that can never strike is refused up front: bit 8 of an 8-bit
/// signal, or any bit with a budget of 0. Bit 7 is accepted and strikes.
#[test]
fn a_flip_that_can_never_strike_is_rejected() {
    let mut sys = System::new("flip_width");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    sys.add_signal("D", Ty::Bits(8));
    sys.behavior_mut(p).body = vec![wait_cycles(1)];
    let flip = |bit, budget| {
        CheckConfig::new().with_fault(EnvFault::FlipBit {
            signal: "D".to_string(),
            bit,
            budget,
        })
    };
    let ck = Checker::with_config(&sys, flip(7, 1)).unwrap();
    let ss = ck.explore().unwrap();
    let untouched = |v: &SignalView<'_>| v.signal("D").unwrap().as_i64().unwrap() == 0;
    assert!(!ss.check_invariant("D stays 0", untouched).holds);
    for (bit, budget) in [(8, 1), (7, 0)] {
        let err = match Checker::with_config(&sys, flip(bit, budget)) {
            Err(e) => e,
            Ok(_) => panic!("flip of bit {bit} with budget {budget} must be rejected"),
        };
        assert!(matches!(err, SimError::InvalidSystem { .. }), "{err}");
        assert!(err.to_string().contains("can never strike"), "{err}");
    }
}

#[test]
fn stuck_low_ack_blocks_the_handshake() {
    let sys = handshake();
    let config = CheckConfig::new().with_fault(EnvFault::StuckLow {
        signal: "ACK".to_string(),
    });
    let ck = Checker::with_config(&sys, config).unwrap();
    let ss = ck.explore().unwrap();
    let report = ss.check_terminal("handshake completes", |v| v.all_done());
    assert!(!report.holds, "a stuck ACK must strand P");
    let diag = report
        .counterexample
        .expect("counterexample")
        .diagnosis
        .expect("diagnosis");
    assert!(diag.blocked.iter().any(|b| b.behavior == "P"));
}

#[test]
fn exploration_is_deterministic() {
    let sys = handshake();
    let ck = Checker::new(&sys).unwrap();
    let a = ck.explore().unwrap();
    let b = ck.explore().unwrap();
    assert_eq!(a.state_count(), b.state_count());
    assert_eq!(a.transition_count(), b.transition_count());
    assert_eq!(a.terminal_count(), b.terminal_count());
    assert_eq!(a.worst_cost_to_quiescence(), b.worst_cost_to_quiescence());
}

#[test]
fn unknown_fault_signal_is_rejected() {
    let sys = handshake();
    let config = CheckConfig::new().with_fault(EnvFault::StuckLow {
        signal: "NOPE".to_string(),
    });
    let err = Checker::with_config(&sys, config)
        .err()
        .expect("must be rejected");
    assert!(err.to_string().contains("NOPE"));
}

// ---- scaling features ----

/// Two behaviors stepping private counters, plus a handshake pair: the
/// counter steps are pure, so reduction fires on them. With `deadlock`,
/// P waits before driving — a circular wait with C.
fn mixed_private_with(deadlock: bool) -> System {
    let mut sys = System::new("mix");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    let c = sys.add_behavior("C", m);
    let req = sys.add_signal("REQ", Ty::Bit);
    let ack = sys.add_signal("ACK", Ty::Bit);
    sys.behavior_mut(p).body = if deadlock {
        vec![
            wait_until(eq(signal(ack), bit_const(true))),
            drive(req, bit_const(true)),
        ]
    } else {
        vec![
            drive(req, bit_const(true)),
            wait_until(eq(signal(ack), bit_const(true))),
            drive(req, bit_const(false)),
        ]
    };
    sys.behavior_mut(c).body = vec![
        wait_until(eq(signal(req), bit_const(true))),
        drive(ack, bit_const(true)),
    ];
    let w1 = sys.add_behavior("W1", m);
    let x1 = sys.add_variable("X1", Ty::Int(8), w1);
    sys.behavior_mut(w1).body = (0..6i64)
        .map(|i| assign(var(x1), int_const(i, 8)))
        .collect();
    let w2 = sys.add_behavior("W2", m);
    let x2 = sys.add_variable("X2", Ty::Int(8), w2);
    sys.behavior_mut(w2).body = (0..6i64)
        .map(|i| assign(var(x2), int_const(i, 8)))
        .collect();
    sys
}

fn mixed_private() -> System {
    mixed_private_with(false)
}

#[test]
fn por_reduces_private_interleavings_and_preserves_verdicts() {
    let sys = mixed_private();
    let reduced = Checker::new(&sys).unwrap();
    let full = Checker::with_config(&sys, CheckConfig::new().without_por()).unwrap();
    let rs = reduced.explore().unwrap();
    let fs = full.explore().unwrap();
    assert!(rs.stats().ample_states > 0, "reduction must fire");
    assert!(
        rs.state_count() < fs.state_count(),
        "reduced {} !< full {}",
        rs.state_count(),
        fs.state_count()
    );
    for ss in [&rs, &fs] {
        let report = ss.check_terminal("all done", |v| v.all_done());
        assert!(report.holds, "{report}");
        let grant = ss.check_leads_to(
            "req leads to ack",
            |v| v.signal_high("REQ"),
            |v| v.signal_high("ACK"),
        );
        assert!(grant.holds, "{grant}");
    }
    assert_eq!(
        rs.worst_cost_to_quiescence(),
        fs.worst_cost_to_quiescence(),
        "reduction must preserve the completion bound"
    );
}

#[test]
fn reduced_failure_reports_match_the_unreduced_explorer() {
    // A deadlocked handshake beside pure private work: reduction fires,
    // the terminal property fails, and the failure report must be
    // byte-identical to a POR-off exploration's (replay delegation).
    let sys = mixed_private_with(true);
    let reduced = Checker::new(&sys).unwrap();
    let full = Checker::with_config(&sys, CheckConfig::new().without_por()).unwrap();
    let rs = reduced.explore().unwrap();
    let fs = full.explore().unwrap();
    assert!(rs.stats().ample_states > 0, "reduction must fire");
    let rr = rs.check_terminal("completes", |v| v.all_done());
    let fr = fs.check_terminal("completes", |v| v.all_done());
    assert!(!rr.holds && !fr.holds);
    assert_eq!(rr.to_string(), fr.to_string());
}

#[test]
fn bounded_exploration_reports_a_bounded_verdict() {
    let sys = mixed_private();
    let ck = Checker::with_config(&sys, CheckConfig::new().with_state_limit(20)).unwrap();
    let ss = ck.explore().unwrap();
    let info = ss.bounded().expect("exploration must hit the budget");
    assert!(info.frontier > 0);
    assert_eq!(info.limit, 20);
    assert!(ss.state_count() >= 20);
    // ACK is never lowered, and C finishes right after raising it.
    let report = ss.check_invariant("C finishes only after acknowledging", |v| {
        !v.done("C") || v.signal_high("ACK")
    });
    assert!(report.holds);
    assert_eq!(report.verdict, Verdict::Bounded);
    let line = report.to_string();
    assert!(line.starts_with("BOUND"), "{line}");
    assert!(line.contains("state limit 20"), "{line}");
    // A bounded graph cannot certify a completion bound.
    assert_eq!(ss.worst_cost_to_quiescence(), None);
}

/// A procedure with an `out` parameter aimed at a shared variable,
/// returning past internal scheduling points: the resumed run executes
/// only statically pure instructions plus `Ret`, but its copy-back (a
/// place resolved back at the call) writes the shared variable. Treating
/// that run as an ample singleton would hide every interleaving where
/// `Q` samples the pre-copy-back value after the procedure raised `A`.
/// `Q` drives what it samples onto signals, so an invariant can see it.
#[test]
fn por_never_hides_procedure_copyback_writes() {
    let mut sys = System::new("copyback");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    let q = sys.add_behavior("Q", m);
    let a = sys.add_signal("A", Ty::Bit);
    let s1 = sys.add_signal("S1", Ty::Bit);
    let s2 = sys.add_signal_init("S2", Ty::Int(8), Value::int(99, 8));
    let sh = sys.add_variable("sh", Ty::Int(8), p);
    let mut give = Procedure::new("give_two");
    let out_slot = give.add_param("result", Ty::Int(8), ParamMode::Out);
    give.body = vec![
        assign(local(out_slot), int_const(1, 8)),
        drive(a, bit_const(true)),
        // Pure steps between the drive and the copy-back.
        wait_cycles(1),
        assign(local(out_slot), int_const(2, 8)),
    ];
    let give = sys.add_procedure(give);
    sys.behavior_mut(p).body = vec![call(give, vec![Arg::Out(var(sh))]), wait_cycles(1)];
    sys.behavior_mut(q).body = vec![drive(s1, signal(a)), drive(s2, load(var(sh)))];
    // Seeing `A` high with `sh` still 0 requires scheduling Q entirely
    // between P's drive and P's copy-back — i.e. from the mid-procedure
    // states, the last of which a copy-back-blind ample set would commit
    // as a singleton.
    let window =
        |v: &SignalView<'_>| v.signal_high("S1") && v.signal("S2").unwrap().as_i64().unwrap() == 0;
    let full = Checker::with_config(&sys, CheckConfig::new().without_por()).unwrap();
    let fs = full.explore().unwrap();
    let fr = fs.check_invariant("window unreachable", |v| !window(v));
    assert!(!fr.holds, "the mid-procedure window must be reachable");
    let reduced = Checker::new(&sys).unwrap();
    let rs = reduced.explore().unwrap();
    assert!(rs.stats().ample_states > 0, "reduction must fire");
    let rr = rs.check_invariant("window unreachable", |v| !window(v));
    assert!(!rr.holds, "reduction hid the copy-back write");
    assert_eq!(rr.to_string(), fr.to_string());
}

/// A graceful state budget supersedes the hard state-cap abort: a
/// `--check-limit` above the cap must end in a `Bounded` verdict, never
/// the exhaustion error (that error fires mid-level, before the budget
/// is even consulted). Reduction is off so the space stays larger than
/// the budget.
#[test]
fn state_limit_supersedes_the_hard_state_cap() {
    let sys = mixed_private();
    let capped = |config: CheckConfig| {
        let mut ck = Checker::with_config(&sys, config.without_por()).unwrap();
        ck.max_states = 20;
        ck
    };
    // Budget above the cap, space bigger than both: stops at the budget.
    let ck = capped(CheckConfig::new().with_state_limit(50));
    let ss = ck
        .explore()
        .expect("budgeted run must not hit the hard cap");
    let b = ss.bounded().expect("budget must bound the run");
    assert_eq!(b.limit, 50);
    assert!(ss.state_count() >= 50);
    // Budget above the cap, space smaller than the budget: completes.
    let ck = capped(CheckConfig::new().with_state_limit(1_000_000));
    let ss = ck
        .explore()
        .expect("budgeted run must not hit the hard cap");
    assert!(ss.bounded().is_none(), "the space fits the budget");
    assert!(ss.state_count() > 20);
    // Without a budget the hard cap still aborts, with a capacity error
    // that names no API.
    let ck = capped(CheckConfig::new());
    let err = ck.explore().err().expect("hard cap must abort");
    assert_eq!(err, SimError::StateCapExceeded { max_states: 20 });
    assert_eq!(err.to_string(), "reachable state space exceeds 20 states");
}

// ---- the state store ----

/// Two keys with one hash land in one probe run; `find` tells them
/// apart by the stored key, and a third key under the same hash is a
/// miss.
#[test]
fn id_table_tells_equal_hashes_apart_by_key() {
    let keys = [10u32, 20, 30];
    let h = 0xdead_beef_0000_0001;
    let mut table = state::IdTable::new();
    for id in 0..2 {
        let at = table
            .find(h, |i| keys[i as usize] == keys[id as usize])
            .expect_err("not stored yet");
        table.insert(at, id, |_| h);
    }
    assert_eq!(table.find(h, |i| keys[i as usize] == 10).ok(), Some(0));
    assert_eq!(table.find(h, |i| keys[i as usize] == 20).ok(), Some(1));
    assert!(table.find(h, |i| keys[i as usize] == 30).is_err());
    assert_eq!(table.len(), 2);
}

/// A key whose home is the last slot probes on at slot 0.
#[test]
fn id_table_probe_wraps_around_at_the_last_slot() {
    let mut table = state::IdTable::new();
    let last = table.slots() - 1;
    let h = u64::MAX; // high half all ones: home is the last slot
    let at = table.find(h, |_| false).expect_err("empty table");
    assert_eq!(at.slot(), last);
    table.insert(at, 0, |_| h);
    let at = table
        .find(h, |id| id == 1)
        .expect_err("key 1 is not stored");
    assert_eq!(at.slot(), 0, "the probe wraps to the first slot");
    table.insert(at, 1, |_| h);
    assert_eq!(table.find(h, |id| id == 0).ok(), Some(0));
    assert_eq!(table.find(h, |id| id == 1).ok(), Some(1));
}

/// Growth re-places every stored id by its key's hash: every id stays
/// findable under its key, at a load of at most one half.
#[test]
fn id_table_growth_keeps_every_id() {
    let hash = |k: u32| fx::splitmix(u64::from(k));
    let mut table = state::IdTable::new();
    let first = table.slots();
    for k in 0..5000u32 {
        let at = table.find(hash(k), |id| id == k).expect_err("fresh key");
        table.insert(at, k, hash);
    }
    assert!(table.slots() > first, "the table grew");
    assert!(table.len() * 2 <= table.slots());
    for k in 0..5000u32 {
        assert_eq!(table.find(hash(k), |id| id == k).ok(), Some(k));
    }
    assert!(table.find(hash(5000), |id| id == 5000).is_err());
}

/// An arena hands out ids in first-seen order and `get` returns exactly
/// the slice interned under each, zero-length components included.
#[test]
fn arena_get_returns_exactly_the_interned_slice() {
    let mut arena = state::Arena::new(3);
    let keys: [&[u32]; 3] = [&[1, 2, 3], &[3, 2, 1], &[0, 0, 0]];
    let ids: Vec<u32> = keys.iter().map(|k| arena.intern(k)).collect();
    assert_eq!(ids, [0, 1, 2]);
    for (&id, key) in ids.iter().zip(keys) {
        assert_eq!(arena.get(id), key);
        assert_eq!(arena.intern(key), id);
    }
    let mut empty: state::Arena<u32> = state::Arena::new(0);
    assert_eq!(empty.intern(&[]), 0);
    assert_eq!(empty.intern(&[]), 0);
    assert!(empty.get(0).is_empty());
}

/// A lookup that finds its component stores nothing: the arena's values,
/// their capacity and the table keep their size, and a pool builds no
/// owned copy.
#[test]
fn a_hit_allocates_nothing() {
    let mut arena = state::Arena::new(2);
    for k in 0..40u32 {
        arena.intern(&[k, k + 1]);
    }
    let before = arena.footprint();
    assert_eq!(arena.intern(&[7, 8]), 7);
    assert_eq!(arena.footprint(), before);

    let mut pool: state::Pool<Box<[u32]>> = state::Pool::new();
    let a = pool.intern(vec![1, 2].into_boxed_slice());
    let mut copied = false;
    let hit = pool.intern_with(&[1u32, 2][..], || {
        copied = true;
        vec![1, 2].into_boxed_slice()
    });
    assert_eq!((hit, copied), (a, false), "a hit builds no copy");
    let miss = pool.intern_with(&[2u32, 1][..], || {
        copied = true;
        vec![2, 1].into_boxed_slice()
    });
    assert_eq!((miss, copied), (1, true), "a miss builds one");
    assert_eq!(&**pool.get(miss), &[2, 1]);
}

/// A stored transition is 8 bytes and a parent link 12; a packed label
/// keeps its kind and index at the ends of the index range.
#[test]
fn stored_edges_and_parents_are_packed() {
    use explore::{Edge, Parent, StepLabel, MAX_LABEL_INDEX};
    assert_eq!(std::mem::size_of::<Edge>(), 8);
    assert_eq!(std::mem::size_of::<Parent>(), 12);
    let max = MAX_LABEL_INDEX as u32;
    for label in [
        StepLabel::Run(0),
        StepLabel::Run(max),
        StepLabel::Watchdog(max),
        StepLabel::Fault(0),
        StepLabel::Fault(max),
    ] {
        assert_eq!(label.pack().unpack(), label);
    }
}

/// A run of more than `u32::MAX` cycles ends the exploration with
/// `TransitionCostOverflow`; one of exactly `u32::MAX` is recorded, and
/// costs along a path add up beyond it.
#[test]
fn a_transition_cost_beyond_u32_is_an_error() {
    let max = u64::from(u32::MAX);
    let mut sys = System::new("long_wait");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    sys.behavior_mut(p).body = vec![wait_cycles(max), wait_cycles(max)];
    let ck = Checker::new(&sys).unwrap();
    let ss = ck.explore().unwrap();
    assert_eq!(ss.worst_cost_to_quiescence(), Some(2 * max));

    sys.behavior_mut(p).body = vec![wait_cycles(max + 1)];
    let ck = Checker::new(&sys).unwrap();
    let err = ck.explore().err().expect("the cost does not fit");
    assert_eq!(
        err,
        SimError::TransitionCostOverflow {
            behavior: "P".to_string(),
            cost: max + 1,
        }
    );
}

/// The reverse adjacency lists, for every state, one predecessor per
/// edge into it, in ascending source order — the plain reversal of the
/// edge lists — also on a bounded graph, whose frontier has no edges.
#[test]
fn reverse_adjacency_reverses_every_edge() {
    let sys = mixed_private();
    for config in [
        CheckConfig::new().without_por(),
        CheckConfig::new().without_por().with_state_limit(10),
    ] {
        let ck = Checker::with_config(&sys, config).unwrap();
        let g = ck.explore_graph().unwrap();
        let mut plain = vec![Vec::new(); g.states.len()];
        for src in 0..g.states.len() {
            for e in &g.edges[g.edge_off[src] as usize..g.edge_off[src + 1] as usize] {
                plain[e.to as usize].push(src as u32);
            }
        }
        let rev = space::Reverse::new(&g);
        for (i, preds) in plain.iter().enumerate() {
            assert_eq!(rev.preds_of(i), &preds[..], "predecessors of state {i}");
        }
    }
}

// ---- in-place execution: rollback ----

/// A run that writes a shared variable and drives a signal, then crashes
/// on an out-of-range index, commits no successor — but its writes have
/// already landed in the explorer's scratch state. They must be rolled
/// back before the later-pid `Q` runs on that state, so the copies `Q`
/// drives of the variable and the signal keep their initial values on
/// every schedule, while the crash still fails the terminal property.
#[test]
fn crashed_run_writes_never_reach_later_pids() {
    let mut sys = System::new("crash_rollback");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    let q = sys.add_behavior("Q", m);
    let s = sys.add_signal("S", Ty::Bit);
    let sh = sys.add_variable("sh", Ty::Int(8), p);
    let mem = sys.add_variable("mem", Ty::array(Ty::Int(8), 2), p);
    let k = sys.add_variable_init("k", Ty::Int(8), p, Value::int(5, 8));
    let sh_copy = sys.add_signal("SH_COPY", Ty::Int(8));
    let s_copy = sys.add_signal("S_COPY", Ty::Bit);
    // Zero-cost statements: the two writes and the crash are one run.
    sys.behavior_mut(p).body = vec![
        assign_cost(var(sh), int_const(7, 8), 0),
        drive_cost(s, bit_const(true), 0),
        assign_cost(index(var(mem), load(var(k))), int_const(1, 8), 0),
    ];
    sys.behavior_mut(q).body = vec![drive(sh_copy, load(var(sh))), drive(s_copy, signal(s))];
    for config in [CheckConfig::new(), CheckConfig::new().without_por()] {
        let ck = Checker::with_config(&sys, config).unwrap();
        let ss = ck.explore().unwrap();
        let report = ss.check_invariant("copies keep their initial values", |v| {
            v.signal("SH_COPY").unwrap().as_i64().unwrap() == 0 && !v.signal_high("S_COPY")
        });
        assert!(report.holds, "{report}");
        let report = ss.check_terminal("completes", |v| v.all_done());
        assert_eq!(report.verdict, Verdict::Fail);
        let trace = report.counterexample.expect("crash trace").trace;
        assert!(
            trace.last().is_some_and(|l| l.starts_with("`P` crashes")),
            "{trace:?}"
        );
    }
}

/// Fault strikes also run in place: the first strike's signal, budget
/// and frozen mask must not leak into its sibling strike's successor.
/// `P` drives `A` high, waits for `B` (which only the environment's flip
/// raises) and copies `A` into `x`; `StuckLow(A)` strikes before
/// `FlipBit(B)` in every expansion where both can. Writing a state as
/// `A B P x budgets frozen(A)` with `P` at its start (`s`), waiting on
/// `B` (`w`), released (`r`) or done (`d`):
///
/// ```text
/// S0  00 s 0 11 -  --P--> S1, --stuck--> S2, --flip--> S3
/// S1  10 w 0 11 -  --stuck--> S4, --flip--> S5
/// S2  00 s 0 01 F  --P (swallowed)--> S4, --flip--> S6
/// S3  01 s 0 10 -  --P--> S5, --stuck--> S6
/// S4  00 w 0 01 F  --flip--> S7
/// S5  11 r 0 10 -  --P--> S8, --stuck--> S7
/// S6  01 s 0 00 F  --P (swallowed)--> S7
/// S7  01 r 0 00 F  --P--> S9
/// S8  11 d 1 10 -  --stuck--> S10
/// S9  01 d 0 00 F
/// S10 01 d 1 00 F
/// ```
///
/// 11 states, 15 transitions, and 5 terminals (S1, S4, S8, S9, S10:
/// faults do not count against quiescence). A leaked stuck signal (S1's flip
/// successor with `A` low), budget or frozen mask (S0's and S1's flip
/// successors) each reaches a different set.
#[test]
fn fault_strikes_do_not_leak_into_sibling_strikes() {
    let mut sys = System::new("strike_rollback");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    let a = sys.add_signal("A", Ty::Bit);
    let b = sys.add_signal("B", Ty::Bit);
    let x = sys.add_variable("x", Ty::Bit, p);
    sys.behavior_mut(p).body = vec![
        drive(a, bit_const(true)),
        wait_until(eq(signal(b), bit_const(true))),
        assign_cost(var(x), signal(a), 0),
    ];
    let faults = CheckConfig::new()
        .with_fault(EnvFault::StuckLow {
            signal: "A".to_string(),
        })
        .with_fault(EnvFault::FlipBit {
            signal: "B".to_string(),
            bit: 0,
            budget: 1,
        });
    for config in [faults.clone(), faults.without_por()] {
        let ck = Checker::with_config(&sys, config).unwrap();
        let ss = ck.explore().unwrap();
        assert_eq!(ss.state_count(), 11);
        assert_eq!(ss.transition_count(), 15);
        assert_eq!(ss.terminal_count(), 5);
    }
}

/// A run's eager waiter release advances another process in the scratch
/// state. Unless that is rolled back too, the released process's own run
/// starts past a wait that never held in the source state. By hand, with
/// states written `REQ ACK P-pc C-pc` (`d` = done):
///
/// ```text
/// S0 00 0 0 --P--> S1      S4 11 2 d --P--> S6
/// S1 10 1 1 --C--> S2      S5 01 d 2 --C--> S7
/// S2 11 2 2 --P--> S3, --C--> S4
/// S3 01 3 2 --P--> S5, --C--> S6
/// S6 01 3 d --P--> S7      S7 01 d d
/// ```
#[test]
fn released_waiters_are_rolled_back() {
    let sys = handshake();
    for config in [CheckConfig::new(), CheckConfig::new().without_por()] {
        let ck = Checker::with_config(&sys, config).unwrap();
        let ss = ck.explore().unwrap();
        assert_eq!(ss.state_count(), 8);
        assert_eq!(ss.transition_count(), 9);
        assert_eq!(ss.terminal_count(), 1);
    }
}

/// A store into a shared variable releases its waiter even when no
/// signal is driven: `W` parks at `wait until V = '1'`, and `S` sets
/// `V` with a plain assignment. Written `V W-pc S`
/// (`d` = done):
///
/// ```text
/// S0 0 0 0 --S--> S1 (W released)
/// S1 1 1 d --W--> S2
/// S2 1 d d
/// ```
///
/// A sweep that looked past `W` after a run that drove no signal would
/// leave it parked in S1, which then is a terminal where `W` never
/// finishes.
#[test]
fn a_variable_store_releases_its_waiter() {
    let mut sys = System::new("var_release");
    let m = sys.add_module("chip");
    let w = sys.add_behavior("W", m);
    let s = sys.add_behavior("S", m);
    let v = sys.add_variable("V", Ty::Bit, s);
    let seen = sys.add_variable("seen", Ty::Bit, w);
    // Zero-cost statements: each body is one run.
    sys.behavior_mut(w).body = vec![
        wait_until(eq(load(var(v)), bit_const(true))),
        assign_cost(var(seen), bit_const(true), 0),
    ];
    sys.behavior_mut(s).body = vec![assign_cost(var(v), bit_const(true), 0)];
    for config in [CheckConfig::new(), CheckConfig::new().without_por()] {
        let ck = Checker::with_config(&sys, config).unwrap();
        let ss = ck.explore().unwrap();
        assert_eq!(ss.state_count(), 3);
        assert_eq!(ss.transition_count(), 2);
        assert_eq!(ss.terminal_count(), 1);
        let report = ss.check_terminal("the waiter finishes", |v| {
            v.done("W") && v.variable("seen") == Some(&Value::Bit(true))
        });
        assert!(report.holds, "{report}");
    }
}
