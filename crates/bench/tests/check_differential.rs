//! Differential suite for the scaled model checker.
//!
//! Partial-order reduction is the exploration core's one fast path, and
//! this suite pins its soundness against the plain scalar engine:
//! singleton ample sets must preserve every verdict, the set of
//! reachable crash labels, the worst-case completion bound, and (via
//! replay delegation) the byte-exact counterexample reports of the
//! unreduced explorer. Terminal predicates may read variables, which
//! reduced steps change freely, so the suite also pins that reduction
//! keeps every terminal state, on cuts of the paper's full FLC.
//!
//! The cells are the five pinned known-counterexample scenarios of the
//! `experiments check` campaign (plain/hardened baselines under a stuck
//! DONE or a flipped data bit) plus fault-free passing cells, a set of
//! randomized synthetic producer/consumer fields, and the FLC cuts.

use ifsyn_bench::faults::{generator, Variant};
use ifsyn_core::{BusDesign, ProtocolKind, RefinedSystem};
use ifsyn_sim::{CheckConfig, Checker, EnvFault, StateSpace, StateView, Verdict};
use ifsyn_spec::Value;
use ifsyn_systems::synth::{synth_system, SynthConfig};
use ifsyn_systems::{fig3, flc};

/// One catalog cell: a refined system, its fault environment, and the
/// delivery predicate (`data_ok`) its terminal property checks.
struct Cell {
    name: String,
    refined: RefinedSystem,
    faults: Vec<EnvFault>,
    data_ok: Box<dyn Fn(&StateView<'_>) -> bool>,
    /// Whether the campaign expects the delivery property to fail here
    /// (the pinned known counterexamples).
    expect_delivery_failure: bool,
}

fn done_stuck_low() -> Vec<EnvFault> {
    vec![EnvFault::StuckLow {
        signal: "B_DONE".to_string(),
    }]
}

fn data_flip() -> Vec<EnvFault> {
    vec![EnvFault::FlipBit {
        signal: "B_DATA".to_string(),
        bit: 2,
        budget: 1,
    }]
}

fn fig3_cell(scenario: &str, faults: Vec<EnvFault>, variant: Variant, expect_fail: bool) -> Cell {
    let f = fig3::fig3();
    let design = BusDesign::with_width(f.channels(), 8, ProtocolKind::FullHandshake);
    let refined = generator(variant)
        .refine(&f.system, &design)
        .expect("fig3 refinement");
    let x_name = refined.system.variable(f.x).name.clone();
    let mem_name = refined.system.variable(f.mem).name.clone();
    Cell {
        name: format!("fig3@8/{scenario}/{}", variant.as_str()),
        refined,
        faults,
        data_ok: Box::new(move |v| {
            let x_ok = v.variable(&x_name).and_then(|val| val.as_i64().ok()) == Some(32);
            let mem_ok = v
                .variable(&mem_name)
                .map(|val| array_elem(val, 17) == Some(39) && array_elem(val, 60) == Some(1234))
                .unwrap_or(false);
            x_ok && mem_ok
        }),
        expect_delivery_failure: expect_fail,
    }
}

fn flcr2_cell(scenario: &str, faults: Vec<EnvFault>, variant: Variant, expect_fail: bool) -> Cell {
    let f = flc::flc_reduced(2);
    let design = BusDesign::with_width(f.channels(), 16, ProtocolKind::FullHandshake);
    let refined = generator(variant)
        .refine(&f.system, &design)
        .expect("flc_reduced refinement");
    let trru0 = refined.system.variable(f.trru0).name.clone();
    let conv_acc = refined.system.variable(f.conv_acc).name.clone();
    let trru0_sum = f.expected_trru0_sum();
    let checksum = f.expected_checksum();
    Cell {
        name: format!("flcr2@16/{scenario}/{}", variant.as_str()),
        refined,
        faults,
        data_ok: Box::new(move |v| {
            let acc_ok = v.variable(&conv_acc).and_then(|val| val.as_i64().ok()) == Some(checksum);
            let mem_ok = v
                .variable(&trru0)
                .map(|val| array_sum(val) == trru0_sum)
                .unwrap_or(false);
            acc_ok && mem_ok
        }),
        expect_delivery_failure: expect_fail,
    }
}

fn array_elem(v: &Value, i: usize) -> Option<i64> {
    match v {
        Value::Array(items) => items.get(i)?.as_i64().ok(),
        _ => None,
    }
}

fn array_sum(v: &Value) -> i64 {
    match v {
        Value::Array(items) => items.iter().filter_map(|x| x.as_i64().ok()).sum(),
        other => other.as_i64().unwrap_or(0),
    }
}

/// The five pinned known-counterexample cells plus two fault-free
/// passing cells.
fn catalog() -> Vec<Cell> {
    vec![
        fig3_cell("done_stuck_low", done_stuck_low(), Variant::Plain, true),
        fig3_cell("data_flip", data_flip(), Variant::Plain, true),
        fig3_cell("data_flip", data_flip(), Variant::Hardened, true),
        flcr2_cell("done_stuck_low", done_stuck_low(), Variant::Plain, true),
        flcr2_cell("data_flip", data_flip(), Variant::Plain, true),
        fig3_cell("none", vec![], Variant::Plain, false),
        flcr2_cell("none", vec![], Variant::Protected, false),
    ]
}

fn checker(cell: &Cell, cfg: CheckConfig) -> Checker<'_> {
    let mut cfg = cfg;
    for f in &cell.faults {
        cfg = cfg.with_fault(f.clone());
    }
    Checker::with_config(&cell.refined.system, cfg).expect("checker")
}

/// Everything one engine configuration reports for a cell: the rendered
/// property reports (byte-compared across configurations), the crash
/// label set, and the completion bound.
struct CellReport {
    reports: Vec<String>,
    holds: Vec<bool>,
    error_labels: Vec<String>,
    worst_cost: Option<u64>,
    states: usize,
}

fn report(cell: &Cell, ss: &StateSpace<'_>) -> CellReport {
    let mut reports = Vec::new();
    let mut holds = Vec::new();
    if let Some(arb) = &cell.refined.bus.arbiter {
        let gnt: Vec<String> = arb
            .gnt
            .iter()
            .map(|&g| cell.refined.system.signal(g).name.clone())
            .collect();
        let rep = ss.check_invariant("gnt_mutex", |v| {
            gnt.iter().filter(|n| v.signal_high(n)).count() <= 1
        });
        holds.push(rep.holds);
        reports.push(rep.to_string());
    }
    let flags: Vec<String> = cell
        .refined
        .bus
        .status_flags
        .iter()
        .map(|&(_, sig)| cell.refined.system.signal(sig).name.clone())
        .collect();
    let rep = ss.check_terminal("delivers_or_flags", |v| {
        (v.all_done() && (cell.data_ok)(v)) || flags.iter().any(|n| v.signal_high(n))
    });
    holds.push(rep.holds);
    reports.push(rep.to_string());
    if cell.faults.is_empty() {
        if let Some(arb) = &cell.refined.bus.arbiter {
            for (&rq, &gn) in arb.req.iter().zip(&arb.gnt) {
                let rq_name = cell.refined.system.signal(rq).name.clone();
                let gn_name = cell.refined.system.signal(gn).name.clone();
                let rep = ss.check_leads_to(
                    "eventual_grant",
                    |v| v.signal_high(&rq_name) && !v.signal_high(&gn_name),
                    |v| v.signal_high(&gn_name),
                );
                holds.push(rep.holds);
                reports.push(rep.to_string());
            }
        }
    }
    CellReport {
        reports,
        holds,
        error_labels: ss.error_labels(),
        worst_cost: ss.worst_cost_to_quiescence(),
        states: ss.state_count(),
    }
}

/// POR on versus the plain scalar engine: same verdicts, same
/// crash-label sets, same completion bound, byte-equal failing property
/// reports — and the pinned counterexamples still found.
#[test]
fn por_matches_the_scalar_engine_on_the_pinned_catalog() {
    for cell in catalog() {
        let full = {
            let ck = checker(&cell, CheckConfig::new().without_por());
            let ss = ck.explore().expect("explore");
            report(&cell, &ss)
        };
        // The delivery property (second report once the arbiter check is
        // present, first otherwise) fails exactly on the pinned cells.
        let delivery_holds = full.holds[full.holds.len().min(2) - 1];
        assert_eq!(
            delivery_holds, !cell.expect_delivery_failure,
            "{}: unexpected scalar verdict",
            cell.name
        );
        let ck = checker(&cell, CheckConfig::new());
        let ss = ck.explore().expect("explore");
        let por = report(&cell, &ss);
        assert_eq!(
            por.holds, full.holds,
            "{}: verdicts deviate from the scalar engine",
            cell.name
        );
        // Failing reports carry the counterexample trace; replay
        // delegation promises them byte-identical to the scalar engine.
        // (Passing reports embed the explored state count, which
        // reduction may legitimately shrink.)
        for (held, (p, f)) in full.holds.iter().zip(por.reports.iter().zip(&full.reports)) {
            if !held {
                assert_eq!(p, f, "{}: counterexample deviates", cell.name);
            }
        }
        assert_eq!(
            por.error_labels, full.error_labels,
            "{}: crash label sets deviate",
            cell.name
        );
        assert_eq!(
            por.worst_cost, full.worst_cost,
            "{}: completion bound deviates",
            cell.name
        );
        assert!(
            por.states <= full.states,
            "{}: reduction must never grow the space",
            cell.name
        );
    }
}

/// Randomized synthetic fields: POR over private compute variables
/// versus the full engine. The terminal delivery sums are
/// schedule-independent, so both engines must agree.
#[test]
fn randomized_synth_fields_agree_across_engines() {
    for seed in [1u64, 7, 42] {
        let cfg = SynthConfig::new()
            .with_couples(2)
            .with_rounds(2)
            .with_compute(8)
            .with_compute_cost(1)
            .without_conflicts()
            .with_seed(seed);
        let s = synth_system(&cfg);
        let reference = ifsyn_sim::Simulator::new(&s.system)
            .expect("simulator")
            .run_to_quiescence()
            .expect("quiesces");
        let sums: Vec<(String, i64)> = (0..s.consumers.len())
            .map(|i| {
                let name = format!("c{i}_sum");
                let v = reference
                    .final_variable_by_name(&name)
                    .and_then(|v| v.as_i64().ok())
                    .expect("consumer sum");
                (name, v)
            })
            .collect();
        let check = |ss: &StateSpace<'_>| {
            let rep = ss.check_terminal("delivers_all_sums", |v| {
                v.all_done()
                    && sums
                        .iter()
                        .all(|(n, want)| v.variable(n).and_then(|x| x.as_i64().ok()) == Some(*want))
            });
            (rep.holds, rep.to_string(), ss.worst_cost_to_quiescence())
        };
        let base = CheckConfig::new().with_max_states(1 << 20);
        let full_ck = Checker::with_config(&s.system, base.clone().without_por()).expect("checker");
        let full_ss = full_ck.explore().expect("explore");
        let full = check(&full_ss);
        assert!(full.0, "seed {seed}: synth delivery must hold\n{}", full.1);
        let ck = Checker::with_config(&s.system, base).expect("checker");
        let ss = ck.explore().expect("explore");
        let por = check(&ss);
        // Verdict and completion bound must match the full engine; a
        // passing report's state count legitimately shrinks under
        // reduction, so the rendered line is only compared on FAIL
        // (where replay delegation promises byte-identity).
        assert_eq!(por.0, full.0, "seed {seed}: verdict");
        assert_eq!(por.2, full.2, "seed {seed}: bound");
        if !full.0 {
            assert_eq!(por.1, full.1, "seed {seed}: report");
        }
        assert!(
            ss.state_count() < full_ss.state_count(),
            "seed {seed}: no reduction"
        );
    }
}

/// The paper's FLC (`specs/flc.ifs`, Fig. 6) with both loops cut to `n`
/// iterations, refined at width 16 by `variant`'s generator.
fn flc_cut(n: u32, variant: Variant) -> RefinedSystem {
    let full = include_str!("../../../specs/flc.ifs");
    assert_eq!(full.matches("0 to 127").count(), 2, "both FLC loops");
    let source = full.replace("0 to 127", &format!("0 to {}", n - 1));
    let system = ifsyn_lang::parse_system(&source).expect("flc.ifs parses");
    let design = BusDesign::with_width(
        system.channel_ids().collect(),
        16,
        ProtocolKind::FullHandshake,
    );
    generator(variant)
        .refine(&system, &design)
        .expect("flc refinement")
}

/// Terminal predicates read variables, which reduced steps change
/// freely; they are sound only because ample sets meeting C0, C1 and C3
/// keep every terminal state. On FLC cuts, fault-free, under a stuck
/// DONE (hardened) and under a data flip (protected), reduction must
/// engage and shrink the space while keeping the terminal count, the
/// completion bound, the crash labels, the verdicts of terminal
/// properties over `conv_acc` and `trru0`, and every failing report
/// byte for byte.
#[test]
fn por_keeps_every_terminal_state_of_the_flc() {
    let cases = [
        ("none", vec![], Variant::Plain),
        ("done_stuck_low", done_stuck_low(), Variant::Hardened),
        ("data_flip", data_flip(), Variant::Protected),
    ];
    for n in [2u32, 4] {
        for (scenario, faults, variant) in &cases {
            let name = format!("flc n={n} {scenario}/{}", variant.as_str());
            let refined = flc_cut(n, *variant);
            let sys = &refined.system;
            let flags: Vec<String> = refined
                .bus
                .status_flags
                .iter()
                .map(|&(_, s)| sys.signal(s).name.clone())
                .collect();
            let n = i64::from(n);
            let delivered = move |v: &StateView<'_>| {
                let acc = v.variable("conv_acc").and_then(|x| x.as_i64().ok());
                let sum = v.variable("trru0").map(array_sum);
                v.all_done()
                    && acc == Some((0..n).map(|j| 2 * j + 5).sum())
                    && sum == Some((0..n).map(|i| 3 * i + 1).sum())
            };
            let run = |config: CheckConfig| {
                let config = faults.iter().cloned().fold(config, CheckConfig::with_fault);
                let ck = Checker::with_config(sys, config).expect("checker");
                let ss = ck.explore().expect("explore");
                let reports = [
                    ss.check_terminal("delivers", delivered),
                    ss.check_terminal("delivers_or_flags", |v| {
                        delivered(v) || flags.iter().any(|f| v.signal_high(f))
                    }),
                ];
                let st = ss.stats();
                (
                    (
                        ss.terminal_count(),
                        ss.worst_cost_to_quiescence(),
                        ss.error_labels(),
                        reports.each_ref().map(|r| r.verdict),
                        reports.map(|r| (r.verdict == Verdict::Fail).then(|| r.to_string())),
                    ),
                    ss.state_count(),
                    st.ample_states,
                )
            };
            let (full, full_states, _) = run(CheckConfig::new().without_por());
            let (por, por_states, ample) = run(CheckConfig::new());
            assert_eq!(por, full, "{name}: reduction changed a terminal result");
            assert!(ample > 0, "{name}: reduction must engage");
            assert!(
                por_states < full_states,
                "{name}: {por_states} states with reduction, {full_states} without"
            );
        }
    }
}

/// A state budget turns exhaustion into a structured `Bounded` verdict
/// carrying the budget and the unexplored frontier size.
#[test]
fn state_limit_yields_a_bounded_verdict_with_frontier_details() {
    let cell = fig3_cell("none", vec![], Variant::Plain, false);
    let ck = checker(&cell, CheckConfig::new().with_state_limit(200));
    let ss = ck.explore().expect("explore");
    let b = ss.bounded().expect("exploration must stop at the budget");
    assert_eq!(b.limit, 200);
    assert!(b.frontier > 0, "a truncated frontier must be reported");
    assert!(ss.state_count() >= 200);
    let rep = ss.check_invariant("trivially_true", |_| true);
    assert_eq!(rep.verdict, Verdict::Bounded);
    assert!(rep.holds);
    let shown = rep.to_string();
    assert!(shown.contains("BOUND"), "{shown}");
    assert!(shown.contains("state limit 200"), "{shown}");
    assert_eq!(rep.bounded.map(|x| x.limit), Some(200));
    // A bounded exploration cannot certify a completion bound.
    assert_eq!(ss.worst_cost_to_quiescence(), None);
}
