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
//! randomized synthetic producer/consumer fields, and the FLC cuts. The
//! catalog cells and the cuts check the bus property catalog
//! (`RefinedSystem::check_bus_properties`) with the campaign's delivery
//! predicates.

use ifsyn_bench::check::{fig3_cell, flc_cut, flcr2_cell, Delivered};
use ifsyn_bench::faults::Variant;
use ifsyn_core::RefinedSystem;
use ifsyn_sim::{CheckConfig, Checker, EnvFault, StateSpace, Verdict};
use ifsyn_systems::synth::{synth_system, SynthConfig};

/// One catalog cell: a refined system, its fault environment, and the
/// delivery predicate its terminal property checks.
struct Cell {
    name: String,
    refined: RefinedSystem,
    faults: Vec<EnvFault>,
    delivered: Delivered,
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

fn fig3(scenario: &str, faults: Vec<EnvFault>, variant: Variant, expect_fail: bool) -> Cell {
    let (refined, delivered) = fig3_cell(variant);
    Cell {
        name: format!("fig3@8/{scenario}/{}", variant.as_str()),
        refined,
        faults,
        delivered,
        expect_delivery_failure: expect_fail,
    }
}

fn flcr2(scenario: &str, faults: Vec<EnvFault>, variant: Variant, expect_fail: bool) -> Cell {
    let (refined, delivered) = flcr2_cell(variant);
    Cell {
        name: format!("flcr2@16/{scenario}/{}", variant.as_str()),
        refined,
        faults,
        delivered,
        expect_delivery_failure: expect_fail,
    }
}

/// The five pinned known-counterexample cells plus two fault-free
/// passing cells.
fn catalog() -> Vec<Cell> {
    vec![
        fig3("done_stuck_low", done_stuck_low(), Variant::Plain, true),
        fig3("data_flip", data_flip(), Variant::Plain, true),
        fig3("data_flip", data_flip(), Variant::Hardened, true),
        flcr2("done_stuck_low", done_stuck_low(), Variant::Plain, true),
        flcr2("data_flip", data_flip(), Variant::Plain, true),
        fig3("none", vec![], Variant::Plain, false),
        flcr2("none", vec![], Variant::Protected, false),
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
    let checks = cell.refined.check_bus_properties(ss, Some(&cell.delivered));
    CellReport {
        reports: checks.iter().map(|c| c.report.to_string()).collect(),
        holds: checks.iter().map(|c| c.report.holds).collect(),
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
        let base = CheckConfig::new();
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

/// Terminal predicates read variables, which reduced steps change
/// freely; they are sound only because ample sets meeting C0, C1 and C3
/// keep every terminal state. On FLC cuts, fault-free, under a stuck
/// DONE (hardened) and under a data flip (protected), reduction must
/// engage and shrink the space while keeping the terminal count, the
/// completion bound, the crash labels, the verdicts of plain delivery
/// (over `conv_acc` and `trru0`) and of the bus property catalog with
/// the cut's delivery predicate, and every failing report byte for
/// byte.
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
            let (refined, delivered) = flc_cut(n, *variant);
            let run = |config: CheckConfig| {
                let config = faults.iter().cloned().fold(config, CheckConfig::with_fault);
                let ck = Checker::with_config(&refined.system, config).expect("checker");
                let ss = ck.explore().expect("explore");
                let mut reports =
                    vec![ss.check_terminal("delivers", |v| v.all_done() && delivered(v))];
                reports.extend(
                    refined
                        .check_bus_properties(&ss, Some(&delivered))
                        .into_iter()
                        .map(|c| c.report),
                );
                let st = ss.stats();
                (
                    (
                        ss.terminal_count(),
                        ss.worst_cost_to_quiescence(),
                        ss.error_labels(),
                        reports.iter().map(|r| r.verdict).collect::<Vec<_>>(),
                        reports
                            .into_iter()
                            .map(|r| (r.verdict == Verdict::Fail).then(|| r.to_string()))
                            .collect::<Vec<_>>(),
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
    let cell = fig3("none", vec![], Variant::Plain, false);
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
