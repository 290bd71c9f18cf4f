//! Model-checking campaign: exhaustive verification of refined protocols.
//!
//! The fault campaign (`faults.rs`) runs one deterministic schedule per
//! scenario; this campaign runs the explicit-state checker
//! ([`ifsyn_sim::Checker`]) over the *whole* schedule space of the same
//! refined systems, under a nondeterministic fault environment that may
//! strike at any instant. Systems: the Fig. 3 worked example at width 8
//! (every variant) and a reduced two-access FLC at width 16 (plain vs
//! protected). The reduced build generates the identical protocol shape
//! at a campaign-sized cost: the full 128-access FLC is checked
//! exhaustively too, but it takes 11,649,550 states, about a minute and
//! 944 MiB peak RSS on a 2-vCPU host (`ifsyn specs/flc.ifs --width 16
//! --check --check-limit 12000000`; see `docs/PERFORMANCE.md`), so it
//! runs as its own CI step instead, which pins its exploration counts.
//!
//! Every exploration checks the bus property catalog of `ifsyn-core`
//! ([`RefinedSystem::check_bus_properties`]) with the system's delivery
//! predicate:
//!
//! * `gnt_mutex` — **safety invariant**: at most one arbiter grant line
//!   is high in every reachable state (bus mutual exclusion);
//! * `delivers_or_flags` — **terminal safety**: every quiescent state
//!   either has all clients finished with intact data or has a sticky
//!   `*_STAT_*` flag raised. The plain protocol is *expected to fail*
//!   this under faults — the checker produces the known deadlock and
//!   silent-corruption counterexamples — while the protected variant
//!   must pass on every schedule and strike timing;
//! * `eventual_grant` — **liveness** (fault-free runs): from every state
//!   with a request pending and not granted, some continuation grants
//!   it (`AG(REQ ∧ ¬GNT → EF GNT)`). The formulation is
//!   fairness-constrained: a violation means the goal is unreachable on
//!   every continuation, not merely missed by one unfair schedule. The
//!   catalog checks each arbiter client; the campaign reports one row.
//!
//! Each exploration also records the reachable-state count and the
//! worst-case cycle cost to quiescence — PR 2's analytic completion
//! bound, now measured over *all* schedules instead of one.
//!
//! Every row carries its expected verdict; [`CheckData::unexpected`]
//! reports deviations and `experiments check` exits nonzero on any.
//! Output is hand-rolled JSON (offline build, no serde) written to
//! `BENCH_check.json`.
//!
//! Every exploration also reports its dedup hits, partial-order-reduction
//! split (ample vs fully expanded states) and peak frontier. All of it is
//! deterministic, so `BENCH_check.json` is pinned byte for byte; how fast
//! the checker explores is measured by the benchmark's `check_catalog`
//! workload (`perfbench/README.md`), not here.

use ifsyn_core::{BusCheck, BusDesign, ProtocolKind, RefinedSystem};
use ifsyn_sim::{CheckConfig, Checker, EnvFault, SimError, StateView};
use ifsyn_spec::Value;
use ifsyn_systems::{fig3, flc};

use crate::emit::{json_opt, json_str};
use crate::faults::{generator, Variant};
use crate::table::Table;

/// Maximum characters of counterexample detail kept per row.
const DETAIL_CAP: usize = 600;

/// One (system, scenario, variant, property) verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRow {
    /// Which system: `"fig3@8"` or `"flcr2@16"`.
    pub system: String,
    /// Fault-environment scenario (`"none"`, `"done_stuck_low"`,
    /// `"data_flip"`).
    pub scenario: String,
    /// Protocol variant of this exploration.
    pub variant: Variant,
    /// Property name.
    pub property: String,
    /// Whether the property held over the explored space.
    pub holds: bool,
    /// The verdict this campaign expects (plain is *expected* to fail
    /// under faults; protected must not).
    pub expected: bool,
    /// Reachable states the check examined.
    pub states: usize,
    /// Counterexample trace/diagnosis for failed properties (capped).
    pub detail: Option<String>,
}

/// Exploration statistics for one (system, scenario, variant).
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceRow {
    /// Which system.
    pub system: String,
    /// Fault-environment scenario.
    pub scenario: String,
    /// Protocol variant.
    pub variant: Variant,
    /// Distinct reachable states.
    pub states: usize,
    /// Explored transitions.
    pub transitions: usize,
    /// Terminal (quiescent) states.
    pub terminals: usize,
    /// Worst-case cycle cost to quiescence over all schedules
    /// (`None` when a reachable cycle makes it unbounded).
    pub worst_cost: Option<u64>,
    /// Successor insertions that hit an already-known state.
    pub dedup_hits: u64,
    /// States expanded through a partial-order-reduced (singleton ample)
    /// successor set.
    pub ample_states: u64,
    /// States expanded with the full successor set.
    pub full_states: u64,
    /// Largest BFS level encountered.
    pub peak_frontier: usize,
}

/// The whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckData {
    /// One row per property verdict.
    pub rows: Vec<CheckRow>,
    /// One row per exploration.
    pub spaces: Vec<SpaceRow>,
}

impl CheckData {
    /// Rows whose verdict deviates from expectation: a required property
    /// violated, or a known-broken baseline unexpectedly passing (which
    /// would mean the checker lost the counterexample). `experiments
    /// check` exits nonzero when this is nonempty.
    pub fn unexpected(&self) -> Vec<&CheckRow> {
        self.rows.iter().filter(|r| r.holds != r.expected).collect()
    }

    /// Failing rows that are expected to fail: the checker's deadlock and
    /// corruption counterexamples against the plain/hardened baselines.
    pub fn known_counterexamples(&self) -> Vec<&CheckRow> {
        self.rows
            .iter()
            .filter(|r| !r.holds && !r.expected)
            .collect()
    }
}

/// A terminal state's delivery predicate: whether the data a system
/// moves arrived intact.
pub type Delivered = Box<dyn Fn(&StateView<'_>) -> bool>;

/// Fig. 3 at width 8, refined by `variant`'s generator, and its delivery
/// predicate: `X` = 32, `MEM[17]` = 39 and `MEM[60]` = 1234.
pub fn fig3_cell(variant: Variant) -> (RefinedSystem, Delivered) {
    let f = fig3::fig3();
    let design = BusDesign::with_width(f.channels(), 8, ProtocolKind::FullHandshake);
    let refined = generator(variant)
        .refine(&f.system, &design)
        .expect("fig3 check refinement");
    let x = refined.system.variable(f.x).name.clone();
    let mem = refined.system.variable(f.mem).name.clone();
    let delivered = move |v: &StateView<'_>| {
        v.variable(&x).and_then(|val| val.as_i64().ok()) == Some(32)
            && v.variable(&mem).is_some_and(|val| {
                array_elem_i64(val, 17) == Some(39) && array_elem_i64(val, 60) == Some(1234)
            })
    };
    (refined, Box::new(delivered))
}

/// The reduced two-access FLC at width 16, refined by `variant`'s
/// generator, and its delivery predicate: `conv_acc` holds the checksum
/// of the `trru2` entries read and `trru0` sums to what the writer sent.
pub fn flcr2_cell(variant: Variant) -> (RefinedSystem, Delivered) {
    let f = flc::flc_reduced(2);
    let design = BusDesign::with_width(f.channels(), 16, ProtocolKind::FullHandshake);
    let refined = generator(variant)
        .refine(&f.system, &design)
        .expect("flc_reduced check refinement");
    let acc = refined.system.variable(f.conv_acc).name.clone();
    let trru0 = refined.system.variable(f.trru0).name.clone();
    let delivered = sums_delivered(acc, f.expected_checksum(), trru0, f.expected_trru0_sum());
    (refined, delivered)
}

/// The paper's FLC (`specs/flc.ifs`, Fig. 6) with both loops cut to `n`
/// iterations, refined at width 16 by `variant`'s generator, and its
/// delivery predicate: `conv_acc` sums the `n` entries read,
/// `Σ (2j + 5)`, and `trru0` the `n` values written, `Σ (3i + 1)`.
pub fn flc_cut(n: u32, variant: Variant) -> (RefinedSystem, Delivered) {
    let full = include_str!("../../../specs/flc.ifs");
    assert_eq!(full.matches("0 to 127").count(), 2, "both FLC loops");
    let source = full.replace("0 to 127", &format!("0 to {}", n - 1));
    let system = ifsyn_lang::parse_system(&source).expect("flc.ifs parses");
    let design = BusDesign::with_width(
        system.channel_ids().collect(),
        16,
        ProtocolKind::FullHandshake,
    );
    let refined = generator(variant)
        .refine(&system, &design)
        .expect("flc refinement");
    let n = i64::from(n);
    let delivered = sums_delivered(
        "conv_acc".to_string(),
        (0..n).map(|j| 2 * j + 5).sum(),
        "trru0".to_string(),
        (0..n).map(|i| 3 * i + 1).sum(),
    );
    (refined, delivered)
}

/// Delivery as the FLC reads it: the scalar `acc` equals `checksum` and
/// the entries of the array `array` sum to `sum`.
fn sums_delivered(acc: String, checksum: i64, array: String, sum: i64) -> Delivered {
    Box::new(move |v| {
        v.variable(&acc).and_then(|x| x.as_i64().ok()) == Some(checksum)
            && v.variable(&array).is_some_and(|x| array_sum_i64(x) == sum)
    })
}

/// The nondeterministic fault environments, over the shared bus `B`'s
/// wires (the checker may strike at *any* instant, unlike the fault
/// campaign's fixed injection times).
fn scenarios() -> Vec<(&'static str, Vec<EnvFault>)> {
    vec![
        ("none", vec![]),
        (
            "done_stuck_low",
            vec![EnvFault::StuckLow {
                signal: "B_DONE".to_string(),
            }],
        ),
        (
            "data_flip",
            vec![EnvFault::FlipBit {
                signal: "B_DATA".to_string(),
                bit: 2,
                budget: 1,
            }],
        ),
    ]
}

/// The expected verdict for a property under a scenario and variant.
fn expected(property: &str, scenario: &str, variant: Variant) -> bool {
    match (property, scenario) {
        // Bus mutual exclusion must survive everything the environment
        // does, on every variant.
        ("gnt_mutex", _) => true,
        // Fault-free liveness must hold on every variant.
        ("eventual_grant", _) => true,
        // Fault-free runs deliver intact data on every variant.
        ("delivers_or_flags", "none") => true,
        // A stuck DONE deadlocks the plain protocol (the known
        // counterexample); hardened/protected abort with their flag.
        ("delivers_or_flags", "done_stuck_low") => variant != Variant::Plain,
        // A data flip silently corrupts plain and hardened transfers;
        // only the protected variant detects and retransmits.
        ("delivers_or_flags", "data_flip") => variant == Variant::Protected,
        _ => true,
    }
}

fn array_elem_i64(v: &Value, i: usize) -> Option<i64> {
    match v {
        Value::Array(items) => items.get(i)?.as_i64().ok(),
        _ => None,
    }
}

fn array_sum_i64(v: &Value) -> i64 {
    match v {
        Value::Array(items) => items.iter().filter_map(|x| x.as_i64().ok()).sum(),
        other => other.as_i64().unwrap_or(0),
    }
}

/// Explores `refined` under `config` and checks the bus property
/// catalog on every schedule, with `delivered` as its delivery
/// predicate.
fn explore(
    (system, scenario, variant): (&str, &str, Variant),
    refined: &RefinedSystem,
    config: CheckConfig,
    delivered: &dyn Fn(&StateView<'_>) -> bool,
) -> Result<(SpaceRow, Vec<BusCheck>), SimError> {
    let ck = Checker::with_config(&refined.system, config)?;
    let ss = ck.explore()?;
    let st = ss.stats();
    let space = SpaceRow {
        system: system.to_string(),
        scenario: scenario.to_string(),
        variant,
        states: ss.state_count(),
        transitions: ss.transition_count(),
        terminals: ss.terminal_count(),
        worst_cost: ss.worst_cost_to_quiescence(),
        dedup_hits: st.dedup_hits,
        ample_states: st.ample_states,
        full_states: st.full_states,
        peak_frontier: st.peak_frontier,
    };
    Ok((space, refined.check_bus_properties(&ss, Some(delivered))))
}

/// The campaign's verdicts of one catalog run, one per property: the
/// per-client `eventual_grant` checks fold into one verdict that fails
/// with the first failing client's counterexample.
fn verdicts(checks: Vec<BusCheck>) -> Vec<(&'static str, bool, Option<String>)> {
    let mut out: Vec<(&'static str, bool, Option<String>)> = Vec::new();
    for c in checks {
        let detail = c.report.counterexample.map(|cex| match &c.request {
            Some(rq) => format!("request `{rq}`:\n{cex}"),
            None => cex.to_string(),
        });
        match out.last_mut() {
            Some(last) if last.0 == c.property => {
                if last.1 && !c.report.holds {
                    *last = (c.property, false, detail);
                }
            }
            _ => out.push((c.property, c.report.holds, detail)),
        }
    }
    out
}

/// Explores one campaign cell under its fault environment and appends
/// its verdicts and exploration stats. An exploration failure (state
/// cap, runtime error) is recorded as an unexpected row so the gate
/// trips.
fn check_one(
    (system, scenario, variant): (&str, &str, Variant),
    faults: &[EnvFault],
    (refined, delivered): (RefinedSystem, Delivered),
    rows: &mut Vec<CheckRow>,
    spaces: &mut Vec<SpaceRow>,
) {
    let config = faults
        .iter()
        .cloned()
        .fold(CheckConfig::new(), CheckConfig::with_fault);
    let found = match explore((system, scenario, variant), &refined, config, &delivered) {
        Ok((space, checks)) => {
            let states = space.states;
            spaces.push(space);
            verdicts(checks)
                .into_iter()
                .map(|(property, holds, detail)| (property, holds, states, detail))
                .collect()
        }
        Err(e) => vec![("exploration", false, 0, Some(e.to_string()))],
    };
    for (property, holds, states, detail) in found {
        rows.push(CheckRow {
            system: system.to_string(),
            scenario: scenario.to_string(),
            variant,
            property: property.to_string(),
            holds,
            expected: expected(property, scenario, variant),
            states,
            detail: detail.map(|d| {
                if d.len() > DETAIL_CAP {
                    let cut = d
                        .char_indices()
                        .take_while(|&(i, _)| i < DETAIL_CAP)
                        .last()
                        .map_or(0, |(i, c)| i + c.len_utf8());
                    format!("{}…", &d[..cut])
                } else {
                    d
                }
            }),
        });
    }
}

/// Runs the campaign: scenarios × variants over fig3@8 and the reduced
/// FLC at width 16.
pub fn run() -> CheckData {
    let mut rows = Vec::new();
    let mut spaces = Vec::new();
    for (scenario, faults) in scenarios() {
        for variant in Variant::ALL {
            let cell = ("fig3@8", scenario, variant);
            check_one(cell, &faults, fig3_cell(variant), &mut rows, &mut spaces);
        }
        // Reduced FLC: plain (the unhardened baseline) vs protected (the
        // full defense); hardened adds little beyond the fig3 matrix and
        // exhaustive exploration is expensive.
        for variant in [Variant::Plain, Variant::Protected] {
            let cell = ("flcr2@16", scenario, variant);
            check_one(cell, &faults, flcr2_cell(variant), &mut rows, &mut spaces);
        }
    }
    CheckData { rows, spaces }
}

/// Percentage of expanded states that took the reduced (ample) path.
fn ample_pct(ample: u64, full: u64) -> f64 {
    let total = ample + full;
    if total == 0 {
        0.0
    } else {
        ample as f64 * 100.0 / total as f64
    }
}

/// Renders the campaign as text.
pub fn render(data: &CheckData) -> String {
    let mut out = String::new();
    out.push_str("Model-checking campaign — exhaustive exploration of refined protocols\n\n");
    let mut t = Table::new([
        "system", "scenario", "protocol", "property", "result", "expected", "states",
    ]);
    for r in &data.rows {
        t.row([
            r.system.clone(),
            r.scenario.clone(),
            r.variant.as_str().to_string(),
            r.property.clone(),
            if r.holds { "PASS" } else { "FAIL" }.to_string(),
            if r.expected { "PASS" } else { "FAIL" }.to_string(),
            r.states.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nexploration sizes:\n");
    let mut s = Table::new([
        "system",
        "scenario",
        "protocol",
        "states",
        "transitions",
        "terminals",
        "worst cost",
        "ample%",
    ]);
    for r in &data.spaces {
        s.row([
            r.system.clone(),
            r.scenario.clone(),
            r.variant.as_str().to_string(),
            r.states.to_string(),
            r.transitions.to_string(),
            r.terminals.to_string(),
            r.worst_cost
                .map_or("unbounded".to_string(), |c| c.to_string()),
            format!("{:.1}", ample_pct(r.ample_states, r.full_states)),
        ]);
    }
    out.push_str(&s.render());
    let known = data.known_counterexamples();
    out.push_str(&format!(
        "\n{} expected counterexample(s) against unprotected baselines:\n",
        known.len()
    ));
    for r in known {
        out.push_str(&format!(
            "\n{} / {} ({}) violates {}:\n",
            r.system,
            r.scenario,
            r.variant.as_str(),
            r.property
        ));
        if let Some(d) = &r.detail {
            out.push_str(d);
            out.push('\n');
        }
    }
    let bad = data.unexpected();
    if bad.is_empty() {
        out.push_str("\nall verdicts match expectation\n");
    } else {
        out.push_str(&format!(
            "\nCHECK REGRESSION: {} verdict(s) deviate from expectation\n",
            bad.len()
        ));
        for r in bad {
            out.push_str(&format!(
                "  {} / {} ({}) {}: got {}, expected {}\n",
                r.system,
                r.scenario,
                r.variant.as_str(),
                r.property,
                if r.holds { "PASS" } else { "FAIL" },
                if r.expected { "PASS" } else { "FAIL" },
            ));
            if let Some(d) = &r.detail {
                out.push_str(&format!("    {}\n", d.replace('\n', "\n    ")));
            }
        }
    }
    out
}

/// Serializes the campaign as the `BENCH_check.json` document (schema
/// v3). Every field is deterministic, so the document is the same on
/// every host and run.
pub fn to_json(data: &CheckData) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"ifsyn-bench-check-v3\",\n");
    out.push_str(&format!("  \"unexpected\": {},\n", data.unexpected().len()));
    out.push_str(&format!(
        "  \"known_counterexamples\": {},\n",
        data.known_counterexamples().len()
    ));
    out.push_str("  \"properties\": [\n");
    crate::emit::array_rows(&mut out, &data.rows, |r| {
        format!(
            "    {{\"system\": {}, \"scenario\": {}, \"protocol\": {}, \
             \"property\": {}, \"holds\": {}, \"expected\": {}, \"states\": {}, \
             \"detail\": {}}}",
            json_str(&r.system),
            json_str(&r.scenario),
            json_str(r.variant.as_str()),
            json_str(&r.property),
            r.holds,
            r.expected,
            r.states,
            crate::emit::json_opt_str(r.detail.as_deref()),
        )
    });
    out.push_str("  ],\n");
    out.push_str("  \"explorations\": [\n");
    crate::emit::array_rows(&mut out, &data.spaces, |r| {
        format!(
            "    {{\"system\": {}, \"scenario\": {}, \"protocol\": {}, \
             \"states\": {}, \"transitions\": {}, \"terminals\": {}, \
             \"worst_cost\": {}, \"dedup_hits\": {}, \"ample_states\": {}, \
             \"full_states\": {}, \"ample_ratio\": {:.4}, \"peak_frontier\": {}}}",
            json_str(&r.system),
            json_str(&r.scenario),
            json_str(r.variant.as_str()),
            r.states,
            r.transitions,
            r.terminals,
            json_opt(r.worst_cost),
            r.dedup_hits,
            r.ample_states,
            r.full_states,
            ample_pct(r.ample_states, r.full_states) / 100.0,
            r.peak_frontier,
        )
    });
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_matrix_is_sound() {
        // Plain must be expected to fail under both fault scenarios.
        assert!(!expected(
            "delivers_or_flags",
            "done_stuck_low",
            Variant::Plain
        ));
        assert!(!expected("delivers_or_flags", "data_flip", Variant::Plain));
        assert!(!expected(
            "delivers_or_flags",
            "data_flip",
            Variant::Hardened
        ));
        // Protected must be expected to pass everywhere.
        for scenario in ["none", "done_stuck_low", "data_flip"] {
            assert!(expected("delivers_or_flags", scenario, Variant::Protected));
            assert!(expected("gnt_mutex", scenario, Variant::Protected));
        }
    }

    #[test]
    fn unexpected_gates_on_mismatch() {
        let row = |holds, expected| CheckRow {
            system: "fig3@8".into(),
            scenario: "none".into(),
            variant: Variant::Plain,
            property: "gnt_mutex".into(),
            holds,
            expected,
            states: 10,
            detail: None,
        };
        let data = CheckData {
            rows: vec![row(true, true), row(false, false)],
            spaces: vec![],
        };
        assert!(data.unexpected().is_empty());
        assert_eq!(data.known_counterexamples().len(), 1);
        let data = CheckData {
            rows: vec![row(false, true)],
            spaces: vec![],
        };
        assert_eq!(data.unexpected().len(), 1);
    }

    #[test]
    fn json_is_balanced() {
        let data = CheckData {
            rows: vec![CheckRow {
                system: "fig3@8".into(),
                scenario: "data_flip".into(),
                variant: Variant::Protected,
                property: "delivers_or_flags".into(),
                holds: true,
                expected: true,
                states: 1234,
                detail: None,
            }],
            spaces: vec![SpaceRow {
                system: "fig3@8".into(),
                scenario: "data_flip".into(),
                variant: Variant::Protected,
                states: 1234,
                transitions: 4321,
                terminals: 3,
                worst_cost: Some(99),
                dedup_hits: 55,
                ample_states: 400,
                full_states: 834,
                peak_frontier: 17,
            }],
        };
        let json = to_json(&data);
        assert!(json.contains("\"schema\": \"ifsyn-bench-check-v3\""));
        // Every v1 field survives under its v1 name.
        for field in [
            "\"system\"",
            "\"scenario\"",
            "\"protocol\"",
            "\"property\"",
            "\"holds\"",
            "\"expected\"",
            "\"states\"",
            "\"detail\"",
            "\"transitions\"",
            "\"terminals\"",
            "\"worst_cost\": 99",
        ] {
            assert!(json.contains(field), "missing v1 field {field}");
        }
        // An exploration row holds its counts and nothing else.
        assert!(json.contains(
            "\"worst_cost\": 99, \"dedup_hits\": 55, \"ample_states\": 400, \
             \"full_states\": 834, \"ample_ratio\": 0.3241, \"peak_frontier\": 17}\n  ]\n}\n"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}

#[cfg(test)]
mod exploration_tests {
    use super::*;

    /// Fault-free fig3 at width 8, plain protocol: every schedule the
    /// checker can produce completes with intact data. This is the
    /// regression fence for the eager-release semantics — without
    /// kernel-faithful waiter wake-up, interleaving invents a spurious
    /// missed-pulse deadlock (a server sleeping through the brief START
    /// low phase between two back-to-back bus words).
    #[test]
    fn fig3_plain_fault_free_completes_on_every_schedule() {
        let (refined, _) = fig3_cell(Variant::Plain);
        let ck = Checker::with_config(&refined.system, CheckConfig::new()).expect("checker");
        let ss = ck.explore().expect("explore");
        assert_eq!(ss.error_count(), 0);
        let rep = ss.check_terminal("all terminals finish", |v| v.all_done());
        assert!(rep.holds, "{:?}", rep.counterexample.map(|c| c.to_string()));
    }

    /// Reduced FLC, protected variant, DONE stuck at 0 at any instant:
    /// no schedule crashes (the bound guard keeps false-accepted
    /// addresses out of the arrays) and every quiescent state either
    /// delivered intact data or raised a sticky status flag. This is
    /// the regression fence for the position-weighted checksum — the
    /// salted-XOR scheme it replaced false-accepted a retry-desynced
    /// word stream here and committed a corrupt address.
    #[test]
    fn flcr2_protected_stuck_done_never_corrupts() {
        let (refined, delivered) = flcr2_cell(Variant::Protected);
        let config = CheckConfig::new().with_fault(EnvFault::StuckLow {
            signal: "B_DONE".to_string(),
        });
        let ck = Checker::with_config(&refined.system, config).expect("checker");
        let ss = ck.explore().expect("explore");
        assert_eq!(ss.error_count(), 0, "no schedule may crash the servers");
        for c in refined.check_bus_properties(&ss, Some(&delivered)) {
            let rep = c.report;
            assert!(rep.holds, "{rep}");
        }
    }
}
