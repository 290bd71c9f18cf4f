//! `check_catalog`: the 15 explorations of `experiments check --no-big`.
//!
//! fig3 at width 8 with the plain, hardened and protected protocols and
//! the reduced two-access FLC at width 16 with plain and protected, each
//! under no fault, a stuck-low `DONE` and a one-shot `DATA` bit flip. A
//! cell refines its system, builds a checker, explores every schedule,
//! computes the worst-case completion bound and checks its full property
//! set, rendering every counterexample.
//!
//! Pass 0 is the pinned catalog: its verdicts, state counts and
//! counterexample text must match `BENCH_check.json`. Later passes check
//! the same cells over seeded data: fig3's `COUNT` and the FLC's `trru2`
//! start from jittered values, so each pass is new work of the same
//! shape. Their verdicts and exploration sizes must match the pinned ones
//! and their data checks expect the jittered values.

use std::collections::HashSet;
use std::time::Instant;

use ifsyn_bench::faults::{generator, Variant};
use ifsyn_core::{BusDesign, ProtocolKind, RefinedSystem};
use ifsyn_sim::{CheckConfig, Checker, EnvFault, StateView};
use ifsyn_spec::rng::SplitMix64;
use ifsyn_spec::{ChannelId, System, Value, VarId};
use ifsyn_systems::{fig3, flc};

use crate::jitter::jitter_init;
use crate::json::{self, Json};
use crate::ops::{hash_of, OpKey, Tally};
use crate::trace::Tracer;
use crate::Outcome;

/// The pinned catalog: verdicts, states and counterexample text.
const PINNED: &str = include_str!("../../BENCH_check.json");

/// Counterexample characters the pinned catalog keeps per verdict.
const DETAIL_CAP: usize = 600;

/// Most passes one run makes: the pinned one and the 23 of the 24
/// distinct jitters of the FLC's two `trru2` entries.
const MAX_PASSES: usize = 24;

/// Passes the traced run makes.
const TRACED_PASSES: usize = 4;

/// What a terminal state must hold for the data to count as delivered.
#[derive(Debug, Clone)]
enum DataCheck {
    /// fig3: `X` = 32, `MEM[17]` = 39, `MEM[60]` = `COUNT`.
    Fig3 { x: VarId, mem: VarId, count: i64 },
    /// Reduced FLC: the accumulator holds the sum of `trru2` and `trru0`
    /// the sum the writer sent.
    Flc {
        acc: VarId,
        trru0: VarId,
        checksum: i64,
        trru0_sum: i64,
    },
}

/// One catalog cell's input.
#[derive(Debug, Clone)]
struct Cell {
    key: OpKey,
    system_name: &'static str,
    system: System,
    channels: Vec<ChannelId>,
    width: u32,
    variant: Variant,
    scenario: &'static str,
    faults: Vec<EnvFault>,
    data: DataCheck,
}

/// One verdict row, shaped like the pinned catalog's.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    property: String,
    holds: bool,
    states: usize,
    detail: Option<String>,
}

/// What one cell left behind, kept for verification.
#[derive(Debug, Clone, PartialEq)]
struct CellOut {
    rows: Vec<Row>,
    states: usize,
    transitions: usize,
    terminals: usize,
    worst_cost: Option<u64>,
}

fn scenarios() -> [(&'static str, Vec<EnvFault>); 3] {
    [
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

/// The first of up to 1000 draws whose system no earlier pass used.
fn fresh_copy<T>(
    seen: &mut HashSet<u64>,
    system: fn(&T) -> &System,
    mut draw: impl FnMut() -> Option<T>,
) -> Option<T> {
    (0..1000).find_map(|_| {
        let copy = draw()?;
        seen.insert(hash_of(&format!("{:?}", system(&copy))))
            .then_some(copy)
    })
}

/// The initial value of variable `name`.
fn init_of<'a>(system: &'a System, name: &str) -> Option<&'a Value> {
    let id = system.variable_by_name(name)?;
    system.variables[id.index()].init.as_ref()
}

fn sum(v: &Value) -> i64 {
    match v {
        Value::Array(items) => items.iter().filter_map(|x| x.as_i64().ok()).sum(),
        other => other.as_i64().unwrap_or(0),
    }
}

/// The cells of every pass: pass 0 pinned, later passes over jittered
/// data, every pass's systems distinct from all earlier ones.
fn pass_inputs(seed: u64) -> Vec<Vec<Cell>> {
    let mut rng = SplitMix64::new(seed);
    let mut seen = HashSet::new();
    let mut passes = Vec::with_capacity(MAX_PASSES);
    for p in 0..MAX_PASSES {
        let f3 = fresh_copy(
            &mut seen,
            |f: &fig3::Fig3| &f.system,
            || {
                let mut f = fig3::fig3();
                (p == 0 || jitter_init(&mut f.system, "COUNT", &mut rng).is_some()).then_some(f)
            },
        );
        let fr = fresh_copy(
            &mut seen,
            |f: &flc::FlcReduced| &f.system,
            || {
                let mut f = flc::flc_reduced(2);
                (p == 0 || jitter_init(&mut f.system, "trru2", &mut rng).is_some()).then_some(f)
            },
        );
        let (Some(f3), Some(fr)) = (f3, fr) else {
            break;
        };
        let count = init_of(&f3.system, "COUNT").map_or(0, sum);
        let checksum = init_of(&fr.system, "trru2").map_or(0, sum);
        let fig3_data = DataCheck::Fig3 {
            x: f3.x,
            mem: f3.mem,
            count,
        };
        let flc_data = DataCheck::Flc {
            acc: fr.conv_acc,
            trru0: fr.trru0,
            checksum,
            trru0_sum: fr.expected_trru0_sum(),
        };
        let key = |system: &System, width, variant: Variant, scenario| OpKey {
            input: hash_of(&format!("{system:?}")),
            width,
            options: format!("{} {scenario}", variant.as_str()),
        };
        let mut cells = Vec::with_capacity(15);
        for (scenario, faults) in scenarios() {
            for variant in Variant::ALL {
                cells.push(Cell {
                    key: key(&f3.system, 8, variant, scenario),
                    system_name: "fig3@8",
                    system: f3.system.clone(),
                    channels: f3.channels(),
                    width: 8,
                    variant,
                    scenario,
                    faults: faults.clone(),
                    data: fig3_data.clone(),
                });
            }
            for variant in [Variant::Plain, Variant::Protected] {
                cells.push(Cell {
                    key: key(&fr.system, 16, variant, scenario),
                    system_name: "flcr2@16",
                    system: fr.system.clone(),
                    channels: fr.channels(),
                    width: 16,
                    variant,
                    scenario,
                    faults: faults.clone(),
                    data: flc_data.clone(),
                });
            }
        }
        passes.push(cells);
    }
    passes
}

/// Runs `check_catalog`: time-boxed passes when untraced, a fixed number
/// when traced.
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let passes = out.setup(|| pass_inputs(seed));
    let mut tally = Tally::default();
    let pinned = json::parse(PINNED);
    let budget = if tr.on() { TRACED_PASSES } else { MAX_PASSES };
    let started = Instant::now();
    for (p, cells) in passes.iter().take(budget).enumerate() {
        if !tr.on() && !out.room_for_another_pass(started, seconds) {
            break;
        }
        let t = Instant::now();
        let mut results = Vec::with_capacity(cells.len());
        for cell in cells {
            if !tally.begin(cell.key.clone()) {
                continue;
            }
            let t_cell = Instant::now();
            let op = tr.open("op");
            let r = check_cell(cell, tr);
            tr.close(op);
            out.op_ms.push(t_cell.elapsed().as_secs_f64() * 1e3);
            results.push((cell, r));
        }
        out.pass_done(t.elapsed().as_secs_f64());
        out.rebuild(|| pass_inputs(seed));
        for (cell, r) in results {
            let pinned = pinned
                .as_ref()
                .map_err(|e| format!("pinned catalog unreadable: {e}"));
            tally.record(r.and_then(|o| verify(cell, &o, pinned?, p == 0)));
        }
    }
    out.finish(tally)
}

/// One cell: refine, build, explore, then the bound and the properties.
fn check_cell(cell: &Cell, tr: &mut Tracer) -> Result<CellOut, String> {
    let design = BusDesign::with_width(
        cell.channels.clone(),
        cell.width,
        ProtocolKind::FullHandshake,
    );
    let refined = tr
        .span("protogen.refine", || {
            generator(cell.variant).refine(&cell.system, &design)
        })
        .map_err(|e| format!("refine: {e}"))?;
    let mut config = CheckConfig::new();
    for f in &cell.faults {
        config = config.with_fault(f.clone());
    }
    let ck = tr
        .span("check.build", || {
            Checker::with_config(&refined.system, config)
        })
        .map_err(|e| format!("checker: {e}"))?;
    let ss = tr
        .span("check.explore", || ck.explore())
        .map_err(|e| format!("explore: {e}"))?;
    let props = tr.open("check.props");
    let states = ss.state_count();
    let worst_cost = ss.worst_cost_to_quiescence();
    let data_ok = data_predicate(&cell.data, &refined);
    let mut rows = Vec::new();
    let mut push = |property: &str, holds: bool, detail: Option<String>| {
        rows.push(Row {
            property: property.to_string(),
            holds,
            states,
            detail,
        })
    };
    let gnt: Vec<String> = refined
        .bus
        .arbiter
        .iter()
        .flat_map(|a| a.gnt.iter().map(|&g| refined.system.signal(g).name.clone()))
        .collect();
    if refined.bus.arbiter.is_some() {
        let rep = ss.check_invariant("gnt_mutex", |v| {
            gnt.iter().filter(|n| v.signal_high(n)).count() <= 1
        });
        push(
            "gnt_mutex",
            rep.holds,
            rep.counterexample.map(|c| c.to_string()),
        );
    }
    let flags: Vec<String> = refined
        .bus
        .status_flags
        .iter()
        .map(|&(_, s)| refined.system.signal(s).name.clone())
        .collect();
    let rep = ss.check_terminal("delivers_or_flags", |v| {
        (v.all_done() && data_ok(v)) || flags.iter().any(|n| v.signal_high(n))
    });
    push(
        "delivers_or_flags",
        rep.holds,
        rep.counterexample.map(|c| c.to_string()),
    );
    if let (Some(arb), "none") = (&refined.bus.arbiter, cell.scenario) {
        let mut verdict = (true, None);
        for (&rq, &gn) in arb.req.iter().zip(&arb.gnt) {
            let rq = refined.system.signal(rq).name.clone();
            let gn = refined.system.signal(gn).name.clone();
            let rep = ss.check_leads_to(
                "eventual_grant",
                |v| v.signal_high(&rq) && !v.signal_high(&gn),
                |v| v.signal_high(&gn),
            );
            if !rep.holds {
                let detail = rep.counterexample.map(|c| format!("request `{rq}`:\n{c}"));
                verdict = (false, detail);
                break;
            }
        }
        push("eventual_grant", verdict.0, verdict.1);
    }
    tr.close(props);
    let st = ss.stats();
    tr.count("check.states", || states as f64);
    tr.count("check.transitions", || ss.transition_count() as f64);
    tr.count("check.dedup_hits", || st.dedup_hits as f64);
    tr.count("check.ample_states", || st.ample_states as f64);
    tr.count("check.full_states", || st.full_states as f64);
    tr.count_max("check.peak_frontier", st.peak_frontier as f64);
    tr.count("check.counterexamples", || {
        rows.iter().filter(|r| r.detail.is_some()).count() as f64
    });
    Ok(CellOut {
        rows,
        states,
        transitions: ss.transition_count(),
        terminals: ss.terminal_count(),
        worst_cost,
    })
}

/// The data-delivery predicate of a cell, over the refined system's names.
fn data_predicate(data: &DataCheck, refined: &RefinedSystem) -> impl Fn(&StateView<'_>) -> bool {
    let name = |v: VarId| refined.system.variable(v).name.clone();
    let data = data.clone();
    let names = match &data {
        DataCheck::Fig3 { x, mem, .. } => (name(*x), name(*mem)),
        DataCheck::Flc { acc, trru0, .. } => (name(*acc), name(*trru0)),
    };
    move |v: &StateView<'_>| {
        let scalar = v.variable(&names.0).and_then(|x| x.as_i64().ok());
        let array = v.variable(&names.1);
        match data {
            DataCheck::Fig3 { count, .. } => {
                scalar == Some(32)
                    && array.is_some_and(|m| elem(m, 17) == Some(39) && elem(m, 60) == Some(count))
            }
            DataCheck::Flc {
                checksum,
                trru0_sum,
                ..
            } => scalar == Some(checksum) && array.is_some_and(|a| sum(a) == trru0_sum),
        }
    }
}

fn elem(v: &Value, i: usize) -> Option<i64> {
    match v {
        Value::Array(items) => items.get(i)?.as_i64().ok(),
        _ => None,
    }
}

/// `detail` cut the way the pinned catalog stores it.
fn capped(detail: &str) -> String {
    if detail.len() <= DETAIL_CAP {
        return detail.to_string();
    }
    let cut = detail
        .char_indices()
        .take_while(|&(i, _)| i < DETAIL_CAP)
        .last()
        .map_or(0, |(i, c)| i + c.len_utf8());
    format!("{}…", &detail[..cut])
}

/// Checks a cell against the pinned catalog: on the pinned pass
/// (`exact`) every row, counterexample text and exploration size; on a
/// jittered pass, whose data can merge or split a few states, each
/// property's verdict and whether it has a counterexample.
fn verify(cell: &Cell, out: &CellOut, pinned: &Json, exact: bool) -> Result<(), String> {
    let at = format!(
        "{} / {} ({})",
        cell.system_name,
        cell.scenario,
        cell.variant.as_str()
    );
    let same_cell = |r: &&Json| {
        let s = |k: &str| r.get(k).and_then(Json::as_str);
        s("system") == Some(cell.system_name)
            && s("scenario") == Some(cell.scenario)
            && s("protocol") == Some(cell.variant.as_str())
    };
    let list = |key: &str| match pinned.get(key) {
        Some(Json::Arr(v)) => v.iter().filter(same_cell).collect::<Vec<_>>(),
        _ => Vec::new(),
    };
    let want: Vec<Row> = list("properties")
        .into_iter()
        .map(|r| Row {
            property: r
                .get("property")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            holds: r.get("holds") == Some(&Json::Bool(true)),
            states: num(r.get("states")).unwrap_or(0.0) as usize,
            detail: r.get("detail").and_then(Json::as_str).map(str::to_string),
        })
        .collect();
    let got: Vec<Row> = out
        .rows
        .iter()
        .map(|r| Row {
            detail: r.detail.as_deref().map(capped),
            ..r.clone()
        })
        .collect();
    let verdict = |r: &Row| (r.property.clone(), r.holds, r.detail.is_some());
    let same = if exact {
        got == want
    } else {
        got.iter().map(verdict).eq(want.iter().map(verdict))
    };
    if !same {
        return Err(format!(
            "{at}: verdicts differ from the pinned catalog: got {got:?}, want {want:?}"
        ));
    }
    if !exact {
        return Ok(());
    }
    let space = list("explorations");
    let [space] = space.as_slice() else {
        return Err(format!(
            "{at}: pinned catalog has no single exploration row"
        ));
    };
    let sizes = (
        num(space.get("states")),
        num(space.get("transitions")),
        num(space.get("terminals")),
        num(space.get("worst_cost")),
    );
    let mine = (
        Some(out.states as f64),
        Some(out.transitions as f64),
        Some(out.terminals as f64),
        out.worst_cost.map(|c| c as f64),
    );
    if sizes != mine {
        return Err(format!(
            "{at}: sizes {mine:?} differ from the pinned {sizes:?}"
        ));
    }
    Ok(())
}

fn num(v: Option<&Json>) -> Option<f64> {
    match v {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_the_pinned_file_shape() {
        let passes = pass_inputs(1);
        assert_eq!(passes.len(), MAX_PASSES);
        assert!(passes.iter().all(|cells| cells.len() == 15));
        let pinned = json::parse(PINNED).expect("pinned catalog parses");
        let Some(Json::Arr(props)) = pinned.get("properties") else {
            panic!("no properties")
        };
        assert_eq!(props.len(), 35);
    }

    #[test]
    fn caps_like_the_campaign() {
        assert_eq!(capped("short"), "short");
        let long = "é".repeat(400);
        let c = capped(&long);
        assert!(c.ends_with('…') && c.len() <= DETAIL_CAP + 5);
    }

    #[test]
    fn a_planted_mismatch_fails_verification() {
        let pinned = json::parse(PINNED).expect("pinned catalog parses");
        let passes = pass_inputs(1);
        let mut tr = Tracer::new(false);
        // The stuck-DONE plain cell fails with a pinned counterexample.
        for (p, cell) in [(0, &passes[0][5]), (1, &passes[1][5])] {
            let out = check_cell(cell, &mut tr).expect("fig3 plain cell");
            assert_eq!(verify(cell, &out, &pinned, p == 0), Ok(()), "pass {p}");
            let mut wrong = out.clone();
            wrong.rows[1].holds = true;
            assert!(verify(cell, &wrong, &pinned, p == 0).is_err());
            let mut wrong = out.clone();
            wrong.rows[1].detail = None;
            assert!(verify(cell, &wrong, &pinned, p == 0).is_err());
            if p == 0 {
                let mut wrong = out;
                wrong.states += 1;
                assert!(verify(cell, &wrong, &pinned, true).is_err());
            }
        }
    }
}
