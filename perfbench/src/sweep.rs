//! `width_sweep`: what `ifsyn --sweep-sim` plus `ifsyn analyze` do,
//! over every bundled spec.
//!
//! A pass takes one seeded copy of each spec, parses it, derives channels
//! when the spec declares none, explores every bus width, and at each
//! width refines, compiles, simulates (and, for the plain protocol,
//! analyzes) the three protocol variants. Each (spec copy, width,
//! variant) is one op, a design point. Every pass uses fresh copies, so
//! no op of a run repeats an earlier one.
//!
//! Verification runs after the pass, outside every timed region: each
//! point must leave every channel-target variable equal to the
//! abstract-channel system's own simulation, finish every non-repeating
//! behavior, and, for the default seed, reproduce the golden file of
//! modelled results (quiescence time, finish times, analyzed bus words).

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use ifsyn_analyze::{analyze_report, BusMeta};
use ifsyn_bench::faults::{generator, Variant};
use ifsyn_core::{BusDesign, BusGenerator, ProtocolKind, RefinedSystem};
use ifsyn_partition::Partitioner;
use ifsyn_sim::{CodeCache, SimConfig, SimReport, Simulator};
use ifsyn_spec::rng::SplitMix64;
use ifsyn_spec::visit::count_stmts;
use ifsyn_spec::{ChannelId, System, Value};

use crate::jitter::jitter;
use crate::ops::{hash_of, OpKey, Tally};
use crate::trace::Tracer;
use crate::Outcome;

/// The bundled specs, in pass order.
const SPECS: [(&str, &str); 5] = [
    ("fig1", include_str!("../../specs/fig1.ifs")),
    ("fig3", include_str!("../../specs/fig3.ifs")),
    ("flc", include_str!("../../specs/flc.ifs")),
    (
        "answering_machine",
        include_str!("../../specs/answering_machine.ifs"),
    ),
    ("ethernet", include_str!("../../specs/ethernet.ifs")),
];

/// Most passes one run makes; the specs' jitter spaces hold more distinct
/// copies than this (the smallest, fig1's, holds 51).
pub const MAX_PASSES: usize = 48;

/// Passes the traced run makes: a fixed count, so its counts repeat.
pub const TRACED_PASSES: usize = 8;

/// Leading passes of the default seed pinned by the golden file.
pub const GOLDEN_PASSES: usize = 2;

/// Golden modelled results of the default seed's first passes.
const GOLDEN: &str = include_str!("../golden/width_sweep.txt");

/// Trace-event budget of analyzed runs, as `ifsyn analyze` sets it.
const ANALYZE_TRACE_CAP: usize = 2_000_000;

/// One seeded copy of one spec.
#[derive(Debug, Clone)]
pub struct SpecCopy {
    spec: &'static str,
    text: String,
}

/// The inputs of up to [`MAX_PASSES`] passes: per pass, one copy of each
/// spec, every copy distinct from the earlier copies of its spec.
pub fn inputs(seed: u64) -> Vec<Vec<SpecCopy>> {
    let mut rng = SplitMix64::new(seed);
    let mut seen = HashSet::new();
    let mut passes = Vec::with_capacity(MAX_PASSES);
    for _ in 0..MAX_PASSES {
        let mut pass = Vec::with_capacity(SPECS.len());
        for (spec, text) in SPECS {
            let fresh = (0..1000)
                .map(|_| jitter(text, &mut rng))
                .find(|t| seen.insert(hash_of(t)));
            let Some(text) = fresh else {
                return passes;
            };
            pass.push(SpecCopy { spec, text });
        }
        passes.push(pass);
    }
    passes
}

/// What one design point left behind, kept for verification.
#[derive(Debug, Clone, PartialEq)]
struct PointOut {
    time: u64,
    finishes: Vec<(String, u64)>,
    blocked: usize,
    /// Final value of each channel-target variable, in target order.
    targets: Vec<Option<Value>>,
    /// Bus words the analyzer reconstructed (plain points only).
    words: Option<u64>,
}

/// One design point: its coordinates and result.
#[derive(Debug)]
struct Point {
    width: u32,
    variant: Variant,
    out: Result<PointOut, String>,
}

/// One spec copy's timed work, kept for verification.
struct CopyRun {
    spec: &'static str,
    /// The abstract-channel system the points were refined from.
    system: System,
    /// Names of its channel-target variables.
    targets: Vec<String>,
    points: Vec<Point>,
}

/// Runs `width_sweep`: time-boxed passes when untraced, a fixed number of
/// passes when traced. `golden` collects the modelled results instead of
/// checking them (to regenerate the golden file).
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer, mut golden: Option<&mut String>) -> Outcome {
    let mut out = Outcome::default();
    let passes = out.setup(|| inputs(seed));
    let check_golden = seed == crate::DEFAULT_SEED && golden.is_none();
    let golden_lines: HashSet<&str> = GOLDEN.lines().collect();
    let mut tally = Tally::default();
    let budget = match (&golden, tr.on()) {
        (Some(_), _) => GOLDEN_PASSES,
        (None, true) => TRACED_PASSES,
        (None, false) => MAX_PASSES,
    };
    let started = Instant::now();
    for (p, pass) in passes.iter().take(budget).enumerate() {
        if !tr.on() && !out.room_for_another_pass(started, seconds) {
            break;
        }
        let t = Instant::now();
        let runs = run_pass(pass, tr, &mut tally, &mut out.op_ms);
        out.pass_done(t.elapsed().as_secs_f64());
        out.rebuild(|| inputs(seed));
        for run in &runs {
            let reference = reference_targets(run);
            for pt in &run.points {
                let mut verdict = verify(run, pt, &reference);
                if p < GOLDEN_PASSES {
                    let line = golden_line(p, run.spec, pt);
                    match (golden.as_deref_mut(), line) {
                        (Some(g), Some(line)) => {
                            g.push_str(&line);
                            g.push('\n');
                        }
                        (None, Some(line)) if check_golden && !golden_lines.contains(&*line) => {
                            verdict = verdict.and(Err(format!("golden mismatch: {line}")));
                        }
                        _ => {}
                    }
                }
                tally.record(verdict);
            }
        }
    }
    out.finish(tally)
}

/// One pass over its spec copies: the timed region.
fn run_pass(
    pass: &[SpecCopy],
    tr: &mut Tracer,
    tally: &mut Tally,
    op_ms: &mut Vec<f64>,
) -> Vec<CopyRun> {
    let mut runs = Vec::with_capacity(pass.len());
    for copy in pass {
        let (system, channels, widths) = match prepare(copy, tr) {
            Ok(p) => p,
            Err(e) => {
                tally.attempted += 1;
                tally.fail(format!("{}: {e}", copy.spec));
                continue;
            }
        };
        let mut targets: Vec<String> = Vec::new();
        for c in &system.channels {
            let name = &system.variable(c.variable).name;
            if !targets.contains(name) {
                targets.push(name.clone());
            }
        }
        let input = hash_of(&copy.text);
        let cache = CodeCache::new();
        let mut points = Vec::with_capacity(widths.len() * Variant::ALL.len());
        for &width in &widths {
            for variant in Variant::ALL {
                let key = OpKey {
                    input,
                    width,
                    options: variant.as_str().to_string(),
                };
                if !tally.begin(key) {
                    continue;
                }
                let t = Instant::now();
                let out = design_point(&system, &channels, width, variant, &targets, &cache, tr);
                op_ms.push(t.elapsed().as_secs_f64() * 1e3);
                points.push(Point {
                    width,
                    variant,
                    out,
                });
            }
        }
        runs.push(CopyRun {
            spec: copy.spec,
            system,
            targets,
            points,
        });
    }
    runs
}

/// Parses a spec copy, derives its channels when it declares none, and
/// explores its bus widths, each inside a spec-level span.
fn prepare(copy: &SpecCopy, tr: &mut Tracer) -> Result<(System, Vec<ChannelId>, Vec<u32>), String> {
    let system = tr
        .span("lang.parse", || ifsyn_lang::parse_system(&copy.text))
        .map_err(|e| format!("parse: {e}"))?;
    let (system, channels) = if system.channels.is_empty() {
        let r = tr
            .span("partition.derive", || Partitioner::new().partition(&system))
            .map_err(|e| format!("derive channels: {e}"))?;
        (r.system, r.channels)
    } else {
        let ch = system.channel_ids().collect();
        (system, ch)
    };
    let widths = tr
        .span("busgen.explore", || {
            BusGenerator::new().explore(&system, &channels)
        })
        .map_err(|e| format!("explore: {e}"))?
        .rows
        .iter()
        .map(|r| r.width)
        .collect();
    Ok((system, channels, widths))
}

/// One design point inside one op span, then its counts (traced only).
fn design_point(
    system: &System,
    channels: &[ChannelId],
    width: u32,
    variant: Variant,
    targets: &[String],
    cache: &CodeCache,
    tr: &mut Tracer,
) -> Result<PointOut, String> {
    let op = tr.open("op");
    let done = point_work(system, channels, width, variant, targets, cache, tr);
    tr.close(op);
    let (out, refined, report, compiled) = done?;
    let sys = &refined.system;
    tr.count("sim.instrs", || report.total_instrs() as f64);
    tr.count("sim.deltas", || report.total_deltas() as f64);
    tr.count("sim.trace_events", || report.trace().len() as f64);
    tr.count("sim.cache_lookups", || {
        (sys.behaviors.len() + sys.procedures.len()) as f64
    });
    tr.count("sim.cache_misses", || compiled as f64);
    tr.count("protogen.stmts", || {
        let bodies = sys.behaviors.iter().map(|b| &b.body);
        bodies
            .chain(sys.procedures.iter().map(|p| &p.body))
            .map(|b| count_stmts(b, |_| true) as f64)
            .sum()
    });
    tr.count("analyze.words", || out.words.unwrap_or(0) as f64);
    Ok(out)
}

/// Refine, compile, simulate, and (plain protocol) analyze one point.
/// Also returns what the counts read and, when traced, the number of
/// blocks the compile added to the cache.
#[allow(clippy::too_many_arguments)] // one call site; a struct would only rename them
fn point_work(
    system: &System,
    channels: &[ChannelId],
    width: u32,
    variant: Variant,
    targets: &[String],
    cache: &CodeCache,
    tr: &mut Tracer,
) -> Result<(PointOut, RefinedSystem, SimReport, usize), String> {
    let design = BusDesign::with_width(channels.to_vec(), width, ProtocolKind::FullHandshake);
    let refined = tr
        .span("protogen.refine", || {
            generator(variant).refine(system, &design)
        })
        .map_err(|e| format!("refine: {e}"))?;
    let analyzed = variant == Variant::Plain;
    let config = if analyzed {
        SimConfig::new()
            .with_trace()
            .with_max_trace_events(ANALYZE_TRACE_CAP)
    } else {
        SimConfig::new()
    };
    let blocks_before = if tr.on() { cache.len() } else { 0 };
    let sim = tr
        .span("sim.compile", || {
            Simulator::with_config_cached(&refined.system, config, Some(cache))
        })
        .map_err(|e| format!("compile: {e}"))?;
    let compiled = if tr.on() {
        cache.len() - blocks_before
    } else {
        0
    };
    let report = tr
        .span("sim.run", || sim.run_to_quiescence())
        .map_err(|e| format!("simulate: {e}"))?;
    let words = if analyzed {
        let analysis = tr
            .span("analyze.report", || {
                let meta = BusMeta::from_refined(&refined);
                analyze_report(&refined.system, &report, &meta)
            })
            .map_err(|e| format!("analyze: {e}"))?;
        Some(analysis.words)
    } else {
        None
    };
    let out = PointOut {
        time: report.time(),
        finishes: report
            .finished_behaviors()
            .filter_map(|(_, o)| Some((o.name.clone(), o.finish_time?)))
            .collect(),
        blocked: report.blocked_at_exit(),
        targets: targets
            .iter()
            .map(|n| report.final_variable_by_name(n).cloned())
            .collect(),
        words,
    };
    Ok((out, refined, report, compiled))
}

/// Final channel-target values of the abstract-channel system's own
/// simulation, by target name.
fn reference_targets(run: &CopyRun) -> Result<BTreeMap<String, Value>, String> {
    let report = Simulator::new(&run.system)
        .and_then(|s| s.run_to_quiescence())
        .map_err(|e| format!("{}: reference simulation: {e}", run.spec))?;
    run.targets
        .iter()
        .map(|n| {
            report
                .final_variable_by_name(n)
                .map(|v| (n.clone(), v.clone()))
                .ok_or_else(|| format!("{}: reference lacks `{n}`", run.spec))
        })
        .collect()
}

/// Checks one point against the abstract-channel reference.
fn verify(
    run: &CopyRun,
    pt: &Point,
    reference: &Result<BTreeMap<String, Value>, String>,
) -> Result<(), String> {
    let at = format!("{}@{} {}", run.spec, pt.width, pt.variant.as_str());
    let out = pt.out.as_ref().map_err(|e| format!("{at}: {e}"))?;
    let reference = reference.as_ref().map_err(Clone::clone)?;
    if out.blocked != 0 {
        return Err(format!("{at}: {} process(es) never finished", out.blocked));
    }
    for (name, got) in run.targets.iter().zip(&out.targets) {
        if got.as_ref() != reference.get(name) {
            return Err(format!(
                "{at}: `{name}` is {got:?}, the abstract system leaves {:?}",
                reference.get(name)
            ));
        }
    }
    Ok(())
}

/// The golden-file line of one point: its modelled results only, never
/// instruction counts. `None` when the point failed.
fn golden_line(pass: usize, spec: &str, pt: &Point) -> Option<String> {
    let out = pt.out.as_ref().ok()?;
    let finishes: Vec<String> = out
        .finishes
        .iter()
        .map(|(n, t)| format!("{n}:{t}"))
        .collect();
    let words = out.words.map_or("-".to_string(), |w| w.to_string());
    Some(format!(
        "{pass} {spec} {} {} t={} fin={} words={words}",
        pt.width,
        pt.variant.as_str(),
        out.time,
        finishes.join(","),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_copy_in_the_inputs_is_distinct() {
        let passes = inputs(crate::DEFAULT_SEED);
        assert_eq!(passes.len(), MAX_PASSES);
        let texts: HashSet<&str> = passes.iter().flatten().map(|c| c.text.as_str()).collect();
        assert_eq!(texts.len(), MAX_PASSES * SPECS.len());
        // Copies differ in numbers only: same parse, same channels.
        let base = ifsyn_lang::parse_system(SPECS[2].1).expect("flc parses");
        let copy = ifsyn_lang::parse_system(&passes[3][2].text).expect("copy parses");
        assert_eq!(base.channels.len(), copy.channels.len());
    }

    #[test]
    fn a_planted_mismatch_is_a_failed_op() {
        let pass = &inputs(7)[0];
        let mut tally = Tally::default();
        let mut op_ms = Vec::new();
        let mut tr = Tracer::new(false);
        let mut runs = run_pass(&pass[1..2], &mut tr, &mut tally, &mut op_ms);
        let run = &mut runs[0];
        let reference = reference_targets(run);
        for pt in &run.points {
            tally.record(verify(run, pt, &reference));
        }
        assert_eq!(tally.failed, 0, "{:?}", tally.notes());
        // Plant a wrong final value of one channel target.
        let pt = &mut run.points[0];
        pt.out.as_mut().unwrap().targets[0] = Some(Value::int(-1, 16));
        let before = tally.failed;
        tally.record(verify(run, &run.points[0], &reference));
        assert_eq!(tally.failed, before + 1);
    }

    #[test]
    fn golden_lines_hold_modelled_results_only() {
        let pt = Point {
            width: 8,
            variant: Variant::Plain,
            out: Ok(PointOut {
                time: 120,
                finishes: vec![("P".into(), 100), ("Q".into(), 90)],
                blocked: 0,
                targets: vec![],
                words: Some(12),
            }),
        };
        assert_eq!(
            golden_line(0, "fig3", &pt).as_deref(),
            Some("0 fig3 8 plain t=120 fin=P:100,Q:90 words=12")
        );
    }
}
