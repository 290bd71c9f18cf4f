//! Simulator throughput benchmarks and the `BENCH_sim.json` emitter.
//!
//! Measures wall time and instruction throughput (`total_instrs` per
//! second) of the simulation kernel on the workloads that regenerate the
//! paper's figures, so successive PRs have a perf trajectory to regress
//! against:
//!
//! * `flc_kernel_sweep` — pure kernel throughput: the FLC shared-bus
//!   systems for widths 1..=30 are refined once up front, then only
//!   simulated (several repetitions);
//! * `fig7_full_sweep` — the end-to-end Fig. 7 regeneration (refinement
//!   plus simulation per width);
//! * `quickstart_pipeline` — the Fig. 3 worked example refined and
//!   simulated across a spread of widths.
//!
//! Serialization is hand-rolled JSON: the build environment is offline,
//! so no serde.

use std::time::Instant;

use ifsyn_core::{BusDesign, ProtocolGenerator, ProtocolKind};
use ifsyn_sim::{CodeCache, SimConfig, Simulator};
use ifsyn_spec::System;
use ifsyn_systems::{fig3, flc};

use crate::table::Table;

/// One measured workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable scenario identifier (JSON key material).
    pub name: String,
    /// Wall-clock seconds for the whole scenario.
    pub wall_seconds: f64,
    /// Instructions executed by the simulation kernel, summed over all
    /// runs in the scenario.
    pub total_instrs: u64,
    /// `total_instrs / wall_seconds`.
    pub instrs_per_sec: f64,
    /// Number of individual simulator runs.
    pub runs: u64,
    /// Worker threads this scenario actually ran on: 1 for the serial
    /// scenarios, the worker count for the batch sweeps.
    pub threads: usize,
}

/// The full benchmark result set.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfData {
    /// All measured scenarios.
    pub scenarios: Vec<Scenario>,
    /// Worker threads used by the parallel sweep driver.
    pub sweep_threads: usize,
}

fn scenario(
    name: &str,
    runs: u64,
    total_instrs: u64,
    wall_seconds: f64,
    threads: usize,
) -> Scenario {
    Scenario {
        name: name.to_string(),
        wall_seconds,
        total_instrs,
        instrs_per_sec: if wall_seconds > 0.0 {
            total_instrs as f64 / wall_seconds
        } else {
            0.0
        },
        runs,
        threads,
    }
}

/// Builds the shared-bus FLC system refined at `width`.
fn refined_flc_shared(width: u32) -> System {
    let f = flc::flc();
    let design = BusDesign::with_width(f.bus_channels(), width, ProtocolKind::FullHandshake);
    ProtocolGenerator::new()
        .refine(&f.system, &design)
        .expect("flc refinement")
        .system
}

/// Pure kernel throughput on the FLC sweep: refinement is hoisted out of
/// the timed region, leaving only `Simulator::new` + event loop.
fn flc_kernel_sweep() -> Scenario {
    const WIDTHS: std::ops::RangeInclusive<u32> = 1..=30;
    const REPS: u64 = 5;
    let systems: Vec<System> = WIDTHS.map(refined_flc_shared).collect();
    let mut instrs = 0u64;
    let mut runs = 0u64;
    let start = Instant::now();
    for _ in 0..REPS {
        for sys in &systems {
            let report = Simulator::new(sys)
                .expect("sim setup")
                .run_to_quiescence()
                .expect("sim");
            instrs += report.total_instrs();
            runs += 1;
        }
    }
    scenario(
        "flc_kernel_sweep",
        runs,
        instrs,
        start.elapsed().as_secs_f64(),
        1,
    )
}

/// The FLC sweep through the parallel batch front-end: same 150 runs as
/// `flc_kernel_sweep`, but fanned out over the batch runner's workers
/// with one shared compiled-code cache.
fn flc_batch_sweep() -> Scenario {
    const WIDTHS: std::ops::RangeInclusive<u32> = 1..=30;
    const REPS: u64 = 5;
    let systems: Vec<System> = WIDTHS.map(refined_flc_shared).collect();
    let runner = crate::batch::BatchRunner::new();
    let mut instrs = 0u64;
    let mut runs = 0u64;
    let start = Instant::now();
    for _ in 0..REPS {
        for report in runner.run(&systems) {
            instrs += report.expect("batch sim").total_instrs();
            runs += 1;
        }
    }
    scenario(
        "flc_batch_sweep",
        runs,
        instrs,
        start.elapsed().as_secs_f64(),
        runner.jobs(),
    )
}

/// The end-to-end Fig. 7 sweep (refinement + simulation per width).
fn fig7_full_sweep() -> Scenario {
    let start = Instant::now();
    let data = crate::fig7::run();
    let wall = start.elapsed().as_secs_f64();
    // 3 simulated configurations per width: eval alone, conv alone, shared.
    scenario(
        "fig7_full_sweep",
        data.rows.len() as u64 * 3,
        data.total_instrs,
        wall,
        crate::fig7::sweep_threads(),
    )
}

/// The quickstart (Fig. 3) pipeline refined and simulated across widths,
/// repeated like the other sweep scenarios.
///
/// All runs share one [`CodeCache`]: the refined systems differ only in
/// bus width, so width-independent bodies lower to identical bytecode
/// and compile once across the whole scenario — the same path the CLI's
/// single-run mode uses.
fn quickstart_pipeline() -> Scenario {
    const WIDTHS: [u32; 9] = [1, 2, 3, 5, 7, 11, 16, 22, 32];
    const REPS: u64 = 5;
    let cache = CodeCache::new();
    let mut instrs = 0u64;
    let mut runs = 0u64;
    let start = Instant::now();
    let f = fig3::fig3();
    for _ in 0..REPS {
        let golden = Simulator::with_config_cached(&f.system, SimConfig::new(), Some(&cache))
            .expect("golden setup")
            .run_to_quiescence()
            .expect("golden sim");
        instrs += golden.total_instrs();
        runs += 1;
        for width in WIDTHS {
            let design = BusDesign::with_width(f.channels(), width, ProtocolKind::FullHandshake);
            let refined = ProtocolGenerator::new()
                .refine(&f.system, &design)
                .expect("quickstart refinement");
            let report =
                Simulator::with_config_cached(&refined.system, SimConfig::new(), Some(&cache))
                    .expect("sim setup")
                    .run_to_quiescence()
                    .expect("sim");
            instrs += report.total_instrs();
            runs += 1;
        }
    }
    scenario(
        "quickstart_pipeline",
        runs,
        instrs,
        start.elapsed().as_secs_f64(),
        1,
    )
}

/// The synthetic field `big_system_scalar` simulates: large enough that
/// the process count dwarfs any paper example, and deterministic.
fn big_system() -> System {
    ifsyn_systems::synth_system(
        &ifsyn_systems::SynthConfig::new()
            .with_modules(4)
            .with_couples(8)
            .with_rounds(24)
            .with_compute(600)
            .with_seed(0xb16_5757),
    )
    .system
}

/// The synthetic field on the kernel: the one scenario with many
/// processes per simulation.
fn big_system_scalar() -> Scenario {
    const REPS: u64 = 3;
    let sys = big_system();
    let mut instrs = 0u64;
    let start = Instant::now();
    for _ in 0..REPS {
        let report = Simulator::new(&sys)
            .expect("sim setup")
            .run_to_quiescence()
            .expect("sim");
        instrs += report.total_instrs();
    }
    scenario(
        "big_system_scalar",
        REPS,
        instrs,
        start.elapsed().as_secs_f64(),
        1,
    )
}

/// Runs all throughput scenarios.
pub fn run() -> PerfData {
    PerfData {
        scenarios: vec![
            flc_kernel_sweep(),
            flc_batch_sweep(),
            fig7_full_sweep(),
            quickstart_pipeline(),
            big_system_scalar(),
        ],
        sweep_threads: crate::fig7::sweep_threads(),
    }
}

/// Renders the results as text.
pub fn render(data: &PerfData) -> String {
    let mut out = String::new();
    out.push_str("Simulation kernel throughput\n\n");
    let mut t = Table::new([
        "scenario",
        "runs",
        "threads",
        "instrs",
        "wall (s)",
        "instrs/sec",
    ]);
    for s in &data.scenarios {
        t.row([
            s.name.clone(),
            s.runs.to_string(),
            s.threads.to_string(),
            s.total_instrs.to_string(),
            format!("{:.4}", s.wall_seconds),
            format!("{:.0}", s.instrs_per_sec),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!("\nsweep driver threads: {}\n", data.sweep_threads));
    out
}

/// Serializes the results as the `BENCH_sim.json` document.
pub fn to_json(data: &PerfData) -> String {
    let mut out = String::new();
    // v3 writes exactly the v1 keys, so v1 readers parse it unchanged.
    out.push_str("{\n  \"schema\": \"ifsyn-bench-sim-v3\",\n");
    out.push_str(&format!("  \"sweep_threads\": {},\n", data.sweep_threads));
    out.push_str("  \"scenarios\": [\n");
    crate::emit::array_rows(&mut out, &data.scenarios, |s| {
        format!(
            "    {{\"name\": \"{}\", \"runs\": {}, \"threads\": {}, \"total_instrs\": {}, \
             \"wall_seconds\": {:.6}, \"instrs_per_sec\": {:.1}}}",
            s.name, s.runs, s.threads, s.total_instrs, s.wall_seconds, s.instrs_per_sec,
        )
    });
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `(name, instrs_per_sec)` pairs from a `BENCH_sim.json`
/// document written by [`to_json`].
///
/// Hand-rolled like the serializer (offline build, no serde): scans for
/// `"name": "..."` / `"instrs_per_sec": N` key pairs in order, so it
/// tolerates reformatting but not reordering of the two keys within a
/// scenario object.
pub fn parse_baseline(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"name\":") {
        rest = &rest[at + "\"name\":".len()..];
        let Some(open) = rest.find('"') else { break };
        let Some(close) = rest[open + 1..].find('"') else {
            break;
        };
        let name = rest[open + 1..open + 1 + close].to_string();
        rest = &rest[open + 1 + close..];
        let Some(ips_at) = rest.find("\"instrs_per_sec\":") else {
            break;
        };
        let tail = rest[ips_at + "\"instrs_per_sec\":".len()..].trim_start();
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
            .unwrap_or(tail.len());
        if let Ok(ips) = tail[..end].parse::<f64>() {
            out.push((name, ips));
        }
        rest = &rest[ips_at..];
    }
    out
}

/// Compares a fresh run against a committed baseline.
///
/// A scenario regresses when its throughput falls below
/// `baseline * (1 - tolerance)`; scenarios present on only one side are
/// reported but never fail the check (new scenarios appear, old ones
/// retire). Returns a human-readable report: `Ok` when every common
/// scenario holds, `Err` listing the regressions otherwise.
///
/// # Errors
///
/// Returns `Err` with the rendered report when at least one common
/// scenario falls below the tolerated floor.
pub fn check(
    fresh: &PerfData,
    baseline: &[(String, f64)],
    tolerance: f64,
) -> Result<String, String> {
    let mut report = String::new();
    let mut regressions = 0usize;
    for s in &fresh.scenarios {
        let Some((_, base)) = baseline.iter().find(|(n, _)| *n == s.name) else {
            report.push_str(&format!("  {:<22} (no baseline; skipped)\n", s.name));
            continue;
        };
        let floor = base * (1.0 - tolerance);
        let ratio = if *base > 0.0 {
            s.instrs_per_sec / base
        } else {
            1.0
        };
        let verdict = if s.instrs_per_sec >= floor {
            "ok"
        } else {
            regressions += 1;
            "REGRESSED"
        };
        report.push_str(&format!(
            "  {:<22} {:>12.0} vs baseline {:>12.0}  ({:>5.2}x)  {}\n",
            s.name, s.instrs_per_sec, base, ratio, verdict
        ));
    }
    for (name, _) in baseline {
        if !fresh.scenarios.iter().any(|s| s.name == *name) {
            report.push_str(&format!("  {name:<22} (baseline only; skipped)\n"));
        }
    }
    if regressions == 0 {
        Ok(report)
    } else {
        Err(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrips_through_json() {
        let data = PerfData {
            scenarios: vec![scenario("a", 2, 100, 0.5, 1), scenario("b", 1, 50, 0.25, 2)],
            sweep_threads: 1,
        };
        let parsed = parse_baseline(&to_json(&data));
        assert_eq!(
            parsed,
            vec![("a".to_string(), 200.0), ("b".to_string(), 200.0)]
        );
    }

    #[test]
    fn check_passes_within_tolerance_and_fails_below() {
        let fresh = PerfData {
            scenarios: vec![scenario("a", 1, 95, 1.0, 1), scenario("new", 1, 1, 1.0, 1)],
            sweep_threads: 1,
        };
        let baseline = vec![("a".to_string(), 100.0), ("gone".to_string(), 5.0)];
        // 95 >= 100 * (1 - 0.10): holds, and unmatched names are skipped.
        let ok = check(&fresh, &baseline, 0.10).expect("within tolerance");
        assert!(ok.contains("ok"));
        assert!(ok.contains("no baseline"));
        assert!(ok.contains("baseline only"));
        // 95 < 100 * (1 - 0.01): regression.
        let err = check(&fresh, &baseline, 0.01).expect_err("below tolerance");
        assert!(err.contains("REGRESSED"));
    }

    #[test]
    fn json_is_well_formed_and_names_every_scenario() {
        let data = PerfData {
            scenarios: vec![scenario("a", 2, 100, 0.5, 1), scenario("b", 1, 50, 0.25, 2)],
            sweep_threads: 4,
        };
        let json = to_json(&data);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("\"instrs_per_sec\": 200.0"));
        assert!(json.contains("\"sweep_threads\": 4"));
        // Exactly one comma between the two scenario objects.
        assert_eq!(
            json.matches("}},").count() + json.matches("}},\n").count(),
            0
        );
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn instrs_per_sec_guards_zero_wall() {
        let s = scenario("z", 1, 10, 0.0, 1);
        assert_eq!(s.instrs_per_sec, 0.0);
    }

    #[test]
    fn json_v3_keeps_v1_fields_and_drops_shard_counters() {
        let data = PerfData {
            scenarios: vec![
                scenario("flc_kernel_sweep", 150, 1000, 0.5, 1),
                scenario("big_system_scalar", 3, 1000, 0.1, 1),
            ],
            sweep_threads: 2,
        };
        let json = to_json(&data);
        assert!(json.contains("\"schema\": \"ifsyn-bench-sim-v3\""));
        // Every v1 key survives...
        for key in [
            "\"name\":",
            "\"runs\":",
            "\"threads\":",
            "\"total_instrs\":",
            "\"wall_seconds\":",
            "\"instrs_per_sec\":",
            "\"sweep_threads\":",
        ] {
            assert!(json.contains(key), "v1 key {key} missing");
        }
        // ...and the v2 sharded-kernel counters are gone.
        for key in [
            "\"sim_threads\":",
            "\"shards\":",
            "\"shard_instrs\":",
            "\"barrier_stall_instrs\":",
        ] {
            assert!(!json.contains(key), "v2 key {key} still written");
        }
        // The v1 parser still reads a v3 document.
        let parsed = parse_baseline(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].0, "big_system_scalar");
    }
}
