//! Regenerates every table and figure of the DAC'94 evaluation.
//!
//! ```text
//! cargo run -p ifsyn-bench --bin experiments -- all
//! cargo run -p ifsyn-bench --bin experiments -- fig7
//! cargo run -p ifsyn-bench --bin experiments -- bench   # writes BENCH_sim.json
//! cargo run -p ifsyn-bench --bin experiments -- faults  # writes BENCH_faults.json
//! cargo run -p ifsyn-bench --bin experiments -- calibrate
//!     # trace-analytics campaign: estimated vs observed rates over the
//!     # Fig. 7 sweep plus the calibration fixed point; writes
//!     # BENCH_analyze.json and exits nonzero when a pinned invariant
//!     # (alone-run exactness, shortfall tolerance, convergence) fails.
//!     # Options:
//!     #   --out PATH        output file (default BENCH_analyze.json)
//!     #   --tolerance R     worst allowed shared-rate shortfall
//!     #                     (default 0.5)
//! cargo run -p ifsyn-bench --bin experiments -- check
//!     # model-checking campaign over the refined-protocol catalog plus
//!     # the big-system scale run; writes BENCH_check.json and exits
//!     # nonzero on any verdict deviation or scale loss. Options:
//!     #   --out PATH        output file (default BENCH_check.json)
//!     #   --min-rate R      fail when the measured exploration rate
//!     #                     drops below R states/second
//!     #   --no-big          skip the big-system scale run
//! cargo run -p ifsyn-bench --bin experiments -- perf --check
//!     # measure and compare against the committed BENCH_sim.json;
//!     # exits nonzero on a throughput regression. Options:
//!     #   --baseline PATH   baseline file (default BENCH_sim.json)
//!     #   --tolerance R     allowed fractional drop (default 0.5 — wide,
//!     #                     because CI machines differ from the machine
//!     #                     that wrote the baseline)
//! ```

use std::env;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    match what {
        "fig2" => print_fig2(),
        "fig7" => print_fig7(),
        "fig8" => print_fig8(),
        "extra" => print_extra(),
        "ablation" => print_ablation(),
        "overhead" => print_overhead(),
        "bench" => {
            if let Err(e) = run_bench(args.get(1).map(String::as_str)) {
                eprintln!("bench failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        "faults" => {
            if let Err(e) = run_faults(args.get(1).map(String::as_str)) {
                eprintln!("faults failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        "calibrate" => {
            if let Err(e) = run_calibrate(&args[1..]) {
                eprintln!("calibrate failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        "check" => {
            if let Err(e) = run_check(&args[1..]) {
                eprintln!("check failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        "perf" => {
            if let Err(e) = run_perf(&args[1..]) {
                eprintln!("perf: {e}");
                return ExitCode::FAILURE;
            }
        }
        "all" => {
            print_fig2();
            print_fig7();
            print_fig8();
            print_extra();
            print_overhead();
            print_ablation();
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; expected fig2 | fig7 | fig8 | extra | overhead | ablation | bench | faults | check | calibrate | perf | all"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Measures kernel throughput and writes `BENCH_sim.json` (default) or
/// the given output path.
fn run_bench(out_path: Option<&str>) -> std::io::Result<()> {
    rule();
    let data = ifsyn_bench::perf::run();
    print!("{}", ifsyn_bench::perf::render(&data));
    let path = out_path.unwrap_or("BENCH_sim.json");
    std::fs::write(path, ifsyn_bench::perf::to_json(&data))?;
    println!("\nwrote {path}");
    Ok(())
}

/// Measures throughput and, with `--check`, compares against a committed
/// baseline instead of overwriting it.
fn run_perf(args: &[String]) -> Result<(), String> {
    let mut check = false;
    let mut tolerance = 0.5f64;
    let mut baseline_path = "BENCH_sim.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--tolerance" => {
                tolerance = it
                    .next()
                    .ok_or("--tolerance requires a value")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
                if !(0.0..1.0).contains(&tolerance) {
                    return Err("--tolerance must be in [0, 1)".to_string());
                }
            }
            "--baseline" => {
                baseline_path = it.next().ok_or("--baseline requires a value")?.clone();
            }
            other => return Err(format!("unknown perf option `{other}`")),
        }
    }
    rule();
    let data = ifsyn_bench::perf::run();
    print!("{}", ifsyn_bench::perf::render(&data));
    if check {
        let json = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read baseline `{baseline_path}`: {e}"))?;
        let baseline = ifsyn_bench::perf::parse_baseline(&json);
        if baseline.is_empty() {
            return Err(format!("no scenarios found in `{baseline_path}`"));
        }
        println!(
            "\nregression check vs {baseline_path} (tolerance {:.0}%):",
            tolerance * 100.0
        );
        match ifsyn_bench::perf::check(&data, &baseline, tolerance) {
            Ok(report) => print!("{report}"),
            Err(report) => {
                print!("{report}");
                return Err("throughput regression detected".to_string());
            }
        }
    }
    Ok(())
}

/// Runs the fault campaign and writes `BENCH_faults.json` (default) or
/// the given output path. Exits with an error when any protected run
/// corrupted data without raising a flag (an integrity regression).
fn run_faults(out_path: Option<&str>) -> Result<(), String> {
    rule();
    let data = ifsyn_bench::faults::run();
    print!("{}", ifsyn_bench::faults::render(&data));
    let path = out_path.unwrap_or("BENCH_faults.json");
    std::fs::write(path, ifsyn_bench::faults::to_json(&data)).map_err(|e| e.to_string())?;
    println!("\nwrote {path}");
    let silent = data.silent_corruptions();
    if !silent.is_empty() {
        return Err(format!(
            "{} protected run(s) completed corrupt with no status flag raised",
            silent.len()
        ));
    }
    Ok(())
}

/// Runs the trace-analytics campaign and writes `BENCH_analyze.json`
/// (default). Exits with an error when a pinned invariant fails:
/// alone-on-the-bus rates deviating from the static estimates, a shared
/// rate beating its analytic ceiling, the worst shared shortfall
/// exceeding the tolerance, or the calibration loop failing to converge.
fn run_calibrate(args: &[String]) -> Result<(), String> {
    let mut tolerance = ifsyn_bench::calibrate::DEFAULT_TOLERANCE;
    let mut out_path = "BENCH_analyze.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().ok_or("--out requires a value")?.clone(),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .ok_or("--tolerance requires a value")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
                if !(0.0..1.0).contains(&tolerance) {
                    return Err("--tolerance must be in [0, 1)".to_string());
                }
            }
            other => return Err(format!("unknown calibrate option `{other}`")),
        }
    }
    rule();
    let data = ifsyn_bench::calibrate::run();
    print!("{}", ifsyn_bench::calibrate::render(&data));
    std::fs::write(&out_path, ifsyn_bench::calibrate::to_json(&data)).map_err(|e| e.to_string())?;
    println!("\nwrote {out_path}");
    match ifsyn_bench::calibrate::check(&data, tolerance) {
        Ok(summary) => {
            print!("\n{summary}");
            Ok(())
        }
        Err(report) => {
            print!("\npinned checks FAILED:\n{report}");
            Err("trace-analytics regression detected".to_string())
        }
    }
}

/// Runs the model-checking campaign and writes `BENCH_check.json`
/// (default) or the path given with `--out`. Exits with an error when a
/// property that must hold is violated (or a known-broken baseline
/// unexpectedly passes), when the big-system run falls below the
/// million-state scale floor, or when `--min-rate` is given and the
/// measured exploration throughput drops below it.
fn run_check(args: &[String]) -> Result<(), String> {
    let mut out_path = "BENCH_check.json".to_string();
    let mut min_rate: Option<f64> = None;
    let mut big = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().ok_or("--out requires a value")?.clone(),
            "--min-rate" => {
                let r = it
                    .next()
                    .ok_or("--min-rate requires a value")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --min-rate: {e}"))?;
                if r <= 0.0 {
                    return Err("--min-rate must be positive".to_string());
                }
                min_rate = Some(r);
            }
            "--no-big" => big = false,
            // Back-compat: a bare path is the output file, as before.
            other if !other.starts_with('-') => out_path = other.to_string(),
            other => return Err(format!("unknown check option `{other}`")),
        }
    }
    rule();
    let data = ifsyn_bench::check::run_with(&ifsyn_bench::check::CheckOptions { big });
    print!("{}", ifsyn_bench::check::render(&data));
    std::fs::write(&out_path, ifsyn_bench::check::to_json(&data)).map_err(|e| e.to_string())?;
    println!("\nwrote {out_path}");
    let bad = data.unexpected();
    if !bad.is_empty() {
        return Err(format!(
            "{} property result(s) deviate from expectation",
            bad.len()
        ));
    }
    if data.big_failed() {
        return Err("big-system exploration failed or fell below the 1M-state floor".to_string());
    }
    if let Some(floor) = min_rate {
        match data.check_rate(floor) {
            Ok(line) => println!("{line}"),
            Err(line) => {
                println!("{line}");
                return Err("checker throughput regression detected".to_string());
            }
        }
    }
    Ok(())
}

fn rule() {
    println!("\n{}\n", "=".repeat(72));
}

fn print_fig2() {
    rule();
    print!("{}", ifsyn_bench::fig2::render(&ifsyn_bench::fig2::run()));
}

fn print_fig7() {
    rule();
    print!("{}", ifsyn_bench::fig7::render(&ifsyn_bench::fig7::run()));
}

fn print_fig8() {
    rule();
    print!("{}", ifsyn_bench::fig8::render(&ifsyn_bench::fig8::run()));
}

fn print_extra() {
    rule();
    print!("{}", ifsyn_bench::extra::render(&ifsyn_bench::extra::run()));
}

fn print_overhead() {
    rule();
    print!(
        "{}",
        ifsyn_bench::overhead::render(&ifsyn_bench::overhead::run())
    );
}

fn print_ablation() {
    rule();
    print!(
        "{}",
        ifsyn_bench::ablation::render(&ifsyn_bench::ablation::run())
    );
}
