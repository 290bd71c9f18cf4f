//! Regenerates every table and figure of the DAC'94 evaluation.
//!
//! ```text
//! cargo run -p ifsyn-bench --bin experiments -- all
//! cargo run -p ifsyn-bench --bin experiments -- fig7
//!     # fig2 | fig7 | fig8 | extra | overhead | ablation | all print
//!     # their tables and take no arguments.
//! cargo run -p ifsyn-bench --bin experiments -- faults
//!     # fault-matrix campaign; writes BENCH_faults.json and exits
//!     # nonzero on a silent corruption under the protected variant.
//!     # Options:
//!     #   --out PATH        output file (default BENCH_faults.json)
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
//! ```
//!
//! Kernel and checker throughput are measured by the `perfbench`
//! benchmark (`perfbench/README.md`), not here.
//!
//! An argument a subcommand does not take, or an unknown subcommand,
//! prints the usage line and exits nonzero.

use std::env;
use std::process::ExitCode;

const USAGE: &str = "usage: experiments [fig2 | fig7 | fig8 | extra | overhead | ablation | all]
       experiments faults [--out PATH]
       experiments calibrate [--out PATH] [--tolerance R]
       experiments check [--out PATH] [--min-rate R] [--no-big]";

/// The print-only tables, in `all` order.
const TABLES: [&str; 6] = ["fig2", "fig7", "fig8", "extra", "overhead", "ablation"];

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let what = args.first().map_or("all", String::as_str);
    let flags = match Flags::parse(what, args.get(1..).unwrap_or_default()) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("experiments: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match what {
        "faults" => run_faults(flags.out("BENCH_faults.json")),
        "calibrate" => run_calibrate(&flags),
        "check" => run_check(&flags),
        "all" => {
            TABLES.into_iter().for_each(print_table);
            Ok(())
        }
        table => {
            print_table(table);
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{what} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The options each subcommand takes: `(flag, takes a value)`.
fn accepted_flags(what: &str) -> Result<&'static [(&'static str, bool)], String> {
    Ok(match what {
        table if table == "all" || TABLES.contains(&table) => &[],
        "faults" => &[("--out", true)],
        "calibrate" => &[("--out", true), ("--tolerance", true)],
        "check" => &[("--out", true), ("--min-rate", true), ("--no-big", false)],
        other => return Err(format!("unknown experiment `{other}`")),
    })
}

/// The parsed options of one subcommand, in command-line order.
struct Flags(Vec<(&'static str, Option<String>)>);

impl Flags {
    fn parse(what: &str, args: &[String]) -> Result<Self, String> {
        let accepted = accepted_flags(what)?;
        let mut found = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let &(flag, takes_value) = accepted
                .iter()
                .find(|(flag, _)| flag == arg)
                .ok_or_else(|| format!("`{what}` does not take `{arg}`"))?;
            let value = if takes_value {
                Some(it.next().ok_or(format!("{flag} requires a value"))?.clone())
            } else {
                None
            };
            found.push((flag, value));
        }
        Ok(Self(found))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| *f == flag)
    }

    /// The last value given for `flag`.
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn out<'a>(&'a self, default: &'a str) -> &'a str {
        self.value("--out").unwrap_or(default)
    }

    fn number(&self, flag: &str) -> Result<Option<f64>, String> {
        self.value(flag)
            .map(|v| v.parse::<f64>().map_err(|e| format!("bad {flag}: {e}")))
            .transpose()
    }

    /// `--tolerance`, which must lie in [0, 1).
    fn tolerance(&self, default: f64) -> Result<f64, String> {
        let tolerance = self.number("--tolerance")?.unwrap_or(default);
        if !(0.0..1.0).contains(&tolerance) {
            return Err("--tolerance must be in [0, 1)".to_string());
        }
        Ok(tolerance)
    }
}

/// Runs the fault campaign and writes it to `out_path`. Exits with an
/// error when any protected run corrupted data without raising a flag
/// (an integrity regression).
fn run_faults(out_path: &str) -> Result<(), String> {
    rule();
    let data = ifsyn_bench::faults::run();
    print!("{}", ifsyn_bench::faults::render(&data));
    std::fs::write(out_path, ifsyn_bench::faults::to_json(&data)).map_err(|e| e.to_string())?;
    println!("\nwrote {out_path}");
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
fn run_calibrate(flags: &Flags) -> Result<(), String> {
    let tolerance = flags.tolerance(ifsyn_bench::calibrate::DEFAULT_TOLERANCE)?;
    let out_path = flags.out("BENCH_analyze.json");
    rule();
    let data = ifsyn_bench::calibrate::run();
    print!("{}", ifsyn_bench::calibrate::render(&data));
    std::fs::write(out_path, ifsyn_bench::calibrate::to_json(&data)).map_err(|e| e.to_string())?;
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
fn run_check(flags: &Flags) -> Result<(), String> {
    let min_rate = flags.number("--min-rate")?;
    if min_rate.is_some_and(|r| r <= 0.0) {
        return Err("--min-rate must be positive".to_string());
    }
    let out_path = flags.out("BENCH_check.json");
    let big = !flags.has("--no-big");
    rule();
    let data = ifsyn_bench::check::run_with(&ifsyn_bench::check::CheckOptions { big });
    print!("{}", ifsyn_bench::check::render(&data));
    std::fs::write(out_path, ifsyn_bench::check::to_json(&data)).map_err(|e| e.to_string())?;
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

/// Prints one of the [`TABLES`].
fn print_table(what: &str) {
    use ifsyn_bench::{ablation, extra, fig2, fig7, fig8, overhead};
    rule();
    let text = match what {
        "fig2" => fig2::render(&fig2::run()),
        "fig7" => fig7::render(&fig7::run()),
        "fig8" => fig8::render(&fig8::run()),
        "extra" => extra::render(&extra::run()),
        "overhead" => overhead::render(&overhead::run()),
        _ => ablation::render(&ablation::run()),
    };
    print!("{text}");
}
