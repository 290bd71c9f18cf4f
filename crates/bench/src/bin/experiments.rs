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
//!     # model-checking campaign over the refined-protocol catalog;
//!     # writes BENCH_check.json and exits nonzero on any verdict
//!     # deviation. Options:
//!     #   --out PATH        output file (default BENCH_check.json)
//! ```
//!
//! Kernel and checker throughput are measured by the `perfbench`
//! benchmark (`perfbench/README.md`), not here.
//!
//! An argument a subcommand does not take, or an unknown subcommand,
//! prints the usage line and exits nonzero. Every failure, a closed
//! stdout included, is one `experiments:` line on stderr and exit 1.

use std::env;
use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE: &str = "usage: experiments [fig2 | fig7 | fig8 | extra | overhead | ablation | all]
       experiments faults [--out PATH]
       experiments calibrate [--out PATH] [--tolerance R]
       experiments check [--out PATH]";

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
    // Every line goes through `writeln!(…)?`, so a closed stdout (a
    // reader like `head` exiting early) takes the error path below.
    let mut out = io::stdout().lock();
    let result = match what {
        "faults" => run_faults(&mut out, flags.out("BENCH_faults.json")),
        "calibrate" => run_calibrate(&mut out, &flags),
        "check" => run_check(&mut out, flags.out("BENCH_check.json")),
        "all" => TABLES
            .into_iter()
            .try_for_each(|table| print_table(&mut out, table)),
        table => print_table(&mut out, table),
    };
    match result.and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("experiments: {what} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a subcommand returns: a campaign regression, an unwritable
/// output file or a failed write to stdout.
type Outcome = Result<(), Box<dyn Error>>;

/// The options each subcommand takes; every one takes a value.
fn accepted_flags(what: &str) -> Result<&'static [&'static str], String> {
    Ok(match what {
        table if table == "all" || TABLES.contains(&table) => &[],
        "faults" | "check" => &["--out"],
        "calibrate" => &["--out", "--tolerance"],
        other => return Err(format!("unknown experiment `{other}`")),
    })
}

/// The parsed options of one subcommand, in command-line order.
struct Flags(Vec<(&'static str, String)>);

impl Flags {
    fn parse(what: &str, args: &[String]) -> Result<Self, String> {
        let accepted = accepted_flags(what)?;
        let mut found = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let &flag = accepted
                .iter()
                .find(|flag| *flag == arg)
                .ok_or_else(|| format!("`{what}` does not take `{arg}`"))?;
            let value = it.next().ok_or(format!("{flag} requires a value"))?;
            found.push((flag, value.clone()));
        }
        Ok(Self(found))
    }

    /// The last value given for `flag`.
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn out<'a>(&'a self, default: &'a str) -> &'a str {
        self.value("--out").unwrap_or(default)
    }

    /// `--tolerance`, which must lie in [0, 1).
    fn tolerance(&self, default: f64) -> Result<f64, String> {
        let tolerance = match self.value("--tolerance") {
            Some(v) => v
                .parse::<f64>()
                .map_err(|e| format!("bad --tolerance: {e}"))?,
            None => default,
        };
        if !(0.0..1.0).contains(&tolerance) {
            return Err("--tolerance must be in [0, 1)".to_string());
        }
        Ok(tolerance)
    }
}

/// Runs the fault campaign and writes it to `out_path`. Exits with an
/// error when any protected run corrupted data without raising a flag
/// (an integrity regression).
fn run_faults(out: &mut impl Write, out_path: &str) -> Outcome {
    rule(out)?;
    let data = ifsyn_bench::faults::run();
    write!(out, "{}", ifsyn_bench::faults::render(&data))?;
    write_out(out, out_path, ifsyn_bench::faults::to_json(&data))?;
    let silent = data.silent_corruptions();
    if !silent.is_empty() {
        return Err(format!(
            "{} protected run(s) completed corrupt with no status flag raised",
            silent.len()
        )
        .into());
    }
    Ok(())
}

/// Runs the trace-analytics campaign and writes `BENCH_analyze.json`
/// (default). Exits with an error when a pinned invariant fails:
/// alone-on-the-bus rates deviating from the static estimates, a shared
/// rate beating its analytic ceiling, the worst shared shortfall
/// exceeding the tolerance, or the calibration loop failing to converge.
fn run_calibrate(out: &mut impl Write, flags: &Flags) -> Outcome {
    let tolerance = flags.tolerance(ifsyn_bench::calibrate::DEFAULT_TOLERANCE)?;
    let out_path = flags.out("BENCH_analyze.json");
    rule(out)?;
    let data = ifsyn_bench::calibrate::run();
    write!(out, "{}", ifsyn_bench::calibrate::render(&data))?;
    write_out(out, out_path, ifsyn_bench::calibrate::to_json(&data))?;
    match ifsyn_bench::calibrate::check(&data, tolerance) {
        Ok(summary) => {
            write!(out, "\n{summary}")?;
            Ok(())
        }
        Err(report) => {
            write!(out, "\npinned checks FAILED:\n{report}")?;
            Err("trace-analytics regression detected".into())
        }
    }
}

/// Runs the model-checking campaign and writes `BENCH_check.json`
/// (default) or the path given with `--out`. Exits with an error when a
/// property that must hold is violated, or a known-broken baseline
/// unexpectedly passes.
fn run_check(out: &mut impl Write, out_path: &str) -> Outcome {
    rule(out)?;
    let data = ifsyn_bench::check::run();
    write!(out, "{}", ifsyn_bench::check::render(&data))?;
    write_out(out, out_path, ifsyn_bench::check::to_json(&data))?;
    let bad = data.unexpected();
    if !bad.is_empty() {
        return Err(format!("{} property result(s) deviate from expectation", bad.len()).into());
    }
    Ok(())
}

/// Writes a campaign's JSON to `path` and says so; a failed write names
/// the path.
fn write_out(out: &mut impl Write, path: &str, json: String) -> Outcome {
    std::fs::write(path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    writeln!(out, "\nwrote {path}")?;
    Ok(())
}

fn rule(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "\n{}\n", "=".repeat(72))
}

/// Prints one of the [`TABLES`].
fn print_table(out: &mut impl Write, what: &str) -> Outcome {
    use ifsyn_bench::{ablation, extra, fig2, fig7, fig8, overhead};
    rule(out)?;
    let text = match what {
        "fig2" => fig2::render(&fig2::run()),
        "fig7" => fig7::render(&fig7::run()),
        "fig8" => fig8::render(&fig8::run()),
        "extra" => extra::render(&extra::run()),
        "overhead" => overhead::render(&overhead::run()),
        _ => ablation::render(&ablation::run()),
    };
    write!(out, "{text}")?;
    Ok(())
}
