//! Benchmark of the interface-synthesis pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload width_sweep --seed 1 --seconds 50 --trace 0
//! ```
//!
//! One process, one worker thread, public entry points only. A run
//! measures one workload (`width_sweep` or `check_catalog`, described in
//! their modules), verifies every op, and prints as its last
//! line a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Untraced (`--trace 0`) it reports the end-to-end metrics;
//! traced (`--trace 1`) it records a span around every call into a layer
//! and reports the per-layer metrics. The line before it states the
//! thread count, passes and sample counts. See `perfbench/README.md`.

mod catalog;
mod jitter;
mod json;
mod ops;
mod stats;
mod sweep;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use ops::Tally;
use stats::{median, percentile};
use trace::Tracer;

/// The seed every comparison uses; the golden file pins its results.
pub const DEFAULT_SEED: u64 = 1;

/// Input builds before the first pass; one more follows every pass.
const SETUP_REPEATS: usize = 5;

/// Worker threads every run uses: the pipeline is called directly, with
/// the default single-threaded simulator and checker configurations.
const THREADS: usize = 1;

/// What one run measured and verified.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Time of each build of the inputs, in seconds.
    pub setup_s: Vec<f64>,
    /// Timed duration of each pass, in seconds.
    pub pass_s: Vec<f64>,
    /// Ops of each pass.
    pub pass_ops: Vec<usize>,
    /// Peak resident memory at the end of the first pass, in MB.
    pub peak_rss_mb: f64,
    /// Latency of each op, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, mismatched or repeated.
    pub failed: u64,
    /// The first failure messages.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Builds a workload's inputs [`SETUP_REPEATS`] times, timing each
    /// build, and returns the last. [`Outcome::rebuild`] adds a build
    /// after every pass, so `setup_s`, their median, samples the whole
    /// run rather than one moment of it.
    fn setup<T>(&mut self, mut build: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            last = Some(self.rebuild(&mut build));
        }
        last.expect("at least one setup")
    }

    /// Times one more build of the inputs and returns it.
    fn rebuild<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = std::hint::black_box(build());
        self.setup_s.push(t.elapsed().as_secs_f64());
        v
    }

    /// Records a finished pass; the first one also fixes the peak memory
    /// (later passes repeat the same shape of work and only add allocator
    /// growth).
    fn pass_done(&mut self, seconds: f64) {
        if self.pass_s.is_empty() {
            self.peak_rss_mb = peak_rss_mb();
        }
        self.pass_s.push(seconds);
        let before: usize = self.pass_ops.iter().sum();
        self.pass_ops.push(self.op_ms.len() - before);
    }

    /// Whether another pass as long as the last one still ends within
    /// `seconds` of `started`. The first pass always runs.
    fn room_for_another_pass(&self, started: Instant, seconds: f64) -> bool {
        let last = self.pass_s.last().copied().unwrap_or(0.0);
        self.pass_s.is_empty() || started.elapsed().as_secs_f64() + last <= seconds
    }

    fn finish(mut self, tally: Tally) -> Self {
        self.attempted = tally.attempted;
        self.failed = tally.failed;
        self.notes = tally.notes().to_vec();
        self
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_golden: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 50.0,
        trace: false,
        write_golden: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--write-golden" => a.write_golden = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.write_golden.is_none() && !["width_sweep", "check_catalog"].contains(&a.workload.as_str())
    {
        return Err(format!(
            "--workload must be width_sweep or check_catalog, not `{}`",
            a.workload
        ));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_golden {
        return write_golden(path);
    }
    let mut tr = Tracer::new(args.trace);
    let out = match args.workload.as_str() {
        "width_sweep" => sweep::run(args.seed, args.seconds, &mut tr, None),
        _ => catalog::run(args.seed, args.seconds, &mut tr),
    };
    for note in &out.notes {
        eprintln!("perfbench: FAILED {note}");
    }
    let metrics = if args.trace {
        per_layer(&out, &tr)
    } else {
        end_to_end(&out)
    };
    println!("{}", info_line(&args, &out));
    let correct = out.failed == 0 && out.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Regenerates the golden file from the default seed.
fn write_golden(path: &str) -> ExitCode {
    let mut golden = String::new();
    let out = sweep::run(
        DEFAULT_SEED,
        f64::MAX,
        &mut Tracer::new(false),
        Some(&mut golden),
    );
    if out.failed != 0 {
        for note in &out.notes {
            eprintln!("perfbench: FAILED {note}");
        }
        return ExitCode::FAILURE;
    }
    match std::fs::write(path, golden) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: cannot write `{path}`: {e}");
            ExitCode::FAILURE
        }
    }
}

type Metric = (&'static str, f64, &'static str);

/// Peak resident memory of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time of one pass on a quiet host. Passes repeat the same ops, in the
/// same order, on fresh data; on a shared host any of them may be slowed
/// by other tenants. So each op position contributes its fastest run
/// across the passes, and the pass time outside ops its fastest
/// remainder. Without a common op count the fastest pass stands in.
fn quiet_pass_s(out: &Outcome) -> f64 {
    let n = out.pass_ops.first().copied().unwrap_or(0);
    if out.pass_ops.iter().any(|&k| k != n) || n == 0 {
        return out.pass_s.iter().copied().fold(f64::INFINITY, f64::min);
    }
    let mut best = vec![f64::INFINITY; n];
    let mut rest = f64::INFINITY;
    for (ops, &secs) in out.op_ms.chunks(n).zip(&out.pass_s) {
        for (b, &ms) in best.iter_mut().zip(ops) {
            *b = b.min(ms / 1e3);
        }
        rest = rest.min(secs - ops.iter().sum::<f64>() / 1e3);
    }
    best.iter().sum::<f64>() + rest.max(0.0)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let wall = quiet_pass_s(out);
    let wall = if wall.is_finite() { wall } else { 0.0 };
    let points = out.pass_ops.first().copied().unwrap_or(0);
    vec![
        ("wall_s", wall, "s"),
        ("points_per_s", ratio(points as f64, wall), "1/s"),
        ("setup_s", median(&out.setup_s).unwrap_or(0.0), "s"),
        ("peak_rss_mb", out.peak_rss_mb, "MB"),
    ]
}

/// `a / b`, 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of a traced run: self times in milliseconds
/// and counts, per pass.
fn per_layer(out: &Outcome, tr: &Tracer) -> Vec<Metric> {
    let ms = tr.self_ms();
    let passes = out.pass_s.len().max(1) as f64;
    let t = |name: &str| ms.get(name).copied().unwrap_or(0.0) / passes;
    let c = |name: &str| tr.get(name) / passes;
    let explored = c("check.ample_states") + c("check.full_states");
    let overhead = tr.span_count() as f64 * trace::span_cost().as_secs_f64()
        + tr.counting_time().as_secs_f64();
    let timed: f64 = out.pass_s.iter().sum();
    vec![
        ("sim.run_ms", t("sim.run"), "ms"),
        (
            "sim.ns_per_instr",
            ratio(t("sim.run") * 1e6, c("sim.instrs")),
            "ns",
        ),
        ("sim.instrs", c("sim.instrs"), "count"),
        ("sim.deltas", c("sim.deltas"), "count"),
        ("sim.trace_events", c("sim.trace_events"), "count"),
        ("sim.compile_ms", t("sim.compile"), "ms"),
        (
            "sim.cache_hit_ratio",
            ratio(
                c("sim.cache_lookups") - c("sim.cache_misses"),
                c("sim.cache_lookups"),
            ),
            "ratio",
        ),
        ("protogen.refine_ms", t("protogen.refine"), "ms"),
        ("protogen.stmts", c("protogen.stmts"), "count"),
        ("analyze.report_ms", t("analyze.report"), "ms"),
        ("analyze.words", c("analyze.words"), "count"),
        ("lang.parse_ms", t("lang.parse"), "ms"),
        ("partition.derive_ms", t("partition.derive"), "ms"),
        ("busgen.explore_ms", t("busgen.explore"), "ms"),
        ("check.build_ms", t("check.build"), "ms"),
        ("check.explore_ms", t("check.explore"), "ms"),
        (
            "check.states_per_s",
            ratio(c("check.states") * 1e3, t("check.explore")),
            "1/s",
        ),
        ("check.transitions", c("check.transitions"), "count"),
        (
            "check.dedup_ratio",
            ratio(c("check.dedup_hits"), c("check.transitions")),
            "ratio",
        ),
        ("check.states", c("check.states"), "count"),
        (
            "check.ample_ratio",
            ratio(c("check.ample_states"), explored),
            "ratio",
        ),
        (
            "check.peak_frontier",
            tr.get("check.peak_frontier"),
            "count",
        ),
        ("check.props_ms", t("check.props"), "ms"),
        ("check.counterexamples", c("check.counterexamples"), "count"),
        ("bench.glue_ms", t("op"), "ms"),
        ("trace.overhead_pct", ratio(overhead * 100.0, timed), "%"),
    ]
}

/// The line before the result: run shape and sample counts.
fn info_line(args: &Args, out: &Outcome) -> String {
    let pct = |q: f64| percentile(&out.op_ms, q).map_or("null".to_string(), |v| v.to_string());
    format!(
        "{{\"info\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"threads\": {THREADS}, \
         \"passes\": {}, \"pass_s\": {:?}, \"op_samples\": {}, \"op_ms_p50\": {}, \"op_ms_p90\": {}, \
         \"op_ms_p99\": {}}}}}",
        json::quote(&args.workload),
        args.seed,
        u8::from(args.trace),
        out.pass_s.len(),
        out.pass_s,
        out.op_ms.len(),
        pct(0.5),
        pct(0.9),
        pct(0.99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_invocation() {
        let a = args(&[
            "--workload",
            "check_catalog",
            "--seed",
            "7",
            "--seconds",
            "30",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "check_catalog".into(),
                seed: 7,
                seconds: 30.0,
                trace: true,
                write_golden: None,
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--workload", "check_big"]).is_err());
        assert!(args(&["--workload", "width_sweep", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "width_sweep", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "width_sweep", "--seed"]).is_err());
    }

    #[test]
    fn quiet_pass_takes_each_ops_fastest_run() {
        let out = Outcome {
            // Two passes of two ops; the second op is slow in pass 0.
            pass_s: vec![0.040, 0.025],
            pass_ops: vec![2, 2],
            op_ms: vec![10.0, 25.0, 15.0, 5.0],
            ..Outcome::default()
        };
        // 10 ms + 5 ms of ops, plus the smaller remainder (5 ms).
        assert!((quiet_pass_s(&out) - 0.020).abs() < 1e-12);
        let uneven = Outcome {
            pass_ops: vec![2, 1],
            op_ms: vec![10.0, 25.0, 15.0],
            ..out
        };
        assert_eq!(quiet_pass_s(&uneven), 0.025);
    }

    #[test]
    fn unreported_percentiles_print_null_with_their_count() {
        let out = Outcome {
            op_ms: vec![1.0; 15],
            ..Outcome::default()
        };
        let a = args(&["--workload", "check_catalog"]).unwrap();
        let line = info_line(&a, &out);
        assert!(line.contains("\"op_samples\": 15"));
        assert!(line.contains("\"op_ms_p50\": null"));
    }
}
