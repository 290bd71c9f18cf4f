//! `ifsyn` — the interface-synthesis command line.
//!
//! ```text
//! ifsyn SPEC.ifs [options]
//! ifsyn analyze SPEC.ifs [--width W] [--protocol P] [--json]
//! ifsyn analyze --from-vcd FILE --meta FILE [--json]
//!
//!   --channels ch1,ch2     channels to implement (default: all)
//!   --width N              designer-specified bus width (default: run
//!                          the bus-generation algorithm)
//!   --protocol P           full | half | fixed:N      (default: full)
//!   --min-width N[:W]      constraint with optional weight (default 1)
//!   --max-width N[:W]      constraint with optional weight
//!   --min-peak CH=R[:W]    MinPeakRate(CH) = R bits/clock
//!   --derive-channels      rewrite direct cross-module variable
//!                          accesses into channels before synthesis
//!   --no-arbitration       paper-faithful mode (no bus arbiter)
//!   --rolled               emit Fig. 4-style rolled word loops
//!   --protocol-timeout W[:R]  generate timeout-hardened handshakes:
//!                          watchdog of W cycles per wait, R retries
//!                          (default 3) before raising the status flag
//!   --integrity            generate integrity-protected transfers: a
//!                          position-weighted check word per run, verified
//!                          on the receive side (implies hardening)
//!   --fault SPEC           inject a fault (repeatable). SPEC is one of
//!                            stuck0:SIG[@FROM[-UNTIL]]
//!                            stuck1:SIG[@FROM[-UNTIL]]
//!                            flip:SIG:BIT@T
//!                            drop:SIG@FROM[-UNTIL]
//!                            delay:SIG:CYCLES@FROM[-UNTIL]
//!                          faults turn on deadlock diagnosis
//!   --print-vhdl           print the refined specification
//!   --vcd FILE             write a VCD waveform of the simulation
//!   --bus-meta FILE        write the bus-metadata JSON sidecar
//!                          (ifsyn-bus-meta-v1) describing wires and
//!                          channels, for offline `analyze --from-vcd`
//!   --dot FILE             write a Graphviz graph of the refined system
//!   --lint                 print specification warnings and exit
//!   --check                model-check the refined system instead of
//!                          simulating it: explore every schedule (and
//!                          every in-budget --check-fault pattern) and
//!                          verify the robustness property catalog;
//!                          exits nonzero on any violation
//!   --check-fault SPEC     adversarial fault for --check (repeatable):
//!                            stuck0:SIG
//!                            flip:SIG:BIT[:BUDGET]
//!                          unlike --fault these carry no schedule times;
//!                          the checker tries every legal strike point
//!   --check-limit STATES   stop exploring after STATES states and report
//!                          BOUND verdicts; lifts the default cap of
//!                          262144 states, so a limit above the
//!                          reachable count checks exhaustively
//!   --check-no-por         disable partial-order reduction (explore the
//!                          full interleaving graph)
//!   --explore              print the width exploration table and exit
//!   --explore-csv FILE     write the exploration as CSV and exit
//!   --sweep-sim LO-HI      refine the system at every bus width in
//!                          LO..=HI and batch-simulate all of them,
//!                          printing a finish-time table
//!   --jobs N               worker threads for --sweep-sim (0 or unset:
//!                          one per core); each simulation runs on one
//!                          thread
//!
//! `ifsyn analyze` runs the post-simulation bus analyzer: the spec is
//! synthesized (honoring --width/--protocol/--channels/--min-width/...),
//! simulated with tracing, and the trace is analyzed for per-bus
//! utilization, idle and backpressure cycles, per-channel observed
//! transfer rates and START->DONE latency histograms. With --from-vcd
//! the analyzer instead ingests a waveform written by --vcd plus the
//! --bus-meta sidecar, with no re-synthesis. --json switches the report
//! to the ifsyn-analyze-report-v1 document.
//! ```

use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;

use interface_synthesis::core::{
    BusDesign, BusGenerator, Constraint, ProtocolGenerator, ProtocolKind,
};
use interface_synthesis::sim::{FaultPlan, SimConfig, SimError, Simulator};
use interface_synthesis::spec::{ChannelId, System};
use interface_synthesis::vhdl::VhdlPrinter;

#[derive(Debug, Default)]
struct Options {
    spec_path: Option<String>,
    channels: Option<Vec<String>>,
    width: Option<u32>,
    protocol: ProtocolArg,
    constraints: Vec<ConstraintArg>,
    derive_channels: bool,
    no_arbitration: bool,
    rolled: bool,
    protocol_timeout: Option<(u64, Option<u32>)>,
    integrity: bool,
    faults: Vec<String>,
    check: bool,
    check_faults: Vec<String>,
    check_limit: Option<usize>,
    check_no_por: bool,
    print_vhdl: bool,
    vcd: Option<String>,
    bus_meta: Option<String>,
    dot: Option<String>,
    analyze: bool,
    from_vcd: Option<String>,
    meta: Option<String>,
    json: bool,
    explore: bool,
    explore_csv: Option<String>,
    lint: bool,
    sweep_sim: Option<(u32, u32)>,
    jobs: usize,
}

#[derive(Debug, Default, Clone, Copy)]
enum ProtocolArg {
    #[default]
    Full,
    Half,
    Fixed(u32),
}

#[derive(Debug, Clone)]
enum ConstraintArg {
    MinWidth(u32, f64),
    MaxWidth(u32, f64),
    MinPeak(String, f64, f64),
}

fn main() -> ExitCode {
    // Every line goes through `writeln!(…)?`, so a closed stdout (a
    // reader like `head` exiting early) takes the error path below.
    let mut out = io::stdout().lock();
    match run(&mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ifsyn: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(out: &mut impl Write) -> Result<(), Box<dyn Error>> {
    let options = parse_args(std::env::args().skip(1))?;
    if options.analyze && options.from_vcd.is_some() {
        return analyze_offline(out, &options);
    }
    let Some(path) = &options.spec_path else {
        return Err("usage: ifsyn SPEC.ifs [options]  (see --help in the README)".into());
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut system =
        interface_synthesis::lang::parse_system(&source).map_err(|e| format!("{path}:{e}"))?;

    if options.derive_channels {
        let result = interface_synthesis::partition::Partitioner::new().partition(&system)?;
        let n = result.channels.len();
        system = result.system;
        writeln!(out, "derived {n} channel(s) from cross-module accesses")?;
    }

    if options.lint {
        let findings = interface_synthesis::spec::lint::lint_system(&system);
        if findings.is_empty() {
            writeln!(out, "no lints: `{}` looks clean", system.name)?;
        } else {
            for finding in &findings {
                writeln!(out, "warning: {finding}")?;
            }
        }
        return Ok(());
    }

    let channels = select_channels(&system, &options)?;
    // In JSON analyze mode the report is the whole stdout document.
    if !(options.analyze && options.json) {
        writeln!(
            out,
            "system `{}`: {} behaviors, {} channels selected",
            system.name,
            system.behaviors.len(),
            channels.len()
        )?;
    }

    let protocol = match options.protocol {
        ProtocolArg::Full => ProtocolKind::FullHandshake,
        ProtocolArg::Half => ProtocolKind::HalfHandshake,
        ProtocolArg::Fixed(n) => ProtocolKind::FixedDelay { cycles: n },
    };

    let mut generator = BusGenerator::new().with_protocol(protocol);
    for c in &options.constraints {
        generator = generator.constraint(resolve_constraint(&system, c)?);
    }

    if options.analyze {
        return analyze_spec(out, &system, channels, protocol, &generator, &options);
    }

    if let Some(csv_path) = &options.explore_csv {
        let exploration = generator.explore(&system, &channels)?;
        std::fs::write(csv_path, exploration.to_csv())
            .map_err(|e| format!("cannot write `{csv_path}`: {e}"))?;
        writeln!(out, "wrote exploration CSV to {csv_path}")?;
        return Ok(());
    }

    if options.explore {
        let exploration = generator.explore(&system, &channels)?;
        writeln!(out, "\nwidth  bus rate  sum ave rates  feasible  cost")?;
        for row in &exploration.rows {
            writeln!(
                out,
                "{:>5}  {:>8.2}  {:>13.2}  {:>8}  {}",
                row.width,
                row.bus_rate,
                row.sum_ave_rates,
                if row.feasible { "yes" } else { "no" },
                row.cost.map(|c| format!("{c:.2}")).unwrap_or_default()
            )?;
        }
        return Ok(());
    }

    if let Some((lo, hi)) = options.sweep_sim {
        return sweep_sim(out, &system, &channels, protocol, &options, lo, hi);
    }

    let design = match options.width {
        Some(w) => BusDesign::with_width(channels, w, protocol),
        None => generator.generate(&system, &channels)?,
    };
    writeln!(
        out,
        "bus: {} data + {} control + {} ID lines = {} wires ({}, reduction {:.1}%)",
        design.width,
        design.control_lines(),
        design.id_bits(),
        design.total_wires(),
        design.protocol,
        100.0 * design.interconnect_reduction(&system)
    )?;

    let refined = build_protocol_generator(&options).refine(&system, &design)?;
    let area = interface_synthesis::estimate::AreaEstimator::new();
    let before = area.estimate_system(&system, 0)?;
    let after = area.estimate_system(&refined.system, design.total_wires())?;
    writeln!(
        out,
        "refinement overhead: +{} controller states, +{} register bits \
         ({:.0} -> {:.0} gate equivalents)",
        after.states.saturating_sub(before.states),
        after.register_bits.saturating_sub(before.register_bits),
        before.gates,
        after.gates
    )?;

    if options.print_vhdl {
        writeln!(out, "\n{}", VhdlPrinter::new().print_refined(&refined))?;
    }

    if let Some(dot_path) = &options.dot {
        let dot = interface_synthesis::vhdl::refined_to_dot(&refined);
        std::fs::write(dot_path, dot).map_err(|e| format!("cannot write `{dot_path}`: {e}"))?;
        writeln!(out, "wrote structure graph to {dot_path}")?;
    }

    if let Some(meta_path) = &options.bus_meta {
        let meta = interface_synthesis::vhdl::bus_metadata_json(&refined);
        std::fs::write(meta_path, meta).map_err(|e| format!("cannot write `{meta_path}`: {e}"))?;
        writeln!(out, "wrote bus metadata to {meta_path}")?;
    }

    if options.check {
        return check_refined(out, &refined, &options);
    }

    let mut config = if options.vcd.is_some() {
        SimConfig::new().with_trace()
    } else {
        SimConfig::new()
    };
    if !options.faults.is_empty() {
        let mut plan = FaultPlan::new();
        for spec in &options.faults {
            plan = add_fault(plan, spec)?;
        }
        // A silent hang under injection is useless; diagnose it instead.
        config = config.with_faults(plan).with_deadlock_detection();
        writeln!(
            out,
            "injecting {} fault(s); deadlock diagnosis on",
            options.faults.len()
        )?;
    }
    // The content-hash cache dedups repeated protocol bodies (the same
    // handshake procedure instantiated per channel) within the run.
    let cache = interface_synthesis::sim::CodeCache::new();
    let report = Simulator::with_config_cached(&refined.system, config, Some(&cache))?
        .run_to_quiescence()?;
    writeln!(
        out,
        "\nsimulation quiescent at t = {} cycles",
        report.time()
    )?;
    for (_, outcome) in report.finished_behaviors() {
        writeln!(
            out,
            "  {:<24} finished at {:>8} cycles",
            outcome.name,
            outcome.finish_time.expect("finished")
        )?;
    }
    let blocked: Vec<&str> = report
        .blocked_behaviors()
        .map(|(_, o)| o.name.as_str())
        .collect();
    if !blocked.is_empty() {
        writeln!(out, "  idle servers: {}", blocked.join(", "))?;
    }

    if !options.faults.is_empty() {
        let injected = report.injected_faults();
        writeln!(out, "  {} fault injection(s) applied", injected.len())?;
        for f in injected.iter().take(10) {
            writeln!(out, "    t = {:>6}  {}: {}", f.time, f.signal, f.effect)?;
        }
        if injected.len() > 10 {
            writeln!(out, "    ... and {} more", injected.len() - 10)?;
        }
        let raised: Vec<String> = refined
            .bus
            .status_flags
            .iter()
            .map(|&(_, sig)| refined.system.signal(sig).name.clone())
            .filter(|n| {
                report.final_signal_by_name(n) == Some(&interface_synthesis::spec::Value::Bit(true))
            })
            .collect();
        if !raised.is_empty() {
            writeln!(out, "  status flags raised: {}", raised.join(", "))?;
        }
    }

    if let Some(vcd_path) = &options.vcd {
        let vcd = interface_synthesis::sim::vcd::to_vcd_string(&refined.system, &report);
        std::fs::write(vcd_path, vcd).map_err(|e| format!("cannot write `{vcd_path}`: {e}"))?;
        writeln!(out, "wrote waveform to {vcd_path}")?;
    }
    Ok(())
}

/// Trace-event budget for `ifsyn analyze` simulations: large enough for
/// every bundled spec at any width (the width-1 FLC trace is ~50k
/// events); the default cap would silently truncate long runs.
const ANALYZE_TRACE_CAP: usize = 2_000_000;

/// `ifsyn analyze SPEC`: synthesize, simulate with tracing, and run the
/// bus analyzer over the in-memory trace.
fn analyze_spec(
    out: &mut impl Write,
    system: &System,
    channels: Vec<ChannelId>,
    protocol: ProtocolKind,
    generator: &BusGenerator,
    options: &Options,
) -> Result<(), Box<dyn Error>> {
    use interface_synthesis::analyze::{analyze_report, BusMeta};

    let design = match options.width {
        Some(w) => BusDesign::with_width(channels, w, protocol),
        None => generator.generate(system, &channels)?,
    };
    let refined = build_protocol_generator(options).refine(system, &design)?;
    if !options.json {
        writeln!(
            out,
            "bus: {} data + {} control + {} ID lines = {} wires ({})",
            design.width,
            design.control_lines(),
            design.id_bits(),
            design.total_wires(),
            design.protocol,
        )?;
    }
    let config = SimConfig::new()
        .with_trace()
        .with_max_trace_events(ANALYZE_TRACE_CAP);
    let report = Simulator::with_config(&refined.system, config)?.run_to_quiescence()?;
    let meta = BusMeta::from_refined(&refined);
    let analysis = analyze_report(&refined.system, &report, &meta)?;
    if let Some(meta_path) = &options.bus_meta {
        let sidecar = interface_synthesis::vhdl::bus_metadata_json(&refined);
        std::fs::write(meta_path, sidecar)
            .map_err(|e| format!("cannot write `{meta_path}`: {e}"))?;
        if !options.json {
            writeln!(out, "wrote bus metadata to {meta_path}")?;
        }
    }
    if let Some(vcd_path) = &options.vcd {
        let vcd = interface_synthesis::sim::vcd::to_vcd_string(&refined.system, &report);
        std::fs::write(vcd_path, vcd).map_err(|e| format!("cannot write `{vcd_path}`: {e}"))?;
        if !options.json {
            writeln!(out, "wrote waveform to {vcd_path}")?;
        }
    }
    if options.json {
        write!(out, "{}", analysis.to_json())?;
    } else {
        write!(out, "\n{}", analysis.render())?;
    }
    Ok(())
}

/// `ifsyn analyze --from-vcd FILE --meta FILE`: run the analyzer over a
/// waveform written by `--vcd` and its `--bus-meta` sidecar, with no
/// re-synthesis or simulation.
fn analyze_offline(out: &mut impl Write, options: &Options) -> Result<(), Box<dyn Error>> {
    use interface_synthesis::analyze::{analyze_vcd, BusMeta};

    let vcd_path = options.from_vcd.as_deref().expect("checked by caller");
    let meta_path = options
        .meta
        .as_deref()
        .ok_or("analyze --from-vcd requires --meta FILE (written by --bus-meta)")?;
    let vcd_text =
        std::fs::read_to_string(vcd_path).map_err(|e| format!("cannot read `{vcd_path}`: {e}"))?;
    let meta_text = std::fs::read_to_string(meta_path)
        .map_err(|e| format!("cannot read `{meta_path}`: {e}"))?;
    let meta = BusMeta::from_json(&meta_text)?;
    let analysis = analyze_vcd(&vcd_text, &meta)?;
    if options.json {
        write!(out, "{}", analysis.to_json())?;
    } else {
        write!(out, "{}", analysis.render())?;
    }
    Ok(())
}

/// Builds the protocol generator the CLI options describe.
fn build_protocol_generator(options: &Options) -> ProtocolGenerator {
    let mut pg = ProtocolGenerator::new();
    if options.no_arbitration {
        pg = pg.without_arbitration();
    }
    if options.rolled {
        pg = pg.with_rolled_word_loops();
    }
    if let Some((watchdog, retries)) = options.protocol_timeout {
        pg = pg.with_timeout(watchdog);
        if let Some(r) = retries {
            pg = pg.with_retry_limit(r);
        }
    }
    if options.integrity {
        pg = pg.with_integrity();
    }
    pg
}

/// `--check`: exhaustively explores every process interleaving of the
/// refined system — and every in-budget strike pattern of the
/// `--check-fault` environment — then verifies the bus property catalog
/// (`RefinedSystem::check_bus_properties`): grant mutual exclusion in
/// every state, completion-or-flag in every quiescent state, and
/// (fault-free only) eventual grant of every pending bus request.
/// Returns an error, and thus a nonzero exit, on any violation, printing
/// the counterexample trace.
fn check_refined(
    out: &mut impl Write,
    refined: &interface_synthesis::core::RefinedSystem,
    options: &Options,
) -> Result<(), Box<dyn Error>> {
    use interface_synthesis::sim::{CheckConfig, Checker, Verdict};

    let mut config = CheckConfig::new();
    for spec in &options.check_faults {
        config = config.with_fault(parse_check_fault(spec)?);
    }
    if let Some(limit) = options.check_limit {
        config = config.with_state_limit(limit);
    }
    if options.check_no_por {
        config = config.without_por();
    }
    if !options.check_faults.is_empty() {
        writeln!(
            out,
            "checking under an adversarial environment of {} fault(s)",
            options.check_faults.len()
        )?;
    }
    // Fixed-delay transfers rely on timing that the interleaving
    // semantics drops: the checker may run a receiver before the sender's
    // delay has elapsed, which the clocked kernel never does.
    if let ProtocolKind::FixedDelay { .. } = refined.bus.design.protocol {
        writeln!(
            out,
            "note: the checker is untimed, so a fixed-delay counterexample may be \
             a schedule the clocked simulation kernel cannot run"
        )?;
    }
    let checker = Checker::with_config(&refined.system, config)?;
    let space = checker.explore().map_err(explain_check_error)?;
    writeln!(
        out,
        "\nexplored {} states, {} transitions, {} terminal(s), {} runtime error path(s)",
        space.state_count(),
        space.transition_count(),
        space.terminal_count(),
        space.error_count()
    )?;
    let stats = space.stats();
    writeln!(
        out,
        "  peak frontier {}, {} dedup hit(s), {} ample / {} fully expanded state(s)",
        stats.peak_frontier, stats.dedup_hits, stats.ample_states, stats.full_states
    )?;
    if let Some(b) = space.bounded() {
        writeln!(
            out,
            "  state limit {} reached: {} frontier state(s) left unexplored; \
             verdicts below are bounded",
            b.limit, b.frontier
        )?;
    }
    match space.worst_cost_to_quiescence() {
        Some(w) => writeln!(out, "worst-case completion over every schedule: {w} cycles")?,
        None if space.bounded().is_some() => writeln!(
            out,
            "worst-case completion: unknown (exploration was bounded)"
        )?,
        None => writeln!(
            out,
            "worst-case completion: unbounded (a reachable cycle exists)"
        )?,
    }

    let reports: Vec<_> = refined
        .check_bus_properties(&space, None)
        .into_iter()
        .map(|c| c.report)
        .collect();
    for rep in &reports {
        writeln!(out, "{rep}")?;
    }
    let failures = reports
        .iter()
        .filter(|r| r.verdict == Verdict::Fail)
        .count();
    if failures > 0 {
        return Err(format!(
            "{failures} of {} propert{} violated",
            reports.len(),
            if reports.len() == 1 { "y" } else { "ies" }
        )
        .into());
    }
    if space.bounded().is_some() {
        writeln!(
            out,
            "all {} propert{} hold on every explored schedule (bounded run)",
            reports.len(),
            if reports.len() == 1 { "y" } else { "ies" }
        )?;
    } else {
        writeln!(
            out,
            "all {} propert{} hold on every schedule",
            reports.len(),
            if reports.len() == 1 { "y" } else { "ies" }
        )?;
    }
    Ok(())
}

/// Turns an exploration error into the CLI's message: the checker's
/// state cap is a capacity limit, and `--check-limit` is how a CLI user
/// lifts it.
fn explain_check_error(e: SimError) -> Box<dyn Error> {
    match e {
        SimError::StateCapExceeded { .. } => format!(
            "{e}; --check-limit STATES lifts the cap and stops exploring \
             after STATES states instead"
        )
        .into(),
        e => e.into(),
    }
}

/// Parses a `--check-fault` SPEC: `stuck0:SIG` or `flip:SIG:BIT[:BUDGET]`.
/// The checker's environment faults carry budgets, not schedule times —
/// exploration tries every legal strike point — so the grammar is
/// narrower than `--fault`'s.
fn parse_check_fault(spec: &str) -> Result<interface_synthesis::sim::EnvFault, Box<dyn Error>> {
    use interface_synthesis::sim::EnvFault;
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("check fault `{spec}` needs a kind prefix, e.g. stuck0:SIG"))?;
    match kind {
        "stuck0" => Ok(EnvFault::StuckLow {
            signal: rest.to_string(),
        }),
        "flip" => {
            let (sig, bit_budget) = rest
                .split_once(':')
                .ok_or("flip check fault expects flip:SIG:BIT[:BUDGET]")?;
            let (bit, budget) = match bit_budget.split_once(':') {
                Some((b, n)) => (b.parse()?, n.parse()?),
                None => (bit_budget.parse()?, 1),
            };
            Ok(EnvFault::FlipBit {
                signal: sig.to_string(),
                bit,
                budget,
            })
        }
        other => Err(format!("unknown check fault kind `{other}`; expected stuck0 | flip").into()),
    }
}

/// `--sweep-sim LO-HI`: refine the system at every bus width in the
/// range and simulate the whole batch in parallel with shared compiled
/// code, printing one finish-time row per width.
fn sweep_sim(
    out: &mut impl Write,
    system: &System,
    channels: &[ChannelId],
    protocol: ProtocolKind,
    options: &Options,
    lo: u32,
    hi: u32,
) -> Result<(), Box<dyn Error>> {
    use interface_synthesis::bench::batch::BatchRunner;

    let pg = build_protocol_generator(options);
    let mut systems = Vec::new();
    for width in lo..=hi {
        let design = BusDesign::with_width(channels.to_vec(), width, protocol);
        systems.push(pg.refine(system, &design)?.system);
    }
    let runner = BatchRunner::new().with_jobs(options.jobs);
    writeln!(
        out,
        "\nbatch-simulating widths {lo}..={hi} over {} worker(s)",
        runner.jobs().min(systems.len().max(1)),
    )?;
    let reports = runner.run(&systems);
    writeln!(out, "\nwidth  quiescent at  instrs executed")?;
    for (width, report) in (lo..=hi).zip(&reports) {
        match report {
            Ok(r) => writeln!(
                out,
                "{:>5}  {:>12}  {:>15}",
                width,
                r.time(),
                r.total_instrs()
            )?,
            Err(e) => writeln!(out, "{width:>5}  failed: {e}")?,
        }
    }
    writeln!(
        out,
        "\n{} distinct code block(s) compiled for {} run(s)",
        runner.cached_blocks(),
        systems.len()
    )?;
    Ok(())
}

fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<Options, Box<dyn Error>> {
    let mut o = Options::default();
    while let Some(arg) = args.next() {
        let mut value_of = |name: &str| -> Result<String, Box<dyn Error>> {
            args.next()
                .ok_or_else(|| format!("{name} requires a value").into())
        };
        match arg.as_str() {
            "--channels" => {
                o.channels = Some(
                    value_of("--channels")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--width" => {
                let w = value_of("--width")?.parse()?;
                if w == 0 {
                    return Err("--width must be at least 1".into());
                }
                o.width = Some(w);
            }
            "--protocol" => {
                let v = value_of("--protocol")?;
                o.protocol = match v.as_str() {
                    "full" => ProtocolArg::Full,
                    "half" => ProtocolArg::Half,
                    other => match other.strip_prefix("fixed:") {
                        Some(n) => ProtocolArg::Fixed(n.parse()?),
                        None => return Err(format!("unknown protocol `{other}`").into()),
                    },
                };
            }
            "--min-width" => {
                let (n, w) = split_weight(&value_of("--min-width")?)?;
                o.constraints.push(ConstraintArg::MinWidth(n.parse()?, w));
            }
            "--max-width" => {
                let (n, w) = split_weight(&value_of("--max-width")?)?;
                o.constraints.push(ConstraintArg::MaxWidth(n.parse()?, w));
            }
            "--min-peak" => {
                let v = value_of("--min-peak")?;
                let (chan_rate, weight) = split_weight(&v)?;
                let (chan, rate) = chan_rate
                    .split_once('=')
                    .ok_or("--min-peak expects CH=RATE[:WEIGHT]")?;
                o.constraints.push(ConstraintArg::MinPeak(
                    chan.to_string(),
                    rate.parse()?,
                    weight,
                ));
            }
            "--derive-channels" => o.derive_channels = true,
            "--no-arbitration" => o.no_arbitration = true,
            "--rolled" => o.rolled = true,
            "--protocol-timeout" => {
                let v = value_of("--protocol-timeout")?;
                o.protocol_timeout = Some(match v.split_once(':') {
                    Some((w, r)) => (w.parse()?, Some(r.parse()?)),
                    None => (v.parse()?, None),
                });
            }
            "--integrity" => o.integrity = true,
            "--fault" => o.faults.push(value_of("--fault")?),
            "--check" => o.check = true,
            "--check-fault" => o.check_faults.push(value_of("--check-fault")?),
            "--check-limit" => o.check_limit = Some(value_of("--check-limit")?.parse()?),
            "--check-no-por" => o.check_no_por = true,
            "--print-vhdl" => o.print_vhdl = true,
            "--vcd" => o.vcd = Some(value_of("--vcd")?),
            "--bus-meta" => o.bus_meta = Some(value_of("--bus-meta")?),
            "--dot" => o.dot = Some(value_of("--dot")?),
            "--from-vcd" => o.from_vcd = Some(value_of("--from-vcd")?),
            "--meta" => o.meta = Some(value_of("--meta")?),
            "--json" => o.json = true,
            "analyze" if !o.analyze && o.spec_path.is_none() => o.analyze = true,
            "--explore" => o.explore = true,
            "--explore-csv" => o.explore_csv = Some(value_of("--explore-csv")?),
            "--lint" => o.lint = true,
            "--sweep-sim" => {
                let v = value_of("--sweep-sim")?;
                let (lo, hi) = v.split_once('-').ok_or("--sweep-sim expects LO-HI")?;
                let (lo, hi) = (lo.parse()?, hi.parse()?);
                if lo == 0 || hi < lo {
                    return Err(format!("--sweep-sim range `{v}` is empty").into());
                }
                o.sweep_sim = Some((lo, hi));
            }
            "--jobs" => o.jobs = value_of("--jobs")?.parse()?,
            other if !other.starts_with('-') && o.spec_path.is_none() => {
                o.spec_path = Some(other.to_string())
            }
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }
    Ok(o)
}

/// Splits `VALUE[:WEIGHT]`, defaulting the weight to 1.0.
fn split_weight(s: &str) -> Result<(String, f64), Box<dyn Error>> {
    match s.rsplit_once(':') {
        Some((v, w)) => Ok((v.to_string(), w.parse()?)),
        None => Ok((s.to_string(), 1.0)),
    }
}

/// Parses a `--fault` SPEC (see the module docs) into the plan.
fn add_fault(plan: FaultPlan, spec: &str) -> Result<FaultPlan, Box<dyn Error>> {
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("fault spec `{spec}` needs a kind prefix, e.g. stuck0:SIG"))?;
    match kind {
        "stuck0" | "stuck1" => {
            let (sig, window) = split_window(rest);
            let (from, until) = parse_window(window)?;
            Ok(if kind == "stuck0" {
                plan.stuck_at_0(sig, from, until)
            } else {
                plan.stuck_at_1(sig, from, until)
            })
        }
        "flip" => {
            let (sig, bit_at) = rest
                .split_once(':')
                .ok_or("flip fault expects flip:SIG:BIT@T")?;
            let (bit, at) = bit_at
                .split_once('@')
                .ok_or("flip fault expects flip:SIG:BIT@T")?;
            Ok(plan.flip_bit(sig, bit.parse()?, at.parse()?))
        }
        "drop" => {
            let (sig, window) = split_window(rest);
            let (from, until) = parse_window(window)?;
            Ok(plan.drop_writes(sig, from, until))
        }
        "delay" => {
            let (sig, cycles_window) = rest
                .split_once(':')
                .ok_or("delay fault expects delay:SIG:CYCLES@FROM[-UNTIL]")?;
            let (cycles, window) = split_window(cycles_window);
            let (from, until) = parse_window(window)?;
            Ok(plan.delay_writes(sig, cycles.parse()?, from, until))
        }
        other => Err(format!(
            "unknown fault kind `{other}`; expected stuck0 | stuck1 | flip | drop | delay"
        )
        .into()),
    }
}

/// Splits `HEAD[@WINDOW]` into the head and the optional window text.
fn split_window(s: &str) -> (&str, Option<&str>) {
    match s.split_once('@') {
        Some((head, w)) => (head, Some(w)),
        None => (s, None),
    }
}

/// Parses `FROM[-UNTIL]`; a missing window means `[0, ∞)`.
fn parse_window(w: Option<&str>) -> Result<(u64, Option<u64>), Box<dyn Error>> {
    match w {
        None => Ok((0, None)),
        Some(s) => match s.split_once('-') {
            Some((f, u)) => Ok((f.parse()?, Some(u.parse()?))),
            None => Ok((s.parse()?, None)),
        },
    }
}

fn select_channels(system: &System, options: &Options) -> Result<Vec<ChannelId>, Box<dyn Error>> {
    match &options.channels {
        None => Ok(system.channel_ids().collect()),
        Some(names) => names
            .iter()
            .map(|n| {
                system
                    .channel_by_name(n)
                    .ok_or_else(|| format!("unknown channel `{n}`").into())
            })
            .collect(),
    }
}

fn resolve_constraint(system: &System, arg: &ConstraintArg) -> Result<Constraint, Box<dyn Error>> {
    Ok(match arg {
        ConstraintArg::MinWidth(n, w) => Constraint::min_bus_width(*n, *w),
        ConstraintArg::MaxWidth(n, w) => Constraint::max_bus_width(*n, *w),
        ConstraintArg::MinPeak(name, rate, w) => {
            let ch = system
                .channel_by_name(name)
                .ok_or_else(|| format!("unknown channel `{name}` in --min-peak"))?;
            Constraint::min_peak_rate(ch, *rate, *w)
        }
    })
}

// A tiny self-check so `cargo test` covers the argument parser without
// spawning processes.
#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        parse_args(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_typical_invocation() {
        let o = parse(&[
            "flc.ifs",
            "--channels",
            "ch1,ch2",
            "--width",
            "16",
            "--protocol",
            "fixed:3",
            "--vcd",
            "out.vcd",
            "--print-vhdl",
        ]);
        assert_eq!(o.spec_path.as_deref(), Some("flc.ifs"));
        assert_eq!(
            o.channels.as_deref(),
            Some(&["ch1".to_string(), "ch2".to_string()][..])
        );
        assert_eq!(o.width, Some(16));
        assert!(matches!(o.protocol, ProtocolArg::Fixed(3)));
        assert!(o.print_vhdl);
        assert_eq!(o.vcd.as_deref(), Some("out.vcd"));
    }

    #[test]
    fn parses_constraints_with_weights() {
        let o = parse(&["s.ifs", "--min-width", "14:5", "--min-peak", "ch2=10:2.5"]);
        assert_eq!(o.constraints.len(), 2);
        assert!(matches!(o.constraints[0], ConstraintArg::MinWidth(14, w) if w == 5.0));
        assert!(matches!(&o.constraints[1], ConstraintArg::MinPeak(c, r, w)
                if c == "ch2" && *r == 10.0 && *w == 2.5));
    }

    #[test]
    fn parses_sweep_sim_and_jobs() {
        let o = parse(&["s.ifs", "--sweep-sim", "1-30", "--jobs", "4"]);
        assert_eq!(o.sweep_sim, Some((1, 30)));
        assert_eq!(o.jobs, 4);
        // Unset jobs means automatic.
        assert_eq!(parse(&["s.ifs"]).jobs, 0);
        for bad in ["30", "0-4", "9-3"] {
            assert!(
                parse_args(["s.ifs", "--sweep-sim", bad].map(String::from).into_iter()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn rejects_zero_width() {
        for args in [
            &["s.ifs", "--width", "0"][..],
            &["analyze", "s.ifs", "--width", "0"][..],
        ] {
            let err = parse_args(args.iter().map(|s| s.to_string()))
                .expect_err("a zero width must be rejected");
            assert!(err.to_string().contains("--width"), "{err}");
        }
    }

    #[test]
    fn parses_analyze_subcommand() {
        let o = parse(&["analyze", "flc.ifs", "--width", "8", "--json"]);
        assert!(o.analyze);
        assert_eq!(o.spec_path.as_deref(), Some("flc.ifs"));
        assert_eq!(o.width, Some(8));
        assert!(o.json);
        // Offline mode: VCD plus sidecar, no spec.
        let o = parse(&["analyze", "--from-vcd", "w.vcd", "--meta", "w.meta.json"]);
        assert!(o.analyze);
        assert!(o.spec_path.is_none());
        assert_eq!(o.from_vcd.as_deref(), Some("w.vcd"));
        assert_eq!(o.meta.as_deref(), Some("w.meta.json"));
        // `analyze` is only a subcommand before the spec path; after one
        // it is neither a flag nor a second path.
        assert!(parse_args(["spec.ifs", "analyze"].map(String::from).into_iter()).is_err());
    }

    #[test]
    fn parses_bus_meta_sidecar_flag() {
        let o = parse(&["s.ifs", "--vcd", "w.vcd", "--bus-meta", "w.meta.json"]);
        assert_eq!(o.bus_meta.as_deref(), Some("w.meta.json"));
        assert!(!parse(&["s.ifs"]).json);
    }

    #[test]
    fn rejects_unknown_flags() {
        for args in [
            &["--frob"][..],
            &["s.ifs", "--lockstep"][..],
            &["s.ifs", "--sim-threads", "2"][..],
            &["s.ifs", "--check-threads", "2"][..],
            &["s.ifs", "--check-bitstate", "12"][..],
        ] {
            assert!(
                parse_args(args.iter().map(|s| s.to_string())).is_err(),
                "{args:?}"
            );
        }
    }

    #[test]
    fn parses_check_mode_and_check_faults() {
        let o = parse(&[
            "s.ifs",
            "--integrity",
            "--check",
            "--check-fault",
            "stuck0:B_DONE",
            "--check-fault",
            "flip:B_DATA:2",
        ]);
        assert!(o.integrity);
        assert!(o.check);
        assert_eq!(o.check_faults, ["stuck0:B_DONE", "flip:B_DATA:2"]);
        // Off by default, so the fault-free simulation path is untouched.
        let o = parse(&["s.ifs"]);
        assert!(!o.check && !o.integrity && o.check_faults.is_empty());
    }

    #[test]
    fn parses_check_scaling_flags() {
        let o = parse(&[
            "s.ifs",
            "--check",
            "--check-limit",
            "500000",
            "--check-no-por",
        ]);
        assert_eq!(o.check_limit, Some(500_000));
        assert!(o.check_no_por);
        // Defaults: POR exploration, unbounded.
        let o = parse(&["s.ifs", "--check"]);
        assert_eq!(o.check_limit, None);
        assert!(!o.check_no_por);
    }

    #[test]
    fn state_cap_error_points_at_check_limit() {
        let e = explain_check_error(SimError::StateCapExceeded {
            max_states: 262_144,
        });
        assert_eq!(
            e.to_string(),
            "reachable state space exceeds 262144 states; --check-limit STATES \
             lifts the cap and stops exploring after STATES states instead"
        );
        let e = explain_check_error(SimError::eval("index 5 out of range"));
        assert_eq!(e.to_string(), "evaluation error: index 5 out of range");
    }

    #[test]
    fn parses_check_fault_specs() {
        use interface_synthesis::sim::EnvFault;
        assert_eq!(
            parse_check_fault("stuck0:B_DONE").unwrap(),
            EnvFault::StuckLow {
                signal: "B_DONE".into()
            }
        );
        assert_eq!(
            parse_check_fault("flip:B_DATA:2").unwrap(),
            EnvFault::FlipBit {
                signal: "B_DATA".into(),
                bit: 2,
                budget: 1
            }
        );
        assert_eq!(
            parse_check_fault("flip:B_DATA:0:3").unwrap(),
            EnvFault::FlipBit {
                signal: "B_DATA".into(),
                bit: 0,
                budget: 3
            }
        );
        for bad in ["B_DONE", "stuck1:B_DONE", "flip:B_DATA"] {
            assert!(parse_check_fault(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_protocol_timeout_with_and_without_retries() {
        let o = parse(&["s.ifs", "--protocol-timeout", "20"]);
        assert_eq!(o.protocol_timeout, Some((20, None)));
        let o = parse(&["s.ifs", "--protocol-timeout", "20:5"]);
        assert_eq!(o.protocol_timeout, Some((20, Some(5))));
    }

    #[test]
    fn collects_repeated_fault_flags() {
        let o = parse(&[
            "s.ifs",
            "--fault",
            "stuck0:B_DONE",
            "--fault",
            "flip:B_DATA:3@17",
        ]);
        assert_eq!(o.faults.len(), 2);
    }

    #[test]
    fn fault_specs_parse_into_a_plan() {
        let mut plan = FaultPlan::new();
        for spec in [
            "stuck0:B_DONE",
            "stuck1:B_START@5",
            "stuck0:B_DONE@5-20",
            "flip:B_DATA:3@17",
            "drop:B_DONE@4-40",
            "delay:B_START:2@0-60",
            "delay:B_START:2",
        ] {
            plan = add_fault(plan, spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        }
        assert_eq!(plan.faults.len(), 7);
    }

    #[test]
    fn bad_fault_specs_are_rejected() {
        for spec in ["B_DONE", "wedge:B_DONE", "flip:B_DATA", "stuck0:S@x"] {
            assert!(add_fault(FaultPlan::new(), spec).is_err(), "{spec}");
        }
    }
}
