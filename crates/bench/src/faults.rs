//! Fault campaign: plain vs timeout-hardened vs integrity-protected
//! handshakes under injection.
//!
//! Runs the FLC shared-bus system and the Fig. 3 worked example under a
//! deterministic fault matrix (stuck-at control lines, transient bit
//! flips, dropped and delayed writes on the bus wires), each with three
//! protocol variants: the plain full handshake, the timeout-hardened
//! variant (`ProtocolGenerator::with_timeout`), and the
//! integrity-protected variant (`ProtocolGenerator::with_integrity`),
//! which appends a position-weighted checksum word to every word run and
//! retransmits on mismatch. Every run is classified:
//!
//! * `completed` — all client processes finished and the transferred
//!   data checks out;
//! * `corrupt` — the processes finished but a checksum or memory check
//!   failed (the fault silently damaged data);
//! * `aborted` — a hardened client gave up cleanly: its sticky
//!   `*_STAT_*` flag is raised and the run still reached quiescence;
//! * `deadlock` — the structured [`ifsyn_sim::DeadlockDiagnosis`] fired,
//!   naming the blocked process and the wait it hangs on;
//! * `timeout` — the run hit the simulation horizon without quiescing.
//!
//! A row that ends `corrupt` without any raised flag is a *silent
//! corruption*, marked `"silent": true` in the JSON. For the protected
//! variant that violates the integrity contract (deliver intact data or
//! abort flagged) and [`FaultData::silent_corruptions`] reports it so
//! `experiments faults` exits nonzero; plain and hardened rows are
//! exempt — neither carries check words, so their corruption under
//! `data_flip` is precisely the recorded baseline the protected variant
//! is measured against.
//!
//! The headline results: a stuck-at-0 `B_DONE` deadlocks the plain
//! protocol with a diagnosis naming the waiting client while the
//! hardened protocol aborts within its watchdog-derived bound; and the
//! `data_flip` / `done_drop_window` scenarios that silently corrupt the
//! plain and hardened protocols end clean (completed with intact data,
//! or flagged abort) under the protected variant, at a measured time and
//! traffic overhead. Serialization is hand-rolled JSON (offline build,
//! no serde), written to `BENCH_faults.json`.

use ifsyn_core::{BusDesign, ProtocolGenerator, ProtocolKind, RefinedSystem, WordPlan};
use ifsyn_sim::{FaultPlan, SimConfig, SimError, Simulator};
use ifsyn_spec::Value;
use ifsyn_systems::{fig3, flc};

use crate::emit::{json_opt, json_str};
use crate::table::Table;

/// Watchdog bound (cycles per `wait until`) used by the hardened runs.
pub const WATCHDOG: u64 = 16;
/// Retry budget used by the hardened runs.
pub const RETRIES: u32 = 3;
/// Simulation horizon for campaign runs.
const MAX_TIME: u64 = 500_000;

/// Which protocol variant a campaign row exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Unhardened full handshake (unbounded waits, no flags).
    Plain,
    /// Timeout-hardened handshake (PR 2): watchdogs, bounded word
    /// retries, sticky abort flags.
    Hardened,
    /// Integrity-protected handshake: hardening plus checksum words and
    /// bounded message retransmission.
    Protected,
}

impl Variant {
    /// All variants, in campaign order.
    pub const ALL: [Variant; 3] = [Variant::Plain, Variant::Hardened, Variant::Protected];

    /// The name used in tables and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Variant::Plain => "plain",
            Variant::Hardened => "hardened",
            Variant::Protected => "protected",
        }
    }
}

/// One (system, fault scenario, protocol variant) run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRow {
    /// Which system: `"flc@16"` or `"fig3@8"`.
    pub system: String,
    /// Fault scenario name (`"none"`, `"done_stuck_at_0"`, ...).
    pub scenario: String,
    /// Protocol variant of this run.
    pub variant: Variant,
    /// Classification (see module docs).
    pub outcome: String,
    /// Quiescence time when the run completed or aborted.
    pub finish_time: Option<u64>,
    /// Faults the kernel actually applied.
    pub injected: usize,
    /// Names of raised per-channel status flags.
    pub flags_raised: Vec<String>,
    /// For deadlocks: the first blocked non-repeating process and the
    /// wait it is suspended on.
    pub diagnosis: Option<String>,
    /// For hardened/protected runs: the a-priori completion bound in
    /// cycles (fault-free time + worst-case retry overhead).
    pub bound: Option<u64>,
    /// Total handshake words this variant moves fault-free (traffic).
    pub words: u64,
}

impl FaultRow {
    /// `true` when a hardened run stayed within its completion bound.
    pub fn within_bound(&self) -> bool {
        match (self.finish_time, self.bound) {
            (Some(t), Some(b)) => t <= b,
            _ => true,
        }
    }

    /// `true` when this run damaged data without raising any flag.
    pub fn silent_corrupt(&self) -> bool {
        self.outcome == "corrupt" && self.flags_raised.is_empty()
    }
}

/// The whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultData {
    /// One row per (system, scenario, variant).
    pub rows: Vec<FaultRow>,
}

impl FaultData {
    /// Rows demonstrating the PR 2 acceptance criterion: the plain
    /// protocol deadlocks with a diagnosis while the hardened one
    /// completes or aborts within its bound, for the same system and
    /// scenario.
    pub fn rescued_pairs(&self) -> Vec<(&FaultRow, &FaultRow)> {
        let mut out = Vec::new();
        for plain in self.rows.iter().filter(|r| r.variant == Variant::Plain) {
            if plain.outcome != "deadlock" || plain.diagnosis.is_none() {
                continue;
            }
            if let Some(hard) = self.rows.iter().find(|r| {
                r.variant == Variant::Hardened
                    && r.system == plain.system
                    && r.scenario == plain.scenario
            }) {
                let clean = matches!(hard.outcome.as_str(), "completed" | "aborted" | "corrupt");
                if clean && hard.within_bound() {
                    out.push((plain, hard));
                }
            }
        }
        out
    }

    /// Integrity regressions: protected-variant rows that finished
    /// `corrupt` without raising any flag, violating the integrity
    /// contract (a protected transfer either delivers intact data or
    /// aborts with its sticky flag raised). Plain and hardened rows are
    /// exempt — neither carries check words, so their `data_flip`
    /// corruption is the recorded baseline, marked `"silent": true` in
    /// the JSON rather than gated. `experiments faults` exits nonzero
    /// when this is nonempty.
    pub fn silent_corruptions(&self) -> Vec<&FaultRow> {
        self.rows
            .iter()
            .filter(|r| r.variant == Variant::Protected && r.silent_corrupt())
            .collect()
    }

    /// Scenarios the protected variant rescues from corruption: the
    /// plain or hardened run ends `corrupt` while the protected run on
    /// the same system/scenario ends `completed` or flagged-`aborted`.
    pub fn integrity_rescues(&self) -> Vec<(&FaultRow, &FaultRow)> {
        let mut out = Vec::new();
        for prot in self.rows.iter().filter(|r| r.variant == Variant::Protected) {
            let clean = prot.outcome == "completed"
                || (prot.outcome == "aborted" && !prot.flags_raised.is_empty());
            if !clean {
                continue;
            }
            if let Some(broken) = self.rows.iter().find(|r| {
                r.variant != Variant::Protected
                    && r.system == prot.system
                    && r.scenario == prot.scenario
                    && r.outcome == "corrupt"
            }) {
                out.push((broken, prot));
            }
        }
        out
    }

    /// Fault-free time/traffic overhead of `variant` vs hardened, per
    /// system: `(system, hardened row, variant row)`.
    pub fn overhead_vs_hardened(&self, variant: Variant) -> Vec<(&FaultRow, &FaultRow)> {
        let mut out = Vec::new();
        for hard in self
            .rows
            .iter()
            .filter(|r| r.variant == Variant::Hardened && r.scenario == "none")
        {
            if let Some(v) = self
                .rows
                .iter()
                .find(|r| r.variant == variant && r.scenario == "none" && r.system == hard.system)
            {
                out.push((hard, v));
            }
        }
        out
    }
}

/// The fault matrix, applied identically to both systems. The bus is
/// named `B`, so the control wires are `B_START`/`B_DONE` and the data
/// wire `B_DATA` regardless of system.
fn fault_matrix() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::new()),
        (
            "done_stuck_at_0",
            FaultPlan::new().stuck_at_0("B_DONE", 0, None),
        ),
        (
            "done_transient_flips",
            FaultPlan::new().seeded_flips("B_DONE", 1, 4, 5, 200, 0x5EED),
        ),
        (
            "done_drop_window",
            FaultPlan::new().drop_writes("B_DONE", 4, Some(40)),
        ),
        (
            "start_delayed",
            FaultPlan::new().delay_writes("B_START", 3, 0, Some(60)),
        ),
        ("data_flip", FaultPlan::new().flip_bit("B_DATA", 2, 9)),
    ]
}

/// The generator configured for a protocol variant (shared with the
/// model-checking campaign and the checker differential suite so all of
/// them exercise identical refinements).
pub fn generator(variant: Variant) -> ProtocolGenerator {
    let g = ProtocolGenerator::new();
    match variant {
        Variant::Plain => g,
        Variant::Hardened => g.with_timeout(WATCHDOG).with_retry_limit(RETRIES),
        Variant::Protected => g
            .with_timeout(WATCHDOG)
            .with_retry_limit(RETRIES)
            .with_integrity(),
    }
}

/// Worst-case extra cycles hardening can spend on `words` handshake
/// words: every word may burn its full retry budget. One attempt costs
/// at most `2 * WATCHDOG + 2` cycles (two bounded waits plus two
/// drives), and a word is attempted `RETRIES + 1` times.
fn retry_overhead(words: u64) -> u64 {
    words * u64::from(RETRIES + 1) * (2 * WATCHDOG + 2)
}

/// Total fault-free handshake words the campaign system moves under
/// `variant`, counting every access of every bus channel and the check
/// words the protected variant adds ([`WordPlan::for_refinement`]).
fn campaign_words(refined: &RefinedSystem, variant: Variant) -> u64 {
    let width = refined.bus.design.width;
    refined
        .bus
        .design
        .channels
        .iter()
        .map(|&c| {
            let ch = refined.system.channel(c);
            let (plan, checks) = WordPlan::for_refinement(ch, width, variant == Variant::Protected);
            u64::from(plan.word_count() + checks) * ch.accesses
        })
        .sum()
}

/// A-priori completion bound for a variant (`None` for plain, whose
/// waits are unbounded). A hardened word is attempted `RETRIES + 1`
/// times; a protected *message* is additionally retransmitted up to
/// `RETRIES + 1` times, multiplying the per-word worst case.
fn variant_bound(refined: &RefinedSystem, variant: Variant, words: u64) -> Option<u64> {
    match variant {
        Variant::Plain => None,
        Variant::Hardened => Some(fault_free_time(refined) + retry_overhead(words)),
        Variant::Protected => {
            Some(fault_free_time(refined) + u64::from(RETRIES + 1) * retry_overhead(words))
        }
    }
}

/// One line naming every blocked process and the wait it hangs on.
fn summarize_blocked(d: &ifsyn_sim::DeadlockDiagnosis) -> Option<String> {
    if d.blocked.is_empty() {
        return None;
    }
    let parts: Vec<String> = d
        .blocked
        .iter()
        .map(|b| format!("`{}` suspended on {}", b.behavior, b.wait))
        .collect();
    Some(parts.join("; "))
}

/// Sums an integer array value (for memory checksum checks).
fn array_sum(v: &Value) -> i64 {
    match v {
        Value::Array(items) => items.iter().filter_map(|x| x.as_i64().ok()).sum(),
        other => other.as_i64().unwrap_or(0),
    }
}

struct RunOutput {
    outcome: String,
    finish_time: Option<u64>,
    injected: usize,
    flags_raised: Vec<String>,
    diagnosis: Option<String>,
}

/// Runs one refined system under `plan` and classifies the result.
/// `data_ok` inspects the final report when every process finished.
fn classify(
    refined: &RefinedSystem,
    plan: &FaultPlan,
    data_ok: impl Fn(&ifsyn_sim::SimReport) -> bool,
) -> RunOutput {
    let config = SimConfig::new()
        .with_max_time(MAX_TIME)
        .with_faults(plan.clone())
        .with_deadlock_detection();
    let flag_names: Vec<String> = refined
        .bus
        .status_flags
        .iter()
        .map(|&(_, sig)| refined.system.signal(sig).name.clone())
        .collect();
    let result = Simulator::with_config(&refined.system, config)
        .expect("campaign sim setup")
        .run_to_quiescence();
    match result {
        Ok(report) => {
            let raised: Vec<String> = flag_names
                .into_iter()
                .filter(|n| report.final_signal_by_name(n) == Some(&Value::Bit(true)))
                .collect();
            let outcome = if !raised.is_empty() {
                "aborted"
            } else if report.blocked_at_exit() > 0 {
                // Deadlock detection is on, so this only happens when a
                // process is blocked but still repeating.
                "blocked"
            } else if data_ok(&report) {
                "completed"
            } else {
                "corrupt"
            };
            RunOutput {
                outcome: outcome.to_string(),
                finish_time: Some(report.time()),
                injected: report.injected_faults().len(),
                flags_raised: raised,
                diagnosis: None,
            }
        }
        Err(SimError::Deadlock { diagnosis }) => RunOutput {
            outcome: "deadlock".to_string(),
            finish_time: None,
            injected: 0,
            flags_raised: Vec::new(),
            diagnosis: summarize_blocked(&diagnosis),
        },
        Err(SimError::Timeout { diagnosis, .. }) => RunOutput {
            outcome: "timeout".to_string(),
            finish_time: None,
            injected: 0,
            flags_raised: Vec::new(),
            diagnosis: diagnosis.as_deref().and_then(summarize_blocked),
        },
        Err(other) => RunOutput {
            outcome: format!("error: {other}"),
            finish_time: None,
            injected: 0,
            flags_raised: Vec::new(),
            diagnosis: None,
        },
    }
}

/// FLC shared bus at width 16: 128 two-word writes (ch1) plus 128
/// two-word reads (ch2) through the arbitrated bus `B`.
fn run_flc(scenario: &str, plan: &FaultPlan, variant: Variant) -> FaultRow {
    let f = flc::flc();
    let design = BusDesign::with_width(f.bus_channels(), 16, ProtocolKind::FullHandshake);
    let refined = generator(variant)
        .refine(&f.system, &design)
        .expect("flc campaign refinement");
    let expected = flc::expected_conv_checksum();
    let conv_acc = f.conv_acc;
    let trru0 = f.trru0;
    // trru0 must hold EVAL_R3's ramp 3i + 1 after a clean run.
    let expected_trru0: i64 = (0..flc::FLC_ACCESSES as i64).map(|i| 3 * i + 1).sum();
    let out = classify(&refined, plan, |report| {
        report.final_variable(conv_acc).as_i64().ok() == Some(expected)
            && array_sum(report.final_variable(trru0)) == expected_trru0
    });
    let words = campaign_words(&refined, variant);
    let bound = variant_bound(&refined, variant, words);
    FaultRow {
        system: "flc@16".to_string(),
        scenario: scenario.to_string(),
        variant,
        outcome: out.outcome,
        finish_time: out.finish_time,
        injected: out.injected,
        flags_raised: out.flags_raised,
        diagnosis: out.diagnosis,
        bound,
        words,
    }
}

/// Fig. 3 at width 8: the paper's worked example (four channels, five
/// handshake transfers of 2–3 words each).
fn run_fig3(scenario: &str, plan: &FaultPlan, variant: Variant) -> FaultRow {
    let f = fig3::fig3();
    let design = BusDesign::with_width(f.channels(), 8, ProtocolKind::FullHandshake);
    let refined = generator(variant)
        .refine(&f.system, &design)
        .expect("fig3 campaign refinement");
    let x = f.x;
    let mem = f.mem;
    let out = classify(&refined, plan, |report| {
        // P: X <= 32; MEM(17) := X + 7. Q: MEM(60) := 1234.
        let x_ok = report.final_variable(x).as_i64().ok() == Some(32);
        let mem_ok = match report.final_variable(mem) {
            Value::Array(items) => {
                items.get(17).and_then(|v| v.as_i64().ok()) == Some(39)
                    && items.get(60).and_then(|v| v.as_i64().ok()) == Some(1234)
            }
            _ => false,
        };
        x_ok && mem_ok
    });
    let words = campaign_words(&refined, variant);
    let bound = variant_bound(&refined, variant, words);
    FaultRow {
        system: "fig3@8".to_string(),
        scenario: scenario.to_string(),
        variant,
        outcome: out.outcome,
        finish_time: out.finish_time,
        injected: out.injected,
        flags_raised: out.flags_raised,
        diagnosis: out.diagnosis,
        bound,
        words,
    }
}

/// The system's quiescence time with no faults (baseline for bounds).
fn fault_free_time(refined: &RefinedSystem) -> u64 {
    Simulator::new(&refined.system)
        .expect("baseline sim setup")
        .run_to_quiescence()
        .expect("baseline sim")
        .time()
}

/// Runs the full campaign: fault matrix × {plain, hardened, protected}
/// × {flc, fig3}.
pub fn run() -> FaultData {
    let mut rows = Vec::new();
    for (name, plan) in fault_matrix() {
        for variant in Variant::ALL {
            rows.push(run_flc(name, &plan, variant));
            rows.push(run_fig3(name, &plan, variant));
        }
    }
    FaultData { rows }
}

/// Renders the campaign as text.
pub fn render(data: &FaultData) -> String {
    let mut out = String::new();
    out.push_str("Fault campaign — plain vs hardened vs integrity-protected full handshake\n");
    out.push_str(&format!(
        "(watchdog {WATCHDOG} cycles, {RETRIES} retries, horizon {MAX_TIME} cycles)\n\n"
    ));
    let mut t = Table::new([
        "system", "scenario", "protocol", "outcome", "finish", "injected", "flags",
    ]);
    for r in &data.rows {
        t.row([
            r.system.clone(),
            r.scenario.clone(),
            r.variant.as_str().to_string(),
            if r.silent_corrupt() {
                format!("{} (silent)", r.outcome)
            } else {
                r.outcome.clone()
            },
            r.finish_time.map_or("-".to_string(), |t| t.to_string()),
            r.injected.to_string(),
            if r.flags_raised.is_empty() {
                "-".to_string()
            } else {
                r.flags_raised.join(" ")
            },
        ]);
    }
    out.push_str(&t.render());
    for r in &data.rows {
        if let Some(d) = &r.diagnosis {
            out.push_str(&format!(
                "\n{} / {} ({}): {}\n",
                r.system,
                r.scenario,
                r.variant.as_str(),
                d
            ));
        }
    }
    let rescued = data.rescued_pairs();
    out.push_str(&format!(
        "\n{} scenario(s) where the plain protocol deadlocks and the hardened \
         one ends cleanly within its bound\n",
        rescued.len()
    ));
    for (plain, hard) in rescued {
        out.push_str(&format!(
            "  {} / {}: plain deadlocks, hardened -> {} at t = {} (bound {})\n",
            plain.system,
            plain.scenario,
            hard.outcome,
            hard.finish_time.unwrap_or(0),
            hard.bound.unwrap_or(0),
        ));
    }
    let integrity = data.integrity_rescues();
    out.push_str(&format!(
        "\n{} corruption(s) rescued by the integrity-protected variant\n",
        integrity.len()
    ));
    for (broken, prot) in integrity {
        out.push_str(&format!(
            "  {} / {}: {} corrupts silently, protected -> {} at t = {}\n",
            broken.system,
            broken.scenario,
            broken.variant.as_str(),
            prot.outcome,
            prot.finish_time.unwrap_or(0),
        ));
    }
    out.push_str("\nfault-free overhead of integrity protection (vs hardened):\n");
    for (hard, prot) in data.overhead_vs_hardened(Variant::Protected) {
        let (ht, pt) = (
            hard.finish_time.unwrap_or(0).max(1),
            prot.finish_time.unwrap_or(0),
        );
        out.push_str(&format!(
            "  {}: time {} -> {} (+{:.1}%), words {} -> {} (+{:.1}%)\n",
            hard.system,
            ht,
            pt,
            100.0 * (pt as f64 - ht as f64) / ht as f64,
            hard.words,
            prot.words,
            100.0 * (prot.words as f64 - hard.words as f64) / hard.words.max(1) as f64,
        ));
    }
    let silent = data.silent_corruptions();
    if silent.is_empty() {
        out.push_str("\nno silent corruptions on the protected variant\n");
    } else {
        out.push_str(&format!(
            "\nINTEGRITY REGRESSION: {} protected run(s) corrupted data silently\n",
            silent.len()
        ));
        for r in silent {
            out.push_str(&format!(
                "  {} / {} ({})\n",
                r.system,
                r.scenario,
                r.variant.as_str()
            ));
        }
    }
    out
}

/// Serializes the campaign as the `BENCH_faults.json` document.
pub fn to_json(data: &FaultData) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"ifsyn-bench-faults-v2\",\n");
    out.push_str(&format!("  \"watchdog\": {WATCHDOG},\n"));
    out.push_str(&format!("  \"retries\": {RETRIES},\n"));
    out.push_str(&format!(
        "  \"rescued_scenarios\": {},\n",
        data.rescued_pairs().len()
    ));
    out.push_str(&format!(
        "  \"integrity_rescues\": {},\n",
        data.integrity_rescues().len()
    ));
    out.push_str(&format!(
        "  \"silent_corruptions\": {},\n",
        data.silent_corruptions().len()
    ));
    out.push_str("  \"overhead_vs_hardened\": [\n");
    let overhead = data.overhead_vs_hardened(Variant::Protected);
    crate::emit::array_rows(&mut out, &overhead, |(hard, prot)| {
        format!(
            "    {{\"system\": {}, \"hardened_time\": {}, \"protected_time\": {}, \
             \"hardened_words\": {}, \"protected_words\": {}}}",
            json_str(&hard.system),
            json_opt(hard.finish_time),
            json_opt(prot.finish_time),
            hard.words,
            prot.words,
        )
    });
    out.push_str("  ],\n");
    out.push_str("  \"rows\": [\n");
    crate::emit::array_rows(&mut out, &data.rows, |r| {
        let flags: Vec<String> = r.flags_raised.iter().map(|f| json_str(f)).collect();
        format!(
            "    {{\"system\": {}, \"scenario\": {}, \"protocol\": {}, \
             \"outcome\": {}, \"silent\": {}, \"finish_time\": {}, \"injected\": {}, \
             \"flags_raised\": [{}], \"diagnosis\": {}, \"bound\": {}, \"words\": {}}}",
            json_str(&r.system),
            json_str(&r.scenario),
            json_str(r.variant.as_str()),
            json_str(&r.outcome),
            r.silent_corrupt(),
            json_opt(r.finish_time),
            r.injected,
            flags.join(", "),
            crate::emit::json_opt_str(r.diagnosis.as_deref()),
            json_opt(r.bound),
            r.words,
        )
    });
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_done_deadlocks_plain_and_hardened_aborts() {
        let plan = FaultPlan::new().stuck_at_0("B_DONE", 0, None);
        let plain = run_flc("done_stuck_at_0", &plan, Variant::Plain);
        assert_eq!(plain.outcome, "deadlock", "{plain:?}");
        let d = plain.diagnosis.as_deref().expect("diagnosis present");
        assert!(d.contains("wait until"), "{d}");
        let hard = run_flc("done_stuck_at_0", &plan, Variant::Hardened);
        assert_eq!(hard.outcome, "aborted", "{hard:?}");
        assert!(!hard.flags_raised.is_empty());
        assert!(hard.within_bound(), "{hard:?}");
    }

    #[test]
    fn no_faults_means_clean_completion_all_variants() {
        let plan = FaultPlan::new();
        for variant in Variant::ALL {
            let r = run_fig3("none", &plan, variant);
            assert_eq!(r.outcome, "completed", "{r:?}");
            assert_eq!(r.injected, 0);
        }
    }

    #[test]
    fn hardening_costs_nothing_fault_free() {
        let plan = FaultPlan::new();
        let plain = run_fig3("none", &plan, Variant::Plain);
        let hard = run_fig3("none", &plan, Variant::Hardened);
        assert_eq!(plain.finish_time, hard.finish_time);
    }

    #[test]
    fn protection_overhead_is_the_check_words() {
        let plan = FaultPlan::new();
        let hard = run_fig3("none", &plan, Variant::Hardened);
        let prot = run_fig3("none", &plan, Variant::Protected);
        // fig3: CH0 2+1, CH1 2+1, CH2/CH3 3+1 each.
        assert_eq!(hard.words, 2 + 2 + 3 + 3);
        assert_eq!(prot.words, 3 + 3 + 4 + 4);
        // Each extra word costs 2 fault-free cycles.
        assert!(prot.finish_time > hard.finish_time, "{prot:?} vs {hard:?}");
    }

    #[test]
    fn data_flip_corrupts_hardened_but_not_protected() {
        let plan = FaultPlan::new().flip_bit("B_DATA", 2, 9);
        let hard = run_fig3("data_flip", &plan, Variant::Hardened);
        assert_eq!(hard.outcome, "corrupt", "{hard:?}");
        let prot = run_fig3("data_flip", &plan, Variant::Protected);
        assert_eq!(prot.outcome, "completed", "{prot:?}");
        assert!(prot.within_bound(), "{prot:?}");
    }

    #[test]
    fn json_mentions_every_row_and_is_balanced() {
        let data = FaultData {
            rows: vec![FaultRow {
                system: "flc@16".into(),
                scenario: "none".into(),
                variant: Variant::Hardened,
                outcome: "completed".into(),
                finish_time: Some(42),
                injected: 0,
                flags_raised: vec![],
                diagnosis: None,
                bound: Some(100),
                words: 512,
            }],
        };
        let json = to_json(&data);
        assert!(json.contains("\"schema\": \"ifsyn-bench-faults-v2\""));
        assert!(json.contains("\"finish_time\": 42"));
        assert!(json.contains("\"silent\": false"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn silent_corruption_gate_covers_protected_only() {
        let mk = |variant, outcome: &str| FaultRow {
            system: "fig3@8".into(),
            scenario: "data_flip".into(),
            variant,
            outcome: outcome.into(),
            finish_time: Some(1),
            injected: 1,
            flags_raised: vec![],
            diagnosis: None,
            bound: None,
            words: 10,
        };
        let data = FaultData {
            rows: vec![
                mk(Variant::Plain, "corrupt"),
                mk(Variant::Hardened, "corrupt"),
                mk(Variant::Protected, "completed"),
            ],
        };
        assert!(data.silent_corruptions().is_empty());
        let mut rows = data.rows.clone();
        rows.push(mk(Variant::Protected, "corrupt"));
        let data = FaultData { rows };
        let silent = data.silent_corruptions();
        assert_eq!(silent.len(), 1);
        assert_eq!(silent[0].variant, Variant::Protected);
    }

    #[test]
    fn array_sum_handles_scalars_and_arrays() {
        assert_eq!(array_sum(&Value::int(7, 16)), 7);
        let arr = Value::Array(vec![Value::int(1, 16), Value::int(2, 16)]);
        assert_eq!(array_sum(&arr), 3);
    }
}
