//! Golden `ifsyn` command-line flows: the byte-identical CLI contract as
//! a tier-1 check.
//!
//! Each flow runs the built `ifsyn` binary from the repository root and
//! pins its exit code, stdout, stderr and every file it writes in
//! `golden/cli/NAME.txt`. Output files go to a fresh scratch directory,
//! written `$TMP` in the arguments and in the pinned text, so the
//! golden data names no host path. Checks that exceed the default state
//! cap, and the paper's full FLC, take too long for tier-1 and run in
//! CI instead.
//!
//! `IFSYN_BLESS=1 cargo test --test cli_golden` rewrites every expected
//! file from the current binary; review the diff before committing it.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

#[path = "../crates/bench/tests/support/mod.rs"]
mod support;

use support::expect_file;

/// A named `ifsyn` invocation; `$TMP` in an argument is the flow's
/// scratch directory.
type Flow = (&'static str, &'static [&'static str]);

const SIMULATION: &[Flow] = &[
    ("fig3_no_feasible_width", &["specs/fig3.ifs"]),
    ("fig3_w8", &["specs/fig3.ifs", "--width", "8"]),
    (
        "fig3_w8_vcd",
        &["specs/fig3.ifs", "--width", "8", "--vcd", "$TMP/f.vcd"],
    ),
    (
        "fig3_w8_bus_meta",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--bus-meta",
            "$TMP/b.json",
        ],
    ),
    // An 8-bit `B_DATA` has no bit 99: the plan is refused, not run with
    // no injection applied.
    (
        "fig3_w8_flip_out_of_range",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--fault",
            "flip:B_DATA:99@5",
        ],
    ),
    // Windows that end where or before they start, and a delay of 0
    // cycles, can never strike either: each plan is refused.
    (
        "fig3_w8_drop_inverted_window",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--fault",
            "drop:B_DONE@10-5",
        ],
    ),
    (
        "fig3_w8_drop_empty_window",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--fault",
            "drop:B_DONE@5-5",
        ],
    ),
    (
        "fig3_w8_stuck_inverted_window",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--fault",
            "stuck0:B_DONE@10-5",
        ],
    ),
    (
        "fig3_w8_stuck_empty_window",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--fault",
            "stuck0:B_DONE@5-5",
        ],
    ),
    (
        "fig3_w8_delay_zero_cycles",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--fault",
            "delay:B_START:0@0-60",
        ],
    ),
    (
        "flc_min_peak",
        &["specs/flc.ifs", "--min-peak", "ch2=10:10"],
    ),
    (
        "flc_w16_stuck_done",
        &["specs/flc.ifs", "--width", "16", "--fault", "stuck0:B_DONE"],
    ),
    (
        "flc_w16_stuck_done_timeout",
        &[
            "specs/flc.ifs",
            "--width",
            "16",
            "--fault",
            "stuck0:B_DONE",
            "--protocol-timeout",
            "16:3",
        ],
    ),
];

const SWEEP_AND_ANALYZE: &[Flow] = &[
    (
        "sweep_fig1",
        &[
            "specs/fig1.ifs",
            "--derive-channels",
            "--sweep-sim",
            "1-32",
            "--jobs",
            "1",
        ],
    ),
    (
        "sweep_fig3",
        &["specs/fig3.ifs", "--sweep-sim", "1-32", "--jobs", "1"],
    ),
    (
        "sweep_flc",
        &["specs/flc.ifs", "--sweep-sim", "1-32", "--jobs", "1"],
    ),
    (
        "sweep_answering_machine",
        &[
            "specs/answering_machine.ifs",
            "--derive-channels",
            "--sweep-sim",
            "1-32",
            "--jobs",
            "1",
        ],
    ),
    (
        "sweep_ethernet",
        &[
            "specs/ethernet.ifs",
            "--derive-channels",
            "--sweep-sim",
            "1-32",
            "--jobs",
            "1",
        ],
    ),
    (
        "analyze_flc_w16",
        &["analyze", "specs/flc.ifs", "--width", "16"],
    ),
    (
        "analyze_flc_w16_json",
        &["analyze", "specs/flc.ifs", "--width", "16", "--json"],
    ),
];

const FIG3_AND_FIG1_CHECKS: &[Flow] = &[
    (
        "check_fig3_flip_data",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--check",
            "--check-fault",
            "flip:B_DATA:0",
        ],
    ),
    // Check faults that can never strike are refused: a bit past the
    // signal's width, bit 1 of a 1-bit signal, and a budget of 0.
    (
        "check_fig3_flip_out_of_range",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--check",
            "--check-fault",
            "flip:B_DATA:99",
        ],
    ),
    (
        "check_fig3_flip_one_bit_signal",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--check",
            "--check-fault",
            "flip:B_START:1",
        ],
    ),
    (
        "check_fig3_flip_budget_zero",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--check",
            "--check-fault",
            "flip:B_DATA:2:0",
        ],
    ),
    (
        "check_fig3_stuck_done_timeout",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--check",
            "--check-fault",
            "stuck0:B_DONE",
            "--protocol-timeout",
            "20:3",
        ],
    ),
    (
        "check_fig3_stuck_done_timeout_integrity",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--check",
            "--check-fault",
            "stuck0:B_DONE",
            "--protocol-timeout",
            "20:3",
            "--integrity",
        ],
    ),
    (
        "check_fig1_derived",
        &[
            "specs/fig1.ifs",
            "--derive-channels",
            "--width",
            "16",
            "--check",
        ],
    ),
    // Refined buses without an arbiter: four clients contending for
    // an unarbitrated bus, and one client alone on its bus.
    (
        "check_fig3_no_arbitration_bounded",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--no-arbitration",
            "--check",
            "--check-limit",
            "3000",
        ],
    ),
    (
        "check_fig3_one_client",
        &[
            "specs/fig3.ifs",
            "--channels",
            "CH0,CH1",
            "--width",
            "8",
            "--check",
        ],
    ),
    // A fixed-delay bus: the untimed checker reports a crash the clocked
    // kernel never runs, and the header says so.
    (
        "check_fig3_fixed_delay_bounded",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--protocol",
            "fixed:3",
            "--check",
            "--check-limit",
            "3000",
        ],
    ),
];

const FLC_BOUNDED_CHECKS: &[Flow] = &[
    (
        "check_flc_w16_bounded",
        &[
            "specs/flc.ifs",
            "--width",
            "16",
            "--check",
            "--check-limit",
            "50000",
        ],
    ),
    (
        "check_flc_w16_bounded_stuck_done",
        &[
            "specs/flc.ifs",
            "--width",
            "16",
            "--check",
            "--check-limit",
            "50000",
            "--check-fault",
            "stuck0:B_DONE",
        ],
    ),
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A fresh empty scratch directory for one flow.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifsyn-cli-golden-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs one flow and renders what it did: the command, the exit code,
/// stdout, stderr, then each file it wrote in name order.
fn record((name, args): Flow) -> String {
    let dir = scratch_dir(name);
    let tmp = dir.to_str().expect("utf-8 temp path");
    let out = Command::new(env!("CARGO_BIN_EXE_ifsyn"))
        .args(args.iter().map(|a| a.replace("$TMP", tmp)))
        .current_dir(repo_root())
        .output()
        .expect("ifsyn binary runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).replace(tmp, "$TMP");
    let mut rec = format!("$ ifsyn {}\n", args.join(" "));
    match out.status.code() {
        Some(code) => writeln!(rec, "exit: {code}").unwrap(),
        None => writeln!(rec, "exit: killed by a signal").unwrap(),
    }
    write!(rec, "--- stdout\n{}", text(&out.stdout)).unwrap();
    write!(rec, "--- stderr\n{}", text(&out.stderr)).unwrap();
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    for file in files {
        let name = file.file_name().expect("file name").to_string_lossy();
        let bytes = fs::read(&file).expect("read written file");
        write!(rec, "--- $TMP/{name}\n{}", text(&bytes)).unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
    rec
}

fn pin(flows: &[Flow]) {
    for &flow in flows {
        let path = repo_root().join(format!("tests/golden/cli/{}.txt", flow.0));
        expect_file(&path, &record(flow));
    }
}

#[test]
fn simulation_flows_are_pinned() {
    pin(SIMULATION);
}

#[test]
fn sweep_and_analyze_flows_are_pinned() {
    pin(SWEEP_AND_ANALYZE);
}

#[test]
fn fig3_and_fig1_checks_are_pinned() {
    pin(FIG3_AND_FIG1_CHECKS);
}

#[test]
fn bounded_flc_checks_are_pinned() {
    pin(FLC_BOUNDED_CHECKS);
}

/// A forced watchdog expiry of 2^32 cycles is one checker transition
/// that no stored transition cost can hold: the run stops with the
/// checker's cost-overflow error on stderr and a nonzero exit, and
/// prints no completion bound or trace cost, wrapped or not.
#[test]
fn checker_cost_overflow_is_an_error() {
    let rec = record((
        "check_fig3_cost_overflow",
        &[
            "specs/fig3.ifs",
            "--width",
            "8",
            "--check",
            "--check-fault",
            "stuck0:B_DONE",
            "--protocol-timeout",
            "4294967296:3",
        ],
    ));
    let (head, stderr) = rec.split_once("--- stderr\n").expect("stderr section");
    assert!(head.contains("\nexit: 1\n"), "{rec}");
    assert!(
        stderr.starts_with("ifsyn: a transition of `")
            && stderr.contains("costs 4294967297 cycles; the checker records at most 4294967295"),
        "{rec}"
    );
    assert!(!rec.contains("panicked"), "{rec}");
    assert!(
        !head.contains("worst-case") && !head.contains("cycles):"),
        "{rec}"
    );
}

/// A closed stdout is an ordinary error: with its reader gone before the
/// first line is written, `ifsyn` reports the failed write on stderr and
/// exits 1 instead of panicking.
#[test]
fn closed_stdout_is_an_error_not_a_panic() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_ifsyn"))
        .args(["specs/fig3.ifs", "--width", "8", "--sweep-sim", "1-2"])
        .current_dir(repo_root())
        .stdout(writer)
        .output()
        .expect("ifsyn binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.starts_with("ifsyn: ") && stderr.lines().count() == 1,
        "{stderr}"
    );
}
