//! Golden outputs: the byte-identical contract as a tier-1 check.
//!
//! * Every design point the protocol generator is asked for: the five
//!   bundled specs at every width `BusGenerator::explore` returns, under
//!   the full, half and `fixed:3` protocols, the plain, hardened and
//!   protected `faults::generator` presets, rolled or unrolled word
//!   loops, and arbitration auto or off. Each configuration is one line
//!   of `golden/refine.txt` holding an FNV-1a-64 hash of the `{:?}` text
//!   of every `refine` result in width order, errors included.
//! * The printed VHDL of fig3 at width 8 per preset
//!   (`golden/fig3_w8_*.vhd`), so a generator change reads as a review
//!   diff.
//! * `experiments all`, `faults`, `calibrate` and `check`, byte for byte
//!   against `docs/experiments_output.txt`, `BENCH_faults.json`,
//!   `BENCH_analyze.json` and `BENCH_check.json` (every verdict,
//!   exploration count and counterexample of the pinned catalog).
//! * The `experiments` argument surface: `--out` is honoured and
//!   anything a subcommand does not take is refused; a closed stdout is
//!   one error line, not a panic.
//!
//! `IFSYN_BLESS=1 cargo test -p ifsyn-bench --test golden` rewrites every
//! expected file from the current code; review the diff before
//! committing it.

use std::fmt::{self, Write as _};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ifsyn_bench::faults::{generator, Variant};
use ifsyn_core::{BusDesign, BusGenerator, ProtocolKind};
use ifsyn_partition::Partitioner;
use ifsyn_spec::{ChannelId, System};
use ifsyn_vhdl::VhdlPrinter;

mod support;

use support::expect_file;

/// The bundled specs, in line order.
const SPECS: [(&str, &str); 5] = [
    ("fig1", include_str!("../../../specs/fig1.ifs")),
    ("fig3", include_str!("../../../specs/fig3.ifs")),
    ("flc", include_str!("../../../specs/flc.ifs")),
    (
        "answering_machine",
        include_str!("../../../specs/answering_machine.ifs"),
    ),
    ("ethernet", include_str!("../../../specs/ethernet.ifs")),
];

/// The protocols the CLI's `--protocol` offers for a shared bus.
const PROTOCOLS: [(&str, ProtocolKind); 3] = [
    ("full", ProtocolKind::FullHandshake),
    ("half", ProtocolKind::HalfHandshake),
    ("fixed:3", ProtocolKind::FixedDelay { cycles: 3 }),
];

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// FNV-1a, 64-bit: a hash that is the same on every host and release.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Parses a bundled spec and derives its channels when it declares none,
/// as the CLI's `--derive-channels` and the width-sweep benchmark do.
fn spec_system(text: &str) -> (System, Vec<ChannelId>) {
    let system = ifsyn_lang::parse_system(text).expect("bundled spec parses");
    if !system.channels.is_empty() {
        let channels = system.channel_ids().collect();
        return (system, channels);
    }
    let derived = Partitioner::new()
        .partition(&system)
        .expect("bundled spec derives channels");
    (derived.system, derived.channels)
}

#[test]
fn every_refined_design_point_is_pinned() {
    let mut lines = String::new();
    for (spec, text) in SPECS {
        let (system, channels) = spec_system(text);
        let widths: Vec<u32> = BusGenerator::new()
            .explore(&system, &channels)
            .expect("bundled spec explores")
            .rows
            .iter()
            .map(|r| r.width)
            .collect();
        for (protocol_name, protocol) in PROTOCOLS {
            for variant in Variant::ALL {
                for rolled in [false, true] {
                    for arbitrated in [true, false] {
                        let mut pg = generator(variant);
                        if rolled {
                            pg = pg.with_rolled_word_loops();
                        }
                        if !arbitrated {
                            pg = pg.without_arbitration();
                        }
                        let mut hash = Fnv::new();
                        for &width in &widths {
                            let design = BusDesign::with_width(channels.clone(), width, protocol);
                            writeln!(hash, "{:?}", pg.refine(&system, &design)).unwrap();
                        }
                        writeln!(
                            lines,
                            "{spec} {protocol_name} {} {} {} widths={} {:016x}",
                            variant.as_str(),
                            if rolled { "rolled" } else { "unrolled" },
                            if arbitrated {
                                "arbiter-auto"
                            } else {
                                "arbiter-off"
                            },
                            widths.len(),
                            hash.0
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    assert_eq!(lines.lines().count(), 180);
    expect_file(&golden_path("refine.txt"), &lines);
}

#[test]
fn fig3_at_width_8_prints_as_pinned() {
    let (system, channels) = spec_system(SPECS[1].1);
    let design = BusDesign::with_width(channels, 8, ProtocolKind::FullHandshake);
    for variant in Variant::ALL {
        let refined = generator(variant)
            .refine(&system, &design)
            .expect("fig3 refines at width 8");
        let text = VhdlPrinter::new().print_refined(&refined);
        expect_file(
            &golden_path(&format!("fig3_w8_{}.vhd", variant.as_str())),
            &text,
        );
    }
}

/// A fresh empty directory for one test's `experiments` runs.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifsyn-golden-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn experiments(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("experiments binary runs")
}

fn succeeded(args: &[&str], out: &Output) {
    assert!(
        out.status.success(),
        "experiments {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn experiments_all_matches_the_documented_output() {
    let dir = scratch_dir("all");
    let out = experiments(&["all"], &dir);
    succeeded(&["all"], &out);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    expect_file(&repo_path("docs/experiments_output.txt"), &stdout);
    let _ = fs::remove_dir_all(&dir);
}

/// Runs a file-writing subcommand with `--out` and pins the file it
/// wrote; no file named after the flag may appear.
fn pin_written_file(subcommand: &str, committed: &str) {
    let dir = scratch_dir(subcommand);
    let args = [subcommand, "--out", "out.json"];
    let out = experiments(&args, &dir);
    succeeded(&args, &out);
    assert!(
        !dir.join("--out").exists(),
        "`{subcommand} --out` wrote a file named `--out`"
    );
    let written = fs::read_to_string(dir.join("out.json")).expect("--out file written");
    expect_file(&repo_path(committed), &written);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fault_campaign_matches_bench_faults_json() {
    pin_written_file("faults", "BENCH_faults.json");
}

#[test]
fn calibration_matches_bench_analyze_json() {
    pin_written_file("calibrate", "BENCH_analyze.json");
}

#[test]
fn check_campaign_matches_bench_check_json() {
    pin_written_file("check", "BENCH_check.json");
}

/// A `--out` file that cannot be written is an error that names its
/// path, in one `experiments:` line and exit 1, before the campaign
/// runs or prints anything. `faults`, `calibrate` and `check` open their
/// file through one helper; `faults` is the quickest of the three to
/// run.
#[test]
fn an_unwritable_out_path_is_named() {
    let dir = scratch_dir("unwritable");
    let out = experiments(&["faults", "--out", "missing/out.json"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("experiments: faults failed: cannot write `missing/out.json`: ")
            && stderr.lines().count() == 1,
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "the path is refused before the campaign runs: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn experiments_refuses_arguments_it_does_not_take() {
    let dir = scratch_dir("args");
    let refused: [&[&str]; 9] = [
        &["fig7", "--bogus"],
        &["all", "extra"],
        &["faults", "out.json"],
        &["bench"],
        &["check", "out.json"],
        &["check", "--no-big"],
        &["calibrate", "--out"],
        &["perf"],
        &["fig9"],
    ];
    for args in refused {
        let out = experiments(args, &dir);
        assert!(!out.status.success(), "experiments {args:?} exited 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: experiments"),
            "experiments {args:?} printed no usage line:\n{stderr}"
        );
    }
    let left: Vec<_> = fs::read_dir(&dir).unwrap().flatten().collect();
    assert!(left.is_empty(), "a refused call wrote {left:?}");
    let _ = fs::remove_dir_all(&dir);
}

/// A closed stdout is an ordinary error: with its reader gone before the
/// first line is written, `experiments` reports the failed write on
/// stderr and exits 1 instead of panicking.
#[test]
fn closed_stdout_is_an_error_not_a_panic() {
    let dir = scratch_dir("closed-stdout");
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("fig2")
        .current_dir(&dir)
        .stdout(writer)
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.starts_with("experiments: ") && stderr.lines().count() == 1,
        "{stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}
