//! The textual frontend round-trips against the programmatic models,
//! and the `ifsyn` binary drives the whole pipeline from a spec file.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use interface_synthesis::core::{BusDesign, ProtocolGenerator, ProtocolKind};
use interface_synthesis::sim::Simulator;
use interface_synthesis::spec::Value;
use interface_synthesis::systems::flc;

/// The FLC bus-B workload expressed in the specification language —
/// equivalent to `ifsyn_systems::flc()`'s ch1/ch2 slice.
const FLC_SRC: &str = r#"
system flc;
module chip1;
module chip2;

store chip2_store on chip2 {
    var trru0 : int<16>[128];
    var trru2 : int<16>[128];
}

behavior INIT2 on chip1 {
    -- Seed trru2 with the ramp 2*i + 5 before the readback phase.
    for k in 0 to 127 {
        send chinit(k, k * 2 + 5);
    }
}

behavior EVAL_R3 on chip1 {
    var eval_t : int<16>;
    compute 300 "wait for seeding";
    for i in 0 to 127 {
        compute 6 "evaluate rule 3";
        eval_t := i * 3 + 1;
        send ch1(i, eval_t);
    }
}

behavior CONV_R2 on chip1 {
    var conv_t : int<16>;
    var conv_acc : int<32>;
    compute 300 "wait for seeding";
    for j in 0 to 127 {
        receive ch2(j, conv_t);
        compute 4 "convolve rule 2";
        conv_acc := conv_acc + conv_t;
    }
}

channel chinit : INIT2 writes trru2;
channel ch1 : EVAL_R3 writes trru0;
channel ch2 : CONV_R2 reads trru2;
"#;

#[test]
fn parsed_flc_matches_programmatic_flc_results() {
    let sys = interface_synthesis::lang::parse_system(FLC_SRC).expect("parse");
    let ch1 = sys.channel_by_name("ch1").unwrap();
    let ch2 = sys.channel_by_name("ch2").unwrap();
    // Same message shape as the programmatic model.
    assert_eq!(sys.channel(ch1).message_bits(), 23);
    assert_eq!(sys.channel(ch2).message_bits(), 23);
    assert_eq!(sys.channel(ch1).accesses, 128);

    let design = BusDesign::with_width(vec![ch1, ch2], 16, ProtocolKind::FullHandshake);
    let refined = ProtocolGenerator::new()
        .refine(&sys, &design)
        .expect("refine");
    let report = Simulator::new(&refined.system)
        .unwrap()
        .run_to_quiescence()
        .unwrap();

    // Same checksum as the programmatic model's trru2 ramp.
    let acc = sys.variable_by_name("conv_acc").unwrap();
    assert_eq!(
        report.final_variable(acc).as_i64().unwrap(),
        flc::expected_conv_checksum()
    );
    let trru0 = sys.variable_by_name("trru0").unwrap();
    match report.final_variable(trru0) {
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                assert_eq!(item.as_i64().unwrap(), 3 * i as i64 + 1);
            }
        }
        other => panic!("expected array, got {other}"),
    }
}

fn ifsyn_binary() -> &'static str {
    env!("CARGO_BIN_EXE_ifsyn")
}

/// Writes the FLC spec to a file of its own: tests run on parallel
/// threads, and rewriting one shared file truncates it under a
/// concurrently spawned `ifsyn`.
fn spec_file() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("ifsyn-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("flc-{}-{n}.ifs", std::process::id()));
    std::fs::write(&path, FLC_SRC).unwrap();
    path
}

#[test]
fn cli_runs_the_pipeline_from_a_spec_file() {
    let out = Command::new(ifsyn_binary())
        .arg(spec_file())
        .args(["--channels", "ch1,ch2", "--width", "16"])
        .output()
        .expect("spawn ifsyn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 channels selected"), "{stdout}");
    assert!(
        stdout.contains("bus: 16 data + 2 control + 1 ID lines"),
        "{stdout}"
    );
    assert!(stdout.contains("EVAL_R3"), "{stdout}");
}

#[test]
fn cli_explore_prints_the_width_table() {
    let out = Command::new(ifsyn_binary())
        .arg(spec_file())
        .args(["--channels", "ch1,ch2", "--explore"])
        .output()
        .expect("spawn ifsyn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("feasible"), "{stdout}");
    assert!(stdout.lines().count() > 20, "one row per width: {stdout}");
}

#[test]
fn cli_writes_vcd_waveforms() {
    let vcd_path = std::env::temp_dir().join("ifsyn-cli-test").join("out.vcd");
    let _ = std::fs::remove_file(&vcd_path);
    let out = Command::new(ifsyn_binary())
        .arg(spec_file())
        .args(["--channels", "ch1", "--width", "8"])
        .args(["--vcd", vcd_path.to_str().unwrap()])
        .output()
        .expect("spawn ifsyn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let vcd = std::fs::read_to_string(&vcd_path).expect("vcd written");
    assert!(vcd.contains("$enddefinitions"));
    assert!(vcd.contains("B_START"));
}

#[test]
fn cli_reports_parse_errors_with_positions() {
    let dir = std::env::temp_dir().join("ifsyn-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.ifs");
    std::fs::write(&bad, "system x;\nmodule ;\n").unwrap();
    let out = Command::new(ifsyn_binary())
        .arg(&bad)
        .output()
        .expect("spawn ifsyn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2:"), "position in error: {stderr}");
}

/// The shipped text specs must reproduce the programmatic models'
/// synthesis results exactly (cross-validation of the frontend).
#[test]
fn shipped_specs_match_programmatic_models() {
    use interface_synthesis::core::BusGenerator;
    use interface_synthesis::partition::Partitioner;

    // Answering machine: same selected width and slowest-client time.
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/specs/answering_machine.ifs"
    ))
    .unwrap();
    let parsed = interface_synthesis::lang::parse_system(&src).unwrap();
    let derived = Partitioner::new().partition(&parsed).unwrap();
    let text_design = BusGenerator::new()
        .generate(&derived.system, &derived.channels)
        .unwrap();

    let am = interface_synthesis::systems::answering_machine();
    let rust_design = BusGenerator::new()
        .generate(&am.system, &am.groups[0])
        .unwrap();
    assert_eq!(text_design.width, rust_design.width);
    assert_eq!(
        text_design.dedicated_wires(&derived.system),
        rust_design.dedicated_wires(&am.system)
    );

    // And the refined simulations agree on the slowest client.
    let slowest = |sys: &interface_synthesis::spec::System,
                   design: &interface_synthesis::core::BusDesign,
                   names: &[&str]| {
        let refined = ProtocolGenerator::new().refine(sys, design).unwrap();
        let report = Simulator::new(&refined.system)
            .unwrap()
            .run_to_quiescence()
            .unwrap();
        names
            .iter()
            .map(|n| {
                let b = refined.system.behavior_by_name(n).unwrap();
                report.finish_time(b).unwrap()
            })
            .max()
            .unwrap()
    };
    let clients = ["PLAY_GREETING", "RECORD_MSG"];
    assert_eq!(
        slowest(&derived.system, &text_design, &clients),
        slowest(&am.system, &rust_design, &clients),
    );
}

#[test]
fn cli_rejects_half_handshake_with_read_channels() {
    let out = Command::new(ifsyn_binary())
        .arg(spec_file())
        .args(["--channels", "ch2", "--width", "8", "--protocol", "half"])
        .output()
        .expect("spawn ifsyn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("half-handshake") || stderr.contains("read"),
        "{stderr}"
    );
}
