//! The protocol generator's handshake conditions compile to typed
//! [`Cond`]s, not to a tree-walked [`Cond::Code`].
//!
//! Every branch and wait of a refined design that compares a signal,
//! variable or local with a constant (`wait until B_START = '1'`,
//! `if B_ID = "00"`, `while (ok = '0') and (retry <= 3)`) must evaluate
//! as a typed condition. A silent fallback to [`Cond::Code`] still
//! simulates correctly, so no output test notices it, and the ~15% of
//! simulate time it costs is far below what a throughput floor sees.
//! This test pins fig3 and the FLC under the plain, hardened and
//! protected generators at three explored widths each.

use ifsyn_bench::faults::{generator, Variant};
use ifsyn_core::{BusDesign, BusGenerator, ProtocolKind};
use ifsyn_partition::Partitioner;
use ifsyn_sim::{Cond, Instr, Program, WaitSpec};
use ifsyn_spec::{BinOp, ChannelId, Expr, Place, System, UnaryOp};

const SPECS: [(&str, &str); 2] = [
    ("fig3", include_str!("../../../specs/fig3.ifs")),
    ("flc", include_str!("../../../specs/flc.ifs")),
];

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

/// A folded condition that only compares storage with constants and
/// combines the results with `and`, `or` and `not`: the shapes a typed
/// condition covers.
fn is_storage_compare(e: &Expr) -> bool {
    let storage = |e: &Expr| {
        matches!(
            e,
            Expr::Signal(_) | Expr::Load(Place::Var(_) | Place::Local(_))
        )
    };
    let constant = |e: &Expr| matches!(e, Expr::Const(_));
    match e {
        Expr::Binary {
            op: BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge,
            lhs,
            rhs,
        } => (storage(lhs) && constant(rhs)) || (constant(lhs) && storage(rhs)),
        Expr::Binary {
            op: BinOp::And | BinOp::Or,
            lhs,
            rhs,
        } => is_storage_compare(lhs) && is_storage_compare(rhs),
        Expr::Unary {
            op: UnaryOp::Not,
            arg,
        } => is_storage_compare(arg),
        _ => false,
    }
}

#[test]
fn generated_handshake_conditions_compile_typed() {
    for (spec, text) in SPECS {
        let (system, channels) = spec_system(text);
        let widths: Vec<u32> = BusGenerator::new()
            .explore(&system, &channels)
            .expect("bundled spec explores")
            .rows
            .iter()
            .map(|r| r.width)
            .collect();
        let picks = [
            widths[0],
            widths[widths.len() / 2],
            widths[widths.len() - 1],
        ];
        for variant in Variant::ALL {
            let mut typed = 0;
            for &width in &picks {
                let design =
                    BusDesign::with_width(channels.clone(), width, ProtocolKind::FullHandshake);
                let refined = generator(variant)
                    .refine(&system, &design)
                    .expect("bundled spec refines");
                let program = Program::compile(&refined.system);
                for block in program.behaviors.iter().chain(&program.procedures) {
                    for (pc, instr) in block.instrs.iter().enumerate() {
                        let cond = match instr {
                            Instr::JumpIfNot { cond, .. } => cond,
                            Instr::Wait(WaitSpec::Until(until))
                            | Instr::Wait(WaitSpec::UntilTimeout { until, .. }) => &until.cond,
                            _ => continue,
                        };
                        match cond {
                            Cond::Code(e) => assert!(
                                !is_storage_compare(e),
                                "{spec} {} width {width}: `{}` pc {pc} fell back to Cond::Code: {e:?}",
                                variant.as_str(),
                                block.name
                            ),
                            _ => typed += 1,
                        }
                    }
                }
            }
            assert!(typed > 0, "{spec} {}: no typed condition", variant.as_str());
        }
    }
}
