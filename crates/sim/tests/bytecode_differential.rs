//! Differential test: the register-bytecode expression engine must agree
//! with the reference tree-walking evaluator on randomized expressions.
//!
//! Both entry points live in `ifsyn_sim::testing`: `eval_tree` walks the
//! `Expr` tree directly, `eval_bytecode` runs the production pipeline
//! (constant fold, lower to micro-ops, execute on a register file). For
//! every generated expression the two must return strictly equal values
//! (width-sensitive) or must both fail; a value from one engine and an
//! error from the other is always a bug.

use ifsyn_sim::testing::{eval_bytecode, eval_tree};
use ifsyn_spec::dsl::*;
use ifsyn_spec::rng::SplitMix64;
use ifsyn_spec::{BinOp, BitVec, Expr, SignalId, System, Ty, UnaryOp, Value, VarId};

/// Bit widths the variable palette covers.
const WIDTHS: [u32; 5] = [1, 4, 8, 16, 32];

/// The randomized storage environment one iteration evaluates against.
struct Env {
    system: System,
    vars: Vec<Value>,
    signals: Vec<Value>,
    int_vars: Vec<(VarId, u32)>,
    bits_vars: Vec<(VarId, u32)>,
    bit_var: VarId,
    array_var: VarId,
    bit_sig: SignalId,
    bits_sig: SignalId,
    int_sig: SignalId,
}

fn signed_range(width: u32) -> (i64, i64) {
    if width >= 63 {
        (i64::MIN / 2, i64::MAX / 2)
    } else {
        (-(1i64 << (width - 1)), (1i64 << (width - 1)) - 1)
    }
}

fn random_int(rng: &mut SplitMix64, width: u32) -> Value {
    let (lo, hi) = signed_range(width);
    Value::int(rng.range_i64(lo, hi), width)
}

fn random_bits(rng: &mut SplitMix64, width: u32) -> Value {
    let raw = if width >= 64 {
        rng.next_u64()
    } else {
        rng.next_u64() & ((1u64 << width) - 1)
    };
    Value::Bits(BitVec::from_u64(raw, width))
}

fn build_env(rng: &mut SplitMix64) -> Env {
    let mut system = System::new("diff");
    let module = system.add_module("chip");
    let behavior = system.add_behavior("P", module);

    let mut vars = Vec::new();
    let mut int_vars = Vec::new();
    let mut bits_vars = Vec::new();
    for &w in &WIDTHS {
        int_vars.push((
            system.add_variable(format!("i{w}"), Ty::Int(w), behavior),
            w,
        ));
        vars.push(random_int(rng, w));
        bits_vars.push((
            system.add_variable(format!("b{w}"), Ty::Bits(w), behavior),
            w,
        ));
        vars.push(random_bits(rng, w));
    }
    let bit_var = system.add_variable("flag", Ty::Bit, behavior);
    vars.push(Value::Bit(rng.bool()));
    let array_var = system.add_variable(
        "arr",
        Ty::Array {
            elem: Box::new(Ty::Int(8)),
            len: 4,
        },
        behavior,
    );
    vars.push(Value::Array((0..4).map(|_| random_int(rng, 8)).collect()));

    let bit_sig = system.add_signal("s_bit", Ty::Bit);
    let bits_sig = system.add_signal("s_bits", Ty::Bits(8));
    let int_sig = system.add_signal("s_int", Ty::Int(16));
    let signals = vec![
        Value::Bit(rng.bool()),
        random_bits(rng, 8),
        random_int(rng, 16),
    ];

    Env {
        system,
        vars,
        signals,
        int_vars,
        bits_vars,
        bit_var,
        array_var,
        bit_sig,
        bits_sig,
        int_sig,
    }
}

fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

fn unary(op: UnaryOp, arg: Expr) -> Expr {
    Expr::Unary {
        op,
        arg: Box::new(arg),
    }
}

/// A random integer-valued expression of the given width.
fn gen_int(rng: &mut SplitMix64, env: &Env, depth: u32, width: u32) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(3) {
            0 => {
                let (lo, hi) = signed_range(width);
                int_const(rng.range_i64(lo, hi), width)
            }
            1 => {
                let (id, w) = *rng.pick(&env.int_vars);
                if w == width {
                    load(var(id))
                } else {
                    int_const(rng.range_i64(0, 99), width)
                }
            }
            _ if width == 16 => signal(env.int_sig),
            _ => load(index(var(env.array_var), int_const(rng.range_i64(0, 3), 8))),
        };
    }
    let op = *rng.pick(&[
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Min,
        BinOp::Max,
    ]);
    match rng.below(5) {
        0 => unary(UnaryOp::Neg, gen_int(rng, env, depth - 1, width)),
        _ => binary(
            op,
            gen_int(rng, env, depth - 1, width),
            gen_int(rng, env, depth - 1, width),
        ),
    }
}

/// A random bit-vector expression of the given width.
fn gen_bits(rng: &mut SplitMix64, env: &Env, depth: u32, width: u32) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        let raw = rng.next_u64()
            & if width >= 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
        return match rng.below(3) {
            0 => bits_const(raw, width),
            1 => {
                let (id, w) = *rng.pick(&env.bits_vars);
                if w == width {
                    load(var(id))
                } else if w > width {
                    // Slice the wider variable down to this width.
                    let lo = rng.range_u32(0, w - width);
                    slice_of(load(var(id)), lo + width - 1, lo)
                } else {
                    resize(load(var(id)), width)
                }
            }
            _ if width == 8 => signal(env.bits_sig),
            _ => bits_const(raw, width),
        };
    }
    match rng.below(6) {
        0 => binary(
            BinOp::And,
            gen_bits(rng, env, depth - 1, width),
            gen_bits(rng, env, depth - 1, width),
        ),
        1 => binary(
            BinOp::Or,
            gen_bits(rng, env, depth - 1, width),
            gen_bits(rng, env, depth - 1, width),
        ),
        2 => binary(
            BinOp::Xor,
            gen_bits(rng, env, depth - 1, width),
            gen_bits(rng, env, depth - 1, width),
        ),
        3 => unary(UnaryOp::Not, gen_bits(rng, env, depth - 1, width)),
        4 if width >= 2 => {
            let lo_w = rng.range_u32(1, width - 1);
            binary(
                BinOp::Concat,
                gen_bits(rng, env, depth - 1, lo_w),
                gen_bits(rng, env, depth - 1, width - lo_w),
            )
        }
        _ => match rng.below(3) {
            0 => {
                let w = rng.range_u32(1, 32);
                resize(gen_bits(rng, env, depth - 1, w), width)
            }
            1 => {
                let wider = width + rng.range_u32(1, 8);
                let lo = rng.range_u32(0, wider - width);
                slice_of(gen_bits(rng, env, depth - 1, wider), lo + width - 1, lo)
            }
            _ => {
                let wider = width + rng.range_u32(1, 8);
                dyn_slice_of(
                    gen_bits(rng, env, depth - 1, wider),
                    int_const(rng.range_i64(0, i64::from(wider - width)), 8),
                    width,
                )
            }
        },
    }
}

/// A random boolean expression.
fn gen_bit(rng: &mut SplitMix64, env: &Env, depth: u32) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(3) {
            0 => bit_const(rng.bool()),
            1 => load(var(env.bit_var)),
            _ => signal(env.bit_sig),
        };
    }
    match rng.below(6) {
        0 => {
            let w = *rng.pick(&WIDTHS);
            let cmp = *rng.pick(&[
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
            ]);
            binary(
                cmp,
                gen_int(rng, env, depth - 1, w),
                gen_int(rng, env, depth - 1, w),
            )
        }
        1 => binary(
            BinOp::And,
            gen_bit(rng, env, depth - 1),
            gen_bit(rng, env, depth - 1),
        ),
        2 => binary(
            BinOp::Or,
            gen_bit(rng, env, depth - 1),
            gen_bit(rng, env, depth - 1),
        ),
        3 => binary(
            BinOp::Xor,
            gen_bit(rng, env, depth - 1),
            gen_bit(rng, env, depth - 1),
        ),
        4 => unary(UnaryOp::Not, gen_bit(rng, env, depth - 1)),
        _ => {
            let w = rng.range_u32(2, 16);
            binary(
                BinOp::Eq,
                gen_bits(rng, env, depth - 1, w),
                gen_bits(rng, env, depth - 1, w),
            )
        }
    }
}

/// An intentionally ill-typed or out-of-range expression: both engines
/// must agree that it fails (or, if it happens to evaluate, on the value).
fn gen_wild(rng: &mut SplitMix64, env: &Env, depth: u32) -> Expr {
    match rng.below(5) {
        0 => binary(
            BinOp::Add,
            gen_bit(rng, env, depth),
            gen_bits(rng, env, depth, 8),
        ),
        1 => slice_of(gen_bits(rng, env, depth, 4), 12, 2),
        2 => load(index(
            var(env.array_var),
            int_const(rng.range_i64(4, 20), 8),
        )),
        3 => binary(
            BinOp::Concat,
            gen_int(rng, env, depth, 8),
            gen_int(rng, env, depth, 8),
        ),
        _ => dyn_slice_of(gen_bits(rng, env, depth, 8), gen_int(rng, env, depth, 8), 4),
    }
}

/// Compares both engines on one expression; returns whether it evaluated.
fn check(env: &Env, expr: &Expr, seed: u64, iter: usize) -> bool {
    let tree = eval_tree(&env.system, &env.vars, &env.signals, expr);
    let code = eval_bytecode(&env.system, &env.vars, &env.signals, expr);
    match (&tree, &code) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a, b,
                "value mismatch (seed {seed}, iter {iter}) on {expr:?}"
            );
            true
        }
        (Err(_), Err(_)) => false,
        _ => panic!(
            "divergence (seed {seed}, iter {iter}) on {expr:?}:\n tree: {tree:?}\n code: {code:?}"
        ),
    }
}

#[test]
fn bytecode_matches_tree_walk_on_random_expressions() {
    let mut total = 0u32;
    let mut evaluated = 0u32;
    for seed in 0..8u64 {
        let mut rng = SplitMix64::new(0x1f5e_ed00 + seed);
        let env = build_env(&mut rng);
        for iter in 0..400 {
            let depth = 1 + (rng.below(4) as u32);
            let expr = match rng.below(4) {
                0 => {
                    let w = *rng.pick(&WIDTHS);
                    gen_int(&mut rng, &env, depth, w)
                }
                1 => {
                    let w = rng.range_u32(1, 48);
                    gen_bits(&mut rng, &env, depth, w)
                }
                2 => gen_bit(&mut rng, &env, depth),
                _ => gen_wild(&mut rng, &env, depth),
            };
            total += 1;
            if check(&env, &expr, seed, iter) {
                evaluated += 1;
            }
        }
    }
    // The typed generators must keep most expressions evaluating, or the
    // test degenerates into comparing errors with errors.
    assert!(
        evaluated * 2 > total,
        "only {evaluated}/{total} expressions evaluated"
    );
}

#[test]
fn bytecode_matches_tree_walk_on_place_reads() {
    let mut rng = SplitMix64::new(0x91ace);
    let env = build_env(&mut rng);
    let (wide_bits, w) = env.bits_vars[4]; // the 32-bit vector variable
    let cases = vec![
        load(var(env.bit_var)),
        load(var(env.array_var)),
        load(index(var(env.array_var), int_const(2, 8))),
        load(slice(var(wide_bits), w - 1, w - 8)),
        load(slice(var(wide_bits), 7, 0)),
        load(dyn_slice(var(wide_bits), int_const(5, 8), 8)),
        load(dyn_slice(
            var(wide_bits),
            load(index(var(env.array_var), int_const(0, 8))),
            4,
        )),
        signal(env.bit_sig),
        signal(env.bits_sig),
        signal(env.int_sig),
    ];
    for (i, expr) in cases.iter().enumerate() {
        check(&env, expr, 0, i);
    }
}
