//! Differential test: constant folding and the typed branch conditions
//! must agree with the tree walk of the unfolded expression on
//! randomized expressions.
//!
//! The entry points live in `ifsyn_sim::testing`: `eval_tree` walks the
//! `Expr` tree as written, `eval_folded` runs the production pipeline
//! (constant fold, then the tree walk of the folded expression), and
//! `eval_cond` compiles the expression as a branch condition and
//! evaluates it to `bool`. For every generated expression the folded
//! evaluation must return a value strictly equal to the unfolded one's
//! (width-sensitive) and a condition must equal the tree walk's value
//! read as a bit, or both must fail; a value from one side and an error
//! from the other is always a bug.
//!
//! The storage holds what a typed condition could get wrong: integers
//! stored unmasked (wider than their declared width, as a loop counter
//! incremented in place is), constants both wider and narrower than the
//! storage they are compared with, and a procedure frame with `Bit`,
//! `Bits` and `Int` locals.

use ifsyn_sim::testing::{eval_cond, eval_folded, eval_tree, Scope};
use ifsyn_sim::SimError;
use ifsyn_spec::dsl::*;
use ifsyn_spec::rng::SplitMix64;
use ifsyn_spec::{
    BinOp, BitVec, Expr, ParamMode, Procedure, SignalId, System, Ty, UnaryOp, Value, VarId,
};

/// Bit widths the variable palette covers.
const WIDTHS: [u32; 5] = [1, 4, 8, 16, 32];

/// The randomized storage environment one iteration evaluates against:
/// a behavior's variables and the system's signals, plus the frame of
/// the one procedure, whose slots `locals` holds.
struct Env {
    system: System,
    vars: Vec<Value>,
    signals: Vec<Value>,
    locals: Vec<Value>,
    /// Whole `Int` storage: the load, its declared width, its value.
    int_slots: Vec<(Expr, u32, i64)>,
    /// Whole `Bits` storage: the load and its value.
    bits_slots: Vec<(Expr, BitVec)>,
    /// Whole `Bit` storage.
    bit_slots: Vec<Expr>,
    array_var: VarId,
}

impl Env {
    fn scope(&self) -> Scope<'_> {
        Scope {
            vars: &self.vars,
            signals: &self.signals,
            procedure: Some(0),
            locals: &self.locals,
        }
    }
}

fn signed_range(width: u32) -> (i64, i64) {
    if width >= 63 {
        (i64::MIN / 2, i64::MAX / 2)
    } else {
        (-(1i64 << (width - 1)), (1i64 << (width - 1)) - 1)
    }
}

/// An integer of `width`, stored in range or, one time in three, past
/// it: the unmasked values in-place increments leave behind.
fn random_int(rng: &mut SplitMix64, width: u32) -> i64 {
    let (lo, hi) = signed_range(width);
    if rng.below(3) == 0 {
        let span = (hi - lo + 1).saturating_mul(8);
        rng.range_i64(-span, span)
    } else {
        rng.range_i64(lo, hi)
    }
}

fn random_bits(rng: &mut SplitMix64, width: u32) -> BitVec {
    let raw = if width >= 64 {
        rng.next_u64()
    } else {
        rng.next_u64() & ((1u64 << width) - 1)
    };
    BitVec::from_u64(raw, width)
}

fn build_env(rng: &mut SplitMix64) -> Env {
    let mut system = System::new("diff");
    let module = system.add_module("chip");
    let behavior = system.add_behavior("P", module);

    let mut vars = Vec::new();
    let mut int_slots = Vec::new();
    let mut bits_slots = Vec::new();
    for &w in &WIDTHS {
        let i = system.add_variable(format!("i{w}"), Ty::Int(w), behavior);
        let v = random_int(rng, w);
        vars.push(Value::int(v, w));
        int_slots.push((load(var(i)), w, v));
        let b = system.add_variable(format!("b{w}"), Ty::Bits(w), behavior);
        let bv = random_bits(rng, w);
        vars.push(Value::Bits(bv.clone()));
        bits_slots.push((load(var(b)), bv));
    }
    let flag = system.add_variable("flag", Ty::Bit, behavior);
    vars.push(Value::Bit(rng.bool()));
    let array_var = system.add_variable(
        "arr",
        Ty::Array {
            elem: Box::new(Ty::Int(8)),
            len: 4,
        },
        behavior,
    );
    vars.push(Value::Array(
        (0..4).map(|_| Value::int(random_int(rng, 8), 8)).collect(),
    ));

    let bit_sig = system.add_signal("s_bit", Ty::Bit);
    let bits_sig = system.add_signal("s_bits", Ty::Bits(8));
    let int_sig = system.add_signal("s_int", Ty::Int(16));
    let (sig_bits, sig_int) = (random_bits(rng, 8), random_int(rng, 16));
    let signals = vec![
        Value::Bit(rng.bool()),
        Value::Bits(sig_bits.clone()),
        Value::int(sig_int, 16),
    ];
    bits_slots.push((signal(bits_sig), sig_bits));
    int_slots.push((signal(int_sig), 16, sig_int));

    // One procedure frame: an `in` parameter and locals of each kind.
    let mut p = Procedure::new("frame");
    let l_bit = p.add_param("l_bit", Ty::Bit, ParamMode::In);
    let l_bits = p.add_local("l_bits", Ty::Bits(12));
    let l_int = p.add_local("l_int", Ty::Int(8));
    system.add_procedure(p);
    let (loc_bits, loc_int) = (random_bits(rng, 12), random_int(rng, 8));
    let locals = vec![
        Value::Bit(rng.bool()),
        Value::Bits(loc_bits.clone()),
        Value::int(loc_int, 8),
    ];
    bits_slots.push((load(local(l_bits)), loc_bits));
    int_slots.push((load(local(l_int)), 8, loc_int));

    Env {
        system,
        vars,
        signals,
        locals,
        int_slots,
        bits_slots,
        bit_slots: vec![load(var(flag)), signal(bit_sig), load(local(l_bit))],
        array_var,
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
                let (slot, w, _) = rng.pick(&env.int_slots);
                if *w == width {
                    slot.clone()
                } else {
                    int_const(rng.range_i64(0, 99), width)
                }
            }
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
        let raw = random_bits(rng, width);
        return match rng.below(2) {
            0 => Expr::Const(Value::Bits(raw)),
            _ => {
                let (slot, bv) = rng.pick(&env.bits_slots);
                let w = bv.width();
                if w == width {
                    slot.clone()
                } else if w > width {
                    // Slice the wider storage down to this width.
                    let lo = rng.range_u32(0, w - width);
                    slice_of(slot.clone(), lo + width - 1, lo)
                } else {
                    resize(slot.clone(), width)
                }
            }
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

/// A width near `w`: narrower, equal or wider, at least 1.
fn near_width(rng: &mut SplitMix64, w: u32) -> u32 {
    (i64::from(w) + rng.range_i64(-3, 3)).clamp(1, 64) as u32
}

const COMPARES: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

/// Storage compared with a constant, the shape of protocol conditions:
/// the constant is narrower than, as wide as or wider than the storage,
/// and half the time it is built from the stored value so that equality
/// actually happens. One time in five the constant's type differs from
/// the storage's.
fn gen_slot_compare(rng: &mut SplitMix64, env: &Env) -> Expr {
    let (slot, constant, ops): (Expr, Expr, &[BinOp]) = if rng.below(5) == 0 {
        let slot = match rng.below(3) {
            0 => rng.pick(&env.bit_slots).clone(),
            1 => rng.pick(&env.bits_slots).0.clone(),
            _ => rng.pick(&env.int_slots).0.clone(),
        };
        let w = rng.range_u32(1, 16);
        let constant = match rng.below(3) {
            0 => bit_const(rng.bool()),
            1 => Expr::Const(Value::Bits(random_bits(rng, w))),
            _ => int_const(random_int(rng, w), w),
        };
        (slot, constant, &COMPARES)
    } else if rng.bool() {
        let (slot, bv) = rng.pick(&env.bits_slots);
        let cw = near_width(rng, bv.width());
        let mut c = if rng.bool() {
            bv.resized(cw)
        } else {
            random_bits(rng, cw)
        };
        // A wider constant sometimes carries bits the storage lacks.
        if cw > bv.width() && rng.below(4) == 0 {
            c.set_bit(cw - 1, true);
        }
        (
            slot.clone(),
            Expr::Const(Value::Bits(c)),
            &[BinOp::Eq, BinOp::Ne],
        )
    } else {
        let (slot, w, v) = rng.pick(&env.int_slots);
        let cw = near_width(rng, *w);
        let c = match rng.below(3) {
            0 => *v,
            // Equal to the stored value below its declared width only.
            1 => v.wrapping_add(1i64.wrapping_shl(*w)),
            _ => random_int(rng, cw),
        };
        (slot.clone(), int_const(c, cw), &COMPARES)
    };
    let op = *rng.pick(ops);
    if rng.bool() {
        binary(op, slot, constant)
    } else {
        binary(op, constant, slot)
    }
}

/// A random boolean expression.
fn gen_bit(rng: &mut SplitMix64, env: &Env, depth: u32) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(3) {
            0 => bit_const(rng.bool()),
            1 => rng.pick(&env.bit_slots).clone(),
            _ => gen_slot_compare(rng, env),
        };
    }
    match rng.below(7) {
        0 => {
            let w = *rng.pick(&WIDTHS);
            let cmp = *rng.pick(&COMPARES);
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
        5 => gen_slot_compare(rng, env),
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

/// An intentionally ill-typed or out-of-range expression: both sides
/// must agree that it fails (or, if it happens to evaluate, on the value).
fn gen_wild(rng: &mut SplitMix64, env: &Env, depth: u32) -> Expr {
    match rng.below(6) {
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
        // A leaf beside a failing operand: the condition must fail where
        // the expression does, not short-circuit past it.
        4 => binary(
            *rng.pick(&[BinOp::And, BinOp::Or]),
            gen_bit(rng, env, depth),
            load(index(var(env.array_var), int_const(9, 8))),
        ),
        _ => dyn_slice_of(gen_bits(rng, env, depth, 8), gen_int(rng, env, depth, 8), 4),
    }
}

/// Compares the folded evaluation with the unfolded tree walk on one
/// expression; returns whether it evaluated.
fn check(env: &Env, expr: &Expr, seed: u64, iter: usize) -> bool {
    let tree = eval_tree(env.scope(), expr);
    let folded = eval_folded(env.scope(), expr);
    match (&tree, &folded) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a, b,
                "value mismatch (seed {seed}, iter {iter}) on {expr:?}"
            );
            true
        }
        (Err(_), Err(_)) => false,
        _ => panic!(
            "divergence (seed {seed}, iter {iter}) on {expr:?}:\n tree: {tree:?}\n folded: {folded:?}"
        ),
    }
}

/// Compares the compiled condition with the tree walk read as a bit;
/// returns whether it evaluated.
fn check_cond(env: &Env, expr: &Expr, seed: u64, iter: usize) -> bool {
    let tree = eval_tree(env.scope(), expr)
        .and_then(|v| v.as_bool().map_err(|e| SimError::eval(e.to_string())));
    let cond = eval_cond(&env.system, env.scope(), expr);
    match (&tree, &cond) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a, b,
                "condition mismatch (seed {seed}, iter {iter}) on {expr:?}"
            );
            true
        }
        (Err(_), Err(_)) => false,
        _ => panic!(
            "divergence (seed {seed}, iter {iter}) on {expr:?}:\n tree: {tree:?}\n cond: {cond:?}"
        ),
    }
}

#[test]
fn folded_matches_tree_walk_on_random_expressions() {
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
fn conditions_match_tree_walk_as_bool_on_random_expressions() {
    let mut total = 0u32;
    let mut evaluated = 0u32;
    let mut held = 0u32;
    for seed in 0..8u64 {
        let mut rng = SplitMix64::new(0xc0d1_7100 + seed);
        let env = build_env(&mut rng);
        for iter in 0..600 {
            let depth = 1 + (rng.below(4) as u32);
            let expr = if rng.below(5) == 0 {
                gen_wild(&mut rng, &env, depth)
            } else {
                gen_bit(&mut rng, &env, depth)
            };
            total += 1;
            if check_cond(&env, &expr, seed, iter) {
                evaluated += 1;
                held += u32::from(eval_cond(&env.system, env.scope(), &expr) == Ok(true));
            }
        }
    }
    assert!(
        evaluated * 2 > total,
        "only {evaluated}/{total} conditions evaluated"
    );
    // Both outcomes must be common, or agreement proves little.
    assert!(
        held * 5 > evaluated && held * 5 < evaluated * 4,
        "{held} of {evaluated} conditions held"
    );
}

#[test]
fn folded_matches_tree_walk_on_place_reads() {
    let mut rng = SplitMix64::new(0x91ace);
    let env = build_env(&mut rng);
    let b32 = VarId::new(9); // the 32-bit vector variable
    let cases = vec![
        load(var(VarId::new(10))),
        load(var(env.array_var)),
        load(index(var(env.array_var), int_const(2, 8))),
        load(slice(var(b32), 31, 24)),
        load(slice(var(b32), 7, 0)),
        load(dyn_slice(var(b32), int_const(5, 8), 8)),
        load(dyn_slice(
            var(b32),
            load(index(var(env.array_var), int_const(0, 8))),
            4,
        )),
        signal(SignalId::new(0)),
        signal(SignalId::new(1)),
        signal(SignalId::new(2)),
        load(local(0)),
        load(local(1)),
        load(local(2)),
    ];
    for (i, expr) in cases.iter().enumerate() {
        check(&env, expr, 0, i);
    }
}
