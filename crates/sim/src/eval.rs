//! Expression evaluation and value coercion.
//!
//! [`eval`] is the one expression evaluator: the kernel and the model
//! checker tree-walk every folded instruction operand through it, and
//! folding itself (see [`crate::program`]) evaluates constant subtrees
//! with the same operators. It is allocation-conscious: [`eval`] and
//! [`read_place`] return [`Evaluated`], a copy-on-write handle that
//! borrows directly from the expression's constant, the variable store,
//! the signal store or the frame locals whenever the expression is a
//! plain load, and only materializes an owned [`Value`] for computed
//! results. Bit-vector operators run limb at a time on the packed
//! [`BitVec`] representation.

use std::borrow::Cow;
use std::ops::Deref;

use ifsyn_spec::{BinOp, BitVec, Expr, Place, System, Ty, UnaryOp, Value};

use crate::error::{eval_error, RunError, SimError};
use crate::process::CodeRef;

/// Read-only evaluation context: the world as seen by one process.
pub(crate) struct EvalCtx<'a> {
    pub vars: &'a [Value],
    pub signals: &'a [Value],
    /// Local slots of the evaluating process's top frame
    /// (for `Place::Local`).
    pub locals: &'a [Value],
}

/// A copy-on-write evaluation result.
///
/// Loads of constants, variables, locals, signals and array elements
/// borrow the stored value; computed results carry an owned one. Deref
/// to inspect, [`Evaluated::into_owned`] to keep.
#[derive(Debug)]
pub(crate) enum Evaluated<'a> {
    /// Borrowed straight from the evaluation context or the expression.
    Ref(&'a Value),
    /// A computed (owned) result.
    Owned(Value),
}

impl Deref for Evaluated<'_> {
    type Target = Value;
    fn deref(&self) -> &Value {
        match self {
            Evaluated::Ref(v) => v,
            Evaluated::Owned(v) => v,
        }
    }
}

impl Evaluated<'_> {
    /// Extracts an owned value, cloning only if borrowed.
    pub(crate) fn into_owned(self) -> Value {
        match self {
            Evaluated::Ref(v) => v.clone(),
            Evaluated::Owned(v) => v,
        }
    }
}

/// Views a value's bit-level packing without cloning `Bits` payloads.
fn to_bits_cow(v: &Value) -> Cow<'_, BitVec> {
    match v {
        Value::Bits(b) => Cow::Borrowed(b),
        other => Cow::Owned(other.to_bits()),
    }
}

/// The "natural" width of a value, used to size operation results.
fn natural_width(v: &Value) -> u32 {
    match v {
        Value::Bit(_) => 1,
        Value::Bits(b) => b.width(),
        Value::Int { width, .. } => *width,
        Value::Array(_) => 0,
    }
}

/// Coerces `value` to type `ty` by bit-level reinterpretation.
///
/// Identity when the types already match; otherwise the value is packed
/// to bits, resized, and unpacked at the target type (hardware-style
/// truncation / zero-extension).
pub(crate) fn coerce(value: Value, ty: &Ty) -> Value {
    if value.ty() == *ty {
        return value;
    }
    Value::from_bits(ty, &value.to_bits().resized(ty.bit_width()))
}

/// Computes the type of a place in the given code scope.
pub(crate) fn place_ty(system: &System, code: CodeRef, place: &Place) -> Result<Ty, SimError> {
    match place {
        Place::Var(v) => {
            let decl = system
                .variables
                .get(v.index())
                .ok_or_else(|| SimError::eval(format!("missing variable {v}")))?;
            Ok(decl.ty.clone())
        }
        Place::Local(slot) => match code {
            CodeRef::Procedure(p) => {
                let proc = &system.procedures[p];
                if *slot >= proc.slot_count() {
                    return Err(SimError::eval(format!(
                        "slot {slot} out of range in `{}`",
                        proc.name
                    )));
                }
                Ok(proc.slot_ty(*slot).clone())
            }
            CodeRef::Behavior(_) => Err(SimError::eval(
                "local slot referenced outside a procedure".to_string(),
            )),
        },
        Place::Index { base, .. } => match place_ty(system, code, base)? {
            Ty::Array { elem, .. } => Ok(*elem),
            other => Err(SimError::eval(format!("indexing non-array type {other}"))),
        },
        Place::Slice { hi, lo, .. } => Ok(Ty::Bits(hi - lo + 1)),
        Place::DynSlice { width, .. } => Ok(Ty::Bits(*width)),
    }
}

/// Reads the current value of a place, borrowing stored values where
/// the place is a plain variable, local or array element.
pub(crate) fn read_place<'a>(
    ctx: &EvalCtx<'a>,
    place: &'a Place,
) -> Result<Evaluated<'a>, RunError> {
    match place {
        Place::Var(v) => ctx
            .vars
            .get(v.index())
            .map(Evaluated::Ref)
            .ok_or_else(|| eval_error(format!("missing variable {v}"))),
        Place::Local(slot) => ctx
            .locals
            .get(*slot)
            .map(Evaluated::Ref)
            .ok_or_else(|| eval_error(format!("missing local slot {slot}"))),
        Place::Index { base, index } => {
            let container = read_place(ctx, base)?;
            let i = eval(ctx, index)?.as_i64().map_err(wrap)?;
            let i =
                usize::try_from(i).map_err(|_| eval_error(format!("negative array index {i}")))?;
            match container {
                Evaluated::Ref(Value::Array(items)) => items
                    .get(i)
                    .map(Evaluated::Ref)
                    .ok_or_else(|| eval_error(format!("array index {i} out of range"))),
                Evaluated::Owned(Value::Array(items)) => items
                    .get(i)
                    .cloned()
                    .map(Evaluated::Owned)
                    .ok_or_else(|| eval_error(format!("array index {i} out of range"))),
                other => Err(eval_error(format!("indexing non-array value {}", &*other))),
            }
        }
        Place::Slice { base, hi, lo } => {
            let base_v = read_place(ctx, base)?;
            let bits = to_bits_cow(&base_v);
            if *hi >= bits.width() {
                return Err(eval_error(format!(
                    "slice {hi} downto {lo} out of range for width {}",
                    bits.width()
                )));
            }
            Ok(Evaluated::Owned(Value::Bits(bits.slice(*hi, *lo))))
        }
        Place::DynSlice {
            base,
            offset,
            width,
        } => {
            let lo = eval(ctx, offset)?.as_i64().map_err(wrap)?;
            let lo =
                u32::try_from(lo).map_err(|_| eval_error(format!("negative slice offset {lo}")))?;
            let base_v = read_place(ctx, base)?;
            let bits = to_bits_cow(&base_v);
            let hi = dyn_slice_hi(lo, *width, bits.width())?;
            Ok(Evaluated::Owned(Value::Bits(bits.slice(hi, lo))))
        }
    }
}

fn wrap(e: ifsyn_spec::SpecError) -> RunError {
    eval_error(e.to_string())
}

/// The high bit of the dynamic slice `width` bits wide at the run-time
/// offset `lo`, or the out-of-range error when it does not fit a vector
/// `bits` wide. The sum is taken in `i64`: in `u32`, `lo + width - 1`
/// overflows for large offsets.
pub(crate) fn dyn_slice_hi(lo: u32, width: u32, bits: u32) -> Result<u32, RunError> {
    let hi = i64::from(lo) + i64::from(width) - 1;
    match u32::try_from(hi) {
        Ok(hi) if width > 0 && hi < bits => Ok(hi),
        _ => Err(eval_error(format!(
            "dynamic slice {hi} downto {lo} out of range for width {bits}"
        ))),
    }
}

/// Evaluates an expression; plain loads come back as borrows, computed
/// results as owned values.
pub(crate) fn eval<'a>(ctx: &EvalCtx<'a>, expr: &'a Expr) -> Result<Evaluated<'a>, RunError> {
    match expr {
        Expr::Const(v) => Ok(Evaluated::Ref(v)),
        Expr::Load(place) => read_place(ctx, place),
        Expr::Signal(s) => ctx
            .signals
            .get(s.index())
            .map(Evaluated::Ref)
            .ok_or_else(|| eval_error(format!("missing signal {s}"))),
        Expr::Unary { op, arg } => {
            let v = eval(ctx, arg)?;
            eval_unary(*op, &v).map(Evaluated::Owned)
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(ctx, lhs)?;
            let r = eval(ctx, rhs)?;
            eval_binary(*op, &l, &r).map(Evaluated::Owned)
        }
        Expr::SliceOf { base, hi, lo } => {
            let base_v = eval(ctx, base)?;
            let bits = to_bits_cow(&base_v);
            if *hi >= bits.width() {
                return Err(eval_error(format!(
                    "slice {hi} downto {lo} out of range for width {}",
                    bits.width()
                )));
            }
            Ok(Evaluated::Owned(Value::Bits(bits.slice(*hi, *lo))))
        }
        Expr::Resize { base, width } => {
            let base_v = eval(ctx, base)?;
            let bits = to_bits_cow(&base_v);
            Ok(Evaluated::Owned(Value::Bits(bits.resized(*width))))
        }
        Expr::DynSliceOf {
            base,
            offset,
            width,
        } => {
            let lo = eval(ctx, offset)?.as_i64().map_err(wrap)?;
            let lo =
                u32::try_from(lo).map_err(|_| eval_error(format!("negative slice offset {lo}")))?;
            let base_v = eval(ctx, base)?;
            let bits = to_bits_cow(&base_v);
            let hi = dyn_slice_hi(lo, *width, bits.width())?;
            Ok(Evaluated::Owned(Value::Bits(bits.slice(hi, lo))))
        }
    }
}

pub(crate) fn eval_unary(op: UnaryOp, v: &Value) -> Result<Value, RunError> {
    match op {
        UnaryOp::Not => match v {
            Value::Bit(b) => Ok(Value::Bit(!b)),
            Value::Bits(bv) => Ok(Value::Bits(bv.complement())),
            other => Ok(Value::Bit(!other.as_bool().map_err(wrap)?)),
        },
        UnaryOp::Neg => {
            let width = natural_width(v).max(1);
            let value = -v.as_i64().map_err(wrap)?;
            Ok(Value::Int { value, width })
        }
    }
}

pub(crate) fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value, RunError> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Rem | Min | Max => {
            let a = l.as_i64().map_err(wrap)?;
            let b = r.as_i64().map_err(wrap)?;
            let value = match op {
                Add => a.wrapping_add(b),
                Sub => a.wrapping_sub(b),
                Mul => a.wrapping_mul(b),
                Div => {
                    if b == 0 {
                        0
                    } else {
                        a / b
                    }
                }
                Rem => {
                    if b == 0 {
                        0
                    } else {
                        a % b
                    }
                }
                Min => a.min(b),
                Max => a.max(b),
                _ => unreachable!(),
            };
            let width = natural_width(l).max(natural_width(r)).max(1);
            Ok(Value::Int { value, width })
        }
        Eq | Ne => {
            let equal = match (l, r) {
                (Value::Bit(a), Value::Bit(b)) => a == b,
                // Canonical limbs: same width ⇒ representational equality
                // is logical equality, no resize needed.
                (Value::Bits(a), Value::Bits(b)) if a.width() == b.width() => a == b,
                _ => {
                    let w = natural_width(l).max(natural_width(r));
                    let a = to_bits_cow(l);
                    let b = to_bits_cow(r);
                    // Zero-extension to the common width makes limb-wise
                    // unsigned comparison exactly the old resize-and-compare
                    // semantics, except that bits past `w` must be truncated
                    // away first.
                    a.resized(w).cmp_unsigned(&b.resized(w)).is_eq()
                }
            };
            Ok(Value::Bit(if matches!(op, Eq) { equal } else { !equal }))
        }
        Lt | Le | Gt | Ge => {
            let a = l.as_i64().map_err(wrap)?;
            let b = r.as_i64().map_err(wrap)?;
            let res = match op {
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
                _ => unreachable!(),
            };
            Ok(Value::Bit(res))
        }
        And | Or | Xor => match (l, r) {
            (Value::Bit(a), Value::Bit(b)) => {
                let res = match op {
                    And => *a && *b,
                    Or => *a || *b,
                    Xor => *a != *b,
                    _ => unreachable!(),
                };
                Ok(Value::Bit(res))
            }
            _ => {
                let w = natural_width(l).max(natural_width(r)).max(1);
                let a = to_bits_cow(l);
                let b = to_bits_cow(r);
                let mut bits = match op {
                    And => a.and(&b),
                    Or => a.or(&b),
                    Xor => a.xor(&b),
                    _ => unreachable!(),
                };
                if bits.width() != w {
                    bits = bits.resized(w);
                }
                Ok(Value::Bits(bits))
            }
        },
        Concat => Ok(Value::Bits(to_bits_cow(l).concat(&to_bits_cow(r)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsyn_spec::dsl::*;
    use ifsyn_spec::{System, VarId};

    fn ctx_fixture() -> (System, Vec<Value>, Vec<Value>) {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        sys.add_variable("arr", Ty::array(Ty::Int(8), 4), b);
        sys.add_variable("x", Ty::Bits(8), b);
        let s = sys.add_signal("start", Ty::Bit);
        let _ = s;
        let vars = vec![
            Value::Array(vec![
                Value::int(10, 8),
                Value::int(20, 8),
                Value::int(30, 8),
                Value::int(40, 8),
            ]),
            Value::Bits(BitVec::from_u64(0b1010_0101, 8)),
        ];
        let signals = vec![Value::Bit(true)];
        (sys, vars, signals)
    }

    fn with_ctx<R>(f: impl FnOnce(&EvalCtx<'_>) -> R) -> R {
        let (_sys, vars, signals) = ctx_fixture();
        let locals = vec![Value::int(7, 8)];
        let ctx = EvalCtx {
            vars: &vars,
            signals: &signals,
            locals: &locals,
        };
        f(&ctx)
    }

    #[test]
    fn arithmetic_and_width() {
        with_ctx(|ctx| {
            let e = add(int_const(2, 8), int_const(3, 16));
            let v = eval(ctx, &e).unwrap().into_owned();
            assert_eq!(v, Value::int(5, 16));
        });
    }

    #[test]
    fn division_by_zero_is_zero() {
        with_ctx(|ctx| {
            let e = Expr::Binary {
                op: BinOp::Div,
                lhs: Box::new(int_const(5, 8)),
                rhs: Box::new(int_const(0, 8)),
            };
            assert_eq!(eval(ctx, &e).unwrap().as_i64().unwrap(), 0);
        });
    }

    #[test]
    fn array_index_read() {
        with_ctx(|ctx| {
            let e = load(index(var(VarId::new(0)), int_const(2, 8)));
            let v = eval(ctx, &e).unwrap();
            // Array-element loads borrow in place.
            assert!(matches!(v, Evaluated::Ref(_)));
            assert_eq!(v.into_owned(), Value::int(30, 8));
        });
    }

    #[test]
    fn array_index_out_of_range_errors() {
        with_ctx(|ctx| {
            let e = load(index(var(VarId::new(0)), int_const(9, 8)));
            assert!(eval(ctx, &e).is_err());
        });
    }

    #[test]
    fn slice_read_matches_bits() {
        with_ctx(|ctx| {
            // x = 1010_0101; bits 7..4 = 1010.
            let e = load(slice(var(VarId::new(1)), 7, 4));
            let v = eval(ctx, &e).unwrap().into_owned();
            assert_eq!(v, Value::Bits(BitVec::from_u64(0b1010, 4)));
        });
    }

    #[test]
    fn local_read() {
        with_ctx(|ctx| {
            let e = load(local(0));
            let v = eval(ctx, &e).unwrap();
            assert!(matches!(v, Evaluated::Ref(_)));
            assert_eq!(v.into_owned(), Value::int(7, 8));
        });
    }

    #[test]
    fn signal_read_and_logic() {
        with_ctx(|ctx| {
            let e = and(signal(ifsyn_spec::SignalId::new(0)), bit_const(true));
            let v = eval(ctx, &e).unwrap().into_owned();
            assert_eq!(v, Value::Bit(true));
            let e = not(signal(ifsyn_spec::SignalId::new(0)));
            let v = eval(ctx, &e).unwrap().into_owned();
            assert_eq!(v, Value::Bit(false));
        });
    }

    #[test]
    fn eq_compares_across_widths() {
        with_ctx(|ctx| {
            let e = eq(bits_const(5, 4), int_const(5, 8));
            let v = eval(ctx, &e).unwrap().into_owned();
            assert_eq!(v, Value::Bit(true));
            let e = ne(bits_const(5, 4), int_const(6, 8));
            let v = eval(ctx, &e).unwrap().into_owned();
            assert_eq!(v, Value::Bit(true));
        });
    }

    #[test]
    fn concat_keeps_lhs_low() {
        with_ctx(|ctx| {
            let e = concat(bits_const(0b01, 2), bits_const(0b11, 2));
            let v = eval(ctx, &e).unwrap().into_owned();
            assert_eq!(v, Value::Bits(BitVec::from_u64(0b1101, 4)));
        });
    }

    #[test]
    fn bitwise_ops_on_vectors() {
        with_ctx(|ctx| {
            let e = Expr::Binary {
                op: BinOp::Xor,
                lhs: Box::new(bits_const(0b1100, 4)),
                rhs: Box::new(bits_const(0b1010, 4)),
            };
            let v = eval(ctx, &e).unwrap().into_owned();
            assert_eq!(v, Value::Bits(BitVec::from_u64(0b0110, 4)));
        });
    }

    #[test]
    fn resize_truncates() {
        with_ctx(|ctx| {
            let e = resize(bits_const(0b1111, 4), 2);
            let v = eval(ctx, &e).unwrap().into_owned();
            assert_eq!(v, Value::Bits(BitVec::from_u64(0b11, 2)));
        });
    }

    #[test]
    fn const_loads_borrow_from_the_expression() {
        with_ctx(|ctx| {
            let e = int_const(42, 8);
            let v = eval(ctx, &e).unwrap();
            assert!(matches!(v, Evaluated::Ref(_)));
            assert_eq!(v.into_owned(), Value::int(42, 8));
        });
    }

    #[test]
    fn coerce_int_to_bits_and_back() {
        let v = coerce(Value::int(5, 16), &Ty::Bits(8));
        assert_eq!(v, Value::Bits(BitVec::from_u64(5, 8)));
        let v = coerce(v, &Ty::Int(16));
        assert_eq!(v, Value::int(5, 16));
    }

    #[test]
    fn coerce_identity_is_cheap_path() {
        let v = Value::int(5, 16);
        assert_eq!(coerce(v.clone(), &Ty::Int(16)), v);
    }

    #[test]
    fn place_ty_navigates() {
        let (sys, _, _) = ctx_fixture();
        let ty = place_ty(
            &sys,
            CodeRef::Behavior(0),
            &index(var(VarId::new(0)), int_const(0, 8)),
        )
        .unwrap();
        assert_eq!(ty, Ty::Int(8));
        let ty = place_ty(&sys, CodeRef::Behavior(0), &slice(var(VarId::new(1)), 3, 1)).unwrap();
        assert_eq!(ty, Ty::Bits(3));
        assert!(place_ty(&sys, CodeRef::Behavior(0), &local(0)).is_err());
    }
}
