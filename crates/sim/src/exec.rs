//! Compiled operand forms: typed conditions and compiled places.
//!
//! Lowering (see [`crate::program`]) constant-folds every
//! [`ifsyn_spec::Expr`] and keeps the folded tree as the instruction
//! operand, evaluated by the tree walker in [`crate::eval`]: plain loads
//! borrow the stored value, computed results are moved, not copied. Two
//! shapes get a compiled form instead:
//!
//! * **typed conditions** — branch and wait conditions compile to a
//!   [`Cond`]: stored-value and integer compares of storage with
//!   constants, and `and`/`or`/`not` of them, evaluate straight to
//!   `bool` with no `Value` built and no error path; only what they
//!   cannot express stays the folded expression ([`Cond::Code`]);
//! * **compiled places** — assignment targets become a [`CPlace`], whole
//!   variables and locals a bare index.

use ifsyn_spec::{Expr, SignalId, Ty, Value};

use crate::error::{eval_error, RunError};
use crate::eval::{eval, EvalCtx};

/// Storage a condition reads in place: a signal, a system variable or a
/// local slot of the evaluating frame.
///
/// Compilation admits a slot only after checking its index and its
/// declared type (and that an initial value has that type), and every
/// engine write coerces to the declared type, so reading one cannot
/// fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A signal.
    Signal(SignalId),
    /// A system variable, by index.
    Var(u32),
    /// A local slot of the evaluating frame.
    Local(u16),
}

impl Slot {
    #[inline]
    fn read<'v>(self, ctx: &EvalCtx<'v>) -> &'v Value {
        match self {
            Slot::Signal(s) => &ctx.signals[s.index()],
            Slot::Var(i) => &ctx.vars[i as usize],
            Slot::Local(i) => &ctx.locals[i as usize],
        }
    }
}

/// An operand of an integer compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntArg {
    /// Storage declared `Int`.
    Slot(Slot),
    /// An `Int` constant.
    Const {
        /// The value.
        value: i64,
        /// Its width in bits.
        width: u32,
    },
}

impl IntArg {
    /// The operand's value and width. A stored `Int` is not masked to its
    /// width: a loop counter incremented in place may exceed it.
    #[inline]
    fn read(self, ctx: &EvalCtx<'_>) -> (i64, u32) {
        match self {
            IntArg::Slot(slot) => match slot.read(ctx) {
                Value::Int { value, width } => (*value, *width),
                other => unreachable!("integer storage holds {other}"),
            },
            IntArg::Const { value, width } => (value, width),
        }
    }
}

/// The low `width` bits of an integer: the bit pattern packing it to a
/// [`ifsyn_spec::BitVec`] keeps, zero-extended to 64 bits.
#[inline]
fn masked((value, width): (i64, u32)) -> u64 {
    let bits = value as u64;
    if width >= 64 {
        bits
    } else {
        bits & ((1u64 << width) - 1)
    }
}

/// A compiled branch or wait condition, evaluated straight to `bool`.
///
/// Every form but [`Cond::Code`] equals evaluating its source expression
/// and reading the result as a bit (`eval_binary`, then `as_bool`), bit
/// for bit, and never fails: compilation checked every slot, index and
/// type. Compilation nests only such forms under `not`, `and` and `or`,
/// so their operands may evaluate in any order; a condition with an
/// operand that can fail stays [`Cond::Code`] as a whole, which fails
/// exactly where the expression does.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// `slot = value` on `Bit` or `Bits` storage: one stored-value
    /// compare. The constant is pre-coerced to the slot's declared type,
    /// so equal representations mean equal logical values. A bare `Bit`
    /// slot compiles as `slot = '1'`, and `not` of one as `slot = '0'`.
    Is {
        /// The compared storage.
        slot: Slot,
        /// The constant, of the slot's declared type.
        value: Value,
    },
    /// `a = b` on integers: each side masked to its own width, as packing
    /// it to bits does, and compared at the wider one.
    IntEq(IntArg, IntArg),
    /// `a < b`, or `a <= b` when `or_equal`, on the unmasked values
    /// `as_i64` reads; `>` and `>=` compile with the operands swapped.
    IntLess {
        /// Left operand.
        a: IntArg,
        /// Right operand.
        b: IntArg,
        /// `<=` rather than `<`.
        or_equal: bool,
    },
    /// `not c`.
    Not(Box<Cond>),
    /// `a and b`.
    And(Box<[Cond; 2]>),
    /// `a or b`.
    Or(Box<[Cond; 2]>),
    /// Any other condition: the folded expression, tree-walked and read
    /// as a bit.
    Code(Expr),
}

impl Cond {
    /// Evaluates the condition in `ctx`.
    pub(crate) fn eval(&self, ctx: &EvalCtx<'_>) -> Result<bool, RunError> {
        Ok(match self {
            Cond::Is { slot, value } => slot.read(ctx) == value,
            Cond::IntEq(a, b) => masked(a.read(ctx)) == masked(b.read(ctx)),
            Cond::IntLess { a, b, or_equal } => {
                let (a, b) = (a.read(ctx).0, b.read(ctx).0);
                a < b || (*or_equal && a == b)
            }
            Cond::Not(c) => !c.eval(ctx)?,
            Cond::And(ab) => ab[0].eval(ctx)? && ab[1].eval(ctx)?,
            Cond::Or(ab) => ab[0].eval(ctx)? || ab[1].eval(ctx)?,
            Cond::Code(expr) => eval(ctx, expr)?
                .as_bool()
                .map_err(|e| eval_error(e.to_string()))?,
        })
    }
}

/// The storage root of a compiled place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CRoot {
    /// A system variable, by index.
    Var(u32),
    /// A local slot of the executing frame.
    Local(u16),
}

/// One navigation step of a compiled place path.
#[derive(Debug, Clone, PartialEq)]
pub enum CPathStep {
    /// Array element with a computed index.
    Elem(Expr),
    /// Static bit slice `hi downto lo`.
    Slice(u32, u32),
    /// Dynamic bit slice with computed offset and static width.
    DynSlice(Expr, u32),
}

/// A compiled non-trivial place: root storage, navigation steps and the
/// target's type, resolved at compile time where the scope allows it.
#[derive(Debug, Clone, PartialEq)]
pub struct CPath {
    /// Root storage.
    pub root: CRoot,
    /// Navigation from the root (outermost first).
    pub steps: Box<[CPathStep]>,
    /// The written location's type; `None` when the scope could not be
    /// typed at compile time (reported as an evaluation error if such a
    /// write ever executes).
    pub ty: Option<Ty>,
}

/// A compiled assignment target.
///
/// Whole-variable and whole-local writes — the overwhelmingly common
/// case — carry the bare storage index so the interpreter takes its
/// fast path without touching the path machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum CPlace {
    /// Whole system variable.
    Var(u32),
    /// Whole local slot.
    Local(u16),
    /// Anything deeper: array elements, bit slices.
    Path(Box<CPath>),
}

/// A compiled procedure-call argument.
#[derive(Debug, Clone, PartialEq)]
pub enum CArg {
    /// By-value input.
    In(Expr),
    /// Output copied back on return.
    Out(CPlace),
    /// Input copied in at the call, copied back on return.
    InOut(CPlace),
}
