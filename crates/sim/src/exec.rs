//! The register-bytecode expression engine.
//!
//! Lowering (see [`crate::program`]) compiles every constant-folded
//! [`ifsyn_spec::Expr`] into an [`ExprCode`]: a flat sequence of
//! [`MicroOp`]s over a small virtual register file, executed by the
//! non-recursive loop in [`eval_code`]. Three properties make this the
//! hot-path winner over the tree walker it replaced:
//!
//! * **operand flattening** — every micro-op operand is a [`Src`] slot
//!   that can name a register, a pooled constant, a signal, a variable or
//!   a frame local directly, so leaf loads cost *zero* micro-ops and the
//!   generated-protocol idiom `DATA_BUS(offset, w)` (word slice-and-drive
//!   from a variable) is a single [`MicroOp::DynSlice`];
//! * **no recursion, no Cow** — the dispatch loop steps through a boxed
//!   slice; each op writes one owned [`Value`] into its destination
//!   register of a per-simulator register file that is reused across all
//!   evaluations (no per-eval allocation);
//! * **typed conditions** — branch and wait conditions compile to a
//!   [`Cond`] instead: stored-value and integer compares of storage with
//!   constants, and `and`/`or`/`not` of them, evaluate straight to
//!   `bool` with no register, no `Value` built and no error path; only
//!   what they cannot express stays [`ExprCode`].
//!
//! The old tree walker ([`crate::eval`]) is kept as the semantic oracle
//! for the differential test suite.

use std::borrow::Cow;

use ifsyn_spec::{BinOp, BitVec, SignalId, Ty, UnaryOp, Value};

use crate::error::{eval_error, RunError};
use crate::eval::{dyn_slice_hi, eval_binary, eval_unary, EvalCtx};

/// A micro-op operand: where a value is read from.
///
/// Leaf loads are folded into the consuming op, so an operand names
/// storage directly instead of requiring a separate load instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A virtual register written by an earlier micro-op.
    Reg(u16),
    /// An entry of the owning [`ExprCode`]'s constant pool.
    Const(u16),
    /// The current value of a signal, by index.
    Signal(u32),
    /// A system variable, by index.
    Var(u32),
    /// A local slot of the evaluating process's top frame.
    Local(u16),
}

/// One register micro-op. Every op reads its [`Src`] operands and writes
/// one owned [`Value`] into register `dst`.
#[derive(Debug, Clone, PartialEq)]
pub enum MicroOp {
    /// `dst := op a`.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        a: Src,
        /// Destination register.
        dst: u16,
    },
    /// `dst := a op b`.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Destination register.
        dst: u16,
    },
    /// `dst := a(hi downto lo)`.
    Slice {
        /// Sliced operand.
        a: Src,
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
        /// Destination register.
        dst: u16,
    },
    /// `dst := a(offset + width - 1 downto offset)` with a computed
    /// offset — the word slice-and-drive idiom of generated protocols.
    DynSlice {
        /// Sliced operand.
        a: Src,
        /// Computed low-bit offset.
        offset: Src,
        /// Slice width in bits.
        width: u32,
        /// Destination register.
        dst: u16,
    },
    /// `dst := resize(a, width)` (zero-extend or truncate).
    Resize {
        /// Resized operand.
        a: Src,
        /// Target width in bits.
        width: u32,
        /// Destination register.
        dst: u16,
    },
    /// `dst := base[index]` (array element read).
    Elem {
        /// The array operand.
        base: Src,
        /// Computed element index.
        index: Src,
        /// Destination register.
        dst: u16,
    },
}

/// A compiled expression: a flat micro-op sequence plus the slot holding
/// the final result.
///
/// A plain load (constant, signal, variable, local) compiles to *zero*
/// ops with `result` naming the storage directly.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprCode {
    /// The micro-op sequence, executed in order.
    pub ops: Box<[MicroOp]>,
    /// Where the final value lives after the last op.
    pub result: Src,
    /// Interned constants referenced by [`Src::Const`].
    pub pool: Box<[Value]>,
    /// Registers used (1 + highest `dst`); 0 for pure loads.
    pub nregs: u16,
}

impl ExprCode {
    /// `true` when this code is a pure constant (no ops, const result).
    pub fn const_value(&self) -> Option<&Value> {
        match self.result {
            Src::Const(i) if self.ops.is_empty() => self.pool.get(i as usize),
            _ => None,
        }
    }
}

/// The reusable register file. One instance lives in the simulator,
/// sized at compile time to the widest [`ExprCode`], so evaluation never
/// allocates registers.
#[derive(Debug, Default)]
pub(crate) struct RegFile {
    regs: Vec<Value>,
}

impl RegFile {
    /// An empty register file (grown on first use).
    pub fn new() -> Self {
        Self { regs: Vec::new() }
    }

    /// A register file pre-sized for code needing `n` registers.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            regs: vec![Value::Bit(false); n],
        }
    }
}

fn missing(kind: &str, idx: usize) -> RunError {
    eval_error(format!("missing {kind} {idx}"))
}

/// Reads an operand. Register and pool slots are compiler-generated and
/// always in range; context slots are bounds-checked so invalid systems
/// fail with an evaluation error, exactly like the tree walker.
#[inline]
fn fetch<'s>(
    ctx: &EvalCtx<'s>,
    code: &'s ExprCode,
    regs: &'s [Value],
    s: Src,
) -> Result<&'s Value, RunError> {
    match s {
        Src::Reg(r) => Ok(&regs[r as usize]),
        Src::Const(c) => Ok(&code.pool[c as usize]),
        Src::Signal(i) => ctx
            .signals
            .get(i as usize)
            .ok_or_else(|| missing("signal s", i as usize)),
        Src::Var(i) => ctx
            .vars
            .get(i as usize)
            .ok_or_else(|| missing("variable v", i as usize)),
        Src::Local(i) => ctx
            .locals
            .get(i as usize)
            .ok_or_else(|| missing("local slot", i as usize)),
    }
}

/// Views a value's packed bits without cloning `Bits` payloads.
#[inline]
fn bits_of(v: &Value) -> Cow<'_, BitVec> {
    match v {
        Value::Bits(b) => Cow::Borrowed(b),
        other => Cow::Owned(other.to_bits()),
    }
}

fn wrap(e: ifsyn_spec::SpecError) -> RunError {
    eval_error(e.to_string())
}

fn slice_checked(bits: &BitVec, hi: u32, lo: u32) -> Result<Value, RunError> {
    if hi >= bits.width() {
        return Err(eval_error(format!(
            "slice {hi} downto {lo} out of range for width {}",
            bits.width()
        )));
    }
    Ok(Value::Bits(bits.slice(hi, lo)))
}

/// Executes one micro-op, returning `(dst, value)`.
#[inline]
fn step<'s>(
    ctx: &EvalCtx<'s>,
    code: &'s ExprCode,
    regs: &'s [Value],
    op: &MicroOp,
) -> Result<(u16, Value), RunError> {
    match op {
        MicroOp::Unary { op, a, dst } => {
            let a = fetch(ctx, code, regs, *a)?;
            Ok((*dst, eval_unary(*op, a)?))
        }
        MicroOp::Binary { op, a, b, dst } => {
            let a = fetch(ctx, code, regs, *a)?;
            let b = fetch(ctx, code, regs, *b)?;
            Ok((*dst, eval_binary(*op, a, b)?))
        }
        MicroOp::Slice { a, hi, lo, dst } => {
            let a = fetch(ctx, code, regs, *a)?;
            Ok((*dst, slice_checked(&bits_of(a), *hi, *lo)?))
        }
        MicroOp::DynSlice {
            a,
            offset,
            width,
            dst,
        } => {
            let lo = fetch(ctx, code, regs, *offset)?.as_i64().map_err(wrap)?;
            let lo =
                u32::try_from(lo).map_err(|_| eval_error(format!("negative slice offset {lo}")))?;
            let a = fetch(ctx, code, regs, *a)?;
            let bits = bits_of(a);
            let hi = dyn_slice_hi(lo, *width, bits.width())?;
            Ok((*dst, Value::Bits(bits.slice(hi, lo))))
        }
        MicroOp::Resize { a, width, dst } => {
            let a = fetch(ctx, code, regs, *a)?;
            Ok((*dst, Value::Bits(bits_of(a).resized(*width))))
        }
        MicroOp::Elem { base, index, dst } => {
            let i = fetch(ctx, code, regs, *index)?.as_i64().map_err(wrap)?;
            let i =
                usize::try_from(i).map_err(|_| eval_error(format!("negative array index {i}")))?;
            let base = fetch(ctx, code, regs, *base)?;
            match base {
                Value::Array(items) => items
                    .get(i)
                    .cloned()
                    .map(|v| (*dst, v))
                    .ok_or_else(|| eval_error(format!("array index {i} out of range"))),
                other => Err(eval_error(format!("indexing non-array value {other}"))),
            }
        }
    }
}

/// Runs an [`ExprCode`] to completion and returns a reference to the
/// result — which may live in the register file, the constant pool, or
/// the evaluation context (pure loads never touch a register).
pub(crate) fn eval_code<'a>(
    ctx: &EvalCtx<'a>,
    code: &'a ExprCode,
    regs: &'a mut RegFile,
) -> Result<&'a Value, RunError> {
    if !code.ops.is_empty() {
        if regs.regs.len() < code.nregs as usize {
            regs.regs.resize(code.nregs as usize, Value::Bit(false));
        }
        for op in code.ops.iter() {
            let (dst, v) = step(ctx, code, &regs.regs, op)?;
            regs.regs[dst as usize] = v;
        }
    }
    fetch(ctx, code, &regs.regs, code.result)
}

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
/// [`BitVec`] keeps, zero-extended to 64 bits.
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
    /// Any other condition: bytecode whose result is read as a bit.
    Code(ExprCode),
}

impl Cond {
    /// Evaluates the condition in `ctx`.
    pub(crate) fn eval(&self, ctx: &EvalCtx<'_>, regs: &mut RegFile) -> Result<bool, RunError> {
        Ok(match self {
            Cond::Is { slot, value } => slot.read(ctx) == value,
            Cond::IntEq(a, b) => masked(a.read(ctx)) == masked(b.read(ctx)),
            Cond::IntLess { a, b, or_equal } => {
                let (a, b) = (a.read(ctx).0, b.read(ctx).0);
                a < b || (*or_equal && a == b)
            }
            Cond::Not(c) => !c.eval(ctx, regs)?,
            Cond::And(ab) => ab[0].eval(ctx, regs)? && ab[1].eval(ctx, regs)?,
            Cond::Or(ab) => ab[0].eval(ctx, regs)? || ab[1].eval(ctx, regs)?,
            Cond::Code(code) => eval_code(ctx, code, regs)?.as_bool().map_err(wrap)?,
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
    Elem(ExprCode),
    /// Static bit slice `hi downto lo`.
    Slice(u32, u32),
    /// Dynamic bit slice with computed offset and static width.
    DynSlice(ExprCode, u32),
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
    In(ExprCode),
    /// Output copied back on return.
    Out(CPlace),
    /// Input copied in at the call, copied back on return.
    InOut(CPlace),
}
