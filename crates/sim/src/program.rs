//! Lowering of statement trees into flat instruction sequences.
//!
//! Structured control flow becomes jumps; `for` loops become
//! init/test/increment triples with the (once-evaluated) bound kept on a
//! per-frame loop stack. Every behavior and procedure compiles to one
//! [`Code`] block ending in [`Instr::Ret`].
//!
//! Lowering performs all the compile-time work that keeps the
//! interpreter's hot path flat and allocation-free:
//!
//! * **constant folding** — literal subtrees (`Unary`/`Binary`/slices/
//!   resizes over constants) evaluate once here;
//! * **bytecode compilation** — every folded expression compiles to an
//!   [`ExprCode`] micro-op sequence over a reusable register file (see
//!   [`crate::exec`]), with leaf loads flattened into operand slots and
//!   the `sig = const` idiom fused into one compare superinstruction;
//! * **place compilation** — assignment targets become [`CPlace`], with
//!   whole-variable/local writes reduced to a bare index and deeper
//!   paths carrying their target type resolved at compile time;
//! * **wait compilation** — `wait until` conditions lower to a
//!   [`WaitSpec::Until`] carrying a [`CompiledCond`] (bytecode plus the
//!   display expression and signal sensitivity) behind an `Arc`, with
//!   the single-signal handshake idioms specialized to a stored-value
//!   compare ([`WaitSpec::UntilSignalIs`]);
//! * **loop fusion** — the loop back-edge is one fused
//!   increment-test-branch instruction ([`Instr::LoopIncr`]) instead of
//!   an increment, a jump and a separate guard dispatch.
//!
//! Compiled blocks are plain data behind `Arc`s, so a [`CodeCache`] can
//! share them between simulator instances: batch sweeps compile each
//! block once, keyed by a content hash of the block body and everything
//! lowering reads from its environment — the declared types of the
//! signals and variables *that block references* plus the cost model, so
//! even systems refined to different bus widths share their
//! width-independent blocks.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use ifsyn_estimate::CostModel;
use ifsyn_spec::{
    Arg, BinOp, ChannelId, Expr, ParamMode, Place, SignalId, Stmt, System, Ty, UnaryOp, Value,
    WaitCond,
};

use crate::error::SimError;
use crate::eval::{coerce, eval_binary, eval_unary, place_ty, EvalCtx};
use crate::exec::{
    eval_code, CArg, CPath, CPathStep, CPlace, CRoot, ExprCode, MicroOp, RegFile, Src,
};
use crate::process::CodeRef;

/// A compiled `wait until` condition: the bytecode to test it, the folded
/// source expression for diagnostics, and the signals it is sensitive to.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCond {
    /// The condition compiled to micro-ops.
    pub code: ExprCode,
    /// The folded expression, kept only for diagnosis rendering.
    pub display: Expr,
    /// Signals appearing in the condition, collected at compile time.
    pub sensitivity: Vec<SignalId>,
}

/// A compiled wait condition.
///
/// The run-time shape of [`WaitCond`]: `until` conditions carry their
/// compiled form behind an `Arc` so a suspending process can hold the
/// condition without cloning anything.
#[derive(Debug, Clone, PartialEq)]
pub enum WaitSpec {
    /// Suspend for a fixed number of cycles.
    ForCycles(u64),
    /// Suspend until an event on any of the listed signals.
    OnSignals(Vec<SignalId>),
    /// Suspend until an event makes the condition true (level-sensitive).
    Until(Arc<CompiledCond>),
    /// Suspend until `signal` holds exactly `value` (level-sensitive).
    ///
    /// The compiled form of the generated-handshake idiom
    /// `wait until sig = const` (and of `wait until sig` /
    /// `wait until not sig` on bit signals): checking it is one stored
    /// value compare, with no expression evaluation at all.
    UntilSignalIs {
        /// The watched signal.
        signal: SignalId,
        /// The value, pre-coerced to the signal's type so equal stored
        /// representations mean equal logical values.
        value: Value,
    },
    /// [`WaitSpec::Until`] with a watchdog: resume when the condition
    /// becomes true *or* after `cycles` cycles, whichever comes first.
    ///
    /// The code after the wait re-tests the condition to tell a satisfied
    /// wait from an expired one — exactly the VHDL `wait until ... for N`
    /// contract the hardened protocols rely on.
    UntilTimeout {
        /// The compiled condition, shared with suspended processes.
        cond: Arc<CompiledCond>,
        /// Watchdog bound in cycles.
        cycles: u64,
    },
    /// [`WaitSpec::UntilSignalIs`] with a watchdog bound.
    UntilSignalIsTimeout {
        /// The watched signal.
        signal: SignalId,
        /// The value, pre-coerced to the signal's type.
        value: Value,
        /// Watchdog bound in cycles.
        cycles: u64,
    },
}

impl WaitSpec {
    /// Whether a level-sensitive wait's condition holds, evaluated in the
    /// waiting process's scope; `None` for `wait for` and `wait on`,
    /// which have no condition.
    pub(crate) fn holds(
        &self,
        ctx: &EvalCtx<'_>,
        regs: &mut RegFile,
    ) -> Result<Option<bool>, SimError> {
        Ok(Some(match self {
            WaitSpec::ForCycles(_) | WaitSpec::OnSignals(_) => return Ok(None),
            WaitSpec::Until(cond) | WaitSpec::UntilTimeout { cond, .. } => {
                eval_code(ctx, &cond.code, regs)?
                    .as_bool()
                    .map_err(|e| SimError::eval(e.to_string()))?
            }
            WaitSpec::UntilSignalIs { signal, value }
            | WaitSpec::UntilSignalIsTimeout { signal, value, .. } => {
                ctx.signals[signal.index()] == *value
            }
        }))
    }
}

/// One lowered instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `place := value`, consuming `cost` cycles.
    Assign {
        /// Assignment target.
        place: CPlace,
        /// Assigned value.
        value: ExprCode,
        /// Cycles consumed.
        cost: u32,
    },
    /// `signal <= value`; the new value becomes visible `cost` cycles
    /// later (next delta when `cost` is zero). Constant values are
    /// pre-coerced to the signal's type at compile time.
    SignalWrite {
        /// Driven signal.
        signal: SignalId,
        /// Driven value.
        value: ExprCode,
        /// Cycles consumed (and write visibility delay).
        cost: u32,
    },
    /// Unconditional jump to an instruction index.
    Jump(usize),
    /// Jump to `target` when `cond` evaluates false.
    JumpIfNot {
        /// Branch condition.
        cond: ExprCode,
        /// Destination when false.
        target: usize,
    },
    /// `for` prologue: assign `var := from`, push `to`'s value on the
    /// frame's loop-bound stack.
    LoopInit {
        /// Loop variable.
        var: CPlace,
        /// Initial value expression.
        from: ExprCode,
        /// Final (inclusive) value expression, evaluated once.
        to: ExprCode,
    },
    /// `for` guard (loop entry only): exit (popping the bound) when
    /// `var` exceeds the bound.
    LoopTest {
        /// Loop variable.
        var: CPlace,
        /// Destination when the loop is done.
        exit: usize,
    },
    /// Fused `for` back-edge superinstruction: `var := var + 1`, then
    /// branch straight to the loop body or (popping the bound) to the
    /// exit — one dispatch instead of increment + jump + guard.
    LoopIncr {
        /// Loop variable.
        var: CPlace,
        /// First body instruction (the guard's fall-through).
        body: usize,
        /// Destination when the loop is done.
        exit: usize,
    },
    /// Suspend on a compiled wait condition.
    Wait(WaitSpec),
    /// Call a procedure by index into [`Program::procedures`].
    Call {
        /// Callee index.
        procedure: usize,
        /// Actual arguments, compiled.
        args: Vec<CArg>,
    },
    /// Abstract (ideal) channel send: writes directly into the remote
    /// variable's storage.
    ChannelSend {
        /// The channel.
        channel: ChannelId,
        /// Element address for arrays.
        addr: Option<ExprCode>,
        /// Transferred value.
        data: ExprCode,
        /// Cycles consumed.
        cost: u32,
    },
    /// Abstract (ideal) channel receive.
    ChannelReceive {
        /// The channel.
        channel: ChannelId,
        /// Element address for arrays.
        addr: Option<ExprCode>,
        /// Destination.
        target: CPlace,
        /// Cycles consumed.
        cost: u32,
    },
    /// Consume cycles without side effects (lowered [`Stmt::Compute`]).
    Consume {
        /// Cycles consumed.
        cycles: u64,
    },
    /// Runtime check; fails the simulation when false.
    Assert {
        /// The checked condition.
        cond: ExprCode,
        /// Failure diagnostic.
        note: String,
    },
    /// Return from the current frame. In a behavior's root frame this
    /// finishes (or restarts) the behavior.
    Ret,
}

/// A lowered code block.
#[derive(Debug, Clone, PartialEq)]
pub struct Code {
    /// Source name (behavior or procedure name) for diagnostics.
    pub name: String,
    /// Flat instruction sequence; always ends with [`Instr::Ret`].
    pub instrs: Vec<Instr>,
    /// Registers needed by the widest [`ExprCode`] in this block; the
    /// simulator sizes its shared register file to the maximum over all
    /// blocks.
    pub max_regs: u16,
}

/// A fully lowered system: one code block per behavior and per procedure.
///
/// Blocks are behind `Arc`s so a [`CodeCache`] can share identical
/// compilations between simulator instances.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Code per behavior, indexed like `System::behaviors`.
    pub behaviors: Vec<Arc<Code>>,
    /// Code per procedure, indexed like `System::procedures`.
    pub procedures: Vec<Arc<Code>>,
}

/// A content-hash cache of compiled [`Code`] blocks, shared between
/// simulator instances.
///
/// The key covers everything lowering reads for the block: its body, the
/// declared types of the signals and variables the body references, the
/// scope procedure's signature, and the cost model — so a hit is
/// guaranteed to be the block this system would have compiled, while
/// declarations the block never names stay out of the key. A width sweep
/// therefore compiles each width-independent block (application
/// behaviors, control-only server loops) once for the whole sweep.
#[derive(Debug, Default)]
pub struct CodeCache {
    blocks: Mutex<HashMap<u64, Arc<Code>>>,
}

impl CodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct compiled blocks held.
    pub fn len(&self) -> usize {
        self.blocks.lock().expect("cache lock").len()
    }

    /// `true` when no block has been compiled into the cache yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get_or_build(&self, key: u64, build: impl FnOnce() -> Code) -> Arc<Code> {
        if let Some(hit) = self.blocks.lock().expect("cache lock").get(&key) {
            return Arc::clone(hit);
        }
        // Built outside the lock: a racing builder costs one duplicate
        // compilation, never a stall of every other worker.
        let built = Arc::new(build());
        let mut blocks = self.blocks.lock().expect("cache lock");
        Arc::clone(blocks.entry(key).or_insert(built))
    }
}

/// The signals and variables a block body actually references —
/// everything whose declared type lowering can read for that block.
#[derive(Default)]
struct EnvRefs {
    signals: std::collections::BTreeSet<usize>,
    vars: std::collections::BTreeSet<usize>,
}

impl EnvRefs {
    fn block(&mut self, body: &[Stmt]) {
        for stmt in body {
            match stmt {
                Stmt::Assign { place, value, .. } => {
                    self.place(place);
                    self.expr(value);
                }
                Stmt::SignalAssign { signal, value, .. } => {
                    self.signals.insert(signal.index());
                    self.expr(value);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.expr(cond);
                    self.block(then_body);
                    self.block(else_body);
                }
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                } => {
                    self.place(var);
                    self.expr(from);
                    self.expr(to);
                    self.block(body);
                }
                Stmt::While { cond, body } => {
                    self.expr(cond);
                    self.block(body);
                }
                Stmt::Wait(cond) => match cond {
                    WaitCond::ForCycles(_) => {}
                    WaitCond::OnSignals(signals) => {
                        self.signals.extend(signals.iter().map(|s| s.index()));
                    }
                    WaitCond::Until(e) => self.expr(e),
                    WaitCond::UntilTimeout { cond, .. } => self.expr(cond),
                },
                Stmt::Call { args, .. } => {
                    for a in args {
                        match a {
                            Arg::In(e) => self.expr(e),
                            Arg::Out(p) | Arg::InOut(p) => self.place(p),
                        }
                    }
                }
                Stmt::ChannelSend { addr, data, .. } => {
                    if let Some(a) = addr {
                        self.expr(a);
                    }
                    self.expr(data);
                }
                Stmt::ChannelReceive { addr, target, .. } => {
                    if let Some(a) = addr {
                        self.expr(a);
                    }
                    self.place(target);
                }
                Stmt::Compute { .. } | Stmt::Return => {}
                Stmt::Assert { cond, .. } => self.expr(cond),
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Const(_) => {}
            Expr::Signal(s) => {
                self.signals.insert(s.index());
            }
            Expr::Load(place) => self.place(place),
            Expr::Unary { arg, .. } => self.expr(arg),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::SliceOf { base, .. } | Expr::Resize { base, .. } => self.expr(base),
            Expr::DynSliceOf { base, offset, .. } => {
                self.expr(base);
                self.expr(offset);
            }
        }
    }

    fn place(&mut self, p: &Place) {
        match p {
            Place::Var(v) => {
                self.vars.insert(v.index());
            }
            // Local slot types come from the scope procedure's signature,
            // hashed wholesale in `block_env_hash`.
            Place::Local(_) => {}
            Place::Index { base, index } => {
                self.place(base);
                self.expr(index);
            }
            Place::Slice { base, .. } => self.place(base),
            Place::DynSlice { base, offset, .. } => {
                self.place(base);
                self.expr(offset);
            }
        }
    }
}

/// Hashes everything lowering reads from the environment for one block
/// besides its body: the declared types of the signals and variables the
/// body references, the scope procedure's signature (local slot types),
/// and the cost model.
///
/// Hashing only the *referenced* declarations is what lets refinements
/// that differ in data width share their width-independent blocks — an
/// application behavior that only calls procedures and touches its own
/// fixed-width variables compiles once for the whole sweep, no matter
/// what width the bus signals it never names were refined to.
fn block_env_hash(system: &System, scope: CodeRef, body: &[Stmt], costs: &CostModel) -> u64 {
    let mut refs = EnvRefs::default();
    refs.block(body);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    // The referenced indices are already covered by the body hash in
    // `block_key`; pairing each with its declared type (or its absence)
    // pins down exactly what lowering resolves.
    for &s in &refs.signals {
        system.signals.get(s).map(|d| &d.ty).hash(&mut h);
    }
    0xaau8.hash(&mut h);
    for &v in &refs.vars {
        system.variables.get(v).map(|d| &d.ty).hash(&mut h);
    }
    if let CodeRef::Procedure(idx) = scope {
        if let Some(p) = system.procedures.get(idx) {
            for param in &p.params {
                let mode = match param.mode {
                    ParamMode::In => 0u8,
                    ParamMode::Out => 1,
                    ParamMode::InOut => 2,
                };
                mode.hash(&mut h);
                param.ty.hash(&mut h);
            }
            0xffu8.hash(&mut h);
            for l in &p.locals {
                l.ty.hash(&mut h);
            }
        }
    }
    (
        costs.assign_cycles,
        costs.signal_assign_cycles,
        costs.abstract_channel_cycles,
        costs.call_overhead_cycles,
        costs.loop_overhead_cycles,
    )
        .hash(&mut h);
    h.finish()
}

fn block_key(env: u64, kind: u8, name: &str, body: &[Stmt]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    env.hash(&mut h);
    kind.hash(&mut h);
    name.hash(&mut h);
    body.hash(&mut h);
    h.finish()
}

impl Program {
    /// Lowers every behavior and procedure of `system`.
    ///
    /// Statement costs default to the given [`CostModel`] when the
    /// statement's explicit `cost` is absent.
    pub fn compile(system: &System, costs: &CostModel) -> Self {
        Self::compile_cached(system, costs, None)
    }

    /// Lowers `system`, sharing identical blocks through `cache`.
    ///
    /// The cache key is per block and covers only what lowering reads for
    /// that block (see `block_env_hash`), so systems that differ only
    /// in declarations a block never references still share it.
    pub fn compile_cached(system: &System, costs: &CostModel, cache: Option<&CodeCache>) -> Self {
        let build = |kind: u8, idx: usize, name: &str, body: &[Stmt]| -> Arc<Code> {
            let scope = if kind == 0 {
                CodeRef::Behavior(idx)
            } else {
                CodeRef::Procedure(idx)
            };
            let make = || lower_block(system, scope, name, body, costs);
            match cache {
                Some(c) => {
                    let env = block_env_hash(system, scope, body, costs);
                    c.get_or_build(block_key(env, kind, name, body), make)
                }
                None => Arc::new(make()),
            }
        };
        let behaviors = system
            .behaviors
            .iter()
            .enumerate()
            .map(|(i, b)| build(0, i, &b.name, &b.body))
            .collect();
        let procedures = system
            .procedures
            .iter()
            .enumerate()
            .map(|(i, p)| build(1, i, &p.name, &p.body))
            .collect();
        Self {
            behaviors,
            procedures,
        }
    }

    /// The code block a frame executes.
    pub(crate) fn block(&self, code: CodeRef) -> &Code {
        match code {
            CodeRef::Behavior(i) => &self.behaviors[i],
            CodeRef::Procedure(i) => &self.procedures[i],
        }
    }

    /// Registers needed by the widest block: the size of an engine's
    /// shared register file.
    pub(crate) fn max_regs(&self) -> u16 {
        self.behaviors
            .iter()
            .chain(&self.procedures)
            .map(|c| c.max_regs)
            .max()
            .unwrap_or(0)
    }

    /// Signals a behavior's code can drive, including through called
    /// procedures (transitively), indexed by signal index over
    /// `n_signals` signals.
    pub(crate) fn written_signals(&self, behavior: usize, n_signals: usize) -> Vec<bool> {
        let mut out = vec![false; n_signals];
        let mut visited = vec![false; self.procedures.len()];
        let mut stack: Vec<&[Instr]> = vec![&self.behaviors[behavior].instrs];
        while let Some(instrs) = stack.pop() {
            for instr in instrs {
                match instr {
                    Instr::SignalWrite { signal, .. } => out[signal.index()] = true,
                    Instr::Call { procedure, .. } if !visited[*procedure] => {
                        visited[*procedure] = true;
                        stack.push(&self.procedures[*procedure].instrs);
                    }
                    _ => {}
                }
            }
        }
        out
    }
}

fn lower_block(
    system: &System,
    scope: CodeRef,
    name: &str,
    body: &[Stmt],
    costs: &CostModel,
) -> Code {
    let mut lowerer = Lowerer {
        system,
        scope,
        costs,
        out: Vec::new(),
        max_regs: 0,
    };
    lowerer.block(body);
    lowerer.out.push(Instr::Ret);
    Code {
        name: name.to_string(),
        instrs: lowerer.out,
        max_regs: lowerer.max_regs,
    }
}

/// Compiles one (already folded) expression into micro-ops.
///
/// Exposed to the crate for the differential test harness.
pub(crate) fn compile_expr(system: &System, expr: &Expr) -> ExprCode {
    let mut c = ExprCompiler {
        system,
        ops: Vec::new(),
        pool: Vec::new(),
        next_reg: 0,
    };
    let result = c.expr(expr);
    ExprCode {
        ops: c.ops.into_boxed_slice(),
        result,
        pool: c.pool.into_boxed_slice(),
        nregs: c.next_reg,
    }
}

struct ExprCompiler<'a> {
    system: &'a System,
    ops: Vec<MicroOp>,
    pool: Vec<Value>,
    next_reg: u16,
}

impl ExprCompiler<'_> {
    fn intern(&mut self, v: &Value) -> u16 {
        if let Some(i) = self.pool.iter().position(|p| p == v) {
            return u16::try_from(i).expect("constant pool overflow");
        }
        self.pool.push(v.clone());
        u16::try_from(self.pool.len() - 1).expect("constant pool overflow")
    }

    fn alloc(&mut self) -> u16 {
        let r = self.next_reg;
        self.next_reg = self
            .next_reg
            .checked_add(1)
            .expect("register file overflow");
        r
    }

    fn expr(&mut self, e: &Expr) -> Src {
        match e {
            Expr::Const(v) => Src::Const(self.intern(v)),
            Expr::Signal(s) => Src::Signal(s.index() as u32),
            Expr::Load(place) => self.place_read(place),
            Expr::Unary { op, arg } => {
                let a = self.expr(arg);
                // Peephole: `not (sig = const)` flips the fused compare
                // instead of spending a dispatch on the negation. Safe
                // because expression results are single-use (trees).
                if *op == UnaryOp::Not {
                    if let Some(MicroOp::CmpSignalIs { ne, dst, .. }) = self.ops.last_mut() {
                        if Src::Reg(*dst) == a {
                            *ne = !*ne;
                            return a;
                        }
                    }
                }
                let dst = self.alloc();
                self.ops.push(MicroOp::Unary { op: *op, a, dst });
                Src::Reg(dst)
            }
            Expr::Binary { op, lhs, rhs } => {
                if matches!(op, BinOp::Eq | BinOp::Ne) {
                    if let Some(src) = self.try_cmp_signal(*op, lhs, rhs) {
                        return src;
                    }
                }
                let a = self.expr(lhs);
                let b = self.expr(rhs);
                let dst = self.alloc();
                self.ops.push(MicroOp::Binary { op: *op, a, b, dst });
                Src::Reg(dst)
            }
            Expr::SliceOf { base, hi, lo } => {
                let a = self.expr(base);
                let dst = self.alloc();
                self.ops.push(MicroOp::Slice {
                    a,
                    hi: *hi,
                    lo: *lo,
                    dst,
                });
                Src::Reg(dst)
            }
            Expr::Resize { base, width } => {
                let a = self.expr(base);
                let dst = self.alloc();
                self.ops.push(MicroOp::Resize {
                    a,
                    width: *width,
                    dst,
                });
                Src::Reg(dst)
            }
            Expr::DynSliceOf {
                base,
                offset,
                width,
            } => {
                let a = self.expr(base);
                let offset = self.expr(offset);
                let dst = self.alloc();
                self.ops.push(MicroOp::DynSlice {
                    a,
                    offset,
                    width: *width,
                    dst,
                });
                Src::Reg(dst)
            }
        }
    }

    /// Fuses `sig = const` / `sig /= const` into [`MicroOp::CmpSignalIs`]
    /// when the comparison is provably a stored-value equality (the same
    /// shapes [`WaitSpec::UntilSignalIs`] specializes).
    fn try_cmp_signal(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Option<Src> {
        let (s, v) = match (lhs, rhs) {
            (Expr::Signal(s), Expr::Const(v)) | (Expr::Const(v), Expr::Signal(s)) => (s, v),
            _ => return None,
        };
        let value = precoerced_eq_const(self.system, *s, v)?;
        let pool = self.intern(&value);
        let dst = self.alloc();
        self.ops.push(MicroOp::CmpSignalIs {
            signal: s.index() as u32,
            pool,
            ne: matches!(op, BinOp::Ne),
            dst,
        });
        Some(Src::Reg(dst))
    }

    fn place_read(&mut self, place: &Place) -> Src {
        match place {
            Place::Var(v) => Src::Var(v.index() as u32),
            Place::Local(slot) => Src::Local(u16::try_from(*slot).expect("local slot overflow")),
            Place::Index { base, index } => {
                let b = self.place_read(base);
                let i = self.expr(index);
                let dst = self.alloc();
                self.ops.push(MicroOp::Elem {
                    base: b,
                    index: i,
                    dst,
                });
                Src::Reg(dst)
            }
            Place::Slice { base, hi, lo } => {
                let a = self.place_read(base);
                let dst = self.alloc();
                self.ops.push(MicroOp::Slice {
                    a,
                    hi: *hi,
                    lo: *lo,
                    dst,
                });
                Src::Reg(dst)
            }
            Place::DynSlice {
                base,
                offset,
                width,
            } => {
                let a = self.place_read(base);
                let offset = self.expr(offset);
                let dst = self.alloc();
                self.ops.push(MicroOp::DynSlice {
                    a,
                    offset,
                    width: *width,
                    dst,
                });
                Src::Reg(dst)
            }
        }
    }
}

/// Pre-coerces `v` for an equality against `signal`'s stored value, or
/// `None` when the general comparison semantics are wider than a stored
/// value compare (mixed widths with truncated bits, non-Bit/Bits types).
fn precoerced_eq_const(system: &System, signal: SignalId, v: &Value) -> Option<Value> {
    let ty = &system.signals.get(signal.index())?.ty;
    match (ty, v) {
        (Ty::Bit, Value::Bit(_)) => Some(v.clone()),
        (Ty::Bits(w), Value::Bits(bv)) if bv.width() <= *w => {
            // Zero-extending the constant to the signal's width is exactly
            // the runtime resize-and-compare semantics.
            Some(Value::Bits(bv.resized(*w)))
        }
        _ => None,
    }
}

struct Lowerer<'a> {
    system: &'a System,
    scope: CodeRef,
    costs: &'a CostModel,
    out: Vec<Instr>,
    max_regs: u16,
}

impl Lowerer<'_> {
    /// Folds and compiles an expression, tracking register demand.
    fn expr(&mut self, e: &Expr) -> ExprCode {
        let code = compile_expr(self.system, &fold_expr(e));
        self.max_regs = self.max_regs.max(code.nregs);
        code
    }

    /// Compiles a pre-folded expression (used for place sub-expressions
    /// that `fold_place` already folded).
    fn folded_expr(&mut self, e: &Expr) -> ExprCode {
        let code = compile_expr(self.system, e);
        self.max_regs = self.max_regs.max(code.nregs);
        code
    }

    fn place(&mut self, p: &Place) -> CPlace {
        let folded = fold_place(p);
        match &folded {
            Place::Var(v) => CPlace::Var(v.index() as u32),
            Place::Local(slot) => CPlace::Local(u16::try_from(*slot).expect("local slot overflow")),
            _ => {
                let ty = place_ty(self.system, self.scope, &folded).ok();
                let mut steps = Vec::new();
                let root = self.flatten_place(&folded, &mut steps);
                CPlace::Path(Box::new(CPath {
                    root,
                    steps: steps.into_boxed_slice(),
                    ty,
                }))
            }
        }
    }

    fn flatten_place(&mut self, p: &Place, steps: &mut Vec<CPathStep>) -> CRoot {
        match p {
            Place::Var(v) => CRoot::Var(v.index() as u32),
            Place::Local(slot) => CRoot::Local(u16::try_from(*slot).expect("local slot overflow")),
            Place::Index { base, index } => {
                let root = self.flatten_place(base, steps);
                let idx = self.folded_expr(index);
                steps.push(CPathStep::Elem(idx));
                root
            }
            Place::Slice { base, hi, lo } => {
                let root = self.flatten_place(base, steps);
                steps.push(CPathStep::Slice(*hi, *lo));
                root
            }
            Place::DynSlice {
                base,
                offset,
                width,
            } => {
                let root = self.flatten_place(base, steps);
                let off = self.folded_expr(offset);
                steps.push(CPathStep::DynSlice(off, *width));
                root
            }
        }
    }

    fn arg(&mut self, a: &Arg) -> CArg {
        match a {
            Arg::In(e) => CArg::In(self.expr(e)),
            Arg::Out(p) => CArg::Out(self.place(p)),
            Arg::InOut(p) => CArg::InOut(self.place(p)),
        }
    }

    fn compile_wait(&mut self, cond: &WaitCond) -> WaitSpec {
        match cond {
            WaitCond::ForCycles(n) => WaitSpec::ForCycles(*n),
            WaitCond::OnSignals(signals) => WaitSpec::OnSignals(signals.clone()),
            WaitCond::Until(expr) => {
                let folded = fold_expr(expr);
                if let Some(spec) = specialize_wait(self.system, &folded) {
                    return spec;
                }
                WaitSpec::Until(Arc::new(self.compiled_cond(folded)))
            }
            WaitCond::UntilTimeout { cond, cycles } => {
                let folded = fold_expr(cond);
                if let Some(WaitSpec::UntilSignalIs { signal, value }) =
                    specialize_wait(self.system, &folded)
                {
                    return WaitSpec::UntilSignalIsTimeout {
                        signal,
                        value,
                        cycles: *cycles,
                    };
                }
                WaitSpec::UntilTimeout {
                    cond: Arc::new(self.compiled_cond(folded)),
                    cycles: *cycles,
                }
            }
        }
    }

    fn compiled_cond(&mut self, folded: Expr) -> CompiledCond {
        let code = self.folded_expr(&folded);
        let mut sensitivity = Vec::new();
        folded.collect_signals(&mut sensitivity);
        CompiledCond {
            code,
            display: folded,
            sensitivity,
        }
    }

    fn block(&mut self, body: &[Stmt]) {
        for stmt in body {
            match stmt {
                Stmt::Assign { place, value, cost } => {
                    let instr = Instr::Assign {
                        place: self.place(place),
                        value: self.expr(value),
                        cost: cost.unwrap_or(self.costs.assign_cycles),
                    };
                    self.out.push(instr);
                }
                Stmt::SignalAssign {
                    signal,
                    value,
                    cost,
                } => {
                    let mut value = self.expr(value);
                    // Constant drives are pre-coerced to the signal's type
                    // so the runtime coercion hits its identity fast path.
                    if value.ops.is_empty() {
                        if let (Src::Const(i), Some(decl)) =
                            (value.result, self.system.signals.get(signal.index()))
                        {
                            let v = coerce(value.pool[i as usize].clone(), &decl.ty);
                            value.pool[i as usize] = v;
                        }
                    }
                    self.out.push(Instr::SignalWrite {
                        signal: *signal,
                        value,
                        cost: cost.unwrap_or(self.costs.signal_assign_cycles),
                    });
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let branch_at = self.out.len();
                    self.out.push(Instr::Jump(0)); // placeholder for JumpIfNot
                    self.block(then_body);
                    if else_body.is_empty() {
                        let end = self.out.len();
                        let cond = self.expr(cond);
                        self.out[branch_at] = Instr::JumpIfNot { cond, target: end };
                    } else {
                        let jump_end_at = self.out.len();
                        self.out.push(Instr::Jump(0)); // placeholder
                        let else_start = self.out.len();
                        let cond = self.expr(cond);
                        self.out[branch_at] = Instr::JumpIfNot {
                            cond,
                            target: else_start,
                        };
                        self.block(else_body);
                        let end = self.out.len();
                        self.out[jump_end_at] = Instr::Jump(end);
                    }
                }
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                } => {
                    let init = Instr::LoopInit {
                        var: self.place(var),
                        from: self.expr(from),
                        to: self.expr(to),
                    };
                    self.out.push(init);
                    let test_at = self.out.len();
                    self.out.push(Instr::Jump(0)); // placeholder for LoopTest
                    self.block(body);
                    let incr_at = self.out.len();
                    let incr_var = self.place(var);
                    self.out.push(Instr::LoopIncr {
                        var: incr_var,
                        body: test_at + 1,
                        exit: 0, // patched below
                    });
                    let exit = self.out.len();
                    let test_var = self.place(var);
                    self.out[test_at] = Instr::LoopTest {
                        var: test_var,
                        exit,
                    };
                    if let Instr::LoopIncr { exit: e, .. } = &mut self.out[incr_at] {
                        *e = exit;
                    }
                }
                Stmt::While { cond, body } => {
                    let test_at = self.out.len();
                    self.out.push(Instr::Jump(0)); // placeholder
                    self.block(body);
                    self.out.push(Instr::Jump(test_at));
                    let exit = self.out.len();
                    let cond = self.expr(cond);
                    self.out[test_at] = Instr::JumpIfNot { cond, target: exit };
                }
                Stmt::Wait(cond) => {
                    let spec = self.compile_wait(cond);
                    self.out.push(Instr::Wait(spec));
                }
                Stmt::Call { procedure, args } => {
                    let args = args.iter().map(|a| self.arg(a)).collect();
                    self.out.push(Instr::Call {
                        procedure: procedure.index(),
                        args,
                    });
                }
                Stmt::ChannelSend {
                    channel,
                    addr,
                    data,
                } => {
                    let instr = Instr::ChannelSend {
                        channel: *channel,
                        addr: addr.as_ref().map(|a| self.expr(a)),
                        data: self.expr(data),
                        cost: self.costs.abstract_channel_cycles,
                    };
                    self.out.push(instr);
                }
                Stmt::ChannelReceive {
                    channel,
                    addr,
                    target,
                } => {
                    let instr = Instr::ChannelReceive {
                        channel: *channel,
                        addr: addr.as_ref().map(|a| self.expr(a)),
                        target: self.place(target),
                        cost: self.costs.abstract_channel_cycles,
                    };
                    self.out.push(instr);
                }
                Stmt::Compute { cycles, .. } => self.out.push(Instr::Consume { cycles: *cycles }),
                Stmt::Assert { cond, note } => {
                    let cond = self.expr(cond);
                    self.out.push(Instr::Assert {
                        cond,
                        note: note.clone(),
                    });
                }
                Stmt::Return => self.out.push(Instr::Ret),
            }
        }
    }
}

/// Folds literal subtrees into [`Expr::Const`].
///
/// Folding only happens where the run-time evaluation would succeed with
/// the same result (e.g. an out-of-range constant slice is left in place
/// so it still fails at run time, not at compile time).
fn fold_expr(expr: &Expr) -> Expr {
    match expr {
        Expr::Const(_) | Expr::Signal(_) => expr.clone(),
        Expr::Load(place) => Expr::Load(fold_place(place)),
        Expr::Unary { op, arg } => {
            let arg = fold_expr(arg);
            if let Expr::Const(v) = &arg {
                if let Ok(res) = eval_unary(*op, v) {
                    return Expr::Const(res);
                }
            }
            Expr::Unary {
                op: *op,
                arg: Box::new(arg),
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let lhs = fold_expr(lhs);
            let rhs = fold_expr(rhs);
            if let (Expr::Const(a), Expr::Const(b)) = (&lhs, &rhs) {
                if let Ok(res) = eval_binary(*op, a, b) {
                    return Expr::Const(res);
                }
            }
            Expr::Binary {
                op: *op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            }
        }
        Expr::SliceOf { base, hi, lo } => {
            let base = fold_expr(base);
            if let Expr::Const(v) = &base {
                let bits = v.to_bits();
                if *hi >= *lo && *hi < bits.width() {
                    return Expr::Const(ifsyn_spec::Value::Bits(bits.slice(*hi, *lo)));
                }
            }
            Expr::SliceOf {
                base: Box::new(base),
                hi: *hi,
                lo: *lo,
            }
        }
        Expr::Resize { base, width } => {
            let base = fold_expr(base);
            if let Expr::Const(v) = &base {
                return Expr::Const(ifsyn_spec::Value::Bits(v.to_bits().resized(*width)));
            }
            Expr::Resize {
                base: Box::new(base),
                width: *width,
            }
        }
        Expr::DynSliceOf {
            base,
            offset,
            width,
        } => {
            let base = fold_expr(base);
            let offset = fold_expr(offset);
            if let (Expr::Const(bv), Expr::Const(ov)) = (&base, &offset) {
                if let Some(lo) = ov.as_i64().ok().and_then(|i| u32::try_from(i).ok()) {
                    let bits = bv.to_bits();
                    let hi = lo + width - 1;
                    if *width > 0 && hi < bits.width() {
                        return Expr::Const(ifsyn_spec::Value::Bits(bits.slice(hi, lo)));
                    }
                }
            }
            Expr::DynSliceOf {
                base: Box::new(base),
                offset: Box::new(offset),
                width: *width,
            }
        }
    }
}

/// Folds index and offset expressions inside a place.
fn fold_place(place: &Place) -> Place {
    match place {
        Place::Var(_) | Place::Local(_) => place.clone(),
        Place::Index { base, index } => Place::Index {
            base: Box::new(fold_place(base)),
            index: Box::new(fold_expr(index)),
        },
        Place::Slice { base, hi, lo } => Place::Slice {
            base: Box::new(fold_place(base)),
            hi: *hi,
            lo: *lo,
        },
        Place::DynSlice {
            base,
            offset,
            width,
        } => Place::DynSlice {
            base: Box::new(fold_place(base)),
            offset: Box::new(fold_expr(offset)),
            width: *width,
        },
    }
}

/// Folds an expression then compiles it — the exact pipeline production
/// lowering applies. Exposed to the crate for the differential tests.
pub(crate) fn fold_and_compile(system: &System, expr: &Expr) -> ExprCode {
    compile_expr(system, &fold_expr(expr))
}

/// Recognizes the single-signal wait idioms of generated handshake code
/// (`sig`, `not sig`, `sig = const`) and compiles them to
/// [`WaitSpec::UntilSignalIs`].
///
/// Only shapes whose runtime comparison is exactly a stored-value
/// equality are specialized; anything wider (mixed widths with nonzero
/// truncated bits, non-literal operands) keeps the general path.
fn specialize_wait(system: &System, expr: &Expr) -> Option<WaitSpec> {
    let bit_signal_is = |s: &SignalId, b: bool| -> Option<WaitSpec> {
        matches!(system.signal(*s).ty, Ty::Bit).then(|| WaitSpec::UntilSignalIs {
            signal: *s,
            value: Value::Bit(b),
        })
    };
    match expr {
        Expr::Signal(s) => bit_signal_is(s, true),
        Expr::Unary {
            op: UnaryOp::Not,
            arg,
        } => match &**arg {
            Expr::Signal(s) => bit_signal_is(s, false),
            _ => None,
        },
        Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } => {
            let (s, v) = match (&**lhs, &**rhs) {
                (Expr::Signal(s), Expr::Const(v)) | (Expr::Const(v), Expr::Signal(s)) => (s, v),
                _ => None?,
            };
            let value = precoerced_eq_const(system, *s, v)?;
            Some(WaitSpec::UntilSignalIs { signal: *s, value })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsyn_spec::dsl::*;
    use ifsyn_spec::{System, Ty, VarId};

    fn compile_body(body: Vec<Stmt>) -> Vec<Instr> {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let _x = sys.add_variable("x", Ty::Int(16), b);
        sys.behavior_mut(b).body = body;
        Program::compile(&sys, &CostModel::new()).behaviors[0]
            .instrs
            .clone()
    }

    #[test]
    fn straight_line_lowered_in_order_with_ret() {
        let x = VarId::new(0);
        let instrs = compile_body(vec![
            assign(var(x), int_const(1, 16)),
            Stmt::compute(4, "w"),
        ]);
        assert!(matches!(instrs[0], Instr::Assign { cost: 1, .. }));
        assert!(matches!(instrs[1], Instr::Consume { cycles: 4 }));
        assert!(matches!(instrs[2], Instr::Ret));
        assert_eq!(instrs.len(), 3);
    }

    #[test]
    fn if_without_else_branches_past_then() {
        let x = VarId::new(0);
        let instrs = compile_body(vec![if_then(
            bit_const(true),
            vec![assign(var(x), int_const(1, 16))],
        )]);
        match &instrs[0] {
            Instr::JumpIfNot { target, .. } => assert_eq!(*target, 2),
            other => panic!("expected JumpIfNot, got {other:?}"),
        }
    }

    #[test]
    fn if_else_jump_targets_are_consistent() {
        let x = VarId::new(0);
        let instrs = compile_body(vec![if_else(
            bit_const(true),
            vec![assign(var(x), int_const(1, 16))],
            vec![assign(var(x), int_const(2, 16))],
        )]);
        // 0: JumpIfNot -> 3 ; 1: then-assign ; 2: Jump -> 4 ; 3: else-assign ; 4: Ret
        match &instrs[0] {
            Instr::JumpIfNot { target, .. } => assert_eq!(*target, 3),
            other => panic!("unexpected {other:?}"),
        }
        match &instrs[2] {
            Instr::Jump(t) => assert_eq!(*t, 4),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(instrs[4], Instr::Ret));
    }

    #[test]
    fn for_loop_shape_is_fused() {
        let x = VarId::new(0);
        let instrs = compile_body(vec![for_loop(
            var(x),
            int_const(0, 16),
            int_const(3, 16),
            vec![Stmt::compute(1, "w")],
        )]);
        // 0: LoopInit ; 1: LoopTest -> 4 ; 2: Consume ; 3: LoopIncr {body: 2, exit: 4} ; 4: Ret
        assert!(matches!(instrs[0], Instr::LoopInit { .. }));
        match &instrs[1] {
            Instr::LoopTest { exit, .. } => assert_eq!(*exit, 4),
            other => panic!("unexpected {other:?}"),
        }
        match &instrs[3] {
            Instr::LoopIncr { body, exit, .. } => {
                assert_eq!(*body, 2);
                assert_eq!(*exit, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn while_loop_shape() {
        let instrs = compile_body(vec![while_loop(
            bit_const(false),
            vec![Stmt::compute(1, "w")],
        )]);
        // 0: JumpIfNot -> 3 ; 1: Consume ; 2: Jump -> 0 ; 3: Ret
        match &instrs[0] {
            Instr::JumpIfNot { target, .. } => assert_eq!(*target, 3),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(instrs[2], Instr::Jump(0)));
    }

    #[test]
    fn explicit_costs_override_model() {
        let x = VarId::new(0);
        let instrs = compile_body(vec![assign_cost(var(x), int_const(1, 16), 9)]);
        assert!(matches!(instrs[0], Instr::Assign { cost: 9, .. }));
    }

    #[test]
    fn constant_subtrees_fold_to_zero_op_code() {
        let x = VarId::new(0);
        let instrs = compile_body(vec![assign(
            var(x),
            add(int_const(2, 16), int_const(3, 16)),
        )]);
        match &instrs[0] {
            Instr::Assign { value, .. } => {
                let v = value.const_value().expect("folded to a pooled const");
                assert_eq!(v.as_i64().unwrap(), 5);
                assert_eq!(value.nregs, 0);
            }
            other => panic!("expected folded const, got {other:?}"),
        }
    }

    #[test]
    fn non_constant_subtrees_compile_to_micro_ops() {
        let x = VarId::new(0);
        let instrs = compile_body(vec![assign(var(x), add(load(var(x)), int_const(3, 16)))]);
        match &instrs[0] {
            Instr::Assign { value, .. } => {
                // One binary op with both leaf operands flattened in.
                assert_eq!(value.ops.len(), 1);
                assert!(matches!(
                    value.ops[0],
                    MicroOp::Binary {
                        op: BinOp::Add,
                        a: Src::Var(0),
                        b: Src::Const(0),
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_range_const_slice_is_left_for_runtime() {
        let x = VarId::new(0);
        let bad = Expr::SliceOf {
            base: Box::new(bits_const(0b11, 2)),
            hi: 5,
            lo: 0,
        };
        let instrs = compile_body(vec![assign(var(x), bad)]);
        match &instrs[0] {
            Instr::Assign { value, .. } => {
                assert!(matches!(value.ops[0], MicroOp::Slice { hi: 5, lo: 0, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn signal_eq_const_compiles_to_compare_superinstruction() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let s = sys.add_signal("addr", Ty::Bits(8));
        let x = sys.add_variable("x", Ty::Int(16), b);
        sys.behavior_mut(b).body = vec![if_then(
            eq(signal(s), bits_const(0b101, 3)),
            vec![assign(var(x), int_const(1, 16))],
        )];
        let instrs = Program::compile(&sys, &CostModel::new()).behaviors[0]
            .instrs
            .clone();
        match &instrs[0] {
            Instr::JumpIfNot { cond, .. } => {
                assert_eq!(cond.ops.len(), 1);
                match &cond.ops[0] {
                    MicroOp::CmpSignalIs {
                        signal, pool, ne, ..
                    } => {
                        assert_eq!(*signal, s.index() as u32);
                        assert!(!*ne);
                        // Pre-resized to the signal's width.
                        match &cond.pool[*pool as usize] {
                            Value::Bits(bv) => assert_eq!(bv.width(), 8),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    other => panic!("expected CmpSignalIs, got {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn word_slice_and_drive_is_one_micro_op() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let bus = sys.add_signal("DATA", Ty::Bits(8));
        let word = sys.add_variable("word", Ty::Bits(32), b);
        let off = sys.add_variable("off", Ty::Int(8), b);
        sys.behavior_mut(b).body = vec![drive(
            bus,
            Expr::DynSliceOf {
                base: Box::new(load(var(word))),
                offset: Box::new(load(var(off))),
                width: 8,
            },
        )];
        let instrs = Program::compile(&sys, &CostModel::new()).behaviors[0]
            .instrs
            .clone();
        match &instrs[0] {
            Instr::SignalWrite { value, .. } => {
                // Both the word and the offset are flattened operands.
                assert_eq!(value.ops.len(), 1);
                assert!(matches!(
                    value.ops[0],
                    MicroOp::DynSlice {
                        a: Src::Var(_),
                        offset: Src::Var(_),
                        width: 8,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wait_until_signal_eq_const_specializes_after_folding() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let s = sys.add_signal("start", Ty::Bit);
        // `not(false)` folds to the constant `true`, exposing the
        // signal-vs-const shape to the wait specializer.
        sys.behavior_mut(b).body = vec![wait_until(eq(signal(s), not(bit_const(false))))];
        let instrs = Program::compile(&sys, &CostModel::new()).behaviors[0]
            .instrs
            .clone();
        match &instrs[0] {
            Instr::Wait(WaitSpec::UntilSignalIs { signal, value }) => {
                assert_eq!(*signal, s);
                assert_eq!(*value, Value::Bit(true));
            }
            other => panic!("expected specialized wait, got {other:?}"),
        }
    }

    #[test]
    fn wait_until_bits_const_is_resized_to_signal_width() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let s = sys.add_signal("addr", Ty::Bits(8));
        sys.behavior_mut(b).body = vec![wait_until(eq(signal(s), bits_const(0b101, 3)))];
        let instrs = Program::compile(&sys, &CostModel::new()).behaviors[0]
            .instrs
            .clone();
        match &instrs[0] {
            Instr::Wait(WaitSpec::UntilSignalIs { signal, value }) => {
                assert_eq!(*signal, s);
                // Pre-resized so the runtime compare needs no coercion.
                match value {
                    Value::Bits(bv) => {
                        assert_eq!(bv.width(), 8);
                        assert_eq!(bv.to_u64(), 0b101);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("expected specialized wait, got {other:?}"),
        }
    }

    #[test]
    fn wait_until_general_expr_keeps_compiled_form_and_sensitivity() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let s = sys.add_signal("start", Ty::Bit);
        let t = sys.add_signal("stop", Ty::Bit);
        // Signal-vs-signal comparison cannot specialize; it must keep the
        // compiled form with both signals in the sensitivity list.
        sys.behavior_mut(b).body = vec![wait_until(eq(signal(s), signal(t)))];
        let instrs = Program::compile(&sys, &CostModel::new()).behaviors[0]
            .instrs
            .clone();
        match &instrs[0] {
            Instr::Wait(WaitSpec::Until(cond)) => {
                assert_eq!(cond.sensitivity, vec![s, t]);
                assert!(!cond.code.ops.is_empty());
            }
            other => panic!("expected general wait, got {other:?}"),
        }
    }

    #[test]
    fn nested_ifs_terminate_with_single_ret() {
        let x = VarId::new(0);
        let instrs = compile_body(vec![if_then(
            bit_const(true),
            vec![if_else(
                bit_const(false),
                vec![assign(var(x), int_const(1, 16))],
                vec![assign(var(x), int_const(2, 16))],
            )],
        )]);
        let rets = instrs.iter().filter(|i| matches!(i, Instr::Ret)).count();
        assert_eq!(rets, 1);
        // All jump targets must be in range.
        for i in &instrs {
            match i {
                Instr::Jump(t) | Instr::JumpIfNot { target: t, .. } => {
                    assert!(*t <= instrs.len())
                }
                Instr::LoopTest { exit, .. } => assert!(*exit <= instrs.len()),
                Instr::LoopIncr { body, exit, .. } => {
                    assert!(*body < instrs.len());
                    assert!(*exit <= instrs.len());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn code_cache_shares_identical_blocks() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let x = sys.add_variable("x", Ty::Int(16), b);
        sys.behavior_mut(b).body = vec![assign(var(x), int_const(1, 16))];
        let cache = CodeCache::new();
        let p1 = Program::compile_cached(&sys, &CostModel::new(), Some(&cache));
        let p2 = Program::compile_cached(&sys, &CostModel::new(), Some(&cache));
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&p1.behaviors[0], &p2.behaviors[0]));
    }

    #[test]
    fn code_cache_shares_blocks_across_unreferenced_decl_changes() {
        // The same behavior body in two systems whose only difference is
        // the width of a signal the body never references — exactly the
        // shape of a width sweep's application behaviors.
        let build = |data_width: u32| {
            let mut sys = System::new("t");
            let m = sys.add_module("chip");
            let b = sys.add_behavior("P", m);
            let _data = sys.add_signal("DATA", Ty::Bits(data_width));
            let x = sys.add_variable("x", Ty::Int(16), b);
            sys.behavior_mut(b).body = vec![assign(var(x), int_const(1, 16))];
            sys
        };
        let cache = CodeCache::new();
        let p8 = Program::compile_cached(&build(8), &CostModel::new(), Some(&cache));
        let p16 = Program::compile_cached(&build(16), &CostModel::new(), Some(&cache));
        assert_eq!(cache.len(), 1, "unreferenced width must not split the key");
        assert!(Arc::ptr_eq(&p8.behaviors[0], &p16.behaviors[0]));
    }

    #[test]
    fn code_cache_misses_on_referenced_signal_type_change() {
        // Same body, but the driven signal's declared type differs —
        // lowering pre-coerces the constant to it, so the key must split.
        let build = |data_width: u32| {
            let mut sys = System::new("t");
            let m = sys.add_module("chip");
            let b = sys.add_behavior("P", m);
            let data = sys.add_signal("DATA", Ty::Bits(data_width));
            sys.behavior_mut(b).body = vec![drive(data, bits_const(1, 4))];
            sys
        };
        let cache = CodeCache::new();
        let p8 = Program::compile_cached(&build(8), &CostModel::new(), Some(&cache));
        let p16 = Program::compile_cached(&build(16), &CostModel::new(), Some(&cache));
        assert_eq!(cache.len(), 2);
        assert!(!Arc::ptr_eq(&p8.behaviors[0], &p16.behaviors[0]));
    }

    #[test]
    fn code_cache_misses_on_different_cost_model() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let x = sys.add_variable("x", Ty::Int(16), b);
        sys.behavior_mut(b).body = vec![assign(var(x), int_const(1, 16))];
        let cache = CodeCache::new();
        let _ = Program::compile_cached(&sys, &CostModel::new(), Some(&cache));
        let mut other = CostModel::new();
        other.assign_cycles = 7;
        let _ = Program::compile_cached(&sys, &other, Some(&cache));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn constant_pool_is_deduplicated() {
        let mut sys = System::new("t");
        let _ = sys.add_module("chip");
        let e = add(
            mul(int_const(7, 8), load(var(VarId::new(0)))),
            mul(int_const(7, 8), load(var(VarId::new(0)))),
        );
        let code = compile_expr(&sys, &e);
        assert_eq!(code.pool.len(), 1);
    }
}
