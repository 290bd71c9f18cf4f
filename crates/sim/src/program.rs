//! Lowering of statement trees into flat instruction sequences.
//!
//! Structured control flow becomes jumps; `for` loops become
//! init/test/increment triples with the (once-evaluated) bound kept on a
//! per-frame loop stack. Every behavior and procedure compiles to one
//! [`Code`] block ending in [`Instr::Ret`].
//!
//! Lowering performs all the compile-time work that keeps the
//! interpreter's hot path short:
//!
//! * **constant folding** — literal subtrees (`Unary`/`Binary`/slices/
//!   resizes over constants) evaluate once here; every instruction
//!   operand is the folded [`Expr`] itself, tree-walked at run time by
//!   [`crate::eval`], so folding is the one transformation between a
//!   spec expression and its evaluation;
//! * **condition compilation** — every branch (`if`, `while`) and wait
//!   (`wait until`) condition compiles to a [`Cond`] that evaluates
//!   straight to `bool`: a compare of a signal, variable or local with a
//!   constant (pre-coerced to the storage's declared type) is one stored
//!   value compare, integer compares read the stored integers, and only
//!   what these cannot express stays the folded expression
//!   ([`Cond::Code`]);
//! * **place compilation** — assignment targets become [`CPlace`], with
//!   whole-variable/local writes reduced to a bare index and deeper
//!   paths carrying their target type resolved at compile time;
//! * **wait compilation** — a `wait until` lowers to a [`WaitSpec::Until`]
//!   holding its [`Cond`] inline, plus the folded source expression and
//!   signal sensitivity for every condition but the handshake idiom
//!   `sig = const`, whose compare names both;
//! * **loop fusion** — the loop back-edge is one fused
//!   increment-test-branch instruction ([`Instr::LoopIncr`]) instead of
//!   an increment, a jump and a separate guard dispatch.
//!
//! Compiled blocks are plain data behind `Arc`s, so a [`CodeCache`] can
//! share them between simulator instances: batch sweeps compile each
//! block once, keyed by a content hash of the block body and everything
//! lowering reads from its environment — the declared types of the
//! signals and variables *that block references* and the scope
//! procedure's signature — so even systems refined to different bus
//! widths share their width-independent blocks. Statement costs come
//! from one fixed model and need no place in the key.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use ifsyn_estimate::CostModel;
use ifsyn_spec::{
    Arg, BinOp, ChannelId, Expr, ParamMode, Place, SignalId, Stmt, System, Ty, UnaryOp, Value,
    WaitCond,
};

use crate::error::RunError;
use crate::eval::{coerce, dyn_slice_hi, eval_binary, eval_unary, place_ty, EvalCtx};
use crate::exec::{CArg, CPath, CPathStep, CPlace, CRoot, Cond, IntArg, Slot};
use crate::process::CodeRef;

/// A compiled `wait until` condition.
#[derive(Debug, Clone, PartialEq)]
pub struct Until {
    /// The condition.
    pub cond: Cond,
    /// The folded source expression and the signals it reads, for every
    /// condition but a [`Cond::Is`] on a signal: that compare names its
    /// one signal and renders as `sig = value` itself. Keeping the
    /// handshake idiom free of allocations keeps a sweep's cached blocks
    /// small.
    source: Option<Box<CondSource>>,
}

#[derive(Debug, Clone, PartialEq)]
struct CondSource {
    display: Expr,
    sensitivity: Vec<SignalId>,
}

impl Until {
    fn new(cond: Cond, folded: Expr) -> Self {
        let source = match cond {
            Cond::Is {
                slot: Slot::Signal(_),
                ..
            } => None,
            _ => {
                let mut sensitivity = Vec::new();
                folded.collect_signals(&mut sensitivity);
                Some(Box::new(CondSource {
                    display: folded,
                    sensitivity,
                }))
            }
        };
        Self { cond, source }
    }

    /// The folded source expression, for diagnosis; `None` for a
    /// [`Cond::Is`] on a signal.
    pub(crate) fn display(&self) -> Option<&Expr> {
        self.source.as_ref().map(|s| &s.display)
    }

    /// The signals the condition reads, each once.
    pub(crate) fn sensitivity(&self) -> &[SignalId] {
        match (&self.source, &self.cond) {
            (Some(source), _) => &source.sensitivity,
            (
                None,
                Cond::Is {
                    slot: Slot::Signal(s),
                    ..
                },
            ) => std::slice::from_ref(s),
            (None, _) => &[],
        }
    }
}

/// A compiled wait condition: the run-time shape of [`WaitCond`].
#[derive(Debug, Clone, PartialEq)]
pub enum WaitSpec {
    /// Suspend for a fixed number of cycles.
    ForCycles(u64),
    /// Suspend until an event on any of the listed signals.
    OnSignals(Vec<SignalId>),
    /// Suspend until an event makes the condition true (level-sensitive).
    Until(Until),
    /// [`WaitSpec::Until`] with a watchdog: resume when the condition
    /// becomes true *or* after `cycles` cycles, whichever comes first.
    ///
    /// The code after the wait re-tests the condition to tell a satisfied
    /// wait from an expired one — exactly the VHDL `wait until ... for N`
    /// contract the hardened protocols rely on.
    UntilTimeout {
        /// The condition.
        until: Until,
        /// Watchdog bound in cycles.
        cycles: u64,
    },
}

impl WaitSpec {
    /// Whether a level-sensitive wait's condition holds, evaluated in the
    /// waiting process's scope; `None` for `wait for` and `wait on`,
    /// which have no condition.
    pub(crate) fn holds(&self, ctx: &EvalCtx<'_>) -> Result<Option<bool>, RunError> {
        match self {
            WaitSpec::ForCycles(_) | WaitSpec::OnSignals(_) => Ok(None),
            WaitSpec::Until(until) | WaitSpec::UntilTimeout { until, .. } => {
                until.cond.eval(ctx).map(Some)
            }
        }
    }

    /// The signals whose events can wake a process suspended on this
    /// wait, each once: the `wait on` list or the signals the condition
    /// reads; none for `wait for`.
    pub(crate) fn sensitivity(&self) -> &[SignalId] {
        match self {
            WaitSpec::ForCycles(_) => &[],
            WaitSpec::OnSignals(signals) => signals,
            WaitSpec::Until(until) | WaitSpec::UntilTimeout { until, .. } => until.sensitivity(),
        }
    }

    /// The watchdog bound of a bounded wait, in cycles.
    pub(crate) fn timeout(&self) -> Option<u64> {
        match self {
            WaitSpec::UntilTimeout { cycles, .. } => Some(*cycles),
            _ => None,
        }
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
        value: Expr,
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
        value: Expr,
        /// Cycles consumed (and write visibility delay).
        cost: u32,
    },
    /// Unconditional jump to an instruction index.
    Jump(usize),
    /// Jump to `target` when `cond` evaluates false.
    JumpIfNot {
        /// Branch condition.
        cond: Cond,
        /// Destination when false.
        target: usize,
    },
    /// `for` prologue: assign `var := from`, push `to`'s value on the
    /// frame's loop-bound stack.
    LoopInit {
        /// Loop variable.
        var: CPlace,
        /// Initial value expression.
        from: Expr,
        /// Final (inclusive) value expression, evaluated once.
        to: Expr,
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
        addr: Option<Expr>,
        /// Transferred value.
        data: Expr,
        /// Cycles consumed.
        cost: u32,
    },
    /// Abstract (ideal) channel receive.
    ChannelReceive {
        /// The channel.
        channel: ChannelId,
        /// Element address for arrays.
        addr: Option<Expr>,
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
        cond: Expr,
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
/// declared types of the signals and variables the body references, and
/// the scope procedure's signature. Statement costs come from one fixed
/// model ([`CostModel::new`]), so they need no place in the key. A hit is
/// therefore guaranteed to be the block this system would have compiled,
/// while declarations the block never names stay out of the key. A width
/// sweep compiles each width-independent block (application behaviors,
/// control-only server loops) once for the whole sweep.
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
/// body references (and whether their initial values have those types),
/// and the scope procedure's signature (local slot types).
///
/// Hashing only the *referenced* declarations is what lets refinements
/// that differ in data width share their width-independent blocks — an
/// application behavior that only calls procedures and touches its own
/// fixed-width variables compiles once for the whole sweep, no matter
/// what width the bus signals it never names were refined to.
fn block_env_hash(system: &System, scope: CodeRef, body: &[Stmt]) -> u64 {
    let mut refs = EnvRefs::default();
    refs.block(body);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    // The referenced indices are already covered by the body hash in
    // `block_key`; pairing each with its declared type (or its absence)
    // pins down exactly what lowering resolves.
    for &s in &refs.signals {
        system
            .signals
            .get(s)
            .map(|d| (&d.ty, init_typed(&d.ty, d.init.as_ref())))
            .hash(&mut h);
    }
    0xaau8.hash(&mut h);
    for &v in &refs.vars {
        system
            .variables
            .get(v)
            .map(|d| (&d.ty, init_typed(&d.ty, d.init.as_ref())))
            .hash(&mut h);
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
    /// Statement costs default to [`CostModel::new`], the estimator's
    /// model, when the statement's explicit `cost` is absent.
    pub fn compile(system: &System) -> Self {
        Self::compile_cached(system, None)
    }

    /// Lowers `system`, sharing identical blocks through `cache`.
    ///
    /// The cache key is per block and covers only what lowering reads for
    /// that block (see `block_env_hash`), so systems that differ only
    /// in declarations a block never references still share it.
    pub fn compile_cached(system: &System, cache: Option<&CodeCache>) -> Self {
        let build = |kind: u8, idx: usize, name: &str, body: &[Stmt]| -> Arc<Code> {
            let scope = if kind == 0 {
                CodeRef::Behavior(idx)
            } else {
                CodeRef::Procedure(idx)
            };
            let make = || lower_block(system, scope, name, body);
            match cache {
                Some(c) => {
                    let env = block_env_hash(system, scope, body);
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

fn lower_block(system: &System, scope: CodeRef, name: &str, body: &[Stmt]) -> Code {
    let mut lowerer = Lowerer {
        system,
        scope,
        out: Vec::new(),
    };
    lowerer.block(body);
    lowerer.out.push(Instr::Ret);
    Code {
        name: name.to_string(),
        instrs: lowerer.out,
    }
}

/// Compiles a folded branch or wait condition of a block in `scope`: the
/// typed [`Cond`] when every part of it has one, otherwise the folded
/// expression itself.
pub(crate) fn compile_cond(system: &System, scope: CodeRef, folded: &Expr) -> Cond {
    CondCompiler { system, scope }
        .typed(folded)
        .unwrap_or_else(|| Cond::Code(folded.clone()))
}

/// Whether storage of type `ty` starts with a value of that type: every
/// write coerces to the declared type, but an initial value is stored as
/// given.
fn init_typed(ty: &Ty, init: Option<&Value>) -> bool {
    init.is_none_or(|v| v.ty() == *ty)
}

/// Pre-coerces `v` for an equality against storage of type `ty`, or
/// `None` when the general comparison semantics are wider than a stored
/// value compare (mixed widths with truncated bits, non-Bit/Bits types).
fn precoerced_eq_const(ty: &Ty, v: &Value) -> Option<Value> {
    match (ty, v) {
        (Ty::Bit, Value::Bit(_)) => Some(v.clone()),
        (Ty::Bits(w), Value::Bits(bv)) if bv.width() <= *w => {
            // Zero-extending the constant to the storage's width is
            // exactly the runtime resize-and-compare semantics.
            Some(Value::Bits(bv.resized(*w)))
        }
        _ => None,
    }
}

/// Builds the typed forms of [`Cond`]; `None` wherever a part has none,
/// so the caller keeps the whole condition as [`Cond::Code`].
struct CondCompiler<'a> {
    system: &'a System,
    scope: CodeRef,
}

impl CondCompiler<'_> {
    fn typed(&self, e: &Expr) -> Option<Cond> {
        match e {
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And => Some(Cond::And(Box::new([self.typed(lhs)?, self.typed(rhs)?]))),
                BinOp::Or => Some(Cond::Or(Box::new([self.typed(lhs)?, self.typed(rhs)?]))),
                BinOp::Eq => self.eq(lhs, rhs),
                BinOp::Ne => Some(Cond::Not(Box::new(self.eq(lhs, rhs)?))),
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let (l, r) = (self.int_arg(lhs)?, self.int_arg(rhs)?);
                    let (a, b) = if matches!(op, BinOp::Lt | BinOp::Le) {
                        (l, r)
                    } else {
                        (r, l)
                    };
                    Some(Cond::IntLess {
                        a,
                        b,
                        or_equal: matches!(op, BinOp::Le | BinOp::Ge),
                    })
                }
                _ => None,
            },
            Expr::Unary {
                op: UnaryOp::Not,
                arg,
            } => match self.bit_slot(arg) {
                Some(slot) => Some(Cond::Is {
                    slot,
                    value: Value::Bit(false),
                }),
                None => Some(Cond::Not(Box::new(self.typed(arg)?))),
            },
            _ => self.bit_slot(e).map(|slot| Cond::Is {
                slot,
                value: Value::Bit(true),
            }),
        }
    }

    /// `lhs = rhs`: a stored-value compare of storage with a constant, or
    /// an integer equality.
    fn eq(&self, lhs: &Expr, rhs: &Expr) -> Option<Cond> {
        if let Some(is) = self.is(lhs, rhs).or_else(|| self.is(rhs, lhs)) {
            return Some(is);
        }
        Some(Cond::IntEq(self.int_arg(lhs)?, self.int_arg(rhs)?))
    }

    fn is(&self, stored: &Expr, constant: &Expr) -> Option<Cond> {
        let Expr::Const(v) = constant else {
            return None;
        };
        let (slot, ty) = self.slot(stored)?;
        let value = precoerced_eq_const(ty, v)?;
        Some(Cond::Is { slot, value })
    }

    fn int_arg(&self, e: &Expr) -> Option<IntArg> {
        match e {
            Expr::Const(Value::Int { value, width }) => Some(IntArg::Const {
                value: *value,
                width: *width,
            }),
            _ => match self.slot(e)? {
                (slot, Ty::Int(_)) => Some(IntArg::Slot(slot)),
                _ => None,
            },
        }
    }

    fn bit_slot(&self, e: &Expr) -> Option<Slot> {
        match self.slot(e)? {
            (slot, Ty::Bit) => Some(slot),
            _ => None,
        }
    }

    /// The storage `e` reads whole and its declared type, when the index
    /// is in range and the storage holds its declared type from the
    /// start.
    fn slot(&self, e: &Expr) -> Option<(Slot, &Ty)> {
        match e {
            Expr::Signal(s) => {
                let d = self.system.signals.get(s.index())?;
                init_typed(&d.ty, d.init.as_ref()).then_some((Slot::Signal(*s), &d.ty))
            }
            Expr::Load(Place::Var(v)) => {
                let d = self.system.variables.get(v.index())?;
                let slot = Slot::Var(u32::try_from(v.index()).ok()?);
                init_typed(&d.ty, d.init.as_ref()).then_some((slot, &d.ty))
            }
            Expr::Load(Place::Local(l)) => {
                let CodeRef::Procedure(p) = self.scope else {
                    return None;
                };
                let proc = self.system.procedures.get(p)?;
                let slot = Slot::Local(u16::try_from(*l).ok()?);
                (*l < proc.slot_count()).then(|| (slot, proc.slot_ty(*l)))
            }
            _ => None,
        }
    }
}

/// The statement costs lowering charges: the estimator's model, so
/// simulated and analytic clock counts agree.
const COSTS: CostModel = CostModel::new();

struct Lowerer<'a> {
    system: &'a System,
    scope: CodeRef,
    out: Vec<Instr>,
}

impl Lowerer<'_> {
    fn cond(&self, e: &Expr) -> Cond {
        compile_cond(self.system, self.scope, &fold_expr(e))
    }

    fn until(&self, e: &Expr) -> Until {
        let folded = fold_expr(e);
        Until::new(compile_cond(self.system, self.scope, &folded), folded)
    }

    fn place(&self, p: &Place) -> CPlace {
        match fold_place(p) {
            Place::Var(v) => CPlace::Var(v.index() as u32),
            Place::Local(slot) => CPlace::Local(u16::try_from(slot).expect("local slot overflow")),
            folded => {
                let ty = place_ty(self.system, self.scope, &folded).ok();
                let mut steps = Vec::new();
                let root = flatten_place(folded, &mut steps);
                CPlace::Path(Box::new(CPath {
                    root,
                    steps: steps.into_boxed_slice(),
                    ty,
                }))
            }
        }
    }

    fn arg(&self, a: &Arg) -> CArg {
        match a {
            Arg::In(e) => CArg::In(fold_expr(e)),
            Arg::Out(p) => CArg::Out(self.place(p)),
            Arg::InOut(p) => CArg::InOut(self.place(p)),
        }
    }

    fn compile_wait(&self, cond: &WaitCond) -> WaitSpec {
        match cond {
            WaitCond::ForCycles(n) => WaitSpec::ForCycles(*n),
            WaitCond::OnSignals(signals) => {
                // Each signal once, as `until` sensitivity lists are: the
                // kernel registers a waiter once per listed signal.
                let mut unique = Vec::with_capacity(signals.len());
                for s in signals {
                    if !unique.contains(s) {
                        unique.push(*s);
                    }
                }
                WaitSpec::OnSignals(unique)
            }
            WaitCond::Until(expr) => WaitSpec::Until(self.until(expr)),
            WaitCond::UntilTimeout { cond, cycles } => WaitSpec::UntilTimeout {
                until: self.until(cond),
                cycles: *cycles,
            },
        }
    }

    fn block(&mut self, body: &[Stmt]) {
        for stmt in body {
            match stmt {
                Stmt::Assign { place, value, cost } => {
                    let instr = Instr::Assign {
                        place: self.place(place),
                        value: fold_expr(value),
                        cost: cost.unwrap_or(COSTS.assign_cycles),
                    };
                    self.out.push(instr);
                }
                Stmt::SignalAssign {
                    signal,
                    value,
                    cost,
                } => {
                    // Constant drives are pre-coerced to the signal's type
                    // so they drive verbatim, with no runtime coercion.
                    let value = match (fold_expr(value), self.system.signals.get(signal.index())) {
                        (Expr::Const(v), Some(decl)) => Expr::Const(coerce(v, &decl.ty)),
                        (value, _) => value,
                    };
                    self.out.push(Instr::SignalWrite {
                        signal: *signal,
                        value,
                        cost: cost.unwrap_or(COSTS.signal_assign_cycles),
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
                        let cond = self.cond(cond);
                        self.out[branch_at] = Instr::JumpIfNot { cond, target: end };
                    } else {
                        let jump_end_at = self.out.len();
                        self.out.push(Instr::Jump(0)); // placeholder
                        let else_start = self.out.len();
                        let cond = self.cond(cond);
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
                        from: fold_expr(from),
                        to: fold_expr(to),
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
                    let cond = self.cond(cond);
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
                        addr: addr.as_ref().map(fold_expr),
                        data: fold_expr(data),
                        cost: COSTS.abstract_channel_cycles,
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
                        addr: addr.as_ref().map(fold_expr),
                        target: self.place(target),
                        cost: COSTS.abstract_channel_cycles,
                    };
                    self.out.push(instr);
                }
                Stmt::Compute { cycles, .. } => self.out.push(Instr::Consume { cycles: *cycles }),
                Stmt::Assert { cond, note } => self.out.push(Instr::Assert {
                    cond: fold_expr(cond),
                    note: note.clone(),
                }),
                Stmt::Return => self.out.push(Instr::Ret),
            }
        }
    }
}

/// Folds literal subtrees into [`Expr::Const`].
///
/// Folding only happens where the run-time evaluation would succeed with
/// the same result (e.g. an out-of-range constant slice is left in place
/// so it still fails at run time, not at compile time). Exposed to the
/// crate for the folded-vs-unfolded differential tests.
pub(crate) fn fold_expr(expr: &Expr) -> Expr {
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
                    if let Ok(hi) = dyn_slice_hi(lo, *width, bits.width()) {
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

/// Flattens a folded non-trivial place into its root and navigation
/// steps, outermost first.
fn flatten_place(p: Place, steps: &mut Vec<CPathStep>) -> CRoot {
    match p {
        Place::Var(v) => CRoot::Var(v.index() as u32),
        Place::Local(slot) => CRoot::Local(u16::try_from(slot).expect("local slot overflow")),
        Place::Index { base, index } => {
            let root = flatten_place(*base, steps);
            steps.push(CPathStep::Elem(*index));
            root
        }
        Place::Slice { base, hi, lo } => {
            let root = flatten_place(*base, steps);
            steps.push(CPathStep::Slice(hi, lo));
            root
        }
        Place::DynSlice {
            base,
            offset,
            width,
        } => {
            let root = flatten_place(*base, steps);
            steps.push(CPathStep::DynSlice(*offset, width));
            root
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsyn_spec::dsl::*;
    use ifsyn_spec::{BitVec, System, Ty, VarId};

    fn compile_body(body: Vec<Stmt>) -> Vec<Instr> {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let _x = sys.add_variable("x", Ty::Int(16), b);
        sys.behavior_mut(b).body = body;
        Program::compile(&sys).behaviors[0].instrs.clone()
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
            Instr::Assign {
                value: Expr::Const(v),
                ..
            } => assert_eq!(*v, Value::int(5, 16)),
            other => panic!("expected folded const, got {other:?}"),
        }
    }

    #[test]
    fn non_constant_subtrees_compile_to_micro_ops() {
        let x = VarId::new(0);
        let sum = add(load(var(x)), add(int_const(1, 16), int_const(2, 16)));
        let instrs = compile_body(vec![assign(var(x), sum)]);
        match &instrs[0] {
            // The load stays; only the constant subtree folds.
            Instr::Assign { value, .. } => {
                assert_eq!(*value, add(load(var(x)), int_const(3, 16)));
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
                assert!(matches!(value, Expr::SliceOf { hi: 5, lo: 0, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn signal_eq_const_branch_compiles_to_is() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let s = sys.add_signal("addr", Ty::Bits(8));
        let x = sys.add_variable("x", Ty::Int(16), b);
        sys.behavior_mut(b).body = vec![if_then(
            eq(signal(s), bits_const(0b101, 3)),
            vec![assign(var(x), int_const(1, 16))],
        )];
        let instrs = Program::compile(&sys).behaviors[0].instrs.clone();
        match &instrs[0] {
            Instr::JumpIfNot {
                cond: Cond::Is { slot, value },
                ..
            } => {
                assert_eq!(*slot, Slot::Signal(s));
                // Pre-resized to the signal's width.
                assert_eq!(*value, Value::Bits(BitVec::from_u64(0b101, 8)));
            }
            other => panic!("expected a stored-value compare, got {other:?}"),
        }
    }

    /// Compiles `cond` as the branch condition of procedure 0 of `sys`.
    fn proc_cond(sys: &System, cond: Expr) -> Cond {
        compile_cond(sys, CodeRef::Procedure(0), &fold_expr(&cond))
    }

    #[test]
    fn handshake_branch_conditions_compile_typed() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let id = sys.add_signal("B_ID", Ty::Bits(2));
        let last = sys.add_signal("B_arb_last", Ty::Int(4));
        let ok = sys.add_variable("ok", Ty::Bit, b);
        let mut send = ifsyn_spec::Procedure::new("send");
        send.add_local("retry", Ty::Int(8));
        sys.add_procedure(send);
        let retry = load(local(0));
        let ok_low = eq(load(var(ok)), bit_const(false));
        assert_eq!(
            proc_cond(&sys, and(ok_low, le(retry.clone(), int_const(3, 8)))),
            Cond::And(Box::new([
                Cond::Is {
                    slot: Slot::Var(ok.index() as u32),
                    value: Value::Bit(false),
                },
                Cond::IntLess {
                    a: IntArg::Slot(Slot::Local(0)),
                    b: IntArg::Const { value: 3, width: 8 },
                    or_equal: true,
                },
            ]))
        );
        assert!(matches!(
            proc_cond(&sys, eq(signal(last), int_const(0, 32))),
            Cond::IntEq(IntArg::Slot(Slot::Signal(_)), IntArg::Const { .. })
        ));
        assert!(matches!(
            proc_cond(&sys, ne(bits_const(0b1, 1), signal(id))),
            Cond::Not(c) if matches!(*c, Cond::Is { .. })
        ));
        // `>` swaps its operands into `<`.
        assert!(matches!(
            proc_cond(
                &sys,
                Expr::Binary {
                    op: BinOp::Gt,
                    lhs: Box::new(retry),
                    rhs: Box::new(int_const(3, 8)),
                }
            ),
            Cond::IntLess {
                a: IntArg::Const { value: 3, .. },
                b: IntArg::Slot(Slot::Local(0)),
                or_equal: false,
            }
        ));
    }

    #[test]
    fn conditions_a_leaf_cannot_express_stay_bytecode() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("P", m);
        let s = sys.add_signal("addr", Ty::Bits(4));
        let odd = sys.add_signal_init("odd", Ty::Bits(4), Value::int(1, 8));
        let flag = sys.add_variable("flag", Ty::Bit, b);
        let _ = sys.add_procedure(ifsyn_spec::Procedure::new("p"));
        let code = |c: Expr| matches!(proc_cond(&sys, c), Cond::Code(_));
        // A constant wider than its storage.
        assert!(code(eq(signal(s), bits_const(0b1_0000, 5))));
        // An initial value of another type than the declaration.
        assert!(code(eq(signal(odd), bits_const(1, 4))));
        // `and` of a leaf with anything that could fail.
        assert!(code(and(
            load(var(flag)),
            eq(load(slice(var(flag), 3, 0)), bits_const(0, 4))
        )));
        // Vector `and` is bitwise.
        assert!(code(and(signal(s), bits_const(0b11, 4))));
        // A local outside a procedure scope.
        assert!(matches!(
            compile_cond(
                &sys,
                CodeRef::Behavior(0),
                &eq(load(local(0)), bit_const(true))
            ),
            Cond::Code(_)
        ));
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
        let instrs = Program::compile(&sys).behaviors[0].instrs.clone();
        match &instrs[0] {
            Instr::Wait(WaitSpec::Until(until)) => {
                assert_eq!(
                    until.cond,
                    Cond::Is {
                        slot: Slot::Signal(s),
                        value: Value::Bit(true)
                    }
                );
                assert_eq!(until.sensitivity(), &[s]);
                assert!(until.display().is_none());
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
        let instrs = Program::compile(&sys).behaviors[0].instrs.clone();
        match &instrs[0] {
            Instr::Wait(WaitSpec::Until(Until {
                cond: Cond::Is { slot, value },
                ..
            })) => {
                assert_eq!(*slot, Slot::Signal(s));
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
        let instrs = Program::compile(&sys).behaviors[0].instrs.clone();
        match &instrs[0] {
            Instr::Wait(WaitSpec::Until(until)) => {
                assert_eq!(until.sensitivity(), &[s, t]);
                assert!(until.display().is_some());
                assert_eq!(until.cond, Cond::Code(eq(signal(s), signal(t))));
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
        let p1 = Program::compile_cached(&sys, Some(&cache));
        let p2 = Program::compile_cached(&sys, Some(&cache));
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
        let p8 = Program::compile_cached(&build(8), Some(&cache));
        let p16 = Program::compile_cached(&build(16), Some(&cache));
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
        let p8 = Program::compile_cached(&build(8), Some(&cache));
        let p16 = Program::compile_cached(&build(16), Some(&cache));
        assert_eq!(cache.len(), 2);
        assert!(!Arc::ptr_eq(&p8.behaviors[0], &p16.behaviors[0]));
        for (p, width) in [(&p8, 8), (&p16, 16)] {
            match &p.behaviors[0].instrs[0] {
                Instr::SignalWrite {
                    value: Expr::Const(v),
                    ..
                } => assert_eq!(*v, Value::Bits(BitVec::from_u64(1, width))),
                other => panic!("expected a constant drive, got {other:?}"),
            }
        }
    }
}
