//! The instruction interpreter shared by the simulation kernel and the
//! model checker.
//!
//! The kernel runs one schedule and the checker runs every schedule, so
//! both must execute one semantics: [`run`] is the only loop over the
//! lowered [`Instr`] set, and the data plane is written once, here —
//! expression evaluation, place resolution, reads, writes and coercion,
//! procedure entry and out/inout copy-back, ideal-channel reads and
//! writes, and the fused loop instructions. What differs between the
//! engines is scheduling, and that is all an [`Engine`] supplies:
//!
//! * **storage view** — the variables, signals, the running process's
//!   frames and the register file ([`Engine::store`]);
//! * **tick** — per-instruction bookkeeping and budgets;
//! * **before-store** — a variable store is about to land;
//! * **elapse** — a costed instruction or `wait for` takes cycles;
//! * **drive** — a signal write;
//! * **suspend** — a `wait on`, or a level-sensitive wait that does not
//!   hold;
//! * **root exit** — the behavior body returned;
//! * **assert** — an assertion was evaluated.
//!
//! Operands evaluate in source order (a channel send's address before
//! its data), so the first error a statement meets is the same in both
//! engines. The program counter and the running code block are locals
//! of [`run`]: the top frame's `pc` is written back only where the
//! process leaves the loop or calls a procedure, so dispatch costs an
//! index increment.

use ifsyn_spec::{ChannelId, ParamMode, System, Ty, Value};

use crate::error::SimError;
use crate::eval::{coerce, EvalCtx};
use crate::exec::{eval_code, CArg, CPath, CPathStep, CPlace, CRoot, ExprCode, RegFile};
use crate::process::{CodeRef, Frame, ResolvedPlace, Root, Step};
use crate::program::{Instr, Program, WaitSpec};

/// The storage the running process sees.
pub(crate) struct Store<'s> {
    pub vars: &'s mut [Value],
    pub signals: &'s [Value],
    /// The running process's call stack (top frame last).
    pub frames: &'s mut Vec<Frame>,
    pub regs: &'s mut RegFile,
}

/// The scheduling side of an execution engine: everything [`run`] needs
/// besides the data plane. Hooks that return `bool` answer "does the
/// process keep running?"; when one says no, the loop stores the pc in
/// the top frame and returns.
pub(crate) trait Engine {
    /// The storage view of the running process.
    fn store(&mut self) -> Store<'_>;

    /// Called before each instruction executes, with its location. An
    /// error (a step budget) aborts the run.
    fn tick(&mut self, code: CodeRef, pc: usize) -> Result<(), SimError>;

    /// Called before a store into variable `var` lands, so a run that
    /// crashes midway is still covered.
    fn before_store(&mut self, var: usize);

    /// `cycles` (nonzero) pass; `active` is `false` for `wait for`,
    /// which is idle time rather than work.
    fn elapse(&mut self, cycles: u64, active: bool) -> Result<bool, SimError>;

    /// Drives `value`, already coerced to the signal's type, onto
    /// `signal`; the write takes `cost` cycles (zero: the next delta).
    fn drive(&mut self, signal: usize, value: Value, cost: u32) -> Result<bool, SimError>;

    /// The process blocks on `wait`: a `wait on`, or a level-sensitive
    /// wait whose condition does not hold. Returns `true` to park past
    /// the wait, `false` to park at it.
    fn suspend(&mut self, wait: &WaitSpec) -> bool;

    /// The behavior body returned: `restarted` when it repeats (a fresh
    /// root frame is already pushed), otherwise it finished.
    fn root_exit(&mut self, restarted: bool) -> bool;

    /// An assertion evaluated to `held`. Returns the time a failure is
    /// stamped with.
    fn assert(&mut self, held: bool) -> u64;
}

/// Runs process `pid` from its top frame's pc until an engine hook stops
/// it, it finishes, or an instruction fails.
pub(crate) fn run<E: Engine>(
    sys: &System,
    prog: &Program,
    pid: usize,
    e: &mut E,
) -> Result<(), SimError> {
    let (mut code, mut pc) = {
        let frame = e.store().frames.last().ok_or_else(no_frame)?;
        (frame.code, frame.pc)
    };
    let mut block = prog.block(code);
    loop {
        e.tick(code, pc)?;
        let instr = block
            .instrs
            .get(pc)
            .ok_or_else(|| SimError::eval(format!("pc {pc} out of range in `{}`", block.name)))?;
        match instr {
            Instr::Assign { place, value, cost } => {
                let v = e.store().eval_owned(value)?;
                write_place(sys, e, place, v)?;
                pc += 1;
                if *cost > 0 && !e.elapse(u64::from(*cost), true)? {
                    return park(e, pc);
                }
            }
            Instr::SignalWrite {
                signal,
                value,
                cost,
            } => {
                // Constants were pre-coerced to the signal's type at
                // compile time, so the pool value drives verbatim.
                let v = match value.const_value() {
                    Some(c) => c.clone(),
                    None => coerce(e.store().eval(value)?.clone(), &sys.signal(*signal).ty),
                };
                pc += 1;
                if !e.drive(signal.index(), v, *cost)? {
                    return park(e, pc);
                }
            }
            Instr::Jump(target) => pc = *target,
            Instr::JumpIfNot { cond, target } => {
                pc = if e.store().eval_bool(cond)? {
                    pc + 1
                } else {
                    *target
                };
            }
            Instr::LoopInit { var, from, to } => {
                let bound = e.store().eval_i64(to)?;
                let start = e.store().eval_owned(from)?;
                write_place(sys, e, var, start)?;
                top(e.store().frames).loop_bounds.push(bound);
                pc += 1;
            }
            Instr::LoopTest { var, exit } => {
                let mut st = e.store();
                let v = st.read_counter(var)?;
                pc = loop_next(st.frames, v, pc + 1, *exit)?;
            }
            Instr::LoopIncr { var, body, exit } => {
                let v = increment(sys, e, var)?;
                pc = loop_next(e.store().frames, v, *body, *exit)?;
            }
            Instr::Wait(WaitSpec::ForCycles(n)) => {
                pc += 1;
                if *n > 0 && !e.elapse(*n, false)? {
                    return park(e, pc);
                }
            }
            Instr::Wait(wait) => {
                let held = {
                    let mut st = e.store();
                    let (ctx, regs) = st.scope()?;
                    wait.holds(&ctx, regs)?
                };
                if held != Some(true) {
                    if e.suspend(wait) {
                        pc += 1;
                    }
                    return park(e, pc);
                }
                pc += 1;
            }
            Instr::Call { procedure, args } => {
                // The return address is stored before the callee frame
                // is pushed; argument evaluation still sees the caller
                // frame on top.
                park(e, pc + 1)?;
                e.store().enter(sys, *procedure, args)?;
                code = CodeRef::Procedure(*procedure);
                block = prog.block(code);
                pc = 0;
            }
            Instr::Ret => {
                leave_frame(e)?;
                if e.store().frames.is_empty() {
                    let restarted = sys.behaviors[pid].repeats;
                    if restarted {
                        e.store()
                            .frames
                            .push(Frame::new(CodeRef::Behavior(pid), Vec::new()));
                    }
                    if !e.root_exit(restarted) {
                        return Ok(());
                    }
                }
                let frame = top(e.store().frames);
                (code, pc) = (frame.code, frame.pc);
                block = prog.block(code);
            }
            Instr::ChannelSend {
                channel,
                addr,
                data,
                cost,
            } => {
                let addr = match addr {
                    Some(a) => Some(e.store().eval_i64(a)?),
                    None => None,
                };
                let v = e.store().eval_owned(data)?;
                channel_write(sys, e, *channel, addr, v)?;
                pc += 1;
                if *cost > 0 && !e.elapse(u64::from(*cost), true)? {
                    return park(e, pc);
                }
            }
            Instr::ChannelReceive {
                channel,
                addr,
                target,
                cost,
            } => {
                let addr = match addr {
                    Some(a) => Some(e.store().eval_i64(a)?),
                    None => None,
                };
                let v = channel_read(sys, e.store().vars, *channel, addr)?;
                write_place(sys, e, target, v)?;
                pc += 1;
                if *cost > 0 && !e.elapse(u64::from(*cost), true)? {
                    return park(e, pc);
                }
            }
            Instr::Assert { cond, note } => {
                let held = e.store().eval_bool(cond)?;
                let time = e.assert(held);
                if !held {
                    return Err(SimError::AssertionFailed {
                        behavior: sys.behaviors[pid].name.clone(),
                        note: note.clone(),
                        time,
                    });
                }
                pc += 1;
            }
            Instr::Consume { cycles } => {
                pc += 1;
                if *cycles > 0 && !e.elapse(*cycles, true)? {
                    return park(e, pc);
                }
            }
        }
    }
}

fn no_frame() -> SimError {
    SimError::eval("process has no frame".to_string())
}

fn top(frames: &mut [Frame]) -> &mut Frame {
    frames.last_mut().expect("a running process has a frame")
}

/// Stores `pc` in the top frame: where the process resumes.
fn park<E: Engine>(e: &mut E, pc: usize) -> Result<(), SimError> {
    top(e.store().frames).pc = pc;
    Ok(())
}

impl Store<'_> {
    /// The evaluation context of the process's current (top) frame, and
    /// the register file.
    fn scope(&mut self) -> Result<(EvalCtx<'_>, &mut RegFile), SimError> {
        let frame = self.frames.last().ok_or_else(no_frame)?;
        let ctx = EvalCtx {
            vars: &*self.vars,
            signals: self.signals,
            locals: &frame.locals,
        };
        Ok((ctx, &mut *self.regs))
    }

    /// Evaluates compiled code in the process's current scope, borrowing
    /// the result from wherever it lives (register, pool, storage).
    fn eval<'t>(&'t mut self, code: &'t ExprCode) -> Result<&'t Value, SimError> {
        let (ctx, regs) = self.scope()?;
        eval_code(&ctx, code, regs)
    }

    /// Evaluates to an owned value; constant sources skip the evaluation
    /// context.
    fn eval_owned(&mut self, code: &ExprCode) -> Result<Value, SimError> {
        match code.const_value() {
            Some(c) => Ok(c.clone()),
            None => Ok(self.eval(code)?.clone()),
        }
    }

    fn eval_bool(&mut self, code: &ExprCode) -> Result<bool, SimError> {
        self.eval(code)?
            .as_bool()
            .map_err(|e| SimError::eval(e.to_string()))
    }

    /// Evaluates to an integer (loop bounds, addresses, slice offsets).
    fn eval_i64(&mut self, code: &ExprCode) -> Result<i64, SimError> {
        self.eval(code)?
            .as_i64()
            .map_err(|e| SimError::eval(e.to_string()))
    }

    /// Resolves a compiled path to concrete storage steps; index and
    /// offset code evaluates in the top frame, the root local (if any)
    /// lives in frame `frame_abs`.
    fn resolve(&mut self, path: &CPath, frame_abs: usize) -> Result<ResolvedPlace, SimError> {
        let root = match path.root {
            CRoot::Var(i) => Root::Var(i as usize),
            CRoot::Local(s) => Root::Local {
                frame: frame_abs,
                slot: s as usize,
            },
        };
        let mut steps = Vec::with_capacity(path.steps.len());
        for st in path.steps.iter() {
            match st {
                CPathStep::Elem(code) => {
                    let i = self.eval_i64(code)?;
                    let i = usize::try_from(i)
                        .map_err(|_| SimError::eval(format!("negative array index {i}")))?;
                    steps.push(Step::Elem(i));
                }
                CPathStep::Slice(hi, lo) => steps.push(Step::Slice(*hi, *lo)),
                CPathStep::DynSlice(code, width) => {
                    // The offset evaluates once at resolution time, turning
                    // the dynamic slice into a concrete one.
                    let lo = self.eval_i64(code)?;
                    let lo = u32::try_from(lo)
                        .map_err(|_| SimError::eval(format!("negative slice offset {lo}")))?;
                    steps.push(Step::Slice(lo + width - 1, lo));
                }
            }
        }
        Ok(ResolvedPlace { root, steps })
    }

    /// Resolves a place for copy-back, returning the concrete destination
    /// and its type (captured at call time, VHDL-style).
    fn resolve_place(
        &mut self,
        sys: &System,
        place: &CPlace,
        frame_abs: usize,
    ) -> Result<(ResolvedPlace, Ty), SimError> {
        match place {
            CPlace::Var(i) => {
                let decl = sys
                    .variables
                    .get(*i as usize)
                    .ok_or_else(|| missing_var(*i as usize))?;
                let root = Root::Var(*i as usize);
                Ok((whole(root), decl.ty.clone()))
            }
            CPlace::Local(slot) => {
                let slot = *slot as usize;
                let ty = local_ty(sys, self.frames[frame_abs].code, slot)?;
                let root = Root::Local {
                    frame: frame_abs,
                    slot,
                };
                Ok((whole(root), ty.clone()))
            }
            CPlace::Path(path) => {
                let ty = path
                    .ty
                    .clone()
                    .ok_or_else(|| untyped_place_error(&path.root))?;
                Ok((self.resolve(path, frame_abs)?, ty))
            }
        }
    }

    /// Reads a compiled place's current value.
    fn read_place(&mut self, place: &CPlace) -> Result<Value, SimError> {
        match place {
            CPlace::Var(i) => self
                .vars
                .get(*i as usize)
                .cloned()
                .ok_or_else(|| missing_var(*i as usize)),
            CPlace::Local(slot) => self
                .frames
                .last()
                .ok_or_else(no_frame)?
                .locals
                .get(*slot as usize)
                .cloned()
                .ok_or_else(|| missing_slot(*slot as usize)),
            CPlace::Path(path) => {
                let rp = self.resolve(path, self.frames.len() - 1)?;
                self.read_resolved(&rp)
            }
        }
    }

    /// Reads the value at a resolved path.
    fn read_resolved(&self, rp: &ResolvedPlace) -> Result<Value, SimError> {
        let mut cur: &Value = match rp.root {
            Root::Var(i) => self.vars.get(i).ok_or_else(|| missing_var(i))?,
            Root::Local { frame, slot } => self
                .frames
                .get(frame)
                .and_then(|f| f.locals.get(slot))
                .ok_or_else(|| missing_slot(slot))?,
        };
        for (i, step) in rp.steps.iter().enumerate() {
            match step {
                Step::Elem(idx) => match cur {
                    Value::Array(items) => {
                        cur = items.get(*idx).ok_or_else(|| {
                            SimError::eval(format!("array index {idx} out of range"))
                        })?;
                    }
                    other => {
                        return Err(SimError::eval(format!("indexing non-array value {other}")))
                    }
                },
                Step::Slice(hi, lo) => {
                    if i + 1 != rp.steps.len() {
                        return Err(SimError::eval(
                            "slice must be the last projection of a write target".to_string(),
                        ));
                    }
                    let bits = cur.to_bits();
                    if *hi >= bits.width() {
                        return Err(SimError::eval(format!(
                            "slice {hi} downto {lo} out of range for width {}",
                            bits.width()
                        )));
                    }
                    return Ok(Value::Bits(bits.slice(*hi, *lo)));
                }
            }
        }
        Ok(cur.clone())
    }

    /// Reads a loop counter. Counters are whole int variables or locals
    /// in practice; those are read without an evaluation context.
    fn read_counter(&mut self, var: &CPlace) -> Result<i64, SimError> {
        let whole = match var {
            CPlace::Var(v) => self.vars.get(*v as usize),
            CPlace::Local(slot) => self
                .frames
                .last()
                .and_then(|f| f.locals.get(*slot as usize)),
            CPlace::Path(_) => None,
        };
        if let Some(Value::Int { value, .. }) = whole {
            return Ok(*value);
        }
        self.read_place(var)?
            .as_i64()
            .map_err(|e| SimError::eval(e.to_string()))
    }

    /// Pushes a procedure frame: `in` arguments evaluate into their
    /// slots, `out`/`inout` actuals are resolved now for the copy-back
    /// at return.
    fn enter(&mut self, sys: &System, procedure: usize, args: &[CArg]) -> Result<(), SimError> {
        let proc = &sys.procedures[procedure];
        let caller_frame_abs = self.frames.len() - 1;
        let mut locals = Vec::with_capacity(proc.slot_count());
        let mut copyback = Vec::new();
        for (i, (arg, param)) in args.iter().zip(&proc.params).enumerate() {
            match (arg, param.mode) {
                (CArg::In(e), ParamMode::In) => {
                    locals.push(coerce(self.eval_owned(e)?, &param.ty));
                }
                (CArg::Out(place), ParamMode::Out) => {
                    locals.push(Value::default_of(&param.ty));
                    let (rp, ty) = self.resolve_place(sys, place, caller_frame_abs)?;
                    copyback.push((i, rp, ty));
                }
                (CArg::InOut(place), ParamMode::InOut) => {
                    locals.push(coerce(self.read_place(place)?, &param.ty));
                    let (rp, ty) = self.resolve_place(sys, place, caller_frame_abs)?;
                    copyback.push((i, rp, ty));
                }
                _ => {
                    return Err(SimError::eval(format!(
                        "argument mode mismatch calling `{}`",
                        proc.name
                    )))
                }
            }
        }
        for l in &proc.locals {
            locals.push(Value::default_of(&l.ty));
        }
        let mut frame = Frame::new(CodeRef::Procedure(procedure), locals);
        frame.copyback = copyback;
        self.frames.push(frame);
        Ok(())
    }
}

fn whole(root: Root) -> ResolvedPlace {
    ResolvedPlace {
        root,
        steps: Vec::new(),
    }
}

fn missing_var(i: usize) -> SimError {
    SimError::eval(format!("missing variable v{i}"))
}

fn missing_slot(slot: usize) -> SimError {
    SimError::eval(format!("missing local slot {slot}"))
}

/// The declared type of a local slot of a frame running `code`.
fn local_ty(sys: &System, code: CodeRef, slot: usize) -> Result<&Ty, SimError> {
    match code {
        CodeRef::Procedure(p) => {
            let proc = &sys.procedures[p];
            if slot < proc.slot_count() {
                Ok(proc.slot_ty(slot))
            } else {
                Err(missing_slot(slot))
            }
        }
        CodeRef::Behavior(_) => Err(SimError::eval(
            "local slot referenced outside a procedure".to_string(),
        )),
    }
}

/// The error for a compiled place whose type could not be resolved at
/// compile time (today: a local referenced from a behavior body).
fn untyped_place_error(root: &CRoot) -> SimError {
    match root {
        CRoot::Local(_) => SimError::eval("local slot referenced outside a procedure".to_string()),
        CRoot::Var(_) => SimError::eval("place cannot be typed in this scope".to_string()),
    }
}

/// Writes `value`, coerced to the target's type, into a place of the
/// running process.
fn write_place<E: Engine>(
    sys: &System,
    e: &mut E,
    place: &CPlace,
    value: Value,
) -> Result<(), SimError> {
    match place {
        // Whole-variable and whole-local writes (the overwhelmingly
        // common case) skip place resolution entirely.
        CPlace::Var(i) => {
            let i = *i as usize;
            let decl = sys.variables.get(i).ok_or_else(|| missing_var(i))?;
            e.before_store(i);
            e.store().vars[i] = coerce(value, &decl.ty);
            Ok(())
        }
        CPlace::Local(slot) => {
            let slot = *slot as usize;
            let frame = top(e.store().frames);
            let ty = local_ty(sys, frame.code, slot)?;
            frame.locals[slot] = coerce(value, ty);
            Ok(())
        }
        CPlace::Path(path) => {
            let ty = path
                .ty
                .as_ref()
                .ok_or_else(|| untyped_place_error(&path.root))?;
            let mut st = e.store();
            let rp = st.resolve(path, st.frames.len() - 1)?;
            write_resolved(e, &rp, coerce(value, ty))
        }
    }
}

/// Writes `value` at a resolved place of the running process.
fn write_resolved<E: Engine>(e: &mut E, rp: &ResolvedPlace, value: Value) -> Result<(), SimError> {
    if let Root::Var(i) = rp.root {
        e.before_store(i);
    }
    let st = e.store();
    let root: &mut Value = match rp.root {
        Root::Var(i) => st.vars.get_mut(i).ok_or_else(|| missing_var(i))?,
        Root::Local { frame, slot } => st
            .frames
            .get_mut(frame)
            .and_then(|f| f.locals.get_mut(slot))
            .ok_or_else(|| missing_slot(slot))?,
    };
    write_steps(root, &rp.steps, value)
}

/// Writes `value` through a resolved navigation path.
fn write_steps(root: &mut Value, steps: &[Step], value: Value) -> Result<(), SimError> {
    match steps.split_first() {
        None => {
            *root = value;
            Ok(())
        }
        Some((Step::Elem(i), rest)) => match root {
            Value::Array(items) => {
                let slot = items
                    .get_mut(*i)
                    .ok_or_else(|| SimError::eval(format!("array index {i} out of range")))?;
                write_steps(slot, rest, value)
            }
            other => Err(SimError::eval(format!("indexing non-array value {other}"))),
        },
        Some((Step::Slice(hi, lo), rest)) => {
            if !rest.is_empty() {
                return Err(SimError::eval(
                    "slice must be the last projection of a write target".to_string(),
                ));
            }
            let ty = root.ty();
            let mut bits = root.to_bits();
            if *hi >= bits.width() {
                return Err(SimError::eval(format!(
                    "slice {hi} downto {lo} out of range for width {}",
                    bits.width()
                )));
            }
            bits.write_slice(*hi, *lo, &value.to_bits().resized(hi - lo + 1));
            *root = Value::from_bits(&ty, &bits);
            Ok(())
        }
    }
}

/// `var := var + 1` for a `for` back-edge, returning the new value.
///
/// Whole int counters increment in place: stored values are unmasked,
/// so this matches rebuilding the value and writing it back.
fn increment<E: Engine>(sys: &System, e: &mut E, var: &CPlace) -> Result<i64, SimError> {
    fn bump(v: Option<&mut Value>) -> Option<i64> {
        match v {
            Some(Value::Int { value, width }) if *width > 0 => {
                *value += 1;
                Some(*value)
            }
            _ => None,
        }
    }
    let fast = match var {
        CPlace::Var(v) => {
            let v = *v as usize;
            if matches!(e.store().vars.get(v), Some(Value::Int { width, .. }) if *width > 0) {
                e.before_store(v);
                bump(e.store().vars.get_mut(v))
            } else {
                None
            }
        }
        CPlace::Local(slot) => bump(
            e.store()
                .frames
                .last_mut()
                .and_then(|f| f.locals.get_mut(*slot as usize)),
        ),
        CPlace::Path(_) => None,
    };
    if let Some(v) = fast {
        return Ok(v);
    }
    let cur = e.store().read_place(var)?;
    let v = cur.as_i64().map_err(|e| SimError::eval(e.to_string()))?;
    let width = match &cur {
        Value::Int { width, .. } => *width,
        other => other.ty().bit_width(),
    };
    write_place(sys, e, var, Value::int(v + 1, width.max(1)))?;
    Ok(v + 1)
}

/// Branches on a loop counter's value `v`: past the innermost bound, the
/// bound is popped and the loop exits; otherwise execution goes on at
/// `stay`.
fn loop_next(frames: &mut [Frame], v: i64, stay: usize, exit: usize) -> Result<usize, SimError> {
    let frame = top(frames);
    let bound = *frame
        .loop_bounds
        .last()
        .ok_or_else(|| SimError::eval("loop bound stack empty".to_string()))?;
    if v > bound {
        frame.loop_bounds.pop();
        Ok(exit)
    } else {
        Ok(stay)
    }
}

/// Pops the top frame, applying its out/inout copy-backs to the places
/// resolved at the call.
fn leave_frame<E: Engine>(e: &mut E) -> Result<(), SimError> {
    let frame = e
        .store()
        .frames
        .pop()
        .expect("a running process has a frame");
    for (slot, rp, ty) in &frame.copyback {
        let v = coerce(frame.locals[*slot].clone(), ty);
        write_resolved(e, rp, v)?;
    }
    Ok(())
}

/// Ideal-channel write: store directly into the remote variable.
fn channel_write<E: Engine>(
    sys: &System,
    e: &mut E,
    channel: ChannelId,
    addr: Option<i64>,
    data: Value,
) -> Result<(), SimError> {
    let var = sys.channel(channel).variable.index();
    let ty = &sys.variables[var].ty;
    e.before_store(var);
    let vars = e.store().vars;
    match addr {
        Some(i) => {
            let i = usize::try_from(i)
                .map_err(|_| SimError::eval(format!("negative channel address {i}")))?;
            let elem_ty = match ty {
                Ty::Array { elem, .. } => &**elem,
                other => other,
            };
            match &mut vars[var] {
                Value::Array(items) => {
                    let slot = items.get_mut(i).ok_or_else(|| {
                        SimError::eval(format!("channel address {i} out of range"))
                    })?;
                    *slot = coerce(data, elem_ty);
                }
                _ => {
                    return Err(SimError::eval(
                        "addressed channel write to non-array variable".to_string(),
                    ))
                }
            }
        }
        None => vars[var] = coerce(data, ty),
    }
    Ok(())
}

/// Ideal-channel read: fetch directly from the remote variable.
fn channel_read(
    sys: &System,
    vars: &[Value],
    channel: ChannelId,
    addr: Option<i64>,
) -> Result<Value, SimError> {
    let var = sys.channel(channel).variable.index();
    match addr {
        Some(i) => {
            let i = usize::try_from(i)
                .map_err(|_| SimError::eval(format!("negative channel address {i}")))?;
            match &vars[var] {
                Value::Array(items) => items
                    .get(i)
                    .cloned()
                    .ok_or_else(|| SimError::eval(format!("channel address {i} out of range"))),
                _ => Err(SimError::eval(
                    "addressed channel read from non-array variable".to_string(),
                )),
            }
        }
        None => Ok(vars[var].clone()),
    }
}
