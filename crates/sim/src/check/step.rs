//! The atomic-run transition executor.
//!
//! A verbatim port of the seed checker's semantics — `run_one` runs one
//! process from its control point to its next scheduling point,
//! `release_waiters` eagerly advances every process parked at a
//! now-satisfied level-sensitive wait — with three mechanical changes
//! for the scaled explorer:
//!
//! * **in-place execution** — instead of cloning the source state on
//!   every call, `run_one` writes directly into the worker's one
//!   materialized scratch state, and the explorer afterwards restores,
//!   from the source state's pooled components, exactly the components
//!   the run's [`RunFx`] says it touched. The register file is reused
//!   across all runs of a worker (the seed allocated one per call,
//!   including for every waiter-release sweep);
//! * **effect tracking** — every write is recorded in a [`RunFx`] before
//!   it lands (so a run that crashes midway is still fully covered):
//!   which variable groups went dirty, whether any signal was stored,
//!   which processes a release sweep advanced, and whether every
//!   executed instruction was statically pure. The running process's
//!   own control state is always treated as touched. The explorer uses
//!   the effects to diff, re-intern and roll back only dirty components
//!   and to validate ample candidates;
//! * **no-op runs end at the wait** — a run blocked on its very first
//!   instruction writes nothing and returns no step (`Ok(None)`), so the
//!   explorer skips its release sweep, diff and rollback. The graph is
//!   the same: every stored state is closed under eager release, so the
//!   skipped successor would equal its source and be dropped.

use ifsyn_spec::{ParamMode, Ty, Value};

use crate::error::SimError;
use crate::eval::{coerce, EvalCtx};
use crate::exec::{eval_code, CArg, CPath, CPathStep, CPlace, CRoot, ExprCode, RegFile};
use crate::kernel::{untyped_place_error, write_steps};
use crate::process::{CodeRef, ResolvedPlace, Root, Step};
use crate::program::{Code, Instr, WaitSpec};

use super::state::{CkFrame, CkProc, CkState, Layout};
use super::Checker;

/// Effects of one atomic run (plus its waiter-release sweep), recorded
/// by the write paths so the explorer can re-intern and roll back only
/// what changed and validate partial-order-reduction candidates without
/// comparing whole states.
#[derive(Debug, Default)]
pub(super) struct RunFx {
    /// A signal value was actually stored (frozen-swallowed writes do
    /// not count — they change nothing).
    pub wrote_sig: bool,
    /// Variable groups written, deduplicated, in first-write order.
    pub dirty_groups: Vec<u32>,
    /// Processes a release sweep advanced past a satisfied wait.
    pub released: Vec<u32>,
    /// Every executed instruction was statically pure (meaningful only
    /// when `track` is set).
    pub pure_run: bool,
    /// Whether to consult the purity tables at all.
    pub track: bool,
}

impl RunFx {
    pub fn reset(&mut self, track: bool) {
        self.wrote_sig = false;
        self.dirty_groups.clear();
        self.released.clear();
        self.pure_run = track;
        self.track = track;
    }

    #[inline]
    fn mark_var(&mut self, layout: &Layout, var: usize) {
        let g = layout.group_of_var[var];
        if !self.dirty_groups.contains(&g) {
            self.dirty_groups.push(g);
        }
    }
}

enum LeaveOutcome {
    /// Returned into the caller frame; keep running.
    Returned,
    /// Repeating root restarted at pc 0.
    Restarted,
    /// Non-repeating behavior finished.
    Finished,
}

impl<'a> Checker<'a> {
    pub(super) fn block(&self, code: CodeRef) -> &Code {
        match code {
            CodeRef::Behavior(i) => &self.behaviors[i],
            CodeRef::Procedure(i) => &self.procedures[i],
        }
    }

    pub(super) fn initial_state(&self) -> CkState {
        CkState {
            signals: self
                .system
                .signals
                .iter()
                .map(|s| s.initial_value())
                .collect(),
            vars: self
                .system
                .variables
                .iter()
                .map(|v| v.initial_value())
                .collect(),
            procs: (0..self.system.behaviors.len())
                .map(|b| CkProc {
                    frames: vec![CkFrame::new(CodeRef::Behavior(b), Vec::new())],
                    done: false,
                })
                .collect(),
            fault_budget: self.faults.iter().map(|(_, f)| f.budget()).collect(),
            frozen: vec![false; self.system.signals.len()],
        }
    }

    // ---- expression evaluation against a checker state ----

    pub(super) fn eval_owned(
        &self,
        s: &CkState,
        pid: usize,
        code: &ExprCode,
        regs: &mut RegFile,
    ) -> Result<Value, SimError> {
        if let Some(v) = code.const_value() {
            return Ok(v.clone());
        }
        let locals = s.procs[pid]
            .frames
            .last()
            .map_or(&[][..], |f| f.locals.as_slice());
        let ctx = EvalCtx {
            vars: &s.vars,
            signals: &s.signals,
            locals,
        };
        eval_code(&ctx, code, regs).cloned()
    }

    pub(super) fn eval_i64(
        &self,
        s: &CkState,
        pid: usize,
        code: &ExprCode,
        regs: &mut RegFile,
    ) -> Result<i64, SimError> {
        self.eval_owned(s, pid, code, regs)?
            .as_i64()
            .map_err(|e| SimError::eval(e.to_string()))
    }

    pub(super) fn eval_bool(
        &self,
        s: &CkState,
        pid: usize,
        code: &ExprCode,
        regs: &mut RegFile,
    ) -> Result<bool, SimError> {
        self.eval_owned(s, pid, code, regs)?
            .as_bool()
            .map_err(|e| SimError::eval(e.to_string()))
    }

    // ---- place resolution (mirrors the kernel against CkState) ----

    fn local_ty(
        &self,
        s: &CkState,
        pid: usize,
        frame_abs: usize,
        slot: usize,
    ) -> Result<Ty, SimError> {
        match s.procs[pid].frames[frame_abs].code {
            CodeRef::Procedure(p) => {
                let proc = &self.system.procedures[p];
                if slot < proc.slot_count() {
                    Ok(proc.slot_ty(slot).clone())
                } else {
                    Err(SimError::eval(format!("missing local slot {slot}")))
                }
            }
            CodeRef::Behavior(_) => Err(SimError::eval(
                "local slot referenced outside a procedure".to_string(),
            )),
        }
    }

    fn resolve_cpath(
        &self,
        s: &CkState,
        pid: usize,
        path: &CPath,
        frame_abs: usize,
        regs: &mut RegFile,
    ) -> Result<ResolvedPlace, SimError> {
        let root = match path.root {
            CRoot::Var(i) => Root::Var(i as usize),
            CRoot::Local(slot) => Root::Local {
                frame: frame_abs,
                slot: slot as usize,
            },
        };
        let mut steps = Vec::with_capacity(path.steps.len());
        for st in path.steps.iter() {
            match st {
                CPathStep::Elem(code) => {
                    let i = self.eval_i64(s, pid, code, regs)?;
                    let i = usize::try_from(i)
                        .map_err(|_| SimError::eval(format!("negative array index {i}")))?;
                    steps.push(Step::Elem(i));
                }
                CPathStep::Slice(hi, lo) => steps.push(Step::Slice(*hi, *lo)),
                CPathStep::DynSlice(code, width) => {
                    let lo = self.eval_i64(s, pid, code, regs)?;
                    let lo = u32::try_from(lo)
                        .map_err(|_| SimError::eval(format!("negative slice offset {lo}")))?;
                    steps.push(Step::Slice(lo + width - 1, lo));
                }
            }
        }
        Ok(ResolvedPlace { root, steps })
    }

    fn resolve_cplace(
        &self,
        s: &CkState,
        pid: usize,
        place: &CPlace,
        frame_abs: usize,
        regs: &mut RegFile,
    ) -> Result<(ResolvedPlace, Ty), SimError> {
        match place {
            CPlace::Var(i) => {
                let decl = self
                    .system
                    .variables
                    .get(*i as usize)
                    .ok_or_else(|| SimError::eval(format!("missing variable v{i}")))?;
                Ok((
                    ResolvedPlace {
                        root: Root::Var(*i as usize),
                        steps: Vec::new(),
                    },
                    decl.ty.clone(),
                ))
            }
            CPlace::Local(slot) => {
                let slot = *slot as usize;
                let ty = self.local_ty(s, pid, frame_abs, slot)?;
                Ok((
                    ResolvedPlace {
                        root: Root::Local {
                            frame: frame_abs,
                            slot,
                        },
                        steps: Vec::new(),
                    },
                    ty,
                ))
            }
            CPlace::Path(path) => {
                let ty = path
                    .ty
                    .clone()
                    .ok_or_else(|| untyped_place_error(&path.root))?;
                let rp = self.resolve_cpath(s, pid, path, frame_abs, regs)?;
                Ok((rp, ty))
            }
        }
    }

    pub(super) fn read_resolved(
        &self,
        s: &CkState,
        pid: usize,
        rp: &ResolvedPlace,
    ) -> Result<Value, SimError> {
        let mut cur: &Value = match rp.root {
            Root::Var(i) => s
                .vars
                .get(i)
                .ok_or_else(|| SimError::eval(format!("missing variable v{i}")))?,
            Root::Local { frame, slot } => s.procs[pid]
                .frames
                .get(frame)
                .and_then(|f| f.locals.get(slot))
                .ok_or_else(|| SimError::eval(format!("missing local slot {slot}")))?,
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

    pub(super) fn write_resolved(
        &self,
        s: &mut CkState,
        pid: usize,
        rp: &ResolvedPlace,
        value: Value,
        fx: &mut RunFx,
    ) -> Result<(), SimError> {
        let root: &mut Value = match rp.root {
            Root::Var(i) => {
                fx.mark_var(&self.layout, i);
                s.vars
                    .get_mut(i)
                    .ok_or_else(|| SimError::eval(format!("missing variable v{i}")))?
            }
            Root::Local { frame, slot } => s.procs[pid]
                .frames
                .get_mut(frame)
                .and_then(|f| f.locals.get_mut(slot))
                .ok_or_else(|| SimError::eval(format!("missing local slot {slot}")))?,
        };
        write_steps(root, &rp.steps, value)
    }

    fn read_cplace(
        &self,
        s: &CkState,
        pid: usize,
        place: &CPlace,
        regs: &mut RegFile,
    ) -> Result<Value, SimError> {
        match place {
            CPlace::Var(i) => s
                .vars
                .get(*i as usize)
                .cloned()
                .ok_or_else(|| SimError::eval(format!("missing variable v{i}"))),
            CPlace::Local(slot) => s.procs[pid]
                .frames
                .last()
                .and_then(|f| f.locals.get(*slot as usize))
                .cloned()
                .ok_or_else(|| SimError::eval(format!("missing local slot {slot}"))),
            CPlace::Path(path) => {
                let frame_abs = s.procs[pid].frames.len() - 1;
                let rp = self.resolve_cpath(s, pid, path, frame_abs, regs)?;
                self.read_resolved(s, pid, &rp)
            }
        }
    }

    fn write_cplace(
        &self,
        s: &mut CkState,
        pid: usize,
        place: &CPlace,
        value: Value,
        regs: &mut RegFile,
        fx: &mut RunFx,
    ) -> Result<(), SimError> {
        match place {
            CPlace::Var(i) => {
                let decl = self
                    .system
                    .variables
                    .get(*i as usize)
                    .ok_or_else(|| SimError::eval(format!("missing variable v{i}")))?;
                fx.mark_var(&self.layout, *i as usize);
                s.vars[*i as usize] = coerce(value, &decl.ty);
                Ok(())
            }
            CPlace::Local(slot) => {
                let slot = *slot as usize;
                let frame_abs = s.procs[pid].frames.len() - 1;
                let ty = self.local_ty(s, pid, frame_abs, slot)?;
                let v = coerce(value, &ty);
                s.procs[pid].frames[frame_abs].locals[slot] = v;
                Ok(())
            }
            CPlace::Path(path) => {
                let ty = path
                    .ty
                    .clone()
                    .ok_or_else(|| untyped_place_error(&path.root))?;
                let frame_abs = s.procs[pid].frames.len() - 1;
                let rp = self.resolve_cpath(s, pid, path, frame_abs, regs)?;
                self.write_resolved(s, pid, &rp, coerce(value, &ty), fx)
            }
        }
    }

    /// Applies a signal drive immediately (time-abstracted visibility).
    /// Writes to frozen (stuck) signals are swallowed, mirroring the
    /// fault semantics of [`crate::FaultKind::StuckAt`].
    pub(super) fn write_signal(&self, s: &mut CkState, idx: usize, value: Value, fx: &mut RunFx) {
        if !s.frozen[idx] {
            fx.wrote_sig = true;
            s.signals[idx] = coerce(value, &self.system.signals[idx].ty);
        }
    }

    fn enter_procedure(
        &self,
        s: &mut CkState,
        pid: usize,
        procedure: usize,
        args: &[CArg],
        regs: &mut RegFile,
    ) -> Result<(), SimError> {
        let proc = &self.system.procedures[procedure];
        let caller_frame_abs = s.procs[pid].frames.len() - 1;
        let mut locals = Vec::with_capacity(proc.slot_count());
        let mut copyback = Vec::new();
        for (i, (arg, param)) in args.iter().zip(&proc.params).enumerate() {
            match (arg, param.mode) {
                (CArg::In(e), ParamMode::In) => {
                    locals.push(coerce(self.eval_owned(s, pid, e, regs)?, &param.ty));
                }
                (CArg::Out(place), ParamMode::Out) => {
                    locals.push(Value::default_of(&param.ty));
                    let (rp, ty) = self.resolve_cplace(s, pid, place, caller_frame_abs, regs)?;
                    copyback.push((i, rp, ty));
                }
                (CArg::InOut(place), ParamMode::InOut) => {
                    locals.push(coerce(self.read_cplace(s, pid, place, regs)?, &param.ty));
                    let (rp, ty) = self.resolve_cplace(s, pid, place, caller_frame_abs, regs)?;
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
        let mut frame = CkFrame::new(CodeRef::Procedure(procedure), locals);
        frame.copyback = copyback;
        s.procs[pid].frames.push(frame);
        Ok(())
    }

    /// Pops the current frame, applying copy-backs.
    fn leave_frame(
        &self,
        s: &mut CkState,
        pid: usize,
        fx: &mut RunFx,
    ) -> Result<LeaveOutcome, SimError> {
        let frame = s.procs[pid].frames.pop().expect("frame");
        for (slot, rp, ty) in &frame.copyback {
            // Copy-back targets were resolved at the call — possibly in
            // an earlier atomic run whose impurity this run never saw —
            // so `Ret`'s static purity row cannot account for them: a
            // copy-back into a shared or observed variable is a visible,
            // cross-process-dependent write and must disqualify the run
            // from standing alone as an ample set.
            if fx.track && fx.pure_run {
                if let Root::Var(v) = rp.root {
                    fx.pure_run = self.por.as_ref().is_some_and(|t| t.copyback_pure(pid, v));
                }
            }
            let v = coerce(frame.locals[*slot].clone(), ty);
            self.write_resolved(s, pid, rp, v, fx)?;
        }
        if s.procs[pid].frames.is_empty() {
            let bidx = pid; // one process per behavior, same index
            if self.system.behaviors[bidx].repeats {
                s.procs[pid]
                    .frames
                    .push(CkFrame::new(CodeRef::Behavior(bidx), Vec::new()));
                Ok(LeaveOutcome::Restarted)
            } else {
                s.procs[pid].done = true;
                Ok(LeaveOutcome::Finished)
            }
        } else {
            Ok(LeaveOutcome::Returned)
        }
    }

    fn channel_write(
        &self,
        s: &mut CkState,
        channel: ifsyn_spec::ChannelId,
        addr: Option<i64>,
        data: Value,
        fx: &mut RunFx,
    ) -> Result<(), SimError> {
        let ch = self.system.channel(channel);
        let var_idx = ch.variable.index();
        fx.mark_var(&self.layout, var_idx);
        let ty = &self.system.variables[var_idx].ty;
        match addr {
            Some(i) => {
                let i = usize::try_from(i)
                    .map_err(|_| SimError::eval(format!("negative channel address {i}")))?;
                let elem_ty = match ty {
                    Ty::Array { elem, .. } => &**elem,
                    other => other,
                };
                match &mut s.vars[var_idx] {
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
            None => s.vars[var_idx] = coerce(data, ty),
        }
        Ok(())
    }

    fn channel_read(
        &self,
        s: &CkState,
        channel: ifsyn_spec::ChannelId,
        addr: Option<i64>,
    ) -> Result<Value, SimError> {
        let ch = self.system.channel(channel);
        let var_idx = ch.variable.index();
        match addr {
            Some(i) => {
                let i = usize::try_from(i)
                    .map_err(|_| SimError::eval(format!("negative channel address {i}")))?;
                match &s.vars[var_idx] {
                    Value::Array(items) => items
                        .get(i)
                        .cloned()
                        .ok_or_else(|| SimError::eval(format!("channel address {i} out of range"))),
                    _ => Err(SimError::eval(
                        "addressed channel read from non-array variable".to_string(),
                    )),
                }
            }
            None => Ok(s.vars[var_idx].clone()),
        }
    }

    // ---- the atomic-run transition executor ----

    /// Runs process `pid` in place, from its current control point in `s`
    /// up to its next scheduling point, turning `s` into the successor
    /// and returning the cycle cost. Every write lands in `s` and is
    /// recorded in `fx` first, so the caller can diff and roll back the
    /// touched components on every exit, a crash (`Err`) included.
    ///
    /// Scheduling points: after any cycle-consuming instruction, at an
    /// unsatisfied wait (pc stays at the wait), and after a repeating
    /// root restarts. Returns `Ok(None)` when the process cannot take a
    /// step of the requested kind at all, and nothing is written then:
    /// it has finished, it is blocked on its very first instruction (an
    /// unsatisfied level-sensitive wait), or under `force_timeout` it
    /// has no expirable watchdog. A blocked first instruction needs no
    /// release sweep or diff, because every stored state is already
    /// closed under [`Checker::release_waiters`]: the successor would
    /// equal the source. Any other run that leaves the state as it found
    /// it (a zero-cost repeating body that restarts where it began, say)
    /// still returns a successor equal to the source, and the caller
    /// drops it (see [`RunFx`] — the explorer detects this without a
    /// whole state comparison).
    ///
    /// With `force_timeout`, the current instruction must be a watchdog
    /// wait whose condition is unsatisfied: the wait is expired (costing
    /// its bound) and execution continues into the re-test/abort code.
    pub(super) fn run_one(
        &self,
        s: &mut CkState,
        regs: &mut RegFile,
        pid: usize,
        force_timeout: bool,
        fx: &mut RunFx,
    ) -> Result<Option<u64>, SimError> {
        if s.procs[pid].done {
            return Ok(None);
        }
        let mut cost: u64 = 0;

        if force_timeout {
            // Watchdog expiries are global-stall transitions, never
            // candidates for reduction.
            fx.pure_run = false;
            let (code_ref, pc) = {
                let f = s.procs[pid].frames.last().expect("frame");
                (f.code, f.pc)
            };
            let expired = match self.block(code_ref).instrs.get(pc) {
                Some(Instr::Wait(WaitSpec::UntilTimeout { cond, cycles })) => {
                    if self.eval_bool(s, pid, &cond.code, regs)? {
                        return Ok(None);
                    }
                    Some(*cycles)
                }
                Some(Instr::Wait(WaitSpec::UntilSignalIsTimeout {
                    signal,
                    value,
                    cycles,
                })) => {
                    if s.signals[signal.index()] == *value {
                        return Ok(None);
                    }
                    Some(*cycles)
                }
                _ => None,
            };
            match expired {
                Some(cycles) => {
                    cost += cycles;
                    s.procs[pid].frames.last_mut().expect("frame").pc = pc + 1;
                }
                None => return Ok(None),
            }
        }

        let mut steps: u64 = 0;
        loop {
            steps += 1;
            if steps > self.config.step_budget {
                return Err(SimError::eval(format!(
                    "step budget of {} exceeded in `{}` (zero-cost loop without waits?)",
                    self.config.step_budget, self.system.behaviors[pid].name
                )));
            }
            let (code_ref, pc) = {
                let f = s.procs[pid].frames.last().expect("frame");
                (f.code, f.pc)
            };
            let block = self.block(code_ref);
            let instr = block.instrs.get(pc).ok_or_else(|| {
                SimError::eval(format!("pc {pc} out of range in `{}`", block.name))
            })?;
            if fx.track && fx.pure_run {
                fx.pure_run = self.por.as_ref().is_some_and(|t| t.pure(pid, code_ref, pc));
            }
            let set_pc = |s: &mut CkState, npc: usize| {
                s.procs[pid].frames.last_mut().expect("frame").pc = npc;
            };
            match instr {
                Instr::Assign {
                    place,
                    value,
                    cost: c,
                } => {
                    let v = self.eval_owned(s, pid, value, regs)?;
                    self.write_cplace(s, pid, place, v, regs, fx)?;
                    set_pc(s, pc + 1);
                    if *c > 0 {
                        cost += u64::from(*c);
                        return Ok(Some(cost));
                    }
                }
                Instr::SignalWrite {
                    signal,
                    value,
                    cost: c,
                } => {
                    let v = self.eval_owned(s, pid, value, regs)?;
                    self.write_signal(s, signal.index(), v, fx);
                    set_pc(s, pc + 1);
                    if *c > 0 {
                        cost += u64::from(*c);
                        return Ok(Some(cost));
                    }
                }
                Instr::Jump(target) => set_pc(s, *target),
                Instr::JumpIfNot { cond, target } => {
                    if self.eval_bool(s, pid, cond, regs)? {
                        set_pc(s, pc + 1);
                    } else {
                        set_pc(s, *target);
                    }
                }
                Instr::LoopInit { var, from, to } => {
                    let bound = self.eval_i64(s, pid, to, regs)?;
                    let start = self.eval_owned(s, pid, from, regs)?;
                    self.write_cplace(s, pid, var, start, regs, fx)?;
                    let f = s.procs[pid].frames.last_mut().expect("frame");
                    f.loop_bounds.push(bound);
                    f.pc = pc + 1;
                }
                Instr::LoopTest { var, exit } => {
                    let v = self
                        .read_cplace(s, pid, var, regs)?
                        .as_i64()
                        .map_err(|e| SimError::eval(e.to_string()))?;
                    let f = s.procs[pid].frames.last_mut().expect("frame");
                    let bound = *f
                        .loop_bounds
                        .last()
                        .ok_or_else(|| SimError::eval("loop bound stack empty".to_string()))?;
                    if v > bound {
                        f.loop_bounds.pop();
                        f.pc = *exit;
                    } else {
                        f.pc = pc + 1;
                    }
                }
                Instr::LoopIncr { var, body, exit } => {
                    let (v, width) = {
                        let cur_v = self.read_cplace(s, pid, var, regs)?;
                        let v = cur_v.as_i64().map_err(|e| SimError::eval(e.to_string()))?;
                        let width = match &cur_v {
                            Value::Int { width, .. } => *width,
                            other => other.ty().bit_width(),
                        };
                        (v, width)
                    };
                    self.write_cplace(s, pid, var, Value::int(v + 1, width.max(1)), regs, fx)?;
                    let f = s.procs[pid].frames.last_mut().expect("frame");
                    let bound = *f
                        .loop_bounds
                        .last()
                        .ok_or_else(|| SimError::eval("loop bound stack empty".to_string()))?;
                    if v + 1 > bound {
                        f.loop_bounds.pop();
                        f.pc = *exit;
                    } else {
                        f.pc = *body;
                    }
                }
                Instr::Wait(spec) => match spec {
                    WaitSpec::ForCycles(n) => {
                        set_pc(s, pc + 1);
                        if *n > 0 {
                            cost += *n;
                            return Ok(Some(cost));
                        }
                    }
                    // Event-sensitive waits are abstracted as a plain
                    // scheduling point: the process is resumable whenever
                    // the scheduler picks it (generated protocol code
                    // never uses bare `wait on`).
                    WaitSpec::OnSignals(_) => {
                        set_pc(s, pc + 1);
                        return Ok(Some(cost));
                    }
                    WaitSpec::Until(cond) | WaitSpec::UntilTimeout { cond, .. } => {
                        if self.eval_bool(s, pid, &cond.code, regs)? {
                            set_pc(s, pc + 1);
                        } else {
                            // Blocked: pc stays at the wait. The watchdog
                            // variant expires only via `force_timeout`.
                            // Blocked on the first instruction, the run
                            // wrote nothing: no step at all.
                            return Ok((steps > 1 || force_timeout).then_some(cost));
                        }
                    }
                    WaitSpec::UntilSignalIs { signal, value }
                    | WaitSpec::UntilSignalIsTimeout { signal, value, .. } => {
                        if s.signals[signal.index()] == *value {
                            set_pc(s, pc + 1);
                        } else {
                            return Ok((steps > 1 || force_timeout).then_some(cost));
                        }
                    }
                },
                Instr::Call { procedure, args } => {
                    set_pc(s, pc + 1);
                    self.enter_procedure(s, pid, *procedure, args, regs)?;
                }
                Instr::Ret => match self.leave_frame(s, pid, fx)? {
                    LeaveOutcome::Returned => {}
                    // Yield at a restart so zero-cost repeating bodies
                    // bound every atomic run.
                    LeaveOutcome::Restarted | LeaveOutcome::Finished => {
                        return Ok(Some(cost));
                    }
                },
                Instr::ChannelSend {
                    channel,
                    addr,
                    data,
                    cost: c,
                } => {
                    let a = match addr {
                        Some(code) => Some(self.eval_i64(s, pid, code, regs)?),
                        None => None,
                    };
                    let v = self.eval_owned(s, pid, data, regs)?;
                    self.channel_write(s, *channel, a, v, fx)?;
                    set_pc(s, pc + 1);
                    if *c > 0 {
                        cost += u64::from(*c);
                        return Ok(Some(cost));
                    }
                }
                Instr::ChannelReceive {
                    channel,
                    addr,
                    target,
                    cost: c,
                } => {
                    let a = match addr {
                        Some(code) => Some(self.eval_i64(s, pid, code, regs)?),
                        None => None,
                    };
                    let v = self.channel_read(s, *channel, a)?;
                    self.write_cplace(s, pid, target, v, regs, fx)?;
                    set_pc(s, pc + 1);
                    if *c > 0 {
                        cost += u64::from(*c);
                        return Ok(Some(cost));
                    }
                }
                Instr::Consume { cycles } => {
                    set_pc(s, pc + 1);
                    if *cycles > 0 {
                        cost += *cycles;
                        return Ok(Some(cost));
                    }
                }
                Instr::Assert { cond, note } => {
                    if !self.eval_bool(s, pid, cond, regs)? {
                        return Err(SimError::AssertionFailed {
                            behavior: self.system.behaviors[pid].name.clone(),
                            note: note.clone(),
                            time: 0,
                        });
                    }
                    set_pc(s, pc + 1);
                }
            }
        }
    }

    /// Advances every process parked at a now-satisfied level-sensitive
    /// wait, chaining through consecutive satisfied waits.
    ///
    /// The kernel's event loop wakes every waiter on a signal the moment
    /// it changes, so a waiter can never sleep through a pulse. The
    /// interleaved transition relation must mirror that by re-arming
    /// waiters eagerly after each write-carrying transition — not when
    /// the scheduler next happens to pick them — or it invents spurious
    /// missed-pulse deadlocks the synchronous kernel cannot exhibit.
    /// Watchdog-bounded waits release along their success path; the
    /// timeout branch remains reachable only via `force_timeout`.
    ///
    /// Every advanced process is recorded in `fx.released` at its first
    /// advance, so the record stays complete even if a later condition in
    /// its chain fails to evaluate.
    pub(super) fn release_waiters(
        &self,
        s: &mut CkState,
        regs: &mut RegFile,
        fx: &mut RunFx,
    ) -> Result<(), SimError> {
        for pid in 0..s.procs.len() {
            let mut advanced = false;
            loop {
                if s.procs[pid].done {
                    break;
                }
                let Some(f) = s.procs[pid].frames.last() else {
                    break;
                };
                let (code, pc) = (f.code, f.pc);
                let satisfied = match self.block(code).instrs.get(pc) {
                    Some(Instr::Wait(
                        WaitSpec::Until(cond) | WaitSpec::UntilTimeout { cond, .. },
                    )) => self.eval_bool(s, pid, &cond.code, regs)?,
                    Some(Instr::Wait(
                        WaitSpec::UntilSignalIs { signal, value }
                        | WaitSpec::UntilSignalIsTimeout { signal, value, .. },
                    )) => s.signals[signal.index()] == *value,
                    _ => false,
                };
                if !satisfied {
                    break;
                }
                s.procs[pid].frames.last_mut().expect("frame").pc = pc + 1;
                if !advanced {
                    advanced = true;
                    fx.released.push(pid as u32);
                }
            }
        }
        Ok(())
    }
}
