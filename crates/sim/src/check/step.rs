//! The checker's engine: atomic runs and eager waiter release.
//!
//! `run_one` runs one process from its control point to its next
//! scheduling point through the interpreter the simulation kernel runs
//! too ([`crate::interp`]); this module supplies only the checker's
//! scheduling hooks. `release_waiters` eagerly advances every process
//! parked at a now-satisfied level-sensitive wait. Three properties
//! serve the explorer:
//!
//! * **in-place execution** — a run writes directly into the explorer's
//!   one materialized scratch state, and the explorer afterwards
//!   restores, from the source state's pooled components, exactly the
//!   components the run's [`RunFx`] says it touched. The register file
//!   is reused across all runs;
//! * **effect tracking** — every write is recorded in a [`RunFx`] before
//!   it lands (so a run that crashes midway is still fully covered):
//!   which variable groups went dirty, whether any signal was stored,
//!   which processes a release sweep advanced, and whether every
//!   executed instruction was statically pure and every variable store
//!   hit a variable private to the process and unobserved. The running
//!   process's own control state is always treated as touched. The
//!   explorer uses the effects to diff, re-intern and roll back only
//!   dirty components and to validate ample candidates;
//! * **no-op runs end at the wait** — a run blocked on its very first
//!   instruction writes nothing and returns no step (`Ok(None)`), so the
//!   explorer skips its release sweep, diff and rollback. The graph is
//!   the same: every stored state is closed under eager release, so the
//!   skipped successor would equal its source and be dropped.

use ifsyn_spec::Value;

use crate::error::SimError;
use crate::eval::EvalCtx;
use crate::exec::RegFile;
use crate::interp::{self, Engine, Store};
use crate::process::{CodeRef, Frame};
use crate::program::{Instr, WaitSpec};

use super::state::{CkProc, CkState, Layout};
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
    /// Every executed instruction was statically pure and every variable
    /// store was pure (meaningful only when `track` is set).
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

/// One atomic run of a checker process: the scratch state seen through
/// the interpreter's scheduling hooks.
struct Run<'r, 'a> {
    ck: &'r Checker<'a>,
    s: &'r mut CkState,
    regs: &'r mut RegFile,
    fx: &'r mut RunFx,
    pid: usize,
    /// Instructions executed, against the step budget.
    steps: u64,
    /// Cycles consumed so far: the transition's cost.
    cost: u64,
    /// The run began by expiring a watchdog.
    forced: bool,
    /// The run blocked on its very first instruction.
    stalled: bool,
}

impl Engine for Run<'_, '_> {
    fn store(&mut self) -> Store<'_> {
        let s = &mut *self.s;
        Store {
            vars: &mut s.vars,
            signals: &s.signals,
            frames: &mut s.procs[self.pid].frames,
            regs: &mut *self.regs,
        }
    }

    fn tick(&mut self, code: CodeRef, pc: usize) -> Result<(), SimError> {
        self.steps += 1;
        if self.steps > self.ck.config.step_budget {
            return Err(SimError::eval(format!(
                "step budget of {} exceeded in `{}` (zero-cost loop without waits?)",
                self.ck.config.step_budget, self.ck.system.behaviors[self.pid].name
            )));
        }
        if self.fx.track && self.fx.pure_run {
            self.fx.pure_run = self
                .ck
                .por
                .as_ref()
                .is_some_and(|t| t.pure(self.pid, code, pc));
        }
        Ok(())
    }

    /// Marks the variable's group dirty. A store into a variable that is
    /// shared or observed is a visible, cross-process-dependent write and
    /// disqualifies the run from standing alone as an ample set. Every
    /// statically pure instruction stores only into private unobserved
    /// variables, so the check can newly fail only on a procedure
    /// copy-back: its target was resolved at the call, possibly in an
    /// earlier run, where `Ret`'s static purity row cannot see it.
    fn before_store(&mut self, var: usize) {
        self.fx.mark_var(&self.ck.layout, var);
        if self.fx.track && self.fx.pure_run {
            self.fx.pure_run = self
                .ck
                .por
                .as_ref()
                .is_some_and(|t| t.write_pure(self.pid, var));
        }
    }

    /// Every cycle-consuming instruction is a scheduling point.
    fn elapse(&mut self, cycles: u64, _active: bool) -> Result<bool, SimError> {
        self.cost += cycles;
        Ok(false)
    }

    /// Applies a signal drive immediately (time-abstracted visibility).
    /// Writes to frozen (stuck) signals are swallowed, mirroring the
    /// fault semantics of [`crate::FaultKind::StuckAt`].
    fn drive(&mut self, signal: usize, value: Value, cost: u32) -> Result<bool, SimError> {
        if !self.s.frozen[signal] {
            self.fx.wrote_sig = true;
            self.s.signals[signal] = value;
        }
        if cost > 0 {
            return self.elapse(u64::from(cost), true);
        }
        Ok(true)
    }

    fn suspend(&mut self, wait: &WaitSpec) -> bool {
        // Event-sensitive waits are abstracted as a plain scheduling
        // point: the process is resumable whenever the scheduler picks it
        // (generated protocol code never uses bare `wait on`).
        if let WaitSpec::OnSignals(_) = wait {
            return true;
        }
        // Blocked: pc stays at the wait. The watchdog variant expires
        // only via `force_timeout`. Blocked on the first instruction, the
        // run wrote nothing: no step at all.
        self.stalled = self.steps == 1 && !self.forced;
        false
    }

    /// Yields at a restart too, so zero-cost repeating bodies bound
    /// every atomic run.
    fn root_exit(&mut self, restarted: bool) -> bool {
        if !restarted {
            self.s.procs[self.pid].done = true;
        }
        false
    }

    /// States carry no clock.
    fn assert(&mut self, _held: bool) -> u64 {
        0
    }
}

impl<'a> Checker<'a> {
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
                    frames: vec![Frame::new(CodeRef::Behavior(b), Vec::new())],
                    done: false,
                })
                .collect(),
            fault_budget: self.faults.iter().map(|(_, f)| f.budget()).collect(),
            frozen: vec![false; self.system.signals.len()],
        }
    }

    /// The wait instruction process `pid` is parked at in `s`, if any.
    pub(super) fn parked_wait(&self, s: &CkState, pid: usize) -> Option<&WaitSpec> {
        let f = s.procs[pid].frames.last()?;
        match self.program.block(f.code).instrs.get(f.pc) {
            Some(Instr::Wait(wait)) => Some(wait),
            _ => None,
        }
    }

    /// [`WaitSpec::holds`] for `wait` in process `pid`'s scope in `s`.
    pub(super) fn wait_holds(
        &self,
        s: &CkState,
        regs: &mut RegFile,
        pid: usize,
        wait: &WaitSpec,
    ) -> Result<Option<bool>, SimError> {
        let frame = s.procs[pid].frames.last().expect("frame");
        let ctx = EvalCtx {
            vars: &s.vars,
            signals: &s.signals,
            locals: &frame.locals,
        };
        wait.holds(&ctx, regs)
    }

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
        let mut cost = 0;
        if force_timeout {
            // Watchdog expiries are global-stall transitions, never
            // candidates for reduction.
            fx.pure_run = false;
            cost = match self.parked_wait(s, pid) {
                Some(
                    wait @ (WaitSpec::UntilTimeout { cycles, .. }
                    | WaitSpec::UntilSignalIsTimeout { cycles, .. }),
                ) => {
                    if self.wait_holds(s, regs, pid, wait)? == Some(true) {
                        return Ok(None);
                    }
                    *cycles
                }
                _ => return Ok(None),
            };
            s.procs[pid].frames.last_mut().expect("frame").pc += 1;
        }
        let mut run = Run {
            ck: self,
            s,
            regs,
            fx,
            pid,
            steps: 0,
            cost,
            forced: force_timeout,
            stalled: false,
        };
        interp::run(self.system, &self.program, pid, &mut run)?;
        Ok((!run.stalled).then_some(run.cost))
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
            while !s.procs[pid].done {
                let Some(wait) = self.parked_wait(s, pid) else {
                    break;
                };
                if self.wait_holds(s, regs, pid, wait)? != Some(true) {
                    break;
                }
                s.procs[pid].frames.last_mut().expect("frame").pc += 1;
                if !advanced {
                    advanced = true;
                    fx.released.push(pid as u32);
                }
            }
        }
        Ok(())
    }
}
