//! The checker's engine: atomic runs and eager waiter release.
//!
//! `run_one` runs one process from its control point to its next
//! scheduling point through the interpreter the simulation kernel runs
//! too ([`crate::interp`]); this module supplies only the checker's
//! scheduling hooks. `release_own` and `release_waiters` eagerly advance
//! every process parked at a now-satisfied level-sensitive wait. Four
//! properties serve the explorer:
//!
//! * **in-place execution** — a run writes directly into the explorer's
//!   one scratch storage and into the running process's materialized
//!   control, and the explorer afterwards restores, from the source
//!   state's pooled components, exactly the storage the run's [`RunFx`]
//!   says it touched;
//! * **effect tracking** — every write is recorded in a [`RunFx`] before
//!   it lands (so a run that crashes midway is still fully covered):
//!   which variable groups went dirty, whether any signal was stored,
//!   which processes a release sweep advanced, and whether every
//!   executed instruction was statically pure and every variable store
//!   hit a variable private to the process. The running
//!   process's own control state is always treated as touched. The
//!   explorer uses the effects to intern and roll back only dirty
//!   components and to validate ample candidates;
//! * **runs are functions of their inputs** — a run reads only its
//!   control, the storage and the frozen mask (plus the fixed program,
//!   reduction tables and step budget), and its own releases read only
//!   the storage it left. Purity is tracked under the exploration's
//!   global reduction setting, so the explorer can memoize a run by the
//!   pool ids of those inputs and recall it instead of running it
//!   again (see [`super::state::RunMemo`]);
//! * **blocked processes never run** — every stored state is closed
//!   under eager release, so a process parked at a level-sensitive wait
//!   is blocked there: the explorer never runs it except to expire its
//!   watchdog, and a non-forced run never suspends on its first
//!   instruction. The release sweep after each run looks at every
//!   other process over the run's pooled signals; released controls
//!   other than the running one stay interned and advance by id
//!   ([`super::state::Pools::advance`]).

use ifsyn_spec::Value;

use crate::error::{RunError, SimError};
use crate::eval::EvalCtx;
use crate::interp::{self, Engine, Store};
use crate::process::CodeRef;
use crate::program::{Instr, WaitSpec};

use super::state::{CkProc, CkState, Layout, Pools};
use super::{Checker, STEP_BUDGET};

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

/// One atomic run of a checker process: the scratch storage and the
/// process's materialized control seen through the interpreter's
/// scheduling hooks.
struct Run<'r, 'a> {
    ck: &'r Checker<'a>,
    s: &'r mut CkState,
    ctl: &'r mut CkProc,
    fx: &'r mut RunFx,
    pid: usize,
    /// Instructions executed, against the step budget.
    steps: u64,
    /// Cycles consumed so far: the transition's cost.
    cost: u64,
    /// The run began by expiring a watchdog.
    forced: bool,
}

impl Engine for Run<'_, '_> {
    fn store(&mut self) -> Store<'_> {
        Store {
            vars: &mut self.s.vars,
            signals: &self.s.signals,
            frames: &mut self.ctl.frames,
        }
    }

    fn tick(&mut self, code: CodeRef, pc: usize) -> Result<(), RunError> {
        self.steps += 1;
        if self.steps > STEP_BUDGET {
            return Err(Box::new(SimError::eval(format!(
                "step budget of {STEP_BUDGET} exceeded in `{}` (zero-cost loop without waits?)",
                self.ck.system.behaviors[self.pid].name
            ))));
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

    /// Marks the variable's group dirty. A store into a shared variable
    /// is a cross-process-dependent write and disqualifies the run from
    /// standing alone as an ample set. Every statically pure instruction
    /// stores only into private variables, so the check can newly fail
    /// only on a procedure copy-back: its target was resolved at the
    /// call, possibly in an earlier run, where `Ret`'s static purity row
    /// cannot see it.
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

    /// The cycles add to the transition's cost; like every
    /// cycle-consuming instruction, this is a scheduling point.
    fn elapse(&mut self, cycles: u64, _active: bool) {
        self.cost += cycles;
    }

    /// Applies a signal drive immediately (time-abstracted visibility).
    /// Writes to frozen (stuck) signals are swallowed, mirroring the
    /// fault semantics of [`crate::FaultKind::StuckAt`].
    fn drive(&mut self, signal: usize, value: Value, _cost: u32) {
        if !self.s.frozen[signal] {
            self.fx.wrote_sig = true;
            self.s.signals[signal] = value;
        }
    }

    fn suspend(&mut self, wait: &WaitSpec) -> bool {
        // Event-sensitive waits are abstracted as a plain scheduling
        // point: the process is resumable whenever the scheduler picks it
        // (generated protocol code never uses bare `wait on`).
        if let WaitSpec::OnSignals(_) = wait {
            return true;
        }
        // Blocked: pc stays at the wait. The watchdog variant expires
        // only through a forced run. The explorer never starts a run at
        // a parked wait, which no stored state satisfies.
        debug_assert!(
            self.steps > 1 || self.forced,
            "a run started at a blocked wait"
        );
        false
    }

    /// Yields at a restart too, so zero-cost repeating bodies bound
    /// every atomic run.
    fn root_exit(&mut self, restarted: bool) -> bool {
        if !restarted {
            self.ctl.done = true;
        }
        false
    }

    /// States carry no clock.
    fn assert(&mut self, _held: bool) -> u64 {
        0
    }
}

impl<'a> Checker<'a> {
    /// The initial storage and fault environment; every process starts
    /// at [`CkProc::start`].
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
            fault_budget: self.faults.iter().map(|(_, f)| f.budget()).collect(),
            frozen: vec![false; self.system.signals.len()],
        }
    }

    /// The level-sensitive wait (`wait until`, with or without `for N`)
    /// that control `ctl` is parked at, if any. In a stored state such a
    /// wait never holds: every stored state is closed under
    /// [`Checker::release_waiters`].
    pub(super) fn parked_wait<'s>(&'s self, ctl: &CkProc) -> Option<&'s WaitSpec> {
        let f = ctl.frames.last()?;
        match self.program.block(f.code).instrs.get(f.pc) {
            Some(Instr::Wait(wait @ (WaitSpec::Until(_) | WaitSpec::UntilTimeout { .. }))) => {
                Some(wait)
            }
            _ => None,
        }
    }

    /// Whether the level-sensitive `wait` holds in control `ctl`'s scope
    /// over the storage `signals` and `vars`.
    pub(super) fn wait_holds(
        &self,
        signals: &[Value],
        vars: &[Value],
        ctl: &CkProc,
        wait: &WaitSpec,
    ) -> Result<bool, SimError> {
        let frame = ctl.frames.last().expect("frame");
        let ctx = EvalCtx {
            vars,
            signals,
            locals: &frame.locals,
        };
        Ok(wait.holds(&ctx).map_err(|e| *e)? == Some(true))
    }

    /// Runs process `pid`, whose control `ctl` the caller materialized,
    /// in place from its control point up to its next scheduling point,
    /// turning `s` and `ctl` into the successor's and returning the cycle
    /// cost. Every storage write lands in `s` and is recorded in `fx`
    /// first, so the caller can diff and roll back the touched components
    /// on every exit, a crash (`Err`) included.
    ///
    /// Scheduling points: after any cycle-consuming instruction, at an
    /// unsatisfied wait (pc stays at the wait), and after a repeating
    /// root restarts. The caller runs only a process that can take a
    /// step: one not done and, unless `expire` is set, not parked at a
    /// level-sensitive wait. A run that leaves the state as it found it
    /// (a zero-cost repeating body that restarts where it began, say)
    /// returns a successor equal to the source, and the caller drops it
    /// (see [`RunFx`] — the explorer detects this without a whole state
    /// comparison).
    ///
    /// `expire` carries the watchdog bound of the wait `ctl` is parked
    /// at, whose condition does not hold: the wait is expired (costing
    /// its bound) and execution continues into the re-test/abort code.
    pub(super) fn run_one(
        &self,
        s: &mut CkState,
        ctl: &mut CkProc,
        pid: usize,
        expire: Option<u64>,
        fx: &mut RunFx,
    ) -> Result<u64, SimError> {
        let mut cost = 0;
        if let Some(cycles) = expire {
            // Watchdog expiries are global-stall transitions, never
            // candidates for reduction.
            fx.pure_run = false;
            cost = cycles;
            ctl.frames.last_mut().expect("frame").pc += 1;
        }
        let mut run = Run {
            ck: self,
            s,
            ctl,
            fx,
            pid,
            steps: 0,
            cost,
            forced: expire.is_some(),
        };
        interp::run(self.system, &self.program, pid, &mut run).map_err(|e| *e)?;
        Ok(run.cost)
    }

    /// Advances the running process's materialized control `ctl` past
    /// every now-satisfied level-sensitive wait it is parked at, over the
    /// storage its run left in `s`, chaining through consecutive
    /// satisfied waits. Returns whether it moved.
    pub(super) fn release_own(&self, s: &CkState, ctl: &mut CkProc) -> Result<bool, SimError> {
        let mut advanced = false;
        while let Some(wait) = self.parked_wait(ctl) {
            if !self.wait_holds(&s.signals, &s.vars, ctl, wait)? {
                break;
            }
            ctl.frames.last_mut().expect("frame").pc += 1;
            advanced = true;
        }
        Ok(advanced)
    }

    /// Advances every process but `running` parked at a now-satisfied
    /// level-sensitive wait, chaining through consecutive satisfied
    /// waits, over the pooled signal vector `sig` and the variables
    /// `vars`. `ctls` holds the scratch state's control ids; each
    /// control advances by id through [`Pools::advance`]. The running
    /// process's own releases are [`Checker::release_own`]'s.
    ///
    /// The kernel's event loop wakes every waiter on a signal the moment
    /// it changes, so a waiter can never sleep through a pulse. The
    /// interleaved transition relation must mirror that by re-arming
    /// waiters eagerly after each write-carrying transition — not when
    /// the scheduler next happens to pick them — or it invents spurious
    /// missed-pulse deadlocks the synchronous kernel cannot exhibit.
    /// Watchdog-bounded waits release along their success path; the
    /// timeout branch remains reachable only through a forced run.
    ///
    /// Every advanced process is recorded in `fx.released` at its first
    /// advance, so the record stays complete even if a later condition in
    /// its chain fails to evaluate.
    pub(super) fn release_waiters(
        &self,
        sig: u32,
        vars: &[Value],
        pools: &mut Pools,
        ctls: &mut [u32],
        running: Option<usize>,
        fx: &mut RunFx,
    ) -> Result<(), SimError> {
        for (pid, id) in ctls.iter_mut().enumerate() {
            if running == Some(pid) {
                continue;
            }
            let mut advanced = false;
            while let Some(wait) = self.parked_wait(pools.procs.get(*id)) {
                if !self.wait_holds(pools.sigs.get(sig), vars, pools.procs.get(*id), wait)? {
                    break;
                }
                *id = pools.advance(*id);
                if !advanced {
                    advanced = true;
                    fx.released.push(pid as u32);
                }
            }
        }
        Ok(())
    }
}
