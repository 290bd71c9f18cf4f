//! Partial-order reduction: static purity tables.
//!
//! The explorer's transition unit is an *atomic run* — one process
//! executed from its control point to its next scheduling point. Two
//! runs commute when they touch disjoint mutable state; when some
//! process has a run that commutes with every run any other process can
//! ever take **and** is invisible to property predicates, exploring that
//! single run from the current state (a singleton *ample set*) reaches
//! the same verdicts as expanding all of them, at a fraction of the
//! states.
//!
//! Whether a run qualifies is decided in two stages:
//!
//! * **statically** (this module): an instruction is *pure* for process
//!   `p` when executing it can only read/write state no other process
//!   ever touches and no property observes — `p`-private unobserved
//!   variables, frame locals, control flow, and reads of signals no
//!   *other* behavior drives and no fault targets. Signal writes are
//!   never pure (they are the inter-process synchronization fabric and
//!   feed eager waiter release). The per-variable privacy and
//!   per-signal writer sets come from the static
//!   [`mod@ifsyn_partition::footprint`] analysis.
//! * **dynamically** (the explorer): a run is an ample candidate only if
//!   every instruction it executed was statically pure *and* the run
//!   wrote no signal, released no waiter, left the process's `done`
//!   flag unchanged, and every variable store it made targeted a
//!   `p`-private unobserved variable. Statically pure instructions store
//!   only into such variables, so the store check can newly fail only on
//!   a procedure copy-back, whose place is resolved at the call, possibly
//!   in an *earlier* run, where `Ret`'s static row cannot see it. The
//!   static tables make the dynamic check a table lookup per executed
//!   instruction and per variable store.
//!
//! Soundness notes live in `docs/ROBUSTNESS.md`: conditions C0–C2 follow
//! from purity (commutation + invisibility), the cycle proviso C3 is
//! enforced at commit time by fully re-expanding any state whose ample
//! successor is already visited, and ample sets here are singletons,
//! which preserves branching-time properties (`leads_to`), not just
//! safety.

use std::sync::Arc;

use ifsyn_partition::ProcessFootprint;
use ifsyn_spec::System;

use crate::exec::{CArg, CPlace, CRoot, ExprCode, MicroOp, Src};
use crate::process::CodeRef;
use crate::program::{Code, Instr, WaitSpec};

/// Static instruction-purity tables, one row per process.
///
/// `pure(pid, code, pc)` answers "can executing this instruction, as
/// this process, touch anything another process or a property can see?"
/// conservatively (`false` when in doubt, including out-of-range pcs).
pub(super) struct PorTables {
    tabs: Vec<PidTab>,
    /// Per process, per variable: writing the variable is pure (private
    /// to the process and unobserved). Consulted dynamically on every
    /// variable store, which covers procedure copy-back writes: their
    /// target places are resolved at call time and are therefore
    /// invisible to `Ret`'s static row.
    var_write_pure: Vec<Box<[bool]>>,
    /// `true` when any instruction anywhere is pure — when `false` the
    /// explorer skips ample scanning entirely.
    pub enabled: bool,
}

struct PidTab {
    /// Purity of the process's own behavior code, by pc.
    behavior: Box<[bool]>,
    /// Purity of every procedure's code when run by this process, by pc.
    procs: Vec<Box<[bool]>>,
}

/// Who can access a variable, according to the static footprints.
#[derive(Clone, Copy, PartialEq)]
enum VarAccess {
    NoOne,
    One(usize),
    Many,
}

struct Purity<'c> {
    system: &'c System,
    /// Per variable: which behaviors' footprints include it.
    var_access: Vec<VarAccess>,
    /// Per signal: which behaviors' footprints can drive it.
    sig_writer: Vec<VarAccess>,
    /// Per signal: `true` when a configured environment fault targets it.
    fault_target: Vec<bool>,
    /// Per variable: `true` when property predicates may observe it.
    observed_var: Vec<bool>,
}

impl Purity<'_> {
    /// A variable is private to `pid` when no other behavior's footprint
    /// includes it (the footprint is a superset of dynamic access, so
    /// this is conservative).
    fn var_private(&self, pid: usize, var: usize) -> bool {
        match self.var_access[var] {
            VarAccess::NoOne => true,
            VarAccess::One(p) => p == pid,
            VarAccess::Many => false,
        }
    }

    /// A signal read is pure for `pid` when no *other* behavior can
    /// drive it and no environment fault can strike it — its value is
    /// then constant with respect to every other transition.
    fn sig_read_pure(&self, pid: usize, sig: usize) -> bool {
        if self.fault_target[sig] {
            return false;
        }
        match self.sig_writer[sig] {
            VarAccess::NoOne => true,
            VarAccess::One(p) => p == pid,
            VarAccess::Many => false,
        }
    }

    fn src_pure(&self, pid: usize, src: Src) -> bool {
        match src {
            Src::Reg(_) | Src::Const(_) | Src::Local(_) => true,
            Src::Signal(s) => self.sig_read_pure(pid, s as usize),
            Src::Var(v) => self.var_private(pid, v as usize),
        }
    }

    fn expr_pure(&self, pid: usize, code: &ExprCode) -> bool {
        if !self.src_pure(pid, code.result) {
            return false;
        }
        code.ops.iter().all(|op| match op {
            MicroOp::Unary { a, .. } | MicroOp::Resize { a, .. } => self.src_pure(pid, *a),
            MicroOp::Binary { a, b, .. } => self.src_pure(pid, *a) && self.src_pure(pid, *b),
            MicroOp::CmpSignalIs { signal, .. } => self.sig_read_pure(pid, *signal as usize),
            MicroOp::Slice { a, .. } => self.src_pure(pid, *a),
            MicroOp::DynSlice { a, offset, .. } => {
                self.src_pure(pid, *a) && self.src_pure(pid, *offset)
            }
            MicroOp::Elem { base, index, .. } => {
                self.src_pure(pid, *base) && self.src_pure(pid, *index)
            }
        })
    }

    /// Purity of a place in *write* position: the written variable must
    /// be private **and** unobserved; index computations are reads.
    fn place_write_pure(&self, pid: usize, place: &CPlace) -> bool {
        let var_ok = |v: u32| self.var_private(pid, v as usize) && !self.observed_var[v as usize];
        match place {
            CPlace::Var(i) => var_ok(*i),
            CPlace::Local(_) => true,
            CPlace::Path(path) => {
                let root_ok = match path.root {
                    CRoot::Var(i) => var_ok(i),
                    CRoot::Local(_) => true,
                };
                root_ok && self.path_steps_pure(pid, path)
            }
        }
    }

    /// Purity of a place in *read* position: privacy suffices (reading
    /// an observed variable changes nothing a property can see).
    fn place_read_pure(&self, pid: usize, place: &CPlace) -> bool {
        match place {
            CPlace::Var(i) => self.var_private(pid, *i as usize),
            CPlace::Local(_) => true,
            CPlace::Path(path) => {
                let root_ok = match path.root {
                    CRoot::Var(i) => self.var_private(pid, i as usize),
                    CRoot::Local(_) => true,
                };
                root_ok && self.path_steps_pure(pid, path)
            }
        }
    }

    fn path_steps_pure(&self, pid: usize, path: &crate::exec::CPath) -> bool {
        use crate::exec::CPathStep;
        path.steps.iter().all(|st| match st {
            CPathStep::Elem(code) | CPathStep::DynSlice(code, _) => self.expr_pure(pid, code),
            CPathStep::Slice(..) => true,
        })
    }

    fn instr_pure(&self, pid: usize, instr: &Instr) -> bool {
        match instr {
            Instr::Assign { place, value, .. } => {
                self.place_write_pure(pid, place) && self.expr_pure(pid, value)
            }
            // Signal writes are the synchronization fabric: visible to
            // waits, waiter release and properties. Never pure.
            Instr::SignalWrite { .. } => false,
            Instr::Jump(_) => true,
            Instr::JumpIfNot { cond, .. } => self.expr_pure(pid, cond),
            Instr::LoopInit { var, from, to } => {
                self.place_write_pure(pid, var)
                    && self.expr_pure(pid, from)
                    && self.expr_pure(pid, to)
            }
            Instr::LoopTest { var, .. } => self.place_read_pure(pid, var),
            Instr::LoopIncr { var, .. } => {
                self.place_read_pure(pid, var) && self.place_write_pure(pid, var)
            }
            // A timed wait only advances the clock-free control point;
            // every condition-bearing wait is a synchronization point.
            Instr::Wait(WaitSpec::ForCycles(_)) => true,
            Instr::Wait(_) => false,
            Instr::Call { args, .. } => args.iter().all(|arg| match arg {
                CArg::In(e) => self.expr_pure(pid, e),
                CArg::Out(p) => self.place_write_pure(pid, p),
                CArg::InOut(p) => self.place_read_pure(pid, p) && self.place_write_pure(pid, p),
            }),
            // A `done` flip on the final return is caught dynamically,
            // and so are out/inout copy-back writes: their targets are
            // resolved at call time, not here, so every variable store is
            // checked against `var_write_pure` as it executes.
            Instr::Ret => true,
            Instr::ChannelSend {
                channel,
                addr,
                data,
                ..
            } => {
                let backing = self.system.channel(*channel).variable.index();
                self.var_private(pid, backing)
                    && !self.observed_var[backing]
                    && addr.as_ref().is_none_or(|a| self.expr_pure(pid, a))
                    && self.expr_pure(pid, data)
            }
            Instr::ChannelReceive {
                channel,
                addr,
                target,
                ..
            } => {
                self.var_private(pid, self.system.channel(*channel).variable.index())
                    && addr.as_ref().is_none_or(|a| self.expr_pure(pid, a))
                    && self.place_write_pure(pid, target)
            }
            Instr::Consume { .. } => true,
            // A passing assert reads and moves on; a failing one is a
            // crash, which never reaches the ample check.
            Instr::Assert { cond, .. } => self.expr_pure(pid, cond),
        }
    }
}

impl PorTables {
    /// Builds the purity tables from the static footprint analysis, the
    /// compiled code, the resolved fault targets and the observed-state
    /// declaration.
    pub fn build(
        system: &System,
        feet: &[ProcessFootprint],
        behaviors: &[Arc<Code>],
        procedures: &[Arc<Code>],
        fault_signals: &[usize],
        observed_var: &[bool],
    ) -> Self {
        let n_vars = system.variables.len();
        let n_sigs = system.signals.len();
        let mut var_access = vec![VarAccess::NoOne; n_vars];
        let mut sig_writer = vec![VarAccess::NoOne; n_sigs];
        for (p, f) in feet.iter().enumerate() {
            for (v, &touches) in f.vars.iter().enumerate() {
                if touches {
                    var_access[v] = match var_access[v] {
                        VarAccess::NoOne => VarAccess::One(p),
                        VarAccess::One(q) if q == p => VarAccess::One(q),
                        _ => VarAccess::Many,
                    };
                }
            }
            for (s, &writes) in f.sig_writes.iter().enumerate() {
                if writes {
                    sig_writer[s] = match sig_writer[s] {
                        VarAccess::NoOne => VarAccess::One(p),
                        VarAccess::One(q) if q == p => VarAccess::One(q),
                        _ => VarAccess::Many,
                    };
                }
            }
        }
        let mut fault_target = vec![false; n_sigs];
        for &s in fault_signals {
            fault_target[s] = true;
        }
        let purity = Purity {
            system,
            var_access,
            sig_writer,
            fault_target,
            observed_var: observed_var.to_vec(),
        };
        let scan = |pid: usize, code: &Code| -> Box<[bool]> {
            code.instrs
                .iter()
                .map(|i| purity.instr_pure(pid, i))
                .collect()
        };
        let tabs: Vec<PidTab> = (0..system.behaviors.len())
            .map(|pid| PidTab {
                behavior: scan(pid, &behaviors[pid]),
                procs: procedures.iter().map(|c| scan(pid, c)).collect(),
            })
            .collect();
        let var_write_pure: Vec<Box<[bool]>> = (0..system.behaviors.len())
            .map(|pid| {
                (0..n_vars)
                    .map(|v| purity.var_private(pid, v) && !purity.observed_var[v])
                    .collect()
            })
            .collect();
        let enabled = tabs
            .iter()
            .any(|t| t.behavior.iter().any(|&b| b) || t.procs.iter().any(|r| r.iter().any(|&b| b)));
        Self {
            tabs,
            var_write_pure,
            enabled,
        }
    }

    /// Whether a store into `var` by process `pid` keeps the run pure:
    /// the variable must be `pid`-private and unobserved, exactly the
    /// write-position rule for statically visible places.
    #[inline]
    pub fn write_pure(&self, pid: usize, var: usize) -> bool {
        self.var_write_pure[pid][var]
    }

    /// Whether the instruction at `(code, pc)` is pure for process
    /// `pid`. Conservative: out-of-range or foreign behavior code is
    /// impure.
    #[inline]
    pub fn pure(&self, pid: usize, code: CodeRef, pc: usize) -> bool {
        let tab = &self.tabs[pid];
        let row: &[bool] = match code {
            CodeRef::Behavior(b) => {
                if b != pid {
                    return false;
                }
                &tab.behavior
            }
            CodeRef::Procedure(p) => &tab.procs[p],
        };
        row.get(pc).copied().unwrap_or(false)
    }
}
