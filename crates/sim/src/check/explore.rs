//! The exploration engine: level-by-level breadth-first search with
//! partial-order reduction, interned compact states and a structured
//! state budget.
//!
//! # Determinism
//!
//! One thread expands the states in the order they were discovered.
//! What a run leaves is interned when the interpreter makes the run,
//! and each successor's control vector right after its release sweep,
//! before the rollback; once the expansion is decided (ample or full),
//! its successors are deduplicated and numbered in the order they were
//! found. The run memo fills and evicts in that same order. State
//! numbering, error order and the max-states abort point therefore
//! follow from discovery order alone.
//!
//! # Partial-order reduction
//!
//! An expansion scans processes in pid order; the first run that
//! dynamically qualifies as *ample* (every executed instruction
//! statically pure, no signal written, no waiter released, `done`
//! unchanged, no crash among earlier pids) stands alone and the
//! remaining transitions — including environment faults — are deferred
//! to the successor. The successors of earlier pids are discarded; what
//! they added to the component pools stays there unused, which changes
//! no state's identity, because dedup compares canonical ids exactly.
//! The cycle proviso: if the ample successor is already in the visited
//! set, the expansion continues in full instead — the successors found
//! so far stay, the candidate's joins them as an ordinary successor, and
//! the later pids run with reduction off — so every cycle in the
//! reduced graph contains a fully expanded state and no transition is
//! deferred forever.
//!
//! # Transitions
//!
//! A transition pays only for what its effects require. Every stored
//! state is closed under eager release, so a process parked at a
//! level-sensitive wait cannot move and is skipped (a forced watchdog
//! expiry still runs it). Process controls stay interned: the
//! [`Scratch`] holds the expanded state's control ids and materializes
//! only the running process's control. A run's outcome is a
//! [`RunOut`] of pool ids — its control after its own releases, the
//! signal and variable vectors it left, its cost and four flags — so the
//! progress check compares ids.
//!
//! # Memoized runs
//!
//! An ordinary run reads only its control, the storage and the frozen
//! mask, so within one exploration it is a function of the running
//! process, its control id and the state's signal-vector,
//! variable-vector and environment ids. A [`RunMemo`] of 4,096 slots,
//! allocated once per exploration, keeps the latest outcome per slot; a
//! hit skips the interpreter, the control clone, the interning and the
//! signal rollback. A hit and a miss continue through one successor
//! path: the release sweep over the other processes, the control-vector
//! interning, reduction, the cycle proviso and dedup run as for a fresh
//! run, so every state number, edge and verdict is the same with or
//! without the memo. A crash, a watchdog expiry, a fault strike and a
//! run of more than `u32::MAX` cycles are never memoized. Debug builds
//! run every hit again and assert the same outcome.
//!
//! # Storage
//!
//! A stored state costs its 16-byte [`CompactState`], a 12-byte
//! [`Parent`], a 4-byte edge offset and an 8-byte [`Edge`] per outgoing
//! transition, plus a share of the visited set's [`Dedup`] table. Edge
//! and parent costs are `u32`: a run that consumes more cycles is a
//! [`SimError::TransitionCostOverflow`], never a truncated cost.

use ifsyn_spec::{BitVec, Value};

use crate::error::SimError;
use crate::eval::coerce;

use super::state::{
    CkProc, CkState, CompactState, Dedup, EnvComp, Layout, Pools, RunKey, RunMemo, RunOut,
};
use super::step::RunFx;
use super::{Checker, EnvFault};

/// One transition label, stored compactly and rendered to the seed's
/// exact strings only when a trace is printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum StepLabel {
    /// `\`{behavior}\` runs`.
    Run(u32),
    /// `watchdog expires in \`{behavior}\``.
    Watchdog(u32),
    /// `environment flips …` / `environment forces …`, by fault index.
    Fault(u32),
}

/// Largest behavior or fault index a [`PackedLabel`] holds; the checker
/// refuses larger systems when it is built.
pub(super) const MAX_LABEL_INDEX: usize = (1 << 30) - 1;

/// A [`StepLabel`] in 32 bits: the kind in the top two, the index below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct PackedLabel(u32);

impl StepLabel {
    pub fn pack(self) -> PackedLabel {
        let (kind, index) = match self {
            StepLabel::Run(i) => (0, i),
            StepLabel::Watchdog(i) => (1, i),
            StepLabel::Fault(i) => (2, i),
        };
        debug_assert!(index as usize <= MAX_LABEL_INDEX);
        PackedLabel(kind << 30 | index)
    }
}

impl PackedLabel {
    pub fn unpack(self) -> StepLabel {
        let index = self.0 & MAX_LABEL_INDEX as u32;
        match self.0 >> 30 {
            0 => StepLabel::Run(index),
            1 => StepLabel::Watchdog(index),
            _ => StepLabel::Fault(index),
        }
    }
}

/// The pooled components of the state being expanded: what a run's
/// writes are diffed against and rolled back from. The pools grow while
/// the state is expanded, so this is rebuilt after each interning and
/// reads every component by id instead of holding slices into them.
#[derive(Clone, Copy)]
struct Src<'p> {
    pools: &'p Pools,
    cs: CompactState,
}

impl<'p> Src<'p> {
    fn new(pools: &'p Pools, cs: CompactState) -> Self {
        Self { pools, cs }
    }

    fn sigs(self) -> &'p [Value] {
        self.pools.sigs.get(self.cs.sig)
    }

    /// Group-valuation ids.
    fn group_ids(self) -> &'p [u32] {
        self.pools.varvecs.get(self.cs.var)
    }

    /// Process-control ids.
    fn proc_ids(self) -> &'p [u32] {
        self.pools.ctls.get(self.cs.ctl)
    }

    fn env(self) -> &'p EnvComp {
        self.pools.envs.get(self.cs.env)
    }

    fn proc(self, p: usize) -> &'p CkProc {
        self.pools.procs.get(self.proc_ids()[p])
    }

    fn group(self, g: u32) -> &'p [Value] {
        self.pools.groups.get(self.group_ids()[g as usize])
    }
}

/// The explorer's scratch: the materialized storage of one state, its
/// control ids, the running process's control, an effect tracker, the
/// memo of runs already made and the current expansion's successors,
/// allocated once per exploration and reused for every state expanded.
/// Transitions run in place on `cur` and `ctl`, or a recalled run
/// patches the variable groups it changed into `cur`;
/// [`Scratch::rollback`] then restores what each one touched.
struct Scratch {
    cur: CkState,
    /// The control ids of the state `cur` holds. A release sweep patches
    /// the released processes' entries and settling a run patches the
    /// running process's own, until the rollback.
    ctls: Vec<u32>,
    /// The running process's control, cloned from its pool entry before
    /// each interpreter run: the one control ever materialized.
    ctl: CkProc,
    fx: RunFx,
    memo: RunMemo,
    held: Held,
    /// The successors found so far in the current expansion, in
    /// discovery order, with their costs.
    succs: Vec<(CompactState, StepLabel, u32)>,
    /// Id vector a run's group ids are patched in.
    ids: Vec<u32>,
    /// A dirty group's valuation, gathered for lookup.
    vals: Vec<Value>,
}

/// The pool ids of the storage components `cur` holds, so the next
/// [`Scratch::materialize`] copies only the components whose ids differ.
/// Pool ids are canonical and never reassigned, so equal ids mean equal
/// contents.
struct Held {
    /// The state `cur` holds, or `None` when unknown: taken when an
    /// expansion starts and put back only when one ends fully rolled
    /// back. An error exit leaves it `None`, so the next expansion
    /// copies everything.
    cs: Option<CompactState>,
    /// Per-group valuation ids: the entries of `cs.var`.
    groups: Vec<u32>,
}

impl Scratch {
    fn new(checker: &Checker<'_>) -> Self {
        let held = Held {
            cs: None,
            groups: vec![0; checker.layout.groups()],
        };
        Self {
            cur: checker.initial_state(),
            ctls: vec![0; checker.system.behaviors.len()],
            ctl: CkProc::default(),
            fx: RunFx::default(),
            memo: RunMemo::new(),
            held,
            succs: Vec::new(),
            ids: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Turns the scratch into the source state, reusing every buffer.
    /// Only the signal vector, variable groups and fault environment
    /// whose pool ids differ from the ones `cur` holds are copied, and
    /// the control ids when the source's control vector differs; after
    /// an error exit, everything is. Every expansion starts here, and the
    /// id record is trusted only when the previous expansion ended fully
    /// rolled back, so no exit path leaks into the next expansion.
    fn materialize(&mut self, src: Src<'_>, layout: &Layout) {
        let Self {
            cur: s, ctls, held, ..
        } = self;
        let prev = held.cs.take();
        let all = prev.is_none();
        if prev.is_none_or(|p| p.sig != src.cs.sig) {
            s.signals.clone_from_slice(src.sigs());
        }
        if prev.is_none_or(|p| p.var != src.cs.var) {
            for (g, (h, &id)) in held.groups.iter_mut().zip(src.group_ids()).enumerate() {
                if all || *h != id {
                    restore_group(s, src, layout, g as u32);
                    *h = id;
                }
            }
        }
        if prev.is_none_or(|p| p.ctl != src.cs.ctl) {
            ctls.copy_from_slice(src.proc_ids());
        }
        if prev.is_none_or(|p| p.env != src.cs.env) {
            s.fault_budget.copy_from_slice(&src.env().fault_budget);
            s.frozen.copy_from_slice(&src.env().frozen);
        }
        #[cfg(debug_assertions)]
        assert_holds(s, ctls, src, layout);
    }

    /// Undoes the last run of process `pid` on the scratch (`None`: the
    /// last fault strike), restoring from the source exactly what it
    /// touched: the control ids of that process and of every one `fx`
    /// says was released, the signals when the interpreter stored one or
    /// a fault struck, each dirty or patched variable group and, after a
    /// strike, the fault environment. The running control needs no
    /// restore: the next run clones its own.
    fn rollback(&mut self, src: Src<'_>, layout: &Layout, pid: Option<usize>) {
        let Self {
            cur: s, ctls, fx, ..
        } = self;
        let strike = pid.is_none();
        let src_ids = src.proc_ids();
        for p in pid
            .into_iter()
            .chain(fx.released.iter().map(|&p| p as usize))
        {
            ctls[p] = src_ids[p];
        }
        if fx.wrote_sig || strike {
            s.signals.clone_from_slice(src.sigs());
        }
        for &g in &fx.dirty_groups {
            restore_group(s, src, layout, g);
        }
        if strike {
            s.fault_budget.copy_from_slice(&src.env().fault_budget);
            s.frozen.copy_from_slice(&src.env().frozen);
        }
    }

    /// Runs process `pid` of the source state `cs` through the
    /// interpreter from its pooled control (`expire`: by expiring its
    /// watchdog) and interns what the run left: its control after its
    /// own releases, its signal vector and its variable vector, the dirty
    /// groups in first-write order. The run's writes stay in the scratch,
    /// recorded in `fx`, until [`Scratch::rollback`]. `Ok(Err(e))`: the
    /// run crashed.
    fn run(
        &mut self,
        ck: &Checker<'_>,
        pools: &mut Pools,
        cs: CompactState,
        pid: usize,
        expire: Option<u64>,
    ) -> Result<Result<RunOut, SimError>, SimError> {
        let Self {
            cur,
            ctl,
            fx,
            ids,
            vals,
            ..
        } = self;
        ctl.clone_from(pools.procs.get(pools.ctls.get(cs.ctl)[pid]));
        fx.reset(ck.por_on());
        let cost = match ck.run_one(cur, ctl, pid, expire, fx) {
            Ok(cost) => cost,
            Err(e) => return Ok(Err(e)),
        };
        let released = ck.release_own(cur, ctl)?;
        let ctl_id = pools.procs.intern_with(&*ctl, || ctl.clone());
        let sig = if fx.wrote_sig {
            pools.sigs.intern(&cur.signals)
        } else {
            cs.sig
        };
        let var = if fx.dirty_groups.is_empty() {
            cs.var
        } else {
            ids.clear();
            ids.extend_from_slice(pools.varvecs.get(cs.var));
            for &g in &fx.dirty_groups {
                vals.clear();
                vals.extend(
                    ck.layout.group_members[g as usize]
                        .iter()
                        .map(|&v| cur.vars[v as usize].clone()),
                );
                ids[g as usize] = pools.groups.intern_with(&vals[..], || vals[..].into());
            }
            pools.varvecs.intern(ids)
        };
        Ok(Ok(RunOut {
            cost,
            ctl: ctl_id,
            sig,
            var,
            wrote_sig: fx.wrote_sig,
            released,
            pure: fx.pure_run,
            done: ctl.done,
        }))
    }

    /// Puts a recalled run `out` of the source state's variables `var`
    /// into the scratch as the interpreter would have left it, as far as
    /// the release sweep reads it: each variable group whose id changed
    /// is patched in and marked dirty for the rollback. Its signals stay
    /// pooled; the sweep reads them by id.
    fn recall(&mut self, pools: &Pools, layout: &Layout, var: u32, out: &RunOut) {
        self.fx.reset(false);
        if out.var == var {
            return;
        }
        let old = pools.varvecs.get(var);
        for (g, (&new, &old)) in pools.varvecs.get(out.var).iter().zip(old).enumerate() {
            if new != old {
                let vals = pools.groups.get(new);
                for (&v, val) in layout.group_members[g].iter().zip(vals.iter()) {
                    self.cur.vars[v as usize].clone_from(val);
                }
                self.fx.dirty_groups.push(g as u32);
            }
        }
    }

    /// Settles run `out` of process `pid` on the source state `cs`,
    /// whether the interpreter just made it or the memo recalled it: the
    /// running process takes its control id, the release sweep looks at
    /// every other process over the run's pooled signals and the
    /// scratch's variables, and, when the run moved anything, the
    /// successor is interned. The components the run left are already
    /// pooled, so only the control-id vector is looked up, when a
    /// control moved. `None`: the run left the state as it found it.
    fn successor(
        &mut self,
        ck: &Checker<'_>,
        pools: &mut Pools,
        cs: CompactState,
        pid: usize,
        out: &RunOut,
    ) -> Result<Option<CompactState>, SimError> {
        let Self { cur, ctls, fx, .. } = self;
        ctls[pid] = out.ctl;
        if out.released {
            fx.released.push(pid as u32);
        }
        ck.release_waiters(out.sig, &cur.vars, pools, ctls, Some(pid), fx)?;
        let moved = out.ctl != pools.ctls.get(cs.ctl)[pid] || !fx.released.is_empty();
        if !moved && out.sig == cs.sig && out.var == cs.var {
            return Ok(None);
        }
        let ctl = if moved {
            pools.ctls.intern(ctls)
        } else {
            cs.ctl
        };
        Ok(Some(CompactState {
            sig: out.sig,
            var: out.var,
            ctl,
            env: cs.env,
        }))
    }
}

/// Copies variable group `g`'s source valuation back into `s`.
fn restore_group(s: &mut CkState, src: Src<'_>, layout: &Layout, g: u32) {
    let vals = src.group(g);
    for (&v, val) in layout.group_members[g as usize].iter().zip(vals.iter()) {
        s.vars[v as usize].clone_from(val);
    }
}

/// The id-keyed materialization's invariant: the scratch storage equals
/// the source state component by component, and the scratch holds the
/// source's control ids.
#[cfg(debug_assertions)]
fn assert_holds(s: &CkState, ctls: &[u32], src: Src<'_>, layout: &Layout) {
    assert_eq!(s.signals[..], *src.sigs(), "scratch signals");
    for (g, members) in layout.group_members.iter().enumerate() {
        for (&v, val) in members.iter().zip(src.group(g as u32)) {
            assert_eq!(s.vars[v as usize], *val, "scratch variable v{v}");
        }
    }
    assert_eq!(*ctls, *src.proc_ids(), "scratch control ids");
    assert_eq!(
        *s.fault_budget,
        *src.env().fault_budget,
        "scratch fault budget"
    );
    assert_eq!(*s.frozen, *src.env().frozen, "scratch frozen mask");
}

/// Exploration statistics, reported on every [`super::StateSpace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Distinct states discovered.
    pub states: usize,
    /// Transitions (edges) recorded.
    pub transitions: usize,
    /// Quiescent (terminal) states.
    pub terminals: usize,
    /// Crash (error) edges recorded.
    pub errors: usize,
    /// Successors that landed on an already-visited state.
    pub dedup_hits: u64,
    /// States expanded through a single ample transition.
    pub ample_states: u64,
    /// States expanded in full.
    pub full_states: u64,
    /// Largest number of discovered-but-unexpanded states at the end of
    /// any BFS level.
    pub peak_frontier: usize,
}

/// Exploration stopped at the configured state budget instead of
/// exhausting the reachable set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedInfo {
    /// The configured [`super::CheckConfig::with_state_limit`] budget.
    pub limit: usize,
    /// States discovered but never expanded when the budget hit.
    pub frontier: usize,
}

/// A parent-link back-pointer: enough to rebuild any state's discovery
/// path without storing per-state trace strings. 12 bytes.
#[derive(Debug, Clone, Copy)]
pub(super) struct Parent {
    /// Predecessor state index (`u32::MAX` for the root).
    pub pred: u32,
    pub label: PackedLabel,
    pub cost: u32,
}

/// One transition in the compressed-sparse-row edge list. 8 bytes.
#[derive(Debug, Clone, Copy)]
pub(super) struct Edge {
    pub to: u32,
    pub cost: u32,
}

/// The explored (possibly reduced, possibly bounded) state graph.
pub(super) struct Graph {
    pub pools: Pools,
    pub states: Vec<CompactState>,
    pub parents: Vec<Parent>,
    /// Edges of state `i`: `edges[edge_off[i]..edge_off[i + 1]]`.
    pub edges: Vec<Edge>,
    pub edge_off: Vec<u32>,
    pub terminals: Vec<u32>,
    pub errors: Vec<(u32, String)>,
    pub stats: CheckStats,
    pub bounded: Option<BoundedInfo>,
}

/// Interns the root: its variables and environment from `s`, its
/// signals and controls already pooled under `sig` and `ctls`.
fn intern_full(
    pools: &mut Pools,
    layout: &Layout,
    s: &CkState,
    sig: u32,
    ctls: &[u32],
) -> CompactState {
    let var_ids: Vec<u32> = (0..layout.groups())
        .map(|grp| {
            pools
                .groups
                .intern(layout.extract_group(grp as u32, &s.vars))
        })
        .collect();
    let var = pools.varvecs.intern(&var_ids);
    let ctl = pools.ctls.intern(ctls);
    let env = pools.envs.intern(EnvComp {
        fault_budget: s.fault_budget.clone().into_boxed_slice(),
        frozen: s.frozen.clone().into_boxed_slice(),
    });
    CompactState { sig, var, ctl, env }
}

impl<'a> Checker<'a> {
    fn por_on(&self) -> bool {
        self.por.as_ref().is_some_and(|t| t.enabled)
    }

    /// The hard abort cap on stored states. A graceful state budget
    /// ([`super::CheckConfig::with_state_limit`]) supersedes it: a
    /// budgeted run's contract is a structured `Bounded` verdict, never
    /// an exhaustion error, regardless of where the budget sits relative
    /// to the cap (the budget is enforced at level boundaries, so a lower
    /// cap could otherwise abort mid-level first).
    pub(super) fn hard_max_states(&self) -> usize {
        if self.config.state_limit.is_some() {
            usize::MAX
        } else {
            self.max_states
        }
    }

    /// A successor's cost as a stored transition records it. A run of
    /// more than `u32::MAX` cycles ends the exploration: it is a limit of
    /// the store, not a crash of the system.
    fn edge_cost(&self, pid: usize, cost: u64) -> Result<u32, SimError> {
        u32::try_from(cost).map_err(|_| SimError::TransitionCostOverflow {
            behavior: self.system.behaviors[pid].name.clone(),
            cost,
        })
    }

    /// Records the edge from state `si` to `succ`, numbering `succ` as
    /// the next state when the dedup table has not seen it.
    fn add_edge(
        &self,
        g: &mut Graph,
        dedup: &mut Dedup,
        si: usize,
        (succ, label, cost): (CompactState, StepLabel, u32),
    ) -> Result<(), SimError> {
        let to = match dedup.find(&g.states, succ) {
            Ok(i) => {
                g.stats.dedup_hits += 1;
                i
            }
            Err(at) => {
                let i = g.states.len();
                if i >= self.hard_max_states() {
                    return Err(SimError::StateCapExceeded {
                        max_states: self.max_states,
                    });
                }
                g.states.push(succ);
                dedup.insert(&g.states, at, i as u32);
                g.parents.push(Parent {
                    pred: si as u32,
                    label: label.pack(),
                    cost,
                });
                i as u32
            }
        };
        g.edges.push(Edge { to, cost });
        Ok(())
    }

    /// Expands state `si` and records its edges: the seed's `successors`
    /// with the ample-set shortcut. With `por` set, the first qualifying
    /// pure run stands alone (later pids unscanned — sound, see the
    /// module docs) unless its successor is already visited; otherwise
    /// the full successor set is recorded in the seed's order: process
    /// runs in pid order, watchdog expiries when nothing else moves, then
    /// budgeted fault strikes in config order.
    ///
    /// A process that is done, or parked at a level-sensitive wait, takes
    /// no step: every stored state is closed under eager release, so the
    /// wait does not hold, and the run would end where it began. Only a
    /// watchdog expiry runs such a process.
    ///
    /// An ordinary run is first looked up in the run memo; a miss runs
    /// the interpreter and fills the memo, and both continue through
    /// [`Scratch::successor`]. A crash, a watchdog expiry and a fault
    /// strike are never memoized.
    fn expand(
        &self,
        ctx: &mut Scratch,
        g: &mut Graph,
        dedup: &mut Dedup,
        si: usize,
        mut por: bool,
    ) -> Result<(), SimError> {
        let cs = g.states[si];
        ctx.materialize(Src::new(&g.pools, cs), &self.layout);
        ctx.succs.clear();
        let mut crashes = Vec::new();
        let mut live = false;
        for pid in 0..ctx.ctls.len() {
            let ctl = Src::new(&g.pools, cs).proc_ids()[pid];
            let proc = g.pools.procs.get(ctl);
            if proc.done || self.parked_wait(proc).is_some() {
                continue;
            }
            let key = RunKey {
                pid: pid as u32,
                ctl,
                sig: cs.sig,
                var: cs.var,
                env: cs.env,
            };
            let out = match ctx.memo.get(key) {
                Some(out) => {
                    #[cfg(debug_assertions)]
                    self.assert_reruns(ctx, &mut g.pools, cs, pid, out)?;
                    ctx.recall(&g.pools, &self.layout, cs.var, &out);
                    out
                }
                None => match ctx.run(self, &mut g.pools, cs, pid, None)? {
                    Ok(out) => {
                        ctx.memo.put(key, out);
                        out
                    }
                    Err(e) => {
                        live = true;
                        crashes.push(format!(
                            "`{}` crashes: {e}",
                            self.system.behaviors[pid].name
                        ));
                        ctx.rollback(Src::new(&g.pools, cs), &self.layout, Some(pid));
                        continue;
                    }
                },
            };
            if let Some(succ) = ctx.successor(self, &mut g.pools, cs, pid, &out)? {
                let cost = self.edge_cost(pid, out.cost)?;
                live = true;
                let ample = por
                    && crashes.is_empty()
                    && out.pure
                    && !out.wrote_sig
                    && ctx.fx.released.is_empty()
                    && !out.done;
                let edge = (succ, StepLabel::Run(pid as u32), cost);
                if ample {
                    if dedup.find(&g.states, succ).is_err() {
                        ctx.rollback(Src::new(&g.pools, cs), &self.layout, Some(pid));
                        ctx.held.cs = Some(cs);
                        self.add_edge(g, dedup, si, edge)?;
                        g.stats.ample_states += 1;
                        return Ok(());
                    }
                    // Cycle proviso: the deferred transitions
                    // would never be explored along this lasso —
                    // expand the source in full. The earlier
                    // pids' successors are already here, and this
                    // one joins them.
                    por = false;
                }
                ctx.succs.push(edge);
            }
            ctx.rollback(Src::new(&g.pools, cs), &self.layout, Some(pid));
        }
        if !live {
            for pid in 0..ctx.ctls.len() {
                let ctl = Src::new(&g.pools, cs).proc(pid);
                let Some(cycles) = self.parked_wait(ctl).and_then(|w| w.timeout()) else {
                    continue;
                };
                match ctx.run(self, &mut g.pools, cs, pid, Some(cycles))? {
                    Ok(out) => {
                        if let Some(succ) = ctx.successor(self, &mut g.pools, cs, pid, &out)? {
                            let cost = self.edge_cost(pid, out.cost)?;
                            live = true;
                            ctx.succs
                                .push((succ, StepLabel::Watchdog(pid as u32), cost));
                        }
                    }
                    Err(e) => {
                        live = true;
                        crashes.push(format!(
                            "watchdog expiry in `{}` crashes: {e}",
                            self.system.behaviors[pid].name
                        ));
                    }
                }
                ctx.rollback(Src::new(&g.pools, cs), &self.layout, Some(pid));
            }
        }
        for (fi, (idx, fault)) in self.faults.iter().enumerate() {
            let src = Src::new(&g.pools, cs);
            if src.env().fault_budget[fi] == 0 {
                continue;
            }
            let (value, freeze) = match fault {
                EnvFault::FlipBit { bit, .. } => {
                    if src.env().frozen[*idx] {
                        continue;
                    }
                    let old = &src.sigs()[*idx];
                    let mut bits = old.to_bits();
                    debug_assert!(*bit < bits.width(), "refused by Checker::with_config");
                    let inverted = BitVec::from_u64(u64::from(!bits.bit(*bit)), 1);
                    bits.write_slice(*bit, *bit, &inverted);
                    (Value::from_bits(&old.ty(), &bits), false)
                }
                EnvFault::StuckLow { .. } => (
                    coerce(Value::Bit(false), &self.system.signals[*idx].ty),
                    true,
                ),
            };
            ctx.fx.reset(false);
            ctx.cur.signals[*idx] = value;
            if freeze {
                ctx.cur.frozen[*idx] = true;
            }
            ctx.cur.fault_budget[fi] -= 1;
            let sig = g.pools.sigs.intern(&ctx.cur.signals);
            self.release_waiters(
                sig,
                &ctx.cur.vars,
                &mut g.pools,
                &mut ctx.ctls,
                None,
                &mut ctx.fx,
            )?;
            let ctl = if ctx.fx.released.is_empty() {
                cs.ctl
            } else {
                g.pools.ctls.intern(&ctx.ctls)
            };
            let env = g.pools.envs.intern(EnvComp {
                fault_budget: ctx.cur.fault_budget[..].into(),
                frozen: ctx.cur.frozen[..].into(),
            });
            let succ = CompactState {
                sig,
                var: cs.var,
                ctl,
                env,
            };
            ctx.succs.push((succ, StepLabel::Fault(fi as u32), 0));
            ctx.rollback(Src::new(&g.pools, cs), &self.layout, None);
        }
        ctx.held.cs = Some(cs);
        if !live {
            g.terminals.push(si as u32);
        }
        for label in crashes {
            g.errors.push((si as u32, label));
        }
        for &edge in &ctx.succs {
            self.add_edge(g, dedup, si, edge)?;
        }
        g.stats.full_states += 1;
        Ok(())
    }

    /// The memo's cross-check: a recalled run of process `pid` on state
    /// `cs`, run again through the interpreter, leaves exactly what the
    /// memo recalled. The rerun's writes are rolled back, and whatever it
    /// interns is already pooled.
    #[cfg(debug_assertions)]
    fn assert_reruns(
        &self,
        ctx: &mut Scratch,
        pools: &mut Pools,
        cs: CompactState,
        pid: usize,
        out: RunOut,
    ) -> Result<(), SimError> {
        let rerun = ctx.run(self, pools, cs, pid, None)?;
        assert_eq!(
            rerun,
            Ok(out),
            "memoized run of `{}`",
            self.system.behaviors[pid].name
        );
        ctx.rollback(Src::new(pools, cs), &self.layout, Some(pid));
        Ok(())
    }

    /// Explores the reachable graph; see [`Checker::explore`] for the
    /// error contract.
    pub(super) fn explore_graph(&self) -> Result<Graph, SimError> {
        let por = self.por_on();
        let mut ctx = Scratch::new(self);
        let mut g = Graph {
            pools: Pools::new(ctx.cur.signals.len(), self.layout.groups(), ctx.ctls.len()),
            states: Vec::new(),
            parents: Vec::new(),
            edges: Vec::new(),
            edge_off: vec![0],
            terminals: Vec::new(),
            errors: Vec::new(),
            stats: CheckStats::default(),
            bounded: None,
        };
        let mut dedup = Dedup::new();

        // The scratch state starts as the root; `held` stays unknown, so
        // the first expansion copies every component back in.
        for (b, id) in ctx.ctls.iter_mut().enumerate() {
            *id = g.pools.procs.intern(CkProc::start(b));
        }
        ctx.fx.reset(false);
        let sig = g.pools.sigs.intern(&ctx.cur.signals);
        self.release_waiters(
            sig,
            &ctx.cur.vars,
            &mut g.pools,
            &mut ctx.ctls,
            None,
            &mut ctx.fx,
        )?;
        let init_cs = intern_full(&mut g.pools, &self.layout, &ctx.cur, sig, &ctx.ctls);
        let at = dedup
            .find(&g.states, init_cs)
            .expect_err("the visited set starts empty");
        g.states.push(init_cs);
        dedup.insert(&g.states, at, 0);
        g.parents.push(Parent {
            pred: u32::MAX,
            label: StepLabel::Run(0).pack(),
            cost: 0,
        });

        let (mut l0, mut l1) = (0usize, 1usize);
        while l0 < l1 {
            for si in l0..l1 {
                self.expand(&mut ctx, &mut g, &mut dedup, si, por)?;
                g.edge_off.push(g.edges.len() as u32);
            }
            let frontier = g.states.len() - l1;
            g.stats.peak_frontier = g.stats.peak_frontier.max(frontier);
            l0 = l1;
            l1 = g.states.len();
            if let Some(limit) = self.config.state_limit {
                if g.states.len() >= limit && l0 < l1 {
                    g.bounded = Some(BoundedInfo {
                        limit,
                        frontier: l1 - l0,
                    });
                    break;
                }
            }
        }

        // Pad the CSR offsets so unexpanded (frontier) states index an
        // empty edge range.
        let total = g.edges.len() as u32;
        g.edge_off.resize(g.states.len() + 1, total);
        g.stats.states = g.states.len();
        g.stats.transitions = g.edges.len();
        g.stats.terminals = g.terminals.len();
        g.stats.errors = g.errors.len();
        Ok(g)
    }
}
