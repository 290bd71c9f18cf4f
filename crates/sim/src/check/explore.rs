//! The exploration engine: level-by-level breadth-first search with
//! partial-order reduction, interned compact states and a structured
//! state budget.
//!
//! # Determinism
//!
//! One thread expands the states in the order they were discovered.
//! Each successor is interned straight from the scratch state right
//! after its run, before the rollback; once the expansion is decided
//! (ample or full), its successors are deduplicated and numbered in the
//! order they were found. State numbering, error order and the
//! max-states abort point therefore follow from discovery order alone.
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

use super::state::{CkProc, CkState, CompactState, Dedup, EnvComp, Layout, Pools};
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

/// The explorer's scratch: one materialized state, an effect tracker
/// and the current expansion's successors, allocated once
/// and reused for every state expanded. Transitions run in place on
/// `cur`; [`Scratch::rollback`] then restores what each one touched.
struct Scratch {
    cur: CkState,
    fx: RunFx,
    held: Held,
    /// The successors found so far in the current expansion, in
    /// discovery order, with their costs.
    succs: Vec<(CompactState, StepLabel, u32)>,
    /// Id vector a successor's group or control ids are patched in.
    ids: Vec<u32>,
    /// A dirty group's valuation, gathered for lookup.
    vals: Vec<Value>,
}

/// The pool ids of the components `cur` holds, so the next
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
    /// Per-process control ids: the entries of `cs.ctl`.
    procs: Vec<u32>,
}

impl Scratch {
    fn new(checker: &Checker<'_>) -> Self {
        let cur = checker.initial_state();
        let held = Held {
            cs: None,
            groups: vec![0; checker.layout.groups()],
            procs: vec![0; cur.procs.len()],
        };
        Self {
            cur,
            fx: RunFx::default(),
            held,
            succs: Vec::new(),
            ids: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Turns `cur` into the source state, reusing every buffer. Only the
    /// signal vector, variable groups, process controls and fault
    /// environment whose pool ids differ from the ones `cur` holds are
    /// copied; after an error exit, everything is. Every expansion
    /// starts here, and the id record is trusted only when the previous
    /// expansion ended fully rolled back, so no exit path leaks into the
    /// next expansion.
    fn materialize(&mut self, src: Src<'_>, layout: &Layout) {
        let Self { cur: s, held, .. } = self;
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
            for (p, (h, &id)) in held.procs.iter_mut().zip(src.proc_ids()).enumerate() {
                if all || *h != id {
                    s.procs[p].clone_from(src.pools.procs.get(id));
                    *h = id;
                }
            }
        }
        if prev.is_none_or(|p| p.env != src.cs.env) {
            s.fault_budget.copy_from_slice(&src.env().fault_budget);
            s.frozen.copy_from_slice(&src.env().frozen);
        }
        #[cfg(debug_assertions)]
        assert_holds(s, src, layout);
    }

    /// Undoes the last run of process `pid` on `cur` (`None`: the last
    /// fault strike), restoring from the source exactly what it touched:
    /// that process and every one `fx` says was released, the signals
    /// when one was stored or a fault struck, each dirty variable group
    /// and, after a strike, the fault environment.
    fn rollback(&mut self, src: Src<'_>, layout: &Layout, pid: Option<usize>) {
        let Self { cur: s, fx, .. } = self;
        let strike = pid.is_none();
        if let Some(p) = pid {
            s.procs[p].clone_from(src.proc(p));
        }
        for &p in &fx.released {
            s.procs[p as usize].clone_from(src.proc(p as usize));
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

    /// Interns the last run's result `cur` as a successor of `src` (run
    /// by process `pid`; `None`: a fault strike). Only the components
    /// `fx` says were touched are looked up — plus, after a strike, the
    /// signals and fault environment — and the rest keep the source's
    /// ids. Components are met in a fixed order (signals, dirty groups
    /// in first-write order, the group-id vector, the running process
    /// and then each released one, the control-id vector, the
    /// environment), so ids are handed out in that order, and a
    /// component some state already holds costs no allocation.
    fn intern(
        &mut self,
        pools: &mut Pools,
        layout: &Layout,
        src: CompactState,
        pid: Option<usize>,
    ) -> CompactState {
        let Self {
            cur: s,
            fx,
            ids,
            vals,
            ..
        } = self;
        let strike = pid.is_none();
        let sig = if fx.wrote_sig || strike {
            pools.sigs.intern(&s.signals)
        } else {
            src.sig
        };
        let var = if fx.dirty_groups.is_empty() {
            src.var
        } else {
            ids.clear();
            ids.extend_from_slice(pools.varvecs.get(src.var));
            for &g in &fx.dirty_groups {
                vals.clear();
                vals.extend(
                    layout.group_members[g as usize]
                        .iter()
                        .map(|&v| s.vars[v as usize].clone()),
                );
                ids[g as usize] = pools.groups.intern_with(&vals[..], || vals[..].into());
            }
            pools.varvecs.intern(ids)
        };
        let ctl = if pid.is_none() && fx.released.is_empty() {
            src.ctl
        } else {
            ids.clear();
            ids.extend_from_slice(pools.ctls.get(src.ctl));
            for p in pid
                .into_iter()
                .chain(fx.released.iter().map(|&p| p as usize))
            {
                ids[p] = pools.procs.intern_with(&s.procs[p], || s.procs[p].clone());
            }
            pools.ctls.intern(ids)
        };
        let env = if strike {
            pools.envs.intern(EnvComp {
                fault_budget: s.fault_budget[..].into(),
                frozen: s.frozen[..].into(),
            })
        } else {
            src.env
        };
        CompactState { sig, var, ctl, env }
    }
}

/// Copies variable group `g`'s source valuation back into `s`.
fn restore_group(s: &mut CkState, src: Src<'_>, layout: &Layout, g: u32) {
    let vals = src.group(g);
    for (&v, val) in layout.group_members[g as usize].iter().zip(vals.iter()) {
        s.vars[v as usize].clone_from(val);
    }
}

/// The id-keyed materialization's invariant: the scratch state equals
/// the source state component by component.
#[cfg(debug_assertions)]
fn assert_holds(s: &CkState, src: Src<'_>, layout: &Layout) {
    assert_eq!(s.signals[..], *src.sigs(), "scratch signals");
    for (g, members) in layout.group_members.iter().enumerate() {
        for (&v, val) in members.iter().zip(src.group(g as u32)) {
            assert_eq!(s.vars[v as usize], *val, "scratch variable v{v}");
        }
    }
    for (p, proc) in s.procs.iter().enumerate() {
        assert_eq!(*proc, *src.proc(p), "scratch control of process {p}");
    }
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

/// Interns a fully materialized state (the root).
fn intern_full(pools: &mut Pools, layout: &Layout, s: &CkState) -> CompactState {
    let sig = pools.sigs.intern(&s.signals);
    let var_ids: Vec<u32> = (0..layout.groups())
        .map(|grp| {
            pools
                .groups
                .intern(layout.extract_group(grp as u32, &s.vars))
        })
        .collect();
    let var = pools.varvecs.intern(&var_ids);
    let ctl_ids: Vec<u32> = s
        .procs
        .iter()
        .map(|p| pools.procs.intern_with(p, || p.clone()))
        .collect();
    let ctl = pools.ctls.intern(&ctl_ids);
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

    /// Exact progress test replacing the seed's whole-state `state !=
    /// *src` comparison: the tracked effects bound what can differ, so
    /// only the touched components of the run's result `s` are compared
    /// with the source (and usually none are — an advanced pc or a
    /// released waiter decides immediately).
    fn progress(&self, src: Src<'_>, s: &CkState, fx: &RunFx, pid: usize) -> bool {
        if s.procs[pid] != *src.proc(pid) {
            return true;
        }
        if !fx.released.is_empty() {
            return true;
        }
        if fx.wrote_sig && s.signals[..] != *src.sigs() {
            return true;
        }
        fx.dirty_groups.iter().any(|&g| {
            self.layout.group_members[g as usize]
                .iter()
                .zip(src.group(g).iter())
                .any(|(&v, old)| s.vars[v as usize] != *old)
        })
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
        for pid in 0..ctx.cur.procs.len() {
            ctx.fx.reset(por);
            match self.run_one(&mut ctx.cur, pid, false, &mut ctx.fx) {
                // Nothing was written: no release sweep, diff or rollback.
                Ok(None) => continue,
                Ok(Some(cost)) => {
                    self.release_waiters(&mut ctx.cur, &mut ctx.fx)?;
                    let src = Src::new(&g.pools, cs);
                    if self.progress(src, &ctx.cur, &ctx.fx, pid) {
                        let cost = self.edge_cost(pid, cost)?;
                        live = true;
                        let ample = por
                            && crashes.is_empty()
                            && ctx.fx.pure_run
                            && !ctx.fx.wrote_sig
                            && ctx.fx.released.is_empty()
                            && ctx.cur.procs[pid].done == src.proc(pid).done;
                        let succ = ctx.intern(&mut g.pools, &self.layout, cs, Some(pid));
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
                }
                Err(e) => {
                    live = true;
                    crashes.push(format!(
                        "`{}` crashes: {e}",
                        self.system.behaviors[pid].name
                    ));
                }
            }
            ctx.rollback(Src::new(&g.pools, cs), &self.layout, Some(pid));
        }
        if !live {
            for pid in 0..ctx.cur.procs.len() {
                ctx.fx.reset(por);
                match self.run_one(&mut ctx.cur, pid, true, &mut ctx.fx) {
                    Ok(None) => continue,
                    Ok(Some(cost)) => {
                        self.release_waiters(&mut ctx.cur, &mut ctx.fx)?;
                        if self.progress(Src::new(&g.pools, cs), &ctx.cur, &ctx.fx, pid) {
                            let cost = self.edge_cost(pid, cost)?;
                            live = true;
                            let succ = ctx.intern(&mut g.pools, &self.layout, cs, Some(pid));
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
            self.release_waiters(&mut ctx.cur, &mut ctx.fx)?;
            let succ = ctx.intern(&mut g.pools, &self.layout, cs, None);
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

    /// Explores the reachable graph; see [`Checker::explore`] for the
    /// error contract.
    pub(super) fn explore_graph(&self) -> Result<Graph, SimError> {
        let por = self.por_on();
        let mut ctx = Scratch::new(self);
        let mut g = Graph {
            pools: Pools::new(
                ctx.cur.signals.len(),
                self.layout.groups(),
                ctx.cur.procs.len(),
            ),
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
        ctx.fx.reset(false);
        self.release_waiters(&mut ctx.cur, &mut ctx.fx)?;
        let init_cs = intern_full(&mut g.pools, &self.layout, &ctx.cur);
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
