//! The exploration engine: level-synchronized breadth-first search with
//! partial-order reduction, interned compact states, optional parallel
//! frontier expansion and a structured state budget.
//!
//! # Determinism
//!
//! The engine expands one BFS level at a time. Expansion of the level's
//! states is side-effect-free (workers own their scratch state and only
//! read the pools), so it can run on any number of threads; all shared
//! mutation — interning, dedup, state numbering, edge/parent recording —
//! happens in a serial *commit* pass that walks the level in state
//! order. Discovery order is therefore exactly the seed's FIFO order,
//! and state numbering, pool-id assignment (hence fingerprints and
//! bitstate collisions), error propagation order and the max-states
//! abort point are all byte-identical at every thread count.
//!
//! # Partial-order reduction
//!
//! During expansion each worker scans processes in pid order; the first
//! run that dynamically qualifies as *ample* (every executed instruction
//! statically pure, no signal written, no waiter released, `done`
//! unchanged, no crash among earlier pids) is returned alone and the
//! remaining transitions — including environment faults — are deferred
//! to the successor. The commit pass enforces the cycle proviso: if an
//! ample successor is already in the dedup table, the source is
//! re-expanded in full, so every cycle in the reduced graph contains a
//! fully expanded state and no transition is deferred forever.

use std::hash::Hash;

use ifsyn_spec::{BitVec, Value};

use crate::error::SimError;
use crate::eval::coerce;
use crate::exec::RegFile;

use super::state::{CkProc, CkState, CompactState, Dedup, EnvComp, Interner, Layout, Pools};
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

/// One successor, described by its changed components only — the commit
/// pass re-interns exactly these and inherits the rest from the source.
pub(super) struct SuccData {
    pub label: StepLabel,
    pub cost: u64,
    /// Full signal valuation, when any signal was stored.
    sig: Option<Found<Box<[Value]>>>,
    /// Dirty variable groups with their new valuations.
    groups: Vec<(u32, Box<[Value]>)>,
    /// Changed process control states.
    procs: Vec<(u32, Found<CkProc>)>,
    /// New fault environment, when a fault struck.
    env: Option<EnvComp>,
}

/// A successor component as a worker resolved it against the read-only
/// pools: the id of an equal pooled component, or — on a miss — an
/// owned copy for the serial commit to intern.
enum Found<T> {
    Id(u32),
    New(T),
}

impl<T: Hash + Eq> Found<T> {
    /// The component's id, interning a miss (ids are assigned only
    /// here, at the serial commit).
    fn intern(self, pool: &mut Interner<T>) -> u32 {
        match self {
            Found::Id(id) => id,
            Found::New(value) => pool.intern(value),
        }
    }
}

/// Result of expanding one state.
pub(super) enum Expansion {
    /// A single ample transition stands in for the whole successor set.
    Ample(SuccData),
    /// The full successor set, as in the seed.
    Full {
        succs: Vec<SuccData>,
        terminal: bool,
        crashes: Vec<String>,
    },
}

/// The pooled components of the state being expanded: what a run's
/// writes are diffed against and rolled back from.
struct Src<'p> {
    pools: &'p Pools,
    cs: CompactState,
    sigs: &'p [Value],
    /// Group-valuation ids.
    groups: &'p [u32],
    /// Process-control ids.
    procs: &'p [u32],
    env: &'p EnvComp,
}

impl<'p> Src<'p> {
    fn new(pools: &'p Pools, cs: CompactState) -> Self {
        Self {
            pools,
            cs,
            sigs: pools.sigs.get(cs.sig),
            groups: pools.varvecs.get(cs.var),
            procs: pools.ctls.get(cs.ctl),
            env: pools.envs.get(cs.env),
        }
    }

    fn proc(&self, p: usize) -> &'p CkProc {
        self.pools.procs.get(self.procs[p])
    }

    fn group(&self, g: u32) -> &'p [Value] {
        self.pools.groups.get(self.groups[g as usize])
    }
}

/// A worker's private scratch: one materialized state, a register file
/// and an effect tracker, allocated once and reused for every state the
/// worker expands. Transitions run in place on `cur`;
/// [`WorkerCtx::rollback`] then restores what each one touched.
pub(super) struct WorkerCtx {
    cur: CkState,
    regs: RegFile,
    fx: RunFx,
    held: Held,
}

/// The pool ids of the components a worker's `cur` holds, so the next
/// [`WorkerCtx::materialize`] copies only the components whose ids
/// differ. Pool ids are canonical and never reassigned, so equal ids
/// mean equal contents.
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

impl WorkerCtx {
    fn new(checker: &Checker<'_>) -> Self {
        let cur = checker.initial_state();
        let held = Held {
            cs: None,
            groups: vec![0; checker.layout.groups()],
            procs: vec![0; cur.procs.len()],
        };
        Self {
            cur,
            regs: RegFile::with_capacity(checker.max_regs as usize),
            fx: RunFx::default(),
            held,
        }
    }

    /// Turns `cur` into the source state, reusing every buffer. Only the
    /// signal vector, variable groups, process controls and fault
    /// environment whose pool ids differ from the ones `cur` holds are
    /// copied; after an error exit, everything is. Every expansion
    /// starts here, and the id record is trusted only when the previous
    /// expansion ended fully rolled back, so no exit path leaks into the
    /// next expansion.
    fn materialize(&mut self, src: &Src<'_>, layout: &Layout) {
        let Self { cur: s, held, .. } = self;
        let prev = held.cs.take();
        let all = prev.is_none();
        if prev.is_none_or(|p| p.sig != src.cs.sig) {
            s.signals.clone_from_slice(src.sigs);
        }
        if prev.is_none_or(|p| p.var != src.cs.var) {
            for (g, (h, &id)) in held.groups.iter_mut().zip(src.groups).enumerate() {
                if all || *h != id {
                    restore_group(s, src, layout, g as u32);
                    *h = id;
                }
            }
        }
        if prev.is_none_or(|p| p.ctl != src.cs.ctl) {
            for (p, (h, &id)) in held.procs.iter_mut().zip(src.procs).enumerate() {
                if all || *h != id {
                    s.procs[p].clone_from(src.pools.procs.get(id));
                    *h = id;
                }
            }
        }
        if prev.is_none_or(|p| p.env != src.cs.env) {
            s.fault_budget.copy_from_slice(&src.env.fault_budget);
            s.frozen.copy_from_slice(&src.env.frozen);
        }
        #[cfg(debug_assertions)]
        assert_holds(s, src, layout);
    }

    /// Undoes the last run of process `pid` on `cur` (`None`: the last
    /// fault strike), restoring from the source exactly what it touched:
    /// that process and every one `fx` says was released, the signals
    /// when one was stored or a fault struck, each dirty variable group
    /// and, after a strike, the fault environment.
    fn rollback(&mut self, src: &Src<'_>, layout: &Layout, pid: Option<usize>) {
        let Self { cur: s, fx, .. } = self;
        let strike = pid.is_none();
        if let Some(p) = pid {
            s.procs[p].clone_from(src.proc(p));
        }
        for &p in &fx.released {
            s.procs[p as usize].clone_from(src.proc(p as usize));
        }
        if fx.wrote_sig || strike {
            s.signals.clone_from_slice(src.sigs);
        }
        for &g in &fx.dirty_groups {
            restore_group(s, src, layout, g);
        }
        if strike {
            s.fault_budget.copy_from_slice(&src.env.fault_budget);
            s.frozen.copy_from_slice(&src.env.frozen);
        }
    }
}

/// Copies variable group `g`'s source valuation back into `s`.
fn restore_group(s: &mut CkState, src: &Src<'_>, layout: &Layout, g: u32) {
    let vals = src.group(g);
    for (&v, val) in layout.group_members[g as usize].iter().zip(vals.iter()) {
        s.vars[v as usize].clone_from(val);
    }
}

/// The id-keyed materialization's invariant: the scratch state equals
/// the source state component by component.
#[cfg(debug_assertions)]
fn assert_holds(s: &CkState, src: &Src<'_>, layout: &Layout) {
    assert_eq!(s.signals[..], *src.sigs, "scratch signals");
    for (g, members) in layout.group_members.iter().enumerate() {
        for (&v, val) in members.iter().zip(src.group(g as u32)) {
            assert_eq!(s.vars[v as usize], *val, "scratch variable v{v}");
        }
    }
    for (p, proc) in s.procs.iter().enumerate() {
        assert_eq!(*proc, *src.proc(p), "scratch control of process {p}");
    }
    assert_eq!(
        *s.fault_budget, *src.env.fault_budget,
        "scratch fault budget"
    );
    assert_eq!(*s.frozen, *src.env.frozen, "scratch frozen mask");
}

impl<'a> Checker<'a> {
    fn por_on(&self) -> bool {
        self.por.as_ref().is_some_and(|t| t.enabled)
    }

    /// The hard abort cap on stored states. A graceful state budget
    /// ([`super::CheckConfig::with_state_limit`]) supersedes it: a
    /// budgeted run's contract is a structured `Bounded` verdict, never
    /// an exhaustion error, regardless of where the budget sits relative
    /// to `max_states` (the budget is enforced at level boundaries, so a
    /// lower `max_states` could otherwise abort mid-level first).
    pub(super) fn hard_max_states(&self) -> usize {
        if self.config.state_limit.is_some() {
            usize::MAX
        } else {
            self.config.max_states
        }
    }

    /// Exact progress test replacing the seed's whole-state `state !=
    /// *src` comparison: the tracked effects bound what can differ, so
    /// only the touched components of the run's result `s` are compared
    /// with the source (and usually none are — an advanced pc or a
    /// released waiter decides immediately).
    fn progress(&self, src: &Src<'_>, s: &CkState, fx: &RunFx, pid: Option<usize>) -> bool {
        if let Some(p) = pid {
            if s.procs[p] != *src.proc(p) {
                return true;
            }
        }
        if !fx.released.is_empty() {
            return true;
        }
        if fx.wrote_sig && s.signals[..] != *src.sigs {
            return true;
        }
        fx.dirty_groups.iter().any(|&g| {
            self.layout.group_members[g as usize]
                .iter()
                .zip(src.group(g).iter())
                .any(|(&v, old)| s.vars[v as usize] != *old)
        })
    }

    /// Packages the changed components of the run's result `s` relative
    /// to the source. The signal vector and each touched process control
    /// are looked up in the (read-only) pools first, so only components
    /// no state has held before are copied.
    #[allow(clippy::too_many_arguments)]
    fn extract(
        &self,
        src: &Src<'_>,
        s: &CkState,
        fx: &RunFx,
        pid: Option<u32>,
        env_changed: bool,
        label: StepLabel,
        cost: u64,
    ) -> SuccData {
        let pools = src.pools;
        let mut procs = Vec::new();
        let mut note = |p: u32| {
            if procs.iter().any(|(q, _)| *q == p) {
                return;
            }
            let proc = &s.procs[p as usize];
            let found = match pools.procs.find(proc) {
                Some(id) if id == src.procs[p as usize] => return,
                Some(id) => Found::Id(id),
                None => Found::New(proc.clone()),
            };
            procs.push((p, found));
        };
        if let Some(p) = pid {
            note(p);
        }
        for &p in &fx.released {
            note(p);
        }
        SuccData {
            label,
            cost,
            sig: (fx.wrote_sig || env_changed).then(|| match pools.sigs.find(&s.signals[..]) {
                Some(id) => Found::Id(id),
                None => Found::New(s.signals[..].into()),
            }),
            groups: fx
                .dirty_groups
                .iter()
                .map(|&g| (g, self.layout.extract_group(g, &s.vars)))
                .collect(),
            procs,
            env: env_changed.then(|| EnvComp {
                fault_budget: s.fault_budget.clone().into_boxed_slice(),
                frozen: s.frozen.clone().into_boxed_slice(),
            }),
        }
    }

    /// Expands one state: the seed's `successors` with the ample-set
    /// shortcut. With `por` set, the first qualifying pure run is
    /// returned alone (later pids unscanned — sound, see the module
    /// docs); otherwise the full successor set is produced in the seed's
    /// order: process runs in pid order, watchdog expiries when nothing
    /// else moves, then budgeted fault strikes in config order.
    fn expand_one(
        &self,
        ctx: &mut WorkerCtx,
        pools: &Pools,
        cs: CompactState,
        por: bool,
    ) -> Result<Expansion, SimError> {
        let src = Src::new(pools, cs);
        ctx.materialize(&src, &self.layout);
        let mut succs = Vec::new();
        let mut crashes = Vec::new();
        let mut live = false;
        for pid in 0..ctx.cur.procs.len() {
            ctx.fx.reset(por);
            match self.run_one(&mut ctx.cur, &mut ctx.regs, pid, false, &mut ctx.fx) {
                // Nothing was written: no release sweep, diff or rollback.
                Ok(None) => continue,
                Ok(Some(cost)) => {
                    self.release_waiters(&mut ctx.cur, &mut ctx.regs, &mut ctx.fx)?;
                    if self.progress(&src, &ctx.cur, &ctx.fx, Some(pid)) {
                        live = true;
                        let sd = self.extract(
                            &src,
                            &ctx.cur,
                            &ctx.fx,
                            Some(pid as u32),
                            false,
                            StepLabel::Run(pid as u32),
                            cost,
                        );
                        if por
                            && crashes.is_empty()
                            && ctx.fx.pure_run
                            && !ctx.fx.wrote_sig
                            && ctx.fx.released.is_empty()
                            && ctx.cur.procs[pid].done == src.proc(pid).done
                        {
                            ctx.rollback(&src, &self.layout, Some(pid));
                            ctx.held.cs = Some(cs);
                            return Ok(Expansion::Ample(sd));
                        }
                        succs.push(sd);
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
            ctx.rollback(&src, &self.layout, Some(pid));
        }
        if !live {
            for pid in 0..ctx.cur.procs.len() {
                ctx.fx.reset(por);
                match self.run_one(&mut ctx.cur, &mut ctx.regs, pid, true, &mut ctx.fx) {
                    Ok(None) => continue,
                    Ok(Some(cost)) => {
                        self.release_waiters(&mut ctx.cur, &mut ctx.regs, &mut ctx.fx)?;
                        if self.progress(&src, &ctx.cur, &ctx.fx, Some(pid)) {
                            live = true;
                            succs.push(self.extract(
                                &src,
                                &ctx.cur,
                                &ctx.fx,
                                Some(pid as u32),
                                false,
                                StepLabel::Watchdog(pid as u32),
                                cost,
                            ));
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
                ctx.rollback(&src, &self.layout, Some(pid));
            }
        }
        let terminal = !live;
        for (fi, (idx, fault)) in self.faults.iter().enumerate() {
            if src.env.fault_budget[fi] == 0 {
                continue;
            }
            let (value, freeze) = match fault {
                EnvFault::FlipBit { bit, .. } => {
                    if src.env.frozen[*idx] {
                        continue;
                    }
                    let mut bits = src.sigs[*idx].to_bits();
                    if *bit >= bits.width() {
                        continue;
                    }
                    let inverted = BitVec::from_u64(u64::from(!bits.bit(*bit)), 1);
                    bits.write_slice(*bit, *bit, &inverted);
                    (Value::from_bits(&src.sigs[*idx].ty(), &bits), false)
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
            self.release_waiters(&mut ctx.cur, &mut ctx.regs, &mut ctx.fx)?;
            succs.push(self.extract(
                &src,
                &ctx.cur,
                &ctx.fx,
                None,
                true,
                StepLabel::Fault(fi as u32),
                0,
            ));
            ctx.rollback(&src, &self.layout, None);
        }
        ctx.held.cs = Some(cs);
        Ok(Expansion::Full {
            succs,
            terminal,
            crashes,
        })
    }
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
    /// Largest number of discovered-but-unexpanded states after any
    /// level commit.
    pub peak_frontier: usize,
    /// Worker threads used for frontier expansion.
    pub threads: usize,
    /// Full `CkState`s allocated over the exploration: the root plus
    /// one in-place scratch state per worker, reused for every expansion
    /// — `threads + 1`, never O(states) (asserted by the unit and
    /// differential tests).
    pub state_allocs: u64,
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
/// path without storing per-state trace strings.
#[derive(Debug, Clone, Copy)]
pub(super) struct Parent {
    /// Predecessor state index (`u32::MAX` for the root).
    pub pred: u32,
    pub label: StepLabel,
    pub cost: u64,
}

/// One transition in the compressed-sparse-row edge list.
#[derive(Debug, Clone, Copy)]
pub(super) struct Edge {
    pub to: u32,
    pub cost: u64,
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

/// Serial commit of one full expansion's results; `ids` is scratch for
/// [`intern_succ`].
#[allow(clippy::too_many_arguments)]
fn commit_full(
    checker: &Checker<'_>,
    g: &mut Graph,
    dedup: &mut Dedup,
    ids: &mut Vec<u32>,
    si: usize,
    succs: Vec<SuccData>,
    terminal: bool,
    crashes: Vec<String>,
) -> Result<(), SimError> {
    if terminal {
        g.terminals.push(si as u32);
    }
    for label in crashes {
        g.errors.push((si as u32, label));
    }
    for sd in succs {
        let (cs, label, cost) = intern_succ(&mut g.pools, ids, g.states[si], sd);
        let fp = cs.fingerprint();
        let ni = match dedup.probe(cs, fp) {
            Some(i) => {
                g.stats.dedup_hits += 1;
                i
            }
            None => {
                let i = g.states.len();
                if i >= checker.hard_max_states() {
                    return Err(SimError::eval(format!(
                        "reachable state space exceeds {} states; \
                         reduce the system or raise CheckConfig::max_states",
                        checker.config.max_states
                    )));
                }
                g.states.push(cs);
                dedup.insert(cs, fp, i as u32);
                g.parents.push(Parent {
                    pred: si as u32,
                    label,
                    cost,
                });
                i as u32
            }
        };
        g.edges.push(Edge { to: ni, cost });
    }
    Ok(())
}

/// Re-interns a successor's changed components over its source state.
/// The patched variable-id and control-id vectors are built in the
/// reusable `ids` buffer and interned by slice, so a vector some state
/// already holds costs no allocation.
fn intern_succ(
    pools: &mut Pools,
    ids: &mut Vec<u32>,
    src: CompactState,
    sd: SuccData,
) -> (CompactState, StepLabel, u64) {
    let SuccData {
        label,
        cost,
        sig,
        groups,
        procs,
        env,
    } = sd;
    let sig_id = match sig {
        Some(found) => found.intern(&mut pools.sigs),
        None => src.sig,
    };
    let var_id = if groups.is_empty() {
        src.var
    } else {
        ids.clear();
        ids.extend_from_slice(pools.varvecs.get(src.var));
        for (grp, vals) in groups {
            ids[grp as usize] = pools.groups.intern(vals);
        }
        pools.varvecs.intern_with(&ids[..], || ids[..].into())
    };
    let ctl_id = if procs.is_empty() {
        src.ctl
    } else {
        ids.clear();
        ids.extend_from_slice(pools.ctls.get(src.ctl));
        for (p, found) in procs {
            ids[p as usize] = found.intern(&mut pools.procs);
        }
        pools.ctls.intern_with(&ids[..], || ids[..].into())
    };
    let env_id = match env {
        Some(e) => pools.envs.intern(e),
        None => src.env,
    };
    (
        CompactState {
            sig: sig_id,
            var: var_id,
            ctl: ctl_id,
            env: env_id,
        },
        label,
        cost,
    )
}

/// Interns a fully materialized state (the root).
fn intern_full(pools: &mut Pools, layout: &Layout, s: &CkState) -> CompactState {
    let sig = pools.sigs.intern(s.signals.iter().cloned().collect());
    let var_ids: Box<[u32]> = (0..layout.groups())
        .map(|grp| {
            pools
                .groups
                .intern(layout.extract_group(grp as u32, &s.vars))
        })
        .collect();
    let var = pools.varvecs.intern(var_ids);
    let ctl_ids: Box<[u32]> = s
        .procs
        .iter()
        .map(|p| pools.procs.intern(p.clone()))
        .collect();
    let ctl = pools.ctls.intern(ctl_ids);
    let env = pools.envs.intern(EnvComp {
        fault_budget: s.fault_budget.clone().into_boxed_slice(),
        frozen: s.frozen.clone().into_boxed_slice(),
    });
    CompactState { sig, var, ctl, env }
}

impl<'a> Checker<'a> {
    /// Explores the reachable graph; see [`Checker::explore`] for the
    /// error contract.
    pub(super) fn explore_graph(&self) -> Result<Graph, SimError> {
        let threads = self.config.threads.max(1);
        let por = self.por_on();
        let mut ctxs: Vec<WorkerCtx> = (0..threads).map(|_| WorkerCtx::new(self)).collect();
        let mut state_allocs = threads as u64;
        let mut ids = Vec::new();

        let mut g = Graph {
            pools: Pools::new(),
            states: Vec::new(),
            parents: Vec::new(),
            edges: Vec::new(),
            edge_off: vec![0],
            terminals: Vec::new(),
            errors: Vec::new(),
            stats: CheckStats {
                threads,
                ..CheckStats::default()
            },
            bounded: None,
        };
        let mut dedup = match self.config.bitstate_bits {
            Some(bits) => Dedup::bitstate(bits),
            None => Dedup::exact(),
        };

        let mut init = self.initial_state();
        state_allocs += 1;
        {
            let ctx = &mut ctxs[0];
            ctx.fx.reset(false);
            self.release_waiters(&mut init, &mut ctx.regs, &mut ctx.fx)?;
        }
        let init_cs = intern_full(&mut g.pools, &self.layout, &init);
        dedup.insert(init_cs, init_cs.fingerprint(), 0);
        g.states.push(init_cs);
        g.parents.push(Parent {
            pred: u32::MAX,
            label: StepLabel::Run(0),
            cost: 0,
        });

        let (mut l0, mut l1) = (0usize, 1usize);
        'levels: while l0 < l1 {
            let level_len = l1 - l0;
            let results: Vec<Result<Expansion, SimError>> =
                if threads == 1 || level_len < threads * 8 {
                    let ctx = &mut ctxs[0];
                    let pools = &g.pools;
                    g.states[l0..l1]
                        .iter()
                        .map(|&cs| self.expand_one(ctx, pools, cs, por))
                        .collect()
                } else {
                    let chunk = level_len.div_ceil(threads);
                    let level = &g.states[l0..l1];
                    let pools = &g.pools;
                    std::thread::scope(|sc| {
                        let mut handles = Vec::with_capacity(threads);
                        for (t, ctx) in ctxs.iter_mut().enumerate() {
                            let start = t * chunk;
                            if start >= level_len {
                                break;
                            }
                            let span = &level[start..(start + chunk).min(level_len)];
                            handles.push(sc.spawn(move || {
                                span.iter()
                                    .map(|&cs| self.expand_one(ctx, pools, cs, por))
                                    .collect::<Vec<_>>()
                            }));
                        }
                        handles
                            .into_iter()
                            .flat_map(|h| h.join().expect("checker worker panicked"))
                            .collect()
                    })
                };

            for (k, res) in results.into_iter().enumerate() {
                let si = l0 + k;
                match res? {
                    Expansion::Ample(sd) => {
                        let (cs, label, cost) =
                            intern_succ(&mut g.pools, &mut ids, g.states[si], sd);
                        let fp = cs.fingerprint();
                        if dedup.probe(cs, fp).is_some() {
                            // Cycle proviso: the deferred transitions
                            // would never be explored along this lasso —
                            // re-expand the source in full, serially.
                            let exp = {
                                let ctx = &mut ctxs[0];
                                let pools = &g.pools;
                                self.expand_one(ctx, pools, g.states[si], false)?
                            };
                            let Expansion::Full {
                                succs,
                                terminal,
                                crashes,
                            } = exp
                            else {
                                unreachable!("POR disabled for proviso re-expansion")
                            };
                            commit_full(
                                self, &mut g, &mut dedup, &mut ids, si, succs, terminal, crashes,
                            )?;
                            g.stats.full_states += 1;
                        } else {
                            let i = g.states.len();
                            if i >= self.hard_max_states() {
                                return Err(SimError::eval(format!(
                                    "reachable state space exceeds {} states; \
                                     reduce the system or raise CheckConfig::max_states",
                                    self.config.max_states
                                )));
                            }
                            g.states.push(cs);
                            dedup.insert(cs, fp, i as u32);
                            g.parents.push(Parent {
                                pred: si as u32,
                                label,
                                cost,
                            });
                            g.edges.push(Edge { to: i as u32, cost });
                            g.stats.ample_states += 1;
                        }
                    }
                    Expansion::Full {
                        succs,
                        terminal,
                        crashes,
                    } => {
                        commit_full(
                            self, &mut g, &mut dedup, &mut ids, si, succs, terminal, crashes,
                        )?;
                        g.stats.full_states += 1;
                    }
                }
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
                    break 'levels;
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
        g.stats.state_allocs = state_allocs;
        Ok(g)
    }
}
