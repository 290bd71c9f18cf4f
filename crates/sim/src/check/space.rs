//! The explored state space and its property-check surface.
//!
//! [`StateSpace`] keeps the seed checker's API — invariants, terminal
//! properties, leads-to properties, worst-cost bounds, counterexample
//! traces with wait diagnoses — over the compact interned graph. Three
//! additions:
//!
//! * **views** — a predicate's parameter type says what it can read.
//!   Invariant and leads-to predicates see a [`SignalView`]: signals,
//!   finished behaviors and fault budgets, exactly what an ample run
//!   never changes, so partial-order reduction needs no list of
//!   observed names. Terminal predicates see a [`StateView`], which adds
//!   variables: ample sets that meet C0, C1 and C3 keep every terminal
//!   state (see `docs/ROBUSTNESS.md`);
//! * **verdicts** — every report carries a [`Verdict`]; a budgeted
//!   exploration that found no violation reports [`Verdict::Bounded`]
//!   (with the budget and unexplored frontier size) instead of
//!   pretending to have proved the property.
//! * **replay** — when the explored graph is *reduced* (partial-order
//!   reduction fired) and a property fails, the whole check is re-run on
//!   a lazily built POR-off replay of the same system. Reduction is
//!   verdict-preserving, so the verdict cannot change; what replay buys
//!   is byte-identical failure reports — the same first-failing state,
//!   trace and state count the seed explorer printed. Passing reports
//!   skip replay entirely (that is where the speed lives). A bounded
//!   run replays under the same budget and keeps its own report when
//!   the replay stops short of the failure.
//!
//! Leads-to checks walk the graph backwards. Each space builds its
//! reverse adjacency once, on the first leads-to check, as a
//! compressed-sparse-row [`Reverse`] (one `u32` offset per state and one
//! `u32` per edge), and every later leads-to check shares it.

use std::cell::OnceCell;
use std::fmt;
use std::ops::Deref;

use ifsyn_spec::Value;

use crate::diagnose::DeadlockDiagnosis;

use super::explore::{BoundedInfo, CheckStats, Edge, Graph, StepLabel};
use super::state::{CkProc, CkState, CompactState};
use super::{Checker, EnvFault};

/// Read-only view of one explored state's signals, finished behaviors
/// and fault budgets: what invariant and leads-to predicates can read.
/// An ample run writes no signal, finishes no behavior and strikes no
/// fault, so no reduced step can change anything seen through this view.
pub struct SignalView<'a> {
    ck: &'a Checker<'a>,
    g: &'a Graph,
    cs: CompactState,
}

impl SignalView<'_> {
    /// Current value of a signal, by declared name.
    pub fn signal(&self, name: &str) -> Option<&Value> {
        self.ck
            .system
            .signals
            .iter()
            .position(|s| s.name == name)
            .map(|i| &self.g.pools.sigs.get(self.cs.sig)[i])
    }

    /// `true` when the named bit signal currently holds `'1'`.
    pub fn signal_high(&self, name: &str) -> bool {
        matches!(self.signal(name), Some(Value::Bit(true)))
    }

    fn proc(&self, i: usize) -> &CkProc {
        self.g
            .pools
            .procs
            .get(self.g.pools.ctls.get(self.cs.ctl)[i])
    }

    /// `true` when the named (non-repeating) behavior has finished.
    pub fn done(&self, behavior: &str) -> bool {
        self.ck
            .system
            .behaviors
            .iter()
            .position(|b| b.name == behavior)
            .is_some_and(|i| self.proc(i).done)
    }

    /// `true` when every non-repeating behavior has finished.
    pub fn all_done(&self) -> bool {
        self.ck
            .system
            .behaviors
            .iter()
            .enumerate()
            .all(|(i, b)| b.repeats || self.proc(i).done)
    }

    /// Remaining budget of the fault at the given config index.
    pub fn fault_budget(&self, index: usize) -> Option<u32> {
        self.g
            .pools
            .envs
            .get(self.cs.env)
            .fault_budget
            .get(index)
            .copied()
    }
}

/// Read-only view of one terminal state: a [`SignalView`] that can also
/// read variables. Only terminal predicates get one, because reduction
/// keeps every terminal state but may skip the intermediate states in
/// which a variable held some other value.
pub struct StateView<'a>(SignalView<'a>);

impl<'a> Deref for StateView<'a> {
    type Target = SignalView<'a>;

    fn deref(&self) -> &SignalView<'a> {
        &self.0
    }
}

impl StateView<'_> {
    /// Current value of a variable, by declared name.
    pub fn variable(&self, name: &str) -> Option<&Value> {
        let v = &self.0;
        v.ck.system
            .variables
            .iter()
            .position(|d| d.name == name)
            .map(|i| {
                let grp = v.ck.layout.group_of_var[i] as usize;
                let off = v.ck.layout.offset_in_group[i] as usize;
                let gid = v.g.pools.varvecs.get(v.cs.var)[grp];
                &v.g.pools.groups.get(gid)[off]
            })
    }
}

/// How a property check concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds over the whole reachable space.
    Pass,
    /// A concrete violation was found.
    Fail,
    /// No violation found, but exploration stopped at the configured
    /// state budget — the unexplored frontier may hide one.
    Bounded,
}

/// The result of checking one property over an explored state space.
#[derive(Debug, Clone)]
pub struct PropertyReport {
    /// Property name, as given to the check call.
    pub name: String,
    /// `true` when no violation was found (see [`PropertyReport::verdict`]
    /// for whether that constitutes a proof).
    pub holds: bool,
    /// Number of states the check examined.
    pub states: usize,
    /// A concrete violation, when the property fails.
    pub counterexample: Option<Counterexample>,
    /// How the check concluded.
    pub verdict: Verdict,
    /// Budget details when the verdict is [`Verdict::Bounded`].
    pub bounded: Option<BoundedInfo>,
}

impl fmt::Display for PropertyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.verdict {
            Verdict::Pass => write!(f, "PASS  {} ({} states)", self.name, self.states),
            Verdict::Bounded => {
                let b = self.bounded.as_ref().expect("bounded info");
                write!(
                    f,
                    "BOUND {} ({} states explored; state limit {} reached, \
                     {} frontier states unexplored)",
                    self.name, self.states, b.limit, b.frontier
                )
            }
            Verdict::Fail => {
                write!(f, "FAIL  {} ({} states)", self.name, self.states)?;
                if let Some(cex) = &self.counterexample {
                    write!(f, "\n{cex}")?;
                }
                Ok(())
            }
        }
    }
}

/// A concrete property violation: the transition path from the initial
/// state to the violating state, plus a wait diagnosis of that state
/// when processes are blocked there.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Transition labels from the initial state to the violation.
    pub trace: Vec<String>,
    /// Total cycle cost along the trace.
    pub cost: u64,
    /// Blocked-wait diagnosis of the violating state, when any process
    /// is suspended there (same shape the simulator's deadlock diagnosis
    /// uses, including wait-for cycles).
    pub diagnosis: Option<DeadlockDiagnosis>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  counterexample ({} steps, {} cycles):",
            self.trace.len(),
            self.cost
        )?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "    {:>3}. {step}", i + 1)?;
        }
        if let Some(d) = &self.diagnosis {
            for line in d.to_string().lines() {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

/// The reverse of a graph's edges in compressed-sparse-row form: the
/// predecessors of state `i` are `preds[off[i]..off[i + 1]]`, one entry
/// per edge into `i`, in ascending source order.
pub(super) struct Reverse {
    off: Vec<u32>,
    preds: Vec<u32>,
}

impl Reverse {
    pub fn new(g: &Graph) -> Self {
        let n = g.states.len();
        // Count each state's in-edges at `off[to + 1]`, then prefix-sum:
        // `off[i]` becomes the start of state `i`'s range.
        let mut off = vec![0u32; n + 1];
        for e in &g.edges {
            off[e.to as usize + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        // Fill with `off[to]` as the cursor, which leaves `off[i]` at the
        // end of state `i`'s range; shifting by one restores the starts.
        let mut preds = vec![0u32; g.edges.len()];
        for src in 0..n {
            let range = g.edge_off[src] as usize..g.edge_off[src + 1] as usize;
            for e in &g.edges[range] {
                let at = &mut off[e.to as usize];
                preds[*at as usize] = src as u32;
                *at += 1;
            }
        }
        off.copy_within(0..n, 1);
        off[0] = 0;
        Self { off, preds }
    }

    pub fn preds_of(&self, i: usize) -> &[u32] {
        &self.preds[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// A POR-off re-exploration of the same system, built lazily the first
/// time a reduced run needs a seed-faithful failure report.
struct Replay<'a> {
    checker: Checker<'a>,
    g: Graph,
    rev: OnceCell<Reverse>,
}

/// The explored reachable state graph with labeled, costed transitions.
pub struct StateSpace<'a> {
    checker: &'a Checker<'a>,
    g: Graph,
    rev: OnceCell<Reverse>,
    replay: OnceCell<Option<Box<Replay<'a>>>>,
}

/// One space (main or replay) plus its checker: the common substrate the
/// property checks run on.
struct SpaceRef<'x, 'a> {
    ck: &'x Checker<'a>,
    g: &'x Graph,
    /// The space's reverse adjacency, built by the first leads-to check.
    rev: &'x OnceCell<Reverse>,
}

type Pred<'p> = &'p dyn Fn(&SignalView<'_>) -> bool;

impl<'x, 'a> SpaceRef<'x, 'a> {
    fn view_of(&self, i: usize) -> SignalView<'x> {
        SignalView {
            ck: self.ck,
            g: self.g,
            cs: self.g.states[i],
        }
    }

    fn edges_of(&self, i: usize) -> &'x [Edge] {
        &self.g.edges[self.g.edge_off[i] as usize..self.g.edge_off[i + 1] as usize]
    }

    /// Index of the first discovered-but-unexpanded state (`== n` when
    /// the exploration ran to completion).
    fn explored(&self) -> usize {
        match self.g.bounded {
            Some(b) => self.g.states.len() - b.frontier,
            None => self.g.states.len(),
        }
    }

    fn check_invariant(&self, name: &str, pred: Pred<'_>) -> PropertyReport {
        for i in 0..self.g.states.len() {
            if !pred(&self.view_of(i)) {
                return self.failed(name, i);
            }
        }
        self.passed(name)
    }

    fn check_terminal(&self, name: &str, pred: &dyn Fn(&StateView<'_>) -> bool) -> PropertyReport {
        if let Some((src, label)) = self.g.errors.first() {
            let mut cex = self.counterexample(*src as usize);
            cex.trace.push(label.clone());
            return PropertyReport {
                name: name.to_string(),
                holds: false,
                states: self.g.states.len(),
                counterexample: Some(cex),
                verdict: Verdict::Fail,
                bounded: None,
            };
        }
        for &i in &self.g.terminals {
            if !pred(&StateView(self.view_of(i as usize))) {
                return self.failed(name, i as usize);
            }
        }
        self.passed(name)
    }

    fn check_leads_to(&self, name: &str, premise: Pred<'_>, goal: Pred<'_>) -> PropertyReport {
        let n = self.g.states.len();
        let explored = self.explored();
        let rev = self.rev.get_or_init(|| Reverse::new(self.g));
        let mut reaches = vec![false; n];
        // One backward search from each goal state not yet marked: `todo`
        // holds one search's frontier, and the union of the searches is
        // the backward closure of every goal state.
        let mut todo: Vec<u32> = Vec::new();
        for i in 0..n {
            // A frontier state's continuations are unknown: treat it as
            // goal-satisfying so a budgeted run never reports a
            // violation it has not actually proved (the Bounded verdict
            // carries the uncertainty instead). Its edge range is empty,
            // so it is no state's predecessor in `rev`.
            if reaches[i] || !(i >= explored || goal(&self.view_of(i))) {
                continue;
            }
            reaches[i] = true;
            todo.push(i as u32);
            while let Some(j) = todo.pop() {
                for &p in rev.preds_of(j as usize) {
                    if !reaches[p as usize] {
                        reaches[p as usize] = true;
                        todo.push(p);
                    }
                }
            }
        }
        for (i, reached) in reaches.iter().enumerate() {
            if !reached && premise(&self.view_of(i)) {
                return self.failed(name, i);
            }
        }
        self.passed(name)
    }

    fn worst_cost_to_quiescence(&self) -> Option<u64> {
        let n = self.g.states.len();
        let mut memo: Vec<u64> = vec![0; n];
        let mut color = vec![0u8; n]; // 0 white, 1 on stack, 2 done
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        color[0] = 1;
        while let Some(top) = stack.last_mut() {
            let (v, ei) = (top.0, top.1);
            if ei < self.edges_of(v).len() {
                top.1 += 1;
                let to = self.edges_of(v)[ei].to as usize;
                match color[to] {
                    0 => {
                        color[to] = 1;
                        stack.push((to, 0));
                    }
                    1 => return None, // reachable cycle: unbounded
                    _ => {}
                }
            } else {
                stack.pop();
                color[v] = 2;
                memo[v] = self
                    .edges_of(v)
                    .iter()
                    .map(|e| u64::from(e.cost) + memo[e.to as usize])
                    .max()
                    .unwrap_or(0);
            }
        }
        Some(memo[0])
    }

    fn passed(&self, name: &str) -> PropertyReport {
        PropertyReport {
            name: name.to_string(),
            holds: true,
            states: self.g.states.len(),
            counterexample: None,
            verdict: Verdict::Pass,
            bounded: None,
        }
    }

    fn failed(&self, name: &str, state: usize) -> PropertyReport {
        PropertyReport {
            name: name.to_string(),
            holds: false,
            states: self.g.states.len(),
            counterexample: Some(self.counterexample(state)),
            verdict: Verdict::Fail,
            bounded: None,
        }
    }

    fn render_label(&self, l: StepLabel) -> String {
        match l {
            StepLabel::Run(p) => {
                format!("`{}` runs", self.ck.system.behaviors[p as usize].name)
            }
            StepLabel::Watchdog(p) => format!(
                "watchdog expires in `{}`",
                self.ck.system.behaviors[p as usize].name
            ),
            StepLabel::Fault(fi) => match &self.ck.faults[fi as usize].1 {
                EnvFault::FlipBit { signal, bit, .. } => {
                    format!("environment flips `{signal}` bit {bit}")
                }
                EnvFault::StuckLow { signal } => {
                    format!("environment forces `{signal}` stuck-at-0")
                }
            },
        }
    }

    /// Builds the trace from the initial state to `state` along the BFS
    /// tree, plus a blocked-wait diagnosis of the state itself.
    fn counterexample(&self, state: usize) -> Counterexample {
        let mut trace = Vec::new();
        let mut cost = 0u64;
        let mut cur = state;
        loop {
            let p = self.g.parents[cur];
            if p.pred == u32::MAX {
                break;
            }
            trace.push(self.render_label(p.label.unpack()));
            cost += u64::from(p.cost);
            cur = p.pred as usize;
        }
        trace.reverse();
        Counterexample {
            trace,
            cost,
            diagnosis: self.diagnose(state, cost),
        }
    }

    /// Materializes one stored state's storage (traces and diagnoses
    /// only — never on the exploration hot path).
    fn materialize(&self, i: usize) -> CkState {
        let cs = self.g.states[i];
        let pools = &self.g.pools;
        let layout = &self.ck.layout;
        let mut vars = vec![Value::Bit(false); self.ck.system.variables.len()];
        for (grp, &gid) in pools.varvecs.get(cs.var).iter().enumerate() {
            let vals = pools.groups.get(gid);
            for (off, &v) in layout.group_members[grp].iter().enumerate() {
                vars[v as usize] = vals[off].clone();
            }
        }
        let env = pools.envs.get(cs.env);
        CkState {
            signals: pools.sigs.get(cs.sig).to_vec(),
            vars,
            fault_budget: env.fault_budget.to_vec(),
            frozen: env.frozen.to_vec(),
        }
    }

    /// Per-process wait diagnosis of one state, in the simulator's
    /// [`DeadlockDiagnosis`] shape; the diagnosis time is the trace cost.
    fn diagnose(&self, state: usize, time: u64) -> Option<DeadlockDiagnosis> {
        let ck = self.ck;
        let st = self.materialize(state);
        let pools = &self.g.pools;
        let mut waits = Vec::new();
        for (pid, &id) in pools.ctls.get(self.g.states[state].ctl).iter().enumerate() {
            let ctl = pools.procs.get(id);
            // Only a level-sensitive wait can block: `wait for` and
            // `wait on` never hold a checker process.
            let Some(wait) = ck.parked_wait(ctl) else {
                continue;
            };
            match ck.wait_holds(&st, ctl, wait) {
                Ok(true) => {}
                Ok(false) | Err(_) => waits.push((pid, wait)),
            }
        }
        DeadlockDiagnosis::assemble(ck.system, &ck.program, &st.signals, time, waits)
    }
}

impl<'a> StateSpace<'a> {
    pub(super) fn new(checker: &'a Checker<'a>, g: Graph) -> Self {
        Self {
            checker,
            g,
            rev: OnceCell::new(),
            replay: OnceCell::new(),
        }
    }

    fn main(&self) -> SpaceRef<'_, 'a> {
        SpaceRef {
            ck: self.checker,
            g: &self.g,
            rev: &self.rev,
        }
    }

    /// The POR-off replay space for failure reporting, built on first
    /// use under the same configuration (a bounded run replays under the
    /// same budget). `None` when the replay exploration itself errors
    /// out — the reduced-space counterexample, still a real trace, is
    /// used instead.
    fn replay_ref(&self) -> Option<SpaceRef<'_, 'a>> {
        let replay = self.replay.get_or_init(|| {
            let mut cfg = self.checker.config.clone();
            cfg.por = false;
            let checker = Checker::with_config(self.checker.system, cfg).ok()?;
            let g = checker.explore_graph().ok()?;
            Some(Box::new(Replay {
                checker,
                g,
                rev: OnceCell::new(),
            }))
        });
        replay.as_ref().map(|r| SpaceRef {
            ck: &r.checker,
            g: &r.g,
            rev: &r.rev,
        })
    }

    /// Applies the bounded verdict to a no-violation report, and routes
    /// failures on a reduced graph through the POR-off replay so failure
    /// reports are byte-identical to the seed explorer's. A bounded
    /// replay can stop short of a failure the reduced run reached; the
    /// reduced report, a real violation, stands then.
    fn resolve(
        &self,
        rep: PropertyReport,
        recheck: impl Fn(&SpaceRef<'_, 'a>) -> PropertyReport,
    ) -> PropertyReport {
        if rep.holds {
            let mut rep = rep;
            if let Some(b) = self.g.bounded {
                rep.verdict = Verdict::Bounded;
                rep.bounded = Some(b);
            }
            return rep;
        }
        if self.g.stats.ample_states == 0 {
            // No reduction fired: this is the POR-off graph already.
            return rep;
        }
        match self.replay_ref().map(|r| recheck(&r)) {
            Some(replayed) if !replayed.holds => replayed,
            _ => rep,
        }
    }

    /// Number of distinct reachable states discovered.
    pub fn state_count(&self) -> usize {
        self.g.states.len()
    }

    /// Number of explored transitions.
    pub fn transition_count(&self) -> usize {
        self.g.edges.len()
    }

    /// Number of terminal (quiescent) states: no process can move and no
    /// watchdog can expire. Fault transitions do not count — a state that
    /// is stuck unless another fault strikes is genuinely stuck.
    pub fn terminal_count(&self) -> usize {
        self.g.terminals.len()
    }

    /// Number of reachable runtime crashes (paths on which a process's
    /// next step hits an evaluation error, e.g. a fault-corrupted address
    /// indexing past an array).
    pub fn error_count(&self) -> usize {
        self.g.errors.len()
    }

    /// The distinct crash labels reachable in the explored space, sorted
    /// and deduplicated. Partial-order reduction preserves this set (a
    /// crash-capable process is never deferred past its enabling state),
    /// so the differential suite can compare reduced and full runs even
    /// though their raw error-path *counts* differ with the number of
    /// interleavings explored.
    pub fn error_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.g.errors.iter().map(|(_, l)| l.clone()).collect();
        labels.sort();
        labels.dedup();
        labels
    }

    /// Exploration statistics: reduction and dedup counters and the
    /// frontier peak.
    pub fn stats(&self) -> &CheckStats {
        &self.g.stats
    }

    /// Budget details when exploration stopped at the configured state
    /// limit instead of exhausting the reachable set.
    pub fn bounded(&self) -> Option<BoundedInfo> {
        self.g.bounded
    }

    /// Whether the exploration ran without an environment fault.
    pub fn fault_free(&self) -> bool {
        self.checker.faults.is_empty()
    }

    /// Checks that `pred` holds in every reachable state.
    pub fn check_invariant(
        &self,
        name: &str,
        pred: impl Fn(&SignalView<'_>) -> bool,
    ) -> PropertyReport {
        let rep = self.main().check_invariant(name, &pred);
        self.resolve(rep, |r| r.check_invariant(name, &pred))
    }

    /// Checks that `pred` holds in every terminal (quiescent) state. Any
    /// reachable runtime crash also fails the property — a path that dies
    /// in an evaluation error certainly did not end in a good quiescent
    /// state — with the crashing trace as counterexample.
    pub fn check_terminal(
        &self,
        name: &str,
        pred: impl Fn(&StateView<'_>) -> bool,
    ) -> PropertyReport {
        let rep = self.main().check_terminal(name, &pred);
        self.resolve(rep, |r| r.check_terminal(name, &pred))
    }

    /// Checks `AG(premise → EF goal)`: from every reachable state where
    /// `premise` holds, some continuation reaches a state where `goal`
    /// holds. A violation is a reachable premise-state from which the
    /// goal is unreachable on *every* continuation — the unrecoverable
    /// shape, independent of scheduling luck.
    pub fn check_leads_to(
        &self,
        name: &str,
        premise: impl Fn(&SignalView<'_>) -> bool,
        goal: impl Fn(&SignalView<'_>) -> bool,
    ) -> PropertyReport {
        let rep = self.main().check_leads_to(name, &premise, &goal);
        self.resolve(rep, |r| r.check_leads_to(name, &premise, &goal))
    }

    /// The maximum total cycle cost over all maximal paths from the
    /// initial state, or `None` when a reachable cycle makes the cost
    /// unbounded (or when exploration was budget-bounded — an unexplored
    /// frontier can hide both cycles and costlier paths). For a hardened
    /// protocol this is the checked completion bound: every schedule (and
    /// every in-budget fault pattern) reaches quiescence within the
    /// returned number of cycles. Partial-order reduction preserves the
    /// bound: reduced paths are permutations of full paths with the same
    /// transition multiset, hence the same total cost.
    pub fn worst_cost_to_quiescence(&self) -> Option<u64> {
        if self.g.bounded.is_some() {
            return None;
        }
        self.main().worst_cost_to_quiescence()
    }
}
