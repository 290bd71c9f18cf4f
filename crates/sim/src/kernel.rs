//! The discrete-event simulation kernel.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use ifsyn_spec::{BitVec, Expr, ParamMode, SignalId, System, Ty, Value};

use crate::config::SimConfig;
use crate::diagnose::{find_cycles, BlockedWait, DeadlockDiagnosis};
use crate::error::SimError;
use crate::eval::{coerce, EvalCtx};
use crate::exec::{self, CArg, CPath, CPathStep, CPlace, CRoot, ExprCode, RegFile};
use crate::fault::{FaultKind, InjectedFault};
use crate::process::{CodeRef, Frame, Process, ResolvedPlace, Root, Status, Step, WaitKind};
use crate::program::{Code, CodeCache, Instr, Program, WaitSpec};
use crate::report::{BehaviorOutcome, SimReport, TraceEvent};

/// Upper bound on recorded [`InjectedFault`] entries, so a stuck line on
/// a long run cannot grow the report without bound.
const MAX_RECORDED_INJECTIONS: usize = 10_000;

/// A scheduled future signal write.
///
/// Ordered by `(time, seq)` so the event heap pops writes in schedule
/// order within an instant, reproducing the FIFO semantics of the old
/// per-time bucket lists.
#[derive(Debug)]
struct TimedWrite {
    time: u64,
    seq: u64,
    signal: usize,
    value: Value,
    /// Forced writes (fault injections and already-delayed writes) bypass
    /// the fault filter when they take effect.
    forced: bool,
}

impl PartialEq for TimedWrite {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for TimedWrite {}

impl PartialOrd for TimedWrite {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimedWrite {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A fault from the configured plan with its signal resolved to an index.
#[derive(Debug)]
struct ResolvedFault {
    signal: usize,
    kind: FaultKind,
}

/// What the fault filter decides about a write in the update phase.
enum Disposition {
    Keep,
    Drop(&'static str),
    Delay(u64),
}

/// Evaluates compiled expression code for one process, splitting the
/// simulator's storage fields so the shared context borrows (variables,
/// signals, the frame) coexist with the mutable register-file borrow.
fn eval_split<'s>(
    vars: &'s [Value],
    signals: &'s [Value],
    processes: &'s [Process],
    regs: &'s mut RegFile,
    pid: usize,
    code: &'s ExprCode,
) -> Result<&'s Value, SimError> {
    let frame = processes[pid]
        .frames
        .last()
        .ok_or_else(|| SimError::eval("process has no frame".to_string()))?;
    let ctx = EvalCtx {
        vars,
        signals,
        locals: &frame.locals,
    };
    exec::eval_code(&ctx, code, regs)
}

/// A deterministic discrete-event simulator over a [`System`].
///
/// Semantics (see the crate docs for the rationale):
///
/// * time advances in integer clock cycles; instructions carry cycle
///   costs; a zero-cost signal write becomes visible at the next *delta*
///   (same time instant), a cost-`c` write becomes visible at `t + c`;
/// * an event is a signal *value change*;
/// * `wait until` is level-sensitive: if the condition already holds the
///   process continues without suspending.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use ifsyn_sim::Simulator;
/// use ifsyn_spec::{System, Ty, dsl::*};
///
/// let mut sys = System::new("handshake");
/// let m = sys.add_module("chip");
/// let req = sys.add_signal("REQ", Ty::Bit);
/// let ack = sys.add_signal("ACK", Ty::Bit);
/// let a = sys.add_behavior("producer", m);
/// sys.behavior_mut(a).body = vec![
///     drive_cost(req, bit_const(true), 1),
///     wait_until(eq(signal(ack), bit_const(true))),
/// ];
/// let b = sys.add_behavior("consumer", m);
/// sys.behavior_mut(b).body = vec![
///     wait_until(eq(signal(req), bit_const(true))),
///     drive_cost(ack, bit_const(true), 1),
/// ];
///
/// let report = Simulator::new(&sys)?.run_to_quiescence()?;
/// assert_eq!(report.finish_time(a), Some(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    system: &'a System,
    config: SimConfig,
    /// Shared handles to each compiled code block. `Arc` (not `Rc`) keeps
    /// the simulator `Send` for the parallel sweep driver, and lets a
    /// [`CodeCache`] share identical blocks between simulator instances.
    ///
    /// Each slot is an `Option` so the interpreter can *move* the running
    /// block out (`take_block`) and hold it across `&mut self` calls,
    /// then move it back at the next block switch or suspension — no
    /// per-activation reference-count traffic. A slot is only ever `None`
    /// while its block is executing (or after a terminal error, when the
    /// simulator is dropped without further use).
    behavior_code: Vec<Option<Arc<Code>>>,
    procedure_code: Vec<Option<Arc<Code>>>,
    /// The reusable micro-op register file, pre-sized at compile time to
    /// the widest expression in the program.
    regs: RegFile,
    time: u64,
    signals: Vec<Value>,
    vars: Vec<Value>,
    processes: Vec<Process>,
    ready: VecDeque<usize>,
    /// Zero-delay signal writes awaiting the next delta; the flag marks
    /// forced writes that bypass the fault filter.
    pending: Vec<(usize, Value, bool)>,
    /// Future signal writes: a min-heap on `(time, seq)`.
    timed_writes: BinaryHeap<Reverse<TimedWrite>>,
    /// Sleeping processes: a min-heap on `(time, seq, pid)`. Entries are
    /// lazily invalidated — a pop whose process is no longer `Sleeping`
    /// is skipped rather than eagerly removed.
    sleepers: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Watchdog deadlines of timeout waits: a min-heap on
    /// `(time, seq, pid, wait_gen)`. An entry is stale — skipped, never
    /// advancing time — unless its process is still `Waiting` with the
    /// same `wait_gen` it suspended with.
    wait_timeouts: BinaryHeap<Reverse<(u64, u64, usize, u64)>>,
    /// The configured fault plan, signal names resolved to indices.
    faults: Vec<ResolvedFault>,
    /// Per signal: indices into `faults` (empty without a plan).
    signal_faults: Vec<Vec<usize>>,
    /// Scheduled one-shot injections (stuck-value forcings, bit flips):
    /// a min-heap on `(time, seq, fault index)`.
    injections: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Faults actually applied, for the report (bounded).
    injected: Vec<InjectedFault>,
    /// Fast-path flag: the plan was non-empty.
    has_faults: bool,
    /// Monotonic tiebreaker giving heap entries FIFO order per instant.
    event_seq: u64,
    /// Deadline of the current `run_events` call, mirrored into a field
    /// so the interpreter's fast-forward path can respect it.
    run_deadline: Option<u64>,
    /// Per signal: processes registered as waiters (swap-remove lists;
    /// order is irrelevant because wake order flows from `ready`).
    waiters: Vec<Vec<usize>>,
    /// Monotonic counter identifying one `register_wait` call; paired
    /// with `sig_mark` to deduplicate a sensitivity list in O(1) per
    /// signal instead of scanning the waiter list.
    reg_epoch: u64,
    /// Per signal: the `reg_epoch` that last touched it. Equal to the
    /// current epoch means this registration already covered the signal.
    sig_mark: Vec<u64>,
    /// Scratch: per-signal index of the last pending write in the batch
    /// being applied (`usize::MAX` = none); reset on use.
    last_write: Vec<usize>,
    /// Scratch: signals changed in the current delta.
    changed: Vec<usize>,
    /// Scratch: waiter snapshot while waking (reused across deltas).
    signal_events: Vec<u64>,
    trace: Vec<TraceEvent>,
    total_deltas: u64,
    total_instrs: u64,
    assertions_checked: u64,
    /// Peak combined size of the two scheduler heaps.
    heap_peak: usize,
    /// Distinct time instants the scheduler advanced through.
    time_steps: u64,
}

impl<'a> Simulator<'a> {
    /// Compiles `system` for simulation with the default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] if the system fails validation.
    pub fn new(system: &'a System) -> Result<Self, SimError> {
        Self::with_config(system, SimConfig::new())
    }

    /// Compiles `system` with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] if the system fails validation.
    pub fn with_config(system: &'a System, config: SimConfig) -> Result<Self, SimError> {
        Self::with_config_cached(system, config, None)
    }

    /// Compiles `system`, sharing compiled code blocks through `cache`.
    ///
    /// Batch drivers that simulate many identical (or near-identical)
    /// refined systems pass one shared [`CodeCache`] so each distinct
    /// behavior or procedure body is lowered to bytecode only once.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] if the system fails validation.
    pub fn with_config_cached(
        system: &'a System,
        config: SimConfig,
        cache: Option<&CodeCache>,
    ) -> Result<Self, SimError> {
        system.check().map_err(|e| SimError::InvalidSystem {
            message: e.to_string(),
        })?;
        let program = Program::compile_cached(system, &config.cost_model, cache);
        let max_regs = program
            .behaviors
            .iter()
            .chain(&program.procedures)
            .map(|c| c.max_regs)
            .max()
            .unwrap_or(0);
        let behavior_code = program.behaviors.into_iter().map(Some).collect();
        let procedure_code = program.procedures.into_iter().map(Some).collect();
        let signals = system
            .signals
            .iter()
            .map(|s| s.initial_value())
            .collect::<Vec<_>>();
        let vars = system
            .variables
            .iter()
            .map(|v| v.initial_value())
            .collect::<Vec<_>>();
        let processes: Vec<Process> = (0..system.behaviors.len()).map(Process::new).collect();
        let ready = (0..processes.len()).collect();
        let n_signals = signals.len();
        // Resolve fault-plan signal names once; unknown names are a
        // configuration error, not something to discover mid-run.
        let mut faults = Vec::with_capacity(config.fault_plan.faults.len());
        let mut signal_faults = vec![Vec::new(); n_signals];
        let mut injections = BinaryHeap::new();
        for f in &config.fault_plan.faults {
            let idx = system
                .signals
                .iter()
                .position(|s| s.name == f.signal)
                .ok_or_else(|| SimError::InvalidSystem {
                    message: format!("fault plan names unknown signal `{}`", f.signal),
                })?;
            let fi = faults.len();
            match f.kind {
                FaultKind::StuckAt { from, .. } => {
                    injections.push(Reverse((from, fi as u64, fi)));
                }
                FaultKind::FlipBit { at, .. } => {
                    injections.push(Reverse((at, fi as u64, fi)));
                }
                FaultKind::DelayWrites { .. } | FaultKind::DropWrites { .. } => {}
            }
            signal_faults[idx].push(fi);
            faults.push(ResolvedFault {
                signal: idx,
                kind: f.kind.clone(),
            });
        }
        let has_faults = !faults.is_empty();
        Ok(Self {
            system,
            config,
            behavior_code,
            procedure_code,
            regs: RegFile::with_capacity(max_regs as usize),
            time: 0,
            signals,
            vars,
            processes,
            ready,
            pending: Vec::new(),
            timed_writes: BinaryHeap::new(),
            sleepers: BinaryHeap::new(),
            wait_timeouts: BinaryHeap::new(),
            faults,
            signal_faults,
            injections,
            injected: Vec::new(),
            has_faults,
            event_seq: 0,
            run_deadline: None,
            waiters: vec![Vec::new(); n_signals],
            reg_epoch: 0,
            sig_mark: vec![0; n_signals],
            last_write: vec![usize::MAX; n_signals],
            changed: Vec::new(),
            signal_events: vec![0; n_signals],
            trace: Vec::new(),
            total_deltas: 0,
            total_instrs: 0,
            assertions_checked: 0,
            heap_peak: 0,
            time_steps: 0,
        })
    }

    /// Runs until no further event can occur, then reports.
    ///
    /// Quiescence means: every process is finished, or suspended on a wait
    /// that nothing pending can satisfy. Server processes idling on their
    /// bus is the expected quiescent state of a refined system.
    ///
    /// # Errors
    ///
    /// * [`SimError::Timeout`] — simulated time passed the configured cap.
    /// * [`SimError::DeltaOverflow`] / [`SimError::ZeroDelayLoop`] —
    ///   zero-time oscillation.
    /// * [`SimError::Eval`] — a runtime type or bounds violation.
    pub fn run_to_quiescence(mut self) -> Result<SimReport, SimError> {
        self.run_events(None)?;
        if self.config.fail_on_deadlock {
            let stuck = self.processes.iter().any(|p| {
                matches!(p.status, Status::Waiting(_)) && !self.system.behaviors[p.behavior].repeats
            });
            if stuck {
                let diagnosis = self.diagnosis().expect("a blocked process exists");
                return Err(SimError::Deadlock {
                    diagnosis: Box::new(diagnosis),
                });
            }
        }
        Ok(self.into_report())
    }

    /// Runs until time `deadline` (inclusive) or quiescence, whichever
    /// comes first, then reports.
    ///
    /// Unlike [`Simulator::run_to_quiescence`] this terminates cleanly
    /// for free-running systems (periodic producers, servers fed by
    /// repeating clients) that never become quiescent.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Simulator::run_to_quiescence`], except
    /// that reaching the deadline is success, not a timeout.
    pub fn run_until(mut self, deadline: u64) -> Result<SimReport, SimError> {
        self.run_events(Some(deadline))?;
        Ok(self.into_report())
    }

    /// The main event loop; stops at quiescence, or past `deadline`.
    fn run_events(&mut self, deadline: Option<u64>) -> Result<(), SimError> {
        self.run_deadline = deadline;
        loop {
            self.settle_instant()?;
            if !self.advance_time(deadline)? {
                return Ok(());
            }
        }
    }

    /// Advances to the next scheduled instant and moves its events into
    /// `pending`/`ready`. Returns `false` at quiescence or the deadline.
    fn advance_time(&mut self, deadline: Option<u64>) -> Result<bool, SimError> {
        let next_write = self.timed_writes.peek().map(|Reverse(w)| w.time);
        let next_sleep = self.sleepers.peek().map(|&Reverse((t, _, _))| t);
        // Stale watchdog entries must be pruned *before* choosing the
        // next instant — a satisfied wait's leftover deadline must not
        // drag simulated time forward.
        let next_timeout = self.next_live_wait_timeout();
        let next_injection = self.injections.peek().map(|&Reverse((t, _, _))| t);
        let next = [next_write, next_sleep, next_timeout, next_injection]
            .into_iter()
            .flatten()
            .min();
        let Some(next) = next else { return Ok(false) };
        if let Some(deadline) = deadline {
            if next > deadline {
                self.time = deadline;
                return Ok(false);
            }
        }
        if next > self.config.max_time {
            return Err(SimError::Timeout {
                max_time: self.config.max_time,
                diagnosis: self.diagnosis().map(Box::new),
            });
        }
        self.time = next;
        self.time_steps += 1;
        while self
            .timed_writes
            .peek()
            .is_some_and(|Reverse(w)| w.time == next)
        {
            let Reverse(w) = self.timed_writes.pop().expect("peeked");
            self.pending.push((w.signal, w.value, w.forced));
        }
        while self
            .sleepers
            .peek()
            .is_some_and(|&Reverse((t, _, _))| t == next)
        {
            let Reverse((_, _, pid)) = self.sleepers.pop().expect("peeked");
            // Lazy invalidation: skip entries whose process moved on.
            if matches!(self.processes[pid].status, Status::Sleeping) {
                self.processes[pid].status = Status::Ready;
                self.ready.push_back(pid);
            }
        }
        while self
            .wait_timeouts
            .peek()
            .is_some_and(|&Reverse((t, _, _, _))| t == next)
        {
            let Reverse((_, _, pid, gen)) = self.wait_timeouts.pop().expect("peeked");
            // Same lazy invalidation as sleepers: only a process still
            // suspended on the *same* wait expires.
            let p = &self.processes[pid];
            if matches!(p.status, Status::Waiting(_)) && p.wait_gen == gen {
                self.make_ready(pid);
            }
        }
        while self
            .injections
            .peek()
            .is_some_and(|&Reverse((t, _, _))| t == next)
        {
            let Reverse((_, _, fi)) = self.injections.pop().expect("peeked");
            self.apply_injection(fi);
        }
        Ok(true)
    }

    /// Earliest watchdog deadline still attached to a live suspension,
    /// popping stale entries on the way.
    fn next_live_wait_timeout(&mut self) -> Option<u64> {
        while let Some(&Reverse((t, _, pid, gen))) = self.wait_timeouts.peek() {
            let p = &self.processes[pid];
            if matches!(p.status, Status::Waiting(_)) && p.wait_gen == gen {
                return Some(t);
            }
            self.wait_timeouts.pop();
        }
        None
    }

    /// Applies a scheduled one-shot injection (stuck-value forcing or bit
    /// flip) as a forced zero-delay write, bypassing the fault filter.
    fn apply_injection(&mut self, fi: usize) {
        let sig = self.faults[fi].signal;
        match &self.faults[fi].kind {
            FaultKind::StuckAt { value, .. } => {
                let system: &'a System = self.system;
                let v = coerce(value.clone(), &system.signals[sig].ty);
                self.pending.push((sig, v, true));
                self.record_injection(sig, "forced stuck value".to_string());
            }
            FaultKind::FlipBit { bit, .. } => {
                let bit = *bit;
                let cur = &self.signals[sig];
                let ty = cur.ty();
                let mut bits = cur.to_bits();
                if bit < bits.width() {
                    let inverted = BitVec::from_u64(u64::from(!bits.bit(bit)), 1);
                    bits.write_slice(bit, bit, &inverted);
                    let v = Value::from_bits(&ty, &bits);
                    self.pending.push((sig, v, true));
                    self.record_injection(sig, format!("bit {bit} flipped"));
                }
            }
            FaultKind::DelayWrites { .. } | FaultKind::DropWrites { .. } => {}
        }
    }

    /// Records an applied fault for the report, up to the cap.
    fn record_injection(&mut self, sig: usize, effect: String) {
        if self.injected.len() < MAX_RECORDED_INJECTIONS {
            self.injected.push(InjectedFault {
                time: self.time,
                signal: self.system.signals[sig].name.clone(),
                effect,
            });
        }
    }

    /// Decides what happens to an ordinary write to `sig` landing now.
    fn write_disposition(&self, sig: usize) -> Disposition {
        for &fi in &self.signal_faults[sig] {
            let kind = &self.faults[fi].kind;
            if !kind.window_contains(self.time) {
                continue;
            }
            match kind {
                FaultKind::StuckAt { .. } => {
                    return Disposition::Drop("write dropped (stuck line)")
                }
                FaultKind::DropWrites { .. } => return Disposition::Drop("write dropped"),
                FaultKind::DelayWrites { cycles, .. } if *cycles > 0 => {
                    return Disposition::Delay(*cycles)
                }
                _ => {}
            }
        }
        Disposition::Keep
    }

    /// Executes all delta cycles of the current time instant.
    fn settle_instant(&mut self) -> Result<(), SimError> {
        let mut deltas = 0u32;
        loop {
            if !self.pending.is_empty() {
                self.apply_pending();
                self.wake_on()?;
                deltas += 1;
                self.total_deltas += 1;
                if deltas > self.config.max_deltas_per_instant {
                    return Err(SimError::DeltaOverflow { time: self.time });
                }
            }
            if self.ready.is_empty() {
                if self.pending.is_empty() {
                    return Ok(());
                }
                continue;
            }
            while let Some(pid) = self.ready.pop_front() {
                if matches!(self.processes[pid].status, Status::Ready) {
                    self.run_process(pid)?;
                }
            }
        }
    }

    /// Applies zero-delay writes, recording changed signals in the
    /// `changed` scratch buffer.
    ///
    /// Multiple writes to one signal within the same delta collapse to the
    /// last one (VHDL projected-waveform semantics), producing at most one
    /// event per signal per delta. Runs allocation-free: the pending batch
    /// and all bookkeeping live in reusable buffers.
    fn apply_pending(&mut self) {
        self.changed.clear();
        if self.pending.len() == 1 {
            // Single write: no collision bookkeeping needed.
            let (sig, value, forced) = self.pending.pop().expect("len checked");
            self.apply_one(sig, value, forced);
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        // Pass 1: last write per signal wins.
        for (i, (sig, _, _)) in pending.iter().enumerate() {
            self.last_write[*sig] = i;
        }
        // Pass 2: apply winners in first-write order, resetting scratch.
        for (i, entry) in pending.iter_mut().enumerate() {
            let sig = entry.0;
            if self.last_write[sig] != i {
                continue;
            }
            self.last_write[sig] = usize::MAX;
            let value = std::mem::replace(&mut entry.1, Value::Bit(false));
            let forced = entry.2;
            self.apply_one(sig, value, forced);
        }
        pending.clear();
        // Processes may have queued new writes only after this returns,
        // so the swap back cannot clobber anything.
        self.pending = pending;
    }

    /// Applies one winning write (first through the fault filter, unless
    /// forced), recording the event if it changed.
    fn apply_one(&mut self, sig: usize, value: Value, forced: bool) {
        if self.has_faults && !forced {
            match self.write_disposition(sig) {
                Disposition::Keep => {}
                Disposition::Drop(effect) => {
                    self.record_injection(sig, effect.to_string());
                    return;
                }
                Disposition::Delay(cycles) => {
                    self.record_injection(sig, format!("write delayed {cycles} cycles"));
                    // Re-queued as forced so it cannot be delayed again.
                    self.schedule_write(self.time + cycles, sig, value, true);
                    return;
                }
            }
        }
        if self.signals[sig] != value {
            self.signals[sig] = value;
            self.signal_events[sig] += 1;
            self.changed.push(sig);
            if self.config.trace && self.trace.len() < self.config.max_trace_events {
                self.trace.push(TraceEvent {
                    time: self.time,
                    signal: ifsyn_spec::SignalId::new(sig as u32),
                    value: self.signals[sig].clone(),
                });
            }
        }
    }

    /// Wakes processes sensitive to the signals in the `changed` buffer.
    fn wake_on(&mut self) -> Result<(), SimError> {
        for ci in 0..self.changed.len() {
            let sig = self.changed[ci];
            // Iterate the waiter list in place: when a process wakes,
            // `make_ready` swap-removes its entry, so the slot at `i` is
            // refilled and the index only advances past survivors. No
            // process can suspend during a wake sweep, so no new entries
            // appear behind us.
            let mut i = 0;
            while i < self.waiters[sig].len() {
                let pid = self.waiters[sig][i];
                let sat = match &self.processes[pid].status {
                    Status::Waiting(WaitKind::Signals) => true,
                    Status::Waiting(WaitKind::Until(cond)) => {
                        // Split borrows: the condition lives in `processes`
                        // (shared), the register file is the only mutable
                        // field touched — no Arc clone on the wake path.
                        eval_split(
                            &self.vars,
                            &self.signals,
                            &self.processes,
                            &mut self.regs,
                            pid,
                            &cond.code,
                        )?
                        .as_bool()
                        .map_err(|e| SimError::eval(e.to_string()))?
                    }
                    Status::Waiting(WaitKind::SignalIs(idx, v)) => self.signals[*idx] == *v,
                    _ => false,
                };
                if sat {
                    self.make_ready(pid);
                } else {
                    i += 1;
                }
            }
        }
        Ok(())
    }

    fn make_ready(&mut self, pid: usize) {
        let mut registered = std::mem::take(&mut self.processes[pid].registered);
        for &sig in &registered {
            // Waiter lists are unordered: swap-remove instead of retain.
            if let Some(pos) = self.waiters[sig].iter().position(|&p| p == pid) {
                self.waiters[sig].swap_remove(pos);
            }
        }
        registered.clear();
        // Hand the emptied buffer back so its capacity is reused.
        self.processes[pid].registered = registered;
        self.processes[pid].status = Status::Ready;
        self.ready.push_back(pid);
    }

    fn sleep_until(&mut self, pid: usize, until: u64) {
        self.processes[pid].status = Status::Sleeping;
        self.sleepers.push(Reverse((until, self.event_seq, pid)));
        self.event_seq += 1;
        self.note_heap_size();
    }

    fn schedule_write(&mut self, time: u64, signal: usize, value: Value, forced: bool) {
        self.timed_writes.push(Reverse(TimedWrite {
            time,
            seq: self.event_seq,
            signal,
            value,
            forced,
        }));
        self.event_seq += 1;
        self.note_heap_size();
    }

    fn note_heap_size(&mut self) {
        let size = self.timed_writes.len() + self.sleepers.len();
        if size > self.heap_peak {
            self.heap_peak = size;
        }
    }

    fn register_wait(&mut self, pid: usize, kind: WaitKind, sensitivity: &[SignalId]) {
        // A fresh generation invalidates any watchdog entry left over from
        // an earlier suspension of this process.
        self.processes[pid].wait_gen += 1;
        // A fresh epoch makes every `sig_mark` entry stale at once, so
        // deduplicating a wide sensitivity list is O(1) per signal instead
        // of a scan of the waiter list. A process can never already be in
        // a waiter list here (make_ready clears its registrations before
        // it runs again), so only same-list duplicates need catching.
        self.reg_epoch += 1;
        let epoch = self.reg_epoch;
        let mut registered = std::mem::take(&mut self.processes[pid].registered);
        registered.clear();
        for s in sensitivity {
            let idx = s.index();
            if self.sig_mark[idx] != epoch {
                self.sig_mark[idx] = epoch;
                self.waiters[idx].push(pid);
                registered.push(idx);
            }
        }
        self.processes[pid].registered = registered;
        self.processes[pid].status = Status::Waiting(kind);
    }

    /// Single-signal fast path of [`register_wait`]: no epoch bump and no
    /// dedup pass — a one-element sensitivity list cannot contain
    /// duplicates. This is the shape of every generated handshake wait.
    fn register_wait_one(&mut self, pid: usize, kind: WaitKind, idx: usize) {
        self.processes[pid].wait_gen += 1;
        self.waiters[idx].push(pid);
        let registered = &mut self.processes[pid].registered;
        registered.clear();
        registered.push(idx);
        self.processes[pid].status = Status::Waiting(kind);
    }

    /// Arms a watchdog for the suspension the process just entered (must
    /// be called directly after `register_wait`).
    fn arm_watchdog(&mut self, pid: usize, deadline: u64) {
        let gen = self.processes[pid].wait_gen;
        self.wait_timeouts
            .push(Reverse((deadline, self.event_seq, pid, gen)));
        self.event_seq += 1;
    }

    /// Evaluates compiled code in a process's current scope, cloning the
    /// result out of wherever it lives (register, pool, storage).
    fn eval_in(&mut self, pid: usize, code: &ExprCode) -> Result<Value, SimError> {
        Ok(eval_split(
            &self.vars,
            &self.signals,
            &self.processes,
            &mut self.regs,
            pid,
            code,
        )?
        .clone())
    }

    /// Evaluates compiled code to a boolean without materializing an
    /// owned value — the wake/branch/assert hot path.
    fn eval_bool_in(&mut self, pid: usize, code: &ExprCode) -> Result<bool, SimError> {
        eval_split(
            &self.vars,
            &self.signals,
            &self.processes,
            &mut self.regs,
            pid,
            code,
        )?
        .as_bool()
        .map_err(|e| SimError::eval(e.to_string()))
    }

    /// Evaluates compiled code to an integer without materializing an
    /// owned value (loop bounds, addresses, slice offsets).
    fn eval_i64_in(&mut self, pid: usize, code: &ExprCode) -> Result<i64, SimError> {
        eval_split(
            &self.vars,
            &self.signals,
            &self.processes,
            &mut self.regs,
            pid,
            code,
        )?
        .as_i64()
        .map_err(|e| SimError::eval(e.to_string()))
    }

    /// Resolves a compiled path to concrete storage steps; index and
    /// offset code evaluates in the process's current (top) frame.
    fn resolve_cpath(
        &mut self,
        pid: usize,
        path: &CPath,
        frame_abs: usize,
    ) -> Result<ResolvedPlace, SimError> {
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
                    let i = self.eval_i64_in(pid, code)?;
                    let i = usize::try_from(i)
                        .map_err(|_| SimError::eval(format!("negative array index {i}")))?;
                    steps.push(Step::Elem(i));
                }
                CPathStep::Slice(hi, lo) => steps.push(Step::Slice(*hi, *lo)),
                CPathStep::DynSlice(code, width) => {
                    // The offset evaluates once at resolution time, turning
                    // the dynamic slice into a concrete one.
                    let lo = self.eval_i64_in(pid, code)?;
                    let lo = u32::try_from(lo)
                        .map_err(|_| SimError::eval(format!("negative slice offset {lo}")))?;
                    steps.push(Step::Slice(lo + width - 1, lo));
                }
            }
        }
        Ok(ResolvedPlace { root, steps })
    }

    /// Resolves a compiled place for copy-back, returning the concrete
    /// destination and its type (captured at call time, VHDL-style).
    fn resolve_cplace(
        &mut self,
        pid: usize,
        place: &CPlace,
        frame_abs: usize,
    ) -> Result<(ResolvedPlace, Ty), SimError> {
        let system: &'a System = self.system;
        match place {
            CPlace::Var(i) => {
                let decl = system
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
                let ty = self.local_ty(pid, frame_abs, slot)?;
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
                let rp = self.resolve_cpath(pid, path, frame_abs)?;
                Ok((rp, ty))
            }
        }
    }

    /// The declared type of a frame's local slot.
    fn local_ty(&self, pid: usize, frame_abs: usize, slot: usize) -> Result<Ty, SimError> {
        match self.processes[pid].frames[frame_abs].code {
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

    /// Reads a compiled place's current value.
    fn read_cplace(&mut self, pid: usize, place: &CPlace) -> Result<Value, SimError> {
        match place {
            CPlace::Var(i) => self
                .vars
                .get(*i as usize)
                .cloned()
                .ok_or_else(|| SimError::eval(format!("missing variable v{i}"))),
            CPlace::Local(slot) => {
                let frame = self.processes[pid]
                    .frames
                    .last()
                    .ok_or_else(|| SimError::eval("process has no frame".to_string()))?;
                frame
                    .locals
                    .get(*slot as usize)
                    .cloned()
                    .ok_or_else(|| SimError::eval(format!("missing local slot {slot}")))
            }
            CPlace::Path(path) => {
                let frame_abs = self.processes[pid].frames.len() - 1;
                let rp = self.resolve_cpath(pid, path, frame_abs)?;
                self.read_resolved(pid, &rp)
            }
        }
    }

    /// Reads the value at a resolved path.
    fn read_resolved(&self, pid: usize, rp: &ResolvedPlace) -> Result<Value, SimError> {
        let mut cur: &Value = match rp.root {
            Root::Var(i) => self
                .vars
                .get(i)
                .ok_or_else(|| SimError::eval(format!("missing variable v{i}")))?,
            Root::Local { frame, slot } => self.processes[pid]
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

    fn write_resolved(
        &mut self,
        pid: usize,
        rp: &ResolvedPlace,
        value: Value,
    ) -> Result<(), SimError> {
        let root: &mut Value = match rp.root {
            Root::Var(i) => self
                .vars
                .get_mut(i)
                .ok_or_else(|| SimError::eval(format!("missing variable v{i}")))?,
            Root::Local { frame, slot } => self.processes[pid]
                .frames
                .get_mut(frame)
                .and_then(|f| f.locals.get_mut(slot))
                .ok_or_else(|| SimError::eval(format!("missing local slot {slot}")))?,
        };
        write_steps(root, &rp.steps, value)
    }

    /// Writes `value` (coerced to the target's type) into a place.
    fn write_cplace(&mut self, pid: usize, place: &CPlace, value: Value) -> Result<(), SimError> {
        // Whole-variable and whole-local writes (the overwhelmingly common
        // case) skip place resolution entirely.
        let system: &'a System = self.system;
        match place {
            CPlace::Var(i) => {
                let decl = system
                    .variables
                    .get(*i as usize)
                    .ok_or_else(|| SimError::eval(format!("missing variable v{i}")))?;
                self.vars[*i as usize] = coerce(value, &decl.ty);
                Ok(())
            }
            CPlace::Local(slot) => {
                let slot = *slot as usize;
                let frame_abs = self.processes[pid].frames.len() - 1;
                let ty = self.local_ty(pid, frame_abs, slot)?;
                let v = coerce(value, &ty);
                self.processes[pid].frames[frame_abs].locals[slot] = v;
                Ok(())
            }
            CPlace::Path(path) => {
                let ty = path
                    .ty
                    .clone()
                    .ok_or_else(|| untyped_place_error(&path.root))?;
                let frame_abs = self.processes[pid].frames.len() - 1;
                let rp = self.resolve_cpath(pid, path, frame_abs)?;
                self.write_resolved(pid, &rp, coerce(value, &ty))
            }
        }
    }

    /// Moves a code block out of its slot for execution. No reference
    /// count is touched; the block must be returned with [`Self::put_block`]
    /// before anything else can execute or inspect it.
    ///
    /// # Panics
    ///
    /// Panics if the block is already taken (cannot happen from the
    /// interpreter, which always puts the running block back before
    /// taking another).
    fn take_block(&mut self, code: CodeRef) -> Arc<Code> {
        let slot = match code {
            CodeRef::Behavior(i) => &mut self.behavior_code[i],
            CodeRef::Procedure(i) => &mut self.procedure_code[i],
        };
        slot.take().expect("code block already taken")
    }

    /// Returns a block taken with [`Self::take_block`] to its slot.
    fn put_block(&mut self, code: CodeRef, block: Arc<Code>) {
        let slot = match code {
            CodeRef::Behavior(i) => &mut self.behavior_code[i],
            CodeRef::Procedure(i) => &mut self.procedure_code[i],
        };
        *slot = Some(block);
    }

    /// Writes the cached program counter back into the process's top
    /// frame (done only at suspension points, not per instruction).
    /// Attempts to jump simulated time straight to `wake` without
    /// suspending the running process.
    ///
    /// Legal exactly when nothing else can observe the skipped interval:
    /// no undelivered zero-delay writes, no other runnable process, and
    /// no scheduled event at or before `wake`. A wake past the run
    /// deadline or the time cap declines too, so those terminations stay
    /// handled in one place (`run_events`). On success the instant
    /// counter advances just as the event loop would have done.
    fn try_fast_advance(&mut self, wake: u64) -> Result<bool, SimError> {
        if !self.ready.is_empty() {
            return Ok(false);
        }
        if wake > self.config.max_time || self.run_deadline.is_some_and(|d| wake > d) {
            return Ok(false);
        }
        if !self.pending.is_empty() {
            // `ready` is empty, so the running process is the last runner
            // of this delta round: applying the batch here is exactly the
            // settle step that would otherwise follow its suspension.
            self.apply_pending();
            self.wake_on()?;
            self.total_deltas += 1;
            if !self.ready.is_empty() {
                // The delta woke somebody; the interval is observable.
                return Ok(false);
            }
        }
        let next_write = self.timed_writes.peek().map(|Reverse(w)| w.time);
        let next_sleep = self.sleepers.peek().map(|&Reverse((t, _, _))| t);
        let next_timeout = self.next_live_wait_timeout();
        let next_injection = self.injections.peek().map(|&Reverse((t, _, _))| t);
        if next_write.is_some_and(|t| t <= wake) {
            return Ok(false);
        }
        if next_sleep.is_some_and(|t| t <= wake) {
            return Ok(false);
        }
        if next_timeout.is_some_and(|t| t <= wake) {
            return Ok(false);
        }
        if next_injection.is_some_and(|t| t <= wake) {
            return Ok(false);
        }
        self.time = wake;
        self.time_steps += 1;
        Ok(true)
    }

    /// Fast path for a costed signal write: when the interval to `wake`
    /// is unobservable (same conditions as [`Self::try_fast_advance`]),
    /// the write is applied as the single delta of the new instant —
    /// exactly what draining it from the timed-write heap would have done
    /// — and the caller keeps running ahead of any process it woke.
    /// Declines by handing the value back for the slow path.
    fn try_fast_advance_write(
        &mut self,
        wake: u64,
        signal: usize,
        value: Value,
    ) -> Result<Option<Value>, SimError> {
        if !self.try_fast_advance(wake)? {
            return Ok(Some(value));
        }
        self.pending.push((signal, value, false));
        self.apply_pending();
        self.wake_on()?;
        self.total_deltas += 1;
        Ok(None)
    }

    fn store_pc(&mut self, pid: usize, pc: usize) {
        self.processes[pid].frames.last_mut().expect("frame").pc = pc;
    }

    /// Runs one process until it blocks, sleeps or finishes, then flushes
    /// the executed-instruction counters in one add each.
    fn run_process(&mut self, pid: usize) -> Result<(), SimError> {
        let mut steps = 0u64;
        let result = self.run_steps(pid, &mut steps);
        self.total_instrs += steps;
        self.processes[pid].instrs_executed += steps;
        result
    }

    /// The interpreter loop. The program counter and current code block
    /// are locals — the frame's `pc` is only written back at suspension
    /// points, keeping the per-instruction overhead at an index increment.
    fn run_steps(&mut self, pid: usize, steps: &mut u64) -> Result<(), SimError> {
        let (mut code_ref, mut pc) = {
            let frame = self.processes[pid]
                .frames
                .last()
                .ok_or_else(|| SimError::eval("process has no frame".to_string()))?;
            (frame.code, frame.pc)
        };
        let mut block = self.take_block(code_ref);
        // Zero-delay-loop budget: counts steps at the current instant and
        // resets whenever the fast path advances time, so long runs that
        // legitimately consume simulated time are never misdiagnosed.
        let mut instant_steps = 0u64;
        loop {
            *steps += 1;
            instant_steps += 1;
            if instant_steps > self.config.max_steps_per_activation {
                return Err(SimError::ZeroDelayLoop {
                    behavior: self.system.behaviors[self.processes[pid].behavior]
                        .name
                        .clone(),
                    time: self.time,
                });
            }
            // Borrowing out of the local `block` (not `self`) lets the
            // instruction reference live across `&mut self` calls.
            let instr = &block.instrs[pc];
            match instr {
                Instr::Assign { place, value, cost } => {
                    // Constant sources skip the evaluation context — no
                    // frame lookup, no register file.
                    let v = match value.const_value() {
                        Some(c) => c.clone(),
                        None => self.eval_in(pid, value)?,
                    };
                    self.write_cplace(pid, place, v)?;
                    pc += 1;
                    if *cost > 0 {
                        self.processes[pid].active_cycles += u64::from(*cost);
                        let wake = self.time + u64::from(*cost);
                        if self.try_fast_advance(wake)? {
                            instant_steps = 0;
                        } else {
                            self.store_pc(pid, pc);
                            self.sleep_until(pid, wake);
                            self.put_block(code_ref, block);
                            return Ok(());
                        }
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
                        None => {
                            let raw = self.eval_in(pid, value)?;
                            // `self.system` is a shared reference; copying
                            // it out lets the type borrow coexist with
                            // `&mut self`.
                            let system: &'a System = self.system;
                            coerce(raw, &system.signal(*signal).ty)
                        }
                    };
                    pc += 1;
                    if *cost == 0 {
                        self.pending.push((signal.index(), v, false));
                    } else {
                        self.processes[pid].active_cycles += u64::from(*cost);
                        let wake = self.time + u64::from(*cost);
                        match self.try_fast_advance_write(wake, signal.index(), v)? {
                            None => instant_steps = 0,
                            Some(v) => {
                                self.schedule_write(wake, signal.index(), v, false);
                                self.store_pc(pid, pc);
                                self.sleep_until(pid, wake);
                                self.put_block(code_ref, block);
                                return Ok(());
                            }
                        }
                    }
                }
                Instr::Jump(t) => pc = *t,
                Instr::JumpIfNot { cond, target } => {
                    if self.eval_bool_in(pid, cond)? {
                        pc += 1;
                    } else {
                        pc = *target;
                    }
                }
                Instr::LoopInit { var, from, to } => {
                    let bound = self.eval_i64_in(pid, to)?;
                    let start = self.eval_in(pid, from)?;
                    self.write_cplace(pid, var, start)?;
                    self.processes[pid]
                        .frames
                        .last_mut()
                        .expect("frame")
                        .loop_bounds
                        .push(bound);
                    pc += 1;
                }
                Instr::LoopTest { var, exit } => {
                    // Loop counters are whole int variables or locals in
                    // practice; read them without an evaluation context.
                    let fast = match var {
                        CPlace::Var(v) => match self.vars.get(*v as usize) {
                            Some(Value::Int { value, .. }) => Some(*value),
                            _ => None,
                        },
                        CPlace::Local(slot) => {
                            let frame = self.processes[pid].frames.last().expect("frame");
                            match frame.locals.get(*slot as usize) {
                                Some(Value::Int { value, .. }) => Some(*value),
                                _ => None,
                            }
                        }
                        CPlace::Path(_) => None,
                    };
                    let v = match fast {
                        Some(v) => v,
                        None => self
                            .read_cplace(pid, var)?
                            .as_i64()
                            .map_err(|e| SimError::eval(e.to_string()))?,
                    };
                    let frame = self.processes[pid].frames.last_mut().expect("frame");
                    let bound = *frame
                        .loop_bounds
                        .last()
                        .ok_or_else(|| SimError::eval("loop bound stack empty".to_string()))?;
                    if v > bound {
                        frame.loop_bounds.pop();
                        pc = *exit;
                    } else {
                        pc += 1;
                    }
                }
                Instr::LoopIncr { var, body, exit } => {
                    // Fused back-edge: in-place increment for whole int
                    // counters (stored values are unmasked, so this matches
                    // rebuild+write), then test the bound and branch — one
                    // dispatch instead of increment + jump + guard.
                    let fast = match var {
                        CPlace::Var(v) => match self.vars.get_mut(*v as usize) {
                            Some(Value::Int { value, width }) if *width > 0 => {
                                *value += 1;
                                Some(*value)
                            }
                            _ => None,
                        },
                        CPlace::Local(slot) => {
                            let frame = self.processes[pid].frames.last_mut().expect("frame");
                            match frame.locals.get_mut(*slot as usize) {
                                Some(Value::Int { value, width }) if *width > 0 => {
                                    *value += 1;
                                    Some(*value)
                                }
                                _ => None,
                            }
                        }
                        CPlace::Path(_) => None,
                    };
                    let v = match fast {
                        Some(v) => v,
                        None => {
                            let (v, width) = {
                                let cur = self.read_cplace(pid, var)?;
                                let v = cur.as_i64().map_err(|e| SimError::eval(e.to_string()))?;
                                let width = match &cur {
                                    Value::Int { width, .. } => *width,
                                    other => other.ty().bit_width(),
                                };
                                (v, width)
                            };
                            self.write_cplace(pid, var, Value::int(v + 1, width.max(1)))?;
                            v + 1
                        }
                    };
                    let frame = self.processes[pid].frames.last_mut().expect("frame");
                    let bound = *frame
                        .loop_bounds
                        .last()
                        .ok_or_else(|| SimError::eval("loop bound stack empty".to_string()))?;
                    if v > bound {
                        frame.loop_bounds.pop();
                        pc = *exit;
                    } else {
                        pc = *body;
                    }
                }
                Instr::Wait(cond) => {
                    pc += 1;
                    match cond {
                        WaitSpec::ForCycles(n) => {
                            if *n > 0 {
                                let wake = self.time + n;
                                if self.try_fast_advance(wake)? {
                                    instant_steps = 0;
                                } else {
                                    self.store_pc(pid, pc);
                                    self.sleep_until(pid, wake);
                                    self.put_block(code_ref, block);
                                    return Ok(());
                                }
                            }
                        }
                        WaitSpec::OnSignals(signals) => {
                            self.store_pc(pid, pc);
                            self.register_wait(pid, WaitKind::Signals, signals);
                            self.put_block(code_ref, block);
                            return Ok(());
                        }
                        WaitSpec::Until(cond) => {
                            let sat = self.eval_bool_in(pid, &cond.code)?;
                            if !sat {
                                self.store_pc(pid, pc);
                                self.register_wait(
                                    pid,
                                    WaitKind::Until(Arc::clone(cond)),
                                    &cond.sensitivity,
                                );
                                self.put_block(code_ref, block);
                                return Ok(());
                            }
                        }
                        WaitSpec::UntilSignalIs { signal, value } => {
                            if self.signals[signal.index()] != *value {
                                self.store_pc(pid, pc);
                                self.register_wait_one(
                                    pid,
                                    WaitKind::SignalIs(signal.index(), value.clone()),
                                    signal.index(),
                                );
                                self.put_block(code_ref, block);
                                return Ok(());
                            }
                        }
                        WaitSpec::UntilTimeout { cond, cycles } => {
                            let sat = self.eval_bool_in(pid, &cond.code)?;
                            if !sat {
                                let deadline = self.time + cycles;
                                self.store_pc(pid, pc);
                                self.register_wait(
                                    pid,
                                    WaitKind::Until(Arc::clone(cond)),
                                    &cond.sensitivity,
                                );
                                self.arm_watchdog(pid, deadline);
                                self.put_block(code_ref, block);
                                return Ok(());
                            }
                        }
                        WaitSpec::UntilSignalIsTimeout {
                            signal,
                            value,
                            cycles,
                        } => {
                            if self.signals[signal.index()] != *value {
                                let deadline = self.time + cycles;
                                self.store_pc(pid, pc);
                                self.register_wait_one(
                                    pid,
                                    WaitKind::SignalIs(signal.index(), value.clone()),
                                    signal.index(),
                                );
                                self.arm_watchdog(pid, deadline);
                                self.put_block(code_ref, block);
                                return Ok(());
                            }
                        }
                    }
                }
                Instr::Call { procedure, args } => {
                    let procedure = *procedure;
                    // The return address is stored before the callee frame
                    // is pushed; argument evaluation still sees the caller
                    // frame on top.
                    self.store_pc(pid, pc + 1);
                    self.enter_procedure(pid, procedure, args)?;
                    // Put-then-take keeps the slot discipline sound even
                    // for a direct self-call.
                    self.put_block(code_ref, block);
                    code_ref = CodeRef::Procedure(procedure);
                    block = self.take_block(code_ref);
                    pc = 0;
                }
                Instr::Ret => {
                    if self.leave_frame(pid)? {
                        self.put_block(code_ref, block);
                        return Ok(());
                    }
                    let (new_code, new_pc) = {
                        let frame = self.processes[pid].frames.last().expect("frame");
                        (frame.code, frame.pc)
                    };
                    if new_code != code_ref {
                        self.put_block(code_ref, block);
                        block = self.take_block(new_code);
                        code_ref = new_code;
                    }
                    pc = new_pc;
                }
                Instr::ChannelSend {
                    channel,
                    addr,
                    data,
                    cost,
                } => {
                    let data_v = self.eval_in(pid, data)?;
                    let addr_v = match addr {
                        Some(a) => Some(self.eval_i64_in(pid, a)?),
                        None => None,
                    };
                    self.channel_write(*channel, addr_v, data_v)?;
                    pc += 1;
                    if *cost > 0 {
                        self.processes[pid].active_cycles += u64::from(*cost);
                        let wake = self.time + u64::from(*cost);
                        if self.try_fast_advance(wake)? {
                            instant_steps = 0;
                        } else {
                            self.store_pc(pid, pc);
                            self.sleep_until(pid, wake);
                            self.put_block(code_ref, block);
                            return Ok(());
                        }
                    }
                }
                Instr::ChannelReceive {
                    channel,
                    addr,
                    target,
                    cost,
                } => {
                    let addr_v = match addr {
                        Some(a) => Some(self.eval_i64_in(pid, a)?),
                        None => None,
                    };
                    let v = self.channel_read(*channel, addr_v)?;
                    self.write_cplace(pid, target, v)?;
                    pc += 1;
                    if *cost > 0 {
                        self.processes[pid].active_cycles += u64::from(*cost);
                        let wake = self.time + u64::from(*cost);
                        if self.try_fast_advance(wake)? {
                            instant_steps = 0;
                        } else {
                            self.store_pc(pid, pc);
                            self.sleep_until(pid, wake);
                            self.put_block(code_ref, block);
                            return Ok(());
                        }
                    }
                }
                Instr::Assert { cond, note } => {
                    let ok = self.eval_bool_in(pid, cond)?;
                    if !ok {
                        return Err(SimError::AssertionFailed {
                            behavior: self.system.behaviors[self.processes[pid].behavior]
                                .name
                                .clone(),
                            note: note.clone(),
                            time: self.time,
                        });
                    }
                    self.assertions_checked += 1;
                    pc += 1;
                }
                Instr::Consume { cycles } => {
                    pc += 1;
                    if *cycles > 0 {
                        self.processes[pid].active_cycles += *cycles;
                        let wake = self.time + *cycles;
                        if self.try_fast_advance(wake)? {
                            instant_steps = 0;
                        } else {
                            self.store_pc(pid, pc);
                            self.sleep_until(pid, wake);
                            self.put_block(code_ref, block);
                            return Ok(());
                        }
                    }
                }
            }
        }
    }

    fn enter_procedure(
        &mut self,
        pid: usize,
        procedure: usize,
        args: &[CArg],
    ) -> Result<(), SimError> {
        let system: &'a System = self.system;
        let proc = &system.procedures[procedure];
        let caller_frame_abs = self.processes[pid].frames.len() - 1;
        let mut locals = Vec::with_capacity(proc.slot_count());
        let mut copyback = Vec::new();
        for (i, (arg, param)) in args.iter().zip(&proc.params).enumerate() {
            match (arg, param.mode) {
                (CArg::In(e), ParamMode::In) => {
                    locals.push(coerce(self.eval_in(pid, e)?, &param.ty));
                }
                (CArg::Out(place), ParamMode::Out) => {
                    locals.push(Value::default_of(&param.ty));
                    copyback.push({
                        let (rp, ty) = self.resolve_cplace(pid, place, caller_frame_abs)?;
                        (i, rp, ty)
                    });
                }
                (CArg::InOut(place), ParamMode::InOut) => {
                    locals.push(coerce(self.read_cplace(pid, place)?, &param.ty));
                    copyback.push({
                        let (rp, ty) = self.resolve_cplace(pid, place, caller_frame_abs)?;
                        (i, rp, ty)
                    });
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
        self.processes[pid].frames.push(frame);
        Ok(())
    }

    /// Pops the current frame. Returns `true` when the process stopped
    /// running (finished) and the caller should stop stepping it.
    fn leave_frame(&mut self, pid: usize) -> Result<bool, SimError> {
        let frame = self.processes[pid].frames.pop().expect("frame");
        for (slot, rp, ty) in &frame.copyback {
            let v = coerce(frame.locals[*slot].clone(), ty);
            self.write_resolved(pid, rp, v)?;
        }
        if self.processes[pid].frames.is_empty() {
            let bidx = self.processes[pid].behavior;
            if self.system.behaviors[bidx].repeats {
                self.processes[pid].iterations += 1;
                self.processes[pid]
                    .frames
                    .push(Frame::new(CodeRef::Behavior(bidx), Vec::new()));
                Ok(false)
            } else {
                self.processes[pid].status = Status::Finished;
                self.processes[pid].finish_time = Some(self.time);
                Ok(true)
            }
        } else {
            Ok(false)
        }
    }

    /// Ideal-channel write: store directly into the remote variable.
    fn channel_write(
        &mut self,
        channel: ifsyn_spec::ChannelId,
        addr: Option<i64>,
        data: Value,
    ) -> Result<(), SimError> {
        // Borrow the type through the `'a` system reference instead of
        // cloning it (array types heap-allocate their element box).
        let system: &'a System = self.system;
        let ch = system.channel(channel);
        let var_idx = ch.variable.index();
        let ty = &system.variables[var_idx].ty;
        match addr {
            Some(i) => {
                let i = usize::try_from(i)
                    .map_err(|_| SimError::eval(format!("negative channel address {i}")))?;
                let elem_ty = match ty {
                    Ty::Array { elem, .. } => &**elem,
                    other => other,
                };
                match &mut self.vars[var_idx] {
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
            None => self.vars[var_idx] = coerce(data, ty),
        }
        Ok(())
    }

    /// Ideal-channel read: fetch directly from the remote variable.
    fn channel_read(
        &self,
        channel: ifsyn_spec::ChannelId,
        addr: Option<i64>,
    ) -> Result<Value, SimError> {
        let ch = self.system.channel(channel);
        let var_idx = ch.variable.index();
        match addr {
            Some(i) => {
                let i = usize::try_from(i)
                    .map_err(|_| SimError::eval(format!("negative channel address {i}")))?;
                match &self.vars[var_idx] {
                    Value::Array(items) => items
                        .get(i)
                        .cloned()
                        .ok_or_else(|| SimError::eval(format!("channel address {i} out of range"))),
                    _ => Err(SimError::eval(
                        "addressed channel read from non-array variable".to_string(),
                    )),
                }
            }
            None => Ok(self.vars[var_idx].clone()),
        }
    }

    /// Builds the per-process wait diagnosis, or `None` when nothing is
    /// suspended on a wait.
    fn diagnosis(&self) -> Option<DeadlockDiagnosis> {
        let blocked_pids: Vec<usize> = self
            .processes
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p.status, Status::Waiting(_)))
            .map(|(i, _)| i)
            .collect();
        if blocked_pids.is_empty() {
            return None;
        }
        let blocked: Vec<BlockedWait> = blocked_pids
            .iter()
            .map(|&pid| {
                let p = &self.processes[pid];
                let wait = match &p.status {
                    Status::Waiting(WaitKind::Signals) => {
                        let names: Vec<&str> = p
                            .registered
                            .iter()
                            .map(|&s| self.system.signals[s].name.as_str())
                            .collect();
                        format!("wait on {}", names.join(", "))
                    }
                    Status::Waiting(WaitKind::Until(cond)) => {
                        format!("wait until {}", render_expr(self.system, &cond.display))
                    }
                    Status::Waiting(WaitKind::SignalIs(sig, v)) => {
                        format!("wait until {} = {v}", self.system.signals[*sig].name)
                    }
                    _ => unreachable!("filtered to waiting processes"),
                };
                let observed = p
                    .registered
                    .iter()
                    .map(|&s| {
                        (
                            self.system.signals[s].name.clone(),
                            self.signals[s].to_string(),
                        )
                    })
                    .collect();
                BlockedWait {
                    behavior: self.system.behaviors[p.behavior].name.clone(),
                    wait,
                    observed,
                }
            })
            .collect();
        // Wait-for edges: blocked A -> blocked B when B's code can write a
        // signal A is sensitive to. With every potential writer of A's
        // wakeup signals itself blocked, the cycle is unbreakable.
        let writes: Vec<Vec<bool>> = blocked_pids
            .iter()
            .map(|&pid| self.written_signals(self.processes[pid].behavior))
            .collect();
        let edges: Vec<Vec<usize>> = blocked_pids
            .iter()
            .enumerate()
            .map(|(i, &pid)| {
                let sens = &self.processes[pid].registered;
                (0..blocked_pids.len())
                    .filter(|&j| j != i && sens.iter().any(|&s| writes[j][s]))
                    .collect()
            })
            .collect();
        let cycles = find_cycles(blocked_pids.len(), &edges)
            .into_iter()
            .map(|cycle| {
                cycle
                    .into_iter()
                    .map(|i| {
                        self.system.behaviors[self.processes[blocked_pids[i]].behavior]
                            .name
                            .clone()
                    })
                    .collect()
            })
            .collect();
        Some(DeadlockDiagnosis {
            time: self.time,
            blocked,
            cycles,
        })
    }

    /// Signals a behavior's code can drive, including through called
    /// procedures (transitively). Indexed by signal index.
    fn written_signals(&self, behavior: usize) -> Vec<bool> {
        let mut out = vec![false; self.signals.len()];
        let mut visited = vec![false; self.procedure_code.len()];
        let block = self.behavior_code[behavior]
            .as_ref()
            .expect("code block taken");
        let mut stack: Vec<&[Instr]> = vec![&block.instrs];
        while let Some(instrs) = stack.pop() {
            for instr in instrs {
                match instr {
                    Instr::SignalWrite { signal, .. } => out[signal.index()] = true,
                    Instr::Call { procedure, .. } if !visited[*procedure] => {
                        visited[*procedure] = true;
                        let proc_block = self.procedure_code[*procedure]
                            .as_ref()
                            .expect("code block taken");
                        stack.push(&proc_block.instrs);
                    }
                    _ => {}
                }
            }
        }
        out
    }

    fn into_report(self) -> SimReport {
        let behaviors = self
            .processes
            .iter()
            .map(|p| BehaviorOutcome {
                name: self.system.behaviors[p.behavior].name.clone(),
                finish_time: p.finish_time,
                iterations: p.iterations,
                blocked: matches!(p.status, Status::Waiting(_)),
                repeats: self.system.behaviors[p.behavior].repeats,
                active_cycles: p.active_cycles,
                instrs_executed: p.instrs_executed,
            })
            .collect();
        let variables = self
            .system
            .variables
            .iter()
            .zip(&self.vars)
            .map(|(d, v)| (d.name.clone(), v.clone()))
            .collect();
        let signals = self
            .system
            .signals
            .iter()
            .zip(&self.signals)
            .map(|(d, v)| (d.name.clone(), v.clone()))
            .collect();
        let signal_events = self
            .system
            .signals
            .iter()
            .zip(&self.signal_events)
            .map(|(d, &n)| (d.name.clone(), n))
            .collect();
        let blocked_at_exit = self
            .processes
            .iter()
            .filter(|p| {
                !self.system.behaviors[p.behavior].repeats && !matches!(p.status, Status::Finished)
            })
            .count();
        SimReport {
            time: self.time,
            behaviors,
            variables,
            signals,
            signal_events,
            injected_faults: self.injected,
            blocked_at_exit,
            trace: self.trace,
            total_deltas: self.total_deltas,
            total_instrs: self.total_instrs,
            assertions_checked: self.assertions_checked,
            heap_peak: self.heap_peak,
            time_steps: self.time_steps,
        }
    }
}

/// The error for a compiled place whose type could not be resolved at
/// compile time (today: a local referenced from a behavior body).
pub(crate) fn untyped_place_error(root: &CRoot) -> SimError {
    match root {
        CRoot::Local(_) => SimError::eval("local slot referenced outside a procedure".to_string()),
        CRoot::Var(_) => SimError::eval("place cannot be typed in this scope".to_string()),
    }
}

/// Renders a wait condition compactly for diagnosis messages: signal
/// names, literal values and operators; structural forms fall back to a
/// placeholder rather than a full printout.
pub(crate) fn render_expr(system: &System, expr: &Expr) -> String {
    match expr {
        Expr::Signal(s) => system.signal(*s).name.clone(),
        Expr::Const(v) => v.to_string(),
        Expr::Unary { op, arg } => format!("{op} {}", render_expr(system, arg)),
        Expr::Binary { op, lhs, rhs } => format!(
            "{} {op} {}",
            render_expr(system, lhs),
            render_expr(system, rhs)
        ),
        _ => "<expr>".to_string(),
    }
}

/// Writes `value` through a resolved navigation path.
pub(crate) fn write_steps(root: &mut Value, steps: &[Step], value: Value) -> Result<(), SimError> {
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
