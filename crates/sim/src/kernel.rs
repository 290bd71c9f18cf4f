//! The discrete-event simulation kernel.
//!
//! The kernel owns time: the delta loop, the event heaps, waiter
//! registration and wake-up, and the fault filter. Instructions execute
//! in the interpreter it shares with the model checker
//! ([`crate::interp`]); an activation plugs the kernel's scheduling into
//! it: zero-cost signal writes queue for the next delta, costed
//! instructions sleep, and an unsatisfied wait registers the process as
//! a waiter and parks it past the wait. An activation therefore spans
//! one instant.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ifsyn_spec::{BitVec, SignalId, System, Value};

use crate::config::SimConfig;
use crate::diagnose::DeadlockDiagnosis;
use crate::error::{RunError, SimError};
use crate::eval::{coerce, EvalCtx};
use crate::fault::{FaultKind, InjectedFault};
use crate::interp::{self, Engine, Store};
use crate::process::{CodeRef, Frame, Process, Status};
use crate::program::{CodeCache, Instr, Program, WaitSpec};
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

/// The wait a suspended process is parked past: a suspension stores the
/// pc after its wait, where the process resumes.
///
/// The kernel looks its waits up here rather than keeping a copy in the
/// process status. That is sound because waking and diagnosis run only
/// between activations, never while one holds the program.
fn parked_wait<'p>(program: &'p Program, frame: &Frame) -> &'p WaitSpec {
    match frame
        .pc
        .checked_sub(1)
        .and_then(|pc| program.block(frame.code).instrs.get(pc))
    {
        Some(Instr::Wait(wait)) => wait,
        _ => panic!("a suspended process is parked past its wait"),
    }
}

/// Takes waiting process `pid` off the waiter list of every signal its
/// parked `wait` is sensitive to: the lists `register_wait` put it on.
fn unwait(waiters: &mut [Vec<usize>], pid: usize, wait: &WaitSpec) {
    for s in wait.sensitivity() {
        let list = &mut waiters[s.index()];
        // Waiter lists are unordered: swap-remove instead of retain.
        if let Some(pos) = list.iter().position(|&p| p == pid) {
            list.swap_remove(pos);
        }
    }
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
    /// The compiled code blocks, behind `Arc`s: `Arc` (not `Rc`) keeps
    /// the simulator `Send` for the parallel sweep driver, and lets a
    /// [`CodeCache`] share identical blocks between simulator instances.
    ///
    /// Each activation *moves* the program out of this field and back
    /// (see `run_process`), so the interpreter holds its blocks across
    /// `&mut self` calls with no reference-count traffic. The field is
    /// empty only while a process runs (or after a terminal error, when
    /// the simulator is dropped without further use).
    program: Program,
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
    /// Per signal: processes registered as waiters (swap-remove lists;
    /// order is irrelevant because wake order flows from `ready`).
    waiters: Vec<Vec<usize>>,
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
    /// Returns [`SimError::InvalidSystem`] if the system fails validation,
    /// or its fault plan names an unknown signal or flips a bit that is
    /// not below the signal's declared width.
    pub fn with_config(system: &'a System, config: SimConfig) -> Result<Self, SimError> {
        Self::with_config_cached(system, config, None)
    }

    /// Compiles `system`, sharing compiled code blocks through `cache`.
    ///
    /// Batch drivers that simulate many identical (or near-identical)
    /// refined systems pass one shared [`CodeCache`] so each distinct
    /// behavior or procedure body is lowered only once.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] as [`Simulator::with_config`]
    /// does.
    pub fn with_config_cached(
        system: &'a System,
        config: SimConfig,
        cache: Option<&CodeCache>,
    ) -> Result<Self, SimError> {
        system.check().map_err(|e| SimError::InvalidSystem {
            message: e.to_string(),
        })?;
        let program = Program::compile_cached(system, cache);
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
                FaultKind::FlipBit { bit, at } => {
                    let width = system.signals[idx].ty.bit_width();
                    if bit >= width {
                        return Err(SimError::InvalidSystem {
                            message: format!(
                                "fault plan flips bit {bit} of `{}` ({width} bit(s)), \
                                 so it can never strike",
                                f.signal
                            ),
                        });
                    }
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
            program,
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
            waiters: vec![Vec::new(); n_signals],
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
            let stuck = self
                .processes
                .iter()
                .any(|p| p.status == Status::Waiting && !self.system.behaviors[p.behavior].repeats);
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
            if p.status == Status::Waiting && p.wait_gen == gen {
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
            if p.status == Status::Waiting && p.wait_gen == gen {
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
                debug_assert!(bit < bits.width(), "refused by Simulator::with_config");
                let inverted = BitVec::from_u64(u64::from(!bits.bit(bit)), 1);
                bits.write_slice(bit, bit, &inverted);
                let v = Value::from_bits(&ty, &bits);
                self.pending.push((sig, v, true));
                self.record_injection(sig, format!("bit {bit} flipped"));
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
                self.wake_on().map_err(|e| *e)?;
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

    /// Wakes processes sensitive to the signals in the `changed` buffer
    /// whose parked wait now holds; a `wait on` has no condition, so any
    /// event on its list wakes it.
    fn wake_on(&mut self) -> Result<(), RunError> {
        for ci in 0..self.changed.len() {
            let sig = self.changed[ci];
            // Iterate the waiter list in place: when a process wakes,
            // `unwait` swap-removes its entry, so the slot at `i` is
            // refilled and the index only advances past survivors. No
            // process can suspend during a wake sweep, so no new entries
            // appear behind us.
            let mut i = 0;
            while i < self.waiters[sig].len() {
                let pid = self.waiters[sig][i];
                let frame = self.processes[pid]
                    .frames
                    .last()
                    .expect("a suspended process has a frame");
                let wait = parked_wait(&self.program, frame);
                let ctx = EvalCtx {
                    vars: &self.vars,
                    signals: &self.signals,
                    locals: &frame.locals,
                };
                if wait.holds(&ctx)? == Some(false) {
                    i += 1;
                } else {
                    unwait(&mut self.waiters, pid, wait);
                    self.processes[pid].status = Status::Ready;
                    self.ready.push_back(pid);
                }
            }
        }
        Ok(())
    }

    /// Readies a waiting process whose watchdog expired.
    fn make_ready(&mut self, pid: usize) {
        let frame = self.processes[pid]
            .frames
            .last()
            .expect("a suspended process has a frame");
        unwait(&mut self.waiters, pid, parked_wait(&self.program, frame));
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

    /// Registers process `pid` as a waiter on every signal of
    /// `sensitivity`, which compilation made duplicate-free. Waking takes
    /// it off the same lists: those of the wait it is parked past.
    fn register_wait(&mut self, pid: usize, sensitivity: &[SignalId]) {
        let p = &mut self.processes[pid];
        // A fresh generation invalidates any watchdog entry left over from
        // an earlier suspension of this process.
        p.wait_gen += 1;
        for s in sensitivity {
            self.waiters[s.index()].push(pid);
        }
        p.status = Status::Waiting;
    }

    /// Arms a watchdog for the suspension the process just entered (must
    /// be called directly after `register_wait`).
    fn arm_watchdog(&mut self, pid: usize, deadline: u64) {
        let gen = self.processes[pid].wait_gen;
        self.wait_timeouts
            .push(Reverse((deadline, self.event_seq, pid, gen)));
        self.event_seq += 1;
    }

    /// Runs one process until it blocks, sleeps or finishes, then flushes
    /// the executed-instruction counters in one add each.
    fn run_process(&mut self, pid: usize) -> Result<(), SimError> {
        let program = std::mem::take(&mut self.program);
        let system: &'a System = self.system;
        let mut act = Activation {
            sim: self,
            pid,
            steps: 0,
        };
        let result = interp::run(system, &program, pid, &mut act);
        let steps = act.steps;
        self.program = program;
        self.total_instrs += steps;
        self.processes[pid].instrs_executed += steps;
        result.map_err(|e| *e)
    }

    /// Builds the per-process wait diagnosis, or `None` when nothing is
    /// suspended on a wait.
    fn diagnosis(&self) -> Option<DeadlockDiagnosis> {
        let waits = self
            .processes
            .iter()
            .filter(|p| p.status == Status::Waiting)
            .map(|p| {
                let frame = p.frames.last().expect("a suspended process has a frame");
                (p.behavior, parked_wait(&self.program, frame))
            })
            .collect();
        DeadlockDiagnosis::assemble(self.system, &self.program, &self.signals, self.time, waits)
    }

    fn into_report(self) -> SimReport {
        let behaviors = self
            .processes
            .iter()
            .map(|p| BehaviorOutcome {
                name: self.system.behaviors[p.behavior].name.clone(),
                finish_time: p.finish_time,
                iterations: p.iterations,
                blocked: p.status == Status::Waiting,
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
            .filter(|p| !self.system.behaviors[p.behavior].repeats && p.status != Status::Finished)
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

/// One activation of a kernel process: the simulator seen through the
/// interpreter's scheduling hooks.
struct Activation<'k, 'a> {
    sim: &'k mut Simulator<'a>,
    pid: usize,
    /// Instructions executed in this activation, against the zero-delay
    /// loop budget: an activation spans one instant.
    steps: u64,
}

impl Engine for Activation<'_, '_> {
    fn store(&mut self) -> Store<'_> {
        let sim = &mut *self.sim;
        Store {
            vars: &mut sim.vars,
            signals: &sim.signals,
            frames: &mut sim.processes[self.pid].frames,
        }
    }

    fn tick(&mut self, _code: CodeRef, _pc: usize) -> Result<(), RunError> {
        self.steps += 1;
        if self.steps > self.sim.config.max_steps_per_activation {
            return Err(Box::new(SimError::ZeroDelayLoop {
                behavior: self.sim.system.behaviors[self.pid].name.clone(),
                time: self.sim.time,
            }));
        }
        Ok(())
    }

    fn before_store(&mut self, _var: usize) {}

    /// The process sleeps until the cycles have passed.
    fn elapse(&mut self, cycles: u64, active: bool) {
        if active {
            self.sim.processes[self.pid].active_cycles += cycles;
        }
        self.sim.sleep_until(self.pid, self.sim.time + cycles);
    }

    fn drive(&mut self, signal: usize, value: Value, cost: u32) {
        if cost == 0 {
            self.sim.pending.push((signal, value, false));
        } else {
            let at = self.sim.time + u64::from(cost);
            self.sim.schedule_write(at, signal, value, false);
        }
    }

    /// Registers the process as a waiter (and arms the watchdog of a
    /// bounded wait); it resumes past the wait, where the code after a
    /// bounded wait re-tests the condition.
    fn suspend(&mut self, wait: &WaitSpec) -> bool {
        let (sim, pid) = (&mut *self.sim, self.pid);
        sim.register_wait(pid, wait.sensitivity());
        if let Some(cycles) = wait.timeout() {
            sim.arm_watchdog(pid, sim.time + cycles);
        }
        true
    }

    /// A repeating behavior counts the iteration and keeps running; a
    /// finished one records its finish time.
    fn root_exit(&mut self, restarted: bool) -> bool {
        let p = &mut self.sim.processes[self.pid];
        if restarted {
            p.iterations += 1;
        } else {
            p.status = Status::Finished;
            p.finish_time = Some(self.sim.time);
        }
        restarted
    }

    fn assert(&mut self, held: bool) -> u64 {
        if held {
            self.sim.assertions_checked += 1;
        }
        self.sim.time
    }
}
