//! Protocol generation: refining channel operations into bus behavior
//! (paper §4, steps 1–5).
//!
//! Given a [`BusDesign`], the generator produces a *new* [`System`] in
//! which:
//!
//! * the bus wires exist as signals (`B_START`, `B_DONE`, `B_ID`,
//!   `B_DATA`) — paper step 3's `HandShakeBus` record, flattened;
//! * every channel has a unique ID code — step 2;
//! * every channel has a client-side procedure (`Send_ch` / `Receive_ch`)
//!   that slices the message into bus words and runs the handshake per
//!   word, and a server-side procedure (`Serve_ch`) — step 3, Fig. 4;
//! * behaviors' abstract `ChannelSend`/`ChannelReceive` operations are
//!   replaced by calls to those procedures — step 4, Fig. 5 top;
//! * each remotely accessed variable gains a *variable process* that
//!   watches the bus and dispatches on the ID lines — step 5, Fig. 5
//!   bottom (`Xproc`, `MEMproc`).
//!
//! Robustness is a layer over those same four builders, not a second
//! generator. Each builder emits the plain per-word body. Timeout
//! hardening ([`ProtocolGenerator::with_timeout`]) bounds every client
//! word with watchdogs and a bounded retry. Integrity
//! ([`ProtocolGenerator::with_integrity`]) adds three things to the same
//! body:
//!
//! * a checksum step on each word;
//! * one check word closing each direction run;
//! * a loop around the message: the client retransmits through the same
//!   bounded-retry combinator a hardened word uses, and the server's
//!   verify loop repeats a run until it verifies, so nothing unverified
//!   is committed or answered.
//!
//! Statement costs are assigned so that a full-handshake word takes
//! exactly 2 clocks of simulated time (the paper's Eq. 2 delay model):
//! the two rising control edges cost one cycle each, and latches,
//! release edges and data setup are free (they overlap the control
//! edges in hardware).

use std::collections::HashMap;

use ifsyn_spec::dsl::*;
use ifsyn_spec::{
    Arg, BehaviorId, Channel, ChannelDirection, ChannelId, Expr, ParamMode, ProcId, Procedure,
    SignalId, Stmt, System, Ty, VarId,
};

use crate::arbitration::{self, ArbiterWiring, Arbitration};
use crate::busgen::BusDesign;
use crate::error::CoreError;
use crate::protocol::ProtocolKind;
use crate::words::{WordDir, WordPlan, WordSpec};

/// How the generator decides whether to install a bus arbiter.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ArbitrationChoice {
    /// Install a zero-latency round-robin arbiter iff more than one
    /// behavior initiates transactions (the safe default; the paper's
    /// own examples leave multi-master buses unarbitrated).
    Auto,
    /// Never install an arbiter (paper-faithful; unsafe with concurrent
    /// initiators).
    Off,
    /// Always install the given arbiter.
    Forced(Arbitration),
}

/// Timeout hardening of the generated handshake (see
/// [`ProtocolGenerator::with_timeout`]).
///
/// Hardening applies to the full-handshake protocol, whose client blocks
/// on two `wait until` statements per word and therefore hangs forever on
/// a stuck or dropped control line. The other protocols either never
/// block (half-handshake, hardwired) or wait for a fixed count
/// (fixed-delay), so they pass through unhardened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hardening {
    /// Watchdog bound per `wait until`, in clock cycles: the hardened
    /// handshake emits `wait until ... for <watchdog>` instead of an
    /// unbounded wait.
    pub watchdog: u64,
    /// Bounded retry: how many times a word transfer is re-attempted
    /// (re-driving START) after a watchdog expiry before aborting.
    pub max_retries: u32,
}

impl Default for Hardening {
    fn default() -> Self {
        Self {
            watchdog: 16,
            max_retries: 3,
        }
    }
}

/// The structure of the generated bus: wires, ID codes, procedures and
/// server processes.
#[derive(Debug, Clone, PartialEq)]
pub struct BusStructure {
    /// Bus name prefix (default `B`).
    pub name: String,
    /// The bus design this structure implements.
    pub design: BusDesign,
    /// START control line (absent for hardwired channels).
    pub start: Option<SignalId>,
    /// DONE control line (full handshake only).
    pub done: Option<SignalId>,
    /// ID (mode) lines, absent when the bus carries a single channel.
    pub id: Option<SignalId>,
    /// Shared data lines (absent for hardwired channels).
    pub data: Option<SignalId>,
    /// Integrity NACK line (`<bus>_ERR`), present only for
    /// integrity-protected refinements. Rests at `'1'`; the server
    /// lowers it only while acknowledging a verified check word.
    pub err: Option<SignalId>,
    /// Per-channel ID codes, in `design.channels` order.
    pub id_codes: Vec<(ChannelId, u64)>,
    /// Per-channel client-side procedures.
    pub client_procs: Vec<(ChannelId, ProcId)>,
    /// Per-channel server-side procedures.
    pub serve_procs: Vec<(ChannelId, ProcId)>,
    /// Generated variable processes, one per served variable.
    pub var_processes: Vec<(VarId, BehaviorId)>,
    /// Installed arbiter, if any.
    pub arbiter: Option<ArbiterWiring>,
    /// Dedicated data signals (hardwired channels only).
    pub dedicated_data: Vec<(ChannelId, SignalId)>,
    /// Per-channel abort status flags (`<bus>_STAT_<channel>`), present
    /// only for hardened full-handshake refinements. The flag is sticky:
    /// once a transfer aborts it stays `'1'` for the rest of the run.
    pub status_flags: Vec<(ChannelId, SignalId)>,
}

impl BusStructure {
    /// ID code assigned to a channel.
    pub fn id_code(&self, channel: ChannelId) -> Option<u64> {
        self.id_codes
            .iter()
            .find(|(c, _)| *c == channel)
            .map(|(_, code)| *code)
    }

    /// Client-side procedure of a channel.
    pub fn client_proc(&self, channel: ChannelId) -> Option<ProcId> {
        self.client_procs
            .iter()
            .find(|(c, _)| *c == channel)
            .map(|(_, p)| *p)
    }
}

/// The output of protocol generation: a refined, simulatable system plus
/// the bus structure metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinedSystem {
    /// The refined specification.
    pub system: System,
    /// The generated bus structure.
    pub bus: BusStructure,
}

/// The output of multi-bus refinement ([`ProtocolGenerator::refine_all`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBusRefinement {
    /// The refined specification, with every bus's wires and servers.
    pub system: System,
    /// One structure per bus, in design order.
    pub buses: Vec<BusStructure>,
}

impl MultiBusRefinement {
    /// Total wires across all buses.
    pub fn total_wires(&self) -> u32 {
        self.buses.iter().map(|b| b.design.total_wires()).sum()
    }
}

/// Protocol generation (paper §4).
///
/// # Example
///
/// See the crate-level example; typical use is
/// `ProtocolGenerator::new().refine(&system, &design)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolGenerator {
    bus_name: String,
    arbitration: ArbitrationChoice,
    rolled_loops: bool,
    hardening: Option<Hardening>,
    integrity: bool,
}

impl ProtocolGenerator {
    /// Creates a generator with bus name `B` and automatic arbitration.
    pub fn new() -> Self {
        Self {
            bus_name: "B".to_string(),
            arbitration: ArbitrationChoice::Auto,
            rolled_loops: false,
            hardening: None,
            integrity: false,
        }
    }

    /// Forces a specific arbiter configuration.
    pub fn with_arbitration(mut self, config: Arbitration) -> Self {
        self.arbitration = ArbitrationChoice::Forced(config);
        self
    }

    /// Emits the word sequence as a `for` loop over dynamic slices —
    /// the exact form of the paper's Fig. 4 (`for J in 1 to 2 loop ...
    /// txdata(8*J-1 downto 8*(J-1))`) — whenever the layout allows it
    /// (homogeneous word direction and the width dividing the message).
    /// Heterogeneous layouts fall back to unrolled words. Timing is
    /// identical either way (loop bookkeeping is free).
    pub fn with_rolled_word_loops(mut self) -> Self {
        self.rolled_loops = true;
        self
    }

    /// Enables timeout-hardened handshakes with the given watchdog bound
    /// (cycles per `wait until`) and the default retry limit.
    ///
    /// Hardened full-handshake clients bound every wait with a watchdog,
    /// retry a timed-out word up to the retry limit, and on exhaustion
    /// abort the transfer: they raise the channel's sticky
    /// `<bus>_STAT_<channel>` flag, release the bus arbiter if held, and
    /// return. Fault-free timing is identical to the plain protocol
    /// (2 clocks per word); the extra branches are free.
    pub fn with_timeout(mut self, watchdog: u64) -> Self {
        let h = self.hardening.get_or_insert_with(Hardening::default);
        h.watchdog = watchdog.max(1);
        self
    }

    /// Sets the bounded-retry limit of hardened handshakes (enables
    /// hardening with the default watchdog if not already on).
    pub fn with_retry_limit(mut self, retries: u32) -> Self {
        let h = self.hardening.get_or_insert_with(Hardening::default);
        h.max_retries = retries;
        self
    }

    /// Enables the integrity-protected protocol variant.
    ///
    /// Protected full-handshake transfers append one *check word* per
    /// word run: a position-weighted rolling checksum of the words just
    /// transferred (`acc := acc + word_j * salt_j` truncated to the data
    /// width, with `salt_j = j + 1`). The weighting makes the sum
    /// *order-sensitive*: swapped, duplicated, or stream-shifted words
    /// change it even when the payload repeats — unlike a salted XOR,
    /// which commutes and accepts any permutation of the same word set
    /// (the explicit-state checker found exactly that false accept: a
    /// retry-desynced stream under a stuck DONE that verified and
    /// committed a corrupt address). The server verifies the checksum
    /// before committing anything and acknowledges the check word with
    /// the bus-wide `<bus>_ERR` wire, which rests at `'1'` (NACK) and is
    /// lowered only while a *verified* check word is acknowledged — a
    /// spuriously flipped DONE therefore reads as a NACK, never as a
    /// false accept. On a NACK (or, for reads, a client-side response
    /// checksum mismatch) the whole message is retransmitted, bounded by
    /// the hardening retry limit; exhaustion raises the channel's sticky
    /// status flag exactly like a hardened word abort. Read channels use
    /// a direction-aligned word plan (no mixed address/data words) so
    /// request and response runs are checksummed independently.
    ///
    /// Integrity implies hardening (enabled with defaults if not already
    /// configured) and requires the full-handshake protocol; the ID
    /// lines themselves are not covered (a corrupted ID mis-routes the
    /// transfer before any checksum is computed).
    pub fn with_integrity(mut self) -> Self {
        self.integrity = true;
        self.hardening.get_or_insert_with(Hardening::default);
        self
    }

    /// Disables arbitration entirely (paper-faithful mode).
    ///
    /// With more than one initiating behavior the refined system can
    /// exhibit bus collisions, exactly as the paper's unrefined examples
    /// would; use only when initiators are known not to overlap.
    pub fn without_arbitration(mut self) -> Self {
        self.arbitration = ArbitrationChoice::Off;
        self
    }

    /// Refines `system` by implementing `design`'s channels on a bus.
    ///
    /// Channels outside the design are left abstract, so multi-bus
    /// systems refine one bus at a time.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyChannelGroup`] / [`CoreError::UnknownChannel`] /
    ///   [`CoreError::InvalidDesign`] for bad designs;
    /// * [`CoreError::UnsupportedProtocol`] when the protocol cannot
    ///   implement the group (e.g. half-handshake with read channels);
    /// * [`CoreError::Refinement`] if the generated system fails
    ///   validation (an internal invariant; please report).
    pub fn refine(&self, system: &System, design: &BusDesign) -> Result<RefinedSystem, CoreError> {
        if design.channels.is_empty() {
            return Err(CoreError::EmptyChannelGroup);
        }
        if design.width == 0 {
            return Err(CoreError::InvalidDesign {
                reason: "bus width must be positive".to_string(),
            });
        }
        for &ch in &design.channels {
            if ch.index() >= system.channels.len() {
                return Err(CoreError::UnknownChannel { id: ch });
            }
            let c = system.channel(ch);
            if c.message_bits() == 0 {
                return Err(CoreError::InvalidDesign {
                    reason: format!("channel `{}` carries a zero-bit message", c.name),
                });
            }
        }
        check_directions(system, &design.channels)?;
        if design.protocol == ProtocolKind::HalfHandshake {
            let has_read = design
                .channels
                .iter()
                .any(|&c| system.channel(c).direction == ChannelDirection::Read);
            if has_read {
                return Err(CoreError::UnsupportedProtocol {
                    reason: "half-handshake has no return path for read channels".to_string(),
                });
            }
        }
        if self.integrity && design.protocol != ProtocolKind::FullHandshake {
            return Err(CoreError::UnsupportedProtocol {
                reason: "integrity protection requires the full-handshake protocol".to_string(),
            });
        }
        if design.protocol == ProtocolKind::Hardwired {
            return self.refine_hardwired(system, design);
        }
        let mut gen = Gen::new(self, system.clone(), design.clone())?;
        gen.build_bus_signals();
        gen.build_arbiter();
        gen.build_channel_procs();
        gen.build_variable_processes();
        gen.rewrite_clients();
        gen.finish()
    }

    /// Refines several bus designs in sequence — one physical bus per
    /// design, each with its own wires, procedures, servers and (if
    /// needed) arbiter. Bus `k` is named `<bus_name><k>`.
    ///
    /// This is how a [`crate::SplitOutcome`] becomes hardware: channels
    /// split across buses transfer concurrently, the "two or more
    /// channels may transfer data simultaneously over the same bus by
    /// utilizing different sets of data and control lines" future-work
    /// item of the paper's §6.
    ///
    /// # Errors
    ///
    /// Same as [`ProtocolGenerator::refine`], per design.
    pub fn refine_all(
        &self,
        system: &System,
        designs: &[BusDesign],
    ) -> Result<MultiBusRefinement, CoreError> {
        if designs.is_empty() {
            return Err(CoreError::EmptyChannelGroup);
        }
        let mut current = system.clone();
        let mut buses = Vec::with_capacity(designs.len());
        for (k, design) in designs.iter().enumerate() {
            let generator = Self {
                bus_name: format!("{}{k}", self.bus_name),
                ..self.clone()
            };
            let refined = generator.refine(&current, design)?;
            current = refined.system;
            buses.push(refined.bus);
        }
        Ok(MultiBusRefinement {
            system: current,
            buses,
        })
    }

    /// Hardwired refinement: dedicated wires per channel, no sequencing.
    fn refine_hardwired(
        &self,
        system: &System,
        design: &BusDesign,
    ) -> Result<RefinedSystem, CoreError> {
        for &chid in &design.channels {
            let ch = system.channel(chid);
            if ch.direction != ChannelDirection::Write {
                return Err(CoreError::UnsupportedProtocol {
                    reason: "hardwired ports support write channels only".to_string(),
                });
            }
        }
        let mut sys = system.clone();
        let mut dedicated_data = Vec::new();
        let mut client_procs = Vec::new();
        let mut var_processes = Vec::new();
        for &chid in &design.channels {
            let ch = sys.channel(chid).clone();
            let m = ch.message_bits();
            let sig = sys.add_signal(format!("{}_{}_WIRES", self.bus_name, ch.name), Ty::Bits(m));
            dedicated_data.push((chid, sig));
            // Client procedure: drive the dedicated wires (1 cycle).
            let mut p = Procedure::new(format!("Send_{}", ch.name));
            let addr_slot = (ch.addr_bits > 0)
                .then(|| p.add_param("addr", Ty::Bits(ch.addr_bits), ParamMode::In));
            let tx = p.add_param("txdata", Ty::Bits(ch.data_bits), ParamMode::In);
            let msg = match addr_slot {
                Some(a) => concat(load(local(a)), load(local(tx))),
                None => resize(load(local(tx)), m),
            };
            p.body = vec![drive_cost(sig, msg, 1)];
            let pid = sys.add_procedure(p);
            client_procs.push((chid, pid));
            // Server process: latch on every change.
            let owner = sys.variable(ch.variable).owner;
            let module = sys.behavior(owner).module;
            let vname = sys.variable(ch.variable).name.clone();
            let beh = sys.add_behavior(format!("{vname}proc_{}", ch.name), module);
            sys.behavior_mut(beh).repeats = true;
            let commit = commit_stmt(&ch, Expr::Signal(sig));
            sys.behavior_mut(beh).body = vec![wait_on(vec![sig]), commit];
            var_processes.push((ch.variable, beh));
        }
        let structure = BusStructure {
            name: self.bus_name.clone(),
            design: design.clone(),
            start: None,
            done: None,
            id: None,
            data: None,
            err: None,
            id_codes: Vec::new(),
            client_procs: client_procs.clone(),
            serve_procs: Vec::new(),
            var_processes,
            arbiter: None,
            dedicated_data,
            status_flags: Vec::new(),
        };
        let client_map: HashMap<ChannelId, ProcId> = client_procs.into_iter().collect();
        rewrite_channel_ops(&mut sys, &client_map);
        sys.check().map_err(|e| CoreError::Refinement {
            message: e.to_string(),
        })?;
        Ok(RefinedSystem {
            system: sys,
            bus: structure,
        })
    }
}

impl Default for ProtocolGenerator {
    fn default() -> Self {
        Self::new()
    }
}

/// Commit a whole received message into the channel's variable.
fn commit_stmt(ch: &Channel, message: Expr) -> Stmt {
    let a = ch.addr_bits;
    let m = ch.message_bits();
    if a > 0 {
        Stmt::Assign {
            place: index(var(ch.variable), slice_of(message.clone(), a - 1, 0)),
            value: slice_of(message, m - 1, a),
            cost: Some(0),
        }
    } else {
        Stmt::Assign {
            place: var(ch.variable),
            value: message,
            cost: Some(0),
        }
    }
}

/// Verifies every channel's statements match its declared direction.
fn check_directions(system: &System, channels: &[ChannelId]) -> Result<(), CoreError> {
    let mut bad: Option<String> = None;
    for b in &system.behaviors {
        ifsyn_spec::visit::for_each_stmt(&b.body, &mut |s| {
            let (ch, is_send) = match s {
                Stmt::ChannelSend { channel, .. } => (*channel, true),
                Stmt::ChannelReceive { channel, .. } => (*channel, false),
                _ => return,
            };
            if !channels.contains(&ch) {
                return;
            }
            let dir = system.channel(ch).direction;
            let ok = matches!(
                (dir, is_send),
                (ChannelDirection::Write, true) | (ChannelDirection::Read, false)
            );
            if !ok && bad.is_none() {
                bad = Some(format!(
                    "channel `{}` is declared {:?} but used with {}",
                    system.channel(ch).name,
                    dir,
                    if is_send { "send" } else { "receive" }
                ));
            }
        });
    }
    match bad {
        Some(reason) => Err(CoreError::UnsupportedProtocol { reason }),
        None => Ok(()),
    }
}

/// Rewrites abstract channel operations into procedure calls.
fn rewrite_channel_ops(sys: &mut System, client_map: &HashMap<ChannelId, ProcId>) {
    for b in &mut sys.behaviors {
        let body = std::mem::take(&mut b.body);
        b.body = ifsyn_spec::visit::rewrite_body(body, &mut |s| match s {
            Stmt::ChannelSend {
                channel,
                addr,
                data,
            } if client_map.contains_key(channel) => {
                let mut args = Vec::new();
                if let Some(a) = addr {
                    args.push(Arg::In(a.clone()));
                }
                args.push(Arg::In(data.clone()));
                ifsyn_spec::visit::Rewrite::Replace(vec![Stmt::Call {
                    procedure: client_map[channel],
                    args,
                }])
            }
            Stmt::ChannelReceive {
                channel,
                addr,
                target,
            } if client_map.contains_key(channel) => {
                let mut args = Vec::new();
                if let Some(a) = addr {
                    args.push(Arg::In(a.clone()));
                }
                args.push(Arg::Out(target.clone()));
                ifsyn_spec::visit::Rewrite::Replace(vec![Stmt::Call {
                    procedure: client_map[channel],
                    args,
                }])
            }
            _ => ifsyn_spec::visit::Rewrite::Keep,
        });
    }
}

/// Bus-lock lines `(req, gnt)` of a client behind an arbiter.
type Lock = Option<(SignalId, SignalId)>;

/// A bounded retry's success flag and attempt counter (local slots) and
/// the status flag its abort raises.
type Retry = (usize, usize, SignalId);

/// `n := n + 1` on an `int<16>` retry counter.
fn count_up(n_slot: usize) -> Stmt {
    assign_cost(local(n_slot), add(load(local(n_slot)), int_const(1, 16)), 0)
}

/// One attempt's verdict: `if cond then ok := '1' else n := n + 1`.
fn succeed_or_count(cond: Expr, ok_slot: usize, n_slot: usize) -> Stmt {
    if_else(
        cond,
        vec![assign_cost(local(ok_slot), bit_const(true), 0)],
        vec![count_up(n_slot)],
    )
}

/// Brackets a client body with the arbiter's lock and unlock.
fn locked(lock: Lock, body: Vec<Stmt>) -> Vec<Stmt> {
    let Some((req, gnt)) = lock else {
        return body;
    };
    let mut v = arbitration::lock_stmts(req, gnt);
    v.extend(body);
    v.extend(arbitration::unlock_stmts(req, gnt));
    v
}

/// Length of a plan's leading request run: every word of a write, the
/// address-only words of a read.
fn request_run_len(plan: &WordPlan) -> usize {
    plan.words
        .iter()
        .take_while(|w| w.dir == WordDir::Request)
        .count()
}

/// Working state of one shared-bus refinement.
struct Gen {
    sys: System,
    design: BusDesign,
    protocol: ProtocolKind,
    bus_name: String,
    arbitration: ArbitrationChoice,
    rolled_loops: bool,
    hardening: Option<Hardening>,
    integrity: bool,
    width: u32,
    id_bits: u32,
    start: SignalId,
    done: Option<SignalId>,
    id: Option<SignalId>,
    data: SignalId,
    err: Option<SignalId>,
    id_codes: Vec<(ChannelId, u64)>,
    client_procs: Vec<(ChannelId, ProcId)>,
    serve_procs: Vec<(ChannelId, ProcId)>,
    var_processes: Vec<(VarId, BehaviorId)>,
    arbiter: Option<ArbiterWiring>,
    status_flags: Vec<(ChannelId, SignalId)>,
}

impl Gen {
    fn new(pg: &ProtocolGenerator, sys: System, design: BusDesign) -> Result<Self, CoreError> {
        let protocol = design.protocol;
        let width = design.width;
        let id_bits = design.id_bits();
        Ok(Self {
            sys,
            protocol,
            bus_name: pg.bus_name.clone(),
            arbitration: pg.arbitration,
            rolled_loops: pg.rolled_loops,
            hardening: pg.hardening,
            integrity: pg.integrity,
            width,
            id_bits,
            // placeholder ids; assigned in build_bus_signals
            start: SignalId::new(0),
            done: None,
            id: None,
            data: SignalId::new(0),
            err: None,
            id_codes: Vec::new(),
            client_procs: Vec::new(),
            serve_procs: Vec::new(),
            var_processes: Vec::new(),
            arbiter: None,
            status_flags: Vec::new(),
            design,
        })
    }

    fn build_bus_signals(&mut self) {
        let b = &self.bus_name;
        self.start = self.sys.add_signal(format!("{b}_START"), Ty::Bit);
        if self.protocol == ProtocolKind::FullHandshake {
            self.done = Some(self.sys.add_signal(format!("{b}_DONE"), Ty::Bit));
        }
        if self.id_bits > 0 {
            self.id = Some(
                self.sys
                    .add_signal(format!("{b}_ID"), Ty::Bits(self.id_bits)),
            );
        }
        self.data = self
            .sys
            .add_signal(format!("{b}_DATA"), Ty::Bits(self.width));
        if self.integrity {
            // Resting-high NACK: a spuriously sampled acknowledge reads
            // as "retransmit", never as a silent accept.
            self.err = Some(self.sys.add_signal_init(
                format!("{b}_ERR"),
                Ty::Bit,
                ifsyn_spec::Value::Bit(true),
            ));
        }
        self.id_codes = self
            .design
            .channels
            .iter()
            .enumerate()
            .map(|(k, &c)| (c, k as u64))
            .collect();
    }

    fn build_arbiter(&mut self) {
        let mut clients: Vec<BehaviorId> = Vec::new();
        for &c in &self.design.channels {
            let acc = self.sys.channel(c).accessor;
            if !clients.contains(&acc) {
                clients.push(acc);
            }
        }
        let config = match self.arbitration {
            ArbitrationChoice::Off => None,
            ArbitrationChoice::Forced(a) => Some(a),
            ArbitrationChoice::Auto => (clients.len() > 1).then(Arbitration::round_robin),
        };
        if let Some(config) = config {
            let module = self.sys.behavior(clients[0]).module;
            self.arbiter = Some(arbitration::install(
                &mut self.sys,
                &self.bus_name,
                &clients,
                &config,
                module,
            ));
        }
    }

    fn build_channel_procs(&mut self) {
        for (k, &chid) in self.design.channels.clone().iter().enumerate() {
            let ch = self.sys.channel(chid).clone();
            let code = k as u64;
            let (plan, _) = WordPlan::for_refinement(&ch, self.width, self.integrity);
            let lock = self.arbiter.as_ref().and_then(|w| w.lines_of(ch.accessor));
            // Hardened transfers report unrecoverable failures through a
            // sticky per-channel status flag instead of hanging. The
            // channel name is uppercased so flag names are uniform
            // across systems regardless of source-level casing.
            let stat = (self.hardening.is_some() && self.protocol == ProtocolKind::FullHandshake)
                .then(|| {
                    let sig = self.sys.add_signal(
                        format!("{}_STAT_{}", self.bus_name, ch.name.to_uppercase()),
                        Ty::Bit,
                    );
                    self.status_flags.push((chid, sig));
                    sig
                });
            let (client, serve) = match ch.direction {
                ChannelDirection::Write => (
                    self.gen_send_proc(&ch, code, &plan, lock, stat),
                    self.gen_serve_write(&ch, &plan),
                ),
                ChannelDirection::Read => (
                    self.gen_receive_proc(&ch, code, &plan, lock, stat),
                    self.gen_serve_read(&ch, &plan),
                ),
            };
            let client_id = self.sys.add_procedure(client);
            let serve_id = self.sys.add_procedure(serve);
            self.client_procs.push((chid, client_id));
            self.serve_procs.push((chid, serve_id));
        }
    }

    /// Client-side synchronisation of one requester-driven word; the
    /// data lines must already be set up. `latch` runs while the word is
    /// acknowledged (response latches, checksum updates, ERR samples).
    /// With `harden` slots the word is timeout-hardened.
    fn client_word_sync(&self, latch: Vec<Stmt>, harden: Option<Retry>, lock: Lock) -> Vec<Stmt> {
        if let Some(retry) = harden {
            return self.hardened_client_word_sync(latch, retry, lock);
        }
        let start = self.start;
        match self.protocol {
            ProtocolKind::FullHandshake => {
                let done = self.done.expect("full handshake has DONE");
                let mut v = vec![
                    drive_cost(start, bit_const(true), 1),
                    wait_until(eq(signal(done), bit_const(true))),
                ];
                v.extend(latch);
                v.push(drive_cost(start, bit_const(false), 0));
                v.push(wait_until(eq(signal(done), bit_const(false))));
                v
            }
            ProtocolKind::HalfHandshake => {
                vec![drive_cost(start, not(signal(start)), 1)]
            }
            ProtocolKind::FixedDelay { .. } => {
                let period = self.protocol.cycles_per_word();
                let mut v = vec![
                    drive_cost(start, bit_const(true), 1),
                    drive_cost(start, bit_const(false), 0),
                    wait_cycles(u64::from(period - 1)),
                ];
                v.extend(latch);
                v
            }
            ProtocolKind::Hardwired => unreachable!("hardwired handled separately"),
        }
    }

    /// Add the `ok`/`retry` bookkeeping locals a hardened client procedure
    /// needs. Returns `(ok_slot, retry_slot, stat)` when hardening applies,
    /// `None` otherwise (then plain synchronisation is emitted).
    fn harden_slots(&self, p: &mut Procedure, stat: Option<SignalId>) -> Option<Retry> {
        let stat = stat?;
        if self.hardening.is_none() || self.protocol != ProtocolKind::FullHandshake {
            return None;
        }
        let ok_slot = p.add_local("ok", Ty::Bit);
        let retry_slot = p.add_local("retry", Ty::Int(16));
        Some((ok_slot, retry_slot, stat))
    }

    /// Timeout-hardened full-handshake word (paper Fig. 4, robust form).
    ///
    /// Every `wait until` carries a watchdog bound of `W` cycles. A word
    /// that does not complete is retried (START re-driven) through the
    /// [bounded-retry combinator](Gen::bounded_retry). In the fault-free
    /// case the emitted schedule is cycle-identical to the plain
    /// handshake (2 cycles per word), so hardening costs nothing until a
    /// fault fires. The worst-case residency of one word is bounded by
    /// `(N + 1) * (2W + 2)` cycles.
    fn hardened_client_word_sync(&self, latch: Vec<Stmt>, retry: Retry, lock: Lock) -> Vec<Stmt> {
        let h = self.hardening.expect("hardened sync requires hardening");
        let (ok_slot, retry_slot, _) = retry;
        let start = self.start;
        let done = self.done.expect("full handshake has DONE");
        let watchdog = h.watchdog.max(1);
        let mut done_hi = latch;
        done_hi.push(drive_cost(start, bit_const(false), 0));
        done_hi.push(wait_until_for(eq(signal(done), bit_const(false)), watchdog));
        done_hi.push(succeed_or_count(
            eq(signal(done), bit_const(false)),
            ok_slot,
            retry_slot,
        ));
        // The release drive costs a cycle here (unlike the fault-free
        // path) so that retries against a dead server consume time and
        // the watchdog bound stays finite.
        let done_lo = vec![drive_cost(start, bit_const(false), 1), count_up(retry_slot)];
        let attempt = vec![
            drive_cost(start, bit_const(true), 1),
            wait_until_for(eq(signal(done), bit_const(true)), watchdog),
            if_else(eq(signal(done), bit_const(true)), done_hi, done_lo),
        ];
        self.bounded_retry(retry, attempt, lock)
    }

    /// The bounded-retry combinator of word hardening and message
    /// retransmission alike: `ok := '0'; n := 0; while ok = '0' and
    /// n <= N loop <attempt> end loop; if ok = '0' then <abort> end if`,
    /// with `N` the hardening retry limit. The attempt sets `ok` or counts
    /// a failure in `n`. The abort raises the channel's sticky status
    /// flag `stat`, releases any bus lock the client holds, and returns.
    fn bounded_retry(&self, retry: Retry, attempt: Vec<Stmt>, lock: Lock) -> Vec<Stmt> {
        let (ok_slot, n_slot, stat) = retry;
        let h = self.hardening.expect("retries come from hardening");
        let mut abort = vec![drive_cost(stat, bit_const(true), 0)];
        if let Some((req, gnt)) = lock {
            abort.extend(arbitration::unlock_stmts(req, gnt));
        }
        abort.push(Stmt::Return);
        vec![
            assign_cost(local(ok_slot), bit_const(false), 0),
            assign_cost(local(n_slot), int_const(0, 16), 0),
            while_loop(
                and(
                    eq(load(local(ok_slot)), bit_const(false)),
                    le(load(local(n_slot)), int_const(i64::from(h.max_retries), 16)),
                ),
                attempt,
            ),
            if_then(eq(load(local(ok_slot)), bit_const(false)), abort),
        ]
    }

    /// Server-side word: wait for the word, run `actions` (latches and/or
    /// response drives), acknowledge.
    fn server_word_sync(&self, word_index: u32, actions: Vec<Stmt>) -> Vec<Stmt> {
        let start = self.start;
        match self.protocol {
            ProtocolKind::FullHandshake => {
                let done = self.done.expect("full handshake has DONE");
                let mut v = vec![wait_until(eq(signal(start), bit_const(true)))];
                v.extend(actions);
                v.push(drive_cost(done, bit_const(true), 1));
                v.push(wait_until(eq(signal(start), bit_const(false))));
                v.push(drive_cost(done, bit_const(false), 0));
                v
            }
            ProtocolKind::HalfHandshake => {
                // Word 0's strobe event was consumed by the dispatcher.
                let mut v = Vec::new();
                if word_index > 0 {
                    v.push(wait_on(vec![start]));
                }
                v.extend(actions);
                v
            }
            ProtocolKind::FixedDelay { .. } => {
                let mut v = vec![wait_until(eq(signal(start), bit_const(true)))];
                v.extend(actions);
                v.push(wait_until(eq(signal(start), bit_const(false))));
                v
            }
            ProtocolKind::Hardwired => unreachable!("hardwired handled separately"),
        }
    }

    /// Can this plan be emitted as one homogeneous rolled loop? Protected
    /// runs never roll: their per-word checksum salt is a constant.
    fn rollable(&self, plan: &WordPlan, dir: WordDir) -> bool {
        self.rolled_loops
            && !self.integrity
            && matches!(
                self.protocol,
                ProtocolKind::FullHandshake | ProtocolKind::FixedDelay { .. }
            )
            && plan.word_count() > 1
            && plan.message_bits().is_multiple_of(self.width)
            && plan.words.iter().all(|w| w.dir == dir)
    }

    /// `for j in 0 to n-1 loop <word> end loop` over dynamic slices.
    fn rolled_loop(&self, plan: &WordPlan, j_slot: usize, word_body: Vec<Stmt>) -> Stmt {
        for_loop(
            local(j_slot),
            int_const(0, 16),
            int_const(i64::from(plan.word_count()) - 1, 16),
            word_body,
        )
    }

    /// The message offset of word `j`: `j * width`.
    fn word_offset(&self, j_slot: usize) -> Expr {
        mul(load(local(j_slot)), int_const(i64::from(self.width), 16))
    }

    fn drive_id_stmt(&self, code: u64) -> Option<Stmt> {
        self.id
            .map(|id| drive_cost(id, bits_const(code, self.id_bits), 0))
    }

    /// `Send_ch(addr?, txdata)` — paper Fig. 4's `SendCH0`, with the word
    /// loop unrolled (widths and message sizes are static here).
    ///
    /// Under integrity the words are checksummed and followed by one
    /// check word; the server's verdict is sampled from ERR while the
    /// check word is acknowledged, and a NACK retransmits the whole
    /// message through the bounded-retry combinator.
    fn gen_send_proc(
        &self,
        ch: &Channel,
        code: u64,
        plan: &WordPlan,
        lock: Lock,
        stat: Option<SignalId>,
    ) -> Procedure {
        let a = ch.addr_bits;
        let m = ch.message_bits();
        let mut p = Procedure::new(format!("Send_{}", ch.name));
        let addr_slot = (a > 0).then(|| p.add_param("addr", Ty::Bits(a), ParamMode::In));
        let tx_slot = p.add_param("txdata", Ty::Bits(ch.data_bits), ParamMode::In);
        let msg_slot = p.add_local("msg", Ty::Bits(m));
        // The check word's (acc, nak), then the message retry.
        let layer = self.integrity.then(|| {
            let check = (
                p.add_local("acc", Ty::Bits(self.width)),
                p.add_local("nak", Ty::Bit),
            );
            let sent = p.add_local("sent", Ty::Bit);
            let mretry = p.add_local("mretry", Ty::Int(16));
            (
                check,
                (sent, mretry, stat.expect("integrity implies a status flag")),
            )
        });
        let harden = self.harden_slots(&mut p, stat);
        let msg_val = match addr_slot {
            Some(aslot) => concat(load(local(aslot)), load(local(tx_slot))),
            None => resize(load(local(tx_slot)), m),
        };
        let mut body = vec![assign_cost(local(msg_slot), msg_val, 0)];
        let mut attempt: Vec<Stmt> = self.drive_id_stmt(code).into_iter().collect();
        if self.rollable(plan, WordDir::Request) {
            // Fig. 4's form: one loop, the word selected by a dynamic
            // slice of the message buffer.
            let j_slot = p.add_local("j", Ty::Int(16));
            let mut word = vec![drive_cost(
                self.data,
                dyn_slice_of(load(local(msg_slot)), self.word_offset(j_slot), self.width),
                0,
            )];
            word.extend(self.client_word_sync(vec![], harden, lock));
            attempt.push(self.rolled_loop(plan, j_slot, word));
        } else {
            let check = layer.map(|(check, ..)| check);
            attempt.extend(self.client_request_run(msg_slot, &plan.words, check, harden, lock));
        }
        match layer {
            None => body.extend(attempt),
            Some(((_, nak), retry @ (sent, mretry, _))) => {
                let acked = eq(load(local(nak)), bit_const(false));
                attempt.push(succeed_or_count(acked, sent, mretry));
                body.extend(self.bounded_retry(retry, attempt, lock));
            }
        }
        p.body = locked(lock, body);
        p
    }

    /// A requester-driven run: each word of `run` is driven from the bits
    /// of local `src` and synchronised. Under integrity (`check` holds the
    /// `acc` and `nak` slots) the run is checksummed from a seeded `acc`
    /// and closes with its check word: the client drives `acc` and samples
    /// the server's ERR answer into `nak` while the word is acknowledged.
    fn client_request_run(
        &self,
        src: usize,
        run: &[WordSpec],
        check: Option<(usize, usize)>,
        harden: Option<Retry>,
        lock: Lock,
    ) -> Vec<Stmt> {
        let mut v = Vec::new();
        v.extend(check.map(|(acc, _)| self.acc_init(acc, run.len())));
        for w in run {
            let word = resize(slice_of(load(local(src)), w.msg_hi, w.msg_lo), self.width);
            v.push(drive_cost(self.data, word.clone(), 0));
            v.extend(check.map(|(acc, _)| self.acc_update(acc, word, w.index)));
            v.extend(self.client_word_sync(vec![], harden, lock));
        }
        if let Some((acc, nak)) = check {
            let err = self.err.expect("integrity refinement has ERR");
            v.push(drive_cost(self.data, load(local(acc)), 0));
            let sample = assign_cost(local(nak), signal(err), 0);
            v.extend(self.client_word_sync(vec![sample], harden, lock));
        }
        v
    }

    /// `Receive_ch(addr?, rxdata)` — the client side of a read channel.
    ///
    /// Under integrity the request run (if any) carries its own check
    /// word, verified by the server and answered on ERR; the response
    /// run's trailing check word is verified by the client itself. Either
    /// failure retransmits the whole message through the bounded-retry
    /// combinator.
    fn gen_receive_proc(
        &self,
        ch: &Channel,
        code: u64,
        plan: &WordPlan,
        lock: Lock,
        stat: Option<SignalId>,
    ) -> Procedure {
        let a = ch.addr_bits;
        let mut p = Procedure::new(format!("Receive_{}", ch.name));
        let addr_slot = (a > 0).then(|| p.add_param("addr", Ty::Bits(a), ParamMode::In));
        let rx_slot = p.add_param("rxdata", Ty::Bits(ch.data_bits), ParamMode::Out);
        // The request check word's (acc, nak), the response sum and check
        // word, then the message retry.
        let layer = self.integrity.then(|| {
            let acc = p.add_local("acc", Ty::Bits(self.width));
            let racc = p.add_local("racc", Ty::Bits(self.width));
            let chkw = p.add_local("chkw", Ty::Bits(self.width));
            let nak = p.add_local("nak", Ty::Bit);
            let got = p.add_local("got", Ty::Bit);
            let mretry = p.add_local("mretry", Ty::Int(16));
            (
                (acc, nak),
                racc,
                chkw,
                (got, mretry, stat.expect("integrity implies a status flag")),
            )
        });
        let harden = self.harden_slots(&mut p, stat);
        let (requests, rest) = plan.words.split_at(request_run_len(plan));
        let mut attempt: Vec<Stmt> = self.drive_id_stmt(code).into_iter().collect();
        if let Some(((_, nak), ..)) = layer {
            attempt.push(assign_cost(local(nak), bit_const(false), 0));
        }
        if !requests.is_empty() {
            let aslot = addr_slot.expect("request words imply an address");
            let check = layer.map(|(check, ..)| check);
            attempt.extend(self.client_request_run(aslot, requests, check, harden, lock));
        }
        let racc = layer.map(|(_, racc, ..)| racc);
        let mut response: Vec<Stmt> = racc
            .map(|r| self.acc_init(r, rest.len()))
            .into_iter()
            .collect();
        for w in rest {
            let latch = if w.dir == WordDir::Mixed {
                let aslot = addr_slot.expect("mixed words imply an address");
                response.push(drive_cost(
                    self.data,
                    resize(slice_of(load(local(aslot)), a - 1, w.msg_lo), self.width),
                    0,
                ));
                vec![Stmt::Assign {
                    place: slice(local(rx_slot), w.msg_hi - a, 0),
                    value: slice_of(signal(self.data), w.msg_hi - w.msg_lo, a - w.msg_lo),
                    cost: Some(0),
                }]
            } else {
                let received = slice_of(signal(self.data), w.msg_hi - w.msg_lo, 0);
                let mut latch = vec![Stmt::Assign {
                    place: slice(local(rx_slot), w.msg_hi - a, w.msg_lo - a),
                    value: received.clone(),
                    cost: Some(0),
                }];
                let word = resize(received, self.width);
                latch.extend(racc.map(|racc| self.acc_update(racc, word, w.index)));
                latch
            };
            response.extend(self.client_word_sync(latch, harden, lock));
        }
        let body = match layer {
            None => {
                attempt.extend(response);
                attempt
            }
            Some(((_, nak), racc, chkw, retry @ (got, mretry, _))) => {
                let latch_chk = assign_cost(local(chkw), signal(self.data), 0);
                response.extend(self.client_word_sync(vec![latch_chk], harden, lock));
                let verified = eq(load(local(chkw)), load(local(racc)));
                response.push(succeed_or_count(verified, got, mretry));
                attempt.push(if_else(
                    eq(load(local(nak)), bit_const(false)),
                    response,
                    vec![count_up(mretry)],
                ));
                self.bounded_retry(retry, attempt, lock)
            }
        };
        p.body = locked(lock, body);
        p
    }

    /// `Serve_ch` for a write channel: receive all words, commit to the
    /// variable. Under integrity the words form a verified run, so only
    /// a verified message commits; the verify loop doubles as the
    /// resynchronisation mechanism, since after a duplicated or dropped
    /// word the next client attempt lands back on word 0 of a fresh run.
    fn gen_serve_write(&self, ch: &Channel, plan: &WordPlan) -> Procedure {
        let mut p = Procedure::new(format!("Serve_{}", ch.name));
        let msg_slot = p.add_local("msg", Ty::Bits(ch.message_bits()));
        let acc = self
            .integrity
            .then(|| p.add_local("acc", Ty::Bits(self.width)));
        let mut body = if self.rollable(plan, WordDir::Request) {
            let j_slot = p.add_local("j", Ty::Int(16));
            let latch = Stmt::Assign {
                place: dyn_slice(local(msg_slot), self.word_offset(j_slot), self.width),
                value: slice_of(signal(self.data), self.width - 1, 0),
                cost: Some(0),
            };
            // Every word of a homogeneous write plan synchronises the
            // same way (word index 1 avoids half-handshake's special
            // word 0, which `rollable` already excludes).
            let word = self.server_word_sync(1, vec![latch]);
            vec![self.rolled_loop(plan, j_slot, word)]
        } else {
            let addr = slice_of(load(local(msg_slot)), ch.addr_bits.max(1) - 1, 0);
            self.server_request_run(&mut p, ch, msg_slot, &plan.words, acc, addr)
        };
        body.push(commit_stmt(ch, load(local(msg_slot))));
        p.body = body;
        p
    }

    /// The server side of a request run: each word of `run` is latched
    /// into the bits of local `dst`.
    ///
    /// Under integrity (`acc` given, `run` not empty) this is the
    /// *verified run*: the words are summed into a seeded `acc`, the
    /// check word is compared with the sum and `addr` with the served
    /// array's bound, ERR answers the verdict while the check word is
    /// acknowledged and then returns to its resting NACK, and the run
    /// repeats until it verifies.
    fn server_request_run(
        &self,
        p: &mut Procedure,
        ch: &Channel,
        dst: usize,
        run: &[WordSpec],
        acc: Option<usize>,
        addr: Expr,
    ) -> Vec<Stmt> {
        let mut words = Vec::new();
        for w in run {
            let received = slice_of(signal(self.data), w.msg_hi - w.msg_lo, 0);
            let mut actions = vec![Stmt::Assign {
                place: slice(local(dst), w.msg_hi, w.msg_lo),
                value: received.clone(),
                cost: Some(0),
            }];
            let word = resize(received, self.width);
            actions.extend(acc.map(|acc| self.acc_update(acc, word, w.index)));
            words.extend(self.server_word_sync(w.index, actions));
        }
        let Some(acc) = acc.filter(|_| !run.is_empty()) else {
            return words;
        };
        let err = self.err.expect("integrity refinement has ERR");
        let chk_slot = p.add_local("chk", Ty::Bits(self.width));
        let good_slot = p.add_local("good", Ty::Bit);
        let mut ok = eq(load(local(chk_slot)), load(local(acc)));
        // A false-accepted (or merely corrupt) address must read as a
        // NACK, never reach an array index: the client retransmits or
        // aborts with its flag, and the server stays inside its storage.
        if let (Ty::Array { len, .. }, true) =
            (&self.sys.variable(ch.variable).ty, ch.addr_bits > 0)
        {
            ok = and(ok, lt(addr, int_const(i64::from(*len), 32)));
        }
        let verify = vec![
            assign_cost(local(chk_slot), signal(self.data), 0),
            if_else(
                ok,
                vec![
                    assign_cost(local(good_slot), bit_const(true), 0),
                    drive_cost(err, bit_const(false), 0),
                ],
                vec![drive_cost(err, bit_const(true), 0)],
            ),
        ];
        let mut round = vec![self.acc_init(acc, run.len())];
        round.extend(words);
        round.extend(self.server_word_sync(run.len() as u32, verify));
        // Restore the resting NACK level once the check word completes.
        round.push(drive_cost(err, bit_const(true), 0));
        vec![
            assign_cost(local(good_slot), bit_const(false), 0),
            while_loop(eq(load(local(good_slot)), bit_const(false)), round),
        ]
    }

    /// `Serve_ch` for a read channel: receive the address, fetch, answer.
    /// The fetch follows the request run unless a mixed turnaround word
    /// fetches inside its own handshake.
    ///
    /// Under integrity the request run is a verified run, so a corrupted
    /// address never produces an internally consistent response; the
    /// response words are summed and followed by their own check word
    /// for the client to verify.
    fn gen_serve_read(&self, ch: &Channel, plan: &WordPlan) -> Procedure {
        let a = ch.addr_bits;
        let mut p = Procedure::new(format!("Serve_{}", ch.name));
        let addr_slot = (a > 0).then(|| p.add_local("addrbuf", Ty::Bits(a)));
        let data_slot = p.add_local("data", Ty::Bits(ch.data_bits));
        let acc = self
            .integrity
            .then(|| p.add_local("acc", Ty::Bits(self.width)));
        let fetch = {
            let value = match addr_slot {
                Some(aslot) => load(index(var(ch.variable), load(local(aslot)))),
                None => load(var(ch.variable)),
            };
            assign_cost(local(data_slot), value, 0)
        };
        let (requests, rest) = plan.words.split_at(request_run_len(plan));
        let mut body = match addr_slot {
            Some(aslot) => {
                self.server_request_run(&mut p, ch, aslot, requests, acc, load(local(aslot)))
            }
            None => Vec::new(),
        };
        if rest.iter().all(|w| w.dir != WordDir::Mixed) {
            body.push(fetch.clone());
        }
        body.extend(acc.map(|acc| self.acc_init(acc, rest.len())));
        for w in rest {
            let actions = if w.dir == WordDir::Mixed {
                let aslot = addr_slot.expect("mixed words imply an address");
                let latch_addr = Stmt::Assign {
                    place: slice(local(aslot), a - 1, w.msg_lo),
                    value: slice_of(signal(self.data), a - 1 - w.msg_lo, 0),
                    cost: Some(0),
                };
                // Data part sits at word positions a-lo .. hi-lo:
                // pad the low (address) positions with zeros.
                let respond_value = if a - w.msg_lo > 0 {
                    resize(
                        concat(
                            bits_const(0, a - w.msg_lo),
                            slice_of(load(local(data_slot)), w.msg_hi - a, 0),
                        ),
                        self.width,
                    )
                } else {
                    resize(
                        slice_of(load(local(data_slot)), w.msg_hi - a, 0),
                        self.width,
                    )
                };
                vec![
                    latch_addr,
                    fetch.clone(),
                    drive_cost(self.data, respond_value, 0),
                ]
            } else {
                let word = resize(
                    slice_of(load(local(data_slot)), w.msg_hi - a, w.msg_lo - a),
                    self.width,
                );
                let mut actions = vec![drive_cost(self.data, word.clone(), 0)];
                actions.extend(acc.map(|acc| self.acc_update(acc, word, w.index)));
                actions
            };
            body.extend(self.server_word_sync(w.index, actions));
        }
        if let Some(acc) = acc {
            let check = drive_cost(self.data, load(local(acc)), 0);
            body.extend(self.server_word_sync(plan.word_count(), vec![check]));
        }
        p.body = body;
        p
    }

    /// Salt for word `j` of a protected run: the nonzero position weight
    /// `j + 1` multiplied into the rolling checksum so duplicated,
    /// swapped, or stream-shifted words change the sum even when the
    /// payload repeats.
    fn salt(&self, j: u32) -> Expr {
        bits_const(u64::from(j) + 1, self.width)
    }

    /// Seeds a protected run's checksum with the run's word count.
    ///
    /// A zero seed makes a single-word run's check word equal the word
    /// itself (`word * 1`), so a duplicated word — exactly the shape a
    /// stuck DONE's word retry produces — self-verifies as `(X, X)`.
    /// The nonzero length seed breaks that fixpoint and ties the sum to
    /// the run shape both sides expect.
    fn acc_init(&self, acc_slot: usize, run_words: usize) -> Stmt {
        assign_cost(local(acc_slot), bits_const(run_words as u64, self.width), 0)
    }

    /// `acc := acc + word * salt_j` — one rolling-checksum step,
    /// truncated to the data width on assignment.
    ///
    /// The position weight makes the sum order-sensitive. A salted XOR
    /// (`acc xor word xor salt_j`) is not: XOR commutes and the salt set
    /// is unchanged under permutation, so a retry-desynced word stream
    /// containing the same values in the wrong slots verifies cleanly —
    /// the model checker exhibited exactly that false accept committing
    /// a corrupt address under a stuck-at-0 DONE.
    fn acc_update(&self, acc_slot: usize, word: Expr, j: u32) -> Stmt {
        assign_cost(
            local(acc_slot),
            add(load(local(acc_slot)), mul(word, self.salt(j))),
            0,
        )
    }

    /// Step 5: one variable process per served variable, dispatching on
    /// the ID lines (paper Fig. 5's `Xproc` / `MEMproc`).
    fn build_variable_processes(&mut self) {
        // Group channels by variable, preserving design order.
        let mut vars: Vec<VarId> = Vec::new();
        for &c in &self.design.channels {
            let v = self.sys.channel(c).variable;
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        for v in vars {
            let vchans: Vec<(ChannelId, u64, ProcId)> = self
                .design
                .channels
                .iter()
                .enumerate()
                .filter(|&(_, &c)| self.sys.channel(c).variable == v)
                .map(|(k, &c)| (c, k as u64, self.serve_proc_of(c)))
                .collect();
            let owner = self.sys.variable(v).owner;
            let module = self.sys.behavior(owner).module;
            let vname = self.sys.variable(v).name.clone();
            // A variable can be served by several buses (e.g. written
            // over one and read over another): disambiguate the server
            // name with the bus when `<var>proc` is already taken.
            let name = if self.sys.behavior_by_name(&format!("{vname}proc")).is_none() {
                format!("{vname}proc")
            } else {
                format!("{vname}proc_{}", self.bus_name)
            };
            let beh = self.sys.add_behavior(name, module);
            self.sys.behavior_mut(beh).repeats = true;

            let head = match self.protocol {
                ProtocolKind::HalfHandshake => wait_on(vec![self.start]),
                _ => wait_until(eq(signal(self.start), bit_const(true))),
            };
            let dispatch = match self.id {
                None => {
                    // Single channel on the bus: no ID decode needed.
                    let (_, _, serve) = vchans[0];
                    call(serve, vec![])
                }
                Some(id_sig) => {
                    // Foreign transaction: skip this word.
                    let foreign: Vec<Stmt> = match self.protocol {
                        ProtocolKind::HalfHandshake => Vec::new(),
                        _ => vec![wait_until(eq(signal(self.start), bit_const(false)))],
                    };
                    let mut stmt: Option<Stmt> = None;
                    for &(_, code, serve) in vchans.iter().rev() {
                        let cond = eq(signal(id_sig), bits_const(code, self.id_bits));
                        let branch = vec![call(serve, vec![])];
                        stmt = Some(match stmt {
                            None => if_else(cond, branch, foreign.clone()),
                            Some(tail) => if_else(cond, branch, vec![tail]),
                        });
                    }
                    stmt.expect("variable has at least one channel")
                }
            };
            self.sys.behavior_mut(beh).body = vec![head, dispatch];
            self.var_processes.push((v, beh));
        }
    }

    fn serve_proc_of(&self, ch: ChannelId) -> ProcId {
        self.serve_procs
            .iter()
            .find(|(c, _)| *c == ch)
            .map(|(_, p)| *p)
            .expect("serve proc generated before variable processes")
    }

    /// Step 4: replace abstract channel operations with procedure calls.
    fn rewrite_clients(&mut self) {
        let map: HashMap<ChannelId, ProcId> = self.client_procs.iter().copied().collect();
        rewrite_channel_ops(&mut self.sys, &map);
    }

    fn finish(self) -> Result<RefinedSystem, CoreError> {
        self.sys.check().map_err(|e| CoreError::Refinement {
            message: e.to_string(),
        })?;
        let structure = BusStructure {
            name: self.bus_name,
            design: self.design,
            start: Some(self.start),
            done: self.done,
            id: self.id,
            data: Some(self.data),
            err: self.err,
            id_codes: self.id_codes,
            client_procs: self.client_procs,
            serve_procs: self.serve_procs,
            var_processes: self.var_processes,
            arbiter: self.arbiter,
            dedicated_data: Vec::new(),
            status_flags: self.status_flags,
        };
        Ok(RefinedSystem {
            system: self.sys,
            bus: structure,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 3 style: P writes scalar X over ch0 and reads it over ch1;
    /// Q writes MEM\[60\] over ch3.
    fn fig3ish() -> (System, Vec<ChannelId>) {
        let mut sys = System::new("fig3");
        let left = sys.add_module("left");
        let right = sys.add_module("right");
        let p = sys.add_behavior("P", left);
        let q = sys.add_behavior("Q", left);
        let store = sys.add_behavior("store", right);
        let x = sys.add_variable("X", Ty::Bits(16), store);
        let mem = sys.add_variable("MEM", Ty::array(Ty::Bits(16), 64), store);
        let xtemp = sys.add_variable("Xtemp", Ty::Bits(16), p);
        let count =
            sys.add_variable_init("COUNT", Ty::Int(16), q, ifsyn_spec::Value::int(1234, 16));
        let ch0 = sys.add_channel(Channel {
            name: "CH0".into(),
            accessor: p,
            variable: x,
            direction: ChannelDirection::Write,
            data_bits: 16,
            addr_bits: 0,
            accesses: 1,
        });
        let ch1 = sys.add_channel(Channel {
            name: "CH1".into(),
            accessor: p,
            variable: x,
            direction: ChannelDirection::Read,
            data_bits: 16,
            addr_bits: 0,
            accesses: 1,
        });
        let ch3 = sys.add_channel(Channel {
            name: "CH3".into(),
            accessor: q,
            variable: mem,
            direction: ChannelDirection::Write,
            data_bits: 16,
            addr_bits: 6,
            accesses: 1,
        });
        sys.behavior_mut(p).body = vec![send(ch0, int_const(32, 16)), receive(ch1, var(xtemp))];
        sys.behavior_mut(q).body = vec![send_at(ch3, int_const(60, 16), load(var(count)))];
        (sys, vec![ch0, ch1, ch3])
    }

    fn design_for(_sys: &System, chans: &[ChannelId], width: u32) -> BusDesign {
        BusDesign::with_width(chans.to_vec(), width, ProtocolKind::FullHandshake)
    }

    #[test]
    fn refined_system_validates() {
        let (sys, chans) = fig3ish();
        let design = design_for(&sys, &chans, 8);
        let refined = ProtocolGenerator::new().refine(&sys, &design).unwrap();
        assert!(refined.system.check().is_ok());
    }

    #[test]
    fn bus_wires_exist_with_expected_types() {
        let (sys, chans) = fig3ish();
        let design = design_for(&sys, &chans, 8);
        let refined = ProtocolGenerator::new().refine(&sys, &design).unwrap();
        let s = &refined.system;
        let bus = &refined.bus;
        assert_eq!(s.signal(bus.start.unwrap()).ty, Ty::Bit);
        assert_eq!(s.signal(bus.done.unwrap()).ty, Ty::Bit);
        // 3 channels -> 2 ID bits.
        assert_eq!(s.signal(bus.id.unwrap()).ty, Ty::Bits(2));
        assert_eq!(s.signal(bus.data.unwrap()).ty, Ty::Bits(8));
    }

    #[test]
    fn id_codes_are_unique_and_dense() {
        let (sys, chans) = fig3ish();
        let design = design_for(&sys, &chans, 8);
        let refined = ProtocolGenerator::new().refine(&sys, &design).unwrap();
        let codes: Vec<u64> = refined.bus.id_codes.iter().map(|&(_, c)| c).collect();
        assert_eq!(codes, vec![0, 1, 2]);
    }

    #[test]
    fn channel_ops_are_rewritten_into_calls() {
        let (sys, chans) = fig3ish();
        let design = design_for(&sys, &chans, 8);
        let refined = ProtocolGenerator::new().refine(&sys, &design).unwrap();
        for b in &refined.system.behaviors {
            let remaining = ifsyn_spec::visit::count_stmts(&b.body, |s| {
                matches!(s, Stmt::ChannelSend { .. } | Stmt::ChannelReceive { .. })
            });
            assert_eq!(remaining, 0, "behavior `{}` kept channel ops", b.name);
        }
        let p = refined.system.behavior_by_name("P").unwrap();
        let calls = ifsyn_spec::visit::count_stmts(&refined.system.behavior(p).body, |s| {
            matches!(s, Stmt::Call { .. })
        });
        assert_eq!(calls, 2);
    }

    #[test]
    fn variable_processes_are_created_per_variable() {
        let (sys, chans) = fig3ish();
        let design = design_for(&sys, &chans, 8);
        let refined = ProtocolGenerator::new().refine(&sys, &design).unwrap();
        // X and MEM each get one server process.
        assert_eq!(refined.bus.var_processes.len(), 2);
        assert!(refined.system.behavior_by_name("Xproc").is_some());
        assert!(refined.system.behavior_by_name("MEMproc").is_some());
        for &(_, beh) in &refined.bus.var_processes {
            assert!(refined.system.behavior(beh).repeats);
        }
    }

    #[test]
    fn auto_arbitration_installs_for_two_initiators() {
        let (sys, chans) = fig3ish();
        let design = design_for(&sys, &chans, 8);
        let refined = ProtocolGenerator::new().refine(&sys, &design).unwrap();
        let arb = refined.bus.arbiter.as_ref().expect("P and Q both initiate");
        assert_eq!(arb.clients.len(), 2);
        assert!(refined.system.behavior_by_name("B_arbiter").is_some());
    }

    #[test]
    fn without_arbitration_omits_arbiter() {
        let (sys, chans) = fig3ish();
        let design = design_for(&sys, &chans, 8);
        let refined = ProtocolGenerator::new()
            .without_arbitration()
            .refine(&sys, &design)
            .unwrap();
        assert!(refined.bus.arbiter.is_none());
        assert!(refined.system.behavior_by_name("B_arbiter").is_none());
    }

    #[test]
    fn zero_width_design_is_rejected() {
        let (sys, chans) = fig3ish();
        let mut design = design_for(&sys, &chans, 8);
        design.width = 0;
        let err = ProtocolGenerator::new().refine(&sys, &design).unwrap_err();
        assert!(matches!(err, CoreError::InvalidDesign { .. }), "{err}");
        assert!(err.to_string().contains("width"), "{err}");
    }

    #[test]
    fn zero_bit_channel_is_rejected() {
        let (mut sys, mut chans) = fig3ish();
        let p = sys.behavior_by_name("P").unwrap();
        let x = sys.variable_by_name("X").unwrap();
        chans.push(sys.add_channel(Channel {
            name: "EMPTY".into(),
            accessor: p,
            variable: x,
            direction: ChannelDirection::Write,
            data_bits: 0,
            addr_bits: 0,
            accesses: 1,
        }));
        let design = design_for(&sys, &chans, 8);
        let err = ProtocolGenerator::new().refine(&sys, &design).unwrap_err();
        assert!(matches!(err, CoreError::InvalidDesign { .. }), "{err}");
        assert!(err.to_string().contains("EMPTY"), "{err}");
    }

    #[test]
    fn half_handshake_rejects_read_channels() {
        let (sys, chans) = fig3ish();
        let mut design = design_for(&sys, &chans, 8);
        design.protocol = ProtocolKind::HalfHandshake;
        let err = ProtocolGenerator::new().refine(&sys, &design).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedProtocol { .. }));
    }

    #[test]
    fn direction_mismatch_is_detected() {
        let (mut sys, chans) = fig3ish();
        // Abuse: receive on a write channel.
        let p = sys.behavior_by_name("P").unwrap();
        let xtemp = sys.variable_by_name("Xtemp").unwrap();
        sys.behavior_mut(p).body.push(receive(chans[0], var(xtemp)));
        let design = design_for(&sys, &chans, 8);
        let err = ProtocolGenerator::new().refine(&sys, &design).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedProtocol { .. }));
    }

    #[test]
    fn single_channel_bus_has_no_id_lines() {
        let (sys, chans) = fig3ish();
        let design = design_for(&sys, &[chans[0]], 8);
        let refined = ProtocolGenerator::new().refine(&sys, &design).unwrap();
        assert!(refined.bus.id.is_none());
        assert_eq!(refined.bus.design.id_bits(), 0);
    }

    #[test]
    fn send_proc_word_count_matches_plan() {
        let (sys, chans) = fig3ish();
        let design = design_for(&sys, &chans, 8);
        let refined = ProtocolGenerator::new().refine(&sys, &design).unwrap();
        // CH3: 22-bit message on 8-bit bus -> 3 words -> 3 START rises
        // in the send procedure.
        let proc_id = refined.bus.client_proc(chans[2]).unwrap();
        let body = &refined.system.procedure(proc_id).body;
        let rises = ifsyn_spec::visit::count_stmts(body, |s| {
            matches!(
                s,
                Stmt::SignalAssign { signal, value, .. }
                if *signal == refined.bus.start.unwrap()
                    && *value == bit_const(true)
            )
        });
        assert_eq!(rises, 3);
    }

    #[test]
    fn hardwired_single_write_channel() {
        let (sys, chans) = fig3ish();
        let mut design = design_for(&sys, &[chans[0]], 16);
        design.protocol = ProtocolKind::Hardwired;
        let refined = ProtocolGenerator::new().refine(&sys, &design).unwrap();
        assert_eq!(refined.bus.dedicated_data.len(), 1);
        assert!(refined.system.check().is_ok());
    }

    #[test]
    fn refining_twice_with_one_bus_name_is_rejected() {
        // The duplicate B_START declaration is caught by validation —
        // multi-bus systems must use refine_all (distinct names).
        let (sys, chans) = fig3ish();
        let d1 = design_for(&sys, &[chans[0]], 8);
        let d2 = design_for(&sys, &[chans[2]], 8);
        let once = ProtocolGenerator::new().refine(&sys, &d1).unwrap();
        let err = ProtocolGenerator::new()
            .refine(&once.system, &d2)
            .unwrap_err();
        assert!(matches!(err, CoreError::Refinement { .. }), "{err}");
        // With distinct bus names it works.
        let refined = ProtocolGenerator::new()
            .refine_all(&sys, &[d1, d2])
            .unwrap();
        assert_eq!(refined.buses.len(), 2);
        assert!(refined.system.check().is_ok());
    }

    #[test]
    fn hardwired_rejects_read_channels() {
        let (sys, chans) = fig3ish();
        let mut design = design_for(&sys, &[chans[1]], 16);
        design.protocol = ProtocolKind::Hardwired;
        let err = ProtocolGenerator::new().refine(&sys, &design).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedProtocol { .. }));
    }
}
