//! The Matsushita fuzzy logic controller (paper Fig. 6), the evaluation's
//! main case study.
//!
//! Two inputs (temperature, humidity), four rules. System partitioning
//! placed the memories on a second chip:
//!
//! * chip 1: `INITIALIZE`, `EVAL_R0..R3`, `CONV_R0..R3`,
//!   `CONVERT_FACTS`, `CONVERT_CTRL`, `CENTROID`;
//! * chip 2: `InitMemberFunct : array(1919 downto 0) of integer`,
//!   `trru0..trru3 : array(127 downto 0) of integer`,
//!   `rule1, rule3 : array(2 downto 0) of integer`.
//!
//! The evaluation's bus `B` carries exactly two channels:
//!
//! * `ch1` — `EVAL_R3` **writing** `trru0` (128 messages of 16 data +
//!   7 address bits);
//! * `ch2` — `CONV_R2` **reading** `trru2` (likewise 23-bit messages).
//!
//! Total dedicated wires 46 — the Fig. 8 baseline. `INITIALIZE`'s bulk
//! store into `InitMemberFunct` is also cross-chip but rides its own bus
//! (`ch0` here), as in the paper where only ch1/ch2 are merged onto `B`.

use ifsyn_spec::dsl::*;
use ifsyn_spec::{BehaviorId, Channel, ChannelDirection, ChannelId, Stmt, System, Ty, VarId};

/// Per-iteration computation cycles of `EVAL_R3` (rule evaluation).
pub const EVAL_COMPUTE_CYCLES: u64 = 6;
/// Per-iteration computation cycles of `CONV_R2` (convolution step).
pub const CONV_COMPUTE_CYCLES: u64 = 4;
/// Messages each of ch1/ch2 carries (the 128-entry truth arrays).
pub const FLC_ACCESSES: u64 = 128;

/// Handles into the FLC system.
#[derive(Debug, Clone)]
pub struct Flc {
    /// The partitioned system.
    pub system: System,
    /// `ch1`: `EVAL_R3` writes `trru0`.
    pub ch1: ChannelId,
    /// `ch2`: `CONV_R2` reads `trru2`.
    pub ch2: ChannelId,
    /// `ch0`: `INITIALIZE` writes `InitMemberFunct` (separate bus).
    pub ch0: ChannelId,
    /// The `EVAL_R3` process.
    pub eval_r3: BehaviorId,
    /// The `CONV_R2` process.
    pub conv_r2: BehaviorId,
    /// The `trru0` memory (written over ch1).
    pub trru0: VarId,
    /// The `trru2` memory (read over ch2).
    pub trru2: VarId,
    /// `CONV_R2`'s local output accumulator (holds the readback sum).
    pub conv_acc: VarId,
}

impl Flc {
    /// The channel group merged onto bus `B` in the paper.
    pub fn bus_channels(&self) -> Vec<ChannelId> {
        vec![self.ch1, self.ch2]
    }

    /// Total dedicated wires of the bus-`B` channels (the Fig. 8
    /// baseline): 2 × (16 + 7) = 46.
    pub fn dedicated_wires(&self) -> u32 {
        self.system.channel(self.ch1).dedicated_wires()
            + self.system.channel(self.ch2).dedicated_wires()
    }
}

/// Builds the FLC.
pub fn flc() -> Flc {
    let mut sys = System::new("fuzzy_logic_controller");
    let chip1 = sys.add_module("chip1");
    let chip2 = sys.add_module("chip2");

    // Chip 1 processes.
    let initialize = sys.add_behavior("INITIALIZE", chip1);
    let eval_r0 = sys.add_behavior("EVAL_R0", chip1);
    let eval_r1 = sys.add_behavior("EVAL_R1", chip1);
    let eval_r2 = sys.add_behavior("EVAL_R2", chip1);
    let eval_r3 = sys.add_behavior("EVAL_R3", chip1);
    let conv_r0 = sys.add_behavior("CONV_R0", chip1);
    let conv_r1 = sys.add_behavior("CONV_R1", chip1);
    let conv_r2 = sys.add_behavior("CONV_R2", chip1);
    let conv_r3 = sys.add_behavior("CONV_R3", chip1);
    let convert_facts = sys.add_behavior("CONVERT_FACTS", chip1);
    let convert_ctrl = sys.add_behavior("CONVERT_CTRL", chip1);
    let centroid = sys.add_behavior("CENTROID", chip1);

    // Chip 2 memories (hosted by a store behavior).
    let store = sys.add_behavior("chip2_store", chip2);
    let init_member_funct =
        sys.add_variable("InitMemberFunct", Ty::array(Ty::Int(16), 1920), store);
    let trru0 = sys.add_variable("trru0", Ty::array(Ty::Int(16), 128), store);
    let _trru1 = sys.add_variable("trru1", Ty::array(Ty::Int(16), 128), store);
    let trru2 = sys.add_variable_init("trru2", Ty::array(Ty::Int(16), 128), store, ramp_array(128));
    let _trru3 = sys.add_variable("trru3", Ty::array(Ty::Int(16), 128), store);
    let _rule1 = sys.add_variable("rule1", Ty::array(Ty::Int(16), 3), store);
    let _rule3 = sys.add_variable("rule3", Ty::array(Ty::Int(16), 3), store);

    // The evaluation's channels.
    let ch0 = sys.add_channel(Channel {
        name: "ch0".into(),
        accessor: initialize,
        variable: init_member_funct,
        direction: ChannelDirection::Write,
        data_bits: 16,
        addr_bits: 11,
        accesses: 1920,
    });
    let ch1 = sys.add_channel(Channel {
        name: "ch1".into(),
        accessor: eval_r3,
        variable: trru0,
        direction: ChannelDirection::Write,
        data_bits: 16,
        addr_bits: 7,
        accesses: FLC_ACCESSES,
    });
    let ch2 = sys.add_channel(Channel {
        name: "ch2".into(),
        accessor: conv_r2,
        variable: trru2,
        direction: ChannelDirection::Read,
        data_bits: 16,
        addr_bits: 7,
        accesses: FLC_ACCESSES,
    });

    // INITIALIZE: bulk-store the membership functions (own bus).
    let ii = sys.add_variable("init_i", Ty::Int(16), initialize);
    sys.behavior_mut(initialize).body = vec![for_loop(
        var(ii),
        int_const(0, 16),
        int_const(1919, 16),
        vec![send_at(ch0, load(var(ii)), load(var(ii)))],
    )];

    // EVAL_R3: evaluate rule 3 over the input universe, writing the
    // truth values to trru0 (the paper's ch1).
    let ei = sys.add_variable("eval_i", Ty::Int(16), eval_r3);
    let etmp = sys.add_variable("eval_t", Ty::Int(16), eval_r3);
    sys.behavior_mut(eval_r3).body = vec![for_loop(
        var(ei),
        int_const(0, 16),
        int_const(FLC_ACCESSES as i64 - 1, 16),
        vec![
            Stmt::compute(EVAL_COMPUTE_CYCLES, "evaluate rule 3 membership"),
            // Truth value: a simple deterministic function of i so the
            // memory contents are checkable after simulation.
            assign_cost(
                var(etmp),
                add(mul(load(var(ei)), int_const(3, 16)), int_const(1, 16)),
                0,
            ),
            send_at(ch1, load(var(ei)), load(var(etmp))),
        ],
    )];

    // CONV_R2: read truth values of rule 2 back and convolve (the
    // paper's ch2). Accumulates a checksum for verification.
    let ci = sys.add_variable("conv_i", Ty::Int(16), conv_r2);
    let ctmp = sys.add_variable("conv_t", Ty::Int(16), conv_r2);
    let conv_acc = sys.add_variable("conv_acc", Ty::Int(32), conv_r2);
    sys.behavior_mut(conv_r2).body = vec![for_loop(
        var(ci),
        int_const(0, 16),
        int_const(FLC_ACCESSES as i64 - 1, 16),
        vec![
            receive_at(ch2, load(var(ci)), var(ctmp)),
            Stmt::compute(CONV_COMPUTE_CYCLES, "convolve rule 2"),
            assign_cost(var(conv_acc), add(load(var(conv_acc)), load(var(ctmp))), 0),
        ],
    )];

    // The remaining processes compute locally (their memory traffic is
    // not part of the evaluation's bus B).
    for (b, cycles, note) in [
        (eval_r0, 700u64, "evaluate rule 0"),
        (eval_r1, 700, "evaluate rule 1"),
        (eval_r2, 700, "evaluate rule 2"),
        (conv_r0, 500, "convolve rule 0"),
        (conv_r1, 500, "convolve rule 1"),
        (conv_r3, 500, "convolve rule 3"),
        (convert_facts, 200, "convert input facts"),
        (convert_ctrl, 200, "convert control output"),
        (centroid, 300, "defuzzify (centroid)"),
    ] {
        sys.behavior_mut(b).body = vec![Stmt::compute(cycles, note)];
    }

    Flc {
        system: sys,
        ch1,
        ch2,
        ch0,
        eval_r3,
        conv_r2,
        trru0,
        trru2,
        conv_acc,
    }
}

/// Handles into the full FLC variant (all four rule pipelines wired).
#[derive(Debug, Clone)]
pub struct FlcFull {
    /// The partitioned system.
    pub system: System,
    /// `EVAL_Rk` writes `trru_k`: four write channels.
    pub eval_channels: Vec<ChannelId>,
    /// `CONV_Rk` reads `trru_k`: four read channels.
    pub conv_channels: Vec<ChannelId>,
    /// The four EVAL behaviors.
    pub evals: Vec<BehaviorId>,
    /// The four CONV behaviors.
    pub convs: Vec<BehaviorId>,
    /// The four truth-value memories.
    pub trrus: Vec<VarId>,
    /// Per-CONV checksum accumulators.
    pub accs: Vec<VarId>,
}

impl FlcFull {
    /// All eight channels: the write channels, then the read channels.
    pub fn all_channels(&self) -> Vec<ChannelId> {
        self.eval_channels
            .iter()
            .chain(&self.conv_channels)
            .copied()
            .collect()
    }
}

/// Builds the full FLC: every `EVAL_Rk` streams 128 truth values into
/// `trru_k` and every `CONV_Rk` reads them back — eight cross-chip
/// channels, a workload rich enough to *require* bus splitting (a
/// single bus cannot satisfy Eq. 1 for all eight).
pub fn flc_full() -> FlcFull {
    let mut sys = System::new("fuzzy_logic_controller_full");
    let chip1 = sys.add_module("chip1");
    let chip2 = sys.add_module("chip2");
    let store = sys.add_behavior("chip2_store", chip2);

    let mut eval_channels = Vec::new();
    let mut conv_channels = Vec::new();
    let mut evals = Vec::new();
    let mut convs = Vec::new();
    let mut trrus = Vec::new();
    let mut accs = Vec::new();
    for k in 0..4i64 {
        let trru = sys.add_variable(format!("trru{k}"), Ty::array(Ty::Int(16), 128), store);
        let eval = sys.add_behavior(format!("EVAL_R{k}"), chip1);
        let conv = sys.add_behavior(format!("CONV_R{k}"), chip1);
        let ch_w = sys.add_channel(Channel {
            name: format!("eval_ch{k}"),
            accessor: eval,
            variable: trru,
            direction: ChannelDirection::Write,
            data_bits: 16,
            addr_bits: 7,
            accesses: FLC_ACCESSES,
        });
        let ch_r = sys.add_channel(Channel {
            name: format!("conv_ch{k}"),
            accessor: conv,
            variable: trru,
            direction: ChannelDirection::Read,
            data_bits: 16,
            addr_bits: 7,
            accesses: FLC_ACCESSES,
        });
        let ei = sys.add_variable(format!("eval_i{k}"), Ty::Int(16), eval);
        sys.behavior_mut(eval).body = vec![for_loop(
            var(ei),
            int_const(0, 16),
            int_const(FLC_ACCESSES as i64 - 1, 16),
            vec![
                Stmt::compute(EVAL_COMPUTE_CYCLES, "evaluate rule"),
                send_at(
                    ch_w,
                    load(var(ei)),
                    add(mul(load(var(ei)), int_const(k + 1, 16)), int_const(k, 16)),
                ),
            ],
        )];
        let ci = sys.add_variable(format!("conv_i{k}"), Ty::Int(16), conv);
        let ct = sys.add_variable(format!("conv_t{k}"), Ty::Int(16), conv);
        let acc = sys.add_variable(format!("conv_acc{k}"), Ty::Int(32), conv);
        // Each CONV starts after its EVAL has streamed: model the data
        // dependency with an initial delay covering the EVAL pass at the
        // narrowest realistic bus (so reads observe final values).
        sys.behavior_mut(conv).body = vec![
            Stmt::compute(
                FLC_ACCESSES * (EVAL_COMPUTE_CYCLES + 4 * 46),
                "wait for rule evaluation phase",
            ),
            for_loop(
                var(ci),
                int_const(0, 16),
                int_const(FLC_ACCESSES as i64 - 1, 16),
                vec![
                    receive_at(ch_r, load(var(ci)), var(ct)),
                    Stmt::compute(CONV_COMPUTE_CYCLES, "convolve"),
                    assign_cost(var(acc), add(load(var(acc)), load(var(ct))), 0),
                ],
            ),
        ];
        eval_channels.push(ch_w);
        conv_channels.push(ch_r);
        evals.push(eval);
        convs.push(conv);
        trrus.push(trru);
        accs.push(acc);
    }

    FlcFull {
        system: sys,
        eval_channels,
        conv_channels,
        evals,
        convs,
        trrus,
        accs,
    }
}

/// The checksum `CONV_Rk` must accumulate when reads happen after the
/// whole evaluation phase: `Σ_i ((k+1)·i + k)`.
pub fn expected_full_checksum(k: i64) -> i64 {
    (0..FLC_ACCESSES as i64).map(|i| (k + 1) * i + k).sum()
}

/// Handles into the reduced FLC variant (see [`flc_reduced`]).
#[derive(Debug, Clone)]
pub struct FlcReduced {
    /// The two-process system.
    pub system: System,
    /// `ch1`: `EVAL_R3` writes `trru0`.
    pub ch1: ChannelId,
    /// `ch2`: `CONV_R2` reads `trru2`.
    pub ch2: ChannelId,
    /// The `trru0` memory (written over ch1).
    pub trru0: VarId,
    /// `CONV_R2`'s checksum accumulator.
    pub conv_acc: VarId,
    /// Messages each channel carries.
    pub accesses: u64,
}

impl FlcReduced {
    /// The channels merged onto the shared bus.
    pub fn channels(&self) -> Vec<ChannelId> {
        vec![self.ch1, self.ch2]
    }

    /// Final `trru0` contents after a clean run: `Σ (3i + 1)`.
    pub fn expected_trru0_sum(&self) -> i64 {
        (0..self.accesses as i64).map(|i| 3 * i + 1).sum()
    }

    /// Final `conv_acc` value after a clean run: `Σ (2i + 5)`.
    pub fn expected_checksum(&self) -> i64 {
        (0..self.accesses as i64).map(|i| 2 * i + 5).sum()
    }
}

/// Builds a reduced FLC for exhaustive model checking: the same
/// `EVAL_R3` → `trru0` write channel and `CONV_R2` ← `trru2` read
/// channel as [`flc`] (so the generated bus protocol is identical in
/// shape), but with the truth arrays sized down to `accesses` entries
/// and every process not on bus `B` omitted. The full 128-access FLC is
/// within exhaustive reach, but not cheaply: refined at width 16 it has
/// 11,649,550 reachable states under partial-order reduction, which
/// `ifsyn specs/flc.ifs --width 16 --check --check-limit 12000000`
/// explores in 53–56 s at 982 MiB peak RSS on a 2-vCPU host (see
/// `docs/PERFORMANCE.md`). At 2
/// accesses the refined system's state space enumerates in a fraction
/// of a second while still exercising arbitration between two
/// concurrent clients, multi-word transfers, and both channel
/// directions.
pub fn flc_reduced(accesses: u64) -> FlcReduced {
    let n = accesses as i64;
    let mut sys = System::new("fuzzy_logic_controller_reduced");
    let chip1 = sys.add_module("chip1");
    let chip2 = sys.add_module("chip2");

    let eval_r3 = sys.add_behavior("EVAL_R3", chip1);
    let conv_r2 = sys.add_behavior("CONV_R2", chip1);
    let store = sys.add_behavior("chip2_store", chip2);
    let trru0 = sys.add_variable("trru0", Ty::array(Ty::Int(16), accesses as u32), store);
    let trru2 = sys.add_variable_init(
        "trru2",
        Ty::array(Ty::Int(16), accesses as u32),
        store,
        ramp_array(n),
    );

    let ch1 = sys.add_channel(Channel {
        name: "ch1".into(),
        accessor: eval_r3,
        variable: trru0,
        direction: ChannelDirection::Write,
        data_bits: 16,
        addr_bits: 7,
        accesses,
    });
    let ch2 = sys.add_channel(Channel {
        name: "ch2".into(),
        accessor: conv_r2,
        variable: trru2,
        direction: ChannelDirection::Read,
        data_bits: 16,
        addr_bits: 7,
        accesses,
    });

    let ei = sys.add_variable("eval_i", Ty::Int(16), eval_r3);
    let etmp = sys.add_variable("eval_t", Ty::Int(16), eval_r3);
    sys.behavior_mut(eval_r3).body = vec![for_loop(
        var(ei),
        int_const(0, 16),
        int_const(n - 1, 16),
        vec![
            assign_cost(
                var(etmp),
                add(mul(load(var(ei)), int_const(3, 16)), int_const(1, 16)),
                0,
            ),
            send_at(ch1, load(var(ei)), load(var(etmp))),
        ],
    )];

    let ci = sys.add_variable("conv_i", Ty::Int(16), conv_r2);
    let ctmp = sys.add_variable("conv_t", Ty::Int(16), conv_r2);
    let conv_acc = sys.add_variable("conv_acc", Ty::Int(32), conv_r2);
    sys.behavior_mut(conv_r2).body = vec![for_loop(
        var(ci),
        int_const(0, 16),
        int_const(n - 1, 16),
        vec![
            receive_at(ch2, load(var(ci)), var(ctmp)),
            assign_cost(var(conv_acc), add(load(var(conv_acc)), load(var(ctmp))), 0),
        ],
    )];

    FlcReduced {
        system: sys,
        ch1,
        ch2,
        trru0,
        conv_acc,
        accesses,
    }
}

/// trru2's initial contents: a ramp `2*i + 5` (so readback sums are
/// checkable).
fn ramp_array(len: i64) -> ifsyn_spec::Value {
    ifsyn_spec::Value::Array(
        (0..len)
            .map(|i| ifsyn_spec::Value::int(2 * i + 5, 16))
            .collect(),
    )
}

/// The checksum CONV_R2 must accumulate: `Σ (2i + 5)` over 128 entries.
pub fn expected_conv_checksum() -> i64 {
    (0..128).map(|i| 2 * i + 5).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flc_validates() {
        assert!(flc().system.check().is_ok());
    }

    #[test]
    fn channel_sizes_match_paper() {
        let f = flc();
        let sys = &f.system;
        assert_eq!(sys.channel(f.ch1).message_bits(), 23);
        assert_eq!(sys.channel(f.ch2).message_bits(), 23);
        assert_eq!(f.dedicated_wires(), 46);
        assert_eq!(sys.channel(f.ch0).message_bits(), 27); // 16 + 11
    }

    #[test]
    fn trru_arrays_are_128_entries() {
        let f = flc();
        assert_eq!(f.system.variable(f.trru0).ty.len(), 128);
        assert_eq!(f.system.variable(f.trru2).ty.len(), 128);
    }

    #[test]
    fn init_member_funct_is_1920_entries() {
        let f = flc();
        let v = f.system.variable_by_name("InitMemberFunct").unwrap();
        assert_eq!(f.system.variable(v).ty.len(), 1920);
    }

    #[test]
    fn twelve_chip1_processes_exist() {
        let f = flc();
        let chip1 = ifsyn_spec::ModuleId::new(0);
        let count = f
            .system
            .behaviors
            .iter()
            .filter(|b| b.module == chip1)
            .count();
        assert_eq!(count, 12);
    }

    #[test]
    fn checksum_constant_matches_ramp() {
        assert_eq!(expected_conv_checksum(), (0..128).map(|i| 2 * i + 5).sum());
    }
}
