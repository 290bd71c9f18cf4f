//! Deterministic synthetic-system generator.
//!
//! The paper's examples top out at a handful of behaviors, which is the
//! wrong scale for stressing the model checker, the simulator's
//! scheduler or the clustering heuristics. This module generates
//! arbitrarily large, *deterministic* systems — seeded by an in-tree
//! [`SplitMix64`] stream, so equal configurations always produce
//! structurally identical specifications.
//!
//! The generated shape is a field of producer/consumer **couples**. Each
//! couple is a pair of behaviors that share no variables and talk
//! through two private signals:
//!
//! ```text
//! producer i:  loop rounds {            consumer i:  loop rounds {
//!     compute (zero-cost, ~depth ops)       wait until req_i = r+1
//!     data_i <= acc                         fold data_i into sum
//!     req_i  <= r+1                         compute (zero-cost)
//!     wait until ack_i = r+1                ack_i <= r+1
//! }                                     }
//! ```
//!
//! Every producer additionally drives one shared `clash` signal each
//! round (when [`SynthConfig::conflicts`] is on), forcing same-delta
//! write conflicts that the kernel resolves last-write-wins. The
//! per-couple compute depth is jittered by the seed, so couples finish
//! rounds at different instruction counts.

use ifsyn_spec::dsl::*;
use ifsyn_spec::rng::SplitMix64;
use ifsyn_spec::{BehaviorId, SignalId, Stmt, System, Ty, Value};

/// Parameters of the synthetic system. All fields are structural: two
/// equal configurations generate byte-identical systems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthConfig {
    /// Modules to spread behaviors over (round-robin); at least 1.
    pub modules: usize,
    /// Producer/consumer couples; each contributes two behaviors and two
    /// private signals (the paper's "channels" at the virtual level).
    pub couples: usize,
    /// Handshake rounds each couple completes before finishing.
    pub rounds: u64,
    /// Nominal zero-cost compute operations per round and side; the
    /// actual per-couple depth is jittered ±25% by the seed.
    pub compute: u64,
    /// Drive a shared `clash` signal from every producer every round,
    /// forcing same-delta write conflicts between couples.
    pub conflicts: bool,
    /// Cycle cost of each compute-loop iteration. The default 0 keeps
    /// the generated system byte-identical to earlier revisions (the
    /// whole loop runs inside one delta). A nonzero cost turns every
    /// iteration into a scheduling point, which is what makes the
    /// generated field a state-space stress for the model checker: each
    /// compute step becomes a distinct time-abstracted checker state.
    pub compute_cost: u32,
    /// Seed of the deterministic structure jitter.
    pub seed: u64,
}

impl SynthConfig {
    /// A small default: 2 modules, 4 couples, 16 rounds, 64 compute ops.
    pub fn new() -> Self {
        Self {
            modules: 2,
            couples: 4,
            rounds: 16,
            compute: 64,
            conflicts: true,
            compute_cost: 0,
            seed: 0x5e_ed,
        }
    }

    /// Builder-style setter for [`SynthConfig::modules`].
    pub fn with_modules(mut self, modules: usize) -> Self {
        self.modules = modules.max(1);
        self
    }

    /// Builder-style setter for [`SynthConfig::couples`].
    pub fn with_couples(mut self, couples: usize) -> Self {
        self.couples = couples.max(1);
        self
    }

    /// Builder-style setter for [`SynthConfig::rounds`].
    pub fn with_rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds.max(1);
        self
    }

    /// Builder-style setter for [`SynthConfig::compute`].
    pub fn with_compute(mut self, compute: u64) -> Self {
        self.compute = compute.max(1);
        self
    }

    /// Builder-style setter for [`SynthConfig::compute_cost`].
    pub fn with_compute_cost(mut self, cost: u32) -> Self {
        self.compute_cost = cost;
        self
    }

    /// Builder-style setter for [`SynthConfig::seed`].
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style switch disabling the shared `clash` signal.
    pub fn without_conflicts(mut self) -> Self {
        self.conflicts = false;
        self
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A generated system plus the handles tests and benchmarks need.
#[derive(Debug, Clone)]
pub struct SynthSystem {
    /// The generated specification.
    pub system: System,
    /// Producer behavior of each couple.
    pub producers: Vec<BehaviorId>,
    /// Consumer behavior of each couple.
    pub consumers: Vec<BehaviorId>,
    /// Per-couple payload signal (`data_i`).
    pub data: Vec<SignalId>,
    /// Per-couple handshake-back signal (`ack_i`).
    pub ack: Vec<SignalId>,
    /// The shared conflict signal, when [`SynthConfig::conflicts`] is on.
    pub clash: Option<SignalId>,
}

/// Generates the synthetic producer/consumer field described in the
/// module docs. Deterministic: equal configs yield identical systems.
pub fn synth_system(cfg: &SynthConfig) -> SynthSystem {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut sys = System::new("synth");
    let modules: Vec<_> = (0..cfg.modules.max(1))
        .map(|m| sys.add_module(format!("m{m}")))
        .collect();
    let clash = cfg
        .conflicts
        .then(|| sys.add_signal_init("clash", Ty::Int(32), Value::int(0, 32)));

    let mut producers = Vec::with_capacity(cfg.couples);
    let mut consumers = Vec::with_capacity(cfg.couples);
    let mut data_sigs = Vec::with_capacity(cfg.couples);
    let mut ack_sigs = Vec::with_capacity(cfg.couples);

    let rounds = cfg.rounds.max(1) as i64;
    for i in 0..cfg.couples.max(1) {
        // Structure jitter: compute depth ±25%, small odd multipliers.
        // Drawn in a fixed order so the stream stays aligned per couple.
        let lo = (cfg.compute.max(1) * 3) / 4;
        let hi = (cfg.compute.max(1) * 5) / 4;
        let depth = rng.range_u64(lo.max(1), hi.max(1)) as i64;
        let prod_mult = 2 * rng.range_i64(1, 4) + 1;
        let cons_mult = 2 * rng.range_i64(1, 4) + 1;
        let acc_init = rng.range_i64(1, 1 << 20);

        let data = sys.add_signal_init(format!("data{i}"), Ty::Int(32), Value::int(0, 32));
        let req = sys.add_signal_init(format!("req{i}"), Ty::Int(32), Value::int(0, 32));
        let ack = sys.add_signal_init(format!("ack{i}"), Ty::Int(32), Value::int(0, 32));

        // Producer: compute, publish, handshake. All couple state is
        // private to the couple.
        let p = sys.add_behavior(format!("prod{i}"), modules[(2 * i) % modules.len()]);
        let acc = sys.add_variable_init(
            format!("p{i}_acc"),
            Ty::Int(32),
            p,
            Value::int(acc_init, 32),
        );
        let pk = sys.add_variable(format!("p{i}_k"), Ty::Int(32), p);
        let pr = sys.add_variable(format!("p{i}_r"), Ty::Int(32), p);
        let mut round = vec![
            Stmt::compute(1, "produce"),
            for_loop(
                var(pk),
                int_const(0, 32),
                int_const(depth - 1, 32),
                vec![assign_cost(
                    var(acc),
                    add(mul(load(var(acc)), int_const(prod_mult, 32)), load(var(pk))),
                    cfg.compute_cost,
                )],
            ),
            assign_cost(var(acc), add(load(var(acc)), load(var(pr))), 0),
            drive_cost(data, load(var(acc)), 0),
        ];
        if let Some(clash) = clash {
            round.push(drive_cost(clash, load(var(acc)), 0));
        }
        round.push(drive_cost(req, add(load(var(pr)), int_const(1, 32)), 0));
        round.push(wait_until(eq(
            signal(ack),
            add(load(var(pr)), int_const(1, 32)),
        )));
        sys.behavior_mut(p).body = vec![for_loop(
            var(pr),
            int_const(0, 32),
            int_const(rounds - 1, 32),
            round,
        )];

        // Consumer: wait, fold the payload, compute, acknowledge.
        let c = sys.add_behavior(format!("cons{i}"), modules[(2 * i + 1) % modules.len()]);
        let sum = sys.add_variable(format!("c{i}_sum"), Ty::Int(32), c);
        let ck = sys.add_variable(format!("c{i}_k"), Ty::Int(32), c);
        let cr = sys.add_variable(format!("c{i}_r"), Ty::Int(32), c);
        sys.behavior_mut(c).body = vec![for_loop(
            var(cr),
            int_const(0, 32),
            int_const(rounds - 1, 32),
            vec![
                wait_until(eq(signal(req), add(load(var(cr)), int_const(1, 32)))),
                assign_cost(var(sum), add(load(var(sum)), signal(data)), 0),
                for_loop(
                    var(ck),
                    int_const(0, 32),
                    int_const(depth - 1, 32),
                    vec![assign_cost(
                        var(sum),
                        add(mul(load(var(sum)), int_const(cons_mult, 32)), load(var(ck))),
                        cfg.compute_cost,
                    )],
                ),
                drive_cost(ack, add(load(var(cr)), int_const(1, 32)), 0),
            ],
        )];

        producers.push(p);
        consumers.push(c);
        data_sigs.push(data);
        ack_sigs.push(ack);
    }

    SynthSystem {
        system: sys,
        producers,
        consumers,
        data: data_sigs,
        ack: ack_sigs,
        clash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::new().with_couples(6).with_seed(99);
        let a = synth_system(&cfg);
        let b = synth_system(&cfg);
        assert_eq!(format!("{:?}", a.system), format!("{:?}", b.system));
    }

    #[test]
    fn different_seeds_differ() {
        let a = synth_system(&SynthConfig::new().with_seed(1));
        let b = synth_system(&SynthConfig::new().with_seed(2));
        assert_ne!(format!("{:?}", a.system), format!("{:?}", b.system));
    }

    #[test]
    fn generated_system_validates() {
        let s = synth_system(&SynthConfig::new().with_modules(3).with_couples(5));
        assert!(s.system.check().is_ok());
        assert_eq!(s.producers.len(), 5);
        assert_eq!(s.consumers.len(), 5);
        assert_eq!(s.system.behaviors.len(), 10);
    }

    #[test]
    fn compute_cost_defaults_to_zero_and_stretches_the_schedule() {
        let base = SynthConfig::new().with_couples(2).with_rounds(2);
        // Default: byte-identical to the pre-compute_cost generator.
        let a = synth_system(&base);
        let b = synth_system(&base.clone().with_compute_cost(0));
        assert_eq!(format!("{:?}", a.system), format!("{:?}", b.system));
        // Nonzero cost only changes statement costs, never the structure:
        // the system still validates and completes, just over more cycles.
        let costed = synth_system(&base.with_compute_cost(1));
        assert!(costed.system.check().is_ok());
        let cheap = ifsyn_sim::Simulator::new(&a.system)
            .expect("compiles")
            .run_to_quiescence()
            .expect("quiesces");
        let slow = ifsyn_sim::Simulator::new(&costed.system)
            .expect("compiles")
            .run_to_quiescence()
            .expect("quiesces");
        assert!(slow.time() > cheap.time());
    }

    #[test]
    fn couples_complete_all_rounds() {
        let s = synth_system(&SynthConfig::new().with_couples(2).with_rounds(4));
        let report = ifsyn_sim::Simulator::new(&s.system)
            .expect("synth system compiles")
            .run_to_quiescence()
            .expect("synth system quiesces");
        for (&p, &c) in s.producers.iter().zip(&s.consumers) {
            assert!(report.finish_time(p).is_some(), "producer finished");
            assert!(report.finish_time(c).is_some(), "consumer finished");
        }
        // Every handshake completed: the ack counters reached `rounds`.
        for i in 0..s.ack.len() {
            let v = report
                .final_signal_by_name(&format!("ack{i}"))
                .expect("ack signal exists");
            assert_eq!(v.as_i64().expect("int signal"), 4);
        }
    }
}
