//! # ifsyn-systems — the paper's example systems
//!
//! Models of every system the DAC'94 evaluation mentions:
//!
//! * [`mod@fig1`] — the motivating Fig. 1 split (process `A` vs `MEM`/`STATUS`);
//! * [`fig3`] — the worked protocol-generation example of Figs. 3–5
//!   (behaviors `P`/`Q` accessing `X` and `MEM` over channels CH0–CH3);
//! * [`mod@flc`] — the Matsushita fuzzy logic controller of Fig. 6–8
//!   (the paper's main case study);
//! * [`mod@answering_machine`] — the answering machine mentioned in §5;
//! * [`ethernet`] — the Ethernet network coprocessor mentioned in §5;
//! * [`mod@synth`] — a deterministic synthetic-system generator for
//!   scale testing (not from the paper: the examples above are too small
//!   to stress the model checker or the simulator's scheduler).
//!
//! The FLC and Fig. 3 models are built already-partitioned (hand-derived
//! channels with the exact message sizes the paper reports); the
//! answering machine and Ethernet models start unpartitioned and run
//! through `ifsyn-partition`, exercising the full pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answering_machine;
pub mod ethernet;
pub mod fig1;
pub mod fig3;
pub mod flc;
pub mod synth;

pub use answering_machine::{answering_machine, AnsweringMachine};
pub use ethernet::{ethernet_coprocessor, EthernetCoprocessor};
pub use fig1::{fig1, fig1_unpartitioned, Fig1};
pub use fig3::{fig3_system, fig3_unpartitioned, Fig3};
pub use flc::{flc, flc_full, Flc, FlcFull};
pub use synth::{synth_system, SynthConfig, SynthSystem};
