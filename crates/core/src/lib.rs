//! # ifsyn-core — bus generation and protocol generation
//!
//! The primary contribution of Narayan & Gajski, *Protocol Generation for
//! Communication Channels* (DAC 1994): given a group of abstract
//! communication channels produced by system partitioning,
//!
//! 1. **Bus generation** ([`BusGenerator`]) explores candidate bus widths,
//!    keeps the *feasible* ones — bus rate at least the sum of channel
//!    average rates (Eq. 1) — and picks the width minimising a cost
//!    function over designer [`Constraint`]s (weighted sum of squared
//!    violations);
//! 2. **Protocol generation** ([`ProtocolGenerator`]) refines the system
//!    into a *simulatable* specification: bus wires (`START`, `DONE`,
//!    `ID`, `DATA`), per-channel send/receive procedures that slice
//!    messages into bus words, rewritten behaviors, and variable server
//!    processes (the paper's Fig. 4–5).
//!
//! The refined bus's promises — grant mutual exclusion, completion or a
//! raised status flag, eventual grant — are stated once over the wires
//! protocol generation creates ([`RefinedSystem::check_bus_properties`])
//! and checked on every schedule by `ifsyn-sim`'s model checker.
//!
//! Extensions the paper lists as future work are implemented too:
//! alternative protocols ([`ProtocolKind`]), bus splitting when no
//! feasible width exists ([`BusGenerator::generate_with_split`]), and bus
//! arbitration with measurable grant delay ([`Arbitration`]).
//!
//! ## Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use ifsyn_core::{BusGenerator, Constraint};
//! use ifsyn_spec::{Channel, ChannelDirection, System, Ty};
//!
//! // A channel carrying 23-bit messages (16 data + 7 address).
//! let mut sys = System::new("flc");
//! let chip1 = sys.add_module("chip1");
//! let chip2 = sys.add_module("chip2");
//! let eval = sys.add_behavior("EVAL_R3", chip1);
//! let store = sys.add_behavior("store", chip2);
//! let trru0 = sys.add_variable("trru0", Ty::array(Ty::Int(16), 128), store);
//! let ch1 = sys.add_channel(Channel {
//!     name: "ch1".into(),
//!     accessor: eval,
//!     variable: trru0,
//!     direction: ChannelDirection::Write,
//!     data_bits: 16,
//!     addr_bits: 7,
//!     accesses: 128,
//! });
//!
//! let design = BusGenerator::new()
//!     .constraint(Constraint::min_peak_rate(ch1, 10.0, 10.0))
//!     .generate(&sys, &[ch1])?;
//! assert!(design.width >= 20); // peak rate w/2 >= 10 needs w >= 20
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbitration;
mod busgen;
mod constraint;
mod error;
mod properties;
mod protocol;
mod protogen;
mod split;
mod words;

pub use arbitration::{Arbitration, ArbitrationPolicy};
pub use busgen::{BusDesign, BusGenerator, Exploration, WidthRow};
pub use constraint::{Constraint, ConstraintKind, WidthMetrics};
pub use error::CoreError;
pub use properties::BusCheck;
pub use protocol::ProtocolKind;
pub use protogen::{BusStructure, Hardening, MultiBusRefinement, ProtocolGenerator, RefinedSystem};
pub use split::SplitOutcome;
pub use words::{WordDir, WordPlan, WordSpec};
