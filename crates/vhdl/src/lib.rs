//! # ifsyn-vhdl — VHDL-flavoured pretty-printer
//!
//! Renders a specification — typically the refined system produced by
//! protocol generation — as VHDL-style text, reproducing the form of the
//! paper's Fig. 4 (bus record and send/receive procedures) and Fig. 5
//! (rewritten behaviors and variable processes).
//!
//! The output is *documentation-grade* VHDL: it mirrors the paper's code
//! style (records are shown for bus wires, `wait until` / `<=` / `:=`
//! syntax) rather than guaranteeing acceptance by a strict compiler —
//! the executable semantics live in `ifsyn-sim`.
//!
//! ## Example
//!
//! ```
//! use ifsyn_spec::{System, Ty, dsl::*};
//! use ifsyn_vhdl::VhdlPrinter;
//!
//! let mut sys = System::new("demo");
//! let m = sys.add_module("chip");
//! let b = sys.add_behavior("P", m);
//! let x = sys.add_variable("X", Ty::Bits(16), b);
//! sys.behavior_mut(b).body.push(assign(var(x), bits_const(32, 16)));
//!
//! let text = VhdlPrinter::new().print_system(&sys);
//! assert!(text.contains("process P"));
//! assert!(text.contains("X :="));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dot;
mod printer;

pub use dot::{refined_to_dot, to_dot};
pub use printer::VhdlPrinter;
