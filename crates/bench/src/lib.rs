//! # ifsyn-bench — experiment harness
//!
//! Regenerates every table and figure of the DAC'94 evaluation:
//!
//! * [`fig2`] — channel merging: average rates add, the shared bus needs
//!   `BusRate >= Σ AveRate` (Eq. 1);
//! * [`fig7`] — FLC process execution time vs bus width, analytic and
//!   measured;
//! * [`fig8`] — three constraint sets and the widths they select, with
//!   interconnect reductions;
//! * [`extra`] — the answering machine and Ethernet coprocessor runs
//!   mentioned in §5;
//! * [`overhead`] — the area cost of protocol generation (states,
//!   registers) against the wires it saves;
//! * [`ablation`] — the future-work extensions measured: alternative
//!   protocols, arbitration grant delay, bus splitting;
//! * [`faults`] — the robustness campaign: plain vs timeout-hardened
//!   handshakes under a deterministic fault matrix;
//! * [`calibrate`] — the trace-analytics campaign: estimated vs
//!   observed channel rates across the Fig. 7 sweep, plus the
//!   measured-rate calibration loop run to its fixed point.
//!
//! Run everything with `cargo run -p ifsyn-bench --bin experiments -- all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod batch;
pub mod calibrate;
pub mod check;
pub mod emit;
pub mod extra;
pub mod faults;
pub mod fig2;
pub mod fig7;
pub mod fig8;
pub mod overhead;
pub mod sweep;
pub mod table;
