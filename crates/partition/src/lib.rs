//! # ifsyn-partition — system partitioning
//!
//! The substrate step *before* the DAC'94 paper's contribution (their
//! reference \[1\], Vahid & Gajski's SpecSyn partitioner): group the
//! behaviors and variables of a specification into modules (chips /
//! memories), derive an abstract [`Channel`] for every cross-module
//! variable access, and rewrite those accesses into channel operations.
//!
//! Two modes:
//!
//! * **manual placement** — [`Partitioner::place_behavior`] /
//!   [`Partitioner::place_variable`] pin objects to named modules (how
//!   the paper's Fig. 3 and Fig. 6 partitions are specified);
//! * **automatic clustering** — [`Partitioner::auto_cluster`] merges the
//!   closest behavior/variable pairs (closeness = bits exchanged) until
//!   the requested module count remains, a simplified SpecSyn closeness
//!   metric.
//!
//! Channel *grouping* ([`PartitionResult::channel_groups`]) collects
//! channels that connect the same module pair — the groups bus
//! generation implements as single buses.
//!
//! [`Channel`]: ifsyn_spec::Channel

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod derive;
mod error;
pub mod footprint;
mod partitioner;

pub use cluster::Closeness;
pub use error::PartitionError;
pub use footprint::{footprint, footprints, ProcessFootprint};
pub use partitioner::{PartitionResult, Partitioner};
