//! The parfact benchmark: two workloads driven through the public
//! façade ([`workload`]), a per-layer ladder timed from outside the
//! library ([`ladder`], [`table`]), and the result records ([`report`]).
//! See `README.md` beside this crate.

pub mod ladder;
pub mod report;
pub mod stats;
pub mod table;
pub mod workload;
