//! The repository benchmark: closed-loop workloads that time calls into
//! perfport's public API, check every output they time, and, in a
//! separate traced run, break each operation's wall time down by layer.
//! See `README.md` for the recipe and the reasons behind each workload.

pub mod cli;
pub mod harness;
pub mod results;
pub mod spec;
mod stats;
pub mod workloads;
