//! # gridvine-bench
//!
//! Experiment harness for the GridVine reproduction: one binary per
//! figure/claim of the paper (the root `README.md` holds the full
//! experiment index), plus Criterion micro-benchmarks over the hot
//! paths. All binaries print aligned text tables to stdout.

pub mod table;

pub use table::Table;
