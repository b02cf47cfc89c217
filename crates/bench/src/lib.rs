//! # gridvine-bench
//!
//! Experiment harness for the GridVine reproduction: one `exp_*`
//! binary per figure or claim of the paper (the root `README.md` holds
//! the index). A binary owns its sweep axes, its measurement, its table
//! and its "expected shape" text; what they share lives here:
//!
//! * [`fixtures`] — the chain and ring federations several experiments
//!   run on, with their queries;
//! * [`args`] — positional argument parsing (defaults, usage line,
//!   exit status 2 on a value that does not parse);
//! * [`table`] — aligned text tables, so every run prints uniform,
//!   diff-able output.
//!
//! Every binary is deterministic for fixed arguments;
//! `scripts/transcripts.sh` runs them all twice and compares.

pub mod args;
pub mod fixtures;
pub mod table;

pub use args::Args;
pub use table::{f, Table};
