//! # gridvine-bench
//!
//! The paper's claims, checked: the one binary, `paper_claims`, runs
//! each paper-facing measurement at fixed sizes and seeds and prints
//! one JSON line per claim — the quoted sentence, the measured value, a
//! tolerance and a verdict (the root `README.md` lists the claims and
//! how to read a row). [`fixtures`] holds the federations it builds.
//!
//! The program is deterministic; `scripts/transcripts.sh` runs it
//! twice and compares, and fails on its non-zero exit.

pub mod fixtures;
