//! Shared helpers for the experiment binaries (see `src/bin/`) that
//! regenerate every table and figure of the paper's evaluation section, and
//! the harness behind the `BENCH_*.json` artifacts (`artifact`).

pub mod artifact;
pub mod experiments;
pub mod report;

pub use report::{fmt_ms, Table};
