//! The Apiary benchmark harness.
//!
//! One module per experiment; every table and figure from the paper — plus
//! the evaluation its open questions call for — is regenerated by that
//! module's `report(quick)`, which returns a structured
//! [`ExperimentReport`] (rendered prose + machine-readable metrics +
//! simulated-cycle count). See `DESIGN.md` §3 for the experiment index and
//! `EXPERIMENTS.md` for recorded results.
//!
//! All experiments accept a `quick` flag: `true` runs a scaled-down
//! configuration suitable for CI/tests, `false` the full sweep.
//!
//! [`harness::SUITE`] is the one table of experiments. The
//! `all_experiments` binary runs all of it, or the ids `--only` names, on a
//! scoped thread pool with deterministic, order-stable output.

pub mod experiments;
pub mod harness;
pub mod report;
pub mod results;
pub mod scenarios;
pub mod table;

pub use report::{ExperimentReport, Json};
pub use table::TextTable;
