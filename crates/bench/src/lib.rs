//! The reproduction harness: one runner per table and figure of the
//! paper, shared by the `repro` binary and the Criterion benches.
//!
//! Every runner returns the rendered text (the same rows/series the
//! paper reports). `repro --json` additionally dumps the raw result
//! structures.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod fleet;
pub mod perf;
pub mod runners;
pub mod soak;
pub mod top;
pub mod worker;

pub use fleet::{fleet_output, fleet_text, run_fleet, FleetConfig};
pub use worker::{run_worker, WorkerConfig};

pub use perf::{
    compare_reports, from_json, run_bench, to_json, workload_names, BenchConfig, BenchReport,
    HistSummary, Regression, WorkloadResult,
};
pub use runners::{
    fleet_targets, run_campaign, run_defense_matrix, run_job, run_target, targets, ObsSetup,
    RunConfig, RunOutput, TelemetryOptions,
};
pub use soak::{
    run_soak, run_soak_tracked, soak_one, soak_one_tracked, SoakReport, SoakScenario, SoakStats,
};
