//! Checkpoint compatibility across upgrades.
//!
//! `fixtures/fig4-flaky-host-7.checkpoint.json` is a campaign checkpoint
//! (schema v2) written by an earlier build of
//! `repro --scale smoke --fault-scenario flaky-host --fault-seed 7
//! --checkpoint PREFIX fig4`. Resuming it must reproduce that build's
//! report byte for byte. A coordinator checkpoint from before the
//! campaign and fleet formats were unified is refused, not guessed at.

use rh_bench::runners::{run_target, RunConfig};
use rh_core::{fnv1a64, verify_checkpoint, CharError, FleetPolicy, JobTable, Scale};
use rh_softmc::FaultPlan;
use std::path::PathBuf;

const FIXTURE: &str = include_str!("fixtures/fig4-flaky-host-7.checkpoint.json");

/// The `fig4` / `flaky-host` 7 digest pinned in `output_digests.rs`.
const FLAKY_HOST_7_FIG4: &str = "b884455e5f21d183";

fn scratch_prefix(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rh-ckpt-upgrade-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(tag)
}

#[test]
fn earlier_campaign_checkpoint_resumes_to_the_same_report() {
    let prefix = scratch_prefix("v2");
    let path = PathBuf::from(format!("{}-fig4.json", prefix.display()));
    std::fs::write(&path, FIXTURE).unwrap();
    assert_eq!(verify_checkpoint(&path).unwrap(), 4);

    // Resume under a plan that kills every module on its first command:
    // the pinned digest can only come back if all four modules are
    // taken from the checkpoint and none is re-run.
    let cfg = RunConfig {
        scale: Scale::Smoke,
        faults: FaultPlan::preset("dead-module", 5),
        checkpoint: Some(prefix),
        ..RunConfig::default()
    };
    let out = run_target("fig4", &cfg).unwrap();
    let got = format!("{:016x}", fnv1a64(out.data.to_string().as_bytes()));
    assert_eq!(got, FLAKY_HOST_7_FIG4, "resumed report differs from the earlier build's");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pre_unification_fleet_checkpoint_is_rejected() {
    let path = scratch_prefix("fleet-v1.json");
    std::fs::write(
        &path,
        r#"{"version": 1, "entries": [{"id": "mfr_a#0", "status": "committed",
            "attempts": 1, "generation": 1, "errors": [], "result": {"ber": 0.5},
            "error": null}]}"#,
    )
    .unwrap();
    let mut table = JobTable::new(FleetPolicy::default());
    table.add_job("mfr_a#0", Default::default());
    for err in [verify_checkpoint(&path).unwrap_err(), table.with_checkpoint(&path).unwrap_err()]
    {
        assert!(matches!(err, CharError::Checkpoint { .. }), "{err}");
    }
    let _ = std::fs::remove_file(&path);
}
