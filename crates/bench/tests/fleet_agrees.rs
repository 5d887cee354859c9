//! The fleet and `repro` run the same jobs: for every campaign-backed
//! target, `repro fleet <target>` renders exactly what `repro <target>`
//! renders (smoke, one module per manufacturer), because both run the
//! target's own per-module experiment and render the committed results
//! with the target's own renderer. Only the `fleet:` lines differ.

use rh_bench::{
    fleet_output, fleet_targets, fleet_text, run_fleet, run_target, run_worker, FleetConfig,
    RunConfig, WorkerConfig,
};
use rh_core::Scale;
use rh_softmc::CancelToken;
use std::time::{Duration, Instant};

#[test]
fn fleet_renders_every_campaign_target_like_repro() {
    // An in-process worker on a free loopback port.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = probe.local_addr().expect("probe addr").to_string();
    drop(probe);
    let cancel = CancelToken::new();
    let worker_cfg = WorkerConfig { addr: addr.clone(), cancel: cancel.clone(), ..WorkerConfig::default() };
    let worker = std::thread::spawn(move || run_worker(&worker_cfg).expect("worker serves"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while std::net::TcpStream::connect(&addr).is_err() {
        assert!(Instant::now() < deadline, "worker never bound {addr}");
        std::thread::sleep(Duration::from_millis(10));
    }

    let local_cfg = RunConfig { scale: Scale::Smoke, modules_per_mfr: 1, ..RunConfig::default() };
    assert_eq!(fleet_targets().len(), 14, "every campaign-backed target");
    for target in fleet_targets() {
        let cfg = FleetConfig {
            workers: vec![addr.clone()],
            scale: Scale::Smoke,
            modules_per_mfr: 1,
            target: target.to_string(),
            poll_ms: 10,
            ..FleetConfig::default()
        };
        let report = run_fleet(&cfg).unwrap_or_else(|e| panic!("{target}: fleet: {e}"));
        assert!(report.is_clean(), "{target}: {}", report.summary_line());
        let fleet = fleet_output(&cfg, &report).unwrap_or_else(|e| panic!("{target}: {e}"));
        let local = run_target(target, &local_cfg).unwrap_or_else(|e| panic!("{target}: {e}"));
        assert_eq!(fleet.target, local.target);
        assert_eq!(fleet.data.to_string(), local.data.to_string(), "{target}: data differs");
        assert_eq!(fleet.text, local.text, "{target}: text differs");
        assert!(fleet_text(&report).starts_with("fleet: "), "{target}: fleet lines follow");
    }

    cancel.cancel();
    worker.join().expect("worker thread");
}
