//! Distributed fleet tracing, end to end, against real `repro serve`
//! worker processes: a traced fleet run must leave a trace directory
//! that stitches into a single causal span tree (coordinator
//! `fleet.run` → per-lease `fleet.dispatch.rpc` → worker `worker.job`
//! → kernel spans), with one `worker.job` span per committed job, and
//! every committed result must carry a replay token that re-executes
//! single-process to the identical bits.

use rh_bench::{execute_payload, job_payload, run_fleet, FleetConfig};
use rh_core::{fnv1a64, ModuleStatus, ReplayToken, Scale};
use rh_dram::Manufacturer;
use rh_obs::analyze::analyze_fleet_dir;
use rh_softmc::CancelToken;
use std::io::BufRead;
use std::process::{Child, Command, Stdio};

/// Kills the child on drop so a failed assertion never leaks a
/// worker process.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns a `repro serve` worker on a free port and returns it with
/// the address parsed from its announce line.
fn spawn_worker(slots: usize) -> (ChildGuard, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--addr", "127.0.0.1:0", "--slots", &slots.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    let stderr = child.stderr.take().expect("stderr is piped");
    let mut reader = std::io::BufReader::new(stderr);
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).expect("read worker stderr") != 0 {
        if let Some(rest) = line.trim().strip_prefix("repro: worker serving on http://") {
            addr = Some(rest.to_string());
            break;
        }
        line.clear();
    }
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = std::io::Read::read_to_string(&mut reader, &mut sink);
    });
    (ChildGuard(child), addr.expect("worker must announce its address"))
}

#[test]
fn traced_fleet_run_stitches_to_one_tree_and_replay_tokens_reproduce_bits() {
    let (_w1, addr1) = spawn_worker(2);
    let (_w2, addr2) = spawn_worker(2);
    let dir = std::env::temp_dir().join(format!("rh-fleet-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cfg = FleetConfig {
        workers: vec![addr1, addr2],
        seed: 7,
        scale: Scale::Smoke,
        modules_per_mfr: 1,
        workload: "temp_ranges".to_string(),
        lease_ms: 10_000,
        poll_ms: 25,
        trace_dir: Some(dir.clone()),
        ..FleetConfig::default()
    };
    let report = run_fleet(&cfg).expect("traced fleet run completes");
    assert!(report.is_clean(), "fleet not clean: {}", report.summary_line());
    assert_eq!(report.results.len(), 4);

    // --- Stitch: one causal tree across three processes. ---
    let stitch = analyze_fleet_dir(&dir).unwrap_or_else(|e| panic!("stitch: {e}"));
    assert_eq!(stitch.roots.len(), 1, "exactly one stitched root");
    assert_eq!(stitch.roots[0].name, "fleet.run");
    assert_eq!(
        stitch.job_spans as usize, report.results.len(),
        "one worker.job span per committed job"
    );
    // coordinator.jsonl + one shipped segment per committed job.
    assert_eq!(stitch.segments.len(), 1 + report.results.len());
    // A fault-free run strands nothing.
    assert!(stitch.orphans.is_empty(), "unexpected orphan spans");
    assert_eq!(stitch.orphan_dispatches, 0);
    assert_eq!(stitch.orphan_segments, 0);
    // Every worker.job sits under a dispatch RPC under the root, and
    // carries its kernel child spans across the process boundary.
    let dispatches = &stitch.roots[0].children;
    let jobs: Vec<_> = dispatches
        .iter()
        .flat_map(|d| d.children.iter())
        .filter(|c| c.name == "worker.job")
        .collect();
    assert_eq!(jobs.len(), report.results.len(), "parent links for every committed job");
    assert!(
        jobs.iter().all(|j| !j.children.is_empty()),
        "worker-side kernel spans must stitch under their job span"
    );

    // --- Replay: every committed job carries a token; one of them
    // re-executes single-process to the identical bits. ---
    let committed: Vec<_> = report
        .campaign
        .outcomes
        .iter()
        .filter(|o| matches!(o.status, ModuleStatus::Succeeded | ModuleStatus::Recovered { .. }))
        .collect();
    assert_eq!(committed.len(), report.results.len());
    let tokened: Vec<&str> = report.replay_tokens.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(
        tokened,
        committed.iter().map(|o| o.id.as_str()).collect::<Vec<_>>(),
        "every committed job is stamped with a replay token"
    );
    let token_str = report.replay_tokens[0].1.as_str();
    let token = ReplayToken::parse(token_str).unwrap_or_else(|e| panic!("token parse: {e}"));
    assert_ne!(token.trace_id, 0, "a traced run must stamp the trace into the token");
    let mfr = Manufacturer::ALL
        .into_iter()
        .find(|m| format!("{m:?}") == token.mfr)
        .expect("token names a real manufacturer");
    let payload = job_payload(mfr, token.index as usize, token.seed, Scale::Smoke, &token.workload);
    let replayed = execute_payload(&payload, &CancelToken::new()).expect("replay executes");
    assert_eq!(
        fnv1a64(replayed.to_string().as_bytes()),
        token.result_hash,
        "replay must reproduce the committed result bit-for-bit"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
