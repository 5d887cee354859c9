//! Output pins: the FNV-1a 64 digest of each pinned reproduction
//! target's `--scale smoke` JSON data. A behaviour change shows up here
//! as a named digest diff; a change that moves a published number on
//! purpose updates the table and says why.

use rh_bench::runners::{run_target, RunConfig};
use rh_core::{fnv1a64, Scale};

/// (target, digest of `run_target(target, smoke).data.to_string()`).
const PINS: &[(&str, &str)] = &[
    ("memctl", "c6af820502212675"),
    ("defense-matrix", "f24e33818d76ae68"),
    ("trrespass", "11bdf733221df53a"),
];

#[test]
fn smoke_outputs_match_their_pinned_digests() {
    let cfg = RunConfig { scale: Scale::Smoke, ..RunConfig::default() };
    let mut diffs = Vec::new();
    for &(target, pinned) in PINS {
        let out = run_target(target, &cfg).unwrap_or_else(|e| panic!("{target}: {e}"));
        let got = format!("{:016x}", fnv1a64(out.data.to_string().as_bytes()));
        if got != pinned {
            diffs.push(format!("{target}: pinned {pinned}, got {got}"));
        }
    }
    assert!(diffs.is_empty(), "output digests moved:\n{}", diffs.join("\n"));
}
