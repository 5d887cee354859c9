//! Output pins: the FNV-1a 64 digest of each pinned reproduction
//! target's `--scale smoke` JSON data. A behaviour change shows up here
//! as a named digest diff; a change that moves a published number on
//! purpose updates the table and says why.
//!
//! Campaign-backed targets (`fig4`, `fig5`, `fig7`, `table3`, `fig11`)
//! embed their full campaign report in the JSON: per-module statuses,
//! per-attempt errors and backoff schedules. Their faulted rows pin the
//! retry/quarantine decisions as well as the figures.

use rh_bench::runners::{run_target, RunConfig};
use rh_core::{fnv1a64, Scale};
use rh_softmc::FaultPlan;

/// A fault preset name and seed; `None` is a fault-free run.
type Faults = Option<(&'static str, u64)>;

/// (target, faults, digest of `run_target(target, smoke).data.to_string()`).
const PINS: &[(&str, Faults, &str)] = &[
    ("memctl", None, "c6af820502212675"),
    ("defense-matrix", None, "f24e33818d76ae68"),
    ("trrespass", None, "11bdf733221df53a"),
    ("fig4", None, "5c40855e2761f561"),
    ("fig5", None, "1df008e8036ccb6f"),
    ("fig7", None, "fd77de81b79c65ca"),
    ("table3", None, "f842611a26475112"),
    ("fig11", None, "fea7fdcb91e7fd2d"),
    ("fig4", Some(("flaky-host", 7)), "b884455e5f21d183"),
    ("fig7", Some(("flaky-host", 7)), "29206b3c3fdc9547"),
    ("fig4", Some(("chaos", 3)), "2443e6ed672fe1e1"),
    ("fig7", Some(("chaos", 3)), "40f84dad11feeb02"),
    ("fig4", Some(("dead-module", 5)), "def624e591493186"),
    ("fig7", Some(("dead-module", 5)), "def624e591493186"),
    ("fig4", Some(("thermal", 2)), "644dad571da11cef"),
    ("fig7", Some(("thermal", 2)), "3e18f9bba361d967"),
];

#[test]
fn smoke_outputs_match_their_pinned_digests() {
    let mut diffs = Vec::new();
    for &(target, faults, pinned) in PINS {
        let cfg = RunConfig {
            scale: Scale::Smoke,
            faults: faults.map(|(name, seed)| {
                FaultPlan::preset(name, seed).unwrap_or_else(|| panic!("unknown preset {name}"))
            }),
            ..RunConfig::default()
        };
        let out = run_target(target, &cfg).unwrap_or_else(|e| panic!("{target}: {e}"));
        let got = format!("{:016x}", fnv1a64(out.data.to_string().as_bytes()));
        if got != pinned {
            diffs.push(format!("{target} {faults:?}: pinned {pinned}, got {got}"));
        }
    }
    assert!(diffs.is_empty(), "output digests moved:\n{}", diffs.join("\n"));
}
