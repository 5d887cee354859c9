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
    ("attack2", None, "0385423dfd5a0e1c"),
];

/// The fault-free targets that reach `Characterizer::hc_first`, beyond
/// those already in `PINS` (fig7, fig11). Kept in their own test so the
/// two tables run in parallel. fig8–fig10 render the same campaign as
/// fig7, so they share its digest.
const HC_FIRST_PINS: &[(&str, Faults, &str)] = &[
    ("fig8", None, "fd77de81b79c65ca"),
    ("fig9", None, "fd77de81b79c65ca"),
    ("fig10", None, "fd77de81b79c65ca"),
    ("fig14", None, "69cd57c079c682b3"),
    ("fig15", None, "c78e25e6e6e8ad2e"),
    ("observations", None, "dab802fbac1ca677"),
    ("attack1", None, "e88bd49230b71009"),
    ("attack3", None, "184966fc91e555fd"),
    ("defense2", None, "abd0cc23517e069d"),
    ("ddr3", None, "52eac8c8f6699e66"),
    ("ablation", None, "f817dd90a10c0d7f"),
];

/// The remaining fault-free targets: tables, the cheap figures, the §8
/// defense/cost studies and the sweeps. Their own test, so the three
/// tables run in parallel. fig3 renders the same campaign as table3,
/// so it shares table3's digest; table1 and fig6 are text-only, so
/// theirs is the digest of `{}`.
const REST_PINS: &[(&str, Faults, &str)] = &[
    ("fig3", None, "f842611a26475112"),
    ("fig6", None, "08f44b07b5901a25"),
    ("fig12", None, "8a23a3549cb2f4f8"),
    ("fig13", None, "ec081065f7d76177"),
    ("table1", None, "08f44b07b5901a25"),
    ("table2", None, "da1b8605263448e8"),
    ("defense1", None, "d410ebc0adbf7c78"),
    ("defense3", None, "0919c16390da78cf"),
    ("defense4", None, "ef6954d8a2f241d6"),
    ("defense5", None, "74af61ba6e7456e4"),
    ("defense6", None, "34d9012706db903a"),
    ("chipkill", None, "140c6f25daff5522"),
    ("overhead", None, "85eeb6346462a859"),
    ("patterns", None, "d2734d23bb96e05d"),
    ("hcsweep", None, "8218b0c21b606f59"),
];

/// Runs every pin at smoke and fails with one line per moved digest.
fn check_pins(pins: &[(&str, Faults, &str)]) {
    let mut diffs = Vec::new();
    for &(target, faults, pinned) in pins {
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

#[test]
fn smoke_outputs_match_their_pinned_digests() {
    check_pins(PINS);
}

#[test]
fn hc_first_consumers_match_their_pinned_digests() {
    check_pins(HC_FIRST_PINS);
}

#[test]
fn remaining_targets_match_their_pinned_digests() {
    check_pins(REST_PINS);
}
