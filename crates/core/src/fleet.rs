//! The job table: the one lease/retry/quarantine/checkpoint state
//! machine behind both local campaigns and `repro fleet`.
//!
//! A [`JobTable`] hands out work under **leases** and guarantees that
//! every module commits **exactly one** result no matter how many
//! attempts raced on it. Two drivers run it:
//!
//! * [`CampaignRunner`](crate::CampaignRunner) drives it in-process:
//!   the supervised executor's worker threads grant, run and commit or
//!   fail each attempt, and its watchdog marks overrunning jobs
//!   [`ModuleStatus::TimedOut`].
//! * The `rh-bench` coordinator drives it over HTTP: leases go to
//!   worker processes that may die (`kill -9` mid-job) and expire at
//!   their deadline.
//!
//! Either way the table decides Retrying vs Quarantined and the
//! backoff, and its per-module record is the campaign's
//! [`ModuleOutcome`].
//!
//! # The lease state machine (DESIGN.md §11)
//!
//! ```text
//! Pending ──grant──▶ Granted ──heartbeat ok──▶ Heartbeating ─┐
//!    ▲                  │                          │     ▲   │ heartbeat ok
//!    │                  │ misses ≥ threshold       │     └───┘
//!    │                  ▼                          ▼
//!    │               Suspect ◀──────── misses ≥ threshold
//!    │                  │
//!    │   deadline passes│(tick) or transient fail
//!    ├──◀── Expired ◀───┘         (backoff per RetryPolicy, attempts += 0
//!    │                             — the grant already counted)
//!    └── re-grant = *re-dispatch* (generation += 1)
//! ```
//!
//! Terminal phases are a committed result (`Succeeded`/`Recovered`),
//! `Quarantined` (attempt budget exhausted, or a non-transient error)
//! and `TimedOut` (the local watchdog's deadline). A job still pending
//! or leased when its run ends reports as `Cancelled { attempts }`.
//!
//! # The at-most-once commit rule
//!
//! Every grant mints a fresh `(lease_id, generation)`. A result may
//! commit **only** from the lease that currently owns the job: a
//! zombie worker's late reply (or a timed-out local attempt that
//! finally returns) is counted as [`CommitOutcome::Stale`]; a repeat
//! of an already-committed module is [`CommitOutcome::Duplicate`].
//! Either way the committed result never changes — re-dispatch plus
//! this rule is what makes `kill -9` invisible in the final report.
//!
//! # Checkpoints
//!
//! [`JobTable::with_checkpoint`] resumes from, and then after every
//! terminal transition rewrites, one versioned JSON file
//! (`{version, entries: [{id, outcome, result}]}`, tmp-write + atomic
//! rename). Only terminal jobs are persisted: a resumed run re-runs
//! exactly the work that was unfinished, and nothing else.
//!
//! All methods take the current time as a parameter (`now_ms`), so
//! the whole state machine is deterministic under test.

use crate::campaign::{module_id, CampaignReport, ModuleOutcome, ModuleStatus, RetryPolicy};
use crate::config::Scale;
use crate::error::CharError;
use crate::Characterizer;
use rh_dram::{ddr4_modules_of, Manufacturer, TestedModule};
use rh_obs::names;
use rh_softmc::{CancelToken, FaultPlan, TestBench};
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};

/// Current checkpoint schema version. Version 1 lacked the `TimedOut`
/// status; its entries still decode, so any version ≤ this is accepted
/// and anything newer is rejected with a clear error.
const CHECKPOINT_VERSION: u32 = 2;

/// Liveness of an active lease, driven by heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseState {
    /// Granted; no heartbeat observed yet.
    Granted,
    /// At least one heartbeat has renewed the lease.
    Heartbeating,
    /// Enough consecutive heartbeats missed that the worker is
    /// presumed dead; the lease still expires only at its deadline.
    Suspect,
}

/// One active lease.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lease {
    /// Unique across the whole fleet run.
    pub lease_id: u64,
    /// 1-based grant counter for this job; the commit key.
    pub generation: u32,
    /// The worker the job was dispatched to.
    pub worker: String,
    /// Absolute coordinator-clock deadline (ms).
    pub deadline_ms: u64,
    /// Liveness state.
    pub state: LeaseState,
    /// Consecutive missed heartbeats.
    pub missed_heartbeats: u32,
}

/// Where one job is in its lifecycle.
#[derive(Debug)]
enum JobPhase {
    /// Ready to grant once `now >= not_before_ms`.
    Pending {
        /// Retry backoff gate (0 = immediately ready).
        not_before_ms: u64,
    },
    /// Owned by an active lease.
    Leased(Lease),
    /// Terminal: committed (`Succeeded`/`Recovered`), `Quarantined` or
    /// `TimedOut`. Never `Cancelled` — that is how an unfinished job
    /// reports.
    Done(ModuleStatus),
}

/// One module's experiment: the unit a local campaign runs and a
/// fleet worker executes. `target` names the campaign-backed `repro`
/// target whose per-module experiment runs; the other fields pick the
/// simulated module and the plan. The result is deterministic in the
/// job, so any worker (or a replay) reproduces it bit for bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModuleJob {
    /// Campaign-backed target (e.g. `table3`).
    pub target: String,
    /// Manufacturer of the module.
    pub mfr: Manufacturer,
    /// Module index within the manufacturer (wraps around its
    /// tested modules).
    pub index: usize,
    /// Base seed, exactly as `repro --seed`.
    pub seed: u64,
    /// Experiment scale.
    pub scale: Scale,
}

impl ModuleJob {
    /// The checkpoint-stable module id, `<mfr>-<module seed>#<index>`.
    #[must_use]
    pub fn module_id(&self) -> String {
        let (_, identity) = tested_module(self.mfr, self.index, self.seed);
        format!("{}#{}", module_id(self.mfr, identity), self.index)
    }

    /// A fresh characterizer of the job's module for one attempt. The
    /// cancel token is installed before the (expensive) build, so even
    /// bring-up unwinds promptly; `faults` are re-derived from the
    /// attempt number, so a transient fault does not replay identically
    /// on every retry.
    ///
    /// # Errors
    ///
    /// [`CharError`] from the characterizer's bring-up.
    pub fn characterizer(
        &self,
        faults: Option<&FaultPlan>,
        attempt: u32,
        cancel: &CancelToken,
    ) -> Result<Characterizer, CharError> {
        let mut bench = module_bench(self.mfr, self.index, self.seed);
        bench.set_cancel_token(cancel.clone());
        if let Some(plan) = faults {
            bench.install_faults(&plan.for_attempt(attempt));
        }
        Characterizer::new(bench, self.scale)
    }
}

/// The tested module that index `index` of `mfr` wraps to, and its
/// identity seed under base `seed`.
fn tested_module(mfr: Manufacturer, index: usize, seed: u64) -> (TestedModule, u64) {
    let mut modules = ddr4_modules_of(mfr);
    let module = modules.swap_remove(index % modules.len());
    let identity = module.seed() ^ seed.rotate_left(17);
    (module, identity)
}

/// A fault-free bench of module `index` of `mfr` under base `seed`.
#[must_use]
pub fn module_bench(mfr: Manufacturer, index: usize, seed: u64) -> TestBench {
    let (module, identity) = tested_module(mfr, index, seed);
    TestBench::with_config(module.module_config(), mfr, identity)
}

/// One job: a module plus its dispatch history.
#[derive(Debug)]
struct Job {
    module_id: String,
    /// What a worker runs; `None` for local campaign modules, whose
    /// work is a closure.
    job: Option<ModuleJob>,
    /// Leases granted so far.
    attempts: u32,
    phase: JobPhase,
    /// One rendered error per failed attempt.
    errors: Vec<String>,
    /// Scheduled backoff (ms) before each retry, in retry order.
    backoffs_ms: Vec<u64>,
    /// The committed result; `Some` exactly when the job committed.
    result: Option<Value>,
    /// Replay token minted when the result committed (see
    /// [`ReplayToken`]); `None` until then, and forever for jobs
    /// without a [`ModuleJob`].
    token: Option<String>,
}

impl Job {
    /// The status a report shows for this job right now.
    fn status(&self) -> ModuleStatus {
        match &self.phase {
            JobPhase::Done(status) => status.clone(),
            _ => ModuleStatus::Cancelled { attempts: self.attempts },
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.phase, JobPhase::Done(_))
    }

    fn quarantine(&mut self, error: String) {
        self.phase = JobPhase::Done(ModuleStatus::Quarantined { attempts: self.attempts, error });
    }

    /// Schedules the retry after failed attempt `self.attempts`.
    fn retry(&mut self, policy: &RetryPolicy, now_ms: u64) -> u64 {
        let backoff_ms = policy.backoff_ms(&self.module_id, self.attempts);
        self.backoffs_ms.push(backoff_ms);
        self.phase = JobPhase::Pending { not_before_ms: now_ms + backoff_ms };
        backoff_ms
    }
}

/// The wire form of one job grant, POSTed to a worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobGrant {
    /// Stable module identifier (the commit key for reports).
    pub module_id: String,
    /// The work; `None` only for local campaign grants.
    pub job: Option<ModuleJob>,
    /// Fleet-unique lease identifier.
    pub lease_id: u64,
    /// Grant generation for this module.
    pub generation: u32,
    /// Advisory lease duration: how long the worker has before the
    /// coordinator presumes it dead.
    pub lease_ms: u64,
}

/// What [`JobTable::commit`] decided about an arriving result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The result is the module's one committed result.
    Committed,
    /// The module already committed; this reply changes nothing.
    Duplicate,
    /// The reply's lease no longer owns the job (expired and
    /// re-dispatched, or never known); it is discarded.
    Stale,
}

/// What [`JobTable::fail`] decided about a reported failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailOutcome {
    /// The job went back to pending behind a backoff gate.
    Retrying {
        /// Scheduled backoff before the job is grantable again (ms).
        backoff_ms: u64,
    },
    /// Attempt budget exhausted or the error was not transient.
    Quarantined,
    /// The reporting lease no longer owns the job; ignored.
    Stale,
}

/// One lease expired by [`JobTable::tick`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExpiredLease {
    /// The job that lost its lease.
    pub module_id: String,
    /// The expired lease id.
    pub lease_id: u64,
    /// The worker that held it.
    pub worker: String,
    /// Whether the job was quarantined instead of re-queued.
    pub quarantined: bool,
}

/// FNV-1a 64-bit hash — the result fingerprint inside a
/// [`ReplayToken`]. Stable, dependency-free, and fast enough to hash
/// every committed result at commit time.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A deterministic replay token, stamped on every committed job
/// result: everything needed to re-execute the job single-process
/// (`repro analyze replay <token>`) and diff the result bit-for-bit.
///
/// Wire form (10 `:`-separated fields, first is the literal version
/// tag):
///
/// ```text
/// rtv1:<target>:<mfr>:<index>:<seed:016x>:<scale>:<net-plan>:<net-seed:016x>:<result-hash:016x>:<trace:032x>
/// ```
///
/// `target`/`mfr`/`index`/`seed`/`scale` are the [`ModuleJob`] (`mfr`
/// and `scale` by their serde names, e.g. `A` and `Smoke`);
/// `net-plan`/`net-seed` pin the network-fault
/// environment the result survived (informational for replay — the
/// single-process re-execution runs fault-free and must still match);
/// `result-hash` is [`fnv1a64`] over the committed result's compact
/// JSON; `trace` links the token back to the distributed trace that
/// produced it (0 for local runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayToken {
    /// The job that produced the result.
    pub job: ModuleJob,
    /// Armed net-fault plan name (`none` when unfaulted).
    pub net_plan: String,
    /// Net-fault plan seed (0 when unfaulted).
    pub net_seed: u64,
    /// [`fnv1a64`] of the committed result's compact JSON.
    pub result_hash: u64,
    /// Trace the job executed under (0 = untraced/local).
    pub trace_id: u128,
}

impl ReplayToken {
    /// Parses the wire form back into a token.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.trim().split(':').collect();
        if parts.len() != 10 {
            return Err(format!("expected 10 ':'-separated fields, got {}", parts.len()));
        }
        if parts[0] != "rtv1" {
            return Err(format!("unknown token version '{}' (expected rtv1)", parts[0]));
        }
        let hex = |what: &str, s: &str| -> Result<u128, String> {
            u128::from_str_radix(s, 16).map_err(|e| format!("bad {what} '{s}': {e}"))
        };
        // `mfr` and `scale` travel by their serde names.
        let named = |s: &str| Value::Str(s.to_string());
        let job = ModuleJob {
            target: parts[1].to_string(),
            mfr: Manufacturer::from_json_value(&named(parts[2]))
                .map_err(|e| format!("bad manufacturer '{}': {e}", parts[2]))?,
            index: parts[3].parse().map_err(|e| format!("bad index '{}': {e}", parts[3]))?,
            seed: hex("seed", parts[4])? as u64,
            scale: Scale::from_json_value(&named(parts[5]))
                .map_err(|e| format!("bad scale '{}': {e}", parts[5]))?,
        };
        Ok(Self {
            job,
            net_plan: parts[6].to_string(),
            net_seed: hex("net seed", parts[7])? as u64,
            result_hash: hex("result hash", parts[8])? as u64,
            trace_id: hex("trace id", parts[9])?,
        })
    }
}

/// Mints the [`ReplayToken`] of `job`'s committed `result`.
#[must_use]
fn mint_replay_token(
    job: &ModuleJob,
    result: &Value,
    net_plan: &str,
    net_seed: u64,
    trace_id: u128,
) -> String {
    ReplayToken {
        job: job.clone(),
        net_plan: net_plan.to_string(),
        net_seed,
        result_hash: fnv1a64(result.to_string().as_bytes()),
        trace_id,
    }
    .to_string()
}

impl std::fmt::Display for ReplayToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // ':' inside free-text fields would shift every later field.
        let clean = |s: &str| s.replace(':', "_");
        let name = |v: Value| v.as_str().unwrap_or_default().to_string();
        write!(
            f,
            "rtv1:{}:{}:{}:{:016x}:{}:{}:{:016x}:{:016x}:{:032x}",
            clean(&self.job.target),
            name(self.job.mfr.to_json_value()),
            self.job.index,
            self.job.seed,
            name(self.job.scale.to_json_value()),
            clean(&self.net_plan),
            self.net_seed,
            self.result_hash,
            self.trace_id
        )
    }
}

/// Structured summary of a fleet run (or, inside
/// [`CampaignRunner`](crate::CampaignRunner), of a local one).
/// `results` carries the committed results in job input order, so a
/// fleet run of seed *s* renders bit-identically to a single-process
/// run of seed *s*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// `(module id, committed result)` in input order.
    pub results: Vec<(String, Value)>,
    /// Per-module outcomes and counts, as a campaign reports them.
    pub campaign: CampaignReport,
    /// Grants beyond each module's first (the re-dispatch count).
    pub redispatches: u64,
    /// `true` when the coordinator finished *partially* because
    /// workers were permanently lost (circuit-breaker eviction with
    /// no healthy replacement): the report is explicitly incomplete
    /// rather than silently short. Worker loss that the fleet fully
    /// absorbed (every module still committed) is not degradation.
    pub degraded: bool,
    /// Workers permanently evicted during the run (informational;
    /// nonzero with `degraded == false` means the fleet rode through
    /// the losses).
    pub workers_lost: u64,
    /// `(module id, replay token)` for each committed result of a
    /// [`ModuleJob`] (see [`ReplayToken`]).
    pub replay_tokens: Vec<(String, String)>,
}

impl FleetReport {
    /// `true` when every module committed and nothing was lost to
    /// degradation.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.campaign.is_clean() && !self.degraded
    }

    /// One-line human summary. Degradation appends a suffix (the
    /// prefix format is stable for log scrapers).
    #[must_use]
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "{} module(s): {} committed, {} quarantined, {} redispatch(es)",
            self.campaign.outcomes.len(),
            self.results.len(),
            self.campaign.quarantined,
            self.redispatches
        );
        if self.degraded {
            line.push_str(&format!(" [DEGRADED: {} worker(s) lost]", self.workers_lost));
        }
        line
    }

    /// Flags the report as the partial product of a degraded run:
    /// `workers_lost` workers were evicted, and not every module
    /// committed. Called by the coordinator; pure reporting.
    pub fn mark_degraded(&mut self, workers_lost: u64) {
        self.workers_lost = workers_lost;
        self.degraded = workers_lost > 0 && self.results.len() < self.campaign.outcomes.len();
        rh_obs::gauge(names::FLEET_DEGRADED, if self.degraded { 1.0 } else { 0.0 });
    }
}

/// Circuit-breaker tuning for one worker link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakerPolicy {
    /// Consecutive transport failures (while Closed or probing) that
    /// trip the breaker Open.
    pub failure_threshold: u32,
    /// Cooldown before an Open breaker admits a half-open probe (ms);
    /// doubles per consecutive trip.
    pub cooldown_ms: u64,
    /// Upper bound on the escalated cooldown (ms).
    pub max_cooldown_ms: u64,
    /// Trips before the worker is evicted from dispatch permanently.
    pub max_trips: u32,
    /// Seed for the deterministic cooldown jitter, so replays of the
    /// same seed reproduce the same probe schedule.
    pub jitter_seed: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown_ms: 500,
            max_cooldown_ms: 8_000,
            max_trips: 4,
            jitter_seed: 0,
        }
    }
}

/// Where one worker's breaker stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are blocked until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe request is in flight;
    /// its outcome re-closes or re-trips the breaker.
    HalfOpen,
    /// Permanently removed from dispatch after `max_trips` trips.
    Evicted,
}

impl BreakerState {
    /// Short tag for events.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
            BreakerState::Evicted => "evicted",
        }
    }
}

/// SplitMix64 finalizer for the deterministic cooldown jitter.
fn breaker_mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-worker circuit breaker (DESIGN.md §13): Closed → Open after
/// `failure_threshold` consecutive failures, Open → HalfOpen after a
/// jittered, escalating cooldown, HalfOpen → Closed on a successful
/// probe or back to Open on a failed one, and → Evicted for good
/// after `max_trips` trips. Pure and clock-injected like
/// [`JobTable`]; the coordinator drives it with dispatch outcomes.
///
/// ```text
///            failures ≥ threshold                cooldown elapsed
/// Closed ───────────────────────────▶ Open ──────────────────────▶ HalfOpen
///    ▲                                 ▲                               │
///    │            probe ok             │        probe failed           │
///    └─────────────────────────────────┼───────────────────────────────┤
///                                      └───────────────────────────────┘
///                       (trips ≥ max_trips anywhere ▶ Evicted, terminal)
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitBreaker {
    worker: String,
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_failures: u32,
    trips: u32,
    open_until_ms: u64,
}

impl CircuitBreaker {
    /// A closed breaker guarding `worker`.
    #[must_use]
    pub fn new(worker: impl Into<String>, policy: BreakerPolicy) -> Self {
        Self {
            worker: worker.into(),
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
            open_until_ms: 0,
        }
    }

    /// The guarded worker's address/name.
    #[must_use]
    pub fn worker(&self) -> &str {
        &self.worker
    }

    /// Current state (does not advance the clock; see
    /// [`allow_request`](Self::allow_request)).
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker tripped Open.
    #[must_use]
    pub fn trips(&self) -> u32 {
        self.trips
    }

    /// Whether the worker is permanently out of dispatch.
    #[must_use]
    pub fn is_evicted(&self) -> bool {
        self.state == BreakerState::Evicted
    }

    /// When an Open breaker next admits a probe (ms); 0 unless Open.
    #[must_use]
    pub fn open_until_ms(&self) -> u64 {
        if self.state == BreakerState::Open {
            self.open_until_ms
        } else {
            0
        }
    }

    /// Whether a request may be sent to this worker now. Closed:
    /// always. Open: transitions to HalfOpen and admits exactly one
    /// probe once the cooldown has elapsed. HalfOpen: the probe is
    /// already in flight, no more until its outcome lands. Evicted:
    /// never.
    pub fn allow_request(&mut self, now_ms: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Evicted | BreakerState::HalfOpen => false,
            BreakerState::Open => {
                if now_ms < self.open_until_ms {
                    return false;
                }
                self.transition(BreakerState::HalfOpen);
                rh_obs::counter(names::FLEET_BREAKER_HALF_OPEN, 1);
                true
            }
        }
    }

    /// Records a successful request: failures reset; a half-open
    /// probe's success re-closes the breaker (and resets the trip
    /// escalation — the worker earned a clean slate).
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.trips = 0;
            self.transition(BreakerState::Closed);
            rh_obs::counter(names::FLEET_BREAKER_CLOSE, 1);
        }
    }

    /// Records a failed request; returns the state afterwards. A
    /// Closed breaker trips after `failure_threshold` consecutive
    /// failures; a HalfOpen probe failure re-trips immediately. Each
    /// trip doubles the cooldown (with deterministic jitter) and
    /// counts toward eviction.
    pub fn record_failure(&mut self, now_ms: u64) -> BreakerState {
        match self.state {
            BreakerState::Evicted | BreakerState::Open => self.state,
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.policy.failure_threshold {
                    self.trip(now_ms);
                }
                self.state
            }
            BreakerState::HalfOpen => {
                self.consecutive_failures += 1;
                self.trip(now_ms);
                self.state
            }
        }
    }

    fn trip(&mut self, now_ms: u64) {
        self.trips += 1;
        rh_obs::counter(names::FLEET_BREAKER_TRIP, 1);
        if self.trips >= self.policy.max_trips {
            self.transition(BreakerState::Evicted);
            rh_obs::counter(names::FLEET_BREAKER_EVICTED, 1);
            return;
        }
        self.open_until_ms = now_ms + self.cooldown_for_trip(self.trips);
        self.transition(BreakerState::Open);
    }

    /// The escalated, jittered cooldown for trip number `trip`
    /// (1-based): `cooldown_ms * 2^(trip-1)`, capped, then jittered
    /// ±25% by a pure function of `(jitter_seed, worker, trip)` so
    /// two breakers tripping together do not probe in lockstep — yet
    /// a replay of the same seed probes on the same schedule.
    #[must_use]
    pub fn cooldown_for_trip(&self, trip: u32) -> u64 {
        let base = self
            .policy
            .cooldown_ms
            .saturating_mul(1u64 << trip.saturating_sub(1).min(20))
            .min(self.policy.max_cooldown_ms)
            .max(1);
        let mut h = self.policy.jitter_seed ^ u64::from(trip).wrapping_mul(0xA24B_AED4_963E_E407);
        for b in self.worker.bytes() {
            h = breaker_mix(h ^ u64::from(b));
        }
        // Map the draw onto [-25%, +25%] of base.
        let span = base / 2;
        let jitter = if span == 0 { 0 } else { breaker_mix(h) % (span + 1) };
        base - span / 2 + jitter
    }

    fn transition(&mut self, to: BreakerState) {
        let from = self.state;
        if from == to {
            return;
        }
        self.state = to;
        rh_obs::event!(
            names::FLEET_BREAKER_EVENT,
            worker = self.worker.clone(),
            from = from.tag(),
            to = to.tag(),
            failures = self.consecutive_failures,
            trips = self.trips
        );
    }
}

/// Fleet sizing and liveness knobs.
#[derive(Debug, Clone)]
pub struct FleetPolicy {
    /// Bounded retry/backoff schedule, shared with campaigns.
    pub retry: RetryPolicy,
    /// Lease duration: a worker must commit or heartbeat within this.
    pub lease_ms: u64,
    /// Consecutive missed heartbeats before a lease turns suspect.
    pub suspect_after_misses: u32,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        Self { retry: RetryPolicy::default(), lease_ms: 5_000, suspect_after_misses: 2 }
    }
}

/// The authoritative job/lease/commit state of one run. Pure and
/// clock-injected; [`CampaignRunner`](crate::CampaignRunner) drives it
/// in-process and the HTTP coordinator in `rh-bench` drives it across
/// worker processes.
#[derive(Debug)]
pub struct JobTable {
    jobs: Vec<Job>,
    policy: FleetPolicy,
    /// Every grant ever made: `(lease_id, job index)`. Late replies
    /// are resolved against this, not just active leases.
    grants: Vec<(u64, usize)>,
    next_lease_id: u64,
    redispatches: u64,
    checkpoint: Option<PathBuf>,
    /// Net-fault environment baked into replay tokens.
    net_plan: String,
    net_seed: u64,
    /// Lease⇄trace bindings: the distributed trace each dispatch
    /// executed under, recorded by the coordinator loop so the token
    /// minted at commit can link back to the trace tree.
    traces: Vec<(u64, u128)>,
}

impl JobTable {
    /// An empty table under `policy`.
    #[must_use]
    pub fn new(policy: FleetPolicy) -> Self {
        Self {
            jobs: Vec::new(),
            policy,
            grants: Vec::new(),
            next_lease_id: 1,
            redispatches: 0,
            checkpoint: None,
            net_plan: "none".to_string(),
            net_seed: 0,
            traces: Vec::new(),
        }
    }

    /// Declares the net-fault environment this run executes under, so
    /// replay tokens record which chaos the committed results
    /// survived. Call before the first commit; the default is
    /// `("none", 0)`.
    pub fn set_replay_context(&mut self, net_plan: impl Into<String>, net_seed: u64) {
        self.net_plan = net_plan.into();
        self.net_seed = net_seed;
    }

    /// Binds `lease_id` to the distributed trace its dispatch executes
    /// under. The token minted when that lease commits carries the
    /// trace id; unbound leases (local runs, tests) mint trace 0.
    pub fn bind_trace(&mut self, lease_id: u64, trace_id: u128) {
        self.traces.push((lease_id, trace_id));
    }

    /// Offsets all future lease IDs by `base`. A restarted
    /// coordinator would otherwise mint the same IDs as its previous
    /// incarnation (the counter restarts at 1), and a worker still
    /// holding a finished job under such an ID would answer the
    /// "new" lease with the *old* job's result — committing one
    /// module's data under another module's name. Callers pass a
    /// per-incarnation nonce (e.g. wall-clock derived); tests keep
    /// the deterministic default of 0.
    pub fn set_lease_base(&mut self, base: u64) {
        self.next_lease_id = base.saturating_add(1);
    }

    /// Admits one job. Input order is report order.
    pub fn add_job(&mut self, module_id: impl Into<String>, job: Option<ModuleJob>) {
        self.jobs.push(Job {
            module_id: module_id.into(),
            job,
            attempts: 0,
            phase: JobPhase::Pending { not_before_ms: 0 },
            errors: Vec::new(),
            backoffs_ms: Vec::new(),
            result: None,
            token: None,
        });
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> &FleetPolicy {
        &self.policy
    }

    /// Persists a checkpoint to `path` after every terminal transition
    /// and — if the file already exists — resumes from it now: its
    /// entries are applied to matching jobs as they were recorded,
    /// everything else (including work that was in flight when the
    /// previous run died) stays pending and re-runs.
    ///
    /// Call after [`add_job`](Self::add_job)ing the full campaign.
    ///
    /// # Errors
    ///
    /// [`CharError::Checkpoint`] for unreadable, corrupt, or
    /// future-versioned files, and for a success entry without its
    /// result.
    pub fn with_checkpoint(&mut self, path: impl Into<PathBuf>) -> Result<(), CharError> {
        let path = path.into();
        clean_stale_tmp(&path);
        let entries = load_checkpoint(&path)?;
        if !entries.is_empty() {
            rh_obs::event!(names::CAMPAIGN_CHECKPOINT_LOADED, entries = entries.len());
        }
        for entry in entries {
            let Some(job) = self.jobs.iter_mut().find(|j| j.module_id == entry.id) else {
                continue;
            };
            let ModuleOutcome { status, errors, backoffs_ms, .. } = entry.outcome;
            if matches!(status, ModuleStatus::Cancelled { .. }) {
                continue;
            }
            if status.is_success() {
                let result = entry.result.ok_or_else(|| CharError::Checkpoint {
                    detail: format!("checkpoint entry for {} has no result", entry.id),
                })?;
                // Re-mint the replay token rather than persist it: a
                // resumed result is local to this incarnation (trace 0).
                job.token = job
                    .job
                    .as_ref()
                    .map(|j| mint_replay_token(j, &result, &self.net_plan, self.net_seed, 0));
                job.result = Some(result);
            }
            // Every retry logged one backoff: attempts = retries + 1.
            job.attempts = backoffs_ms.len() as u32 + 1;
            self.redispatches += u64::from(job.attempts - 1);
            job.errors = errors;
            job.backoffs_ms = backoffs_ms;
            job.phase = JobPhase::Done(status);
        }
        self.checkpoint = Some(path);
        Ok(())
    }

    /// The next grantable job's module id, in input order, honoring
    /// retry backoff gates. `None` means nothing is ready *right
    /// now* — there may still be leased or backoff-gated jobs.
    #[must_use]
    pub fn next_ready(&self, now_ms: u64) -> Option<String> {
        self.jobs
            .iter()
            .find(|j| matches!(j.phase, JobPhase::Pending { not_before_ms } if now_ms >= not_before_ms))
            .map(|j| j.module_id.clone())
    }

    /// The earliest time any backoff-gated pending job becomes ready,
    /// for the dispatch loop's sleep calculation.
    #[must_use]
    pub fn next_ready_at(&self) -> Option<u64> {
        self.jobs
            .iter()
            .filter_map(|j| match j.phase {
                JobPhase::Pending { not_before_ms } => Some(not_before_ms),
                _ => None,
            })
            .min()
    }

    /// Grants a lease on `module_id` to `worker`, minting a fresh
    /// `(lease_id, generation)`. The backoff gate is advisory here:
    /// [`next_ready`](Self::next_ready) honors it, a local driver that
    /// retries at once may grant straight away.
    ///
    /// # Errors
    ///
    /// [`CharError::Checkpoint`] if the job is unknown or not
    /// currently pending (finished, timed out, or already leased).
    pub fn grant(
        &mut self,
        module_id: &str,
        worker: &str,
        now_ms: u64,
    ) -> Result<JobGrant, CharError> {
        let lease_ms = self.policy.lease_ms;
        let lease_id = self.next_lease_id;
        let idx = self.index_of(module_id).ok_or_else(|| CharError::Checkpoint {
            detail: format!("fleet: grant on unknown module '{module_id}'"),
        })?;
        let job = &mut self.jobs[idx];
        if !matches!(job.phase, JobPhase::Pending { .. }) {
            return Err(CharError::Checkpoint {
                detail: format!("fleet: grant on non-pending module '{module_id}'"),
            });
        }
        self.next_lease_id += 1;
        job.attempts += 1;
        let generation = job.attempts;
        job.phase = JobPhase::Leased(Lease {
            lease_id,
            generation,
            worker: worker.to_string(),
            deadline_ms: now_ms.saturating_add(lease_ms),
            state: LeaseState::Granted,
            missed_heartbeats: 0,
        });
        self.grants.push((lease_id, idx));
        rh_obs::counter(names::FLEET_DISPATCH, 1);
        if generation > 1 {
            self.redispatches += 1;
            rh_obs::counter(names::FLEET_REDISPATCH, 1);
        }
        rh_obs::event!(
            names::FLEET_GRANT_EVENT,
            module = module_id.to_string(),
            worker = worker.to_string(),
            lease = lease_id,
            generation = generation
        );
        Ok(JobGrant {
            module_id: module_id.to_string(),
            job: job.job.clone(),
            lease_id,
            generation,
            lease_ms,
        })
    }

    /// Records a successful heartbeat (any successful poll of the
    /// worker counts): renews the lease deadline and clears the miss
    /// counter. Returns `false` for a lease that no longer owns its
    /// job.
    pub fn heartbeat(&mut self, lease_id: u64, now_ms: u64) -> bool {
        let lease_ms = self.policy.lease_ms;
        match self.active_lease_mut(lease_id) {
            Some(lease) => {
                lease.deadline_ms = now_ms + lease_ms;
                lease.state = LeaseState::Heartbeating;
                lease.missed_heartbeats = 0;
                true
            }
            None => false,
        }
    }

    /// Records a missed heartbeat (connection refused, timeout, bad
    /// reply). Returns the lease state afterwards, or `None` for a
    /// lease that no longer owns its job. The lease still only
    /// expires at its deadline — a suspect worker gets the benefit of
    /// the doubt until then.
    pub fn heartbeat_missed(&mut self, lease_id: u64) -> Option<LeaseState> {
        let threshold = self.policy.suspect_after_misses;
        let lease = self.active_lease_mut(lease_id)?;
        lease.missed_heartbeats += 1;
        rh_obs::counter(names::FLEET_HEARTBEAT_MISSED, 1);
        if lease.missed_heartbeats >= threshold {
            lease.state = LeaseState::Suspect;
        }
        Some(lease.state)
    }

    /// Returns a job to pending *without* consuming an attempt — the
    /// dispatch itself failed (connection refused before the worker
    /// ever saw the job), so the module's retry budget is untouched.
    /// The grant's generation is burned, which is exactly what makes
    /// a late reply from a half-delivered job stale.
    pub fn release(&mut self, lease_id: u64, now_ms: u64) {
        let base = self.policy.retry.base_backoff_ms;
        if let Some(idx) = self.active_lease_index(lease_id) {
            let job = &mut self.jobs[idx];
            job.attempts = job.attempts.saturating_sub(1);
            job.phase = JobPhase::Pending { not_before_ms: now_ms + base };
        }
    }

    /// Applies a failed attempt from lease `lease_id`. Transient
    /// errors retry behind the deterministic backoff until the attempt
    /// budget runs out; anything else quarantines.
    pub fn fail(
        &mut self,
        lease_id: u64,
        error: &str,
        transient: bool,
        now_ms: u64,
    ) -> FailOutcome {
        let Some(idx) = self.active_lease_index(lease_id) else {
            return FailOutcome::Stale;
        };
        let job = &mut self.jobs[idx];
        job.errors.push(error.to_string());
        if transient && job.attempts < self.policy.retry.max_attempts {
            let backoff_ms = job.retry(&self.policy.retry, now_ms);
            FailOutcome::Retrying { backoff_ms }
        } else {
            job.quarantine(error.to_string());
            rh_obs::counter(names::FLEET_QUARANTINED, 1);
            self.save_if_configured();
            FailOutcome::Quarantined
        }
    }

    /// Expires every lease whose deadline has passed. Expired jobs go
    /// back to pending behind the retry backoff (they re-dispatch on
    /// the next [`grant`](Self::grant)), or quarantine when the
    /// attempt budget is spent.
    pub fn tick(&mut self, now_ms: u64) -> Vec<ExpiredLease> {
        let max_attempts = self.policy.retry.max_attempts;
        let mut expired = Vec::new();
        for job in &mut self.jobs {
            let JobPhase::Leased(lease) = &job.phase else { continue };
            if now_ms < lease.deadline_ms {
                continue;
            }
            let info = ExpiredLease {
                module_id: job.module_id.clone(),
                lease_id: lease.lease_id,
                worker: lease.worker.clone(),
                quarantined: job.attempts >= max_attempts,
            };
            rh_obs::counter(names::FLEET_LEASE_EXPIRED, 1);
            rh_obs::event!(
                names::FLEET_EXPIRE_EVENT,
                module = info.module_id.clone(),
                lease = info.lease_id,
                worker = info.worker.clone()
            );
            job.errors.push(format!(
                "lease {} on worker {} expired after {} attempt(s)",
                lease.lease_id, lease.worker, job.attempts
            ));
            if info.quarantined {
                job.quarantine("lease expired; attempt budget exhausted".to_string());
                rh_obs::counter(names::FLEET_QUARANTINED, 1);
            } else {
                job.retry(&self.policy.retry, now_ms);
            }
            expired.push(info);
        }
        if expired.iter().any(|e| e.quarantined) {
            self.save_if_configured();
        }
        expired
    }

    /// Marks `module_id` timed out at the local watchdog's deadline,
    /// unless it already finished. Its lease stops owning it, so the
    /// wedged attempt's late [`commit`](Self::commit) is stale.
    /// Returns whether the job timed out.
    pub fn time_out(&mut self, module_id: &str, elapsed_ms: u64, deadline_ms: u64) -> bool {
        let Some(job) = self.jobs.iter_mut().find(|j| j.module_id == module_id) else {
            return false;
        };
        if job.is_done() {
            return false;
        }
        job.phase = JobPhase::Done(ModuleStatus::TimedOut { elapsed_ms, deadline_ms });
        self.save_if_configured();
        true
    }

    /// Applies an arriving result under the at-most-once rule: only
    /// the lease that currently owns the job may commit. See the
    /// [module docs](self).
    pub fn commit(&mut self, lease_id: u64, result: Value) -> CommitOutcome {
        let Some(&(_, idx)) = self.grants.iter().find(|(id, _)| *id == lease_id) else {
            rh_obs::counter(names::FLEET_DUPLICATE, 1);
            return CommitOutcome::Stale;
        };
        let job = &mut self.jobs[idx];
        match &job.phase {
            JobPhase::Done(status) if status.is_success() => {
                rh_obs::counter(names::FLEET_DUPLICATE, 1);
                CommitOutcome::Duplicate
            }
            JobPhase::Leased(lease) if lease.lease_id == lease_id => {
                let trace_id = self
                    .traces
                    .iter()
                    .find(|(id, _)| *id == lease_id)
                    .map_or(0, |&(_, t)| t);
                job.token = job.job.as_ref().map(|j| {
                    mint_replay_token(j, &result, &self.net_plan, self.net_seed, trace_id)
                });
                job.result = Some(result);
                job.phase = JobPhase::Done(match job.attempts {
                    0 | 1 => ModuleStatus::Succeeded,
                    attempts => ModuleStatus::Recovered { attempts },
                });
                rh_obs::counter(names::FLEET_COMMIT, 1);
                self.save_if_configured();
                CommitOutcome::Committed
            }
            // The job moved on: expired & re-leased, re-pending,
            // quarantined or timed out. The late reply is dropped.
            _ => {
                rh_obs::counter(names::FLEET_DUPLICATE, 1);
                CommitOutcome::Stale
            }
        }
    }

    /// Whether every job reached a terminal phase.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.jobs.iter().all(Job::is_done)
    }

    /// Jobs admitted.
    #[must_use]
    pub fn total(&self) -> usize {
        self.jobs.len()
    }

    /// The status `module_id` would report now: its terminal status,
    /// or `Cancelled { attempts }` while it is unfinished. `None` for
    /// an unknown module.
    #[must_use]
    pub fn status(&self, module_id: &str) -> Option<ModuleStatus> {
        self.index_of(module_id).map(|idx| self.jobs[idx].status())
    }

    /// [`status`](Self::status) of the job lease `lease_id` was
    /// granted on, for any lease ever minted.
    #[must_use]
    pub fn lease_status(&self, lease_id: u64) -> Option<ModuleStatus> {
        let &(_, idx) = self.grants.iter().find(|(id, _)| *id == lease_id)?;
        Some(self.jobs[idx].status())
    }

    /// Active leases, for the poll loop: `(lease_id, worker, state)`.
    #[must_use]
    pub fn active_leases(&self) -> Vec<(u64, String, LeaseState)> {
        self.jobs
            .iter()
            .filter_map(|j| match &j.phase {
                JobPhase::Leased(l) => Some((l.lease_id, l.worker.clone(), l.state)),
                _ => None,
            })
            .collect()
    }

    /// Grants beyond each module's first.
    #[must_use]
    pub fn redispatches(&self) -> u64 {
        self.redispatches
    }

    /// The final report, moving the committed results out of the
    /// table. Jobs still pending or leased report as `Cancelled`.
    #[must_use]
    pub fn into_report(self) -> FleetReport {
        let mut results = Vec::new();
        let mut replay_tokens = Vec::new();
        let mut outcomes = Vec::with_capacity(self.jobs.len());
        for job in self.jobs {
            let status = job.status();
            if let Some(result) = job.result {
                results.push((job.module_id.clone(), result));
            }
            if let Some(token) = job.token {
                replay_tokens.push((job.module_id.clone(), token));
            }
            outcomes.push(ModuleOutcome {
                id: job.module_id,
                status,
                errors: job.errors,
                backoffs_ms: job.backoffs_ms,
            });
        }
        FleetReport {
            results,
            campaign: CampaignReport::from_outcomes(outcomes),
            redispatches: self.redispatches,
            degraded: false,
            workers_lost: 0,
            replay_tokens,
        }
    }

    fn index_of(&self, module_id: &str) -> Option<usize> {
        self.jobs.iter().position(|j| j.module_id == module_id)
    }

    fn active_lease_index(&self, lease_id: u64) -> Option<usize> {
        self.jobs.iter().position(
            |j| matches!(&j.phase, JobPhase::Leased(l) if l.lease_id == lease_id),
        )
    }

    fn active_lease_mut(&mut self, lease_id: u64) -> Option<&mut Lease> {
        self.jobs.iter_mut().find_map(|j| match &mut j.phase {
            JobPhase::Leased(l) if l.lease_id == lease_id => Some(l),
            _ => None,
        })
    }

    /// Rewrites the checkpoint, if one is configured. A failed write
    /// only degrades resumability, so it never fails the run.
    fn save_if_configured(&self) {
        let Some(path) = &self.checkpoint else { return };
        let saved = self.save_checkpoint(path);
        rh_obs::event!(
            names::CAMPAIGN_CHECKPOINT_SAVED,
            entries = saved.as_ref().map_or(0, |n| *n),
            ok = saved.is_ok(),
        );
    }

    /// Writes the terminal entries to `path` via tmp-write + atomic
    /// rename; returns how many. Unfinished jobs are not persisted.
    fn save_checkpoint(&self, path: &Path) -> Result<usize, CharError> {
        let entries: Vec<CheckpointEntry> = self
            .jobs
            .iter()
            .filter(|job| job.is_done())
            .map(|job| CheckpointEntry {
                id: job.module_id.clone(),
                outcome: ModuleOutcome {
                    id: job.module_id.clone(),
                    status: job.status(),
                    errors: job.errors.clone(),
                    backoffs_ms: job.backoffs_ms.clone(),
                },
                result: job.result.clone(),
            })
            .collect();
        let count = entries.len();
        let cp = Checkpoint { version: CHECKPOINT_VERSION, entries };
        let bytes = serde_json::to_vec_pretty(&cp.to_json_value()).map_err(|e| {
            CharError::Checkpoint { detail: format!("serialize checkpoint: {e}") }
        })?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes).map_err(|e| CharError::Checkpoint {
            detail: format!("write {}: {e}", tmp.display()),
        })?;
        std::fs::rename(&tmp, path).map_err(|e| CharError::Checkpoint {
            detail: format!("rename {} -> {}: {e}", tmp.display(), path.display()),
        })?;
        Ok(count)
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointEntry {
    id: String,
    outcome: ModuleOutcome,
    /// The serialized result for successful modules.
    result: Option<Value>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Checkpoint {
    version: u32,
    entries: Vec<CheckpointEntry>,
}

/// Removes a stale `*.tmp` left behind by a crash between a save's
/// write and rename. The rename is atomic, so the real checkpoint is
/// either the previous complete save or the new one — the orphan is
/// always safe to delete.
fn clean_stale_tmp(path: &Path) {
    let tmp = path.with_extension("tmp");
    if tmp.exists() && std::fs::remove_file(&tmp).is_ok() {
        rh_obs::event!(names::CAMPAIGN_CHECKPOINT_STALE_TMP, path = tmp.display().to_string());
    }
}

/// Loads a checkpoint and returns its entry count — the "is this file
/// still usable?" probe shutdown paths and the soak harness use.
///
/// # Errors
///
/// [`CharError::Checkpoint`] for unreadable, corrupt, or
/// future-versioned files. A missing file is `Ok(0)` (a run that never
/// saved is trivially resumable).
pub fn verify_checkpoint(path: &Path) -> Result<usize, CharError> {
    load_checkpoint(path).map(|entries| entries.len())
}

fn load_checkpoint(path: &Path) -> Result<Vec<CheckpointEntry>, CharError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(CharError::Checkpoint { detail: format!("read {}: {e}", path.display()) })
        }
    };
    let value: Value = serde_json::from_str(&text).map_err(|e| CharError::Checkpoint {
        detail: format!("parse {}: {e}", path.display()),
    })?;
    // Check the version *before* decoding the whole structure, so a
    // checkpoint from a newer schema fails with "written by version 3,
    // this build reads ≤ 2" instead of an opaque serde error about
    // whichever field changed.
    match value.field("version").as_u64() {
        Some(v) if v > u64::from(CHECKPOINT_VERSION) => {
            return Err(CharError::Checkpoint {
                detail: format!(
                    "{} was written by checkpoint schema version {v}; this build reads \
                     versions <= {CHECKPOINT_VERSION} — rerun without --resume or upgrade",
                    path.display()
                ),
            });
        }
        Some(_) => {}
        None => {
            return Err(CharError::Checkpoint {
                detail: format!("{} has no checkpoint version field", path.display()),
            });
        }
    }
    let cp = Checkpoint::from_json_value(&value).map_err(|e| CharError::Checkpoint {
        detail: format!("decode {}: {e} — rerun without --resume", path.display()),
    })?;
    Ok(cp.entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn table() -> JobTable {
        let mut t = JobTable::new(FleetPolicy {
            retry: RetryPolicy { max_attempts: 3, ..RetryPolicy::default() },
            lease_ms: 1_000,
            suspect_after_misses: 2,
        });
        t.add_job("m0", None);
        t.add_job("m1", None);
        t
    }

    fn job() -> ModuleJob {
        ModuleJob {
            target: "fig11".to_string(),
            mfr: Manufacturer::A,
            index: 3,
            seed: 42,
            scale: Scale::Smoke,
        }
    }

    #[test]
    fn replay_token_round_trips_and_rejects_malformed() {
        let token = ReplayToken {
            job: job(),
            net_plan: "flaky-link".to_string(),
            net_seed: 7,
            result_hash: 0xdead_beef,
            trace_id: 0xabc,
        };
        let wire = token.to_string();
        assert!(wire.starts_with("rtv1:fig11:A:3:000000000000002a:Smoke:"), "got {wire}");
        assert_eq!(ReplayToken::parse(&wire), Ok(token.clone()));
        // Colons in free-text fields must not shift later fields.
        let evil = ReplayToken { net_plan: "a:b".to_string(), ..token };
        assert_eq!(ReplayToken::parse(&evil.to_string()).map(|t| t.net_plan), Ok("a_b".into()));
        for bad in [
            "",
            "rtv1:short",
            "rtv2:w:A:1:0:Smoke:p:0:0:0",
            "rtv1:w:A:x:0:Smoke:p:0:0:0",
            "rtv1:w:MfrA:1:0:Smoke:p:0:0:0",
            "rtv1:w:A:1:0:Huge:p:0:0:0",
        ] {
            assert!(ReplayToken::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn commit_mints_replay_tokens_for_module_jobs_only() {
        let mut t = table();
        let j = ModuleJob { index: 0, seed: 9, ..job() };
        t.add_job(j.module_id(), Some(j.clone()));
        t.set_replay_context("flaky-link", 1234);
        // A local campaign module: committed, but tokenless.
        let g = t.grant("m0", "w1", 0).unwrap();
        assert_eq!(g.job, None);
        assert_eq!(t.commit(g.lease_id, json!({"ok": true})), CommitOutcome::Committed);
        // A module job, with a trace bound to the lease.
        let g = t.grant(&j.module_id(), "w1", 0).unwrap();
        assert_eq!(g.job.as_ref(), Some(&j), "the grant carries the job");
        t.bind_trace(g.lease_id, 0xfeed);
        let result = json!({"ber": 0.5});
        assert_eq!(t.commit(g.lease_id, result.clone()), CommitOutcome::Committed);
        let report = t.into_report();
        let token_of = |id: &str| {
            report.replay_tokens.iter().find(|(m, _)| m == id).map(|(_, token)| token.clone())
        };
        assert_eq!(token_of("m0"), None);
        let token_str = token_of(&j.module_id()).expect("token minted");
        let token = ReplayToken::parse(&token_str).expect("token parses");
        assert_eq!(token.job, j);
        assert_eq!((token.net_plan.as_str(), token.net_seed), ("flaky-link", 1234));
        assert_eq!(token.trace_id, 0xfeed);
        assert_eq!(
            token.result_hash,
            fnv1a64(rh_core_result_json(&result).as_bytes()),
            "hash covers the committed result's compact JSON"
        );
    }

    #[test]
    fn module_job_round_trips_through_json() {
        let j = job();
        let v = j.to_json_value();
        assert_eq!(v.to_string(), r#"{"target":"fig11","mfr":"A","index":3,"seed":42,"scale":"Smoke"}"#);
        assert_eq!(ModuleJob::from_json_value(&v), Ok(j));
    }

    /// Compact-JSON helper mirroring what the minting path hashes.
    fn rh_core_result_json(v: &Value) -> String {
        v.to_string()
    }

    #[test]
    fn lease_base_offsets_every_minted_id() {
        let mut t = table();
        t.set_lease_base(7 << 32);
        let g0 = t.grant("m0", "w1", 0).unwrap();
        let g1 = t.grant("m1", "w1", 0).unwrap();
        assert_eq!(g0.lease_id, (7 << 32) + 1);
        assert_eq!(g1.lease_id, (7 << 32) + 2);
        // The offset changes identity only — commits still resolve.
        assert_eq!(t.commit(g0.lease_id, json!({"ok": true})), CommitOutcome::Committed);
    }

    #[test]
    fn grant_heartbeat_commit_happy_path() {
        let mut t = table();
        assert_eq!(t.next_ready(0).as_deref(), Some("m0"));
        let g = t.grant("m0", "w1", 0).unwrap();
        assert_eq!((g.lease_id, g.generation), (1, 1));
        // m0 now leased; the next ready job is m1.
        assert_eq!(t.next_ready(0).as_deref(), Some("m1"));

        assert!(t.heartbeat(g.lease_id, 900));
        // Heartbeat renewed the deadline: tick at the original
        // deadline expires nothing.
        assert!(t.tick(1_100).is_empty());

        assert_eq!(t.commit(g.lease_id, json!({"ber": 0.5})), CommitOutcome::Committed);
        assert_eq!(t.commit(g.lease_id, json!({"ber": 0.5})), CommitOutcome::Duplicate);
        assert!(!t.is_done(), "m1 still pending");
        assert_eq!(t.status("m0"), Some(ModuleStatus::Succeeded));
        assert_eq!(t.status("m1"), Some(ModuleStatus::Cancelled { attempts: 0 }));
    }

    #[test]
    fn expired_lease_redispatches_and_zombie_reply_is_stale() {
        let mut t = table();
        let g1 = t.grant("m0", "w1", 0).unwrap();
        // Park m1 on another worker (and keep it alive) so the gate
        // arithmetic below is m0's alone.
        let parked = t.grant("m1", "w9", 0).unwrap();
        assert!(t.heartbeat(parked.lease_id, 900));
        // No heartbeat on m0's lease: it dies at its deadline.
        let expired = t.tick(1_000);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].module_id, "m0");
        assert!(!expired[0].quarantined);

        // The job waits out its backoff, then re-dispatches with a
        // bumped generation.
        assert!(t.next_ready(1_000).as_deref() != Some("m0"), "backoff gates the re-grant");
        let ready_at = t.next_ready_at().unwrap();
        assert!(ready_at > 1_000);
        let g2 = t.grant("m0", "w2", ready_at).unwrap();
        assert_eq!(g2.generation, 2);
        assert!(g2.lease_id > g1.lease_id);
        assert_eq!(t.redispatches(), 1);

        // The zombie's late reply must not commit...
        assert_eq!(t.commit(g1.lease_id, json!({"zombie": true})), CommitOutcome::Stale);
        // ...and the live lease's result must.
        assert_eq!(t.commit(g2.lease_id, json!({"ber": 1.0})), CommitOutcome::Committed);
        let report = t.into_report();
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.results[0].1, json!({"ber": 1.0}), "zombie result must not win");
        assert_eq!(report.redispatches, 1);
        assert_eq!(report.campaign.outcomes[0].status, ModuleStatus::Recovered { attempts: 2 });
    }

    #[test]
    fn heartbeat_misses_mark_suspect_but_deadline_rules() {
        let mut t = table();
        let g = t.grant("m0", "w1", 0).unwrap();
        assert_eq!(t.heartbeat_missed(g.lease_id), Some(LeaseState::Granted));
        assert_eq!(t.heartbeat_missed(g.lease_id), Some(LeaseState::Suspect));
        // Suspect is advisory; the lease still holds until deadline.
        assert!(t.tick(500).is_empty());
        // A successful heartbeat rehabilitates the lease.
        assert!(t.heartbeat(g.lease_id, 600));
        assert_eq!(t.active_leases()[0].2, LeaseState::Heartbeating);
        assert!(t.tick(1_500).is_empty(), "renewed deadline holds");
        assert_eq!(t.tick(1_700).len(), 1, "then expires");
        // Heartbeats on a dead lease are refused.
        assert!(!t.heartbeat(g.lease_id, 1_800));
        assert_eq!(t.heartbeat_missed(g.lease_id), None);
    }

    #[test]
    fn attempt_budget_exhaustion_quarantines() {
        let mut t = table();
        let mut now = 0u64;
        for attempt in 1..=3u32 {
            let ready_at = t.next_ready_at().unwrap().max(now);
            let g = t.grant("m0", "w1", ready_at).unwrap();
            assert_eq!(g.generation, attempt);
            now = ready_at + 1_000;
            let expired = t.tick(now);
            assert_eq!(expired.len(), 1);
            assert_eq!(expired[0].quarantined, attempt == 3);
        }
        // Quarantined jobs never re-dispatch.
        t.grant("m1", "w1", now).unwrap();
        assert_eq!(t.next_ready(u64::MAX), None);
        let report = t.into_report();
        assert_eq!(report.campaign.quarantined, 1);
        assert!(matches!(
            report.campaign.outcomes[0].status,
            ModuleStatus::Quarantined { attempts: 3, .. }
        ));
        assert_eq!(report.campaign.outcomes[0].backoffs_ms.len(), 2, "one backoff per retry");
        // The still-leased m1 reports as unfinished.
        assert_eq!(report.campaign.outcomes[1].status, ModuleStatus::Cancelled { attempts: 1 });
        assert!(!report.is_clean());
    }

    #[test]
    fn transient_failure_retries_and_hard_failure_quarantines() {
        let mut t = table();
        let g = t.grant("m0", "w1", 0).unwrap();
        let FailOutcome::Retrying { backoff_ms } =
            t.fail(g.lease_id, "host link flake", true, 100)
        else {
            panic!("transient failure should retry");
        };
        assert!(backoff_ms > 0);
        // Stale failure reports are ignored.
        assert_eq!(t.fail(g.lease_id, "again", true, 150), FailOutcome::Stale);

        let g2 = t.grant("m0", "w1", 100 + backoff_ms).unwrap();
        assert_eq!(g2.generation, 2);
        assert_eq!(
            t.fail(g2.lease_id, "module unresponsive", false, 300),
            FailOutcome::Quarantined
        );
        let report = t.into_report();
        assert_eq!(report.campaign.outcomes[0].errors.len(), 2);
        assert_eq!(report.campaign.outcomes[0].backoffs_ms, vec![backoff_ms]);
        assert_eq!(report.campaign.quarantined, 1);
    }

    #[test]
    fn timed_out_job_rejects_the_late_commit() {
        let mut t = table();
        let g = t.grant("m0", "local", 0).unwrap();
        assert!(t.time_out("m0", 8_001, 8_000));
        assert!(!t.time_out("m0", 9_000, 8_000), "a terminal job cannot time out again");
        // The wedged attempt finally returns: its lease no longer owns
        // the job, so neither its result nor its failure lands.
        assert_eq!(t.commit(g.lease_id, json!({"late": true})), CommitOutcome::Stale);
        assert_eq!(t.fail(g.lease_id, "cancelled", false, 9_000), FailOutcome::Stale);
        assert!(t.grant("m0", "local", 9_000).is_err(), "a timed-out job is not re-run");
        let g1 = t.grant("m1", "local", 0).unwrap();
        assert_eq!(t.commit(g1.lease_id, json!(1)), CommitOutcome::Committed);
        assert!(!t.time_out("m1", 9_000, 8_000), "a committed job keeps its result");
        let report = t.into_report();
        let timed_out = ModuleStatus::TimedOut { elapsed_ms: 8_001, deadline_ms: 8_000 };
        assert_eq!(report.campaign.outcomes[0].status, timed_out);
        assert_eq!(report.results, vec![("m1".to_string(), json!(1))]);
    }

    #[test]
    fn release_returns_job_without_burning_an_attempt() {
        let mut t = table();
        let g = t.grant("m0", "w1", 0).unwrap();
        t.release(g.lease_id, 0);
        let ready_at = t.next_ready_at().unwrap();
        let g2 = t.grant("m0", "w2", ready_at).unwrap();
        assert_eq!(g2.generation, 1, "released dispatch must not consume the budget");
        // But the released lease is dead for commits.
        assert_eq!(t.commit(g.lease_id, json!(1)), CommitOutcome::Stale);
        assert_eq!(t.commit(g2.lease_id, json!(2)), CommitOutcome::Committed);
    }

    #[test]
    fn checkpoint_roundtrip_drops_in_flight_leases() {
        let dir = std::env::temp_dir().join(format!("rh-fleet-cp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.json");
        let _ = std::fs::remove_file(&path);

        let mut t = table();
        t.add_job("m2", None);
        t.with_checkpoint(&path).unwrap();
        let g0 = t.grant("m0", "w1", 0).unwrap();
        assert_eq!(t.commit(g0.lease_id, json!({"ok": 0})), CommitOutcome::Committed);
        let g1 = t.grant("m1", "w1", 0).unwrap();
        let _in_flight = t.grant("m2", "w2", 0).unwrap();
        assert_eq!(
            t.fail(g1.lease_id, "module unresponsive", false, 10),
            FailOutcome::Quarantined
        );
        // m2's lease is in flight when the "coordinator dies" here.

        let mut resumed = JobTable::new(FleetPolicy {
            retry: RetryPolicy { max_attempts: 3, ..RetryPolicy::default() },
            lease_ms: 1_000,
            suspect_after_misses: 2,
        });
        resumed.add_job("m0", None);
        resumed.add_job("m1", None);
        resumed.add_job("m2", None);
        resumed.with_checkpoint(&path).unwrap();

        // Committed and quarantined entries survive; only the
        // in-flight m2 is pending again.
        assert_eq!(resumed.next_ready(0).as_deref(), Some("m2"));
        assert_eq!(resumed.status("m0"), Some(ModuleStatus::Succeeded));
        let g2 = resumed.grant("m2", "w3", 0).unwrap();
        assert_eq!(resumed.commit(g2.lease_id, json!({"ok": 2})), CommitOutcome::Committed);
        assert!(resumed.is_done());
        assert_eq!(resumed.status("m1"), Some(ModuleStatus::Quarantined {
            attempts: 1,
            error: "module unresponsive".to_string(),
        }));
        let report = resumed.into_report();
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.campaign.quarantined, 1);
        assert_eq!(verify_checkpoint(&path).unwrap(), 3);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn future_checkpoint_version_is_rejected_with_clear_error() {
        let dir = std::env::temp_dir().join(format!("rh-fleet-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("future.json");
        std::fs::write(&path, "{\"version\": 99, \"entries\": []}").unwrap();
        // Both the resume path and the verify probe go through the one
        // loader, and both name the version and the way out.
        let resume_err = table().with_checkpoint(&path).unwrap_err();
        let verify_err = verify_checkpoint(&path).unwrap_err();
        for err in [resume_err, verify_err] {
            match &err {
                CharError::Checkpoint { detail } => {
                    assert!(detail.contains("version 99"), "{detail}");
                    assert!(detail.contains("--resume"), "{detail}");
                }
                other => panic!("expected Checkpoint error, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn grant_refuses_unknown_and_non_pending_jobs() {
        let mut t = table();
        assert!(t.grant("nope", "w1", 0).is_err());
        t.grant("m0", "w1", 0).unwrap();
        assert!(t.grant("m0", "w1", 0).is_err(), "double grant must be refused");
    }

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(
            "127.0.0.1:9001",
            BreakerPolicy {
                failure_threshold: 3,
                cooldown_ms: 1_000,
                max_cooldown_ms: 8_000,
                max_trips: 3,
                jitter_seed: 42,
            },
        )
    }

    #[test]
    fn breaker_trips_after_threshold_and_admits_one_probe() {
        let mut b = breaker();
        assert!(b.allow_request(0));
        assert_eq!(b.record_failure(0), BreakerState::Closed);
        assert_eq!(b.record_failure(0), BreakerState::Closed);
        assert!(b.allow_request(0), "two failures stay under the threshold");
        assert_eq!(b.record_failure(0), BreakerState::Open);
        assert_eq!(b.trips(), 1);

        // Open: blocked until the cooldown elapses.
        assert!(!b.allow_request(1));
        let ready = b.open_until_ms();
        assert!((750..=1_500).contains(&ready), "jittered cooldown out of band: {ready}");
        // Exactly one half-open probe is admitted, not a stampede.
        assert!(b.allow_request(ready));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow_request(ready), "second probe must wait for the first");

        // Probe success re-closes and resets the escalation.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
        assert!(b.allow_request(ready + 1));
    }

    #[test]
    fn failed_probe_retrips_with_escalating_cooldown_until_eviction() {
        let mut b = breaker();
        for _ in 0..3 {
            b.record_failure(0);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let first_cooldown = b.cooldown_for_trip(1);
        let second_cooldown = b.cooldown_for_trip(2);
        assert!(
            second_cooldown > first_cooldown,
            "cooldowns must escalate: {first_cooldown} -> {second_cooldown}"
        );

        // Probe #1 fails: trip 2.
        let t1 = b.open_until_ms();
        assert!(b.allow_request(t1));
        assert_eq!(b.record_failure(t1), BreakerState::Open);
        assert_eq!(b.trips(), 2);

        // Probe #2 fails: trip 3 == max_trips -> evicted for good.
        let t2 = b.open_until_ms();
        assert!(t2 > t1);
        assert!(b.allow_request(t2));
        assert_eq!(b.record_failure(t2), BreakerState::Evicted);
        assert!(b.is_evicted());
        assert!(!b.allow_request(u64::MAX), "eviction is terminal");
        assert_eq!(b.record_failure(u64::MAX), BreakerState::Evicted);
    }

    #[test]
    fn breaker_jitter_is_deterministic_and_worker_dependent() {
        let b1 = breaker();
        let b2 = breaker();
        assert_eq!(b1.cooldown_for_trip(1), b2.cooldown_for_trip(1), "same seed, same schedule");
        let other = CircuitBreaker::new(
            "127.0.0.1:9002",
            BreakerPolicy { jitter_seed: 42, ..BreakerPolicy::default() },
        );
        let same_policy = CircuitBreaker::new(
            "127.0.0.1:9001",
            BreakerPolicy { jitter_seed: 42, ..BreakerPolicy::default() },
        );
        assert_ne!(
            other.cooldown_for_trip(1),
            same_policy.cooldown_for_trip(1),
            "different workers must not probe in lockstep"
        );
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = breaker();
        b.record_failure(0);
        b.record_failure(0);
        b.record_success();
        b.record_failure(0);
        b.record_failure(0);
        assert_eq!(b.state(), BreakerState::Closed, "streak must reset on success");
        b.record_failure(0);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn degraded_report_semantics() {
        // m1 never finishes: the coordinator lost its last worker.
        let mut t = table();
        let g = t.grant("m0", "w1", 0).unwrap();
        assert_eq!(t.commit(g.lease_id, json!({"ok": 0})), CommitOutcome::Committed);
        let mut partial = t.into_report();
        assert_eq!(partial.results.len(), 1);
        assert_eq!(partial.campaign.cancelled, 1, "the unfinished job reports as cancelled");
        partial.mark_degraded(1);
        assert!(partial.degraded);
        assert!(!partial.is_clean());
        assert!(
            partial.summary_line().starts_with("2 module(s): 1 committed, 0 quarantined"),
            "stable prefix broken: {}",
            partial.summary_line()
        );
        assert!(partial.summary_line().contains("[DEGRADED: 1 worker(s) lost]"));

        // Losing workers while still committing everything is NOT
        // degradation — the fleet absorbed it (fleet-smoke relies on
        // this: kill -9 one of two workers, still clean 4/4).
        let mut t = table();
        for (m, w) in [("m0", "w1"), ("m1", "w2")] {
            let g = t.grant(m, w, 0).unwrap();
            assert_eq!(t.commit(g.lease_id, json!({"ok": m})), CommitOutcome::Committed);
        }
        let mut full = t.into_report();
        full.mark_degraded(1);
        assert!(!full.degraded);
        assert!(full.is_clean());
        assert_eq!(full.workers_lost, 1, "losses stay visible in the report");
        assert!(!full.summary_line().contains("DEGRADED"));
    }
}
