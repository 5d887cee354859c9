//! The three workloads. Each is a closed batch: one driver makes its
//! calls into the crates' public API back to back. Every input is
//! derived from the workload seed here; the program only sees the
//! generated modules, victim rows and request streams.

use crate::spans::Tracer;
use rh_core::experiments::{rowactive, temperature};
use rh_core::metrics::BER_HAMMERS;
use rh_core::{
    module_id, CampaignRunner, Characterizer, ExecutorConfig, ModuleTask, Scale, TestPlan,
};
use rh_defense::traits::{as_hook, NoDefense};
use rh_defense::{BlockHammer, Defense, DefenseSim, Graphene, Para, TargetRowRefresh, Twice};
use rh_dram::{ddr4_modules_of, BankId, DramModule, Manufacturer, ModuleConfig, RowAddr};
use rh_obs::{names, Recorder};
use rh_softmc::{ActivationHook, MemController, MemRequest, RowPolicy, TestBench};
use serde::Serialize;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Campaign worker threads; never more than the 2-core box it was sized on.
const WORKERS: usize = 2;
/// Double-sided hammers per defense in the §8.2 matrix.
const MATRIX_HAMMERS: u64 = 150_000;
/// Hammers per TRRespass sweep point.
const TRRESPASS_HAMMERS: u64 = 60_000;
/// Aggressor pairs of the TRRespass sweep.
const TRRESPASS_PAIRS: [u8; 5] = [1, 2, 4, 8, 12];
/// Requests in the memory-controller stream.
const MEMCTL_REQUESTS: u64 = 200_000;
/// Victims of the probe split, taken from the start of the default plan.
const PROBE_VICTIMS: usize = 16;
/// The headline §6 factors at tAggOn = 154.5 ns (PAPER.md §1), A–D:
/// BER increase factor and HCfirst reduction in percent.
const PAPER_BER_GAIN: [f64; 4] = [10.2, 3.1, 4.4, 9.6];
const PAPER_HC_REDUCTION_PCT: [f64; 4] = [40.0, 28.3, 32.7, 37.3];

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Core search and fault-model materialization over four modules.
    Characterize,
    /// The §8.2 attack-vs-defense loop: per-activation path, hot caches.
    Defend,
    /// The request-level FR-FCFS memory controller.
    Memctl,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Characterize, Workload::Defend, Workload::Memctl];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Characterize => "characterize",
            Workload::Defend => "defend",
            Workload::Memctl => "memctl",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one pass over a workload produced.
#[derive(Debug, Default)]
pub struct Body {
    /// Host seconds in module bring-up calls, summed over modules.
    pub setup_s: f64,
    /// FNV-1a 64 of the serialized simulated results.
    pub digest: String,
    /// Mean absolute relative error against the paper (characterize).
    pub paper_err_pct: Option<f64>,
    /// Per-layer numbers the driver measured around its own calls.
    pub layer: BTreeMap<String, f64>,
}

/// SplitMix64: derives independent input streams from the seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn digest<T: Serialize>(results: &T) -> Result<String, String> {
    let json = serde_json::to_string(results).map_err(|e| format!("serialize results: {e:?}"))?;
    Ok(format!("{:016x}", rh_core::fnv1a64(json.as_bytes())))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Runs the workload's timed body under the root span `root`.
///
/// # Errors
///
/// Any call that fails, or a result that breaks a structural invariant.
pub fn body(w: Workload, seed: u64, t: &Tracer, root: u64, traced: bool) -> Result<Body, String> {
    match w {
        Workload::Characterize => characterize(seed, t, root),
        Workload::Defend => defend(seed, t, root),
        Workload::Memctl => memctl(seed, t, root, traced),
    }
}

/// Per-layer extras of a traced rep, measured after the timed body:
/// single-call probes for characterize, activation replays for defend.
///
/// # Errors
///
/// Any call that fails.
pub fn probes(
    w: Workload,
    seed: u64,
    t: &Tracer,
    layer: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    match w {
        Workload::Characterize => characterize_probes(seed, t, layer),
        Workload::Defend => defend_replays(seed, t, layer),
        Workload::Memctl => Ok(()),
    }
}

/// Reads the counters the program itself records into `layer`.
pub fn recorder_counts(r: &Recorder, layer: &mut BTreeMap<String, f64>) {
    let c = |name: &str| r.counter_value(name) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hc_calls = r
        .span_stats()
        .get(names::CORE_HC_FIRST)
        .map_or(0, |s| s.count);
    let probes = rh_obs::hist::snapshot_all()
        .into_iter()
        .filter(|h| h.name == names::CORE_HC_FIRST_PROBE_NS)
        .map(|h| h.count)
        .sum::<u64>();
    let derive = c(names::FAULTMODEL_ROW_DERIVE);
    let hit = c(names::FAULTMODEL_CELLS_GLOBAL_HIT);
    for (k, v) in [
        ("core.ber_measurements", c(names::CORE_BER_MEASUREMENTS)),
        ("core.hc_first_calls", hc_calls as f64),
        ("core.hc_first_probes", probes as f64),
        ("dram.row_reads", c(names::DRAM_ROW_READ)),
        ("dram.row_writes", c(names::DRAM_ROW_WRITE)),
        ("faultmodel.row_derive", derive),
        ("faultmodel.early_out", c(names::FAULTMODEL_EVAL_EARLY_OUT)),
        ("faultmodel.global_hit_ratio", ratio(hit, hit + derive)),
        ("defense.refreshes", c(names::DEFENSE_REFRESH)),
        (
            "defense.victim_refresh_ratio",
            ratio(c(names::DEFENSE_VICTIM_REFRESH), c(names::DEFENSE_REFRESH)),
        ),
        ("dram.hammer_episodes", c(names::DRAM_HAMMER_EPISODES)),
    ] {
        layer.insert(k.to_string(), v);
    }
}

// ---------------------------------------------------------------- characterize

/// One DDR4 module per manufacturer: the first tested module of each,
/// with its identity re-keyed by the seed.
fn characterize_modules(seed: u64) -> Vec<(Manufacturer, ModuleConfig, u64)> {
    Manufacturer::ALL
        .into_iter()
        .map(|m| {
            let module = &ddr4_modules_of(m)[0];
            (
                m,
                module.module_config(),
                module.seed() ^ mix(seed ^ m.index() as u64),
            )
        })
        .collect()
}

/// Brings up one module the way every campaign attempt does.
fn bring_up(
    t: &Tracer,
    parent: u64,
    (m, cfg, module_seed): &(Manufacturer, ModuleConfig, u64),
) -> (Result<Characterizer, rh_core::CharError>, Duration) {
    let (bench, d1) = t.span("softmc.bench_with_config", parent, |_| {
        TestBench::with_config(*cfg, *m, *module_seed)
    });
    let (ch, d2) = t.span("core.characterizer_new", parent, |_| {
        Characterizer::new(bench, Scale::Default)
    });
    (ch, d1 + d2)
}

type ModuleResult = (
    rowactive::RowActiveAnalysis,
    temperature::HcFirstVsTemperature,
);

fn characterize(seed: u64, t: &Tracer, root: u64) -> Result<Body, String> {
    let modules = characterize_modules(seed);
    let setup_ns = AtomicU64::new(0);
    let experiment_ns = AtomicU64::new(0);
    let (out, campaign) = t.span("core.campaign_run", root, |camp| {
        let tasks = modules
            .iter()
            .map(|module| {
                let setup_ns = &setup_ns;
                ModuleTask::new(module_id(module.0, module.2), move |_attempt, _cancel| {
                    let (ch, d) = bring_up(t, camp, module);
                    setup_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
                    ch
                })
            })
            .collect();
        CampaignRunner::new()
            .with_executor(ExecutorConfig::with_workers(WORKERS))
            .run(
                tasks,
                |ch: &mut Characterizer| -> Result<ModuleResult, rh_core::CharError> {
                    let (ra, d1) = t.span("core.row_active_analysis", camp, |_| {
                        rowactive::row_active_analysis(ch)
                    });
                    let (hc, d2) = t.span("core.hcfirst_vs_temperature", camp, |_| {
                        temperature::hcfirst_vs_temperature(ch)
                    });
                    experiment_ns.fetch_add((d1 + d2).as_nanos() as u64, Ordering::Relaxed);
                    Ok((ra?, hc?))
                },
            )
    });
    let out = out.map_err(err("campaign"))?;
    if !out.report.is_clean() || out.results.len() != modules.len() {
        return Err(format!("campaign not clean: {}", out.report.summary_line()));
    }
    let mut per_mfr = Vec::with_capacity(modules.len());
    for (m, _, s) in &modules {
        let id = module_id(*m, *s);
        let (_, r) = out
            .results
            .iter()
            .find(|(i, _)| *i == id)
            .ok_or(format!("no result for {id}"))?;
        if r.0.on_sweep.is_empty() || r.0.off_sweep.is_empty() {
            return Err(format!("{id}: empty row-active sweep"));
        }
        per_mfr.push((*m, r));
    }
    let mut errs = Vec::new();
    for (m, (ra, _)) in &per_mfr {
        let i = m.index();
        errs.push((ra.ber_gain_on() - PAPER_BER_GAIN[i]).abs() / PAPER_BER_GAIN[i]);
        let hc = ra.hc_reduction_on() * 100.0;
        errs.push((hc - PAPER_HC_REDUCTION_PCT[i]).abs() / PAPER_HC_REDUCTION_PCT[i]);
    }
    let paper_err_pct = errs.iter().sum::<f64>() / errs.len() as f64 * 100.0;
    let setup_s = setup_ns.into_inner() as f64 * 1e-9;
    let experiment_s = experiment_ns.into_inner() as f64 * 1e-9;
    let results: Vec<(String, &ModuleResult)> = per_mfr
        .iter()
        .map(|(m, r)| (format!("{m:?}"), *r))
        .collect();
    let layer = BTreeMap::from([
        ("core.setup_busy_s".to_string(), setup_s),
        ("core.experiment_busy_s".to_string(), experiment_s),
        (
            "core.campaign_idle_s".to_string(),
            WORKERS as f64 * secs(campaign) - setup_s - experiment_s,
        ),
    ]);
    Ok(Body {
        setup_s,
        digest: digest(&results)?,
        paper_err_pct: Some(paper_err_pct),
        layer,
    })
}

/// Mean duration in `unit_s` units of the calls in `d`.
fn mean_in(d: &[Duration], unit_s: f64) -> f64 {
    d.iter().map(|x| secs(*x)).sum::<f64>() / d.len().max(1) as f64 / unit_s
}

/// Times single calls on the Mfr. A module: temperature settles, the
/// three parts of one BER probe, and whole HCfirst searches.
fn characterize_probes(
    seed: u64,
    t: &Tracer,
    layer: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let module = characterize_modules(seed).remove(0);
    let (r, _) = t.span("bench.probe", 0, |probe| -> Result<(), String> {
        let mut ch = bring_up(t, probe, &module).0.map_err(err("bring-up"))?;
        let mut settle = Vec::new();
        for celsius in [55.0, 90.0, 75.0, 50.0] {
            let (r, d) = t.span("softmc.set_temperature", probe, |_| {
                ch.bench_mut().set_temperature(celsius)
            });
            r.map_err(err("settle"))?;
            settle.push(d);
        }
        let plan = TestPlan::for_bank(ch.bench().module().geometry().rows_per_bank, Scale::Default);
        let victims: Vec<RowAddr> = plan
            .victims
            .iter()
            .take(PROBE_VICTIMS)
            .map(|&v| RowAddr(v))
            .collect();
        let (bank, pattern) = (ch.bank(), ch.wcdp());
        let (mut write, mut hammer, mut read, mut hc) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for &v in &victims {
            let (r, d) = t.span("core.write_neighborhood", probe, |_| {
                ch.write_neighborhood(v, pattern)
            });
            r.map_err(err("write_neighborhood"))?;
            write.push(d);
            let (left, right) = (
                ch.logical_of(RowAddr(v.0 - 1)),
                ch.logical_of(RowAddr(v.0 + 1)),
            );
            let (r, d) = t.span("softmc.hammer_double_sided", probe, |_| {
                ch.bench_mut()
                    .hammer_double_sided(bank, left, right, BER_HAMMERS, None, None)
            });
            r.map_err(err("hammer_double_sided"))?;
            hammer.push(d);
            let victim = ch.logical_of(v);
            let (r, d) = t.span("softmc.read_row", probe, |_| {
                ch.bench_mut().read_row(bank, victim)
            });
            black_box(r.map_err(err("read_row"))?);
            read.push(d);
        }
        for &v in &victims {
            let (r, d) = t.span("core.hc_first", probe, |_| {
                ch.hc_first(v, pattern, None, None)
            });
            black_box(r.map_err(err("hc_first"))?);
            hc.push(d);
        }
        for (k, v) in [
            ("softmc.set_temperature_ms", mean_in(&settle, 1e-3)),
            ("core.write_neighborhood_us", mean_in(&write, 1e-6)),
            ("softmc.hammer_double_sided_us", mean_in(&hammer, 1e-6)),
            ("softmc.read_row_us", mean_in(&read, 1e-6)),
            ("core.hc_first_us", mean_in(&hc, 1e-6)),
        ] {
            layer.insert(k.to_string(), v);
        }
        Ok(())
    });
    r
}

// ---------------------------------------------------------------- defend

/// The Mfr. B module identity and the physical victim row.
fn defend_inputs(seed: u64) -> (u64, RowAddr) {
    (
        mix(seed ^ 0xDEF0),
        RowAddr(2_000 + (mix(seed ^ 0xDEF1) % 24_000) as u32),
    )
}

/// The six defenses of the matrix, as the `repro defense-matrix` target
/// configures them.
fn matrix_defenses() -> Vec<Box<dyn Defense>> {
    vec![
        Box::new(NoDefense),
        Box::new(Para::new(0.002, 7)),
        Box::new(Graphene::new(8_000, 1_300_000)),
        Box::new(BlockHammer::new(4_000, 64_000_000_000, 5)),
        Box::new(TargetRowRefresh::new(4, 2)),
        Box::new(Twice::new(8_000, 64_000_000_000)),
    ]
}

fn defend_bench(
    t: &Tracer,
    parent: u64,
    module_seed: u64,
) -> Result<(TestBench, Duration), String> {
    let (mut bench, d1) = t.span("softmc.bench_new", parent, |_| {
        TestBench::new(Manufacturer::B, module_seed)
    });
    let (r, d2) = t.span("softmc.set_temperature", parent, |_| {
        bench.set_temperature(75.0)
    });
    r.map_err(err("settle"))?;
    Ok((bench, d1 + d2))
}

fn defend(seed: u64, t: &Tracer, root: u64) -> Result<Body, String> {
    let (module_seed, victim) = defend_inputs(seed);
    let runs = matrix_defenses()
        .into_iter()
        .map(|d| (d, 1u8, MATRIX_HAMMERS))
        .chain(TRRESPASS_PAIRS.map(|p| {
            (
                Box::new(TargetRowRefresh::new(4, 2)) as Box<dyn Defense>,
                p,
                TRRESPASS_HAMMERS,
            )
        }));
    let (mut setup, mut busy, mut acts) = (Duration::ZERO, Duration::ZERO, 0u64);
    let mut outcomes = Vec::new();
    for (mut defense, pairs, hammers) in runs {
        let (bench, d) = defend_bench(t, root, module_seed)?;
        setup += d;
        let (mut sim, _) = t.span("defense.sim_new", root, |_| DefenseSim::new(bench));
        let (o, d) = t.span("defense.run_many_sided", root, |_| {
            sim.run_many_sided(defense.as_mut(), victim, pairs, hammers, None)
        });
        let o = o.map_err(err("run_many_sided"))?;
        if o.achieved_hammers > hammers || o.victim_refreshes > o.refreshes {
            return Err(format!(
                "{} x{pairs}: inconsistent outcome {o:?}",
                o.defense
            ));
        }
        busy += d;
        acts += o.achieved_hammers * 2 * u64::from(pairs);
        outcomes.push((pairs, o));
    }
    let layer = BTreeMap::from([
        ("defense.sim_busy_s".to_string(), secs(busy)),
        (
            "defense.sim_ns_per_act".to_string(),
            secs(busy) * 1e9 / acts.max(1) as f64,
        ),
        ("defense.acts".to_string(), acts as f64),
    ]);
    Ok(Body {
        setup_s: secs(setup),
        digest: digest(&outcomes)?,
        paper_err_pct: None,
        layer,
    })
}

/// Replays the matrix's double-sided activation stream (victim ± 1,
/// one activation per tRAS + tRP) straight into each defense, then into
/// the bare module, to split the per-activation cost.
fn defend_replays(seed: u64, t: &Tracer, layer: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let (module_seed, victim) = defend_inputs(seed);
    let (r, _) = t.span("bench.replay", 0, |replay| -> Result<(), String> {
        let (mut bench, _) = defend_bench(t, replay, module_seed)?;
        let timing = bench.module().config().timing;
        let mapping = bench.module().config().mapping;
        let step = timing.t_ras + timing.t_rp;
        let aggressors = [victim.offset(-1), victim.offset(1)];
        let acts = 2 * MATRIX_HAMMERS;
        for mut d in matrix_defenses() {
            let label = d.name().to_ascii_lowercase();
            let (_, dur) = t.span(&format!("defense.on_activation.{label}"), replay, |_| {
                let mut now = 0;
                for i in 0..acts {
                    now += step;
                    black_box(d.on_activation(BankId(0), aggressors[(i % 2) as usize], now));
                }
            });
            layer.insert(
                format!("defense.on_activation_ns.{label}"),
                secs(dur) * 1e9 / acts as f64,
            );
        }
        let logical = aggressors.map(|p| mapping.physical_to_logical(p));
        let (r, dur) = t.span("dram.hammer_direct", replay, |_| {
            (0..acts).try_for_each(|i| {
                bench.module_mut().hammer_direct(
                    BankId(0),
                    logical[(i % 2) as usize],
                    1,
                    timing.t_ras,
                    timing.t_rp,
                )
            })
        });
        r.map_err(err("hammer_direct"))?;
        layer.insert(
            "dram.hammer_direct_ns".to_string(),
            secs(dur) * 1e9 / acts as f64,
        );
        Ok(())
    });
    r
}

// ---------------------------------------------------------------- memctl

/// A 70%-locality request stream over 8 banks, one request every 4 ns.
pub fn request_stream(seed: u64, n: u64) -> Vec<MemRequest> {
    let mut state = mix(seed ^ 0x3E3C) | 1;
    let mut unit = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut rows = [1000u32; 8];
    (0..n)
        .map(|i| {
            let bank = (i % 8) as usize;
            if unit() > 0.7 {
                rows[bank] = 1000 + (unit() * 2048.0) as u32;
            }
            MemRequest {
                id: i,
                bank: BankId(bank as u32),
                row: RowAddr(rows[bank]),
                column: (i % 64) as u32,
                is_write: i % 4 == 0,
                arrival: i * 4_000,
            }
        })
        .collect()
}

/// Wraps an activation hook so every call is timed and counted.
fn timed_hook(
    mut inner: ActivationHook,
    ns: Arc<AtomicU64>,
    calls: Arc<AtomicU64>,
) -> ActivationHook {
    Box::new(move |bank, row, now| {
        let start = Instant::now();
        let out = inner(bank, row, now);
        ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        calls.fetch_add(1, Ordering::Relaxed);
        out
    })
}

fn memctl(seed: u64, t: &Tracer, root: u64, traced: bool) -> Result<Body, String> {
    let (stream, _) = t.span("bench.request_stream", root, |_| {
        request_stream(seed, MEMCTL_REQUESTS)
    });
    let cfg = ModuleConfig::ddr4(Manufacturer::D);
    let cap = 3 * cfg.timing.t_ras;
    let policies: Vec<(&str, RowPolicy, Option<ActivationHook>)> = vec![
        ("open", RowPolicy::OpenPage, None),
        ("closed", RowPolicy::ClosedPage, None),
        ("capped", RowPolicy::CappedOpen { cap }, None),
        (
            "open+para",
            RowPolicy::OpenPage,
            Some(as_hook(Para::new(0.002, 7))),
        ),
        (
            "open+graphene",
            RowPolicy::OpenPage,
            Some(as_hook(Graphene::new(32_000, 1_300_000))),
        ),
    ];
    let (hook_ns, hook_calls) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (mut setup, mut submit, mut drain) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut all = Vec::new();
    for (label, policy, hook) in policies {
        let (module, d1) = t.span("dram.module_new", root, |_| DramModule::new(cfg));
        let (mut mc, d2) = t.span("softmc.memctl_new", root, |_| {
            MemController::new(module, policy)
        });
        setup += d1 + d2;
        if let Some(h) = hook {
            mc.set_hook(if traced {
                timed_hook(h, Arc::clone(&hook_ns), Arc::clone(&hook_calls))
            } else {
                h
            });
        }
        let (r, d) = t.span("softmc.memctl_submit", root, |_| {
            stream.iter().try_for_each(|r| mc.submit(*r))
        });
        r.map_err(err("submit"))?;
        submit += d;
        let (stats, d) = t.span("softmc.memctl_drain", root, |_| mc.drain());
        drain += d;
        if stats.completed != MEMCTL_REQUESTS {
            return Err(format!(
                "{label}: completed {} of {MEMCTL_REQUESTS}",
                stats.completed
            ));
        }
        hits += stats.row_hits;
        misses += stats.row_misses;
        all.push((label, stats));
    }
    let served = (MEMCTL_REQUESTS * all.len() as u64) as f64;
    let calls = hook_calls.load(Ordering::Relaxed);
    let layer = BTreeMap::from([
        ("softmc.memctl_submit_s".to_string(), secs(submit)),
        ("softmc.memctl_drain_s".to_string(), secs(drain)),
        (
            "softmc.memctl_ns_per_request".to_string(),
            secs(submit + drain) * 1e9 / served,
        ),
        (
            "defense.hook_ns".to_string(),
            hook_ns.load(Ordering::Relaxed) as f64 / calls.max(1) as f64,
        ),
        ("defense.hook_calls".to_string(), calls as f64),
        (
            "softmc.memctl_hit_rate".to_string(),
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("softmc.memctl_row_misses".to_string(), misses as f64),
    ]);
    Ok(Body {
        setup_s: secs(setup),
        digest: digest(&all)?,
        paper_err_pct: None,
        layer,
    })
}
