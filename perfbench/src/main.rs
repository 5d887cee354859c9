//! End-to-end and per-layer benchmark of the RowHammer characterization
//! stack. See `README.md` beside this package for the metrics.
//!
//! ```text
//! rh-perfbench --workload <characterize|defend|memctl> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The driver process runs back-to-back reps, each in a fresh child
//! process so every rep starts with empty process-global fault-model
//! caches (as every `repro` invocation does), until `--seconds` have
//! passed. It checks each rep's output digest, prints a report, and
//! prints one JSON result object as its last line.

mod spans;
mod workloads;

use serde::{Deserialize, Serialize};
use spans::Span;
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::Workload;

/// End-to-end metrics (tracing off): name and unit.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (traced run): name and unit. Each is reported on
/// every workload; one a workload never reaches reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("core.setup_busy_s", "s"),
    ("core.experiment_busy_s", "s"),
    ("core.campaign_idle_s", "s"),
    ("softmc.set_temperature_ms", "ms"),
    ("core.hc_first_us", "us"),
    ("core.write_neighborhood_us", "us"),
    ("softmc.hammer_double_sided_us", "us"),
    ("softmc.read_row_us", "us"),
    ("core.ber_measurements", "count"),
    ("core.hc_first_calls", "count"),
    ("core.hc_first_probes", "count"),
    ("dram.row_reads", "count"),
    ("dram.row_writes", "count"),
    ("faultmodel.row_derive", "count"),
    ("faultmodel.early_out", "count"),
    ("faultmodel.global_hit_ratio", "ratio"),
    ("paper_err_pct", "%"),
    ("defense.sim_busy_s", "s"),
    ("defense.sim_ns_per_act", "ns"),
    ("defense.on_activation_ns.none", "ns"),
    ("defense.on_activation_ns.para", "ns"),
    ("defense.on_activation_ns.graphene", "ns"),
    ("defense.on_activation_ns.blockhammer", "ns"),
    ("defense.on_activation_ns.trr", "ns"),
    ("defense.on_activation_ns.twice", "ns"),
    ("dram.hammer_direct_ns", "ns"),
    ("defense.acts", "count"),
    ("defense.refreshes", "count"),
    ("defense.victim_refresh_ratio", "ratio"),
    ("dram.hammer_episodes", "count"),
    ("softmc.memctl_submit_s", "s"),
    ("softmc.memctl_drain_s", "s"),
    ("softmc.memctl_ns_per_request", "ns"),
    ("defense.hook_ns", "ns"),
    ("defense.hook_calls", "count"),
    ("softmc.memctl_hit_rate", "ratio"),
    ("softmc.memctl_row_misses", "count"),
    ("unattributed_s", "s"),
    ("obs.trace_overhead_pct", "%"),
    ("bench.traced_reps", "count"),
];

/// Pinned output digests, one `<workload> <seed> <digest>` per line.
const PINS: &str = include_str!("../pins.txt");

/// A child process that outlives this is killed and its rep failed.
const REP_TIMEOUT: Duration = Duration::from_secs(120);

/// What one rep reports back to the driver.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
struct RepOut {
    error: Option<String>,
    traced: bool,
    wall_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    digest: String,
    paper_err_pct: Option<f64>,
    layer: BTreeMap<String, f64>,
    /// Wall share (s) per layer of the rep's own span tree.
    shares: BTreeMap<String, f64>,
    spans: Vec<Span>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child: run one rep (`traced` or `untraced`) under this run id.
    rep: Option<(bool, String)>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("expected --key value pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    let workload = get("workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let rep = match kv.get("rep") {
        Some(mode) => Some((mode == "traced", get("run")?.clone())),
        None => None,
    };
    let (seconds, trace) = if rep.is_some() {
        (0.0, false)
    } else {
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range"));
        }
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
        };
        (seconds, trace)
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rep,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rh-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((traced, run)) = &args.rep {
        let out = rep(args.workload, args.seed, *traced, run.clone());
        let ok = out.error.is_none();
        match serde_json::to_string(&out) {
            Ok(line) => println!("REP {line}"),
            Err(e) => {
                eprintln!("rh-perfbench: encode rep: {e:?}");
                return ExitCode::FAILURE;
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    drive(&args)
}

// ---------------------------------------------------------------- one rep

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Spans of the tree rooted at `root`.
fn subtree(spans: &[Span], root: u64) -> Vec<Span> {
    let mut ids = vec![root];
    let mut out = Vec::new();
    while let Some(id) = ids.pop() {
        for s in spans.iter().filter(|s| s.id == id) {
            out.push(s.clone());
        }
        ids.extend(spans.iter().filter(|s| s.parent == id).map(|s| s.id));
    }
    out
}

fn rep(w: Workload, seed: u64, traced: bool, run: String) -> RepOut {
    let tracer = spans::Tracer::new(run, traced);
    let recorder = traced.then(|| {
        let r = Arc::new(rh_obs::Recorder::new());
        rh_obs::install(Arc::clone(&r) as Arc<dyn rh_obs::Sink>);
        r
    });
    let ((body, root), wall) = tracer.span("bench.rep", 0, |root| {
        (workloads::body(w, seed, &tracer, root, traced), root)
    });
    let mut out = RepOut {
        traced,
        wall_s: wall.as_secs_f64(),
        ..RepOut::default()
    };
    let result = (|| -> Result<(), String> {
        out.peak_rss_mb = peak_rss_mb()?;
        let body = body?;
        out.setup_s = body.setup_s;
        out.digest = body.digest;
        out.paper_err_pct = body.paper_err_pct;
        out.layer = body.layer;
        if let Some(r) = recorder {
            rh_obs::uninstall();
            workloads::recorder_counts(&r, &mut out.layer);
            workloads::probes(w, seed, &tracer, &mut out.layer)?;
            out.spans = tracer.take();
            spans::check(&out.spans).map_err(|e| format!("trace check: {e}"))?;
            out.shares = spans::layer_shares(&subtree(&out.spans, root));
        }
        Ok(())
    })();
    out.error = result.err();
    out
}

// ---------------------------------------------------------------- driver

fn run_child(w: Workload, seed: u64, traced: bool, run: &str) -> RepOut {
    let failed = |e: String| RepOut {
        error: Some(e),
        traced,
        ..RepOut::default()
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed(format!("current_exe: {e}")),
    };
    let mode = if traced { "traced" } else { "untraced" };
    let seed = seed.to_string();
    let mut child = match Command::new(exe)
        .args([
            "--rep",
            mode,
            "--run",
            run,
            "--workload",
            w.name(),
            "--seed",
            &seed,
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => return failed(format!("spawn rep: {e}")),
    };
    let mut pipe = child.stdout.take().expect("stdout was requested piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        pipe.read_to_string(&mut s).map(|_| s)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > REP_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("rep exceeded {REP_TIMEOUT:?}"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(format!("wait rep: {e}")),
        }
    };
    let stdout = reader
        .join()
        .map_err(|_| "rep reader panicked".to_string())
        .and_then(|r| r.map_err(|e| e.to_string()));
    let (status, stdout) = match (status, stdout) {
        (Ok(s), Ok(o)) => (s, o),
        (Err(e), _) | (_, Err(e)) => return failed(e),
    };
    let Some(line) = stdout.lines().rev().find_map(|l| l.strip_prefix("REP ")) else {
        return failed(format!("rep exited {status} without a result"));
    };
    match serde_json::from_str::<RepOut>(line) {
        Ok(out) if out.error.is_none() && !status.success() => {
            failed(format!("rep exited {status}"))
        }
        Ok(out) => out,
        Err(e) => failed(format!("decode rep: {e:?}")),
    }
}

fn pinned_digest(w: Workload, seed: u64) -> Option<&'static str> {
    PINS.lines()
        .map(str::trim)
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 3 && f[0] == w.name() && f[1].parse() == Ok(seed)).then_some(f[2])
        })
        .next()
}

/// Median of `v` (0 when empty).
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// JSON number with every digit Rust's shortest round-trip form keeps.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

fn drive(args: &Args) -> ExitCode {
    let w = args.workload;
    let pin = pinned_digest(w, args.seed);
    let start = Instant::now();
    let mut reps: Vec<RepOut> = Vec::new();
    let mut rep_s = Vec::new();
    // Traced runs alternate untraced and traced reps so the overhead
    // compares neighbours, with at least one of each. A rep starts only
    // if the median rep so far still fits in `--seconds`.
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        let run = format!("{}-seed{}-rep{}", w.name(), args.seed, reps.len());
        let t = Instant::now();
        reps.push(run_child(w, args.seed, traced, &run));
        rep_s.push(t.elapsed().as_secs_f64());
        let enough = !args.trace || reps.len() >= 2;
        if enough && start.elapsed().as_secs_f64() + median(rep_s.clone()) > args.seconds {
            break;
        }
    }

    // Output check: every rep must match the pinned digest, or (for an
    // unpinned seed) the first successful rep; traced reps included, so
    // tracing cannot perturb results.
    let reference = pin.map(str::to_string).or_else(|| {
        reps.iter()
            .find(|r| r.error.is_none())
            .map(|r| r.digest.clone())
    });
    let mut failures = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        match &r.error {
            Some(e) => failures.push(format!("rep {i}: {e}")),
            None if Some(&r.digest) != reference.as_ref() => failures.push(format!(
                "rep {i}: digest {} != expected {}",
                r.digest,
                reference.as_deref().unwrap_or("?")
            )),
            None => {}
        }
    }
    let ok: Vec<&RepOut> = reps.iter().filter(|r| r.error.is_none()).collect();
    let untraced: Vec<&RepOut> = ok.iter().copied().filter(|r| !r.traced).collect();
    let traced: Vec<&RepOut> = ok.iter().copied().filter(|r| r.traced).collect();
    let med =
        |rs: &[&RepOut], f: &dyn Fn(&RepOut) -> f64| median(rs.iter().map(|r| f(r)).collect());

    let fail_rate = failures.len() as f64 / reps.len() as f64;
    println!(
        "perfbench {} seed {}: {} rep(s) ({} traced) in {:.1} s, {} CPU(s); digest {} ({})",
        w.name(),
        args.seed,
        reps.len(),
        reps.iter().filter(|r| r.traced).count(),
        start.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        reference.as_deref().unwrap_or("-"),
        if pin.is_some() {
            "pinned"
        } else {
            "unpinned seed: reps checked against each other"
        },
    );
    for f in &failures {
        println!("  FAIL {f}");
    }
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let wall_u = med(&untraced, &|r| r.wall_s);
        let wall_t = med(&traced, &|r| r.wall_s);
        let layers: BTreeMap<&str, f64> = ["bench", "core", "softmc", "dram", "defense"]
            .into_iter()
            .map(|l| {
                (
                    l,
                    med(&traced, &|r| r.shares.get(l).copied().unwrap_or(0.0)),
                )
            })
            .collect();
        println!("  attribution (median wall share of traced reps; untraced wall {wall_u:.4} s, traced wall {wall_t:.4} s):");
        for (l, v) in &layers {
            let label = if *l == "bench" {
                "unattributed".to_string()
            } else {
                l.to_string()
            };
            println!(
                "    {label:<14} {v:>10.4} s  {:>5.1}%",
                v / wall_t.max(1e-12) * 100.0
            );
        }
        for (name, unit) in PER_LAYER {
            let v = match name {
                "unattributed_s" => layers["bench"],
                "obs.trace_overhead_pct" => (wall_t / wall_u - 1.0) * 100.0,
                "bench.traced_reps" => traced.len() as f64,
                "paper_err_pct" => med(&traced, &|r| r.paper_err_pct.unwrap_or(0.0)),
                _ => med(&traced, &|r| r.layer.get(name).copied().unwrap_or(0.0)),
            };
            metrics.push((name, v, unit));
        }
        if let Err(e) = write_spans(w, args.seed, &traced) {
            println!("  (spans not written: {e})");
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = match name {
                "wall_s" => med(&untraced, &|r| r.wall_s),
                "setup_s" => med(&untraced, &|r| r.setup_s),
                _ => med(&untraced, &|r| r.peak_rss_mb),
            };
            metrics.push((name, v, unit));
        }
    }
    for (name, v, unit) in &metrics {
        println!("  {name:<38} {v:>16.6} {unit}");
    }
    println!(
        "  {:<38} {:>16.6} (failed {} of {} reps)",
        "fail_rate",
        fail_rate,
        failures.len(),
        reps.len()
    );
    if let Some(p) = ok
        .first()
        .and_then(|r| r.paper_err_pct)
        .filter(|_| !args.trace)
    {
        println!("  {:<38} {:>16.6} %", "paper_err_pct", p);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        reps.len(),
        failures.len(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Writes the traced reps' spans, one JSON object a line, to
/// `.perfbench_out/<workload>-seed<n>.spans.jsonl`.
fn write_spans(w: Workload, seed: u64, reps: &[&RepOut]) -> std::io::Result<()> {
    use std::io::Write;
    let dir = std::path::Path::new(".perfbench_out");
    std::fs::create_dir_all(dir)?;
    let mut f = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{}-seed{seed}.spans.jsonl", w.name())),
    )?);
    for s in reps.iter().flat_map(|r| &r.spans) {
        let line = serde_json::to_string(s).map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        writeln!(f, "{line}")?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(spans::valid_name(name), "{name}");
            assert!(
                unit.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{unit}"
            );
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "metric names repeat");
    }

    #[derive(Deserialize)]
    struct Entry {
        name: String,
        unit: Option<String>,
    }

    #[derive(Deserialize)]
    struct Manifest {
        workloads: Vec<Entry>,
        end_to_end: Vec<Entry>,
        per_layer: Vec<Entry>,
    }

    #[test]
    fn metrics_match_the_benchmark_manifest() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let m: Manifest = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |es: &[Entry]| -> Vec<(String, String)> {
            es.iter()
                .map(|e| (e.name.clone(), e.unit.clone().expect("metric unit")))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&m.end_to_end), own(&END_TO_END));
        assert_eq!(listed(&m.per_layer), own(&PER_LAYER));
        let workloads: Vec<&str> = m.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn pins_parse_and_cover_both_recorded_seeds() {
        for w in Workload::ALL {
            for seed in [0, 17] {
                let d = pinned_digest(w, seed)
                    .unwrap_or_else(|| panic!("{} seed {seed} unpinned", w.name()));
                assert_eq!(d.len(), 16);
                assert!(d.bytes().all(|b| b.is_ascii_hexdigit()));
            }
        }
    }

    #[test]
    fn median_and_subtree() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
        let s = |id, parent| Span {
            id,
            parent,
            run: "r".into(),
            name: "bench.x".into(),
            thread: 0,
            start_ns: 0,
            end_ns: 1,
        };
        let all = vec![s(1, 0), s(2, 1), s(3, 2), s(4, 0), s(5, 4)];
        let mut ids: Vec<u64> = subtree(&all, 1).iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn memctl_stream_is_seeded() {
        let a = workloads::request_stream(3, 1000);
        assert_eq!(a, workloads::request_stream(3, 1000));
        assert_ne!(a, workloads::request_stream(4, 1000));
        assert!(a.windows(2).all(|p| p[0].arrival < p[1].arrival));
    }
}
