//! Spans the benchmark records around each call it makes into a layer,
//! kept in memory and attributed after the rep.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its children cover. The attribution table uses *wall shares*
//! instead: every instant of the traced wall is split evenly among the
//! innermost spans running at that instant (one per busy thread), so
//! the per-layer rows of a multi-threaded campaign still sum to no more
//! than the traced wall. Time no layer call covers stays with the
//! benchmark's own `bench.*` spans and is reported as `unattributed_s`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded call. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Unique within a run, never 0.
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// Shared by every span of one rep.
    pub run: String,
    /// `<layer>.<call>`; the layer is the text before the first dot.
    pub name: String,
    /// Small per-process thread ordinal.
    pub thread: u64,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Times calls and, when enabled, keeps a span per call.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    run: String,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer for the rep `run`; it keeps spans only when `enabled`.
    pub fn new(run: String, enabled: bool) -> Self {
        Self {
            t0: Instant::now(),
            run,
            enabled,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` as span `name` under `parent` (0 for a root). `f`
    /// receives the new span's id to pass to its children. Returns the
    /// result and the call's duration, which is measured whether or not
    /// spans are kept.
    pub fn span<T>(&self, name: &str, parent: u64, f: impl FnOnce(u64) -> T) -> (T, Duration) {
        let (id, thread) = if self.enabled {
            (
                self.next_id.fetch_add(1, Ordering::Relaxed),
                THREAD.with(|t| *t),
            )
        } else {
            (0, 0)
        };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.enabled {
            let span = Span {
                id,
                parent,
                run: self.run.clone(),
                name: name.to_string(),
                thread,
                start_ns: start.duration_since(self.t0).as_nanos() as u64,
                end_ns: end.duration_since(self.t0).as_nanos() as u64,
            };
            self.spans
                .lock()
                .expect("span list lock poisoned by a panicking worker")
                .push(span);
        }
        (out, end - start)
    }

    /// Every span kept so far, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list lock poisoned by a panicking worker"),
        )
    }
}

/// Measure (ns) of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time (s) of each span: its duration minus the part of it that
/// its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .map(|p| {
            let kids = spans
                .iter()
                .filter(|c| c.parent == p.id)
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            (p.dur_ns() - covered_ns(kids, p.start_ns, p.end_ns)) as f64 * 1e-9
        })
        .collect()
}

/// Wall share (s) of each span: each elementary interval between span
/// boundaries is split evenly among the spans running then that have no
/// running child.
pub fn wall_shares(spans: &[Span]) -> Vec<f64> {
    let mut bounds: Vec<u64> = spans.iter().flat_map(|s| [s.start_ns, s.end_ns]).collect();
    bounds.sort_unstable();
    bounds.dedup();
    let mut share = vec![0.0; spans.len()];
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        let active: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].start_ns <= a && spans[i].end_ns >= b)
            .collect();
        let innermost: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| !active.iter().any(|&j| spans[j].parent == spans[i].id))
            .collect();
        for &i in &innermost {
            share[i] += (b - a) as f64 * 1e-9 / innermost.len() as f64;
        }
    }
    share
}

/// Wall share (s) per layer, the benchmark's own `bench` layer included.
pub fn layer_shares(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, share) in spans.iter().zip(wall_shares(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0.0) += share;
    }
    out
}

/// The traced wall (s): the measure of everything the roots cover.
pub fn traced_wall(spans: &[Span]) -> f64 {
    let roots = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    covered_ns(roots, 0, u64::MAX) as f64 * 1e-9
}

/// Whether `name` is a valid metric or span name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// Checks the structural invariants of a trace: names are valid, every
/// parent exists and encloses its children, no self time is negative or
/// longer than its span, and the layer busy time sums to no more than
/// the traced wall.
///
/// # Errors
///
/// A description of the first violated invariant.
pub fn check(spans: &[Span]) -> Result<(), String> {
    const SLACK_S: f64 = 1e-6;
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() || by_id.contains_key(&0) {
        return Err("span ids are not unique and non-zero".into());
    }
    for s in spans {
        if !valid_name(&s.name) {
            return Err(format!("span name {:?} is not [A-Za-z0-9_.-]+", s.name));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ends before it starts", s.name));
        }
        if s.parent != 0 {
            let p = by_id
                .get(&s.parent)
                .ok_or(format!("span {} has no parent {}", s.name, s.parent))?;
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.run != p.run {
                return Err(format!("span {} escapes its parent {}", s.name, p.name));
            }
        }
    }
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        let wall = s.dur_ns() as f64 * 1e-9;
        if self_s < 0.0 || self_s > wall + SLACK_S {
            return Err(format!(
                "span {} has self time {self_s} s of wall {wall} s",
                s.name
            ));
        }
    }
    let busy: f64 = layer_shares(spans)
        .iter()
        .filter(|(l, _)| *l != "bench")
        .map(|(_, v)| v)
        .sum();
    let wall = traced_wall(spans);
    if busy > wall + SLACK_S {
        return Err(format!(
            "layer busy {busy} s exceeds the traced wall {wall} s"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: "r".into(),
            name: name.into(),
            thread,
            start_ns,
            end_ns,
        }
    }

    /// A rep with a two-worker campaign: the workers overlap in time.
    fn campaign() -> Vec<Span> {
        vec![
            span(1, 0, "bench.rep", 0, 0, 100),
            span(2, 1, "core.campaign_run", 0, 10, 90),
            span(3, 2, "softmc.bench_with_config", 1, 10, 20),
            span(4, 2, "core.characterizer_new", 1, 20, 50),
            span(5, 2, "core.row_active_analysis", 2, 12, 88),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let s = campaign();
        let t = self_times(&s);
        // rep: 100 - 80 covered by the campaign.
        assert!((t[0] - 20e-9).abs() < 1e-15);
        // campaign: children cover 10..88, leaving 2 ns.
        assert!((t[1] - 2e-9).abs() < 1e-15);
        assert!((t[4] - 76e-9).abs() < 1e-15);
    }

    #[test]
    fn invariants_hold_for_parallel_children() {
        let s = campaign();
        check(&s).expect("well-formed trace");
        for (sp, st) in s.iter().zip(self_times(&s)) {
            let wall = (sp.end_ns - sp.start_ns) as f64 * 1e-9;
            assert!(
                st >= 0.0 && st <= wall,
                "{}: self {st} wall {wall}",
                sp.name
            );
        }
        let shares = layer_shares(&s);
        let total: f64 = shares.values().sum();
        assert!((total - traced_wall(&s)).abs() < 1e-12, "shares {shares:?}");
        let busy: f64 = shares
            .iter()
            .filter(|(l, _)| *l != "bench")
            .map(|(_, v)| v)
            .sum();
        assert!(busy <= traced_wall(&s));
        // Summed self times over-count the overlap; shares do not.
        let summed: f64 = self_times(&s).iter().skip(1).sum();
        assert!(summed > busy);
    }

    #[test]
    fn check_rejects_a_child_outside_its_parent() {
        let mut s = campaign();
        s[4].end_ns = 95;
        assert!(check(&s).unwrap_err().contains("escapes"));
    }

    #[test]
    fn check_rejects_bad_names_and_missing_parents() {
        let mut s = campaign();
        s[2].name = "softmc bench".into();
        assert!(check(&s).is_err());
        let mut s = campaign();
        s[2].parent = 42;
        assert!(check(&s).unwrap_err().contains("no parent"));
    }

    #[test]
    fn tracer_keeps_nested_spans_only_when_enabled() {
        let t = Tracer::new("r".into(), true);
        let ((), outer) = t.span("bench.rep", 0, |id| {
            t.span("dram.module_new", id, |_| std::hint::black_box(3 + 4));
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(outer.as_nanos() as u64 >= spans[0].end_ns - spans[0].start_ns);
        check(&spans).expect("nested spans are valid");

        let off = Tracer::new("r".into(), false);
        let (v, _) = off.span("bench.rep", 0, |id| id);
        assert_eq!(v, 0);
        assert!(off.take().is_empty());
    }

    #[test]
    fn name_charset() {
        assert!(valid_name("defense.on_activation_ns.blockhammer"));
        assert!(valid_name("obs.trace_overhead_pct"));
        assert!(!valid_name(""));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("a b"));
    }
}
