//! Property-based tests of the request-level memory controller.

use proptest::prelude::*;
use rh_dram::{BankId, DramModule, Manufacturer, ModuleConfig, Picos, RowAddr};
use rh_softmc::{ActivationHook, HookAction, MemController, MemRequest, MemStats, RowPolicy};
use std::collections::VecDeque;

fn any_policy() -> impl Strategy<Value = RowPolicy> {
    prop::sample::select(vec![
        RowPolicy::OpenPage,
        RowPolicy::ClosedPage,
        RowPolicy::CappedOpen { cap: 3 * 34_500 },
    ])
}

/// (bank, row, gap-to-next-arrival) triples.
fn request_strategy() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    prop::collection::vec((0u32..8, 0u32..512, 0u32..100_000), 1..400)
}

fn build(reqs: &[(u32, u32, u32)]) -> Vec<MemRequest> {
    let mut arrival = 0u64;
    reqs.iter()
        .enumerate()
        .map(|(i, &(bank, row, gap))| {
            arrival += u64::from(gap);
            MemRequest {
                id: i as u64,
                bank: BankId(bank),
                row: RowAddr(1000 + row),
                column: (i % 64) as u32,
                is_write: i % 3 == 0,
                arrival,
            }
        })
        .collect()
}

fn run(policy: RowPolicy, reqs: &[MemRequest]) -> MemStats {
    run_hooked(policy, 0, reqs)
}

/// The full-scan FR-FCFS controller the bounded arbiter replaced: FIFO
/// `push_back` queues and a `pick` that walks the whole bank queue.
/// On arrival-ordered queues it is the reference the bounded scan must
/// reproduce exactly.
struct FullScanController {
    module: DramModule,
    policy: RowPolicy,
    queues: Vec<VecDeque<MemRequest>>,
    /// (open row, opened at, ready at) per bank.
    banks: Vec<(Option<RowAddr>, Picos, Picos)>,
    hook: Option<ActivationHook>,
    stats: MemStats,
}

impl FullScanController {
    const T_CL: Picos = 13_750;

    fn new(policy: RowPolicy, hook: Option<ActivationHook>) -> Self {
        let module = DramModule::new(ModuleConfig::ddr4(Manufacturer::D));
        let banks = module.geometry().banks as usize;
        Self {
            module,
            policy,
            queues: vec![VecDeque::new(); banks],
            banks: vec![(None, 0, 0); banks],
            hook,
            stats: MemStats::default(),
        }
    }

    fn submit(&mut self, req: MemRequest) {
        self.queues[req.bank.0 as usize].push_back(req);
    }

    fn pick(&self, bank: usize) -> Option<usize> {
        let q = &self.queues[bank];
        let front = q.front()?;
        let (open_row, _, ready_at) = self.banks[bank];
        let horizon = ready_at.max(front.arrival);
        if let Some(open) = open_row {
            if let Some(pos) = q.iter().position(|r| r.row == open && r.arrival <= horizon) {
                return Some(pos);
            }
        }
        Some(0)
    }

    fn drain(&mut self) -> MemStats {
        let timing = self.module.config().timing;
        for bank in 0..self.queues.len() {
            while let Some(pos) = self.pick(bank) {
                let req = self.queues[bank].remove(pos).expect("picked index is in range");
                let (mut open, mut opened_at, ready_at) = self.banks[bank];
                let mut t = ready_at.max(req.arrival);
                if let (RowPolicy::CappedOpen { cap }, Some(_)) = (self.policy, open) {
                    if t.saturating_sub(opened_at) >= cap {
                        open = None;
                    }
                }
                if open == Some(req.row) {
                    self.stats.row_hits += 1;
                    t += timing.t_ccd;
                } else {
                    self.stats.row_misses += 1;
                    if open.is_some() {
                        t = t.max(opened_at + timing.t_ras) + timing.t_rp;
                    }
                    t += timing.t_rcd;
                    opened_at = t;
                    open = Some(req.row);
                    let b = BankId(bank as u32);
                    let phys = self.module.config().mapping.logical_to_physical(req.row);
                    let _ = self.module.hammer_direct(b, req.row, 1, timing.t_ras, timing.t_rp);
                    if let Some(hook) = self.hook.as_mut() {
                        for a in hook(b, phys, t) {
                            match a {
                                HookAction::RefreshRow(victim) => {
                                    let _ = self.module.refresh_row_physical(b, victim);
                                    t += timing.t_rc();
                                    self.stats.hook_refreshes += 1;
                                }
                                HookAction::Delay(d) => {
                                    t += d;
                                    self.stats.hook_delay += d;
                                }
                            }
                        }
                    }
                }
                t += Self::T_CL;
                self.banks[bank] = if let RowPolicy::ClosedPage = self.policy {
                    (None, opened_at, t.max(opened_at + timing.t_ras) + timing.t_rp)
                } else {
                    (open, opened_at, t)
                };
                self.stats.completed += 1;
                self.stats.total_latency += t.saturating_sub(req.arrival);
                self.stats.makespan = self.stats.makespan.max(t);
            }
        }
        self.stats
    }
}

/// A deterministic defense stand-in: every `every`-th activation
/// refreshes the physical neighbor and stalls the bank. `every == 0`
/// installs no hook.
fn periodic_hook(every: u32) -> Option<ActivationHook> {
    if every == 0 {
        return None;
    }
    let mut acts = 0u32;
    Some(Box::new(move |_, row, _| {
        acts += 1;
        if acts.is_multiple_of(every) {
            vec![HookAction::RefreshRow(row.offset(1)), HookAction::Delay(7_500)]
        } else {
            Vec::new()
        }
    }))
}

/// (bank, row, slot lag) triples: request `i` arrives at slot
/// `i / 4 + lag`, so four requests share each slot (tied arrivals) and
/// a nonzero lag submits a request after later-arriving ones.
fn unordered_strategy() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    prop::collection::vec((0u32..4, 0u32..12, 0u32..6), 1..300)
}

fn build_unordered(reqs: &[(u32, u32, u32)], slot: Picos) -> Vec<MemRequest> {
    reqs.iter()
        .enumerate()
        .map(|(i, &(bank, row, lag))| MemRequest {
            id: i as u64,
            bank: BankId(bank),
            row: RowAddr(1000 + row),
            column: (i % 64) as u32,
            is_write: i % 3 == 0,
            arrival: (i as u64 / 4 + u64::from(lag)) * slot,
        })
        .collect()
}

fn run_hooked(policy: RowPolicy, hook_every: u32, reqs: &[MemRequest]) -> MemStats {
    let mut mc = MemController::new(DramModule::new(ModuleConfig::ddr4(Manufacturer::D)), policy);
    if let Some(h) = periodic_hook(hook_every) {
        mc.set_hook(h);
    }
    for r in reqs {
        mc.submit(*r).expect("in-range bank");
    }
    mc.drain()
}

/// The oracle's view of the same requests: each bank queue stably
/// sorted by arrival (a no-op on arrival-ordered submissions, so those
/// must match the old controller exactly), then drained by the full
/// scan.
fn run_oracle(policy: RowPolicy, hook_every: u32, reqs: &[MemRequest]) -> MemStats {
    let mut sorted = reqs.to_vec();
    sorted.sort_by_key(|r| r.arrival);
    let mut mc = FullScanController::new(policy, periodic_hook(hook_every));
    for r in sorted {
        mc.submit(r);
    }
    mc.drain()
}

#[test]
fn out_of_order_submit_is_served_oldest_first() {
    // The request arriving at 0 is submitted after two that arrive at
    // 1 µs. Served oldest first, it completes within tens of ns, then
    // the row-10 hit is batched ahead of the row-20 miss; served in
    // submission order it would wait behind the 1 µs requests.
    let req = |id, row, arrival| MemRequest {
        id,
        bank: BankId(0),
        row: RowAddr(row),
        column: 0,
        is_write: false,
        arrival,
    };
    let reqs = [req(0, 20, 1_000_000), req(1, 10, 0), req(2, 10, 1_000_000)];
    let s = run_hooked(RowPolicy::OpenPage, 0, &reqs);
    assert!(s.total_latency < 1_000_000, "a request waited for a younger one: {s:?}");
    assert_eq!((s.row_misses, s.row_hits), (2, 1), "{s:?}");
    assert_eq!(s, run_oracle(RowPolicy::OpenPage, 0, &reqs));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn accounting_is_conserved(policy in any_policy(), reqs in request_strategy()) {
        let rs = build(&reqs);
        let s = run(policy, &rs);
        prop_assert_eq!(s.completed, rs.len() as u64);
        prop_assert_eq!(s.row_hits + s.row_misses, s.completed);
        prop_assert!(s.makespan >= rs.iter().map(|r| r.arrival).max().unwrap_or(0));
    }

    #[test]
    fn closed_page_never_hits(reqs in request_strategy()) {
        let rs = build(&reqs);
        let s = run(RowPolicy::ClosedPage, &rs);
        prop_assert_eq!(s.row_hits, 0);
    }

    #[test]
    fn drain_is_deterministic(policy in any_policy(), reqs in request_strategy()) {
        let rs = build(&reqs);
        prop_assert_eq!(run(policy, &rs), run(policy, &rs));
    }

    #[test]
    fn capped_open_never_hits_more_than_open_page(reqs in request_strategy()) {
        let rs = build(&reqs);
        let open = run(RowPolicy::OpenPage, &rs);
        let capped = run(RowPolicy::CappedOpen { cap: 2 * 34_500 }, &rs);
        prop_assert!(capped.row_hits <= open.row_hits);
    }

    #[test]
    fn latency_at_least_service_floor(policy in any_policy(), reqs in request_strategy()) {
        let rs = build(&reqs);
        let s = run(policy, &rs);
        // Every request pays at least CAS latency.
        prop_assert!(s.total_latency >= s.completed * 13_750);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bounded_scan_matches_full_scan_oracle(
        policy in any_policy(),
        hook_every in 0u32..4,
        slot in prop::sample::select(vec![0u64, 3_000, 20_000, 90_000]),
        reqs in unordered_strategy(),
    ) {
        let rs = build_unordered(&reqs, slot);
        prop_assert_eq!(run_hooked(policy, hook_every, &rs), run_oracle(policy, hook_every, &rs));
    }
}
