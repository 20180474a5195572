//! The hot-path wall-clock benchmark: how fast does the *simulator's own*
//! steady-state send/recv machinery run on the host?
//!
//! The paper's argument (§3.2, Fig. 1/3) is that registration caching and
//! copy avoidance make the per-message API cost tiny; this benchmark holds
//! our Rust implementation to the same standard. Two phases:
//!
//! * **channels** — N endpoints (N/2 GM channel pairs across two nodes)
//!   exchange M rounds of messages through the application-facing channel
//!   API, with completions drained from shared per-node completion queues.
//!   One *op* is one message moved end to end (submit → wire → completion
//!   popped).
//! * **regcache** — one GMKRC instance at translation-table scale
//!   (default 1M pages) driven with a hit-heavy working set plus a trickle
//!   of fresh pages, each of which forces a capacity eviction, plus
//!   periodic VMA-style range invalidations. One *op* is one
//!   `plan_range`/invalidate call.
//!
//! Wall-clock time and heap allocations (counting global allocator) are
//! measured per phase and emitted as `BENCH_hotpath.json`, together with
//! the pre-PR baseline measured on the same workload before the O(1)
//! hot-path rework (commit b225c3f), so the file carries its own
//! before/after trajectory.
//!
//! Scale knobs (env): `HOTPATH_ENDPOINTS` (default 10000),
//! `HOTPATH_ROUNDS` (4), `HOTPATH_PAGES` (1000000), `HOTPATH_REG_OPS`
//! (60000), `HOTPATH_FRESH_EVERY` (600), `HOTPATH_OUT` (output path).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use knet::build::ClusterBuilder;
use knet::harness::kbuf;
use knet::prelude::MxEndpointConfig;
use knet::world::ClusterWorld;
use knet_bench::{env_u64, write_report};
use knet_core::api::{
    channel_connect, channel_post_recv, channel_send, channel_set_send_queue_cap,
};
use knet_core::{RegCache, RegKey, TransportEvent};
use knet_gm::GmPortConfig;
use knet_simnic::{FaultPlan, NicModel, RelParams};
use knet_simos::{Asid, CpuModel, FrameIdx, NodeId, VirtAddr, VmaEvent, PAGE_SIZE};

// ---------------------------------------------------------------- allocator

/// Counts every heap allocation so the benchmark can report allocations per
/// op alongside ops/sec (the "allocation-free hot path" claim is measured,
/// not asserted, here; `tests/hotpath_alloc.rs` asserts it).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------- config

struct Config {
    endpoints: usize,
    rounds: u64,
    pages: usize,
    reg_ops: u64,
    fresh_every: u64,
}

impl Config {
    fn from_env() -> Self {
        Config {
            endpoints: env_u64("HOTPATH_ENDPOINTS", 10_000) as usize,
            rounds: env_u64("HOTPATH_ROUNDS", 4),
            pages: env_u64("HOTPATH_PAGES", 1_000_000) as usize,
            reg_ops: env_u64("HOTPATH_REG_OPS", 60_000),
            fresh_every: env_u64("HOTPATH_FRESH_EVERY", 600),
        }
    }
}

struct PhaseResult {
    ops: u64,
    secs: f64,
    allocs: u64,
}

impl PhaseResult {
    fn ops_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.ops as f64 / self.secs
        } else {
            0.0
        }
    }
}

// ---------------------------------------------------------------- phases

/// N/2 channel pairs exchange `rounds` messages of 1 kB kernel payloads.
fn phase_channels(cfg: &Config) -> PhaseResult {
    let pairs = (cfg.endpoints / 2).max(1);
    let mut w = ClusterBuilder::new()
        .nodes(2, CpuModel::xeon_2600())
        .mem_frames(262_144)
        .build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let cq0 = w.new_cq();
    let cq1 = w.new_cq();
    let mut eps = Vec::with_capacity(pairs);
    let mut chans = Vec::with_capacity(pairs);
    let mut bufs = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let cfg_port = GmPortConfig::kernel().with_physical_api();
        let a = w.open_gm_cq(n0, cfg_port.clone(), cq0).expect("gm port a");
        let b = w.open_gm_cq(n1, cfg_port, cq1).expect("gm port b");
        let ka = kbuf(&mut w, n0, 1024);
        let kb = kbuf(&mut w, n1, 1024);
        let ch_a = channel_connect(&mut w, a, b, cq0);
        let ch_b = channel_connect(&mut w, b, a, cq1);
        eps.push((a, b));
        chans.push((ch_a, ch_b));
        bufs.push((ka, kb));
    }

    // Warm-up round (registrations, scheduler warm structures).
    let mut batch = Vec::new();
    run_round(&mut w, &eps, &chans, &bufs, 0, &mut batch);

    let a0 = allocs();
    let t0 = Instant::now();
    for r in 1..=cfg.rounds {
        run_round(&mut w, &eps, &chans, &bufs, r, &mut batch);
    }
    let secs = t0.elapsed().as_secs_f64();
    PhaseResult {
        ops: pairs as u64 * cfg.rounds,
        secs,
        allocs: allocs() - a0,
    }
}

fn run_round(
    w: &mut ClusterWorld,
    eps: &[(knet_core::Endpoint, knet_core::Endpoint)],
    chans: &[(knet_core::ChannelId, knet_core::ChannelId)],
    bufs: &[(knet::harness::KBuf, knet::harness::KBuf)],
    round: u64,
    batch: &mut Vec<knet_core::CqEntry>,
) {
    let tag = round + 1;
    for (i, (ch_a, _ch_b)) in chans.iter().enumerate() {
        let (ka, kb) = bufs[i];
        channel_post_recv(w, chans[i].1, tag, kb.iov(1024)).expect("post recv");
        channel_send(w, *ch_a, tag, ka.iov(1024)).expect("send");
    }
    knet_simcore::run_to_quiescence(w);
    // Drain all completions (SendDone on the a side, RecvDone on the b
    // side) through the batched per-endpoint drain.
    let mut delivered = 0usize;
    for (a, b) in eps {
        w.take_events(*a, usize::MAX, batch);
        w.take_events(*b, usize::MAX, batch);
        delivered += batch
            .iter()
            .filter(|e| matches!(e.event, TransportEvent::RecvDone { .. }))
            .count();
    }
    assert_eq!(delivered, eps.len(), "every message must land");
}

/// GMKRC at `pages` capacity: hit-heavy plan_range stream with a trickle of
/// fresh pages (each one forces a capacity eviction) and periodic range
/// invalidations — exactly the driver's steady-state usage.
fn phase_regcache(cfg: &Config) -> PhaseResult {
    let asid = Asid(1);
    let mut cache = RegCache::new(cfg.pages);
    // Fill to capacity.
    for i in 0..cfg.pages as u64 {
        cache.commit(RegKey { asid, vpn: i }, FrameIdx((i & 0xFFFF_FFFF) as u32));
    }
    let hot = 1024u64.min(cfg.pages as u64); // hot working set (pure hits)
    let mut fresh_vpn = cfg.pages as u64; // first never-seen page
    let mut ops = 0u64;

    // Warm-up: touch the hot set once so the measured loop is steady state.
    for i in 0..hot {
        let addr = VirtAddr::new((cfg.pages as u64 - hot + i) << 12);
        let _ = cache.plan_range(asid, addr, PAGE_SIZE);
    }

    let a0 = allocs();
    let t0 = Instant::now();
    for i in 0..cfg.reg_ops {
        if cfg.fresh_every > 0 && i % cfg.fresh_every == cfg.fresh_every - 1 {
            // A brand-new page: miss, capacity pressure, LRU eviction —
            // the path the paper's GMKRC pays on translation-table
            // pressure.
            let addr = VirtAddr::new(fresh_vpn << 12);
            fresh_vpn += 1;
            let plan = cache.plan_range(asid, addr, PAGE_SIZE);
            let over = cache.pressure(plan.missing.len());
            if over > 0 {
                let evicted = cache.evict_lru(over);
                assert_eq!(evicted.len(), over);
            }
            for page in &plan.missing {
                cache.commit(RegKey::of(asid, *page), FrameIdx(0));
            }
        } else if i % 10_000 == 5_000 {
            // VMA SPY coherence: unmap a small cold range.
            let base = (i / 10_000) * 16 % (cfg.pages as u64 / 2);
            let ev = VmaEvent::unmap(asid, VirtAddr::new(base << 12), 16 * PAGE_SIZE);
            let dropped = cache.invalidate(&ev);
            for (k, f) in dropped {
                cache.commit(k, f); // re-register so occupancy stays stable
            }
        } else {
            // Steady state: a hit in the hot set.
            let vpn = cfg.pages as u64 - hot + (i % hot);
            let plan = cache.plan_range(asid, VirtAddr::new(vpn << 12), PAGE_SIZE);
            assert_eq!(plan.hit_pages, 1);
        }
        ops += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    PhaseResult {
        ops,
        secs,
        allocs: allocs() - a0,
    }
}

// ---------------------------------------------------------------- loss sweep

/// One point of the goodput-vs-loss sweep.
struct SweepPoint {
    loss_pct: u64,
    /// Goodput in MB/s of *virtual* time: bytes delivered end-to-end divided
    /// by the simulated duration from first send to last RecvDone. Virtual
    /// time makes the number deterministic for a fixed seed — the sweep is a
    /// protocol property, not a host-speed property.
    goodput_mbps: f64,
    retransmits: u64,
    timeouts: u64,
    sack_repairs: u64,
    spurious_rtos: u64,
}

/// Goodput vs loss: one GM channel pair streams `HOTPATH_SWEEP_MSGS` 4 kB
/// messages through the default 64-deep reliability window while the fabric
/// drops packets at each sweep rate. Measured in virtual time, so the curve
/// is a deterministic property of the retransmission protocol — this is the
/// number that moved when go-back-N became selective repeat.
fn phase_loss_sweep(losses: &[u64], msgs: u64) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &loss in losses {
        let mut w = ClusterBuilder::new().build();
        if loss > 0 {
            w.set_fault_plan(FaultPlan::new(0xD1CE + loss).with_drop(loss as f64 / 100.0));
        }
        let (n0, n1) = (NodeId(0), NodeId(1));
        let cq0 = w.new_cq();
        let cq1 = w.new_cq();
        let cfg = GmPortConfig::kernel().with_physical_api();
        let a = w.open_gm_cq(n0, cfg.clone(), cq0).expect("gm port a");
        let b = w.open_gm_cq(n1, cfg, cq1).expect("gm port b");
        let ka = kbuf(&mut w, n0, 4096);
        let kb = kbuf(&mut w, n1, 4096);
        let ch_a = channel_connect(&mut w, a, b, cq0);
        let _ch_b = channel_connect(&mut w, b, a, cq1);
        channel_set_send_queue_cap(&mut w, ch_a, msgs as usize + 8);
        for tag in 1..=msgs {
            channel_post_recv(&mut w, _ch_b, tag, kb.iov(4096)).expect("post recv");
        }
        let t0 = knet_simcore::now(&w);
        for tag in 1..=msgs {
            channel_send(&mut w, ch_a, tag, ka.iov(4096)).expect("send");
        }
        // Drain completions as they land; stop at the last RecvDone so the
        // elapsed virtual time measures delivery, not trailing retransmit
        // timers firing idle.
        let mut batch = Vec::new();
        let mut delivered = 0u64;
        while delivered < msgs {
            let outcome = knet_simcore::run_until(&mut w, |w: &ClusterWorld| w.has_event(b));
            if outcome != knet_simcore::RunOutcome::Satisfied {
                panic!("loss sweep at {loss}%: stalled with {delivered}/{msgs} delivered");
            }
            w.take_events(b, usize::MAX, &mut batch);
            delivered += batch
                .iter()
                .filter(|e| matches!(e.event, TransportEvent::RecvDone { .. }))
                .count() as u64;
        }
        let elapsed = (knet_simcore::now(&w) - t0).secs();
        // Goodput is bounded at the last delivery, but the protocol
        // counters must cover the whole run — the final window's lost acks
        // can trigger recovery rounds after the last RecvDone, so snapshot
        // the stats only once everything has settled.
        knet_simcore::run_to_quiescence(&mut w);
        let rel = w.nics.rel.stats;
        points.push(SweepPoint {
            loss_pct: loss,
            goodput_mbps: (msgs * 4096) as f64 / elapsed.max(1e-12) / 1e6,
            retransmits: rel.retransmits,
            timeouts: rel.timeouts,
            sack_repairs: rel.sack_repairs,
            spurious_rtos: rel.spurious_rtos,
        });
    }
    points
}

/// Recorded goodput of the go-back-N window (the pre-selective-repeat
/// reliability protocol, repo at commit 1236018) on this exact workload:
/// default scale (400 messages x 4 kB, window 64, PCI-XD), seeds
/// `0xD1CE + loss`. Kept so `BENCH_hotpath.json` always carries the
/// before/after curve.
const GBN_BASELINE: &[(u64, f64)] = &[
    (0, 247.89),
    (2, 154.71),
    (5, 128.33),
    (10, 91.51),
    (15, 81.11),
    (20, 82.05),
];

// ---------------------------------------------------------------- incast

/// One measured incast configuration: goodput plus the tail of the
/// per-message completion-latency distribution, both in virtual time.
struct IncastRun {
    goodput_mbps: f64,
    p99_us: f64,
    rx_drops: u64,
    retransmits: u64,
}

/// One sender count, measured twice on identical traffic: once with the
/// congestion control loop (default `RelParams`: NACK-driven repair, AIMD
/// windows, SACK fast retransmit) and once with the pre-control-loop
/// fixed-window sender, whose only repair for fan-in tail drops is the RTO.
struct IncastPoint {
    senders: usize,
    cc: IncastRun,
    fixed: IncastRun,
}

/// Barrier-synchronized fan-in (the classic incast shape, same workload as
/// `tests/incast.rs`): every sender answers the round's request with one
/// 32 kB message at once; the next round starts when the fan-in drains.
/// On PCI-XE the 16-way burst genuinely overflows the 128 kB rx FIFO, so
/// the loss here is self-inflicted and deterministic — no fault dice.
fn incast_run(n_senders: usize, rounds: u64, rel: RelParams) -> IncastRun {
    const MSG: u64 = 32 * 1024;
    let mut w = ClusterBuilder::new()
        .nodes(n_senders + 1, CpuModel::xeon_2600())
        .nic(NicModel::pci_xe())
        .rel_params(rel)
        .build();
    let rcq = w.new_cq();
    let recv_ep = w
        .open_mx_cq(NodeId(0), MxEndpointConfig::kernel(), rcq)
        .expect("mx recv ep");
    let mut senders = Vec::new();
    for i in 1..=n_senders {
        let node = NodeId(i as u32);
        let cq = w.new_cq();
        let ep = w
            .open_mx_cq(node, MxEndpointConfig::kernel(), cq)
            .expect("mx sender ep");
        let ch = channel_connect(&mut w, ep, recv_ep, cq);
        senders.push((ch, kbuf(&mut w, node, MSG)));
    }

    let mut lat_us: Vec<f64> = Vec::with_capacity((rounds as usize) * n_senders);
    let t0 = knet_simcore::now(&w);
    for round in 0..rounds {
        let start = knet_simcore::now(&w);
        for (i, (ch, buf)) in senders.iter().enumerate() {
            channel_send(&mut w, *ch, round * 100 + i as u64 + 1, buf.iov(MSG)).expect("send");
        }
        let mut landed = 0usize;
        while landed < n_senders {
            let outcome = knet_simcore::run_until(&mut w, |w: &ClusterWorld| w.has_event(recv_ep));
            if outcome != knet_simcore::RunOutcome::Satisfied {
                panic!("incast {n_senders}x: stalled at {landed}/{n_senders} in round {round}");
            }
            let now = knet_simcore::now(&w);
            while let Some(ev) = w.take_event(recv_ep) {
                if matches!(ev, TransportEvent::Unexpected { .. }) {
                    landed += 1;
                    lat_us.push((now - start).nanos() as f64 / 1e3);
                }
            }
        }
        // Settle trailing retransmit timers so each round starts from an
        // idle fabric — the barrier between rounds.
        knet_simcore::run_to_quiescence(&mut w);
    }
    let elapsed = (knet_simcore::now(&w) - t0).secs();

    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99_idx = ((lat_us.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
    IncastRun {
        goodput_mbps: (rounds * n_senders as u64 * MSG) as f64 / elapsed.max(1e-12) / 1e6,
        p99_us: lat_us[p99_idx],
        rx_drops: w.nics.congestion_drops(),
        retransmits: w.nics.rel.stats.retransmits,
    }
}

fn phase_incast(rounds: u64) -> Vec<IncastPoint> {
    [2usize, 4, 8, 16]
        .iter()
        .map(|&n| IncastPoint {
            senders: n,
            cc: incast_run(n, rounds, RelParams::default()),
            fixed: incast_run(n, rounds, RelParams::fixed_window()),
        })
        .collect()
}

// ---------------------------------------------------------------- striping

/// One point of the dual-link striping curve: a single lossless flow at a
/// fixed message size, measured on a PCI-XE card with both links and again
/// with the same card constrained to one link.
struct StripePoint {
    msg_bytes: u64,
    msgs: u64,
    single_link_mbps: f64,
    dual_link_mbps: f64,
}

impl StripePoint {
    fn speedup(&self) -> f64 {
        self.dual_link_mbps / self.single_link_mbps.max(1e-9)
    }
}

/// Goodput of one GM channel streaming `msgs` messages of `msg_bytes` over
/// a lossless fabric. The deficit lane selector stripes the MTU chunks of
/// even a single flow across every link, so the dual-link number should
/// approach 2x once the transfer is bandwidth-dominated.
fn striping_goodput(links: usize, msg_bytes: u64, msgs: u64) -> f64 {
    let mut w = ClusterBuilder::new()
        .nodes(2, CpuModel::xeon_2600())
        .nic(NicModel::pci_xe().with_links(links))
        .build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let cq0 = w.new_cq();
    let cq1 = w.new_cq();
    let cfg = GmPortConfig::kernel().with_physical_api();
    let a = w.open_gm_cq(n0, cfg.clone(), cq0).expect("gm port a");
    let b = w.open_gm_cq(n1, cfg, cq1).expect("gm port b");
    let ka = kbuf(&mut w, n0, msg_bytes);
    let kb = kbuf(&mut w, n1, msg_bytes);
    let ch_a = channel_connect(&mut w, a, b, cq0);
    let ch_b = channel_connect(&mut w, b, a, cq1);
    channel_set_send_queue_cap(&mut w, ch_a, msgs as usize + 8);
    for tag in 1..=msgs {
        channel_post_recv(&mut w, ch_b, tag, kb.iov(msg_bytes)).expect("post recv");
    }
    let t0 = knet_simcore::now(&w);
    for tag in 1..=msgs {
        channel_send(&mut w, ch_a, tag, ka.iov(msg_bytes)).expect("send");
    }
    let mut batch = Vec::new();
    let mut delivered = 0u64;
    while delivered < msgs {
        let outcome = knet_simcore::run_until(&mut w, |w: &ClusterWorld| w.has_event(b));
        if outcome != knet_simcore::RunOutcome::Satisfied {
            panic!("striping at {links} links: stalled with {delivered}/{msgs} delivered");
        }
        w.take_events(b, usize::MAX, &mut batch);
        delivered += batch
            .iter()
            .filter(|e| matches!(e.event, TransportEvent::RecvDone { .. }))
            .count() as u64;
    }
    let elapsed = (knet_simcore::now(&w) - t0).secs();
    (msgs * msg_bytes) as f64 / elapsed.max(1e-12) / 1e6
}

fn phase_striping(total_bytes: u64) -> Vec<StripePoint> {
    [64 * 1024u64, 256 * 1024, 1024 * 1024]
        .iter()
        .map(|&msg_bytes| {
            let msgs = (total_bytes / msg_bytes).max(1);
            StripePoint {
                msg_bytes,
                msgs,
                single_link_mbps: striping_goodput(1, msg_bytes, msgs),
                dual_link_mbps: striping_goodput(2, msg_bytes, msgs),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- probes

/// Pure-hit probe: exact allocation count of 10k cache-hit plans (the
/// steady-state send path's registration lookup). Zero after the O(1)
/// rework.
fn probe_hit_allocs(cache_pages: usize) -> u64 {
    let asid = Asid(7);
    let mut cache = RegCache::new(cache_pages.min(65_536));
    for i in 0..1024u64 {
        cache.commit(RegKey { asid, vpn: i }, FrameIdx(i as u32));
    }
    let _ = cache.plan_range(asid, VirtAddr::new(0), PAGE_SIZE);
    let a0 = allocs();
    for i in 0..10_000u64 {
        let vpn = i % 1024;
        let _ = cache.plan_range(asid, VirtAddr::new(vpn << 12), PAGE_SIZE);
    }
    allocs() - a0
}

// ---------------------------------------------------------------- baseline

/// Measured on this workload *before* the O(1) hot-path rework (repo at
/// commit b225c3f: BTreeMap GMKRC whose `evict_lru` collects and sorts every
/// entry, BTreeMap CQs, per-op allocations throughout), at the default
/// scale: 10_000 endpoints × 4 rounds, 1_000_000 pages, 60_000 regcache
/// ops. Recorded here so `BENCH_hotpath.json` always carries the trajectory
/// start.
struct Baseline {
    channel_ops_per_sec: f64,
    regcache_ops_per_sec: f64,
    total_ops_per_sec: f64,
    channel_allocs_per_op: f64,
    regcache_allocs_per_op: f64,
}

const BASELINE: Option<Baseline> = Some(Baseline {
    channel_ops_per_sec: 236_375.2,
    regcache_ops_per_sec: 17_696.2,
    total_ops_per_sec: 23_020.5,
    channel_allocs_per_op: 16.666,
    regcache_allocs_per_op: 0.005,
});

// ---------------------------------------------------------------- main

fn main() {
    let cfg = Config::from_env();
    eprintln!(
        "hotpath: endpoints={} rounds={} pages={} reg_ops={} fresh_every={}",
        cfg.endpoints, cfg.rounds, cfg.pages, cfg.reg_ops, cfg.fresh_every
    );

    let ch = phase_channels(&cfg);
    eprintln!(
        "channels: {} msgs in {:.3}s = {:.0} msgs/s ({} allocs, {:.1}/msg)",
        ch.ops,
        ch.secs,
        ch.ops_per_sec(),
        ch.allocs,
        ch.allocs as f64 / ch.ops.max(1) as f64
    );

    let rc = phase_regcache(&cfg);
    eprintln!(
        "regcache: {} ops in {:.3}s = {:.0} ops/s ({} allocs, {:.1}/op)",
        rc.ops,
        rc.secs,
        rc.ops_per_sec(),
        rc.allocs,
        rc.allocs as f64 / rc.ops.max(1) as f64
    );

    let hit_allocs = probe_hit_allocs(cfg.pages);
    eprintln!("hit-probe: {hit_allocs} allocs over 10k pure-hit plans");

    let sweep_msgs = env_u64("HOTPATH_SWEEP_MSGS", 400);
    let sweep = phase_loss_sweep(&[0, 2, 5, 10, 15, 20], sweep_msgs);
    for p in &sweep {
        eprintln!(
            "loss-sweep: {:2}% loss -> {:.2} MB/s (retx {}, timeouts {}, sack-repairs {}, spurious-rtos {})",
            p.loss_pct, p.goodput_mbps, p.retransmits, p.timeouts, p.sack_repairs, p.spurious_rtos
        );
    }

    let incast_rounds = env_u64("HOTPATH_INCAST_ROUNDS", 6);
    let incast = phase_incast(incast_rounds);
    for p in &incast {
        eprintln!(
            "incast: {:2} senders -> cc {:.1} MB/s p99 {:.0}us (drops {}, retx {}) | fixed {:.1} MB/s p99 {:.0}us (drops {}, retx {})",
            p.senders,
            p.cc.goodput_mbps,
            p.cc.p99_us,
            p.cc.rx_drops,
            p.cc.retransmits,
            p.fixed.goodput_mbps,
            p.fixed.p99_us,
            p.fixed.rx_drops,
            p.fixed.retransmits
        );
    }
    // The acceptance bar for the control loop: at the 16-way point the
    // AIMD+NACK sender must beat the fixed-window one on both goodput and
    // tail latency. Virtual time makes this deterministic, so a failure
    // here is a protocol regression, not noise.
    if let Some(p16) = incast.iter().find(|p| p.senders == 16) {
        assert!(
            p16.cc.goodput_mbps >= p16.fixed.goodput_mbps * 1.5,
            "16-way incast: control loop buys only {:.2}x goodput",
            p16.cc.goodput_mbps / p16.fixed.goodput_mbps
        );
        assert!(
            p16.cc.p99_us < p16.fixed.p99_us,
            "16-way incast: control loop worsens p99 ({:.0}us vs {:.0}us)",
            p16.cc.p99_us,
            p16.fixed.p99_us
        );
    }

    let stripe_total = env_u64("HOTPATH_STRIPE_BYTES", 4 * 1024 * 1024);
    let striping = phase_striping(stripe_total);
    for p in &striping {
        eprintln!(
            "striping: {:4} kB x {:3} msgs -> 1 link {:.1} MB/s, 2 links {:.1} MB/s ({:.2}x)",
            p.msg_bytes / 1024,
            p.msgs,
            p.single_link_mbps,
            p.dual_link_mbps,
            p.speedup()
        );
    }
    let best_stripe = striping
        .iter()
        .map(StripePoint::speedup)
        .fold(0.0f64, f64::max);
    assert!(
        best_stripe >= 1.8,
        "dual-link striping peaks at {best_stripe:.2}x over one link (want >= 1.8x)"
    );

    let total_ops = ch.ops + rc.ops;
    let total_secs = ch.secs + rc.secs;
    let total_ops_per_sec = total_ops as f64 / total_secs.max(1e-9);
    eprintln!("total: {total_ops} ops in {total_secs:.3}s = {total_ops_per_sec:.0} ops/s");

    // ---- JSON emit (hand-rolled; the workspace is offline) ----
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"hotpath\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"endpoints\": {}, \"rounds\": {}, \"pages\": {}, \"reg_ops\": {}, \"fresh_every\": {}}},\n",
        cfg.endpoints, cfg.rounds, cfg.pages, cfg.reg_ops, cfg.fresh_every
    ));
    json.push_str(&format!(
        "  \"current\": {{\n    \"channel_ops_per_sec\": {:.1},\n    \"regcache_ops_per_sec\": {:.1},\n    \"total_ops_per_sec\": {:.1},\n    \"channel_allocs_per_op\": {:.3},\n    \"regcache_allocs_per_op\": {:.3},\n    \"steady_state_hit_allocs_per_10k\": {}\n  }},\n",
        ch.ops_per_sec(),
        rc.ops_per_sec(),
        total_ops_per_sec,
        ch.allocs as f64 / ch.ops.max(1) as f64,
        rc.allocs as f64 / rc.ops.max(1) as f64,
        hit_allocs
    ));
    match BASELINE {
        Some(b) => {
            json.push_str(&format!(
                "  \"baseline\": {{\n    \"recorded_at\": \"pre-PR commit b225c3f, same workload at default scale\",\n    \"channel_ops_per_sec\": {:.1},\n    \"regcache_ops_per_sec\": {:.1},\n    \"total_ops_per_sec\": {:.1},\n    \"channel_allocs_per_op\": {:.3},\n    \"regcache_allocs_per_op\": {:.3}\n  }},\n",
                b.channel_ops_per_sec,
                b.regcache_ops_per_sec,
                b.total_ops_per_sec,
                b.channel_allocs_per_op,
                b.regcache_allocs_per_op
            ));
            json.push_str(&format!(
                "  \"speedup\": {{\n    \"channel\": {:.2},\n    \"regcache\": {:.2},\n    \"total\": {:.2}\n  }}\n",
                ch.ops_per_sec() / b.channel_ops_per_sec,
                rc.ops_per_sec() / b.regcache_ops_per_sec,
                total_ops_per_sec / b.total_ops_per_sec
            ));
        }
        None => {
            json.push_str("  \"baseline\": null,\n  \"speedup\": null\n");
        }
    }
    // Goodput-vs-loss curve: current protocol vs the recorded go-back-N
    // baseline (only losses present in both appear in the speedup map).
    json.push_str(",  \"loss_sweep\": {\n");
    json.push_str(&format!("    \"messages\": {sweep_msgs},\n"));
    json.push_str(&format!(
        "    \"message_bytes\": 4096,\n    \"window\": 64,\n    \"points\": [\n{}\n    ],\n",
        sweep
            .iter()
            .map(|p| format!(
                "      {{\"loss_pct\": {}, \"goodput_mbps\": {:.2}, \"retransmits\": {}, \"timeouts\": {}, \"sack_repairs\": {}, \"spurious_rtos\": {}}}",
                p.loss_pct, p.goodput_mbps, p.retransmits, p.timeouts, p.sack_repairs, p.spurious_rtos
            ))
            .collect::<Vec<_>>()
            .join(",\n")
    ));
    json.push_str(&format!(
        "    \"go_back_n_baseline\": [\n{}\n    ],\n",
        GBN_BASELINE
            .iter()
            .map(|(l, g)| format!("      {{\"loss_pct\": {l}, \"goodput_mbps\": {g:.2}}}"))
            .collect::<Vec<_>>()
            .join(",\n")
    ));
    json.push_str(&format!(
        "    \"speedup_vs_go_back_n\": [\n{}\n    ]\n  }},\n",
        sweep
            .iter()
            .filter_map(|p| {
                GBN_BASELINE
                    .iter()
                    .find(|(l, _)| *l == p.loss_pct)
                    .map(|(l, g)| {
                        format!(
                            "      {{\"loss_pct\": {}, \"speedup\": {:.2}}}",
                            l,
                            p.goodput_mbps / g.max(1e-9)
                        )
                    })
            })
            .collect::<Vec<_>>()
            .join(",\n")
    ));
    // Incast: congestion control vs the fixed-window sender on identical
    // barrier-synchronized fan-in traffic (virtual time, deterministic).
    json.push_str(&format!(
        "  \"incast\": {{\n    \"message_bytes\": 32768,\n    \"rounds\": {incast_rounds},\n    \"points\": [\n{}\n    ]\n  }},\n",
        incast
            .iter()
            .map(|p| format!(
                "      {{\"senders\": {}, \"cc\": {{\"goodput_mbps\": {:.2}, \"p99_us\": {:.1}, \"rx_drops\": {}, \"retransmits\": {}}}, \"fixed_window\": {{\"goodput_mbps\": {:.2}, \"p99_us\": {:.1}, \"rx_drops\": {}, \"retransmits\": {}}}, \"goodput_speedup\": {:.2}}}",
                p.senders,
                p.cc.goodput_mbps,
                p.cc.p99_us,
                p.cc.rx_drops,
                p.cc.retransmits,
                p.fixed.goodput_mbps,
                p.fixed.p99_us,
                p.fixed.rx_drops,
                p.fixed.retransmits,
                p.cc.goodput_mbps / p.fixed.goodput_mbps.max(1e-9)
            ))
            .collect::<Vec<_>>()
            .join(",\n")
    ));
    // Dual-link striping: one lossless flow, PCI-XE with both links vs the
    // same card held to one link.
    json.push_str(&format!(
        "  \"striping\": {{\n    \"total_bytes\": {stripe_total},\n    \"points\": [\n{}\n    ]\n  }}\n",
        striping
            .iter()
            .map(|p| format!(
                "      {{\"msg_bytes\": {}, \"msgs\": {}, \"single_link_mbps\": {:.2}, \"dual_link_mbps\": {:.2}, \"speedup\": {:.2}}}",
                p.msg_bytes,
                p.msgs,
                p.single_link_mbps,
                p.dual_link_mbps,
                p.speedup()
            ))
            .collect::<Vec<_>>()
            .join(",\n")
    ));
    json.push_str("}\n");

    write_report("HOTPATH_OUT", "BENCH_hotpath.json", &json);
}
