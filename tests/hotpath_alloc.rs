//! The allocation-free hot path, *asserted*.
//!
//! A counting global allocator (per-thread counters, so parallel test
//! threads cannot interfere) proves that the structures the steady-state
//! send path crosses perform **zero heap allocations** once warm:
//!
//! * GMKRC cache-hit planning (`RegCache::plan_range_into`),
//! * NIC translation-table lookups,
//! * io-vector construction/cloning at inline width,
//! * completion-queue push/pop at the slab's high-water mark.
//!
//! The scheduler itself is held to the same contract: steady-state events
//! are *typed* enum variants dispatched from a recycled slab arena —
//! **zero heap allocations per event** once warm
//! (`typed_event_dispatch_allocates_nothing`), with the engine counters
//! (`arena_uses` climbing, `arena_grows` flat) as the receipts. The full
//! end-to-end send path then allocates only the packet's payload `Bytes`
//! — the driver- and API-layer buffers are all recycled, which the pool
//! statistics assert: scratch `grows` and context-pool `slots` stay flat
//! in steady state while `uses`/`reuses` keep climbing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use knet::build::ClusterBuilder;
use knet::harness::kbuf;
use knet_core::api::{channel_connect, channel_post_recv, channel_send};
use knet_core::{
    Endpoint, IoVec, MemRef, RangePlan, RegCache, RegKey, TransportEvent, TransportKind,
};
use knet_gm::GmPortConfig;
use knet_simnic::{TransKey, TransTable};
use knet_simos::{Asid, CpuModel, FrameIdx, NodeId, PhysAddr, VirtAddr, PAGE_SIZE};

// ---------------------------------------------------------------- allocator

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

// ---------------------------------------------------------------- structures

#[test]
fn regcache_hit_path_allocates_nothing() {
    let asid = Asid(1);
    let mut cache = RegCache::new(4096);
    for vpn in 0..2048u64 {
        cache.commit(RegKey { asid, vpn }, FrameIdx(vpn as u32));
    }
    let mut plan = RangePlan::default();
    // Warm the plan scratch (a miss fills `missing` once).
    cache.plan_range_into(
        asid,
        VirtAddr::new(4000 * PAGE_SIZE),
        2 * PAGE_SIZE,
        &mut plan,
    );

    let (allocs, hits) = count(|| {
        let mut hits = 0u64;
        for i in 0..10_000u64 {
            let vpn = i % 2048;
            cache.plan_range_into(asid, VirtAddr::new(vpn << 12), PAGE_SIZE, &mut plan);
            hits += plan.hit_pages;
        }
        hits
    });
    assert_eq!(hits, 10_000);
    assert_eq!(allocs, 0, "steady-state cache hits must not allocate");
}

#[test]
fn regcache_eviction_selection_allocates_nothing() {
    // pop_lru is the O(1) victim read-off; the only allocation on the full
    // evict-commit cycle is the ordered index's node (miss path, not hits).
    let asid = Asid(1);
    let mut cache = RegCache::new(512);
    for vpn in 0..512u64 {
        cache.commit(RegKey { asid, vpn }, FrameIdx(vpn as u32));
    }
    let (allocs, victims) = count(|| {
        let mut victims = 0;
        for _ in 0..256 {
            if cache.pop_lru().is_some() {
                victims += 1;
            }
        }
        victims
    });
    assert_eq!(victims, 256);
    assert_eq!(allocs, 0, "LRU victim selection must not allocate");
}

#[test]
fn ttable_lookup_allocates_nothing() {
    let mut tt = TransTable::new(8192);
    for vpn in 0..4096u64 {
        tt.insert(TransKey { asid: Asid(1), vpn }, PhysAddr::new(vpn << 12))
            .unwrap();
    }
    let (allocs, _) = count(|| {
        for i in 0..10_000u64 {
            let vpn = i % 4096;
            tt.lookup(Asid(1), VirtAddr::new(vpn << 12)).unwrap();
        }
    });
    assert_eq!(allocs, 0, "translation lookups must not allocate");
}

#[test]
fn inline_iovecs_allocate_nothing() {
    let seg = MemRef::physical(PhysAddr::new(0x1000), 256);
    let (allocs, segs) = count(|| {
        let mut segs = 0usize;
        for _ in 0..1_000 {
            let mut iov = IoVec::single(seg);
            iov.push(MemRef::physical(PhysAddr::new(0x2000), 256));
            iov.push(MemRef::physical(PhysAddr::new(0x3000), 256));
            segs += iov.clone().seg_count();
        }
        segs
    });
    assert_eq!(segs, 3_000);
    assert_eq!(allocs, 0, "inline io-vectors must not allocate");
}

#[test]
fn cq_steady_state_allocates_nothing() {
    use knet::world::ClusterWorld;
    let mut reg = knet_core::Registry::<ClusterWorld>::new();
    let cq = reg.create_cq();
    let ep = Endpoint {
        kind: TransportKind::Gm,
        node: NodeId(0),
        idx: 7,
    };
    // Warm: fill to the high-water mark once, then drain.
    for i in 0..64u64 {
        reg.cq_push(cq, ep, TransportEvent::SendDone { ctx: i });
    }
    let mut batch = Vec::new();
    reg.cq_pop_batch(cq, ep, usize::MAX, &mut batch);

    let (allocs, popped) = count(|| {
        let mut popped = 0usize;
        for round in 0..1_000u64 {
            for i in 0..32u64 {
                reg.cq_push(
                    cq,
                    ep,
                    TransportEvent::SendDone {
                        ctx: round * 32 + i,
                    },
                );
            }
            while reg.cq_pop_for(cq, ep).is_some() {
                popped += 1;
            }
        }
        popped
    });
    assert_eq!(popped, 32_000);
    assert_eq!(allocs, 0, "warm completion queues must not allocate");
}

// ---------------------------------------------------------------- engine

/// The scheduler's typed-event path end to end: emit → heap → arena slot →
/// dispatch, with **zero heap allocations per event** once the arena and
/// heap have reached their high-water marks. (`RelTimer` on a vacant link
/// key is the cheapest typed event — it crosses the full dispatch machinery
/// and returns.)
#[test]
fn typed_event_dispatch_allocates_nothing() {
    use knet::ClusterEv;
    use knet_simcore::SimTime;
    use knet_simnic::{NicEv, Proto};

    let mut w = ClusterBuilder::new()
        .nodes(2, CpuModel::xeon_2600())
        .build();
    let burst = |w: &mut knet::world::ClusterWorld| {
        for i in 0..512u64 {
            let t = w.sched.now() + SimTime::from_nanos(10 + i);
            let ev = ClusterEv::Nic(NicEv::RelTimer {
                key: (Proto::Gm, 0, 1),
            });
            knet_simcore::emit_at(w, (i % 2) as u32, t, ev);
        }
        knet_simcore::run_to_quiescence(w);
    };

    // Warm-up: grow the heap and the event arena to their high-water marks.
    burst(&mut w);
    let s0 = w.engine_stats();

    let (allocs, _) = count(|| {
        for _ in 0..4 {
            burst(&mut w);
        }
    });
    let s1 = w.engine_stats();

    assert_eq!(allocs, 0, "warm typed-event dispatch must not allocate");
    assert!(
        s1.arena_uses >= s0.arena_uses + 2048,
        "every event takes an arena slot"
    );
    assert_eq!(
        s1.arena_grows, s0.arena_grows,
        "steady state must not grow the event arena"
    );
    assert_eq!(s1.errors, 0, "no engine errors on the hot path");
}

/// Every scheduler slot is one `ClusterEv`, sized by its widest variant —
/// `NicEv::Rx`'s `Packet`. A driver completion (a `TransportEvent` inside
/// `GmEv` / `MxEv`) must stay narrower, or it quietly widens every slot.
#[test]
fn cluster_event_stays_packet_sized() {
    assert_eq!(std::mem::size_of::<knet::ClusterEv>(), 112);
}

// ---------------------------------------------------------------- full path

/// Drive real messages through kernel-buffer channels over GM and MX —
/// the whole cycle: post the receive, send, deliver, pop both completion
/// queues — and hold the *pools* to their contract: in steady state the
/// scratch buffers stop growing, the send-context pool stops minting slots,
/// the registry and reliability tables stop growing, and the only heap
/// allocation left per message is its payload `Bytes`.
#[test]
fn channel_send_path_recycles_pools_in_steady_state() {
    let mut w = ClusterBuilder::new()
        .nodes(2, CpuModel::xeon_2600())
        .build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let cq0 = w.new_cq();
    let cq1 = w.new_cq();
    let cfg = GmPortConfig::kernel().with_physical_api();
    let a = w.open_gm_cq(n0, cfg.clone(), cq0).unwrap();
    let b = w.open_gm_cq(n1, cfg, cq1).unwrap();
    let mx_cfg = knet_mx::MxEndpointConfig::kernel();
    let ma = w.open_mx_cq(n0, mx_cfg, cq0).unwrap();
    let mb = w.open_mx_cq(n1, mx_cfg, cq1).unwrap();
    let ka = kbuf(&mut w, n0, 4096);
    let kb = kbuf(&mut w, n1, 4096);
    let mka = kbuf(&mut w, n0, 4096);
    let mkb = kbuf(&mut w, n1, 4096);
    let gm = (
        channel_connect(&mut w, a, b, cq0),
        channel_connect(&mut w, b, a, cq1),
    );
    let mx = (
        channel_connect(&mut w, ma, mb, cq0),
        channel_connect(&mut w, mb, ma, cq1),
    );

    // One round is one message per transport, sized to alternate between
    // the smallest and the largest a single chunk carries.
    let mut batch = Vec::new();
    let mut round = |w: &mut knet::world::ClusterWorld, tag: u64| {
        let len = if tag.is_multiple_of(2) { 4096 } else { 64 };
        channel_post_recv(w, gm.1, tag, kb.iov(len)).unwrap();
        channel_post_recv(w, mx.1, tag, mkb.iov(len)).unwrap();
        channel_send(w, gm.0, tag, ka.iov(len)).unwrap();
        channel_send(w, mx.0, tag, mka.iov(len)).unwrap();
        knet_simcore::run_to_quiescence(w);
        let mut popped = 0;
        for ep in [a, b, ma, mb] {
            popped += w.take_events(ep, usize::MAX, &mut batch);
        }
        assert_eq!(popped, 4, "a SendDone and a RecvDone per message");
    };

    // Warm-up: reach every pool's high-water mark.
    for tag in 1..=16u64 {
        round(&mut w, tag);
    }
    let scratch0 = w.gm.scratch.stats;
    let pool0 = w.registry.stats;
    let rel0 = w.nics.rel.stats;
    let tables0 = (w.registry.table_capacity(), w.nics.rel.table_capacity());

    let (allocs, ()) = count(|| {
        for tag in 17..=116u64 {
            round(&mut w, tag);
        }
    });
    let scratch1 = w.gm.scratch.stats;
    let pool1 = w.registry.stats;
    let rel1 = w.nics.rel.stats;

    assert!(
        allocs <= 200,
        "200 messages may allocate their 200 payloads and nothing else, got {allocs}"
    );
    assert_eq!(
        (w.registry.table_capacity(), w.nics.rel.table_capacity()),
        tables0,
        "the registry's and the reliability layer's tables are warm"
    );
    assert!(
        scratch1.uses >= scratch0.uses + 100,
        "every send borrows the scratch"
    );
    assert_eq!(
        scratch1.grows, scratch0.grows,
        "steady state must not grow driver scratch buffers"
    );
    assert_eq!(
        pool1.ctx_pool_slots, pool0.ctx_pool_slots,
        "steady state must not mint new send-context slots"
    );
    assert!(
        pool1.ctx_pool_reuses >= pool0.ctx_pool_reuses + 100,
        "steady-state sends recycle pooled contexts"
    );
    assert!(
        pool1.batched_pops > pool0.batched_pops,
        "completions drained through cq_pop_batch"
    );
    // The reliability window rides the same contract: every packet flows
    // through it (sequencing, the unacked ring, SACK-bearing acks) with
    // zero steady-state allocations — link states and ring capacities reach
    // their high-water mark during warm-up and never grow again. Retained
    // packets clone `Bytes` payloads (refcount, no copy), so the lossless
    // path stays exactly as allocation-free as before the window existed.
    assert!(
        rel1.data_packets >= rel0.data_packets + 100,
        "every send crosses the reliability window"
    );
    assert_eq!(
        rel1.grows, rel0.grows,
        "steady state must not grow the window rings"
    );
    assert_eq!(rel1.links, rel0.links, "no new link states in steady state");
    assert_eq!(
        rel1.retransmits, rel0.retransmits,
        "a lossless fabric never retransmits"
    );
    assert_eq!(rel1.dup_dropped, 0, "no duplicates without faults");
    // The selective-repeat additions keep the same discipline: the SACK
    // bitmap is one machine word per link and the RTT estimator three
    // inline fields — both recycled with the link state (`grows` flat
    // above covers them) — and every ack feeds a sample without the
    // adaptive timer ever firing a false round on a clean fabric.
    assert!(
        rel1.rtt_samples >= rel0.rtt_samples + 100,
        "every ack samples the RTT estimator"
    );
    assert_eq!(
        rel1.spurious_rtos, 0,
        "a lossless fabric never has a spurious RTO"
    );
    assert_eq!(
        (rel1.timeouts, rel1.probes, rel1.tlps),
        (0, 0, 0),
        "a lossless fabric never asks the peer a question or probes its tail"
    );
    assert_eq!(rel1.sacked, 0, "in-order lossless arrivals never need SACK");
    assert!(
        rel1.srtt_ns > 0 && rel1.rto_ns >= rel1.srtt_ns,
        "the estimator holds a live SRTT and a derived RTO"
    );
}

/// Multi-chunk messages hold the shared message engine
/// (`knet_core::driver`) to the same contract on each of its three paths:
/// a 16 kB GM message (four MTU chunks gathered from host memory,
/// scattered into the provided buffer), a 16 kB MX medium message (sliced
/// from the send ring, staged in a receive ring) and a 128 kB MX
/// rendezvous (RTS, CTS, thirty-two chunks streamed from and into kernel
/// buffers). Once warm, the only allocations a message makes are its
/// payload `Bytes` — one per gathered chunk, one per medium message — and
/// the chunk scratch, the receive rings and the reassembly tables stay at
/// their high-water mark.
#[test]
fn multi_chunk_messages_allocate_only_their_payload() {
    let mut w = ClusterBuilder::new()
        .nodes(2, CpuModel::xeon_2600())
        .build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let cq = w.new_cq();
    let cfg = GmPortConfig::kernel().with_physical_api();
    let ga = w.open_gm_cq(n0, cfg.clone(), cq).unwrap();
    let gb = w.open_gm_cq(n1, cfg, cq).unwrap();
    let mx_cfg = knet_mx::MxEndpointConfig::kernel();
    let ma = w.open_mx_cq(n0, mx_cfg, cq).unwrap();
    let mb = w.open_mx_cq(n1, mx_cfg, cq).unwrap();
    const LARGE: u64 = 128 * 1024;
    let ka = kbuf(&mut w, n0, LARGE);
    let kb = kbuf(&mut w, n1, LARGE);
    let gm = (
        channel_connect(&mut w, ga, gb, cq),
        channel_connect(&mut w, gb, ga, cq),
    );
    let mx = (
        channel_connect(&mut w, ma, mb, cq),
        channel_connect(&mut w, mb, ma, cq),
    );

    let mut batch = Vec::new();
    let mut cycle = |w: &mut knet::world::ClusterWorld,
                     (tx, rx): (knet_core::ChannelId, knet_core::ChannelId),
                     (a, b): (Endpoint, Endpoint),
                     tag: u64,
                     len: u64| {
        channel_post_recv(w, rx, tag, kb.iov(len)).unwrap();
        channel_send(w, tx, tag, ka.iov(len)).unwrap();
        knet_simcore::run_to_quiescence(w);
        let popped =
            w.take_events(a, usize::MAX, &mut batch) + w.take_events(b, usize::MAX, &mut batch);
        assert_eq!(popped, 2, "a SendDone and a RecvDone per message");
    };
    let footprint = |w: &knet::world::ClusterWorld| {
        (
            w.gm.scratch.stats.grows,
            w.mx.scratch.stats.grows,
            w.gm.reassembly_footprint(),
            w.mx.reassembly_footprint(),
            w.mx.in_flight() + w.gm.reassembling(),
        )
    };

    for tag in 1..=8u64 {
        cycle(&mut w, gm, (ga, gb), tag, 16 * 1024);
        cycle(&mut w, mx, (ma, mb), tag, 16 * 1024);
        cycle(&mut w, mx, (ma, mb), 100 + tag, LARGE);
    }
    let warm = footprint(&w);
    assert_eq!(warm.3 .1, 1, "the one receive ring the medium path uses");

    const N: u64 = 50;
    let (gm_allocs, ()) = count(|| {
        for tag in 9..9 + N {
            cycle(&mut w, gm, (ga, gb), tag, 16 * 1024);
        }
    });
    let (medium_allocs, ()) = count(|| {
        for tag in 9..9 + N {
            cycle(&mut w, mx, (ma, mb), tag, 16 * 1024);
        }
    });
    let (rndv_allocs, ()) = count(|| {
        for tag in 109..109 + N {
            cycle(&mut w, mx, (ma, mb), tag, LARGE);
        }
    });
    assert_eq!(gm_allocs, N * 4, "16 kB over GM: four gathered chunks");
    assert_eq!(
        medium_allocs, N,
        "16 kB MX medium: the one gathered payload"
    );
    assert_eq!(
        rndv_allocs,
        N * 32,
        "128 kB MX rendezvous: thirty-two gathered chunks"
    );
    assert_eq!(footprint(&w), warm, "scratch, rings and tables stay flat");
}

/// The multi-tenant machinery rides the same contract: the channels'
/// backpressure queues, per-tenant pacing lanes in the driver and token
/// buckets at the NIC all reach their high-water mark during warm-up and
/// never grow again. Three tenants share a 2-node cluster — "rt"
/// unthrottled on GM, "bulk" on GM and "bulk-mx" on MX each behind a token
/// bucket so their sends cross the Defer → pacing-lane → pace-timer path
/// of the one shared seam through both drivers every round — while a tiny
/// GM token pool queues sends in each GM channel (a send waits for tokens
/// there only: a paced GM send holds the token it took at submit). Once
/// warm, an identical batch of rounds performs *exactly* the same number
/// of heap allocations as the previous one: the steady-state tenant path
/// allocates nothing beyond the payload `Bytes` the driver already
/// accounts.
#[test]
fn multi_tenant_send_path_keeps_lanes_and_buckets_flat() {
    use knet_gm::GmParams;
    use knet_mx::MxEndpointConfig;
    use knet_simnic::QosPolicy;

    let mut w = ClusterBuilder::new()
        .nodes(2, CpuModel::xeon_2600())
        .gm_params(GmParams {
            send_tokens: 2,
            ..GmParams::default()
        })
        .build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let rt = w.register_tenant("rt", 4, None);
    let bulk = w.register_tenant(
        "bulk",
        1,
        Some(QosPolicy {
            rate_bytes_per_sec: 20_000_000,
            burst_bytes: 8192,
            pace_queue_cap: 1024,
        }),
    );
    let bulk_policy = w.nics.qos.policy(bulk.0);
    let bulk_mx = w.register_tenant("bulk-mx", 1, bulk_policy);
    let cq = w.new_cq();
    let cfg = GmPortConfig::kernel().with_physical_api();
    let a_rt = w.open_gm_cq(n0, cfg.clone(), cq).unwrap();
    let b_rt = w.open_gm_cq(n1, cfg.clone(), cq).unwrap();
    let a_bulk = w.open_gm_cq(n0, cfg.clone(), cq).unwrap();
    let b_bulk = w.open_gm_cq(n1, cfg, cq).unwrap();
    let ch_rt = channel_connect(&mut w, a_rt, b_rt, cq);
    let ch_bulk = channel_connect(&mut w, a_bulk, b_bulk, cq);
    let a_mx = w.open_mx_cq(n0, MxEndpointConfig::kernel(), cq).unwrap();
    let b_mx = w.open_mx_cq(n1, MxEndpointConfig::kernel(), cq).unwrap();
    let ch_mx = channel_connect(&mut w, a_mx, b_mx, cq);
    w.assign_tenant(a_rt, rt);
    w.assign_tenant(a_bulk, bulk);
    w.assign_tenant(a_mx, bulk_mx);
    let ka = kbuf(&mut w, n0, 4096);

    let mut batch = Vec::new();
    let mut round = |w: &mut knet::world::ClusterWorld, r: u64| {
        // Six sends per tenant against two tokens: four queue in each GM
        // channel; the bulk tenants' accepted sends outrun their buckets
        // and defer through the drivers' pacing lanes.
        for i in 0..6u64 {
            channel_send(w, ch_rt, r * 100 + i, ka.iov(1024)).unwrap();
            channel_send(w, ch_bulk, r * 100 + i, ka.iov(1024)).unwrap();
            channel_send(w, ch_mx, r * 100 + i, ka.iov(1024)).unwrap();
        }
        knet_simcore::run_to_quiescence(w);
        w.take_events(a_rt, usize::MAX, &mut batch);
        w.take_events(a_bulk, usize::MAX, &mut batch);
        w.take_events(b_rt, usize::MAX, &mut batch);
        w.take_events(b_bulk, usize::MAX, &mut batch);
        w.take_events(a_mx, usize::MAX, &mut batch);
        w.take_events(b_mx, usize::MAX, &mut batch);
    };

    // Warm-up: lanes, buckets, pace timers and pools reach their marks.
    for r in 1..=16u64 {
        round(&mut w, r);
    }
    let lane_grows = |w: &knet::world::ClusterWorld| {
        let rt_ch = w.registry.channel(ch_rt).unwrap();
        let bulk_ch = w.registry.channel(ch_bulk).unwrap();
        (
            rt_ch.queue_capacity(),
            bulk_ch.queue_capacity(),
            w.gm.paced.grows(),
            w.mx.paced.grows(),
        )
    };
    let lanes0 = lane_grows(&w);
    let pool0 = w.registry.stats;
    let qos0 = w.nics.qos.totals();

    let (allocs_a, _) = count(|| {
        for r in 17..=66u64 {
            round(&mut w, r);
        }
    });
    let (allocs_b, _) = count(|| {
        for r in 67..=116u64 {
            round(&mut w, r);
        }
    });
    let lanes1 = lane_grows(&w);
    let pool1 = w.registry.stats;
    let qos1 = w.nics.qos.totals();

    assert_eq!(
        allocs_a, allocs_b,
        "identical warm batches must allocate identically — any growth \
         would make the second batch cheaper or dearer"
    );
    assert_eq!(lanes1, lanes0, "channel queues and pacing lanes flat");
    assert_eq!(
        pool1.ctx_pool_slots, pool0.ctx_pool_slots,
        "no new send-context slots for tenant traffic"
    );
    assert!(
        pool1.queued_sends >= pool0.queued_sends + 100,
        "the rounds really queued sends in the channels"
    );
    assert!(
        qos1.deferred > qos0.deferred,
        "bulk really crossed the pacing path"
    );
    assert_eq!(qos1.shed, qos0.shed, "nothing shed at this offered load");
    // Per-tenant rows kept pace without minting rows (dense vectors).
    let rows = w.tenant_stats();
    let rt_row = rows.iter().find(|r| r.name == "rt").unwrap();
    let bulk_row = rows.iter().find(|r| r.name == "bulk").unwrap();
    assert!(rt_row.channel.queued_sends > 0 && bulk_row.channel.queued_sends > 0);
    assert_eq!(
        rt_row.qos.admitted, 0,
        "unthrottled tenants skip the bucket"
    );
    assert!(bulk_row.qos.admitted > 0 && bulk_row.qos.deferred > 0);
    let mx_row = rows.iter().find(|r| r.name == "bulk-mx").unwrap();
    assert!(
        mx_row.qos.admitted > 0 && mx_row.qos.deferred > 0,
        "the MX lanes were driven too"
    );
    assert!(
        w.mx.paced.grows() > 0,
        "MX sends really parked in its pacing lanes"
    );
}

/// The NIC transmit queue (`knet_simnic::txq`) rides the same contract.
/// Three tenants each send a 16 kB MX message from one card at the same
/// instant, so the link is past its booking horizon and their chunks wait
/// in per-tenant FIFOs and go out round robin from the queue's wakes. Once
/// warm, a round allocates only its gathered payloads — one `Bytes` per
/// medium message, which its chunks slice — the queue's FIFOs stay at
/// their high-water mark, and every round ends with the queue empty.
#[test]
fn multi_tenant_sends_through_the_transmit_queue_allocate_only_their_payload() {
    use knet_mx::MxEndpointConfig;

    let mut w = ClusterBuilder::new()
        .nodes(2, CpuModel::xeon_2600())
        .build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let cq = w.new_cq();
    let cfg = MxEndpointConfig::kernel();
    const LEN: u64 = 16 * 1024;
    let mut flows = Vec::new();
    for name in ["t1", "t2", "t3"] {
        let tenant = w.register_tenant(name, 1, None);
        let a = w.open_mx_cq(n0, cfg, cq).unwrap();
        let b = w.open_mx_cq(n1, cfg, cq).unwrap();
        w.assign_tenant(a, tenant);
        let ch = (
            channel_connect(&mut w, a, b, cq),
            channel_connect(&mut w, b, a, cq),
        );
        flows.push((ch, (a, b), kbuf(&mut w, n0, LEN), kbuf(&mut w, n1, LEN)));
    }
    let nic = w.nics.nic_of_node(n0).unwrap();

    let mut batch = Vec::new();
    let mut round = |w: &mut knet::world::ClusterWorld, tag: u64| {
        for ((tx, rx), _, src, dst) in &flows {
            channel_post_recv(w, *rx, tag, dst.iov(LEN)).unwrap();
            channel_send(w, *tx, tag, src.iov(LEN)).unwrap();
        }
        knet_simcore::run_to_quiescence(w);
        assert_eq!(w.nics.tx_queued(), 0, "the queue drains every round");
        let mut popped = 0;
        for (_, (a, b), _, _) in &flows {
            popped += w.take_events(*a, usize::MAX, &mut batch);
            popped += w.take_events(*b, usize::MAX, &mut batch);
        }
        assert_eq!(popped, 6, "a SendDone and a RecvDone per message");
    };

    for tag in 1..=8u64 {
        round(&mut w, tag);
    }
    let stats0 = w.nics.get(nic).stats;
    const N: u64 = 50;
    let (allocs, ()) = count(|| {
        for tag in 9..9 + N {
            round(&mut w, tag);
        }
    });
    let stats1 = w.nics.get(nic).stats;
    assert!(
        stats1.tx_queued >= stats0.tx_queued + N,
        "the rounds really went through the queue"
    );
    assert_eq!(
        stats1.tx_queue_grows, stats0.tx_queue_grows,
        "the queue's FIFOs stay at their high-water mark"
    );
    assert_eq!(
        allocs,
        N * 3,
        "three 16 kB MX medium messages a round: one gathered payload each"
    );
}

// ---------------------------------------------------------------- rpc

/// The RPC codec's warm path is *strictly* allocation-free: requests and
/// responses encode into a recycled scratch buffer, and decoding borrows
/// payload slices out of the frame — no copies, no boxes, nothing.
#[test]
fn rpc_codec_warm_encode_decode_allocates_nothing() {
    use knet_rpc::codec::{
        decode_request, decode_response, encode_request, encode_response, ReqHeader, RespHeader,
        NO_DEADLINE, RESP_HEADER_LEN, RPC_SCHEMA_VERSION,
    };
    let mut frame = Vec::new();
    let payload = [7u8; 512];
    // Warm: one encode of the largest frame grows the scratch to capacity.
    encode_request(
        &mut frame,
        ReqHeader {
            version: RPC_SCHEMA_VERSION,
            method: 1,
            corr: 1,
            deadline_ns: NO_DEADLINE,
            idem: 1,
        },
        &payload,
    );
    let (allocs, checksum) = count(|| {
        let mut sum = 0u64;
        for i in 0..10_000u64 {
            encode_request(
                &mut frame,
                ReqHeader {
                    version: RPC_SCHEMA_VERSION,
                    method: (i % 7) as u16,
                    corr: (i << 32) | i,
                    deadline_ns: 1_000_000 + i,
                    idem: i,
                },
                &payload,
            );
            let (hdr, p) = decode_request(&frame).expect("decodes");
            sum += hdr.corr ^ p[0] as u64;
            encode_response(
                &mut frame,
                RespHeader {
                    version: RPC_SCHEMA_VERSION,
                    status: None,
                    corr: hdr.corr,
                },
                &payload[..64],
            );
            let (rh, len) = decode_response(&frame).expect("decodes");
            sum += rh.corr + len as u64 + frame[RESP_HEADER_LEN] as u64;
        }
        sum
    });
    assert!(checksum > 0);
    assert_eq!(allocs, 0, "warm codec encode/decode must not allocate");
}

/// Warm RPC round-trips and warm *unanswered* calls hold the layer to the
/// same contract as the raw channel path: call slots are pooled (the slab
/// stops minting), the codec scratch is recycled (`grows` flat while
/// `uses` climbs), and the channel context pool underneath stays at its
/// high-water mark. A steady-state RPC costs no new buffers anywhere —
/// only the per-packet payload `Bytes` the driver already accounts.
#[test]
fn rpc_round_trips_and_retries_recycle_pools_in_steady_state() {
    use knet::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let mut w = ClusterBuilder::new()
        .nodes(2, CpuModel::xeon_2600())
        .build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let sep = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    let cep = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    rpc_server_create(
        &mut w,
        sep,
        "echo",
        RpcServerConfig::default(),
        |_w, _req, payload, resp| {
            resp.extend_from_slice(payload);
            RpcOutcome::Reply
        },
        |_w, _node| {},
    )
    .unwrap();
    let cid = rpc_client_create(
        &mut w,
        cep,
        sep,
        "cli",
        Arc::new(|_w, _comp| {}),
        RpcClientConfig::default(),
    )
    .unwrap();

    let mut out = Vec::new();
    let mut round = |w: &mut knet::world::ClusterWorld, i: u64| {
        let call = rpc_call(w, cid, 3, b"steady-state payload", RpcCallOpts::default()).unwrap();
        knet_simcore::run_to_quiescence(w);
        assert_eq!(
            rpc_collect(w, cid, call, &mut out),
            Some(20),
            "round {i} echoes"
        );
    };

    // Warm-up: every pool reaches its high-water mark.
    for i in 1..=16u64 {
        round(&mut w, i);
    }
    let (uses0, grows0) = w.rpc.scratch_stats();
    let pool0 = w.registry.stats;

    for i in 17..=116u64 {
        round(&mut w, i);
    }
    let (uses1, grows1) = w.rpc.scratch_stats();
    let pool1 = w.registry.stats;

    assert!(
        uses1 >= uses0 + 200,
        "every round-trip borrows codec scratch on both sides"
    );
    assert_eq!(grows1, grows0, "steady state must not grow the RPC scratch");
    assert_eq!(
        pool1.ctx_pool_slots, pool0.ctx_pool_slots,
        "steady-state RPC must not mint channel context slots"
    );
    assert!(
        pool1.ctx_pool_reuses >= pool0.ctx_pool_reuses + 100,
        "RPC sends recycle pooled contexts"
    );
    let cs = rpc_client_stats(&w, cid);
    assert_eq!(cs.completed, 116);

    // The *unanswered* path rides the same pools: calls to a black-hole
    // server resolve typed `Deadline` at the horizon, and none of it may
    // grow a buffer either.
    let bep = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    rpc_server_create(
        &mut w,
        bep,
        "blackhole",
        RpcServerConfig::default(),
        |_w, _req, _payload, _resp| RpcOutcome::Defer,
        |_w, _node| {},
    )
    .unwrap();
    let cep2 = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let resolved_at = Arc::new(AtomicU64::new(0));
    let stamp = resolved_at.clone();
    let rcid = rpc_client_create(
        &mut w,
        cep2,
        bep,
        "unanswered",
        Arc::new(move |w, _comp| stamp.store(now(w).nanos(), Ordering::Relaxed)),
        RpcClientConfig::default(),
    )
    .unwrap();
    let failed_round = |w: &mut knet::world::ClusterWorld| {
        let t0 = now(w);
        rpc_call(
            w,
            rcid,
            9,
            b"shouting into the void",
            RpcCallOpts::default(),
        )
        .unwrap();
        knet_simcore::run_to_quiescence(w);
        assert_eq!(
            resolved_at.load(Ordering::Relaxed),
            (t0 + CALL_HORIZON).nanos(),
            "resolved exactly at the horizon"
        );
    };
    // Warm the unanswered path once (horizon timer, deadline resolution).
    failed_round(&mut w);
    let (_, rgrows0) = w.rpc.scratch_stats();
    let rpool0 = w.registry.stats.ctx_pool_slots;
    for _ in 0..24 {
        failed_round(&mut w);
    }
    let (_, rgrows1) = w.rpc.scratch_stats();
    let rs = rpc_client_stats(&w, rcid);
    assert_eq!(rs.failed, 25, "every voided call fails typed");
    assert_eq!(rs.deadline_failures, 25, "each one at its horizon");
    assert_eq!(w.stats().rpc.retries, 0, "nothing is ever resent");
    assert_eq!(
        rgrows1, rgrows0,
        "warm unanswered calls must not grow the scratch"
    );
    assert_eq!(
        w.registry.stats.ctx_pool_slots, rpool0,
        "warm unanswered calls must not mint context slots"
    );
    assert_eq!(w.stats().engine.errors, 0);
}

// ---------------------------------------------------------------- collectives

/// The in-NIC reduce combiner works lane-wise in place on the recycled
/// accumulator — the innermost loop of every reduction must not allocate.
#[test]
fn combine_lanes_allocates_nothing() {
    use knet_simnic::{combine_lanes, ReduceOp};
    let mut acc = vec![0u8; 4096];
    let chunk: Vec<u8> = (0..2048u64).flat_map(|i| i.to_le_bytes()).collect();
    let (allocs, _) = count(|| {
        for op in [
            ReduceOp::Sum,
            ReduceOp::Min,
            ReduceOp::Max,
            ReduceOp::BitXor,
        ] {
            for _ in 0..1_000 {
                combine_lanes(op, &mut acc, 0, &chunk[..4096]);
                combine_lanes(op, &mut acc, 2048, &chunk[..2048]);
            }
        }
    });
    assert_eq!(allocs, 0, "the reduce combiner must not allocate");
}

/// Warm collective rounds hold every pool to its contract: the NIC tree
/// engine recycles its payload/progress scratch (`buf_grows` flat while
/// `buf_uses` climbs), the host layer recycles its staging scratch, and no
/// round leaves contexts or tree slots behind.
#[test]
fn collective_rounds_recycle_pools_in_steady_state() {
    use knet::figures::{coll_fixture, CollFixture};
    use knet::prelude::*;
    let CollFixture {
        mut w,
        group,
        eps,
        bufs,
    } = coll_fixture(TransportKind::Gm, 8, 2);
    let mut batch = Vec::new();
    let mut round = |w: &mut knet::world::ClusterWorld, r: u64| {
        channel_bcast(w, group, r, &bufs[0].iov(4096)).unwrap();
        knet_simcore::run_to_quiescence(w);
        for &ep in &eps {
            channel_barrier(w, group, ep).unwrap();
        }
        knet_simcore::run_to_quiescence(w);
        for (m, &ep) in eps.iter().enumerate() {
            channel_reduce(w, group, ep, ReduceOp::Sum, &[m as u64, r]).unwrap();
        }
        knet_simcore::run_to_quiescence(w);
        for &ep in &eps {
            w.take_events(ep, usize::MAX, &mut batch);
        }
    };

    // Warm-up: reach the pools' high-water marks.
    for r in 1..=8u64 {
        round(&mut w, r);
    }
    let nic0 = w.nics.coll.stats;
    let scr0 = w.coll.scratch_stats;
    let pool0 = w.registry.stats;

    for r in 9..=40u64 {
        round(&mut w, r);
    }
    let nic1 = w.nics.coll.stats;
    let scr1 = w.coll.scratch_stats;
    let pool1 = w.registry.stats;

    assert!(
        nic1.buf_uses >= nic0.buf_uses + 32,
        "every round borrows NIC tree scratch"
    );
    assert_eq!(
        nic1.buf_grows, nic0.buf_grows,
        "steady state must not grow the NIC tree pools"
    );
    assert!(
        scr1.uses >= scr0.uses + 32,
        "every round stages via scratch"
    );
    assert_eq!(
        scr1.grows, scr0.grows,
        "steady state must not grow the staging scratch"
    );
    assert_eq!(
        pool1.ctx_pool_slots, pool0.ctx_pool_slots,
        "collectives must not mint point-to-point context slots"
    );
    assert_eq!(w.coll.pending_count(), 0, "no stranded host contexts");
    assert_eq!(w.nics.coll.pending_count(), 0, "no stranded NIC slots");
    // The point-to-point reliability rings reached their high-water mark
    // during warm-up too — collective frames ride the same windows.
    assert_eq!(w.nics.rel.stats.retransmits, 0, "lossless fabric");
}

/// The request seam above the channel (`knet_core::req`) rides the same
/// contract. An ORFS client and an NBD client run request-heavy rounds —
/// announced writes (two sends per request), direct reads, a metadata
/// call; windowed block writes (eight requests in flight) and raw reads —
/// and once warm, correlating all of it costs nothing: the request tables
/// (slab + send-context map) stop growing, and so does the channel
/// context pool underneath them. The rounds run back to back, each only
/// until its ops resolved, for at least two `CALL_HORIZON`s of virtual
/// time: each table's horizon timer fires inside the measured window with
/// requests in flight, and re-arms.
#[test]
fn orfs_and_nbd_request_paths_keep_the_request_seam_flat() {
    use knet::figures::{fs_fixture, FsOpts};
    use knet::harness::{fsops, ubuf};
    use knet::prelude::*;

    let mut fx = fs_fixture(FsOpts {
        file_len: 1 << 20,
        ..FsOpts::default()
    });
    let n0 = fx.client_node;
    let nbd_user = ubuf(&mut fx.w, n0, 128 * 1024);
    let nbd_cep = fx.w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let nbd_sep = fx.w.open_mx(NodeId(1), MxEndpointConfig::kernel()).unwrap();
    knet_nbd::nbd_server_create(&mut fx.w, nbd_sep, 1024).unwrap();
    let nbd = knet_nbd::nbd_client_create(&mut fx.w, nbd_cep, nbd_sep, 7).unwrap();
    let fd = fsops::open(&mut fx.w, fx.cid, "/data", true).unwrap();

    let (cid, user) = (fx.cid, fx.user);
    let round = |w: &mut ClusterWorld| {
        assert_eq!(
            fsops::write(w, cid, fd, user.memref(64 * 1024), 0),
            Ok(65536)
        );
        assert_eq!(
            fsops::read(w, cid, fd, user.memref(64 * 1024), 0),
            Ok(65536)
        );
        fsops::stat(w, cid, "/data").unwrap();
        let write = knet_nbd::nbd_write(w, nbd, nbd_user.memref(128 * 1024), 0);
        let read = knet_nbd::nbd_read_raw(w, nbd, nbd_user.memref(4096), 3);
        let resolved = |w: &ClusterWorld| {
            let done = &w.nbd.clients[nbd.0 as usize].completed;
            [write, read]
                .iter()
                .all(|op| done.iter().any(|(o, _)| o == op))
        };
        assert_eq!(run_until(w, resolved), RunOutcome::Satisfied);
        let c = &mut w.nbd.clients[nbd.0 as usize];
        assert_eq!(knet_nbd::nbd_wait(c, write), Some(Ok(128 * 1024)));
        assert_eq!(knet_nbd::nbd_wait(c, read), Some(Ok(4096)));
    };
    let sizes = |w: &ClusterWorld| {
        (
            w.orfs.client(cid).request_table_capacity(),
            w.nbd.clients[nbd.0 as usize].request_table_capacity(),
            w.registry.stats.ctx_pool_slots,
        )
    };

    for _ in 0..8 {
        round(&mut fx.w);
    }
    let (warm, requests0) = (sizes(&fx.w), fx.w.orfs.client(cid).stats.requests);
    assert!(
        warm.0 > 0 && warm.1 >= 8,
        "warm-up is where the tables grow"
    );
    let (t_warm, mut rounds) = (now(&fx.w), 0);
    while rounds < 50 || now(&fx.w) < t_warm + CALL_HORIZON * 2 {
        round(&mut fx.w);
        rounds += 1;
    }
    assert!(fx.w.orfs.client(cid).stats.requests >= requests0 + 150);
    assert_eq!(
        sizes(&fx.w),
        warm,
        "steady-state requests must not grow a request table or the context pool"
    );
}

/// The cached-I/O engine (`knet_core::pageio`) under both storage clients
/// copies every page through one recycled bounce buffer: once warm, an op
/// served from the page-cache allocates the same handful of times whether
/// it covers one page or sixteen (the op record, its completion event) —
/// nothing per page, on the read side or in the write side's copy-in.
#[test]
fn cached_io_allocations_do_not_grow_with_the_page_count() {
    use knet::figures::{fs_fixture, FsOpts};
    use knet::harness::{fsops, ubuf};
    use knet::prelude::*;

    const BIG: u64 = 64 * 1024;
    let mut fx = fs_fixture(FsOpts {
        file_len: 1 << 20,
        ..FsOpts::default()
    });
    let n0 = fx.client_node;
    let nbd_user = ubuf(&mut fx.w, n0, BIG);
    let nbd_cep = fx.w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let nbd_sep = fx.w.open_mx(NodeId(1), MxEndpointConfig::kernel()).unwrap();
    knet_nbd::nbd_server_create(&mut fx.w, nbd_sep, 1024).unwrap();
    let nbd = knet_nbd::nbd_client_create(&mut fx.w, nbd_cep, nbd_sep, 7).unwrap();
    let fd = fsops::open(&mut fx.w, fx.cid, "/data", false).unwrap();
    let (w, cid, user) = (&mut fx.w, fx.cid, fx.user);

    let nbd_read = |w: &mut ClusterWorld, len: u64| {
        let op = knet_nbd::nbd_read(w, nbd, nbd_user.memref(len), 0);
        knet_simcore::run_to_quiescence(w);
        let c = &mut w.nbd.clients[nbd.0 as usize];
        assert_eq!(knet_nbd::nbd_wait(c, op), Some(Ok(len)));
    };
    // Warm-up: the pages enter the cache, the bounce buffer and the
    // completion queues reach their high-water marks.
    let op = knet_nbd::nbd_write(w, nbd, nbd_user.memref(BIG), 0);
    knet_simcore::run_to_quiescence(w);
    let c = &mut w.nbd.clients[nbd.0 as usize];
    assert_eq!(knet_nbd::nbd_wait(c, op), Some(Ok(BIG)));
    for len in [BIG, PAGE_SIZE, BIG] {
        assert_eq!(fsops::read(w, cid, fd, user.memref(len), 0), Ok(len));
        assert_eq!(fsops::write(w, cid, fd, user.memref(len), 0), Ok(len));
        nbd_read(w, len);
    }
    let misses = w.os.node(n0).page_cache.stats.misses;

    let mut allocs = |len: u64| {
        let (read, _) = count(|| fsops::read(w, cid, fd, user.memref(len), 0).unwrap());
        let (write, _) = count(|| fsops::write(w, cid, fd, user.memref(len), 0).unwrap());
        let (block, _) = count(|| nbd_read(w, len));
        (read, write, block)
    };
    let (one_page, sixteen_pages) = (allocs(PAGE_SIZE), allocs(BIG));
    assert_eq!(
        sixteen_pages, one_page,
        "allocations of a cached (ORFS read, ORFS write, NBD read) of 16 pages vs 1"
    );
    assert_eq!(
        w.os.node(n0).page_cache.stats.misses,
        misses,
        "every counted op was served from the cache"
    );
}
