//! Sharded-engine equivalence: the conservative-lookahead parallel engine
//! must be **bit-identical** to the sequential event loop.
//!
//! Every workload here runs once on a plain sequential `ClusterWorld` and
//! once per shard count on a [`ShardedCluster`] (real threads for 2+
//! shards), with the same seed, and must produce the same fingerprint:
//! `executed()` event counts, a rolling hash of every transport event each
//! endpoint observed, and — for the collective workload — the NIC tree
//! fingerprint. A single reordered event anywhere shifts the fingerprint.
//! The stats tree rides along: `ShardedCluster::stats()` must equal the
//! sequential world's `stats()` on every running total at every shard
//! count, and on the sequential world the per-link rows must sum to the
//! `rel` block they slice.
//!
//! This file keeps the only `Driver` adapter over a raw `ClusterWorld`: it
//! is the reference the one-shard cluster (`build_sharded(1)`, what every
//! other suite uses as its sequential leg) is itself held to.
//!
//! The chaos workload exercises the whole cross-shard surface: seeded
//! drop/duplicate/delay fault dice (per-directed-link streams), MX channel
//! traffic in both directions, reliability retransmission timers, acks,
//! and node kills with `PeerDown` failover.

use knet::harness::{kbuf, KBuf};
use knet::prelude::*;
use knet::{ShardedCluster, WorldStats};
use knet_core::api::{channel_send, ChannelId};
use knet_core::Endpoint;
use knet_simnic::{FaultPlan, RelLinkStats};
use knet_simos::Asid;
use proptest::prelude::*;

// ----------------------------------------------------------------- driver

/// One workload driver: the sequential baseline or a sharded cluster. The
/// workloads below are written against this so the *same code* drives both
/// engines.
enum Driver {
    Seq(Box<ClusterWorld>),
    Sharded(Box<ShardedCluster>),
}

impl Driver {
    fn seq(n: usize) -> Self {
        Driver::Seq(Box::new(builder(n).build()))
    }

    fn sharded(n: usize, k: usize) -> Self {
        Driver::Sharded(Box::new(builder(n).build_sharded(k)))
    }

    /// Mirrored setup (must precede any `on`/`run`).
    fn setup<T>(&mut self, f: impl Fn(&mut ClusterWorld) -> T) -> T {
        match self {
            Driver::Seq(w) => f(w),
            Driver::Sharded(s) => s.setup(f),
        }
    }

    /// A control op against the world owning `node`.
    fn on<R>(&mut self, node: u32, f: impl FnOnce(&mut ClusterWorld) -> R) -> R {
        match self {
            Driver::Seq(w) => f(w),
            Driver::Sharded(s) => s.on(node, f),
        }
    }

    fn run(&mut self) {
        match self {
            Driver::Seq(w) => {
                run_to_quiescence(&mut **w);
            }
            Driver::Sharded(s) => {
                s.run_to_quiescence();
            }
        }
    }

    fn executed(&self) -> u64 {
        match self {
            Driver::Seq(w) => w.sched.executed(),
            Driver::Sharded(s) => s.executed(),
        }
    }

    fn world(&self, node: u32) -> &ClusterWorld {
        match self {
            Driver::Seq(w) => w,
            Driver::Sharded(s) => s.world(node),
        }
    }

    fn stats(&self) -> WorldStats {
        match self {
            Driver::Seq(w) => w.stats(),
            Driver::Sharded(s) => s.stats(),
        }
    }

    /// No shard may have recorded a typed engine error.
    fn assert_clean(&self) {
        match self {
            Driver::Seq(w) => assert_eq!(w.sched.engine_error(), None),
            Driver::Sharded(s) => assert_eq!(s.engine_error(), None),
        }
    }
}

fn builder(n: usize) -> ClusterBuilder {
    ClusterBuilder::new()
        .nodes(n, CpuModel::xeon_2600())
        .mem_frames(32_768.max(n as u32 * 512))
}

// --------------------------------------------------------- reconciliation

/// The per-link rows sum to `stats().rel` on every counter they share
/// (valid while no link was reclaimed: a dead link's row leaves with it).
fn assert_link_rows_reconcile(w: &ClusterWorld) {
    let (rel, rows) = (w.stats().rel, w.rel_link_stats());
    let sum = |of: fn(&RelLinkStats) -> u64| rows.iter().map(of).sum::<u64>();
    for (name, rows, total) in [
        ("data_packets", sum(|r| r.data_packets), rel.data_packets),
        ("retransmits", sum(|r| r.retransmits), rel.retransmits),
        ("timeouts", sum(|r| r.timeouts), rel.timeouts),
        ("sacked", sum(|r| r.sacked), rel.sacked),
        ("sack_repairs", sum(|r| r.sack_repairs), rel.sack_repairs),
        ("rtt_samples", sum(|r| r.rtt_samples), rel.rtt_samples),
        ("spurious_rtos", sum(|r| r.spurious_rtos), rel.spurious_rtos),
        (
            "fast_retransmits",
            sum(|r| r.fast_retransmits),
            rel.fast_retransmits,
        ),
    ] {
        assert_eq!(rows, total, "link rows do not sum to stats().rel.{name}");
    }
}

// ------------------------------------------------------------ fingerprint

/// FNV-1a-style rolling mix — order-sensitive, so any reordering of the
/// observed event stream changes the result.
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

fn mix_event(h: u64, ev: &TransportEvent) -> u64 {
    match ev {
        TransportEvent::SendDone { ctx } => mix(mix(h, 1), *ctx),
        TransportEvent::RecvDone { ctx, tag, len, .. } => {
            mix(mix(mix(mix(h, 2), *ctx), *tag), *len)
        }
        TransportEvent::Unexpected { tag, data, from } => {
            let sum: u64 = data.iter().map(|&b| b as u64).sum();
            mix(mix(mix(mix(h, 3), *tag), sum), from.idx as u64)
        }
        TransportEvent::SendFailed { ctx, .. } => mix(mix(h, 4), *ctx),
        TransportEvent::PeerDown { peer } => mix(mix(h, 5), peer.node.0 as u64),
        TransportEvent::CollectiveDone { ctx, data, .. } => {
            let sum: u64 = data.iter().map(|&b| b as u64).sum();
            mix(mix(mix(h, 6), *ctx), sum)
        }
        TransportEvent::CollectiveRecv { tag, data, .. } => {
            let sum: u64 = data.iter().map(|&b| b as u64).sum();
            mix(mix(mix(h, 7), *tag), sum)
        }
        TransportEvent::CollectiveFailed { ctx, .. } => mix(mix(h, 8), *ctx),
    }
}

// -------------------------------------------------------- chaos workload

struct Mesh {
    eps: Vec<Endpoint>,
    bufs: Vec<KBuf>,
    /// `chans[i]` connects `eps[i] → eps[(i + 1) % n]`.
    chans: Vec<ChannelId>,
}

/// Ring-mesh channel traffic under a seeded faulty fabric (drops, dups,
/// delay-reorder, and optionally a node kill). Returns the fingerprint.
///
/// The mesh is multi-tenant: endpoints rotate through two weighted tenants
/// plus a token-bucket-paced one, so the channel backpressure queues, the
/// driver pacing lanes and the NIC buckets all carry state under chaos —
/// and that state is folded into the fingerprint per node each round. (The
/// paced tenant stays off the kill target: a dead NIC drains nothing, by
/// design.)
fn chaos_fingerprint(
    d: &mut Driver,
    n: usize,
    seed: u64,
    loss_pct: u64,
    kill: bool,
) -> ((u64, u64), WorldStats) {
    let mesh = d.setup(|w| {
        let mut plan = FaultPlan::new(seed)
            .with_drop(loss_pct as f64 / 100.0)
            .with_dup(0.03)
            .with_delay(0.06, SimTime::from_micros(2), SimTime::from_micros(60));
        if kill {
            plan = plan.with_kill(NodeId(n as u32 - 1), SimTime::from_millis(2));
        }
        w.set_fault_plan(plan);
        let silver = w.register_tenant("silver", 2, None);
        let bulk = w.register_tenant(
            "bulk",
            3,
            Some(knet_simnic::QosPolicy {
                rate_bytes_per_sec: 50_000_000,
                burst_bytes: 16_384,
                pace_queue_cap: 256,
            }),
        );
        let gold = w.register_tenant("gold", 4, None);
        let mut eps = Vec::new();
        let mut bufs = Vec::new();
        let mut cqs = Vec::new();
        for i in 0..n {
            let node = NodeId(i as u32);
            let cq = w.new_cq();
            let ep = w.open_mx_cq(node, MxEndpointConfig::kernel(), cq).unwrap();
            w.assign_tenant(ep, [silver, bulk, gold][i % 3]);
            eps.push(ep);
            cqs.push(cq);
            bufs.push(kbuf(w, node, 64 << 10));
        }
        let chans = (0..n)
            .map(|i| knet_core::api::channel_connect(w, eps[i], eps[(i + 1) % n], cqs[i]))
            .collect();
        Mesh { eps, bufs, chans }
    });

    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..3u64 {
        for i in 0..n {
            let len = 900 + 611 * round + 37 * i as u64;
            let buf = mesh.bufs[i];
            let ch = mesh.chans[i];
            d.on(i as u32, |w| {
                let data: Vec<u8> = (0..len)
                    .map(|j| (seed ^ (round * 131 + i as u64 * 17 + j)) as u8)
                    .collect();
                w.os.node_mut(buf.node)
                    .write_virt(Asid::KERNEL, buf.addr, &data)
                    .unwrap();
                // Sends to a killed peer may fail synchronously once the
                // link dies — that is part of the fingerprinted behaviour.
                let _ = channel_send(w, ch, round * 100 + i as u64, buf.iov(len));
            });
        }
        d.run();
        for i in 0..n {
            let ep = mesh.eps[i];
            fp = d.on(i as u32, |w| {
                let mut h = fp;
                while let Some(ev) = w.take_event(ep) {
                    h = mix_event(h, &ev);
                }
                // Fold this node's tenant-scheduler slice — channel
                // backpressure queues, driver pacing lanes, NIC token
                // buckets — so a single mis-scheduled tenant byte anywhere
                // diverges.
                w.tenant_fingerprint_node(NodeId(i as u32), |v| h = mix(h, v));
                h
            });
        }
    }
    d.assert_clean();
    if let (Driver::Seq(w), false) = (&*d, kill) {
        assert_link_rows_reconcile(w);
    }
    ((d.executed(), fp), d.stats())
}

// --------------------------------------------------- collective workload

/// Broadcast + barrier + reduce rounds over an n-member NIC-tree group.
fn coll_fingerprint(
    d: &mut Driver,
    n: usize,
    fanout: usize,
    seed: u64,
) -> ((u64, u64, u64), WorldStats) {
    let (group, eps, root_buf) = d.setup(|w| {
        let mut eps = Vec::new();
        let mut bufs = Vec::new();
        for i in 0..n {
            let node = NodeId(i as u32);
            let cq = w.new_cq();
            eps.push(w.open_mx_cq(node, MxEndpointConfig::kernel(), cq).unwrap());
            bufs.push(kbuf(w, node, 32 << 10));
        }
        let group = knet_coll::group_create(w, eps[0], fanout).unwrap();
        for &ep in &eps[1..] {
            knet_coll::group_join(w, group, ep).unwrap();
        }
        (group, eps, bufs[0])
    });

    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..2u64 {
        let len = 4_000 + 512 * round;
        d.on(0, |w| {
            let payload: Vec<u8> = (0..len).map(|i| (seed ^ (round * 91 + i)) as u8).collect();
            w.os.node_mut(NodeId(0))
                .write_virt(Asid::KERNEL, root_buf.addr, &payload)
                .unwrap();
            channel_bcast(w, group, round, &root_buf.iov(len)).unwrap();
        });
        d.run();
        for (i, &ep) in eps.iter().enumerate() {
            fp = d.on(i as u32, |w| {
                let mut h = fp;
                while let Some(ev) = w.take_event(ep) {
                    h = mix_event(h, &ev);
                }
                h
            });
        }

        for (i, &ep) in eps.iter().enumerate() {
            d.on(i as u32, |w| {
                channel_barrier(w, group, ep).unwrap();
            });
        }
        d.run();

        for (i, &ep) in eps.iter().enumerate() {
            let v = (i as u64 + 1) * (round + 1);
            d.on(i as u32, |w| {
                channel_reduce(w, group, ep, ReduceOp::Sum, &[v, v * 3]).unwrap();
            });
        }
        d.run();
        for (i, &ep) in eps.iter().enumerate() {
            fp = d.on(i as u32, |w| {
                let mut h = fp;
                while let Some(ev) = w.take_event(ep) {
                    h = mix_event(h, &ev);
                }
                h
            });
        }
    }
    d.assert_clean();
    let tree = d
        .world(0)
        .nics
        .coll
        .tree_fingerprint(knet_simnic::Proto::Mx, group.0);
    ((d.executed(), fp, tree), d.stats())
}

// ----------------------------------------------------------------- tests

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// What moved between the raw sequential world's run and a sharded one's:
/// the fingerprint, or any summed running total (named). Empty = equal.
fn diverged<F: PartialEq + std::fmt::Debug>(
    got: &(F, WorldStats),
    baseline: &(F, WorldStats),
) -> Vec<String> {
    let mut diff = got.1.shard_invariant_diff(&baseline.1);
    if got.0 != baseline.0 {
        diff.push(format!("fingerprint: {:?} != {:?}", got.0, baseline.0));
    }
    diff
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The full chaos surface (faults + reliability + failover) is
    /// bit-identical at every shard count.
    #[test]
    fn chaos_fingerprints_match_across_shard_counts(
        seed in 1u64..1_000_000,
        loss in 0u64..12,
        kill in any::<bool>(),
    ) {
        let n = 9; // not divisible by any shard count: uneven ownership
        let baseline = chaos_fingerprint(&mut Driver::seq(n), n, seed, loss, kill);
        for k in SHARD_COUNTS {
            let got = chaos_fingerprint(&mut Driver::sharded(n, k), n, seed, loss, kill);
            prop_assert_eq!(diverged(&got, &baseline), Vec::<String>::new(), "{} shards", k);
        }
    }

    /// NIC-tree collectives (fan-out, fan-in, in-NIC combines) are
    /// bit-identical at every shard count.
    #[test]
    fn collective_fingerprints_match_across_shard_counts(
        seed in 1u64..1_000_000,
        fanout in 2usize..4,
    ) {
        let n = 7;
        let baseline = coll_fingerprint(&mut Driver::seq(n), n, fanout, seed);
        for k in SHARD_COUNTS {
            let got = coll_fingerprint(&mut Driver::sharded(n, k), n, fanout, seed);
            prop_assert_eq!(diverged(&got, &baseline), Vec::<String>::new(), "{} shards", k);
        }
    }
}

/// The chaos equivalence — event fingerprint and summed counters — at a
/// fixed seed against the sequential baseline, at 1, 2 and 4 shards.
#[test]
fn chaos_smoke_shard_matrix() {
    let n = 9;
    let baseline = chaos_fingerprint(&mut Driver::seq(n), n, 0xC0FFEE, 8, false);
    for k in [1, 2, 4] {
        let got = chaos_fingerprint(&mut Driver::sharded(n, k), n, 0xC0FFEE, 8, false);
        assert_eq!(
            diverged(&got, &baseline),
            Vec::<String>::new(),
            "{k} shards"
        );
    }
}

/// Steady-state rounds on the sharded engine grow no event arena. The
/// workload is ring traffic: every node sends one message to its
/// successor per round, so under `node % shards` ownership every message
/// crosses a shard boundary. One warm-up round brings every pool to its
/// high-water mark; the rounds after it must recycle them.
/// `tests/hotpath_alloc.rs` holds the sequential engine to the same.
#[test]
fn sharded_steady_state_rounds_do_not_grow_the_event_arena() {
    let (n, msg_bytes) = (100, 4096);
    for k in [2, 4] {
        let mut d = builder(n).build_sharded(k);
        let (eps, chans, bufs) = d.setup(|w| {
            let (mut eps, mut cqs, mut bufs) = (Vec::new(), Vec::new(), Vec::new());
            for i in 0..n {
                let node = NodeId(i as u32);
                let cq = w.new_cq();
                eps.push(w.open_mx_cq(node, MxEndpointConfig::kernel(), cq).unwrap());
                cqs.push(cq);
                bufs.push(kbuf(w, node, msg_bytes));
            }
            let chans: Vec<ChannelId> = (0..n)
                .map(|i| knet_core::api::channel_connect(w, eps[i], eps[(i + 1) % n], cqs[i]))
                .collect();
            (eps, chans, bufs)
        });
        let round = |d: &mut ShardedCluster, r: u64| {
            for i in 0..n {
                let (ch, iov) = (chans[i], bufs[i].iov(msg_bytes));
                d.on(i as u32, |w| channel_send(w, ch, r * 1_000 + i as u64, iov))
                    .unwrap();
            }
            d.run_to_quiescence();
            for (i, &ep) in eps.iter().enumerate() {
                d.on(i as u32, |w| while w.take_event(ep).is_some() {});
            }
        };
        round(&mut d, 0);
        let warm = d.engine_stats().0.arena_grows;
        for r in 1..=3 {
            round(&mut d, r);
        }
        assert_eq!(d.engine_error(), None);
        assert_eq!(
            d.engine_stats().0.arena_grows,
            warm,
            "{k} shards: steady-state rounds grew the event arena"
        );
    }
}
