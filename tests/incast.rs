//! Incast: N senders converge on one receiver NIC.
//!
//! The receive FIFO model makes over-driven fan-in drop arrivals
//! *deterministically* (no fault dice), so incast loss is self-inflicted
//! by the fabric — exactly what the per-link AIMD windows plus SACK fast
//! retransmit exist to repair. The regression here is congestion
//! collapse: without a control loop every drop triggers a full paced
//! retransmission round, goodput falls as senders are added, and the
//! retransmit ratio grows without bound.
//!
//! Asserted invariants:
//! * every byte arrives (the reliability window hides the drops),
//! * goodput is monotone-ish in the sender count (no collapse),
//! * `retransmits / data_packets` stays bounded,
//! * the 16-sender point actually exercises the rx-FIFO model
//!   (`nic.rx_congestion_drops > 0`), and there the control loop beats
//!   the fixed-window sender on goodput (≥ 1.5×) and on p99 latency,
//! * every sender count's elapsed time, p99, drops and retransmits, with
//!   and without the control loop, match a pinned table,
//! * the whole scenario — events and summed counters — is bit-identical per
//!   seed at shard counts 1/2/4.

use knet::harness::kbuf;
use knet::prelude::*;
use knet::ShardedCluster;
use knet_core::api::{channel_connect, channel_send};
use knet_simnic::{FaultPlan, NicModel};
use knet_simos::Asid;

const MSG: u64 = 32 * 1024;
const ROUNDS: u64 = 6;

fn builder(n_senders: usize) -> ClusterBuilder {
    ClusterBuilder::new()
        .nodes(n_senders + 1, CpuModel::xeon_2600())
        .nic(NicModel::pci_xe())
}

/// Fan-in fixture: sender endpoints on nodes `1..=n`, one receiver
/// endpoint on node 0, one channel per sender pointing at it.
struct Incast {
    recv_ep: Endpoint,
    senders: Vec<(knet_core::api::ChannelId, knet::harness::KBuf)>,
}

fn incast_setup(w: &mut ClusterWorld, n_senders: usize) -> Incast {
    let rcq = w.new_cq();
    let recv_ep = w
        .open_mx_cq(NodeId(0), MxEndpointConfig::kernel(), rcq)
        .unwrap();
    let mut senders = Vec::new();
    for i in 1..=n_senders {
        let node = NodeId(i as u32);
        let cq = w.new_cq();
        let ep = w.open_mx_cq(node, MxEndpointConfig::kernel(), cq).unwrap();
        let ch = channel_connect(w, ep, recv_ep, cq);
        let buf = kbuf(w, node, MSG);
        senders.push((ch, buf));
    }
    Incast { recv_ep, senders }
}

fn post_round(
    w: &mut ClusterWorld,
    s: &(knet_core::api::ChannelId, knet::harness::KBuf),
    round: u64,
    sender: u64,
) {
    let (ch, buf) = *s;
    let data: Vec<u8> = (0..MSG)
        .map(|j| (sender * 37 + round * 131 + j) as u8)
        .collect();
    w.os.node_mut(buf.node)
        .write_virt(Asid::KERNEL, buf.addr, &data)
        .unwrap();
    channel_send(w, ch, round * 100 + sender, buf.iov(MSG)).unwrap();
}

/// One incast run: goodput in bytes/s of virtual time, the run's elapsed
/// ns, the p99 per-message latency in ns (round start to the message's
/// arrival), and the world's stats tree.
struct IncastRun {
    goodput: f64,
    elapsed_ns: u64,
    p99_ns: u64,
    st: knet::WorldStats,
}

/// Run barrier-synchronized incast rounds sequentially (the classic
/// incast shape: every sender answers the round's request at once, the
/// next round starts when the fan-in drains).
fn incast_goodput(n_senders: usize, rel: knet_simnic::RelParams) -> IncastRun {
    let mut w = builder(n_senders).rel_params(rel).build();
    let inc = incast_setup(&mut w, n_senders);
    let mut lat = Vec::new();
    let mut got_bytes = 0u64;
    for round in 0..ROUNDS {
        let start = knet_simcore::now(&w);
        for (i, s) in inc.senders.iter().enumerate() {
            post_round(&mut w, s, round, i as u64 + 1);
        }
        // Every byte must arrive despite the self-inflicted drops.
        let mut landed = 0;
        while landed < n_senders {
            let outcome = run_until(&mut w, |w: &ClusterWorld| w.has_event(inc.recv_ep));
            assert_eq!(
                outcome,
                RunOutcome::Satisfied,
                "{n_senders} senders: stalled at {landed} in round {round}"
            );
            let at = knet_simcore::now(&w) - start;
            while let Some(ev) = w.take_event(inc.recv_ep) {
                if let TransportEvent::Unexpected { data, .. } = ev {
                    landed += 1;
                    got_bytes += data.len() as u64;
                    lat.push(at.nanos());
                }
            }
        }
        run_to_quiescence(&mut w);
    }
    assert_eq!(w.sched.engine_error(), None);
    assert_eq!(got_bytes, n_senders as u64 * ROUNDS * MSG);

    lat.sort_unstable();
    let elapsed_ns = knet_simcore::now(&w).nanos().max(1);
    IncastRun {
        goodput: got_bytes as f64 / (elapsed_ns as f64 / 1e9),
        elapsed_ns,
        p99_ns: lat[(lat.len() * 99).div_ceil(100) - 1],
        st: w.stats(),
    }
}

/// One row per sender count: the control loop's run and the fixed
/// window's, each as (elapsed ns, p99 ns, rx-FIFO drops, retransmits).
/// Pinned exactly: a change that moves a row edits this table and says why.
const INCAST_ROWS: [(usize, [u64; 4], [u64; 4]); 4] = [
    (2, [1_386_103, 212_092, 0, 0], [1_386_103, 212_092, 0, 0]),
    (4, [2_641_910, 375_548, 0, 0], [2_641_910, 375_548, 0, 0]),
    (8, [5_863_369, 702_460, 0, 0], [5_863_369, 702_460, 0, 0]),
    (
        16,
        [9_954_142, 1_293_564, 264, 264],
        [22_522_412, 1_883_698, 348, 348],
    ),
];

/// The headline regression: adding senders must not collapse goodput,
/// and the control loop keeps the retransmit ratio bounded even while
/// the rx FIFO is genuinely overflowing.
#[test]
fn incast_goodput_is_monotone_ish_and_retransmits_stay_bounded() {
    let row = |r: &IncastRun| {
        [
            r.elapsed_ns,
            r.p99_ns,
            r.st.nic.rx_congestion_drops,
            r.st.rel.retransmits,
        ]
    };
    let mut prev = 0.0f64;
    let mut rows = Vec::new();
    for (n, ..) in INCAST_ROWS {
        let cc = incast_goodput(n, knet_simnic::RelParams::default());
        let fixed = incast_goodput(n, knet_simnic::RelParams::fixed_window());
        rows.push((n, row(&cc), row(&fixed)));
        let (goodput, st) = (cc.goodput, &cc.st);
        assert!(
            goodput >= prev * 0.75,
            "congestion collapse at {n} senders: {:.1} MB/s after {:.1} MB/s",
            goodput / 1e6,
            prev / 1e6
        );
        prev = prev.max(goodput);
        assert!(st.rel.data_packets > 0);
        let ratio = st.rel.retransmits as f64 / st.rel.data_packets as f64;
        assert!(
            ratio < 0.5,
            "{n} senders: retransmit ratio {ratio:.3} unbounded \
             ({} resends / {} data packets)",
            st.rel.retransmits,
            st.rel.data_packets
        );
        if n == 16 {
            assert!(
                st.nic.rx_congestion_drops > 0,
                "16-way incast never overflowed the rx FIFO — the \
                 scenario stopped exercising the contention model"
            );
            // `cc: false` switches the whole loop off, fast retransmit and
            // NACK repair included: the reference sender repairs by RTO
            // rounds (and tail-loss probes) only.
            assert_eq!(
                fixed.st.rel.fast_retransmits, 0,
                "fixed window fast-retransmitted"
            );
            assert_eq!(fixed.st.rel.nack_resends, 0, "fixed window repaired a NACK");
            // The control loop (NACK-driven repair + AIMD + fast
            // retransmit) must beat the pre-control-loop sender, whose
            // only repair for fan-in tail drops is the RTO, on goodput
            // and on the tail.
            assert!(
                goodput >= fixed.goodput * 1.5,
                "control loop buys only {:.2}x over the fixed-window \
                 sender ({:.1} vs {:.1} MB/s)",
                goodput / fixed.goodput,
                goodput / 1e6,
                fixed.goodput / 1e6
            );
            assert!(
                cc.p99_ns < fixed.p99_ns,
                "control loop worsens p99 ({} vs {} ns)",
                cc.p99_ns,
                fixed.p99_ns
            );
        }
    }
    assert_eq!(rows, INCAST_ROWS, "the incast rows moved");
}

// ------------------------------------------------------- shard identity

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The incast workload under a seeded lossy fabric, returning an
/// order-sensitive fingerprint of everything the receiver observed and
/// the cluster's summed stats tree.
fn incast_fingerprint(
    d: &mut ShardedCluster,
    n_senders: usize,
    seed: u64,
) -> ((u64, u64), knet::WorldStats) {
    let inc = d.setup(|w| {
        w.set_fault_plan(FaultPlan::new(seed).with_drop(0.03).with_delay(
            0.05,
            SimTime::from_micros(2),
            SimTime::from_micros(40),
        ));
        incast_setup(w, n_senders)
    });
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..3u64 {
        for (i, s) in inc.senders.iter().enumerate() {
            d.on(i as u32 + 1, |w| post_round(w, s, round, i as u64 + 1));
        }
        d.run_to_quiescence();
        fp = d.on(0, |w| {
            let mut h = fp;
            while let Some(ev) = w.take_event(inc.recv_ep) {
                if let TransportEvent::Unexpected { tag, data, from } = ev {
                    let sum: u64 = data.iter().map(|&b| b as u64).sum();
                    h = mix(
                        mix(mix(mix(h, tag), data.len() as u64), sum),
                        from.idx as u64,
                    );
                }
            }
            h
        });
    }
    ((d.executed(), fp), d.stats())
}

/// Same seed ⇒ same incast, event for event and counter for counter, at
/// shard counts 1 (the sequential engine), 2 and 4 (8 senders + 1
/// receiver: node count not divisible by either).
#[test]
fn incast_fingerprints_match_across_shard_counts() {
    let n = 8;
    let (baseline, base_stats) = incast_fingerprint(&mut builder(n).build_sharded(1), n, 0x1_CA57);
    assert_ne!(baseline.1, 0xcbf2_9ce4_8422_2325, "receiver saw traffic");
    assert!(
        base_stats.rel.retransmits > 0,
        "the lossy fabric cost resends"
    );
    for k in [2usize, 4] {
        let (got, stats) = incast_fingerprint(&mut builder(n).build_sharded(k), n, 0x1_CA57);
        assert_eq!(got, baseline, "shard count {k} diverged");
        assert_eq!(
            stats.shard_invariant_diff(&base_stats),
            Vec::<String>::new(),
            "summed counters diverged at {k} shards"
        );
    }
}

/// No false death under fan-in: sixteen senders converge 32 kB each on
/// one receiver at zero loss, so every round's receive backlog drains for
/// longer than the whole question budget takes at the 50 µs floor — yet
/// no link dies. The receiver's NIC keeps answering (acks, NACKs, probe
/// answers ahead of its rx FIFO), and each answer resets the count. The
/// backlog puts every RTO above its floor, so no tail-loss probe fires
/// either: a queued packet is not a lost one.
#[test]
fn a_deep_rx_backlog_never_kills_a_live_link() {
    let n = 16;
    for rel in [
        knet_simnic::RelParams::default(),
        knet_simnic::RelParams::fixed_window(),
    ] {
        let IncastRun { goodput, st, .. } = incast_goodput(n, rel);
        let round = SimTime::from_nanos(((n as u64 * MSG) as f64 / goodput * 1e9) as u64);
        let budget = knet_simnic::rel::MIN_RTO * (knet_simnic::rel::MAX_RETRIES as u64 + 1);
        assert!(
            round > budget,
            "the fan-in drains in {round}, inside the {budget} question budget"
        );
        assert!(st.nic.rx_congestion_drops > 0, "the rx FIFO overflowed");
        assert_eq!(st.rel.dead_links, 0, "cc={}: a live link died", rel.cc);
        assert_eq!(st.rel.tlps, 0, "cc={}: a backlog drew tail probes", rel.cc);
    }
}
