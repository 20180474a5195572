//! The selective-repeat reliability layer vs a reference delivery model.
//!
//! The contract `knet_simnic::rel` owes the drivers is simple to state:
//! over any fabric the fault plan can produce (loss, duplication,
//! delay-reorder — short of a dead node), every sequenced packet handed to
//! `rel_send` is delivered to the remote driver **exactly once and
//! byte-exact**, the sender's unacked window never exceeds its cap, and a
//! link whose peer stops answering dies after exactly `max_retries + 1`
//! unanswered questions (retransmission rounds and liveness probes) — at
//! RTT scale, and never while answers still come back.
//! This suite drives the real state machine — both window halves, the
//! control-stream acks, the adaptive RTO — over randomized fault schedules
//! and checks it against that model packet by packet. (White-box
//! properties, like "a SACKed packet is never retransmitted", live next to
//! the state machine in `crates/simnic/src/rel.rs`; here we observe the
//! black-box contract plus the stats the SACK machinery exposes.)

use knet_simcore::{run_to_quiescence, run_until, Scheduler, SimTime, SimWorld};
use knet_simnic::{
    rel_on_packet, rel_send, FaultPlan, NicId, NicLayer, NicModel, NicWorld, Packet, Proto,
    RelVerdict,
};
use knet_simos::{CpuModel, OsLayer, OsWorld};
use proptest::prelude::*;

/// A minimal composed world: the NIC fabric with the reliability layer,
/// and a "driver" that records every fresh delivery.
struct RelWorld {
    sched: Scheduler<RelWorld>,
    os: OsLayer,
    nics: NicLayer,
    /// Fresh (non-duplicate) deliveries, as `(packet index, payload)`.
    delivered: Vec<(u64, Vec<u8>)>,
    /// Dead-link upcalls.
    dead: Vec<(Proto, NicId, NicId)>,
}

impl SimWorld for RelWorld {
    type Ev = knet_simcore::BoxEvent<Self>;
    fn sched(&self) -> &Scheduler<Self> {
        &self.sched
    }
    fn sched_mut(&mut self) -> &mut Scheduler<Self> {
        &mut self.sched
    }
}
impl OsWorld for RelWorld {
    fn os(&self) -> &OsLayer {
        &self.os
    }
    fn os_mut(&mut self) -> &mut OsLayer {
        &mut self.os
    }
}
impl NicWorld for RelWorld {
    fn nics(&self) -> &NicLayer {
        &self.nics
    }
    fn nics_mut(&mut self) -> &mut NicLayer {
        &mut self.nics
    }
    fn nic_rx(&mut self, _nic: NicId, pkt: Packet) {
        // Exactly what the drivers do first with every inbound packet.
        if rel_on_packet(self, &pkt) == RelVerdict::Consumed {
            return;
        }
        self.delivered.push((pkt.meta[0], pkt.payload.to_vec()));
    }
    fn nic_link_dead(&mut self, proto: Proto, local: NicId, remote: NicId) {
        self.dead.push((proto, local, remote));
    }
}

fn world() -> (RelWorld, NicId, NicId) {
    let mut w = RelWorld {
        sched: Scheduler::new(),
        os: OsLayer::new(),
        nics: NicLayer::new(),
        delivered: Vec::new(),
        dead: Vec::new(),
    };
    let n0 = w.os.add_node(CpuModel::xeon_2600(), 64);
    let n1 = w.os.add_node(CpuModel::xeon_2600(), 64);
    let a = w.nics.add_nic(n0, NicModel::pci_xd());
    let b = w.nics.add_nic(n1, NicModel::pci_xd());
    (w, a, b)
}

/// The reference side: payload of packet `idx` in a stream seeded `s`.
fn payload(s: u64, idx: u64) -> Vec<u8> {
    let len = 1 + ((s ^ idx.wrapping_mul(0x9E37_79B9)) % 300) as usize;
    (0..len)
        .map(|j| {
            (s as u8)
                .wrapping_add((idx as u8).wrapping_mul(31))
                .wrapping_add(j as u8)
        })
        .collect()
}

fn send_stream(w: &mut RelWorld, a: NicId, b: NicId, s: u64, n: u64) {
    for idx in 0..n {
        send_one(w, a, b, s, idx);
    }
}

/// Packet `idx` of stream `s`, handed to the window now.
fn send_one(w: &mut RelWorld, a: NicId, b: NicId, s: u64, idx: u64) -> Packet {
    let pkt = Packet::new(
        a,
        b,
        Proto::Gm,
        0,
        [idx, 0, 0, 0],
        bytes::Bytes::from(payload(s, idx)),
        16,
    );
    rel_send(w, pkt.clone(), SimTime::ZERO);
    pkt
}

/// Send packet `idx` of stream `s` into a black hole: a → b drops exactly
/// this one transmission (the dice roll as it leaves), and the fabric is
/// clean again right after.
fn lose_one(w: &mut RelWorld, a: NicId, b: NicId, s: u64, idx: u64) -> Packet {
    let (na, nb) = (w.nics.get(a).node, w.nics.get(b).node);
    w.nics
        .set_fault_plan(FaultPlan::new(1).for_link(na, nb, FaultPlan::new(2).with_drop(1.0)));
    let pkt = send_one(w, a, b, s, idx);
    w.nics.set_fault_plan(FaultPlan::new(1));
    pkt
}

/// A link that has shown loss evidence and settled its estimator on the
/// floor: packet 0 of stream `s` is lost and repaired by an RTO round
/// whose ack the echo does not refute, then packets `1..n` flow clean.
fn lossy_settled_link(s: u64, n: u64) -> (RelWorld, NicId, NicId) {
    let (mut w, a, b) = world();
    lose_one(&mut w, a, b, s, 0);
    run_to_quiescence(&mut w);
    assert_eq!(w.nics.rel.stats.timeouts, 1, "an RTO round repaired it");
    assert_eq!(w.nics.rel.stats.spurious_rtos, 0, "a real loss");
    for idx in 1..n {
        send_one(&mut w, a, b, s, idx);
    }
    run_to_quiescence(&mut w);
    assert_delivery(&w, s, n);
    let (_, rto) = w.nics.rel.link_rtt(Proto::Gm, a, b).expect("sampled");
    assert_eq!(
        rto,
        knet_simnic::rel::MIN_RTO,
        "the estimator settled on the floor"
    );
    (w, a, b)
}

/// Run to quiescence while tracking the window high-water mark at every
/// event boundary.
fn run_tracking_window(w: &mut RelWorld, a: NicId, b: NicId) -> usize {
    let mut max_load = 0usize;
    let _ = run_until(w, |w: &RelWorld| {
        max_load = max_load.max(w.nics.rel.window_load(Proto::Gm, a, b));
        false
    });
    max_load
}

/// Exactly-once, byte-exact delivery against the reference model.
fn assert_delivery(w: &RelWorld, s: u64, n: u64) {
    // Hard gate: a typed engine error anywhere in the run means the
    // equivalence evidence is void, whatever the delivery record says.
    assert_eq!(
        w.sched.engine_error(),
        None,
        "engine errors are a hard fail"
    );
    assert_eq!(w.sched.engine_stats().errors, 0);
    let mut got: Vec<_> = w.delivered.clone();
    got.sort_by_key(|(idx, _)| *idx);
    assert_eq!(got.len() as u64, n, "every packet delivered, none twice");
    for (i, (idx, bytes)) in got.iter().enumerate() {
        assert_eq!(*idx, i as u64, "index {i} delivered exactly once");
        assert_eq!(bytes, &payload(s, *idx), "payload {i} byte-exact");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random loss / duplication / delay-reorder schedules: the stream
    /// arrives exactly once and byte-exact, the unacked window never
    /// exceeds its cap, and the link survives.
    #[test]
    fn stream_survives_random_fault_schedules(
        seed in any::<u64>(),
        loss in 0u64..26,
        dup in any::<bool>(),
        reorder in any::<bool>(),
        n in 40u64..120,
    ) {
        let (mut w, a, b) = world();
        let mut plan = FaultPlan::new(seed).with_drop(loss as f64 / 100.0);
        if dup {
            plan = plan.with_dup(0.06);
        }
        if reorder {
            plan = plan.with_delay(0.1, SimTime::from_micros(2), SimTime::from_micros(40));
        }
        w.nics.set_fault_plan(plan);
        send_stream(&mut w, a, b, seed, n);
        let max_load = run_tracking_window(&mut w, a, b);
        prop_assert!(
            max_load <= knet_simnic::rel::WINDOW,
            "window cap violated: {max_load}"
        );
        prop_assert!(w.dead.is_empty(), "the link must survive recoverable faults");
        assert_delivery(&w, seed, n);
        let rel = w.nics.rel.stats;
        prop_assert_eq!(rel.data_packets, n);
        // Everything settled: no packet left buffered anywhere.
        prop_assert_eq!(w.nics.rel.buffered_total(), 0);
        if loss == 0 && !dup && !reorder {
            prop_assert_eq!(rel.retransmits, 0, "a clean fabric never retransmits");
            prop_assert_eq!(rel.spurious_rtos, 0);
            prop_assert_eq!(rel.dup_dropped, 0);
        }
    }
}

/// A deterministic high-loss run: the SACK machinery must be doing the
/// work — entries acked out of order, retransmission rounds sparing them —
/// while the stream still lands exactly once.
#[test]
fn high_loss_exercises_sack_machinery() {
    let (mut w, a, b) = world();
    w.nics.set_fault_plan(
        FaultPlan::new(0x5AC4)
            .with_drop(0.2)
            .with_dup(0.05)
            .with_delay(0.1, SimTime::from_micros(2), SimTime::from_micros(40)),
    );
    send_stream(&mut w, a, b, 7, 200);
    let max_load = run_tracking_window(&mut w, a, b);
    assert!(max_load <= 64);
    assert_delivery(&w, 7, 200);
    let rel = w.nics.rel.stats;
    assert!(rel.retransmits > 0, "20% loss forces retransmission rounds");
    assert!(rel.sacked > 0, "out-of-order arrivals are SACKed");
    assert!(
        rel.sack_repairs > 0,
        "retransmission rounds spare SACKed packets"
    );
    assert!(
        rel.retransmits < rel.data_packets,
        "selective repeat resends a fraction of the stream, not multiples \
         of it (got {} resends for {} packets)",
        rel.retransmits,
        rel.data_packets
    );
    assert!(rel.rtt_samples > 0, "acks feed the RTT estimator");
}

/// The adaptive RTO converges near the true network RTT on a clean
/// fabric — orders of magnitude below the 200 µs initial period.
#[test]
fn adaptive_rto_tracks_the_fabric() {
    let (mut w, a, b) = world();
    send_stream(&mut w, a, b, 3, 100);
    run_to_quiescence(&mut w);
    assert_delivery(&w, 3, 100);
    let (srtt, rto) = w.nics.rel.link_rtt(Proto::Gm, a, b).expect("sampled");
    // Small packets on PCI-XD: ack comes back ~one cut-through latency
    // (550 ns) after wire departure.
    assert!(
        srtt < SimTime::from_micros(5),
        "SRTT should sit near the wire RTT, got {srtt}"
    );
    assert_eq!(
        rto,
        knet_simnic::rel::MIN_RTO,
        "on a fast clean fabric the RTO clamps to its floor"
    );
    assert_eq!(w.nics.rel.stats.spurious_rtos, 0);
    assert_eq!(w.nics.rel.stats.retransmits, 0);
}

/// A link whose packets never arrive dies after exactly `max_retries + 1`
/// unanswered questions, tears its rings down, and reports once — while an independent healthy
/// link on the same fabric keeps flowing. (The kill uses a per-link plan,
/// so this also pins down that `for_link` faults stay on their directed
/// pair: note the lossy direction carries both a→b data *and* the
/// control-stream acks for b→a traffic, so the healthy stream must live on
/// a different node pair entirely.)
#[test]
fn budget_exhaustion_kills_only_the_dead_link() {
    let (mut w, a, b) = world();
    let n2 = w.os.add_node(CpuModel::xeon_2600(), 64);
    let n3 = w.os.add_node(CpuModel::xeon_2600(), 64);
    let c = w.nics.add_nic(n2, NicModel::pci_xd());
    let d = w.nics.add_nic(n3, NicModel::pci_xd());
    let (na, nb) = (w.nics.get(a).node, w.nics.get(b).node);
    // The a→b data direction is dead; everything else is clean.
    w.nics
        .set_fault_plan(FaultPlan::new(1).for_link(na, nb, FaultPlan::new(2).with_drop(1.0)));
    send_stream(&mut w, a, b, 11, 5);
    // A healthy stream on the unrelated pair, identified by indices ≥ 1000.
    for idx in 1000..1010u64 {
        let pkt = Packet::new(
            c,
            d,
            Proto::Gm,
            0,
            [idx, 0, 0, 0],
            bytes::Bytes::from(payload(11, idx)),
            16,
        );
        rel_send(&mut w, pkt, SimTime::ZERO);
    }
    run_to_quiescence(&mut w);
    assert_eq!(w.dead, vec![(Proto::Gm, a, b)], "dead exactly once");
    assert!(w.nics.rel.link_dead(Proto::Gm, a, b));
    assert!(
        !w.nics.rel.link_dead(Proto::Gm, c, d),
        "unrelated link healthy"
    );
    let rel = w.nics.rel.stats;
    assert_eq!(
        rel.timeouts + rel.probes,
        knet_simnic::rel::MAX_RETRIES as u64 + 1,
        "death exactly at the last unanswered question"
    );
    assert_eq!(w.nics.rel.buffered_total(), 0, "all rings torn down");
    let healthy: Vec<_> = w.delivered.iter().filter(|(i, _)| *i >= 1000).collect();
    assert_eq!(healthy.len(), 10, "healthy pair unaffected");
    assert_eq!(
        w.sched.engine_error(),
        None,
        "engine errors are a hard fail"
    );
}

/// Run until `done`, recording the instant of every new retransmission
/// round together with the link's RTO right after it.
fn rounds_until(
    w: &mut RelWorld,
    a: NicId,
    b: NicId,
    done: impl Fn(&RelWorld) -> bool,
) -> Vec<(SimTime, SimTime)> {
    let mut rounds = Vec::new();
    let before = w.nics.rel.stats.timeouts;
    let _ = run_until(w, |w: &RelWorld| {
        if w.nics.rel.stats.timeouts - before > rounds.len() as u64 {
            let rto = w.nics.rel.link_rtt(Proto::Gm, a, b).map(|(_, rto)| rto);
            rounds.push((w.sched.now(), rto.unwrap_or(SimTime::ZERO)));
        }
        done(w)
    });
    rounds
}

/// A peer that dies on a link with an RTT sample (so the pre-backoff RTO
/// is the 50 µs floor) is found by probes at that cadence: the link dies
/// after exactly `max_retries + 1` unanswered questions, well under a
/// millisecond after the first RTO — while the data rounds between the
/// probes still back off exponentially. Nine backed-off rounds alone take
/// about 9 ms. The link has shown loss, so a tail-loss probe goes out
/// first; it is not a question and moves no round.
#[test]
fn a_dead_peer_is_found_by_rtt_scale_probes() {
    let (mut w, a, b) = lossy_settled_link(5, 20);
    let min_rto = knet_simnic::rel::MIN_RTO;
    let timeouts_before = w.nics.rel.stats.timeouts;

    let kill = w.sched.now();
    let nb = w.nics.get(b).node;
    w.nics.set_fault_plan(FaultPlan::new(3).with_kill(nb, kill));
    send_stream(&mut w, a, b, 6, 3);
    let rounds = rounds_until(&mut w, a, b, |w| !w.dead.is_empty());
    assert_eq!(w.dead, vec![(Proto::Gm, a, b)], "dead exactly once");
    assert!(rounds.len() >= 2, "data rounds ran between the probes");
    let dead_at = w.sched.now();

    let rel = w.nics.rel.stats;
    let budget = knet_simnic::rel::MAX_RETRIES as u64 + 1;
    assert_eq!(rel.tlps, 1, "one tail-loss probe before the first round");
    assert_eq!(
        rel.timeouts - timeouts_before + rel.probes,
        budget,
        "dead at exactly max_retries + 1 unanswered questions"
    );
    assert!(rel.probes > 0, "probes filled the backoff gaps");
    let first_rto = rounds[0].0;
    assert!(
        first_rto >= kill + min_rto && first_rto < kill + min_rto * 2,
        "the first round fires one RTO after the last send ({first_rto})"
    );
    assert!(
        dead_at - first_rto < SimTime::from_millis(1),
        "found dead {} after the first RTO — not RTT scale",
        dead_at - first_rto
    );
    // The data rounds kept their exponential backoff: each doubled the
    // RTO, and each waited out the doubled period before the next.
    let rtos: Vec<SimTime> = rounds.iter().map(|&(_, rto)| rto).collect();
    let doubled: Vec<SimTime> = (1..=rounds.len() as u64)
        .map(|i| min_rto * (1 << i))
        .collect();
    assert_eq!(rtos[..rounds.len() - 1], doubled[..rounds.len() - 1]);
    for (pair, &rto) in rounds.windows(2).zip(&rtos) {
        assert!(
            pair[1].0 - pair[0].0 >= rto,
            "round at {} came before the backed-off RTO {rto} elapsed",
            pair[1].0
        );
    }
}

/// A lone lost packet — nothing behind it to raise a SACK — on a link that
/// has shown loss is repaired by one tail-loss probe a probe timeout
/// (≈ 2·srtt) after it left, not by a retransmission round a 50 µs RTO
/// floor later: it lands within 4·srtt plus one serialization time of
/// its original departure.
#[test]
fn a_lone_tail_loss_is_repaired_by_a_probe_not_the_rto() {
    let (mut w, a, b) = lossy_settled_link(8, 20);
    let (srtt, _) = w.nics.rel.link_rtt(Proto::Gm, a, b).expect("sampled");
    let before = w.nics.rel.stats;
    let pkt = lose_one(&mut w, a, b, 8, 20);
    let serialization = w.nics.get(a).model.link_bw.transfer_time(pkt.wire_len);
    let departed = w.sched.now() + serialization;
    let _ = run_until(&mut w, |w: &RelWorld| {
        w.delivered.iter().any(|&(idx, _)| idx == 20)
    });
    let landed = w.sched.now();
    assert!(
        landed <= departed + srtt * 4 + serialization,
        "the lone loss landed {} after it left (srtt {srtt})",
        landed - departed
    );
    run_to_quiescence(&mut w);
    assert_delivery(&w, 8, 21);
    let rel = w.nics.rel.stats;
    assert_eq!(rel.tlps - before.tlps, 1, "one tail-loss probe");
    assert_eq!(rel.timeouts, before.timeouts, "no retransmission round");
    assert_eq!(
        rel.retransmits - before.retransmits,
        1,
        "the probe is the one resend"
    );
    let row = w.nics.rel.link_stats(Proto::Gm, a, b).expect("sent");
    assert_eq!(row.tlps, rel.tlps, "the link's row carries the probe");
}

/// No false death under heavy loss: with 20 % of data *and* acks lost, no
/// link dies over ten seeds and every packet lands exactly once — the
/// answers that do come back keep resetting the question count.
#[test]
fn twenty_percent_loss_both_ways_never_kills_a_link() {
    for seed in 0..10u64 {
        let (mut w, a, b) = world();
        w.nics
            .set_fault_plan(FaultPlan::new(0x2020 + seed).with_drop(0.2));
        send_stream(&mut w, a, b, seed, 150);
        run_to_quiescence(&mut w);
        assert!(
            w.dead.is_empty(),
            "seed {seed}: a live link was declared dead"
        );
        assert_eq!(w.nics.rel.stats.dead_links, 0);
        assert_delivery(&w, seed, 150);
    }
}

/// Evidence has to come back: with only the ack direction black-holed the
/// data all arrives, the peer NIC answers every probe — and every answer
/// is lost too, so the link still dies after exactly `max_retries + 1`
/// unanswered questions.
#[test]
fn a_black_holed_ack_direction_still_kills_the_link() {
    let (mut w, a, b) = world();
    let (na, nb) = (w.nics.get(a).node, w.nics.get(b).node);
    w.nics
        .set_fault_plan(FaultPlan::new(1).for_link(nb, na, FaultPlan::new(2).with_drop(1.0)));
    send_stream(&mut w, a, b, 9, 5);
    run_to_quiescence(&mut w);
    assert_delivery(&w, 9, 5);
    assert_eq!(w.dead, vec![(Proto::Gm, a, b)], "dead exactly once");
    let rel = w.nics.rel.stats;
    assert!(rel.probes > 0, "the peer was probed");
    assert_eq!(
        rel.timeouts + rel.probes,
        knet_simnic::rel::MAX_RETRIES as u64 + 1
    );
}
