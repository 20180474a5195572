//! Single-flow goodput in virtual time: one GM channel pair streams a
//! fixed number of messages, and the time from the first send to the last
//! delivery is a deterministic protocol property, not a host-speed one.
//!
//! * **Loss sweep** — 400 × 4 kB through the 64-deep reliability window at
//!   0–20 % loss: no stall, and no live link is ever declared dead.
//! * **Dual-link striping** — the deficit lane selector stripes the MTU
//!   chunks of even a single flow across a PCI-XE card's links, so two
//!   links reach at least 1.8× the goodput of one.
//!
//! Both curves are pinned exactly as integer ns and counts: a change that
//! moves a row edits its table and says why.

use knet::harness::kbuf;
use knet::prelude::*;
use knet_core::api::{
    channel_connect, channel_post_recv, channel_send, channel_set_send_queue_cap,
};
use knet_simnic::{FaultPlan, NicModel};

/// Stream `msgs` messages of `msg_bytes` from node 0 to node 1 over one GM
/// channel pair, all queued at once; return the virtual time from the
/// first send to the last `RecvDone`.
fn gm_stream(w: &mut ClusterWorld, msgs: u64, msg_bytes: u64) -> SimTime {
    let (n0, n1) = (NodeId(0), NodeId(1));
    let (cq0, cq1) = (w.new_cq(), w.new_cq());
    let cfg = GmPortConfig::kernel().with_physical_api();
    let a = w.open_gm_cq(n0, cfg.clone(), cq0).unwrap();
    let b = w.open_gm_cq(n1, cfg, cq1).unwrap();
    let ka = kbuf(w, n0, msg_bytes);
    let kb = kbuf(w, n1, msg_bytes);
    let ch_a = channel_connect(w, a, b, cq0);
    let ch_b = channel_connect(w, b, a, cq1);
    channel_set_send_queue_cap(w, ch_a, msgs as usize + 8);
    for tag in 1..=msgs {
        channel_post_recv(w, ch_b, tag, kb.iov(msg_bytes)).unwrap();
    }
    let t0 = now(w);
    for tag in 1..=msgs {
        channel_send(w, ch_a, tag, ka.iov(msg_bytes)).unwrap();
    }
    // Stop at the last delivery, so the elapsed time measures delivery,
    // not trailing retransmit timers firing idle.
    let mut batch = Vec::new();
    let mut delivered = 0;
    while delivered < msgs {
        let outcome = run_until(w, |w: &ClusterWorld| w.has_event(b));
        assert_eq!(
            outcome,
            RunOutcome::Satisfied,
            "stalled at {delivered}/{msgs}"
        );
        w.take_events(b, usize::MAX, &mut batch);
        delivered += batch
            .iter()
            .filter(|e| matches!(e.event, TransportEvent::RecvDone { .. }))
            .count() as u64;
    }
    now(w) - t0
}

/// One row per loss %: (loss %, elapsed ns, retransmits, timeouts, SACK
/// repairs, spurious RTOs, dead links). 400 × 4 kB on the default fabric,
/// fault seed `0xD1CE + loss`. Goodput is 400 × 4096 B over the elapsed
/// time: 247.9 MB/s at 0 % loss, 199.0 at 10 %, 123.9 at 15 % and 116.1
/// at 20 %. The lossy rows moved when the NIC's transmit queue began
/// booking the link a packet at a time: fresh packets now meet the fault
/// dice as they are booked, interleaved with recovery traffic, so each row
/// draws another loss pattern.
const LOSS_SWEEP_ROWS: [(u64, u64, u64, u64, u64, u64, u64); 6] = [
    (0, 6_609_264, 0, 0, 0, 0, 0),
    (2, 6_827_924, 7, 2, 22, 0, 0),
    (5, 7_433_384, 21, 11, 54, 0, 0),
    (10, 8_232_224, 39, 20, 102, 0, 0),
    (15, 13_226_744, 93, 54, 163, 0, 0),
    (20, 14_110_164, 138, 47, 432, 0, 0),
];

/// The loss sweep never stalls and never kills a live link. It is the
/// heavy-loss gate of ROADMAP direction 4(b).
#[test]
fn loss_sweep_delivers_every_message_and_kills_no_link() {
    let mut got = Vec::new();
    for (loss, ..) in LOSS_SWEEP_ROWS {
        let mut w = ClusterBuilder::new().build();
        if loss > 0 {
            w.set_fault_plan(FaultPlan::new(0xD1CE + loss).with_drop(loss as f64 / 100.0));
        }
        let elapsed = gm_stream(&mut w, 400, 4096);
        // The final window's lost acks can trigger recovery rounds after
        // the last delivery: count them too.
        run_to_quiescence(&mut w);
        let rel = w.nics.rel.stats;
        assert_eq!(rel.dead_links, 0, "{loss}% loss: a live link died");
        got.push((
            loss,
            elapsed.nanos(),
            rel.retransmits,
            rel.timeouts,
            rel.sack_repairs,
            rel.spurious_rtos,
            rel.dead_links,
        ));
    }
    assert_eq!(got, LOSS_SWEEP_ROWS, "the loss sweep moved");
}

/// One row per message size: (message bytes, elapsed ns on one link,
/// elapsed ns on two). 4 MB in total over a lossless PCI-XE fabric.
const STRIPING_ROWS: [(u64, u64, u64); 3] = [
    (64 * 1024, 16_887_458, 8_453_204),
    (256 * 1024, 16_887_458, 8_453_204),
    (1024 * 1024, 16_887_458, 8_453_204),
];

/// Two links carry one flow at ≥ 1.8× the goodput of one link, at every
/// message size.
#[test]
fn dual_link_striping_nearly_doubles_one_flow() {
    let stream = |links: usize, msg_bytes: u64| {
        let mut w = ClusterBuilder::new()
            .nodes(2, CpuModel::xeon_2600())
            .nic(NicModel::pci_xe().with_links(links))
            .build();
        gm_stream(&mut w, (4 << 20) / msg_bytes, msg_bytes).nanos()
    };
    let mut got = Vec::new();
    for (msg_bytes, ..) in STRIPING_ROWS {
        let (one, two) = (stream(1, msg_bytes), stream(2, msg_bytes));
        assert!(
            two * 18 <= one * 10,
            "{msg_bytes} B: two links take {two} ns against one link's {one} ns (< 1.8×)"
        );
        got.push((msg_bytes, one, two));
    }
    assert_eq!(got, STRIPING_ROWS, "the striping rows moved");
}
