//! The NIC transmit queue's contract (`knet_simnic::txq`): the tx link is
//! shared packet by packet, not message by message.
//!
//! * Another tenant's small message does not wait out a 32 kB message
//!   submitted just before it: it lands within the booking horizon, plus
//!   the one packet booked against it, of its unloaded latency.
//! * One tenant alone keeps its submission order, and its packets leave at
//!   the instants they did when every chunk was booked at submit.
//! * Packets queued toward a peer that dies are dropped and counted, the
//!   channel hears a typed `PeerDown`, later sends fail typed, nothing
//!   hangs, and the queue ends empty.

use std::sync::{Arc, Mutex};

use knet::build::ClusterBuilder;
use knet::harness::{kbuf, KBuf};
use knet::world::ClusterWorld;
use knet_core::api::{channel_connect, channel_connect_handler, channel_post_recv, channel_send};
use knet_core::{ChannelId, NetError, TransportEvent};
use knet_mx::MxEndpointConfig;
use knet_simcore::{call_at, now, run_to_quiescence, SimTime};
use knet_simnic::{FaultPlan, NicModel, TX_HORIZON_MTUS};
use knet_simos::{CpuModel, NodeId};

const BIG: u64 = 32 * 1024;
const SMALL: u64 = 256;

/// `(tag, length, instant)` of every message a receiver saw complete.
type Arrivals = Arc<Mutex<Vec<(u64, u64, SimTime)>>>;

/// One sending tenant: a channel from node 0 and the receive side on
/// `dst`, which records every arrival.
struct Flow {
    tx: ChannelId,
    rx: ChannelId,
    src_buf: KBuf,
    dst_buf: KBuf,
    arrivals: Arrivals,
}

fn flow(w: &mut ClusterWorld, name: &str, dst: NodeId) -> Flow {
    let (n0, cfg) = (NodeId(0), MxEndpointConfig::kernel());
    let tenant = w.register_tenant(name, 1, None);
    let cq = w.new_cq();
    let a = w.open_mx_cq(n0, cfg, cq).unwrap();
    let b = w.open_mx(dst, cfg).unwrap();
    w.assign_tenant(a, tenant);
    let arrivals: Arrivals = Arc::default();
    let seen = arrivals.clone();
    let rx = channel_connect_handler(w, b, a, name, move |w, _ep, ev| match ev {
        TransportEvent::RecvDone { tag, len, .. } => seen.lock().unwrap().push((tag, len, now(w))),
        TransportEvent::Unexpected { tag, data, .. } => {
            seen.lock().unwrap().push((tag, data.len() as u64, now(w)))
        }
        _ => {}
    });
    Flow {
        tx: channel_connect(w, a, b, cq),
        rx,
        src_buf: kbuf(w, n0, BIG),
        dst_buf: kbuf(w, dst, 64 * BIG),
        arrivals,
    }
}

/// Submit `len` bytes tagged `tag` on `f` at virtual instant `at`, its
/// receive posted beforehand.
fn send_at(w: &mut ClusterWorld, f: &Flow, at: SimTime, tag: u64, len: u64) {
    let iov = f.dst_buf.iov(64 * BIG);
    channel_post_recv(w, f.rx, tag, iov).unwrap();
    let (tx, src) = (f.tx, f.src_buf.iov(len));
    call_at(w, 0, at, move |w: &mut ClusterWorld| {
        channel_send(w, tx, tag, src).unwrap();
    });
}

fn two_nodes() -> ClusterWorld {
    ClusterBuilder::new()
        .nodes(2, CpuModel::xeon_2600())
        .nic(NicModel::pci_xd())
        .build()
}

/// The instant a 256 B message submitted at 1 µs lands, with or without a
/// 32 kB message of another tenant submitted at 0 on the same card.
fn small_lands_at(behind_big: bool) -> SimTime {
    let mut w = two_nodes();
    let a = flow(&mut w, "bulk", NodeId(1));
    let b = flow(&mut w, "small", NodeId(1));
    if behind_big {
        send_at(&mut w, &a, SimTime::ZERO, 1, BIG);
    }
    send_at(&mut w, &b, SimTime::from_micros(1), 2, SMALL);
    run_to_quiescence(&mut w);
    assert_eq!(w.nics.tx_queued(), 0, "the queue ends empty");
    let got = b.arrivals.lock().unwrap().clone();
    assert_eq!(got.len(), 1);
    assert_eq!((got[0].0, got[0].1), (2, SMALL));
    if behind_big {
        assert_eq!(a.arrivals.lock().unwrap().len(), 1, "the big one lands too");
    }
    got[0].2
}

#[test]
fn a_small_send_does_not_wait_behind_another_tenants_32k_message() {
    let alone = small_lands_at(false);
    let behind = small_lands_at(true);
    let pci_xd = NicModel::pci_xd();
    let mtu_time = pci_xd.link_bw.transfer_time(pci_xd.mtu);
    // Booked whole at submit, the 32 kB message held the link for its
    // eight chunks (≈ 131 µs) and the small one landed after all of them.
    // Now it waits for what was booked when it arrived — at most the
    // horizon plus the one packet booked against it — and its turn comes
    // before the bulk tenant's next packet.
    let bound = mtu_time * (TX_HORIZON_MTUS + 1);
    assert!(
        behind <= alone + bound,
        "256 B behind a 32 kB send landed at {behind}, alone at {alone} \
         (allowed {bound} more)"
    );
    assert!(
        behind > alone,
        "it still shares the link: {behind} vs {alone}"
    );
}

/// Arrival instants of one tenant's stream — a 32 kB message, a 256 B one
/// and a 4 kB one submitted together, another 32 kB 20 µs later —
/// recorded with every chunk booked on the link at submit.
const ALONE_ARRIVALS: [(u64, u64, u64); 4] = [
    (1, BIG, 168_796),
    (2, SMALL, 169_509),
    (3, 4096, 172_965),
    (4, BIG, 318_556),
];

#[test]
fn one_tenant_keeps_its_order_and_its_instants() {
    let mut w = two_nodes();
    let a = flow(&mut w, "alone", NodeId(1));
    let t0 = SimTime::ZERO;
    send_at(&mut w, &a, t0, 1, BIG);
    send_at(&mut w, &a, t0, 2, SMALL);
    send_at(&mut w, &a, t0, 3, 4096);
    send_at(&mut w, &a, SimTime::from_micros(20), 4, BIG);
    run_to_quiescence(&mut w);
    let got: Vec<(u64, u64, u64)> = a
        .arrivals
        .lock()
        .unwrap()
        .iter()
        .map(|&(tag, len, at)| (tag, len, at.nanos()))
        .collect();
    assert_eq!(got, ALONE_ARRIVALS);
    let nic = w.nics.nic_of_node(NodeId(0)).unwrap();
    assert!(
        w.nics.get(nic).stats.tx_queued > 0,
        "the stream really went through the queue"
    );
    assert_eq!(w.nics.tx_queued(), 0, "the queue ends empty");
}

/// A peer dies while a busy card still holds packets toward it in the
/// queue: those are dropped at their turn and counted, the sending channel
/// hears `PeerDown` and later sends toward the peer fail typed, the other
/// tenant's stream to a live node completes, and the queue ends empty.
#[test]
fn packets_queued_toward_a_dead_peer_are_dropped_and_counted() {
    let mut w = ClusterBuilder::new()
        .nodes(3, CpuModel::xeon_2600())
        .nic(NicModel::pci_xd())
        .build();
    let doomed = flow(&mut w, "doomed", NodeId(1));
    let live = flow(&mut w, "live", NodeId(2));
    w.set_fault_plan(FaultPlan::new(11).with_kill(NodeId(1), SimTime::ZERO));
    // Enough traffic toward the live node to keep the link past the
    // horizon until well after the dead link is declared.
    const DOOMED: u64 = 40;
    const LIVE: u64 = 200;
    for i in 0..DOOMED {
        channel_send(&mut w, doomed.tx, i, doomed.src_buf.iov(BIG)).unwrap();
    }
    for i in 0..LIVE {
        channel_send(&mut w, live.tx, i, live.src_buf.iov(BIG)).unwrap();
    }
    run_to_quiescence(&mut w);

    let nic = w.nics.nic_of_node(NodeId(0)).unwrap();
    let stats = w.nics.get(nic).stats;
    assert!(
        stats.tx_queue_dead_drops > 0,
        "packets were still queued toward the peer when its link died"
    );
    assert_eq!(w.nics.tx_queued(), 0, "the queue ends empty");
    assert_eq!(w.nics.rel.buffered_total(), 0, "window rings drained");
    assert!(doomed.arrivals.lock().unwrap().is_empty());
    assert_eq!(live.arrivals.lock().unwrap().len() as u64, LIVE);

    let sender = w.registry.channel(doomed.tx).unwrap().local;
    let mut events = Vec::new();
    w.take_events(sender, usize::MAX, &mut events);
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, TransportEvent::PeerDown { .. })),
        "the channel hears of the dead peer: {events:?}"
    );
    assert_eq!(
        channel_send(&mut w, doomed.tx, 99, doomed.src_buf.iov(BIG)),
        Err(NetError::PeerUnreachable),
        "later sends fail typed"
    );
    run_to_quiescence(&mut w);
    assert_eq!(w.nics.tx_queued(), 0);
}
