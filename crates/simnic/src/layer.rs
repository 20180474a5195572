//! The NIC layer: per-card state, DMA transfers, and the crossbar fabric.
//!
//! Timing structure of a transfer (what produces the paper's bandwidth
//! curves): the driver cuts a message into MTU chunks; each chunk reserves
//! the DMA engine ([`dma_gather`]) and then a transmit link ([`wire_send`]).
//! Because both are [`Busy`]/[`LaneBank`] resources, chunk *i*'s wire time
//! overlaps chunk *i+1*'s DMA time — the bus and the wire pipeline, and the
//! slower stage (the 250 MB/s link) sets the asymptotic bandwidth.
//!
//! How the link is booked: DMA and firmware are charged eagerly, chunk by
//! chunk, when the driver submits a message, but the transmit link is
//! booked a packet at a time by the card's transmit queue
//! ([`crate::txq`]). A packet goes on the link at once while nothing is
//! queued and the booked backlog is at most
//! [`crate::txq::TX_HORIZON_MTUS`] MTU-times; otherwise it waits in its
//! tenant's FIFO until a NIC-local wake ([`NicEv::TxWake`]) books the
//! queued packets round robin across tenants, one horizon ahead of the
//! wire. Recovery traffic (retransmission rounds, tail-loss probes, NACK
//! resends, packets the reliability window parked) and NIC collective
//! frames bypass the queue.

use bytes::Bytes;
use knet_simcore::{Busy, Counters, LaneBank, SimTime};
use knet_simos::{NodeId, OsError, OsWorld, PhysSeg};

use knet_simcore::SimEvent;

use crate::coll::{CollEvent, CollState, PendKey};
use crate::fault::{FaultPlan, FaultState, FaultStats, FaultVerdict, CLEAN};
use crate::model::NicModel;
use crate::packet::{NicId, Packet, Proto};
use crate::qos::QosState;
use crate::rel::{LinkKey, RelState};
use crate::ttable::TransTable;
use crate::txq::TxQueue;

knet_simcore::counters! {
    /// Counters exposed to figures and tests.
    pub struct NicStats {
        pub tx_packets: u64,
        pub tx_bytes: u64,
        pub rx_packets: u64,
        pub rx_bytes: u64,
        pub dma_to_host_bytes: u64,
        pub dma_from_host_bytes: u64,
        /// Arrivals dropped because the receive FIFO backlog exceeded
        /// [`crate::model::NicModel::rx_fifo`] (incast congestion at this
        /// card). Deterministic — no fault dice involved.
        pub rx_congestion_drops: u64,
        /// Transmissions per physical lane (lane striping observability; lanes
        /// beyond the fourth fold into the last bucket).
        pub lane_tx: [u64; 4],
        /// Driver packets that waited in the transmit queue
        /// ([`crate::txq`]) instead of being booked on the link at submit.
        pub tx_queued: u64,
        /// Queued packets dropped at their turn because their reliability
        /// link had died meanwhile.
        pub tx_queue_dead_drops: u64,
        /// Transmit-queue structure growth (warm-up only in steady state).
        pub tx_queue_grows: u64,
    }
}

/// One NIC: hardware resources plus the bounded translation table.
pub struct Nic {
    pub id: NicId,
    pub node: NodeId,
    pub model: NicModel,
    /// The LANai firmware processor (drivers charge their own costs on it).
    pub fw: Busy,
    /// The host-memory DMA engine.
    pub dma: Busy,
    /// Transmit links (two lanes on PCI-XE).
    pub tx: LaneBank,
    /// Receive links: each arrival occupies its serialization time here,
    /// so converging senders contend — and overflow the receive FIFO —
    /// exactly where a real incast hurts.
    pub rx: LaneBank,
    pub ttable: TransTable,
    pub stats: NicStats,
    /// Driver packets waiting for the tx link ([`crate::txq`]).
    pub(crate) txq: TxQueue,
}

impl Nic {
    fn new(id: NicId, node: NodeId, model: NicModel) -> Self {
        let tx = LaneBank::new(model.links);
        let rx = LaneBank::new(model.links);
        let ttable = TransTable::new(model.ttable_entries);
        let txq = TxQueue::new(&model);
        Nic {
            id,
            node,
            model,
            fw: Busy::new(),
            dma: Busy::new(),
            tx,
            rx,
            ttable,
            stats: NicStats::default(),
            txq,
        }
    }
}

/// All NICs, connected by a full-crossbar switch.
#[derive(Default)]
pub struct NicLayer {
    nics: Vec<Nic>,
    /// Node → its first NIC, indexed by node id (`None` for a node without
    /// a card); filled by [`Self::add_nic`].
    first_nic: Vec<Option<NicId>>,
    /// Recycled gather buffer for [`dma_gather`]: one payload copy per
    /// chunk (into the packet's `Bytes`), no intermediate `Vec` per DMA.
    gather_scratch: Vec<u8>,
    /// Recycled segment list of the MTU chunk a driver is currently
    /// gathering (`knet_core::driver::send_chunks`): no chunk list per send.
    pub chunk_scratch: Vec<PhysSeg>,
    /// Installed fault plan, if any. `None` keeps the fabric perfect and
    /// consumes no randomness (bit-identical to the pre-fault simulator).
    fault: Option<FaultState>,
    /// NIC-level reliability windows (see [`crate::rel`]); GM and MX route
    /// every protocol packet through them.
    pub rel: RelState,
    /// NIC-resident collective trees (see [`crate::coll`]): fan-out/fan-in
    /// state progressed entirely at the firmware layer. Empty (and cost-
    /// and event-free) until a group is installed.
    pub coll: CollState,
    /// Per-tenant token-bucket admission (see [`crate::qos`]). Empty —
    /// every send admitted free — until a tenant policy is installed.
    pub qos: QosState,
}

impl NicLayer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or replace) a fault plan; the fabric starts rolling its
    /// dice from the plan's seed.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultState::new(plan));
    }

    /// Counters of injected faults (zeros when no plan is installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Is `node` killed by the installed plan at instant `now`?
    pub fn node_dead(&self, node: NodeId, now: SimTime) -> bool {
        self.fault.as_ref().is_some_and(|f| f.node_dead(node, now))
    }

    pub(crate) fn fault_verdict(&mut self, src: NodeId, dst: NodeId, now: SimTime) -> FaultVerdict {
        match self.fault.as_mut() {
            Some(f) => f.verdict(src, dst, now),
            None => CLEAN,
        }
    }

    /// Drop the lazily-derived fault dice stream of a directed node pair
    /// (dead-link reclaim; no-op without a plan or for streams pinned by an
    /// explicit per-link override).
    pub(crate) fn reclaim_fault_stream(&mut self, src: NodeId, dst: NodeId) {
        if let Some(f) = self.fault.as_mut() {
            f.reclaim_stream(src, dst);
        }
    }

    /// Materialized fault dice streams (tests: dead-link reclaim keeps
    /// this bounded under link churn).
    pub fn fault_streams(&self) -> usize {
        self.fault.as_ref().map(|f| f.streams()).unwrap_or(0)
    }

    /// Arrivals dropped to receive-FIFO overflow, summed over every card
    /// (the fabric-wide incast congestion signal).
    pub fn congestion_drops(&self) -> u64 {
        self.totals().rx_congestion_drops
    }

    /// Every card's [`NicStats`] merged (the `nic` block of the stats tree).
    pub fn totals(&self) -> NicStats {
        NicStats::merged(self.nics.iter().map(|n| n.stats))
    }

    /// Install a NIC in `node`; returns its id.
    pub fn add_nic(&mut self, node: NodeId, model: NicModel) -> NicId {
        let id = NicId(self.nics.len() as u32);
        self.nics.push(Nic::new(id, node, model));
        let n = node.0 as usize;
        if self.first_nic.len() <= n {
            self.first_nic.resize(n + 1, None);
        }
        self.first_nic[n].get_or_insert(id);
        id
    }

    pub fn count(&self) -> usize {
        self.nics.len()
    }

    pub fn get(&self, id: NicId) -> &Nic {
        &self.nics[id.0 as usize]
    }

    pub fn get_mut(&mut self, id: NicId) -> &mut Nic {
        &mut self.nics[id.0 as usize]
    }

    /// Driver packets waiting in every card's transmit queue (zero at
    /// quiescence).
    pub fn tx_queued(&self) -> usize {
        self.nics.iter().map(|n| n.txq.len()).sum()
    }

    /// The first NIC installed in `node`, if any.
    pub fn nic_of_node(&self, node: NodeId) -> Option<NicId> {
        *self.first_nic.get(node.0 as usize)?
    }
}

/// A NIC-layer event: everything the fabric schedules into the future.
///
/// These are the simulator's hottest events (every packet arrival and every
/// ack is one), so the composed world embeds them as a variant of its typed
/// event enum — no boxing, no per-event allocation. The [`NicWorld::lift_nic`]
/// hook performs that embedding; its default boxes, which is what generic
/// layer test worlds use.
pub enum NicEv {
    /// `pkt` arrives at `nic` (scheduled by [`wire_send`]).
    Rx { nic: NicId, pkt: Packet },
    /// Deferred delivery of `pkt` at `nic`: its receive lane was backed up
    /// at arrival, so delivery waits for the backlog to drain (only ever
    /// scheduled under contention — the uncontended path delivers inline
    /// from the `Rx` event).
    RxDeliver { nic: NicId, pkt: Packet },
    /// `nic`'s transmit queue books its next packets on the link (see
    /// [`crate::txq`]).
    TxWake { nic: NicId },
    /// The reliability window's retransmission timer for link `key` fires
    /// at the sender.
    RelTimer { key: LinkKey },
    /// A control-stream ack for link `key` arrives back at the sender:
    /// cumulative ack, SACK bitmap, echoed wire-departure timestamp.
    RelCtrl {
        key: LinkKey,
        cum: u64,
        sack: u64,
        echo: SimTime,
    },
    /// A receiver NIC's rx FIFO shed sequenced packet `seq` of link `key`;
    /// the notification arrives back at the sender (GM-style NACK). `hold`
    /// is the receive backlog at the drop — the retry-after hint.
    RelNack {
        key: LinkKey,
        seq: u64,
        hold: SimTime,
    },
    /// A liveness probe of link `key` arrives at the receiver's NIC, which
    /// answers it on the spot.
    RelProbe { key: LinkKey },
    /// The receiver NIC's answer to a liveness probe of link `key` arrives
    /// back at the sender.
    RelAnswer { key: LinkKey },
    /// The collective engine delivers `ev` to the host at `nic` (a DMA
    /// completion into the host rings).
    Coll {
        proto: Proto,
        nic: NicId,
        ev: CollEvent,
    },
    /// A collective fan-in slot's liveness probe period elapsed.
    CollProbe { key: PendKey },
}

/// Execute a [`NicEv`] against the world. The composed world's event enum
/// dispatches through this; so does the boxed default of
/// [`NicWorld::lift_nic`].
pub fn run_nic_ev<W: NicWorld>(w: &mut W, ev: NicEv) {
    match ev {
        NicEv::Rx { nic, pkt } => {
            // Receive-link contention: the packet occupied a receive lane
            // for its serialization time, ending at this arrival instant.
            // A free lane delivers inline — bit-identical to the
            // pre-contention simulator, no extra event. A busy lane defers
            // delivery until the backlog drains; a backlog deeper than the
            // receive FIFO drops the packet on the floor (deterministic —
            // no fault dice). Converging senders thus congest exactly
            // where a real incast hurts, and the loss is self-inflicted.
            let now = knet_simcore::now(w);
            let verdict = {
                let d = w.nics_mut().get_mut(nic);
                let occ = d.model.link_bw.transfer_time(pkt.wire_len);
                let ideal = now.saturating_sub(occ);
                let backlog = d.rx.free_at().saturating_sub(ideal);
                if backlog > d.model.link_bw.transfer_time(d.model.rx_fifo) {
                    d.stats.rx_congestion_drops += 1;
                    Err(backlog)
                } else {
                    let (_, _, end) = d.rx.acquire(ideal, occ);
                    Ok((end > now).then_some(end))
                }
            };
            match verdict {
                Err(backlog) => {
                    // Shed to overflow: the NIC knows exactly which packet
                    // it dropped *and* how deep the queue was, so the
                    // reliability layer can notify the sender immediately
                    // (GM-style NACK) with a retry-after hint that keeps
                    // the resend from re-colliding with the same backlog.
                    crate::rel::rel_on_rx_drop(w, &pkt, backlog);
                }
                Ok(Some(end)) => {
                    let node = w.nics().get(nic).node.0;
                    let ev = W::lift_nic(NicEv::RxDeliver { nic, pkt });
                    knet_simcore::emit_at(w, node, end, ev);
                }
                Ok(None) => {
                    // Receive-side accounting happens at delivery time (it
                    // is the destination node's state, so the shard owning
                    // it does it).
                    let d = w.nics_mut().get_mut(nic);
                    d.stats.rx_packets += 1;
                    d.stats.rx_bytes += pkt.wire_len;
                    w.nic_rx(nic, pkt);
                }
            }
        }
        NicEv::RxDeliver { nic, pkt } => {
            let d = w.nics_mut().get_mut(nic);
            d.stats.rx_packets += 1;
            d.stats.rx_bytes += pkt.wire_len;
            w.nic_rx(nic, pkt);
        }
        NicEv::TxWake { nic } => crate::txq::tx_wake(w, nic),
        NicEv::RelTimer { key } => crate::rel::rel_timeout(w, key),
        NicEv::RelCtrl {
            key,
            cum,
            sack,
            echo,
        } => crate::rel::ack_arrival(w, key, cum, sack, echo),
        NicEv::RelNack { key, seq, hold } => crate::rel::nack_arrival(w, key, seq, hold),
        NicEv::RelProbe { key } => crate::rel::probe_arrival(w, key),
        NicEv::RelAnswer { key } => crate::rel::answer_arrival(w, key),
        NicEv::Coll { proto, nic, ev } => w.coll_event(proto, nic, ev),
        NicEv::CollProbe { key } => crate::coll::probe_fire(w, key),
    }
}

/// Capability trait: a world containing NICs.
pub trait NicWorld: OsWorld {
    fn nics(&self) -> &NicLayer;
    fn nics_mut(&mut self) -> &mut NicLayer;

    /// Embed a NIC event into the world's event representation. Composed
    /// worlds override this with a plain enum wrap (allocation-free); the
    /// default boxes a closure, which generic test worlds rely on.
    fn lift_nic(ev: NicEv) -> <Self as knet_simcore::SimWorld>::Ev {
        SimEvent::from_call(Box::new(move |w: &mut Self| run_nic_ev(w, ev)))
    }

    /// A packet arrived at `nic`. The composed world routes this to the
    /// firmware of whichever driver (GM or MX) owns the card.
    fn nic_rx(&mut self, nic: NicId, pkt: Packet);

    /// A reliability window's questions went unanswered `max_retries + 1`
    /// times in a row: the `(proto, local, remote)` link is dead. The
    /// composed world propagates this as
    /// `PeerDown` to the channels above that face the dead node; the
    /// default (raw fabric tests, benchmark substrates) ignores it.
    fn nic_link_dead(&mut self, _proto: Proto, _local: NicId, _remote: NicId) {}

    /// The collective engine (see [`crate::coll`]) has something for the
    /// host at `nic`: a reassembled broadcast payload, a barrier release,
    /// or the root's aggregated completion. The composed world maps these
    /// to channel-level events; the default (raw fabric tests) ignores
    /// them.
    fn coll_event(&mut self, _proto: Proto, _nic: NicId, _ev: CollEvent) {}
}

/// DMA from host memory into the NIC: gathers the bytes described by `segs`
/// from the node's physical memory and reserves the DMA engine starting no
/// earlier than `ready`. Returns the data and the completion instant.
pub fn dma_gather<W: NicWorld>(
    w: &mut W,
    nic: NicId,
    ready: SimTime,
    segs: &[PhysSeg],
) -> Result<(Bytes, SimTime), OsError> {
    let now = knet_simcore::now(w);
    let node = w.nics().get(nic).node;
    let mut data = std::mem::take(&mut w.nics_mut().gather_scratch);
    data.clear();
    data.reserve(PhysSeg::total_len(segs) as usize);
    if let Err(e) = w.os().node(node).mem.gather(segs, &mut data) {
        w.nics_mut().gather_scratch = data;
        return Err(e);
    }
    let bytes = Bytes::copy_from_slice(&data);
    let n = w.nics_mut().get_mut(nic);
    let dur = n.model.dma_setup * segs.len().max(1) as u64
        + n.model.dma_bw.transfer_time(data.len() as u64);
    let (_, end) = n.dma.acquire(ready.max(now), dur);
    n.stats.dma_from_host_bytes += data.len() as u64;
    w.nics_mut().gather_scratch = data;
    Ok((bytes, end))
}

/// DMA from the NIC into host memory: scatters `data` into `segs` and
/// reserves the DMA engine starting no earlier than `ready`. Returns the
/// completion instant.
pub fn dma_scatter<W: NicWorld>(
    w: &mut W,
    nic: NicId,
    ready: SimTime,
    segs: &[PhysSeg],
    data: &[u8],
) -> Result<SimTime, OsError> {
    let now = knet_simcore::now(w);
    let node = w.nics().get(nic).node;
    w.os_mut().node_mut(node).mem.scatter(segs, data)?;
    let n = w.nics_mut().get_mut(nic);
    let dur = n.model.dma_setup * segs.len().max(1) as u64
        + n.model.dma_bw.transfer_time(data.len() as u64);
    let (_, end) = n.dma.acquire(ready.max(now), dur);
    n.stats.dma_to_host_bytes += data.len() as u64;
    Ok(end)
}

/// Pure timing charge on the DMA engine (descriptor prefetch, event DMA to
/// host rings) without moving payload bytes.
pub fn dma_charge<W: NicWorld>(w: &mut W, nic: NicId, ready: SimTime, bytes: u64) -> SimTime {
    let now = knet_simcore::now(w);
    let n = w.nics_mut().get_mut(nic);
    let dur = n.model.dma_setup + n.model.dma_bw.transfer_time(bytes);
    let (_, end) = n.dma.acquire(ready.max(now), dur);
    end
}

/// Put `pkt` on the wire no earlier than `ready`; schedules `nic_rx` at the
/// destination and returns the instant the last bit leaves the source link.
///
/// Each packet occupies one transmit link for `wire_len / link_bw`; the
/// crossbar adds cut-through latency. Packets between the same pair of NICs
/// arrive in order per link.
pub fn wire_send<W: NicWorld>(w: &mut W, mut pkt: Packet, ready: SimTime) -> SimTime {
    let now = knet_simcore::now(w);
    let dst = pkt.dst;
    let (tx_done, arrival, src_node, dst_node) = {
        let src_node = w.nics().get(pkt.src).node;
        let dst_node = w.nics().get(dst).node;
        let n = w.nics_mut().get_mut(pkt.src);
        let occupancy = n.model.link_bw.transfer_time(pkt.wire_len);
        // Deficit-based lane selection: the first-free lane gets the
        // packet, so a dual-link card stripes a single flow across both
        // lanes packet by packet.
        let (lane, _, end) = n.tx.acquire(ready.max(now), occupancy);
        n.stats.lane_tx[lane.min(3)] += 1;
        n.stats.tx_packets += 1;
        n.stats.tx_bytes += pkt.wire_len;
        (end, end + n.model.wire_latency, src_node, dst_node)
    };
    // Sequenced packets carry their wire-departure instant; the ack they
    // trigger echoes it back, feeding the sender's RTT estimator
    // (`crate::rel`). Stamped here — after link acquisition — so queueing
    // behind earlier packets never inflates the RTT sample.
    if pkt.rel_seq != 0 {
        pkt.rel_tsval = tx_done;
    }
    // The fault plan rolls its dice once the bits are on the wire: the
    // sender's link time is spent either way.
    let FaultVerdict::Deliver {
        extra,
        duplicate,
        dup_extra,
    } = w.nics_mut().fault_verdict(src_node, dst_node, now)
    else {
        return tx_done; // lost in the fabric
    };
    let arrival = arrival + extra;
    if duplicate {
        deliver_at(w, dst, pkt.clone(), arrival + dup_extra);
    }
    deliver_at(w, dst, pkt, arrival);
    tx_done
}

fn deliver_at<W: NicWorld>(w: &mut W, dst: NicId, pkt: Packet, arrival: SimTime) {
    let node = w.nics().get(dst).node.0;
    let ev = W::lift_nic(NicEv::Rx { nic: dst, pkt });
    knet_simcore::emit_at(w, node, arrival, ev);
}

/// Charge firmware processing time on a NIC starting no earlier than
/// `ready`; returns when the firmware is done. GM and MX charge their own
/// (very different) costs through this.
pub fn fw_charge<W: NicWorld>(w: &mut W, nic: NicId, ready: SimTime, dur: SimTime) -> SimTime {
    let now = knet_simcore::now(w);
    let (_, end) = w.nics_mut().get_mut(nic).fw.acquire(ready.max(now), dur);
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Proto;
    use knet_simcore::{run_to_quiescence, Scheduler, SimWorld};
    use knet_simos::{CpuModel, FrameState, OsLayer, PAGE_SIZE};

    struct TestWorld {
        sched: Scheduler<TestWorld>,
        os: OsLayer,
        nics: NicLayer,
        rx: Vec<(NicId, SimTime, Vec<u8>)>,
    }

    impl SimWorld for TestWorld {
        type Ev = knet_simcore::BoxEvent<Self>;
        fn sched(&self) -> &Scheduler<Self> {
            &self.sched
        }
        fn sched_mut(&mut self) -> &mut Scheduler<Self> {
            &mut self.sched
        }
    }
    impl OsWorld for TestWorld {
        fn os(&self) -> &OsLayer {
            &self.os
        }
        fn os_mut(&mut self) -> &mut OsLayer {
            &mut self.os
        }
    }
    impl NicWorld for TestWorld {
        fn nics(&self) -> &NicLayer {
            &self.nics
        }
        fn nics_mut(&mut self) -> &mut NicLayer {
            &mut self.nics
        }
        fn nic_rx(&mut self, nic: NicId, pkt: Packet) {
            let t = knet_simcore::now(self);
            self.rx.push((nic, t, pkt.payload.to_vec()));
        }
    }

    fn world() -> (TestWorld, NicId, NicId) {
        let mut w = TestWorld {
            sched: Scheduler::new(),
            os: OsLayer::new(),
            nics: NicLayer::new(),
            rx: Vec::new(),
        };
        let n0 = w.os.add_node(CpuModel::xeon_2600(), 1024);
        let n1 = w.os.add_node(CpuModel::xeon_2600(), 1024);
        let a = w.nics.add_nic(n0, NicModel::pci_xd());
        let b = w.nics.add_nic(n1, NicModel::pci_xd());
        (w, a, b)
    }

    fn raw_packet(src: NicId, dst: NicId, payload: &[u8]) -> Packet {
        Packet::new(
            src,
            dst,
            Proto::Raw,
            0,
            [0; 4],
            Bytes::copy_from_slice(payload),
            16,
        )
    }

    #[test]
    fn packet_arrives_after_wire_time_plus_latency() {
        let (mut w, a, b) = world();
        let pkt = raw_packet(a, b, &[7u8; 234]); // wire_len = 250
        wire_send(&mut w, pkt, SimTime::ZERO);
        run_to_quiescence(&mut w);
        assert_eq!(w.rx.len(), 1);
        let (nic, t, data) = &w.rx[0];
        assert_eq!(*nic, b);
        // 250 B @ 250 MB/s = 1 µs, plus 550 ns cut-through.
        assert_eq!(t.nanos(), 1_000 + 550);
        assert_eq!(data.len(), 234);
    }

    #[test]
    fn packets_serialize_on_one_link() {
        let (mut w, a, b) = world();
        wire_send(&mut w, raw_packet(a, b, &[0u8; 2484]), SimTime::ZERO); // 10 µs wire
        wire_send(&mut w, raw_packet(a, b, &[1u8; 2484]), SimTime::ZERO);
        run_to_quiescence(&mut w);
        assert_eq!(w.rx.len(), 2);
        let gap = w.rx[1].1 - w.rx[0].1;
        assert_eq!(gap, SimTime::from_micros(10), "second waits for the link");
    }

    #[test]
    fn pci_xe_uses_both_links_in_parallel() {
        let mut w = {
            let (w, _, _) = world();
            w
        };
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        let a = w.nics.add_nic(n0, NicModel::pci_xe());
        let b = w.nics.add_nic(n1, NicModel::pci_xe());
        wire_send(&mut w, raw_packet(a, b, &[0u8; 2484]), SimTime::ZERO);
        wire_send(&mut w, raw_packet(a, b, &[1u8; 2484]), SimTime::ZERO);
        run_to_quiescence(&mut w);
        let times: Vec<_> = w.rx.iter().map(|r| r.1).collect();
        assert_eq!(times[0], times[1], "both links carry packets concurrently");
    }

    #[test]
    fn the_first_nic_of_a_node_wins_the_lookup() {
        // `world()` gives nodes 0 and 1 one card each; the dual-link pair
        // added afterwards must not displace them.
        let (mut w, a, b) = world();
        w.nics.add_nic(NodeId(0), NicModel::pci_xe());
        let far = w.nics.add_nic(NodeId(5), NicModel::pci_xe());
        assert_eq!(w.nics.nic_of_node(NodeId(0)), Some(a));
        assert_eq!(w.nics.nic_of_node(NodeId(1)), Some(b));
        assert_eq!(w.nics.nic_of_node(NodeId(5)), Some(far));
        assert_eq!(w.nics.nic_of_node(NodeId(3)), None, "a node without a card");
        assert_eq!(w.nics.nic_of_node(NodeId(99)), None, "a node never seen");
    }

    #[test]
    fn dma_gather_reads_host_memory() {
        let (mut w, a, _) = world();
        let node = w.nics.get(a).node;
        let frame = w.os.node_mut(node).mem.alloc(FrameState::Kernel).unwrap();
        w.os.node_mut(node)
            .mem
            .write(frame.base(), b"dma payload")
            .unwrap();
        let segs = [PhysSeg::new(frame.base(), 11)];
        let (data, done) = dma_gather(&mut w, a, SimTime::ZERO, &segs).unwrap();
        assert_eq!(&data[..], b"dma payload");
        assert!(done > SimTime::ZERO);
    }

    #[test]
    fn dma_scatter_writes_host_memory() {
        let (mut w, a, _) = world();
        let node = w.nics.get(a).node;
        let frame = w.os.node_mut(node).mem.alloc(FrameState::Kernel).unwrap();
        let segs = [PhysSeg::new(frame.base().add(8), 5)];
        dma_scatter(&mut w, a, SimTime::ZERO, &segs, b"hello").unwrap();
        let mut buf = [0u8; 5];
        w.os.node(node)
            .mem
            .read(frame.base().add(8), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn dma_requests_serialize_on_the_engine() {
        let (mut w, a, _) = world();
        let node = w.nics.get(a).node;
        let frame =
            w.os.node_mut(node)
                .mem
                .alloc_contig(2, FrameState::Kernel)
                .unwrap();
        let segs = [PhysSeg::new(frame.base(), PAGE_SIZE)];
        let (_, t1) = dma_gather(&mut w, a, SimTime::ZERO, &segs).unwrap();
        let (_, t2) = dma_gather(&mut w, a, SimTime::ZERO, &segs).unwrap();
        assert!(t2 > t1, "second DMA waits for the engine");
        assert_eq!(t2 - t1, t1, "equal durations back-to-back");
    }

    #[test]
    fn chunked_transfer_pipelines_dma_and_wire() {
        // 16 chunks of 4 kB: total time should be far below the sum of
        // sequential (DMA + wire) per chunk, and just above pure wire time.
        let (mut w, a, b) = world();
        let node = w.nics.get(a).node;
        let frame =
            w.os.node_mut(node)
                .mem
                .alloc_contig(16, FrameState::Kernel)
                .unwrap();
        let mut ready = SimTime::ZERO;
        for i in 0..16u64 {
            let segs = [PhysSeg::new(frame.base().add(i * PAGE_SIZE), PAGE_SIZE)];
            let (data, dma_done) = dma_gather(&mut w, a, ready, &segs).unwrap();
            let pkt = Packet::new(a, b, Proto::Raw, 0, [i; 4], data, 16);
            wire_send(&mut w, pkt, dma_done);
            ready = dma_done; // next chunk may start DMA once this one is off the bus
        }
        run_to_quiescence(&mut w);
        assert_eq!(w.rx.len(), 16);
        let last = w.rx.last().unwrap().1;
        let wire_only = SimTime::from_nanos(16 * (4096 + 16) * 4); // @250MB/s
        assert!(last > wire_only, "cannot beat the wire");
        assert!(
            last < wire_only + SimTime::from_micros(40),
            "pipelining keeps total near wire time, got {last}"
        );
        // In-order arrival.
        for (i, r) in w.rx.iter().enumerate() {
            assert_eq!(w.rx[i].0, b);
            assert!(i == 0 || r.1 >= w.rx[i - 1].1);
        }
    }

    #[test]
    fn fw_charges_serialize() {
        let (mut w, a, _) = world();
        let t1 = fw_charge(&mut w, a, SimTime::ZERO, SimTime::from_micros(2));
        let t2 = fw_charge(&mut w, a, SimTime::ZERO, SimTime::from_micros(2));
        assert_eq!(t1.micros(), 2.0);
        assert_eq!(t2.micros(), 4.0);
    }

    #[test]
    fn stats_account_traffic() {
        let (mut w, a, b) = world();
        wire_send(&mut w, raw_packet(a, b, &[0u8; 100]), SimTime::ZERO);
        run_to_quiescence(&mut w);
        assert_eq!(w.nics.get(a).stats.tx_packets, 1);
        assert_eq!(w.nics.get(a).stats.tx_bytes, 116);
        assert_eq!(w.nics.get(b).stats.rx_packets, 1);
    }
}
