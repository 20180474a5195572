//! The per-NIC transmit queue: packet-granular sharing of the tx link.
//!
//! Every driver packet (`knet_core::driver::Route::send`, shared by GM and
//! MX) enters the wire through [`tx_submit`]. Its DMA and firmware costs
//! were already charged by the driver's chunk loop, so the packet carries
//! the instant it is ready for the link; what this queue decides is *when
//! the link is booked* for it:
//!
//! * while nothing is queued and the link's booked backlog
//!   (`tx.free_at() − now`) is at most [`TX_HORIZON_MTUS`] MTU-times, the
//!   packet is booked at once — exactly the reliability window's
//!   [`rel_send`], so an uncontended link sees no difference;
//! * otherwise it waits in its tenant's FIFO, and one NIC-local wake
//!   ([`NicEv::TxWake`]) fires [`TX_WAKE_LEAD_MTUS`] MTU-time before the
//!   backlog drains. The wake books packets round robin across tenants, one
//!   per tenant per turn, until the backlog exceeds the horizon again, and
//!   re-arms while anything is left.
//!
//! So one tenant's 32 kB message no longer locks the link for its whole
//! wire time at the instant it is submitted: another tenant's packet
//! submitted meanwhile waits at most the horizon plus its turn, not behind
//! every chunk booked ahead of it. Within a tenant, submission order is
//! kept, and a single tenant's stream departs at the instants it did when
//! every chunk was booked at submit (the link was going to be busy until
//! then anyway).
//!
//! Recovery traffic is not queued: retransmission rounds, tail-loss
//! probes, NACK resends and packets the window parked go straight to
//! [`crate::layer::wire_send`] from [`crate::rel`], and NIC collective
//! frames call [`rel_send`] directly ([`crate::coll`]). A packet whose
//! reliability link died while it waited is dropped at its turn and counted
//! in [`crate::layer::NicStats::tx_queue_dead_drops`].
//!
//! The queue is empty at quiescence (a wake is pending whenever anything is
//! queued); its per-tenant FIFOs are kept once created, so steady state
//! allocates nothing ([`crate::layer::NicStats::tx_queue_grows`] stays
//! flat).

use std::collections::VecDeque;

use knet_simcore::SimTime;

use crate::layer::{Nic, NicEv, NicWorld};
use crate::model::NicModel;
use crate::packet::{NicId, Packet};
use crate::rel::rel_send;

/// Booked-backlog horizon in MTU-times: a packet is booked on the link
/// only while the backlog ahead of it is at most this deep.
pub const TX_HORIZON_MTUS: u64 = 2;
/// The wake that books queued packets fires this many MTU-times before the
/// booked backlog drains.
pub const TX_WAKE_LEAD_MTUS: u64 = 1;

/// One NIC's queued packets: a FIFO per tenant, indexed by tenant id.
pub(crate) struct TxQueue {
    lanes: Vec<VecDeque<(Packet, SimTime)>>,
    /// The lane served first on the next turn.
    next: usize,
    /// Packets queued over all lanes.
    queued: usize,
    /// [`TX_HORIZON_MTUS`] and [`TX_WAKE_LEAD_MTUS`] on this card's link.
    horizon: SimTime,
    lead: SimTime,
}

impl TxQueue {
    pub(crate) fn new(model: &NicModel) -> Self {
        let mtu_time = model.link_bw.transfer_time(model.mtu);
        TxQueue {
            lanes: Vec::new(),
            next: 0,
            queued: 0,
            horizon: mtu_time * TX_HORIZON_MTUS,
            lead: mtu_time * TX_WAKE_LEAD_MTUS,
        }
    }

    /// Queue `pkt` behind its tenant's earlier packets; returns whether a
    /// structure had to grow.
    fn push(&mut self, pkt: Packet, ready: SimTime) -> bool {
        let t = pkt.tenant as usize;
        let mut grew = false;
        if self.lanes.len() <= t {
            self.lanes.resize_with(t + 1, VecDeque::new);
            grew = true;
        }
        let lane = &mut self.lanes[t];
        let cap = lane.capacity();
        lane.push_back((pkt, ready));
        self.queued += 1;
        grew || lane.capacity() > cap
    }

    /// `tenant` just had a packet booked: the next turn starts after it.
    fn served(&mut self, tenant: u32) {
        self.next = tenant as usize + 1;
    }

    /// The next packet in round-robin order across tenants.
    fn pop(&mut self) -> Option<(Packet, SimTime)> {
        if self.queued == 0 {
            return None;
        }
        let n = self.lanes.len();
        for i in 0..n {
            let t = (self.next + i) % n;
            if let Some(entry) = self.lanes[t].pop_front() {
                self.next = t + 1;
                self.queued -= 1;
                return Some(entry);
            }
        }
        unreachable!("queued count out of step with the lanes")
    }

    /// Packets waiting.
    pub(crate) fn len(&self) -> usize {
        self.queued
    }
}

impl Nic {
    /// Whether the tx link's booked backlog at `now` is within the horizon.
    fn backlog_ok(&self, now: SimTime) -> bool {
        self.tx.free_at() <= now + self.txq.horizon
    }

    /// When the wake for the current backlog is due.
    fn wake_at(&self) -> SimTime {
        self.tx.free_at().saturating_sub(self.txq.lead)
    }
}

/// Hand a driver packet to its NIC's transmit queue, ready for the link no
/// earlier than `ready`: booked now when nothing is queued and the link's
/// backlog is within the horizon, queued under its tenant otherwise.
pub fn tx_submit<W: NicWorld>(w: &mut W, pkt: Packet, ready: SimTime) {
    let now = knet_simcore::now(w);
    let nic = pkt.src;
    let n = w.nics_mut().get_mut(nic);
    if n.txq.len() == 0 && n.backlog_ok(now) {
        n.txq.served(pkt.tenant);
        rel_send(w, pkt, ready);
        return;
    }
    let first = n.txq.len() == 0;
    if n.txq.push(pkt, ready) {
        n.stats.tx_queue_grows += 1;
    }
    n.stats.tx_queued += 1;
    // A wake is pending whenever anything is queued: only the first packet
    // arms one.
    if first {
        let at = n.wake_at();
        arm(w, nic, at);
    }
}

fn arm<W: NicWorld>(w: &mut W, nic: NicId, at: SimTime) {
    let node = w.nics().get(nic).node.0;
    let ev = W::lift_nic(NicEv::TxWake { nic });
    knet_simcore::emit_at(w, node, at, ev);
}

/// The wake: book queued packets round robin across tenants until the
/// backlog passes the horizon, and re-arm while anything is left.
pub(crate) fn tx_wake<W: NicWorld>(w: &mut W, nic: NicId) {
    let now = knet_simcore::now(w);
    loop {
        let n = w.nics_mut().get_mut(nic);
        if n.txq.len() == 0 {
            return;
        }
        if !n.backlog_ok(now) {
            let at = n.wake_at();
            return arm(w, nic, at);
        }
        let (pkt, ready) = n.txq.pop().expect("the queue is not empty");
        if !rel_send(w, pkt, ready) {
            w.nics_mut().get_mut(nic).stats.tx_queue_dead_drops += 1;
        }
    }
}
