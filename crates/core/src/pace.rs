//! The driver pacing seam: what happens to a send between the tenant's
//! token bucket at the NIC admission point (`knet_simnic::qos`) and the
//! driver's own send pipeline. One implementation serves GM and MX.
//!
//! * **Admit** — the send proceeds synchronously into the driver.
//! * **Defer** — it parks in the NIC's per-tenant pacing lane
//!   ([`PaceLanes`], one WDRR lane per tenant) and a pace timer is armed
//!   for the refill instant; the `SendDone` / `SendFailed` completion
//!   arrives later. FIFO order within a tenant is preserved: while the
//!   tenant's lane is non-empty new sends park behind it rather than racing
//!   the bucket.
//! * **Shed** — it fails synchronously with [`NetError::Overload`]
//!   (zero-rate tenant, message larger than the burst, pacing lane at the
//!   policy's `pace_queue_cap`).
//!
//! Lanes drain ([`pace_drain`]) in WDRR order when the pace timer fires
//! and, for a driver whose send pipeline can run out of send tokens,
//! whenever that driver calls it on a token's return. The policy is
//! written against [`PacedSend`], the little a driver has to say about
//! itself; it never asks which driver it serves.

use std::collections::BTreeMap;

use knet_simcore::{emit_at, now, SimTime, SimWorld};
use knet_simnic::{Admission, NicId, NicWorld};

use crate::error::NetError;
use crate::tenant::{TenantId, WdrrLanes};

/// What the pacing seam needs from a driver, implemented on the driver's
/// parked-send record: everything needed to re-issue the send verbatim.
pub trait PacedSend<W: NicWorld>: Sized {
    /// The driver's pacing lanes in `w`.
    fn lanes(w: &mut W) -> &mut PaceLanes<Self>;

    /// Run the driver's send pipeline past the token bucket (already
    /// consulted). [`NetError::NoSendTokens`] is the one transient error:
    /// the send stays parked at the head of its lane.
    fn send_admitted(&self, w: &mut W, tenant: TenantId) -> Result<(), NetError>;

    /// The driver's typed `SendFailed` completion for this send and the
    /// node to post it on; `None` when the sending endpoint has since
    /// closed (the failure is then dropped silently).
    fn send_failed(&self, w: &W, error: NetError) -> Option<(u32, <W as SimWorld>::Ev)>;

    /// The driver's pace-timer event for `nic`; executing it calls
    /// [`pace_timer_fired`].
    fn pace_timer(nic: NicId) -> <W as SimWorld>::Ev;
}

/// How [`pace_submit`] took a send it did not refuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sent {
    /// Admitted: the driver's pipeline ran and has read the payload.
    Now,
    /// Parked in a pacing lane: the payload is read when the lane drains,
    /// so its memory must stay as it is until the send completes.
    Parked,
}

struct Parked<S> {
    /// Payload bytes: the send's price at the token bucket and in WDRR.
    bytes: u64,
    send: S,
}

/// One driver's pacing state: per-NIC tenant lanes of parked sends, the
/// armed pace timers, and the tenants' WDRR weights.
pub struct PaceLanes<S> {
    /// Sends the token bucket deferred, one WDRR lane per tenant.
    lanes: BTreeMap<NicId, WdrrLanes<Parked<S>>>,
    /// Earliest armed pace timer per NIC (dedup so a burst of deferrals
    /// arms one event, not one per send).
    armed: BTreeMap<NicId, SimTime>,
    /// WDRR weights indexed by tenant id (missing → 1), installed by the
    /// composed world from the registry's tenant table.
    pub tenant_weights: Vec<u64>,
}

impl<S> Default for PaceLanes<S> {
    fn default() -> Self {
        PaceLanes {
            lanes: BTreeMap::new(),
            armed: BTreeMap::new(),
            tenant_weights: Vec::new(),
        }
    }
}

impl<S> PaceLanes<S> {
    /// Sends parked in `nic`'s pacing lanes (all tenants).
    pub fn backlog(&self, nic: NicId) -> usize {
        self.lanes.get(&nic).map(|l| l.len()).unwrap_or(0)
    }

    /// Heap-growth events across all pacing lanes (flat in steady state;
    /// see `tests/hotpath_alloc.rs`).
    pub fn grows(&self) -> u64 {
        self.lanes.values().map(|l| l.grows()).sum()
    }

    /// Fold one NIC's pacing-lane scheduler state into a fingerprint
    /// accumulator — the shard-equivalence hook, and the shard-invariant
    /// slice (a NIC's pacing lanes are only touched by the shard owning
    /// its node).
    pub fn fingerprint_nic(&self, nic: NicId, mut mix: impl FnMut(u64)) {
        if let Some(lanes) = self.lanes.get(&nic) {
            lanes.fingerprint(&mut mix);
        }
    }
}

/// Offer one `bytes`-long send of `tenant` to its token bucket on `nic`.
/// `send_now` runs the driver's pipeline for an admitted send; `parked`
/// builds the record to park — it is only called when the send does park,
/// so the admitted path never pays for it.
pub fn pace_submit<W: NicWorld, S: PacedSend<W>>(
    w: &mut W,
    nic: NicId,
    tenant: TenantId,
    bytes: u64,
    send_now: impl FnOnce(&mut W) -> Result<(), NetError>,
    parked: impl FnOnce() -> S,
) -> Result<Sent, NetError> {
    let lane_busy = S::lanes(w)
        .lanes
        .get(&nic)
        .is_some_and(|l| l.lane_len(tenant) > 0);
    if lane_busy {
        return park(w, nic, tenant, bytes, parked).map(|()| Sent::Parked);
    }
    let at = now(w);
    match w.nics_mut().qos.admit(nic, tenant.0, bytes, at) {
        Admission::Admit => {
            let r = send_now(w);
            if r.is_err() {
                w.nics_mut().qos.refund(nic, tenant.0, bytes);
            }
            r.map(|()| Sent::Now)
        }
        Admission::Shed => Err(NetError::Overload),
        Admission::Defer { until } => {
            park(w, nic, tenant, bytes, parked)?;
            arm::<W, S>(w, nic, until);
            Ok(Sent::Parked)
        }
    }
}

/// Park one send in `nic`'s pacing lane for `tenant`, shedding if the lane
/// is at the policy's cap.
fn park<W: NicWorld, S: PacedSend<W>>(
    w: &mut W,
    nic: NicId,
    tenant: TenantId,
    bytes: u64,
    parked: impl FnOnce() -> S,
) -> Result<(), NetError> {
    let cap = w
        .nics()
        .qos
        .policy(tenant.0)
        .map(|p| p.pace_queue_cap)
        .unwrap_or(usize::MAX);
    let lanes = S::lanes(w).lanes.entry(nic).or_default();
    if lanes.lane_len(tenant) >= cap {
        w.nics_mut().qos.note_shed(tenant.0);
        return Err(NetError::Overload);
    }
    let send = parked();
    lanes.push(tenant, Parked { bytes, send });
    Ok(())
}

/// Arm (or tighten) `nic`'s pace timer to fire at `until`.
fn arm<W: NicWorld, S: PacedSend<W>>(w: &mut W, nic: NicId, until: SimTime) {
    let lanes = S::lanes(w);
    if lanes.armed.get(&nic).is_some_and(|t| *t <= until) {
        return; // an earlier (or equal) fire is already scheduled
    }
    lanes.armed.insert(nic, until);
    let node = w.nics().get(nic).node.0;
    emit_at(w, node, until, S::pace_timer(nic));
}

/// Complete a parked send as failed (typed, terminal — no `SendDone` will
/// follow).
fn fail_parked<W: NicWorld, S: PacedSend<W>>(w: &mut W, send: &S, error: NetError) {
    let Some((node, ev)) = send.send_failed(w, error) else {
        return;
    };
    let at = now(w);
    emit_at(w, node, at, ev);
}

/// `nic`'s pace timer fired: drain its lanes against the (now refilled)
/// token buckets.
pub fn pace_timer_fired<W: NicWorld, S: PacedSend<W>>(w: &mut W, nic: NicId) {
    let at = now(w);
    let lanes = S::lanes(w);
    if lanes.armed.get(&nic).is_some_and(|t| *t <= at) {
        lanes.armed.remove(&nic);
    }
    pace_drain::<W, S>(w, nic);
}

/// Drain `nic`'s pacing lanes in WDRR order against the token buckets.
/// Blocked tenants (bucket still dry, driver out of send tokens) are
/// skipped without head-of-line blocking the rest, and the timer is
/// re-armed for the earliest refill.
pub fn pace_drain<W: NicWorld, S: PacedSend<W>>(w: &mut W, nic: NicId) {
    let Some(mut lanes) = S::lanes(w).lanes.remove(&nic) else {
        return;
    };
    let weights = std::mem::take(&mut S::lanes(w).tenant_weights);
    let at = now(w);
    let mut blocked: Vec<u32> = Vec::new();
    let mut min_defer: Option<SimTime> = None;
    loop {
        let popped = lanes.pop_next_eligible(
            |t| weights.get(t.0 as usize).copied().unwrap_or(1),
            |p| p.bytes,
            |t, _| !blocked.contains(&t.0),
        );
        let Some((t, p)) = popped else { break };
        match w.nics_mut().qos.admit(nic, t.0, p.bytes, at) {
            Admission::Admit => match p.send.send_admitted(w, t) {
                Ok(()) => {}
                // Admitted but not sent: either way the bucket gets its
                // tokens back, so the tenant is charged only for bytes
                // that left the node.
                Err(NetError::NoSendTokens) => {
                    w.nics_mut().qos.refund(nic, t.0, p.bytes);
                    let cost = p.bytes;
                    lanes.requeue_front(t, p, cost);
                    blocked.push(t.0);
                }
                Err(e) => {
                    w.nics_mut().qos.refund(nic, t.0, p.bytes);
                    fail_parked(w, &p.send, e);
                }
            },
            Admission::Defer { until } => {
                let cost = p.bytes;
                lanes.requeue_front(t, p, cost);
                blocked.push(t.0);
                min_defer = Some(min_defer.map_or(until, |m| m.min(until)));
            }
            Admission::Shed => fail_parked(w, &p.send, NetError::Overload),
        }
    }
    S::lanes(w).tenant_weights = weights;
    // Keep the (possibly empty) lanes: the slab and ring capacities are the
    // steady-state allocation the hot path relies on.
    S::lanes(w).lanes.insert(nic, lanes);
    if let Some(until) = min_defer {
        arm::<W, S>(w, nic, until);
    }
}

#[cfg(test)]
mod tests {
    use knet_simcore::{run_to_quiescence, BoxEvent, Scheduler, SimEvent};
    use knet_simnic::{NicLayer, NicModel, Packet, QosPolicy};
    use knet_simos::{CpuModel, OsLayer, OsWorld};

    use super::*;

    /// A world with one NIC and a fake driver whose "send pipeline" is a
    /// log: what it sent, what it failed, and which tenants are out of
    /// (pretend) send tokens.
    struct World {
        sched: Scheduler<World>,
        os: OsLayer,
        nics: NicLayer,
        paced: PaceLanes<Fake>,
        sent: Vec<(u32, u64)>,
        failed: Vec<(u64, NetError)>,
        out_of_tokens: Option<u32>,
    }

    struct Fake {
        id: u64,
    }

    impl SimWorld for World {
        type Ev = BoxEvent<Self>;
        fn sched(&self) -> &Scheduler<Self> {
            &self.sched
        }
        fn sched_mut(&mut self) -> &mut Scheduler<Self> {
            &mut self.sched
        }
    }
    impl OsWorld for World {
        fn os(&self) -> &OsLayer {
            &self.os
        }
        fn os_mut(&mut self) -> &mut OsLayer {
            &mut self.os
        }
    }
    impl NicWorld for World {
        fn nics(&self) -> &NicLayer {
            &self.nics
        }
        fn nics_mut(&mut self) -> &mut NicLayer {
            &mut self.nics
        }
        fn nic_rx(&mut self, _nic: NicId, _pkt: Packet) {}
    }

    impl PacedSend<World> for Fake {
        fn lanes(w: &mut World) -> &mut PaceLanes<Self> {
            &mut w.paced
        }
        fn send_admitted(&self, w: &mut World, tenant: TenantId) -> Result<(), NetError> {
            if w.out_of_tokens == Some(tenant.0) {
                return Err(NetError::NoSendTokens);
            }
            w.sent.push((tenant.0, self.id));
            Ok(())
        }
        fn send_failed(&self, _w: &World, error: NetError) -> Option<(u32, BoxEvent<World>)> {
            let id = self.id;
            let ev = BoxEvent::from_call(Box::new(move |w: &mut World| w.failed.push((id, error))));
            Some((0, ev))
        }
        fn pace_timer(nic: NicId) -> BoxEvent<World> {
            BoxEvent::from_call(Box::new(move |w: &mut World| {
                pace_timer_fired::<World, Fake>(w, nic)
            }))
        }
    }

    const NIC: NicId = NicId(0);

    /// One NIC; `tenants` are `(id, rate B/s, pace_queue_cap)`, each with a
    /// 1000-byte burst.
    fn world(tenants: &[(u32, u64, usize)]) -> World {
        let mut w = World {
            sched: Scheduler::new(),
            os: OsLayer::new(),
            nics: NicLayer::new(),
            paced: PaceLanes::default(),
            sent: Vec::new(),
            failed: Vec::new(),
            out_of_tokens: None,
        };
        let node = w.os.add_node(CpuModel::xeon_2600(), 64);
        assert_eq!(w.nics.add_nic(node, NicModel::pci_xd()), NIC);
        for &(t, rate, cap) in tenants {
            w.nics.qos.set_policy(
                t,
                QosPolicy {
                    rate_bytes_per_sec: rate,
                    burst_bytes: 1000,
                    pace_queue_cap: cap,
                },
            );
        }
        w
    }

    fn submit(w: &mut World, tenant: u32, id: u64, bytes: u64) -> Result<Sent, NetError> {
        let t = TenantId(tenant);
        pace_submit(
            w,
            NIC,
            t,
            bytes,
            |w| Fake { id }.send_admitted(w, t),
            || Fake { id },
        )
    }

    fn sent_by(w: &World, tenant: u32) -> Vec<u64> {
        let of_tenant = w.sent.iter().filter(|(t, _)| *t == tenant);
        of_tenant.map(|(_, id)| *id).collect()
    }

    #[test]
    fn a_busy_lane_keeps_the_tenant_fifo() {
        let mut w = world(&[(1, 1_000_000, 16)]);
        assert_eq!(submit(&mut w, 1, 1, 800), Ok(Sent::Now));
        // 200 bytes of credit left: 500 defers...
        assert_eq!(submit(&mut w, 1, 2, 500), Ok(Sent::Parked));
        // ...and 100 would fit the bucket, but parks behind it unoffered.
        assert_eq!(submit(&mut w, 1, 3, 100), Ok(Sent::Parked));
        assert_eq!(w.sent, vec![(1, 1)]);
        assert_eq!(w.paced.backlog(NIC), 2);
        assert_eq!(w.nics.qos.tenant_stats(1).deferred, 1);
        run_to_quiescence(&mut w);
        assert_eq!(sent_by(&w, 1), vec![1, 2, 3]);
        assert_eq!(w.paced.backlog(NIC), 0);
    }

    #[test]
    fn deferrals_share_one_timer_and_a_tighter_deadline_rearms() {
        // Tenants 1 and 2 refill 1000 bytes in 1 ms, tenant 3 in 100 µs.
        let mut w = world(&[(1, 1_000_000, 16), (2, 1_000_000, 16), (3, 10_000_000, 16)]);
        for t in 1..=3 {
            submit(&mut w, t, t as u64 * 10, 1000).unwrap(); // the burst
        }
        assert_eq!(w.sched.pending(), 0);
        submit(&mut w, 1, 11, 1000).unwrap();
        assert_eq!(w.sched.pending(), 1, "first deferral arms the timer");
        submit(&mut w, 1, 12, 1000).unwrap();
        submit(&mut w, 2, 21, 1000).unwrap();
        assert_eq!(w.sched.pending(), 1, "same deadline: no second timer");
        assert_eq!(w.paced.armed[&NIC], SimTime::from_nanos(1_000_000));
        submit(&mut w, 3, 31, 1000).unwrap();
        assert_eq!(w.sched.pending(), 2, "an earlier refill re-arms");
        assert_eq!(w.paced.armed[&NIC], SimTime::from_nanos(100_000));
        run_to_quiescence(&mut w);
        assert_eq!(sent_by(&w, 1), vec![10, 11, 12]);
        assert_eq!(sent_by(&w, 2), vec![20, 21]);
        assert_eq!(sent_by(&w, 3), vec![30, 31]);
        assert!(w.failed.is_empty());
    }

    #[test]
    fn a_transient_error_requeues_at_the_head_and_blocks_only_its_tenant() {
        let mut w = world(&[(1, 1_000_000, 16), (2, 1_000_000, 16)]);
        for t in [1, 2] {
            submit(&mut w, t, t as u64 * 10, 1000).unwrap(); // the burst
            submit(&mut w, t, t as u64 * 10 + 1, 100).unwrap();
            submit(&mut w, t, t as u64 * 10 + 2, 100).unwrap();
        }
        let admitted_before = w.nics.qos.tenant_stats(1).admitted;
        w.out_of_tokens = Some(1);
        run_to_quiescence(&mut w);
        assert_eq!(sent_by(&w, 2), vec![20, 21, 22], "tenant 2 drained past it");
        assert_eq!(sent_by(&w, 1), vec![10], "tenant 1 stayed parked");
        assert_eq!(w.paced.backlog(NIC), 2);
        assert_eq!(
            w.nics.qos.tenant_stats(1).admitted,
            admitted_before,
            "each refused admission was refunded"
        );
        // The token comes back: the driver drains, head first.
        w.out_of_tokens = None;
        pace_drain::<World, Fake>(&mut w, NIC);
        assert_eq!(sent_by(&w, 1), vec![10, 11, 12]);
        assert!(w.failed.is_empty());
    }

    #[test]
    fn a_full_lane_sheds_with_overload_and_counts_it() {
        let mut w = world(&[(1, 1_000_000, 2)]);
        submit(&mut w, 1, 1, 1000).unwrap();
        submit(&mut w, 1, 2, 100).unwrap();
        submit(&mut w, 1, 3, 100).unwrap();
        assert_eq!(submit(&mut w, 1, 4, 100), Err(NetError::Overload));
        assert_eq!(w.nics.qos.tenant_stats(1).shed, 1);
        assert_eq!(w.paced.backlog(NIC), 2);
        run_to_quiescence(&mut w);
        assert_eq!(sent_by(&w, 1), vec![1, 2, 3]);
    }

    #[test]
    fn drained_lanes_are_kept_with_their_capacity() {
        let mut w = world(&[(1, 1_000_000, 16)]);
        let cycle = |w: &mut World, id: u64| {
            submit(w, 1, id, 1000).unwrap();
            for i in 1..=4 {
                submit(w, 1, id + i, 100).unwrap();
            }
            run_to_quiescence(w);
        };
        // The first cycle starts on a full bucket; from the second on each
        // one starts dry and parks all five sends.
        cycle(&mut w, 10);
        cycle(&mut w, 20);
        let grows = w.paced.grows();
        assert!(grows > 0);
        assert_eq!(w.paced.backlog(NIC), 0);
        assert!(w.paced.lanes.contains_key(&NIC), "empty lanes stay");
        cycle(&mut w, 30);
        assert_eq!(w.paced.grows(), grows, "the next cycle reused them");
        assert_eq!(w.sent.len(), 15);
    }
}
