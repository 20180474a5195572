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
//! A parked send waits for one thing only, its tenant's bucket: lanes
//! drain in WDRR order, weighted by the tenants' weights in
//! `knet_simnic::qos`, when the pace timer fires ([`pace_timer_fired`]). A driver whose sends need
//! a resource of their own (GM's send tokens) takes it before
//! [`pace_submit`], so a parked send already holds it and every error of
//! an admitted send is final. The policy is written against
//! [`PacedSend`], the little a driver has to say about itself; it never
//! asks which driver it serves.

use std::collections::{BTreeMap, VecDeque};

use knet_simcore::{emit_at, now, SimTime, SimWorld};
use knet_simnic::{Admission, NicId, NicWorld};

use crate::error::NetError;
use crate::tenant::TenantId;

/// What the pacing seam needs from a driver, implemented on the driver's
/// parked-send record: everything needed to re-issue the send verbatim.
pub trait PacedSend<W: NicWorld>: Sized {
    /// The driver's pacing lanes in `w`.
    fn lanes(w: &mut W) -> &mut PaceLanes<Self>;

    /// Run the driver's send pipeline past the token bucket (already
    /// consulted). An error is final: the bucket gets its tokens back and
    /// the send completes as `SendFailed`.
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

/// One driver's pacing state: per-NIC tenant lanes of parked sends and the
/// armed pace timers.
pub struct PaceLanes<S> {
    /// Sends the token bucket deferred, one WDRR lane per tenant.
    lanes: BTreeMap<NicId, WdrrLanes<Parked<S>>>,
    /// Earliest armed pace timer per NIC (dedup so a burst of deferrals
    /// arms one event, not one per send).
    armed: BTreeMap<NicId, SimTime>,
}

impl<S> Default for PaceLanes<S> {
    fn default() -> Self {
        PaceLanes {
            lanes: BTreeMap::new(),
            armed: BTreeMap::new(),
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

/// `nic`'s pace timer fired: drain its lanes in WDRR order against the
/// (now refilled) token buckets. A tenant whose bucket is still dry is
/// skipped without head-of-line blocking the rest, and the timer is
/// re-armed for the earliest refill.
pub fn pace_timer_fired<W: NicWorld, S: PacedSend<W>>(w: &mut W, nic: NicId) {
    let at = now(w);
    let paced = S::lanes(w);
    if paced.armed.get(&nic).is_some_and(|t| *t <= at) {
        paced.armed.remove(&nic);
    }
    let Some(mut lanes) = paced.lanes.remove(&nic) else {
        return;
    };
    let mut blocked: Vec<u32> = Vec::new();
    let mut min_defer: Option<SimTime> = None;
    loop {
        let qos = &w.nics().qos;
        let popped = lanes.pop_next(
            |t| qos.weight(t.0),
            |p| p.bytes,
            |t| !blocked.contains(&t.0),
        );
        let Some((t, p)) = popped else { break };
        match w.nics_mut().qos.admit(nic, t.0, p.bytes, at) {
            Admission::Admit => {
                if let Err(e) = p.send.send_admitted(w, t) {
                    // Admitted but not sent: the bucket gets its tokens
                    // back, so the tenant is charged only for bytes that
                    // left the node.
                    w.nics_mut().qos.refund(nic, t.0, p.bytes);
                    fail_parked(w, &p.send, e);
                }
            }
            Admission::Defer { until } => {
                let cost = p.bytes;
                lanes.requeue_front(t, p, cost);
                blocked.push(t.0);
                min_defer = Some(min_defer.map_or(until, |m| m.min(until)));
            }
            Admission::Shed => fail_parked(w, &p.send, NetError::Overload),
        }
    }
    // Keep the (possibly empty) lanes: the slab and ring capacities are the
    // steady-state allocation the hot path relies on.
    S::lanes(w).lanes.insert(nic, lanes);
    if let Some(until) = min_defer {
        arm::<W, S>(w, nic, until);
    }
}

/// Bytes of credit one weight unit earns per WDRR rotation. One MTU-ish
/// quantum keeps the schedule smooth: a weight-2 tenant drains two 4 KiB
/// messages for every one a weight-1 tenant drains.
const WDRR_QUANTUM_BYTES: u64 = 4096;

struct Lane<T> {
    q: VecDeque<T>,
    /// Byte credit accumulated by WDRR rotations, spent by pops.
    deficit: u64,
}

/// Per-tenant queues drained by weighted deficit round robin.
///
/// Lanes are a dense slab indexed by `TenantId.0`: they are created on
/// first use and never removed, and each lane's ring buffer keeps its
/// capacity across drains — in steady state a push/pop cycle performs no
/// heap allocation (observable through [`WdrrLanes::grows`], asserted flat
/// by `tests/hotpath_alloc.rs`).
///
/// Two properties the rest of the system depends on:
///
/// * **Single-tenant degeneracy:** with one active tenant the scheduler is
///   *exactly* a FIFO — same pop order, same stats — so every workload
///   that never registers a tenant behaves bit-identically to the
///   pre-tenant code.
/// * **Determinism:** all state is integer, rotation order is by dense
///   lane index, and nothing reads wall-clock time — the drain order is a
///   pure function of the push/pop history, which keeps the sharded
///   engine's bit-identical replay guarantee intact (the WDRR state is
///   folded into `tests/sched_equivalence.rs` fingerprints).
///
/// Private to this module: the pacing lanes are its one user, and nothing
/// above the scheduler may reorder parked sends.
struct WdrrLanes<T> {
    lanes: Vec<Lane<T>>,
    len: usize,
    /// Lanes currently holding at least one item.
    active: usize,
    /// The lane the scheduler is currently serving.
    cursor: usize,
    /// Whether `cursor`'s lane already received its quantum this visit.
    granted: bool,
    /// Allocation events: lane-slab growth + lane ring-buffer growth.
    grows: u64,
}

impl<T> Default for WdrrLanes<T> {
    fn default() -> Self {
        WdrrLanes {
            lanes: Vec::new(),
            len: 0,
            active: 0,
            cursor: 0,
            granted: false,
            grows: 0,
        }
    }
}

impl<T> WdrrLanes<T> {
    fn len(&self) -> usize {
        self.len
    }

    /// Items parked for one tenant.
    fn lane_len(&self, t: TenantId) -> usize {
        self.lanes.get(t.0 as usize).map(|l| l.q.len()).unwrap_or(0)
    }

    /// Heap-growth events (lane slab + ring buffers). Flat in steady state.
    fn grows(&self) -> u64 {
        self.grows
    }

    fn lane_mut(&mut self, t: TenantId) -> &mut Lane<T> {
        let i = t.0 as usize;
        while self.lanes.len() <= i {
            self.lanes.push(Lane {
                q: VecDeque::new(),
                deficit: 0,
            });
            self.grows += 1;
        }
        &mut self.lanes[i]
    }

    /// Append an item to its tenant's lane (FIFO within the tenant).
    fn push(&mut self, t: TenantId, item: T) {
        let lane = self.lane_mut(t);
        let cap = lane.q.capacity();
        let was_empty = lane.q.is_empty();
        lane.q.push_back(item);
        let grew = lane.q.capacity() > cap;
        if was_empty {
            self.active += 1;
        }
        if grew {
            self.grows += 1;
        }
        self.len += 1;
    }

    /// Pop the next item in WDRR order. `weight_of` maps a tenant to its
    /// weight, `cost_of` prices an item in bytes. Lanes of tenants that
    /// fail `eligible` are passed over without popping. Their deficit is
    /// kept — the tenant is *blocked* (over its admission rate), not idle —
    /// so a blocked noisy tenant never head-of-line blocks the others.
    /// Returns `None` once every non-empty lane is ineligible. With a
    /// single active tenant this is exactly `pop_front` on that lane.
    fn pop_next(
        &mut self,
        weight_of: impl Fn(TenantId) -> u64,
        cost_of: impl Fn(&T) -> u64,
        eligible: impl Fn(TenantId) -> bool,
    ) -> Option<(TenantId, T)> {
        if self.len == 0 {
            return None;
        }
        // Single-tenant degeneracy: one active lane is a plain FIFO, with
        // no deficit bookkeeping to diverge from the pre-tenant behaviour
        // (and no quantum-sized spinning for oversized messages).
        if self.active == 1 {
            let i = self.lanes.iter().position(|l| !l.q.is_empty())?;
            if !eligible(TenantId(i as u32)) {
                return None;
            }
            return Some((TenantId(i as u32), self.take_front(i)?));
        }
        // `barren` counts consecutive visits that made no progress (empty or
        // ineligible lane); a full barren rotation means nothing is poppable.
        let mut barren = 0usize;
        loop {
            if barren >= self.lanes.len() {
                return None;
            }
            let i = self.cursor;
            if self.lanes[i].q.is_empty() {
                self.lanes[i].deficit = 0;
                self.advance();
                barren += 1;
                continue;
            }
            if !eligible(TenantId(i as u32)) {
                self.advance();
                barren += 1;
                continue;
            }
            if !self.granted {
                let quantum = weight_of(TenantId(i as u32)).max(1) * WDRR_QUANTUM_BYTES;
                self.lanes[i].deficit = self.lanes[i].deficit.saturating_add(quantum);
                self.granted = true;
            }
            let cost = cost_of(self.lanes[i].q.front().expect("non-empty"));
            if self.lanes[i].deficit >= cost {
                self.lanes[i].deficit -= cost;
                let item = self.take_front(i)?;
                return Some((TenantId(i as u32), item));
            }
            self.advance();
            barren = 0; // quantum granted: the eligible lane is converging
        }
    }

    /// Put a popped item back at the front of its lane and refund its
    /// cost, so the next `pop_next` re-issues it first (a drain found the
    /// bucket still dry and parks the head again).
    fn requeue_front(&mut self, t: TenantId, item: T, cost: u64) {
        let lane = self.lane_mut(t);
        let cap = lane.q.capacity();
        let was_empty = lane.q.is_empty();
        lane.q.push_front(item);
        lane.deficit = lane.deficit.saturating_add(cost);
        let grew = lane.q.capacity() > cap;
        if was_empty {
            self.active += 1;
        }
        if grew {
            self.grows += 1;
        }
        self.len += 1;
        self.cursor = t.0 as usize;
        self.granted = true;
    }

    /// Fold the scheduler's state into a fingerprint accumulator (lane
    /// lengths + deficits + cursor), for shard-equivalence checks.
    fn fingerprint(&self, mut mix: impl FnMut(u64)) {
        mix(self.len as u64);
        mix(self.cursor as u64);
        mix(self.granted as u64);
        for lane in &self.lanes {
            mix(lane.q.len() as u64);
            mix(lane.deficit);
        }
    }

    fn take_front(&mut self, i: usize) -> Option<T> {
        let item = self.lanes[i].q.pop_front()?;
        if self.lanes[i].q.is_empty() {
            self.active -= 1;
            self.lanes[i].deficit = 0;
            if self.cursor == i {
                self.granted = false;
                self.advance();
            }
        }
        self.len -= 1;
        Some(item)
    }

    fn advance(&mut self) {
        self.cursor = (self.cursor + 1) % self.lanes.len().max(1);
        self.granted = false;
    }
}

#[cfg(test)]
mod tests {
    use knet_simcore::{run_to_quiescence, run_until, BoxEvent, RunOutcome, Scheduler, SimEvent};
    use knet_simnic::{NicLayer, NicModel, Packet, QosPolicy};
    use knet_simos::{CpuModel, OsLayer, OsWorld};

    use super::*;

    /// A world with one NIC and a fake driver whose "send pipeline" is a
    /// log: what it sent and what it failed.
    struct World {
        sched: Scheduler<World>,
        os: OsLayer,
        nics: NicLayer,
        paced: PaceLanes<Fake>,
        sent: Vec<(u32, u64)>,
        failed: Vec<(u64, NetError)>,
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
    fn a_tenant_blocked_by_its_bucket_never_blocks_another() {
        // Tenant 1 refills 100 bytes in 100 µs, tenant 2 in 10 µs.
        let mut w = world(&[(1, 1_000_000, 16), (2, 10_000_000, 16)]);
        for t in [1, 2] {
            submit(&mut w, t, t as u64 * 10, 1000).unwrap(); // the burst
            submit(&mut w, t, t as u64 * 10 + 1, 100).unwrap();
            submit(&mut w, t, t as u64 * 10 + 2, 100).unwrap();
        }
        let tenant_2_done = |w: &World| sent_by(w, 2).len() == 3;
        assert_eq!(run_until(&mut w, tenant_2_done), RunOutcome::Satisfied);
        assert_eq!(sent_by(&w, 2), vec![20, 21, 22], "tenant 2 drained past it");
        assert_eq!(
            sent_by(&w, 1),
            vec![10],
            "tenant 1 still waits for its bucket"
        );
        assert_eq!(w.paced.backlog(NIC), 2);
        assert!(now(&w) < SimTime::from_nanos(100_000));
        assert_eq!(
            w.paced.armed[&NIC],
            SimTime::from_nanos(100_000),
            "the timer waits for tenant 1's refill"
        );
        // The refill comes: tenant 1 drains in order, head first.
        run_to_quiescence(&mut w);
        assert_eq!(sent_by(&w, 1), vec![10, 11, 12]);
        assert_eq!(w.paced.backlog(NIC), 0);
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

    fn drain(l: &mut WdrrLanes<u64>, weights: &[u64]) -> Vec<(u32, u64)> {
        let weight_of = |t: TenantId| weights.get(t.0 as usize).copied().unwrap_or(1);
        let mut out = Vec::new();
        while let Some((t, v)) = l.pop_next(weight_of, |v| *v, |_| true) {
            out.push((t.0, v));
        }
        out
    }

    #[test]
    fn single_tenant_is_exact_fifo() {
        let mut l = WdrrLanes::default();
        for v in [7u64, 70_000, 3, 9] {
            l.push(TenantId(2), v);
        }
        assert_eq!(
            drain(&mut l, &[1, 1, 1]),
            vec![(2, 7), (2, 70_000), (2, 3), (2, 9)],
            "one active tenant drains FIFO regardless of cost"
        );
    }

    #[test]
    fn weights_bias_the_interleave() {
        let mut l = WdrrLanes::default();
        for _ in 0..8 {
            l.push(TenantId(0), WDRR_QUANTUM_BYTES);
            l.push(TenantId(1), WDRR_QUANTUM_BYTES);
        }
        let order = drain(&mut l, &[1, 3]);
        // In the first 8 pops, the weight-3 tenant gets ~3x the service.
        let head: Vec<u32> = order.iter().take(8).map(|(t, _)| *t).collect();
        let t1 = head.iter().filter(|t| **t == 1).count();
        assert!(t1 >= 5, "weight-3 tenant dominates early service: {head:?}");
        assert_eq!(order.len(), 16, "nothing lost");
    }

    #[test]
    fn requeue_front_preserves_head_position() {
        let mut l = WdrrLanes::default();
        l.push(TenantId(0), 10);
        l.push(TenantId(1), 20);
        let (t, v) = l.pop_next(|_| 1, |v| *v, |_| true).unwrap();
        l.requeue_front(t, v, v);
        let (t2, v2) = l.pop_next(|_| 1, |v| *v, |_| true).unwrap();
        assert_eq!((t, v), (t2, v2), "requeued head pops first again");
    }

    #[test]
    fn ineligible_lanes_are_skipped_without_blocking_others() {
        let mut l = WdrrLanes::default();
        for v in 0..3u64 {
            l.push(TenantId(0), v);
            l.push(TenantId(1), 100 + v);
        }
        // Tenant 0 is blocked: only tenant 1's items drain, in FIFO order.
        let mut out = Vec::new();
        while let Some((t, v)) = l.pop_next(|_| 1, |_| 1, |t| t.0 != 0) {
            out.push((t.0, v));
        }
        assert_eq!(out, vec![(1, 100), (1, 101), (1, 102)]);
        assert_eq!(l.lane_len(TenantId(0)), 3, "blocked lane untouched");
        // Unblocking lets the rest drain FIFO.
        let mut rest = Vec::new();
        while let Some((t, v)) = l.pop_next(|_| 1, |_| 1, |_| true) {
            rest.push((t.0, v));
        }
        assert_eq!(rest, vec![(0, 0), (0, 1), (0, 2)]);
    }
}
