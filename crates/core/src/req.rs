//! The request seam above the channel: what every request/response
//! service (ORFS, NBD, RPC, the socket layer) needs between "I called
//! [`channel_send`]" and "the reply — or the failure — arrived", once.
//!
//! * [`SendMap`]: which record did send-context `ctx` carry?
//! * [`StagingRing`]: the blind wrap-around ring headers and replies are
//!   staged through, bounded in release builds too — a length read from
//!   the wire is refused, never written past the ring;
//! * [`ReqTable`]: the one request slab. It mints every request id (the
//!   wire tag of the request, its reply and the reply buffer posted under
//!   it), finds a request by id in O(1), and ends requests that lose their
//!   reply: `SendFailed`, synchronous rejection, the peer's death, expiry;
//! * [`StorageClient`]: the one request lifecycle of ORFS and NBD, over a
//!   [`ReqClient`] — ending in a reply, a failure, or a server's refusal
//!   ([`Reply::Refused`]).
//!
//! **Id layout** `[62] kind · [48..62] node · [32..48] endpoint index ·
//! [16..32] generation · [0..16] slot`. Servers key per-request state by
//! tag alone, so the owner bits make ids unique across clients; bit 63
//! stays free ([`REQ_ID_MASK`]). A freed slot takes the next generation,
//! so a stale id matches again only after its slot was reused 65 536
//! times. A slot is reused once its request ended, and a request whose id
//! reached the wire ends by a reply, an expiry or its peer's death — at
//! least a round trip, ≈ 10 µs (`kv_failover`'s p50 is 10.7 µs). So that
//! takes ≥ 0.65 s, far past [`CALL_HORIZON`] (18 ms). A mint past 65 536
//! live requests is refused ([`NetError::RequestTableFull`]).
//!
//! **Expiry.** A request without a caller deadline expires [`CALL_HORIZON`]
//! after it was last bounded ([`bound_request`]): RPC bounds a call at
//! submit; a storage client bounds a request at submit and again at each
//! `SendDone` of it, so its horizon measures how long the server has been
//! silent, not how long the transfer took. Each table keeps at most one
//! horizon timer ([`ReqEv::Horizon`]), re-armed at the earliest pending
//! expiry each time it fires ([`horizon_fired`]). A caller's own deadline
//! (RPC) is a per-request [`ReqEv::Deadline`].
//!
//! The types name no service and no world. Which channels hear about a
//! dead peer at all is decided below them, in
//! [`peer_down`](crate::api::peer_down).

use bytes::Bytes;
use knet_simcore::{emit_at, now, SimTime, SimWorld};
use knet_simnic::rel;
use knet_simos::{Asid, NodeId, NodeOs, VirtAddr};

use crate::api::{
    channel_cancel_recv, channel_post_recv, channel_recv_filling, channel_send, ctx_slot,
    ChannelId, DispatchWorld,
};
use crate::error::NetError;
use crate::iovec::{IoVec, MemRef};
use crate::transport::{Endpoint, TransportEvent};

/// In-flight channel sends → the record each carries, slab-indexed by the
/// context's pooled slot ([`ctx_slot`]): O(1), and as bounded as the
/// channel's context pool — nothing is allocated past the in-flight
/// high-water mark. Slots store the full context value, so a completion
/// whose pool slot was since recycled never matches someone else's record.
pub struct SendMap<T> {
    slots: Vec<Option<(u64, T)>>,
}

impl<T> Default for SendMap<T> {
    fn default() -> Self {
        SendMap { slots: Vec::new() }
    }
}

impl<T> SendMap<T> {
    /// Record `val` under `ctx`, as returned by an accepted
    /// [`channel_send`]. A record an earlier context left in the slot is
    /// dead (a slot recycles only after its completion was delivered).
    pub fn insert(&mut self, ctx: u64, val: T) {
        let slot = ctx_slot(ctx).expect("channel send contexts are pooled");
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot] = Some((ctx, val));
    }

    /// Take the record of `ctx`, if this map holds it.
    pub fn take(&mut self, ctx: u64) -> Option<T> {
        let entry = self.slots.get_mut(ctx_slot(ctx)?)?;
        entry.take_if(|(c, _)| *c == ctx).map(|(_, val)| val)
    }

    /// Forget every record (the slab keeps its capacity).
    pub fn clear(&mut self) {
        self.slots.fill_with(|| None);
    }

    /// The records still in flight, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten().map(|(_, val)| val)
    }
}

/// A blind wrap-around staging ring: reservations advance a cursor and
/// restart at the base when the next one would not fit. Nothing tracks
/// bytes in flight — the ring is sized so a reservation has long left the
/// node before the cursor comes round again (the socket layer, whose
/// payloads can outlive a lap, keeps its own *tracked* ring instead).
#[derive(Clone, Copy)]
pub struct StagingRing {
    base: VirtAddr,
    /// The address space `base` is mapped in: the kernel's for in-kernel
    /// services, the owning process's for a user-space library.
    asid: Asid,
    len: u64,
    cursor: u64,
}

impl StagingRing {
    /// A ring over `len` bytes mapped at `base` in `asid`.
    pub fn new(base: VirtAddr, asid: Asid, len: u64) -> Self {
        StagingRing {
            base,
            asid,
            len,
            cursor: 0,
        }
    }

    /// Reserve `len` bytes. `None` when the ring can never hold that much —
    /// checked in every build profile, because `len` may come off the wire.
    pub fn reserve(&mut self, len: u64) -> Option<MemRef> {
        if len > self.len {
            return None;
        }
        if self.cursor + len > self.len {
            self.cursor = 0;
        }
        let addr = self.base.add(self.cursor);
        self.cursor += len;
        Some(if self.asid.is_kernel() {
            MemRef::kernel(addr, len)
        } else {
            MemRef::user(self.asid, addr, len)
        })
    }

    /// Reserve room for `parts` laid end to end, copy them in and return
    /// the reference to hand to the transport. An empty message takes one
    /// byte of ring, so its (empty) reference has an address of its own.
    pub fn stage(&mut self, node: &mut NodeOs, parts: &[&[u8]]) -> Option<MemRef> {
        let total: u64 = parts.iter().map(|p| p.len() as u64).sum();
        let room = self.reserve(total.max(1))?;
        let mut at = 0;
        for part in parts {
            let dst = IoVec::single(room.sub_range(at, part.len() as u64));
            crate::iovec::write_iovec(node, &dst, part)
                .expect("a staging ring stays mapped for its owner's lifetime");
            at += part.len() as u64;
        }
        Some(room.sub_range(0, total))
    }
}

/// [`StagingRing::stage`] on `node` for a ring that lives inside the world
/// (`ring` selects it): a service reaches both through the same `w`, so it
/// can hold only one at a time.
pub fn ring_stage<W: DispatchWorld>(
    w: &mut W,
    node: NodeId,
    ring: impl Fn(&mut W) -> &mut StagingRing,
    parts: &[&[u8]],
) -> Option<MemRef> {
    let mut r = *ring(w);
    let staged = r.stage(w.os_mut().node_mut(node), parts);
    *ring(w) = r;
    staged
}

/// The bits a request id may occupy. Bit 63 is never set, so a wire
/// protocol can use it to mark a request's companion message
/// (`id | 1 << 63`) without leaving the id space: ORFS's write payload,
/// and a server's refusal ([`Reply::Refused`]).
pub const REQ_ID_MASK: u64 = (1 << 63) - 1;

const REQ_IDX_BITS: u32 = 16;
const REQ_NODE_BITS: u32 = 14;
const SLOT_BITS: u32 = 16;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// How long a request without a caller deadline waits on a silent peer
/// before it expires: `rel::MAX_RETRIES + 1` unanswered questions, each at most
/// `rel::MAX_RTO` apart — the longest silence a live link can show before
/// the reliability layer itself declares the peer dead. Past it, either
/// `PeerDown` has already ended the request or the peer is alive and not
/// answering. Local only: nothing on the wire carries it.
pub const CALL_HORIZON: SimTime =
    SimTime::from_nanos((rel::MAX_RETRIES as u64 + 1) * rel::MAX_RTO.nanos());

/// The one timer event of every request table, whichever service owns it
/// (the composed world lifts it into its event enum without allocating).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReqEv {
    /// Request `id`'s caller deadline passed; a stale id finds nothing.
    Deadline { table: u32, id: u64 },
    /// Table `table`'s one horizon timer fired ([`horizon_fired`]).
    Horizon { table: u32 },
}

/// The slot an id names (a client may key per-slot buffers by it).
pub fn req_slot(id: u64) -> usize {
    (id & SLOT_MASK) as usize
}

struct Slot<T> {
    gen: u16,
    /// [`SimTime::NEVER`] when nothing bounds the request (any more).
    expiry: SimTime,
    rec: Option<T>,
}

/// The request slab: a generation-tagged slot per live request with the
/// consumer's record `T` and its expiry; freed slots are reused last-in
/// first-out, so nothing is allocated past the in-flight high-water mark.
pub struct ReqTable<T> {
    owner_bits: u64,
    slots: Vec<Slot<T>>,
    free: Vec<u16>,
    /// The horizon timer is armed (or its handler is running).
    horizon_armed: bool,
    sends: SendMap<u64>,
}

impl<T> ReqTable<T> {
    /// A table minting ids for the client endpoint `owner`. Panics when
    /// `owner` does not fit the id layout (node ≥ 16 384 or endpoint index
    /// ≥ 65 536): two clients would share ids, the very defect it excludes.
    pub fn new(owner: Endpoint) -> Self {
        assert!(
            owner.node.0 < 1 << REQ_NODE_BITS && owner.idx < 1 << REQ_IDX_BITS,
            "{owner:?} does not fit the request-id layout"
        );
        let node = (owner.kind as u64) << REQ_NODE_BITS | owner.node.0 as u64;
        ReqTable {
            owner_bits: (node << REQ_IDX_BITS | owner.idx as u64) << 32,
            slots: Vec::new(),
            free: Vec::new(),
            horizon_armed: false,
            sends: SendMap::default(),
        }
    }

    /// Mint a request id and park `rec` under it — before the request
    /// leaves, so a reply buffer can be posted under the id first.
    pub fn mint(&mut self, rec: T) -> Result<u64, NetError> {
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None if self.slots.len() <= SLOT_MASK as usize => {
                self.slots.push(Slot {
                    gen: 0,
                    expiry: SimTime::NEVER,
                    rec: None,
                });
                self.slots.len() - 1
            }
            None => return Err(NetError::RequestTableFull),
        };
        self.slots[slot].rec = Some(rec);
        Ok(self.id_at(slot))
    }

    fn id_at(&self, slot: usize) -> u64 {
        self.owner_bits | (self.slots[slot].gen as u64) << SLOT_BITS | slot as u64
    }

    /// The live slot `id` names: owner bits, slot and generation all match.
    fn live_slot(&self, id: u64) -> Option<usize> {
        let slot = req_slot(id);
        let s = self.slots.get(slot)?;
        (s.rec.is_some() && self.id_at(slot) == id).then_some(slot)
    }

    /// The record of live request `id`.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots[self.live_slot(id)?].rec.as_ref()
    }

    /// The record of live request `id`, to update in place.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let slot = self.live_slot(id)?;
        self.slots[slot].rec.as_mut()
    }

    /// Request `id` ended (its reply arrived, or it failed): free its slot
    /// and hand its record back. `None` for an id that is not live.
    pub fn finish(&mut self, id: u64) -> Option<T> {
        let slot = self.live_slot(id)?;
        let s = &mut self.slots[slot];
        s.gen = s.gen.wrapping_add(1);
        s.expiry = SimTime::NEVER;
        self.free.push(slot as u16);
        s.rec.take()
    }

    /// Live requests, in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let live = self.slots.iter().enumerate();
        live.filter_map(|(slot, s)| Some((self.id_at(slot), s.rec.as_ref()?)))
    }

    /// How many requests are live.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Request `id` expires at `at` (`NEVER`: no longer expires). `true`
    /// when the caller must arm the horizon timer at `at` (none is armed).
    pub fn expire_at(&mut self, id: u64, at: SimTime) -> bool {
        let Some(slot) = self.live_slot(id) else {
            return false;
        };
        self.slots[slot].expiry = at;
        at != SimTime::NEVER && !std::mem::replace(&mut self.horizon_armed, true)
    }

    /// The first live request from slot `*from` on that expired by `now`;
    /// it expires once (its expiry is cleared) and `*from` moves past it.
    fn take_expired(&mut self, from: &mut usize, now: SimTime) -> Option<u64> {
        while let Some(s) = self.slots.get_mut(*from) {
            *from += 1;
            if s.rec.is_some() && s.expiry <= now {
                s.expiry = SimTime::NEVER;
                return Some(self.id_at(*from - 1));
            }
        }
        None
    }

    /// The earliest expiry pending, to re-arm the horizon timer at (`None`:
    /// the timer is disarmed).
    fn rearm(&mut self) -> Option<SimTime> {
        let live = self.slots.iter().filter(|s| s.rec.is_some());
        let next = live.map(|s| s.expiry).min().unwrap_or(SimTime::NEVER);
        self.horizon_armed = next != SimTime::NEVER;
        self.horizon_armed.then_some(next)
    }

    /// `SendDone` (or a withdrawn send): forget `ctx`; the request it carried.
    pub fn sent(&mut self, ctx: u64) -> Option<u64> {
        self.sends.take(ctx)
    }

    /// `SendFailed`: the request this send carried will never be answered.
    /// Returned for the consumer to fail — once: a second failed send of
    /// the same request (header, then announced payload) finds it gone.
    fn send_failed(&mut self, ctx: u64) -> Option<(u64, T)> {
        let id = self.sends.take(ctx)?;
        Some((id, self.finish(id)?))
    }

    /// The peer died: every live request, in ascending slot order, and
    /// every in-flight send forgotten (their completions find nothing).
    fn fail_all(&mut self) -> Vec<(u64, T)> {
        self.sends.clear();
        let ids: Vec<u64> = self.iter().map(|(id, _)| id).collect();
        ids.into_iter()
            .filter_map(|id| Some((id, self.finish(id)?)))
            .collect()
    }

    /// Requests the slab has room for (flat in steady state —
    /// `tests/hotpath_alloc.rs`; the send map is bounded by the channel's
    /// context pool, asserted flat there too).
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

/// Bound live request `id` of `table` by [`CALL_HORIZON`] from now (a later
/// bound replaces an earlier one), and arm the table's horizon timer —
/// `horizon` on `node` — if none is armed.
pub fn bound_request<W: SimWorld, T>(
    w: &mut W,
    node: NodeId,
    id: u64,
    table: impl FnOnce(&mut W) -> &mut ReqTable<T>,
    horizon: impl FnOnce() -> W::Ev,
) {
    let at = now(w) + CALL_HORIZON;
    if table(w).expire_at(id, at) {
        emit_at(w, node.0, at, horizon());
    }
}

/// A table's horizon timer (`horizon` on `node`) fired: hand every live
/// request whose expiry has passed to `expire`, in ascending slot order,
/// then re-arm the timer at the earliest expiry still pending. The timer
/// counts as armed while `expire` runs, so a request it submits cannot arm
/// a second one.
pub fn horizon_fired<W: SimWorld, T>(
    w: &mut W,
    node: NodeId,
    table: impl Fn(&mut W) -> &mut ReqTable<T>,
    mut expire: impl FnMut(&mut W, u64),
    horizon: impl FnOnce() -> W::Ev,
) {
    let (t, mut from) = (now(w), 0);
    while let Some(id) = table(w).take_expired(&mut from, t) {
        expire(w, id);
    }
    if let Some(at) = table(w).rearm() {
        emit_at(w, node.0, at, horizon());
    }
}

/// [`channel_send`] for a message of request `id` (`table` selects the
/// request table inside the world). An accepted send is recorded, so a
/// later `SendFailed` fails exactly that request, and its context comes
/// back. A synchronous rejection ends the request here; the error comes
/// back with the record to fail (`None` when an earlier message of the
/// request already failed it).
pub fn channel_send_request<W: DispatchWorld, T>(
    w: &mut W,
    ch: ChannelId,
    tag: u64,
    id: u64,
    iov: IoVec,
    table: impl FnOnce(&mut W) -> &mut ReqTable<T>,
) -> Result<u64, (NetError, Option<T>)> {
    match channel_send(w, ch, tag, iov) {
        Ok(ctx) => {
            table(w).sends.insert(ctx, id);
            Ok(ctx)
        }
        Err(e) => Err((e, table(w).finish(id))),
    }
}

/// A storage client's request side (ORFS, NBD): its request slab, the
/// staging ring its requests leave through and its channel to the server.
pub struct ReqClient<O> {
    node: NodeId,
    ch: ChannelId,
    reqs: ReqTable<Pending<O>>,
    ring: StagingRing,
}

#[derive(Clone, Copy)]
struct Pending<O> {
    op: O,
    /// A reply buffer is posted under the request's id.
    posted: bool,
}

impl<O> ReqClient<O> {
    /// The request side of endpoint `owner`'s client on channel `ch`.
    pub fn new(owner: Endpoint, ch: ChannelId, ring: StagingRing) -> Self {
        ReqClient {
            node: owner.node,
            ch,
            reqs: ReqTable::new(owner),
            ring,
        }
    }

    /// How many requests are live.
    pub fn live(&self) -> usize {
        self.reqs.live()
    }

    /// Requests the slab has room for ([`ReqTable::capacity`]).
    pub fn capacity(&self) -> usize {
        self.reqs.capacity()
    }
}

/// How a reply ended a storage request ([`StorageClient::on_event`]).
pub enum Reply<O> {
    /// A message under the request's id that no buffer took.
    Message { op: O, data: Bytes },
    /// `len` bytes landed in the buffer posted under the id.
    Landed { op: O, len: u64 },
    /// The server refused the request under `id | !REQ_ID_MASK`; `data` is
    /// its reason, in the client's codec.
    Refused { op: O, data: Bytes },
    /// The server's node died and every request ended: the client fails
    /// every op it holds.
    PeerDown,
}

/// The request lifecycle ORFS and NBD share, implemented by the client's
/// id. The client supplies where its [`ReqClient`] lives, its horizon
/// timer and its error mapping. A request that ends without a reply
/// withdraws its posted buffer, then fails its op.
pub trait StorageClient<W: DispatchWorld>: Copy {
    /// The client's operation id (an ORFS syscall, an NBD block op).
    type Op: Copy;

    /// The client's request side inside the world.
    fn reqs(self, w: &mut W) -> &mut ReqClient<Self::Op>;

    /// The client's horizon timer, lifted into the world's event enum.
    fn horizon(self) -> W::Ev;

    /// Fail `op` — once — with `e` in the client's own terms: `Deadline` at
    /// the horizon, `RequestTableFull` at a full table, the transport's
    /// error otherwise.
    fn fail(self, w: &mut W, op: Self::Op, e: NetError);

    /// Mint a request for `op`, bounded by [`CALL_HORIZON`] (`None`: the
    /// table is full and the op failed).
    fn mint(self, w: &mut W, op: Self::Op) -> Option<u64> {
        match self.reqs(w).reqs.mint(Pending { op, posted: false }) {
            Ok(id) => {
                bound(w, self, id);
                Some(id)
            }
            Err(e) => {
                self.fail(w, op, e);
                None
            }
        }
    }

    /// Post `iov` as request `id`'s reply buffer, before the request leaves
    /// (a refused post leaves the reply to arrive as a message).
    fn post(self, w: &mut W, id: u64, iov: IoVec) {
        let ch = self.reqs(w).ch;
        if channel_post_recv(w, ch, id, iov).is_ok() {
            self.reqs(w).reqs.get_mut(id).expect("just minted").posted = true;
        }
    }

    /// Stage `parts` end to end in the client's ring, sized for any request.
    fn stage(self, w: &mut W, parts: &[&[u8]]) -> MemRef {
        let (node, mut ring) = (self.reqs(w).node, self.reqs(w).ring);
        let staged = ring.stage(w.os_mut().node_mut(node), parts);
        self.reqs(w).ring = ring;
        staged.expect("a client's requests fit its staging ring")
    }

    /// Send a message of request `id` under `tag` ([`channel_send_request`]);
    /// a rejected one fails the op now. Whether it was accepted.
    fn send(self, w: &mut W, tag: u64, id: u64, iov: IoVec) -> bool {
        let ch = self.reqs(w).ch;
        let sent = channel_send_request(w, ch, tag, id, iov, |w| &mut self.reqs(w).reqs);
        if let Err((e, Some(p))) = sent {
            withdraw(w, ch, id, p);
            self.fail(w, p.op, e);
        }
        sent.is_ok()
    }

    /// Handle `ev` from the client's channel; a reply comes back with the op
    /// it ends. Each `SendDone` bounds its request again, so the horizon
    /// measures the server's silence, not the transfer's length.
    fn on_event(self, w: &mut W, ev: TransportEvent) -> Option<Reply<Self::Op>> {
        let ch = self.reqs(w).ch;
        match ev {
            TransportEvent::Unexpected { tag, data, .. } if tag & !REQ_ID_MASK != 0 => {
                let id = tag & REQ_ID_MASK;
                let p = self.reqs(w).reqs.finish(id)?;
                withdraw(w, ch, id, p);
                Some(Reply::Refused { op: p.op, data })
            }
            TransportEvent::Unexpected { tag, data, .. } => {
                let op = self.reqs(w).reqs.finish(tag)?.op;
                Some(Reply::Message { op, data })
            }
            TransportEvent::RecvDone { tag, len, .. } => {
                let op = self.reqs(w).reqs.finish(tag)?.op;
                Some(Reply::Landed { op, len })
            }
            TransportEvent::SendDone { ctx } => {
                let id = self.reqs(w).reqs.sent(ctx)?;
                bound(w, self, id);
                None
            }
            TransportEvent::SendFailed { ctx, error } => {
                let (id, p) = self.reqs(w).reqs.send_failed(ctx)?;
                withdraw(w, ch, id, p);
                self.fail(w, p.op, error);
                None
            }
            TransportEvent::PeerDown { .. } => {
                for (id, p) in self.reqs(w).reqs.fail_all() {
                    withdraw(w, ch, id, p);
                }
                Some(Reply::PeerDown)
            }
            TransportEvent::CollectiveDone { .. }
            | TransportEvent::CollectiveRecv { .. }
            | TransportEvent::CollectiveFailed { .. } => None,
        }
    }

    /// The horizon timer fired: an expired request ends, failing its op
    /// `Deadline`, unless the transport still works for it — a send of it
    /// is queued or on the wire, or a reply is arriving into its buffer or
    /// beats the buffer's withdrawal.
    fn horizon_fired(self, w: &mut W) {
        let (node, ch) = (self.reqs(w).node, self.reqs(w).ch);
        let expire = |w: &mut W, id| {
            let t = &self.reqs(w).reqs;
            let Some(&p) = t.get(id) else { return };
            if t.sends.values().any(|&sent| sent == id) {
                return;
            }
            if p.posted && (channel_recv_filling(w, ch, id) || !channel_cancel_recv(w, ch, id)) {
                return;
            }
            self.reqs(w).reqs.finish(id);
            self.fail(w, p.op, NetError::Deadline);
        };
        let horizon = || self.horizon();
        horizon_fired(w, node, |w| &mut self.reqs(w).reqs, expire, horizon);
    }
}

/// (Re)start request `id`'s horizon: it expires [`CALL_HORIZON`] from now.
fn bound<W: DispatchWorld, C: StorageClient<W>>(w: &mut W, c: C, id: u64) {
    let node = c.reqs(w).node;
    bound_request(w, node, id, |w| &mut c.reqs(w).reqs, || c.horizon());
}

/// Withdraw the reply buffer ended request `id` posted, if any.
fn withdraw<O>(w: &mut impl DispatchWorld, ch: ChannelId, id: u64, p: Pending<O>) {
    if p.posted {
        channel_cancel_recv(w, ch, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportKind;
    use knet_simos::{CpuModel, Prot};

    /// A pooled context value, as the channel layer mints them.
    fn ctx(slot: u32, gen: u32) -> u64 {
        crate::api::CtxPool::encode(slot, gen)
    }

    fn ep(kind: TransportKind, node: u32, idx: u32) -> Endpoint {
        Endpoint {
            kind,
            node: NodeId(node),
            idx,
        }
    }

    #[test]
    fn send_map_never_matches_a_recycled_slot() {
        let mut m = SendMap::default();
        m.insert(ctx(3, 0), "first");
        // The same pool slot under a later generation is a different send.
        assert_eq!(m.take(ctx(3, 1)), None);
        assert_eq!(m.take(ctx(3, 0)), Some("first"));
        assert_eq!(m.take(ctx(3, 0)), None, "taken once");
        // The slot recycled: the stale context finds the new record, not
        // its own, and must not take it.
        m.insert(ctx(3, 1), "second");
        assert_eq!(m.take(ctx(3, 0)), None);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), ["second"]);
    }

    #[test]
    fn send_map_ignores_unknown_and_unpooled_contexts() {
        let mut m: SendMap<u32> = SendMap::default();
        assert_eq!(m.take(ctx(0, 0)), None, "empty map");
        m.insert(ctx(1, 0), 7);
        assert_eq!(m.take(ctx(9, 0)), None, "slot never seen");
        assert_eq!(m.take(ctx(0, 0)), None, "slot seen, vacant");
        assert_eq!(m.take(42), None, "a receive context is not pooled");
    }

    #[test]
    fn send_map_keeps_its_capacity_across_clear() {
        let mut m = SendMap::default();
        for slot in 0..8 {
            m.insert(ctx(slot, 0), slot);
        }
        let (len, cap) = (m.slots.len(), m.slots.capacity());
        m.clear();
        assert_eq!(m.values().count(), 0);
        assert_eq!(m.take(ctx(5, 0)), None, "cleared records are gone");
        for slot in 0..8 {
            m.insert(ctx(slot, 1), slot);
        }
        assert_eq!((m.slots.len(), m.slots.capacity()), (len, cap));
    }

    #[test]
    fn request_ids_are_unique_per_endpoint_and_leave_bit_63_free() {
        let owners = [
            ep(TransportKind::Gm, 0, 0),
            ep(TransportKind::Mx, 0, 0),
            ep(TransportKind::Mx, 1, 0),
            ep(TransportKind::Mx, 0, 1),
            ep(
                TransportKind::Gm,
                (1 << REQ_NODE_BITS) - 1,
                (1 << REQ_IDX_BITS) - 1,
            ),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for owner in owners {
            let mut t = ReqTable::new(owner);
            for n in 0..100u32 {
                let id = t.mint(n).unwrap();
                assert_eq!(id & !REQ_ID_MASK, 0, "bit 63 stays clear");
                assert_eq!((req_slot(id), id >> 16 & 0xFFFF), (n as usize, 0));
                assert!(seen.insert(id), "{owner:?} re-minted {id:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit the request-id layout")]
    fn an_endpoint_outside_the_id_layout_is_refused() {
        ReqTable::<()>::new(ep(TransportKind::Mx, 1 << REQ_NODE_BITS, 0));
    }

    #[test]
    fn a_reused_slot_never_answers_to_its_old_id() {
        let mut t = ReqTable::new(ep(TransportKind::Mx, 2, 5));
        let first = t.mint("first").unwrap();
        assert_eq!(t.finish(first), Some("first"));
        let second = t.mint("second").unwrap();
        assert_eq!(req_slot(second), req_slot(first), "freed slots are reused");
        assert_ne!(second, first, "under the next generation");
        assert_eq!(t.get(first), None);
        assert_eq!(t.finish(first), None, "a stale id frees nothing");
        // The generation wraps inside its 16 bits: the owner bits stay.
        t.slots[0].gen = u16::MAX;
        let last = t.id_at(0);
        assert_eq!(t.finish(last), Some("second"));
        let wrapped = t.mint("wrapped").unwrap();
        assert_eq!(wrapped >> 32, first >> 32, "same owner bits");
        assert_eq!(wrapped & 0xFFFF_FFFF, 0, "generation 0, slot 0");
        assert_eq!(t.get(wrapped), Some(&"wrapped"));
    }

    #[test]
    fn a_mint_past_65_536_live_requests_is_refused() {
        let mut t = ReqTable::new(ep(TransportKind::Gm, 0, 0));
        let ids: Vec<u64> = (0..1 << 16).map(|_| t.mint(()).unwrap()).collect();
        assert_eq!(t.live(), 1 << 16);
        assert_eq!(t.mint(()), Err(NetError::RequestTableFull));
        assert_eq!(t.finish(ids[7]), Some(()));
        assert_eq!(req_slot(t.mint(()).unwrap()), 7, "one slot came free");
    }

    #[test]
    fn send_failed_fails_exactly_one_request_once() {
        let mut t = ReqTable::new(ep(TransportKind::Mx, 0, 0));
        let a = t.mint('a').unwrap();
        let b = t.mint('b').unwrap();
        // Request `a` has two sends in flight: header + announced payload.
        t.sends.insert(ctx(0, 0), a);
        t.sends.insert(ctx(1, 0), a);
        t.sends.insert(ctx(2, 0), b);
        assert_eq!(t.send_failed(ctx(1, 0)), Some((a, 'a')));
        assert_eq!(t.send_failed(ctx(0, 0)), None, "already failed");
        assert_eq!(t.send_failed(ctx(0, 0)), None, "send forgotten");
        // `b` is untouched: its send completes, its reply arrives.
        assert_eq!(t.sent(ctx(2, 0)), Some(b));
        assert_eq!(t.send_failed(ctx(2, 0)), None);
        assert_eq!(t.finish(b), Some('b'));
    }

    #[test]
    fn finish_of_an_unknown_tag_is_none() {
        let mut t = ReqTable::new(ep(TransportKind::Gm, 0, 0));
        let id = t.mint(1u8).unwrap();
        assert_eq!(t.finish(id + 1), None, "never minted");
        assert_eq!(t.finish(id | !REQ_ID_MASK), None, "bulk-data companion tag");
        assert_eq!(t.finish(id | 1 << 32), None, "another client's id");
        assert_eq!(t.finish(id), Some(1));
        assert_eq!(t.finish(id), None, "finished once");
    }

    #[test]
    fn fail_all_yields_ascending_slots_and_forgets_every_send() {
        let mut t = ReqTable::new(ep(TransportKind::Mx, 3, 1));
        let ids: Vec<u64> = (0..5).map(|n| t.mint(n).unwrap()).collect();
        for (slot, id) in ids.iter().enumerate() {
            t.sends.insert(ctx(slot as u32, 0), *id);
        }
        // Replies arrive out of order; a new request takes the freed slot
        // 0; the rest die with the peer.
        assert_eq!(t.finish(ids[3]), Some(3));
        assert_eq!(t.finish(ids[0]), Some(0));
        let again = t.mint(9).unwrap();
        let failed = t.fail_all();
        assert_eq!(failed, [(again, 9), (ids[1], 1), (ids[2], 2), (ids[4], 4)]);
        assert!(t.fail_all().is_empty());
        assert_eq!(t.live(), 0);
        for slot in 0..5 {
            assert_eq!(t.send_failed(ctx(slot, 0)), None, "send {slot} forgotten");
        }
    }

    #[test]
    fn one_horizon_timer_per_table_rearmed_at_the_earliest_expiry() {
        let ms = SimTime::from_millis;
        let mut t = ReqTable::new(ep(TransportKind::Mx, 0, 0));
        let [a, b, c, d] = [0, 1, 2, 3].map(|n| t.mint(n).unwrap());
        assert!(t.expire_at(a, ms(18)), "the first bound request arms");
        assert!(!t.expire_at(b, ms(20)), "one timer per table");
        assert!(!t.expire_at(c, ms(25)));
        assert!(!t.expire_at(d, SimTime::NEVER), "unbounded");
        t.finish(b);
        // The timer fires at 20 ms: `a` expires (once), `b` is gone, `c`
        // and `d` wait; the timer re-arms at `c`'s expiry.
        let mut from = 0;
        assert_eq!(t.take_expired(&mut from, ms(20)), Some(a));
        assert_eq!(t.take_expired(&mut from, ms(20)), None);
        assert_eq!(t.rearm(), Some(ms(25)));
        assert_eq!(t.get(a), Some(&0), "an expired request may stay pending");
        t.finish(c);
        assert_eq!(t.rearm(), None, "nothing left to bound: disarmed");
        assert!(t.expire_at(d, ms(40)), "the next bound request arms again");
    }

    #[test]
    fn request_table_is_flat_once_warm() {
        let mut t = ReqTable::new(ep(TransportKind::Mx, 0, 0));
        let round = |t: &mut ReqTable<u32>, gen: u32| {
            let ids: Vec<u64> = (0..8).map(|n| t.mint(n).unwrap()).collect();
            for (slot, id) in ids.iter().enumerate() {
                t.sends.insert(ctx(slot as u32, gen), *id);
                t.sent(ctx(slot as u32, gen));
            }
            for id in ids {
                t.finish(id).expect("waiting");
            }
        };
        round(&mut t, 0);
        let warm = (t.capacity(), t.free.capacity(), t.sends.slots.capacity());
        for gen in 1..50 {
            round(&mut t, gen);
        }
        let now = (t.capacity(), t.free.capacity(), t.sends.slots.capacity());
        assert_eq!(now, warm);
    }

    fn ring_node() -> (NodeOs, VirtAddr) {
        let mut n = NodeOs::new(NodeId(0), CpuModel::xeon_2600(), 64);
        let base = n.kalloc(100).unwrap();
        (n, base)
    }

    #[test]
    fn ring_reservations_advance_wrap_and_fit_exactly() {
        let (_, base) = ring_node();
        let mut r = StagingRing::new(base, Asid::KERNEL, 100);
        assert_eq!(r.reserve(60), Some(MemRef::kernel(base, 60)));
        // Exact fit of the remainder does not wrap.
        assert_eq!(r.reserve(40), Some(MemRef::kernel(base.add(60), 40)));
        // The next one cannot fit behind the cursor: back to the base.
        assert_eq!(r.reserve(1), Some(MemRef::kernel(base, 1)));
        assert_eq!(r.reserve(99), Some(MemRef::kernel(base.add(1), 99)));
        // A reservation of the whole ring is accepted...
        assert_eq!(r.reserve(100), Some(MemRef::kernel(base, 100)));
        // ...one byte more is refused, in release builds too, and leaves
        // the cursor where it was.
        assert_eq!(r.reserve(101), None);
        assert_eq!(r.reserve(u64::MAX), None);
        assert_eq!(r.reserve(1), Some(MemRef::kernel(base, 1)));
    }

    #[test]
    fn stage_copies_parts_end_to_end() {
        let (mut n, base) = ring_node();
        let mut r = StagingRing::new(base, Asid::KERNEL, 100);
        let m = r.stage(&mut n, &[b"head", b"", b"payload"]).unwrap();
        assert_eq!(m, MemRef::kernel(base, 11));
        let back = crate::iovec::read_iovec(&n, &IoVec::single(m)).unwrap();
        assert_eq!(back, b"headpayload");
        // An empty message has an empty reference but its own ring byte.
        assert_eq!(r.stage(&mut n, &[]), Some(MemRef::kernel(base.add(11), 0)));
        assert_eq!(
            r.stage(&mut n, &[b"x"]),
            Some(MemRef::kernel(base.add(12), 1))
        );
        assert_eq!(
            r.stage(&mut n, &[&[0u8; 101]]),
            None,
            "larger than the ring"
        );
    }

    #[test]
    fn a_user_space_ring_hands_out_user_references() {
        let mut n = NodeOs::new(NodeId(0), CpuModel::xeon_2600(), 64);
        let asid = n.create_process();
        let base = n.map_anon(asid, 4096, Prot::RW).unwrap();
        assert!(!base.is_kernel());
        let mut r = StagingRing::new(base, asid, 4096);
        let m = r.stage(&mut n, &[b"orfa"]).unwrap();
        assert_eq!(m, MemRef::user(asid, base, 4));
        let back = crate::iovec::read_iovec(&n, &IoVec::single(m)).unwrap();
        assert_eq!(back, b"orfa");
    }
}
