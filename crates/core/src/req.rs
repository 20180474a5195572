//! The request seam above the channel: what every request/response
//! service (ORFS, NBD, RPC, the socket layer) needs between "I called
//! [`channel_send`]" and "the reply — or the failure — arrived", once.
//!
//! * [`SendMap`]: which record did send-context `ctx` carry?
//! * [`StagingRing`]: the blind wrap-around ring headers and replies are
//!   staged through, bounded in release builds too — a length read from
//!   the wire is refused, never written past the ring;
//! * [`ReqTable`]: the client half of correlation — request-id mint (the
//!   wire tags), who waits for each id, and triage of the ways a request
//!   ends without its reply (`SendFailed`, synchronous rejection, the
//!   peer's death).
//!
//! The types name no service and no world; they hold plain values and are
//! driven from the consumer's event handler. Which channels hear about a
//! dead peer at all is decided below them, in
//! [`peer_down`](crate::api::peer_down).

use knet_simos::{Asid, NodeId, NodeOs, VirtAddr};

use crate::api::{channel_send, ctx_slot, ChannelId, DispatchWorld};
use crate::error::NetError;
use crate::iovec::{IoVec, MemRef};
use crate::transport::Endpoint;

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

/// The bits a request id may occupy. Bit 63 is never set, so a consumer's
/// wire protocol can use it to mark a request's bulk-data companion
/// message (`id | 1 << 63`) without leaving the id space.
pub const REQ_ID_MASK: u64 = (1 << 63) - 1;

const REQ_IDX_BITS: u32 = 16;
const REQ_NODE_BITS: u32 = 14;

/// Client-side request correlation: id mint, waiter list, and the map from
/// in-flight sends to the request they carry. `T` is what the consumer
/// resolves when a request ends (a syscall id, a block op). Nothing is
/// allocated once the waiter list and the send map reach the in-flight
/// high-water mark.
///
/// Ids are wire tags, and servers key per-request state by tag alone — so
/// an id must be unique among *every* client a server can hear from. Each
/// is a 32-bit counter (from 1) under the owning endpoint's identity:
/// `[62] kind · [48..62] node · [32..48] endpoint index · [0..32] counter`.
/// (After 2³² requests the counter wraps; a request still waiting by then
/// would share its id.)
pub struct ReqTable<T> {
    owner_bits: u64,
    counter: u32,
    /// Requests awaiting their reply, sorted by id (= mint order).
    waiting: Vec<(u64, T)>,
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
            counter: 0,
            waiting: Vec::new(),
            sends: SendMap::default(),
        }
    }

    /// Mint the next request id and park `waiter` under it — before the
    /// request leaves, so a reply buffer can be posted under the id first.
    pub fn mint(&mut self, waiter: T) -> u64 {
        self.counter = self.counter.wrapping_add(1);
        let id = self.owner_bits | self.counter as u64;
        // Ids ascend, so this is a push — except across a counter wrap.
        let at = self.waiting.partition_point(|(i, _)| *i < id);
        self.waiting.insert(at, (id, waiter));
        id
    }

    /// `SendDone`: the send left the node; nothing more to remember.
    pub fn sent(&mut self, ctx: u64) {
        self.sends.take(ctx);
    }

    /// `SendFailed`: the request this send carried will never be answered.
    /// Returned for the consumer to fail — once: a second failed send of
    /// the same request (header, then announced payload) finds it gone.
    pub fn send_failed(&mut self, ctx: u64) -> Option<(u64, T)> {
        let id = self.sends.take(ctx)?;
        Some((id, self.finish(id)?))
    }

    /// The request under wire tag `tag` ended (its reply arrived, or its
    /// send was rejected synchronously): stop waiting for it.
    pub fn finish(&mut self, tag: u64) -> Option<T> {
        let at = self.waiting.binary_search_by_key(&tag, |(i, _)| *i).ok()?;
        Some(self.waiting.remove(at).1)
    }

    /// The peer died: every waiting request, in ascending id order, and
    /// every in-flight send forgotten (their completions find nothing).
    pub fn fail_all(&mut self) -> Vec<(u64, T)> {
        self.sends.clear();
        std::mem::take(&mut self.waiting)
    }

    /// Requests the waiter list has room for (flat in steady state —
    /// `tests/hotpath_alloc.rs`; the send map is bounded by the channel's
    /// context pool, asserted flat there too).
    pub fn capacity(&self) -> usize {
        self.waiting.capacity()
    }
}

/// [`channel_send`] for a message of request `id` (`table` selects the
/// request table inside the world). An accepted send is recorded, so a
/// later `SendFailed` fails exactly that request. A synchronous rejection
/// ends the request here; the error comes back with the waiter to fail
/// (`None` when an earlier message of the request already failed it).
pub fn channel_send_request<W: DispatchWorld, T>(
    w: &mut W,
    ch: ChannelId,
    tag: u64,
    id: u64,
    iov: IoVec,
    table: impl FnOnce(&mut W) -> &mut ReqTable<T>,
) -> Result<(), (NetError, Option<T>)> {
    match channel_send(w, ch, tag, iov) {
        Ok(ctx) => {
            table(w).sends.insert(ctx, id);
            Ok(())
        }
        Err(e) => Err((e, table(w).finish(id))),
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
                let id = t.mint(n);
                assert_eq!(id & !REQ_ID_MASK, 0, "bit 63 stays clear");
                assert_eq!(id as u32, n + 1, "a 32-bit counter from 1");
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
    fn a_counter_wrap_stays_inside_the_owner_bits_and_keeps_the_list_sorted() {
        let mut t = ReqTable::new(ep(TransportKind::Mx, 2, 5));
        let first = t.mint("first");
        t.counter = u32::MAX - 1;
        let last = t.mint("last");
        let wrapped = t.mint("wrapped");
        assert_eq!((last as u32, wrapped as u32), (u32::MAX, 0));
        assert_eq!(wrapped >> 32, first >> 32, "same owner bits");
        assert_eq!(t.finish(last), Some("last"));
        assert_eq!(t.fail_all(), [(wrapped, "wrapped"), (first, "first")]);
    }

    #[test]
    fn send_failed_fails_exactly_one_request_once() {
        let mut t = ReqTable::new(ep(TransportKind::Mx, 0, 0));
        let a = t.mint('a');
        let b = t.mint('b');
        // Request `a` has two sends in flight: header + announced payload.
        t.sends.insert(ctx(0, 0), a);
        t.sends.insert(ctx(1, 0), a);
        t.sends.insert(ctx(2, 0), b);
        assert_eq!(t.send_failed(ctx(1, 0)), Some((a, 'a')));
        assert_eq!(t.send_failed(ctx(0, 0)), None, "already failed");
        assert_eq!(t.send_failed(ctx(0, 0)), None, "send forgotten");
        // `b` is untouched: its send completes, its reply arrives.
        t.sent(ctx(2, 0));
        assert_eq!(t.send_failed(ctx(2, 0)), None);
        assert_eq!(t.finish(b), Some('b'));
    }

    #[test]
    fn finish_of_an_unknown_tag_is_none() {
        let mut t = ReqTable::new(ep(TransportKind::Gm, 0, 0));
        let id = t.mint(1u8);
        assert_eq!(t.finish(id + 1), None, "never minted");
        assert_eq!(t.finish(id | !REQ_ID_MASK), None, "bulk-data companion tag");
        assert_eq!(t.finish(id), Some(1));
        assert_eq!(t.finish(id), None, "finished once");
    }

    #[test]
    fn fail_all_yields_ascending_ids_and_forgets_every_send() {
        let mut t = ReqTable::new(ep(TransportKind::Mx, 3, 1));
        let ids: Vec<u64> = (0..5).map(|n| t.mint(n)).collect();
        for (slot, id) in ids.iter().enumerate() {
            t.sends.insert(ctx(slot as u32, 0), *id);
        }
        // Replies arrive out of order; the rest die with the peer.
        assert_eq!(t.finish(ids[3]), Some(3));
        assert_eq!(t.finish(ids[0]), Some(0));
        let failed = t.fail_all();
        assert_eq!(failed, [(ids[1], 1), (ids[2], 2), (ids[4], 4)]);
        assert!(t.fail_all().is_empty());
        for slot in 0..5 {
            assert_eq!(t.send_failed(ctx(slot, 0)), None, "send {slot} forgotten");
        }
    }

    #[test]
    fn request_table_is_flat_once_warm() {
        let mut t = ReqTable::new(ep(TransportKind::Mx, 0, 0));
        let round = |t: &mut ReqTable<u32>, gen: u32| {
            let ids: Vec<u64> = (0..8).map(|n| t.mint(n)).collect();
            for (slot, id) in ids.iter().enumerate() {
                t.sends.insert(ctx(slot as u32, gen), *id);
                t.sent(ctx(slot as u32, gen));
            }
            for id in ids {
                t.finish(id).expect("waiting");
            }
        };
        round(&mut t, 0);
        let warm = (t.capacity(), t.sends.slots.capacity());
        for gen in 1..50 {
            round(&mut t, gen);
        }
        assert_eq!((t.capacity(), t.sends.slots.capacity()), warm);
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
