//! The driver seam: what GM and MX do the same way, written once.
//!
//! * where a driver **reports** — the one completion hook
//!   ([`CompletionHook::complete`]): a completion is a [`TransportEvent`]
//!   from the moment the driver creates it, handed to the endpoint's
//!   consumer in one call, its sender named from the packet's source NIC
//!   and the wire header ([`Assembly::sender`]) — and scratch-buffer
//!   accounting ([`ScratchStats`]);
//! * how a message **moves** — the packet builder and the one MTU chunk
//!   loop ([`Route::send`], [`send_chunks`]), the first-fit matcher over
//!   posted buffers ([`first_fit`], [`Posted`]), and the reassembly table
//!   ([`Reassembly`], [`land`]) that carries a message from its first
//!   arriving chunk to the moment its bytes are handed back.
//!
//! What differs stays in `knet-gm` / `knet-mx`: **protocol selection** (GM:
//! one data packet kind behind send tokens and explicit registration; MX:
//! small / medium / large by size, and the RTS → CTS exchange with its
//! sender-side record); **addressing** (GM translates through the NIC table
//! and charges each buffer's translate cost to the firmware; MX resolves
//! io-vectors itself and pins user pages); **where a matched message
//! lands** (GM scatters straight into the provided buffer; MX stages in a
//! ring and copies out unless the endpoint runs `no_recv_copy`; an accepted
//! rendezvous always lands directly — the driver says which by handing
//! [`land`] the segments to scatter into, or none); and **every cost
//! constant and which completion is emitted**.
//!
//! **The lifecycle rule this module owns:** a posted receive is in exactly
//! one of two places — its endpoint's posted queue, or the incomplete
//! [`Assembly`] that captured it — and cancel, endpoint close and peer
//! death look in both ([`Reassembly::cancel_captured`],
//! [`Reassembly::abandon`]).

use std::collections::VecDeque;

use bytes::Bytes;
use knet_simcore::{IdHashMap, SimTime};
use knet_simnic::{
    dma_charge, dma_gather, dma_scatter, fw_charge, rel_send, MsgHeader, NicId, NicLayer, NicWorld,
    Packet, Proto,
};
use knet_simos::{NodeId, OsError, PhysSeg};

use crate::iovec::{next_chunk, seg_window_into, ChunkCursor};
use crate::tenant::TenantId;
use crate::transport::{Endpoint, TransportEvent, TransportKind};

/// The one completion hook both driver world-traits require. A driver
/// calls it once per completion — `SendDone`, `RecvDone`, `Unexpected`,
/// `SendFailed` — after its own bookkeeping, with the open endpoint the
/// completion belongs to; a completion for an endpoint closed meanwhile is
/// dropped by the driver and never reaches the hook. The composed world
/// implements it as `api::deliver`; a driver's unit-test world records.
pub trait CompletionHook {
    fn complete(&mut self, ep: Endpoint, ev: TransportEvent);
}

/// Observability for a driver's recycled scratch buffers (see
/// `tests/hotpath_alloc.rs`): steady state shows `uses` growing while
/// `grows` stays flat.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScratchStats {
    /// Operations that borrowed scratch buffers.
    pub uses: u64,
    /// Borrows that had to grow a buffer (warm-up only, in steady state).
    pub grows: u64,
}

impl ScratchStats {
    /// Account one borrow whose capacity footprint went from `before` to
    /// `after`.
    pub fn note(&mut self, before: usize, after: usize) {
        self.uses += 1;
        if after > before {
            self.grows += 1;
        }
    }
}

// ------------------------------------------------------------------ send

/// Where a message's packets go and how they are labelled on the wire.
#[derive(Clone, Copy, Debug)]
pub struct Route {
    pub src: NicId,
    pub dst: NicId,
    pub proto: Proto,
    /// Driver-defined packet kind.
    pub kind: u8,
    /// The driver's on-wire header size.
    pub header_bytes: u64,
    /// Sending tenant, stamped on every packet.
    pub tenant: TenantId,
}

impl Route {
    /// The one packet builder: `hdr` + `payload` under the link's
    /// reliability window, no earlier than `ready`.
    #[inline]
    pub fn send<W: NicWorld>(&self, w: &mut W, hdr: MsgHeader, payload: Bytes, ready: SimTime) {
        let mut pkt = Packet::new(
            self.src,
            self.dst,
            self.proto,
            self.kind,
            hdr.pack(),
            payload,
            self.header_bytes,
        );
        pkt.tenant = self.tenant.0;
        rel_send(w, pkt, ready);
    }
}

/// Where [`send_chunks`] reads a message from.
#[derive(Clone, Copy)]
pub enum ChunkSource<'a> {
    /// Resolved host memory: each chunk is cut into the NIC layer's
    /// recycled chunk scratch and gathered by DMA.
    Segs(&'a [PhysSeg]),
    /// Bytes already gathered (a send ring): each chunk is a slice, its DMA
    /// fetch a pure timing charge.
    Gathered(&'a Bytes),
}

/// The one MTU loop: cut the message `hdr` describes (`hdr.offset` is
/// ignored) into chunks, DMA each no earlier than `start` and behind its
/// predecessor, pay `fw_chunk` of firmware per chunk after the first, and
/// put them on the wire. A zero-length message still sends one empty
/// envelope. Returns the instant the last chunk left host memory.
#[inline]
pub fn send_chunks<W: NicWorld>(
    w: &mut W,
    route: &Route,
    hdr: MsgHeader,
    source: ChunkSource<'_>,
    start: SimTime,
    fw_chunk: SimTime,
) -> Result<SimTime, OsError> {
    let mtu = w.nics().get(route.src).model.mtu;
    let mut cursor = ChunkCursor::default();
    let (mut ready, mut offset) = (start, 0u64);
    loop {
        let (data, dma_done) = match source {
            ChunkSource::Segs(segs) => {
                let mut chunk = std::mem::take(&mut w.nics_mut().chunk_scratch);
                next_chunk(segs, &mut cursor, mtu, &mut chunk);
                let gathered = dma_gather(w, route.src, ready, &chunk);
                w.nics_mut().chunk_scratch = chunk;
                gathered?
            }
            ChunkSource::Gathered(bytes) => {
                let end = (offset + mtu).min(hdr.total).min(bytes.len() as u64);
                let data = bytes.slice(offset as usize..end as usize);
                let t = dma_charge(w, route.src, ready, end - offset);
                (data, t)
            }
        };
        let fw_ready = if offset == 0 {
            dma_done
        } else {
            fw_charge(w, route.src, dma_done, fw_chunk)
        };
        let len = data.len() as u64;
        route.send(w, MsgHeader { offset, ..hdr }, data, fw_ready);
        ready = dma_done;
        offset += len;
        // (`len == 0`: the empty envelope, or a source that ran dry.)
        if offset >= hdr.total || len == 0 {
            return Ok(ready);
        }
    }
}

// --------------------------------------------------------------- receive

/// Wildcard receive tag: a posted buffer with this tag matches any message.
pub const ANY_TAG: u64 = u64::MAX;

/// Does a receive posted with `posted` accept a message tagged `msg`?
#[inline]
pub fn tag_matches(posted: u64, msg: u64) -> bool {
    posted == ANY_TAG || posted == msg
}

/// Remove and return the first element of `q` that satisfies `pred`.
pub fn take_first<T>(q: &mut VecDeque<T>, pred: impl FnMut(&T) -> bool) -> Option<T> {
    let i = q.iter().position(pred)?;
    q.remove(i)
}

/// What the matcher needs to know about a driver's posted receive buffer.
pub trait Posted {
    fn tag(&self) -> u64;
    /// Bytes the buffer can take.
    fn capacity(&self) -> u64;
}

/// First fit over an endpoint's posted buffers (in posting order): the
/// oldest whose tag accepts `tag` and whose capacity holds `total` bytes.
pub fn first_fit<B: Posted>(posted: &mut VecDeque<B>, tag: u64, total: u64) -> Option<B> {
    take_first(posted, |b| {
        tag_matches(b.tag(), tag) && b.capacity() >= total
    })
}

/// Withdraw the oldest buffer posted with exactly `tag`.
pub fn take_tag<B: Posted>(posted: &mut VecDeque<B>, tag: u64) -> Option<B> {
    take_first(posted, |b| b.tag() == tag)
}

/// `(dst endpoint, src endpoint, msg id)`. `msg_id` alone is only unique
/// per *sending* world — every shard mints its own sequence, so two senders
/// converging on one receiver can collide on it; the source endpoint
/// (carried in the wire header) disambiguates.
type AssemblyKey = (u32, u32, u64);

/// Receive-side state of one message from its first arriving chunk until
/// its last.
pub struct Assembly<B> {
    /// Sending endpoint (driver-local index; see [`Self::sender`]).
    from: u32,
    pub tag: u64,
    pub total: u64,
    received: u64,
    /// The posted buffer captured at the first chunk, if one fitted.
    pub matched: Option<B>,
    /// The buffer was promised to the sender before any data moved (an
    /// accepted rendezvous): its owner can no longer cancel it.
    committed: bool,
    /// Staging ring, borrowed from the table's pool by the first chunk that
    /// needs one (a message that arrives whole never does).
    ring: Vec<u8>,
    /// When the last chunk's DMA into host memory completes.
    pub last_dma_done: SimTime,
    /// `(receiving NIC, sending NIC)`: what peer death is declared for.
    link: (NicId, NicId),
    /// The owner took the captured buffer back: what is still to arrive is
    /// counted and discarded, never matched against another buffer.
    cancelled: bool,
}

impl<B> Assembly<B> {
    fn begin(m: &MsgHeader, link: (NicId, NicId), matched: Option<B>) -> Self {
        Assembly {
            from: m.src,
            tag: m.tag,
            total: m.total,
            received: 0,
            matched,
            committed: false,
            ring: Vec::new(),
            last_dma_done: SimTime::ZERO,
            link,
            cancelled: false,
        }
    }

    /// The bytes of a complete message that was staged rather than landed
    /// directly: the ring, or — when it arrived whole — `payload`, the one
    /// packet that carried it.
    pub fn staged<'a>(&'a self, payload: &'a Bytes) -> &'a [u8] {
        if self.ring.is_empty() {
            payload
        } else {
            &self.ring
        }
    }

    /// [`Self::staged`] as an owned buffer: the packet's own (refcounted)
    /// payload, or a copy out of the ring.
    pub fn staged_bytes(&self, payload: &Bytes) -> Bytes {
        if self.ring.is_empty() {
            payload.clone()
        } else {
            Bytes::copy_from_slice(&self.ring)
        }
    }

    /// The sending endpoint, named where the driver knows it: the node
    /// behind the sending NIC, the index from the wire header — whether or
    /// not that endpoint is still open.
    pub fn sender(&self, nics: &NicLayer, kind: TransportKind) -> Endpoint {
        Endpoint {
            kind,
            node: nics.get(self.link.1).node,
            idx: self.from,
        }
    }
}

/// A driver's incomplete messages, with the recycled buffers landing a
/// chunk needs: the scatter window, and idle staging rings (MX's receive
/// ring, GM's bounce pool; the pool settles at the number of messages
/// reassembling at once).
pub struct Reassembly<B> {
    map: IdHashMap<AssemblyKey, Assembly<B>>,
    rings: Vec<Vec<u8>>,
    window: Vec<PhysSeg>,
    /// Chunks of cancelled messages, counted and dropped.
    pub discarded: u64,
}

impl<B> Default for Reassembly<B> {
    fn default() -> Self {
        Reassembly {
            map: IdHashMap::default(),
            rings: Vec::new(),
            window: Vec::new(),
            discarded: 0,
        }
    }
}

impl<B: Posted> Reassembly<B> {
    /// The assembly `m`'s packet belongs to, out of the table while the
    /// chunk is processed. A first
    /// chunk begins one — capturing the first fitting buffer of `posted` —
    /// and returns `true`.
    #[inline]
    pub fn begin_or_resume(
        &mut self,
        m: &MsgHeader,
        link: (NicId, NicId),
        posted: &mut VecDeque<B>,
    ) -> (Assembly<B>, bool) {
        match self.resume(m) {
            Some(a) => (a, false),
            None => {
                let matched = first_fit(posted, m.tag, m.total);
                (Assembly::begin(m, link, matched), true)
            }
        }
    }

    /// The other half: after [`land`], an assembly still incomplete goes
    /// back into the table (a cancelled one whose remainder has all
    /// arrived is done with).
    pub fn put_back(&mut self, m: &MsgHeader, a: Assembly<B>) {
        if a.received < a.total {
            self.map.insert((m.dst, m.src, m.msg_id), a);
        }
    }

    /// An assembly already begun (or [`Self::commit`]ted), if any.
    pub fn resume(&mut self, m: &MsgHeader) -> Option<Assembly<B>> {
        // (Most messages arrive whole: nothing is reassembling, skip the hash.)
        if self.map.is_empty() {
            return None;
        }
        self.map.remove(&(m.dst, m.src, m.msg_id))
    }

    /// Begin an assembly ahead of its first chunk, committing `buf` to it
    /// (an accepted rendezvous).
    pub fn commit(&mut self, m: &MsgHeader, link: (NicId, NicId), buf: B) {
        let mut a = Assembly::begin(m, link, Some(buf));
        a.committed = true;
        self.map.insert((m.dst, m.src, m.msg_id), a);
    }

    /// Take back the buffer posted on endpoint `dst` with exactly `tag`
    /// from the incomplete message that captured it (not one it was
    /// committed to). The rest of that message is discarded as it arrives.
    pub fn cancel_captured(&mut self, dst: u32, tag: u64) -> Option<B> {
        let holds =
            |a: &Assembly<B>| !a.committed && a.matched.as_ref().is_some_and(|b| b.tag() == tag);
        let captor = self.map.iter().filter(|(k, a)| k.0 == dst && holds(a));
        let key = captor.map(|(k, _)| *k).min()?;
        let a = self.map.get_mut(&key)?;
        a.cancelled = true;
        let ring = std::mem::take(&mut a.ring);
        let buf = a.matched.take();
        self.recycle(ring);
        buf
    }

    /// Forget every incomplete message `gone(dst endpoint, link)` selects —
    /// an endpoint that closed, a `(local, remote)` link declared dead —
    /// and hand back `(dst endpoint, captured buffer)`, newest message
    /// first, so pushing each to the front of its posted queue restores
    /// capture order. (Key order: sharded runs stay bit-identical.)
    pub fn abandon(&mut self, gone: impl Fn(u32, (NicId, NicId)) -> bool) -> Vec<(u32, B)> {
        let doomed = self.map.iter().filter(|(k, a)| gone(k.0, a.link));
        let mut keys: Vec<AssemblyKey> = doomed.map(|(k, _)| *k).collect();
        keys.sort_unstable_by(|a, b| b.cmp(a));
        let mut captured = Vec::new();
        for key in keys {
            let a = self.map.remove(&key).expect("key just listed");
            self.recycle(a.ring);
            captured.extend(a.matched.map(|b| (key.0, b)));
        }
        captured
    }
}

impl<B> Reassembly<B> {
    /// A ring goes back to the pool (one that never held anything is
    /// simply dropped).
    fn recycle(&mut self, mut ring: Vec<u8>) {
        if ring.capacity() > 0 {
            ring.clear();
            self.rings.push(ring);
        }
    }

    /// Done with a completed assembly.
    pub fn finish(&mut self, a: Assembly<B>) {
        self.recycle(a.ring);
    }

    /// Messages still reassembling (cancelled remainders not counted).
    pub fn incomplete(&self) -> usize {
        self.map.values().filter(|a| !a.cancelled).count()
    }

    /// Records the table can hold before it grows, and rings idle in the
    /// pool: both flat in steady state (`tests/hotpath_alloc.rs`).
    pub fn footprint(&self) -> (usize, usize) {
        (self.map.capacity(), self.rings.len())
    }
}

/// Land `pkt` (header `m`), the next chunk of `a`, at its destination NIC no
/// earlier than `fw_done`. `direct` names the segments of the matched buffer
/// to scatter into; when it declines — or nothing matched — the chunk is
/// staged in a pooled ring (at its offset: chunks land in any order), except
/// that a message arriving whole in this one chunk stays in its packet and
/// borrows nothing. Returns whether the message is now complete and the
/// driver's to finish; otherwise `a` goes back ([`Reassembly::put_back`]).
#[inline]
pub fn land<W: NicWorld, B>(
    w: &mut W,
    table: impl Fn(&mut W) -> &mut Reassembly<B>,
    a: &mut Assembly<B>,
    (m, pkt): (&MsgHeader, &Packet),
    fw_done: SimTime,
    direct: impl FnOnce(&B) -> Option<&[PhysSeg]>,
) -> bool {
    let len = pkt.payload.len() as u64;
    if a.cancelled {
        table(w).discarded += 1;
    } else {
        let dma_done = match a.matched.as_ref().and_then(direct) {
            Some(segs) => {
                let mut window = std::mem::take(&mut table(w).window);
                seg_window_into(segs, m.offset, len, &mut window);
                let t = dma_scatter(w, pkt.dst, fw_done, &window, &pkt.payload).unwrap_or(fw_done);
                table(w).window = window;
                t
            }
            None => {
                if a.received == 0 && len < a.total {
                    a.ring = table(w).rings.pop().unwrap_or_default();
                }
                if a.received > 0 || len < a.total {
                    let (at, end) = (m.offset as usize, m.offset as usize + pkt.payload.len());
                    if a.ring.len() < end {
                        a.ring.resize(end, 0);
                    }
                    a.ring[at..end].copy_from_slice(&pkt.payload);
                }
                dma_charge(w, pkt.dst, fw_done, len)
            }
        };
        a.last_dma_done = a.last_dma_done.max(dma_done);
    }
    a.received += len;
    a.received >= a.total && !a.cancelled
}

/// The host spends `cost` on a completion that reaches it at `ready` (its
/// record's DMA, the last data fetch). Returns when the event is due.
pub fn host_completion<W: NicWorld>(
    w: &mut W,
    node: NodeId,
    ready: SimTime,
    cost: SimTime,
) -> SimTime {
    let start = ready.max(knet_simcore::now(w));
    w.os_mut().node_mut(node).cpu.busy.acquire(start, cost).1
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Buf(u64, u64);
    impl Posted for Buf {
        fn tag(&self) -> u64 {
            self.0
        }
        fn capacity(&self) -> u64 {
            self.1
        }
    }

    #[test]
    fn first_fit_takes_the_oldest_buffer_that_accepts_tag_and_size() {
        let mut q: VecDeque<Buf> = [Buf(7, 64), Buf(ANY_TAG, 4096), Buf(7, 4096), Buf(9, 4096)]
            .into_iter()
            .collect();
        // Tag 7, too big for the first buffer: the wildcard is next in line.
        assert!(matches!(
            first_fit(&mut q, 7, 100),
            Some(Buf(ANY_TAG, 4096))
        ));
        assert!(matches!(first_fit(&mut q, 7, 100), Some(Buf(7, 4096))));
        assert!(
            first_fit(&mut q, 7, 100).is_none(),
            "only the 64-byte one is left"
        );
        assert!(first_fit(&mut q, 8, 1).is_none(), "no tag 8, no wildcard");
        // Cancel is by exact tag: a wildcard is withdrawn only by name.
        assert!(take_tag(&mut q, ANY_TAG).is_none());
        assert!(matches!(take_tag(&mut q, 9), Some(Buf(9, 4096))));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn a_captured_buffer_is_found_by_cancel_abandon_and_nothing_else() {
        let hdr = |src, msg_id| MsgHeader::new(3, src, 7, msg_id, 0, 8192);
        let link = (NicId(1), NicId(0));
        let mut t: Reassembly<Buf> = Reassembly::default();
        let mut posted: VecDeque<Buf> = [Buf(7, 8192), Buf(7, 8192)].into_iter().collect();
        for msg_id in [5, 4] {
            let (a, first) = t.begin_or_resume(&hdr(0, msg_id), link, &mut posted);
            assert!(first && a.matched.is_some());
            t.put_back(&hdr(0, msg_id), a);
        }
        t.commit(&hdr(1, 1), link, Buf(7, 8192));
        assert!(posted.is_empty(), "both captured");
        assert_eq!(t.incomplete(), 3);
        assert!(t.cancel_captured(2, 7).is_none(), "another endpoint's");
        assert!(t.cancel_captured(3, 8).is_none(), "another tag");
        // Cancel takes the oldest message's buffer and leaves a tombstone
        // that a later chunk resumes instead of matching afresh.
        assert!(t.cancel_captured(3, 7).is_some());
        assert_eq!((t.incomplete(), t.map.len()), (2, 3));
        assert!(t.map[&(3, 0, 4)].cancelled && !t.map[&(3, 0, 5)].cancelled);
        let (resumed, first) = t.begin_or_resume(&hdr(0, 4), link, &mut posted);
        assert!(!first && resumed.cancelled && resumed.matched.is_none());
        // Then the other eager message's; never the committed one.
        assert!(t.cancel_captured(3, 7).is_some());
        assert!(t.cancel_captured(3, 7).is_none());
        // Peer death on another link touches nothing; on this one it hands
        // the committed buffer back with its endpoint and clears the table.
        assert!(t.abandon(|_, l| l == (NicId(1), NicId(2))).is_empty());
        let back = t.abandon(|_, l| l == link);
        assert!(matches!(back[..], [(3, Buf(7, 8192))]));
        assert_eq!(t.map.len(), 0);
    }
}
