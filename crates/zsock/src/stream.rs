//! Zero-copy stream sockets over the kernel network API.
//!
//! SOCKETS-GM and SOCKETS-MX (§5.3) "allow existing applications in binary
//! format to benefit from the high-speed Myrinet network when using TCP/IP
//! socket function calls": a new socket protocol passes data directly onto
//! the network, bypassing TCP/IP.
//!
//! The socket layer is a **channel consumer**: each socket opens a
//! handler-backed channel ([`knet_core::channel_connect_handler`]) over its
//! endpoint pair and moves every message through
//! `channel_send`/`channel_post_recv`/`channel_cancel_recv` — batching,
//! GM coalescing of vectored frames, and send backpressure all live in the
//! channel layer, not here.
//!
//! Wire protocol per message: a 16-byte header (sequence, length); payloads
//! up to the inline threshold ride behind the header in the *same* message
//! as a two-segment io-vector (coalesced by the channel on GM, vectored
//! natively on MX), larger payloads follow as a separate tagged message.
//! When the reader has already blocked in `recv` with a large-enough
//! buffer, the payload is steered **zero-copy** into user memory (the
//! transport pins/registers as its driver requires); otherwise it lands in
//! a kernel socket buffer and is copied out on the next `recv`. Kernel
//! staging comes from a per-socket ring of tracked extents; a payload the
//! ring cannot hold (oversized, or every byte in flight) falls back to a
//! dedicated kernel allocation freed when the bytes land — staging never
//! overwrites in-flight data and never writes past the ring.
//!
//! The SOCKETS-GM peculiarity the paper measures — "limited completion
//! notification mechanisms in GM require the use of an extra (dispatching)
//! kernel thread which increases the latency" — is charged on every event
//! that reaches a GM-backed socket.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use knet_core::api::{
    channel_cancel_recv, channel_close, channel_connect_handler, channel_post_recv, channel_send,
    release_kernel_buffer,
};
use knet_core::wire::{Dec, Enc};
use knet_core::{
    ChannelId, Endpoint, IoVec, MemRef, NetError, SendMap, TransportEvent, TransportKind,
};
use knet_simos::{cpu_charge, Asid, VirtAddr};

use crate::params::{GM_DISPATCH_SWITCHES, GM_INTERRUPT, INLINE_MAX_GM, INLINE_MAX_MX, SOCK_LAYER};

/// Identifier of one socket endpoint.
///
/// Generation-tagged: the low [`SOCK_SLOT_BITS`] bits index the layer's
/// slot table, the high bits carry the slot's generation, bumped on every
/// [`sock_close`]. A close-heavy workload therefore never aliases a stale
/// id onto a recycled slot — the stale id simply stops resolving
/// (regression-tested in `tests/zsock_regressions.rs`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SockId(pub u32);

/// Bits of a [`SockId`] that index the slot table (65 536 concurrent
/// sockets; the remaining 16 bits are the generation).
pub const SOCK_SLOT_BITS: u32 = 16;

impl SockId {
    fn slot(self) -> usize {
        (self.0 & ((1 << SOCK_SLOT_BITS) - 1)) as usize
    }

    fn generation(self) -> u32 {
        self.0 >> SOCK_SLOT_BITS
    }

    fn encode(slot: usize, generation: u32) -> Self {
        assert!(slot < (1 << SOCK_SLOT_BITS), "socket slot table full");
        SockId(((generation & 0xFFFF) << SOCK_SLOT_BITS) | slot as u32)
    }
}

/// Identifier of an in-flight socket operation.
pub type SockOpId = u64;

/// Result of a socket operation: bytes moved.
pub type SockResult = Result<u64, NetError>;

const TAG_HDR_BASE: u64 = 1 << 62;
const TAG_DATA_BASE: u64 = 2 << 62;

/// Per-socket counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SockStats {
    pub sends: u64,
    pub recvs: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub zero_copy_receives: u64,
    pub buffered_receives: u64,
    pub dispatch_wakeups: u64,
    /// Staging requests the ring could not hold (oversized payload or ring
    /// exhausted) served by a dedicated kernel allocation instead.
    pub oversize_allocs: u64,
}

/// A staging reservation: a tracked extent of the socket ring, or a
/// dedicated kernel allocation when the ring cannot hold the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SockBuf {
    Ring { off: u64, len: u64 },
    Heap { addr: VirtAddr, len: u64 },
}

impl SockBuf {
    fn len(&self) -> u64 {
        match *self {
            SockBuf::Ring { len, .. } | SockBuf::Heap { len, .. } => len,
        }
    }
}

/// What a send completion releases and reports.
#[derive(Debug)]
struct TxDone {
    /// The socket op to complete (`None` for header-only frames).
    op: Option<SockOpId>,
    /// Staging to release (header bytes, GM payload copies).
    buf: Option<SockBuf>,
}

/// How an in-flight inbound message will land.
#[derive(Debug)]
enum Inbound {
    /// Steered into a blocked reader's buffer (zero-copy). `dst` is kept so
    /// a payload that overtakes the posted descriptor can still be copied
    /// in.
    Direct { op: SockOpId, len: u64, dst: MemRef },
    /// Landing in kernel staging (ring extent or dedicated allocation).
    ToRing { buf: SockBuf },
}

/// A pending blocked `recv`.
#[derive(Clone, Copy, Debug)]
struct PendingRecv {
    op: SockOpId,
    dst: MemRef,
}

/// One socket endpoint.
pub struct Sock {
    pub id: SockId,
    pub ep: Endpoint,
    pub peer_ep: Endpoint,
    /// Outbound sequence counter.
    tx_seq: u64,
    /// Next inbound sequence to deliver (stream order).
    rx_next: u64,
    /// In-flight inbound messages by sequence.
    inbound: BTreeMap<u64, Inbound>,
    /// Landed but out-of-order segments awaiting their predecessors.
    reorder: BTreeMap<u64, Bytes>,
    /// Sequences whose payload arrived before their header.
    arrived_early: std::collections::BTreeSet<u64>,
    /// Reassembled, in-order bytes waiting for a reader.
    rx_buf: VecDeque<Bytes>,
    rx_buffered: u64,
    /// Readers blocked in `recv`.
    waiting: VecDeque<PendingRecv>,
    /// Kernel socket buffer ring.
    ring: VirtAddr,
    ring_len: u64,
    /// Next-fit cursor into the ring.
    ring_off: u64,
    /// Live ring extents (`offset → len`), so a reservation never
    /// overwrites bytes still in flight.
    ring_live: BTreeMap<u64, u64>,
    /// In-flight sends → what each completion releases and reports.
    tx: SendMap<TxDone>,
    next_op: u64,
    /// Set when a frame was lost (a send failed after its sequence number
    /// was committed): the stream can never be whole again, so the socket
    /// is poisoned and every subsequent op fails fast with this error.
    error: Option<NetError>,
    /// Completed operations for the driver.
    pub completed: VecDeque<(SockOpId, SockResult)>,
    pub stats: SockStats,
}

impl Sock {
    /// First free ring offset `>= start` with room for `len` bytes, walking
    /// the live extents (which are sorted and disjoint).
    fn fit_from(&self, start: u64, len: u64) -> Option<u64> {
        let mut pos = start;
        for (&off, &l) in &self.ring_live {
            let end = off + l;
            if end <= pos {
                continue;
            }
            if off >= pos + len {
                break; // the gap before this extent fits
            }
            pos = end;
        }
        (pos + len <= self.ring_len).then_some(pos)
    }

    /// Reserve `len` bytes of the ring, next-fit with wrap-around. Returns
    /// `None` when the ring cannot hold the reservation — the caller falls
    /// back to a dedicated allocation; in-flight ring data is never
    /// overwritten and nothing is ever written past the ring.
    fn ring_reserve(&mut self, len: u64) -> Option<SockBuf> {
        if len > self.ring_len {
            return None;
        }
        let off = self
            .fit_from(self.ring_off, len)
            .or_else(|| self.fit_from(0, len))?;
        self.ring_live.insert(off, len);
        self.ring_off = (off + len) % self.ring_len;
        Some(SockBuf::Ring { off, len })
    }

    fn ring_release(&mut self, off: u64) {
        self.ring_live.remove(&off);
    }

    /// Kernel-virtual address of a staging reservation.
    fn addr_of(&self, buf: SockBuf) -> VirtAddr {
        match buf {
            SockBuf::Ring { off, .. } => self.ring.add(off),
            SockBuf::Heap { addr, .. } => addr,
        }
    }

    /// Bytes currently buffered in the kernel (not yet consumed).
    pub fn buffered(&self) -> u64 {
        self.rx_buffered
    }

    /// The error that poisoned this socket, if a send ever failed after
    /// its sequence number was committed to the stream.
    pub fn error(&self) -> Option<NetError> {
        self.error
    }
}

/// All sockets in the world: a slab of slots with a free list and
/// per-slot generations (see [`SockId`]).
#[derive(Default)]
pub struct ZsockLayer {
    socks: Vec<Option<Sock>>,
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl ZsockLayer {
    /// Resolve a socket id, `None` when stale (closed, or the slot was
    /// recycled by a later [`sock_create`]).
    pub fn try_sock(&self, id: SockId) -> Option<&Sock> {
        let slot = id.slot();
        if self.gens.get(slot).copied()? & 0xFFFF != id.generation() {
            return None;
        }
        self.socks.get(slot)?.as_ref()
    }

    fn try_sock_mut(&mut self, id: SockId) -> Option<&mut Sock> {
        let slot = id.slot();
        if self.gens.get(slot).copied()? & 0xFFFF != id.generation() {
            return None;
        }
        self.socks.get_mut(slot)?.as_mut()
    }

    pub fn sock(&self, id: SockId) -> &Sock {
        self.try_sock(id).expect("stale or closed SockId")
    }

    pub fn sock_mut(&mut self, id: SockId) -> &mut Sock {
        self.try_sock_mut(id).expect("stale or closed SockId")
    }

    /// Live (open) sockets.
    pub fn count(&self) -> usize {
        self.socks.iter().flatten().count()
    }
}

/// Capability trait: a world with the socket layer.
pub trait ZsockWorld: knet_core::DispatchWorld {
    fn zsock(&self) -> &ZsockLayer;
    fn zsock_mut(&mut self) -> &mut ZsockLayer;
}

const SOCK_RING: u64 = 4 << 20;

/// Virtual-time grace between [`sock_close`] and the release of the
/// socket's staging memory (see the deferred free in `sock_close`).
const SOCK_CLOSE_GRACE: knet_simcore::SimTime = knet_simcore::SimTime::from_millis(50);

/// The channel carrying this socket's traffic.
fn chan<W: ZsockWorld>(w: &W, sid: SockId) -> ChannelId {
    w.registry()
        .channel_of(w.zsock().sock(sid).ep)
        .expect("socket endpoint owns a channel")
}

/// Reserve `len` bytes of kernel staging: from the socket ring when it
/// fits, otherwise (oversized payload, or every ring byte in flight) a
/// dedicated kernel allocation released with the reservation.
fn stage_alloc<W: ZsockWorld>(w: &mut W, sid: SockId, len: u64) -> Result<SockBuf, NetError> {
    let want = len.max(1);
    if let Some(buf) = w.zsock_mut().sock_mut(sid).ring_reserve(want) {
        return Ok(buf);
    }
    let node = w.zsock().sock(sid).ep.node;
    let addr = w.os_mut().node_mut(node).kalloc(want)?;
    w.zsock_mut().sock_mut(sid).stats.oversize_allocs += 1;
    Ok(SockBuf::Heap { addr, len: want })
}

/// Release a staging reservation (ring extent or dedicated allocation).
fn stage_release<W: ZsockWorld>(w: &mut W, sid: SockId, buf: SockBuf) {
    match buf {
        SockBuf::Ring { off, .. } => w.zsock_mut().sock_mut(sid).ring_release(off),
        SockBuf::Heap { addr, len } => {
            let node = w.zsock().sock(sid).ep.node;
            release_kernel_buffer(w, node, addr, len);
        }
    }
}

/// Create one socket endpoint bound to transport endpoint `ep`, already
/// connected to `peer_ep` (the benchmarks connect explicit pairs, as
/// NETPIPE does). The socket attaches to the API as a handler-backed
/// channel: all of its sends and posted receives go through the channel.
pub fn sock_create<W: ZsockWorld>(
    w: &mut W,
    ep: Endpoint,
    peer_ep: Endpoint,
) -> Result<SockId, NetError> {
    let ring = w.os_mut().node_mut(ep.node).kalloc(SOCK_RING)?;
    let id = {
        let l = w.zsock_mut();
        let slot = match l.free.pop() {
            Some(s) => s as usize,
            None => {
                l.socks.push(None);
                l.gens.push(0);
                l.socks.len() - 1
            }
        };
        SockId::encode(slot, l.gens[slot] & 0xFFFF)
    };
    let sock = Sock {
        id,
        ep,
        peer_ep,
        tx_seq: 0,
        rx_next: 0,
        inbound: BTreeMap::new(),
        reorder: BTreeMap::new(),
        arrived_early: std::collections::BTreeSet::new(),
        rx_buf: VecDeque::new(),
        rx_buffered: 0,
        waiting: VecDeque::new(),
        ring,
        ring_len: SOCK_RING,
        ring_off: 0,
        ring_live: BTreeMap::new(),
        tx: SendMap::default(),
        next_op: 1,
        error: None,
        completed: VecDeque::new(),
        stats: SockStats::default(),
    };
    w.zsock_mut().socks[id.slot()] = Some(sock);
    channel_connect_handler(
        w,
        ep,
        peer_ep,
        &format!("zsock-{}", id.0),
        move |w, _via, ev| sock_on_event(w, id, ev),
    );
    Ok(id)
}

/// Close a socket: tear its channel down (backpressure-queued frames
/// complete as `SendFailed` while the handler is still bound), release
/// every staging reservation still referenced by in-flight state, free the
/// ring, and recycle the slot under a bumped generation — the closed
/// [`SockId`] stops resolving and can never alias a later socket.
/// Closing a stale id is a no-op.
pub fn sock_close<W: ZsockWorld>(w: &mut W, sid: SockId) {
    let Some(ep) = w.zsock().try_sock(sid).map(|s| s.ep) else {
        return;
    };
    // Withdraw the posted receives of in-flight inbound payloads *before*
    // the channel (and then the staging memory) goes away: a payload
    // landing after the ring is freed would scatter into recycled kernel
    // memory.
    let pending_tags: Vec<u64> = w
        .zsock()
        .try_sock(sid)
        .map(|s| s.inbound.keys().map(|seq| TAG_DATA_BASE + seq).collect())
        .unwrap_or_default();
    // Channel teardown next: SendFailed completions for queued frames
    // reach the handler while the socket still exists.
    if let Some(ch) = w.registry().channel_of(ep) {
        for tag in pending_tags {
            channel_cancel_recv(w, ch, tag);
        }
        channel_close(w, ch);
    }
    let Some(sock) = w.zsock_mut().socks[sid.slot()].take() else {
        return;
    };
    let node = sock.ep.node;
    // Dedicated heap staging still in flight dies with the socket.
    let mut heaps: Vec<(VirtAddr, u64)> = Vec::new();
    for done in sock.tx.values() {
        if let Some(SockBuf::Heap { addr, len }) = done.buf {
            heaps.push((addr, len));
        }
    }
    for inbound in sock.inbound.values() {
        if let Inbound::ToRing {
            buf: SockBuf::Heap { addr, len },
        } = inbound
        {
            heaps.push((*addr, *len));
        }
    }
    // Release the staging memory only after a grace period: a receive an
    // accepted rendezvous was committed to is *consumed*, not pending
    // (`t_cancel_recv`'s contract), and the driver keeps scattering chunks
    // into these frames at later instants — an immediate free would let a subsequent
    // kalloc reuse them under the incoming DMA. Slot generations protect
    // the SockId, not the frames; the deferred free does. The grace bound
    // comfortably exceeds the reliability layer's worst case (retry budget
    // × rto plus a full window's wire time), and virtual time is free.
    let ring = sock.ring;
    let ring_len = sock.ring_len;
    knet_simcore::call_after(w, node.0, SOCK_CLOSE_GRACE, move |w: &mut W| {
        for (addr, len) in heaps {
            release_kernel_buffer(w, node, addr, len);
        }
        release_kernel_buffer(w, node, ring, ring_len);
    });
    let l = w.zsock_mut();
    l.gens[sid.slot()] = l.gens[sid.slot()].wrapping_add(1);
    l.free.push(sid.slot() as u32);
}

/// Charge the entry cost of a socket call (syscall + socket layer).
fn charge_call<W: ZsockWorld>(w: &mut W, sid: SockId) {
    let node = w.zsock().sock(sid).ep.node;
    let cost = w.os().node(node).cpu.model.syscall + SOCK_LAYER;
    cpu_charge(w, node, cost);
}

/// Record an accepted channel send so its `SendDone` releases staging and
/// completes the right op; on submission failure, release immediately and
/// surface the error on `op`.
fn track_send<W: ZsockWorld>(
    w: &mut W,
    sid: SockId,
    sent: Result<u64, NetError>,
    op: Option<SockOpId>,
    buf: Option<SockBuf>,
) {
    match sent {
        Ok(ctx) => {
            let s = w.zsock_mut().sock_mut(sid);
            s.tx.insert(ctx, TxDone { op, buf });
        }
        Err(e) => {
            if let Some(buf) = buf {
                stage_release(w, sid, buf);
            }
            poison(w, sid, e, op);
        }
    }
}

/// A frame was lost after its sequence number was committed — the peer can
/// never reassemble the stream past it. Fail loudly: complete `op`, every
/// reader already parked in `waiting`, and every later op with the error,
/// instead of letting anyone stall.
fn poison<W: ZsockWorld>(w: &mut W, sid: SockId, e: NetError, op: Option<SockOpId>) {
    let s = w.zsock_mut().sock_mut(sid);
    s.error.get_or_insert(e);
    if let Some(op) = op {
        s.completed.push_back((op, Err(e)));
    }
    while let Some(p) = s.waiting.pop_front() {
        s.completed.push_back((p.op, Err(e)));
    }
}

/// Fail an op immediately when the socket is already poisoned. Returns the
/// op id to hand back when it fired.
fn fail_fast_if_poisoned<W: ZsockWorld>(w: &mut W, sid: SockId) -> Option<SockOpId> {
    let s = w.zsock_mut().sock_mut(sid);
    let e = s.error?;
    let op = s.next_op;
    s.next_op += 1;
    s.completed.push_back((op, Err(e)));
    Some(op)
}

/// `send(fd, buf)`: frame and transmit; completes when the transport
/// releases the buffer.
///
/// Protocol shape per backend (what the paper's two implementations did):
/// * payloads up to the inline threshold ride behind the header in one
///   two-segment message — vectored natively on MX, gathered through the
///   channel staging buffer on GM (one accounted memcpy);
/// * larger payloads follow as a separate zero-copy message on MX, while
///   GM copies them into pre-registered kernel staging first — Sockets-GM
///   dodged its "memory registration problems" with copies (§5.3), which
///   is also why it cannot reach the link rate.
pub fn sock_send<W: ZsockWorld>(w: &mut W, sid: SockId, src: MemRef) -> SockOpId {
    charge_call(w, sid);
    if let Some(op) = fail_fast_if_poisoned(w, sid) {
        return op;
    }
    let len = src.len();
    let (op, seq, ep, node) = {
        let s = w.zsock_mut().sock_mut(sid);
        let op = s.next_op;
        s.next_op += 1;
        let seq = s.tx_seq;
        s.tx_seq += 1;
        s.stats.sends += 1;
        s.stats.bytes_sent += len;
        (op, seq, s.ep, s.ep.node)
    };
    let ch = chan(w, sid);
    let inline_max = match ep.kind {
        TransportKind::Mx => INLINE_MAX_MX,
        TransportKind::Gm => INLINE_MAX_GM,
    };
    // Header: [seq, len] little-endian, staged through the ring.
    let mut hdr = Vec::with_capacity(16);
    Enc::new(&mut hdr).u64(seq).u64(len);
    let hbuf = match stage_alloc(w, sid, 16) {
        Ok(b) => b,
        Err(e) => {
            // seq was already committed: the stream has a permanent hole.
            poison(w, sid, e, Some(op));
            return op;
        }
    };
    let hdr_addr = w.zsock().sock(sid).addr_of(hbuf);
    w.os_mut()
        .node_mut(node)
        .write_virt(Asid::KERNEL, hdr_addr, &hdr)
        .expect("sock staging mapped");

    if len <= inline_max {
        // One message: header ++ payload as a two-segment io-vector. The
        // channel coalesces it on GM; MX takes the vector as-is.
        let mut iov = IoVec::new();
        iov.push(MemRef::kernel(hdr_addr, 16));
        iov.push(src);
        let sent = channel_send(w, ch, TAG_HDR_BASE + seq, iov);
        track_send(w, sid, sent, Some(op), Some(hbuf));
        return op;
    }

    // Header first, then the bulk payload.
    let sent = channel_send(
        w,
        ch,
        TAG_HDR_BASE + seq,
        IoVec::single(MemRef::kernel(hdr_addr, 16)),
    );
    track_send(w, sid, sent, None, Some(hbuf));
    let (data_src, dbuf) = match ep.kind {
        TransportKind::Mx => (src, None),
        TransportKind::Gm => {
            // Copy into pre-registered kernel staging; send from there.
            let buf = match stage_alloc(w, sid, len) {
                Ok(b) => b,
                Err(e) => {
                    // The header announcing seq is already out but its data
                    // can never follow: the stream is dead.
                    poison(w, sid, e, Some(op));
                    return op;
                }
            };
            let addr = w.zsock().sock(sid).addr_of(buf);
            let data =
                knet_core::read_iovec(w.os().node(node), &IoVec::single(src)).unwrap_or_default();
            w.os_mut()
                .node_mut(node)
                .write_virt(Asid::KERNEL, addr, &data)
                .expect("sock staging mapped");
            let copy = w.os().node(node).cpu.model.ring_copy_cost(len);
            cpu_charge(w, node, copy);
            (MemRef::kernel(addr, len), Some(buf))
        }
    };
    let sent = channel_send(w, ch, TAG_DATA_BASE + seq, IoVec::single(data_src));
    track_send(w, sid, sent, Some(op), dbuf);
    op
}

/// `recv(fd, buf)`: completes with up to `dst.len()` bytes (stream
/// semantics: any in-order buffered bytes satisfy it immediately).
pub fn sock_recv<W: ZsockWorld>(w: &mut W, sid: SockId, dst: MemRef) -> SockOpId {
    charge_call(w, sid);
    if let Some(op) = fail_fast_if_poisoned(w, sid) {
        return op;
    }
    let op = {
        let s = w.zsock_mut().sock_mut(sid);
        let op = s.next_op;
        s.next_op += 1;
        s.stats.recvs += 1;
        s.waiting.push_back(PendingRecv { op, dst });
        op
    };
    drain_rx(w, sid);
    op
}

/// Move buffered bytes into waiting readers (kernel → user copies).
fn drain_rx<W: ZsockWorld>(w: &mut W, sid: SockId) {
    loop {
        let node = w.zsock().sock(sid).ep.node;
        let (pending, available) = {
            let s = w.zsock().sock(sid);
            (s.waiting.front().copied(), s.rx_buffered)
        };
        let Some(p) = pending else { return };
        if available == 0 {
            return;
        }
        // Copy up to the buffer size from the head of the stream.
        let want = p.dst.len().min(available);
        let mut out: Vec<u8> = Vec::with_capacity(want as usize);
        {
            let s = w.zsock_mut().sock_mut(sid);
            while (out.len() as u64) < want {
                let need = want - out.len() as u64;
                let chunk = s.rx_buf.front_mut().expect("buffered bytes exist");
                if (chunk.len() as u64) <= need {
                    out.extend_from_slice(chunk);
                    s.rx_buf.pop_front();
                } else {
                    out.extend_from_slice(&chunk[..need as usize]);
                    *chunk = chunk.slice(need as usize..);
                }
            }
            s.rx_buffered -= want;
            s.waiting.pop_front();
            s.stats.buffered_receives += 1;
            s.stats.bytes_received += want;
        }
        // Functional copy into the destination + memcpy charge.
        knet_core::write_iovec(w.os_mut().node_mut(node), &IoVec::single(p.dst), &out).ok();
        let copy = w.os().node(node).cpu.model.memcpy_cost(want);
        cpu_charge(w, node, copy);
        let s = w.zsock_mut().sock_mut(sid);
        s.completed.push_back((p.op, Ok(want)));
    }
}

/// Transport upcall for socket `sid` (delivered through its channel's
/// handler consumer).
pub fn sock_on_event<W: ZsockWorld>(w: &mut W, sid: SockId, ev: TransportEvent) {
    // A completion can race a close (e.g. teardown-time SendFailed replay
    // ordering): a stale socket id is simply ignored.
    let Some((node, kind)) = w.zsock().try_sock(sid).map(|s| (s.ep.node, s.ep.kind)) else {
        return;
    };
    if let TransportEvent::PeerDown { .. } = ev {
        // The driver's reliability window declared the peer dead: the
        // stream can never be whole again. Fail every parked reader and
        // all future ops instead of stalling.
        poison(w, sid, NetError::PeerUnreachable, None);
        return;
    }
    // The SOCKETS-GM dispatcher thread: every completion is picked up by an
    // extra kernel thread before the socket layer sees it.
    if kind == TransportKind::Gm {
        let cost = w.os().node(node).cpu.model.ctx_switch * GM_DISPATCH_SWITCHES + GM_INTERRUPT;
        cpu_charge(w, node, cost);
        w.zsock_mut().sock_mut(sid).stats.dispatch_wakeups += 1;
    }
    match ev {
        TransportEvent::Unexpected { tag, data, .. }
            if (TAG_HDR_BASE..TAG_DATA_BASE).contains(&tag) =>
        {
            // A stream header, possibly with the payload inline.
            let mut d = Dec::new(&data);
            let (Ok(seq), Ok(len)) = (d.u64(), d.u64()) else {
                return;
            };
            // `len` comes off the wire: compare the rest of the frame with
            // it, never `16 + len`, which a hostile length overflows.
            if d.rest().len() as u64 == len {
                // Inline payload: consume directly.
                accept_in_order(w, sid, seq, data.slice(d.pos()..));
                drain_rx(w, sid);
            } else {
                on_header(w, sid, seq, len);
            }
        }
        TransportEvent::Unexpected { tag, data, .. } if tag >= TAG_DATA_BASE => {
            // The payload overtook its descriptor: the wire delivered it
            // before the host finished processing the header (or before the
            // header itself). Withdraw any now-useless posted receive and
            // land the bytes by copy.
            let seq = tag - TAG_DATA_BASE;
            let ch = chan(w, sid);
            let inbound = w.zsock_mut().sock_mut(sid).inbound.remove(&seq);
            match inbound {
                Some(Inbound::Direct { op, len, dst }) => {
                    channel_cancel_recv(w, ch, TAG_DATA_BASE + seq);
                    let n = (data.len() as u64).min(len);
                    knet_core::write_iovec(w.os_mut().node_mut(node), &IoVec::single(dst), &data)
                        .ok();
                    let copy = w.os().node(node).cpu.model.memcpy_cost(n);
                    cpu_charge(w, node, copy);
                    {
                        let s = w.zsock_mut().sock_mut(sid);
                        s.rx_next = s.rx_next.max(seq + 1);
                        s.stats.buffered_receives += 1;
                        s.stats.bytes_received += n;
                        s.completed.push_back((op, Ok(n)));
                        // The consumed sequence may unblock successors
                        // already parked out of order.
                        promote_reorder(s);
                    }
                    drain_rx(w, sid);
                }
                Some(Inbound::ToRing { buf }) => {
                    channel_cancel_recv(w, ch, TAG_DATA_BASE + seq);
                    stage_release(w, sid, buf);
                    accept_in_order(w, sid, seq, data);
                    drain_rx(w, sid);
                }
                None => {
                    // Payload before header: remember so the header does not
                    // post a receive for data that already landed.
                    w.zsock_mut().sock_mut(sid).arrived_early.insert(seq);
                    accept_in_order(w, sid, seq, data);
                    drain_rx(w, sid);
                }
            }
        }
        TransportEvent::RecvDone { tag, len, .. } if tag >= TAG_DATA_BASE => {
            on_data_landed(w, sid, tag - TAG_DATA_BASE, len);
        }
        TransportEvent::SendDone { ctx } => {
            let done = w.zsock_mut().sock_mut(sid).tx.take(ctx);
            if let Some(t) = done {
                if let Some(buf) = t.buf {
                    stage_release(w, sid, buf);
                }
                if let Some(op) = t.op {
                    let s = w.zsock_mut().sock_mut(sid);
                    s.completed.push_back((op, Ok(0)));
                }
            }
        }
        TransportEvent::SendFailed { ctx, error } => {
            // A backpressure-queued frame was dropped by its retry: the
            // stream has a hole the peer can never fill. Release the
            // staging, fail the op, poison the socket.
            let done = w.zsock_mut().sock_mut(sid).tx.take(ctx);
            if let Some(t) = done {
                if let Some(buf) = t.buf {
                    stage_release(w, sid, buf);
                }
                poison(w, sid, error, t.op);
            } else {
                poison(w, sid, error, None);
            }
        }
        TransportEvent::RecvDone { .. } | TransportEvent::Unexpected { .. } => {}
        // Streams never join collective groups.
        TransportEvent::CollectiveDone { .. }
        | TransportEvent::CollectiveRecv { .. }
        | TransportEvent::CollectiveFailed { .. } => {}
        TransportEvent::PeerDown { .. } => unreachable!("handled before the dispatcher charge"),
    }
}

/// A header announced `len` bytes with sequence `seq`: decide where the
/// payload will land and post the receive on the channel.
fn on_header<W: ZsockWorld>(w: &mut W, sid: SockId, seq: u64, len: u64) {
    // If the payload already landed (it overtook the header), there is
    // nothing to post.
    if w.zsock_mut().sock_mut(sid).arrived_early.remove(&seq) {
        return;
    }
    let ch = chan(w, sid);
    let can_direct = {
        let s = w.zsock().sock(sid);
        let in_order = seq == s.rx_next && s.rx_buffered == 0 && s.inbound.is_empty();
        let fits = s
            .waiting
            .front()
            .map(|p| p.dst.len() >= len)
            .unwrap_or(false);
        // Sockets-GM never steers into user buffers (registration trouble);
        // everything lands in the ring and is copied out.
        let steer = s.ep.kind == TransportKind::Mx;
        steer && in_order && fits
    };
    if can_direct {
        // Zero-copy: steer into the blocked reader's buffer.
        let p = {
            let s = w.zsock_mut().sock_mut(sid);
            s.waiting.pop_front().expect("checked")
        };
        let dst = p.dst.sub_range(0, len);
        let _ = channel_post_recv(w, ch, TAG_DATA_BASE + seq, IoVec::single(dst));
        let s = w.zsock_mut().sock_mut(sid);
        s.inbound
            .insert(seq, Inbound::Direct { op: p.op, len, dst });
    } else {
        // Kernel staging path (ring extent, or a dedicated allocation for
        // payloads the ring cannot hold). An allocation failure means the
        // announced frame can never land: the stream is dead — poison the
        // socket (failing any parked readers) rather than crash or stall.
        let buf = match stage_alloc(w, sid, len) {
            Ok(b) => b,
            Err(e) => {
                poison(w, sid, e, None);
                return;
            }
        };
        let addr = w.zsock().sock(sid).addr_of(buf);
        let _ = channel_post_recv(
            w,
            ch,
            TAG_DATA_BASE + seq,
            IoVec::single(MemRef::kernel(addr, buf.len())),
        );
        let s = w.zsock_mut().sock_mut(sid);
        s.inbound.insert(seq, Inbound::ToRing { buf });
    }
}

/// The payload with sequence `seq` finished landing (`got` bytes).
fn on_data_landed<W: ZsockWorld>(w: &mut W, sid: SockId, seq: u64, got: u64) {
    let node = w.zsock().sock(sid).ep.node;
    let inbound = w.zsock_mut().sock_mut(sid).inbound.remove(&seq);
    match inbound {
        Some(Inbound::Direct { op, len, dst: _ }) => {
            let n = got.min(len);
            {
                let s = w.zsock_mut().sock_mut(sid);
                s.rx_next = s.rx_next.max(seq + 1);
                s.stats.zero_copy_receives += 1;
                s.stats.bytes_received += n;
                s.completed.push_back((op, Ok(n)));
                // A zero-copy completion consumes its sequence without
                // passing through `accept_in_order` — promote successors
                // already parked in the reorder map, or a blocked reader
                // stalls forever.
                promote_reorder(s);
            }
            drain_rx(w, sid);
        }
        Some(Inbound::ToRing { buf }) => {
            let n = got.min(buf.len());
            let mut data = vec![0u8; n as usize];
            let addr = w.zsock().sock(sid).addr_of(buf);
            w.os()
                .node(node)
                .read_virt(Asid::KERNEL, addr, &mut data)
                .expect("staging mapped");
            stage_release(w, sid, buf);
            accept_in_order(w, sid, seq, Bytes::from(data));
            drain_rx(w, sid);
        }
        None => {}
    }
}

/// Promote contiguous segments from the reorder map into the in-order
/// stream buffer. Must run every time `rx_next` advances.
fn promote_reorder(s: &mut Sock) {
    while let Some(d) = s.reorder.remove(&s.rx_next) {
        s.rx_buffered += d.len() as u64;
        s.rx_buf.push_back(d);
        s.rx_next += 1;
    }
}

/// Append `data` (sequence `seq`) to the in-order stream buffer.
/// Out-of-order segments (possible on dual-link cards when consecutive
/// messages ride different lanes) wait in a reorder map until the gap
/// closes.
fn accept_in_order<W: ZsockWorld>(w: &mut W, sid: SockId, seq: u64, data: Bytes) {
    let s = w.zsock_mut().sock_mut(sid);
    s.reorder.insert(seq, data);
    promote_reorder(s);
}
