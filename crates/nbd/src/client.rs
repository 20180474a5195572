//! The in-kernel NBD client.
//!
//! Two access paths, mirroring the ORFS split the paper draws the analogy
//! to (§6):
//!
//! * **buffered** ([`nbd_read`]/[`nbd_write`]): sectors are cached in the
//!   page-cache; misses fetch whole sectors into freshly allocated, pinned
//!   frames whose *physical* addresses go straight to the transport —
//!   the paper's prediction that "our physical address based interface
//!   should be suitable in this context";
//! * **raw** ([`nbd_read_raw`]): a sector range lands zero-copy in user
//!   memory (the `O_DIRECT` analogue).

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use knet_core::api::{channel_cancel_recv, channel_connect_handler, channel_post_recv};
use knet_core::pageio::{self, Cursor, Fill, PageIo, Then};
use knet_core::{
    channel_send_request, ring_stage, ChannelId, Endpoint, IoVec, MemRef, NetError, ReqTable,
    StagingRing, TransportEvent,
};
use knet_simos::{cpu_charge, Asid, PageKey};

use crate::proto::{NbdRequest, SECTOR_SIZE};
use crate::NbdWorld;

/// Identifier of an NBD client instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NbdClientId(pub u32);

/// Identifier of an in-flight block operation.
pub type NbdOp = u64;

/// Result of a block operation: bytes moved.
pub type NbdResult = Result<u64, NetError>;

/// Per-client counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct NbdClientStats {
    pub reads: u64,
    pub writes: u64,
    pub sector_hits: u64,
    pub sector_misses: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

#[derive(Clone, Debug)]
enum OpState {
    /// Buffered read: copy out of cached sectors, fetching misses.
    Buffered(Cursor),
    /// Raw read: waiting for the data message.
    Raw,
    /// Write in flight: completes when every chunk is acknowledged.
    /// Chunks are issued in a bounded window (GM bounds pending sends
    /// with tokens — §4.1), refilled as acks return.
    WriteAck {
        len: u64,
        first_sector: u64,
        next_off: u64,
        remaining_acks: u32,
        data: Bytes,
    },
}

/// One NBD client (one mounted remote device).
pub struct NbdClient {
    pub id: NbdClientId,
    pub ep: Endpoint,
    /// The handler-backed channel wrapping `ep` (peer = the server).
    pub ch: ChannelId,
    pub server: Endpoint,
    /// Page-cache namespace for this device (disjoint from ORFS mounts);
    /// [`NbdClient::cache_key`] adds the client, so two clients naming
    /// the same device never share a cached sector.
    pub device_id: u32,
    next_op: u64,
    /// Requests in flight → the block op each one advances.
    reqs: ReqTable<NbdOp>,
    ops: BTreeMap<NbdOp, OpState>,
    /// Staging ring for request headers and write chunks.
    ring: StagingRing,
    /// Cached-I/O engine state (bounce buffer, readers parked on sectors
    /// in flight).
    pageio: PageIo,
    pub completed: VecDeque<(NbdOp, NbdResult)>,
    pub stats: NbdClientStats,
}

const RING: u64 = 1 << 20;
/// Writes are split into bounded per-request chunks, as the block layer
/// splits bios — this also keeps each message in the transports' eager
/// regime on both GM and MX.
const WRITE_CHUNK: u64 = 16 * 1024;
/// Write chunks in flight at once (stays under GM's send-token budget,
/// which also covers the ack replies).
const WRITE_WINDOW: u32 = 8;
/// Page-cache keys for NBD devices use the inodes counting down from
/// this one, one per client.
const NBD_INODE: u32 = u32::MAX;

/// Create a client on the node owning `ep`, attached to `server`.
pub fn nbd_client_create<W: NbdWorld>(
    w: &mut W,
    ep: Endpoint,
    server: Endpoint,
    device_id: u32,
) -> Result<NbdClientId, NetError> {
    let ring = w.os_mut().node_mut(ep.node).kalloc(RING)?;
    let id = NbdClientId(w.nbd().clients.len() as u32);
    // Attach as a handler-backed channel (the zsock shape): requests and
    // posted buffers inherit coalescing, pooled contexts and backpressure.
    let ch = channel_connect_handler(
        w,
        ep,
        server,
        &format!("nbd-client-{}", id.0),
        move |w, _via, ev| nbd_on_client_event(w, id, ev),
    );
    w.nbd_mut().clients.push(NbdClient {
        id,
        ep,
        ch,
        server,
        device_id,
        next_op: 1,
        reqs: ReqTable::new(ep),
        ops: BTreeMap::new(),
        ring: StagingRing::new(ring, Asid::KERNEL, RING),
        pageio: PageIo::default(),
        completed: VecDeque::new(),
        stats: NbdClientStats::default(),
    });
    Ok(id)
}

impl NbdClient {
    /// Requests the request table has room for (flat in steady state;
    /// asserted by `tests/hotpath_alloc.rs`).
    pub fn request_table_capacity(&self) -> usize {
        self.reqs.capacity()
    }

    /// The page-cache key of `sector` as this client caches it.
    pub fn cache_key(&self, sector: u64) -> PageKey {
        PageKey {
            mount: self.device_id,
            inode: NBD_INODE - self.id.0,
            index: sector,
        }
    }
}

fn charge_entry<W: NbdWorld>(w: &mut W, cid: NbdClientId) {
    let node = w.nbd().clients[cid.0 as usize].ep.node;
    let cost = w.os().node(node).cpu.model.syscall + knet_simcore::SimTime::from_nanos(500);
    cpu_charge(w, node, cost);
}

/// A request will never be answered (its send was rejected or dropped):
/// withdraw any posted reply buffer, drop the op and complete it with the
/// error — silently dropping it would hang the block operation forever.
/// An op fails once, however many of its requests do.
fn fail_request<W: NbdWorld>(w: &mut W, cid: NbdClientId, reqid: u64, op: NbdOp, e: NetError) {
    let ch = w.nbd().clients[cid.0 as usize].ch;
    channel_cancel_recv(w, ch, reqid);
    let c = &mut w.nbd_mut().clients[cid.0 as usize];
    if c.ops.remove(&op).is_some() {
        fail_op(w, cid, op, e);
    }
}

/// Complete `op` (already out of the table) with `e`. A read that dies
/// while it owns an in-flight sector gives the frame back, and the readers
/// parked on it fetch for themselves.
fn fail_op<W: NbdWorld>(w: &mut W, cid: NbdClientId, op: NbdOp, e: NetError) {
    let c = &mut w.nbd_mut().clients[cid.0 as usize];
    c.completed.push_back((op, Err(e)));
    let node = c.ep.node;
    for parked in pageio::abandoned(w, node, engine(cid), op) {
        advance_read(w, cid, parked);
    }
}

/// Selects client `cid`'s cached-I/O engine state inside the world.
fn engine<W: NbdWorld>(cid: NbdClientId) -> impl Fn(&mut W) -> &mut PageIo {
    move |w| &mut w.nbd_mut().clients[cid.0 as usize].pageio
}

/// Stage `header` (and a write chunk behind it) in the ring and send it as
/// request `reqid`; a synchronous rejection fails the request now.
fn send_request<W: NbdWorld>(
    w: &mut W,
    cid: NbdClientId,
    reqid: u64,
    req: NbdRequest,
    payload: &[u8],
) {
    let (node, ch) = {
        let c = &w.nbd().clients[cid.0 as usize];
        (c.ep.node, c.ch)
    };
    let seg = ring_stage(
        w,
        node,
        |w| &mut w.nbd_mut().clients[cid.0 as usize].ring,
        &[&req.encode(), payload],
    )
    .expect("a header + WRITE_CHUNK fits the client ring");
    let sent = channel_send_request(w, ch, reqid, reqid, IoVec::single(seg), |w| {
        &mut w.nbd_mut().clients[cid.0 as usize].reqs
    });
    if let Err((e, Some(op))) = sent {
        fail_request(w, cid, reqid, op, e);
    }
}

/// Buffered read: `dest.len()` bytes at device `offset` through the
/// page-cache.
pub fn nbd_read<W: NbdWorld>(w: &mut W, cid: NbdClientId, dest: MemRef, offset: u64) -> NbdOp {
    charge_entry(w, cid);
    let op = {
        let c = &mut w.nbd_mut().clients[cid.0 as usize];
        let op = c.next_op;
        c.next_op += 1;
        c.stats.reads += 1;
        let cur = Cursor::new(c.cache_key(0), dest, offset);
        c.ops.insert(op, OpState::Buffered(cur));
        op
    };
    advance_read(w, cid, op);
    op
}

/// Raw (direct) read: a sector-aligned range lands zero-copy in `dest`.
pub fn nbd_read_raw<W: NbdWorld>(w: &mut W, cid: NbdClientId, dest: MemRef, sector: u64) -> NbdOp {
    charge_entry(w, cid);
    let count = (dest.len() / SECTOR_SIZE).max(1) as u32;
    let (op, ch) = {
        let c = &mut w.nbd_mut().clients[cid.0 as usize];
        let op = c.next_op;
        c.next_op += 1;
        c.stats.reads += 1;
        c.ops.insert(op, OpState::Raw);
        (op, c.ch)
    };
    // Buffer first, then the request (the reply must never race it).
    let reqid = w.nbd_mut().clients[cid.0 as usize].reqs.mint(op);
    let _ = channel_post_recv(w, ch, reqid, IoVec::single(dest));
    send_request(w, cid, reqid, NbdRequest::Read { sector, count }, &[]);
    op
}

/// Buffered write: fills page-cache sectors and writes them through
/// synchronously (NBD has no delayed write-back in this model).
pub fn nbd_write<W: NbdWorld>(w: &mut W, cid: NbdClientId, src: MemRef, offset: u64) -> NbdOp {
    charge_entry(w, cid);
    debug_assert_eq!(offset % SECTOR_SIZE, 0, "sector-aligned writes");
    debug_assert_eq!(src.len() % SECTOR_SIZE, 0, "sector-aligned writes");
    let node = w.nbd().clients[cid.0 as usize].ep.node;
    let len = src.len();
    let chunks = len.div_ceil(WRITE_CHUNK).max(1) as u32;
    let op = {
        let c = &mut w.nbd_mut().clients[cid.0 as usize];
        let op = c.next_op;
        c.next_op += 1;
        c.stats.writes += 1;
        c.stats.bytes_written += len;
        op
    };
    // Update the cached sectors (write-through), then send.
    let data = match knet_core::read_iovec(w.os().node(node), &IoVec::single(src)) {
        Ok(data) => data,
        Err(e) => {
            let c = &mut w.nbd_mut().clients[cid.0 as usize];
            c.completed.push_back((op, Err(e)));
            return op;
        }
    };
    pageio::charge_copy(w, node, len);
    let first = offset / SECTOR_SIZE;
    for i in 0..(len / SECTOR_SIZE) {
        let key = w.nbd().clients[cid.0 as usize].cache_key(first + i);
        let sector = src.sub_range(i * SECTOR_SIZE, SECTOR_SIZE);
        // `src` was just read whole, so the one failure left is a frame
        // shortage on an absent sector: it stays uncached (nothing stale)
        // and still reaches the server.
        let _ = pageio::copy_in(w, node, engine(cid), key, 0, sector, Fill::Uptodate);
    }
    // Issue the chunked write requests through a bounded window.
    {
        let c = &mut w.nbd_mut().clients[cid.0 as usize];
        c.ops.insert(
            op,
            OpState::WriteAck {
                len,
                first_sector: first,
                next_off: 0,
                remaining_acks: chunks,
                data: Bytes::from(data),
            },
        );
    }
    for _ in 0..WRITE_WINDOW {
        if !issue_next_write_chunk(w, cid, op) {
            break;
        }
    }
    op
}

/// Send the next pending chunk of a windowed write; returns false when all
/// chunks have been issued.
fn issue_next_write_chunk<W: NbdWorld>(w: &mut W, cid: NbdClientId, op: NbdOp) -> bool {
    let (first, off, n, chunk) = {
        let c = &mut w.nbd_mut().clients[cid.0 as usize];
        let Some(OpState::WriteAck {
            len,
            first_sector,
            next_off,
            data,
            ..
        }) = c.ops.get_mut(&op)
        else {
            return false;
        };
        if *next_off >= *len {
            return false;
        }
        let off = *next_off;
        let n = WRITE_CHUNK.min(*len - off);
        *next_off += n;
        (
            *first_sector,
            off,
            n,
            data.slice(off as usize..(off + n) as usize),
        )
    };
    let reqid = w.nbd_mut().clients[cid.0 as usize].reqs.mint(op);
    let req = NbdRequest::Write {
        sector: first + off / SECTOR_SIZE,
        count: (n / SECTOR_SIZE) as u32,
    };
    send_request(w, cid, reqid, req, &chunk);
    true
}

/// Advance a buffered read through the cached-I/O engine: copy cached
/// sectors out, or request the next missing one into its page-cache frame
/// — the paper's point: the frame's physical address goes straight to the
/// network.
fn advance_read<W: NbdWorld>(w: &mut W, cid: NbdClientId, op: NbdOp) {
    let c = &w.nbd().clients[cid.0 as usize];
    let Some(OpState::Buffered(mut cur)) = c.ops.get(&op).cloned() else {
        return;
    };
    let (node, ch, want) = (c.ep.node, c.ch, cur.buf.len());
    let step = pageio::read_step(w, node, engine(cid), &mut cur, op, want, 1);
    let c = &mut w.nbd_mut().clients[cid.0 as usize];
    c.stats.sector_hits += step.hits;
    c.ops.insert(op, OpState::Buffered(cur));
    match step.then {
        Then::Done => {
            c.stats.bytes_read += want;
            c.ops.remove(&op);
            pageio::when_drained(w, node, move |w: &mut W| {
                w.nbd_mut().clients[cid.0 as usize]
                    .completed
                    .push_back((op, Ok(want)));
            });
        }
        Then::Parked => {}
        Then::Failed(e) => {
            c.ops.remove(&op);
            c.completed.push_back((op, Err(e)));
        }
        Then::Fetch { run, iov } => {
            c.stats.sector_misses += 1;
            let reqid = c.reqs.mint(op);
            let _ = channel_post_recv(w, ch, reqid, iov);
            let sector = run.first.index;
            send_request(w, cid, reqid, NbdRequest::Read { sector, count: 1 }, &[]);
        }
    }
}

/// Transport upcall for NBD client `cid`.
pub fn nbd_on_client_event<W: NbdWorld>(w: &mut W, cid: NbdClientId, ev: TransportEvent) {
    // Correlate by tag (= the request id); receive contexts are
    // channel-assigned now.
    let (tag, len) = match ev {
        TransportEvent::RecvDone { tag, len, .. } => (tag, len),
        TransportEvent::Unexpected { tag, data, .. } => (tag, data.len() as u64),
        TransportEvent::SendDone { ctx } => {
            w.nbd_mut().clients[cid.0 as usize].reqs.sent(ctx);
            return;
        }
        TransportEvent::SendFailed { ctx, error } => {
            // A queued request frame was dropped by its retry: the reply
            // will never come. Fail exactly that request's op.
            let failed = w.nbd_mut().clients[cid.0 as usize].reqs.send_failed(ctx);
            if let Some((reqid, op)) = failed {
                fail_request(w, cid, reqid, op, error);
            }
            return;
        }
        // The block client does not participate in collective groups.
        TransportEvent::CollectiveDone { .. }
        | TransportEvent::CollectiveRecv { .. }
        | TransportEvent::CollectiveFailed { .. } => return,
        TransportEvent::PeerDown { .. } => {
            // The server's node died: every block op — in flight, or parked
            // on a sector another op was fetching — completes with a typed
            // error; nothing may stall on a dead disk. The table is emptied
            // first, so a reader woken by an abandoned fetch finds itself
            // gone instead of asking the dead server again.
            let c = &mut w.nbd_mut().clients[cid.0 as usize];
            let (ch, failed, ops) = (c.ch, c.reqs.fail_all(), std::mem::take(&mut c.ops));
            for (reqid, _) in failed {
                channel_cancel_recv(w, ch, reqid);
            }
            for op in ops.into_keys() {
                fail_op(w, cid, op, NetError::PeerUnreachable);
            }
            return;
        }
    };
    let Some(op) = w.nbd_mut().clients[cid.0 as usize].reqs.finish(tag) else {
        return;
    };
    let c = &w.nbd().clients[cid.0 as usize];
    let node = c.ep.node;
    match c.ops.get(&op).cloned() {
        Some(OpState::Buffered(_)) => {
            let parked = pageio::landed(w, node, engine(cid), op);
            advance_read(w, cid, op);
            for op in parked {
                advance_read(w, cid, op);
            }
        }
        Some(OpState::Raw) => {
            let c = &mut w.nbd_mut().clients[cid.0 as usize];
            c.stats.bytes_read += len;
            c.ops.remove(&op);
            c.completed.push_back((op, Ok(len)));
        }
        Some(OpState::WriteAck {
            len,
            remaining_acks,
            ..
        }) => {
            if remaining_acks <= 1 {
                let c = &mut w.nbd_mut().clients[cid.0 as usize];
                c.ops.remove(&op);
                c.completed.push_back((op, Ok(len)));
            } else {
                {
                    let c = &mut w.nbd_mut().clients[cid.0 as usize];
                    if let Some(OpState::WriteAck { remaining_acks, .. }) = c.ops.get_mut(&op) {
                        *remaining_acks -= 1;
                    }
                }
                issue_next_write_chunk(w, cid, op);
            }
        }
        None => {}
    }
}

/// Driver helper: whether `op` has completed (and its result).
pub fn nbd_wait(c: &mut NbdClient, op: NbdOp) -> Option<NbdResult> {
    let pos = c.completed.iter().position(|(o, _)| *o == op)?;
    Some(c.completed.remove(pos).expect("present").1)
}
