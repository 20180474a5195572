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
use knet_core::{
    channel_send_request, ring_stage, ChannelId, Endpoint, IoVec, MemRef, NetError, ReqTable,
    StagingRing, TransportEvent,
};
use knet_simos::{cpu_charge, Asid, PageKey, PAGE_SIZE};

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
    Buffered {
        dest: MemRef,
        offset: u64,
        done: u64,
        fetching: Option<u64>,
    },
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
    /// Page-cache namespace for this device (disjoint from ORFS mounts).
    pub device_id: u32,
    next_op: u64,
    /// Requests in flight → the block op each one advances.
    reqs: ReqTable<NbdOp>,
    ops: BTreeMap<NbdOp, OpState>,
    /// Staging ring for request headers and write chunks.
    ring: StagingRing,
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
/// Page-cache keys for NBD devices use this inode namespace.
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

    fn key(&self, sector: u64) -> PageKey {
        PageKey {
            mount: self.device_id,
            inode: NBD_INODE,
            index: sector,
        }
    }
}

fn charge_entry<W: NbdWorld>(w: &mut W, cid: NbdClientId) {
    let node = w.nbd().clients[cid.0 as usize].ep.node;
    let cost = w.os().node(node).cpu.model.syscall + knet_simcore::SimTime::from_nanos(500);
    cpu_charge(w, node, cost);
}

/// A request will never be answered (its send was rejected or dropped, or
/// the server died): withdraw any posted reply buffer, drop the op and
/// complete it with the error — silently dropping it would hang the block
/// operation forever. An op fails once, however many of its requests do.
fn fail_request<W: NbdWorld>(w: &mut W, cid: NbdClientId, reqid: u64, op: NbdOp, e: NetError) {
    let ch = w.nbd().clients[cid.0 as usize].ch;
    channel_cancel_recv(w, ch, reqid);
    let c = &mut w.nbd_mut().clients[cid.0 as usize];
    if c.ops.remove(&op).is_some() {
        c.completed.push_back((op, Err(e)));
    }
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
        c.ops.insert(
            op,
            OpState::Buffered {
                dest,
                offset,
                done: 0,
                fetching: None,
            },
        );
        op
    };
    advance_buffered(w, cid, op);
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
    let data = knet_core::read_iovec(w.os().node(node), &IoVec::single(src)).unwrap_or_default();
    let copy = w.os().node(node).cpu.model.memcpy_cost(len);
    cpu_charge(w, node, copy);
    let first = offset / SECTOR_SIZE;
    for i in 0..(len / SECTOR_SIZE) {
        let key = w.nbd().clients[cid.0 as usize].key(first + i);
        let os = w.os_mut().node_mut(node);
        let page = match os.page_cache.peek(key) {
            Some(p) => Some(p),
            None => {
                let mem = &mut os.mem;
                os.page_cache.insert(mem, key).ok()
            }
        };
        if let Some(p) = page {
            let off = (i * SECTOR_SIZE) as usize;
            w.os_mut()
                .node_mut(node)
                .mem
                .write(p.frame.base(), &data[off..off + SECTOR_SIZE as usize])
                .expect("page writable");
            w.os_mut().node_mut(node).page_cache.mark_uptodate(key);
        }
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

fn advance_buffered<W: NbdWorld>(w: &mut W, cid: NbdClientId, op: NbdOp) {
    let (node, device, ch) = {
        let c = &w.nbd().clients[cid.0 as usize];
        (c.ep.node, c.device_id, c.ch)
    };
    let _ = device;
    loop {
        let st = {
            let c = &w.nbd().clients[cid.0 as usize];
            match c.ops.get(&op) {
                Some(OpState::Buffered {
                    dest,
                    offset,
                    done,
                    fetching,
                }) => (*dest, *offset, *done, *fetching),
                _ => return,
            }
        };
        let (dest, offset, done, _) = st;
        let want = dest.len();
        if done >= want {
            // Observe completion once the charged copy work has drained.
            let t = w
                .os()
                .node(node)
                .cpu
                .busy
                .free_at()
                .max(knet_simcore::now(w));
            let c = &mut w.nbd_mut().clients[cid.0 as usize];
            c.stats.bytes_read += want;
            c.ops.remove(&op);
            knet_simcore::call_at(w, node.0, t, move |w: &mut W| {
                w.nbd_mut().clients[cid.0 as usize]
                    .completed
                    .push_back((op, Ok(want)));
            });
            return;
        }
        let pos = offset + done;
        let sector = pos / SECTOR_SIZE;
        let key = w.nbd().clients[cid.0 as usize].key(sector);
        let cached = w
            .os_mut()
            .node_mut(node)
            .page_cache
            .lookup(key)
            .filter(|p| p.uptodate);
        match cached {
            Some(p) => {
                w.nbd_mut().clients[cid.0 as usize].stats.sector_hits += 1;
                let soff = pos % SECTOR_SIZE;
                let n = (SECTOR_SIZE - soff).min(want - done);
                let mut tmp = vec![0u8; n as usize];
                w.os()
                    .node(node)
                    .mem
                    .read(p.frame.base().add(soff), &mut tmp)
                    .expect("cached sector");
                let dst = dest.sub_range(done, n);
                knet_core::write_iovec(w.os_mut().node_mut(node), &IoVec::single(dst), &tmp).ok();
                let copy = w.os().node(node).cpu.model.memcpy_cost(n);
                cpu_charge(w, node, copy);
                let c = &mut w.nbd_mut().clients[cid.0 as usize];
                if let Some(OpState::Buffered { done, .. }) = c.ops.get_mut(&op) {
                    *done += n;
                }
            }
            None => {
                w.nbd_mut().clients[cid.0 as usize].stats.sector_misses += 1;
                let os = w.os_mut().node_mut(node);
                let frame = {
                    let mem = &mut os.mem;
                    match os.page_cache.insert(mem, key) {
                        Ok(p) => p.frame,
                        Err(_) => {
                            let c = &mut w.nbd_mut().clients[cid.0 as usize];
                            c.ops.remove(&op);
                            c.completed.push_back((
                                op,
                                Err(NetError::Os(knet_simos::OsError::OutOfMemory)),
                            ));
                            return;
                        }
                    }
                };
                {
                    let c = &mut w.nbd_mut().clients[cid.0 as usize];
                    if let Some(OpState::Buffered { fetching, .. }) = c.ops.get_mut(&op) {
                        *fetching = Some(sector);
                    }
                }
                // The paper's point: the page-cache frame's physical address
                // goes straight to the network.
                let reqid = w.nbd_mut().clients[cid.0 as usize].reqs.mint(op);
                let iov = IoVec::single(MemRef::physical(frame.base(), PAGE_SIZE));
                let _ = channel_post_recv(w, ch, reqid, iov);
                send_request(w, cid, reqid, NbdRequest::Read { sector, count: 1 }, &[]);
                return;
            }
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
        | TransportEvent::CollectiveFailed { .. }
        | TransportEvent::RpcDone { .. } => return,
        TransportEvent::PeerDown { .. } => {
            // The server's node died: every in-flight block op completes
            // with a typed error — nothing may stall on a dead disk.
            let failed = w.nbd_mut().clients[cid.0 as usize].reqs.fail_all();
            for (reqid, op) in failed {
                fail_request(w, cid, reqid, op, NetError::PeerUnreachable);
            }
            // Ops with no outstanding request (should not exist) fail too.
            let c = &mut w.nbd_mut().clients[cid.0 as usize];
            let orphans: Vec<NbdOp> = c.ops.keys().copied().collect();
            for op in orphans {
                c.ops.remove(&op);
                c.completed.push_back((op, Err(NetError::PeerUnreachable)));
            }
            return;
        }
    };
    let Some(op) = w.nbd_mut().clients[cid.0 as usize].reqs.finish(tag) else {
        return;
    };
    let node = w.nbd().clients[cid.0 as usize].ep.node;
    let st = {
        let c = &w.nbd().clients[cid.0 as usize];
        c.ops.get(&op).cloned()
    };
    match st {
        Some(OpState::Buffered { fetching, .. }) => {
            if let Some(sector) = fetching {
                let key = w.nbd().clients[cid.0 as usize].key(sector);
                w.os_mut().node_mut(node).page_cache.mark_uptodate(key);
                let c = &mut w.nbd_mut().clients[cid.0 as usize];
                if let Some(OpState::Buffered { fetching, .. }) = c.ops.get_mut(&op) {
                    *fetching = None;
                }
            }
            advance_buffered(w, cid, op);
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
