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
use knet_core::api::channel_connect_handler;
use knet_core::pageio::{self, Cursor, Fill, PageIo, Probe, Then};
use knet_core::{
    ChannelId, Endpoint, IoVec, MemRef, NetError, Reply, ReqClient, ReqEv, StagingRing,
    StorageClient, TransportEvent,
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
    /// Buffered write: copies its sectors into the page-cache, parked while
    /// a read still fetches one of them (that reply carries older bytes and
    /// would land over these), then completes when every chunk is
    /// acknowledged. Chunks are issued in a bounded window (GM bounds
    /// pending sends with tokens — §4.1), refilled as acks return.
    Write {
        len: u64,
        first_sector: u64,
        /// Sectors copied into the page-cache so far.
        cached: u64,
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
    /// Requests in flight, each advancing one block op, and the staging
    /// ring their headers and write chunks leave through.
    reqs: ReqClient<NbdOp>,
    ops: BTreeMap<NbdOp, OpState>,
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
        reqs: ReqClient::new(ep, ch, StagingRing::new(ring, Asid::KERNEL, RING)),
        ops: BTreeMap::new(),
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

    /// No request in flight, no sector fetch in flight, no reader parked.
    pub fn is_quiet(&self) -> bool {
        self.reqs.live() == 0 && self.pageio.is_idle()
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

/// Complete `op` (already out of the table, last in `state`) with `e`. A
/// read that dies while it owns an in-flight sector gives the frame back,
/// and the readers parked on it fetch for themselves. A write gives back
/// the sectors it cached: the server never took their bytes.
fn fail_op<W: NbdWorld>(w: &mut W, cid: NbdClientId, op: NbdOp, state: OpState, e: NetError) {
    let c = &mut w.nbd_mut().clients[cid.0 as usize];
    c.completed.push_back((op, Err(e)));
    let node = c.ep.node;
    if let OpState::Write {
        first_sector,
        cached,
        ..
    } = state
    {
        let first = c.cache_key(first_sector);
        pageio::discard(w, node, first, cached);
    }
    for parked in pageio::abandoned(w, node, engine(cid), op) {
        resume(w, cid, parked);
    }
}

impl<W: NbdWorld> StorageClient<W> for NbdClientId {
    type Op = NbdOp;

    fn reqs(self, w: &mut W) -> &mut ReqClient<NbdOp> {
        &mut w.nbd_mut().clients[self.0 as usize].reqs
    }

    fn horizon(self) -> W::Ev {
        W::lift_nbd(ReqEv::Horizon { table: self.0 })
    }

    /// A lost request fails its block op with the error as it came (an op
    /// already gone is left).
    fn fail(self, w: &mut W, op: NbdOp, e: NetError) {
        let c = &mut w.nbd_mut().clients[self.0 as usize];
        if let Some(state) = c.ops.remove(&op) {
            fail_op(w, self, op, state, e);
        }
    }
}

/// Continue `op` after the sector it was parked on settled.
fn resume<W: NbdWorld>(w: &mut W, cid: NbdClientId, op: NbdOp) {
    match w.nbd().clients[cid.0 as usize].ops.get(&op) {
        Some(OpState::Buffered(_)) => advance_read(w, cid, op),
        Some(OpState::Write { .. }) => advance_write(w, cid, op),
        Some(OpState::Raw) | None => {}
    }
}

/// Selects client `cid`'s cached-I/O engine state inside the world.
fn engine<W: NbdWorld>(cid: NbdClientId) -> impl Fn(&mut W) -> &mut PageIo {
    move |w| &mut w.nbd_mut().clients[cid.0 as usize].pageio
}

/// Send `req` (and a write chunk behind it) for `op` from the staging ring.
/// A reply buffer `into` is posted first: the reply must never race it.
fn send_request<W: NbdWorld>(
    w: &mut W,
    cid: NbdClientId,
    op: NbdOp,
    req: NbdRequest,
    payload: &[u8],
    into: Option<IoVec>,
) {
    let Some(reqid) = cid.mint(w, op) else {
        return;
    };
    if let Some(iov) = into {
        cid.post(w, reqid, iov);
    }
    let seg = cid.stage(w, &[&req.encode(), payload]);
    cid.send(w, reqid, reqid, IoVec::single(seg));
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
    let op = {
        let c = &mut w.nbd_mut().clients[cid.0 as usize];
        let op = c.next_op;
        c.next_op += 1;
        c.stats.reads += 1;
        c.ops.insert(op, OpState::Raw);
        op
    };
    let req = NbdRequest::Read { sector, count };
    send_request(w, cid, op, req, &[], Some(IoVec::single(dest)));
    op
}

/// Buffered write: fills page-cache sectors and writes them through
/// synchronously (NBD has no delayed write-back in this model). A sector
/// that a read is still fetching is filled once that fetch has settled.
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
    w.nbd_mut().clients[cid.0 as usize].ops.insert(
        op,
        OpState::Write {
            len,
            first_sector: offset / SECTOR_SIZE,
            cached: 0,
            next_off: 0,
            remaining_acks: chunks,
            data: Bytes::from(data),
        },
    );
    advance_write(w, cid, op);
    op
}

/// Advance a buffered write: update the cached sectors (write-through),
/// parking on one that a read is still fetching, then issue the chunked
/// write requests through a bounded window.
fn advance_write<W: NbdWorld>(w: &mut W, cid: NbdClientId, op: NbdOp) {
    let c = &w.nbd().clients[cid.0 as usize];
    let Some(&OpState::Write {
        len,
        first_sector,
        mut cached,
        ref data,
        ..
    }) = c.ops.get(&op)
    else {
        return;
    };
    let (node, data, sectors) = (c.ep.node, data.clone(), len / SECTOR_SIZE);
    while cached < sectors {
        let key = w.nbd().clients[cid.0 as usize].cache_key(first_sector + cached);
        if pageio::probe(w, node, engine(cid), key, op) == Probe::InFlight {
            break;
        }
        let at = (cached * SECTOR_SIZE) as usize;
        let sector = &data[at..at + SECTOR_SIZE as usize];
        // The one failure is a frame shortage on an absent sector: it stays
        // uncached (nothing stale) and still reaches the server.
        let _ = pageio::copy_in_bytes(w, node, key, 0, sector, Fill::Uptodate);
        cached += 1;
    }
    if let Some(OpState::Write { cached: at, .. }) =
        w.nbd_mut().clients[cid.0 as usize].ops.get_mut(&op)
    {
        *at = cached;
    }
    if cached < sectors {
        return; // parked: the fetch's landing or abandon resumes the write
    }
    for _ in 0..WRITE_WINDOW {
        if !issue_next_write_chunk(w, cid, op) {
            break;
        }
    }
}

/// Send the next pending chunk of a windowed write; returns false when all
/// chunks have been issued.
fn issue_next_write_chunk<W: NbdWorld>(w: &mut W, cid: NbdClientId, op: NbdOp) -> bool {
    let (first, off, n, chunk) = {
        let c = &mut w.nbd_mut().clients[cid.0 as usize];
        let Some(OpState::Write {
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
    let req = NbdRequest::Write {
        sector: first + off / SECTOR_SIZE,
        count: (n / SECTOR_SIZE) as u32,
    };
    send_request(w, cid, op, req, &chunk, None);
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
    let (node, want) = (c.ep.node, cur.buf.len());
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
            let req = NbdRequest::Read {
                sector: run.first.index,
                count: 1,
            };
            send_request(w, cid, op, req, &[], Some(iov));
        }
    }
}

/// Transport upcall for NBD client `cid`.
pub fn nbd_on_client_event<W: NbdWorld>(w: &mut W, cid: NbdClientId, ev: TransportEvent) {
    let (op, len) = match cid.on_event(w, ev) {
        Some(Reply::Landed { op, len }) => (op, len),
        Some(Reply::Message { op, data }) => (op, data.len() as u64),
        // The only request a server refuses addresses past its device.
        Some(Reply::Refused { op, .. }) => return cid.fail(w, op, NetError::OutOfRange),
        Some(Reply::PeerDown) => {
            // The server's node died: every block op — in flight, or parked
            // on a sector another op was fetching — completes with a typed
            // error; nothing may stall on a dead disk. The op table is
            // emptied first, so a reader woken by an abandoned fetch finds
            // itself gone instead of asking the dead server again.
            let ops = std::mem::take(&mut w.nbd_mut().clients[cid.0 as usize].ops);
            for (op, state) in ops {
                fail_op(w, cid, op, state, NetError::PeerUnreachable);
            }
            return;
        }
        None => return,
    };
    let c = &w.nbd().clients[cid.0 as usize];
    let node = c.ep.node;
    match c.ops.get(&op).cloned() {
        Some(OpState::Buffered(_)) => {
            let parked = pageio::landed(w, node, engine(cid), op);
            advance_read(w, cid, op);
            for op in parked {
                resume(w, cid, op);
            }
        }
        Some(OpState::Raw) => {
            let c = &mut w.nbd_mut().clients[cid.0 as usize];
            c.stats.bytes_read += len;
            c.ops.remove(&op);
            c.completed.push_back((op, Ok(len)));
        }
        Some(OpState::Write {
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
                    if let Some(OpState::Write { remaining_acks, .. }) = c.ops.get_mut(&op) {
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
