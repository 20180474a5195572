//! The ORFA (user-space) and ORFS (in-kernel) clients.
//!
//! Both speak the same wire protocol; what differs is everything the paper
//! measures:
//!
//! * **ORFS** (kernel) pays a syscall + VFS traversal per call, but gets the
//!   VFS dentry/attribute caches and the **page-cache**: buffered reads move
//!   page-sized requests whose destination is a *physical* page-cache frame
//!   (§2.3.1), while `O_DIRECT` reads land zero-copy in pinned user memory
//!   (§2.3.2);
//! * **ORFA** (user library) intercepts calls with no kernel entry and no
//!   caches — every operation goes to the wire (§3.1).
//!
//! Operations are asynchronous state machines: a syscall returns a
//! [`SyscallId`]; network completions advance the state; the result lands in
//! the client's completion queue for the benchmark driver (or example
//! application) to collect.

use std::collections::{BTreeMap, VecDeque};

use knet_core::api::{channel_cancel_recv, channel_connect_handler, channel_post_recv};
use knet_core::pageio::{self, Cursor, Fill, PageIo, Probe, Run, Then};
use knet_core::{
    channel_send_request, ring_stage, ChannelId, Endpoint, IoVec, MemRef, NetError, ReqTable,
    StagingRing, TransportEvent, TransportKind,
};
use knet_simcore::SimTime;
use knet_simfs::FsError;
use knet_simos::{cpu_charge, Asid, PageKey, PAGE_SIZE};

use crate::layer::{OrfsClientId, OrfsWorld};
use crate::proto::{
    codec_cost, OrfsError, Request, Response, WireAttr, WireDirEntry, DATA_TAG_BIT,
    WRITE_INLINE_MAX,
};

/// Identifier of an in-flight client operation.
pub type SyscallId = u64;

/// Successful results of client operations.
#[derive(Clone, Debug, PartialEq)]
pub enum SysRet {
    Fd(u32),
    Bytes(u64),
    Ino(u32),
    Attr(WireAttr),
    Entries(Vec<WireDirEntry>),
    Target(String),
    Unit,
}

/// Outcome of a client operation.
pub type SysResult = Result<SysRet, OrfsError>;

/// How the client is built (the paper's two implementations).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClientKind {
    /// ORFS: in-kernel VFS client with page-cache and caches.
    KernelVfs,
    /// ORFA: user-space interception library (no kernel entry, no caches).
    UserLib,
}

/// Tunables of the kernel client.
#[derive(Clone, Copy, Debug)]
pub struct VfsConfig {
    /// Combine a run of missing page-cache pages into one *vectorial*
    /// request (the Linux 2.6 behaviour of §3.3; requires MX).
    pub combine_pages: bool,
    /// Maximum pages combined per request when `combine_pages` is on.
    pub max_combine: u64,
}

impl Default for VfsConfig {
    fn default() -> Self {
        VfsConfig {
            combine_pages: false,
            max_combine: 16,
        }
    }
}

/// An open file descriptor.
#[derive(Clone, Copy, Debug)]
pub struct OpenFile {
    pub ino: u32,
    pub handle: u32,
    /// `O_DIRECT`: bypass the page-cache (§2.3.2).
    pub direct: bool,
    /// Size as last known from the server (kept current by local writes).
    pub size: u64,
}

/// Client statistics for figures and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    pub syscalls: u64,
    pub requests: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub dentry_hits: u64,
    pub dentry_misses: u64,
    pub page_hits: u64,
    pub page_misses: u64,
}

// ---- operation state machines ------------------------------------------------

/// What to do when a path resolution completes.
#[derive(Clone, Debug)]
enum AfterResolve {
    Open {
        direct: bool,
    },
    Stat,
    Readdir,
    Readlink,
    Truncate {
        size: u64,
    },
    /// Name-level parent op: the final component must NOT be resolved.
    NameOp(NameOp),
}

#[derive(Clone, Debug)]
enum NameOp {
    Create { mode: u16 },
    Mkdir { mode: u16 },
    Unlink,
    Rmdir,
    Symlink { target: String },
}

#[derive(Clone, Debug)]
enum OpState {
    /// Walking path components (`idx` into `parts`, `cur` is the dir so far).
    Resolve {
        parts: Vec<String>,
        idx: usize,
        cur: u32,
        then: AfterResolve,
    },
    /// Waiting for OPEN to return a handle.
    OpenWait { ino: u32, direct: bool },
    /// Waiting for GETATTR after open.
    OpenAttrWait { ino: u32, handle: u32, direct: bool },
    /// Waiting for a metadata response that directly finishes the op.
    MetaWait { kind: MetaKind },
    /// O_DIRECT read: one outstanding data receive.
    DirectRead,
    /// O_DIRECT (or ORFA) write: waiting for `Written`.
    DirectWrite { fd: u32 },
    /// Buffered read loop.
    BufferedRead(Buffered),
    /// Buffered write loop.
    BufferedWrite(Buffered),
    /// Write-back of dirty pages (fsync/close), one request at a time.
    Flush(Flush),
}

#[derive(Clone, Debug)]
enum MetaKind {
    Stat,
    Lookup { dir: u32, name: String },
    CreateLike { dir: u32, name: String },
    Readdir,
    Readlink,
    Generic,
    Close { fd: u32 },
}

/// A buffered read or write: where it is in the file's cached pages.
#[derive(Clone, Copy, Debug)]
struct Buffered {
    fd: u32,
    cur: Cursor,
}

#[derive(Clone, Debug)]
struct Flush {
    fd: u32,
    ino: u32,
    pages: Vec<(u64, u64)>, // (page index, valid bytes)
    idx: usize,
    then_close: bool,
}

/// One ORFA/ORFS client instance.
pub struct OrfsClient {
    pub id: OrfsClientId,
    pub ep: Endpoint,
    /// The handler-backed channel wrapping `ep` (peer = the server): every
    /// request, payload and posted reply buffer moves through it.
    pub ch: ChannelId,
    pub server: Endpoint,
    pub kind: ClientKind,
    pub config: VfsConfig,
    /// The process this client serves (user-buffer copies target it).
    pub asid: Asid,
    /// Per-client page-cache namespace.
    pub mount_id: u32,
    next_syscall: u64,
    /// Requests in flight → the syscall each one advances.
    reqs: ReqTable<SyscallId>,
    ops: BTreeMap<SyscallId, OpState>,
    /// Completed operations for the driver to collect.
    pub completed: VecDeque<(SyscallId, SysResult)>,
    dentries: BTreeMap<(u32, String), u32>,
    attrs: BTreeMap<u32, WireAttr>,
    fds: Vec<Option<OpenFile>>,
    /// Staging ring for request headers (and GM-coalesced writes): kernel
    /// memory for the ORFS kernel client, a user mapping of the client's
    /// own process for the ORFA library (which cannot touch kernel memory).
    ring: StagingRing,
    /// Cached-I/O engine state (bounce buffer, ops parked on pages in
    /// flight).
    pageio: PageIo,
    pub stats: ClientStats,
}

const CLIENT_RING: u64 = 4 << 20;

/// Create a client on the node owning `ep`, talking to `server`.
pub fn client_create<W: OrfsWorld>(
    w: &mut W,
    ep: Endpoint,
    server: Endpoint,
    kind: ClientKind,
    asid: Asid,
    config: VfsConfig,
) -> Result<OrfsClientId, NetError> {
    let (ring, ring_asid) = match kind {
        ClientKind::KernelVfs => (
            w.os_mut().node_mut(ep.node).kalloc(CLIENT_RING)?,
            Asid::KERNEL,
        ),
        ClientKind::UserLib => (
            w.os_mut()
                .node_mut(ep.node)
                .map_anon(asid, CLIENT_RING, knet_simos::Prot::RW)?,
            asid,
        ),
    };
    let id = OrfsClientId(w.orfs().clients.len() as u32);
    let mount_id = id.0 + 1;
    // Attach to the API as a handler-backed channel (the zsock shape):
    // sends inherit coalescing, pooled contexts and ordered backpressure.
    let ch = channel_connect_handler(
        w,
        ep,
        server,
        &format!("orfs-client-{}", id.0),
        move |w, _via, ev| client_on_event(w, id, ev),
    );
    w.orfs_mut().clients.push(OrfsClient {
        id,
        ep,
        ch,
        server,
        kind,
        config,
        asid,
        mount_id,
        next_syscall: 1,
        reqs: ReqTable::new(ep),
        ops: BTreeMap::new(),
        completed: VecDeque::new(),
        dentries: BTreeMap::new(),
        attrs: BTreeMap::new(),
        fds: Vec::new(),
        ring: StagingRing::new(ring, ring_asid, CLIENT_RING),
        pageio: PageIo::default(),
        stats: ClientStats::default(),
    });
    Ok(id)
}

impl OrfsClient {
    /// Requests the request table has room for (flat in steady state;
    /// asserted by `tests/hotpath_alloc.rs`).
    pub fn request_table_capacity(&self) -> usize {
        self.reqs.capacity()
    }

    pub fn file(&self, fd: u32) -> Result<OpenFile, OrfsError> {
        self.fds
            .get(fd as usize)
            .and_then(|f| *f)
            .ok_or(OrfsError::BadHandle)
    }

    fn file_mut(&mut self, fd: u32) -> Result<&mut OpenFile, OrfsError> {
        self.fds
            .get_mut(fd as usize)
            .and_then(|f| f.as_mut())
            .ok_or(OrfsError::BadHandle)
    }

    fn alloc_fd(&mut self, f: OpenFile) -> u32 {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(f);
                return i as u32;
            }
        }
        self.fds.push(Some(f));
        (self.fds.len() - 1) as u32
    }
}

// ---- syscall entry points --------------------------------------------------------

/// Charge the cost of entering the client for one operation: syscall + VFS
/// walk for the kernel client, nothing but the library call for ORFA.
fn charge_entry<W: OrfsWorld>(w: &mut W, cid: OrfsClientId) {
    let (node, kind) = {
        let c = w.orfs().client(cid);
        (c.ep.node, c.kind)
    };
    let cost = match kind {
        ClientKind::KernelVfs => {
            let m = &w.os().node(node).cpu.model;
            m.syscall + m.vfs_call
        }
        ClientKind::UserLib => SimTime::from_nanos(120),
    };
    cpu_charge(w, node, cost);
    w.orfs_mut().client_mut(cid).stats.syscalls += 1;
}

fn new_syscall<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, st: OpState) -> SyscallId {
    let c = w.orfs_mut().client_mut(cid);
    let sid = c.next_syscall;
    c.next_syscall += 1;
    c.ops.insert(sid, st);
    sid
}

/// A syscall refused at entry (bad descriptor, bad path): it still gets an
/// id, and completes with `e`.
fn refuse<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, e: OrfsError) -> SyscallId {
    let kind = MetaKind::Generic;
    let sid = new_syscall(w, cid, OpState::MetaWait { kind });
    finish(w, cid, sid, Err(e));
    sid
}

/// The op record of a buffered read or write of `fd` (`file`).
fn buffered_op<W: OrfsWorld>(
    w: &W,
    cid: OrfsClientId,
    fd: u32,
    file: OpenFile,
    buf: MemRef,
    offset: u64,
) -> Buffered {
    let pages = PageKey {
        mount: w.orfs().client(cid).mount_id,
        inode: file.ino,
        index: 0,
    };
    let cur = Cursor::new(pages, buf, offset);
    Buffered { fd, cur }
}

/// Complete `sid` with `r`. An op that ends while it owns in-flight pages
/// gives their frames back, and the ops parked on them fetch for
/// themselves.
fn finish<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, sid: SyscallId, r: SysResult) {
    let node = w.orfs().client(cid).ep.node;
    pageio::when_drained(w, node, move |w: &mut W| {
        w.orfs_mut().client_mut(cid).completed.push_back((sid, r));
    });
    w.orfs_mut().client_mut(cid).ops.remove(&sid);
    for parked in pageio::abandoned(w, node, engine(cid), sid) {
        resume(w, cid, parked);
    }
}

/// Selects client `cid`'s cached-I/O engine state inside the world.
fn engine<W: OrfsWorld>(cid: OrfsClientId) -> impl Fn(&mut W) -> &mut PageIo {
    move |w| &mut w.orfs_mut().client_mut(cid).pageio
}

/// Continue a buffered op that was waiting on the page-cache.
fn resume<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, sid: SyscallId) {
    match w.orfs().client(cid).ops.get(&sid) {
        Some(OpState::BufferedRead(_)) => advance_buffered_read(w, cid, sid),
        Some(OpState::BufferedWrite(_)) => advance_buffered_write(w, cid, sid),
        _ => {}
    }
}

fn split_path(path: &str) -> Result<Vec<String>, OrfsError> {
    if !path.starts_with('/') {
        return Err(OrfsError::Fs(FsError::InvalidPath));
    }
    Ok(path
        .split('/')
        .filter(|c| !c.is_empty())
        .map(String::from)
        .collect())
}

/// `open(path)`; `direct` requests `O_DIRECT`.
pub fn op_open<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, path: &str, direct: bool) -> SyscallId {
    charge_entry(w, cid);
    start_resolve(w, cid, path, AfterResolve::Open { direct })
}

/// `stat(path)`.
pub fn op_stat<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, path: &str) -> SyscallId {
    charge_entry(w, cid);
    start_resolve(w, cid, path, AfterResolve::Stat)
}

/// `readdir(path)`.
pub fn op_readdir<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, path: &str) -> SyscallId {
    charge_entry(w, cid);
    start_resolve(w, cid, path, AfterResolve::Readdir)
}

/// `readlink(path)`.
pub fn op_readlink<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, path: &str) -> SyscallId {
    charge_entry(w, cid);
    start_resolve(w, cid, path, AfterResolve::Readlink)
}

/// `truncate(path, size)`.
pub fn op_truncate<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, path: &str, size: u64) -> SyscallId {
    charge_entry(w, cid);
    start_resolve(w, cid, path, AfterResolve::Truncate { size })
}

/// `creat(path, mode)`.
pub fn op_create<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, path: &str, mode: u16) -> SyscallId {
    charge_entry(w, cid);
    start_resolve(w, cid, path, AfterResolve::NameOp(NameOp::Create { mode }))
}

/// `mkdir(path, mode)`.
pub fn op_mkdir<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, path: &str, mode: u16) -> SyscallId {
    charge_entry(w, cid);
    start_resolve(w, cid, path, AfterResolve::NameOp(NameOp::Mkdir { mode }))
}

/// `unlink(path)`.
pub fn op_unlink<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, path: &str) -> SyscallId {
    charge_entry(w, cid);
    start_resolve(w, cid, path, AfterResolve::NameOp(NameOp::Unlink))
}

/// `rmdir(path)`.
pub fn op_rmdir<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, path: &str) -> SyscallId {
    charge_entry(w, cid);
    start_resolve(w, cid, path, AfterResolve::NameOp(NameOp::Rmdir))
}

/// `symlink(target, path)`.
pub fn op_symlink<W: OrfsWorld>(
    w: &mut W,
    cid: OrfsClientId,
    path: &str,
    target: &str,
) -> SyscallId {
    charge_entry(w, cid);
    start_resolve(
        w,
        cid,
        path,
        AfterResolve::NameOp(NameOp::Symlink {
            target: target.to_string(),
        }),
    )
}

/// `pread(fd, dest, offset)` — `dest.len()` bytes into `dest`.
pub fn op_read<W: OrfsWorld>(
    w: &mut W,
    cid: OrfsClientId,
    fd: u32,
    dest: MemRef,
    offset: u64,
) -> SyscallId {
    charge_entry(w, cid);
    let file = match w.orfs().client(cid).file(fd) {
        Ok(f) => f,
        Err(e) => return refuse(w, cid, e),
    };
    let use_pagecache = w.orfs().client(cid).kind == ClientKind::KernelVfs && !file.direct;
    if use_pagecache {
        let st = OpState::BufferedRead(buffered_op(w, cid, fd, file, dest, offset));
        let sid = new_syscall(w, cid, st);
        advance_buffered_read(w, cid, sid);
        sid
    } else {
        // Direct (and ORFA): one request, reply lands zero-copy in `dest`.
        let len = dest.len().min(file.size.saturating_sub(offset));
        let sid = new_syscall(w, cid, OpState::DirectRead);
        if len == 0 {
            finish(w, cid, sid, Ok(SysRet::Bytes(0)));
            return sid;
        }
        let shrunk = IoVec::single(dest.sub_range(0, len));
        request_read(w, cid, sid, file.handle, offset, len, shrunk);
        sid
    }
}

/// `pwrite(fd, src, offset)`.
pub fn op_write<W: OrfsWorld>(
    w: &mut W,
    cid: OrfsClientId,
    fd: u32,
    src: MemRef,
    offset: u64,
) -> SyscallId {
    charge_entry(w, cid);
    let file = match w.orfs().client(cid).file(fd) {
        Ok(f) => f,
        Err(e) => return refuse(w, cid, e),
    };
    let buffered = w.orfs().client(cid).kind == ClientKind::KernelVfs && !file.direct;
    if buffered {
        let st = OpState::BufferedWrite(buffered_op(w, cid, fd, file, src, offset));
        let sid = new_syscall(w, cid, st);
        advance_buffered_write(w, cid, sid);
        sid
    } else {
        let sid = new_syscall(w, cid, OpState::DirectWrite { fd });
        send_write_request(w, cid, sid, file.handle, offset, src);
        sid
    }
}

/// `fsync(fd)`: write back the file's dirty pages.
pub fn op_fsync<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, fd: u32) -> SyscallId {
    start_flush(w, cid, fd, false)
}

/// `close(fd)`: flush (buffered files), then release the server handle.
pub fn op_close<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, fd: u32) -> SyscallId {
    start_flush(w, cid, fd, true)
}

/// Write back `fd`'s dirty pages one request at a time (with none dirty,
/// `advance_flush` goes straight to the end), then close it if asked.
fn start_flush<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, fd: u32, then_close: bool) -> SyscallId {
    charge_entry(w, cid);
    let file = match w.orfs().client(cid).file(fd) {
        Ok(file) => file,
        Err(e) => return refuse(w, cid, e),
    };
    let flush = build_flush(w, cid, fd, file, then_close);
    let sid = new_syscall(w, cid, OpState::Flush(flush));
    advance_flush(w, cid, sid);
    sid
}

fn build_flush<W: OrfsWorld>(
    w: &mut W,
    cid: OrfsClientId,
    fd: u32,
    file: OpenFile,
    then_close: bool,
) -> Flush {
    let (node, mount) = {
        let c = w.orfs().client(cid);
        (c.ep.node, c.mount_id)
    };
    let dirty = w.os().node(node).page_cache.dirty_pages(mount, file.ino);
    let pages = dirty
        .iter()
        .map(|(k, _)| {
            let valid = (file.size.saturating_sub(k.index * PAGE_SIZE)).min(PAGE_SIZE);
            (k.index, valid)
        })
        .filter(|(_, v)| *v > 0)
        .collect();
    Flush {
        fd,
        ino: file.ino,
        pages,
        idx: 0,
        then_close,
    }
}

// ---- resolution ------------------------------------------------------------------

fn start_resolve<W: OrfsWorld>(
    w: &mut W,
    cid: OrfsClientId,
    path: &str,
    then: AfterResolve,
) -> SyscallId {
    let parts = match split_path(path) {
        Ok(p) => p,
        Err(e) => return refuse(w, cid, e),
    };
    let st = OpState::Resolve {
        parts,
        idx: 0,
        cur: knet_simfs::InodeNo::ROOT.0,
        then,
    };
    let sid = new_syscall(w, cid, st);
    advance_resolve(w, cid, sid);
    sid
}

/// Continue a resolve: consume cached components, issue a lookup for the
/// first uncached one, or proceed to the `then` action.
fn advance_resolve<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, sid: SyscallId) {
    {
        let (parts, mut idx, mut cur, then) = {
            let c = w.orfs().client(cid);
            match c.ops.get(&sid) {
                Some(OpState::Resolve {
                    parts,
                    idx,
                    cur,
                    then,
                }) => (parts.clone(), *idx, *cur, then.clone()),
                _ => return,
            }
        };
        // Components that must remain unresolved for name ops: the last one.
        let stop_before_last = matches!(then, AfterResolve::NameOp(_));
        let end = if stop_before_last {
            parts.len().saturating_sub(1)
        } else {
            parts.len()
        };
        // Walk cached dentries (kernel client only).
        let use_cache = w.orfs().client(cid).kind == ClientKind::KernelVfs;
        while idx < end {
            let key = (cur, parts[idx].clone());
            let cached = use_cache
                .then(|| w.orfs().client(cid).dentries.get(&key).copied())
                .flatten();
            match cached {
                Some(child) => {
                    w.orfs_mut().client_mut(cid).stats.dentry_hits += 1;
                    cur = child;
                    idx += 1;
                }
                None => {
                    w.orfs_mut().client_mut(cid).stats.dentry_misses += 1;
                    // Issue the lookup and wait.
                    {
                        let c = w.orfs_mut().client_mut(cid);
                        if let Some(OpState::Resolve {
                            idx: i, cur: c2, ..
                        }) = c.ops.get_mut(&sid)
                        {
                            *i = idx;
                            *c2 = cur;
                        }
                    }
                    let name = parts[idx].clone();
                    send_request(w, cid, sid, &Request::Lookup { dir: cur, name });
                    return;
                }
            }
        }
        // Resolution finished; dispatch the continuation.
        match then {
            AfterResolve::Open { direct } => {
                let c = w.orfs_mut().client_mut(cid);
                c.ops.insert(sid, OpState::OpenWait { ino: cur, direct });
                send_request(w, cid, sid, &Request::Open { ino: cur });
            }
            AfterResolve::Stat => {
                // Attribute cache (kernel client).
                if use_cache {
                    if let Some(a) = w.orfs().client(cid).attrs.get(&cur).copied() {
                        finish(w, cid, sid, Ok(SysRet::Attr(a)));
                        return;
                    }
                }
                await_meta(w, cid, sid, MetaKind::Stat, &Request::Getattr { ino: cur });
            }
            AfterResolve::Readdir => {
                await_meta(
                    w,
                    cid,
                    sid,
                    MetaKind::Readdir,
                    &Request::Readdir { ino: cur },
                );
            }
            AfterResolve::Readlink => {
                await_meta(
                    w,
                    cid,
                    sid,
                    MetaKind::Readlink,
                    &Request::Readlink { ino: cur },
                );
            }
            AfterResolve::Truncate { size } => {
                w.orfs_mut().client_mut(cid).attrs.remove(&cur);
                let req = Request::Truncate { ino: cur, size };
                await_meta(w, cid, sid, MetaKind::Generic, &req);
            }
            AfterResolve::NameOp(op) => {
                let name = parts.last().cloned().unwrap_or_default();
                let (req, kind) = match op {
                    NameOp::Create { mode } => (
                        Request::Create {
                            dir: cur,
                            name: name.clone(),
                            mode,
                        },
                        MetaKind::CreateLike {
                            dir: cur,
                            name: name.clone(),
                        },
                    ),
                    NameOp::Mkdir { mode } => (
                        Request::Mkdir {
                            dir: cur,
                            name: name.clone(),
                            mode,
                        },
                        MetaKind::CreateLike {
                            dir: cur,
                            name: name.clone(),
                        },
                    ),
                    NameOp::Unlink => (
                        Request::Unlink {
                            dir: cur,
                            name: name.clone(),
                        },
                        MetaKind::Lookup {
                            dir: cur,
                            name: name.clone(),
                        },
                    ),
                    NameOp::Rmdir => (
                        Request::Rmdir {
                            dir: cur,
                            name: name.clone(),
                        },
                        MetaKind::Lookup {
                            dir: cur,
                            name: name.clone(),
                        },
                    ),
                    NameOp::Symlink { target } => (
                        Request::Symlink {
                            dir: cur,
                            name: name.clone(),
                            target,
                        },
                        MetaKind::Generic,
                    ),
                };
                // Drop any stale cache entry for mutated names.
                if let MetaKind::Lookup { dir, name } | MetaKind::CreateLike { dir, name } = &kind {
                    let key = (*dir, name.clone());
                    w.orfs_mut().client_mut(cid).dentries.remove(&key);
                }
                await_meta(w, cid, sid, kind, &req);
            }
        }
    }
}

// ---- request plumbing ------------------------------------------------------------

/// Mint a request id bound to `sid` (lets callers post the reply buffer
/// *before* the request leaves — the reply must never race the buffer).
fn alloc_reqid<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, sid: SyscallId) -> u64 {
    let c = w.orfs_mut().client_mut(cid);
    c.stats.requests += 1;
    c.reqs.mint(sid)
}

/// A request will never be answered (one of its sends was rejected or
/// dropped): withdraw any reply buffer posted under the request id and
/// fail the syscall — silently dropping it would hang the operation
/// forever.
fn fail_request<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, reqid: u64, sid: SyscallId) {
    let ch = w.orfs().client(cid).ch;
    channel_cancel_recv(w, ch, reqid);
    finish(w, cid, sid, Err(OrfsError::Net));
}

/// Submit one message of request `reqid` under wire tag `tag`; a
/// synchronous rejection fails the request now. Returns whether the send
/// was accepted.
fn submit<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, tag: u64, reqid: u64, iov: IoVec) -> bool {
    let ch = w.orfs().client(cid).ch;
    let sent = channel_send_request(w, ch, tag, reqid, iov, |w| {
        &mut w.orfs_mut().client_mut(cid).reqs
    });
    if let Err((_, Some(sid))) = sent {
        fail_request(w, cid, reqid, sid);
    }
    sent.is_ok()
}

/// Stage `parts` end to end in the client's ring. Every caller's total is
/// bounded far below it: one encoded request header (names reach a file
/// system through the VFS, which bounds them), plus at most
/// `WRITE_INLINE_MAX` bytes of GM-coalesced payload.
fn stage<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, parts: &[&[u8]]) -> MemRef {
    let node = w.orfs().client(cid).ep.node;
    ring_stage(w, node, |w| &mut w.orfs_mut().client_mut(cid).ring, parts)
        .expect("a request header + WRITE_INLINE_MAX fits the client ring")
}

/// Encode and send a metadata request (small message from the staging ring).
fn send_request<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, sid: SyscallId, req: &Request) -> u64 {
    let reqid = alloc_reqid(w, cid, sid);
    send_request_with_id(w, cid, reqid, req);
    reqid
}

/// Send metadata request `req` for `sid`; its response finishes the op as
/// `kind` says.
fn await_meta<W: OrfsWorld>(
    w: &mut W,
    cid: OrfsClientId,
    sid: SyscallId,
    kind: MetaKind,
    req: &Request,
) {
    let c = w.orfs_mut().client_mut(cid);
    c.ops.insert(sid, OpState::MetaWait { kind });
    send_request(w, cid, sid, req);
}

/// Encode and send a request under a pre-allocated id.
fn send_request_with_id<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, reqid: u64, req: &Request) {
    let node = w.orfs().client(cid).ep.node;
    cpu_charge(w, node, codec_cost());
    let seg = stage(w, cid, &[&req.encode()]);
    submit(w, cid, reqid, reqid, IoVec::single(seg));
}

/// Ask for `len` bytes at `offset` of `handle` to land in `iov`. The
/// destination is prepared *first*: the buffer (registration, pinning) must
/// be ready before the server can reply into it.
fn request_read<W: OrfsWorld>(
    w: &mut W,
    cid: OrfsClientId,
    sid: SyscallId,
    handle: u32,
    offset: u64,
    len: u64,
    iov: IoVec,
) {
    let reqid = alloc_reqid(w, cid, sid);
    let ch = w.orfs().client(cid).ch;
    let _ = channel_post_recv(w, ch, reqid, iov);
    let req = Request::Read {
        handle,
        offset,
        len,
    };
    send_request_with_id(w, cid, reqid, &req);
}

/// Send a write request with payload: vectorial on MX (header ++ data, no
/// copy), coalesced through the ring on GM (one extra copy — §4.1).
fn send_write_request<W: OrfsWorld>(
    w: &mut W,
    cid: OrfsClientId,
    sid: SyscallId,
    handle: u32,
    offset: u64,
    src: MemRef,
) -> u64 {
    let ep = w.orfs().client(cid).ep;
    let node = ep.node;
    let len = src.len();
    let req = Request::Write {
        handle,
        offset,
        len,
    };
    cpu_charge(w, node, codec_cost());
    let header = req.encode();
    let reqid = alloc_reqid(w, cid, sid);
    if len > WRITE_INLINE_MAX {
        // Announced write: header first; the payload follows as a separate
        // tagged message once the server has posted its staging buffer.
        // (The announcement is tiny, so the server's post always wins the
        // race for eager transports; MX large messages rendezvous anyway.)
        let seg = stage(w, cid, &[&header]);
        if submit(w, cid, reqid, reqid, IoVec::single(seg)) {
            submit(w, cid, reqid | DATA_TAG_BIT, reqid, IoVec::single(src));
        }
        return reqid;
    }
    let iov = match ep.kind {
        TransportKind::Mx => {
            // Vectorial: header from the ring, data straight from source.
            IoVec::from_segs(vec![stage(w, cid, &[&header]), src])
        }
        TransportKind::Gm => {
            // GM cannot gather: coalesce header + data into the ring,
            // paying a host copy of the payload (§4.1).
            let data =
                knet_core::read_iovec(w.os().node(node), &IoVec::single(src)).unwrap_or_default();
            let seg = stage(w, cid, &[&header, &data]);
            let copy = w.os().node(node).cpu.model.ring_copy_cost(len);
            cpu_charge(w, node, copy);
            IoVec::single(seg)
        }
    };
    submit(w, cid, reqid, reqid, iov);
    reqid
}

// ---- buffered I/O ------------------------------------------------------------------

/// What a cached-I/O engine failure means to a syscall.
fn io_error(e: NetError) -> OrfsError {
    match e {
        NetError::Os(knet_simos::OsError::OutOfMemory) => OrfsError::Fs(FsError::NoSpace),
        _ => OrfsError::Fault,
    }
}

/// Request `run` of file `handle` into the page-cache frames `iov` names:
/// their *physical* addresses are handed to the transport.
fn fetch_pages<W: OrfsWorld>(
    w: &mut W,
    cid: OrfsClientId,
    sid: SyscallId,
    handle: u32,
    run: Run,
    iov: IoVec,
) {
    w.orfs_mut().client_mut(cid).stats.page_misses += 1;
    let (offset, len) = (run.first.index * PAGE_SIZE, run.count * PAGE_SIZE);
    request_read(w, cid, sid, handle, offset, len, iov);
}

/// Advance a buffered read through the cached-I/O engine: copy from cached
/// pages, or fetch the next run of missing ones from the server. What is
/// ORFS's own: the EOF clamp, and combining a run into one vectorial
/// request (the Linux 2.6 behaviour of §3.3; requires MX).
fn advance_buffered_read<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, sid: SyscallId) {
    let c = w.orfs().client(cid);
    let Some(OpState::BufferedRead(mut br)) = c.ops.get(&sid).cloned() else {
        return;
    };
    let node = c.ep.node;
    let max_run = if c.config.combine_pages && c.ep.kind == TransportKind::Mx {
        c.config.max_combine
    } else {
        1
    };
    let file = match c.file(br.fd) {
        Ok(f) => f,
        Err(e) => return finish(w, cid, sid, Err(e)),
    };
    let (len, offset) = (br.cur.buf.len(), br.cur.offset);
    let want = len.min(file.size.saturating_sub(offset));
    let step = pageio::read_step(w, node, engine(cid), &mut br.cur, sid, want, max_run);
    let done = br.cur.done;
    let c = w.orfs_mut().client_mut(cid);
    c.stats.page_hits += step.hits;
    c.stats.bytes_read += step.copied;
    c.ops.insert(sid, OpState::BufferedRead(br));
    match step.then {
        Then::Done => finish(w, cid, sid, Ok(SysRet::Bytes(done))),
        Then::Parked => {}
        Then::Failed(e) => finish(w, cid, sid, Err(io_error(e))),
        Then::Fetch { run, iov } => fetch_pages(w, cid, sid, file.handle, run, iov),
    }
}

/// Advance a buffered write: fill page-cache pages (read-modify-write for
/// partial pages over existing data), mark dirty; completion is local.
/// Whether a page must be read first is ORFS's decision — it needs the
/// file's size.
fn advance_buffered_write<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, sid: SyscallId) {
    let node = w.orfs().client(cid).ep.node;
    loop {
        let c = w.orfs().client(cid);
        let Some(&OpState::BufferedWrite(Buffered { fd, cur })) = c.ops.get(&sid) else {
            return;
        };
        let len = cur.buf.len();
        if cur.done >= len {
            // Update size locally.
            let c = w.orfs_mut().client_mut(cid);
            if let Ok(f) = c.file_mut(fd) {
                f.size = f.size.max(cur.offset + len);
            }
            c.attrs.remove(&cur.file.inode);
            c.stats.bytes_written += len;
            return finish(w, cid, sid, Ok(SysRet::Bytes(len)));
        }
        let file = match c.file(fd) {
            Ok(f) => f,
            Err(e) => return finish(w, cid, sid, Err(e)),
        };
        let (key, page_off, n) = cur.next_page(len);
        let covers_whole = page_off == 0 && n == PAGE_SIZE;
        let beyond_eof = key.index * PAGE_SIZE >= file.size;
        match pageio::probe(w, node, engine(cid), key, sid) {
            Probe::Uptodate(_) => {}
            // No read needed: copy-in allocates the page as-is.
            Probe::Absent if covers_whole || beyond_eof => {}
            Probe::Absent => {
                // Partial write over existing data: fetch the page first.
                let run = Run {
                    first: key,
                    count: 1,
                };
                return match pageio::fetch(w, node, engine(cid), sid, run) {
                    Ok(iov) => fetch_pages(w, cid, sid, file.handle, run, iov),
                    Err(e) => finish(w, cid, sid, Err(io_error(e))),
                };
            }
            Probe::InFlight => return,
        }
        // Copy user → page.
        let src = cur.buf.sub_range(cur.done, n);
        if let Err(e) = pageio::copy_in(w, node, engine(cid), key, page_off, src, Fill::Dirty) {
            return finish(w, cid, sid, Err(io_error(e)));
        }
        pageio::charge_copy(w, node, n);
        let c = w.orfs_mut().client_mut(cid);
        c.stats.page_hits += 1;
        if let Some(OpState::BufferedWrite(b)) = c.ops.get_mut(&sid) {
            b.cur.done += n;
        }
    }
}

/// Advance a flush: send the next dirty page as a write request.
fn advance_flush<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, sid: SyscallId) {
    let (node, mount) = {
        let c = w.orfs().client(cid);
        (c.ep.node, c.mount_id)
    };
    let fl = {
        let c = w.orfs().client(cid);
        match c.ops.get(&sid) {
            Some(OpState::Flush(f)) => f.clone(),
            _ => return,
        }
    };
    if fl.idx >= fl.pages.len() {
        // All pages written back.
        if fl.then_close {
            match w.orfs().client(cid).file(fl.fd) {
                Ok(f) => {
                    let (kind, handle) = (MetaKind::Close { fd: fl.fd }, f.handle);
                    await_meta(w, cid, sid, kind, &Request::Close { handle });
                }
                Err(e) => finish(w, cid, sid, Err(e)),
            }
        } else {
            finish(w, cid, sid, Ok(SysRet::Unit));
        }
        return;
    }
    let (page_idx, valid) = fl.pages[fl.idx];
    let key = PageKey {
        mount,
        inode: fl.ino,
        index: page_idx,
    };
    let frame = w.os().node(node).page_cache.peek(key).map(|p| p.frame);
    let Some(frame) = frame else {
        // Page vanished (should not happen); skip it.
        let c = w.orfs_mut().client_mut(cid);
        if let Some(OpState::Flush(f)) = c.ops.get_mut(&sid) {
            f.idx += 1;
        }
        advance_flush(w, cid, sid);
        return;
    };
    let file = match w.orfs().client(cid).file(fl.fd) {
        Ok(f) => f,
        Err(e) => return finish(w, cid, sid, Err(e)),
    };
    w.os_mut().node_mut(node).page_cache.clear_dirty(key);
    send_write_request(
        w,
        cid,
        sid,
        file.handle,
        page_idx * PAGE_SIZE,
        MemRef::physical(frame.base(), valid),
    );
}

// ---- completion handling ----------------------------------------------------------

/// Transport upcall: an event arrived at client `cid`'s endpoint.
pub fn client_on_event<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, ev: TransportEvent) {
    match ev {
        TransportEvent::Unexpected { tag, data, .. } => {
            let Some(sid) = w.orfs_mut().client_mut(cid).reqs.finish(tag) else {
                return;
            };
            let node = w.orfs().client(cid).ep.node;
            cpu_charge(w, node, codec_cost());
            let resp = Response::decode(&data).unwrap_or(Response::Err(OrfsError::Decode));
            on_response(w, cid, sid, resp);
        }
        TransportEvent::RecvDone { tag, len, .. } => {
            // Correlate by tag: receive contexts are channel-assigned now,
            // but the reply's tag is the request id the client posted.
            let Some(sid) = w.orfs_mut().client_mut(cid).reqs.finish(tag) else {
                return;
            };
            on_data(w, cid, sid, len);
        }
        TransportEvent::SendDone { ctx } => w.orfs_mut().client_mut(cid).reqs.sent(ctx),
        TransportEvent::SendFailed { ctx, .. } => {
            // A queued request (or write payload) frame was dropped by its
            // retry: the reply will never come. Fail exactly that request's
            // syscall with a typed error instead of hanging it.
            let failed = w.orfs_mut().client_mut(cid).reqs.send_failed(ctx);
            if let Some((reqid, sid)) = failed {
                fail_request(w, cid, reqid, sid);
            }
        }
        TransportEvent::PeerDown { .. } => {
            // The server's node is gone: every in-flight operation fails
            // with a typed error — nothing may stall waiting for a reply
            // that can never arrive. The table is emptied first, so an op
            // woken by an abandoned fetch finds itself gone instead of
            // asking the dead server again.
            let c = w.orfs_mut().client_mut(cid);
            let (ch, failed, ops) = (c.ch, c.reqs.fail_all(), std::mem::take(&mut c.ops));
            for (reqid, _) in failed {
                channel_cancel_recv(w, ch, reqid);
            }
            for sid in ops.into_keys() {
                finish(w, cid, sid, Err(OrfsError::Net));
            }
        }
        // The file client does not participate in collective groups.
        TransportEvent::CollectiveDone { .. }
        | TransportEvent::CollectiveRecv { .. }
        | TransportEvent::CollectiveFailed { .. } => {}
    }
}

/// A metadata response arrived for `sid`.
fn on_response<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, sid: SyscallId, resp: Response) {
    let st = {
        let c = w.orfs().client(cid);
        match c.ops.get(&sid) {
            Some(s) => s.clone(),
            None => return,
        }
    };
    if let Response::Err(e) = resp {
        finish(w, cid, sid, Err(e));
        return;
    }
    match st {
        OpState::Resolve {
            parts, idx, cur, ..
        } => {
            let Response::Ino(child) = resp else {
                finish(w, cid, sid, Err(OrfsError::Decode));
                return;
            };
            // Cache the dentry and continue walking.
            {
                let c = w.orfs_mut().client_mut(cid);
                if c.kind == ClientKind::KernelVfs {
                    c.dentries.insert((cur, parts[idx].clone()), child);
                }
                if let Some(OpState::Resolve {
                    idx: i, cur: cu, ..
                }) = c.ops.get_mut(&sid)
                {
                    *i = idx + 1;
                    *cu = child;
                }
            }
            advance_resolve(w, cid, sid);
        }
        OpState::OpenWait { ino, direct } => {
            let Response::Handle(h) = resp else {
                finish(w, cid, sid, Err(OrfsError::Decode));
                return;
            };
            let c = w.orfs_mut().client_mut(cid);
            c.ops.insert(
                sid,
                OpState::OpenAttrWait {
                    ino,
                    handle: h,
                    direct,
                },
            );
            send_request(w, cid, sid, &Request::Getattr { ino });
        }
        OpState::OpenAttrWait {
            ino,
            handle,
            direct,
        } => {
            let Response::Attr(a) = resp else {
                finish(w, cid, sid, Err(OrfsError::Decode));
                return;
            };
            let c = w.orfs_mut().client_mut(cid);
            if c.kind == ClientKind::KernelVfs {
                c.attrs.insert(ino, a);
            }
            let fd = c.alloc_fd(OpenFile {
                ino,
                handle,
                direct,
                size: a.size,
            });
            finish(w, cid, sid, Ok(SysRet::Fd(fd)));
        }
        OpState::MetaWait { kind } => {
            let c = w.orfs_mut().client_mut(cid);
            let caches = c.kind == ClientKind::KernelVfs;
            let r = match (kind, resp) {
                (MetaKind::Stat, Response::Attr(a)) => {
                    if caches {
                        c.attrs.insert(a.ino, a);
                    }
                    Ok(SysRet::Attr(a))
                }
                (MetaKind::Readdir, Response::Entries(es)) => Ok(SysRet::Entries(es)),
                (MetaKind::Readlink, Response::Target(t)) => Ok(SysRet::Target(t)),
                (MetaKind::CreateLike { dir, name }, Response::Ino(i)) => {
                    if caches {
                        c.dentries.insert((dir, name), i);
                    }
                    Ok(SysRet::Ino(i))
                }
                // Unlink/rmdir completion: invalidate caches.
                (MetaKind::Lookup { dir, name }, _) => {
                    c.dentries.remove(&(dir, name));
                    Ok(SysRet::Unit)
                }
                (MetaKind::Close { fd }, _) => {
                    if let Some(slot) = c.fds.get_mut(fd as usize) {
                        *slot = None;
                    }
                    Ok(SysRet::Unit)
                }
                (MetaKind::Generic, Response::Written(n)) => Ok(SysRet::Bytes(n)),
                (MetaKind::Generic, Response::Unit | Response::Ino(_)) => Ok(SysRet::Unit),
                _ => Err(OrfsError::Decode),
            };
            finish(w, cid, sid, r);
        }
        OpState::DirectWrite { fd } => {
            let Response::Written(n) = resp else {
                finish(w, cid, sid, Err(OrfsError::Decode));
                return;
            };
            {
                let c = w.orfs_mut().client_mut(cid);
                c.stats.bytes_written += n;
                let end_ino = c.file(fd).map(|f| f.ino).ok();
                if let Ok(f) = c.file_mut(fd) {
                    // pwrite extends the size when needed.
                    f.size = f.size.max(n); // refined below by attrs
                }
                if let Some(i) = end_ino {
                    c.attrs.remove(&i);
                }
            }
            finish(w, cid, sid, Ok(SysRet::Bytes(n)));
        }
        OpState::Flush(mut fl) => {
            // One page acknowledged; move on.
            if let Response::Written(_) = resp {
                fl.idx += 1;
                let c = w.orfs_mut().client_mut(cid);
                c.ops.insert(sid, OpState::Flush(fl));
                advance_flush(w, cid, sid);
            } else {
                finish(w, cid, sid, Err(OrfsError::Decode));
            }
        }
        OpState::DirectRead | OpState::BufferedRead(_) | OpState::BufferedWrite(_) => {
            // Data ops complete through RecvDone, not metadata responses.
            finish(w, cid, sid, Err(OrfsError::Decode));
        }
    }
}

/// A data message landed in a posted buffer for `sid` (`len` bytes).
fn on_data<W: OrfsWorld>(w: &mut W, cid: OrfsClientId, sid: SyscallId, len: u64) {
    match w.orfs().client(cid).ops.get(&sid) {
        Some(OpState::DirectRead) => {
            w.orfs_mut().client_mut(cid).stats.bytes_read += len;
            finish(w, cid, sid, Ok(SysRet::Bytes(len)));
        }
        Some(OpState::BufferedRead(_) | OpState::BufferedWrite(_)) => {
            // The run this op was fetching landed: its pages are up to
            // date. Continue the op, then whoever was parked on them.
            let node = w.orfs().client(cid).ep.node;
            let parked = pageio::landed(w, node, engine(cid), sid);
            resume(w, cid, sid);
            for sid in parked {
                resume(w, cid, sid);
            }
        }
        _ => {}
    }
}
