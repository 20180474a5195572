//! The cached-I/O engine: everything between a storage client's op record
//! and its node's [`PageCache`](knet_simos::PageCache), once.
//!
//! The paper's buffered file path (§2.3.1) and the block device it predicts
//! (§6) do the same thing toward the page-cache: walk the pages an op
//! covers, copy the cached ones to or from the caller's buffer, and fetch
//! the missing ones into freshly inserted, pinned frames whose *physical*
//! addresses go straight to the transport. This module is that walk. It
//! never sends and never asks which client is calling: a miss *returns* the
//! frames for the client to request in its own wire format, and what
//! differs between clients (run length, EOF clamp, dirty or only up to
//! date) arrives as values.
//!
//! It is also the one implementation of the page lifecycle. A page is
//! **absent**, **in flight** (cached, not up to date: its frame is posted
//! to the transport and exactly one op's fetch owns it) or **up to date**.
//! An op that meets an in-flight page neither inserts nor copies: it parks
//! until that fetch has [`landed`] or was [`abandoned`] — and an abandoned
//! fetch gives its never-filled frames back, so no pinned frame outlives
//! the op that inserted it. A page-cache namespace (an ORFS mount, an NBD
//! device id) belongs to one client, so who owns and who waits is kept in
//! that client's [`PageIo`].

use knet_simos::{cpu_charge, FrameIdx, NodeId, NodeOs, OsWorld, PageKey, PAGE_SIZE};

use crate::error::NetError;
use crate::iovec::{read_iovec_into, write_iovec, IoVec, MemRef};

/// `count` consecutive pages of one cached object, starting at `first`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Run {
    pub first: PageKey,
    pub count: u64,
}

impl Run {
    fn keys(self) -> impl Iterator<Item = PageKey> {
        let page = move |i| PageKey {
            index: self.first.index + i,
            ..self.first
        };
        (0..self.count).map(page)
    }
}

/// One client's engine state. Ops are named by the `u64` their client
/// knows them by (a syscall id, a block-op id).
#[derive(Default)]
pub struct PageIo {
    /// The recycled bounce buffer every page ↔ buffer copy goes through.
    scratch: Vec<u8>,
    /// Fetches in flight: the op that owns each run of in-flight pages.
    fetches: Vec<(u64, Run)>,
    /// Ops parked on an in-flight page.
    parked: Vec<(PageKey, u64)>,
}

impl PageIo {
    /// No fetch in flight, no op parked: every page inserted has settled.
    pub fn is_idle(&self) -> bool {
        self.fetches.is_empty() && self.parked.is_empty()
    }
}

/// Where [`probe`] found a page in its lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Probe {
    Absent,
    /// Someone's fetch owns it; the prober is parked until that ends.
    InFlight,
    Uptodate(FrameIdx),
}

/// Look `key` up for op `waiter` (counting a page-cache hit or miss). The
/// one thing to do with an in-flight page is wait, so `waiter` is parked.
pub fn probe<W: OsWorld>(
    w: &mut W,
    node: NodeId,
    io: impl Fn(&mut W) -> &mut PageIo,
    key: PageKey,
    waiter: u64,
) -> Probe {
    match w.os_mut().node_mut(node).page_cache.lookup(key) {
        None => Probe::Absent,
        Some(page) if page.uptodate => Probe::Uptodate(page.frame),
        Some(_) => {
            io(w).parked.push((key, waiter));
            Probe::InFlight
        }
    }
}

/// A buffered op in progress: `buf.len()` bytes between `buf` and the
/// cached object whose page 0 is `file`, from byte `offset` of the object;
/// `done` of them moved so far.
#[derive(Clone, Copy, Debug)]
pub struct Cursor {
    pub file: PageKey,
    pub buf: MemRef,
    pub offset: u64,
    pub done: u64,
}

impl Cursor {
    pub fn new(file: PageKey, buf: MemRef, offset: u64) -> Self {
        Cursor {
            file,
            buf,
            offset,
            done: 0,
        }
    }

    /// The next page to touch on the way to `want` bytes: its key, where in
    /// it the op continues, and how many of its bytes the op covers.
    pub fn next_page(&self, want: u64) -> (PageKey, u64, u64) {
        let pos = self.offset + self.done;
        let key = PageKey {
            index: pos / PAGE_SIZE,
            ..self.file
        };
        let page_off = pos % PAGE_SIZE;
        (key, page_off, (PAGE_SIZE - page_off).min(want - self.done))
    }
}

/// How a [`read_step`] ended.
#[derive(Debug)]
pub enum Then {
    /// Every wanted byte is in the caller's buffer.
    Done,
    /// A miss: `run`'s frames are inserted, in flight and owned by the
    /// stepping op. The client requests them into `iov` (their physical
    /// addresses), then reports [`landed`] or [`abandoned`].
    Fetch { run: Run, iov: IoVec },
    /// The next page is in flight under another op's fetch.
    Parked,
    /// The caller's buffer faulted, or no frame could be allocated.
    Failed(NetError),
}

/// What one [`read_step`] did: pages copied out of the cache, the bytes
/// they carried, and why the walk stopped.
#[derive(Debug)]
pub struct ReadStep {
    pub hits: u64,
    pub copied: u64,
    pub then: Then,
}

/// Advance op `owner`'s read toward `want` bytes (the client's clamp of the
/// cursor's length — EOF): copy cached pages out, charging one
/// `memcpy_cost` per page, until done or until a page is not up to date. A
/// miss inserts a run of up to `max_run` absent pages, never past the last
/// page wanted and never across a page that is already cached.
pub fn read_step<W: OsWorld>(
    w: &mut W,
    node: NodeId,
    io: impl Fn(&mut W) -> &mut PageIo,
    cur: &mut Cursor,
    owner: u64,
    want: u64,
    max_run: u64,
) -> ReadStep {
    let mut scratch = std::mem::take(&mut io(w).scratch);
    let (mut hits, mut copied) = (0, 0);
    let then = loop {
        if cur.done >= want {
            break Then::Done;
        }
        let (key, page_off, n) = cur.next_page(want);
        match probe(w, node, &io, key, owner) {
            Probe::Uptodate(frame) => {
                scratch.resize(n as usize, 0);
                let os = w.os_mut().node_mut(node);
                os.mem
                    .read(frame.base().add(page_off), &mut scratch)
                    .expect("a cached frame is readable");
                let dest = IoVec::single(cur.buf.sub_range(cur.done, n));
                if let Err(e) = write_iovec(os, &dest, &scratch) {
                    break Then::Failed(e);
                }
                charge_copy(w, node, n);
                cur.done += n;
                hits += 1;
                copied += n;
            }
            Probe::InFlight => break Then::Parked,
            Probe::Absent => {
                let cache = &w.os().node(node).page_cache;
                let last_wanted = (cur.offset + want - 1) / PAGE_SIZE;
                let absent = |index| cache.peek(PageKey { index, ..key }).is_none();
                let mut run = Run {
                    first: key,
                    count: 1,
                };
                while run.count < max_run
                    && key.index + run.count <= last_wanted
                    && absent(key.index + run.count)
                {
                    run.count += 1;
                }
                break match fetch(w, node, &io, owner, run) {
                    Ok(iov) => Then::Fetch { run, iov },
                    Err(e) => Then::Failed(e),
                };
            }
        }
    };
    io(w).scratch = scratch;
    ReadStep { hits, copied, then }
}

/// Insert `run`'s (absent) pages — in flight from here, owned by `owner` —
/// and return their frames' physical addresses for the transport. When the
/// node runs out of frames midway, the pages inserted so far are given back
/// and nothing stays cached.
pub fn fetch<W: OsWorld>(
    w: &mut W,
    node: NodeId,
    io: impl Fn(&mut W) -> &mut PageIo,
    owner: u64,
    run: Run,
) -> Result<IoVec, NetError> {
    let os = w.os_mut().node_mut(node);
    let mut iov = IoVec::new();
    for key in run.keys() {
        match os.page_cache.insert(&mut os.mem, key) {
            Ok(page) => iov.push(MemRef::physical(page.frame.base(), PAGE_SIZE)),
            Err(e) => {
                run.keys().for_each(|key| evict_if(os, key, false));
                return Err(e.into());
            }
        }
    }
    io(w).fetches.push((owner, run));
    Ok(iov)
}

/// How copy-in leaves the page: a write-back cache marks it dirty, a
/// write-through cache only up to date.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fill {
    Dirty,
    Uptodate,
}

/// Copy-in: fill `key`'s page from byte `page_off` with the bytes of `src`
/// (at most to the page's end), inserting the page if it is absent. `src`
/// is read before the cache is touched, so a faulting buffer leaves no page
/// behind and no cached byte changed. The caller charges the copy
/// ([`charge_copy`]) — per page or once per syscall is its cost model —
/// and, if it can wait, [`probe`]s first: a page in flight is filled as it
/// is, and the landing fetch then overwrites it.
pub fn copy_in<W: OsWorld>(
    w: &mut W,
    node: NodeId,
    io: impl Fn(&mut W) -> &mut PageIo,
    key: PageKey,
    page_off: u64,
    src: MemRef,
    fill: Fill,
) -> Result<(), NetError> {
    debug_assert!(page_off + src.len() <= PAGE_SIZE, "copy-in stays in a page");
    let mut scratch = std::mem::take(&mut io(w).scratch);
    let os = w.os_mut().node_mut(node);
    let filled = read_iovec_into(os, &IoVec::single(src), &mut scratch)
        .and_then(|()| fill_page(os, key, page_off, &scratch, fill));
    io(w).scratch = scratch;
    filled
}

/// [`copy_in`] from bytes the caller already holds: a write-through client
/// that read its source once fills the cache with exactly the bytes it
/// sends, however long the op waited on a page in flight.
pub fn copy_in_bytes<W: OsWorld>(
    w: &mut W,
    node: NodeId,
    key: PageKey,
    page_off: u64,
    bytes: &[u8],
    fill: Fill,
) -> Result<(), NetError> {
    debug_assert!(
        page_off + bytes.len() as u64 <= PAGE_SIZE,
        "copy-in stays in a page"
    );
    fill_page(w.os_mut().node_mut(node), key, page_off, bytes, fill)
}

fn fill_page(
    os: &mut NodeOs,
    key: PageKey,
    page_off: u64,
    bytes: &[u8],
    fill: Fill,
) -> Result<(), NetError> {
    let page = match os.page_cache.peek(key) {
        Some(page) => page,
        None => os.page_cache.insert(&mut os.mem, key)?,
    };
    os.mem
        .write(page.frame.base().add(page_off), bytes)
        .expect("a cached frame is writable");
    match fill {
        Fill::Dirty => os.page_cache.mark_dirty(key),
        Fill::Uptodate => os.page_cache.mark_uptodate(key),
    }
    Ok(())
}

/// Charge `node`'s CPU one cache-warm copy of `bytes`.
pub fn charge_copy<W: OsWorld>(w: &mut W, node: NodeId, bytes: u64) {
    let cost = w.os().node(node).cpu.model.memcpy_cost(bytes);
    cpu_charge(w, node, cost);
}

/// `owner`'s fetch landed: its pages are up to date (after a short reply —
/// EOF — the tail pages hold zeroes, and that is valid). Returns the ops
/// that were parked on them, for the client to continue after `owner`.
pub fn landed<W: OsWorld>(
    w: &mut W,
    node: NodeId,
    io: impl Fn(&mut W) -> &mut PageIo,
    owner: u64,
) -> Vec<u64> {
    settle(w, node, io, owner, |os, key| {
        os.page_cache.mark_uptodate(key)
    })
}

/// Op `owner` ended: a fetch it still owns will never land (send failed,
/// peer died), so its never-filled pages are evicted and their frames
/// freed. Returns the ops that were parked on them — continued, they find
/// the pages absent and fetch for themselves. No-op if it owns nothing.
pub fn abandoned<W: OsWorld>(
    w: &mut W,
    node: NodeId,
    io: impl Fn(&mut W) -> &mut PageIo,
    owner: u64,
) -> Vec<u64> {
    settle(w, node, io, owner, |os, key| evict_if(os, key, false))
}

/// A write-through op failed after filling `count` pages from `first`: evict
/// them, so a later read fetches the server's bytes, not the refused ones.
pub fn discard<W: OsWorld>(w: &mut W, node: NodeId, first: PageKey, count: u64) {
    let os = w.os_mut().node_mut(node);
    Run { first, count }
        .keys()
        .for_each(|key| evict_if(os, key, true));
}

/// Evict `key`'s page if it is cached and its up-to-date flag is `uptodate`.
fn evict_if(os: &mut NodeOs, key: PageKey, uptodate: bool) {
    let page = os.page_cache.peek(key);
    if page.is_some_and(|page| page.uptodate == uptodate) {
        os.page_cache
            .evict(&mut os.mem, key)
            .expect("a cached page holds exactly its insert-time pin");
    }
}

/// End `owner`'s fetch, if it has one: apply `each` to its pages and hand
/// back whoever was parked on them.
fn settle<W: OsWorld>(
    w: &mut W,
    node: NodeId,
    io: impl Fn(&mut W) -> &mut PageIo,
    owner: u64,
    each: impl Fn(&mut NodeOs, PageKey),
) -> Vec<u64> {
    let fetches = &mut io(w).fetches;
    let Some(at) = fetches.iter().position(|&(op, _)| op == owner) else {
        return Vec::new();
    };
    let (_, run) = fetches.swap_remove(at);
    let os = w.os_mut().node_mut(node);
    run.keys().for_each(|key| each(os, key));
    let mut woken = Vec::new();
    io(w).parked.retain(|&(key, waiter)| {
        let ours = run.keys().any(|k| k == key);
        if ours {
            woken.push(waiter);
        }
        !ours
    });
    woken
}

/// Run `f` once the CPU work charged on `node` so far has drained: that is
/// when a cached op's completion is *observed* — otherwise an op served
/// entirely from the cache would appear to take no time.
pub fn when_drained<W: OsWorld>(w: &mut W, node: NodeId, f: impl FnOnce(&mut W) + Send + 'static) {
    let cpu = &w.os().node(node).cpu;
    let t = cpu.busy.free_at().max(knet_simcore::now(w));
    knet_simcore::call_at(w, node.0, t, f);
}
