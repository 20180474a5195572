//! The page lifecycle both storage clients share (`knet_core::pageio`): a
//! page is absent, in flight under exactly one fetch, or up to date.
//!
//! Three ways the two hand-written copies of the buffered path broke it,
//! each pinned here on ORFS (MX and GM) and on NBD:
//!
//! * two ops over one uncached page used to insert — and fetch — it twice;
//! * a fetch that never lands (peer killed, send failed, out of frames
//!   midway through a combined run) used to leave its never-filled, pinned
//!   pages in the cache, where the next read of them tripped over them;
//! * a user buffer that faults used to be a panic (NBD write), a silent
//!   `Ok` (ORFS read) or a page of zeroes marked dirty (ORFS write).
//!
//! And one way NBD's write-through broke it after the merge: it filled a
//! sector that a read was still fetching, and the read's older bytes then
//! landed over the written ones.

use knet::figures::{fs_fixture, FsFixture, FsOpts};
use knet::harness::{fsops, orfs_wait, pattern_byte, ubuf};
use knet::prelude::*;
use knet_nbd::{nbd_client_create, nbd_read, nbd_server_create, nbd_write, NbdClientId, NbdOp};
use knet_orfs::{op_read, op_write, OrfsError, SysRet};
use knet_simcore::{run_to_quiescence, run_until, RunOutcome, SimTime};
use knet_simnic::FaultPlan;
use knet_simos::{Asid, FrameState, NodeId, OsError, VirtAddr, PAGE_SIZE};

/// What the client node holds: (allocated frames, cached pages, pages ever
/// inserted).
fn footprint(w: &ClusterWorld, node: NodeId) -> (u32, usize, u64) {
    let os = w.os.node(node);
    (
        os.mem.allocated_frames(),
        os.page_cache.len(),
        os.page_cache.stats.inserted,
    )
}

fn read_user(w: &ClusterWorld, buf: &UBuf, at: u64, len: u64) -> Vec<u8> {
    let mut out = vec![0u8; len as usize];
    w.os.node(buf.node)
        .read_virt(buf.asid, buf.addr.add(at), &mut out)
        .unwrap();
    out
}

fn pattern(offset: u64, len: u64) -> Vec<u8> {
    (offset..offset + len).map(pattern_byte).collect()
}

/// A user reference into `asid` that no mapping backs.
fn unmapped(asid: Asid, len: u64) -> MemRef {
    MemRef::user(asid, VirtAddr::new(0x6000_0000_0000), len)
}

fn orfs(kind: TransportKind, combine_pages: bool) -> (FsFixture, u32) {
    let mut fx = fs_fixture(FsOpts {
        kind,
        combine_pages,
        file_len: 256 * 1024,
        ..FsOpts::default()
    });
    let fd = fsops::open(&mut fx.w, fx.cid, "/data", false).unwrap();
    (fx, fd)
}

// ------------------------------------------------- one owner per in-flight page

/// Two buffered reads in flight over the same uncached pages — identical
/// ranges, then overlapping ones: both byte-exact, every page inserted and
/// requested once.
#[test]
fn orfs_reads_sharing_an_uncached_page_fetch_it_once() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        // (first read, second read, pages the two cover together)
        for (a, b, pages) in [
            ((100u64, 3000u64), (100u64, 3000u64), 1u64),
            ((0, 8192), (4096, 8192), 3),
        ] {
            let (mut fx, fd) = orfs(kind, false);
            let (w, cid, n0) = (&mut fx.w, fx.cid, fx.client_node);
            let before = footprint(w, n0);
            let requests = w.orfs.client(cid).stats.requests;
            let at_b = 64 * 1024;
            let sa = op_read(w, cid, fd, fx.user.memref(a.1), a.0);
            let sb = op_read(w, cid, fd, fx.user.memref_at(at_b, b.1), b.0);
            assert_eq!(orfs_wait(w, cid, sa), Ok(SysRet::Bytes(a.1)), "{kind:?}");
            assert_eq!(orfs_wait(w, cid, sb), Ok(SysRet::Bytes(b.1)), "{kind:?}");
            assert_eq!(read_user(w, &fx.user, 0, a.1), pattern(a.0, a.1));
            assert_eq!(read_user(w, &fx.user, at_b, b.1), pattern(b.0, b.1));
            let after = footprint(w, n0);
            assert_eq!(
                (
                    after.0 - before.0,
                    after.1 - before.1,
                    after.2 - before.2,
                    w.orfs.client(cid).stats.requests - requests
                ),
                (pages as u32, pages as usize, pages, pages),
                "{kind:?} {a:?}+{b:?}: frames, cached pages, inserts, requests"
            );
        }
    }
}

/// A combined run ends at a page that is already cached; when that page is
/// still in flight the read must wait for its owner, not insert it again.
#[test]
fn orfs_combined_run_waits_at_an_in_flight_page() {
    let (mut fx, fd) = orfs(TransportKind::Mx, true);
    let (w, cid, n0) = (&mut fx.w, fx.cid, fx.client_node);
    let before = footprint(w, n0);
    let requests = w.orfs.client(cid).stats.requests;
    // The owner of pages 2..18: one 64 kB vectorial request (a rendezvous,
    // so the short run below lands first).
    let long = op_read(w, cid, fd, fx.user.memref(64 * 1024), 2 * PAGE_SIZE);
    // Pages 0..3: the run is 0 and 1, then page 2 is someone else's.
    let at = 128 * 1024;
    let short = op_read(w, cid, fd, fx.user.memref_at(at, 3 * PAGE_SIZE), 0);
    assert_eq!(
        orfs_wait(w, cid, short),
        Ok(SysRet::Bytes(3 * PAGE_SIZE)),
        "the short read resumes when page 2 lands"
    );
    assert_eq!(orfs_wait(w, cid, long), Ok(SysRet::Bytes(64 * 1024)));
    assert_eq!(
        read_user(w, &fx.user, at, 3 * PAGE_SIZE),
        pattern(0, 3 * PAGE_SIZE)
    );
    assert_eq!(
        read_user(w, &fx.user, 0, 64 * 1024),
        pattern(2 * PAGE_SIZE, 64 * 1024)
    );
    let after = footprint(w, n0);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (18, 18, 18),
        "18 pages cached once each"
    );
    assert_eq!(w.orfs.client(cid).stats.requests - requests, 2);
}

struct Nbd {
    w: ClusterWorld,
    cid: NbdClientId,
    user: UBuf,
    image: Vec<u8>,
}

/// An NBD client on node 0 whose device (server on node 1) holds 64 kB of
/// pattern; the client's cache is empty (the image went in raw).
fn nbd() -> Nbd {
    let mut w = ClusterBuilder::new().build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let ce = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let se = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    let sid = nbd_server_create(&mut w, se, 1024).unwrap();
    let cid = nbd_client_create(&mut w, ce, se, 7).unwrap();
    let user = ubuf(&mut w, n0, 1 << 20);
    let image = pattern(0, 64 * 1024);
    assert!(w.nbd.servers[sid.0 as usize].disk.write(0, &image));
    Nbd {
        w,
        cid,
        user,
        image,
    }
}

fn nbd_wait(w: &mut ClusterWorld, cid: NbdClientId, op: NbdOp) -> knet_nbd::NbdResult {
    let done = |w: &ClusterWorld| {
        let c = &w.nbd.clients[cid.0 as usize];
        c.completed.iter().any(|(o, _)| *o == op)
    };
    assert_eq!(run_until(w, done), RunOutcome::Satisfied, "nbd op {op}");
    knet_nbd::nbd_wait(&mut w.nbd.clients[cid.0 as usize], op).unwrap()
}

#[test]
fn nbd_reads_sharing_an_uncached_sector_fetch_it_once() {
    for (a, b, sectors) in [
        ((100u64, 3000u64), (100u64, 3000u64), 1u64),
        ((0, 8192), (4096, 8192), 3),
    ] {
        let Nbd {
            mut w,
            cid,
            user,
            image,
        } = nbd();
        let n0 = NodeId(0);
        let before = footprint(&w, n0);
        let requests = w.nbd.servers[0].requests;
        let at_b = 64 * 1024;
        let oa = nbd_read(&mut w, cid, user.memref(a.1), a.0);
        let ob = nbd_read(&mut w, cid, user.memref_at(at_b, b.1), b.0);
        assert_eq!(nbd_wait(&mut w, cid, oa), Ok(a.1));
        assert_eq!(nbd_wait(&mut w, cid, ob), Ok(b.1));
        assert_eq!(
            read_user(&w, &user, 0, a.1),
            image[a.0 as usize..(a.0 + a.1) as usize]
        );
        assert_eq!(
            read_user(&w, &user, at_b, b.1),
            image[b.0 as usize..(b.0 + b.1) as usize]
        );
        let after = footprint(&w, n0);
        assert_eq!(
            (
                after.0 - before.0,
                after.1 - before.1,
                after.2 - before.2,
                w.nbd.servers[0].requests - requests
            ),
            (sectors as u32, sectors as usize, sectors, sectors),
            "{a:?}+{b:?}: frames, cached sectors, inserts, requests"
        );
    }
}

/// Two clients on one node name the same `device_id` but mount different
/// servers, whose disks differ: each buffered read of the same sector
/// returns its own disk's bytes, never the other client's cached copy.
#[test]
fn nbd_clients_sharing_a_device_id_never_share_cached_sectors() {
    let mut w = ClusterBuilder::new()
        .nodes(3, CpuModel::xeon_2600())
        .build();
    let n0 = NodeId(0);
    let mut clients = Vec::new();
    for (server, offset) in [(NodeId(1), 0u64), (NodeId(2), 7)] {
        let ce = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
        let se = w.open_mx(server, MxEndpointConfig::kernel()).unwrap();
        let sid = nbd_server_create(&mut w, se, 1024).unwrap();
        let image = pattern(offset, 8192);
        assert!(w.nbd.servers[sid.0 as usize].disk.write(0, &image));
        clients.push((nbd_client_create(&mut w, ce, se, 7).unwrap(), image));
    }
    let user = ubuf(&mut w, n0, 1 << 20);
    for (cid, image) in &clients {
        let op = nbd_read(&mut w, *cid, user.memref(4096), 0);
        assert_eq!(nbd_wait(&mut w, *cid, op), Ok(4096));
        assert_eq!(read_user(&w, &user, 0, 4096), image[..4096], "{cid:?}");
    }
}

/// A buffered write over a sector that an earlier read is still fetching
/// waits for that fetch: the read's reply carries the device's older bytes
/// and must not land over the newer ones in the cache.
#[test]
fn nbd_write_over_a_sector_in_flight_keeps_the_written_bytes() {
    let Nbd {
        mut w,
        cid,
        user,
        image,
    } = nbd();
    let n0 = NodeId(0);
    let (at_w, at_r) = (64 * 1024, 128 * 1024);
    let new = pattern(1000, 8192);
    w.os.node_mut(n0)
        .write_virt(user.asid, user.addr.add(at_w), &new)
        .unwrap();
    let read = nbd_read(&mut w, cid, user.memref(4096), 0);
    let write = nbd_write(&mut w, cid, user.memref_at(at_w, 8192), 0);
    assert_eq!(nbd_wait(&mut w, cid, read), Ok(4096));
    assert_eq!(nbd_wait(&mut w, cid, write), Ok(8192));
    assert_eq!(read_user(&w, &user, 0, 4096), image[..4096], "read first");
    run_to_quiescence(&mut w);
    assert_eq!(w.nbd.servers[0].disk.read(0, 2).unwrap(), new, "the device");
    let requests = w.nbd.servers[0].requests;
    let again = nbd_read(&mut w, cid, user.memref_at(at_r, 8192), 0);
    assert_eq!(nbd_wait(&mut w, cid, again), Ok(8192));
    assert_eq!(read_user(&w, &user, at_r, 8192), new, "the cache");
    assert_eq!(w.nbd.servers[0].requests, requests, "served from the cache");
}

// ------------------------------------------- an abandoned fetch gives frames back

/// The ORFS twin of `chaos.rs::nbd_server_kill_spares_surviving_traffic`'s
/// re-read: the server's node dies under a buffered read and a second read
/// parked on the same page; both fail typed, the never-filled page is gone,
/// and the same page can be asked for again.
#[test]
fn orfs_server_kill_gives_the_in_flight_pages_back() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let (mut fx, fd) = orfs(kind, false);
        let (w, cid, n0) = (&mut fx.w, fx.cid, fx.client_node);
        let before = footprint(w, n0);
        let owner = op_read(w, cid, fd, fx.user.memref(4096), 8192);
        let parked = op_read(w, cid, fd, fx.user.memref_at(8192, 100), 8200);
        w.set_fault_plan(FaultPlan::new(11).with_kill(NodeId(1), SimTime::ZERO));
        assert_eq!(orfs_wait(w, cid, owner), Err(OrfsError::Net), "{kind:?}");
        assert_eq!(orfs_wait(w, cid, parked), Err(OrfsError::Net), "{kind:?}");
        let after = footprint(w, n0);
        assert_eq!(
            (after.0, after.1),
            (before.0, before.1),
            "{kind:?}: the never-filled page was evicted and its frame freed"
        );
        let again = fsops::read(w, cid, fd, fx.user.memref(4096), 8192);
        assert_eq!(again, Err(OrfsError::Net), "{kind:?}: typed, not a panic");
        run_to_quiescence(w);
        let after = footprint(w, n0);
        assert_eq!((after.0, after.1), (before.0, before.1), "{kind:?}");
    }
}

/// Requests queued behind GM's send tokens whose retry fails (the server's
/// port closed meanwhile) end in `SendFailed`: exactly those reads fail
/// `Net`. The reads whose request did leave wait on a server that is gone
/// but not dead, until `CALL_HORIZON`: then they fail `Deadline`. Every
/// read resolves once, and every page leaves the cache with its read.
#[test]
fn orfs_failed_sends_give_their_pages_back() {
    let (mut fx, fd) = orfs(TransportKind::Gm, false);
    let (w, cid, n0) = (&mut fx.w, fx.cid, fx.client_node);
    let before = footprint(w, n0);
    let server_port = knet_gm::GmPortId(w.orfs.servers[0].ep.idx);
    let issued = knet_gm::GmParams::default().send_tokens as u64 + 4;
    let sids: Vec<_> = (0..issued)
        .map(|i| op_read(w, cid, fd, fx.user.memref_at(i * 4096, 4096), i * 4096))
        .collect();
    knet_gm::gm_close_port(w, server_port).unwrap();
    run_to_quiescence(w);
    let c = w.orfs.client(cid);
    let resolved = |e: OrfsError| {
        let r = c.completed.iter();
        r.filter(|(sid, r)| sids.contains(sid) && *r == Err(e))
            .count() as u64
    };
    let (failed, expired) = (resolved(OrfsError::Net), resolved(OrfsError::Deadline));
    assert_eq!(c.completed.len() as u64, issued, "each read resolves once");
    assert!(failed >= 4, "the queued requests failed: {failed}");
    assert_eq!(failed + expired, issued, "the rest expired at the horizon");
    assert!(c.is_quiet(), "no request, fetch or parked op left");
    let after = footprint(w, n0);
    assert_eq!((after.0, after.1), (before.0, before.1));
}

/// The node runs out of frames on page 2 of a combined run: pages 0 and 1
/// go back instead of staying cached, in flight, with no fetch behind them.
#[test]
fn orfs_partial_run_allocation_failure_leaves_nothing_cached() {
    let (mut fx, fd) = orfs(TransportKind::Mx, true);
    let (w, cid, n0) = (&mut fx.w, fx.cid, fx.client_node);
    let mem = &mut w.os.node_mut(n0).mem;
    let mut hogged = Vec::new();
    while mem.total_frames() - mem.allocated_frames() > 2 {
        hogged.push(mem.alloc(FrameState::Kernel).unwrap());
    }
    let before = footprint(w, n0);
    let r = fsops::read(w, cid, fd, fx.user.memref(4 * PAGE_SIZE), 0);
    assert_eq!(r, Err(OrfsError::Fs(knet_simfs::FsError::NoSpace)));
    let after = footprint(w, n0);
    assert_eq!((after.0, after.1), (before.0, before.1));
    // With room again the same pages read fine.
    let mem = &mut w.os.node_mut(n0).mem;
    for frame in hogged.drain(..64) {
        mem.free(frame).unwrap();
    }
    let r = fsops::read(w, cid, fd, fx.user.memref(4 * PAGE_SIZE), 0);
    assert_eq!(r, Ok(4 * PAGE_SIZE));
    assert_eq!(
        read_user(w, &fx.user, 0, 4 * PAGE_SIZE),
        pattern(0, 4 * PAGE_SIZE)
    );
}

// --------------------------------------------------- user-buffer faults are typed

#[test]
fn nbd_unmapped_user_buffers_fault_typed() {
    let Nbd {
        mut w,
        cid,
        user,
        image,
    } = nbd();
    let n0 = NodeId(0);
    let fault = Err(NetError::Os(OsError::Fault));
    let bad = unmapped(user.asid, 8192);
    let before = footprint(&w, n0);
    let op = nbd_write(&mut w, cid, bad, 0);
    assert_eq!(nbd_wait(&mut w, cid, op), fault, "write from nowhere");
    let after = footprint(&w, n0);
    assert_eq!((after.0, after.1), (before.0, before.1), "nothing cached");
    run_to_quiescence(&mut w);
    assert_eq!(
        w.nbd.servers[0].disk.read(0, 2).unwrap(),
        image[..8192],
        "the device is untouched"
    );
    // A read faults when the first cached sector is copied out; the sector
    // itself is fetched, valid, and serves the next reader.
    let op = nbd_read(&mut w, cid, bad, 0);
    assert_eq!(nbd_wait(&mut w, cid, op), fault, "read into nowhere");
    let op = nbd_read(&mut w, cid, user.memref(4096), 0);
    assert_eq!(nbd_wait(&mut w, cid, op), Ok(4096));
    assert_eq!(read_user(&w, &user, 0, 4096), image[..4096]);
}

#[test]
fn orfs_unmapped_user_buffers_fault_typed() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let (mut fx, fd) = orfs(kind, false);
        let (w, cid, n0) = (&mut fx.w, fx.cid, fx.client_node);
        let bad = unmapped(fx.user.asid, 4096);
        assert_eq!(
            fsops::read(w, cid, fd, bad, 0),
            Err(OrfsError::Fault),
            "{kind:?}: read into nowhere"
        );
        // Page 0 is cached and clean now; a write from nowhere (a partial
        // one, then a whole page onto an absent page) changes nothing.
        let before = footprint(w, n0);
        let (mount, ino) = {
            let c = w.orfs.client(cid);
            (c.mount_id, c.file(fd).unwrap().ino)
        };
        for (src, offset) in [(bad.sub_range(0, 100), 10), (bad, 0), (bad, 5 * PAGE_SIZE)] {
            let sid = op_write(w, cid, fd, src, offset);
            assert_eq!(
                orfs_wait(w, cid, sid),
                Err(OrfsError::Fault),
                "{kind:?}: write of {src:?} at {offset}"
            );
        }
        let after = footprint(w, n0);
        assert_eq!((after.0, after.1), (before.0, before.1), "{kind:?}");
        assert!(
            w.os.node(n0).page_cache.dirty_pages(mount, ino).is_empty(),
            "{kind:?}: nothing to write back"
        );
        fsops::fsync(w, cid, fd).unwrap();
        for offset in [0, 5 * PAGE_SIZE] {
            let n = fsops::read(w, cid, fd, fx.user.memref(4096), offset);
            assert_eq!(n, Ok(4096));
            assert_eq!(
                read_user(w, &fx.user, 0, 4096),
                pattern(offset, 4096),
                "{kind:?}: the file's bytes at {offset} are unchanged"
            );
        }
    }
}
