//! End-to-end integration tests across the whole stack: application →
//! VFS/page-cache → transport (GM and MX) → NIC → wire → server → ext2-like
//! file system, and back. These verify *functional correctness* (every byte)
//! of the paths whose performance the figures measure.

use knet::figures::{fs_fixture, FsOpts};
use knet::harness::{fsops, make_server_file, pattern_byte, sock_pingpong_us, ubuf};
use knet::prelude::*;
use knet_simfs::SimFs;
use knet_zsock::sock_create;

fn check_pattern(buf: &[u8], file_offset: u64) {
    for (i, &b) in buf.iter().enumerate() {
        assert_eq!(
            b,
            pattern_byte(file_offset + i as u64),
            "byte {i} of read at {file_offset}"
        );
    }
}

fn read_user_buf(fx: &knet::ClusterWorld, buf: &knet::harness::UBuf, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    fx.os
        .node(buf.node)
        .read_virt(buf.asid, buf.addr, &mut out)
        .unwrap();
    out
}

#[test]
fn direct_reads_deliver_correct_bytes_over_mx_and_gm() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let mut fx = fs_fixture(FsOpts {
            kind,
            file_len: 1 << 20,
            ..FsOpts::default()
        });
        let fd = fsops::open(&mut fx.w, fx.cid, "/data", true).unwrap();
        // Several sizes, several offsets, same user buffer (cache-friendly).
        for (off, len) in [
            (0u64, 100usize),
            (4096, 4096),
            (123_456, 65_536),
            (1 << 19, 300_000),
        ] {
            let n = fsops::read(&mut fx.w, fx.cid, fd, fx.user.memref(len as u64), off).unwrap();
            assert_eq!(n, len as u64, "{kind:?} read at {off}");
            let got = read_user_buf(&fx.w, &fx.user, len);
            check_pattern(&got, off);
        }
        // Read past EOF clamps.
        let n = fsops::read(
            &mut fx.w,
            fx.cid,
            fd,
            fx.user.memref(65536),
            (1 << 20) - 1000,
        )
        .unwrap();
        assert_eq!(n, 1000);
        fsops::close(&mut fx.w, fx.cid, fd).unwrap();
    }
}

#[test]
fn buffered_reads_deliver_correct_bytes_and_hit_the_page_cache() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let mut fx = fs_fixture(FsOpts {
            kind,
            file_len: 256 * 1024,
            ..FsOpts::default()
        });
        let fd = fsops::open(&mut fx.w, fx.cid, "/data", false).unwrap();
        // Unaligned read spanning several pages.
        let n = fsops::read(&mut fx.w, fx.cid, fd, fx.user.memref(10_000), 2_500).unwrap();
        assert_eq!(n, 10_000);
        check_pattern(&read_user_buf(&fx.w, &fx.user, 10_000), 2_500);
        let misses_after_first = fx.w.orfs.client(fx.cid).stats.page_misses;
        assert!(misses_after_first >= 3, "cold cache had to fetch pages");
        // Same range again: pure page-cache hits, no new requests.
        let reqs_before = fx.w.orfs.client(fx.cid).stats.requests;
        let n = fsops::read(&mut fx.w, fx.cid, fd, fx.user.memref(10_000), 2_500).unwrap();
        assert_eq!(n, 10_000);
        check_pattern(&read_user_buf(&fx.w, &fx.user, 10_000), 2_500);
        assert_eq!(
            fx.w.orfs.client(fx.cid).stats.page_misses,
            misses_after_first,
            "warm cache"
        );
        assert_eq!(fx.w.orfs.client(fx.cid).stats.requests, reqs_before);
        fsops::close(&mut fx.w, fx.cid, fd).unwrap();
    }
}

#[test]
fn buffered_writes_reach_the_server_on_fsync() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let mut fx = fs_fixture(FsOpts {
            kind,
            file_len: 64 * 1024,
            ..FsOpts::default()
        });
        let fd = fsops::open(&mut fx.w, fx.cid, "/data", false).unwrap();
        // Fill the user buffer with a recognizable pattern and write it at
        // an unaligned offset (forces read-modify-write of edge pages).
        let data: Vec<u8> = (0..20_000u64).map(|i| (i % 199) as u8).collect();
        fx.w.os
            .node_mut(fx.user.node)
            .write_virt(fx.user.asid, fx.user.addr, &data)
            .unwrap();
        let n = fsops::write(&mut fx.w, fx.cid, fd, fx.user.memref(20_000), 1_234).unwrap();
        assert_eq!(n, 20_000);
        // Dirty pages exist, server not yet updated.
        assert!(
            !fx.w
                .os
                .node(fx.user.node)
                .page_cache
                .dirty_pages(fx.w.orfs.client(fx.cid).mount_id, 2)
                .is_empty(),
            "pages dirty before fsync ({kind:?})"
        );
        fsops::fsync(&mut fx.w, fx.cid, fd).unwrap();
        // Server file now contains the new bytes, with the old pattern
        // intact around them.
        let server = &mut fx.w.orfs.servers[0];
        let ino = server.fs.lookup_path("/data").unwrap();
        let mut back = vec![0u8; 22_000];
        server
            .fs
            .read(ino, 0, &mut back, knet_simcore::SimTime::ZERO)
            .unwrap();
        check_pattern(&back[..1_234], 0);
        assert_eq!(&back[1_234..21_234], &data[..], "{kind:?} write-back");
        check_pattern(&back[21_234..22_000], 21_234);
        fsops::close(&mut fx.w, fx.cid, fd).unwrap();
    }
}

#[test]
fn direct_writes_are_synchronous_and_vectorial_on_mx() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let mut fx = fs_fixture(FsOpts {
            kind,
            file_len: 4096,
            ..FsOpts::default()
        });
        let fd = fsops::open(&mut fx.w, fx.cid, "/data", true).unwrap();
        let data: Vec<u8> = (0..50_000u64).map(|i| (i % 241) as u8).collect();
        fx.w.os
            .node_mut(fx.user.node)
            .write_virt(fx.user.asid, fx.user.addr, &data)
            .unwrap();
        let n = fsops::write(&mut fx.w, fx.cid, fd, fx.user.memref(50_000), 0).unwrap();
        assert_eq!(n, 50_000);
        // Synchronous: already on the server.
        let server = &mut fx.w.orfs.servers[0];
        let ino = server.fs.lookup_path("/data").unwrap();
        let mut back = vec![0u8; 50_000];
        server
            .fs
            .read(ino, 0, &mut back, knet_simcore::SimTime::ZERO)
            .unwrap();
        assert_eq!(back, data, "{kind:?} direct write");
        fsops::close(&mut fx.w, fx.cid, fd).unwrap();
    }
}

/// The server stages an announced write in a fixed 4 MB ring, and the
/// announced length is wire input: a write the ring can never hold is
/// refused with a typed error — it must not take the server down (it used
/// to, in both build profiles) — and the server keeps serving.
#[test]
fn a_write_larger_than_the_server_ring_is_refused_typed_and_the_server_keeps_serving() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let mut fx = fs_fixture(FsOpts {
            kind,
            file_len: 4096,
            ..FsOpts::default()
        });
        let fd = fsops::open(&mut fx.w, fx.cid, "/data", true).unwrap();
        let big = ubuf(&mut fx.w, fx.client_node, 5 << 20);
        let refused = fsops::write(&mut fx.w, fx.cid, fd, big.memref(5 << 20), 0);
        assert!(refused.is_err(), "{kind:?}: 5 MB write gave {refused:?}");

        let data = vec![0x5A; 4096];
        fx.w.os
            .node_mut(fx.user.node)
            .write_virt(fx.user.asid, fx.user.addr, &data)
            .unwrap();
        let n = fsops::write(&mut fx.w, fx.cid, fd, fx.user.memref(4096), 0);
        assert_eq!(n, Ok(4096), "{kind:?}: the server stopped serving");
        let n = fsops::read(&mut fx.w, fx.cid, fd, fx.user.memref_at(4096, 4096), 0);
        assert_eq!(n, Ok(4096));
        run_to_quiescence(&mut fx.w);
        let back = read_user_buf(&fx.w, &fx.user, 8192);
        assert_eq!(&back[4096..], &data[..], "{kind:?}: the small write landed");

        let server = &fx.w.orfs.servers[0];
        assert_eq!(server.stats.errors, 1, "{kind:?}: one refusal, counted");
        assert_eq!(server.staging_len(), 0, "{kind:?}: nothing stays staged");
    }
}

#[test]
fn namespace_operations_work_end_to_end() {
    let mut fx = fs_fixture(FsOpts::default());
    let (w, cid) = (&mut fx.w, fx.cid);
    fsops::mkdir(w, cid, "/docs", 0o755).unwrap();
    fsops::mkdir(w, cid, "/docs/reports", 0o755).unwrap();
    fsops::create(w, cid, "/docs/reports/a.txt", 0o644).unwrap();
    fsops::create(w, cid, "/docs/reports/b.txt", 0o644).unwrap();
    let entries = fsops::readdir(w, cid, "/docs/reports").unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["a.txt", "b.txt"]);
    let attr = fsops::stat(w, cid, "/docs/reports/a.txt").unwrap();
    assert_eq!(attr.size, 0);
    fsops::unlink(w, cid, "/docs/reports/a.txt").unwrap();
    let entries = fsops::readdir(w, cid, "/docs/reports").unwrap();
    assert_eq!(entries.len(), 1);
    // Dentry caching kicked in for the repeated prefix walks.
    assert!(fx.w.orfs.client(cid).stats.dentry_hits > 0);
}

#[test]
fn orfa_user_client_reads_correctly_without_caches() {
    let mut fx = fs_fixture(FsOpts {
        kind: TransportKind::Gm,
        client: ClientKind::UserLib,
        file_len: 256 * 1024,
        ..FsOpts::default()
    });
    let fd = fsops::open(&mut fx.w, fx.cid, "/data", true).unwrap();
    let n = fsops::read(&mut fx.w, fx.cid, fd, fx.user.memref(100_000), 7).unwrap();
    assert_eq!(n, 100_000);
    check_pattern(&read_user_buf(&fx.w, &fx.user, 100_000), 7);
    // ORFA pays no syscalls and keeps no dentry cache.
    assert_eq!(fx.w.orfs.client(fx.cid).stats.dentry_hits, 0);
    fsops::close(&mut fx.w, fx.cid, fd).unwrap();
}

#[test]
fn sockets_echo_bytes_intact_over_both_transports() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let (mut w, n0, n1) = two_nodes_xe();
        let ba = ubuf(&mut w, n0, 1 << 20);
        let bb = ubuf(&mut w, n1, 1 << 20);
        let (ea, eb) = match kind {
            TransportKind::Mx => (
                w.open_mx(n0, MxEndpointConfig::kernel()).unwrap(),
                w.open_mx(n1, MxEndpointConfig::kernel()).unwrap(),
            ),
            TransportKind::Gm => {
                let cfg = GmPortConfig::kernel()
                    .with_physical_api()
                    .with_regcache(4096);
                (
                    w.open_gm(n0, cfg.clone()).unwrap(),
                    w.open_gm(n1, cfg).unwrap(),
                )
            }
        };
        let sa = sock_create(&mut w, ea, eb).unwrap();
        let sb = sock_create(&mut w, eb, ea).unwrap();
        for size in [1u64, 100, 4096, 100_000, 600_000] {
            let data: Vec<u8> = (0..size).map(|i| ((i * 31 + 5) % 251) as u8).collect();
            w.os.node_mut(n0)
                .write_virt(ba.asid, ba.addr, &data)
                .unwrap();
            let r = knet_zsock::sock_recv(&mut w, sb, bb.memref(size));
            knet_zsock::sock_send(&mut w, sa, ba.memref(size));
            let got = knet::harness::sock_wait(&mut w, sb, r);
            assert_eq!(got, size, "{kind:?} size {size}");
            let mut back = vec![0u8; size as usize];
            w.os.node(n1)
                .read_virt(bb.asid, bb.addr, &mut back)
                .unwrap();
            assert_eq!(back, data, "{kind:?} payload at {size}");
        }
        // Ping-pong latency is sane (SOCKETS-MX ≈5 µs, SOCKETS-GM ≈15 µs).
        let us = sock_pingpong_us(&mut w, sa, sb, ba.memref(1), bb.memref(1), 5);
        match kind {
            TransportKind::Mx => assert!(
                (4.0..=6.5).contains(&us),
                "Sockets-MX 1B latency {us:.2} µs (paper: 5)"
            ),
            TransportKind::Gm => assert!(
                (12.0..=18.0).contains(&us),
                "Sockets-GM 1B latency {us:.2} µs (paper: 15)"
            ),
        }
    }
}

#[test]
fn tcp_baseline_echoes_and_is_slow() {
    let (mut w, n0, n1) = two_nodes();
    let ba = ubuf(&mut w, n0, 1 << 20);
    let bb = ubuf(&mut w, n1, 1 << 20);
    let (ta, tb) = knet_zsock::tcp_pair(&mut w, n0, n1);
    let data: Vec<u8> = (0..50_000u64).map(|i| (i % 233) as u8).collect();
    w.os.node_mut(n0)
        .write_virt(ba.asid, ba.addr, &data)
        .unwrap();
    let r = knet_zsock::tcp_recv(&mut w, tb, bb.memref(50_000));
    knet_zsock::tcp_send(&mut w, ta, ba.memref(50_000));
    let got = knet::harness::tcp_wait(&mut w, tb, r);
    assert_eq!(got, 50_000);
    let mut back = vec![0u8; 50_000];
    w.os.node(n1)
        .read_virt(bb.asid, bb.addr, &mut back)
        .unwrap();
    assert_eq!(back, data);
    let us = knet::harness::tcp_pingpong_us(&mut w, ta, tb, ba.memref(1), bb.memref(1), 3);
    assert!(
        us > 15.0,
        "GigE TCP latency must dwarf Sockets-MX (got {us:.1} µs)"
    );
}

#[test]
fn two_clients_share_one_server_consistently() {
    // A writer client (MX) and a reader client (GM) against one server:
    // after the writer's direct write, the reader (O_DIRECT, no stale page
    // cache) sees the new data.
    let mut w = ClusterBuilder::new()
        .nodes(3, CpuModel::xeon_2600())
        .build();
    let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
    let server_ep = w.open_mx(n2, MxEndpointConfig::kernel()).unwrap();
    let server = knet_orfs::server_create(&mut w, server_ep, SimFs::with_defaults()).unwrap();
    make_server_file(&mut w, server, "/shared", 64 * 1024);

    let ua = ubuf(&mut w, n0, 1 << 20);
    let ub = ubuf(&mut w, n1, 1 << 20);
    let ca_ep = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let cb_ep = w
        .open_gm(
            n1,
            GmPortConfig::kernel()
                .with_physical_api()
                .with_regcache(1024),
        )
        .unwrap();
    // The GM server endpoint for the GM client: a second endpoint served by
    // the same registered server consumer.
    let server_gm_ep = w
        .open_gm(
            n2,
            GmPortConfig::kernel()
                .with_physical_api()
                .with_regcache(1024),
        )
        .unwrap();
    knet_orfs::server_attach_endpoint(&mut w, server, server_gm_ep);
    let writer = knet_orfs::client_create(
        &mut w,
        ca_ep,
        server_ep,
        ClientKind::KernelVfs,
        ua.asid,
        VfsConfig::default(),
    )
    .unwrap();
    let reader = knet_orfs::client_create(
        &mut w,
        cb_ep,
        server_gm_ep,
        ClientKind::KernelVfs,
        ub.asid,
        VfsConfig::default(),
    )
    .unwrap();

    let wfd = fsops::open(&mut w, writer, "/shared", true).unwrap();
    let msg = b"written by the MX client";
    w.os.node_mut(n0).write_virt(ua.asid, ua.addr, msg).unwrap();
    fsops::write(&mut w, writer, wfd, ua.memref(msg.len() as u64), 4096).unwrap();

    let rfd = fsops::open(&mut w, reader, "/shared", true).unwrap();
    let n = fsops::read(&mut w, reader, rfd, ub.memref(msg.len() as u64), 4096).unwrap();
    assert_eq!(n, msg.len() as u64);
    let mut back = vec![0u8; msg.len()];
    w.os.node(n1)
        .read_virt(ub.asid, ub.addr, &mut back)
        .unwrap();
    assert_eq!(&back, msg, "cross-transport, cross-client consistency");
}

/// Request ids are wire tags, and the server keys its announced-write
/// state by tag alone — so two clients that have issued the same number of
/// requests must still never present the same tag. Two kernel clients run
/// *identical* op sequences against one server, then one concurrent
/// announced (256 kB, direct) write each: both complete, and each file
/// holds its own client's bytes. (With per-client counters from 1 the two
/// writes shared a tag, one announcement overwrote the other's staging
/// record, and one syscall never completed.)
#[test]
fn concurrent_announced_writes_of_two_clients_never_share_a_tag() {
    const LEN: u64 = 256 * 1024;
    let mut w = ClusterBuilder::new()
        .nodes(3, CpuModel::xeon_2600())
        .build();
    let server_ep = w.open_mx(NodeId(2), MxEndpointConfig::kernel()).unwrap();
    knet_orfs::server_create(&mut w, server_ep, SimFs::with_defaults()).unwrap();

    let mut clients = Vec::new();
    for (node, path, fill) in [(NodeId(0), "/a", 0xA1u8), (NodeId(1), "/b", 0xB2)] {
        let user = ubuf(&mut w, node, LEN);
        let ep = w.open_mx(node, MxEndpointConfig::kernel()).unwrap();
        let cid = knet_orfs::client_create(
            &mut w,
            ep,
            server_ep,
            ClientKind::KernelVfs,
            user.asid,
            VfsConfig::default(),
        )
        .unwrap();
        w.os.node_mut(node)
            .write_virt(user.asid, user.addr, &vec![fill; LEN as usize])
            .unwrap();
        clients.push((cid, user, path, fill));
    }
    // The same op sequence on both clients: their request counters agree.
    let mut fds = Vec::new();
    for (cid, _, path, _) in &clients {
        fsops::create(&mut w, *cid, path, 0o644).unwrap();
        fds.push(fsops::open(&mut w, *cid, path, true).unwrap());
    }
    // Both writes in flight before either is waited for.
    let writes: Vec<_> = clients
        .iter()
        .zip(&fds)
        .map(|((cid, user, _, _), fd)| knet_orfs::op_write(&mut w, *cid, *fd, user.memref(LEN), 0))
        .collect();
    for ((cid, ..), sid) in clients.iter().zip(writes) {
        let done = knet::harness::orfs_wait(&mut w, *cid, sid);
        assert_eq!(done, Ok(knet_orfs::SysRet::Bytes(LEN)));
    }
    for (_, _, path, fill) in &clients {
        let fs = &mut w.orfs.servers[0].fs;
        let ino = fs.lookup_path(path).unwrap();
        let mut back = vec![0u8; LEN as usize];
        let n = fs.read(ino, 0, &mut back, knet_simcore::SimTime::ZERO);
        assert_eq!(n, Ok(LEN as usize));
        assert!(
            back.iter().all(|b| b == fill),
            "{path} holds another client's bytes"
        );
    }
    assert_eq!(w.orfs.servers[0].staging_len(), 0);
}
