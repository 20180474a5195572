//! Lifecycle and contention tests: port/endpoint teardown releases every
//! resource; several clients share one server realistically (the server CPU
//! and NIC serialize); the NIC translation table survives pressure.

use knet::harness::{await_recv, fsops, kbuf, make_server_file, seq_read_mb, ubuf};
use knet::prelude::*;
use knet_core::TransportWorld;
use knet_gm::{gm_close_port, gm_register, GmPortId};
use knet_mx::{mx_close_endpoint, MxEndpointId};
use knet_orfs::{client_create, server_create, ClientKind, VfsConfig};
use knet_simfs::SimFs;

#[test]
fn gm_port_close_releases_registrations_and_table_entries() {
    let (mut w, n0, _n1) = two_nodes();
    let buf = ubuf(&mut w, n0, 64 * 1024);
    let ep = w
        .open_gm(n0, GmPortConfig::user(buf.asid).with_regcache(256))
        .unwrap();
    let port = GmPortId(ep.idx);
    gm_register(&mut w, port, buf.asid, buf.addr, 64 * 1024).unwrap();
    let nic = w.nics.nic_of_node(n0).unwrap();
    assert_eq!(w.nics.get(nic).ttable.len(), 16);
    let frame =
        w.os.node(n0)
            .space(buf.asid)
            .unwrap()
            .frame_of(buf.addr)
            .unwrap();
    assert_eq!(w.os.node(n0).mem.pin_count(frame), 1);

    gm_close_port(&mut w, port).unwrap();
    assert_eq!(w.nics.get(nic).ttable.len(), 0, "translations purged");
    assert_eq!(w.os.node(n0).mem.pin_count(frame), 0, "pins released");
    // The port is gone: further operations fail cleanly.
    assert!(gm_register(&mut w, port, buf.asid, buf.addr, 4096).is_err());
}

#[test]
fn mx_endpoint_close_releases_posted_pins() {
    let (mut w, n0, _n1) = two_nodes();
    let buf = ubuf(&mut w, n0, 256 * 1024);
    let ep = w.open_mx(n0, MxEndpointConfig::user(buf.asid)).unwrap();
    // Posting a large receive pins its pages.
    w.t_post_recv(ep, 1, buf.iov(256 * 1024), 1).unwrap();
    let frame =
        w.os.node(n0)
            .space(buf.asid)
            .unwrap()
            .frame_of(buf.addr)
            .unwrap();
    assert_eq!(w.os.node(n0).mem.pin_count(frame), 1);
    mx_close_endpoint(&mut w, MxEndpointId(ep.idx)).unwrap();
    assert_eq!(w.os.node(n0).mem.pin_count(frame), 0);
}

#[test]
fn translation_table_pressure_is_survivable() {
    // A tiny NIC table: GMKRC must keep evicting yet every transfer stays
    // correct.
    let mut nic = NicModel::pci_xd();
    nic.ttable_entries = 64;
    let mut w = ClusterBuilder::new().nic(nic).build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let big = ubuf(&mut w, n0, 1 << 20); // 256 pages >> 64 entries
    let cq = w.new_cq();
    let tx = w
        .open_gm_cq(n0, GmPortConfig::kernel().with_regcache(48), cq)
        .unwrap();
    let rx_buf = kbuf(&mut w, n1, 64 * 1024);
    let rx = w
        .open_gm_cq(n1, GmPortConfig::kernel().with_physical_api(), cq)
        .unwrap();
    // Walk the big buffer in 64 kB windows: every send misses the cache.
    for i in 0..16u64 {
        let off = i * 64 * 1024;
        let msg = format!("window {i:02}");
        w.os.node_mut(n0)
            .write_virt(big.asid, big.addr.add(off), msg.as_bytes())
            .unwrap();
        w.t_post_recv(
            rx,
            7,
            IoVec::single(MemRef::physical(
                rx_buf.addr.kernel_to_phys().unwrap(),
                64 * 1024,
            )),
            0,
        )
        .unwrap();
        w.t_send(tx, rx, 7, IoVec::single(big.memref_at(off, 64 * 1024)), 0)
            .unwrap();
        await_recv(&mut w, rx);
        let mut back = vec![0u8; msg.len()];
        w.os.node(n1)
            .read_virt(Asid::KERNEL, rx_buf.addr, &mut back)
            .unwrap();
        assert_eq!(back, msg.as_bytes(), "window {i}");
    }
    let port = w.gm.port(GmPortId(tx.idx)).unwrap();
    assert!(
        port.stats.pages_deregistered > 100,
        "pressure forced evictions: {} pages deregistered",
        port.stats.pages_deregistered
    );
    let nic_id = w.nics.nic_of_node(n0).unwrap();
    assert!(w.nics.get(nic_id).ttable.len() <= 64);
}

#[test]
fn three_clients_contend_for_one_server() {
    // One MX server node, three client nodes reading the same file
    // concurrently. Aggregate work is conserved and the server CPU
    // serializes: each client sees lower throughput than it would alone.
    let mut w = ClusterBuilder::new()
        .nodes(4, CpuModel::xeon_2600())
        .build();
    let server_node = NodeId(3);
    let sep = w.open_mx(server_node, MxEndpointConfig::kernel()).unwrap();
    let server = server_create(&mut w, sep, SimFs::with_defaults()).unwrap();
    make_server_file(&mut w, server, "/shared", 2 << 20);

    let mut clients = Vec::new();
    for i in 0..3u32 {
        let node = NodeId(i);
        let user = ubuf(&mut w, node, 1 << 20);
        let cep = w.open_mx(node, MxEndpointConfig::kernel()).unwrap();
        let cid = client_create(
            &mut w,
            cep,
            sep,
            ClientKind::KernelVfs,
            user.asid,
            VfsConfig::default(),
        )
        .unwrap();
        clients.push((cid, user));
    }
    // All three open and issue interleaved direct reads.
    let mut fds = Vec::new();
    for (cid, _) in &clients {
        fds.push(fsops::open(&mut w, *cid, "/shared", true).unwrap());
    }
    let record = 256 * 1024u64;
    let t0 = knet_simcore::now(&w);
    // Interleave: issue one read per client, wait for all, repeat.
    for round in 0..8u64 {
        let mut sids = Vec::new();
        for ((cid, user), _fd) in clients.iter().zip(&fds) {
            let sid = knet_orfs::op_read(
                &mut w,
                *cid,
                fds[0],
                user.memref(record),
                (round * record) % (2 << 20),
            );
            sids.push((*cid, sid));
        }
        for (cid, sid) in sids {
            let r = knet::harness::orfs_wait(&mut w, cid, sid).unwrap();
            assert!(matches!(r, knet_orfs::SysRet::Bytes(n) if n == record));
        }
    }
    let elapsed = knet_simcore::now(&w) - t0;
    let aggregate = knet_simcore::Bandwidth::observed_mb_s(3 * 8 * record, elapsed);
    // Three concurrent streams through one server NIC: the aggregate cannot
    // exceed the 250 MB/s link out of the server, and contention must be
    // visible (aggregate well above a single stream's share).
    assert!(
        aggregate <= 252.0,
        "aggregate {aggregate:.1} MB/s exceeds the server link"
    );
    assert!(
        aggregate >= 180.0,
        "the server link should be near saturation, got {aggregate:.1}"
    );
    // Data integrity for every client (they all used fds[0]'s handle — the
    // server-side handle table is shared state; verify bytes anyway).
    for (_cid, user) in &clients {
        let mut got = vec![0u8; 1024];
        w.os.node(user.node)
            .read_virt(user.asid, user.addr, &mut got)
            .unwrap();
        for (i, &b) in got.iter().enumerate() {
            assert_eq!(
                b,
                knet::harness::pattern_byte(((7u64 * record) % (2 << 20)) + i as u64)
            );
        }
    }
}

#[test]
fn nbd_end_to_end_data_integrity() {
    use knet_nbd::*;
    let (mut w, n0, n1) = two_nodes();
    let user = ubuf(&mut w, n0, 1 << 20);
    let cep = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let sep = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    let _server = nbd_server_create(&mut w, sep, 4096).unwrap();
    let client = nbd_client_create(&mut w, cep, sep, 42).unwrap();

    let wait = |w: &mut ClusterWorld, op| {
        let outcome = knet_simcore::run_until(w, |w| {
            w.nbd.clients[client.0 as usize]
                .completed
                .iter()
                .any(|(o, _)| *o == op)
        });
        assert_eq!(outcome, RunOutcome::Satisfied);
        nbd_wait(&mut w.nbd.clients[client.0 as usize], op)
            .unwrap()
            .unwrap()
    };

    // Write 512 kB of pattern, evict, read back buffered and raw.
    let len = 512 * 1024u64;
    let pattern: Vec<u8> = (0..len).map(|i| ((i * 11 + 3) % 251) as u8).collect();
    w.os.node_mut(n0)
        .write_virt(user.asid, user.addr, &pattern)
        .unwrap();
    let op = knet_nbd::nbd_write(&mut w, client, user.memref(len), 4096);
    assert_eq!(wait(&mut w, op), len);
    // Clobber the user buffer, then read back through the cache.
    w.os.node_mut(n0)
        .write_virt(user.asid, user.addr, &vec![0u8; len as usize])
        .unwrap();
    let op = knet_nbd::nbd_read(&mut w, client, user.memref(len), 4096);
    assert_eq!(wait(&mut w, op), len);
    let mut back = vec![0u8; len as usize];
    w.os.node(n0)
        .read_virt(user.asid, user.addr, &mut back)
        .unwrap();
    assert_eq!(back, pattern, "buffered read-back");
    // Raw read of a sector in the middle.
    let op = knet_nbd::nbd_read_raw(&mut w, client, user.memref(4096), 1 + 17);
    assert_eq!(wait(&mut w, op), 4096);
    w.os.node(n0)
        .read_virt(user.asid, user.addr, &mut back[..4096])
        .unwrap();
    assert_eq!(
        &back[..4096],
        &pattern[17 * 4096..18 * 4096],
        "raw read-back"
    );
    // Unwritten sectors read as zeroes.
    let op = knet_nbd::nbd_read(&mut w, client, user.memref(4096), 0);
    assert_eq!(wait(&mut w, op), 4096);
    w.os.node(n0)
        .read_virt(user.asid, user.addr, &mut back[..4096])
        .unwrap();
    assert!(back[..4096].iter().all(|&b| b == 0));
}

#[test]
fn orfa_and_orfs_can_share_a_server_process() {
    // A user-space ORFA client and a kernel ORFS client on the SAME node,
    // against one server: the paper's deployment story (the library for
    // legacy binaries, the kernel client for everyone else).
    let (mut w, n0, n1) = two_nodes();
    let sep = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    let server = server_create(&mut w, sep, SimFs::with_defaults()).unwrap();
    make_server_file(&mut w, server, "/f", 256 * 1024);

    let mk = |w: &mut ClusterWorld, kind| {
        let user = ubuf(w, n0, 512 * 1024);
        let cep = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
        let cid = client_create(w, cep, sep, kind, user.asid, VfsConfig::default()).unwrap();
        (cid, user)
    };
    let (orfa, ua) = mk(&mut w, ClientKind::UserLib);
    let (orfs, ub) = mk(&mut w, ClientKind::KernelVfs);

    let fa = fsops::open(&mut w, orfa, "/f", true).unwrap();
    let fb = fsops::open(&mut w, orfs, "/f", false).unwrap();
    let na = fsops::read(&mut w, orfa, fa, ua.memref(100_000), 5).unwrap();
    let nb = fsops::read(&mut w, orfs, fb, ub.memref(100_000), 5).unwrap();
    assert_eq!((na, nb), (100_000, 100_000));
    for (user, _) in [(&ua, 0), (&ub, 1)] {
        let mut got = vec![0u8; 100_000];
        w.os.node(n0)
            .read_virt(user.asid, user.addr, &mut got)
            .unwrap();
        for (i, &b) in got.iter().enumerate() {
            assert_eq!(b, knet::harness::pattern_byte(5 + i as u64));
        }
    }
}

/// A throughput sanity check for the multi-client path used above.
#[test]
fn single_client_direct_read_rate_is_wire_bound() {
    let mut w = ClusterBuilder::new().build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let sep = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    let server = server_create(&mut w, sep, SimFs::with_defaults()).unwrap();
    make_server_file(&mut w, server, "/f", 4 << 20);
    let user = ubuf(&mut w, n0, 1 << 20);
    let cep = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let cid = client_create(
        &mut w,
        cep,
        sep,
        ClientKind::KernelVfs,
        user.asid,
        VfsConfig::default(),
    )
    .unwrap();
    let fd = fsops::open(&mut w, cid, "/f", true).unwrap();
    let mb = seq_read_mb(&mut w, cid, fd, 1 << 20, 3 << 20, move |_w, _i| {
        user.memref(1 << 20)
    });
    assert!(
        (180.0..=250.0).contains(&mb),
        "direct 1MB reads: {mb:.1} MB/s"
    );
}

/// A message whose sender closes while it is on the wire still names its
/// sender: the completion's `from` — and the peer an accept-side channel
/// learns from it — carry the client's node, on GM and on MX.
#[test]
fn a_completion_names_its_sender_after_the_sender_closed() {
    use std::sync::{Arc, Mutex};
    for kind in [TransportKind::Gm, TransportKind::Mx] {
        let (mut w, n0, n1) = two_nodes();
        let open = |w: &mut ClusterWorld, node| match kind {
            TransportKind::Gm => w.open_gm(node, GmPortConfig::kernel().with_physical_api()),
            TransportKind::Mx => w.open_mx(node, MxEndpointConfig::kernel()),
        };
        let cep = open(&mut w, n0).unwrap();
        let sep = open(&mut w, n1).unwrap();
        let heard = Arc::new(Mutex::new(Vec::new()));
        let log = heard.clone();
        let srv = knet_core::api::channel_accept_handler(&mut w, sep, "srv", move |_w, _ep, ev| {
            log.lock().unwrap().push(ev)
        });
        let cq = w.new_cq();
        let ch = channel_connect(&mut w, cep, sep, cq);
        let buf = kbuf(&mut w, n0, 4096);
        channel_send(&mut w, ch, 5, buf.iov(64)).unwrap();
        // The send completes once the bytes have left host memory; the
        // message has not landed yet.
        assert_eq!(
            run_until(&mut w, |w| w.has_event(cep)),
            RunOutcome::Satisfied
        );
        assert!(
            heard.lock().unwrap().is_empty(),
            "{kind:?}: still in flight"
        );
        match kind {
            TransportKind::Gm => gm_close_port(&mut w, GmPortId(cep.idx)).map(drop),
            TransportKind::Mx => mx_close_endpoint(&mut w, MxEndpointId(cep.idx)),
        }
        .unwrap();
        run_to_quiescence(&mut w);

        let heard = heard.lock().unwrap();
        let from = match heard.as_slice() {
            [TransportEvent::Unexpected { tag: 5, from, .. }] => *from,
            other => panic!("{kind:?}: {other:?}"),
        };
        assert_eq!(from, cep, "{kind:?}: the message names its sender");
        assert_eq!(
            channel_peer(&w, srv),
            Some(cep),
            "{kind:?}: the peer learned"
        );
    }
}

#[test]
fn every_send_resolves_exactly_once_around_a_peer_kill() {
    // Aim 3 below the channel layer: a rendezvous send parks in the driver
    // until the receiver's CTS arrives. If the receiver dies first, the
    // driver must fail the send (and unpin its pages) when the link is
    // declared dead — before the channel hears `PeerDown`, so the consumer
    // sees the failure for a context it still knows.
    use knet_simnic::FaultPlan;
    let mut w = ClusterBuilder::new()
        .nodes(2, CpuModel::xeon_2600())
        .fault_plan(FaultPlan::new(3).with_kill(NodeId(1), SimTime::ZERO))
        .build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let cq = w.new_cq();
    let a = w.open_mx_cq(n0, MxEndpointConfig::kernel(), cq).unwrap();
    let b = w.open_mx_cq(n1, MxEndpointConfig::kernel(), cq).unwrap();
    let ch = channel_connect(&mut w, a, b, cq);

    const LARGE: u64 = 128 * 1024; // rendezvous
    let bufs: Vec<_> = (0..3).map(|_| ubuf(&mut w, n0, LARGE)).collect();
    let mut submitted = Vec::new();
    for (i, buf) in bufs.iter().enumerate() {
        submitted.push(channel_send(&mut w, ch, 10 + i as u64, buf.iov(LARGE)).unwrap());
        // An eager send between them completes locally, dead peer or not.
        submitted.push(channel_send(&mut w, ch, 20 + i as u64, buf.iov(64)).unwrap());
    }
    knet_simcore::run_to_quiescence(&mut w);

    let mut resolved = Vec::new();
    let mut failed = 0;
    let mut peer_downs = 0;
    while let Some(ev) = w.take_event(a) {
        match ev {
            TransportEvent::SendDone { ctx } => resolved.push(ctx),
            TransportEvent::SendFailed { ctx, error } => {
                assert_eq!(error, NetError::PeerUnreachable);
                assert_eq!(peer_downs, 0, "failures precede the one PeerDown");
                failed += 1;
                resolved.push(ctx);
            }
            TransportEvent::PeerDown { peer } => {
                assert_eq!(peer.node, n1);
                peer_downs += 1;
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    resolved.sort_unstable();
    submitted.sort_unstable();
    assert_eq!(resolved, submitted, "every ctx resolves exactly once");
    assert_eq!(failed, 3, "the three rendezvous sends fail");
    assert_eq!(peer_downs, 1);
    for buf in &bufs {
        let frame = w.os.node(n0).space(buf.asid).unwrap().frame_of(buf.addr);
        assert_eq!(w.os.node(n0).mem.pin_count(frame.unwrap()), 0, "pin leaked");
    }
    assert_eq!(w.mx.in_flight(), 0, "no driver state left at quiescence");
}
