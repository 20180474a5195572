//! Chaos: the full zsock + ORFS + NBD stacks under a seeded faulty fabric.
//!
//! A `FaultPlan` makes the wire drop, duplicate and delay-reorder packets;
//! the driver-level reliability windows (`knet_simnic::rel`) must absorb
//! every injected fault so the layers above see exactly the contract they
//! see on a perfect fabric: byte-exact streams, no stalled readers, no
//! leaked context-pool slots. Separately, an *unsurvivable* fault (the peer
//! node killed) must fail every in-flight operation with a typed error —
//! nothing may stall forever.
//!
//! Everything is seeded and deterministic: a failing case reproduces
//! exactly from its printed inputs.

use knet::figures::{fs_fixture_faulty, FsOpts};
use knet::harness::{fsops, pattern_byte, sock_wait};
use knet::prelude::*;
use knet_nbd::{nbd_client_create, nbd_read, nbd_read_raw, nbd_server_create, nbd_write, NbdOp};
use knet_simnic::FaultPlan;
use knet_zsock::{sock_create, sock_recv, sock_send};
use proptest::prelude::*;

/// A lossy-link plan: `loss_pct`% drop, optional duplication and
/// delay-reordering, all drawn from `seed`.
fn plan(seed: u64, loss_pct: u64, dup: bool, reorder: bool) -> FaultPlan {
    let mut p = FaultPlan::new(seed).with_drop(loss_pct as f64 / 100.0);
    if dup {
        p = p.with_dup(0.04);
    }
    if reorder {
        // Delays stay mostly below the adaptive rto floor so recovery, not
        // spurious retransmission rounds, is what reorders exercise.
        p = p.with_delay(0.08, SimTime::from_micros(2), SimTime::from_micros(80));
    }
    p
}

fn endpoints(
    w: &mut ClusterWorld,
    kind: TransportKind,
    n0: NodeId,
    n1: NodeId,
) -> (Endpoint, Endpoint) {
    match kind {
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
    }
}

/// Hard gate on every scenario: an engine error (event on a freed slot,
/// pool double-release, handler panic absorbed by the engine) is a
/// simulator bug that fault injection must never be allowed to mask.
fn assert_no_engine_errors(w: &ClusterWorld) {
    let st = w.stats();
    assert_eq!(
        st.engine.errors, 0,
        "engine errors under chaos are a hard fail"
    );
}

fn fill_user(w: &mut ClusterWorld, buf: &UBuf, data: &[u8]) {
    w.os.node_mut(buf.node)
        .write_virt(buf.asid, buf.addr, data)
        .unwrap();
}

fn read_user(w: &ClusterWorld, buf: &UBuf, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    w.os.node(buf.node)
        .read_virt(buf.asid, buf.addr, &mut out)
        .unwrap();
    out
}

/// Socket pair moving a mixed-size stream; every byte must arrive intact
/// and in order, every op must complete.
fn zsock_scenario(kind: TransportKind, fault: FaultPlan) -> u64 {
    let mut w = ClusterBuilder::new()
        .nic(NicModel::pci_xe())
        .fault_plan(fault)
        .build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let ba = ubuf(&mut w, n0, 1 << 20);
    let bb = ubuf(&mut w, n1, 1 << 20);
    let (ea, eb) = endpoints(&mut w, kind, n0, n1);
    let sa = sock_create(&mut w, ea, eb).unwrap();
    let sb = sock_create(&mut w, eb, ea).unwrap();
    for (i, size) in [1u64, 100, 4_000, 30_000, 150_000].into_iter().enumerate() {
        let data: Vec<u8> = (0..size)
            .map(|j| pattern_byte(i as u64 * 1_000_003 + j))
            .collect();
        fill_user(&mut w, &ba, &data);
        let r = sock_recv(&mut w, sb, bb.memref(size));
        sock_send(&mut w, sa, ba.memref(size));
        let got = sock_wait(&mut w, sb, r);
        assert_eq!(got, size, "{kind:?}: op completed fully at {size}");
        assert_eq!(
            read_user(&w, &bb, size as usize),
            data,
            "{kind:?}: byte-exact stream at {size}"
        );
        // And a small reverse echo, so both directions recover.
        let r2 = sock_recv(&mut w, sa, ba.memref(64));
        sock_send(&mut w, sb, bb.memref(64));
        assert_eq!(sock_wait(&mut w, sa, r2), 64, "{kind:?}: reverse leg");
    }
    run_to_quiescence(&mut w);
    assert_eq!(w.zsock.sock(sa).error(), None, "{kind:?}: never poisoned");
    assert_eq!(w.zsock.sock(sb).error(), None);
    // Context-pool slots stay bounded (released on completion — no leak)
    // while recycling keeps happening.
    let st = w.registry.stats;
    assert!(
        st.ctx_pool_slots <= 192,
        "{kind:?}: ctx slots leaked: {}",
        st.ctx_pool_slots
    );
    assert!(st.ctx_pool_reuses > 0, "{kind:?}: pool recycles");
    assert_no_engine_errors(&w);
    w.sched.executed()
}

/// The ORFS end-to-end flows (direct + buffered reads, buffered write +
/// fsync, direct write) under faults: same bytes as a perfect fabric.
fn orfs_scenario(kind: TransportKind, fault: FaultPlan) {
    let mut fx = fs_fixture_faulty(
        FsOpts {
            kind,
            file_len: 256 * 1024,
            ..FsOpts::default()
        },
        fault,
    );
    // Direct (O_DIRECT) reads, several shapes.
    let fd = fsops::open(&mut fx.w, fx.cid, "/data", true).unwrap();
    for (off, len) in [(0u64, 500usize), (4096, 4096), (100_000, 120_000)] {
        let n = fsops::read(&mut fx.w, fx.cid, fd, fx.user.memref(len as u64), off).unwrap();
        assert_eq!(n, len as u64, "{kind:?} direct read at {off}");
        let got = read_user(&fx.w, &fx.user, len);
        for (i, &b) in got.iter().enumerate() {
            assert_eq!(
                b,
                pattern_byte(off + i as u64),
                "{kind:?} byte {i} at {off}"
            );
        }
    }
    // Direct write (announced, payload rides separately), then read back.
    let msg: Vec<u8> = (0..60_000u64).map(|i| (i % 249) as u8).collect();
    fill_user(&mut fx.w, &fx.user, &msg);
    let n = fsops::write(&mut fx.w, fx.cid, fd, fx.user.memref(60_000), 8_192).unwrap();
    assert_eq!(n, 60_000, "{kind:?} direct write");
    fsops::close(&mut fx.w, fx.cid, fd).unwrap();
    // Buffered read + write through the page-cache, flushed by fsync.
    let fd = fsops::open(&mut fx.w, fx.cid, "/data", false).unwrap();
    let n = fsops::read(&mut fx.w, fx.cid, fd, fx.user.memref(10_000), 8_192).unwrap();
    assert_eq!(n, 10_000);
    assert_eq!(read_user(&fx.w, &fx.user, 10_000), msg[..10_000]);
    fill_user(&mut fx.w, &fx.user, b"chaos-proof");
    fsops::write(&mut fx.w, fx.cid, fd, fx.user.memref(11), 70_000).unwrap();
    fsops::fsync(&mut fx.w, fx.cid, fd).unwrap();
    fsops::close(&mut fx.w, fx.cid, fd).unwrap();
    let server = &mut fx.w.orfs.servers[0];
    let ino = server.fs.lookup_path("/data").unwrap();
    let mut back = vec![0u8; 11];
    server
        .fs
        .read(ino, 70_000, &mut back, SimTime::ZERO)
        .unwrap();
    assert_eq!(
        &back, b"chaos-proof",
        "{kind:?} write-back reached the server"
    );
    run_to_quiescence(&mut fx.w);
    assert_no_engine_errors(&fx.w);
}

fn nbd_wait(w: &mut ClusterWorld, cid: knet_nbd::NbdClientId, op: NbdOp) -> knet_nbd::NbdResult {
    let outcome = run_until(w, |w| {
        w.nbd.clients[cid.0 as usize]
            .completed
            .iter()
            .any(|(o, _)| *o == op)
    });
    assert_eq!(
        outcome,
        RunOutcome::Satisfied,
        "nbd op {op} never completed"
    );
    let c = &mut w.nbd.clients[cid.0 as usize];
    let pos = c.completed.iter().position(|(o, _)| *o == op).unwrap();
    c.completed.remove(pos).unwrap().1
}

/// NBD block traffic (windowed chunked writes, buffered + raw reads) under
/// faults.
fn nbd_scenario(fault: FaultPlan) {
    let mut w = ClusterBuilder::new().fault_plan(fault).build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let (ce, se) = (
        w.open_mx(n0, MxEndpointConfig::kernel()).unwrap(),
        w.open_mx(n1, MxEndpointConfig::kernel()).unwrap(),
    );
    nbd_server_create(&mut w, se, 4096).unwrap();
    let cid = nbd_client_create(&mut w, ce, se, 7).unwrap();
    let ub = ubuf(&mut w, n0, 1 << 20);
    let data: Vec<u8> = (0..64 * 1024u64).map(|i| pattern_byte(i * 3)).collect();
    fill_user(&mut w, &ub, &data);
    let op = nbd_write(&mut w, cid, ub.memref(64 * 1024), 0);
    assert_eq!(nbd_wait(&mut w, cid, op), Ok(64 * 1024));
    // Buffered read through the page-cache (fetches from the server).
    let op = nbd_read(&mut w, cid, ub.memref_at(512 * 1024, 40_000), 1_000);
    assert_eq!(nbd_wait(&mut w, cid, op), Ok(40_000));
    let mut got = vec![0u8; 40_000];
    w.os.node(n0)
        .read_virt(ub.asid, ub.addr.add(512 * 1024), &mut got)
        .unwrap();
    assert_eq!(got, data[1_000..41_000], "buffered read bytes");
    // Raw (zero-copy) read of a sector range (sectors are 4 kB).
    use knet_nbd::SECTOR_SIZE;
    let raw_len = 2 * SECTOR_SIZE;
    let op = nbd_read_raw(&mut w, cid, ub.memref_at(512 * 1024, raw_len), 8);
    assert_eq!(nbd_wait(&mut w, cid, op), Ok(raw_len));
    let mut got = vec![0u8; raw_len as usize];
    w.os.node(n0)
        .read_virt(ub.asid, ub.addr.add(512 * 1024), &mut got)
        .unwrap();
    assert_eq!(
        got,
        data[(8 * SECTOR_SIZE) as usize..(10 * SECTOR_SIZE) as usize],
        "raw read bytes"
    );
    run_to_quiescence(&mut w);
    assert_no_engine_errors(&w);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The headline chaos property: 1–10 % loss, optional duplication and
    /// reorder — every end-to-end flow on every transport stays byte-exact
    /// with nothing stalled.
    #[test]
    fn full_stack_survives_lossy_links(
        seed in any::<u64>(),
        loss in 1u64..11,
        dup in any::<bool>(),
        reorder in any::<bool>(),
    ) {
        for kind in [TransportKind::Mx, TransportKind::Gm] {
            zsock_scenario(kind, plan(seed, loss, dup, reorder));
            orfs_scenario(kind, plan(seed.wrapping_add(1), loss, dup, reorder));
        }
        nbd_scenario(plan(seed.wrapping_add(2), loss, dup, reorder));
    }
}

/// The loss rates every fixed-seed smoke test runs at. 15 and 20 % are
/// the high-loss selective-repeat points, where go-back-N still delivers
/// but at a collapsed goodput.
const SMOKE_LOSS_PCTS: [u64; 5] = [2, 5, 10, 15, 20];

/// One deterministic pass over all scenarios at each smoke loss rate,
/// everything else fixed.
#[test]
fn chaos_smoke_fixed_seed() {
    for loss in SMOKE_LOSS_PCTS {
        for kind in [TransportKind::Mx, TransportKind::Gm] {
            zsock_scenario(kind, plan(0xC0FFEE, loss, true, true));
            orfs_scenario(kind, plan(0xC0FFEE ^ 1, loss, true, true));
        }
        nbd_scenario(plan(0xC0FFEE ^ 2, loss, true, true));
    }
}

/// Same seed ⇒ same simulation, event for event.
#[test]
fn chaos_is_deterministic_per_seed() {
    let a = zsock_scenario(TransportKind::Mx, plan(42, 7, true, true));
    let b = zsock_scenario(TransportKind::Mx, plan(42, 7, true, true));
    assert_eq!(a, b, "executed-event fingerprints match across runs");
}

/// An asymmetric per-link plan keyed to one node pair must not consume
/// fault dice for any other link: with a zero base plan, a run whose plan
/// carries a (heavily lossy) override for an *uninvolved* pair is
/// event-for-event identical to a run with no dice at all — the
/// "no plan = zero randomness, bit-identical fabric" contract, extended
/// link by link.
#[test]
fn asymmetric_plans_leave_planless_links_bit_identical() {
    let clean = zsock_scenario(TransportKind::Mx, FaultPlan::new(42));
    let with_unrelated_link = zsock_scenario(
        TransportKind::Mx,
        FaultPlan::new(42).for_link(
            NodeId(6),
            NodeId(7),
            FaultPlan::new(99).with_drop(0.5).with_dup(0.3).with_delay(
                0.4,
                SimTime::from_micros(1),
                SimTime::from_micros(90),
            ),
        ),
    );
    assert_eq!(
        clean, with_unrelated_link,
        "a per-link plan on an uninvolved pair must not perturb the fabric"
    );
}

/// Fixed-seed asymmetric smoke at each smoke loss rate: one direction of
/// the fabric is lossy (drop + dup + delay-reorder), the reverse is clean —
/// the shape where go-back-N and selective repeat differ most (data loss
/// with a lossless ack path). Every scenario must stay byte-exact.
#[test]
fn chaos_smoke_asymmetric() {
    for loss in SMOKE_LOSS_PCTS {
        let asym = |seed: u64| {
            FaultPlan::new(seed).for_link(NodeId(0), NodeId(1), plan(seed ^ 0xA5, loss, true, true))
        };
        for kind in [TransportKind::Mx, TransportKind::Gm] {
            zsock_scenario(kind, asym(0xA11C));
            orfs_scenario(kind, asym(0xA11D));
        }
        nbd_scenario(asym(0xA11E));
        // And the reverse asymmetry (lossy replies, clean requests).
        let asym_rev = |seed: u64| {
            FaultPlan::new(seed).for_link(NodeId(1), NodeId(0), plan(seed ^ 0x5A, loss, true, true))
        };
        for kind in [TransportKind::Mx, TransportKind::Gm] {
            zsock_scenario(kind, asym_rev(0xB22C));
            orfs_scenario(kind, asym_rev(0xB22D));
        }
        nbd_scenario(asym_rev(0xB22E));
    }
}

/// Killing the server node mid-workload: every in-flight and subsequent
/// operation completes with a typed error; nothing stalls forever.
#[test]
fn killing_the_server_fails_all_ops_typed() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let mut fx = knet::figures::fs_fixture(FsOpts {
            kind,
            file_len: 128 * 1024,
            ..FsOpts::default()
        });
        let fd = fsops::open(&mut fx.w, fx.cid, "/data", true).unwrap();
        // A healthy op first.
        let n = fsops::read(&mut fx.w, fx.cid, fd, fx.user.memref(4096), 0).unwrap();
        assert_eq!(n, 4096);
        // The server drops off the fabric *now*.
        fx.w.set_fault_plan(FaultPlan::new(1).with_kill(NodeId(1), SimTime::ZERO));
        // In-flight ops fail with a typed error once the retry budget
        // exhausts — they must not hang.
        // (Both ops must reach the wire: O_DIRECT reads always do; a stat
        // would be served from the client's attribute cache.)
        let sid1 = knet_orfs::op_read(&mut fx.w, fx.cid, fd, fx.user.memref(8192), 0);
        let sid2 = knet_orfs::op_read(&mut fx.w, fx.cid, fd, fx.user.memref(4096), 65_536);
        let outcome = run_until(&mut fx.w, |w| {
            let c = w.orfs.client(fx.cid);
            [sid1, sid2]
                .iter()
                .all(|s| c.completed.iter().any(|(o, _)| o == s))
        });
        assert_eq!(
            outcome,
            RunOutcome::Satisfied,
            "{kind:?}: ops must not stall"
        );
        for sid in [sid1, sid2] {
            let r = knet::harness::orfs_wait(&mut fx.w, fx.cid, sid);
            assert_eq!(r, Err(knet_orfs::OrfsError::Net), "{kind:?}: typed failure");
        }
        // Later ops fail fast too (the link is dead).
        let sid3 = knet_orfs::op_read(&mut fx.w, fx.cid, fd, fx.user.memref(4096), 0);
        let r = knet::harness::orfs_wait(&mut fx.w, fx.cid, sid3);
        assert_eq!(
            r,
            Err(knet_orfs::OrfsError::Net),
            "{kind:?}: fail-fast after death"
        );
        run_to_quiescence(&mut fx.w);
        assert_no_engine_errors(&fx.w);
    }
}

/// Killing the peer of a socket pair poisons the socket with
/// `PeerUnreachable`: parked readers fail, later ops fail fast.
#[test]
fn killing_the_peer_poisons_sockets() {
    let mut w = ClusterBuilder::new().build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let ba = ubuf(&mut w, n0, 1 << 20);
    let bb = ubuf(&mut w, n1, 1 << 20);
    let (ea, eb) = endpoints(&mut w, TransportKind::Mx, n0, n1);
    let sa = sock_create(&mut w, ea, eb).unwrap();
    let sb = sock_create(&mut w, eb, ea).unwrap();
    // Healthy echo first.
    let r = sock_recv(&mut w, sb, bb.memref(64));
    sock_send(&mut w, sa, ba.memref(64));
    assert_eq!(sock_wait(&mut w, sb, r), 64);
    // Node 1 dies; a parked reader and an in-flight send must both fail.
    w.set_fault_plan(FaultPlan::new(9).with_kill(NodeId(1), SimTime::ZERO));
    let r = sock_recv(&mut w, sa, ba.memref(64)); // parked reader
    sock_send(&mut w, sa, ba.memref(100_000)); // its bytes can never be acked... but completes locally
    let outcome = run_until(&mut w, |w| {
        w.zsock.sock(sa).completed.iter().any(|(o, _)| *o == r)
    });
    assert_eq!(
        outcome,
        RunOutcome::Satisfied,
        "parked reader must not stall"
    );
    let (_, res) = {
        let s = w.zsock.sock_mut(sa);
        let pos = s.completed.iter().position(|(o, _)| *o == r).unwrap();
        s.completed.remove(pos).unwrap()
    };
    assert_eq!(res, Err(NetError::PeerUnreachable), "typed reader failure");
    assert_eq!(w.zsock.sock(sa).error(), Some(NetError::PeerUnreachable));
    // Subsequent ops fail fast.
    let op = sock_recv(&mut w, sa, ba.memref(16));
    let s = w.zsock.sock_mut(sa);
    let pos = s.completed.iter().position(|(o, _)| *o == op).unwrap();
    assert_eq!(
        s.completed.remove(pos).unwrap().1,
        Err(NetError::PeerUnreachable)
    );
    run_to_quiescence(&mut w);
    assert_no_engine_errors(&w);
    let _ = sb;
}

// ------------------------------------------------------- surviving-node failover

/// ORFS failover: two servers on different nodes, one dies mid-workload.
/// Every in-flight op toward the dead server fails typed, the surviving
/// client's traffic to the other node completes byte-exact with no stall,
/// and the dead peer's state is fully reclaimed — context pools bounded,
/// server staging empty, reliability window rings drained.
#[test]
fn orfs_server_kill_spares_surviving_traffic() {
    let mut w = ClusterBuilder::new()
        .nodes(3, CpuModel::xeon_2600())
        .mem_frames(131_072)
        .build();
    let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
    let user = ubuf(&mut w, n0, 4 << 20);
    let vfs = VfsConfig {
        combine_pages: false,
        max_combine: 16,
    };
    let deploy = |w: &mut ClusterWorld, server_node: NodeId, path: &str| {
        let c = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
        let s = w.open_mx(server_node, MxEndpointConfig::kernel()).unwrap();
        let sid = knet_orfs::server_create(w, s, knet_simfs::SimFs::with_defaults()).unwrap();
        let cid = knet_orfs::client_create(w, c, s, ClientKind::KernelVfs, user.asid, vfs).unwrap();
        knet::harness::make_server_file(w, sid, path, 128 * 1024);
        (sid, cid)
    };
    let (_sid_a, cid_a) = deploy(&mut w, n1, "/a");
    let (sid_b, cid_b) = deploy(&mut w, n2, "/b");

    // Healthy ops on both deployments first.
    let fd_a = fsops::open(&mut w, cid_a, "/a", true).unwrap();
    let fd_b = fsops::open(&mut w, cid_b, "/b", true).unwrap();
    assert_eq!(
        fsops::read(&mut w, cid_a, fd_a, user.memref(4096), 0).unwrap(),
        4096
    );
    assert_eq!(
        fsops::read(&mut w, cid_b, fd_b, user.memref(4096), 0).unwrap(),
        4096
    );

    // Mid-workload: reads in flight toward both servers when node 1 dies.
    let dead1 = knet_orfs::op_read(&mut w, cid_a, fd_a, user.memref(8192), 0);
    let dead2 = knet_orfs::op_read(&mut w, cid_a, fd_a, user.memref(4096), 65_536);
    let live1 = knet_orfs::op_read(&mut w, cid_b, fd_b, user.memref_at(64 * 1024, 8192), 0);
    let live2 = knet_orfs::op_read(
        &mut w,
        cid_b,
        fd_b,
        user.memref_at(128 * 1024, 4096),
        65_536,
    );
    w.set_fault_plan(FaultPlan::new(3).with_kill(n1, SimTime::ZERO));

    let outcome = run_until(&mut w, |w| {
        let done = |cid: knet_orfs::OrfsClientId, sid| {
            w.orfs.client(cid).completed.iter().any(|(o, _)| *o == sid)
        };
        done(cid_a, dead1) && done(cid_a, dead2) && done(cid_b, live1) && done(cid_b, live2)
    });
    assert_eq!(outcome, RunOutcome::Satisfied, "nothing may stall");
    for sid in [dead1, dead2] {
        assert_eq!(
            knet::harness::orfs_wait(&mut w, cid_a, sid),
            Err(knet_orfs::OrfsError::Net),
            "in-flight ops toward the dead server fail typed"
        );
    }
    for (sid, off) in [(live1, 0u64), (live2, 65_536)] {
        assert!(matches!(
            knet::harness::orfs_wait(&mut w, cid_b, sid),
            Ok(knet_orfs::SysRet::Bytes(_))
        ));
        let _ = (sid, off);
    }
    // Surviving deployment keeps full service: byte-exact reads and a
    // write + readback round-trip, at full size.
    for (off, len) in [(0u64, 500usize), (4096, 4096), (60_000, 50_000)] {
        let n = fsops::read(&mut w, cid_b, fd_b, user.memref(len as u64), off).unwrap();
        assert_eq!(n, len as u64);
        let got = read_user(&w, &user, len);
        for (i, &b) in got.iter().enumerate() {
            assert_eq!(b, pattern_byte(off + i as u64), "byte {i} at {off}");
        }
    }
    let msg: Vec<u8> = (0..40_000u64).map(|i| (i % 241) as u8).collect();
    fill_user(&mut w, &user, &msg);
    assert_eq!(
        fsops::write(&mut w, cid_b, fd_b, user.memref(40_000), 4096).unwrap(),
        40_000
    );
    fsops::close(&mut w, cid_b, fd_b).unwrap();
    run_to_quiescence(&mut w);

    // Dead-peer state fully reclaimed.
    assert_eq!(
        w.nics.rel.buffered_total(),
        0,
        "window rings drained everywhere (dead link torn down)"
    );
    assert_eq!(
        w.orfs.servers[sid_b.0 as usize].staging_len(),
        0,
        "surviving server holds no stale staging"
    );
    let st = w.stats();
    assert!(
        st.registry.ctx_pool_slots <= 256,
        "ctx slots bounded after failover: {}",
        st.registry.ctx_pool_slots
    );
    assert!(st.rel.rtt_samples > 0, "surviving links kept sampling RTT");
    assert_no_engine_errors(&w);
}

/// NBD failover: the same shape over the block layer — kill one of two
/// block servers mid-workload; the surviving client's traffic stays
/// byte-exact, the dead client ops fail typed, nothing leaks.
#[test]
fn nbd_server_kill_spares_surviving_traffic() {
    let mut w = ClusterBuilder::new()
        .nodes(3, CpuModel::xeon_2600())
        .mem_frames(131_072)
        .build();
    let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
    let deploy = |w: &mut ClusterWorld, server_node: NodeId, disk_id: u32| {
        let c = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
        let s = w.open_mx(server_node, MxEndpointConfig::kernel()).unwrap();
        nbd_server_create(w, s, 4096).unwrap();
        nbd_client_create(w, c, s, disk_id).unwrap()
    };
    let cid_a = deploy(&mut w, n1, 7);
    let cid_b = deploy(&mut w, n2, 8);
    let ub = ubuf(&mut w, n0, 1 << 20);
    let data: Vec<u8> = (0..64 * 1024u64).map(|i| pattern_byte(i * 5)).collect();
    fill_user(&mut w, &ub, &data);

    // Healthy writes land on both disks.
    let op = nbd_write(&mut w, cid_a, ub.memref(64 * 1024), 0);
    assert_eq!(nbd_wait(&mut w, cid_a, op), Ok(64 * 1024));
    let op = nbd_write(&mut w, cid_b, ub.memref(64 * 1024), 0);
    assert_eq!(nbd_wait(&mut w, cid_b, op), Ok(64 * 1024));

    // Reads in flight toward both servers when node 1 dies. The dead
    // server's read targets sectors beyond the written (client-cached)
    // range, so it must fetch over the wire.
    let held = |w: &ClusterWorld| {
        let os = w.os.node(n0);
        (os.mem.allocated_frames(), os.page_cache.len())
    };
    let before = held(&w);
    let dead_op = nbd_read(&mut w, cid_a, ub.memref_at(512 * 1024, 20_000), 1_000_000);
    let live_op = nbd_read(&mut w, cid_b, ub.memref_at(640 * 1024, 20_000), 100);
    w.set_fault_plan(FaultPlan::new(5).with_kill(n1, SimTime::ZERO));

    assert_eq!(
        nbd_wait(&mut w, cid_a, dead_op),
        Err(NetError::PeerUnreachable),
        "in-flight op toward the dead server fails typed"
    );
    assert_eq!(nbd_wait(&mut w, cid_b, live_op), Ok(20_000));
    let mut got = vec![0u8; 20_000];
    w.os.node(n0)
        .read_virt(ub.asid, ub.addr.add(640 * 1024), &mut got)
        .unwrap();
    assert_eq!(got, data[100..20_100], "surviving read byte-exact");

    // Later ops toward the dead server fail fast — the very sector whose
    // fetch died included: its never-filled frame went back with the op,
    // and goes back again. The survivor keeps serving raw zero-copy reads.
    assert_eq!(held(&w), before, "the abandoned fetch left nothing behind");
    let op = nbd_read(&mut w, cid_a, ub.memref_at(512 * 1024, 4096), 1_000_000);
    assert_eq!(nbd_wait(&mut w, cid_a, op), Err(NetError::PeerUnreachable));
    assert_eq!(held(&w), before);
    use knet_nbd::SECTOR_SIZE;
    let raw_len = 2 * SECTOR_SIZE;
    let op = nbd_read_raw(&mut w, cid_b, ub.memref_at(512 * 1024, raw_len), 4);
    assert_eq!(nbd_wait(&mut w, cid_b, op), Ok(raw_len));
    run_to_quiescence(&mut w);

    assert_eq!(w.nics.rel.buffered_total(), 0, "window rings drained");
    let st = w.stats();
    assert!(
        st.registry.ctx_pool_slots <= 256,
        "ctx slots bounded after failover: {}",
        st.registry.ctx_pool_slots
    );
    assert_no_engine_errors(&w);
}

// ------------------------------------------------------------- collectives

use knet::figures::{coll_fixture, CollFixture};
use knet_simnic::Proto;

/// Several mixed rounds (broadcast + barrier + sum-reduce) over an n-node
/// group on a faulty fabric. Every byte must arrive exactly, every member
/// must complete every round, and the world must go quiescent with no
/// stranded host contexts or NIC tree slots. Returns the determinism
/// fingerprint: (executed events, tree-topology hash).
fn coll_scenario(kind: TransportKind, fault: FaultPlan, n: usize, fanout: usize) -> (u64, u64) {
    let CollFixture {
        mut w,
        group,
        eps,
        bufs,
    } = coll_fixture(kind, n, fanout);
    w.set_fault_plan(fault);
    for round in 0..3u64 {
        // Broadcast a round-salted multi-chunk payload.
        let len = 6_000 + 512 * round;
        let payload: Vec<u8> = (0..len)
            .map(|i| pattern_byte(round * 7_777_777 + i))
            .collect();
        w.os.node_mut(NodeId(0))
            .write_virt(Asid::KERNEL, bufs[0].addr, &payload)
            .unwrap();
        let bctx = channel_bcast(&mut w, group, round, &bufs[0].iov(len)).unwrap();
        run_to_quiescence(&mut w);
        let mut root_done = false;
        while let Some(ev) = w.take_event(eps[0]) {
            match ev {
                TransportEvent::CollectiveDone { ctx, .. } if ctx == bctx => root_done = true,
                other => panic!("{kind:?} round {round}: root saw {other:?}"),
            }
        }
        assert!(root_done, "{kind:?} round {round}: bcast completed");
        for (m, &ep) in eps.iter().enumerate().skip(1) {
            let mut got = None;
            while let Some(ev) = w.take_event(ep) {
                match ev {
                    TransportEvent::CollectiveRecv { tag, data, .. } if tag == round => {
                        got = Some(data.to_vec())
                    }
                    other => panic!("{kind:?} round {round}: member {m} saw {other:?}"),
                }
            }
            assert_eq!(
                got.as_deref(),
                Some(&payload[..]),
                "{kind:?} round {round}: byte-exact at member {m}"
            );
        }

        // Barrier: everyone enters, everyone releases.
        for &ep in &eps {
            channel_barrier(&mut w, group, ep).unwrap();
        }
        run_to_quiescence(&mut w);
        for (m, &ep) in eps.iter().enumerate() {
            let ev = w.take_event(ep);
            assert!(
                matches!(ev, Some(TransportEvent::CollectiveDone { .. })),
                "{kind:?} round {round}: member {m} released, saw {ev:?}"
            );
            assert!(w.take_event(ep).is_none());
        }

        // Sum-reduce: the root's lanes must equal the host-side sums.
        for (m, &ep) in eps.iter().enumerate() {
            let v = (m as u64 + 1) * (round + 1);
            channel_reduce(&mut w, group, ep, ReduceOp::Sum, &[v, v * 3]).unwrap();
        }
        run_to_quiescence(&mut w);
        let expect: u64 = (1..=n as u64).map(|v| v * (round + 1)).sum();
        let mut combined = None;
        while let Some(ev) = w.take_event(eps[0]) {
            match ev {
                TransportEvent::CollectiveDone { data, .. } => combined = Some(data.to_vec()),
                other => panic!("{kind:?} round {round}: reduce root saw {other:?}"),
            }
        }
        let lanes: Vec<u64> = combined
            .expect("root reduce completion")
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(
            lanes,
            vec![expect, expect * 3],
            "{kind:?} round {round}: in-NIC combination matches host arithmetic"
        );
        for &ep in &eps[1..] {
            assert!(matches!(
                w.take_event(ep),
                Some(TransportEvent::CollectiveDone { .. })
            ));
        }
    }
    // Stall-free teardown: nothing pending at either layer.
    assert_eq!(w.coll.pending_count(), 0, "{kind:?}: host contexts drained");
    assert_eq!(
        w.nics.coll.pending_count(),
        0,
        "{kind:?}: NIC slots drained"
    );
    let proto = match kind {
        TransportKind::Gm => Proto::Gm,
        TransportKind::Mx => Proto::Mx,
    };
    assert_no_engine_errors(&w);
    (
        w.sched.executed(),
        w.nics.coll.tree_fingerprint(proto, group.0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Collectives under 1–10 % loss with optional duplication and
    /// reorder: the NIC trees ride the same per-link selective-repeat
    /// windows as point-to-point traffic, so every fan-out/fan-in frame
    /// recovers and the rounds above stay byte-exact and stall-free.
    #[test]
    fn collectives_survive_lossy_links(
        seed in any::<u64>(),
        loss in 1u64..11,
        dup in any::<bool>(),
        reorder in any::<bool>(),
    ) {
        coll_scenario(TransportKind::Gm, plan(seed, loss, dup, reorder), 8, 2);
        coll_scenario(TransportKind::Mx, plan(seed.wrapping_add(3), loss, dup, reorder), 9, 3);
    }
}

/// The collective twin of `chaos_smoke_fixed_seed`, at the same loss
/// rates.
#[test]
fn chaos_smoke_collectives() {
    for loss in SMOKE_LOSS_PCTS {
        coll_scenario(
            TransportKind::Gm,
            plan(0xC0FFEE ^ 3, loss, true, true),
            8,
            2,
        );
        coll_scenario(
            TransportKind::Mx,
            plan(0xC0FFEE ^ 4, loss, true, true),
            9,
            3,
        );
    }
}

/// Same seed ⇒ same collective simulation, event for event — including
/// the installed tree topology.
#[test]
fn collective_chaos_is_deterministic_per_seed() {
    let a = coll_scenario(TransportKind::Mx, plan(77, 6, true, true), 9, 3);
    let b = coll_scenario(TransportKind::Mx, plan(77, 6, true, true), 9, 3);
    assert_eq!(a, b, "fingerprints (events, tree hash) match across runs");
    assert_ne!(a.1, 0, "tree fingerprint actually folded topology");
}
