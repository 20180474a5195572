//! Every ORFS and NBD op resolves, even against a server that stays up and
//! never answers. The server here accepts the channel and drops every
//! message: no reply, no `SendFailed`, no `PeerDown` — only the client's
//! request table can end the op. Each request is bounded by
//! `CALL_HORIZON`, like an RPC call without a caller deadline
//! (`tests/rpc_deadlines.rs::a_call_without_a_deadline_resolves_at_the_horizon`),
//! but the horizon measures the server's silence: it starts over when a
//! send of the request completes, and a request expires only while nothing
//! moves for it.
//!
//! Each op resolves once, with the typed deadline error, one horizon after
//! its request reached the server. A reader parked on a page whose fetch
//! expired resolves after its own re-fetch's horizon. Afterwards the client
//! holds no live request and no page in flight, and the page-cache holds
//! nothing the ops inserted. A write still sending, or still queued behind
//! GM's send tokens, when its first horizon passes keeps its request until
//! the transport is done with the caller's buffer; and a 4 MB transfer to a
//! server that does answer outlasts the horizon and succeeds.

use knet::figures::{fs_fixture, FsOpts};
use knet::harness::{fsops, pattern_byte, ubuf};
use knet::prelude::*;
use knet_core::api::channel_accept_handler;
use knet_nbd::{nbd_client_create, nbd_read, NbdClientId, NbdOp};
use knet_orfs::{op_read, op_stat, op_write, OrfsClientId, OrfsError, SysResult, SyscallId};
use knet_simcore::run_until_budgeted;

/// Far more events than an op against a silent server takes to resolve,
/// far fewer than a run to quiescence could hide a hang behind.
const BUDGET: u64 = 10_000;

/// How long a small request takes to reach the server and be acknowledged:
/// its horizon starts over then, so it expires this much after submit +
/// `CALL_HORIZON` at most.
const SEND_SLACK: SimTime = SimTime::from_micros(50);

/// Make `ep` a server that accepts every channel and answers nothing.
fn black_hole(w: &mut ClusterWorld, ep: Endpoint) {
    channel_accept_handler(w, ep, "black hole", |_w, _via, _ev| {});
}

/// (allocated frames, cached pages) on `node`.
fn footprint(w: &ClusterWorld, node: NodeId) -> (u32, usize) {
    let os = w.os.node(node);
    (os.mem.allocated_frames(), os.page_cache.len())
}

/// `at` is one horizon after `from`, give or take the request's send.
fn one_horizon_after(at: SimTime, from: SimTime) -> bool {
    at > from + CALL_HORIZON && at <= from + CALL_HORIZON + SEND_SLACK
}

/// Run until syscall `sid` resolved; its result and the virtual instant.
fn orfs_resolve(w: &mut ClusterWorld, cid: OrfsClientId, sid: SyscallId) -> (SysResult, SimTime) {
    let done = |w: &ClusterWorld| w.orfs.client(cid).completed.iter().any(|(s, _)| *s == sid);
    let outcome = run_until_budgeted(w, BUDGET, done);
    assert_eq!(
        outcome,
        RunOutcome::Satisfied,
        "syscall {sid} never resolved"
    );
    let at = now(w);
    let c = &mut w.orfs.clients[cid.0 as usize];
    let pos = c.completed.iter().position(|(s, _)| *s == sid).unwrap();
    (c.completed.remove(pos).unwrap().1, at)
}

/// The client resolved nothing more, holds no live request and no page in
/// flight.
fn orfs_quiet(w: &mut ClusterWorld, cid: OrfsClientId) {
    run_to_quiescence(w);
    let c = w.orfs.client(cid);
    assert!(c.completed.is_empty(), "resolved once: {:?}", c.completed);
    assert!(c.is_quiet());
}

#[test]
fn an_orfs_stat_to_a_silent_server_resolves_at_the_horizon() {
    let mut fx = fs_fixture(FsOpts::default());
    let (w, cid) = (&mut fx.w, fx.cid);
    let server = w.orfs.servers[0].ep;
    black_hole(w, server);
    let t0 = now(w);
    // An uncached name: the lookup goes to the wire.
    let sid = op_stat(w, cid, "/missing");
    let (res, at) = orfs_resolve(w, cid, sid);
    assert_eq!(res, Err(OrfsError::Deadline));
    assert!(one_horizon_after(at, t0), "resolved at {at:?}");
    orfs_quiet(w, cid);
}

#[test]
fn a_parked_orfs_reader_resolves_after_its_own_refetch_horizon() {
    let mut fx = fs_fixture(FsOpts {
        file_len: 64 * 1024,
        ..FsOpts::default()
    });
    let (w, cid, user, n0) = (&mut fx.w, fx.cid, fx.user, fx.client_node);
    let fd = fsops::open(w, cid, "/data", false).unwrap();
    let server = w.orfs.servers[0].ep;
    black_hole(w, server);
    let before = footprint(w, n0);
    let t0 = now(w);
    // The first read fetches page 0; the second parks on it.
    let first = op_read(w, cid, fd, user.memref(4096), 0);
    let parked = op_read(w, cid, fd, user.memref_at(8192, 100), 10);
    let (res, t1) = orfs_resolve(w, cid, first);
    assert_eq!(res, Err(OrfsError::Deadline));
    assert!(one_horizon_after(t1, t0), "first resolved at {t1:?}");
    // The expired fetch gave page 0 back; the parked reader fetched it
    // itself, at the first horizon, and that fetch expires in turn.
    let (res, t2) = orfs_resolve(w, cid, parked);
    assert_eq!(res, Err(OrfsError::Deadline));
    assert!(one_horizon_after(t2, t1), "parked resolved at {t2:?}");
    orfs_quiet(w, cid);
    assert_eq!(footprint(w, n0), before, "no frame outlives its fetch");
}

fn nbd_resolve(w: &mut ClusterWorld, cid: NbdClientId, op: NbdOp) -> SimTime {
    let done = |w: &ClusterWorld| {
        let c = &w.nbd.clients[cid.0 as usize];
        c.completed.iter().any(|(o, _)| *o == op)
    };
    let outcome = run_until_budgeted(w, BUDGET, done);
    assert_eq!(outcome, RunOutcome::Satisfied, "nbd op {op} never resolved");
    now(w)
}

#[test]
fn an_nbd_buffered_read_to_a_silent_server_resolves_at_the_horizon() {
    let (mut w, n0, n1) = two_nodes();
    let user = ubuf(&mut w, n0, 64 * 1024);
    let server = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    black_hole(&mut w, server);
    let cep = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let cid = nbd_client_create(&mut w, cep, server, 7).unwrap();
    let before = footprint(&w, n0);
    let t0 = now(&w);
    let op = nbd_read(&mut w, cid, user.memref(4096), 0);
    let at = nbd_resolve(&mut w, cid, op);
    assert!(one_horizon_after(at, t0), "resolved at {at:?}");
    run_to_quiescence(&mut w);
    let c = &mut w.nbd.clients[cid.0 as usize];
    let results: Vec<_> = c.completed.drain(..).collect();
    assert_eq!(results, [(op, Err(NetError::Deadline))], "resolved once");
    assert!(c.is_quiet());
    assert_eq!(footprint(&w, n0), before, "no frame outlives its fetch");
}

/// Twenty 1 MB direct writes to a silent GM server: 40 sends (header and
/// announced payload each) on a port with 16 send tokens, so the last
/// writes wait in the channel's queue, and the payloads leave one after
/// another for longer than `CALL_HORIZON`. No write fails while a send of
/// it is queued or in flight — the transport may still read the caller's
/// buffer — and each fails `Deadline` exactly one horizon after its last
/// send completed.
#[test]
fn a_write_still_sending_at_its_horizon_expires_one_horizon_after_its_last_send() {
    let mut fx = fs_fixture(FsOpts {
        kind: TransportKind::Gm,
        ..FsOpts::default()
    });
    let (w, cid, user) = (&mut fx.w, fx.cid, fx.user);
    let fd = fsops::open(w, cid, "/data", true).unwrap();
    let server = w.orfs.servers[0].ep;
    black_hole(w, server);
    let (ch, port) = {
        let c = w.orfs.client(cid);
        (c.ch, knet_gm::GmPortId(c.ep.idx))
    };
    let tokens = knet_gm::GmParams::default().send_tokens;
    // Sends of the client not completed yet: queued, or holding a token.
    let unsent = |w: &ClusterWorld| {
        let queued = w.registry.channel(ch).unwrap().queued_len();
        queued + tokens - w.gm.port(port).unwrap().tokens()
    };
    let t0 = now(w);
    let (len, writes) = (1 << 20, 20);
    let sids: Vec<SyscallId> = (0..writes)
        .map(|i| op_write(w, cid, fd, user.memref(len), i * len))
        .collect();
    assert_eq!(unsent(w), 2 * writes as usize);
    assert!(w.registry.channel(ch).unwrap().queued_len() > 0);
    // Note when each send completes and when each write resolves.
    let (mut sent, mut resolved) = (Vec::new(), Vec::new());
    let all = |w: &ClusterWorld| {
        let t = now(w);
        sent.resize(2 * writes as usize - unsent(w), t);
        resolved.resize(w.orfs.client(cid).completed.len(), t);
        resolved.len() == sids.len()
    };
    let outcome = run_until_budgeted(w, BUDGET * 10, all);
    assert_eq!(outcome, RunOutcome::Satisfied);
    let c = &mut w.orfs.clients[cid.0 as usize];
    for (sid, res) in c.completed.drain(..) {
        assert!(sids.contains(&sid));
        assert_eq!(res, Err(OrfsError::Deadline), "write {sid}");
    }
    // Sends complete in submission order, header then payload: write k's
    // last send is the (2k + 1)-th to complete.
    let last_sends: Vec<SimTime> = sent.iter().skip(1).step_by(2).copied().collect();
    assert!(
        last_sends[last_sends.len() - 1] > t0 + CALL_HORIZON,
        "the last writes were still sending at their first horizon"
    );
    let horizons: Vec<SimTime> = last_sends.iter().map(|&t| t + CALL_HORIZON).collect();
    assert_eq!(resolved, horizons);
    orfs_quiet(w, cid);
    assert_eq!(w.gm.port(port).unwrap().tokens(), tokens, "tokens home");
}

/// A 4 MB direct write, then a 4 MB direct read of it back (the largest
/// transfer the server's staging ring takes), on MX and GM: each takes
/// longer than `CALL_HORIZON` on the wire alone, and succeeds byte-exact —
/// the horizon bounds silence, not transfer time.
#[test]
fn a_four_megabyte_direct_transfer_outlasts_the_horizon_and_succeeds() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let mut fx = fs_fixture(FsOpts {
            kind,
            ..FsOpts::default()
        });
        let (w, cid, user) = (&mut fx.w, fx.cid, fx.user);
        let len = 4 << 20;
        let data: Vec<u8> = (0..len).map(|i| pattern_byte(i ^ 0x5A)).collect();
        w.os.node_mut(user.node)
            .write_virt(user.asid, user.addr, &data)
            .unwrap();
        let fd = fsops::open(w, cid, "/data", true).unwrap();
        let t0 = now(w);
        let wrote = fsops::write(w, cid, fd, user.memref(len), 0);
        let t1 = now(w);
        assert_eq!(wrote, Ok(len), "{kind:?}");
        w.os.node_mut(user.node)
            .write_virt(user.asid, user.addr, &vec![0; len as usize])
            .unwrap();
        let read = fsops::read(w, cid, fd, user.memref(len), 0);
        let t2 = now(w);
        assert_eq!(read, Ok(len), "{kind:?}");
        let mut back = vec![0; len as usize];
        w.os.node(user.node)
            .read_virt(user.asid, user.addr, &mut back)
            .unwrap();
        assert!(
            back == data,
            "{kind:?}: the bytes read back are the bytes written"
        );
        for (op, took) in [("write", t1 - t0), ("read", t2 - t1)] {
            assert!(took > CALL_HORIZON, "{kind:?} {op} took only {took:?}");
        }
        orfs_quiet(w, cid);
    }
}
