//! Benchmark drivers: synchronous wrappers over the event-driven world.
//!
//! These helpers are shared by the figure regenerators in [`crate::figures`],
//! the examples, and the integration tests. All times are *virtual*.

use knet_core::api::{channel_close, channel_connect, channel_post_recv, channel_send};
use knet_core::{Endpoint, IoVec, MemRef, TransportEvent};
use knet_orfs::{OrfsClientId, SysResult, SyscallId};
use knet_simcore::{run_until, RunOutcome, SimTime};
use knet_simos::{Asid, NodeId, Prot, VirtAddr};
use knet_zsock::{SockId, SockOpId, TcpOpId, TcpSockId};

use crate::world::ClusterWorld;

/// A kernel buffer for raw transport benchmarks.
#[derive(Clone, Copy, Debug)]
pub struct KBuf {
    pub node: NodeId,
    pub addr: VirtAddr,
    pub len: u64,
}

impl KBuf {
    pub fn memref(&self, len: u64) -> MemRef {
        MemRef::kernel(self.addr, len.min(self.len))
    }

    pub fn iov(&self, len: u64) -> IoVec {
        IoVec::single(self.memref(len))
    }
}

/// Allocate a kernel buffer on `node`.
pub fn kbuf(w: &mut ClusterWorld, node: NodeId, len: u64) -> KBuf {
    let addr =
        w.os.node_mut(node)
            .kalloc(len)
            .expect("kernel buffer allocation");
    KBuf { node, addr, len }
}

/// A user-space buffer (process + anonymous mapping).
#[derive(Clone, Copy, Debug)]
pub struct UBuf {
    pub node: NodeId,
    pub asid: Asid,
    pub addr: VirtAddr,
    pub len: u64,
}

impl UBuf {
    pub fn memref(&self, len: u64) -> MemRef {
        MemRef::user(self.asid, self.addr, len.min(self.len))
    }

    pub fn memref_at(&self, offset: u64, len: u64) -> MemRef {
        MemRef::user(self.asid, self.addr.add(offset), len)
    }

    pub fn iov(&self, len: u64) -> IoVec {
        IoVec::single(self.memref(len))
    }
}

/// Create a process with one mapped buffer on `node`.
pub fn ubuf(w: &mut ClusterWorld, node: NodeId, len: u64) -> UBuf {
    let asid = w.os.node_mut(node).create_process();
    let addr =
        w.os.node_mut(node)
            .map_anon(asid, len, Prot::RW)
            .expect("user mapping");
    UBuf {
        node,
        asid,
        addr,
        len,
    }
}

/// Run until the endpoint's completion queue holds an event, then pop it
/// (served by the registry's per-endpoint index). Panics if the simulation
/// drains first (a protocol bug).
pub fn await_event(w: &mut ClusterWorld, ep: Endpoint) -> TransportEvent {
    let outcome = run_until(w, |w| w.has_event(ep));
    assert_eq!(
        outcome,
        RunOutcome::Satisfied,
        "no event arrived for {ep:?}"
    );
    w.take_event(ep).expect("event present")
}

/// Run until a `RecvDone` arrives for `ep` (discarding send completions).
///
/// Completions are drained in batches ([`ClusterWorld::take_events`]) —
/// one registry access per burst instead of per event. The harness drivers
/// are lock-step (at most one data event outstanding per await), which the
/// drain asserts.
pub fn await_recv(w: &mut ClusterWorld, ep: Endpoint) -> (u64, u64) {
    let mut batch = Vec::new();
    loop {
        let outcome = run_until(w, |w| w.has_event(ep));
        assert_eq!(
            outcome,
            RunOutcome::Satisfied,
            "no event arrived for {ep:?}"
        );
        w.take_events(ep, 64, &mut batch);
        let mut data: Option<(u64, u64)> = None;
        for e in batch.drain(..) {
            match e.event {
                TransportEvent::RecvDone { tag, len, .. } => {
                    assert!(
                        data.is_none(),
                        "lock-step driver saw concurrent data events"
                    );
                    data = Some((tag, len));
                }
                TransportEvent::Unexpected { tag, data: d, .. } => {
                    assert!(
                        data.is_none(),
                        "lock-step driver saw concurrent data events"
                    );
                    data = Some((tag, d.len() as u64));
                }
                TransportEvent::SendDone { .. } => {}
                TransportEvent::SendFailed { ctx, error } => {
                    panic!("benchmark send {ctx} failed: {error}")
                }
                TransportEvent::PeerDown { peer } => {
                    panic!("benchmark peer {peer:?} died (reliability window exhausted)")
                }
                TransportEvent::CollectiveDone { .. } | TransportEvent::CollectiveRecv { .. } => {}
                TransportEvent::CollectiveFailed { ctx, error, .. } => {
                    panic!("benchmark collective {ctx} failed: {error}")
                }
            }
        }
        if let Some(d) = data {
            return d;
        }
    }
}

/// One-way latency (µs) of a ping-pong of `size` bytes between two
/// endpoints using the provided buffers, averaged over `iters` round trips
/// after one warm-up.
///
/// The endpoints are wrapped in a **channel pair** for the duration of the
/// measurement — channels are the application-facing send path (batching,
/// GM coalescing and backpressure live there), so the benchmark drivers
/// exercise exactly what applications run on. Endpoints already bound to a
/// CQ keep their queue (the channels feed it, and the binding is restored
/// when the measurement ends); unbound endpoints get a fresh queue they
/// stay bound to afterwards. Endpoints owned by a *service* (a handler
/// consumer — e.g. a zsock socket) are refused: stealing one would tear
/// the service's channel down.
pub fn transport_pingpong_us(
    w: &mut ClusterWorld,
    a: Endpoint,
    b: Endpoint,
    buf_a: IoVec,
    buf_b: IoVec,
    iters: u32,
) -> f64 {
    for ep in [a, b] {
        assert!(
            w.registry.consumer_of(ep).is_none() || w.registry.cq_of(ep).is_some(),
            "transport_pingpong_us needs a CQ-bound or unbound endpoint; \
             {ep:?} is owned by a handler consumer (a service)"
        );
    }
    let cq_a = w.registry.cq_of(a).unwrap_or_else(|| w.new_cq());
    let cq_b = w.registry.cq_of(b).unwrap_or_else(|| w.new_cq());
    let ch_a = channel_connect(w, a, b, cq_a);
    let ch_b = channel_connect(w, b, a, cq_b);
    let round = |w: &mut ClusterWorld| {
        channel_post_recv(w, ch_b, 1, buf_b.clone()).expect("post recv b");
        channel_send(w, ch_a, 1, buf_a.clone()).expect("send a->b");
        await_recv(w, b);
        channel_post_recv(w, ch_a, 2, buf_a.clone()).expect("post recv a");
        channel_send(w, ch_b, 2, buf_b.clone()).expect("send b->a");
        await_recv(w, a);
    };
    round(w);
    let t0 = knet_simcore::now(w);
    for _ in 0..iters {
        round(w);
    }
    let elapsed = knet_simcore::now(w) - t0;
    // Close the channels and hand the endpoints back as plain CQ-bound
    // consumers (replaying anything that parked in between), so callers
    // can keep polling them or run another measurement.
    channel_close(w, ch_a);
    channel_close(w, ch_b);
    w.attach_cq(a, cq_a);
    w.attach_cq(b, cq_b);
    elapsed.micros() / (2.0 * iters as f64)
}

/// NetPIPE-convention bandwidth (MB/s) at `size`: `size / one_way_time`.
pub fn transport_bandwidth_mb(
    w: &mut ClusterWorld,
    a: Endpoint,
    b: Endpoint,
    buf_a: IoVec,
    buf_b: IoVec,
    iters: u32,
) -> f64 {
    let size = buf_a.total_len();
    let us = transport_pingpong_us(w, a, b, buf_a, buf_b, iters);
    size as f64 / us
}

/// Block until ORFS syscall `sid` completes on client `cid`.
pub fn orfs_wait(w: &mut ClusterWorld, cid: OrfsClientId, sid: SyscallId) -> SysResult {
    let outcome = run_until(w, |w| {
        w.orfs.client(cid).completed.iter().any(|(s, _)| *s == sid)
    });
    assert_eq!(
        outcome,
        RunOutcome::Satisfied,
        "syscall {sid} never completed"
    );
    let c = w.orfs.clients.get_mut(cid.0 as usize).expect("client");
    let pos = c
        .completed
        .iter()
        .position(|(s, _)| *s == sid)
        .expect("present");
    c.completed.remove(pos).expect("present").1
}

/// Synchronous ORFS wrappers (issue + wait).
pub mod fsops {
    use super::*;
    use knet_orfs::{
        op_close, op_create, op_fsync, op_mkdir, op_open, op_read, op_readdir, op_stat, op_unlink,
        op_write, OrfsError, SysRet, WireAttr, WireDirEntry,
    };

    pub fn open(
        w: &mut ClusterWorld,
        cid: OrfsClientId,
        path: &str,
        direct: bool,
    ) -> Result<u32, OrfsError> {
        let sid = op_open(w, cid, path, direct);
        match orfs_wait(w, cid, sid)? {
            SysRet::Fd(fd) => Ok(fd),
            _ => Err(OrfsError::Decode),
        }
    }

    pub fn read(
        w: &mut ClusterWorld,
        cid: OrfsClientId,
        fd: u32,
        dest: MemRef,
        offset: u64,
    ) -> Result<u64, OrfsError> {
        let sid = op_read(w, cid, fd, dest, offset);
        match orfs_wait(w, cid, sid)? {
            SysRet::Bytes(n) => Ok(n),
            _ => Err(OrfsError::Decode),
        }
    }

    pub fn write(
        w: &mut ClusterWorld,
        cid: OrfsClientId,
        fd: u32,
        src: MemRef,
        offset: u64,
    ) -> Result<u64, OrfsError> {
        let sid = op_write(w, cid, fd, src, offset);
        match orfs_wait(w, cid, sid)? {
            SysRet::Bytes(n) => Ok(n),
            _ => Err(OrfsError::Decode),
        }
    }

    pub fn close(w: &mut ClusterWorld, cid: OrfsClientId, fd: u32) -> Result<(), OrfsError> {
        let sid = op_close(w, cid, fd);
        orfs_wait(w, cid, sid).map(|_| ())
    }

    pub fn fsync(w: &mut ClusterWorld, cid: OrfsClientId, fd: u32) -> Result<(), OrfsError> {
        let sid = op_fsync(w, cid, fd);
        orfs_wait(w, cid, sid).map(|_| ())
    }

    pub fn create(
        w: &mut ClusterWorld,
        cid: OrfsClientId,
        path: &str,
        mode: u16,
    ) -> Result<u32, OrfsError> {
        let sid = op_create(w, cid, path, mode);
        match orfs_wait(w, cid, sid)? {
            SysRet::Ino(i) => Ok(i),
            _ => Err(OrfsError::Decode),
        }
    }

    pub fn mkdir(
        w: &mut ClusterWorld,
        cid: OrfsClientId,
        path: &str,
        mode: u16,
    ) -> Result<u32, OrfsError> {
        let sid = op_mkdir(w, cid, path, mode);
        match orfs_wait(w, cid, sid)? {
            SysRet::Ino(i) => Ok(i),
            _ => Err(OrfsError::Decode),
        }
    }

    pub fn unlink(w: &mut ClusterWorld, cid: OrfsClientId, path: &str) -> Result<(), OrfsError> {
        let sid = op_unlink(w, cid, path);
        orfs_wait(w, cid, sid).map(|_| ())
    }

    pub fn stat(
        w: &mut ClusterWorld,
        cid: OrfsClientId,
        path: &str,
    ) -> Result<WireAttr, OrfsError> {
        let sid = op_stat(w, cid, path);
        match orfs_wait(w, cid, sid)? {
            SysRet::Attr(a) => Ok(a),
            _ => Err(OrfsError::Decode),
        }
    }

    pub fn readdir(
        w: &mut ClusterWorld,
        cid: OrfsClientId,
        path: &str,
    ) -> Result<Vec<WireDirEntry>, OrfsError> {
        let sid = op_readdir(w, cid, path);
        match orfs_wait(w, cid, sid)? {
            SysRet::Entries(e) => Ok(e),
            _ => Err(OrfsError::Decode),
        }
    }
}

/// Sequential-read throughput (MB/s at the application level, as in
/// Figures 3b/4b/7): read `total` bytes in `record`-sized records.
///
/// `dest_for(i)` supplies the destination buffer for record `i` — reuse one
/// buffer for a warm registration cache, rotate over a large pool to get 0 %
/// hits (the paper's "without registration cache" series).
pub fn seq_read_mb(
    w: &mut ClusterWorld,
    cid: OrfsClientId,
    fd: u32,
    record: u64,
    total: u64,
    mut dest_for: impl FnMut(&mut ClusterWorld, u64) -> MemRef,
) -> f64 {
    let records = (total / record).max(1);
    // Warm-up record (registration cache, dentries) — read at the file
    // *tail* so the measured range's page-cache stays cold.
    let d = dest_for(w, 0);
    fsops::read(w, cid, fd, d, total).expect("warm-up read");
    let t0 = knet_simcore::now(w);
    let mut moved = 0u64;
    for i in 0..records {
        let d = dest_for(w, i);
        let n = fsops::read(w, cid, fd, d, i * record).expect("read");
        moved += n;
    }
    let elapsed = knet_simcore::now(w) - t0;
    knet_simcore::Bandwidth::observed_mb_s(moved, elapsed)
}

/// Block until socket op `op` completes on `sid`.
pub fn sock_wait(w: &mut ClusterWorld, sid: SockId, op: SockOpId) -> u64 {
    let outcome = run_until(w, |w| {
        w.zsock.sock(sid).completed.iter().any(|(o, _)| *o == op)
    });
    assert_eq!(outcome, RunOutcome::Satisfied, "socket op never completed");
    let s = w.zsock.sock_mut(sid);
    let pos = s.completed.iter().position(|(o, _)| *o == op).expect("op");
    s.completed
        .remove(pos)
        .expect("op")
        .1
        .expect("socket op ok")
}

/// NetPIPE ping-pong over a socket pair: one-way latency in µs.
pub fn sock_pingpong_us(
    w: &mut ClusterWorld,
    sa: SockId,
    sb: SockId,
    buf_a: MemRef,
    buf_b: MemRef,
    iters: u32,
) -> f64 {
    let round = |w: &mut ClusterWorld| {
        let r = knet_zsock::sock_recv(w, sb, buf_b);
        knet_zsock::sock_send(w, sa, buf_a);
        sock_wait(w, sb, r);
        let r2 = knet_zsock::sock_recv(w, sa, buf_a);
        knet_zsock::sock_send(w, sb, buf_b);
        sock_wait(w, sa, r2);
    };
    round(w);
    let t0 = knet_simcore::now(w);
    for _ in 0..iters {
        round(w);
    }
    (knet_simcore::now(w) - t0).micros() / (2.0 * iters as f64)
}

/// Block until TCP op `op` completes.
pub fn tcp_wait(w: &mut ClusterWorld, sid: TcpSockId, op: TcpOpId) -> u64 {
    let outcome = run_until(w, |w| {
        w.tcp.sock(sid).completed.iter().any(|(o, _)| *o == op)
    });
    assert_eq!(outcome, RunOutcome::Satisfied, "tcp op never completed");
    let s = w.tcp.sock_mut(sid);
    let pos = s.completed.iter().position(|(o, _)| *o == op).expect("op");
    s.completed.remove(pos).expect("op").1
}

/// NetPIPE ping-pong over the TCP baseline: one-way latency in µs.
pub fn tcp_pingpong_us(
    w: &mut ClusterWorld,
    sa: TcpSockId,
    sb: TcpSockId,
    buf_a: MemRef,
    buf_b: MemRef,
    iters: u32,
) -> f64 {
    let round = |w: &mut ClusterWorld| {
        let r = knet_zsock::tcp_recv(w, sb, buf_b);
        knet_zsock::tcp_send(w, sa, buf_a);
        tcp_wait(w, sb, r);
        let r2 = knet_zsock::tcp_recv(w, sa, buf_a);
        knet_zsock::tcp_send(w, sb, buf_b);
        tcp_wait(w, sa, r2);
    };
    round(w);
    let t0 = knet_simcore::now(w);
    for _ in 0..iters {
        round(w);
    }
    (knet_simcore::now(w) - t0).micros() / (2.0 * iters as f64)
}

/// Populate a file of `len` bytes with a deterministic pattern on a server's
/// file system. Returns the byte at every offset via `pattern_byte`.
pub fn make_server_file(
    w: &mut ClusterWorld,
    server: knet_orfs::OrfsServerId,
    path: &str,
    len: u64,
) {
    let now = knet_simcore::now(w);
    let fs = &mut w.orfs.server_mut(server).fs;
    let ino = fs.create(path, 0o644, now).expect("create");
    let chunk = 64 * 1024;
    let mut buf = vec![0u8; chunk as usize];
    let mut off = 0u64;
    while off < len {
        let n = chunk.min(len - off) as usize;
        for (i, b) in buf[..n].iter_mut().enumerate() {
            *b = pattern_byte(off + i as u64);
        }
        fs.write(ino, off, &buf[..n], now).expect("write");
        off += n as u64;
    }
    // Setup I/O is free: drain the accumulated cost.
    let _ = fs.take_cost();
}

/// The deterministic file pattern used by tests to verify reads end-to-end.
pub fn pattern_byte(offset: u64) -> u8 {
    ((offset * 131 + 7) % 251) as u8
}

/// Elapsed virtual time of `f`.
pub fn timed(w: &mut ClusterWorld, f: impl FnOnce(&mut ClusterWorld)) -> SimTime {
    let t0 = knet_simcore::now(w);
    f(w);
    knet_simcore::now(w) - t0
}
