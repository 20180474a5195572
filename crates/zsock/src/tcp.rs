//! The TCP/IP-over-Gigabit-Ethernet baseline.
//!
//! The paper's reference point for the socket comparison (§5.3): the full
//! TCP/IP stack "with fragmentation and checksum computation" whose host
//! processing is known to consume about half of the transaction cost
//! \[Sum00\], on a commodity GigE wire. Modeled at the socket layer as an
//! explicit cost pipeline (sender stack → wire occupancy → receiver stack)
//! rather than through the Myrinet NIC model — this network has no OS-bypass
//! and no DMA engine the applications can see.

use std::collections::VecDeque;

use bytes::Bytes;
use knet_core::{read_iovec, write_iovec, IoVec, MemRef};
use knet_simcore::{Busy, SimTime};
use knet_simos::{cpu_charge, NodeId, OsWorld};

use crate::params::{host_cost, wire_cost, MTU, WIRE_LATENCY};

/// Identifier of a TCP socket endpoint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TcpSockId(pub u32);

/// Identifier of an in-flight operation.
pub type TcpOpId = u64;

#[derive(Clone, Copy, Debug)]
struct PendingRecv {
    op: TcpOpId,
    dst: MemRef,
}

/// Per-socket counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpStats {
    pub sends: u64,
    pub recvs: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub packets: u64,
}

/// One TCP socket endpoint.
pub struct TcpSock {
    pub id: TcpSockId,
    pub node: NodeId,
    pub peer: Option<TcpSockId>,
    rx: VecDeque<Bytes>,
    rx_buffered: u64,
    waiting: VecDeque<PendingRecv>,
    next_op: u64,
    pub completed: VecDeque<(TcpOpId, u64)>,
    pub stats: TcpStats,
}

/// All TCP state: sockets plus one shared full-duplex GigE wire per
/// direction between each node pair.
#[derive(Default)]
pub struct TcpLayer {
    socks: Vec<TcpSock>,
    wires: std::collections::BTreeMap<(u32, u32), Busy>,
}

impl TcpLayer {
    pub fn sock(&self, id: TcpSockId) -> &TcpSock {
        &self.socks[id.0 as usize]
    }

    pub fn sock_mut(&mut self, id: TcpSockId) -> &mut TcpSock {
        &mut self.socks[id.0 as usize]
    }
}

/// Capability trait: a world with the TCP baseline.
pub trait TcpWorld: OsWorld {
    fn tcp(&self) -> &TcpLayer;
    fn tcp_mut(&mut self) -> &mut TcpLayer;
}

/// Create a connected pair of TCP sockets between two nodes.
pub fn tcp_pair<W: TcpWorld>(w: &mut W, a: NodeId, b: NodeId) -> (TcpSockId, TcpSockId) {
    let base = w.tcp().socks.len() as u32;
    let (ia, ib) = (TcpSockId(base), TcpSockId(base + 1));
    for (id, node, peer) in [(ia, a, ib), (ib, b, ia)] {
        w.tcp_mut().socks.push(TcpSock {
            id,
            node,
            peer: Some(peer),
            rx: VecDeque::new(),
            rx_buffered: 0,
            waiting: VecDeque::new(),
            next_op: 1,
            completed: VecDeque::new(),
            stats: TcpStats::default(),
        });
    }
    (ia, ib)
}

/// `send(fd, buf)` through the TCP/IP stack.
pub fn tcp_send<W: TcpWorld>(w: &mut W, sid: TcpSockId, src: MemRef) -> TcpOpId {
    let (node, peer, op) = {
        let s = w.tcp_mut().sock_mut(sid);
        let op = s.next_op;
        s.next_op += 1;
        s.stats.sends += 1;
        s.stats.bytes_sent += src.len();
        s.stats.packets += src.len().div_ceil(MTU).max(1);
        (s.node, s.peer.expect("connected"), op)
    };
    let len = src.len();
    let data = read_iovec(w.os().node(node), &IoVec::single(src))
        .map(Bytes::from)
        .unwrap_or_default();
    // Sender stack: copy into skbs, fragment, checksum.
    let host_done = cpu_charge(w, node, host_cost(len));
    // Wire occupancy (shared per direction).
    let peer_node = w.tcp().sock(peer).node;
    let wire_end = {
        let now = knet_simcore::now(w);
        let wire = w.tcp_mut().wires.entry((node.0, peer_node.0)).or_default();
        let (_, end) = wire.acquire(host_done.max(now), wire_cost(len));
        end
    };
    let arrival = wire_end + WIRE_LATENCY;
    // Receiver stack then delivery. The arrival is the receiver node's
    // event; note the comparison stack's own `WIRE_LATENCY` is *not*
    // guaranteed to clear the sharded engine's lookahead — an arrival
    // inside it surfaces as a typed `CausalityViolation`, never silence.
    knet_simcore::call_at(w, peer_node.0, arrival, move |w: &mut W| {
        let rx_node = w.tcp().sock(peer).node;
        let done = cpu_charge(w, rx_node, host_cost(len));
        knet_simcore::call_at(w, rx_node.0, done, move |w: &mut W| {
            let s = w.tcp_mut().sock_mut(peer);
            s.rx_buffered += data.len() as u64;
            s.rx.push_back(data);
            drain(w, peer);
        });
    });
    // Send completes locally once the stack has copied the buffer.
    knet_simcore::call_at(w, node.0, host_done, move |w: &mut W| {
        let s = w.tcp_mut().sock_mut(sid);
        s.completed.push_back((op, len));
    });
    op
}

/// `recv(fd, buf)`: stream semantics.
pub fn tcp_recv<W: TcpWorld>(w: &mut W, sid: TcpSockId, dst: MemRef) -> TcpOpId {
    let op = {
        let s = w.tcp_mut().sock_mut(sid);
        let op = s.next_op;
        s.next_op += 1;
        s.stats.recvs += 1;
        s.waiting.push_back(PendingRecv { op, dst });
        op
    };
    drain(w, sid);
    op
}

fn drain<W: TcpWorld>(w: &mut W, sid: TcpSockId) {
    loop {
        let node = w.tcp().sock(sid).node;
        let (pending, available) = {
            let s = w.tcp().sock(sid);
            (s.waiting.front().copied(), s.rx_buffered)
        };
        let Some(p) = pending else { return };
        if available == 0 {
            return;
        }
        let want = p.dst.len().min(available);
        let mut out: Vec<u8> = Vec::with_capacity(want as usize);
        {
            let s = w.tcp_mut().sock_mut(sid);
            while (out.len() as u64) < want {
                let need = want - out.len() as u64;
                let chunk = s.rx.front_mut().expect("buffered");
                if (chunk.len() as u64) <= need {
                    out.extend_from_slice(chunk);
                    s.rx.pop_front();
                } else {
                    out.extend_from_slice(&chunk[..need as usize]);
                    *chunk = chunk.slice(need as usize..);
                }
            }
            s.rx_buffered -= want;
            s.waiting.pop_front();
            s.stats.bytes_received += want;
        }
        write_iovec(w.os_mut().node_mut(node), &IoVec::single(p.dst), &out).ok();
        // The copy-to-user is part of host_cost; charge only a small
        // wake-up here.
        cpu_charge(w, node, SimTime::from_nanos(300));
        let s = w.tcp_mut().sock_mut(sid);
        s.completed.push_back((p.op, want));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knet_simcore::{run_to_quiescence, Scheduler, SimWorld};
    use knet_simos::{Asid, CpuModel, OsLayer, Prot};

    struct W {
        sched: Scheduler<W>,
        os: OsLayer,
        tcp: TcpLayer,
    }
    impl SimWorld for W {
        type Ev = knet_simcore::BoxEvent<Self>;
        fn sched(&self) -> &Scheduler<Self> {
            &self.sched
        }
        fn sched_mut(&mut self) -> &mut Scheduler<Self> {
            &mut self.sched
        }
    }
    impl OsWorld for W {
        fn os(&self) -> &OsLayer {
            &self.os
        }
        fn os_mut(&mut self) -> &mut OsLayer {
            &mut self.os
        }
    }
    impl TcpWorld for W {
        fn tcp(&self) -> &TcpLayer {
            &self.tcp
        }
        fn tcp_mut(&mut self) -> &mut TcpLayer {
            &mut self.tcp
        }
    }

    fn world() -> (W, NodeId, NodeId) {
        let mut w = W {
            sched: Scheduler::new(),
            os: OsLayer::new(),
            tcp: TcpLayer::default(),
        };
        let a = w.os.add_node(CpuModel::xeon_2600(), 1024);
        let b = w.os.add_node(CpuModel::xeon_2600(), 1024);
        (w, a, b)
    }

    #[test]
    fn stream_roundtrip_with_partial_reads() {
        let (mut w, a, b) = world();
        let asid = w.os.node_mut(a).create_process();
        let addr = w.os.node_mut(a).map_anon(asid, 65536, Prot::RW).unwrap();
        let basid = w.os.node_mut(b).create_process();
        let baddr = w.os.node_mut(b).map_anon(basid, 65536, Prot::RW).unwrap();
        let (sa, sb) = tcp_pair(&mut w, a, b);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        w.os.node_mut(a).write_virt(asid, addr, &data).unwrap();
        tcp_send(&mut w, sa, MemRef::user(asid, addr, 10_000));
        run_to_quiescence(&mut w);
        // Two partial reads drain the stream.
        let r1 = tcp_recv(&mut w, sb, MemRef::user(basid, baddr, 4_000));
        let r2 = tcp_recv(&mut w, sb, MemRef::user(basid, baddr.add(4_000), 6_000));
        run_to_quiescence(&mut w);
        let done: Vec<_> = w.tcp.sock(sb).completed.iter().cloned().collect();
        assert!(done.contains(&(r1, 4_000)));
        assert!(done.contains(&(r2, 6_000)));
        let mut back = vec![0u8; 10_000];
        w.os.node(b).read_virt(basid, baddr, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn latency_is_commodity_class() {
        let (mut w, a, b) = world();
        let ka = w.os.node_mut(a).kalloc(4096).unwrap();
        let kb = w.os.node_mut(b).kalloc(4096).unwrap();
        let (sa, sb) = tcp_pair(&mut w, a, b);
        let r = tcp_recv(&mut w, sb, MemRef::kernel(kb, 1));
        let t0 = knet_simcore::now(&w);
        w.os.node_mut(a).write_virt(Asid::KERNEL, ka, b"x").unwrap();
        tcp_send(&mut w, sa, MemRef::kernel(ka, 1));
        run_to_quiescence(&mut w);
        assert!(w.tcp.sock(sb).completed.iter().any(|(o, _)| *o == r));
        let one_way = knet_simcore::now(&w) - t0;
        // Tens of microseconds — an order of magnitude above Sockets-MX.
        assert!(
            (18.0..=60.0).contains(&one_way.micros()),
            "GigE one-way = {one_way}"
        );
    }

    #[test]
    fn wire_serializes_per_direction() {
        let (mut w, a, b) = world();
        let ka = w.os.node_mut(a).kalloc(1 << 20).unwrap();
        let kb = w.os.node_mut(b).kalloc(1 << 20).unwrap();
        let (sa, sb) = tcp_pair(&mut w, a, b);
        let t0 = knet_simcore::now(&w);
        tcp_send(&mut w, sa, MemRef::kernel(ka, 1 << 20));
        tcp_send(&mut w, sa, MemRef::kernel(ka, 1 << 20));
        let r1 = tcp_recv(&mut w, sb, MemRef::kernel(kb, 1 << 20));
        let r2 = tcp_recv(&mut w, sb, MemRef::kernel(kb, 1 << 20));
        run_to_quiescence(&mut w);
        assert!(w.tcp.sock(sb).completed.iter().any(|(o, _)| *o == r1));
        assert!(w.tcp.sock(sb).completed.iter().any(|(o, _)| *o == r2));
        let elapsed = knet_simcore::now(&w) - t0;
        // Two 1 MB messages over a 125 MB/s wire: at least ~17 ms of wire
        // time — the shared wire must serialize them.
        assert!(elapsed.millis() >= 16.0, "wire must serialize: {elapsed}");
    }
}
