//! End-to-end MX driver tests, including the §5.1 calibration checks
//! (4.2 µs latency, kernel ≡ user, copy-removal gains).

use bytes::Bytes;
use knet_core::{
    CompletionHook, Endpoint, IoVec, MemRef, NetError, TenantId, TransportEvent, TransportKind,
};
use knet_simcore::{run_to_quiescence, run_until, RunOutcome, Scheduler, SimTime, SimWorld};
use knet_simnic::{FaultPlan, NicId, NicLayer, NicModel, NicWorld, Packet, Proto, QosPolicy};
use knet_simos::{Asid, CpuModel, NodeId, OsLayer, OsWorld, Prot, PAGE_SIZE};

use crate::layer::{
    mx_cancel_recv, mx_close_endpoint, mx_irecv, mx_isend, mx_isend_t, mx_on_packet,
    mx_open_endpoint, mx_peer_down, MxEndpointConfig, MxEndpointId, MxLayer, MxOpts, MxWorld,
    MX_ANY_TAG,
};
use crate::params::MxParams;

struct World {
    sched: Scheduler<World>,
    os: OsLayer,
    nics: NicLayer,
    mx: MxLayer,
    /// Every completion the driver handed up, oldest first.
    completed: Vec<(Endpoint, TransportEvent)>,
}

impl SimWorld for World {
    type Ev = knet_simcore::BoxEvent<Self>;
    fn sched(&self) -> &Scheduler<Self> {
        &self.sched
    }
    fn sched_mut(&mut self) -> &mut Scheduler<Self> {
        &mut self.sched
    }
}
impl OsWorld for World {
    fn os(&self) -> &OsLayer {
        &self.os
    }
    fn os_mut(&mut self) -> &mut OsLayer {
        &mut self.os
    }
}
impl NicWorld for World {
    fn nics(&self) -> &NicLayer {
        &self.nics
    }
    fn nics_mut(&mut self) -> &mut NicLayer {
        &mut self.nics
    }
    fn nic_rx(&mut self, nic: NicId, pkt: Packet) {
        if pkt.proto == Proto::Mx {
            mx_on_packet(self, nic, pkt);
        }
    }
    fn nic_link_dead(&mut self, _proto: Proto, local: NicId, remote: NicId) {
        mx_peer_down(self, local, remote);
    }
}
impl CompletionHook for World {
    fn complete(&mut self, ep: Endpoint, ev: TransportEvent) {
        self.completed.push((ep, ev));
    }
}
impl MxWorld for World {
    fn mx(&self) -> &MxLayer {
        &self.mx
    }
    fn mx_mut(&mut self) -> &mut MxLayer {
        &mut self.mx
    }
}

fn world() -> (World, NodeId, NodeId) {
    let mut w = World {
        sched: Scheduler::new(),
        os: OsLayer::new(),
        nics: NicLayer::new(),
        mx: MxLayer::new(MxParams::default()),
        completed: Vec::new(),
    };
    let n0 = w.os.add_node(CpuModel::xeon_2600(), 8192);
    let n1 = w.os.add_node(CpuModel::xeon_2600(), 8192);
    w.nics.add_nic(n0, NicModel::pci_xd());
    w.nics.add_nic(n1, NicModel::pci_xd());
    (w, n0, n1)
}

/// `ep` as the transport endpoint completions name.
fn ep_of(w: &World, ep: MxEndpointId) -> Endpoint {
    Endpoint {
        kind: TransportKind::Mx,
        node: w.mx.ep(ep).unwrap().node,
        idx: ep.0,
    }
}

/// Take the oldest completion handed to `ep`.
fn next_event(w: &mut World, ep: MxEndpointId) -> Option<TransportEvent> {
    let i = w.completed.iter().position(|(to, _)| to.idx == ep.0)?;
    Some(w.completed.remove(i).1)
}

fn has_recv(w: &World, ep: MxEndpointId) -> bool {
    w.completed
        .iter()
        .any(|(to, e)| to.idx == ep.0 && matches!(e, TransportEvent::RecvDone { .. }))
}

fn pop_recv(w: &mut World, ep: MxEndpointId) -> TransportEvent {
    loop {
        match next_event(w, ep) {
            Some(ev @ TransportEvent::RecvDone { .. }) => return ev,
            Some(_) => continue,
            None => panic!("no receive event pending"),
        }
    }
}

/// A kernel buffer (physically contiguous) as an IoVec of the given class.
enum Class {
    Kernel,
    Physical,
    User,
}

struct Buf {
    iov: IoVec,
    addr: knet_simos::VirtAddr,
    asid: Asid,
}

fn make_buf(w: &mut World, node: NodeId, len: u64, class: Class) -> Buf {
    let alloc = len.max(1).next_multiple_of(PAGE_SIZE);
    match class {
        Class::Kernel => {
            let addr = w.os.node_mut(node).kalloc(alloc).unwrap();
            Buf {
                iov: IoVec::single(MemRef::kernel(addr, len)),
                addr,
                asid: Asid::KERNEL,
            }
        }
        Class::Physical => {
            let addr = w.os.node_mut(node).kalloc(alloc).unwrap();
            let p = addr.kernel_to_phys().unwrap();
            Buf {
                iov: IoVec::single(MemRef::physical(p, len)),
                addr,
                asid: Asid::KERNEL,
            }
        }
        Class::User => {
            let asid = w.os.node_mut(node).create_process();
            let addr = w.os.node_mut(node).map_anon(asid, alloc, Prot::RW).unwrap();
            Buf {
                iov: IoVec::single(MemRef::user(asid, addr, len)),
                addr,
                asid,
            }
        }
    }
}

/// One-way ping-pong latency over `iters` round trips after warm-up.
fn pingpong_latency(
    w: &mut World,
    ea: MxEndpointId,
    eb: MxEndpointId,
    ba: &Buf,
    bb: &Buf,
    iters: u32,
) -> f64 {
    let measure = |w: &mut World| {
        mx_irecv(w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
        mx_isend(w, ea, eb, 1, &ba.iov, 0).unwrap();
        assert_eq!(run_until(w, |w| has_recv(w, eb)), RunOutcome::Satisfied);
        pop_recv(w, eb);
        mx_irecv(w, ea, MX_ANY_TAG, &ba.iov, 0).unwrap();
        mx_isend(w, eb, ea, 1, &bb.iov, 0).unwrap();
        assert_eq!(run_until(w, |w| has_recv(w, ea)), RunOutcome::Satisfied);
        pop_recv(w, ea);
    };
    measure(w);
    let t0 = knet_simcore::now(w);
    for _ in 0..iters {
        measure(w);
    }
    (knet_simcore::now(w) - t0).micros() / (2.0 * iters as f64)
}

fn latency_with(class_a: Class, class_b: Class, size: u64, cfg: MxEndpointConfig) -> f64 {
    let (mut w, n0, n1) = world();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, size, class_a);
    let bb = make_buf(&mut w, n1, size, class_b);
    pingpong_latency(&mut w, ea, eb, &ba, &bb, 10)
}

#[test]
fn one_byte_latency_matches_paper() {
    // §5.1: 4.2 µs for a 1-byte message.
    let lat = latency_with(Class::User, Class::User, 1, user_cfg());
    assert!(
        (3.7..=4.7).contains(&lat),
        "MX user 1-byte one-way latency = {lat:.2} µs (paper: 4.2)"
    );
}

fn user_cfg() -> MxEndpointConfig {
    // Endpoint config resolved per-world in latency_with (needs the asid);
    // we cheat by making the config in make_buf order: user buffers carry
    // their own asid, and check_classes validates against the endpoint's.
    // So here we build a kernel config for kernel tests and patch user
    // configs inside latency_with_user below.
    MxEndpointConfig::kernel()
}

/// User-mode latency needs the endpoint bound to the buffer's process, so
/// build the world by hand.
fn user_latency(size: u64) -> f64 {
    let (mut w, n0, n1) = world();
    let ba = make_buf(&mut w, n0, size, Class::User);
    let bb = make_buf(&mut w, n1, size, Class::User);
    let ea = mx_open_endpoint(&mut w, n0, MxEndpointConfig::user(ba.asid)).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, MxEndpointConfig::user(bb.asid)).unwrap();
    pingpong_latency(&mut w, ea, eb, &ba, &bb, 10)
}

fn kernel_latency(size: u64, opts: MxOpts) -> f64 {
    latency_with(
        Class::Kernel,
        Class::Kernel,
        size,
        MxEndpointConfig::kernel().with_opts(opts),
    )
}

#[test]
fn user_one_byte_latency_is_4_2us() {
    let lat = user_latency(1);
    assert!(
        (3.7..=4.7).contains(&lat),
        "MX user 1-byte latency = {lat:.2} µs (paper: 4.2)"
    );
}

#[test]
fn kernel_latency_equals_user_latency() {
    // §5.1: "latency and bandwidth do not differ between user and kernel
    // communications."
    for size in [1u64, 64, 1024, 4096] {
        let u = user_latency(size);
        let k = kernel_latency(size, MxOpts::default());
        let diff = (u - k).abs();
        assert!(
            diff <= 0.40,
            "size {size}: user {u:.2} vs kernel {k:.2} µs differ by {diff:.2}"
        );
    }
}

/// One-way transfer time of a single message (send → RecvDone), after a
/// warm-up round trip.
fn one_way_time(size: u64, opts: MxOpts) -> SimTime {
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel().with_opts(opts);
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, size, Class::Kernel);
    let bb = make_buf(&mut w, n1, size, Class::Kernel);
    // Warm-up.
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    pop_recv(&mut w, eb);
    // Measure.
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    let t0 = knet_simcore::now(&w);
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    assert_eq!(
        run_until(&mut w, |w| has_recv(w, eb)),
        RunOutcome::Satisfied
    );
    knet_simcore::now(&w) - t0
}

#[test]
fn send_copy_removal_gains_match_figure_6() {
    // §5.1: removing the send-side copy buys ≈17 % at 32 kB...
    let size = 32 * 1024;
    let std = one_way_time(size, MxOpts::default());
    let nosend = one_way_time(
        size,
        MxOpts {
            no_send_copy: true,
            no_recv_copy: false,
        },
    );
    let gain = (std.micros() - nosend.micros()) / nosend.micros();
    assert!(
        (0.10..=0.24).contains(&gain),
        "no-send-copy gain at 32 kB = {:.1} % (paper: 17 %)",
        gain * 100.0
    );
    // ...and removing both is predicted to buy another ≈15 %.
    let nocopy = one_way_time(
        size,
        MxOpts {
            no_send_copy: true,
            no_recv_copy: true,
        },
    );
    let gain2 = (nosend.micros() - nocopy.micros()) / nocopy.micros();
    assert!(
        (0.08..=0.24).contains(&gain2),
        "predicted no-copy extra gain = {:.1} % (paper: 15 %)",
        gain2 * 100.0
    );
}

#[test]
fn single_page_copy_removal_gains_about_nine_percent() {
    // §5.1: "The most common case would be a single-page transfer. In this
    // case, our optimization gives a 9 % improvement."
    let std = one_way_time(PAGE_SIZE, MxOpts::default());
    let nosend = one_way_time(
        PAGE_SIZE,
        MxOpts {
            no_send_copy: true,
            no_recv_copy: false,
        },
    );
    let gain = (std.micros() - nosend.micros()) / nosend.micros();
    assert!(
        (0.05..=0.15).contains(&gain),
        "single-page no-send-copy gain = {:.1} % (paper: 9 %)",
        gain * 100.0
    );
}

#[test]
fn small_medium_large_payloads_arrive_intact() {
    for &size in &[1u64, 100, 128, 4096, 32 * 1024, 100 * 1024] {
        let (mut w, n0, n1) = world();
        let cfg = MxEndpointConfig::kernel();
        let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
        let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
        let ba = make_buf(&mut w, n0, size, Class::Kernel);
        let bb = make_buf(&mut w, n1, size, Class::Kernel);
        let data: Vec<u8> = (0..size).map(|i| (i * 13 % 251) as u8).collect();
        w.os.node_mut(n0)
            .write_virt(Asid::KERNEL, ba.addr, &data)
            .unwrap();
        mx_irecv(&mut w, eb, 5, &bb.iov, 77).unwrap();
        mx_isend(&mut w, ea, eb, 5, &ba.iov, 88).unwrap();
        run_to_quiescence(&mut w);
        match pop_recv(&mut w, eb) {
            TransportEvent::RecvDone {
                ctx,
                tag,
                len,
                from,
            } => {
                let ea = ep_of(&w, ea);
                assert_eq!((ctx, tag, len, from), (77, 5, size, ea), "size {size}");
            }
            _ => unreachable!(),
        }
        let mut back = vec![0u8; size as usize];
        w.os.node(n1)
            .read_virt(Asid::KERNEL, bb.addr, &mut back)
            .unwrap();
        assert_eq!(back, data, "payload mismatch at size {size}");
        // Sender completion arrived too.
        let mut send_done = false;
        while let Some(ev) = next_event(&mut w, ea) {
            if matches!(ev, TransportEvent::SendDone { ctx: 88 }) {
                send_done = true;
            }
        }
        assert!(send_done, "send completion missing at size {size}");
    }
}

#[test]
fn vectorial_send_gathers_and_scatters() {
    // §4.1: vectorial primitives move several non-contiguous segments at
    // once — here three scattered kernel pages into two destination pieces.
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let mut srcs = Vec::new();
    let mut iov = IoVec::new();
    for i in 0..3u64 {
        let k = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
        let chunk: Vec<u8> = (0..100).map(|j| (i * 100 + j) as u8).collect();
        w.os.node_mut(n0)
            .write_virt(Asid::KERNEL, k, &chunk)
            .unwrap();
        // Burn a page so source segments are physically discontiguous.
        let _ = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
        iov.push(MemRef::kernel(k, 100));
        srcs.push(chunk);
    }
    let d0 = w.os.node_mut(n1).kalloc(PAGE_SIZE).unwrap();
    let d1 = w.os.node_mut(n1).kalloc(PAGE_SIZE).unwrap();
    let dst = IoVec::from_segs(vec![MemRef::kernel(d0, 120), MemRef::kernel(d1, 180)]);
    mx_irecv(&mut w, eb, MX_ANY_TAG, &dst, 0).unwrap();
    mx_isend(&mut w, ea, eb, 9, &iov, 0).unwrap();
    run_to_quiescence(&mut w);
    pop_recv(&mut w, eb);
    let flat: Vec<u8> = srcs.concat();
    let mut got = vec![0u8; 300];
    w.os.node(n1)
        .read_virt(Asid::KERNEL, d0, &mut got[..120])
        .unwrap();
    w.os.node(n1)
        .read_virt(Asid::KERNEL, d1, &mut got[120..])
        .unwrap();
    assert_eq!(got, flat);
}

#[test]
fn unexpected_eager_queues_for_later_irecv() {
    // MPI-style matching: the message parks in the unexpected queue and a
    // later irecv completes with a ring copy.
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, 256, Class::Kernel);
    w.os.node_mut(n0)
        .write_virt(Asid::KERNEL, ba.addr, &[0xEE; 256])
        .unwrap();
    mx_isend(&mut w, ea, eb, 3, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    assert_eq!(w.mx.ep(eb).unwrap().unexpected_queued(), 1);
    let bb = make_buf(&mut w, n1, 256, Class::Kernel);
    mx_irecv(&mut w, eb, 3, &bb.iov, 4).unwrap();
    run_to_quiescence(&mut w);
    match pop_recv(&mut w, eb) {
        TransportEvent::RecvDone { ctx, tag, len, .. } => {
            assert_eq!((ctx, tag, len), (4, 3, 256));
        }
        _ => unreachable!(),
    }
    let mut back = [0u8; 256];
    w.os.node(n1)
        .read_virt(Asid::KERNEL, bb.addr, &mut back)
        .unwrap();
    assert!(back.iter().all(|&b| b == 0xEE));
}

#[test]
fn unexpected_delivery_mode_emits_events() {
    // Transport-glue mode: unmatched messages surface as events with the
    // payload inline.
    let (mut w, n0, n1) = world();
    let ea = mx_open_endpoint(&mut w, n0, MxEndpointConfig::kernel()).unwrap();
    let eb = mx_open_endpoint(
        &mut w,
        n1,
        MxEndpointConfig::kernel().with_unexpected_delivery(),
    )
    .unwrap();
    let ba = make_buf(&mut w, n0, 64, Class::Kernel);
    w.os.node_mut(n0)
        .write_virt(Asid::KERNEL, ba.addr, b"rpc-request-bytes")
        .unwrap();
    mx_isend(&mut w, ea, eb, 11, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    match next_event(&mut w, eb) {
        Some(TransportEvent::Unexpected { tag, data, from }) => {
            assert_eq!(tag, 11);
            assert_eq!(from, ep_of(&w, ea));
            assert_eq!(&data[..17], b"rpc-request-bytes");
        }
        other => panic!("expected Unexpected, got {other:?}"),
    }
    assert_eq!(w.mx.ep(eb).unwrap().unexpected_queued(), 0);
}

#[test]
fn rendezvous_waits_for_matching_receive() {
    // A large send to an endpoint with no posted receive must not move the
    // payload until the receive is posted (RTS parks in the unexpected
    // queue; CTS fires on irecv).
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let size = 64 * 1024u64;
    let ba = make_buf(&mut w, n0, size, Class::Kernel);
    mx_isend(&mut w, ea, eb, 8, &ba.iov, 5).unwrap();
    run_to_quiescence(&mut w);
    // Only the RTS crossed the wire.
    let bytes_before = w.nics.get(w.nics.nic_of_node(n1).unwrap()).stats.rx_bytes;
    assert!(bytes_before < 1024, "payload must not flow yet");
    assert_eq!(w.mx.ep(eb).unwrap().unexpected_queued(), 1);
    let bb = make_buf(&mut w, n1, size, Class::Kernel);
    mx_irecv(&mut w, eb, 8, &bb.iov, 6).unwrap();
    run_to_quiescence(&mut w);
    match pop_recv(&mut w, eb) {
        TransportEvent::RecvDone { ctx, len, .. } => assert_eq!((ctx, len), (6, size)),
        _ => unreachable!(),
    }
}

#[test]
fn large_user_transfers_pin_and_unpin() {
    let (mut w, n0, n1) = world();
    let size = 128 * 1024u64;
    let ba = make_buf(&mut w, n0, size, Class::User);
    let bb = make_buf(&mut w, n1, size, Class::User);
    let ea = mx_open_endpoint(&mut w, n0, MxEndpointConfig::user(ba.asid)).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, MxEndpointConfig::user(bb.asid)).unwrap();
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    pop_recv(&mut w, eb);
    // All pins released after completion on both sides.
    for (node, buf) in [(n0, &ba), (n1, &bb)] {
        let frame =
            w.os.node(node)
                .space(buf.asid)
                .unwrap()
                .frame_of(buf.addr)
                .unwrap();
        assert_eq!(w.os.node(node).mem.pin_count(frame), 0, "pin leaked");
    }
    assert!(w.mx.ep(ea).unwrap().stats.pages_pinned >= 32);
}

#[test]
fn kernel_physical_large_transfer_avoids_pinning() {
    // §5.1: "The large message bandwidth is even higher with the kernel
    // interface since the page locking overhead is lower."
    let user = {
        let (mut w, n0, n1) = world();
        let size = 512 * 1024u64;
        let ba = make_buf(&mut w, n0, size, Class::User);
        let bb = make_buf(&mut w, n1, size, Class::User);
        let ea = mx_open_endpoint(&mut w, n0, MxEndpointConfig::user(ba.asid)).unwrap();
        let eb = mx_open_endpoint(&mut w, n1, MxEndpointConfig::user(bb.asid)).unwrap();
        pingpong_latency(&mut w, ea, eb, &ba, &bb, 4)
    };
    let phys = {
        let (mut w, n0, n1) = world();
        let size = 512 * 1024u64;
        let ba = make_buf(&mut w, n0, size, Class::Physical);
        let bb = make_buf(&mut w, n1, size, Class::Physical);
        let cfg = MxEndpointConfig::kernel();
        let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
        let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
        pingpong_latency(&mut w, ea, eb, &ba, &bb, 4)
    };
    assert!(
        phys < user,
        "kernel-physical ({phys:.1} µs) must beat user ({user:.1} µs)"
    );
    // The gap is the pinning cost: 128 pages on each side of each transfer.
    let gap = user - phys;
    assert!(
        (20.0..=150.0).contains(&gap),
        "pin-overhead gap = {gap:.1} µs"
    );
}

#[test]
fn user_endpoint_rejects_kernel_memory() {
    let (mut w, n0, n1) = world();
    let asid = w.os.node_mut(n0).create_process();
    let ea = mx_open_endpoint(&mut w, n0, MxEndpointConfig::user(asid)).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, MxEndpointConfig::kernel()).unwrap();
    let k = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
    let iov = IoVec::single(MemRef::kernel(k, 64));
    assert_eq!(
        mx_isend(&mut w, ea, eb, 0, &iov, 0),
        Err(NetError::BadAddressClass)
    );
    let other = w.os.node_mut(n0).create_process();
    let va =
        w.os.node_mut(n0)
            .map_anon(other, PAGE_SIZE, Prot::RW)
            .unwrap();
    assert_eq!(
        mx_isend(
            &mut w,
            ea,
            eb,
            0,
            &IoVec::single(MemRef::user(other, va, 8)),
            0
        ),
        Err(NetError::BadAddressClass)
    );
}

#[test]
fn copy_avoidance_counters_track_usage() {
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel().with_opts(MxOpts {
        no_send_copy: true,
        no_recv_copy: true,
    });
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, 8 * 1024, Class::Kernel);
    let bb = make_buf(&mut w, n1, 8 * 1024, Class::Kernel);
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    pop_recv(&mut w, eb);
    assert_eq!(w.mx.ep(ea).unwrap().stats.send_copies_avoided, 1);
    assert_eq!(w.mx.ep(eb).unwrap().stats.recv_copies_avoided, 1);
    // A *vectorial* (non-contiguous) medium send cannot avoid the copy.
    let mut iov = IoVec::new();
    let k1 = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
    let _gap = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
    let k2 = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
    iov.push(MemRef::kernel(k1, 1024));
    iov.push(MemRef::kernel(k2, 1024));
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &iov, 0).unwrap();
    run_to_quiescence(&mut w);
    assert_eq!(
        w.mx.ep(ea).unwrap().stats.send_copies_avoided,
        1,
        "non-contiguous send must take the copy path"
    );
}

#[test]
fn small_message_send_completes_before_the_wire() {
    // Small sends are PIO-inlined: SendDone is host-local and nearly
    // immediate, far before the receiver sees the message.
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, 64, Class::Kernel);
    let bb = make_buf(&mut w, n1, 64, Class::Kernel);
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    let sat = run_until(&mut w, |w| w.completed.iter().any(|(to, _)| to.idx == ea.0));
    assert_eq!(sat, RunOutcome::Satisfied);
    let send_done_at = knet_simcore::now(&w);
    run_to_quiescence(&mut w);
    assert!(has_recv(&w, eb));
    assert!(
        send_done_at < SimTime::from_micros(2),
        "PIO send completion should be ≈1 µs, got {send_done_at}"
    );
}

#[test]
fn medium_data_is_snapshotted_at_send_time() {
    // The medium copy gives snapshot semantics: mutating the source after
    // isend must not change what the receiver gets.
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, 1024, Class::Kernel);
    let bb = make_buf(&mut w, n1, 1024, Class::Kernel);
    w.os.node_mut(n0)
        .write_virt(Asid::KERNEL, ba.addr, &[1u8; 1024])
        .unwrap();
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    // Clobber the source immediately (before the sim runs).
    w.os.node_mut(n0)
        .write_virt(Asid::KERNEL, ba.addr, &[9u8; 1024])
        .unwrap();
    run_to_quiescence(&mut w);
    pop_recv(&mut w, eb);
    let mut back = [0u8; 1024];
    w.os.node(n1)
        .read_virt(Asid::KERNEL, bb.addr, &mut back)
        .unwrap();
    assert!(
        back.iter().all(|&b| b == 1),
        "receiver must see the snapshot"
    );
}

#[test]
fn truncating_receive_is_rejected_by_matching() {
    // A posted buffer smaller than the incoming message is skipped (MX
    // matches on capacity); the message goes unexpected instead of being
    // silently truncated.
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, 2048, Class::Kernel);
    let small = make_buf(&mut w, n1, 128, Class::Kernel);
    mx_irecv(&mut w, eb, MX_ANY_TAG, &small.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    assert!(!has_recv(&w, eb));
    assert_eq!(w.mx.ep(eb).unwrap().unexpected_queued(), 1);
    assert_eq!(
        w.mx.ep(eb).unwrap().posted_recvs(),
        1,
        "buffer still posted"
    );
}

#[test]
fn payload_bytes_on_wire_match_message_sizes() {
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, 10_000, Class::Kernel);
    let bb = make_buf(&mut w, n1, 10_000, Class::Kernel);
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    let sent = w.nics.get(w.nics.nic_of_node(n0).unwrap()).stats.tx_bytes;
    // 3 chunks × 32 B header + 10 000 B payload.
    assert_eq!(sent, 10_000 + 3 * 32);
    let _ = Bytes::new(); // keep the bytes import exercised
}

/// A send parked behind a dry bucket, admitted by the bucket when the pace
/// timer fires and then refused for good by the send pipeline (its
/// destination closed meanwhile), must leave the tenant's admission account
/// as if the drain had never admitted it: no bytes left the node.
#[test]
fn parked_send_failing_at_drain_is_refunded() {
    let (mut w, n0, n1) = world();
    let a = mx_open_endpoint(&mut w, n0, MxEndpointConfig::kernel()).unwrap();
    let b = mx_open_endpoint(&mut w, n1, MxEndpointConfig::kernel()).unwrap();
    let nic = w.mx.ep(a).unwrap().nic;
    let burst = make_buf(&mut w, n0, 1000, Class::Kernel);
    let small = make_buf(&mut w, n0, 100, Class::Kernel);
    let tenant = TenantId(1);
    w.nics.qos.set_policy(
        tenant.0,
        QosPolicy {
            rate_bytes_per_sec: 1_000_000,
            burst_bytes: 1000,
            pace_queue_cap: 16,
        },
    );
    // The burst drains the bucket; the next 100 bytes refill in 100 µs.
    mx_isend_t(&mut w, a, b, 1, &burst.iov, 1, tenant).unwrap();
    mx_isend_t(&mut w, a, b, 2, &small.iov, 2, tenant).unwrap();
    assert_eq!(w.mx.paced.backlog(nic), 1, "the second send parked");
    let before = w.nics.qos.tenant_stats(tenant.0);
    assert_eq!((before.admitted, before.admitted_bytes), (1, 1000));

    mx_close_endpoint(&mut w, b).unwrap();
    run_to_quiescence(&mut w);

    let failed = std::iter::from_fn(|| next_event(&mut w, a)).find_map(|ev| match ev {
        TransportEvent::SendFailed { ctx, error } => Some((ctx, error)),
        _ => None,
    });
    assert_eq!(failed, Some((2, NetError::BadEndpoint)));
    assert_eq!(w.mx.paced.backlog(nic), 0);
    let after = w.nics.qos.tenant_stats(tenant.0);
    assert_eq!(
        (after.admitted, after.admitted_bytes),
        (before.admitted, before.admitted_bytes),
        "the failed send is not counted as admitted"
    );
    // The bucket, as (tenant, level in byte·ns, last refill): the 100 bytes
    // refilled by the drain instant are back in it.
    let mut bucket = Vec::new();
    w.nics.qos.fingerprint_nic(nic, |v| bucket.push(v));
    assert_eq!(bucket, vec![1, 100 * 1_000_000_000, 100_000]);
}

fn pin_count(w: &World, node: NodeId, buf: &Buf) -> u32 {
    let frame =
        w.os.node(node)
            .space(buf.asid)
            .unwrap()
            .frame_of(buf.addr)
            .unwrap();
    w.os.node(node).mem.pin_count(frame)
}

/// A 32 kB message whose sender dies mid-stream leaves the receiver with a
/// posted receive that is in neither queue the owner could reach before:
/// out of `posted`, captured by an assembly that will never complete. It is
/// still the owner's: cancel withdraws it exactly once, close releases it,
/// and a declared peer death puts it back at the head of the queue — each
/// time with its pins and the receive ring given back.
#[test]
fn a_receive_captured_by_a_half_arrived_message_is_still_the_owners() {
    enum Reclaim {
        Cancel,
        Close,
        PeerDown,
    }
    let size = 32 * 1024u64;
    let mut stranded = 0;
    for seed in 1..=20u64 {
        for how in [Reclaim::Cancel, Reclaim::Close, Reclaim::PeerDown] {
            let (mut w, n0, n1) = world();
            w.nics.set_fault_plan(
                FaultPlan::new(seed)
                    .with_drop(0.3)
                    .with_kill(n0, SimTime::from_micros(100)),
            );
            let ba = make_buf(&mut w, n0, size, Class::User);
            let bb = make_buf(&mut w, n1, size, Class::User);
            let ea = mx_open_endpoint(&mut w, n0, MxEndpointConfig::user(ba.asid)).unwrap();
            let eb = mx_open_endpoint(&mut w, n1, MxEndpointConfig::user(bb.asid)).unwrap();
            mx_irecv(&mut w, eb, 7, &bb.iov, 42).unwrap();
            mx_isend(&mut w, ea, eb, 7, &ba.iov, 1).unwrap();
            run_to_quiescence(&mut w);
            if has_recv(&w, eb) {
                continue; // the whole message beat the kill
            }
            stranded += 1;
            assert_eq!(w.mx.ep(eb).unwrap().posted_recvs(), 0, "captured");
            assert_eq!(w.mx.in_flight(), 1);
            assert_eq!(pin_count(&w, n1, &bb), 1);
            match how {
                Reclaim::Cancel => {
                    assert!(mx_cancel_recv(&mut w, eb, 7), "seed {seed}");
                    assert!(!mx_cancel_recv(&mut w, eb, 7), "exactly once");
                }
                Reclaim::Close => mx_close_endpoint(&mut w, eb).unwrap(),
                Reclaim::PeerDown => {
                    let (local, remote) = (w.mx.ep(eb).unwrap().nic, w.mx.ep(ea).unwrap().nic);
                    mx_peer_down(&mut w, local, remote);
                    assert_eq!(w.mx.ep(eb).unwrap().posted_recvs(), 1, "back in the queue");
                    assert_eq!(pin_count(&w, n1, &bb), 1, "pins intact");
                    assert!(mx_cancel_recv(&mut w, eb, 7), "where its owner finds it");
                }
            }
            assert_eq!(pin_count(&w, n1, &bb), 0, "seed {seed}: pin leaked");
            assert_eq!(w.mx.in_flight(), 0, "seed {seed}");
            assert_eq!(w.mx.reassembly_footprint().1, 1, "the ring is pooled again");
            assert!(next_event(&mut w, eb).is_none(), "and nothing completes");
        }
    }
    assert!(stranded >= 45, "the kill lands mid-message on most seeds");
}

/// The rest of a cancelled message is counted and dropped — never matched
/// against the next posted buffer.
#[test]
fn the_rest_of_a_cancelled_message_is_discarded_not_rematched() {
    let (mut w, n0, n1) = world();
    let size = 32 * 1024u64;
    let ba = make_buf(&mut w, n0, size, Class::Kernel);
    let bb = make_buf(&mut w, n1, size, Class::Kernel);
    let ea = mx_open_endpoint(&mut w, n0, MxEndpointConfig::kernel()).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, MxEndpointConfig::kernel()).unwrap();
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 1).unwrap();
    mx_isend(&mut w, ea, eb, 7, &ba.iov, 0).unwrap();
    // Stop after the first chunk captured the receive.
    let captured = |w: &World| w.mx.ep(eb).unwrap().posted_recvs() == 0;
    assert_eq!(run_until(&mut w, captured), RunOutcome::Satisfied);
    assert!(mx_cancel_recv(&mut w, eb, MX_ANY_TAG));
    // A second wildcard receive must not be taken by the remainder.
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 2).unwrap();
    run_to_quiescence(&mut w);
    assert!(!has_recv(&w, eb), "no completion for either receive");
    assert_eq!(w.mx.ep(eb).unwrap().posted_recvs(), 1, "second still armed");
    assert_eq!(w.mx.ep(eb).unwrap().unexpected_queued(), 0);
    assert_eq!(w.mx.in_flight(), 0, "the remainder drained the record");
}

/// A rendezvous send toward a node that is already dead must not keep its
/// record (and its pinned pages) forever: when the link is declared dead
/// the send fails, once, with its pages released.
#[test]
fn rendezvous_send_toward_a_dead_peer_fails_once_and_unpins() {
    let (mut w, n0, n1) = world();
    w.nics
        .set_fault_plan(FaultPlan::new(1).with_kill(n1, SimTime::ZERO));
    let size = 128 * 1024u64;
    let ba = make_buf(&mut w, n0, size, Class::User);
    let ea = mx_open_endpoint(&mut w, n0, MxEndpointConfig::user(ba.asid)).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, MxEndpointConfig::kernel()).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 77).unwrap();
    assert_eq!(pin_count(&w, n0, &ba), 1, "rendezvous pins the source");
    run_to_quiescence(&mut w);
    let (a_nic, b_nic) = (w.mx.ep(ea).unwrap().nic, w.mx.ep(eb).unwrap().nic);
    assert!(w.nics.rel.link_dead(Proto::Mx, a_nic, b_nic));
    assert_eq!(pin_count(&w, n0, &ba), 0, "pin leaked");
    assert_eq!(w.mx.in_flight(), 0);
    let events: Vec<TransportEvent> = std::iter::from_fn(|| next_event(&mut w, ea)).collect();
    assert!(
        matches!(
            events[..],
            [TransportEvent::SendFailed {
                ctx: 77,
                error: NetError::PeerUnreachable
            }]
        ),
        "{events:?}"
    );
}
