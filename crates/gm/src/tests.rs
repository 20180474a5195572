//! End-to-end GM driver tests on a two-node world, including the latency
//! calibration checks the figures depend on.

use bytes::Bytes;
use knet_core::{
    CompletionHook, Endpoint, IoVec, MemRef, NetError, Sent, TenantId, TransportEvent,
    TransportKind,
};
use knet_simcore::{run_to_quiescence, run_until, RunOutcome, Scheduler, SimTime, SimWorld};
use knet_simnic::{FaultPlan, NicId, NicLayer, NicModel, NicWorld, Packet, Proto, QosPolicy};
use knet_simos::{
    munmap, Asid, CpuModel, NodeId, OsLayer, OsWorld, Prot, VirtAddr, VmaEvent, PAGE_SIZE,
};

use crate::cache::gm_on_vma_event;
use crate::layer::{
    gm_cancel_receive_buffer, gm_close_port, gm_on_packet, gm_open_port, gm_peer_down,
    gm_provide_receive_buffer, gm_register, gm_send_t, GmLayer, GmPortConfig, GmPortId, GmWorld,
    GM_ANY_TAG,
};
use crate::params::GmParams;

struct World {
    sched: Scheduler<World>,
    os: OsLayer,
    nics: NicLayer,
    gm: GmLayer,
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
    fn vma_event(&mut self, node: NodeId, ev: VmaEvent) {
        gm_on_vma_event(self, node, &ev);
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
        if pkt.proto == Proto::Gm {
            gm_on_packet(self, nic, pkt);
        }
    }
}
impl CompletionHook for World {
    fn complete(&mut self, ep: Endpoint, ev: TransportEvent) {
        self.completed.push((ep, ev));
    }
}
impl GmWorld for World {
    fn gm(&self) -> &GmLayer {
        &self.gm
    }
    fn gm_mut(&mut self) -> &mut GmLayer {
        &mut self.gm
    }
}

fn world_with(params: GmParams) -> (World, NodeId, NodeId) {
    let mut w = World {
        sched: Scheduler::new(),
        os: OsLayer::new(),
        nics: NicLayer::new(),
        gm: GmLayer::new(params),
        completed: Vec::new(),
    };
    let n0 = w.os.add_node(CpuModel::xeon_2600(), 4096);
    let n1 = w.os.add_node(CpuModel::xeon_2600(), 4096);
    w.nics.add_nic(n0, NicModel::pci_xd());
    w.nics.add_nic(n1, NicModel::pci_xd());
    (w, n0, n1)
}

fn world() -> (World, NodeId, NodeId) {
    world_with(GmParams::default())
}

/// `port` as the transport endpoint completions name.
fn ep_of(w: &World, port: GmPortId) -> Endpoint {
    Endpoint {
        kind: TransportKind::Gm,
        node: w.gm.port(port).unwrap().node,
        idx: port.0,
    }
}

/// Take the oldest completion handed to `port`.
fn next_event(w: &mut World, port: GmPortId) -> Option<TransportEvent> {
    let i = w.completed.iter().position(|(ep, _)| ep.idx == port.0)?;
    Some(w.completed.remove(i).1)
}

fn has_event(w: &World, port: GmPortId) -> bool {
    w.completed.iter().any(|(ep, _)| ep.idx == port.0)
}

fn has_recv(w: &World, port: GmPortId) -> bool {
    w.completed
        .iter()
        .any(|(ep, e)| ep.idx == port.0 && matches!(e, TransportEvent::RecvDone { .. }))
}

fn pop_recv(w: &mut World, port: GmPortId) -> TransportEvent {
    loop {
        match next_event(w, port) {
            Some(ev @ TransportEvent::RecvDone { .. }) => return ev,
            Some(_) => continue,
            None => panic!("no receive event pending"),
        }
    }
}

/// A registered user buffer on a user-mode port.
struct UserBuf {
    asid: knet_simos::Asid,
    addr: VirtAddr,
}

fn make_user_port(w: &mut World, node: NodeId, len: u64) -> (GmPortId, UserBuf) {
    let asid = w.os.node_mut(node).create_process();
    let addr = w.os.node_mut(node).map_anon(asid, len, Prot::RW).unwrap();
    let port = gm_open_port(w, node, GmPortConfig::user(asid)).unwrap();
    gm_register(w, port, asid, addr, len).unwrap();
    (port, UserBuf { asid, addr })
}

/// One-way latency of a `size`-byte user-mode ping-pong, averaged over
/// `iters` round trips after one warm-up.
fn user_pingpong_latency(size: u64, iters: u32) -> f64 {
    let (mut w, n0, n1) = world();
    let (pa, ba) = make_user_port(&mut w, n0, size.max(1).next_multiple_of(PAGE_SIZE));
    let (pb, bb) = make_user_port(&mut w, n1, size.max(1).next_multiple_of(PAGE_SIZE));
    let measure = |w: &mut World| {
        gm_provide_receive_buffer(
            w,
            pb,
            &IoVec::single(MemRef::user(bb.asid, bb.addr, size)),
            GM_ANY_TAG,
            0,
        )
        .unwrap();
        gm_send_t(
            w,
            pa,
            MemRef::user(ba.asid, ba.addr, size),
            pb,
            1,
            0,
            TenantId::DEFAULT,
        )
        .unwrap();
        assert_eq!(run_until(w, |w| has_recv(w, pb)), RunOutcome::Satisfied);
        pop_recv(w, pb);
        gm_provide_receive_buffer(
            w,
            pa,
            &IoVec::single(MemRef::user(ba.asid, ba.addr, size)),
            GM_ANY_TAG,
            0,
        )
        .unwrap();
        gm_send_t(
            w,
            pb,
            MemRef::user(bb.asid, bb.addr, size),
            pa,
            1,
            0,
            TenantId::DEFAULT,
        )
        .unwrap();
        assert_eq!(run_until(w, |w| has_recv(w, pa)), RunOutcome::Satisfied);
        pop_recv(w, pa);
    };
    measure(&mut w); // warm-up
    let t0 = knet_simcore::now(&w);
    for _ in 0..iters {
        measure(&mut w);
    }
    let elapsed = knet_simcore::now(&w) - t0;
    elapsed.micros() / (2.0 * iters as f64)
}

#[test]
fn user_one_byte_latency_matches_paper() {
    // §5.1: GM user latency ≈ 6.7 µs for a 1-byte message.
    let lat = user_pingpong_latency(1, 10);
    assert!(
        (6.0..=7.5).contains(&lat),
        "GM user 1-byte one-way latency = {lat:.2} µs (paper: 6.7)"
    );
}

/// Kernel-mode ping-pong over registered kernel buffers (stock GM, no patch).
fn kernel_pingpong_latency(size: u64, physical_api: bool) -> f64 {
    let (mut w, n0, n1) = world();
    let cfg = if physical_api {
        GmPortConfig::kernel().with_physical_api()
    } else {
        GmPortConfig::kernel()
    };
    let pa = gm_open_port(&mut w, n0, cfg.clone()).unwrap();
    let pb = gm_open_port(&mut w, n1, cfg).unwrap();
    let buf_len = size.max(1).next_multiple_of(PAGE_SIZE);
    let ka = w.os.node_mut(n0).kalloc(buf_len).unwrap();
    let kb = w.os.node_mut(n1).kalloc(buf_len).unwrap();
    let (ra, rb);
    if physical_api {
        ra = MemRef::physical(ka.kernel_to_phys().unwrap(), size);
        rb = MemRef::physical(kb.kernel_to_phys().unwrap(), size);
    } else {
        gm_register(&mut w, pa, knet_simos::Asid::KERNEL, ka, buf_len).unwrap();
        gm_register(&mut w, pb, knet_simos::Asid::KERNEL, kb, buf_len).unwrap();
        ra = MemRef::kernel(ka, size);
        rb = MemRef::kernel(kb, size);
    }
    let measure = |w: &mut World| {
        gm_provide_receive_buffer(w, pb, &IoVec::single(rb), GM_ANY_TAG, 0).unwrap();
        gm_send_t(w, pa, ra, pb, 1, 0, TenantId::DEFAULT).unwrap();
        assert_eq!(run_until(w, |w| has_recv(w, pb)), RunOutcome::Satisfied);
        pop_recv(w, pb);
        gm_provide_receive_buffer(w, pa, &IoVec::single(ra), GM_ANY_TAG, 0).unwrap();
        gm_send_t(w, pb, rb, pa, 1, 0, TenantId::DEFAULT).unwrap();
        assert_eq!(run_until(w, |w| has_recv(w, pa)), RunOutcome::Satisfied);
        pop_recv(w, pa);
    };
    measure(&mut w);
    let t0 = knet_simcore::now(&w);
    for _ in 0..10 {
        measure(&mut w);
    }
    (knet_simcore::now(&w) - t0).micros() / 20.0
}

#[test]
fn kernel_latency_is_two_microseconds_worse() {
    // §5.1: "Its small message latency is 2 us higher in the kernel."
    let user = user_pingpong_latency(1, 10);
    let kernel = kernel_pingpong_latency(1, false);
    let delta = kernel - user;
    assert!(
        (1.5..=2.5).contains(&delta),
        "kernel − user = {delta:.2} µs (paper: ≈2)"
    );
}

#[test]
fn physical_api_saves_half_microsecond_per_side() {
    // §3.3: "We measured a 0.5 µs gain on both the sender and the
    // receiver's side", i.e. ≈1 µs off the one-way latency.
    let virt = kernel_pingpong_latency(1024, false);
    let phys = kernel_pingpong_latency(1024, true);
    let gain = virt - phys;
    assert!(
        (0.7..=1.4).contains(&gain),
        "physical-address gain = {gain:.2} µs one-way (paper: ≈1.0)"
    );
}

#[test]
fn large_message_bandwidth_approaches_link_rate() {
    let (mut w, n0, n1) = world();
    let msg = 64 * 1024u64;
    let count = 16u64;
    let (pa, ba) = make_user_port(&mut w, n0, msg);
    let (pb, bb) = make_user_port(&mut w, n1, msg * count);
    for i in 0..count {
        gm_provide_receive_buffer(
            &mut w,
            pb,
            &IoVec::single(MemRef::user(bb.asid, bb.addr.add(i * msg), msg)),
            GM_ANY_TAG,
            i,
        )
        .unwrap();
    }
    let t0 = knet_simcore::now(&w);
    for _ in 0..count {
        gm_send_t(
            &mut w,
            pa,
            MemRef::user(ba.asid, ba.addr, msg),
            pb,
            1,
            0,
            TenantId::DEFAULT,
        )
        .unwrap();
    }
    run_to_quiescence(&mut w);
    let elapsed = knet_simcore::now(&w) - t0;
    let mb_s = knet_simcore::Bandwidth::observed_mb_s(msg * count, elapsed);
    assert!(
        (200.0..251.0).contains(&mb_s),
        "GM streaming bandwidth = {mb_s:.1} MB/s (PCI-XD link: 250)"
    );
}

#[test]
fn payload_data_is_delivered_intact() {
    let (mut w, n0, n1) = world();
    let len = (3 * PAGE_SIZE + 123) as usize;
    let alloc = 4 * PAGE_SIZE;
    let (pa, ba) = make_user_port(&mut w, n0, alloc);
    let (pb, bb) = make_user_port(&mut w, n1, alloc);
    let data: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
    w.os.node_mut(n0)
        .write_virt(ba.asid, ba.addr, &data)
        .unwrap();
    gm_provide_receive_buffer(
        &mut w,
        pb,
        &IoVec::single(MemRef::user(bb.asid, bb.addr, alloc)),
        GM_ANY_TAG,
        7,
    )
    .unwrap();
    gm_send_t(
        &mut w,
        pa,
        MemRef::user(ba.asid, ba.addr, len as u64),
        pb,
        42,
        9,
        TenantId::DEFAULT,
    )
    .unwrap();
    run_to_quiescence(&mut w);
    let ev = pop_recv(&mut w, pb);
    match ev {
        TransportEvent::RecvDone {
            ctx,
            tag,
            len: l,
            from,
        } => {
            assert_eq!(ctx, 7);
            assert_eq!(tag, 42);
            assert_eq!(l, len as u64);
            assert_eq!(from, ep_of(&w, pa));
        }
        other => panic!("unexpected event {other:?}"),
    }
    let mut back = vec![0u8; len];
    w.os.node(n1)
        .read_virt(bb.asid, bb.addr, &mut back)
        .unwrap();
    assert_eq!(back, data, "received bytes differ");
    // Sender got its completion and token back.
    let sender_events: Vec<_> = std::iter::from_fn(|| next_event(&mut w, pa)).collect();
    assert!(sender_events
        .iter()
        .any(|e| matches!(e, TransportEvent::SendDone { ctx: 9 })));
    assert_eq!(
        w.gm.port(pa).unwrap().tokens(),
        GmParams::default().send_tokens
    );
}

#[test]
fn unregistered_send_fails() {
    let (mut w, n0, n1) = world();
    let asid = w.os.node_mut(n0).create_process();
    let addr =
        w.os.node_mut(n0)
            .map_anon(asid, PAGE_SIZE, Prot::RW)
            .unwrap();
    let pa = gm_open_port(&mut w, n0, GmPortConfig::user(asid)).unwrap();
    let (pb, _) = make_user_port(&mut w, n1, PAGE_SIZE);
    let err = gm_send_t(
        &mut w,
        pa,
        MemRef::user(asid, addr, 100),
        pb,
        0,
        0,
        TenantId::DEFAULT,
    );
    assert_eq!(err, Err(NetError::NotRegistered));
    // The failed send did not leak its token.
    assert_eq!(
        w.gm.port(pa).unwrap().tokens(),
        GmParams::default().send_tokens
    );
}

/// GMKRC on a stock kernel port (no physical-address patch) registers a
/// kernel receive buffer on the fly, as it does a kernel send buffer: the
/// buffer is posted, and the message lands in it.
#[test]
fn a_cached_stock_kernel_port_registers_a_kernel_receive_buffer() {
    let (mut w, n0, n1) = world();
    let cfg = || GmPortConfig::kernel().with_regcache(4096);
    let pa = gm_open_port(&mut w, n0, cfg()).unwrap();
    let pb = gm_open_port(&mut w, n1, cfg()).unwrap();
    let src = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
    let dst = w.os.node_mut(n1).kalloc(PAGE_SIZE).unwrap();
    w.os.node_mut(n0)
        .write_virt(Asid::KERNEL, src, b"kernel bytes")
        .unwrap();
    let into = IoVec::single(MemRef::kernel(dst, PAGE_SIZE));
    gm_provide_receive_buffer(&mut w, pb, &into, 5, 5).unwrap();
    let sent = gm_send_t(
        &mut w,
        pa,
        MemRef::kernel(src, 12),
        pb,
        5,
        0,
        TenantId::DEFAULT,
    );
    assert!(sent.is_ok(), "{sent:?}");
    run_to_quiescence(&mut w);
    let mut buf = [0u8; 12];
    w.os.node(n1)
        .read_virt(Asid::KERNEL, dst, &mut buf)
        .unwrap();
    assert_eq!(&buf, b"kernel bytes");
}

#[test]
fn physical_refs_require_the_patch() {
    let (mut w, n0, n1) = world();
    let pa = gm_open_port(&mut w, n0, GmPortConfig::kernel()).unwrap();
    let (pb, _) = make_user_port(&mut w, n1, PAGE_SIZE);
    let k = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
    let r = MemRef::physical(k.kernel_to_phys().unwrap(), 64);
    assert_eq!(
        gm_send_t(&mut w, pa, r, pb, 0, 0, TenantId::DEFAULT),
        Err(NetError::Unsupported)
    );
}

#[test]
fn send_tokens_bound_pending_requests() {
    let params = GmParams {
        send_tokens: 2,
        ..GmParams::default()
    };
    let (mut w, n0, n1) = world_with(params);
    let (pa, ba) = make_user_port(&mut w, n0, PAGE_SIZE);
    let (pb, _) = make_user_port(&mut w, n1, PAGE_SIZE);
    let r = MemRef::user(ba.asid, ba.addr, 64);
    gm_send_t(&mut w, pa, r, pb, 0, 0, TenantId::DEFAULT).unwrap();
    gm_send_t(&mut w, pa, r, pb, 0, 1, TenantId::DEFAULT).unwrap();
    assert_eq!(
        gm_send_t(&mut w, pa, r, pb, 0, 2, TenantId::DEFAULT),
        Err(NetError::NoSendTokens)
    );
    run_to_quiescence(&mut w);
    assert_eq!(w.gm.port(pa).unwrap().tokens(), 2, "tokens returned");
}

#[test]
fn unmatched_message_bounces_as_unexpected() {
    let (mut w, n0, n1) = world();
    let (pa, ba) = make_user_port(&mut w, n0, PAGE_SIZE);
    let (pb, _) = make_user_port(&mut w, n1, PAGE_SIZE);
    w.os.node_mut(n0)
        .write_virt(ba.asid, ba.addr, b"request!")
        .unwrap();
    gm_send_t(
        &mut w,
        pa,
        MemRef::user(ba.asid, ba.addr, 8),
        pb,
        77,
        0,
        TenantId::DEFAULT,
    )
    .unwrap();
    run_to_quiescence(&mut w);
    match next_event(&mut w, pb) {
        Some(TransportEvent::Unexpected { tag, data, from }) => {
            assert_eq!(tag, 77);
            assert_eq!(data, Bytes::from_static(b"request!"));
            assert_eq!(from, ep_of(&w, pa));
        }
        other => panic!("expected Unexpected, got {other:?}"),
    }
    assert_eq!(w.gm.port(pb).unwrap().stats.unexpected, 1);
}

#[test]
fn tagged_buffers_match_selectively() {
    let (mut w, n0, n1) = world();
    let (pa, ba) = make_user_port(&mut w, n0, 2 * PAGE_SIZE);
    let (pb, bb) = make_user_port(&mut w, n1, 2 * PAGE_SIZE);
    // Two tagged buffers in tag order 5 then 6.
    gm_provide_receive_buffer(
        &mut w,
        pb,
        &IoVec::single(MemRef::user(bb.asid, bb.addr, PAGE_SIZE)),
        5,
        50,
    )
    .unwrap();
    gm_provide_receive_buffer(
        &mut w,
        pb,
        &IoVec::single(MemRef::user(bb.asid, bb.addr.add(PAGE_SIZE), PAGE_SIZE)),
        6,
        60,
    )
    .unwrap();
    // Send tag 6 first: it must land in the *second* buffer.
    w.os.node_mut(n0)
        .write_virt(ba.asid, ba.addr, b"six")
        .unwrap();
    gm_send_t(
        &mut w,
        pa,
        MemRef::user(ba.asid, ba.addr, 3),
        pb,
        6,
        0,
        TenantId::DEFAULT,
    )
    .unwrap();
    run_to_quiescence(&mut w);
    match pop_recv(&mut w, pb) {
        TransportEvent::RecvDone { ctx, tag, .. } => {
            assert_eq!((ctx, tag), (60, 6));
        }
        _ => unreachable!(),
    }
    let mut buf = [0u8; 3];
    w.os.node(n1)
        .read_virt(bb.asid, bb.addr.add(PAGE_SIZE), &mut buf)
        .unwrap();
    assert_eq!(&buf, b"six");
}

#[test]
fn cached_sends_register_once_and_invalidate_on_munmap() {
    let (mut w, n0, n1) = world();
    let asid = w.os.node_mut(n0).create_process();
    let len = 4 * PAGE_SIZE;
    let addr = w.os.node_mut(n0).map_anon(asid, len, Prot::RW).unwrap();
    let pa = gm_open_port(&mut w, n0, GmPortConfig::user(asid).with_regcache(256)).unwrap();
    let (pb, bb) = make_user_port(&mut w, n1, len);
    let provide = |w: &mut World| {
        gm_provide_receive_buffer(
            w,
            pb,
            &IoVec::single(MemRef::user(bb.asid, bb.addr, len)),
            GM_ANY_TAG,
            0,
        )
        .unwrap();
    };
    provide(&mut w);
    gm_send_t(
        &mut w,
        pa,
        MemRef::user(asid, addr, len),
        pb,
        0,
        0,
        TenantId::DEFAULT,
    )
    .unwrap();
    run_to_quiescence(&mut w);
    assert_eq!(w.gm.port(pa).unwrap().stats.pages_registered, 4);
    // Second send: 100 % cache hits, no new registrations.
    provide(&mut w);
    gm_send_t(
        &mut w,
        pa,
        MemRef::user(asid, addr, len),
        pb,
        0,
        0,
        TenantId::DEFAULT,
    )
    .unwrap();
    run_to_quiescence(&mut w);
    assert_eq!(w.gm.port(pa).unwrap().stats.pages_registered, 4);
    let cache = w.gm.port(pa).unwrap().regcache.as_ref().unwrap();
    assert_eq!(cache.stats.page_hits, 4);

    // munmap → VMA SPY → invalidation, deregistration, unpin.
    munmap(&mut w, n0, asid, addr, len).unwrap();
    let cache = w.gm.port(pa).unwrap().regcache.as_ref().unwrap();
    assert_eq!(cache.stats.invalidations, 4);
    assert!(cache.is_empty());
    assert_eq!(w.gm.port(pa).unwrap().stats.pages_deregistered, 4);

    // Remap (fresh physical pages), write new data, send again: the cache
    // re-registers and the receiver sees the NEW bytes.
    let addr2 = w.os.node_mut(n0).map_anon(asid, len, Prot::RW).unwrap();
    w.os.node_mut(n0)
        .write_virt(asid, addr2, b"fresh data")
        .unwrap();
    provide(&mut w);
    gm_send_t(
        &mut w,
        pa,
        MemRef::user(asid, addr2, 10),
        pb,
        0,
        0,
        TenantId::DEFAULT,
    )
    .unwrap();
    run_to_quiescence(&mut w);
    let mut buf = [0u8; 10];
    w.os.node(n1).read_virt(bb.asid, bb.addr, &mut buf).unwrap();
    assert_eq!(&buf, b"fresh data");
}

#[test]
fn stale_registration_is_the_paper_hazard() {
    // Without a coherent cache, a registered-then-remapped buffer leaves a
    // stale translation in the NIC: the send silently reads the *old*
    // physical page. This is exactly why GMKRC + VMA SPY exist.
    let (mut w, n0, n1) = world();
    let asid = w.os.node_mut(n0).create_process();
    let addr =
        w.os.node_mut(n0)
            .map_anon(asid, PAGE_SIZE, Prot::RW)
            .unwrap();
    w.os.node_mut(n0)
        .write_virt(asid, addr, b"OLD bytes")
        .unwrap();
    let pa = gm_open_port(&mut w, n0, GmPortConfig::user(asid)).unwrap();
    gm_register(&mut w, pa, asid, addr, PAGE_SIZE).unwrap();
    let (pb, bb) = make_user_port(&mut w, n1, PAGE_SIZE);

    // munmap, then map again — the new mapping reuses the same virtual
    // address region but different physical frames.
    munmap(&mut w, n0, asid, addr, PAGE_SIZE).unwrap();
    let addr2 =
        w.os.node_mut(n0)
            .map_anon(asid, PAGE_SIZE, Prot::RW)
            .unwrap();
    assert_ne!(addr, addr2, "guard pages shift the new mapping");
    // Reuse of the OLD (stale) registration: GM happily sends from the
    // pinned-but-unmapped old frame.
    gm_provide_receive_buffer(
        &mut w,
        pb,
        &IoVec::single(MemRef::user(bb.asid, bb.addr, PAGE_SIZE)),
        GM_ANY_TAG,
        0,
    )
    .unwrap();
    gm_send_t(
        &mut w,
        pa,
        MemRef::user(asid, addr, 9),
        pb,
        0,
        0,
        TenantId::DEFAULT,
    )
    .unwrap();
    run_to_quiescence(&mut w);
    let mut buf = [0u8; 9];
    w.os.node(n1).read_virt(bb.asid, bb.addr, &mut buf).unwrap();
    assert_eq!(&buf, b"OLD bytes", "the stale translation reads stale data");
}

#[test]
fn shared_kernel_port_disambiguates_address_spaces() {
    // §3.2: "Our shared port model prevents the network interface card from
    // knowing which address space a given virtual address belongs to" —
    // solved by tagging translations with an address-space descriptor.
    let (mut w, n0, n1) = world();
    let a1 = w.os.node_mut(n0).create_process();
    let a2 = w.os.node_mut(n0).create_process();
    let v1 = w.os.node_mut(n0).map_anon(a1, PAGE_SIZE, Prot::RW).unwrap();
    let v2 = w.os.node_mut(n0).map_anon(a2, PAGE_SIZE, Prot::RW).unwrap();
    assert_eq!(v1, v2, "identical virtual addresses in both processes");
    w.os.node_mut(n0).write_virt(a1, v1, b"process-1").unwrap();
    w.os.node_mut(n0).write_virt(a2, v2, b"process-2").unwrap();
    let port = gm_open_port(&mut w, n0, GmPortConfig::kernel().with_regcache(64)).unwrap();
    let (pb, bb) = make_user_port(&mut w, n1, 2 * PAGE_SIZE);
    for (asid, tag) in [(a1, 1u64), (a2, 2u64)] {
        gm_provide_receive_buffer(
            &mut w,
            pb,
            &IoVec::single(MemRef::user(
                bb.asid,
                bb.addr.add((tag - 1) * PAGE_SIZE),
                PAGE_SIZE,
            )),
            tag,
            tag,
        )
        .unwrap();
        gm_send_t(
            &mut w,
            port,
            MemRef::user(asid, v1, 9),
            pb,
            tag,
            0,
            TenantId::DEFAULT,
        )
        .unwrap();
        run_to_quiescence(&mut w);
    }
    let mut buf = [0u8; 9];
    w.os.node(n1).read_virt(bb.asid, bb.addr, &mut buf).unwrap();
    assert_eq!(&buf, b"process-1");
    w.os.node(n1)
        .read_virt(bb.asid, bb.addr.add(PAGE_SIZE), &mut buf)
        .unwrap();
    assert_eq!(&buf, b"process-2");
}

#[test]
fn user_port_rejects_foreign_address_space() {
    let (mut w, n0, n1) = world();
    let (pa, _) = make_user_port(&mut w, n0, PAGE_SIZE);
    let (pb, _) = make_user_port(&mut w, n1, PAGE_SIZE);
    let intruder = w.os.node_mut(n0).create_process();
    let va =
        w.os.node_mut(n0)
            .map_anon(intruder, PAGE_SIZE, Prot::RW)
            .unwrap();
    assert_eq!(
        gm_send_t(
            &mut w,
            pa,
            MemRef::user(intruder, va, 8),
            pb,
            0,
            0,
            TenantId::DEFAULT
        ),
        Err(NetError::BadAddressClass)
    );
}

#[test]
fn registration_cost_is_observable_in_virtual_time() {
    // The first cached send of a 64 kB buffer pays 16 registrations
    // (≈48 µs); the second pays none. Compare host CPU time consumed.
    let (mut w, n0, n1) = world();
    let asid = w.os.node_mut(n0).create_process();
    let len = 16 * PAGE_SIZE;
    let addr = w.os.node_mut(n0).map_anon(asid, len, Prot::RW).unwrap();
    let pa = gm_open_port(&mut w, n0, GmPortConfig::user(asid).with_regcache(256)).unwrap();
    let (pb, bb) = make_user_port(&mut w, n1, len);
    let send_once = |w: &mut World| -> SimTime {
        gm_provide_receive_buffer(
            w,
            pb,
            &IoVec::single(MemRef::user(bb.asid, bb.addr, len)),
            GM_ANY_TAG,
            0,
        )
        .unwrap();
        let before = w.os.node(n0).cpu.busy.busy_total();
        gm_send_t(
            w,
            pa,
            MemRef::user(asid, addr, len),
            pb,
            0,
            0,
            TenantId::DEFAULT,
        )
        .unwrap();
        run_to_quiescence(w);
        pop_recv(w, pb);
        w.os.node(n0).cpu.busy.busy_total() - before
    };
    let first = send_once(&mut w);
    let second = send_once(&mut w);
    let saved = first - second;
    // 16 pages × 3 µs ≈ 48 µs of registration avoided by the cache.
    assert!(
        (40.0..=60.0).contains(&saved.micros()),
        "cache saved {saved} of host time (expected ≈48 µs)"
    );
}

/// A send parked behind a dry bucket, admitted by the bucket when the pace
/// timer fires and then refused for good by the send pipeline (the peer's
/// link died meanwhile), must leave the tenant's admission account as if
/// the drain had never admitted it: no bytes left the node.
#[test]
fn parked_send_failing_at_drain_is_refunded() {
    let (mut w, n0, n1) = world();
    let cfg = GmPortConfig::kernel().with_physical_api();
    let a = gm_open_port(&mut w, n0, cfg.clone()).unwrap();
    let b = gm_open_port(&mut w, n1, cfg).unwrap();
    let (nic, peer_nic) = (w.gm.port(a).unwrap().nic, w.gm.port(b).unwrap().nic);
    let addr = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
    let tenant = TenantId(1);
    w.nics.qos.set_policy(
        tenant.0,
        QosPolicy {
            rate_bytes_per_sec: 1000,
            burst_bytes: 1000,
            pace_queue_cap: 16,
        },
    );
    // The peer is powered off: the burst is never acked, and its link dies
    // (~14 ms) long before the next 100 bytes have refilled (100 ms).
    w.nics
        .set_fault_plan(FaultPlan::new(1).with_kill(n1, SimTime::ZERO));
    gm_send_t(&mut w, a, MemRef::kernel(addr, 1000), b, 1, 1, tenant).unwrap();
    gm_send_t(&mut w, a, MemRef::kernel(addr, 100), b, 2, 2, tenant).unwrap();
    let before = w.nics.qos.tenant_stats(tenant.0);
    assert_eq!((before.admitted, before.admitted_bytes), (1, 1000));
    let dead = |w: &World| w.nics.rel.link_dead(Proto::Gm, nic, peer_nic);
    assert_eq!(run_until(&mut w, dead), RunOutcome::Satisfied);
    assert_eq!(
        w.gm.paced.backlog(nic),
        1,
        "the second send is still parked"
    );

    run_to_quiescence(&mut w);

    let failed = std::iter::from_fn(|| next_event(&mut w, a)).find_map(|ev| match ev {
        TransportEvent::SendFailed { ctx, error } => Some((ctx, error)),
        _ => None,
    });
    assert_eq!(failed, Some((2, NetError::PeerUnreachable)));
    assert_eq!(w.gm.paced.backlog(nic), 0);
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
    assert_eq!(bucket, vec![1, 100 * 1_000_000_000, 100_000_000]);
}

/// `gm_send_t` reserves the send token before it consults the bucket, so
/// a send the pacing seam refuses at once — shed by its bucket, or
/// `Overload` at a full pacing lane — hands its token straight back, and a
/// parked send returns its own with its `SendDone`.
#[test]
fn a_refused_paced_send_returns_its_reserved_token() {
    let (mut w, n0, n1) = world();
    let cfg = GmPortConfig::kernel().with_physical_api();
    let a = gm_open_port(&mut w, n0, cfg.clone()).unwrap();
    let b = gm_open_port(&mut w, n1, cfg).unwrap();
    let nic = w.gm.port(a).unwrap().nic;
    let addr = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
    let tokens = GmParams::default().send_tokens;
    let (mute, paced) = (TenantId(1), TenantId(2));
    let policy = |rate| QosPolicy {
        rate_bytes_per_sec: rate,
        burst_bytes: 1000,
        pace_queue_cap: 1,
    };
    w.nics.qos.set_policy(mute.0, policy(0));
    w.nics.qos.set_policy(paced.0, policy(1000));
    let tokens_now = |w: &World| w.gm.port(a).unwrap().tokens();

    // Shed by the bucket: a zero-rate tenant may not transmit.
    let shed = gm_send_t(&mut w, a, MemRef::kernel(addr, 100), b, 1, 1, mute);
    assert_eq!(shed, Err(NetError::Overload));
    assert_eq!(tokens_now(&w), tokens, "the shed send's token is back");

    // The burst goes out, the next send parks holding its token, and a
    // third finds the one-slot pacing lane full.
    gm_send_t(&mut w, a, MemRef::kernel(addr, 1000), b, 2, 2, paced).unwrap();
    let parked = gm_send_t(&mut w, a, MemRef::kernel(addr, 100), b, 3, 3, paced);
    assert_eq!(parked, Ok(Sent::Parked));
    assert_eq!(w.gm.paced.backlog(nic), 1);
    assert_eq!(
        tokens_now(&w),
        tokens - 2,
        "sent and parked sends hold one each"
    );
    let full = gm_send_t(&mut w, a, MemRef::kernel(addr, 100), b, 4, 4, paced);
    assert_eq!(full, Err(NetError::Overload));
    assert_eq!(
        tokens_now(&w),
        tokens - 2,
        "the refused send's token is back"
    );
    assert_eq!(w.nics.qos.tenant_stats(paced.0).shed, 1);

    run_to_quiescence(&mut w);
    let done: Vec<u64> = std::iter::from_fn(|| next_event(&mut w, a))
        .map(|ev| match ev {
            TransportEvent::SendDone { ctx } => ctx,
            other => panic!("unexpected completion {other:?}"),
        })
        .collect();
    assert_eq!(done, vec![2, 3]);
    assert_eq!(tokens_now(&w), tokens, "every token is back");
}

/// On a port with no send token left, a send its tenant's policy sheds
/// whatever the bucket holds (zero rate, message over the burst) still
/// fails at once with `Overload`, counted as shed; any other send gets
/// `NoSendTokens`, for the channel to queue.
#[test]
fn a_shed_send_is_refused_as_overload_without_a_token() {
    let (mut w, n0, n1) = world();
    let cfg = GmPortConfig::kernel().with_physical_api();
    let a = gm_open_port(&mut w, n0, cfg.clone()).unwrap();
    let b = gm_open_port(&mut w, n1, cfg).unwrap();
    let addr = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
    let (mute, paced) = (TenantId(1), TenantId(2));
    let policy = |rate| QosPolicy {
        rate_bytes_per_sec: rate,
        burst_bytes: 1000,
        pace_queue_cap: 16,
    };
    w.nics.qos.set_policy(mute.0, policy(0));
    w.nics.qos.set_policy(paced.0, policy(1000));
    for ctx in 0..GmParams::default().send_tokens as u64 {
        gm_send_t(
            &mut w,
            a,
            MemRef::kernel(addr, 8),
            b,
            0,
            ctx,
            TenantId::DEFAULT,
        )
        .unwrap();
    }
    assert_eq!(w.gm.port(a).unwrap().tokens(), 0);

    let send =
        |w: &mut World, len, tenant| gm_send_t(w, a, MemRef::kernel(addr, len), b, 1, 100, tenant);
    assert_eq!(send(&mut w, 100, mute), Err(NetError::Overload));
    assert_eq!(send(&mut w, 1001, paced), Err(NetError::Overload));
    assert_eq!(send(&mut w, 100, paced), Err(NetError::NoSendTokens));
    assert_eq!(
        send(&mut w, 100, TenantId::DEFAULT),
        Err(NetError::NoSendTokens)
    );
    assert_eq!(w.nics.qos.tenant_stats(mute.0).shed, 1);
    assert_eq!(w.nics.qos.tenant_stats(paced.0).shed, 1);
    assert_eq!(w.gm.port(a).unwrap().tokens(), 0, "no refusal took a token");
}

/// A 32 kB message whose sender dies mid-stream leaves the receiver with a
/// provided buffer that is in neither place its owner could reach before:
/// out of the receive queue, captured by an assembly that will never
/// complete. It is still the owner's: cancel withdraws it exactly once,
/// close drops it, a declared peer death puts it back at the head of the
/// queue; and an unmatched message's bounce buffer returns to the pool.
#[test]
fn a_buffer_captured_by_a_half_arrived_message_is_still_the_owners() {
    #[derive(PartialEq)]
    enum Reclaim {
        Cancel,
        Close,
        PeerDown,
        /// No buffer provided: the message was bouncing.
        CloseBouncing,
    }
    let size = 32 * 1024u64;
    let mut stranded = 0;
    for seed in 1..=20u64 {
        for how in [
            Reclaim::Cancel,
            Reclaim::Close,
            Reclaim::PeerDown,
            Reclaim::CloseBouncing,
        ] {
            let (mut w, n0, n1) = world();
            w.nics.set_fault_plan(
                FaultPlan::new(seed)
                    .with_drop(0.3)
                    .with_kill(n0, SimTime::from_micros(100)),
            );
            let (pa, ba) = make_user_port(&mut w, n0, size);
            let (pb, bb) = make_user_port(&mut w, n1, size);
            let bouncing = how == Reclaim::CloseBouncing;
            if !bouncing {
                let iov = IoVec::single(MemRef::user(bb.asid, bb.addr, size));
                gm_provide_receive_buffer(&mut w, pb, &iov, 7, 42).unwrap();
            }
            gm_send_t(
                &mut w,
                pa,
                MemRef::user(ba.asid, ba.addr, size),
                pb,
                7,
                1,
                TenantId::DEFAULT,
            )
            .unwrap();
            run_to_quiescence(&mut w);
            if has_event(&w, pb) {
                continue; // the whole message beat the kill
            }
            stranded += 1;
            assert_eq!(w.gm.port(pb).unwrap().receive_buffers(), 0, "captured");
            assert_eq!(w.gm.reassembling(), 1);
            match how {
                Reclaim::Cancel => {
                    assert!(gm_cancel_receive_buffer(&mut w, pb, 7), "seed {seed}");
                    assert!(!gm_cancel_receive_buffer(&mut w, pb, 7), "exactly once");
                }
                Reclaim::Close | Reclaim::CloseBouncing => {
                    gm_close_port(&mut w, pb).unwrap();
                }
                Reclaim::PeerDown => {
                    let (local, remote) = (w.gm.port(pb).unwrap().nic, w.gm.port(pa).unwrap().nic);
                    gm_peer_down(&mut w, local, remote);
                    assert_eq!(w.gm.port(pb).unwrap().receive_buffers(), 1, "queued again");
                    assert!(gm_cancel_receive_buffer(&mut w, pb, 7));
                }
            }
            assert_eq!(w.gm.reassembling(), 0, "seed {seed}");
            let idle_bounce_buffers = w.gm.reassembly_footprint().1;
            assert_eq!(idle_bounce_buffers, bouncing as usize, "seed {seed}");
        }
    }
    assert!(stranded >= 60, "the kill lands mid-message on most seeds");
}
