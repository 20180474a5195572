//! Tests of the typed Channel + completion-queue API (`knet_core::api`):
//! connect/accept, tagged send/recv with contexts, vectored I/O with
//! API-layer coalescing on GM, and the `t_cancel_recv` contract.

use knet::harness::{kbuf, ubuf, KBuf};
use knet::prelude::*;
use knet_core::api::{self, channel_send};
use knet_core::{TransportEvent, TransportWorld};
use knet_simos::VirtAddr;

fn write_kernel(w: &mut ClusterWorld, node: NodeId, addr: VirtAddr, data: &[u8]) {
    w.os.node_mut(node)
        .write_virt(Asid::KERNEL, addr, data)
        .unwrap();
}

fn read_kernel(w: &ClusterWorld, node: NodeId, addr: VirtAddr, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    w.os.node(node)
        .read_virt(Asid::KERNEL, addr, &mut out)
        .unwrap();
    out
}

/// Run until the CQ has an entry for `ep`, then pop it.
fn await_cq(w: &mut ClusterWorld, cq: CqId, ep: Endpoint) -> TransportEvent {
    let outcome = run_until(w, |w| {
        w.registry.cq_len(cq) > 0 && {
            // Peek: take_event only pops entries for `ep`.
            w.registry.has_event(ep)
        }
    });
    assert_eq!(outcome, RunOutcome::Satisfied, "no CQ entry for {ep:?}");
    w.take_event(ep).expect("entry present")
}

/// A connected GM or MX endpoint pair with per-side CQs and channels.
fn channel_pair(
    w: &mut ClusterWorld,
    kind: TransportKind,
    n0: NodeId,
    n1: NodeId,
) -> (ChannelId, ChannelId, CqId, CqId, Endpoint, Endpoint) {
    let cq_a = w.new_cq();
    let cq_b = w.new_cq();
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
    let ch_a = channel_connect(w, ea, eb, cq_a);
    let ch_b = api::channel_accept(w, eb, cq_b);
    (ch_a, ch_b, cq_a, cq_b, ea, eb)
}

#[test]
fn connect_accept_learns_the_peer_and_talks_both_ways() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let (mut w, n0, n1) = two_nodes();
        let (ch_a, ch_b, cq_a, cq_b, ea, eb) = channel_pair(&mut w, kind, n0, n1);
        assert_eq!(channel_peer(&w, ch_a), Some(eb));
        assert_eq!(
            channel_peer(&w, ch_b),
            None,
            "accept side not yet connected"
        );
        // Sends on the half-open accept side fail cleanly.
        let ka = kbuf(&mut w, n0, 4096);
        let kb = kbuf(&mut w, n1, 4096);
        assert_eq!(
            channel_send(&mut w, ch_b, 1, kb.iov(4)).unwrap_err(),
            NetError::BadDestination,
            "{kind:?}"
        );
        // First message teaches the accept side its peer.
        write_kernel(&mut w, n0, ka.addr, b"hello");
        let ctx = channel_send(&mut w, ch_a, 7, ka.iov(5)).unwrap();
        match await_cq(&mut w, cq_b, eb) {
            TransportEvent::Unexpected { tag, data, from } => {
                assert_eq!((tag, &data[..], from), (7, &b"hello"[..], ea), "{kind:?}");
            }
            other => panic!("{kind:?}: {other:?}"),
        }
        assert_eq!(channel_peer(&w, ch_b), Some(ea), "{kind:?}: peer learned");
        // The sender's completion carries the context channel_send returned.
        match await_cq(&mut w, cq_a, ea) {
            TransportEvent::SendDone { ctx: c } => assert_eq!(c, ctx, "{kind:?}"),
            other => panic!("{kind:?}: {other:?}"),
        }
        // Now the accept side can answer.
        write_kernel(&mut w, n1, kb.addr, b"hi back!");
        channel_send(&mut w, ch_b, 8, kb.iov(8)).unwrap();
        match await_cq(&mut w, cq_a, ea) {
            TransportEvent::Unexpected { tag, data, .. } => {
                assert_eq!((tag, &data[..]), (8, &b"hi back!"[..]), "{kind:?}");
            }
            other => panic!("{kind:?}: {other:?}"),
        }
    }
}

#[test]
fn posted_receives_complete_with_channel_contexts() {
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let (mut w, n0, n1) = two_nodes();
        let (ch_a, ch_b, _cq_a, cq_b, _ea, eb) = channel_pair(&mut w, kind, n0, n1);
        let ka = kbuf(&mut w, n0, 4096);
        let kb = kbuf(&mut w, n1, 4096);
        let rctx = api::channel_post_recv(&mut w, ch_b, 3, kb.iov(4096)).unwrap();
        write_kernel(&mut w, n0, ka.addr, b"landed in the posted buffer");
        channel_send(&mut w, ch_a, 3, ka.iov(27)).unwrap();
        match await_cq(&mut w, cq_b, eb) {
            TransportEvent::RecvDone { ctx, tag, len, .. } => {
                assert_eq!((ctx, tag, len), (rctx, 3, 27), "{kind:?}");
            }
            other => panic!("{kind:?}: {other:?}"),
        }
        assert_eq!(
            read_kernel(&w, n1, kb.addr, 27),
            b"landed in the posted buffer",
            "{kind:?}"
        );
        // The accept side saw only a RecvDone (no Unexpected), which still
        // teaches it the peer: it can answer now.
        assert_eq!(channel_peer(&w, ch_b), Some(_ea), "{kind:?}");
        write_kernel(&mut w, n1, kb.addr, b"ack");
        channel_send(&mut w, ch_b, 4, kb.iov(3)).unwrap();
        loop {
            match await_cq(&mut w, _cq_a, _ea) {
                TransportEvent::Unexpected { tag, data, .. } => {
                    assert_eq!((tag, &data[..]), (4, &b"ack"[..]), "{kind:?}");
                    break;
                }
                TransportEvent::SendDone { .. } => continue,
                other => panic!("{kind:?}: {other:?}"),
            }
        }
    }
}

/// Build a three-segment kernel io-vector with a recognizable pattern.
fn scattered_iov(
    w: &mut ClusterWorld,
    node: NodeId,
    lens: [u64; 3],
) -> (IoVec, Vec<u8>, Vec<KBuf>) {
    let mut iov = IoVec::new();
    let mut expect = Vec::new();
    let mut bufs = Vec::new();
    for (i, &len) in lens.iter().enumerate() {
        let kb = kbuf(w, node, len.max(1));
        let chunk: Vec<u8> = (0..len)
            .map(|j| ((i as u64 * 101 + j * 13 + 7) % 251) as u8)
            .collect();
        write_kernel(w, node, kb.addr, &chunk);
        iov.push(kb.memref(len));
        expect.extend(chunk);
        bufs.push(kb);
    }
    (iov, expect, bufs)
}

#[test]
fn multi_segment_sends_are_coalesced_on_gm_and_delivered_byte_exact() {
    // The acceptance test for API-layer coalescing: a 3-segment io-vector
    // sent over GM — where the raw driver takes single segments only —
    // arrives byte-exact, with no caller-visible `Unsupported`.
    let (mut w, n0, n1) = two_nodes();
    let (ch_a, ch_b, cq_a, cq_b, ea, eb) = channel_pair(&mut w, TransportKind::Gm, n0, n1);
    let (iov, expect, _bufs) = scattered_iov(&mut w, n0, [1000, 3000, 500]);
    let total = expect.len() as u64;

    // The raw transport refuses the vector (GM's documented limitation)…
    assert_eq!(
        w.t_send(ea, eb, 9, iov.clone(), 0).unwrap_err(),
        NetError::Unsupported,
        "raw GM stays single-segment"
    );
    // …the channel layer coalesces it.
    let kb = kbuf(&mut w, n1, 8192);
    let rctx = api::channel_post_recv(&mut w, ch_b, 9, kb.iov(8192)).unwrap();
    let ctx = channel_send(&mut w, ch_a, 9, iov).unwrap();
    match await_cq(&mut w, cq_b, eb) {
        TransportEvent::RecvDone { ctx, tag, len, .. } => {
            assert_eq!((ctx, tag, len), (rctx, 9, total));
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(
        read_kernel(&w, n1, kb.addr, expect.len()),
        expect,
        "byte-exact"
    );
    match await_cq(&mut w, cq_a, ea) {
        TransportEvent::SendDone { ctx: c } => assert_eq!(c, ctx),
        other => panic!("{other:?}"),
    }
    // The gather copy went through the staging buffer and was accounted.
    let ch = w.registry.channel(ch_a).unwrap();
    assert_eq!(ch.coalesced_bytes, total);
}

#[test]
fn coalescing_works_on_stock_gm_through_the_registration_cache() {
    // Without the physical-address patch the kernel staging buffer must be
    // registered like any other memory; GMKRC absorbs it.
    let (mut w, n0, n1) = two_nodes();
    let cq_a = w.new_cq();
    let cq_b = w.new_cq();
    let cfg = GmPortConfig::kernel().with_regcache(4096); // stock + GMKRC
    let ea = w.open_gm(n0, cfg.clone()).unwrap();
    let eb = w.open_gm(n1, cfg).unwrap();
    let ch_a = channel_connect(&mut w, ea, eb, cq_a);
    let _ch_b = api::channel_accept(&mut w, eb, cq_b);
    let (iov, expect, _bufs) = scattered_iov(&mut w, n0, [2000, 100, 900]);
    channel_send(&mut w, ch_a, 4, iov).unwrap();
    let data = loop {
        match await_cq(&mut w, cq_b, eb) {
            TransportEvent::Unexpected { data, .. } => break data,
            _ => continue,
        }
    };
    assert_eq!(&data[..], &expect[..], "stock GM, cache-registered staging");

    // Regrow the staging buffer with a larger vector: the old buffer's
    // cached registrations are invalidated (VMA-SPY style) before the
    // kernel memory is freed, and the bigger payload still lands intact.
    let tt_after_first = {
        let nic = w.nics.nic_of_node(n0).unwrap();
        w.nics.get(nic).ttable.len()
    };
    let (iov2, expect2, _bufs2) = scattered_iov(&mut w, n0, [5000, 2500, 1000]);
    channel_send(&mut w, ch_a, 6, iov2).unwrap();
    let data2 = loop {
        match await_cq(&mut w, cq_b, eb) {
            TransportEvent::Unexpected { data, .. } => break data,
            _ => continue,
        }
    };
    assert_eq!(&data2[..], &expect2[..], "regrown staging delivers intact");
    let nic = w.nics.nic_of_node(n0).unwrap();
    let cache =
        w.gm.port(knet_gm::GmPortId(ea.idx))
            .unwrap()
            .regcache
            .as_ref()
            .unwrap();
    assert!(
        cache.stats.invalidations > 0,
        "freed staging pages were invalidated from GMKRC"
    );
    // The table holds entries for the new staging only, not the freed one.
    assert!(
        w.nics.get(nic).ttable.len() <= tt_after_first + 3,
        "no stale translations accumulate across regrows"
    );
}

/// A vectored GM send the tenant's token bucket parks still carries its
/// own bytes when it finally leaves: the channel's staging buffer goes with
/// the parked send, and the next vectored send gathers into a fresh one.
/// Three back-to-back sends against a one-message burst: the first is
/// admitted, the second deferred, the third parks behind it. With equal
/// sizes the third send used to overwrite the second's parked bytes; with
/// growing sizes the regrow used to free them. Once the channel closes,
/// every staging buffer is back with the kernel.
#[test]
fn parked_vectored_gm_sends_keep_their_own_bytes() {
    for lens in [[4_500u64; 3], [3_000, 4_000, 4_500]] {
        let (mut w, n0, n1) = two_nodes();
        let tenant = w.register_tenant(
            "paced",
            1,
            Some(QosPolicy {
                rate_bytes_per_sec: 1_000_000,
                burst_bytes: 4_500,
                pace_queue_cap: 16,
            }),
        );
        let (ch_a, _ch_b, _cq_a, _cq_b, ea, eb) = channel_pair(&mut w, TransportKind::Gm, n0, n1);
        w.assign_tenant(ea, tenant);
        let mut sent = Vec::new();
        let mut iovs = Vec::new();
        for (i, len) in lens.into_iter().enumerate() {
            let tag = i as u64 + 1;
            let mut iov = IoVec::new();
            let mut bytes = Vec::new();
            for seg in [len / 3, len / 3, len - 2 * (len / 3)] {
                let kb = kbuf(&mut w, n0, seg);
                let chunk: Vec<u8> = (0..seg).map(|j| (j * 7 + tag * 31) as u8).collect();
                write_kernel(&mut w, n0, kb.addr, &chunk);
                iov.push(kb.memref(seg));
                bytes.extend(chunk);
            }
            sent.push((tag, bytes));
            iovs.push(iov);
        }
        let frames_before = w.os.node(n0).mem.allocated_frames();
        for ((tag, _), iov) in sent.iter().zip(iovs) {
            channel_send(&mut w, ch_a, *tag, iov).unwrap();
        }
        run_to_quiescence(&mut w);
        assert!(w.stats().qos.deferred > 0, "{lens:?}: a send was parked");

        let mut got = Vec::new();
        while let Some(ev) = w.take_event(eb) {
            if let TransportEvent::Unexpected { tag, data, .. } = ev {
                got.push((tag, data.to_vec()));
            }
        }
        let tags: Vec<u64> = got.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, [1, 2, 3], "{lens:?}");
        for ((tag, data), (_, want)) in got.iter().zip(&sent) {
            assert!(
                data == want,
                "{lens:?}: tag {tag} arrived with another send's bytes"
            );
        }
        let mut done = 0;
        while let Some(ev) = w.take_event(ea) {
            assert!(matches!(ev, TransportEvent::SendDone { .. }), "{ev:?}");
            done += 1;
        }
        assert_eq!(done, 3, "{lens:?}");

        channel_close(&mut w, ch_a);
        assert_eq!(
            w.os.node(n0).mem.allocated_frames(),
            frames_before,
            "{lens:?}: closing the channel frees every staging buffer"
        );
    }
}

#[test]
fn multi_segment_sends_pass_through_untouched_on_mx() {
    // MX is vectorial: the channel layer must not copy.
    let (mut w, n0, n1) = two_nodes();
    let (ch_a, _ch_b, _cq_a, cq_b, _ea, eb) = channel_pair(&mut w, TransportKind::Mx, n0, n1);
    let (iov, expect, _bufs) = scattered_iov(&mut w, n0, [1000, 3000, 500]);
    channel_send(&mut w, ch_a, 5, iov).unwrap();
    let data = loop {
        match await_cq(&mut w, cq_b, eb) {
            TransportEvent::Unexpected { data, .. } => break data,
            _ => continue,
        }
    };
    assert_eq!(&data[..], &expect[..]);
    assert_eq!(
        w.registry.channel(ch_a).unwrap().coalesced_bytes,
        0,
        "no staging copy on a vectorial transport"
    );
}

// ------------------------------------------------ send-copy removal (§5.1)

/// One channel send of the bytes `setup` places on node 0, from an MX
/// endpoint opened with the config `setup` returns, into a buffer posted on
/// a kernel endpoint on node 1. Checks that the bytes arrive intact and
/// returns the sender's `send_copies_avoided`, the instant its `SendDone`
/// surfaced and the instant its node's CPU was free after the send.
fn mx_send_once(
    setup: impl FnOnce(&mut ClusterWorld, NodeId) -> (MxEndpointConfig, IoVec),
) -> (u64, SimTime, SimTime) {
    let (mut w, n0, n1) = two_nodes();
    let (cfg, iov) = setup(&mut w, n0);
    let len = iov.total_len();
    let data: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
    knet_core::write_iovec(w.os.node_mut(n0), &iov, &data).unwrap();
    let (cq_a, cq_b) = (w.new_cq(), w.new_cq());
    let ea = w.open_mx(n0, cfg).unwrap();
    let eb = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    let ch_a = channel_connect(&mut w, ea, eb, cq_a);
    let ch_b = api::channel_accept(&mut w, eb, cq_b);
    let kb = kbuf(&mut w, n1, 64 * 1024);
    api::channel_post_recv(&mut w, ch_b, 5, kb.iov(64 * 1024)).unwrap();
    let ctx = channel_send(&mut w, ch_a, 5, iov).unwrap();
    let cpu_free = w.os.node(n0).cpu.busy.free_at();
    match await_cq(&mut w, cq_a, ea) {
        TransportEvent::SendDone { ctx: c } => assert_eq!(c, ctx, "{len} B"),
        other => panic!("{len} B: {other:?}"),
    }
    let send_done = now(&w);
    match await_cq(&mut w, cq_b, eb) {
        TransportEvent::RecvDone { len: got, .. } => assert_eq!(got, len),
        other => panic!("{len} B: {other:?}"),
    }
    assert_eq!(read_kernel(&w, n1, kb.addr, len as usize), data, "{len} B");
    let avoided =
        w.mx.ep(knet_mx::MxEndpointId(ea.idx))
            .unwrap()
            .stats
            .send_copies_avoided;
    (avoided, send_done, cpu_free)
}

/// A send of `len` bytes of kernel-virtual memory from a kernel endpoint
/// opened with `opts`, for [`mx_send_once`].
fn kernel_send(
    len: u64,
    opts: MxOpts,
) -> impl FnOnce(&mut ClusterWorld, NodeId) -> (MxEndpointConfig, IoVec) {
    move |w, n0| {
        let cfg = MxEndpointConfig::kernel().with_opts(opts);
        (cfg, kbuf(w, n0, len).iov(len))
    }
}

/// A kernel endpoint's default skips the host copy of a medium send
/// (128 B – 32 kB) whose buffer is kernel-virtual or physical and
/// physically contiguous: the source is DMAed directly, so the buffer is
/// the sender's again only after the last DMA fetch, which comes after the
/// host's work on the send has ended.
#[test]
fn default_mx_medium_sends_from_contiguous_kernel_memory_skip_the_copy() {
    let kernel = |len| kernel_send(len, MxOpts::default());
    let physical = |len: u64| {
        move |w: &mut ClusterWorld, n0| {
            let pa = kbuf(w, n0, len).addr.kernel_to_phys().unwrap();
            let iov = IoVec::single(MemRef::physical(pa, len));
            (MxEndpointConfig::kernel(), iov)
        }
    };
    for (what, (avoided, send_done, cpu_free)) in [
        ("kernel-virtual 128 B", mx_send_once(kernel(128))),
        ("kernel-virtual 4 kB", mx_send_once(kernel(4096))),
        ("physical 32 kB", mx_send_once(physical(32 * 1024))),
    ] {
        assert_eq!(avoided, 1, "{what}: the copy was skipped");
        assert!(
            send_done > cpu_free,
            "{what}: SendDone at {send_done:?} waits for the DMA, past the host's {cpu_free:?}"
        );
    }
}

/// Everything else keeps the copy or never had one: user memory, a
/// vector of non-contiguous kernel pieces, a PIO-sized (small) send, a
/// rendezvous-sized (large) send, and any send from an endpoint opened
/// with the pre-§5.1 options [`MxOpts::SEND_COPY`].
#[test]
fn mx_sends_outside_the_copy_removal_keep_the_host_copy() {
    let user = |w: &mut ClusterWorld, n0| {
        let buf = ubuf(w, n0, 4096);
        (MxEndpointConfig::user(buf.asid), buf.iov(4096))
    };
    let split_vector = |w: &mut ClusterWorld, n0| {
        let os = w.os.node_mut(n0);
        let k1 = os.kalloc(PAGE_SIZE).unwrap();
        let _gap = os.kalloc(PAGE_SIZE).unwrap();
        let k2 = os.kalloc(PAGE_SIZE).unwrap();
        let mut iov = IoVec::new();
        iov.push(MemRef::kernel(k1, 1024));
        iov.push(MemRef::kernel(k2, 1024));
        (MxEndpointConfig::kernel(), iov)
    };
    let copied = [
        ("user-virtual 4 kB", mx_send_once(user)),
        ("split kernel vector", mx_send_once(split_vector)),
        (
            "SEND_COPY 4 kB",
            mx_send_once(kernel_send(4096, MxOpts::SEND_COPY)),
        ),
        (
            "SEND_COPY 32 kB",
            mx_send_once(kernel_send(32 * 1024, MxOpts::SEND_COPY)),
        ),
        (
            "PIO 127 B",
            mx_send_once(kernel_send(127, MxOpts::default())),
        ),
    ];
    for (what, (avoided, send_done, cpu_free)) in copied {
        assert_eq!(avoided, 0, "{what}: nothing skipped");
        assert_eq!(
            send_done, cpu_free,
            "{what}: SendDone when the host's copy ends"
        );
    }
    let (avoided, send_done, cpu_free) =
        mx_send_once(kernel_send(32 * 1024 + 1, MxOpts::default()));
    assert_eq!(avoided, 0, "rendezvous: no medium copy to skip");
    assert!(
        send_done > cpu_free,
        "rendezvous: SendDone after the data moved"
    );
}

#[test]
fn closed_channels_stop_routing_and_release_state() {
    let (mut w, n0, n1) = two_nodes();
    let (ch_a, ch_b, _cq_a, _cq_b, ea, eb) = channel_pair(&mut w, TransportKind::Mx, n0, n1);
    let ka = kbuf(&mut w, n0, 4096);
    api::channel_close(&mut w, ch_b);
    assert!(w.registry.channel(ch_b).is_none());
    // Traffic for the closed side parks (no consumer) instead of crashing.
    channel_send(&mut w, ch_a, 1, ka.iov(8)).unwrap();
    knet_simcore::run_to_quiescence(&mut w);
    assert!(w.registry.parked_len(eb) > 0);
    // Closing the connect side too: sends now fail on a dead handle.
    api::channel_close(&mut w, ch_a);
    assert_eq!(
        channel_send(&mut w, ch_a, 2, ka.iov(8)).unwrap_err(),
        NetError::BadEndpoint
    );
    let _ = ea;
}

#[test]
fn a_closed_channel_id_is_never_handed_out_again() {
    // Channel ids index a slab; a caller may still hold a closed channel's
    // id (and the id is in the consumer's name), so reopening the endpoint
    // must mint a fresh one instead of recycling the slot.
    let (mut w, n0, n1) = two_nodes();
    let (ch_a, ch_b, cq_a, _cq_b, ea, eb) = channel_pair(&mut w, TransportKind::Mx, n0, n1);
    let ka = kbuf(&mut w, n0, 4096);
    api::channel_close(&mut w, ch_a);
    let again = api::channel_connect(&mut w, ea, eb, cq_a);
    assert!(again.0 > ch_a.0.max(ch_b.0), "ids only ever ascend");
    assert!(w.registry.channel(ch_a).is_none(), "the old id stays dead");
    assert_eq!(
        channel_send(&mut w, ch_a, 1, ka.iov(8)).unwrap_err(),
        NetError::BadEndpoint
    );
    assert_eq!(w.registry.channel_of(ea), Some(again));
    let consumer = w.registry.consumer_of(ea).expect("bound");
    assert_eq!(
        w.registry.consumer_name(consumer),
        Some(format!("channel-{}", again.0).as_str())
    );
    // Replacing a live channel (no explicit close) retires its id too.
    let replaced = api::channel_connect(&mut w, ea, eb, cq_a);
    assert!(replaced.0 > again.0);
    assert!(w.registry.channel(again).is_none());
    channel_send(&mut w, replaced, 2, ka.iov(8)).unwrap();
}

// ----------------------------------------------------- rebind coherence

#[test]
fn rebinding_a_channel_endpoint_invalidates_the_channel() {
    // `bind()` over an endpoint owned by a channel must take the channel's
    // whole identity with it: state, `channel_routes` entry and consumer.
    // Pre-fix, the consumer was garbage-collected but the channel kept
    // learning peers from a dead route and `channel_close` deregistered an
    // id that now belonged to nobody (or, worse, to the new consumer).
    let (mut w, n0, n1) = two_nodes();
    let (ch_a, ch_b, _cq_a, _cq_b, ea, eb) = channel_pair(&mut w, TransportKind::Mx, n0, n1);
    let ka = kbuf(&mut w, n0, 4096);
    let kb = kbuf(&mut w, n1, 4096);

    // Rebind the connect side to a fresh driver CQ.
    let cq2 = w.new_cq();
    w.attach_cq(ea, cq2);
    assert!(
        w.registry.channel(ch_a).is_none(),
        "rebinding closed the channel coherently"
    );
    assert!(
        w.registry.channel_of(ea).is_none(),
        "no dangling channel_routes entry"
    );
    assert_eq!(
        channel_send(&mut w, ch_a, 1, ka.iov(4)).unwrap_err(),
        NetError::BadEndpoint,
        "sends on the invalidated handle fail cleanly"
    );

    // Closing the dead id is a no-op that must not disturb the new binding.
    let new_consumer = w.registry.consumer_of(ea).expect("rebound");
    api::channel_close(&mut w, ch_a);
    assert_eq!(
        w.registry.consumer_of(ea),
        Some(new_consumer),
        "channel_close of a dead id leaves the new consumer alone"
    );

    // Traffic for the rebound endpoint flows into the new CQ (not into the
    // dead channel's peer learning). Raw driver send: this is a
    // driver-level test of the rebinding seam.
    write_kernel(&mut w, n1, kb.addr, b"post");
    w.t_send(eb, ea, 2, kb.iov(4), 0).unwrap();
    match await_cq(&mut w, cq2, ea) {
        TransportEvent::Unexpected { tag, data, .. } => {
            assert_eq!((tag, &data[..]), (2, &b"post"[..]));
        }
        other => panic!("{other:?}"),
    }
    let _ = ch_b;
}

#[test]
fn reconnecting_a_channel_endpoint_replaces_the_old_channel() {
    // `channel_connect` over an endpoint that already owns a channel (how
    // the benchmark harness reuses endpoint pairs) replaces it rather than
    // leaking state.
    let (mut w, n0, n1) = two_nodes();
    let (ch_a, _ch_b, cq_a, _cq_b, ea, eb) = channel_pair(&mut w, TransportKind::Mx, n0, n1);
    let ch_a2 = channel_connect(&mut w, ea, eb, cq_a);
    assert!(w.registry.channel(ch_a).is_none(), "old channel replaced");
    assert_eq!(w.registry.channel_of(ea), Some(ch_a2));
}

// --------------------------------------------------------- backpressure

#[test]
fn channel_sends_queue_on_token_exhaustion_and_retry_in_order() {
    // GM bounds pending requests with send tokens (16 by default); a burst
    // beyond that used to surface NoSendTokens to every caller. The
    // channel now queues the overflow and retries on SendDone, in
    // submission order.
    let (mut w, n0, n1) = two_nodes();
    let (ch_a, _ch_b, cq_a, cq_b, ea, eb) = channel_pair(&mut w, TransportKind::Gm, n0, n1);
    let ka = kbuf(&mut w, n0, 4096);
    let burst = 40u64;
    assert!(
        burst as usize > knet_gm::GmParams::default().send_tokens,
        "the burst must overrun the token pool"
    );
    // Raw transport refuses the burst...
    for i in 0..knet_gm::GmParams::default().send_tokens {
        w.t_send(ea, eb, 100 + i as u64, ka.iov(8), 0).unwrap();
    }
    assert_eq!(
        w.t_send(ea, eb, 999, ka.iov(8), 0).unwrap_err(),
        NetError::NoSendTokens,
        "raw GM contract unchanged"
    );
    knet_simcore::run_to_quiescence(&mut w);
    while w.registry.cq_pop(cq_a).is_some() {}
    while w.registry.cq_pop(cq_b).is_some() {}

    // ...the channel absorbs it.
    let mut ctxs = Vec::new();
    for i in 0..burst {
        ctxs.push(channel_send(&mut w, ch_a, i, ka.iov(16)).expect("queued, not refused"));
    }
    assert!(
        w.registry.stats.queued_sends > 0,
        "the burst exercised the backpressure queue"
    );
    knet_simcore::run_to_quiescence(&mut w);
    assert_eq!(
        w.registry.stats.retried_sends, w.registry.stats.queued_sends,
        "every queued send was retried successfully"
    );
    assert_eq!(w.registry.stats.failed_retries, 0);
    assert_eq!(
        w.registry.channel(ch_a).unwrap().queued_len(),
        0,
        "queue drained"
    );
    // Every send completed (each ctx got its SendDone)...
    let mut done = Vec::new();
    while let Some(e) = w.registry.cq_pop(cq_a) {
        if let TransportEvent::SendDone { ctx } = e.event {
            done.push(ctx);
        }
    }
    assert_eq!(done, ctxs, "completions in submission order");
    // ...and the receiver saw the messages in submission order.
    let mut tags = Vec::new();
    while let Some(e) = w.registry.cq_pop(cq_b) {
        if let TransportEvent::Unexpected { tag, .. } = e.event {
            tags.push(tag);
        }
    }
    assert_eq!(tags, (0..burst).collect::<Vec<_>>(), "wire order preserved");
}

#[test]
fn send_queue_overflow_surfaces_a_neterror() {
    let (mut w, n0, n1) = two_nodes();
    let (ch_a, _ch_b, _cq_a, _cq_b, _ea, _eb) = channel_pair(&mut w, TransportKind::Gm, n0, n1);
    let ka = kbuf(&mut w, n0, 4096);
    api::channel_set_send_queue_cap(&mut w, ch_a, 4);
    let tokens = knet_gm::GmParams::default().send_tokens;
    let mut overflowed = None;
    for i in 0..(tokens + 10) as u64 {
        if let Err(e) = channel_send(&mut w, ch_a, i, ka.iov(8)) {
            overflowed = Some((i, e));
            break;
        }
    }
    let (at, err) = overflowed.expect("bounded queue must overflow");
    assert_eq!(err, NetError::SendQueueFull);
    assert_eq!(
        at,
        (tokens + 4) as u64,
        "tokens, then the full queue, then overflow"
    );
    // The world still drains and the accepted sends complete.
    knet_simcore::run_to_quiescence(&mut w);
    assert_eq!(w.registry.channel(ch_a).unwrap().queued_len(), 0);
}

#[test]
fn failed_retries_deliver_send_failed_completions() {
    // A send queued under backpressure whose retry fails non-transiently
    // (the peer port closed meanwhile) must not vanish: the channel's
    // consumer gets a `SendFailed { ctx }` so resources tied to the
    // context are released.
    let (mut w, n0, n1) = two_nodes();
    let (ch_a, _ch_b, cq_a, _cq_b, ea, eb) = channel_pair(&mut w, TransportKind::Gm, n0, n1);
    let ka = kbuf(&mut w, n0, 4096);
    let tokens = knet_gm::GmParams::default().send_tokens;
    let mut ctxs = Vec::new();
    for i in 0..(tokens + 3) as u64 {
        ctxs.push(channel_send(&mut w, ch_a, i, ka.iov(8)).unwrap());
    }
    assert_eq!(w.registry.channel(ch_a).unwrap().queued_len(), 3);
    // The peer dies before the queued sends can retry.
    knet_gm::gm_close_port(&mut w, knet_gm::GmPortId(eb.idx)).unwrap();
    knet_simcore::run_to_quiescence(&mut w);
    assert_eq!(w.registry.stats.failed_retries, 3);
    let mut done = Vec::new();
    let mut failed = Vec::new();
    while let Some(e) = w.registry.cq_pop(cq_a) {
        match e.event {
            TransportEvent::SendDone { ctx } => done.push(ctx),
            TransportEvent::SendFailed { ctx, error } => {
                assert_eq!(error, NetError::BadEndpoint);
                failed.push(ctx);
            }
            _ => {}
        }
    }
    assert_eq!(done, ctxs[..tokens], "accepted sends completed");
    assert_eq!(failed, ctxs[tokens..], "queued sends failed loudly");
    let _ = ea;
}

#[test]
fn closing_a_channel_fails_its_queued_sends() {
    // channel_close with sends still parked in the backpressure queue:
    // every accepted context must still complete — as SendFailed — so the
    // caller can release what it tied to them.
    let (mut w, n0, n1) = two_nodes();
    let (ch_a, _ch_b, cq_a, _cq_b, ea, _eb) = channel_pair(&mut w, TransportKind::Gm, n0, n1);
    let ka = kbuf(&mut w, n0, 4096);
    let tokens = knet_gm::GmParams::default().send_tokens;
    let mut ctxs = Vec::new();
    for i in 0..(tokens + 2) as u64 {
        ctxs.push(channel_send(&mut w, ch_a, i, ka.iov(8)).unwrap());
    }
    api::channel_close(&mut w, ch_a);
    let mut failed = Vec::new();
    while let Some(e) = w.registry.cq_pop_for(cq_a, ea) {
        if let TransportEvent::SendFailed { ctx, .. } = e.event {
            failed.push(ctx);
        }
    }
    assert_eq!(
        failed,
        ctxs[tokens..],
        "queued contexts completed as failed"
    );
}

#[test]
fn a_send_failure_poisons_the_socket_instead_of_stalling() {
    // A stream socket cannot renumber a lost frame; once a send fails
    // after its sequence was committed, every subsequent op must fail
    // fast (locally loud) rather than letting readers block forever.
    let (mut w, n0, n1) = two_nodes();
    let ba = ubuf(&mut w, n0, 1 << 20);
    let cfg = GmPortConfig::kernel()
        .with_physical_api()
        .with_regcache(4096);
    let ea = w.open_gm(n0, cfg.clone()).unwrap();
    let eb = w.open_gm(n1, cfg).unwrap();
    let sa = knet_zsock::sock_create(&mut w, ea, eb).unwrap();
    let _sb = knet_zsock::sock_create(&mut w, eb, ea).unwrap();
    // Disable the socket channel's backpressure queue so token exhaustion
    // surfaces synchronously, as any hard send failure would.
    let ch = w.registry.channel_of(ea).unwrap();
    api::channel_set_send_queue_cap(&mut w, ch, 0);
    let tokens = knet_gm::GmParams::default().send_tokens as u64;
    // A reader parked before the failure must be failed too, not stalled.
    let parked = knet_zsock::sock_recv(&mut w, sa, ba.memref(64));
    let mut ops = Vec::new();
    for _ in 0..tokens + 2 {
        ops.push(knet_zsock::sock_send(&mut w, sa, ba.memref(64)));
    }
    let failed: Vec<_> = w
        .zsock
        .sock(sa)
        .completed
        .iter()
        .filter(|(_, r)| r.is_err())
        .map(|(o, _)| *o)
        .collect();
    assert!(!failed.is_empty(), "the overrun send failed synchronously");
    assert_eq!(
        w.zsock.sock(sa).error(),
        Some(NetError::NoSendTokens),
        "socket is poisoned"
    );
    assert!(
        w.zsock
            .sock(sa)
            .completed
            .iter()
            .any(|(o, r)| *o == parked && r.is_err()),
        "the parked reader was failed, not left to stall"
    );
    // Later ops fail fast instead of hanging a reader forever.
    let op = knet_zsock::sock_send(&mut w, sa, ba.memref(64));
    let err = w
        .zsock
        .sock(sa)
        .completed
        .iter()
        .find(|(o, _)| *o == op)
        .expect("completed immediately")
        .1;
    assert_eq!(err, Err(NetError::NoSendTokens));
}

#[test]
fn a_zero_queue_cap_restores_the_raw_token_contract() {
    let (mut w, n0, n1) = two_nodes();
    let (ch_a, _ch_b, _cq_a, _cq_b, _ea, _eb) = channel_pair(&mut w, TransportKind::Gm, n0, n1);
    let ka = kbuf(&mut w, n0, 4096);
    api::channel_set_send_queue_cap(&mut w, ch_a, 0);
    let tokens = knet_gm::GmParams::default().send_tokens;
    for i in 0..tokens as u64 {
        channel_send(&mut w, ch_a, i, ka.iov(8)).unwrap();
    }
    assert_eq!(
        channel_send(&mut w, ch_a, 99, ka.iov(8)).unwrap_err(),
        NetError::NoSendTokens,
        "queueing disabled: the transport error surfaces"
    );
}

/// A GM send waits for send tokens in its channel and for its tenant's
/// bucket in the driver's pacing lane, never both at once: a send the
/// bucket defers already holds the token it took at submit. Twelve sends
/// over two tokens, behind a bucket that admits one message at a time,
/// cross both queues; each completes exactly once, in submission order,
/// and every token comes back.
#[test]
fn paced_gm_sends_hold_their_token_and_complete_once_in_order() {
    let (mut w, n0, n1) = (
        ClusterBuilder::new()
            .gm_params(GmParams {
                send_tokens: 2,
                ..GmParams::default()
            })
            .build(),
        NodeId(0),
        NodeId(1),
    );
    let tenant = w.register_tenant(
        "paced",
        1,
        Some(QosPolicy {
            rate_bytes_per_sec: 1_000_000,
            burst_bytes: 1024,
            pace_queue_cap: 16,
        }),
    );
    let (ch_a, _ch_b, cq_a, cq_b, ea, _eb) = channel_pair(&mut w, TransportKind::Gm, n0, n1);
    w.assign_tenant(ea, tenant);
    let port = knet_gm::GmPortId(ea.idx);
    let ka = kbuf(&mut w, n0, 4096);
    let ctxs: Vec<u64> = (0..12u64)
        .map(|i| channel_send(&mut w, ch_a, i, ka.iov(1024)).unwrap())
        .collect();
    // The first send left, the second waits for the bucket holding the
    // other token, the rest wait for tokens in the channel.
    assert_eq!(w.gm.port(port).unwrap().tokens(), 0);
    assert_eq!(w.registry.channel(ch_a).unwrap().queued_len(), 10);
    let nic = w.gm.port(port).unwrap().nic;
    assert_eq!(w.gm.paced.backlog(nic), 1);

    knet_simcore::run_to_quiescence(&mut w);
    let mut done = Vec::new();
    while let Some(e) = w.registry.cq_pop_for(cq_a, ea) {
        match e.event {
            TransportEvent::SendDone { ctx } => done.push(ctx),
            other => panic!("unexpected completion {other:?}"),
        }
    }
    assert_eq!(done, ctxs, "each send completed once, in order");
    let mut tags = Vec::new();
    while let Some(e) = w.registry.cq_pop(cq_b) {
        if let TransportEvent::Unexpected { tag, .. } = e.event {
            tags.push(tag);
        }
    }
    assert_eq!(tags, (0..12).collect::<Vec<_>>(), "wire order preserved");
    assert_eq!(w.gm.port(port).unwrap().tokens(), 2, "every token is back");
    assert_eq!(w.gm.paced.backlog(nic), 0);
    assert_eq!(w.registry.channel(ch_a).unwrap().queued_len(), 0);
    let qos = w.nics.qos.tenant_stats(tenant.0);
    assert_eq!(qos.admitted, 12);
    assert!(qos.deferred >= 11, "the bucket paced every later send");
}

/// A token a parked send returns with its `SendFailed` wakes the channel's
/// queue just as a `SendDone` does. Both tokens sit with sends the pacing
/// lane holds, nothing is in flight and nine sends wait in the channel;
/// then the tenant's rate drops to zero, so the lane sheds both parked
/// sends at drain. Their failures must retry the queue: every send gets
/// its one completion and both tokens come home.
#[test]
fn a_parked_send_failing_at_drain_retries_the_channel_queue() {
    let (mut w, n0, n1) = (
        ClusterBuilder::new()
            .gm_params(GmParams {
                send_tokens: 2,
                ..GmParams::default()
            })
            .build(),
        NodeId(0),
        NodeId(1),
    );
    let policy = QosPolicy {
        rate_bytes_per_sec: 1_000_000,
        burst_bytes: 1024,
        pace_queue_cap: 16,
    };
    let tenant = w.register_tenant("paced", 1, Some(policy));
    let (ch_a, _ch_b, cq_a, _cq_b, ea, _eb) = channel_pair(&mut w, TransportKind::Gm, n0, n1);
    w.assign_tenant(ea, tenant);
    let port = knet_gm::GmPortId(ea.idx);
    let nic = w.gm.port(port).unwrap().nic;
    let ka = kbuf(&mut w, n0, 4096);
    let ctxs: Vec<u64> = (0..12u64)
        .map(|i| channel_send(&mut w, ch_a, i, ka.iov(1024)).unwrap())
        .collect();
    // The first send's `SendDone` hands its token to the third, which
    // parks behind the second.
    knet_simcore::run_until(&mut w, |w| w.gm.paced.backlog(nic) == 2);
    assert_eq!(w.gm.port(port).unwrap().tokens(), 0);
    assert_eq!(w.registry.channel(ch_a).unwrap().queued_len(), 9);
    w.nics.qos.set_policy(
        tenant.0,
        QosPolicy {
            rate_bytes_per_sec: 0,
            ..policy
        },
    );

    knet_simcore::run_to_quiescence(&mut w);
    let mut done = Vec::new();
    let mut failed = Vec::new();
    while let Some(e) = w.registry.cq_pop_for(cq_a, ea) {
        match e.event {
            TransportEvent::SendDone { ctx } => done.push(ctx),
            TransportEvent::SendFailed { ctx, error } => {
                assert_eq!(error, NetError::Overload);
                failed.push(ctx);
            }
            other => panic!("unexpected completion {other:?}"),
        }
    }
    assert_eq!(done, ctxs[..1], "only the first send reached the wire");
    // The queue fails on the first returned token, before the second
    // parked send's failure arrives, so only the set is pinned.
    failed.sort_unstable();
    assert_eq!(failed, ctxs[1..], "every other send failed exactly once");
    assert_eq!(w.gm.port(port).unwrap().tokens(), 2, "every token is back");
    assert_eq!(w.gm.paced.backlog(nic), 0);
    assert_eq!(w.registry.channel(ch_a).unwrap().queued_len(), 0);
}

/// A channel send the pacing lane parks is checked again when the lane
/// drains, on both drivers: its destination endpoint may have closed, or
/// the peer's node died, while it waited. Either way the send completes
/// once, as a typed `SendFailed`; the tenant's admission account does not
/// count it, and a GM send returns the send token it held.
#[test]
fn a_parked_send_is_checked_again_when_its_lane_drains() {
    #[derive(Clone, Copy, Debug)]
    enum Fault {
        DestinationClosed,
        PeerKilled,
    }
    for kind in [TransportKind::Gm, TransportKind::Mx] {
        for (fault, expect) in [
            (Fault::DestinationClosed, NetError::BadEndpoint),
            (Fault::PeerKilled, NetError::PeerUnreachable),
        ] {
            let case = format!("{kind:?} / {fault:?}");
            let (mut w, n0, n1) = two_nodes();
            // The first 1000 bytes drain the bucket; the next 100 refill in
            // 100 ms, long after a dead peer's link is declared dead.
            let policy = QosPolicy {
                rate_bytes_per_sec: 1000,
                burst_bytes: 1000,
                pace_queue_cap: 16,
            };
            let tenant = w.register_tenant("paced", 1, Some(policy));
            if let Fault::PeerKilled = fault {
                w.set_fault_plan(knet_simnic::FaultPlan::new(1).with_kill(n1, SimTime::ZERO));
            }
            let (ch_a, _ch_b, cq_a, _cq_b, ea, eb) = channel_pair(&mut w, kind, n0, n1);
            w.assign_tenant(ea, tenant);
            let ka = kbuf(&mut w, n0, 4096);
            let first = channel_send(&mut w, ch_a, 1, ka.iov(1000)).unwrap();
            let parked = channel_send(&mut w, ch_a, 2, ka.iov(100)).unwrap();
            let nic = w.nics.nic_of_node(n0).unwrap();
            let backlog = match kind {
                TransportKind::Gm => w.gm.paced.backlog(nic),
                TransportKind::Mx => w.mx.paced.backlog(nic),
            };
            assert_eq!(backlog, 1, "{case}: the second send parked");
            let before = w.nics.qos.tenant_stats(tenant.0);
            if let Fault::DestinationClosed = fault {
                match kind {
                    TransportKind::Gm => {
                        knet_gm::gm_close_port(&mut w, knet_gm::GmPortId(eb.idx)).map(drop)
                    }
                    TransportKind::Mx => {
                        knet_mx::mx_close_endpoint(&mut w, knet_mx::MxEndpointId(eb.idx))
                    }
                }
                .unwrap();
            }

            knet_simcore::run_to_quiescence(&mut w);
            let (mut done, mut failed) = (Vec::new(), Vec::new());
            while let Some(e) = w.registry.cq_pop_for(cq_a, ea) {
                match e.event {
                    TransportEvent::SendDone { ctx } => done.push(ctx),
                    TransportEvent::SendFailed { ctx, error } => failed.push((ctx, error)),
                    TransportEvent::PeerDown { .. } => {}
                    other => panic!("{case}: unexpected completion {other:?}"),
                }
            }
            assert_eq!(done, [first], "{case}: only the first send left");
            assert_eq!(failed, [(parked, expect)], "{case}: one typed failure");
            let after = w.nics.qos.tenant_stats(tenant.0);
            assert_eq!(
                (after.admitted, after.admitted_bytes),
                (before.admitted, before.admitted_bytes),
                "{case}: the failed send is not counted as admitted"
            );
            if kind == TransportKind::Gm {
                let port = w.gm.port(knet_gm::GmPortId(ea.idx)).unwrap();
                assert_eq!(
                    port.tokens(),
                    GmParams::default().send_tokens,
                    "{case}: every send token is back"
                );
            }
        }
    }
}

// ------------------------------------------------------------ CQ index

#[test]
fn per_endpoint_cq_pops_are_served_by_the_index() {
    // Two endpoints share one queue; per-endpoint pops preserve each
    // endpoint's FIFO order and are accounted as indexed (no linear scan).
    let (mut w, n0, n1) = two_nodes();
    let cq = w.new_cq();
    let ea = w.open_mx_cq(n0, MxEndpointConfig::kernel(), cq).unwrap();
    let eb = w.open_mx_cq(n1, MxEndpointConfig::kernel(), cq).unwrap();
    let ka = kbuf(&mut w, n0, 4096);
    let kb = kbuf(&mut w, n1, 4096);
    let before = w.registry.stats.indexed_pops;
    // Interleave traffic in both directions.
    for i in 0..4u64 {
        w.t_send(ea, eb, 10 + i, ka.iov(8), i).unwrap();
        w.t_send(eb, ea, 20 + i, kb.iov(8), i).unwrap();
    }
    knet_simcore::run_to_quiescence(&mut w);
    assert_eq!(
        w.registry.cq_len_for(cq, ea),
        8,
        "4 SendDone + 4 Unexpected"
    );
    assert_eq!(w.registry.cq_len_for(cq, eb), 8);
    // Per-endpoint pops see only their endpoint's entries, in FIFO order.
    let mut tags_b = Vec::new();
    while let Some(e) = w.registry.cq_pop_for(cq, eb) {
        assert_eq!(e.ep, eb);
        if let TransportEvent::Unexpected { tag, .. } = e.event {
            tags_b.push(tag);
        }
    }
    assert_eq!(tags_b, vec![10, 11, 12, 13]);
    assert!(
        w.registry.stats.indexed_pops >= before + 8,
        "pops went through the per-endpoint index"
    );
    // The other endpoint's entries are untouched and still ordered.
    let mut tags_a = Vec::new();
    while let Some(e) = w.registry.take_event(ea) {
        if let TransportEvent::Unexpected { tag, .. } = e {
            tags_a.push(tag);
        }
    }
    assert_eq!(tags_a, vec![20, 21, 22, 23]);
}

// --------------------------------------------------------------- cancel

#[test]
fn cancel_recv_contract_is_identical_on_gm_and_mx() {
    // The documented `t_cancel_recv` contract, exercised case by case on
    // both drivers with identical expectations.
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let (mut w, n0, n1) = two_nodes();
        let cq = w.new_cq();
        let (ea, eb) = match kind {
            TransportKind::Mx => (
                w.open_mx_cq(n0, MxEndpointConfig::kernel(), cq).unwrap(),
                w.open_mx_cq(n1, MxEndpointConfig::kernel(), cq).unwrap(),
            ),
            TransportKind::Gm => {
                let cfg = GmPortConfig::kernel()
                    .with_physical_api()
                    .with_regcache(4096);
                (
                    w.open_gm_cq(n0, cfg.clone(), cq).unwrap(),
                    w.open_gm_cq(n1, cfg, cq).unwrap(),
                )
            }
        };
        let ka = kbuf(&mut w, n0, 65536);
        let kb = kbuf(&mut w, n1, 65536);

        // 1. Nothing posted: cancel is false.
        assert!(!w.t_cancel_recv(eb, 77), "{kind:?}: nothing posted");

        // 2. Posted, unmatched: cancel withdraws (true), second cancel false.
        w.t_post_recv(eb, 77, kb.iov(4096), 1).unwrap();
        assert!(w.t_cancel_recv(eb, 77), "{kind:?}: posted → withdrawn");
        assert!(!w.t_cancel_recv(eb, 77), "{kind:?}: idempotent");

        // 3. A cancelled receive never completes: the message surfaces as
        //    Unexpected instead of landing in the withdrawn buffer.
        write_kernel(&mut w, n0, ka.addr, b"orphan");
        w.t_send(ea, eb, 77, ka.iov(6), 0).unwrap();
        knet_simcore::run_to_quiescence(&mut w);
        let mut saw_unexpected = false;
        while let Some(ev) = w.take_event(eb) {
            match ev {
                TransportEvent::Unexpected { tag, data, .. } => {
                    assert_eq!((tag, &data[..]), (77, &b"orphan"[..]), "{kind:?}");
                    saw_unexpected = true;
                }
                TransportEvent::RecvDone { .. } => {
                    panic!("{kind:?}: withdrawn receive must not complete")
                }
                _ => {}
            }
        }
        assert!(saw_unexpected, "{kind:?}");
        while w.take_event(ea).is_some() {}

        // 4. Completed receive: cancel returns false afterwards.
        w.t_post_recv(eb, 88, kb.iov(4096), 2).unwrap();
        w.t_send(ea, eb, 88, ka.iov(100), 0).unwrap();
        knet_simcore::run_to_quiescence(&mut w);
        let mut recv_done = false;
        while let Some(ev) = w.take_event(eb) {
            if matches!(ev, TransportEvent::RecvDone { tag: 88, .. }) {
                recv_done = true;
            }
        }
        assert!(recv_done, "{kind:?}");
        assert!(!w.t_cancel_recv(eb, 88), "{kind:?}: already completed");
        while w.take_event(ea).is_some() {}

        // 5. Payload overtakes descriptor (the zsock case): the message
        //    arrives first (Unexpected), the receive is posted afterwards
        //    and stays armed — cancel withdraws it (true), exactly once.
        write_kernel(&mut w, n0, ka.addr, b"early bird");
        w.t_send(ea, eb, 99, ka.iov(10), 0).unwrap();
        knet_simcore::run_to_quiescence(&mut w);
        let mut early = false;
        while let Some(ev) = w.take_event(eb) {
            if let TransportEvent::Unexpected { tag, data, .. } = ev {
                assert_eq!((tag, &data[..]), (99, &b"early bird"[..]), "{kind:?}");
                early = true;
            }
        }
        assert!(early, "{kind:?}: payload delivered unexpectedly");
        w.t_post_recv(eb, 99, kb.iov(4096), 3).unwrap();
        knet_simcore::run_to_quiescence(&mut w);
        assert!(!w.has_event(eb), "{kind:?}: no retroactive match");
        assert!(
            w.t_cancel_recv(eb, 99),
            "{kind:?}: overtaken descriptor is withdrawable"
        );
        assert!(!w.t_cancel_recv(eb, 99), "{kind:?}: …exactly once");

        // 6. Captured by an eager message that has not finished arriving
        //    (32 kB is eight chunks): still the owner's. Cancel withdraws
        //    it, the rest of the message is discarded — not matched against
        //    the next receive, not delivered unexpected — and no completion
        //    ever arrives for either.
        let posted = |w: &ClusterWorld| match kind {
            TransportKind::Mx => {
                w.mx.ep(knet_mx::MxEndpointId(eb.idx))
                    .unwrap()
                    .posted_recvs()
            }
            TransportKind::Gm => {
                let port = w.gm.port(knet_gm::GmPortId(eb.idx)).unwrap();
                port.receive_buffers()
            }
        };
        w.t_post_recv(eb, 111, kb.iov(32768), 4).unwrap();
        w.t_send(ea, eb, 111, ka.iov(32768), 0).unwrap();
        let outcome = run_until(&mut w, |w| posted(w) == 0);
        assert_eq!(outcome, RunOutcome::Satisfied, "{kind:?}: first chunk");
        assert!(!w.has_event(eb), "{kind:?}: mid-message");
        assert!(w.t_cancel_recv(eb, 111), "{kind:?}: captured → withdrawn");
        assert!(!w.t_cancel_recv(eb, 111), "{kind:?}: …exactly once");
        w.t_post_recv(eb, 111, kb.iov(32768), 5).unwrap();
        knet_simcore::run_to_quiescence(&mut w);
        assert!(!w.has_event(eb), "{kind:?}: the remainder is discarded");
        assert!(w.t_cancel_recv(eb, 111), "{kind:?}: second still armed");
    }
}

#[test]
fn channel_cancel_wins_exactly_the_unobserved_races() {
    // The API-seam rule `channel_cancel_recv` documents: cancel wins every
    // race the consumer has not yet *observed* — including a completion
    // already delivered to the channel's CQ but not yet popped — and loses
    // deterministically otherwise. RPC cancellation sits directly on this:
    // `true` frees the call slot immediately, `false` parks it to drain.
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let (mut w, n0, n1) = two_nodes();
        let (ch_a, ch_b, _cq_a, _cq_b, _ea, eb) = channel_pair(&mut w, kind, n0, n1);
        let ka = kbuf(&mut w, n0, 4096);
        let kb = kbuf(&mut w, n1, 4096);

        // 1. Nothing posted under the tag: cancel lost.
        assert!(
            !api::channel_cancel_recv(&mut w, ch_b, 5),
            "{kind:?}: no such receive"
        );

        // 2. Still pending in the driver: cancel wins; the message then
        //    surfaces `Unexpected` — the consumer never sees a RecvDone.
        api::channel_post_recv(&mut w, ch_b, 5, kb.iov(4096)).unwrap();
        assert!(
            api::channel_cancel_recv(&mut w, ch_b, 5),
            "{kind:?}: pending receive withdrawn"
        );
        write_kernel(&mut w, n0, ka.addr, b"orphan");
        channel_send(&mut w, ch_a, 5, ka.iov(6)).unwrap();
        knet_simcore::run_to_quiescence(&mut w);
        let mut unexpected = false;
        while let Some(ev) = w.take_event(eb) {
            match ev {
                TransportEvent::RecvDone { tag: 5, .. } => {
                    panic!("{kind:?}: cancelled receive completed")
                }
                TransportEvent::Unexpected { tag: 5, .. } => unexpected = true,
                _ => {}
            }
        }
        assert!(unexpected, "{kind:?}: message surfaces unexpectedly");

        // 3. THE RACE THE RULE EXISTS FOR: the completion is already
        //    *queued* on the channel's CQ when cancel lands, but nothing
        //    popped it yet. Cancel must win — the queued entry is dropped
        //    (counted), and no RecvDone is ever observed for the tag.
        api::channel_post_recv(&mut w, ch_b, 6, kb.iov(4096)).unwrap();
        write_kernel(&mut w, n0, ka.addr, b"already landed");
        channel_send(&mut w, ch_a, 6, ka.iov(14)).unwrap();
        knet_simcore::run_to_quiescence(&mut w);
        let before = w.registry.stats.cancelled_completions;
        assert!(
            api::channel_cancel_recv(&mut w, ch_b, 6),
            "{kind:?}: cancel wins the delivered-but-unobserved race"
        );
        assert_eq!(
            w.registry.stats.cancelled_completions,
            before + 1,
            "{kind:?}: dropped entry is accounted"
        );
        while let Some(ev) = w.take_event(eb) {
            assert!(
                !matches!(ev, TransportEvent::RecvDone { tag: 6, .. }),
                "{kind:?}: dropped completion resurfaced"
            );
        }
        // …and cancelling again finds nothing.
        assert!(!api::channel_cancel_recv(&mut w, ch_b, 6), "{kind:?}");

        // 4. Already observed: cancel lost, deterministically.
        api::channel_post_recv(&mut w, ch_b, 7, kb.iov(4096)).unwrap();
        write_kernel(&mut w, n0, ka.addr, b"popped");
        channel_send(&mut w, ch_a, 7, ka.iov(6)).unwrap();
        knet_simcore::run_to_quiescence(&mut w);
        let mut observed = false;
        while let Some(ev) = w.take_event(eb) {
            if matches!(ev, TransportEvent::RecvDone { tag: 7, .. }) {
                observed = true;
            }
        }
        assert!(observed, "{kind:?}");
        assert!(
            !api::channel_cancel_recv(&mut w, ch_b, 7),
            "{kind:?}: observed completion is not cancellable"
        );
    }
}

#[test]
fn channel_cancel_loses_to_a_matched_in_flight_rendezvous() {
    // Third arm of the rule: once the driver matched the receive (MX
    // rendezvous accepted, DMA in progress) its RecvDone is irrevocably on
    // its way — cancel must return `false` and the completion must still
    // arrive, exactly once.
    let (mut w, n0, n1) = two_nodes();
    let (ch_a, ch_b, _cq_a, _cq_b, _ea, eb) = channel_pair(&mut w, TransportKind::Mx, n0, n1);
    const LEN: u64 = 256 * 1024; // > 32 kB ⇒ rendezvous protocol
    let ka = kbuf(&mut w, n0, LEN);
    let kb = kbuf(&mut w, n1, LEN);
    api::channel_post_recv(&mut w, ch_b, 9, kb.iov(LEN)).unwrap();
    channel_send(&mut w, ch_a, 9, ka.iov(LEN)).unwrap();
    // Run exactly until the rendezvous matches (the posted descriptor
    // leaves the queue) — the transfer is now in flight, not complete.
    let mx_id = knet_mx::MxEndpointId(eb.idx);
    let outcome = run_until(&mut w, |w| {
        w.mx.ep(mx_id)
            .map(|e| e.posted_recvs() == 0)
            .unwrap_or(false)
    });
    assert_eq!(outcome, RunOutcome::Satisfied, "rendezvous must match");
    assert!(
        !w.registry.has_event(eb),
        "completion must not have been delivered yet — the race window"
    );
    assert!(
        !api::channel_cancel_recv(&mut w, ch_b, 9),
        "matched in-flight: cancel loses"
    );
    knet_simcore::run_to_quiescence(&mut w);
    let mut recv_dones = 0;
    while let Some(ev) = w.take_event(eb) {
        if let TransportEvent::RecvDone { tag: 9, len, .. } = ev {
            recv_dones += 1;
            assert_eq!(len, LEN);
        }
    }
    assert_eq!(
        recv_dones, 1,
        "the in-flight completion arrives exactly once"
    );
}

#[test]
fn cancelled_mx_receive_releases_its_pins() {
    // MX pins user pages when arming a receive; withdrawal must unpin.
    let (mut w, n0, _n1) = two_nodes();
    let cq = w.new_cq();
    let buf = ubuf(&mut w, n0, 256 * 1024);
    let ep = w
        .open_mx_cq(n0, MxEndpointConfig::user(buf.asid), cq)
        .unwrap();
    w.t_post_recv(ep, 5, buf.iov(256 * 1024), 1).unwrap();
    let frame =
        w.os.node(n0)
            .space(buf.asid)
            .unwrap()
            .frame_of(buf.addr)
            .unwrap();
    assert_eq!(w.os.node(n0).mem.pin_count(frame), 1, "armed receive pins");
    assert!(w.t_cancel_recv(ep, 5));
    assert_eq!(w.os.node(n0).mem.pin_count(frame), 0, "withdrawal unpins");
}

// ------------------------------------------------- lifecycle regressions
// (flushed out by the fault-injection work: stale per-endpoint CQ state
// after teardown, and parked sends stranded by a cap shrink)

#[test]
fn recycled_endpoint_never_pops_a_previous_channels_ghosts() {
    // Send contexts are pooled per channel (slot 0 restarts every
    // incarnation), so undrained completions of a closed channel must not
    // be popped by a later channel on the same endpoint + queue — their
    // ctx values genuinely alias. Before the fix, the new consumer
    // observed the dead incarnation's entries through
    // has_event/cq_pop_for.
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let (mut w, n0, n1) = two_nodes();
        let (ch_a, _ch_b, cq_a, _cq_b, ea, eb) = channel_pair(&mut w, kind, n0, n1);
        let ka = kbuf(&mut w, n0, 4096);
        let ctx = channel_send(&mut w, ch_a, 1, ka.iov(64)).unwrap();
        knet_simcore::run_to_quiescence(&mut w);
        assert!(w.has_event(ea), "{kind:?}: completion waiting");
        // Close without draining; the entries become ghosts the moment the
        // endpoint is reused with the same queue.
        api::channel_close(&mut w, ch_a);
        let ch_a2 = channel_connect(&mut w, ea, eb, cq_a);
        assert!(
            !w.has_event(ea),
            "{kind:?}: new channel must not observe the dead incarnation"
        );
        assert!(w.take_event(ea).is_none(), "{kind:?}: nothing to pop");
        // The new channel's first context re-issues the very same pooled
        // value — completions must now be its own.
        let ctx2 = channel_send(&mut w, ch_a2, 2, ka.iov(64)).unwrap();
        assert_eq!(
            ctx, ctx2,
            "{kind:?}: pooled slot 0 aliases across incarnations"
        );
        knet_simcore::run_to_quiescence(&mut w);
        match await_cq(&mut w, cq_a, ea) {
            TransportEvent::SendDone { ctx: c } => assert_eq!(c, ctx2, "{kind:?}"),
            other => panic!("{kind:?}: {other:?}"),
        }
    }
}

#[test]
fn destroy_cq_detaches_its_consumers() {
    // Before the fix, destroying a queue left routes pointing at the dead
    // CqId: cq_of/has_event observed a queue that no longer existed and
    // traffic was silently dropped forever. Now the consumers deregister
    // and events park for the next binding.
    let (mut w, n0, n1) = two_nodes();
    let cq = w.new_cq();
    let ea = w.open_mx_cq(n0, MxEndpointConfig::kernel(), cq).unwrap();
    let eb = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    assert_eq!(w.registry.cq_of(ea), Some(cq));
    w.registry.destroy_cq(cq);
    assert_eq!(
        w.registry.cq_of(ea),
        None,
        "no route may observe the dead queue"
    );
    assert!(!w.has_event(ea));
    // Traffic for the endpoint now parks instead of vanishing.
    let cq_b = w.new_cq();
    let ch_b = channel_connect(&mut w, eb, ea, cq_b);
    let kb = kbuf(&mut w, n1, 4096);
    channel_send(&mut w, ch_b, 3, kb.iov(32)).unwrap();
    knet_simcore::run_to_quiescence(&mut w);
    assert!(
        w.registry.parked_len(ea) > 0,
        "events park for the next consumer instead of dropping"
    );
    // A fresh queue picks the parked traffic up.
    let cq2 = w.new_cq();
    w.attach_cq(ea, cq2);
    assert!(w.has_event(ea), "parked events replay into the new queue");
}

#[test]
fn shrinking_the_send_queue_cap_fails_excess_parked_sends() {
    // Shrinking the backpressure cap below queued_len used to strand the
    // excess silently: they stayed parked but uncounted against the new
    // cap. Now they complete deterministically as SendFailed
    // (SendQueueFull), newest first.
    let (mut w, n0, n1) = (
        ClusterBuilder::new()
            .gm_params(GmParams {
                send_tokens: 1,
                ..GmParams::default()
            })
            .build(),
        NodeId(0),
        NodeId(1),
    );
    let (ch_a, _ch_b, cq_a, _cq_b, ea, _eb) = channel_pair(&mut w, TransportKind::Gm, n0, n1);
    let ka = kbuf(&mut w, n0, 4096);
    let mut ctxs = Vec::new();
    for i in 0..5u64 {
        ctxs.push(channel_send(&mut w, ch_a, i, ka.iov(16)).unwrap());
    }
    assert_eq!(w.registry.channel(ch_a).unwrap().queued_len(), 4);
    channel_set_send_queue_cap(&mut w, ch_a, 2);
    assert_eq!(
        w.registry.channel(ch_a).unwrap().queued_len(),
        2,
        "the queue respects the new cap"
    );
    let mut failed = Vec::new();
    while let Some(e) = w.registry.cq_pop_for(cq_a, ea) {
        if let TransportEvent::SendFailed { ctx, error } = e.event {
            assert_eq!(error, NetError::SendQueueFull);
            failed.push(ctx);
        }
    }
    assert_eq!(
        failed,
        vec![ctxs[4], ctxs[3]],
        "excess sends fail newest-first with SendQueueFull"
    );
    // The survivors still go out in order.
    knet_simcore::run_to_quiescence(&mut w);
    let mut done = Vec::new();
    while let Some(e) = w.registry.cq_pop_for(cq_a, ea) {
        if let TransportEvent::SendDone { ctx } = e.event {
            done.push(ctx);
        }
    }
    assert_eq!(done, ctxs[..3], "in-cap sends complete normally");
}

#[test]
fn a_retag_mid_queue_keeps_submission_order_and_each_sends_tenant() {
    // The backpressure queue is one FIFO per channel. Re-tagging the
    // channel while sends are queued must not reorder them, and each send
    // stays attributed to the tenant it was submitted under — when it is
    // retried, when a cap shrink evicts it, and in the per-tenant rows.
    let (mut w, n0, n1) = (
        ClusterBuilder::new()
            .gm_params(GmParams {
                send_tokens: 1,
                ..GmParams::default()
            })
            .build(),
        NodeId(0),
        NodeId(1),
    );
    let (ch_a, _ch_b, cq_a, cq_b, ea, _eb) = channel_pair(&mut w, TransportKind::Gm, n0, n1);
    let ka = kbuf(&mut w, n0, 4096);

    // Four sends under the default tenant: one takes the only token, three
    // queue.
    let mut a_ctxs = Vec::new();
    for i in 0..4u64 {
        a_ctxs.push(channel_send(&mut w, ch_a, i, ka.iov(16)).unwrap());
    }
    // Re-tag the endpoint and queue four more under tenant b, behind them.
    let tb = w.registry.tenant_create("b");
    assert!(w.assign_tenant(ea, tb));
    // An id nobody minted has no stats row — sends tagged with it would
    // count in the registry totals and in no tenant — so it is refused.
    assert!(!w.assign_tenant(ea, TenantId(7)), "never minted");
    assert_eq!(w.registry.tenant_of(ea), tb, "endpoint stays where it was");
    let mut b_ctxs = Vec::new();
    for i in 10..14u64 {
        b_ctxs.push(channel_send(&mut w, ch_a, i, ka.iov(16)).unwrap());
    }
    assert_eq!(w.registry.channel(ch_a).unwrap().queued_len(), 7);

    // Shrinking the cap evicts the newest sends, whoever they belong to.
    api::channel_set_send_queue_cap(&mut w, ch_a, 5);
    assert_eq!(w.registry.channel(ch_a).unwrap().queued_len(), 5);
    let mut failed = Vec::new();
    while let Some(e) = w.registry.cq_pop_for(cq_a, ea) {
        if let TransportEvent::SendFailed { ctx, error } = e.event {
            assert_eq!(error, NetError::SendQueueFull);
            failed.push(ctx);
        }
    }
    assert_eq!(failed, vec![b_ctxs[3], b_ctxs[2]], "newest first");

    // The survivors complete, and reach the peer, in submission order.
    knet_simcore::run_to_quiescence(&mut w);
    let mut done = Vec::new();
    while let Some(e) = w.registry.cq_pop_for(cq_a, ea) {
        if let TransportEvent::SendDone { ctx } = e.event {
            done.push(ctx);
        }
    }
    let mut expected = a_ctxs.clone();
    expected.extend_from_slice(&b_ctxs[..2]);
    assert_eq!(done, expected, "one FIFO across the re-tag");
    let mut tags = Vec::new();
    while let Some(e) = w.registry.cq_pop(cq_b) {
        if let TransportEvent::Unexpected { tag, .. } = e.event {
            tags.push(tag);
        }
    }
    assert_eq!(tags, vec![0, 1, 2, 3, 10, 11], "wire order preserved");

    // Each send is counted under the tenant it was submitted under.
    let (reg, rows) = (w.stats().registry, w.tenant_stats());
    let row = |t: TenantId| rows.iter().find(|r| r.id == t).unwrap().channel;
    let (a, b) = (row(TenantId::DEFAULT), row(tb));
    assert_eq!(
        (
            a.direct_sends,
            a.queued_sends,
            a.retried_sends,
            a.failed_retries
        ),
        (1, 3, 3, 0)
    );
    assert_eq!(
        (
            b.direct_sends,
            b.queued_sends,
            b.retried_sends,
            b.failed_retries
        ),
        (0, 4, 2, 2)
    );
    assert_eq!(
        (reg.queued_sends, reg.retried_sends, reg.failed_retries),
        (7, 5, 2)
    );
}

#[test]
fn ghost_purge_covers_reuse_with_a_different_queue() {
    // The aliasing hazard doesn't care which queue the *new* channel
    // feeds: ghosts live wherever the old incarnation accumulated. Reuse
    // the endpoint with a different CQ (and then with a handler-backed
    // channel) and assert the old queue's entries for it are gone.
    let (mut w, n0, n1) = two_nodes();
    let (ch_a, _ch_b, cq_a, _cq_b, ea, eb) = channel_pair(&mut w, TransportKind::Mx, n0, n1);
    let ka = kbuf(&mut w, n0, 4096);
    channel_send(&mut w, ch_a, 1, ka.iov(64)).unwrap();
    knet_simcore::run_to_quiescence(&mut w);
    assert_eq!(w.registry.cq_len_for(cq_a, ea), 1, "ghost staged in cq_a");
    api::channel_close(&mut w, ch_a);
    // Reuse with a *different* queue: the ghost in cq_a must still die.
    let cq_new = w.new_cq();
    let ch_a2 = channel_connect(&mut w, ea, eb, cq_new);
    assert_eq!(
        w.registry.cq_len_for(cq_a, ea),
        0,
        "old queue holds no ghosts for the recycled endpoint"
    );
    // And again via a handler-backed incarnation (no queue at all).
    channel_send(&mut w, ch_a2, 2, ka.iov(64)).unwrap();
    knet_simcore::run_to_quiescence(&mut w);
    assert_eq!(w.registry.cq_len_for(cq_new, ea), 1);
    api::channel_close(&mut w, ch_a2);
    channel_connect_handler(&mut w, ea, eb, "probe", |_w, _ep, _ev| {});
    assert_eq!(
        w.registry.cq_len_for(cq_new, ea),
        0,
        "handler-backed reuse also purges the previous queue"
    );
}

/// Who hears about a dead node is decided in `api::peer_down` and nowhere
/// else. On the node facing the casualty: a connected channel hears
/// `PeerDown` iff its own peer lives on the dead node; an accept-side
/// channel (one endpoint, many peers) always does, whichever peer it
/// happened to learn first — and identifies the casualty by node only.
#[test]
fn peer_down_reaches_only_the_channels_that_can_hold_state_for_the_dead_node() {
    let mut w = ClusterBuilder::new()
        .nodes(3, CpuModel::xeon_2600())
        .build();
    let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
    let cq = w.new_cq();
    let ep = |w: &mut ClusterWorld, n| w.open_mx_cq(n, MxEndpointConfig::kernel(), cq).unwrap();
    let (to_live, to_dead, acceptor) = (ep(&mut w, n0), ep(&mut w, n0), ep(&mut w, n0));
    let (live, dead) = (ep(&mut w, n1), ep(&mut w, n2));
    api::channel_connect(&mut w, to_live, live, cq);
    api::channel_connect(&mut w, to_dead, dead, cq);
    let acc = api::channel_accept(&mut w, acceptor, cq);
    // The acceptor learns a peer on the *live* node first.
    let live_ch = api::channel_connect(&mut w, live, acceptor, cq);
    let hello = kbuf(&mut w, n1, 64);
    channel_send(&mut w, live_ch, 1, hello.iov(64)).unwrap();
    run_to_quiescence(&mut w);
    assert_eq!(api::channel_peer(&w, acc), Some(live));
    while w.registry.cq_pop(cq).is_some() {}

    api::peer_down(&mut w, TransportKind::Mx, n0, n2);

    let mut heard = Vec::new();
    while let Some(e) = w.registry.cq_pop(cq) {
        match e.event {
            TransportEvent::PeerDown { peer } => heard.push((e.ep, peer)),
            other => panic!("unexpected {other:?}"),
        }
    }
    let casualty = Endpoint {
        kind: TransportKind::Mx,
        node: n2,
        idx: u32::MAX,
    };
    assert_eq!(
        heard,
        [(to_dead, dead), (acceptor, casualty)],
        "the channel connected to the live node must hear nothing"
    );
}
