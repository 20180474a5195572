//! Regression tests for the zero-copy socket stream layer: the
//! reorder-map stall after zero-copy completions, staging of payloads the
//! 4 MiB socket ring cannot hold, and stream integrity under randomized
//! message/reader interleavings (dual-lane PCI-XE cards deliver
//! consecutive messages out of order).

use knet::harness::{sock_wait, ubuf, UBuf};
use knet::prelude::*;
use knet_zsock::{sock_create, sock_recv, sock_send, SockId};
use proptest::prelude::*;

/// A connected socket pair on the PCI-XE (dual-lane) testbed with
/// `buf_len`-byte user buffers on both sides.
fn pair(kind: TransportKind, buf_len: u64) -> (ClusterWorld, SockId, SockId, UBuf, UBuf) {
    let (mut w, n0, n1) = two_nodes_xe();
    let ba = ubuf(&mut w, n0, buf_len);
    let bb = ubuf(&mut w, n1, buf_len);
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
    (w, sa, sb, ba, bb)
}

fn fill_at(w: &mut ClusterWorld, buf: &UBuf, off: u64, data: &[u8]) {
    w.os.node_mut(buf.node)
        .write_virt(buf.asid, buf.addr.add(off), data)
        .unwrap();
}

fn read_back(w: &ClusterWorld, buf: &UBuf, off: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    w.os.node(buf.node)
        .read_virt(buf.asid, buf.addr.add(off), &mut v)
        .unwrap();
    v
}

fn pattern(seed: u64, len: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((seed * 131 + i * 7 + 3) % 251) as u8)
        .collect()
}

// ------------------------------------------------------- reorder stall

#[test]
fn zero_copy_completion_promotes_parked_reorder_segments() {
    // Dual-lane out-of-order schedule: seq 0 is a large rendezvous message
    // steered zero-copy into a blocked reader; seq 1 is a small inline
    // message that rides the second lane and lands (out of order) in the
    // reorder map while seq 0 is still in flight. When seq 0's zero-copy
    // completion advances rx_next past it, seq 1 must be promoted into the
    // stream buffer — before the fix, it sat in the reorder map until
    // unrelated traffic arrived and the second reader stalled forever.
    let (mut w, sa, sb, ba, bb) = pair(TransportKind::Mx, 1 << 20);
    let big = 200_000u64;
    let small = 64u64;

    // Reader blocks first with a large-enough buffer → seq 0 goes Direct.
    let r1 = sock_recv(&mut w, sb, bb.memref(big));
    let d0 = pattern(0, big);
    let d1 = pattern(1, small);
    fill_at(&mut w, &ba, 0, &d0);
    fill_at(&mut w, &ba, big, &d1);
    sock_send(&mut w, sa, ba.memref(big)); // seq 0: rendezvous, slow
    sock_send(&mut w, sa, ba.memref_at(big, small)); // seq 1: inline, fast lane
    assert_eq!(sock_wait(&mut w, sb, r1), big, "zero-copy read completes");
    assert_eq!(read_back(&w, &bb, 0, big as usize), d0);
    assert_eq!(
        w.zsock.sock(sb).stats.zero_copy_receives,
        1,
        "seq 0 was steered (the schedule exercises the Direct path)"
    );

    // The small message must now be claimable without any further traffic.
    let r2 = sock_recv(&mut w, sb, bb.memref(small));
    assert_eq!(
        sock_wait(&mut w, sb, r2),
        small,
        "seq 1 promoted out of the reorder map"
    );
    assert_eq!(read_back(&w, &bb, 0, small as usize), d1);
}

// ------------------------------------------------- oversized payloads

#[test]
fn payloads_larger_than_the_socket_ring_survive_intact() {
    // A payload bigger than the 4 MiB socket ring must neither wrap over
    // in-flight ring data nor write past the allocation: it is staged in a
    // dedicated kernel buffer (freed after landing) on both the GM send
    // side (copy protocol) and the late-reader receive side.
    const BIG: u64 = (4 << 20) + (1 << 20); // 5 MiB > SOCK_RING
    for kind in [TransportKind::Mx, TransportKind::Gm] {
        let (mut w, sa, sb, ba, bb) = pair(kind, 8 << 20);
        let data = pattern(7, BIG);
        fill_at(&mut w, &ba, 0, &data);
        sock_send(&mut w, sa, ba.memref(BIG));
        // No reader yet: the payload lands in kernel staging (the ring is
        // too small — the dedicated-allocation fallback must kick in).
        run_to_quiescence(&mut w);
        assert!(
            w.zsock.sock(sb).stats.oversize_allocs >= 1,
            "{kind:?}: receive staging fell back to a dedicated allocation"
        );
        if kind == TransportKind::Gm {
            assert!(
                w.zsock.sock(sa).stats.oversize_allocs >= 1,
                "GM send-side copy staging fell back to a dedicated allocation"
            );
        }
        // Read it back in chunks; the bytes must be exact.
        let mut got = Vec::new();
        while (got.len() as u64) < BIG {
            let want = (1 << 20u64).min(BIG - got.len() as u64);
            let op = sock_recv(&mut w, sb, bb.memref(want));
            let n = sock_wait(&mut w, sb, op);
            assert!(n > 0, "{kind:?}: reader progresses");
            got.extend(read_back(&w, &bb, 0, n as usize));
        }
        assert_eq!(got, data, "{kind:?}: oversized payload is byte-exact");
    }
}

#[test]
fn ring_never_hands_out_overlapping_reservations() {
    // Many in-flight messages whose staging would have collided under the
    // old wrap-to-zero ring: with ~1 MiB frames, four in-flight fills the
    // 4 MiB ring and the fifth used to wrap over frame 0 while its bytes
    // were still queued for the reader. All bytes must survive.
    let (mut w, sa, sb, bb_src, bb) = pair(TransportKind::Gm, 8 << 20);
    let frame = 1 << 20;
    let n_frames = 6u64;
    let mut expect = Vec::new();
    for i in 0..n_frames {
        let d = pattern(i, frame);
        fill_at(&mut w, &bb_src, i * frame, &d);
        sock_send(&mut w, sa, bb_src.memref_at(i * frame, frame));
        expect.extend(d);
    }
    // Let everything land in the kernel socket buffer before reading.
    run_to_quiescence(&mut w);
    let mut got = Vec::new();
    while (got.len() as u64) < n_frames * frame {
        let op = sock_recv(&mut w, sb, bb.memref(frame));
        let n = sock_wait(&mut w, sb, op);
        got.extend(read_back(&w, &bb, 0, n as usize));
    }
    assert_eq!(got, expect, "no reservation overwrote in-flight bytes");
}

// ------------------------------------- randomized lane interleavings

fn arb_sizes() -> impl Strategy<Value = Vec<u64>> {
    // Mix of regimes: inline (≤4 kB on MX), eager medium, rendezvous
    // large — consecutive messages ride different lanes on PCI-XE and
    // overtake each other.
    prop::collection::vec(
        prop_oneof![1u64..256, 2_000u64..10_000, 40_000u64..200_000],
        2..7,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn stream_bytes_arrive_in_order_under_random_interleavings(
        sizes in arb_sizes(),
        chunk in 1_000u64..50_000,
        reader_first in any::<bool>(),
    ) {
        let (mut w, sa, sb, ba, bb) = pair(TransportKind::Mx, 2 << 20);
        let total: u64 = sizes.iter().sum();
        let mut expect = Vec::new();
        let mut off = 0u64;
        let mut first_op = None;
        if reader_first {
            // A blocked reader exercises the zero-copy steering path for
            // the first message.
            first_op = Some(sock_recv(&mut w, sb, bb.memref(chunk)));
        }
        for (i, &s) in sizes.iter().enumerate() {
            let d = pattern(i as u64, s);
            fill_at(&mut w, &ba, off, &d);
            sock_send(&mut w, sa, ba.memref_at(off, s));
            expect.extend(d);
            off += s;
        }
        let mut got = Vec::new();
        if let Some(op) = first_op {
            let n = sock_wait(&mut w, sb, op);
            prop_assert!(n > 0);
            got.extend(read_back(&w, &bb, 0, n as usize));
        }
        while (got.len() as u64) < total {
            let want = chunk.min(total - got.len() as u64);
            let op = sock_recv(&mut w, sb, bb.memref(want));
            let n = sock_wait(&mut w, sb, op);
            prop_assert!(n > 0, "reader never stalls");
            got.extend(read_back(&w, &bb, 0, n as usize));
        }
        prop_assert_eq!(got, expect, "stream is in order and complete");
    }
}

// --------------------------------------------------- socket id recycling

#[test]
fn socket_ids_never_alias_across_close_create_churn() {
    // SockId used to be allocated from `socks.len()`, so once slots were
    // recycled a close-heavy workload aliased stale ids onto new sockets.
    // Ids are generation-tagged now: a closed id stops resolving, a
    // recycled slot mints a distinct id, and traffic still flows
    // end-to-end after every generation.
    let (mut w, n0, n1) = two_nodes_xe();
    let ba = ubuf(&mut w, n0, 1 << 20);
    let bb = ubuf(&mut w, n1, 1 << 20);
    let mut seen = std::collections::BTreeSet::new();
    let mut prev: Option<(SockId, SockId)> = None;
    for round in 0..4u64 {
        let ea = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
        let eb = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
        let sa = sock_create(&mut w, ea, eb).unwrap();
        let sb = sock_create(&mut w, eb, ea).unwrap();
        assert!(
            seen.insert(sa),
            "round {round}: sa id {sa:?} recycled verbatim"
        );
        assert!(
            seen.insert(sb),
            "round {round}: sb id {sb:?} recycled verbatim"
        );
        if let Some((dead_a, dead_b)) = prev {
            // Stale ids resolve to nothing — not to the new sockets now
            // occupying their slots.
            assert!(w.zsock.try_sock(dead_a).is_none(), "round {round}");
            assert!(w.zsock.try_sock(dead_b).is_none(), "round {round}");
        }
        // The new pair still moves bytes.
        let data = pattern(round, 20_000);
        fill_at(&mut w, &ba, 0, &data);
        let r = sock_recv(&mut w, sb, bb.memref(20_000));
        sock_send(&mut w, sa, ba.memref(20_000));
        assert_eq!(sock_wait(&mut w, sb, r), 20_000, "round {round}");
        assert_eq!(read_back(&w, &bb, 0, 20_000), data, "round {round}");
        knet_zsock::sock_close(&mut w, sa);
        knet_zsock::sock_close(&mut w, sb);
        assert!(w.zsock.try_sock(sa).is_none(), "closed id stops resolving");
        // Closing a stale id is a no-op, not a panic.
        knet_zsock::sock_close(&mut w, sa);
        prev = Some((sa, sb));
    }
    assert_eq!(w.zsock.count(), 0, "all sockets closed");
    run_to_quiescence(&mut w);
}

// ------------------------------------------------- hostile header length

#[test]
fn a_header_announcing_u64_max_bytes_is_not_accepted_inline() {
    // The header's length word comes off the wire. Comparing the frame
    // with `16 + len` overflowed on `u64::MAX` and panicked; the rest of
    // the frame is compared with `len` directly, so a 16-byte header
    // announcing `u64::MAX` bytes is a header without an inline payload.
    // Staging that payload then asks `kalloc` for more pages than a frame
    // count holds: out of memory, which poisons the stream.
    let (mut w, sa, sb, _ba, _bb) = pair(TransportKind::Mx, 4096);
    let mut hdr = [0u8; 16];
    hdr[8..].copy_from_slice(&u64::MAX.to_le_bytes());
    let ev = TransportEvent::Unexpected {
        tag: 1 << 62,
        data: bytes::Bytes::copy_from_slice(&hdr),
        from: w.zsock.sock(sa).ep,
    };
    knet_zsock::sock_on_event(&mut w, sb, ev);
    run_to_quiescence(&mut w);
    let st = w.zsock.sock(sb).stats;
    assert_eq!(st.bytes_received, 0, "no inline accept");
    assert_eq!(st.buffered_receives, 0, "no inline accept");
    assert!(w.zsock.sock(sb).error().is_some(), "the stream is poisoned");
}
