//! The collective subsystem, end to end: groups wired over real GM/MX
//! kernel endpoints, payload bytes moving NIC-to-NIC down and up k-ary
//! trees, completions surfacing as typed `TransportEvent`s — plus the
//! failure contract (a dead member resolves, never hangs), the per-link
//! reliability breakdown, and the tree's win over the host-staged loop.

use knet::figures::{coll_fixture, CollFixture};
use knet::prelude::*;
use knet::world::ClusterWorld;
use knet_core::api::channel_send_to;
use knet_core::TransportEvent;
use knet_simnic::FaultPlan;
use knet_simos::Asid;

fn write_kernel(w: &mut ClusterWorld, node: NodeId, addr: knet_simos::VirtAddr, data: &[u8]) {
    w.os.node_mut(node)
        .write_virt(Asid::KERNEL, addr, data)
        .unwrap();
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

type Dones = Vec<(u64, Vec<u8>)>;
type Recvs = Vec<(u64, Vec<u8>)>;
type Fails = Vec<(u64, NetError)>;

/// Drain one endpoint's CQ into (dones, recvs, fails).
fn drain(w: &mut ClusterWorld, ep: Endpoint) -> (Dones, Recvs, Fails) {
    let (mut dones, mut recvs, mut fails) = (Vec::new(), Vec::new(), Vec::new());
    while let Some(ev) = w.take_event(ep) {
        match ev {
            TransportEvent::CollectiveDone { ctx, data, .. } => dones.push((ctx, data.to_vec())),
            TransportEvent::CollectiveRecv { tag, data, .. } => recvs.push((tag, data.to_vec())),
            TransportEvent::CollectiveFailed { ctx, error, .. } => fails.push((ctx, error)),
            other => panic!("unexpected event {other:?}"),
        }
    }
    (dones, recvs, fails)
}

#[test]
fn bcast_reaches_every_member_byte_exact_on_gm() {
    let CollFixture {
        mut w,
        group,
        eps,
        bufs,
    } = coll_fixture(TransportKind::Gm, 8, 2);
    // A multi-chunk payload (larger than one MTU) with a recognizable
    // pattern, staged in the root's kernel buffer.
    let payload = pattern(10_000, 7);
    write_kernel(&mut w, NodeId(0), bufs[0].addr, &payload);

    let ctx = channel_bcast(&mut w, group, 42, &bufs[0].iov(payload.len() as u64)).unwrap();
    run_to_quiescence(&mut w);

    // Root: exactly one aggregated completion, no self-delivery.
    let (dones, recvs, fails) = drain(&mut w, eps[0]);
    assert_eq!(dones.len(), 1, "one completion regardless of group size");
    assert_eq!(dones[0].0, ctx);
    assert!(recvs.is_empty() && fails.is_empty());

    // Every non-root member: the payload, byte-exact, tagged.
    for &ep in &eps[1..] {
        let (dones, recvs, fails) = drain(&mut w, ep);
        assert!(dones.is_empty() && fails.is_empty());
        assert_eq!(recvs.len(), 1);
        assert_eq!(recvs[0].0, 42);
        assert_eq!(recvs[0].1, payload, "byte-exact delivery at {ep:?}");
    }

    assert_eq!(w.coll.pending_count(), 0, "no stranded host contexts");
    assert_eq!(w.nics.coll.pending_count(), 0, "no stranded NIC slots");
    let snap = w.stats();
    assert_eq!(snap.coll.started, 1);
    assert_eq!(snap.coll.completed, 1);
    assert!(snap.nic_coll.frames > 0, "frames crossed the tree engine");
}

#[test]
fn barrier_releases_no_one_until_the_last_member_enters() {
    let CollFixture {
        mut w, group, eps, ..
    } = coll_fixture(TransportKind::Mx, 6, 3);

    // Everyone but the last member enters. The world cannot go quiescent
    // here — the tree's probe chain keeps chasing the straggler — so run
    // to a generous virtual-time deadline instead.
    let mut ctxs = Vec::new();
    for &ep in &eps[..5] {
        ctxs.push(channel_barrier(&mut w, group, ep).unwrap());
    }
    let deadline = SimTime::from_micros(20_000);
    let out = run_until(&mut w, |w| now(w) >= deadline);
    assert!(matches!(out, RunOutcome::Satisfied));
    for &ep in &eps {
        let (dones, recvs, fails) = drain(&mut w, ep);
        assert!(
            dones.is_empty() && recvs.is_empty() && fails.is_empty(),
            "no completion may fire before the last member enters"
        );
    }

    // The straggler enters: everyone completes.
    ctxs.push(channel_barrier(&mut w, group, eps[5]).unwrap());
    run_to_quiescence(&mut w);
    for (i, &ep) in eps.iter().enumerate() {
        let (dones, _, fails) = drain(&mut w, ep);
        assert!(fails.is_empty());
        assert_eq!(dones.len(), 1, "member {i} released");
        assert_eq!(dones[0].0, ctxs[i]);
    }
    assert_eq!(w.coll.pending_count(), 0);
    assert_eq!(w.nics.coll.pending_count(), 0);
}

#[test]
fn reduce_combines_lanes_in_nic_across_the_tree() {
    let CollFixture {
        mut w, group, eps, ..
    } = coll_fixture(TransportKind::Mx, 7, 2);

    // Member i contributes lanes [i+1, (i+1)^2, i as bitmask].
    let mut root_ctx = 0;
    for (i, &ep) in eps.iter().enumerate() {
        let v = (i + 1) as u64;
        let ctx = channel_reduce(&mut w, group, ep, ReduceOp::Sum, &[v, v * v, 1 << i]).unwrap();
        if i == 0 {
            root_ctx = ctx;
        }
    }
    run_to_quiescence(&mut w);

    let (dones, _, fails) = drain(&mut w, eps[0]);
    assert!(fails.is_empty());
    assert_eq!(dones.len(), 1);
    assert_eq!(dones[0].0, root_ctx);
    let lanes: Vec<u64> = dones[0]
        .1
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let n = eps.len() as u64;
    assert_eq!(
        lanes,
        vec![
            n * (n + 1) / 2,
            (1..=n).map(|v| v * v).sum::<u64>(),
            (1 << eps.len()) - 1,
        ],
        "the root holds the lane-wise combination of every contribution"
    );

    // Non-root members complete locally (empty payload).
    for &ep in &eps[1..] {
        let (dones, _, fails) = drain(&mut w, ep);
        assert!(fails.is_empty());
        assert_eq!(dones.len(), 1);
        assert!(dones[0].1.is_empty());
    }

    // The combine happened inside the NICs, not at the host.
    assert!(w.nics.coll.stats.combines > 0, "in-NIC combines ran");
    assert_eq!(w.coll.pending_count(), 0);
}

#[test]
fn min_and_bitand_use_their_identities() {
    let CollFixture {
        mut w, group, eps, ..
    } = coll_fixture(TransportKind::Gm, 4, 2);
    for (i, &ep) in eps.iter().enumerate() {
        channel_reduce(&mut w, group, ep, ReduceOp::Min, &[10 + i as u64]).unwrap();
    }
    run_to_quiescence(&mut w);
    let (dones, _, _) = drain(&mut w, eps[0]);
    assert_eq!(dones[0].1, 10u64.to_le_bytes().to_vec(), "min survives");

    for (i, &ep) in eps.iter().enumerate() {
        channel_reduce(&mut w, group, ep, ReduceOp::BitAnd, &[!(1 << i)]).unwrap();
    }
    run_to_quiescence(&mut w);
    let (dones, _, _) = drain(&mut w, eps[0]);
    assert_eq!(
        dones[0].1,
        (!0b1111u64).to_le_bytes().to_vec(),
        "and-reduction clears exactly the contributed zero bits"
    );
}

#[test]
fn group_api_enforces_its_contract() {
    let CollFixture {
        mut w, group, eps, ..
    } = coll_fixture(TransportKind::Gm, 4, 2);

    // Zero fan-out is meaningless.
    assert!(matches!(
        group_create(&mut w, eps[0], 0),
        Err(NetError::Unsupported)
    ));
    // One member per node.
    assert!(matches!(
        group_join(&mut w, group, eps[1]),
        Err(NetError::BadEndpoint)
    ));
    // Transport kinds cannot mix within a group.
    let mx = w.open_mx(NodeId(3), MxEndpointConfig::kernel()).unwrap();
    assert!(matches!(
        group_join(&mut w, group, mx),
        Err(NetError::BadEndpoint)
    ));
    // The root cannot leave.
    assert!(matches!(
        group_leave(&mut w, group, eps[0]),
        Err(NetError::Unsupported)
    ));
    // Empty payloads are rejected (nothing to fan out / combine).
    assert!(channel_reduce(&mut w, group, eps[0], ReduceOp::Sum, &[]).is_err());

    // A member can leave; the re-wired group still completes collectives.
    group_leave(&mut w, group, eps[3]).unwrap();
    for &ep in &eps[..3] {
        channel_barrier(&mut w, group, ep).unwrap();
    }
    run_to_quiescence(&mut w);
    for &ep in &eps[..3] {
        let (dones, _, fails) = drain(&mut w, ep);
        assert_eq!(dones.len(), 1);
        assert!(fails.is_empty());
    }
    // The departed member saw nothing.
    let (dones, recvs, fails) = drain(&mut w, eps[3]);
    assert!(dones.is_empty() && recvs.is_empty() && fails.is_empty());

    let gs = w.coll.group_stats(group).unwrap();
    assert_eq!(gs.started, 3);
    assert_eq!(gs.completed, 3);
    assert_eq!(gs.failed, 0);
}

/// Satellite regression: a member killed mid-collective resolves the round
/// as a typed failure for every survivor — no silent hang. The kill takes
/// the straggler before it enters the barrier; the tree's probe chain
/// exhausts the dead link's retry budget, and the `PeerDown` machinery
/// fans `CollectiveFailed` out to every outstanding context.
#[test]
fn member_killed_mid_barrier_fails_survivors_typed() {
    let CollFixture {
        mut w, group, eps, ..
    } = coll_fixture(TransportKind::Mx, 6, 2);
    let victim = 5usize;
    w.set_fault_plan(
        FaultPlan::new(0xC011_DEAD).with_kill(NodeId(victim as u32), SimTime::from_micros(300)),
    );

    // Every survivor enters; the victim never does.
    let mut ctxs = Vec::new();
    for (i, &ep) in eps.iter().enumerate() {
        if i != victim {
            ctxs.push((i, channel_barrier(&mut w, group, ep).unwrap()));
        }
    }
    // Quiescence must be *reached* (the probe chain dies once the failure
    // resolves) — this is the no-silent-hang half of the contract.
    run_to_quiescence(&mut w);

    for (i, ctx) in ctxs {
        let (dones, _, fails) = drain(&mut w, eps[i]);
        assert!(dones.is_empty(), "member {i} must not complete");
        assert_eq!(fails.len(), 1, "member {i} gets exactly one failure");
        assert_eq!(fails[0].0, ctx, "the failure names the barrier's context");
        assert!(matches!(fails[0].1, NetError::PeerUnreachable));
    }
    assert_eq!(w.coll.pending_count(), 0, "no stranded host contexts");
    assert_eq!(w.nics.coll.pending_count(), 0, "no stranded NIC slots");

    // The group is poisoned: further collectives fail synchronously.
    assert!(matches!(
        channel_barrier(&mut w, group, eps[0]),
        Err(NetError::PeerUnreachable)
    ));
    let snap = w.stats();
    assert_eq!(snap.coll.failed as usize, eps.len() - 1);
}

/// Satellite: the per-link breakdown behind the aggregate `RelStats`
/// attributes traffic to individual directed links — rows sum back to the
/// aggregate counters they slice.
#[test]
fn rel_link_breakdown_sums_to_the_aggregate() {
    let CollFixture {
        mut w,
        group,
        eps: _,
        bufs,
    } = coll_fixture(TransportKind::Gm, 4, 2);
    let payload = pattern(4096, 3);
    write_kernel(&mut w, NodeId(0), bufs[0].addr, &payload);
    channel_bcast(&mut w, group, 1, &bufs[0].iov(4096)).unwrap();
    run_to_quiescence(&mut w);

    let rows = w.rel_link_stats();
    assert!(!rows.is_empty());
    let agg = w.nics.rel.stats;
    assert_eq!(
        rows.iter().map(|r| r.data_packets).sum::<u64>(),
        agg.data_packets,
        "per-link rows partition the aggregate data-packet count"
    );
    assert_eq!(
        rows.iter().map(|r| r.retransmits).sum::<u64>(),
        agg.retransmits
    );
    assert_eq!(
        rows.iter().map(|r| r.rtt_samples).sum::<u64>(),
        agg.rtt_samples
    );
    assert_eq!(rows.iter().map(|r| r.tlps).sum::<u64>(), agg.tlps);
    // The breakdown is deterministically ordered.
    let mut sorted = rows.clone();
    sorted.sort_by_key(|r| (r.proto as u8, r.src.0, r.dst.0));
    assert_eq!(
        rows.iter().map(|r| (r.src.0, r.dst.0)).collect::<Vec<_>>(),
        sorted
            .iter()
            .map(|r| (r.src.0, r.dst.0))
            .collect::<Vec<_>>()
    );
    // The root's downlinks are individually attributable, and the tree
    // (fan-out 2 at the root) kept the root's uplink count bounded: the
    // root sends to exactly its two children, not to all three members.
    let root_tx: Vec<_> = rows.iter().filter(|r| r.src.0 == 0).collect();
    assert_eq!(root_tx.len(), 2, "root transmits on exactly k=2 links");
    for r in &root_tx {
        assert!(r.data_packets > 0);
        assert!(!r.dead);
    }
    // Single-link query agrees with the breakdown row.
    let one = w
        .nics
        .rel
        .link_stats(knet_simnic::Proto::Gm, root_tx[0].src, root_tx[0].dst)
        .unwrap();
    assert_eq!(one.data_packets, root_tx[0].data_packets);
}

// ------------------------------------------------- NIC tree vs host loop

/// Scale of the tree-vs-host comparison. Yu et al.'s NIC-based collectives
/// (cs/0402027) win from 64 nodes up; this is the smallest rung of that
/// claim.
const CMP_NODES: usize = 64;
const CMP_FANOUT: usize = 4;
const CMP_BCAST_BYTES: u64 = 4096;
const CMP_LANES: usize = 8;
/// Measured rounds; one warm-up round (link states, pools) precedes them.
const CMP_ROUNDS: u64 = 2;

/// Drop everything queued at `eps`.
fn discard_events(w: &mut ClusterWorld, eps: &[Endpoint]) {
    let mut batch = Vec::new();
    for &ep in eps {
        w.take_events(ep, usize::MAX, &mut batch);
        batch.clear();
    }
}

/// Run until every endpoint in `eps` has an event queued.
fn await_each(w: &mut ClusterWorld, eps: &[Endpoint], what: &str) {
    let out = run_until(w, |w: &ClusterWorld| eps.iter().all(|&e| w.has_event(e)));
    assert_eq!(out, RunOutcome::Satisfied, "{what} stalled");
}

/// Run until `ep` observed `want` `RecvDone`s, consuming what it pops: its
/// queue may also hold its own `SendDone`s, which `has_event` cannot tell
/// apart.
fn await_recvs(w: &mut ClusterWorld, ep: Endpoint, want: usize, what: &str) {
    let (mut got, mut batch) = (0, Vec::new());
    while got < want {
        let out = run_until(w, |w: &ClusterWorld| w.has_event(ep));
        assert_eq!(out, RunOutcome::Satisfied, "{what} stalled at {got}/{want}");
        batch.clear();
        w.take_events(ep, usize::MAX, &mut batch);
        got += batch
            .iter()
            .filter(|e| matches!(e.event, TransportEvent::RecvDone { .. }))
            .count();
    }
}

/// Virtual-time µs of `[bcast, barrier, allreduce]`, summed over the
/// measured rounds.
type OpSums = [f64; 3];

/// Time `op` in virtual µs; add it to `sum` unless this is the warm-up.
fn timed(w: &mut ClusterWorld, round: u64, sum: &mut f64, op: impl FnOnce(&mut ClusterWorld)) {
    let t0 = now(w);
    op(w);
    if round > 0 {
        *sum += (now(w) - t0).micros();
    }
}

/// The three collectives on the NIC tree: frames forwarded NIC-to-NIC,
/// acks and partial reductions aggregated on the way up.
fn tree_latencies() -> OpSums {
    let CollFixture {
        mut w,
        group,
        eps,
        bufs,
    } = coll_fixture(TransportKind::Gm, CMP_NODES, CMP_FANOUT);
    let payload = pattern(CMP_BCAST_BYTES as usize, 1);
    let lanes: Vec<u64> = (0..CMP_LANES as u64).collect();
    let mut sums = [0.0; 3];
    for r in 0..=CMP_ROUNDS {
        write_kernel(&mut w, NodeId(0), bufs[0].addr, &payload);
        // Broadcast: done when the root's aggregated ack arrives.
        timed(&mut w, r, &mut sums[0], |w| {
            channel_bcast(w, group, r, &bufs[0].iov(CMP_BCAST_BYTES)).unwrap();
            await_each(w, &eps[..1], "tree bcast");
        });
        discard_events(&mut w, &eps);
        // Barrier: done when the release wave reached every member.
        timed(&mut w, r, &mut sums[1], |w| {
            for &ep in &eps {
                channel_barrier(w, group, ep).unwrap();
            }
            await_each(w, &eps, "tree barrier");
        });
        discard_events(&mut w, &eps);
        // Allreduce: in-NIC fan-in to the root, then the root broadcasts
        // the combined vector down the same tree.
        timed(&mut w, r, &mut sums[2], |w| {
            for &ep in &eps {
                channel_reduce(w, group, ep, ReduceOp::Sum, &lanes).unwrap();
            }
            await_each(w, &eps[..1], "tree reduce");
            discard_events(w, &eps);
            let result = vec![0xAA; CMP_LANES * 8];
            write_kernel(w, NodeId(0), bufs[0].addr, &result);
            let iov = bufs[0].iov(result.len() as u64);
            channel_bcast(w, group, 1_000_000 + r, &iov).unwrap();
            await_each(w, &eps[..1], "tree allreduce bcast");
        });
        discard_events(&mut w, &eps);
    }
    sums
}

/// The same three collectives staged by the host, the only thing the
/// point-to-point API offers: the root drives N-1 channel sends per step
/// and gathers N-1 replies, paying the full host→NIC submission cost per
/// member. Allreduce combines at the root for free in virtual time, which
/// favours the loop.
fn host_loop_latencies() -> OpSums {
    let n = CMP_NODES;
    let mut w = ClusterBuilder::new()
        .nodes(n, CpuModel::xeon_2600())
        .mem_frames(32_768)
        .build();
    let port = GmPortConfig::kernel().with_physical_api();
    let buf_len = CMP_BCAST_BYTES.max(CMP_LANES as u64 * 8);
    // One accept-side channel at the root (scatter via `channel_send_to`,
    // gather receives posted on it), one connected channel per member.
    let root_cq = w.new_cq();
    let root = w.open_gm_cq(NodeId(0), port.clone(), root_cq).unwrap();
    let root_ch = channel_accept(&mut w, root, root_cq);
    channel_set_send_queue_cap(&mut w, root_ch, n + 8);
    let root_buf = kbuf(&mut w, NodeId(0), buf_len);
    let (mut members, mut up, mut member_bufs, mut gather_bufs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 1..n as u32 {
        let cq = w.new_cq();
        let ep = w.open_gm_cq(NodeId(i), port.clone(), cq).unwrap();
        up.push(channel_connect(&mut w, ep, root, cq));
        member_bufs.push(kbuf(&mut w, NodeId(i), buf_len));
        gather_bufs.push(kbuf(&mut w, NodeId(0), CMP_LANES as u64 * 8));
        members.push(ep);
    }
    let all: Vec<Endpoint> = std::iter::once(root).chain(members.clone()).collect();
    write_kernel(
        &mut w,
        NodeId(0),
        root_buf.addr,
        &pattern(buf_len as usize, 1),
    );

    // One scatter from the root: every member posts `tag`, the root sends.
    let scatter = |w: &mut ClusterWorld, tag: u64, len: u64, what: &str| {
        for (i, &ep) in members.iter().enumerate() {
            channel_post_recv(w, up[i], tag, member_bufs[i].iov(len)).unwrap();
            channel_send_to(w, root_ch, ep, tag, root_buf.iov(len)).unwrap();
        }
        for &ep in &members {
            await_recvs(w, ep, 1, what);
        }
    };
    // One gather at the root: the root posts `tag` per member, each sends.
    let gather = |w: &mut ClusterWorld, tag: u64, len: u64, what: &str| {
        for (i, &ch) in up.iter().enumerate() {
            channel_post_recv(w, root_ch, tag, gather_bufs[i].iov(len)).unwrap();
            channel_send(w, ch, tag, member_bufs[i].iov(len)).unwrap();
        }
        await_recvs(w, root, members.len(), what);
    };
    let lane_bytes = CMP_LANES as u64 * 8;
    let mut sums = [0.0; 3];
    for r in 0..=CMP_ROUNDS {
        let tag = 10 * r;
        timed(&mut w, r, &mut sums[0], |w| {
            scatter(w, tag, CMP_BCAST_BYTES, "host bcast")
        });
        discard_events(&mut w, &all);
        timed(&mut w, r, &mut sums[1], |w| {
            gather(w, tag + 1, 8, "host barrier gather");
            scatter(w, tag + 2, 8, "host barrier release");
        });
        discard_events(&mut w, &all);
        timed(&mut w, r, &mut sums[2], |w| {
            gather(w, tag + 3, lane_bytes, "host allreduce gather");
            scatter(w, tag + 4, lane_bytes, "host allreduce scatter");
        });
        discard_events(&mut w, &all);
    }
    sums
}

/// The paper-line claim behind the collective subsystem: at 64 nodes the
/// NIC-resident tree completes broadcast, barrier and allreduce sooner
/// than the host-staged point-to-point loop, in deterministic virtual
/// time.
#[test]
fn nic_tree_beats_the_host_staged_loop_at_64_nodes() {
    let (tree, host) = (tree_latencies(), host_loop_latencies());
    for (i, op) in ["bcast", "barrier", "allreduce"].into_iter().enumerate() {
        let (t, h) = (tree[i] / CMP_ROUNDS as f64, host[i] / CMP_ROUNDS as f64);
        eprintln!("{op}: tree {t:.1} us, host loop {h:.1} us");
        assert!(
            t < h,
            "{op}: the NIC tree ({t:.1} us) must beat the host-staged loop ({h:.1} us) at {CMP_NODES} nodes"
        );
    }
}
