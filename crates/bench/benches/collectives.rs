//! NIC-resident collectives vs the host-staged loop, measured.
//!
//! The paper's thesis is that moving communication machinery *down* —
//! into the kernel, and here one step further into NIC firmware — removes
//! per-operation host costs that serialize at scale. This benchmark holds
//! the collective subsystem to that claim: for broadcast, barrier and
//! allreduce it measures the **virtual-time completion latency** of
//!
//! * the **NIC tree** path (`knet_coll` groups over the `knet_simnic`
//!   fan-out/fan-in engine: frames forwarded NIC-to-NIC without
//!   re-entering the host driver, acks and partial reductions aggregated
//!   on the way up), and
//! * the **host-staged loop** baseline (the only thing the point-to-point
//!   API offers: the root posts N-1 channel sends one by one, gathers N-1
//!   replies, and pays the full host→NIC submission cost per member —
//!   allreduce even combines on the host, which virtual time charges
//!   *nothing* for, so the comparison is conservative in the loop's
//!   favor),
//!
//! at each rung of a node ladder. Virtual time makes every number a
//! deterministic property of the cost model, not of the machine running
//! the benchmark. Results go to `BENCH_collectives.json` with the
//! host/tree speedup per rung; the acceptance gate is that the tree wins
//! every op from 64 nodes up.
//!
//! Scale knobs (env): `COLL_MAX_NODES` (default 256), `COLL_FANOUT` (4),
//! `COLL_BCAST_BYTES` (4096), `COLL_LANES` (8), `COLL_ROUNDS` (3),
//! `COLL_OUT` (output path).

use knet::build::ClusterBuilder;
use knet::figures::{coll_fixture, CollFixture};
use knet::harness::{kbuf, KBuf};
use knet::world::ClusterWorld;
use knet_bench::{env_u64, write_report};
use knet_core::api::{
    channel_accept, channel_connect, channel_post_recv, channel_send, channel_send_to,
    channel_set_send_queue_cap,
};
use knet_core::{ChannelId, Endpoint, TransportKind};
use knet_gm::GmPortConfig;
use knet_simcore::{now, run_until, RunOutcome, SimTime};
use knet_simnic::ReduceOp;
use knet_simos::{Asid, CpuModel, NodeId};

struct Config {
    max_nodes: usize,
    fanout: usize,
    bcast_bytes: u64,
    lanes: usize,
    rounds: u64,
}

impl Config {
    fn from_env() -> Self {
        Config {
            max_nodes: env_u64("COLL_MAX_NODES", 256) as usize,
            fanout: (env_u64("COLL_FANOUT", 4) as usize).max(1),
            bcast_bytes: env_u64("COLL_BCAST_BYTES", 4096),
            lanes: (env_u64("COLL_LANES", 8) as usize).max(1),
            rounds: env_u64("COLL_ROUNDS", 3).max(1),
        }
    }
}

/// One rung of the ladder: average completion latency (µs of virtual
/// time) for each op on each path.
struct Rung {
    nodes: usize,
    tree_bcast_us: f64,
    tree_barrier_us: f64,
    tree_allreduce_us: f64,
    host_bcast_us: f64,
    host_barrier_us: f64,
    host_allreduce_us: f64,
}

fn micros(dt: SimTime) -> f64 {
    dt.secs() * 1e6
}

fn drain_all(w: &mut ClusterWorld, eps: &[Endpoint]) {
    let mut batch = Vec::new();
    for &ep in eps {
        w.take_events(ep, usize::MAX, &mut batch);
        batch.clear();
    }
}

fn await_all(w: &mut ClusterWorld, eps: &[Endpoint], what: &str) {
    let out = run_until(w, |w: &ClusterWorld| eps.iter().all(|&e| w.has_event(e)));
    assert_eq!(out, RunOutcome::Satisfied, "{what} stalled");
}

/// Wait until every endpoint in `eps` observed a `RecvDone` — the strict
/// form for scatter phases, where a member's queue may already hold its own
/// `SendDone` from the preceding gather (which `has_event` can't tell
/// apart). Consumes everything it pops.
fn await_recv_each(w: &mut ClusterWorld, eps: &[Endpoint], what: &str) {
    let mut batch = Vec::new();
    for &ep in eps {
        let mut got = false;
        while !got {
            let out = run_until(w, |w: &ClusterWorld| w.has_event(ep));
            assert_eq!(out, RunOutcome::Satisfied, "{what} stalled at {ep:?}");
            w.take_events(ep, usize::MAX, &mut batch);
            got = batch
                .iter()
                .any(|e| matches!(e.event, knet_core::TransportEvent::RecvDone { .. }));
        }
    }
}

// ---------------------------------------------------------------- NIC tree

/// Average per-round latency of the three collectives on the NIC tree.
fn tree_phase(cfg: &Config, n: usize) -> (f64, f64, f64) {
    use knet::prelude::{channel_barrier, channel_bcast, channel_reduce};
    let CollFixture {
        mut w,
        group,
        eps,
        bufs,
    } = coll_fixture(TransportKind::Gm, n, cfg.fanout);
    let payload: Vec<u8> = (0..cfg.bcast_bytes).map(|i| (i % 251) as u8).collect();
    w.os.node_mut(NodeId(0))
        .write_virt(Asid::KERNEL, bufs[0].addr, &payload)
        .unwrap();
    let lanes: Vec<u64> = (0..cfg.lanes as u64).collect();
    let (mut bc, mut ba, mut ar) = (0.0, 0.0, 0.0);
    // Round 0 is warm-up (link states, pools); measured rounds follow.
    for r in 0..=cfg.rounds {
        // Broadcast: complete when the root's aggregated ack arrives —
        // i.e. when every member's NIC acked its subtree.
        let t0 = now(&w);
        channel_bcast(&mut w, group, r, &bufs[0].iov(cfg.bcast_bytes)).unwrap();
        await_all(&mut w, &eps[..1], "tree bcast");
        let dt = now(&w) - t0;
        drain_all(&mut w, &eps);
        if r > 0 {
            bc += micros(dt);
        }

        // Barrier: complete when the release wave reached every member.
        let t0 = now(&w);
        for &ep in &eps {
            channel_barrier(&mut w, group, ep).unwrap();
        }
        await_all(&mut w, &eps, "tree barrier");
        let dt = now(&w) - t0;
        drain_all(&mut w, &eps);
        if r > 0 {
            ba += micros(dt);
        }

        // Allreduce: in-NIC fan-in reduce to the root, then the root
        // broadcasts the combined vector back down the same tree.
        let t0 = now(&w);
        for &ep in &eps {
            channel_reduce(&mut w, group, ep, ReduceOp::Sum, &lanes).unwrap();
        }
        await_all(&mut w, &eps[..1], "tree reduce");
        drain_all(&mut w, &eps);
        let result = vec![0xAAu8; cfg.lanes * 8];
        w.os.node_mut(NodeId(0))
            .write_virt(Asid::KERNEL, bufs[0].addr, &result)
            .unwrap();
        channel_bcast(
            &mut w,
            group,
            1_000_000 + r,
            &bufs[0].iov(result.len() as u64),
        )
        .unwrap();
        await_all(&mut w, &eps[..1], "tree allreduce bcast");
        let dt = now(&w) - t0;
        drain_all(&mut w, &eps);
        if r > 0 {
            ar += micros(dt);
        }
        // Restore the bcast payload for the next round.
        w.os.node_mut(NodeId(0))
            .write_virt(Asid::KERNEL, bufs[0].addr, &payload)
            .unwrap();
    }
    let rounds = cfg.rounds as f64;
    (bc / rounds, ba / rounds, ar / rounds)
}

// ---------------------------------------------------------------- host loop

struct HostWorld {
    w: ClusterWorld,
    /// One passive server-shaped channel at the root (scatter goes out via
    /// `channel_send_to`, gather recvs are posted on it), one connected
    /// channel per member, a payload buffer per member, and small
    /// root-side gather buffers.
    eps: Vec<Endpoint>,
    root_ep: Endpoint,
    root_ch: ChannelId,
    up: Vec<ChannelId>,
    member_bufs: Vec<KBuf>,
    gather_bufs: Vec<KBuf>,
    root_buf: KBuf,
}

fn host_world(cfg: &Config, n: usize) -> HostWorld {
    let mut w = ClusterBuilder::new()
        .nodes(n, CpuModel::xeon_2600())
        .mem_frames(32_768u32.max(n as u32 * 512))
        .build();
    let port = GmPortConfig::kernel().with_physical_api();
    let root_cq = w.new_cq();
    let root_ep = w.open_gm_cq(NodeId(0), port.clone(), root_cq).unwrap();
    let root_ch = channel_accept(&mut w, root_ep, root_cq);
    channel_set_send_queue_cap(&mut w, root_ch, n + 8);
    let root_buf = kbuf(&mut w, NodeId(0), cfg.bcast_bytes.max(cfg.lanes as u64 * 8));
    let (mut eps, mut up, mut member_bufs, mut gather_bufs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 1..n as u32 {
        let cq = w.new_cq();
        let ep = w.open_gm_cq(NodeId(i), port.clone(), cq).unwrap();
        up.push(channel_connect(&mut w, ep, root_ep, cq));
        member_bufs.push(kbuf(
            &mut w,
            NodeId(i),
            cfg.bcast_bytes.max(cfg.lanes as u64 * 8),
        ));
        gather_bufs.push(kbuf(&mut w, NodeId(0), cfg.lanes as u64 * 8));
        eps.push(ep);
    }
    HostWorld {
        w,
        eps,
        root_ep,
        root_ch,
        up,
        member_bufs,
        gather_bufs,
        root_buf,
    }
}

/// Average per-round latency of the three collectives staged by the host:
/// the root (or every member, toward the root) drives N-1 point-to-point
/// channel operations per collective step.
fn host_phase(cfg: &Config, n: usize) -> (f64, f64, f64) {
    let mut hw = host_world(cfg, n);
    let payload: Vec<u8> = (0..cfg.bcast_bytes).map(|i| (i % 251) as u8).collect();
    hw.w.os
        .node_mut(NodeId(0))
        .write_virt(Asid::KERNEL, hw.root_buf.addr, &payload)
        .unwrap();
    let (mut bc, mut ba, mut ar) = (0.0, 0.0, 0.0);
    let members = hw.eps.clone();
    let all_eps: Vec<Endpoint> = std::iter::once(hw.root_ep)
        .chain(members.iter().copied())
        .collect();
    // Count RecvDones at the root so gather phases wait for *all* N-1
    // arrivals, not just the first event on the root CQ.
    let gather_done = |w: &mut ClusterWorld,
                       root_ep: Endpoint,
                       want: usize,
                       batch: &mut Vec<knet_core::CqEntry>,
                       what: &str| {
        let mut got = 0usize;
        while got < want {
            let out = run_until(w, |w: &ClusterWorld| w.has_event(root_ep));
            assert_eq!(out, RunOutcome::Satisfied, "{what} stalled at {got}/{want}");
            batch.clear();
            w.take_events(root_ep, usize::MAX, batch);
            got += batch
                .iter()
                .filter(|e| matches!(e.event, knet_core::TransportEvent::RecvDone { .. }))
                .count();
        }
    };
    let mut batch = Vec::new();
    for r in 0..=cfg.rounds {
        let tag = 10 * r;
        // Host-staged broadcast: N-1 serial sends from the root.
        let t0 = now(&hw.w);
        for (i, &ep) in members.iter().enumerate() {
            channel_post_recv(
                &mut hw.w,
                hw.up[i],
                tag,
                hw.member_bufs[i].iov(cfg.bcast_bytes),
            )
            .unwrap();
            channel_send_to(
                &mut hw.w,
                hw.root_ch,
                ep,
                tag,
                hw.root_buf.iov(cfg.bcast_bytes),
            )
            .unwrap();
        }
        await_recv_each(&mut hw.w, &members, "host bcast");
        let dt = now(&hw.w) - t0;
        drain_all(&mut hw.w, &all_eps);
        if r > 0 {
            bc += micros(dt);
        }

        // Host-staged barrier: gather N-1 notifications at the root, then
        // scatter N-1 releases.
        let t0 = now(&hw.w);
        for (i, &ch) in hw.up.iter().enumerate() {
            channel_post_recv(&mut hw.w, hw.root_ch, tag + 1, hw.gather_bufs[i].iov(8)).unwrap();
            channel_send(&mut hw.w, ch, tag + 1, hw.member_bufs[i].iov(8)).unwrap();
        }
        gather_done(
            &mut hw.w,
            hw.root_ep,
            members.len(),
            &mut batch,
            "host barrier gather",
        );
        // The root observed every arrival; scatter the release.
        for (i, &ep) in members.iter().enumerate() {
            channel_post_recv(&mut hw.w, hw.up[i], tag + 2, hw.member_bufs[i].iov(8)).unwrap();
            channel_send_to(&mut hw.w, hw.root_ch, ep, tag + 2, hw.root_buf.iov(8)).unwrap();
        }
        await_recv_each(&mut hw.w, &members, "host barrier release");
        let dt = now(&hw.w) - t0;
        drain_all(&mut hw.w, &all_eps);
        if r > 0 {
            ba += micros(dt);
        }

        // Host-staged allreduce: gather N-1 lane vectors, combine at the
        // root (free in virtual time — conservative), scatter the result.
        let lane_bytes = cfg.lanes as u64 * 8;
        let t0 = now(&hw.w);
        for (i, &ch) in hw.up.iter().enumerate() {
            channel_post_recv(
                &mut hw.w,
                hw.root_ch,
                tag + 3,
                hw.gather_bufs[i].iov(lane_bytes),
            )
            .unwrap();
            channel_send(&mut hw.w, ch, tag + 3, hw.member_bufs[i].iov(lane_bytes)).unwrap();
        }
        gather_done(
            &mut hw.w,
            hw.root_ep,
            members.len(),
            &mut batch,
            "host allreduce gather",
        );
        for (i, &ep) in members.iter().enumerate() {
            channel_post_recv(
                &mut hw.w,
                hw.up[i],
                tag + 4,
                hw.member_bufs[i].iov(lane_bytes),
            )
            .unwrap();
            channel_send_to(
                &mut hw.w,
                hw.root_ch,
                ep,
                tag + 4,
                hw.root_buf.iov(lane_bytes),
            )
            .unwrap();
        }
        await_recv_each(&mut hw.w, &members, "host allreduce scatter");
        let dt = now(&hw.w) - t0;
        drain_all(&mut hw.w, &all_eps);
        if r > 0 {
            ar += micros(dt);
        }
    }
    let rounds = cfg.rounds as f64;
    (bc / rounds, ba / rounds, ar / rounds)
}

// ---------------------------------------------------------------- main

fn main() {
    let cfg = Config::from_env();
    eprintln!(
        "collectives: max_nodes={} fanout={} bcast_bytes={} lanes={} rounds={}",
        cfg.max_nodes, cfg.fanout, cfg.bcast_bytes, cfg.lanes, cfg.rounds
    );

    let ladder: Vec<usize> = [8usize, 16, 32, 64, 128, 256]
        .into_iter()
        .filter(|&n| n <= cfg.max_nodes)
        .collect();
    let mut rungs = Vec::new();
    for &n in &ladder {
        let (tb, tba, tar) = tree_phase(&cfg, n);
        let (hb, hba, har) = host_phase(&cfg, n);
        eprintln!(
            "n={n:3}: bcast {tb:8.1} vs {hb:8.1} µs ({:.2}x) | barrier {tba:8.1} vs {hba:8.1} µs ({:.2}x) | allreduce {tar:8.1} vs {har:8.1} µs ({:.2}x)",
            hb / tb, hba / tba, har / tar
        );
        rungs.push(Rung {
            nodes: n,
            tree_bcast_us: tb,
            tree_barrier_us: tba,
            tree_allreduce_us: tar,
            host_bcast_us: hb,
            host_barrier_us: hba,
            host_allreduce_us: har,
        });
    }

    // The acceptance gate: from 64 nodes up, the NIC tree wins all three.
    let mut wins_at_64_plus = true;
    for r in rungs.iter().filter(|r| r.nodes >= 64) {
        wins_at_64_plus &= r.tree_bcast_us < r.host_bcast_us
            && r.tree_barrier_us < r.host_barrier_us
            && r.tree_allreduce_us < r.host_allreduce_us;
    }
    if rungs.iter().any(|r| r.nodes >= 64) {
        assert!(
            wins_at_64_plus,
            "the NIC tree must beat the host-staged loop on every op at >= 64 nodes"
        );
    }

    // ---- JSON emit (hand-rolled; the workspace is offline) ----
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"collectives\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"fanout\": {}, \"bcast_bytes\": {}, \"lanes\": {}, \"rounds\": {}, \"transport\": \"gm\"}},\n",
        cfg.fanout, cfg.bcast_bytes, cfg.lanes, cfg.rounds
    ));
    json.push_str(
        "  \"unit\": \"virtual-time microseconds per collective, averaged over rounds\",\n",
    );
    json.push_str("  \"paths\": {\"tree\": \"NIC-resident k-ary tree (knet_coll over knet_simnic::coll)\", \"host\": \"root-driven point-to-point channel loop\"},\n");
    json.push_str("  \"points\": [\n");
    let body: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "    {{\"nodes\": {}, \"bcast\": {{\"tree_us\": {:.2}, \"host_us\": {:.2}, \"speedup\": {:.2}}}, \"barrier\": {{\"tree_us\": {:.2}, \"host_us\": {:.2}, \"speedup\": {:.2}}}, \"allreduce\": {{\"tree_us\": {:.2}, \"host_us\": {:.2}, \"speedup\": {:.2}}}}}",
                r.nodes,
                r.tree_bcast_us, r.host_bcast_us, r.host_bcast_us / r.tree_bcast_us,
                r.tree_barrier_us, r.host_barrier_us, r.host_barrier_us / r.tree_barrier_us,
                r.tree_allreduce_us, r.host_allreduce_us, r.host_allreduce_us / r.tree_allreduce_us,
            )
        })
        .collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str(&format!(
        "  \"nic_tree_wins_at_64_plus\": {wins_at_64_plus}\n}}\n"
    ));

    write_report("COLL_OUT", "BENCH_collectives.json", &json);
}
