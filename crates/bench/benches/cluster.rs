//! Cluster-scale engine benchmark: the sequential event loop vs the
//! sharded conservative-lookahead engine on the same workload, emitted as
//! `BENCH_cluster.json`.
//!
//! The workload is ring traffic — every node sends one message to its
//! successor each round, so **every** message crosses a shard boundary
//! under `node % shards` ownership (the worst case for the parallel
//! engine: maximal cross-shard mailbox traffic, epochs bounded by the NIC
//! wire latency). Reported per node count:
//!
//! * events executed and wall-clock seconds → **events/sec**,
//! * **wall-clock per virtual second** (how expensive simulated time is),
//! * the sharded engine's epoch/mailbox counters,
//! * steady-state arena growth (must be 0: the typed event path recycles
//!   its slab arena; `tests/hotpath_alloc.rs` asserts the same with a
//!   counting allocator).
//!
//! Scale knobs (env): `CLUSTER_NODES` (default "10,100,1000"),
//! `CLUSTER_ROUNDS` (3), `CLUSTER_SHARDS` (4), `CLUSTER_MSG_BYTES`
//! (4096), `CLUSTER_OUT` (output path).

use std::time::Instant;

use knet::build::ClusterBuilder;
use knet::harness::kbuf;
use knet::prelude::*;
use knet::ShardedCluster;
use knet_bench::{env_u64, write_report};
use knet_core::api::{channel_connect, channel_send, ChannelId};
use knet_core::Endpoint;
use knet_simos::Asid;

fn builder(n: usize) -> ClusterBuilder {
    ClusterBuilder::new()
        .nodes(n, CpuModel::xeon_2600())
        .mem_frames(32_768.max(n as u32 * 64))
}

// ---------------------------------------------------------------- driver

struct Mesh {
    eps: Vec<Endpoint>,
    bufs: Vec<knet::harness::KBuf>,
    chans: Vec<ChannelId>,
}

/// One endpoint, staging buffer and ring channel per node (mirrored set-up).
fn setup(d: &mut ShardedCluster, n: usize, msg_bytes: u64) -> Mesh {
    d.setup(|w| {
        let mut eps = Vec::new();
        let mut bufs = Vec::new();
        let mut cqs = Vec::new();
        for i in 0..n {
            let node = NodeId(i as u32);
            let cq = w.new_cq();
            let ep = w.open_mx_cq(node, MxEndpointConfig::kernel(), cq).unwrap();
            let buf = kbuf(w, node, msg_bytes.max(4096));
            let data: Vec<u8> = (0..msg_bytes).map(|j| (i as u64 * 131 + j) as u8).collect();
            w.os.node_mut(node)
                .write_virt(Asid::KERNEL, buf.addr, &data)
                .unwrap();
            eps.push(ep);
            bufs.push(buf);
            cqs.push(cq);
        }
        let chans = (0..n)
            .map(|i| channel_connect(w, eps[i], eps[(i + 1) % n], cqs[i]))
            .collect();
        Mesh { eps, bufs, chans }
    })
}

fn round(d: &mut ShardedCluster, mesh: &Mesh, round: u64, msg_bytes: u64) {
    // Every node owns a staging kbuf written at setup; re-send it with a
    // fresh tag each round.
    for (i, (&ch, buf)) in mesh.chans.iter().zip(&mesh.bufs).enumerate() {
        d.on(i as u32, |w| {
            let _ = channel_send(w, ch, round * 1_000_000 + i as u64, buf.iov(msg_bytes));
        });
    }
    d.run_to_quiescence();
    // Drain completion queues so they stay at their high-water marks.
    for (i, &ep) in mesh.eps.iter().enumerate() {
        d.on(i as u32, |w| while w.take_event(ep).is_some() {});
    }
}

fn now_secs(d: &ShardedCluster) -> f64 {
    d.world(0).sched.now().nanos() as f64 / 1e9
}

// ---------------------------------------------------------------- measure

struct CaseResult {
    nodes: usize,
    shards: usize,
    events: u64,
    secs: f64,
    virt_secs: f64,
    epochs: u64,
    mailbox_injected: u64,
    arena_grows_steady: u64,
}

impl CaseResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.secs.max(1e-9)
    }
    fn wall_per_virt(&self) -> f64 {
        self.secs / self.virt_secs.max(1e-12)
    }
}

/// One case; `shards = 1` is the sequential engine (a one-shard cluster
/// runs the plain step loop on the calling thread).
fn run_case(n: usize, shards: usize, rounds: u64, msg_bytes: u64) -> CaseResult {
    let mut d = builder(n).build_sharded(shards);
    let mesh = setup(&mut d, n, msg_bytes);

    // Warm-up: one round grows every pool (arenas, heaps, windows, CQs) to
    // its high-water mark.
    round(&mut d, &mesh, 0, msg_bytes);
    let events0 = d.executed();
    let grows0 = d.engine_stats().0.arena_grows;
    let virt0 = now_secs(&d);

    let start = Instant::now();
    for r in 1..=rounds {
        round(&mut d, &mesh, r, msg_bytes);
    }
    let secs = start.elapsed().as_secs_f64();
    let e = d.engine_stats().0;

    CaseResult {
        nodes: n,
        shards,
        events: d.executed() - events0,
        secs,
        virt_secs: now_secs(&d) - virt0,
        epochs: e.epochs,
        mailbox_injected: e.mailbox_injected,
        arena_grows_steady: e.arena_grows - grows0,
    }
}

// ---------------------------------------------------------------- main

fn main() {
    let nodes: Vec<usize> = std::env::var("CLUSTER_NODES")
        .unwrap_or_else(|_| "10,100,1000".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let rounds = env_u64("CLUSTER_ROUNDS", 3);
    let shards = env_u64("CLUSTER_SHARDS", 4) as usize;
    let msg_bytes = env_u64("CLUSTER_MSG_BYTES", 4096);
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!(
        "cluster: nodes={nodes:?} rounds={rounds} shards={shards} msg_bytes={msg_bytes} host_cpus={host_cpus}"
    );

    let mut rows = Vec::new();
    for &n in &nodes {
        let seq = run_case(n, 1, rounds, msg_bytes);
        eprintln!(
            "n={n:5} sequential: {} events in {:.3}s = {:.0} ev/s, {:.1} wall-s/virt-s",
            seq.events,
            seq.secs,
            seq.events_per_sec(),
            seq.wall_per_virt()
        );
        let sh = run_case(n, shards, rounds, msg_bytes);
        eprintln!(
            "n={n:5} sharded({shards}): {} events in {:.3}s = {:.0} ev/s, {:.1} wall-s/virt-s, {} epochs, {} mailbox msgs, speedup {:.2}x",
            sh.events,
            sh.secs,
            sh.events_per_sec(),
            sh.wall_per_virt(),
            sh.epochs,
            sh.mailbox_injected,
            seq.secs / sh.secs.max(1e-9)
        );
        assert_eq!(
            seq.events, sh.events,
            "sharded engine must execute the identical event set"
        );
        assert_eq!(
            sh.arena_grows_steady, 0,
            "steady-state rounds must not grow the event arena"
        );
        rows.push((seq, sh));
    }

    // ---- JSON emit (hand-rolled; the workspace is offline) ----
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"cluster\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"rounds\": {rounds}, \"shards\": {shards}, \"msg_bytes\": {msg_bytes}, \"host_cpus\": {host_cpus}, \"workload\": \"ring (every message crosses a shard boundary)\"}},\n"
    ));
    json.push_str(
        "  \"note\": \"speedup = sequential wall / sharded wall on the same host; \
         with host_cpus=1 the shard threads serialize and speedup is bounded by 1.0 — \
         the trend across node counts shows the epoch/mailbox overhead amortizing\",\n",
    );
    json.push_str("  \"cases\": [\n");
    let cases: Vec<String> = rows
        .iter()
        .map(|(seq, sh)| {
            format!(
                "    {{\"nodes\": {}, \"events\": {},\n     \"sequential\": {{\"events_per_sec\": {:.0}, \"wall_secs_per_virtual_sec\": {:.2}}},\n     \"sharded\": {{\"shards\": {}, \"events_per_sec\": {:.0}, \"wall_secs_per_virtual_sec\": {:.2}, \"epochs\": {}, \"mailbox_injected\": {}, \"arena_grows_steady_state\": {}}},\n     \"speedup\": {:.2}}}",
                seq.nodes,
                seq.events,
                seq.events_per_sec(),
                seq.wall_per_virt(),
                sh.shards,
                sh.events_per_sec(),
                sh.wall_per_virt(),
                sh.epochs,
                sh.mailbox_injected,
                sh.arena_grows_steady,
                seq.secs / sh.secs.max(1e-9)
            )
        })
        .collect();
    json.push_str(&cases.join(",\n"));
    json.push_str("\n  ]\n}\n");

    write_report("CLUSTER_OUT", "BENCH_cluster.json", &json);
}
