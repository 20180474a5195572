//! Open-loop multi-tenant traffic harness.
//!
//! Drives the composed stack the way a saturated cluster does: **tens of
//! thousands of logical clients**, each an independent arrival process with
//! heavy-tailed (Pareto) inter-arrival gaps in *virtual time*, multiplexed
//! onto per-(tenant, node) channels toward per-tenant echo services. Open
//! loop means arrivals do not wait for completions — a slow tenant builds
//! queue, it does not throttle the offered load — which is exactly the
//! regime where tail latency and cross-tenant isolation are decided.
//!
//! The harness is deterministic per seed and shard-invariant by
//! construction: every arrival is a virtual-time event chained on the
//! client's *node* (so the sharded engine routes it to the owning shard),
//! client RNG streams are split from the seed per (class, client), and no
//! wall-clock or global mutable ordering enters the measured path. Sample
//! sinks are cross-thread (`Mutex`) but order-insensitive — percentiles
//! are computed from sorted samples.
//!
//! Latency is measured request→reply: the gap between a client's scheduled
//! arrival (== its send instant) and the echoed reply landing back at the
//! client, so it includes channel queueing, WDRR scheduling, token-bucket
//! pacing, both wire directions and the echo turn-around. Sends shed by
//! admission control ([`NetError::Overload`]) or a full channel lane
//! ([`NetError::SendQueueFull`]) are counted, not measured.
//!
//! `tests/tenant_isolation.rs` uses it for the noisy-neighbor proof.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use knet_core::api::{
    channel_accept_handler, channel_connect_handler, channel_send, channel_send_to,
};
use knet_core::{IoVec, NetError, TenantId, TransportEvent};
use knet_mx::MxEndpointConfig;
use knet_simcore::{emit_at, now, SimTime};
use knet_simnic::QosPolicy;
use knet_simos::NodeId;

use crate::event::ClusterEv;
use crate::harness::kbuf;
use crate::shard::ShardedCluster;
use crate::world::ClusterWorld;

/// One tenant class: a population of logical clients with a common message
/// shape, arrival law, WDRR weight and (optional) NIC admission policy.
#[derive(Clone, Debug)]
pub struct ClassSpec {
    /// Tenant name (minted idempotently in the registry).
    pub name: String,
    /// WDRR weight at every scheduling point.
    pub weight: u64,
    /// Token-bucket sustained rate at the NIC admission point;
    /// `0` = unthrottled (no policy installed).
    pub rate_bytes_per_sec: u64,
    /// Token-bucket burst credit (ignored when unthrottled).
    pub burst_bytes: u64,
    /// Request payload size; the echo reply is the same size, so a
    /// throttled tenant pays the bucket twice per operation.
    pub msg_bytes: u64,
    /// Number of logical clients (arrival processes).
    pub clients: u32,
    /// Mean inter-arrival gap per client.
    pub mean_gap: SimTime,
    /// Pareto shape ×1000 (e.g. `1500` ⇒ α = 1.5). Must be > 1000 for the
    /// mean to exist; smaller α ⇒ heavier tail.
    pub alpha_milli: u32,
}

/// A full workload: the tenant classes plus placement and horizon.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Seed for every client's arrival stream.
    pub seed: u64,
    /// Arrivals stop at this virtual instant; in-flight traffic drains.
    pub horizon: SimTime,
    /// Node hosting the per-tenant echo services.
    pub server_node: NodeId,
    /// Nodes hosting clients (round-robin per class); must not contain
    /// `server_node`.
    pub client_nodes: Vec<NodeId>,
    pub classes: Vec<ClassSpec>,
}

/// Per-class accumulator (behind a mutex: shard worlds run on threads).
#[derive(Default)]
struct ClassSink {
    /// tag → send instant (nanos), removed when the echo lands.
    pending: HashMap<u64, u64>,
    /// Completed request→reply latencies, nanos, unordered.
    samples: Vec<u64>,
    sent: u64,
    shed: u64,
    queue_full: u64,
    failed: u64,
    other_errors: u64,
}

/// Shared sample sink for one workload run: one lane per class. Create
/// once, hand the same `Arc` to [`install`] on every shard world.
pub struct WorkloadSink {
    classes: Vec<Mutex<ClassSink>>,
}

impl WorkloadSink {
    pub fn new(spec: &WorkloadSpec) -> Arc<WorkloadSink> {
        Arc::new(WorkloadSink {
            classes: spec.classes.iter().map(|_| Mutex::default()).collect(),
        })
    }
}

/// What one class did, percentiles in microseconds. `completed` can trail
/// `sent` by the shed/failed counts (and by replies the server shed).
#[derive(Clone, Debug)]
pub struct ClassReport {
    pub name: String,
    pub tenant: TenantId,
    pub clients: u32,
    pub sent: u64,
    pub completed: u64,
    /// Sends refused by NIC admission ([`NetError::Overload`]), client side.
    pub shed: u64,
    /// Sends refused by a full channel lane ([`NetError::SendQueueFull`]).
    pub queue_full: u64,
    /// Accepted sends that later failed (`TransportEvent::SendFailed`).
    pub failed: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub mean_us: f64,
    pub max_us: f64,
}

/// The state one arrival event carries to the next: the whole per-client
/// process lives in this value, re-emitted on the client's node so the
/// sharded engine keeps the chain on the owning shard.
struct Arrival {
    class: usize,
    client: u32,
    seq: u64,
    rng: u64,
    ch: knet_core::ChannelId,
    iov: IoVec,
    node: NodeId,
    horizon: SimTime,
    mean_gap_ns: u64,
    alpha_milli: u32,
    sink: Arc<WorkloadSink>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pareto-distributed gap with the given mean: inverse-CDF on a 53-bit
/// uniform, scale chosen so `E[gap] = mean` (`x_m = mean·(α−1)/α`).
fn pareto_gap_ns(rng: &mut u64, mean_ns: u64, alpha_milli: u32) -> u64 {
    let alpha = f64::from(alpha_milli.max(1001)) / 1000.0;
    let u = (splitmix(rng) >> 11) as f64 / (1u64 << 53) as f64;
    let xm = mean_ns as f64 * (alpha - 1.0) / alpha;
    let gap = xm * (1.0 - u).powf(-1.0 / alpha);
    gap as u64
}

fn fire_arrival(w: &mut ClusterWorld, mut st: Arrival) {
    let now_ns = now(w).nanos();
    let tag = (u64::from(st.client) << 32) | (st.seq & 0xffff_ffff);
    let res = channel_send(w, st.ch, tag, st.iov.clone());
    {
        let mut c = st.sink.classes[st.class].lock().unwrap();
        c.sent += 1;
        match res {
            Ok(_) => {
                c.pending.insert(tag, now_ns);
            }
            Err(NetError::Overload) => c.shed += 1,
            Err(NetError::SendQueueFull) => c.queue_full += 1,
            Err(_) => c.other_errors += 1,
        }
    }
    let gap = pareto_gap_ns(&mut st.rng, st.mean_gap_ns, st.alpha_milli);
    let next = SimTime::from_nanos(now_ns.saturating_add(gap));
    if next < st.horizon {
        st.seq += 1;
        let node = st.node.0;
        emit_at(
            w,
            node,
            next,
            ClusterEv::Call(Box::new(move |w| fire_arrival(w, st))),
        );
    }
}

/// Install the workload into one world: mint tenants, stand up per-class
/// echo services and client channels, and seed every client's first
/// arrival. Deterministic — in a sharded run, call inside
/// [`ShardedCluster::setup`] with the *same* `spec` and `sink` so every
/// replica builds identical state and each shard keeps only the arrival
/// chains of the nodes it owns.
pub fn install(w: &mut ClusterWorld, spec: &WorkloadSpec, sink: &Arc<WorkloadSink>) {
    assert!(
        !spec.client_nodes.is_empty(),
        "need at least one client node"
    );
    assert!(
        !spec.client_nodes.contains(&spec.server_node),
        "server node cannot also host clients"
    );
    let t0 = now(w);
    for (ci, cls) in spec.classes.iter().enumerate() {
        let policy = (cls.rate_bytes_per_sec > 0).then_some(QosPolicy {
            rate_bytes_per_sec: cls.rate_bytes_per_sec,
            burst_bytes: cls.burst_bytes,
            ..QosPolicy::default()
        });
        let tenant = w.register_tenant(&cls.name, cls.weight, policy);

        // Echo service: every unexpected request is answered to its sender
        // with an equal-sized reply, on the same tenant's budget.
        let srv_ep = w
            .open_mx(spec.server_node, MxEndpointConfig::kernel())
            .expect("open echo endpoint");
        let reply_iov = kbuf(w, spec.server_node, cls.msg_bytes.max(1)).iov(cls.msg_bytes);
        let srv_ch_cell = Arc::new(Mutex::new(None::<knet_core::ChannelId>));
        let cell = srv_ch_cell.clone();
        let shed_sink = sink.clone();
        let srv_ch = channel_accept_handler(
            w,
            srv_ep,
            &format!("tail-echo:{}", cls.name),
            move |w2, _ep, ev| {
                if let TransportEvent::Unexpected { tag, from, .. } = ev {
                    let ch = cell.lock().unwrap().expect("echo channel registered");
                    match channel_send_to(w2, ch, from, tag, reply_iov.clone()) {
                        Ok(_) => {}
                        Err(NetError::Overload) => {
                            shed_sink.classes[ci].lock().unwrap().shed += 1;
                        }
                        Err(NetError::SendQueueFull) => {
                            shed_sink.classes[ci].lock().unwrap().queue_full += 1;
                        }
                        Err(_) => {
                            shed_sink.classes[ci].lock().unwrap().other_errors += 1;
                        }
                    }
                }
            },
        );
        *srv_ch_cell.lock().unwrap() = Some(srv_ch);
        w.assign_tenant(srv_ep, tenant);

        // One client channel per node: logical clients multiplex onto it
        // (tags pack client and sequence), so client count scales without
        // an endpoint per client.
        let mut chans = Vec::with_capacity(spec.client_nodes.len());
        for &node in &spec.client_nodes {
            let cli_ep = w
                .open_mx(node, MxEndpointConfig::kernel())
                .expect("open client endpoint");
            let send_buf = kbuf(w, node, cls.msg_bytes.max(1));
            let reply_sink = sink.clone();
            let ch = channel_connect_handler(
                w,
                cli_ep,
                srv_ep,
                &format!("tail-cli:{}:{}", cls.name, node.0),
                move |w2, _ep, ev| match ev {
                    TransportEvent::Unexpected { tag, .. } => {
                        let landed = now(w2).nanos();
                        let mut c = reply_sink.classes[ci].lock().unwrap();
                        if let Some(sent_at) = c.pending.remove(&tag) {
                            c.samples.push(landed.saturating_sub(sent_at));
                        }
                    }
                    TransportEvent::SendFailed { .. } => {
                        reply_sink.classes[ci].lock().unwrap().failed += 1;
                    }
                    _ => {}
                },
            );
            w.assign_tenant(cli_ep, tenant);
            chans.push((node, ch, send_buf.iov(cls.msg_bytes)));
        }

        // Seed every client's first arrival: RNG split per (class, client),
        // chain emitted on the client's own node.
        for client in 0..cls.clients {
            let (node, ch, iov) = chans[client as usize % chans.len()].clone();
            let mut rng = spec
                .seed
                .wrapping_add((ci as u64) << 40)
                .wrapping_add(u64::from(client).wrapping_mul(0x5851_F42D_4C95_7F2D));
            let first = pareto_gap_ns(&mut rng, cls.mean_gap.nanos(), cls.alpha_milli);
            let at = SimTime::from_nanos(t0.nanos().saturating_add(first));
            if at >= spec.horizon {
                continue;
            }
            let st = Arrival {
                class: ci,
                client,
                seq: 0,
                rng,
                ch,
                iov,
                node,
                horizon: spec.horizon,
                mean_gap_ns: cls.mean_gap.nanos(),
                alpha_milli: cls.alpha_milli,
                sink: sink.clone(),
            };
            emit_at(
                w,
                node.0,
                at,
                ClusterEv::Call(Box::new(move |w| fire_arrival(w, st))),
            );
        }
    }
}

fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64 / 1000.0
}

/// Fold the sink into per-class reports (sorts each class's samples).
pub fn collect(w: &ClusterWorld, spec: &WorkloadSpec, sink: &WorkloadSink) -> Vec<ClassReport> {
    spec.classes
        .iter()
        .zip(&sink.classes)
        .map(|(cls, lane)| {
            let mut c = lane.lock().unwrap();
            c.samples.sort_unstable();
            let n = c.samples.len();
            let sum: u128 = c.samples.iter().map(|&x| u128::from(x)).sum();
            ClassReport {
                name: cls.name.clone(),
                tenant: w
                    .registry
                    .tenant_table()
                    .lookup(&cls.name)
                    .unwrap_or(TenantId::DEFAULT),
                clients: cls.clients,
                sent: c.sent,
                completed: n as u64,
                shed: c.shed,
                queue_full: c.queue_full,
                failed: c.failed + c.other_errors,
                p50_us: percentile_us(&c.samples, 0.50),
                p99_us: percentile_us(&c.samples, 0.99),
                p999_us: percentile_us(&c.samples, 0.999),
                mean_us: if n == 0 {
                    0.0
                } else {
                    (sum as f64 / n as f64) / 1000.0
                },
                max_us: c.samples.last().map_or(0.0, |&x| x as f64 / 1000.0),
            }
        })
        .collect()
}

/// Run a workload to completion on a solo world and report.
pub fn run_solo(w: &mut ClusterWorld, spec: &WorkloadSpec) -> Vec<ClassReport> {
    let sink = WorkloadSink::new(spec);
    install(w, spec, &sink);
    knet_simcore::run_to_quiescence(w);
    collect(w, spec, &sink)
}

/// Run a workload to completion across a sharded cluster and report.
/// Identical samples to [`run_solo`] on the same spec — the isolation and
/// equivalence tests assert exactly that.
pub fn run_sharded(shards: &mut ShardedCluster, spec: &WorkloadSpec) -> Vec<ClassReport> {
    let sink = WorkloadSink::new(spec);
    shards.setup(|w| install(w, spec, &sink));
    shards.run_to_quiescence();
    collect(shards.world(spec.server_node.0), spec, &sink)
}
