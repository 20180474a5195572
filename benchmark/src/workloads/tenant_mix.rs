//! `tenant_mix` — the only open loop: arrivals come on a schedule whether or
//! not earlier requests have completed, so WDRR lanes, driver pacing and
//! NIC token buckets do real work and queues can actually grow.
//!
//! One server node and eight client nodes, lossless. Four tenant classes —
//! the `BENCH_tail` mix scaled to about 5000 logical clients: `zsock-small`
//! (256 B, weight 4, 3000 clients), `orfs-4k` (4 kB, weight 4, 750),
//! `nbd-32k` (32 kB, weight 2, 250, token bucket 40 MB/s) and `rpc-victim`
//! (512 B, weight 8, 1000). Every client is an independent arrival process
//! with Pareto gaps in virtual time, its stream split from `--seed`; the
//! clients of a class on a node share one channel to the class's echo
//! service, which answers every request with an equal-sized reply on the
//! same tenant's budget. At 100 % load that is about 25 000 requests per
//! virtual second; a repetition offers one virtual second and then drains.
//!
//! An op is one request→echo of the three unthrottled classes, pooled; its
//! latency runs from the arrival's *due* instant to the echo landing back
//! at the client. The throttled class is the background it competes with,
//! reported per class only. A request refused by admission control or a
//! full lane is refused, typed; one that vanishes is broken.
//!
//! The traced run adds one repetition each at 50 % and 150 % load on fresh
//! worlds, and names the highest of the three loads that keeps the pooled
//! p99 within 1000 µs with at least 99 % of the requests completed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::host;
use crate::metrics::{LayerValues, TENANT_CLASSES};
use crate::probe::*;
use crate::trace::Trace;
use crate::workloads::{check_pattern, fill_pattern, scaled, Rep, Rng, Workload};

struct Class {
    weight: u64,
    /// Token-bucket rate at the NIC admission point; 0 = unthrottled.
    rate_bytes_per_sec: u64,
    burst_bytes: u64,
    msg_bytes: u64,
    clients: u64,
    mean_gap: SimTime,
    /// Pareto shape; smaller is heavier-tailed.
    alpha: f64,
}

/// In `TENANT_CLASSES` order.
const CLASSES: [Class; 4] = [
    Class {
        weight: 4,
        rate_bytes_per_sec: 0,
        burst_bytes: 0,
        msg_bytes: 256,
        clients: 3000,
        mean_gap: SimTime::from_millis(150),
        alpha: 1.3,
    },
    Class {
        weight: 4,
        rate_bytes_per_sec: 0,
        burst_bytes: 0,
        msg_bytes: 4096,
        clients: 750,
        mean_gap: SimTime::from_millis(300),
        alpha: 1.5,
    },
    Class {
        weight: 2,
        rate_bytes_per_sec: 40_000_000,
        burst_bytes: 262_144,
        msg_bytes: 32_768,
        clients: 250,
        mean_gap: SimTime::from_millis(600),
        alpha: 1.9,
    },
    Class {
        weight: 8,
        rate_bytes_per_sec: 0,
        burst_bytes: 0,
        msg_bytes: 512,
        clients: 1000,
        mean_gap: SimTime::from_millis(400),
        alpha: 1.4,
    },
];
const THROTTLED: usize = 2;
const SERVER: NodeId = NodeId(0);
const CLIENT_NODES: u32 = 8;
const HORIZON: SimTime = SimTime::from_millis(1000);
const P99_LIMIT_US: f64 = 1000.0;

/// What the handlers and arrival events of one class record.
#[derive(Default)]
struct Lane {
    /// tag → due instant (ns) of every request not yet echoed. Ordered, not
    /// hashed: a randomly seeded table resizes at run-dependent moments, and
    /// the allocation count has to repeat exactly.
    pending: BTreeMap<u64, u64>,
    next_tag: u64,
    samples: Vec<u64>,
    sent: u64,
    /// Refused typed: by admission control, a full lane, or a failed send —
    /// at the client, or at the server when it tried to reply.
    refused: u64,
    /// Refusals after the request was accepted (its tag stays pending).
    refused_pending: u64,
    /// Payloads that did not match, echoes nobody was waiting for.
    broken: u64,
    bytes: u64,
    late_ns_max: u64,
}

type Sink = Arc<Mutex<[Lane; 4]>>;

fn request_key(seed: u64, class: usize) -> u64 {
    seed ^ (0x5245_5100 + class as u64)
}

fn reply_key(seed: u64, class: usize) -> u64 {
    seed ^ (0x5245_5000 + class as u64)
}

fn refusal(e: &NetError) -> bool {
    matches!(e, NetError::Overload | NetError::SendQueueFull)
}

/// One logical client: its whole arrival process travels in this value
/// from one arrival event to the next.
struct Arrival {
    class: usize,
    rng: Rng,
    ch: ChannelId,
    iov: IoVec,
    node: u32,
    due: SimTime,
    horizon: SimTime,
    mean_gap_ns: f64,
    sink: Sink,
    /// Host ns spent inside `channel_send` (traced run only).
    submit_ns: Option<Arc<AtomicU64>>,
}

/// Pareto-distributed gap with the class's mean: inverse CDF on a uniform
/// draw, scale `x_m = mean (alpha - 1) / alpha`.
fn pareto_gap_ns(rng: &mut Rng, mean_ns: f64, alpha: f64) -> u64 {
    let xm = mean_ns * (alpha - 1.0) / alpha;
    (xm * (1.0 - rng.unit()).powf(-1.0 / alpha)) as u64
}

fn fire(w: &mut ClusterWorld, mut a: Arrival) {
    let at = now(w);
    let tag = {
        let mut lanes = a.sink.lock().expect("events run one at a time");
        let lane = &mut lanes[a.class];
        lane.next_tag += 1;
        lane.late_ns_max = lane.late_ns_max.max((at - a.due).nanos());
        lane.next_tag
    };
    let c = a.submit_ns.as_ref().map(|_| Instant::now());
    let res = channel_send(w, a.ch, tag, a.iov.clone());
    if let (Some(c), Some(acc)) = (c, &a.submit_ns) {
        acc.fetch_add(c.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    {
        let mut lanes = a.sink.lock().expect("events run one at a time");
        let lane = &mut lanes[a.class];
        lane.sent += 1;
        match res {
            Ok(_) => {
                lane.pending.insert(tag, a.due.nanos());
            }
            Err(e) if refusal(&e) => lane.refused += 1,
            Err(_) => lane.broken += 1,
        }
    }
    let gap = pareto_gap_ns(&mut a.rng, a.mean_gap_ns, CLASSES[a.class].alpha);
    a.due += SimTime::from_nanos(gap);
    if a.due < a.horizon {
        let (node, due) = (a.node, a.due);
        emit_at(w, node, due, ClusterEv::Call(Box::new(move |w| fire(w, a))));
    }
}

/// One deployment of the mix at one load.
struct Mix {
    w: ClusterWorld,
    seed: u64,
    sink: Sink,
    /// Per class and client node: the channel and the request buffer.
    lanes: Vec<Vec<(ChannelId, IoVec)>>,
    clients: [u64; 4],
    load_pct: u64,
}

/// What one offered horizon did, per class.
struct Offered {
    sent: [u64; 4],
    done: [u64; 4],
    refused: [u64; 4],
    broken: u64,
    bytes: [u64; 4],
    samples: [Vec<u64>; 4],
    late_ns_max: u64,
    span_ns: u64,
}

impl Mix {
    fn build(seed: u64, scale: u32, load_pct: u64) -> Mix {
        let mut w = ClusterBuilder::new()
            .nodes(1 + CLIENT_NODES as usize, CpuModel::xeon_2600())
            .mem_frames(16_384)
            .build();
        let sink: Sink = Arc::default();
        let mut lanes = Vec::new();
        for (ci, (cls, name)) in CLASSES.iter().zip(TENANT_CLASSES).enumerate() {
            let policy = (cls.rate_bytes_per_sec > 0).then(|| QosPolicy {
                rate_bytes_per_sec: cls.rate_bytes_per_sec,
                burst_bytes: cls.burst_bytes,
                ..QosPolicy::default()
            });
            let tenant = w.register_tenant(name, cls.weight, policy);
            let mut payload = vec![0u8; cls.msg_bytes as usize];

            // The echo service: check the request, answer with the reply
            // pattern, on the same tenant's budget.
            let srv_ep = w
                .open_mx(SERVER, MxEndpointConfig::kernel())
                .expect("mx endpoint");
            let reply = kbuf(&mut w, SERVER, cls.msg_bytes);
            fill_pattern(&mut payload, reply_key(seed, ci));
            kwrite(&mut w, SERVER, reply.addr, &payload);
            let reply_iov = reply.iov(cls.msg_bytes);
            let own_channel = Arc::new(Mutex::new(None::<ChannelId>));
            let (cell, srv_sink) = (own_channel.clone(), sink.clone());
            let srv_ch = channel_accept_handler(
                &mut w,
                srv_ep,
                &format!("echo:{name}"),
                move |w2, _ep, ev| {
                    let TransportEvent::Unexpected { tag, data, from } = ev else {
                        return;
                    };
                    let ch = cell
                        .lock()
                        .expect("events run one at a time")
                        .expect("channel registered");
                    let genuine = check_pattern(&data, request_key(seed, ci));
                    let res = channel_send_to(w2, ch, from, tag, reply_iov.clone());
                    let mut lanes = srv_sink.lock().expect("events run one at a time");
                    let lane = &mut lanes[ci];
                    match res {
                        _ if !genuine => lane.broken += 1,
                        Ok(_) => {}
                        Err(e) if refusal(&e) => lane.refused_pending += 1,
                        Err(_) => lane.broken += 1,
                    }
                },
            );
            *own_channel.lock().expect("no event is running") = Some(srv_ch);
            w.assign_tenant(srv_ep, tenant);

            // One client channel per node; the class's clients on that node
            // multiplex onto it.
            let mut per_node = Vec::new();
            for n in 1..=CLIENT_NODES {
                let node = NodeId(n);
                let cli_ep = w
                    .open_mx(node, MxEndpointConfig::kernel())
                    .expect("mx endpoint");
                let send = kbuf(&mut w, node, cls.msg_bytes);
                fill_pattern(&mut payload, request_key(seed, ci));
                kwrite(&mut w, node, send.addr, &payload);
                let cli_sink = sink.clone();
                let len = cls.msg_bytes;
                let ch = channel_connect_handler(
                    &mut w,
                    cli_ep,
                    srv_ep,
                    &format!("cli:{name}:{n}"),
                    move |w2, _ep, ev| {
                        let landed = now(w2).nanos();
                        let mut lanes = cli_sink.lock().expect("events run one at a time");
                        let lane = &mut lanes[ci];
                        match ev {
                            TransportEvent::Unexpected { tag, data, .. } => {
                                let genuine = data.len() as u64 == len
                                    && check_pattern(&data, reply_key(seed, ci));
                                match lane.pending.remove(&tag) {
                                    Some(due) if genuine => {
                                        lane.samples.push(landed - due);
                                        lane.bytes += len;
                                    }
                                    _ => lane.broken += 1,
                                }
                            }
                            TransportEvent::SendFailed { .. } => lane.refused_pending += 1,
                            _ => {}
                        }
                    },
                );
                w.assign_tenant(cli_ep, tenant);
                per_node.push((ch, send.iov(cls.msg_bytes)));
            }
            lanes.push(per_node);
        }
        Mix {
            w,
            seed,
            sink,
            lanes,
            clients: std::array::from_fn(|ci| scaled(CLASSES[ci].clients, scale, 8)),
            load_pct,
        }
    }

    /// Offer `horizon` of arrivals starting now, then drain.
    fn offer(&mut self, rep: u32, horizon: SimTime, tr: &mut Trace) -> Offered {
        let t0 = now(&self.w);
        let end = t0 + horizon;
        let submit_ns = tr.on().then(|| Arc::new(AtomicU64::new(0)));
        for (ci, cls) in CLASSES.iter().enumerate() {
            let mean_gap_ns = cls.mean_gap.nanos() as f64 * 100.0 / self.load_pct as f64;
            for client in 0..self.clients[ci] {
                let mut rng = Rng::stream(
                    self.seed ^ (u64::from(rep) << 48),
                    (ci as u64) << 32 | client,
                );
                let due = t0 + SimTime::from_nanos(pareto_gap_ns(&mut rng, mean_gap_ns, cls.alpha));
                if due >= end {
                    continue;
                }
                let slot = (client % u64::from(CLIENT_NODES)) as usize;
                let (ch, iov) = self.lanes[ci][slot].clone();
                let a = Arrival {
                    class: ci,
                    rng,
                    ch,
                    iov,
                    node: slot as u32 + 1,
                    due,
                    horizon: end,
                    mean_gap_ns,
                    sink: self.sink.clone(),
                    submit_ns: submit_ns.clone(),
                };
                emit_at(
                    &mut self.w,
                    a.node,
                    due,
                    ClusterEv::Call(Box::new(move |w| fire(w, a))),
                );
            }
        }
        let span = tr.enter("run");
        run_to_quiescence(&mut self.w);
        let span_ns = (now(&self.w) - t0).nanos();
        if let Some(ns) = submit_ns {
            let sent: u64 = self
                .sink
                .lock()
                .expect("no event is running")
                .iter()
                .map(|l| l.sent)
                .sum();
            tr.aggregate(
                "submit",
                Duration::from_nanos(ns.load(Ordering::Relaxed)),
                sent,
            );
        }
        tr.exit(span);

        let span = tr.enter("verify");
        let mut lanes = self.sink.lock().expect("no event is running");
        let mut o = Offered {
            sent: [0; 4],
            done: [0; 4],
            refused: [0; 4],
            broken: 0,
            bytes: [0; 4],
            samples: Default::default(),
            late_ns_max: 0,
            span_ns,
        };
        for (ci, lane) in lanes.iter_mut().enumerate() {
            o.sent[ci] = lane.sent;
            o.done[ci] = lane.samples.len() as u64;
            o.refused[ci] = lane.refused + lane.refused_pending;
            o.bytes[ci] = lane.bytes;
            // Every request still pending must be one a refusal explains.
            o.broken += lane.broken + (lane.pending.len() as u64).abs_diff(lane.refused_pending);
            o.late_ns_max = o.late_ns_max.max(lane.late_ns_max);
            o.samples[ci] = std::mem::take(&mut lane.samples);
            *lane = Lane {
                next_tag: lane.next_tag,
                ..Lane::default()
            };
        }
        drop(lanes);
        tr.exit(span);
        o
    }
}

/// Sum of a per-class tally over the three unthrottled classes (the ops).
fn unthrottled(per_class: &[u64; 4]) -> u64 {
    (0..4)
        .filter(|&ci| ci != THROTTLED)
        .map(|ci| per_class[ci])
        .sum()
}

/// The latency samples of the three unthrottled classes.
fn pooled(o: &Offered) -> impl Iterator<Item = u64> + '_ {
    (0..4)
        .filter(|&ci| ci != THROTTLED)
        .flat_map(|ci| o.samples[ci].iter().copied())
}

fn p99_us(sorted: &[u64]) -> f64 {
    host::percentile(sorted, host::tail_pct(sorted.len()).min(99.0)) as f64 / 1e3
}

pub struct TenantMix {
    mix: Mix,
    scale: u32,
    /// Per class, over the fixed repetitions.
    samples: [Vec<u64>; 4],
    shed: [u64; 4],
    sent: u64,
    done: u64,
    late_ns_max: u64,
}

impl Workload for TenantMix {
    const NAME: &'static str = "tenant_mix";
    /// No fault dice — yet not free of recovery: under queueing the link RTO
    /// fires on packets that were merely waiting, and a burst can overflow
    /// an rx FIFO. What that costs is what `simnic.rel_*` shows here.
    const LOSSLESS: bool = false;
    const SUBMIT_METRIC: &'static str = "core.submit_ns_per_op";
    /// The tail is set by where the Pareto bursts fall: nine repetitions,
    /// not five, steady the median of their p99s.
    const FIXED_REPS: u32 = 9;

    fn setup(seed: u64, scale: u32, tr: &mut Trace) -> Self {
        let mut mix = Mix::build(seed, scale, 100);
        // Warm-up: a twentieth of a horizon fills pools, lanes and buckets.
        let warm = mix.offer(u32::MAX, SimTime::from_millis(50), tr);
        assert_eq!(warm.broken, 0, "tenant_mix: the warm-up broke");
        TenantMix {
            mix,
            scale,
            samples: Default::default(),
            shed: [0; 4],
            sent: 0,
            done: 0,
            late_ns_max: 0,
        }
    }

    fn rep(&mut self, rep: u32, tr: &mut Trace, lat_ns: &mut Vec<u64>) -> Rep {
        let before = snapshot(&self.mix.w);
        let t = Instant::now();
        let o = self.mix.offer(rep, HORIZON, tr);
        let wall = t.elapsed();
        lat_ns.extend(pooled(&o));
        if rep < Self::FIXED_REPS {
            for ci in 0..4 {
                self.samples[ci].extend(&o.samples[ci]);
                self.shed[ci] += o.refused[ci];
            }
            self.sent += unthrottled(&o.sent);
            self.done += unthrottled(&o.done);
            self.late_ns_max = self.late_ns_max.max(o.late_ns_max);
        }
        let mut counters = Counters::default();
        counters.add_delta(&before, &snapshot(&self.mix.w));
        Rep {
            attempted: unthrottled(&o.sent),
            ok: unthrottled(&o.done),
            broken: o.broken,
            payload_bytes: unthrottled(&o.bytes),
            virt_span_ns: o.span_ns,
            wall,
            counters,
            setup: None,
        }
    }

    fn nodes(&self) -> usize {
        1 + CLIENT_NODES as usize
    }

    fn finish(&mut self, tr: &mut Trace, layer: &mut LayerValues, violations: &mut Vec<String>) {
        let mut all: Vec<u64> = Vec::new();
        for (ci, name) in TENANT_CLASSES.iter().enumerate() {
            let v = &mut self.samples[ci];
            v.sort_unstable();
            layer.set(
                &format!("knet.class_p50_us.{name}"),
                host::percentile(v, 50.0) as f64 / 1e3,
            );
            layer.set(&format!("knet.class_p99_us.{name}"), p99_us(v));
            layer.set(&format!("knet.class_shed.{name}"), self.shed[ci] as f64);
            if ci != THROTTLED {
                all.extend(v.iter());
            }
        }
        layer.set("knet.gen_late_us_max", self.late_ns_max as f64 / 1e3);
        if self.late_ns_max != 0 {
            violations.push(format!(
                "an arrival fired {} ns after it was due",
                self.late_ns_max
            ));
        }
        if !(tr.on() && self.scale == 100) {
            return;
        }
        // The load sweep: one horizon each at half and at 1.5x the load.
        all.sort_unstable();
        let span = tr.enter("sweep");
        let mut at_load = |load_pct: u64, tr: &mut Trace| {
            let mut mix = Mix::build(self.mix.seed, self.scale, load_pct);
            mix.offer(u32::MAX, SimTime::from_millis(50), tr);
            let o = mix.offer(0, HORIZON, tr);
            if o.broken != 0 {
                violations.push(format!("{} ops broke at {load_pct} % load", o.broken));
            }
            let mut lat: Vec<u64> = pooled(&o).collect();
            lat.sort_unstable();
            (p99_us(&lat), unthrottled(&o.done), unthrottled(&o.sent))
        };
        let (p99_load50, done50, sent50) = at_load(50, tr);
        let (p99_load150, done150, sent150) = at_load(150, tr);
        tr.exit(span);
        let ok_max = [
            (50.0, p99_load50, done50, sent50),
            (100.0, p99_us(&all), self.done, self.sent),
            (150.0, p99_load150, done150, sent150),
        ]
        .into_iter()
        .filter(|&(_, p99, done, sent)| p99 <= P99_LIMIT_US && done as f64 >= 0.99 * sent as f64)
        .map(|(load, ..)| load)
        .fold(0.0, f64::max);
        layer.set("knet.p99_us_load50", p99_load50);
        layer.set("knet.p99_us_load150", p99_load150);
        layer.set("knet.load_ok_max_pct", ok_max);
    }
}
