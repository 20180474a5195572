//! `ring_1k` — the `p2p_small` channel path with 1000 times the nodes and a
//! thousandth of the endpoints per node, so scheduler-heap and per-node-state
//! scaling shows while per-endpoint structures do not.
//!
//! Closed loop, one message per node per round. 1000 nodes of 4096 frames
//! each (a world at the `cluster` bench's 64 000 frames per node spends
//! seconds materialising frames; `simos.physmem_new_us_per_kframe` records
//! the unit cost), one MX kernel endpoint per node, every endpoint bound to
//! one shared completion queue that the single driver thread polls, so each
//! `RecvDone` is popped at the instant it arrives. Every node sends one
//! message of about 4 kB (lengths drawn from the seed, 3778..=4096 B) to
//! its successor into a posted buffer. Sequential engine.
//!
//! Payloads: a 16-byte header naming (seed, round, sender) followed by a
//! body all nodes share; the receiver checks header, length and body.
//!
//! The traced run adds a shadow: the same set-up and first repetition on
//! the 2-shard engine — the only second thread anywhere in the benchmark —
//! which must execute the identical event count.

use std::time::Instant;

use crate::host;
use crate::metrics::LayerValues;
use crate::probe::*;
use crate::trace::Trace;
use crate::workloads::{fill_pattern, lap, scaled, Phases, Rep, Rng, Workload};

const MAX_LEN: u64 = 4096;
const HEADER: usize = 16;

/// Messages never contend here, so a latency quantile is a function of the
/// length distribution alone; the seed therefore also draws the run's
/// largest message (4033..=4096 B), and a round's lengths fall in the 256 B
/// below it. Otherwise every seed would report the same p99 to the digit.
fn max_len(seed: u64) -> u64 {
    MAX_LEN - Rng::stream(seed, 0x004C_454E).below(64)
}

/// What mirrored set-up hands back: per node, its endpoint, its channel to
/// the successor, and its send and receive buffers.
#[derive(Clone)]
struct Mesh {
    cq: CqId,
    eps: Vec<Endpoint>,
    chans: Vec<ChannelId>,
    send: Vec<KBuf>,
    recv: Vec<KBuf>,
}

fn builder(n: usize) -> ClusterBuilder {
    ClusterBuilder::new()
        .nodes(n, CpuModel::xeon_2600())
        .mem_frames(4096)
}

fn build_mesh(w: &mut ClusterWorld, n: usize, body: &[u8]) -> Mesh {
    let cq = w.new_cq();
    let mut m = Mesh {
        cq,
        eps: Vec::with_capacity(n),
        chans: Vec::with_capacity(n),
        send: Vec::with_capacity(n),
        recv: Vec::with_capacity(n),
    };
    for i in 0..n {
        let node = NodeId(i as u32);
        m.eps.push(
            w.open_mx_cq(node, MxEndpointConfig::kernel(), cq)
                .expect("mx endpoint"),
        );
        let send = kbuf(w, node, MAX_LEN);
        kwrite(w, node, send.addr, body);
        m.send.push(send);
        m.recv.push(kbuf(w, node, MAX_LEN));
    }
    for i in 0..n {
        m.chans
            .push(channel_connect(w, m.eps[i], m.eps[(i + 1) % n], cq));
    }
    m
}

fn header(seed: u64, tag: u64, sender: usize) -> [u8; HEADER] {
    let mut h = [0u8; HEADER];
    h[..8].copy_from_slice(&(seed ^ tag).to_le_bytes());
    h[8..].copy_from_slice(&(sender as u64).to_le_bytes());
    h
}

/// Node `i`'s part of a round: arm the receive, stamp the header, send.
fn submit(w: &mut ClusterWorld, m: &Mesh, i: usize, seed: u64, tag: u64, len: u64) {
    kwrite(w, NodeId(i as u32), m.send[i].addr, &header(seed, tag, i));
    channel_post_recv(w, m.chans[i], tag, m.recv[i].iov(MAX_LEN)).expect("post recv");
    channel_send(w, m.chans[i], tag, m.send[i].iov(len)).expect("send");
}

pub struct Ring1k {
    w: ClusterWorld,
    seed: u64,
    scale: u32,
    n: usize,
    rounds: u64,
    mesh: Mesh,
    /// The body every message carries after its header.
    body: Vec<u8>,
    /// The run's largest message, drawn from the seed (see [`max_len`]).
    max_len: u64,
    /// This round's message length per sender, and whether it has landed.
    len: Vec<u64>,
    landed: Vec<bool>,
    next_tag: u64,
    msg: Vec<u8>,
    /// Events and ops/s of the sequential repetitions (for the shadow run).
    rep0_events: u64,
    ops_per_s: Vec<f64>,
}

impl Ring1k {
    fn round(
        &mut self,
        rng: &mut Rng,
        ph: &mut Phases,
        tr: &Trace,
        lat: &mut Vec<u64>,
    ) -> (u64, u64, u64) {
        let tag = self.next_tag;
        self.next_tag += 1;
        let n = self.n;

        let c = tr.clock();
        let t0 = now(&self.w);
        for i in 0..n {
            self.len[i] = self.max_len - rng.below(256);
            self.landed[i] = false;
            submit(&mut self.w, &self.mesh, i, self.seed, tag, self.len[i]);
        }
        lap(c, &mut ph.submit);

        let (mut ok, mut broken, mut bytes, mut send_done) = (0u64, 0u64, 0u64, 0usize);
        let cq = self.mesh.cq;
        loop {
            let c = tr.clock();
            let outcome = run_until(&mut self.w, |w| cq_len(w, cq) > 0);
            lap(c, &mut ph.run);
            match outcome {
                RunOutcome::Satisfied => {}
                RunOutcome::Quiescent => break,
                RunOutcome::BudgetExhausted => panic!("ring_1k: the model livelocked"),
            }
            let at = (now(&self.w) - t0).nanos();
            loop {
                let c = tr.clock();
                let entry = cq_pop(&mut self.w, cq);
                lap(c, &mut ph.drain);
                let Some(entry) = entry else { break };
                let c = tr.clock();
                match entry.event {
                    TransportEvent::SendDone { .. } => send_done += 1,
                    TransportEvent::RecvDone { tag: got, len, .. } => {
                        let me = entry.ep.node.0 as usize;
                        let from = (me + n - 1) % n;
                        let l = len.min(MAX_LEN) as usize;
                        kread(
                            &self.w,
                            entry.ep.node,
                            self.mesh.recv[me].addr,
                            &mut self.msg[..l],
                        );
                        let good = !self.landed[from]
                            && got == tag
                            && len == self.len[from]
                            && self.msg[..HEADER] == header(self.seed, tag, from)
                            && self.msg[HEADER..l] == self.body[HEADER..l];
                        self.landed[from] = true;
                        if good {
                            ok += 1;
                            bytes += len;
                            lat.push(at);
                        } else {
                            broken += 1;
                        }
                    }
                    other => panic!("ring_1k: the queue held {other:?}"),
                }
                lap(c, &mut ph.verify);
            }
        }
        assert_eq!(send_done, n, "every send completes exactly once");
        broken += self.landed.iter().filter(|l| !**l).count() as u64;
        (ok, broken, bytes)
    }

    /// The same set-up and first repetition on the 2-shard engine.
    fn shadow(&self, layer: &mut LayerValues, violations: &mut Vec<String>) {
        let (n, seed, max_len) = (self.n, self.seed, self.max_len);
        let mut s = builder(n).build_sharded(2);
        let body = self.body.clone();
        let mesh = s.setup(move |w| build_mesh(w, n, &body));
        let mut received = vec![0u64; n];
        let mut next_tag = 1u64;
        let mut batch: Vec<CqEntry> = Vec::new();
        let mut round = |s: &mut ShardedCluster, rng: &mut Rng, next_tag: &mut u64| {
            let tag = *next_tag;
            *next_tag += 1;
            for i in 0..n {
                let len = max_len - rng.below(256);
                s.on(i as u32, |w| submit(w, &mesh, i, seed, tag, len));
            }
            s.run_to_quiescence();
            for (i, got) in received.iter_mut().enumerate() {
                let ep = mesh.eps[i];
                *got += s.on(i as u32, |w| {
                    w.take_events(ep, usize::MAX, &mut batch);
                    batch
                        .iter()
                        .filter(|e| matches!(e.event, TransportEvent::RecvDone { .. }))
                        .count() as u64
                });
            }
        };
        let mut warm = Rng::stream(seed, u64::MAX);
        for _ in 0..WARMUP_ROUNDS {
            round(&mut s, &mut warm, &mut next_tag);
        }
        let events0 = s.executed();
        let mut rng = Rng::stream(seed, 0);
        let t = Instant::now();
        for _ in 0..self.rounds {
            round(&mut s, &mut rng, &mut next_tag);
        }
        let wall = t.elapsed().as_secs_f64();
        let events = s.executed() - events0;
        let (eng, _) = s.engine_stats();

        let ops = self.rounds * n as u64;
        let equal = events == self.rep0_events;
        if !equal {
            violations.push(format!(
                "2-shard shadow executed {events} events, sequential {}",
                self.rep0_events
            ));
        }
        let expect = self.rounds + WARMUP_ROUNDS;
        if received.iter().any(|&r| r != expect) {
            violations.push("2-shard shadow lost or duplicated a delivery".into());
        }
        if eng.errors != 0 {
            violations.push(format!(
                "2-shard shadow recorded {} engine errors",
                eng.errors
            ));
        }
        let sharded_ops_per_s = ops as f64 / wall;
        layer.set("simcore.shard2_ops_per_s", sharded_ops_per_s);
        layer.set(
            "simcore.shard2_speedup",
            sharded_ops_per_s / host::median(&mut self.ops_per_s.clone()),
        );
        layer.set("simcore.shard2_epochs", eng.epochs as f64);
        layer.set(
            "simcore.shard2_mailbox_injected",
            eng.mailbox_injected as f64,
        );
        layer.set("simcore.shard2_events_equal", f64::from(u8::from(equal)));
    }
}

const WARMUP_ROUNDS: u64 = 2;

impl Workload for Ring1k {
    const NAME: &'static str = "ring_1k";
    const LOSSLESS: bool = true;
    const SUBMIT_METRIC: &'static str = "core.submit_ns_per_op";

    fn setup(seed: u64, scale: u32, tr: &mut Trace) -> Self {
        let n = scaled(1000, scale, 16) as usize;
        let mut body = vec![0u8; MAX_LEN as usize];
        fill_pattern(&mut body, seed);
        let mut w = builder(n).build();
        let mesh = build_mesh(&mut w, n, &body);
        let mut wl = Ring1k {
            w,
            seed,
            scale,
            n,
            rounds: scaled(80, scale, 4),
            mesh,
            body,
            max_len: max_len(seed),
            len: vec![0; n],
            landed: vec![false; n],
            next_tag: 1,
            msg: vec![0; MAX_LEN as usize],
            rep0_events: 0,
            ops_per_s: Vec::new(),
        };
        let mut rng = Rng::stream(seed, u64::MAX);
        for _ in 0..WARMUP_ROUNDS {
            let (_, broken, _) = wl.round(&mut rng, &mut Phases::default(), tr, &mut Vec::new());
            assert_eq!(broken, 0, "ring_1k: warm-up round broke");
        }
        wl
    }

    fn rep(&mut self, rep: u32, tr: &mut Trace, lat_ns: &mut Vec<u64>) -> Rep {
        let mut rng = Rng::stream(self.seed, u64::from(rep));
        let before = snapshot(&self.w);
        let v0 = now(&self.w);
        let mut ph = Phases::default();
        let (mut ok, mut broken, mut bytes) = (0, 0, 0);
        let t = Instant::now();
        for _ in 0..self.rounds {
            let (o, b, y) = self.round(&mut rng, &mut ph, tr, lat_ns);
            ok += o;
            broken += b;
            bytes += y;
        }
        let wall = t.elapsed();
        let attempted = self.rounds * self.n as u64;
        ph.record(tr, attempted);
        let mut counters = Counters::default();
        counters.add_delta(&before, &snapshot(&self.w));
        if rep == 0 {
            self.rep0_events = counters[C::engine_events];
        }
        self.ops_per_s.push(attempted as f64 / wall.as_secs_f64());
        Rep {
            attempted,
            ok,
            broken,
            payload_bytes: bytes,
            virt_span_ns: (now(&self.w) - v0).nanos(),
            wall,
            counters,
            setup: None,
        }
    }

    fn nodes(&self) -> usize {
        self.n
    }

    fn finish(&mut self, tr: &mut Trace, layer: &mut LayerValues, violations: &mut Vec<String>) {
        if cq_len(&self.w, self.mesh.cq) != 0 {
            violations.push("entries left on the completion queue".into());
        }
        if tr.on() && self.scale == 100 {
            let span = tr.enter("shadow");
            self.shadow(layer, violations);
            tr.exit(span);
        }
    }
}
