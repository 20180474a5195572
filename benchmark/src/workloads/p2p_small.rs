//! `p2p_small` — the paper's per-message API cost at the smallest size.
//!
//! Closed loop, one message outstanding per pair per round. Two PCI-XD
//! nodes, 1024 channel pairs (even pairs GM kernel ports with the physical
//! API, odd pairs MX kernel endpoints) on two shared completion queues, one
//! per node. Each round every pair sends one small kernel-buffer message;
//! the driver pops each `RecvDone` the moment the receive queue holds one.
//! Lossless, unthrottled, no file or RPC layer: what is left is channel,
//! registry, driver and scheduler cost per message.
//!
//! The seed sets the submit order of each round, each message's length
//! (49..=64 B) and every payload byte, so it reaches the virtual clock.

use std::time::Instant;

use crate::metrics::LayerValues;
use crate::probe::*;
use crate::trace::Trace;
use crate::workloads::{check_pattern, fill_pattern, lap, scaled, Phases, Rep, Rng, Workload};

const MAX_LEN: u64 = 64;

struct Pair {
    a: Endpoint,
    ch_a: ChannelId,
    ch_b: ChannelId,
    ka: KBuf,
    kb: KBuf,
    /// This round's message: payload key and length, and whether its
    /// `RecvDone` has been popped.
    key: u64,
    len: u64,
    landed: bool,
}

pub struct P2pSmall {
    w: ClusterWorld,
    seed: u64,
    rounds: u64,
    pairs: Vec<Pair>,
    cq0: CqId,
    cq1: CqId,
    /// Receiving endpoint → pair, one table per transport.
    pair_of_gm: Vec<u32>,
    pair_of_mx: Vec<u32>,
    order: Vec<u32>,
    next_tag: u64,
    batch: Vec<CqEntry>,
}

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);

impl P2pSmall {
    /// One round; returns (ops ok, ops broken, payload bytes).
    fn round(
        &mut self,
        rng: &mut Rng,
        ph: &mut Phases,
        tr: &Trace,
        lat: &mut Vec<u64>,
    ) -> (u64, u64, u64) {
        let tag = self.next_tag;
        self.next_tag += 1;
        rng.shuffle(&mut self.order);
        let mut msg = [0u8; MAX_LEN as usize];

        let c = tr.clock();
        let t0 = now(&self.w);
        for &i in &self.order {
            let p = &mut self.pairs[i as usize];
            p.len = MAX_LEN - rng.below(16);
            p.key = self.seed ^ (tag << 20) ^ u64::from(i);
            p.landed = false;
            let (ch_a, ch_b, ka, kb, len) = (p.ch_a, p.ch_b, p.ka, p.kb, p.len);
            fill_pattern(&mut msg[..len as usize], p.key);
            kwrite(&mut self.w, N0, ka.addr, &msg[..len as usize]);
            channel_post_recv(&mut self.w, ch_b, tag, kb.iov(MAX_LEN)).expect("post recv");
            channel_send(&mut self.w, ch_a, tag, ka.iov(len)).expect("send");
        }
        lap(c, &mut ph.submit);

        let (mut ok, mut broken, mut bytes) = (0u64, 0u64, 0u64);
        let cq1 = self.cq1;
        loop {
            let c = tr.clock();
            let outcome = run_until(&mut self.w, |w| cq_len(w, cq1) > 0);
            lap(c, &mut ph.run);
            match outcome {
                RunOutcome::Satisfied => {}
                RunOutcome::Quiescent => break,
                RunOutcome::BudgetExhausted => panic!("p2p_small: the model livelocked"),
            }
            let at = (now(&self.w) - t0).nanos();
            loop {
                let c = tr.clock();
                let entry = cq_pop(&mut self.w, cq1);
                lap(c, &mut ph.drain);
                let Some(entry) = entry else { break };
                let c = tr.clock();
                let TransportEvent::RecvDone { tag: got, len, .. } = entry.event else {
                    panic!("p2p_small: the receive side saw {:?}", entry.event);
                };
                let table = match entry.ep.kind {
                    TransportKind::Gm => &self.pair_of_gm,
                    TransportKind::Mx => &self.pair_of_mx,
                };
                let p = &mut self.pairs[table[entry.ep.idx as usize] as usize];
                kread(
                    &self.w,
                    N1,
                    p.kb.addr,
                    &mut msg[..len.min(MAX_LEN) as usize],
                );
                let good = !p.landed
                    && got == tag
                    && len == p.len
                    && check_pattern(&msg[..len as usize], p.key);
                p.landed = true;
                if good {
                    ok += 1;
                    bytes += len;
                    lat.push(at);
                } else {
                    broken += 1;
                }
                lap(c, &mut ph.verify);
            }
        }

        // The send side: exactly one SendDone per pair.
        let c = tr.clock();
        let mut send_done = 0usize;
        for p in &self.pairs {
            self.w.take_events(p.a, usize::MAX, &mut self.batch);
            send_done += self
                .batch
                .iter()
                .filter(|e| matches!(e.event, TransportEvent::SendDone { .. }))
                .count();
        }
        lap(c, &mut ph.drain);
        assert_eq!(
            send_done,
            self.pairs.len(),
            "every send completes exactly once"
        );
        broken += self.pairs.iter().filter(|p| !p.landed).count() as u64;
        (ok, broken, bytes)
    }
}

impl Workload for P2pSmall {
    const NAME: &'static str = "p2p_small";
    const LOSSLESS: bool = true;
    const SUBMIT_METRIC: &'static str = "core.submit_ns_per_op";

    fn setup(seed: u64, scale: u32, tr: &mut Trace) -> Self {
        let n_pairs = scaled(1024, scale, 8) as usize;
        let mut w = ClusterBuilder::new()
            .nodes(2, CpuModel::xeon_2600())
            .nic(NicModel::pci_xd())
            .mem_frames(16_384)
            .build();
        let cq0 = w.new_cq();
        let cq1 = w.new_cq();
        let mut pairs = Vec::with_capacity(n_pairs);
        let (mut pair_of_gm, mut pair_of_mx) = (Vec::new(), Vec::new());
        for i in 0..n_pairs {
            let (a, b) = if i % 2 == 0 {
                let cfg = GmPortConfig::kernel().with_physical_api();
                (
                    w.open_gm_cq(N0, cfg.clone(), cq0).expect("gm port"),
                    w.open_gm_cq(N1, cfg, cq1).expect("gm port"),
                )
            } else {
                (
                    w.open_mx_cq(N0, MxEndpointConfig::kernel(), cq0)
                        .expect("mx endpoint"),
                    w.open_mx_cq(N1, MxEndpointConfig::kernel(), cq1)
                        .expect("mx endpoint"),
                )
            };
            let table = match b.kind {
                TransportKind::Gm => &mut pair_of_gm,
                TransportKind::Mx => &mut pair_of_mx,
            };
            table.resize(b.idx as usize + 1, u32::MAX);
            table[b.idx as usize] = i as u32;
            let ka = kbuf(&mut w, N0, MAX_LEN);
            let kb = kbuf(&mut w, N1, MAX_LEN);
            pairs.push(Pair {
                a,
                ch_a: channel_connect(&mut w, a, b, cq0),
                ch_b: channel_connect(&mut w, b, a, cq1),
                ka,
                kb,
                key: 0,
                len: 0,
                landed: false,
            });
        }
        let mut wl = P2pSmall {
            w,
            seed,
            rounds: scaled(100, scale, 4),
            order: (0..n_pairs as u32).collect(),
            pairs,
            cq0,
            cq1,
            pair_of_gm,
            pair_of_mx,
            next_tag: 1,
            batch: Vec::new(),
        };
        // Warm-up: two rounds grow every pool to its high-water mark.
        let mut rng = Rng::stream(seed, u64::MAX);
        let mut lat = Vec::new();
        for _ in 0..2 {
            let (_, broken, _) = wl.round(&mut rng, &mut Phases::default(), tr, &mut lat);
            assert_eq!(broken, 0, "p2p_small: warm-up round broke");
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
        let attempted = self.rounds * self.pairs.len() as u64;
        ph.record(tr, attempted);
        let mut counters = Counters::default();
        counters.add_delta(&before, &snapshot(&self.w));
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
        2
    }

    fn finish(&mut self, _tr: &mut Trace, _layer: &mut LayerValues, violations: &mut Vec<String>) {
        for cq in [self.cq0, self.cq1] {
            if cq_len(&self.w, cq) != 0 {
                violations.push(format!("{} entries left on {cq:?}", cq_len(&self.w, cq)));
            }
        }
    }
}
