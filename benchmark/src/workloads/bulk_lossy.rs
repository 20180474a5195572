//! `bulk_lossy` — the opposite corner of the send path from `p2p_small`:
//! bytes and loss recovery decide the result, per-message API cost is noise.
//!
//! Closed loop, barrier-synchronised rounds. Seventeen PCI-XE nodes: sixteen
//! senders each answer the round with one 32 kB MX message to one receiver
//! at once, into posted receive buffers. The sixteen-way burst overflows the
//! receiver's 128 kB rx FIFO on its own (deterministic, self-inflicted
//! loss); on top of it the fabric drops 3 %, duplicates 0.5 % and delays
//! (so reorders) 0.5 % of all packets, dice seeded from `--seed`. The next
//! round starts the instant the last message of this one is delivered — the
//! fabric is not allowed to go quiet first, so recovery traffic of one round
//! overlaps the next. An op's latency runs from the round's start.

use std::time::Instant;

use crate::metrics::LayerValues;
use crate::probe::*;
use crate::trace::Trace;
use crate::workloads::{check_pattern, fill_pattern, lap, scaled, Phases, Rep, Workload};

const SENDERS: usize = 16;
const MSG: u64 = 32 * 1024;
const RECEIVER: NodeId = NodeId(0);

pub struct BulkLossy {
    w: ClusterWorld,
    seed: u64,
    rounds: u64,
    recv_ep: Endpoint,
    recv_ch: ChannelId,
    recv_bufs: Vec<KBuf>,
    /// Per sender: endpoint, channel to the receiver, staging buffer.
    senders: Vec<(Endpoint, ChannelId, KBuf)>,
    next_round: u64,
    msg: Vec<u8>,
    batch: Vec<CqEntry>,
}

impl BulkLossy {
    fn key(&self, round: u64, sender: usize) -> u64 {
        self.seed ^ (round << 8) ^ sender as u64
    }

    /// One round; returns (ops ok, ops broken, virtual ns until the last
    /// delivery).
    fn round(&mut self, ph: &mut Phases, tr: &Trace, lat: &mut Vec<u64>) -> (u64, u64, u64) {
        let round = self.next_round;
        self.next_round += 1;
        let tag = |sender: usize| (round << 8) | sender as u64;

        let c = tr.clock();
        let t0 = now(&self.w);
        for s in 0..SENDERS {
            let (_, ch, buf) = self.senders[s];
            let key = self.key(round, s);
            fill_pattern(&mut self.msg, key);
            kwrite(&mut self.w, buf.node, buf.addr, &self.msg);
            channel_post_recv(
                &mut self.w,
                self.recv_ch,
                tag(s),
                self.recv_bufs[s].iov(MSG),
            )
            .expect("post recv");
            channel_send(&mut self.w, ch, tag(s), buf.iov(MSG)).expect("send");
        }
        lap(c, &mut ph.submit);

        let (mut ok, mut broken, mut landed, mut last) = (0u64, 0u64, [false; SENDERS], 0u64);
        let recv_ep = self.recv_ep;
        while landed.iter().any(|l| !l) {
            let c = tr.clock();
            let outcome = run_until(&mut self.w, |w| w.has_event(recv_ep));
            lap(c, &mut ph.run);
            assert_eq!(
                outcome,
                RunOutcome::Satisfied,
                "bulk_lossy: round {round} stalled with {landed:?}"
            );
            last = (now(&self.w) - t0).nanos();
            loop {
                let c = tr.clock();
                let ev = self.w.take_event(recv_ep);
                lap(c, &mut ph.drain);
                let Some(ev) = ev else { break };
                let c = tr.clock();
                let TransportEvent::RecvDone { tag: got, len, .. } = ev else {
                    panic!("bulk_lossy: the receiver saw {ev:?}");
                };
                let s = (got & 0xff) as usize;
                let fresh = got == tag(s) && !landed[s];
                kread(&self.w, RECEIVER, self.recv_bufs[s].addr, &mut self.msg);
                if fresh && len == MSG && check_pattern(&self.msg, self.key(round, s)) {
                    ok += 1;
                    lat.push(last);
                } else {
                    broken += 1;
                }
                if fresh {
                    landed[s] = true;
                }
                lap(c, &mut ph.verify);
            }
        }
        (ok, broken, last)
    }

    /// Let the recovery traffic of the last round finish, then count the
    /// send completions: one per message, exactly.
    fn settle(&mut self, ph: &mut Phases, tr: &Trace, expect_per_sender: u64) -> u64 {
        let c = tr.clock();
        run_to_quiescence(&mut self.w);
        lap(c, &mut ph.run);
        let c = tr.clock();
        let mut broken = 0;
        for &(ep, _, _) in &self.senders {
            self.w.take_events(ep, usize::MAX, &mut self.batch);
            let done = self
                .batch
                .iter()
                .filter(|e| matches!(e.event, TransportEvent::SendDone { .. }))
                .count() as u64;
            broken += done.abs_diff(expect_per_sender) + (self.batch.len() as u64 - done);
        }
        lap(c, &mut ph.drain);
        broken
    }
}

impl Workload for BulkLossy {
    const NAME: &'static str = "bulk_lossy";
    const LOSSLESS: bool = false;
    const SUBMIT_METRIC: &'static str = "core.submit_ns_per_op";
    /// The tail is set by where the dice fall: nine repetitions, not five,
    /// steady the median of their p99s.
    const FIXED_REPS: u32 = 9;

    fn setup(seed: u64, scale: u32, tr: &mut Trace) -> Self {
        let plan = FaultPlan::new(seed)
            .with_drop(0.03)
            .with_dup(0.005)
            .with_delay(0.005, SimTime::from_micros(5), SimTime::from_micros(50));
        let mut w = ClusterBuilder::new()
            .nodes(SENDERS + 1, CpuModel::xeon_2600())
            .nic(NicModel::pci_xe())
            .mem_frames(4096)
            .fault_plan(plan)
            .build();
        let rcq = w.new_cq();
        let recv_ep = w
            .open_mx_cq(RECEIVER, MxEndpointConfig::kernel(), rcq)
            .expect("mx endpoint");
        let recv_ch = channel_accept(&mut w, recv_ep, rcq);
        let recv_bufs = (0..SENDERS).map(|_| kbuf(&mut w, RECEIVER, MSG)).collect();
        let senders = (1..=SENDERS)
            .map(|i| {
                let node = NodeId(i as u32);
                let cq = w.new_cq();
                let ep = w
                    .open_mx_cq(node, MxEndpointConfig::kernel(), cq)
                    .expect("mx endpoint");
                (
                    ep,
                    channel_connect(&mut w, ep, recv_ep, cq),
                    kbuf(&mut w, node, MSG),
                )
            })
            .collect();
        let mut wl = BulkLossy {
            w,
            seed,
            rounds: scaled(300, scale, 3),
            recv_ep,
            recv_ch,
            recv_bufs,
            senders,
            next_round: 0,
            msg: vec![0; MSG as usize],
            batch: Vec::new(),
        };
        // Warm-up: windows, estimators and pools reach their working state.
        let mut ph = Phases::default();
        for _ in 0..3 {
            let (_, broken, _) = wl.round(&mut ph, tr, &mut Vec::new());
            assert_eq!(broken, 0, "bulk_lossy: warm-up round broke");
        }
        assert_eq!(
            wl.settle(&mut ph, tr, 3),
            0,
            "bulk_lossy: warm-up sends unresolved"
        );
        wl
    }

    fn rep(&mut self, _rep: u32, tr: &mut Trace, lat_ns: &mut Vec<u64>) -> Rep {
        let before = snapshot(&self.w);
        let mut ph = Phases::default();
        let (mut ok, mut broken, mut span) = (0, 0, 0);
        let t = Instant::now();
        let v0 = now(&self.w);
        for _ in 0..self.rounds {
            let (o, b, last) = self.round(&mut ph, tr, lat_ns);
            ok += o;
            broken += b;
            span = (now(&self.w) - v0).nanos().max(last);
        }
        broken += self.settle(&mut ph, tr, self.rounds);
        let wall = t.elapsed();
        let attempted = self.rounds * SENDERS as u64;
        ph.record(tr, attempted);
        let mut counters = Counters::default();
        counters.add_delta(&before, &snapshot(&self.w));
        Rep {
            attempted,
            ok,
            broken,
            payload_bytes: ok * MSG,
            virt_span_ns: span,
            wall,
            counters,
            setup: None,
        }
    }

    fn nodes(&self) -> usize {
        SENDERS + 1
    }

    fn finish(&mut self, _tr: &mut Trace, _layer: &mut LayerValues, violations: &mut Vec<String>) {
        if self.w.has_event(self.recv_ep) {
            violations.push("deliveries left on the receiver's queue".into());
        }
    }
}
