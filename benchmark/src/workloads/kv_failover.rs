//! `kv_failover` — the only workload where `knet-rpc` retry timers and
//! deadlines and `knet-kv` epoch fencing sit on the blocking path, and the
//! only one whose ops may be refused.
//!
//! Closed population, submits paced 50 µs apart in virtual time. One
//! primary/backup replica pair (nodes 0 and 1, four shards) and four KV
//! clients on two client nodes; 70 % gets, 30 % puts over 256 keys of about
//! 128 B values (110..=128 B, drawn from the seed); the fabric drops 1 % of all packets; the primary's node is
//! killed 40 % into the paced horizon. Every repetition builds a fresh
//! world with fault seed `seed + rep`, preloads the keys, and then runs its
//! ops. An op that resolves with a typed error (its primary died, its
//! retries ran out) is *refused* — it lowers `ok_share` — and is left out of
//! the latency figures; an op that never resolves, resolves twice, or
//! returns bytes nobody wrote is *broken* and fails the run, as does any
//! finding of `kv_check`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::host;
use crate::metrics::LayerValues;
use crate::probe::*;
use crate::trace::Trace;
use crate::workloads::{check_pattern, fill_pattern, scaled, Rep, Rng, Workload};

const KEYS: u64 = 256;
const VALUE: usize = 128;
const VALUE_MIN: usize = VALUE - 18;
const CLIENTS: usize = 4;
const PACE: SimTime = SimTime::from_micros(50);
/// The paced ops begin here; the preload has drained long before.
const OPS_BEGIN: SimTime = SimTime::from_millis(40);
const PRIMARY: NodeId = NodeId(0);

fn key_bytes(key: u64) -> Vec<u8> {
    format!("key-{key:03}").into_bytes()
}

/// A value names its key and version, then carries their pattern — so a
/// get can be checked without knowing which put it should observe.
fn value_bytes(key: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    fill_pattern(&mut v[16..], key << 32 | version);
    v
}

fn value_is_genuine(v: &[u8], key: u64) -> bool {
    if !(VALUE_MIN..=VALUE).contains(&v.len()) {
        return false;
    }
    let word = |i: usize| u64::from_le_bytes(v[i..i + 8].try_into().expect("8 bytes"));
    word(0) == key && check_pattern(&v[16..], key << 32 | word(8))
}

/// What the submit events record about each op, indexed by submit order.
#[derive(Clone, Copy)]
struct Issued {
    op: u64,
    at: SimTime,
    key: u64,
    /// Value bytes a put carries; `None` for a get.
    put: Option<usize>,
}

struct World {
    w: ClusterWorld,
    clients: Vec<KvClientId>,
    build: Duration,
}

pub struct KvFailover {
    seed: u64,
    ops: u64,
    /// The set-up world: repetition 0 runs on it, later ones build their own.
    first: Option<World>,
    get_ns: Vec<u64>,
    put_ns: Vec<u64>,
    promotion_ns: Vec<f64>,
    blackout_ns: Vec<f64>,
    findings: Vec<String>,
}

impl KvFailover {
    fn kill_at(&self) -> SimTime {
        OPS_BEGIN + SimTime::from_nanos(PACE.nanos() * self.ops * 2 / 5)
    }

    /// Build the deployment for one repetition and preload every key.
    fn build(&self, rep: u32) -> World {
        let t = Instant::now();
        let plan = FaultPlan::new(self.seed.wrapping_add(u64::from(rep)))
            .with_drop(0.01)
            .with_kill(PRIMARY, self.kill_at());
        let mut w = ClusterBuilder::new()
            .nodes(4, CpuModel::xeon_2600())
            .mem_frames(16_384)
            .fault_plan(plan)
            .build();
        let ep = |w: &mut ClusterWorld, n: u32| {
            w.open_mx(NodeId(n), MxEndpointConfig::kernel())
                .expect("mx endpoint")
        };
        let (a_srv, b_srv) = (ep(&mut w, 0), ep(&mut w, 1));
        let r0 = kv_replica_create(&mut w, a_srv, RpcServerConfig::default());
        let r1 = kv_replica_create(&mut w, b_srv, RpcServerConfig::default());
        let rpc_cfg = RpcClientConfig {
            policy: RetryPolicy {
                max_attempts: 4,
                attempt_timeout: SimTime::from_millis(2),
                ..Default::default()
            },
            ..Default::default()
        };
        let (a_repl, b_repl) = (ep(&mut w, 0), ep(&mut w, 1));
        kv_pair(&mut w, r0, a_repl, r1, b_repl, rpc_cfg);
        kv_add_shards(&mut w, 4, r0, Some(r1));
        let clients: Vec<KvClientId> = (0..CLIENTS)
            .map(|c| {
                let node = 2 + (c % 2) as u32;
                let eps = [ep(&mut w, node), ep(&mut w, node)];
                kv_client_create(&mut w, &eps, rpc_cfg)
            })
            .collect();

        // Preload: version 0 of every key, paced like the ops.
        for key in 0..KEYS {
            let client = clients[key as usize % CLIENTS];
            let at = SimTime::from_nanos(PACE.nanos() * (key + 1));
            emit_at(
                &mut w,
                2 + (key % 2) as u32,
                at,
                ClusterEv::Call(Box::new(move |w: &mut ClusterWorld| {
                    kv_put(
                        w,
                        client,
                        &key_bytes(key),
                        &value_bytes(key, 0, VALUE),
                        None,
                    );
                })),
            );
        }
        let outcome = run_until(&mut w, |w| now(w) >= OPS_BEGIN);
        assert!(
            outcome == RunOutcome::Quiescent && now(&w) < OPS_BEGIN && kv_outstanding(&w) == 0,
            "kv_failover: the preload did not drain before the ops begin"
        );
        let preloaded = kv_outcomes(&w).iter().filter(|o| o.result.is_ok()).count();
        assert_eq!(preloaded as u64, KEYS, "kv_failover: a preload put failed");
        World {
            w,
            clients,
            build: t.elapsed(),
        }
    }

    /// Schedule the paced ops, run the world dry, judge every outcome.
    fn drive(
        &mut self,
        rep: u32,
        world: World,
        tr: &mut Trace,
        lat: &mut Vec<u64>,
        keep: bool,
    ) -> Rep {
        let World {
            mut w,
            clients,
            build,
        } = world;
        let before = snapshot(&w);
        let preload_outcomes = kv_outcomes(&w).len();
        let mut rng = Rng::stream(self.seed, u64::from(rep));
        let issued: Arc<Mutex<Vec<Issued>>> =
            Arc::new(Mutex::new(Vec::with_capacity(self.ops as usize)));
        let submit_ns = Arc::new(AtomicU64::new(0));
        let traced = tr.on();

        let t = Instant::now();
        let mut versions = vec![0u64; KEYS as usize];
        // An uncontended get costs what its value's length costs, so the
        // median latency is a function of the length distribution alone:
        // the seed also draws the run's largest value.
        let ceiling = VALUE - Rng::stream(self.seed, 0x004C_454E).below(4) as usize;
        for i in 0..self.ops {
            let at = OPS_BEGIN + SimTime::from_nanos(PACE.nanos() * i);
            let client = clients[i as usize % CLIENTS];
            let key = rng.below(KEYS);
            let is_put = rng.below(10) < 3;
            let value = is_put.then(|| {
                versions[key as usize] += 1;
                value_bytes(
                    key,
                    versions[key as usize],
                    ceiling - rng.below(16) as usize,
                )
            });
            let put = value.as_ref().map(Vec::len);
            let (issued, submit_ns) = (issued.clone(), submit_ns.clone());
            emit_at(
                &mut w,
                2 + (i % 2) as u32,
                at,
                ClusterEv::Call(Box::new(move |w: &mut ClusterWorld| {
                    let c = traced.then(Instant::now);
                    let k = key_bytes(key);
                    let op = match &value {
                        Some(v) => kv_put(w, client, &k, v, None),
                        None => kv_get(w, client, &k, None),
                    };
                    if let Some(c) = c {
                        submit_ns.fetch_add(c.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                    issued
                        .lock()
                        .expect("submit events run one at a time")
                        .push(Issued {
                            op,
                            at: now(w),
                            key,
                            put,
                        });
                })),
            );
        }

        // Run dry, stamping every outcome and both blackout edges at the
        // event boundary they appear on.
        let kill_at = self.kill_at();
        let mut done_at: Vec<SimTime> = Vec::with_capacity(self.ops as usize);
        let (mut acks_at_kill, mut promoted_at, mut first_ack_after) = (None, None, None);
        let span = tr.enter("run");
        let outcome = run_until(&mut w, |w| {
            let resolved = kv_outcomes(w).len() - preload_outcomes;
            while done_at.len() < resolved {
                done_at.push(now(w));
            }
            let (promotions, acks) = kv_failover_edges(w);
            if acks_at_kill.is_none() && now(w) >= kill_at {
                acks_at_kill = Some(acks);
            }
            if promoted_at.is_none() && promotions >= 1 {
                promoted_at = Some(now(w));
            }
            if first_ack_after.is_none()
                && promoted_at.is_some()
                && acks_at_kill.is_some_and(|base| acks > base)
            {
                first_ack_after = Some(now(w));
            }
            false
        });
        tr.exit(span);
        assert_eq!(
            outcome,
            RunOutcome::Quiescent,
            "kv_failover: the model livelocked"
        );
        let resolved = kv_outcomes(&w).len() - preload_outcomes;
        done_at.resize(resolved, now(&w));
        tr.aggregate(
            "submit",
            Duration::from_nanos(submit_ns.load(Ordering::Relaxed)),
            self.ops,
        );

        // Judge the outcomes.
        let span = tr.enter("verify");
        let issued = issued.lock().expect("no submit event is running");
        let first_op = issued.first().map_or(0, |i| i.op);
        let mut seen = vec![false; issued.len()];
        let (mut ok, mut broken, mut bytes, mut last_done) = (0u64, 0u64, 0u64, OPS_BEGIN);
        for (o, &at) in kv_outcomes(&w)[preload_outcomes..].iter().zip(&done_at) {
            let Some(i) =
                o.op.checked_sub(first_op)
                    .map(|d| d as usize)
                    .filter(|&d| d < issued.len())
            else {
                broken += 1;
                continue;
            };
            let sub = issued[i];
            if seen[i] || sub.op != o.op || o.key != key_bytes(sub.key) {
                broken += 1;
                continue;
            }
            seen[i] = true;
            last_done = last_done.max(at);
            let moved = match &o.result {
                Ok(KvResult::Put { .. }) => sub.put,
                Ok(KvResult::Get {
                    found: true, val, ..
                }) if sub.put.is_none() && value_is_genuine(val, sub.key) => Some(val.len()),
                Ok(_) => None,
                Err(_) => continue, // refused, typed
            };
            if let Some(len) = moved {
                ok += 1;
                bytes += len as u64;
                let ns = (at - sub.at).nanos();
                lat.push(ns);
                if keep {
                    if sub.put.is_some() {
                        &mut self.put_ns
                    } else {
                        &mut self.get_ns
                    }
                    .push(ns);
                }
            } else {
                broken += 1;
            }
        }
        broken += seen.iter().filter(|s| !**s).count() as u64 + kv_outstanding(&w) as u64;
        if issued.len() as u64 != self.ops {
            broken += self.ops - issued.len() as u64;
        }
        let findings = kv_check(&w);
        broken += findings.len() as u64;
        self.findings.extend(findings);
        tr.exit(span);
        let wall = t.elapsed();

        if keep {
            if let Some(p) = promoted_at {
                self.promotion_ns.push((p - kill_at).nanos() as f64);
            }
            if let Some(a) = first_ack_after {
                self.blackout_ns.push((a - kill_at).nanos() as f64);
            }
        }
        let mut counters = Counters::default();
        counters.add_delta(&before, &snapshot(&w));
        Rep {
            attempted: self.ops,
            ok,
            broken,
            payload_bytes: bytes,
            virt_span_ns: (last_done - OPS_BEGIN).nanos(),
            wall,
            counters,
            setup: Some(build),
        }
    }
}

impl Workload for KvFailover {
    const NAME: &'static str = "kv_failover";
    const LOSSLESS: bool = false;
    const SUBMIT_METRIC: &'static str = "rpc.call_submit_ns";
    /// A repetition is 25 ms of host time and holds one failover: twenty of
    /// them, not five, steady the tail the blackout sets.
    const FIXED_REPS: u32 = 20;

    fn setup(seed: u64, scale: u32, _tr: &mut Trace) -> Self {
        let mut wl = KvFailover {
            seed,
            ops: scaled(4000, scale, 200),
            first: None,
            get_ns: Vec::new(),
            put_ns: Vec::new(),
            promotion_ns: Vec::new(),
            blackout_ns: Vec::new(),
            findings: Vec::new(),
        };
        wl.first = Some(wl.build(0));
        wl
    }

    fn rep(&mut self, rep: u32, tr: &mut Trace, lat_ns: &mut Vec<u64>) -> Rep {
        let world = match self.first.take() {
            Some(w) if rep == 0 => w,
            _ => self.build(rep),
        };
        let mut r = self.drive(rep, world, tr, lat_ns, rep < Self::FIXED_REPS);
        if rep == 0 {
            r.setup = None; // already timed as the run's set-up
        }
        r
    }

    fn nodes(&self) -> usize {
        4
    }

    fn finish(&mut self, _tr: &mut Trace, layer: &mut LayerValues, violations: &mut Vec<String>) {
        violations.extend(self.findings.drain(..).map(|f| format!("kv_check: {f}")));
        if self.promotion_ns.len() != Self::FIXED_REPS as usize {
            violations.push("a repetition never promoted the backup".into());
        }
        let median_us = |v: &mut Vec<f64>| {
            if v.is_empty() {
                0.0
            } else {
                host::median(v) / 1e3
            }
        };
        layer.set("kv.promotion_us", median_us(&mut self.promotion_ns));
        layer.set("kv.blackout_us", median_us(&mut self.blackout_ns));
        for (name, v) in [
            ("kv.get_p99_us", &mut self.get_ns),
            ("kv.put_p99_us", &mut self.put_ns),
        ] {
            v.sort_unstable();
            layer.set(
                name,
                host::percentile(v, host::tail_pct(v.len()).min(99.0)) as f64 / 1e3,
            );
        }
    }
}
