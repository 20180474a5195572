//! The typed RPC layer and its tentpole consumer, measured.
//!
//! Two claims get numbers here, both in deterministic virtual time:
//!
//! * **Echo latency** — p50/p99 round-trip latency of `rpc_call` over MX
//!   for payloads across the eager window (small, medium, and just under
//!   the rendezvous cutoff), across a packet-loss ladder. The
//!   retry machinery is part of the measurement: at every surveyed loss
//!   rate each call must still *resolve successfully*, so the p99 column
//!   is exactly the price of the recovery schedule (attempt timers,
//!   backoff), not of abandoned calls.
//! * **Failover blackout** — the replicated KV store's write-availability
//!   gap when the primary's node is killed mid-workload: virtual time
//!   from the kill instant to (a) the backup's promotion and (b) the
//!   first write acked by the promoted primary, per loss rate. The
//!   chaos-suite invariants (every op resolves typed, linearizability
//!   check clean, zero engine errors) gate every rung.
//!
//! Results go to `BENCH_rpc.json`. Scale knobs (env): `RPC_CALLS`
//! (default 400 echo calls per point), `RPC_KV_PUTS` (default 120 writes
//! per failover rung), `RPC_OUT` (output path — CI's smoke job points it
//! at `BENCH_rpc.smoke.json` with the counts turned down).

use std::sync::{Arc, Mutex};

use knet::prelude::*;
use knet::ClusterEv;
use knet_bench::{env_u64, write_report};
use knet_simnic::FaultPlan;

struct Config {
    calls: usize,
    kv_puts: usize,
}

impl Config {
    fn from_env() -> Self {
        Config {
            calls: env_u64("RPC_CALLS", 400).max(32) as usize,
            kv_puts: env_u64("RPC_KV_PUTS", 120).max(40) as usize,
        }
    }
}

/// Payload sizes across the MX eager window: small (<128 B), medium, and
/// just under the 32 kB rendezvous cutoff. Requests ride the unexpected-
/// message (eager) path into the server, so the cutoff is also the RPC
/// request envelope — the large-message rendezvous protocol stays a
/// channel-layer affair.
const SIZES: &[u64] = &[64, 1024, 32_000];
const LOSS_PCTS: &[u64] = &[0, 1, 5, 10];

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

// ---------------------------------------------------------------- echo

struct EchoPoint {
    payload: u64,
    loss_pct: u64,
    calls: usize,
    pace_us: u64,
    p50_us: f64,
    p99_us: f64,
    retries: u64,
}

/// One (payload, loss) point: paced calls against an MX echo server, every
/// completion stamped in the sink (quiescence keeps draining stale timers
/// past the last resolution, so final `now()` is useless for latency).
fn echo_point(cfg: &Config, payload: u64, loss_pct: u64, seed: u64) -> EchoPoint {
    let mut w = ClusterBuilder::new()
        .nodes(2, CpuModel::xeon_2600())
        .mem_frames(32_768)
        .fault_plan(FaultPlan::new(seed).with_drop(loss_pct as f64 / 100.0))
        .build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let sep = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    let cep = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    rpc_server_create(
        &mut w,
        sep,
        "echo",
        RpcServerConfig::default(),
        |_w, _req, payload, resp| {
            resp.extend_from_slice(payload);
            RpcOutcome::Reply
        },
        |_w, _node| {},
    )
    .unwrap();

    // Completions stamped and collected in the sink so the 64-slot window
    // recycles under the paced load.
    type DoneRec = Arc<Mutex<Vec<(RpcCall, u64, bool)>>>;
    let done: DoneRec = Default::default();
    let on_done: RpcSinkFn<ClusterWorld> = {
        let d = done.clone();
        Arc::new(move |w: &mut ClusterWorld, comp: RpcCompletion| {
            let t = now(w).nanos();
            let ok = comp.result.is_ok();
            if ok {
                let mut scratch = Vec::new();
                rpc_collect(w, comp.client, comp.call, &mut scratch);
            }
            d.lock().unwrap().push((comp.call, t, ok));
        })
    };
    let ccfg = RpcClientConfig {
        req_cap: payload + 128,
        resp_cap: payload + 128,
        policy: RetryPolicy {
            max_attempts: 6,
            attempt_timeout: SimTime::from_millis(2),
            ..Default::default()
        },
        ..Default::default()
    };
    let cid = rpc_client_create(&mut w, cep, sep, "bench", on_done, ccfg).unwrap();

    // Pace calls below the window's service rate: ~16 ns/byte of eager
    // serialization means a 32 kB echo takes ~0.5 ms, so the inter-call
    // gap scales with the payload. Latency stays a property of one call,
    // not of a queue the bench itself built.
    let pace_us = 50 + payload / 50;
    let submits: Arc<Mutex<Vec<(RpcCall, u64)>>> = Default::default();
    let body: Vec<u8> = (0..payload).map(|i| (i % 251) as u8).collect();
    for i in 0..cfg.calls {
        let t = SimTime::from_micros(pace_us * (i as u64 + 1));
        let s = submits.clone();
        let body = body.clone();
        knet_simcore::emit_at(
            &mut w,
            0,
            t,
            ClusterEv::Call(Box::new(move |w: &mut ClusterWorld| {
                let at = now(w).nanos();
                if let Ok(call) = rpc_call(w, cid, 1, &body, RpcCallOpts::default()) {
                    s.lock().unwrap().push((call, at));
                }
            })),
        );
    }
    run_to_quiescence(&mut w);

    let submits = submits.lock().unwrap().clone();
    let done = done.lock().unwrap().clone();
    assert_eq!(
        submits.len(),
        cfg.calls,
        "payload={payload} loss={loss_pct}%: every paced call must submit"
    );
    assert_eq!(done.len(), cfg.calls, "every call resolves exactly once");
    assert!(
        done.iter().all(|&(_, _, ok)| ok),
        "payload={payload} loss={loss_pct}%: survivable loss must not fail calls"
    );
    assert_eq!(w.stats().engine.errors, 0);

    let mut lat_ns: Vec<u64> = done
        .iter()
        .map(|&(call, t_done, _)| {
            let t_sub = submits
                .iter()
                .find(|&&(c, _)| c == call)
                .map(|&(_, t)| t)
                .expect("completion for an unknown call");
            t_done - t_sub
        })
        .collect();
    lat_ns.sort_unstable();
    EchoPoint {
        payload,
        loss_pct,
        calls: cfg.calls,
        pace_us,
        p50_us: percentile_us(&lat_ns, 0.50),
        p99_us: percentile_us(&lat_ns, 0.99),
        retries: rpc_client_stats(&w, cid).retries,
    }
}

// ---------------------------------------------------------------- failover

struct FailoverPoint {
    loss_pct: u64,
    puts: usize,
    promotion_us: f64,
    blackout_us: f64,
    acks: u64,
    failures: u64,
    reissues: u64,
}

/// One failover rung: the kv_chaos fixture (replica A on node 0, B on
/// node 1, client on node 2), primary killed at 1 ms into a paced write
/// workload. The run_until predicate samples the KV counters at every
/// event boundary to stamp the promotion and the first post-kill ack.
fn failover_point(cfg: &Config, loss_pct: u64, seed: u64) -> FailoverPoint {
    let kill_at = SimTime::from_millis(1);
    let plan = FaultPlan::new(seed)
        .with_drop(loss_pct as f64 / 100.0)
        .with_kill(NodeId(0), kill_at);
    let mut w = ClusterBuilder::new()
        .nodes(3, CpuModel::xeon_2600())
        .fault_plan(plan)
        .build();
    let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
    let ep = |w: &mut ClusterWorld, n| w.open_mx(n, MxEndpointConfig::kernel()).unwrap();

    let a_srv = ep(&mut w, n0);
    let b_srv = ep(&mut w, n1);
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
    let a_repl = ep(&mut w, n0);
    let b_repl = ep(&mut w, n1);
    kv_pair(&mut w, r0, a_repl, r1, b_repl, rpc_cfg);
    kv_add_shards(&mut w, 4, r0, Some(r1));
    let c0 = ep(&mut w, n2);
    let c1 = ep(&mut w, n2);
    let client = kv_client_create(&mut w, &[c0, c1], rpc_cfg);

    // Paced writes, every value unique, one each 50 µs.
    for i in 0..cfg.kv_puts {
        let t = SimTime::from_micros(50 * (i as u64 + 1));
        let key = format!("key-{}", i % 8).into_bytes();
        let val = format!("val-{i:04}").into_bytes();
        knet_simcore::emit_at(
            &mut w,
            2,
            t,
            ClusterEv::Call(Box::new(move |w: &mut ClusterWorld| {
                kv_put(w, client, &key, &val, None);
            })),
        );
    }

    // Track the blackout edges at every event boundary.
    let (mut acks_at_kill, mut promoted_at, mut first_ack_after) =
        (None::<u64>, None::<SimTime>, None::<SimTime>);
    let _ = run_until(&mut w, |w: &ClusterWorld| {
        let st = w.kv.stats;
        if acks_at_kill.is_none() && now(w) >= kill_at {
            acks_at_kill = Some(st.acks);
        }
        if promoted_at.is_none() && st.promotions >= 1 {
            promoted_at = Some(now(w));
        }
        if let (Some(base), Some(_), None) = (acks_at_kill, promoted_at, first_ack_after) {
            if st.acks > base {
                first_ack_after = Some(now(w));
            }
        }
        false
    });

    // The chaos-suite invariants gate the measurement.
    let label = format!("failover loss={loss_pct}%");
    assert_eq!(w.kv.outstanding_ops(), 0, "{label}: nothing hangs");
    let violations = kv_check(&w);
    assert!(
        violations.is_empty(),
        "{label}: linearizability-lite violations:\n{}",
        violations.join("\n")
    );
    assert_eq!(w.stats().engine.errors, 0, "{label}: engine errors");
    assert!(w.kv.stats.promotions >= 1, "{label}: backup must promote");
    let promoted_at = promoted_at.expect("promotion observed");
    let first_ack_after = first_ack_after
        .unwrap_or_else(|| panic!("{label}: no write ever acked by the promoted primary"));

    FailoverPoint {
        loss_pct,
        puts: cfg.kv_puts,
        promotion_us: (promoted_at - kill_at).secs() * 1e6,
        blackout_us: (first_ack_after - kill_at).secs() * 1e6,
        acks: w.kv.stats.acks,
        failures: w.kv.stats.failures,
        reissues: w.kv.stats.reissues,
    }
}

// ---------------------------------------------------------------- main

fn main() {
    let cfg = Config::from_env();
    eprintln!("rpc: calls={} kv_puts={}", cfg.calls, cfg.kv_puts);

    let mut echo = Vec::new();
    for &payload in SIZES {
        for &loss in LOSS_PCTS {
            let p = echo_point(&cfg, payload, loss, 0xEC40 ^ (payload << 8) ^ loss);
            eprintln!(
                "echo payload={:6} loss={:2}%: p50 {:8.1} µs  p99 {:8.1} µs  retries {}",
                p.payload, p.loss_pct, p.p50_us, p.p99_us, p.retries
            );
            echo.push(p);
        }
    }

    let mut failover = Vec::new();
    for &loss in LOSS_PCTS {
        let p = failover_point(&cfg, loss, 0xFA11 ^ (loss << 4));
        eprintln!(
            "failover loss={:2}%: promotion {:8.1} µs  blackout {:8.1} µs  acks {}  failures {}  reissues {}",
            p.loss_pct, p.promotion_us, p.blackout_us, p.acks, p.failures, p.reissues
        );
        failover.push(p);
    }

    // Sanity on the headline shape: lossless p99 must sit far below the
    // first retry timer (a clean fabric never waits on the recovery
    // schedule), and every blackout stays far below the ~10 ms that nine
    // backed-off link rounds took to declare the primary dead: liveness
    // probes find it at RTT scale, and what remains is the client's one
    // 2 ms attempt timer.
    let clean_p99 = echo
        .iter()
        .filter(|p| p.loss_pct == 0)
        .map(|p| p.p99_us)
        .fold(0.0f64, f64::max);
    assert!(
        clean_p99 < 2_000.0,
        "lossless p99 ({clean_p99} µs) crossed the 2 ms attempt timer — \
         clean-fabric calls must never ride the retry schedule"
    );
    // A lone loss is repaired at RTT scale: at 1 % loss no small or
    // medium echo in the tail waits out the retransmit timer's floor.
    let min_rto_us = knet_simnic::rel::MIN_RTO.secs() * 1e6;
    for p in echo.iter().filter(|p| p.loss_pct == 1 && p.payload <= 1024) {
        assert!(
            p.p99_us < p.p50_us + min_rto_us,
            "payload={} at 1% loss: p99 {} µs ≥ p50 {} µs + the {min_rto_us} µs \
             RTO floor — a lone loss waited out the timer",
            p.payload,
            p.p99_us,
            p.p50_us
        );
    }
    for p in &failover {
        assert!(
            p.blackout_us < 5_000.0,
            "blackout at loss={}% ({} µs) — failure detection is timer-bound again",
            p.loss_pct,
            p.blackout_us
        );
    }

    // ---- JSON emit (hand-rolled; the workspace is offline) ----
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"rpc\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"calls\": {}, \"kv_puts\": {}, \"transport\": \"mx\", \"retry\": {{\"max_attempts\": 6, \"attempt_timeout_ms\": 2}}}},\n",
        cfg.calls, cfg.kv_puts
    ));
    json.push_str("  \"unit\": \"virtual-time microseconds\",\n");
    json.push_str("  \"echo\": [\n");
    let body: Vec<String> = echo
        .iter()
        .map(|p| {
            format!(
                "    {{\"payload\": {}, \"loss_pct\": {}, \"calls\": {}, \"pace_us\": {}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"retries\": {}}}",
                p.payload, p.loss_pct, p.calls, p.pace_us, p.p50_us, p.p99_us, p.retries
            )
        })
        .collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str("  \"failover\": [\n");
    let body: Vec<String> = failover
        .iter()
        .map(|p| {
            format!(
                "    {{\"loss_pct\": {}, \"puts\": {}, \"kill_ms\": 1, \"promotion_us\": {:.2}, \"blackout_us\": {:.2}, \"acks\": {}, \"failures\": {}, \"reissues\": {}}}",
                p.loss_pct, p.puts, p.promotion_us, p.blackout_us, p.acks, p.failures, p.reissues
            )
        })
        .collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  ]\n}\n");

    write_report("RPC_OUT", "BENCH_rpc.json", &json);
}
