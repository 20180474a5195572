//! RPC deadline semantics at the edges, plus the base round-trip contract.
//!
//! Deadlines are *absolute virtual-time* points carried on the wire. The
//! edges pinned here:
//!
//! * already expired at submit → typed `Deadline` through the normal
//!   completion path, zero wire traffic;
//! * expiring while the send sits in the channel's backpressure queue →
//!   the queued send is withdrawn (`channel_abort_queued_send`), the call
//!   resolves `Deadline`, nothing leaks;
//! * no caller deadline → the call resolves `Deadline` at submit +
//!   `CALL_HORIZON`, by the client's one horizon timer; a caller deadline
//!   shorter than that horizon wins;
//! * a proptest over randomized virtual-time schedules (deadlines, loss,
//!   payload sizes): every call resolves exactly once, engine error
//!   counter stays zero;
//! * the echo loss ladder: paced calls at three payloads and four loss
//!   rates all succeed, and their p50 / p99 match a pinned table.

use std::sync::{Arc, Mutex};

use knet::prelude::*;
use knet_simnic::FaultPlan;
use proptest::prelude::*;

/// (call, result, resolution virtual time in ns). Quiescence keeps
/// draining stale timers after the last resolution, so assertions about
/// *when* a call resolved must use the recorded stamp, not final `now()`.
type Done = Arc<Mutex<Vec<(RpcCall, Result<u64, RpcError>, u64)>>>;

fn sink_into(done: &Done) -> RpcSinkFn<ClusterWorld> {
    let d = done.clone();
    Arc::new(move |w: &mut ClusterWorld, comp: RpcCompletion| {
        let t = now(w).nanos();
        d.lock().unwrap().push((comp.call, comp.result, t));
    })
}

/// Echo server on `n1`, client on `n0`.
fn echo_pair(
    w: &mut ClusterWorld,
    n0: NodeId,
    n1: NodeId,
    ccfg: RpcClientConfig,
    done: &Done,
) -> (RpcClientId, RpcServerId) {
    let sep = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    let cep = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let sid = rpc_server_create(
        w,
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
    let cid = rpc_client_create(w, cep, sep, "cli", sink_into(done), ccfg).unwrap();
    (cid, sid)
}

/// A server that accepts requests and never answers them (defers and
/// leaks the token) — the client's timers are the only way out.
fn black_hole(w: &mut ClusterWorld, n1: NodeId) -> (Endpoint, RpcServerId) {
    let sep = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    let sid = rpc_server_create(
        w,
        sep,
        "blackhole",
        RpcServerConfig::default(),
        |_w, _req, _payload, _resp| RpcOutcome::Defer,
        |_w, _node| {},
    )
    .unwrap();
    (sep, sid)
}

#[test]
fn echo_roundtrip_completes_and_collects() {
    let (mut w, n0, n1) = knet::build::two_nodes();
    let done: Done = Default::default();
    let (cid, sid) = echo_pair(&mut w, n0, n1, RpcClientConfig::default(), &done);

    let call = rpc_call(&mut w, cid, 7, b"hello rpc", RpcCallOpts::default()).unwrap();
    run_to_quiescence(&mut w);

    let d = done.lock().unwrap().clone();
    assert_eq!(d.len(), 1, "exactly one completion");
    assert_eq!(d[0].0, call);
    assert_eq!(d[0].1, Ok(9));
    assert!(d[0].2 > 0, "resolution strictly after submit");

    let mut out = Vec::new();
    assert_eq!(rpc_collect(&mut w, cid, call, &mut out), Some(9));
    assert_eq!(&out, b"hello rpc");
    // Collect frees the slot: a second collect misses.
    assert_eq!(rpc_collect(&mut w, cid, call, &mut out), None);

    assert_eq!(rpc_server_stats(&w, sid).requests, 1);
    assert_eq!(rpc_client_stats(&w, cid).completed, 1);
    assert_eq!(w.stats().rpc.completed, 1);
    assert_eq!(w.stats().engine.errors, 0);
}

#[test]
fn expired_at_submit_resolves_typed_without_wire_traffic() {
    let (mut w, n0, n1) = knet::build::two_nodes();
    // Move virtual time forward so a deadline strictly in the past exists.
    knet_simcore::emit_after(
        &mut w,
        n0.0,
        SimTime::from_millis(5),
        ClusterEv_call(|_| {}),
    );
    run_to_quiescence(&mut w);

    let done: Done = Default::default();
    let (cid, sid) = echo_pair(&mut w, n0, n1, RpcClientConfig::default(), &done);

    let opts = RpcCallOpts {
        deadline: Some(SimTime::from_millis(1)), // long past
    };
    let call = rpc_call(&mut w, cid, 1, b"dead on arrival", opts).unwrap();
    run_to_quiescence(&mut w);

    let d = done.lock().unwrap().clone();
    assert_eq!(d.len(), 1);
    assert_eq!((d[0].0, d[0].1), (call, Err(RpcError::Deadline)));
    // The wire never saw it: the server never got a request.
    assert_eq!(rpc_server_stats(&w, sid).requests, 0);
    let cs = rpc_client_stats(&w, cid);
    assert_eq!(cs.expired_at_submit, 1);
    assert_eq!(cs.deadline_failures, 1);
    // The slot is free again: the window is not leaked.
    assert_eq!(w.rpc.clients[cid.0 as usize].outstanding(), 0);
}

/// Boxed cold-path event helper (test-only; keeps the imports small).
#[allow(non_snake_case)]
fn ClusterEv_call(f: impl FnOnce(&mut ClusterWorld) + Send + 'static) -> knet::ClusterEv {
    knet::ClusterEv::Call(Box::new(f))
}

#[test]
fn deadline_expiring_in_send_backpressure_queue_aborts_the_queued_send() {
    // GM is the transport with a bounded send-token pool; one token
    // serializes the wire, so a burst parks in the channel's
    // backpressure queue where the deadline can catch it.
    let mut w = ClusterBuilder::new()
        .gm_params(GmParams {
            send_tokens: 1,
            ..Default::default()
        })
        .build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let done: Done = Default::default();

    let gm_cfg = GmPortConfig::kernel()
        .with_physical_api()
        .with_regcache(4096);
    let sep = w.open_gm(n1, gm_cfg.clone()).unwrap();
    let cep = w.open_gm(n0, gm_cfg).unwrap();
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
    let ccfg = RpcClientConfig {
        window: 256,
        req_cap: 8192,
        ..Default::default()
    };
    let cid = rpc_client_create(&mut w, cep, sep, "cli", sink_into(&done), ccfg).unwrap();

    // The deadline is far shorter than the time the serialized queue
    // needs to drain 64 × 4 kB.
    let opts = RpcCallOpts {
        deadline: Some(SimTime::from_micros(120)),
    };
    let mut calls = Vec::new();
    for i in 0..64u64 {
        let payload = vec![i as u8; 4096];
        calls.push(rpc_call(&mut w, cid, 2, &payload, opts).unwrap());
    }
    run_to_quiescence(&mut w);

    let d = done.lock().unwrap().clone();
    assert_eq!(d.len(), calls.len(), "every call resolves exactly once");
    let deadline_failures = d
        .iter()
        .filter(|(_, r, _)| *r == Err(RpcError::Deadline))
        .count();
    assert!(
        deadline_failures > 0,
        "some calls must die in the backpressure queue"
    );
    let st = w.stats();
    assert!(
        st.registry.aborted_queued_sends > 0,
        "expired queued sends must be withdrawn, not left to transmit: {:?}",
        st
    );
    assert_eq!(st.engine.errors, 0);
    assert_eq!(w.rpc.clients[cid.0 as usize].outstanding(), 0);
}

#[test]
fn deadline_beats_slower_retry_schedule() {
    let (mut w, n0, n1) = knet::build::two_nodes();
    let done: Done = Default::default();
    let (sep, sid) = black_hole(&mut w, n1);
    let cep = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    // Horizon 18 ms; deadline 500 µs — the deadline must fire first.
    let cid = rpc_client_create(
        &mut w,
        cep,
        sep,
        "cli",
        sink_into(&done),
        RpcClientConfig::default(),
    )
    .unwrap();
    let opts = RpcCallOpts {
        deadline: Some(SimTime::from_micros(500)),
    };
    let call = rpc_call(&mut w, cid, 3, b"x", opts).unwrap();
    run_to_quiescence(&mut w);

    let d = done.lock().unwrap().clone();
    assert_eq!(d.len(), 1);
    assert_eq!((d[0].0, d[0].1), (call, Err(RpcError::Deadline)));
    assert_eq!(rpc_server_stats(&w, sid).requests, 1, "sent exactly once");
    assert_eq!(d[0].2, 500_000, "resolution exactly at the deadline");
}

/// Without a caller deadline, silence is bounded by the horizon and
/// nothing else: a call to a server that never answers is sent once and
/// resolves `Deadline` exactly at submit + `CALL_HORIZON`. A second call
/// submitted later re-arms the client's one horizon timer for its own
/// horizon, and a call with a caller deadline past the horizon runs to
/// that deadline instead.
#[test]
fn a_call_without_a_deadline_resolves_at_the_horizon() {
    let (mut w, n0, n1) = knet::build::two_nodes();
    let done: Done = Default::default();
    let (sep, sid) = black_hole(&mut w, n1);
    let cep = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let cid = rpc_client_create(
        &mut w,
        cep,
        sep,
        "cli",
        sink_into(&done),
        RpcClientConfig::default(),
    )
    .unwrap();
    let t0 = now(&w);
    let first = rpc_call(&mut w, cid, 3, b"x", RpcCallOpts::default()).unwrap();
    let late = SimTime::from_millis(5);
    let second: Arc<Mutex<Option<RpcCall>>> = Default::default();
    let slot = second.clone();
    knet_simcore::emit_at(
        &mut w,
        n0.0,
        t0 + late,
        ClusterEv_call(move |w| {
            *slot.lock().unwrap() =
                Some(rpc_call(w, cid, 3, b"y", RpcCallOpts::default()).unwrap());
        }),
    );
    let patient = t0 + SimTime::from_millis(50);
    let bounded = rpc_call(
        &mut w,
        cid,
        3,
        b"z",
        RpcCallOpts {
            deadline: Some(patient),
        },
    )
    .unwrap();
    run_to_quiescence(&mut w);

    let second = second.lock().unwrap().expect("second call submitted");
    let d = done.lock().unwrap().clone();
    let at = (t0 + CALL_HORIZON).nanos();
    assert_eq!(
        d,
        vec![
            (first, Err(RpcError::Deadline), at),
            (second, Err(RpcError::Deadline), at + late.nanos()),
            (bounded, Err(RpcError::Deadline), patient.nanos()),
        ],
        "each call resolves once, at its horizon or its own deadline"
    );
    assert_eq!(rpc_server_stats(&w, sid).requests, 3, "each sent once");
    assert_eq!(w.stats().rpc.retries, 0);
    assert_eq!(rpc_client_stats(&w, cid).deadline_failures, 3);
    assert_eq!(w.rpc.clients[cid.0 as usize].outstanding(), 0);
    assert_eq!(w.stats().engine.errors, 0);
}

#[test]
fn cancellation_is_typed_and_idempotent() {
    let (mut w, n0, n1) = knet::build::two_nodes();
    let done: Done = Default::default();
    let (sep, _) = black_hole(&mut w, n1);
    let cep = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let cid = rpc_client_create(
        &mut w,
        cep,
        sep,
        "cli",
        sink_into(&done),
        RpcClientConfig::default(),
    )
    .unwrap();
    let call = rpc_call(&mut w, cid, 4, b"will cancel", RpcCallOpts::default()).unwrap();
    assert!(rpc_cancel(&mut w, cid, call), "pending call cancels");
    assert!(!rpc_cancel(&mut w, cid, call), "second cancel is a no-op");
    run_to_quiescence(&mut w);

    let d = done.lock().unwrap().clone();
    assert_eq!(d.len(), 1);
    assert_eq!((d[0].0, d[0].1), (call, Err(RpcError::Cancelled)));
    assert_eq!(rpc_client_stats(&w, cid).cancelled, 1);
    assert_eq!(w.stats().engine.errors, 0);
}

/// Fault containment: a node's death is the business of the channels
/// connected to it and of nobody else. Two clients share node 0 — one
/// calls a live (slow) server on node 1, the other a server on node 2,
/// which is killed. When node 0's link to node 2 is declared dead, the
/// call toward node 2 fails typed; the call in flight to the live server
/// at that instant must not hear about it, and completes with its reply.
#[test]
fn a_call_in_flight_to_a_live_server_survives_another_nodes_death() {
    let mut w = ClusterBuilder::new()
        .nodes(3, CpuModel::xeon_2600())
        .fault_plan(FaultPlan::new(1).with_kill(NodeId(2), SimTime::from_micros(50)))
        .build();
    let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));

    // The live server answers 100 ms after the request arrived — long
    // after the reliability window has given up on node 2.
    let live_ep = w.open_mx(n1, MxEndpointConfig::kernel()).unwrap();
    rpc_server_create(
        &mut w,
        live_ep,
        "slow-but-alive",
        RpcServerConfig::default(),
        |w, req, _payload, _resp| {
            let answer = ClusterEv_call(move |w| {
                assert!(rpc_server_reply(w, req.server, req.token, Ok(b"alive")));
            });
            knet_simcore::emit_after(w, 1, SimTime::from_millis(100), answer);
            RpcOutcome::Defer
        },
        |_w, _node| {},
    )
    .unwrap();
    let (doomed_ep, _) = black_hole(&mut w, n2);

    // The live server answers past `CALL_HORIZON`, so both calls carry a
    // 1 s caller deadline: only a reply or a `PeerDown` can end them.
    let patient = RpcCallOpts {
        deadline: Some(SimTime::from_millis(1_000)),
    };
    let (live_done, doomed_done): (Done, Done) = Default::default();
    let live_cep = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let to_live = rpc_client_create(
        &mut w,
        live_cep,
        live_ep,
        "to-live",
        sink_into(&live_done),
        RpcClientConfig::default(),
    )
    .unwrap();
    let doomed_cep = w.open_mx(n0, MxEndpointConfig::kernel()).unwrap();
    let to_doomed = rpc_client_create(
        &mut w,
        doomed_cep,
        doomed_ep,
        "to-doomed",
        sink_into(&doomed_done),
        RpcClientConfig::default(),
    )
    .unwrap();

    let live_call = rpc_call(&mut w, to_live, 1, b"ping", patient).unwrap();
    // Submitted after the kill: the request is never acknowledged, node
    // 0's window toward node 2 exhausts its budget and declares it dead.
    let call_doomed = ClusterEv_call(move |w| {
        rpc_call(w, to_doomed, 1, b"anyone?", patient).unwrap();
    });
    knet_simcore::emit_after(&mut w, 0, SimTime::from_micros(100), call_doomed);
    run_to_quiescence(&mut w);

    let doomed = doomed_done.lock().unwrap().clone();
    assert_eq!(doomed.len(), 1);
    assert_eq!(doomed[0].1, Err(RpcError::PeerUnreachable));
    let link_declared_dead_at = doomed[0].2;

    let live = live_done.lock().unwrap().clone();
    assert_eq!(live.len(), 1, "exactly one completion");
    assert_eq!(
        (live[0].0, live[0].1),
        (live_call, Ok(5)),
        "the call to the live server was failed by another node's death"
    );
    assert!(
        live[0].2 > link_declared_dead_at,
        "the call was in flight when the link was declared dead"
    );
    let mut out = Vec::new();
    assert_eq!(rpc_collect(&mut w, to_live, live_call, &mut out), Some(5));
    assert_eq!(&out, b"alive");
    assert_eq!(w.stats().engine.errors, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized virtual-time schedules: mixed deadlines (some
    /// satisfiable, some not), mixed payload sizes, a lossy wire. The
    /// invariants: every call resolves exactly once with a typed result,
    /// `Ok` calls echo byte-exactly, the engine error counter stays zero,
    /// and the call window fully drains.
    #[test]
    fn every_call_resolves_exactly_once_under_random_schedules(
        seed in 1u64..5000,
        loss_pct in 0u64..10,
        deadlines_us in proptest::collection::vec(50u64..5_000, 4..16),
    ) {
        let mut w = ClusterBuilder::new()
            .fault_plan(FaultPlan::new(seed).with_drop(loss_pct as f64 / 100.0))
            .build();
        let (n0, n1) = (NodeId(0), NodeId(1));
        let done: Done = Default::default();
        let ccfg = RpcClientConfig {
            window: 64,
            ..Default::default()
        };
        let (cid, _sid) = echo_pair(&mut w, n0, n1, ccfg, &done);

        let mut expect = Vec::new();
        for (i, us) in deadlines_us.iter().enumerate() {
            let payload = vec![(i as u8).wrapping_mul(31); 1 + (i * 97) % 900];
            let opts = RpcCallOpts {
                deadline: Some(SimTime::from_micros(*us)),
            };
            let call = rpc_call(&mut w, cid, i as u16, &payload, opts).unwrap();
            expect.push((call, payload));
        }
        run_to_quiescence(&mut w);

        let d = done.lock().unwrap().clone();
        prop_assert_eq!(d.len(), expect.len(), "each call resolves exactly once");
        for (call, payload) in &expect {
            let got: Vec<_> = d.iter().filter(|(c, _, _)| c == call).collect();
            prop_assert_eq!(got.len(), 1);
            match got[0].1 {
                Ok(len) => {
                    prop_assert_eq!(len, payload.len() as u64);
                    let mut out = Vec::new();
                    prop_assert_eq!(
                        rpc_collect(&mut w, cid, *call, &mut out),
                        Some(payload.len() as u64)
                    );
                    prop_assert_eq!(&out, payload);
                }
                Err(e) => {
                    // Typed failures only; this workload can only die of
                    // time, or of a link the reliability layer gave up on.
                    prop_assert!(
                        matches!(e, RpcError::Deadline | RpcError::PeerUnreachable),
                        "unexpected error {:?}", e
                    );
                }
            }
        }
        prop_assert_eq!(w.rpc.clients[cid.0 as usize].outstanding(), 0);
        prop_assert_eq!(w.stats().engine.errors, 0);
    }
}

// ------------------------------------------------------- echo loss ladder

/// Latency of paced echo calls over MX, in virtual time: one row per
/// (payload, loss %) with the call p50 and p99 in ns. Payloads span the
/// eager window (small, medium, just under the 32 kB rendezvous cutoff);
/// each request is sent once and loss is repaired below RPC, by the NIC's
/// reliability layer, so the p99 column is the price of that repair.
/// Pinned exactly: a change that moves a row edits this table and says why.
const ECHO_ROWS: [(u64, u64, u64, u64); 12] = [
    (64, 0, 10_478, 10_478),
    (64, 1, 10_478, 13_126),
    (64, 5, 10_478, 15_842),
    (64, 10, 10_478, 217_094),
    (1024, 0, 25_898, 25_898),
    (1024, 1, 25_898, 32_454),
    (1024, 5, 25_898, 32_454),
    (1024, 10, 25_898, 150_254),
    (32_000, 0, 375_194, 375_194),
    (32_000, 1, 375_194, 442_590),
    (32_000, 5, 392_570, 625_594),
    (32_000, 10, 442_590, 1_116_522),
];

/// Calls per ladder point.
const ECHO_CALLS: u64 = 400;

/// One ladder point: `ECHO_CALLS` calls against an MX echo server, paced
/// below the window's service rate (~16 ns/byte of eager serialization,
/// so the gap scales with the payload) so that latency stays a property of
/// one call, not of a queue the test built. Returns (p50, p99) in ns.
fn echo_point(payload: u64, loss_pct: u64) -> (u64, u64) {
    let seed = 0xEC40 ^ (payload << 8) ^ loss_pct;
    let mut w = ClusterBuilder::new()
        .nodes(2, CpuModel::xeon_2600())
        .mem_frames(32_768)
        .fault_plan(FaultPlan::new(seed).with_drop(loss_pct as f64 / 100.0))
        .build();
    let sep = w.open_mx(NodeId(1), MxEndpointConfig::kernel()).unwrap();
    let cep = w.open_mx(NodeId(0), MxEndpointConfig::kernel()).unwrap();
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
    // The sink stamps each completion and collects it, so the 64-slot
    // window recycles under the paced load.
    let done: Done = Default::default();
    let on_done: RpcSinkFn<ClusterWorld> = {
        let d = done.clone();
        Arc::new(move |w: &mut ClusterWorld, comp: RpcCompletion| {
            if comp.result.is_ok() {
                rpc_collect(w, comp.client, comp.call, &mut Vec::new());
            }
            d.lock()
                .unwrap()
                .push((comp.call, comp.result, now(w).nanos()));
        })
    };
    let ccfg = RpcClientConfig {
        req_cap: payload + 128,
        resp_cap: payload + 128,
        ..Default::default()
    };
    let cid = rpc_client_create(&mut w, cep, sep, "ladder", on_done, ccfg).unwrap();

    let pace_us = 50 + payload / 50;
    let submits: Arc<Mutex<Vec<(RpcCall, u64)>>> = Default::default();
    let body: Vec<u8> = (0..payload).map(|i| (i % 251) as u8).collect();
    for i in 1..=ECHO_CALLS {
        let (s, body) = (submits.clone(), body.clone());
        let at = SimTime::from_micros(pace_us * i);
        let call = ClusterEv_call(move |w| {
            let t = now(w).nanos();
            let call = rpc_call(w, cid, 1, &body, RpcCallOpts::default()).unwrap();
            s.lock().unwrap().push((call, t));
        });
        knet_simcore::emit_at(&mut w, 0, at, call);
    }
    run_to_quiescence(&mut w);

    let label = format!("payload={payload} loss={loss_pct}%");
    let (submits, done) = (submits.lock().unwrap(), done.lock().unwrap());
    assert_eq!(
        submits.len() as u64,
        ECHO_CALLS,
        "{label}: every call submits"
    );
    assert_eq!(
        done.len() as u64,
        ECHO_CALLS,
        "{label}: one resolution per call"
    );
    let mut lat: Vec<u64> = submits
        .iter()
        .map(|&(call, t_sub)| {
            let got: Vec<_> = done.iter().filter(|d| d.0 == call).collect();
            assert_eq!(got.len(), 1, "{label}: {call:?} resolves exactly once");
            assert_eq!(
                got[0].1,
                Ok(payload),
                "{label}: survivable loss fails no call"
            );
            got[0].2 - t_sub
        })
        .collect();
    assert_eq!(w.stats().engine.errors, 0, "{label}");
    lat.sort_unstable();
    let pct = |p: usize| lat[((lat.len() - 1) * p + 50) / 100];
    (pct(50), pct(99))
}

/// The echo ladder: 64 B / 1 KiB / 32 000 B at 0 / 1 / 5 / 10 % loss.
/// Every call resolves once and successfully; a clean fabric never waits
/// on a recovery timer (lossless p99 < 2 ms); and a lone loss is repaired
/// at RTT scale, so at 1 % loss no small or medium echo in the tail waits
/// out the retransmit timer's floor (p99 < p50 + `MIN_RTO`).
#[test]
fn echo_loss_ladder_resolves_every_call_and_repairs_at_rtt_scale() {
    let min_rto = knet_simnic::rel::MIN_RTO.nanos();
    let mut got = Vec::new();
    for (payload, loss, ..) in ECHO_ROWS {
        let (p50, p99) = echo_point(payload, loss);
        if loss == 0 {
            assert!(p99 < 2_000_000, "{payload} B lossless: p99 {p99} ns ≥ 2 ms");
        }
        if loss == 1 && payload <= 1024 {
            assert!(
                p99 < p50 + min_rto,
                "{payload} B at 1 % loss: p99 {p99} ns ≥ p50 {p50} ns + the RTO floor"
            );
        }
        got.push((payload, loss, p50, p99));
    }
    assert_eq!(got, ECHO_ROWS, "the echo ladder moved");
}
