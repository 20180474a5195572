//! KV chaos: the replicated store under packet loss and node kills.
//!
//! The tentpole proof: a sharded primary/backup KV built *only* on the
//! typed RPC layer (deadlines, retries, idempotency keys, typed errors)
//! survives a mid-workload primary kill —
//!
//! * every acked write is readable from the promoted primary,
//! * no unacked write resurrects over a later acked one (epoch fencing),
//! * every in-flight operation resolves with a value or a typed error —
//!   nothing hangs,
//! * and the whole run is deterministic per seed (event counts and a
//!   full-state fingerprint reproduce exactly).
//!
//! The failover ladder pins the promotion and blackout times of a busy
//! link's primary kill at 0–10 % loss.
//!
//! Layout: node 0 hosts replica A, node 1 replica B, node 2 the client
//! (nodes 2 and 3 each host one in the failover-latency scenario). All
//! shards start primaried on A with B as synchronous backup.

use knet::prelude::*;
use knet::ClusterEv;
use knet_simnic::FaultPlan;

struct Fx {
    w: ClusterWorld,
    /// One client per client node.
    clients: Vec<KvClientId>,
    r0: KvReplicaId,
    r1: KvReplicaId,
}

fn build_kv(plan: FaultPlan) -> Fx {
    build_kv_with_client_nodes(plan, 1)
}

/// The replica pair on nodes 0 and 1, and one two-endpoint KV client on
/// each of the `client_nodes` nodes after them.
fn build_kv_with_client_nodes(plan: FaultPlan, client_nodes: u32) -> Fx {
    let mut w = ClusterBuilder::new()
        .nodes(2 + client_nodes as usize, CpuModel::xeon_2600())
        .fault_plan(plan)
        .build();
    let (n0, n1) = (NodeId(0), NodeId(1));
    let ep = |w: &mut ClusterWorld, n| w.open_mx(n, MxEndpointConfig::kernel()).unwrap();

    let a_srv = ep(&mut w, n0);
    let b_srv = ep(&mut w, n1);
    let r0 = kv_replica_create(&mut w, a_srv, RpcServerConfig::default());
    let r1 = kv_replica_create(&mut w, b_srv, RpcServerConfig::default());

    let rpc_cfg = RpcClientConfig::default();
    let a_repl = ep(&mut w, n0);
    let b_repl = ep(&mut w, n1);
    kv_pair(&mut w, r0, a_repl, r1, b_repl, rpc_cfg);
    kv_add_shards(&mut w, 4, r0, Some(r1));

    let clients: Vec<KvClientId> = (2..2 + client_nodes)
        .map(|n| {
            let eps = [ep(&mut w, NodeId(n)), ep(&mut w, NodeId(n))];
            kv_client_create(&mut w, &eps, rpc_cfg)
        })
        .collect();
    Fx { w, clients, r0, r1 }
}

/// Drive a paced workload: `puts` writes (cycling over `keys` keys, every
/// value globally unique) interleaved 2:1 with reads, one op each 50 µs of
/// virtual time.
fn drive_workload(fx: &mut Fx, puts: usize, keys: usize) {
    let client = fx.clients[0];
    for i in 0..puts {
        let t = SimTime::from_micros(50 * (i as u64 + 1));
        let key = format!("key-{}", i % keys).into_bytes();
        let val = format!("val-{:04}", i).into_bytes();
        knet_simcore::emit_at(
            &mut fx.w,
            2,
            t,
            ClusterEv::Call(Box::new(move |w: &mut ClusterWorld| {
                kv_put(w, client, &key, &val, None);
                if key[4] % 2 == 0 {
                    kv_get(w, client, &key, None);
                }
            })),
        );
    }
    run_to_quiescence(&mut fx.w);
}

fn assert_invariants(fx: &Fx, label: &str) {
    let kv = &fx.w.kv;
    assert_eq!(
        kv.outstanding_ops(),
        0,
        "{label}: every operation must resolve — nothing hangs"
    );
    assert_eq!(
        kv.outcomes.len() as u64,
        kv.stats.puts + kv.stats.gets,
        "{label}: one outcome per issued op, exactly"
    );
    let violations = kv_check(&fx.w);
    assert!(
        violations.is_empty(),
        "{label}: linearizability-lite violations:\n{}",
        violations.join("\n")
    );
    let st = fx.w.stats();
    assert_eq!(
        st.engine.errors, 0,
        "{label}: engine errors are a hard fail"
    );
    for (i, c) in fx.w.rpc.clients.iter().enumerate() {
        assert!(c.is_quiet(), "{label}: RPC client {i} holds a live call");
    }
}

/// Loss-only matrix: with both replicas alive, the retry/idempotency
/// machinery must make *every* operation succeed — typed failures are for
/// dead peers and expired deadlines, not for survivable loss.
#[test]
fn kv_loss_matrix_every_op_succeeds() {
    for loss_pct in [1u64, 5, 10] {
        for seed in [11u64, 12] {
            let plan = FaultPlan::new(seed ^ (loss_pct << 8))
                .with_drop(loss_pct as f64 / 100.0)
                .with_dup(0.03);
            let mut fx = build_kv(plan);
            drive_workload(&mut fx, 40, 8);
            assert_invariants(&fx, &format!("loss={loss_pct}% seed={seed}"));
            assert_eq!(
                fx.w.kv.stats.failures, 0,
                "loss={loss_pct}% seed={seed}: survivable loss must not fail ops"
            );
            assert_eq!(fx.w.kv.stats.acks, 40);
            // Synchronous replication: both stores converge to identical
            // contents while both replicas live.
            assert_eq!(
                fx.w.kv.store_dump(fx.r0),
                fx.w.kv.store_dump(fx.r1),
                "loss={loss_pct}% seed={seed}: replicas diverged"
            );
        }
    }
}

/// Reads are served by both replicas, not just the primary.
#[test]
fn kv_reads_spread_over_both_replicas() {
    let mut fx = build_kv(FaultPlan::new(7));
    drive_workload(&mut fx, 40, 4);
    assert_invariants(&fx, "read-spread");
    let a = rpc_server_stats(&fx.w, fx.w.kv.replica_server(fx.r0));
    let b = rpc_server_stats(&fx.w, fx.w.kv.replica_server(fx.r1));
    assert!(a.requests > 0, "primary served requests");
    // The backup sees every REPL plus its share of the GETs.
    assert!(
        b.requests > fx.w.kv.stats.acks,
        "backup must serve reads on top of replication traffic (saw {})",
        b.requests
    );
}

/// The headline scenario: a lossy fabric AND the primary's node killed
/// mid-workload. The backup must promote (epoch bump), clients must
/// re-resolve and reissue, and every acked write must be readable from
/// the promoted primary.
fn primary_kill_scenario(seed: u64, loss_pct: u64) -> (u64, u64) {
    let plan = FaultPlan::new(seed)
        .with_drop(loss_pct as f64 / 100.0)
        .with_kill(NodeId(0), SimTime::from_millis(1));
    let mut fx = build_kv(plan);
    drive_workload(&mut fx, 60, 6);

    let label = format!("kill seed={seed} loss={loss_pct}%");
    assert_invariants(&fx, &label);

    let kv = &fx.w.kv;
    assert!(
        kv.stats.promotions >= 1,
        "{label}: the backup must promote after the kill"
    );
    assert!(!kv.replica_alive(fx.r0), "{label}: replica A reported dead");
    for (i, sh) in kv.shards.iter().enumerate() {
        assert_eq!(
            sh.primary, fx.r1.0,
            "{label}: shard {i} must be primaried on the promoted backup"
        );
        assert!(
            sh.epoch >= 2,
            "{label}: failover must advance shard {i}'s epoch"
        );
        assert_eq!(
            sh.backup, None,
            "{label}: shard {i} runs solo after the kill"
        );
    }
    // The workload outlives the blackout: writes acked after the kill
    // instant exist, and they were acked by the new primary.
    assert!(
        kv.stats.acks > 0,
        "{label}: acked writes must exist across the failover"
    );
    // Typed resolution only: any failed op died of deadline, budget or
    // the dead peer — all represented in the outcome record.
    for o in &kv.outcomes {
        if let Err(e) = &o.result {
            assert!(
                matches!(
                    e,
                    RpcError::PeerUnreachable | RpcError::Deadline | RpcError::Overload
                ),
                "{label}: unexpected typed error {e:?} for op {}",
                o.op
            );
        }
    }
    (kv_fingerprint(&fx.w), fx.w.engine_stats().executed)
}

#[test]
fn kv_survives_primary_kill_mid_workload() {
    for (seed, loss) in [(0xDEAD_0001u64, 2u64), (0xDEAD_0002, 5), (0xDEAD_0003, 8)] {
        primary_kill_scenario(seed, loss);
    }
}

/// Same seed ⇒ same simulation: the full-state fingerprint (stores, shard
/// map, outcome record) and the executed-event count reproduce exactly.
#[test]
fn kv_failover_is_deterministic_per_seed() {
    let a = primary_kill_scenario(0x5EED_CAFE, 6);
    let b = primary_kill_scenario(0x5EED_CAFE, 6);
    assert_eq!(a, b, "fingerprint and event count must match run for run");
}

/// One deterministic failover pass at each of 2–20 % loss, everything
/// else fixed.
#[test]
fn kv_chaos_smoke_fixed_seed() {
    for loss in [2, 5, 10, 15, 20] {
        primary_kill_scenario(0xC0FF_EE00, loss);
    }
}

/// The failover ladder on a busy link, one row per loss %: (loss %,
/// promotion ns, blackout ns, acks, failures, reissues). 120 paced puts,
/// one each 50 µs over 8 keys, and the primary's node killed at 1 ms; the
/// promotion and the blackout (the first write acked by the promoted
/// primary) are counted from the kill. Pinned exactly: a change that moves
/// a row edits this table and says why.
const FAILOVER_ROWS: [(u64, u64, u64, u64, u64, u64); 4] = [
    (0, 3_649_572, 3_659_750, 120, 0, 75),
    (1, 3_649_572, 3_659_750, 120, 0, 75),
    (5, 3_649_572, 3_709_750, 120, 0, 75),
    (10, 1_976_020, 2_009_750, 120, 0, 42),
];

/// The backup promotes, nothing hangs, the history checks clean, the
/// engine records no error, and the blackout stays under 5 ms: liveness
/// probes find the dead primary at RTT scale, where nine backed-off link
/// rounds took about 10 ms.
#[test]
fn kv_failover_ladder_on_a_busy_link() {
    let kill = SimTime::from_millis(1);
    let mut got = Vec::new();
    for (loss, ..) in FAILOVER_ROWS {
        let plan = FaultPlan::new(0xFA11 ^ (loss << 4))
            .with_drop(loss as f64 / 100.0)
            .with_kill(NodeId(0), kill);
        let mut fx = build_kv(plan);
        let client = fx.clients[0];
        for i in 0..120u64 {
            let key = format!("key-{}", i % 8).into_bytes();
            let val = format!("val-{i:04}").into_bytes();
            knet_simcore::emit_at(
                &mut fx.w,
                2,
                SimTime::from_micros(50 * (i + 1)),
                ClusterEv::Call(Box::new(move |w: &mut ClusterWorld| {
                    kv_put(w, client, &key, &val, None);
                })),
            );
        }
        // Stamp the blackout's edges at every event boundary.
        let (mut acks_at_kill, mut promoted, mut first_ack) = (None, None, None);
        let outcome = run_until(&mut fx.w, |w: &ClusterWorld| {
            let st = w.kv.stats;
            if acks_at_kill.is_none() && now(w) >= kill {
                acks_at_kill = Some(st.acks);
            }
            if promoted.is_none() && st.promotions >= 1 {
                promoted = Some(now(w));
            }
            if promoted.is_some()
                && first_ack.is_none()
                && acks_at_kill.is_some_and(|a| st.acks > a)
            {
                first_ack = Some(now(w));
            }
            false
        });
        assert_eq!(outcome, RunOutcome::Quiescent);
        let label = format!("failover ladder loss={loss}%");
        assert_invariants(&fx, &label);
        let promoted = promoted.unwrap_or_else(|| panic!("{label}: the backup promotes"));
        let first_ack = first_ack.unwrap_or_else(|| panic!("{label}: no write acked after"));
        let blackout = first_ack - kill;
        assert!(
            blackout < SimTime::from_millis(5),
            "{label}: blackout {blackout} — failure detection is timer-bound again"
        );
        let st = fx.w.kv.stats;
        got.push((
            loss,
            (promoted - kill).nanos(),
            blackout.nanos(),
            st.acks,
            st.failures,
            st.reissues,
        ));
    }
    assert_eq!(got, FAILOVER_ROWS, "the failover ladder moved");
}

/// Writes with a deadline too short for a degraded fabric must fail
/// *typed* — and an op that failed `Deadline` must never later surface
/// as an ack (exactly-once bookkeeping).
#[test]
fn kv_deadline_failures_stay_failed() {
    let plan = FaultPlan::new(0xD0D0).with_kill(NodeId(0), SimTime::ZERO);
    let mut fx = build_kv(plan);
    let client = fx.clients[0];
    // Primary dead from t=0; deadline below the ~2 ms the link layer needs
    // to declare the peer dead with no RTT sample yet (probes at the 200 µs
    // initial RTO): these writes must die of Deadline.
    for i in 0..6 {
        let key = format!("k{i}").into_bytes();
        kv_put(
            &mut fx.w,
            client,
            &key,
            b"doomed",
            Some(SimTime::from_millis(1)),
        );
    }
    run_to_quiescence(&mut fx.w);
    let kv = &fx.w.kv;
    assert_eq!(kv.outstanding_ops(), 0, "typed resolution, no hangs");
    assert_eq!(
        kv.stats.acks, 0,
        "nothing can be acked under these deadlines"
    );
    assert_eq!(kv.stats.failures, 6);
    for o in &kv.outcomes {
        assert!(
            matches!(
                o.result,
                Err(RpcError::Deadline | RpcError::PeerUnreachable)
            ),
            "unexpected outcome {:?}",
            o.result
        );
    }
    assert_eq!(fx.w.stats().engine.errors, 0);
}

/// Fault containment (the invariant every chaos suite should hold): **no
/// op is refused toward a node that was never faulted.** Node 0 is killed
/// under 1 % loss; nodes 1 (the backup) and 2 (the client) are never
/// touched. So every RPC between those two must resolve with a reply, the
/// KV client must never report the backup dead, and — the reissue budget
/// covering the blackout — every KV op must succeed. One fault seed in
/// five used to break all three: the primary's `PeerDown` also reached the
/// client's channel to the *live* backup and failed its calls in flight.
#[test]
fn kv_primary_kill_never_refuses_an_op_toward_an_unfaulted_node() {
    let faulted = NodeId(0);
    for seed in 201..=210u64 {
        let plan = FaultPlan::new(seed)
            .with_drop(0.01)
            .with_kill(faulted, SimTime::from_millis(1));
        let mut fx = build_kv(plan);
        drive_workload(&mut fx, 60, 6);

        let label = format!("kill seed={seed} loss=1%");
        assert_invariants(&fx, &label);
        for c in &fx.w.rpc.clients {
            if c.ep.node != faulted && c.server.node != faulted {
                assert_eq!(
                    c.stats.failed, 0,
                    "{label}: a call from {:?} to {:?} was refused; neither node was faulted",
                    c.ep, c.server
                );
            }
        }
        let kv = &fx.w.kv;
        assert!(kv.stats.promotions >= 1, "{label}: the backup promotes");
        assert!(
            kv.replica_alive(fx.r1),
            "{label}: the live backup was reported dead"
        );
        assert_eq!(kv.stats.failures, 0, "{label}: every op must succeed");
    }
}

/// The failover headline in `kv_failover`'s shape — two client nodes,
/// paced gets and puts every 50 µs, 1 % loss, the primary killed at 1 ms:
/// liveness probes at RTT scale find the dead primary, so the backup is
/// promoted within a millisecond of the kill (nine backed-off rounds took
/// about 9 ms), and no op fails on the way.
#[test]
fn kv_promotes_within_a_millisecond_of_the_kill() {
    let kill = SimTime::from_millis(1);
    let plan = FaultPlan::new(0xFA57)
        .with_drop(0.01)
        .with_kill(NodeId(0), kill);
    let mut fx = build_kv_with_client_nodes(plan, 2);
    for i in 0..80u64 {
        let client = fx.clients[i as usize % 2];
        let node = 2 + (i % 2) as u32;
        let key = format!("key-{}", i % 8).into_bytes();
        let val = format!("val-{i:04}").into_bytes();
        knet_simcore::emit_at(
            &mut fx.w,
            node,
            SimTime::from_micros(50 * (i + 1)),
            ClusterEv::Call(Box::new(move |w: &mut ClusterWorld| {
                if i % 3 == 0 {
                    kv_put(w, client, &key, &val, None);
                } else {
                    kv_get(w, client, &key, None);
                }
            })),
        );
    }
    let mut promoted_at = None;
    let outcome = run_until(&mut fx.w, |w: &ClusterWorld| {
        if promoted_at.is_none() && w.kv.stats.promotions >= 1 {
            promoted_at = Some(w.sched.now());
        }
        false
    });
    assert_eq!(outcome, RunOutcome::Quiescent);
    assert_invariants(&fx, "paced failover");
    let promoted_at = promoted_at.expect("the backup promotes");
    assert!(
        promoted_at - kill <= SimTime::from_millis(1),
        "promotion {} after the kill — detection is timer-bound again",
        promoted_at - kill
    );
    assert_eq!(fx.w.kv.stats.failures, 0, "no op fails across the failover");
}

/// Heavy loss with no node killed fails no op while every link lives: 200
/// seeds at each of 15 % and 20 % drop, 3 % duplication. Packet loss is
/// repaired by the reliability layer, and only its `PeerDown` marks a
/// replica dead, so an RPC that waits out a slow repair is never read as a
/// death. Seed 185 at 15 % and seeds 8 and 159 at 20 % are the runs in
/// which an RPC layer that re-sends on 2 ms of silence, and reads a spent
/// attempt budget as a death, fails ops or splits the replicas. Every run
/// must pass the every-run checks; the runs where rel itself declared a
/// live link dead (direction 4(b) of the ROADMAP) are listed and held to
/// those only.
#[test]
fn kv_loss_sweep_fails_no_op_while_every_link_lives() {
    let mut false_deaths = Vec::new();
    for loss in [15u64, 20] {
        for seed in 0..200u64 {
            let plan = FaultPlan::new(seed * 104_729 + loss)
                .with_drop(loss as f64 / 100.0)
                .with_dup(0.03);
            let mut fx = build_kv(plan);
            drive_workload(&mut fx, 40, 8);
            let label = format!("loss={loss}% seed={seed}");
            assert_invariants(&fx, &label);
            if fx.w.nics.rel.stats.dead_links > 0 {
                false_deaths.push((loss, seed));
                continue;
            }
            assert_eq!(
                fx.w.kv.stats.failures, 0,
                "{label}: an op failed with every link alive"
            );
            assert_eq!(
                fx.w.kv.store_dump(fx.r0),
                fx.w.kv.store_dump(fx.r1),
                "{label}: replicas diverged with every link alive"
            );
        }
    }
    assert_eq!(
        false_deaths,
        [(20, 125)],
        "the runs in which rel declared a live link dead changed"
    );
}

/// The primary killed at 300–2 800 µs under 15 % loss and 1 %
/// duplication, 500 seeds: the backup promotes, clients reissue, and no
/// op fails. Seed 443 is the run in which an RPC layer that re-sends on
/// silence fails 6 ops.
#[test]
fn kv_primary_kill_sweep_under_heavy_loss_fails_no_op() {
    for seed in 0..500u64 {
        let kill = SimTime::from_micros(300 + (seed * 37) % 2500);
        let plan = FaultPlan::new(seed * 7919 + 15)
            .with_drop(0.15)
            .with_dup(0.01)
            .with_kill(NodeId(0), kill);
        let mut fx = build_kv(plan);
        drive_workload(&mut fx, 60, 6);
        let label = format!("primary kill seed={seed} at {kill}");
        assert_invariants(&fx, &label);
        assert_eq!(fx.w.kv.stats.failures, 0, "{label}: an op failed");
    }
}

/// The backup killed at 300–2 100 µs on a lossless fabric, 200 seeds: the
/// primary goes solo (epoch bump), and the writes that hit the new epoch
/// answer `WRONG_EPOCH` once and then succeed on reissue. No op fails.
/// A server reply cache keyed by the write would store one write's
/// `WRONG_EPOCH` answer and replay it to every reissue, failing exactly
/// one PUT in every run.
#[test]
fn kv_backup_kill_fails_no_op() {
    for seed in 0..200u64 {
        let kill = SimTime::from_micros(300 + (seed * 37) % 1800);
        let plan = FaultPlan::new(seed).with_kill(NodeId(1), kill);
        let mut fx = build_kv(plan);
        drive_workload(&mut fx, 60, 6);
        let label = format!("backup kill seed={seed} at {kill}");
        assert_invariants(&fx, &label);
        let kv = &fx.w.kv;
        assert_eq!(kv.stats.failures, 0, "{label}: an op failed");
        assert!(!kv.replica_alive(fx.r1), "{label}: backup reported dead");
        assert!(kv.replica_alive(fx.r0), "{label}: primary stays alive");
        assert!(
            kv.shards
                .iter()
                .all(|sh| sh.primary == fx.r0.0 && sh.backup.is_none()),
            "{label}: every shard runs solo on the primary"
        );
    }
}
