//! `ShardedCluster` — one cluster split across `k` node-partitioned worlds.
//!
//! The parallel engine (`knet_simcore::engine`) steps `k` schedulers on real
//! threads; this type owns the `k` [`ClusterWorld`] replicas and keeps the
//! whole arrangement **bit-identical to the sequential engine**:
//!
//! * **Mirrored setup.** [`ShardedCluster::setup`] runs the same closure on
//!   every world (`ShardPhase::Mirror`): layer state — nodes, NICs, ports,
//!   endpoints, channels, trees — is replicated everywhere, and each
//!   scheduler keeps only the events targeting the nodes it owns
//!   (`node % shards == shard_id`). Identical code ⇒ identical ids on every
//!   replica.
//! * **Routed control.** After setup, steady-state control ops go through
//!   [`ShardedCluster::on`]: the closure runs on the *owner* world only
//!   (`ShardPhase::Routed`), any events it schedules at foreign nodes are
//!   exported through the scheduler outbox and injected into the owning
//!   shards immediately, and a single global control-sequence counter is
//!   threaded through so control events carry exactly the ordering keys the
//!   sequential engine would have assigned.
//! * **Aligned clocks.** [`ShardedCluster::run_to_quiescence`] drains all
//!   shards under the conservative lookahead (the minimum NIC wire latency)
//!   and leaves every clock at the global maximum, so the next control op
//!   observes the same `now` a sequential run would have.
//!
//! `tests/sched_equivalence.rs` holds the receipts: chaos and collective
//! workloads produce identical `executed()` / tree fingerprints at
//! 1, 2, 4 and 8 shards.

use knet_simcore::{
    run_shards_to_quiescence, Counters, EngineStats, EpochReport, ShardPhase, SimTime,
    DEFAULT_EVENT_BUDGET,
};

use crate::world::{ClusterWorld, WorldStats};

/// A world's stats tree with the `engine` block zeroed: what mirrored set-up
/// leaves identical on every replica (schedulers keep only their own nodes'
/// events even while mirroring, so engine counters are per-shard throughout).
fn layer_counters(w: &ClusterWorld) -> WorldStats {
    WorldStats {
        engine: EngineStats::default(),
        ..w.stats()
    }
}

/// A cluster partitioned into `k` shard worlds stepped in parallel.
pub struct ShardedCluster {
    worlds: Vec<ClusterWorld>,
    /// Conservative lookahead: no cross-shard event can land sooner than
    /// this after its cause (the minimum NIC wire latency at build time).
    lookahead: SimTime,
    /// The global control-stream sequence counter, threaded through every
    /// [`Self::on`] call so control events get sequential-identical keys.
    control_seq: u64,
    /// `Some` once set-up is sealed: the layer counters mirrored set-up left
    /// on every replica alike — the base [`Self::stats`] sums gains over.
    base: Option<WorldStats>,
}

impl ShardedCluster {
    /// Wrap `k` freshly built identical worlds. Use
    /// [`crate::build::ClusterBuilder::build_sharded`] instead of calling
    /// this directly.
    pub(crate) fn from_worlds(mut worlds: Vec<ClusterWorld>, lookahead: SimTime) -> Self {
        assert!(!worlds.is_empty());
        assert!(lookahead > SimTime::ZERO);
        let k = worlds.len() as u32;
        for (i, w) in worlds.iter_mut().enumerate() {
            w.sched.configure_shard(i as u32, k);
            w.sched.set_phase(ShardPhase::Mirror);
        }
        ShardedCluster {
            worlds,
            lookahead,
            control_seq: 0,
            base: None,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.worlds.len()
    }

    /// The shard that owns `node`.
    fn owner(&self, node: u32) -> usize {
        node as usize % self.worlds.len()
    }

    /// Mirrored setup: run `f` identically on every world, returning the
    /// last replica's value (identical code ⇒ identical values — ids handed
    /// out by the layers are deterministic). Must complete before the first
    /// [`Self::on`] / [`Self::run_to_quiescence`] — once shard states
    /// diverge (events executed, routed ops applied), mirrored execution is
    /// no longer sound and this panics.
    pub fn setup<T>(&mut self, f: impl Fn(&mut ClusterWorld) -> T) -> T {
        assert!(
            self.base.is_none(),
            "setup() must precede all routed operations"
        );
        let mut last = None;
        for w in &mut self.worlds {
            last = Some(f(w));
        }
        last.expect("at least one shard")
    }

    /// Switch from mirrored setup to routed steady-state. Idempotent;
    /// called automatically by the first `on`/`run_to_quiescence`.
    fn seal_setup(&mut self) {
        if self.base.is_some() {
            return;
        }
        // Every replica ran identical setup code, so every control counter
        // and every layer counter agrees; adopt world 0's as the global ones.
        let base = layer_counters(&self.worlds[0]);
        self.control_seq = self.worlds[0].sched.control_seq();
        for w in &mut self.worlds {
            debug_assert_eq!(w.sched.control_seq(), self.control_seq);
            debug_assert_eq!(layer_counters(w), base, "mirrored set-up diverged");
            w.sched.set_phase(ShardPhase::Routed);
        }
        self.base = Some(base);
    }

    /// Run a control operation against the world that owns `node` and
    /// return its result. Events the operation schedules at foreign nodes
    /// are routed into their owners' heaps before this returns.
    pub fn on<R>(&mut self, node: u32, f: impl FnOnce(&mut ClusterWorld) -> R) -> R {
        self.seal_setup();
        let i = self.owner(node);
        self.worlds[i].sched.set_control_seq(self.control_seq);
        let r = f(&mut self.worlds[i]);
        self.control_seq = self.worlds[i].sched.control_seq();
        self.route_outbox(i);
        r
    }

    /// Read-only view of the world owning `node` (its layer state for that
    /// node is authoritative; other replicas' copies are stale post-setup).
    pub fn world(&self, node: u32) -> &ClusterWorld {
        &self.worlds[node as usize % self.worlds.len()]
    }

    /// Move shard `i`'s outbox into the destination shards' heaps.
    fn route_outbox(&mut self, i: usize) {
        let mut outbox = Vec::new();
        self.worlds[i].sched.drain_outbox(&mut outbox);
        if outbox.is_empty() {
            return;
        }
        let k = self.worlds.len();
        for dest in 0..k {
            let mut batch: Vec<_> = Vec::new();
            let mut j = 0;
            while j < outbox.len() {
                if outbox[j].node as usize % k == dest {
                    batch.push(outbox.swap_remove(j));
                } else {
                    j += 1;
                }
            }
            if !batch.is_empty() {
                self.worlds[dest].sched.inject(&mut batch);
            }
        }
    }

    /// Drain every shard to quiescence on one thread per shard, then align
    /// all clocks to the global maximum.
    pub fn run_to_quiescence(&mut self) -> EpochReport {
        self.run_to_quiescence_budgeted(DEFAULT_EVENT_BUDGET)
    }

    /// [`Self::run_to_quiescence`] with an explicit total event budget.
    pub fn run_to_quiescence_budgeted(&mut self, budget: u64) -> EpochReport {
        self.seal_setup();
        let report = run_shards_to_quiescence(&mut self.worlds, self.lookahead, budget);
        // Threads only align clocks among themselves in the k>1 path; the
        // solo path and routed control both want the invariant anyway.
        let max_now = self
            .worlds
            .iter()
            .map(|w| w.sched.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        for w in &mut self.worlds {
            w.sched.align_now(max_now);
        }
        report
    }

    /// Sum of every shard's event count (the cross-shard-count fingerprint).
    pub fn executed(&self) -> u64 {
        self.worlds.iter().map(|w| w.sched.executed()).sum()
    }

    /// Engine counters merged over all shards, plus the per-shard list.
    pub fn engine_stats(&self) -> (EngineStats, Vec<EngineStats>) {
        let per: Vec<EngineStats> = self.worlds.iter().map(|w| w.engine_stats()).collect();
        (EngineStats::merged(per.iter().copied()), per)
    }

    /// The cluster's stats tree: what mirrored set-up counted (once, not
    /// once per replica) plus what every shard world gained since — so
    /// running totals equal a one-shard run's, high-water marks and gauges
    /// are the maximum over the shards.
    pub fn stats(&self) -> WorldStats {
        let base = self.base.unwrap_or_else(|| layer_counters(&self.worlds[0]));
        let mut sum = base;
        for w in &self.worlds {
            sum.accumulate(&w.stats(), &base);
        }
        sum
    }

    /// First typed engine error recorded on any shard, if one exists.
    pub fn engine_error(&self) -> Option<knet_simcore::EngineError> {
        self.worlds.iter().find_map(|w| w.sched.engine_error())
    }
}
