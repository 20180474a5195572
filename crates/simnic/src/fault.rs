//! Fault injection for the fabric: a seeded, deterministic link model.
//!
//! The simulator's wire is perfect by default — every recovery contract
//! above the driver seam (retransmission windows, `SendFailed`, socket
//! poisoning) is dead code until something actually misbehaves. A
//! [`FaultPlan`] makes the fabric misbehave *reproducibly*: per-packet
//! drop / duplicate / delay-reorder dice drawn from a seeded SplitMix64,
//! plus deterministic one-shot faults ("kill node N at t=T", modeling a
//! NIC power-off: every packet to or from the node is dropped from that
//! instant on).
//!
//! **Per-link asymmetric plans** ([`FaultPlan::for_link`]): a directed
//! `(src, dst)` node pair can carry its *own* dice and its own RNG stream,
//! overriding the base plan for packets in that direction only — one lossy
//! direction, or one flaky node pair, can coexist with an otherwise clean
//! fabric. Links with no plan installed fall through to the base dice and
//! consume **no** randomness of their own; if the base dice are zero they
//! consume none at all, so traffic on planless links is bit-identical to a
//! fabric with no plan installed (the chaos suite fingerprints this).
//!
//! Determinism: **every directed link owns its RNG stream.** Per-link plans
//! key their stream off their own seed; links that fall through to the base
//! dice lazily derive a stream from the base seed mixed with the `(src,
//! dst)` pair. A link's dice are only ever rolled while the engine executes
//! an event at its *transmitting* node (`wire_send` at the data source,
//! ack scheduling at the ack source), so the draw order for each stream is
//! that node's local event order — identical across runs *and across shard
//! counts* (the parallel engine never changes a single node's event order).
//! The same seed always yields the same fault sequence, so a chaos failure
//! reproduces exactly, and installing a plan on one link never shifts the
//! draws any other link sees.

use knet_simcore::{IdHashMap, SimTime, SplitMix64};
use knet_simos::NodeId;

/// What the fabric does to packets. Build with the fluent setters; install
/// with `NicLayer::set_fault_plan` (or the cluster builder's knob).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// RNG seed; same seed ⇒ same fault sequence.
    pub seed: u64,
    /// Per-packet probability of silent loss.
    pub drop_p: f64,
    /// Per-packet probability of duplication (the copy arrives after an
    /// extra delay drawn from the delay range).
    pub dup_p: f64,
    /// Per-packet probability of extra latency (reordering relative to
    /// later packets on the same link).
    pub delay_p: f64,
    /// Extra-latency range for delayed packets and duplicate copies.
    pub delay_min: SimTime,
    pub delay_max: SimTime,
    /// One-shot faults: node `n` drops off the fabric at instant `t`.
    pub kill_at: Vec<(NodeId, SimTime)>,
    /// Directed per-link overrides: packets from the first node to the
    /// second roll *these* dice (with their own seed/stream) instead of the
    /// base dice. Other links are unaffected — every directed link rolls an
    /// independent stream. A sub-plan's `kill_at` and `links` are ignored —
    /// kills are node-level faults and nesting does not compose.
    pub links: Vec<(NodeId, NodeId, FaultPlan)>,
}

impl FaultPlan {
    /// A plan that injects nothing (all dice zero) — the base for the
    /// fluent setters.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_min: SimTime::from_micros(1),
            delay_max: SimTime::from_micros(50),
            kill_at: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Drop each packet with probability `p`.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// Duplicate each packet with probability `p`.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup_p = p;
        self
    }

    /// Delay each packet with probability `p` by a uniform draw from
    /// `[min, max]` — consecutive packets reorder when the draws cross.
    pub fn with_delay(mut self, p: f64, min: SimTime, max: SimTime) -> Self {
        self.delay_p = p;
        self.delay_min = min;
        self.delay_max = max;
        self
    }

    /// Kill `node` (NIC power-off) at instant `t`.
    pub fn with_kill(mut self, node: NodeId, t: SimTime) -> Self {
        self.kill_at.push((node, t));
        self
    }

    /// Install `plan`'s dice for packets travelling `src → dst` only (the
    /// reverse direction keeps the base dice — asymmetric links). The
    /// sub-plan's own seed keys an independent RNG stream; every other
    /// link's stream is untouched, so with a zero-dice base the rest of
    /// the fabric stays bit-identical to a planless one.
    pub fn for_link(mut self, src: NodeId, dst: NodeId, plan: FaultPlan) -> Self {
        self.links.push((src, dst, plan));
        self
    }
}

knet_simcore::counters! {
    /// Counters of injected faults (observable by tests and reports).
    pub struct FaultStats {
        /// Packets silently dropped by the dice.
        pub dropped: u64,
        /// Extra copies delivered by the duplication dice.
        pub duplicated: u64,
        /// Packets delivered late by the delay dice.
        pub delayed: u64,
        /// Packets dropped because an endpoint node was killed.
        pub dead_node_drops: u64,
        /// Packets judged by a per-link plan instead of the base dice.
        pub link_plan_packets: u64,
    }
}

/// The fabric's decision for one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultVerdict {
    /// Never arrives.
    Drop,
    /// Arrives with `extra` added to its latency; when `duplicate` is set a
    /// second copy arrives `dup_extra` after the first.
    Deliver {
        extra: SimTime,
        duplicate: bool,
        dup_extra: SimTime,
    },
}

pub(crate) const CLEAN: FaultVerdict = FaultVerdict::Deliver {
    extra: SimTime::ZERO,
    duplicate: false,
    dup_extra: SimTime::ZERO,
};

/// One set of dice plus the RNG stream that rolls them (the base plan has
/// one; every per-link plan has its own).
#[derive(Clone, Debug)]
struct DiceState {
    drop_p: f64,
    dup_p: f64,
    delay_p: f64,
    delay_min: SimTime,
    delay_max: SimTime,
    rng: SplitMix64,
    /// True for dice installed by an explicit [`FaultPlan::for_link`]
    /// override (counted in `link_plan_packets`), false for lazily-derived
    /// base-dice streams.
    from_link_plan: bool,
}

impl DiceState {
    fn new(plan: &FaultPlan) -> Self {
        DiceState {
            drop_p: plan.drop_p,
            dup_p: plan.dup_p,
            delay_p: plan.delay_p,
            delay_min: plan.delay_min,
            delay_max: plan.delay_max,
            rng: SplitMix64::new(plan.seed),
            from_link_plan: true,
        }
    }

    /// Base dice with a per-link stream derived from the base seed.
    fn derived(plan: &FaultPlan, stream_seed: u64) -> Self {
        DiceState {
            rng: SplitMix64::new(stream_seed),
            from_link_plan: false,
            ..Self::new(plan)
        }
    }

    fn unit(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn delay_draw(&mut self) -> SimTime {
        let lo = self.delay_min.nanos();
        let hi = self.delay_max.nanos().max(lo);
        SimTime::from_nanos(self.rng.next_range(lo, hi))
    }

    /// Roll the dice for one packet. Dice at zero probability consume no
    /// randomness — a zero plan never touches its stream.
    fn roll(&mut self, stats: &mut FaultStats) -> FaultVerdict {
        if self.drop_p > 0.0 && self.unit() < self.drop_p {
            stats.dropped += 1;
            return FaultVerdict::Drop;
        }
        let mut extra = SimTime::ZERO;
        if self.delay_p > 0.0 && self.unit() < self.delay_p {
            extra = self.delay_draw();
            stats.delayed += 1;
        }
        let mut duplicate = false;
        let mut dup_extra = SimTime::ZERO;
        if self.dup_p > 0.0 && self.unit() < self.dup_p {
            duplicate = true;
            dup_extra = self.delay_draw();
            stats.duplicated += 1;
        }
        FaultVerdict::Deliver {
            extra,
            duplicate,
            dup_extra,
        }
    }
}

/// Installed plan plus its RNG streams.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    /// True when the base plan carries any nonzero dice; only then do
    /// planless links materialise a stream at all (a zero base consumes no
    /// randomness and allocates nothing).
    base_rolls: bool,
    /// Dice per directed `(src, dst)` node pair. Explicit per-link plans
    /// are installed eagerly; base-dice links materialise lazily with a
    /// stream seed derived from the base seed and the pair, so every
    /// directed link owns an independent stream (the shard-invariance
    /// contract in the module docs).
    links: IdHashMap<(u32, u32), DiceState>,
    pub(crate) stats: FaultStats,
}

/// One stream seed per directed link: the base seed mixed with the pair
/// through a SplitMix64 scramble round.
fn link_stream_seed(seed: u64, src: u32, dst: u32) -> u64 {
    SplitMix64::new(seed ^ (((src as u64) << 32) | dst as u64)).next_u64()
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let base_rolls = plan.drop_p > 0.0 || plan.dup_p > 0.0 || plan.delay_p > 0.0;
        let links = plan
            .links
            .iter()
            .map(|(s, d, p)| ((s.0, d.0), DiceState::new(p)))
            .collect();
        FaultState {
            plan,
            base_rolls,
            links,
            stats: FaultStats::default(),
        }
    }

    pub(crate) fn node_dead(&self, node: NodeId, now: SimTime) -> bool {
        self.plan
            .kill_at
            .iter()
            .any(|&(n, t)| n == node && now >= t)
    }

    /// Roll the dice for one packet between `src_node` and `dst_node`. A
    /// per-link plan for the directed pair overrides the base dice; a
    /// nonzero base lazily materialises the pair's own base-dice stream;
    /// a zero base consumes nothing.
    pub(crate) fn verdict(
        &mut self,
        src_node: NodeId,
        dst_node: NodeId,
        now: SimTime,
    ) -> FaultVerdict {
        if self.node_dead(src_node, now) || self.node_dead(dst_node, now) {
            self.stats.dead_node_drops += 1;
            return FaultVerdict::Drop;
        }
        let key = (src_node.0, dst_node.0);
        if !self.links.contains_key(&key) {
            if !self.base_rolls {
                return CLEAN;
            }
            let seed = link_stream_seed(self.plan.seed, key.0, key.1);
            self.links.insert(key, DiceState::derived(&self.plan, seed));
        }
        let dice = self.links.get_mut(&key).expect("just ensured");
        if dice.from_link_plan {
            self.stats.link_plan_packets += 1;
        }
        dice.roll(&mut self.stats)
    }

    /// Drop the lazily-derived dice stream of a directed node pair (dead-
    /// link reclaim). Streams installed by an explicit [`FaultPlan::for_link`]
    /// override are part of the scenario and are kept; a lazily-derived
    /// stream re-materializes from the same seed if the pair ever talks
    /// again, so reclaiming one link never shifts another link's draws.
    pub(crate) fn reclaim_stream(&mut self, src: NodeId, dst: NodeId) {
        let key = (src.0, dst.0);
        if self.links.get(&key).is_some_and(|d| !d.from_link_plan) {
            self.links.remove(&key);
        }
    }

    /// Materialized dice streams (tests).
    pub(crate) fn streams(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = FaultPlan::new(7).with_drop(0.3).with_dup(0.2).with_delay(
            0.2,
            SimTime::from_micros(1),
            SimTime::from_micros(9),
        );
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for _ in 0..200 {
            assert_eq!(
                a.verdict(NodeId(0), NodeId(1), SimTime::ZERO),
                b.verdict(NodeId(0), NodeId(1), SimTime::ZERO)
            );
        }
    }

    #[test]
    fn killed_node_drops_everything_after_the_instant() {
        let plan = FaultPlan::new(1).with_kill(NodeId(1), SimTime::from_micros(10));
        let mut f = FaultState::new(plan);
        assert_eq!(
            f.verdict(NodeId(0), NodeId(1), SimTime::from_micros(9)),
            CLEAN
        );
        assert_eq!(
            f.verdict(NodeId(0), NodeId(1), SimTime::from_micros(10)),
            FaultVerdict::Drop
        );
        assert_eq!(
            f.verdict(NodeId(1), NodeId(0), SimTime::from_micros(11)),
            FaultVerdict::Drop,
            "a dead node cannot send either"
        );
        assert_eq!(
            f.verdict(NodeId(0), NodeId(2), SimTime::from_micros(11)),
            CLEAN,
            "other links unaffected"
        );
        assert_eq!(f.stats.dead_node_drops, 2);
    }

    #[test]
    fn lossless_plan_never_touches_a_packet() {
        let mut f = FaultState::new(FaultPlan::new(42));
        for _ in 0..100 {
            assert_eq!(f.verdict(NodeId(0), NodeId(1), SimTime::ZERO), CLEAN);
        }
        assert_eq!(f.stats.dropped + f.stats.duplicated + f.stats.delayed, 0);
    }

    #[test]
    fn link_plan_applies_to_its_direction_only() {
        let plan =
            FaultPlan::new(3).for_link(NodeId(0), NodeId(1), FaultPlan::new(9).with_drop(1.0));
        let mut f = FaultState::new(plan);
        for _ in 0..50 {
            assert_eq!(
                f.verdict(NodeId(0), NodeId(1), SimTime::ZERO),
                FaultVerdict::Drop,
                "the planned direction drops everything"
            );
            assert_eq!(
                f.verdict(NodeId(1), NodeId(0), SimTime::ZERO),
                CLEAN,
                "the reverse direction keeps the (clean) base dice"
            );
            assert_eq!(
                f.verdict(NodeId(2), NodeId(3), SimTime::ZERO),
                CLEAN,
                "unrelated links keep the base dice"
            );
        }
        assert_eq!(f.stats.dropped, 50);
        assert_eq!(f.stats.link_plan_packets, 50);
    }

    #[test]
    fn planless_links_consume_no_randomness_next_to_a_link_plan() {
        // Two states: one with a per-link plan on (2→3), one with none.
        // Rolling the (2→3) link dice must not advance the base stream:
        // with a lossy *base*, (0→1) sees identical draws whether or not
        // the link plan's own stream is being consumed in between. (This
        // is the per-link-stream independence guarantee; rerouting a
        // link's packets *off* a nonzero base stream naturally shifts the
        // base draw positions — see the module docs.)
        let base = FaultPlan::new(11).with_drop(0.3);
        let with_link =
            base.clone()
                .for_link(NodeId(2), NodeId(3), FaultPlan::new(77).with_drop(0.9));
        let mut a = FaultState::new(base);
        let mut b = FaultState::new(with_link);
        for i in 0..200 {
            // Interleave (2→3) rolls on `b` only: they must not shift the
            // base stream that (0→1) consumes.
            if i % 3 == 0 {
                let _ = b.verdict(NodeId(2), NodeId(3), SimTime::ZERO);
            }
            assert_eq!(
                a.verdict(NodeId(0), NodeId(1), SimTime::ZERO),
                b.verdict(NodeId(0), NodeId(1), SimTime::ZERO)
            );
        }
    }
}
