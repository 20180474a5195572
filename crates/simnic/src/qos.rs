//! Per-tenant token-bucket admission at the NIC.
//!
//! The QoS half of the multi-tenant send path: each configured tenant owns
//! one token bucket per NIC (rate + burst, refilled in **virtual time**),
//! consulted by the drivers *before* a send commits any NIC resource. The
//! verdict is one of three:
//!
//! * [`Admission::Admit`] — the bucket held enough tokens; they are
//!   consumed and the send proceeds synchronously.
//! * [`Admission::Defer`] — the bucket is dry but refilling; `until` is
//!   the exact virtual instant the refill covers this send. The driver
//!   parks the send in its per-tenant pacing lane and arms a pace timer.
//! * [`Admission::Shed`] — admission can never (zero rate, message larger
//!   than the burst) or should not (pacing lane full) accept the send; it
//!   fails synchronously with a typed `Overload`.
//!
//! All arithmetic is exact integer math on byte·nanoseconds: a bucket
//! holding `level` byte·ns covers `level / 1e9` bytes, refills at
//! `rate_bytes_per_sec` byte·ns per nanosecond and caps at
//! `burst_bytes * 1e9`. Virtual time is shard-invariant, so bucket state
//! — and therefore every Admit/Defer/Shed verdict — is bit-identical
//! across shard counts (asserted by `tests/tenant_isolation.rs`).
//!
//! Tenants with **no policy** are admitted unconditionally and consume
//! nothing: the QoS machinery is invisible until configured.
//!
//! Beside the policies sits each tenant's **WDRR weight**: the drivers'
//! pacing lanes (`knet_core::pace`) read it here when they drain the sends
//! a bucket deferred, so the weight has one home below the registry.

use std::collections::BTreeMap;

use knet_simcore::{Counters, SimTime};

use crate::packet::NicId;

/// Scale factor turning bytes into bucket units (byte·nanoseconds).
const SCALE: u64 = 1_000_000_000;

/// Rate + burst + pacing-lane bound for one tenant (applies per NIC).
#[derive(Clone, Copy, Debug)]
pub struct QosPolicy {
    /// Sustained admission rate. `0` sheds every send (a tenant that may
    /// not transmit).
    pub rate_bytes_per_sec: u64,
    /// Bucket capacity: the largest burst admitted at once. Messages
    /// larger than this can never be admitted and are shed.
    pub burst_bytes: u64,
    /// Max sends parked in a driver pacing lane before admission sheds
    /// instead of deferring (bounds memory under sustained overload).
    pub pace_queue_cap: usize,
}

impl QosPolicy {
    /// Whether a `bytes`-long send is shed whatever its bucket holds: the
    /// tenant may not transmit, or the message exceeds the burst.
    pub fn sheds(&self, bytes: u64) -> bool {
        self.rate_bytes_per_sec == 0
            || bytes.saturating_mul(SCALE) > self.burst_bytes.saturating_mul(SCALE)
    }
}

impl Default for QosPolicy {
    fn default() -> Self {
        QosPolicy {
            rate_bytes_per_sec: 0,
            burst_bytes: 0,
            pace_queue_cap: 256,
        }
    }
}

knet_simcore::counters! {
    /// Per-tenant admission counters (summed across the tenant's NICs).
    pub struct QosTenantStats {
        /// Sends admitted (tokens consumed).
        pub admitted: u64,
        /// Bytes admitted.
        pub admitted_bytes: u64,
        /// Sends deferred into a pacing lane.
        pub deferred: u64,
        /// Sends shed with `Overload`.
        pub shed: u64,
    }
}

/// One bucket: scaled token level plus the instant it was last refilled.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    /// Tokens in byte·ns (≤ burst_bytes * SCALE).
    level: u64,
    last: SimTime,
}

/// The admission verdict for one send.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Admission {
    Admit,
    /// Dry but refilling: re-offer the send at `until`.
    Defer {
        until: SimTime,
    },
    Shed,
}

/// All tenant buckets of a world's NIC layer.
#[derive(Default)]
pub struct QosState {
    policies: BTreeMap<u32, QosPolicy>,
    buckets: BTreeMap<(NicId, u32), Bucket>,
    stats: BTreeMap<u32, QosTenantStats>,
    /// WDRR weights indexed by tenant id (missing → 1).
    weights: Vec<u64>,
}

impl QosState {
    /// Install (or replace) a tenant's policy. Buckets start full: the
    /// first burst is admitted without waiting a refill period.
    pub fn set_policy(&mut self, tenant: u32, policy: QosPolicy) {
        self.policies.insert(tenant, policy);
        self.buckets.retain(|(_, t), _| *t != tenant);
    }

    pub fn policy(&self, tenant: u32) -> Option<QosPolicy> {
        self.policies.get(&tenant).copied()
    }

    /// Install a tenant's WDRR weight (clamped to ≥ 1).
    pub fn set_weight(&mut self, tenant: u32, weight: u64) {
        let i = tenant as usize;
        if self.weights.len() <= i {
            self.weights.resize(i + 1, 1);
        }
        self.weights[i] = weight.max(1);
    }

    /// A tenant's WDRR weight (1 for a tenant never given one).
    pub fn weight(&self, tenant: u32) -> u64 {
        self.weights.get(tenant as usize).copied().unwrap_or(1)
    }

    /// Per-tenant admission counters (zero row for unconfigured tenants).
    pub fn tenant_stats(&self, tenant: u32) -> QosTenantStats {
        self.stats.get(&tenant).copied().unwrap_or_default()
    }

    /// Tenants that have admission state (policy or counters).
    pub fn tenants(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.policies.keys().copied().collect();
        for t in self.stats.keys() {
            if !ids.contains(t) {
                ids.push(*t);
            }
        }
        ids.sort_unstable();
        ids
    }

    /// The merge of all per-tenant rows (the `qos` block of the stats tree).
    pub fn totals(&self) -> QosTenantStats {
        QosTenantStats::merged(self.stats.values().copied())
    }

    /// Offer a `bytes`-long send to `tenant`'s bucket on `nic` at virtual
    /// instant `now`. Admit consumes tokens; Defer/Shed consume nothing.
    pub fn admit(&mut self, nic: NicId, tenant: u32, bytes: u64, now: SimTime) -> Admission {
        let Some(policy) = self.policies.get(&tenant).copied() else {
            return Admission::Admit; // unconfigured tenants ride free
        };
        let stats = self.stats.entry(tenant).or_default();
        if policy.sheds(bytes) {
            stats.shed += 1;
            return Admission::Shed;
        }
        let cost = bytes.saturating_mul(SCALE);
        let burst = policy.burst_bytes.saturating_mul(SCALE);
        let bucket = self.buckets.entry((nic, tenant)).or_insert(Bucket {
            level: burst,
            last: now,
        });
        // Lazy refill in exact integer math: rate byte/s == rate byte·ns/ns.
        let dt = now.saturating_sub(bucket.last).nanos();
        let refill = (policy.rate_bytes_per_sec as u128) * (dt as u128);
        bucket.level = (bucket.level as u128 + refill).min(burst as u128) as u64;
        bucket.last = now;
        if bucket.level >= cost {
            bucket.level -= cost;
            stats.admitted += 1;
            stats.admitted_bytes += bytes;
            return Admission::Admit;
        }
        // Dry: the deficit refills at `rate` byte·ns per ns.
        let deficit = (cost - bucket.level) as u128;
        let rate = policy.rate_bytes_per_sec as u128;
        let wait_ns = deficit.div_ceil(rate).min(u64::MAX as u128) as u64;
        stats.deferred += 1;
        Admission::Defer {
            until: SimTime::from_nanos(now.nanos().saturating_add(wait_ns)),
        }
    }

    /// Return tokens consumed by an `admit` whose send then failed before
    /// reaching the wire (e.g. its peer died while it was parked).
    pub fn refund(&mut self, nic: NicId, tenant: u32, bytes: u64) {
        let Some(policy) = self.policies.get(&tenant).copied() else {
            return;
        };
        if let Some(b) = self.buckets.get_mut(&(nic, tenant)) {
            let burst = policy.burst_bytes.saturating_mul(SCALE);
            b.level = b
                .level
                .saturating_add(bytes.saturating_mul(SCALE))
                .min(burst);
        }
        if let Some(s) = self.stats.get_mut(&tenant) {
            s.admitted = s.admitted.saturating_sub(1);
            s.admitted_bytes = s.admitted_bytes.saturating_sub(bytes);
        }
    }

    /// Record a shed decided outside the bucket (pacing lane full).
    pub fn note_shed(&mut self, tenant: u32) {
        self.stats.entry(tenant).or_default().shed += 1;
    }

    /// Fold one NIC's bucket state into a fingerprint accumulator (tenant
    /// ids, levels, refill instants) — the shard-equivalence hook. The
    /// per-tenant counters stay out (they are world-global partial sums in
    /// a sharded run): a NIC's buckets are the shard-invariant slice, only
    /// ever touched by its owning shard.
    pub fn fingerprint_nic(&self, nic: NicId, mut mix: impl FnMut(u64)) {
        for ((_, tenant), b) in self.buckets.range((nic, u32::MIN)..=(nic, u32::MAX)) {
            mix(*tenant as u64);
            mix(b.level);
            mix(b.last.nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NIC: NicId = NicId(0);

    fn policy(rate: u64, burst: u64) -> QosPolicy {
        QosPolicy {
            rate_bytes_per_sec: rate,
            burst_bytes: burst,
            pace_queue_cap: 16,
        }
    }

    #[test]
    fn unconfigured_tenants_ride_free() {
        let mut q = QosState::default();
        for _ in 0..100 {
            assert_eq!(q.admit(NIC, 7, 1 << 20, SimTime::ZERO), Admission::Admit);
        }
        assert_eq!(q.tenant_stats(7).admitted, 0, "no bookkeeping either");
    }

    #[test]
    fn burst_then_defer_with_exact_refill_instant() {
        let mut q = QosState::default();
        q.set_policy(1, policy(1000, 4096)); // 1000 B/s, 4 KiB burst
        assert_eq!(q.admit(NIC, 1, 4096, SimTime::ZERO), Admission::Admit);
        // Bucket empty; 1000 more bytes need exactly 1 s of refill.
        match q.admit(NIC, 1, 1000, SimTime::ZERO) {
            Admission::Defer { until } => assert_eq!(until.nanos(), 1_000_000_000),
            other => panic!("{other:?}"),
        }
        // At that exact instant the send is admitted.
        let t = SimTime::from_nanos(1_000_000_000);
        assert_eq!(q.admit(NIC, 1, 1000, t), Admission::Admit);
    }

    #[test]
    fn zero_rate_and_over_burst_shed() {
        let mut q = QosState::default();
        q.set_policy(1, policy(0, 4096));
        q.set_policy(2, policy(1000, 64));
        assert_eq!(q.admit(NIC, 1, 1, SimTime::ZERO), Admission::Shed);
        assert_eq!(q.admit(NIC, 2, 65, SimTime::ZERO), Admission::Shed);
        assert_eq!(q.tenant_stats(1).shed, 1);
    }

    #[test]
    fn burst_is_consumed_exactly_at_the_epoch_boundary() {
        // The deferred `until` instant is *exact*: one nanosecond earlier
        // the bucket is still a fraction of a byte short and the send
        // defers again; at `until` it admits and the level lands on the
        // precise remainder (refill − cost), not zero.
        let mut q = QosState::default();
        q.set_policy(1, policy(1000, 4096));
        assert_eq!(q.admit(NIC, 1, 4096, SimTime::ZERO), Admission::Admit);
        let until = match q.admit(NIC, 1, 3000, SimTime::ZERO) {
            Admission::Defer { until } => until,
            other => panic!("{other:?}"),
        };
        assert_eq!(until.nanos(), 3_000_000_000);
        let just_before = SimTime::from_nanos(until.nanos() - 1);
        match q.admit(NIC, 1, 3000, just_before) {
            Admission::Defer { until: u2 } => assert_eq!(u2, until, "still 1ns short"),
            other => panic!("{other:?}"),
        }
        assert_eq!(q.admit(NIC, 1, 3000, until), Admission::Admit);
        // Level after the boundary admit: 3000 s-worth of refill minus the
        // 3000-byte cost = 1ns shy of zero... exactly 0 here because the
        // refill at `until` covers the cost to the nanosecond. The next
        // byte must wait a full 1 ms (1 byte at 1000 B/s).
        match q.admit(NIC, 1, 1, until) {
            Admission::Defer { until: u3 } => {
                assert_eq!(
                    u3.nanos(),
                    until.nanos() + 1_000_000,
                    "bucket hit exactly zero"
                )
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idle_refill_caps_at_burst_exactly() {
        // A bucket left idle for an hour holds exactly `burst`, not an
        // hour of rate: the next over-burst send still sheds and the next
        // burst-sized send drains it to exactly zero.
        let mut q = QosState::default();
        q.set_policy(1, policy(1_000_000, 4096));
        assert_eq!(q.admit(NIC, 1, 4096, SimTime::ZERO), Admission::Admit);
        let hour = SimTime::from_nanos(3_600_000_000_000);
        assert_eq!(q.admit(NIC, 1, 4097, hour), Admission::Shed, "over burst");
        assert_eq!(q.admit(NIC, 1, 4096, hour), Admission::Admit);
        match q.admit(NIC, 1, 1, hour) {
            Admission::Defer { .. } => {}
            other => panic!("the cap was exact, got {other:?}"),
        }
    }

    #[test]
    fn bucket_state_depends_only_on_virtual_time_not_offer_interleaving() {
        // The unit-level half of shard invariance: two worlds offering the
        // same (nic, tenant, bytes, instant) tuples in *different global
        // orders* (as sharded NIC threads would) end with bit-identical
        // per-NIC bucket state, because refill is pure virtual-time
        // arithmetic keyed by (nic, tenant).
        let offers_a = [
            (NicId(0), 1u32, 1000u64, 0u64),
            (NicId(1), 1, 2000, 0),
            (NicId(0), 1, 1000, 500_000_000),
            (NicId(1), 1, 2000, 700_000_000),
            (NicId(0), 2, 4096, 900_000_000),
        ];
        // Same per-NIC subsequences, different global interleaving.
        let offers_b = [
            (NicId(1), 1u32, 2000u64, 0u64),
            (NicId(1), 1, 2000, 700_000_000),
            (NicId(0), 1, 1000, 0),
            (NicId(0), 1, 1000, 500_000_000),
            (NicId(0), 2, 4096, 900_000_000),
        ];
        let run = |offers: &[(NicId, u32, u64, u64)]| {
            let mut q = QosState::default();
            q.set_policy(1, policy(1000, 4096));
            q.set_policy(2, policy(500, 8192));
            for &(nic, t, bytes, at) in offers {
                q.admit(nic, t, bytes, SimTime::from_nanos(at));
            }
            let mut fp = Vec::new();
            q.fingerprint_nic(NicId(0), |v| fp.push(v));
            q.fingerprint_nic(NicId(1), |v| fp.push(v));
            fp
        };
        assert_eq!(run(&offers_a), run(&offers_b));
    }

    #[test]
    fn refund_restores_the_level() {
        let mut q = QosState::default();
        q.set_policy(1, policy(1000, 4096));
        assert_eq!(q.admit(NIC, 1, 4096, SimTime::ZERO), Admission::Admit);
        q.refund(NIC, 1, 4096);
        assert_eq!(q.admit(NIC, 1, 4096, SimTime::ZERO), Admission::Admit);
        assert_eq!(q.tenant_stats(1).admitted, 1, "refund undid the count");
    }
}
