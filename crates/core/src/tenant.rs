//! Tenant identity: the ids, names and per-tenant channel counters of the
//! registry's tenant directory.
//!
//! The consumer registry names every endpoint's owner; this module makes
//! that ownership schedulable. A [`TenantId`] is a consumer *group* minted
//! at registry registration ([`TenantTable::create`]) and carried on every
//! send from the channel layer down to the NIC. Each queue on that path
//! has one job: a channel's backpressure queue ([`crate::api`]) is a FIFO
//! waiting for the driver's send tokens, whose entries keep the tenant
//! they were submitted under so the per-tenant counters here stay exact;
//! the pacing lanes of the one seam below both drivers ([`crate::pace`])
//! wait for each tenant's token bucket, one lane per tenant, drained by
//! deficit round robin weighted by the tenant's weight (`knet_simnic::qos`); the
//! NIC's transmit queue (`knet_simnic::txq`) shares the link packet by
//! packet, round robin across tenants.

/// A consumer group sharing one scheduling identity (weight, token
/// bucket, stats row) across every queueing point of the send path.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The implicit tenant of every endpoint that never registered one.
    pub const DEFAULT: TenantId = TenantId(0);
}

knet_simcore::counters! {
    /// Per-tenant channel-layer counters (one row per tenant; the rows sum
    /// to `RegistryStats`' counters of the same four names — every send is
    /// attributed to a minted tenant).
    pub struct TenantSendStats {
        /// Channel sends parked under backpressure.
        pub queued_sends: u64,
        /// Parked sends successfully retried after a `SendDone`.
        pub retried_sends: u64,
        /// Parked sends completed as `SendFailed` (retry failure, eviction,
        /// teardown, dead peer).
        pub failed_retries: u64,
        /// Parked sends withdrawn by `channel_abort_queued_send`.
        pub aborted_queued_sends: u64,
        /// Sends admitted synchronously (straight to the transport).
        pub direct_sends: u64,
    }
}

/// The registry's tenant directory: dense ids, idempotent registration.
pub struct TenantTable {
    names: Vec<String>,
    /// Per-tenant channel-layer counters, indexed by `TenantId.0`.
    pub stats: Vec<TenantSendStats>,
}

impl Default for TenantTable {
    fn default() -> Self {
        // Tenant 0 always exists: the unregistered world's identity.
        TenantTable {
            names: vec!["default".to_string()],
            stats: vec![TenantSendStats::default()],
        }
    }
}

impl TenantTable {
    /// Mint a tenant id (idempotent by name: re-registering returns the
    /// existing id).
    pub fn create(&mut self, name: &str) -> TenantId {
        if let Some(t) = self.lookup(name) {
            return t;
        }
        self.names.push(name.to_string());
        self.stats.push(TenantSendStats::default());
        TenantId(self.names.len() as u32 - 1)
    }

    pub fn count(&self) -> usize {
        self.names.len()
    }

    /// The id minted for `name`, if any (no side effects — the read-only
    /// twin of [`Self::create`]).
    pub fn lookup(&self, name: &str) -> Option<TenantId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| TenantId(i as u32))
    }

    pub fn name(&self, t: TenantId) -> Option<&str> {
        self.names.get(t.0 as usize).map(String::as_str)
    }

    /// Bump a per-tenant counter via `f` (no-op for unknown tenants; the
    /// stats vector is dense so registered tenants always hit).
    pub fn note(&mut self, t: TenantId, f: impl FnOnce(&mut TenantSendStats)) {
        if let Some(s) = self.stats.get_mut(t.0 as usize) {
            f(s);
        }
    }
}
