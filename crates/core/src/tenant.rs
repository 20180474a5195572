//! Tenant identity: the ids, weights and per-tenant channel counters of
//! the registry's tenant directory.
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
//! deficit round robin weighted by the tenant's registered weight; the
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

/// One registered tenant: display name plus WDRR weight.
#[derive(Clone, Debug)]
pub struct TenantInfo {
    pub name: String,
    /// Relative drain weight (clamped to ≥ 1 when scheduling).
    pub weight: u64,
}

/// One per-tenant stats row as surfaced by `Registry::tenant_rows` (the
/// channel-layer half; the composed world merges the NIC-admission half
/// into its own per-tenant rows).
#[derive(Clone, Debug)]
pub struct TenantChannelRow {
    pub id: TenantId,
    pub name: String,
    pub weight: u64,
    pub stats: TenantSendStats,
}

/// The registry's tenant directory: dense ids, idempotent registration.
pub struct TenantTable {
    infos: Vec<TenantInfo>,
    /// Per-tenant channel-layer counters, indexed by `TenantId.0`.
    pub stats: Vec<TenantSendStats>,
}

impl Default for TenantTable {
    fn default() -> Self {
        // Tenant 0 always exists: the unregistered world's identity.
        TenantTable {
            infos: vec![TenantInfo {
                name: "default".to_string(),
                weight: 1,
            }],
            stats: vec![TenantSendStats::default()],
        }
    }
}

impl TenantTable {
    /// Mint a tenant id (idempotent by name: re-registering returns the
    /// existing id without touching its weight).
    pub fn create(&mut self, name: &str, weight: u64) -> TenantId {
        if let Some(i) = self.infos.iter().position(|t| t.name == name) {
            return TenantId(i as u32);
        }
        let id = TenantId(self.infos.len() as u32);
        self.infos.push(TenantInfo {
            name: name.to_string(),
            weight: weight.max(1),
        });
        self.stats.push(TenantSendStats::default());
        id
    }

    pub fn count(&self) -> usize {
        self.infos.len()
    }

    /// The id minted for `name`, if any (no side effects — the read-only
    /// twin of [`Self::create`]).
    pub fn lookup(&self, name: &str) -> Option<TenantId> {
        self.infos
            .iter()
            .position(|t| t.name == name)
            .map(|i| TenantId(i as u32))
    }

    pub fn name(&self, t: TenantId) -> Option<&str> {
        self.infos.get(t.0 as usize).map(|i| i.name.as_str())
    }

    /// The tenant's WDRR weight (1 for unknown tenants).
    pub fn weight(&self, t: TenantId) -> u64 {
        self.infos
            .get(t.0 as usize)
            .map(|i| i.weight.max(1))
            .unwrap_or(1)
    }

    /// Bump a per-tenant counter via `f` (no-op for unknown tenants; the
    /// stats vector is dense so registered tenants always hit).
    pub fn note(&mut self, t: TenantId, f: impl FnOnce(&mut TenantSendStats)) {
        if let Some(s) = self.stats.get_mut(t.0 as usize) {
            f(s);
        }
    }
}
