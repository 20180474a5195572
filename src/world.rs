//! `ClusterWorld` — the composed simulation world.
//!
//! Every layer crate exposes its state type plus a capability trait; this is
//! the one place they all meet. `ClusterWorld` implements each trait and
//! routes the upcalls:
//!
//! * `nic_rx` → GM or MX firmware, by packet protocol;
//! * `vma_event` → the GM registration caches (VMA SPY subscribers);
//! * [`CompletionHook::complete`] → each driver completion, a
//!   [`TransportEvent`] from the moment the driver created it, handed to
//!   [`knet_core::api::deliver`], which routes it to whatever consumer
//!   registered for the endpoint — a completion queue for polling drivers,
//!   or an application handler (ORFS, NBD, sockets). The world itself
//!   names no application: new workloads attach through the registry, not
//!   by editing this file.
//! * [`TransportWorld`] (`t_send`/`t_post_recv`) → the owning driver, with
//!   the GM glue inserting GMKRC registration for user-virtual buffers
//!   exactly where the paper's in-kernel clients needed it. This is the
//!   *driver seam*: applications and benchmarks send through channels
//!   (`knet_core::api::channel_send`), never through the raw transport —
//!   enforced by `tests/api_boundaries.rs`.

use knet_coll::{CollLayer, CollWorld};
use knet_core::api::{self, ConsumerId, CqId, Registry};
use knet_core::{
    CompletionHook, DispatchWorld, Endpoint, IoVec, MemRef, NetError, TenantId, TenantSendStats,
    TransportEvent, TransportKind, TransportWorld,
};
use knet_gm::{
    gm_ensure_cached, gm_on_packet, gm_on_vma_event, gm_open_port, gm_provide_receive_buffer,
    gm_send_t, GmEv, GmLayer, GmPortConfig, GmPortId, GmWorld,
};
use knet_kv::{KvEv, KvLayer, KvWorld};
use knet_mx::{
    mx_irecv, mx_isend_t, mx_on_packet, mx_open_endpoint, MxEndpointConfig, MxEndpointId, MxEv,
    MxLayer, MxWorld,
};
use knet_nbd::{NbdLayer, NbdWorld};
use knet_orfs::{OrfsLayer, OrfsWorld};
use knet_rpc::{RpcEv, RpcLayer, RpcWorld};
use knet_simcore::{Counters, Merge, Scheduler, SimWorld};

use crate::event::ClusterEv;
use knet_simnic::{CollCmd, CollEvent, NicEv, NicId, NicLayer, NicWorld, Packet, Proto};
use knet_simos::{NodeId, OsLayer, OsWorld, VmaEvent};
use knet_zsock::{TcpLayer, TcpWorld, ZsockLayer, ZsockWorld};

/// The fully composed world.
pub struct ClusterWorld {
    pub sched: Scheduler<ClusterWorld>,
    pub os: OsLayer,
    pub nics: NicLayer,
    pub gm: GmLayer,
    pub mx: MxLayer,
    pub orfs: OrfsLayer,
    pub zsock: ZsockLayer,
    pub tcp: TcpLayer,
    pub nbd: NbdLayer,
    /// Collective groups (rosters, round counters, completion contexts).
    pub coll: CollLayer,
    /// Typed RPC over channels: call slabs, servers, deadline timers.
    pub rpc: RpcLayer<ClusterWorld>,
    /// Replicated KV store (the RPC layer's proof-of-API consumer).
    pub kv: KvLayer,
    /// Endpoint → consumer dispatch, completion queues, channels.
    pub registry: Registry<ClusterWorld>,
}

impl ClusterWorld {
    pub(crate) fn from_layers(os: OsLayer, nics: NicLayer, gm: GmLayer) -> Self {
        ClusterWorld {
            sched: Scheduler::new(),
            os,
            nics,
            gm,
            mx: MxLayer::default(),
            orfs: OrfsLayer::new(),
            zsock: ZsockLayer::default(),
            tcp: TcpLayer::default(),
            nbd: NbdLayer::new(),
            coll: CollLayer::default(),
            rpc: RpcLayer::new(),
            kv: KvLayer::new(),
            registry: Registry::new(),
        }
    }

    /// Create a completion queue.
    pub fn new_cq(&mut self) -> CqId {
        self.registry.create_cq()
    }

    /// Open a GM port wrapped as a transport endpoint. The endpoint starts
    /// unbound: events park in the registry until a consumer attaches
    /// (application handler or [`Self::attach_cq`]).
    pub fn open_gm(&mut self, node: NodeId, cfg: GmPortConfig) -> Result<Endpoint, NetError> {
        let port = gm_open_port(self, node, cfg)?;
        Ok(Endpoint {
            kind: TransportKind::Gm,
            node,
            idx: port.0,
        })
    }

    /// Open an MX endpoint wrapped as a transport endpoint. Unexpected
    /// delivery is always enabled — the transport contract requires it.
    /// The endpoint starts unbound (see [`Self::open_gm`]).
    pub fn open_mx(&mut self, node: NodeId, cfg: MxEndpointConfig) -> Result<Endpoint, NetError> {
        let ep = mx_open_endpoint(self, node, cfg.with_unexpected_delivery())?;
        Ok(Endpoint {
            kind: TransportKind::Mx,
            node,
            idx: ep.0,
        })
    }

    /// Open a GM endpoint for a polling driver: bound to `cq` on creation.
    pub fn open_gm_cq(
        &mut self,
        node: NodeId,
        cfg: GmPortConfig,
        cq: CqId,
    ) -> Result<Endpoint, NetError> {
        let ep = self.open_gm(node, cfg)?;
        self.attach_cq(ep, cq);
        Ok(ep)
    }

    /// Open an MX endpoint for a polling driver: bound to `cq` on creation.
    pub fn open_mx_cq(
        &mut self,
        node: NodeId,
        cfg: MxEndpointConfig,
        cq: CqId,
    ) -> Result<Endpoint, NetError> {
        let ep = self.open_mx(node, cfg)?;
        self.attach_cq(ep, cq);
        Ok(ep)
    }

    /// Bind an endpoint's events to a completion queue (replacing any
    /// previous consumer; parked events replay into the queue).
    pub fn attach_cq(&mut self, ep: Endpoint, cq: CqId) -> ConsumerId {
        let cid = self.registry.register_cq("driver-cq", cq);
        api::bind(self, ep, cid);
        cid
    }

    /// Pop the next completion-queue event for `ep`.
    pub fn take_event(&mut self, ep: Endpoint) -> Option<TransportEvent> {
        self.registry.take_event(ep)
    }

    /// Drain up to `max` pending events for `ep` from its bound queue into
    /// `out` (cleared first), oldest first — the batched form
    /// ([`Registry::cq_pop_batch`]); one registry access amortizes over a
    /// burst of completions. Returns the number drained.
    pub fn take_events(
        &mut self,
        ep: Endpoint,
        max: usize,
        out: &mut Vec<knet_core::CqEntry>,
    ) -> usize {
        let Some(cq) = self.registry.cq_of(ep) else {
            out.clear();
            return 0;
        };
        self.registry.cq_pop_batch(cq, ep, max, out)
    }

    /// Peek whether a completion-queue event is waiting for `ep`.
    pub fn has_event(&self, ep: Endpoint) -> bool {
        self.registry.has_event(ep)
    }

    /// Install a fault plan on the fabric (see `knet_simnic::FaultPlan`):
    /// seeded drop/duplicate/delay dice plus one-shot node kills, and —
    /// via [`knet_simnic::FaultPlan::for_link`] — per-link asymmetric
    /// overrides with their own independent dice streams. The driver-level
    /// reliability windows absorb the injected faults; an exhausted retry
    /// budget surfaces as `TransportEvent::PeerDown`.
    pub fn set_fault_plan(&mut self, plan: knet_simnic::FaultPlan) {
        self.nics.set_fault_plan(plan);
    }

    /// Every layer's own counter block, composed unrenamed: one read for
    /// tests, figures and benches. Per-object breakdowns stay where they
    /// are ([`Self::rel_link_stats`], [`Self::tenant_stats`], the NICs).
    pub fn stats(&self) -> WorldStats {
        WorldStats {
            engine: self.sched.engine_stats(),
            registry: self.registry.stats,
            nic: self.nics.totals(),
            rel: self.nics.rel.stats,
            fault: self.nics.fault_stats(),
            qos: self.nics.qos.totals(),
            nic_coll: self.nics.coll.stats,
            coll: self.coll.stats,
            rpc: self.rpc.stats,
            kv: self.kv.stats,
        }
    }

    /// The raw engine counters of this world's scheduler shard (the
    /// `engine` block of [`Self::stats`]).
    pub fn engine_stats(&self) -> knet_simcore::EngineStats {
        self.sched.engine_stats()
    }

    /// Per-link reliability counters, one row per live link state,
    /// deterministically ordered — the breakdown behind the aggregate
    /// `rel` block of [`Self::stats`], so a hot link (e.g. a collective tree's
    /// root edge) is attributable instead of averaged away.
    pub fn rel_link_stats(&self) -> Vec<knet_simnic::RelLinkStats> {
        self.nics.rel.link_breakdown()
    }

    /// Register a tenant (idempotent by name): mints the registry id,
    /// installs the WDRR weight in both drivers, and — when `policy` is
    /// given — the token-bucket policy at the NIC admission point.
    pub fn register_tenant(
        &mut self,
        name: &str,
        weight: u64,
        policy: Option<knet_simnic::QosPolicy>,
    ) -> TenantId {
        let t = self.registry.tenant_create(name, weight);
        if let Some(p) = policy {
            self.nics.qos.set_policy(t.0, p);
        }
        self.sync_tenant_weights();
        t
    }

    /// Attribute an endpoint's sends to `tenant` (channels created for it
    /// pick the tenant up; existing channels are re-tagged). `false` — and
    /// no change — for an id [`Self::register_tenant`] never returned.
    pub fn assign_tenant(&mut self, ep: Endpoint, tenant: TenantId) -> bool {
        self.registry.assign_tenant(ep, tenant)
    }

    /// Mirror the registry's tenant weights into the driver pacing
    /// schedulers (both drivers index weights by dense tenant id).
    fn sync_tenant_weights(&mut self) {
        let table = self.registry.tenant_table();
        let weights = (0..table.count()).map(|i| table.weight(TenantId(i as u32)));
        self.gm.paced.tenant_weights = weights.collect();
        self.mx.paced.tenant_weights = self.gm.paced.tenant_weights.clone();
    }

    /// One stats row per tenant: channel-layer queueing counters joined
    /// with the NIC admission counters (summed over the tenant's NICs).
    pub fn tenant_stats(&self) -> Vec<TenantStatsRow> {
        self.registry
            .tenant_rows()
            .into_iter()
            .map(|row| TenantStatsRow {
                id: row.id,
                name: row.name,
                weight: row.weight,
                channel: row.stats,
                qos: self.nics.qos.tenant_stats(row.id.0),
            })
            .collect()
    }

    /// Fold one node's slice of the tenant-visible scheduler and admission
    /// state into a fingerprint accumulator: WDRR lanes of the channels
    /// homed on the node, pacing lanes and token buckets of its NIC. In a
    /// sharded run a node's slice is authoritative only on the owning shard
    /// world, so equivalence tests (`tests/sched_equivalence.rs`) fold node
    /// slices from their owners and get bit-identical results at every
    /// shard count. Mixes nothing when no tenant is configured.
    pub fn tenant_fingerprint_node(&self, node: NodeId, mut mix: impl FnMut(u64)) {
        self.registry.wdrr_fingerprint_node(node.0, &mut mix);
        if let Some(nic) = self.nics.nic_of_node(node) {
            self.gm.paced.fingerprint_nic(nic, &mut mix);
            self.mx.paced.fingerprint_nic(nic, &mut mix);
            self.nics.qos.fingerprint_nic(nic, &mut mix);
        }
    }
}

knet_simcore::counters! {
    /// The composed world's stats tree ([`ClusterWorld::stats`]): one block
    /// per layer, each declared — names, docs and merge kinds — by the crate
    /// that increments it (`nic` and `qos` are its totals over every card
    /// and every tenant; `nic_coll` is the NIC tree engines, `coll` the
    /// group API above them). Merging two trees merges every block, which
    /// is how [`crate::ShardedCluster::stats`] sums its shard worlds.
    pub struct WorldStats {
        pub engine: knet_simcore::EngineStats,
        pub registry: knet_core::RegistryStats,
        pub nic: knet_simnic::NicStats,
        pub rel: knet_simnic::RelStats,
        pub fault: knet_simnic::FaultStats,
        pub qos: knet_simnic::QosTenantStats,
        pub nic_coll: knet_simnic::CollNicStats,
        pub coll: knet_coll::CollApiStats,
        pub rpc: knet_rpc::RpcStats,
        pub kv: knet_kv::KvStats,
    }
}

impl WorldStats {
    /// Where `self` and `other` — one workload and seed at two shard counts
    /// — disagree on a field the partition must not move, as `name: a != b`
    /// lines. That is every running total: high-water marks and gauges
    /// (`rel.srtt_ns`, `rel.rto_ns`) are maxima over the shards, and of the
    /// `engine` block only `executed` and `errors` are partition-free.
    pub fn shard_invariant_diff(&self, other: &WorldStats) -> Vec<String> {
        let fields = self.fields().into_iter().zip(other.fields());
        fields
            .filter(|((name, kind, a), (_, _, b))| {
                let engine_ok = matches!(name.as_str(), "engine.executed" | "engine.errors");
                a != b && *kind == Merge::Total && (engine_ok || !name.starts_with("engine."))
            })
            .map(|((name, _, a), (_, _, b))| format!("{name}: {a} != {b}"))
            .collect()
    }
}

/// Per-tenant observability row surfaced by [`ClusterWorld::tenant_stats`]:
/// the channel layer's queueing counters and the NIC admission point's
/// token-bucket counters, keyed by the registry's tenant directory.
#[derive(Clone, Debug)]
pub struct TenantStatsRow {
    pub id: TenantId,
    pub name: String,
    pub weight: u64,
    pub channel: TenantSendStats,
    pub qos: knet_simnic::QosTenantStats,
}

impl SimWorld for ClusterWorld {
    type Ev = ClusterEv;
    fn sched(&self) -> &Scheduler<Self> {
        &self.sched
    }
    fn sched_mut(&mut self) -> &mut Scheduler<Self> {
        &mut self.sched
    }
}

/// The parallel engine moves whole worlds onto worker threads.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ClusterWorld>();
};

impl OsWorld for ClusterWorld {
    fn os(&self) -> &OsLayer {
        &self.os
    }
    fn os_mut(&mut self) -> &mut OsLayer {
        &mut self.os
    }
    fn vma_event(&mut self, node: NodeId, ev: VmaEvent) {
        // The VMA SPY notifier chain: GM registration caches subscribe.
        gm_on_vma_event(self, node, &ev);
    }
}

impl NicWorld for ClusterWorld {
    fn nics(&self) -> &NicLayer {
        &self.nics
    }
    fn nics_mut(&mut self) -> &mut NicLayer {
        &mut self.nics
    }
    fn lift_nic(ev: NicEv) -> ClusterEv {
        ClusterEv::Nic(ev)
    }
    fn nic_rx(&mut self, nic: NicId, pkt: Packet) {
        match pkt.proto {
            Proto::Gm => gm_on_packet(self, nic, pkt),
            Proto::Mx => mx_on_packet(self, nic, pkt),
            Proto::Raw => {}
        }
    }
    fn nic_link_dead(&mut self, proto: Proto, local: NicId, remote: NicId) {
        // A reliability window exhausted its retry budget. The driver goes
        // first — it fails the sends it still holds toward the dead NIC and
        // gives back what half-arrived messages from it had captured — so a
        // consumer sees `SendFailed` for contexts it still knows, then the
        // one `PeerDown`; then every channel above the driver seam hears of
        // the dead peer, and every collective the dead node was a member of
        // resolves as a typed failure.
        let Ok(kind) = TransportKind::try_from(proto) else {
            return;
        };
        match kind {
            TransportKind::Gm => knet_gm::gm_peer_down(self, local, remote),
            TransportKind::Mx => knet_mx::mx_peer_down(self, local, remote),
        }
        let local_node = self.nics.get(local).node;
        let remote_node = self.nics.get(remote).node;
        api::peer_down(self, kind, local_node, remote_node);
        knet_coll::coll_peer_down(self, kind, remote_node);
    }
    fn coll_event(&mut self, proto: Proto, nic: NicId, ev: CollEvent) {
        let Ok(kind) = TransportKind::try_from(proto) else {
            return;
        };
        let node = self.nics.get(nic).node;
        knet_coll::on_nic_event(self, kind, node, ev);
    }
}

impl CollWorld for ClusterWorld {
    fn coll(&self) -> &CollLayer {
        &self.coll
    }
    fn coll_mut(&mut self) -> &mut CollLayer {
        &mut self.coll
    }
    fn coll_post(&mut self, ep: Endpoint, cmd: CollCmd) -> Result<(), NetError> {
        match ep.kind {
            TransportKind::Gm => knet_gm::gm_coll_post(self, GmPortId(ep.idx), cmd),
            TransportKind::Mx => knet_mx::mx_coll_post(self, MxEndpointId(ep.idx), cmd),
        }
    }
    fn coll_install(
        &mut self,
        ep: Endpoint,
        parent: Option<Endpoint>,
        children: &[Endpoint],
        group: u32,
    ) {
        let Some(nic) = self.nics.nic_of_node(ep.node) else {
            return;
        };
        let parent = parent.and_then(|p| self.nics.nic_of_node(p.node));
        let mut kids: Vec<NicId> = Vec::with_capacity(children.len());
        for c in children {
            if let Some(n) = self.nics.nic_of_node(c.node) {
                kids.push(n);
            }
        }
        self.nics
            .coll
            .install_tree(ep.kind.into(), group, nic, parent, &kids);
    }
    fn coll_uninstall(&mut self, ep: Endpoint, group: u32) {
        if let Some(nic) = self.nics.nic_of_node(ep.node) {
            self.nics.coll.uninstall_tree(ep.kind.into(), group, nic);
        }
    }
    fn coll_purge(&mut self, kind: TransportKind, group: u32) {
        self.nics.coll.purge_group(kind.into(), group);
    }
}

impl RpcWorld for ClusterWorld {
    fn rpc(&self) -> &RpcLayer<Self> {
        &self.rpc
    }
    fn rpc_mut(&mut self) -> &mut RpcLayer<Self> {
        &mut self.rpc
    }
    fn lift_rpc(ev: RpcEv) -> ClusterEv {
        ClusterEv::Rpc(ev)
    }
}

impl KvWorld for ClusterWorld {
    fn kv(&self) -> &KvLayer {
        &self.kv
    }
    fn kv_mut(&mut self) -> &mut KvLayer {
        &mut self.kv
    }
    fn lift_kv(ev: KvEv) -> ClusterEv {
        ClusterEv::Kv(ev)
    }
}

impl DispatchWorld for ClusterWorld {
    fn registry(&self) -> &Registry<Self> {
        &self.registry
    }
    fn registry_mut(&mut self) -> &mut Registry<Self> {
        &mut self.registry
    }
}

impl CompletionHook for ClusterWorld {
    fn complete(&mut self, ep: Endpoint, ev: TransportEvent) {
        api::deliver(self, ep, ev);
    }
}

impl GmWorld for ClusterWorld {
    fn gm(&self) -> &GmLayer {
        &self.gm
    }
    fn gm_mut(&mut self) -> &mut GmLayer {
        &mut self.gm
    }
    fn lift_gm(ev: GmEv) -> ClusterEv {
        ClusterEv::Gm(ev)
    }
}

impl MxWorld for ClusterWorld {
    fn mx(&self) -> &MxLayer {
        &self.mx
    }
    fn mx_mut(&mut self) -> &mut MxLayer {
        &mut self.mx
    }
    fn lift_mx(ev: MxEv) -> ClusterEv {
        ClusterEv::Mx(ev)
    }
}

impl TransportWorld for ClusterWorld {
    fn t_send(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        tag: u64,
        iov: IoVec,
        ctx: u64,
    ) -> Result<(), NetError> {
        self.t_send_t(from, to, tag, iov, ctx, TenantId::DEFAULT)
    }

    fn t_send_t(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        tag: u64,
        iov: IoVec,
        ctx: u64,
        tenant: TenantId,
    ) -> Result<(), NetError> {
        match from.kind {
            TransportKind::Mx => mx_isend_t(
                self,
                MxEndpointId(from.idx),
                MxEndpointId(to.idx),
                tag,
                &iov,
                ctx,
                tenant,
            ),
            TransportKind::Gm => {
                // GM is not vectorial (§4.1): single-segment sends only.
                // The channel layer (`knet_core::api::channel_send`)
                // coalesces above this point; raw callers see the driver's
                // real contract.
                if iov.seg_count() != 1 {
                    return Err(NetError::Unsupported);
                }
                let seg = iov.segs()[0];
                let port = GmPortId(from.idx);
                match seg {
                    // On-the-fly registration through GMKRC for pageable
                    // memory.
                    MemRef::UserVirtual { asid, addr, len } => {
                        if self.gm.port(port)?.regcache.is_some() {
                            gm_ensure_cached(self, port, asid, addr, len)?;
                        }
                    }
                    // Stock GM (no physical-address patch) needs kernel
                    // buffers registered too; the cache absorbs the cost the
                    // same way (the channel layer's coalescing staging
                    // buffers take this path).
                    MemRef::KernelVirtual { addr, len } => {
                        let p = self.gm.port(port)?;
                        if p.regcache.is_some() && !p.physical_api {
                            gm_ensure_cached(self, port, knet_simos::Asid::KERNEL, addr, len)?;
                        }
                    }
                    MemRef::Physical { .. } => {}
                }
                gm_send_t(self, port, seg, GmPortId(to.idx), tag, ctx, tenant)
            }
        }
    }

    fn t_post_recv(
        &mut self,
        ep: Endpoint,
        tag: u64,
        iov: IoVec,
        ctx: u64,
    ) -> Result<(), NetError> {
        match ep.kind {
            TransportKind::Mx => mx_irecv(self, MxEndpointId(ep.idx), tag, &iov, ctx),
            TransportKind::Gm => {
                let port = GmPortId(ep.idx);
                for seg in iov.segs() {
                    if let MemRef::UserVirtual { asid, addr, len } = *seg {
                        if self.gm.port(port)?.regcache.is_some() {
                            gm_ensure_cached(self, port, asid, addr, len)?;
                        }
                    }
                }
                gm_provide_receive_buffer(self, port, &iov, tag, ctx)
            }
        }
    }

    fn t_cancel_recv(&mut self, ep: Endpoint, tag: u64) -> bool {
        match ep.kind {
            TransportKind::Mx => knet_mx::mx_cancel_recv(self, MxEndpointId(ep.idx), tag),
            TransportKind::Gm => knet_gm::gm_cancel_receive_buffer(self, GmPortId(ep.idx), tag),
        }
    }
}

impl OrfsWorld for ClusterWorld {
    fn orfs(&self) -> &OrfsLayer {
        &self.orfs
    }
    fn orfs_mut(&mut self) -> &mut OrfsLayer {
        &mut self.orfs
    }
}

impl ZsockWorld for ClusterWorld {
    fn zsock(&self) -> &ZsockLayer {
        &self.zsock
    }
    fn zsock_mut(&mut self) -> &mut ZsockLayer {
        &mut self.zsock
    }
}

impl TcpWorld for ClusterWorld {
    fn tcp(&self) -> &TcpLayer {
        &self.tcp
    }
    fn tcp_mut(&mut self) -> &mut TcpLayer {
        &mut self.tcp
    }
}

impl NbdWorld for ClusterWorld {
    fn nbd(&self) -> &NbdLayer {
        &self.nbd
    }
    fn nbd_mut(&mut self) -> &mut NbdLayer {
        &mut self.nbd
    }
}
