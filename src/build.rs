//! Cluster construction.

use knet_gm::{GmLayer, GmParams};
use knet_mx::{MxLayer, MxParams};
use knet_simnic::{FaultPlan, NicLayer, NicModel, QosPolicy, RelParams};
use knet_simos::{CpuModel, NodeId, OsLayer};
use knet_zsock::{TcpLayer, TcpParams, ZsockLayer, ZsockParams};

use crate::shard::ShardedCluster;
use crate::world::ClusterWorld;

/// Builder for a [`ClusterWorld`]: `n` nodes, one NIC each, full crossbar.
pub struct ClusterBuilder {
    cpus: Vec<CpuModel>,
    nic: NicModel,
    mem_frames: u32,
    gm_params: GmParams,
    mx_params: MxParams,
    zsock_params: ZsockParams,
    tcp_params: TcpParams,
    fault: Option<FaultPlan>,
    rel_params: RelParams,
    tenants: Vec<TenantSpec>,
}

/// A tenant declared at build time: registry name, WDRR weight, and an
/// optional NIC admission policy (`None` ⇒ unthrottled, scheduler-only).
struct TenantSpec {
    name: String,
    weight: u64,
    policy: Option<QosPolicy>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// Two Xeon nodes on PCI-XD cards — the paper's base testbed (§3.1).
    pub fn new() -> Self {
        ClusterBuilder {
            cpus: vec![CpuModel::xeon_2600(), CpuModel::xeon_2600()],
            nic: NicModel::pci_xd(),
            mem_frames: 65_536,
            gm_params: GmParams::default(),
            mx_params: MxParams::default(),
            zsock_params: ZsockParams::default(),
            tcp_params: TcpParams::default(),
            fault: None,
            rel_params: RelParams::default(),
            tenants: Vec::new(),
        }
    }

    /// Declare a tenant (consumer group) with a WDRR `weight` and no NIC
    /// rate limit. Tenant ids are minted in declaration order starting at
    /// 1 (id 0 is the always-present default tenant), identically in every
    /// shard, so sharded runs see the same tenant directory.
    pub fn tenant(mut self, name: &str, weight: u64) -> Self {
        self.tenants.push(TenantSpec {
            name: name.to_string(),
            weight,
            policy: None,
        });
        self
    }

    /// Declare a tenant with a WDRR `weight` **and** a token-bucket policy
    /// at the NIC admission point: sustained `rate_bytes_per_sec` with
    /// `burst_bytes` of credit, sends beyond the rate paced in virtual
    /// time (or shed with `NetError::Overload` once the pacing queue hits
    /// the policy's cap).
    pub fn tenant_limited(
        mut self,
        name: &str,
        weight: u64,
        rate_bytes_per_sec: u64,
        burst_bytes: u64,
    ) -> Self {
        self.tenants.push(TenantSpec {
            name: name.to_string(),
            weight,
            policy: Some(QosPolicy {
                rate_bytes_per_sec,
                burst_bytes,
                ..QosPolicy::default()
            }),
        });
        self
    }

    /// Use `n` identical nodes with the given CPU.
    pub fn nodes(mut self, n: usize, cpu: CpuModel) -> Self {
        self.cpus = vec![cpu; n];
        self
    }

    /// Select the NIC generation (PCI-XD for the file-system figures,
    /// PCI-XE for the socket figures, as in the paper).
    pub fn nic(mut self, nic: NicModel) -> Self {
        self.nic = nic;
        self
    }

    /// Installed memory per node, in 4 kB frames.
    pub fn mem_frames(mut self, frames: u32) -> Self {
        self.mem_frames = frames;
        self
    }

    pub fn gm_params(mut self, p: GmParams) -> Self {
        self.gm_params = p;
        self
    }

    pub fn mx_params(mut self, p: MxParams) -> Self {
        self.mx_params = p;
        self
    }

    pub fn zsock_params(mut self, p: ZsockParams) -> Self {
        self.zsock_params = p;
        self
    }

    pub fn tcp_params(mut self, p: TcpParams) -> Self {
        self.tcp_params = p;
        self
    }

    /// Make the fabric lossy: install a seeded fault plan (drop /
    /// duplicate / delay-reorder dice, one-shot node kills, per-link
    /// overrides). The drivers' reliability windows absorb the injected
    /// faults.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Tune the NIC-level reliability windows: AIMD congestion control,
    /// fast-retransmit threshold, retry budget (see
    /// `knet_simnic::RelParams`). `RelParams::fixed_window()` is the
    /// pre-control-loop sender — the incast bench's baseline.
    pub fn rel_params(mut self, p: RelParams) -> Self {
        self.rel_params = p;
        self
    }

    /// Make one *direction* of one node pair misbehave: install `plan`'s
    /// dice for packets `src → dst` only, leaving the rest of the fabric
    /// on whatever base plan is (or is not) installed. Asymmetric links —
    /// a flaky uplink next to a clean downlink — compose by calling this
    /// repeatedly.
    pub fn fault_link(mut self, src: NodeId, dst: NodeId, plan: FaultPlan) -> Self {
        let base = self.fault.take().unwrap_or_else(|| FaultPlan::new(0));
        self.fault = Some(base.for_link(src, dst, plan));
        self
    }

    /// Build the world.
    pub fn build(self) -> ClusterWorld {
        self.build_one()
    }

    fn build_one(&self) -> ClusterWorld {
        let mut os = OsLayer::new();
        let mut nics = NicLayer::new();
        for cpu in &self.cpus {
            let node = os.add_node(cpu.clone(), self.mem_frames);
            nics.add_nic(node, self.nic.clone());
        }
        if let Some(plan) = &self.fault {
            nics.set_fault_plan(plan.clone());
        }
        nics.rel = knet_simnic::RelState::new(self.rel_params);
        let mut w = ClusterWorld::from_layers(
            os,
            nics,
            GmLayer::new(self.gm_params),
            MxLayer::new(self.mx_params),
            ZsockLayer::new(self.zsock_params),
            TcpLayer::new(self.tcp_params),
        );
        for spec in &self.tenants {
            w.register_tenant(&spec.name, spec.weight, spec.policy);
        }
        w
    }

    /// Build the cluster as `shards` node-partitioned replicas stepped by
    /// the conservative-lookahead parallel engine. The lookahead is the
    /// NIC's wire latency — the minimum delay of any cross-node event —
    /// so sharded execution is bit-identical to `build()` plus the
    /// sequential loop (see `knet_simcore::engine`).
    pub fn build_sharded(self, shards: usize) -> ShardedCluster {
        assert!(shards >= 1, "at least one shard");
        let lookahead = self.nic.wire_latency;
        let worlds = (0..shards).map(|_| self.build_one()).collect();
        ShardedCluster::from_worlds(worlds, lookahead)
    }
}

/// Convenience: the standard two-node world.
pub fn two_nodes() -> (ClusterWorld, NodeId, NodeId) {
    let w = ClusterBuilder::new().build();
    (w, NodeId(0), NodeId(1))
}

/// Convenience: two nodes on PCI-XE cards (the §5.3 socket testbed).
pub fn two_nodes_xe() -> (ClusterWorld, NodeId, NodeId) {
    let w = ClusterBuilder::new().nic(NicModel::pci_xe()).build();
    (w, NodeId(0), NodeId(1))
}
