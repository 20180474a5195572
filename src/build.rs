//! Cluster construction.

use knet_gm::{GmLayer, GmParams};
use knet_simnic::{FaultPlan, NicLayer, NicModel, RelParams};
use knet_simos::{CpuModel, NodeId, OsLayer};

use crate::shard::ShardedCluster;
use crate::world::ClusterWorld;

/// Builder for a [`ClusterWorld`]: `n` nodes, one NIC each, full crossbar.
pub struct ClusterBuilder {
    cpus: Vec<CpuModel>,
    nic: NicModel,
    mem_frames: u32,
    gm_params: GmParams,
    fault: Option<FaultPlan>,
    rel_params: RelParams,
    /// Tenants declared at build time: registry name and WDRR weight.
    tenants: Vec<(String, u64)>,
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
        self.tenants.push((name.to_string(), weight));
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

    /// Change the GM settings a world may vary: the per-port send-token
    /// limit and the blocking-notification cost (see `knet_gm::GmParams`).
    pub fn gm_params(mut self, p: GmParams) -> Self {
        self.gm_params = p;
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

    /// Switch the NIC-level reliability windows' control loop (AIMD
    /// congestion window, fast retransmit, NACK repair; see
    /// `knet_simnic::RelParams`). `RelParams::fixed_window()` is the
    /// pre-control-loop sender — the incast bench's baseline.
    pub fn rel_params(mut self, p: RelParams) -> Self {
        self.rel_params = p;
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
        let mut w = ClusterWorld::from_layers(os, nics, GmLayer::new(self.gm_params));
        for (name, weight) in &self.tenants {
            w.register_tenant(name, *weight, None);
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
