//! The pinned API surface: **every** item of the repository the benchmark
//! touches is named in this file and nowhere else (`tests::surface_is_confined`
//! enforces it). A refactor of the repo knows from this one file what must
//! keep compiling — or what the benchmark has to be taught instead.
//!
//! Two halves: the re-exports the workloads and micro-drives call, and
//! [`snapshot`], which reads every public `stats` field the per-layer
//! counters come from. Each layer is measured from outside; nothing in the
//! program under test is instrumented.

// ---- world construction and the engine ------------------------------------
pub use knet::build::{two_nodes, two_nodes_xe, ClusterBuilder};
pub use knet::figures::{coll_fixture, fs_fixture, CollFixture, FsFixture, FsOpts};
pub use knet::harness::{kbuf, orfs_wait, pattern_byte, sock_pingpong_us, ubuf, KBuf, UBuf};
pub use knet::world::ClusterWorld;
pub use knet::{ClusterEv, ShardedCluster};
pub use knet_simcore::{
    emit_at, now, run_to_quiescence, run_until, RunOutcome, Scheduler, SimEvent, SimTime, SimWorld,
};
pub use knet_simnic::{FaultPlan, NicModel, QosPolicy, ReduceOp, TransKey, TransTable};
pub use knet_simos::{Asid, CpuModel, FrameIdx, NodeId, PhysAddr, PhysMem, VirtAddr, PAGE_SIZE};

// ---- the paper's API: channels and completion queues -----------------------
pub use knet_core::api::{
    channel_accept, channel_accept_handler, channel_connect, channel_connect_handler,
    channel_post_recv, channel_send, channel_send_to,
};
pub use knet_core::{
    ChannelId, CqEntry, CqId, Endpoint, IoVec, NetError, RegCache, RegKey, TransportEvent,
    TransportKind,
};
pub use knet_gm::GmPortConfig;
pub use knet_mx::{MxEndpointConfig, MxEndpointId};

// ---- applications -----------------------------------------------------------
pub use knet_coll::{channel_barrier, channel_bcast, channel_reduce};
pub use knet_kv::{
    kv_add_shards, kv_check, kv_client_create, kv_get, kv_pair, kv_put, kv_replica_create,
    KvClientId, KvOutcome, KvResult,
};
pub use knet_nbd::{
    nbd_client_create, nbd_read_raw, nbd_server_create, nbd_wait, NbdClientId, NbdOp,
};
pub use knet_orfs::{
    op_fsync, op_open, op_read, op_write, ClientKind, OrfsClientId, SysResult, SysRet, SyscallId,
};
pub use knet_rpc::codec::{
    decode_request, decode_response, encode_request, encode_response, ReqHeader, RespHeader,
};
pub use knet_rpc::{RetryPolicy, RpcClientConfig, RpcServerConfig};
pub use knet_simfs::SimFs;
pub use knet_zsock::sock_create;

// ---- reaches into the composed world's public fields ----------------------
// Free functions and methods of the re-exported types above are called by
// the workloads directly; every access *through a field of `ClusterWorld`*
// goes through one of these, so the fields the benchmark depends on are
// listed here too.

/// Entries waiting on a completion queue (all endpoints).
pub fn cq_len(w: &ClusterWorld, cq: CqId) -> usize {
    w.registry.cq_len(cq)
}

/// Pop the oldest entry of a completion queue, whichever endpoint it is for.
pub fn cq_pop(w: &mut ClusterWorld, cq: CqId) -> Option<CqEntry> {
    w.registry.cq_pop(cq)
}

/// Write into a kernel buffer of `node`.
pub fn kwrite(w: &mut ClusterWorld, node: NodeId, addr: VirtAddr, data: &[u8]) {
    w.os.node_mut(node)
        .write_virt(Asid::KERNEL, addr, data)
        .expect("kernel buffer is mapped");
}

/// Read a kernel buffer of `node`.
pub fn kread(w: &ClusterWorld, node: NodeId, addr: VirtAddr, out: &mut [u8]) {
    w.os.node(node)
        .read_virt(Asid::KERNEL, addr, out)
        .expect("kernel buffer is mapped");
}

/// Write into a user mapping.
pub fn uwrite(w: &mut ClusterWorld, buf: &UBuf, offset: u64, data: &[u8]) {
    w.os.node_mut(buf.node)
        .write_virt(buf.asid, buf.addr.add(offset), data)
        .expect("user buffer is mapped");
}

/// Read a user mapping.
pub fn uread(w: &ClusterWorld, buf: &UBuf, offset: u64, out: &mut [u8]) {
    w.os.node(buf.node)
        .read_virt(buf.asid, buf.addr.add(offset), out)
        .expect("user buffer is mapped");
}

/// Drop every page the ORFS client caches of the file behind `fd`, so the
/// next buffered read goes to the server. Returns the pages dropped.
pub fn orfs_drop_cached(w: &mut ClusterWorld, cid: OrfsClientId, fd: u32) -> u64 {
    let client = w.orfs.client(cid);
    let (node, mount) = (client.ep.node, client.mount_id);
    let ino = client.file(fd).expect("open fd").ino;
    let os = w.os.node_mut(node);
    let mut cache = std::mem::take(&mut os.page_cache);
    let dropped = cache
        .evict_file(&mut os.mem, mount, ino)
        .expect("cached pages are evictable");
    os.page_cache = cache;
    dropped
}

/// The bytes of `path` as the (first) ORFS server's file system holds them.
pub fn orfs_server_file(w: &mut ClusterWorld, path: &str, len: usize) -> Vec<u8> {
    let at = now(w);
    let fs = &mut w.orfs.servers[0].fs;
    let ino = fs.lookup_path(path).expect("file exists on the server");
    let mut out = vec![0u8; len];
    let n = fs.read(ino, 0, &mut out, at).expect("server-side read");
    out.truncate(n);
    out
}

/// The KV layer's history: one outcome per resolved op, in completion order.
pub fn kv_outcomes(w: &ClusterWorld) -> &[KvOutcome] {
    &w.kv.outcomes
}

/// KV ops issued but not yet resolved.
pub fn kv_outstanding(w: &ClusterWorld) -> usize {
    w.kv.outstanding_ops()
}

/// `(promotions, acks)` of the KV layer so far — the two edges of a
/// failover blackout.
pub fn kv_failover_edges(w: &ClusterWorld) -> (u64, u64) {
    (w.kv.stats.promotions, w.kv.stats.acks)
}

/// Run until NBD op `op` of client `cid` completes; returns its byte count.
pub fn nbd_await(w: &mut ClusterWorld, cid: NbdClientId, op: NbdOp) -> u64 {
    let done = |w: &ClusterWorld| {
        w.nbd.clients[cid.0 as usize]
            .completed
            .iter()
            .any(|(o, _)| *o == op)
    };
    assert_eq!(
        run_until(w, done),
        RunOutcome::Satisfied,
        "nbd op completes"
    );
    nbd_wait(&mut w.nbd.clients[cid.0 as usize], op)
        .expect("op is completed")
        .expect("nbd op succeeds")
}

macro_rules! counters {
    ($($id:ident),* $(,)?) => {
        /// One cumulative counter read from a public `stats` field (source C).
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(usize)]
        pub enum C { $($id),* }
        pub const COUNTER_NAMES: &[&str] = &[$(stringify!($id)),*];
    };
}

counters! {
    engine_events, engine_arena_grows, engine_errors,
    pagecache_hits, pagecache_misses, pagecache_evicted,
    nic_tx_packets, nic_tx_bytes, nic_rx_congestion_drops,
    rel_data_packets, rel_retransmits, rel_timeouts, rel_fast_retransmits, rel_sack_repairs,
    rel_spurious_rtos, rel_cwnd_cuts, rel_nacks, rel_dup_dropped, rel_acks_sent,
    rel_hot_link_retransmits, rel_live_link_retransmits, rel_srtt_ns, rel_rto_ns,
    fault_dropped, fault_duplicated, fault_delayed,
    qos_admitted, qos_deferred, qos_shed,
    core_queued_sends, core_retried_sends, core_failed_retries, core_ctx_pool_slots,
    core_parked, core_dropped,
    regcache_page_hits, regcache_page_misses, regcache_evictions,
    gm_sends, gm_recvs, gm_unexpected, gm_pages_registered, gm_dereg_batches,
    mx_sends, mx_recvs, mx_unexpected, mx_rndv_started, mx_copies_avoided, mx_pages_pinned,
    simfs_reads, simfs_writes,
    orfs_syscalls, orfs_requests, orfs_dentry_hits, orfs_dentry_misses,
    orfs_page_hits, orfs_page_misses, orfs_server_errors,
    rpc_calls, rpc_retries, rpc_failed, rpc_deadline_failures, rpc_late_replies,
    rpc_idem_hits, rpc_expired_dropped,
    kv_ops, kv_reissues, kv_wrong_epoch, kv_promotions, kv_failures,
}

/// Counters that are a *level* (latest estimate, high-water mark, a view
/// over the links alive right now), not a running total: a delta keeps the
/// later reading instead of subtracting.
const GAUGES: &[C] = &[
    C::rel_srtt_ns,
    C::rel_rto_ns,
    C::core_ctx_pool_slots,
    C::rel_hot_link_retransmits,
    C::rel_live_link_retransmits,
];

/// A reading of every C counter. Plain totals, so two readings subtract
/// and repetitions add — and `selfcheck` compares them with `==`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Counters(Vec<u64>);

impl Default for Counters {
    fn default() -> Self {
        Counters(vec![0; COUNTER_NAMES.len()])
    }
}

impl std::ops::Index<C> for Counters {
    type Output = u64;
    fn index(&self, c: C) -> &u64 {
        &self.0[c as usize]
    }
}

impl std::ops::IndexMut<C> for Counters {
    fn index_mut(&mut self, c: C) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl Counters {
    /// `self += later - earlier` (gauges: `self = later`).
    pub fn add_delta(&mut self, earlier: &Counters, later: &Counters) {
        for (i, acc) in self.0.iter_mut().enumerate() {
            if GAUGES.iter().any(|&g| g as usize == i) {
                *acc = later.0[i];
            } else {
                *acc += later.0[i]
                    .checked_sub(earlier.0[i])
                    .unwrap_or_else(|| panic!("counter {} ran backwards", COUNTER_NAMES[i]));
            }
        }
    }

    /// Fold another repetition's delta in (gauges: the later one wins).
    pub fn add(&mut self, rep: &Counters) {
        self.add_delta(&Counters::default(), rep);
    }

    /// `(name, value)` of every counter, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTER_NAMES.iter().copied().zip(self.0.iter().copied())
    }

    /// `a / b`, 0 when the denominator is.
    pub fn ratio(&self, a: C, b: C) -> f64 {
        ratio(self[a], self[b])
    }
}

pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Read every C counter of a world.
pub fn snapshot(w: &ClusterWorld) -> Counters {
    let mut c = Counters::default();

    let eng = w.engine_stats();
    c[C::engine_events] = eng.executed;
    c[C::engine_arena_grows] = eng.arena_grows;
    c[C::engine_errors] = eng.errors;

    for n in 0..w.os.node_count() {
        let pc = w.os.node(NodeId(n as u32)).page_cache.stats;
        c[C::pagecache_hits] += pc.hits;
        c[C::pagecache_misses] += pc.misses;
        c[C::pagecache_evicted] += pc.evicted;
    }

    for n in 0..w.nics.count() {
        let st = w.nics.get(knet_simnic::NicId(n as u32)).stats;
        c[C::nic_tx_packets] += st.tx_packets;
        c[C::nic_tx_bytes] += st.tx_bytes;
    }
    c[C::nic_rx_congestion_drops] = w.nics.congestion_drops();

    let rel = w.nics.rel.stats;
    c[C::rel_data_packets] = rel.data_packets;
    c[C::rel_retransmits] = rel.retransmits;
    c[C::rel_timeouts] = rel.timeouts;
    c[C::rel_fast_retransmits] = rel.fast_retransmits;
    c[C::rel_sack_repairs] = rel.sack_repairs;
    c[C::rel_spurious_rtos] = rel.spurious_rtos;
    c[C::rel_cwnd_cuts] = rel.cwnd_cuts;
    c[C::rel_nacks] = rel.nacks;
    c[C::rel_dup_dropped] = rel.dup_dropped;
    c[C::rel_acks_sent] = rel.acks_sent;
    c[C::rel_srtt_ns] = rel.srtt_ns;
    c[C::rel_rto_ns] = rel.rto_ns;
    for link in w.rel_link_stats() {
        c[C::rel_hot_link_retransmits] = c[C::rel_hot_link_retransmits].max(link.retransmits);
        c[C::rel_live_link_retransmits] += link.retransmits;
    }

    let fault = w.nics.fault_stats();
    c[C::fault_dropped] = fault.dropped;
    c[C::fault_duplicated] = fault.duplicated;
    c[C::fault_delayed] = fault.delayed;

    let qos = w.nics.qos.totals();
    c[C::qos_admitted] = qos.admitted;
    c[C::qos_deferred] = qos.deferred;
    c[C::qos_shed] = qos.shed;

    let reg = w.registry.stats;
    c[C::core_queued_sends] = reg.queued_sends;
    c[C::core_retried_sends] = reg.retried_sends;
    c[C::core_failed_retries] = reg.failed_retries;
    c[C::core_ctx_pool_slots] = reg.ctx_pool_slots;
    c[C::core_parked] = reg.parked;
    c[C::core_dropped] = reg.dropped;

    for n in 0..w.os.node_count() {
        for port in w.gm.ports_on(NodeId(n as u32)) {
            let p = w.gm.port(port).expect("ports_on yields open ports");
            c[C::gm_sends] += p.stats.sends;
            c[C::gm_recvs] += p.stats.recvs;
            c[C::gm_unexpected] += p.stats.unexpected;
            c[C::gm_pages_registered] += p.stats.pages_registered;
            c[C::gm_dereg_batches] += p.stats.dereg_batches;
            if let Some(rc) = &p.regcache {
                c[C::regcache_page_hits] += rc.stats.page_hits;
                c[C::regcache_page_misses] += rc.stats.page_misses;
                c[C::regcache_evictions] += rc.stats.evictions;
            }
        }
    }

    // MX endpoints are numbered densely and the workloads never close one.
    for id in 0..w.mx.open_endpoints() {
        let e =
            w.mx.ep(MxEndpointId(id as u32))
                .expect("MX endpoint ids are dense while none is closed");
        c[C::mx_sends] += e.stats.sends;
        c[C::mx_recvs] += e.stats.recvs;
        c[C::mx_unexpected] += e.stats.unexpected;
        c[C::mx_rndv_started] += e.stats.rndv_started;
        c[C::mx_copies_avoided] += e.stats.send_copies_avoided + e.stats.recv_copies_avoided;
        c[C::mx_pages_pinned] += e.stats.pages_pinned;
    }

    for s in &w.orfs.servers {
        c[C::simfs_reads] += s.fs.stats.reads;
        c[C::simfs_writes] += s.fs.stats.writes;
        c[C::orfs_server_errors] += s.stats.errors;
    }
    for cl in &w.orfs.clients {
        c[C::orfs_syscalls] += cl.stats.syscalls;
        c[C::orfs_requests] += cl.stats.requests;
        c[C::orfs_dentry_hits] += cl.stats.dentry_hits;
        c[C::orfs_dentry_misses] += cl.stats.dentry_misses;
        c[C::orfs_page_hits] += cl.stats.page_hits;
        c[C::orfs_page_misses] += cl.stats.page_misses;
    }

    let rpc = w.rpc.stats;
    c[C::rpc_calls] = rpc.calls;
    c[C::rpc_retries] = rpc.retries;
    c[C::rpc_failed] = rpc.failed;
    c[C::rpc_idem_hits] = rpc.idem_hits;
    c[C::rpc_expired_dropped] = rpc.expired_dropped;
    for cl in &w.rpc.clients {
        c[C::rpc_deadline_failures] += cl.stats.deadline_failures;
        c[C::rpc_late_replies] += cl.stats.late_replies;
    }

    let kv = w.kv.stats;
    c[C::kv_ops] = kv.puts + kv.gets;
    c[C::kv_reissues] = kv.reissues;
    c[C::kv_wrong_epoch] = kv.wrong_epoch;
    c[C::kv_promotions] = kv.promotions;
    c[C::kv_failures] = kv.failures;

    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned surface is only pinned if no other file reaches into the
    /// repository: outside this file, every `knet` path and every access to
    /// a field of the composed world is a leak.
    #[test]
    fn surface_is_confined() {
        let others = [
            ("main.rs", include_str!("main.rs")),
            ("host.rs", include_str!("host.rs")),
            ("trace.rs", include_str!("trace.rs")),
            ("metrics.rs", include_str!("metrics.rs")),
            ("runner.rs", include_str!("runner.rs")),
            ("micro.rs", include_str!("micro.rs")),
            ("workloads/mod.rs", include_str!("workloads/mod.rs")),
            (
                "workloads/p2p_small.rs",
                include_str!("workloads/p2p_small.rs"),
            ),
            (
                "workloads/bulk_lossy.rs",
                include_str!("workloads/bulk_lossy.rs"),
            ),
            ("workloads/orfs_rw.rs", include_str!("workloads/orfs_rw.rs")),
            (
                "workloads/kv_failover.rs",
                include_str!("workloads/kv_failover.rs"),
            ),
            (
                "workloads/tenant_mix.rs",
                include_str!("workloads/tenant_mix.rs"),
            ),
            ("workloads/ring_1k.rs", include_str!("workloads/ring_1k.rs")),
        ];
        let world_fields = [
            "registry", "os", "nics", "gm", "mx", "orfs", "zsock", "tcp", "nbd", "coll", "rpc",
            "kv", "sched",
        ];
        for (file, src) in others {
            for (n, line) in src.lines().enumerate() {
                let code = line.split("//").next().unwrap_or("");
                let leaks = code.contains("knet::")
                    || code.contains("knet_")
                    || world_fields.iter().any(|f| {
                        code.contains(&format!(".{f}.")) || code.contains(&format!(".{f}["))
                    });
                assert!(!leaks, "{file}:{}: reaches past probe.rs: {line}", n + 1);
            }
        }
    }

    #[test]
    fn deltas_add_and_gauges_keep_the_later_reading() {
        let mut a = Counters::default();
        let mut b = Counters::default();
        a[C::mx_sends] = 10;
        b[C::mx_sends] = 25;
        a[C::rel_srtt_ns] = 900;
        b[C::rel_srtt_ns] = 700;
        let mut acc = Counters::default();
        acc.add_delta(&a, &b);
        acc.add_delta(&a, &b);
        assert_eq!(acc[C::mx_sends], 30);
        assert_eq!(acc[C::rel_srtt_ns], 700);
        assert_eq!(acc.ratio(C::mx_sends, C::gm_sends), 0.0);
        assert_eq!(COUNTER_NAMES[C::kv_failures as usize], "kv_failures");
    }
}
