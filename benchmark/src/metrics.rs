//! The benchmark's vocabulary: the six workloads, the nine end-to-end
//! metrics with their regression bounds, and every per-layer metric with
//! its source and the end-to-end metric it is expected to move.
//! `BENCHMARK.json` at the repository root carries the same names, units
//! and bounds; `tests/smoke.rs` holds the two against each other.

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "p2p_small",
        why: "smallest messages on 1024 GM+MX channel pairs: per-message API cost is everything; recovery, QoS, file and RPC layers do nothing",
    },
    WorkloadInfo {
        name: "bulk_lossy",
        why: "16-to-1 incast of 32 kB messages under drop/dup/reorder: bytes and loss recovery decide the result; per-message API cost is noise",
    },
    WorkloadInfo {
        name: "orfs_rw",
        why: "the paper's remote file system over GM and MX, buffered and direct, writes beside reads so a read-path gain that costs writes shows",
    },
    WorkloadInfo {
        name: "kv_failover",
        why: "replicated KV under 1 % loss with the primary killed mid-run: the only workload with RPC retry timers, deadlines and fencing on the blocking path",
    },
    WorkloadInfo {
        name: "tenant_mix",
        why: "the only open loop: four tenant classes with Pareto arrivals, so WDRR lanes, pacing and token buckets work and queues can grow",
    },
    WorkloadInfo {
        name: "ring_1k",
        why: "the p2p_small channel path on 1000 nodes with one endpoint each: scheduler-heap and per-node-state scaling shows, per-endpoint structures do not",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "host: build the world, open every endpoint, run the warm-up; median of the run's set-ups",
    },
    EndToEnd {
        name: "host_ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.15,
        what: "host wall clock: ops of a repetition / its timed region; upper quartile over the run's repetitions (a neighbour on the shared host only ever slows one down)",
    },
    EndToEnd {
        name: "host_s_per_virt_s",
        unit: "s/s",
        better: "lower",
        bound: 0.15,
        what: "host seconds spent per simulated second; lower quartile over the run's repetitions",
    },
    EndToEnd {
        name: "host_peak_heap_mb",
        unit: "MB",
        better: "lower",
        bound: 0.12,
        what: "host: most bytes live on the heap at once, set-up through the fixed repetitions (counting allocator)",
    },
    EndToEnd {
        name: "virt_op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.03,
        what: "virtual time: median op latency of a repetition; median over the fixed repetitions",
    },
    EndToEnd {
        name: "virt_op_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.15,
        what: "virtual time: p99 op latency of a repetition; median over the fixed repetitions (the sample count is printed)",
    },
    EndToEnd {
        name: "virt_goodput_mbps",
        unit: "MB/s",
        better: "higher",
        bound: 0.05,
        what: "virtual time: verified payload bytes delivered to the consumer / span from first submit to last completion of a repetition (headers, acks, retransmissions excluded); median over the fixed repetitions",
    },
    EndToEnd {
        name: "virt_ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.03,
        what: "virtual time: ops completed / the same span; median over the fixed repetitions",
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: "higher",
        bound: 0.02,
        what: "1 - (failed + shed + refused + unresolved) / attempted of a repetition; median over the fixed repetitions; never 0, unlike the failure share it complements",
    },
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// Counter delta over the fixed repetitions, read from public `stats`.
    C,
    /// Span around the benchmark's own call into the layer (traced run).
    T,
    /// Micro-drive of the layer's public functions alone (traced run).
    M,
    /// Virtual-time figure computed by the workload from its own samples.
    V,
}

impl Source {
    pub fn letter(self) -> &'static str {
        match self {
            Source::C => "C",
            Source::T => "T",
            Source::M => "M",
            Source::V => "V",
        }
    }
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
    /// The end-to-end metric (and workload) this number should move.
    pub moves: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Source::{C, M, T, V};

pub const TENANT_CLASSES: [&str; 4] = ["zsock-small", "orfs-4k", "nbd-32k", "rpc-victim"];

pub const PER_LAYER: &[Layer] = &[
    // ---- the benchmark's own bookkeeping
    l("host.allocs_per_op", "allocs/op", "lower", C, "host_ops_per_s, host_peak_heap_mb everywhere"),
    l("host.peak_rss_mb", "MB", "lower", C, "VmHWM of the process: host_peak_heap_mb plus allocator, huge-page and kernel luck"),
    l("knet.fail_share", "ratio", "lower", V, "ok_share: the share over all fixed repetitions pooled, so a repetition gone wrong shows here"),
    l("knet.op_samples", "count", "higher", V, "supports virt_op_p99_us"),
    l("knet.tail_pct", "%", "higher", V, "the percentile virt_op_p99_us could be read at"),
    // ---- simcore
    l("simcore.events_per_op", "events/op", "lower", C, "host_ops_per_s on ring_1k, p2p_small"),
    l("simcore.run_ns_per_event", "ns", "lower", T, "host_ops_per_s on ring_1k, p2p_small"),
    l("simcore.sched_floor_ns_per_event", "ns", "lower", M, "host_ops_per_s on ring_1k, p2p_small"),
    l("simcore.arena_grows", "count", "lower", C, "host.allocs_per_op everywhere"),
    l("simcore.engine_errors", "count", "lower", C, "must be 0"),
    l("simcore.shard2_ops_per_s", "ops/s", "higher", T, "diagnostic, ring_1k traced run only"),
    l("simcore.shard2_speedup", "ratio", "higher", T, "diagnostic, ring_1k traced run only"),
    l("simcore.shard2_epochs", "count", "lower", C, "diagnostic, ring_1k traced run only"),
    l("simcore.shard2_mailbox_injected", "count", "lower", C, "diagnostic, ring_1k traced run only"),
    l("simcore.shard2_events_equal", "bool", "higher", C, "must be 1 on ring_1k"),
    // ---- simos
    l("simos.pagecache_hit_ratio", "ratio", "higher", C, "virt_goodput_mbps on orfs_rw"),
    l("simos.pagecache_evicted", "count", "lower", C, "virt_goodput_mbps on orfs_rw"),
    l("simos.physmem_new_us_per_kframe", "us", "lower", M, "setup_s on ring_1k"),
    // ---- simnic
    l("simnic.tx_packets_per_op", "packets/op", "lower", C, "virt_goodput_mbps on bulk_lossy"),
    l("simnic.wire_bytes_per_payload_byte", "ratio", "lower", C, "virt_goodput_mbps on bulk_lossy"),
    l("simnic.rel_retransmit_ratio", "ratio", "lower", C, "virt_goodput_mbps, virt_op_p99_us on bulk_lossy"),
    l("simnic.rel_timeouts", "count", "lower", C, "virt_op_p99_us on bulk_lossy, kv_failover"),
    l("simnic.rel_fast_retransmits", "count", "higher", C, "virt_op_p99_us on bulk_lossy"),
    l("simnic.rel_sack_repairs", "count", "higher", C, "virt_goodput_mbps on bulk_lossy"),
    l("simnic.rel_spurious_rtos", "count", "lower", C, "virt_goodput_mbps on bulk_lossy"),
    l("simnic.rel_cwnd_cuts", "count", "lower", C, "virt_goodput_mbps on bulk_lossy"),
    l("simnic.rel_nacks", "count", "lower", C, "virt_op_p99_us on bulk_lossy"),
    l("simnic.rel_dup_dropped", "count", "lower", C, "virt_goodput_mbps on bulk_lossy"),
    l("simnic.rel_acks_per_data", "ratio", "lower", C, "virt_goodput_mbps on bulk_lossy"),
    l("simnic.rel_srtt_us", "us", "lower", C, "virt_op_p99_us on bulk_lossy"),
    l("simnic.rel_rto_us", "us", "lower", C, "virt_op_p99_us on bulk_lossy"),
    l("simnic.rx_congestion_drops", "count", "lower", C, "virt_op_p99_us on bulk_lossy"),
    l("simnic.hot_link_retransmit_share", "ratio", "lower", C, "virt_op_p99_us on bulk_lossy (hottest live link's share of all live links' retransmits, world lifetime)"),
    l("simnic.fault_dropped", "count", "lower", C, "input of bulk_lossy, kv_failover"),
    l("simnic.fault_duplicated", "count", "lower", C, "input of bulk_lossy"),
    l("simnic.fault_delayed", "count", "lower", C, "input of bulk_lossy"),
    l("simnic.qos_admitted", "count", "higher", C, "virt_ops_per_s on tenant_mix"),
    l("simnic.qos_deferred", "count", "lower", C, "virt_op_p99_us on tenant_mix"),
    l("simnic.qos_shed", "count", "lower", C, "ok_share on tenant_mix"),
    l("simnic.ttable_ns_per_lookup", "ns", "lower", M, "host_ops_per_s on orfs_rw"),
    // ---- core (channels, registry, registration cache)
    l("core.submit_ns_per_op", "ns", "lower", T, "host_ops_per_s on p2p_small, ring_1k"),
    l("core.drain_ns_per_op", "ns", "lower", T, "host_ops_per_s on p2p_small, ring_1k"),
    l("core.queued_sends_per_op", "ratio", "lower", C, "virt_op_p99_us on tenant_mix, p2p_small"),
    l("core.retried_sends", "count", "lower", C, "virt_op_p99_us on p2p_small"),
    l("core.failed_retries", "count", "lower", C, "ok_share everywhere"),
    l("core.ctx_pool_slots", "count", "lower", C, "host_peak_heap_mb"),
    l("core.parked", "count", "lower", C, "must be 0"),
    l("core.dropped", "count", "lower", C, "must be 0"),
    l("core.regcache_hit_ratio", "ratio", "higher", C, "virt_goodput_mbps on orfs_rw"),
    l("core.regcache_evictions", "count", "lower", C, "virt_goodput_mbps on orfs_rw"),
    l("core.regcache_ns_per_plan", "ns", "lower", M, "host_ops_per_s on orfs_rw"),
    // ---- the two drivers
    l("gm.sends", "count", "lower", C, "virt_op_p50_us on p2p_small"),
    l("gm.unexpected_ratio", "ratio", "lower", C, "virt_op_p50_us on p2p_small"),
    l("gm.pages_registered_per_op", "pages/op", "lower", C, "virt_goodput_mbps on orfs_rw"),
    l("gm.dereg_batches", "count", "lower", C, "virt_goodput_mbps on orfs_rw"),
    l("mx.sends", "count", "lower", C, "virt_op_p50_us on p2p_small"),
    l("mx.unexpected_ratio", "ratio", "lower", C, "virt_goodput_mbps on bulk_lossy"),
    l("mx.rndv_started_per_op", "ratio", "lower", C, "virt_goodput_mbps on orfs_rw"),
    l("mx.copies_avoided_ratio", "ratio", "higher", C, "virt_goodput_mbps on orfs_rw, bulk_lossy"),
    l("mx.pages_pinned_per_op", "pages/op", "lower", C, "virt_goodput_mbps on orfs_rw"),
    // ---- file system and remote file access
    l("simfs.reads", "count", "lower", C, "virt_goodput_mbps on orfs_rw"),
    l("simfs.writes", "count", "lower", C, "virt_goodput_mbps on orfs_rw"),
    l("simfs.ns_per_4k_rw", "ns", "lower", M, "host_ops_per_s on orfs_rw"),
    l("orfs.read_mbps", "MB/s", "higher", V, "virt_goodput_mbps on orfs_rw"),
    l("orfs.write_mbps", "MB/s", "higher", V, "virt_goodput_mbps on orfs_rw"),
    l("orfs.requests_per_syscall", "ratio", "lower", C, "virt_op_p50_us on orfs_rw"),
    l("orfs.dentry_hit_ratio", "ratio", "higher", C, "virt_op_p50_us on orfs_rw"),
    l("orfs.page_hit_ratio", "ratio", "higher", C, "virt_goodput_mbps on orfs_rw"),
    l("orfs.server_errors", "count", "lower", C, "ok_share on orfs_rw"),
    l("orfs.syscall_submit_ns", "ns", "lower", T, "host_ops_per_s on orfs_rw"),
    // ---- RPC and the replicated KV store
    l("rpc.retries_per_call", "ratio", "lower", C, "virt_op_p99_us on kv_failover"),
    l("rpc.failed", "count", "lower", C, "ok_share on kv_failover"),
    l("rpc.deadline_failures", "count", "lower", C, "ok_share on kv_failover"),
    l("rpc.late_replies", "count", "lower", C, "virt_op_p99_us on kv_failover"),
    l("rpc.idem_hits", "count", "lower", C, "virt_op_p99_us on kv_failover"),
    l("rpc.expired_dropped", "count", "lower", C, "ok_share on kv_failover"),
    l("rpc.call_submit_ns", "ns", "lower", T, "host_ops_per_s on kv_failover"),
    l("rpc.codec_ns_per_roundtrip", "ns", "lower", M, "host_ops_per_s on kv_failover"),
    l("kv.reissues_per_op", "ratio", "lower", C, "virt_op_p99_us on kv_failover"),
    l("kv.wrong_epoch", "count", "lower", C, "virt_op_p99_us on kv_failover"),
    l("kv.promotions", "count", "lower", C, "one per shard and repetition on kv_failover"),
    l("kv.failures", "count", "lower", C, "ok_share on kv_failover"),
    l("kv.promotion_us", "us", "lower", V, "virt_op_p99_us on kv_failover"),
    l("kv.blackout_us", "us", "lower", V, "virt_op_p99_us, ok_share on kv_failover"),
    l("kv.get_p99_us", "us", "lower", V, "virt_op_p99_us on kv_failover"),
    l("kv.put_p99_us", "us", "lower", V, "virt_op_p99_us on kv_failover"),
    // ---- the composed world, the open-loop generator, the sharded engine
    l("knet.class_p50_us.zsock-small", "us", "lower", V, "virt_op_p50_us on tenant_mix"),
    l("knet.class_p50_us.orfs-4k", "us", "lower", V, "virt_op_p50_us on tenant_mix"),
    l("knet.class_p50_us.nbd-32k", "us", "lower", V, "reported per class only (throttled)"),
    l("knet.class_p50_us.rpc-victim", "us", "lower", V, "virt_op_p50_us on tenant_mix"),
    l("knet.class_p99_us.zsock-small", "us", "lower", V, "virt_op_p99_us on tenant_mix"),
    l("knet.class_p99_us.orfs-4k", "us", "lower", V, "virt_op_p99_us on tenant_mix"),
    l("knet.class_p99_us.nbd-32k", "us", "lower", V, "reported per class only (throttled)"),
    l("knet.class_p99_us.rpc-victim", "us", "lower", V, "virt_op_p99_us on tenant_mix"),
    l("knet.class_shed.zsock-small", "count", "lower", V, "ok_share on tenant_mix"),
    l("knet.class_shed.orfs-4k", "count", "lower", V, "ok_share on tenant_mix"),
    l("knet.class_shed.nbd-32k", "count", "lower", V, "reported per class only (throttled)"),
    l("knet.class_shed.rpc-victim", "count", "lower", V, "ok_share on tenant_mix"),
    l("knet.p99_us_load50", "us", "lower", V, "virt_op_p99_us on tenant_mix at half load"),
    l("knet.p99_us_load150", "us", "lower", V, "virt_op_p99_us on tenant_mix at 1.5x load"),
    l("knet.load_ok_max_pct", "%", "higher", V, "highest of 50/100/150 % load with pooled p99 <= 1000 us and completed >= 0.99 sent"),
    l("knet.gen_late_us_max", "us", "lower", V, "must be 0: arrivals are virtual-time events"),
    l("knet.build_ms_per_node", "ms", "lower", T, "setup_s on ring_1k"),
    l("knet.trace_overhead_pct", "%", "lower", T, "what the traced run costs over the untraced one"),
    // ---- layers without an end-to-end workload: one pinned virtual number each
    l("coll.barrier_us_64n", "us", "lower", M, "none: pins the collective cost model"),
    l("coll.allreduce_us_64n", "us", "lower", M, "none: pins the collective cost model"),
    l("zsock.pingpong_us_1b", "us", "lower", M, "none: pins the socket cost model"),
    l("zsock.stream_mbps_64k", "MB/s", "higher", M, "none: pins the socket cost model"),
    l("nbd.read_mbps_64k", "MB/s", "higher", M, "none: pins the block-device cost model"),
];

/// Per-layer values gathered during a run, keyed by the names above.
#[derive(Default)]
pub struct LayerValues(Vec<(&'static str, f64)>);

impl LayerValues {
    /// Record `name`; it must be in [`PER_LAYER`] and set once.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((def.name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The value of `name`, 0 for a layer the workload does not touch.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits `BENCHMARK.json` is refused for.
    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} {}", m.name, m.unit);
            assert!(["lower", "higher"].contains(&m.better));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for class in TENANT_CLASSES {
            assert!(PER_LAYER
                .iter()
                .any(|m| m.name == format!("knet.class_p99_us.{class}")));
        }
    }

    #[test]
    fn layer_values_default_to_zero_and_reject_strangers() {
        let mut v = LayerValues::default();
        v.set("kv.failures", 3.0);
        assert_eq!(v.value("kv.failures"), 3.0);
        assert_eq!(v.value("kv.promotions"), 0.0);
        assert!(std::panic::catch_unwind(move || v.set("kv.nonsense", 1.0)).is_err());
    }
}
