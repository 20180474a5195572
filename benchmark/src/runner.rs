//! The one procedure every workload is measured by: repeated set-up, the
//! fixed repetitions that fix the virtual numbers, host-only repetitions
//! until the time asked for is used, the output checks, and the reduction
//! of all of it to the named metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::host;
use crate::metrics::{LayerValues, END_TO_END};
use crate::micro;
use crate::probe::{ratio, Counters, C};
use crate::trace::Trace;
use crate::workloads::Workload;

#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Host seconds to spend in timed repetitions (the fixed ones always run).
    pub seconds: f64,
    pub trace: bool,
    /// Percent of the full op counts; below 100 is a smoke run: fixed
    /// repetitions only, one set-up, no micro-drives.
    pub scale: u32,
    pub trace_out: Option<PathBuf>,
}

/// Everything one run measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub broken: u64,
    /// The nine end-to-end metrics, in `END_TO_END` order.
    pub end_to_end: Vec<f64>,
    pub layer: LayerValues,
    /// C-counter totals over the fixed repetitions.
    pub counters: Counters,
    pub allocs: u64,
    pub samples: usize,
    pub violations: Vec<String>,
}

/// Set-ups per untraced run. A fixed count, not a time budget: how many
/// worlds were built and dropped moves the heap's high-water mark, and
/// `host_peak_heap_mb` must not depend on how fast the host happened to be.
const SETUPS: usize = 5;

pub fn run<W: Workload>(args: &Args) -> Outcome {
    let smoke = args.scale < 100;
    let mut tr = Trace::new(args.trace);
    host::reset_peak_heap();

    // ---- set-up, several times: its median is an end-to-end metric
    let setups = if smoke || args.trace { 1 } else { SETUPS };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut world: Option<W> = None;
    for _ in 0..setups {
        drop(world.take());
        let span = tr.enter("setup");
        let t = Instant::now();
        let w = W::setup(args.seed, args.scale, &mut tr);
        setup_s.push(t.elapsed().as_secs_f64());
        tr.exit(span);
        world = Some(w);
    }
    let mut wl = world.expect("at least one set-up");

    // ---- repetitions
    let mut lat: Vec<u64> = Vec::new();
    let mut counters = Counters::default();
    let (mut attempted, mut ok, mut broken, mut bytes, mut allocs, mut samples) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0usize);
    // Per fixed repetition, the five virtual figures and the ok share.
    let mut virt: Vec<[f64; 5]> = Vec::new();
    let mut min_samples = usize::MAX;
    let mut peak_heap_mb = 0.0;
    let mut ops_per_s: Vec<f64> = Vec::new();
    let mut s_per_virt_s: Vec<f64> = Vec::new();
    let (mut traced_wall, mut untraced_wall) = (Vec::new(), Vec::new());
    let mut measured = Duration::ZERO;
    let budget = Duration::from_secs_f64(args.seconds);
    for rep in 0.. {
        let fixed = rep < W::FIXED_REPS;
        let extra = rep.saturating_sub(W::FIXED_REPS);
        // The traced run interleaves untraced repetitions, and needs two of
        // each to put a number on its own overhead.
        let owed = args.trace && !smoke && extra < 4;
        if !fixed && !owed && (smoke || measured >= budget) {
            break;
        }
        if args.trace {
            tr.set_on(fixed || extra % 2 == 1);
        }
        tr.set_rep(rep);
        lat.clear();
        let a0 = host::allocs();
        let span = tr.enter("rep");
        let r = wl.rep(rep, &mut tr, &mut lat);
        tr.exit(span);
        let rep_allocs = host::allocs() - a0;
        let wall = r.wall.as_secs_f64();
        measured += r.wall;
        ops_per_s.push(r.attempted as f64 / wall);
        s_per_virt_s.push(wall / (r.virt_span_ns as f64 / 1e9));
        if tr.on() {
            traced_wall.push(wall);
        } else {
            untraced_wall.push(wall);
        }
        if let Some(s) = r.setup {
            setup_s.push(s.as_secs_f64());
        }
        if fixed {
            lat.sort_unstable();
            let span_us = r.virt_span_ns as f64 / 1e3;
            let tail = host::tail_pct(lat.len()).min(99.0);
            virt.push([
                host::percentile(&lat, 50.0) as f64 / 1e3,
                host::percentile(&lat, tail) as f64 / 1e3,
                r.payload_bytes as f64 / span_us,
                r.ok as f64 / (span_us / 1e6),
                ratio(r.ok, r.attempted),
            ]);
            min_samples = min_samples.min(lat.len());
            samples += lat.len();
            counters.add(&r.counters);
            attempted += r.attempted;
            ok += r.ok;
            broken += r.broken;
            bytes += r.payload_bytes;
            allocs += rep_allocs;
            peak_heap_mb = host::peak_heap_mb();
        }
    }
    tr.set_on(args.trace);
    let reps_run = ops_per_s.len();
    let (ops_q1, ops_median, ops_q3) = host::quartiles(&mut ops_per_s.clone());
    let (spv_q1, _, _) = host::quartiles(&mut s_per_virt_s);

    // ---- output checks
    let mut violations = Vec::new();
    let mut layer = LayerValues::default();
    wl.finish(&mut tr, &mut layer, &mut violations);
    if broken > 0 {
        violations.push(format!("{broken} ops broke the delivery contract"));
    }
    for must_be_zero in [C::engine_errors, C::core_parked, C::core_dropped] {
        if counters[must_be_zero] != 0 {
            violations.push(format!("{must_be_zero:?} = {}", counters[must_be_zero]));
        }
    }
    if W::LOSSLESS {
        for recovery in [
            C::rel_retransmits,
            C::rel_timeouts,
            C::rel_fast_retransmits,
            C::rel_sack_repairs,
            C::rel_spurious_rtos,
            C::rel_cwnd_cuts,
            C::rel_nacks,
            C::rel_dup_dropped,
            C::nic_rx_congestion_drops,
            C::fault_dropped,
            C::fault_duplicated,
            C::fault_delayed,
        ] {
            if counters[recovery] != 0 {
                violations.push(format!(
                    "lossless workload moved {recovery:?} to {}",
                    counters[recovery]
                ));
            }
        }
    }

    // ---- end-to-end. Virtual figures are medians over the fixed
    // repetitions, so one repetition that goes wrong (a failover that
    // collapses) moves a per-layer counter, not the gated number. Host speed
    // is the quartile on the fast side over every repetition: interference
    // from a neighbour on the shared host only ever slows a repetition down,
    // so that quartile tracks the undisturbed speed without resting on one
    // lucky repetition.
    let tail = host::tail_pct(min_samples);
    let virt_median = |i: usize| host::median(&mut virt.iter().map(|v| v[i]).collect::<Vec<_>>());
    let e2e = |name: &str| -> f64 {
        match name {
            "setup_s" => host::median(&mut setup_s.clone()),
            "host_ops_per_s" => ops_q3,
            "host_s_per_virt_s" => spv_q1,
            "host_peak_heap_mb" => peak_heap_mb,
            "virt_op_p50_us" => virt_median(0),
            "virt_op_p99_us" => virt_median(1),
            "virt_goodput_mbps" => virt_median(2),
            "virt_ops_per_s" => virt_median(3),
            "ok_share" => virt_median(4),
            other => unreachable!("no rule for end-to-end metric {other}"),
        }
    };
    let end_to_end: Vec<f64> = END_TO_END.iter().map(|m| e2e(m.name)).collect();

    // ---- per-layer: counters, then spans, then micro-drives
    derive_from_counters(&counters, attempted, bytes, allocs, &mut layer);
    layer.set("host.peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    layer.set("knet.fail_share", 1.0 - ratio(ok, attempted));
    layer.set("knet.op_samples", samples as f64);
    layer.set("knet.tail_pct", tail);
    if args.trace {
        let fixed = 0..W::FIXED_REPS;
        let per_op = |name| tr.self_time(name, &fixed).0 as f64 / attempted.max(1) as f64;
        layer.set(W::SUBMIT_METRIC, per_op("submit"));
        layer.set("core.drain_ns_per_op", per_op("drain"));
        layer.set(
            "simcore.run_ns_per_event",
            tr.self_time("run", &fixed).0 as f64 / counters[C::engine_events].max(1) as f64,
        );
        layer.set(
            "knet.build_ms_per_node",
            tr.self_time("setup", &(0..1)).0 as f64 / 1e6 / wl.nodes() as f64,
        );
        if !smoke {
            let overhead = host::median(&mut traced_wall) / host::median(&mut untraced_wall);
            layer.set("knet.trace_overhead_pct", (overhead - 1.0) * 100.0);
            micro::drive_all(&mut tr, &mut layer);
        }
    }

    eprintln!(
        "{}: host ops/s over the repetitions: q1 {ops_q1:.0} median {ops_median:.0} q3 {ops_q3:.0}",
        W::NAME
    );
    eprintln!(
        "{}: seed {} scale {}%: {} set-ups, {} repetitions ({} fixed), {:.2} s timed; \
         {} latency samples ({} in the smallest repetition: p{} supported, p{} read); {} spans",
        W::NAME,
        args.seed,
        args.scale,
        setup_s.len(),
        reps_run,
        W::FIXED_REPS,
        measured.as_secs_f64(),
        samples,
        min_samples,
        tail,
        tail.min(99.0),
        tr.len(),
    );
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, tr.to_json()) {
            violations.push(format!("cannot write trace to {}: {e}", path.display()));
        }
    }

    Outcome {
        correct: violations.is_empty(),
        attempted,
        broken,
        end_to_end,
        layer,
        counters,
        allocs,
        samples,
        violations,
    }
}

/// The per-layer metrics that are arithmetic on C counters.
fn derive_from_counters(c: &Counters, ops: u64, payload: u64, allocs: u64, out: &mut LayerValues) {
    let per_op = |x: C| ratio(c[x], ops);
    let count = |x: C| c[x] as f64;
    let hit_ratio = |hits: C, misses: C| ratio(c[hits], c[hits] + c[misses]);

    out.set("host.allocs_per_op", ratio(allocs, ops));

    out.set("simcore.events_per_op", per_op(C::engine_events));
    out.set("simcore.arena_grows", count(C::engine_arena_grows));
    out.set("simcore.engine_errors", count(C::engine_errors));

    out.set(
        "simos.pagecache_hit_ratio",
        hit_ratio(C::pagecache_hits, C::pagecache_misses),
    );
    out.set("simos.pagecache_evicted", count(C::pagecache_evicted));

    out.set("simnic.tx_packets_per_op", per_op(C::nic_tx_packets));
    out.set(
        "simnic.wire_bytes_per_payload_byte",
        ratio(c[C::nic_tx_bytes], payload),
    );
    out.set(
        "simnic.rel_retransmit_ratio",
        c.ratio(C::rel_retransmits, C::rel_data_packets),
    );
    out.set("simnic.rel_timeouts", count(C::rel_timeouts));
    out.set(
        "simnic.rel_fast_retransmits",
        count(C::rel_fast_retransmits),
    );
    out.set("simnic.rel_sack_repairs", count(C::rel_sack_repairs));
    out.set("simnic.rel_spurious_rtos", count(C::rel_spurious_rtos));
    out.set("simnic.rel_cwnd_cuts", count(C::rel_cwnd_cuts));
    out.set("simnic.rel_nacks", count(C::rel_nacks));
    out.set("simnic.rel_dup_dropped", count(C::rel_dup_dropped));
    out.set(
        "simnic.rel_acks_per_data",
        c.ratio(C::rel_acks_sent, C::rel_data_packets),
    );
    out.set("simnic.rel_srtt_us", count(C::rel_srtt_ns) / 1e3);
    out.set("simnic.rel_rto_us", count(C::rel_rto_ns) / 1e3);
    out.set(
        "simnic.rx_congestion_drops",
        count(C::nic_rx_congestion_drops),
    );
    out.set(
        "simnic.hot_link_retransmit_share",
        c.ratio(C::rel_hot_link_retransmits, C::rel_live_link_retransmits),
    );
    out.set("simnic.fault_dropped", count(C::fault_dropped));
    out.set("simnic.fault_duplicated", count(C::fault_duplicated));
    out.set("simnic.fault_delayed", count(C::fault_delayed));
    out.set("simnic.qos_admitted", count(C::qos_admitted));
    out.set("simnic.qos_deferred", count(C::qos_deferred));
    out.set("simnic.qos_shed", count(C::qos_shed));

    out.set("core.queued_sends_per_op", per_op(C::core_queued_sends));
    out.set("core.retried_sends", count(C::core_retried_sends));
    out.set("core.failed_retries", count(C::core_failed_retries));
    out.set("core.ctx_pool_slots", count(C::core_ctx_pool_slots));
    out.set("core.parked", count(C::core_parked));
    out.set("core.dropped", count(C::core_dropped));
    out.set(
        "core.regcache_hit_ratio",
        hit_ratio(C::regcache_page_hits, C::regcache_page_misses),
    );
    out.set("core.regcache_evictions", count(C::regcache_evictions));

    out.set("gm.sends", count(C::gm_sends));
    out.set(
        "gm.unexpected_ratio",
        ratio(c[C::gm_unexpected], c[C::gm_unexpected] + c[C::gm_recvs]),
    );
    out.set("gm.pages_registered_per_op", per_op(C::gm_pages_registered));
    out.set("gm.dereg_batches", count(C::gm_dereg_batches));
    out.set("mx.sends", count(C::mx_sends));
    out.set(
        "mx.unexpected_ratio",
        ratio(c[C::mx_unexpected], c[C::mx_unexpected] + c[C::mx_recvs]),
    );
    out.set("mx.rndv_started_per_op", per_op(C::mx_rndv_started));
    out.set(
        "mx.copies_avoided_ratio",
        ratio(c[C::mx_copies_avoided], c[C::mx_sends] + c[C::mx_recvs]),
    );
    out.set("mx.pages_pinned_per_op", per_op(C::mx_pages_pinned));

    out.set("simfs.reads", count(C::simfs_reads));
    out.set("simfs.writes", count(C::simfs_writes));
    out.set(
        "orfs.requests_per_syscall",
        c.ratio(C::orfs_requests, C::orfs_syscalls),
    );
    out.set(
        "orfs.dentry_hit_ratio",
        hit_ratio(C::orfs_dentry_hits, C::orfs_dentry_misses),
    );
    out.set(
        "orfs.page_hit_ratio",
        hit_ratio(C::orfs_page_hits, C::orfs_page_misses),
    );
    out.set("orfs.server_errors", count(C::orfs_server_errors));

    out.set(
        "rpc.retries_per_call",
        c.ratio(C::rpc_retries, C::rpc_calls),
    );
    out.set("rpc.failed", count(C::rpc_failed));
    out.set("rpc.deadline_failures", count(C::rpc_deadline_failures));
    out.set("rpc.late_replies", count(C::rpc_late_replies));
    out.set("rpc.idem_hits", count(C::rpc_idem_hits));
    out.set("rpc.expired_dropped", count(C::rpc_expired_dropped));
    out.set("kv.reissues_per_op", c.ratio(C::kv_reissues, C::kv_ops));
    out.set("kv.wrong_epoch", count(C::kv_wrong_epoch));
    out.set("kv.promotions", count(C::kv_promotions));
    out.set("kv.failures", count(C::kv_failures));
}
