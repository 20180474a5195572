//! The transport-boundary gate: raw `t_send`/`t_post_recv` calls are the
//! *driver seam*, not the application API. Channels (`knet_core::api`) are
//! the one application-facing send path — batching, GM coalescing and
//! backpressure live there — so nothing above that layer may call the raw
//! transport.
//!
//! Allowed callers: `crates/core` (the channel layer itself), `crates/gm`
//! and `crates/mx` (the drivers), and driver-level integration tests under
//! `tests/`. Every in-kernel service — the socket layer, ORFS and NBD —
//! now attaches through handler-backed channels.
//!
//! This file is the **one table** of the boundaries that only a text search
//! can check (CI runs it with the rest of the suite; it has no grep steps
//! of its own). A boundary that crate visibility can express is not listed
//! here: the per-tenant lane queue (`knet_core::tenant`) is crate-private,
//! so the one pacing seam both drivers share (`knet_core::pace`) and the
//! channel queue are its only possible users — naming it anywhere else is
//! a compile error.
//!
//! The last four entries are not layering boundaries. One is a
//! performance boundary: the registry's and the reliability layer's tables
//! are indexed by the ids this program mints, never searched or SipHashed
//! per event. The other two keep one implementation one: how a message
//! moves (chunking, packet building, matching, reassembly) lives in
//! `knet_core::driver`, and neither driver may grow its own copy back; how
//! a cached page is walked, filled, landed and given back lives in
//! `knet_core::pageio`, and neither storage client may. The last two rows
//! keep deleted things deleted: a driver completion reaches its consumer
//! through one hook, not a driver queue and a dispatch loop; and a
//! calibrated cost that only ever held one value is a constant, not a
//! config field.

use std::fs;
use std::path::Path;

/// Directories that must not contain raw transport calls.
const FORBIDDEN: &[&str] = &[
    "src",
    "examples",
    "crates/zsock",
    "crates/bench",
    "crates/simfs",
    "crates/orfs",
    "crates/nbd",
    "crates/rpc",
    "crates/kv",
];

/// Directories that must not touch the raw reliability packet fields
/// (the sequence/ack/timestamp members of `Packet`): sequencing, SACKing
/// and RTT echoing belong to the NIC-level window (`knet_simnic::rel`) and
/// the two drivers that feed it — everything else sees only the transport
/// contract. (Same idea, one layer down: the reliability seam is as
/// load-bearing as the driver seam. The cumulative ack and the SACK bitmap
/// themselves ride the control stream and never appear as packet fields;
/// the echoed wire-departure timestamp is the one selective-repeat
/// addition to the wire format.)
const REL_FORBIDDEN: &[&str] = &[
    "src",
    "examples",
    "tests",
    "crates/core",
    "crates/zsock",
    "crates/bench",
    "crates/simfs",
    "crates/orfs",
    "crates/nbd",
    "crates/simos",
    "crates/simcore",
    "crates/rpc",
    "crates/kv",
];

fn scan(dir: &Path, patterns: &[String], offenders: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            scan(&path, patterns, offenders);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            for (i, line) in text.lines().enumerate() {
                if patterns.iter().any(|p| line.contains(p.as_str())) {
                    offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
                }
            }
        }
    }
}

fn offenders_for(dirs: &[&str], patterns: &[String]) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offenders = Vec::new();
    for dir in dirs {
        scan(&root.join(dir), patterns, &mut offenders);
    }
    offenders
}

#[test]
fn raw_transport_calls_stay_below_the_channel_layer() {
    let patterns = vec![".t_send(".to_string(), ".t_post_recv(".to_string()];
    let offenders = offenders_for(FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "raw t_send/t_post_recv callers above the channel layer \
         (use channel_send/channel_post_recv):\n{}",
        offenders.join("\n")
    );
}

#[test]
fn reliability_packet_fields_stay_inside_the_window_and_drivers() {
    // Patterns assembled at runtime so this file never matches itself.
    let patterns = vec![
        format!("rel_{}", "seq"),
        format!("rel_{}", "ack"),
        format!("rel_{}", "tsval"),
    ];
    let offenders = offenders_for(REL_FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "raw sequence/ack/timestamp packet fields touched above the \
         reliability window (only knet-simnic's rel module and the gm/mx \
         drivers may):\n{}",
        offenders.join("\n")
    );
}

/// Directories that must not touch the collective tree engine's wire
/// surface: the `0xC?` frame opcodes and the firmware entry points
/// (`coll_inject` / `coll_on_packet`) belong to `knet-simnic`'s tree
/// engine and the two drivers that feed it. Everything above — including
/// `knet-coll`, which is the *control plane* (groups, membership,
/// completion contexts) — speaks `CollCmd`/`CollEvent` and the
/// `CollWorld` seam only.
const COLL_FORBIDDEN: &[&str] = &[
    "src",
    "examples",
    "tests",
    "crates/core",
    "crates/coll",
    "crates/zsock",
    "crates/bench",
    "crates/simfs",
    "crates/orfs",
    "crates/nbd",
    "crates/simos",
    "crates/simcore",
];

/// Directories that must not schedule through the engine's boxed escape
/// hatches. The sharded engine's zero-allocation contract holds because
/// steady-state events are *typed* (`lift_nic`/`lift_gm`/`lift_mx` →
/// `ClusterEv` variants); the old free functions (`at`/`after`/
/// `immediately`) that boxed every closure are gone from `knet_simcore`'s
/// surface and must not come back above it. The composed cluster crate,
/// examples and benches may also not fall back to `BoxEvent` — that type
/// exists for standalone layer test-worlds only.
const ENGINE_FORBIDDEN: &[&str] = &[
    "src",
    "examples",
    "tests",
    "crates/core",
    "crates/coll",
    "crates/gm",
    "crates/mx",
    "crates/simnic",
    "crates/simos",
    "crates/zsock",
    "crates/bench",
    "crates/simfs",
    "crates/orfs",
    "crates/nbd",
];

/// Stricter subset: nothing in the composed cluster paths may even name the
/// boxed-event fallback type.
const BOXEVENT_FORBIDDEN: &[&str] = &["src", "examples", "crates/bench"];

#[test]
fn boxed_event_scheduling_stays_inside_the_engine() {
    // Patterns assembled at runtime so this file never matches itself.
    let patterns = vec![
        format!("knet_simcore::{}(", "at"),
        format!("knet_simcore::{}(", "after"),
        format!("knet_simcore::{}(", "immediately"),
        format!(".sched.{}(", "at"),
        format!(".sched_mut().{}(", "at"),
    ];
    let offenders = offenders_for(ENGINE_FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "raw boxed scheduling above the engine (use typed lift_* events on \
         the hot path, or node-tagged call_at/call_after for cold control \
         code):\n{}",
        offenders.join("\n")
    );

    let patterns = vec![format!("Box{}", "Event")];
    let offenders = offenders_for(BOXEVENT_FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "the boxed-event fallback type leaked into the composed cluster \
         paths (ClusterEv's typed variants are the steady-state contract):\n{}",
        offenders.join("\n")
    );
}

/// The replicated KV store is the tentpole *proof* of the typed RPC layer:
/// every byte it moves must ride `rpc_call` / `rpc_server_reply`, so that
/// deadlines, retry budgets, idempotency keys and typed errors apply to
/// all of its traffic. A raw channel call in `crates/kv` would be a
/// side-channel around every one of those guarantees. (`crates/rpc` is the
/// one consumer of the channel API here — the KV store sits strictly above
/// it.)
#[test]
fn kv_store_speaks_typed_rpc_only() {
    let patterns = vec![
        format!("channel_{}(", "send"),
        format!("channel_{}(", "post_recv"),
        format!("channel_{}(", "connect"),
        format!("channel_{}(", "accept"),
        format!(".t_{}(", "send"),
        format!(".t_{}(", "post_recv"),
    ];
    let offenders = offenders_for(&["crates/kv"], &patterns);
    assert!(
        offenders.is_empty(),
        "the KV store bypassed the typed RPC layer (use rpc_call / \
         rpc_server_reply — deadlines, retries and cancellation live \
         there):\n{}",
        offenders.join("\n")
    );
}

/// The request seam (`knet_core::req`) exists once. Every service above
/// the channel used to carry its own copy of the same plumbing — a
/// send-context → record map, a blind wrap-around staging ring, a
/// request-id mint with its pending map — and the copies drifted (one
/// forgot the peer-death rule, all of them bounded their ring with a
/// `debug_assert`). These are the names the copies went by; none may grow
/// back in a service crate. (The socket layer keeps a ring of its own —
/// *tracked* extents, a different algorithm — so only the map and mint
/// names are fenced there.)
const REQ_SEAM_FORBIDDEN: &[&str] = &["crates/orfs", "crates/nbd", "crates/rpc", "crates/kv"];

#[test]
fn request_plumbing_lives_in_the_shared_seam_only() {
    // Patterns assembled at runtime so this file never matches itself.
    let maps_and_mints = vec![
        format!("tx_{}", "ctxs"),
        format!("tx_{}", "slots"),
        format!("reply_{}", "slots"),
        format!("tx_{}", "inflight"),
        format!("next_{}", "reqid"),
    ];
    let mut everything = maps_and_mints.clone();
    everything.push(format!("fn ring_{}", "reserve"));
    let mut offenders = offenders_for(REQ_SEAM_FORBIDDEN, &everything);
    offenders.extend(offenders_for(&["crates/zsock"], &maps_and_mints));
    assert!(
        offenders.is_empty(),
        "a service re-grew its own request plumbing (use knet_core's \
         SendMap / StagingRing / ReqTable):\n{}",
        offenders.join("\n")
    );
}

/// Directories that must not bypass the WDRR scheduler. The tenant-stamped
/// send entry points (`t_send_t`, `gm_send_t`, `mx_isend_t`) are the seam
/// *below* per-tenant fair queueing: calling them directly would let a
/// caller pick its own tenant id, defeating both isolation and accounting.
/// (The lane queue type itself, which could reorder parked sends, is not
/// nameable outside `knet-core` at all.) Services,
/// examples and integration tests send through channels; only the channel
/// layer (`crates/core`), the two drivers, and the composed world
/// (`src/world.rs`, which implements the `t_send_t` seam) sit below it.
const WDRR_FORBIDDEN: &[&str] = &[
    "examples",
    "tests",
    "crates/coll",
    "crates/zsock",
    "crates/bench",
    "crates/simfs",
    "crates/orfs",
    "crates/nbd",
    "crates/rpc",
    "crates/kv",
];

#[test]
fn tenant_stamped_sends_stay_below_the_wdrr_scheduler() {
    // Patterns assembled at runtime so this file never matches itself.
    let patterns = vec![
        format!(".t_send_{}(", "t"),
        format!("gm_send_{}(", "t"),
        format!("mx_isend_{}(", "t"),
    ];
    let offenders = offenders_for(WDRR_FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "tenant-stamped raw sends above the scheduler (register a tenant, \
         assign the endpoint, and send through the channel API):\n{}",
        offenders.join("\n")
    );
}

/// Directories that must not touch the NIC's physical-lane model. Lane
/// selection (the deficit picker that stripes a flow across a dual-link
/// card) and rx-lane contention (the FIFO-overflow drop model) are
/// properties of the simulated hardware in `knet-simnic`: everything
/// above sees their *effects* only — goodput, `lane_tx` counters,
/// `rx_congestion_drops`, NACKs. A layer that picked its own lane or
/// probed lane occupancy would bake the card's link count into protocol
/// code and break the single-link/dual-link A-B the striping bench runs.
/// (`knet-simcore` defines the lane-bank resource; `knet-simnic` is its
/// one consumer.)
const LANE_FORBIDDEN: &[&str] = &[
    "src",
    "examples",
    "tests",
    "crates/core",
    "crates/coll",
    "crates/gm",
    "crates/mx",
    "crates/zsock",
    "crates/bench",
    "crates/simfs",
    "crates/orfs",
    "crates/nbd",
    "crates/simos",
    "crates/rpc",
    "crates/kv",
];

#[test]
fn physical_lane_model_stays_inside_the_nic_layer() {
    // Patterns assembled at runtime so this file never matches itself.
    let patterns = vec![
        format!("Lane{}", "Bank"),
        format!(".tx.{}(", "acquire"),
        format!(".rx.{}(", "acquire"),
    ];
    let offenders = offenders_for(LANE_FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "NIC lane internals touched above the simulated hardware (lane \
         striping and rx contention belong to knet-simnic; observe them \
         through stats and goodput only):\n{}",
        offenders.join("\n")
    );
}

#[test]
fn collective_opcodes_stay_inside_the_nic_engine_and_drivers() {
    // Patterns assembled at runtime so this file never matches itself.
    let patterns = vec![
        format!("{}_{}_", "COLL", "KIND"),
        format!("coll_{}(", "inject"),
        format!("coll_{}(", "on_packet"),
    ];
    let offenders = offenders_for(COLL_FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "collective frame opcodes / firmware entry points touched above \
         the NIC tree engine (only knet-simnic's coll module and the gm/mx \
         drivers may; go through knet-coll's group API):\n{}",
        offenders.join("\n")
    );
}

/// Every counter is declared once, in the crate that increments it, and
/// read through the composed stats tree (`ClusterWorld::stats()` /
/// `ShardedCluster::stats()`). Two things must not grow back: a flat
/// snapshot function that copies other layers' counters field by field,
/// and fields in `knet-core`'s `api.rs` named after layers the core crate
/// does not own (`rel_*`, `nic_rx_*`, `coll_*`, `engine_*`, `rpc_*`,
/// `qos_*` — the renamed copies the old `RegistryStats` carried).
#[test]
fn counters_are_declared_once_and_read_through_the_stats_tree() {
    // Pattern assembled at runtime so this file never matches itself.
    let patterns = vec![format!("stats_{}", "snapshot")];
    let offenders = offenders_for(&["crates", "src", "tests", "examples"], &patterns);
    assert!(
        offenders.is_empty(),
        "a flat stats snapshot came back (compose the layers' own blocks \
         in WorldStats instead):\n{}",
        offenders.join("\n")
    );

    // `\b(rel|nic_rx|coll|engine|rpc|qos)_\w+\s*:` by hand: the identifier
    // that ends each text run before a colon.
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let foreign_field = |line: &str| {
        let mut runs: Vec<&str> = line.split(':').collect();
        runs.pop(); // what follows the last colon precedes none
        runs.iter().any(|run| {
            let run = run.trim_end();
            let ident = &run[run.rfind(|c| !is_ident(c)).map_or(0, |i| i + 1)..];
            ["rel_", "nic_rx_", "coll_", "engine_", "rpc_", "qos_"]
                .iter()
                .any(|p| ident.len() > p.len() && ident.starts_with(p))
        })
    };
    let api = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/api.rs");
    let text = fs::read_to_string(&api).expect("crates/core/src/api.rs");
    let offenders: Vec<String> = text
        .lines()
        .enumerate()
        .filter(|(_, line)| foreign_field(line))
        .map(|(i, line)| format!("{}:{}: {}", api.display(), i + 1, line.trim()))
        .collect();
    assert!(
        offenders.is_empty(),
        "knet-core names a counter of a layer it does not own (declare it \
         in that layer's stats block):\n{}",
        offenders.join("\n")
    );
}

/// Ids are indices. Every key on the per-event path — endpoint `(kind,
/// idx)`, queue / consumer / channel id, reliability link — is minted
/// densely by this program, so its table is indexed directly or hashed
/// without per-process state (`knet_simcore::{Slab, IdHashMap}`). Two
/// things must not grow back: an endpoint-keyed map in the registry (one
/// search per map per event, where one index of the endpoint table serves
/// them all), and a default-hasher map or set in the registry, the
/// reliability layer, the fault dice or the LRU slab under the
/// translation table and registration cache (SipHash per packet, and an
/// iteration order — and a tombstone pattern — that differs from run to
/// run).
#[test]
fn per_event_tables_are_indexed_by_id_not_searched() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lines_of = |file: &str, bad: &dyn Fn(&str) -> bool| -> Vec<String> {
        let text = fs::read_to_string(root.join(file)).expect(file);
        let hits = text.lines().enumerate().filter(|(_, line)| bad(line));
        hits.map(|(i, line)| format!("{file}:{}: {}", i + 1, line.trim()))
            .collect()
    };
    // Patterns assembled at runtime so this file never matches itself.
    let keyed = [
        format!("BTreeMap<({}", "TransportKind"),
        format!("HashMap<({}", "TransportKind"),
    ];
    let offenders = lines_of("crates/core/src/api.rs", &|line| {
        keyed.iter().any(|p| line.contains(p.as_str()))
    });
    assert!(
        offenders.is_empty(),
        "an endpoint-keyed map is back in the registry (add a field to the \
         endpoint table's record instead):\n{}",
        offenders.join("\n")
    );

    let std_tables = [format!("Hash{}", "Map"), format!("Hash{}", "Set")];
    let default_hasher = |line: &str| {
        std_tables.iter().any(|name| {
            line.match_indices(name.as_str())
                .any(|(at, _)| !line[..at].ends_with("Id"))
        })
    };
    let per_event = [
        "crates/core/src/api.rs",
        "crates/simnic/src/rel.rs",
        "crates/simnic/src/fault.rs",
        "crates/simcore/src/lru.rs",
    ];
    let offenders: Vec<String> = per_event
        .iter()
        .flat_map(|file| lines_of(file, &default_hasher))
        .collect();
    assert!(
        offenders.is_empty(),
        "a default-hasher map or set on the per-event path (index by id, \
         or use knet_simcore::IdHashMap):\n{}",
        offenders.join("\n")
    );
}

/// How a message moves — MTU segmentation, the packet builder, first-fit
/// matching of posted buffers, reassembly and ring staging — is written
/// once, in `knet_core::driver`. A driver that cuts its own chunks, packs
/// its own header, builds its own packet, searches its own receive queue
/// or keeps its own reassembly record has forked the mechanics, and with
/// them the rule for giving a captured buffer back.
#[test]
fn message_mechanics_live_in_the_shared_engine_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let hand_rolled = [
        "MsgHeader::new(",
        "Packet::new(",
        "next_chunk(",
        "RingPool::stage(",
        ".position(|",
        "struct Assembly",
        "EagerAssembly",
        "RndvRecv",
    ];
    let mut offenders = Vec::new();
    for file in ["crates/gm/src/layer.rs", "crates/mx/src/layer.rs"] {
        let text = fs::read_to_string(root.join(file)).expect(file);
        for (i, line) in text.lines().enumerate() {
            if hand_rolled.iter().any(|p| line.contains(p)) {
                offenders.push(format!("{file}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "message mechanics hand-rolled in a driver (use knet_core::driver's \
         Route::send / send_chunks / PostedQueue / Reassembly):\n{}",
        offenders.join("\n")
    );
    // And exactly one chunk loop in the workspace: the cursor is advanced
    // from the shared engine and nowhere else outside its own module.
    let chunkers: Vec<String> = offenders_for(&["crates", "src"], &["next_chunk(".to_string()])
        .into_iter()
        .filter(|hit| !hit.contains("crates/core/src/iovec.rs"))
        .collect();
    assert_eq!(chunkers.len(), 1, "{chunkers:#?}");
    assert!(chunkers[0].contains("crates/core/src/driver.rs"));
}

/// What a storage client does toward the page-cache — the walk, the page ↔
/// buffer copy, marking a landed fetch up to date, evicting an abandoned
/// one, and observing completion once the charged CPU work has drained —
/// is written once, in `knet_core::pageio`. A service that inserts or marks
/// a page itself has forked the lifecycle (absent / in flight under one
/// fetch / up to date), and with it the rule for giving frames back.
/// (Write-back — `dirty_pages`, `peek`, `clear_dirty` — is policy only
/// ORFS has, and stays there.)
#[test]
fn cached_io_lives_in_the_shared_engine_only() {
    let services = ["crates/orfs/src", "crates/nbd/src", "crates/zsock/src"];
    // Patterns assembled at runtime so this file never matches itself.
    let patterns = vec![
        format!("page_cache.{}(", "insert"),
        format!("mark_{}(", "uptodate"),
        format!("mark_{}(", "dirty"),
        format!("free_{}()", "at"),
    ];
    let mut offenders = offenders_for(&services, &patterns);
    let old_walk = vec![format!("fn advance_{}", "buffered")];
    offenders.extend(offenders_for(&["crates/nbd"], &old_walk));
    assert!(
        offenders.is_empty(),
        "page-cache mechanics hand-rolled in a service (use knet_core::pageio's \
         read_step / copy_in / landed / abandoned / when_drained):\n{}",
        offenders.join("\n")
    );
}

/// A driver completion is a `TransportEvent` from the moment the driver
/// creates it and reaches the endpoint's consumer in one call
/// (`knet_core::CompletionHook::complete`). What that replaced must not
/// come back anywhere: the driver-side twin event type, the per-endpoint
/// driver queues with their pop functions, the two world dispatch hooks —
/// nor the other second paths deleted with them: an RPC resolution pushed
/// as a transport event onto a queue, and the receiver ack aggregation no
/// workload ever enabled.
#[test]
fn one_completion_path_from_driver_to_consumer() {
    // Patterns assembled at runtime so this file never matches itself.
    let patterns = vec![
        format!("Driver{}", "Event"),
        format!("gm_next_{}(", "event"),
        format!("mx_next_{}(", "event"),
        format!("gm_{}(", "dispatch"),
        format!("mx_{}(", "dispatch"),
        format!("Rpc{}", "Done"),
        format!("RpcSink::{}", "Cq"),
        format!("RelAck{}", "Flush"),
        format!("ack_{}", "every"),
        format!("ack_{}", "holdoff"),
    ];
    let offenders = offenders_for(&["crates", "src", "tests", "examples"], &patterns);
    assert!(
        offenders.is_empty(),
        "a second completion path grew back (a driver hands each completion \
         to CompletionHook::complete; RPC completions are handler upcalls):\n{}",
        offenders.join("\n")
    );
}

/// The paper's costs are measurements of one testbed, so a value only one
/// configuration ever used is a named constant in the module that owns the
/// cost, not a field every test and benchmark would have to cover. What
/// stays settable is `GmParams::{send_tokens, blocking_notify}` and
/// `RelParams::cc`; the config structs, builder methods and fields below
/// were deleted and must not grow back. So were the RPC layer's backoff
/// knobs and its idempotency reply cache: the layer sends each request
/// once, so there is nothing to space out and no duplicate to answer.
#[test]
fn deleted_knobs_stay_deleted() {
    // Patterns assembled at runtime so this file never matches itself.
    let patterns = vec![
        format!("mx_{}(", "params"),
        format!("zsock_{}(", "params"),
        format!("tcp_{}(", "params"),
        format!("Mx{}", "Params"),
        format!("Zsock{}", "Params"),
        format!("Tcp{}", "Params"),
        format!("Coll{}", "Params"),
        format!("Kv{}", "Config"),
        format!("dupack_{}", "k"),
        format!("probe_{}", "after"),
        format!("base_{}", "backoff"),
        format!("max_{}", "backoff"),
        format!("idem_{}", "capacity"),
        format!("Idem{}", "Cache"),
    ];
    let offenders = offenders_for(&["crates", "src", "tests", "examples"], &patterns);
    assert!(
        offenders.is_empty(),
        "a deleted config knob grew back (use the named constant in the \
         module that owns the cost):\n{}",
        offenders.join("\n")
    );
}
