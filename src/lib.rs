//! # knet — an efficient network API for in-kernel applications in clusters
//!
//! A faithful, functional reproduction of *Goglin, Glück, Vicat-Blanc
//! Primet, "An Efficient Network API for in-Kernel Applications in
//! Clusters" (IEEE Cluster 2005)* as a deterministic discrete-event cluster
//! model in Rust. Real payload bytes move through simulated page tables,
//! page-caches, NIC DMA engines and wires, under a cost model calibrated to
//! the paper's measurements — so both the *correctness* claims (zero-copy,
//! registration-cache coherence) and the *performance* claims (figures 1–8,
//! table 1) are reproducible and testable.
//!
//! Layer map (bottom-up):
//!
//! | crate | role |
//! |---|---|
//! | `knet-simcore` | discrete-event engine, virtual time, timed resources |
//! | `knet-simos`   | CPU cost models, physical memory, address spaces, page-cache, VMA SPY |
//! | `knet-simnic`  | Myrinet-like NIC: DMA, translation table, links, crossbar |
//! | `knet-core`    | the paper's API: address classes, io-vectors, GMKRC, transport, **channels + completion queues + consumer registry**; above the channel, what every request/response service shares: the request seam (`req` — send-context map, staging ring, request table), and beside it what the two storage clients share toward the page-cache: the cached-I/O seam (`pageio` — page walk, copy-in / copy-out, in-flight ownership, landing and abandon rules); below the transport, what both drivers share: the tenant pacing seam (`pace`), and the one completion hook and the message engine — packet builder, MTU chunk loop, first-fit matching, reassembly — (`driver`) |
//! | `knet-gm`      | GM driver: registration, send tokens, kernel port, physical patch |
//! | `knet-mx`      | MX driver: matching, small/medium/large protocols, copy removal |
//! | `knet-simfs`   | ext2-like server file system |
//! | `knet-orfs`    | ORFA/ORFS remote file access (server, user & kernel clients) |
//! | `knet-zsock`   | SOCKETS-GM / SOCKETS-MX + TCP/IP-GigE baseline |
//! | `knet` (this)  | the composed world, builder, benchmark harness, figures |
//!
//! ## How applications attach
//!
//! The composed [`ClusterWorld`] knows no application. Endpoints are opened
//! raw ([`ClusterWorld::open_gm`] / [`ClusterWorld::open_mx`]) and events
//! for them are routed by the **consumer registry** (`knet_core::api`):
//!
//! * in-kernel services (ORFS, NBD, sockets) register an upcall handler at
//!   creation — `server_create`, `client_create`, `sock_create`,
//!   `nbd_*_create` all bind their endpoints themselves; the two storage
//!   clients (ORFS, NBD) additionally share `knet_core::pageio`, the
//!   cached-I/O seam between an op and the node's page-cache. What still
//!   differs between them stays in them: the wire format of a fetch, the
//!   run length (ORFS combines pages on MX, NBD fetches one sector), EOF
//!   (a file has a size to clamp to and to decide read-modify-write from,
//!   a device does not) and write-back (ORFS: dirty, flushed on `fsync`)
//!   versus write-through (NBD: up to date, sent at once);
//! * polling drivers bind endpoints to a **completion queue**
//!   ([`ClusterWorld::open_mx_cq`] / [`ClusterWorld::attach_cq`]) and pop
//!   [`knet_core::CqEntry`]s — queues are indexed per endpoint, so popping
//!   one endpoint's events never scans past the others';
//! * **channels are the one application-facing send path**
//!   (`knet_core::api::channel_connect` / `channel_accept` /
//!   `channel_connect_handler`): connected, tagged, vectored message pipes
//!   that coalesce multi-segment io-vectors on GM and absorb transport
//!   token exhaustion in a bounded backpressure queue retried on every
//!   send completion. Raw `t_send`/`t_post_recv` are the driver seam; nothing
//!   above the channel layer calls them (enforced by
//!   `tests/api_boundaries.rs`).
//!
//! Events arriving at a not-yet-bound endpoint park in the registry and
//! replay when a consumer binds — wiring order never loses traffic.
//!
//! ## Quickstart
//!
//! ```
//! use knet::prelude::*;
//!
//! // Two Xeon nodes on PCI-XD Myrinet, as in the paper's testbed.
//! let (mut w, n0, n1) = knet::build::two_nodes();
//! let cq = w.new_cq();
//! let a = w.open_mx_cq(n0, MxEndpointConfig::kernel(), cq).unwrap();
//! let b = w.open_mx_cq(n1, MxEndpointConfig::kernel(), cq).unwrap();
//! let ka = knet::harness::kbuf(&mut w, n0, 4096);
//! let kb = knet::harness::kbuf(&mut w, n1, 4096);
//! let lat = knet::harness::transport_pingpong_us(&mut w, a, b, ka.iov(1), kb.iov(1), 10);
//! assert!((3.0..6.0).contains(&lat), "MX 1-byte latency ≈ 4.2 µs, got {lat}");
//!
//! // The same endpoints as a typed channel: tagged, vectored sends with
//! // completions on the channel's CQ.
//! let ch = knet_core::api::channel_connect(&mut w, a, b, cq);
//! let ctx = knet_core::api::channel_send(&mut w, ch, 7, ka.iov(64)).unwrap();
//! knet_simcore::run_to_quiescence(&mut w);
//! assert!(matches!(
//!     w.registry.cq_pop_for(cq, a),
//!     Some(CqEntry { event: TransportEvent::SendDone { ctx: c }, .. }) if c == ctx
//! ));
//! ```

pub mod build;
pub mod event;
pub mod figures;
pub mod harness;
pub mod report;
pub mod shard;
pub mod workload;
pub mod world;

pub use build::ClusterBuilder;
pub use event::ClusterEv;
pub use shard::ShardedCluster;
pub use world::{ClusterWorld, TenantStatsRow, WorldStats};

/// Everything needed to script experiments.
pub mod prelude {
    pub use crate::build::{two_nodes, two_nodes_xe, ClusterBuilder};
    pub use crate::harness::{fsops, kbuf, ubuf, KBuf, UBuf};
    pub use crate::world::ClusterWorld;
    pub use knet_coll::{
        channel_barrier, channel_bcast, channel_reduce, group_create, group_join, group_leave,
        CollWorld, GroupId,
    };
    pub use knet_core::api::{
        bind, channel_accept, channel_cancel_recv, channel_close, channel_connect,
        channel_connect_handler, channel_peer, channel_post_recv, channel_send,
        channel_set_send_queue_cap,
    };
    pub use knet_core::{
        ChannelId, ConsumerId, CqEntry, CqId, DispatchWorld, Endpoint, IoVec, MemRef, NetError,
        RpcError, TenantId, TransportEvent, TransportKind,
    };
    pub use knet_gm::{GmParams, GmPortConfig};
    pub use knet_kv::{
        kv_add_shards, kv_check, kv_client_create, kv_fingerprint, kv_get, kv_pair, kv_put,
        kv_replica_create, kv_report_dead, KvClientId, KvOutcome, KvReplicaId, KvResult, KvWorld,
    };
    pub use knet_mx::{MxEndpointConfig, MxOpts};
    pub use knet_orfs::{ClientKind, VfsConfig};
    pub use knet_rpc::{
        rpc_call, rpc_cancel, rpc_client_create, rpc_client_stats, rpc_collect, rpc_server_create,
        rpc_server_reply, rpc_server_stats, RpcCall, RpcCallOpts, RpcClientConfig, RpcClientId,
        RpcCompletion, RpcOutcome, RpcRequest, RpcServerConfig, RpcServerId, RpcSinkFn, RpcWorld,
        CALL_HORIZON,
    };
    pub use knet_simcore::{now, run_to_quiescence, run_until, RunOutcome, SimTime};
    pub use knet_simnic::{CollOp, NicModel, QosPolicy, ReduceOp};
    pub use knet_simos::{Asid, CpuModel, NodeId, PAGE_SIZE};
}
