//! # knet-core — the in-kernel network API (the paper's contribution)
//!
//! The network-agnostic pieces of "An Efficient Network API for in-Kernel
//! Applications in Clusters":
//!
//! * [`iovec`] — the three **address classes** (user virtual / kernel
//!   virtual / physical) of §4.2 and the **vectorial** buffer descriptions
//!   of §4.1, with resolution into DMA-able physical segments;
//! * [`regcache`] — **GMKRC**, the kernel registration cache (§3.2) kept
//!   coherent by VMA SPY notifications;
//! * [`transport`] — the unified endpoint interface the in-kernel
//!   applications (ORFS, zero-copy sockets) are written against, so the same
//!   client code runs over GM and MX exactly as in the paper's evaluation;
//! * [`api`] — the handle-based layer above it: typed **channels**,
//!   **completion queues**, and the **consumer dispatch registry** that
//!   applications register against (no composed-world edits to add a
//!   workload), with API-level coalescing of vectored sends on GM;
//! * [`req`] — the request seam *above* the channel, shared by every
//!   request/response service: the send-context → record map, the
//!   bound-checked staging ring, and the request table (id mint, waiters,
//!   send-failure and peer-death triage);
//! * [`pageio`] — the cached-I/O seam *beside* it, shared by the two
//!   storage clients (ORFS, NBD): the page-cache walk, the page ↔ buffer
//!   copy through one recycled bounce buffer, the page lifecycle (absent /
//!   in flight under exactly one fetch / up to date) with its landing and
//!   abandon rules, and "completion is observed once the charged CPU work
//!   has drained". What still differs between the clients stays in them
//!   and reaches the engine as values: the wire format of a fetch, the run
//!   length (ORFS combines up to `max_combine` pages on MX, NBD fetches
//!   one sector), the EOF clamp (files have a size, devices do not) and
//!   write-back (ORFS marks dirty and flushes on `fsync`) versus
//!   write-through (NBD marks up to date and sends at once);
//! * [`pace`] and [`driver`] — what sits *below* the transport and is the
//!   same for both drivers: the tenant pacing seam between the NIC's token
//!   buckets and a driver's send pipeline; the one completion hook, through
//!   which a driver hands each [`TransportEvent`] straight to the
//!   endpoint's consumer, and the message engine — MTU segmentation,
//!   first-fit matching of posted buffers, reassembly, and the rule for
//!   giving a captured buffer back;
//! * [`error`] — the unified error type.
//!
//! The two drivers implementing this API live in `knet-gm` and `knet-mx`.

pub mod api;
pub mod driver;
pub mod error;
pub mod iovec;
pub mod pace;
pub mod pageio;
pub mod regcache;
pub mod req;
pub mod tenant;
pub mod transport;

pub use api::{
    bind, channel_accept, channel_accept_handler, channel_cancel_recv, channel_close,
    channel_connect, channel_connect_handler, channel_cq, channel_peer, channel_post_recv,
    channel_send, channel_send_to, channel_set_send_queue_cap, ctx_slot, deliver, peer_down,
    release_kernel_buffer, Channel, ChannelId, ConsumerId, CqEntry, CqId, DispatchWorld, Registry,
    RegistryStats, DEFAULT_SEND_QUEUE_CAP,
};
pub use driver::{
    first_fit, host_completion, land, send_chunks, tag_matches, take_first, take_tag, Assembly,
    ChunkSource, CompletionHook, Posted, Reassembly, Route, ScratchStats, ANY_TAG,
};
pub use error::{NetError, RpcError};
pub use iovec::{
    chunk_segments, next_chunk, read_iovec, read_iovec_into, resolve_iovec, resolve_iovec_into,
    seg_window, seg_window_into, write_iovec, AddrClass, ChunkCursor, IoVec, MemRef, Resolution,
    SegList, IOVEC_INLINE_SEGS,
};
pub use pace::{pace_drain, pace_submit, pace_timer_fired, PaceLanes, PacedSend};
pub use regcache::{RangePlan, RegCache, RegCacheStats, RegKey};
pub use req::{channel_send_request, ring_stage, ReqTable, SendMap, StagingRing, REQ_ID_MASK};
pub use tenant::{
    TenantChannelRow, TenantId, TenantInfo, TenantSendStats, TenantTable, WDRR_QUANTUM_BYTES,
};
pub use transport::{Endpoint, TransportEvent, TransportKind, TransportWorld};
