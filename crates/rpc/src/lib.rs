//! # knet-rpc — typed request/response on top of channels
//!
//! Everything above the channel layer (ORFS, NBD, the socket servers) had
//! re-invented request/response correlation, timeout handling and failure
//! recovery by hand. This crate hosts those semantics once, as shared
//! infrastructure (the NetKernel argument), directly on the channel/CQ
//! API:
//!
//! * **schema-versioned codec** ([`codec`]): request/response frames over
//!   a transport trait, loopback-testable without a world;
//! * **correlation ids** from a generation-tagged call slab — a late or
//!   duplicated reply can never resolve the wrong call;
//! * **virtual-time deadlines with propagation**: the caller's absolute
//!   deadline rides the wire, so servers drop work that arrives (or
//!   un-defers) already expired instead of answering the dead, and the
//!   client enforces the deadline locally with a typed engine event
//!   ([`RpcEv::Deadline`] via [`RpcWorld::lift_rpc`] — allocation-free in
//!   the composed world), reaching into the send-backpressure queue
//!   (`channel_abort_queued_send`) when the request never left the node;
//! * **typed cancellation** ([`rpc_cancel`]): withdraws the posted
//!   receive under the channel layer's cancel-vs-completion rule and
//!   resolves racing completions deterministically (a matched in-flight
//!   completion quarantines the call slot until it drains — buffers are
//!   never reused under an active transfer);
//! * **no second failure detector**: each request is sent exactly once.
//!   Packet loss is repaired below, by the NIC's reliability layer, and
//!   peer death is declared there too (`api::peer_down`, surfacing as the
//!   channel's `PeerDown`). A call with no caller deadline is bounded by
//!   [`CALL_HORIZON`], derived from that layer's own give-up budget, so it
//!   can never hang;
//! * **typed errors** ([`RpcError`]) instead of hangs: every submitted
//!   call resolves with exactly one completion — reply, `Deadline`,
//!   `Cancelled`, `PeerUnreachable` (the peer was declared dead),
//!   `VersionMismatch` or `Overload` (shed by the server). Consumers that
//!   want another attempt (the `knet-kv` store) reissue themselves.
//!
//! Completions surface as a typed upcall ([`RpcCompletion`]) into the
//! handler the client was created with (the `knet-kv` store, benches,
//! tests) — an RPC resolution is not a transport event.
//! The warm path performs zero heap allocations: call slots, per-slot
//! request/response buffers, encode scratch, send contexts and timer
//! events are all pooled and recycled (`tests/hotpath_alloc.rs` pins
//! this down).

pub mod codec;

use std::sync::Arc;

use knet_core::api::{
    channel_abort_queued_send, channel_accept_handler, channel_cancel_recv,
    channel_connect_handler, channel_post_recv, channel_send, channel_send_to, DispatchWorld,
};
use knet_core::{
    ring_stage, ChannelId, Endpoint, IoVec, MemRef, NetError, RpcError, SendMap, StagingRing,
    TransportEvent,
};
use knet_simcore::{emit_at, now, SimEvent, SimTime};
use knet_simnic::rel;
use knet_simos::{Asid, NodeId, VirtAddr};

use codec::{
    decode_request, decode_response, encode_request, encode_response, ReqHeader, RespHeader,
    NO_DEADLINE, REQ_HEADER_LEN, RESP_HEADER_LEN, RPC_SCHEMA_VERSION,
};

pub use codec::{Loopback, RpcTransport};
pub use knet_core::RpcError as Error;

// --------------------------------------------------------------- identifiers

/// Identifier of an RPC client instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RpcClientId(pub u32);

/// Identifier of an RPC server instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RpcServerId(pub u32);

/// A call handle: the generation-tagged correlation id (`gen << 32 |
/// slot`) minted by the client's call slab. It doubles as the wire tag of
/// the request, the reply and the posted receive, so the transport's tag
/// matching *is* the correlation step.
pub type RpcCall = u64;

fn corr_of(slot: u32, gen: u32) -> u64 {
    ((gen as u64) << 32) | slot as u64
}

fn corr_slot(corr: u64) -> u32 {
    (corr & 0xFFFF_FFFF) as u32
}

fn corr_gen(corr: u64) -> u32 {
    (corr >> 32) as u32
}

/// How long a call without a caller deadline waits for its reply before it
/// resolves [`RpcError::Deadline`]: `rel::MAX_RETRIES + 1` unanswered
/// questions, each at most `rel::MAX_RTO` apart — the longest silence a
/// live link can show before the reliability layer itself declares the
/// peer dead. Past it, either `PeerDown` has already resolved the call or
/// the peer is alive and not answering. Local only: the wire still
/// carries `NO_DEADLINE`, so the server keeps no clock for the caller.
pub const CALL_HORIZON: SimTime =
    SimTime::from_nanos((rel::MAX_RETRIES as u64 + 1) * rel::MAX_RTO.nanos());

// -------------------------------------------------------------- typed events

/// The RPC layer's typed engine events. The composed world lifts these
/// into its event enum ([`RpcWorld::lift_rpc`]) so the timers move
/// through the scheduler's recycled arena with zero heap allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RpcEv {
    /// A call's virtual-time deadline fired. The call's generation makes
    /// a stale timer (call already resolved, slot maybe reused) a no-op.
    Deadline { client: u32, slot: u32, gen: u32 },
    /// The client's one horizon timer fired: every call without a caller
    /// deadline that has waited [`CALL_HORIZON`] resolves `Deadline`, and
    /// the timer re-arms at the earliest horizon still pending.
    Horizon { client: u32 },
}

/// Execute one RPC-layer event.
pub fn run_rpc_ev<W: RpcWorld>(w: &mut W, ev: RpcEv) {
    match ev {
        RpcEv::Deadline { client, slot, gen } => on_deadline(w, RpcClientId(client), slot, gen),
        RpcEv::Horizon { client } => on_horizon(w, RpcClientId(client)),
    }
}

/// World capability: hosts the RPC layer.
pub trait RpcWorld: DispatchWorld {
    fn rpc(&self) -> &RpcLayer<Self>;
    fn rpc_mut(&mut self) -> &mut RpcLayer<Self>;

    /// Wrap an RPC event into the world's typed event enum. The default
    /// boxes a closure (fine for unit worlds); the composed cluster world
    /// overrides it with a zero-allocation enum variant.
    fn lift_rpc(ev: RpcEv) -> <Self as knet_simcore::SimWorld>::Ev {
        SimEvent::from_call(Box::new(move |w: &mut Self| run_rpc_ev(w, ev)))
    }
}

// ------------------------------------------------------------------- options

/// Inert: the layer never retransmits and reads neither field. It is kept
/// only so that configurations written against the old retry engine (the
/// `benchmark/` package) still compile; delete it with them.
#[derive(Clone, Copy, Debug, Default)]
pub struct RetryPolicy {
    pub max_attempts: u32,
    pub attempt_timeout: SimTime,
}

/// Options for one call.
#[derive(Clone, Copy, Debug, Default)]
pub struct RpcCallOpts {
    /// Absolute virtual-time deadline, propagated on the wire. `None` =
    /// bounded locally by [`CALL_HORIZON`]. A deadline already expired at
    /// submit resolves [`RpcError::Deadline`] through the normal
    /// completion path without touching the wire.
    pub deadline: Option<SimTime>,
}

// ------------------------------------------------------------------- client

/// A client's completion handler: a synchronous typed upcall, invoked once
/// per resolved call.
pub type RpcSinkFn<W> = Arc<dyn Fn(&mut W, RpcCompletion) + Send + Sync>;

/// A resolved call, as seen by the client's handler.
#[derive(Clone, Copy, Debug)]
pub struct RpcCompletion {
    pub client: RpcClientId,
    pub call: RpcCall,
    /// `Ok(payload_len)` — collect the payload with [`rpc_collect`] — or
    /// the typed failure.
    pub result: Result<u64, RpcError>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CallState {
    Free,
    /// Awaiting a reply (or a timer).
    Pending,
    /// Resolved successfully; the reply payload parks in the slot's
    /// response buffer until [`rpc_collect`] copies it out.
    Done {
        len: u64,
    },
    /// Resolved (cancel / deadline / peer death) while a matched
    /// in-flight completion was still owed by the driver: the slot is
    /// quarantined until that completion drains, so its buffers are
    /// never reused under an active transfer.
    Draining,
}

struct CallSlot {
    gen: u32,
    state: CallState,
    /// When the horizon timer resolves this call; [`SimTime::NEVER`] when
    /// a caller deadline bounds it instead.
    horizon: SimTime,
    /// A tagged receive for this call's reply is posted in the driver.
    recv_armed: bool,
    /// Send context of the request, while in flight or queued.
    tx_ctx: Option<u64>,
}

/// Per-client counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RpcClientStats {
    pub calls: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    /// Calls resolved `Deadline`, by the caller's deadline or by
    /// [`CALL_HORIZON`].
    pub deadline_failures: u64,
    pub expired_at_submit: u64,
    /// Replies that arrived for an already-resolved call (duplicates,
    /// post-deadline stragglers, drained quarantines) and were dropped by
    /// the generation check.
    pub late_replies: u64,
}

/// Client-side configuration.
#[derive(Clone, Copy, Debug)]
pub struct RpcClientConfig {
    /// Concurrent in-flight call window; submissions past it fail
    /// synchronously with [`RpcError::Overload`].
    pub window: u32,
    /// Per-slot request buffer capacity (header + payload).
    pub req_cap: u64,
    /// Per-slot response buffer capacity (header + payload).
    pub resp_cap: u64,
    /// Inert; see [`RetryPolicy`].
    pub policy: RetryPolicy,
}

impl Default for RpcClientConfig {
    fn default() -> Self {
        RpcClientConfig {
            window: 64,
            req_cap: 1024,
            resp_cap: 1024,
            policy: RetryPolicy::default(),
        }
    }
}

/// One RPC client: a handler-backed channel to one server endpoint plus
/// the generation-tagged call slab.
pub struct RpcClient<W: ?Sized> {
    pub id: RpcClientId,
    pub ep: Endpoint,
    pub server: Endpoint,
    pub ch: ChannelId,
    on_done: RpcSinkFn<W>,
    cfg: RpcClientConfig,
    calls: Vec<CallSlot>,
    free: Vec<u32>,
    /// The horizon timer is armed (or its handler is running). At most one
    /// is ever outstanding: horizons are submit time + a constant, so a
    /// new call never needs an earlier timer than one already armed.
    horizon_armed: bool,
    /// In-flight request sends → the call slot each carries.
    tx: SendMap<u32>,
    /// Buffer region: `window` slots of `req_cap + resp_cap` bytes each.
    region: VirtAddr,
    pub stats: RpcClientStats,
}

impl<W: ?Sized> RpcClient<W> {
    fn slot_req_addr(&self, slot: u32) -> VirtAddr {
        self.region
            .add(slot as u64 * (self.cfg.req_cap + self.cfg.resp_cap))
    }

    fn slot_resp_addr(&self, slot: u32) -> VirtAddr {
        self.slot_req_addr(slot).add(self.cfg.req_cap)
    }

    fn free_slot(&mut self, slot: u32) {
        let s = &mut self.calls[slot as usize];
        s.state = CallState::Free;
        s.gen = s.gen.wrapping_add(1);
        s.recv_armed = false;
        s.tx_ctx = None;
        self.free.push(slot);
    }

    /// Calls currently unresolved (pending or quarantined).
    pub fn outstanding(&self) -> u32 {
        self.calls
            .iter()
            .filter(|s| matches!(s.state, CallState::Pending | CallState::Draining))
            .count() as u32
    }
}

// ------------------------------------------------------------------- server

/// Passed to the service function for each accepted request.
#[derive(Clone, Copy, Debug)]
pub struct RpcRequest {
    pub server: RpcServerId,
    pub from: Endpoint,
    pub method: u16,
    /// The caller's propagated absolute deadline ([`SimTime::NEVER`] when
    /// none). Deferred work resolving past it is dropped, not answered.
    pub deadline: SimTime,
    /// Pre-minted defer token: return [`RpcOutcome::Defer`] and answer
    /// later through [`rpc_server_reply`] with this token.
    pub token: u64,
}

/// What the service function did with a request.
pub enum RpcOutcome {
    /// The reply payload was written into the provided scratch buffer.
    Reply,
    /// Answer with a typed error.
    Err(RpcError),
    /// The reply comes later via [`rpc_server_reply`] (e.g. after a
    /// replication RPC of the service's own resolves).
    Defer,
}

/// Per-server counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RpcServerStats {
    pub requests: u64,
    pub replies: u64,
    pub deferred: u64,
    /// Requests dropped (or deferred replies suppressed) because the
    /// propagated deadline had already passed — the server never answers
    /// the dead.
    pub expired_dropped: u64,
    pub overloads: u64,
    pub version_mismatches: u64,
}

/// Server-side configuration.
#[derive(Clone, Copy, Debug)]
pub struct RpcServerConfig {
    /// Reply staging ring size.
    pub ring: u64,
    /// Outstanding replies (in-flight sends + deferred) beyond which new
    /// requests are shed with [`RpcError::Overload`].
    pub max_pending: u32,
}

impl Default for RpcServerConfig {
    fn default() -> Self {
        RpcServerConfig {
            ring: 1 << 20,
            max_pending: 128,
        }
    }
}

#[derive(Clone, Copy)]
enum DeferState {
    Free,
    Pending {
        from: Endpoint,
        corr: u64,
        deadline_ns: u64,
    },
}

struct DeferSlot {
    gen: u32,
    state: DeferState,
}

/// One RPC server: an accept-side handler channel dispatching into a
/// service function, with deadline filtering, load shedding and deferred
/// replies.
pub struct RpcServer {
    pub id: RpcServerId,
    pub ep: Endpoint,
    pub ch: ChannelId,
    cfg: RpcServerConfig,
    /// Reply staging ring.
    ring: StagingRing,
    /// Reply sends in flight (they count toward the overload watermark).
    reply_tx: SendMap<()>,
    replies_in_flight: u32,
    defers: Vec<DeferSlot>,
    defer_free: Vec<u32>,
    defers_pending: u32,
    pub stats: RpcServerStats,
}

impl RpcServer {
    fn pending(&self) -> u32 {
        self.replies_in_flight + self.defers_pending
    }
}

type ServiceFn<W> = dyn Fn(&mut W, RpcRequest, &[u8], &mut Vec<u8>) -> RpcOutcome + Send + Sync;
type PeerDownFn<W> = dyn Fn(&mut W, NodeId) + Send + Sync;

// -------------------------------------------------------------------- layer

/// A recycled scratch buffer with growth accounting.
#[derive(Default)]
struct RpcScratch {
    buf: Vec<u8>,
    uses: u64,
    grows: u64,
}

impl RpcScratch {
    fn take(&mut self) -> (Vec<u8>, usize) {
        self.uses += 1;
        let b = std::mem::take(&mut self.buf);
        let cap = b.capacity();
        (b, cap)
    }

    fn put(&mut self, mut b: Vec<u8>, had_cap: usize) {
        if b.capacity() > had_cap {
            self.grows += 1;
        }
        b.clear();
        self.buf = b;
    }
}

knet_simcore::counters! {
    /// Layer-aggregate counters: the `rpc` block of the composed world's
    /// stats tree.
    pub struct RpcStats {
        pub calls: u64,
        pub completed: u64,
        pub failed: u64,
        /// Inert, always 0: the layer never retransmits. Kept while the
        /// `benchmark/` package still reports it.
        pub retries: u64,
        pub expired_dropped: u64,
        /// Inert, always 0: there is no reply cache. Kept while the
        /// `benchmark/` package still reports it.
        pub idem_hits: u64,
    }
}

/// All RPC state in a world.
pub struct RpcLayer<W: ?Sized> {
    pub clients: Vec<RpcClient<W>>,
    pub servers: Vec<RpcServer>,
    pub stats: RpcStats,
    /// Frame-encode scratch (requests and replies).
    frame_scratch: RpcScratch,
    /// Service reply-payload scratch.
    resp_scratch: RpcScratch,
}

impl<W: ?Sized> Default for RpcLayer<W> {
    fn default() -> Self {
        RpcLayer {
            clients: Vec::new(),
            servers: Vec::new(),
            stats: RpcStats::default(),
            frame_scratch: RpcScratch::default(),
            resp_scratch: RpcScratch::default(),
        }
    }
}

impl<W: ?Sized> RpcLayer<W> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch-pool health as `(uses, grows)`: in steady state `grows`
    /// stops moving while `uses` keeps counting.
    pub fn scratch_stats(&self) -> (u64, u64) {
        (
            self.frame_scratch.uses + self.resp_scratch.uses,
            self.frame_scratch.grows + self.resp_scratch.grows,
        )
    }
}

// ------------------------------------------------------------ client driver

/// Create a client on `ep` talking to `server`; every call resolves with
/// one upcall into `on_done`. The backing channel is handler-based — the
/// RPC layer consumes raw transport events itself and emits only typed
/// completions.
pub fn rpc_client_create<W: RpcWorld>(
    w: &mut W,
    ep: Endpoint,
    server: Endpoint,
    name: &str,
    on_done: RpcSinkFn<W>,
    cfg: RpcClientConfig,
) -> Result<RpcClientId, NetError> {
    let region_len = cfg.window as u64 * (cfg.req_cap + cfg.resp_cap);
    let region = w.os_mut().node_mut(ep.node).kalloc(region_len)?;
    let id = RpcClientId(w.rpc().clients.len() as u32);
    let ch = channel_connect_handler(w, ep, server, name, move |w, _via, ev| {
        rpc_on_client_event(w, id, ev)
    });
    w.rpc_mut().clients.push(RpcClient {
        id,
        ep,
        server,
        ch,
        on_done,
        cfg,
        calls: Vec::new(),
        free: Vec::new(),
        horizon_armed: false,
        tx: SendMap::default(),
        region,
        stats: RpcClientStats::default(),
    });
    Ok(id)
}

/// Submit a typed call: `payload` goes out once under `method`; the reply
/// (or typed failure) arrives as exactly one completion. Synchronous
/// errors, after which no completion follows: [`RpcError::Overload`] when
/// the in-flight window is full, the payload exceeds the slot buffer or
/// the channel's send queue is full, and [`RpcError::PeerUnreachable`]
/// when the channel no longer accepts work.
pub fn rpc_call<W: RpcWorld>(
    w: &mut W,
    cid: RpcClientId,
    method: u16,
    payload: &[u8],
    opts: RpcCallOpts,
) -> Result<RpcCall, RpcError> {
    let t_now = now(w);
    let deadline = opts.deadline.unwrap_or(SimTime::NEVER);
    let (slot, gen, node, ch, req_addr, resp_addr, resp_cap) = {
        let c = &mut w.rpc_mut().clients[cid.0 as usize];
        if (REQ_HEADER_LEN as u64 + payload.len() as u64) > c.cfg.req_cap {
            return Err(RpcError::Overload);
        }
        let slot = match c.free.pop() {
            Some(s) => s,
            None if (c.calls.len() as u32) < c.cfg.window => {
                c.calls.push(CallSlot {
                    gen: 0,
                    state: CallState::Free,
                    horizon: SimTime::NEVER,
                    recv_armed: false,
                    tx_ctx: None,
                });
                c.calls.len() as u32 - 1
            }
            None => return Err(RpcError::Overload),
        };
        let (req_addr, resp_addr) = (c.slot_req_addr(slot), c.slot_resp_addr(slot));
        let s = &mut c.calls[slot as usize];
        debug_assert_eq!(s.state, CallState::Free);
        s.state = CallState::Pending;
        s.horizon = SimTime::NEVER;
        (
            slot,
            s.gen,
            c.ep.node,
            c.ch,
            req_addr,
            resp_addr,
            c.cfg.resp_cap,
        )
    };
    let corr = corr_of(slot, gen);
    if deadline <= t_now {
        // Dead on arrival: resolve through the normal typed-event path —
        // the completion lands at the submit instant, and the wire never
        // sees the request.
        count_call(w, cid);
        w.rpc_mut().clients[cid.0 as usize].stats.expired_at_submit += 1;
        emit_at(
            w,
            node.0,
            t_now,
            W::lift_rpc(RpcEv::Deadline {
                client: cid.0,
                slot,
                gen,
            }),
        );
        return Ok(corr);
    }
    let (mut frame, had_cap) = w.rpc_mut().frame_scratch.take();
    encode_request(
        &mut frame,
        ReqHeader {
            version: RPC_SCHEMA_VERSION,
            method,
            corr,
            deadline_ns: if deadline == SimTime::NEVER {
                NO_DEADLINE
            } else {
                deadline.nanos()
            },
            idem: 0,
        },
        payload,
    );
    w.os_mut()
        .node_mut(node)
        .write_virt(Asid::KERNEL, req_addr, &frame)
        .expect("rpc request staging");
    let req_len = frame.len() as u64;
    w.rpc_mut().frame_scratch.put(frame, had_cap);
    if deadline != SimTime::NEVER {
        emit_at(
            w,
            node.0,
            deadline,
            W::lift_rpc(RpcEv::Deadline {
                client: cid.0,
                slot,
                gen,
            }),
        );
    } else {
        let horizon = t_now + CALL_HORIZON;
        let c = &mut w.rpc_mut().clients[cid.0 as usize];
        c.calls[slot as usize].horizon = horizon;
        if !std::mem::replace(&mut c.horizon_armed, true) {
            emit_at(
                w,
                node.0,
                horizon,
                W::lift_rpc(RpcEv::Horizon { client: cid.0 }),
            );
        }
    }
    let resp = IoVec::single(MemRef::kernel(resp_addr, resp_cap));
    let sent = match channel_post_recv(w, ch, corr, resp) {
        Err(_) => Err(RpcError::PeerUnreachable),
        Ok(_) => {
            w.rpc_mut().clients[cid.0 as usize].calls[slot as usize].recv_armed = true;
            channel_send(
                w,
                ch,
                corr,
                IoVec::single(MemRef::kernel(req_addr, req_len)),
            )
            .map_err(|e| match e {
                NetError::SendQueueFull => RpcError::Overload,
                _ => RpcError::PeerUnreachable,
            })
        }
    };
    match sent {
        Ok(ctx) => {
            count_call(w, cid);
            let c = &mut w.rpc_mut().clients[cid.0 as usize];
            c.calls[slot as usize].tx_ctx = Some(ctx);
            c.tx.insert(ctx, slot);
            Ok(corr)
        }
        Err(e) => {
            // Never submitted: withdraw the receive and hand the slot
            // back. A deadline timer already armed for it dies by the
            // generation bump.
            if w.rpc().clients[cid.0 as usize].calls[slot as usize].recv_armed {
                channel_cancel_recv(w, ch, corr);
            }
            w.rpc_mut().clients[cid.0 as usize].free_slot(slot);
            Err(e)
        }
    }
}

fn count_call<W: RpcWorld>(w: &mut W, cid: RpcClientId) {
    let layer = w.rpc_mut();
    layer.clients[cid.0 as usize].stats.calls += 1;
    layer.stats.calls += 1;
}

/// Cancel a pending call. Returns `true` iff the call was pending and is
/// now resolved [`RpcError::Cancelled`] (the completion is delivered as
/// usual, so consumers see exactly one resolution either way). The posted
/// receive is withdrawn under the channel layer's cancel-vs-completion
/// rule; if a matched completion is irrevocably in flight the slot is
/// quarantined until it drains — the caller never observes it.
pub fn rpc_cancel<W: RpcWorld>(w: &mut W, cid: RpcClientId, call: RpcCall) -> bool {
    let slot = corr_slot(call);
    let pending = {
        let c = &w.rpc().clients[cid.0 as usize];
        matches!(
            c.calls.get(slot as usize),
            Some(s) if s.gen == corr_gen(call) && s.state == CallState::Pending
        )
    };
    if !pending {
        return false;
    }
    w.rpc_mut().clients[cid.0 as usize].stats.cancelled += 1;
    resolve(w, cid, slot, Err(RpcError::Cancelled));
    true
}

/// Copy a completed call's reply payload into `out` (cleared first) and
/// release the call slot. `None` if the call is not in the completed
/// state (failed calls carry no payload and release eagerly).
pub fn rpc_collect<W: RpcWorld>(
    w: &mut W,
    cid: RpcClientId,
    call: RpcCall,
    out: &mut Vec<u8>,
) -> Option<u64> {
    let slot = corr_slot(call);
    let (len, resp_addr, node) = {
        let c = &w.rpc().clients[cid.0 as usize];
        let s = c.calls.get(slot as usize)?;
        if s.gen != corr_gen(call) {
            return None;
        }
        let CallState::Done { len } = s.state else {
            return None;
        };
        (len, c.slot_resp_addr(slot), c.ep.node)
    };
    out.clear();
    out.resize(len as usize, 0);
    w.os()
        .node(node)
        .read_virt(Asid::KERNEL, resp_addr.add(RESP_HEADER_LEN as u64), out)
        .expect("rpc reply read");
    w.rpc_mut().clients[cid.0 as usize].free_slot(slot);
    Some(len)
}

/// Resolve a pending call with `result`: withdraw whatever transport
/// state is still live (queued send, posted receive), settle the slot,
/// then deliver exactly one completion.
fn resolve<W: RpcWorld>(w: &mut W, cid: RpcClientId, slot: u32, result: Result<u64, RpcError>) {
    let (corr, ch, recv_armed, tx_ctx) = {
        let c = &mut w.rpc_mut().clients[cid.0 as usize];
        let s = &mut c.calls[slot as usize];
        debug_assert_eq!(s.state, CallState::Pending);
        (corr_of(slot, s.gen), c.ch, s.recv_armed, s.tx_ctx.take())
    };
    if let Some(ctx) = tx_ctx {
        // Deadline/cancel reaching into backpressure: if the request
        // never left the node, withdraw it. Either way, a late SendDone
        // must find no mapping.
        let _ = channel_abort_queued_send(w, ch, ctx);
        w.rpc_mut().clients[cid.0 as usize].tx.take(ctx);
    }
    let mut drain = false;
    if result.is_err() && recv_armed {
        // Cancel-vs-completion rule: `false` means a matched completion
        // is irrevocably on its way — quarantine the slot's buffers.
        drain = !channel_cancel_recv(w, ch, corr);
    }
    {
        let layer = w.rpc_mut();
        let c = &mut layer.clients[cid.0 as usize];
        match result {
            Ok(len) => {
                let s = &mut c.calls[slot as usize];
                s.state = CallState::Done { len };
                s.recv_armed = false;
                c.stats.completed += 1;
                layer.stats.completed += 1;
            }
            Err(e) => {
                c.stats.failed += 1;
                layer.stats.failed += 1;
                if e == RpcError::Deadline {
                    c.stats.deadline_failures += 1;
                }
                if drain {
                    c.calls[slot as usize].state = CallState::Draining;
                } else {
                    c.free_slot(slot);
                }
            }
        }
    }
    deliver_completion(w, cid, corr, result);
}

fn deliver_completion<W: RpcWorld>(
    w: &mut W,
    cid: RpcClientId,
    corr: u64,
    result: Result<u64, RpcError>,
) {
    let on_done = Arc::clone(&w.rpc().clients[cid.0 as usize].on_done);
    on_done(
        w,
        RpcCompletion {
            client: cid,
            call: corr,
            result,
        },
    );
}

fn on_deadline<W: RpcWorld>(w: &mut W, cid: RpcClientId, slot: u32, gen: u32) {
    let live = {
        let Some(c) = w.rpc().clients.get(cid.0 as usize) else {
            return;
        };
        matches!(
            c.calls.get(slot as usize),
            Some(s) if s.gen == gen && s.state == CallState::Pending
        )
    };
    if live {
        resolve(w, cid, slot, Err(RpcError::Deadline));
    }
}

/// The horizon timer fired: resolve every call whose horizon has passed,
/// then re-arm at the earliest one still pending. The armed flag stays set
/// while the completion handlers run, so a call they submit cannot arm a
/// second timer.
fn on_horizon<W: RpcWorld>(w: &mut W, cid: RpcClientId) {
    let t_now = now(w);
    let i = cid.0 as usize;
    for slot in 0..w.rpc().clients[i].calls.len() {
        let s = &w.rpc().clients[i].calls[slot];
        if s.state == CallState::Pending && s.horizon <= t_now {
            resolve(w, cid, slot as u32, Err(RpcError::Deadline));
        }
    }
    let c = &mut w.rpc_mut().clients[i];
    let next = c
        .calls
        .iter()
        .filter(|s| s.state == CallState::Pending)
        .map(|s| s.horizon)
        .min()
        .unwrap_or(SimTime::NEVER);
    c.horizon_armed = next != SimTime::NEVER;
    if c.horizon_armed {
        let node = c.ep.node.0;
        emit_at(w, node, next, W::lift_rpc(RpcEv::Horizon { client: cid.0 }));
    }
}

/// The client channel's raw transport events.
fn rpc_on_client_event<W: RpcWorld>(w: &mut W, cid: RpcClientId, ev: TransportEvent) {
    match ev {
        TransportEvent::SendDone { ctx } => {
            let c = &mut w.rpc_mut().clients[cid.0 as usize];
            if let Some(slot) = c.tx.take(ctx) {
                let s = &mut c.calls[slot as usize];
                if s.tx_ctx == Some(ctx) {
                    s.tx_ctx = None;
                }
            }
        }
        TransportEvent::SendFailed { ctx, error } => {
            let slot = {
                let c = &mut w.rpc_mut().clients[cid.0 as usize];
                let Some(slot) = c.tx.take(ctx) else { return };
                let s = &mut c.calls[slot as usize];
                if s.tx_ctx != Some(ctx) || s.state != CallState::Pending {
                    return;
                }
                s.tx_ctx = None;
                slot
            };
            let e = match error {
                NetError::SendQueueFull => RpcError::Overload,
                _ => RpcError::PeerUnreachable,
            };
            resolve(w, cid, slot, Err(e));
        }
        TransportEvent::RecvDone { tag, len, .. } => on_reply(w, cid, tag, len),
        TransportEvent::Unexpected { .. } => {
            // A reply with no posted receive: a duplicate of a reply we
            // already consumed, or a straggler past resolution.
            w.rpc_mut().clients[cid.0 as usize].stats.late_replies += 1;
        }
        // A connected channel hears of its own peer's death only.
        TransportEvent::PeerDown { .. } => on_client_peer_down(w, cid),
        _ => {}
    }
}

fn on_reply<W: RpcWorld>(w: &mut W, cid: RpcClientId, corr: u64, recv_len: u64) {
    let slot = corr_slot(corr);
    let gen = corr_gen(corr);
    let live = {
        let c = &mut w.rpc_mut().clients[cid.0 as usize];
        match c.calls.get(slot as usize).map(|s| (s.gen, s.state)) {
            Some((g, CallState::Pending)) if g == gen => {
                c.calls[slot as usize].recv_armed = false;
                Some((c.slot_resp_addr(slot), c.ep.node))
            }
            Some((g, CallState::Draining)) if g == gen => {
                // The quarantined completion drained; the slot is safe
                // to reuse now.
                c.free_slot(slot);
                c.stats.late_replies += 1;
                None
            }
            _ => {
                c.stats.late_replies += 1;
                None
            }
        }
    };
    let Some((resp_addr, node)) = live else {
        return;
    };
    if recv_len < RESP_HEADER_LEN as u64 {
        resolve(w, cid, slot, Err(RpcError::VersionMismatch));
        return;
    }
    let mut hdr_buf = [0u8; RESP_HEADER_LEN];
    w.os()
        .node(node)
        .read_virt(Asid::KERNEL, resp_addr, &mut hdr_buf)
        .expect("rpc reply header read");
    let result = match decode_response(&hdr_buf) {
        Some((hdr, plen))
            if hdr.version == RPC_SCHEMA_VERSION
                && hdr.corr == corr
                && (RESP_HEADER_LEN + plen) as u64 <= recv_len =>
        {
            // A typed server answer (`Overload` included) is final: the
            // consumer decides whether to reissue.
            hdr.status.map_or(Ok(plen as u64), Err)
        }
        _ => Err(RpcError::VersionMismatch),
    };
    resolve(w, cid, slot, result);
}

/// The reliability layer declared the server's node dead: every in-flight
/// call resolves [`RpcError::PeerUnreachable`] (ascending slot order —
/// deterministic), quarantined slots are released (the completion they
/// awaited died with the peer; a straggler is dropped by the generation
/// check).
fn on_client_peer_down<W: RpcWorld>(w: &mut W, cid: RpcClientId) {
    let pending: Vec<u32> = {
        let c = &mut w.rpc_mut().clients[cid.0 as usize];
        let mut pending = Vec::new();
        for slot in 0..c.calls.len() as u32 {
            match c.calls[slot as usize].state {
                CallState::Pending => pending.push(slot),
                CallState::Draining => c.free_slot(slot),
                _ => {}
            }
        }
        pending
    };
    for slot in pending {
        // A handler's reaction to an earlier resolution may have touched
        // this slot (e.g. reissued into it); re-check.
        let still_pending = {
            let c = &w.rpc().clients[cid.0 as usize];
            c.calls[slot as usize].state == CallState::Pending
        };
        if still_pending {
            resolve(w, cid, slot, Err(RpcError::PeerUnreachable));
        }
    }
}

// ------------------------------------------------------------ server driver

/// Create a server on `ep`: every inbound request frame is decoded,
/// filtered (schema version, expiry, load) and dispatched into `service`;
/// `on_peer_down` fires when a peer node is declared dead (failover hooks
/// — this is how the KV store learns a primary died).
pub fn rpc_server_create<W: RpcWorld>(
    w: &mut W,
    ep: Endpoint,
    name: &str,
    cfg: RpcServerConfig,
    service: impl Fn(&mut W, RpcRequest, &[u8], &mut Vec<u8>) -> RpcOutcome + Send + Sync + 'static,
    on_peer_down: impl Fn(&mut W, NodeId) + Send + Sync + 'static,
) -> Result<RpcServerId, NetError> {
    let ring = w.os_mut().node_mut(ep.node).kalloc(cfg.ring)?;
    let id = RpcServerId(w.rpc().servers.len() as u32);
    let svc: Arc<ServiceFn<W>> = Arc::new(service);
    let pd: Arc<PeerDownFn<W>> = Arc::new(on_peer_down);
    let ch = channel_accept_handler(w, ep, name, move |w, _via, ev| {
        rpc_on_server_event(w, id, ev, &svc, &pd)
    });
    w.rpc_mut().servers.push(RpcServer {
        id,
        ep,
        ch,
        cfg,
        ring: StagingRing::new(ring, Asid::KERNEL, cfg.ring),
        reply_tx: SendMap::default(),
        replies_in_flight: 0,
        defers: Vec::new(),
        defer_free: Vec::new(),
        defers_pending: 0,
        stats: RpcServerStats::default(),
    });
    Ok(id)
}

fn rpc_on_server_event<W: RpcWorld>(
    w: &mut W,
    sid: RpcServerId,
    ev: TransportEvent,
    svc: &Arc<ServiceFn<W>>,
    pd: &Arc<PeerDownFn<W>>,
) {
    match ev {
        TransportEvent::Unexpected { data, from, .. } => handle_request(w, sid, from, &data, svc),
        TransportEvent::SendDone { ctx } | TransportEvent::SendFailed { ctx, .. } => {
            // A reply left (or died with its peer); either way its slot
            // stops counting toward the overload watermark.
            let s = &mut w.rpc_mut().servers[sid.0 as usize];
            if s.reply_tx.take(ctx).is_some() {
                s.replies_in_flight -= 1;
            }
        }
        TransportEvent::PeerDown { peer } => {
            // Deferred replies to the dead node can never be delivered.
            {
                let s = &mut w.rpc_mut().servers[sid.0 as usize];
                for slot in 0..s.defers.len() as u32 {
                    if let DeferState::Pending { from, .. } = s.defers[slot as usize].state {
                        if from.node == peer.node {
                            let d = &mut s.defers[slot as usize];
                            d.state = DeferState::Free;
                            d.gen = d.gen.wrapping_add(1);
                            s.defer_free.push(slot);
                            s.defers_pending -= 1;
                        }
                    }
                }
            }
            let pd = pd.clone();
            pd(w, peer.node);
        }
        _ => {}
    }
}

fn handle_request<W: RpcWorld>(
    w: &mut W,
    sid: RpcServerId,
    from: Endpoint,
    data: &[u8],
    svc: &Arc<ServiceFn<W>>,
) {
    let t_now = now(w);
    let Some((hdr, payload)) = decode_request(data) else {
        // Not even a parseable request: no correlation id to answer on.
        w.rpc_mut().servers[sid.0 as usize].stats.version_mismatches += 1;
        return;
    };
    w.rpc_mut().servers[sid.0 as usize].stats.requests += 1;
    if hdr.version != RPC_SCHEMA_VERSION {
        w.rpc_mut().servers[sid.0 as usize].stats.version_mismatches += 1;
        send_reply(w, sid, from, hdr.corr, Some(RpcError::VersionMismatch), &[]);
        return;
    }
    if hdr.deadline_ns != NO_DEADLINE && t_now.nanos() >= hdr.deadline_ns {
        // Expired in flight (loss, backpressure, a slow queue): the
        // caller is already resolving Deadline — never answer the dead.
        let layer = w.rpc_mut();
        layer.servers[sid.0 as usize].stats.expired_dropped += 1;
        layer.stats.expired_dropped += 1;
        return;
    }
    let overloaded = {
        let s = &w.rpc().servers[sid.0 as usize];
        s.pending() >= s.cfg.max_pending
    };
    if overloaded {
        w.rpc_mut().servers[sid.0 as usize].stats.overloads += 1;
        send_reply(w, sid, from, hdr.corr, Some(RpcError::Overload), &[]);
        return;
    }
    // Mint the defer token up front; the immediate-outcome paths release
    // it right back.
    let token = {
        let s = &mut w.rpc_mut().servers[sid.0 as usize];
        let slot = s.defer_free.pop().unwrap_or_else(|| {
            s.defers.push(DeferSlot {
                gen: 0,
                state: DeferState::Free,
            });
            (s.defers.len() - 1) as u32
        });
        let d = &mut s.defers[slot as usize];
        d.state = DeferState::Pending {
            from,
            corr: hdr.corr,
            deadline_ns: hdr.deadline_ns,
        };
        corr_of(slot, d.gen)
    };
    let req = RpcRequest {
        server: sid,
        from,
        method: hdr.method,
        deadline: if hdr.deadline_ns == NO_DEADLINE {
            SimTime::NEVER
        } else {
            SimTime::from_nanos(hdr.deadline_ns)
        },
        token,
    };
    let (mut resp, had_cap) = w.rpc_mut().resp_scratch.take();
    let outcome = svc(w, req, payload, &mut resp);
    match outcome {
        RpcOutcome::Reply => {
            release_defer(w, sid, token);
            send_reply(w, sid, from, hdr.corr, None, &resp);
        }
        RpcOutcome::Err(e) => {
            release_defer(w, sid, token);
            send_reply(w, sid, from, hdr.corr, Some(e), &[]);
        }
        RpcOutcome::Defer => {
            let s = &mut w.rpc_mut().servers[sid.0 as usize];
            s.stats.deferred += 1;
            s.defers_pending += 1;
        }
    }
    w.rpc_mut().resp_scratch.put(resp, had_cap);
}

fn release_defer<W: RpcWorld>(w: &mut W, sid: RpcServerId, token: u64) {
    let s = &mut w.rpc_mut().servers[sid.0 as usize];
    let slot = corr_slot(token);
    let d = &mut s.defers[slot as usize];
    debug_assert_eq!(d.gen, corr_gen(token));
    d.state = DeferState::Free;
    d.gen = d.gen.wrapping_add(1);
    s.defer_free.push(slot);
}

/// Complete a deferred request. Returns `false` if the token is stale —
/// already answered, or its peer died in the meantime (the defer slab is
/// generation-tagged like the call slab). A deferred reply resolving past
/// the propagated deadline is suppressed: the caller already resolved
/// `Deadline` and is not answered late.
pub fn rpc_server_reply<W: RpcWorld>(
    w: &mut W,
    sid: RpcServerId,
    token: u64,
    result: Result<&[u8], RpcError>,
) -> bool {
    let t_now = now(w);
    let slot = corr_slot(token);
    let (from, corr, deadline_ns) = {
        let s = &mut w.rpc_mut().servers[sid.0 as usize];
        let Some(d) = s.defers.get_mut(slot as usize) else {
            return false;
        };
        if d.gen != corr_gen(token) {
            return false;
        }
        let DeferState::Pending {
            from,
            corr,
            deadline_ns,
        } = d.state
        else {
            return false;
        };
        d.state = DeferState::Free;
        d.gen = d.gen.wrapping_add(1);
        s.defer_free.push(slot);
        s.defers_pending -= 1;
        (from, corr, deadline_ns)
    };
    if deadline_ns != NO_DEADLINE && t_now.nanos() >= deadline_ns {
        let layer = w.rpc_mut();
        layer.servers[sid.0 as usize].stats.expired_dropped += 1;
        layer.stats.expired_dropped += 1;
        return true;
    }
    match result {
        Ok(payload) => send_reply(w, sid, from, corr, None, payload),
        Err(e) => send_reply(w, sid, from, corr, Some(e), &[]),
    }
    true
}

fn send_reply<W: RpcWorld>(
    w: &mut W,
    sid: RpcServerId,
    to: Endpoint,
    corr: u64,
    status: Option<RpcError>,
    payload: &[u8],
) {
    let (mut frame, had_cap) = w.rpc_mut().frame_scratch.take();
    encode_response(
        &mut frame,
        RespHeader {
            version: RPC_SCHEMA_VERSION,
            status,
            corr,
        },
        payload,
    );
    let (ch, node) = {
        let s = &w.rpc().servers[sid.0 as usize];
        (s.ch, s.ep.node)
    };
    let staged = ring_stage(
        w,
        node,
        |w| &mut w.rpc_mut().servers[sid.0 as usize].ring,
        &[&frame],
    );
    w.rpc_mut().frame_scratch.put(frame, had_cap);
    // A reply frame the ring can never hold (a service answering past
    // `RpcServerConfig::ring`), or one that could not even be queued (peer
    // declared dead, queue overflow), is dropped — the caller resolves at
    // its deadline or horizon.
    let Some(seg) = staged else { return };
    if let Ok(ctx) = channel_send_to(w, ch, to, corr, IoVec::single(seg)) {
        let s = &mut w.rpc_mut().servers[sid.0 as usize];
        s.stats.replies += 1;
        s.reply_tx.insert(ctx, ());
        s.replies_in_flight += 1;
    }
}

// --------------------------------------------------------------- accessors

/// Per-client counters.
pub fn rpc_client_stats<W: RpcWorld>(w: &W, cid: RpcClientId) -> RpcClientStats {
    w.rpc().clients[cid.0 as usize].stats
}

/// Per-server counters.
pub fn rpc_server_stats<W: RpcWorld>(w: &W, sid: RpcServerId) -> RpcServerStats {
    w.rpc().servers[sid.0 as usize].stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corr_roundtrip() {
        let corr = corr_of(17, 0xDEAD);
        assert_eq!(corr_slot(corr), 17);
        assert_eq!(corr_gen(corr), 0xDEAD);
    }

    #[test]
    fn call_horizon_is_rels_give_up_budget() {
        assert_eq!(CALL_HORIZON, SimTime::from_millis(18));
    }
}
