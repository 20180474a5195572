//! Channels, completion queues and the consumer dispatch registry — the
//! handle-based face of the kernel network API.
//!
//! The raw [`TransportWorld`] interface
//! moves bytes but leaves three problems to its callers: *who* consumes an
//! endpoint's completion events, *how* driver quirks (GM's single-segment
//! sends, bounded send tokens) surface, and *where* batching policy lives.
//! This module answers all three:
//!
//! * A **[`Registry`]** maps endpoints to *consumers*. A consumer is either
//!   a **completion queue** ([`CqId`]) that accumulates [`CqEntry`]s for a
//!   polling driver, or a **handler** — an in-kernel upcall the way ORFS,
//!   NBD and the socket layer consume their traffic. Events for endpoints
//!   with no consumer yet are *parked* and replayed on bind, so wiring
//!   order never loses traffic. The composed world routes every driver
//!   event through [`deliver`]; it needs no knowledge of any application.
//!   Queues keep a **per-endpoint chain** so [`Registry::cq_pop_for`] /
//!   [`Registry::has_event`] stay cheap when thousands of endpoints share
//!   one queue (no linear scans; see [`RegistryStats::indexed_pops`]).
//!   **Ids are indices**: everything the registry knows about one endpoint
//!   — consumer, channel, tenant, parked events, queue chains — is one
//!   record of one table indexed by `(kind, idx)`, and queues, consumers
//!   and channels live in id-indexed slabs, so routing an event is a few
//!   array indexings, not a search per map.
//! * A **[`Channel`]** is a connected, tagged, vectored message pipe
//!   between two endpoints. Completions go to the channel's consumer: a CQ
//!   ([`channel_connect`] / [`channel_accept`]) or an in-kernel upcall
//!   ([`channel_connect_handler`] — how the zero-copy socket layer
//!   attaches). [`channel_send`] accepts multi-segment [`IoVec`]s on
//!   *every* transport: on GM (not vectorial, §4.1) the segments are
//!   coalesced through a per-channel kernel staging buffer — the copy is
//!   charged to the CPU model, and the caller never sees
//!   [`NetError::Unsupported`].
//! * **Send backpressure** lives in the channel, not in every caller: when
//!   the transport rejects a send for lack of tokens
//!   ([`NetError::NoSendTokens`]), the channel queues it and retries in
//!   submission order on the next send completion (`SendDone` or
//!   `SendFailed`: either returns a token), bounded by
//!   [`Channel::send_queue_cap`] — overflow surfaces as
//!   [`NetError::SendQueueFull`]. This queue is the one place a send waits
//!   for tokens: a send the transport accepted already holds its token,
//!   also while the driver's pacing lane ([`crate::pace`]) holds it back
//!   for its tenant's bucket. The queue is one FIFO per channel; each
//!   entry keeps the tenant it was submitted under, for the per-tenant
//!   counters.
//!
//! Worlds participate by implementing [`DispatchWorld`]; applications
//! attach with [`Registry::register`] + [`bind`] and are never named by the
//! world again.

use std::collections::VecDeque;
use std::sync::Arc;

use knet_simcore::Slab;
use knet_simos::{cpu_charge, Asid, NodeId, VirtAddr, VmaEvent};
use smallvec::SmallVec;

use crate::error::NetError;
use crate::iovec::{read_iovec, IoVec, MemRef};
use crate::pace::Sent;
use crate::tenant::{TenantId, TenantTable};
use crate::transport::{Endpoint, TransportEvent, TransportKind, TransportWorld};

/// Handle to a completion queue.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CqId(pub u32);

/// Handle to a registered consumer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ConsumerId(pub u32);

/// Handle to a channel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChannelId(pub u32);

/// One completion-queue entry: which endpoint, what happened.
#[derive(Clone, Debug)]
pub struct CqEntry {
    pub ep: Endpoint,
    pub event: TransportEvent,
}

/// A world that hosts the dispatch registry. This is the trait application
/// layers (ORFS, NBD, sockets) are written against.
pub trait DispatchWorld: TransportWorld + Sized {
    fn registry(&self) -> &Registry<Self>;
    fn registry_mut(&mut self) -> &mut Registry<Self>;
}

type Handler<W> = Arc<dyn Fn(&mut W, Endpoint, TransportEvent) + Send + Sync>;

/// Where a consumer's events go.
enum Sink<W> {
    /// Accumulate in a completion queue for polling.
    Cq(CqId),
    /// Synchronous upcall into an application layer.
    Handler(Handler<W>),
}

struct Consumer<W> {
    name: String,
    sink: Sink<W>,
}

knet_simcore::counters! {
    /// Registry counters (observable by tests and reports): what this crate
    /// increments, the `registry` block of the composed world's stats tree.
    pub struct RegistryStats {
        /// Events routed to a consumer.
        pub delivered: u64,
        /// Events parked because their endpoint had no consumer.
        pub parked: u64,
        /// Parked events replayed when a consumer bound.
        pub replayed: u64,
        /// Events dropped because their completion queue was destroyed.
        pub dropped: u64,
        /// Per-endpoint CQ pops served by the endpoint index (no linear scan).
        pub indexed_pops: u64,
        /// Channel sends queued because the transport was out of tokens.
        pub queued_sends: u64,
        /// Queued channel sends successfully retried after a send completion.
        pub retried_sends: u64,
        /// Queued channel sends that failed their retry with a non-transient
        /// error and were dropped (the original caller already holds the
        /// context; no completion will arrive for it).
        pub failed_retries: u64,
        /// Send contexts served by recycling a pooled slot (no growth).
        pub ctx_pool_reuses: u64,
        /// Send-context slots ever created (the pool's high-water mark).
        pub ctx_pool_slots: u64,
        /// Entries drained through [`Registry::cq_pop_batch`].
        pub batched_pops: u64,
        /// Queued-but-unobserved `RecvDone` completions withdrawn from a CQ by
        /// [`channel_cancel_recv`](crate::api::channel_cancel_recv) winning the
        /// cancel-vs-completion race.
        pub cancelled_completions: u64,
        /// Backpressure-parked sends withdrawn by
        /// [`channel_abort_queued_send`](crate::api::channel_abort_queued_send)
        /// before the transport ever accepted them.
        pub aborted_queued_sends: u64,
    }
}

// ------------------------------------------------------------- send contexts

/// Pooled send contexts: bit 63 tags a pooled value, the low 32 bits are
/// the slot, and bits 32..63 carry the slot's generation so a recycled slot
/// never produces the same context value twice. The pool is **per
/// channel**, so slot numbers are dense within one channel's in-flight
/// window — consumers that key in-flight state by context can therefore
/// use a small dense slab indexed by [`ctx_slot`] instead of a map (the
/// zero-copy socket layer does), bounded by their own concurrency rather
/// than the whole world's.
const CTX_POOL_BIT: u64 = 1 << 63;

/// The slab slot of a pooled send context (None for non-pooled contexts,
/// e.g. receive contexts or raw-transport cookies).
pub fn ctx_slot(ctx: u64) -> Option<usize> {
    (ctx & CTX_POOL_BIT != 0).then_some((ctx & 0xFFFF_FFFF) as usize)
}

/// Allocator of send-context values. Slots recycle on `SendDone` /
/// `SendFailed`; steady state performs zero heap allocations once the pool
/// reaches the workload's in-flight high-water mark.
#[derive(Default)]
pub(crate) struct CtxPool {
    /// Generation per slot; bumped on release.
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl CtxPool {
    pub(crate) fn encode(slot: u32, gen: u32) -> u64 {
        CTX_POOL_BIT | ((gen as u64 & 0x7FFF_FFFF) << 32) | slot as u64
    }

    /// Take a context; `reused` reports whether a slot was recycled.
    fn alloc(&mut self) -> (u64, bool) {
        match self.free.pop() {
            Some(slot) => (Self::encode(slot, self.gens[slot as usize]), true),
            None => {
                let slot = self.gens.len() as u32;
                self.gens.push(0);
                (Self::encode(slot, 0), false)
            }
        }
    }

    /// Return a context's slot to the pool. Ignores non-pooled and stale
    /// values (a second release of the same context is a no-op).
    fn release(&mut self, ctx: u64) {
        if ctx & CTX_POOL_BIT == 0 {
            return;
        }
        let slot = (ctx & 0xFFFF_FFFF) as usize;
        let gen = ((ctx >> 32) & 0x7FFF_FFFF) as u32;
        if let Some(g) = self.gens.get_mut(slot) {
            if *g == gen {
                *g = g.wrapping_add(1) & 0x7FFF_FFFF;
                self.free.push(slot as u32);
            }
        }
    }
}

/// Sentinel slot index for the completion-queue slab.
const CQ_NIL: u32 = u32::MAX;

struct CqSlot {
    /// `None` when the slot is free (payloads drop eagerly).
    entry: Option<CqEntry>,
    /// Global arrival order (doubly linked; `prev` toward the oldest).
    prev: u32,
    next: u32,
    /// Next entry for the same endpoint (singly linked, oldest first).
    ep_next: u32,
}

/// One endpoint's entries inside one completion queue, oldest first. The
/// chain lives in the endpoint's registry record ([`EpRec::chains`]), not in
/// the queue: a queue shared by thousands of endpoints keeps no per-endpoint
/// state of its own.
#[derive(Clone, Copy)]
struct EpChain {
    cq: CqId,
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for EpChain {
    /// The empty chain of no queue.
    fn default() -> Self {
        EpChain {
            cq: CqId(u32::MAX),
            head: CQ_NIL,
            tail: CQ_NIL,
            len: 0,
        }
    }
}

/// One completion queue: a slab of entries threaded by two intrusive lists
/// — global arrival order, and a per-endpoint [`EpChain`] so pops and peeks
/// for a single endpoint never scan past other endpoints' traffic. Pushes
/// and pops are O(1) and allocation-free once the slab reaches its
/// high-water mark (slots and chains are recycled, never removed).
struct Cq {
    slots: Vec<CqSlot>,
    free: Vec<u32>,
    /// Oldest entry overall.
    head: u32,
    /// Newest entry overall.
    tail: u32,
    len: usize,
}

impl Cq {
    fn new() -> Self {
        Cq {
            slots: Vec::new(),
            free: Vec::new(),
            head: CQ_NIL,
            tail: CQ_NIL,
            len: 0,
        }
    }

    /// Append an entry for `ep`, whose chain in this queue is `chain`.
    fn push(&mut self, chain: &mut EpChain, ep: Endpoint, event: TransportEvent) {
        let filled = CqSlot {
            entry: Some(CqEntry { ep, event }),
            prev: self.tail,
            next: CQ_NIL,
            ep_next: CQ_NIL,
        };
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = filled;
                i
            }
            None => {
                let i = self.slots.len() as u32;
                assert!(i < CQ_NIL, "completion queue slab overflow");
                self.slots.push(filled);
                i
            }
        };
        match self.tail {
            CQ_NIL => self.head = slot,
            t => self.slots[t as usize].next = slot,
        }
        self.tail = slot;
        match chain.tail {
            CQ_NIL => chain.head = slot,
            t => self.slots[t as usize].ep_next = slot,
        }
        chain.tail = slot;
        chain.len += 1;
        self.len += 1;
    }

    /// Unlink `slot` from the global list and recycle it.
    fn take_global(&mut self, slot: u32) -> CqEntry {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        match prev {
            CQ_NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            CQ_NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
        self.free.push(slot);
        self.len -= 1;
        self.slots[slot as usize].entry.take().expect("occupied")
    }

    /// The endpoint of the oldest entry overall — which is also the oldest
    /// entry of that endpoint's chain, so popping the queue is
    /// [`Self::pop_for`] on it.
    fn oldest_ep(&self) -> Option<Endpoint> {
        if self.head == CQ_NIL {
            return None;
        }
        let oldest = &self.slots[self.head as usize];
        Some(oldest.entry.as_ref().expect("occupied").ep)
    }

    /// Pop the oldest entry of one endpoint's chain (others keep their
    /// order).
    fn pop_for(&mut self, chain: &mut EpChain) -> Option<CqEntry> {
        let slot = chain.head;
        if slot == CQ_NIL {
            return None;
        }
        chain.head = self.slots[slot as usize].ep_next;
        if chain.head == CQ_NIL {
            chain.tail = CQ_NIL;
        }
        chain.len -= 1;
        Some(self.take_global(slot))
    }

    /// Withdraw the oldest un-popped `RecvDone` for `tag` on one endpoint's
    /// chain, if one is queued: unlink it from both intrusive lists and
    /// recycle its slot. This is the CQ half of the cancel-vs-completion
    /// rule (see [`channel_cancel_recv`]).
    fn withdraw_recv(&mut self, chain: &mut EpChain, tag: u64) -> bool {
        let mut prev = CQ_NIL;
        let mut slot = chain.head;
        while slot != CQ_NIL {
            let s = &self.slots[slot as usize];
            let hit = matches!(
                s.entry.as_ref().expect("occupied").event,
                TransportEvent::RecvDone { tag: t, .. } if t == tag
            );
            let next = s.ep_next;
            if hit {
                match prev {
                    CQ_NIL => chain.head = next,
                    p => self.slots[p as usize].ep_next = next,
                }
                if chain.tail == slot {
                    chain.tail = prev;
                }
                chain.len -= 1;
                self.take_global(slot);
                return true;
            }
            prev = slot;
            slot = next;
        }
        false
    }

    /// Drop every entry of one endpoint's chain (the chain empties and
    /// stays in place for reuse). Returns the number purged.
    fn purge(&mut self, chain: &mut EpChain) -> usize {
        let mut slot = chain.head;
        let purged = chain.len as usize;
        *chain = EpChain {
            cq: chain.cq,
            ..EpChain::default()
        };
        while slot != CQ_NIL {
            let next = self.slots[slot as usize].ep_next;
            self.take_global(slot);
            slot = next;
        }
        purged
    }
}

/// A channel send waiting for transport tokens.
struct QueuedSend {
    to: Endpoint,
    tag: u64,
    iov: IoVec,
    ctx: u64,
    /// The channel's tenant when the send was submitted: the send goes out
    /// and is counted under it even if the channel is re-tagged meanwhile.
    tenant: TenantId,
}

/// Default bound of the per-channel backpressure queue.
pub const DEFAULT_SEND_QUEUE_CAP: usize = 64;

/// Per-channel state.
pub struct Channel {
    pub local: Endpoint,
    /// `None` until the accepting side learns its peer from the first
    /// inbound message.
    pub peer: Option<Endpoint>,
    /// Opened without a fixed peer ([`channel_accept`] /
    /// [`channel_accept_handler`]): the endpoint may hear from — and hold
    /// state for — any number of peers, whichever one `peer` recorded
    /// first. Decides who hears about a dead node (see [`peer_down`]).
    accepting: bool,
    /// The backing completion queue, when the consumer is queue-backed
    /// (`None` for handler-backed channels).
    pub cq: Option<CqId>,
    consumer: ConsumerId,
    /// Kernel staging buffer for coalescing vectored sends on GM.
    staging: Option<(VirtAddr, u64)>,
    next_ctx: u64,
    /// Bytes copied through the staging buffer (coalescing cost indicator).
    pub coalesced_bytes: u64,
    /// The tenant newly attributed sends belong to (inherited from the
    /// endpoint's registered tenant at channel creation; updated by
    /// [`Registry::assign_tenant`]).
    pub tenant: TenantId,
    /// Sends the transport refused for lack of tokens, in submission
    /// order, retried from the front on the next send completion.
    pending: VecDeque<QueuedSend>,
    /// Bound of `pending`: a send arriving at a full queue fails with
    /// [`NetError::SendQueueFull`]. `0` disables queueing — token
    /// exhaustion then surfaces as [`NetError::NoSendTokens`], the raw
    /// transport contract.
    pub send_queue_cap: usize,
    /// Recycled send contexts (slots dense within this channel; see
    /// [`ctx_slot`]).
    pool: CtxPool,
}

impl Channel {
    /// Sends currently parked in the backpressure queue.
    pub fn queued_len(&self) -> usize {
        self.pending.len()
    }

    /// Sends the backpressure queue holds before it reallocates (flat in
    /// steady state; asserted by `tests/hotpath_alloc.rs`).
    pub fn queue_capacity(&self) -> usize {
        self.pending.capacity()
    }
}

/// Everything the registry knows about one endpoint. `Default` is the
/// state of an endpoint nobody has bound, assigned or delivered to.
struct EpRec {
    /// The consumer the endpoint's events are routed to (`None`: they park).
    consumer: Option<ConsumerId>,
    /// The channel owning the endpoint, for peer learning and send retries.
    channel: Option<ChannelId>,
    /// The last queue that accumulated entries for the endpoint — so a
    /// channel taking over a recycled endpoint can purge its predecessor's
    /// ghosts even when it feeds a different queue (or none).
    last_cq: Option<CqId>,
    /// Tenant attribution ([`TenantId::DEFAULT`] until assigned).
    tenant: TenantId,
    /// Events that arrived while no consumer was bound, oldest first.
    parked: VecDeque<TransportEvent>,
    /// The endpoint's chain in each queue holding (or having held) entries
    /// for it — one queue in every ordinary wiring, hence inline.
    chains: SmallVec<EpChain, 1>,
}

impl Default for EpRec {
    fn default() -> Self {
        EpRec {
            consumer: None,
            channel: None,
            last_cq: None,
            tenant: TenantId::DEFAULT,
            parked: VecDeque::new(),
            chains: SmallVec::new(),
        }
    }
}

impl EpRec {
    fn chain(&self, cq: CqId) -> Option<&EpChain> {
        self.chains.iter().find(|c| c.cq == cq)
    }

    fn chain_mut(&mut self, cq: CqId) -> Option<&mut EpChain> {
        self.chains.iter_mut().find(|c| c.cq == cq)
    }

    /// The endpoint's chain in `cq`, created empty on first use.
    fn chain_entry(&mut self, cq: CqId) -> &mut EpChain {
        let pos = match self.chains.iter().position(|c| c.cq == cq) {
            Some(pos) => pos,
            None => {
                self.chains.push(EpChain {
                    cq,
                    ..EpChain::default()
                });
                self.chains.len() - 1
            }
        };
        &mut self.chains[pos]
    }

    /// Forget the chain in `cq` (the queue is gone, its entries with it).
    fn drop_chain(&mut self, cq: CqId) {
        if let Some(pos) = self.chains.iter().position(|c| c.cq == cq) {
            let last = self.chains.len() - 1;
            self.chains.swap(pos, last);
            self.chains.pop();
        }
    }
}

/// The per-endpoint table: one [`EpRec`] per `(kind, idx)`, indexed
/// directly. Driver endpoint indices are minted densely from 0, so each
/// kind's row grows to the highest index actually used and no further;
/// reads never grow it.
#[derive(Default)]
struct EpTable {
    by_kind: [Vec<EpRec>; 2],
}

impl EpTable {
    fn get(&self, ep: Endpoint) -> Option<&EpRec> {
        self.by_kind[ep.kind as usize].get(ep.idx as usize)
    }

    fn get_mut(&mut self, ep: Endpoint) -> Option<&mut EpRec> {
        self.by_kind[ep.kind as usize].get_mut(ep.idx as usize)
    }

    /// The endpoint's record, materialized on first use.
    fn entry(&mut self, ep: Endpoint) -> &mut EpRec {
        let row = &mut self.by_kind[ep.kind as usize];
        let idx = ep.idx as usize;
        if row.len() <= idx {
            row.resize_with(idx + 1, EpRec::default);
        }
        &mut row[idx]
    }

    fn iter(&self) -> impl Iterator<Item = &EpRec> {
        self.by_kind.iter().flatten()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut EpRec> {
        self.by_kind.iter_mut().flatten()
    }

    /// Records the table can hold before a row reallocates.
    fn capacity(&self) -> usize {
        self.by_kind.iter().map(Vec::capacity).sum()
    }
}

/// Endpoint → consumer dispatch, completion queues, channels.
pub struct Registry<W> {
    consumers: Slab<Consumer<W>>,
    cqs: Slab<Cq>,
    channels: Slab<Channel>,
    /// Routes, channel ownership, tenants, parked events and queue chains,
    /// per endpoint.
    eps: EpTable,
    /// Tenant directory: ids, weights, per-tenant channel-layer counters.
    tenants: TenantTable,
    /// Staging buffers that went with a parked send, as (sending endpoint,
    /// send context, address, length): each is freed on its send's
    /// completion.
    lent: Vec<(Endpoint, u64, VirtAddr, u64)>,
    pub stats: RegistryStats,
}

impl<W> Default for Registry<W> {
    fn default() -> Self {
        Registry {
            consumers: Slab::new(),
            cqs: Slab::new(),
            channels: Slab::new(),
            eps: EpTable::default(),
            tenants: TenantTable::default(),
            lent: Vec::new(),
            stats: RegistryStats::default(),
        }
    }
}

impl<W> Registry<W> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Slots the endpoint table and the three id slabs can hold before any
    /// of them reallocates — flat once a workload's endpoints, queues and
    /// channels exist (asserted by `tests/hotpath_alloc.rs`).
    pub fn table_capacity(&self) -> usize {
        self.eps.capacity()
            + self.consumers.capacity()
            + self.cqs.capacity()
            + self.channels.capacity()
    }

    // ------------------------------------------------------------ queues

    /// Create an empty completion queue.
    pub fn create_cq(&mut self) -> CqId {
        CqId(self.cqs.insert(Cq::new()))
    }

    /// Destroy a queue, dropping any entries still in it. Consumers backed
    /// by the queue are deregistered and their routes dropped — endpoints
    /// that fed the dead queue park future events instead of feeding a
    /// stale [`CqId`] through [`Registry::cq_of`]/[`Registry::has_event`]
    /// (the lifecycle bug regression-tested in `tests/channel_api.rs`).
    pub fn destroy_cq(&mut self, cq: CqId) {
        if self.cqs.remove(cq.0).is_some() {
            for rec in self.eps.iter_mut() {
                rec.drop_chain(cq);
            }
        }
        let stale: Vec<ConsumerId> = self
            .consumers
            .iter()
            .filter(|(_, c)| matches!(c.sink, Sink::Cq(q) if q == cq))
            .map(|(id, _)| ConsumerId(id))
            .collect();
        for cid in stale {
            self.deregister(cid);
        }
    }

    /// Append an entry (used by [`deliver`]; public so tests can drive
    /// queues directly). O(1), allocation-free at the slab's high-water
    /// mark.
    pub fn cq_push(&mut self, cq: CqId, ep: Endpoint, event: TransportEvent) {
        // A destroyed queue stays destroyed: events for it are dropped, not
        // silently resurrected into a queue nobody polls.
        match self.cqs.get_mut(cq.0) {
            Some(q) => {
                let rec = self.eps.entry(ep);
                q.push(rec.chain_entry(cq), ep, event);
                rec.last_cq = Some(cq);
            }
            None => self.stats.dropped += 1,
        }
    }

    /// Pop the oldest entry of the queue.
    pub fn cq_pop(&mut self, cq: CqId) -> Option<CqEntry> {
        let q = self.cqs.get_mut(cq.0)?;
        let ep = q.oldest_ep()?;
        let chain = self.eps.get_mut(ep)?.chain_mut(cq).expect("chained");
        q.pop_for(chain)
    }

    /// Pop the oldest entry of the queue *for this endpoint* (entries for
    /// other endpoints sharing the queue keep their order). Served by the
    /// per-endpoint chain — O(1), not a scan over the queue.
    pub fn cq_pop_for(&mut self, cq: CqId, ep: Endpoint) -> Option<CqEntry> {
        let chain = self.eps.get_mut(ep)?.chain_mut(cq)?;
        let e = self.cqs.get_mut(cq.0)?.pop_for(chain)?;
        self.stats.indexed_pops += 1;
        Some(e)
    }

    /// Drain up to `max` entries for `ep` into `out` (cleared first),
    /// oldest first. One call amortizes the registry access over a whole
    /// burst of completions — the batched form polling drivers should
    /// prefer. Returns the number of entries drained.
    pub fn cq_pop_batch(
        &mut self,
        cq: CqId,
        ep: Endpoint,
        max: usize,
        out: &mut Vec<CqEntry>,
    ) -> usize {
        out.clear();
        let chain = self.eps.get_mut(ep).and_then(|rec| rec.chain_mut(cq));
        let (Some(chain), Some(q)) = (chain, self.cqs.get_mut(cq.0)) else {
            return 0;
        };
        while out.len() < max {
            match q.pop_for(chain) {
                Some(e) => out.push(e),
                None => break,
            }
        }
        let n = out.len();
        self.stats.indexed_pops += n as u64;
        self.stats.batched_pops += n as u64;
        n
    }

    pub fn cq_len(&self, cq: CqId) -> usize {
        self.cqs.get(cq.0).map(|q| q.len).unwrap_or(0)
    }

    /// Entries waiting in the queue for this endpoint.
    pub fn cq_len_for(&self, cq: CqId, ep: Endpoint) -> usize {
        let chain = self.eps.get(ep).and_then(|rec| rec.chain(cq));
        chain.map(|c| c.len as usize).unwrap_or(0)
    }

    /// The queue the endpoint's consumer feeds, when it is queue-backed.
    pub fn cq_of(&self, ep: Endpoint) -> Option<CqId> {
        let cid = self.consumer_of(ep)?;
        match self.consumers.get(cid.0)?.sink {
            Sink::Cq(cq) => Some(cq),
            Sink::Handler(_) => None,
        }
    }

    /// Is an event waiting for `ep` on its bound queue?
    pub fn has_event(&self, ep: Endpoint) -> bool {
        self.cq_of(ep).is_some_and(|cq| self.cq_len_for(cq, ep) > 0)
    }

    /// Pop the next event for `ep` from its bound queue.
    pub fn take_event(&mut self, ep: Endpoint) -> Option<TransportEvent> {
        let cq = self.cq_of(ep)?;
        self.cq_pop_for(cq, ep).map(|e| e.event)
    }

    // --------------------------------------------------------- consumers

    /// Register an upcall consumer (how in-kernel applications attach).
    pub fn register(
        &mut self,
        name: &str,
        handler: impl Fn(&mut W, Endpoint, TransportEvent) + Send + Sync + 'static,
    ) -> ConsumerId {
        self.insert_consumer(name, Sink::Handler(Arc::new(handler)))
    }

    /// Register a queue-backed consumer (how polling drivers attach).
    pub fn register_cq(&mut self, name: &str, cq: CqId) -> ConsumerId {
        self.insert_consumer(name, Sink::Cq(cq))
    }

    fn insert_consumer(&mut self, name: &str, sink: Sink<W>) -> ConsumerId {
        ConsumerId(self.consumers.insert(Consumer {
            name: name.to_string(),
            sink,
        }))
    }

    /// Remove a consumer and every route pointing at it. Future events for
    /// those endpoints park until someone else binds. Returns whether the
    /// consumer existed.
    pub fn deregister(&mut self, cid: ConsumerId) -> bool {
        let existed = self.consumers.remove(cid.0).is_some();
        for rec in self.eps.iter_mut() {
            if rec.consumer == Some(cid) {
                rec.consumer = None;
            }
        }
        existed
    }

    /// The consumer currently bound to `ep`.
    pub fn consumer_of(&self, ep: Endpoint) -> Option<ConsumerId> {
        self.eps.get(ep)?.consumer
    }

    /// The display name of a consumer.
    pub fn consumer_name(&self, cid: ConsumerId) -> Option<&str> {
        self.consumers.get(cid.0).map(|c| c.name.as_str())
    }

    /// Drop the route for `ep` (events park again). Returns the previous
    /// consumer, if any.
    pub fn unbind(&mut self, ep: Endpoint) -> Option<ConsumerId> {
        self.eps.get_mut(ep)?.consumer.take()
    }

    /// Parked events waiting for `ep` (unbound endpoints).
    pub fn parked_len(&self, ep: Endpoint) -> usize {
        self.eps.get(ep).map(|rec| rec.parked.len()).unwrap_or(0)
    }

    // ---------------------------------------------------------- channels

    pub fn channel(&self, ch: ChannelId) -> Option<&Channel> {
        self.channels.get(ch.0)
    }

    /// The channel owning `ep`, if any.
    pub fn channel_of(&self, ep: Endpoint) -> Option<ChannelId> {
        self.eps.get(ep)?.channel
    }

    // ----------------------------------------------------------- tenants

    /// Mint a tenant id at registration time (idempotent by name). The id
    /// is carried on every send the tenant's endpoints issue and honored
    /// at each queueing point below the channel layer.
    pub fn tenant_create(&mut self, name: &str) -> TenantId {
        self.tenants.create(name)
    }

    /// The tenant an endpoint's sends are attributed to
    /// ([`TenantId::DEFAULT`] when never assigned).
    pub fn tenant_of(&self, ep: Endpoint) -> TenantId {
        self.eps
            .get(ep)
            .map(|rec| rec.tenant)
            .unwrap_or(TenantId::DEFAULT)
    }

    /// Attribute an endpoint (and its current channel, if any) to a
    /// tenant. Sends already queued keep the tenant they were submitted
    /// under. An id
    /// [`Self::tenant_create`] never minted has no stats row and is refused
    /// (`false`): the endpoint stays on its current tenant.
    pub fn assign_tenant(&mut self, ep: Endpoint, t: TenantId) -> bool {
        if t.0 as usize >= self.tenants.count() {
            return false;
        }
        let rec = self.eps.entry(ep);
        rec.tenant = t;
        if let Some(c) = rec.channel.and_then(|chid| self.channels.get_mut(chid.0)) {
            c.tenant = t;
        }
        true
    }

    /// The tenant directory (names, per-tenant counters).
    pub fn tenant_table(&self) -> &TenantTable {
        &self.tenants
    }

    /// Fold the backpressure queues of the channels whose local endpoint
    /// lives on `node` into a fingerprint accumulator, ascending channel id
    /// — the shard-equivalence hook (`tests/sched_equivalence` mixes this
    /// next to the event stream so per-tenant queueing cannot silently
    /// diverge across shard counts). Per node because a node's channel
    /// state is authoritative only on the shard world owning the node:
    /// equivalence tests fold each node's slice from its owner.
    pub fn queue_fingerprint_node(&self, node: u32, mut mix: impl FnMut(u64)) {
        for (id, c) in self.channels.iter() {
            if c.local.node.0 != node {
                continue;
            }
            mix(id as u64);
            mix(c.tenant.0 as u64);
            mix(c.pending.len() as u64);
            for qs in &c.pending {
                mix(qs.tenant.0 as u64);
            }
        }
    }
}

/// Bind `ep` to consumer `cid`, replacing any previous binding and
/// replaying events that parked while the endpoint was unbound. A displaced
/// queue-backed consumer with no remaining routes is garbage-collected
/// (handler consumers stay registered — services may bind them to other
/// endpoints later). A *channel* owning the endpoint is torn down
/// coherently: its state, route entry and consumer all go together, so a
/// rebind can never leave a dangling channel learning peers or a
/// `channel_close` deregistering someone else's consumer.
pub fn bind<W: DispatchWorld>(w: &mut W, ep: Endpoint, cid: ConsumerId) {
    let stale_channel = {
        let r = w.registry();
        r.channel_of(ep)
            .filter(|chid| r.channel(*chid).map(|c| c.consumer != cid).unwrap_or(true))
    };
    if let Some(chid) = stale_channel {
        teardown_channel(w, chid);
    }
    let r = w.registry_mut();
    let rec = r.eps.entry(ep);
    let displaced = rec.consumer.replace(cid);
    let parked = std::mem::take(&mut rec.parked);
    if let Some(prev) = displaced.filter(|p| *p != cid) {
        let routeless = !r.eps.iter().any(|rec| rec.consumer == Some(prev));
        let is_cq = matches!(r.consumers.get(prev.0).map(|c| &c.sink), Some(Sink::Cq(_)));
        if routeless && is_cq {
            r.consumers.remove(prev.0);
        }
    }
    for ev in parked {
        w.registry_mut().stats.replayed += 1;
        deliver(w, ep, ev);
    }
}

/// Route one transport event to the endpoint's consumer. This is the single
/// entry point the composed world calls from its driver dispatch loops.
///
/// A send completion — `SendDone`, or the `SendFailed` of a send the
/// driver had accepted — releases that send's transport token, so it is
/// the moment the endpoint's channel (if any) retries the sends its
/// backpressure queue holds.
pub fn deliver<W: DispatchWorld>(w: &mut W, ep: Endpoint, ev: TransportEvent) {
    if let Some(chid) = route(w, ep, ev) {
        flush_channel_sends(w, chid);
    }
}

/// [`deliver`] without the retry: route `ev` to the endpoint's consumer
/// and, when it completes a send, return that send's context to its
/// channel's pool and name the channel. The channel layer's own
/// `SendFailed` for a send it never handed to the transport goes through
/// here — no token came back, so there is nothing to retry.
fn route<W: DispatchWorld>(w: &mut W, ep: Endpoint, ev: TransportEvent) -> Option<ChannelId> {
    // A send completion retires its pooled context: the slot recycles for
    // the next send (the context *value* stays unique — generations).
    let retired_ctx = match ev {
        TransportEvent::SendDone { ctx } | TransportEvent::SendFailed { ctx, .. } => Some(ctx),
        _ => None,
    };
    let r = w.registry_mut();
    let rec = r.eps.entry(ep);
    // An accept-side channel learns its peer from its first inbound message
    // (unexpected delivery or posted-receive completion).
    if let TransportEvent::Unexpected { from, .. } | TransportEvent::RecvDone { from, .. } = &ev {
        if let Some(ch) = rec.channel.and_then(|chid| r.channels.get_mut(chid.0)) {
            ch.peer.get_or_insert(*from);
        }
    }
    let sink = rec.consumer.and_then(|cid| r.consumers.get(cid.0));
    match sink.map(|c| &c.sink) {
        None => {
            r.stats.parked += 1;
            rec.parked.push_back(ev);
        }
        Some(&Sink::Cq(cq)) => {
            r.stats.delivered += 1;
            r.cq_push(cq, ep, ev);
        }
        Some(Sink::Handler(h)) => {
            r.stats.delivered += 1;
            let h = Arc::clone(h);
            h(w, ep, ev);
        }
    }
    // Release *after* routing: a handler consumer has processed the event
    // by now, so a recycled slot can never collide with its bookkeeping —
    // and the endpoint's channel is whatever the handler left there.
    let ctx = retired_ctx?;
    if !w.registry().lent.is_empty() {
        release_lent_staging(w, ep, ctx);
    }
    let r = w.registry_mut();
    let chid = r.channel_of(ep)?;
    r.channels.get_mut(chid.0)?.pool.release(ctx);
    Some(chid)
}

/// Free the staging buffer that went with send `ctx` of `ep`, if any.
#[cold]
fn release_lent_staging<W: DispatchWorld>(w: &mut W, ep: Endpoint, ctx: u64) {
    let r = w.registry_mut();
    if let Some(i) = r.lent.iter().position(|&(e, c, ..)| (e, c) == (ep, ctx)) {
        let (_, _, addr, len) = r.lent.swap_remove(i);
        release_kernel_buffer(w, ep.node, addr, len);
    }
}

// ------------------------------------------------------------------ channels

fn create_channel<W: DispatchWorld>(
    w: &mut W,
    local: Endpoint,
    peer: Option<Endpoint>,
    sink: Sink<W>,
) -> ChannelId {
    // A previous channel on this endpoint is replaced, not leaked.
    if let Some(old) = w.registry().channel_of(local) {
        teardown_channel(w, old);
    }
    let cq = match sink {
        Sink::Cq(cq) => Some(cq),
        Sink::Handler(_) => None,
    };
    // Purge the endpoint's undrained entries from the queue this channel
    // will feed *and* from the last queue that accumulated for it: send
    // contexts are pooled *per channel* (slot 0 restarts every
    // incarnation), so a leftover completion from a closed channel on this
    // endpoint would alias the new channel's contexts — also when the new
    // channel feeds a different queue, or a handler. Completions of a
    // closed channel stay poppable until someone reuses the endpoint —
    // then they are ghosts, and dropped (counted in `dropped`). This is
    // the recycled-endpoint lifecycle bug regression-tested in
    // `tests/channel_api.rs`.
    let r = w.registry_mut();
    let rec = r.eps.entry(local);
    let tenant = rec.tenant;
    for target in [cq, rec.last_cq].into_iter().flatten() {
        if let (Some(q), Some(chain)) = (r.cqs.get_mut(target.0), rec.chain_mut(target)) {
            r.stats.dropped += q.purge(chain) as u64;
        }
    }
    // Ids are minted once and never reused: they appear in consumer names
    // and callers may hold a closed channel's id.
    let id = ChannelId(r.channels.next_id());
    let consumer = r.insert_consumer(&format!("channel-{}", id.0), sink);
    r.channels.insert(Channel {
        local,
        peer,
        accepting: peer.is_none(),
        cq,
        consumer,
        staging: None,
        next_ctx: 1,
        coalesced_bytes: 0,
        tenant,
        pending: VecDeque::new(),
        send_queue_cap: DEFAULT_SEND_QUEUE_CAP,
        pool: CtxPool::default(),
    });
    r.eps.entry(local).channel = Some(id);
    bind(w, local, consumer);
    id
}

/// Open the active side of a channel: `local` will exchange tagged messages
/// with `peer`, completions arriving on `cq`.
pub fn channel_connect<W: DispatchWorld>(
    w: &mut W,
    local: Endpoint,
    peer: Endpoint,
    cq: CqId,
) -> ChannelId {
    create_channel(w, local, Some(peer), Sink::Cq(cq))
}

/// Open the passive side: the peer is learned from the first inbound
/// message (visible via [`channel_peer`]); sends before that fail with
/// [`NetError::BadDestination`].
pub fn channel_accept<W: DispatchWorld>(w: &mut W, local: Endpoint, cq: CqId) -> ChannelId {
    create_channel(w, local, None, Sink::Cq(cq))
}

/// Open a channel whose completions are delivered as in-kernel upcalls
/// instead of accumulating on a queue — how handler-based services (the
/// zero-copy socket layer) get channel semantics (vectored sends with GM
/// coalescing, ordered backpressure) on top of their event-driven shape.
pub fn channel_connect_handler<W: DispatchWorld>(
    w: &mut W,
    local: Endpoint,
    peer: Endpoint,
    name: &str,
    handler: impl Fn(&mut W, Endpoint, TransportEvent) + Send + Sync + 'static,
) -> ChannelId {
    let id = create_channel(w, local, Some(peer), Sink::Handler(Arc::new(handler)));
    name_channel_consumer(w, id, name);
    id
}

/// Open the passive side of a handler-backed channel: no fixed peer, every
/// inbound message is upcalled into `handler`. This is the *server* shape —
/// one endpoint serving many clients (ORFS, NBD) — so replies go out with
/// [`channel_send_to`], which addresses an explicit destination while still
/// getting channel semantics (GM coalescing, pooled contexts, ordered
/// backpressure).
pub fn channel_accept_handler<W: DispatchWorld>(
    w: &mut W,
    local: Endpoint,
    name: &str,
    handler: impl Fn(&mut W, Endpoint, TransportEvent) + Send + Sync + 'static,
) -> ChannelId {
    let id = create_channel(w, local, None, Sink::Handler(Arc::new(handler)));
    name_channel_consumer(w, id, name);
    id
}

/// Give a channel's consumer the service's name for diagnostics.
fn name_channel_consumer<W: DispatchWorld>(w: &mut W, ch: ChannelId, name: &str) {
    let r = w.registry_mut();
    if let Some(c) = r.channels.get(ch.0).map(|c| c.consumer) {
        if let Some(consumer) = r.consumers.get_mut(c.0) {
            consumer.name = name.to_string();
        }
    }
}

/// The channel's peer, once known.
pub fn channel_peer<W: DispatchWorld>(w: &W, ch: ChannelId) -> Option<Endpoint> {
    w.registry().channel(ch).and_then(|c| c.peer)
}

/// The channel's completion queue (queue-backed channels only).
pub fn channel_cq<W: DispatchWorld>(w: &W, ch: ChannelId) -> Option<CqId> {
    w.registry().channel(ch).and_then(|c| c.cq)
}

/// Bound the channel's backpressure queue (see [`channel_send`]); `0`
/// disables queueing and restores the raw [`NetError::NoSendTokens`]
/// contract.
///
/// Shrinking the cap below the current [`Channel::queued_len`] does not
/// silently strand the excess: parked sends past the new cap are failed
/// deterministically, newest first, each completing as
/// [`TransportEvent::SendFailed`] with [`NetError::SendQueueFull`] (the
/// caller holds `Ok(ctx)` for them, so a completion must arrive).
pub fn channel_set_send_queue_cap<W: DispatchWorld>(w: &mut W, ch: ChannelId, cap: usize) {
    loop {
        let (local, evicted) = {
            let r = w.registry_mut();
            let Some(c) = r.channels.get_mut(ch.0) else {
                return;
            };
            c.send_queue_cap = cap;
            if c.pending.len() <= cap {
                return;
            }
            let qs = c.pending.pop_back().expect("queue over cap");
            r.stats.failed_retries += 1;
            r.tenants.note(qs.tenant, |s| s.failed_retries += 1);
            (c.local, qs.ctx)
        };
        route(
            w,
            local,
            TransportEvent::SendFailed {
                ctx: evicted,
                error: NetError::SendQueueFull,
            },
        );
    }
}

/// Send a tagged, possibly multi-segment message on the channel. Returns
/// the completion context that the eventual `SendDone` will carry.
///
/// On GM the driver only accepts single-segment sends (§4.1); multi-segment
/// io-vectors are transparently gathered into the channel's kernel staging
/// buffer (one memcpy, charged to the CPU model) so the caller-visible
/// contract is vectored I/O on every transport.
///
/// **Backpressure contract:** when the transport is out of send tokens
/// ([`NetError::NoSendTokens`]), the send is queued and retried — in
/// submission order — each time a send completion frees a token; the caller
/// still gets `Ok(ctx)` and the completion arrives later. The queue is
/// bounded by [`Channel::send_queue_cap`]; a send arriving at a full queue
/// fails with [`NetError::SendQueueFull`]. Every other transport error
/// still surfaces synchronously — a send the driver's pacing lane parks is
/// accepted, not queued here.
pub fn channel_send<W: DispatchWorld>(
    w: &mut W,
    ch: ChannelId,
    tag: u64,
    iov: IoVec,
) -> Result<u64, NetError> {
    let peer = {
        let r = w.registry();
        let c = r.channels.get(ch.0).ok_or(NetError::BadEndpoint)?;
        c.peer.ok_or(NetError::BadDestination)?
    };
    channel_send_to(w, ch, peer, tag, iov)
}

/// [`channel_send`] with an explicit destination — the reply path of
/// accept-side server channels ([`channel_accept_handler`]), whose one
/// endpoint talks to many peers. Ordering within the channel's backpressure
/// queue is preserved across destinations (submission order).
pub fn channel_send_to<W: DispatchWorld>(
    w: &mut W,
    ch: ChannelId,
    to: Endpoint,
    tag: u64,
    iov: IoVec,
) -> Result<u64, NetError> {
    // Contexts come from the channel's own pool: recycled slots, unique
    // values (see `ctx_slot`). The slot returns on SendDone/SendFailed.
    let (local, tenant, cap, qlen, ctx) = {
        let r = w.registry_mut();
        let c = r.channels.get_mut(ch.0).ok_or(NetError::BadEndpoint)?;
        let (ctx, reused) = c.pool.alloc();
        let state = (c.local, c.tenant, c.send_queue_cap, c.pending.len(), ctx);
        if reused {
            r.stats.ctx_pool_reuses += 1;
        } else {
            r.stats.ctx_pool_slots += 1;
        }
        state
    };
    let qs = QueuedSend {
        to,
        tag,
        iov,
        ctx,
        tenant,
    };
    // Earlier sends are already waiting for tokens: keep submission
    // order, join the queue (or overflow it).
    if qlen > 0 {
        if qlen >= cap {
            release_channel_ctx(w, ch, ctx);
            return Err(NetError::SendQueueFull);
        }
        queue_send(w, ch, qs);
        return Ok(ctx);
    }
    match transmit(w, ch, local, &qs) {
        Ok(()) => {
            w.registry_mut()
                .tenants
                .note(tenant, |s| s.direct_sends += 1);
            Ok(ctx)
        }
        // Queue the *original* io-vector; coalescing (and its charge)
        // reruns when the retry is accepted.
        Err(NetError::NoSendTokens) if cap > 0 => {
            queue_send(w, ch, qs);
            Ok(ctx)
        }
        Err(e) => {
            release_channel_ctx(w, ch, ctx);
            Err(e)
        }
    }
}

/// Hand one channel send to the transport: coalesce it for GM, send it,
/// and charge the gather copy once the transport accepts it.
fn transmit<W: DispatchWorld>(
    w: &mut W,
    ch: ChannelId,
    local: Endpoint,
    qs: &QueuedSend,
) -> Result<(), NetError> {
    let (wire_iov, coalesced) = coalesce_for_transport(w, ch, local, qs.iov.clone())?;
    let sent = w.t_send_t(local, qs.to, qs.tag, wire_iov, qs.ctx, qs.tenant)?;
    charge_coalesce(w, ch, local, qs.ctx, coalesced, sent);
    Ok(())
}

/// Append a send to the channel's backpressure queue and count it.
fn queue_send<W: DispatchWorld>(w: &mut W, ch: ChannelId, qs: QueuedSend) {
    let r = w.registry_mut();
    r.stats.queued_sends += 1;
    r.tenants.note(qs.tenant, |s| s.queued_sends += 1);
    if let Some(c) = r.channels.get_mut(ch.0) {
        c.pending.push_back(qs);
    }
}

/// Return a send context to its channel's pool (no-op if the channel is
/// gone — the pool dies with it).
fn release_channel_ctx<W: DispatchWorld>(w: &mut W, ch: ChannelId, ctx: u64) {
    if let Some(c) = w.registry_mut().channels.get_mut(ch.0) {
        c.pool.release(ctx);
    }
}

/// Retry queued sends of `ch`, oldest first, until the queue drains or
/// the transport runs out of tokens again. Called from [`deliver`] on
/// every send completion for the channel's endpoint.
fn flush_channel_sends<W: DispatchWorld>(w: &mut W, ch: ChannelId) {
    loop {
        let Some((local, qs)) = w
            .registry_mut()
            .channels
            .get_mut(ch.0)
            .and_then(|c| Some((c.local, c.pending.pop_front()?)))
        else {
            return;
        };
        match transmit(w, ch, local, &qs) {
            Ok(()) => {
                let r = w.registry_mut();
                r.stats.retried_sends += 1;
                r.tenants.note(qs.tenant, |s| s.retried_sends += 1);
            }
            Err(NetError::NoSendTokens) => {
                // Still dry: back to the head of the queue, to wait for the
                // next send completion.
                if let Some(c) = w.registry_mut().channels.get_mut(ch.0) {
                    c.pending.push_front(qs);
                }
                return;
            }
            Err(error) => {
                // Non-transient failure on retry: the channel's consumer
                // gets a `SendFailed` completion so resources tied to the
                // context are released (the original caller already holds
                // `Ok(ctx)`).
                let r = w.registry_mut();
                r.stats.failed_retries += 1;
                r.tenants.note(qs.tenant, |s| s.failed_retries += 1);
                route(w, local, TransportEvent::SendFailed { ctx: qs.ctx, error });
            }
        }
    }
}

/// Book a send the transport accepted after `coalesce_for_transport`
/// gathered `coalesced` bytes for it. The gather copy is charged only now,
/// so a send refused for tokens and retried later is not charged twice. A
/// send the pacing seam parked reads its bytes when its lane drains, so
/// the staging buffer goes with it: the channel forgets the buffer (the
/// next vectored send gathers into a fresh one) and [`deliver`] frees it
/// on the send's completion.
fn charge_coalesce<W: DispatchWorld>(
    w: &mut W,
    ch: ChannelId,
    local: Endpoint,
    ctx: u64,
    coalesced: u64,
    sent: Sent,
) {
    if coalesced == 0 {
        return;
    }
    let cost = w.os().node(local.node).cpu.model.memcpy_cost(coalesced);
    cpu_charge(w, local.node, cost);
    let r = w.registry_mut();
    if let Some(c) = r.channels.get_mut(ch.0) {
        c.coalesced_bytes += coalesced;
        if let (Sent::Parked, Some((addr, len))) = (sent, c.staging) {
            c.staging = None;
            r.lent.push((local, ctx, addr, len));
        }
    }
}

/// Arm a tagged receive on the channel; completion (`RecvDone` with the
/// returned context) arrives at the channel's consumer.
pub fn channel_post_recv<W: DispatchWorld>(
    w: &mut W,
    ch: ChannelId,
    tag: u64,
    iov: IoVec,
) -> Result<u64, NetError> {
    let (local, ctx) = {
        let r = w.registry_mut();
        let c = r.channels.get_mut(ch.0).ok_or(NetError::BadEndpoint)?;
        let ctx = c.next_ctx;
        c.next_ctx += 1;
        (c.local, ctx)
    };
    w.t_post_recv(local, tag, iov, ctx)?;
    Ok(ctx)
}

/// Withdraw a posted receive by tag.
///
/// **The cancel-vs-completion rule (one rule, both sink shapes):** cancel
/// wins every race the consumer has not yet observed. Concretely:
///
/// * returns `true` ⇒ the consumer will **never** observe a `RecvDone` for
///   this tag — either the receive was still pending in the driver, queued
///   or captured by a half-arrived eager message
///   ([`TransportWorld::t_cancel_recv`]
///   withdrew it), or its completion had already been delivered to the
///   channel's CQ but **not yet popped**, in which case the queued entry is
///   dropped here (counted in [`RegistryStats::cancelled_completions`]);
/// * returns `false` ⇒ cancel lost deterministically: the completion was
///   already observed (popped from the CQ / upcalled into a handler), the
///   receive was committed to an accepted rendezvous inside the driver and
///   its `RecvDone` is irrevocably on its way, or no such receive was ever
///   posted.
///
/// Handler-backed channels have no queued-but-unobserved window (upcalls
/// are synchronous), so for them this is exactly the driver contract. RPC
/// cancellation sits directly on this rule: after a `true` return
/// `knet-rpc` frees the call context immediately; after a `false` it
/// parks the context until the in-flight completion drains through it.
pub fn channel_cancel_recv<W: DispatchWorld>(w: &mut W, ch: ChannelId, tag: u64) -> bool {
    let Some((local, cq)) = w.registry().channel(ch).map(|c| (c.local, c.cq)) else {
        return false;
    };
    if w.t_cancel_recv(local, tag) {
        return true;
    }
    // The driver no longer holds it: the completion may already be queued
    // (delivered, unobserved) on the channel's CQ. Cancel wins that race.
    if let Some(cq) = cq {
        let r = w.registry_mut();
        let chain = r.eps.get_mut(local).and_then(|rec| rec.chain_mut(cq));
        if let (Some(q), Some(chain)) = (r.cqs.get_mut(cq.0), chain) {
            if q.withdraw_recv(chain, tag) {
                r.stats.cancelled_completions += 1;
                return true;
            }
        }
    }
    false
}

/// Whether a message is arriving into the receive posted on `ch` under
/// `tag` ([`TransportWorld::t_recv_filling`]).
pub(crate) fn channel_recv_filling<W: DispatchWorld>(w: &W, ch: ChannelId, tag: u64) -> bool {
    let local = w.registry().channel(ch).map(|c| c.local);
    local.is_some_and(|ep| w.t_recv_filling(ep, tag))
}

/// Withdraw a send still parked in the channel's backpressure queue.
///
/// Returns `true` iff `ctx` was waiting for transport tokens and never
/// reached the wire: the entry is removed, the context returns to the
/// channel's pool, and **no completion will be delivered for it** (the
/// caller is withdrawing its `Ok(ctx)`). Returns `false` when the send
/// already left (its `SendDone`/`SendFailed` will arrive as usual) or the
/// channel/context is unknown. This is how deadline enforcement reaches
/// into backpressure: an RPC whose deadline fires while its request is
/// still queued resolves `Deadline` without ever touching the wire.
pub fn channel_abort_queued_send<W: DispatchWorld>(w: &mut W, ch: ChannelId, ctx: u64) -> bool {
    let r = w.registry_mut();
    let Some(c) = r.channels.get_mut(ch.0) else {
        return false;
    };
    let Some(i) = c.pending.iter().position(|qs| qs.ctx == ctx) else {
        return false;
    };
    let qs = c.pending.remove(i).expect("found");
    c.pool.release(ctx);
    r.stats.aborted_queued_sends += 1;
    r.tenants.note(qs.tenant, |s| s.aborted_queued_sends += 1);
    true
}

/// Remove a channel's state — route entry, consumer, staging buffer,
/// queued sends — without touching the endpoint's *current* binding.
/// Returns the channel's endpoint when it existed.
fn teardown_channel<W: DispatchWorld>(w: &mut W, ch: ChannelId) -> Option<Endpoint> {
    let mut c = w.registry_mut().channels.remove(ch.0)?;
    // Backpressure-queued sends can never go out now. Complete them as
    // `SendFailed`, oldest first, while the channel's consumer is still
    // bound, so every `Ok(ctx)` the caller holds gets its completion and
    // the resources tied to those contexts are released.
    for qs in std::mem::take(&mut c.pending) {
        let r = w.registry_mut();
        r.stats.failed_retries += 1;
        r.tenants.note(qs.tenant, |s| s.failed_retries += 1);
        route(
            w,
            c.local,
            TransportEvent::SendFailed {
                ctx: qs.ctx,
                error: NetError::BadEndpoint,
            },
        );
    }
    {
        let r = w.registry_mut();
        if let Some(rec) = r.eps.get_mut(c.local).filter(|rec| rec.channel == Some(ch)) {
            rec.channel = None;
        }
        r.deregister(c.consumer);
    }
    if let Some((addr, len)) = c.staging {
        release_kernel_buffer(w, c.local.node, addr, len);
    }
    Some(c.local)
}

/// Close a channel: unbind its endpoint (future events park), release the
/// staging buffer, drop its state. Queued backpressure sends complete as
/// [`TransportEvent::SendFailed`] before the consumer detaches. A
/// caller-owned CQ survives. Closing an id already invalidated (e.g. by a
/// rebind of its endpoint) is a no-op.
pub fn channel_close<W: DispatchWorld>(w: &mut W, ch: ChannelId) {
    if let Some(local) = teardown_channel(w, ch) {
        w.registry_mut().unbind(local);
    }
}

/// Propagate a dead link into the channel layer: the driver's reliability
/// window exhausted its retry budget against `remote_node` (or the node was
/// killed). Among the channels of `kind` whose endpoint lives on
/// `local_node`:
///
/// * **every** channel has its backpressure-queued sends toward the dead
///   node completed as [`TransportEvent::SendFailed`] with
///   [`NetError::PeerUnreachable`] (their bytes can never leave);
/// * one [`TransportEvent::PeerDown`] goes to each channel that can hold
///   state for the dead node, and to no other: a *connected* channel
///   ([`channel_connect`] / [`channel_connect_handler`]) hears it iff its
///   peer lives on `remote_node`; an *accept-side* channel
///   ([`channel_accept`] / [`channel_accept_handler`]) always hears it,
///   because one endpoint serves many peers — its consumer keys the
///   cleanup on `peer.node`.
///
/// This is the one place that decides who hears about a dead peer. A
/// client connected to a live node is never told about someone else's
/// casualty, so a consumer's `PeerDown` arm may fail everything it has in
/// flight without asking whose peer died — zsock poisons the socket, the
/// ORFS/NBD/RPC clients fail their pending operations with a typed error.
pub fn peer_down<W: DispatchWorld>(
    w: &mut W,
    kind: TransportKind,
    local_node: NodeId,
    remote_node: NodeId,
) {
    let affected: Vec<(ChannelId, Endpoint, Option<Endpoint>, bool)> = w
        .registry()
        .channels
        .iter()
        .filter(|(_, c)| c.local.kind == kind && c.local.node == local_node)
        .map(|(id, c)| (ChannelId(id), c.local, c.peer, c.accepting))
        .collect();
    for (chid, local, peer, accepting) in affected {
        // Fail queued sends addressed to the dead node, oldest first.
        loop {
            let ctx = {
                let r = w.registry_mut();
                let Some(c) = r.channels.get_mut(chid.0) else {
                    break;
                };
                let Some(i) = c.pending.iter().position(|qs| qs.to.node == remote_node) else {
                    break;
                };
                let qs = c.pending.remove(i).expect("found");
                r.stats.failed_retries += 1;
                r.tenants.note(qs.tenant, |s| s.failed_retries += 1);
                qs.ctx
            };
            route(
                w,
                local,
                TransportEvent::SendFailed {
                    ctx,
                    error: NetError::PeerUnreachable,
                },
            );
        }
        let peer_ep = match peer {
            Some(p) if p.node == remote_node => p,
            _ if accepting => Endpoint {
                kind,
                node: remote_node,
                idx: u32::MAX,
            },
            _ => continue,
        };
        deliver(w, local, TransportEvent::PeerDown { peer: peer_ep });
    }
}

/// Free a kernel buffer that drivers may hold cached registrations for:
/// the VMA-SPY unmap notification runs first, so registration caches (and
/// through them the NIC translation tables) drop their entries before the
/// memory is reused. Kernel `kfree` emits no VMA event of its own — every
/// layer that hands kernel staging memory back must go through here.
pub fn release_kernel_buffer<W: DispatchWorld>(w: &mut W, node: NodeId, addr: VirtAddr, len: u64) {
    w.vma_event(node, VmaEvent::unmap(Asid::KERNEL, addr, len));
    let _ = w.os_mut().node_mut(node).kfree(addr, len);
}

/// Coalesce a multi-segment io-vector into the channel's kernel staging
/// buffer when the transport cannot take it as-is (GM). Single-segment
/// vectors and vectorial transports pass through untouched.
/// Returns the (possibly rewritten) io-vector plus the number of bytes
/// gathered through the staging buffer (0 when passed through untouched);
/// the caller charges the copy once the send is accepted.
fn coalesce_for_transport<W: DispatchWorld>(
    w: &mut W,
    ch: ChannelId,
    local: Endpoint,
    iov: IoVec,
) -> Result<(IoVec, u64), NetError> {
    if local.kind != TransportKind::Gm || iov.seg_count() <= 1 {
        return Ok((iov, 0));
    }
    let len = iov.total_len();
    let node = local.node;
    // Grow (or create) the staging buffer to fit.
    let staging = {
        let cur = w
            .registry()
            .channel(ch)
            .ok_or(NetError::BadEndpoint)?
            .staging;
        match cur {
            Some((addr, cap)) if cap >= len => addr,
            other => {
                if let Some((addr, cap)) = other {
                    release_kernel_buffer(w, node, addr, cap);
                }
                let addr = w.os_mut().node_mut(node).kalloc(len)?;
                if let Some(c) = w.registry_mut().channels.get_mut(ch.0) {
                    c.staging = Some((addr, len));
                }
                addr
            }
        }
    };
    // Gather in one pass over the segments (the copy cost is charged by the
    // caller once the send goes out).
    let data = read_iovec(w.os().node(node), &iov)?;
    w.os_mut()
        .node_mut(node)
        .write_virt(Asid::KERNEL, staging, &data)?;
    Ok((IoVec::single(MemRef::kernel(staging, len)), len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(kind: TransportKind, idx: u32) -> Endpoint {
        Endpoint {
            kind,
            node: NodeId(0),
            idx,
        }
    }

    fn done(ctx: u64) -> TransportEvent {
        TransportEvent::SendDone { ctx }
    }

    #[test]
    fn endpoint_table_grows_to_the_highest_index_used_and_reads_never_grow_it() {
        use TransportKind::{Gm, Mx};
        let mut t = EpTable::default();
        assert!(t.get(ep(Gm, 5)).is_none());
        assert!(t.get_mut(ep(Mx, 0)).is_none());
        assert_eq!(t.capacity(), 0, "lookups materialize nothing");

        t.entry(ep(Gm, 5)).tenant = TenantId(3);
        assert_eq!(t.by_kind[Gm as usize].len(), 6, "one row, up to the index");
        assert!(
            t.by_kind[Mx as usize].is_empty(),
            "the other kind untouched"
        );
        // Records below the index exist in their default state; the kind
        // takes part in the key.
        let below = t.get(ep(Gm, 2)).expect("materialized with the row");
        assert!(below.consumer.is_none() && below.tenant == TenantId::DEFAULT);
        assert_eq!(t.get(ep(Gm, 5)).map(|r| r.tenant), Some(TenantId(3)));
        assert!(t.get(ep(Mx, 5)).is_none());
        assert_eq!(t.iter().count(), 6);

        // Re-entering a materialized record neither grows nor resets it.
        t.entry(ep(Gm, 1)).last_cq = Some(CqId(9));
        assert_eq!(t.entry(ep(Gm, 5)).tenant, TenantId(3));
        assert_eq!(t.iter().count(), 6);
    }

    #[test]
    fn routes_set_clear_set_and_deregister_keeps_everyone_elses() {
        let mut r: Registry<()> = Registry::new();
        let cq = r.create_cq();
        let (c1, c2) = (r.register_cq("one", cq), r.register_cq("two", cq));
        assert_eq!((c1, c2), (ConsumerId(0), ConsumerId(1)));
        let eps: Vec<Endpoint> = (0..4).map(|i| ep(TransportKind::Mx, i)).collect();
        for (e, cid) in eps.iter().zip([c1, c2, c1, c2]) {
            r.eps.entry(*e).consumer = Some(cid);
        }
        // Clear one route and set it again.
        assert_eq!(r.unbind(eps[0]), Some(c1));
        assert_eq!(r.unbind(eps[0]), None);
        assert_eq!(r.consumer_of(eps[0]), None);
        r.eps.entry(eps[0]).consumer = Some(c1);
        assert_eq!(r.consumer_of(eps[0]), Some(c1));
        // Deregistering drops exactly that consumer's routes.
        assert!(r.deregister(c1));
        assert!(!r.deregister(c1), "already gone");
        let routes: Vec<_> = eps.iter().map(|e| r.consumer_of(*e)).collect();
        assert_eq!(routes, [None, Some(c2), None, Some(c2)]);
        assert_eq!(r.consumer_name(c1), None);
        assert_eq!(r.consumer_name(c2), Some("two"));
        // Consumer ids are never reused.
        assert_eq!(r.register_cq("three", cq), ConsumerId(2));
    }

    #[test]
    fn an_endpoint_keeps_one_chain_per_queue_and_loses_it_with_the_queue() {
        let mut r: Registry<()> = Registry::new();
        let (qa, qb) = (r.create_cq(), r.create_cq());
        let (e, other) = (ep(TransportKind::Gm, 2), ep(TransportKind::Gm, 0));
        r.cq_push(qa, e, done(1));
        r.cq_push(qb, e, done(2));
        r.cq_push(qa, other, done(3));
        r.cq_push(qa, e, done(4));
        assert_eq!((r.cq_len_for(qa, e), r.cq_len_for(qb, e)), (2, 1));
        assert_eq!(r.eps.get(e).unwrap().last_cq, Some(qa));
        assert_eq!(r.eps.get(e).unwrap().chains.len(), 2);

        // Destroying a queue forgets its chains and nothing else.
        r.destroy_cq(qb);
        assert_eq!(r.eps.get(e).unwrap().chains.len(), 1);
        assert_eq!(r.cq_len_for(qb, e), 0);
        r.cq_push(qb, e, done(5));
        assert_eq!(r.stats.dropped, 1, "a destroyed queue stays destroyed");
        assert_eq!(r.create_cq(), CqId(2), "queue ids are never reused");

        // The surviving queue pops globally FIFO through the chains.
        let popped: Vec<u64> = std::iter::from_fn(|| r.cq_pop(qa))
            .map(|entry| match entry.event {
                TransportEvent::SendDone { ctx } => ctx,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(popped, [1, 3, 4]);
        assert_eq!(r.cq_len_for(qa, e), 0);
        assert_eq!(r.eps.get(e).unwrap().chains.len(), 1, "chains are recycled");
    }
}
