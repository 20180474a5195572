//! The MX driver: endpoints, tag matching, and the three-protocol engine.
//!
//! What makes MX the paper's vehicle for an efficient in-kernel API:
//!
//! * the host interface is the *same* from user space and from the kernel —
//!   latency does not change (§5.1);
//! * the application tells MX what kind of memory it passes (user virtual /
//!   kernel virtual / physical, §4.2) and MX does the right thing: pin and
//!   translate, translate only, or nothing;
//! * buffers are **vectorial** (§4.1);
//! * no explicit registration: small messages are inlined by PIO, medium
//!   messages (128 B–32 kB) are copied through pre-pinned rings on both
//!   sides, large messages rendezvous and are pinned internally (§5.1);
//! * the paper's send-copy-removal optimization (`no_send_copy`) DMAs
//!   physically contiguous medium messages straight from the source, and the
//!   *predicted* receive-side removal (`no_recv_copy`) is implemented as the
//!   "future MX" whose receive processing lives in the NIC (§5.1).

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use knet_core::{
    next_chunk, pace_submit, pace_timer_fired, read_iovec_into, resolve_iovec, resolve_iovec_into,
    seg_window_into, write_iovec, AddrClass, ChunkCursor, DriverEvent, IoVec, NetError, PaceLanes,
    PacedSend, RingPool, ScratchStats, SegList, TenantId,
};
use knet_simcore::{SimTime, SimWorld};
use knet_simnic::{
    coll_inject, coll_on_packet, dma_charge, dma_gather, dma_scatter, fw_charge, is_coll_frame,
    rel_on_packet, rel_send, CollCmd, MsgHeader, NicId, NicWorld, Packet, Proto, RelVerdict,
};
use knet_simos::{Asid, FrameIdx, NodeId, PhysSeg};

use crate::params::{MxParams, MxProtocol};

/// Global identifier of an open MX endpoint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MxEndpointId(pub u32);

/// Match-any tag for receives.
pub const MX_ANY_TAG: u64 = u64::MAX;

/// Endpoint mode: which space the application lives in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MxMode {
    /// User-space endpoint bound to a process.
    User(Asid),
    /// In-kernel endpoint (ORFS, SOCKETS-MX, NBD, …).
    Kernel,
}

/// The copy-removal switches of §5.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MxOpts {
    /// Skip the send-side medium copy for physically contiguous kernel
    /// buffers (implemented in the paper: +17 % at 32 kB).
    pub no_send_copy: bool,
    /// Skip the receive-side medium copy (the paper's *prediction*, possible
    /// once receive processing moves into the NIC: another +15 %).
    pub no_recv_copy: bool,
}

/// Endpoint configuration.
#[derive(Clone, Copy, Debug)]
pub struct MxEndpointConfig {
    pub mode: MxMode,
    pub opts: MxOpts,
    /// Deliver unmatched eager messages as [`MxEvent::Unexpected`] (transport
    /// glue) instead of queueing them for a later `mx_irecv` (MPI style).
    pub deliver_unexpected: bool,
}

impl MxEndpointConfig {
    pub fn user(asid: Asid) -> Self {
        MxEndpointConfig {
            mode: MxMode::User(asid),
            opts: MxOpts::default(),
            deliver_unexpected: false,
        }
    }

    pub fn kernel() -> Self {
        MxEndpointConfig {
            mode: MxMode::Kernel,
            opts: MxOpts::default(),
            deliver_unexpected: false,
        }
    }

    pub fn with_opts(mut self, opts: MxOpts) -> Self {
        self.opts = opts;
        self
    }

    pub fn with_unexpected_delivery(mut self) -> Self {
        self.deliver_unexpected = true;
        self
    }
}

/// Completion events in an endpoint's queue. `Unexpected` is an unmatched
/// eager message delivered inline (endpoints configured with
/// `deliver_unexpected`).
pub type MxEvent = DriverEvent<MxEndpointId>;

/// Per-endpoint counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct MxStats {
    pub sends: u64,
    pub recvs: u64,
    pub unexpected: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub send_copies_avoided: u64,
    pub recv_copies_avoided: u64,
    pub rndv_started: u64,
    pub pages_pinned: u64,
}

struct PostedRecv {
    tag: u64,
    iov: IoVec,
    /// Pre-resolved segments (pinned for large user buffers at post time).
    segs: SegList,
    pinned: Vec<FrameIdx>,
    capacity: u64,
    ctx: u64,
}

enum UnexpectedMsg {
    Eager {
        tag: u64,
        data: Bytes,
        from: MxEndpointId,
    },
    Rndv {
        tag: u64,
        total: u64,
        from: MxEndpointId,
        msg_id: u64,
        src_nic: NicId,
    },
}

/// Receive-side reassembly of an in-flight eager message.
struct EagerAssembly {
    from: MxEndpointId,
    tag: u64,
    total: u64,
    received: u64,
    /// Matched posted receive (taken from the queue at first chunk).
    matched: Option<PostedRecv>,
    /// True when chunks are DMA'd straight into the posted buffer
    /// (`no_recv_copy`); otherwise data accumulates in the ring.
    direct: bool,
    /// Borrowed from [`MxScratch::rings`] by the first chunk that needs it
    /// (a message that arrives whole never does) and returned on completion.
    ring: Vec<u8>,
    last_dma_done: SimTime,
}

/// Sender-side state of a rendezvous awaiting CTS.
struct RndvSend {
    from_ep: MxEndpointId,
    segs: Vec<PhysSeg>,
    pinned: Vec<FrameIdx>,
    total: u64,
    tag: u64,
    ctx: u64,
    dst_ep: MxEndpointId,
    /// Sending tenant, stamped onto the streamed data packets.
    tenant: TenantId,
}

/// Receiver-side state of an accepted rendezvous.
struct RndvRecv {
    posted: PostedRecv,
    from: MxEndpointId,
    total: u64,
    received: u64,
    last_dma_done: SimTime,
}

/// One open MX endpoint.
pub struct MxEndpoint {
    pub id: MxEndpointId,
    pub node: NodeId,
    pub nic: NicId,
    pub mode: MxMode,
    pub opts: MxOpts,
    pub deliver_unexpected: bool,
    posted: VecDeque<PostedRecv>,
    unexpected: VecDeque<UnexpectedMsg>,
    pub events: VecDeque<MxEvent>,
    pub stats: MxStats,
    open: bool,
}

impl MxEndpoint {
    pub fn posted_recvs(&self) -> usize {
        self.posted.len()
    }

    pub fn unexpected_queued(&self) -> usize {
        self.unexpected.len()
    }
}

/// Reusable hot-path scratch (see `GmScratch` in `knet-gm` for the
/// pattern): per-operation buffers recycled across sends and receives so
/// the steady-state data path stops allocating once each buffer reaches
/// its high-water capacity.
#[derive(Default)]
pub struct MxScratch {
    /// Gathered payload bytes of the send being posted.
    pub(crate) payload: Vec<u8>,
    /// Send-side address resolution (the copy-avoidance check).
    pub(crate) resolution: knet_core::Resolution,
    /// Receive-side scatter window of one inbound chunk.
    pub(crate) window: Vec<PhysSeg>,
    /// The MTU chunk currently streaming out of a rendezvous source.
    pub(crate) chunk: Vec<PhysSeg>,
    /// Receive-side assembly rings of multi-chunk messages.
    pub(crate) rings: RingPool,
    pub stats: ScratchStats,
}

/// A send parked in a NIC's per-tenant pacing lane, re-issued verbatim
/// once the tenant's token bucket refills.
pub struct PacedMxSend {
    from: MxEndpointId,
    dest: MxEndpointId,
    tag: u64,
    iov: IoVec,
    ctx: u64,
}

impl<W: MxWorld> PacedSend<W> for PacedMxSend {
    fn lanes(w: &mut W) -> &mut PaceLanes<Self> {
        &mut w.mx_mut().paced
    }

    fn send_admitted(&self, w: &mut W, tenant: TenantId) -> Result<(), NetError> {
        mx_isend_admitted(
            w, self.from, self.dest, self.tag, &self.iov, self.ctx, tenant,
        )
    }

    fn send_failed(&self, w: &W, error: NetError) -> Option<(u32, <W as SimWorld>::Ev)> {
        let node = w.mx().ep(self.from).ok()?.node.0;
        let ev = W::lift_mx(MxEv::Complete {
            ep: self.from,
            ev: MxEvent::SendFailed {
                ctx: self.ctx,
                error,
            },
            unpin: None,
            direct: false,
        });
        Some((node, ev))
    }

    fn pace_timer(nic: NicId) -> <W as SimWorld>::Ev {
        W::lift_mx(MxEv::Pace { nic })
    }
}

/// All MX state in the world.
pub struct MxLayer {
    pub params: MxParams,
    endpoints: Vec<MxEndpoint>,
    /// In-flight reassemblies keyed `(dst endpoint, src endpoint, msg id)`.
    /// `msg_id` alone is only unique per *sending* world — under sharded
    /// execution every shard mints its own sequence, so two senders
    /// converging on one receiver can collide on it. The source endpoint
    /// (carried in the wire meta) disambiguates.
    eager: BTreeMap<(u32, u32, u64), EagerAssembly>,
    rndv_send: BTreeMap<u64, RndvSend>,
    rndv_recv: BTreeMap<(u32, u32, u64), RndvRecv>,
    next_msg_id: u64,
    /// Recycled per-operation buffers (see [`MxScratch`]).
    pub scratch: MxScratch,
    /// Tenant pacing lanes (the shared seam, [`knet_core::pace`]): sends
    /// the token bucket deferred, drained on pace-timer fire.
    pub paced: PaceLanes<PacedMxSend>,
}

impl MxLayer {
    pub fn new(params: MxParams) -> Self {
        MxLayer {
            params,
            endpoints: Vec::new(),
            eager: BTreeMap::new(),
            rndv_send: BTreeMap::new(),
            rndv_recv: BTreeMap::new(),
            next_msg_id: 1,
            scratch: MxScratch::default(),
            paced: PaceLanes::default(),
        }
    }

    pub fn ep(&self, id: MxEndpointId) -> Result<&MxEndpoint, NetError> {
        self.endpoints
            .get(id.0 as usize)
            .filter(|e| e.open)
            .ok_or(NetError::BadEndpoint)
    }

    pub fn ep_mut(&mut self, id: MxEndpointId) -> Result<&mut MxEndpoint, NetError> {
        self.endpoints
            .get_mut(id.0 as usize)
            .filter(|e| e.open)
            .ok_or(NetError::BadEndpoint)
    }

    pub fn open_endpoints(&self) -> usize {
        self.endpoints.iter().filter(|e| e.open).count()
    }
}

impl Default for MxLayer {
    fn default() -> Self {
        Self::new(MxParams::default())
    }
}

/// Capability trait: a world running the MX driver.
/// Typed engine events for the MX layer: host-side completions that fire
/// once DMA and host processing settle. Composed worlds embed these in
/// their event enum via [`MxWorld::lift_mx`].
#[derive(Debug)]
pub enum MxEv {
    /// Optionally release pinned frames, then push a completion onto the
    /// endpoint's event queue (charging the matching stats) and dispatch.
    Complete {
        ep: MxEndpointId,
        ev: MxEvent,
        /// Frames to unpin on a node before the completion posts
        /// (rendezvous paths defer the unpin to completion time).
        unpin: Option<(NodeId, Vec<FrameIdx>)>,
        /// Count the receive as zero-copy (`recv_copies_avoided`).
        direct: bool,
    },
    /// A tenant pace timer fired: drain `nic`'s pacing lanes against the
    /// (now refilled) token buckets.
    Pace { nic: NicId },
}

/// Execute one MX-layer event.
pub fn run_mx_ev<W: MxWorld>(w: &mut W, ev: MxEv) {
    match ev {
        MxEv::Complete {
            ep,
            ev,
            unpin,
            direct,
        } => {
            if let Some((node, pinned)) = unpin {
                release_pins(w, node, &pinned);
            }
            if let Ok(e) = w.mx_mut().ep_mut(ep) {
                match &ev {
                    MxEvent::SendDone { .. } => {}
                    MxEvent::RecvDone { len, .. } => {
                        e.stats.recvs += 1;
                        e.stats.bytes_received += *len;
                        if direct {
                            e.stats.recv_copies_avoided += 1;
                        }
                    }
                    MxEvent::Unexpected { data, .. } => {
                        e.stats.unexpected += 1;
                        e.stats.bytes_received += data.len() as u64;
                    }
                    MxEvent::SendFailed { .. } => {}
                }
                e.events.push_back(ev);
            }
            w.mx_dispatch(ep);
        }
        MxEv::Pace { nic } => pace_timer_fired::<W, PacedMxSend>(w, nic),
    }
}

pub trait MxWorld: NicWorld {
    fn mx(&self) -> &MxLayer;
    fn mx_mut(&mut self) -> &mut MxLayer;

    /// Called whenever an event lands in an endpoint queue; the composed
    /// world routes it to the endpoint's owner (default: polled).
    fn mx_dispatch(&mut self, _ep: MxEndpointId) {}

    /// Wrap an MX event into the world's typed event enum. The default
    /// boxes (fine for tests); the composed cluster world overrides it with
    /// a zero-allocation enum variant.
    fn lift_mx(ev: MxEv) -> <Self as knet_simcore::SimWorld>::Ev {
        knet_simcore::SimEvent::from_call(Box::new(move |w: &mut Self| run_mx_ev(w, ev)))
    }
}

/// Open an endpoint on `node`.
pub fn mx_open_endpoint<W: MxWorld>(
    w: &mut W,
    node: NodeId,
    cfg: MxEndpointConfig,
) -> Result<MxEndpointId, NetError> {
    let nic = w.nics().nic_of_node(node).ok_or(NetError::BadEndpoint)?;
    let id = MxEndpointId(w.mx().endpoints.len() as u32);
    w.mx_mut().endpoints.push(MxEndpoint {
        id,
        node,
        nic,
        mode: cfg.mode,
        opts: cfg.opts,
        deliver_unexpected: cfg.deliver_unexpected,
        posted: VecDeque::new(),
        unexpected: VecDeque::new(),
        events: VecDeque::new(),
        stats: MxStats::default(),
        open: true,
    });
    Ok(id)
}

fn check_classes(ep: &MxEndpoint, iov: &IoVec) -> Result<(), NetError> {
    for seg in iov.segs() {
        match (seg.class(), ep.mode) {
            // User endpoints only speak user virtual addresses of their
            // own process.
            (AddrClass::UserVirtual, MxMode::User(asid)) => {
                if let knet_core::MemRef::UserVirtual { asid: a, .. } = seg {
                    if *a != asid {
                        return Err(NetError::BadAddressClass);
                    }
                }
            }
            (_, MxMode::User(_)) => return Err(NetError::BadAddressClass),
            // The kernel interface accepts all three classes (§4.2).
            (_, MxMode::Kernel) => {}
        }
    }
    Ok(())
}

const KIND_EAGER: u8 = 0;
const KIND_RTS: u8 = 1;
const KIND_CTS: u8 = 2;
const KIND_LARGE: u8 = 3;

/// Gather an io-vector's bytes into a `Bytes` payload through the layer's
/// recycled scratch buffer: one copy, one allocation (the `Bytes` itself),
/// no intermediate `Vec` per send.
fn gather_payload<W: MxWorld>(w: &mut W, node: NodeId, iov: &IoVec) -> Result<Bytes, NetError> {
    let mut payload = std::mem::take(&mut w.mx_mut().scratch.payload);
    let cap_before = payload.capacity();
    let r = read_iovec_into(w.os().node(node), iov, &mut payload);
    let data = r.map(|()| Bytes::copy_from_slice(&payload));
    let cap_after = payload.capacity();
    let scratch = &mut w.mx_mut().scratch;
    scratch.payload = payload;
    scratch.stats.note(cap_before, cap_after);
    data
}

/// Can the send-side copy be elided for this resolution? (§5.1: possible for
/// physically contiguous buffers whose residency the kernel guarantees —
/// kernel virtual or physical address classes.)
fn send_copy_avoidable(ep: &MxEndpoint, iov: &IoVec, segs: &[PhysSeg]) -> bool {
    ep.opts.no_send_copy
        && segs.len() == 1
        && matches!(
            iov.uniform_class(),
            Some(AddrClass::KernelVirtual) | Some(AddrClass::Physical)
        )
}

/// `mx_isend`: send the (possibly vectorial) `iov` to `dest` with `tag`.
/// Always asynchronous; completion surfaces as [`MxEvent::SendDone`].
/// Untenanted entry point: attributes the send to [`TenantId::DEFAULT`],
/// which has no QoS policy unless one was explicitly installed — behaviour
/// is then identical to pre-tenant MX.
pub fn mx_isend<W: MxWorld>(
    w: &mut W,
    from: MxEndpointId,
    dest: MxEndpointId,
    tag: u64,
    iov: &IoVec,
    ctx: u64,
) -> Result<(), NetError> {
    mx_isend_t(w, from, dest, tag, iov, ctx, TenantId::DEFAULT)
}

/// Tenant-attributed send: consults the tenant's token bucket at the NIC
/// admission point before committing any copy, pin or DMA, then admits,
/// parks or sheds the send as the shared pacing seam decides
/// ([`knet_core::pace`]). A parked send returns `Ok(())`; its completion
/// arrives later.
pub fn mx_isend_t<W: MxWorld>(
    w: &mut W,
    from: MxEndpointId,
    dest: MxEndpointId,
    tag: u64,
    iov: &IoVec,
    ctx: u64,
    tenant: TenantId,
) -> Result<(), NetError> {
    // Fail fast on the errors that would also fail at drain time, so a
    // doomed send is never parked.
    let nic = {
        let e = w.mx().ep(from)?;
        check_classes(e, iov)?;
        e.nic
    };
    let dst_nic = w.mx().ep(dest)?.nic;
    if w.nics().rel.link_dead(Proto::Mx, nic, dst_nic) {
        return Err(NetError::PeerUnreachable);
    }
    pace_submit(
        w,
        nic,
        tenant,
        iov.total_len(),
        |w| mx_isend_admitted(w, from, dest, tag, iov, ctx, tenant),
        || PacedMxSend {
            from,
            dest,
            tag,
            iov: iov.clone(),
            ctx,
        },
    )
}

/// The admitted send pipeline (post token-bucket): protocol selection,
/// copies/pins, host/firmware charges, wire submission.
fn mx_isend_admitted<W: MxWorld>(
    w: &mut W,
    from: MxEndpointId,
    dest: MxEndpointId,
    tag: u64,
    iov: &IoVec,
    ctx: u64,
    tenant: TenantId,
) -> Result<(), NetError> {
    let params = w.mx().params;
    let (node, nic) = {
        let e = w.mx().ep(from)?;
        check_classes(e, iov)?;
        (e.node, e.nic)
    };
    let dst_nic = w.mx().ep(dest)?.nic;
    // A peer whose reliability window died is unreachable: fail before any
    // copies, pins or DMA are committed.
    if w.nics().rel.link_dead(Proto::Mx, nic, dst_nic) {
        return Err(NetError::PeerUnreachable);
    }
    let total = iov.total_len();
    {
        let e = w.mx_mut().ep_mut(from)?;
        e.stats.sends += 1;
        e.stats.bytes_sent += total;
    }
    let msg_id = {
        let l = w.mx_mut();
        l.next_msg_id += 1;
        l.next_msg_id
    };

    match params.protocol_for(total) {
        MxProtocol::Small => {
            // Host inlines the payload by PIO; the buffer is immediately
            // reusable. Gather through the recycled payload scratch.
            let data = gather_payload(w, node, iov)?;
            let host_cost = params.host_post + params.pio_cost(total);
            let host_done = knet_simos::cpu_charge(w, node, host_cost);
            let fw_done = fw_charge(w, nic, host_done, params.fw_send);
            let meta = MsgHeader::new(dest.0, from.0, tag, msg_id, 0, total).pack();
            let mut pkt = Packet::new(
                nic,
                dst_nic,
                Proto::Mx,
                KIND_EAGER,
                meta,
                data,
                params.header_bytes,
            );
            pkt.tenant = tenant.0;
            rel_send(w, pkt, fw_done);
            let ev = W::lift_mx(MxEv::Complete {
                ep: from,
                ev: MxEvent::SendDone { ctx },
                unpin: None,
                direct: false,
            });
            knet_simcore::emit_at(w, node.0, host_done, ev);
        }
        MxProtocol::Medium => {
            let avoidable = {
                // Resolve without pinning: kernel/physical classes resolve
                // freely; user memory is read through the copy path anyway.
                // The resolution lives in the layer's recycled scratch.
                let mut resolution = std::mem::take(&mut w.mx_mut().scratch.resolution);
                resolution.clear();
                if iov.uniform_class() == Some(AddrClass::KernelVirtual)
                    || iov.uniform_class() == Some(AddrClass::Physical)
                {
                    if let Err(e) =
                        resolve_iovec_into(w.os_mut().node_mut(node), iov, false, &mut resolution)
                    {
                        w.mx_mut().scratch.resolution = resolution;
                        return Err(e);
                    }
                }
                let avoidable = {
                    let e = w.mx().ep(from)?;
                    send_copy_avoidable(e, iov, &resolution.segs)
                };
                w.mx_mut().scratch.resolution = resolution;
                avoidable
            };
            let data = gather_payload(w, node, iov)?;
            let host_cost = if avoidable {
                // No copy: just the doorbell. (The paper's optimization.)
                w.mx_mut().ep_mut(from)?.stats.send_copies_avoided += 1;
                params.host_post
            } else {
                params.host_post + w.os().node(node).cpu.model.ring_copy_cost(total)
            };
            let host_done = knet_simos::cpu_charge(w, node, host_cost);
            let fw_done = fw_charge(w, nic, host_done, params.fw_send);
            // Chunks stream from the ring (or directly from the source when
            // the copy was elided — same DMA cost, the ring copy is what
            // disappears).
            let mtu = w.nics().get(nic).model.mtu;
            let mut ready = fw_done;
            let mut offset = 0u64;
            let n_chunks = total.div_ceil(mtu).max(1);
            for i in 0..n_chunks {
                let chunk_len = mtu.min(total - offset);
                let chunk = data.slice(offset as usize..(offset + chunk_len) as usize);
                let dma_done = dma_charge(w, nic, ready, chunk_len);
                let fw_ready = if i == 0 {
                    dma_done
                } else {
                    fw_charge(w, nic, dma_done, params.fw_chunk)
                };
                let meta = MsgHeader::new(dest.0, from.0, tag, msg_id, offset, total).pack();
                let mut pkt = Packet::new(
                    nic,
                    dst_nic,
                    Proto::Mx,
                    KIND_EAGER,
                    meta,
                    chunk,
                    params.header_bytes,
                );
                pkt.tenant = tenant.0;
                rel_send(w, pkt, fw_ready);
                ready = dma_done;
                offset += chunk_len;
            }
            // Buffer reusable once the host copy (or for the zero-copy path,
            // the last DMA fetch) is done.
            let complete_at = if avoidable { ready } else { host_done };
            let ev = W::lift_mx(MxEv::Complete {
                ep: from,
                ev: MxEvent::SendDone { ctx },
                unpin: None,
                direct: false,
            });
            knet_simcore::emit_at(w, node.0, complete_at, ev);
        }
        MxProtocol::Large => {
            // Rendezvous: pin/resolve now, send RTS, stream on CTS.
            let r = resolve_iovec(w.os_mut().node_mut(node), iov, true)?;
            let pin_pages = r.user_pages;
            let host_cost = params.host_post + w.os().node(node).cpu.model.pin_cost(pin_pages);
            let host_done = knet_simos::cpu_charge(w, node, host_cost);
            {
                let e = w.mx_mut().ep_mut(from)?;
                e.stats.rndv_started += 1;
                e.stats.pages_pinned += pin_pages;
            }
            w.mx_mut().rndv_send.insert(
                msg_id,
                RndvSend {
                    from_ep: from,
                    segs: r.segs,
                    pinned: r.pinned,
                    total,
                    tag,
                    ctx,
                    dst_ep: dest,
                    tenant,
                },
            );
            let fw_done = fw_charge(w, nic, host_done, params.fw_send);
            let meta = MsgHeader::new(dest.0, from.0, tag, msg_id, 0, total).pack();
            let mut pkt = Packet::new(
                nic,
                dst_nic,
                Proto::Mx,
                KIND_RTS,
                meta,
                Bytes::new(),
                params.header_bytes,
            );
            pkt.tenant = tenant.0;
            rel_send(w, pkt, fw_done);
        }
    }
    Ok(())
}

/// `mx_irecv`: post a tagged receive. Matches the unexpected queue first
/// (standard MX semantics).
pub fn mx_irecv<W: MxWorld>(
    w: &mut W,
    ep_id: MxEndpointId,
    tag: u64,
    iov: &IoVec,
    ctx: u64,
) -> Result<(), NetError> {
    let params = w.mx().params;
    let (node, _nic) = {
        let e = w.mx().ep(ep_id)?;
        check_classes(e, iov)?;
        (e.node, e.nic)
    };
    // Resolve (and pin user memory) up front: MX needs the translation for
    // direct DMA of large/no-recv-copy messages, and pinning at post time is
    // what "page locking overhead is lower [in the kernel]" refers to.
    // The resolution runs in the recycled scratch; what the posted receive
    // keeps of it is an inline segment list and the (kernel: empty) pins.
    let mut r = std::mem::take(&mut w.mx_mut().scratch.resolution);
    let resolved = resolve_iovec_into(w.os_mut().node_mut(node), iov, true, &mut r);
    let posted = resolved.map(|()| PostedRecv {
        tag,
        iov: iov.clone(),
        capacity: r.total_len(),
        segs: r.segs.iter().copied().collect(),
        pinned: std::mem::take(&mut r.pinned),
        ctx,
    });
    let pin_pages = r.user_pages;
    w.mx_mut().scratch.resolution = r;
    let posted = posted?;
    let host_cost = params.host_post + w.os().node(node).cpu.model.pin_cost(pin_pages);
    knet_simos::cpu_charge(w, node, host_cost);
    w.mx_mut().ep_mut(ep_id)?.stats.pages_pinned += pin_pages;

    // Check the unexpected queue.
    let matched = {
        let e = w.mx_mut().ep_mut(ep_id)?;
        let pos = e.unexpected.iter().position(|u| match u {
            UnexpectedMsg::Eager { tag: t, .. } | UnexpectedMsg::Rndv { tag: t, .. } => {
                tag == MX_ANY_TAG || *t == tag
            }
        });
        pos.map(|i| e.unexpected.remove(i).expect("position valid"))
    };
    match matched {
        None => {
            w.mx_mut().ep_mut(ep_id)?.posted.push_back(posted);
        }
        Some(UnexpectedMsg::Eager { tag: t, data, from }) => {
            // Copy out of the ring into the posted buffer.
            let len = (data.len() as u64).min(posted.capacity);
            let copy = w.os().node(node).cpu.model.ring_copy_cost(len);
            let done = knet_simos::cpu_charge(w, node, copy + params.host_event);
            write_iovec(w.os_mut().node_mut(node), &posted.iov, &data)?;
            release_pins(w, node, &posted.pinned);
            let pctx = posted.ctx;
            let ev = W::lift_mx(MxEv::Complete {
                ep: ep_id,
                ev: MxEvent::RecvDone {
                    ctx: pctx,
                    tag: t,
                    len,
                    from,
                },
                unpin: None,
                direct: false,
            });
            knet_simcore::emit_at(w, node.0, done, ev);
        }
        Some(UnexpectedMsg::Rndv {
            tag: t,
            total,
            from,
            msg_id,
            src_nic,
        }) => {
            accept_rendezvous(w, ep_id, posted, t, total, from, msg_id, src_nic)?;
        }
    }
    Ok(())
}

fn release_pins<W: MxWorld>(w: &mut W, node: NodeId, pinned: &[FrameIdx]) {
    for &f in pinned {
        w.os_mut().node_mut(node).mem.unpin(f).ok();
    }
}

/// Receiver accepts a rendezvous: record state and fire CTS back.
#[allow(clippy::too_many_arguments)]
fn accept_rendezvous<W: MxWorld>(
    w: &mut W,
    ep_id: MxEndpointId,
    posted: PostedRecv,
    tag: u64,
    total: u64,
    from: MxEndpointId,
    msg_id: u64,
    src_nic: NicId,
) -> Result<(), NetError> {
    let params = w.mx().params;
    let nic = w.mx().ep(ep_id)?.nic;
    w.mx_mut().rndv_recv.insert(
        (ep_id.0, from.0, msg_id),
        RndvRecv {
            posted,
            from,
            total,
            received: 0,
            last_dma_done: SimTime::ZERO,
        },
    );
    let now = knet_simcore::now(w);
    let fw_done = fw_charge(w, nic, now, params.fw_rndv);
    let meta = MsgHeader::new(from.0, ep_id.0, tag, msg_id, 0, total).pack();
    let pkt = Packet::new(
        nic,
        src_nic,
        Proto::Mx,
        KIND_CTS,
        meta,
        Bytes::new(),
        params.header_bytes,
    );
    rel_send(w, pkt, fw_done);
    Ok(())
}

/// Post a collective descriptor through an MX endpoint: the host pays one
/// post, the firmware picks the descriptor up, and the collective then
/// progresses NIC-to-NIC ([`coll_inject`]) without further host involvement
/// until the completion event comes back up. Same cost from user space and
/// from the kernel — the MX property the paper is about.
pub fn mx_coll_post<W: MxWorld>(
    w: &mut W,
    ep_id: MxEndpointId,
    cmd: CollCmd,
) -> Result<(), NetError> {
    let params = w.mx().params;
    let (node, nic) = {
        let e = w.mx().ep(ep_id)?;
        (e.node, e.nic)
    };
    let host_done = knet_simos::cpu_charge(w, node, params.host_post);
    let fw_done = fw_charge(w, nic, host_done, params.fw_send);
    coll_inject(w, Proto::Mx, nic, cmd, fw_done);
    Ok(())
}

/// Firmware receive path for `Proto::Mx` packets.
pub fn mx_on_packet<W: MxWorld>(w: &mut W, nic: NicId, pkt: Packet) {
    debug_assert_eq!(pkt.proto, Proto::Mx);
    // NIC-level reliability first: acks and duplicates never reach the
    // protocol logic; fresh packets are acked with the cumulative point
    // plus the SACK bitmap of everything received beyond it, echoing the
    // packet's wire-departure timestamp for the sender's RTT estimator.
    if rel_on_packet(w, &pkt) == RelVerdict::Consumed {
        return;
    }
    // Collective frames (reserved kind range) belong to the NIC-resident
    // tree engine: forward/combine/ack without re-entering the MX logic.
    if is_coll_frame(pkt.kind) {
        return coll_on_packet(w, nic, pkt);
    }
    match pkt.kind {
        KIND_EAGER => eager_rx(w, nic, pkt),
        KIND_RTS => rts_rx(w, nic, pkt),
        KIND_CTS => cts_rx(w, nic, pkt),
        KIND_LARGE => large_rx(w, nic, pkt),
        k => debug_assert!(false, "unknown MX packet kind {k}"),
    }
}

fn eager_rx<W: MxWorld>(w: &mut W, nic: NicId, pkt: Packet) {
    let m = MsgHeader::unpack(&pkt.meta);
    let (dst, src) = (MxEndpointId(m.dst), MxEndpointId(m.src));
    let params = w.mx().params;
    let now = knet_simcore::now(w);
    let Ok(_) = w.mx().ep(dst) else { return };

    // The assembly is out of the map while its chunk is processed, and goes
    // back only if the message is still incomplete.
    let akey = (m.dst, m.src, m.msg_id);
    let (mut a, fw_done) = match w.mx_mut().eager.remove(&akey) {
        Some(a) => (a, fw_charge(w, nic, now, params.fw_chunk)),
        None => {
            // Match posted receives at first chunk.
            let matched = {
                let e = w.mx_mut().ep_mut(dst).expect("checked");
                let pos = e
                    .posted
                    .iter()
                    .position(|p| (p.tag == MX_ANY_TAG || p.tag == m.tag) && p.capacity >= m.total);
                pos.map(|i| e.posted.remove(i).expect("position valid"))
            };
            let direct =
                matched.is_some() && w.mx().ep(dst).map(|e| e.opts.no_recv_copy).unwrap_or(false);
            let fw_done = fw_charge(w, nic, now, params.fw_recv);
            let a = EagerAssembly {
                from: src,
                tag: m.tag,
                total: m.total,
                received: 0,
                matched,
                direct,
                ring: Vec::new(),
                last_dma_done: fw_done,
            };
            (a, fw_done)
        }
    };

    let payload_len = pkt.payload.len() as u64;
    // A message that arrives whole in its first chunk is delivered from the
    // packet itself: no ring, and the assembly never enters the map.
    let whole = a.received == 0 && payload_len >= a.total;
    // Land the chunk: directly into the posted buffer (no_recv_copy), or
    // into the receive ring. The scatter window is recycled scratch.
    let dma_done = match (&a.matched, a.direct) {
        (Some(p), true) => {
            let mut window = std::mem::take(&mut w.mx_mut().scratch.window);
            seg_window_into(&p.segs, m.offset, payload_len, &mut window);
            let t = dma_scatter(w, nic, fw_done, &window, &pkt.payload).unwrap_or(fw_done);
            w.mx_mut().scratch.window = window;
            t
        }
        _ => {
            let t = dma_charge(w, nic, fw_done, payload_len);
            if !whole {
                if a.received == 0 {
                    a.ring = w.mx_mut().scratch.rings.take();
                }
                RingPool::stage(&mut a.ring, m.offset, &pkt.payload);
            }
            t
        }
    };
    a.received += payload_len;
    a.last_dma_done = a.last_dma_done.max(dma_done);
    if a.received < a.total {
        w.mx_mut().eager.insert(akey, a);
        return;
    }

    // The message's bytes: the packet's own payload, or the ring — which
    // goes back to the pool once they are copied out.
    let ring = std::mem::take(&mut a.ring);
    let bytes: &[u8] = if whole { &pkt.payload } else { &ring };
    let Ok(node) = w.mx().ep(dst).map(|e| e.node) else {
        return w.mx_mut().scratch.rings.give(ring);
    };
    let ev_dma = dma_charge(w, nic, a.last_dma_done, 64);
    match a.matched {
        Some(posted) => {
            let len = a.total.min(posted.capacity);
            let (host_cost, copied) = if a.direct {
                // Future-MX: no receive copy.
                (params.host_event, false)
            } else {
                (
                    params.host_event + w.os().node(node).cpu.model.ring_copy_cost(len),
                    true,
                )
            };
            if copied {
                write_iovec(w.os_mut().node_mut(node), &posted.iov, bytes).ok();
            }
            release_pins(w, node, &posted.pinned);
            let start = ev_dma.max(knet_simcore::now(w));
            let (_, done) = w.os_mut().node_mut(node).cpu.busy.acquire(start, host_cost);
            let (ep_id, tag, from, pctx) = (dst, a.tag, a.from, posted.ctx);
            let ev = W::lift_mx(MxEv::Complete {
                ep: ep_id,
                ev: MxEvent::RecvDone {
                    ctx: pctx,
                    tag,
                    len,
                    from,
                },
                unpin: None,
                direct: a.direct,
            });
            knet_simcore::emit_at(w, node.0, done, ev);
        }
        None => {
            let deliver = w
                .mx()
                .ep(dst)
                .map(|e| e.deliver_unexpected)
                .unwrap_or(false);
            // A whole message is handed up as the packet's own (immutable,
            // refcounted) payload; a reassembled one is copied out of the
            // ring.
            let data = if whole {
                pkt.payload.clone()
            } else {
                Bytes::copy_from_slice(&ring)
            };
            if deliver {
                // Transport-glue mode: hand the payload up with the copy
                // charged.
                let copy = w.os().node(node).cpu.model.ring_copy_cost(a.total);
                let start = ev_dma.max(knet_simcore::now(w));
                let (_, done) = w
                    .os_mut()
                    .node_mut(node)
                    .cpu
                    .busy
                    .acquire(start, params.host_event + copy);
                let (ep_id, tag, from, _total) = (dst, a.tag, a.from, a.total);
                let ev = W::lift_mx(MxEv::Complete {
                    ep: ep_id,
                    ev: MxEvent::Unexpected { tag, data, from },
                    unpin: None,
                    direct: false,
                });
                knet_simcore::emit_at(w, node.0, done, ev);
            } else {
                // MPI mode: park in the unexpected queue for a later irecv.
                if let Ok(e) = w.mx_mut().ep_mut(dst) {
                    e.stats.unexpected += 1;
                    e.unexpected.push_back(UnexpectedMsg::Eager {
                        tag: a.tag,
                        data,
                        from: a.from,
                    });
                }
            }
        }
    }
    w.mx_mut().scratch.rings.give(ring);
}

fn rts_rx<W: MxWorld>(w: &mut W, nic: NicId, pkt: Packet) {
    let m = MsgHeader::unpack(&pkt.meta);
    let (dst, src) = (MxEndpointId(m.dst), MxEndpointId(m.src));
    let params = w.mx().params;
    let now = knet_simcore::now(w);
    let Ok(_) = w.mx().ep(dst) else { return };
    fw_charge(w, nic, now, params.fw_rndv);
    // Match a posted receive.
    let matched = {
        let e = w.mx_mut().ep_mut(dst).expect("checked");
        let pos = e
            .posted
            .iter()
            .position(|p| (p.tag == MX_ANY_TAG || p.tag == m.tag) && p.capacity >= m.total);
        pos.map(|i| e.posted.remove(i).expect("position valid"))
    };
    match matched {
        Some(posted) => {
            accept_rendezvous(w, dst, posted, m.tag, m.total, src, m.msg_id, pkt.src).ok();
        }
        None => {
            if let Ok(e) = w.mx_mut().ep_mut(dst) {
                e.unexpected.push_back(UnexpectedMsg::Rndv {
                    tag: m.tag,
                    total: m.total,
                    from: src,
                    msg_id: m.msg_id,
                    src_nic: pkt.src,
                });
            }
        }
    }
}

fn cts_rx<W: MxWorld>(w: &mut W, nic: NicId, pkt: Packet) {
    let m = MsgHeader::unpack(&pkt.meta);
    let params = w.mx().params;
    let now = knet_simcore::now(w);
    let Some(r) = w.mx_mut().rndv_send.remove(&m.msg_id) else {
        return;
    };
    let dst_nic = pkt.src;
    let fw_done = fw_charge(w, nic, now, params.fw_rndv);
    // Stream the message, zero-copy from the pinned source segments,
    // chunk by chunk through the recycled scratch (no chunk lists).
    let mtu = w.nics().get(nic).model.mtu;
    let mut chunk = std::mem::take(&mut w.mx_mut().scratch.chunk);
    let mut cursor = ChunkCursor::default();
    let mut ready = fw_done;
    let mut offset = 0u64;
    let mut first = true;
    while next_chunk(&r.segs, &mut cursor, mtu, &mut chunk) {
        let chunk_len = PhysSeg::total_len(&chunk);
        let Ok((data, dma_done)) = dma_gather(w, nic, ready, &chunk) else {
            break;
        };
        let fw_ready = if first {
            dma_done
        } else {
            fw_charge(w, nic, dma_done, params.fw_chunk)
        };
        first = false;
        let meta = MsgHeader::new(r.dst_ep.0, r.from_ep.0, r.tag, m.msg_id, offset, r.total).pack();
        let mut pkt = Packet::new(
            nic,
            dst_nic,
            Proto::Mx,
            KIND_LARGE,
            meta,
            data,
            params.header_bytes,
        );
        pkt.tenant = r.tenant.0;
        rel_send(w, pkt, fw_ready);
        ready = dma_done;
        offset += chunk_len;
        if offset >= r.total {
            // Source drained: unpin and complete the send.
            let node = w.mx().ep(r.from_ep).map(|e| e.node).ok();
            let pinned = r.pinned.clone();
            let (from_ep, ctx) = (r.from_ep, r.ctx);
            let unpin_cost = node
                .map(|nd| w.os().node(nd).cpu.model.unpin_cost(pinned.len() as u64))
                .unwrap_or(SimTime::ZERO);
            if let Some(nd) = node {
                let start = dma_done.max(knet_simcore::now(w));
                let (_, done) = w
                    .os_mut()
                    .node_mut(nd)
                    .cpu
                    .busy
                    .acquire(start, params.host_event + unpin_cost);
                let ev = W::lift_mx(MxEv::Complete {
                    ep: from_ep,
                    ev: MxEvent::SendDone { ctx },
                    unpin: Some((nd, pinned)),
                    direct: false,
                });
                knet_simcore::emit_at(w, nd.0, done, ev);
            }
        }
    }
    chunk.clear();
    w.mx_mut().scratch.chunk = chunk;
}

fn large_rx<W: MxWorld>(w: &mut W, nic: NicId, pkt: Packet) {
    let m = MsgHeader::unpack(&pkt.meta);
    let dst = MxEndpointId(m.dst);
    let params = w.mx().params;
    let now = knet_simcore::now(w);
    let key = (m.dst, m.src, m.msg_id);
    if !w.mx().rndv_recv.contains_key(&key) {
        return;
    }
    let fw_done = fw_charge(w, nic, now, params.fw_chunk);
    let payload_len = pkt.payload.len() as u64;
    let mut window = std::mem::take(&mut w.mx_mut().scratch.window);
    {
        let r = w.mx().rndv_recv.get(&key).expect("checked");
        seg_window_into(&r.posted.segs, m.offset, payload_len, &mut window);
    }
    let dma_done = dma_scatter(w, nic, fw_done, &window, &pkt.payload).unwrap_or(fw_done);
    w.mx_mut().scratch.window = window;
    let complete = {
        let r = w.mx_mut().rndv_recv.get_mut(&key).expect("checked");
        r.received += payload_len;
        r.last_dma_done = r.last_dma_done.max(dma_done);
        r.received >= r.total
    };
    if !complete {
        return;
    }
    let r = w.mx_mut().rndv_recv.remove(&key).expect("checked");
    let Ok(node) = w.mx().ep(dst).map(|e| e.node) else {
        return;
    };
    let ev_dma = dma_charge(w, nic, r.last_dma_done, 64);
    let unpin_cost = w
        .os()
        .node(node)
        .cpu
        .model
        .unpin_cost(r.posted.pinned.len() as u64);
    let start = ev_dma.max(knet_simcore::now(w));
    let (_, done) = w
        .os_mut()
        .node_mut(node)
        .cpu
        .busy
        .acquire(start, params.host_event + unpin_cost);
    let (ep_id, tag, from, total, pctx) = (dst, r.posted.tag, r.from, r.total, r.posted.ctx);
    let tag = if tag == MX_ANY_TAG { m.tag } else { tag };
    let pinned = r.posted.pinned.clone();
    let ev = W::lift_mx(MxEv::Complete {
        ep: ep_id,
        ev: MxEvent::RecvDone {
            ctx: pctx,
            tag,
            len: total,
            from,
        },
        unpin: Some((node, pinned)),
        direct: false,
    });
    knet_simcore::emit_at(w, node.0, done, ev);
}

/// Pop the next pending event (host polling; `mx_wait_any` in MX parlance —
/// the flexible completion interface §5.2 praises).
pub fn mx_next_event<W: MxWorld>(w: &mut W, ep: MxEndpointId) -> Option<MxEvent> {
    w.mx_mut().ep_mut(ep).ok()?.events.pop_front()
}

/// Close an endpoint: release every posted receive's pins and drop queued
/// state. In-flight rendezvous in which this endpoint participates are
/// abandoned (their peers' pins are released on their own completion path).
pub fn mx_close_endpoint<W: MxWorld>(w: &mut W, ep_id: MxEndpointId) -> Result<(), NetError> {
    let (node, posted) = {
        let e = w.mx_mut().ep_mut(ep_id)?;
        let posted: Vec<PostedRecv> = e.posted.drain(..).collect();
        e.unexpected.clear();
        e.events.clear();
        e.open = false;
        (e.node, posted)
    };
    for p in posted {
        release_pins(w, node, &p.pinned);
    }
    Ok(())
}

/// Cancel the first posted receive with exactly this tag (releasing its
/// pins). Returns whether one was cancelled. Needed by layered protocols
/// whose data can race ahead of the descriptor (e.g. the zero-copy socket
/// header/payload pattern).
pub fn mx_cancel_recv<W: MxWorld>(w: &mut W, ep_id: MxEndpointId, tag: u64) -> bool {
    let (node, cancelled) = {
        let Ok(e) = w.mx_mut().ep_mut(ep_id) else {
            return false;
        };
        let node = e.node;
        let pos = e.posted.iter().position(|p| p.tag == tag);
        (
            node,
            pos.map(|i| e.posted.remove(i).expect("position valid")),
        )
    };
    match cancelled {
        Some(p) => {
            release_pins(w, node, &p.pinned);
            true
        }
        None => false,
    }
}
