//! The MX driver: endpoints, tag matching, and the three-protocol engine.
//!
//! What makes MX the paper's vehicle for an efficient in-kernel API:
//!
//! * the host interface is the *same* from user space and from the kernel —
//!   latency does not change (§5.1, measured before the send-copy removal);
//! * the application tells MX what kind of memory it passes (user virtual /
//!   kernel virtual / physical, §4.2) and MX does the right thing: pin and
//!   translate, translate only, or nothing;
//! * buffers are **vectorial** (§4.1);
//! * no explicit registration: small messages are inlined by PIO, medium
//!   messages (128 B–32 kB) are copied through pre-pinned rings on both
//!   sides, large messages rendezvous and are pinned internally (§5.1);
//! * the paper's send-copy removal (`no_send_copy`, on by default) DMAs
//!   kernel-virtual or physical, physically contiguous medium messages
//!   straight from the source; user buffers and non-contiguous vectors still
//!   go through the ring. [`MxOpts::SEND_COPY`] is the pre-§5.1 MX that
//!   copies every medium send, which fig. 5's kernel curves and fig. 6's
//!   baseline reproduce;
//! * the *predicted* receive-side removal (`no_recv_copy`, off by default) is
//!   implemented as the "future MX" whose receive processing lives in the
//!   NIC (§5.1).

use std::collections::VecDeque;

use bytes::Bytes;
use knet_core::{
    first_fit, host_completion, land, pace_submit, pace_timer_fired, read_iovec_into,
    resolve_iovec_into, send_chunks, tag_matches, take_first, take_tag, write_iovec, AddrClass,
    ChunkSource, CompletionHook, Endpoint, IoVec, NetError, PaceLanes, PacedSend, Posted,
    Reassembly, Route, ScratchStats, SegList, Sent, TenantId, TransportEvent, TransportKind,
    ANY_TAG,
};
use knet_simcore::{IdHashMap, SimTime, SimWorld};
use knet_simnic::{
    coll_inject, coll_on_packet, dma_charge, fw_charge, is_coll_frame, rel_on_packet, CollCmd,
    MsgHeader, NicId, NicWorld, Packet, Proto, RelVerdict,
};
use knet_simos::{Asid, FrameIdx, NodeId, PhysSeg};

use crate::params::{
    pio_cost, protocol_for, MxProtocol, FW_CHUNK, FW_RECV, FW_RNDV, FW_SEND, HEADER_BYTES,
    HOST_EVENT, HOST_POST, MEDIUM_MAX,
};

/// Global identifier of an open MX endpoint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MxEndpointId(pub u32);

/// Match-any tag for receives.
pub const MX_ANY_TAG: u64 = ANY_TAG;

/// Endpoint mode: which space the application lives in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MxMode {
    /// User-space endpoint bound to a process.
    User(Asid),
    /// In-kernel endpoint (ORFS, SOCKETS-MX, NBD, …).
    Kernel,
}

/// The copy-removal switches of §5.1.
///
/// The default is MX as the paper ships it: the send-side copy removal on,
/// the predicted receive-side removal off.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MxOpts {
    /// Skip the send-side medium copy for physically contiguous kernel
    /// buffers (implemented in the paper: +17 % at 32 kB, +9 % for a single
    /// page). On by default.
    pub no_send_copy: bool,
    /// Skip the receive-side medium copy (the paper's *prediction*, possible
    /// once receive processing moves into the NIC: another +15 %).
    pub no_recv_copy: bool,
}

impl MxOpts {
    /// The pre-§5.1 MX: every medium send is copied through the pinned ring.
    /// The paper measured this MX for the "kernel = user" claim (fig. 5) and
    /// as the baseline of the copy-removal gains (fig. 6).
    pub const SEND_COPY: MxOpts = MxOpts {
        no_send_copy: false,
        no_recv_copy: false,
    };
}

impl Default for MxOpts {
    fn default() -> Self {
        MxOpts {
            no_send_copy: true,
            no_recv_copy: false,
        }
    }
}

/// Endpoint configuration.
#[derive(Clone, Copy, Debug)]
pub struct MxEndpointConfig {
    pub mode: MxMode,
    pub opts: MxOpts,
    /// Deliver unmatched eager messages as [`TransportEvent::Unexpected`]
    /// (transport glue) instead of queueing them for a later `mx_irecv`
    /// (MPI style).
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

impl Posted for PostedRecv {
    fn tag(&self) -> u64 {
        self.tag
    }
    fn capacity(&self) -> u64 {
        self.capacity
    }
}

enum UnexpectedMsg {
    Eager {
        tag: u64,
        data: Bytes,
        from: Endpoint,
    },
    Rndv {
        /// The RTS's header: sender, tag, message id and size.
        hdr: MsgHeader,
        src_nic: NicId,
    },
}

impl UnexpectedMsg {
    fn tag(&self) -> u64 {
        match self {
            UnexpectedMsg::Eager { tag, .. } => *tag,
            UnexpectedMsg::Rndv { hdr, .. } => hdr.tag,
        }
    }
}

/// Sender-side state of a rendezvous awaiting CTS.
struct RndvSend {
    /// The message's wire header (`src` is the sending endpoint).
    hdr: MsgHeader,
    /// `(sending NIC, receiving NIC)`: what peer death is declared for.
    link: (NicId, NicId),
    segs: SegList,
    pinned: Vec<FrameIdx>,
    ctx: u64,
    /// Sending tenant, stamped onto the streamed data packets.
    tenant: TenantId,
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
        // An endpoint may have closed, or the link died, while the send
        // waited.
        let ends = check_send(w, self.from, self.dest, &self.iov)?;
        mx_isend_admitted(w, ends, self.tag, &self.iov, self.ctx, tenant)
    }

    fn send_failed(&self, w: &W, error: NetError) -> Option<(u32, <W as SimWorld>::Ev)> {
        let node = w.mx().ep(self.from).ok()?.node.0;
        let ev = W::lift_mx(MxEv::Complete {
            ep: self.from,
            ev: TransportEvent::SendFailed {
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
    endpoints: Vec<MxEndpoint>,
    /// Messages still arriving — eager ones (with the receive rings a
    /// medium message is staged in) and accepted rendezvous, whose CTS
    /// committed the posted receive before any data moved.
    inbound: Reassembly<PostedRecv>,
    /// Rendezvous awaiting their CTS, by the sender's message id.
    rndv_send: IdHashMap<u64, RndvSend>,
    next_msg_id: u64,
    /// Recycled per-operation buffers (see [`MxScratch`]).
    pub scratch: MxScratch,
    /// Tenant pacing lanes (the shared seam, [`knet_core::pace`]): sends
    /// the token bucket deferred, drained on pace-timer fire.
    pub paced: PaceLanes<PacedMxSend>,
}

impl Default for MxLayer {
    fn default() -> Self {
        MxLayer {
            endpoints: Vec::new(),
            inbound: Reassembly::default(),
            rndv_send: IdHashMap::default(),
            next_msg_id: 1,
            scratch: MxScratch::default(),
            paced: PaceLanes::default(),
        }
    }
}

impl MxLayer {
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

    /// Messages still reassembling (eager and accepted rendezvous) and
    /// rendezvous sends still awaiting their CTS.
    pub fn in_flight(&self) -> usize {
        self.inbound.incomplete() + self.rndv_send.len()
    }

    /// `(table capacity, idle receive rings)` of the reassembly table.
    pub fn reassembly_footprint(&self) -> (usize, usize) {
        self.inbound.footprint()
    }

    /// Packets dropped because their kind or header words describe nothing
    /// a peer could have sent (see `knet_core::driver::chunk_fits`).
    pub fn malformed(&self) -> u64 {
        self.inbound.malformed
    }

    /// Take out the rendezvous sends `gone` selects, in message order.
    fn take_rndv_sends(&mut self, gone: impl Fn(&RndvSend) -> bool) -> Vec<RndvSend> {
        let doomed = self.rndv_send.iter().filter(|(_, r)| gone(r));
        let mut ids: Vec<u64> = doomed.map(|(id, _)| *id).collect();
        ids.sort_unstable();
        let sends = ids.iter().filter_map(|id| self.rndv_send.remove(id));
        sends.collect()
    }
}

/// Typed engine events for the MX layer: host-side completions that fire
/// once DMA and host processing settle. Composed worlds embed these in
/// their event enum via [`MxWorld::lift_mx`].
#[derive(Debug)]
pub enum MxEv {
    /// Optionally release pinned frames, count a receive, then hand the
    /// completion to the endpoint's consumer ([`CompletionHook::complete`]).
    Complete {
        ep: MxEndpointId,
        ev: TransportEvent,
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
            // An endpoint closed meanwhile takes no completions.
            let Ok(e) = w.mx_mut().ep_mut(ep) else {
                return;
            };
            match &ev {
                TransportEvent::RecvDone { len, .. } => {
                    e.stats.recvs += 1;
                    e.stats.bytes_received += *len;
                    if direct {
                        e.stats.recv_copies_avoided += 1;
                    }
                }
                TransportEvent::Unexpected { data, .. } => {
                    e.stats.unexpected += 1;
                    e.stats.bytes_received += data.len() as u64;
                }
                _ => {}
            }
            let to = Endpoint {
                kind: TransportKind::Mx,
                node: e.node,
                idx: ep.0,
            };
            w.complete(to, ev);
        }
        MxEv::Pace { nic } => pace_timer_fired::<W, PacedMxSend>(w, nic),
    }
}

/// Capability trait: a world running the MX driver. Completions leave
/// through the world's [`CompletionHook`].
pub trait MxWorld: NicWorld + CompletionHook {
    fn mx(&self) -> &MxLayer;
    fn mx_mut(&mut self) -> &mut MxLayer;

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

/// How packets of `kind` travel from `src` to `dst` on behalf of `tenant`.
fn mx_route(src: NicId, dst: NicId, kind: u8, tenant: TenantId) -> Route {
    Route {
        src,
        dst,
        proto: Proto::Mx,
        kind,
        header_bytes: HEADER_BYTES,
        tenant,
    }
}

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

/// Run `f` on the resolution of `iov` on `node` (user memory pinned when
/// `pin`), borrowed from the layer's recycled scratch.
fn with_resolution<W: MxWorld, R>(
    w: &mut W,
    node: NodeId,
    iov: &IoVec,
    pin: bool,
    f: impl FnOnce(&mut knet_core::Resolution) -> R,
) -> Result<R, NetError> {
    let mut r = std::mem::take(&mut w.mx_mut().scratch.resolution);
    let resolved = resolve_iovec_into(w.os_mut().node_mut(node), iov, pin, &mut r);
    let out = f(&mut r);
    w.mx_mut().scratch.resolution = r;
    resolved.map(|()| out)
}

/// Resolve and pin `iov` for direct DMA: the (inline) segment list, the
/// pinned frames (kernel: none) and the number of user pages pinned.
fn resolve_pinned<W: MxWorld>(
    w: &mut W,
    node: NodeId,
    iov: &IoVec,
) -> Result<(SegList, Vec<FrameIdx>, u64), NetError> {
    with_resolution(w, node, iov, true, |r| {
        let segs = r.segs.iter().copied().collect();
        (segs, std::mem::take(&mut r.pinned), r.user_pages)
    })
}

/// Can the send-side copy be elided for this send? (§5.1: possible for
/// physically contiguous buffers whose residency the kernel guarantees —
/// kernel virtual or physical address classes, which resolve freely, no
/// pinning; user memory is read through the copy path anyway.)
fn send_copy_avoidable<W: MxWorld>(
    w: &mut W,
    ends: &SendEnds,
    iov: &IoVec,
) -> Result<bool, NetError> {
    let kernel_owned = matches!(
        iov.uniform_class(),
        Some(AddrClass::KernelVirtual | AddrClass::Physical)
    );
    let contiguous =
        kernel_owned && with_resolution(w, ends.node, iov, false, |r| r.segs.len() == 1)?;
    Ok(contiguous && ends.no_send_copy)
}

/// `mx_isend`: send the (possibly vectorial) `iov` to `dest` with `tag` on
/// behalf of `tenant`. Always asynchronous; completion surfaces as
/// [`TransportEvent::SendDone`]. Consults the tenant's token bucket at the
/// NIC admission point before committing any copy, pin or DMA, then
/// admits, parks or sheds the send as the shared pacing seam decides
/// ([`knet_core::pace`]). A parked send returns [`Sent::Parked`]: `iov`
/// is read when the lane drains, and its completion arrives later.
pub fn mx_isend_t<W: MxWorld>(
    w: &mut W,
    from: MxEndpointId,
    dest: MxEndpointId,
    tag: u64,
    iov: &IoVec,
    ctx: u64,
    tenant: TenantId,
) -> Result<Sent, NetError> {
    // Fail fast on the errors that would also fail at drain time, so a
    // doomed send is never parked.
    let ends = check_send(w, from, dest, iov)?;
    pace_submit(
        w,
        ends.nic,
        tenant,
        iov.total_len(),
        |w| mx_isend_admitted(w, ends, tag, iov, ctx, tenant),
        || PacedMxSend {
            from,
            dest,
            tag,
            iov: iov.clone(),
            ctx,
        },
    )
}

/// The two endpoints of a send, checked by [`check_send`].
#[derive(Clone, Copy)]
struct SendEnds {
    from: MxEndpointId,
    dest: MxEndpointId,
    node: NodeId,
    nic: NicId,
    dst_nic: NicId,
    no_send_copy: bool,
}

/// The checks a send passes when it is submitted, and again when its
/// pacing lane drains: both endpoints open, every segment in an address
/// class the sender may use, the link between them alive.
fn check_send<W: MxWorld>(
    w: &W,
    from: MxEndpointId,
    dest: MxEndpointId,
    iov: &IoVec,
) -> Result<SendEnds, NetError> {
    let e = w.mx().ep(from)?;
    check_classes(e, iov)?;
    let (node, nic, no_send_copy) = (e.node, e.nic, e.opts.no_send_copy);
    let dst_nic = w.mx().ep(dest)?.nic;
    // A peer whose reliability window died is unreachable: fail before any
    // copies, pins or DMA are committed.
    if w.nics().rel.link_dead(Proto::Mx, nic, dst_nic) {
        return Err(NetError::PeerUnreachable);
    }
    Ok(SendEnds {
        from,
        dest,
        node,
        nic,
        dst_nic,
        no_send_copy,
    })
}

/// The admitted send pipeline (post token-bucket, its endpoints checked):
/// protocol selection, copies/pins, host/firmware charges, wire
/// submission.
fn mx_isend_admitted<W: MxWorld>(
    w: &mut W,
    ends: SendEnds,
    tag: u64,
    iov: &IoVec,
    ctx: u64,
    tenant: TenantId,
) -> Result<(), NetError> {
    let SendEnds {
        from,
        dest,
        node,
        nic,
        dst_nic,
        ..
    } = ends;
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
    let hdr = MsgHeader {
        dst: dest.0,
        src: from.0,
        tag,
        msg_id,
        offset: 0,
        total,
    };
    let route = |kind| mx_route(nic, dst_nic, kind, tenant);
    let send_done = |w: &mut W, at| {
        complete(
            w,
            (node, from),
            at,
            TransportEvent::SendDone { ctx },
            None,
            false,
        )
    };

    match protocol_for(total) {
        MxProtocol::Small => {
            // Host inlines the payload by PIO; the buffer is immediately
            // reusable. Gather through the recycled payload scratch.
            let data = gather_payload(w, node, iov)?;
            let host_cost = HOST_POST + pio_cost(total);
            let host_done = knet_simos::cpu_charge(w, node, host_cost);
            let fw_done = fw_charge(w, nic, host_done, FW_SEND);
            route(KIND_EAGER).send(w, hdr, data, fw_done);
            send_done(w, host_done);
        }
        MxProtocol::Medium => {
            let avoidable = send_copy_avoidable(w, &ends, iov)?;
            let data = gather_payload(w, node, iov)?;
            let host_cost = if avoidable {
                // No copy: just the doorbell. (The paper's optimization.)
                w.mx_mut().ep_mut(from)?.stats.send_copies_avoided += 1;
                HOST_POST
            } else {
                HOST_POST + w.os().node(node).cpu.model.ring_copy_cost(total)
            };
            let host_done = knet_simos::cpu_charge(w, node, host_cost);
            let fw_done = fw_charge(w, nic, host_done, FW_SEND);
            // Chunks stream from the ring (or directly from the source when
            // the copy was elided — same DMA cost, the ring copy is what
            // disappears).
            let last_fetch = send_chunks(
                w,
                &route(KIND_EAGER),
                hdr,
                ChunkSource::Gathered(&data),
                fw_done,
                FW_CHUNK,
            )?;
            // Buffer reusable once the host copy (or for the zero-copy path,
            // the last DMA fetch) is done.
            send_done(w, if avoidable { last_fetch } else { host_done });
        }
        MxProtocol::Large => {
            // Rendezvous: pin/resolve now, send RTS, stream on CTS.
            let (segs, pinned, pin_pages) = resolve_pinned(w, node, iov)?;
            let host_cost = HOST_POST + w.os().node(node).cpu.model.pin_cost(pin_pages);
            let host_done = knet_simos::cpu_charge(w, node, host_cost);
            {
                let e = w.mx_mut().ep_mut(from)?;
                e.stats.rndv_started += 1;
                e.stats.pages_pinned += pin_pages;
            }
            w.mx_mut().rndv_send.insert(
                msg_id,
                RndvSend {
                    hdr,
                    link: (nic, dst_nic),
                    segs,
                    pinned,
                    ctx,
                    tenant,
                },
            );
            let fw_done = fw_charge(w, nic, host_done, FW_SEND);
            route(KIND_RTS).send(w, hdr, Bytes::new(), fw_done);
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
    let (node, nic) = {
        let e = w.mx().ep(ep_id)?;
        check_classes(e, iov)?;
        (e.node, e.nic)
    };
    // Resolve (and pin user memory) up front: MX needs the translation for
    // direct DMA of large/no-recv-copy messages, and pinning at post time is
    // what "page locking overhead is lower [in the kernel]" refers to.
    let (segs, pinned, pin_pages) = resolve_pinned(w, node, iov)?;
    let posted = PostedRecv {
        tag,
        iov: iov.clone(),
        capacity: PhysSeg::total_len(&segs),
        segs,
        pinned,
        ctx,
    };
    let host_cost = HOST_POST + w.os().node(node).cpu.model.pin_cost(pin_pages);
    knet_simos::cpu_charge(w, node, host_cost);
    w.mx_mut().ep_mut(ep_id)?.stats.pages_pinned += pin_pages;

    // Check the unexpected queue.
    let e = w.mx_mut().ep_mut(ep_id)?;
    match take_first(&mut e.unexpected, |u| tag_matches(tag, u.tag())) {
        None => e.posted.push_back(posted),
        Some(UnexpectedMsg::Eager { tag: t, data, from }) => {
            // Copy out of the ring into the posted buffer.
            let len = (data.len() as u64).min(posted.capacity);
            let copy = w.os().node(node).cpu.model.ring_copy_cost(len);
            let done = knet_simos::cpu_charge(w, node, copy + HOST_EVENT);
            write_iovec(w.os_mut().node_mut(node), &posted.iov, &data)?;
            release_pins(w, node, &posted.pinned);
            let ev = TransportEvent::RecvDone {
                ctx: posted.ctx,
                tag: t,
                len,
                from,
            };
            complete(w, (node, ep_id), done, ev, None, false);
        }
        Some(UnexpectedMsg::Rndv { hdr, src_nic }) => {
            accept_rendezvous(w, nic, posted, &hdr, src_nic);
        }
    }
    Ok(())
}

fn release_pins<W: MxWorld>(w: &mut W, node: NodeId, pinned: &[FrameIdx]) {
    for &f in pinned {
        w.os_mut().node_mut(node).mem.unpin(f).ok();
    }
}

/// Post completion `ev` on `ep` (living on `node`) at instant `at`,
/// releasing `unpin` first; `direct` counts a receive as zero-copy.
fn complete<W: MxWorld>(
    w: &mut W,
    (node, ep): (NodeId, MxEndpointId),
    at: SimTime,
    ev: TransportEvent,
    unpin: Option<Vec<FrameIdx>>,
    direct: bool,
) {
    let unpin = unpin.map(|frames| (node, frames));
    let ev = W::lift_mx(MxEv::Complete {
        ep,
        ev,
        unpin,
        direct,
    });
    knet_simcore::emit_at(w, node.0, at, ev);
}

/// The receiver (on `nic`) of RTS `rts` from `src_nic` accepts the
/// rendezvous into `posted`: record state and fire CTS back.
fn accept_rendezvous<W: MxWorld>(
    w: &mut W,
    nic: NicId,
    posted: PostedRecv,
    rts: &MsgHeader,
    src_nic: NicId,
) {
    w.mx_mut().inbound.commit(rts, (nic, src_nic), posted);
    let now = knet_simcore::now(w);
    let fw_done = fw_charge(w, nic, now, FW_RNDV);
    let hdr = MsgHeader {
        dst: rts.src,
        src: rts.dst,
        ..*rts
    };
    let cts = mx_route(nic, src_nic, KIND_CTS, TenantId::DEFAULT);
    cts.send(w, hdr, Bytes::new(), fw_done);
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
    let (node, nic) = {
        let e = w.mx().ep(ep_id)?;
        (e.node, e.nic)
    };
    let host_done = knet_simos::cpu_charge(w, node, HOST_POST);
    let fw_done = fw_charge(w, nic, host_done, FW_SEND);
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
        _ => w.mx_mut().inbound.malformed += 1,
    }
}

fn eager_rx<W: MxWorld>(w: &mut W, nic: NicId, pkt: Packet) {
    let m = MsgHeader::unpack(&pkt.meta);
    let dst = MxEndpointId(m.dst);
    let now = knet_simcore::now(w);
    let Ok(e) = w.mx().ep(dst) else { return };
    // An endpoint on another card, or an eager message larger than any a
    // sender sends eagerly (above the medium size it is a rendezvous):
    // nothing a peer could have meant.
    if e.nic != nic || m.total > MEDIUM_MAX {
        w.mx_mut().inbound.malformed += 1;
        return;
    }
    let (node, no_recv_copy, deliver) = (e.node, e.opts.no_recv_copy, e.deliver_unexpected);

    // A first chunk matches against the posted receives.
    let len = pkt.payload.len() as u64;
    let begun = {
        let l = w.mx_mut();
        let posted = &mut l.endpoints[m.dst as usize].posted;
        l.inbound.begin_or_resume(&m, len, (nic, pkt.src), posted)
    };
    let Some((mut a, first)) = begun else {
        return;
    };
    let fw_cost = if first { FW_RECV } else { FW_CHUNK };
    let fw_done = fw_charge(w, nic, now, fw_cost);
    // Land the chunk: directly into the posted buffer (`no_recv_copy`), or
    // into the receive ring.
    let arrived = land(
        w,
        |w| &mut w.mx_mut().inbound,
        &mut a,
        (&m, &pkt),
        fw_done,
        |p| no_recv_copy.then_some(&p.segs[..]),
    );
    if !arrived {
        return w.mx_mut().inbound.put_back(&m, a);
    }

    let ev_dma = dma_charge(w, nic, a.last_dma_done, 64);
    let from = a.sender(w.nics(), TransportKind::Mx);
    let mut host_cost = HOST_EVENT;
    let ev = match a.matched.take() {
        Some(posted) => {
            let len = a.total.min(posted.capacity);
            // (Future-MX, `no_recv_copy`: nothing to copy out of the ring.)
            if !no_recv_copy {
                host_cost += w.os().node(node).cpu.model.ring_copy_cost(len);
                let bytes = a.staged(&pkt.payload);
                write_iovec(w.os_mut().node_mut(node), &posted.iov, bytes).ok();
            }
            release_pins(w, node, &posted.pinned);
            TransportEvent::RecvDone {
                ctx: posted.ctx,
                tag: a.tag,
                len,
                from,
            }
        }
        None => {
            let (tag, data) = (a.tag, a.staged_bytes(&pkt.payload));
            if !deliver {
                // MPI mode: park in the unexpected queue for a later irecv.
                let e = &mut w.mx_mut().endpoints[m.dst as usize];
                e.stats.unexpected += 1;
                e.unexpected
                    .push_back(UnexpectedMsg::Eager { tag, data, from });
                return w.mx_mut().inbound.finish(a);
            }
            // Transport-glue mode: hand the payload up with the copy
            // charged.
            host_cost += w.os().node(node).cpu.model.ring_copy_cost(a.total);
            TransportEvent::Unexpected { tag, data, from }
        }
    };
    let direct = no_recv_copy && matches!(ev, TransportEvent::RecvDone { .. });
    w.mx_mut().inbound.finish(a);
    let done = host_completion(w, node, ev_dma, host_cost);
    complete(w, (node, dst), done, ev, None, direct);
}

fn rts_rx<W: MxWorld>(w: &mut W, nic: NicId, pkt: Packet) {
    let m = MsgHeader::unpack(&pkt.meta);
    let now = knet_simcore::now(w);
    let Ok(e) = w.mx().ep(MxEndpointId(m.dst)) else {
        return;
    };
    // An endpoint on another card, or a second RTS for a message already
    // accepted.
    if e.nic != nic || w.mx().inbound.is_assembling(&m) {
        w.mx_mut().inbound.malformed += 1;
        return;
    }
    fw_charge(w, nic, now, FW_RNDV);
    let e = &mut w.mx_mut().endpoints[m.dst as usize];
    match first_fit(&mut e.posted, m.tag, m.total) {
        Some(posted) => accept_rendezvous(w, nic, posted, &m, pkt.src),
        None => e.unexpected.push_back(UnexpectedMsg::Rndv {
            hdr: m,
            src_nic: pkt.src,
        }),
    }
}

fn cts_rx<W: MxWorld>(w: &mut W, nic: NicId, pkt: Packet) {
    let m = MsgHeader::unpack(&pkt.meta);
    let now = knet_simcore::now(w);
    // Only the peer the RTS went to can clear its message to stream.
    let l = w.mx_mut();
    if l.rndv_send
        .get(&m.msg_id)
        .is_none_or(|r| r.link != (nic, pkt.src))
    {
        l.inbound.malformed += 1;
        return;
    }
    let Some(r) = l.rndv_send.remove(&m.msg_id) else {
        return;
    };
    let fw_done = fw_charge(w, nic, now, FW_RNDV);
    // Stream the message, zero-copy from the pinned source segments.
    let route = mx_route(nic, pkt.src, KIND_LARGE, r.tenant);
    let source = ChunkSource::Segs(&r.segs);
    let sent = send_chunks(w, &route, r.hdr, source, fw_done, FW_CHUNK);
    let drained = match sent {
        Ok(t) => t,
        Err(e) => return fail_rndv_send(w, r, e.into()),
    };
    // Source drained: unpin and complete the send.
    let from = MxEndpointId(r.hdr.src);
    let Ok(node) = w.mx().ep(from).map(|e| e.node) else {
        return;
    };
    let unpin = w
        .os()
        .node(node)
        .cpu
        .model
        .unpin_cost(r.pinned.len() as u64);
    let done = host_completion(w, node, drained, HOST_EVENT + unpin);
    let ev = TransportEvent::SendDone { ctx: r.ctx };
    complete(w, (node, from), done, ev, Some(r.pinned), false);
}

/// A rendezvous send that can no longer complete: release its pins, then
/// tell its owner — synchronously, so the failure is seen before whatever
/// the caller reports next (a `PeerDown`).
fn fail_rndv_send<W: MxWorld>(w: &mut W, r: RndvSend, error: NetError) {
    let ep = MxEndpointId(r.hdr.src);
    let Ok(node) = w.mx().ep(ep).map(|e| e.node) else {
        return;
    };
    let ev = TransportEvent::SendFailed { ctx: r.ctx, error };
    run_mx_ev(
        w,
        MxEv::Complete {
            ep,
            ev,
            unpin: Some((node, r.pinned)),
            direct: false,
        },
    );
}

fn large_rx<W: MxWorld>(w: &mut W, nic: NicId, pkt: Packet) {
    let m = MsgHeader::unpack(&pkt.meta);
    let dst = MxEndpointId(m.dst);
    let now = knet_simcore::now(w);
    let len = pkt.payload.len() as u64;
    let Some(mut a) = w.mx_mut().inbound.resume(&m, len, (nic, pkt.src)) else {
        return;
    };
    let fw_done = fw_charge(w, nic, now, FW_CHUNK);
    let arrived = land(
        w,
        |w| &mut w.mx_mut().inbound,
        &mut a,
        (&m, &pkt),
        fw_done,
        |p| Some(&p.segs),
    );
    if !arrived {
        return w.mx_mut().inbound.put_back(&m, a);
    }
    // (Always `Some`: a rendezvous is accepted into a posted receive.)
    let Some(posted) = a.matched.take() else {
        return;
    };
    let Ok(node) = w.mx().ep(dst).map(|e| e.node) else {
        return;
    };
    let ev_dma = dma_charge(w, nic, a.last_dma_done, 64);
    let unpin_cost = w
        .os()
        .node(node)
        .cpu
        .model
        .unpin_cost(posted.pinned.len() as u64);
    let done = host_completion(w, node, ev_dma, HOST_EVENT + unpin_cost);
    let ev = TransportEvent::RecvDone {
        ctx: posted.ctx,
        tag: a.tag,
        len: a.total,
        from: a.sender(w.nics(), TransportKind::Mx),
    };
    complete(w, (node, dst), done, ev, Some(posted.pinned), false);
}

/// Close an endpoint: release the pins of every receive it posted — still
/// queued, or captured by a message (eager or rendezvous) that has not
/// finished arriving — and of every rendezvous send still waiting for its
/// CTS, and drop queued state. Completions still on their way to the
/// endpoint are dropped when they land.
pub fn mx_close_endpoint<W: MxWorld>(w: &mut W, ep_id: MxEndpointId) -> Result<(), NetError> {
    let l = w.mx_mut();
    let e = l.ep_mut(ep_id)?;
    e.unexpected.clear();
    e.open = false;
    let node = e.node;
    let mut released: Vec<Vec<FrameIdx>> = e.posted.drain(..).map(|p| p.pinned).collect();
    let captured = l.inbound.abandon(|ep, _| ep == ep_id.0);
    released.extend(captured.into_iter().map(|(_, p)| p.pinned));
    let sends = l.take_rndv_sends(|r| r.hdr.src == ep_id.0);
    released.extend(sends.into_iter().map(|r| r.pinned));
    for pinned in released {
        release_pins(w, node, &pinned);
    }
    Ok(())
}

/// Cancel the first posted receive with exactly this tag (releasing its
/// pins) — still queued, or captured by an eager message that has not
/// finished arriving, whose remainder is then discarded. A receive an
/// accepted rendezvous was committed to is not cancellable. Returns
/// whether one was cancelled. Needed by layered protocols whose data can
/// race ahead of the descriptor (e.g. the zero-copy socket header/payload
/// pattern).
pub fn mx_cancel_recv<W: MxWorld>(w: &mut W, ep_id: MxEndpointId, tag: u64) -> bool {
    let l = w.mx_mut();
    let Ok(e) = l.ep_mut(ep_id) else {
        return false;
    };
    let node = e.node;
    let cancelled = take_tag(&mut e.posted, tag);
    match cancelled.or_else(|| l.inbound.cancel_captured(ep_id.0, tag)) {
        Some(p) => {
            release_pins(w, node, &p.pinned);
            true
        }
        None => false,
    }
}

/// Whether a message that has not finished arriving holds the receive
/// posted on `ep_id` with exactly this tag: an eager one captured it, or
/// an accepted rendezvous was committed to it.
pub fn mx_recv_filling<W: MxWorld>(w: &W, ep_id: MxEndpointId, tag: u64) -> bool {
    w.mx().inbound.holds(ep_id.0, tag)
}

/// The reliability window from `local` toward `remote` died. Every
/// rendezvous send waiting for a CTS from `remote` fails (unpinned, then
/// `SendFailed`), in message order; messages `remote` was still sending to
/// endpoints on `local` are dropped, and a receive one had captured goes
/// back to the head of its endpoint's queue (pins intact), where the next
/// message — or its owner's cancel — finds it; queued RTSs from `remote`
/// are forgotten.
pub fn mx_peer_down<W: MxWorld>(w: &mut W, local: NicId, remote: NicId) {
    let l = w.mx_mut();
    let doomed = l.take_rndv_sends(|r| r.link == (local, remote));
    for (ep, posted) in l.inbound.abandon(|_, link| link == (local, remote)) {
        l.endpoints[ep as usize].posted.push_front(posted);
    }
    for e in l.endpoints.iter_mut().filter(|e| e.nic == local) {
        e.unexpected
            .retain(|u| !matches!(u, UnexpectedMsg::Rndv { src_nic, .. } if *src_nic == remote));
    }
    for r in doomed {
        fail_rndv_send(w, r, NetError::PeerUnreachable);
    }
}
