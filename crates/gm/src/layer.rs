//! The GM driver: ports, explicit registration, sends, receive firmware.
//!
//! Faithful to the model the paper describes in §2.2.2:
//!
//! * message passing with *send tokens* bounding pending requests;
//! * all I/O buffers must be **registered** first (pin + NIC-table entry),
//!   3 µs/page to register, 200 µs base to deregister;
//! * completions reach the host through the port's **event queue**: the
//!   completion record's DMA plus the host's poll (or, for sleeping
//!   in-kernel consumers, the notification wake-up), after which the
//!   completion goes to the port's consumer;
//! * receive buffers are *provided* ahead of time; messages that find no
//!   buffer land in a pre-registered bounce pool and reach the host with an
//!   extra copy (how real GM applications handled unexpected traffic);
//! * the **kernel port** costs ≈2 µs more per operation — GM "lacks an
//!   efficient in-kernel communication implementation" (§5.2);
//! * the paper's patch (§3.3) adds **physical-address primitives** that skip
//!   the NIC translation lookup (≈0.5 µs/side) and accept page-cache pages.

use std::collections::{BTreeMap, VecDeque};

use knet_core::{
    host_completion, land, pace_submit, pace_timer_fired, send_chunks, take_tag, ChunkSource,
    CompletionHook, Endpoint, IoVec, MemRef, NetError, PaceLanes, PacedSend, Posted, RangePlan,
    Reassembly, RegCache, RegKey, Route, ScratchStats, SegList, Sent, TenantId, TransportEvent,
    TransportKind, ANY_TAG,
};
use knet_simcore::{SimTime, SimWorld};
use knet_simnic::{
    coll_inject, coll_on_packet, dma_charge, fw_charge, is_coll_frame, rel_on_packet, CollCmd,
    MsgHeader, NicId, NicWorld, Packet, Proto, RelVerdict, TransKey,
};
use knet_simos::{cpu_charge, page_slices, Asid, FrameIdx, NodeId, PhysSeg};

use crate::cache::register_on_the_fly;
use crate::params::{
    deregister_cost, GmParams, BOUNCE_MAX, FW_CHUNK, FW_RECV, FW_SEND, FW_TRANSLATE_BASE,
    FW_TRANSLATE_PAGE, HEADER_BYTES, HOST_EVENT_POLL, HOST_SEND_POST, KERNEL_OP_EXTRA,
    REG_PER_PAGE, REG_SYSCALL,
};

/// Global identifier of an open GM port.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GmPortId(pub u32);

/// Wildcard receive tag: a provided buffer with this tag matches anything.
pub const GM_ANY_TAG: u64 = ANY_TAG;

/// Whether a port belongs to a user process or to the kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortMode {
    /// A user-space port bound to one address space (GM's assumption:
    /// "GM assumes a port can only be used by a single process", §3.2).
    User(Asid),
    /// The in-kernel port — shareable across processes thanks to the
    /// ASID-tagged translation table (the 64-bit pointer patch).
    Kernel,
}

impl PortMode {
    pub fn is_kernel(&self) -> bool {
        matches!(self, PortMode::Kernel)
    }
}

/// Port configuration.
#[derive(Clone, Debug)]
pub struct GmPortConfig {
    pub mode: PortMode,
    /// Enable the paper's physical-address primitives (§3.3).
    pub physical_api: bool,
    /// Attach a registration cache of this many pages (GMKRC in the kernel,
    /// the ORFA library cache in user space).
    pub regcache_pages: Option<usize>,
    /// The consumer sleeps between completions and must be woken through
    /// GM's helper notification thread (in-kernel clients like ORFS);
    /// polling consumers leave this off.
    pub blocking_notify: bool,
}

impl GmPortConfig {
    pub fn user(asid: Asid) -> Self {
        GmPortConfig {
            mode: PortMode::User(asid),
            physical_api: false,
            regcache_pages: None,
            blocking_notify: false,
        }
    }

    pub fn kernel() -> Self {
        GmPortConfig {
            mode: PortMode::Kernel,
            physical_api: false,
            regcache_pages: None,
            blocking_notify: false,
        }
    }

    pub fn with_blocking_notify(mut self) -> Self {
        self.blocking_notify = true;
        self
    }

    pub fn with_physical_api(mut self) -> Self {
        self.physical_api = true;
        self
    }

    pub fn with_regcache(mut self, pages: usize) -> Self {
        self.regcache_pages = Some(pages);
        self
    }
}

/// Per-port counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct GmStats {
    pub sends: u64,
    pub recvs: u64,
    pub unexpected: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub pages_registered: u64,
    pub pages_deregistered: u64,
    pub dereg_batches: u64,
}

struct ProvidedBuffer {
    tag: u64,
    segs: SegList,
    capacity: u64,
    ctx: u64,
    /// Firmware translation cost the NIC pays when this buffer receives a
    /// message (zero for physical-address buffers — the receive-side half
    /// of the §3.3 gain).
    translate_cost: SimTime,
}

impl Posted for ProvidedBuffer {
    fn tag(&self) -> u64 {
        self.tag
    }
    fn capacity(&self) -> u64 {
        self.capacity
    }
}

/// One open GM port.
pub struct GmPort {
    pub id: GmPortId,
    pub node: NodeId,
    pub nic: NicId,
    pub mode: PortMode,
    pub physical_api: bool,
    pub blocking_notify: bool,
    /// GMKRC / user-library registration cache, if configured.
    pub regcache: Option<RegCache>,
    send_tokens: usize,
    recv_queue: VecDeque<ProvidedBuffer>,
    /// Explicit (non-cached) registrations: key → pinned frames of the page.
    explicit: BTreeMap<RegKey, Option<FrameIdx>>,
    pub stats: GmStats,
    open: bool,
}

/// What the data path reads of a port, copied out by one lookup.
#[derive(Clone, Copy)]
struct PortView {
    node: NodeId,
    nic: NicId,
    mode: PortMode,
    physical_api: bool,
}

impl GmPort {
    fn view(&self) -> PortView {
        PortView {
            node: self.node,
            nic: self.nic,
            mode: self.mode,
            physical_api: self.physical_api,
        }
    }

    /// Send tokens currently available.
    pub fn tokens(&self) -> usize {
        self.send_tokens
    }

    /// Provided receive buffers currently queued.
    pub fn receive_buffers(&self) -> usize {
        self.recv_queue.len()
    }
}

/// Reusable hot-path scratch: every per-operation buffer the steady-state
/// send/receive path needs, recycled across operations so the data path
/// performs no heap allocation once each vector reaches its high-water
/// capacity. Single-threaded worlds make this safe; each user takes a
/// buffer out of the layer for the duration of one operation.
#[derive(Default)]
pub struct GmScratch {
    /// Resolved physical segments of the buffer being sent.
    pub(crate) segs: Vec<PhysSeg>,
    /// LRU victims drained from a registration cache under pressure.
    pub(crate) victims: Vec<(RegKey, FrameIdx)>,
    /// Registration page plan of the buffer being sent.
    pub(crate) plan: RangePlan,
    pub stats: ScratchStats,
}

/// A send parked in a NIC's per-tenant pacing lane: everything needed to
/// re-issue it verbatim once the tenant's token bucket refills. It holds
/// the send token [`gm_send_t`] reserved for it; the token comes back with
/// its `SendDone` or `SendFailed`.
#[derive(Clone, Copy)]
pub struct PacedGmSend {
    port: GmPortId,
    buf: MemRef,
    dest: GmPortId,
    tag: u64,
    ctx: u64,
}

impl<W: GmWorld> PacedSend<W> for PacedGmSend {
    fn lanes(w: &mut W) -> &mut PaceLanes<Self> {
        &mut w.gm_mut().paced
    }

    fn send_admitted(&self, w: &mut W, tenant: TenantId) -> Result<(), NetError> {
        // A port may have closed, or the link died, while the send waited.
        let (src, dst_nic) = check_send(w, self.port, self.dest)?;
        gm_send_admitted(w, self, src, dst_nic, tenant)
    }

    fn send_failed(&self, w: &W, error: NetError) -> Option<(u32, <W as SimWorld>::Ev)> {
        let node = w.gm().port(self.port).ok()?.node.0;
        let ev = W::lift_gm(GmEv::Complete {
            port: self.port,
            ev: TransportEvent::SendFailed {
                ctx: self.ctx,
                error,
            },
        });
        Some((node, ev))
    }

    fn pace_timer(nic: NicId) -> <W as SimWorld>::Ev {
        W::lift_gm(GmEv::Pace { nic })
    }
}

/// All GM state in the world.
pub struct GmLayer {
    pub params: GmParams,
    ports: Vec<GmPort>,
    /// Messages still arriving, with the bounce pool (staging rings) an
    /// unmatched one is reassembled in.
    assemblies: Reassembly<ProvidedBuffer>,
    next_msg_id: u64,
    /// Recycled per-operation buffers (see [`GmScratch`]).
    pub scratch: GmScratch,
    /// Tenant pacing lanes (the shared seam, [`knet_core::pace`]): sends
    /// the token bucket deferred, drained on pace-timer fire.
    pub paced: PaceLanes<PacedGmSend>,
}

impl GmLayer {
    pub fn new(params: GmParams) -> Self {
        GmLayer {
            params,
            ports: Vec::new(),
            assemblies: Reassembly::default(),
            next_msg_id: 1,
            scratch: GmScratch::default(),
            paced: PaceLanes::default(),
        }
    }

    pub fn port(&self, id: GmPortId) -> Result<&GmPort, NetError> {
        self.ports
            .get(id.0 as usize)
            .filter(|p| p.open)
            .ok_or(NetError::BadEndpoint)
    }

    pub fn port_mut(&mut self, id: GmPortId) -> Result<&mut GmPort, NetError> {
        self.ports
            .get_mut(id.0 as usize)
            .filter(|p| p.open)
            .ok_or(NetError::BadEndpoint)
    }

    /// Iterate open ports on `node`.
    pub fn ports_on(&self, node: NodeId) -> impl Iterator<Item = GmPortId> + '_ {
        self.ports
            .iter()
            .filter(move |p| p.open && p.node == node)
            .map(|p| p.id)
    }

    /// Messages still reassembling.
    pub fn reassembling(&self) -> usize {
        self.assemblies.incomplete()
    }

    /// `(table capacity, idle bounce buffers)` of the reassembly table.
    pub fn reassembly_footprint(&self) -> (usize, usize) {
        self.assemblies.footprint()
    }

    /// Packets dropped because their kind or header words describe nothing
    /// a peer could have sent (see `knet_core::driver::chunk_fits`).
    pub fn malformed(&self) -> u64 {
        self.assemblies.malformed
    }
}

impl Default for GmLayer {
    fn default() -> Self {
        Self::new(GmParams::default())
    }
}

/// Typed engine events for the GM layer: host-side completions that fire
/// after the completion-record DMA (plus host polling cost) lands. Composed
/// worlds embed these in their event enum via [`GmWorld::lift_gm`].
#[derive(Debug)]
pub enum GmEv {
    /// Complete `ev` on `port`: a `SendDone` — or the `SendFailed` of a
    /// send the pacing lane gave up on — returns the send token, a receive
    /// is counted (an `Unexpected` one was bounced through the
    /// pre-registered pool), then the completion goes to the port's
    /// consumer ([`CompletionHook::complete`]).
    Complete { port: GmPortId, ev: TransportEvent },
    /// A tenant pace timer fired: drain `nic`'s pacing lanes against the
    /// (now refilled) token buckets.
    Pace { nic: NicId },
}

/// Execute one GM-layer event.
pub fn run_gm_ev<W: GmWorld>(w: &mut W, ev: GmEv) {
    match ev {
        GmEv::Complete { port, ev } => {
            // A port closed meanwhile takes no completions.
            let Ok(p) = w.gm_mut().port_mut(port) else {
                return;
            };
            match &ev {
                TransportEvent::SendDone { .. } | TransportEvent::SendFailed { .. } => {
                    p.send_tokens += 1;
                }
                TransportEvent::RecvDone { len, .. } => {
                    p.stats.recvs += 1;
                    p.stats.bytes_received += *len;
                }
                TransportEvent::Unexpected { data, .. } => {
                    p.stats.unexpected += 1;
                    p.stats.bytes_received += data.len() as u64;
                }
                _ => {}
            }
            let ep = Endpoint {
                kind: TransportKind::Gm,
                node: p.node,
                idx: port.0,
            };
            w.complete(ep, ev);
        }
        GmEv::Pace { nic } => pace_timer_fired::<W, PacedGmSend>(w, nic),
    }
}

/// Capability trait: a world running the GM driver. Completions leave
/// through the world's [`CompletionHook`].
pub trait GmWorld: NicWorld + CompletionHook {
    fn gm(&self) -> &GmLayer;
    fn gm_mut(&mut self) -> &mut GmLayer;

    /// Wrap a GM event into the world's typed event enum. The default boxes
    /// (fine for tests); the composed cluster world overrides it with a
    /// zero-allocation enum variant.
    fn lift_gm(ev: GmEv) -> <Self as knet_simcore::SimWorld>::Ev {
        knet_simcore::SimEvent::from_call(Box::new(move |w: &mut Self| run_gm_ev(w, ev)))
    }
}

/// Open a port on `node`. Fails if the node has no NIC.
pub fn gm_open_port<W: GmWorld>(
    w: &mut W,
    node: NodeId,
    cfg: GmPortConfig,
) -> Result<GmPortId, NetError> {
    let nic = w.nics().nic_of_node(node).ok_or(NetError::BadEndpoint)?;
    let send_tokens = w.gm().params.send_tokens;
    let id = GmPortId(w.gm().ports.len() as u32);
    let port = GmPort {
        id,
        node,
        nic,
        mode: cfg.mode,
        physical_api: cfg.physical_api,
        blocking_notify: cfg.blocking_notify,
        regcache: cfg.regcache_pages.map(RegCache::new),
        send_tokens,
        recv_queue: VecDeque::new(),
        explicit: BTreeMap::new(),
        stats: GmStats::default(),
        open: true,
    };
    w.gm_mut().ports.push(port);
    Ok(id)
}

/// The ASID a buffer is checked against on a port of this mode.
fn buffer_asid(mode: PortMode, seg: &MemRef) -> Result<Asid, NetError> {
    match (*seg, mode) {
        (MemRef::UserVirtual { asid, .. }, PortMode::User(port_asid)) => {
            if asid == port_asid {
                Ok(asid)
            } else {
                // One port, one process — the GM assumption GMKRC works
                // around on the shared kernel port.
                Err(NetError::BadAddressClass)
            }
        }
        (MemRef::UserVirtual { asid, .. }, PortMode::Kernel) => Ok(asid),
        (MemRef::KernelVirtual { .. }, _) => Ok(Asid::KERNEL),
        (MemRef::Physical { .. }, _) => Ok(Asid::KERNEL),
    }
}

/// `gm_register`: pin `[addr, addr+len)` of `asid` and install its
/// translations in the NIC table. Costs ≈3 µs/page on the host.
pub fn gm_register<W: GmWorld>(
    w: &mut W,
    port_id: GmPortId,
    asid: Asid,
    addr: knet_simos::VirtAddr,
    len: u64,
) -> Result<SimTime, NetError> {
    let (node, nic, is_kernel) = {
        let p = w.gm().port(port_id)?;
        (p.node, p.nic, p.mode.is_kernel())
    };
    let mut pages = 0u64;
    let mut inserted: Vec<(RegKey, Option<FrameIdx>)> = Vec::new();
    for (page, _, _) in page_slices(addr, len) {
        let key = RegKey::of(asid, page);
        if w.gm().port(port_id)?.explicit.contains_key(&key) {
            continue; // already registered on this port
        }
        pages += 1;
        // Pin (user memory only) and resolve the physical page.
        let phys = if page.is_kernel() {
            page.kernel_to_phys().expect("kernel page")
        } else {
            w.os_mut().node_mut(node).pin_range(asid, page, 1)?;
            w.os().node(node).space(asid)?.translate(page)?
        };
        let frame = (!page.is_kernel()).then(|| FrameIdx::from_phys(phys));
        // Install in the NIC table; roll back on overflow.
        let tt = &mut w.nics_mut().get_mut(nic).ttable;
        if let Err(e) = tt.insert(TransKey { asid, vpn: key.vpn }, phys) {
            if let Some(f) = frame {
                w.os_mut().node_mut(node).mem.unpin(f).ok();
            }
            rollback_registrations(w, port_id, nic, node, &inserted);
            return Err(e.into());
        }
        inserted.push((key, frame));
    }
    for (key, frame) in &inserted {
        w.gm_mut().port_mut(port_id)?.explicit.insert(*key, *frame);
    }
    w.gm_mut().port_mut(port_id)?.stats.pages_registered += pages;
    // Host cost: a syscall from user space (the kernel registers directly).
    let syscall = if is_kernel {
        SimTime::ZERO
    } else {
        REG_SYSCALL
    };
    let cost = syscall + REG_PER_PAGE * pages;
    Ok(cpu_charge(w, node, cost))
}

fn rollback_registrations<W: GmWorld>(
    w: &mut W,
    port_id: GmPortId,
    nic: NicId,
    node: NodeId,
    inserted: &[(RegKey, Option<FrameIdx>)],
) {
    for (key, frame) in inserted {
        w.nics_mut().get_mut(nic).ttable.remove(TransKey {
            asid: key.asid,
            vpn: key.vpn,
        });
        if let Some(f) = frame {
            w.os_mut().node_mut(node).mem.unpin(*f).ok();
        }
        if let Ok(p) = w.gm_mut().port_mut(port_id) {
            p.explicit.remove(key);
        }
    }
}

/// `gm_deregister`: drop translations and unpin. Costs the 200 µs base plus
/// a small per-page term.
pub fn gm_deregister<W: GmWorld>(
    w: &mut W,
    port_id: GmPortId,
    asid: Asid,
    addr: knet_simos::VirtAddr,
    len: u64,
) -> Result<SimTime, NetError> {
    let (node, nic) = {
        let p = w.gm().port(port_id)?;
        (p.node, p.nic)
    };
    let mut pages = 0u64;
    for (page, _, _) in page_slices(addr, len) {
        let key = RegKey::of(asid, page);
        let entry = w.gm_mut().port_mut(port_id)?.explicit.remove(&key);
        let Some(frame) = entry else { continue };
        pages += 1;
        w.nics_mut()
            .get_mut(nic)
            .ttable
            .remove(TransKey { asid, vpn: key.vpn });
        if let Some(f) = frame {
            w.os_mut().node_mut(node).mem.unpin(f)?;
        }
    }
    let p = w.gm_mut().port_mut(port_id)?;
    p.stats.pages_deregistered += pages;
    p.stats.dereg_batches += 1;
    let cost = deregister_cost(pages);
    Ok(cpu_charge(w, node, cost))
}

/// Resolve a send/receive buffer on this port into physical segments
/// (*appended* to `out`, merged where adjacent) and the firmware
/// translation cost it will incur. Appending lets callers accumulate a
/// whole io-vector into one reusable scratch list without intermediate
/// allocations.
///
/// * `Physical` refs need the physical-address patch and cost the firmware
///   nothing (§3.3: "the NIC does not require to translate").
/// * `KernelVirtual` refs also need the patch (the kernel hands the NIC the
///   direct-mapped physical address).
/// * `UserVirtual` refs must be fully registered; the firmware pays a
///   translation lookup.
fn resolve_for_wire<W: GmWorld>(
    w: &mut W,
    port: &PortView,
    seg: &MemRef,
    out: &mut Vec<PhysSeg>,
) -> Result<SimTime, NetError> {
    let asid = buffer_asid(port.mode, seg)?;
    match *seg {
        MemRef::Physical { addr, len } => {
            if !port.physical_api {
                return Err(NetError::Unsupported);
            }
            PhysSeg::push_merged(out, PhysSeg::new(addr, len));
            Ok(SimTime::ZERO)
        }
        MemRef::KernelVirtual { addr, len } if port.physical_api => {
            // Patched GM: the kernel hands over the direct-mapped
            // physical address; no NIC lookup.
            let p = addr.kernel_to_phys().ok_or(NetError::BadAddressClass)?;
            PhysSeg::push_merged(out, PhysSeg::new(p, len));
            Ok(SimTime::ZERO)
        }
        // Stock GM: kernel memory must be registered like any other buffer
        // and pays the translation lookup (the "needs kernel patching" row
        // of Table 1); user memory always translates.
        MemRef::KernelVirtual { addr, len } | MemRef::UserVirtual { addr, len, .. } => {
            let mut pages = 0u64;
            for (page, off, n) in page_slices(addr, len) {
                pages += 1;
                let tt = &mut w.nics_mut().get_mut(port.nic).ttable;
                let phys = tt.lookup(asid, page)?;
                PhysSeg::push_merged(out, PhysSeg::new(phys.add(off), n));
            }
            let cost = FW_TRANSLATE_BASE + FW_TRANSLATE_PAGE * pages.saturating_sub(1);
            Ok(cost)
        }
    }
}

const PKT_KIND_DATA: u8 = 0;

/// `gm_send_with_callback`: send `buf` to `dest` on behalf of `tenant`.
/// Asynchronous; a [`TransportEvent::SendDone`] with `ctx` completes when
/// the buffer is reusable.
///
/// `tag` travels with the message for receive matching (the correlation the
/// in-kernel users layer over GM; plain MPI-over-GM uses `GM_ANY_TAG`
/// buffers and does its own matching).
///
/// The port's registration cache (GMKRC, §3.2) registers `buf` first, if
/// the NIC must translate it ([`crate::cache`]). Then the send reserves a
/// send token, and the tenant's token bucket at the NIC admission point
/// admits, parks or sheds it as the shared pacing seam decides
/// ([`knet_core::pace`]). A port with no token left refuses with
/// [`NetError::NoSendTokens`] — or with [`NetError::Overload`] when the
/// tenant's policy sheds the send whatever its bucket holds (zero rate,
/// message over the burst), so such a send fails at once rather than wait
/// for a token; a full pacing lane is only checked once a token is held.
/// A parked send returns [`Sent::Parked`] and keeps its token: `buf` is
/// read when the lane drains, and its `SendDone`/`SendFailed` completion
/// arrives later and returns the token. A send refused here returns its
/// token at once.
pub fn gm_send_t<W: GmWorld>(
    w: &mut W,
    port_id: GmPortId,
    buf: MemRef,
    dest: GmPortId,
    tag: u64,
    ctx: u64,
    tenant: TenantId,
) -> Result<Sent, NetError> {
    register_on_the_fly(w, port_id, &buf)?;
    // Fail fast on the errors that would also fail at drain time, so a
    // doomed send is never parked.
    let (src, dst_nic) = check_send(w, port_id, dest)?;
    let tokens = &mut w.gm_mut().port_mut(port_id)?.send_tokens;
    if let Some(left) = tokens.checked_sub(1) {
        *tokens = left;
    } else {
        // A send its tenant's bucket sheds is refused as such, token or
        // not: queueing it for a token would only postpone the `Overload`.
        let qos = &mut w.nics_mut().qos;
        if qos.policy(tenant.0).is_some_and(|p| p.sheds(buf.len())) {
            qos.note_shed(tenant.0);
            return Err(NetError::Overload);
        }
        return Err(NetError::NoSendTokens);
    }
    let send = PacedGmSend {
        port: port_id,
        buf,
        dest,
        tag,
        ctx,
    };
    let sent = pace_submit(
        w,
        src.nic,
        tenant,
        buf.len(),
        |w| gm_send_admitted(w, &send, src, dst_nic, tenant),
        || send,
    );
    if sent.is_err() {
        if let Ok(p) = w.gm_mut().port_mut(port_id) {
            p.send_tokens += 1;
        }
    }
    sent
}

/// The checks a send passes when it is submitted, and again when its
/// pacing lane drains: both ports open, the link between them alive.
/// Returns the sending port and the destination's NIC.
fn check_send<W: GmWorld>(
    w: &W,
    port: GmPortId,
    dest: GmPortId,
) -> Result<(PortView, NicId), NetError> {
    let src = w.gm().port(port)?.view();
    // Destination must exist (GM routes are static; a bad route is an error
    // at open time in real GM — at send time here).
    let dst_nic = w.gm().port(dest)?.nic;
    // A peer whose reliability window died is unreachable: fail before any
    // DMA is committed.
    if w.nics().rel.link_dead(Proto::Gm, src.nic, dst_nic) {
        return Err(NetError::PeerUnreachable);
    }
    Ok((src, dst_nic))
}

/// The admitted send pipeline (post token-bucket, its send token already
/// reserved, its ports checked): address resolution, host/firmware
/// charges, MTU chunking, wire submission.
fn gm_send_admitted<W: GmWorld>(
    w: &mut W,
    send: &PacedGmSend,
    src: PortView,
    dst_nic: NicId,
    tenant: TenantId,
) -> Result<(), NetError> {
    let (node, nic) = (src.node, src.nic);

    // Resolve into the layer's recycled segment scratch (no allocation at
    // the steady-state high-water mark).
    let mut segs = std::mem::take(&mut w.gm_mut().scratch.segs);
    let cap_before = segs.capacity();
    segs.clear();
    let translate_cost = match resolve_for_wire(w, &src, &send.buf, &mut segs) {
        Ok(cost) => cost,
        Err(e) => {
            w.gm_mut().scratch.segs = segs;
            return Err(e);
        }
    };
    {
        let p = w.gm_mut().port_mut(send.port)?;
        p.stats.sends += 1;
        p.stats.bytes_sent += send.buf.len();
    }

    // Host posts the send (kernel interface pays its overhead).
    let mut host_cost = HOST_SEND_POST;
    if src.mode.is_kernel() {
        host_cost += KERNEL_OP_EXTRA;
    }
    let host_done = cpu_charge(w, node, host_cost);

    // Firmware picks the command up and resolves addressing.
    let fw_done = fw_charge(w, nic, host_done, FW_SEND + translate_cost);

    // Cut into MTU chunks; DMA and wire pipeline chunk by chunk.
    let msg_id = {
        let l = w.gm_mut();
        l.next_msg_id += 1;
        l.next_msg_id
    };
    let route = Route {
        src: nic,
        dst: dst_nic,
        proto: Proto::Gm,
        kind: PKT_KIND_DATA,
        header_bytes: HEADER_BYTES,
        tenant,
    };
    let hdr = MsgHeader {
        dst: send.dest.0,
        src: send.port.0,
        tag: send.tag,
        msg_id,
        offset: 0,
        total: PhysSeg::total_len(&segs),
    };
    let source = ChunkSource::Segs(&segs);
    let sent = send_chunks(w, &route, hdr, source, fw_done, FW_CHUNK);
    let cap_after = segs.capacity();
    let scratch = &mut w.gm_mut().scratch;
    scratch.segs = segs;
    scratch.stats.note(cap_before, cap_after);
    // After the last chunk leaves host memory the buffer is reusable:
    // complete the send and return the token.
    let ev_done = dma_charge(w, nic, sent?, 64); // completion record DMA
    let ev = W::lift_gm(GmEv::Complete {
        port: send.port,
        ev: TransportEvent::SendDone { ctx: send.ctx },
    });
    knet_simcore::emit_at(w, node.0, ev_done, ev);
    Ok(())
}

/// `gm_provide_receive_buffer`: queue a buffer for incoming messages whose
/// tag matches (or any message, with [`GM_ANY_TAG`]). The port's
/// registration cache first registers the buffer's memory on the fly, as
/// it does a send's ([`crate::cache`]).
pub fn gm_provide_receive_buffer<W: GmWorld>(
    w: &mut W,
    port_id: GmPortId,
    iov: &IoVec,
    tag: u64,
    ctx: u64,
) -> Result<(), NetError> {
    for seg in iov.segs() {
        register_on_the_fly(w, port_id, seg)?;
    }
    let port = w.gm().port(port_id)?.view();
    // Resolve through the recycled segment scratch; the buffer stays queued
    // until a message lands, so it keeps its own (inline) copy.
    let mut scratch = std::mem::take(&mut w.gm_mut().scratch.segs);
    scratch.clear();
    let translate_cost = iov.segs().iter().try_fold(SimTime::ZERO, |cost, seg| {
        Ok::<_, NetError>(cost + resolve_for_wire(w, &port, seg, &mut scratch)?)
    });
    let segs: SegList = scratch.iter().copied().collect();
    w.gm_mut().scratch.segs = scratch;
    let translate_cost = translate_cost?;
    let capacity = PhysSeg::total_len(&segs);
    let mut host_cost = HOST_SEND_POST;
    if port.mode.is_kernel() {
        host_cost += KERNEL_OP_EXTRA;
    }
    cpu_charge(w, port.node, host_cost);
    w.gm_mut()
        .port_mut(port_id)?
        .recv_queue
        .push_back(ProvidedBuffer {
            tag,
            segs,
            capacity,
            ctx,
            translate_cost,
        });
    Ok(())
}

/// Post a collective descriptor through a GM port: the host pays its usual
/// post cost, the firmware picks the descriptor up, and from then on the
/// whole collective progresses NIC-to-NIC ([`coll_inject`]) — the host is
/// off the critical path until the completion event comes back up.
pub fn gm_coll_post<W: GmWorld>(
    w: &mut W,
    port_id: GmPortId,
    cmd: CollCmd,
) -> Result<(), NetError> {
    let (node, nic, is_kernel) = {
        let p = w.gm().port(port_id)?;
        (p.node, p.nic, p.mode.is_kernel())
    };
    let mut host_cost = HOST_SEND_POST;
    if is_kernel {
        host_cost += KERNEL_OP_EXTRA;
    }
    let host_done = cpu_charge(w, node, host_cost);
    let fw_done = fw_charge(w, nic, host_done, FW_SEND);
    coll_inject(w, Proto::Gm, nic, cmd, fw_done);
    Ok(())
}

/// Firmware receive path: called by the composed world for `Proto::Gm`
/// packets arriving at `nic`.
pub fn gm_on_packet<W: GmWorld>(w: &mut W, nic: NicId, pkt: Packet) {
    debug_assert_eq!(pkt.proto, Proto::Gm);
    // NIC-level reliability first: acks and duplicates never reach the
    // protocol logic; fresh packets are acked with the cumulative point
    // plus the SACK bitmap of everything received beyond it, echoing the
    // packet's wire-departure timestamp for the sender's RTT estimator.
    if rel_on_packet(w, &pkt) == RelVerdict::Consumed {
        return;
    }
    // Collective frames (reserved kind range) belong to the NIC-resident
    // tree engine: forward/combine/ack without re-entering the GM logic.
    if is_coll_frame(pkt.kind) {
        return coll_on_packet(w, nic, pkt);
    }
    if pkt.kind != PKT_KIND_DATA {
        w.gm_mut().assemblies.malformed += 1;
        return;
    }
    let m = MsgHeader::unpack(&pkt.meta);
    let dst = GmPortId(m.dst);
    let now = knet_simcore::now(w);

    // Locate the destination port; a stale port swallows the packet (real GM
    // drops traffic to closed ports), and so does a port on another card.
    let Ok(port) = w.gm().port(dst) else {
        return;
    };
    if port.nic != nic {
        w.gm_mut().assemblies.malformed += 1;
        return;
    }
    let (node, is_kernel, blocking) = (port.node, port.mode.is_kernel(), port.blocking_notify);

    // A first chunk matches against the provided buffers and pays the match
    // processing plus the captured buffer's address translation (skipped
    // entirely by physical-address buffers); later chunks pay per chunk. A
    // chunk whose header does not fit a message is dropped before either.
    let len = pkt.payload.len() as u64;
    let begun = {
        let l = w.gm_mut();
        let queue = &mut l.ports[m.dst as usize].recv_queue;
        l.assemblies.begin_or_resume(&m, len, (nic, pkt.src), queue)
    };
    let Some((mut a, first)) = begun else {
        return;
    };
    // The bounce pool stages an unmatched message only up to its size.
    if first && a.matched.is_none() && a.total > BOUNCE_MAX {
        w.gm_mut().assemblies.malformed += 1;
        return;
    }
    let fw_cost = match (first, &a.matched) {
        (true, Some(buf)) => FW_RECV + buf.translate_cost,
        (true, None) => FW_RECV,
        (false, _) => FW_CHUNK,
    };
    let fw_done = fw_charge(w, nic, now, fw_cost);
    // A matched message scatters straight into its buffer; an unmatched one
    // is reassembled in the pre-registered bounce pool.
    let arrived = land(
        w,
        |w| &mut w.gm_mut().assemblies,
        &mut a,
        (&m, &pkt),
        fw_done,
        |buf| Some(&buf.segs),
    );
    if !arrived {
        return w.gm_mut().assemblies.put_back(&m, a);
    }

    // Completion record reaches the host event queue by DMA; the host then
    // polls it (paying the kernel extra on kernel ports), or — for sleeping
    // in-kernel consumers — is woken through the notification thread.
    let ev_dma = dma_charge(w, nic, a.last_dma_done, 64);
    let mut host_cost = HOST_EVENT_POLL;
    if is_kernel {
        host_cost += KERNEL_OP_EXTRA;
    }
    if blocking {
        host_cost += w.gm().params.blocking_notify;
    }
    let from = a.sender(w.nics(), TransportKind::Gm);
    let ev = match a.matched.take() {
        Some(buf) => TransportEvent::RecvDone {
            ctx: buf.ctx,
            tag: a.tag,
            len: a.total,
            from,
        },
        None => {
            // Unexpected: the host copies the message out of the bounce pool.
            host_cost += w.os().node(node).cpu.model.ring_copy_cost(a.total);
            TransportEvent::Unexpected {
                tag: a.tag,
                data: a.staged_bytes(&pkt.payload),
                from,
            }
        }
    };
    w.gm_mut().assemblies.finish(a);
    let done = host_completion(w, node, ev_dma, host_cost);
    let ev = W::lift_gm(GmEv::Complete { port: dst, ev });
    knet_simcore::emit_at(w, node.0, done, ev);
}

/// Close a port: drain its registration cache and explicit registrations
/// (paying one batched deregistration), purge its NIC translations, unpin
/// everything, and drop its provided buffers. Completions still on their
/// way to the port are dropped when they land. Returns when the host-side
/// teardown completes.
pub fn gm_close_port<W: GmWorld>(w: &mut W, port_id: GmPortId) -> Result<SimTime, NetError> {
    let (node, nic) = {
        let p = w.gm().port(port_id)?;
        (p.node, p.nic)
    };
    // Drain the registration cache.
    let cached = {
        let p = w.gm_mut().port_mut(port_id)?;
        p.regcache.as_mut().map(|c| c.drain()).unwrap_or_default()
    };
    // And the explicit registrations.
    let explicit: Vec<(RegKey, Option<FrameIdx>)> = {
        let p = w.gm_mut().port_mut(port_id)?;
        std::mem::take(&mut p.explicit).into_iter().collect()
    };
    let mut pages = 0u64;
    for (key, frame) in cached {
        w.nics_mut().get_mut(nic).ttable.remove(TransKey {
            asid: key.asid,
            vpn: key.vpn,
        });
        w.os_mut().node_mut(node).mem.unpin(frame).ok();
        pages += 1;
    }
    for (key, frame) in explicit {
        w.nics_mut().get_mut(nic).ttable.remove(TransKey {
            asid: key.asid,
            vpn: key.vpn,
        });
        if let Some(f) = frame {
            w.os_mut().node_mut(node).mem.unpin(f).ok();
        }
        pages += 1;
    }
    {
        // Provided buffers hold nothing of their own (the registrations
        // above are what they pinned), queued or captured mid-message.
        w.gm_mut().assemblies.abandon(|port, _| port == port_id.0);
        let p = w.gm_mut().port_mut(port_id)?;
        p.recv_queue.clear();
        p.open = false;
        p.stats.pages_deregistered += pages;
        if pages > 0 {
            p.stats.dereg_batches += 1;
        }
    }
    let cost = if pages > 0 {
        deregister_cost(pages)
    } else {
        SimTime::ZERO
    };
    Ok(cpu_charge(w, node, cost))
}

/// Withdraw the first provided receive buffer with exactly this tag —
/// still queued, or captured by a message that has not finished arriving
/// (the rest of that message is then discarded). Returns whether one was
/// withdrawn.
pub fn gm_cancel_receive_buffer<W: GmWorld>(w: &mut W, port_id: GmPortId, tag: u64) -> bool {
    let l = w.gm_mut();
    let Ok(p) = l.port_mut(port_id) else {
        return false;
    };
    take_tag(&mut p.recv_queue, tag).is_some()
        || l.assemblies.cancel_captured(port_id.0, tag).is_some()
}

/// Whether a message that has not finished arriving captured the receive
/// buffer provided on `port_id` with exactly this tag.
pub fn gm_recv_filling<W: GmWorld>(w: &W, port_id: GmPortId, tag: u64) -> bool {
    w.gm().assemblies.holds(port_id.0, tag)
}

/// The reliability window toward `remote` died: nothing more will arrive
/// from it. Messages it was still sending to ports on `local` are dropped,
/// and a buffer one had captured goes back to the head of its port's queue
/// (still registered), where the next message — or its owner's cancel —
/// finds it.
pub fn gm_peer_down<W: GmWorld>(w: &mut W, local: NicId, remote: NicId) {
    let l = w.gm_mut();
    for (port, buf) in l.assemblies.abandon(|_, link| link == (local, remote)) {
        l.ports[port as usize].recv_queue.push_front(buf);
    }
}
