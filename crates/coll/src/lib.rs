//! # knet-coll — collective groups over the channel API
//!
//! The host-side control plane of the NIC-resident collective subsystem.
//! Applications see four verbs — [`group_create`] / [`group_join`] /
//! [`group_leave`] membership plus [`channel_bcast`], [`channel_barrier`]
//! and [`channel_reduce`] — and receive completions as ordinary
//! [`TransportEvent`]s on their endpoint's completion queue
//! (`CollectiveDone` / `CollectiveRecv` / `CollectiveFailed`).
//!
//! Everything between the post and the completion lives in the NIC
//! (`knet_simnic::coll`): this layer only
//!
//! * keeps the membership roster and wires it into a **k-ary tree** (member
//!   `i`'s parent is member `(i-1)/k`; the root is the creator), pushing
//!   the per-NIC parent/children links down through [`CollWorld`] whenever
//!   the roster changes;
//! * assigns round sequence numbers and completion contexts, serialises
//!   payloads through a recycled scratch buffer, and hands the driver one
//!   collective descriptor ([`CollCmd`]) per operation;
//! * maps the NIC engine's upcalls ([`CollEvent`]) back to the initiating
//!   contexts; and
//! * resolves outstanding rounds as **typed failures** when a member's node
//!   dies ([`coll_peer_down`], riding the same `PeerDown` machinery as
//!   point-to-point channels) — a dead member never strands the survivors
//!   in a silent hang.
//!
//! Sequence discipline: barrier and reduce rounds are matched across
//! members by per-member round counters, so every member must invoke the
//! same collectives the same number of times (the usual SPMD contract).
//! Broadcast rounds are numbered by the root alone.

use std::collections::BTreeMap;

use bytes::Bytes;
use knet_core::api::deliver;
use knet_core::{DispatchWorld, Endpoint, IoVec, NetError, TransportEvent, TransportKind};
use knet_simnic::{CollCmd, CollEvent, CollOp, ReduceOp};
use knet_simos::NodeId;

/// A collective group handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u32);

// The engine's fan-in classes, mirrored for context keying (kept in sync
// with `knet_simnic::coll`; the wire encoding is the engine's business).
const CLASS_BCAST: u8 = 0;
const CLASS_BARRIER: u8 = 1;
const CLASS_REDUCE: u8 = 2;

fn class_of(op: CollOp) -> u8 {
    match op {
        CollOp::Bcast => CLASS_BCAST,
        CollOp::Barrier => CLASS_BARRIER,
        CollOp::Reduce => CLASS_REDUCE,
    }
}

/// One group member: its endpoint and its per-member round counters.
#[derive(Clone, Debug)]
struct Member {
    ep: Endpoint,
    barrier_seq: u64,
    reduce_seq: u64,
}

knet_simcore::counters! {
    /// Collective operation counters: the layer aggregate (the `coll` block
    /// of the composed world's stats tree) and, as [`GroupStats`], each
    /// group's slice of it.
    pub struct CollApiStats {
        /// Collective operations posted by members.
        pub started: u64,
        /// Contexts completed (`CollectiveDone`).
        pub completed: u64,
        /// Contexts resolved as failures (`CollectiveFailed`).
        pub failed: u64,
        /// Broadcast payloads delivered to members (`CollectiveRecv`).
        pub delivered: u64,
    }
}

/// Per-group operation counters.
pub type GroupStats = CollApiStats;

struct GroupState {
    kind: TransportKind,
    fanout: usize,
    members: Vec<Member>,
    bcast_seq: u64,
    /// Outstanding completion contexts: `(class, seq, node)` → ctx.
    /// `BTreeMap` so failure resolution drains in a deterministic order.
    pending: BTreeMap<(u8, u64, u32), u64>,
    /// Set once a member died mid-collective: the group rejects further
    /// operations until re-created.
    failed: Option<NetError>,
    stats: GroupStats,
}

impl GroupState {
    fn member(&self, ep: Endpoint) -> Option<usize> {
        self.members.iter().position(|m| m.ep == ep)
    }
    fn member_on(&self, node: NodeId) -> Option<&Member> {
        self.members.iter().find(|m| m.ep.node == node)
    }
}

/// Scratch-pool counters (the payload staging buffer).
#[derive(Clone, Copy, Default, Debug)]
pub struct CollScratchStats {
    pub uses: u64,
    pub grows: u64,
}

/// All collective-group state in the composed world.
#[derive(Default)]
pub struct CollLayer {
    groups: Vec<Option<GroupState>>,
    /// Recycled payload staging buffer (iovec gather / lane serialisation).
    scratch: Vec<u8>,
    pub scratch_stats: CollScratchStats,
    pub stats: CollApiStats,
}

impl CollLayer {
    fn group(&self, g: GroupId) -> Result<&GroupState, NetError> {
        self.groups
            .get(g.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(NetError::NotRegistered)
    }
    fn group_mut(&mut self, g: GroupId) -> Result<&mut GroupState, NetError> {
        self.groups
            .get_mut(g.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(NetError::NotRegistered)
    }

    /// Per-group counters (None once destroyed / never created).
    pub fn group_stats(&self, g: GroupId) -> Option<GroupStats> {
        self.groups
            .get(g.0 as usize)
            .and_then(|s| s.as_ref())
            .map(|s| s.stats)
    }

    /// Outstanding completion contexts across all groups (0 at quiescence
    /// on a healthy run).
    pub fn pending_count(&self) -> usize {
        self.groups.iter().flatten().map(|g| g.pending.len()).sum()
    }

    /// The group's roster as endpoints, root first.
    pub fn members(&self, g: GroupId) -> Vec<Endpoint> {
        self.group(g)
            .map(|s| s.members.iter().map(|m| m.ep).collect())
            .unwrap_or_default()
    }
}

/// World capability: collective groups over whichever driver owns the
/// endpoints. The composed world routes the tree installs and descriptor
/// posts to the owning driver's NIC.
pub trait CollWorld: DispatchWorld {
    fn coll(&self) -> &CollLayer;
    fn coll_mut(&mut self) -> &mut CollLayer;

    /// Hand a collective descriptor to `ep`'s driver (host post + firmware
    /// pickup, then NIC-to-NIC progression).
    fn coll_post(&mut self, ep: Endpoint, cmd: CollCmd) -> Result<(), NetError>;

    /// Install (or re-wire) the tree links of `group` at `ep`'s NIC.
    fn coll_install(
        &mut self,
        ep: Endpoint,
        parent: Option<Endpoint>,
        children: &[Endpoint],
        group: u32,
    );

    /// Remove the tree links of `group` at `ep`'s NIC.
    fn coll_uninstall(&mut self, ep: Endpoint, group: u32);

    /// Drop every pending NIC-side fan-in slot of `group` (failure
    /// resolution; silences the probe chains).
    fn coll_purge(&mut self, kind: TransportKind, group: u32);
}

// ------------------------------------------------------------- membership

/// Create a collective group rooted at `root` with fan-out `fanout`
/// (children per tree node). The root is member 0 and the only endpoint
/// allowed to broadcast.
pub fn group_create<W: CollWorld>(
    w: &mut W,
    root: Endpoint,
    fanout: usize,
) -> Result<GroupId, NetError> {
    if fanout == 0 {
        return Err(NetError::Unsupported);
    }
    let layer = w.coll_mut();
    let gid = GroupId(layer.groups.len() as u32);
    layer.groups.push(Some(GroupState {
        kind: root.kind,
        fanout,
        members: vec![Member {
            ep: root,
            barrier_seq: 0,
            reduce_seq: 0,
        }],
        bcast_seq: 0,
        pending: BTreeMap::new(),
        failed: None,
        stats: GroupStats::default(),
    }));
    w.coll_install(root, None, &[], gid.0);
    Ok(gid)
}

/// Add `ep` to the group and re-wire the k-ary tree. One member per node
/// (the tree routes NIC-to-NIC); joining is a control-plane operation and
/// is refused while collectives are outstanding.
pub fn group_join<W: CollWorld>(w: &mut W, g: GroupId, ep: Endpoint) -> Result<(), NetError> {
    {
        let s = w.coll_mut().group_mut(g)?;
        if let Some(e) = s.failed {
            return Err(e);
        }
        if ep.kind != s.kind {
            return Err(NetError::BadEndpoint);
        }
        if !s.pending.is_empty() {
            return Err(NetError::Unsupported);
        }
        if s.members.iter().any(|m| m.ep.node == ep.node) {
            return Err(NetError::BadEndpoint);
        }
        s.members.push(Member {
            ep,
            barrier_seq: 0,
            reduce_seq: 0,
        });
    }
    rewire(w, g);
    Ok(())
}

/// Remove `ep` from the group and re-wire. The root cannot leave (destroy
/// and re-create instead); refused while collectives are outstanding.
pub fn group_leave<W: CollWorld>(w: &mut W, g: GroupId, ep: Endpoint) -> Result<(), NetError> {
    {
        let s = w.coll_mut().group_mut(g)?;
        if let Some(e) = s.failed {
            return Err(e);
        }
        if !s.pending.is_empty() {
            return Err(NetError::Unsupported);
        }
        match s.member(ep) {
            None => return Err(NetError::BadEndpoint),
            Some(0) => return Err(NetError::Unsupported),
            Some(i) => s.members.remove(i),
        };
    }
    w.coll_uninstall(ep, g.0);
    rewire(w, g);
    Ok(())
}

/// Push the roster's k-ary tree down to every member's NIC: member `i`'s
/// parent is member `(i-1)/k`, its children are members `k*i+1 ..= k*i+k`.
fn rewire<W: CollWorld>(w: &mut W, g: GroupId) {
    let (eps, k) = {
        let s = w.coll().group(g).expect("rewire of a live group");
        (s.members.iter().map(|m| m.ep).collect::<Vec<_>>(), s.fanout)
    };
    let n = eps.len();
    let mut children: Vec<Endpoint> = Vec::with_capacity(k);
    for i in 0..n {
        let parent = if i == 0 { None } else { Some(eps[(i - 1) / k]) };
        children.clear();
        let lo = (k * i + 1).min(n);
        let hi = (k * i + k + 1).min(n);
        children.extend_from_slice(&eps[lo..hi]);
        w.coll_install(eps[i], parent, &children, g.0);
    }
}

// ------------------------------------------------------------- operations

/// Deterministic, engine-invariant context id: `class` in the top bits,
/// then the member's node, then its per-member operation sequence. Never
/// zero (class is offset by one), unique per outstanding op.
fn ctx_for(class: u8, node: u32, seq: u64) -> u64 {
    ((class as u64 + 1) << 62) | ((node as u64) << 30) | (seq & ((1 << 30) - 1))
}

fn begin_op<W: CollWorld>(
    w: &mut W,
    g: GroupId,
    ep: Endpoint,
    class: u8,
) -> Result<(u64, u64), NetError> {
    let s = w.coll_mut().group_mut(g)?;
    if let Some(e) = s.failed {
        return Err(e);
    }
    let i = s.member(ep).ok_or(NetError::BadEndpoint)?;
    let seq = match class {
        CLASS_BCAST => {
            if i != 0 {
                return Err(NetError::BadEndpoint); // only the root broadcasts
            }
            let seq = s.bcast_seq;
            s.bcast_seq += 1;
            seq
        }
        CLASS_BARRIER => {
            let seq = s.members[i].barrier_seq;
            s.members[i].barrier_seq += 1;
            seq
        }
        _ => {
            let seq = s.members[i].reduce_seq;
            s.members[i].reduce_seq += 1;
            seq
        }
    };
    // Contexts are a pure function of (class, member node, per-member seq)
    // rather than a shared counter, so every shard of a partitioned run
    // derives the exact ctx the sequential engine would have handed out.
    let ctx = ctx_for(class, ep.node.0, seq);
    s.pending.insert((class, seq, ep.node.0), ctx);
    s.stats.started += 1;
    Ok((seq, ctx))
}

fn unwind_op<W: CollWorld>(w: &mut W, g: GroupId, ep: Endpoint, class: u8, seq: u64) {
    if let Ok(s) = w.coll_mut().group_mut(g) {
        s.pending.remove(&(class, seq, ep.node.0));
        s.stats.started -= 1;
        match class {
            CLASS_BCAST => s.bcast_seq -= 1,
            CLASS_BARRIER => {
                if let Some(i) = s.member(ep) {
                    s.members[i].barrier_seq -= 1;
                }
            }
            _ => {
                if let Some(i) = s.member(ep) {
                    s.members[i].reduce_seq -= 1;
                }
            }
        }
    }
}

/// Gather `iov` from `node`'s memory into the layer's recycled scratch and
/// freeze it into the descriptor payload.
fn stage_payload<W: CollWorld>(w: &mut W, node: NodeId, iov: &IoVec) -> Result<Bytes, NetError> {
    let mut scratch = std::mem::take(&mut w.coll_mut().scratch);
    let cap = scratch.capacity();
    scratch.clear();
    let res = knet_core::read_iovec_into(w.os().node(node), iov, &mut scratch);
    let data = Bytes::copy_from_slice(&scratch);
    let layer = w.coll_mut();
    layer.scratch_stats.uses += 1;
    if scratch.capacity() > cap {
        layer.scratch_stats.grows += 1;
    }
    layer.scratch = scratch;
    res.map(|()| data)
}

/// Broadcast `iov`'s bytes from the group's root to every member. Returns
/// the root's completion context: one `CollectiveDone` fires when **every**
/// member's NIC acked its subtree (aggregated up the tree — a single event
/// regardless of group size); each non-root member sees `CollectiveRecv`.
pub fn channel_bcast<W: CollWorld>(
    w: &mut W,
    g: GroupId,
    tag: u64,
    iov: &IoVec,
) -> Result<u64, NetError> {
    if iov.total_len() == 0 {
        return Err(NetError::TooLarge); // empty broadcasts carry nothing
    }
    let root = w.coll().group(g)?.members[0].ep;
    let (seq, ctx) = begin_op(w, g, root, CLASS_BCAST)?;
    let data = match stage_payload(w, root.node, iov) {
        Ok(d) => d,
        Err(e) => {
            unwind_op(w, g, root, CLASS_BCAST, seq);
            return Err(e);
        }
    };
    w.coll_mut().stats.started += 1;
    if let Err(e) = w.coll_post(
        root,
        CollCmd::Bcast {
            group: g.0,
            seq,
            tag,
            data,
        },
    ) {
        w.coll_mut().stats.started -= 1;
        unwind_op(w, g, root, CLASS_BCAST, seq);
        return Err(e);
    }
    Ok(ctx)
}

/// Enter the barrier as member `ep`. Returns a completion context whose
/// `CollectiveDone` fires when the release wave reaches this member — i.e.
/// strictly after every member entered the same round.
pub fn channel_barrier<W: CollWorld>(w: &mut W, g: GroupId, ep: Endpoint) -> Result<u64, NetError> {
    let (seq, ctx) = begin_op(w, g, ep, CLASS_BARRIER)?;
    w.coll_mut().stats.started += 1;
    if let Err(e) = w.coll_post(ep, CollCmd::Barrier { group: g.0, seq }) {
        w.coll_mut().stats.started -= 1;
        unwind_op(w, g, ep, CLASS_BARRIER, seq);
        return Err(e);
    }
    Ok(ctx)
}

/// Contribute `lanes` (64-bit lanes, combined lane-wise with `op` in-NIC
/// at every interior node) to the group's reduce round as member `ep`.
/// Every member must contribute the same lane count. The root's
/// `CollectiveDone` carries the combined vector; other members complete
/// when their contribution is combined and forwarded.
pub fn channel_reduce<W: CollWorld>(
    w: &mut W,
    g: GroupId,
    ep: Endpoint,
    op: ReduceOp,
    lanes: &[u64],
) -> Result<u64, NetError> {
    if lanes.is_empty() {
        return Err(NetError::TooLarge);
    }
    let (seq, ctx) = begin_op(w, g, ep, CLASS_REDUCE)?;
    // Serialise through the recycled scratch (little-endian lanes).
    let data = {
        let mut scratch = std::mem::take(&mut w.coll_mut().scratch);
        let cap = scratch.capacity();
        scratch.clear();
        for l in lanes {
            scratch.extend_from_slice(&l.to_le_bytes());
        }
        let data = Bytes::copy_from_slice(&scratch);
        let layer = w.coll_mut();
        layer.scratch_stats.uses += 1;
        if scratch.capacity() > cap {
            layer.scratch_stats.grows += 1;
        }
        layer.scratch = scratch;
        data
    };
    w.coll_mut().stats.started += 1;
    if let Err(e) = w.coll_post(
        ep,
        CollCmd::Reduce {
            group: g.0,
            seq,
            op,
            data,
        },
    ) {
        w.coll_mut().stats.started -= 1;
        unwind_op(w, g, ep, CLASS_REDUCE, seq);
        return Err(e);
    }
    Ok(ctx)
}

// ------------------------------------------------------------- upcalls

/// Map a NIC tree-engine upcall at `node` back to channel-level events.
/// Called by the composed world's `coll_event` implementation.
pub fn on_nic_event<W: CollWorld>(w: &mut W, kind: TransportKind, node: NodeId, ev: CollEvent) {
    match ev {
        CollEvent::RootDone {
            group,
            op,
            seq,
            data,
            ..
        } => complete(w, kind, node, group, class_of(op), seq, data),
        CollEvent::Released { group, seq } => {
            complete(w, kind, node, group, CLASS_BARRIER, seq, Bytes::new())
        }
        CollEvent::Flushed { group, seq } => {
            complete(w, kind, node, group, CLASS_REDUCE, seq, Bytes::new())
        }
        CollEvent::Deliver {
            group, tag, data, ..
        } => {
            let Some(ep) = lookup_member(w, kind, group, node) else {
                return;
            };
            {
                let layer = w.coll_mut();
                layer.stats.delivered += 1;
                if let Ok(s) = layer.group_mut(GroupId(group)) {
                    s.stats.delivered += 1;
                }
            }
            deliver(w, ep, TransportEvent::CollectiveRecv { group, tag, data });
        }
    }
}

fn lookup_member<W: CollWorld>(
    w: &W,
    kind: TransportKind,
    group: u32,
    node: NodeId,
) -> Option<Endpoint> {
    let s = w.coll().group(GroupId(group)).ok()?;
    if s.kind != kind {
        return None;
    }
    s.member_on(node).map(|m| m.ep)
}

fn complete<W: CollWorld>(
    w: &mut W,
    kind: TransportKind,
    node: NodeId,
    group: u32,
    class: u8,
    seq: u64,
    data: Bytes,
) {
    let (ep, ctx) = {
        let Some(ep) = lookup_member(w, kind, group, node) else {
            return;
        };
        let layer = w.coll_mut();
        let Ok(s) = layer.group_mut(GroupId(group)) else {
            return;
        };
        let Some(ctx) = s.pending.remove(&(class, seq, node.0)) else {
            return; // already resolved (e.g. as a failure)
        };
        s.stats.completed += 1;
        layer.stats.completed += 1;
        (ep, ctx)
    };
    deliver(w, ep, TransportEvent::CollectiveDone { ctx, group, data });
}

// ------------------------------------------------------- failure handling

/// A node died (the reliability window of some link toward it exhausted its
/// retry budget, or it was killed outright): resolve every outstanding
/// collective in every group `remote_node` belonged to as
/// `CollectiveFailed` for all surviving members, and poison those groups
/// against further operations. Rides the same notification as channel
/// `PeerDown` — the composed world calls both from `nic_link_dead`.
pub fn coll_peer_down<W: CollWorld>(w: &mut W, kind: TransportKind, remote_node: NodeId) {
    let mut gid = 0u32;
    loop {
        let group_count = w.coll().groups.len() as u32;
        if gid >= group_count {
            break;
        }
        let g = GroupId(gid);
        gid += 1;
        let hit = w.coll().groups[g.0 as usize].as_ref().is_some_and(|s| {
            s.kind == kind && s.failed.is_none() && s.member_on(remote_node).is_some()
        });
        if !hit {
            continue;
        }
        // Poison first so nothing re-enters, then silence the NIC engines
        // (pending fan-in slots + probe chains), then fail the host-side
        // contexts of every *surviving* member.
        let drained: Vec<(u8, u64, u32, u64)> = {
            let s = w.coll_mut().group_mut(g).expect("checked above");
            s.failed = Some(NetError::PeerUnreachable);
            let drained = s
                .pending
                .iter()
                .map(|(&(c, seq, n), &ctx)| (c, seq, n, ctx))
                .collect();
            s.pending.clear();
            drained
        };
        w.coll_purge(kind, g.0);
        for (_, _, node_raw, ctx) in drained {
            let node = NodeId(node_raw);
            if node == remote_node {
                continue; // the casualty gets no event — it is gone
            }
            let Some(ep) = lookup_member(w, kind, g.0, node) else {
                continue;
            };
            {
                let layer = w.coll_mut();
                layer.stats.failed += 1;
                if let Ok(s) = layer.group_mut(g) {
                    s.stats.failed += 1;
                }
            }
            deliver(
                w,
                ep,
                TransportEvent::CollectiveFailed {
                    ctx,
                    group: g.0,
                    error: NetError::PeerUnreachable,
                },
            );
        }
    }
}
