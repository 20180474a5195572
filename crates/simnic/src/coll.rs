//! NIC-resident collectives: k-ary fan-out/fan-in trees at the firmware
//! seam.
//!
//! The paper's channel API is strictly point-to-point, but the workloads it
//! targets are dominated by collective patterns. Following Yu, Buntinas,
//! Graham & Panda (cs/0402027), the tree progression lives *in the NIC*:
//! once the root's host posts a collective descriptor, every hop — payload
//! forwarding, barrier contribution counting, reduce combining — happens at
//! the firmware layer without re-entering the host driver. Contributions
//! and acknowledgements aggregate up the tree, so the root observes exactly
//! one completion event per collective regardless of group size.
//!
//! Mechanics:
//!
//! * A **tree slot** per `(proto, group, nic)` records the NIC's parent and
//!   children — installed by the host control plane (`knet_coll`) when the
//!   group is created or re-wired.
//! * Collective frames are ordinary [`Packet`]s with a reserved kind range
//!   (`0xC0..`) riding the per-link selective-repeat windows
//!   ([`crate::rel`]): loss, reordering, and duplication are already
//!   handled below this layer, so the tree state machine only ever sees
//!   each frame once.
//! * **Broadcast** fans payload chunks down; each NIC reassembles, forwards
//!   to its children, DMAs the payload to its host, and sends one
//!   aggregated ack up once all of its subtree acked.
//! * **Barrier** fans contribution markers up; the root releases the tree
//!   with a downward wave.
//! * **Reduce** combines fixed-width `u64` lanes in-NIC at every interior
//!   node ([`combine_lanes`]) over the same chunked payload path,
//!   allocation-free via recycled per-group scratch buffers.
//! * A **probe timer** re-arms every [`PROBE_AFTER`] while a fan-in slot is
//!   incomplete and sends tiny sequenced probe frames toward the silent
//!   side; a dead member exhausts the probe's retry budget, which surfaces
//!   as `nic_link_dead` → `PeerDown` → `CollectiveFailed` for every
//!   survivor (no silent hang).

use std::collections::BTreeMap;

use bytes::Bytes;
use knet_simcore::SimTime;

use crate::layer::{dma_charge, fw_charge, NicEv, NicWorld};
use crate::packet::{NicId, Packet, Proto};
use crate::rel::rel_send;

// ------------------------------------------------------------- wire frames

/// Broadcast payload chunk travelling down the tree.
pub const COLL_KIND_DATA: u8 = 0xC1;
/// Fan-in frame travelling up the tree: a barrier contribution, a reduce
/// lane chunk, or a broadcast subtree ack (distinguished by the class word).
pub const COLL_KIND_CONTRIB: u8 = 0xC2;
/// Barrier release wave travelling down the tree.
pub const COLL_KIND_RELEASE: u8 = 0xC3;
/// Liveness probe toward a silent subtree (payload-free; its only job is to
/// exercise the reliability window of a possibly-dead link).
pub const COLL_KIND_PROBE: u8 = 0xC4;

/// Is this packet kind a collective frame? Drivers branch on this *before*
/// their own kind dispatch and hand the packet straight to
/// [`coll_on_packet`] — collective frames never touch driver match logic.
pub fn is_coll_frame(kind: u8) -> bool {
    kind & 0xC0 == 0xC0
}

const CLASS_BCAST: u8 = 0;
const CLASS_BARRIER: u8 = 1;
const CLASS_REDUCE: u8 = 2;

/// Which collective completed at the root (host-facing view of the class).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollOp {
    Bcast,
    Barrier,
    Reduce,
}

/// The commutative combine applied lane-wise (64-bit lanes) by interior
/// NICs during a reduce. Small and closed by design: every op must be
/// commutative *and* associative, so tree shape cannot change the result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Wrapping sum.
    Sum,
    Min,
    Max,
    BitAnd,
    BitOr,
    BitXor,
}

impl ReduceOp {
    pub fn code(self) -> u8 {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Min => 1,
            ReduceOp::Max => 2,
            ReduceOp::BitAnd => 3,
            ReduceOp::BitOr => 4,
            ReduceOp::BitXor => 5,
        }
    }

    pub fn from_code(c: u8) -> ReduceOp {
        match c {
            0 => ReduceOp::Sum,
            1 => ReduceOp::Min,
            2 => ReduceOp::Max,
            3 => ReduceOp::BitAnd,
            4 => ReduceOp::BitOr,
            _ => ReduceOp::BitXor,
        }
    }

    /// The identity element: combining with it is a no-op, so accumulators
    /// can be pre-filled before the first contribution arrives.
    pub fn identity(self) -> u64 {
        match self {
            ReduceOp::Sum | ReduceOp::BitOr | ReduceOp::BitXor | ReduceOp::Max => 0,
            ReduceOp::Min => u64::MAX,
            ReduceOp::BitAnd => u64::MAX,
        }
    }

    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::BitAnd => a & b,
            ReduceOp::BitOr => a | b,
            ReduceOp::BitXor => a ^ b,
        }
    }
}

/// Combine `chunk` into `acc[offset..]` lane-wise (64-bit little-endian
/// lanes), in place and allocation-free — the firmware combine step.
pub fn combine_lanes(op: ReduceOp, acc: &mut [u8], offset: usize, chunk: &[u8]) {
    debug_assert!(offset.is_multiple_of(8) && chunk.len().is_multiple_of(8));
    let dst = &mut acc[offset..offset + chunk.len()];
    for (d, s) in dst.chunks_exact_mut(8).zip(chunk.chunks_exact(8)) {
        let a = u64::from_le_bytes(d.try_into().unwrap());
        let b = u64::from_le_bytes(s.try_into().unwrap());
        d.copy_from_slice(&op.combine(a, b).to_le_bytes());
    }
}

// ------------------------------------------------------------ host seam

/// A collective descriptor the host driver hands to the firmware — posted
/// once at the initiating member; everything after is NIC-to-NIC.
#[derive(Clone, Debug)]
pub enum CollCmd {
    /// Fan `data` out from the root to every member.
    Bcast {
        group: u32,
        seq: u64,
        tag: u64,
        data: Bytes,
    },
    /// Contribute this member to a barrier round.
    Barrier { group: u32, seq: u64 },
    /// Contribute this member's lane vector to a reduce round.
    Reduce {
        group: u32,
        seq: u64,
        op: ReduceOp,
        data: Bytes,
    },
}

/// Upcalls from the tree state machine to the host (via
/// [`NicWorld::coll_event`]); the composed world maps them to channel-level
/// `TransportEvent`s.
#[derive(Clone, Debug)]
pub enum CollEvent {
    /// The root's collective fully completed: every member delivered /
    /// contributed, aggregated up the tree into this single event. For a
    /// reduce, `data` carries the combined lane vector.
    RootDone {
        group: u32,
        op: CollOp,
        seq: u64,
        data: Bytes,
    },
    /// A broadcast payload arrived at this member (reassembled in NIC
    /// SRAM, DMAed to the host).
    Deliver {
        group: u32,
        seq: u64,
        tag: u64,
        data: Bytes,
    },
    /// The barrier release wave reached this member.
    Released { group: u32, seq: u64 },
    /// This member's reduce contribution was combined and forwarded toward
    /// the root (local completion; the global result surfaces at the root).
    Flushed { group: u32, seq: u64 },
}

// ------------------------------------------------------------- parameters
//
// Costs and timers of the collective engine: one calibration, so constants.

/// Firmware cost to process/forward one collective frame.
pub const FW_FORWARD: SimTime = SimTime::from_nanos(300);
/// Additional firmware cost to combine one reduce chunk in-NIC.
pub const FW_COMBINE: SimTime = SimTime::from_nanos(200);
/// On-wire header bytes per collective frame.
pub const HEADER_BYTES: u64 = 16;
/// Re-arm period of the liveness probe while a fan-in slot is
/// incomplete. Probes are sequenced frames: a dead subtree exhausts
/// their retry budget and surfaces as `nic_link_dead`.
pub const PROBE_AFTER: SimTime = SimTime::from_micros(800);

knet_simcore::counters! {
    /// Counters exposed to figures, benches, and the allocation tests.
    pub struct CollNicStats {
        /// Collective frames processed by NIC firmware.
        pub frames: u64,
        /// Frames sent along tree edges (down- and upward).
        pub forwards: u64,
        /// Reduce chunks combined in-NIC.
        pub combines: u64,
        /// Payloads DMAed to a member host.
        pub deliveries: u64,
        /// Collectives fully aggregated at their root.
        pub root_completions: u64,
        /// Liveness probes sent toward silent subtrees.
        pub probes: u64,
        /// Scratch buffers borrowed from the recycled pools.
        pub buf_uses: u64,
        /// Times a pooled buffer had to grow (flat in steady state). Every
        /// shard world warms its own pools, so the merge is the maximum.
        pub buf_grows: u64 = HighWater,
        /// Pending fan-in slots dropped by a failure purge.
        pub purged: u64,
    }
}

// ------------------------------------------------------------- tree state

fn pcode(p: Proto) -> u8 {
    match p {
        Proto::Gm => 0,
        Proto::Mx => 1,
        Proto::Raw => 2,
    }
}

type TreeKey = (u8, u32, u32); // (proto, group, nic)
/// A pending collective slot: `(proto, group, nic, class, seq)`. Public so
/// the composed world's typed event enum can carry probe timers for it.
pub type PendKey = (u8, u32, u32, u8, u64);

struct Tree {
    parent: Option<NicId>,
    children: Vec<NicId>,
}

/// One in-progress collective round at one NIC.
struct Pending {
    class: u8,
    /// Children whose full contribution/ack is required.
    need: u32,
    /// Children complete so far.
    done: u32,
    /// Local side complete (host contributed / payload reassembled).
    own: bool,
    /// Barrier only: contribution forwarded up, awaiting the release wave.
    releasing: bool,
    tag: u64,
    op: u8,
    /// Payload width in bytes (bcast payload / reduce lane vector; 0 for a
    /// barrier).
    total: u64,
    /// Bcast reassembly progress.
    got: u64,
    /// Recycled: bcast reassembly buffer or reduce accumulator.
    buf: Vec<u8>,
    /// Recycled: per-child progress — `(nic, bytes)`; done-markers store
    /// `u64::MAX`.
    prog: Vec<(u32, u64)>,
}

impl Pending {
    fn child_complete(&self, nic: u32) -> bool {
        self.prog.iter().any(|&(n, b)| {
            n == nic
                && if self.class == CLASS_REDUCE {
                    b >= self.total
                } else {
                    b == u64::MAX
                }
        })
    }
}

/// All collective tree state on the fabric (lives in
/// [`crate::layer::NicLayer`], like the reliability windows). `BTreeMap`s
/// keep every iteration order deterministic — a requirement for the
/// fixed-seed chaos fingerprints.
#[derive(Default)]
pub struct CollState {
    trees: BTreeMap<TreeKey, Tree>,
    pending: BTreeMap<PendKey, Pending>,
    free_bufs: Vec<Vec<u8>>,
    free_prog: Vec<Vec<(u32, u64)>>,
    /// Recycled per-operation target list (children / probe victims).
    scratch_targets: Vec<NicId>,
    pub stats: CollNicStats,
}

impl CollState {
    /// Install (or re-wire) the tree links of `group` at `nic`. Reuses the
    /// existing slot's child vector when re-wiring.
    pub fn install_tree(
        &mut self,
        proto: Proto,
        group: u32,
        nic: NicId,
        parent: Option<NicId>,
        children: &[NicId],
    ) {
        let slot = self
            .trees
            .entry((pcode(proto), group, nic.0))
            .or_insert_with(|| Tree {
                parent: None,
                children: Vec::new(),
            });
        slot.parent = parent;
        slot.children.clear();
        slot.children.extend_from_slice(children);
    }

    /// Remove the tree links of `group` at `nic` (member left / group
    /// destroyed).
    pub fn uninstall_tree(&mut self, proto: Proto, group: u32, nic: NicId) {
        self.trees.remove(&(pcode(proto), group, nic.0));
    }

    /// Drop every pending fan-in slot of `group` (failure resolution: the
    /// survivors' host-side contexts fail typed; nothing may keep probing).
    pub fn purge_group(&mut self, proto: Proto, group: u32) {
        let p = pcode(proto);
        let lo = (p, group, 0u32, 0u8, 0u64);
        let hi = (p, group, u32::MAX, u8::MAX, u64::MAX);
        let keys: Vec<PendKey> = self.pending.range(lo..=hi).map(|(k, _)| *k).collect();
        for k in keys {
            if let Some(pend) = self.pending.remove(&k) {
                self.recycle(pend);
                self.stats.purged += 1;
            }
        }
    }

    /// Outstanding fan-in slots across the fabric (0 at quiescence on a
    /// healthy run — the stall-free assertion of the chaos suite).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Fold the installed tree topology of `group` into a fingerprint
    /// (order-sensitive over the deterministic BTreeMap iteration) — part
    /// of the chaos determinism fingerprint.
    pub fn tree_fingerprint(&self, proto: Proto, group: u32) -> u64 {
        let p = pcode(proto);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for (k, t) in self.trees.range((p, group, 0)..=(p, group, u32::MAX)) {
            mix(k.2 as u64);
            mix(t.parent.map(|n| n.0 as u64 + 1).unwrap_or(0));
            for c in &t.children {
                mix(c.0 as u64 + 0x1_0000);
            }
        }
        h
    }

    fn recycle(&mut self, p: Pending) {
        self.free_bufs.push(p.buf);
        self.free_prog.push(p.prog);
    }

    /// Get-or-create the pending slot; returns whether it was created.
    /// `need` is the child count from the tree slot at creation time.
    fn ensure(&mut self, key: PendKey, class: u8, need: u32) -> bool {
        if self.pending.contains_key(&key) {
            return false;
        }
        let mut buf = self.free_bufs.pop().unwrap_or_default();
        let mut prog = self.free_prog.pop().unwrap_or_default();
        buf.clear();
        prog.clear();
        self.stats.buf_uses += 1;
        self.pending.insert(
            key,
            Pending {
                class,
                need,
                done: 0,
                own: false,
                releasing: false,
                tag: 0,
                op: 0,
                total: 0,
                got: 0,
                buf,
                prog,
            },
        );
        true
    }

    /// Size `buf` to `total` bytes, tracking pool growth, and fill it with
    /// `fill`.
    fn size_buf(&mut self, key: &PendKey, total: u64, fill: u8) {
        let p = self.pending.get_mut(key).unwrap();
        p.total = total;
        if (p.buf.capacity() as u64) < total {
            self.stats.buf_grows += 1;
        }
        p.buf.clear();
        p.buf.resize(total as usize, fill);
        p.prog.clear();
    }
}

// -------------------------------------------------------------- wire side

#[allow(clippy::too_many_arguments)] // wire-frame fields, one per header word
fn frame(
    proto: Proto,
    src: NicId,
    dst: NicId,
    kind: u8,
    class: u8,
    group: u32,
    seq: u64,
    m2: u64,
    offset: u64,
    total: u64,
    payload: Bytes,
) -> Packet {
    debug_assert!(total <= u32::MAX as u64);
    let meta = [
        group as u64 | (class as u64) << 32,
        seq,
        m2,
        offset << 32 | total,
    ];
    Packet::new(src, dst, proto, kind, meta, payload, HEADER_BYTES)
}

/// Send one payload (possibly empty) to `dst`, chunked at the NIC's MTU
/// (rounded to whole lanes so reduce chunks stay lane-aligned). Each chunk
/// charges firmware forwarding time and rides the reliability window.
#[allow(clippy::too_many_arguments)]
fn send_edge<W: NicWorld>(
    w: &mut W,
    proto: Proto,
    nic: NicId,
    dst: NicId,
    kind: u8,
    class: u8,
    group: u32,
    seq: u64,
    m2: u64,
    data: &Bytes,
    ready: SimTime,
) {
    let mtu = w.nics().get(nic).model.mtu & !7;
    let total = data.len() as u64;
    if total == 0 {
        let t = fw_charge(w, nic, ready, FW_FORWARD);
        let pkt = frame(
            proto,
            nic,
            dst,
            kind,
            class,
            group,
            seq,
            m2,
            0,
            0,
            Bytes::new(),
        );
        w.nics_mut().coll.stats.forwards += 1;
        rel_send(w, pkt, t);
        return;
    }
    let mut off = 0u64;
    while off < total {
        let end = (off + mtu).min(total);
        let t = fw_charge(w, nic, ready, FW_FORWARD);
        let pkt = frame(
            proto,
            nic,
            dst,
            kind,
            class,
            group,
            seq,
            m2,
            off,
            total,
            data.slice(off as usize..end as usize),
        );
        w.nics_mut().coll.stats.forwards += 1;
        rel_send(w, pkt, t);
        off = end;
    }
}

/// Take the child list of `(proto, group, nic)` into the recycled target
/// scratch; the caller must hand it back via [`put_targets`].
fn take_children<W: NicWorld>(w: &mut W, proto: Proto, group: u32, nic: NicId) -> Vec<NicId> {
    let st = &mut w.nics_mut().coll;
    let mut t = std::mem::take(&mut st.scratch_targets);
    t.clear();
    if let Some(tree) = st.trees.get(&(pcode(proto), group, nic.0)) {
        t.extend_from_slice(&tree.children);
    }
    t
}

fn put_targets<W: NicWorld>(w: &mut W, t: Vec<NicId>) {
    w.nics_mut().coll.scratch_targets = t;
}

fn parent_of<W: NicWorld>(w: &W, proto: Proto, group: u32, nic: NicId) -> Option<NicId> {
    w.nics()
        .coll
        .trees
        .get(&(pcode(proto), group, nic.0))
        .and_then(|t| t.parent)
}

// ----------------------------------------------------------- host entries

/// The driver posted a collective descriptor at `nic` (host and firmware
/// posting costs already charged by the driver; `ready` is when the
/// firmware may start). Everything from here on is NIC-resident.
pub fn coll_inject<W: NicWorld>(w: &mut W, proto: Proto, nic: NicId, cmd: CollCmd, ready: SimTime) {
    match cmd {
        CollCmd::Bcast {
            group,
            seq,
            tag,
            data,
        } => {
            let key = (pcode(proto), group, nic.0, CLASS_BCAST, seq);
            let need = child_count(w, proto, group, nic);
            let created = {
                let st = &mut w.nics_mut().coll;
                let created = st.ensure(key, CLASS_BCAST, need);
                let p = st.pending.get_mut(&key).unwrap();
                p.own = true;
                p.tag = tag;
                p.total = data.len() as u64;
                created
            };
            if created && need > 0 {
                arm_probe(w, key);
            }
            let targets = take_children(w, proto, group, nic);
            for &child in &targets {
                send_edge(
                    w,
                    proto,
                    nic,
                    child,
                    COLL_KIND_DATA,
                    CLASS_BCAST,
                    group,
                    seq,
                    tag,
                    &data,
                    ready,
                );
            }
            put_targets(w, targets);
            try_advance(w, proto, nic, key, ready);
        }
        CollCmd::Barrier { group, seq } => {
            let key = (pcode(proto), group, nic.0, CLASS_BARRIER, seq);
            let need = child_count(w, proto, group, nic);
            let created = w.nics_mut().coll.ensure(key, CLASS_BARRIER, need);
            if created && need > 0 {
                arm_probe(w, key);
            }
            w.nics_mut().coll.pending.get_mut(&key).unwrap().own = true;
            try_advance(w, proto, nic, key, ready);
        }
        CollCmd::Reduce {
            group,
            seq,
            op,
            data,
        } => {
            let key = (pcode(proto), group, nic.0, CLASS_REDUCE, seq);
            let need = child_count(w, proto, group, nic);
            let t = fw_charge(w, nic, ready, FW_COMBINE);
            let created = {
                let st = &mut w.nics_mut().coll;
                let created = st.ensure(key, CLASS_REDUCE, need);
                if created {
                    st.size_buf(&key, data.len() as u64, 0);
                    let p = st.pending.get_mut(&key).unwrap();
                    p.op = op.code();
                    fill_identity(&mut p.buf, op);
                }
                let p = st.pending.get_mut(&key).unwrap();
                debug_assert_eq!(p.total, data.len() as u64, "reduce width mismatch");
                combine_lanes(op, &mut p.buf, 0, &data);
                st.stats.combines += 1;
                p.own = true;
                created
            };
            if created && need > 0 {
                arm_probe(w, key);
            }
            try_advance(w, proto, nic, key, t);
        }
    }
}

fn fill_identity(buf: &mut [u8], op: ReduceOp) {
    let id = op.identity().to_le_bytes();
    for lane in buf.chunks_exact_mut(8) {
        lane.copy_from_slice(&id);
    }
}

fn child_count<W: NicWorld>(w: &W, proto: Proto, group: u32, nic: NicId) -> u32 {
    w.nics()
        .coll
        .trees
        .get(&(pcode(proto), group, nic.0))
        .map(|t| t.children.len() as u32)
        .unwrap_or(0)
}

// ----------------------------------------------------------- packet entry

/// A collective frame arrived at `nic` (already filtered through the
/// reliability window by the driver — exactly-once from here). Drivers call
/// this for any kind in the reserved range and never look inside.
pub fn coll_on_packet<W: NicWorld>(w: &mut W, nic: NicId, pkt: Packet) {
    debug_assert!(is_coll_frame(pkt.kind));
    let now = knet_simcore::now(w);
    let proto = pkt.proto;
    let group = (pkt.meta[0] & 0xFFFF_FFFF) as u32;
    let class = (pkt.meta[0] >> 32) as u8;
    let seq = pkt.meta[1];
    let m2 = pkt.meta[2];
    let offset = pkt.meta[3] >> 32;
    let total = pkt.meta[3] & 0xFFFF_FFFF;
    w.nics_mut().coll.stats.frames += 1;
    if !w
        .nics()
        .coll
        .trees
        .contains_key(&(pcode(proto), group, nic.0))
    {
        return; // stale frame for a group no longer installed here
    }
    let fw_done = fw_charge(w, nic, now, FW_FORWARD);
    match pkt.kind {
        COLL_KIND_PROBE => {} // its work (exercising the link) is done
        COLL_KIND_RELEASE => release_arrival(w, proto, nic, group, seq, fw_done),
        COLL_KIND_DATA => data_arrival(
            w,
            proto,
            nic,
            group,
            seq,
            m2,
            offset,
            total,
            pkt.payload,
            fw_done,
        ),
        COLL_KIND_CONTRIB => contrib_arrival(
            w,
            proto,
            nic,
            group,
            class,
            seq,
            m2,
            offset,
            total,
            pkt.src,
            pkt.payload,
            fw_done,
        ),
        k => debug_assert!(false, "unknown collective frame kind {k:#x}"),
    }
}

/// Broadcast chunk travelling down: reassemble; on completion forward to
/// children, DMA to the host, and (leaf) ack upward.
#[allow(clippy::too_many_arguments)]
fn data_arrival<W: NicWorld>(
    w: &mut W,
    proto: Proto,
    nic: NicId,
    group: u32,
    seq: u64,
    tag: u64,
    offset: u64,
    total: u64,
    payload: Bytes,
    ready: SimTime,
) {
    let key = (pcode(proto), group, nic.0, CLASS_BCAST, seq);
    let need = child_count(w, proto, group, nic);
    let (created, completed) = {
        let st = &mut w.nics_mut().coll;
        let created = st.ensure(key, CLASS_BCAST, need);
        if created {
            st.size_buf(&key, total, 0);
            let p = st.pending.get_mut(&key).unwrap();
            p.tag = tag;
        }
        let p = st.pending.get_mut(&key).unwrap();
        debug_assert_eq!(p.total, total);
        let (o, e) = (offset as usize, offset as usize + payload.len());
        p.buf[o..e].copy_from_slice(&payload);
        p.got += payload.len() as u64;
        let completed = if p.got == p.total && !p.own {
            p.own = true;
            Some((Bytes::copy_from_slice(&p.buf[..p.total as usize]), p.tag))
        } else {
            None
        };
        (created, completed)
    };
    if created && need > 0 {
        arm_probe(w, key);
    }
    if let Some((data, tag)) = completed {
        // Forward down the tree — firmware only, the host is not involved.
        let targets = take_children(w, proto, group, nic);
        for &child in &targets {
            send_edge(
                w,
                proto,
                nic,
                child,
                COLL_KIND_DATA,
                CLASS_BCAST,
                group,
                seq,
                tag,
                &data,
                ready,
            );
        }
        put_targets(w, targets);
        // DMA the payload to this member's host.
        w.nics_mut().coll.stats.deliveries += 1;
        let d = dma_charge(w, nic, ready, 64 + data.len() as u64);
        let ev = CollEvent::Deliver {
            group,
            seq,
            tag,
            data,
        };
        let node = w.nics().get(nic).node.0;
        let ev = W::lift_nic(NicEv::Coll { proto, nic, ev });
        knet_simcore::emit_at(w, node, d, ev);
        try_advance(w, proto, nic, key, ready);
    }
}

/// Fan-in frame travelling up: barrier/bcast done-marker or reduce chunk
/// from child `src`.
#[allow(clippy::too_many_arguments)]
fn contrib_arrival<W: NicWorld>(
    w: &mut W,
    proto: Proto,
    nic: NicId,
    group: u32,
    class: u8,
    seq: u64,
    m2: u64,
    offset: u64,
    total: u64,
    src: NicId,
    payload: Bytes,
    ready: SimTime,
) {
    let key = (pcode(proto), group, nic.0, class, seq);
    let need = child_count(w, proto, group, nic);
    let mut ready = ready;
    let created = match class {
        CLASS_BCAST => {
            // Subtree ack: the slot must exist (we fanned the payload out
            // from it); a stale ack after a purge is dropped.
            let st = &mut w.nics_mut().coll;
            let Some(p) = st.pending.get_mut(&key) else {
                return;
            };
            if !p.child_complete(src.0) {
                p.prog.push((src.0, u64::MAX));
                p.done += 1;
            }
            false
        }
        CLASS_BARRIER => {
            let st = &mut w.nics_mut().coll;
            let created = st.ensure(key, CLASS_BARRIER, need);
            let p = st.pending.get_mut(&key).unwrap();
            if !p.child_complete(src.0) {
                p.prog.push((src.0, u64::MAX));
                p.done += 1;
            }
            created
        }
        CLASS_REDUCE => {
            ready = fw_charge(w, nic, ready, FW_COMBINE);
            let st = &mut w.nics_mut().coll;
            let created = st.ensure(key, CLASS_REDUCE, need);
            if created {
                st.size_buf(&key, total, 0);
                let p = st.pending.get_mut(&key).unwrap();
                p.op = m2 as u8;
                fill_identity(&mut p.buf, ReduceOp::from_code(m2 as u8));
            }
            let p = st.pending.get_mut(&key).unwrap();
            debug_assert_eq!(p.total, total, "reduce width mismatch in the tree");
            combine_lanes(
                ReduceOp::from_code(p.op),
                &mut p.buf,
                offset as usize,
                &payload,
            );
            st.stats.combines += 1;
            let got = payload.len() as u64;
            match p.prog.iter_mut().find(|(n, _)| *n == src.0) {
                Some(e) => e.1 += got,
                None => p.prog.push((src.0, got)),
            }
            if p.child_complete(src.0) {
                p.done += 1;
            }
            created
        }
        _ => {
            debug_assert!(false, "unknown collective class {class}");
            false
        }
    };
    if created && need > 0 {
        arm_probe(w, key);
    }
    try_advance(w, proto, nic, key, ready);
}

/// Barrier release travelling down: forward to children, notify the host,
/// retire the slot.
fn release_arrival<W: NicWorld>(
    w: &mut W,
    proto: Proto,
    nic: NicId,
    group: u32,
    seq: u64,
    ready: SimTime,
) {
    let key = (pcode(proto), group, nic.0, CLASS_BARRIER, seq);
    let existed = {
        let st = &mut w.nics_mut().coll;
        match st.pending.remove(&key) {
            Some(p) => {
                st.recycle(p);
                true
            }
            None => false,
        }
    };
    if !existed {
        return; // stale release after a purge
    }
    let targets = take_children(w, proto, group, nic);
    for &child in &targets {
        send_edge(
            w,
            proto,
            nic,
            child,
            COLL_KIND_RELEASE,
            CLASS_BARRIER,
            group,
            seq,
            0,
            &Bytes::new(),
            ready,
        );
    }
    put_targets(w, targets);
    let d = dma_charge(w, nic, ready, 64);
    let ev = CollEvent::Released { group, seq };
    let node = w.nics().get(nic).node.0;
    let ev = W::lift_nic(NicEv::Coll { proto, nic, ev });
    knet_simcore::emit_at(w, node, d, ev);
}

// ------------------------------------------------------------ progression

enum Adv {
    BarrierRoot,
    BarrierUp(NicId),
    ReduceRoot(Bytes),
    ReduceUp(NicId, Bytes, u8),
    BcastRoot,
    BcastUp(NicId),
}

/// If the slot's local side and every child are complete, take the next
/// step: aggregate upward, or complete at the root.
fn try_advance<W: NicWorld>(w: &mut W, proto: Proto, nic: NicId, key: PendKey, ready: SimTime) {
    let group = key.1;
    let seq = key.4;
    let parent = parent_of(w, proto, group, nic);
    let adv = {
        let st = &mut w.nics_mut().coll;
        let Some(p) = st.pending.get_mut(&key) else {
            return;
        };
        if !p.own || p.done < p.need || p.releasing {
            return;
        }
        match (p.class, parent) {
            (CLASS_BARRIER, None) => Adv::BarrierRoot,
            (CLASS_BARRIER, Some(up)) => {
                p.releasing = true;
                Adv::BarrierUp(up)
            }
            (CLASS_REDUCE, None) => Adv::ReduceRoot(Bytes::copy_from_slice(&p.buf)),
            (CLASS_REDUCE, Some(up)) => Adv::ReduceUp(up, Bytes::copy_from_slice(&p.buf), p.op),
            (_, None) => Adv::BcastRoot,
            (_, Some(up)) => Adv::BcastUp(up),
        }
    };
    match adv {
        Adv::BarrierUp(up) => {
            // Slot stays (releasing): the probe chain now watches the
            // parent for the release wave instead of the children.
            send_edge(
                w,
                proto,
                nic,
                up,
                COLL_KIND_CONTRIB,
                CLASS_BARRIER,
                group,
                seq,
                0,
                &Bytes::new(),
                ready,
            );
        }
        Adv::BarrierRoot => {
            retire(w, key);
            let targets = take_children(w, proto, group, nic);
            for &child in &targets {
                send_edge(
                    w,
                    proto,
                    nic,
                    child,
                    COLL_KIND_RELEASE,
                    CLASS_BARRIER,
                    group,
                    seq,
                    0,
                    &Bytes::new(),
                    ready,
                );
            }
            put_targets(w, targets);
            root_done(
                w,
                proto,
                nic,
                group,
                CollOp::Barrier,
                seq,
                Bytes::new(),
                ready,
            );
        }
        Adv::ReduceUp(up, data, op) => {
            retire(w, key);
            send_edge(
                w,
                proto,
                nic,
                up,
                COLL_KIND_CONTRIB,
                CLASS_REDUCE,
                group,
                seq,
                op as u64,
                &data,
                ready,
            );
            // Local completion: the contribution is combined and on its way.
            let d = dma_charge(w, nic, ready, 64);
            let ev = CollEvent::Flushed { group, seq };
            let node = w.nics().get(nic).node.0;
            let ev = W::lift_nic(NicEv::Coll { proto, nic, ev });
            knet_simcore::emit_at(w, node, d, ev);
        }
        Adv::ReduceRoot(data) => {
            retire(w, key);
            root_done(w, proto, nic, group, CollOp::Reduce, seq, data, ready);
        }
        Adv::BcastUp(up) => {
            retire(w, key);
            send_edge(
                w,
                proto,
                nic,
                up,
                COLL_KIND_CONTRIB,
                CLASS_BCAST,
                group,
                seq,
                0,
                &Bytes::new(),
                ready,
            );
        }
        Adv::BcastRoot => {
            retire(w, key);
            root_done(
                w,
                proto,
                nic,
                group,
                CollOp::Bcast,
                seq,
                Bytes::new(),
                ready,
            );
        }
    }
}

fn retire<W: NicWorld>(w: &mut W, key: PendKey) {
    let st = &mut w.nics_mut().coll;
    if let Some(p) = st.pending.remove(&key) {
        st.recycle(p);
    }
}

#[allow(clippy::too_many_arguments)]
fn root_done<W: NicWorld>(
    w: &mut W,
    proto: Proto,
    nic: NicId,
    group: u32,
    op: CollOp,
    seq: u64,
    data: Bytes,
    ready: SimTime,
) {
    w.nics_mut().coll.stats.root_completions += 1;
    let d = dma_charge(w, nic, ready, 64 + data.len() as u64);
    let ev = CollEvent::RootDone {
        group,
        op,
        seq,
        data,
    };
    let node = w.nics().get(nic).node.0;
    let ev = W::lift_nic(NicEv::Coll { proto, nic, ev });
    knet_simcore::emit_at(w, node, d, ev);
}

// ----------------------------------------------------------------- probes

fn arm_probe<W: NicWorld>(w: &mut W, key: PendKey) {
    let now = knet_simcore::now(w);
    let node = w.nics().get(NicId(key.2)).node.0;
    let ev = W::lift_nic(NicEv::CollProbe { key });
    knet_simcore::emit_at(w, node, now + PROBE_AFTER, ev);
}

/// The slot is still incomplete after a probe period: send payload-free
/// sequenced frames toward the silent side. A dead member never acks them,
/// the reliability window exhausts its retries, and `nic_link_dead` fires —
/// which is what turns a would-be silent hang into typed failure events.
pub(crate) fn probe_fire<W: NicWorld>(w: &mut W, key: PendKey) {
    let (_, group, nicraw, class, seq) = key;
    let nic = NicId(nicraw);
    let proto = match key.0 {
        0 => Proto::Gm,
        1 => Proto::Mx,
        _ => Proto::Raw,
    };
    let now = knet_simcore::now(w);
    let targets = {
        let st = &mut w.nics_mut().coll;
        let Some(p) = st.pending.get(&key) else {
            return; // completed or purged — the chain dies
        };
        let Some(tree) = st.trees.get(&(key.0, group, nicraw)) else {
            return;
        };
        let mut t = std::mem::take(&mut st.scratch_targets);
        t.clear();
        if p.releasing {
            if let Some(up) = tree.parent {
                t.push(up);
            }
        } else {
            for &c in &tree.children {
                if !p.child_complete(c.0) {
                    t.push(c);
                }
            }
        }
        t
    };
    w.nics_mut().coll.stats.probes += targets.len() as u64;
    for &tgt in &targets {
        send_edge(
            w,
            proto,
            nic,
            tgt,
            COLL_KIND_PROBE,
            class,
            group,
            seq,
            0,
            &Bytes::new(),
            now,
        );
    }
    put_targets(w, targets);
    let node = w.nics().get(NicId(key.2)).node.0;
    let ev = W::lift_nic(NicEv::CollProbe { key });
    knet_simcore::emit_at(w, node, now + PROBE_AFTER, ev);
}

// ------------------------------------------------------------------ tests

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::NicLayer;
    use crate::model::NicModel;
    use crate::rel::{rel_on_packet, RelVerdict};
    use knet_simcore::{run_to_quiescence, Scheduler, SimWorld};
    use knet_simos::{CpuModel, OsLayer, OsWorld};

    struct TestWorld {
        sched: Scheduler<TestWorld>,
        os: OsLayer,
        nics: NicLayer,
        events: Vec<(NicId, CollEvent)>,
        dead: Vec<(NicId, NicId)>,
    }

    impl SimWorld for TestWorld {
        type Ev = knet_simcore::BoxEvent<Self>;
        fn sched(&self) -> &Scheduler<Self> {
            &self.sched
        }
        fn sched_mut(&mut self) -> &mut Scheduler<Self> {
            &mut self.sched
        }
    }
    impl OsWorld for TestWorld {
        fn os(&self) -> &OsLayer {
            &self.os
        }
        fn os_mut(&mut self) -> &mut OsLayer {
            &mut self.os
        }
    }
    impl NicWorld for TestWorld {
        fn nics(&self) -> &NicLayer {
            &self.nics
        }
        fn nics_mut(&mut self) -> &mut NicLayer {
            &mut self.nics
        }
        fn nic_rx(&mut self, nic: NicId, pkt: Packet) {
            if let RelVerdict::Consumed = rel_on_packet(self, &pkt) {
                return;
            }
            if is_coll_frame(pkt.kind) {
                coll_on_packet(self, nic, pkt);
            }
        }
        fn nic_link_dead(&mut self, _proto: Proto, local: NicId, remote: NicId) {
            self.dead.push((local, remote));
        }
        fn coll_event(&mut self, _proto: Proto, nic: NicId, ev: CollEvent) {
            self.events.push((nic, ev));
        }
    }

    /// `n` nodes, one NIC each, wired as a k-ary tree over group 7.
    fn world(n: usize, k: usize) -> (TestWorld, Vec<NicId>) {
        let mut w = TestWorld {
            sched: Scheduler::new(),
            os: OsLayer::new(),
            nics: NicLayer::new(),
            events: Vec::new(),
            dead: Vec::new(),
        };
        let mut nics = Vec::new();
        for _ in 0..n {
            let node = w.os.add_node(CpuModel::xeon_2600(), 64);
            nics.push(w.nics.add_nic(node, NicModel::pci_xd()));
        }
        for i in 0..n {
            let parent = if i == 0 {
                None
            } else {
                Some(nics[(i - 1) / k])
            };
            let lo = (k * i + 1).min(n);
            let hi = (k * i + k).min(n.saturating_sub(1));
            let children: Vec<NicId> = (lo..=hi).map(|j| nics[j]).collect();
            w.nics
                .coll
                .install_tree(Proto::Gm, 7, nics[i], parent, &children);
        }
        (w, nics)
    }

    #[test]
    fn reduce_op_identities_are_neutral() {
        for op in [
            ReduceOp::Sum,
            ReduceOp::Min,
            ReduceOp::Max,
            ReduceOp::BitAnd,
            ReduceOp::BitOr,
            ReduceOp::BitXor,
        ] {
            for v in [0u64, 1, 42, u64::MAX] {
                assert_eq!(op.combine(op.identity(), v), v, "{op:?} identity");
            }
            assert_eq!(ReduceOp::from_code(op.code()), op);
        }
    }

    #[test]
    fn combine_lanes_is_lanewise_and_in_place() {
        let mut acc = [0u8; 24];
        acc[..8].copy_from_slice(&10u64.to_le_bytes());
        let mut chunk = [0u8; 16];
        chunk[..8].copy_from_slice(&5u64.to_le_bytes());
        chunk[8..].copy_from_slice(&7u64.to_le_bytes());
        combine_lanes(ReduceOp::Sum, &mut acc, 0, &chunk[..8]);
        combine_lanes(ReduceOp::Sum, &mut acc, 8, &chunk[8..]);
        assert_eq!(u64::from_le_bytes(acc[..8].try_into().unwrap()), 15);
        assert_eq!(u64::from_le_bytes(acc[8..16].try_into().unwrap()), 7);
        assert_eq!(u64::from_le_bytes(acc[16..].try_into().unwrap()), 0);
    }

    #[test]
    fn bcast_reaches_every_member_and_root_gets_one_completion() {
        let (mut w, nics) = world(7, 2);
        let payload = Bytes::from((0..10_000u32).map(|i| i as u8).collect::<Vec<u8>>());
        coll_inject(
            &mut w,
            Proto::Gm,
            nics[0],
            CollCmd::Bcast {
                group: 7,
                seq: 1,
                tag: 99,
                data: payload.clone(),
            },
            SimTime::ZERO,
        );
        run_to_quiescence(&mut w);
        let delivers: Vec<_> = w
            .events
            .iter()
            .filter_map(|(n, e)| match e {
                CollEvent::Deliver { tag, data, .. } => Some((*n, *tag, data.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(delivers.len(), 6, "every non-root member gets the payload");
        for (_, tag, data) in &delivers {
            assert_eq!(*tag, 99);
            assert_eq!(data[..], payload[..], "byte-exact at every member");
        }
        let roots: Vec<_> = w
            .events
            .iter()
            .filter(|(n, e)| *n == nics[0] && matches!(e, CollEvent::RootDone { .. }))
            .collect();
        assert_eq!(roots.len(), 1, "exactly one aggregated completion");
        assert_eq!(w.nics.coll.pending_count(), 0, "no slot leaks");
    }

    #[test]
    fn barrier_releases_only_after_everyone_entered() {
        let (mut w, nics) = world(5, 2);
        // Everyone but the last member enters.
        for &n in &nics[..4] {
            coll_inject(
                &mut w,
                Proto::Gm,
                n,
                CollCmd::Barrier { group: 7, seq: 0 },
                SimTime::ZERO,
            );
        }
        // Run a bounded slice of virtual time: no release may happen yet
        // (the probe chain keeps the scheduler non-quiescent forever, so
        // quiescence cannot be the check here).
        knet_simcore::run_until(&mut w, |w: &TestWorld| {
            knet_simcore::now(w) > SimTime::from_micros(5_000)
        });
        assert!(
            !w.events
                .iter()
                .any(|(_, e)| matches!(e, CollEvent::Released { .. } | CollEvent::RootDone { .. })),
            "barrier must not release before the last member enters"
        );
        let t = knet_simcore::now(&w);
        coll_inject(
            &mut w,
            Proto::Gm,
            nics[4],
            CollCmd::Barrier { group: 7, seq: 0 },
            t,
        );
        run_to_quiescence(&mut w);
        let released = w
            .events
            .iter()
            .filter(|(_, e)| matches!(e, CollEvent::Released { .. }))
            .count();
        let roots = w
            .events
            .iter()
            .filter(|(_, e)| matches!(e, CollEvent::RootDone { .. }))
            .count();
        assert_eq!(released, 4, "every non-root member is released");
        assert_eq!(roots, 1, "the root completes exactly once");
        assert_eq!(w.nics.coll.pending_count(), 0);
    }

    #[test]
    fn reduce_combines_in_nic_across_the_tree() {
        let (mut w, nics) = world(6, 3);
        let lanes = 5usize;
        for (i, &n) in nics.iter().enumerate() {
            let mut v = Vec::new();
            for l in 0..lanes {
                v.extend_from_slice(&((i as u64 + 1) * (l as u64 + 1)).to_le_bytes());
            }
            coll_inject(
                &mut w,
                Proto::Gm,
                n,
                CollCmd::Reduce {
                    group: 7,
                    seq: 3,
                    op: ReduceOp::Sum,
                    data: Bytes::from(v),
                },
                SimTime::ZERO,
            );
        }
        run_to_quiescence(&mut w);
        let root: Vec<_> = w
            .events
            .iter()
            .filter_map(|(n, e)| match e {
                CollEvent::RootDone { data, .. } if *n == nics[0] => Some(data.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(root.len(), 1);
        let sum_members: u64 = (1..=6).sum(); // 21
        for l in 0..lanes {
            let got = u64::from_le_bytes(root[0][l * 8..l * 8 + 8].try_into().unwrap());
            assert_eq!(got, sum_members * (l as u64 + 1), "lane {l}");
        }
        assert!(
            w.nics.coll.stats.combines >= 6,
            "interior nodes combine in-NIC"
        );
        assert_eq!(w.nics.coll.pending_count(), 0);
        // Every non-root member saw its local flush completion.
        let flushed = w
            .events
            .iter()
            .filter(|(_, e)| matches!(e, CollEvent::Flushed { .. }))
            .count();
        assert_eq!(flushed, 5);
    }

    #[test]
    fn scratch_pools_recycle_across_rounds() {
        let (mut w, nics) = world(4, 2);
        let data = Bytes::from(vec![0xABu8; 4096]);
        for seq in 0..3u64 {
            let t = knet_simcore::now(&w);
            coll_inject(
                &mut w,
                Proto::Gm,
                nics[0],
                CollCmd::Bcast {
                    group: 7,
                    seq,
                    tag: 1,
                    data: data.clone(),
                },
                t,
            );
            run_to_quiescence(&mut w);
        }
        let grows_warm = w.nics.coll.stats.buf_grows;
        for seq in 3..13u64 {
            let t = knet_simcore::now(&w);
            coll_inject(
                &mut w,
                Proto::Gm,
                nics[0],
                CollCmd::Bcast {
                    group: 7,
                    seq,
                    tag: 1,
                    data: data.clone(),
                },
                t,
            );
            run_to_quiescence(&mut w);
        }
        assert_eq!(
            w.nics.coll.stats.buf_grows, grows_warm,
            "steady-state rounds must reuse pooled buffers"
        );
        assert!(w.nics.coll.stats.buf_uses >= 13);
    }

    #[test]
    fn probing_a_dead_child_kills_the_link() {
        let (mut w, nics) = world(3, 2);
        // Member 2 goes silent: its node dies before contributing.
        let dead_node = w.nics.get(nics[2]).node;
        w.nics
            .set_fault_plan(crate::fault::FaultPlan::new(1).with_kill(dead_node, SimTime::ZERO));
        for &n in &nics[..2] {
            coll_inject(
                &mut w,
                Proto::Gm,
                n,
                CollCmd::Barrier { group: 7, seq: 0 },
                SimTime::ZERO,
            );
        }
        knet_simcore::run_until(&mut w, |w: &TestWorld| !w.dead.is_empty());
        assert!(
            w.dead.contains(&(nics[0], nics[2])),
            "the probe chain must expose the dead member as a dead link, got {:?}",
            w.dead
        );
        // Failure resolution (the composed world's job) purges the group.
        w.nics.coll.purge_group(Proto::Gm, 7);
        assert_eq!(w.nics.coll.pending_count(), 0);
        assert!(w.nics.coll.stats.purged > 0);
    }

    #[test]
    fn tree_fingerprint_tracks_topology() {
        let (w, _) = world(7, 2);
        let (w3, _) = world(7, 3);
        let f2 = w.nics.coll.tree_fingerprint(Proto::Gm, 7);
        let f2b = w.nics.coll.tree_fingerprint(Proto::Gm, 7);
        let f3 = w3.nics.coll.tree_fingerprint(Proto::Gm, 7);
        assert_eq!(f2, f2b, "fingerprint is a pure function of the topology");
        assert_ne!(f2, f3, "different fan-out, different fingerprint");
        let empty = w.nics.coll.tree_fingerprint(Proto::Gm, 8);
        assert_ne!(empty, f2, "an uninstalled group hashes differently");
    }
}
