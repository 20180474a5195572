//! Memory references and io-vectors — the address-class API of §4.2.
//!
//! The paper's MX kernel interface lets the application *say what kind of
//! memory it is handing over*:
//!
//! > "Its in-kernel API proposes a native and optimized support for
//! > different types of memory addressing. The application has to pass this
//! > type of address to MX: **User virtual** (MX pins the target zones and
//! > translates), **Kernel virtual** (often already pinned; MX just has to
//! > translate), **Physical** (the application is responsible for pinning)."
//!
//! [`MemRef`] encodes exactly these three classes, and [`IoVec`] provides the
//! vectorial grouping (§4.1) that lets a page-cache flush or a scattered user
//! buffer travel as one request.

use knet_simos::{pages_spanned, Asid, NodeOs, OsError, PhysAddr, PhysSeg, VirtAddr};
use smallvec::SmallVec;

use crate::error::NetError;

/// Segments stored inline in an [`IoVec`] before spilling to the heap.
/// Every hot pattern (single buffer, header+payload, header+payload+pad)
/// fits inline, so constructing and cloning an io-vector on the send path
/// allocates nothing.
pub const IOVEC_INLINE_SEGS: usize = 4;

/// The three address classes of the MX kernel API.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AddrClass {
    /// Pageable user memory: must be pinned and translated before DMA.
    UserVirtual,
    /// Kernel direct-map memory: already resident, translation is trivial.
    KernelVirtual,
    /// A physical address (e.g. a page-cache page): nothing to do; the
    /// caller guarantees residency.
    Physical,
}

/// One contiguous memory reference, tagged with its class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemRef {
    UserVirtual {
        asid: Asid,
        addr: VirtAddr,
        len: u64,
    },
    KernelVirtual {
        addr: VirtAddr,
        len: u64,
    },
    Physical {
        addr: PhysAddr,
        len: u64,
    },
}

impl Default for MemRef {
    /// An empty kernel reference — the inert filler value inline
    /// small-vectors need; never observable through the [`IoVec`] API
    /// (empty segments are dropped on push).
    fn default() -> Self {
        MemRef::KernelVirtual {
            addr: VirtAddr::new(0),
            len: 0,
        }
    }
}

impl MemRef {
    pub fn user(asid: Asid, addr: VirtAddr, len: u64) -> Self {
        MemRef::UserVirtual { asid, addr, len }
    }

    pub fn kernel(addr: VirtAddr, len: u64) -> Self {
        MemRef::KernelVirtual { addr, len }
    }

    pub fn physical(addr: PhysAddr, len: u64) -> Self {
        MemRef::Physical { addr, len }
    }

    pub fn len(&self) -> u64 {
        match *self {
            MemRef::UserVirtual { len, .. }
            | MemRef::KernelVirtual { len, .. }
            | MemRef::Physical { len, .. } => len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn class(&self) -> AddrClass {
        match self {
            MemRef::UserVirtual { .. } => AddrClass::UserVirtual,
            MemRef::KernelVirtual { .. } => AddrClass::KernelVirtual,
            MemRef::Physical { .. } => AddrClass::Physical,
        }
    }

    /// The sub-range `[offset, offset + len)` of this reference, in the
    /// same address class, clamped to what the reference holds.
    pub fn sub_range(&self, offset: u64, len: u64) -> MemRef {
        let offset = offset.min(self.len());
        let len = len.min(self.len() - offset);
        match *self {
            MemRef::UserVirtual { asid, addr, .. } => MemRef::user(asid, addr.add(offset), len),
            MemRef::KernelVirtual { addr, .. } => MemRef::kernel(addr.add(offset), len),
            MemRef::Physical { addr, .. } => MemRef::physical(addr.add(offset), len),
        }
    }

    /// Pages spanned by this reference.
    pub fn pages(&self) -> u64 {
        match *self {
            MemRef::UserVirtual { addr, len, .. } | MemRef::KernelVirtual { addr, len } => {
                pages_spanned(addr, len)
            }
            MemRef::Physical { addr, len } => pages_spanned(VirtAddr::new(addr.raw()), len),
        }
    }
}

/// A vectorial buffer description: an ordered list of memory references,
/// possibly of mixed address classes. Up to [`IOVEC_INLINE_SEGS`] segments
/// are stored inline — constructing, cloning and queueing the common
/// shapes (single buffer, header+payload) performs no heap allocation.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct IoVec {
    segs: SmallVec<MemRef, IOVEC_INLINE_SEGS>,
}

impl IoVec {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn single(seg: MemRef) -> Self {
        let mut segs = SmallVec::new();
        segs.push(seg);
        IoVec { segs }
    }

    pub fn from_segs(segs: Vec<MemRef>) -> Self {
        IoVec {
            segs: SmallVec::from_vec(segs),
        }
    }

    pub fn push(&mut self, seg: MemRef) {
        if !seg.is_empty() {
            self.segs.push(seg);
        }
    }

    pub fn segs(&self) -> &[MemRef] {
        &self.segs
    }

    pub fn seg_count(&self) -> usize {
        self.segs.len()
    }

    pub fn total_len(&self) -> u64 {
        self.segs.iter().map(MemRef::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.total_len() == 0
    }

    /// The single class of this vector, or `None` when mixed.
    pub fn uniform_class(&self) -> Option<AddrClass> {
        let mut it = self.segs.iter().map(MemRef::class);
        let first = it.next()?;
        it.all(|c| c == first).then_some(first)
    }
}

/// The resolved segments of a *posted* buffer, which outlive the operation
/// that resolved them (a receive stays queued until a message lands), so
/// they cannot sit in per-operation scratch: up to [`IOVEC_INLINE_SEGS`]
/// segments — any physically contiguous buffer, any short scatter list —
/// are held inline, and posting such a receive allocates nothing.
pub type SegList = SmallVec<PhysSeg, IOVEC_INLINE_SEGS>;

/// The outcome of resolving an [`IoVec`] into DMA-able physical segments.
#[derive(Clone, Debug, Default)]
pub struct Resolution {
    /// Physically contiguous segments, merged where adjacent.
    pub segs: Vec<PhysSeg>,
    /// Frames pinned during resolution (caller must unpin when done).
    pub pinned: Vec<knet_simos::FrameIdx>,
    /// User pages touched (each paid a pin + software translation).
    pub user_pages: u64,
    /// Kernel-virtual pages touched (translation by subtraction, no pin).
    pub kernel_pages: u64,
    /// Bytes supplied directly as physical addresses (free to resolve).
    pub physical_bytes: u64,
}

impl Resolution {
    pub fn total_len(&self) -> u64 {
        PhysSeg::total_len(&self.segs)
    }
}

impl Resolution {
    /// Reset for reuse, retaining every vector's capacity.
    pub fn clear(&mut self) {
        self.segs.clear();
        self.pinned.clear();
        self.user_pages = 0;
        self.kernel_pages = 0;
        self.physical_bytes = 0;
    }
}

/// Resolve an [`IoVec`] into physical segments on `node`, pinning user pages
/// when `pin_user` is set (the MX kernel path pins; the GM path instead
/// requires prior registration and never calls this for user memory).
pub fn resolve_iovec(
    node: &mut NodeOs,
    iov: &IoVec,
    pin_user: bool,
) -> Result<Resolution, NetError> {
    let mut r = Resolution::default();
    resolve_iovec_into(node, iov, pin_user, &mut r)?;
    Ok(r)
}

/// [`resolve_iovec`] into a caller-owned [`Resolution`] scratch (cleared
/// first, capacities retained) — the allocation-free form for per-send
/// resolution.
pub fn resolve_iovec_into(
    node: &mut NodeOs,
    iov: &IoVec,
    pin_user: bool,
    r: &mut Resolution,
) -> Result<(), NetError> {
    r.clear();
    for seg in iov.segs() {
        match *seg {
            MemRef::Physical { addr, len } => {
                PhysSeg::push_merged(&mut r.segs, PhysSeg::new(addr, len));
                r.physical_bytes += len;
            }
            MemRef::KernelVirtual { addr, len } => {
                let p = addr
                    .kernel_to_phys()
                    .ok_or(NetError::Os(OsError::WrongAddressClass))?;
                PhysSeg::push_merged(&mut r.segs, PhysSeg::new(p, len));
                r.kernel_pages += pages_spanned(addr, len);
            }
            MemRef::UserVirtual { asid, addr, len } => {
                if pin_user {
                    let frames = node.pin_range(asid, addr, len)?;
                    r.pinned.extend(frames);
                }
                let segs = node.space(asid)?.translate_range(addr, len)?;
                for s in segs {
                    PhysSeg::push_merged(&mut r.segs, s);
                }
                r.user_pages += pages_spanned(addr, len);
            }
        }
    }
    Ok(())
}

/// Read the bytes an [`IoVec`] describes (for copy-based protocol paths).
pub fn read_iovec(node: &NodeOs, iov: &IoVec) -> Result<Vec<u8>, NetError> {
    let mut out = Vec::with_capacity(iov.total_len() as usize);
    read_iovec_into(node, iov, &mut out)?;
    Ok(out)
}

/// [`read_iovec`] into a caller-owned buffer (cleared first, capacity
/// retained) — the allocation-free form for per-send gathers.
pub fn read_iovec_into(node: &NodeOs, iov: &IoVec, out: &mut Vec<u8>) -> Result<(), NetError> {
    out.clear();
    out.reserve(iov.total_len() as usize);
    for seg in iov.segs() {
        let start = out.len();
        out.resize(start + seg.len() as usize, 0);
        match *seg {
            MemRef::Physical { addr, len: _ } => {
                node.mem.read(addr, &mut out[start..])?;
            }
            MemRef::KernelVirtual { addr, .. } => {
                node.read_virt(Asid::KERNEL, addr, &mut out[start..])?;
            }
            MemRef::UserVirtual { asid, addr, .. } => {
                node.read_virt(asid, addr, &mut out[start..])?;
            }
        }
    }
    Ok(())
}

/// Write bytes into the memory an [`IoVec`] describes; returns bytes written
/// (stops at the vector's capacity).
pub fn write_iovec(node: &mut NodeOs, iov: &IoVec, data: &[u8]) -> Result<u64, NetError> {
    let mut done = 0usize;
    for seg in iov.segs() {
        if done >= data.len() {
            break;
        }
        let n = (seg.len() as usize).min(data.len() - done);
        let chunk = &data[done..done + n];
        match *seg {
            MemRef::Physical { addr, .. } => node.mem.write(addr, chunk)?,
            MemRef::KernelVirtual { addr, .. } => node.write_virt(Asid::KERNEL, addr, chunk)?,
            MemRef::UserVirtual { asid, addr, .. } => node.write_virt(asid, addr, chunk)?,
        }
        done += n;
    }
    Ok(done as u64)
}

/// The sub-window `[offset, offset+len)` of a segment list — used to land an
/// MTU chunk at its offset within a posted receive buffer.
pub fn seg_window(segs: &[PhysSeg], offset: u64, len: u64) -> Vec<PhysSeg> {
    let mut out = Vec::new();
    seg_window_into(segs, offset, len, &mut out);
    out
}

/// [`seg_window`] into a caller-owned scratch vector (cleared first) — the
/// allocation-free form for the per-chunk receive path.
pub fn seg_window_into(segs: &[PhysSeg], offset: u64, len: u64, out: &mut Vec<PhysSeg>) {
    out.clear();
    let mut skip = offset;
    let mut want = len;
    for seg in segs {
        if want == 0 {
            break;
        }
        if skip >= seg.len {
            skip -= seg.len;
            continue;
        }
        let take = (seg.len - skip).min(want);
        PhysSeg::push_merged(out, PhysSeg::new(seg.addr.add(skip), take));
        want -= take;
        skip = 0;
    }
}

/// Streaming cursor over the MTU chunks of a resolved segment list — the
/// allocation-free replacement for materializing [`chunk_segments`]'s
/// `Vec<Vec<PhysSeg>>` on the send path. Feed it the same `segs`/`mtu` on
/// every call; each [`next_chunk`] fills `out` with the next chunk and
/// advances in O(pieces of this chunk), linear over the whole message.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChunkCursor {
    seg: usize,
    off: u64,
}

/// Fill `out` (cleared first) with the next chunk of at most `mtu` bytes.
/// Returns `false` — leaving `out` empty — once the segment list is
/// exhausted.
pub fn next_chunk(
    segs: &[PhysSeg],
    cur: &mut ChunkCursor,
    mtu: u64,
    out: &mut Vec<PhysSeg>,
) -> bool {
    assert!(mtu > 0);
    out.clear();
    let mut room = mtu;
    while room > 0 && cur.seg < segs.len() {
        let seg = segs[cur.seg];
        let rem = seg.len - cur.off;
        if rem == 0 {
            cur.seg += 1;
            cur.off = 0;
            continue;
        }
        let take = rem.min(room);
        PhysSeg::push_merged(out, PhysSeg::new(seg.addr.add(cur.off), take));
        room -= take;
        cur.off += take;
        if cur.off == seg.len {
            cur.seg += 1;
            cur.off = 0;
        }
    }
    !out.is_empty()
}

/// Split a resolved segment list into MTU-sized chunks for packetization.
/// Each returned chunk is a list of physical segments totalling at most
/// `mtu` bytes.
pub fn chunk_segments(segs: &[PhysSeg], mtu: u64) -> Vec<Vec<PhysSeg>> {
    assert!(mtu > 0);
    let mut chunks = Vec::new();
    let mut cur: Vec<PhysSeg> = Vec::new();
    let mut cur_len = 0u64;
    for seg in segs {
        let mut addr = seg.addr;
        let mut rem = seg.len;
        while rem > 0 {
            let space = mtu - cur_len;
            let take = rem.min(space);
            PhysSeg::push_merged(&mut cur, PhysSeg::new(addr, take));
            cur_len += take;
            addr = addr.add(take);
            rem -= take;
            if cur_len == mtu {
                chunks.push(std::mem::take(&mut cur));
                cur_len = 0;
            }
        }
    }
    if !cur.is_empty() {
        chunks.push(cur);
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use knet_simos::{CpuModel, NodeId, Prot, PAGE_SIZE};

    fn node() -> NodeOs {
        NodeOs::new(NodeId(0), CpuModel::xeon_2600(), 1024)
    }

    #[test]
    fn iovec_accounting() {
        let mut iov = IoVec::new();
        iov.push(MemRef::kernel(VirtAddr::new(knet_simos::KERNEL_BASE), 100));
        iov.push(MemRef::physical(PhysAddr::new(0x1000), PAGE_SIZE));
        iov.push(MemRef::kernel(VirtAddr::new(knet_simos::KERNEL_BASE), 0)); // dropped
        assert_eq!(iov.seg_count(), 2);
        assert_eq!(iov.total_len(), 100 + PAGE_SIZE);
        assert_eq!(iov.uniform_class(), None);
    }

    #[test]
    fn sub_range_keeps_the_class_and_clamps() {
        let asid = Asid(3);
        let u = MemRef::user(asid, VirtAddr::new(0x1000), 100);
        assert_eq!(
            u.sub_range(10, 20),
            MemRef::user(asid, VirtAddr::new(0x100A), 20)
        );
        let k = MemRef::kernel(VirtAddr::new(knet_simos::KERNEL_BASE), 100);
        assert_eq!(k.sub_range(0, 100), k);
        assert_eq!(k.sub_range(90, 50).len(), 10, "clamped to the tail");
        let p = MemRef::physical(PhysAddr::new(0x2000), 8);
        assert_eq!(
            p.sub_range(8, 1),
            MemRef::physical(PhysAddr::new(0x2008), 0)
        );
        assert!(
            p.sub_range(9, 1).is_empty(),
            "an offset past the end is empty"
        );
    }

    #[test]
    fn uniform_class_detection() {
        let iov = IoVec::from_segs(vec![
            MemRef::physical(PhysAddr::new(0), 10),
            MemRef::physical(PhysAddr::new(0x1000), 10),
        ]);
        assert_eq!(iov.uniform_class(), Some(AddrClass::Physical));
        assert_eq!(IoVec::new().uniform_class(), None);
    }

    #[test]
    fn resolve_kernel_memory_needs_no_pin() {
        let mut n = node();
        let kva = n.kalloc(2 * PAGE_SIZE).unwrap();
        let iov = IoVec::single(MemRef::kernel(kva, 2 * PAGE_SIZE));
        let r = resolve_iovec(&mut n, &iov, true).unwrap();
        assert_eq!(r.segs.len(), 1, "direct map is contiguous");
        assert!(r.pinned.is_empty());
        assert_eq!(r.kernel_pages, 2);
        assert_eq!(r.total_len(), 2 * PAGE_SIZE);
    }

    #[test]
    fn resolve_user_memory_pins_when_asked() {
        let mut n = node();
        let asid = n.create_process();
        let va = n.map_anon(asid, 2 * PAGE_SIZE, Prot::RW).unwrap();
        let iov = IoVec::single(MemRef::user(asid, va.add(10), PAGE_SIZE));
        let r = resolve_iovec(&mut n, &iov, true).unwrap();
        assert_eq!(r.user_pages, 2, "unaligned page-sized range spans 2 pages");
        assert_eq!(r.pinned.len(), 2);
        assert_eq!(n.mem.pin_count(r.pinned[0]), 1);
        let r2 = resolve_iovec(&mut n, &iov, false).unwrap();
        assert!(r2.pinned.is_empty());
        n.unpin_frames(&r.pinned).unwrap();
    }

    #[test]
    fn read_write_iovec_roundtrip_mixed_classes() {
        let mut n = node();
        let kva = n.kalloc(PAGE_SIZE).unwrap();
        let asid = n.create_process();
        let uva = n.map_anon(asid, PAGE_SIZE, Prot::RW).unwrap();
        let iov = IoVec::from_segs(vec![
            MemRef::kernel(kva.add(5), 7),
            MemRef::user(asid, uva.add(100), 9),
        ]);
        let data: Vec<u8> = (0..16).collect();
        assert_eq!(write_iovec(&mut n, &iov, &data).unwrap(), 16);
        let back = read_iovec(&n, &iov).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn write_iovec_stops_at_capacity() {
        let mut n = node();
        let kva = n.kalloc(PAGE_SIZE).unwrap();
        let iov = IoVec::single(MemRef::kernel(kva, 8));
        assert_eq!(write_iovec(&mut n, &iov, &[1u8; 100]).unwrap(), 8);
    }

    #[test]
    fn chunking_respects_mtu_and_preserves_bytes() {
        let segs = vec![
            PhysSeg::new(PhysAddr::new(0x1000), 5000),
            PhysSeg::new(PhysAddr::new(0x9000), 3000),
        ];
        let chunks = chunk_segments(&segs, 4096);
        assert_eq!(chunks.len(), 2);
        assert_eq!(PhysSeg::total_len(&chunks[0]), 4096);
        assert_eq!(PhysSeg::total_len(&chunks[1]), 3904);
        // First chunk is one merged segment; second spans the discontinuity.
        assert_eq!(chunks[0].len(), 1);
        assert_eq!(chunks[1].len(), 2);
        let total: u64 = chunks.iter().map(|c| PhysSeg::total_len(c)).sum();
        assert_eq!(total, 8000);
    }

    #[test]
    fn seg_window_selects_the_right_bytes() {
        let segs = vec![
            PhysSeg::new(PhysAddr::new(0x1000), 100),
            PhysSeg::new(PhysAddr::new(0x5000), 100),
        ];
        // Window fully inside the first segment.
        assert_eq!(
            seg_window(&segs, 10, 20),
            vec![PhysSeg::new(PhysAddr::new(0x100A), 20)]
        );
        // Window straddling both segments.
        let w = seg_window(&segs, 90, 30);
        assert_eq!(
            w,
            vec![
                PhysSeg::new(PhysAddr::new(0x105A), 10),
                PhysSeg::new(PhysAddr::new(0x5000), 20),
            ]
        );
        // Window starting in the second segment.
        assert_eq!(
            seg_window(&segs, 150, 50),
            vec![PhysSeg::new(PhysAddr::new(0x5032), 50)]
        );
        // Window larger than what remains clamps.
        assert_eq!(PhysSeg::total_len(&seg_window(&segs, 150, 500)), 50);
        assert!(seg_window(&segs, 200, 10).is_empty());
    }

    #[test]
    fn chunk_cursor_matches_chunk_segments() {
        let segs = vec![
            PhysSeg::new(PhysAddr::new(0x1000), 5000),
            PhysSeg::new(PhysAddr::new(0x9000), 3000),
            PhysSeg::new(PhysAddr::new(0x20000), 1),
        ];
        for mtu in [1u64, 100, 4096, 10_000] {
            let expect = chunk_segments(&segs, mtu);
            let mut cur = ChunkCursor::default();
            let mut out = Vec::new();
            let mut got = Vec::new();
            while next_chunk(&segs, &mut cur, mtu, &mut out) {
                got.push(out.clone());
            }
            assert_eq!(got, expect, "mtu {mtu}");
        }
        // Exhausted and empty lists report false.
        let mut cur = ChunkCursor::default();
        let mut out = Vec::new();
        assert!(!next_chunk(&[], &mut cur, 4096, &mut out));
    }

    #[test]
    fn iovec_inline_construction_is_allocation_free_shape() {
        // Up to IOVEC_INLINE_SEGS segments stay inline (the SmallVec shim
        // reports storage mode; the allocation test in tests/ measures it
        // with a counting allocator).
        let mut iov = IoVec::single(MemRef::physical(PhysAddr::new(0), 10));
        iov.push(MemRef::physical(PhysAddr::new(0x1000), 10));
        assert_eq!(iov.seg_count(), 2);
        let clone = iov.clone();
        assert_eq!(clone, iov);
    }

    #[test]
    fn chunking_small_message_is_one_chunk() {
        let segs = vec![PhysSeg::new(PhysAddr::new(0x40), 64)];
        let chunks = chunk_segments(&segs, 4096);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0], segs);
        assert!(chunk_segments(&[], 4096).is_empty());
    }
}
