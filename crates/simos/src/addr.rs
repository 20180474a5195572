//! Address arithmetic: nodes, address spaces, virtual/physical addresses.
//!
//! The model follows the paper's (and 2005 Linux's) memory layout closely:
//!
//! * pages are 4 kB (IA32, as in the paper's testbed);
//! * kernel virtual memory is a *direct map* of physical memory at
//!   [`KERNEL_BASE`] (Linux lowmem), so kernel-virtual → physical translation
//!   is a subtraction — exactly the property the MX kernel API exploits for
//!   the `KernelVirtual` address class;
//! * user virtual memory lives below [`KERNEL_BASE`] and is per-address-space,
//!   so identical user virtual addresses in different processes name different
//!   physical pages — the collision problem GMKRC solves with the 64-bit
//!   pointer/ASID trick (§3.2 of the paper).

use std::fmt;

/// Size of a page in bytes (IA32: 4 kB).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Base of the kernel direct map. Everything at or above this address is
/// kernel-virtual; `kvaddr - KERNEL_BASE` is the physical address.
pub const KERNEL_BASE: u64 = 0xFFFF_8000_0000_0000;

/// Base of the user mmap area in every address space.
pub const USER_MMAP_BASE: u64 = 0x0000_2000_0000_0000;

/// A compute node of the cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// An address-space identifier, unique per node. ASID 0 is the kernel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Asid(pub u32);

impl Asid {
    pub const KERNEL: Asid = Asid(0);

    #[inline]
    pub fn is_kernel(self) -> bool {
        self.0 == 0
    }
}

/// A virtual address (user or kernel, disambiguated by [`VirtAddr::is_kernel`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

/// A physical address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl VirtAddr {
    #[inline]
    pub const fn new(a: u64) -> Self {
        VirtAddr(a)
    }

    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Virtual page number.
    #[inline]
    pub const fn vpn(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Offset within the page.
    #[inline]
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Whether this address lies in the kernel direct map.
    #[inline]
    pub const fn is_kernel(self) -> bool {
        self.0 >= KERNEL_BASE
    }

    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, delta: u64) -> VirtAddr {
        VirtAddr(self.0 + delta)
    }

    /// Round down to the containing page boundary.
    #[inline]
    pub const fn page_base(self) -> VirtAddr {
        VirtAddr(self.0 & !(PAGE_SIZE - 1))
    }
}

impl PhysAddr {
    #[inline]
    pub const fn new(a: u64) -> Self {
        PhysAddr(a)
    }

    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Physical frame number.
    #[inline]
    pub const fn pfn(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    #[inline]
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, delta: u64) -> PhysAddr {
        PhysAddr(self.0 + delta)
    }

    /// The kernel-virtual alias of this physical address (direct map).
    #[inline]
    pub const fn to_kernel_virt(self) -> VirtAddr {
        VirtAddr(self.0 + KERNEL_BASE)
    }
}

impl VirtAddr {
    /// The physical address aliased by a kernel direct-map virtual address.
    /// Returns `None` for user addresses — those need a page-table walk.
    #[inline]
    pub const fn kernel_to_phys(self) -> Option<PhysAddr> {
        if self.is_kernel() {
            Some(PhysAddr(self.0 - KERNEL_BASE))
        } else {
            None
        }
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{:#x}", self.0)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:#x}", self.0)
    }
}

/// A physically contiguous byte range — the unit the DMA engine consumes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PhysSeg {
    pub addr: PhysAddr,
    pub len: u64,
}

impl PhysSeg {
    pub fn new(addr: PhysAddr, len: u64) -> Self {
        PhysSeg { addr, len }
    }

    /// Total bytes across a segment list.
    pub fn total_len(segs: &[PhysSeg]) -> u64 {
        segs.iter().map(|s| s.len).sum()
    }

    /// Append `seg`, merging with the tail when physically contiguous.
    /// Keeping segment lists merged is what lets a single-page or physically
    /// contiguous transfer use one DMA descriptor.
    pub fn push_merged(segs: &mut Vec<PhysSeg>, seg: PhysSeg) {
        if seg.len == 0 {
            return;
        }
        if let Some(last) = segs.last_mut() {
            if last.addr.raw() + last.len == seg.addr.raw() {
                last.len += seg.len;
                return;
            }
        }
        segs.push(seg);
    }
}

/// Iterate the page-aligned slices of `[addr, addr+len)`: yields
/// `(page_base_vaddr, offset_in_page, bytes_in_this_page)`.
pub fn page_slices(addr: VirtAddr, len: u64) -> impl Iterator<Item = (VirtAddr, u64, u64)> {
    let mut cur = addr.raw();
    let end = addr.raw() + len;
    std::iter::from_fn(move || {
        if cur >= end {
            return None;
        }
        let base = cur & !(PAGE_SIZE - 1);
        let off = cur - base;
        let n = (PAGE_SIZE - off).min(end - cur);
        cur += n;
        Some((VirtAddr(base), off, n))
    })
}

/// Number of pages spanned by `[addr, addr+len)`.
pub fn pages_spanned(addr: VirtAddr, len: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    let first = addr.vpn();
    let last = VirtAddr(addr.raw() + len - 1).vpn();
    last - first + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic() {
        let a = VirtAddr::new(0x12345);
        assert_eq!(a.vpn(), 0x12);
        assert_eq!(a.page_offset(), 0x345);
        assert_eq!(a.page_base(), VirtAddr::new(0x12000));
    }

    #[test]
    fn kernel_direct_map_roundtrip() {
        let p = PhysAddr::new(0x42_1000);
        let v = p.to_kernel_virt();
        assert!(v.is_kernel());
        assert_eq!(v.kernel_to_phys(), Some(p));
        assert_eq!(VirtAddr::new(0x1000).kernel_to_phys(), None);
    }

    #[test]
    fn page_slices_cover_range_exactly() {
        let addr = VirtAddr::new(PAGE_SIZE - 100);
        let slices: Vec<_> = page_slices(addr, 300).collect();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0], (VirtAddr::new(0), PAGE_SIZE - 100, 100));
        assert_eq!(slices[1], (VirtAddr::new(PAGE_SIZE), 0, 200));
        let total: u64 = slices.iter().map(|s| s.2).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn page_slices_empty_range() {
        assert_eq!(page_slices(VirtAddr::new(123), 0).count(), 0);
    }

    #[test]
    fn pages_spanned_counts_straddles() {
        assert_eq!(pages_spanned(VirtAddr::new(0), 1), 1);
        assert_eq!(pages_spanned(VirtAddr::new(0), PAGE_SIZE), 1);
        assert_eq!(pages_spanned(VirtAddr::new(0), PAGE_SIZE + 1), 2);
        assert_eq!(pages_spanned(VirtAddr::new(PAGE_SIZE - 1), 2), 2);
        assert_eq!(pages_spanned(VirtAddr::new(4), 0), 0);
    }

    #[test]
    fn phys_segments_merge_when_contiguous() {
        let mut segs = Vec::new();
        PhysSeg::push_merged(&mut segs, PhysSeg::new(PhysAddr::new(0x1000), 0x1000));
        PhysSeg::push_merged(&mut segs, PhysSeg::new(PhysAddr::new(0x2000), 0x1000));
        PhysSeg::push_merged(&mut segs, PhysSeg::new(PhysAddr::new(0x9000), 0x100));
        PhysSeg::push_merged(&mut segs, PhysSeg::new(PhysAddr::new(0xA000), 0));
        assert_eq!(
            segs,
            vec![
                PhysSeg::new(PhysAddr::new(0x1000), 0x2000),
                PhysSeg::new(PhysAddr::new(0x9000), 0x100),
            ]
        );
        assert_eq!(PhysSeg::total_len(&segs), 0x2100);
    }
}
