//! Per-process address spaces: page tables and VMAs.
//!
//! User buffers handed to the network live here. The paper's central
//! observation is that the *registration* model (pin + translate + cache in
//! the NIC) was designed for exactly this kind of memory, and fits poorly
//! with everything else an in-kernel client manipulates. The model therefore
//! implements the full life cycle that makes registration hard: mappings can
//! disappear (`munmap`), change protection, or be duplicated by `fork` while
//! the NIC still holds their translations.

use std::collections::BTreeMap;

use crate::addr::{pages_spanned, PhysAddr, PhysSeg, VirtAddr, PAGE_SIZE, USER_MMAP_BASE};
use crate::error::OsError;
use crate::phys::{FrameIdx, FrameState, PhysMem};

/// Page protection bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Prot {
    pub read: bool,
    pub write: bool,
}

impl Prot {
    pub const RW: Prot = Prot {
        read: true,
        write: true,
    };
    pub const RO: Prot = Prot {
        read: true,
        write: false,
    };
}

/// A virtual memory area: a contiguous mapped range with one protection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Vma {
    pub start: VirtAddr,
    pub len: u64,
    pub prot: Prot,
}

impl Vma {
    pub fn end(&self) -> u64 {
        self.start.raw() + self.len
    }

    pub fn contains(&self, a: VirtAddr) -> bool {
        (self.start.raw()..self.end()).contains(&a.raw())
    }
}

#[derive(Clone, Copy, Debug)]
struct Pte {
    frame: FrameIdx,
    prot: Prot,
}

/// A user address space (page table + VMA list).
pub struct AddressSpace {
    table: BTreeMap<u64, Pte>,
    vmas: BTreeMap<u64, Vma>,
    mmap_cursor: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    pub fn new() -> Self {
        AddressSpace {
            table: BTreeMap::new(),
            vmas: BTreeMap::new(),
            mmap_cursor: USER_MMAP_BASE,
        }
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.table.len()
    }

    /// The VMAs, in address order.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Map `len` bytes (page-rounded) of fresh anonymous memory; returns the
    /// chosen base address. Frames are allocated eagerly (the model has no
    /// demand paging — the paper's workloads touch everything they map).
    pub fn map_anon(
        &mut self,
        mem: &mut PhysMem,
        len: u64,
        prot: Prot,
    ) -> Result<VirtAddr, OsError> {
        if len == 0 {
            return Err(OsError::BadRange);
        }
        let pages = len.div_ceil(PAGE_SIZE);
        let base = VirtAddr::new(self.mmap_cursor);
        // Keep a guard page between mappings so off-by-one accesses fault.
        self.mmap_cursor += (pages + 1) * PAGE_SIZE;
        for i in 0..pages {
            let frame = mem.alloc(FrameState::Anon)?;
            self.table.insert(base.vpn() + i, Pte { frame, prot });
        }
        self.vmas.insert(
            base.raw(),
            Vma {
                start: base,
                len: pages * PAGE_SIZE,
                prot,
            },
        );
        Ok(base)
    }

    /// Unmap `[start, start+len)` (must be page-aligned). Frames whose pin
    /// count is zero are freed immediately; pinned frames (e.g. still
    /// registered with the NIC) are released when the last pin drops — the
    /// Linux `get_user_pages` life cycle that makes stale NIC translations
    /// dangerous rather than crashing.
    pub fn unmap(&mut self, mem: &mut PhysMem, start: VirtAddr, len: u64) -> Result<(), OsError> {
        if start.page_offset() != 0 || len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(OsError::BadRange);
        }
        let first = start.vpn();
        let last = first + len / PAGE_SIZE - 1;
        // Every page in the range must be mapped (simplification: Linux
        // tolerates holes; our clients never unmap holes).
        for vpn in first..=last {
            if !self.table.contains_key(&vpn) {
                return Err(OsError::Fault);
            }
        }
        for vpn in first..=last {
            let pte = self.table.remove(&vpn).expect("checked above");
            if mem.pin_count(pte.frame) == 0 {
                mem.free(pte.frame)?;
            } else {
                mem.mark_release_on_unpin(pte.frame);
            }
        }
        self.punch_vma_hole(start.raw(), start.raw() + len);
        Ok(())
    }

    /// Remove `[lo, hi)` from the VMA list, splitting areas as needed.
    fn punch_vma_hole(&mut self, lo: u64, hi: u64) {
        let affected: Vec<Vma> = self
            .vmas
            .range(..hi)
            .map(|(_, v)| *v)
            .filter(|v| v.end() > lo)
            .collect();
        for v in affected {
            self.vmas.remove(&v.start.raw());
            if v.start.raw() < lo {
                self.vmas.insert(
                    v.start.raw(),
                    Vma {
                        start: v.start,
                        len: lo - v.start.raw(),
                        prot: v.prot,
                    },
                );
            }
            if v.end() > hi {
                self.vmas.insert(
                    hi,
                    Vma {
                        start: VirtAddr::new(hi),
                        len: v.end() - hi,
                        prot: v.prot,
                    },
                );
            }
        }
    }

    /// Change protection on `[start, start+len)` (page-aligned).
    pub fn protect(&mut self, start: VirtAddr, len: u64, prot: Prot) -> Result<(), OsError> {
        if start.page_offset() != 0 || len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(OsError::BadRange);
        }
        let first = start.vpn();
        let last = first + len / PAGE_SIZE - 1;
        for vpn in first..=last {
            if !self.table.contains_key(&vpn) {
                return Err(OsError::Fault);
            }
        }
        for vpn in first..=last {
            self.table.get_mut(&vpn).expect("checked").prot = prot;
        }
        self.punch_vma_hole(start.raw(), start.raw() + len);
        self.vmas.insert(start.raw(), Vma { start, len, prot });
        Ok(())
    }

    /// Translate one virtual address.
    pub fn translate(&self, addr: VirtAddr) -> Result<PhysAddr, OsError> {
        let pte = self.table.get(&addr.vpn()).ok_or(OsError::Fault)?;
        Ok(pte.frame.base().add(addr.page_offset()))
    }

    /// Translate a byte range into physically contiguous segments (merged).
    pub fn translate_range(&self, addr: VirtAddr, len: u64) -> Result<Vec<PhysSeg>, OsError> {
        let mut segs = Vec::with_capacity(pages_spanned(addr, len) as usize);
        for (page, off, n) in crate::addr::page_slices(addr, len) {
            let pte = self.table.get(&page.vpn()).ok_or(OsError::Fault)?;
            PhysSeg::push_merged(&mut segs, PhysSeg::new(pte.frame.base().add(off), n));
        }
        Ok(segs)
    }

    /// The frame backing the page containing `addr`.
    pub fn frame_of(&self, addr: VirtAddr) -> Result<FrameIdx, OsError> {
        Ok(self.table.get(&addr.vpn()).ok_or(OsError::Fault)?.frame)
    }

    /// Copy bytes out of the space (checks read protection).
    pub fn read(&self, mem: &PhysMem, addr: VirtAddr, buf: &mut [u8]) -> Result<(), OsError> {
        let mut done = 0usize;
        for (page, off, n) in crate::addr::page_slices(addr, buf.len() as u64) {
            let pte = self.table.get(&page.vpn()).ok_or(OsError::Fault)?;
            if !pte.prot.read {
                return Err(OsError::ProtectionViolation);
            }
            mem.read(pte.frame.base().add(off), &mut buf[done..done + n as usize])?;
            done += n as usize;
        }
        Ok(())
    }

    /// Copy bytes into the space (checks write protection).
    pub fn write(&self, mem: &mut PhysMem, addr: VirtAddr, data: &[u8]) -> Result<(), OsError> {
        let mut done = 0usize;
        for (page, off, n) in crate::addr::page_slices(addr, data.len() as u64) {
            let pte = self.table.get(&page.vpn()).ok_or(OsError::Fault)?;
            if !pte.prot.write {
                return Err(OsError::ProtectionViolation);
            }
            mem.write(pte.frame.base().add(off), &data[done..done + n as usize])?;
            done += n as usize;
        }
        Ok(())
    }

    /// Duplicate this space for a forked child: same virtual layout, fresh
    /// frames, contents copied (the model does eager copy instead of COW;
    /// the paper's fork hazard is about *translations*, not copy timing).
    pub fn fork_clone(&self, mem: &mut PhysMem) -> Result<AddressSpace, OsError> {
        let mut child = AddressSpace::new();
        child.mmap_cursor = self.mmap_cursor;
        child.vmas = self.vmas.clone();
        let mut page = vec![0u8; PAGE_SIZE as usize];
        for (&vpn, pte) in &self.table {
            let frame = mem.alloc(FrameState::Anon)?;
            mem.read(pte.frame.base(), &mut page)?;
            mem.write(frame.base(), &page)?;
            child.table.insert(
                vpn,
                Pte {
                    frame,
                    prot: pte.prot,
                },
            );
        }
        Ok(child)
    }

    /// Release everything (process exit).
    pub fn clear(&mut self, mem: &mut PhysMem) {
        for (_, pte) in std::mem::take(&mut self.table) {
            if mem.pin_count(pte.frame) == 0 {
                let _ = mem.free(pte.frame);
            } else {
                mem.mark_release_on_unpin(pte.frame);
            }
        }
        self.vmas.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, AddressSpace) {
        (PhysMem::new(256), AddressSpace::new())
    }

    #[test]
    fn map_translate_roundtrip() {
        let (mut mem, mut sp) = setup();
        let base = sp.map_anon(&mut mem, 3 * PAGE_SIZE, Prot::RW).unwrap();
        assert_eq!(sp.mapped_pages(), 3);
        let p0 = sp.translate(base).unwrap();
        let p1 = sp.translate(base.add(PAGE_SIZE)).unwrap();
        assert_eq!(p0.page_offset(), 0);
        assert_ne!(p0.pfn(), p1.pfn());
        let pmid = sp.translate(base.add(123)).unwrap();
        assert_eq!(pmid.raw(), p0.raw() + 123);
    }

    #[test]
    fn len_rounds_up_to_pages() {
        let (mut mem, mut sp) = setup();
        sp.map_anon(&mut mem, 1, Prot::RW).unwrap();
        assert_eq!(sp.mapped_pages(), 1);
        assert_eq!(sp.vmas().next().unwrap().len, PAGE_SIZE);
    }

    #[test]
    fn rw_through_space() {
        let (mut mem, mut sp) = setup();
        let base = sp.map_anon(&mut mem, 2 * PAGE_SIZE, Prot::RW).unwrap();
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        sp.write(&mut mem, base.add(PAGE_SIZE - 100), &data)
            .unwrap();
        let mut back = vec![0u8; 200];
        sp.read(&mem, base.add(PAGE_SIZE - 100), &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn protection_is_enforced() {
        let (mut mem, mut sp) = setup();
        let base = sp.map_anon(&mut mem, PAGE_SIZE, Prot::RO).unwrap();
        let mut buf = [0u8; 4];
        assert!(sp.read(&mem, base, &mut buf).is_ok());
        assert_eq!(
            sp.write(&mut mem, base, &buf),
            Err(OsError::ProtectionViolation)
        );
        sp.protect(base, PAGE_SIZE, Prot::RW).unwrap();
        assert!(sp.write(&mut mem, base, &buf).is_ok());
    }

    #[test]
    fn unmap_frees_frames() {
        let (mut mem, mut sp) = setup();
        let base = sp.map_anon(&mut mem, 4 * PAGE_SIZE, Prot::RW).unwrap();
        let before = mem.allocated_frames();
        sp.unmap(&mut mem, base.add(PAGE_SIZE), 2 * PAGE_SIZE)
            .unwrap();
        assert_eq!(mem.allocated_frames(), before - 2);
        assert_eq!(sp.translate(base.add(PAGE_SIZE)), Err(OsError::Fault));
        assert!(sp.translate(base).is_ok());
        assert!(sp.translate(base.add(3 * PAGE_SIZE)).is_ok());
        // VMA was split in two.
        assert_eq!(sp.vmas().count(), 2);
    }

    #[test]
    fn unmap_of_pinned_page_defers_free() {
        let (mut mem, mut sp) = setup();
        let base = sp.map_anon(&mut mem, PAGE_SIZE, Prot::RW).unwrap();
        let frame = sp.frame_of(base).unwrap();
        mem.pin(frame).unwrap();
        let before = mem.allocated_frames();
        sp.unmap(&mut mem, base, PAGE_SIZE).unwrap();
        // Still allocated: the NIC (pinner) keeps it alive.
        assert_eq!(mem.allocated_frames(), before);
        mem.unpin(frame).unwrap();
        // Last pin dropped: now it is gone.
        assert_eq!(mem.allocated_frames(), before - 1);
    }

    #[test]
    fn unmap_unaligned_is_rejected() {
        let (mut mem, mut sp) = setup();
        let base = sp.map_anon(&mut mem, PAGE_SIZE, Prot::RW).unwrap();
        assert_eq!(
            sp.unmap(&mut mem, base.add(1), PAGE_SIZE),
            Err(OsError::BadRange)
        );
        assert_eq!(sp.unmap(&mut mem, base, 100), Err(OsError::BadRange));
    }

    #[test]
    fn translate_range_merges_contiguous_frames() {
        let (mut mem, mut sp) = setup();
        // Fresh allocations from the watermark are physically consecutive.
        let base = sp.map_anon(&mut mem, 4 * PAGE_SIZE, Prot::RW).unwrap();
        let segs = sp.translate_range(base, 4 * PAGE_SIZE).unwrap();
        assert_eq!(segs.len(), 1, "consecutive frames merge into one segment");
        assert_eq!(PhysSeg::total_len(&segs), 4 * PAGE_SIZE);
    }

    #[test]
    fn translate_range_splits_noncontiguous_frames() {
        let (mut mem, mut sp) = setup();
        let a = sp.map_anon(&mut mem, PAGE_SIZE, Prot::RW).unwrap();
        // Burn a frame so the next mapping is not physically adjacent.
        let _hole = mem.alloc(FrameState::Kernel).unwrap();
        let b = sp.map_anon(&mut mem, PAGE_SIZE, Prot::RW).unwrap();
        assert_eq!(b.raw() - a.raw(), 2 * PAGE_SIZE, "guard page in between");
        // A range over both mappings is invalid (guard page faults).
        assert_eq!(
            sp.translate_range(a, 3 * PAGE_SIZE).map(|_| ()),
            Err(OsError::Fault)
        );
        let sa = sp.translate_range(a, PAGE_SIZE).unwrap();
        let sb = sp.translate_range(b, PAGE_SIZE).unwrap();
        assert_ne!(sa[0].addr.pfn() + 1, sb[0].addr.pfn());
    }

    #[test]
    fn fork_clone_copies_contents_to_fresh_frames() {
        let (mut mem, mut sp) = setup();
        let base = sp.map_anon(&mut mem, 2 * PAGE_SIZE, Prot::RW).unwrap();
        sp.write(&mut mem, base, b"parent data").unwrap();
        let child = sp.fork_clone(&mut mem).unwrap();
        // Same virtual address, different physical frame.
        assert_ne!(
            sp.translate(base).unwrap().pfn(),
            child.translate(base).unwrap().pfn()
        );
        let mut buf = [0u8; 11];
        child.read(&mem, base, &mut buf).unwrap();
        assert_eq!(&buf, b"parent data");
        // Writes to the child do not affect the parent.
        child.write(&mut mem, base, b"child  data").unwrap();
        sp.read(&mem, base, &mut buf).unwrap();
        assert_eq!(&buf, b"parent data");
    }

    #[test]
    fn clear_releases_all_frames() {
        let (mut mem, mut sp) = setup();
        sp.map_anon(&mut mem, 8 * PAGE_SIZE, Prot::RW).unwrap();
        sp.clear(&mut mem);
        assert_eq!(mem.allocated_frames(), 0);
        assert_eq!(sp.mapped_pages(), 0);
    }
}
