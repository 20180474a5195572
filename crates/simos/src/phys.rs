//! Physical memory: frames holding real bytes.
//!
//! The simulation is functional — every payload byte that crosses the network
//! is read from and written to these frames, so zero-copy paths can be
//! verified end-to-end as data-integrity properties.

use crate::addr::{PhysAddr, PhysSeg, PAGE_SIZE};
use crate::error::OsError;

/// Index of a physical frame; the frame's physical address is
/// `idx * PAGE_SIZE` (i.e. the index is the PFN).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FrameIdx(pub u32);

impl FrameIdx {
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr::new(self.0 as u64 * PAGE_SIZE)
    }

    #[inline]
    pub fn from_phys(p: PhysAddr) -> FrameIdx {
        FrameIdx(p.pfn() as u32)
    }
}

/// What a frame is currently used for.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FrameState {
    #[default]
    Free,
    /// Anonymous memory of a user address space.
    Anon,
    /// Kernel memory (direct-mapped, implicitly pinned).
    Kernel,
    /// A page-cache page: `(mount, inode, page index)`.
    PageCache(u32, u32, u64),
}

struct Frame {
    /// Lazily allocated contents; `None` reads as zeroes until first write.
    data: Option<Box<[u8; PAGE_SIZE as usize]>>,
    pin: u32,
    state: FrameState,
    /// Set when the owning mapping disappeared while the frame was pinned
    /// (e.g. `munmap` of a NIC-registered buffer): the frame is freed when
    /// the last pin drops, mirroring `put_page` semantics.
    release_on_unpin: bool,
}

impl Frame {
    fn empty() -> Self {
        Frame {
            data: None,
            pin: 0,
            state: FrameState::Free,
            release_on_unpin: false,
        }
    }
}

/// A node's physical memory.
pub struct PhysMem {
    /// Metadata of the frames handed out at least once: `[0, watermark)`,
    /// where the watermark is `frames.len()`. Frames above it were never
    /// allocated and have no record.
    frames: Vec<Frame>,
    /// Size of the memory in frames (`frames.len() <= total`).
    total: u32,
    /// Recycled single frames.
    free: Vec<FrameIdx>,
    allocated: u32,
}

impl PhysMem {
    /// A memory of `frames` page frames. Nothing is materialized up front:
    /// a frame's metadata appears when the allocator first hands it out and
    /// its contents when it is first written, so a large memory costs
    /// nothing until touched.
    ///
    /// A frame index falls in one of three ranges, and every accessor
    /// answers as if all `frames` records existed:
    ///
    /// * `[0, watermark)` — handed out at least once: its record decides;
    /// * `[watermark, frames)` — never allocated, so it reads as a
    ///   [`FrameState::Free`] frame with no pins: [`Self::pin`], [`Self::read`]
    ///   and [`Self::write`] fail with [`OsError::UseAfterFree`],
    ///   [`Self::free`] with [`OsError::DoubleFree`], [`Self::unpin`] with
    ///   [`OsError::NotPinned`];
    /// * `>= frames` — outside the memory: all five fail with
    ///   [`OsError::BadPhysAddr`] ([`Self::state_of`] / [`Self::pin_count`]
    ///   read `Free` / 0).
    pub fn new(frames: u32) -> Self {
        PhysMem {
            frames: Vec::new(),
            total: frames,
            free: Vec::new(),
            allocated: 0,
        }
    }

    /// Total frames.
    pub fn total_frames(&self) -> u32 {
        self.total
    }

    /// The record of frame `idx`: `Ok(None)` for a frame inside the memory
    /// that was never handed out (it reads as [`Frame::empty`]).
    fn frame(&self, idx: usize) -> Result<Option<&Frame>, OsError> {
        match self.frames.get(idx) {
            Some(f) => Ok(Some(f)),
            None if idx < self.total as usize => Ok(None),
            None => Err(OsError::BadPhysAddr),
        }
    }

    /// [`Self::frame`], mutably.
    fn frame_mut(&mut self, idx: FrameIdx) -> Result<Option<&mut Frame>, OsError> {
        if idx.0 >= self.total {
            return Err(OsError::BadPhysAddr);
        }
        Ok(self.frames.get_mut(idx.0 as usize))
    }

    /// Frames currently allocated.
    pub fn allocated_frames(&self) -> u32 {
        self.allocated
    }

    /// Allocate one frame.
    pub fn alloc(&mut self, state: FrameState) -> Result<FrameIdx, OsError> {
        debug_assert!(state != FrameState::Free);
        let idx = if let Some(idx) = self.free.pop() {
            idx
        } else if self.frames.len() < self.total as usize {
            self.frames.push(Frame::empty());
            FrameIdx(self.frames.len() as u32 - 1)
        } else {
            return Err(OsError::OutOfMemory);
        };
        let f = &mut self.frames[idx.0 as usize];
        f.state = state;
        f.pin = 0;
        f.data = None;
        f.release_on_unpin = false;
        self.allocated += 1;
        Ok(idx)
    }

    /// Allocate `n` physically contiguous frames (kernel buffers, DMA rings).
    pub fn alloc_contig(&mut self, n: u32, state: FrameState) -> Result<FrameIdx, OsError> {
        debug_assert!(state != FrameState::Free && n > 0);
        let first = self.frames.len();
        if first + n as usize > self.total as usize {
            return Err(OsError::OutOfMemory);
        }
        self.frames.resize_with(first + n as usize, || Frame {
            state,
            ..Frame::empty()
        });
        self.allocated += n;
        Ok(FrameIdx(first as u32))
    }

    /// Free a frame. Pinned frames cannot be freed.
    pub fn free(&mut self, idx: FrameIdx) -> Result<(), OsError> {
        let f = self.frame_mut(idx)?.ok_or(OsError::DoubleFree)?;
        if f.state == FrameState::Free {
            return Err(OsError::DoubleFree);
        }
        if f.pin > 0 {
            return Err(OsError::FramePinned);
        }
        f.state = FrameState::Free;
        f.data = None;
        self.allocated -= 1;
        self.free.push(idx);
        Ok(())
    }

    pub fn state_of(&self, idx: FrameIdx) -> FrameState {
        self.frames
            .get(idx.0 as usize)
            .map(|f| f.state)
            .unwrap_or(FrameState::Free)
    }

    pub fn pin_count(&self, idx: FrameIdx) -> u32 {
        self.frames.get(idx.0 as usize).map(|f| f.pin).unwrap_or(0)
    }

    /// Pin a frame in memory (it cannot be freed while pinned).
    pub fn pin(&mut self, idx: FrameIdx) -> Result<(), OsError> {
        let f = self.frame_mut(idx)?.ok_or(OsError::UseAfterFree)?;
        if f.state == FrameState::Free {
            return Err(OsError::UseAfterFree);
        }
        f.pin += 1;
        Ok(())
    }

    /// Release one pin. If the mapping that owned the frame is already gone
    /// (see [`PhysMem::mark_release_on_unpin`]) and this was the last pin,
    /// the frame is freed.
    pub fn unpin(&mut self, idx: FrameIdx) -> Result<(), OsError> {
        let f = self.frame_mut(idx)?.ok_or(OsError::NotPinned)?;
        if f.pin == 0 {
            return Err(OsError::NotPinned);
        }
        f.pin -= 1;
        if f.pin == 0 && f.release_on_unpin {
            f.release_on_unpin = false;
            self.free(idx)?;
        }
        Ok(())
    }

    /// Mark a pinned frame for release when its last pin drops. Used by
    /// `munmap`/process exit when the NIC still holds a registration on the
    /// page — the Linux `get_user_pages`/`put_page` life cycle.
    pub fn mark_release_on_unpin(&mut self, idx: FrameIdx) {
        let f = self.frames.get_mut(idx.0 as usize);
        debug_assert!(
            idx.0 >= self.total || f.as_ref().is_some_and(|f| f.pin > 0),
            "only pinned frames can defer their free"
        );
        if let Some(f) = f {
            f.release_on_unpin = true;
        }
    }

    fn check_span(&self, addr: PhysAddr, len: u64) -> Result<(), OsError> {
        if len == 0 {
            return Ok(());
        }
        let first = addr.pfn();
        let last = PhysAddr::new(addr.raw() + len - 1).pfn();
        for pfn in first..=last {
            match self.frame(pfn as usize)? {
                Some(f) if f.state != FrameState::Free => {}
                _ => return Err(OsError::UseAfterFree),
            }
        }
        Ok(())
    }

    /// Read bytes at a physical address (may span contiguous frames).
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), OsError> {
        self.check_span(addr, buf.len() as u64)?;
        let mut cur = addr.raw();
        let mut done = 0usize;
        while done < buf.len() {
            let pfn = (cur >> 12) as usize;
            let off = (cur & (PAGE_SIZE - 1)) as usize;
            let n = ((PAGE_SIZE as usize) - off).min(buf.len() - done);
            match &self.frames[pfn].data {
                Some(d) => buf[done..done + n].copy_from_slice(&d[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
            cur += n as u64;
        }
        Ok(())
    }

    /// Write bytes at a physical address (may span contiguous frames).
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), OsError> {
        self.check_span(addr, data.len() as u64)?;
        let mut cur = addr.raw();
        let mut done = 0usize;
        while done < data.len() {
            let pfn = (cur >> 12) as usize;
            let off = (cur & (PAGE_SIZE - 1)) as usize;
            let n = ((PAGE_SIZE as usize) - off).min(data.len() - done);
            let frame = &mut self.frames[pfn];
            let d = frame
                .data
                .get_or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]));
            d[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
            cur += n as u64;
        }
        Ok(())
    }

    /// Gather bytes described by a segment list into `out`.
    pub fn gather(&self, segs: &[PhysSeg], out: &mut Vec<u8>) -> Result<(), OsError> {
        for s in segs {
            let start = out.len();
            out.resize(start + s.len as usize, 0);
            self.read(s.addr, &mut out[start..])?;
        }
        Ok(())
    }

    /// Scatter `data` into the byte ranges described by `segs`.
    /// Returns the number of bytes written (min of data and segment space).
    pub fn scatter(&mut self, segs: &[PhysSeg], data: &[u8]) -> Result<u64, OsError> {
        let mut done = 0usize;
        for s in segs {
            if done >= data.len() {
                break;
            }
            let n = (s.len as usize).min(data.len() - done);
            self.write(s.addr, &data[done..done + n])?;
            done += n;
        }
        Ok(done as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut m = PhysMem::new(4);
        let a = m.alloc(FrameState::Kernel).unwrap();
        let b = m.alloc(FrameState::Anon).unwrap();
        assert_ne!(a, b);
        assert_eq!(m.allocated_frames(), 2);
        m.free(a).unwrap();
        assert_eq!(m.allocated_frames(), 1);
        // Recycled frame comes back.
        let c = m.alloc(FrameState::Kernel).unwrap();
        assert_eq!(c, a);
        assert_eq!(m.state_of(c), FrameState::Kernel);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut m = PhysMem::new(1);
        m.alloc(FrameState::Kernel).unwrap();
        assert_eq!(m.alloc(FrameState::Kernel), Err(OsError::OutOfMemory));
    }

    #[test]
    fn double_free_rejected() {
        let mut m = PhysMem::new(2);
        let a = m.alloc(FrameState::Anon).unwrap();
        m.free(a).unwrap();
        assert_eq!(m.free(a), Err(OsError::DoubleFree));
    }

    #[test]
    fn pinned_frames_cannot_be_freed() {
        let mut m = PhysMem::new(2);
        let a = m.alloc(FrameState::Anon).unwrap();
        m.pin(a).unwrap();
        assert_eq!(m.free(a), Err(OsError::FramePinned));
        m.unpin(a).unwrap();
        m.free(a).unwrap();
        assert_eq!(m.unpin(a), Err(OsError::NotPinned));
    }

    #[test]
    fn contiguous_allocation_is_contiguous() {
        let mut m = PhysMem::new(8);
        let first = m.alloc_contig(4, FrameState::Kernel).unwrap();
        for i in 0..4 {
            assert_eq!(m.state_of(FrameIdx(first.0 + i)), FrameState::Kernel);
        }
        // Writing across the whole run works (it is physically contiguous).
        let data = vec![0xAB; 3 * PAGE_SIZE as usize];
        m.write(first.base(), &data).unwrap();
        let mut back = vec![0; data.len()];
        m.read(first.base(), &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn reads_of_untouched_frames_are_zero() {
        let mut m = PhysMem::new(2);
        let a = m.alloc(FrameState::Anon).unwrap();
        let mut buf = [0xFFu8; 64];
        m.read(a.base(), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn rw_roundtrip_with_offset() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_contig(2, FrameState::Kernel).unwrap();
        let addr = a.base().add(PAGE_SIZE - 5); // straddles both frames
        m.write(addr, b"0123456789").unwrap();
        let mut buf = [0u8; 10];
        m.read(addr, &mut buf).unwrap();
        assert_eq!(&buf, b"0123456789");
    }

    #[test]
    fn access_to_free_frames_is_rejected() {
        let mut m = PhysMem::new(2);
        let a = m.alloc(FrameState::Anon).unwrap();
        m.free(a).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(m.read(a.base(), &mut buf), Err(OsError::UseAfterFree));
        assert_eq!(m.write(a.base(), &buf), Err(OsError::UseAfterFree));
        assert_eq!(m.pin(a), Err(OsError::UseAfterFree));
    }

    #[test]
    fn out_of_range_addresses_are_rejected() {
        let m = PhysMem::new(1);
        let mut buf = [0u8; 4];
        assert_eq!(
            m.read(PhysAddr::new(16 * PAGE_SIZE), &mut buf),
            Err(OsError::BadPhysAddr)
        );
    }

    /// Every accessor, for a never-allocated frame inside the memory and
    /// for one outside it — the answers a memory with all its frame
    /// records materialized up front gives.
    #[test]
    fn untouched_and_out_of_range_frames_answer_like_materialized_ones() {
        let mut m = PhysMem::new(8);
        let a = m.alloc(FrameState::Kernel).unwrap();
        m.alloc_contig(2, FrameState::Kernel).unwrap();
        let mut buf = [0u8; 4];

        // [watermark, total): a Free frame nobody ever held.
        for idx in [FrameIdx(3), FrameIdx(7)] {
            assert_eq!(m.state_of(idx), FrameState::Free);
            assert_eq!(m.pin_count(idx), 0);
            assert_eq!(m.pin(idx), Err(OsError::UseAfterFree));
            assert_eq!(m.unpin(idx), Err(OsError::NotPinned));
            assert_eq!(m.free(idx), Err(OsError::DoubleFree));
            assert_eq!(m.read(idx.base(), &mut buf), Err(OsError::UseAfterFree));
            assert_eq!(m.write(idx.base(), &buf), Err(OsError::UseAfterFree));
        }
        // A span running from a live frame into an untouched one, and one
        // running off the end of the memory through an untouched frame.
        let straddle = FrameIdx(2).base().add(PAGE_SIZE - 2);
        assert_eq!(m.read(straddle, &mut buf), Err(OsError::UseAfterFree));
        let off_end = FrameIdx(7).base().add(PAGE_SIZE - 2);
        assert_eq!(m.write(off_end, &buf), Err(OsError::UseAfterFree));

        // >= total: not a frame of this memory.
        for idx in [FrameIdx(8), FrameIdx(1 << 20)] {
            assert_eq!(m.state_of(idx), FrameState::Free);
            assert_eq!(m.pin_count(idx), 0);
            assert_eq!(m.pin(idx), Err(OsError::BadPhysAddr));
            assert_eq!(m.unpin(idx), Err(OsError::BadPhysAddr));
            assert_eq!(m.free(idx), Err(OsError::BadPhysAddr));
            assert_eq!(m.read(idx.base(), &mut buf), Err(OsError::BadPhysAddr));
            assert_eq!(m.write(idx.base(), &buf), Err(OsError::BadPhysAddr));
            m.mark_release_on_unpin(idx); // silently ignored
        }
        assert_eq!(m.read(FrameIdx(8).base(), &mut []), Ok(()), "empty span");

        // None of the probing materialized or leaked anything.
        assert_eq!(m.total_frames(), 8);
        assert_eq!(m.allocated_frames(), 3);
        m.free(a).unwrap();
        assert_eq!(m.alloc(FrameState::Anon), Ok(a), "recycled first");
        assert_eq!(
            m.alloc(FrameState::Anon),
            Ok(FrameIdx(3)),
            "then the watermark"
        );
        assert_eq!(
            m.alloc_contig(5, FrameState::Kernel),
            Err(OsError::OutOfMemory),
            "4 frames left above the watermark"
        );
        assert_eq!(m.alloc_contig(4, FrameState::Kernel), Ok(FrameIdx(4)));
        assert_eq!(m.alloc(FrameState::Anon), Err(OsError::OutOfMemory));
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut m = PhysMem::new(4);
        let a = m.alloc(FrameState::Kernel).unwrap();
        let b = m.alloc(FrameState::Kernel).unwrap();
        let segs = [
            PhysSeg::new(a.base().add(10), 20),
            PhysSeg::new(b.base(), 30),
        ];
        let data: Vec<u8> = (0..50u8).collect();
        assert_eq!(m.scatter(&segs, &data).unwrap(), 50);
        let mut out = Vec::new();
        m.gather(&segs, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn scatter_truncates_to_segments() {
        let mut m = PhysMem::new(2);
        let a = m.alloc(FrameState::Kernel).unwrap();
        let segs = [PhysSeg::new(a.base(), 8)];
        let written = m.scatter(&segs, &[1u8; 100]).unwrap();
        assert_eq!(written, 8);
    }
}
