//! The ext2-like file system: block allocation, inode block maps with
//! single and double indirection, directories, and the full operation set
//! the ORFS server exposes.
//!
//! Data and indirect-pointer blocks are real 4 kB blocks (indirect tables
//! are stored *in* blocks as little-endian u32 arrays, as on disk);
//! directories are kept as in-core ordered maps for deterministic readdir —
//! a documented simplification of ext2's dirent packing.

use std::collections::BTreeMap;

use knet_simcore::SimTime;

use crate::types::{
    Attr, BlockNo, DirEntry, FileType, FsError, FsTiming, Inode, InodeNo, BLOCK_SIZE,
    DIRECT_BLOCKS, MAX_FILE_BLOCKS, MAX_NAME_LEN, PTRS_PER_BLOCK,
};

/// Accumulated cost of operations since the last drain; the ORFS server
/// charges this to its CPU.
#[derive(Clone, Copy, Debug, Default)]
pub struct FsCost {
    pub time: SimTime,
}

/// Usage statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct FsStats {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub lookups: u64,
}

/// The in-memory ext2-like file system.
pub struct SimFs {
    timing: FsTiming,
    inodes: Vec<Option<Inode>>,
    free_inodes: Vec<u32>,
    blocks: Vec<Option<Box<[u8; BLOCK_SIZE as usize]>>>,
    free_blocks: Vec<u32>,
    block_watermark: u32,
    /// Directory contents: ino → (name → child ino). In-core representation
    /// of what ext2 packs into directory data blocks.
    dirs: BTreeMap<u32, BTreeMap<String, InodeNo>>,
    /// Cost accumulator drained by the caller.
    pending_cost: SimTime,
    pub stats: FsStats,
}

impl SimFs {
    /// A file system with `data_blocks` 4 kB blocks and `max_inodes` inodes.
    pub fn new(data_blocks: u32, max_inodes: u32, timing: FsTiming) -> Self {
        let mut fs = SimFs {
            timing,
            inodes: vec![None; max_inodes as usize + 1],
            free_inodes: Vec::new(),
            blocks: Vec::new(),
            free_blocks: Vec::new(),
            block_watermark: 1, // block 0 is reserved (NULL pointer)
            dirs: BTreeMap::new(),
            pending_cost: SimTime::ZERO,
            stats: FsStats::default(),
        };
        fs.blocks.resize_with(data_blocks as usize + 1, || None);
        // Root directory.
        let root = Inode::new(InodeNo::ROOT, FileType::Directory, 0o755, SimTime::ZERO);
        fs.inodes[1] = Some(root);
        fs.dirs.insert(1, BTreeMap::new());
        fs
    }

    /// Create a file system with defaults sized for the benchmarks
    /// (256 MB of blocks).
    pub fn with_defaults() -> Self {
        SimFs::new(65_536, 16_384, FsTiming::default())
    }

    /// Drain the accumulated storage cost (the server charges it).
    pub fn take_cost(&mut self) -> SimTime {
        std::mem::take(&mut self.pending_cost)
    }

    fn charge(&mut self, t: SimTime) {
        self.pending_cost += t;
    }

    // ---- inode & block allocation ------------------------------------

    fn alloc_inode(
        &mut self,
        ftype: FileType,
        mode: u16,
        now: SimTime,
    ) -> Result<InodeNo, FsError> {
        self.charge(self.timing.alloc_op);
        let idx = if let Some(i) = self.free_inodes.pop() {
            i as usize
        } else {
            // Indices 0 (reserved, the NULL inode) and 1 (root) never free.
            match self
                .inodes
                .iter()
                .enumerate()
                .skip(2)
                .find(|(_, i)| i.is_none())
            {
                Some((i, _)) => i,
                None => return Err(FsError::NoInodes),
            }
        };
        let ino = InodeNo(idx as u32);
        self.inodes[idx] = Some(Inode::new(ino, ftype, mode, now));
        if ftype == FileType::Directory {
            self.dirs.insert(ino.0, BTreeMap::new());
        }
        Ok(ino)
    }

    fn alloc_block(&mut self) -> Result<BlockNo, FsError> {
        self.charge(self.timing.alloc_op);
        if let Some(b) = self.free_blocks.pop() {
            return Ok(BlockNo(b));
        }
        if (self.block_watermark as usize) < self.blocks.len() {
            let b = self.block_watermark;
            self.block_watermark += 1;
            Ok(BlockNo(b))
        } else {
            Err(FsError::NoSpace)
        }
    }

    fn free_block(&mut self, b: u32) {
        if b != 0 {
            self.blocks[b as usize] = None;
            self.free_blocks.push(b);
        }
    }

    /// Allocated data + indirect blocks in use.
    pub fn blocks_in_use(&self) -> u64 {
        (self.block_watermark as u64 - 1) - self.free_blocks.len() as u64
    }

    fn block_data(&mut self, b: BlockNo) -> &mut [u8; BLOCK_SIZE as usize] {
        self.blocks[b.0 as usize].get_or_insert_with(|| Box::new([0u8; BLOCK_SIZE as usize]))
    }

    fn read_ptr(&mut self, table_block: u32, idx: u64) -> u32 {
        self.charge(self.timing.block_read);
        let data = self.block_data(BlockNo(table_block));
        let off = idx as usize * 4;
        u32::from_le_bytes(data[off..off + 4].try_into().expect("4 bytes"))
    }

    fn write_ptr(&mut self, table_block: u32, idx: u64, val: u32) {
        self.charge(self.timing.block_write);
        let data = self.block_data(BlockNo(table_block));
        let off = idx as usize * 4;
        data[off..off + 4].copy_from_slice(&val.to_le_bytes());
    }

    // ---- inode access -------------------------------------------------

    pub fn inode(&self, ino: InodeNo) -> Result<&Inode, FsError> {
        self.inodes
            .get(ino.0 as usize)
            .and_then(|i| i.as_ref())
            .ok_or(FsError::NotFound)
    }

    fn inode_mut(&mut self, ino: InodeNo) -> Result<&mut Inode, FsError> {
        self.inodes
            .get_mut(ino.0 as usize)
            .and_then(|i| i.as_mut())
            .ok_or(FsError::NotFound)
    }

    /// Map a file block index to its data block, optionally allocating the
    /// path (direct → single indirect → double indirect).
    fn map_block(
        &mut self,
        ino: InodeNo,
        file_block: u64,
        allocate: bool,
    ) -> Result<Option<BlockNo>, FsError> {
        if file_block >= MAX_FILE_BLOCKS {
            return Err(FsError::FileTooBig);
        }
        // Direct.
        if (file_block as usize) < DIRECT_BLOCKS {
            let cur = self.inode(ino)?.direct[file_block as usize];
            if cur != 0 {
                return Ok(Some(BlockNo(cur)));
            }
            if !allocate {
                return Ok(None);
            }
            let b = self.alloc_block()?;
            let node = self.inode_mut(ino)?;
            node.direct[file_block as usize] = b.0;
            node.blocks_allocated += 1;
            return Ok(Some(b));
        }
        let mut idx = file_block - DIRECT_BLOCKS as u64;
        // Single indirect.
        if idx < PTRS_PER_BLOCK {
            let mut table = self.inode(ino)?.indirect;
            if table == 0 {
                if !allocate {
                    return Ok(None);
                }
                let b = self.alloc_block()?;
                let node = self.inode_mut(ino)?;
                node.indirect = b.0;
                node.blocks_allocated += 1;
                table = b.0;
            }
            let cur = self.read_ptr(table, idx);
            if cur != 0 {
                return Ok(Some(BlockNo(cur)));
            }
            if !allocate {
                return Ok(None);
            }
            let b = self.alloc_block()?;
            self.write_ptr(table, idx, b.0);
            self.inode_mut(ino)?.blocks_allocated += 1;
            return Ok(Some(b));
        }
        idx -= PTRS_PER_BLOCK;
        // Double indirect.
        let mut l1 = self.inode(ino)?.double_indirect;
        if l1 == 0 {
            if !allocate {
                return Ok(None);
            }
            let b = self.alloc_block()?;
            let node = self.inode_mut(ino)?;
            node.double_indirect = b.0;
            node.blocks_allocated += 1;
            l1 = b.0;
        }
        let (outer, inner) = (idx / PTRS_PER_BLOCK, idx % PTRS_PER_BLOCK);
        let mut l2 = self.read_ptr(l1, outer);
        if l2 == 0 {
            if !allocate {
                return Ok(None);
            }
            let b = self.alloc_block()?;
            self.write_ptr(l1, outer, b.0);
            self.inode_mut(ino)?.blocks_allocated += 1;
            l2 = b.0;
        }
        let cur = self.read_ptr(l2, inner);
        if cur != 0 {
            return Ok(Some(BlockNo(cur)));
        }
        if !allocate {
            return Ok(None);
        }
        let b = self.alloc_block()?;
        self.write_ptr(l2, inner, b.0);
        self.inode_mut(ino)?.blocks_allocated += 1;
        Ok(Some(b))
    }

    // ---- path resolution ----------------------------------------------

    fn split_path(path: &str) -> Result<Vec<&str>, FsError> {
        if !path.starts_with('/') {
            return Err(FsError::InvalidPath);
        }
        let parts: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        for p in &parts {
            if p.len() > MAX_NAME_LEN {
                return Err(FsError::NameTooLong);
            }
        }
        Ok(parts)
    }

    /// Resolve an absolute path to an inode.
    pub fn lookup_path(&mut self, path: &str) -> Result<InodeNo, FsError> {
        let parts = Self::split_path(path)?;
        let mut cur = InodeNo::ROOT;
        for part in parts {
            cur = self.lookup(cur, part)?;
        }
        Ok(cur)
    }

    /// Look one name up in a directory.
    pub fn lookup(&mut self, dir: InodeNo, name: &str) -> Result<InodeNo, FsError> {
        self.charge(self.timing.lookup);
        self.stats.lookups += 1;
        if self.inode(dir)?.ftype != FileType::Directory {
            return Err(FsError::NotDirectory);
        }
        self.dirs
            .get(&dir.0)
            .and_then(|d| d.get(name))
            .copied()
            .ok_or(FsError::NotFound)
    }

    fn parent_of<'p>(&mut self, path: &'p str) -> Result<(InodeNo, &'p str), FsError> {
        let parts = Self::split_path(path)?;
        let Some((name, dirs)) = parts.split_last() else {
            return Err(FsError::InvalidPath);
        };
        let mut cur = InodeNo::ROOT;
        for part in dirs {
            cur = self.lookup(cur, part)?;
        }
        Ok((cur, name))
    }

    // ---- namespace operations ------------------------------------------

    fn add_entry(&mut self, dir: InodeNo, name: &str, child: InodeNo) -> Result<(), FsError> {
        if self.inode(dir)?.ftype != FileType::Directory {
            return Err(FsError::NotDirectory);
        }
        let entries = self.dirs.get_mut(&dir.0).ok_or(FsError::NotDirectory)?;
        if entries.contains_key(name) {
            return Err(FsError::Exists);
        }
        entries.insert(name.to_string(), child);
        self.charge(self.timing.block_write);
        Ok(())
    }

    /// Create a regular file; returns its inode.
    pub fn create(&mut self, path: &str, mode: u16, now: SimTime) -> Result<InodeNo, FsError> {
        let (dir, name) = self.parent_of(path)?;
        if self.dirs.get(&dir.0).map(|d| d.contains_key(name)) == Some(true) {
            return Err(FsError::Exists);
        }
        let ino = self.alloc_inode(FileType::Regular, mode, now)?;
        self.add_entry(dir, name, ino)?;
        self.touch_mtime(dir, now);
        Ok(ino)
    }

    /// Create a directory.
    pub fn mkdir(&mut self, path: &str, mode: u16, now: SimTime) -> Result<InodeNo, FsError> {
        let (dir, name) = self.parent_of(path)?;
        if self.dirs.get(&dir.0).map(|d| d.contains_key(name)) == Some(true) {
            return Err(FsError::Exists);
        }
        let ino = self.alloc_inode(FileType::Directory, mode, now)?;
        self.add_entry(dir, name, ino)?;
        self.inode_mut(dir)?.nlink += 1; // child's ".."
        self.touch_mtime(dir, now);
        Ok(ino)
    }

    /// Create a symlink.
    pub fn symlink(&mut self, path: &str, target: &str, now: SimTime) -> Result<InodeNo, FsError> {
        let (dir, name) = self.parent_of(path)?;
        let ino = self.alloc_inode(FileType::Symlink, 0o777, now)?;
        self.inode_mut(ino)?.symlink_target = Some(target.to_string());
        self.inode_mut(ino)?.size = target.len() as u64;
        self.add_entry(dir, name, ino)?;
        Ok(ino)
    }

    /// Read a symlink's target.
    pub fn readlink(&mut self, ino: InodeNo) -> Result<String, FsError> {
        self.charge(self.timing.attr_op);
        let node = self.inode(ino)?;
        node.symlink_target.clone().ok_or(FsError::NotSymlink)
    }

    /// Hard-link an existing file at a new path.
    pub fn link(&mut self, existing: InodeNo, path: &str, now: SimTime) -> Result<(), FsError> {
        if self.inode(existing)?.ftype == FileType::Directory {
            return Err(FsError::IsDirectory);
        }
        let (dir, name) = self.parent_of(path)?;
        self.add_entry(dir, name, existing)?;
        self.inode_mut(existing)?.nlink += 1;
        self.touch_mtime(dir, now);
        Ok(())
    }

    /// Remove a file or symlink name; data is freed when the last link goes.
    pub fn unlink(&mut self, path: &str, now: SimTime) -> Result<(), FsError> {
        let (dir, name) = self.parent_of(path)?;
        let ino = self.lookup(dir, name)?;
        if self.inode(ino)?.ftype == FileType::Directory {
            return Err(FsError::IsDirectory);
        }
        self.dirs.get_mut(&dir.0).expect("checked").remove(name);
        self.touch_mtime(dir, now);
        let nlink = {
            let node = self.inode_mut(ino)?;
            node.nlink -= 1;
            node.nlink
        };
        if nlink == 0 {
            self.truncate(ino, 0, now)?;
            self.inodes[ino.0 as usize] = None;
            self.free_inodes.push(ino.0);
        }
        Ok(())
    }

    /// Remove an empty directory.
    pub fn rmdir(&mut self, path: &str, now: SimTime) -> Result<(), FsError> {
        let (dir, name) = self.parent_of(path)?;
        let ino = self.lookup(dir, name)?;
        if self.inode(ino)?.ftype != FileType::Directory {
            return Err(FsError::NotDirectory);
        }
        if !self.dirs.get(&ino.0).map(|d| d.is_empty()).unwrap_or(true) {
            return Err(FsError::NotEmpty);
        }
        self.dirs.remove(&ino.0);
        self.dirs.get_mut(&dir.0).expect("parent").remove(name);
        self.inode_mut(dir)?.nlink -= 1;
        self.inodes[ino.0 as usize] = None;
        self.free_inodes.push(ino.0);
        self.touch_mtime(dir, now);
        Ok(())
    }

    /// Rename (within the same fs; replaces an existing non-directory
    /// target, as POSIX requires).
    pub fn rename(&mut self, from: &str, to: &str, now: SimTime) -> Result<(), FsError> {
        let (fdir, fname) = self.parent_of(from)?;
        let fname = fname.to_string();
        let ino = self.lookup(fdir, &fname)?;
        let (tdir, tname) = self.parent_of(to)?;
        let tname = tname.to_string();
        if let Ok(existing) = self.lookup(tdir, &tname) {
            if self.inode(existing)?.ftype == FileType::Directory {
                return Err(FsError::IsDirectory);
            }
            self.unlink(to, now)?;
        }
        self.dirs.get_mut(&fdir.0).expect("parent").remove(&fname);
        self.add_entry(tdir, &tname, ino)?;
        if self.inode(ino)?.ftype == FileType::Directory && fdir != tdir {
            self.inode_mut(fdir)?.nlink -= 1;
            self.inode_mut(tdir)?.nlink += 1;
        }
        self.touch_mtime(fdir, now);
        self.touch_mtime(tdir, now);
        Ok(())
    }

    /// Directory listing, in name order (deterministic).
    pub fn readdir(&mut self, dir: InodeNo) -> Result<Vec<DirEntry>, FsError> {
        self.charge(self.timing.block_read);
        if self.inode(dir)?.ftype != FileType::Directory {
            return Err(FsError::NotDirectory);
        }
        let entries: Vec<(String, InodeNo)> = self
            .dirs
            .get(&dir.0)
            .ok_or(FsError::NotDirectory)?
            .iter()
            .map(|(n, i)| (n.clone(), *i))
            .collect();
        let mut out = Vec::with_capacity(entries.len());
        for (name, ino) in entries {
            out.push(DirEntry {
                name,
                ftype: self.inode(ino)?.ftype,
                ino,
            });
        }
        Ok(out)
    }

    // ---- attributes ------------------------------------------------------

    pub fn getattr(&mut self, ino: InodeNo) -> Result<Attr, FsError> {
        self.charge(self.timing.attr_op);
        Ok(self.inode(ino)?.attr())
    }

    pub fn setattr_mode(&mut self, ino: InodeNo, mode: u16, now: SimTime) -> Result<(), FsError> {
        self.charge(self.timing.attr_op);
        let node = self.inode_mut(ino)?;
        node.mode = mode;
        node.ctime = now;
        Ok(())
    }

    fn touch_mtime(&mut self, ino: InodeNo, now: SimTime) {
        if let Ok(node) = self.inode_mut(ino) {
            node.mtime = now;
            node.ctime = now;
        }
    }

    // ---- data --------------------------------------------------------------

    /// Read up to `buf.len()` bytes at `offset`; returns bytes read
    /// (0 at EOF). Holes read as zeroes.
    pub fn read(
        &mut self,
        ino: InodeNo,
        offset: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<usize, FsError> {
        let node = self.inode(ino)?;
        if node.ftype == FileType::Directory {
            return Err(FsError::IsDirectory);
        }
        let size = node.size;
        if offset >= size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(size - offset) as usize;
        let mut done = 0usize;
        while done < want {
            let pos = offset + done as u64;
            let fblock = pos / BLOCK_SIZE;
            let boff = (pos % BLOCK_SIZE) as usize;
            let n = (BLOCK_SIZE as usize - boff).min(want - done);
            self.charge(self.timing.block_read);
            match self.map_block(ino, fblock, false)? {
                Some(b) => {
                    let data = self.block_data(b);
                    buf[done..done + n].copy_from_slice(&data[boff..boff + n]);
                }
                None => buf[done..done + n].fill(0),
            }
            done += n;
        }
        self.inode_mut(ino)?.atime = now;
        self.stats.reads += 1;
        self.stats.bytes_read += want as u64;
        Ok(want)
    }

    /// Write `data` at `offset`, extending the file as needed.
    pub fn write(
        &mut self,
        ino: InodeNo,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<usize, FsError> {
        if self.inode(ino)?.ftype == FileType::Directory {
            return Err(FsError::IsDirectory);
        }
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let fblock = pos / BLOCK_SIZE;
            let boff = (pos % BLOCK_SIZE) as usize;
            let n = (BLOCK_SIZE as usize - boff).min(data.len() - done);
            self.charge(self.timing.block_write);
            let b = self
                .map_block(ino, fblock, true)?
                .expect("allocating map never returns None");
            let block = self.block_data(b);
            block[boff..boff + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
        let end = offset + data.len() as u64;
        let node = self.inode_mut(ino)?;
        if end > node.size {
            node.size = end;
        }
        node.mtime = now;
        node.ctime = now;
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        Ok(data.len())
    }

    /// Truncate to `new_size` (only shrinking frees blocks; growing just
    /// sets the size — sparse tail).
    pub fn truncate(&mut self, ino: InodeNo, new_size: u64, now: SimTime) -> Result<(), FsError> {
        let old_blocks = self.inode(ino)?.size.div_ceil(BLOCK_SIZE);
        let new_blocks = new_size.div_ceil(BLOCK_SIZE);
        if new_size == 0 {
            // Free everything, including indirect tables.
            let (direct, indirect, dindirect) = {
                let node = self.inode(ino)?;
                (node.direct, node.indirect, node.double_indirect)
            };
            for b in direct {
                self.free_block(b);
            }
            if indirect != 0 {
                for i in 0..PTRS_PER_BLOCK {
                    let p = self.read_ptr(indirect, i);
                    self.free_block(p);
                }
                self.free_block(indirect);
            }
            if dindirect != 0 {
                for i in 0..PTRS_PER_BLOCK {
                    let l2 = self.read_ptr(dindirect, i);
                    if l2 != 0 {
                        for j in 0..PTRS_PER_BLOCK {
                            let p = self.read_ptr(l2, j);
                            self.free_block(p);
                        }
                        self.free_block(l2);
                    }
                }
                self.free_block(dindirect);
            }
            let node = self.inode_mut(ino)?;
            node.direct = [0; DIRECT_BLOCKS];
            node.indirect = 0;
            node.double_indirect = 0;
            node.blocks_allocated = 0;
        } else if new_blocks < old_blocks {
            // Partial shrink: free the tail data blocks (indirect tables are
            // kept — ext2 frees them lazily too).
            for fb in new_blocks..old_blocks {
                if let Some(b) = self.map_block(ino, fb, false)? {
                    self.free_block(b.0);
                    self.clear_mapping(ino, fb)?;
                    self.inode_mut(ino)?.blocks_allocated -= 1;
                }
            }
        }
        // POSIX: bytes past the new EOF must read as zero even if the file
        // grows again later — zero the tail of the kept partial block.
        if new_size < self.inode(ino)?.size && !new_size.is_multiple_of(BLOCK_SIZE) {
            if let Some(b) = self.map_block(ino, new_size / BLOCK_SIZE, false)? {
                self.charge(self.timing.block_write);
                let off = (new_size % BLOCK_SIZE) as usize;
                self.block_data(b)[off..].fill(0);
            }
        }
        let node = self.inode_mut(ino)?;
        node.size = new_size;
        node.mtime = now;
        node.ctime = now;
        Ok(())
    }

    fn clear_mapping(&mut self, ino: InodeNo, file_block: u64) -> Result<(), FsError> {
        if (file_block as usize) < DIRECT_BLOCKS {
            self.inode_mut(ino)?.direct[file_block as usize] = 0;
            return Ok(());
        }
        let mut idx = file_block - DIRECT_BLOCKS as u64;
        if idx < PTRS_PER_BLOCK {
            let table = self.inode(ino)?.indirect;
            if table != 0 {
                self.write_ptr(table, idx, 0);
            }
            return Ok(());
        }
        idx -= PTRS_PER_BLOCK;
        let l1 = self.inode(ino)?.double_indirect;
        if l1 != 0 {
            let l2 = self.read_ptr(l1, idx / PTRS_PER_BLOCK);
            if l2 != 0 {
                self.write_ptr(l2, idx % PTRS_PER_BLOCK, 0);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> SimFs {
        SimFs::new(4096, 512, FsTiming::default())
    }

    const T: SimTime = SimTime::ZERO;

    #[test]
    fn create_write_read_roundtrip() {
        let mut f = fs();
        let ino = f.create("/hello.txt", 0o644, T).unwrap();
        f.write(ino, 0, b"hello world", T).unwrap();
        let mut buf = [0u8; 32];
        let n = f.read(ino, 0, &mut buf, T).unwrap();
        assert_eq!(n, 11);
        assert_eq!(&buf[..n], b"hello world");
        assert_eq!(f.getattr(ino).unwrap().size, 11);
    }

    #[test]
    fn path_resolution_walks_directories() {
        let mut f = fs();
        f.mkdir("/a", 0o755, T).unwrap();
        f.mkdir("/a/b", 0o755, T).unwrap();
        let ino = f.create("/a/b/c.dat", 0o644, T).unwrap();
        assert_eq!(f.lookup_path("/a/b/c.dat").unwrap(), ino);
        assert_eq!(f.lookup_path("/a/b/missing"), Err(FsError::NotFound));
        assert_eq!(f.lookup_path("relative"), Err(FsError::InvalidPath));
    }

    #[test]
    fn large_file_uses_indirect_blocks() {
        let mut f = fs();
        let ino = f.create("/big", 0o644, T).unwrap();
        // Write past the direct range (12 blocks = 48 kB) and into single
        // indirection, with a distinctive pattern per block.
        let block: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        for fb in 0..64u64 {
            f.write(ino, fb * BLOCK_SIZE, &block, T).unwrap();
        }
        assert!(f.inode(ino).unwrap().indirect != 0);
        let mut buf = vec![0u8; BLOCK_SIZE as usize];
        f.read(ino, 40 * BLOCK_SIZE, &mut buf, T).unwrap();
        assert_eq!(buf, block);
        assert_eq!(f.getattr(ino).unwrap().size, 64 * BLOCK_SIZE);
    }

    #[test]
    fn double_indirect_reach() {
        let mut f = SimFs::new(16_384, 64, FsTiming::default());
        let ino = f.create("/huge", 0o644, T).unwrap();
        // One block far past the single-indirect range
        // (12 + 1024 blocks = 4 MB + 48 kB).
        let offset = (DIRECT_BLOCKS as u64 + PTRS_PER_BLOCK + 5000) * BLOCK_SIZE;
        f.write(ino, offset, b"far away", T).unwrap();
        assert!(f.inode(ino).unwrap().double_indirect != 0);
        let mut buf = [0u8; 8];
        f.read(ino, offset, &mut buf, T).unwrap();
        assert_eq!(&buf, b"far away");
        // The hole before it reads as zeroes.
        let mut hole = [1u8; 16];
        f.read(ino, offset - 64, &mut hole, T).unwrap();
        assert!(hole.iter().all(|&b| b == 0));
    }

    #[test]
    fn sparse_files_read_zeroes() {
        let mut f = fs();
        let ino = f.create("/sparse", 0o644, T).unwrap();
        f.write(ino, 10 * BLOCK_SIZE, b"tail", T).unwrap();
        let mut buf = [9u8; 8];
        f.read(ino, BLOCK_SIZE, &mut buf, T).unwrap();
        assert_eq!(buf, [0u8; 8]);
        // Only 1 data block allocated despite an 11-block size.
        assert_eq!(f.inode(ino).unwrap().blocks_allocated, 1);
    }

    #[test]
    fn unlink_frees_space_when_last_link_drops() {
        let mut f = fs();
        let ino = f.create("/f", 0o644, T).unwrap();
        f.write(ino, 0, &vec![7u8; 3 * BLOCK_SIZE as usize], T)
            .unwrap();
        let used = f.blocks_in_use();
        assert_eq!(used, 3);
        f.link(ino, "/g", T).unwrap();
        f.unlink("/f", T).unwrap();
        assert_eq!(f.blocks_in_use(), 3, "second link keeps data alive");
        let via_g = f.lookup_path("/g").unwrap();
        assert_eq!(via_g, ino);
        f.unlink("/g", T).unwrap();
        assert_eq!(f.blocks_in_use(), 0);
        assert_eq!(f.lookup_path("/g"), Err(FsError::NotFound));
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut f = fs();
        f.mkdir("/d", 0o755, T).unwrap();
        f.create("/d/x", 0o644, T).unwrap();
        assert_eq!(f.rmdir("/d", T), Err(FsError::NotEmpty));
        f.unlink("/d/x", T).unwrap();
        f.rmdir("/d", T).unwrap();
        assert_eq!(f.lookup_path("/d"), Err(FsError::NotFound));
    }

    #[test]
    fn readdir_is_sorted_and_typed() {
        let mut f = fs();
        f.create("/b", 0o644, T).unwrap();
        f.mkdir("/a", 0o755, T).unwrap();
        f.symlink("/c", "/b", T).unwrap();
        let entries = f.readdir(InodeNo::ROOT).unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(entries[0].ftype, FileType::Directory);
        assert_eq!(entries[1].ftype, FileType::Regular);
        assert_eq!(entries[2].ftype, FileType::Symlink);
    }

    #[test]
    fn rename_replaces_target() {
        let mut f = fs();
        let a = f.create("/a", 0o644, T).unwrap();
        f.write(a, 0, b"AAA", T).unwrap();
        let b = f.create("/b", 0o644, T).unwrap();
        f.write(b, 0, b"BBB", T).unwrap();
        f.rename("/a", "/b", T).unwrap();
        assert_eq!(f.lookup_path("/a"), Err(FsError::NotFound));
        let ino = f.lookup_path("/b").unwrap();
        assert_eq!(ino, a);
        let mut buf = [0u8; 3];
        f.read(ino, 0, &mut buf, T).unwrap();
        assert_eq!(&buf, b"AAA");
    }

    #[test]
    fn symlink_roundtrip() {
        let mut f = fs();
        f.create("/target", 0o644, T).unwrap();
        let l = f.symlink("/lnk", "/target", T).unwrap();
        assert_eq!(f.readlink(l).unwrap(), "/target");
        let reg = f.lookup_path("/target").unwrap();
        assert_eq!(f.readlink(reg), Err(FsError::NotSymlink));
    }

    #[test]
    fn truncate_shrinks_and_frees() {
        let mut f = fs();
        let ino = f.create("/t", 0o644, T).unwrap();
        f.write(ino, 0, &vec![5u8; 8 * BLOCK_SIZE as usize], T)
            .unwrap();
        assert_eq!(f.blocks_in_use(), 8);
        f.truncate(ino, 2 * BLOCK_SIZE + 100, T).unwrap();
        assert_eq!(f.blocks_in_use(), 3);
        assert_eq!(f.getattr(ino).unwrap().size, 2 * BLOCK_SIZE + 100);
        // Reading past EOF returns 0.
        let mut buf = [0u8; 8];
        assert_eq!(f.read(ino, 5 * BLOCK_SIZE, &mut buf, T).unwrap(), 0);
    }

    #[test]
    fn out_of_space_is_reported() {
        let mut f = SimFs::new(4, 16, FsTiming::default());
        let ino = f.create("/f", 0o644, T).unwrap();
        let big = vec![1u8; 16 * BLOCK_SIZE as usize];
        assert_eq!(f.write(ino, 0, &big, T), Err(FsError::NoSpace));
    }

    #[test]
    fn costs_accumulate_and_drain() {
        let mut f = fs();
        let ino = f.create("/f", 0o644, T).unwrap();
        f.write(ino, 0, &[1u8; 100], T).unwrap();
        let cost = f.take_cost();
        assert!(cost > SimTime::ZERO);
        assert_eq!(f.take_cost(), SimTime::ZERO, "drained");
    }

    #[test]
    fn mkdir_updates_link_counts() {
        let mut f = fs();
        let root_links = f.getattr(InodeNo::ROOT).unwrap().nlink;
        f.mkdir("/d", 0o755, T).unwrap();
        assert_eq!(f.getattr(InodeNo::ROOT).unwrap().nlink, root_links + 1);
        let d = f.lookup_path("/d").unwrap();
        assert_eq!(f.getattr(d).unwrap().nlink, 2);
        f.rmdir("/d", T).unwrap();
        assert_eq!(f.getattr(InodeNo::ROOT).unwrap().nlink, root_links);
    }
}

#[cfg(test)]
mod truncate_tail_tests {
    use super::*;

    // Regression found by the property suite: shrink must zero the stale
    // tail of the kept partial block so a later grow reads zeroes.
    #[test]
    fn shrink_then_grow_reads_zeroes() {
        let mut f = SimFs::new(1024, 64, FsTiming::default());
        let t = SimTime::ZERO;
        let ino = f.create("/f", 0o644, t).unwrap();
        f.write(ino, 0, &vec![0xAB; 24_000], t).unwrap();
        f.truncate(ino, 22_749, t).unwrap();
        f.truncate(ino, 30_000, t).unwrap();
        let mut buf = vec![0u8; 30_000];
        f.read(ino, 0, &mut buf, t).unwrap();
        assert!(buf[..22_749].iter().all(|&b| b == 0xAB));
        assert!(buf[22_749..].iter().all(|&b| b == 0), "stale tail bytes");
    }
}
