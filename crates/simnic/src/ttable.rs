//! The on-card address-translation table.
//!
//! First introduced by U-Net/MM (paper §2.2.1): the host registers
//! virtual→physical page translations into the NIC so later sends can pass
//! virtual addresses which the card resolves without OS help. Capacity is
//! bounded; when full, registration fails until the host deregisters
//! something — this pressure is what makes registration *caches* (GMKRC)
//! necessary, and what our LRU-eviction statistics expose.
//!
//! Keys carry the address-space id: this is the paper's "64-bit pointers on
//! 32-bit hosts" firmware patch, which stores an address-space descriptor in
//! the pointer's most significant bits so a *shared* kernel port can serve
//! several processes without virtual-address collisions (§3.2).
//!
//! Like the GMKRC (`knet_core::RegCache`), the table is on the per-message
//! fast path — every virtually-addressed send pays one lookup per page —
//! so it is one [`LruSlab`] (`knet_simcore::lru`, the shared intrusive-LRU
//! structure): lookups, inserts, removes and the LRU probe are all O(1).

use knet_simcore::LruSlab;
use knet_simos::{Asid, PhysAddr, VirtAddr};

/// A translation-table key: (address space, virtual page number).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TransKey {
    pub asid: Asid,
    pub vpn: u64,
}

impl TransKey {
    pub fn of(asid: Asid, addr: VirtAddr) -> Self {
        TransKey {
            asid,
            vpn: addr.vpn(),
        }
    }
}

/// Errors from the translation table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TtError {
    /// No free entries; the host must deregister before registering more.
    Full,
    /// Lookup of an unregistered page — the NIC cannot resolve the address.
    NotRegistered,
}

/// Statistics for the figures and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct TtStats {
    pub inserts: u64,
    pub removes: u64,
    pub hits: u64,
    pub misses: u64,
    pub full_failures: u64,
}

/// The bounded on-card translation table.
pub struct TransTable {
    capacity: usize,
    /// key → physical frame number.
    entries: LruSlab<TransKey, u64>,
    pub stats: TtStats,
}

impl TransTable {
    /// An empty table of `capacity` entries. The index is reserved by the
    /// first [`Self::insert`] (and never rehashes after it); a card nothing
    /// was ever registered on holds no heap memory.
    pub fn new(capacity: usize) -> Self {
        TransTable {
            capacity,
            entries: LruSlab::with_reserve(capacity),
            stats: TtStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Install one page translation. Fails when the table is full.
    pub fn insert(&mut self, key: TransKey, phys: PhysAddr) -> Result<(), TtError> {
        if !self.entries.contains(&key) && self.entries.len() >= self.capacity {
            self.stats.full_failures += 1;
            return Err(TtError::Full);
        }
        self.entries.insert(key, phys.pfn());
        self.stats.inserts += 1;
        Ok(())
    }

    /// Remove one page translation (idempotent).
    pub fn remove(&mut self, key: TransKey) -> bool {
        let removed = self.entries.remove(&key).is_some();
        if removed {
            self.stats.removes += 1;
        }
        removed
    }

    /// Resolve a virtual address through the table (touches LRU state).
    pub fn lookup(&mut self, asid: Asid, addr: VirtAddr) -> Result<PhysAddr, TtError> {
        match self.entries.touch_get(&TransKey::of(asid, addr)) {
            Some(pfn) => {
                self.stats.hits += 1;
                Ok(PhysAddr::new(
                    (pfn << knet_simos::PAGE_SHIFT) + addr.page_offset(),
                ))
            }
            None => {
                self.stats.misses += 1;
                Err(TtError::NotRegistered)
            }
        }
    }

    /// Whether a page is currently registered (no LRU touch).
    pub fn contains(&self, key: TransKey) -> bool {
        self.entries.contains(&key)
    }

    /// The least-recently-used key — what a registration cache evicts when
    /// the table fills up. O(1): the tail of the intrusive list.
    pub fn lru_key(&self) -> Option<TransKey> {
        self.entries.lru_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(asid: u32, vpn: u64) -> TransKey {
        TransKey {
            asid: Asid(asid),
            vpn,
        }
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut t = TransTable::new(8);
        let va = VirtAddr::new(0x5000 + 0x123);
        t.insert(TransKey::of(Asid(1), va), PhysAddr::new(0x9000))
            .unwrap();
        let p = t.lookup(Asid(1), va).unwrap();
        assert_eq!(p.raw(), 0x9123, "offset within page is preserved");
    }

    #[test]
    fn capacity_is_enforced() {
        let mut t = TransTable::new(2);
        t.insert(key(1, 0), PhysAddr::new(0)).unwrap();
        t.insert(key(1, 1), PhysAddr::new(0x1000)).unwrap();
        assert_eq!(
            t.insert(key(1, 2), PhysAddr::new(0x2000)),
            Err(TtError::Full)
        );
        assert_eq!(t.stats.full_failures, 1);
        // Reinsert over an existing key is fine.
        t.insert(key(1, 1), PhysAddr::new(0x3000)).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn asid_disambiguates_identical_virtual_addresses() {
        // The GMKRC shared-port problem: two processes, same vaddr,
        // different physical pages.
        let mut t = TransTable::new(8);
        let va = VirtAddr::new(0x4000);
        t.insert(TransKey::of(Asid(1), va), PhysAddr::new(0xA000))
            .unwrap();
        t.insert(TransKey::of(Asid(2), va), PhysAddr::new(0xB000))
            .unwrap();
        assert_eq!(t.lookup(Asid(1), va).unwrap().raw(), 0xA000);
        assert_eq!(t.lookup(Asid(2), va).unwrap().raw(), 0xB000);
    }

    #[test]
    fn miss_is_reported() {
        let mut t = TransTable::new(4);
        assert_eq!(
            t.lookup(Asid(1), VirtAddr::new(0x1000)),
            Err(TtError::NotRegistered)
        );
        assert_eq!(t.stats.misses, 1);
    }

    #[test]
    fn lru_tracks_lookups() {
        let mut t = TransTable::new(4);
        for vpn in 0..3 {
            t.insert(key(1, vpn), PhysAddr::new(vpn << 12)).unwrap();
        }
        // Touch 0 and 2; 1 becomes LRU.
        t.lookup(Asid(1), VirtAddr::new(0)).unwrap();
        t.lookup(Asid(1), VirtAddr::new(2 << 12)).unwrap();
        assert_eq!(t.lru_key(), Some(key(1, 1)));
        assert!(t.remove(key(1, 1)));
        assert!(!t.remove(key(1, 1)), "second remove is a no-op");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn slots_recycle_under_insert_remove_churn() {
        let mut t = TransTable::new(4);
        for round in 0..50u64 {
            for vpn in 0..4 {
                t.insert(key(1, round * 4 + vpn), PhysAddr::new(vpn << 12))
                    .unwrap();
            }
            while let Some(k) = t.lru_key() {
                t.remove(k);
            }
        }
        assert!(t.is_empty());
        assert!(t.entries.slab_size() <= 4, "slab at high-water mark");
    }
}
