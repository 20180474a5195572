//! GMKRC — the kernel registration cache (paper §3.2, after \[TOHI98\]).
//!
//! Registration is so expensive (3 µs/page, 200 µs deregistration base in GM)
//! that it only pays off when buffers are reused. The pin-down cache defers
//! deregistration until translation-table pressure forces it, and detects
//! reuse so repeated sends from the same buffer cost nothing. The cache must
//! be kept coherent with the owning address space: VMA SPY feeds every
//! `munmap`/`mprotect`/`fork`/exit into [`RegCache::invalidate`].
//!
//! This type is pure bookkeeping — the GM layer performs (and charges for)
//! the actual NIC registration work; keeping it passive makes it reusable and
//! directly testable.
//!
//! ## Hot-path structure
//!
//! The cache is sized to (a share of) the NIC translation table — up to
//! millions of pages — so its own cost must not depend on occupancy:
//!
//! The storage is one [`LruSlab`] (`knet_simcore::lru`, shared with the
//! NIC translation table): a hash index over an intrusive doubly-linked
//! LRU slab, so a hit's recency touch is two pointer swings and the
//! eviction victim is read off the tail — no scan, no sort (the previous
//! implementation collected *every* entry into a `Vec` and sorted it on
//! each capacity miss). Its ordered secondary index (over `RegKey`, which
//! sorts by `(asid, vpn)`) serves VMA-range invalidation and ASID teardown
//! without touching unrelated entries, and is only maintained on the miss
//! path — steady-state hits never touch it.
//!
//! Steady-state hits perform **zero heap allocations** (asserted by
//! `tests/hotpath_alloc.rs`): the hash map and slab are at their high-water
//! capacity after warm-up, and [`RegCache::plan_range_into`] reuses the
//! caller's [`RangePlan`] scratch.

use knet_simcore::LruSlab;
use knet_simos::{page_slices, Asid, FrameIdx, VirtAddr};
use knet_simos::{VmaChange, VmaEvent};

/// Identity of one cached page registration.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegKey {
    pub asid: Asid,
    pub vpn: u64,
}

impl RegKey {
    pub fn of(asid: Asid, addr: VirtAddr) -> Self {
        RegKey {
            asid,
            vpn: addr.vpn(),
        }
    }

    pub fn page_base(&self) -> VirtAddr {
        VirtAddr::new(self.vpn << knet_simos::PAGE_SHIFT)
    }
}

/// Counters for figures and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegCacheStats {
    /// Pages found already registered.
    pub page_hits: u64,
    /// Pages that had to be registered.
    pub page_misses: u64,
    /// Entries evicted under capacity pressure.
    pub evictions: u64,
    /// Entries dropped by VMA SPY coherence events.
    pub invalidations: u64,
}

/// The plan for using a buffer: which pages are already cached, which must
/// be registered first. Reusable scratch — [`RegCache::plan_range_into`]
/// clears and refills it, retaining the `missing` vector's capacity.
#[derive(Clone, Debug, Default)]
pub struct RangePlan {
    /// Page-base virtual addresses that need registration, in order.
    pub missing: Vec<VirtAddr>,
    /// Pages that were cache hits.
    pub hit_pages: u64,
}

impl RangePlan {
    fn clear(&mut self) {
        self.missing.clear();
        self.hit_pages = 0;
    }
}

/// A GMKRC instance (one per GM kernel port / user library instance).
pub struct RegCache {
    entries: LruSlab<RegKey, FrameIdx>,
    capacity_pages: usize,
    pub stats: RegCacheStats,
}

impl RegCache {
    /// A cache that will hold at most `capacity_pages` registrations —
    /// bounded by (a share of) the NIC translation table. Fully reserved:
    /// churn at or below capacity never rehashes or reallocates.
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0);
        RegCache {
            entries: LruSlab::with_reserve(capacity_pages),
            capacity_pages,
            stats: RegCacheStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity_pages
    }

    pub fn contains(&self, key: RegKey) -> bool {
        self.entries.contains(&key)
    }

    // ---------------------------------------------------------- planning

    /// Plan the use of `[addr, addr+len)` in `asid`: touch hits, list misses.
    pub fn plan_range(&mut self, asid: Asid, addr: VirtAddr, len: u64) -> RangePlan {
        let mut plan = RangePlan::default();
        self.plan_range_into(asid, addr, len, &mut plan);
        plan
    }

    /// [`Self::plan_range`] into a caller-owned scratch plan — the
    /// allocation-free form the drivers use per send.
    pub fn plan_range_into(&mut self, asid: Asid, addr: VirtAddr, len: u64, plan: &mut RangePlan) {
        plan.clear();
        let mut last_vpn = None;
        for (page, _, _) in page_slices(addr, len) {
            if last_vpn == Some(page.vpn()) {
                continue;
            }
            last_vpn = Some(page.vpn());
            let key = RegKey::of(asid, page);
            match self.entries.touch_get(&key) {
                Some(_) => {
                    plan.hit_pages += 1;
                    self.stats.page_hits += 1;
                }
                None => {
                    plan.missing.push(page);
                    self.stats.page_misses += 1;
                }
            }
        }
    }

    /// Record that `key` is now registered and pinned into `frame`.
    pub fn commit(&mut self, key: RegKey, frame: FrameIdx) {
        self.entries.insert(key, frame);
    }

    /// How many entries must be evicted before `need` more pages fit.
    pub fn pressure(&self, need: usize) -> usize {
        (self.entries.len() + need).saturating_sub(self.capacity_pages)
    }

    /// Pop the least-recently-used entry in O(1); the caller must
    /// deregister it from the NIC and unpin its frame.
    pub fn pop_lru(&mut self) -> Option<(RegKey, FrameIdx)> {
        let victim = self.entries.pop_lru()?;
        self.stats.evictions += 1;
        Some(victim)
    }

    /// Remove the `n` least-recently-used entries; the caller must
    /// deregister them from the NIC and unpin their frames.
    pub fn evict_lru(&mut self, n: usize) -> Vec<(RegKey, FrameIdx)> {
        let mut out = Vec::with_capacity(n.min(self.len()));
        self.evict_lru_into(n, &mut out);
        out
    }

    /// [`Self::evict_lru`] into a caller-owned scratch vector (cleared
    /// first) — the allocation-free form the drivers use under pressure.
    pub fn evict_lru_into(&mut self, n: usize, out: &mut Vec<(RegKey, FrameIdx)>) {
        out.clear();
        for _ in 0..n {
            match self.pop_lru() {
                Some(e) => out.push(e),
                None => break,
            }
        }
    }

    /// Apply a VMA SPY notification: drop every entry the event makes stale.
    /// Returns the dropped entries for the caller to deregister/unpin.
    ///
    /// `Fork` drops nothing — the *parent's* translations stay valid (the
    /// child gets new physical pages) — but callers that registered on
    /// behalf of the child must plan afresh, which the ASID in [`RegKey`]
    /// guarantees.
    ///
    /// Served by the per-ASID ordered index: O(log n + k) for k dropped
    /// entries, never a full scan.
    pub fn invalidate(&mut self, ev: &VmaEvent) -> Vec<(RegKey, FrameIdx)> {
        let mut out = Vec::new();
        self.invalidate_into(ev, &mut out);
        out
    }

    /// [`Self::invalidate`] into a caller-owned scratch vector (cleared
    /// first).
    pub fn invalidate_into(&mut self, ev: &VmaEvent, out: &mut Vec<(RegKey, FrameIdx)>) {
        out.clear();
        let (lo, hi) = match ev.change {
            VmaChange::Unmap { start, len } | VmaChange::Protect { start, len } => (
                start.vpn(),
                VirtAddr::new(start.raw() + len.max(1) - 1).vpn(),
            ),
            VmaChange::Exit => (0, u64::MAX), // the whole space
            VmaChange::Fork { .. } => return,
        };
        // Entries come back in (asid, vpn) order, as the range iteration
        // did in the flat-map implementation.
        let range = RegKey {
            asid: ev.asid,
            vpn: lo,
        }..=RegKey {
            asid: ev.asid,
            vpn: hi,
        };
        while let Some(entry) = self.entries.pop_in_range(range.clone()) {
            self.stats.invalidations += 1;
            out.push(entry);
        }
    }

    /// Drop everything (port close); returns entries to deregister, in
    /// `(asid, vpn)` order.
    pub fn drain(&mut self) -> Vec<(RegKey, FrameIdx)> {
        let out: Vec<(RegKey, FrameIdx)> = self.entries.iter_ordered().collect();
        self.entries.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knet_simos::PAGE_SIZE;

    const P: u64 = PAGE_SIZE;

    fn va(x: u64) -> VirtAddr {
        VirtAddr::new(x)
    }

    #[test]
    fn first_use_misses_reuse_hits() {
        let mut c = RegCache::new(64);
        let plan = c.plan_range(Asid(1), va(0x1000), 2 * P);
        assert_eq!(plan.missing.len(), 2);
        assert_eq!(plan.hit_pages, 0);
        for (i, page) in plan.missing.iter().enumerate() {
            c.commit(RegKey::of(Asid(1), *page), FrameIdx(i as u32));
        }
        let plan2 = c.plan_range(Asid(1), va(0x1000), 2 * P);
        assert!(plan2.missing.is_empty());
        assert_eq!(plan2.hit_pages, 2);
    }

    #[test]
    fn unaligned_range_counts_straddled_pages_once() {
        let mut c = RegCache::new(64);
        let plan = c.plan_range(Asid(1), va(0x1800), P); // straddles 2 pages
        assert_eq!(plan.missing.len(), 2);
    }

    #[test]
    fn asids_do_not_collide() {
        let mut c = RegCache::new(64);
        c.commit(RegKey::of(Asid(1), va(0x1000)), FrameIdx(1));
        let plan = c.plan_range(Asid(2), va(0x1000), P);
        assert_eq!(
            plan.missing.len(),
            1,
            "same vaddr in another process is a miss"
        );
    }

    #[test]
    fn lru_eviction_prefers_cold_entries() {
        let mut c = RegCache::new(4);
        for i in 0..4u64 {
            c.commit(
                RegKey {
                    asid: Asid(1),
                    vpn: i,
                },
                FrameIdx(i as u32),
            );
        }
        // Touch pages 0,1,3 — page 2 is cold.
        c.plan_range(Asid(1), va(0), 2 * P);
        c.plan_range(Asid(1), va(3 * P), P);
        assert_eq!(c.pressure(1), 1);
        let evicted = c.evict_lru(c.pressure(1));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0.vpn, 2);
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn pop_lru_returns_oldest_first() {
        let mut c = RegCache::new(8);
        for i in 0..4u64 {
            c.commit(
                RegKey {
                    asid: Asid(1),
                    vpn: i,
                },
                FrameIdx(i as u32),
            );
        }
        // Re-touch 0: eviction order becomes 1, 2, 3, 0.
        c.plan_range(Asid(1), va(0), P);
        for expect in [1u64, 2, 3, 0] {
            assert_eq!(c.pop_lru().expect("entry").0.vpn, expect);
        }
        assert!(c.pop_lru().is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut c = RegCache::new(4);
        for round in 0..100u64 {
            for i in 0..4u64 {
                c.commit(
                    RegKey {
                        asid: Asid(1),
                        vpn: round * 4 + i,
                    },
                    FrameIdx(i as u32),
                );
            }
            let over = c.pressure(4).min(c.len());
            c.evict_lru(over);
        }
        assert!(
            c.entries.slab_size() <= 8,
            "slab must stay at its high-water mark, got {}",
            c.entries.slab_size()
        );
    }

    #[test]
    fn plan_range_into_reuses_scratch() {
        let mut c = RegCache::new(16);
        let mut plan = RangePlan::default();
        c.plan_range_into(Asid(1), va(0), 3 * P, &mut plan);
        assert_eq!(plan.missing.len(), 3);
        let cap = plan.missing.capacity();
        for page in plan.missing.clone() {
            c.commit(RegKey::of(Asid(1), page), FrameIdx(0));
        }
        c.plan_range_into(Asid(1), va(0), 3 * P, &mut plan);
        assert_eq!(plan.hit_pages, 3);
        assert!(plan.missing.is_empty());
        assert_eq!(plan.missing.capacity(), cap, "capacity retained");
    }

    #[test]
    fn unmap_invalidates_only_overlap() {
        let mut c = RegCache::new(16);
        for i in 0..4u64 {
            c.commit(
                RegKey {
                    asid: Asid(1),
                    vpn: i,
                },
                FrameIdx(i as u32),
            );
        }
        let ev = VmaEvent::unmap(Asid(1), va(P), 2 * P);
        let dropped = c.invalidate(&ev);
        assert_eq!(dropped.len(), 2);
        assert!(c.contains(RegKey {
            asid: Asid(1),
            vpn: 0
        }));
        assert!(c.contains(RegKey {
            asid: Asid(1),
            vpn: 3
        }));
        assert_eq!(c.stats.invalidations, 2);
    }

    #[test]
    fn exit_invalidates_whole_space_only() {
        let mut c = RegCache::new(16);
        c.commit(RegKey::of(Asid(1), va(0)), FrameIdx(0));
        c.commit(RegKey::of(Asid(2), va(0)), FrameIdx(1));
        let dropped = c.invalidate(&VmaEvent::exit(Asid(1)));
        assert_eq!(dropped.len(), 1);
        assert_eq!(c.len(), 1);
        assert!(c.contains(RegKey::of(Asid(2), va(0))));
    }

    #[test]
    fn fork_keeps_parent_translations() {
        let mut c = RegCache::new(16);
        c.commit(RegKey::of(Asid(1), va(0)), FrameIdx(0));
        let dropped = c.invalidate(&VmaEvent::fork(Asid(1), Asid(9)));
        assert!(dropped.is_empty());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn drain_returns_everything() {
        let mut c = RegCache::new(16);
        for i in 0..5u64 {
            c.commit(
                RegKey {
                    asid: Asid(1),
                    vpn: i,
                },
                FrameIdx(i as u32),
            );
        }
        let all = c.drain();
        assert_eq!(all.len(), 5);
        assert!(c.is_empty());
    }
}
