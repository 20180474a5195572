//! A hash-indexed slab threaded by an intrusive doubly-linked LRU list,
//! with an ordered secondary index for range operations.
//!
//! This is the one O(1) recency structure behind both hot-path caches of
//! the stack — the GMKRC registration cache (`knet-core`) and the NIC
//! translation table (`knet-simnic`). Shapes it serves:
//!
//! * **hit / touch**: hash lookup + two pointer swings — O(1);
//! * **LRU victim**: read off the list tail — O(1);
//! * **insert / remove**: slab slots recycle through a free list, so the
//!   steady state performs no heap allocation once the slab and the free
//!   list reach their high-water marks (the free list and the hash map are
//!   reserved to `reserve` by the first insert — an index nothing was ever
//!   inserted into costs nothing);
//! * **range pops** (VMA invalidation, per-ASID purge): served by a
//!   `BTreeMap` ordered index maintained only on insert/remove — the hit
//!   path never touches it.
//!
//! Capacity *policy* (reject when full, evict in batches, …) stays with
//! the caller; the slab itself is unbounded.

use std::collections::BTreeMap;
use std::hash::Hash;
use std::ops::RangeInclusive;

use crate::IdHashMap;

/// Sentinel slot index (list terminator / no slot).
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// Toward the MRU end.
    prev: u32,
    /// Toward the LRU end.
    next: u32,
}

/// An LRU-ordered map from `K` to `V` (see the module docs).
pub struct LruSlab<K, V> {
    slots: Vec<Slot<K, V>>,
    free: Vec<u32>,
    /// MRU end of the intrusive list.
    head: u32,
    /// LRU end — the next eviction victim.
    tail: u32,
    /// Never iterated, so its hasher decides speed only — and, being
    /// free of per-process state, the same tombstones on every run.
    index: IdHashMap<K, u32>,
    ordered: BTreeMap<K, u32>,
    /// Entries the first insert reserves for.
    reserve: usize,
}

impl<K: Copy + Eq + Ord + Hash, V: Copy> LruSlab<K, V> {
    /// An empty slab whose first insert reserves the hash index and free
    /// list for `reserve` entries, so filling to that occupancy — and all
    /// churn below it — never rehashes or reallocates. Until then the slab
    /// owns no heap memory.
    pub fn with_reserve(reserve: usize) -> Self {
        LruSlab {
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            index: IdHashMap::default(),
            ordered: BTreeMap::new(),
            reserve,
        }
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    // ---------------------------------------------------------- list ops

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn link_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn promote(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.link_front(slot);
    }

    fn remove_slot(&mut self, slot: u32) -> (K, V) {
        self.unlink(slot);
        let Slot { key, value, .. } = self.slots[slot as usize];
        self.index.remove(&key);
        self.ordered.remove(&key);
        self.free.push(slot);
        (key, value)
    }

    // --------------------------------------------------------- map ops

    /// The value for `key`, promoting it to most-recently-used. O(1).
    pub fn touch_get(&mut self, key: &K) -> Option<V> {
        let slot = *self.index.get(key)?;
        self.promote(slot);
        Some(self.slots[slot as usize].value)
    }

    /// The value for `key` without touching recency.
    pub fn peek(&self, key: &K) -> Option<V> {
        let slot = *self.index.get(key)?;
        Some(self.slots[slot as usize].value)
    }

    /// Insert or update `key` (either way it becomes most-recently-used).
    pub fn insert(&mut self, key: K, value: V) {
        match self.index.get(&key).copied() {
            Some(slot) => {
                self.slots[slot as usize].value = value;
                self.promote(slot);
            }
            None => {
                if self.index.capacity() == 0 {
                    self.index.reserve(self.reserve);
                    self.free.reserve(self.reserve);
                }
                let slot = match self.free.pop() {
                    Some(i) => {
                        self.slots[i as usize] = Slot {
                            key,
                            value,
                            prev: NIL,
                            next: NIL,
                        };
                        i
                    }
                    None => {
                        let i = self.slots.len() as u32;
                        assert!(i < NIL, "LRU slab overflow");
                        self.slots.push(Slot {
                            key,
                            value,
                            prev: NIL,
                            next: NIL,
                        });
                        i
                    }
                };
                self.link_front(slot);
                self.index.insert(key, slot);
                self.ordered.insert(key, slot);
            }
        }
    }

    /// Remove `key`. O(1) on the hash/list, O(log n) on the ordered index.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = *self.index.get(key)?;
        Some(self.remove_slot(slot).1)
    }

    /// Pop the least-recently-used entry. O(1) victim selection.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        match self.tail {
            NIL => None,
            slot => Some(self.remove_slot(slot)),
        }
    }

    /// The least-recently-used key, without removing it. O(1).
    pub fn lru_key(&self) -> Option<K> {
        match self.tail {
            NIL => None,
            t => Some(self.slots[t as usize].key),
        }
    }

    /// Remove and return the first entry (in key order) inside `range` —
    /// repeated calls drain a range in ascending key order, O(log n + 1)
    /// each. Returns `None` when the range is empty.
    pub fn pop_in_range(&mut self, range: RangeInclusive<K>) -> Option<(K, V)> {
        let slot = {
            let mut r = self.ordered.range(range);
            *r.next()?.1
        };
        Some(self.remove_slot(slot))
    }

    /// Iterate every entry in ascending key order.
    pub fn iter_ordered(&self) -> impl Iterator<Item = (K, V)> + '_ {
        self.ordered
            .iter()
            .map(|(k, slot)| (*k, self.slots[*slot as usize].value))
    }

    /// Drop everything; heap capacity of the slab and free list survives,
    /// the ordered index's does not (BTreeMap nodes free on clear).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.index.clear();
        self.ordered.clear();
    }

    /// Slab high-water mark (for recycling assertions in tests).
    pub fn slab_size(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recency_order_and_pop() {
        let mut l: LruSlab<u64, u32> = LruSlab::with_reserve(8);
        for k in 0..4u64 {
            l.insert(k, k as u32);
        }
        // Touch 0: eviction order becomes 1, 2, 3, 0.
        assert_eq!(l.touch_get(&0), Some(0));
        assert_eq!(l.lru_key(), Some(1));
        for expect in [1u64, 2, 3, 0] {
            assert_eq!(l.pop_lru().unwrap().0, expect);
        }
        assert!(l.pop_lru().is_none());
    }

    #[test]
    fn upsert_promotes_and_updates() {
        let mut l: LruSlab<u64, u32> = LruSlab::with_reserve(4);
        l.insert(1, 10);
        l.insert(2, 20);
        l.insert(1, 11); // update + promote
        assert_eq!(l.peek(&1), Some(11));
        assert_eq!(l.lru_key(), Some(2));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn range_pops_ascend_and_respect_bounds() {
        let mut l: LruSlab<u64, u32> = LruSlab::with_reserve(8);
        for k in [5u64, 1, 9, 3] {
            l.insert(k, k as u32);
        }
        assert_eq!(l.pop_in_range(2..=8), Some((3, 3)));
        assert_eq!(l.pop_in_range(2..=8), Some((5, 5)));
        assert_eq!(l.pop_in_range(2..=8), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn reserve_happens_at_the_first_insert_and_never_again() {
        let mut l: LruSlab<u64, u32> = LruSlab::with_reserve(64);
        assert_eq!(l.index.capacity() + l.free.capacity(), 0, "idle: no heap");
        l.insert(0, 0);
        let (index, free) = (l.index.capacity(), l.free.capacity());
        assert!(index >= 64 && free >= 64);
        for k in 1..64u64 {
            l.insert(k, 0);
        }
        while l.pop_lru().is_some() {}
        assert_eq!((l.index.capacity(), l.free.capacity()), (index, free));
    }

    #[test]
    fn slots_recycle_at_high_water() {
        let mut l: LruSlab<u64, u32> = LruSlab::with_reserve(4);
        for round in 0..100u64 {
            for k in 0..4u64 {
                l.insert(round * 4 + k, 0);
            }
            while l.pop_lru().is_some() {}
        }
        assert!(l.slab_size() <= 4, "slab stays at high-water mark");
    }
}
