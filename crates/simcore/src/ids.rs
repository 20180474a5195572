//! Tables for keys the program mints itself.
//!
//! Every handle on the per-event path — endpoint indices, queue / consumer /
//! channel ids, NIC ids — is minted densely from 0 by this program, never
//! read from outside it. Such a key needs neither an ordered-map search nor
//! a collision-resistant hash:
//!
//! * [`Slab`] *is* the id space: `insert` mints the next id, lookups are one
//!   index, iteration is ascending id (the order a `BTreeMap<u32, _>` would
//!   give, so fingerprints folded over it do not move);
//! * [`IdHasher`] serves composite keys (a reliability link is `(proto, src
//!   nic, dst nic)`): a multiply-rotate hash with no per-process random
//!   state, so a map's iteration order is a function of its insertion
//!   history alone and repeats across runs and processes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An id-indexed table whose ids are handed out once, in ascending order,
/// and never again: a removed id stays retired. Payloads are boxed, so a
/// retired id costs one word, not a `T`.
pub struct Slab<T> {
    slots: Vec<Option<Box<T>>>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { slots: Vec::new() }
    }
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The id the next [`Self::insert`] will return.
    pub fn next_id(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Store `value` under a freshly minted id.
    pub fn insert(&mut self, value: T) -> u32 {
        let id = self.next_id();
        assert!(id < u32::MAX, "slab id space exhausted");
        self.slots.push(Some(Box::new(value)));
        id
    }

    pub fn get(&self, id: u32) -> Option<&T> {
        self.slots.get(id as usize)?.as_deref()
    }

    pub fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        self.slots.get_mut(id as usize)?.as_deref_mut()
    }

    /// Take the value out; the id is retired.
    pub fn remove(&mut self, id: u32) -> Option<T> {
        Some(*self.slots.get_mut(id as usize)?.take()?)
    }

    /// Ids the table can mint before it reallocates.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, s)| Some((id as u32, s.as_deref()?)))
    }
}

/// Deterministic multiply-rotate hasher (the FxHash recurrence) for keys
/// minted inside the program. It offers no protection against keys crafted
/// to collide — never key a map on outside input with it.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; the table takes
    /// its bucket index from the bottom.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` over [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn slab_mints_ascending_ids_and_never_reuses_one() {
        let mut s: Slab<&str> = Slab::new();
        assert_eq!(s.next_id(), 0);
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.remove(a), None, "a second remove finds nothing");
        assert_eq!(s.get(a), None);
        // Re-inserting after a remove mints a fresh id: `a` stays retired.
        let c = s.insert("c");
        assert_eq!(c, 2);
        assert_eq!(s.get(b), Some(&"b"));
        *s.get_mut(c).unwrap() = "c2";
        assert_eq!(s.get(c), Some(&"c2"));
        assert_eq!(s.get(99), None, "an id never minted reads as absent");
    }

    #[test]
    fn slab_iterates_live_entries_in_ascending_id_order() {
        let mut s: Slab<u32> = Slab::new();
        for v in [10, 11, 12, 13, 14] {
            s.insert(v);
        }
        s.remove(1);
        s.remove(4);
        let seen: Vec<(u32, u32)> = s.iter().map(|(id, v)| (id, *v)).collect();
        assert_eq!(seen, [(0, 10), (2, 12), (3, 13)]);
        assert_eq!(s.insert(15), 5, "removing the newest id does not free it");
        assert!(s.capacity() >= 6);
    }

    #[test]
    fn id_hasher_is_a_pure_function_of_the_key() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let key = (3u8, 17u32, 0xDEAD_BEEFu32);
        assert_eq!(build.hash_one(key), build.hash_one(key));
        // Pinned: a changed recurrence would silently reorder every map.
        let mut h = IdHasher::default();
        7u32.hash(&mut h);
        assert_eq!(h.finish(), 0x0847_B928_4CE9_A530);
        // The byte path agrees with itself across chunk boundaries.
        let mut a = IdHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = IdHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        b.write(&[9]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn id_hash_map_spreads_dense_keys_and_iterates_reproducibly() {
        let fill = || {
            let mut m: IdHashMap<(u8, u32, u32), u32> = IdHashMap::default();
            for src in 0..64u32 {
                for dst in 0..8u32 {
                    m.insert((1, src, dst), src * 8 + dst);
                }
            }
            m
        };
        let (a, b) = (fill(), fill());
        assert_eq!(a.len(), 512);
        assert!(a.iter().eq(b.iter()), "same history, same order");
        assert_eq!(a[&(1, 63, 7)], 511);
    }
}
