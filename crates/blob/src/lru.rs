//! A byte-weighted, strict-LRU map of placement spans.
//!
//! One structure serves both byte-budgeted caches on the read path: the
//! residency of a budgeted tier ([`TieredBlobStore`](crate::TieredBlobStore),
//! payload `()`) and the server's segment cache (`tbm-serve`, payload
//! `Vec<u8>`). Entries live in a slab (`Vec`) and carry their own
//! `prev`/`next` slab indices, so recency is a doubly linked list threaded
//! through the slab: a lookup is one hash probe plus a relink, an insert
//! one hash insert plus a push-front, an eviction a pop-tail. Freed slots
//! go on a free list and are reused, so the slab never outgrows the largest
//! number of entries that were resident at once.
//!
//! Order is exact least-recently-used and depends only on the sequence of
//! calls — never on hash-map iteration order — so every eviction repeats
//! run to run.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// `(blob, offset, len)`: the address of one placement span, the unit of
/// caching, residency, repair and fault bookkeeping.
pub type SpanKey = (u64, u64, u64);

/// "No slot": the end of the recency list or of the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot<V> {
    key: SpanKey,
    weight: u64,
    /// `None` while the slot sits on the free list.
    value: Option<V>,
    /// Towards the most recently used entry.
    prev: u32,
    /// Towards the least recently used entry; on the free list, the next
    /// free slot.
    next: u32,
}

/// The slab and the recency list threaded through it.
#[derive(Debug)]
struct Slab<V> {
    slots: Vec<Slot<V>>,
    /// Most recently used.
    head: u32,
    /// Least recently used.
    tail: u32,
    free: u32,
}

impl<V> Slab<V> {
    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old = self.head;
        let s = &mut self.slots[idx as usize];
        s.prev = NIL;
        s.next = old;
        match old {
            NIL => self.tail = idx,
            h => self.slots[h as usize].prev = idx,
        }
        self.head = idx;
    }

    fn move_to_front(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Stores a new entry at the front of the recency list, in a reused
    /// slot when one is free.
    fn alloc_front(&mut self, key: SpanKey, weight: u64, value: V) -> u32 {
        let slot = Slot {
            key,
            weight,
            value: Some(value),
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free {
            NIL => {
                assert!(self.slots.len() < NIL as usize, "slab indices are 32-bit");
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
            idx => {
                self.free = self.slots[idx as usize].next;
                self.slots[idx as usize] = slot;
                idx
            }
        };
        self.push_front(idx);
        idx
    }

    /// Unlinks the least recently used entry and frees its slot (dropping
    /// its value); returns its key and weight.
    fn pop_tail(&mut self) -> Option<(SpanKey, u64)> {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        self.unlink(idx);
        let s = &mut self.slots[idx as usize];
        s.value = None;
        s.next = self.free;
        self.free = idx;
        Some((s.key, s.weight))
    }
}

/// A strict-LRU map from [`SpanKey`] to `V` where every entry has a byte
/// weight and [`LruSlab::evict_to`] trims the least recently used entries
/// down to a byte budget. The budget itself is the caller's: the two users
/// differ in when they refuse an entry and in what they count.
#[derive(Debug)]
pub struct LruSlab<V> {
    map: HashMap<SpanKey, u32>,
    slab: Slab<V>,
    bytes: u64,
}

impl<V> Default for LruSlab<V> {
    fn default() -> Self {
        LruSlab::new()
    }
}

impl<V> LruSlab<V> {
    /// An empty map. Nothing is allocated until the first insert.
    pub fn new() -> LruSlab<V> {
        LruSlab {
            map: HashMap::new(),
            slab: Slab {
                slots: Vec::new(),
                head: NIL,
                tail: NIL,
                free: NIL,
            },
            bytes: 0,
        }
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sum of the resident entries' weights.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether `key` is resident (no recency effect).
    pub fn contains(&self, key: &SpanKey) -> bool {
        self.map.contains_key(key)
    }

    /// Looks `key` up and, when resident, makes it the most recently used
    /// entry and returns its value.
    pub fn touch(&mut self, key: &SpanKey) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.slab.move_to_front(idx);
        self.slab.slots[idx as usize].value.as_ref()
    }

    /// Makes `key` the most recently used entry with the given weight and
    /// value, replacing both if it was already resident. Returns `true`
    /// when the key was new. Never evicts: follow with
    /// [`LruSlab::evict_to`].
    pub fn insert(&mut self, key: SpanKey, weight: u64, value: V) -> bool {
        self.bytes += weight;
        match self.map.entry(key) {
            Entry::Occupied(e) => {
                let idx = *e.get();
                self.slab.move_to_front(idx);
                let slot = &mut self.slab.slots[idx as usize];
                self.bytes -= slot.weight;
                slot.weight = weight;
                slot.value = Some(value);
                false
            }
            Entry::Vacant(e) => {
                e.insert(self.slab.alloc_front(key, weight, value));
                true
            }
        }
    }

    /// Evicts least recently used entries until at most `budget` bytes are
    /// resident; returns how many were evicted.
    pub fn evict_to(&mut self, budget: u64) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            let (key, weight) = self
                .slab
                .pop_tail()
                .expect("over budget implies a resident entry");
            self.map.remove(&key);
            self.bytes -= weight;
            evicted += 1;
        }
        evicted
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.slots.clear();
        self.slab.head = NIL;
        self.slab.tail = NIL;
        self.slab.free = NIL;
        self.bytes = 0;
    }

    /// The resident keys, least recently used first — the order
    /// [`LruSlab::evict_to`] would take them in.
    pub fn keys(&self) -> impl Iterator<Item = SpanKey> + '_ {
        let mut idx = self.slab.tail;
        std::iter::from_fn(move || {
            let slot = self.slab.slots.get(idx as usize)?;
            idx = slot.prev;
            Some(slot.key)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u64) -> SpanKey {
        (1, i * 10, 10)
    }

    fn order(lru: &LruSlab<u64>) -> Vec<u64> {
        lru.keys().map(|key| key.1 / 10).collect()
    }

    #[test]
    fn touch_and_insert_move_to_front_and_eviction_takes_the_tail() {
        let mut lru = LruSlab::new();
        for i in 0..4 {
            assert!(lru.insert(k(i), 10, i));
        }
        assert_eq!(order(&lru), [0, 1, 2, 3]);
        assert_eq!(lru.touch(&k(1)), Some(&1));
        assert_eq!(lru.touch(&k(9)), None);
        assert_eq!(order(&lru), [0, 2, 3, 1]);
        assert_eq!(lru.touch(&k(1)), Some(&1), "touching the head is a no-op");
        assert_eq!(order(&lru), [0, 2, 3, 1]);

        assert!(!lru.insert(k(0), 25, 100), "a resident key is replaced");
        assert_eq!(order(&lru), [2, 3, 1, 0]);
        assert_eq!(lru.bytes(), 55);
        assert_eq!(lru.touch(&k(0)), Some(&100));

        assert_eq!(lru.evict_to(40), 2);
        assert_eq!(order(&lru), [1, 0]);
        assert_eq!(lru.bytes(), 35);
        assert!(!lru.contains(&k(2)) && !lru.contains(&k(3)));
        assert_eq!(lru.evict_to(40), 0);
        assert_eq!(lru.evict_to(0), 2);
        assert!(lru.is_empty());
        assert_eq!(lru.keys().next(), None);
    }

    #[test]
    fn freed_slots_are_reused_so_the_slab_stays_at_the_resident_peak() {
        let mut lru = LruSlab::new();
        for i in 0..1_000 {
            lru.insert(k(i), 10, i);
            lru.evict_to(30);
        }
        assert_eq!(order(&lru), [997, 998, 999]);
        assert_eq!(
            lru.slab.slots.len(),
            4,
            "three resident plus the incoming one"
        );

        lru.clear();
        assert!(lru.is_empty() && lru.bytes() == 0);
        assert_eq!(lru.keys().next(), None);
        lru.insert(k(5), 10, 5);
        assert_eq!(order(&lru), [5]);
    }

    #[test]
    fn zero_weight_entries_survive_a_zero_budget() {
        let mut lru = LruSlab::new();
        lru.insert(k(0), 0, 0);
        assert_eq!(lru.evict_to(0), 0);
        assert!(lru.contains(&k(0)));
    }
}
