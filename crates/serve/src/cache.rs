//! The shared segment cache: an LRU, byte-budgeted cache over BLOB reads.
//!
//! The millions-of-users workload shape is many sessions playing the *same*
//! hot object at slightly different offsets. Without a cache every session
//! multiplies storage reads; with one, the first session's fetch of a
//! placement span serves everyone behind it. Keys are whole placement spans
//! (`(BlobId, ByteSpan)`) — exactly the units interpretation tables address
//! and the units the scheduler fetches, so there is no partial-overlap
//! bookkeeping.
//!
//! Only *verified* bytes are inserted (the server checks per-layer CRCs
//! before caching), which gives the cache a second job: it absorbs storage
//! faults. A span that survived checksum verification once is served intact
//! to every later session even if the underlying store would corrupt the
//! re-read.
//!
//! Eviction is strict least-recently-used over an exact byte budget, kept
//! in [`tbm_blob::LruSlab`] — the index-linked slab the tiered store's
//! residency also uses — so behaviour is deterministic and independent of
//! hash-map iteration order.

use tbm_blob::{ByteSpan, LruSlab, SpanKey};
use tbm_core::BlobId;

/// Cache key: one placement span of one BLOB.
fn key(blob: BlobId, span: ByteSpan) -> SpanKey {
    (blob.raw(), span.offset, span.len)
}

/// Hit/miss/eviction counters of a [`SegmentCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to storage.
    pub misses: u64,
    /// Segments evicted to stay within the byte budget.
    pub evictions: u64,
    /// Segments inserted.
    pub insertions: u64,
    /// Bytes currently resident.
    pub bytes_cached: u64,
    /// Bytes served from the cache instead of storage, cumulatively.
    pub bytes_served: u64,
}

impl CacheStats {
    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0.0 when idle). The
    /// canonical name; used by the deadline-miss attribution report.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Alias of [`CacheStats::hit_rate`], kept for existing callers.
    pub fn hit_ratio(&self) -> f64 {
        self.hit_rate()
    }

    /// Adds `other`'s counters into this one — the cross-shard rollup: N
    /// per-shard caches report as one fleet-wide cache. `bytes_cached` adds
    /// too (total resident bytes across all shards' budgets).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.insertions += other.insertions;
        self.bytes_cached += other.bytes_cached;
        self.bytes_served += other.bytes_served;
    }
}

/// An LRU, byte-budgeted cache of BLOB placement spans shared by every
/// session of a [`crate::Server`].
///
/// A budget of zero disables caching: every lookup misses and nothing is
/// retained — the cache-off baseline of the §serve experiments.
#[derive(Debug)]
pub struct SegmentCache {
    budget: u64,
    generation: u64,
    /// Resident segments in recency order, weighted by their length.
    lru: LruSlab<Vec<u8>>,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
    bytes_served: u64,
}

impl SegmentCache {
    /// A cache holding at most `budget_bytes` bytes of segments.
    pub fn new(budget_bytes: u64) -> SegmentCache {
        SegmentCache {
            budget: budget_bytes,
            generation: 0,
            lru: LruSlab::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            insertions: 0,
            bytes_served: 0,
        }
    }

    /// A zero-budget cache: every lookup misses (the cache-off baseline).
    pub fn disabled() -> SegmentCache {
        SegmentCache::new(0)
    }

    /// The byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// `true` when the cache can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        self.budget > 0
    }

    /// Bytes currently resident.
    pub fn bytes_cached(&self) -> u64 {
        self.lru.bytes()
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            insertions: self.insertions,
            bytes_cached: self.lru.bytes(),
            bytes_served: self.bytes_served,
        }
    }

    /// Whether `span` of `blob` is resident (no counter or recency effect).
    pub fn contains(&self, blob: BlobId, span: ByteSpan) -> bool {
        self.lru.contains(&key(blob, span))
    }

    /// A counter that advances whenever the *set of resident spans* may
    /// have changed (insert, eviction, budget shrink, clear). Cache-aware
    /// admission uses it to decide when a session's residency-discounted
    /// storage charge is stale and must be repriced — unchanged generation
    /// means unchanged residency, so repricing can be skipped entirely.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Looks up a span, counting a hit (and refreshing its recency) or a
    /// miss. Returns the cached bytes on a hit.
    pub fn get(&mut self, blob: BlobId, span: ByteSpan) -> Option<&[u8]> {
        match self.lru.touch(&key(blob, span)) {
            Some(data) => {
                self.hits += 1;
                self.bytes_served += span.len;
                Some(data)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a span's bytes, evicting least-recently-used segments until
    /// the budget holds. Segments larger than the whole budget are not
    /// cached; re-inserting a resident span refreshes its bytes and recency.
    pub fn insert(&mut self, blob: BlobId, span: ByteSpan, data: Vec<u8>) {
        if data.len() as u64 > self.budget {
            return;
        }
        // A genuinely new span changes the resident set; a refresh of an
        // already-resident one does not.
        if self.lru.insert(key(blob, span), data.len() as u64, data) {
            self.generation += 1;
        }
        self.insertions += 1;
        self.evict_to_budget();
    }

    /// Evicts until the budget holds; each eviction changes the resident
    /// set.
    fn evict_to_budget(&mut self) {
        let evicted = self.lru.evict_to(self.budget);
        self.evictions += evicted;
        self.generation += evicted;
    }

    /// Replaces the byte budget mid-run, returning the previous one. A
    /// shrink evicts least-recently-used segments until the new budget
    /// holds (counted as evictions); a grow takes effect immediately. The
    /// remediation plane's `GrowCache` action — and its rollback — land
    /// here.
    pub fn set_budget(&mut self, budget_bytes: u64) -> u64 {
        let prev = self.budget;
        self.budget = budget_bytes;
        self.evict_to_budget();
        prev
    }

    /// The resident spans, least recently used first: the order evictions
    /// take them in. For the differential test against the naive LRU.
    #[cfg(test)]
    pub(crate) fn keys_lru_first(&self) -> Vec<SpanKey> {
        self.lru.keys().collect()
    }

    /// Drops every resident segment (counters are retained).
    pub fn clear(&mut self) {
        if !self.lru.is_empty() {
            self.generation += 1;
        }
        self.lru.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(offset: u64, len: u64) -> ByteSpan {
        ByteSpan::new(offset, len)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = SegmentCache::new(1024);
        let b = BlobId::new(1);
        assert!(c.get(b, span(0, 4)).is_none());
        c.insert(b, span(0, 4), vec![1, 2, 3, 4]);
        assert_eq!(c.get(b, span(0, 4)).unwrap(), &[1, 2, 3, 4]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.bytes_cached, 4);
        assert_eq!(s.bytes_served, 4);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(s.hit_rate(), s.hit_ratio());
    }

    #[test]
    fn hit_rate_is_zero_when_idle() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let one_hit = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert!((one_hit.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn distinct_spans_are_distinct_keys() {
        let mut c = SegmentCache::new(1024);
        let b = BlobId::new(1);
        c.insert(b, span(0, 4), vec![0; 4]);
        assert!(c.get(b, span(0, 8)).is_none(), "length is part of the key");
        assert!(c.get(b, span(4, 4)).is_none(), "offset is part of the key");
        assert!(c.get(BlobId::new(2), span(0, 4)).is_none());
    }

    #[test]
    fn lru_eviction_respects_recency_and_budget() {
        let mut c = SegmentCache::new(10);
        let b = BlobId::new(1);
        c.insert(b, span(0, 4), vec![0; 4]);
        c.insert(b, span(4, 4), vec![1; 4]);
        // Touch the first segment so the second is now least recent.
        assert!(c.get(b, span(0, 4)).is_some());
        // 4 + 4 + 4 > 10: inserting a third evicts span(4, 4).
        c.insert(b, span(8, 4), vec![2; 4]);
        assert!(c.contains(b, span(0, 4)));
        assert!(!c.contains(b, span(4, 4)));
        assert!(c.contains(b, span(8, 4)));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.bytes_cached() <= 10);
    }

    #[test]
    fn oversized_segment_is_not_cached() {
        let mut c = SegmentCache::new(8);
        let b = BlobId::new(1);
        c.insert(b, span(0, 16), vec![0; 16]);
        assert!(!c.contains(b, span(0, 16)));
        assert_eq!(c.stats().insertions, 0);
        assert_eq!(c.bytes_cached(), 0);
    }

    #[test]
    fn disabled_cache_always_misses() {
        let mut c = SegmentCache::disabled();
        assert!(!c.is_enabled());
        let b = BlobId::new(1);
        c.insert(b, span(0, 4), vec![0; 4]);
        assert!(c.get(b, span(0, 4)).is_none());
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn reinsert_refreshes_bytes_without_leaking_budget() {
        let mut c = SegmentCache::new(16);
        let b = BlobId::new(1);
        c.insert(b, span(0, 4), vec![0; 4]);
        c.insert(b, span(0, 4), vec![9; 4]);
        assert_eq!(c.bytes_cached(), 4);
        assert_eq!(c.get(b, span(0, 4)).unwrap(), &[9; 4]);
    }

    #[test]
    fn set_budget_shrink_evicts_lru_and_grow_is_immediate() {
        let mut c = SegmentCache::new(12);
        let b = BlobId::new(1);
        c.insert(b, span(0, 4), vec![0; 4]);
        c.insert(b, span(4, 4), vec![1; 4]);
        c.insert(b, span(8, 4), vec![2; 4]);
        assert!(c.get(b, span(0, 4)).is_some(), "refresh recency of first");
        assert_eq!(c.set_budget(8), 12);
        assert!(c.contains(b, span(0, 4)), "recently used survives");
        assert!(!c.contains(b, span(4, 4)), "LRU victim of the shrink");
        assert!(c.bytes_cached() <= 8);
        assert_eq!(c.set_budget(64), 8, "returns the shrunk budget");
        c.insert(b, span(16, 16), vec![3; 16]);
        assert!(c.contains(b, span(16, 16)), "grow takes effect at once");
    }

    #[test]
    fn generation_tracks_resident_set_changes() {
        let mut c = SegmentCache::new(8);
        let b = BlobId::new(1);
        assert_eq!(c.generation(), 0);
        c.insert(b, span(0, 4), vec![0; 4]);
        assert_eq!(c.generation(), 1, "new span advances");
        c.insert(b, span(0, 4), vec![9; 4]);
        assert_eq!(c.generation(), 1, "refresh does not");
        assert!(c.get(b, span(0, 4)).is_some());
        assert_eq!(c.generation(), 1, "hits do not");
        c.insert(b, span(4, 8), vec![1; 8]);
        assert_eq!(c.generation(), 3, "insert plus the eviction it forced");
        c.clear();
        assert_eq!(c.generation(), 4, "clear of a non-empty cache advances");
        c.clear();
        assert_eq!(c.generation(), 4, "clear of an empty cache does not");
    }

    #[test]
    fn clear_keeps_counters() {
        let mut c = SegmentCache::new(64);
        let b = BlobId::new(1);
        c.insert(b, span(0, 4), vec![0; 4]);
        assert!(c.get(b, span(0, 4)).is_some());
        c.clear();
        assert_eq!(c.bytes_cached(), 0);
        assert!(c.get(b, span(0, 4)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }
}
