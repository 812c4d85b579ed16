//! Differential test of [`SegmentCache`] against the naive LRU it used to
//! be: a `HashMap` of entries plus a `BTreeMap` from a recency sequence
//! number to the key. The naive form is obviously a strict LRU and is kept
//! here, verbatim in behaviour, as the oracle for the index-linked slab
//! ([`tbm_blob::LruSlab`]) that replaced it.
//!
//! Random traces of `get` / `insert` (new, refresh, oversized, empty) /
//! `set_budget` (shrink, grow, zero) / `clear` run through both. After
//! every step the answer, the counters, `generation` and the resident keys
//! *in recency order* must agree — and equal recency order before and after
//! a step means the step evicted the same victims in the same order.

use crate::{CacheStats, SegmentCache};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use tbm_blob::{ByteSpan, SpanKey};
use tbm_core::BlobId;

/// The `HashMap` + `BTreeMap<u64, Key>` cache, as `SegmentCache` was.
#[derive(Default)]
struct NaiveCache {
    budget: u64,
    bytes: u64,
    seq: u64,
    generation: u64,
    entries: HashMap<SpanKey, (Vec<u8>, u64)>, // key -> (bytes, sequence)
    lru: BTreeMap<u64, SpanKey>,               // sequence -> key
    stats: CacheStats,
}

impl NaiveCache {
    fn get(&mut self, k: SpanKey) -> Option<&[u8]> {
        match self.entries.get_mut(&k) {
            Some((data, seq)) => {
                self.stats.hits += 1;
                self.stats.bytes_served += k.2;
                self.lru.remove(seq);
                self.seq += 1;
                *seq = self.seq;
                self.lru.insert(self.seq, k);
                Some(data)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, k: SpanKey, data: Vec<u8>) {
        if data.len() as u64 > self.budget {
            return;
        }
        if let Some((old, seq)) = self.entries.remove(&k) {
            self.lru.remove(&seq);
            self.bytes -= old.len() as u64;
        } else {
            self.generation += 1;
        }
        self.bytes += data.len() as u64;
        self.seq += 1;
        self.lru.insert(self.seq, k);
        self.entries.insert(k, (data, self.seq));
        self.stats.insertions += 1;
        self.evict();
    }

    fn evict(&mut self) {
        while self.bytes > self.budget {
            let (_, victim) = self.lru.pop_first().expect("over budget implies an entry");
            let (data, _) = self.entries.remove(&victim).expect("lru and entries agree");
            self.bytes -= data.len() as u64;
            self.stats.evictions += 1;
            self.generation += 1;
        }
    }

    fn set_budget(&mut self, budget: u64) -> u64 {
        let prev = std::mem::replace(&mut self.budget, budget);
        self.evict();
        prev
    }

    fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.generation += 1;
        }
        self.entries.clear();
        self.lru.clear();
        self.bytes = 0;
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            bytes_cached: self.bytes,
            ..self.stats
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Get(u64),
    /// Insert span `.0` filled with byte `.1`.
    Insert(u64, u8),
    SetBudget(u64),
    Clear,
}

/// Twelve spans of 0 to 33 bytes over two BLOBs.
fn span_of(i: u64) -> (BlobId, ByteSpan) {
    (BlobId::new(i % 2), ByteSpan::new(i * 40, i * 3))
}

/// Budgets: off, smaller than most spans, a few spans' worth, and wide.
fn budget() -> impl Strategy<Value = u64> {
    let below = |max: u64| 0..max;
    prop_oneof![Just(0u64), Just(20u64), Just(64u64), below(200)]
}

fn op() -> impl Strategy<Value = Op> {
    let span = || 0u64..12;
    prop_oneof![
        span().prop_map(Op::Get),
        span().prop_map(Op::Get),
        (span(), any::<u8>()).prop_map(|(i, fill)| Op::Insert(i, fill)),
        (span(), any::<u8>()).prop_map(|(i, fill)| Op::Insert(i, fill)),
        (span(), any::<u8>()).prop_map(|(i, fill)| Op::Insert(i, fill)),
        budget().prop_map(Op::SetBudget),
        Just(Op::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slab_cache_matches_the_naive_lru_step_for_step(
        budget in budget(),
        trace in proptest::collection::vec(op(), 1..120),
    ) {
        let mut cache = SegmentCache::new(budget);
        let mut naive = NaiveCache { budget, ..NaiveCache::default() };
        for (step, op) in trace.iter().enumerate() {
            match *op {
                Op::Get(i) => {
                    let (blob, span) = span_of(i);
                    let got = cache.get(blob, span).map(<[u8]>::to_vec);
                    let want = naive.get((blob.raw(), span.offset, span.len)).map(<[u8]>::to_vec);
                    prop_assert_eq!(got, want, "step {}: {:?}", step, op);
                }
                Op::Insert(i, fill) => {
                    let (blob, span) = span_of(i);
                    let data = vec![fill; span.len as usize];
                    cache.insert(blob, span, data.clone());
                    naive.insert((blob.raw(), span.offset, span.len), data);
                }
                Op::SetBudget(b) => {
                    prop_assert_eq!(cache.set_budget(b), naive.set_budget(b));
                }
                Op::Clear => {
                    cache.clear();
                    naive.clear();
                }
            }
            let order: Vec<SpanKey> = naive.lru.values().copied().collect();
            prop_assert_eq!(cache.keys_lru_first(), order, "step {}: {:?}", step, op);
            prop_assert_eq!(cache.stats(), naive.stats(), "step {}: {:?}", step, op);
            prop_assert_eq!(cache.generation(), naive.generation);
            prop_assert_eq!(cache.bytes_cached(), naive.bytes);
            prop_assert_eq!(cache.budget(), naive.budget);
        }
    }
}

/// The traces reach what the property is about: hits, refreshes of a
/// resident span, refused oversized spans, and evictions from both
/// `insert` and a shrinking `set_budget`.
#[test]
fn generated_traces_reach_every_cache_path() {
    let mut rng = proptest::test_runner::TestRng::for_test("cache_prop_coverage");
    let strategy = proptest::collection::vec(op(), 100..120);
    let (mut hits, mut refreshed, mut refused, mut by_insert, mut by_shrink) = (0, 0, 0, 0, 0);
    for _ in 0..16 {
        let mut cache = SegmentCache::new(64);
        for op in strategy.generate(&mut rng) {
            let before = cache.stats();
            match op {
                Op::Get(i) => {
                    let (blob, span) = span_of(i);
                    hits += u64::from(cache.get(blob, span).is_some());
                }
                Op::Insert(i, fill) => {
                    let (blob, span) = span_of(i);
                    let resident = cache.contains(blob, span);
                    cache.insert(blob, span, vec![fill; span.len as usize]);
                    let after = cache.stats();
                    refused += u64::from(after.insertions == before.insertions);
                    refreshed += u64::from(resident && after.insertions > before.insertions);
                    by_insert += after.evictions - before.evictions;
                }
                Op::SetBudget(b) => {
                    cache.set_budget(b);
                    by_shrink += cache.stats().evictions - before.evictions;
                }
                Op::Clear => cache.clear(),
            }
        }
    }
    assert!(
        hits > 0 && refreshed > 0 && refused > 0 && by_insert > 0 && by_shrink > 0,
        "hits {hits}, refreshed {refreshed}, refused {refused}, \
         evicted by insert {by_insert}, by shrink {by_shrink}"
    );
}
