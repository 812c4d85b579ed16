//! Differential test of a budgeted tier's [`Residency`] against the naive
//! LRU it used to be (a `HashMap` plus a `BTreeMap` from a recency tick to
//! the key), kept here as the oracle for the shared
//! [`LruSlab`](crate::LruSlab): random `touch` / `insert` traces must give
//! the same answers, the same demotion counts and the same resident bytes
//! after every step.

use crate::tiered::Residency;
use crate::SpanKey;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// The `HashMap` + `BTreeMap<u64, Key>` residency, as it was.
#[derive(Default)]
struct NaiveResidency {
    used: u64,
    tick: u64,
    map: HashMap<SpanKey, (u64, u64)>, // key -> (recency tick, len)
    lru: BTreeMap<u64, SpanKey>,       // recency tick -> key
}

impl NaiveResidency {
    fn touch(&mut self, key: SpanKey) -> bool {
        let Some((tick, len)) = self.map.get(&key).copied() else {
            return false;
        };
        self.lru.remove(&tick);
        self.tick += 1;
        self.map.insert(key, (self.tick, len));
        self.lru.insert(self.tick, key);
        true
    }

    fn insert(&mut self, key: SpanKey, len: u64, budget: u64) -> u64 {
        if self.touch(key) {
            return 0;
        }
        if len > budget {
            return 0;
        }
        self.tick += 1;
        self.map.insert(key, (self.tick, len));
        self.lru.insert(self.tick, key);
        self.used += len;
        let mut demoted = 0;
        while self.used > budget {
            let (_, victim) = self.lru.pop_first().expect("used > 0 implies entries");
            let (_, vlen) = self.map.remove(&victim).expect("lru and map stay in sync");
            self.used -= vlen;
            demoted += 1;
        }
        demoted
    }
}

/// Sixteen spans of 0 to 75 bytes.
fn key_of(i: u64) -> SpanKey {
    (i % 3, i * 100, i * 5)
}

/// A trace step: the span, and whether to `insert` it rather than `touch`.
fn step() -> impl Strategy<Value = (u64, bool)> {
    (0u64..16, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slab_residency_matches_the_naive_lru_step_for_step(
        budget in 0u64..160,
        trace in proptest::collection::vec(step(), 1..160),
    ) {
        let mut slab = Residency::default();
        let mut naive = NaiveResidency::default();
        for (at, &(i, insert)) in trace.iter().enumerate() {
            let key = key_of(i);
            if insert {
                let demoted = slab.insert(key, key.2, budget);
                prop_assert_eq!(demoted, naive.insert(key, key.2, budget), "step {}", at);
            } else {
                prop_assert_eq!(slab.touch(key), naive.touch(key), "step {}", at);
            }
            prop_assert_eq!(slab.used(), naive.used, "step {}", at);
            for probe in (0..16).map(key_of) {
                prop_assert_eq!(slab.contains(&probe), naive.map.contains_key(&probe));
            }
        }
    }
}

/// The traces reach what the property is about: hits, demotions and
/// refused oversized spans all occur in the generator's range.
#[test]
fn generated_traces_touch_demote_and_refuse() {
    let mut rng = proptest::test_runner::TestRng::for_test("residency_prop_coverage");
    let strategy = proptest::collection::vec(step(), 150..160);
    let (mut hits, mut demoted, mut refused) = (0, 0, 0);
    for budget in [40, 100, 150] {
        let mut slab = Residency::default();
        for (i, insert) in strategy.generate(&mut rng) {
            let key = key_of(i);
            if insert {
                demoted += slab.insert(key, key.2, budget);
                refused += u64::from(!slab.contains(&key));
            } else {
                hits += u64::from(slab.touch(key));
            }
        }
    }
    assert!(
        hits > 0 && demoted > 0 && refused > 0,
        "hits {hits}, demoted {demoted}, refused {refused}"
    );
}
