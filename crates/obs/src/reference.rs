//! The recorder the compact ring replaced, kept as the oracle it is tested
//! against: one `TraceRecord` per record in a `VecDeque`, one lock per
//! call, attributes pushed one at a time onto the record's own vector.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use tbm_time::TimePoint;

use crate::tracer::{AttrValue, Category, RecordKind, SpanId, TraceRecord, TraceSnapshot};

#[derive(Debug)]
struct Ring {
    cap: usize,
    next_id: u64,
    dropped: u64,
    now: TimePoint,
    records: VecDeque<TraceRecord>,
}

impl Ring {
    fn index_of(&self, id: u64) -> Option<usize> {
        let first = self.records.front()?.id;
        if id < first {
            return None;
        }
        let idx = (id - first) as usize;
        (idx < self.records.len()).then_some(idx)
    }

    fn push(&mut self, record: TraceRecord) -> SpanId {
        if self.records.len() == self.cap {
            self.records.pop_front();
            self.dropped += 1;
        }
        let id = record.id;
        self.records.push_back(record);
        self.next_id += 1;
        SpanId::from_raw(id)
    }
}

/// The naive twin of [`crate::Tracer`].
#[derive(Debug, Clone)]
pub struct NaiveTracer {
    inner: Arc<Mutex<Ring>>,
}

impl NaiveTracer {
    pub fn with_capacity(capacity: usize) -> NaiveTracer {
        NaiveTracer {
            inner: Arc::new(Mutex::new(Ring {
                cap: capacity.max(1),
                next_id: 0,
                dropped: 0,
                now: TimePoint::ZERO,
                records: VecDeque::new(),
            })),
        }
    }

    pub fn set_now(&self, at: TimePoint) {
        self.inner.lock().unwrap().now = at;
    }

    pub fn now(&self) -> TimePoint {
        self.inner.lock().unwrap().now
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        name: &'static str,
        cat: Category,
        kind: RecordKind,
        at: TimePoint,
        parent: SpanId,
        session: Option<u64>,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanId {
        let mut ring = self.inner.lock().unwrap();
        let id = ring.next_id;
        ring.push(TraceRecord {
            id,
            parent,
            name,
            cat,
            session,
            start: at,
            end: None,
            kind,
            attrs,
        })
    }

    pub fn begin_span(
        &self,
        name: &'static str,
        cat: Category,
        at: TimePoint,
        parent: SpanId,
        session: Option<u64>,
    ) -> SpanId {
        self.record(name, cat, RecordKind::Span, at, parent, session, Vec::new())
    }

    pub fn attr(&self, span: SpanId, key: &'static str, value: AttrValue) {
        if span.is_none() {
            return;
        }
        let mut ring = self.inner.lock().unwrap();
        if let Some(idx) = ring.index_of(span.raw()) {
            ring.records[idx].attrs.push((key, value));
        }
    }

    pub fn end_span(&self, span: SpanId, at: TimePoint) {
        if span.is_none() {
            return;
        }
        let mut ring = self.inner.lock().unwrap();
        if let Some(idx) = ring.index_of(span.raw()) {
            ring.records[idx].end = Some(at);
        }
    }

    pub fn event(
        &self,
        name: &'static str,
        cat: Category,
        at: TimePoint,
        parent: SpanId,
        session: Option<u64>,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanId {
        self.record(name, cat, RecordKind::Instant, at, parent, session, attrs)
    }

    pub fn event_now(
        &self,
        name: &'static str,
        cat: Category,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanId {
        let at = self.now();
        self.event(name, cat, at, SpanId::NONE, None, attrs)
    }

    pub fn snapshot(&self) -> TraceSnapshot {
        let ring = self.inner.lock().unwrap();
        TraceSnapshot {
            records: ring.records.iter().cloned().collect(),
            dropped: ring.dropped,
        }
    }

    pub fn clear(&self) {
        let mut ring = self.inner.lock().unwrap();
        ring.records.clear();
        ring.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::NaiveTracer;
    use crate::attribution::{attribute, ATTR_INHERITED_US, ATTR_LATENESS_US, ATTR_WAIT_US};
    use crate::tracer::{AttrValue, Attrs, Category, SpanId, Tracer};
    use proptest::prelude::*;
    use tbm_core::splitmix64;
    use tbm_time::{Rational, TimePoint};

    const NAMES: [&str; 4] = [crate::ELEMENT_SPAN, "session", "cache.hit", "x"];
    const KEYS: [&str; 6] = [
        ATTR_LATENESS_US,
        ATTR_WAIT_US,
        ATTR_INHERITED_US,
        crate::ATTR_ELEMENT_INDEX,
        "fate",
        "object",
    ];
    const STRS: [&str; 3] = ["intact", "dropped", ""];
    const CATEGORIES: [Category; 12] = [
        Category::Session,
        Category::Admission,
        Category::Serve,
        Category::Storage,
        Category::Cache,
        Category::Decode,
        Category::Fault,
        Category::Present,
        Category::Tier,
        Category::Fleet,
        Category::Health,
        Category::Remediation,
    ];

    /// A stream of draws from one seed.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self, below: u64) -> u64 {
            self.0 = splitmix64(self.0);
            self.0 % below
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.next(from.len() as u64) as usize]
        }

        fn time(&mut self) -> TimePoint {
            let den = self.pick(&[1, 1_000, 3, 1_000_000, 7_919, 1_000_000_000_007]);
            let num = self.next(20_000_000) as i64 - 1_000_000;
            TimePoint::from_seconds(Rational::new(num, den))
        }

        fn value(&mut self) -> AttrValue {
            match self.next(5) {
                0 => AttrValue::U64(self.next(2_000)),
                1 => AttrValue::U64(u64::MAX - self.next(2)),
                2 => AttrValue::I64(self.next(4_000) as i64 - 1_000),
                3 => AttrValue::Str(self.pick(&STRS)),
                _ => AttrValue::Text(format!("obj{}", self.next(300))),
            }
        }

        fn attrs(&mut self) -> Vec<(&'static str, AttrValue)> {
            let n = self.next(5);
            (0..n).map(|_| (self.pick(&KEYS), self.value())).collect()
        }

        fn session(&mut self) -> Option<u64> {
            match self.next(3) {
                0 => None,
                1 => Some(self.next(3)),
                _ => Some(u64::MAX - self.next(3)),
            }
        }
    }

    fn put_all<'a>(attrs: &'a [(&'static str, AttrValue)]) -> impl FnOnce(&mut Attrs<'_>) + 'a {
        move |a| a.extend(attrs.iter().cloned())
    }

    /// Runs one random script through two clones of each recorder.
    fn run_script(capacity: usize, seed: u64, steps: usize) -> (Tracer, NaiveTracer) {
        let compact = Tracer::with_capacity(capacity);
        let naive = NaiveTracer::with_capacity(capacity);
        let handles = [
            (compact.clone(), naive.clone()),
            (compact.clone(), naive.clone()),
        ];
        let mut d = Draw(seed);
        let mut spans = vec![SpanId::NONE];
        for _ in 0..steps {
            let (c, n) = &handles[d.next(2) as usize];
            let name = d.pick(&NAMES);
            let cat = d.pick(&CATEGORIES);
            match d.next(12) {
                0..=2 => {
                    let (at, parent, session, attrs) =
                        (d.time(), d.pick(&spans), d.session(), d.attrs());
                    let a = c.begin_span_with(name, cat, at, parent, session, put_all(&attrs));
                    let b = n.begin_span(name, cat, at, parent, session);
                    for (key, value) in attrs {
                        n.attr(b, key, value);
                    }
                    assert_eq!(a, b);
                    spans.push(a);
                }
                3 => {
                    let (at, parent, session, attrs) =
                        (d.time(), d.pick(&spans), d.session(), d.attrs());
                    let a =
                        c.advance_and_begin_span(name, cat, at, parent, session, put_all(&attrs));
                    n.set_now(at);
                    let b = n.begin_span(name, cat, at, parent, session);
                    for (key, value) in attrs {
                        n.attr(b, key, value);
                    }
                    assert_eq!(a, b);
                    spans.push(a);
                }
                4..=6 => {
                    let (span, at, attrs) = (d.pick(&spans), d.time(), d.attrs());
                    c.end_span_with(span, at, put_all(&attrs));
                    for (key, value) in attrs {
                        n.attr(span, key, value);
                    }
                    n.end_span(span, at);
                }
                7 | 8 => {
                    let (at, parent, session, attrs) =
                        (d.time(), d.pick(&spans), d.session(), d.attrs());
                    let a = c.event(name, cat, at, parent, session, attrs.clone());
                    assert_eq!(a, n.event(name, cat, at, parent, session, attrs));
                    spans.push(a);
                }
                9 => {
                    let attrs = d.attrs();
                    let a = c.event_now(name, cat, attrs.clone());
                    assert_eq!(a, n.event_now(name, cat, attrs));
                }
                10 => {
                    let at = d.time();
                    c.set_now(at);
                    n.set_now(at);
                }
                _ => {
                    if d.next(4) == 0 {
                        c.clear();
                        n.clear();
                    }
                }
            }
        }
        (compact, naive)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The compact ring records exactly what the naive recorder does:
        /// the same resident records (ids, timestamps, attributes in
        /// order), the same drop count, the same "now" and the same miss
        /// attribution, read in place or from a snapshot.
        #[test]
        fn compact_ring_matches_the_naive_recorder(
            capacity in 1usize..=8,
            seed in any::<u64>(),
            steps in 0usize..120,
        ) {
            let (compact, naive) = run_script(capacity, seed, steps);
            let (got, want) = (compact.snapshot(), naive.snapshot());
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(compact.len(), want.records.len());
            prop_assert_eq!(compact.now(), naive.now());
            let in_place = compact.read(|trace| attribute(trace.records()));
            prop_assert_eq!(&in_place, &attribute(&want.records));
            compact.read(|trace| {
                for r in &want.records {
                    let rec = trace.get(r.id).expect("resident");
                    assert_eq!(rec.to_record(), *r);
                    assert_eq!((rec.start(), rec.end()), (r.start, r.end));
                }
            });
        }
    }

    #[test]
    fn long_scripts_through_a_wide_ring_match_too() {
        for seed in 0..8 {
            let (compact, naive) = run_script(64, seed, 4_000);
            assert_eq!(compact.snapshot(), naive.snapshot());
        }
    }
}
