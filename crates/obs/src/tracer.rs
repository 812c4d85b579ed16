//! The tracer: a ring-buffered recorder of spans and instant events on the
//! *simulated* clock.
//!
//! Every timestamp comes from the caller's simulated [`TimePoint`], never
//! from the host clock, so a trace is a pure function of the run that
//! produced it — two runs with the same seed export byte-identical traces.
//! A [`Tracer`] is a cheaply clonable handle; clones share one ring, which
//! is how the serving layer, the player and the storage fault injector all
//! write into a single timeline. A disabled tracer ([`Tracer::disabled`])
//! carries no ring at all: every call is a branch on an `Option` and an
//! immediate return, so instrumented code costs nothing when nobody is
//! watching.
//!
//! Records live in a bounded ring (capacity fixed at construction). When
//! the ring is full the *oldest* records are evicted and counted in
//! [`TraceSnapshot::dropped`] — a long run keeps its most recent window,
//! and the drop count keeps the loss honest.
//!
//! The ring lives behind an `Arc<Mutex<_>>`, so a tracer handle can cross
//! threads: the parallel shard pool hands each worker servers that carry
//! their own tracers. Determinism is preserved by giving each shard its
//! *own* ring with a disjoint id range ([`Tracer::with_capacity_and_base`])
//! and merging snapshots in shard order ([`merge_snapshots`]) — never by
//! letting two threads interleave writes into one ring.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};
use tbm_time::{Rational, TimePoint};

/// Identifies one record in a trace. Ids are assigned sequentially, so a
/// span's parent always has a smaller id than the span itself — which makes
/// parent links acyclic by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The absent span: no parent, or a span issued by a disabled tracer.
    pub const NONE: SpanId = SpanId(u64::MAX);

    /// The raw sequence number.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// `true` for [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }
}

impl Default for SpanId {
    /// [`SpanId::NONE`].
    fn default() -> SpanId {
        SpanId::NONE
    }
}

/// What subsystem a record belongs to — the `cat` field of the Chrome
/// trace-event export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Session lifecycle (open/play/pause/seek/close/finish).
    Session,
    /// Admission-control verdicts.
    Admission,
    /// Element service through the shared channel.
    Serve,
    /// Storage transfers (first-attempt reads and retry re-reads).
    Storage,
    /// Segment-cache lookups.
    Cache,
    /// Decode work and dispatch overhead.
    Decode,
    /// Injected storage faults.
    Fault,
    /// Presentation outcomes (deadline hits and misses).
    Present,
    /// Storage-tier transitions: breaker trips, hedged probes, failovers
    /// and cross-tier repairs.
    Tier,
    /// Fleet-level events: node crashes and restarts, transport losses,
    /// placement changes and shard migrations.
    Fleet,
    /// Health-plane records: SLO alert opens/closes (one span per
    /// incident) and burn-rate threshold crossings.
    Health,
    /// Remediation-plane records: one span per attempted playbook action,
    /// carrying rule/action attrs at apply and the verification verdict at
    /// close.
    Remediation,
}

impl Category {
    /// The category's stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Session => "session",
            Category::Admission => "admission",
            Category::Serve => "serve",
            Category::Storage => "storage",
            Category::Cache => "cache",
            Category::Decode => "decode",
            Category::Fault => "fault",
            Category::Present => "present",
            Category::Tier => "tier",
            Category::Fleet => "fleet",
            Category::Health => "health",
            Category::Remediation => "remediation",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An attribute value attached to a record. Only exactly-representable
/// types are allowed — no floats — so exports are deterministic down to the
/// byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A static string (enum-like labels).
    Str(&'static str),
    /// An owned string (object names and other dynamic text).
    Text(String),
}

impl AttrValue {
    /// The value as an `i64` when it is numeric.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            AttrValue::U64(v) => i64::try_from(*v).ok(),
            AttrValue::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string when it is textual.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            AttrValue::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Text(s) => f.write_str(s),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue::I64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Text(v)
    }
}

/// Whether a record is a span (has duration) or an instant event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// An interval: `start..end` in simulated time. `end` is `None` until
    /// the span is closed.
    Span,
    /// A point in time.
    Instant,
}

/// One recorded span or event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Sequence number; doubles as the span id.
    pub id: u64,
    /// Enclosing span, or [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// The record's name (a static label, e.g. `"element"`).
    pub name: &'static str,
    /// Subsystem category.
    pub cat: Category,
    /// The session this record is attributed to, if any.
    pub session: Option<u64>,
    /// Span start (or event time) on the simulated clock.
    pub start: TimePoint,
    /// Span end; `None` for instants and unclosed spans.
    pub end: Option<TimePoint>,
    /// Span vs instant.
    pub kind: RecordKind,
    /// Attached key/value attributes, in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl TraceRecord {
    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// A numeric attribute by key, defaulting to 0 when absent.
    pub fn attr_i64(&self, key: &str) -> i64 {
        self.attr(key).and_then(AttrValue::as_i64).unwrap_or(0)
    }
}

/// An owned copy of the tracer's current contents, in id order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// Records still resident in the ring, oldest first.
    pub records: Vec<TraceRecord>,
    /// Records evicted from the ring since the start of the run.
    pub dropped: u64,
}

#[derive(Debug)]
struct Ring {
    cap: usize,
    next_id: u64,
    dropped: u64,
    now: TimePoint,
    records: VecDeque<TraceRecord>,
}

impl Ring {
    /// Index of record `id` in the deque, if still resident.
    fn index_of(&self, id: u64) -> Option<usize> {
        let first = self.records.front()?.id;
        if id < first {
            return None;
        }
        let idx = (id - first) as usize;
        (idx < self.records.len()).then_some(idx)
    }

    fn push(&mut self, record: TraceRecord) {
        if self.records.len() == self.cap {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }
}

/// A handle to a shared, ring-buffered trace recorder.
///
/// Clone it freely: clones share the ring. See the [module docs](self) for
/// the model.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Ring>>>,
}

/// Default ring capacity: enough for every record of the workloads in this
/// workspace's experiments.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

impl Tracer {
    /// An enabled tracer with the default ring capacity.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled tracer retaining at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer::with_capacity_and_base(capacity, 0)
    }

    /// An enabled tracer whose record ids start at `id_base` instead of 0.
    ///
    /// Per-shard tracers use disjoint id bases (shard `i` gets
    /// `i * stride`) so that snapshots merged in shard order keep the
    /// "parent id < child id" invariant and stay byte-identical no matter
    /// how many worker threads ran the shards.
    pub fn with_capacity_and_base(capacity: usize, id_base: u64) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Mutex::new(Ring {
                cap: capacity.max(1),
                next_id: id_base,
                dropped: 0,
                now: TimePoint::ZERO,
                records: VecDeque::new(),
            }))),
        }
    }

    /// A disabled tracer: every call is a no-op returning
    /// [`SpanId::NONE`]. This is the zero-cost default.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// `true` when records are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the tracer's notion of "now" — used by layers (like the
    /// storage fault injector) that observe events but do not own a clock.
    /// The driver (server or player) sets this as its own clock advances.
    pub fn set_now(&self, at: TimePoint) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().now = at;
        }
    }

    /// The last time set by [`Tracer::set_now`].
    pub fn now(&self) -> TimePoint {
        self.inner
            .as_ref()
            .map(|i| i.lock().unwrap().now)
            .unwrap_or(TimePoint::ZERO)
    }

    /// Opens a span starting at `at`. Close it with [`Tracer::end_span`];
    /// attach attributes any time before the ring evicts it.
    pub fn begin_span(
        &self,
        name: &'static str,
        cat: Category,
        at: TimePoint,
        parent: SpanId,
        session: Option<u64>,
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let mut ring = inner.lock().unwrap();
        let id = ring.next_id;
        ring.next_id += 1;
        ring.push(TraceRecord {
            id,
            parent,
            name,
            cat,
            session,
            start: at,
            end: None,
            kind: RecordKind::Span,
            attrs: Vec::new(),
        });
        SpanId(id)
    }

    /// Closes a span at `at`. A no-op if the span was already evicted (or
    /// the tracer is disabled).
    pub fn end_span(&self, span: SpanId, at: TimePoint) {
        let Some(inner) = &self.inner else {
            return;
        };
        if span.is_none() {
            return;
        }
        let mut ring = inner.lock().unwrap();
        if let Some(idx) = ring.index_of(span.0) {
            ring.records[idx].end = Some(at);
        }
    }

    /// Attaches an attribute to an open (or closed, still-resident) span.
    pub fn attr(&self, span: SpanId, key: &'static str, value: impl Into<AttrValue>) {
        let Some(inner) = &self.inner else {
            return;
        };
        if span.is_none() {
            return;
        }
        let mut ring = inner.lock().unwrap();
        if let Some(idx) = ring.index_of(span.0) {
            ring.records[idx].attrs.push((key, value.into()));
        }
    }

    /// Records an instant event at `at`.
    pub fn event(
        &self,
        name: &'static str,
        cat: Category,
        at: TimePoint,
        parent: SpanId,
        session: Option<u64>,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanId {
        self.event_with(name, cat, at, parent, session, || attrs)
    }

    /// [`Tracer::event`] with the attributes built on demand: `attrs` runs
    /// only when the tracer is enabled, so a hot path pays nothing — not
    /// even the attribute `Vec` — for an event nobody records.
    pub fn event_with(
        &self,
        name: &'static str,
        cat: Category,
        at: TimePoint,
        parent: SpanId,
        session: Option<u64>,
        attrs: impl FnOnce() -> Vec<(&'static str, AttrValue)>,
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let attrs = attrs();
        let mut ring = inner.lock().unwrap();
        let id = ring.next_id;
        ring.next_id += 1;
        ring.push(TraceRecord {
            id,
            parent,
            name,
            cat,
            session,
            start: at,
            end: None,
            kind: RecordKind::Instant,
            attrs,
        });
        SpanId(id)
    }

    /// Records an instant event at the tracer's current "now" — the call
    /// used by layers without a clock of their own.
    pub fn event_now(
        &self,
        name: &'static str,
        cat: Category,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanId {
        let at = self.now();
        self.event(name, cat, at, SpanId::NONE, None, attrs)
    }

    /// Records resident in the ring right now.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map(|i| i.lock().unwrap().records.len())
            .unwrap_or(0)
    }

    /// `true` when no records are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An owned snapshot of the resident records, in id order.
    pub fn snapshot(&self) -> TraceSnapshot {
        match &self.inner {
            Some(inner) => {
                let ring = inner.lock().unwrap();
                TraceSnapshot {
                    records: ring.records.iter().cloned().collect(),
                    dropped: ring.dropped,
                }
            }
            None => TraceSnapshot {
                records: Vec::new(),
                dropped: 0,
            },
        }
    }

    /// Clears the ring and resets the drop count (ids keep counting up).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            let mut ring = inner.lock().unwrap();
            ring.records.clear();
            ring.dropped = 0;
        }
    }
}

/// Concatenates per-shard snapshots, in the order given, into one timeline.
///
/// Each input ring must have been built with a disjoint id base
/// ([`Tracer::with_capacity_and_base`]); the caller passes the parts in
/// shard order, so the merged record list is a pure function of the run —
/// independent of which worker thread ran which shard. Drop counts add up.
pub fn merge_snapshots(parts: impl IntoIterator<Item = TraceSnapshot>) -> TraceSnapshot {
    let mut merged = TraceSnapshot {
        records: Vec::new(),
        dropped: 0,
    };
    for part in parts {
        merged.records.extend(part.records);
        merged.dropped += part.dropped;
    }
    merged
}

/// Exact whole microseconds of a simulated time value (floor), the unit of
/// every exported timestamp.
///
/// One widening multiply and one floor division: the denominator is
/// positive, so Euclidean division is the floor. Panics only when the
/// result itself does not fit `i64`.
pub fn micros(seconds: Rational) -> i64 {
    let us = (seconds.numer() as i128 * 1_000_000).div_euclid(seconds.denom() as i128);
    i64::try_from(us).expect("microseconds overflow i64")
}

/// Exact whole microseconds since the origin of a time point.
pub fn micros_of(at: TimePoint) -> i64 {
    micros(at.seconds())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbm_time::TimeDelta;

    fn t(ms: i64) -> TimePoint {
        TimePoint::ZERO + TimeDelta::from_millis(ms)
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tr = Tracer::disabled();
        assert!(!tr.is_enabled());
        let s = tr.begin_span("x", Category::Serve, t(0), SpanId::NONE, None);
        assert!(s.is_none());
        tr.attr(s, "k", 1u64);
        tr.end_span(s, t(1));
        tr.set_now(t(5));
        assert_eq!(tr.now(), TimePoint::ZERO);
        assert_eq!(tr.event_now("e", Category::Fault, vec![]), SpanId::NONE);
        assert!(tr.snapshot().records.is_empty());
        assert!(tr.is_empty());
    }

    #[test]
    fn spans_record_parent_links_and_attrs() {
        let tr = Tracer::new();
        let root = tr.begin_span("root", Category::Serve, t(0), SpanId::NONE, Some(3));
        let child = tr.begin_span("child", Category::Storage, t(1), root, Some(3));
        tr.attr(child, "bytes", 512u64);
        tr.end_span(child, t(2));
        tr.end_span(root, t(3));
        let snap = tr.snapshot();
        assert_eq!(snap.records.len(), 2);
        assert_eq!(snap.records[0].name, "root");
        assert_eq!(snap.records[1].parent, root);
        assert_eq!(snap.records[1].end, Some(t(2)));
        assert_eq!(snap.records[1].attr_i64("bytes"), 512);
        assert!(snap.records[1].parent.raw() < snap.records[1].id);
    }

    #[test]
    fn clones_share_one_ring() {
        let tr = Tracer::new();
        let clone = tr.clone();
        clone.set_now(t(9));
        clone.event_now("fault", Category::Fault, vec![("offset", 7u64.into())]);
        assert_eq!(tr.now(), t(9));
        let snap = tr.snapshot();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].start, t(9));
        assert_eq!(snap.records[0].kind, RecordKind::Instant);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let tr = Tracer::with_capacity(3);
        for i in 0..5 {
            tr.event("e", Category::Serve, t(i), SpanId::NONE, None, vec![]);
        }
        let snap = tr.snapshot();
        assert_eq!(snap.records.len(), 3);
        assert_eq!(snap.dropped, 2);
        assert_eq!(snap.records[0].id, 2, "oldest two evicted");
        // Ending an evicted span is a harmless no-op.
        tr.end_span(SpanId(0), t(9));
    }

    #[test]
    fn micros_floor_exact() {
        assert_eq!(micros(Rational::new(1, 2)), 500_000);
        assert_eq!(micros(Rational::new(1, 3)), 333_333);
        assert_eq!(micros_of(t(40)), 40_000);
        assert_eq!(micros(Rational::from(-1)), -1_000_000);
    }

    mod micros_prop {
        use super::*;
        use proptest::prelude::*;

        /// `micros` as it was before the widening multiply: a `Rational`
        /// product (which reduces, running Euclid) and then the floor.
        fn reference(s: Rational) -> Option<i64> {
            s.checked_mul(Rational::from(1_000_000))
                .ok()
                .map(Rational::floor)
        }

        /// Small denominators, media clocks' ones and the 10¹¹–10¹² ones
        /// the serve path's summed costs carry.
        fn denominators() -> impl Strategy<Value = i64> {
            let up_to = |max: i64| 1..=max;
            prop_oneof![
                up_to(1_000),
                Just(1_000_000i64),
                Just(1_001i64 * 30_000),
                up_to(1_000_000_000_000),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn micros_matches_the_rational_product(
                num in -1_000_000_000_000i64..=1_000_000_000_000,
                den in denominators(),
            ) {
                let s = Rational::new(num, den);
                prop_assert_eq!(Some(micros(s)), reference(s));
            }

            /// A whole number of microseconds, and the nearest values on
            /// either side of it that the denominator can express.
            #[test]
            fn micros_steps_exactly_at_a_whole_microsecond(
                us in -1_000_000i64..=1_000_000,
                den in denominators(),
                side in -1i64..=1,
            ) {
                let s = Rational::new(us, 1_000_000) + Rational::new(side, den);
                prop_assert_eq!(Some(micros(s)), reference(s));
                if side == 0 {
                    prop_assert_eq!(micros(s), us);
                } else if den > 1_000_000 {
                    // Less than a microsecond away: below stays in the
                    // previous microsecond, above stays in this one.
                    prop_assert_eq!(micros(s), if side < 0 { us - 1 } else { us });
                }
            }
        }
    }

    #[test]
    fn attr_values_convert() {
        assert_eq!(AttrValue::from(3usize).as_i64(), Some(3));
        assert_eq!(AttrValue::from(-2i64).as_i64(), Some(-2));
        assert_eq!(AttrValue::from("x").as_str(), Some("x"));
        assert_eq!(AttrValue::from("y".to_owned()).as_str(), Some("y"));
        assert_eq!(AttrValue::from("x").as_i64(), None);
        assert_eq!(AttrValue::U64(u64::MAX).as_i64(), None);
    }
}
