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
//! A record costs one write: one critical section, no heap of its own. A
//! span's attributes arrive with its begin ([`Tracer::begin_span_with`])
//! or with its end ([`Tracer::end_span_with`]); the ring is one byte log of
//! compactly encoded records plus 8 bytes per resident record, reused as
//! the window slides. Readers work on the ring in place ([`Tracer::read`],
//! which miss attribution uses); [`Tracer::snapshot`] is the deep copy,
//! for export.
//!
//! The ring lives behind an `Arc<Mutex<_>>`, so a tracer handle can cross
//! threads: the parallel shard pool hands each worker servers that carry
//! their own tracers. Determinism is preserved by giving each shard its
//! *own* ring with a disjoint id range ([`Tracer::with_capacity_and_base`])
//! and merging snapshots in shard order ([`merge_snapshots`]) — never by
//! letting two threads interleave writes into one ring.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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

    #[cfg(test)]
    pub(crate) fn from_raw(raw: u64) -> SpanId {
        SpanId(raw)
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

/// What miss attribution (and any other in-place reader) needs of one
/// record. Implemented by an owned [`TraceRecord`] and by a [`RecordRef`]
/// into the live ring, so one walk serves a snapshot and the ring alike.
pub trait RecordView {
    /// The record's id.
    fn id(&self) -> u64;
    /// The record's name.
    fn name(&self) -> &str;
    /// The session the record is attributed to, if any.
    fn session(&self) -> Option<u64>;
    /// The first attribute named `key` as an `i64`; 0 when absent or not
    /// numeric.
    fn attr_i64(&self, key: &str) -> i64;
}

impl RecordView for &TraceRecord {
    fn id(&self) -> u64 {
        self.id
    }

    fn name(&self) -> &str {
        self.name
    }

    fn session(&self) -> Option<u64> {
        self.session
    }

    fn attr_i64(&self, key: &str) -> i64 {
        TraceRecord::attr_i64(self, key)
    }
}

/// Interned `&'static str`s: record names, attribute keys and static
/// attribute values are written to the ring as small indices into `table`.
#[derive(Debug)]
struct Names {
    table: Vec<&'static str>,
    /// Direct-mapped cache from a string's address and length to its index
    /// (address 0: empty), so interning a name the ring has seen before is
    /// one multiply and one compare.
    recent: Box<[(usize, usize, u32); NAME_CACHE]>,
}

const NAME_CACHE_BITS: u32 = 8;
const NAME_CACHE: usize = 1 << NAME_CACHE_BITS;

impl Names {
    fn new() -> Names {
        Names {
            table: Vec::new(),
            recent: Box::new([(0, 0, 0); NAME_CACHE]),
        }
    }

    fn intern(&mut self, s: &'static str) -> u32 {
        let addr = s.as_ptr() as usize;
        let line =
            ((addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - NAME_CACHE_BITS)) as usize;
        let (a, len, idx) = self.recent[line];
        if a == addr && len == s.len() {
            return idx;
        }
        let idx = match self.table.iter().position(|t| *t == s) {
            Some(i) => i as u32,
            None => {
                self.table.push(s);
                (self.table.len() - 1) as u32
            }
        };
        self.recent[line] = (addr, s.len(), idx);
        idx
    }

    fn get(&self, idx: u64) -> &'static str {
        self.table[idx as usize]
    }
}

// The encoding. A record is a *begin run*: its name, a flags byte, the
// parent as a distance back from its own id, the session, the start time,
// then its attributes and a 0. Closing a span appends an *end run*: the end
// time, the end attributes and a 0. Integers are LEB128 varints (signed
// ones zigzagged), a time is its exact seconds' numerator and denominator
// as two little-endian `i64`s (branch-free to write), and an attribute is
// `(key index + 1) << 2 | tag` followed by its value.

/// Every category, in declaration order: a record stores its index.
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
const CAT_BITS: u8 = 0x0f;
const INSTANT: u8 = 0x10;
const HAS_PARENT: u8 = 0x20;
const HAS_SESSION: u8 = 0x40;

const TAG_U64: u64 = 0;
const TAG_I64: u64 = 1;
const TAG_STR: u64 = 2;
const TAG_TEXT: u64 = 3;

/// Encoded bytes built on the stack and logged with one copy: pushing
/// bytes one by one onto a `Vec<u8>` reloads its length on every byte, and
/// each small write would cost a copy call of its own.
struct Enc {
    buf: [u8; RUN_BYTES],
    len: usize,
}

/// Stack bytes a run is built in before it is logged.
const RUN_BYTES: usize = 64;

impl Enc {
    fn new() -> Self {
        Enc {
            buf: [0; RUN_BYTES],
            len: 0,
        }
    }

    fn byte(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    fn time(&mut self, at: TimePoint) {
        let s = at.seconds();
        self.buf[self.len..self.len + 8].copy_from_slice(&s.numer().to_le_bytes());
        self.buf[self.len + 8..self.len + 16].copy_from_slice(&s.denom().to_le_bytes());
        self.len += 16;
    }

    fn flush(&mut self, log: &mut Vec<u8>) {
        log.extend_from_slice(&self.buf[..self.len]);
        self.len = 0;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

/// A stored time: exact seconds as (numerator, denominator), in lowest
/// terms as written.
type RawTime = (i64, i64);

fn time_of((num, den): RawTime) -> TimePoint {
    TimePoint::from_seconds(Rational::new(num, den))
}

/// An attribute value as stored: strings are interned indices or UTF-8.
#[derive(Clone, Copy)]
enum Stored<'a> {
    U64(u64),
    I64(i64),
    Str(u64),
    Text(&'a [u8]),
}

/// A reading position in the ring's bytes.
#[derive(Clone, Copy)]
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.at];
        self.at += 1;
        b
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn time(&mut self) -> RawTime {
        let word = |at: usize| i64::from_le_bytes(self.bytes[at..at + 8].try_into().unwrap());
        let t = (word(self.at), word(self.at + 8));
        self.at += 16;
        t
    }

    /// The run's next attribute as (key index, value); `None` at its end.
    fn attr(&mut self) -> Option<(u64, Stored<'a>)> {
        let word = self.varint();
        if word == 0 {
            return None;
        }
        let value = match word & 3 {
            TAG_U64 => Stored::U64(self.varint()),
            TAG_I64 => Stored::I64(unzigzag(self.varint())),
            TAG_STR => Stored::Str(self.varint()),
            _ => {
                let len = self.varint() as usize;
                self.at += len;
                Stored::Text(&self.bytes[self.at - len..self.at])
            }
        };
        Some(((word >> 2) - 1, value))
    }
}

/// The ring: one byte log of encoded runs plus, per resident record, where
/// its runs start. Ids are consecutive, so a record's id is its offset from
/// the oldest resident one. Evicting a record moves the log's live start to
/// the next record's begin run — every run of a resident record was written
/// at or after its begin, so nothing live is cut — and the dead prefix is
/// dropped once it outgrows the rest.
struct Ring {
    cap: usize,
    next_id: u64,
    dropped: u64,
    now: TimePoint,
    /// Per resident record, oldest first: the log positions of its begin
    /// run and of its end run (the same while it is open). Positions count
    /// every byte ever logged; their low 32 bits are kept, so the log from
    /// the oldest resident record on must stay under 4 GiB.
    heads: VecDeque<(u32, u32)>,
    log: Vec<u8>,
    /// Index in `log` of the oldest resident begin run.
    live: usize,
    /// Position of `log[0]`.
    base: u64,
    names: Names,
}

impl fmt::Debug for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ring")
            .field("cap", &self.cap)
            .field("resident", &self.heads.len())
            .field("next_id", &self.next_id)
            .field("dropped", &self.dropped)
            .field("log_bytes", &(self.log.len() - self.live))
            .finish()
    }
}

/// When a new record starts.
#[derive(Clone, Copy)]
enum When {
    At(TimePoint),
    /// At this instant, which also becomes the ring's "now".
    AdvanceTo(TimePoint),
    /// At the ring's "now".
    Now,
}

impl Ring {
    fn new(cap: usize, id_base: u64) -> Ring {
        Ring {
            cap: cap.max(1),
            next_id: id_base,
            dropped: 0,
            now: TimePoint::ZERO,
            heads: VecDeque::new(),
            log: Vec::new(),
            live: 0,
            base: 0,
            names: Names::new(),
        }
    }

    fn first_id(&self) -> u64 {
        self.next_id - self.heads.len() as u64
    }

    /// Index of record `id` in `heads`, if still resident.
    fn index_of(&self, id: u64) -> Option<usize> {
        let idx = id.checked_sub(self.first_id())?;
        (idx < self.heads.len() as u64).then_some(idx as usize)
    }

    /// The log position the next byte goes to.
    fn pos(&self) -> u32 {
        (self.base + self.log.len() as u64) as u32
    }

    /// Index in `log` of position `pos`.
    fn offset(&self, pos: u32) -> usize {
        pos.wrapping_sub(self.base as u32) as usize
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        name: &'static str,
        cat: Category,
        kind: RecordKind,
        when: When,
        parent: SpanId,
        session: Option<u64>,
        attrs: impl FnOnce(&mut Attrs<'_>),
    ) -> SpanId {
        let start = match when {
            When::At(at) => at,
            When::AdvanceTo(at) => {
                self.now = at;
                at
            }
            When::Now => self.now,
        };
        let id = self.next_id;
        let begin = self.pos();
        let name = self.names.intern(name);
        let mut flags = cat as u8;
        if kind == RecordKind::Instant {
            flags |= INSTANT;
        }
        if !parent.is_none() {
            flags |= HAS_PARENT;
        }
        if session.is_some() {
            flags |= HAS_SESSION;
        }
        let mut a = Attrs::new(&mut self.names, &mut self.log);
        a.run.varint(name.into());
        a.run.byte(flags);
        if !parent.is_none() {
            a.run.varint(id.wrapping_sub(parent.0));
        }
        if let Some(session) = session {
            a.run.varint(session);
        }
        a.run.time(start);
        // The run is referenced only once it is whole: should the caller's
        // closure panic, a partial run is dead bytes the log drops later.
        attrs(&mut a);
        a.close();
        if self.heads.len() == self.cap {
            self.heads.pop_front();
            self.dropped += 1;
            self.live = self.offset(self.heads.front().map_or(begin, |h| h.0));
            if self.live >= self.log.len() / 2 {
                self.log.drain(..self.live);
                self.base += self.live as u64;
                self.live = 0;
            }
        }
        debug_assert!(self.log.len() - self.live <= u32::MAX as usize);
        self.next_id += 1;
        self.heads.push_back((begin, begin));
        SpanId(id)
    }

    fn end(&mut self, id: u64, at: TimePoint, attrs: impl FnOnce(&mut Attrs<'_>)) {
        let Some(idx) = self.index_of(id) else {
            return;
        };
        let (begin, ended) = self.heads[idx];
        let run = self.pos();
        // Closed before: the earlier end attributes lead the new run.
        let earlier = (ended != begin).then(|| {
            let mut c = Cursor {
                bytes: &self.log,
                at: self.offset(ended),
            };
            c.time();
            let from = c.at;
            while c.attr().is_some() {}
            from..c.at - 1
        });
        let mut a = Attrs::new(&mut self.names, &mut self.log);
        a.run.time(at);
        if let Some(earlier) = earlier {
            a.run.flush(a.log);
            a.log.extend_from_within(earlier);
        }
        attrs(&mut a);
        a.close();
        self.heads[idx].1 = run;
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.base += self.log.len() as u64;
        self.log.clear();
        self.live = 0;
        self.dropped = 0;
    }
}

/// The attributes of the record being written, put straight into the ring
/// by the closure a `*_with` call takes — inside the record's one critical
/// section, and only when the tracer is enabled. The closure must not use
/// the tracer or a clone of it (the ring's lock is held).
pub struct Attrs<'a> {
    names: &'a mut Names,
    log: &'a mut Vec<u8>,
    /// The run being written, logged when full and when closed.
    run: Enc,
}

impl<'a> Attrs<'a> {
    fn new(names: &'a mut Names, log: &'a mut Vec<u8>) -> Attrs<'a> {
        Attrs {
            names,
            log,
            run: Enc::new(),
        }
    }

    /// Logs the run so far unless `n` more bytes fit.
    fn room(&mut self, n: usize) {
        if self.run.len + n > RUN_BYTES {
            self.run.flush(self.log);
        }
    }

    /// Ends the run and logs it.
    fn close(&mut self) {
        self.room(1);
        self.run.byte(0);
        self.run.flush(self.log);
    }

    /// Appends one attribute.
    #[inline]
    pub fn put(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        let key = u64::from(self.names.intern(key) + 1) << 2;
        // A key and a value: two varints of at most 10 bytes each.
        self.room(20);
        let run = &mut self.run;
        match value.into() {
            AttrValue::U64(v) => {
                run.varint(key | TAG_U64);
                run.varint(v);
            }
            AttrValue::I64(v) => {
                run.varint(key | TAG_I64);
                run.varint(zigzag(v));
            }
            AttrValue::Str(s) => {
                run.varint(key | TAG_STR);
                run.varint(self.names.intern(s).into());
            }
            AttrValue::Text(s) => {
                run.varint(key | TAG_TEXT);
                run.varint(s.len() as u64);
                run.flush(self.log);
                self.log.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// Appends each attribute of `attrs`, in order.
    pub fn extend(&mut self, attrs: impl IntoIterator<Item = (&'static str, AttrValue)>) {
        for (key, value) in attrs {
            self.put(key, value);
        }
    }
}

/// The one place the ring's mutex is taken. A panic while it was held
/// (in a caller's attribute closure or an in-place reader) leaves the ring
/// consistent, so the guard is recovered from the poison, not unwrapped.
fn lock(ring: &Mutex<Ring>) -> MutexGuard<'_, Ring> {
    ring.lock().unwrap_or_else(PoisonError::into_inner)
}

/// No attributes.
fn none(_: &mut Attrs<'_>) {}

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
            inner: Some(Arc::new(Mutex::new(Ring::new(capacity, id_base)))),
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
            lock(inner).now = at;
        }
    }

    /// The last time set by [`Tracer::set_now`].
    pub fn now(&self) -> TimePoint {
        self.read(|trace| trace.ring.map_or(TimePoint::ZERO, |ring| ring.now))
    }

    /// Writes one record, its attributes included, in one critical section;
    /// `attrs` runs only when the tracer is enabled.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        name: &'static str,
        cat: Category,
        kind: RecordKind,
        when: When,
        parent: SpanId,
        session: Option<u64>,
        attrs: impl FnOnce(&mut Attrs<'_>),
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        lock(inner).push(name, cat, kind, when, parent, session, attrs)
    }

    /// Opens a span starting at `at`. Close it with [`Tracer::end_span`].
    pub fn begin_span(
        &self,
        name: &'static str,
        cat: Category,
        at: TimePoint,
        parent: SpanId,
        session: Option<u64>,
    ) -> SpanId {
        self.begin_span_with(name, cat, at, parent, session, none)
    }

    /// [`Tracer::begin_span`] with the span's first attributes, put by
    /// `attrs` as for [`Tracer::event_with`] and written with the span in
    /// one critical section.
    pub fn begin_span_with(
        &self,
        name: &'static str,
        cat: Category,
        at: TimePoint,
        parent: SpanId,
        session: Option<u64>,
        attrs: impl FnOnce(&mut Attrs<'_>),
    ) -> SpanId {
        let when = When::At(at);
        self.record(name, cat, RecordKind::Span, when, parent, session, attrs)
    }

    /// [`Tracer::set_now`] to `at` and [`Tracer::begin_span_with`] at `at`,
    /// in one critical section: the driver's call when its clock moves on
    /// to the next unit of work.
    pub fn advance_and_begin_span(
        &self,
        name: &'static str,
        cat: Category,
        at: TimePoint,
        parent: SpanId,
        session: Option<u64>,
        attrs: impl FnOnce(&mut Attrs<'_>),
    ) -> SpanId {
        let when = When::AdvanceTo(at);
        self.record(name, cat, RecordKind::Span, when, parent, session, attrs)
    }

    /// Closes a span at `at`. A no-op if the span was already evicted (or
    /// the tracer is disabled).
    pub fn end_span(&self, span: SpanId, at: TimePoint) {
        self.end_span_with(span, at, none);
    }

    /// [`Tracer::end_span`] with the span's closing attributes (its
    /// outcome), appended after the ones it began with — one critical
    /// section.
    pub fn end_span_with(&self, span: SpanId, at: TimePoint, attrs: impl FnOnce(&mut Attrs<'_>)) {
        let Some(inner) = &self.inner else {
            return;
        };
        if span.is_none() {
            return;
        }
        lock(inner).end(span.0, at, attrs);
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
        self.event_with(name, cat, at, parent, session, |a| a.extend(attrs))
    }

    /// [`Tracer::event`] with the attributes put on demand: `attrs` runs
    /// only when the tracer is enabled, so a hot path pays nothing — not
    /// even the attributes — for an event nobody records, and writes them
    /// straight into the ring ([`Attrs::put`]), so the enabled path builds
    /// no vector either.
    pub fn event_with(
        &self,
        name: &'static str,
        cat: Category,
        at: TimePoint,
        parent: SpanId,
        session: Option<u64>,
        attrs: impl FnOnce(&mut Attrs<'_>),
    ) -> SpanId {
        let when = When::At(at);
        self.record(name, cat, RecordKind::Instant, when, parent, session, attrs)
    }

    /// Records an instant event at the tracer's current "now" — the call
    /// used by layers without a clock of their own.
    pub fn event_now(
        &self,
        name: &'static str,
        cat: Category,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanId {
        let kind = RecordKind::Instant;
        let attrs = |a: &mut Attrs<'_>| a.extend(attrs);
        self.record(name, cat, kind, When::Now, SpanId::NONE, None, attrs)
    }

    /// Records resident in the ring right now.
    pub fn len(&self) -> usize {
        self.read(|trace| trace.len())
    }

    /// `true` when no records are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` over the resident records in place — no copy of the ring —
    /// and returns what it returns. Writers on other clones wait until `f`
    /// is done; `f` must not use this tracer or a clone of it (the ring's
    /// lock is held, so that would deadlock).
    pub fn read<R>(&self, f: impl FnOnce(TraceView<'_>) -> R) -> R {
        match &self.inner {
            Some(inner) => f(TraceView {
                ring: Some(&lock(inner)),
            }),
            None => f(TraceView { ring: None }),
        }
    }

    /// An owned snapshot of the resident records, in id order — a deep
    /// copy, for export; analyses read in place with [`Tracer::read`].
    pub fn snapshot(&self) -> TraceSnapshot {
        self.read(|trace| TraceSnapshot {
            records: trace.records().map(|r| r.to_record()).collect(),
            dropped: trace.dropped(),
        })
    }

    /// Clears the ring and resets the drop count (ids keep counting up).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            lock(inner).clear();
        }
    }
}

/// The resident records of a ring, borrowed in place for the length of a
/// [`Tracer::read`].
#[derive(Debug, Clone, Copy)]
pub struct TraceView<'a> {
    ring: Option<&'a Ring>,
}

impl<'a> TraceView<'a> {
    /// Records still resident, oldest first.
    pub fn records(&self) -> impl Iterator<Item = RecordRef<'a>> + 'a {
        let ring = self.ring;
        let first = ring.map_or(0, Ring::first_id);
        ring.into_iter()
            .flat_map(|ring| ring.heads.iter().map(move |&head| (ring, head)))
            .zip(first..)
            .map(|((ring, head), id)| RecordRef::new(ring, id, head))
    }

    /// Record `id`, if still resident: an offset from the oldest resident
    /// id, since ids are consecutive.
    pub fn get(&self, id: u64) -> Option<RecordRef<'a>> {
        let ring = self.ring?;
        let idx = ring.index_of(id)?;
        Some(RecordRef::new(ring, id, ring.heads[idx]))
    }

    /// Records evicted from the ring since the start of the run.
    pub fn dropped(&self) -> u64 {
        self.ring.map_or(0, |ring| ring.dropped)
    }

    /// Records resident.
    pub fn len(&self) -> usize {
        self.ring.map_or(0, |ring| ring.heads.len())
    }

    /// `true` when no records are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One resident record, read in place. Only its name is decoded up front;
/// the rest of its runs is decoded when asked for, so a walk that skips
/// most records by name (miss attribution) reads little more than names.
#[derive(Clone, Copy)]
pub struct RecordRef<'a> {
    names: &'a Names,
    log: &'a [u8],
    id: u64,
    name: &'static str,
    /// Just past the name in the begin run.
    begin: usize,
    /// Where the end run starts, once the span is closed.
    ended: Option<usize>,
}

/// A begin run past its name.
struct Header<'a> {
    flags: u8,
    parent: u64,
    session: Option<u64>,
    start: RawTime,
    /// At the run's first attribute.
    attrs: Cursor<'a>,
}

impl<'a> RecordRef<'a> {
    fn new(ring: &'a Ring, id: u64, (begin, ended): (u32, u32)) -> RecordRef<'a> {
        let mut c = Cursor {
            bytes: &ring.log,
            at: ring.offset(begin),
        };
        let name = ring.names.get(c.varint());
        RecordRef {
            names: &ring.names,
            log: &ring.log,
            id,
            name,
            begin: c.at,
            ended: (ended != begin).then(|| ring.offset(ended)),
        }
    }

    fn header(&self) -> Header<'a> {
        let mut c = Cursor {
            bytes: self.log,
            at: self.begin,
        };
        let flags = c.byte();
        let parent = if flags & HAS_PARENT != 0 {
            self.id.wrapping_sub(c.varint())
        } else {
            SpanId::NONE.0
        };
        let session = (flags & HAS_SESSION != 0).then(|| c.varint());
        let start = c.time();
        Header {
            flags,
            parent,
            session,
            start,
            attrs: c,
        }
    }

    /// The end run: its time, and a cursor at its first attribute.
    fn end_run(&self) -> Option<(RawTime, Cursor<'a>)> {
        self.ended.map(|at| {
            let mut c = Cursor {
                bytes: self.log,
                at,
            };
            (c.time(), c)
        })
    }

    /// Span start (or event time) on the simulated clock.
    pub fn start(&self) -> TimePoint {
        time_of(self.header().start)
    }

    /// Span end; `None` for instants and unclosed spans.
    pub fn end(&self) -> Option<TimePoint> {
        self.end_run().map(|(at, _)| time_of(at))
    }

    /// The attributes as stored: the begin run's, then the end run's.
    fn stored(&self, header: &Header<'a>) -> impl Iterator<Item = (u64, Stored<'a>)> + 'a {
        let run = |mut c: Cursor<'a>| std::iter::from_fn(move || c.attr());
        run(header.attrs).chain(self.end_run().into_iter().flat_map(move |(_, c)| run(c)))
    }

    /// An owned copy of the record, its attribute vector sized exactly.
    pub fn to_record(&self) -> TraceRecord {
        let names = self.names;
        let header = self.header();
        let mut attrs = Vec::with_capacity(self.stored(&header).count());
        attrs.extend(self.stored(&header).map(|(key, value)| {
            let value = match value {
                Stored::U64(v) => AttrValue::U64(v),
                Stored::I64(v) => AttrValue::I64(v),
                Stored::Str(s) => AttrValue::Str(names.get(s)),
                Stored::Text(s) => AttrValue::Text(String::from_utf8_lossy(s).into_owned()),
            };
            (names.get(key), value)
        }));
        TraceRecord {
            id: self.id,
            parent: SpanId(header.parent),
            name: self.name,
            cat: CATEGORIES[(header.flags & CAT_BITS) as usize],
            session: header.session,
            start: time_of(header.start),
            end: self.end(),
            kind: if header.flags & INSTANT != 0 {
                RecordKind::Instant
            } else {
                RecordKind::Span
            },
            attrs,
        }
    }
}

impl fmt::Debug for RecordRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_record().fmt(f)
    }
}

impl RecordView for RecordRef<'_> {
    fn id(&self) -> u64 {
        self.id
    }

    fn name(&self) -> &str {
        self.name
    }

    fn session(&self) -> Option<u64> {
        self.header().session
    }

    fn attr_i64(&self, key: &str) -> i64 {
        let names = self.names;
        let found = self
            .stored(&self.header())
            .find(|&(k, _)| names.get(k) == key);
        match found {
            Some((_, Stored::U64(v))) => i64::try_from(v).unwrap_or(0),
            Some((_, Stored::I64(v))) => v,
            _ => 0,
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
        let s = tr.begin_span_with("x", Category::Serve, t(0), SpanId::NONE, None, |a| {
            a.put("k", 1u64)
        });
        assert!(s.is_none());
        tr.end_span_with(s, t(1), |_| unreachable!("disabled tracers put nothing"));
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
        tr.end_span_with(child, t(2), |a| a.put("bytes", 512u64));
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
    fn a_panic_inside_the_lock_poisons_nothing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let tr = Tracer::with_capacity(4);
        let root = tr.begin_span("root", Category::Serve, t(0), SpanId::NONE, Some(1));
        let in_attrs = catch_unwind(AssertUnwindSafe(|| {
            tr.event_with("e", Category::Cache, t(1), root, Some(1), |a| {
                a.put("layer", 0u64);
                panic!("attribute closure");
            });
        }));
        let in_end = catch_unwind(AssertUnwindSafe(|| {
            tr.end_span_with(root, t(2), |a| {
                a.put("half", 1u64);
                panic!("end closure");
            });
        }));
        let in_reader = catch_unwind(AssertUnwindSafe(|| {
            tr.read(|trace| {
                assert_eq!(trace.len(), 1);
                panic!("reader");
            })
        }));
        assert!(in_attrs.is_err() && in_end.is_err() && in_reader.is_err());
        // The same tracer still records, snapshots and attributes; the
        // panicked writes left nothing behind.
        let span = tr.begin_span_with(
            crate::ELEMENT_SPAN,
            Category::Serve,
            t(3),
            root,
            Some(1),
            |a| a.put(crate::ATTR_ELEMENT_INDEX, 0u64),
        );
        tr.end_span_with(span, t(4), |a| {
            a.put(crate::ATTR_LATENESS_US, 5i64);
            a.put(crate::ATTR_DECODE_US, 5i64);
        });
        tr.end_span(root, t(5));
        let snap = tr.snapshot();
        assert_eq!(snap.records.len(), 2);
        assert_eq!(snap.records[0].end, Some(t(5)));
        assert!(snap.records[0].attrs.is_empty());
        assert_eq!(snap.records[1].id, 1, "the panicked event took no id");
        assert_eq!(snap.records[1].attrs.len(), 3);
        let report = tr.read(|trace| crate::attribute(trace.records()));
        assert_eq!(report.total(), 1);
        assert_eq!(report, crate::attribute(&snap.records));
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
