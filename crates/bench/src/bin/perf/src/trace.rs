//! The span recorder and the `TimedStore` wrapper — everything `perf`
//! knows about where host time goes is measured here, from outside the
//! crates under test.
//!
//! A span is `(name, start, end, parent, rep)`. Names are `layer:what`
//! (`"serve:request.open"`, `"blob:read"`); the part before the colon is
//! the Fig. 5 layer the time is charged to. Spans live in memory for the
//! whole run and are written as Chrome `trace_event` JSON when it ends.
//! A span's self time is its duration minus the part of it its child spans
//! cover, so a layer's share never counts the layers it calls into.

use crate::timer::now_ns;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tbm_blob::{BlobError, BlobStore, ByteSpan, ReadCtx};
use tbm_core::BlobId;
use tbm_time::TimePoint;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer:what`.
    pub name: &'static str,
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time (0 while still open).
    pub end: u64,
    /// Index of the span that was open when this one began.
    pub parent: u32,
    /// The repetition the span belongs to — spans of one repetition share
    /// this id.
    pub rep: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer the span is charged to: the name up to the colon.
    pub fn layer(&self) -> &'static str {
        self.name.split(':').next().unwrap_or(self.name)
    }
}

#[derive(Debug, Default)]
struct Recorder {
    spans: Vec<Span>,
    /// Indices of the spans currently open, outermost first.
    stack: Vec<u32>,
    rep: u32,
}

/// A span still open: returned by [`Trace::begin`], consumed by
/// [`Trace::end`].
#[derive(Debug)]
#[must_use = "an open span must be ended"]
pub struct Open {
    start: u64,
    index: Option<u32>,
}

/// A cloneable handle on the run's recorder. Disabled (the untraced run)
/// it still reads the clock — callers use the returned durations as
/// latency samples — but records nothing.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    inner: Option<Arc<Mutex<Recorder>>>,
}

impl Trace {
    /// A handle that records nothing.
    pub fn disabled() -> Trace {
        Trace::default()
    }

    /// A handle on a fresh, empty recorder.
    pub fn enabled() -> Trace {
        Trace {
            inner: Some(Arc::default()),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
        self.inner.as_ref().map(|m| {
            let mut rec = m.lock().expect("no recorder user panics holding the lock");
            f(&mut rec)
        })
    }

    /// Stamps every span begun from now on with repetition id `rep`.
    pub fn set_rep(&self, rep: u32) {
        self.with(|r| r.rep = rep);
    }

    /// Opens a span under the innermost span still open.
    pub fn begin(&self, name: &'static str) -> Open {
        let start = now_ns();
        let index = self.with(|r| {
            let index = r.spans.len() as u32;
            r.spans.push(Span {
                name,
                start,
                end: 0,
                parent: r.stack.last().copied().unwrap_or(NO_PARENT),
                rep: r.rep,
            });
            r.stack.push(index);
            index
        });
        Open { start, index }
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn end(&self, open: Open) -> u64 {
        let end = now_ns();
        if let Some(index) = open.index {
            self.with(|r| {
                r.spans[index as usize].end = end;
                let top = r.stack.pop();
                debug_assert_eq!(top, Some(index), "spans must close innermost first");
            });
        }
        end - open.start
    }

    /// Records an already-finished child of the innermost open span, and
    /// beside it a `bench:record` span from `end` to the moment the record
    /// is kept. A leaf is recorded from inside someone else's span — a
    /// store read inside the serve loop, 195 000 times a cold repetition —
    /// and without the second span the recorder's own work (the caller's
    /// counters, the lock, the growing vector) would read as the serve
    /// loop's self time.
    pub fn leaf(&self, name: &'static str, start: u64, end: u64) {
        self.with(|r| {
            let parent = r.stack.last().copied().unwrap_or(NO_PARENT);
            let rep = r.rep;
            let mut push = |name, start, end| {
                r.spans.push(Span {
                    name,
                    start,
                    end,
                    parent,
                    rep,
                });
            };
            push(name, start, end);
            push("bench:record", end, now_ns());
        });
    }

    /// A copy of every span recorded so far, in begin order.
    pub fn spans(&self) -> Vec<Span> {
        self.with(|r| r.spans.clone()).unwrap_or_default()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span). Children may overlap each other — two
/// workers reading at once — and are then counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // Children grouped by parent and ordered by start: one sweep per parent.
    let mut children: Vec<u32> = (0..spans.len() as u32)
        .filter(|&i| (spans[i as usize].parent as usize) < spans.len())
        .collect();
    children.sort_unstable_by_key(|&i| {
        let s = &spans[i as usize];
        (s.parent, s.start, s.end)
    });
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur).collect();
    for group in children.chunk_by(|&a, &b| spans[a as usize].parent == spans[b as usize].parent) {
        let parent = spans[group[0] as usize].parent as usize;
        let p = &spans[parent];
        let mut covered = 0u64;
        let mut frontier = p.start;
        for &child in group {
            let from = spans[child as usize].start.max(frontier);
            let to = spans[child as usize].end.min(p.end);
            if to > from {
                covered += to - from;
                frontier = to;
            }
        }
        selfs[parent] = p.dur().saturating_sub(covered);
    }
    selfs
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Totals by span name over the spans `keep` selects; `selfs` is
/// [`self_times`] of the same spans.
pub fn totals_by_name(
    spans: &[Span],
    selfs: &[u64],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if keep(s) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur();
            t.self_ns += self_ns;
        }
    }
    out
}

/// Self time by layer over the spans `keep` selects; `selfs` is
/// [`self_times`] of the same spans.
pub fn self_by_layer(
    spans: &[Span],
    selfs: &[u64],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if keep(s) {
            *out.entry(s.layer()).or_insert(0) += self_ns;
        }
    }
    out
}

/// At most this many spans of one name are written to the trace file; the
/// rest are counted in the file's metadata. Totals and self times always
/// use every span. (A cold storm records ~800 000 `blob:read` spans per
/// repetition; the file stays loadable.)
const MAX_WRITTEN_PER_NAME: usize = 20_000;

/// Writes `spans` as a Chrome `trace_event` JSON array: one complete
/// (`"ph":"X"`) event per span, timestamps in microseconds, the
/// repetition id as `tid`, the parent index in `args`.
pub fn write_chrome_trace(spans: &[Span], w: &mut dyn Write) -> io::Result<()> {
    let mut written: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut elided = 0usize;
    w.write_all(b"[")?;
    let mut first = true;
    for (i, s) in spans.iter().enumerate() {
        let seen = written.entry(s.name).or_insert(0);
        *seen += 1;
        if *seen > MAX_WRITTEN_PER_NAME {
            elided += 1;
            continue;
        }
        if !first {
            w.write_all(b",")?;
        }
        first = false;
        write!(
            w,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.layer(),
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.rep,
            i,
            if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            },
        )?;
    }
    if !first {
        w.write_all(b",")?;
    }
    write!(
        w,
        "\n{{\"name\":\"elided_spans\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"count\":{elided}}}}}\n]\n"
    )
}

/// Counters a [`TimedStore`] keeps beside its spans (spans carry no byte
/// counts). Shared by every shard's store of one repetition; `Relaxed`
/// because each publishes nothing but itself.
#[derive(Debug, Default)]
pub struct StoreProbe {
    /// Read calls, successful or not.
    pub read_calls: AtomicU64,
    /// Bytes asked for by those calls.
    pub read_bytes: AtomicU64,
    /// Wall nanoseconds spent inside them.
    pub busy_ns: AtomicU64,
    /// Read calls that returned an error.
    pub read_fail: AtomicU64,
}

impl StoreProbe {
    /// `(calls, bytes, busy_ns, fails)` so far.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.read_calls.load(Ordering::Relaxed),
            self.read_bytes.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
            self.read_fail.load(Ordering::Relaxed),
        )
    }
}

/// A [`BlobStore`] that times every read and append of the store it wraps
/// and is otherwise transparent: each trait method forwards to the inner
/// store's method of the same name, so overridden defaults
/// (`read_into_ctx` on a tiered store, the `drain_*` hints, `set_sim_now`,
/// `health_percent`) keep their behaviour.
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: S,
    probe: Arc<StoreProbe>,
    trace: Trace,
}

impl<S: BlobStore> TimedStore<S> {
    /// Wraps `inner`, counting into `probe` and recording `blob:read` /
    /// `blob:append` spans on `trace`.
    pub fn new(inner: S, probe: Arc<StoreProbe>, trace: Trace) -> TimedStore<S> {
        TimedStore {
            inner,
            probe,
            trace,
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn timed_read<T>(
        &self,
        bytes: u64,
        read: impl FnOnce(&S) -> Result<T, BlobError>,
    ) -> Result<T, BlobError> {
        let t0 = now_ns();
        let out = read(&self.inner);
        let t1 = now_ns();
        self.probe.read_calls.fetch_add(1, Ordering::Relaxed);
        self.probe.read_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.probe.busy_ns.fetch_add(t1 - t0, Ordering::Relaxed);
        if out.is_err() {
            self.probe.read_fail.fetch_add(1, Ordering::Relaxed);
        }
        self.trace.leaf("blob:read", t0, t1);
        out
    }
}

impl<S: BlobStore> BlobStore for TimedStore<S> {
    fn create(&mut self) -> Result<BlobId, BlobError> {
        self.inner.create()
    }

    fn append(&mut self, blob: BlobId, data: &[u8]) -> Result<ByteSpan, BlobError> {
        let t0 = now_ns();
        let out = self.inner.append(blob, data);
        self.trace.leaf("blob:append", t0, now_ns());
        out
    }

    fn read(&self, blob: BlobId, span: ByteSpan) -> Result<Vec<u8>, BlobError> {
        self.timed_read(span.len, |s| s.read(blob, span))
    }

    fn read_into(&self, blob: BlobId, span: ByteSpan, buf: &mut [u8]) -> Result<(), BlobError> {
        self.timed_read(span.len, |s| s.read_into(blob, span, buf))
    }

    fn read_into_attempt(
        &self,
        blob: BlobId,
        span: ByteSpan,
        buf: &mut [u8],
        attempt: u32,
    ) -> Result<(), BlobError> {
        self.timed_read(span.len, |s| s.read_into_attempt(blob, span, buf, attempt))
    }

    fn read_into_ctx(
        &self,
        blob: BlobId,
        span: ByteSpan,
        buf: &mut [u8],
        ctx: &ReadCtx,
    ) -> Result<(), BlobError> {
        self.timed_read(span.len, |s| s.read_into_ctx(blob, span, buf, ctx))
    }

    fn drain_cost_hint_us(&self) -> u64 {
        self.inner.drain_cost_hint_us()
    }

    fn drain_failover_hint_us(&self) -> u64 {
        self.inner.drain_failover_hint_us()
    }

    fn drain_repairs(&self) -> u64 {
        self.inner.drain_repairs()
    }

    fn set_sim_now(&self, now: TimePoint) {
        self.inner.set_sim_now(now);
    }

    fn health_percent(&self) -> u8 {
        self.inner.health_percent()
    }

    fn len(&self, blob: BlobId) -> Result<u64, BlobError> {
        self.inner.len(blob)
    }

    fn is_empty(&self, blob: BlobId) -> Result<bool, BlobError> {
        self.inner.is_empty(blob)
    }

    fn contains(&self, blob: BlobId) -> bool {
        self.inner.contains(blob)
    }

    fn blob_ids(&self) -> Vec<BlobId> {
        self.inner.blob_ids()
    }

    fn read_all(&self, blob: BlobId) -> Result<Vec<u8>, BlobError> {
        let len = self.inner.len(blob)?;
        self.timed_read(len, |s| s.read_all(blob))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbm_blob::MemBlobStore;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // rep [0,100) ─ request [10,60) ─ read [20,30), read [40,45)
        //              └ drain   [60,90)
        let spans = [
            span("bench:rep", 0, 100, NO_PARENT),
            span("serve:request", 10, 60, 0),
            span("blob:read", 20, 30, 1),
            span("blob:read", 40, 45, 1),
            span("serve:drain", 60, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![20, 35, 10, 5, 30]);
        let selfs = self_times(&spans);
        let by_layer = self_by_layer(&spans, &selfs, |_| true);
        assert_eq!(by_layer["bench"], 20);
        assert_eq!(by_layer["serve"], 65);
        assert_eq!(by_layer["blob"], 15);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
        let by_name = totals_by_name(&spans, &selfs, |s| s.layer() == "blob");
        assert_eq!(
            by_name["blob:read"],
            NameTotals {
                count: 2,
                total_ns: 15,
                self_ns: 15
            }
        );
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        // Children [10,40) and [30,60) overlap on [30,40); [90,120) sticks
        // out past the parent's end at 100; [45,50) is fully shadowed.
        let spans = [
            span("serve:drain", 0, 100, NO_PARENT),
            span("blob:read", 30, 60, 0),
            span("blob:read", 10, 40, 0),
            span("blob:read", 90, 120, 0),
            span("blob:read", 45, 50, 0),
        ];
        // Covered: [10,60) ∪ [90,100) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_links_parents_and_reps() {
        let trace = Trace::enabled();
        trace.set_rep(3);
        let rep = trace.begin("bench:rep");
        let req = trace.begin("serve:request.open");
        trace.leaf("blob:read", now_ns(), now_ns());
        assert!(trace.end(req) < 1_000_000_000);
        trace.end(rep);
        let spans = trace.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "bench:rep",
                "serve:request.open",
                "blob:read",
                "bench:record"
            ]
        );
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        // The leaf and the record of keeping it are siblings, back to back.
        assert_eq!((spans[2].parent, spans[3].parent), (1, 1));
        assert_eq!(spans[3].start, spans[2].end);
        assert!(spans.iter().all(|s| s.rep == 3 && s.end >= s.start));
        // Disabled: durations still come back, nothing is kept.
        let off = Trace::disabled();
        let open = off.begin("bench:rep");
        off.leaf("blob:read", 0, 1);
        let _ns = off.end(open);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let spans = [
            span("bench:rep", 1_000, 9_000, NO_PARENT),
            span("blob:read", 2_000, 3_000, 0),
        ];
        let mut out = Vec::new();
        write_chrome_trace(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(tbm_obs::validate_json(&text), Ok(()));
        assert!(text.contains("\"name\":\"blob:read\""));
        assert!(text.contains("\"parent\":0"));
    }

    #[test]
    fn timed_store_forwards_and_counts() {
        let probe = Arc::new(StoreProbe::default());
        let trace = Trace::enabled();
        let mut store = TimedStore::new(MemBlobStore::new(), probe.clone(), trace.clone());
        let blob = store.create().unwrap();
        let span = store.append(blob, b"hello world").unwrap();
        assert_eq!(store.read(blob, span).unwrap(), b"hello world");
        let mut buf = [0u8; 5];
        store
            .read_into_ctx(blob, ByteSpan::new(6, 5), &mut buf, &ReadCtx::default())
            .unwrap();
        assert_eq!(&buf, b"world");
        assert!(store.read(blob, ByteSpan::new(0, 99)).is_err());
        assert_eq!(store.read_all(blob).unwrap(), b"hello world");
        assert_eq!(store.len(blob).unwrap(), 11);
        assert_eq!(store.health_percent(), 100);
        assert_eq!(store.blob_ids(), store.inner().blob_ids());
        let (calls, bytes, _busy, fails) = probe.snapshot();
        assert_eq!((calls, bytes, fails), (4, 11 + 5 + 99 + 11, 1));
        let names: Vec<_> = trace
            .spans()
            .iter()
            .map(|s| s.name)
            .filter(|n| *n != "bench:record")
            .collect();
        assert_eq!(
            names,
            [
                "blob:append",
                "blob:read",
                "blob:read",
                "blob:read",
                "blob:read"
            ]
        );
    }
}
