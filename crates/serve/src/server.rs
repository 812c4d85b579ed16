//! The delivery engine: a deterministic, simulated-time event loop driving
//! many sessions through one shared service channel.
//!
//! One [`Server`] owns a catalog ([`MediaDb`]) over a [`BlobStore`], a
//! [`SegmentCache`], and a [`Capacity`]. Requests arrive timestamped in
//! simulated time ([`Server::request`]); element fetches are served in
//! earliest-deadline-first order across *all* playing sessions through a
//! single channel whose service rate is the capacity's cost model — the
//! aggregate storage bandwidth and decode throughput admission reasons
//! about. Everything is exact rational time, so a run is a pure function of
//! its request trace (and a fault plan's seed, if the store injects one).
//!
//! Per element the server walks the ladder [`tbm_player::ResilientPlayer`]
//! walks, through the same code: cache lookup, then [`fetch_layer`] (a
//! retried read, then per-layer checksum verification), then
//! [`ElementFate::decide`] (base layers → repeat → drop) for anything
//! unrecoverable. Only verified bytes enter the cache, so one session's
//! intact read shields every later session from a deterministic storage
//! fault at the same span.

use crate::session::ObjectPlan;
use crate::{
    AdmissionPolicy, AdmitDecision, Capacity, RejectReason, Request, Response, SegmentCache,
    ServeError, ServerStats, Session, SessionState, SessionStats,
};
use std::cell::OnceCell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::io;
use std::ops::Range;
use std::slice::SliceIndex;
use std::sync::Arc;
use tbm_blob::{BlobStore, MemBlobStore, RetryPolicy};
use tbm_core::SessionId;
use tbm_db::MediaDb;
use tbm_interp::ElementEntry;
use tbm_obs::{
    attribute, chrome_trace_to_writer, micros, AttributionReport, Attrs, Category, CounterId,
    GaugeId, HistogramId, MetricsRegistry, SpanId, TraceSnapshot, Tracer, ATTR_DECODE_US,
    ATTR_ELEMENT_INDEX, ATTR_FAILOVER_US, ATTR_INHERITED_US, ATTR_LATENESS_US, ATTR_NODELOSS_US,
    ATTR_RETRY_US, ATTR_STORAGE_US, ATTR_WAIT_US, ELEMENT_SPAN, LATENCY_BUCKETS_US,
};
use tbm_player::{fetch_layer, DegradationPolicy, ElementFate};
use tbm_time::{Rational, TimeDelta, TimePoint};

// Registry metric names. Counters mirror the snapshot fields of
// `ServerStats`; the histograms back its lateness/service distributions
// (lateness recorded apart by fidelity, its total being their merge).
const M_ADMITTED: &str = "serve.sessions.admitted";
const M_ADMITTED_DEGRADED: &str = "serve.sessions.admitted_degraded";
const M_REJECTED: &str = "serve.sessions.rejected";
const M_ELEMENTS: &str = "serve.elements.served";
const M_MISSES: &str = "serve.elements.misses";
const M_RECOVERED: &str = "serve.elements.recovered";
const M_DEGRADED: &str = "serve.elements.degraded";
const M_DROPPED: &str = "serve.elements.dropped";
const M_REPAIRED: &str = "serve.elements.repaired";
const M_UPGRADED: &str = "serve.sessions.upgraded";
const M_FORCED: &str = "serve.sessions.force_degraded";
const M_FAULTS: &str = "serve.faults.detected";
const M_BYTES_READ: &str = "storage.bytes_read";
const M_BATCHES: &str = "serve.batches";
const H_LATENESS_FULL: &str = "serve.lateness_us.full";
const H_LATENESS_DEGRADED: &str = "serve.lateness_us.degraded";
const H_SERVICE: &str = "serve.service_us";
const H_READ: &str = "storage.read_us";
const G_CACHE_BYTES: &str = "cache.bytes";

/// Handles to the metrics above, registered once per server so the element
/// path writes by index. A registered name stays out of every rendering
/// until its first write, so registering them all up front changes no
/// output.
#[derive(Debug, Clone, Copy)]
struct MetricIds {
    admitted: CounterId,
    admitted_degraded: CounterId,
    rejected: CounterId,
    elements: CounterId,
    misses: CounterId,
    recovered: CounterId,
    degraded: CounterId,
    dropped: CounterId,
    repaired: CounterId,
    upgraded: CounterId,
    forced: CounterId,
    faults: CounterId,
    bytes_read: CounterId,
    batches: CounterId,
    lateness_full: HistogramId,
    lateness_degraded: HistogramId,
    service: HistogramId,
    read: HistogramId,
    cache_bytes: GaugeId,
}

impl MetricIds {
    fn register(m: &mut MetricsRegistry) -> MetricIds {
        MetricIds {
            admitted: m.register_counter(M_ADMITTED),
            admitted_degraded: m.register_counter(M_ADMITTED_DEGRADED),
            rejected: m.register_counter(M_REJECTED),
            elements: m.register_counter(M_ELEMENTS),
            misses: m.register_counter(M_MISSES),
            recovered: m.register_counter(M_RECOVERED),
            degraded: m.register_counter(M_DEGRADED),
            dropped: m.register_counter(M_DROPPED),
            repaired: m.register_counter(M_REPAIRED),
            upgraded: m.register_counter(M_UPGRADED),
            forced: m.register_counter(M_FORCED),
            faults: m.register_counter(M_FAULTS),
            bytes_read: m.register_counter(M_BYTES_READ),
            batches: m.register_counter(M_BATCHES),
            lateness_full: m.register_histogram(H_LATENESS_FULL, &LATENCY_BUCKETS_US),
            lateness_degraded: m.register_histogram(H_LATENESS_DEGRADED, &LATENCY_BUCKETS_US),
            service: m.register_histogram(H_SERVICE, &LATENCY_BUCKETS_US),
            read: m.register_histogram(H_READ, &LATENCY_BUCKETS_US),
            cache_bytes: m.register_gauge(G_CACHE_BYTES),
        }
    }
}

/// The server's ladder, fixed by construction: a layer read is retried
/// under [`RETRY`], and an element that still cannot be fetched whole falls
/// back to its verified base layers, else to a repeat of the session's last
/// good element, else to a drop. Nothing ever asked for another ladder, so
/// there is no builder for one.
const LADDER: DegradationPolicy = DegradationPolicy::DropLayers;
/// Three retries per layer read (200 µs base backoff, 50 ms budget).
const RETRY: RetryPolicy = RetryPolicy::new(3);

/// One queued element fetch. Ordering is `(deadline, session, pos)` so the
/// heap is a deterministic earliest-deadline-first queue.
///
/// The heap holds at most one *live* entry per session — the session's next
/// due element; serving it queues the successor. Schedules are in deadline
/// order (per-session deadlines are monotone in `pos`), so popping session
/// heads in `(deadline, session, pos)` order yields exactly the global
/// serve order an enqueue-everything heap would, with the heap at
/// O(sessions) instead of O(elements) — the difference between 100k
/// concurrent sessions fitting in one process or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct QueuedJob {
    deadline: TimePoint,
    session: u64,
    pos: usize,
    epoch: u64,
}

/// One element's way through the service channel, filled in stage by stage
/// (see [`Server::serve_job`]). Values only a trace wants are not kept
/// here: the record stage derives them under an enabled tracer.
#[derive(Debug, Default)]
struct ElementOutcome {
    /// Dispatch, known before any read: when the channel frees up (or the
    /// session's anchor, if later) ...
    natural_start: TimePoint,
    /// ... pushed later by a node-outage stall ...
    start: TimePoint,
    /// ... and the presentation deadline — `None` for the first element
    /// after an anchor, which sets the presentation clock.
    due: Option<TimePoint>,
    /// The element's trace span.
    span: SpanId,
    /// Fetch: layers wanted, and how many came back verified in order.
    layers: usize,
    intact_layers: usize,
    /// Most read attempts any one layer needed (1 = no retry).
    attempts_max: u32,
    /// Bytes read from the store on first attempts and on retries, and
    /// bytes handed to the decoder (cache hits included).
    bytes_first: u64,
    bytes_retry: u64,
    bytes_decoded: u64,
    backoff_us: u64,
    /// The store's failover latency hint, and whether it healed a tier.
    failover_us: u64,
    repaired: bool,
    /// Fate: the ladder's verdict.
    fate: ElementFate,
    /// Timing: the service time's components, the store's latency hint,
    /// the total, when the element is ready, and by how much it is late.
    first_cost: Rational,
    retry_cost: Rational,
    decode_cost: Rational,
    hint_us: u64,
    service: TimeDelta,
    ready: TimePoint,
    lateness: TimeDelta,
}

/// The two plans of one catalog object: full fidelity, and — for a
/// scalable stream, one with more than one placement layer somewhere —
/// the base layer alone.
#[derive(Debug)]
struct ObjectPlans {
    full: Arc<ObjectPlan>,
    base: Option<Arc<ObjectPlan>>,
}

/// A multi-session media delivery engine over a catalog and a BLOB store.
///
/// See the crate docs for the scheduling model. Typical use:
///
/// 1. build a [`MediaDb`] and register the objects to serve;
/// 2. wrap it in a server with a [`Capacity`] and (optionally) a cache;
/// 3. submit [`Request`]s in non-decreasing simulated time;
/// 4. call [`Server::finish`] to drain the event loop and read the
///    [`ServerStats`] snapshot.
#[derive(Debug)]
pub struct Server<S: BlobStore = MemBlobStore> {
    db: MediaDb<S>,
    capacity: Capacity,
    cache: SegmentCache,
    sessions: Vec<Session>,
    /// Sessions holding capacity (opened, playing or paused).
    active: usize,
    /// Active sessions that are degraded and still have elements to play
    /// ([`Session::is_capped_live`]) — the only ones an upgrade pass can do
    /// anything for, so the pass is skipped while this is 0.
    capped_live: usize,
    /// Every object opened so far, planned once and shared by its
    /// sessions. A plan reads its rows from `db`, which is immutable while
    /// the server owns it, so entries never go stale.
    plans: HashMap<String, ObjectPlans>,
    /// First session id this server hands out; ids are `base..base+n`.
    /// Non-zero only under a [`crate::ShardedServer`], which gives each
    /// shard a disjoint id range so a session id alone names its shard
    /// (and trace session ids never collide across shards).
    session_base: u64,
    heap: BinaryHeap<Reverse<QueuedJob>>,
    clock: TimePoint,
    busy_until: TimePoint,
    /// Node-outage stall: no element dispatches before this instant. Set by
    /// a fleet during a shard migration's catalog handoff (or while the
    /// hosting node is down); the extra delay is attributed to `node-loss`
    /// rather than channel wait. [`TimePoint::ZERO`] when never stalled.
    stall_until: TimePoint,
    /// Storage-stage admitted demand: the sum of every active session's
    /// `charged` figure (residency-discounted under cache-aware admission,
    /// equal to full demand otherwise).
    committed: Rational,
    /// Decode-stage admitted demand: the sum of every active session's
    /// *full* demand. Cache hits skip the fetch but not the decode, so
    /// this total is never residency-discounted. Identical to `committed`
    /// when cache-aware admission is off.
    committed_decode: Rational,
    /// [`SegmentCache::generation`] at the last repricing pass; an
    /// unchanged generation lets the pass be skipped entirely.
    repriced_gen: u64,
    /// While set, [`Server::force_degrade`] is in effect: the automatic
    /// upgrade path leaves capped sessions alone (otherwise the very next
    /// served element would lift a remediation-forced cap right back).
    upgrade_hold: bool,
    /// Raw ids of sessions capped by [`Server::force_degrade`] —
    /// exactly the set [`Server::release_degrade`] restores.
    forced: BTreeSet<u64>,
    metrics: MetricsRegistry,
    ids: MetricIds,
    tracer: Tracer,
    /// Scratch for the same-deadline batch the loop is currently serving;
    /// kept on the server so its allocation is reused across batches.
    batch: VecDeque<QueuedJob>,
}

impl<S: BlobStore> Server<S> {
    /// A server over `db` with the given capacity and no cache.
    pub fn new(db: MediaDb<S>, capacity: Capacity) -> Server<S> {
        let mut metrics = MetricsRegistry::new();
        let ids = MetricIds::register(&mut metrics);
        Server {
            db,
            capacity,
            cache: SegmentCache::disabled(),
            sessions: Vec::new(),
            active: 0,
            capped_live: 0,
            plans: HashMap::new(),
            session_base: 0,
            heap: BinaryHeap::new(),
            clock: TimePoint::ZERO,
            busy_until: TimePoint::ZERO,
            stall_until: TimePoint::ZERO,
            committed: Rational::ZERO,
            committed_decode: Rational::ZERO,
            repriced_gen: 0,
            upgrade_hold: false,
            forced: BTreeSet::new(),
            metrics,
            ids,
            tracer: Tracer::disabled(),
            batch: VecDeque::new(),
        }
    }

    /// Builder: attaches a segment cache with the given byte budget.
    pub fn with_cache_budget(mut self, budget_bytes: u64) -> Server<S> {
        self.cache = SegmentCache::new(budget_bytes);
        self
    }

    /// Builder: offsets the session ids this server allocates to
    /// `base..base+n`. A [`crate::ShardedServer`] gives shard `i` the base
    /// `i << 32`, so every session id in the fleet is unique and encodes
    /// its owning shard.
    pub(crate) fn with_session_base(mut self, base: u64) -> Server<S> {
        assert!(
            self.sessions.is_empty(),
            "session base must be set before any session is admitted"
        );
        self.session_base = base;
        self
    }

    /// Builder: attaches a tracer. Every session lifecycle step, admission
    /// verdict, element service interval, cache lookup and deadline miss is
    /// recorded on the simulated clock. Attach a *clone* of the same tracer
    /// to a `FaultyBlobStore` wrapping this server's store and injected
    /// faults land in the same timeline.
    pub fn with_tracer(mut self, tracer: Tracer) -> Server<S> {
        self.tracer = tracer;
        self
    }

    /// The attached tracer (disabled unless set via
    /// [`Server::with_tracer`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics registry backing [`Server::stats`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// An owned snapshot of the trace collected so far.
    pub fn trace(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Writes the collected trace as Chrome `trace_event` JSON (loadable in
    /// Perfetto or `chrome://tracing`).
    pub fn trace_to_writer(&self, w: &mut dyn io::Write) -> io::Result<()> {
        chrome_trace_to_writer(&self.trace(), w)
    }

    /// Walks the collected trace in place and assigns exactly one cause to
    /// every deadline miss. See [`tbm_obs::attribution`] for the rules.
    pub fn attribution(&self) -> AttributionReport {
        self.tracer.read(|trace| attribute(trace.records()))
    }

    /// The catalog being served.
    pub fn db(&self) -> &MediaDb<S> {
        &self.db
    }

    /// The capacity model.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Replaces the capacity model mid-run — the fleet lever for a node
    /// whose hosted-shard count (or brownout-derated budget) just changed.
    /// Already-admitted sessions keep playing against the new cost model;
    /// new arrivals are admitted against the new budget; and a *larger*
    /// budget immediately lifts degraded-admission sessions back to full
    /// fidelity where it fits ([`Server::finish`] semantics are unchanged).
    pub(crate) fn set_capacity(&mut self, capacity: Capacity) {
        self.capacity = capacity;
        self.try_upgrade_sessions(self.clock);
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// Stalls the service channel until `until` (monotone: an earlier call
    /// with a later instant wins). A fleet sets this across a shard
    /// migration's catalog handoff and while the hosting node is down, so
    /// elements queued before the move complete after it — paying the
    /// outage as an explicitly attributed `node-loss` component instead of
    /// disappearing or masquerading as channel wait.
    pub(crate) fn set_stall_until(&mut self, until: TimePoint) {
        self.stall_until = self.stall_until.max(until);
    }

    /// The current node-outage stall horizon ([`TimePoint::ZERO`] when the
    /// channel was never stalled).
    pub fn stall_until(&self) -> TimePoint {
        self.stall_until
    }

    /// The server clock: the latest simulated time processed.
    pub fn clock(&self) -> TimePoint {
        self.clock
    }

    /// All sessions ever admitted, in admission order (including finished
    /// and closed ones).
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// A session by id.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.checked_slot(id).map(|i| &self.sessions[i])
    }

    /// The slot of `id`, or `None` when the id was never allocated here
    /// (wrong shard, or simply unknown).
    fn checked_slot(&self, id: SessionId) -> Option<usize> {
        id.raw()
            .checked_sub(self.session_base)
            .map(|i| i as usize)
            .filter(|&i| i < self.sessions.len())
    }

    /// Submits a request at simulated time `at` (non-decreasing across
    /// calls). The event loop first serves every element due by `at`, then
    /// applies the request and answers with a typed [`Response`].
    pub fn request(&mut self, at: TimePoint, request: Request) -> Result<Response, ServeError> {
        if at < self.clock {
            return Err(ServeError::NonMonotonicTime {
                at,
                clock: self.clock,
            });
        }
        self.drain(Some(at));
        self.clock = at;
        let response = match request {
            Request::Open { object } => self.open(&object),
            Request::Play { session } => self.play(at, session),
            Request::Pause { session } => self.pause(session),
            Request::Seek { session, to } => self.seek(at, session, to),
            Request::SetRate { session, num, den } => self.set_rate(at, session, num, den),
            Request::Close { session } => self.close(session),
        };
        debug_assert_eq!(self.check_invariants(), Ok(()));
        response
    }

    /// Serves every queued element whose deadline is at or before `to`,
    /// advancing the clock to `to`.
    pub fn run_until(&mut self, to: TimePoint) {
        self.drain(Some(to));
        self.clock = self.clock.max(to);
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// Drains the event loop completely — every queued element of every
    /// playing session is served — and returns the final statistics.
    /// Opened or paused sessions keep their capacity; close them first if
    /// the run is over.
    pub fn finish(&mut self) -> ServerStats {
        self.drain_all();
        self.stats()
    }

    /// Full drain without the stats materialisation — what the parallel
    /// shard pool calls per shard, collecting stats afterwards in shard
    /// order.
    pub(crate) fn drain_all(&mut self) {
        self.drain(None);
        self.clock = self.clock.max(self.busy_until);
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// Whether any queued element is due at or before `to` — the sharded
    /// front end's cheap "is a parallel drive worth spawning" probe.
    pub(crate) fn has_due(&self, to: TimePoint) -> bool {
        self.heap.peek().is_some_and(|&Reverse(j)| j.deadline <= to)
    }

    /// Whether any element is queued at all (the finish-drain probe).
    pub(crate) fn has_queued(&self) -> bool {
        !self.heap.is_empty()
    }

    /// The event loop: serves due elements in `(deadline, session, pos)`
    /// order, batching runs that share a deadline.
    ///
    /// A batch is the run of heap entries at the earliest due deadline,
    /// popped together and served back to back. Two rules keep the serve
    /// order *exactly* what popping one entry at a time would produce:
    ///
    /// 1. **Chain rule** — after serving a session's element, its successor
    ///    joins the *front* of the batch when it lands on the same deadline
    ///    (every remaining batch entry belongs to a later session id), and
    ///    goes to the heap otherwise (per-session deadlines are monotone,
    ///    so it can never undercut the batch).
    /// 2. **Preemption guard** — serving an element can re-anchor *other*
    ///    sessions (the upgrade path), pushing fresh heap entries at
    ///    arbitrary deadlines. Before each serve the batch head is compared
    ///    with the heap top; if the heap now holds an earlier job, the
    ///    remaining batch is pushed back and the loop restarts from the
    ///    true minimum.
    ///
    /// Every batch that served something counts once in `serve.batches`.
    fn drain(&mut self, limit: Option<TimePoint>) {
        while let Some(&Reverse(top)) = self.heap.peek() {
            if limit.is_some_and(|to| top.deadline > to) {
                break;
            }
            let d = top.deadline;
            while let Some(&Reverse(j)) = self.heap.peek() {
                if j.deadline != d {
                    break;
                }
                self.heap.pop();
                self.batch.push_back(j);
            }
            let mut served_in_batch = false;
            while let Some(job) = self.batch.pop_front() {
                if self.heap.peek().is_some_and(|&Reverse(t)| t < job) {
                    // A mid-serve push outranks the batch: fall back to
                    // the heap so the global order is preserved.
                    self.heap.push(Reverse(job));
                    self.heap.extend(self.batch.drain(..).map(Reverse));
                    break;
                }
                if self.serve_job(job) {
                    served_in_batch = true;
                    if let Some(next) = self.successor_of(job) {
                        if next.deadline == d {
                            self.batch.push_front(next);
                        } else {
                            self.heap.push(Reverse(next));
                        }
                    }
                }
            }
            if served_in_batch {
                self.metrics.inc_at(self.ids.batches, 1);
            }
        }
    }

    /// The next due element of the session `job` belonged to, if the serve
    /// left it playing on the same schedule generation.
    fn successor_of(&self, job: QueuedJob) -> Option<QueuedJob> {
        let idx = (job.session - self.session_base) as usize;
        let s = &self.sessions[idx];
        if s.epoch != job.epoch || s.state != SessionState::Playing {
            // Finished, paused, closed, or re-anchored (upgrade/force): any
            // live continuation was queued with a fresh epoch already.
            return None;
        }
        self.head_job(s)
    }

    /// The heap entry for the earliest pending element of `s` under its
    /// current anchor.
    fn head_job(&self, s: &Session) -> Option<QueuedJob> {
        let pos = s.pending.start;
        (!s.pending.is_empty()).then(|| QueuedJob {
            deadline: s.queued_deadline(s.plan.rows(&self.db), pos),
            session: s.id.raw(),
            pos,
            epoch: s.epoch,
        })
    }

    /// Committed storage demand of the admitted sessions, in whole bytes
    /// per second — [`ServerStats::committed_bps`] without the snapshot.
    pub fn committed_bps(&self) -> u64 {
        self.committed.floor().max(0) as u64
    }

    /// A point-in-time statistics snapshot, materialised from the metrics
    /// registry.
    pub fn stats(&self) -> ServerStats {
        let mut active = 0usize;
        let mut finished = 0usize;
        let mut closed = 0usize;
        for s in &self.sessions {
            match s.state {
                SessionState::Finished => finished += 1,
                SessionState::Closed => closed += 1,
                _ => active += 1,
            }
        }
        let m = &self.metrics;
        let degraded_elements = m.counter(M_DEGRADED) as usize;
        let dropped_elements = m.counter(M_DROPPED) as usize;
        let repaired_elements = m.counter(M_REPAIRED) as usize;
        let faults_detected = m.counter(M_FAULTS) as usize;
        let mut lateness = m.histogram_or_empty(H_LATENESS_FULL, &LATENCY_BUCKETS_US);
        lateness.merge(&m.histogram_or_empty(H_LATENESS_DEGRADED, &LATENCY_BUCKETS_US));
        // Every detected fault must be resolved exactly once: out of the
        // degradation ladder as a degraded or dropped element, or healed by
        // a cross-tier repair that left the element intact.
        debug_assert_eq!(
            faults_detected,
            degraded_elements + dropped_elements + repaired_elements,
            "fault accounting invariant violated in snapshot"
        );
        ServerStats {
            active_sessions: active,
            finished_sessions: finished,
            closed_sessions: closed,
            admitted: m.counter(M_ADMITTED) as usize,
            admitted_degraded: m.counter(M_ADMITTED_DEGRADED) as usize,
            rejected: m.counter(M_REJECTED) as usize,
            elements_served: m.counter(M_ELEMENTS) as usize,
            deadline_misses: m.counter(M_MISSES) as usize,
            recovered: m.counter(M_RECOVERED) as usize,
            degraded_elements,
            dropped_elements,
            repaired_elements,
            faults_detected,
            upgraded_sessions: m.counter(M_UPGRADED) as usize,
            cache: self.cache.stats(),
            storage_bytes_read: m.counter(M_BYTES_READ),
            committed_bps: self.committed_bps(),
            lateness,
            service: m.histogram_or_empty(H_SERVICE, &LATENCY_BUCKETS_US),
        }
    }

    /// What a session fetching the `pending` rows of `plan` at `demand`
    /// bytes/s is charged on the storage stage. Under cache-aware
    /// admission that is `demand` scaled by the fraction of those rows'
    /// bytes *not* resident in the segment cache (a disabled cache holds
    /// nothing); otherwise it is `demand`. Residency is probed with
    /// [`SegmentCache::contains`], which touches neither recency nor the
    /// hit/miss counters, so pricing a session never perturbs the cache
    /// state other sessions see.
    fn storage_charge<R>(&self, plan: &ObjectPlan, pending: R, demand: Rational) -> Rational
    where
        R: SliceIndex<[ElementEntry], Output = [ElementEntry]>,
    {
        if !self.capacity.cache_aware || !self.cache.is_enabled() {
            return demand;
        }
        let (mut total, mut resident) = (0u64, 0u64);
        for span in plan.spans_of(&plan.rows(&self.db)[pending]) {
            total += span.len;
            if self.cache.contains(plan.blob, span) {
                resident += span.len;
            }
        }
        if total == 0 {
            demand
        } else {
            demand * Rational::new((total - resident) as i64, total as i64)
        }
    }

    // ------------------------------------------------------------------
    // Request handlers
    // ------------------------------------------------------------------

    /// The plans of `object`, made on its first `Open`.
    fn plans_of(&mut self, object: &str) -> Result<&ObjectPlans, ServeError> {
        if !self.plans.contains_key(object) {
            let plan = |cap| ObjectPlan::new(&self.db, object, cap).map(Arc::new);
            let full = plan(None)?;
            let rows = full.rows(&self.db);
            let scalable = rows.iter().any(|e| e.placement.layer_count() > 1);
            let base = scalable.then(|| plan(Some(1))).transpose()?;
            let plans = ObjectPlans { full, base };
            self.plans.insert(object.to_owned(), plans);
        }
        Ok(&self.plans[object])
    }

    /// Runs admission control and, when admitted, creates the session.
    fn open(&mut self, object: &str) -> Result<Response, ServeError> {
        let plans = self.plans_of(object)?;
        let (full, base) = (Arc::clone(&plans.full), plans.base.clone());

        // Admission prices storage demand against the capacity the store
        // can actually deliver right now: an open tier breaker derates the
        // bandwidth the gate hands out, steering new sessions onto the
        // degraded path until the tier heals (they are upgraded back by
        // `try_upgrade_sessions`).
        let gate = self.capacity.derated(self.db.store().health_percent());
        // Cache-aware admission prices the *storage* stage at the demand
        // discounted by current residency; the decode stage always pays in
        // full, since a cache hit skips the fetch but not the decode.
        let charge_of = |plan: &ObjectPlan| self.storage_charge(plan, .., plan.unit_demand);
        let fits = |plan: &ObjectPlan, charged: Rational| {
            gate.fits_staged(
                self.committed,
                self.committed_decode,
                charged,
                plan.unit_demand,
            )
        };
        let full_charge = charge_of(&full);
        let admitted = match self.capacity.policy {
            AdmissionPolicy::AdmitAll => Ok((AdmitDecision::Admitted, full, full_charge)),
            AdmissionPolicy::Enforce if self.active >= self.capacity.max_sessions => {
                Err(RejectReason::SessionLimit {
                    max: self.capacity.max_sessions,
                })
            }
            AdmissionPolicy::Enforce if fits(&full, full_charge) => {
                Ok((AdmitDecision::Admitted, full, full_charge))
            }
            AdmissionPolicy::Enforce => match base.map(|base| (charge_of(&base), base)) {
                Some((charge, base)) if fits(&base, charge) => {
                    Ok((AdmitDecision::Degraded { layers: 1 }, base, charge))
                }
                base => {
                    let cheapest = base.map_or(full.unit_demand, |(_, b)| b.unit_demand);
                    let headroom = Rational::from(gate.service_rate() as i64) - self.committed;
                    Err(RejectReason::Saturated {
                        demanded_bps: cheapest.floor().max(0) as u64,
                        available_bps: headroom.floor().max(0) as u64,
                    })
                }
            },
        };

        let (decision, plan, charged) = match admitted {
            Ok(admitted) => admitted,
            Err(reason) => {
                self.metrics.inc_at(self.ids.rejected, 1);
                self.tracer.event_with(
                    "admission",
                    Category::Admission,
                    self.clock,
                    SpanId::NONE,
                    None,
                    |a| {
                        a.put("object", object.to_owned());
                        a.put("verdict", "rejected");
                    },
                );
                return Ok(Response::Opened {
                    session: None,
                    decision: AdmitDecision::Rejected { reason },
                });
            }
        };

        let demand = plan.unit_demand;
        let id = SessionId::new(self.session_base + self.sessions.len() as u64);
        let (counter, verdict) = match decision {
            AdmitDecision::Degraded { .. } => (self.ids.admitted_degraded, "degraded"),
            _ => (self.ids.admitted, "admitted"),
        };
        self.metrics.inc_at(counter, 1);
        self.committed += charged;
        self.committed_decode += demand;
        self.tracer.event_with(
            "admission",
            Category::Admission,
            self.clock,
            SpanId::NONE,
            Some(id.raw()),
            |a| {
                a.put("object", object.to_owned());
                a.put("verdict", verdict);
                if gate.cache_aware {
                    // Only under the flag, so off-flag traces stay
                    // byte-identical.
                    a.put("charged_bps", charged.floor().max(0) as u64);
                }
            },
        );
        let span = self.tracer.begin_span_with(
            "session",
            Category::Session,
            self.clock,
            SpanId::NONE,
            Some(id.raw()),
            |a| a.put("object", object.to_owned()),
        );
        let session = Session {
            id,
            state: SessionState::Opened,
            pending: 0..plan.rows(&self.db).len(),
            plan,
            epoch: 0,
            rate: (1, 1),
            play_time: TimePoint::ZERO,
            anchor_tick: 0,
            clock_base: None,
            demand,
            charged,
            have_good: false,
            stats: SessionStats::default(),
            span,
            last_ready: TimePoint::ZERO,
            last_lateness_us: 0,
        };
        self.active += 1;
        self.capped_live += session.is_capped_live() as usize;
        self.sessions.push(session);
        Ok(Response::Opened {
            session: Some(id),
            decision,
        })
    }

    /// The slot of `id`, provided its session may still take `request`.
    fn slot_for(
        &self,
        id: SessionId,
        request: &'static str,
        allowed: impl FnOnce(&Session) -> bool,
    ) -> Result<usize, ServeError> {
        let slot = self
            .checked_slot(id)
            .ok_or(ServeError::UnknownSession { session: id })?;
        let s = &self.sessions[slot];
        if allowed(s) {
            Ok(slot)
        } else {
            Err(ServeError::BadState {
                session: id,
                state: s.state,
                request,
            })
        }
    }

    /// Queues the earliest pending element of slot `idx` under its current
    /// anchor — the session's single live heap entry; the event loop queues
    /// each successor as it serves (see [`QueuedJob`]).
    fn enqueue_next(&mut self, idx: usize) {
        if let Some(job) = self.head_job(&self.sessions[idx]) {
            self.heap.push(Reverse(job));
        }
    }

    /// Replaces the pending run of slot `idx`.
    fn set_pending(&mut self, idx: usize, pending: Range<usize>) {
        let s = &mut self.sessions[idx];
        let was = s.is_capped_live();
        s.pending = pending;
        self.capped_live = self.capped_live - was as usize + s.is_capped_live() as usize;
    }

    /// Moves slot `idx` out of the active set (to `Finished` or `Closed`)
    /// and hands its committed capacity back, once.
    fn retire(&mut self, idx: usize, state: SessionState) {
        let s = &mut self.sessions[idx];
        if s.is_active() {
            self.active -= 1;
            self.capped_live -= s.is_capped_live() as usize;
            self.committed -= s.charged;
            self.committed_decode -= s.demand;
        }
        s.state = state;
    }

    fn play(&mut self, at: TimePoint, id: SessionId) -> Result<Response, ServeError> {
        let idx = self.slot_for(id, "Play", |s| {
            matches!(s.state, SessionState::Opened | SessionState::Paused)
        })?;
        let s = &mut self.sessions[idx];
        let queued = s.pending.len();
        let span = s.span;
        if queued == 0 {
            self.retire(idx, SessionState::Finished);
        } else {
            s.state = SessionState::Playing;
            s.anchor(s.plan.rows(&self.db), at);
        }
        self.tracer.event_with(
            "session.play",
            Category::Session,
            at,
            span,
            Some(id.raw()),
            |a| a.put("queued", queued),
        );
        if queued == 0 {
            self.tracer.end_span(span, at);
            self.try_upgrade_sessions(at);
        } else {
            self.enqueue_next(idx);
        }
        Ok(Response::Playing {
            session: id,
            queued,
        })
    }

    fn pause(&mut self, id: SessionId) -> Result<Response, ServeError> {
        let idx = self.slot_for(id, "Pause", |s| s.state == SessionState::Playing)?;
        let s = &mut self.sessions[idx];
        s.state = SessionState::Paused;
        s.epoch += 1; // queued jobs of the old epoch become stale
        let remaining = s.pending.len();
        self.tracer.event_with(
            "session.pause",
            Category::Session,
            self.clock,
            s.span,
            Some(id.raw()),
            |a| a.put("remaining", remaining),
        );
        Ok(Response::Paused {
            session: id,
            remaining,
        })
    }

    fn seek(
        &mut self,
        at: TimePoint,
        id: SessionId,
        to: TimePoint,
    ) -> Result<Response, ServeError> {
        let idx = self.slot_for(id, "Seek", Session::is_active)?;
        // Everything at or after `to` on the unit-rate stream timeline
        // becomes pending again; a backwards seek re-presents elements.
        let plan = &self.sessions[idx].plan;
        let pending = plan.seek(plan.rows(&self.db), to);
        let remaining = pending.len();
        self.set_pending(idx, pending);
        let s = &mut self.sessions[idx];
        s.epoch += 1;
        let span = s.span;
        let playing = s.state == SessionState::Playing;
        self.tracer.event_with(
            "session.seek",
            Category::Session,
            at,
            span,
            Some(id.raw()),
            |a| {
                a.put("to_us", tbm_obs::micros_of(to));
                a.put("remaining", remaining);
            },
        );
        if playing && remaining == 0 {
            self.retire(idx, SessionState::Finished);
            self.tracer.end_span(span, at);
            self.try_upgrade_sessions(at);
        } else if playing {
            let s = &mut self.sessions[idx];
            s.anchor(s.plan.rows(&self.db), at);
            self.enqueue_next(idx);
        }
        Ok(Response::Sought {
            session: id,
            remaining,
        })
    }

    fn set_rate(
        &mut self,
        at: TimePoint,
        id: SessionId,
        num: u32,
        den: u32,
    ) -> Result<Response, ServeError> {
        if num == 0 || den == 0 {
            return Err(ServeError::BadRate { num, den });
        }
        let idx = self.slot_for(id, "SetRate", Session::is_active)?;
        let s = &self.sessions[idx];
        // Faster playback demands proportionally more bytes per second;
        // re-run the admission check on the delta (residency-discounted on
        // the storage stage under cache-aware admission).
        let new_demand = s.plan.unit_demand * Rational::new(num as i64, den as i64);
        let new_charged = self.storage_charge(&s.plan, s.pending.clone(), new_demand);
        let rest = self.committed - s.charged;
        let rest_decode = self.committed_decode - s.demand;
        if self.capacity.policy == AdmissionPolicy::Enforce
            && !self
                .capacity
                .fits_staged(rest, rest_decode, new_charged, new_demand)
        {
            return Ok(Response::RateSet {
                session: id,
                accepted: false,
            });
        }
        self.committed = rest + new_charged;
        self.committed_decode = rest_decode + new_demand;
        let s = &mut self.sessions[idx];
        s.demand = new_demand;
        s.charged = new_charged;
        s.rate = (num, den);
        self.tracer.event_with(
            "session.rate",
            Category::Session,
            at,
            s.span,
            Some(id.raw()),
            |a| {
                a.put("num", num);
                a.put("den", den);
            },
        );
        if s.state == SessionState::Playing {
            s.anchor(s.plan.rows(&self.db), at);
            self.enqueue_next(idx);
        }
        Ok(Response::RateSet {
            session: id,
            accepted: true,
        })
    }

    fn close(&mut self, id: SessionId) -> Result<Response, ServeError> {
        let idx = self.slot_for(id, "Close", |s| s.state != SessionState::Closed)?;
        self.retire(idx, SessionState::Closed);
        let s = &mut self.sessions[idx];
        s.epoch += 1;
        let stats = s.stats;
        let span = s.span;
        self.tracer.event_with(
            "session.close",
            Category::Session,
            self.clock,
            span,
            Some(id.raw()),
            |a| a.put("elements", stats.elements),
        );
        self.tracer.end_span(span, self.clock);
        self.try_upgrade_sessions(self.clock);
        Ok(Response::Closed { session: id, stats })
    }

    /// Abandons every unserved element of every active session at `at` —
    /// what a node loss looks like when nobody migrates the shard away.
    /// Each abandoned element is accounted as a dropped element backed by a
    /// detected fault (so `faults == degraded + dropped + repaired` and
    /// `service.count == elements_served` keep holding, with zero recorded
    /// service), the sessions close, and their capacity is released.
    /// Returns the number of elements shed.
    ///
    /// The fleet's **no-migration baseline** calls this for shards whose
    /// node died; the migrating fleet never does — the gap between the two
    /// is exactly the serves migration saves.
    pub fn shed_pending(&mut self, at: TimePoint) -> usize {
        let mut shed_total = 0usize;
        for idx in 0..self.sessions.len() {
            let s = &self.sessions[idx];
            if !s.is_active() || s.pending.is_empty() {
                continue;
            }
            let shed = s.pending.len();
            self.retire(idx, SessionState::Closed);
            let s = &mut self.sessions[idx];
            s.pending.start = s.pending.end;
            s.epoch += 1; // queued jobs of the old schedule go stale
            s.stats.elements += shed;
            s.stats.dropped += shed;
            let (span, id) = (s.span, s.id);
            self.metrics.inc_at(self.ids.elements, shed as u64);
            self.metrics.inc_at(self.ids.dropped, shed as u64);
            self.metrics.inc_at(self.ids.faults, shed as u64);
            for _ in 0..shed {
                self.metrics.observe_at(self.ids.service, 0);
            }
            self.tracer.event_with(
                "session.shed",
                Category::Session,
                at,
                span,
                Some(id.raw()),
                |a| a.put("shed", shed),
            );
            self.tracer.end_span(span, at);
            shed_total += shed;
        }
        if shed_total > 0 {
            self.try_upgrade_sessions(at);
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
        shed_total
    }

    /// Re-derives every active session's storage charge from current cache
    /// residency — the "re-evaluate admitted sessions as residency shifts"
    /// half of cache-aware admission. A session admitted cheaply against a
    /// hot cache is re-charged when its segments are evicted, and one
    /// admitted cold sheds charge as its spans become resident. Skipped in
    /// one integer compare unless the cache's resident set actually changed
    /// since the last pass ([`SegmentCache::generation`]).
    fn reprice_sessions(&mut self) {
        // No is_enabled() gate: disabling the cache mid-run (budget 0)
        // evicts everything, and the sessions priced against residency
        // must be re-charged full demand — storage_charge reads a
        // disabled cache as zero-resident. A never-enabled cache stays at
        // generation 0 and returns below.
        let generation = self.cache.generation();
        if generation == self.repriced_gen {
            return;
        }
        self.repriced_gen = generation;
        for idx in 0..self.sessions.len() {
            let s = &self.sessions[idx];
            if !s.is_active() {
                continue;
            }
            let new_charged = self.storage_charge(&s.plan, s.pending.clone(), s.demand);
            let s = &mut self.sessions[idx];
            if new_charged != s.charged {
                self.committed = self.committed - s.charged + new_charged;
                s.charged = new_charged;
            }
        }
    }

    /// Moves slot `idx` onto `plan` — its object's other fidelity — at
    /// `at`: the session's demand and storage charge are re-priced, and its
    /// remaining elements re-anchored and requeued under the new byte
    /// demands (queued jobs of the old epoch go stale, exactly as for
    /// Seek/SetRate). Recorded as a `name` trace event.
    fn replan(&mut self, idx: usize, plan: Arc<ObjectPlan>, at: TimePoint, name: &'static str) {
        let (num, den) = self.sessions[idx].rate;
        let new_demand = plan.unit_demand * Rational::new(num as i64, den as i64);
        let new_charged =
            self.storage_charge(&plan, self.sessions[idx].pending.clone(), new_demand);
        let s = &mut self.sessions[idx];
        let was = s.is_capped_live();
        self.committed = self.committed - s.charged + new_charged;
        self.committed_decode = self.committed_decode - s.demand + new_demand;
        s.plan = plan;
        s.demand = new_demand;
        s.charged = new_charged;
        self.capped_live = self.capped_live - was as usize + s.is_capped_live() as usize;
        let remaining = s.pending.len();
        self.tracer
            .event_with(name, Category::Session, at, s.span, Some(s.id.raw()), |a| {
                a.put("remaining", remaining)
            });
        if s.state == SessionState::Playing {
            s.anchor(s.plan.rows(&self.db), at);
            self.enqueue_next(idx);
        } else {
            s.epoch += 1;
        }
    }

    /// Re-admits degraded-fidelity sessions at full fidelity — the recovery
    /// half of the degraded admission path. A capped session is upgraded
    /// when the store is fully healthy again (every tier breaker closed)
    /// *and* the full-fidelity demand fits the committed headroom. Runs at
    /// every capacity-release point (finish, close, empty play/seek) and
    /// after every served element, so a breaker closing mid-run is picked
    /// up without a session event — and costs one compare while no session
    /// is capped.
    fn try_upgrade_sessions(&mut self, now: TimePoint) {
        // If cache residency shifted since the last pass, reprice every
        // active session's storage charge first, so the upgrade checks
        // below — and the next admissions — see current headroom.
        if self.capacity.cache_aware && self.capacity.policy == AdmissionPolicy::Enforce {
            self.reprice_sessions();
        }
        if self.upgrade_hold {
            return; // a forced degradation is in effect; nothing lifts it
        }
        if self.capacity.policy == AdmissionPolicy::AdmitAll {
            return; // AdmitAll never degrades, so there is nothing to lift
        }
        if self.capped_live == 0 {
            return;
        }
        if self.db.store().health_percent() < 100 {
            return; // a tier is still open; keep sessions on the cheap path
        }
        for idx in 0..self.sessions.len() {
            let s = &self.sessions[idx];
            if !s.is_capped_live() {
                continue;
            }
            let full = &self.plans[&s.plan.object].full;
            let (num, den) = s.rate;
            let new_demand = full.unit_demand * Rational::new(num as i64, den as i64);
            // Upgrades gate at the full, undiscounted demand even under
            // cache-aware admission (conservative: the layers an upgrade
            // adds are exactly the ones least likely to be resident);
            // the charge actually booked by `replan` is discounted.
            if self.capacity.fits_staged(
                self.committed - s.charged,
                self.committed_decode - s.demand,
                new_demand,
                new_demand,
            ) {
                let full = Arc::clone(full);
                self.metrics.inc_at(self.ids.upgraded, 1);
                self.replan(idx, full, now, "session.upgrade");
            }
        }
    }

    /// Forces every active full-fidelity session with work left onto its
    /// base layer — the remediation plane's degradation lever, the paper's
    /// Def. 6 rule ("materialize a cheaper variant when too slow") applied
    /// fleet-wide. Each forced session is moved to its object's base-layer
    /// plan, its demand re-priced, and its remaining elements re-anchored
    /// at `at`; non-scalable streams are left alone. Sets a sticky hold so
    /// the automatic upgrade path cannot lift the cap (it otherwise runs
    /// after every served element); [`Server::release_degrade`] clears the
    /// hold and restores exactly the sessions forced here. Returns the
    /// number of sessions degraded.
    pub fn force_degrade(&mut self, at: TimePoint) -> usize {
        self.upgrade_hold = true;
        let at = at.max(self.clock);
        let mut count = 0usize;
        for idx in 0..self.sessions.len() {
            let s = &self.sessions[idx];
            if !s.is_active() || s.plan.layers_cap.is_some() || s.pending.is_empty() {
                continue;
            }
            let Some(base) = self.plans[&s.plan.object].base.clone() else {
                continue; // nothing to shed on a single-layer stream
            };
            self.forced.insert(s.id.raw());
            self.metrics.inc_at(self.ids.forced, 1);
            self.replan(idx, base, at, "session.force_degrade");
            count += 1;
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
        count
    }

    /// Lifts a [`Server::force_degrade`]: clears the upgrade hold and
    /// restores every still-active forced session to its full-fidelity
    /// plan and demand (the rollback restores the pre-action state even if
    /// capacity shrank meanwhile — `committed` only gates *new*
    /// admissions). Organically degraded sessions then get their usual
    /// upgrade shot. Returns the number of sessions restored.
    pub fn release_degrade(&mut self, at: TimePoint) -> usize {
        self.upgrade_hold = false;
        let at = at.max(self.clock);
        let mut count = 0usize;
        for raw in std::mem::take(&mut self.forced) {
            let Some(idx) = self.checked_slot(SessionId::new(raw)) else {
                continue;
            };
            let s = &self.sessions[idx];
            if !s.is_capped_live() {
                continue;
            }
            let full = Arc::clone(&self.plans[&s.plan.object].full);
            self.metrics.inc_at(self.ids.upgraded, 1);
            self.replan(idx, full, at, "session.upgrade");
            count += 1;
        }
        self.try_upgrade_sessions(at);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        count
    }

    /// Replaces the segment cache's byte budget mid-run, returning the
    /// previous one ([`SegmentCache::set_budget`] semantics: a shrink
    /// evicts LRU segments immediately).
    pub fn set_cache_budget(&mut self, budget_bytes: u64) -> u64 {
        let prev = self.cache.set_budget(budget_bytes);
        self.metrics
            .set_gauge_at(self.ids.cache_bytes, self.cache.bytes_cached() as i64);
        // A shrink can evict spans that admitted sessions were priced
        // against; re-charge them right away so the very next admission
        // sees honest headroom.
        if self.capacity.cache_aware && self.capacity.policy == AdmissionPolicy::Enforce {
            self.reprice_sessions();
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
        prev
    }

    /// Recounts everything the server keeps a running tally of, and checks
    /// the structural invariants the event loop relies on:
    ///
    /// * `active` and `capped_live` equal a recount of the session table;
    /// * capacity conservation on both stages — `committed` is the sum of
    ///   the active sessions' `charged`, `committed_decode` of their
    ///   `demand`;
    /// * every session's `pending` lies inside its plan, only an active
    ///   session has anything pending, and a playing session has work;
    /// * a playing session has exactly one live heap entry — its first
    ///   pending element under the current anchor — and nobody else has any;
    /// * the fault partition `faults == degraded + dropped + repaired`.
    ///
    /// `Err` names the first violation. The server checks itself with this
    /// under `debug_assert!` after every public mutation; storm tests call
    /// it explicitly.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (mut active, mut capped_live) = (0usize, 0usize);
        let (mut charged, mut demand) = (Some(Rational::ZERO), Some(Rational::ZERO));
        for s in &self.sessions {
            let id = s.id;
            let p = &s.pending;
            let rows = s.plan.rows(&self.db).len();
            if p.start > p.end || p.end > rows {
                return Err(format!("{id}: pending {p:?} outside its {rows} rows"));
            }
            if !s.is_active() && !p.is_empty() && s.state != SessionState::Closed {
                return Err(format!("{id}: {} with {} pending", s.state, p.len()));
            }
            if s.state == SessionState::Playing && p.is_empty() {
                return Err(format!("{id}: playing with nothing pending"));
            }
            if s.is_active() {
                active += 1;
                capped_live += s.is_capped_live() as usize;
                // An overflowing recount proves nothing either way.
                charged = charged.and_then(|sum| sum.checked_add(s.charged).ok());
                demand = demand.and_then(|sum| sum.checked_add(s.demand).ok());
            }
        }
        if (active, capped_live) != (self.active, self.capped_live) {
            return Err(format!(
                "tallies say {} active / {} capped-live, the table {active} / {capped_live}",
                self.active, self.capped_live
            ));
        }
        if charged.is_some_and(|sum| sum != self.committed) {
            return Err(format!(
                "committed {} but sessions are charged {charged:?}",
                self.committed
            ));
        }
        if demand.is_some_and(|sum| sum != self.committed_decode) {
            return Err(format!(
                "committed_decode {} but sessions demand {demand:?}",
                self.committed_decode
            ));
        }

        let mut live = vec![0u32; self.sessions.len()];
        for &Reverse(job) in &self.heap {
            let idx = (job.session - self.session_base) as usize;
            let s = &self.sessions[idx];
            if s.epoch != job.epoch || s.state != SessionState::Playing {
                continue; // stale
            }
            live[idx] += 1;
            if Some(job) != self.head_job(s) {
                return Err(format!("{}: live heap entry {job:?} is not its head", s.id));
            }
        }
        for (s, &n) in self.sessions.iter().zip(&live) {
            if n != (s.state == SessionState::Playing) as u32 {
                return Err(format!("{}: {} with {n} live heap entries", s.id, s.state));
            }
        }

        let m = &self.metrics;
        let resolved = m.counter(M_DEGRADED) + m.counter(M_DROPPED) + m.counter(M_REPAIRED);
        if m.counter(M_FAULTS) != resolved {
            return Err(format!(
                "{} faults detected but {resolved} resolved",
                m.counter(M_FAULTS)
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The service channel
    // ------------------------------------------------------------------

    /// Serves one queued element through the element pipeline — fetch →
    /// fate → timing → record, four stages over one [`ElementOutcome`] —
    /// and moves its session on. Returns `false` for a stale entry (nothing
    /// served), `true` after a real serve — the event loop queues the
    /// session's successor only in the latter case.
    fn serve_job(&mut self, job: QueuedJob) -> bool {
        let idx = (job.session - self.session_base) as usize;
        let s = &self.sessions[idx];
        if s.epoch != job.epoch || s.state != SessionState::Playing {
            return false; // stale: paused, re-anchored or closed since queueing
        }
        debug_assert_eq!(job.pos, s.pending.start, "sessions are served in order");
        // The channel dispatches this element when it frees up (or at the
        // anchor, whichever is later) — known before any read happens, so
        // the element span and the injected-fault events of the reads all
        // land at the right simulated instant. A node-outage stall
        // (migration handoff) can only push dispatch later; the difference
        // is attributed to `node-loss`, never to channel wait.
        let natural_start = self.busy_until.max(s.play_time);
        let start = natural_start.max(self.stall_until);
        // The tracer's "now" moves to the dispatch instant with the span's
        // one write.
        let span = self.tracer.advance_and_begin_span(
            ELEMENT_SPAN,
            Category::Serve,
            start,
            s.span,
            Some(job.session),
            |a| a.put(ATTR_ELEMENT_INDEX, job.pos),
        );
        // A tiered store runs its breakers and outage scripts on the same
        // simulated instant the element is dispatched at.
        self.db.store().set_sim_now(start);
        let mut e = ElementOutcome {
            natural_start,
            start,
            // Queued `job.deadline - play_time` past the anchor, the
            // element is due the same distance past the presentation
            // clock's base.
            due: s.clock_base.map(|base| base + (job.deadline - s.play_time)),
            span,
            ..ElementOutcome::default()
        };
        self.fetch_element(idx, job, &mut e);
        self.decide_fate(idx, &mut e);
        self.time_element(idx, &mut e);
        self.record_element(idx, &e);

        let s = &self.sessions[idx];
        let root = s.span;
        let rest = job.pos + 1..s.pending.end;
        let done = rest.is_empty();
        self.set_pending(idx, rest);
        if done {
            self.retire(idx, SessionState::Finished);
            self.tracer.end_span(root, e.ready);
        }
        // After every served element: a finished session just released
        // capacity, and a tier breaker may have closed during the reads —
        // both can lift a degraded session back to full fidelity.
        self.try_upgrade_sessions(e.ready);
        true
    }

    /// Stage 1 — fetch every allowed layer, from the cache or else the
    /// store ([`fetch_layer`]: retried, then verified), stopping at the
    /// first bad one. A verified buffer becomes the cache entry. Bytes are
    /// split into first-attempt reads and retry re-reads so the element's
    /// service time can be attributed to storage vs. retries.
    fn fetch_element(&mut self, idx: usize, job: QueuedJob, e: &mut ElementOutcome) {
        let s = &mut self.sessions[idx];
        let store = self.db.store();
        let blob = s.plan.blob;
        let layers = s.plan.layers_of(&s.plan.rows(&self.db)[job.pos]);
        e.layers = layers.len();
        e.attempts_max = 1;
        // Slack before this element is late — the store's hedging budget,
        // the same for every layer of the element, so worked out on its
        // first miss only. None until the presentation clock is
        // established.
        let slack_us = OnceCell::new();
        for (li, (layer_span, expected_crc)) in layers.enumerate() {
            let probe = |a: &mut Attrs<'_>| {
                a.put("layer", li);
                a.put("bytes", layer_span.len);
            };
            e.bytes_decoded += layer_span.len;
            if self.cache.get(blob, layer_span).is_some() {
                s.stats.cache_hits += 1;
                e.intact_layers += 1;
                self.tracer.event_with(
                    "cache.hit",
                    Category::Cache,
                    e.start,
                    e.span,
                    Some(job.session),
                    probe,
                );
                continue;
            }
            s.stats.cache_misses += 1;
            self.tracer.event_with(
                "cache.miss",
                Category::Cache,
                e.start,
                e.span,
                Some(job.session),
                probe,
            );
            let slack_us: Option<u64> = *slack_us.get_or_init(|| {
                e.due
                    .map(|d| micros((d - e.start).max(TimeDelta::ZERO).seconds()) as u64)
            });
            let read = fetch_layer(store, &RETRY, blob, layer_span, expected_crc, slack_us);
            e.bytes_first += layer_span.len;
            e.bytes_retry += read.retry_bytes(layer_span);
            e.backoff_us += read.backoff_us;
            e.attempts_max = e.attempts_max.max(read.attempts);
            let Some(bytes) = read.bytes else {
                self.metrics.inc_at(self.ids.faults, 1);
                break;
            };
            self.cache.insert(blob, layer_span, bytes);
            e.intact_layers += 1;
        }
        self.metrics
            .inc_at(self.ids.bytes_read, e.bytes_first + e.bytes_retry);
        // Tier accounting: the slice of the store's latency hint spent on
        // failed attempts and slow-tier failover serves, and whether a tier
        // was healed from a verifying peer during these reads. Zero for
        // single-backend stores.
        e.failover_us = store.drain_failover_hint_us();
        e.repaired = store.drain_repairs() > 0;
    }

    /// Stage 2 — the ladder's verdict ([`ElementFate::decide`] under
    /// [`LADDER`]) and the counts that follow from it.
    fn decide_fate(&mut self, idx: usize, e: &mut ElementOutcome) {
        let s = &mut self.sessions[idx];
        let ids = self.ids;
        e.fate = ElementFate::decide(
            LADDER,
            e.intact_layers,
            e.layers,
            e.attempts_max,
            s.have_good,
        );
        s.have_good |= e.fate.presents_fresh();
        match e.fate {
            ElementFate::Intact => {}
            ElementFate::Recovered { .. } => {
                s.stats.recovered += 1;
                self.metrics.inc_at(ids.recovered, 1);
            }
            ElementFate::BaseLayers { .. } | ElementFate::Repeated => {
                s.stats.degraded += 1;
                self.metrics.inc_at(ids.degraded, 1);
            }
            ElementFate::Dropped => {
                s.stats.dropped += 1;
                self.metrics.inc_at(ids.dropped, 1);
            }
        }
        // A cross-tier repair that still produced a fully intact element is
        // a detected fault resolved by healing instead of degradation — the
        // third leg of the fault-accounting partition. Elements that end
        // degraded or dropped anyway keep their single ladder fault.
        if e.repaired && e.intact_layers == e.layers {
            s.stats.repaired += 1;
            self.metrics.inc_at(ids.repaired, 1);
            self.metrics.inc_at(ids.faults, 1);
        }
    }

    /// Stage 3 — timing through the shared channel: cache hits skip the
    /// storage transfer but still pay decode and dispatch; retries re-read.
    /// The service time is kept as the components miss attribution ranks:
    /// first-attempt storage transfer (+ the store's latency hint), retry
    /// re-reads (+ backoff), and decode (+ dispatch overhead).
    fn time_element(&mut self, idx: usize, e: &mut ElementOutcome) {
        let model = self.capacity.cost_model();
        let bw = model.bandwidth.max(1) as i64;
        e.first_cost = Rational::new(e.bytes_first as i64, bw);
        e.retry_cost = Rational::new(e.bytes_retry as i64, bw);
        e.decode_cost = Rational::new(model.overhead_us as i64, 1_000_000);
        if model.decode_rate > 0 {
            e.decode_cost += Rational::new(e.bytes_decoded as i64, model.decode_rate as i64);
        }
        e.hint_us = self.db.store().drain_cost_hint_us();
        e.service = TimeDelta::from_seconds(e.first_cost + e.retry_cost + e.decode_cost)
            + TimeDelta::from_micros((e.backoff_us + e.hint_us) as i64);
        e.ready = e.start + e.service;
        self.busy_until = e.ready;
        // The presentation clock starts when the first element after the
        // anchor completes (a one-element startup buffer).
        if e.due.is_none() {
            self.sessions[idx].clock_base = Some(e.ready);
        }
        e.lateness = (e.ready - e.due.unwrap_or(e.ready)).max(TimeDelta::ZERO);
    }

    /// Stage 4 — the books: element, service and lateness metrics, and the
    /// element span's attribution attrs (worked out only under an enabled
    /// tracer).
    fn record_element(&mut self, idx: usize, e: &ElementOutcome) {
        let s = &mut self.sessions[idx];
        let ids = self.ids;
        let lateness_us = micros(e.lateness.seconds());
        s.stats.elements += 1;
        self.metrics.inc_at(ids.elements, 1);
        self.metrics
            .observe_at(ids.service, micros(e.service.seconds()) as u64);
        if e.lateness > TimeDelta::ZERO {
            s.stats.misses += 1;
            self.metrics.inc_at(ids.misses, 1);
            // Recorded by fidelity — the telemetry plane's split: degraded
            // sessions' lateness is a different population (base-layer-only
            // admissions under pressure), and queries like "p99 lateness
            // for degraded sessions" need the two apart. `stats()` merges
            // them back into the total.
            let by_fidelity = if s.plan.layers_cap.is_some() {
                ids.lateness_degraded
            } else {
                ids.lateness_full
            };
            self.metrics.observe_at(by_fidelity, lateness_us as u64);
            s.stats.max_lateness = s.stats.max_lateness.max(e.lateness);
        }
        self.metrics
            .set_gauge_at(ids.cache_bytes, self.cache.bytes_cached() as i64);

        let read_from_store = e.bytes_first + e.bytes_retry > 0;
        let traced = self.tracer.is_enabled();
        if read_from_store || traced {
            // The failover share of the hint is split out so miss
            // attribution can rank tier failover separately from plain
            // storage latency; the sum (and hence the timing) is unchanged.
            let storage_us = micros(e.first_cost) + e.hint_us.saturating_sub(e.failover_us) as i64;
            let retry_us = micros(e.retry_cost) + e.backoff_us as i64;
            if read_from_store {
                let read_us = storage_us + retry_us + e.failover_us as i64;
                self.metrics.observe_at(ids.read, read_us as u64);
            }
            if traced {
                // How long the element sat behind *other* traffic before
                // dispatch: channel wait beyond this session's own
                // anchor/pipeline position. The node-outage stall is split
                // out so a handoff-delayed element reads as `node-loss`,
                // not admission over-commit.
                let wait_base = s.play_time.max(s.last_ready);
                let waited = (e.natural_start - wait_base).max(TimeDelta::ZERO);
                let nodeloss_us = micros((e.start - e.natural_start).seconds());
                // Lateness carried over from the previous element's
                // overrun: the part of this miss that is inherited backlog,
                // not this element's own doing.
                let inherited_us = s.last_lateness_us.min(lateness_us).max(0);
                self.tracer.end_span_with(e.span, e.ready, |a| {
                    a.put("fate", e.fate.label());
                    a.put(ATTR_WAIT_US, micros(waited.seconds()));
                    a.put(ATTR_NODELOSS_US, nodeloss_us);
                    a.put(ATTR_STORAGE_US, storage_us);
                    a.put(ATTR_RETRY_US, retry_us);
                    a.put(ATTR_FAILOVER_US, e.failover_us as i64);
                    a.put(ATTR_DECODE_US, micros(e.decode_cost));
                    a.put(ATTR_INHERITED_US, inherited_us);
                    a.put(ATTR_LATENESS_US, lateness_us);
                });
            }
        }
        s.last_ready = e.ready;
        s.last_lateness_us = lateness_us;
    }
}
