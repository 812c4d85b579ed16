//! Tiered storage with failover, circuit breakers and self-healing reads.
//!
//! [`TieredBlobStore`] stacks any number of [`BlobStore`]s fastest-first —
//! canonically memory over file over "remote" (a wrapped store with seeded
//! injected latency and a [`FaultPlan`](crate::FaultPlan)) — behind the
//! ordinary store interface, so the interpretation layer and the server
//! above it never learn how many backends exist. Writes go through to every
//! tier (spans stay identical across the stack); reads walk the stack under
//! four policies:
//!
//! * **Circuit breakers.** Each tier carries a breaker: *closed* →
//!   *open* after `fault_threshold` consecutive faults → *half-open* probe
//!   once `cooldown_us` of **simulated** time has passed (the driver
//!   advances the clock via [`BlobStore::set_sim_now`]). An open breaker
//!   takes the tier out of the read path, so a blacked-out backend costs
//!   at most `fault_threshold` timeouts before traffic routes around it.
//! * **Deadline-aware hedging.** A read that would blow its playback
//!   deadline on the selected tier (its estimated latency exceeds
//!   [`ReadCtx::deadline_slack_us`]) is hedged against the next tier up
//!   *even if that tier's breaker is open*: a successful probe closes the
//!   breaker early — self-healing bounds tail lateness instead of waiting
//!   out the cooldown on the slow path.
//! * **Verify-and-repair.** When the caller supplies
//!   [`ReadCtx::expected_crc`], bytes are checksummed per tier. A tier that
//!   fails verification is **repaired**: the span is re-materialized from
//!   the first healthy tier whose bytes verify, and the repaired copy
//!   serves all future reads of that span on the damaged tier. No read is
//!   ever served unverified when a checksum is available.
//! * **Promotion / demotion.** Tiers with a residency budget act as LRU
//!   caches of the stack below: verified reads from a slower tier promote
//!   the span into faster budgeted tiers, appends make new spans resident,
//!   and the byte budget demotes the least-recently-used spans.
//!
//! All decisions are pure functions of the request sequence, the simulated
//! clock and the wrapped stores' seeds — same-seed runs are byte-identical,
//! including through outages, hedges and repairs. Scripted outage
//! ([`TieredBlobStore::with_outage`]) and brownout
//! ([`TieredBlobStore::with_brownout`]) windows make "the remote goes dark
//! mid-run" a reproducible experiment rather than an anecdote.

use crate::{
    BlobError, BlobStore, ByteSpan, FaultPlan, FaultyBlobStore, LruSlab, MemBlobStore, ReadCtx,
    SpanKey as Key,
};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use tbm_core::{crc32, BlobId};
use tbm_obs::{Category, SpanId, Tracer};
use tbm_time::{TimeDelta, TimePoint};

/// The state of a [`Breaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow through.
    Closed,
    /// Tripped: calls are held back until the cooldown ends (a tier's
    /// deadline-pressed hedge may still probe it early).
    Open,
    /// Cooldown expired: the next call is a probe; success closes the
    /// breaker, failure re-arms it.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// A circuit breaker on the simulated clock — one per storage tier here,
/// one per node in `tbm-serve`'s fleet. *Closed* while calls succeed; opens
/// after `threshold` consecutive failures; *half-open* once `cooldown` has
/// passed, when one success closes it again. Only closed → open counts a
/// trip: a failure while open or half-open re-arms the cooldown.
#[derive(Debug, Clone)]
pub struct Breaker {
    state: BreakerState,
    /// When an open breaker turns half-open.
    until: TimePoint,
    consecutive: u32,
    threshold: u32,
    cooldown: TimeDelta,
    trips: u64,
}

impl Breaker {
    /// A closed breaker tripping after `threshold` (at least 1)
    /// consecutive failures, with `cooldown` before a half-open probe.
    pub fn new(threshold: u32, cooldown: TimeDelta) -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            until: TimePoint::ZERO,
            consecutive: 0,
            threshold: threshold.max(1),
            cooldown,
            trips: 0,
        }
    }

    /// Whether a call may go through at `now`. An open breaker whose
    /// cooldown has expired turns half-open and lets a probe through.
    pub fn allows(&mut self, now: TimePoint) -> bool {
        if self.state == BreakerState::Open && now >= self.until {
            self.state = BreakerState::HalfOpen;
        }
        self.state != BreakerState::Open
    }

    /// Records a success; `true` when this closed an open or half-open
    /// breaker (the guarded resource just healed).
    pub fn on_success(&mut self) -> bool {
        let healed = self.state != BreakerState::Closed;
        self.state = BreakerState::Closed;
        self.consecutive = 0;
        healed
    }

    /// Records a failure at `now`; `true` when this tripped the breaker
    /// (closed → open).
    pub fn on_failure(&mut self, now: TimePoint) -> bool {
        self.consecutive += 1;
        let trips = self.state == BreakerState::Closed && self.consecutive >= self.threshold;
        if trips || self.state != BreakerState::Closed {
            self.state = BreakerState::Open;
            self.until = now + self.cooldown;
        }
        self.trips += u64::from(trips);
        trips
    }

    /// The current state (an expired cooldown shows as open until the
    /// next [`Breaker::allows`]).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Closed → open transitions so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

/// Per-tier tuning: nominal latency, breaker thresholds and an optional
/// residency budget.
#[derive(Debug, Clone, Copy)]
pub struct TierConfig {
    /// Display name ("mem", "file", "remote", …) used in traces and stats.
    pub name: &'static str,
    /// Nominal per-read latency charged as a cost hint, in microseconds.
    pub read_latency_us: u64,
    /// Consecutive faults that trip the breaker.
    pub fault_threshold: u32,
    /// Breaker cooldown before a half-open probe, in simulated µs.
    pub cooldown_us: u64,
    /// LRU residency budget in bytes; `None` means the tier holds every
    /// span (a full backing tier rather than a cache tier).
    pub residency_budget: Option<u64>,
}

impl TierConfig {
    /// A full (unbudgeted) tier with the given name and nominal latency,
    /// a 3-fault breaker and a 20ms cooldown.
    pub fn new(name: &'static str, read_latency_us: u64) -> TierConfig {
        TierConfig {
            name,
            read_latency_us,
            fault_threshold: 3,
            cooldown_us: 20_000,
            residency_budget: None,
        }
    }

    /// Sets the breaker's fault threshold and cooldown.
    pub fn with_breaker(mut self, fault_threshold: u32, cooldown_us: u64) -> TierConfig {
        self.fault_threshold = fault_threshold.max(1);
        self.cooldown_us = cooldown_us;
        self
    }

    /// Makes the tier an LRU cache of the tiers below it, holding at most
    /// `bytes` of resident spans.
    pub fn with_residency_budget(mut self, bytes: u64) -> TierConfig {
        self.residency_budget = Some(bytes);
        self
    }
}

/// LRU residency bookkeeping for a budgeted tier: which spans the tier is
/// deemed to hold, in the shared [`LruSlab`] with no payload.
#[derive(Debug, Default)]
pub(crate) struct Residency {
    lru: LruSlab<()>,
}

impl Residency {
    /// Bytes currently resident.
    pub(crate) fn used(&self) -> u64 {
        self.lru.bytes()
    }

    pub(crate) fn contains(&self, key: &Key) -> bool {
        self.lru.contains(key)
    }

    /// Refreshes recency; `true` if the span was resident.
    pub(crate) fn touch(&mut self, key: Key) -> bool {
        self.lru.touch(&key).is_some()
    }

    /// Makes the span resident, demoting LRU spans past the budget.
    /// Returns the number of demotions.
    pub(crate) fn insert(&mut self, key: Key, len: u64, budget: u64) -> u64 {
        if self.touch(key) {
            return 0;
        }
        if len > budget {
            return 0; // would evict the whole tier for one span
        }
        self.lru.insert(key, len, ());
        self.lru.evict_to(budget)
    }
}

/// A set of tier indices as a bitmask: what a read keeps its holders, its
/// breaker-allowed, hedged and checksum-failed tiers in, so the tier walk
/// allocates nothing. Iteration is ascending — fastest tier first.
#[derive(Debug, Clone, Copy, Default)]
struct TierSet(u64);

impl TierSet {
    /// The most tiers a stack can have (one bit each).
    const MAX_TIERS: usize = u64::BITS as usize;

    fn insert(&mut self, ti: usize) {
        self.0 |= 1 << ti;
    }

    fn contains(self, ti: usize) -> bool {
        self.0 >> ti & 1 != 0
    }

    fn is_empty(self) -> bool {
        self.0 == 0
    }

    fn first(self) -> Option<usize> {
        self.iter().next()
    }

    fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let ti = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
            bits &= bits - 1;
            Some(ti)
        })
    }
}

impl FromIterator<usize> for TierSet {
    fn from_iter<I: IntoIterator<Item = usize>>(tiers: I) -> TierSet {
        let mut set = TierSet::default();
        tiers.into_iter().for_each(|ti| set.insert(ti));
        set
    }
}

struct Tier {
    config: TierConfig,
    store: Box<dyn BlobStore>,
    breaker: RefCell<Breaker>,
    /// The `tier.outage` span an open breaker keeps until it heals.
    outage_span: Cell<SpanId>,
    resident: RefCell<Residency>,
    patches: RefCell<HashMap<Key, Vec<u8>>>,
    outages: Vec<(TimePoint, TimePoint)>,
    brownouts: Vec<(TimePoint, TimePoint, u64)>,
    serves: Cell<u64>,
    attempts: Cell<u64>,
    faults: Cell<u64>,
    crc_failures: Cell<u64>,
    repairs: Cell<u64>,
    hedged_probes: Cell<u64>,
    promotions: Cell<u64>,
    demotions: Cell<u64>,
}

impl Tier {
    fn in_outage(&self, now: TimePoint) -> bool {
        self.outages
            .iter()
            .any(|&(from, until)| from <= now && now < until)
    }

    fn brownout_extra_us(&self, now: TimePoint) -> u64 {
        self.brownouts
            .iter()
            .filter(|&&(from, until, _)| from <= now && now < until)
            .map(|&(_, _, extra)| extra)
            .sum()
    }

    /// What a read from this tier is expected to cost right now, in µs.
    fn est_latency_us(&self, now: TimePoint) -> u64 {
        self.config.read_latency_us + self.brownout_extra_us(now)
    }

    /// Whether this tier can serve the span on the fast path: budgeted
    /// tiers only hold what residency (or a repair patch) says they hold.
    fn holds(&self, key: &Key, blob: BlobId) -> bool {
        if self.patches.borrow().contains_key(key) {
            return true;
        }
        match self.config.residency_budget {
            None => self.store.contains(blob),
            Some(_) => self.resident.borrow().contains(key),
        }
    }

    fn bump(counter: &Cell<u64>) {
        counter.set(counter.get() + 1);
    }
}

/// A point-in-time snapshot of one tier's counters and breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierStats {
    /// The tier's configured name.
    pub name: &'static str,
    /// Reads this tier served (verified where a checksum was given).
    pub serves: u64,
    /// Read attempts routed at this tier (including failed ones).
    pub attempts: u64,
    /// Failed attempts: I/O errors, outage timeouts and checksum failures.
    pub faults: u64,
    /// Attempts whose bytes failed checksum verification.
    pub crc_failures: u64,
    /// Spans re-materialized *into* this tier from a healthy sibling.
    pub repairs: u64,
    /// Times the breaker tripped closed → open.
    pub breaker_opens: u64,
    /// Deadline-pressed probes sent at this tier while its breaker was open.
    pub hedged_probes: u64,
    /// Spans promoted into this tier's residency after a slower-tier read.
    pub promotions: u64,
    /// Spans demoted out of residency by the byte budget.
    pub demotions: u64,
    /// Bytes currently resident (budgeted tiers; 0 for full tiers).
    pub resident_bytes: u64,
    /// Current breaker state.
    pub state: BreakerState,
}

/// A fastest-first stack of BLOB stores behind one [`BlobStore`] interface.
///
/// Reads walk the tiers that hold the span fastest-first, skipping tiers
/// whose circuit breaker is open (unless deadline pressure hedges a probe
/// or every holder is blocked, in which case the attempt is forced);
/// checksum-verified bytes repair any tier that returned corruption, and
/// budgeted tiers keep an LRU residency of promoted spans.
pub struct TieredBlobStore {
    tiers: Vec<Tier>,
    hedging: bool,
    sim_now: Cell<TimePoint>,
    tracer: Tracer,
    cost_hint_us: Cell<u64>,
    failover_hint_us: Cell<u64>,
    repair_events: Cell<u64>,
    reads: Cell<u64>,
    failover_reads: Cell<u64>,
    hedged_reads: Cell<u64>,
}

impl fmt::Debug for TieredBlobStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("TieredBlobStore");
        for tier in &self.tiers {
            d.field(tier.config.name, &tier.breaker.borrow().state());
        }
        d.field("reads", &self.reads.get())
            .field("failover_reads", &self.failover_reads.get())
            .field("hedged_reads", &self.hedged_reads.get())
            .finish()
    }
}

impl Default for TieredBlobStore {
    fn default() -> Self {
        TieredBlobStore::new()
    }
}

impl TieredBlobStore {
    /// An empty stack; add tiers fastest-first with
    /// [`TieredBlobStore::with_tier`].
    pub fn new() -> TieredBlobStore {
        TieredBlobStore {
            tiers: Vec::new(),
            hedging: true,
            sim_now: Cell::new(TimePoint::ZERO),
            tracer: Tracer::disabled(),
            cost_hint_us: Cell::new(0),
            failover_hint_us: Cell::new(0),
            repair_events: Cell::new(0),
            reads: Cell::new(0),
            failover_reads: Cell::new(0),
            hedged_reads: Cell::new(0),
        }
    }

    /// The canonical three-tier demo stack: a budgeted in-memory cache tier
    /// over a full local tier over a full "remote" tier wrapping a
    /// [`FaultyBlobStore`] driven by `remote_plan`.
    pub fn mem_file_remote(remote_plan: FaultPlan, mem_budget: u64) -> TieredBlobStore {
        TieredBlobStore::new()
            .with_tier(
                TierConfig::new("mem", 20)
                    .with_breaker(4, 5_000)
                    .with_residency_budget(mem_budget),
                MemBlobStore::new(),
            )
            .with_tier(
                TierConfig::new("file", 150).with_breaker(4, 10_000),
                MemBlobStore::new(),
            )
            .with_tier(
                TierConfig::new("remote", 2_000).with_breaker(3, 20_000),
                FaultyBlobStore::new(MemBlobStore::new(), remote_plan),
            )
    }

    /// Appends a tier below the existing ones (tiers are fastest-first).
    ///
    /// Every tier must start in byte-identical state (normally: empty) —
    /// write-through appends keep spans aligned across the stack from then
    /// on.
    pub fn with_tier(mut self, config: TierConfig, store: impl BlobStore + 'static) -> Self {
        assert!(
            self.tiers.len() < TierSet::MAX_TIERS,
            "a tiered store stacks at most {} tiers",
            TierSet::MAX_TIERS
        );
        self.tiers.push(Tier {
            breaker: RefCell::new(Breaker::new(
                config.fault_threshold,
                TimeDelta::from_micros(config.cooldown_us as i64),
            )),
            outage_span: Cell::new(SpanId::NONE),
            config,
            store: Box::new(store),
            resident: RefCell::new(Residency::default()),
            patches: RefCell::new(HashMap::new()),
            outages: Vec::new(),
            brownouts: Vec::new(),
            serves: Cell::new(0),
            attempts: Cell::new(0),
            faults: Cell::new(0),
            crc_failures: Cell::new(0),
            repairs: Cell::new(0),
            hedged_probes: Cell::new(0),
            promotions: Cell::new(0),
            demotions: Cell::new(0),
        });
        self
    }

    /// Attaches a tracer: breaker trips become `tier.outage` spans, and
    /// failovers, hedges and repairs become instant events on the shared
    /// simulated timeline.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Enables or disables deadline-aware hedging (on by default). With it
    /// off, an open breaker is only re-probed after its full cooldown.
    pub fn with_hedging(mut self, hedging: bool) -> Self {
        self.hedging = hedging;
        self
    }

    /// Scripts a blackout of tier `tier` over `[from, until)` in simulated
    /// time: every read attempt routed at it times out.
    pub fn with_outage(mut self, tier: usize, from: TimePoint, until: TimePoint) -> Self {
        self.tiers[tier].outages.push((from, until));
        self
    }

    /// Scripts a brownout of tier `tier` over `[from, until)`: reads still
    /// succeed but cost an extra `extra_us` microseconds each.
    pub fn with_brownout(
        mut self,
        tier: usize,
        from: TimePoint,
        until: TimePoint,
        extra_us: u64,
    ) -> Self {
        self.tiers[tier].brownouts.push((from, until, extra_us));
        self
    }

    /// Number of tiers in the stack.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// The current breaker state of tier `tier`, if it exists.
    pub fn breaker_state(&self, tier: usize) -> Option<BreakerState> {
        self.tiers.get(tier).map(|t| t.breaker.borrow().state())
    }

    /// Snapshots every tier's counters, fastest-first.
    pub fn tier_stats(&self) -> Vec<TierStats> {
        self.tiers
            .iter()
            .map(|t| TierStats {
                name: t.config.name,
                serves: t.serves.get(),
                attempts: t.attempts.get(),
                faults: t.faults.get(),
                crc_failures: t.crc_failures.get(),
                repairs: t.repairs.get(),
                breaker_opens: t.breaker.borrow().trips(),
                hedged_probes: t.hedged_probes.get(),
                promotions: t.promotions.get(),
                demotions: t.demotions.get(),
                resident_bytes: t.resident.borrow().used(),
                state: t.breaker.borrow().state(),
            })
            .collect()
    }

    /// Total reads served from a slower tier than the fastest holder (the
    /// stack's failover count).
    pub fn failover_reads(&self) -> u64 {
        self.failover_reads.get()
    }

    /// Total reads that won by hedging an open breaker under deadline
    /// pressure.
    pub fn hedged_reads(&self) -> u64 {
        self.hedged_reads.get()
    }

    fn charge(&self, us: u64, failover: bool) {
        self.cost_hint_us.set(self.cost_hint_us.get() + us);
        if failover {
            self.failover_hint_us.set(self.failover_hint_us.get() + us);
        }
    }

    fn event(&self, name: &'static str, attrs: Vec<(&'static str, tbm_obs::AttrValue)>) {
        self.tracer.event(
            name,
            Category::Tier,
            self.sim_now.get(),
            SpanId::NONE,
            None,
            attrs,
        );
    }

    /// One read attempt against one tier: outage gate, repair-patch
    /// overlay, the tier's own store, then checksum verification.
    fn attempt_tier(
        &self,
        ti: usize,
        blob: BlobId,
        span: ByteSpan,
        buf: &mut [u8],
        ctx: &ReadCtx,
        now: TimePoint,
    ) -> Result<u64, (BlobError, u64, bool)> {
        let tier = &self.tiers[ti];
        if tier.in_outage(now) {
            return Err((
                BlobError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "tier '{}' is dark: read of {blob} timed out",
                        tier.config.name
                    ),
                )),
                0,
                false,
            ));
        }
        let key = (blob.raw(), span.offset, span.len);
        if let Some(patch) = tier.patches.borrow().get(&key) {
            if patch.len() == buf.len() {
                buf.copy_from_slice(patch);
                return Ok(0);
            }
        }
        match tier.store.read_into_attempt(blob, span, buf, ctx.attempt) {
            Err(e) => Err((e, tier.store.drain_cost_hint_us(), false)),
            Ok(()) => {
                let inner_hint = tier.store.drain_cost_hint_us();
                if let Some(expect) = ctx.expected_crc {
                    if crc32(buf) != expect {
                        return Err((
                            BlobError::Io(std::io::Error::new(
                                std::io::ErrorKind::InvalidData,
                                format!(
                                    "tier '{}' failed checksum for {blob} at {}+{}",
                                    tier.config.name, span.offset, span.len
                                ),
                            )),
                            inner_hint,
                            true,
                        ));
                    }
                }
                Ok(inner_hint)
            }
        }
    }

    fn record_failure(&self, ti: usize, now: TimePoint, crc: bool) {
        let tier = &self.tiers[ti];
        Tier::bump(&tier.faults);
        if crc {
            Tier::bump(&tier.crc_failures);
        }
        let tripped = tier.breaker.borrow_mut().on_failure(now);
        if tripped {
            let span = self.tracer.begin_span_with(
                "tier.outage",
                Category::Tier,
                now,
                SpanId::NONE,
                None,
                |a| a.put("tier", tier.config.name),
            );
            tier.outage_span.set(span);
            self.event(
                "tier.breaker_open",
                vec![
                    ("tier", tier.config.name.into()),
                    ("cooldown_us", tier.config.cooldown_us.into()),
                ],
            );
        }
    }

    fn record_success(&self, ti: usize, now: TimePoint) {
        let tier = &self.tiers[ti];
        Tier::bump(&tier.serves);
        let healed = tier.breaker.borrow_mut().on_success();
        if healed {
            self.tracer
                .end_span(tier.outage_span.replace(SpanId::NONE), now);
            self.event(
                "tier.breaker_close",
                vec![("tier", tier.config.name.into())],
            );
        }
    }

    /// The full tiered read: holder selection, breaker gating, hedging,
    /// fallback, verification, repair and promotion.
    fn tiered_read(
        &self,
        blob: BlobId,
        span: ByteSpan,
        buf: &mut [u8],
        ctx: &ReadCtx,
    ) -> Result<(), BlobError> {
        let now = self.sim_now.get();
        Tier::bump(&self.reads);
        let key = (blob.raw(), span.offset, span.len);

        // Fast-path holders: full tiers that contain the blob, budgeted
        // tiers with the span resident or patched. If residency filtered
        // everyone out, fall back to any tier that has the bytes at all.
        let mut holders: TierSet = (0..self.tiers.len())
            .filter(|&i| self.tiers[i].holds(&key, blob))
            .collect();
        if holders.is_empty() {
            holders = (0..self.tiers.len())
                .filter(|&i| self.tiers[i].store.contains(blob))
                .collect();
        }
        let Some(fastest_holder) = holders.first() else {
            return Err(BlobError::NotFound(blob));
        };

        let allowed: TierSet = holders
            .iter()
            .filter(|&i| self.tiers[i].breaker.borrow_mut().allows(now))
            .collect();
        let forced = allowed.is_empty();
        let base_order = if forced { holders } else { allowed };
        let primary = base_order.first().expect("holders is not empty");

        // Deadline pressure: if the tier we are about to use cannot make
        // the deadline, probe faster breaker-blocked holders first.
        let mut hedged = TierSet::default();
        if self.hedging && !forced {
            if let Some(slack) = ctx.deadline_slack_us {
                if self.tiers[primary].est_latency_us(now) > slack {
                    hedged = holders
                        .iter()
                        .filter(|&i| i < primary && !base_order.contains(i))
                        .collect();
                }
            }
        }
        let try_order = hedged.iter().chain(base_order.iter());

        let mut crc_failed = TierSet::default();
        let mut last_err: Option<BlobError> = None;
        for ti in try_order {
            let tier = &self.tiers[ti];
            let is_hedge = hedged.contains(ti);
            if is_hedge {
                Tier::bump(&tier.hedged_probes);
                self.event("tier.hedge", vec![("tier", tier.config.name.into())]);
            }
            Tier::bump(&tier.attempts);
            let est = tier.est_latency_us(now);
            match self.attempt_tier(ti, blob, span, buf, ctx, now) {
                Ok(inner_hint) => {
                    let failover = ti != fastest_holder;
                    self.charge(est + inner_hint, failover);
                    self.record_success(ti, now);
                    if is_hedge {
                        Tier::bump(&self.hedged_reads);
                    }
                    if failover {
                        Tier::bump(&self.failover_reads);
                        self.event(
                            "tier.failover",
                            vec![
                                ("from", self.tiers[fastest_holder].config.name.into()),
                                ("to", tier.config.name.into()),
                                ("blob", blob.raw().into()),
                                ("offset", span.offset.into()),
                            ],
                        );
                    }
                    if tier.config.residency_budget.is_some() {
                        tier.resident.borrow_mut().touch(key);
                    }
                    self.repair_and_promote(ti, key, span, buf, ctx, crc_failed);
                    return Ok(());
                }
                Err((err, inner_hint, crc)) => {
                    self.charge(est + inner_hint, true);
                    self.record_failure(ti, now, crc);
                    if crc {
                        crc_failed.insert(ti);
                    }
                    last_err = Some(err);
                }
            }
        }
        Err(last_err.unwrap_or(BlobError::NotFound(blob)))
    }

    /// After a verified read: re-materialize the span on tiers whose bytes
    /// failed checksum, and promote it into faster budgeted tiers.
    fn repair_and_promote(
        &self,
        served: usize,
        key: Key,
        span: ByteSpan,
        buf: &[u8],
        ctx: &ReadCtx,
        crc_failed: TierSet,
    ) {
        // Repair needs proof the bytes are good: only with a checksum.
        let verified = ctx.expected_crc.is_some();
        if verified && !crc_failed.is_empty() {
            for ci in crc_failed.iter() {
                let tier = &self.tiers[ci];
                tier.patches.borrow_mut().insert(key, buf.to_vec());
                Tier::bump(&tier.repairs);
                self.event(
                    "tier.repair",
                    vec![
                        ("tier", tier.config.name.into()),
                        ("source", self.tiers[served].config.name.into()),
                        ("blob", key.0.into()),
                        ("offset", span.offset.into()),
                    ],
                );
            }
            self.repair_events.set(self.repair_events.get() + 1);
        }
        if verified {
            for ti in 0..served {
                let tier = &self.tiers[ti];
                let Some(budget) = tier.config.residency_budget else {
                    continue;
                };
                if crc_failed.contains(ti) {
                    continue; // its own copy is bad; the patch already fixed it
                }
                let demoted = tier.resident.borrow_mut().insert(key, span.len, budget);
                if tier.resident.borrow().contains(&key) {
                    Tier::bump(&tier.promotions);
                }
                tier.demotions.set(tier.demotions.get() + demoted);
            }
        }
    }
}

impl BlobStore for TieredBlobStore {
    fn create(&mut self) -> Result<BlobId, BlobError> {
        let mut id = None;
        for tier in &mut self.tiers {
            let created = tier.store.create()?;
            debug_assert!(
                id.is_none() || id == Some(created),
                "tiers diverged on blob-id assignment"
            );
            id = Some(created);
        }
        id.ok_or(BlobError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "tiered store has no tiers",
        )))
    }

    fn append(&mut self, blob: BlobId, data: &[u8]) -> Result<ByteSpan, BlobError> {
        let mut span = None;
        for tier in &mut self.tiers {
            let written = tier.store.append(blob, data)?;
            debug_assert!(
                span.is_none() || span == Some(written),
                "tiers diverged on span placement"
            );
            span = Some(written);
        }
        let span = span.ok_or(BlobError::NotFound(blob))?;
        // Fresh appends are hot: make them resident in budgeted tiers.
        let key = (blob.raw(), span.offset, span.len);
        for tier in &self.tiers {
            if let Some(budget) = tier.config.residency_budget {
                let demoted = tier.resident.borrow_mut().insert(key, span.len, budget);
                tier.demotions.set(tier.demotions.get() + demoted);
            }
        }
        Ok(span)
    }

    fn read_into(&self, blob: BlobId, span: ByteSpan, buf: &mut [u8]) -> Result<(), BlobError> {
        self.tiered_read(blob, span, buf, &ReadCtx::default())
    }

    fn read_into_attempt(
        &self,
        blob: BlobId,
        span: ByteSpan,
        buf: &mut [u8],
        attempt: u32,
    ) -> Result<(), BlobError> {
        self.tiered_read(blob, span, buf, &ReadCtx::attempt(attempt))
    }

    fn read_into_ctx(
        &self,
        blob: BlobId,
        span: ByteSpan,
        buf: &mut [u8],
        ctx: &ReadCtx,
    ) -> Result<(), BlobError> {
        self.tiered_read(blob, span, buf, ctx)
    }

    fn drain_cost_hint_us(&self) -> u64 {
        self.cost_hint_us.replace(0)
    }

    fn drain_failover_hint_us(&self) -> u64 {
        self.failover_hint_us.replace(0)
    }

    fn drain_repairs(&self) -> u64 {
        self.repair_events.replace(0)
    }

    fn set_sim_now(&self, now: TimePoint) {
        self.sim_now.set(now);
        self.tracer.set_now(now);
    }

    fn health_percent(&self) -> u8 {
        if self.tiers.is_empty() {
            return 100;
        }
        let closed = self
            .tiers
            .iter()
            .filter(|t| matches!(t.breaker.borrow().state(), BreakerState::Closed))
            .count();
        let pct = (closed * 100 / self.tiers.len()) as u8;
        pct.max((100 / self.tiers.len()) as u8).max(1)
    }

    fn len(&self, blob: BlobId) -> Result<u64, BlobError> {
        match self.tiers.last() {
            Some(t) => t.store.len(blob),
            None => Err(BlobError::NotFound(blob)),
        }
    }

    fn contains(&self, blob: BlobId) -> bool {
        self.tiers.last().is_some_and(|t| t.store.contains(blob))
    }

    fn blob_ids(&self) -> Vec<BlobId> {
        self.tiers
            .last()
            .map(|t| t.store.blob_ids())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_transient;

    fn t_us(us: i64) -> TimePoint {
        TimePoint::ZERO + TimeDelta::from_micros(us)
    }

    /// A two-tier stack (fast full tier over slow full tier) seeded with
    /// `n` 64-byte spans; returns the store, blob, spans and checksums.
    fn two_tier(n: u32) -> (TieredBlobStore, BlobId, Vec<ByteSpan>, Vec<u32>) {
        let mut store = TieredBlobStore::new()
            .with_tier(
                TierConfig::new("fast", 50).with_breaker(3, 10_000),
                MemBlobStore::new(),
            )
            .with_tier(
                TierConfig::new("slow", 1_000).with_breaker(3, 10_000),
                MemBlobStore::new(),
            );
        let blob = store.create().unwrap();
        let mut spans = Vec::new();
        let mut crcs = Vec::new();
        for i in 0..n {
            let data = vec![i as u8; 64];
            spans.push(store.append(blob, &data).unwrap());
            crcs.push(crc32(&data));
        }
        (store, blob, spans, crcs)
    }

    #[test]
    fn write_through_keeps_tiers_aligned_and_reads_prefer_fastest() {
        let (store, blob, spans, _) = two_tier(10);
        for (i, span) in spans.iter().enumerate() {
            assert_eq!(store.read(blob, *span).unwrap(), vec![i as u8; 64]);
        }
        let stats = store.tier_stats();
        assert_eq!(stats[0].serves, 10, "all reads hit the fast tier");
        assert_eq!(stats[1].serves, 0);
        assert_eq!(store.failover_reads(), 0);
        assert_eq!(store.drain_failover_hint_us(), 0);
        assert!(store.drain_cost_hint_us() >= 10 * 50);
        assert_eq!(store.len(blob).unwrap(), 640);
        assert!(store.contains(blob));
        assert_eq!(store.blob_ids(), vec![blob]);
    }

    #[test]
    fn outage_trips_breaker_fails_over_and_heals_after_cooldown() {
        let (store, blob, spans, _) = two_tier(10);
        let store = store.with_outage(0, t_us(0), t_us(50_000));
        let mut buf = vec![0u8; 64];

        // During the outage every read fails over to the slow tier; after
        // `fault_threshold` faults the fast tier stops being probed at all.
        for (i, span) in spans.iter().enumerate() {
            store.set_sim_now(t_us(i as i64 * 1_000));
            store.read_into(blob, *span, &mut buf).unwrap();
            assert_eq!(buf, vec![i as u8; 64]);
        }
        assert_eq!(store.breaker_state(0), Some(BreakerState::Open));
        let stats = store.tier_stats();
        assert_eq!(stats[0].faults, 3, "breaker capped the outage probes");
        assert_eq!(stats[0].breaker_opens, 1);
        assert_eq!(stats[1].serves, 10);
        assert_eq!(store.failover_reads(), 10);
        assert!(store.drain_failover_hint_us() > 0);

        // Past the outage and the cooldown, the half-open probe heals it.
        store.set_sim_now(t_us(60_000));
        store.read_into(blob, spans[0], &mut buf).unwrap();
        assert_eq!(store.breaker_state(0), Some(BreakerState::Closed));
        assert_eq!(store.tier_stats()[0].serves, 1);
    }

    #[test]
    fn outage_errors_are_transient_for_retry_purposes() {
        let mut store =
            TieredBlobStore::new().with_tier(TierConfig::new("only", 100), MemBlobStore::new());
        let blob = store.create().unwrap();
        let span = store.append(blob, &[7u8; 16]).unwrap();
        let store = store.with_outage(0, t_us(0), t_us(1_000));
        store.set_sim_now(t_us(10));
        let mut buf = vec![0u8; 16];
        let err = store.read_into(blob, span, &mut buf).unwrap_err();
        assert!(is_transient(&err), "outage timeouts should be retryable");
    }

    #[test]
    fn crc_failure_is_repaired_from_healthy_tier_and_patch_sticks() {
        // Fast tier corrupts every read; slow tier is clean.
        let mut store = TieredBlobStore::new()
            .with_tier(
                TierConfig::new("fast", 50),
                FaultyBlobStore::new(MemBlobStore::new(), FaultPlan::new(9).with_corruption(1.0)),
            )
            .with_tier(TierConfig::new("slow", 1_000), MemBlobStore::new());
        let blob = store.create().unwrap();
        let data = vec![0xABu8; 128];
        let span = store.append(blob, &data).unwrap();
        let crc = crc32(&data);

        let ctx = ReadCtx {
            expected_crc: Some(crc),
            ..ReadCtx::default()
        };
        let mut buf = vec![0u8; 128];
        store.read_into_ctx(blob, span, &mut buf, &ctx).unwrap();
        assert_eq!(buf, data, "the served bytes verified against the checksum");
        assert_eq!(store.drain_repairs(), 1);
        let stats = store.tier_stats();
        assert_eq!(stats[0].crc_failures, 1);
        assert_eq!(stats[0].repairs, 1, "fast tier was re-materialized");
        assert_eq!(stats[1].serves, 1);

        // The repaired copy now serves the fast path — no more failover.
        let mut buf2 = vec![0u8; 128];
        store.read_into_ctx(blob, span, &mut buf2, &ctx).unwrap();
        assert_eq!(buf2, data);
        assert_eq!(store.drain_repairs(), 0);
        let stats = store.tier_stats();
        assert_eq!(stats[0].serves, 1, "patched span serves locally");
        assert_eq!(stats[1].serves, 1, "slow tier not consulted again");
    }

    #[test]
    fn unverified_reads_are_never_served_when_checksum_is_known() {
        // Both tiers corrupt: the read must fail rather than return bytes
        // that do not verify.
        let mut store = TieredBlobStore::new()
            .with_tier(
                TierConfig::new("a", 50),
                FaultyBlobStore::new(MemBlobStore::new(), FaultPlan::new(1).with_corruption(1.0)),
            )
            .with_tier(
                TierConfig::new("b", 100),
                FaultyBlobStore::new(MemBlobStore::new(), FaultPlan::new(2).with_corruption(1.0)),
            );
        let blob = store.create().unwrap();
        let data = vec![0x5Au8; 64];
        let span = store.append(blob, &data).unwrap();
        let ctx = ReadCtx {
            expected_crc: Some(crc32(&data)),
            ..ReadCtx::default()
        };
        let mut buf = vec![0u8; 64];
        assert!(store.read_into_ctx(blob, span, &mut buf, &ctx).is_err());
        assert_eq!(store.drain_repairs(), 0);
    }

    #[test]
    fn hedging_closes_a_lingering_breaker_under_deadline_pressure() {
        let mk = |hedging: bool| {
            let (store, blob, spans, crcs) = two_tier(4);
            // Fast tier dark for 10ms; slow tier browned out for 100ms.
            let store = store
                .with_hedging(hedging)
                .with_outage(0, t_us(0), t_us(10_000))
                .with_brownout(1, t_us(0), t_us(100_000), 20_000);
            let mut buf = vec![0u8; 64];
            // Trip the fast tier's breaker during its outage.
            for i in 0..4 {
                store.set_sim_now(t_us(i * 1_000));
                let ctx = ReadCtx {
                    expected_crc: Some(crcs[i as usize]),
                    ..ReadCtx::default()
                };
                store
                    .read_into_ctx(blob, spans[i as usize], &mut buf, &ctx)
                    .unwrap();
            }
            assert_eq!(store.breaker_state(0), Some(BreakerState::Open));
            // The outage is over at 10ms but the cooldown runs to ~13ms.
            // At 11ms a deadline-pressed read cannot afford the browned
            // slow tier (21ms est > 5ms slack).
            store.set_sim_now(t_us(11_000));
            let ctx = ReadCtx {
                deadline_slack_us: Some(5_000),
                expected_crc: Some(crcs[0]),
                ..ReadCtx::default()
            };
            store.read_into_ctx(blob, spans[0], &mut buf, &ctx).unwrap();
            (store.breaker_state(0).unwrap(), store.hedged_reads())
        };

        let (state, hedged) = mk(true);
        assert_eq!(state, BreakerState::Closed, "hedge probe healed the tier");
        assert_eq!(hedged, 1);

        let (state, hedged) = mk(false);
        assert_eq!(state, BreakerState::Open, "no hedge: cooldown still runs");
        assert_eq!(hedged, 0);
    }

    #[test]
    fn residency_budget_promotes_and_demotes() {
        let mut store = TieredBlobStore::new()
            .with_tier(
                TierConfig::new("cache", 10).with_residency_budget(128),
                MemBlobStore::new(),
            )
            .with_tier(TierConfig::new("back", 500), MemBlobStore::new());
        let blob = store.create().unwrap();
        let mut spans = Vec::new();
        let mut crcs = Vec::new();
        for i in 0..4u8 {
            let data = vec![i; 64];
            spans.push(store.append(blob, &data).unwrap());
            crcs.push(crc32(&data));
        }
        // Budget holds two 64-byte spans: appends demoted the first two.
        let stats = store.tier_stats();
        assert_eq!(stats[0].demotions, 2);
        assert!(stats[0].resident_bytes <= 128);

        // Reading a demoted span falls through to the backing tier and
        // promotes it back into the cache tier.
        let ctx = ReadCtx {
            expected_crc: Some(crcs[0]),
            ..ReadCtx::default()
        };
        let mut buf = vec![0u8; 64];
        store.read_into_ctx(blob, spans[0], &mut buf, &ctx).unwrap();
        assert_eq!(buf, vec![0u8; 64]);
        let stats = store.tier_stats();
        assert_eq!(stats[1].serves, 1);
        assert_eq!(stats[0].promotions, 1);
        assert_eq!(store.failover_reads(), 0, "cache miss is not a failover");

        // Now resident: the next read is served by the cache tier.
        store.read_into_ctx(blob, spans[0], &mut buf, &ctx).unwrap();
        let stats = store.tier_stats();
        assert_eq!(stats[0].serves, 1);
        assert_eq!(stats[1].serves, 1);
    }

    #[test]
    fn health_percent_tracks_breaker_state() {
        let (store, blob, spans, _) = two_tier(6);
        assert_eq!(store.health_percent(), 100);
        let store = store.with_outage(0, t_us(0), t_us(50_000));
        let mut buf = vec![0u8; 64];
        for (i, span) in spans.iter().enumerate().take(4) {
            store.set_sim_now(t_us(i as i64 * 100));
            store.read_into(blob, *span, &mut buf).unwrap();
        }
        assert_eq!(store.breaker_state(0), Some(BreakerState::Open));
        assert_eq!(store.health_percent(), 50);
    }

    #[test]
    fn breaker_failure_while_open_rearms_the_cooldown() {
        let mut b = Breaker::new(2, TimeDelta::from_micros(100));
        assert!(!b.on_failure(t_us(0)));
        assert!(b.on_failure(t_us(10)), "the second failure trips");
        assert!(!b.on_failure(t_us(50)), "failing while open is no new trip");
        assert!(!b.allows(t_us(110)), "the cooldown now runs from 50");
        assert!(b.allows(t_us(150)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn breaker_failed_half_open_probe_rearms_without_a_trip() {
        let mut b = Breaker::new(1, TimeDelta::from_micros(100));
        assert!(b.on_failure(t_us(0)));
        assert!(b.allows(t_us(100)), "half-open after the cooldown");
        assert!(!b.on_failure(t_us(100)), "a failed probe is no new trip");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(
            !b.allows(t_us(150)),
            "the failed probe re-armed the cooldown"
        );
        assert!(b.allows(t_us(200)));
        assert!(b.on_success(), "a good probe heals");
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn same_script_same_outcome() {
        let run = || {
            let mut store = TieredBlobStore::mem_file_remote(
                FaultPlan::new(77)
                    .with_corruption(0.2)
                    .with_latency(0.3, 400),
                256,
            );
            let blob = store.create().unwrap();
            let mut spans = Vec::new();
            for i in 0..32u8 {
                spans.push(store.append(blob, &[i; 48]).unwrap());
            }
            let store = store.with_outage(1, t_us(3_000), t_us(9_000));
            let mut out = Vec::new();
            for (i, span) in spans.iter().enumerate() {
                store.set_sim_now(t_us(i as i64 * 500));
                let mut buf = vec![0u8; 48];
                let r = store.read_into(blob, *span, &mut buf);
                out.push((r.is_ok(), buf, store.drain_cost_hint_us()));
            }
            (out, store.tier_stats(), store.failover_reads())
        };
        assert_eq!(run(), run());
    }
}
