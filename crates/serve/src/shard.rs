//! Sharded catalogs: partition a media catalog across N [`MediaDb`] shards
//! and serve them behind one shard-aware front end.
//!
//! One catalog eventually saturates — one admission budget, one service
//! channel, one cache. [`ShardedDb`] splits the object namespace across N
//! independent [`MediaDb`]s by a *stable, seeded* hash of the object name
//! ([`shard_of`]), and [`ShardedServer`] puts a full [`Server`] — its own
//! [`Capacity`] budget, its own [`SegmentCache`], its own EDF channel — in
//! front of each shard, routing every request to the owner. This is the
//! single-process rehearsal of the multi-node layout the ROADMAP points
//! at: shard boundaries here are exactly the machine boundaries there.
//!
//! Three properties carry over from the single-catalog engine:
//!
//! * **Determinism.** Routing is a pure function of `(name, seed, N)`, and
//!   each shard is the same deterministic event loop it was standalone, so
//!   a sharded run is still a pure function of its request trace and fault
//!   seeds — same seed, byte-identical stats and traces.
//! * **Per-object timing.** A session only ever touches its owning shard's
//!   channel, cache and budget. Absent cross-session contention, an
//!   object's playback timing is identical at N=1 and N=4 (the §shards
//!   experiment asserts this bit-for-bit).
//! * **Accounting.** [`ShardedStats`] keeps per-shard [`ServerStats`]
//!   snapshots *and* a merged global view (exact histogram merges, so
//!   global p50/p99 lateness are as precise as a single server's). The
//!   fault invariant `faults == degraded + dropped + repaired` holds per
//!   shard and, by addition, globally.
//!
//! Hot-shard pathologies are observable: [`ShardedServer::metrics`] rolls
//! every shard's registry up under a `shard{i}.` prefix next to the
//! unprefixed global aggregate, plus a `shard.skew` gauge (percent the
//! hottest shard sits above the per-shard mean element load) for
//! rebalance-on-skew alerting.

use crate::pool::{run_round, RoundGoal};
use crate::{Capacity, Request, Response, ServeError, Server, ServerStats, Session, WorkerStats};
use std::fmt;
use std::io;
use tbm_blob::{BlobStore, MemBlobStore};
use tbm_core::{InterpretationId, SessionId};
use tbm_db::{DbError, MediaDb};
use tbm_interp::Interpretation;
use tbm_obs::{
    attribute, chrome_trace_to_writer, AttributionReport, MetricsRegistry, TraceSnapshot, Tracer,
};
use tbm_time::TimePoint;

/// Session-id stride between shards: shard `i` allocates ids from
/// `i * SHARD_SESSION_STRIDE`, so any session id names its owning shard by
/// division and ids never collide fleet-wide (traces included).
pub const SHARD_SESSION_STRIDE: u64 = 1 << 32;

/// The `shard.skew` gauge emitted by [`ShardedServer::metrics`].
const G_SHARD_SKEW: &str = "shard.skew";

/// The owning shard of `object` among `shards` shards: a seeded FNV-1a
/// hash of the name, reduced mod `shards`.
///
/// The hash is deliberately self-contained (no `std::hash::Hasher`, whose
/// output Rust does not pin across versions): placement must be stable
/// across processes, platforms and releases, because it *is* the routing
/// table. The seed lets two deployments of the same catalog shard
/// differently.
pub fn shard_of(object: &str, seed: u64, shards: usize) -> usize {
    assert!(shards > 0, "a sharded catalog needs at least one shard");
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in object.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Why a registration could not be placed on a shard.
#[derive(Debug)]
pub enum ShardError {
    /// The interpretation has no streams, so there is no name to route by.
    NoStreams,
    /// Two streams of one interpretation hash to different shards. Streams
    /// of one interpretation share a BLOB and must co-locate; capture them
    /// separately (or pick a seed under which they agree).
    Straddles {
        /// The first stream's name (the would-be owner).
        first: String,
        /// The shard the first stream hashes to.
        first_shard: usize,
        /// The stream that disagrees.
        other: String,
        /// The shard the disagreeing stream hashes to.
        other_shard: usize,
    },
    /// The owning shard's catalog rejected the registration.
    Db(DbError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::NoStreams => {
                write!(f, "interpretation has no streams to route by")
            }
            ShardError::Straddles {
                first,
                first_shard,
                other,
                other_shard,
            } => write!(
                f,
                "streams straddle shards: {first:?} owns shard {first_shard} \
                 but {other:?} hashes to shard {other_shard}"
            ),
            ShardError::Db(e) => write!(f, "shard catalog rejected registration: {e}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DbError> for ShardError {
    fn from(e: DbError) -> ShardError {
        ShardError::Db(e)
    }
}

/// N independent [`MediaDb`] catalogs with object names partitioned by
/// [`shard_of`].
///
/// Each shard owns its own BLOB store: capture an object's bytes into
/// [`ShardedDb::store_for_mut`]`(name)` *before* registering its
/// interpretation, so the BLOB lives where the router will look for it.
#[derive(Debug)]
pub struct ShardedDb<S: BlobStore = MemBlobStore> {
    shards: Vec<MediaDb<S>>,
    seed: u64,
}

impl ShardedDb<MemBlobStore> {
    /// `shards` empty in-memory catalogs routed under `seed`.
    pub fn new(shards: usize, seed: u64) -> ShardedDb<MemBlobStore> {
        assert!(shards > 0, "a sharded catalog needs at least one shard");
        ShardedDb {
            shards: (0..shards).map(|_| MediaDb::new()).collect(),
            seed,
        }
    }
}

impl<S: BlobStore> ShardedDb<S> {
    /// One empty catalog per caller-provided store (e.g. a fault-injecting
    /// store per shard), routed under `seed`.
    pub fn with_stores(stores: Vec<S>, seed: u64) -> ShardedDb<S> {
        assert!(
            !stores.is_empty(),
            "a sharded catalog needs at least one shard"
        );
        ShardedDb {
            shards: stores.into_iter().map(MediaDb::with_store).collect(),
            seed,
        }
    }

    /// Adopts pre-built catalogs as shards. The caller asserts that every
    /// object already sits on its [`shard_of`] shard — misplaced objects
    /// are unreachable through a router using the same seed.
    pub fn from_shards(shards: Vec<MediaDb<S>>, seed: u64) -> ShardedDb<S> {
        assert!(
            !shards.is_empty(),
            "a sharded catalog needs at least one shard"
        );
        ShardedDb { shards, seed }
    }

    /// The routing seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `object` (pure hash; the object need not exist).
    pub fn shard_for(&self, object: &str) -> usize {
        shard_of(object, self.seed, self.shards.len())
    }

    /// A shard's catalog.
    pub fn shard(&self, i: usize) -> &MediaDb<S> {
        &self.shards[i]
    }

    /// The shards in order.
    pub fn shards(&self) -> impl Iterator<Item = &MediaDb<S>> {
        self.shards.iter()
    }

    /// Consumes the catalog into its shards, in shard order.
    pub fn into_shards(self) -> Vec<MediaDb<S>> {
        self.shards
    }

    /// Mutable access to the BLOB store of the shard that will own
    /// `object` — the capture entry point: write the object's bytes here,
    /// then register the interpretation.
    pub fn store_for_mut(&mut self, object: &str) -> &mut S {
        let shard = self.shard_for(object);
        self.shards[shard].store_mut()
    }

    /// Registers an interpretation on the shard owning its first stream's
    /// name, after checking every stream agrees on the owner (streams of
    /// one interpretation share a BLOB and cannot straddle shards).
    /// Returns the owning shard and the id within it.
    pub fn register_interpretation(
        &mut self,
        interp: Interpretation,
    ) -> Result<(usize, InterpretationId), ShardError> {
        let owner = {
            let names = interp.stream_names();
            let first = *names.first().ok_or(ShardError::NoStreams)?;
            let owner = self.shard_for(first);
            if let Some(other) = names.iter().find(|n| self.shard_for(n) != owner) {
                return Err(ShardError::Straddles {
                    first: first.to_owned(),
                    first_shard: owner,
                    other: (*other).to_owned(),
                    other_shard: self.shard_for(other),
                });
            }
            owner
        };
        let id = self.shards[owner].register_interpretation(interp)?;
        Ok((owner, id))
    }

    /// Whether `object` is registered (checked on its owning shard only —
    /// a misplaced object is invisible, exactly as it is to the router).
    pub fn contains_object(&self, object: &str) -> bool {
        self.shards[self.shard_for(object)].contains_object(object)
    }

    /// Every `(shard, object name)` pair, in shard order then registration
    /// order — the shard-stable iteration.
    pub fn object_names(&self) -> impl Iterator<Item = (usize, &str)> {
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(i, db)| db.object_names().map(move |n| (i, n)))
    }
}

/// Cross-shard statistics: per-shard [`ServerStats`] snapshots plus their
/// exact merge.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedStats {
    /// One snapshot per shard, in shard order.
    pub per_shard: Vec<ServerStats>,
    /// The additive merge of every shard (histograms merged bucket-wise,
    /// so global p50/p99 lateness are exact rollups).
    pub global: ServerStats,
}

impl ShardedStats {
    /// Builds the rollup from per-shard snapshots.
    pub fn from_shards(per_shard: Vec<ServerStats>) -> ShardedStats {
        let mut global = ServerStats::empty();
        for s in &per_shard {
            global.absorb(s);
        }
        ShardedStats { per_shard, global }
    }

    /// Load skew across shards, in percent: how far the hottest shard's
    /// served-element count sits above the per-shard mean. 0 when idle or
    /// perfectly balanced; 300 when one of four shards serves everything.
    /// This is the `shard.skew` gauge — the rebalance alarm — and it is
    /// [`crate::skew_percent`], the one fleet skew definition the gauges,
    /// the rebalancer and the health plane's `SkewBelow` objective share.
    pub fn skew_percent(&self) -> i64 {
        crate::skew_percent(self.per_shard.iter().map(|s| s.elements_served))
    }
}

/// A shard-aware front end: one [`Server`] per shard of a [`ShardedDb`],
/// with requests routed to the owning shard by [`shard_of`].
///
/// Every shard gets its *own* [`Capacity`] budget and [`SegmentCache`]
/// (set via the builders, which apply per shard), so admission is decided
/// shard-locally — including tier-health derating, which keys off each
/// shard's own store. Session ids are globally unique: shard `i` allocates
/// from `i * `[`SHARD_SESSION_STRIDE`], so follow-up requests route by id
/// arithmetic alone and trace session ids never collide across shards.
///
/// [`SegmentCache`]: crate::SegmentCache
#[derive(Debug)]
pub struct ShardedServer<S: BlobStore = MemBlobStore> {
    shards: Vec<Server<S>>,
    seed: u64,
    clock: TimePoint,
    tracer: Tracer,
    /// Worker threads for parallel drives (1 = always sequential).
    workers: usize,
    /// Per-worker counters accumulated across parallel drives — host
    /// scheduling diagnostics, outside the determinism contract.
    pool_stats: Vec<WorkerStats>,
}

impl<S: BlobStore> ShardedServer<S> {
    /// A front end over `db`, giving every shard its own copy of the
    /// `per_shard` capacity budget. Aggregate fleet capacity is therefore
    /// `N × per_shard` — the scale-out the §shards experiment measures.
    pub fn new(db: ShardedDb<S>, per_shard: Capacity) -> ShardedServer<S> {
        let seed = db.seed();
        let shards = db
            .into_shards()
            .into_iter()
            .enumerate()
            .map(|(i, shard_db)| {
                Server::new(shard_db, per_shard).with_session_base(i as u64 * SHARD_SESSION_STRIDE)
            })
            .collect();
        ShardedServer {
            shards,
            seed,
            clock: TimePoint::ZERO,
            tracer: Tracer::disabled(),
            workers: 1,
            pool_stats: Vec::new(),
        }
    }

    /// Sets the number of OS threads that drive the shards (clamped to the
    /// shard count; 1, the default, keeps every drive sequential) and
    /// returns the previous count. Takes effect at the next drive; every
    /// drive's outcome is a pure function of simulated time, so the count
    /// never changes what gets served — only how fast (same seed, same
    /// requests ⇒ byte-identical stats and metrics at any count; see the
    /// `pool` module docs). A traced server drives sequentially whatever
    /// the count ([`ShardedServer::with_tracer`]). Staging a large session
    /// wave at one worker and raising the count for the drain is the usual
    /// pattern.
    pub fn set_workers(&mut self, workers: usize) -> usize {
        std::mem::replace(&mut self.workers, workers.max(1))
    }

    /// Builder: gives every shard its own segment cache of `budget_bytes`.
    pub fn with_cache_budget(mut self, budget_bytes: u64) -> ShardedServer<S> {
        self.shards = self
            .shards
            .into_iter()
            .map(|s| s.with_cache_budget(budget_bytes))
            .collect();
        self
    }

    /// Builder: attaches one tracer to every shard. Clones share the ring,
    /// so all shards land in one timeline — the same one a
    /// [`tbm_blob::FaultyBlobStore`] or [`tbm_blob::TieredBlobStore`] given
    /// a clone writes its fault and tier events into; session ids tell the
    /// shards apart.
    ///
    /// One ring cannot take concurrent writers without the interleave
    /// order depending on host scheduling, so a traced server drives its
    /// shards sequentially whatever [`ShardedServer::set_workers`] says.
    pub fn with_tracer(mut self, tracer: Tracer) -> ShardedServer<S> {
        self.shards = self
            .shards
            .into_iter()
            .map(|s| s.with_tracer(tracer.clone()))
            .collect();
        self.tracer = tracer;
        self
    }

    /// The routing seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A shard's server (its capacity, cache stats, sessions, metrics).
    pub fn shard(&self, i: usize) -> &Server<S> {
        &self.shards[i]
    }

    /// The shards in order.
    pub fn shards(&self) -> impl Iterator<Item = &Server<S>> {
        self.shards.iter()
    }

    /// The shard owning `object` (pure hash).
    pub fn shard_for(&self, object: &str) -> usize {
        shard_of(object, self.seed, self.shards.len())
    }

    /// The shard that allocated `id`, or `None` for an id no shard could
    /// have issued.
    pub fn shard_of_session(&self, id: SessionId) -> Option<usize> {
        let shard = (id.raw() / SHARD_SESSION_STRIDE) as usize;
        (shard < self.shards.len()).then_some(shard)
    }

    /// The front-end clock: the latest simulated time processed.
    pub fn clock(&self) -> TimePoint {
        self.clock
    }

    /// Every shard's sessions, in shard order then admission order.
    pub fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.shards.iter().flat_map(|s| s.sessions().iter())
    }

    /// A session by (globally unique) id, wherever it lives.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.shard_of_session(id)
            .and_then(|i| self.shards[i].session(id))
    }

    /// [`Server::check_invariants`] on every shard, in shard order; `Err`
    /// names the first shard that fails.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.shards.iter().enumerate().try_for_each(|(i, shard)| {
            shard
                .check_invariants()
                .map_err(|e| format!("shard {i}: {e}"))
        })
    }

    /// The shard servers themselves, for the levers the front end does not
    /// forward: a [`crate::Fleet`] submits to the owning shard at the
    /// request's *arrival* time, stalls and re-budgets single shards.
    pub(crate) fn shards_mut(&mut self) -> &mut [Server<S>] {
        &mut self.shards
    }

    /// The shard that owns `request`.
    pub(crate) fn route(&self, request: &Request) -> Result<usize, ServeError> {
        match request {
            Request::Open { object } => Ok(self.shard_for(object)),
            Request::Play { session }
            | Request::Pause { session }
            | Request::Seek { session, .. }
            | Request::SetRate { session, .. }
            | Request::Close { session } => self
                .shard_of_session(*session)
                .ok_or(ServeError::UnknownSession { session: *session }),
        }
    }

    /// Routes a request to the owning shard: `Open` by name hash, session
    /// requests by session-id arithmetic. Time must be non-decreasing
    /// across *all* requests — one fleet, one clock.
    pub fn request(&mut self, at: TimePoint, request: Request) -> Result<Response, ServeError> {
        if at < self.clock {
            return Err(ServeError::NonMonotonicTime {
                at,
                clock: self.clock,
            });
        }
        self.run_until(at);
        let shard = self.route(&request)?;
        self.shards[shard].request(at, request)
    }

    /// Serves every shard's queued elements due by `to`, advancing the
    /// fleet clock. Shards share no state, so neither the drive order nor
    /// the worker count changes any shard's outcome; with more than one
    /// worker (and work actually due) the shards are driven by the `pool`
    /// module, one round per drive.
    pub fn run_until(&mut self, to: TimePoint) {
        if self.pool_engaged() && self.shards.iter().any(|s| s.has_due(to)) {
            let drive = run_round(&mut self.shards, RoundGoal::RunUntil(to), self.workers);
            self.absorb_pool_stats(&drive);
        } else {
            for shard in &mut self.shards {
                shard.run_until(to);
            }
        }
        self.clock = self.clock.max(to);
    }

    /// Drains every shard's event loop completely and returns the final
    /// cross-shard statistics. The drain parallelises exactly like
    /// [`ShardedServer::run_until`]; stats are then collected in shard
    /// order, so the snapshot is byte-identical at any worker count.
    pub fn finish(&mut self) -> ShardedStats {
        if self.pool_engaged() && self.shards.iter().any(|s| s.has_queued()) {
            let drive = run_round(&mut self.shards, RoundGoal::Drain, self.workers);
            self.absorb_pool_stats(&drive);
        }
        let per_shard: Vec<ServerStats> = self.shards.iter_mut().map(|s| s.finish()).collect();
        for shard in &self.shards {
            self.clock = self.clock.max(shard.clock());
        }
        ShardedStats::from_shards(per_shard)
    }

    /// Whether a drive with due work would use the worker pool: more than
    /// one worker, more than one shard, and no tracer — a traced drive is
    /// sequential, so the one ring sees its records in one order (see
    /// [`ShardedServer::with_tracer`]).
    fn pool_engaged(&self) -> bool {
        self.workers > 1 && self.shards.len() > 1 && !self.tracer.is_enabled()
    }

    /// Folds one drive's per-worker counters into the running totals.
    fn absorb_pool_stats(&mut self, drive: &[WorkerStats]) {
        if self.pool_stats.len() < drive.len() {
            self.pool_stats.resize(drive.len(), WorkerStats::default());
        }
        for (total, d) in self.pool_stats.iter_mut().zip(drive) {
            total.absorb(d);
        }
    }

    /// Per-worker counters accumulated across every parallel drive so far,
    /// indexed by worker. Empty while no drive has engaged the pool.
    /// Host-scheduling diagnostics: *not* part of the deterministic
    /// surface (steal counts vary run to run; served elements do not), and
    /// therefore not merged into [`ShardedServer::metrics`].
    pub fn worker_stats(&self) -> &[WorkerStats] {
        &self.pool_stats
    }

    /// A point-in-time cross-shard snapshot (per-shard + merged global).
    pub fn stats(&self) -> ShardedStats {
        ShardedStats::from_shards(self.shards.iter().map(|s| s.stats()).collect())
    }

    /// The fleet's metrics rollup: every shard's registry under a
    /// `shard{i}.` prefix, the unprefixed additive global aggregate, and
    /// the `shard.skew` gauge ([`ShardedStats::skew_percent`]).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut rollup = MetricsRegistry::new();
        for (i, shard) in self.shards.iter().enumerate() {
            rollup.merge_prefixed(shard.metrics(), &format!("shard{i}."));
            rollup.merge_prefixed(shard.metrics(), "");
        }
        rollup.set_gauge(G_SHARD_SKEW, self.stats().skew_percent());
        rollup
    }

    /// An owned snapshot of the fleet trace ([`ShardedServer::with_tracer`]);
    /// empty when untraced.
    pub fn trace(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Writes the fleet trace ([`ShardedServer::trace`]) as Chrome
    /// `trace_event` JSON.
    pub fn trace_to_writer(&self, w: &mut dyn io::Write) -> io::Result<()> {
        chrome_trace_to_writer(&self.trace(), w)
    }

    /// Deadline-miss attribution over the fleet trace, fleet-wide, read in
    /// place. Session ids are globally unique, so per-session backlog
    /// chaining never mixes sessions from different shards.
    pub fn attribution(&self) -> AttributionReport {
        self.tracer.read(|trace| attribute(trace.records()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_seeded() {
        // Pinned values: placement is an on-disk/on-wire contract, so the
        // hash must never drift across releases.
        assert_eq!(shard_of("video1", 0, 1), 0);
        let a = shard_of("movie0", 7, 4);
        assert_eq!(a, shard_of("movie0", 7, 4), "same inputs, same shard");
        // Different seeds must be able to move at least one of these names.
        let moved = (0..64u64).any(|seed| {
            ["movie0", "movie1", "movie2", "movie3"]
                .iter()
                .any(|n| shard_of(n, seed, 4) != shard_of(n, seed + 1, 4))
        });
        assert!(moved, "the seed must actually participate in placement");
        // All shards are reachable over a modest namespace.
        let mut hit = [false; 4];
        for i in 0..64 {
            hit[shard_of(&format!("object{i}"), 42, 4)] = true;
        }
        assert!(hit.iter().all(|&h| h), "hash must spread across all shards");
    }

    #[test]
    fn shard_of_matches_golden_vectors() {
        // The routing hash is a wire/disk contract shared with the fleet's
        // placement service: these literals pin the exact seeded-FNV-1a
        // variant. If this test fails, the hash changed — which silently
        // re-homes every object in every deployed catalog. Don't "fix" the
        // vectors; fix the hash.
        for (name, seed, shards, want) in [
            ("video1", 0u64, 4usize, 3usize),
            ("video1", 0, 16, 7),
            ("movie0", 7, 4, 2),
            ("movie1", 7, 4, 1),
            ("movie2", 7, 4, 0),
            ("movie3", 7, 4, 3),
            ("video1", 42, 4, 1),
            ("audio-news", 42, 4, 1),
            ("", 0, 4, 1),
            ("", 42, 8, 7),
            ("clip/2024/01", 1, 8, 3),
            ("clip/2024/01", 2, 8, 0),
        ] {
            assert_eq!(
                shard_of(name, seed, shards),
                want,
                "shard_of({name:?}, {seed}, {shards}) drifted from its golden vector"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        shard_of("x", 0, 0);
    }

    #[test]
    fn skew_is_zero_when_balanced_and_loud_when_hot() {
        let mut even = ServerStats::empty();
        even.elements_served = 10;
        let balanced = ShardedStats::from_shards(vec![even, even]);
        assert_eq!(balanced.skew_percent(), 0);

        let mut hot = ServerStats::empty();
        hot.elements_served = 40;
        let cold = ServerStats::empty();
        let skewed = ShardedStats::from_shards(vec![hot, cold, cold, cold]);
        assert_eq!(skewed.skew_percent(), 300, "one of four carries it all");
        assert_eq!(skewed.global.elements_served, 40);
    }
}
