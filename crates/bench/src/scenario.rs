//! The scenario library: every storm the repository runs, written once.
//!
//! A scenario is a plain value — a struct whose fields are the numbers two
//! readers at some point disagreed on, everything else a constant — and
//! `run()` hands back the finished engine objects. Four readers share
//! them: the root `tests/`, `exp_claims`, `examples/broadcast.rs` (one
//! positional scenario name) and `scripts/ci.sh`. Below the scenarios sit
//! the parts they are made of (catalog builder, demand probe, session
//! waves, the runbook's rules and fault windows), which tests with
//! parameters of their own compose directly.

use tbm_blob::{BlobStore, FaultPlan, FaultyBlobStore, MemBlobStore, TierConfig, TieredBlobStore};
use tbm_codec::dct::DctParams;
use tbm_core::{BlobId, SessionId};
use tbm_db::MediaDb;
use tbm_interp::{capture::capture_video_scalable, Interpretation};
use tbm_obs::Tracer;
use tbm_query::{ErrorBound, FleetTelemetry, HealthMonitor, Playbook, Remediator, SloRule};
use tbm_serve::{
    shard_of, AdmitDecision, Capacity, Fleet, FleetError, Link, NodeFaultPlan, Request, Response,
    Server, ShardedDb, ShardedServer,
};
use tbm_time::{TimeDelta, TimePoint, TimeSystem};

use crate::video_frames;

/// The telemetry tick of every sampled scenario, in simulated ms.
pub const INTERVAL_MS: i64 = 50;
/// The SLO storm's fault window on node 1: [4 s, 8 s) — tick 80 to 160.
pub const FAULT_MS: (i64, i64) = (4_000, 8_000);
/// The telemetry broadcast's brownout window on node 1, at 35 % health.
pub const BROWNOUT_MS: (i64, i64) = (500, 2_500);

/// A movie's geometry: frame count, width, height (PAL, moving-bar pattern).
pub type Clip = (usize, u32, u32);

/// `ms` of simulated time after the epoch.
pub fn t(ms: i64) -> TimePoint {
    TimePoint::ZERO + TimeDelta::from_millis(ms)
}

/// `movie0 … movie{n-1}`.
pub fn movie_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("movie{i}")).collect()
}

/// `n` movie names probed through [`shard_of`] so that every shard owns
/// exactly `n / shards` of them; name `k` lives on shard `k % shards`. A
/// round-robin wave over them loads every shard — and node — identically,
/// so a skew rule reads faults, not hash-placement noise.
pub fn balanced_names(n: usize, shards: usize, seed: u64) -> Vec<String> {
    assert_eq!(
        n % shards,
        0,
        "{n} names cannot balance over {shards} shards"
    );
    let mut by_shard: Vec<Vec<String>> = vec![Vec::new(); shards];
    let mut i = 0u32;
    while by_shard.iter().any(|names| names.len() < n / shards) {
        let name = format!("movie{i}");
        let owned = &mut by_shard[shard_of(&name, seed, shards)];
        if owned.len() < n / shards {
            owned.push(name);
        }
        i += 1;
    }
    (0..n)
        .map(|k| by_shard[k % shards][k / shards].clone())
        .collect()
}

/// Captures one scalable movie of `clip` into `store`; its stream is named
/// `video1`.
pub fn capture_movie<S: BlobStore>(store: &mut S, clip: Clip) -> (BlobId, Interpretation) {
    let frames = video_frames(clip.0, clip.1, clip.2);
    capture_video_scalable(store, &frames, TimeSystem::PAL, DctParams::default())
        .expect("capture into a writable store")
}

/// A catalog of one movie (`video1`): captured through `store`, which
/// `seal` then turns into the store the catalog serves from (wrap it in a
/// fault injector, script an outage, or hand it back unchanged).
pub fn movie_db<S: BlobStore, T: BlobStore>(
    mut store: S,
    clip: Clip,
    seal: impl FnOnce(S) -> T,
) -> MediaDb<T> {
    let (_, interp) = capture_movie(&mut store, clip);
    let mut db = MediaDb::with_store(seal(store));
    db.register_interpretation(interp).expect("fresh catalog");
    db
}

/// A sharded catalog of scalable movies, one per name, each captured into
/// the store of the shard [`shard_of`] assigns it and re-hung under its
/// routing name; `wrap` then turns shard `i`'s store into the one it serves
/// from (e.g. a [`FaultyBlobStore`] with that shard's plan).
pub fn catalog_with<S: BlobStore>(
    names: &[String],
    shards: usize,
    seed: u64,
    clip: Clip,
    mut wrap: impl FnMut(usize, MemBlobStore) -> S,
) -> ShardedDb<S> {
    let mut stores = vec![MemBlobStore::new(); shards];
    let mut interps = Vec::new();
    for name in names {
        let (blob, interp) = capture_movie(&mut stores[shard_of(name, seed, shards)], clip);
        let stream = interp.stream("video1").expect("captured").clone();
        let mut renamed = Interpretation::new(blob);
        renamed.add_stream(name, stream).expect("one stream");
        interps.push(renamed);
    }
    let stores = stores.into_iter().enumerate().map(|(i, s)| wrap(i, s));
    let mut db = ShardedDb::with_stores(stores.collect(), seed);
    for interp in interps {
        db.register_interpretation(interp).expect("unique names");
    }
    db
}

/// [`catalog_with`] over plain in-memory shard stores.
pub fn catalog(names: &[String], shards: usize, seed: u64, clip: Clip) -> ShardedDb {
    catalog_with(names, shards, seed, clip, |_, store| store)
}

/// The bytes/s `object` demands when played at its first `layers` layers
/// (`None` = full fidelity), rounded up — what capacities are sized from.
pub fn demand<S: BlobStore>(db: &MediaDb<S>, object: &str, layers: Option<usize>) -> u64 {
    let (_, stream) = db.stream_of(object).expect("a captured object");
    let jobs = tbm_player::schedule_from_interp(stream, layers);
    let rate = tbm_player::demanded_rate(&jobs, stream.system()).expect("a non-empty stream");
    rate.ceil() as u64
}

/// [`demand`] at full fidelity, looked up on the shard owning `object`.
pub fn full_rate<S: BlobStore>(db: &ShardedDb<S>, object: &str) -> u64 {
    demand(db.shard(db.shard_for(object)), object, None)
}

/// One viewer's arrival: what it asked for and what the server answered
/// (`decision` is `None` when the Open never reached a live node).
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// The object opened.
    pub object: String,
    /// The session, when one was admitted.
    pub session: Option<SessionId>,
    /// The admission decision.
    pub decision: Option<AdmitDecision>,
}

/// Opens `object` at `at` through `request` and plays it if admitted.
/// `request` answers `None` for a request that could not be delivered.
pub fn open_play(
    request: &mut impl FnMut(TimePoint, Request) -> Option<Response>,
    at: TimePoint,
    object: &str,
) -> Arrival {
    let (session, decision) = match request(
        at,
        Request::Open {
            object: object.into(),
        },
    ) {
        Some(Response::Opened { session, decision }) => (session, Some(decision)),
        Some(other) => panic!("Open answered {other:?}"),
        None => (None, None),
    };
    if let Some(id) = session {
        request(at, Request::Play { session: id });
    }
    Arrival {
        object: object.into(),
        session,
        decision,
    }
}

/// The staggered wave: viewer `i` opens and plays `objects[i]` at
/// `i × stagger_ms`.
pub fn wave<O: AsRef<str>>(
    mut request: impl FnMut(TimePoint, Request) -> Option<Response>,
    objects: impl IntoIterator<Item = O>,
    stagger_ms: i64,
) -> Vec<Arrival> {
    let arrive = |(i, o): (usize, O)| open_play(&mut request, t(i as i64 * stagger_ms), o.as_ref());
    objects.into_iter().enumerate().map(arrive).collect()
}

/// The staggered wave under a ticking telemetry plane: `ticks + 1` samples
/// [`INTERVAL_MS`] apart, each of `sessions` viewers (round-robin over
/// `names`) opened in the tick window its arrival falls in; then plane and
/// fleet are finished.
pub fn ticked_wave<S: BlobStore>(
    fleet: &mut Fleet<S>,
    telemetry: &mut FleetTelemetry,
    names: &[String],
    (sessions, stagger_ms): (usize, i64),
    ticks: i64,
) {
    let mut next = 0usize;
    for k in 0..=ticks {
        let at = t(INTERVAL_MS * k);
        telemetry.tick(fleet, at);
        while next < sessions && next as i64 * stagger_ms < INTERVAL_MS * (k + 1) {
            let open_at = t(next as i64 * stagger_ms).max(at);
            let object = &names[next % names.len()];
            open_play(&mut |at, r| fleet.request(at, r).ok(), open_at, object);
            next += 1;
        }
    }
    telemetry.finish(fleet, t(INTERVAL_MS * (ticks + 1)));
    fleet.finish();
}

/// The runbook's rule set: every built-in SLO rule at the thresholds the
/// operator's handbook documents. A healthy run clears all four.
pub fn runbook_rules() -> Vec<SloRule> {
    vec![
        SloRule::p99_full_lateness_below(2_000.0),
        SloRule::drop_rate_below(1.0),
        SloRule::no_unverified_serves(),
        SloRule::load_skew_below(60.0),
    ]
}

/// Node 1 killed over [`FAULT_MS`] (restarted with salvage at its end).
pub fn kill_plan() -> NodeFaultPlan {
    NodeFaultPlan::new().with_crash_restart(t(FAULT_MS.0), t(FAULT_MS.1))
}

/// Node 1 browned out to 25 % health over [`FAULT_MS`].
pub fn brownout_plan() -> NodeFaultPlan {
    NodeFaultPlan::new().with_brownout(t(FAULT_MS.0), t(FAULT_MS.1), 25)
}

/// The shard storms' storage weather: one seeded plan per shard with
/// transient errors, corruption and latency spikes.
pub fn storm_plans(shards: usize, seed: u64) -> Vec<FaultPlan> {
    let plan = |i| FaultPlan::new(seed ^ (i as u64 + 1)).with_transient(0.2);
    (0..shards)
        .map(|i| plan(i).with_corruption(0.05).with_latency(0.1, 300))
        .collect()
}

/// `hot` — one movie, one server, a staggered wave of viewers; server and
/// store share one tracer.
#[derive(Debug, Clone, Copy)]
pub struct Hot {
    /// The movie.
    pub clip: Clip,
    /// Viewers, and the ms between their arrivals.
    pub wave: (usize, i64),
    /// The server's capacity, from the movie's full-fidelity rate.
    pub capacity: fn(u64) -> Capacity,
    /// Segment-cache budget in bytes (0 = cache off).
    pub cache_budget: u64,
    /// Storage faults (`None` = a clean store).
    pub faults: Option<FaultPlan>,
}

impl Hot {
    /// The demo broadcast: twelve viewers, room for ~2.5 full streams.
    pub const DEMO: Hot = Hot {
        clip: (50, 96, 64),
        wave: (12, 150),
        capacity: |full| Capacity::new(full * 5 / 2).with_overhead_us(100),
        cache_budget: 64 << 20,
        faults: None,
    };

    /// Runs the broadcast to completion.
    pub fn run(&self) -> (Server<FaultyBlobStore<MemBlobStore>>, Vec<Arrival>) {
        let tracer = Tracer::new();
        let plan = self.faults.unwrap_or(FaultPlan::new(0));
        let seal = |store| FaultyBlobStore::new(store, plan).with_tracer(tracer.clone());
        let db = movie_db(MemBlobStore::new(), self.clip, seal);
        let capacity = (self.capacity)(demand(&db, "video1", None));
        let mut server = Server::new(db, capacity)
            .with_cache_budget(self.cache_budget)
            .with_tracer(tracer.clone());
        let request = |at, r| Some(server.request(at, r).expect("a known session"));
        let viewers = std::iter::repeat_n("video1", self.wave.0);
        let arrivals = wave(request, viewers, self.wave.1);
        server.finish();
        (server, arrivals)
    }
}

/// `tier-blackout` — one movie served off a tiered store whose scripted
/// outages land mid-broadcast, cache off so every read walks the tiers.
#[derive(Debug)]
pub struct TierBlackout {
    /// The tier stack, outages scripted, nothing captured yet.
    pub store: TieredBlobStore,
    /// The movie.
    pub clip: Clip,
    /// Viewers, and the ms between their arrivals.
    pub wave: (usize, i64),
    /// Capacity in full-fidelity streams.
    pub headroom: u64,
    /// Traces the server (share the ring with `store` to see tier events).
    pub tracer: Tracer,
}

impl TierBlackout {
    /// The demo: a fast primary over a slow replica; the primary goes dark
    /// over [150 ms, 700 ms), across the middle of a six-viewer broadcast.
    pub fn demo() -> TierBlackout {
        let primary = TierConfig::new("primary", 150).with_breaker(3, 50_000);
        let replica = TierConfig::new("replica", 2_000).with_breaker(3, 20_000);
        let store = TieredBlobStore::new()
            .with_tier(primary, MemBlobStore::new())
            .with_tier(replica, MemBlobStore::new())
            .with_outage(0, t(150), t(700));
        let (clip, wave, tracer) = ((50, 96, 64), (6, 150), Tracer::disabled());
        let headroom = 8;
        TierBlackout {
            store,
            clip,
            wave,
            headroom,
            tracer,
        }
    }

    /// Captures through the stack (write-through fills every tier) and
    /// runs the broadcast to completion.
    pub fn run(self) -> Server<TieredBlobStore> {
        let db = movie_db(self.store, self.clip, |store| store);
        let capacity = Capacity::new(demand(&db, "video1", None) * self.headroom);
        let mut server = Server::new(db, capacity).with_tracer(self.tracer);
        let request = |at, r| Some(server.request(at, r).expect("a known session"));
        wave(
            request,
            std::iter::repeat_n("video1", self.wave.0),
            self.wave.1,
        );
        server.finish();
        server
    }
}

/// `shards` — eight 40-frame movies behind the shard-aware front end, every
/// shard with its own budget and 32 MiB cache, one shared tracer, viewers
/// round-robin over the catalog.
#[derive(Debug, Clone, Copy)]
pub struct Shards {
    /// Shard count.
    pub shards: usize,
    /// Viewers, and the ms between their arrivals.
    pub wave: (usize, i64),
    /// Per-shard capacity, from one movie's full-fidelity rate.
    pub capacity: fn(u64) -> Capacity,
}

impl Shards {
    /// The routing seed.
    pub const SEED: u64 = 17;
    /// The demo: four shards at ~2.5 streams each, sixteen viewers.
    pub const DEMO: Shards = Shards {
        shards: 4,
        wave: (16, 120),
        capacity: |full| Capacity::new(full * 5 / 2).with_overhead_us(100),
    };

    /// Runs the storm to completion.
    pub fn run(&self) -> (ShardedServer, Vec<Arrival>) {
        let names = movie_names(8);
        let db = catalog(&names, self.shards, Self::SEED, (40, 96, 64));
        let capacity = (self.capacity)(full_rate(&db, &names[0]));
        let mut server = ShardedServer::new(db, capacity)
            .with_cache_budget(32 << 20)
            .with_tracer(Tracer::new());
        let request = |at, r| Some(server.request(at, r).expect("a known session"));
        let viewers = names.iter().cycle().take(self.wave.0);
        let arrivals = wave(request, viewers, self.wave.1);
        server.finish();
        (server, arrivals)
    }
}

/// `fleet-kill` — eight movies over eight shards on four traced nodes;
/// node 1 is killed under a live session wave and restarts with salvage.
#[derive(Debug, Clone, Copy)]
pub struct FleetKill {
    /// The placement seed.
    pub seed: u64,
    /// Every movie of the catalog.
    pub clip: Clip,
    /// Per-node storage bandwidth (admission off: the kill is the signal).
    pub bandwidth: u64,
    /// Node 1 dies at `.0` ms and restarts at `.1` ms.
    pub kill_ms: (i64, i64),
    /// Viewers, and the ms between their arrivals.
    pub wave: (usize, i64),
    /// Live shard migration (off = the shedding baseline).
    pub migration: bool,
}

impl FleetKill {
    /// The measured storm: 24 viewers, the kill at 1.5 s, restart at 6 s.
    pub const STORM: FleetKill = FleetKill {
        seed: 0xF1EE7,
        clip: (20, 48, 32),
        bandwidth: 400_000_000,
        kill_ms: (1_500, 6_000),
        wave: (24, 150),
        migration: true,
    };
    /// The demo: sixteen viewers, the kill at 900 ms, restart at 4 s.
    pub const DEMO: FleetKill = FleetKill {
        seed: 29,
        clip: (30, 96, 64),
        bandwidth: 200_000_000,
        kill_ms: (900, 4_000),
        wave: (16, 120),
        migration: true,
    };

    /// The fleet before the first viewer, and the catalog's names.
    pub fn build(&self) -> (Fleet, Vec<String>) {
        let names = movie_names(8);
        let db = catalog(&names, 8, self.seed, self.clip);
        let plan = NodeFaultPlan::new().with_crash_restart(t(self.kill_ms.0), t(self.kill_ms.1));
        let fleet = Fleet::new(db, 4, Capacity::new(self.bandwidth).admit_all())
            .with_cache_budget(32 << 20)
            .with_migration(self.migration)
            .with_tracer(Tracer::new())
            .with_fault_plan(1, plan);
        (fleet, names)
    }

    /// Runs the storm to completion. An Open that finds its node dead
    /// (baseline arm only) is an [`Arrival`] without a decision.
    pub fn run(&self) -> (Fleet, Vec<Arrival>) {
        let (mut fleet, names) = self.build();
        let request = |at, r| match fleet.request(at, r) {
            Err(FleetError::Unreachable { .. }) => None,
            answer => Some(answer.expect("only a dead node refuses a request")),
        };
        let arrivals = wave(request, names.iter().cycle().take(self.wave.0), self.wave.1);
        fleet.finish();
        (fleet, arrivals)
    }
}

/// `telemetry` — eight 96×64 movies over six shards on three traced nodes
/// at ~2 streams per node, sixteen viewers 120 ms apart, the telemetry
/// plane sampling every tick.
#[derive(Debug, Clone, Copy)]
pub struct Telemetry {
    /// The placement seed.
    pub seed: u64,
    /// Frames per movie.
    pub frames: usize,
    /// Whether node 1 browns out to 35 % over [`BROWNOUT_MS`].
    pub brownout: bool,
    /// Sampled ticks after tick 0.
    pub ticks: i64,
    /// The compression error bound.
    pub bound: ErrorBound,
    /// Whether every node's link loses half its shipments.
    pub lossy_links: bool,
}

impl Telemetry {
    /// The queried broadcast: 6 s at a 1 % bound, with a brownout to ask
    /// questions about.
    pub fn query() -> Telemetry {
        let (seed, frames, brownout, ticks, lossy_links) = (23, 40, true, 120, false);
        let bound = ErrorBound::percent(1.0);
        Telemetry {
            seed,
            frames,
            brownout,
            ticks,
            bound,
            lossy_links,
        }
    }

    /// The demo: a clean 5 s broadcast with the plane riding along.
    pub fn demo() -> Telemetry {
        let (seed, frames, brownout, ticks) = (29, 30, false, 100);
        Telemetry {
            seed,
            frames,
            brownout,
            ticks,
            ..Telemetry::query()
        }
    }

    /// Runs broadcast and plane to completion.
    pub fn run(&self) -> (Fleet, FleetTelemetry) {
        let names = movie_names(8);
        let db = catalog(&names, 6, self.seed, (self.frames, 96, 64));
        let capacity = Capacity::new(full_rate(&db, &names[0]) * 2).with_overhead_us(100);
        let mut fleet = Fleet::new(db, 3, capacity)
            .with_cache_budget(32 << 20)
            .with_tracer(Tracer::new());
        if self.brownout {
            let plan = NodeFaultPlan::new().with_brownout(t(BROWNOUT_MS.0), t(BROWNOUT_MS.1), 35);
            fleet = fleet.with_fault_plan(1, plan);
        }
        if self.lossy_links {
            let lossy = Link::new(10_000_000).with_loss(0.5).with_seed(7);
            fleet = (0..3).fold(fleet, |fleet, node| fleet.with_link(node, lossy.clone()));
        }
        let mut telemetry = FleetTelemetry::new(self.bound, TimeDelta::from_millis(INTERVAL_MS));
        ticked_wave(&mut fleet, &mut telemetry, &names, (16, 120), self.ticks);
        (fleet, telemetry)
    }
}

/// `slo-storm` — the PR 8 storm: seed 23, one balanced 10 s movie on each
/// of six shards over three nodes, twelve viewers 150 ms apart, 240 ticks,
/// the runbook's rules armed; the remediation plane, when a playbook is
/// given, is the only actor on placement besides the fault.
#[derive(Debug, Clone)]
pub struct SloStorm {
    /// The scripted fault on node 1 (`None` = a clean run).
    pub fault: Option<NodeFaultPlan>,
    /// The telemetry error bound.
    pub bound: ErrorBound,
    /// The remediation playbook (`None` = alerts only).
    pub playbook: Option<Playbook>,
    /// Per-node capacity in full-fidelity streams: 20 is ~20 % steady
    /// load, so a 25 % brownout reads as skew while lateness stays quiet;
    /// 5 runs tight, so a kill saturates the survivors.
    pub headroom: u64,
}

impl SloStorm {
    /// The storm under `fault`: alerts only, 1 % bound, ample headroom.
    pub fn under(fault: Option<NodeFaultPlan>) -> SloStorm {
        let (bound, playbook, headroom) = (ErrorBound::percent(1.0), None, 20);
        SloStorm {
            fault,
            bound,
            playbook,
            headroom,
        }
    }

    /// Runs storm and planes to completion.
    pub fn run(&self) -> (Fleet, FleetTelemetry) {
        let names = balanced_names(6, 6, 23);
        // 250 PAL frames = 10 s: sessions opened in the first 2 s stream
        // through the whole fault window.
        let db = catalog(&names, 6, 23, (250, 48, 32));
        let capacity = Capacity::new(full_rate(&db, &names[0]) * self.headroom).admit_all();
        let mut fleet = Fleet::new(db, 3, capacity)
            .with_cache_budget(16 << 20)
            .with_tracer(Tracer::with_capacity(1 << 16));
        if let Some(plan) = &self.fault {
            fleet = fleet.with_fault_plan(1, plan.clone());
        }
        let interval = TimeDelta::from_millis(INTERVAL_MS);
        let monitor = runbook_rules()
            .into_iter()
            .fold(HealthMonitor::new(interval), HealthMonitor::rule);
        let mut telemetry = FleetTelemetry::new(self.bound, interval).with_health(monitor);
        if let Some(playbook) = &self.playbook {
            telemetry = telemetry.with_remediator(Remediator::new(playbook.clone()));
        }
        ticked_wave(&mut fleet, &mut telemetry, &names, (12, 150), 240);
        (fleet, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same scenario, two runs: equal stats, byte-equal rendered metrics.
    macro_rules! replays {
        ($name:ident, $run:expr) => {
            #[test]
            fn $name() {
                let (a, b) = ($run, $run);
                assert_eq!(a.0, b.0, "same scenario, same stats");
                assert!(
                    !a.1.is_empty() && a.1 == b.1,
                    "same scenario, same metrics bytes"
                );
            }
        };
    }
    replays!(hot_replays, {
        let (server, _) = Hot::DEMO.run();
        (server.stats(), server.metrics().render())
    });
    replays!(tier_blackout_replays, {
        let server = TierBlackout::demo().run();
        (server.stats(), server.metrics().render())
    });
    replays!(shards_replays, {
        let (server, _) = Shards::DEMO.run();
        (server.stats(), server.metrics().render())
    });
    replays!(fleet_kill_replays, {
        let (fleet, _) = FleetKill::STORM.run();
        (fleet.stats(), fleet.metrics().render())
    });
    replays!(telemetry_replays, {
        let (fleet, _) = Telemetry::demo().run();
        (fleet.stats(), fleet.metrics().render())
    });
    replays!(slo_storm_replays, {
        let (fleet, _) = SloStorm::under(Some(brownout_plan())).run();
        (fleet.stats(), fleet.metrics().render())
    });

    #[test]
    fn balanced_names_fill_every_shard_equally() {
        for seed in 0..32 {
            for (n, shards) in [(6, 6), (12, 4), (8, 1)] {
                let names = balanced_names(n, shards, seed);
                let mut owned = vec![0usize; shards];
                for (k, name) in names.iter().enumerate() {
                    assert_eq!(shard_of(name, seed, shards), k % shards, "seed {seed}");
                    owned[k % shards] += 1;
                }
                assert_eq!(owned, vec![n / shards; shards], "seed {seed}");
            }
        }
    }

    #[test]
    fn catalog_places_each_object_on_its_hash_shard() {
        let names = movie_names(7);
        let db = catalog_with(&names, 3, 99, (2, 16, 16), |i, store| {
            FaultyBlobStore::new(store, FaultPlan::new(i as u64))
        });
        let placed: Vec<(usize, &str)> = db.object_names().collect();
        assert_eq!(placed.len(), names.len());
        for (shard, name) in placed {
            assert_eq!(shard, shard_of(name, 99, 3), "{name}");
            assert!(
                full_rate(&db, name) > 0,
                "{name} must be playable where it was placed"
            );
        }
    }
}
