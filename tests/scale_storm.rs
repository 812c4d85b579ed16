//! Scaling storm: the parallel shard pool's determinism contract and
//! cache-aware admission, end to end.
//!
//! * Same seed, same requests ⇒ byte-identical stats, rendered metrics and
//!   exported traces at ANY worker count (1, 2, 4, 8) — the contract
//!   DESIGN §16 spells out.
//! * Cache-aware admission: an object resident in the segment cache admits
//!   sessions its cold twin would bounce, the decode stage still gates at
//!   full demand, and evictions re-charge admitted sessions.

use tbm::obs::{Tracer, DEFAULT_TRACE_CAPACITY, ELEMENT_SPAN};
use tbm::prelude::*;
use tbm::serve::{AdmitDecision, Request, Response, Server, ShardedStats};
use tbm_bench::scenario::{catalog_with, demand, movie_db, movie_names, storm_plans, t, wave};

// ---------------------------------------------------------------------------
// Determinism at any worker count
// ---------------------------------------------------------------------------

/// A sharded catalog of scalable movies over one seeded faulty store per
/// shard (fault injection per shard, like per-machine storage).
fn sharded_faulty_db(
    names: &[String],
    shards: usize,
    seed: u64,
) -> ShardedDb<FaultyBlobStore<MemBlobStore>> {
    let plans = storm_plans(shards, seed);
    let faulty = |i: usize, store| FaultyBlobStore::new(store, plans[i]);
    catalog_with(names, shards, seed, (20, 48, 32), faulty)
}

/// Everything the determinism contract covers, captured from one storm.
#[derive(PartialEq)]
struct Surface {
    stats: ShardedStats,
    metrics: String,
    chrome_trace: Vec<u8>,
    records: usize,
}

/// A 12-session staggered storm over 4 faulty shards, per-shard tracers
/// on, driven at `workers` workers.
fn traced_storm(workers: usize) -> Surface {
    let seed = 0xBEEF;
    let shards = 4;
    let names = movie_names(6);
    let db = sharded_faulty_db(&names, shards, seed);
    let mut server = ShardedServer::new(db, Capacity::new(100_000_000))
        .with_cache_budget(16 << 20)
        .with_shard_tracers(DEFAULT_TRACE_CAPACITY)
        .with_workers(workers);
    let viewers = names.iter().cycle().take(12);
    wave(|at, r| Some(server.request(at, r).unwrap()), viewers, 150);
    let stats = server.finish();
    server.check_invariants().unwrap();
    let mut chrome_trace = Vec::new();
    server.trace_to_writer(&mut chrome_trace).unwrap();
    Surface {
        stats,
        metrics: server.metrics().render(),
        records: server.trace().records.len(),
        chrome_trace,
    }
}

#[test]
fn storm_is_byte_identical_at_any_worker_count() {
    let base = traced_storm(1);
    assert!(base.stats.global.elements_served > 0);
    assert!(base.records > 0, "per-shard tracers must have recorded");
    for workers in [2usize, 4, 8] {
        let run = traced_storm(workers);
        assert!(
            base == run,
            "stats/metrics/trace diverged at {workers} workers"
        );
    }
}

#[test]
fn tracing_mode_set_last_wins() {
    // `with_shard_tracers` then `with_tracer` used to leave `trace()`
    // merging the abandoned per-shard rings while the records went to the
    // shared one. In either order the mode set last is the one in force.
    for shared_last in [true, false] {
        let names = movie_names(6);
        let server = ShardedServer::new(
            sharded_faulty_db(&names, 4, 0xBEEF),
            Capacity::new(100_000_000),
        );
        let shared = Tracer::new();
        let mut server = if shared_last {
            server
                .with_shard_tracers(DEFAULT_TRACE_CAPACITY)
                .with_tracer(shared.clone())
        } else {
            server
                .with_tracer(shared.clone())
                .with_shard_tracers(DEFAULT_TRACE_CAPACITY)
        };
        wave(|at, r| Some(server.request(at, r).unwrap()), &names, 0);
        let stats = server.finish();
        let element_spans = |records: &[tbm::obs::TraceRecord]| {
            records.iter().filter(|r| r.name == ELEMENT_SPAN).count()
        };
        assert!(stats.global.elements_served > 0);
        assert_eq!(
            element_spans(&server.trace().records),
            stats.global.elements_served,
            "trace() must return the storm's records (shared last: {shared_last})"
        );
        assert_eq!(server.shard_tracers().is_empty(), shared_last);
        assert_eq!(
            element_spans(&shared.snapshot().records),
            if shared_last {
                stats.global.elements_served
            } else {
                0
            },
            "the shared ring is written exactly when it was set last"
        );
    }
}

#[test]
fn staged_drain_matches_sequential() {
    // Stage every session at one worker, raise the count mid-run, drain.
    // Served elements must not notice.
    let storm = |workers: usize| {
        let seed = 0x7EE0;
        let shards = 4;
        let names = movie_names(8);
        let db = sharded_faulty_db(&names, shards, seed);
        let mut server = ShardedServer::new(db, Capacity::new(1 << 40));
        let viewers = names.iter().cycle().take(24);
        wave(|at, r| Some(server.request(at, r).unwrap()), viewers, 0);
        assert_eq!(server.set_workers(workers), 1, "staged at one worker");
        let stats = server.finish();
        server.check_invariants().unwrap();
        (stats, server.metrics().render())
    };
    let (stats_1, metrics_1) = storm(1);
    for workers in [2usize, 4] {
        let (stats_n, metrics_n) = storm(workers);
        assert_eq!(stats_1, stats_n, "stats diverged at {workers} workers");
        assert_eq!(
            metrics_1, metrics_n,
            "metrics diverged at {workers} workers"
        );
    }
    assert_eq!(stats_1.global.elements_served, 24 * 20);
}

// ---------------------------------------------------------------------------
// Cache-aware admission
// ---------------------------------------------------------------------------

/// One scalable movie in a clean in-memory catalog.
fn movie() -> MediaDb<MemBlobStore> {
    movie_db(MemBlobStore::new(), (30, 64, 48), |store| store)
}

/// Full-fidelity demand of the movie in bytes/s.
fn full_demand(db: &MediaDb<MemBlobStore>) -> u64 {
    demand(db, "video1", None)
}

/// Plays one session through the whole movie, leaving every verified span
/// of the object resident in the server's cache.
fn warm_cache(server: &mut Server<MemBlobStore>) {
    let Response::Opened {
        session: Some(id),
        decision,
    } = server
        .request(
            t(0),
            Request::Open {
                object: "video1".into(),
            },
        )
        .unwrap()
    else {
        panic!("warmup session must be admitted");
    };
    assert_eq!(decision, AdmitDecision::Admitted);
    server.request(t(0), Request::Play { session: id }).unwrap();
    server.finish();
}

fn open(server: &mut Server<MemBlobStore>, at: TimePoint) -> (Option<SessionId>, AdmitDecision) {
    let Response::Opened { session, decision } = server
        .request(
            at,
            Request::Open {
                object: "video1".into(),
            },
        )
        .unwrap()
    else {
        panic!("Open answers Opened");
    };
    (session, decision)
}

#[test]
fn hot_object_admits_where_cold_object_bounces() {
    let d = full_demand(&movie()) as i64;
    let two_sessions = Capacity::new(2 * d as u64 + 1);

    // Cold control: no cache residency to discount against. The warmed-up
    // session has finished (capacity released), so two more fit and the
    // fourth open bounces off the full-fidelity path.
    let mut cold = Server::new(movie(), two_sessions.with_cache_aware_admission());
    warm_cache(&mut cold);
    cold.set_cache_budget(0); // drop residency, keep everything else equal
    let decisions: Vec<AdmitDecision> = (0..3).map(|_| open(&mut cold, t(100_000)).1).collect();
    assert_eq!(decisions[0], AdmitDecision::Admitted);
    assert_eq!(decisions[1], AdmitDecision::Admitted);
    assert!(
        !matches!(decisions[2], AdmitDecision::Admitted),
        "third cold session must not fit at full fidelity: {decisions:?}"
    );

    // Hot: the same storm against a warmed cache. Every planned span is
    // resident, the storage stage is charged zero, and all three admit at
    // full fidelity.
    let mut hot =
        Server::new(movie(), two_sessions.with_cache_aware_admission()).with_cache_budget(64 << 20);
    warm_cache(&mut hot);
    for i in 0..3 {
        let (_, decision) = open(&mut hot, t(100_000));
        assert_eq!(
            decision,
            AdmitDecision::Admitted,
            "hot session {i} must admit at full fidelity"
        );
    }
    assert_eq!(
        hot.stats().committed_bps,
        0,
        "fully resident sessions charge the storage stage nothing"
    );
}

#[test]
fn decode_stage_still_gates_fully_resident_sessions() {
    // Cache hits skip the fetch but not the decode: with the decode stage
    // sized for two sessions, the third bounces even though its storage
    // charge is zero.
    let d = full_demand(&movie());
    let capacity = Capacity::new(2 * d + 1)
        .with_decode_rate(2 * d + 1)
        .with_cache_aware_admission();
    let mut server = Server::new(movie(), capacity).with_cache_budget(64 << 20);
    warm_cache(&mut server);
    let decisions: Vec<AdmitDecision> = (0..3).map(|_| open(&mut server, t(100_000)).1).collect();
    assert_eq!(decisions[0], AdmitDecision::Admitted);
    assert_eq!(decisions[1], AdmitDecision::Admitted);
    assert!(
        !matches!(decisions[2], AdmitDecision::Admitted),
        "decode stage must reject the third session: {decisions:?}"
    );
}

#[test]
fn eviction_reprices_admitted_sessions() {
    let d = full_demand(&movie());
    let capacity = Capacity::new(3 * d / 2 + 1).with_cache_aware_admission();

    // Hot twin: a second session admitted against residency stays cheap,
    // so a third still fits.
    let mut stays_hot = Server::new(movie(), capacity).with_cache_budget(64 << 20);
    warm_cache(&mut stays_hot);
    let (_, b) = open(&mut stays_hot, t(100_000));
    assert_eq!(b, AdmitDecision::Admitted);
    assert_eq!(stays_hot.stats().committed_bps, 0, "hot session charges 0");
    let (_, c) = open(&mut stays_hot, t(100_000));
    assert_eq!(c, AdmitDecision::Admitted);

    // Evicted twin: identical up to the second admission, then the cache
    // is dropped. The admitted session is re-charged its full demand on
    // the spot, and the third open now bounces.
    let mut evicted = Server::new(movie(), capacity).with_cache_budget(64 << 20);
    warm_cache(&mut evicted);
    let (_, b) = open(&mut evicted, t(100_000));
    assert_eq!(b, AdmitDecision::Admitted);
    assert_eq!(evicted.stats().committed_bps, 0);
    evicted.set_cache_budget(0);
    assert!(
        evicted.stats().committed_bps >= d.saturating_sub(1),
        "eviction must re-charge the resident session its full demand, got {}",
        evicted.stats().committed_bps
    );
    let (_, c) = open(&mut evicted, t(100_000));
    assert!(
        !matches!(c, AdmitDecision::Admitted),
        "repriced headroom must bounce the full-fidelity open: {c:?}"
    );
    stays_hot.check_invariants().unwrap();
    evicted.check_invariants().unwrap();
}

#[test]
fn cache_aware_flag_off_is_inert() {
    // The flag defaults off, and the warmed-up storm then prices exactly
    // like the cold one: residency is never consulted.
    let d = full_demand(&movie());
    let mut server = Server::new(movie(), Capacity::new(2 * d + 1)).with_cache_budget(64 << 20);
    warm_cache(&mut server);
    let decisions: Vec<AdmitDecision> = (0..3).map(|_| open(&mut server, t(100_000)).1).collect();
    assert_eq!(decisions[0], AdmitDecision::Admitted);
    assert_eq!(decisions[1], AdmitDecision::Admitted);
    assert!(
        !matches!(decisions[2], AdmitDecision::Admitted),
        "off-flag admission must ignore the warm cache: {decisions:?}"
    );
}

#[test]
fn batched_loop_counts_batches() {
    // Sessions anchored at the same instant share element deadlines, so
    // the loop serves them in same-deadline batches; the counter is part
    // of the deterministic surface.
    let mut server = Server::new(movie(), Capacity::new(1 << 40));
    for _ in 0..4 {
        let (id, decision) = open(&mut server, t(0));
        assert_eq!(decision, AdmitDecision::Admitted);
        server
            .request(
                t(0),
                Request::Play {
                    session: id.unwrap(),
                },
            )
            .unwrap();
    }
    server.finish();
    server.check_invariants().unwrap();
    assert!(
        server.metrics().counter("serve.batches") > 0,
        "same-deadline serves must be counted as batches"
    );
}
