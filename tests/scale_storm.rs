//! Scaling storm: the parallel shard pool's determinism contract and
//! admission against a warm cache, end to end.
//!
//! * Same seed, same requests ⇒ byte-identical stats and rendered metrics
//!   at ANY worker count (1, 2, 4, 8) — the contract DESIGN §16 spells
//!   out — and, traced, byte-identical Chrome traces with the stores'
//!   fault events in the one timeline, because a traced drive is
//!   sequential.
//! * Admission charges every session its full demand: a warm segment
//!   cache changes no decision, and the decode stage gates on its own.

use tbm::obs::{Tracer, ELEMENT_SPAN};
use tbm::prelude::*;
use tbm::serve::{AdmitDecision, Request, Response, Server, ShardedStats};
use tbm_bench::scenario::{catalog_with, demand, movie_db, movie_names, storm_plans, t, wave};

// ---------------------------------------------------------------------------
// Determinism at any worker count
// ---------------------------------------------------------------------------

/// A sharded catalog of scalable movies over one seeded faulty store per
/// shard (fault injection per shard, like per-machine storage). Every
/// store writes its fault events into `tracer`.
fn sharded_faulty_db(
    names: &[String],
    shards: usize,
    seed: u64,
    tracer: &Tracer,
) -> ShardedDb<FaultyBlobStore<MemBlobStore>> {
    let plans = storm_plans(shards, seed);
    let faulty =
        |i: usize, store| FaultyBlobStore::new(store, plans[i]).with_tracer(tracer.clone());
    catalog_with(names, shards, seed, (20, 48, 32), faulty)
}

/// Everything the determinism contract covers, captured from one storm.
#[derive(PartialEq)]
struct Surface {
    stats: ShardedStats,
    metrics: String,
    chrome_trace: Vec<u8>,
}

/// A 12-session staggered storm over 4 faulty shards driven at `workers`
/// workers; server and stores share `tracer`'s one ring. Also returns
/// whether any drive engaged the worker pool.
fn storm(workers: usize, tracer: &Tracer) -> (Surface, bool) {
    let seed = 0xBEEF;
    let shards = 4;
    let names = movie_names(6);
    let db = sharded_faulty_db(&names, shards, seed, tracer);
    let mut server = ShardedServer::new(db, Capacity::new(100_000_000))
        .with_cache_budget(16 << 20)
        .with_tracer(tracer.clone());
    server.set_workers(workers);
    let viewers = names.iter().cycle().take(12);
    wave(|at, r| Some(server.request(at, r).unwrap()), viewers, 150);
    let stats = server.finish();
    server.check_invariants().unwrap();
    let mut chrome_trace = Vec::new();
    server.trace_to_writer(&mut chrome_trace).unwrap();
    let surface = Surface {
        stats,
        metrics: server.metrics().render(),
        chrome_trace,
    };
    (surface, !server.worker_stats().is_empty())
}

#[test]
fn storm_is_byte_identical_at_any_worker_count() {
    let (base, _) = storm(1, &Tracer::disabled());
    assert!(base.stats.global.elements_served > 0);
    for workers in [2usize, 4, 8] {
        let (run, pooled) = storm(workers, &Tracer::disabled());
        assert!(
            pooled,
            "an untraced storm engages the pool at {workers} workers"
        );
        assert!(base == run, "stats/metrics diverged at {workers} workers");
    }
}

#[test]
fn store_events_share_the_one_timeline_at_any_worker_count() {
    // The stores got their tracer before the server existed; the server's
    // element spans and the stores' fault events land in one ring, and the
    // traced drive stays sequential at any worker count.
    let traced = |workers| storm(workers, &Tracer::new());
    let (base, pooled) = traced(1);
    assert!(!pooled);
    let json = String::from_utf8(base.chrome_trace.clone()).unwrap();
    assert!(json.contains(ELEMENT_SPAN), "element spans recorded");
    assert!(
        json.contains("\"cat\":\"fault\""),
        "store fault events recorded"
    );
    for workers in [2usize, 4] {
        let (run, pooled) = traced(workers);
        assert!(
            !pooled,
            "a traced storm is pinned sequential at {workers} workers"
        );
        assert!(
            base == run,
            "stats/metrics/trace diverged at {workers} workers"
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
        let db = sharded_faulty_db(&names, shards, seed, &Tracer::disabled());
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
// Admission against a warm cache
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
fn decode_stage_still_gates_fully_resident_sessions() {
    // Cache hits skip the fetch but not the decode: with storage sized for
    // three sessions and the decode stage for two, the third bounces off
    // the decode stage even though every span it plans is resident.
    let d = full_demand(&movie());
    let capacity = Capacity::new(3 * (d + 1)).with_decode_rate(2 * d + 1);
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
fn a_warm_cache_never_changes_admission() {
    // Admission charges full demand whatever is resident: the warmed-up
    // storm prices exactly like a cold one.
    let d = full_demand(&movie());
    let mut server = Server::new(movie(), Capacity::new(2 * d + 1)).with_cache_budget(64 << 20);
    warm_cache(&mut server);
    let decisions: Vec<AdmitDecision> = (0..3).map(|_| open(&mut server, t(100_000)).1).collect();
    assert_eq!(decisions[0], AdmitDecision::Admitted);
    assert_eq!(decisions[1], AdmitDecision::Admitted);
    assert!(
        !matches!(decisions[2], AdmitDecision::Admitted),
        "admission must ignore the warm cache: {decisions:?}"
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
