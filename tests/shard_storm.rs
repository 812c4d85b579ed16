//! Sharded serving storm: a catalog partitioned across faulty shards,
//! sessions routed by the name hash — the cross-shard invariants
//! (routing, no stat leakage, fault accounting, determinism) checked
//! end to end and under proptest-drawn placements and fault plans.

use tbm::codec::dct::DctParams;
use tbm::interp::capture::capture_video_scalable;
use tbm::interp::Interpretation;
use tbm::media::gen::{render_frames, VideoPattern};
use tbm::prelude::*;
use tbm::serve::{Request, Response, ShardedStats, SHARD_SESSION_STRIDE};
use tbm::time::{TimeDelta, TimePoint, TimeSystem};

fn t(ms: i64) -> TimePoint {
    TimePoint::ZERO + TimeDelta::from_millis(ms)
}

/// A sharded catalog of `names` scalable movies over one faulty store per
/// shard. Each movie's bytes are captured into the store of the shard that
/// [`shard_of`] assigns it, then wrapped in that shard's fault plan — so
/// fault injection is per shard, exactly like per-machine storage.
fn sharded_faulty_db(
    names: &[String],
    shards: usize,
    seed: u64,
    plans: &[FaultPlan],
) -> ShardedDb<FaultyBlobStore<MemBlobStore>> {
    assert_eq!(plans.len(), shards);
    let mut stores: Vec<MemBlobStore> = (0..shards).map(|_| MemBlobStore::new()).collect();
    let frames = render_frames(VideoPattern::MovingBar, 0, 20, 48, 32);
    let mut interps = Vec::new();
    for name in names {
        let owner = shard_of(name, seed, shards);
        let (blob, interp) = capture_video_scalable(
            &mut stores[owner],
            &frames,
            TimeSystem::PAL,
            DctParams::default(),
        )
        .unwrap();
        // The capture helper names streams "video1"; re-hang the stream
        // under the movie's routing name.
        let stream = interp.stream("video1").unwrap().clone();
        let mut renamed = Interpretation::new(blob);
        renamed.add_stream(name, stream).unwrap();
        interps.push(renamed);
    }
    let faulty = stores
        .into_iter()
        .zip(plans.iter().cloned())
        .map(|(store, plan)| FaultyBlobStore::new(store, plan))
        .collect();
    let mut db = ShardedDb::with_stores(faulty, seed);
    for interp in interps {
        db.register_interpretation(interp).unwrap();
    }
    db
}

/// Opens one staggered session per entry of `wave` (indices into `names`)
/// and drains the fleet. Returns the final stats plus every opened
/// `(object, session id)` pair for routing checks.
fn storm(
    names: &[String],
    wave: &[usize],
    shards: usize,
    seed: u64,
    plans: &[FaultPlan],
    capacity: Capacity,
) -> (ShardedStats, Vec<(String, Option<SessionId>)>, String) {
    let db = sharded_faulty_db(names, shards, seed, plans);
    let mut server = ShardedServer::new(db, capacity).with_cache_budget(16 << 20);
    let mut opened = Vec::new();
    for (i, &pick) in wave.iter().enumerate() {
        let at = t(i as i64 * 150);
        let name = names[pick % names.len()].clone();
        let Response::Opened { session, .. } = server
            .request(
                at,
                Request::Open {
                    object: name.clone(),
                },
            )
            .unwrap()
        else {
            panic!("Open answers Opened");
        };
        if let Some(id) = session {
            server.request(at, Request::Play { session: id }).unwrap();
        }
        opened.push((name, session));
    }
    let stats = server.finish();
    server.check_invariants().unwrap();

    // No cross-shard stat leakage: each shard's snapshot is exactly the
    // sum of the sessions *it* admitted (identified by the id stride),
    // and the global view is exactly the sum of the shards.
    for (i, shard_stats) in stats.per_shard.iter().enumerate() {
        let base = i as u64 * SHARD_SESSION_STRIDE;
        let mine: Vec<_> = server
            .sessions()
            .filter(|s| s.id().raw() / SHARD_SESSION_STRIDE == i as u64)
            .collect();
        for s in &mine {
            assert!(s.id().raw() >= base);
        }
        let sum = |f: &dyn Fn(&SessionStats) -> usize| -> usize {
            mine.iter().map(|s| f(&s.stats())).sum()
        };
        assert_eq!(shard_stats.elements_served, sum(&|s| s.elements));
        assert_eq!(shard_stats.deadline_misses, sum(&|s| s.misses));
        assert_eq!(shard_stats.recovered, sum(&|s| s.recovered));
        assert_eq!(shard_stats.degraded_elements, sum(&|s| s.degraded));
        assert_eq!(shard_stats.dropped_elements, sum(&|s| s.dropped));
        assert_eq!(shard_stats.repaired_elements, sum(&|s| s.repaired));
    }
    let mut rebuilt = ServerStats::empty();
    for s in &stats.per_shard {
        rebuilt.absorb(s);
    }
    assert_eq!(rebuilt, stats.global, "global stats must be the shard sum");

    (stats, opened, server.metrics().render())
}

fn plans_for(shards: usize, seed: u64) -> Vec<FaultPlan> {
    (0..shards)
        .map(|i| {
            FaultPlan::new(seed ^ (i as u64 + 1))
                .with_transient(0.2)
                .with_corruption(0.05)
                .with_latency(0.1, 300)
        })
        .collect()
}

#[test]
fn sessions_land_on_their_hash_shard_and_invariants_hold() {
    let names: Vec<String> = (0..6).map(|i| format!("movie{i}")).collect();
    let wave: Vec<usize> = (0..12).collect();
    let shards = 3;
    let seed = 0xC0FFEE;
    let (stats, opened, _) = storm(
        &names,
        &wave,
        shards,
        seed,
        &plans_for(shards, seed),
        Capacity::new(200_000_000).admit_all(),
    );

    // Every admitted session's id names the shard its object hashes to.
    for (name, session) in &opened {
        if let Some(id) = session {
            assert_eq!(
                (id.raw() / SHARD_SESSION_STRIDE) as usize,
                shard_of(name, seed, shards),
                "session for {name:?} landed off its hash shard"
            );
        }
    }

    // The fault invariant holds per shard and globally.
    for s in stats.per_shard.iter().chain(std::iter::once(&stats.global)) {
        assert_eq!(
            s.faults_detected,
            s.degraded_elements + s.dropped_elements + s.repaired_elements
        );
    }
    assert!(stats.global.elements_served > 0);
}

#[test]
fn same_seed_sharded_storms_are_byte_identical() {
    let names: Vec<String> = (0..5).map(|i| format!("movie{i}")).collect();
    let wave: Vec<usize> = (0..10).collect();
    let run = || {
        storm(
            &names,
            &wave,
            4,
            0xBEEF,
            &plans_for(4, 0xBEEF),
            Capacity::new(100_000_000),
        )
    };
    let (stats_a, opened_a, metrics_a) = run();
    let (stats_b, opened_b, metrics_b) = run();
    assert_eq!(stats_a, stats_b, "same seed, same stats");
    assert_eq!(opened_a, opened_b, "same seed, same admissions");
    assert_eq!(metrics_a, metrics_b, "same seed, same rendered metrics");
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// However the namespace, placement seed, session wave and
        /// per-shard fault plans are drawn: sessions route to their hash
        /// shard, no stats leak across shards, the fault invariant holds
        /// per shard and globally, and the run replays byte-identically.
        #[test]
        fn sharded_storms_hold_their_invariants(
            seed in any::<u64>(),
            shards in 1usize..5,
            n_objects in 1usize..7,
            wave in proptest::collection::vec(0usize..16, 4..14),
            transient in 0.0f64..0.5,
            corruption in 0.0f64..0.25,
        ) {
            let names: Vec<String> =
                (0..n_objects).map(|i| format!("clip{i}")).collect();
            let plans: Vec<FaultPlan> = (0..shards)
                .map(|i| {
                    FaultPlan::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9))
                        .with_transient(transient)
                        .with_corruption(corruption)
                })
                .collect();
            let run = || {
                storm(
                    &names,
                    &wave,
                    shards,
                    seed,
                    &plans,
                    Capacity::new(80_000_000),
                )
            };
            let (stats, opened, metrics) = run();

            for (name, session) in &opened {
                if let Some(id) = session {
                    prop_assert_eq!(
                        (id.raw() / SHARD_SESSION_STRIDE) as usize,
                        shard_of(name, seed, shards)
                    );
                }
            }
            for s in stats.per_shard.iter().chain(std::iter::once(&stats.global)) {
                prop_assert_eq!(
                    s.faults_detected,
                    s.degraded_elements + s.dropped_elements + s.repaired_elements
                );
                prop_assert_eq!(s.service.count() as usize, s.elements_served);
                prop_assert_eq!(s.lateness.count() as usize, s.deadline_misses);
            }

            let (stats_again, opened_again, metrics_again) = run();
            prop_assert_eq!(stats, stats_again);
            prop_assert_eq!(opened, opened_again);
            prop_assert_eq!(metrics, metrics_again);
        }
    }
}
