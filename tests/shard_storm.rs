//! Sharded serving storm: a catalog partitioned across faulty shards,
//! sessions routed by the name hash — the cross-shard invariants
//! (routing, no stat leakage, fault accounting, determinism) checked
//! end to end and under proptest-drawn placements and fault plans.

use tbm::prelude::*;
use tbm::serve::{ShardedStats, SHARD_SESSION_STRIDE};
use tbm_bench::scenario::{catalog_with, movie_names, storm_plans as plans_for, wave, Arrival};

/// Opens one staggered session per entry of `picks` (indices into `names`)
/// over a catalog of scalable movies on one faulty store per shard — each
/// movie's bytes on the shard [`shard_of`] assigns it, under that shard's
/// fault plan, exactly like per-machine storage — and drains the fleet.
/// Returns the final stats plus every arrival for routing checks.
fn storm(
    names: &[String],
    picks: &[usize],
    shards: usize,
    seed: u64,
    plans: &[FaultPlan],
    capacity: Capacity,
) -> (ShardedStats, Vec<Arrival>, String) {
    assert_eq!(plans.len(), shards);
    let faulty = |i: usize, store| FaultyBlobStore::new(store, plans[i]);
    let db = catalog_with(names, shards, seed, (20, 48, 32), faulty);
    let mut server = ShardedServer::new(db, capacity).with_cache_budget(16 << 20);
    let objects: Vec<&String> = picks.iter().map(|&p| &names[p % names.len()]).collect();
    let opened = wave(|at, r| Some(server.request(at, r).unwrap()), objects, 150);
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
    assert_eq!(
        server.metrics().gauge("shard.skew"),
        stats.skew_percent(),
        "the gauge reports the snapshot's skew"
    );

    (stats, opened, server.metrics().render())
}

#[test]
fn sessions_land_on_their_hash_shard_and_invariants_hold() {
    let names = movie_names(6);
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
    for arrival in &opened {
        if let Some(id) = arrival.session {
            assert_eq!(
                (id.raw() / SHARD_SESSION_STRIDE) as usize,
                shard_of(&arrival.object, seed, shards),
                "session for {:?} landed off its hash shard",
                arrival.object
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
    let names = movie_names(5);
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

            for arrival in &opened {
                if let Some(id) = arrival.session {
                    prop_assert_eq!(
                        (id.raw() / SHARD_SESSION_STRIDE) as usize,
                        shard_of(&arrival.object, seed, shards)
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
