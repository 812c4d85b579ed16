//! Tier storm: the tiered BLOB store under scripted blackouts and random
//! per-tier fault plans, checked end-to-end through the serving stack —
//! no read is ever served unverified, failover keeps the drop rate at
//! zero, breakers heal, and every deadline miss gets exactly one cause.

use tbm::prelude::*;
use tbm::serve::{Request, Response, Server};
use tbm_bench::scenario::{capture_movie, demand, t};

const ELEMENTS: usize = 20;

/// Three tiers fastest-first — mem over file over remote — each backed by
/// its own seeded fault injector.
fn tiered_store(plans: [FaultPlan; 3]) -> TieredBlobStore {
    let [mem, file, remote] = plans;
    TieredBlobStore::new()
        .with_tier(
            TierConfig::new("mem", 20).with_breaker(4, 5_000),
            FaultyBlobStore::new(MemBlobStore::new(), mem),
        )
        .with_tier(
            TierConfig::new("file", 150).with_breaker(4, 10_000),
            FaultyBlobStore::new(MemBlobStore::new(), file),
        )
        .with_tier(
            TierConfig::new("remote", 2_000).with_breaker(3, 20_000),
            FaultyBlobStore::new(MemBlobStore::new(), remote),
        )
}

/// Captures one scalable movie through the tiered facade (write-through
/// populates every tier identically; checksums come from the source bytes).
fn capture_into(store: &mut TieredBlobStore) -> tbm::interp::Interpretation {
    capture_movie(store, (ELEMENTS, 48, 32)).1
}

fn open(server: &mut Server<TieredBlobStore>, at: TimePoint) -> Option<tbm::core::SessionId> {
    match server
        .request(
            at,
            Request::Open {
                object: "video1".into(),
            },
        )
        .unwrap()
    {
        Response::Opened { session, .. } => session,
        other => panic!("unexpected response: {other:?}"),
    }
}

#[test]
fn fast_tier_blackout_fails_over_without_drops_and_heals() {
    let run = || {
        let tracer = Tracer::new();
        let mut store = tiered_store([FaultPlan::new(1), FaultPlan::new(2), FaultPlan::new(3)])
            .with_tracer(tracer.clone());
        let interp = capture_into(&mut store);
        // Both fast tiers go dark for the first 50ms of simulated time —
        // session A's whole service window — so every one of its reads
        // must fail over to the remote tier.
        let store = store
            .with_outage(0, t(0), t(50))
            .with_outage(1, t(0), t(50));
        let mut db = MediaDb::with_store(store);
        db.register_interpretation(interp).unwrap();
        let mut server = Server::new(db, Capacity::new(50_000_000))
            .with_cache_budget(0)
            .with_tracer(tracer.clone());

        let a = open(&mut server, t(0)).unwrap();
        server.request(t(0), Request::Play { session: a }).unwrap();
        server.run_until(t(100));
        assert_eq!(
            server.db().store().breaker_state(0),
            Some(BreakerState::Open),
            "the blackout must trip the mem breaker"
        );
        // Session B dispatches after the blackout and the cooldowns: its
        // first read is the half-open probe that heals the fast tier.
        let b = open(&mut server, t(200)).unwrap();
        server
            .request(t(200), Request::Play { session: b })
            .unwrap();
        let stats = server.finish();

        let store = server.db().store();
        let tiers = store.tier_stats();
        (
            stats,
            tiers,
            store.failover_reads(),
            store.breaker_state(0),
            server.attribution().total(),
            tracer.snapshot(),
        )
    };

    let (stats, tiers, failovers, mem_state, attributed, snap) = run();

    // A total fast-tier blackout loses nothing: the remote tier serves.
    assert_eq!(stats.dropped_elements, 0, "failover must prevent drops");
    assert_eq!(stats.elements_served, 2 * ELEMENTS);
    assert_eq!(stats.finished_sessions, 2);
    assert!(failovers > 0, "session A must have failed over");
    assert!(tiers[2].serves > 0, "the remote tier carried the blackout");
    assert!(tiers[0].breaker_opens >= 1);
    // During the 50ms outage the 5ms-cooldown breaker admits at most one
    // half-open probe per cooldown window after the initial 4-fault trip —
    // far fewer faults than the ~120 raw read attempts a 40-element
    // blackout would otherwise hammer the dead tier with.
    assert!(
        tiers[0].faults <= 4 + 50 / 5,
        "the breaker must cap faults at threshold + one probe per cooldown, got {}",
        tiers[0].faults
    );

    // Self-healing: session B's reads land on the healed fast tier.
    assert_eq!(mem_state, Some(BreakerState::Closed));
    assert!(tiers[0].serves > 0, "healed tier serves again");

    // The outage is first-class in the trace, and attribution still
    // assigns exactly one cause per miss.
    assert!(snap.records.iter().any(|r| r.name == "tier.failover"));
    assert!(snap.records.iter().any(|r| r.name == "tier.outage"));
    assert!(snap.records.iter().any(|r| r.name == "tier.breaker_close"));
    assert_eq!(attributed, stats.deadline_misses);

    // Byte-identical reruns, through outages, breakers and failovers.
    let again = run();
    assert_eq!(stats, again.0);
    assert_eq!(tiers, again.1);
    assert_eq!(failovers, again.2);
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    fn plans(
        seeds: (u64, u64, u64),
        trans: (f64, f64, f64),
        corr: (f64, f64, f64),
    ) -> [FaultPlan; 3] {
        [
            FaultPlan::new(seeds.0)
                .with_transient(trans.0)
                .with_corruption(corr.0),
            FaultPlan::new(seeds.1)
                .with_transient(trans.1)
                .with_corruption(corr.1),
            FaultPlan::new(seeds.2)
                .with_transient(trans.2)
                .with_corruption(corr.2),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// However the per-tier fault plans are drawn: (1) a read that
        /// succeeds when a checksum is known always returns verifying
        /// bytes, whatever mix of tiers corrupted their copies; (2) every
        /// deadline miss in a served storm is attributed to exactly one
        /// cause; (3) the fault partition holds.
        #[test]
        fn no_unverified_serves_and_every_miss_has_one_cause(
            seeds in (any::<u64>(), any::<u64>(), any::<u64>()),
            trans in (0.0f64..0.4, 0.0f64..0.4, 0.0f64..0.4),
            corr in (0.0f64..0.4, 0.0f64..0.4, 0.0f64..0.4),
            outage_ms in 1i64..200,
        ) {
            // Part 1: direct reads through the stack, marching the clock so
            // the scripted fast-tier outage and the breakers engage.
            let mut store = tiered_store(plans(seeds, trans, corr));
            let interp = capture_into(&mut store);
            let store = store.with_outage(0, t(0), t(outage_ms));
            let mut db = MediaDb::with_store(store);
            db.register_interpretation(interp).unwrap();
            let (interp, stream) = db.stream_of("video1").unwrap();
            let blob = interp.blob();
            let store = db.store();
            let mut served = 0u32;
            for (i, entry) in stream.entries().iter().enumerate() {
                for (li, &span) in entry.placement.layers().iter().enumerate() {
                    let Some(&sum) = entry.checksums.get(li) else { continue };
                    store.set_sim_now(t(i as i64 * 20));
                    let ctx = ReadCtx {
                        attempt: 0,
                        deadline_slack_us: None,
                        expected_crc: Some(sum),
                    };
                    let mut buf = vec![0u8; span.len as usize];
                    if store.read_into_ctx(blob, span, &mut buf, &ctx).is_ok() {
                        served += 1;
                        prop_assert_eq!(
                            crc32(&buf), sum,
                            "a successful read must never hand back unverified bytes"
                        );
                    }
                }
            }
            prop_assert!(served > 0, "three tiers of fallback must serve something");

            // Part 2: an oversubscribed storm over a fresh, identically
            // seeded stack — misses are expected; each gets one cause.
            let mut store = tiered_store(plans(seeds, trans, corr));
            let interp = capture_into(&mut store);
            let store = store.with_outage(0, t(0), t(outage_ms));
            let mut db = MediaDb::with_store(store);
            db.register_interpretation(interp).unwrap();
            let full = demand(&db, "video1", None);
            let mut server = Server::new(db, Capacity::new(full + full / 8).admit_all())
                .with_tracer(Tracer::new());
            for n in 0..3 {
                if let Some(id) = open(&mut server, t(n * 40)) {
                    server.request(t(n * 40), Request::Play { session: id }).unwrap();
                }
            }
            let stats = server.finish();
            let report = server.attribution();
            prop_assert_eq!(report.total(), stats.deadline_misses);
            let by_cause: usize = report.by_cause().iter().map(|&(_, n)| n).sum();
            prop_assert_eq!(by_cause, report.total(), "causes partition the misses");
            prop_assert_eq!(
                stats.faults_detected,
                stats.degraded_elements + stats.dropped_elements + stats.repaired_elements,
                "fault partition: every fault degraded, dropped or repaired"
            );
        }
    }
}
