//! End-to-end serving storm: a faulty store behind the shared segment
//! cache, many sessions, admission control on — every cross-layer
//! invariant of the serving stack checked in one run.

use tbm::prelude::*;
use tbm::serve::{AdmitDecision, RejectReason, Request, Response, Server, ServerStats};
use tbm_bench::scenario::{self, movie_db, open_play, t, wave};

const VIEWERS: usize = 10;

/// A catalog holding one scalable movie on a seeded faulty store.
fn faulty_db(seed: u64) -> MediaDb<FaultyBlobStore<MemBlobStore>> {
    let plan = FaultPlan::new(seed)
        .with_transient(0.25)
        .with_corruption(0.08)
        .with_latency(0.1, 400);
    movie_db(MemBlobStore::new(), (30, 64, 48), |store| {
        FaultyBlobStore::new(store, plan)
    })
}

/// Demand of the movie in bytes/s at the given layer cap.
fn demand(db: &MediaDb<FaultyBlobStore<MemBlobStore>>, layers: Option<usize>) -> u64 {
    scenario::demand(db, "video1", layers)
}

/// Capacity fitting three full-fidelity sessions plus one base-layer one:
/// a ten-viewer storm must see all three admission outcomes.
fn storm_capacity(db: &MediaDb<FaultyBlobStore<MemBlobStore>>) -> Capacity {
    Capacity::new(demand(db, None) * 3 + demand(db, Some(1)) + 1)
}

/// Opens `VIEWERS` staggered sessions and drains the server.
fn storm(mut server: Server<FaultyBlobStore<MemBlobStore>>) -> (ServerStats, Vec<AdmitDecision>) {
    let mut decisions = Vec::new();
    let bandwidth = server.capacity().storage_bandwidth;
    for n in 0..VIEWERS {
        let request = &mut |at, r| Some(server.request(at, r).unwrap());
        let arrival = open_play(request, t(n as i64 * 120), "video1");
        decisions.extend(arrival.decision);
        // Committed demand never exceeds the admitted capacity, at every
        // step of the storm.
        assert!(
            server.stats().committed_bps <= bandwidth,
            "admission overcommitted: {} > {}",
            server.stats().committed_bps,
            bandwidth
        );
    }
    let stats = server.finish();
    server.check_invariants().unwrap();
    (stats, decisions)
}

#[test]
fn storm_respects_capacity_and_stats_invariants() {
    let db = faulty_db(0xC0FFEE);
    let capacity = storm_capacity(&db);
    let server = Server::new(db, capacity).with_cache_budget(32 << 20);
    let (stats, decisions) = storm(server);

    // Every open got exactly one decision, and all three kinds occurred.
    assert_eq!(decisions.len(), VIEWERS);
    assert_eq!(
        stats.admitted + stats.admitted_degraded + stats.rejected,
        VIEWERS
    );
    assert!(stats.admitted >= 3, "{decisions:?}");
    assert!(
        stats.admitted_degraded > 0,
        "a scalable stream must be admitted degraded when full fidelity no longer fits: {decisions:?}"
    );
    assert!(stats.rejected > 0, "{decisions:?}");

    // Degraded sessions were admitted base-layer-only.
    for d in &decisions {
        if let AdmitDecision::Degraded { layers } = d {
            assert_eq!(*layers, 1);
        }
    }

    // Everyone admitted ran to completion and released capacity.
    assert_eq!(stats.finished_sessions, stats.sessions_admitted());
    assert_eq!(stats.active_sessions, 0);
    assert_eq!(stats.committed_bps, 0);

    // Fault accounting: every detected fault became exactly one degraded,
    // dropped, or tier-repaired element.
    assert_eq!(
        stats.faults_detected,
        stats.degraded_elements + stats.dropped_elements + stats.repaired_elements
    );

    // The cache worked: verified spans of the hot object were shared.
    assert!(stats.cache.hits > 0);
    assert_eq!(stats.cache.lookups(), stats.cache.hits + stats.cache.misses);
}

#[test]
fn global_stats_are_the_sum_of_session_stats() {
    let db = faulty_db(0xC0FFEE);
    let capacity = storm_capacity(&db);
    let mut server = Server::new(db, capacity).with_cache_budget(32 << 20);
    let viewers = std::iter::repeat_n("video1", VIEWERS);
    wave(|at, r| Some(server.request(at, r).unwrap()), viewers, 120);
    let stats = server.finish();
    server.check_invariants().unwrap();

    let mut elements = 0;
    let mut misses = 0;
    let mut hits = 0;
    let mut cache_misses = 0;
    let mut recovered = 0;
    let mut degraded = 0;
    let mut dropped = 0;
    let mut repaired = 0;
    for s in server.sessions() {
        let st = s.stats();
        elements += st.elements;
        misses += st.misses;
        hits += st.cache_hits;
        cache_misses += st.cache_misses;
        recovered += st.recovered;
        degraded += st.degraded;
        dropped += st.dropped;
        repaired += st.repaired;
    }
    assert_eq!(stats.elements_served, elements);
    assert_eq!(stats.deadline_misses, misses);
    assert_eq!(stats.cache.hits, hits);
    assert_eq!(stats.cache.misses, cache_misses);
    assert_eq!(stats.recovered, recovered);
    assert_eq!(stats.degraded_elements, degraded);
    assert_eq!(stats.dropped_elements, dropped);
    assert_eq!(stats.repaired_elements, repaired);
}

#[test]
fn storms_are_deterministic() {
    let run = || {
        let db = faulty_db(0xBEEF);
        let capacity = storm_capacity(&db);
        storm(Server::new(db, capacity).with_cache_budget(32 << 20)).0
    };
    assert_eq!(run(), run());
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    /// Like [`faulty_db`] but with every fault probability variable.
    fn db_with_plan(
        seed: u64,
        transient: f64,
        corruption: f64,
        latency_p: f64,
    ) -> MediaDb<FaultyBlobStore<MemBlobStore>> {
        let plan = FaultPlan::new(seed)
            .with_transient(transient)
            .with_corruption(corruption)
            .with_latency(latency_p, 300);
        movie_db(MemBlobStore::new(), (20, 48, 32), |store| {
            FaultyBlobStore::new(store, plan)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Satellite invariant: however the fault plan is drawn, every
        /// unrecoverable fault the server detects surfaces as exactly one
        /// degraded or dropped element — never zero, never two.
        #[test]
        fn fault_accounting_invariant_holds_for_random_fault_plans(
            seed in any::<u64>(),
            transient in 0.0f64..0.6,
            corruption in 0.0f64..0.35,
            latency_p in 0.0f64..0.3,
        ) {
            let db = db_with_plan(seed, transient, corruption, latency_p);
            let capacity = Capacity::new(demand(&db, None) * 3 + demand(&db, Some(1)) + 1);
            let (stats, _) = storm(Server::new(db, capacity).with_cache_budget(16 << 20));
            prop_assert_eq!(
                stats.faults_detected,
                stats.degraded_elements + stats.dropped_elements + stats.repaired_elements
            );
            // The snapshot histograms agree with the counters they back.
            prop_assert_eq!(stats.service.count() as usize, stats.elements_served);
            prop_assert_eq!(stats.lateness.count() as usize, stats.deadline_misses);
        }
    }
}

#[test]
fn cache_off_reads_strictly_more_storage() {
    let run = |budget: u64| {
        let db = faulty_db(0xC0FFEE);
        let capacity = storm_capacity(&db);
        let server = if budget > 0 {
            Server::new(db, capacity).with_cache_budget(budget)
        } else {
            Server::new(db, capacity)
        };
        storm(server).0
    };
    let cached = run(32 << 20);
    let uncached = run(0);
    assert_eq!(uncached.cache.hits, 0);
    assert!(cached.cache.hits > 0);
    assert!(
        cached.storage_bytes_read < uncached.storage_bytes_read,
        "the shared cache must reduce aggregate storage reads ({} vs {})",
        cached.storage_bytes_read,
        uncached.storage_bytes_read
    );
}

#[test]
fn session_cap_rejects_with_session_limit_until_a_slot_frees() {
    // Bandwidth for everyone, slots for two: the third Open bounces off
    // the session cap, not off saturation, and a Close frees the slot.
    let db = faulty_db(3);
    let capacity = Capacity::new(demand(&db, None) * 100).with_max_sessions(2);
    let mut server = Server::new(db, capacity);
    let open = |server: &mut Server<_>| {
        let Response::Opened { session, decision } = server
            .request(
                t(0),
                Request::Open {
                    object: "video1".into(),
                },
            )
            .unwrap()
        else {
            panic!("Open answers Opened");
        };
        (session, decision)
    };
    let (first, d1) = open(&mut server);
    let (_, d2) = open(&mut server);
    assert_eq!((d1, d2), (AdmitDecision::Admitted, AdmitDecision::Admitted));
    let (none, d3) = open(&mut server);
    assert_eq!(
        d3,
        AdmitDecision::Rejected {
            reason: RejectReason::SessionLimit { max: 2 }
        }
    );
    assert!(none.is_none());
    assert_eq!(server.stats().rejected, 1);

    server
        .request(
            t(0),
            Request::Close {
                session: first.unwrap(),
            },
        )
        .unwrap();
    let (_, d4) = open(&mut server);
    assert_eq!(d4, AdmitDecision::Admitted, "a closed session frees a slot");
    server.check_invariants().unwrap();
}
