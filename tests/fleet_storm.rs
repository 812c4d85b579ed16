//! Fleet storm: a sharded catalog hosted on simulated nodes, one of which
//! is killed under a live session storm. Pins the tentpole guarantees:
//! live migration keeps every verified serve (zero drops, against a
//! no-migration baseline that sheds), the fault invariant extends to
//! node loss, stalls are attributed to the `node-loss` miss cause, and
//! same-seed runs replay byte-identically — traces included.

use tbm::prelude::*;
use tbm_bench::scenario::{
    catalog_with, demand, movie_names as names, t, wave, Arrival, FleetKill,
};

const FRAMES: usize = FleetKill::STORM.clip.0; // 20 PAL frames = 800 ms of playback per session

/// A sharded catalog of `names` scalable movies, each captured into the
/// store of the shard [`shard_of`] assigns it, wrapped in that shard's
/// fault plan (pass zero-rate plans for clean storage).
fn fleet_db(
    names: &[String],
    shards: usize,
    seed: u64,
    plans: &[FaultPlan],
) -> ShardedDb<FaultyBlobStore<MemBlobStore>> {
    assert_eq!(plans.len(), shards);
    catalog_with(names, shards, seed, FleetKill::STORM.clip, |i, store| {
        FaultyBlobStore::new(store, plans[i])
    })
}

fn clean_plans(shards: usize, seed: u64) -> Vec<FaultPlan> {
    (0..shards)
        .map(|i| FaultPlan::new(seed ^ i as u64))
        .collect()
}

/// Runs the `fleet-kill` storm — 24 sessions staggered 150 ms apart over
/// 8 movies on 4 nodes, node 1 killed at 1.5 s and restarted at 6 s —
/// and checks what every arm must hold. Returns the finished fleet and
/// every arrival (no decision = unreachable).
fn kill_storm(migration: bool) -> (Fleet, Vec<Arrival>) {
    let mut storm = FleetKill::STORM;
    storm.migration = migration;
    let (fleet, opened) = storm.run();
    let stats = fleet.stats();
    fleet.check_invariants().unwrap();

    // The global snapshot is exactly the per-shard sum, wherever the
    // shards happened to be hosted.
    let mut rebuilt = ServerStats::empty();
    for s in &stats.shards.per_shard {
        rebuilt.absorb(s);
    }
    assert_eq!(rebuilt, stats.shards.global, "global must be the shard sum");

    // Fleet-ended session states: everything is finished, closed (shed
    // counts as closed), or still open because its Play never got through.
    for s in fleet.sessions() {
        assert!(
            matches!(
                s.state(),
                SessionState::Finished | SessionState::Closed | SessionState::Opened
            ),
            "session {:?} ended in {:?}",
            s.id(),
            s.state()
        );
    }

    (fleet, opened)
}

#[test]
fn killing_one_of_four_nodes_drops_nothing_when_migration_is_live() {
    let (migrated, opened) = kill_storm(true);
    let (baseline, _) = kill_storm(false);
    let (with_migration, baseline) = (migrated.stats(), baseline.stats());

    // The migrating fleet admits and finishes every session and serves
    // every element of every schedule: the node kill costs zero serves.
    assert!(
        opened.iter().all(|a| a.session.is_some()),
        "live migration must keep every object reachable"
    );
    assert_eq!(
        with_migration.shards.global.elements_served,
        24 * FRAMES,
        "every scheduled element is served"
    );
    assert_eq!(
        with_migration.shards.global.dropped_elements, 0,
        "a node kill under live migration drops nothing"
    );
    assert_eq!(with_migration.elements_shed, 0);
    assert_eq!(with_migration.shards.global.finished_sessions, 24);
    assert!(
        with_migration.migrations > 0,
        "the kill must actually move shards"
    );
    assert!(with_migration.handoff_bytes > 0);

    // The no-migration baseline loses real work: sessions on the dead
    // node shed their remaining elements (accounted as drops), and some
    // opens never get through at all.
    assert!(
        baseline.elements_shed > 0,
        "the baseline must shed in-flight elements on the kill"
    );
    assert_eq!(
        baseline.shards.global.dropped_elements as u64, baseline.elements_shed,
        "clean storage: every baseline drop is a shed element"
    );
    assert_eq!(baseline.migrations, 0);
    assert!(
        baseline.shards.global.elements_served < with_migration.shards.global.elements_served
            || opened.len() > baseline.per_node.len(),
        "the baseline serves strictly less"
    );

    // The fault invariant holds in both arms, node loss included: shed
    // elements are dropped elements, so the partition stays exact.
    for stats in [&with_migration, &baseline] {
        for s in stats
            .shards
            .per_shard
            .iter()
            .chain(std::iter::once(&stats.shards.global))
        {
            assert_eq!(
                s.faults_detected,
                s.degraded_elements + s.dropped_elements + s.repaired_elements
            );
            assert_eq!(s.service.count() as usize, s.elements_served);
            assert_eq!(s.lateness.count() as usize, s.deadline_misses);
        }
    }

    // Restart-with-salvage: node 1 is back up and its home shards came
    // home, so the fleet ends in its initial placement.
    assert!(with_migration.per_node[1].up);
    assert_eq!(with_migration.per_node[1].crashes, 1);
    assert_eq!(with_migration.per_node[1].restarts, 1);
    let placement = migrated.placement();
    for s in 0..placement.shard_count() {
        assert_eq!(
            placement.node_of_shard(s),
            placement.home_of(s),
            "the restart must bring shard {s} home"
        );
    }
}

#[test]
fn migration_stalls_are_attributed_to_node_loss() {
    let (fleet, _) = kill_storm(true);
    let stats = fleet.stats();

    assert!(
        stats.shards.global.deadline_misses > 0,
        "the handoff stall must cost some deadlines"
    );
    let report = attribute(&fleet.trace().records);
    assert_eq!(
        report.total(),
        stats.shards.global.deadline_misses,
        "every miss gets exactly one cause"
    );
    let by_cause = report.by_cause();
    let node_loss = by_cause
        .iter()
        .find(|(c, _)| *c == MissCause::NodeLoss)
        .map(|&(_, n)| n)
        .unwrap_or(0);
    assert!(
        node_loss > 0,
        "stall-induced misses must be attributed to node-loss, got {by_cause:?}"
    );
    let partition: usize = by_cause.iter().map(|&(_, n)| n).sum();
    assert_eq!(partition, report.total(), "attribution is a partition");
}

#[test]
fn same_seed_fleet_storms_replay_byte_identically() {
    let run = || {
        let (fleet, opened) = kill_storm(true);
        let mut trace = Vec::new();
        tbm::obs::chrome_trace_to_writer(&fleet.trace(), &mut trace).unwrap();
        (fleet.stats(), opened, fleet.metrics().render(), trace)
    };
    let (stats_a, opened_a, metrics_a, trace_a) = run();
    let (stats_b, opened_b, metrics_b, trace_b) = run();
    assert_eq!(stats_a, stats_b, "same seed, same stats");
    assert_eq!(opened_a, opened_b, "same seed, same admissions");
    assert_eq!(metrics_a, metrics_b, "same seed, same rendered metrics");
    assert_eq!(trace_a, trace_b, "same seed, byte-identical trace");
}

#[test]
fn partition_trips_the_breaker_and_fails_the_shards_over() {
    // Node 1's link is partitioned from 1 s to 2 s. The first request in
    // the window loses twice, trips the breaker, and the mid-retry-loop
    // re-route lands it on the survivor — the request itself succeeds.
    let names = names(4);
    let seed = 0xACE;
    let db = fleet_db(&names, 4, seed, &clean_plans(4, seed));
    let link = Link::new(125_000_000).with_partition(t(1_000), t(2_000));
    let mut fleet = Fleet::new(db, 2, Capacity::new(400_000_000).admit_all())
        .with_cache_budget(16 << 20)
        .with_link(1, link);
    let reachable = "failover must keep every open reachable";
    let opened = wave(
        |at, r| Some(fleet.request(at, r).expect(reachable)),
        names.iter().cycle().take(8),
        400,
    );
    let ids: Vec<SessionId> = opened
        .iter()
        .map(|a| a.session.expect("ample capacity admits"))
        .collect();
    let stats = fleet.finish();
    fleet.check_invariants().unwrap();
    assert!(
        stats.per_node[1].breaker_trips > 0,
        "the partition must trip node 1's breaker"
    );
    assert!(stats.migrations > 0, "tripping must evacuate the shards");
    assert!(stats.transport_lost > 0);
    assert_eq!(stats.shards.global.dropped_elements, 0);
    assert_eq!(stats.shards.global.finished_sessions, ids.len());
}

#[test]
fn brownout_degrades_admission_and_recovery_upgrades_it() {
    // Size one node so a full-fidelity session fits at 100% health but
    // not at 30%: a session opened in the brownout window is admitted
    // degraded, and the health recovery upgrades it before it plays.
    let names = names(1);
    let seed = 7;
    let probe = fleet_db(&names, 1, seed, &clean_plans(1, seed));
    let full = demand(probe.shard(0), &names[0], None);

    let db = fleet_db(&names, 1, seed, &clean_plans(1, seed));
    let mut fleet = Fleet::new(db, 1, Capacity::new(full * 2))
        .with_fault_plan(0, NodeFaultPlan::new().with_brownout(t(0), t(1_000), 30));
    let Response::Opened {
        session: Some(id),
        decision,
    } = fleet
        .request(
            t(100),
            Request::Open {
                object: names[0].clone(),
            },
        )
        .unwrap()
    else {
        panic!("brownout must degrade, not reject");
    };
    assert!(
        matches!(decision, AdmitDecision::Degraded { .. }),
        "30% health cannot fit the full-rate session, got {decision:?}"
    );
    fleet.run_until(t(1_100));
    assert_eq!(
        fleet.session(id).unwrap().decision(),
        AdmitDecision::Admitted,
        "the brownout ending must upgrade the degraded session"
    );
    fleet
        .request(t(1_200), Request::Play { session: id })
        .unwrap();
    let stats = fleet.finish();
    fleet.check_invariants().unwrap();
    assert_eq!(stats.shards.global.upgraded_sessions, 1);
    assert_eq!(stats.shards.global.finished_sessions, 1);
}

#[test]
fn fleet_metrics_roll_up_nodes_shards_and_fleet_counters() {
    let names = names(6);
    let seed = 0xD00D;
    let db = fleet_db(&names, 4, seed, &clean_plans(4, seed));
    let mut fleet =
        Fleet::new(db, 2, Capacity::new(400_000_000).admit_all()).with_cache_budget(16 << 20);
    wave(|at, r| Some(fleet.request(at, r).unwrap()), &names, 100);
    let stats = fleet.finish();
    fleet.check_invariants().unwrap();
    let m = fleet.metrics();
    // Shards partition the global count; nodes partition it too, along
    // the current placement.
    let shard_sum: u64 = (0..fleet.shard_count())
        .map(|i| m.counter(&format!("shard{i}.serve.elements.served")))
        .sum();
    let node_sum: u64 = (0..fleet.node_count())
        .map(|i| m.counter(&format!("node{i}.serve.elements.served")))
        .sum();
    assert_eq!(shard_sum, m.counter("serve.elements.served"));
    assert_eq!(node_sum, m.counter("serve.elements.served"));
    assert_eq!(
        m.counter("serve.elements.served") as usize,
        stats.shards.global.elements_served
    );
    assert_eq!(m.gauge("fleet.nodes"), 2);
    assert_eq!(m.gauge("fleet.nodes.up"), 2);
    assert!(m.gauge("fleet.skew") >= 0);
    assert_eq!(
        m.counter("fleet.transport.sent"),
        stats.transport_sent,
        "snapshot and registry agree on transport accounting"
    );
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// However the placement seed, fleet shape, kill time and storage
        /// fault rates are drawn: the global view is the shard sum, the
        /// fault invariant (node loss included) holds everywhere, the
        /// histograms account every element, and the run replays
        /// byte-identically.
        #[test]
        fn fleet_storms_hold_their_invariants(
            seed in any::<u64>(),
            nodes in 2usize..5,
            shards in 2usize..6,
            kill_ms in 300i64..2_500,
            transient in 0.0f64..0.3,
            sessions in 6usize..16,
        ) {
            let migration = seed & 1 == 0;
            let names: Vec<String> =
                (0..4).map(|i| format!("clip{i}")).collect();
            let plans: Vec<FaultPlan> = (0..shards)
                .map(|i| {
                    FaultPlan::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9))
                        .with_transient(transient)
                })
                .collect();
            let run = || {
                let db = fleet_db(&names, shards, seed, &plans);
                let mut fleet =
                    Fleet::new(db, nodes, Capacity::new(300_000_000).admit_all())
                        .with_cache_budget(8 << 20)
                        .with_migration(migration)
                        .with_fault_plan(
                            1,
                            NodeFaultPlan::new().with_crash(t(kill_ms)),
                        );
                let viewers = names.iter().cycle().take(sessions);
                let opened = wave(|at, r| fleet.request(at, r).ok(), viewers, 150);
                let stats = fleet.finish();
                fleet.check_invariants().unwrap();
                let render = fleet.metrics().render();
                (stats, opened, render)
            };
            let (stats, opened, metrics) = run();

            let mut rebuilt = ServerStats::empty();
            for s in &stats.shards.per_shard {
                rebuilt.absorb(s);
            }
            prop_assert_eq!(&rebuilt, &stats.shards.global);
            for s in stats
                .shards
                .per_shard
                .iter()
                .chain(std::iter::once(&stats.shards.global))
            {
                prop_assert_eq!(
                    s.faults_detected,
                    s.degraded_elements + s.dropped_elements + s.repaired_elements
                );
                prop_assert_eq!(s.service.count() as usize, s.elements_served);
                prop_assert_eq!(s.lateness.count() as usize, s.deadline_misses);
            }
            if migration {
                prop_assert_eq!(stats.elements_shed, 0);
            }

            let (stats_again, opened_again, metrics_again) = run();
            prop_assert_eq!(stats, stats_again);
            prop_assert_eq!(opened, opened_again);
            prop_assert_eq!(metrics, metrics_again);
        }
    }
}
