//! Fleet storm: a sharded catalog hosted on simulated nodes, one of which
//! is killed under a live session storm. Pins the tentpole guarantees:
//! live migration keeps every verified serve (zero drops, against a
//! no-migration baseline that sheds), the fault invariant extends to
//! node loss, stalls are attributed to the `node-loss` miss cause, and
//! same-seed runs replay byte-identically — traces included.

use tbm::codec::dct::DctParams;
use tbm::interp::capture::capture_video_scalable;
use tbm::interp::Interpretation;
use tbm::media::gen::{render_frames, VideoPattern};
use tbm::prelude::*;
use tbm::time::{TimeDelta, TimePoint, TimeSystem};

const FRAMES: usize = 20; // 20 PAL frames = 800 ms of playback per session

fn t(ms: i64) -> TimePoint {
    TimePoint::ZERO + TimeDelta::from_millis(ms)
}

/// A sharded catalog of `names` scalable movies, each captured into the
/// store of the shard that [`shard_of`] assigns it, wrapped in that
/// shard's fault plan (pass zero-rate plans for clean storage).
fn fleet_db(
    names: &[String],
    shards: usize,
    seed: u64,
    plans: &[FaultPlan],
) -> ShardedDb<FaultyBlobStore<MemBlobStore>> {
    assert_eq!(plans.len(), shards);
    let mut stores: Vec<MemBlobStore> = (0..shards).map(|_| MemBlobStore::new()).collect();
    let frames = render_frames(VideoPattern::MovingBar, 0, FRAMES, 48, 32);
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

fn clean_plans(shards: usize, seed: u64) -> Vec<FaultPlan> {
    (0..shards)
        .map(|i| FaultPlan::new(seed ^ i as u64))
        .collect()
}

/// Runs a `sessions`-session storm (staggered 150 ms apart, objects
/// picked round-robin) over a fleet with node 1 killed at 1.5 s and
/// restarted at 6 s. Returns the final stats, every `(object, session)`
/// pair (None = not admitted or unreachable), and the rendered metrics.
fn kill_storm(
    names: &[String],
    shards: usize,
    nodes: usize,
    seed: u64,
    sessions: usize,
    migration: bool,
    tracer: Option<Tracer>,
) -> (FleetStats, Vec<(String, Option<SessionId>)>, String) {
    let db = fleet_db(names, shards, seed, &clean_plans(shards, seed));
    let mut fleet = Fleet::new(db, nodes, Capacity::new(400_000_000).admit_all())
        .with_cache_budget(16 << 20)
        .with_migration(migration)
        .with_fault_plan(
            1,
            NodeFaultPlan::new().with_crash_restart(t(1_500), t(6_000)),
        );
    if let Some(tr) = tracer {
        fleet = fleet.with_tracer(tr);
    }
    let mut opened = Vec::new();
    for i in 0..sessions {
        let at = t(i as i64 * 150);
        let name = names[i % names.len()].clone();
        match fleet.request(
            at,
            Request::Open {
                object: name.clone(),
            },
        ) {
            Ok(Response::Opened { session, .. }) => {
                if let Some(id) = session {
                    // A Play can also be unreachable in the baseline arm;
                    // the session is then accounted as shed or left open.
                    let _ = fleet.request(at, Request::Play { session: id });
                }
                opened.push((name, session));
            }
            Ok(other) => panic!("Open answered {other:?}"),
            Err(FleetError::Unreachable { .. }) => opened.push((name, None)),
            Err(e) => panic!("unexpected fleet error: {e}"),
        }
    }
    let stats = fleet.finish();
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

    (stats, opened, fleet.metrics().render())
}

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("movie{i}")).collect()
}

#[test]
fn killing_one_of_four_nodes_drops_nothing_when_migration_is_live() {
    let names = names(8);
    let seed = 0xF1EE7;
    let (with_migration, opened, _) = kill_storm(&names, 8, 4, seed, 24, true, None);
    let (baseline, _, _) = kill_storm(&names, 8, 4, seed, 24, false, None);

    // The migrating fleet admits and finishes every session and serves
    // every element of every schedule: the node kill costs zero serves.
    assert!(
        opened.iter().all(|(_, s)| s.is_some()),
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
}

#[test]
fn migration_stalls_are_attributed_to_node_loss() {
    let names = names(8);
    let tracer = Tracer::new();
    let (stats, _, _) = kill_storm(&names, 8, 4, 0xF1EE7, 24, true, Some(tracer.clone()));

    assert!(
        stats.shards.global.deadline_misses > 0,
        "the handoff stall must cost some deadlines"
    );
    let report = attribute(&tracer.snapshot().records);
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
    let names = names(6);
    let run = || {
        let tracer = Tracer::new();
        let (stats, opened, metrics) =
            kill_storm(&names, 4, 4, 0xBEEF, 18, true, Some(tracer.clone()));
        let mut trace = Vec::new();
        tbm::obs::chrome_trace_to_writer(&tracer.snapshot(), &mut trace).unwrap();
        (stats, opened, metrics, trace)
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
    let mut ids = Vec::new();
    for i in 0..8 {
        let at = t(i as i64 * 400);
        let name = names[i % names.len()].clone();
        let Response::Opened { session, .. } = fleet
            .request(at, Request::Open { object: name })
            .expect("failover must keep every open reachable")
        else {
            panic!("Open answers Opened");
        };
        let id = session.expect("ample capacity admits");
        fleet.request(at, Request::Play { session: id }).unwrap();
        ids.push(id);
    }
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
    let (_, stream) = probe.shard(0).stream_of(&names[0]).unwrap();
    let full_jobs = tbm::player::schedule_from_interp(stream, None);
    let full = tbm::player::demanded_rate(&full_jobs, stream.system())
        .unwrap()
        .ceil() as u64;

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
    for (i, name) in names.iter().enumerate() {
        let at = t(i as i64 * 100);
        if let Ok(Response::Opened {
            session: Some(id), ..
        }) = fleet.request(
            at,
            Request::Open {
                object: name.clone(),
            },
        ) {
            fleet.request(at, Request::Play { session: id }).unwrap();
        }
    }
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
                let mut opened = Vec::new();
                for i in 0..sessions {
                    let at = t(i as i64 * 150);
                    let name = names[i % names.len()].clone();
                    match fleet.request(at, Request::Open { object: name.clone() }) {
                        Ok(Response::Opened { session, .. }) => {
                            if let Some(id) = session {
                                let _ = fleet.request(at, Request::Play { session: id });
                            }
                            opened.push((name, session));
                        }
                        Ok(_) => unreachable!("Open answers Opened"),
                        Err(_) => opened.push((name, None)),
                    }
                }
                let stats = fleet.finish();
                fleet.check_invariants().unwrap();
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
