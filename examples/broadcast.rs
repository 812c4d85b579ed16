//! One hot movie, many viewers: the serving layer under a broadcast-shaped
//! load.
//!
//! The paper models media storage and interpretation; delivery is where the
//! model meets "millions of users". Every run below is one scenario of
//! `tbm_bench::scenario` — the same values the tests assert on and
//! `exp_claims` measures — run once and printed as a report. Pick one by
//! name; no argument runs `hot`.
//!
//! * `hot` — one scalable movie, twelve staggered viewers, a server that
//!   fits ~2.5 full-fidelity streams: admission admits, degrades (base
//!   layer only) or rejects each arrival, and the shared segment cache
//!   collapses the overlapping reads of everyone it admits. The run is
//!   traced: a Chrome `trace_event` JSON lands in
//!   `target/broadcast_trace.json` (open it in <https://ui.perfetto.dev>)
//!   next to a deadline-miss attribution summary.
//! * `tier-blackout` — the broadcast off a tiered store (fast primary over
//!   a slow replica) whose primary blacks out mid-run: reads fail over, the
//!   circuit breaker trips and later heals, and not one element is dropped.
//! * `shards` — a whole catalog through the shard-aware front end: four
//!   shards by the stable name hash, each with its own admission budget
//!   and cache; per-shard breakdown, `shard.skew` gauge, exact rollup.
//! * `fleet-kill` — the sharded catalog on a simulated four-node fleet
//!   with a node killed mid-broadcast: shards fail over with a catalog
//!   handoff, in-flight sessions ride through the migration, the stall
//!   shows up under the `node-loss` miss cause, and the node's restart
//!   brings its shards home.
//! * `telemetry` — the fleet broadcast with the telemetry plane sampling
//!   every server on the simulated clock, then typed `scan → filter →
//!   aggregate` questions answered from the model-compressed store (see
//!   `cargo run --example query` for the full tour).
//! * `slo-storm` — the health plane armed with every built-in SLO rule
//!   while node 1 browns out to 25 % health: the sustained imbalance trips
//!   the slow-window `load-skew` alert (and only it), hysteresis closes it
//!   after the recovery, and the closed alert prints its incident report.
//! * `slo-remediate` — the same brownout with the loop closed: the alert
//!   opens, the playbook's guarded rebalance moves one shard off the
//!   browned node, verification holds it, and the alert closes — zero
//!   operator input; prints the action log and the remediation timeline.
//!
//! ```text
//! cargo run --example broadcast
//! cargo run --example broadcast -- fleet-kill
//! ```

use tbm::obs::validate_json;
use tbm::prelude::*;
use tbm::query::Outcome;
use tbm_bench::scenario::{
    brownout_plan, demand, open_play, t, Arrival, FleetKill, Hot, Shards, SloStorm, Telemetry,
    TierBlackout,
};

const SCENARIOS: [(&str, fn()); 7] = [
    ("hot", hot),
    ("tier-blackout", tier_blackout),
    ("shards", shards),
    ("fleet-kill", fleet_kill),
    ("telemetry", telemetry),
    ("slo-storm", slo_storm),
    ("slo-remediate", slo_remediate),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted = match args.as_slice() {
        [] => Some("hot"),
        [name] => Some(name.as_str()),
        _ => None,
    };
    match SCENARIOS.iter().find(|(name, _)| Some(*name) == wanted) {
        Some((_, run)) => run(),
        None => {
            let names: Vec<&str> = SCENARIOS.iter().map(|(name, _)| *name).collect();
            eprintln!("usage: broadcast [SCENARIO] — got {args:?}");
            eprintln!("scenarios: {}", names.join(" "));
            std::process::exit(2);
        }
    }
}

/// `viewer  3 at  450 ms{what}: admitted` — one line per arrival.
fn print_arrival(i: usize, stagger_ms: usize, what: &str, arrival: &Arrival) {
    let decision = arrival.decision.expect("every open was answered");
    println!("viewer {i:2} at {:>4} ms{what}: {decision}", i * stagger_ms);
}

fn print_misses_by_cause(report: &AttributionReport) {
    println!("deadline misses by cause:");
    for (cause, n) in report.by_cause() {
        println!("  {:>22}: {n}", cause.as_str());
    }
}

fn hot() {
    let (server, arrivals) = Hot::DEMO.run();
    println!(
        "hot object: {} frames, full fidelity demands {} B/s",
        Hot::DEMO.clip.0,
        demand(server.db(), "video1", None)
    );
    println!(
        "capacity: {} B/s storage bandwidth\n",
        server.capacity().storage_bandwidth
    );
    for (n, arrival) in arrivals.iter().enumerate() {
        print_arrival(n, 150, "", arrival);
    }

    let stats = server.stats();
    println!();
    println!(
        "admitted {} (of which {} degraded), rejected {}",
        stats.sessions_admitted(),
        stats.admitted_degraded,
        stats.rejected
    );
    println!(
        "served {} elements, {} deadline misses ({:.1} % miss rate)",
        stats.elements_served,
        stats.deadline_misses,
        stats.miss_rate() * 100.0
    );
    println!(
        "cache: {} hits / {} lookups ({:.1} % hit rate), {} bytes served from cache",
        stats.cache.hits,
        stats.cache.lookups(),
        stats.cache.hit_rate() * 100.0,
        stats.cache.bytes_served
    );
    println!(
        "storage reads: {} bytes total for {} viewers of one movie",
        stats.storage_bytes_read,
        stats.sessions_admitted()
    );
    assert!(
        stats.cache.hit_rate() > 0.5,
        "overlapping sessions on one object should mostly hit the cache"
    );

    // Inspect the run: export the trace and attribute the misses.
    let out = std::path::Path::new("target/broadcast_trace.json");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).unwrap();
    }
    let mut file = std::fs::File::create(out).unwrap();
    server.trace_to_writer(&mut file).unwrap();
    let json = std::fs::read_to_string(out).unwrap();
    validate_json(&json).expect("the exported trace must be well-formed JSON");
    println!(
        "\ntrace: {} events written to {} (open in https://ui.perfetto.dev)",
        server.trace().records.len(),
        out.display()
    );
    let report = server.attribution();
    if report.total() == 0 {
        println!("no deadline misses to attribute");
    } else {
        print_misses_by_cause(&report);
    }
}

fn tier_blackout() {
    println!("broadcast over a tiered store; primary tier blacks out [150ms, 700ms)\n");
    let server = TierBlackout::demo().run();
    let (stats, store) = (server.stats(), server.db().store());
    println!(
        "{:<10}{:>8}{:>9}{:>8}{:>14}{:>10}",
        "tier", "serves", "faults", "opens", "hedged probes", "breaker"
    );
    println!("{}", "-".repeat(59));
    for ts in store.tier_stats() {
        println!(
            "{:<10}{:>8}{:>9}{:>8}{:>14}{:>10}",
            ts.name, ts.serves, ts.faults, ts.breaker_opens, ts.hedged_probes, ts.state
        );
    }
    println!(
        "\nserved {} elements across {} sessions: {} dropped, {} failover reads",
        stats.elements_served,
        stats.finished_sessions,
        stats.dropped_elements,
        store.failover_reads()
    );
    assert_eq!(
        stats.dropped_elements, 0,
        "the replica tier must carry the blackout without a single drop"
    );
    assert!(
        store.failover_reads() > 0,
        "the blackout must force reads over the failover path"
    );
    assert_eq!(
        store.breaker_state(0),
        Some(BreakerState::Closed),
        "the primary's breaker must heal once the outage ends"
    );
    println!("breaker tripped and healed; zero drops — the broadcast survived the outage");
}

fn shards() {
    let (server, arrivals) = Shards::DEMO.run();
    let shards = server.shard_count();
    println!(
        "catalog of 8 movies over {shards} shard(s), seed {}:",
        Shards::SEED
    );
    for (i, shard) in server.shards().enumerate() {
        for name in shard.db().object_names() {
            print!("  {name}→{i}");
        }
    }
    println!("\n");
    for (i, arrival) in arrivals.iter().enumerate() {
        let owner = server.shard_for(&arrival.object);
        let what = format!(" wants {} (shard {owner})", arrival.object);
        print_arrival(i, 120, &what, arrival);
        if let Some(id) = arrival.session {
            assert_eq!(
                server.shard_of_session(id),
                Some(owner),
                "session must be admitted by the shard its object hashes to"
            );
        }
    }

    let stats = server.stats();
    let row = |name: &str, s: &ServerStats| {
        println!(
            "{name:<8}{:>14}{:>10}{:>8}{:>10.1}%",
            format!("{}/{}/{}", s.admitted, s.admitted_degraded, s.rejected),
            s.elements_served,
            s.deadline_misses,
            s.cache.hit_rate() * 100.0
        );
    };
    println!(
        "\n{:<8}{:>14}{:>10}{:>8}{:>11}",
        "shard", "adm/deg/rej", "elements", "misses", "hit rate"
    );
    println!("{}", "-".repeat(51));
    for (i, s) in stats.per_shard.iter().enumerate() {
        row(&i.to_string(), s);
    }
    println!("{}", "-".repeat(51));
    let g = &stats.global;
    row("global", g);
    println!(
        "\nshard.skew gauge: {}% (hottest shard vs per-shard mean)",
        server.metrics().gauge("shard.skew")
    );

    // Cross-shard invariants: the global view is the exact shard sum, and
    // the fault invariant survives the rollup.
    let mut rebuilt = ServerStats::empty();
    for s in &stats.per_shard {
        rebuilt.absorb(s);
    }
    assert_eq!(rebuilt, stats.global, "global stats must be the shard sum");
    for s in stats.per_shard.iter().chain(std::iter::once(g)) {
        assert_eq!(
            s.faults_detected,
            s.degraded_elements + s.dropped_elements + s.repaired_elements
        );
    }
    assert_eq!(
        g.admitted + g.admitted_degraded + g.rejected,
        16,
        "every viewer got exactly one admission decision"
    );
    println!(
        "fleet admitted {} of 16 viewers across {shards} shard(s); rollup exact, \
         fault invariant holds per shard and globally",
        g.sessions_admitted()
    );
}

fn fleet_kill() {
    let (mut fleet, names) = FleetKill::DEMO.build();
    println!("catalog of 8 movies over 8 shards on 4 nodes; node 1 dies at 900 ms:\n");
    println!("initial placement:\n{}", fleet.placement().render());
    // The wave, spelled out: each line names the node hosting the movie at
    // the moment it was opened, so the failover is visible as it happens.
    for (i, name) in names.iter().cycle().take(16).enumerate() {
        let request = &mut |at, r| fleet.request(at, r).ok();
        let arrival = open_play(request, t(i as i64 * 120), name);
        let node = fleet.placement().node_of_object(name);
        print_arrival(i, 120, &format!(" wants {name} (node {node})"), &arrival);
    }

    let stats = fleet.finish();
    println!(
        "\n{:<8}{:>6}{:>8}{:>10}{:>9}{:>10}{:>8}",
        "node", "up", "hosted", "elements", "crashes", "restarts", "trips"
    );
    println!("{}", "-".repeat(59));
    for n in &stats.per_node {
        println!(
            "{:<8}{:>6}{:>8}{:>10}{:>9}{:>10}{:>8}",
            n.name,
            if n.up { "yes" } else { "no" },
            n.hosted.len(),
            n.elements_served,
            n.crashes,
            n.restarts,
            n.breaker_trips
        );
    }
    println!(
        "\n{} migrations moved {} handoff bytes; {} sent / {} lost on the wire",
        stats.migrations, stats.handoff_bytes, stats.transport_sent, stats.transport_lost
    );
    println!(
        "served {} elements, {} dropped, {} shed; {} deadline misses",
        stats.shards.global.elements_served,
        stats.shards.global.dropped_elements,
        stats.elements_shed,
        stats.shards.global.deadline_misses
    );
    let report = fleet.attribution();
    if report.total() > 0 {
        print_misses_by_cause(&report);
    }

    assert_eq!(
        stats.shards.global.dropped_elements, 0,
        "the kill must not cost a single verified serve"
    );
    assert!(stats.migrations > 0, "the kill must actually move shards");
    assert!(stats.per_node[1].up, "node 1 must be back up at the end");
    let placement = fleet.placement();
    for s in 0..placement.shard_count() {
        assert_eq!(
            placement.node_of_shard(s),
            placement.home_of(s),
            "the restart must bring every shard home"
        );
    }
    println!(
        "\nnode 1 died, its shards failed over, and the salvage restart brought them \
         home — zero drops"
    );
}

fn telemetry() {
    println!("fleet broadcast with the telemetry plane sampling every 50 ms\n");
    let (fleet, telemetry) = Telemetry::demo().run();
    let store = telemetry.store().expect("the plane ticked");
    println!(
        "telemetry: {} series / {} segments over {} points, {:.1}x compression at 1% error\n",
        store.series_count(),
        store.segment_count(),
        store.point_count(),
        store.compression_ratio()
    );
    let ctx = QueryCtx::from_fleet(&fleet).with_telemetry(store);
    for q in [
        Query::scan(Source::Sessions).filter(Predicate::Degraded(true)),
        Query::scan(Source::Misses).aggregate(Aggregate::Count),
        Query::scan(Source::Metrics)
            .filter(Predicate::MetricIs(Metric::CacheHitPct))
            .aggregate(Aggregate::Mean),
        Query::scan(Source::Metrics)
            .filter(Predicate::MetricIs(Metric::LatenessUs))
            .aggregate(Aggregate::Quantile(99)),
    ] {
        println!("{}", q.run(&ctx).expect("typed and backed").render());
    }
    assert!(store.series_count() > 0, "the plane must have sampled");
    println!("post-run report answered from segment models only");
}

fn print_opens(monitor: &HealthMonitor) {
    println!("{:<22}{:>8}", "rule", "opens");
    println!("{}", "-".repeat(30));
    for rule in monitor.rules() {
        println!("{:<22}{:>8}", rule.name, monitor.opens(&rule.name));
    }
}

fn slo_storm() {
    let (fleet, telemetry) = SloStorm::under(Some(brownout_plan())).run();
    let monitor = telemetry.health().expect("health plane attached");
    println!("health plane armed with {} rules:", monitor.rules().len());
    for rule in monitor.rules() {
        println!("  {}", rule.describe());
    }
    println!("\nnode 1 browns out to 25% health over [4s, 8s)\n");
    print_opens(monitor);
    println!(
        "\nhealth counters: {} opened / {} closed",
        fleet.metrics().counter("health.alerts.opened"),
        fleet.metrics().counter("health.alerts.closed")
    );
    for report in telemetry.incident_reports() {
        println!("\n{}", report.render());
    }

    // The brownout fires exactly its predicted alert, exactly once.
    for rule in monitor.rules() {
        assert_eq!(
            monitor.opens(&rule.name),
            u64::from(rule.name == "load-skew"),
            "{}: the brownout must fire load-skew and nothing else",
            rule.name
        );
    }
    assert!(
        monitor.open_alerts().is_empty(),
        "hysteresis must close the alert after the recovery"
    );
    assert_eq!(telemetry.incident_reports().len(), 1);
    println!("the brownout fired exactly the load-skew alert; report rendered above");
}

fn slo_remediate() {
    let playbook = Some(Playbook::default_rules());
    let storm = SloStorm::under(Some(brownout_plan()));
    let (fleet, telemetry) = SloStorm { playbook, ..storm }.run();
    let monitor = telemetry.health().expect("health plane attached");
    let rem = telemetry.remediator().expect("remediator attached");
    println!("health plane armed; remediation playbook:");
    for e in rem.playbook().entries() {
        println!(
            "  on {:<20} {} (budget {}, refill {}t, cooldown {}t, verify {}t)",
            e.rule, e.action, e.budget, e.refill_ticks, e.cooldown_ticks, e.verify_ticks
        );
    }
    println!("\nnode 1 browns out to 25% health over [4s, 8s) — no operator on call\n");
    print_opens(monitor);
    println!("\nremediation action log:");
    print!("{}", rem.render_log());
    let metrics = fleet.metrics();
    println!(
        "\nremediation counters: {} applied / {} rolled back / {} suppressed",
        metrics.counter("remediation.actions.applied"),
        metrics.counter("remediation.actions.rolled_back"),
        metrics.counter("remediation.actions.suppressed")
    );
    for report in telemetry.incident_reports() {
        println!("\n{}", report.render());
    }

    // The closed loop's contract: the skew alert opened exactly once, a
    // guarded rebalance was applied (and never rolled back), and every
    // alert is closed by the end — with nobody at the keyboard.
    assert_eq!(monitor.opens("load-skew"), 1, "the brownout must alert");
    assert!(
        rem.records()
            .iter()
            .any(|r| r.rule == "load-skew" && r.outcome == Outcome::Applied),
        "the playbook must apply a rebalance"
    );
    assert_eq!(metrics.counter("remediation.actions.rolled_back"), 0);
    assert!(!rem.frozen(), "a clean remediation must not freeze");
    assert!(
        monitor.open_alerts().is_empty(),
        "every alert must close on its own: {:?}",
        monitor.open_alerts()
    );
    println!("load-skew opened, the playbook rebalanced, the alert closed: zero operator input");
}
