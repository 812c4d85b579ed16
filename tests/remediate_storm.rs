//! Remediation storm: the guarded auto-remediation plane riding the PR 8
//! health storms end to end. Pins the tentpole guarantees: a brownout's
//! `load-skew` alert is remediated by a rebalance and closes measurably
//! sooner than the remediation-off baseline with zero operator input; a
//! node kill's lateness alert closes under the default playbook with the
//! actions stamped into the incident report; an action that makes burn
//! *worse* is rolled back within its verification window (placement
//! restored, the record says `rolled back`); repeated rollbacks trip the
//! freeze switch and every later attempt is suppressed; the `shard.skew`
//! gauge and the `SkewBelow` objective share one skew definition; and
//! same-seed runs produce byte-identical action logs and reports.

use tbm::obs::Category;
use tbm::prelude::*;
use tbm::query::{Outcome, SuppressReason, Verdict};
use tbm_bench::scenario::{brownout_plan, catalog, full_rate, kill_plan, t, SloStorm, INTERVAL_MS};

const SEED: u64 = 23;

/// The SLO storm under `fault` with the health plane riding every tick
/// and, when `playbook` is given, the remediation plane closing the loop.
fn storm(fault: Option<NodeFaultPlan>, playbook: Option<Playbook>) -> (Fleet, FleetTelemetry) {
    let mut storm = SloStorm::under(fault);
    storm.playbook = playbook;
    storm.run()
}

/// The brownout storm's surgical playbook: rebalance on skew, nothing
/// else, so the comparison against the off arm isolates one action.
fn skew_playbook() -> Playbook {
    Playbook::new().on("load-skew", Action::RebalanceShards { min_skew_pct: 50 })
}

fn incident_duration(telemetry: &FleetTelemetry, rule: &str) -> u32 {
    let monitor = telemetry.health().expect("health attached");
    let inc = monitor
        .incidents()
        .iter()
        .find(|i| i.rule == rule)
        .unwrap_or_else(|| panic!("{rule} must close (open: {:?})", monitor.open_alerts()));
    inc.closed_tick - inc.opened_tick + 1
}

#[test]
fn brownout_load_skew_heals_itself_with_zero_operator_input() {
    let (fleet, on) = storm(Some(brownout_plan()), Some(skew_playbook()));
    let (_, off) = storm(Some(brownout_plan()), None);

    // The alert opens in both arms — the remediator reacts to alerts, it
    // does not prevent them.
    let monitor = on.health().unwrap();
    assert_eq!(monitor.opens("load-skew"), 1, "the brownout must alert");
    assert!(
        monitor.open_alerts().is_empty(),
        "remediated skew must close"
    );

    // The rebalance was applied (not suppressed, not a no-op), it moved a
    // shard off the browned node 1, and verification did not revert it.
    let rem = on.remediator().expect("remediator attached");
    let applied: Vec<_> = rem
        .records()
        .iter()
        .filter(|r| r.outcome == Outcome::Applied)
        .collect();
    assert!(!applied.is_empty(), "log:\n{}", rem.render_log());
    assert!(
        rem.render_log()
            .lines()
            .any(|l| l.contains("[load-skew] rebalance-shards") && l.contains(" applied")),
        "the rendered log must show the applied rebalance:\n{}",
        rem.render_log()
    );
    assert!(
        applied[0].detail.contains("node1→"),
        "{}",
        applied[0].detail
    );
    assert!(
        applied
            .iter()
            .all(|r| r.verdict != Some(Verdict::RolledBack)),
        "a correct rebalance must stand:\n{}",
        rem.render_log()
    );
    assert!(!rem.frozen());

    // Measurably better: the remediated incident is strictly shorter than
    // the baseline's, which waits out the brownout.
    let dur_on = incident_duration(&on, "load-skew");
    let dur_off = incident_duration(&off, "load-skew");
    assert!(
        dur_on < dur_off,
        "remediation must shorten the incident ({dur_on} vs {dur_off} ticks)"
    );

    // Observability: one Remediation span per attempt with rule/action
    // attrs, counters in the rollup, and the action stamped into the
    // incident report's timeline.
    let trace = fleet.trace();
    let spans: Vec<_> = trace
        .records
        .iter()
        .filter(|r| r.cat == Category::Remediation)
        .collect();
    assert!(!spans.is_empty(), "applied actions must trace");
    assert_eq!(
        spans[0].attr("rule").and_then(|v| v.as_str()),
        Some("load-skew")
    );
    assert!(spans[0].end.is_some(), "verification must close the span");
    let metrics = fleet.metrics();
    assert!(metrics.counter("remediation.actions.applied") >= 1);
    assert_eq!(metrics.counter("remediation.actions.rolled_back"), 0);

    let report = on
        .incident_reports()
        .iter()
        .find(|r| r.incident.rule == "load-skew")
        .expect("the closed incident expands into a report");
    let text = report.render();
    assert!(text.contains("remediation timeline:"), "{text}");
    assert!(text.contains("rebalance-shards"), "{text}");
    assert!(text.contains("applied"), "{text}");
}

#[test]
fn kill_storm_default_playbook_closes_the_lateness_alert() {
    let (fleet, telemetry) = storm(Some(kill_plan()), Some(Playbook::default_rules()));
    let monitor = telemetry.health().unwrap();
    assert_eq!(monitor.opens("lateness-p99-full"), 1, "the kill must alert");
    assert!(
        monitor.open_alerts().is_empty(),
        "the remediated alert must close: {:?}",
        monitor.open_alerts()
    );

    // The escalation ladder ran: the derate-and-degrade entry applied
    // (evacuation is a guarded no-op here — the crash already failed the
    // shards over), sessions were forced to their base layer, and nothing
    // needed rolling back.
    let rem = telemetry.remediator().unwrap();
    assert!(
        rem.records().iter().any(|r| r.rule == "lateness-p99-full"
            && r.outcome == Outcome::Applied
            && r.detail.contains("forced")),
        "log:\n{}",
        rem.render_log()
    );
    let metrics = fleet.metrics();
    assert!(metrics.counter("remediation.actions.applied") >= 1);
    assert!(metrics.counter("serve.sessions.force_degraded") >= 1);
    assert_eq!(metrics.counter("remediation.actions.rolled_back"), 0);
    assert_eq!(fleet.admission_derate(), 70, "the derate must stick");

    // The report tells the whole story: what broke, what the system did.
    let report = &telemetry.incident_reports()[0];
    let text = report.render();
    assert!(text.starts_with("incident: lateness-p99-full\n"), "{text}");
    assert!(text.contains("remediation timeline:"), "{text}");
    assert!(text.contains("derate-admission"), "{text}");
}

/// The first `n` probe names whose owning shard (out of `shards`)
/// satisfies `want`, exactly `per_shard` names per distinct shard.
fn names_owned_by(shards: usize, want: impl Fn(usize) -> bool, per_shard: usize) -> Vec<String> {
    let mut counts = vec![0usize; shards];
    let mut names = Vec::new();
    let mut i = 0u32;
    while names.len() < per_shard * (0..shards).filter(|&s| want(s)).count() {
        let name = format!("clip{i}");
        let owner = shard_of(&name, SEED, shards);
        if want(owner) && counts[owner] < per_shard {
            counts[owner] += 1;
            names.push(name);
        }
        i += 1;
    }
    names
}

/// A fleet of `nodes` over a tiny catalog (25 PAL frames per name, over
/// `shards` shards), with `headroom` sessions' worth of capacity per node
/// and one open session per name.
fn mini_fleet(nodes: usize, shards: usize, names: &[String], headroom: u64) -> Fleet {
    let db = catalog(names, shards, SEED, (25, 48, 32));
    let full_bps = full_rate(&db, &names[0]);
    let mut fleet = Fleet::new(db, nodes, Capacity::new(full_bps * headroom).admit_all())
        .with_tracer(Tracer::new());
    for (k, name) in names.iter().enumerate() {
        let Ok(Response::Opened {
            session: Some(_), ..
        }) = fleet.request(
            t(k as i64),
            Request::Open {
                object: name.clone(),
            },
        )
        else {
            panic!("ample capacity admits");
        };
    }
    fleet
}

/// A real two-node fleet with every session pinned to node 0's shards —
/// genuinely skewed, so `RebalanceShards` has something to move. Two
/// sessions each on shards 0 and 2 put node 0 at ~66% and node 1 at 0%.
fn skewed_fleet() -> Fleet {
    let names = names_owned_by(4, |s| s % 2 == 0, 2);
    mini_fleet(2, 4, &names, 6)
}

#[test]
fn rebalance_guards_hold_when_there_is_nothing_safe_to_move() {
    let at = t(1_000);

    // A single-node fleet has nowhere to move a shard, however loaded.
    let mut single = mini_fleet(1, 2, &names_owned_by(2, |_| true, 1), 6);
    assert_eq!(single.rebalance_on_skew(at, 0), None);
    assert_eq!(single.metrics().counter("fleet.migrations"), 0);

    // A balanced fleet — one session per shard, two shards per node —
    // sits below any sane threshold: moving anything would *create* skew.
    let mut balanced = mini_fleet(2, 4, &names_owned_by(4, |_| true, 1), 6);
    assert_eq!(balanced.rebalance_on_skew(at, 10), None);
    assert_eq!(balanced.metrics().counter("fleet.migrations"), 0);

    // A hot node hosting a single shard cannot shed load without merely
    // relocating the hot spot — the guard refuses the churn.
    let mut lumpy = mini_fleet(2, 2, &names_owned_by(2, |s| s == 0, 2), 6);
    assert_eq!(lumpy.rebalance_on_skew(at, 10), None);
    assert_eq!(lumpy.metrics().counter("fleet.migrations"), 0);

    // The positive control: a genuinely skewed fleet yields exactly one
    // move, off the hot node — after which the fleet is balanced and a
    // second call is a no-op again.
    let mut skewed = skewed_fleet();
    let mv = skewed
        .rebalance_on_skew(at, 10)
        .expect("100% skew must rebalance");
    assert_eq!(mv.from, 0, "the move comes off the hot node");
    assert_eq!(mv.to, 1, "and lands on the cold one");
    assert_eq!(skewed.metrics().counter("fleet.migrations"), 1);
    assert_eq!(skewed.rebalance_on_skew(at, 10), None, "now balanced");
    assert_eq!(skewed.metrics().counter("fleet.migrations"), 1);
}

#[test]
fn requests_alone_never_rebalance_a_skewed_fleet() {
    // Three nodes over six shards, every session on node 0's shards 0 and
    // 3: 200 % skew. With no playbook attached nothing but a fault moves a
    // shard — the request plane only serves.
    let mut fleet = mini_fleet(3, 6, &names_owned_by(6, |s| s % 3 == 0, 2), 6);
    let ids: Vec<SessionId> = fleet.sessions().map(|s| s.id()).collect();
    for (k, &id) in ids.iter().enumerate() {
        let at = t(100 + 600 * k as i64);
        fleet.request(at, Request::Play { session: id }).unwrap();
    }
    assert_eq!(fleet.metrics().counter("fleet.migrations"), 0);
    // The positive control: the skew was there for a rebalancer to act on.
    assert!(
        fleet.rebalance_on_skew(t(2_000), 150).is_some(),
        "the fixture must be skewed past 150 %"
    );
}

/// The NodeLoadPct series key the skew rule judges.
fn load_key(node: u16) -> SeriesKey {
    SeriesKey {
        node,
        shard: None,
        metric: Metric::NodeLoadPct,
        degraded: false,
    }
}

#[test]
fn worsening_burn_rolls_back_within_the_verification_window_then_freezes() {
    // A real skewed fleet, but the monitor is fed synthetic load samples
    // whose skew keeps *worsening* after every apply — the deterministic
    // stand-in for "the rebalance made it worse" (a partition would do
    // this organically). Every verification must roll the move back,
    // three rollbacks must trip the freeze switch, and the incident
    // report must say `rolled back`.
    let mut fleet = skewed_fleet();
    let home = fleet.placement().node_of_shard(0);
    let mut monitor = HealthMonitor::new(TimeDelta::from_millis(INTERVAL_MS)).rule(
        SloRule::load_skew_below(60.0)
            .windows(2, 4)
            .triggers(2.0, 1.0)
            .clear_after(2),
    );
    let mut rem = Remediator::new(
        Playbook::new()
            .on("load-skew", Action::RebalanceShards { min_skew_pct: 10 })
            .budget(8)
            .refill(0)
            .cooldown(3)
            .verify(2),
    )
    .freeze_after(3, 100);

    let mut moved: Option<usize> = None;
    for tick in 0u32..18 {
        let at = t(i64::from(tick) * INTERVAL_MS);
        // Ticks 0–10: ever-worsening skew. Ticks 11+: calm, to close it.
        let hot = if tick <= 10 {
            300.0 + 50.0 * f64::from(tick)
        } else {
            10.0
        };
        let samples = vec![(load_key(0), hot), (load_key(1), 10.0), (load_key(2), 10.0)];
        let transitions = monitor.observe_tick(at, &samples);
        rem.on_tick(&mut fleet, &monitor, &transitions, tick, at);
        if moved.is_none() {
            if let Some(r) = rem.records().iter().find(|r| r.outcome == Outcome::Applied) {
                moved = Some(r.tick as usize);
                // The move is real: some shard left its home node.
                assert!(
                    (0..fleet.shard_count())
                        .any(|s| fleet.placement().node_of_shard(s)
                            != fleet.placement().home_of(s)),
                    "an applied rebalance must change placement"
                );
            }
        }
    }

    // Every applied action was rolled back: placement is fully restored.
    assert!(moved.is_some(), "log:\n{}", rem.render_log());
    for s in 0..fleet.shard_count() {
        assert_eq!(
            fleet.placement().node_of_shard(s),
            fleet.placement().home_of(s),
            "rollback must restore placement (shard {s})"
        );
    }
    assert_eq!(fleet.placement().node_of_shard(0), home);

    let rolled: Vec<_> = rem
        .records()
        .iter()
        .filter(|r| r.verdict == Some(Verdict::RolledBack))
        .collect();
    assert_eq!(rolled.len(), 3, "log:\n{}", rem.render_log());
    assert!(rem.frozen(), "three rollbacks must freeze the plane");
    assert!(
        rem.records()
            .iter()
            .any(|r| r.outcome == Outcome::Suppressed(SuppressReason::Frozen)),
        "post-freeze attempts must be suppressed:\n{}",
        rem.render_log()
    );
    let metrics = fleet.metrics();
    assert_eq!(metrics.counter("remediation.actions.rolled_back"), 3);
    assert!(metrics.counter("remediation.actions.suppressed") >= 1);
    assert!(
        metrics.counter("fleet.migrations") >= 6,
        "each apply+rollback is two migrations"
    );

    // The alert closed on the calm tail; its report timeline carries the
    // rolled-back actions — exactly what the sampler stamps.
    assert_eq!(monitor.incidents().len(), 1);
    let inc = monitor.incidents()[0].clone();
    let report = IncidentReport::bare(inc.clone()).with_actions(rem.actions_for(
        &inc.rule,
        inc.opened_tick,
        inc.closed_tick,
    ));
    let text = report.render();
    assert!(text.contains("remediation timeline:"), "{text}");
    assert!(text.contains("→ rolled back"), "{text}");
    assert!(text.contains("suppressed (frozen)"), "{text}");
}

#[test]
fn skew_gauge_and_skew_alert_share_one_definition() {
    // The golden agreement pin: whatever per-node loads, the `SkewBelow`
    // objective's burn times its threshold equals the exact
    // (max − mean)/mean × 100 skew, and `skew_percent` (the `fleet.skew`
    // / `shard.skew` gauge and the rebalancer's trigger) is that same
    // value rounded. The alert and the gauge cannot tell the operator two
    // different stories.
    let threshold = 60.0;
    let cases: Vec<Vec<usize>> = vec![
        vec![80, 20, 20],
        vec![10, 10, 10],
        vec![40, 0, 0, 0],
        vec![75, 33, 12],
        vec![7, 93],
        vec![50, 25, 25, 0],
        vec![120, 80, 40, 40, 20],
    ];
    for loads in cases {
        let mut monitor = HealthMonitor::new(TimeDelta::from_millis(INTERVAL_MS)).rule(
            SloRule::load_skew_below(threshold)
                .windows(1, 1)
                .triggers(1e9, 1e9),
        );
        let samples: Vec<(SeriesKey, f64)> = loads
            .iter()
            .enumerate()
            .map(|(n, &l)| (load_key(n as u16), l as f64))
            .collect();
        monitor.observe_tick(TimePoint::ZERO, &samples);
        let (fast, slow) = monitor.burns("load-skew").expect("window filled");
        assert_eq!(fast, slow, "one tick, one window");

        let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
        let max = *loads.iter().max().unwrap() as f64;
        let exact_skew = (max - mean) / mean * 100.0;
        assert!(
            (fast * threshold - exact_skew).abs() < 1e-9,
            "burn × threshold must be the exact skew (loads {loads:?})"
        );
        assert_eq!(
            skew_percent(loads.iter().copied()),
            exact_skew.round() as i64,
            "the gauge is the same skew, rounded (loads {loads:?})"
        );
    }

    // The one sanctioned divergence: below the min-mean guard the alert
    // reads 0 (idle-fleet skew is placement noise), while the raw gauge
    // still reports the ratio.
    let quiet = [2usize, 1, 0];
    let mut monitor = HealthMonitor::new(TimeDelta::from_millis(INTERVAL_MS)).rule(
        SloRule::load_skew_below(threshold)
            .windows(1, 1)
            .triggers(1e9, 1e9),
    );
    let samples: Vec<(SeriesKey, f64)> = quiet
        .iter()
        .enumerate()
        .map(|(n, &l)| (load_key(n as u16), l as f64))
        .collect();
    monitor.observe_tick(TimePoint::ZERO, &samples);
    assert_eq!(monitor.burns("load-skew").unwrap().0, 0.0);
    assert_eq!(skew_percent(quiet.iter().copied()), 100);
}

#[test]
fn same_seed_remediation_storms_are_byte_identical() {
    let run = |playbook: fn() -> Playbook| {
        let (fleet, telemetry) = storm(Some(kill_plan()), Some(playbook()));
        let rem = telemetry.remediator().unwrap();
        let mut reports = String::new();
        for r in telemetry.incident_reports() {
            reports.push_str(&r.render());
            reports.push('\n');
        }
        (rem.render_log(), reports, fleet.metrics().render())
    };
    let (log_a, reports_a, metrics_a) = run(Playbook::default_rules);
    let (log_b, reports_b, metrics_b) = run(Playbook::default_rules);
    assert!(
        log_a.contains("applied"),
        "the log must have substance:\n{log_a}"
    );
    assert_eq!(log_a, log_b, "same seed, same action log bytes");
    assert_eq!(reports_a, reports_b, "same seed, same report bytes");
    assert_eq!(metrics_a, metrics_b, "same seed, same metrics bytes");
}
