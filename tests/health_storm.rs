//! Health storm: the SLO/burn-rate plane riding fleet storms end to end.
//! Pins the tentpole guarantees: a node kill fires exactly the alert the
//! runbook predicts (fast-window lateness) and nothing else, a brownout
//! fires exactly its predicted alert (slow-window load skew), a clean
//! same-capacity run fires none, alerts open once per fault (hysteresis —
//! no flapping), alert spans land in the trace under `Category::Health`
//! with `health.*` counters in the fleet rollup, closed alerts expand
//! into incident reports whose breakdowns are one grouped query each,
//! streaming and batch evaluation agree over a lossless store, and
//! same-seed reruns render byte-identical reports.

use tbm::obs::{Category, RecordKind};
use tbm::prelude::*;
use tbm_bench::scenario::{
    brownout_plan, kill_plan, runbook_rules, SloStorm, FAULT_MS, INTERVAL_MS,
};

/// The fault window: node 1 is killed (or browned out) at 4 s — tick 80 —
/// and restored at 8 s, while sessions opened in the first 2 s are still
/// streaming their 10 s movies.
const FAULT_TICK: u32 = (FAULT_MS.0 / INTERVAL_MS) as u32;

/// The SLO storm under `fault`, telemetry compressed at `bound`.
fn storm(fault: Option<NodeFaultPlan>, bound: ErrorBound) -> (Fleet, FleetTelemetry) {
    let mut storm = SloStorm::under(fault);
    storm.bound = bound;
    storm.run()
}

/// `(rule name, opens)` for every armed rule, in rule order.
fn opens_by_rule(telemetry: &FleetTelemetry) -> Vec<(String, u64)> {
    let monitor = telemetry.health().expect("health plane attached");
    monitor
        .rules()
        .iter()
        .map(|r| (r.name.clone(), monitor.opens(&r.name)))
        .collect()
}

#[test]
fn clean_run_fires_no_alerts() {
    let (fleet, telemetry) = storm(None, ErrorBound::percent(1.0));
    for (rule, opens) in opens_by_rule(&telemetry) {
        assert_eq!(opens, 0, "clean run must not open {rule}");
    }
    let monitor = telemetry.health().unwrap();
    assert!(monitor.incidents().is_empty());
    assert!(monitor.open_alerts().is_empty());
    assert!(telemetry.incident_reports().is_empty());
    assert_eq!(fleet.metrics().counter("health.alerts.opened"), 0);
    assert!(
        !fleet
            .trace()
            .records
            .iter()
            .any(|r| r.cat == Category::Health),
        "a quiet fleet writes no health records"
    );
}

#[test]
fn node_kill_fires_exactly_the_fast_lateness_alert() {
    let (fleet, telemetry) = storm(Some(kill_plan()), ErrorBound::percent(1.0));

    // Exactly the predicted alert, exactly once — no flapping, no
    // bycatch on the other three rules.
    for (rule, opens) in opens_by_rule(&telemetry) {
        let expected = u64::from(rule == "lateness-p99-full");
        assert_eq!(opens, expected, "{rule}: opens");
    }
    let monitor = telemetry.health().unwrap();
    assert!(monitor.open_alerts().is_empty(), "hysteresis must close it");
    assert_eq!(monitor.incidents().len(), 1);

    let inc = &monitor.incidents()[0];
    assert_eq!(inc.rule, "lateness-p99-full");
    assert!(
        (FAULT_TICK..FAULT_TICK + 10).contains(&inc.opened_tick),
        "the alert must open within 10 ticks of the kill (opened t{})",
        inc.opened_tick
    );
    // The *fast* window caught it: the opening burn already clears the
    // 2x fast trigger (a slow-window-only open would sit below it).
    let opening = inc.trajectory.first().unwrap();
    assert!(
        opening.fast >= 2.0,
        "node kill is a fast-window catch (fast {:.2}x at open)",
        opening.fast
    );
    assert!(inc.closed_tick > inc.opened_tick);
    assert_eq!(
        inc.trajectory.len() as u32,
        inc.closed_tick - inc.opened_tick + 1
    );

    // The transitions are first-class observability: one Health span in
    // the trace, opened at the alert's open tick and closed at its close,
    // and counted in the fleet's metrics rollup.
    let trace = fleet.trace();
    let health: Vec<_> = trace
        .records
        .iter()
        .filter(|r| r.cat == Category::Health)
        .collect();
    assert_eq!(health.len(), 1, "one alert span: {health:?}");
    let span = health[0];
    assert_eq!(span.name, "alert");
    assert_eq!(span.kind, RecordKind::Span);
    assert_eq!(
        span.attr("rule").and_then(|v| v.as_str()),
        Some("lateness-p99-full")
    );
    assert_eq!(span.attr_i64("open_tick"), i64::from(inc.opened_tick));
    assert!(span.end.is_some(), "the span must close with the alert");
    let metrics = fleet.metrics();
    assert_eq!(metrics.counter("health.alerts.opened"), 1);
    assert_eq!(metrics.counter("health.alerts.closed"), 1);
    assert_eq!(metrics.counter("health.alerts.opened.lateness-p99-full"), 1);

    // The closed alert expanded into a report with the grouped
    // breakdowns; the dominant miss cause during the window is the kill.
    let reports = telemetry.incident_reports();
    assert_eq!(reports.len(), 1);
    let text = reports[0].render();
    assert!(text.starts_with("incident: lateness-p99-full\n"), "{text}");
    assert!(text.contains("burn trajectory"), "{text}");
    assert!(text.contains("breakdown by node:"), "{text}");
    assert!(text.contains("breakdown by shard:"), "{text}");
    assert!(
        text.contains("node-loss"),
        "the report must attribute the kill:\n{text}"
    );
}

#[test]
fn brownout_fires_exactly_the_slow_skew_alert() {
    let (fleet, telemetry) = storm(Some(brownout_plan()), ErrorBound::percent(1.0));

    for (rule, opens) in opens_by_rule(&telemetry) {
        let expected = u64::from(rule == "load-skew");
        assert_eq!(opens, expected, "{rule}: opens");
    }
    let monitor = telemetry.health().unwrap();
    assert!(monitor.open_alerts().is_empty(), "hysteresis must close it");
    assert_eq!(monitor.incidents().len(), 1);

    let inc = &monitor.incidents()[0];
    assert_eq!(inc.rule, "load-skew");
    assert!(
        inc.opened_tick >= FAULT_TICK,
        "skew opens only after the brownout derates node 1 (opened t{})",
        inc.opened_tick
    );
    // The *slow* window caught it: the sustained ~80%-vs-20% imbalance
    // burns ~1.7x — below the 2x fast trigger, above the 1x slow one.
    let opening = inc.trajectory.first().unwrap();
    assert!(
        opening.fast < 2.0 && opening.slow >= 1.0,
        "brownout is a slow-window catch (fast {:.2}x, slow {:.2}x at open)",
        opening.fast,
        opening.slow
    );

    assert_eq!(fleet.metrics().counter("health.alerts.opened.load-skew"), 1);
    let reports = telemetry.incident_reports();
    assert_eq!(reports.len(), 1);
    let text = reports[0].render();
    assert!(text.starts_with("incident: load-skew\n"), "{text}");
    assert!(text.contains("breakdown by node:"), "{text}");
}

#[test]
fn streaming_and_batch_replay_agree_over_a_lossless_store() {
    // Over a lossless store, reconstructing the shipped segments gives
    // back the exact per-tick samples, so replaying them through a fresh
    // monitor must open and close the same alerts at the same ticks.
    let (_, telemetry) = storm(Some(kill_plan()), ErrorBound::LOSSLESS);
    let streaming = telemetry.health().unwrap();
    assert_eq!(streaming.incidents().len(), 1, "the kill must alert");

    let store = telemetry.store().expect("ticked");
    let (batch, transitions) = HealthMonitor::replay(store, runbook_rules());
    assert_eq!(streaming.incidents(), batch.incidents());
    for rule in batch.rules() {
        assert_eq!(streaming.opens(&rule.name), batch.opens(&rule.name));
    }
    assert_eq!(transitions.len(), 2, "one open, one close: {transitions:?}");
    assert_eq!(transitions[0].kind, AlertKind::Opened);
    assert_eq!(transitions[1].kind, AlertKind::Closed);
}

#[test]
fn same_seed_reruns_render_byte_identical_reports() {
    let render = |fault: fn() -> NodeFaultPlan| {
        let (_, telemetry) = storm(Some(fault()), ErrorBound::percent(1.0));
        let mut out = String::new();
        for report in telemetry.incident_reports() {
            out.push_str(&report.render());
            out.push('\n');
        }
        out
    };
    let a = render(kill_plan);
    let b = render(kill_plan);
    assert!(a.len() > 200, "the report must have substance:\n{a}");
    assert_eq!(a, b, "same seed, same bytes");
}
