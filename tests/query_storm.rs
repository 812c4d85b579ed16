//! Query storm: the telemetry plane riding a fleet broadcast end to end.
//! Pins the tentpole guarantees: per-tick samples compress into segment
//! models that tile the tick schedule, ship over the fleet's charged
//! links (losses retried in order, stragglers salvaged at finish),
//! model-native aggregates answer within the configured bound, typed
//! queries enforce their predicate/source validity matrix, and same-seed
//! runs render byte-identical answers.

use tbm::prelude::*;
use tbm_bench::scenario::Telemetry;

/// The `telemetry` broadcast with the plane sampling every tick; returns
/// the fleet and the telemetry plane, both finished.
fn storm(bound: ErrorBound, lossy_links: bool) -> (Fleet, FleetTelemetry) {
    let mut storm = Telemetry::query();
    (storm.bound, storm.lossy_links) = (bound, lossy_links);
    storm.run()
}

#[test]
fn segments_tile_the_tick_schedule_and_compress() {
    let (_, telemetry) = storm(ErrorBound::percent(1.0), false);
    let store = telemetry.store().expect("the plane ticked");

    assert!(store.series_count() > 0, "the plane must have sampled");
    for key in store.keys() {
        let mut tick = 0u32;
        for seg in store.segments(key) {
            assert_eq!(seg.start_tick, tick, "{key}: segments must tile");
            assert!(seg.count > 0);
            tick = seg.end_tick();
        }
    }
    assert!(
        store.compression_ratio() > 2.0,
        "model compression must beat raw per-tick storage (got {:.1}x)",
        store.compression_ratio()
    );
    // Every sampled series covers the same tick schedule.
    let ticks = telemetry.ticks() as u64;
    assert_eq!(store.point_count(), ticks * store.series_count() as u64);
}

#[test]
fn lossy_links_lose_nothing_by_the_end() {
    let (_, clean) = storm(ErrorBound::percent(1.0), false);
    let (_, lossy) = storm(ErrorBound::percent(1.0), true);

    assert!(
        lossy.lost_shipments() > 0,
        "a 50% loss link must actually lose shipment batches"
    );
    // Retry + salvage deliver every segment: the stores hold the same
    // points per key (values can differ only if the fleet diverged, which
    // loss draws do cause — coverage, not equality, is the invariant).
    let store = lossy.store().expect("ticked");
    for key in store.keys() {
        let covered: u64 = store.segments(key).iter().map(|s| u64::from(s.count)).sum();
        assert_eq!(
            covered,
            u64::from(lossy.ticks()),
            "{key}: every tick must arrive despite the lossy link"
        );
    }
    assert_eq!(
        clean.store().expect("ticked").point_count(),
        store.point_count(),
        "loss must cost retries, never points"
    );
}

#[test]
fn model_aggregates_within_bound_of_lossless() {
    let (_, lossy) = storm(ErrorBound::percent(1.0), false);
    let (_, exact) = storm(ErrorBound::LOSSLESS, false);
    let lossy = lossy.store().expect("ticked");
    let exact = exact.store().expect("ticked");

    let mut checked = 0usize;
    for metric in Metric::ALL {
        for agg in [
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Mean,
            Aggregate::Quantile(50),
            Aggregate::Quantile(99),
        ] {
            let sel = Selector::metric(metric);
            let (Some(m), Some(e)) = (lossy.aggregate(&sel, agg), exact.aggregate(&sel, agg))
            else {
                continue;
            };
            assert!(
                (m.value - e.value).abs() <= 0.01 * e.value.abs() + 1e-9,
                "{metric}/{agg}: model {} vs exact {}",
                m.value,
                e.value
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "the sweep must actually check aggregates");

    // Counts are exact at any bound (segment counts may differ — the
    // bound changes how runs split, never how many ticks they cover).
    let sel = Selector::all();
    let (m, e) = (
        lossy.aggregate(&sel, Aggregate::Count).expect("non-empty"),
        exact.aggregate(&sel, Aggregate::Count).expect("non-empty"),
    );
    assert_eq!(m.value, e.value);
    assert_eq!(m.points, e.points);
}

#[test]
fn typed_queries_span_catalogs_sessions_and_telemetry() {
    let (fleet, telemetry) = storm(ErrorBound::percent(1.0), false);
    let store = telemetry.store().expect("ticked");
    let ctx = QueryCtx::from_fleet(&fleet).with_telemetry(store);

    // Catalog scan: all eight movies, all video.
    let objects = Query::scan(Source::Objects)
        .filter(Predicate::KindIs(MediaKind::Video))
        .run(&ctx)
        .unwrap();
    assert_eq!(objects.len(), 8);

    // Session ledger: every session row joins its shard to its node.
    let sessions = Query::scan(Source::Sessions).run(&ctx).unwrap();
    assert!(!sessions.is_empty());

    // Telemetry aggregate: a full-window p99 over the lateness series.
    let p99 = Query::scan(Source::Metrics)
        .filter(Predicate::MetricIs(Metric::LatenessUs))
        .aggregate(Aggregate::Quantile(99))
        .run(&ctx)
        .unwrap();
    assert_eq!(p99.len(), 1);

    // The validity matrix is enforced, not silently empty: a codec
    // predicate makes no sense over sessions…
    let err = Query::scan(Source::Sessions)
        .filter(Predicate::CodecIs("DCT".into()))
        .run(&ctx)
        .unwrap_err();
    assert!(matches!(err, QueryError::PredicateNotTyped { .. }));
    // …and a metrics query without a telemetry store names the problem.
    let bare = QueryCtx::from_fleet(&fleet);
    let err = Query::scan(Source::Metrics).run(&bare).unwrap_err();
    assert!(matches!(err, QueryError::NoTelemetry));
}

#[test]
fn same_seed_runs_render_identical_answers() {
    let render = || {
        let (fleet, telemetry) = storm(ErrorBound::percent(1.0), false);
        let store = telemetry.store().expect("ticked").clone();
        let ctx = QueryCtx::from_fleet(&fleet).with_telemetry(&store);
        let mut out = String::new();
        for q in [
            Query::scan(Source::Sessions).filter(Predicate::Degraded(true)),
            Query::scan(Source::Misses).aggregate(Aggregate::Count),
            Query::scan(Source::Metrics)
                .filter(Predicate::MetricIs(Metric::LatenessUs))
                .aggregate(Aggregate::Quantile(99)),
        ] {
            out.push_str(&q.run(&ctx).unwrap().render());
            out.push('\n');
        }
        out
    };
    assert_eq!(render(), render(), "same seed, same bytes");
}
