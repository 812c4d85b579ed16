//! Ask the fleet a question: the telemetry plane + typed query surface.
//!
//! A catalog of movies is sharded across a simulated fleet; one node
//! browns out mid-broadcast. While viewers stream, a telemetry plane
//! samples every server on the simulated clock — session lateness split
//! by fidelity, storage throughput, cache hit rate, node load — and
//! compresses each series into constant/linear segment models under a 1%
//! error bound. Finished segments ship over the fleet's own (charged,
//! lossy) links into one store.
//!
//! Afterwards, the operator's questions are *typed queries* over three
//! worlds at once — the catalogs, the session ledger, the miss
//! attribution and the compressed telemetry:
//!
//! ```text
//! scan(source) → filter(typed predicates) → aggregate
//! ```
//!
//! ending with the brownout question: *what was p99 lateness for degraded
//! sessions on the browned-out node, during the brownout window?* —
//! answered straight off the segment models, never re-materialising the
//! raw samples.
//!
//! ```text
//! cargo run --example query
//! ```

use tbm::prelude::*;
use tbm_bench::scenario::{t, Telemetry, BROWNOUT_MS};

fn main() {
    // ------------------------------------------------------------------
    // The `telemetry` scenario: eight movies over six shards on three
    // nodes, per-node capacity sized off one movie's full-fidelity demand
    // so the storm forces real admission decisions (some viewers get the
    // base layer only — those are the "degraded" sessions the queries
    // target); node 1 browns out to 35% health across the middle of the
    // broadcast. Viewers arrive every 120 ms; the telemetry plane ticks
    // every 50 ms of simulated time, compressing at 1% error.
    // ------------------------------------------------------------------
    let brownout = (t(BROWNOUT_MS.0), t(BROWNOUT_MS.1));
    println!(
        "catalog of 8 movies over 6 shards on 3 nodes; node 1 browns out \
         [500ms, 2500ms) at 35% health\n"
    );
    let (fleet, telemetry) = Telemetry::query().run();
    let fleet_stats = fleet.stats();

    let store = telemetry.store().expect("the plane ticked");
    println!(
        "telemetry: {} series, {} segments over {} points; {} B compressed vs {} B raw \
         ({:.1}x), {} segment batches lost in flight and salvaged",
        store.series_count(),
        store.segment_count(),
        store.point_count(),
        store.compressed_bytes(),
        store.raw_bytes(),
        store.compression_ratio(),
        telemetry.lost_shipments(),
    );
    println!(
        "broadcast: {} admitted ({} degraded), {} elements served, {} deadline misses\n",
        fleet_stats.shards.global.sessions_admitted(),
        fleet_stats.shards.global.admitted_degraded,
        fleet_stats.shards.global.elements_served,
        fleet_stats.shards.global.deadline_misses,
    );

    // ------------------------------------------------------------------
    // Ask questions. One context spans catalogs + sessions + misses +
    // compressed telemetry; every query is scan → filter → aggregate.
    // ------------------------------------------------------------------
    let ctx = QueryCtx::from_fleet(&fleet).with_telemetry(store);

    let queries = [
        Query::scan(Source::Objects).filter(Predicate::KindIs(MediaKind::Video)),
        Query::scan(Source::Sessions).filter(Predicate::Degraded(true)),
        Query::scan(Source::Misses).aggregate(Aggregate::Count),
        Query::scan(Source::Metrics)
            .filter(Predicate::MetricIs(Metric::NodeLoadPct))
            .filter(Predicate::OnNode(1))
            .aggregate(Aggregate::Max),
    ];
    for q in &queries {
        println!("{}", q.run(&ctx).expect("typed and backed").render());
    }

    // The brownout question, in one typed query: p99 lateness for
    // degraded sessions on node 1, during the brownout window — answered
    // from the segment models with its error bound attached.
    let q = Query::scan(Source::Metrics)
        .filter(Predicate::MetricIs(Metric::LatenessUs))
        .filter(Predicate::Degraded(true))
        .filter(Predicate::OnNode(1))
        .filter(Predicate::During(brownout.0, brownout.1))
        .aggregate(Aggregate::Quantile(99));
    let answer = q.run(&ctx).expect("typed and backed");
    println!("{}", answer.render());

    assert!(store.series_count() > 0, "the plane must have sampled");
    assert!(
        store.compression_ratio() > 1.0,
        "model compression must beat raw per-tick storage"
    );
    assert!(
        !answer.is_empty(),
        "the brownout question must produce an answer row"
    );
    println!("the fleet answered from models — no raw series was ever re-materialised");
}
