//! Golden observability tests: the Chrome trace export of a seeded run is
//! byte-stable, span parent links are acyclic, and the deadline-miss
//! attribution report covers every miss exactly once.

use tbm::obs::{chrome_trace, validate_json, SpanId, Tracer};
use tbm::prelude::*;
use tbm_bench::scenario::Hot;

/// One fully traced storm: a seeded faulty store shares the tracer with
/// the server, four sessions 80 ms apart oversubscribe a channel sized
/// from the stream's demanded rate (roomy enough to admit, tight enough
/// to miss deadlines), and the run is drained. Returns the tracer and the
/// final stats.
fn traced_storm(seed: u64) -> (Tracer, ServerStats) {
    let storm = Hot {
        clip: (24, 48, 32),
        wave: (4, 80),
        capacity: |full| Capacity::new(full + full / 4).admit_all(),
        cache_budget: 8 << 20,
        faults: Some(
            FaultPlan::new(seed)
                .with_transient(0.3)
                .with_corruption(0.1),
        ),
    };
    let (server, _) = storm.run();
    (server.tracer().clone(), server.stats())
}

#[test]
fn chrome_trace_is_byte_identical_across_same_seed_runs() {
    let (a, stats_a) = traced_storm(0x5EED);
    let (b, stats_b) = traced_storm(0x5EED);
    assert_eq!(stats_a, stats_b, "the runs themselves must be identical");
    let ja = chrome_trace(&a.snapshot());
    let jb = chrome_trace(&b.snapshot());
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "same seed must export byte-identical traces");
    validate_json(&ja).expect("the export must be well-formed JSON");
}

#[test]
fn span_parent_links_are_acyclic_and_resolvable() {
    let (tracer, _) = traced_storm(0xACED);
    let snap = tracer.snapshot();
    assert!(!snap.records.is_empty());
    for rec in &snap.records {
        if rec.parent == SpanId::NONE {
            continue;
        }
        // Ids are issued sequentially, so a parent id strictly below the
        // child id makes any cycle impossible; the parent must also be a
        // record in the same snapshot (nothing dangles unless evicted).
        assert!(
            rec.parent.raw() < rec.id,
            "parent {} of span {} is not older",
            rec.parent.raw(),
            rec.id
        );
        if snap.dropped == 0 {
            assert!(
                snap.records.iter().any(|r| r.id == rec.parent.raw()),
                "parent {} of span {} missing from snapshot",
                rec.parent.raw(),
                rec.id
            );
        }
    }
}

#[test]
fn attribution_assigns_every_miss_exactly_one_cause() {
    let (tracer, stats) = traced_storm(0xACED);
    assert!(stats.deadline_misses > 0, "the storm must miss deadlines");
    let report = tbm::obs::attribute(&tracer.snapshot().records);
    assert_eq!(report.total(), stats.deadline_misses);
    let by_cause: usize = report.by_cause().iter().map(|&(_, n)| n).sum();
    assert_eq!(by_cause, report.total(), "causes partition the misses");
    let rendered = report.render();
    assert!(rendered.contains("total misses"));
}
