//! Deadline-miss attribution: walking a trace to explain *why* each
//! presentation deadline was missed.
//!
//! The serving layer records one span per element served (named
//! [`ELEMENT_SPAN`]) carrying a decomposition of that element's service
//! time into attributed components, all in microseconds:
//!
//! * [`ATTR_WAIT_US`] — time the element waited for the shared channel
//!   behind *other sessions'* work. Dominant wait means the admission
//!   controller let in more concurrent load than the channel can carry:
//!   **admission over-commit**.
//! * [`ATTR_NODELOSS_US`] — time the element's channel was stalled by a
//!   node-level outage: a crash-triggered shard migration's catalog
//!   handoff, or unreachable-node backoff. Dominant node-loss means the
//!   miss is the price of surviving a node failure: **node-loss**.
//! * [`ATTR_RETRY_US`] — time spent in retry backoff and re-reads after
//!   injected storage faults: **retry-storm**.
//! * [`ATTR_FAILOVER_US`] — time a tiered store spent probing broken
//!   tiers, hedging a slow tier against a deadline, or falling back after
//!   a tier fault: **tier-failover**.
//! * [`ATTR_STORAGE_US`] — first-attempt transfer time plus storage
//!   latency: **storage-latency**.
//! * [`ATTR_DECODE_US`] — decode work and per-element dispatch overhead:
//!   **decode-overrun**.
//! * [`ATTR_INHERITED_US`] — lateness carried in because *this session's
//!   previous element* finished past this element's start time. When this
//!   dominates, the miss is a knock-on effect and inherits the previous
//!   element's cause.
//!
//! [`attribute`] classifies every span with positive [`ATTR_LATENESS_US`]
//! by its largest component, breaking ties in a fixed order
//! (over-commit > node-loss > tier-failover > retry-storm >
//! storage-latency > decode-overrun), so each miss gets **exactly one**
//! cause and the report is deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::tracer::RecordView;

/// Span name the serving layer uses for one element's service interval.
pub const ELEMENT_SPAN: &str = "element";
/// Attribute: how late the element presented, in µs (≤ 0 means on time).
pub const ATTR_LATENESS_US: &str = "lateness_us";
/// Attribute: cross-session channel wait, in µs.
pub const ATTR_WAIT_US: &str = "wait_us";
/// Attribute: node-outage stall (migration handoff, crash detection), µs.
pub const ATTR_NODELOSS_US: &str = "nodeloss_us";
/// Attribute: retry backoff + re-read transfer, in µs.
pub const ATTR_RETRY_US: &str = "retry_us";
/// Attribute: tier probing, hedging and failover fallback time, in µs.
pub const ATTR_FAILOVER_US: &str = "failover_us";
/// Attribute: first-attempt storage transfer + latency, in µs.
pub const ATTR_STORAGE_US: &str = "storage_us";
/// Attribute: decode + dispatch overhead, in µs.
pub const ATTR_DECODE_US: &str = "decode_us";
/// Attribute: lateness inherited from the session's previous element, µs.
pub const ATTR_INHERITED_US: &str = "inherited_us";
/// Attribute: the element's index within its session's schedule.
pub const ATTR_ELEMENT_INDEX: &str = "index";

/// The single assigned cause of one deadline miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MissCause {
    /// Admission let in more concurrent sessions than the channel carries;
    /// the element stalled behind other sessions' transfers.
    AdmissionOverCommit,
    /// A node crashed, browned out or fell off the network; the element
    /// stalled behind a shard migration's catalog handoff (or the backoff
    /// that preceded it) rather than behind any of its own work.
    NodeLoss,
    /// A storage tier failed or browned out; the read burned its slack
    /// probing broken tiers, hedging, or falling back to a slower tier.
    TierFailover,
    /// Storage faults triggered retries whose backoff and re-reads ate the
    /// deadline.
    RetryStorm,
    /// A clean first-attempt read was itself too slow.
    StorageLatency,
    /// Decode work and dispatch overhead overran the slack.
    DecodeOverrun,
}

impl MissCause {
    /// Every cause, in tie-break priority order.
    pub const ALL: [MissCause; 6] = [
        MissCause::AdmissionOverCommit,
        MissCause::NodeLoss,
        MissCause::TierFailover,
        MissCause::RetryStorm,
        MissCause::StorageLatency,
        MissCause::DecodeOverrun,
    ];

    /// The cause's stable kebab-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            MissCause::AdmissionOverCommit => "admission-over-commit",
            MissCause::NodeLoss => "node-loss",
            MissCause::TierFailover => "tier-failover",
            MissCause::RetryStorm => "retry-storm",
            MissCause::StorageLatency => "storage-latency",
            MissCause::DecodeOverrun => "decode-overrun",
        }
    }
}

impl std::fmt::Display for MissCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One attributed deadline miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissAttribution {
    /// Trace record id of the element span.
    pub span: u64,
    /// The session that missed.
    pub session: u64,
    /// Element index within the session's schedule.
    pub element: i64,
    /// How late the element presented, in µs.
    pub lateness_us: i64,
    /// The single assigned cause.
    pub cause: MissCause,
    /// Size of the winning component, in µs.
    pub dominant_us: i64,
    /// `true` when the cause was propagated from the session's previous
    /// late element rather than chosen from this span's own components.
    pub inherited: bool,
}

/// All attributed misses from one trace, in span-id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionReport {
    /// Every miss, in the order the elements were served.
    pub misses: Vec<MissAttribution>,
}

impl AttributionReport {
    /// Number of attributed misses.
    pub fn total(&self) -> usize {
        self.misses.len()
    }

    /// Miss counts per cause, in [`MissCause::ALL`] order (zeroes kept).
    pub fn by_cause(&self) -> Vec<(MissCause, usize)> {
        MissCause::ALL
            .iter()
            .map(|&cause| {
                (
                    cause,
                    self.misses.iter().filter(|m| m.cause == cause).count(),
                )
            })
            .collect()
    }

    /// A plain-text attribution table: one row per miss, then a per-cause
    /// summary. Deterministic for a deterministic trace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>12} {:>12}  cause",
            "session", "element", "lateness_us", "dominant_us"
        );
        for m in &self.misses {
            let _ = writeln!(
                out,
                "{:>8} {:>8} {:>12} {:>12}  {}{}",
                m.session,
                m.element,
                m.lateness_us,
                m.dominant_us,
                m.cause,
                if m.inherited { " (inherited)" } else { "" }
            );
        }
        let _ = writeln!(out, "---");
        for (cause, n) in self.by_cause() {
            let _ = writeln!(out, "{:>24}: {n}", cause.as_str());
        }
        let _ = writeln!(out, "{:>24}: {}", "total misses", self.total());
        out
    }
}

/// Picks the largest of the six direct components, breaking ties in
/// [`MissCause::ALL`] priority order.
fn dominant(components: &[(MissCause, i64); 6]) -> (MissCause, i64) {
    let mut best = components[0];
    for &(cause, us) in &components[1..] {
        if us > best.1 {
            best = (cause, us);
        }
    }
    best
}

/// Walks `records` — a snapshot's (`&snapshot.records`) or the live ring's
/// ([`TraceView::records`](crate::TraceView::records)) — and assigns
/// exactly one [`MissCause`] to every element span whose
/// [`ATTR_LATENESS_US`] is positive. See the [module docs](self) for the
/// classification rules.
pub fn attribute<R: RecordView>(records: impl IntoIterator<Item = R>) -> AttributionReport {
    let mut last_cause: BTreeMap<u64, MissCause> = BTreeMap::new();
    let mut misses = Vec::new();
    for rec in records {
        if rec.name() != ELEMENT_SPAN {
            continue;
        }
        let lateness = rec.attr_i64(ATTR_LATENESS_US);
        let session = rec.session().unwrap_or(0);
        if lateness <= 0 {
            // An on-time element breaks the knock-on chain: later misses in
            // this session are not "inherited" across it.
            last_cause.remove(&session);
            continue;
        }
        let components = [
            (MissCause::AdmissionOverCommit, rec.attr_i64(ATTR_WAIT_US)),
            (MissCause::NodeLoss, rec.attr_i64(ATTR_NODELOSS_US)),
            (MissCause::TierFailover, rec.attr_i64(ATTR_FAILOVER_US)),
            (MissCause::RetryStorm, rec.attr_i64(ATTR_RETRY_US)),
            (MissCause::StorageLatency, rec.attr_i64(ATTR_STORAGE_US)),
            (MissCause::DecodeOverrun, rec.attr_i64(ATTR_DECODE_US)),
        ];
        let (own_cause, own_us) = dominant(&components);
        let inherited_us = rec.attr_i64(ATTR_INHERITED_US);
        let (cause, dominant_us, inherited) = match last_cause.get(&session) {
            Some(&prev) if inherited_us > own_us => (prev, inherited_us, true),
            _ => (own_cause, own_us, false),
        };
        last_cause.insert(session, cause);
        misses.push(MissAttribution {
            span: rec.id(),
            session,
            element: rec.attr_i64(ATTR_ELEMENT_INDEX),
            lateness_us: lateness,
            cause,
            dominant_us,
            inherited,
        });
    }
    AttributionReport { misses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Category, SpanId, Tracer};
    use tbm_time::{TimeDelta, TimePoint};

    fn tp(ms: i64) -> TimePoint {
        TimePoint::ZERO + TimeDelta::from_millis(ms)
    }

    fn element(tracer: &Tracer, session: u64, index: i64, ms: i64, attrs: &[(&'static str, i64)]) {
        let span = tracer.begin_span_with(
            ELEMENT_SPAN,
            Category::Serve,
            tp(ms),
            SpanId::NONE,
            Some(session),
            |a| a.put(ATTR_ELEMENT_INDEX, index),
        );
        tracer.end_span_with(span, tp(ms + 1), |a| {
            for &(key, value) in attrs {
                a.put(key, value);
            }
        });
    }

    #[test]
    fn classifies_by_largest_component() {
        let tracer = Tracer::new();
        element(
            &tracer,
            1,
            0,
            0,
            &[
                (ATTR_LATENESS_US, 900),
                (ATTR_WAIT_US, 100),
                (ATTR_RETRY_US, 700),
                (ATTR_STORAGE_US, 50),
                (ATTR_DECODE_US, 50),
            ],
        );
        element(
            &tracer,
            2,
            0,
            1,
            &[
                (ATTR_LATENESS_US, 400),
                (ATTR_STORAGE_US, 350),
                (ATTR_DECODE_US, 50),
            ],
        );
        let report = attribute(&tracer.snapshot().records);
        assert_eq!(report.total(), 2);
        assert_eq!(report.misses[0].cause, MissCause::RetryStorm);
        assert_eq!(report.misses[0].dominant_us, 700);
        assert_eq!(report.misses[1].cause, MissCause::StorageLatency);
    }

    #[test]
    fn tier_failover_component_classifies_and_outranks_retry_on_ties() {
        let tracer = Tracer::new();
        element(
            &tracer,
            1,
            0,
            0,
            &[
                (ATTR_LATENESS_US, 500),
                (ATTR_RETRY_US, 100),
                (ATTR_FAILOVER_US, 400),
                (ATTR_STORAGE_US, 50),
            ],
        );
        // Tie between failover and retry: failover wins (more specific).
        element(
            &tracer,
            2,
            0,
            1,
            &[
                (ATTR_LATENESS_US, 200),
                (ATTR_RETRY_US, 150),
                (ATTR_FAILOVER_US, 150),
            ],
        );
        let report = attribute(&tracer.snapshot().records);
        assert_eq!(report.misses[0].cause, MissCause::TierFailover);
        assert_eq!(report.misses[0].dominant_us, 400);
        assert_eq!(report.misses[1].cause, MissCause::TierFailover);
    }

    #[test]
    fn tie_breaks_in_priority_order() {
        let tracer = Tracer::new();
        element(
            &tracer,
            1,
            0,
            0,
            &[
                (ATTR_LATENESS_US, 100),
                (ATTR_WAIT_US, 50),
                (ATTR_RETRY_US, 50),
                (ATTR_STORAGE_US, 50),
                (ATTR_DECODE_US, 50),
            ],
        );
        let report = attribute(&tracer.snapshot().records);
        assert_eq!(report.misses[0].cause, MissCause::AdmissionOverCommit);
    }

    #[test]
    fn inherited_lateness_propagates_previous_cause() {
        let tracer = Tracer::new();
        // Element 0: a genuine retry storm.
        element(
            &tracer,
            7,
            0,
            0,
            &[
                (ATTR_LATENESS_US, 1_000),
                (ATTR_RETRY_US, 900),
                (ATTR_STORAGE_US, 100),
            ],
        );
        // Element 1: fast on its own, late only because element 0 overran.
        element(
            &tracer,
            7,
            1,
            2,
            &[
                (ATTR_LATENESS_US, 600),
                (ATTR_STORAGE_US, 80),
                (ATTR_INHERITED_US, 520),
            ],
        );
        // Element 2: on time — breaks the chain.
        element(&tracer, 7, 2, 4, &[(ATTR_LATENESS_US, 0)]);
        // Element 3: late with big inherited_us but no prior cause chain —
        // falls back to its own dominant component.
        element(
            &tracer,
            7,
            3,
            6,
            &[
                (ATTR_LATENESS_US, 300),
                (ATTR_DECODE_US, 120),
                (ATTR_INHERITED_US, 200),
            ],
        );
        let report = attribute(&tracer.snapshot().records);
        assert_eq!(report.total(), 3);
        assert_eq!(report.misses[1].cause, MissCause::RetryStorm);
        assert!(report.misses[1].inherited);
        assert_eq!(report.misses[2].cause, MissCause::DecodeOverrun);
        assert!(!report.misses[2].inherited);
    }

    #[test]
    fn node_loss_classifies_and_outranks_everything_but_overcommit() {
        let tracer = Tracer::new();
        // A migration-handoff stall dominates: node-loss.
        element(
            &tracer,
            1,
            0,
            0,
            &[
                (ATTR_LATENESS_US, 2_000),
                (ATTR_NODELOSS_US, 1_500),
                (ATTR_STORAGE_US, 400),
                (ATTR_RETRY_US, 100),
            ],
        );
        // Ties: node-loss beats tier-failover and retry-storm, but a tied
        // over-commit wait still wins (it sits first in the order).
        element(
            &tracer,
            2,
            0,
            1,
            &[
                (ATTR_LATENESS_US, 300),
                (ATTR_NODELOSS_US, 150),
                (ATTR_FAILOVER_US, 150),
                (ATTR_RETRY_US, 150),
            ],
        );
        element(
            &tracer,
            3,
            0,
            2,
            &[
                (ATTR_LATENESS_US, 300),
                (ATTR_WAIT_US, 150),
                (ATTR_NODELOSS_US, 150),
            ],
        );
        let report = attribute(&tracer.snapshot().records);
        assert_eq!(report.misses[0].cause, MissCause::NodeLoss);
        assert_eq!(report.misses[0].dominant_us, 1_500);
        assert_eq!(report.misses[1].cause, MissCause::NodeLoss);
        assert_eq!(report.misses[2].cause, MissCause::AdmissionOverCommit);
    }

    #[test]
    fn every_miss_gets_exactly_one_cause() {
        let tracer = Tracer::new();
        for i in 0..10i64 {
            element(
                &tracer,
                (i % 3) as u64,
                i,
                i,
                &[
                    (ATTR_LATENESS_US, 10 + i),
                    (ATTR_WAIT_US, i),
                    (ATTR_RETRY_US, 9 - i),
                    (ATTR_STORAGE_US, 3),
                ],
            );
        }
        let report = attribute(&tracer.snapshot().records);
        assert_eq!(report.total(), 10);
        let counted: usize = report.by_cause().iter().map(|(_, n)| n).sum();
        assert_eq!(counted, report.total(), "causes partition the misses");
    }

    #[test]
    fn render_lists_rows_and_summary() {
        let tracer = Tracer::new();
        element(
            &tracer,
            5,
            2,
            0,
            &[(ATTR_LATENESS_US, 777), (ATTR_STORAGE_US, 600)],
        );
        let report = attribute(&tracer.snapshot().records);
        let text = report.render();
        assert!(text.contains("storage-latency"));
        assert!(text.contains("777"));
        assert!(text.contains("total misses: 1"));
        assert_eq!(report.render(), text);
    }

    #[test]
    fn on_time_elements_and_other_spans_ignored() {
        let tracer = Tracer::new();
        element(&tracer, 1, 0, 0, &[(ATTR_LATENESS_US, 0)]);
        let other = tracer.begin_span("decode", Category::Decode, tp(1), SpanId::NONE, Some(1));
        tracer.end_span_with(other, tp(2), |a| a.put(ATTR_LATENESS_US, 999i64));
        let report = attribute(&tracer.snapshot().records);
        assert_eq!(report.total(), 0);
    }
}
