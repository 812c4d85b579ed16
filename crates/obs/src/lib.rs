//! # tbm-obs — deterministic observability for the TBM pipeline
//!
//! Time-based media debugging has a reproducibility problem: a deadline
//! miss seen once under load is gone by the next run. This crate removes
//! the problem at the root by timestamping *everything with the simulated
//! clock*. A trace is a pure function of the workload and seed — two runs
//! with the same inputs export byte-identical files — so a miss can be
//! replayed, diffed and attributed offline.
//!
//! Three pieces:
//!
//! * [`Tracer`] — a ring-buffered recorder of spans and instant events,
//!   cheap to clone (clones share the ring), free when disabled. The
//!   serving layer, the player and the storage fault injector all write
//!   into one timeline.
//! * [`MetricsRegistry`] — named counters, gauges and fixed-bucket
//!   [`Histogram`]s. Integer-only and `BTreeMap`-backed, so rendered
//!   snapshots are deterministic too.
//! * Exporters and analysis — [`chrome_trace`] (loads into Perfetto /
//!   `chrome://tracing`), [`text_timeline`], and [`attribute`], which
//!   walks element spans and assigns **exactly one** [`MissCause`] to
//!   every missed presentation deadline.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod attribution;
pub mod export;
pub mod metrics;
#[cfg(test)]
mod reference;
pub mod tracer;

pub use attribution::{
    attribute, AttributionReport, MissAttribution, MissCause, ATTR_DECODE_US, ATTR_ELEMENT_INDEX,
    ATTR_FAILOVER_US, ATTR_INHERITED_US, ATTR_LATENESS_US, ATTR_NODELOSS_US, ATTR_RETRY_US,
    ATTR_STORAGE_US, ATTR_WAIT_US, ELEMENT_SPAN,
};
pub use export::{chrome_trace, chrome_trace_to_writer, text_timeline, validate_json};
pub use metrics::{
    CounterId, GaugeId, Histogram, HistogramId, MetricsRegistry, BYTES_BUCKETS, LATENCY_BUCKETS_US,
    MAX_BUCKETS,
};
pub use tracer::{
    merge_snapshots, micros, micros_of, AttrValue, Attrs, Category, RecordKind, RecordRef,
    RecordView, SpanId, TraceRecord, TraceSnapshot, TraceView, Tracer, DEFAULT_TRACE_CAPACITY,
};
