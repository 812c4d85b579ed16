//! The fleet-wide telemetry store: compressed series in, model-native
//! aggregates out.
//!
//! A [`TelemetryStore`] holds every shipped [`Segment`] keyed by
//! [`SeriesKey`] — which node, which shard (if shard-scoped), which
//! [`Metric`], and whether the series covers degraded-fidelity sessions.
//! All series share one tick schedule (`origin + k · interval`), so a
//! segment's tick range *is* its time range and windowed queries reduce to
//! integer tick arithmetic on exact [`Rational`] seconds.
//!
//! Aggregates ([`Aggregate`]) are evaluated directly on the segment
//! models — a constant segment contributes a `(value, weight)` pair, a
//! linear segment its closed-form endpoints/sum — never by materialising
//! the original samples, which no longer exist. Every [`AggResult`] carries
//! `error_pct`: the worst relative bound among the segments that
//! contributed, `0` when only raw segments did. Since telemetry samples are
//! non-negative, count/min/max/mean/quantile over reconstructions are each
//! within that same relative bound of the value the raw series would have
//! given (the property `tests/prop.rs` pins).

use std::collections::BTreeMap;
use std::fmt;

use tbm_obs::MissCause;
use tbm_time::{Rational, TimeDelta, TimePoint};

use crate::model::{Segment, SegmentModel, RAW_SAMPLE_BYTES};

/// What a telemetry series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Metric {
    /// Mean deadline lateness of elements served in the tick, µs
    /// (0 when every element in the tick was on time).
    LatenessUs,
    /// Storage bytes read during the tick, scaled to bytes/second.
    ThroughputBps,
    /// Segment-cache hit rate over the tick's lookups, percent.
    CacheHitPct,
    /// Committed session bandwidth over node capacity, percent.
    NodeLoadPct,
    /// Elements dropped over elements scheduled in the tick, percent
    /// (0 when nothing was scheduled).
    DropRatePct,
    /// Bytes served without checksum verification during the tick. The
    /// tiered store promises this is always zero; the series exists so
    /// the health plane can hold it to that promise.
    UnverifiedServes,
}

impl Metric {
    /// All metrics, in key order.
    pub const ALL: [Metric; 6] = [
        Metric::LatenessUs,
        Metric::ThroughputBps,
        Metric::CacheHitPct,
        Metric::NodeLoadPct,
        Metric::DropRatePct,
        Metric::UnverifiedServes,
    ];

    /// Stable display name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Metric::LatenessUs => "lateness_us",
            Metric::ThroughputBps => "throughput_bps",
            Metric::CacheHitPct => "cache_hit_pct",
            Metric::NodeLoadPct => "node_load_pct",
            Metric::DropRatePct => "drop_rate_pct",
            Metric::UnverifiedServes => "unverified_serves",
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Identity of one telemetry series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// The node the series belongs to. For shard-scoped series this is
    /// the shard's *home* node — stable across migration and rebalance,
    /// so one series keeps one tick axis for the whole run.
    pub node: u16,
    /// The shard the series covers; `None` for node-level series
    /// (e.g. [`Metric::NodeLoadPct`]).
    pub shard: Option<u16>,
    /// What the series measures.
    pub metric: Metric,
    /// `true` when the series covers degraded-fidelity sessions only
    /// (the lateness split); `false` for full fidelity or unsplit metrics.
    pub degraded: bool,
}

impl fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.node)?;
        if let Some(s) = self.shard {
            write!(f, ".shard{s}")?;
        }
        write!(f, ".{}", self.metric)?;
        if self.degraded {
            write!(f, ".degraded")?;
        }
        Ok(())
    }
}

/// Which series an aggregate ranges over, plus an optional inclusive time
/// window. Unset fields match everything.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Selector {
    /// Only series from this node.
    pub node: Option<u16>,
    /// Only series covering this shard.
    pub shard: Option<u16>,
    /// Only this metric.
    pub metric: Option<Metric>,
    /// Only the degraded (`Some(true)`) or full-fidelity (`Some(false)`)
    /// split.
    pub degraded: Option<bool>,
    /// Only ticks at or after this instant.
    pub from: Option<TimePoint>,
    /// Only ticks at or before this instant.
    pub to: Option<TimePoint>,
}

impl Selector {
    /// Matches every series and tick.
    pub fn all() -> Selector {
        Selector::default()
    }

    /// Restricts to one metric.
    pub fn metric(metric: Metric) -> Selector {
        Selector {
            metric: Some(metric),
            ..Selector::default()
        }
    }

    /// Builder: only series from `node`.
    pub fn on_node(mut self, node: u16) -> Selector {
        self.node = Some(node);
        self
    }

    /// Builder: only series covering `shard`.
    pub fn on_shard(mut self, shard: u16) -> Selector {
        self.shard = Some(shard);
        self
    }

    /// Builder: only the degraded / full-fidelity split.
    pub fn degraded(mut self, degraded: bool) -> Selector {
        self.degraded = Some(degraded);
        self
    }

    /// Builder: only ticks inside `[from, to]` (inclusive).
    pub fn between(mut self, from: TimePoint, to: TimePoint) -> Selector {
        self.from = Some(from);
        self.to = Some(to);
        self
    }

    /// Whether the non-temporal fields match `key`.
    pub fn matches(&self, key: &SeriesKey) -> bool {
        self.node.is_none_or(|n| key.node == n)
            && self.shard.is_none_or(|s| key.shard == Some(s))
            && self.metric.is_none_or(|m| key.metric == m)
            && self.degraded.is_none_or(|d| key.degraded == d)
    }
}

/// An aggregate evaluated on segment models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Number of covered ticks (exact).
    Count,
    /// Smallest reconstructed sample.
    Min,
    /// Largest reconstructed sample.
    Max,
    /// Arithmetic mean of reconstructed samples.
    Mean,
    /// Nearest-rank percentile `p` (0–100) of reconstructed samples.
    Quantile(u8),
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Aggregate::Count => write!(f, "count"),
            Aggregate::Min => write!(f, "min"),
            Aggregate::Max => write!(f, "max"),
            Aggregate::Mean => write!(f, "mean"),
            Aggregate::Quantile(p) => write!(f, "p{p}"),
        }
    }
}

/// Which [`SeriesKey`] field (or miss column) a grouped aggregate keys
/// its rows on.
///
/// `Node`, `Shard` and `Degraded` group telemetry series; `Cause` only
/// exists on the `Misses` row source (the query layer's type check keeps
/// it off the store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GroupBy {
    /// One row per node.
    Node,
    /// One row per shard (node-level series, which have no shard, are
    /// excluded).
    Shard,
    /// One row per fidelity split.
    Degraded,
    /// One row per attributed miss cause (`Misses` source only).
    Cause,
}

impl fmt::Display for GroupBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GroupBy::Node => "node",
            GroupBy::Shard => "shard",
            GroupBy::Degraded => "fidelity",
            GroupBy::Cause => "cause",
        })
    }
}

/// The key of one row in a grouped aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GroupKey {
    /// Rows grouped per node.
    Node(u16),
    /// Rows grouped per shard.
    Shard(u16),
    /// Rows grouped per fidelity split.
    Degraded(bool),
    /// Rows grouped per miss cause.
    Cause(MissCause),
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupKey::Node(n) => write!(f, "node{n}"),
            GroupKey::Shard(s) => write!(f, "shard{s}"),
            GroupKey::Degraded(true) => write!(f, "degraded"),
            GroupKey::Degraded(false) => write!(f, "full"),
            GroupKey::Cause(c) => write!(f, "{c}"),
        }
    }
}

/// An aggregate's answer plus its exact error accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggResult {
    /// The aggregate value.
    pub value: f64,
    /// Worst relative model bound (percent) among contributing segments;
    /// `0` when the answer came only from raw segments (or is a count).
    pub error_pct: f64,
    /// Ticks the aggregate ranged over.
    pub points: u64,
    /// Segments consulted.
    pub segments: usize,
}

/// Per-series bookkeeping: the segments in tick order.
#[derive(Debug, Clone, Default)]
struct Series {
    segments: Vec<Segment>,
    points: u64,
}

/// The central store of model-compressed telemetry for one fleet run.
#[derive(Debug, Clone)]
pub struct TelemetryStore {
    origin: TimePoint,
    interval: TimeDelta,
    series: BTreeMap<SeriesKey, Series>,
}

impl TelemetryStore {
    /// An empty store on the tick schedule `origin + k · interval`.
    ///
    /// # Panics
    /// When `interval` is not strictly positive.
    pub fn new(origin: TimePoint, interval: TimeDelta) -> TelemetryStore {
        assert!(
            !interval.is_zero() && !interval.is_negative(),
            "telemetry tick interval must be positive"
        );
        TelemetryStore {
            origin,
            interval,
            series: BTreeMap::new(),
        }
    }

    /// The instant of tick `k`.
    pub fn tick_time(&self, tick: u32) -> TimePoint {
        self.origin + self.interval * Rational::from(i64::from(tick))
    }

    /// The tick schedule's origin.
    pub fn origin(&self) -> TimePoint {
        self.origin
    }

    /// The tick interval.
    pub fn interval(&self) -> TimeDelta {
        self.interval
    }

    /// Appends `segment` to `key`'s series.
    ///
    /// # Panics
    /// When the segment does not continue the series exactly where its
    /// last segment ended — shipped segments must tile the tick axis.
    pub fn ingest(&mut self, key: SeriesKey, segment: Segment) {
        let series = self.series.entry(key).or_default();
        let expected = series.segments.last().map_or(0, Segment::end_tick);
        assert_eq!(
            segment.start_tick, expected,
            "series {key}: segments must tile the tick axis (got start {}, expected {expected})",
            segment.start_tick
        );
        series.points += u64::from(segment.count);
        series.segments.push(segment);
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total stored segments.
    pub fn segment_count(&self) -> usize {
        self.series.values().map(|s| s.segments.len()).sum()
    }

    /// Total ticks covered across all series.
    pub fn point_count(&self) -> u64 {
        self.series.values().map(|s| s.points).sum()
    }

    /// Every series key, in key order.
    pub fn keys(&self) -> impl Iterator<Item = &SeriesKey> {
        self.series.keys()
    }

    /// The segments of one series, in tick order.
    pub fn segments(&self, key: &SeriesKey) -> &[Segment] {
        self.series.get(key).map_or(&[], |s| s.segments.as_slice())
    }

    /// Encoded bytes of everything stored: per-series framing (16 bytes for
    /// the key + tick schedule reference) plus each segment's encoding.
    pub fn compressed_bytes(&self) -> u64 {
        self.series
            .values()
            .map(|s| 16 + s.segments.iter().map(Segment::encoded_bytes).sum::<u64>())
            .sum()
    }

    /// Bytes the same ticks would occupy uncompressed (8 per sample).
    pub fn raw_bytes(&self) -> u64 {
        self.point_count() * RAW_SAMPLE_BYTES
    }

    /// `raw_bytes / compressed_bytes` — how much smaller the model
    /// representation is.
    pub fn compression_ratio(&self) -> f64 {
        let compressed = self.compressed_bytes();
        if compressed == 0 {
            return 1.0;
        }
        self.raw_bytes() as f64 / compressed as f64
    }

    /// Evaluates `agg` over every tick selected by `sel`, directly on the
    /// stored models. Returns `None` when no tick matches.
    pub fn aggregate(&self, sel: &Selector, agg: Aggregate) -> Option<AggResult> {
        let mut acc = AggAcc::new(agg);
        for (key, series) in &self.series {
            if !sel.matches(key) {
                continue;
            }
            for seg in &series.segments {
                if let Some((lo, hi)) = self.window_offsets(seg, sel) {
                    acc.add_segment(seg, lo, hi);
                }
            }
        }
        acc.finish(agg)
    }

    /// Evaluates `agg` once per distinct value of `group` among the series
    /// `sel` matches — one [`AggResult`] row per group, in key order.
    ///
    /// Each matching segment is visited exactly once and contributes to
    /// exactly one group's accumulator; in particular, when the selector
    /// already pins the grouped field to one value (e.g. `on_node(2)`
    /// grouped by node) the result is a single row identical to the
    /// ungrouped [`aggregate`](TelemetryStore::aggregate) — not the same
    /// work repeated per candidate group.
    ///
    /// Grouping by [`GroupBy::Shard`] excludes node-level series (no shard
    /// in their key); [`GroupBy::Cause`] is not a series field and yields
    /// no rows (the query layer's type check routes it to the `Misses`
    /// source instead).
    pub fn aggregate_grouped(
        &self,
        sel: &Selector,
        agg: Aggregate,
        group: GroupBy,
    ) -> Vec<(GroupKey, AggResult)> {
        let mut groups: BTreeMap<GroupKey, AggAcc> = BTreeMap::new();
        for (key, series) in &self.series {
            if !sel.matches(key) {
                continue;
            }
            let gk = match group {
                GroupBy::Node => GroupKey::Node(key.node),
                GroupBy::Shard => match key.shard {
                    Some(s) => GroupKey::Shard(s),
                    None => continue,
                },
                GroupBy::Degraded => GroupKey::Degraded(key.degraded),
                GroupBy::Cause => continue,
            };
            let acc = groups.entry(gk).or_insert_with(|| AggAcc::new(agg));
            for seg in &series.segments {
                if let Some((lo, hi)) = self.window_offsets(seg, sel) {
                    acc.add_segment(seg, lo, hi);
                }
            }
        }
        groups
            .into_iter()
            .filter_map(|(gk, acc)| acc.finish(agg).map(|res| (gk, res)))
            .collect()
    }

    /// Reconstructs one series' per-tick values from its models, in tick
    /// order starting at the series' first stored tick. Lossless for raw
    /// segments; within each segment's `error_pct` otherwise. Empty when
    /// the key is unknown.
    pub fn reconstruct(&self, key: &SeriesKey) -> Vec<f64> {
        let Some(series) = self.series.get(key) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(series.points as usize);
        for seg in &series.segments {
            for i in 0..seg.count {
                out.push(seg.value_at(i));
            }
        }
        out
    }

    /// The inclusive offset range of `seg` that falls inside `sel`'s time
    /// window, or `None` when they do not intersect.
    fn window_offsets(&self, seg: &Segment, sel: &Selector) -> Option<(u32, u32)> {
        let mut lo = i64::from(seg.start_tick);
        let mut hi = i64::from(seg.end_tick()) - 1;
        if let Some(from) = sel.from {
            // First tick at or after `from`: ceil((from - origin) / interval).
            let ticks = ((from - self.origin).seconds() / self.interval.seconds()).ceil();
            lo = lo.max(ticks);
        }
        if let Some(to) = sel.to {
            let ticks = ((to - self.origin).seconds() / self.interval.seconds()).floor();
            hi = hi.min(ticks);
        }
        if lo > hi {
            return None;
        }
        Some((
            (lo - i64::from(seg.start_tick)) as u32,
            (hi - i64::from(seg.start_tick)) as u32,
        ))
    }
}

/// `agg` over a plain column of values, exactly (no model error): the
/// health plane's windowed rule samples and the query layer's row columns.
/// `None` when the column is empty.
pub(crate) fn aggregate_column(values: &mut [f64], agg: Aggregate) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(match agg {
        Aggregate::Count => values.len() as f64,
        Aggregate::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
        Aggregate::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        Aggregate::Mean => values.iter().sum::<f64>() / values.len() as f64,
        Aggregate::Quantile(p) => {
            values.sort_by(|a, b| a.partial_cmp(b).expect("column values are finite"));
            let n = values.len() as u64;
            let rank = (u64::from(p.min(100)) * n).div_ceil(100).max(1);
            values[(rank - 1) as usize]
        }
    })
}

/// One aggregate in progress: the running extrema/sum plus the weighted
/// value set a quantile needs, fed one segment window at a time. Shared by
/// the plain and grouped aggregate paths so both make exactly one pass.
#[derive(Debug)]
struct AggAcc {
    points: u64,
    segments: usize,
    error_pct: f64,
    min: f64,
    max: f64,
    sum: f64,
    /// (value, weight) pairs for the quantile; weight-compressed for
    /// constant segments, enumerated for linear/raw ones.
    weighted: Vec<(f64, u64)>,
    want_quantile: bool,
}

impl AggAcc {
    fn new(agg: Aggregate) -> AggAcc {
        AggAcc {
            points: 0,
            segments: 0,
            error_pct: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            weighted: Vec::new(),
            want_quantile: matches!(agg, Aggregate::Quantile(_)),
        }
    }

    fn add_segment(&mut self, seg: &Segment, lo: u32, hi: u32) {
        let n = u64::from(hi - lo + 1);
        self.points += n;
        self.segments += 1;
        self.error_pct = self.error_pct.max(seg.error_pct);
        self.min = self.min.min(seg.min_over(lo, hi));
        self.max = self.max.max(seg.max_over(lo, hi));
        self.sum += seg.sum_over(lo, hi);
        if self.want_quantile {
            match &seg.model {
                SegmentModel::Constant { value } => self.weighted.push((*value, n)),
                _ => self
                    .weighted
                    .extend((lo..=hi).map(|i| (seg.value_at(i), 1))),
            }
        }
    }

    fn finish(mut self, agg: Aggregate) -> Option<AggResult> {
        if self.points == 0 {
            return None;
        }
        let value = match agg {
            Aggregate::Count => {
                self.error_pct = 0.0;
                self.points as f64
            }
            Aggregate::Min => self.min,
            Aggregate::Max => self.max,
            Aggregate::Mean => self.sum / self.points as f64,
            Aggregate::Quantile(p) => weighted_quantile(&mut self.weighted, p, self.points),
        };
        Some(AggResult {
            value,
            error_pct: self.error_pct,
            points: self.points,
            segments: self.segments,
        })
    }
}

/// Nearest-rank percentile over `(value, weight)` pairs covering `total`
/// ticks: `p = 0` is the minimum, `p = 100` the maximum, mirroring
/// `Histogram::quantile`'s pinned edges.
fn weighted_quantile(weighted: &mut [(f64, u64)], p: u8, total: u64) -> f64 {
    let p = u64::from(p.min(100));
    weighted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("telemetry samples are finite"));
    let rank = (p * total).div_ceil(100).max(1);
    let mut seen = 0u64;
    for &(value, weight) in weighted.iter() {
        seen += weight;
        if seen >= rank {
            return value;
        }
    }
    weighted.last().map_or(0.0, |&(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ErrorBound;
    use crate::sink::SeriesSink;

    fn key(node: u16, shard: Option<u16>, metric: Metric) -> SeriesKey {
        SeriesKey {
            node,
            shard,
            metric,
            degraded: false,
        }
    }

    fn store_series(store: &mut TelemetryStore, k: SeriesKey, series: &[f64], bound: f64) {
        let mut sink = SeriesSink::new(ErrorBound::percent(bound));
        for &v in series {
            sink.append(v);
        }
        sink.flush();
        for seg in sink.drain() {
            store.ingest(k, seg);
        }
    }

    fn ms(v: i64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    #[test]
    fn aggregates_on_models_match_raw_exactly_for_raw_series() {
        let mut store = TelemetryStore::new(TimePoint::ZERO, ms(50));
        let k = key(0, Some(0), Metric::LatenessUs);
        let series = [5.0, 900.0, 2.0, 770.0, 13.0, 1.0, 400.0];
        store_series(&mut store, k, &series, 1.0);
        let sel = Selector::metric(Metric::LatenessUs);
        let agg = |a| store.aggregate(&sel, a).expect("non-empty");
        assert_eq!(agg(Aggregate::Count).value, 7.0);
        assert_eq!(agg(Aggregate::Min).value, 1.0);
        assert_eq!(agg(Aggregate::Max).value, 900.0);
        let mean: f64 = series.iter().sum::<f64>() / series.len() as f64;
        assert!((agg(Aggregate::Mean).value - mean).abs() < 1e-9);
        assert_eq!(agg(Aggregate::Quantile(0)).value, 1.0);
        assert_eq!(agg(Aggregate::Quantile(100)).value, 900.0);
        assert_eq!(agg(Aggregate::Quantile(50)).value, 13.0);
        // A noisy 7-tick series compresses to raw: error accounting is 0.
        assert_eq!(agg(Aggregate::Mean).error_pct, 0.0);
    }

    #[test]
    fn windowed_aggregate_uses_tick_schedule() {
        let mut store = TelemetryStore::new(TimePoint::ZERO, ms(100));
        let k = key(1, Some(3), Metric::ThroughputBps);
        // Ticks at 0 ms, 100 ms, ... 900 ms with values 0..=9.
        let series: Vec<f64> = (0..10).map(f64::from).collect();
        store_series(&mut store, k, &series, 0.0);
        let sel = Selector::metric(Metric::ThroughputBps)
            .between(TimePoint::ZERO + ms(250), TimePoint::ZERO + ms(700));
        // Ticks 3..=7 → values 3,4,5,6,7.
        let got = store.aggregate(&sel, Aggregate::Mean).expect("window hits");
        assert_eq!(got.points, 5);
        assert_eq!(got.value, 5.0);
        assert_eq!(
            store.aggregate(&sel, Aggregate::Min).expect("window").value,
            3.0
        );
        assert_eq!(
            store.aggregate(&sel, Aggregate::Max).expect("window").value,
            7.0
        );
    }

    #[test]
    fn between_bounds_are_inclusive_at_both_ends() {
        let mut store = TelemetryStore::new(TimePoint::ZERO, ms(100));
        let k = key(0, Some(0), Metric::LatenessUs);
        let series: Vec<f64> = (0..10).map(f64::from).collect();
        store_series(&mut store, k, &series, 0.0);
        // A window landing exactly on ticks 2 and 5 keeps both boundary
        // ticks: `between` is `[from, to]` inclusive.
        let sel = Selector::metric(Metric::LatenessUs)
            .between(TimePoint::ZERO + ms(200), TimePoint::ZERO + ms(500));
        let got = store
            .aggregate(&sel, Aggregate::Count)
            .expect("window hits");
        assert_eq!(got.points, 4, "ticks 2,3,4,5");
        assert_eq!(
            store.aggregate(&sel, Aggregate::Min).expect("window").value,
            2.0
        );
        assert_eq!(
            store.aggregate(&sel, Aggregate::Max).expect("window").value,
            5.0
        );
        // Nudging either bound off-schedule by 1 ms excludes only the
        // boundary tick it crosses.
        let inner = Selector::metric(Metric::LatenessUs)
            .between(TimePoint::ZERO + ms(201), TimePoint::ZERO + ms(499));
        assert_eq!(
            store
                .aggregate(&inner, Aggregate::Count)
                .expect("hits")
                .points,
            2,
            "ticks 3,4"
        );
        // A degenerate window on a single tick instant keeps that tick.
        let point = Selector::metric(Metric::LatenessUs)
            .between(TimePoint::ZERO + ms(700), TimePoint::ZERO + ms(700));
        let got = store.aggregate(&point, Aggregate::Mean).expect("hits");
        assert_eq!(got.points, 1);
        assert_eq!(got.value, 7.0);
    }

    #[test]
    fn grouped_aggregate_rows_per_node() {
        let mut store = TelemetryStore::new(TimePoint::ZERO, ms(50));
        store_series(
            &mut store,
            key(0, Some(0), Metric::LatenessUs),
            &[10.0; 8],
            0.0,
        );
        store_series(
            &mut store,
            key(0, Some(1), Metric::LatenessUs),
            &[30.0; 8],
            0.0,
        );
        store_series(
            &mut store,
            key(2, Some(2), Metric::LatenessUs),
            &[90.0; 8],
            0.0,
        );
        let sel = Selector::metric(Metric::LatenessUs);
        let rows = store.aggregate_grouped(&sel, Aggregate::Mean, GroupBy::Node);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            (
                GroupKey::Node(0),
                AggResult {
                    value: 20.0,
                    error_pct: 0.0,
                    points: 16,
                    segments: 2
                }
            )
        );
        assert_eq!(rows[1].0, GroupKey::Node(2));
        assert_eq!(rows[1].1.value, 90.0);
        // Grouping by shard gives three rows, in shard order.
        let by_shard = store.aggregate_grouped(&sel, Aggregate::Max, GroupBy::Shard);
        assert_eq!(
            by_shard
                .iter()
                .map(|(k, r)| (*k, r.value))
                .collect::<Vec<_>>(),
            vec![
                (GroupKey::Shard(0), 10.0),
                (GroupKey::Shard(1), 30.0),
                (GroupKey::Shard(2), 90.0),
            ]
        );
    }

    #[test]
    fn grouping_a_pinned_field_returns_a_single_row() {
        let mut store = TelemetryStore::new(TimePoint::ZERO, ms(50));
        store_series(
            &mut store,
            key(0, Some(0), Metric::LatenessUs),
            &[10.0; 8],
            0.0,
        );
        store_series(
            &mut store,
            key(1, Some(1), Metric::LatenessUs),
            &[30.0; 8],
            0.0,
        );
        // The selector already pins node=1; grouping by node must not fan
        // the aggregate back out — one row, identical to the plain
        // aggregate (same points and segments consulted: no duplicated
        // work).
        let sel = Selector::metric(Metric::LatenessUs).on_node(1);
        let rows = store.aggregate_grouped(&sel, Aggregate::Mean, GroupBy::Node);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, GroupKey::Node(1));
        let plain = store.aggregate(&sel, Aggregate::Mean).expect("matches");
        assert_eq!(rows[0].1, plain);
        // Same with a pinned fidelity split.
        let split = store.aggregate_grouped(
            &Selector::metric(Metric::LatenessUs).degraded(false),
            Aggregate::Count,
            GroupBy::Degraded,
        );
        assert_eq!(split.len(), 1);
        assert_eq!(split[0].0, GroupKey::Degraded(false));
    }

    #[test]
    fn node_level_series_are_excluded_from_shard_grouping() {
        let mut store = TelemetryStore::new(TimePoint::ZERO, ms(50));
        store_series(
            &mut store,
            key(0, None, Metric::NodeLoadPct),
            &[50.0; 8],
            0.0,
        );
        store_series(
            &mut store,
            key(0, Some(3), Metric::LatenessUs),
            &[10.0; 8],
            0.0,
        );
        let rows = store.aggregate_grouped(&Selector::all(), Aggregate::Count, GroupBy::Shard);
        assert_eq!(rows.len(), 1, "only the shard-scoped series groups");
        assert_eq!(rows[0].0, GroupKey::Shard(3));
        // Grouped by node, both series land on node 0.
        let rows = store.aggregate_grouped(&Selector::all(), Aggregate::Count, GroupBy::Node);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.points, 16);
    }

    #[test]
    fn reconstruct_replays_models_in_tick_order() {
        let mut store = TelemetryStore::new(TimePoint::ZERO, ms(50));
        let k = key(0, Some(0), Metric::ThroughputBps);
        let series: Vec<f64> = (0..200).map(|i| f64::from(i % 7) * 100.0).collect();
        store_series(&mut store, k, &series, 0.0);
        // Lossless bound: reconstruction is the original series.
        assert_eq!(store.reconstruct(&k), series);
        assert!(store
            .reconstruct(&key(9, None, Metric::NodeLoadPct))
            .is_empty());
    }

    #[test]
    fn selector_separates_series() {
        let mut store = TelemetryStore::new(TimePoint::ZERO, ms(50));
        store_series(
            &mut store,
            key(0, Some(0), Metric::CacheHitPct),
            &[10.0; 20],
            1.0,
        );
        store_series(
            &mut store,
            key(1, Some(1), Metric::CacheHitPct),
            &[90.0; 20],
            1.0,
        );
        let on = |sel: Selector| store.aggregate(&sel, Aggregate::Mean).expect("hit").value;
        assert_eq!(on(Selector::metric(Metric::CacheHitPct).on_node(0)), 10.0);
        assert_eq!(on(Selector::metric(Metric::CacheHitPct).on_node(1)), 90.0);
        assert_eq!(on(Selector::metric(Metric::CacheHitPct)), 50.0);
        assert!(store
            .aggregate(
                &Selector::metric(Metric::CacheHitPct).on_node(7),
                Aggregate::Mean
            )
            .is_none());
    }

    #[test]
    fn error_accounting_reports_worst_contributing_bound() {
        let mut store = TelemetryStore::new(TimePoint::ZERO, ms(50));
        let k = key(0, Some(0), Metric::LatenessUs);
        store_series(&mut store, k, &[500.0; 30], 2.5);
        let got = store
            .aggregate(&Selector::metric(Metric::LatenessUs), Aggregate::Mean)
            .expect("hit");
        assert_eq!(got.error_pct, 2.5);
        assert!((got.value - 500.0).abs() <= 0.025 * 500.0);
        // Count is always exact.
        let count = store
            .aggregate(&Selector::metric(Metric::LatenessUs), Aggregate::Count)
            .expect("hit");
        assert_eq!(count.error_pct, 0.0);
    }

    #[test]
    fn compression_ratio_counts_framing() {
        let mut store = TelemetryStore::new(TimePoint::ZERO, ms(50));
        let k = key(0, Some(0), Metric::LatenessUs);
        store_series(&mut store, k, &[0.0; 100], 1.0);
        // 100 ticks → 800 raw bytes; one constant segment (16) + series
        // framing (16) = 32 bytes → 25×.
        assert_eq!(store.raw_bytes(), 800);
        assert_eq!(store.compressed_bytes(), 32);
        assert!((store.compression_ratio() - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "tile")]
    fn ingest_rejects_gaps() {
        let mut store = TelemetryStore::new(TimePoint::ZERO, ms(50));
        let k = key(0, None, Metric::NodeLoadPct);
        store.ingest(
            k,
            Segment {
                start_tick: 5,
                count: 1,
                error_pct: 0.0,
                model: SegmentModel::Raw { values: vec![1.0] },
            },
        );
    }

    #[test]
    fn series_key_renders_stably() {
        let k = SeriesKey {
            node: 2,
            shard: Some(5),
            metric: Metric::LatenessUs,
            degraded: true,
        };
        assert_eq!(k.to_string(), "node2.shard5.lateness_us.degraded");
        let n = key(3, None, Metric::NodeLoadPct);
        assert_eq!(n.to_string(), "node3.node_load_pct");
    }
}
