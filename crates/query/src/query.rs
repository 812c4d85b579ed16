//! The typed query surface: `scan → filter → aggregate` over fleet state.
//!
//! A [`Query`] names a [`Source`] (which typed row set to scan), a list of
//! [`Predicate`]s over that source's columns, and optionally an
//! [`Aggregate`]. Predicates are *typed*: asking for a codec on the
//! `Misses` source, or a miss cause on `Objects`, is a [`QueryError`] at
//! run time — not a silently empty result.
//!
//! Row sources are snapshots collected into a [`QueryCtx`] (usually via
//! [`QueryCtx::from_fleet`]); the `Metrics` source is different — it is
//! answered *model-natively* by a [`TelemetryStore`] attached with
//! [`QueryCtx::with_telemetry`], so an aggregate like "p99 lateness for
//! degraded sessions on node 2 during the brownout" never touches raw
//! samples, and its answer carries the store's error accounting.
//!
//! Results are a [`Table`]; [`Table::render`] produces a deterministic
//! aligned-text rendering suitable for golden comparisons.

use std::collections::BTreeMap;
use std::fmt;

use tbm_blob::BlobStore;
use tbm_core::MediaKind;
use tbm_db::{ObjectColumns, StreamColumns};
use tbm_obs::{attribute, MissCause, TraceView};
use tbm_serve::{AdmitDecision, Fleet, SessionState, SHARD_SESSION_STRIDE};
use tbm_time::{Rational, TimePoint};

use crate::store::{Aggregate, GroupBy, GroupKey, Metric, Selector, TelemetryStore};

/// Which typed row set a query scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Live sessions across all shards.
    Sessions,
    /// Catalog objects across all shards.
    Objects,
    /// Stream interpretations across all shards.
    Streams,
    /// Attributed deadline misses from the fleet trace.
    Misses,
    /// Model-compressed telemetry series (needs a [`TelemetryStore`]).
    Metrics,
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Source::Sessions => "sessions",
            Source::Objects => "objects",
            Source::Streams => "streams",
            Source::Misses => "misses",
            Source::Metrics => "metrics",
        })
    }
}

/// A typed filter on a source's columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Rows/series belonging to this shard (every source).
    OnShard(u16),
    /// Rows/series hosted by this node (every source).
    OnNode(u16),
    /// Object name contains the needle (`Objects`, `Streams`, `Sessions`).
    NameContains(String),
    /// Media kind equals (`Objects`, `Streams`).
    KindIs(MediaKind),
    /// Declared codec equals (`Objects`, `Streams`).
    CodecIs(String),
    /// Attributed miss cause equals (`Misses`).
    CauseIs(MissCause),
    /// Degraded-fidelity split: sessions admitted degraded, or the
    /// degraded half of a split telemetry series (`Sessions`, `Metrics`).
    Degraded(bool),
    /// Telemetry metric equals (`Metrics`).
    MetricIs(Metric),
    /// Inclusive time window (`Misses`: the miss instant; `Metrics`: the
    /// sample tick).
    During(TimePoint, TimePoint),
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::OnShard(s) => write!(f, "shard={s}"),
            Predicate::OnNode(n) => write!(f, "node={n}"),
            Predicate::NameContains(n) => write!(f, "name~\"{n}\""),
            Predicate::KindIs(k) => write!(f, "kind={k:?}"),
            Predicate::CodecIs(c) => write!(f, "codec={c}"),
            Predicate::CauseIs(c) => write!(f, "cause={c}"),
            Predicate::Degraded(true) => write!(f, "degraded"),
            Predicate::Degraded(false) => write!(f, "full-fidelity"),
            Predicate::MetricIs(m) => write!(f, "metric={m}"),
            Predicate::During(a, b) => write!(f, "during[{a}, {b}]"),
        }
    }
}

/// A typed-query failure.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The predicate's column does not exist on the scanned source.
    PredicateNotTyped {
        /// The source being scanned.
        source: Source,
        /// The offending predicate, rendered.
        predicate: String,
    },
    /// A `Metrics` query ran against a context with no telemetry store.
    NoTelemetry,
    /// The grouping column does not exist on the scanned source.
    GroupNotTyped {
        /// The source being scanned.
        source: Source,
        /// The offending grouping, rendered.
        group: String,
    },
    /// `group_by` without an aggregate — grouped listings are not a thing;
    /// group rows are aggregate rows.
    GroupWithoutAggregate,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::PredicateNotTyped { source, predicate } => {
                write!(f, "predicate {predicate} is not typed for scan({source})")
            }
            QueryError::NoTelemetry => {
                write!(f, "scan(metrics) needs a TelemetryStore on the QueryCtx")
            }
            QueryError::GroupNotTyped { source, group } => {
                write!(f, "group({group}) is not typed for scan({source})")
            }
            QueryError::GroupWithoutAggregate => {
                write!(f, "group_by needs an aggregate to evaluate per group")
            }
        }
    }
}

impl std::error::Error for QueryError {}

// ----------------------------------------------------------------------
// Row snapshots
// ----------------------------------------------------------------------

/// One catalog object with its placement.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectRow {
    /// Shard the object's name routes to.
    pub shard: u16,
    /// Node hosting that shard at snapshot time.
    pub node: u16,
    /// The typed catalog columns.
    pub columns: ObjectColumns,
}

/// One stream interpretation with its placement.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRow {
    /// Shard the owning object routes to.
    pub shard: u16,
    /// Node hosting that shard at snapshot time.
    pub node: u16,
    /// The typed catalog columns.
    pub columns: StreamColumns,
}

/// One session with its placement and lifetime statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRow {
    /// Raw session id (the shard index is its high half).
    pub session: u64,
    /// Shard that owns the session.
    pub shard: u16,
    /// Node hosting that shard at snapshot time.
    pub node: u16,
    /// The object being served.
    pub object: String,
    /// Lifecycle state.
    pub state: SessionState,
    /// `true` when the session was admitted (or later downgraded) to
    /// degraded fidelity.
    pub degraded: bool,
    /// Elements served so far.
    pub elements: u64,
    /// Deadline misses so far.
    pub misses: u64,
    /// Worst lateness so far, µs.
    pub max_lateness_us: i64,
}

/// One attributed deadline miss.
#[derive(Debug, Clone, PartialEq)]
pub struct MissRow {
    /// Raw id of the session that missed.
    pub session: u64,
    /// Shard that owns the session.
    pub shard: u16,
    /// Node hosting that shard at snapshot time.
    pub node: u16,
    /// Element index within the session's schedule.
    pub element: i64,
    /// When the element finally presented.
    pub at: TimePoint,
    /// How late it was, µs.
    pub lateness_us: i64,
    /// The single attributed cause.
    pub cause: MissCause,
}

/// The state a query runs against: typed row snapshots plus (optionally)
/// the telemetry store.
#[derive(Debug, Default)]
pub struct QueryCtx<'a> {
    /// `scan(Objects)` rows.
    pub objects: Vec<ObjectRow>,
    /// `scan(Streams)` rows.
    pub streams: Vec<StreamRow>,
    /// `scan(Sessions)` rows.
    pub sessions: Vec<SessionRow>,
    /// `scan(Misses)` rows.
    pub misses: Vec<MissRow>,
    /// `scan(Metrics)` backing store.
    pub telemetry: Option<&'a TelemetryStore>,
}

impl<'a> QueryCtx<'a> {
    /// An empty context (every scan yields no rows; `Metrics` errors).
    pub fn new() -> QueryCtx<'a> {
        QueryCtx::default()
    }

    /// Snapshots a fleet's catalogs, sessions and attributed misses into
    /// typed rows. Placement (`node` columns) is read at snapshot time, so
    /// rows reflect migrations that already happened.
    pub fn from_fleet<S: BlobStore>(fleet: &Fleet<S>) -> QueryCtx<'a> {
        let mut ctx = QueryCtx::new();
        let placement = fleet.placement();
        for shard in 0..fleet.shard_count() {
            let node = placement.node_of_shard(shard) as u16;
            let shard16 = shard as u16;
            let db = fleet.shard(shard).db();
            ctx.objects
                .extend(db.object_columns().into_iter().map(|columns| ObjectRow {
                    shard: shard16,
                    node,
                    columns,
                }));
            ctx.streams
                .extend(db.stream_columns().into_iter().map(|columns| StreamRow {
                    shard: shard16,
                    node,
                    columns,
                }));
        }
        for s in fleet.sessions() {
            let raw = s.id().raw();
            let shard = (raw / SHARD_SESSION_STRIDE) as usize;
            let stats = s.stats();
            ctx.sessions.push(SessionRow {
                session: raw,
                shard: shard as u16,
                node: placement.node_of_shard(shard) as u16,
                object: s.object().to_owned(),
                state: s.state(),
                degraded: matches!(s.decision(), AdmitDecision::Degraded { .. }),
                elements: stats.elements as u64,
                misses: stats.misses as u64,
                max_lateness_us: micros(stats.max_lateness.seconds()),
            });
        }
        if fleet.shard_count() > 0 {
            // Attributed and timed in place: no copy of the ring.
            fleet.shard(0).tracer().read(|trace| {
                for m in attribute(trace.records()).misses {
                    let shard = (m.session / SHARD_SESSION_STRIDE) as usize;
                    ctx.misses.push(MissRow {
                        session: m.session,
                        shard: shard as u16,
                        node: placement.node_of_shard(shard) as u16,
                        element: m.element,
                        at: miss_at(&trace, m.span),
                        lateness_us: m.lateness_us,
                        cause: m.cause,
                    });
                }
            });
        }
        ctx
    }

    /// Attaches the telemetry store the `Metrics` source answers from.
    pub fn with_telemetry(mut self, store: &'a TelemetryStore) -> QueryCtx<'a> {
        self.telemetry = Some(store);
        self
    }
}

/// When element span `span` ended (began, if still open): looked up by its
/// id's offset in the ring, [`TimePoint::ZERO`] once evicted.
fn miss_at(trace: &TraceView<'_>, span: u64) -> TimePoint {
    trace
        .get(span)
        .map_or(TimePoint::ZERO, |r| r.end().unwrap_or(r.start()))
}

/// µs from exact seconds, rounded.
fn micros(s: Rational) -> i64 {
    (s * Rational::from(1_000_000)).round()
}

// ----------------------------------------------------------------------
// The query itself
// ----------------------------------------------------------------------

/// A typed query: `scan(source) → filter(...) → group_by(...) →
/// aggregate(...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    source: Source,
    filters: Vec<Predicate>,
    group: Option<GroupBy>,
    aggregate: Option<Aggregate>,
}

impl Query {
    /// Starts a query scanning `source`.
    pub fn scan(source: Source) -> Query {
        Query {
            source,
            filters: Vec::new(),
            group: None,
            aggregate: None,
        }
    }

    /// Adds a predicate (conjunctive: every predicate must hold).
    pub fn filter(mut self, predicate: Predicate) -> Query {
        self.filters.push(predicate);
        self
    }

    /// Evaluates the aggregate once per distinct value of `group` — one
    /// row per group instead of one scalar. Requires
    /// [`aggregate`](Query::aggregate).
    pub fn group_by(mut self, group: GroupBy) -> Query {
        self.group = Some(group);
        self
    }

    /// Reduces the rows to one aggregate value instead of listing them.
    pub fn aggregate(mut self, aggregate: Aggregate) -> Query {
        self.aggregate = Some(aggregate);
        self
    }

    /// The query plan on one line, e.g.
    /// `scan(metrics) → filter(node=2 ∧ degraded) → group(shard) → p99`.
    pub fn describe(&self) -> String {
        let mut out = format!("scan({})", self.source);
        if !self.filters.is_empty() {
            let preds: Vec<String> = self.filters.iter().map(|p| p.to_string()).collect();
            out.push_str(&format!(" → filter({})", preds.join(" ∧ ")));
        }
        if let Some(group) = self.group {
            out.push_str(&format!(" → group({group})"));
        }
        if let Some(agg) = self.aggregate {
            out.push_str(&format!(" → {agg}"));
        }
        out
    }

    /// Runs the query against `ctx`.
    pub fn run(&self, ctx: &QueryCtx<'_>) -> Result<Table, QueryError> {
        self.check_types()?;
        match self.source {
            Source::Metrics => self.run_metrics(ctx),
            Source::Objects => {
                let rows: Vec<&ObjectRow> = ctx
                    .objects
                    .iter()
                    .filter(|r| self.matches_object(r))
                    .collect();
                if self.group.is_some() {
                    return self.grouped_table(
                        rows.iter()
                            .map(|r| {
                                (
                                    self.group_key(r.node, r.shard, None, None),
                                    r.columns.bytes as f64,
                                )
                            })
                            .collect(),
                        "bytes",
                    );
                }
                self.rows_or_aggregate(
                    rows.iter().map(|r| r.columns.bytes as f64).collect(),
                    "bytes",
                    || Table {
                        title: self.describe(),
                        columns: str_vec(&[
                            "object", "shard", "node", "kind", "codec", "elements", "bytes",
                        ]),
                        rows: rows
                            .iter()
                            .map(|r| {
                                vec![
                                    r.columns.name.clone(),
                                    r.shard.to_string(),
                                    r.node.to_string(),
                                    r.columns
                                        .kind
                                        .map_or_else(|| "derived".into(), |k| format!("{k:?}")),
                                    r.columns.codec.clone().unwrap_or_else(|| "-".into()),
                                    r.columns.elements.to_string(),
                                    r.columns.bytes.to_string(),
                                ]
                            })
                            .collect(),
                    },
                )
            }
            Source::Streams => {
                let rows: Vec<&StreamRow> = ctx
                    .streams
                    .iter()
                    .filter(|r| self.matches_stream(r))
                    .collect();
                if self.group.is_some() {
                    return self.grouped_table(
                        rows.iter()
                            .map(|r| {
                                (
                                    self.group_key(r.node, r.shard, None, None),
                                    r.columns.bytes as f64,
                                )
                            })
                            .collect(),
                        "bytes",
                    );
                }
                self.rows_or_aggregate(
                    rows.iter().map(|r| r.columns.bytes as f64).collect(),
                    "bytes",
                    || Table {
                        title: self.describe(),
                        columns: str_vec(&[
                            "object", "shard", "node", "kind", "codec", "elements", "bytes",
                            "ticks",
                        ]),
                        rows: rows
                            .iter()
                            .map(|r| {
                                vec![
                                    r.columns.object.clone(),
                                    r.shard.to_string(),
                                    r.node.to_string(),
                                    format!("{:?}", r.columns.kind),
                                    r.columns.codec.clone().unwrap_or_else(|| "-".into()),
                                    r.columns.elements.to_string(),
                                    r.columns.bytes.to_string(),
                                    r.columns
                                        .tick_span
                                        .map_or_else(|| "-".into(), |(a, b)| format!("{a}..{b}")),
                                ]
                            })
                            .collect(),
                    },
                )
            }
            Source::Sessions => {
                let rows: Vec<&SessionRow> = ctx
                    .sessions
                    .iter()
                    .filter(|r| self.matches_session(r))
                    .collect();
                if self.group.is_some() {
                    return self.grouped_table(
                        rows.iter()
                            .map(|r| {
                                (
                                    self.group_key(r.node, r.shard, Some(r.degraded), None),
                                    r.max_lateness_us as f64,
                                )
                            })
                            .collect(),
                        "max_lateness_us",
                    );
                }
                self.rows_or_aggregate(
                    rows.iter().map(|r| r.max_lateness_us as f64).collect(),
                    "max_lateness_us",
                    || Table {
                        title: self.describe(),
                        columns: str_vec(&[
                            "session",
                            "shard",
                            "node",
                            "object",
                            "state",
                            "fidelity",
                            "elements",
                            "misses",
                            "max_late_us",
                        ]),
                        rows: rows
                            .iter()
                            .map(|r| {
                                vec![
                                    session_label(r.session),
                                    r.shard.to_string(),
                                    r.node.to_string(),
                                    r.object.clone(),
                                    format!("{:?}", r.state),
                                    if r.degraded { "degraded" } else { "full" }.into(),
                                    r.elements.to_string(),
                                    r.misses.to_string(),
                                    r.max_lateness_us.to_string(),
                                ]
                            })
                            .collect(),
                    },
                )
            }
            Source::Misses => {
                let rows: Vec<&MissRow> =
                    ctx.misses.iter().filter(|r| self.matches_miss(r)).collect();
                if self.group.is_some() {
                    return self.grouped_table(
                        rows.iter()
                            .map(|r| {
                                (
                                    self.group_key(r.node, r.shard, None, Some(r.cause)),
                                    r.lateness_us as f64,
                                )
                            })
                            .collect(),
                        "lateness_us",
                    );
                }
                self.rows_or_aggregate(
                    rows.iter().map(|r| r.lateness_us as f64).collect(),
                    "lateness_us",
                    || Table {
                        title: self.describe(),
                        columns: str_vec(&[
                            "at",
                            "session",
                            "shard",
                            "node",
                            "element",
                            "lateness_us",
                            "cause",
                        ]),
                        rows: rows
                            .iter()
                            .map(|r| {
                                vec![
                                    r.at.to_string(),
                                    session_label(r.session),
                                    r.shard.to_string(),
                                    r.node.to_string(),
                                    r.element.to_string(),
                                    r.lateness_us.to_string(),
                                    r.cause.to_string(),
                                ]
                            })
                            .collect(),
                    },
                )
            }
        }
    }

    /// Every predicate must be typed for the scanned source.
    fn check_types(&self) -> Result<(), QueryError> {
        if let Some(group) = self.group {
            if self.aggregate.is_none() {
                return Err(QueryError::GroupWithoutAggregate);
            }
            let ok = match group {
                GroupBy::Node | GroupBy::Shard => true,
                GroupBy::Degraded => matches!(self.source, Source::Sessions | Source::Metrics),
                GroupBy::Cause => self.source == Source::Misses,
            };
            if !ok {
                return Err(QueryError::GroupNotTyped {
                    source: self.source,
                    group: group.to_string(),
                });
            }
        }
        for p in &self.filters {
            let ok = match p {
                Predicate::OnShard(_) | Predicate::OnNode(_) => true,
                Predicate::NameContains(_) => matches!(
                    self.source,
                    Source::Objects | Source::Streams | Source::Sessions
                ),
                Predicate::KindIs(_) | Predicate::CodecIs(_) => {
                    matches!(self.source, Source::Objects | Source::Streams)
                }
                Predicate::CauseIs(_) => self.source == Source::Misses,
                Predicate::Degraded(_) => {
                    matches!(self.source, Source::Sessions | Source::Metrics)
                }
                Predicate::MetricIs(_) => self.source == Source::Metrics,
                Predicate::During(_, _) => {
                    matches!(self.source, Source::Misses | Source::Metrics)
                }
            };
            if !ok {
                return Err(QueryError::PredicateNotTyped {
                    source: self.source,
                    predicate: p.to_string(),
                });
            }
        }
        Ok(())
    }

    fn matches_object(&self, r: &ObjectRow) -> bool {
        self.filters.iter().all(|p| match p {
            Predicate::OnShard(s) => r.shard == *s,
            Predicate::OnNode(n) => r.node == *n,
            Predicate::NameContains(needle) => r.columns.name.contains(needle),
            Predicate::KindIs(k) => r.columns.kind == Some(*k),
            Predicate::CodecIs(c) => r.columns.codec.as_deref() == Some(c.as_str()),
            _ => true,
        })
    }

    fn matches_stream(&self, r: &StreamRow) -> bool {
        self.filters.iter().all(|p| match p {
            Predicate::OnShard(s) => r.shard == *s,
            Predicate::OnNode(n) => r.node == *n,
            Predicate::NameContains(needle) => r.columns.object.contains(needle),
            Predicate::KindIs(k) => r.columns.kind == *k,
            Predicate::CodecIs(c) => r.columns.codec.as_deref() == Some(c.as_str()),
            _ => true,
        })
    }

    fn matches_session(&self, r: &SessionRow) -> bool {
        self.filters.iter().all(|p| match p {
            Predicate::OnShard(s) => r.shard == *s,
            Predicate::OnNode(n) => r.node == *n,
            Predicate::NameContains(needle) => r.object.contains(needle),
            Predicate::Degraded(d) => r.degraded == *d,
            _ => true,
        })
    }

    fn matches_miss(&self, r: &MissRow) -> bool {
        self.filters.iter().all(|p| match p {
            Predicate::OnShard(s) => r.shard == *s,
            Predicate::OnNode(n) => r.node == *n,
            Predicate::CauseIs(c) => r.cause == *c,
            Predicate::During(a, b) => r.at >= *a && r.at <= *b,
            _ => true,
        })
    }

    /// The `Metrics` source: translate predicates to a [`Selector`] and
    /// answer from the store's models.
    fn run_metrics(&self, ctx: &QueryCtx<'_>) -> Result<Table, QueryError> {
        let store = ctx.telemetry.ok_or(QueryError::NoTelemetry)?;
        let mut sel = Selector::all();
        for p in &self.filters {
            match p {
                Predicate::OnShard(s) => sel.shard = Some(*s),
                Predicate::OnNode(n) => sel.node = Some(*n),
                Predicate::MetricIs(m) => sel.metric = Some(*m),
                Predicate::Degraded(d) => sel.degraded = Some(*d),
                Predicate::During(a, b) => {
                    sel.from = Some(*a);
                    sel.to = Some(*b);
                }
                _ => unreachable!("check_types rejected untyped predicates"),
            }
        }
        if let Some(group) = self.group {
            let agg = self.aggregate.expect("check_types requires an aggregate");
            let rows = store
                .aggregate_grouped(&sel, agg, group)
                .into_iter()
                .map(|(k, res)| {
                    vec![
                        k.to_string(),
                        agg.to_string(),
                        fmt_value(res.value),
                        format!("±{}%", fmt_value(res.error_pct)),
                        res.points.to_string(),
                        res.segments.to_string(),
                    ]
                })
                .collect();
            let gcol = group.to_string();
            return Ok(Table {
                title: self.describe(),
                columns: str_vec(&[
                    gcol.as_str(),
                    "aggregate",
                    "value",
                    "error",
                    "points",
                    "segments",
                ]),
                rows,
            });
        }
        if let Some(agg) = self.aggregate {
            let mut row = vec![self.source.to_string(), agg.to_string()];
            match store.aggregate(&sel, agg) {
                Some(res) => row.extend([
                    fmt_value(res.value),
                    format!("±{}%", fmt_value(res.error_pct)),
                    res.points.to_string(),
                    res.segments.to_string(),
                ]),
                None => row.extend([
                    "-".to_string(),
                    "-".to_string(),
                    "0".to_string(),
                    "0".to_string(),
                ]),
            }
            return Ok(Table {
                title: self.describe(),
                columns: str_vec(&[
                    "source",
                    "aggregate",
                    "value",
                    "error",
                    "points",
                    "segments",
                ]),
                rows: vec![row],
            });
        }
        // No aggregate: list the matching series.
        let rows = store
            .keys()
            .filter(|k| sel.matches(k))
            .map(|k| {
                let segs = store.segments(k);
                let points: u64 = segs.iter().map(|s| u64::from(s.count)).sum();
                let bytes: u64 = segs.iter().map(|s| s.encoded_bytes()).sum();
                vec![
                    k.to_string(),
                    segs.len().to_string(),
                    points.to_string(),
                    bytes.to_string(),
                ]
            })
            .collect();
        Ok(Table {
            title: self.describe(),
            columns: str_vec(&["series", "segments", "points", "bytes"]),
            rows,
        })
    }

    /// The grouped-row key for this query's `group_by` column. `degraded`
    /// and `cause` are only consulted for sources `check_types` admits
    /// them on.
    fn group_key(
        &self,
        node: u16,
        shard: u16,
        degraded: Option<bool>,
        cause: Option<MissCause>,
    ) -> GroupKey {
        match self.group.expect("grouped execution path") {
            GroupBy::Node => GroupKey::Node(node),
            GroupBy::Shard => GroupKey::Shard(shard),
            GroupBy::Degraded => GroupKey::Degraded(degraded.expect("check_types typed the group")),
            GroupBy::Cause => GroupKey::Cause(cause.expect("check_types typed the group")),
        }
    }

    /// Buckets `(group, value)` pairs and aggregates each bucket — the
    /// grouped tail shared by every row source.
    fn grouped_table(
        &self,
        pairs: Vec<(GroupKey, f64)>,
        column: &str,
    ) -> Result<Table, QueryError> {
        let agg = self.aggregate.expect("check_types requires an aggregate");
        let group = self.group.expect("grouped execution path");
        let mut buckets: BTreeMap<GroupKey, Vec<f64>> = BTreeMap::new();
        for (k, v) in pairs {
            buckets.entry(k).or_default().push(v);
        }
        let gcol = group.to_string();
        Ok(Table {
            title: self.describe(),
            columns: str_vec(&[gcol.as_str(), "column", "aggregate", "value", "rows"]),
            rows: buckets
                .into_iter()
                .map(|(k, mut vals)| {
                    let value = aggregate_values(&mut vals, agg);
                    vec![
                        k.to_string(),
                        column.to_string(),
                        agg.to_string(),
                        value.map_or_else(|| "-".to_string(), fmt_value),
                        vals.len().to_string(),
                    ]
                })
                .collect(),
        })
    }

    /// Shared listing-vs-aggregate tail for the row sources: `values` is
    /// the source's aggregation column.
    fn rows_or_aggregate(
        &self,
        mut values: Vec<f64>,
        column: &str,
        listing: impl FnOnce() -> Table,
    ) -> Result<Table, QueryError> {
        let Some(agg) = self.aggregate else {
            return Ok(listing());
        };
        let value = aggregate_values(&mut values, agg);
        Ok(Table {
            title: self.describe(),
            columns: str_vec(&["source", "column", "aggregate", "value", "rows"]),
            rows: vec![vec![
                self.source.to_string(),
                column.to_string(),
                agg.to_string(),
                value.map_or_else(|| "-".to_string(), fmt_value),
                values.len().to_string(),
            ]],
        })
    }
}

/// Aggregates a plain column of row values (exact; no model error).
fn aggregate_values(values: &mut [f64], agg: Aggregate) -> Option<f64> {
    if values.is_empty() {
        return match agg {
            Aggregate::Count => Some(0.0),
            _ => None,
        };
    }
    Some(match agg {
        Aggregate::Count => values.len() as f64,
        Aggregate::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
        Aggregate::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        Aggregate::Mean => values.iter().sum::<f64>() / values.len() as f64,
        Aggregate::Quantile(p) => {
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite column values"));
            let n = values.len() as u64;
            let rank = (u64::from(p.min(100)) * n).div_ceil(100).max(1);
            values[(rank - 1) as usize]
        }
    })
}

/// `shard.offset` — readable, and stable across runs.
fn session_label(raw: u64) -> String {
    format!(
        "s{}.{}",
        raw / SHARD_SESSION_STRIDE,
        raw % SHARD_SESSION_STRIDE
    )
}

/// Deterministic numeric rendering: integers without a fraction, otherwise
/// three decimals.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn str_vec(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

// ----------------------------------------------------------------------
// Rendering
// ----------------------------------------------------------------------

/// A query result: a titled grid of strings.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The query plan that produced the table.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells, one `Vec` per row, matching `columns` in length.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Aligned-text rendering: title, header, rule, rows — byte-identical
    /// for identical results.
    pub fn render(&self) -> String {
        // Widths are in characters, not bytes — cells like "±1%" hold
        // multi-byte glyphs and must still align.
        let w = |s: &str| s.chars().count();
        let mut widths: Vec<usize> = self.columns.iter().map(|c| w(c)).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(w(cell));
                } else {
                    widths.push(w(cell));
                }
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                let pad = widths
                    .get(i)
                    .copied()
                    .unwrap_or(0)
                    .saturating_sub(cell.chars().count());
                if i + 1 < cells.len() {
                    line.extend(std::iter::repeat_n(' ', pad));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.columns));
        out.push('\n');
        let rule: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.extend(std::iter::repeat_n('-', rule));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        if self.rows.is_empty() {
            out.push_str("(no rows)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ErrorBound;
    use crate::sink::SeriesSink;
    use crate::store::SeriesKey;
    use tbm_time::TimeDelta;

    fn mini_store() -> TelemetryStore {
        let mut store = TelemetryStore::new(TimePoint::ZERO, TimeDelta::from_millis(50));
        let mut sink = SeriesSink::new(ErrorBound::percent(1.0));
        for v in [100.0; 40] {
            sink.append(v);
        }
        sink.flush();
        let key = SeriesKey {
            node: 2,
            shard: Some(1),
            metric: Metric::LatenessUs,
            degraded: true,
        };
        for seg in sink.drain() {
            store.ingest(key, seg);
        }
        store
    }

    #[test]
    fn miss_times_are_read_by_id_offset_and_evicted_spans_fall_back_to_zero() {
        use tbm_obs::{Category, SpanId, Tracer, ATTR_LATENESS_US, ELEMENT_SPAN};
        let t = |ms| TimePoint::ZERO + TimeDelta::from_millis(ms);
        let tracer = Tracer::with_capacity(2);
        let element = |ms: i64| {
            let span =
                tracer.begin_span(ELEMENT_SPAN, Category::Serve, t(ms), SpanId::NONE, Some(1));
            tracer.end_span_with(span, t(ms + 5), |a| a.put(ATTR_LATENESS_US, 10i64));
            span.raw()
        };
        let evicted = element(0);
        let resident = element(10);
        let misses = tracer.read(|trace| attribute(trace.records()).misses);
        assert_eq!(misses.len(), 2, "both misses attributed while resident");
        // One more record evicts the first miss's span.
        tracer.event("x", Category::Serve, t(20), SpanId::NONE, None, vec![]);
        tracer.read(|trace| {
            assert_eq!(miss_at(&trace, resident), t(15));
            assert_eq!(miss_at(&trace, evicted), TimePoint::ZERO);
        });
    }

    #[test]
    fn typed_predicates_are_enforced() {
        let ctx = QueryCtx::new();
        let err = Query::scan(Source::Objects)
            .filter(Predicate::CauseIs(MissCause::NodeLoss))
            .run(&ctx)
            .expect_err("cause is not an object column");
        assert!(matches!(err, QueryError::PredicateNotTyped { .. }));
        let err = Query::scan(Source::Misses)
            .filter(Predicate::CodecIs("dct".into()))
            .run(&ctx)
            .expect_err("codec is not a miss column");
        assert!(err.to_string().contains("scan(misses)"));
    }

    #[test]
    fn metrics_scan_requires_store() {
        let ctx = QueryCtx::new();
        let err = Query::scan(Source::Metrics)
            .run(&ctx)
            .expect_err("no store");
        assert_eq!(err, QueryError::NoTelemetry);
    }

    #[test]
    fn metrics_aggregate_answers_from_models() {
        let store = mini_store();
        let ctx = QueryCtx::new().with_telemetry(&store);
        let table = Query::scan(Source::Metrics)
            .filter(Predicate::MetricIs(Metric::LatenessUs))
            .filter(Predicate::OnNode(2))
            .filter(Predicate::Degraded(true))
            .aggregate(Aggregate::Quantile(99))
            .run(&ctx)
            .expect("typed and backed");
        assert_eq!(table.len(), 1);
        assert_eq!(table.rows[0][2], "100");
        assert_eq!(table.rows[0][4], "40");
        assert!(table.render().contains("p99"));
    }

    #[test]
    fn metrics_listing_shows_series() {
        let store = mini_store();
        let ctx = QueryCtx::new().with_telemetry(&store);
        let table = Query::scan(Source::Metrics).run(&ctx).expect("listing");
        assert_eq!(table.len(), 1);
        assert_eq!(table.rows[0][0], "node2.shard1.lateness_us.degraded");
    }

    #[test]
    fn empty_aggregate_renders_dash() {
        let ctx = QueryCtx::new();
        let table = Query::scan(Source::Sessions)
            .aggregate(Aggregate::Quantile(99))
            .run(&ctx)
            .expect("typed");
        assert_eq!(table.rows[0][3], "-");
        // Count over nothing is 0, not a hole.
        let table = Query::scan(Source::Sessions)
            .aggregate(Aggregate::Count)
            .run(&ctx)
            .expect("typed");
        assert_eq!(table.rows[0][3], "0");
    }

    #[test]
    fn session_rows_filter_on_typed_columns() {
        let mut ctx = QueryCtx::new();
        for (i, degraded) in [(0u64, false), (1, true), (2, true)] {
            ctx.sessions.push(SessionRow {
                session: SHARD_SESSION_STRIDE * 2 + i,
                shard: 2,
                node: 1,
                object: format!("movie{i}"),
                state: SessionState::Playing,
                degraded,
                elements: 10,
                misses: i,
                max_lateness_us: 1000 * i as i64,
            });
        }
        let table = Query::scan(Source::Sessions)
            .filter(Predicate::Degraded(true))
            .run(&ctx)
            .expect("typed");
        assert_eq!(table.len(), 2);
        assert_eq!(table.rows[0][0], "s2.1");
        let agg = Query::scan(Source::Sessions)
            .filter(Predicate::Degraded(true))
            .aggregate(Aggregate::Max)
            .run(&ctx)
            .expect("typed");
        assert_eq!(agg.rows[0][3], "2000");
    }

    #[test]
    fn render_is_aligned_and_stable() {
        let table = Table {
            title: "scan(x)".into(),
            columns: str_vec(&["a", "long_column"]),
            rows: vec![
                vec!["1".into(), "2".into()],
                vec!["wide-cell".into(), "3".into()],
            ],
        };
        let r = table.render();
        assert_eq!(
            r,
            "scan(x)\na          long_column\n----------------------\n1          2\nwide-cell  3\n"
        );
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(r, table.render());
    }

    #[test]
    fn describe_reads_like_a_plan() {
        let q = Query::scan(Source::Metrics)
            .filter(Predicate::OnNode(2))
            .filter(Predicate::Degraded(true))
            .aggregate(Aggregate::Quantile(99));
        assert_eq!(
            q.describe(),
            "scan(metrics) → filter(node=2 ∧ degraded) → p99"
        );
    }

    #[test]
    fn grouped_misses_count_by_cause_is_one_query() {
        let mut ctx = QueryCtx::new();
        for (i, cause) in [
            (1i64, MissCause::NodeLoss),
            (2, MissCause::RetryStorm),
            (3, MissCause::NodeLoss),
            (4, MissCause::NodeLoss),
        ] {
            ctx.misses.push(MissRow {
                session: 5,
                shard: (i % 2) as u16,
                node: 0,
                element: i,
                at: TimePoint::from_secs(i),
                lateness_us: 100 * i,
                cause,
            });
        }
        let table = Query::scan(Source::Misses)
            .group_by(GroupBy::Cause)
            .aggregate(Aggregate::Count)
            .run(&ctx)
            .expect("typed");
        assert_eq!(table.len(), 2);
        // MissCause::ALL order: node-loss before retry-storm.
        assert_eq!(table.rows[0][0], "node-loss");
        assert_eq!(table.rows[0][3], "3");
        assert_eq!(table.rows[1][0], "retry-storm");
        assert_eq!(table.rows[1][3], "1");
        assert!(table.title.contains("group(cause)"));
        // Grouping by shard works on the same source.
        let table = Query::scan(Source::Misses)
            .group_by(GroupBy::Shard)
            .aggregate(Aggregate::Max)
            .run(&ctx)
            .expect("typed");
        assert_eq!(table.len(), 2);
        assert_eq!(table.rows[1][0], "shard1");
        assert_eq!(table.rows[1][3], "300");
    }

    #[test]
    fn grouped_metrics_answer_from_models_per_group() {
        let store = mini_store();
        let ctx = QueryCtx::new().with_telemetry(&store);
        let table = Query::scan(Source::Metrics)
            .filter(Predicate::MetricIs(Metric::LatenessUs))
            .group_by(GroupBy::Node)
            .aggregate(Aggregate::Mean)
            .run(&ctx)
            .expect("typed and backed");
        assert_eq!(table.len(), 1);
        assert_eq!(table.rows[0][0], "node2");
        assert_eq!(table.rows[0][2], "100");
        assert_eq!(table.columns[0], "node");
    }

    #[test]
    fn group_typing_is_enforced() {
        let ctx = QueryCtx::new();
        let err = Query::scan(Source::Objects)
            .group_by(GroupBy::Cause)
            .aggregate(Aggregate::Count)
            .run(&ctx)
            .expect_err("cause is not an object column");
        assert!(matches!(err, QueryError::GroupNotTyped { .. }));
        assert!(err.to_string().contains("group(cause)"));
        let err = Query::scan(Source::Misses)
            .group_by(GroupBy::Degraded)
            .aggregate(Aggregate::Count)
            .run(&ctx)
            .expect_err("fidelity is not a miss column");
        assert!(matches!(err, QueryError::GroupNotTyped { .. }));
        let err = Query::scan(Source::Sessions)
            .group_by(GroupBy::Node)
            .run(&ctx)
            .expect_err("group without aggregate");
        assert_eq!(err, QueryError::GroupWithoutAggregate);
    }

    #[test]
    fn miss_rows_window_and_cause_filter() {
        let mut ctx = QueryCtx::new();
        for (i, cause) in [
            (1i64, MissCause::NodeLoss),
            (2, MissCause::RetryStorm),
            (3, MissCause::NodeLoss),
        ] {
            ctx.misses.push(MissRow {
                session: 5,
                shard: 0,
                node: 0,
                element: i,
                at: TimePoint::from_secs(i),
                lateness_us: 100 * i,
                cause,
            });
        }
        let table = Query::scan(Source::Misses)
            .filter(Predicate::CauseIs(MissCause::NodeLoss))
            .filter(Predicate::During(
                TimePoint::from_secs(2),
                TimePoint::from_secs(9),
            ))
            .run(&ctx)
            .expect("typed");
        assert_eq!(table.len(), 1);
        assert_eq!(table.rows[0][4], "3");
    }
}
