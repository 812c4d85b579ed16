//! The fleet health plane: typed SLO rules, multi-window burn-rate
//! alerting, and deterministic incident reports.
//!
//! An [`SloRule`] is an objective declared against the telemetry plane's
//! [`SeriesKey`] space — "p99 full-fidelity lateness ≤ 5 ms", "mean drop
//! rate ≤ 1%", "cross-node load skew ≤ 50%" — via the same [`Selector`]
//! the query surface uses. A [`HealthMonitor`] evaluates every rule once
//! per telemetry tick, **continuously in simulated time**:
//!
//! * Each tick, the rule's windowed aggregate is turned into a **burn
//!   rate**: how many times over (or under, for lower bounds) the
//!   objective the measured value is. `1.0` sits exactly on the
//!   objective.
//! * Two windows run side by side — a **fast** window (default 6 ticks)
//!   that catches abrupt failures like a node kill within a few ticks,
//!   and a **slow** window (default 36 ticks) that catches sustained
//!   low-grade decay a short window would shrug off. An alert opens when
//!   the fast burn crosses its (higher) trigger *or* the slow burn
//!   crosses its (lower) trigger — the classic multi-window
//!   multi-burn-rate scheme.
//! * **Hysteresis**: an open alert closes only after both burns have been
//!   back inside the objective (`< 1.0`) for `clear_ticks` consecutive
//!   ticks, so a value oscillating around the threshold cannot flap the
//!   alert open and closed every tick.
//!
//! Evaluation is a pure function of the sampled values, so the same run
//! produces the same transitions whether the monitor rides the live
//! sampler tick by tick ([`HealthMonitor::observe_tick`]) or replays a
//! [`TelemetryStore`] after the fact ([`HealthMonitor::replay`]) — the
//! equivalence `tests/prop.rs` pins. On close, an alert expands into an
//! [`IncidentReport`]: open/close ticks, the full burn trajectory, the
//! dominant miss-attribution causes during the window, and per-node /
//! per-shard breakdown tables — each breakdown one grouped query
//! ([`GroupBy`]) over the incident window.

use std::collections::BTreeMap;
use std::fmt;

use tbm_time::{TimeDelta, TimePoint};

use crate::model::{Segment, SegmentModel};
use crate::query::{Predicate, Query, QueryCtx, Source, Table};
use crate::store::{
    aggregate_column, Aggregate, GroupBy, Metric, Selector, SeriesKey, TelemetryStore,
};

/// Burn rates are clamped to this ceiling so zero-threshold objectives
/// ("unverified serves = 0") stay finite and reports render cleanly.
pub const BURN_CAP: f64 = 1000.0;

/// How an [`SloRule`] judges its windowed aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloObjective {
    /// The aggregate must stay at or below `threshold`. Burn is
    /// `value / threshold` (capped; a zero threshold burns [`BURN_CAP`]
    /// the moment the value is positive).
    Below {
        /// The windowed aggregate to evaluate.
        agg: Aggregate,
        /// The objective ceiling.
        threshold: f64,
    },
    /// The aggregate must stay at or above `threshold`. Burn is
    /// `threshold / value` (capped when the value collapses to zero).
    Above {
        /// The windowed aggregate to evaluate.
        agg: Aggregate,
        /// The objective floor.
        threshold: f64,
    },
    /// The cross-node skew of per-node window means —
    /// `(max − mean) / mean × 100`, the fleet's skew definition — must
    /// stay at or below `threshold_pct`. Needs at least two nodes
    /// reporting *and* a cross-node mean of at least `min_mean` (the
    /// low-traffic guard: skew over a near-idle fleet is placement noise,
    /// not imbalance); burns 0 otherwise.
    SkewBelow {
        /// The skew ceiling, percent.
        threshold_pct: f64,
        /// Minimum cross-node mean (in the series' own units) before
        /// skew is judged at all.
        min_mean: f64,
    },
}

impl SloObjective {
    /// The aggregate the objective windows, when it has one (`SkewBelow`
    /// reduces per-node means instead).
    pub fn aggregate(&self) -> Option<Aggregate> {
        match self {
            SloObjective::Below { agg, .. } | SloObjective::Above { agg, .. } => Some(*agg),
            SloObjective::SkewBelow { .. } => None,
        }
    }
}

impl fmt::Display for SloObjective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SloObjective::Below { agg, threshold } => write!(f, "{agg} ≤ {}", fmt_burn(*threshold)),
            SloObjective::Above { agg, threshold } => write!(f, "{agg} ≥ {}", fmt_burn(*threshold)),
            SloObjective::SkewBelow {
                threshold_pct,
                min_mean,
            } => {
                write!(
                    f,
                    "node skew ≤ {}% (mean ≥ {})",
                    fmt_burn(*threshold_pct),
                    fmt_burn(*min_mean)
                )
            }
        }
    }
}

/// One typed SLO rule: an objective over a [`Selector`]'s series, plus the
/// burn-rate windows, triggers, and hysteresis that govern its alert.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Stable rule name — the alert's identity in traces, counters and
    /// reports.
    pub name: String,
    /// Which series the objective ranges over (identity fields only; the
    /// monitor supplies the time window each tick).
    pub selector: Selector,
    /// The objective.
    pub objective: SloObjective,
    /// Fast-window length, ticks.
    pub fast_ticks: u32,
    /// Slow-window length, ticks.
    pub slow_ticks: u32,
    /// Fast-window burn that opens the alert (the higher trigger).
    pub fast_trigger: f64,
    /// Slow-window burn that opens the alert (the lower trigger).
    pub slow_trigger: f64,
    /// Consecutive ticks both burns must stay `< 1.0` before an open
    /// alert closes.
    pub clear_ticks: u32,
}

impl SloRule {
    /// A rule with the default windows: fast 6 ticks at trigger 2×, slow
    /// 36 ticks at trigger 1×, clearing after 6 calm ticks.
    ///
    /// # Panics
    /// When `name` is empty, or the objective's threshold is negative or
    /// not finite (`SkewBelow` additionally requires a positive bound).
    pub fn new(name: impl Into<String>, selector: Selector, objective: SloObjective) -> SloRule {
        let name = name.into();
        assert!(!name.is_empty(), "an SLO rule needs a name");
        let threshold_ok = match objective {
            SloObjective::Below { threshold, .. } | SloObjective::Above { threshold, .. } => {
                threshold.is_finite() && threshold >= 0.0
            }
            SloObjective::SkewBelow {
                threshold_pct,
                min_mean,
            } => {
                threshold_pct.is_finite()
                    && threshold_pct > 0.0
                    && min_mean.is_finite()
                    && min_mean >= 0.0
            }
        };
        assert!(threshold_ok, "rule {name}: objective threshold invalid");
        SloRule {
            name,
            selector,
            objective,
            fast_ticks: 6,
            slow_ticks: 36,
            fast_trigger: 2.0,
            slow_trigger: 1.0,
            clear_ticks: 6,
        }
    }

    /// Builder: window lengths in ticks.
    ///
    /// # Panics
    /// When `fast` is zero or `slow < fast`.
    pub fn windows(mut self, fast: u32, slow: u32) -> SloRule {
        assert!(
            fast >= 1 && slow >= fast,
            "windows must satisfy 1 ≤ fast ≤ slow"
        );
        self.fast_ticks = fast;
        self.slow_ticks = slow;
        self
    }

    /// Builder: burn triggers for the fast and slow windows.
    ///
    /// # Panics
    /// When either trigger is not positive and finite.
    pub fn triggers(mut self, fast: f64, slow: f64) -> SloRule {
        assert!(
            fast > 0.0 && fast.is_finite() && slow > 0.0 && slow.is_finite(),
            "burn triggers must be positive"
        );
        self.fast_trigger = fast;
        self.slow_trigger = slow;
        self
    }

    /// Builder: hysteresis — calm ticks required before closing.
    ///
    /// # Panics
    /// When `ticks` is zero.
    pub fn clear_after(mut self, ticks: u32) -> SloRule {
        assert!(ticks >= 1, "hysteresis needs at least one calm tick");
        self.clear_ticks = ticks;
        self
    }

    /// Built-in: p99 full-fidelity lateness at or below `threshold_us`.
    pub fn p99_full_lateness_below(threshold_us: f64) -> SloRule {
        SloRule::new(
            "lateness-p99-full",
            Selector::metric(Metric::LatenessUs).degraded(false),
            SloObjective::Below {
                agg: Aggregate::Quantile(99),
                threshold: threshold_us,
            },
        )
    }

    /// Built-in: mean element drop rate at or below `threshold_pct`.
    pub fn drop_rate_below(threshold_pct: f64) -> SloRule {
        SloRule::new(
            "drop-rate",
            Selector::metric(Metric::DropRatePct),
            SloObjective::Below {
                agg: Aggregate::Mean,
                threshold: threshold_pct,
            },
        )
    }

    /// Built-in: zero unverified serves, ever — the watchdog on the
    /// tiered store's no-unverified-reads invariant.
    pub fn no_unverified_serves() -> SloRule {
        SloRule::new(
            "unverified-serves",
            Selector::metric(Metric::UnverifiedServes),
            SloObjective::Below {
                agg: Aggregate::Max,
                threshold: 0.0,
            },
        )
    }

    /// Built-in: cross-node load skew at or below `threshold_pct`, judged
    /// only while the cross-node mean load is at least 5% (an idle fleet's
    /// skew is placement noise, not imbalance).
    pub fn load_skew_below(threshold_pct: f64) -> SloRule {
        SloRule::new(
            "load-skew",
            Selector::metric(Metric::NodeLoadPct),
            SloObjective::SkewBelow {
                threshold_pct,
                min_mean: 5.0,
            },
        )
    }

    /// Built-in: mean cache hit rate at or above `threshold_pct`.
    pub fn cache_hit_above(threshold_pct: f64) -> SloRule {
        SloRule::new(
            "cache-hit",
            Selector::metric(Metric::CacheHitPct),
            SloObjective::Above {
                agg: Aggregate::Mean,
                threshold: threshold_pct,
            },
        )
    }

    /// The rule on one line, e.g.
    /// `lateness-p99-full: p99 ≤ 5000 over lateness_us full [fast 6t ≥ 2x | slow 36t ≥ 1x | clear 6t]`.
    pub fn describe(&self) -> String {
        format!(
            "{}: {} over {} [fast {}t ≥ {}x | slow {}t ≥ {}x | clear {}t]",
            self.name,
            self.objective,
            selector_label(&self.selector),
            self.fast_ticks,
            fmt_burn(self.fast_trigger),
            self.slow_ticks,
            fmt_burn(self.slow_trigger),
            self.clear_ticks,
        )
    }
}

/// Compact identity rendering of a rule selector: metric (or `*`), the
/// fidelity split when pinned, node/shard when pinned.
fn selector_label(sel: &Selector) -> String {
    let mut parts: Vec<String> = Vec::new();
    parts.push(
        sel.metric
            .map_or_else(|| "*".to_string(), |m| m.to_string()),
    );
    if let Some(d) = sel.degraded {
        parts.push(if d { "degraded" } else { "full" }.to_string());
    }
    if let Some(n) = sel.node {
        parts.push(format!("node{n}"));
    }
    if let Some(s) = sel.shard {
        parts.push(format!("shard{s}"));
    }
    parts.join(" ")
}

/// Whether a transition opened or closed the alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// The alert opened at this tick.
    Opened,
    /// The alert closed at this tick (after the hysteresis ran out).
    Closed,
}

impl fmt::Display for AlertKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlertKind::Opened => "opened",
            AlertKind::Closed => "closed",
        })
    }
}

/// One alert state change, with the burns that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// The rule whose alert changed state.
    pub rule: String,
    /// Open or close.
    pub kind: AlertKind,
    /// The tick of the change.
    pub tick: u32,
    /// The simulated instant of the change.
    pub at: TimePoint,
    /// Fast-window burn at the change.
    pub fast_burn: f64,
    /// Slow-window burn at the change.
    pub slow_burn: f64,
}

/// One point of an open alert's burn trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnPoint {
    /// The tick.
    pub tick: u32,
    /// Fast-window burn at the tick.
    pub fast: f64,
    /// Slow-window burn at the tick.
    pub slow: f64,
}

/// A closed alert: one full open→close arc with its burn trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The rule that alerted.
    pub rule: String,
    /// The rule's objective, rendered.
    pub objective: String,
    /// The rule's selector (drives the report's breakdown queries).
    pub selector: Selector,
    /// The rule's windowed aggregate (`None` for skew objectives; the
    /// report's breakdowns fall back to the mean).
    pub aggregate: Option<Aggregate>,
    /// Tick the alert opened.
    pub opened_tick: u32,
    /// Instant the alert opened.
    pub opened_at: TimePoint,
    /// Tick the alert closed.
    pub closed_tick: u32,
    /// Instant the alert closed.
    pub closed_at: TimePoint,
    /// Worst fast-window burn while open.
    pub peak_fast: f64,
    /// Worst slow-window burn while open.
    pub peak_slow: f64,
    /// Per-tick burns from open to close, inclusive.
    pub trajectory: Vec<BurnPoint>,
}

/// Per-rule alert state machine.
#[derive(Debug, Clone, Default)]
struct RuleState {
    active: bool,
    opened_tick: u32,
    opened_at: TimePoint,
    peak_fast: f64,
    peak_slow: f64,
    calm: u32,
    trajectory: Vec<BurnPoint>,
    opens: u64,
    /// Burns from the most recent evaluated tick — what the remediation
    /// plane's verification pass re-reads.
    last_fast: f64,
    last_slow: f64,
}

/// One series' raw per-tick history inside the monitor.
#[derive(Debug, Clone)]
struct SeriesHistory {
    start_tick: u32,
    values: Vec<f64>,
}

/// The health plane's evaluator: SLO rules over per-tick samples, with
/// alert state machines and the raw history the incident reports query.
///
/// Feed it one batch of `(key, value)` samples per tick —
/// [`FleetTelemetry`](crate::FleetTelemetry) does this when attached via
/// `with_health` — or replay a finished store with
/// [`HealthMonitor::replay`]. With **zero rules** a tick is a counter
/// bump and an immediate return: no history is retained and nothing is
/// evaluated, so an unused health plane costs nothing.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    interval: TimeDelta,
    origin: Option<TimePoint>,
    ticks: u32,
    rules: Vec<SloRule>,
    states: Vec<RuleState>,
    history: BTreeMap<SeriesKey, SeriesHistory>,
    incidents: Vec<Incident>,
}

impl HealthMonitor {
    /// A monitor expecting one [`observe_tick`](HealthMonitor::observe_tick)
    /// every `interval` of simulated time.
    ///
    /// # Panics
    /// When `interval` is not strictly positive.
    pub fn new(interval: TimeDelta) -> HealthMonitor {
        assert!(
            !interval.is_zero() && !interval.is_negative(),
            "health tick interval must be positive"
        );
        HealthMonitor {
            interval,
            origin: None,
            ticks: 0,
            rules: Vec::new(),
            states: Vec::new(),
            incidents: Vec::new(),
            history: BTreeMap::new(),
        }
    }

    /// Builder: arms `rule`.
    pub fn rule(mut self, rule: SloRule) -> HealthMonitor {
        self.rules.push(rule);
        self.states.push(RuleState::default());
        self
    }

    /// The armed rules.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// The expected tick interval.
    pub fn interval(&self) -> TimeDelta {
        self.interval
    }

    /// Ticks observed so far.
    pub fn ticks(&self) -> u32 {
        self.ticks
    }

    /// Names of rules whose alert is open right now, in rule order.
    pub fn open_alerts(&self) -> Vec<&str> {
        self.rules
            .iter()
            .zip(&self.states)
            .filter(|(_, st)| st.active)
            .map(|(r, _)| r.name.as_str())
            .collect()
    }

    /// How many times `rule`'s alert has opened — the flap count a quiet
    /// fleet keeps at ≤ 1 per fault.
    pub fn opens(&self, rule: &str) -> u64 {
        self.rules
            .iter()
            .zip(&self.states)
            .find(|(r, _)| r.name == rule)
            .map_or(0, |(_, st)| st.opens)
    }

    /// Closed alerts, in close order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Whether `rule`'s alert is open right now.
    pub fn is_open(&self, rule: &str) -> bool {
        self.rules
            .iter()
            .zip(&self.states)
            .any(|(r, st)| r.name == rule && st.active)
    }

    /// The `(fast, slow)` burns `rule` computed at its most recent
    /// evaluated tick — `None` before the fast window has filled (or for
    /// an unknown rule). The remediation plane's verification pass reads
    /// this instead of recomputing windows.
    pub fn burns(&self, rule: &str) -> Option<(f64, f64)> {
        let (r, st) = self
            .rules
            .iter()
            .zip(&self.states)
            .find(|(r, _)| r.name == rule)?;
        if self.ticks < r.fast_ticks {
            return None;
        }
        Some((st.last_fast, st.last_slow))
    }

    /// Observes one tick of samples (at most one sample per series) at
    /// simulated instant `at`, evaluates every rule, and returns the alert
    /// transitions this tick caused, in rule order.
    ///
    /// Once a series has appeared it must be sampled every subsequent
    /// tick — the fleet sampler's contract — so each series' history
    /// stays aligned with the tick axis.
    pub fn observe_tick(
        &mut self,
        at: TimePoint,
        samples: &[(SeriesKey, f64)],
    ) -> Vec<AlertTransition> {
        if self.origin.is_none() {
            self.origin = Some(at);
        }
        let t = self.ticks;
        self.ticks += 1;
        if self.rules.is_empty() {
            // Zero rules: nothing to evaluate, nothing worth retaining.
            return Vec::new();
        }
        for (key, v) in samples {
            self.history
                .entry(*key)
                .or_insert_with(|| SeriesHistory {
                    start_tick: t,
                    values: Vec::new(),
                })
                .values
                .push(*v);
        }
        let mut out = Vec::new();
        for i in 0..self.rules.len() {
            let rule = &self.rules[i];
            // No verdicts until the fast window has filled once.
            if t + 1 < rule.fast_ticks {
                continue;
            }
            let fast = self.burn(rule, t, rule.fast_ticks);
            let slow = self.burn(rule, t, rule.slow_ticks);
            let rule = &self.rules[i];
            let st = &mut self.states[i];
            st.last_fast = fast;
            st.last_slow = slow;
            if !st.active {
                if fast >= rule.fast_trigger || slow >= rule.slow_trigger {
                    st.active = true;
                    st.opened_tick = t;
                    st.opened_at = at;
                    st.peak_fast = fast;
                    st.peak_slow = slow;
                    st.calm = 0;
                    st.trajectory = vec![BurnPoint {
                        tick: t,
                        fast,
                        slow,
                    }];
                    st.opens += 1;
                    out.push(AlertTransition {
                        rule: rule.name.clone(),
                        kind: AlertKind::Opened,
                        tick: t,
                        at,
                        fast_burn: fast,
                        slow_burn: slow,
                    });
                }
            } else {
                st.trajectory.push(BurnPoint {
                    tick: t,
                    fast,
                    slow,
                });
                st.peak_fast = st.peak_fast.max(fast);
                st.peak_slow = st.peak_slow.max(slow);
                if fast < 1.0 && slow < 1.0 {
                    st.calm += 1;
                } else {
                    st.calm = 0;
                }
                if st.calm >= rule.clear_ticks {
                    st.active = false;
                    self.incidents.push(Incident {
                        rule: rule.name.clone(),
                        objective: rule.objective.to_string(),
                        selector: rule.selector,
                        aggregate: rule.objective.aggregate(),
                        opened_tick: st.opened_tick,
                        opened_at: st.opened_at,
                        closed_tick: t,
                        closed_at: at,
                        peak_fast: st.peak_fast,
                        peak_slow: st.peak_slow,
                        trajectory: std::mem::take(&mut st.trajectory),
                    });
                    out.push(AlertTransition {
                        rule: rule.name.clone(),
                        kind: AlertKind::Closed,
                        tick: t,
                        at,
                        fast_burn: fast,
                        slow_burn: slow,
                    });
                }
            }
        }
        out
    }

    /// Replays a finished store through a fresh monitor — the batch
    /// evaluation path. Reconstructs every series tick by tick and feeds
    /// [`observe_tick`](HealthMonitor::observe_tick) exactly as the live
    /// sampler would have, so over a lossless store the transitions are
    /// identical to the streaming run's.
    pub fn replay(
        store: &TelemetryStore,
        rules: Vec<SloRule>,
    ) -> (HealthMonitor, Vec<AlertTransition>) {
        let mut monitor = HealthMonitor::new(store.interval());
        for r in rules {
            monitor = monitor.rule(r);
        }
        let recon: Vec<(SeriesKey, u32, Vec<f64>)> = store
            .keys()
            .map(|k| {
                let start = store.segments(k).first().map_or(0, |s| s.start_tick);
                (*k, start, store.reconstruct(k))
            })
            .collect();
        let ticks = recon
            .iter()
            .map(|(_, start, v)| start + v.len() as u32)
            .max()
            .unwrap_or(0);
        let mut transitions = Vec::new();
        let mut samples = Vec::new();
        for t in 0..ticks {
            samples.clear();
            for (k, start, vals) in &recon {
                if t >= *start {
                    if let Some(v) = vals.get((t - start) as usize) {
                        samples.push((*k, *v));
                    }
                }
            }
            transitions.extend(monitor.observe_tick(store.tick_time(t), &samples));
        }
        (monitor, transitions)
    }

    /// The monitor's raw history as a lossless [`TelemetryStore`] — one
    /// raw segment per series on the monitor's tick schedule. This is
    /// what the incident reports run their grouped breakdown queries
    /// against, so a report never depends on which compressed segments
    /// have finished shipping. Series that appeared after tick 0 are
    /// zero-filled up to their first sample, matching the sampler's
    /// "idle reads zero" convention.
    pub fn store_view(&self) -> TelemetryStore {
        let origin = self.origin.unwrap_or(TimePoint::ZERO);
        let mut store = TelemetryStore::new(origin, self.interval);
        for (key, h) in &self.history {
            if h.values.is_empty() {
                continue;
            }
            let mut values = vec![0.0; h.start_tick as usize];
            values.extend_from_slice(&h.values);
            let count = values.len() as u32;
            store.ingest(
                *key,
                Segment {
                    start_tick: 0,
                    count,
                    error_pct: 0.0,
                    model: SegmentModel::Raw { values },
                },
            );
        }
        store
    }

    /// The burn rate of `rule` over the trailing window of `window` ticks
    /// ending at tick `t` (shorter when the run is younger than the
    /// window).
    fn burn(&self, rule: &SloRule, t: u32, window: u32) -> f64 {
        match rule.objective {
            SloObjective::Below { agg, threshold } => {
                match self.windowed_aggregate(&rule.selector, agg, t, window) {
                    Some(value) => burn_over(value, threshold),
                    None => 0.0,
                }
            }
            SloObjective::Above { agg, threshold } => {
                match self.windowed_aggregate(&rule.selector, agg, t, window) {
                    Some(value) => burn_under(value, threshold),
                    None => 0.0,
                }
            }
            SloObjective::SkewBelow {
                threshold_pct,
                min_mean,
            } => {
                let mut per_node: BTreeMap<u16, (f64, u64)> = BTreeMap::new();
                self.for_window_values(&rule.selector, t, window, |key, v| {
                    let e = per_node.entry(key.node).or_insert((0.0, 0));
                    e.0 += v;
                    e.1 += 1;
                });
                let means: Vec<f64> = per_node
                    .values()
                    .filter(|(_, n)| *n > 0)
                    .map(|(sum, n)| sum / *n as f64)
                    .collect();
                if means.len() < 2 {
                    return 0.0;
                }
                let mean = means.iter().sum::<f64>() / means.len() as f64;
                if mean <= 0.0 || mean < min_mean {
                    return 0.0;
                }
                let max = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let skew_pct = (max - mean) / mean * 100.0;
                (skew_pct / threshold_pct).clamp(0.0, BURN_CAP)
            }
        }
    }

    /// Evaluates `agg` over every matching sample in the trailing window;
    /// `None` when the window holds no samples.
    fn windowed_aggregate(
        &self,
        sel: &Selector,
        agg: Aggregate,
        t: u32,
        window: u32,
    ) -> Option<f64> {
        let mut values = Vec::new();
        self.for_window_values(sel, t, window, |_, v| values.push(v));
        aggregate_column(&mut values, agg)
    }

    /// Visits every sample of every selector-matched series inside the
    /// trailing window `[t+1−window, t]`, in series-key order then tick
    /// order — a deterministic iteration both evaluation paths share.
    fn for_window_values(
        &self,
        sel: &Selector,
        t: u32,
        window: u32,
        mut visit: impl FnMut(&SeriesKey, f64),
    ) {
        let w_lo = (t + 1).saturating_sub(window);
        for (key, h) in &self.history {
            if !sel.matches(key) {
                continue;
            }
            let len = h.values.len() as u32;
            if len == 0 {
                continue;
            }
            let lo = w_lo.max(h.start_tick);
            let hi = t.min(h.start_tick + len - 1);
            if lo > hi {
                continue;
            }
            for v in &h.values[(lo - h.start_tick) as usize..=(hi - h.start_tick) as usize] {
                visit(key, *v);
            }
        }
    }
}

/// Burn of an upper-bound objective: how many times over the ceiling.
fn burn_over(value: f64, threshold: f64) -> f64 {
    if threshold > 0.0 {
        (value / threshold).clamp(0.0, BURN_CAP)
    } else if value <= 0.0 {
        0.0
    } else {
        BURN_CAP
    }
}

/// Burn of a lower-bound objective: how many times under the floor.
fn burn_under(value: f64, threshold: f64) -> f64 {
    if value > 0.0 {
        (threshold / value).clamp(0.0, BURN_CAP)
    } else if threshold <= 0.0 {
        0.0
    } else {
        BURN_CAP
    }
}

/// Deterministic burn rendering: two decimals, always.
fn fmt_burn(v: f64) -> String {
    format!("{v:.2}")
}

/// Burn trajectory rows rendered in full up to this many ticks; longer
/// incidents elide the middle (deterministically).
const TRAJECTORY_RENDER_CAP: usize = 48;

/// A closed alert expanded into its full, deterministic report: the
/// incident arc, the dominant miss causes during the window, and grouped
/// per-node / per-shard breakdowns — each breakdown one [`GroupBy`]
/// query.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentReport {
    /// The closed alert.
    pub incident: Incident,
    /// Misses during the incident window, grouped by attributed cause
    /// (`None` when no miss context was available).
    pub causes: Option<Table>,
    /// The rule's aggregate per node over the incident window.
    pub by_node: Option<Table>,
    /// The rule's aggregate per shard over the incident window.
    pub by_shard: Option<Table>,
    /// Remediation actions attempted while the alert was open, in apply
    /// order (rendered lines from the remediator's action log) — the
    /// "what the system did" third of the story. Empty without a
    /// remediator.
    pub actions: Vec<String>,
}

impl IncidentReport {
    /// A report without breakdown context — the arc and trajectory only.
    pub fn bare(incident: Incident) -> IncidentReport {
        IncidentReport {
            incident,
            causes: None,
            by_node: None,
            by_shard: None,
            actions: Vec::new(),
        }
    }

    /// Builder: stamps the remediation timeline into the report.
    pub fn with_actions(mut self, actions: Vec<String>) -> IncidentReport {
        self.actions = actions;
        self
    }

    /// Expands `incident` against the monitor's raw telemetry
    /// ([`HealthMonitor::store_view`]) and a fleet snapshot (for the miss
    /// rows). Each breakdown is one grouped query over the incident
    /// window.
    pub fn expand(
        incident: Incident,
        telemetry: &TelemetryStore,
        ctx: &QueryCtx<'_>,
    ) -> IncidentReport {
        let agg = incident.aggregate.unwrap_or(Aggregate::Mean);
        let causes = Query::scan(Source::Misses)
            .filter(Predicate::During(incident.opened_at, incident.closed_at))
            .group_by(GroupBy::Cause)
            .aggregate(Aggregate::Count)
            .run(ctx)
            .ok();
        let metrics_ctx = QueryCtx::new().with_telemetry(telemetry);
        let windowed = |group: GroupBy| {
            let mut q = Query::scan(Source::Metrics)
                .filter(Predicate::During(incident.opened_at, incident.closed_at));
            if let Some(m) = incident.selector.metric {
                q = q.filter(Predicate::MetricIs(m));
            }
            if let Some(d) = incident.selector.degraded {
                q = q.filter(Predicate::Degraded(d));
            }
            if let Some(n) = incident.selector.node {
                q = q.filter(Predicate::OnNode(n));
            }
            if let Some(s) = incident.selector.shard {
                q = q.filter(Predicate::OnShard(s));
            }
            q.group_by(group).aggregate(agg).run(&metrics_ctx).ok()
        };
        IncidentReport {
            by_node: windowed(GroupBy::Node),
            by_shard: windowed(GroupBy::Shard),
            causes,
            incident,
            actions: Vec::new(),
        }
    }

    /// The deterministic text report: byte-identical across same-seed
    /// runs.
    pub fn render(&self) -> String {
        let inc = &self.incident;
        let mut out = String::new();
        out.push_str(&format!("incident: {}\n", inc.rule));
        out.push_str(&format!("  objective   {}\n", inc.objective));
        out.push_str(&format!(
            "  opened      tick {} @ {} (fast {}x, slow {}x)\n",
            inc.opened_tick,
            inc.opened_at,
            fmt_burn(inc.trajectory.first().map_or(0.0, |b| b.fast)),
            fmt_burn(inc.trajectory.first().map_or(0.0, |b| b.slow)),
        ));
        out.push_str(&format!(
            "  closed      tick {} @ {}\n",
            inc.closed_tick, inc.closed_at
        ));
        out.push_str(&format!(
            "  duration    {} ticks\n",
            inc.closed_tick - inc.opened_tick + 1
        ));
        out.push_str(&format!(
            "  peak burn   fast {}x | slow {}x\n",
            fmt_burn(inc.peak_fast),
            fmt_burn(inc.peak_slow)
        ));
        out.push_str("  burn trajectory (tick: fast/slow):\n");
        let n = inc.trajectory.len();
        if n <= TRAJECTORY_RENDER_CAP {
            for b in &inc.trajectory {
                out.push_str(&trajectory_row(b));
            }
        } else {
            let head = TRAJECTORY_RENDER_CAP / 2;
            let tail = TRAJECTORY_RENDER_CAP - head;
            for b in &inc.trajectory[..head] {
                out.push_str(&trajectory_row(b));
            }
            out.push_str(&format!("    … {} ticks elided …\n", n - head - tail));
            for b in &inc.trajectory[n - tail..] {
                out.push_str(&trajectory_row(b));
            }
        }
        if !self.actions.is_empty() {
            out.push_str("  remediation timeline:\n");
            for a in &self.actions {
                out.push_str(&format!("    {a}\n"));
            }
        }
        if let Some(causes) = &self.causes {
            out.push_str("\nmisses during incident, by cause:\n");
            out.push_str(&causes.render());
        }
        if let Some(by_node) = &self.by_node {
            out.push_str("\nbreakdown by node:\n");
            out.push_str(&by_node.render());
        }
        if let Some(by_shard) = &self.by_shard {
            out.push_str("\nbreakdown by shard:\n");
            out.push_str(&by_shard.render());
        }
        out
    }
}

/// One `    tick: fast/slow` trajectory line.
fn trajectory_row(b: &BurnPoint) -> String {
    format!(
        "    {}: {}/{}\n",
        b.tick,
        fmt_burn(b.fast),
        fmt_burn(b.slow)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: i64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn tp(v: i64) -> TimePoint {
        TimePoint::ZERO + ms(v)
    }

    fn lateness_key(node: u16, shard: u16) -> SeriesKey {
        SeriesKey {
            node,
            shard: Some(shard),
            metric: Metric::LatenessUs,
            degraded: false,
        }
    }

    /// Drives `monitor` over per-tick values of a single series,
    /// returning every transition.
    fn drive(monitor: &mut HealthMonitor, values: &[f64]) -> Vec<AlertTransition> {
        let key = lateness_key(0, 0);
        let mut out = Vec::new();
        for (t, v) in values.iter().enumerate() {
            out.extend(monitor.observe_tick(tp(50 * t as i64), &[(key, *v)]));
        }
        out
    }

    #[test]
    fn fast_window_catches_a_spike_and_hysteresis_closes_once() {
        let rule = SloRule::p99_full_lateness_below(1000.0)
            .windows(3, 12)
            .triggers(2.0, 1.0)
            .clear_after(3);
        let mut monitor = HealthMonitor::new(ms(50)).rule(rule);
        // 6 calm ticks, a 4-tick spike at 10x the objective, calm again.
        let mut series = vec![0.0; 6];
        series.extend([10_000.0; 4]);
        series.extend([0.0; 16]);
        let transitions = drive(&mut monitor, &series);
        assert_eq!(transitions.len(), 2, "one open, one close: {transitions:?}");
        assert_eq!(transitions[0].kind, AlertKind::Opened);
        assert_eq!(
            transitions[0].tick, 6,
            "p99 of the fast window crosses on the spike's first tick"
        );
        assert!(transitions[0].fast_burn >= 2.0);
        assert_eq!(transitions[1].kind, AlertKind::Closed);
        assert_eq!(monitor.opens("lateness-p99-full"), 1, "no flapping");
        assert_eq!(monitor.incidents().len(), 1);
        let inc = &monitor.incidents()[0];
        assert_eq!(inc.opened_tick, 6);
        assert_eq!(inc.closed_tick, transitions[1].tick);
        assert!(inc.peak_fast >= 10.0);
        assert_eq!(
            inc.trajectory.len() as u32,
            inc.closed_tick - inc.opened_tick + 1
        );
    }

    #[test]
    fn slow_window_catches_decay_the_fast_window_misses() {
        // Value sits at 1.2x the objective: fast burn 1.2 < trigger 2.0,
        // but the slow window's burn 1.2 ≥ 1.0 opens once it has seen
        // enough sustained decay to matter.
        let rule = SloRule::p99_full_lateness_below(1000.0)
            .windows(3, 12)
            .triggers(2.0, 1.0)
            .clear_after(3);
        let mut monitor = HealthMonitor::new(ms(50)).rule(rule);
        let series = vec![1200.0; 20];
        let transitions = drive(&mut monitor, &series);
        assert_eq!(
            transitions.len(),
            1,
            "opens and stays open: {transitions:?}"
        );
        assert_eq!(transitions[0].kind, AlertKind::Opened);
        assert!(transitions[0].fast_burn < 2.0);
        assert!(transitions[0].slow_burn >= 1.0);
        assert_eq!(monitor.open_alerts(), vec!["lateness-p99-full"]);
    }

    #[test]
    fn hysteresis_prevents_flapping_across_the_threshold() {
        // Oscillate around the objective: without hysteresis this would
        // open/close every few ticks; with clear_after(4) it opens once
        // and stays open until the calm stretch at the end.
        let rule = SloRule::p99_full_lateness_below(1000.0)
            .windows(2, 8)
            .triggers(1.5, 1.2)
            .clear_after(4);
        let mut monitor = HealthMonitor::new(ms(50)).rule(rule);
        let mut series = Vec::new();
        for i in 0..20 {
            series.push(if i % 2 == 0 { 2000.0 } else { 500.0 });
        }
        series.extend([0.0; 12]);
        let transitions = drive(&mut monitor, &series);
        assert_eq!(
            transitions.len(),
            2,
            "exactly one open and one close: {transitions:?}"
        );
        assert_eq!(monitor.opens("lateness-p99-full"), 1);
    }

    #[test]
    fn zero_threshold_objective_burns_capped_on_any_positive_value() {
        let rule = SloRule::no_unverified_serves().windows(2, 4).clear_after(2);
        let key = SeriesKey {
            node: 0,
            shard: Some(0),
            metric: Metric::UnverifiedServes,
            degraded: false,
        };
        let mut monitor = HealthMonitor::new(ms(50)).rule(rule);
        for t in 0..4 {
            assert!(monitor.observe_tick(tp(50 * t), &[(key, 0.0)]).is_empty());
        }
        let fired = monitor.observe_tick(tp(200), &[(key, 1.0)]);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fast_burn, BURN_CAP);
    }

    #[test]
    fn skew_objective_needs_two_nodes_and_tracks_imbalance() {
        let rule = SloRule::load_skew_below(50.0).windows(2, 4).clear_after(2);
        let load = |node: u16| SeriesKey {
            node,
            shard: None,
            metric: Metric::NodeLoadPct,
            degraded: false,
        };
        let mut monitor = HealthMonitor::new(ms(50)).rule(rule.clone());
        // One node only: skew undefined, never fires.
        for t in 0..8 {
            assert!(monitor
                .observe_tick(tp(50 * t), &[(load(0), 90.0)])
                .is_empty());
        }
        // Two nodes, one at 3x the other: skew (90-60)/60 = 50% → burn
        // 1.0 < fast trigger 2.0, and slow trigger 1.0 fires.
        let mut monitor = HealthMonitor::new(ms(50)).rule(rule);
        let mut fired = Vec::new();
        for t in 0..8 {
            fired.extend(monitor.observe_tick(tp(50 * t), &[(load(0), 90.0), (load(1), 30.0)]));
        }
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_eq!(fired[0].kind, AlertKind::Opened);
    }

    #[test]
    fn zero_rules_is_a_noop_and_retains_nothing() {
        let mut monitor = HealthMonitor::new(ms(50));
        for t in 0..100 {
            let out = monitor.observe_tick(tp(50 * t), &[(lateness_key(0, 0), 1e9)]);
            assert!(out.is_empty());
        }
        assert_eq!(monitor.ticks(), 100);
        assert_eq!(monitor.store_view().series_count(), 0);
    }

    #[test]
    fn replay_over_lossless_store_matches_streaming() {
        let rule = SloRule::p99_full_lateness_below(1000.0)
            .windows(3, 9)
            .triggers(2.0, 1.0)
            .clear_after(3);
        let mut streaming = HealthMonitor::new(ms(50)).rule(rule.clone());
        let mut series = vec![0.0; 5];
        series.extend([5000.0; 5]);
        series.extend([0.0; 10]);
        let live = drive(&mut streaming, &series);
        assert!(!live.is_empty());
        // Batch: replay the monitor's own lossless view of the run.
        let (replayed, batch) = HealthMonitor::replay(&streaming.store_view(), vec![rule]);
        assert_eq!(live, batch);
        assert_eq!(streaming.incidents(), replayed.incidents());
    }

    #[test]
    fn incident_report_renders_deterministically() {
        let rule = SloRule::p99_full_lateness_below(1000.0)
            .windows(2, 6)
            .clear_after(2);
        let mut monitor = HealthMonitor::new(ms(50)).rule(rule);
        let mut series = vec![0.0; 4];
        series.extend([8000.0; 3]);
        series.extend([0.0; 8]);
        drive(&mut monitor, &series);
        assert_eq!(monitor.incidents().len(), 1);
        let store = monitor.store_view();
        let ctx = QueryCtx::new();
        let report = IncidentReport::expand(monitor.incidents()[0].clone(), &store, &ctx);
        let text = report.render();
        assert!(text.starts_with("incident: lateness-p99-full\n"));
        assert!(text.contains("burn trajectory"));
        assert!(text.contains("breakdown by node:"));
        assert!(text.contains("breakdown by shard:"));
        // Byte-identical on re-render and on a rebuilt report.
        let again = IncidentReport::expand(monitor.incidents()[0].clone(), &store, &ctx);
        assert_eq!(text, again.render());
    }

    #[test]
    fn long_trajectories_elide_the_middle_deterministically() {
        let rule = SloRule::p99_full_lateness_below(1000.0)
            .windows(2, 6)
            .clear_after(2);
        let mut monitor = HealthMonitor::new(ms(50)).rule(rule);
        let mut series = vec![0.0; 4];
        series.extend(vec![8000.0; 100]);
        series.extend([0.0; 8]);
        drive(&mut monitor, &series);
        let report = IncidentReport::bare(monitor.incidents()[0].clone());
        let text = report.render();
        assert!(text.contains("ticks elided"));
        assert_eq!(
            text,
            IncidentReport::bare(monitor.incidents()[0].clone()).render()
        );
    }

    #[test]
    fn rule_describe_is_stable() {
        let rule = SloRule::p99_full_lateness_below(5000.0);
        assert_eq!(
            rule.describe(),
            "lateness-p99-full: p99 ≤ 5000.00 over lateness_us full [fast 6t ≥ 2.00x | slow 36t ≥ 1.00x | clear 6t]"
        );
    }

    #[test]
    #[should_panic(expected = "windows")]
    fn slow_window_must_cover_fast() {
        let _ = SloRule::p99_full_lateness_below(1.0).windows(10, 5);
    }
}
