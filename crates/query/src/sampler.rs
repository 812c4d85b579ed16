//! Sampling a live [`Fleet`] into the telemetry plane.
//!
//! [`FleetTelemetry`] owns one [`SeriesSink`] per telemetry series and the
//! central [`TelemetryStore`] they drain into. Each call to
//! [`tick`](FleetTelemetry::tick) on the simulated clock:
//!
//! 1. snapshots every shard's cumulative metrics (`Histogram`s and
//!    counters are cheap `Copy` values) and turns the *delta* since the
//!    previous tick into one sample per series — mean lateness split by
//!    session fidelity, storage throughput, cache hit rate, and per-node
//!    load;
//! 2. appends the samples to the sinks, compressing under the configured
//!    [`ErrorBound`];
//! 3. ships every segment the sinks finished over the owning node's
//!    [`Link`] via [`Fleet::charge_transfer`] — telemetry pays for its
//!    bytes like any other transfer, may be lost, and is retried on later
//!    ticks (order-preserving per node) until delivered.
//!
//! Everything runs on the simulated clock with seeded loss draws, so a
//! same-seed run ships the same segments and the store's contents are
//! byte-identical.
//!
//! A [`HealthMonitor`] can ride the tick via
//! [`with_health`](FleetTelemetry::with_health): each tick's samples are
//! fed to the monitor *before* compression, its alert transitions become
//! [`Category::Health`] spans and `health.*` counters on the fleet, and
//! every closed alert is expanded into an [`IncidentReport`] on the spot.
//!
//! [`Link`]: tbm_serve::Link

use std::collections::BTreeMap;

use tbm_blob::BlobStore;
use tbm_obs::{AttrValue, Category, Histogram, SpanId, LATENCY_BUCKETS_US};
use tbm_serve::Fleet;
use tbm_time::{TimeDelta, TimePoint};

use crate::health::{AlertKind, HealthMonitor, IncidentReport};
use crate::model::{ErrorBound, Segment};
use crate::query::QueryCtx;
use crate::remediate::Remediator;
use crate::sink::SeriesSink;
use crate::store::{Metric, SeriesKey, TelemetryStore};

/// Cumulative per-shard counters, snapshotted each tick so the next tick
/// can sample the delta.
#[derive(Debug, Clone, Copy, Default)]
struct ShardSnap {
    late_full_count: u64,
    late_full_sum: u64,
    late_degraded_count: u64,
    late_degraded_sum: u64,
    bytes_read: u64,
    cache_hits: u64,
    cache_lookups: u64,
    served: u64,
    dropped: u64,
    unverified: u64,
}

/// A [`HealthMonitor`] riding the sampler's tick, with the open-alert
/// spans it holds in the tracer and the reports its closed alerts
/// expanded into.
#[derive(Debug)]
struct HealthRider {
    monitor: HealthMonitor,
    spans: BTreeMap<String, SpanId>,
    reports: Vec<IncidentReport>,
}

/// The fleet-side half of the telemetry plane: per-series compressors plus
/// the shipping loop into a [`TelemetryStore`].
#[derive(Debug)]
pub struct FleetTelemetry {
    bound: ErrorBound,
    interval: TimeDelta,
    store: Option<TelemetryStore>,
    ticks: u32,
    sinks: BTreeMap<SeriesKey, SeriesSink>,
    prev: Vec<ShardSnap>,
    /// Per node: segments whose shipment was lost, awaiting retry in
    /// arrival order ahead of anything newer.
    pending: BTreeMap<usize, Vec<(SeriesKey, Segment)>>,
    shipped_segments: u64,
    shipped_bytes: u64,
    lost_shipments: u64,
    salvaged_segments: u64,
    health: Option<HealthRider>,
    remediator: Option<Remediator>,
}

impl FleetTelemetry {
    /// A sampler compressing under `bound`, expecting one
    /// [`tick`](FleetTelemetry::tick) every `interval`.
    ///
    /// # Panics
    /// When `interval` is not strictly positive.
    pub fn new(bound: ErrorBound, interval: TimeDelta) -> FleetTelemetry {
        assert!(
            !interval.is_zero() && !interval.is_negative(),
            "telemetry tick interval must be positive"
        );
        FleetTelemetry {
            bound,
            interval,
            store: None,
            ticks: 0,
            sinks: BTreeMap::new(),
            prev: Vec::new(),
            pending: BTreeMap::new(),
            shipped_segments: 0,
            shipped_bytes: 0,
            lost_shipments: 0,
            salvaged_segments: 0,
            health: None,
            remediator: None,
        }
    }

    /// Builder: attaches a [`HealthMonitor`] that evaluates its SLO rules
    /// against every tick's samples as they are taken. Alert transitions
    /// become [`Category::Health`] spans and `health.*` counters on the
    /// fleet; closed alerts are expanded into [`IncidentReport`]s
    /// retrievable via [`incident_reports`](FleetTelemetry::incident_reports).
    ///
    /// # Panics
    /// When the monitor's tick interval differs from the sampler's.
    pub fn with_health(mut self, monitor: HealthMonitor) -> FleetTelemetry {
        assert_eq!(
            monitor.interval(),
            self.interval,
            "health monitor must share the sampler's tick interval"
        );
        self.health = Some(HealthRider {
            monitor,
            spans: BTreeMap::new(),
            reports: Vec::new(),
        });
        self
    }

    /// Builder: attaches a [`Remediator`] that turns the riding health
    /// monitor's alerts into guarded fleet actions each tick, after the
    /// monitor has judged the tick's samples. Closed incidents get the
    /// remediator's action lines stamped into their report timeline.
    ///
    /// # Panics
    /// When no health monitor is attached ([`with_health`] first — the
    /// remediator acts on its alerts).
    ///
    /// [`with_health`]: FleetTelemetry::with_health
    pub fn with_remediator(mut self, remediator: Remediator) -> FleetTelemetry {
        assert!(
            self.health.is_some(),
            "a remediator needs a health monitor to subscribe to"
        );
        self.remediator = Some(remediator);
        self
    }

    /// The riding health monitor, when one was attached.
    pub fn health(&self) -> Option<&HealthMonitor> {
        self.health.as_ref().map(|h| &h.monitor)
    }

    /// The riding remediator, when one was attached.
    pub fn remediator(&self) -> Option<&Remediator> {
        self.remediator.as_ref()
    }

    /// Incident reports expanded so far (one per closed alert, in close
    /// order; empty without a health monitor).
    pub fn incident_reports(&self) -> &[IncidentReport] {
        self.health.as_ref().map_or(&[], |h| h.reports.as_slice())
    }

    /// The configured error bound.
    pub fn bound(&self) -> ErrorBound {
        self.bound
    }

    /// Ticks sampled so far.
    pub fn ticks(&self) -> u32 {
        self.ticks
    }

    /// Segments delivered into the store over node links.
    pub fn shipped_segments(&self) -> u64 {
        self.shipped_segments
    }

    /// Payload bytes delivered over node links.
    pub fn shipped_bytes(&self) -> u64 {
        self.shipped_bytes
    }

    /// Shipment attempts lost to node/link faults (each later retried).
    pub fn lost_shipments(&self) -> u64 {
        self.lost_shipments
    }

    /// Segments force-ingested by [`finish`](FleetTelemetry::finish) after
    /// their last shipment attempt was lost.
    pub fn salvaged_segments(&self) -> u64 {
        self.salvaged_segments
    }

    /// The store accumulated so far (`None` before the first tick).
    pub fn store(&self) -> Option<&TelemetryStore> {
        self.store.as_ref()
    }

    /// Samples the fleet at `at` — one tick. The first call fixes the tick
    /// schedule's origin; later calls must land exactly `interval` apart.
    ///
    /// The sampled values cover activity since the previous tick (cumulative
    /// counter deltas), so the first tick of an idle fleet reads all zeros.
    ///
    /// # Panics
    /// When `at` is off the tick schedule.
    pub fn tick<S: BlobStore>(&mut self, fleet: &mut Fleet<S>, at: TimePoint) {
        fleet.run_until(at);
        match &self.store {
            Some(store) => assert_eq!(
                store.tick_time(self.ticks),
                at,
                "telemetry tick off schedule: expected {}, got {at}",
                store.tick_time(self.ticks)
            ),
            None => self.store = Some(TelemetryStore::new(at, self.interval)),
        }

        let shard_count = fleet.shard_count();
        let node_count = fleet.node_count();
        self.prev.resize(shard_count, ShardSnap::default());
        let interval_secs = self.interval.seconds().to_f64();

        // Per-node load accumulators, filled while walking the shards.
        let mut committed = vec![0u64; node_count];
        let mut capacity = vec![0u64; node_count];
        // This tick's samples, collected before compression so the health
        // monitor (when riding) sees exactly what the sinks ingest.
        let mut samples: Vec<(SeriesKey, f64)> = Vec::new();

        for shard in 0..shard_count {
            let server = fleet.shard(shard);
            let metrics = server.metrics();
            let stats = server.stats();
            // Load is charged to the node *currently* hosting the shard;
            // the shard's series identity stays keyed on its home node so
            // a migration or rebalance mid-run cannot fork the series
            // (a forked series would restart its tick axis at zero).
            let hosting = fleet.placement().node_of_shard(shard);
            committed[hosting] += stats.committed_bps;
            capacity[hosting] += server.capacity().storage_bandwidth;
            let node = fleet.placement().home_of(shard);

            let hist =
                |name: &str| -> Histogram { metrics.histogram_or_empty(name, &LATENCY_BUCKETS_US) };
            let full = hist("serve.lateness_us.full");
            let degraded = hist("serve.lateness_us.degraded");
            let snap = ShardSnap {
                late_full_count: full.count(),
                late_full_sum: full.sum(),
                late_degraded_count: degraded.count(),
                late_degraded_sum: degraded.sum(),
                bytes_read: metrics.counter("storage.bytes_read"),
                cache_hits: stats.cache.hits,
                cache_lookups: stats.cache.lookups(),
                served: stats.elements_served as u64,
                dropped: stats.dropped_elements as u64,
                // The tiered store promises never to serve unverified
                // bytes; this counter existing at zero is the promise the
                // health plane's watchdog rule holds it to.
                unverified: metrics.counter("storage.unverified_serves"),
            };
            let prev = std::mem::replace(&mut self.prev[shard], snap);

            let mean_delta = |count: u64, sum: u64, p_count: u64, p_sum: u64| -> f64 {
                let dc = count.saturating_sub(p_count);
                if dc == 0 {
                    0.0
                } else {
                    (sum.saturating_sub(p_sum)) as f64 / dc as f64
                }
            };
            let node16 = node as u16;
            let shard16 = shard as u16;
            let mut push = |metric: Metric, degraded_split: bool, value: f64| {
                let key = SeriesKey {
                    node: node16,
                    shard: Some(shard16),
                    metric,
                    degraded: degraded_split,
                };
                samples.push((key, value));
            };
            push(
                Metric::LatenessUs,
                false,
                mean_delta(
                    snap.late_full_count,
                    snap.late_full_sum,
                    prev.late_full_count,
                    prev.late_full_sum,
                ),
            );
            push(
                Metric::LatenessUs,
                true,
                mean_delta(
                    snap.late_degraded_count,
                    snap.late_degraded_sum,
                    prev.late_degraded_count,
                    prev.late_degraded_sum,
                ),
            );
            push(
                Metric::ThroughputBps,
                false,
                snap.bytes_read.saturating_sub(prev.bytes_read) as f64 / interval_secs,
            );
            let d_lookups = snap.cache_lookups.saturating_sub(prev.cache_lookups);
            let d_hits = snap.cache_hits.saturating_sub(prev.cache_hits);
            push(
                Metric::CacheHitPct,
                false,
                if d_lookups == 0 {
                    0.0
                } else {
                    100.0 * d_hits as f64 / d_lookups as f64
                },
            );
            let d_served = snap.served.saturating_sub(prev.served);
            let d_dropped = snap.dropped.saturating_sub(prev.dropped);
            push(
                Metric::DropRatePct,
                false,
                if d_served + d_dropped == 0 {
                    0.0
                } else {
                    100.0 * d_dropped as f64 / (d_served + d_dropped) as f64
                },
            );
            push(
                Metric::UnverifiedServes,
                false,
                snap.unverified.saturating_sub(prev.unverified) as f64,
            );
        }

        for node in 0..node_count {
            let key = SeriesKey {
                node: node as u16,
                shard: None,
                metric: Metric::NodeLoadPct,
                degraded: false,
            };
            let load = if capacity[node] == 0 {
                0.0
            } else {
                100.0 * committed[node] as f64 / capacity[node] as f64
            };
            samples.push((key, load));
        }
        for (key, value) in &samples {
            sink_for(&mut self.sinks, self.bound, *key).append(*value);
        }
        self.ticks += 1;
        self.ship(fleet, at, false);
        self.observe_health(fleet, at, &samples);
    }

    /// Feeds one tick's samples to the riding health monitor and turns its
    /// alert transitions into first-class observability: a
    /// [`Category::Health`] span per incident (opened on alert open,
    /// closed on clear), `health.alerts.*` counters on the fleet, and a
    /// fully expanded [`IncidentReport`] for every alert this tick closed.
    fn observe_health<S: BlobStore>(
        &mut self,
        fleet: &mut Fleet<S>,
        at: TimePoint,
        samples: &[(SeriesKey, f64)],
    ) {
        let Some(health) = &mut self.health else {
            return;
        };
        let prior_incidents = health.monitor.incidents().len();
        let transitions = health.monitor.observe_tick(at, samples);
        if transitions.is_empty() && self.remediator.is_none() {
            return;
        }
        let tracer = fleet.tracer().clone();
        let milli = |burn: f64| AttrValue::U64((burn * 1000.0).round() as u64);
        for tr in &transitions {
            match tr.kind {
                AlertKind::Opened => {
                    let span = tracer.begin_span_with(
                        "alert",
                        Category::Health,
                        at,
                        SpanId::NONE,
                        None,
                        |a| {
                            a.put("rule", AttrValue::Text(tr.rule.clone()));
                            a.put("open_tick", AttrValue::U64(u64::from(tr.tick)));
                            a.put("fast_burn_milli", milli(tr.fast_burn));
                            a.put("slow_burn_milli", milli(tr.slow_burn));
                        },
                    );
                    health.spans.insert(tr.rule.clone(), span);
                    fleet.inc_metric("health.alerts.opened", 1);
                    fleet.inc_metric(format!("health.alerts.opened.{}", tr.rule), 1);
                }
                AlertKind::Closed => {
                    if let Some(span) = health.spans.remove(&tr.rule) {
                        tracer.end_span(span, at);
                    }
                    fleet.inc_metric("health.alerts.closed", 1);
                }
            }
        }
        // The remediation pass runs after the monitor has judged the tick
        // (so it sees this tick's open/close state and burns) and before
        // report expansion (so an incident that closes this tick carries
        // every action attempted while it was open, final verdicts
        // included — a close resolves its in-flight action as improved).
        if let Some(rem) = &mut self.remediator {
            let tick = health.monitor.ticks() - 1;
            rem.on_tick(fleet, &health.monitor, &transitions, tick, at);
        }
        // Expand every alert this tick closed against the monitor's own
        // lossless view of the run (so the report never depends on which
        // compressed segments have shipped) plus a fleet snapshot for the
        // miss-attribution rows.
        let closed = health.monitor.incidents()[prior_incidents..].to_vec();
        if !closed.is_empty() {
            let telemetry = health.monitor.store_view();
            let ctx = QueryCtx::from_fleet(fleet).with_telemetry(&telemetry);
            for incident in closed {
                let actions = self.remediator.as_ref().map_or_else(Vec::new, |rem| {
                    rem.actions_for(&incident.rule, incident.opened_tick, incident.closed_tick)
                });
                health
                    .reports
                    .push(IncidentReport::expand(incident, &telemetry, &ctx).with_actions(actions));
            }
        }
    }

    /// Flushes every open run and makes a final shipping pass at `at`.
    /// Segments whose last attempt is lost too are force-ingested (and
    /// counted as salvaged) so the store always ends complete — the
    /// operator reading the report should see the whole run, lossy links
    /// notwithstanding.
    ///
    /// Returns the completed store; [`FleetTelemetry::store`] keeps working
    /// afterwards.
    pub fn finish<S: BlobStore>(&mut self, fleet: &mut Fleet<S>, at: TimePoint) -> &TelemetryStore {
        for sink in self.sinks.values_mut() {
            sink.flush();
        }
        self.ship(fleet, at, true);
        self.store
            .get_or_insert_with(|| TelemetryStore::new(at, self.interval))
    }

    /// Ships pending + freshly drained segments, one batched transfer per
    /// node. `salvage` forces lost batches into the store anyway (the
    /// finish path).
    fn ship<S: BlobStore>(&mut self, fleet: &mut Fleet<S>, at: TimePoint, salvage: bool) {
        let Some(store) = &mut self.store else {
            return;
        };
        // Collect this tick's finished segments onto each owning node's
        // queue; pending (older) segments are already at the front.
        for (key, sink) in &mut self.sinks {
            for seg in sink.drain() {
                let node = match key.shard {
                    Some(shard) => fleet.placement().home_of(usize::from(shard)),
                    None => usize::from(key.node),
                };
                self.pending.entry(node).or_default().push((*key, seg));
            }
        }
        for (&node, batch) in &mut self.pending {
            if batch.is_empty() {
                continue;
            }
            let bytes: u64 = batch.iter().map(|(_, s)| s.encoded_bytes()).sum();
            let delivered = fleet.charge_transfer(node, at, bytes).is_some();
            if delivered || salvage {
                if delivered {
                    self.shipped_segments += batch.len() as u64;
                    self.shipped_bytes += bytes;
                } else {
                    self.lost_shipments += 1;
                    self.salvaged_segments += batch.len() as u64;
                }
                for (key, seg) in batch.drain(..) {
                    store.ingest(key, seg);
                }
            } else {
                self.lost_shipments += 1;
            }
        }
    }
}

/// The sink for `key`, created on first use.
fn sink_for(
    sinks: &mut BTreeMap<SeriesKey, SeriesSink>,
    bound: ErrorBound,
    key: SeriesKey,
) -> &mut SeriesSink {
    sinks.entry(key).or_insert_with(|| SeriesSink::new(bound))
}
