//! `fleet_incident`: a four-node fleet through a scripted bad day — a
//! brownout while sessions are still arriving, a crash-restart in the
//! middle of playback — with every plane switched on: lossy jittered
//! links, an enabled tracer, the telemetry sampler shipping error-bounded
//! segments, the health monitor's four built-in rules and the default
//! remediation playbook, ending in typed queries and incident reports.
//!
//! The only workload where `fleet.rs`, `tbm-query` and an enabled tracer
//! do real work, and the only one with faults, so migration, handoff
//! stalls and forced degradation run.

use crate::drive::{at_us, drive, Samples, Target};
use crate::fixtures::{balanced_names, serve_frames, Catalog};
use crate::gen::{fleet_faults, fleet_script, FleetFaults, Fnv, Script};
use crate::trace::{TimedStore, Trace};
use crate::workload::{absorb_serve_stats, digest_of, Ingest, Rep, RepCtx, Shape, Workload};
use tbm_blob::{BlobStore, MemBlobStore};
use tbm_obs::Tracer;
use tbm_query::{
    Aggregate, ErrorBound, FleetTelemetry, GroupBy, HealthMonitor, Metric, Playbook, Predicate,
    Query, QueryCtx, Remediator, Selector, SloRule, Source,
};
use tbm_serve::{Capacity, Fleet, Link, NodeFaultPlan};
use tbm_time::TimeDelta;

/// Nodes.
pub const NODES: usize = 4;
/// `fleet_incident` at full size: 2 048 sessions of 175 elements (7 s of
/// PAL video) on 64 objects over 32 shards, eight per node.
///
/// The issue asked for 120 elements and a 40 ms tick. At that size a
/// repetition is 1.1 s, under the 1.5 s it must last, so sessions play
/// longer; and the planes are sampled twice as often, which still leaves
/// the telemetry and request spans at 17.7% of a repetition, under the 20%
/// the issue wants. A 10 ms tick brings them to 21%, but then one seed in
/// 200 (308) panics inside `tbm-serve` with `rational add overflow` in
/// `Server::drain` — see [`NODE_BANDWIDTH`]. At 20 ms, 500 seeds ran clean.
pub const FULL: Shape = Shape {
    shards: 32,
    objects: 64,
    elements: 175,
    sessions: 2048,
};
/// Telemetry tick, microseconds of simulated time.
pub const TICK_US: i64 = 20_000;
/// Ticks driven before the final drain: 9 s, past the last session's end.
pub const TICKS: i64 = 450;
/// Telemetry error bound, percent.
pub const ERROR_PCT: f64 = 5.0;
/// A node's storage bandwidth, bytes per second: about 720 full-fidelity
/// sessions' worth, 1.4x a node's even share of the sessions.
///
/// The exact value matters. The serve loop keeps simulated time as `i64`
/// rationals and adds `bytes / bandwidth` terms into it, where a shard's
/// bandwidth is the node's, derated by health and by the remediator and
/// split over however many shards the node hosts at the moment. Each new
/// bandwidth value multiplies the denominators in flight, and an arbitrary
/// figure (`full_bps * 768`) overflows `Rational` and panics a few
/// migrations in. 5 544 000 = 27 720 x 40 x 5 is divisible by every shard
/// count up to 12 and by both derates (x25/100, x70/100), so every
/// per-shard bandwidth divides 7 x this constant and denominators stay
/// below 10^10 whatever the fault script does.
pub const NODE_BANDWIDTH: u64 = 5_544_000;
/// Health of the browned-out node, percent.
pub const BROWNOUT_HEALTH: u8 = 25;

fn rules() -> [SloRule; 4] {
    [
        SloRule::p99_full_lateness_below(2_000.0),
        SloRule::drop_rate_below(1.0),
        SloRule::no_unverified_serves(),
        SloRule::load_skew_below(60.0),
    ]
}

/// The fixed typed queries asked of the finished fleet.
fn queries() -> Vec<Query> {
    vec![
        Query::scan(Source::Objects),
        Query::scan(Source::Sessions).filter(Predicate::Degraded(true)),
        Query::scan(Source::Misses).aggregate(Aggregate::Count),
        Query::scan(Source::Misses)
            .group_by(GroupBy::Cause)
            .aggregate(Aggregate::Count),
        Query::scan(Source::Metrics)
            .filter(Predicate::MetricIs(Metric::LatenessUs))
            .aggregate(Aggregate::Quantile(99)),
        Query::scan(Source::Metrics)
            .filter(Predicate::MetricIs(Metric::NodeLoadPct))
            .group_by(GroupBy::Node)
            .aggregate(Aggregate::Max),
        Query::scan(Source::Metrics)
            .filter(Predicate::MetricIs(Metric::ThroughputBps))
            .filter(Predicate::OnNode(2))
            .aggregate(Aggregate::Mean),
    ]
}

/// `fleet_incident`'s fixture.
#[derive(Debug)]
pub struct FleetIncident {
    shape: Shape,
    catalog: Catalog,
    stores: Vec<MemBlobStore>,
    script: Script,
    faults: FleetFaults,
    seed: u64,
}

impl FleetIncident {
    /// Captures the catalog and generates arrivals and fault instants.
    pub fn setup(seed: u64, shape: Shape) -> FleetIncident {
        let mut stores: Vec<MemBlobStore> =
            (0..shape.shards).map(|_| MemBlobStore::new()).collect();
        let catalog = Catalog::capture(
            &mut stores,
            balanced_names(shape.objects, shape.shards),
            &serve_frames(shape.elements),
        );
        FleetIncident {
            shape,
            catalog,
            stores,
            script: fleet_script(seed, shape.sessions, shape.objects as u32, 1_000_000),
            faults: fleet_faults(seed),
            seed,
        }
    }

    fn rep_over<S: BlobStore>(
        &self,
        stores: Vec<S>,
        trace: &Trace,
        samples: Option<&mut Samples>,
    ) -> Rep {
        let f = self.faults;
        let mut fleet = Fleet::new(
            self.catalog.sharded_db(stores),
            NODES,
            Capacity::new(NODE_BANDWIDTH).admit_all(),
        )
        .with_cache_budget(self.catalog.max_shard_bytes() / 2)
        .with_tracer(Tracer::with_capacity(1 << 16))
        .with_fault_plan(
            1,
            NodeFaultPlan::new().with_crash_restart(at_us(f.crash_us), at_us(f.restart_us)),
        )
        .with_fault_plan(
            2,
            NodeFaultPlan::new().with_brownout(
                at_us(f.brownout_from_us),
                at_us(f.brownout_to_us),
                BROWNOUT_HEALTH,
            ),
        );
        for node in 0..NODES {
            fleet = fleet.with_link(
                node,
                Link::new(125_000_000)
                    .with_jitter_us(300)
                    .with_loss(0.01)
                    .with_seed(self.seed.wrapping_mul(31).wrapping_add(node as u64)),
            );
        }
        let interval = TimeDelta::from_micros(TICK_US);
        let mut monitor = HealthMonitor::new(interval);
        for rule in rules() {
            monitor = monitor.rule(rule);
        }
        let mut telemetry = FleetTelemetry::new(ErrorBound::percent(ERROR_PCT), interval)
            .with_health(monitor)
            .with_remediator(Remediator::new(Playbook::default_rules()));
        let mut rep = Rep::default();

        let whole = trace.begin("bench:rep");
        // One tick: run the fleet to the tick instant, then sample it. The
        // sampler's own `run_until` is then a no-op, so the two spans split
        // serving from telemetry.
        let tick = |fleet: &mut Fleet<S>, telemetry: &mut FleetTelemetry, k: i64| {
            let at = at_us(k * TICK_US);
            let open = trace.begin("serve:fleet.run_until");
            fleet.advance(at);
            trace.end(open);
            let open = trace.begin("query:tick");
            telemetry.tick(fleet, at);
            trace.end(open);
        };
        let mut next_tick = 0i64;
        rep.drive = drive(
            &mut fleet,
            &self.script,
            &self.catalog.names,
            trace,
            samples,
            |fleet, t| {
                while next_tick * TICK_US <= t {
                    tick(fleet, &mut telemetry, next_tick);
                    next_tick += 1;
                }
                let open = trace.begin("serve:fleet.run_until");
                fleet.advance(at_us(t));
                trace.end(open);
            },
        );
        while next_tick <= TICKS {
            tick(&mut fleet, &mut telemetry, next_tick);
            next_tick += 1;
        }
        let open = trace.begin("query:finish");
        telemetry.finish(&mut fleet, at_us(next_tick * TICK_US));
        trace.end(open);
        let open = trace.begin("serve:fleet.finish");
        let stats = fleet.finish();
        trace.end(open);

        let mut answers = String::new();
        {
            let store = telemetry.store().expect("the plane ticked");
            let ctx = QueryCtx::from_fleet(&fleet).with_telemetry(store);
            for q in queries() {
                let open = trace.begin("query:query");
                match q.run(&ctx) {
                    Ok(table) => answers.push_str(&table.render()),
                    Err(e) => rep.failures.push(format!("query {}: {e}", q.describe())),
                }
                trace.end(open);
                answers.push('\n');
            }
        }
        let open = trace.begin("query:report_render");
        for report in telemetry.incident_reports() {
            answers.push_str(&report.render());
        }
        trace.end(open);
        rep.wall_ns = trace.end(whole);

        let metrics = fleet.metrics();
        absorb_serve_stats(&mut rep, &stats.shards.global, &metrics);
        let remediator = telemetry.remediator().expect("attached above");
        rep.digest = digest_of(&[
            &format!("{stats:?}"),
            &metrics.render(),
            &answers,
            &remediator.render_log(),
        ]);
        let store = telemetry.store().expect("the plane ticked");
        let l = &mut rep.layer;
        l.insert("serve.fleet.migrations", stats.migrations as f64);
        l.insert(
            "serve.fleet.transport_retried",
            stats.transport_retried as f64,
        );
        l.insert("serve.fleet.shed", stats.elements_shed as f64);
        l.insert("serve.shard.skew_pct", stats.shards.skew_percent() as f64);
        l.insert("obs.tracer.dropped", fleet.trace().dropped as f64);
        l.insert("query.store.compression_ratio", store.compression_ratio());
        l.insert("query.remediate.actions", remediator.records().len() as f64);
        l.insert("query.shipped_bytes", telemetry.shipped_bytes() as f64);
        l.insert("query.lost_shipments", telemetry.lost_shipments() as f64);
        l.insert("query.incidents", telemetry.incident_reports().len() as f64);

        // Every due element served: nobody refused (admit-all), nothing
        // dropped or shed (migration is on), sessions × elements delivered.
        let expected = u64::from(self.script.sessions) * self.shape.elements as u64;
        let (events, refused, lost) = (
            rep.events,
            rep.drive.refused,
            rep.dropped + stats.elements_shed,
        );
        rep.check(events == expected && refused == 0 && lost == 0, || {
            format!("served {events} of {expected} elements ({refused} refused, {lost} lost)")
        });
        // Telemetry aggregates within their reported bound of the lossless
        // history the health monitor kept of the same run.
        let exact = telemetry.health().expect("attached above").store_view();
        let mut compared = 0;
        for metric in Metric::ALL {
            for agg in [
                Aggregate::Min,
                Aggregate::Max,
                Aggregate::Mean,
                Aggregate::Quantile(50),
                Aggregate::Quantile(99),
            ] {
                let sel = Selector::metric(metric);
                let (Some(m), Some(e)) = (store.aggregate(&sel, agg), exact.aggregate(&sel, agg))
                else {
                    continue;
                };
                compared += 1;
                let slack = m.error_pct.max(ERROR_PCT) / 100.0 * e.value.abs() + 1e-9;
                if (m.value - e.value).abs() > slack {
                    rep.failures.push(format!(
                        "{metric}/{agg}: model {} vs lossless {} exceeds {}%",
                        m.value, e.value, m.error_pct
                    ));
                }
            }
        }
        rep.check(compared >= 10, || {
            format!("only {compared} telemetry aggregates could be compared")
        });
        rep
    }
}

impl Workload for FleetIncident {
    fn rep(&self, ctx: &RepCtx, samples: Option<&mut Samples>) -> Rep {
        match &ctx.probe {
            None => self.rep_over(self.stores.clone(), &ctx.trace, samples),
            Some(probe) => self.rep_over(
                self.stores
                    .iter()
                    .map(|s| TimedStore::new(s.clone(), probe.clone(), ctx.trace.clone()))
                    .collect(),
                &ctx.trace,
                samples,
            ),
        }
    }

    fn ingest(&self) -> Ingest {
        self.catalog.ingest()
    }

    fn script_digest(&self) -> u64 {
        let f = self.faults;
        let mut h = Fnv::default();
        h.write(&self.script.digest().to_le_bytes());
        for us in [
            f.crash_us,
            f.restart_us,
            f.brownout_from_us,
            f.brownout_to_us,
        ] {
            h.write(&us.to_le_bytes());
        }
        h.finish()
    }

    fn verify(&self, _reference: &Rep) -> Option<Rep> {
        // The lossless cross-check rides inside every repetition (the
        // health monitor keeps the raw history), and the fleet has no
        // worker knob, so there is nothing a further repetition would add.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        shards: 8,
        objects: 8,
        elements: 75,
        sessions: 96,
    };

    #[test]
    fn incident_runs_clean_migrates_and_repeats_exactly() {
        let incident = FleetIncident::setup(4, SMALL);
        let trace = Trace::enabled();
        let first = incident.rep(&RepCtx::traced(trace.clone()), None);
        assert!(first.failures.is_empty(), "{:?}", first.failures);
        assert_eq!(first.drive.errors, 0, "{:?}", first.drive.error_texts);
        assert_eq!(first.events, 96 * 75);
        assert!(
            first.layer["serve.fleet.migrations"] >= 2.0,
            "the crash must move node 1's shards away and back"
        );
        assert!(first.layer["query.store.compression_ratio"] > 1.0);
        let ticks = trace
            .spans()
            .iter()
            .filter(|s| s.name == "query:tick")
            .count();
        assert_eq!(ticks as i64, TICKS + 1);
        let second = incident.rep(&RepCtx::untraced(1), None);
        assert_eq!(first.digest, second.digest);
        assert_eq!(first.layer, second.layer);
        assert_ne!(
            FleetIncident::setup(5, SMALL).script_digest(),
            incident.script_digest()
        );
    }
}
