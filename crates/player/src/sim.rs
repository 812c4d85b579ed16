//! The playback pipeline simulation.

use crate::{CostModel, ElementJob};
use tbm_obs::{micros, Category, SpanId, Tracer};
use tbm_time::{Rational, TimeDelta, TimePoint};

/// A deterministic single-pipeline playback simulator.
///
/// Elements are fetched and decoded sequentially through the [`CostModel`];
/// element `i` becomes *ready* at `ready(i-1) + cost(i)`. Playback begins
/// once `startup_elements` are buffered (the classic startup-latency /
/// underrun trade-off); from then on the clock demands element `i` at
/// `t_play + deadline(i)`. An element that is not ready at its demand time
/// is a *deadline miss*, presented late by its *lateness*.
#[derive(Debug, Clone, Copy)]
pub struct PlaybackSim {
    /// The fetch/decode cost model.
    pub cost: CostModel,
    /// Elements buffered before the presentation clock starts.
    pub startup_elements: usize,
}

impl PlaybackSim {
    /// A simulator with the given cost model and a one-element startup
    /// buffer.
    pub fn new(cost: CostModel) -> PlaybackSim {
        PlaybackSim {
            cost,
            startup_elements: 1,
        }
    }

    /// Builder: sets the startup buffer depth.
    ///
    /// A depth of `0` is clamped to `1`: the presentation clock can only
    /// start once *something* is buffered, so a zero-element buffer is not a
    /// meaningful configuration. The clamp keeps `with_startup(0)`
    /// equivalent to `with_startup(1)` rather than panicking on the
    /// `ready[startup_elements - 1]` lookup inside
    /// [`PlaybackSim::run_with_penalties`].
    pub fn with_startup(mut self, elements: usize) -> PlaybackSim {
        self.startup_elements = elements.max(1);
        self
    }

    /// Runs the simulation over a deadline-ordered schedule.
    pub fn run(&self, jobs: &[ElementJob]) -> PlaybackStats {
        self.run_with_penalties(jobs, &[])
    }

    /// Runs the simulation with a per-element service-time penalty added on
    /// top of the cost model — how fault recovery (retry backoff, injected
    /// latency) is charged against the pipeline. `penalties` may be shorter
    /// than `jobs`; missing entries cost nothing.
    pub fn run_with_penalties(
        &self,
        jobs: &[ElementJob],
        penalties: &[TimeDelta],
    ) -> PlaybackStats {
        self.run_traced(jobs, penalties, &Tracer::disabled(), None)
    }

    /// [`PlaybackSim::run_with_penalties`] with tracing: each element gets a
    /// `player.element` span covering its fetch/decode interval, and every
    /// deadline miss an instant `present.miss` event, all on the simulated
    /// clock. A disabled tracer makes this identical to the untraced run.
    pub fn run_traced(
        &self,
        jobs: &[ElementJob],
        penalties: &[TimeDelta],
        tracer: &Tracer,
        session: Option<u64>,
    ) -> PlaybackStats {
        let mut stats = PlaybackStats::default();
        // Guard before any division or `ready[..]` indexing: an empty
        // schedule is a valid input (e.g. a stream with no entries) and must
        // yield fully zeroed stats, not a divide-by-zero panic below.
        if jobs.is_empty() {
            return stats;
        }
        // Fetch pipeline: ready times.
        let mut ready = Vec::with_capacity(jobs.len());
        let mut t = TimePoint::ZERO;
        for (i, j) in jobs.iter().enumerate() {
            t += self.cost.element_cost(j.bytes);
            if let Some(p) = penalties.get(i) {
                t += *p;
            }
            ready.push(t);
        }
        // Presentation clock starts when the startup buffer is full.
        let k = self.startup_elements.min(jobs.len()) - 1;
        let t_play = ready[k] - jobs[0].deadline.since_origin();
        stats.startup_latency = ready[k].since_origin();
        stats.elements = jobs.len();
        // (presented at, lateness) of element `i`.
        let presented = |i: usize| {
            let scheduled = t_play + jobs[i].deadline.since_origin();
            let actual = scheduled.max(ready[i]);
            (actual, actual - scheduled)
        };

        // One span per element over its fetch/decode interval, written
        // whole now that its lateness is known.
        let spans: Vec<SpanId> = (0..jobs.len())
            .map(|i| {
                let fetch_start = if i == 0 {
                    TimePoint::ZERO
                } else {
                    ready[i - 1]
                };
                let span = tracer.begin_span(
                    "player.element",
                    Category::Decode,
                    fetch_start,
                    SpanId::NONE,
                    session,
                );
                tracer.end_span_with(span, ready[i], |a| {
                    a.put("index", i);
                    a.put("bytes", jobs[i].bytes);
                    if let Some(p) = penalties.get(i) {
                        a.put("penalty_us", micros(p.seconds()));
                    }
                    a.put("lateness_us", micros(presented(i).1.seconds()));
                });
                span
            })
            .collect();

        let mut sum_late = Rational::ZERO;
        let mut sum_late_sq = 0f64;
        for (i, &span) in spans.iter().enumerate() {
            let (actual, lateness) = presented(i);
            if lateness > TimeDelta::ZERO {
                stats.misses += 1;
                stats.max_lateness = stats.max_lateness.max(lateness);
                sum_late += lateness.seconds();
                tracer.event_with(
                    "present.miss",
                    Category::Present,
                    actual,
                    span,
                    session,
                    |a| {
                        a.put("index", i);
                        a.put("lateness_us", micros(lateness.seconds()));
                    },
                );
            }
            let late_f = lateness.seconds().to_f64();
            sum_late_sq += late_f * late_f;
        }
        // Two means, two denominators — documented on the fields: the same
        // lateness sum averaged over *all* elements (how late is playback
        // overall) and over *missed* elements only (how bad is a glitch).
        stats.mean_lateness = TimeDelta::from_seconds(sum_late / Rational::from(jobs.len() as i64));
        stats.mean_miss_lateness = if stats.misses == 0 {
            TimeDelta::ZERO
        } else {
            TimeDelta::from_seconds(sum_late / Rational::from(stats.misses as i64))
        };
        stats.jitter_rms_secs = (sum_late_sq / jobs.len() as f64).sqrt();
        stats
    }
}

/// The outcome of a playback simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlaybackStats {
    /// Elements presented.
    pub elements: usize,
    /// Elements presented after their deadline.
    pub misses: usize,
    /// Worst lateness observed.
    pub max_lateness: TimeDelta,
    /// Mean lateness over **all** elements — on-time elements contribute 0
    /// to the sum but *do* count in the denominator. This answers "how late
    /// is playback on average"; for "how bad is a typical glitch" see
    /// [`PlaybackStats::mean_miss_lateness`].
    pub mean_lateness: TimeDelta,
    /// Mean lateness over **missed** elements only (denominator =
    /// [`PlaybackStats::misses`]); [`TimeDelta::ZERO`] when nothing missed.
    /// Always ≥ [`PlaybackStats::mean_lateness`].
    pub mean_miss_lateness: TimeDelta,
    /// RMS of lateness in seconds — the "jitter" the paper says the
    /// application smooths just before presentation.
    pub jitter_rms_secs: f64,
    /// Time from pressing play to the first presented element.
    pub startup_latency: TimeDelta,
    /// Elements that needed retries but were presented intact.
    pub recovered: usize,
    /// Elements presented in degraded form (repeated predecessor or
    /// base-layer-only after a fault).
    pub degraded: usize,
    /// Elements not presented at all (fault with no recovery path).
    pub dropped: usize,
}

impl PlaybackStats {
    /// Fraction of elements missing their deadline.
    pub fn miss_rate(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.misses as f64 / self.elements as f64
        }
    }

    /// `true` when playback was glitch-free.
    pub fn clean(&self) -> bool {
        self.misses == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule_uniform;
    use tbm_time::TimeSystem;

    /// PAL video at 100 kB/frame demands 2.5 MB/s.
    fn jobs() -> Vec<ElementJob> {
        schedule_uniform(100, 100_000, TimeSystem::PAL)
    }

    #[test]
    fn ample_bandwidth_is_clean() {
        let sim = PlaybackSim::new(CostModel::bandwidth_only(10_000_000));
        let stats = sim.run(&jobs());
        assert_eq!(stats.elements, 100);
        assert!(stats.clean(), "{stats:?}");
        assert_eq!(stats.max_lateness, TimeDelta::ZERO);
        assert_eq!(stats.miss_rate(), 0.0);
    }

    #[test]
    fn exact_bandwidth_is_clean() {
        // 2.5 MB/s demand at exactly 2.5 MB/s: each fetch takes exactly one
        // period; with one element buffered the pipeline just keeps up.
        let sim = PlaybackSim::new(CostModel::bandwidth_only(2_500_000));
        let stats = sim.run(&jobs());
        assert!(stats.clean(), "{stats:?}");
    }

    #[test]
    fn insufficient_bandwidth_misses_increasingly() {
        let sim = PlaybackSim::new(CostModel::bandwidth_only(2_000_000)); // 80 %
        let stats = sim.run(&jobs());
        assert!(stats.misses > 50, "{stats:?}");
        assert!(stats.max_lateness > TimeDelta::ZERO);
        assert!(stats.jitter_rms_secs > 0.0);
        // Lateness grows over the run: the pipeline falls 20 % behind per
        // element; by element 99 lateness ≈ 99 × (0.05 − 0.04) s ≈ 0.99 s.
        let max = stats.max_lateness.seconds().to_f64();
        assert!((0.8..1.2).contains(&max), "max lateness {max}");
    }

    #[test]
    fn deeper_startup_buffer_absorbs_jitter() {
        // Slightly undersized bandwidth: a deep buffer trades startup
        // latency for fewer misses.
        let tight = CostModel::bandwidth_only(2_400_000);
        let shallow = PlaybackSim::new(tight).run(&jobs());
        let deep = PlaybackSim::new(tight).with_startup(20).run(&jobs());
        assert!(deep.misses < shallow.misses, "{shallow:?} vs {deep:?}");
        assert!(deep.startup_latency > shallow.startup_latency);
    }

    #[test]
    fn overhead_alone_can_break_playback() {
        // 41 ms per-element overhead exceeds the 40 ms PAL period.
        let sim =
            PlaybackSim::new(CostModel::bandwidth_only(1_000_000_000).with_overhead_us(41_000));
        let stats = sim.run(&jobs());
        assert!(!stats.clean());
    }

    #[test]
    fn empty_schedule_is_trivially_clean() {
        let sim = PlaybackSim::new(CostModel::bandwidth_only(1));
        let stats = sim.run(&[]);
        assert_eq!(stats.elements, 0);
        assert!(stats.clean());
    }

    #[test]
    fn empty_schedule_returns_zeroed_stats_not_division_by_zero() {
        // Regression guard: `run_with_penalties` divides by `jobs.len()`
        // computing `mean_lateness`, and indexes `ready[startup - 1]`. Both
        // are reached only past the empty-schedule guard; this test pins the
        // guard across every entry point and penalty shape.
        let sim = PlaybackSim::new(CostModel::bandwidth_only(1)).with_startup(8);
        let zeroed = PlaybackStats::default();
        assert_eq!(sim.run(&[]), zeroed);
        assert_eq!(sim.run_with_penalties(&[], &[]), zeroed);
        // Penalties longer than the (empty) schedule must not resurrect it.
        let penalties = vec![TimeDelta::from_millis(100); 4];
        assert_eq!(sim.run_with_penalties(&[], &penalties), zeroed);
        assert_eq!(
            sim.run_traced(&[], &penalties, &tbm_obs::Tracer::disabled(), None),
            zeroed
        );
        assert_eq!(zeroed.mean_lateness, TimeDelta::ZERO);
        assert_eq!(zeroed.miss_rate(), 0.0);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_spans() {
        let sim = PlaybackSim::new(CostModel::bandwidth_only(2_000_000)); // 80 %
        let jobs = jobs();
        let tracer = tbm_obs::Tracer::new();
        let traced = sim.run_traced(&jobs, &[], &tracer, Some(9));
        assert_eq!(traced, sim.run(&jobs), "tracing must not change timing");
        let snap = tracer.snapshot();
        let spans = snap
            .records
            .iter()
            .filter(|r| r.name == "player.element")
            .count();
        let misses = snap
            .records
            .iter()
            .filter(|r| r.name == "present.miss")
            .count();
        assert_eq!(spans, jobs.len());
        assert_eq!(misses, traced.misses);
        assert!(snap.records.iter().all(|r| r.session == Some(9)));
    }

    #[test]
    fn mean_lateness_semantics_pinned() {
        // 80 % bandwidth: every element after the buffered first one is
        // late. Pin the two means to their definitions: same lateness sum,
        // divided by all elements vs by misses only.
        let sim = PlaybackSim::new(CostModel::bandwidth_only(2_000_000));
        let stats = sim.run(&jobs());
        assert!(
            stats.misses > 0 && stats.misses < stats.elements,
            "{stats:?}"
        );
        let sum_over_all = stats.mean_lateness.seconds() * Rational::from(stats.elements as i64);
        let sum_over_misses =
            stats.mean_miss_lateness.seconds() * Rational::from(stats.misses as i64);
        assert_eq!(sum_over_all, sum_over_misses);
        assert!(stats.mean_miss_lateness > stats.mean_lateness);

        // Clean playback: both means are exactly zero.
        let clean = PlaybackSim::new(CostModel::bandwidth_only(10_000_000)).run(&jobs());
        assert_eq!(clean.mean_lateness, TimeDelta::ZERO);
        assert_eq!(clean.mean_miss_lateness, TimeDelta::ZERO);
    }

    #[test]
    fn penalties_delay_the_pipeline() {
        // Exact bandwidth: each fetch takes exactly one period, so there is
        // no slack to absorb a penalty.
        let sim = PlaybackSim::new(CostModel::bandwidth_only(2_500_000));
        let jobs = jobs();
        assert!(sim.run(&jobs).clean());
        // A 100 ms penalty on element 50 ripples into misses downstream.
        let mut penalties = vec![TimeDelta::ZERO; jobs.len()];
        penalties[50] = TimeDelta::from_millis(100);
        let stats = sim.run_with_penalties(&jobs, &penalties);
        assert!(!stats.clean(), "{stats:?}");
        assert!(stats.max_lateness >= TimeDelta::from_millis(60));
        // Short penalty slices are allowed.
        assert!(sim.run_with_penalties(&jobs, &[]).clean());
    }

    #[test]
    fn zero_startup_clamps_to_one_element() {
        // The documented clamp: a zero-depth buffer is not meaningful (the
        // clock cannot start before anything is buffered), so 0 behaves
        // exactly like 1 — and does not panic.
        let cost = CostModel::bandwidth_only(2_400_000);
        let zero = PlaybackSim::new(cost).with_startup(0);
        assert_eq!(zero.startup_elements, 1);
        let one = PlaybackSim::new(cost).with_startup(1);
        assert_eq!(zero.run(&jobs()), one.run(&jobs()));
        assert_eq!(zero.run(&[]), one.run(&[]));
    }

    #[test]
    fn determinism() {
        let sim = PlaybackSim::new(CostModel::bandwidth_only(2_300_000)).with_startup(5);
        assert_eq!(sim.run(&jobs()), sim.run(&jobs()));
    }
}
