//! The two kinds of run: the untraced one that yields every end-to-end
//! metric, and the traced one that yields every per-layer metric.
//!
//! Both follow the same shape — timed set-up, one untimed warm-up
//! repetition, timed repetitions until the run's seconds are spent, one
//! verification repetition, output checks — and both print a table for
//! people followed by one JSON line for the driver.

use crate::drive::Samples;
use crate::kernels;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::timer::{now_ns, percentile, summarize, top_percentile, Summary};
use crate::trace::{
    self_by_layer, self_times, totals_by_name, write_chrome_trace, NameTotals, Span, Trace,
};
use crate::workload::{Counters, Rep, RepCtx, Workload};
use crate::{churn, fixtures, fleet, pipeline, storm};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// Seconds the timed repetitions may take in total.
    pub seconds: f64,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `(name, value, unit)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted: requests sent plus elements due.
    pub attempted: u64,
    /// Operations that failed: request errors, dropped elements, failed
    /// output checks.
    pub failed: u64,
    /// The human-readable report.
    pub report: String,
}

impl Outcome {
    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's line: one JSON object, printed last.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Set-ups per untraced run, at least; `setup_s` is their median. Short
/// set-ups are repeated further, until [`SETUP_SECONDS`] are spent or
/// [`MAX_SETUPS`] done, because a 30 ms set-up is noisier than a 1 s one.
const MIN_SETUPS: usize = 5;
/// See [`MIN_SETUPS`].
const MAX_SETUPS: usize = 25;
/// See [`MIN_SETUPS`].
const SETUP_SECONDS: f64 = 3.0;
/// Timed repetitions an untraced run takes at least, whatever its seconds.
const MIN_REPS: usize = 5;
/// Pairs of one untraced and one traced repetition a traced run takes at
/// least: its metrics carry no bound, and a pair is two repetitions long.
const MIN_TRACED_PAIRS: usize = 3;

/// Builds `name`'s fixture from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "storm_hot" => Box::new(storm::StormHot::setup(seed, storm::HOT)),
        "storm_cold" => Box::new(storm::StormCold::setup(seed, storm::COLD)),
        "session_churn" => Box::new(churn::SessionChurn::setup(seed, churn::FULL)),
        "fleet_incident" => Box::new(fleet::FleetIncident::setup(seed, fleet::FULL)),
        "media_pipeline" => Box::new(pipeline::MediaPipeline::setup(seed, pipeline::FRAMES)),
        _ => return None,
    })
}

/// `VmHWM` of this process, in megabytes (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn events_per_s(rep: &Rep) -> f64 {
    rep.events as f64 / (rep.wall_ns.max(1) as f64 / 1e9)
}

fn fmt_summary(s: &Summary) -> String {
    format!(
        "n={:<3} min={:<11.4} q1={:<11.4} median={:<11.4} q3={:<11.4} max={:<11.4} spread={:.1}%",
        s.n,
        s.min,
        s.q1,
        s.median,
        s.q3,
        s.max,
        s.spread() * 100.0
    )
}

/// Tallies attempted and failed operations and collects failed checks.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn add(&mut self, label: &str, rep: &Rep) {
        self.attempted += rep.drive.requests + rep.events + rep.dropped;
        self.failed += rep.drive.errors + rep.dropped + rep.failures.len() as u64;
        for text in rep.drive.error_texts.iter().chain(&rep.failures) {
            self.messages.push(format!("{label}: {text}"));
        }
        if rep.dropped > 0 {
            self.messages
                .push(format!("{label}: {} elements dropped", rep.dropped));
        }
    }

    fn check(&mut self, ok: bool, text: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.messages.push(text());
        }
    }

    fn render(&self, out: &mut String) {
        if self.messages.is_empty() {
            let _ = writeln!(out, "output checks: all passed");
        } else {
            let _ = writeln!(out, "output checks: {} FAILED", self.messages.len());
            for m in &self.messages {
                let _ = writeln!(out, "  FAILED {m}");
            }
        }
    }
}

/// Runs timed repetitions until `seconds` are spent (at least `min_reps`);
/// a further repetition starts only if half of one still fits, so a run
/// overshoots its seconds by at most half a repetition.
fn timed_reps(seconds: f64, min_reps: usize, mut one: impl FnMut(usize) -> Rep) -> Vec<Rep> {
    let budget_ns = (seconds * 1e9) as u64;
    let start = now_ns();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let t0 = now_ns();
        reps.push(one(reps.len()));
        let last = now_ns() - t0;
        if reps.len() >= min_reps && now_ns() - start + last / 2 > budget_ns {
            return reps;
        }
    }
}

/// Checks that every repetition produced the same deterministic outputs.
fn check_reps_agree(tally: &mut Tally, reps: &[Rep]) {
    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate().skip(1) {
        tally.check(
            rep.digest == first.digest && rep.events == first.events,
            || {
                format!(
                    "repetition {i} differs from repetition 0 (digest {:016x} vs {:016x}, {} vs {} events)",
                    rep.digest, first.digest, rep.events, first.events
                )
            },
        );
    }
}

/// p50 and p99, in microseconds, over every opening request of the timed
/// repetitions, and how many samples that is.
fn open_latency_us(samples: &Samples, tally: &mut Tally) -> (f64, f64, usize) {
    let mut all = samples.ns.clone();
    all.sort_unstable();
    let n = all.len();
    tally.check(top_percentile(n) >= Some(99.0), || {
        format!("{n} opening requests timed: a p99 needs 1000")
    });
    if all.is_empty() {
        return (0.0, 0.0, 0);
    }
    (
        f64::from(percentile(&all, 50.0)) / 1e3,
        f64::from(percentile(&all, 99.0)) / 1e3,
        n,
    )
}

/// The untraced run: every end-to-end metric.
pub fn run(opts: &Options) -> Option<Outcome> {
    let mut report = String::new();
    let mut tally = Tally::default();

    // Set-up, several times; the last fixture is the one measured on.
    let mut setup_s = Vec::new();
    let mut ingest_rates = Vec::new();
    let mut stored_ratio = 0.0;
    let mut workload = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(workload.take());
        let t0 = now_ns();
        let built = build(&opts.workload, opts.seed)?;
        setup_s.push((now_ns() - t0) as f64 / 1e9);
        let ingest = built.ingest();
        if ingest.wall_ns > 0 {
            ingest_rates.push(ingest.mb_per_s());
            stored_ratio = ingest.stored_per_raw();
        }
        workload = Some(built);
    }
    let workload = workload.expect("MIN_SETUPS > 0");

    let ctx = RepCtx::untraced(1);
    tally.add("warm-up", &workload.rep(&ctx, None));
    let mut samples = Samples::default();
    // A repetition's length, fixture cloning included: what the "at least
    // 1.5 s" of the load shape is about.
    let mut lengths = Vec::new();
    let reps = timed_reps(opts.seconds, MIN_REPS, |_| {
        let t0 = now_ns();
        let rep = workload.rep(&ctx, Some(&mut samples));
        lengths.push((now_ns() - t0) as f64 / 1e9);
        rep
    });
    for (i, rep) in reps.iter().enumerate() {
        tally.add(&format!("repetition {i}"), rep);
        if let Some(ingest) = rep.ingest {
            ingest_rates.push(ingest.mb_per_s());
            stored_ratio = ingest.stored_per_raw();
        }
    }
    check_reps_agree(&mut tally, &reps);
    let verify = workload.verify(&reps[0]);
    if let Some(other) = &verify {
        tally.add("verification", other);
    }

    let eps = summarize(&reps.iter().map(events_per_s).collect::<Vec<_>>());
    let setup = summarize(&setup_s);
    let ingest = summarize(&ingest_rates);
    let (p50, _, n) = open_latency_us(&samples, &mut tally);
    let values = [
        setup.median,
        eps.median,
        p50,
        ingest.median,
        stored_ratio,
        peak_rss_mb(),
    ];

    let _ = writeln!(
        report,
        "perf run {} --seed {} (script {:016x}): {} timed repetitions of {:.2} s (median), {} events each",
        opts.workload,
        opts.seed,
        workload.script_digest(),
        reps.len(),
        summarize(&lengths).median,
        reps[0].events
    );
    let _ = writeln!(
        report,
        "events/s by repetition: {}",
        reps.iter()
            .map(|r| format!("{:.0}", events_per_s(r)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        report,
        "{:<22}{:>16} {:<6} detail",
        "metric", "value", "unit"
    );
    let details = [
        fmt_summary(&setup),
        fmt_summary(&eps),
        format!("over {n} opens of {} repetitions", reps.len()),
        fmt_summary(&ingest),
        "exact".to_owned(),
        "VmHWM".to_owned(),
    ];
    for ((m, v), d) in END_TO_END.iter().zip(values).zip(details) {
        let _ = writeln!(report, "{:<22}{:>16.4} {:<6} {}", m.name, v, m.unit, d);
    }
    if let Some(other) = &verify {
        let _ = writeln!(
            report,
            "verification repetition at {} workers: {:.0} events/s ({:.2}x the median 1-worker repetition)",
            other.workers,
            events_per_s(other),
            events_per_s(other) / eps.median
        );
    }
    let refused = reps[0].drive.refused;
    let _ = writeln!(
        report,
        "simulated outcome: {} deadline misses, lateness p99 {} us, {} opens refused by admission, {} dropped",
        reps[0].sim_misses, reps[0].sim_lateness_p99_us, refused, reps[0].dropped
    );
    tally.render(&mut report);
    Some(Outcome {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        attempted: tally.attempted,
        failed: tally.failed,
        report,
    })
}

fn median_dur_ns(spans: &[Span], name: &str) -> f64 {
    let durs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64)
        .collect();
    if durs.is_empty() {
        0.0
    } else {
        summarize(&durs).median
    }
}

/// The per-layer metrics read off the recorded spans: each layer's share
/// of the repetitions' wall time, the serve loop's own time per event, and
/// the medians of the spans that have a metric of their own.
fn span_metrics(
    spans: &[Span],
    shares: &BTreeMap<&'static str, u64>,
    by_name: &BTreeMap<&'static str, NameTotals>,
    rep_wall: u64,
    events: u64,
) -> Counters {
    let mut out = Counters::new();
    let of_wall = |ns: u64| ns as f64 / rep_wall.max(1) as f64 * 100.0;
    for (name, layer) in [
        ("share.serve_pct", "serve"),
        ("share.blob_pct", "blob"),
        ("share.query_pct", "query"),
        ("share.codec_pct", "codec"),
        ("share.interp_pct", "interp"),
        ("share.derive_pct", "derive"),
        ("share.compose_pct", "compose"),
        ("share.db_pct", "db"),
        ("share.bench_pct", "bench"),
    ] {
        out.insert(name, of_wall(shares.get(layer).copied().unwrap_or(0)));
    }
    let self_of = |prefix: &str| -> u64 {
        by_name
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, t)| t.self_ns)
            .sum()
    };
    let drain_self = self_of("serve:run_until")
        + self_of("serve:finish")
        + self_of("serve:fleet.run_until")
        + self_of("serve:fleet.finish");
    out.insert(
        "serve.drain.self_ns_per_event",
        drain_self as f64 / events.max(1) as f64,
    );
    out.insert(
        "serve.request.share_pct",
        of_wall(self_of("serve:request.")),
    );
    for (name, span, per) in [
        ("serve.request.open_us_p50", "serve:request.open", 1e3),
        ("serve.request.play_us_p50", "serve:request.play", 1e3),
        ("serve.request.seek_us_p50", "serve:request.seek", 1e3),
        ("serve.request.close_us_p50", "serve:request.close", 1e3),
        ("query.report_render_us", "query:report_render", 1e3),
        ("serve.fleet.run_until_ms_p50", "serve:fleet.run_until", 1e6),
        ("blob.read_ns_p50", "blob:read", 1.0),
    ] {
        out.insert(name, median_dur_ns(spans, span) / per);
    }
    let mut ticks: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == "query:tick")
        .map(|s| s.dur().min(u64::from(u32::MAX)) as u32)
        .collect();
    if !ticks.is_empty() {
        ticks.sort_unstable();
        out.insert(
            "query.tick_us_p50",
            f64::from(percentile(&ticks, 50.0)) / 1e3,
        );
        out.insert(
            "query.tick_us_p99",
            f64::from(percentile(&ticks, 99.0)) / 1e3,
        );
    }
    out
}

/// The traced run: every per-layer metric.
pub fn trace(opts: &Options) -> Option<Outcome> {
    let mut report = String::new();
    let mut tally = Tally::default();
    let recorder = Trace::enabled();

    let open = recorder.begin("bench:setup");
    let workload = build(&opts.workload, opts.seed)?;
    recorder.end(open);
    let untraced = RepCtx::untraced(1);
    tally.add("warm-up", &workload.rep(&untraced, None));

    // Untraced and traced repetitions alternate, so the overhead figure
    // compares like with like.
    let traced = RepCtx::traced(recorder.clone());
    let mut plain: Vec<Rep> = Vec::new();
    let mut samples = Samples::default();
    let reps = timed_reps(opts.seconds, MIN_TRACED_PAIRS, |i| {
        plain.push(workload.rep(&untraced, Some(&mut samples)));
        recorder.set_rep(i as u32 + 1);
        workload.rep(&traced, None)
    });
    recorder.set_rep(0);
    for (i, rep) in reps.iter().chain(&plain).enumerate() {
        tally.add(&format!("repetition {i}"), rep);
    }
    check_reps_agree(&mut tally, &reps);
    tally.check(reps[0].digest == plain[0].digest, || {
        "the TimedStore wrapper changed the outputs".to_owned()
    });
    let verify = workload.verify(&plain[0]);
    if let Some(other) = &verify {
        tally.add("verification", other);
    }

    let mut layer: Counters = PER_LAYER.iter().map(|(name, _, _)| (*name, 0.0)).collect();
    let mut set = |name: &'static str, value: f64| {
        let slot = layer
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        *slot = value;
    };
    let last = reps.last().expect("MIN_TRACED_PAIRS > 0");
    for (name, value) in &last.layer {
        set(name, *value);
    }
    for (name, value) in kernels::run_all() {
        set(name, value);
    }

    let spans = recorder.spans();
    let selfs = self_times(&spans);
    let in_rep = |s: &Span| s.rep > 0;
    let n_reps = reps.len() as f64;
    let events: u64 = reps.iter().map(|r| r.events).sum();
    let rep_wall: u64 = spans
        .iter()
        .filter(|s| s.name == "bench:rep")
        .map(Span::dur)
        .sum();
    let shares = self_by_layer(&spans, &selfs, in_rep);
    let by_name = totals_by_name(&spans, &selfs, in_rep);
    for (name, value) in span_metrics(&spans, &shares, &by_name, rep_wall, events) {
        set(name, value);
    }
    let (_, p99, _) = open_latency_us(&samples, &mut tally);
    set("request.p99_us", p99);
    if let Some(probe) = &traced.probe {
        let (calls, bytes, busy, fails) = probe.snapshot();
        set("blob.read_calls", calls as f64 / n_reps);
        set("blob.read_bytes", bytes as f64 / n_reps);
        set("blob.busy_ns", busy as f64 / n_reps);
        set("blob.read_fail", fails as f64 / n_reps);
    }
    let plain_eps = summarize(&plain.iter().map(events_per_s).collect::<Vec<_>>());
    let traced_eps = summarize(&reps.iter().map(events_per_s).collect::<Vec<_>>());
    set(
        "bench.trace_overhead_pct",
        (plain_eps.median / traced_eps.median - 1.0) * 100.0,
    );
    if let Some(other) = &verify {
        set("serve.pool.events_per_s_w2", events_per_s(other));
        set(
            "serve.pool.speedup_w2",
            events_per_s(other) / plain_eps.median,
        );
        set(
            "serve.pool.steals",
            other.layer.get("serve.pool.steals").copied().unwrap_or(0.0),
        );
    }

    let dir = fixtures::out_dir();
    let path = dir.join(format!("{}.trace.json", opts.workload));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            write_chrome_trace(&spans, &mut w)?;
            std::io::Write::flush(&mut w)
        });
    tally.check(written.is_ok(), || {
        format!("could not write {}: {written:?}", path.display())
    });

    let _ = writeln!(
        report,
        "perf trace {} --seed {} (script {:016x}): {} traced repetitions, {} spans, trace in {}",
        opts.workload,
        opts.seed,
        workload.script_digest(),
        reps.len(),
        spans.len(),
        path.display()
    );
    let _ = writeln!(
        report,
        "events/s (median repetition) untraced {:.0}, traced {:.0}",
        plain_eps.median, traced_eps.median
    );
    let _ = writeln!(
        report,
        "\nself time by layer, share of repetition wall ({:.3} s per repetition):",
        rep_wall as f64 / 1e9 / n_reps
    );
    for (l, ns) in &shares {
        let _ = writeln!(
            report,
            "  {:<10}{:>7.1}%  {:>10.0} ns/event",
            l,
            *ns as f64 / rep_wall.max(1) as f64 * 100.0,
            *ns as f64 / events.max(1) as f64
        );
    }
    let _ = writeln!(
        report,
        "\nby span, per repetition:\n  {:<34}{:>10}{:>12}{:>12}{:>8}",
        "span", "count", "total ms", "self ms", "self %"
    );
    for (name, t) in &by_name {
        let _ = writeln!(
            report,
            "  {:<34}{:>10.0}{:>12.2}{:>12.2}{:>7.1}%",
            name,
            t.count as f64 / n_reps,
            t.total_ns as f64 / 1e6 / n_reps,
            t.self_ns as f64 / 1e6 / n_reps,
            t.self_ns as f64 / rep_wall.max(1) as f64 * 100.0
        );
    }
    let _ = writeln!(report, "\n{:<44}{:>18} unit", "per-layer metric", "value");
    for (name, unit, _) in PER_LAYER {
        let _ = writeln!(report, "{:<44}{:>18.4} {}", name, layer[name], unit);
    }
    tally.render(&mut report);
    Some(Outcome {
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, layer[name], *unit))
            .collect(),
        attempted: tally.attempted,
        failed: tally.failed,
        report,
    })
}
