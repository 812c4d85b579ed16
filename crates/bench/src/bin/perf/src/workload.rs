//! What every workload has in common: the repetition result, the context
//! a repetition runs in, and the counters read off the serve layer's
//! public statistics.

use crate::drive::{DriveOutcome, Samples};
use crate::gen::Fnv;
use crate::trace::{StoreProbe, Trace};
use std::collections::BTreeMap;
use std::sync::Arc;
use tbm_obs::MetricsRegistry;
use tbm_serve::ServerStats;

/// The size of a serving workload. Each workload has one full-size shape
/// (the one the benchmark measures, recorded in the README) and its unit
/// tests run the same code on a small one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Catalog shards.
    pub shards: usize,
    /// Objects in the catalog (a multiple of `shards`).
    pub objects: usize,
    /// Elements per object.
    pub elements: usize,
    /// Sessions the script opens.
    pub sessions: u32,
}

/// Per-layer counters of one repetition, keyed by metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// How a repetition is to be run.
#[derive(Debug, Clone)]
pub struct RepCtx {
    /// Worker threads for parallel drives (1 = the driver thread only).
    pub workers: usize,
    /// The span recorder; disabled in the untraced run.
    pub trace: Trace,
    /// Where `TimedStore`s count, when the repetition is traced.
    pub probe: Option<Arc<StoreProbe>>,
}

impl RepCtx {
    /// An untraced repetition on `workers` threads.
    pub fn untraced(workers: usize) -> RepCtx {
        RepCtx {
            workers,
            trace: Trace::disabled(),
            probe: None,
        }
    }

    /// A traced single-worker repetition recording on `trace`.
    pub fn traced(trace: Trace) -> RepCtx {
        RepCtx {
            workers: 1,
            trace,
            probe: Some(Arc::default()),
        }
    }
}

/// What one repetition did and found.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Worker threads the repetition's drives ran on.
    pub workers: usize,
    /// Wall nanoseconds of the timed part (fixture cloning excluded).
    pub wall_ns: u64,
    /// Elements delivered.
    pub events: u64,
    /// The request side.
    pub drive: DriveOutcome,
    /// Elements due that were dropped or shed instead of delivered.
    pub dropped: u64,
    /// Simulated deadline misses.
    pub sim_misses: u64,
    /// p99 of simulated lateness over missed elements, microseconds.
    pub sim_lateness_p99_us: u64,
    /// FNV-1a of the deterministic outputs (stats, rendered metrics,
    /// reports): equal across repetitions and worker counts by contract.
    pub digest: u64,
    /// Per-layer counters read from public statistics.
    pub layer: Counters,
    /// What the repetition's timed write side ingested, for the workload
    /// whose repetitions ingest (`media_pipeline`).
    pub ingest: Option<Ingest>,
    /// Output checks that failed, in words.
    pub failures: Vec<String>,
}

impl Rep {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Ingest figures of a workload's set-up (or, for `media_pipeline`, of its
/// timed write side).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ingest {
    /// Uncompressed media bytes taken in.
    pub raw_bytes: u64,
    /// Bytes stored for them (BLOBs plus catalog where one is written).
    pub stored_bytes: u64,
    /// Wall nanoseconds spent capturing, encoding, indexing, persisting.
    pub wall_ns: u64,
}

impl Ingest {
    /// Raw megabytes taken in per wall second.
    pub fn mb_per_s(&self) -> f64 {
        self.raw_bytes as f64 / 1e6 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Stored bytes per raw byte.
    pub fn stored_per_raw(&self) -> f64 {
        self.stored_bytes as f64 / self.raw_bytes.max(1) as f64
    }
}

/// One benchmark workload: a fixture built from a seed, repetitions over
/// it, and a cross-check of its deterministic outputs.
pub trait Workload {
    /// Runs one repetition. Request latencies go to `samples` when given.
    fn rep(&self, ctx: &RepCtx, samples: Option<&mut Samples>) -> Rep;

    /// What set-up ingested.
    fn ingest(&self) -> Ingest;

    /// Digest of everything the seed decided (the request script, the
    /// fault instants, the edit list): same seed, same digest.
    fn script_digest(&self) -> u64;

    /// The extra, untimed verification repetition, checked against a timed
    /// one: a second worker count for the sharded servers, the lossless
    /// telemetry replay for the fleet. Returns it with its failed checks.
    fn verify(&self, reference: &Rep) -> Option<Rep>;
}

/// Folds the serve layer's public statistics into `rep`: the event and
/// drop counts, the simulated-deadline figures, the per-layer counters and
/// the fault-partition check every serving workload shares.
pub fn absorb_serve_stats(rep: &mut Rep, global: &ServerStats, metrics: &MetricsRegistry) {
    rep.events = global.elements_served as u64;
    rep.dropped = global.dropped_elements as u64;
    rep.sim_misses = global.deadline_misses as u64;
    rep.sim_lateness_p99_us = if global.lateness.count() == 0 {
        0
    } else {
        global.lateness.quantile(99)
    };
    let events = rep.events.max(1) as f64;
    let l = &mut rep.layer;
    l.insert(
        "serve.batches_per_event",
        metrics.counter("serve.batches") as f64 / events,
    );
    l.insert("serve.sessions.rejected", global.rejected as f64);
    l.insert(
        "serve.sessions.admitted_degraded",
        global.admitted_degraded as f64,
    );
    l.insert("serve.sessions.upgraded", global.upgraded_sessions as f64);
    l.insert("serve.cache.hit_share", global.cache.hit_rate());
    l.insert("serve.cache.evictions", global.cache.evictions as f64);
    l.insert("serve.sim.miss_share", rep.sim_misses as f64 / events);
    l.insert("serve.sim.lateness_p99_us", rep.sim_lateness_p99_us as f64);
    l.insert("serve.sim.dropped_share", rep.dropped as f64 / events);
    l.insert(
        "serve.sim.refused_share",
        rep.drive.refused as f64 / rep.drive.opens.max(1) as f64,
    );
    let partition = global.degraded_elements + global.dropped_elements + global.repaired_elements;
    rep.check(global.faults_detected == partition, || {
        format!(
            "fault partition broken: {} faults != {} degraded + {} dropped + {} repaired",
            global.faults_detected,
            global.degraded_elements,
            global.dropped_elements,
            global.repaired_elements
        )
    });
    rep.check(
        global.service.count() == global.elements_served as u64,
        || {
            format!(
                "{} elements served but {} service times recorded",
                global.elements_served,
                global.service.count()
            )
        },
    );
}

/// The digest of a repetition's deterministic text outputs.
pub fn digest_of(parts: &[&str]) -> u64 {
    let mut h = Fnv::default();
    for part in parts {
        h.write(part.as_bytes());
        h.write(&[0]);
    }
    h.finish()
}

/// Runs one repetition of `workload` on `min(2, nproc)` workers and checks
/// it against `reference`, a repetition on one: the determinism contract
/// says the worker count changes how fast, never what.
pub fn verify_on_second_worker_count(
    workload: &(impl Workload + ?Sized),
    reference: &Rep,
) -> Option<Rep> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut other = workload.rep(&RepCtx::untraced(workers), None);
    check_same_outputs(&mut other, reference, &format!("{workers} workers vs 1"));
    other.workers = workers;
    Some(other)
}

/// Checks `other` against `reference`: same digest, same counts.
fn check_same_outputs(other: &mut Rep, reference: &Rep, what: &str) {
    let (d, e) = (other.digest, other.events);
    other.check(d == reference.digest, || {
        format!(
            "{what}: outputs differ (digest {d:016x} vs {:016x})",
            reference.digest
        )
    });
    other.check(e == reference.events, || {
        format!("{what}: {e} events vs {}", reference.events)
    });
}
