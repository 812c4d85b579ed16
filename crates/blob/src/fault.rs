//! Deterministic fault injection and retry for BLOB reads.
//!
//! The paper's interpretation machinery assumes BLOB bytes arrive intact; a
//! production store does not get that luxury. [`FaultyBlobStore`] wraps any
//! [`BlobStore`] and injects a *seeded, reproducible* plan of read faults:
//!
//! * **transient errors** — a read fails with `ErrorKind::Interrupted` for
//!   the first few attempts, then succeeds (models bus resets, NFS hiccups);
//! * **bit-flip corruption** — a read succeeds but one bit of the returned
//!   buffer is flipped, *silently* (models media rot; only a checksum at the
//!   interpretation layer can catch it);
//! * **truncated reads** — every attempt fails with
//!   `ErrorKind::UnexpectedEof` after a partial fill (models a lost extent;
//!   retries cannot help, only degradation can);
//! * **latency** — a read succeeds but accrues a cost hint, drained via
//!   [`FaultyBlobStore::drain_cost_hint_us`], that playback simulation adds
//!   to the element's service time.
//!
//! Whether a given `(blob, span)` is faulty is a pure function of the plan's
//! seed, so the same seed always produces the same fault storm — the
//! property the acceptance criteria (and any bug report) depend on.
//!
//! [`RetryPolicy`] is the consumer-side half: bounded retries with an
//! exponential backoff *budget*, retrying only errors classified transient.

use crate::{BlobError, BlobStore, ByteSpan};
use std::cell::Cell;
use tbm_core::BlobId;
use tbm_obs::{Category, Tracer};

/// A seeded, reproducible plan of read faults.
///
/// Rates are probabilities in `[0, 1]` evaluated independently per
/// `(blob, span)` read address. The default plan (any seed, all rates zero)
/// injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every fault decision is derived.
    pub seed: u64,
    /// Probability a read address suffers transient errors before succeeding.
    pub transient_rate: f64,
    /// Upper bound on consecutive transient failures of one read address.
    pub max_transient_attempts: u32,
    /// Probability a read address returns silently corrupted bytes.
    pub corrupt_rate: f64,
    /// Probability a read address is truncated (every attempt fails).
    pub truncate_rate: f64,
    /// Probability a read accrues an added-latency cost hint.
    pub latency_rate: f64,
    /// Cost hint per latency event, in microseconds.
    pub latency_us: u64,
}

impl FaultPlan {
    /// A plan with the given seed and no faults; enable classes with the
    /// builder methods.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            max_transient_attempts: 2,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            latency_rate: 0.0,
            latency_us: 500,
        }
    }

    /// Enables transient read errors at `rate`.
    pub fn with_transient(mut self, rate: f64) -> FaultPlan {
        self.transient_rate = rate;
        self
    }

    /// Enables silent bit-flip corruption at `rate`.
    pub fn with_corruption(mut self, rate: f64) -> FaultPlan {
        self.corrupt_rate = rate;
        self
    }

    /// Enables truncated (unrecoverable) reads at `rate`.
    pub fn with_truncation(mut self, rate: f64) -> FaultPlan {
        self.truncate_rate = rate;
        self
    }

    /// Enables added latency at `rate`, `us` microseconds per event.
    pub fn with_latency(mut self, rate: f64, us: u64) -> FaultPlan {
        self.latency_rate = rate;
        self.latency_us = us;
        self
    }
}

/// Counts of injected faults, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total read attempts observed.
    pub reads: u64,
    /// Read attempts failed with a transient error.
    pub transient_errors: u64,
    /// Reads that returned silently corrupted bytes.
    pub corrupted_reads: u64,
    /// Read attempts failed with a truncation error.
    pub truncated_reads: u64,
    /// Reads that accrued an added-latency cost hint.
    pub latency_events: u64,
}

/// A [`BlobStore`] decorator injecting the faults of a [`FaultPlan`].
///
/// Writes pass through unchanged; only the read path is faulty. The decorator
/// needs no interior store state — all fault decisions derive from the plan's
/// seed and the read address — so wrapping a store never changes its bytes.
#[derive(Debug)]
pub struct FaultyBlobStore<S: BlobStore> {
    inner: S,
    plan: FaultPlan,
    reads: Cell<u64>,
    transient_errors: Cell<u64>,
    corrupted_reads: Cell<u64>,
    truncated_reads: Cell<u64>,
    latency_events: Cell<u64>,
    cost_hint_us: Cell<u64>,
    tracer: Tracer,
}

/// Distinct hash streams per fault class, so e.g. transience and corruption
/// of the same span are independent coin flips.
const TAG_TRANSIENT: u64 = 1;
const TAG_TRANSIENT_COUNT: u64 = 2;
const TAG_CORRUPT: u64 = 3;
const TAG_CORRUPT_POS: u64 = 4;
const TAG_TRUNCATE: u64 = 5;
const TAG_LATENCY: u64 = 6;

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl<S: BlobStore> FaultyBlobStore<S> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultyBlobStore<S> {
        FaultyBlobStore {
            inner,
            plan,
            reads: Cell::new(0),
            transient_errors: Cell::new(0),
            corrupted_reads: Cell::new(0),
            truncated_reads: Cell::new(0),
            latency_events: Cell::new(0),
            cost_hint_us: Cell::new(0),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer: every injected fault becomes an instant event in
    /// the shared timeline, stamped with the tracer's current simulated
    /// "now" (the driver advances it via [`Tracer::set_now`]).
    pub fn with_tracer(mut self, tracer: Tracer) -> FaultyBlobStore<S> {
        self.tracer = tracer;
        self
    }

    /// The attached tracer (disabled unless set).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps, returning the inner store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counts of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            reads: self.reads.get(),
            transient_errors: self.transient_errors.get(),
            corrupted_reads: self.corrupted_reads.get(),
            truncated_reads: self.truncated_reads.get(),
            latency_events: self.latency_events.get(),
        }
    }

    /// Attempt counters are per read address, derived from a decision hash —
    /// the `attempt` parameter lets transient faults clear after N tries.
    fn hash(&self, blob: BlobId, span: ByteSpan, tag: u64) -> u64 {
        let mut h = splitmix64(self.plan.seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        h = splitmix64(h ^ blob.raw());
        h = splitmix64(h ^ span.offset);
        splitmix64(h ^ span.len)
    }

    fn unit(&self, blob: BlobId, span: ByteSpan, tag: u64) -> f64 {
        (self.hash(blob, span, tag) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// How many leading attempts at this address fail transiently (0 = none).
    fn transient_failures(&self, blob: BlobId, span: ByteSpan) -> u32 {
        if self.unit(blob, span, TAG_TRANSIENT) >= self.plan.transient_rate {
            return 0;
        }
        let max = self.plan.max_transient_attempts.max(1) as u64;
        1 + (self.hash(blob, span, TAG_TRANSIENT_COUNT) % max) as u32
    }

    fn is_truncated(&self, blob: BlobId, span: ByteSpan) -> bool {
        span.len > 0 && self.unit(blob, span, TAG_TRUNCATE) < self.plan.truncate_rate
    }

    fn is_corrupted(&self, blob: BlobId, span: ByteSpan) -> bool {
        span.len > 0 && self.unit(blob, span, TAG_CORRUPT) < self.plan.corrupt_rate
    }

    /// The faulty read path; [`BlobStore::read_into`] is attempt 0,
    /// [`BlobStore::read_into_attempt`] passes the retry loop's counter so
    /// transient faults can clear.
    fn faulty_read(
        &self,
        blob: BlobId,
        span: ByteSpan,
        buf: &mut [u8],
        attempt: u32,
    ) -> Result<(), BlobError> {
        self.reads.set(self.reads.get() + 1);

        if self.plan.latency_rate > 0.0
            && self.unit(blob, span, TAG_LATENCY) < self.plan.latency_rate
        {
            self.latency_events.set(self.latency_events.get() + 1);
            self.cost_hint_us
                .set(self.cost_hint_us.get() + self.plan.latency_us);
            self.tracer.event_now(
                "fault.latency",
                Category::Fault,
                vec![
                    ("blob", blob.raw().into()),
                    ("offset", span.offset.into()),
                    ("latency_us", self.plan.latency_us.into()),
                ],
            );
        }

        if self.is_truncated(blob, span) {
            // Permanent: the tail of the span is unreadable on every attempt.
            let keep = (self.hash(blob, span, TAG_TRUNCATE) % span.len.max(1)) as usize;
            let partial = ByteSpan::new(span.offset, keep as u64);
            self.inner.read_into(blob, partial, &mut buf[..keep])?;
            self.truncated_reads.set(self.truncated_reads.get() + 1);
            self.tracer.event_now(
                "fault.truncation",
                Category::Fault,
                vec![
                    ("blob", blob.raw().into()),
                    ("offset", span.offset.into()),
                    ("kept", keep.into()),
                    ("wanted", span.len.into()),
                ],
            );
            return Err(BlobError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "injected truncation of {blob} at {}+{}",
                    span.offset, span.len
                ),
            )));
        }

        if attempt < self.transient_failures(blob, span) {
            self.transient_errors.set(self.transient_errors.get() + 1);
            self.tracer.event_now(
                "fault.transient",
                Category::Fault,
                vec![
                    ("blob", blob.raw().into()),
                    ("offset", span.offset.into()),
                    ("attempt", attempt.into()),
                ],
            );
            return Err(BlobError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!(
                    "injected transient error on {blob} at {}+{}",
                    span.offset, span.len
                ),
            )));
        }

        self.inner.read_into(blob, span, buf)?;

        if self.is_corrupted(blob, span) {
            // Permanent, silent: same bit flips on every attempt.
            let pos = self.hash(blob, span, TAG_CORRUPT_POS);
            let byte = (pos % span.len) as usize;
            let bit = ((pos >> 32) % 8) as u32;
            buf[byte] ^= 1 << bit;
            self.corrupted_reads.set(self.corrupted_reads.get() + 1);
            self.tracer.event_now(
                "fault.corruption",
                Category::Fault,
                vec![
                    ("blob", blob.raw().into()),
                    ("offset", span.offset.into()),
                    ("byte", byte.into()),
                    ("bit", bit.into()),
                ],
            );
        }
        Ok(())
    }
}

impl<S: BlobStore> BlobStore for FaultyBlobStore<S> {
    fn create(&mut self) -> Result<BlobId, BlobError> {
        self.inner.create()
    }

    fn append(&mut self, blob: BlobId, data: &[u8]) -> Result<ByteSpan, BlobError> {
        self.inner.append(blob, data)
    }

    fn read_into(&self, blob: BlobId, span: ByteSpan, buf: &mut [u8]) -> Result<(), BlobError> {
        self.faulty_read(blob, span, buf, 0)
    }

    fn read_into_attempt(
        &self,
        blob: BlobId,
        span: ByteSpan,
        buf: &mut [u8],
        attempt: u32,
    ) -> Result<(), BlobError> {
        self.faulty_read(blob, span, buf, attempt)
    }

    fn drain_cost_hint_us(&self) -> u64 {
        self.cost_hint_us.replace(0)
    }

    fn len(&self, blob: BlobId) -> Result<u64, BlobError> {
        self.inner.len(blob)
    }

    fn contains(&self, blob: BlobId) -> bool {
        self.inner.contains(blob)
    }

    fn blob_ids(&self) -> Vec<BlobId> {
        self.inner.blob_ids()
    }
}

/// Whether an error is worth retrying (transient I/O) or final.
pub fn is_transient(err: &BlobError) -> bool {
    match err {
        BlobError::Io(e) => matches!(
            e.kind(),
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
        ),
        _ => false,
    }
}

/// Bounded retries with an exponential backoff budget.
///
/// The policy never sleeps — this workspace simulates time — but it accounts
/// the backoff it *would* have spent, so playback can charge it as lateness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = try once).
    pub max_retries: u32,
    /// Backoff before the first retry, in microseconds; doubles per retry.
    pub base_backoff_us: u64,
    /// Total backoff budget in microseconds; retries stop when exceeded.
    pub backoff_budget_us: u64,
    /// Seed for deterministic backoff jitter; `None` disables jitter.
    ///
    /// With a seed, each backoff step is scaled into `[50%, 100%]` of its
    /// nominal value by a pure function of `(seed, attempt)`, so retry
    /// storms de-synchronize *and* same-seed runs stay byte-identical.
    pub jitter_seed: Option<u64>,
}

impl RetryPolicy {
    /// A policy with `max_retries` retries, 200µs base backoff, a 50ms
    /// total budget and no jitter.
    pub const fn new(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_backoff_us: 200,
            backoff_budget_us: 50_000,
            jitter_seed: None,
        }
    }

    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_backoff_us: 0,
            backoff_budget_us: 0,
            jitter_seed: None,
        }
    }

    /// Enables seeded-deterministic backoff jitter. Derive `seed` from the
    /// session or fault-plan seed so reproducibility survives retry storms.
    pub fn with_jitter(mut self, seed: u64) -> RetryPolicy {
        self.jitter_seed = Some(seed);
        self
    }

    /// The backoff actually charged for retry number `attempt` given a
    /// nominal (doubled) backoff: the nominal value without jitter, or a
    /// seed-deterministic value in `[nominal/2, nominal]` with it.
    fn jittered(&self, nominal: u64, attempt: u32) -> u64 {
        match self.jitter_seed {
            None => nominal,
            Some(seed) => {
                let half = nominal / 2;
                let spread = nominal - half;
                if spread == 0 {
                    return nominal;
                }
                let h = splitmix64(splitmix64(seed) ^ u64::from(attempt + 1));
                half + h % (spread + 1)
            }
        }
    }
}

/// What a [`RetryPolicy::run`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryReport {
    /// Attempts made (≥ 1).
    pub attempts: u32,
    /// Backoff accounted across all retries, in microseconds.
    pub backoff_spent_us: u64,
}

impl RetryPolicy {
    /// Runs `op` (which receives the attempt number) until it succeeds, hits
    /// a non-transient error, or exhausts the retry/backoff budget.
    pub fn run<T>(
        &self,
        mut op: impl FnMut(u32) -> Result<T, BlobError>,
    ) -> (Result<T, BlobError>, RetryReport) {
        let mut report = RetryReport::default();
        let mut backoff = self.base_backoff_us;
        let mut attempt = 0u32;
        loop {
            report.attempts = attempt + 1;
            match op(attempt) {
                Ok(v) => return (Ok(v), report),
                Err(e) => {
                    let step = self.jittered(backoff, attempt);
                    let out_of_budget = report.backoff_spent_us + step > self.backoff_budget_us;
                    if attempt >= self.max_retries || !is_transient(&e) || out_of_budget {
                        return (Err(e), report);
                    }
                    report.backoff_spent_us += step;
                    backoff = backoff.saturating_mul(2);
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemBlobStore;

    fn seeded_store(plan: FaultPlan) -> (FaultyBlobStore<MemBlobStore>, BlobId, Vec<ByteSpan>) {
        let mut inner = MemBlobStore::new();
        let blob = inner.create().unwrap();
        let mut spans = Vec::new();
        for i in 0..200u32 {
            let data = vec![i as u8; 64];
            spans.push(inner.append(blob, &data).unwrap());
        }
        (FaultyBlobStore::new(inner, plan), blob, spans)
    }

    #[test]
    fn zero_rate_plan_is_transparent() {
        let (store, blob, spans) = seeded_store(FaultPlan::new(7));
        for (i, span) in spans.iter().enumerate() {
            assert_eq!(store.read(blob, *span).unwrap(), vec![i as u8; 64]);
        }
        let stats = store.stats();
        assert_eq!(stats.reads, 200);
        assert_eq!(stats.transient_errors, 0);
        assert_eq!(stats.corrupted_reads, 0);
        assert_eq!(stats.truncated_reads, 0);
    }

    #[test]
    fn same_seed_reproduces_identical_faults() {
        let plan = FaultPlan::new(42)
            .with_transient(0.2)
            .with_corruption(0.1)
            .with_truncation(0.05);
        let run = || {
            let (store, blob, spans) = seeded_store(plan);
            let outcomes: Vec<_> = spans
                .iter()
                .map(|s| match store.read(blob, *s) {
                    Ok(v) => format!("ok:{:x}", tbm_core::crc32(&v)),
                    Err(e) => format!("err:{e}"),
                })
                .collect();
            (outcomes, store.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let (store, blob, spans) = seeded_store(FaultPlan::new(seed).with_corruption(0.3));
            spans
                .iter()
                .map(|s| store.read(blob, *s).unwrap())
                .collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn transient_faults_clear_after_retries() {
        let plan = FaultPlan::new(99).with_transient(1.0); // every span transient
        let (store, blob, spans) = seeded_store(plan);
        let policy = RetryPolicy::new(4);
        for (i, span) in spans.iter().enumerate() {
            let (result, report) = policy.run(|attempt| {
                let mut buf = vec![0u8; span.len as usize];
                store
                    .read_into_attempt(blob, *span, &mut buf, attempt)
                    .map(|()| buf)
            });
            let buf = result.expect("retries should clear transient faults");
            assert_eq!(buf, vec![i as u8; 64]);
            assert!(report.attempts >= 2, "span {i} should have needed a retry");
            assert!(report.backoff_spent_us > 0);
        }
        assert!(store.stats().transient_errors > 0);
    }

    #[test]
    fn truncation_is_permanent_and_not_retried_past_budget() {
        let plan = FaultPlan::new(5).with_truncation(1.0);
        let (store, blob, spans) = seeded_store(plan);
        let policy = RetryPolicy::new(3);
        let span = spans[0];
        let (result, report) = policy.run(|attempt| {
            let mut buf = vec![0u8; span.len as usize];
            store
                .read_into_attempt(blob, span, &mut buf, attempt)
                .map(|()| buf)
        });
        assert!(result.is_err());
        // UnexpectedEof is not transient: no retries wasted.
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn corruption_is_silent_and_stable() {
        let plan = FaultPlan::new(1234).with_corruption(1.0);
        let (store, blob, spans) = seeded_store(plan);
        let clean = vec![0u8; 64];
        let read1 = store.read(blob, spans[0]).unwrap();
        let read2 = store.read(blob, spans[0]).unwrap();
        assert_ne!(read1, clean, "corruption must alter the bytes");
        assert_eq!(read1, read2, "the same span corrupts the same way");
        // Exactly one bit differs.
        let flipped: u32 = read1
            .iter()
            .zip(&clean)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn latency_accrues_cost_hint() {
        let plan = FaultPlan::new(8).with_latency(1.0, 750);
        let (store, blob, spans) = seeded_store(plan);
        store.read(blob, spans[0]).unwrap();
        store.read(blob, spans[1]).unwrap();
        assert_eq!(store.drain_cost_hint_us(), 1500);
        assert_eq!(store.drain_cost_hint_us(), 0, "drain resets the hint");
        assert_eq!(store.stats().latency_events, 2);
    }

    #[test]
    fn retry_budget_bounds_backoff() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_backoff_us: 1000,
            backoff_budget_us: 2500,
            jitter_seed: None,
        };
        let (result, report) = policy.run(|_| -> Result<(), BlobError> {
            Err(BlobError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "always transient",
            )))
        });
        assert!(result.is_err());
        // 1000 + 2000 would exceed 2500 at the second retry.
        assert_eq!(report.attempts, 2);
        assert_eq!(report.backoff_spent_us, 1000);
    }

    #[test]
    fn jittered_backoff_is_seeded_deterministic_and_bounded() {
        let always_transient = |_: u32| -> Result<(), BlobError> {
            Err(BlobError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "always transient",
            )))
        };
        let run = |seed: u64| {
            let policy = RetryPolicy::new(5).with_jitter(seed);
            let (_, report) = policy.run(always_transient);
            report
        };
        // Same seed, same accounted backoff — byte-identical retry storms.
        assert_eq!(run(7), run(7));
        // Different seeds de-synchronize the storm.
        assert_ne!(run(7).backoff_spent_us, run(8).backoff_spent_us);
        // Every jittered step stays within [nominal/2, nominal].
        let policy = RetryPolicy::new(5).with_jitter(42);
        let nominal = RetryPolicy::new(5);
        let (_, jit) = policy.run(always_transient);
        let (_, nom) = nominal.run(always_transient);
        assert_eq!(jit.attempts, nom.attempts);
        assert!(jit.backoff_spent_us <= nom.backoff_spent_us);
        assert!(jit.backoff_spent_us >= nom.backoff_spent_us / 2);
    }

    #[test]
    fn tracer_records_fault_events_at_simulated_now() {
        use tbm_obs::micros_of;
        let plan = FaultPlan::new(42)
            .with_transient(0.2)
            .with_corruption(0.1)
            .with_truncation(0.05)
            .with_latency(0.1, 500);
        let tracer = Tracer::new();
        let (store, blob, spans) = seeded_store(plan);
        let store = store.with_tracer(tracer.clone());
        assert!(store.tracer().is_enabled());
        for (i, span) in spans.iter().enumerate() {
            // The driver advances simulated time; faults stamp with it.
            tracer.set_now(tbm_time::TimePoint::ZERO + tbm_time::TimeDelta::from_millis(i as i64));
            let _ = store.read(blob, *span);
        }
        let snap = tracer.snapshot();
        let stats = store.stats();
        let count = |name: &str| snap.records.iter().filter(|r| r.name == name).count() as u64;
        assert_eq!(count("fault.transient"), stats.transient_errors);
        assert_eq!(count("fault.corruption"), stats.corrupted_reads);
        assert_eq!(count("fault.truncation"), stats.truncated_reads);
        assert_eq!(count("fault.latency"), stats.latency_events);
        assert!(!snap.records.is_empty(), "this seed must inject something");
        for rec in &snap.records {
            assert_eq!(rec.cat, tbm_obs::Category::Fault);
            assert!(micros_of(rec.start) >= 0);
        }
    }

    #[test]
    fn writes_pass_through() {
        let plan = FaultPlan::new(3).with_corruption(1.0).with_transient(1.0);
        let mut store = FaultyBlobStore::new(MemBlobStore::new(), plan);
        let blob = store.create().unwrap();
        let span = store.append(blob, b"pristine").unwrap();
        assert_eq!(store.inner().read(blob, span).unwrap(), b"pristine");
        assert_eq!(store.len(blob).unwrap(), 8);
        assert!(store.contains(blob));
        assert_eq!(store.blob_ids().len(), 1);
    }
}
