//! Graceful degradation: playing a stream through a faulty store.
//!
//! The paper's real-time constraints are soft — "divergences … can be
//! tolerated" — and real streaming systems exploit exactly that: when an
//! element cannot be fetched intact and on time, *something* is presented
//! anyway. [`ResilientPlayer`] closes the loop between the fault-injection
//! layer (`tbm_blob::FaultyBlobStore`), the checksum layer
//! (`StreamInterp::verify_element`-style per-layer CRCs) and the playback
//! simulator:
//!
//! 1. each element is read through a [`RetryPolicy`] — transient I/O errors
//!    are retried with backoff, which is charged to the pipeline as a
//!    service-time penalty, never hidden;
//! 2. the bytes are verified against the interpretation's per-layer
//!    checksums — silent corruption is *detected* here, not downstream in a
//!    codec panic;
//! 3. a fault that survives retries walks the [`DegradationPolicy`] ladder:
//!    drop scalable enhancement layers (§2.2 — "bandwidth can be saved …
//!    by ignoring parts of the storage unit"), repeat the last good
//!    element, or skip.
//!
//! Every element's fate is recorded in an [`ElementFate`] and aggregated
//! into [`PlaybackStats`]' `recovered`/`degraded`/`dropped` counts, so a
//! fault storm is fully accounted for, deterministically.
//!
//! Steps 1–3 exist once, here: [`fetch_layer`] (retried read + checksum),
//! [`LayerFetch::retry_bytes`] (the price of its retries),
//! [`ElementFate::decide`] (the ladder) and [`ElementFate::label`] are what
//! `tbm-serve`'s event loop calls per element too.

use crate::{schedule_from_interp, ElementJob, PlaybackSim, PlaybackStats};
use tbm_blob::{BlobStore, ByteSpan, ReadCtx, RetryPolicy};
use tbm_core::{crc32, BlobId};
use tbm_interp::StreamInterp;
use tbm_obs::{Category, SpanId, Tracer};
use tbm_time::TimeDelta;

/// What to present when an element cannot be fetched intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Present the last good element again (a freeze-frame). Falls back to
    /// dropping when no good element has been presented yet.
    RepeatLast,
    /// Present nothing for this element (a skip).
    Skip,
    /// For layered elements, fall back to the verified base layers — the
    /// scalable-stream degradation of §2.2. Unlayered elements (or a corrupt
    /// base layer) fall back to [`DegradationPolicy::RepeatLast`].
    DropLayers,
}

/// How one element fared during resilient playback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ElementFate {
    /// Fetched and verified on the first attempt.
    #[default]
    Intact,
    /// Fetched intact after `attempts` tries (> 1).
    Recovered {
        /// Total read attempts, including the successful one.
        attempts: u32,
    },
    /// Presented with only the first `layers` placement layers.
    BaseLayers {
        /// Verified layers presented.
        layers: usize,
    },
    /// The previous good element was presented in its place.
    Repeated,
    /// Nothing was presented.
    Dropped,
}

impl ElementFate {
    /// The ladder: what becomes of an element of `layers` placement layers
    /// whose first `intact_layers` came back verified after at most
    /// `attempts_max` read attempts per layer, given whether an earlier
    /// element of the stream was presented fresh (`have_good`). This is
    /// the one place the decision is made — [`ResilientPlayer`] and
    /// `tbm-serve`'s `Server` both call it.
    pub fn decide(
        policy: DegradationPolicy,
        intact_layers: usize,
        layers: usize,
        attempts_max: u32,
        have_good: bool,
    ) -> ElementFate {
        if intact_layers == layers {
            return if attempts_max > 1 {
                ElementFate::Recovered {
                    attempts: attempts_max,
                }
            } else {
                ElementFate::Intact
            };
        }
        match policy {
            DegradationPolicy::DropLayers if intact_layers > 0 => ElementFate::BaseLayers {
                layers: intact_layers,
            },
            DegradationPolicy::DropLayers | DegradationPolicy::RepeatLast if have_good => {
                ElementFate::Repeated
            }
            _ => ElementFate::Dropped,
        }
    }

    /// The fate's name in traces (`fate` attributes, `degrade` events).
    pub fn label(&self) -> &'static str {
        match self {
            ElementFate::Intact => "intact",
            ElementFate::Recovered { .. } => "recovered",
            ElementFate::BaseLayers { .. } => "base-layers",
            ElementFate::Repeated => "repeated",
            ElementFate::Dropped => "dropped",
        }
    }

    /// Whether freshly verified data was presented — what makes the
    /// element repeatable by a later [`ElementFate::Repeated`].
    pub fn presents_fresh(&self) -> bool {
        matches!(
            self,
            ElementFate::Intact | ElementFate::Recovered { .. } | ElementFate::BaseLayers { .. }
        )
    }
}

/// One placement layer read through a [`RetryPolicy`] and verified — what
/// [`fetch_layer`] returns.
#[derive(Debug)]
pub struct LayerFetch {
    /// The verified bytes; `None` when the read failed for good or the
    /// bytes did not match the checksum.
    pub bytes: Option<Vec<u8>>,
    /// Read attempts made, including the last one.
    pub attempts: u32,
    /// Backoff spent between attempts, in microseconds.
    pub backoff_us: u64,
}

impl LayerFetch {
    /// The retry price of the layer at `span`: its bytes re-read once per
    /// attempt after the first (DESIGN §6).
    pub fn retry_bytes(&self, span: ByteSpan) -> u64 {
        span.len * u64::from(self.attempts.saturating_sub(1))
    }
}

/// Reads one placement layer, retrying transient errors under `retry`, and
/// verifies it against `checksum` (no checksum recorded: the read is
/// trusted). `slack_us` is the store's hedging budget — the time left
/// before the element is late, if the caller knows it.
pub fn fetch_layer<S: BlobStore + ?Sized>(
    store: &S,
    retry: &RetryPolicy,
    blob: BlobId,
    span: ByteSpan,
    checksum: Option<u32>,
    slack_us: Option<u64>,
) -> LayerFetch {
    let (result, report) = retry.run(|attempt| {
        let mut buf = vec![0u8; span.len as usize];
        let ctx = ReadCtx {
            attempt,
            deadline_slack_us: slack_us,
            expected_crc: checksum,
        };
        store
            .read_into_ctx(blob, span, &mut buf, &ctx)
            .map(|()| buf)
    });
    LayerFetch {
        bytes: result
            .ok()
            .filter(|bytes| checksum.is_none_or(|sum| crc32(bytes) == sum)),
        attempts: report.attempts,
        backoff_us: report.backoff_spent_us,
    }
}

/// Outcome of [`ResilientPlayer::play`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientReport {
    /// Pipeline timing statistics, with `recovered`/`degraded`/`dropped`
    /// filled in from the fates.
    pub stats: PlaybackStats,
    /// Per-element fates, in schedule order.
    pub fates: Vec<ElementFate>,
    /// Faults detected (checksum mismatches + exhausted retries). Every
    /// injected non-latency fault on a scheduled span shows up here or as a
    /// retry inside a `Recovered` fate.
    pub faults_detected: usize,
    /// Elements whose reads triggered a cross-tier repair in the store
    /// (a tier failed verification and was healed from a verifying tier).
    /// Always zero over single-backend stores; repairs are invisible to the
    /// fates — the bytes presented were verified.
    pub repaired: usize,
}

impl ResilientReport {
    /// `true` when every element was presented intact on the first try.
    pub fn unscathed(&self) -> bool {
        self.fates.iter().all(|f| *f == ElementFate::Intact)
    }
}

/// Plays a stream through a (possibly faulty) store with retries, checksum
/// verification and graceful degradation.
#[derive(Debug, Clone, Copy)]
pub struct ResilientPlayer {
    /// The timing simulator.
    pub sim: PlaybackSim,
    /// Retry policy for transient read errors.
    pub retry: RetryPolicy,
    /// What to do when retries and checksums cannot save an element.
    pub policy: DegradationPolicy,
}

impl ResilientPlayer {
    /// A player with the given simulator, 3 retries and the
    /// [`DegradationPolicy::DropLayers`] ladder.
    pub fn new(sim: PlaybackSim) -> ResilientPlayer {
        ResilientPlayer {
            sim,
            retry: RetryPolicy::new(3),
            policy: DegradationPolicy::DropLayers,
        }
    }

    /// Builder: sets the degradation policy.
    pub fn with_policy(mut self, policy: DegradationPolicy) -> ResilientPlayer {
        self.policy = policy;
        self
    }

    /// Plays `stream` out of `blob` in `store`, returning timing stats and
    /// per-element fates. Deterministic for a deterministic store: the same
    /// seeded fault plan yields the identical report.
    pub fn play<S: BlobStore + ?Sized>(
        &self,
        store: &S,
        blob: BlobId,
        stream: &StreamInterp,
    ) -> ResilientReport {
        self.play_traced(store, blob, stream, &Tracer::disabled())
    }

    /// [`ResilientPlayer::play`] with tracing: the pipeline's per-element
    /// spans and deadline misses go to `tracer` (see
    /// [`PlaybackSim::run_traced`]), and every degradation decision — a
    /// fate other than intact — becomes an instant `degrade` event stamped
    /// with the element's scheduled deadline. A disabled tracer makes this
    /// identical to the untraced run.
    pub fn play_traced<S: BlobStore + ?Sized>(
        &self,
        store: &S,
        blob: BlobId,
        stream: &StreamInterp,
        tracer: &Tracer,
    ) -> ResilientReport {
        store.drain_cost_hint_us(); // start from a clean hint accumulator
        store.drain_repairs();
        let schedule = schedule_from_interp(stream, None);
        let mut jobs: Vec<ElementJob> = Vec::with_capacity(schedule.len());
        let mut penalties: Vec<TimeDelta> = Vec::with_capacity(schedule.len());
        let mut fates: Vec<ElementFate> = Vec::with_capacity(schedule.len());
        let mut faults_detected = 0usize;
        let mut repaired = 0usize;
        let mut have_good = false;

        for job in &schedule {
            let entry = stream
                .entries()
                .get(job.index)
                .expect("schedule indexes the stream");
            let layers = entry.placement.layers();
            let sums = &entry.checksums;

            // Fetch every layer, stopping at the first bad one: the bytes
            // pulled off storage, retries' re-reads included.
            let mut bytes_read = 0u64;
            let mut backoff_us = 0u64;
            let mut attempts_max = 1u32;
            let mut intact_layers = 0usize;
            for (li, &span) in layers.iter().enumerate() {
                let f = fetch_layer(store, &self.retry, blob, span, sums.get(li).copied(), None);
                bytes_read += span.len + f.retry_bytes(span);
                backoff_us += f.backoff_us;
                attempts_max = attempts_max.max(f.attempts);
                if f.bytes.is_none() {
                    faults_detected += 1;
                    break;
                }
                intact_layers += 1;
            }

            let fate = ElementFate::decide(
                self.policy,
                intact_layers,
                layers.len(),
                attempts_max,
                have_good,
            );
            have_good |= fate.presents_fresh();
            if fate != ElementFate::Intact {
                tracer.event(
                    "degrade",
                    Category::Present,
                    job.deadline,
                    SpanId::NONE,
                    None,
                    vec![
                        ("index", job.index.into()),
                        ("fate", fate.label().into()),
                        ("attempts", attempts_max.into()),
                        ("backoff_us", backoff_us.into()),
                        ("intact_layers", intact_layers.into()),
                    ],
                );
            }

            // Service cost: the bytes read, plus backoff and any latency
            // hints as a penalty. A repeated element re-presents cached
            // bytes.
            jobs.push(ElementJob {
                bytes: bytes_read,
                ..*job
            });
            let hint_us = store.drain_cost_hint_us();
            if store.drain_repairs() > 0 {
                repaired += 1;
            }
            penalties.push(TimeDelta::from_micros((backoff_us + hint_us) as i64));
            fates.push(fate);
        }

        let mut stats = self.sim.run_traced(&jobs, &penalties, tracer, None);
        for fate in &fates {
            match fate {
                ElementFate::Intact => {}
                ElementFate::Recovered { .. } => stats.recovered += 1,
                ElementFate::BaseLayers { .. } | ElementFate::Repeated => stats.degraded += 1,
                ElementFate::Dropped => stats.dropped += 1,
            }
        }
        ResilientReport {
            stats,
            fates,
            faults_detected,
            repaired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;
    use tbm_blob::{FaultPlan, FaultyBlobStore, MemBlobStore};
    use tbm_core::{MediaDescriptor, MediaKind};
    use tbm_interp::ElementEntry;
    use tbm_time::TimeSystem;

    /// A 60-element intraframe stream with checksums, 2 kB per element.
    fn stream_and_store() -> (MemBlobStore, BlobId, StreamInterp) {
        let mut store = MemBlobStore::new();
        let blob = store.create().unwrap();
        let mut entries = Vec::new();
        for i in 0..60u32 {
            let data = vec![(i % 251) as u8; 2048];
            let span = store.append(blob, &data).unwrap();
            entries.push(
                ElementEntry::simple(i as i64, 1, span)
                    .with_checksums(vec![crc32(&data)])
                    .unwrap(),
            );
        }
        let si = StreamInterp::new(
            MediaDescriptor::new(MediaKind::Video),
            TimeSystem::PAL,
            entries,
        )
        .unwrap();
        (store, blob, si)
    }

    fn player() -> ResilientPlayer {
        ResilientPlayer::new(PlaybackSim::new(CostModel::bandwidth_only(10_000_000)))
    }

    #[test]
    fn decide_matches_the_policy_docs_everywhere() {
        use DegradationPolicy::{DropLayers, RepeatLast, Skip};
        for policy in [RepeatLast, Skip, DropLayers] {
            for layers in 1..=3usize {
                for intact in 0..=layers {
                    for attempts in [1u32, 3] {
                        for have_good in [false, true] {
                            // RepeatLast: "Present the last good element
                            // again ... Falls back to dropping when no good
                            // element has been presented yet."
                            let repeat_last = if have_good {
                                ElementFate::Repeated
                            } else {
                                ElementFate::Dropped
                            };
                            let want = match (policy, intact) {
                                // Every layer verified: the policy is never
                                // consulted; retries only rename the fate.
                                (_, n) if n == layers && attempts == 1 => ElementFate::Intact,
                                (_, n) if n == layers => ElementFate::Recovered { attempts },
                                // Skip: "Present nothing for this element."
                                (Skip, _) => ElementFate::Dropped,
                                (RepeatLast, _) => repeat_last,
                                // DropLayers: "fall back to the verified
                                // base layers ... Unlayered elements (or a
                                // corrupt base layer) fall back to
                                // RepeatLast."
                                (DropLayers, 0) => repeat_last,
                                (DropLayers, n) => ElementFate::BaseLayers { layers: n },
                            };
                            let got =
                                ElementFate::decide(policy, intact, layers, attempts, have_good);
                            assert_eq!(
                                got, want,
                                "{policy:?}, {intact}/{layers} intact, {attempts} attempts, \
                                 have_good {have_good}"
                            );
                            // Only a fate that presents verified bytes of
                            // *this* element makes it repeatable later.
                            assert_eq!(
                                got.presents_fresh(),
                                intact == layers || matches!(got, ElementFate::BaseLayers { .. })
                            );
                        }
                    }
                }
            }
        }
        let labels = [
            (ElementFate::Intact, "intact"),
            (ElementFate::Recovered { attempts: 2 }, "recovered"),
            (ElementFate::BaseLayers { layers: 1 }, "base-layers"),
            (ElementFate::Repeated, "repeated"),
            (ElementFate::Dropped, "dropped"),
        ];
        for (fate, label) in labels {
            assert_eq!(fate.label(), label);
        }
    }

    #[test]
    fn retry_price_is_each_layers_bytes_per_extra_attempt() {
        // A three-layer element (100 + 200 + 400 B) whose second layer took
        // three attempts.
        let layers = [(0, 100), (100, 200), (300, 400)].map(|(at, len)| ByteSpan::new(at, len));
        let fetches = [1, 3, 1].map(|attempts| LayerFetch {
            bytes: None,
            attempts,
            backoff_us: 0,
        });
        let price: u64 = fetches
            .iter()
            .zip(layers)
            .map(|(f, span)| f.retry_bytes(span))
            .sum();
        // Only the retried layer is re-read, once per extra attempt — not
        // the whole element once per extra attempt of its worst layer.
        assert_eq!(price, 2 * 200);
    }

    #[test]
    fn clean_store_plays_unscathed() {
        let (store, blob, si) = stream_and_store();
        let report = player().play(&store, blob, &si);
        assert!(report.unscathed());
        assert_eq!(report.faults_detected, 0);
        assert_eq!(report.stats.elements, 60);
        assert_eq!(
            (
                report.stats.recovered,
                report.stats.degraded,
                report.stats.dropped
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn transient_faults_recover_via_retries() {
        let (store, blob, si) = stream_and_store();
        let faulty = FaultyBlobStore::new(store, FaultPlan::new(21).with_transient(0.3));
        let report = player().play(&faulty, blob, &si);
        assert!(report.stats.recovered > 0, "{:?}", report.stats);
        assert_eq!(report.stats.dropped, 0);
        assert_eq!(report.stats.degraded, 0);
        // Retries hide the fault from presentation but not from the counts.
        assert!(faulty.stats().transient_errors > 0);
    }

    #[test]
    fn corruption_detected_and_repeated() {
        let (store, blob, si) = stream_and_store();
        let faulty = FaultyBlobStore::new(store, FaultPlan::new(5).with_corruption(0.15));
        let report = player()
            .with_policy(DegradationPolicy::RepeatLast)
            .play(&faulty, blob, &si);
        let injected = faulty.stats().corrupted_reads as usize;
        assert!(injected > 0);
        // No transient faults configured, so every corrupt span was read
        // exactly once and every corruption was caught by a checksum.
        assert_eq!(report.faults_detected, injected);
        assert_eq!(
            report.stats.degraded + report.stats.dropped,
            report.faults_detected
        );
        assert!(report
            .fates
            .iter()
            .any(|f| matches!(f, ElementFate::Repeated)));
    }

    #[test]
    fn skip_policy_drops() {
        let (store, blob, si) = stream_and_store();
        let faulty = FaultyBlobStore::new(store, FaultPlan::new(5).with_corruption(0.15));
        let report = player()
            .with_policy(DegradationPolicy::Skip)
            .play(&faulty, blob, &si);
        assert!(report.stats.dropped > 0);
        assert_eq!(report.stats.dropped, report.faults_detected);
    }

    #[test]
    fn layered_stream_degrades_to_base() {
        // Two-layer elements; corrupt only some enhancement layers by using
        // a low corruption rate — base layers that stay intact let
        // DropLayers present a verified base.
        let mut store = MemBlobStore::new();
        let blob = store.create().unwrap();
        let mut entries = Vec::new();
        for i in 0..60u32 {
            let base = vec![i as u8; 1024];
            let enh = vec![0xEEu8; 1024];
            let bspan = store.append(blob, &base).unwrap();
            let espan = store.append(blob, &enh).unwrap();
            entries.push(
                ElementEntry::simple(i as i64, 1, bspan)
                    .with_layers(vec![bspan, espan])
                    .unwrap()
                    .with_checksums(vec![crc32(&base), crc32(&enh)])
                    .unwrap(),
            );
        }
        let si = StreamInterp::new(
            MediaDescriptor::new(MediaKind::Video),
            TimeSystem::PAL,
            entries,
        )
        .unwrap();
        let faulty = FaultyBlobStore::new(store, FaultPlan::new(33).with_corruption(0.10));
        let report = player().play(&faulty, blob, &si);
        assert!(report.faults_detected > 0);
        let base_only = report
            .fates
            .iter()
            .filter(|f| matches!(f, ElementFate::BaseLayers { layers: 1 }))
            .count();
        assert!(base_only > 0, "{:?}", report.fates);
        assert!(report.stats.degraded >= base_only);
    }

    #[test]
    fn truncation_walks_the_ladder() {
        let (store, blob, si) = stream_and_store();
        let faulty = FaultyBlobStore::new(store, FaultPlan::new(77).with_truncation(0.1));
        let report = player().play(&faulty, blob, &si);
        // Unlayered elements with a truncated read: DropLayers falls back to
        // repeat-last.
        assert!(report.stats.degraded > 0, "{:?}", report.stats);
        assert_eq!(
            report.faults_detected,
            faulty.stats().truncated_reads as usize
        );
    }

    #[test]
    fn latency_hints_slow_the_pipeline() {
        let (store, blob, si) = stream_and_store();
        // Tight bandwidth so added latency turns into lateness: 2 kB per
        // 40 ms period needs 51.2 kB/s.
        let tight = ResilientPlayer::new(PlaybackSim::new(CostModel::bandwidth_only(51_200)));
        let clean = tight.play(&store, blob, &si);
        let faulty = FaultyBlobStore::new(store, FaultPlan::new(3).with_latency(1.0, 30_000));
        let slowed = tight.play(&faulty, blob, &si);
        assert!(slowed.stats.misses > clean.stats.misses);
        assert!(faulty.stats().latency_events > 0);
    }

    #[test]
    fn traced_play_records_degradation_decisions() {
        let (store, blob, si) = stream_and_store();
        let faulty = FaultyBlobStore::new(store, FaultPlan::new(5).with_corruption(0.15));
        let tracer = Tracer::new();
        let report = player()
            .with_policy(DegradationPolicy::RepeatLast)
            .play_traced(&faulty, blob, &si, &tracer);
        assert_eq!(
            report,
            player()
                .with_policy(DegradationPolicy::RepeatLast)
                .play(&faulty, blob, &si),
            "tracing must not change the outcome"
        );
        let snap = tracer.snapshot();
        let degrades: Vec<_> = snap
            .records
            .iter()
            .filter(|r| r.name == "degrade")
            .collect();
        assert_eq!(
            degrades.len(),
            report
                .fates
                .iter()
                .filter(|f| **f != ElementFate::Intact)
                .count()
        );
        assert!(degrades
            .iter()
            .any(|r| r.attr("fate").and_then(|v| v.as_str()) == Some("repeated")));
        let spans = snap
            .records
            .iter()
            .filter(|r| r.name == "player.element")
            .count();
        assert_eq!(spans, report.stats.elements);
    }

    #[test]
    fn same_seed_identical_report() {
        let plan = FaultPlan::new(4242)
            .with_transient(0.1)
            .with_corruption(0.05)
            .with_truncation(0.02)
            .with_latency(0.1, 500);
        let run = || {
            let (store, blob, si) = stream_and_store();
            let faulty = FaultyBlobStore::new(store, plan);
            player().play(&faulty, blob, &si)
        };
        assert_eq!(run(), run());
    }
}
