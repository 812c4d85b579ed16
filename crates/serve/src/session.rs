//! Sessions: per-client playback state inside the server, and the typed
//! request/response API that drives them.

use crate::AdmitDecision;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use tbm_blob::ByteSpan;
use tbm_core::{BlobId, SessionId};
use tbm_interp::StreamInterp;
use tbm_obs::SpanId;
use tbm_player::{demanded_rate, schedule_from_interp, ElementJob};
use tbm_time::{Rational, TimeDelta, TimePoint, TimeSystem};

/// The lifecycle of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted but not yet playing.
    Opened,
    /// Elements are being scheduled and served.
    Playing,
    /// Playback suspended; remaining elements resume on `Play`.
    Paused,
    /// Every scheduled element was served; capacity released.
    Finished,
    /// Closed by request; capacity released.
    Closed,
}

impl fmt::Display for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SessionState::Opened => "opened",
            SessionState::Playing => "playing",
            SessionState::Paused => "paused",
            SessionState::Finished => "finished",
            SessionState::Closed => "closed",
        })
    }
}

/// A request to the server, timestamped by the caller in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session on a catalog object (runs admission control).
    Open {
        /// Name of the media object to serve.
        object: String,
    },
    /// Start (or resume) playback.
    Play {
        /// The session to play.
        session: SessionId,
    },
    /// Suspend playback; unserved elements are kept for resumption.
    Pause {
        /// The session to pause.
        session: SessionId,
    },
    /// Reposition to the element active at `to` on the stream's own
    /// (unit-rate) timeline. Seeking backwards re-presents elements.
    Seek {
        /// The session to reposition.
        session: SessionId,
        /// Target position on the stream timeline.
        to: TimePoint,
    },
    /// Change the playback rate to `num/den` × normal speed for the
    /// remaining elements (re-checked against capacity).
    SetRate {
        /// The session to re-rate.
        session: SessionId,
        /// Rate numerator (must be non-zero).
        num: u32,
        /// Rate denominator (must be non-zero).
        den: u32,
    },
    /// Close the session and release its capacity.
    Close {
        /// The session to close.
        session: SessionId,
    },
}

/// The server's typed answer to a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Outcome of `Open`: the admission decision, and the session id when
    /// admitted.
    Opened {
        /// The new session (absent when rejected).
        session: Option<SessionId>,
        /// The admission decision.
        decision: AdmitDecision,
    },
    /// Playback (re)started.
    Playing {
        /// The session now playing.
        session: SessionId,
        /// Elements queued for service.
        queued: usize,
    },
    /// Playback suspended.
    Paused {
        /// The paused session.
        session: SessionId,
        /// Elements kept for resumption.
        remaining: usize,
    },
    /// Position changed.
    Sought {
        /// The repositioned session.
        session: SessionId,
        /// Elements now pending from the new position.
        remaining: usize,
    },
    /// Outcome of `SetRate`.
    RateSet {
        /// The session whose rate was requested to change.
        session: SessionId,
        /// `false` when the new rate would oversubscribe the server and
        /// admission is enforced; the old rate stays.
        accepted: bool,
    },
    /// Session closed; its final statistics.
    Closed {
        /// The closed session.
        session: SessionId,
        /// Its lifetime statistics.
        stats: SessionStats,
    },
}

/// Per-session delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionStats {
    /// Elements served (presented, possibly degraded).
    pub elements: usize,
    /// Elements served after their presentation deadline.
    pub misses: usize,
    /// Worst lateness observed.
    pub max_lateness: TimeDelta,
    /// Element-layer reads answered by the shared segment cache.
    pub cache_hits: u64,
    /// Element-layer reads that went to storage.
    pub cache_misses: u64,
    /// Elements recovered intact by retries.
    pub recovered: usize,
    /// Elements presented degraded (base layers or a repeated predecessor).
    pub degraded: usize,
    /// Elements not presented at all.
    pub dropped: usize,
    /// Elements presented intact after a cross-tier repair: a tier failed
    /// checksum verification mid-read and was healed from a verifying tier.
    pub repaired: usize,
}

impl SessionStats {
    /// Fraction of served elements that missed their deadline.
    pub fn miss_rate(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.misses as f64 / self.elements as f64
        }
    }
}

/// Everything a server derives from one catalog object at one fidelity:
/// the unit-rate schedule, every element's fetch plan (the placement spans
/// a session may read, capped at `layers_cap`, with their recorded
/// checksums) and the byte rate it commits.
///
/// Built on the first `Open` of the object and shared, immutably, by every
/// session playing it at this fidelity — a server's catalog cannot change
/// while the server owns it, so a plan is valid for the server's lifetime.
/// An upgrade or a forced degradation hands the session the object's other
/// plan; serving an element never needs the catalog.
#[derive(Debug)]
pub(crate) struct ObjectPlan {
    pub object: String,
    pub blob: BlobId,
    pub system: TimeSystem,
    /// Placement layers a session on this plan may fetch per element
    /// (`None` = full fidelity).
    pub layers_cap: Option<usize>,
    /// Unit-rate schedule relative to the stream start, in deadline order.
    pub jobs: Vec<ElementJob>,
    /// Every element's allowed spans and checksums, back to back.
    layers: Vec<(ByteSpan, Option<u32>)>,
    /// `layers[starts[pos]..starts[pos + 1]]` is the fetch plan of `pos`.
    starts: Vec<usize>,
    /// Bytes/s a session on this plan commits at unit rate.
    pub unit_demand: Rational,
}

impl ObjectPlan {
    pub(crate) fn build(
        object: &str,
        stream: &StreamInterp,
        blob: BlobId,
        layers_cap: Option<usize>,
    ) -> ObjectPlan {
        let jobs = schedule_from_interp(stream, layers_cap);
        debug_assert!(jobs.windows(2).all(|w| w[0].deadline <= w[1].deadline));
        let unit_demand = demanded_rate(&jobs, stream.system()).unwrap_or(Rational::ZERO);
        let mut layers = Vec::new();
        let mut starts = Vec::with_capacity(jobs.len() + 1);
        for job in &jobs {
            let entry = &stream.entries()[job.index];
            let all = entry.placement.layers();
            let take = layers_cap.unwrap_or(all.len()).min(all.len()).max(1);
            starts.push(layers.len());
            layers.extend(
                all[..take]
                    .iter()
                    .enumerate()
                    .map(|(li, &span)| (span, entry.checksums.get(li).copied())),
            );
        }
        starts.push(layers.len());
        ObjectPlan {
            object: object.to_owned(),
            blob,
            system: stream.system(),
            layers_cap,
            jobs,
            layers,
            starts,
            unit_demand,
        }
    }

    /// The spans (and checksums) element `pos` fetches.
    pub(crate) fn layers_of(&self, pos: usize) -> &[(ByteSpan, Option<u32>)] {
        &self.layers[self.starts[pos]..self.starts[pos + 1]]
    }

    /// The spans every element of `pending` fetches.
    pub(crate) fn spans_of(&self, pending: Range<usize>) -> impl Iterator<Item = ByteSpan> + '_ {
        self.layers[self.starts[pending.start]..self.starts[pending.end]]
            .iter()
            .map(|&(span, _)| span)
    }
}

/// One client's playback session inside a [`crate::Server`].
///
/// Sessions are created by `Open` requests and only ever mutated by the
/// server's event loop; callers observe them through the read accessors.
#[derive(Debug)]
pub struct Session {
    pub(crate) id: SessionId,
    pub(crate) state: SessionState,
    /// The object's schedule and fetch plans at this session's fidelity.
    /// Swapped for the object's other plan by an upgrade or a forced
    /// degradation; `plan.layers_cap` is the session's fidelity cap, and
    /// with it its standing admission decision.
    pub(crate) plan: Arc<ObjectPlan>,
    /// Positions in `plan.jobs` not yet served. Jobs are in deadline
    /// order and served in order, so what is left is always a contiguous
    /// run: serving advances the start, a seek resets it to a suffix.
    pub(crate) pending: Range<usize>,
    /// Bumped on every Play/Pause/Seek/SetRate/Close so queued jobs from an
    /// older schedule generation are ignored when popped.
    pub(crate) epoch: u64,
    /// Playback rate `num/den` × normal speed.
    pub(crate) rate: (u32, u32),
    /// Simulated time of the anchoring Play/Seek/SetRate.
    pub(crate) play_time: TimePoint,
    /// Scaled relative deadline (seconds) of the first pending element at
    /// the anchor.
    pub(crate) anchor_rel: Rational,
    /// Completion time of the first element served after the anchor; the
    /// presentation clock runs from here (a one-element startup buffer,
    /// matching `PlaybackSim::with_startup(1)`).
    pub(crate) clock_base: Option<TimePoint>,
    /// Bytes/s currently committed (the plan's unit demand × rate).
    pub(crate) demand: Rational,
    /// Bytes/s currently charged against the *storage* stage. Equal to
    /// `demand` unless cache-aware admission is on, in which case it is
    /// `demand` discounted by the fraction of the session's planned bytes
    /// resident in the segment cache — and it is repriced as residency
    /// shifts (see `Server::reprice_sessions`).
    pub(crate) charged: Rational,
    /// Whether any element was presented intact (for the repeat ladder).
    pub(crate) have_good: bool,
    pub(crate) stats: SessionStats,
    /// The session's root trace span ([`SpanId::NONE`] when untraced).
    pub(crate) span: SpanId,
    /// Completion time of this session's previously served element — the
    /// baseline for separating cross-session channel wait from the
    /// session's own pipeline backlog in miss attribution.
    pub(crate) last_ready: TimePoint,
    /// Lateness (µs) of this session's previously served element; bounds
    /// the `inherited_us` attribution component of the next element.
    pub(crate) last_lateness_us: i64,
}

impl Session {
    /// The session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The catalog object being served.
    pub fn object(&self) -> &str {
        &self.plan.object
    }

    /// The current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The admission decision the session stands under: the one it was
    /// created with, until an upgrade or a forced degradation changes its
    /// fidelity.
    pub fn decision(&self) -> AdmitDecision {
        match self.plan.layers_cap {
            None => AdmitDecision::Admitted,
            Some(layers) => AdmitDecision::Degraded { layers },
        }
    }

    /// The playback rate as `(num, den)` × normal speed.
    pub fn rate(&self) -> (u32, u32) {
        self.rate
    }

    /// The time system of the stream being served.
    pub fn system(&self) -> TimeSystem {
        self.plan.system
    }

    /// Bytes/s this session commits against the server's capacity.
    pub fn demand_bps(&self) -> Rational {
        self.demand
    }

    /// Bytes/s currently charged against the storage stage —
    /// [`Session::demand_bps`] discounted by segment-cache residency when
    /// cache-aware admission is on, identical to it otherwise.
    pub fn charged_bps(&self) -> Rational {
        self.charged
    }

    /// Statistics so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Elements not yet served.
    pub fn remaining(&self) -> usize {
        self.pending.len()
    }

    /// `true` while the session holds committed capacity.
    pub fn is_active(&self) -> bool {
        matches!(
            self.state,
            SessionState::Opened | SessionState::Playing | SessionState::Paused
        )
    }

    /// `true` while the session is degraded *and* has something left to
    /// play at better fidelity — what the upgrade pass looks for.
    pub(crate) fn is_capped_live(&self) -> bool {
        self.is_active() && self.plan.layers_cap.is_some() && !self.pending.is_empty()
    }

    /// How far past the anchor's first element `pos` is due, in seconds at
    /// the current playback rate.
    fn rel(&self, pos: usize) -> Rational {
        let (num, den) = self.rate;
        self.plan.jobs[pos].deadline.seconds() * Rational::new(den as i64, num as i64)
    }

    /// The absolute deadline `pos` is queued under: the anchor instant
    /// plus its distance from the anchor's first element. The same
    /// distance past the session's `clock_base` is its presentation
    /// deadline, so the serve path recovers it from the queued deadline.
    pub(crate) fn queued_deadline(&self, pos: usize) -> TimePoint {
        self.play_time + TimeDelta::from_seconds(self.rel(pos) - self.anchor_rel)
    }

    /// Re-anchors the schedule at `at` from the current first pending
    /// element, restarting the presentation clock.
    pub(crate) fn anchor(&mut self, at: TimePoint) {
        self.play_time = at;
        self.anchor_rel = if self.pending.is_empty() {
            Rational::ZERO
        } else {
            self.rel(self.pending.start)
        };
        self.clock_base = None;
        self.epoch += 1;
    }
}
