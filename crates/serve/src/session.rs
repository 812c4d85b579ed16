//! Sessions: per-client playback state inside the server, and the typed
//! request/response API that drives them.

use crate::{AdmitDecision, ServeError};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use tbm_blob::{BlobStore, ByteSpan};
use tbm_core::{BlobId, InterpretationId, SessionId};
use tbm_db::{MediaDb, Origin};
use tbm_interp::ElementEntry;
use tbm_obs::SpanId;
use tbm_player::{demanded_rate, schedule_from_interp};
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

/// One catalog object at one fidelity: what is per object, and a handle to
/// the stream's rows in the server's [`MediaDb`] — a view of the catalog's
/// element table (§4.1), never a copy. Every per-element question (when is
/// `pos` due, what does it fetch, where does a seek land) is answered from
/// those rows, in the stream's ticks. The catalog cannot change while the
/// server owns it, so the handle stays valid. Shared by every session at
/// this fidelity; an upgrade or a forced degradation hands a session the
/// object's other plan: the same rows, another cap.
#[derive(Debug)]
pub(crate) struct ObjectPlan {
    pub object: String,
    pub blob: BlobId,
    pub system: TimeSystem,
    /// The stream's interpretation, and its position among that
    /// interpretation's streams.
    table: (InterpretationId, usize),
    /// Placement layers a session on this plan may fetch per element
    /// (`None` = full fidelity).
    pub layers_cap: Option<usize>,
    /// Bytes/s a session on this plan commits at unit rate.
    pub unit_demand: Rational,
}

impl ObjectPlan {
    /// The plan of catalog object `object` at `layers_cap`. Its demand is
    /// worked out once, by its definition, over a schedule dropped again.
    pub(crate) fn new<S: BlobStore>(
        db: &MediaDb<S>,
        object: &str,
        layers_cap: Option<usize>,
    ) -> Result<ObjectPlan, ServeError> {
        let (interp, stream) = db.stream_of(object)?;
        let Origin::Interpreted {
            interpretation,
            stream: name,
        } = &db.object(object)?.origin
        else {
            unreachable!("only an interpreted object has a stream");
        };
        let position = interp.streams().position(|(n, _)| n == name);
        let jobs = schedule_from_interp(stream, layers_cap);
        Ok(ObjectPlan {
            object: object.to_owned(),
            blob: interp.blob(),
            system: stream.system(),
            table: (*interpretation, position.expect("found by this name")),
            layers_cap,
            unit_demand: demanded_rate(&jobs, stream.system()).unwrap_or(Rational::ZERO),
        })
    }

    /// The catalog's rows of this plan's stream, start-ordered: position
    /// `pos` of a session's `pending` run is row `pos`.
    pub(crate) fn rows<'a, S: BlobStore>(&self, db: &'a MediaDb<S>) -> &'a [ElementEntry] {
        let (id, stream) = self.table;
        let stream = db.interpretation(id).and_then(|i| i.stream_at(stream));
        stream.expect("the server's catalog is immutable").entries()
    }

    /// The spans (and recorded checksums) a session on this plan fetches
    /// of `row`: its placement layers up to the cap, base first.
    pub(crate) fn layers_of<'a>(
        &self,
        row: &'a ElementEntry,
    ) -> impl ExactSizeIterator<Item = (ByteSpan, Option<u32>)> + 'a {
        let all = row.placement.layers();
        let take = self.layers_cap.unwrap_or(all.len()).min(all.len()).max(1);
        let checksum = |li: usize| row.checksums.get(li).copied();
        all[..take]
            .iter()
            .enumerate()
            .map(move |(li, &span)| (span, checksum(li)))
    }

    /// The spans every one of `rows` fetches.
    pub(crate) fn spans_of<'a>(
        &'a self,
        rows: &'a [ElementEntry],
    ) -> impl Iterator<Item = ByteSpan> + 'a {
        rows.iter()
            .flat_map(|row| self.layers_of(row).map(|(span, _)| span))
    }

    /// What a seek to `to` on the stream's unit-rate timeline leaves
    /// pending: the suffix of rows due at or after `to`. A row is due
    /// `start − first start` ticks in, so it lies before `to` exactly when
    /// that count is below `to` in ticks, rounded up (saturated, so no
    /// instant is out of range).
    pub(crate) fn seek(&self, rows: &[ElementEntry], to: TimePoint) -> Range<usize> {
        let origin = rows.first().map_or(0, |e| e.start);
        let tick = to.seconds().checked_mul(self.system.frequency());
        let tick = tick.map_or(i64::MAX * to.seconds().signum(), Rational::ceil);
        rows.partition_point(|e| e.start - origin < tick)..rows.len()
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
    /// The object at this session's fidelity, a view of its rows in the
    /// catalog. Swapped for the object's other plan by an upgrade or a
    /// forced degradation; `plan.layers_cap` is the session's fidelity
    /// cap, and with it its standing admission decision.
    pub(crate) plan: Arc<ObjectPlan>,
    /// Rows of the plan's stream not yet served. Rows are in start order
    /// and served in order, so what is left is always a contiguous run:
    /// serving advances the start, a seek resets it to a suffix.
    pub(crate) pending: Range<usize>,
    /// Bumped on every Play/Pause/Seek/SetRate/Close so queued jobs from an
    /// older schedule generation are ignored when popped.
    pub(crate) epoch: u64,
    /// Playback rate `num/den` × normal speed.
    pub(crate) rate: (u32, u32),
    /// Simulated time of the anchoring Play/Seek/SetRate.
    pub(crate) play_time: TimePoint,
    /// Start tick of the first pending row at the anchor; a row is due
    /// its start's distance from this tick past `play_time`.
    pub(crate) anchor_tick: i64,
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

    /// The absolute deadline `pos` is queued under: the anchor instant
    /// plus the ticks from the anchor's row to row `pos`, in seconds at
    /// the current playback rate. The same distance past the session's
    /// `clock_base` is its presentation deadline, so the serve path
    /// recovers it from the queued deadline.
    pub(crate) fn queued_deadline(&self, rows: &[ElementEntry], pos: usize) -> TimePoint {
        let (num, den) = self.rate;
        let ticks = self
            .plan
            .system
            .ticks_to_delta(rows[pos].start - self.anchor_tick);
        self.play_time + ticks.scale(Rational::new(den as i64, num as i64))
    }

    /// Re-anchors the schedule at `at` from the current first pending
    /// row, restarting the presentation clock.
    pub(crate) fn anchor(&mut self, rows: &[ElementEntry], at: TimePoint) {
        self.play_time = at;
        self.anchor_tick = rows.get(self.pending.start).map_or(0, |e| e.start);
        self.clock_base = None;
        self.epoch += 1;
    }
}
