//! The closed-loop driver: one thread walks a [`Script`] on the simulated
//! clock, sends each request only after the previous one has answered, and
//! times every call from outside.
//!
//! Before a request at simulated time `t` the target is first advanced to
//! `t` in a span of its own, so a `request()` span holds request handling
//! (routing, admission, re-anchoring) and an `advance` span holds element
//! serving — the two halves of the serve layer the workloads weigh
//! differently.

use crate::gen::{Op, Script};
use crate::trace::Trace;
use tbm_blob::BlobStore;
use tbm_core::SessionId;
use tbm_serve::{AdmitDecision, Fleet, Request, Response, ShardedServer};
use tbm_time::{TimeDelta, TimePoint};

/// Simulated microseconds as a [`TimePoint`].
pub fn at_us(us: i64) -> TimePoint {
    TimePoint::ZERO + TimeDelta::from_micros(us)
}

/// What the driver needs of a server: send a request, advance the clock.
pub trait Target {
    /// Submits `request` at simulated time `at`.
    fn send(&mut self, at: TimePoint, request: Request) -> Result<Response, String>;
    /// Serves everything due by `to`.
    fn advance(&mut self, to: TimePoint);
}

impl<S: BlobStore> Target for ShardedServer<S> {
    fn send(&mut self, at: TimePoint, request: Request) -> Result<Response, String> {
        self.request(at, request).map_err(|e| e.to_string())
    }

    fn advance(&mut self, to: TimePoint) {
        self.run_until(to);
    }
}

impl<S: BlobStore> Target for Fleet<S> {
    fn send(&mut self, at: TimePoint, request: Request) -> Result<Response, String> {
        self.request(at, request).map_err(|e| e.to_string())
    }

    fn advance(&mut self, to: TimePoint) {
        self.run_until(to);
    }
}

/// Wall-clock latencies of the timed repetitions' *opening* requests, in
/// nanoseconds: every sample of every repetition, in send order.
///
/// The end-to-end latency metrics are over `Open` requests — the request
/// that runs admission and builds the session's plan, the one a viewer
/// waits on before anything plays — and, on the server-less pipeline, over
/// composed-frame pulls. Over *all* requests the median would sit on a
/// cliff: three of the four serving scripts are half `Open`s (10–30 µs)
/// and half `Play`s (under 1 µs), and a p50 between two populations reads
/// whichever side the last sample fell. The other kinds are timed per kind
/// in the traced run.
#[derive(Debug, Default)]
pub struct Samples {
    /// The latencies.
    pub ns: Vec<u32>,
}

impl Samples {
    /// Adds one opening request's latency.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns.min(u64::from(u32::MAX)) as u32);
    }
}

/// What one walk of a script did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Requests sent.
    pub requests: u64,
    /// `Open`s among them.
    pub opens: u64,
    /// Requests skipped because their session's `Open` was refused.
    pub skipped: u64,
    /// `Open`s answered `Rejected` — admission control working as designed.
    pub refused: u64,
    /// `Open`s admitted at reduced fidelity.
    pub admitted_degraded: u64,
    /// Requests that returned an error. No workload expects any.
    pub errors: u64,
    /// The first few error texts, for the report.
    pub error_texts: Vec<String>,
}

fn span_name(op: &Op) -> &'static str {
    match op {
        Op::Open { .. } => "serve:request.open",
        Op::Play { .. } => "serve:request.play",
        Op::Pause { .. } => "serve:request.pause",
        Op::Seek { .. } => "serve:request.seek",
        Op::SetRate { .. } => "serve:request.set_rate",
        Op::Close { .. } => "serve:request.close",
    }
}

/// Walks `script` against `target`. `before(target, t)` runs whenever the
/// script's clock moves to a new instant `t` (microseconds), before the
/// requests of that instant: the place a workload advances the target,
/// ticks its telemetry, or both. Latencies go to `samples` when given.
pub fn drive<T: Target>(
    target: &mut T,
    script: &Script,
    names: &[String],
    trace: &Trace,
    mut samples: Option<&mut Samples>,
    mut before: impl FnMut(&mut T, i64),
) -> DriveOutcome {
    let mut out = DriveOutcome::default();
    let mut ids: Vec<Option<SessionId>> = vec![None; script.sessions as usize];
    let mut opened = 0usize;
    let mut clock = i64::MIN;
    for step in &script.steps {
        if step.at_us != clock {
            clock = step.at_us;
            before(target, clock);
        }
        let session = |s: u32| ids[s as usize];
        let request = match step.op {
            Op::Open { object } => Some(Request::Open {
                object: names[object as usize].clone(),
            }),
            Op::Play { s } => session(s).map(|session| Request::Play { session }),
            Op::Pause { s } => session(s).map(|session| Request::Pause { session }),
            Op::Seek { s, to_ms } => session(s).map(|session| Request::Seek {
                session,
                to: at_us(i64::from(to_ms) * 1000),
            }),
            Op::SetRate { s, num, den } => {
                session(s).map(|session| Request::SetRate { session, num, den })
            }
            Op::Close { s } => session(s).map(|session| Request::Close { session }),
        };
        let Some(request) = request else {
            out.skipped += 1;
            continue;
        };
        let open = trace.begin(span_name(&step.op));
        let response = target.send(at_us(step.at_us), request);
        let ns = trace.end(open);
        out.requests += 1;
        out.opens += u64::from(matches!(step.op, Op::Open { .. }));
        if let (Some(samples), Op::Open { .. }) = (samples.as_deref_mut(), &step.op) {
            samples.push(ns);
        }
        match response {
            Ok(Response::Opened { session, decision }) => {
                ids[opened] = session;
                opened += 1;
                match decision {
                    AdmitDecision::Admitted => {}
                    AdmitDecision::Degraded { .. } => out.admitted_degraded += 1,
                    AdmitDecision::Rejected { .. } => out.refused += 1,
                }
            }
            Ok(_) => {}
            Err(text) => {
                if matches!(step.op, Op::Open { .. }) {
                    opened += 1;
                }
                out.errors += 1;
                if out.error_texts.len() < 5 {
                    out.error_texts.push(format!("{:?}: {text}", step.op));
                }
            }
        }
    }
    out
}
