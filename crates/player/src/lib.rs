//! # tbm-player — playback simulation
//!
//! The paper defers performance to the implementation ("satisfaction of
//! real-time constraints … is a performance and implementation issue rather
//! than a data modeling issue") but the *model* must expose the timing that
//! playback needs, and it observes that real-time deadlines for media are
//! soft: "the deadlines are not hard. Divergences … can be tolerated; for
//! example playback 'jitter' can be removed by the application just prior
//! to presentation."
//!
//! This crate closes the loop with a deterministic playback simulator:
//! element schedules come straight from interpretation tables
//! ([`schedule_from_interp`]), a [`CostModel`] models storage bandwidth and
//! decode throughput, and [`PlaybackSim`] reports deadline misses, lateness
//! and jitter ([`PlaybackStats`]). Multi-stream playback measures
//! audio/video sync skew ([`sync_skew`]); scalable streams can be played
//! base-layer-only to fit reduced bandwidth — the §2.2 scalability scenario.
//!
//! Everything is simulated in exact rational time: runs are reproducible
//! and independent of host speed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod activity;
mod cost;
mod degrade;
mod schedule;
mod sim;
mod sync;

pub use activity::{Activity, Pipeline};
pub use cost::CostModel;
pub use degrade::{
    fetch_layer, DegradationPolicy, ElementFate, LayerFetch, ResilientPlayer, ResilientReport,
};
pub use schedule::{
    demanded_rate, schedule_at_rate, schedule_from_interp, schedule_reverse, schedule_uniform,
    total_bytes, ElementJob,
};
pub use sim::{PlaybackSim, PlaybackStats};
pub use sync::{sync_skew, SyncReport};
