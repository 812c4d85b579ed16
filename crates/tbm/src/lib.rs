//! # tbm — *Data Modeling of Time-Based Media*, reproduced in Rust
//!
//! This umbrella crate re-exports the full stack of the reproduction of
//! Gibbs, Breiteneder & Tsichritzis, *Data Modeling of Time-Based Media*
//! (SIGMOD 1994), layered exactly as the paper's Figure 5:
//!
//! | layer | crate | paper concept |
//! |---|---|---|
//! | [`time`] | `tbm-time` | discrete time systems `D_f` (Def. 2) |
//! | [`core`] | `tbm-core` | media types, descriptors, timed streams (Defs. 1, 3; Fig. 1) |
//! | [`blob`] | `tbm-blob` | BLOBs (Def. 4) |
//! | [`media`] | `tbm-media` | concrete media elements + synthetic capture |
//! | [`codec`] | `tbm-codec` | the compression that creates the modeling issues of §2.2 |
//! | [`interp`] | `tbm-interp` | interpretation (Def. 5; Fig. 2) |
//! | [`mod@derive`] | `tbm-derive` | derivation (Def. 6; Table 1, Fig. 3) |
//! | [`compose`] | `tbm-compose` | composition (Def. 7; Fig. 4) |
//! | [`player`] | `tbm-player` | playback timing/jitter simulation (§2.2, §5) |
//! | [`db`] | `tbm-db` | the multimedia database facade (§1.2 queries) |
//! | [`serve`] | `tbm-serve` | multi-session delivery: admission control, segment cache, sharded catalogs |
//! | [`obs`] | `tbm-obs` | observability: deterministic tracing, metrics, miss attribution |
//! | [`query`] | `tbm-query` | model-compressed telemetry plane + typed queries over catalogs, sessions and metrics |
//!
//! ## Quickstart
//!
//! ```
//! use tbm::prelude::*;
//!
//! // Capture ten PAL frames + CD audio into a BLOB, Fig. 2 style.
//! let mut db = MediaDb::new();
//! let frames = tbm::media::gen::render_frames(
//!     tbm::media::gen::VideoPattern::MovingBar, 0, 10, 64, 48);
//! let audio = tbm::media::gen::AudioSignal::Sine { hz: 440.0, amplitude: 9000 }
//!     .generate(0, 10 * 1764, 44100, 2);
//! let cap = tbm::interp::capture::capture_av_interleaved(
//!     db.store_mut(), &frames, &audio, 1764, TimeSystem::PAL,
//!     tbm::codec::dct::DctParams::default(), None).unwrap();
//! db.register_interpretation(cap.interpretation).unwrap();
//!
//! // Non-destructive edit: a derivation object, not a copy.
//! let edit = Node::derive(
//!     Op::VideoEdit { cuts: vec![EditCut { input: 0, from: 2, to: 8 }] },
//!     vec![Node::source("video1")]);
//! db.create_derived("teaser", edit).unwrap();
//! match db.materialize("teaser").unwrap() {
//!     MediaValue::Video(v) => assert_eq!(v.len(), 6),
//!     _ => unreachable!(),
//! }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use tbm_blob as blob;
pub use tbm_codec as codec;
pub use tbm_compose as compose;
pub use tbm_core as core;
pub use tbm_db as db;
pub use tbm_derive as derive;
pub use tbm_interp as interp;
pub use tbm_media as media;
pub use tbm_obs as obs;
pub use tbm_player as player;
pub use tbm_query as query;
pub use tbm_serve as serve;
pub use tbm_time as time;

/// The README's examples, compiled as doctests so that an API change which
/// leaves one of them stale fails the build.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use tbm_blob::{
        is_transient, BlobStore, BreakerState, ByteSpan, FaultPlan, FaultStats, FaultyBlobStore,
        FileBlobStore, MemBlobStore, OpenReport, ReadCtx, RetryPolicy, RetryReport, SkipReason,
        TierConfig, TierStats, TieredBlobStore,
    };
    pub use tbm_compose::{Component, ComponentKind, Composer, MultimediaObject, Region};
    pub use tbm_core::{
        classify, crc32, keys, AudioQuality, Crc32, InterpretationId, MediaDescriptor, MediaKind,
        MediaType, QualityFactor, SessionId, StreamCategory, TimedStream, TimedTuple, VideoQuality,
    };
    pub use tbm_db::{MediaDb, SalvageReport, SectionSalvage, CATALOG_TMP};
    pub use tbm_derive::{EditCut, Expander, MediaValue, Node, Op, WipeDirection};
    pub use tbm_interp::{Interpretation, StreamInterp, VerifyReport};
    pub use tbm_obs::{
        attribute, chrome_trace, text_timeline, AttributionReport, Histogram, MetricsRegistry,
        MissCause, TraceSnapshot, Tracer,
    };
    pub use tbm_player::{
        CostModel, DegradationPolicy, ElementFate, PlaybackSim, ResilientPlayer, ResilientReport,
    };
    pub use tbm_query::{
        Action, Aggregate, AlertKind, AlertTransition, BurnPoint, ErrorBound, FleetTelemetry,
        GroupBy, GroupKey, HealthMonitor, Incident, IncidentReport, Metric, Playbook, Predicate,
        Query, QueryCtx, QueryError, Remediator, Selector, SeriesKey, SloObjective, SloRule,
        Source, Table, TelemetryStore, BURN_CAP,
    };
    pub use tbm_serve::{
        shard_of, skew_percent, AdmissionPolicy, AdmitDecision, CacheStats, Capacity, Fleet,
        FleetError, FleetStats, Link, NodeFaultPlan, NodeStats, PlacementService, RejectReason,
        Request, Response, SegmentCache, ServeError, Server, ServerStats, Session, SessionState,
        SessionStats, ShardError, ShardMove, ShardedDb, ShardedServer, ShardedStats,
    };
    pub use tbm_time::{
        AllenRelation, Interval, Rational, TimeDelta, TimePoint, TimeSystem, Timecode,
    };
}
