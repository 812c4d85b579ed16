//! # tbm-core — the timed-stream data model
//!
//! This crate implements the heart of *Data Modeling of Time-Based Media*
//! (Gibbs, Breiteneder, Tsichritzis; SIGMOD 1994): media types, media and
//! element descriptors (Definition 1), timed streams (Definition 3) and the
//! stream-category taxonomy of the paper's Figure 1.
//!
//! The central abstraction is the [`TimedStream`]: a finite sequence of
//! tuples `⟨eᵢ, sᵢ, dᵢ⟩` whose elements belong to a [`MediaType`] and whose
//! start times and durations are discrete time values in a
//! [`tbm_time::TimeSystem`]. Streams are classified ([`classify`],
//! [`CategoryReport`]) into the paper's eight categories:
//!
//! | category | constraint |
//! |---|---|
//! | homogeneous | element descriptors constant |
//! | heterogeneous | element descriptors vary |
//! | continuous | `sᵢ₊₁ = sᵢ + dᵢ` |
//! | non-continuous | gaps and/or overlaps |
//! | event-based | `dᵢ = 0` for all `i` |
//! | constant frequency | continuous ∧ constant duration |
//! | constant data rate | continuous ∧ constant size/duration ratio |
//! | uniform | continuous ∧ constant size ∧ constant duration |
//!
//! Higher layers build on this: `tbm-interp` maps BLOBs to streams
//! (interpretation), `tbm-derive` computes streams from streams (derivation)
//! and `tbm-compose` relates media objects in time and space (composition).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod attr;
mod category;
mod checksum;
mod descriptor;
mod element;
mod error;
mod ids;
mod mediatype;
mod mix;
mod quality;
mod stream;

pub use attr::AttrValue;
pub use category::{classify, CategoryReport, StreamCategory};
pub use checksum::{crc32, Crc32};
pub use descriptor::{keys, ElementDescriptor, MediaDescriptor};
pub use element::{SizedElement, StreamElement};
pub use error::ModelError;
pub use ids::{
    BlobId, DerivationId, InterpretationId, MediaObjectId, MultimediaObjectId, SessionId,
};
pub use mediatype::{AttrSpec, AttrType, MediaKind, MediaType};
pub use mix::splitmix64;
pub use quality::{AudioQuality, QualityFactor, VideoQuality};
pub use stream::{StreamStats, TimedStream, TimedTuple};
