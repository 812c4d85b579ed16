//! # tbm-blob — the BLOB substrate
//!
//! Implements the paper's Definition 4:
//!
//! > *"A BLOB is an attribute value that appears to applications as a
//! > sequence of bytes. The database system provides an interface by which
//! > applications can read and append data to BLOBs."*
//!
//! The interface is deliberately append-only: the paper notes that insertion
//! and deletion of byte spans "are not essential since non-destructive
//! editing techniques are often used" — edits happen at the derivation
//! layer, never by rewriting BLOBs.
//!
//! Two stores are provided:
//!
//! * [`MemBlobStore`] — in-memory, with *fragmented extents*: a BLOB "may
//!   correspond to a region of contiguous storage or it may be fragmented,
//!   the layout of BLOBs is a performance issue and not directly relevant to
//!   data modeling". The chunked layout exercises span reads that cross
//!   fragment boundaries.
//! * [`FileBlobStore`] — file-backed (one file per BLOB): write-through
//!   appends and positional reads on kept-open handles, for durability
//!   tests and realistic I/O in benchmarks.
//!
//! Two decorators compose over them: [`FaultyBlobStore`] injects a seeded,
//! reproducible storm of read faults, and [`TieredBlobStore`] stacks any
//! stores fastest-first behind per-tier circuit breakers ([`Breaker`], which
//! `tbm-serve`'s fleet puts on every node too), deadline-aware hedging,
//! verify-and-repair reads and promotion/demotion residency.
//! Residency is kept in [`LruSlab`], a byte-weighted strict LRU over a slab
//! that the server's segment cache (`tbm-serve`) shares.
//!
//! Interpretation (`tbm-interp`) addresses BLOB content through
//! [`ByteSpan`]s — `(offset, length)` placements of media elements.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod fault;
mod file_store;
mod lru;
mod mem_store;
#[cfg(test)]
mod residency_prop;
mod span;
mod store;
mod tiered;

pub use error::BlobError;
pub use fault::{is_transient, FaultPlan, FaultStats, FaultyBlobStore, RetryPolicy, RetryReport};
pub use file_store::{FileBlobStore, OpenReport, SkipReason};
pub use lru::{LruSlab, SpanKey};
pub use mem_store::MemBlobStore;
pub use span::ByteSpan;
pub use store::{BlobStore, BlobWriter, ReadCtx};
pub use tiered::{Breaker, BreakerState, TierConfig, TierStats, TieredBlobStore};
