//! Fixtures: the catalogs the serving workloads play from, built once in
//! the timed set-up phase and cloned per repetition, plus the scratch
//! directories file-backed fixtures live in.
//!
//! Everything a run writes goes under `$CARGO_TARGET_DIR/perf` (or
//! `target/perf`), inside the checkout the benchmark was started from.

use crate::timer::now_ns;
use std::path::{Path, PathBuf};
use tbm_blob::{BlobStore, FileBlobStore, MemBlobStore, TierConfig, TierStats, TieredBlobStore};
use tbm_codec::dct::DctParams;
use tbm_interp::capture::capture_video_scalable;
use tbm_interp::Interpretation;
use tbm_media::gen::{render_frames, VideoPattern};
use tbm_media::Frame;
use tbm_serve::{shard_of, ShardedDb};
use tbm_time::TimeSystem;

use crate::trace::TimedStore;
use crate::workload::Ingest;

/// Frame geometry of every served object (the size `exp_throughput` uses).
pub const SERVE_W: u32 = 64;
/// See [`SERVE_W`].
pub const SERVE_H: u32 = 48;
/// The routing seed of every sharded catalog. Fixed: placement is part of
/// the fixture, not of the generated load.
pub const ROUTING_SEED: u64 = 0x7EE0;

/// Where a run's files go: `$CARGO_TARGET_DIR/perf`, else `target/perf`.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("perf")
}

/// A directory under [`out_dir`] that is emptied when created and removed
/// when dropped.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// `out_dir()/tmp/<tag>-<pid>-<n>`, fresh and empty.
    pub fn new(tag: &str) -> Scratch {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out_dir()
            .join("tmp")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-tier counters of a store, when it has tiers. Lets a workload read
/// `TierStats` through whichever wrapper the run put around the store.
pub trait Tiers {
    /// Fastest-first tier snapshots; empty for untiered stores.
    fn tiers(&self) -> Vec<TierStats> {
        Vec::new()
    }
}

impl Tiers for MemBlobStore {}

impl Tiers for TieredBlobStore {
    fn tiers(&self) -> Vec<TierStats> {
        self.tier_stats()
    }
}

impl<S: BlobStore + Tiers> Tiers for TimedStore<S> {
    fn tiers(&self) -> Vec<TierStats> {
        self.inner().tiers()
    }
}

/// `objects` names `obj<i>` chosen so that every one of `shards` shards
/// owns exactly `objects / shards` of them under [`ROUTING_SEED`] — load
/// skew then comes from the script, not from an unlucky hash.
pub fn balanced_names(objects: usize, shards: usize) -> Vec<String> {
    assert!(
        objects.is_multiple_of(shards),
        "objects must divide evenly over shards"
    );
    let quota = objects / shards;
    let mut owned = vec![0usize; shards];
    let mut names = Vec::with_capacity(objects);
    for i in 0.. {
        if names.len() == objects {
            break;
        }
        let name = format!("obj{i}");
        let shard = shard_of(&name, ROUTING_SEED, shards);
        if owned[shard] < quota {
            owned[shard] += 1;
            names.push(name);
        }
    }
    names
}

/// The frames every served object is captured from. Content is the same
/// for every object and every seed (each capture still encodes them
/// afresh), so bytes per element — and work per element — are constants
/// of the workload.
pub fn serve_frames(elements: usize) -> Vec<Frame> {
    render_frames(VideoPattern::MovingBar, 0, elements, SERVE_W, SERVE_H)
}

/// A sharded catalog without its stores: what stays the same across
/// repetitions, and what set-up measured while capturing it.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Object names, in script object-index order.
    pub names: Vec<String>,
    /// One interpretation per object, same order.
    pub interps: Vec<Interpretation>,
    /// Uncompressed media bytes captured (RGB24 frames).
    pub raw_bytes: u64,
    /// Bytes the captures appended to BLOBs.
    pub stored_bytes: u64,
    /// Stored bytes per shard — the shard's working set.
    pub shard_bytes: Vec<u64>,
    /// Wall nanoseconds spent capturing (encode + append + index).
    pub capture_ns: u64,
}

impl Catalog {
    /// Captures one scalable-DCT object per name into the store of the
    /// shard that owns the name.
    pub fn capture<S: BlobStore>(
        stores: &mut [S],
        names: Vec<String>,
        frames: &[Frame],
    ) -> Catalog {
        let shards = stores.len();
        let mut interps = Vec::with_capacity(names.len());
        let mut shard_bytes = vec![0u64; shards];
        let t0 = now_ns();
        for name in &names {
            let owner = shard_of(name, ROUTING_SEED, shards);
            let (blob, interp) = capture_video_scalable(
                &mut stores[owner],
                frames,
                TimeSystem::PAL,
                DctParams::default(),
            )
            .expect("capture into a healthy store");
            let stream = interp.stream("video1").expect("captured stream").clone();
            shard_bytes[owner] += stream.total_bytes();
            let mut renamed = Interpretation::new(blob);
            renamed
                .add_stream(name, stream)
                .expect("fresh interpretation");
            interps.push(renamed);
        }
        let capture_ns = now_ns() - t0;
        let frame_bytes = u64::from(SERVE_W) * u64::from(SERVE_H) * 3;
        Catalog {
            raw_bytes: frame_bytes * frames.len() as u64 * names.len() as u64,
            stored_bytes: shard_bytes.iter().sum(),
            names,
            interps,
            shard_bytes,
            capture_ns,
        }
    }

    /// A servable catalog over `stores` (one per shard, already holding
    /// the captured bytes).
    pub fn sharded_db<S: BlobStore>(&self, stores: Vec<S>) -> ShardedDb<S> {
        let mut db = ShardedDb::with_stores(stores, ROUTING_SEED);
        for interp in &self.interps {
            db.register_interpretation(interp.clone())
                .expect("names were balanced under the routing seed");
        }
        db
    }

    /// What capturing the catalog took in and what it cost.
    pub fn ingest(&self) -> Ingest {
        Ingest {
            raw_bytes: self.raw_bytes,
            stored_bytes: self.stored_bytes,
            wall_ns: self.capture_ns,
        }
    }

    /// The largest shard working set, which per-shard budgets are sized by.
    pub fn max_shard_bytes(&self) -> u64 {
        self.shard_bytes.iter().copied().max().unwrap_or(0)
    }
}

/// Simulated per-read latency of the memory tier, microseconds.
const MEM_TIER_US: u64 = 5;
/// Simulated per-read latency of the file tier, microseconds.
const FILE_TIER_US: u64 = 40;

/// A budgeted memory tier over a file tier in `dir`. Both backing stores
/// must already hold identical bytes (or both be empty).
pub fn tiered_store(mem: MemBlobStore, dir: &Path, mem_budget: u64) -> TieredBlobStore {
    TieredBlobStore::new()
        .with_tier(
            TierConfig::new("mem", MEM_TIER_US).with_residency_budget(mem_budget),
            mem,
        )
        .with_tier(
            TierConfig::new("file", FILE_TIER_US),
            FileBlobStore::open(dir).expect("open the file tier"),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_names_fill_every_shard_equally() {
        let names = balanced_names(16, 8);
        let mut owned = [0usize; 8];
        for n in &names {
            owned[shard_of(n, ROUTING_SEED, 8)] += 1;
        }
        assert_eq!(owned, [2; 8]);
        assert_eq!(names, balanced_names(16, 8), "placement is not seeded");
    }

    #[test]
    fn catalog_round_trips_through_cloned_stores() {
        let mut stores = vec![MemBlobStore::new(), MemBlobStore::new()];
        let cat = Catalog::capture(&mut stores, balanced_names(4, 2), &serve_frames(3));
        assert_eq!(cat.raw_bytes, 4 * 3 * 64 * 48 * 3);
        assert_eq!(
            cat.stored_bytes,
            stores.iter().map(MemBlobStore::total_bytes).sum::<u64>()
        );
        assert!(cat.stored_bytes < cat.raw_bytes, "DCT must compress");
        let db = cat.sharded_db(stores.clone());
        for name in &cat.names {
            assert!(db.contains_object(name));
        }
    }
}
