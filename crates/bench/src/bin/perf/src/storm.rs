//! `storm_hot` and `storm_cold`: the same broadcast storm through a
//! [`ShardedServer`], once over a working set that fits the segment cache
//! four times over and once over one eight times too large for it.
//!
//! Hot: the EDF loop, session bookkeeping and the metrics registry do
//! nearly all the work; `tbm-blob` is touched once per element ever. Cold:
//! store reads, the tier walk and promotion, CRC-32 verification and cache
//! insert/evict dominate, so a serve-loop optimisation should barely move
//! it and a read-path one should move only it.

use crate::drive::{drive, Samples, Target};
use crate::fixtures::{balanced_names, serve_frames, tiered_store, Catalog, Scratch, Tiers};
use crate::gen::{storm_cold_script, storm_hot_script, Script};
use crate::trace::TimedStore;
use crate::workload::{
    absorb_serve_stats, digest_of, verify_on_second_worker_count, Ingest, Rep, RepCtx, Shape,
    Workload,
};
use tbm_blob::{BlobStore, FileBlobStore, MemBlobStore};
use tbm_serve::{Capacity, ShardedServer};

/// `storm_hot` at full size: 8 192 sessions at t = 0 on 16 objects. (The
/// issue asked for 48 elements per session; with those a repetition is
/// 1.2 s on this host, under the 1.5 s a repetition must last.)
pub const HOT: Shape = Shape {
    shards: 8,
    objects: 16,
    elements: 64,
    sessions: 8192,
};
/// `storm_cold` at full size: 12 waves of one session per object on 256
/// objects, 1.8 s a repetition. (The issue asked for the hot storm's 8 192
/// sessions; at that size one repetition takes 5 s on this host and five
/// of them do not fit a run, so the count was cut, not the per-session
/// shape.)
pub const COLD: Shape = Shape {
    shards: 8,
    objects: 256,
    elements: 48,
    sessions: 3072,
};
/// `storm_cold`: simulated gap between two waves — just over one
/// object's 1.92 s playing time, so waves barely overlap.
pub const COLD_WAVE_US: i64 = 2_000_000;
/// `storm_cold`: the cache and the memory tier each hold this fraction of
/// a shard's working set.
pub const COLD_BUDGET_DIVISOR: u64 = 8;
/// `storm_hot`: the cache holds this multiple of a shard's working set.
pub const HOT_BUDGET_FACTOR: u64 = 4;

/// Storage bandwidth generous enough that every session is admitted at
/// full fidelity and the simulated channel never saturates: 720 GB/s.
/// A multiple of 10^6, so `bytes / bandwidth` service times share the
/// microsecond grid request times live on and the serve loop's `i64`
/// rationals keep small denominators (see `fleet::NODE_BANDWIDTH`).
pub fn generous() -> Capacity {
    Capacity::new(720_720_000_000)
}

/// The part of a storm repetition that does not depend on the store type.
fn storm_rep<S: BlobStore + Tiers>(
    stores: Vec<S>,
    catalog: &Catalog,
    shape: Shape,
    script: &Script,
    cache_budget: u64,
    ctx: &RepCtx,
    samples: Option<&mut Samples>,
) -> Rep {
    let trace = &ctx.trace;
    let mut server =
        ShardedServer::new(catalog.sharded_db(stores), generous()).with_cache_budget(cache_budget);
    let mut rep = Rep::default();

    let whole = trace.begin("bench:rep");
    // Requests are staged at one worker: every `request()` first serves
    // what is due, and spawning a pool per request would time thread
    // start-up, not serving. The pool drives the advances and the drain.
    let workers = ctx.workers;
    rep.drive = drive(
        &mut server,
        script,
        &catalog.names,
        trace,
        samples,
        |server, t| {
            server.set_workers(workers);
            let open = trace.begin("serve:run_until");
            server.advance(crate::drive::at_us(t));
            trace.end(open);
            server.set_workers(1);
        },
    );
    server.set_workers(workers);
    let open = trace.begin("serve:finish");
    let stats = server.finish();
    trace.end(open);
    rep.wall_ns = trace.end(whole);

    let metrics = server.metrics();
    absorb_serve_stats(&mut rep, &stats.global, &metrics);
    rep.digest = digest_of(&[&format!("{stats:?}"), &metrics.render()]);
    rep.layer
        .insert("serve.shard.skew_pct", stats.skew_percent() as f64);
    rep.layer.insert(
        "serve.pool.steals",
        server.worker_stats().iter().map(|w| w.steals).sum::<u64>() as f64,
    );
    let (mut mem_serves, mut all_serves, mut promotions) = (0u64, 0u64, 0u64);
    for shard in server.shards() {
        for (i, tier) in shard.db().store().tiers().iter().enumerate() {
            all_serves += tier.serves;
            promotions += tier.promotions;
            if i == 0 {
                mem_serves += tier.serves;
            }
        }
    }
    rep.layer.insert(
        "blob.tier.mem_hit_share",
        if all_serves == 0 {
            0.0
        } else {
            mem_serves as f64 / all_serves as f64
        },
    );
    rep.layer.insert("blob.tier.promotions", promotions as f64);

    // Every due element served: nothing refused, nothing dropped, and
    // exactly sessions × elements delivered.
    let expected = u64::from(script.sessions) * shape.elements as u64;
    let (events, refused, dropped) = (rep.events, rep.drive.refused, rep.dropped);
    rep.check(events == expected && refused == 0 && dropped == 0, || {
        format!("served {events} of {expected} elements ({refused} refused, {dropped} dropped)")
    });
    rep
}

/// `storm_hot`'s fixture.
#[derive(Debug)]
pub struct StormHot {
    shape: Shape,
    catalog: Catalog,
    stores: Vec<MemBlobStore>,
    script: Script,
}

impl StormHot {
    /// Captures the catalog into memory stores and generates the script.
    pub fn setup(seed: u64, shape: Shape) -> StormHot {
        let mut stores: Vec<MemBlobStore> =
            (0..shape.shards).map(|_| MemBlobStore::new()).collect();
        let catalog = Catalog::capture(
            &mut stores,
            balanced_names(shape.objects, shape.shards),
            &serve_frames(shape.elements),
        );
        StormHot {
            shape,
            catalog,
            stores,
            script: storm_hot_script(seed, shape.sessions, shape.objects as u32),
        }
    }
}

impl Workload for StormHot {
    fn rep(&self, ctx: &RepCtx, samples: Option<&mut Samples>) -> Rep {
        let budget = HOT_BUDGET_FACTOR * self.catalog.max_shard_bytes();
        match &ctx.probe {
            None => storm_rep(
                self.stores.clone(),
                &self.catalog,
                self.shape,
                &self.script,
                budget,
                ctx,
                samples,
            ),
            Some(probe) => storm_rep(
                self.stores
                    .iter()
                    .map(|s| TimedStore::new(s.clone(), probe.clone(), ctx.trace.clone()))
                    .collect(),
                &self.catalog,
                self.shape,
                &self.script,
                budget,
                ctx,
                samples,
            ),
        }
    }

    fn ingest(&self) -> Ingest {
        self.catalog.ingest()
    }

    fn script_digest(&self) -> u64 {
        self.script.digest()
    }

    fn verify(&self, reference: &Rep) -> Option<Rep> {
        verify_on_second_worker_count(self, reference)
    }
}

/// `storm_cold`'s fixture: per shard, a directory holding the file tier's
/// BLOBs and a memory store holding the same bytes for the memory tier.
#[derive(Debug)]
pub struct StormCold {
    shape: Shape,
    catalog: Catalog,
    mem: Vec<MemBlobStore>,
    dirs: Vec<Scratch>,
    script: Script,
}

impl StormCold {
    /// Captures the catalog into memory stores, then copies every BLOB
    /// into a file store per shard: the two tiers of a repetition's
    /// [`tbm_blob::TieredBlobStore`] must start byte-identical, and the
    /// memory tier's bytes have to stay nameable for the per-repetition
    /// clones (a tiered store boxes its tiers).
    pub fn setup(seed: u64, shape: Shape) -> StormCold {
        let mut mem: Vec<MemBlobStore> = (0..shape.shards).map(|_| MemBlobStore::new()).collect();
        let catalog = Catalog::capture(
            &mut mem,
            balanced_names(shape.objects, shape.shards),
            &serve_frames(shape.elements),
        );
        let dirs: Vec<Scratch> = (0..shape.shards).map(|_| Scratch::new("cold")).collect();
        for (store, dir) in mem.iter().zip(&dirs) {
            let mut file = FileBlobStore::open(dir.path()).expect("open the file tier");
            for blob in store.blob_ids() {
                let copy = file.create().expect("create a blob file");
                assert_eq!(copy, blob, "tiers must agree on blob ids");
                file.append(copy, &store.read_all(blob).expect("captured blob"))
                    .expect("write the file tier");
            }
        }
        StormCold {
            shape,
            catalog,
            mem,
            dirs,
            script: storm_cold_script(
                seed,
                shape.sessions / shape.objects as u32,
                shape.objects as u32,
                COLD_WAVE_US,
            ),
        }
    }
}

impl Workload for StormCold {
    fn rep(&self, ctx: &RepCtx, samples: Option<&mut Samples>) -> Rep {
        let budget = self.catalog.max_shard_bytes() / COLD_BUDGET_DIVISOR;
        let tiered = self
            .mem
            .iter()
            .zip(&self.dirs)
            .map(|(mem, dir)| tiered_store(mem.clone(), dir.path(), budget));
        match &ctx.probe {
            None => storm_rep(
                tiered.collect(),
                &self.catalog,
                self.shape,
                &self.script,
                budget,
                ctx,
                samples,
            ),
            Some(probe) => storm_rep(
                tiered
                    .map(|s| TimedStore::new(s, probe.clone(), ctx.trace.clone()))
                    .collect(),
                &self.catalog,
                self.shape,
                &self.script,
                budget,
                ctx,
                samples,
            ),
        }
    }

    fn ingest(&self) -> Ingest {
        self.catalog.ingest()
    }

    fn script_digest(&self) -> u64 {
        self.script.digest()
    }

    fn verify(&self, reference: &Rep) -> Option<Rep> {
        verify_on_second_worker_count(self, reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    const SMALL_HOT: Shape = Shape {
        shards: 4,
        objects: 8,
        elements: 6,
        sessions: 96,
    };
    const SMALL_COLD: Shape = Shape {
        shards: 2,
        objects: 16,
        elements: 6,
        sessions: 64,
    };

    #[test]
    fn hot_digest_is_the_same_with_and_without_the_timed_store() {
        let storm = StormHot::setup(5, SMALL_HOT);
        let bare = storm.rep(&RepCtx::untraced(1), None);
        let trace = Trace::enabled();
        let ctx = RepCtx::traced(trace.clone());
        let wrapped = storm.rep(&ctx, None);
        assert!(bare.failures.is_empty(), "{:?}", bare.failures);
        assert!(wrapped.failures.is_empty(), "{:?}", wrapped.failures);
        assert_eq!(
            bare.digest, wrapped.digest,
            "the wrapper must be transparent"
        );
        assert_eq!(bare.events, 96 * 6);
        assert_eq!(bare.layer, wrapped.layer);
        // First touch of every layer of every element goes to the store,
        // everything after is a cache hit.
        let (calls, bytes, _, fails) = ctx.probe.unwrap().snapshot();
        assert_eq!((calls, fails), (8 * 6 * 2, 0));
        assert_eq!(bytes, storm.catalog.stored_bytes);
        let reads = trace
            .spans()
            .iter()
            .filter(|s| s.name == "blob:read")
            .count();
        assert_eq!(reads as u64, calls);
    }

    #[test]
    fn hot_outputs_do_not_depend_on_the_worker_count_or_the_repetition() {
        let storm = StormHot::setup(5, SMALL_HOT);
        let first = storm.rep(&RepCtx::untraced(1), None);
        let second = storm.rep(&RepCtx::untraced(1), None);
        assert_eq!(first.digest, second.digest);
        let verified = storm
            .verify(&first)
            .expect("storms verify on a second worker count");
        assert!(verified.failures.is_empty(), "{:?}", verified.failures);
        // A different seed reorders the sessions but serves the same load.
        let other = StormHot::setup(6, SMALL_HOT);
        assert_ne!(other.script_digest(), storm.script_digest());
        assert_eq!(other.rep(&RepCtx::untraced(1), None).events, first.events);
    }

    #[test]
    fn cold_storm_reads_through_the_tiers_and_rarely_hits() {
        let storm = StormCold::setup(9, SMALL_COLD);
        let trace = Trace::enabled();
        let rep = storm.rep(&RepCtx::traced(trace), None);
        assert!(rep.failures.is_empty(), "{:?}", rep.failures);
        assert_eq!(rep.events, 64 * 6);
        assert!(
            rep.layer["serve.cache.hit_share"] < 0.2,
            "a cache an eighth of the working set must mostly miss ({})",
            rep.layer["serve.cache.hit_share"]
        );
        assert!(rep.layer["serve.cache.evictions"] > 0.0);
        assert!(rep.layer["blob.tier.promotions"] > 0.0);
        let bare = storm.rep(&RepCtx::untraced(1), None);
        assert_eq!(bare.digest, rep.digest);
        let verified = storm.verify(&bare).unwrap();
        assert!(verified.failures.is_empty(), "{:?}", verified.failures);
    }
}
