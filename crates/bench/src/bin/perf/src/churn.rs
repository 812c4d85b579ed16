//! `session_churn`: the serve layer used the other way round. Instead of
//! one steady drain, a seeded script of short sessions — open, play, a
//! poke or two, close — interleaved with clock advances, against an
//! admission gate that is actually tight and a cache half the size of the
//! catalog. Admission, heap-epoch invalidation, the upgrade scan and an
//! ever-growing session table carry the cost, so an index that speeds the
//! drain but taxes open/close shows here.
//!
//! Repricing is *not* exercised, here or in any other workload. The issue
//! asked for `Capacity::with_cache_aware_admission()`, under which cache
//! generation bumps trigger `reprice_sessions`; with it this script panics
//! inside `tbm-serve` (`rational add overflow`) a few hundred sessions in,
//! so admission runs cache-unaware. The half-size cache stays because it
//! still decides which elements are store reads.

use crate::drive::{at_us, drive, Samples, Target};
use crate::fixtures::{balanced_names, serve_frames, Catalog};
use crate::gen::{churn_script, ChurnShape, Script};
use crate::trace::TimedStore;
use crate::workload::{
    absorb_serve_stats, digest_of, verify_on_second_worker_count, Ingest, Rep, RepCtx, Shape,
    Workload,
};
use tbm_blob::{BlobStore, MemBlobStore};
use tbm_serve::{Capacity, ShardedServer};

/// `session_churn` at full size: 26 000 short sessions (about 119 000
/// requests) on 32 objects over 4 shards, 1.5 s a repetition.
pub const FULL: Shape = Shape {
    shards: 4,
    objects: 32,
    elements: 48,
    sessions: 26_000,
};
/// Mean simulated gap between two opens, microseconds.
pub const MEAN_GAP_US: u64 = 2_000;
/// Per-shard storage bandwidth, in full-fidelity sessions' worth of
/// demand. Sized so that about 5% of opens are refused (5.5% on seed 1);
/// 2.7% are admitted degraded, not the issue's 15%: cache-unaware
/// admission has one knob, and it was spent on the refusals.
pub const CAPACITY_SESSIONS: u64 = 36;

/// Simulated time between two pool drives when more than one worker
/// serves, microseconds.
const POOL_TICK_US: i64 = 40_000;

fn script_shape(shape: Shape) -> ChurnShape {
    ChurnShape {
        sessions: shape.sessions,
        objects: shape.objects as u32,
        mean_gap_us: MEAN_GAP_US,
        element_us: 40_000,
        elements: shape.elements as u32,
    }
}

/// `session_churn`'s fixture.
#[derive(Debug)]
pub struct SessionChurn {
    catalog: Catalog,
    stores: Vec<MemBlobStore>,
    script: Script,
    /// One object's full-fidelity demand, bytes per second.
    full_bps: u64,
}

impl SessionChurn {
    /// Captures the catalog and generates the script.
    pub fn setup(seed: u64, shape: Shape) -> SessionChurn {
        let mut stores: Vec<MemBlobStore> =
            (0..shape.shards).map(|_| MemBlobStore::new()).collect();
        let catalog = Catalog::capture(
            &mut stores,
            balanced_names(shape.objects, shape.shards),
            &serve_frames(shape.elements),
        );
        let stream = catalog.interps[0]
            .stream(&catalog.names[0])
            .expect("captured stream");
        let full_bps = tbm_player::demanded_rate(
            &tbm_player::schedule_from_interp(stream, None),
            stream.system(),
        )
        .expect("non-empty schedule")
        .ceil() as u64;
        SessionChurn {
            catalog,
            stores,
            script: churn_script(seed, script_shape(shape)),
            full_bps,
        }
    }

    fn rep_over<S: BlobStore>(
        &self,
        stores: Vec<S>,
        ctx: &RepCtx,
        samples: Option<&mut Samples>,
    ) -> Rep {
        let trace = &ctx.trace;
        let capacity = Capacity::new(self.full_bps * CAPACITY_SESSIONS);
        let mut server = ShardedServer::new(self.catalog.sharded_db(stores), capacity)
            .with_cache_budget(self.catalog.max_shard_bytes() / 2);
        let mut rep = Rep::default();

        let whole = trace.begin("bench:rep");
        // The pool spawns its threads per drive, and this script moves the
        // clock 100 000 times: driven on every move, a second worker costs
        // ten times what it saves. With more than one worker the pool
        // therefore drives once per 40 ms of simulated time and `request()`
        // serves the rest on the driver thread — a different call pattern
        // that must still produce byte-identical outputs.
        let workers = ctx.workers;
        let mut pool_tick = -1i64;
        rep.drive = drive(
            &mut server,
            &self.script,
            &self.catalog.names,
            trace,
            samples,
            |server, t| {
                if workers > 1 && t / POOL_TICK_US == pool_tick {
                    return;
                }
                pool_tick = t / POOL_TICK_US;
                server.set_workers(workers);
                let open = trace.begin("serve:run_until");
                server.advance(at_us(t));
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

        // Every session accounted for: the script closes what it opens, so
        // nothing may still hold capacity, and every element a session
        // counted is in the global count.
        let active = stats.global.active_sessions;
        rep.check(active == 0, || {
            format!("{active} sessions still active after the drain")
        });
        let by_session: u64 = server.sessions().map(|s| s.stats().elements as u64).sum();
        let events = rep.events;
        rep.check(by_session == events, || {
            format!("sessions count {by_session} elements, the server {events}")
        });
        let committed = stats.global.committed_bps;
        rep.check(committed == 0, || {
            format!("{committed} B/s still committed after every session ended")
        });
        rep
    }
}

impl Workload for SessionChurn {
    fn rep(&self, ctx: &RepCtx, samples: Option<&mut Samples>) -> Rep {
        match &ctx.probe {
            None => self.rep_over(self.stores.clone(), ctx, samples),
            Some(probe) => self.rep_over(
                self.stores
                    .iter()
                    .map(|s| TimedStore::new(s.clone(), probe.clone(), ctx.trace.clone()))
                    .collect(),
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

    const SMALL: Shape = Shape {
        shards: 2,
        objects: 4,
        elements: 48,
        sessions: 400,
    };

    #[test]
    fn churn_runs_clean_exercises_admission_and_repeats_exactly() {
        let churn = SessionChurn::setup(3, SMALL);
        let mut samples = Samples::default();
        let first = churn.rep(&RepCtx::untraced(1), Some(&mut samples));
        assert!(first.failures.is_empty(), "{:?}", first.failures);
        assert_eq!(first.drive.errors, 0, "{:?}", first.drive.error_texts);
        assert_eq!(first.dropped, 0);
        assert_eq!(samples.ns.len() as u64, first.drive.opens);
        for kind in ["Open", "Play", "Pause", "Seek", "SetRate", "Close"] {
            assert!(
                churn
                    .script
                    .steps
                    .iter()
                    .any(|s| format!("{:?}", s.op).starts_with(kind)),
                "no {kind} request scripted"
            );
        }
        // 200 sessions per shard against 36 sessions' worth of capacity:
        // the gate must both degrade and refuse, and every request of a
        // refused session must have been skipped, not sent.
        assert!(first.drive.refused > 0 && first.drive.admitted_degraded > 0);
        assert!(first.drive.skipped >= first.drive.refused);
        let second = churn.rep(&RepCtx::untraced(1), None);
        assert_eq!(first.digest, second.digest);
        assert_eq!(
            (first.sim_misses, first.sim_lateness_p99_us, first.events),
            (second.sim_misses, second.sim_lateness_p99_us, second.events)
        );
        let verified = churn.verify(&first).unwrap();
        assert!(verified.failures.is_empty(), "{:?}", verified.failures);
    }
}
