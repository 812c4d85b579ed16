//! tbm-serve: a multi-session media delivery engine over the tbm catalog.
//!
//! The paper (Gibbs, Breiteneder, Tsichritzis, *Data Modeling of Time-Based
//! Media*, SIGMOD 1994) models media as BLOBs + interpretations + timed
//! streams, and explicitly leaves delivery — "media objects in time", in
//! Feustel & Schmidt's phrasing — to the system underneath. This crate is
//! that system in miniature: one [`Server`] owns a catalog
//! ([`tbm_db::MediaDb`]) and drives many concurrent [`Session`]s through a
//! deterministic, simulated-time event loop.
//!
//! Three mechanisms carry the load:
//!
//! * **Admission control** ([`Capacity`], [`AdmitDecision`]): each `Open` is
//!   checked against aggregate storage bandwidth and decode throughput using
//!   the schedule's demanded byte rate. Sessions are admitted at full
//!   fidelity, admitted degraded (base layer of a scalable stream), or
//!   rejected with a typed reason.
//! * **A shared segment cache** ([`SegmentCache`]): an LRU, byte-budgeted
//!   cache of placement spans. Many sessions on one hot object collapse to
//!   one set of storage reads; only checksum-verified bytes are inserted, so
//!   the cache also absorbs storage faults.
//! * **EDF scheduling**: every playing session's element fetches share one
//!   service channel, served earliest-deadline-first in exact rational time,
//!   so runs are reproducible byte-for-byte.
//!
//! Past one catalog's capacity, [`ShardedDb`] partitions the object
//! namespace across N catalogs by a stable seeded hash of the object name,
//! and [`ShardedServer`] fronts one full `Server` (own capacity budget, own
//! cache, own channel) per shard, with cross-shard stats rollup and a
//! `shard.skew` gauge — see the `shard` module docs.
//!
//! ```
//! use tbm_serve::{Capacity, Request, Server};
//! use tbm_time::TimePoint;
//! # use tbm_codec::dct::DctParams;
//! # use tbm_db::MediaDb;
//! # use tbm_blob::MemBlobStore;
//! # use tbm_interp::capture::capture_video_scalable;
//! # use tbm_media::gen::VideoPattern;
//! # use tbm_time::TimeSystem;
//! # let mut store = MemBlobStore::new();
//! # let frames: Vec<_> = (0..8).map(|i| VideoPattern::MovingBar.render(i, 32, 16)).collect();
//! # let (_b, interp) =
//! #     capture_video_scalable(&mut store, &frames, TimeSystem::PAL, DctParams::default())
//! #         .unwrap();
//! # let mut db = MediaDb::with_store(store);
//! # db.register_interpretation(interp).unwrap();
//!
//! let mut server = Server::new(db, Capacity::new(50_000_000)).with_cache_budget(1 << 20);
//! let t0 = TimePoint::ZERO;
//! let opened = server.request(t0, Request::Open { object: "video1".into() })?;
//! let session = match opened {
//!     tbm_serve::Response::Opened { session: Some(id), .. } => id,
//!     other => panic!("not admitted: {other:?}"),
//! };
//! server.request(t0, Request::Play { session })?;
//! let stats = server.finish();
//! assert_eq!(stats.finished_sessions, 1);
//! assert!(stats.elements_served > 0);
//! # Ok::<(), tbm_serve::ServeError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
#[cfg(test)]
mod cache_prop;
mod capacity;
mod error;
mod fleet;
mod metrics;
#[cfg(test)]
mod plan_prop;
mod pool;
mod server;
mod session;
mod shard;
#[cfg(test)]
mod table_prop;

pub use cache::{CacheStats, SegmentCache};
pub use capacity::{AdmissionPolicy, AdmitDecision, Capacity, RejectReason};
pub use error::ServeError;
pub use fleet::{
    skew_percent, Fleet, FleetError, FleetStats, Link, Node, NodeFaultPlan, NodeStats,
    PlacementService, ShardMove,
};
pub use metrics::ServerStats;
pub use pool::WorkerStats;
pub use server::Server;
pub use session::{Request, Response, Session, SessionState, SessionStats};
pub use shard::{
    shard_of, ShardError, ShardedDb, ShardedServer, ShardedStats, SHARD_SESSION_STRIDE,
};

#[cfg(test)]
mod tests {
    use super::*;
    use tbm_blob::{FaultPlan, FaultyBlobStore, MemBlobStore};
    use tbm_codec::dct::DctParams;
    use tbm_core::SessionId;
    use tbm_db::MediaDb;
    use tbm_interp::capture::capture_video_scalable;
    use tbm_media::gen::VideoPattern;
    use tbm_media::Frame;
    use tbm_time::{TimeDelta, TimePoint, TimeSystem};

    fn frames(n: usize) -> Vec<Frame> {
        (0..n as u64)
            .map(|i| VideoPattern::MovingBar.render(i, 48, 32))
            .collect()
    }

    /// A store holding one scalable capture, plus its interpretation.
    fn scalable_capture(n: usize) -> (MemBlobStore, tbm_interp::Interpretation) {
        let mut store = MemBlobStore::new();
        let (_blob, interp) = capture_video_scalable(
            &mut store,
            &frames(n),
            TimeSystem::PAL,
            DctParams::default(),
        )
        .unwrap();
        (store, interp)
    }

    fn scalable_db(n: usize) -> MediaDb {
        let (store, interp) = scalable_capture(n);
        let mut db = MediaDb::with_store(store);
        db.register_interpretation(interp).unwrap();
        db
    }

    fn open<S: tbm_blob::BlobStore>(
        server: &mut Server<S>,
        at: TimePoint,
        object: &str,
    ) -> (Option<SessionId>, AdmitDecision) {
        match server
            .request(
                at,
                Request::Open {
                    object: object.to_owned(),
                },
            )
            .unwrap()
        {
            Response::Opened { session, decision } => (session, decision),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    fn t(ms: i64) -> TimePoint {
        TimePoint::ZERO + TimeDelta::from_millis(ms)
    }

    #[test]
    fn single_session_plays_to_finish_on_time() {
        let db = scalable_db(12);
        let mut server = Server::new(db, Capacity::new(100_000_000));
        let (id, decision) = open(&mut server, t(0), "video1");
        assert_eq!(decision, AdmitDecision::Admitted);
        let id = id.unwrap();
        assert_eq!(server.session(id).unwrap().state(), SessionState::Opened);
        server.request(t(0), Request::Play { session: id }).unwrap();
        let stats = server.finish();
        assert_eq!(stats.finished_sessions, 1);
        assert_eq!(stats.elements_served, 12);
        assert_eq!(
            stats.deadline_misses, 0,
            "ample bandwidth must not miss deadlines"
        );
        assert_eq!(stats.committed_bps, 0, "finished sessions release capacity");
        assert_eq!(server.session(id).unwrap().remaining(), 0);
    }

    #[test]
    fn second_session_on_same_object_hits_the_cache() {
        let db = scalable_db(10);
        let mut server = Server::new(db, Capacity::new(100_000_000)).with_cache_budget(64 << 20);
        let (a, _) = open(&mut server, t(0), "video1");
        server
            .request(
                t(0),
                Request::Play {
                    session: a.unwrap(),
                },
            )
            .unwrap();
        server.run_until(t(2_000));
        let after_first = server.stats();
        assert_eq!(after_first.cache.hits, 0, "first session is all misses");

        let (b, _) = open(&mut server, t(2_000), "video1");
        server
            .request(
                t(2_000),
                Request::Play {
                    session: b.unwrap(),
                },
            )
            .unwrap();
        let stats = server.finish();
        assert_eq!(
            stats.cache.hits,
            stats.elements_served as u64, // 10 elements × 2 layers ÷ 2 sessions
            "every layer of the second session is served from cache"
        );
        assert_eq!(
            stats.storage_bytes_read, after_first.storage_bytes_read,
            "the second session adds no storage reads"
        );
    }

    #[test]
    fn admission_degrades_then_rejects_as_capacity_fills() {
        let db = scalable_db(10);
        // Probe the full-fidelity demand, then size capacity to fit exactly
        // one full session plus one base-layer session.
        let (interp, stream) = db.stream_of("video1").unwrap();
        let full_jobs = tbm_player::schedule_from_interp(stream, None);
        let full = tbm_player::demanded_rate(&full_jobs, stream.system())
            .unwrap()
            .ceil() as u64;
        let base_jobs = tbm_player::schedule_from_interp(stream, Some(1));
        let base = tbm_player::demanded_rate(&base_jobs, stream.system())
            .unwrap()
            .ceil() as u64;
        assert!(base < full);
        let _ = interp;

        let mut server = Server::new(db, Capacity::new(full + base + 1));
        let (_, d1) = open(&mut server, t(0), "video1");
        assert_eq!(d1, AdmitDecision::Admitted);
        let (s2, d2) = open(&mut server, t(0), "video1");
        assert_eq!(d2, AdmitDecision::Degraded { layers: 1 });
        assert!(s2.is_some());
        let (s3, d3) = open(&mut server, t(0), "video1");
        assert!(matches!(d3, AdmitDecision::Rejected { .. }));
        assert!(s3.is_none());

        let stats = server.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.admitted_degraded, 1);
        assert_eq!(stats.rejected, 1);
        assert!(stats.committed_bps <= full + base + 1);
        assert!(stats.committed_bps > 0);
        assert_eq!(server.committed_bps(), stats.committed_bps);
    }

    #[test]
    fn admit_all_overload_misses_deadlines_where_enforce_stays_bounded() {
        // Capacity fits roughly one full-rate session; open four at once.
        let db = scalable_db(10);
        let (_, stream) = db.stream_of("video1").unwrap();
        let full_jobs = tbm_player::schedule_from_interp(stream, None);
        let full = tbm_player::demanded_rate(&full_jobs, stream.system())
            .unwrap()
            .ceil() as u64;

        let run = |policy_all: bool| {
            let db = scalable_db(10);
            let cap = Capacity::new(full + full / 8);
            let cap = if policy_all { cap.admit_all() } else { cap };
            let mut server = Server::new(db, cap);
            for _ in 0..4 {
                let (id, _) = open(&mut server, t(0), "video1");
                if let Some(id) = id {
                    server.request(t(0), Request::Play { session: id }).unwrap();
                }
            }
            server.finish()
        };

        let uncontrolled = run(true);
        let controlled = run(false);
        assert_eq!(uncontrolled.sessions_admitted(), 4);
        assert!(
            uncontrolled.miss_rate() > 0.25,
            "oversubscribed server must miss deadlines (got {})",
            uncontrolled.miss_rate()
        );
        assert!(
            controlled.rejected > 0,
            "enforced admission must turn sessions away"
        );
        assert!(
            controlled.miss_rate() < uncontrolled.miss_rate(),
            "admission control must bound the miss rate ({} vs {})",
            controlled.miss_rate(),
            uncontrolled.miss_rate()
        );
    }

    #[test]
    fn pause_resume_and_close_release_capacity() {
        let db = scalable_db(10);
        let mut server = Server::new(db, Capacity::new(100_000_000));
        let (id, _) = open(&mut server, t(0), "video1");
        let id = id.unwrap();
        server.request(t(0), Request::Play { session: id }).unwrap();
        // Pause almost immediately: most elements should still be pending.
        let paused = server
            .request(t(1), Request::Pause { session: id })
            .unwrap();
        let remaining = match paused {
            Response::Paused { remaining, .. } => remaining,
            other => panic!("unexpected response: {other:?}"),
        };
        assert!(remaining > 0);
        assert_eq!(server.session(id).unwrap().state(), SessionState::Paused);
        // Nothing is served while paused.
        server.run_until(t(10_000));
        assert_eq!(server.session(id).unwrap().remaining(), remaining);
        // Resume, then close mid-flight.
        server
            .request(t(10_000), Request::Play { session: id })
            .unwrap();
        let closed = server
            .request(t(10_001), Request::Close { session: id })
            .unwrap();
        assert!(matches!(closed, Response::Closed { .. }));
        let stats = server.finish();
        assert_eq!(stats.closed_sessions, 1);
        assert_eq!(stats.committed_bps, 0, "close releases committed demand");
        assert!(
            stats.elements_served < 10,
            "closing mid-flight cancels queued elements"
        );
    }

    #[test]
    fn seek_and_rate_reshape_the_schedule() {
        let db = scalable_db(10);
        let mut server = Server::new(db, Capacity::new(100_000_000));
        let (id, _) = open(&mut server, t(0), "video1");
        let id = id.unwrap();
        // Seek before playing: drop the first half (PAL: 40ms per frame).
        let sought = server
            .request(
                t(0),
                Request::Seek {
                    session: id,
                    to: t(200),
                },
            )
            .unwrap();
        assert_eq!(
            sought,
            Response::Sought {
                session: id,
                remaining: 5
            }
        );
        // Double speed halves the wall-clock schedule and doubles demand.
        let rate = server
            .request(
                t(0),
                Request::SetRate {
                    session: id,
                    num: 2,
                    den: 1,
                },
            )
            .unwrap();
        assert_eq!(
            rate,
            Response::RateSet {
                session: id,
                accepted: true
            }
        );
        server.request(t(0), Request::Play { session: id }).unwrap();
        let stats = server.finish();
        assert_eq!(stats.elements_served, 5);
        assert_eq!(stats.finished_sessions, 1);
    }

    #[test]
    fn rate_increase_beyond_capacity_is_refused() {
        let db = scalable_db(10);
        let (_, stream) = db.stream_of("video1").unwrap();
        let full_jobs = tbm_player::schedule_from_interp(stream, None);
        let full = tbm_player::demanded_rate(&full_jobs, stream.system())
            .unwrap()
            .ceil() as u64;
        let mut server = Server::new(scalable_db(10), Capacity::new(full + 1));
        let (id, _) = open(&mut server, t(0), "video1");
        let id = id.unwrap();
        let rate = server
            .request(
                t(0),
                Request::SetRate {
                    session: id,
                    num: 2,
                    den: 1,
                },
            )
            .unwrap();
        assert_eq!(
            rate,
            Response::RateSet {
                session: id,
                accepted: false
            }
        );
        assert_eq!(server.session(id).unwrap().rate(), (1, 1));
        // Slowing down is always fine.
        let rate = server
            .request(
                t(0),
                Request::SetRate {
                    session: id,
                    num: 1,
                    den: 2,
                },
            )
            .unwrap();
        assert_eq!(
            rate,
            Response::RateSet {
                session: id,
                accepted: true
            }
        );
    }

    #[test]
    fn requests_must_be_monotonic_in_time() {
        let db = scalable_db(4);
        let mut server = Server::new(db, Capacity::new(100_000_000));
        let (id, _) = open(&mut server, t(100), "video1");
        let err = server
            .request(
                t(50),
                Request::Play {
                    session: id.unwrap(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::NonMonotonicTime { .. }));
    }

    #[test]
    fn bad_session_state_and_id_are_typed_errors() {
        let db = scalable_db(4);
        let mut server = Server::new(db, Capacity::new(100_000_000));
        let (id, _) = open(&mut server, t(0), "video1");
        let id = id.unwrap();
        let err = server
            .request(t(0), Request::Pause { session: id })
            .unwrap_err();
        assert!(matches!(err, ServeError::BadState { .. }));
        let err = server
            .request(
                t(0),
                Request::Play {
                    session: SessionId::new(77),
                },
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownSession { .. }));
        let err = server
            .request(
                t(0),
                Request::SetRate {
                    session: id,
                    num: 0,
                    den: 1,
                },
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::BadRate { .. }));
        let err = server
            .request(
                t(0),
                Request::Open {
                    object: "nope".into(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::Catalog(_)));
    }

    #[test]
    fn cache_absorbs_retry_storms_and_keeps_fault_accounting() {
        // Faults are deterministic per span address: transient errors clear
        // after N retries, corruption repeats forever. Session one pays the
        // retries and caches every span it verifies; session two is served
        // those spans from cache, so it never retries — only the permanently
        // corrupt spans (which can never be verified or cached) fault again.
        let (store, interp) = scalable_capture(12);
        let plan = FaultPlan::new(0xFEED)
            .with_transient(0.4)
            .with_corruption(0.2);
        let faulty = FaultyBlobStore::new(store, plan);
        let mut db = MediaDb::with_store(faulty);
        db.register_interpretation(interp).unwrap();
        let cap = Capacity::new(100_000_000);

        let mut server = Server::new(db, cap).with_cache_budget(64 << 20);
        let (a, _) = open(&mut server, t(0), "video1");
        let a = a.unwrap();
        server.request(t(0), Request::Play { session: a }).unwrap();
        server.run_until(t(5_000));
        let (b, _) = open(&mut server, t(5_000), "video1");
        let b = b.unwrap();
        server
            .request(t(5_000), Request::Play { session: b })
            .unwrap();
        let total = server.finish();

        let first = server.session(a).unwrap().stats();
        let second = server.session(b).unwrap().stats();
        assert!(
            first.recovered > 0,
            "the seed must produce transient faults for session one"
        );
        assert!(
            first.degraded + first.dropped > 0,
            "the seed must produce permanent corruption"
        );
        assert_eq!(
            second.recovered, 0,
            "verified spans come from the cache; session two never retries"
        );
        assert_eq!(
            second.degraded + second.dropped,
            first.degraded + first.dropped,
            "per-address corruption faults repeat identically per session"
        );
        assert!(second.cache_hits > 0);
        assert_eq!(
            total.faults_detected,
            total.degraded_elements + total.dropped_elements + total.repaired_elements,
            "fault accounting invariant"
        );
    }

    #[test]
    fn degraded_session_upgrades_to_full_fidelity_when_capacity_frees() {
        let db = scalable_db(10);
        let (_, stream) = db.stream_of("video1").unwrap();
        let full_jobs = tbm_player::schedule_from_interp(stream, None);
        let full = tbm_player::demanded_rate(&full_jobs, stream.system())
            .unwrap()
            .ceil() as u64;
        let base_jobs = tbm_player::schedule_from_interp(stream, Some(1));
        let base = tbm_player::demanded_rate(&base_jobs, stream.system())
            .unwrap()
            .ceil() as u64;

        // Capacity fits one full session plus one base-layer session.
        let mut server = Server::new(db, Capacity::new(full + base + 1));
        let (a, d1) = open(&mut server, t(0), "video1");
        assert_eq!(d1, AdmitDecision::Admitted);
        let (b, d2) = open(&mut server, t(0), "video1");
        assert_eq!(d2, AdmitDecision::Degraded { layers: 1 });
        let (a, b) = (a.unwrap(), b.unwrap());
        server.request(t(0), Request::Play { session: a }).unwrap();
        // Session A finishes well before t=2s; the capacity it releases
        // lifts B back to full fidelity while B is still waiting to play.
        server.run_until(t(2_000));
        assert_eq!(server.session(a).unwrap().state(), SessionState::Finished);
        assert_eq!(
            server.session(b).unwrap().decision(),
            AdmitDecision::Admitted,
            "degraded session must recover full fidelity once capacity frees"
        );
        assert_eq!(server.stats().upgraded_sessions, 1);
        assert_eq!(
            server.stats().admitted_degraded,
            1,
            "admission-time counters are history, not current state"
        );

        server
            .request(t(2_000), Request::Play { session: b })
            .unwrap();
        let total = server.finish();
        assert_eq!(total.finished_sessions, 2);
        // B served the full two-layer plan: as many layer reads as A.
        let sa = server.session(a).unwrap().stats();
        let sb = server.session(b).unwrap().stats();
        assert_eq!(
            sb.cache_hits + sb.cache_misses,
            sa.cache_hits + sa.cache_misses
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let db = scalable_db(10);
            let mut server = Server::new(db, Capacity::new(4_000_000)).with_cache_budget(1 << 20);
            let mut ids = Vec::new();
            for i in 0..6 {
                let (id, _) = open(&mut server, t(i * 100), "video1");
                if let Some(id) = id {
                    server
                        .request(t(i * 100), Request::Play { session: id })
                        .unwrap();
                    ids.push(id);
                }
            }
            server.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traced_run_matches_untraced_and_attributes_every_miss() {
        use tbm_obs::{
            Category, Tracer, ATTR_ELEMENT_INDEX, ATTR_LATENESS_US, ATTR_WAIT_US, ELEMENT_SPAN,
        };

        // A channel sized for ~one session, four admitted anyway, plus a
        // fault plan: deadline misses and degradations are guaranteed, so
        // the trace has something to say.
        let probe = scalable_db(12);
        let (_, stream) = probe.stream_of("video1").unwrap();
        let full_jobs = tbm_player::schedule_from_interp(stream, None);
        let full = tbm_player::demanded_rate(&full_jobs, stream.system())
            .unwrap()
            .ceil() as u64;

        let run = |tracer: Option<Tracer>| {
            let (store, interp) = scalable_capture(12);
            let plan = FaultPlan::new(0xFEED)
                .with_transient(0.4)
                .with_corruption(0.2);
            let mut faulty = FaultyBlobStore::new(store, plan);
            if let Some(t) = &tracer {
                faulty = faulty.with_tracer(t.clone());
            }
            let mut db = MediaDb::with_store(faulty);
            db.register_interpretation(interp).unwrap();
            let mut server = Server::new(db, Capacity::new(full + full / 8).admit_all())
                .with_cache_budget(1 << 20);
            if let Some(t) = &tracer {
                server = server.with_tracer(t.clone());
            }
            for _ in 0..4 {
                let (id, _) = open(&mut server, t(0), "video1");
                if let Some(id) = id {
                    server.request(t(0), Request::Play { session: id }).unwrap();
                }
            }
            (server.finish(), server.attribution(), server.trace())
        };

        let (traced, report, snap) = run(Some(Tracer::new()));
        let (untraced, _, _) = run(None);
        assert_eq!(traced, untraced, "tracing must not perturb the run");

        assert!(!snap.records.is_empty());
        let elements: Vec<_> = snap
            .records
            .iter()
            .filter(|r| r.name == ELEMENT_SPAN)
            .collect();
        assert_eq!(elements.len(), traced.elements_served);
        for e in &elements {
            assert_eq!(e.cat, Category::Serve);
            assert!(e.session.is_some(), "element spans carry their session");
            assert!(!e.parent.is_none(), "element spans hang off session roots");
            assert!(e.attr(ATTR_ELEMENT_INDEX).is_some());
            assert!(e.attr(ATTR_WAIT_US).is_some());
            assert!(e.attr(ATTR_LATENESS_US).is_some());
        }
        // Injected storage faults share the same timeline.
        assert!(snap.records.iter().any(|r| r.cat == Category::Fault));

        // Every deadline miss gets exactly one cause.
        assert!(traced.deadline_misses > 0, "undersized channel must miss");
        assert_eq!(report.total(), traced.deadline_misses);
        let by_cause: usize = report.by_cause().iter().map(|&(_, n)| n).sum();
        assert_eq!(by_cause, report.total());
    }

    #[test]
    fn trace_export_is_valid_json_and_stats_match_registry() {
        use tbm_obs::{validate_json, Tracer};

        let db = scalable_db(8);
        let mut server = Server::new(db, Capacity::new(50_000_000))
            .with_cache_budget(1 << 20)
            .with_tracer(Tracer::new());
        let (id, _) = open(&mut server, t(0), "video1");
        let id = id.unwrap();
        server.request(t(0), Request::Play { session: id }).unwrap();
        let stats = server.finish();

        let mut buf = Vec::new();
        server.trace_to_writer(&mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        validate_json(&json).expect("chrome trace must be well-formed JSON");

        // The snapshot is materialised from the registry, not shadow state.
        assert_eq!(
            server.metrics().counter("serve.elements.served") as usize,
            stats.elements_served
        );
        assert_eq!(stats.service.count() as usize, stats.elements_served);
    }

    // ------------------------------------------------------------------
    // Sharded catalogs
    // ------------------------------------------------------------------

    /// Captures a scalable movie into `store` under `name`: the capture
    /// helper names its stream "video1", so the stream is re-hung under
    /// the caller's name on a fresh interpretation of the same BLOB.
    fn named_capture(store: &mut MemBlobStore, name: &str, n: usize) -> tbm_interp::Interpretation {
        let (blob, interp) =
            capture_video_scalable(store, &frames(n), TimeSystem::PAL, DctParams::default())
                .unwrap();
        let stream = interp.stream("video1").unwrap().clone();
        let mut renamed = tbm_interp::Interpretation::new(blob);
        renamed.add_stream(name, stream).unwrap();
        renamed
    }

    /// `names` captured into the shards that own them, identically per
    /// name regardless of the shard count.
    fn sharded_catalog(names: &[&str], shards: usize, seed: u64, n_frames: usize) -> ShardedDb {
        let mut db = ShardedDb::new(shards, seed);
        for name in names {
            let interp = named_capture(db.store_for_mut(name), name, n_frames);
            let (shard, _) = db.register_interpretation(interp).unwrap();
            assert_eq!(shard, db.shard_for(name), "owner chosen by routing hash");
        }
        db
    }

    #[test]
    fn sharded_server_routes_every_session_to_its_owning_shard() {
        let names = ["movie0", "movie1", "movie2", "movie3", "movie4", "movie5"];
        let db = sharded_catalog(&names, 3, 42, 6);
        let mut server = ShardedServer::new(db, Capacity::new(100_000_000));
        for (i, name) in names.iter().enumerate() {
            let at = t(i as i64 * 10);
            let expect = server.shard_for(name);
            let Response::Opened {
                session: Some(id), ..
            } = server
                .request(
                    at,
                    Request::Open {
                        object: (*name).to_owned(),
                    },
                )
                .unwrap()
            else {
                panic!("ample capacity must admit {name}");
            };
            assert_eq!(server.shard_of_session(id), Some(expect));
            assert_eq!(server.session(id).unwrap().object(), *name);
            server.request(at, Request::Play { session: id }).unwrap();
        }
        let stats = server.finish();
        assert_eq!(stats.global.finished_sessions, names.len());
        assert_eq!(stats.global.elements_served, 6 * names.len());
        // No cross-shard leakage: each shard's sessions serve only objects
        // it owns, and the global view is exactly the per-shard sum.
        for (i, shard) in server.shards().enumerate() {
            for s in shard.sessions() {
                assert_eq!(server.shard_for(s.object()), i);
            }
        }
        let summed: usize = stats.per_shard.iter().map(|s| s.elements_served).sum();
        assert_eq!(summed, stats.global.elements_served);
    }

    #[test]
    fn sharded_front_end_enforces_one_clock_and_knows_its_ids() {
        let db = sharded_catalog(&["movie0", "movie1"], 2, 7, 4);
        let mut server = ShardedServer::new(db, Capacity::new(100_000_000));
        let Response::Opened {
            session: Some(id), ..
        } = server
            .request(
                t(100),
                Request::Open {
                    object: "movie0".to_owned(),
                },
            )
            .unwrap()
        else {
            panic!("must admit");
        };
        // Time is fleet-global: an earlier request is refused even if the
        // target shard's own clock has not advanced that far.
        let err = server
            .request(
                t(50),
                Request::Open {
                    object: "movie1".to_owned(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::NonMonotonicTime { .. }));
        // An id no shard could have issued is unknown at the front end.
        let bogus = tbm_core::SessionId::new(99 * SHARD_SESSION_STRIDE);
        let err = server
            .request(t(100), Request::Play { session: bogus })
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownSession { .. }));
        // A plausible-shard id that was never allocated is unknown too
        // (caught inside the shard, not the router).
        let unallocated = tbm_core::SessionId::new(SHARD_SESSION_STRIDE + 5);
        let err = server
            .request(
                t(100),
                Request::Play {
                    session: unallocated,
                },
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownSession { .. }));
        // The real session still works end to end through the router.
        server
            .request(t(100), Request::Play { session: id })
            .unwrap();
        let stats = server.finish();
        assert_eq!(stats.global.finished_sessions, 1);
    }

    #[test]
    fn per_object_timing_is_identical_at_one_and_many_shards() {
        use std::collections::BTreeMap;

        let names = ["movie0", "movie1", "movie2", "movie3", "movie4"];
        // Sequential, non-overlapping sessions: each object's playback sees
        // an idle channel in both arms, so sharding must not change a
        // single element's timing.
        let run = |shards: usize| -> (BTreeMap<String, SessionStats>, ServerStats) {
            let db = sharded_catalog(&names, shards, 11, 8);
            let mut server =
                ShardedServer::new(db, Capacity::new(3_000_000)).with_cache_budget(32 << 20);
            for (i, name) in names.iter().enumerate() {
                let at = t(i as i64 * 3_000);
                let Response::Opened {
                    session: Some(id), ..
                } = server
                    .request(
                        at,
                        Request::Open {
                            object: (*name).to_owned(),
                        },
                    )
                    .unwrap()
                else {
                    panic!("sequential sessions must all admit");
                };
                server.request(at, Request::Play { session: id }).unwrap();
            }
            let stats = server.finish();
            let per_object = server
                .sessions()
                .map(|s| (s.object().to_owned(), s.stats()))
                .collect();
            (per_object, stats.global)
        };

        let (objects_1, global_1) = run(1);
        let (objects_4, global_4) = run(4);
        assert_eq!(
            objects_1, objects_4,
            "per-object playback stats must not depend on the shard count"
        );
        assert_eq!(
            global_1.service, global_4.service,
            "the merged service-time distribution is bit-identical"
        );
        assert_eq!(global_1.lateness, global_4.lateness);
        assert_eq!(global_1.elements_served, global_4.elements_served);
    }

    #[test]
    fn sharded_metrics_roll_up_with_prefixes_and_skew() {
        let names = ["movie0", "movie1", "movie2", "movie3"];
        let db = sharded_catalog(&names, 2, 3, 5);
        let mut server = ShardedServer::new(db, Capacity::new(100_000_000));
        for (i, name) in names.iter().enumerate() {
            let at = t(i as i64 * 10);
            if let Response::Opened {
                session: Some(id), ..
            } = server
                .request(
                    at,
                    Request::Open {
                        object: (*name).to_owned(),
                    },
                )
                .unwrap()
            {
                server.request(at, Request::Play { session: id }).unwrap();
            }
        }
        let stats = server.finish();
        let m = server.metrics();
        let per_shard_sum: u64 = (0..server.shard_count())
            .map(|i| m.counter(&format!("shard{i}.serve.elements.served")))
            .sum();
        assert_eq!(per_shard_sum, m.counter("serve.elements.served"));
        assert_eq!(
            m.counter("serve.elements.served") as usize,
            stats.global.elements_served
        );
        assert_eq!(m.gauge("shard.skew"), stats.skew_percent());
        assert!(m.gauge("shard.skew") >= 0);
        // The merged lateness/service histograms in the registry match the
        // rollup snapshot exactly.
        assert_eq!(
            m.histogram_or_empty("serve.service_us", &tbm_obs::LATENCY_BUCKETS_US),
            stats.global.service
        );
    }

    #[test]
    fn straddling_interpretations_are_refused() {
        let mut db = ShardedDb::new(4, 0);
        // Find two names that hash to different shards, then put both
        // streams on one interpretation.
        let names: Vec<String> = (0..32).map(|i| format!("s{i}")).collect();
        let a = &names[0];
        let b = names
            .iter()
            .find(|n| db.shard_for(n) != db.shard_for(a))
            .expect("32 names must cover more than one of 4 shards");
        let store = db.store_for_mut(a);
        let (blob, interp) =
            capture_video_scalable(store, &frames(3), TimeSystem::PAL, DctParams::default())
                .unwrap();
        let stream = interp.stream("video1").unwrap().clone();
        let mut straddling = tbm_interp::Interpretation::new(blob);
        straddling.add_stream(a, stream.clone()).unwrap();
        straddling.add_stream(b, stream).unwrap();
        let err = db.register_interpretation(straddling).unwrap_err();
        assert!(matches!(err, ShardError::Straddles { .. }), "got {err}");
        assert!(!db.contains_object(a), "nothing registered on refusal");
    }
}
