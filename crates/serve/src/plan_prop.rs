//! Property tests for the serve plan, a view of the catalog's element
//! table.
//!
//! * Against its naive twin: [`CopiedPlan`] is the plan as it was built
//!   before it became a view — every row copied into a unit-rate job list,
//!   a flattened layer list and a start index, with the anchor kept as a
//!   scaled relative deadline in seconds. Over random tables (gaps, equal
//!   starts, zero durations, layered and out-of-order placements, with and
//!   without checksums) both fidelities, random rates and seeks before,
//!   on, between and after the rows must agree on every queued deadline,
//!   every layer and span list, `remaining` after a seek, and the demand.
//! * Against `PlaybackSim`: a one-session server under `AdmitAll`, with no
//!   cache and a clean store, keeps the presentation clock the player
//!   keeps with a one-element startup buffer — same misses, same exact
//!   worst lateness, and the same per-element `lateness_us` in both traces.

use crate::session::ObjectPlan;
use crate::{Capacity, Request, Response, Server, Session, SessionState, SessionStats};
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use std::ops::Range;
use std::sync::Arc;
use tbm_blob::{BlobStore, ByteSpan, MemBlobStore};
use tbm_core::{BlobId, MediaDescriptor, MediaKind, SessionId};
use tbm_db::MediaDb;
use tbm_interp::{ElementEntry, Interpretation, StreamInterp};
use tbm_obs::{SpanId, Tracer, ATTR_LATENESS_US, ELEMENT_SPAN};
use tbm_player::{
    demanded_rate, schedule_at_rate, schedule_from_interp, CostModel, ElementJob, PlaybackSim,
};
use tbm_time::{Rational, TimeDelta, TimePoint, TimeSystem};

/// The plan before it became a view: the per-element copy.
struct CopiedPlan {
    jobs: Vec<ElementJob>,
    layers: Vec<(ByteSpan, Option<u32>)>,
    starts: Vec<usize>,
    unit_demand: Rational,
}

impl CopiedPlan {
    fn build(stream: &StreamInterp, layers_cap: Option<usize>) -> CopiedPlan {
        let jobs = schedule_from_interp(stream, layers_cap);
        let unit_demand = demanded_rate(&jobs, stream.system()).unwrap_or(Rational::ZERO);
        let mut layers = Vec::new();
        let mut starts = Vec::with_capacity(jobs.len() + 1);
        for job in &jobs {
            let entry = &stream.entries()[job.index];
            let all = entry.placement.layers();
            let take = layers_cap.unwrap_or(all.len()).min(all.len()).max(1);
            starts.push(layers.len());
            layers.extend(
                all[..take]
                    .iter()
                    .enumerate()
                    .map(|(li, &span)| (span, entry.checksums.get(li).copied())),
            );
        }
        starts.push(layers.len());
        CopiedPlan {
            jobs,
            layers,
            starts,
            unit_demand,
        }
    }

    fn layers_of(&self, pos: usize) -> &[(ByteSpan, Option<u32>)] {
        &self.layers[self.starts[pos]..self.starts[pos + 1]]
    }

    fn spans_of(&self, pending: Range<usize>) -> Vec<ByteSpan> {
        self.layers[self.starts[pending.start]..self.starts[pending.end]]
            .iter()
            .map(|&(span, _)| span)
            .collect()
    }

    fn seek(&self, to: TimePoint) -> Range<usize> {
        self.jobs.partition_point(|j| j.deadline < to)..self.jobs.len()
    }

    /// How far past the anchor's first element `pos` is due, in seconds at
    /// `num/den` × normal speed.
    fn rel(&self, pos: usize, (num, den): (u32, u32)) -> Rational {
        self.jobs[pos].deadline.seconds() * Rational::new(den as i64, num as i64)
    }

    /// The copy's anchor: the scaled relative deadline of the first
    /// pending element when the session is anchored.
    fn anchor_rel(&self, pending: &Range<usize>, rate: (u32, u32)) -> Rational {
        if pending.is_empty() {
            Rational::ZERO
        } else {
            self.rel(pending.start, rate)
        }
    }
}

/// A random element table over a random time system: runs of equal
/// starts, gaps, zero durations, one to three layers per element placed at
/// scattered (decode-order-like) offsets, checksums on some tables only.
fn random_stream(rng: &mut TestRng) -> StreamInterp {
    let systems = [
        Rational::from(25),
        Rational::new(30_000, 1_001),
        Rational::from(44_100),
        Rational::new(1_000, 3),
    ];
    let system = TimeSystem::new(systems[rng.below(4) as usize]).unwrap();
    let with_checksums = rng.below(2) == 0;
    let mut start = rng.below(100) as i64 - 50;
    let entries = (0..rng.below(24))
        .map(|_| {
            start += [0, 1, 1, 1, 2, 7][rng.below(6) as usize];
            let spans: Vec<ByteSpan> = (0..1 + rng.below(3))
                .map(|_| ByteSpan::new(rng.below(10_000), 1 + rng.below(200)))
                .collect();
            let mut e = ElementEntry::simple(start, rng.below(3) as i64, spans[0])
                .with_layers(spans)
                .unwrap();
            if with_checksums {
                e.checksums = (0..e.placement.layer_count())
                    .map(|_| rng.next_u64() as u32)
                    .collect();
            }
            if rng.below(3) == 0 {
                e = e.non_key();
            }
            e
        })
        .collect();
    StreamInterp::new(MediaDescriptor::new(MediaKind::Video), system, entries).unwrap()
}

/// A catalog holding `stream` as object `clip` of `blob` in `store`.
fn catalog(stream: StreamInterp, store: MemBlobStore, blob: BlobId) -> MediaDb {
    let mut interp = Interpretation::new(blob);
    interp.add_stream("clip", stream).unwrap();
    let mut db = MediaDb::with_store(store);
    db.register_interpretation(interp).unwrap();
    db
}

/// A session on `plan` that nothing has anchored yet.
fn session(plan: Arc<ObjectPlan>, rows: usize) -> Session {
    Session {
        id: SessionId::new(0),
        state: SessionState::Playing,
        plan,
        pending: 0..rows,
        epoch: 0,
        rate: (1, 1),
        play_time: TimePoint::ZERO,
        anchor_tick: 0,
        clock_base: None,
        demand: Rational::ZERO,
        charged: Rational::ZERO,
        have_good: false,
        stats: SessionStats::default(),
        span: SpanId::NONE,
        last_ready: TimePoint::ZERO,
        last_lateness_us: 0,
    }
}

/// Holds the view to the copy on every question a session asks of it.
fn view_matches_copy(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = TestRng::from_seed(seed);
    let stream = random_stream(&mut rng);
    let freq = stream.system().frequency();
    let span_ticks = stream.tick_span().map_or(0, |(a, b)| b - a);
    let mut store = MemBlobStore::new();
    let blob = store.create().unwrap();
    let db = catalog(stream.clone(), store, blob);
    for cap in [None, Some(1)] {
        let copy = CopiedPlan::build(&stream, cap);
        let view = ObjectPlan::new(&db, "clip", cap).unwrap();
        prop_assert_eq!(view.unit_demand, copy.unit_demand);
        let rows = view.rows(&db);
        let n = rows.len();
        prop_assert_eq!(n, copy.jobs.len());
        for (pos, row) in rows.iter().enumerate() {
            let layers: Vec<_> = view.layers_of(row).collect();
            prop_assert_eq!(&layers[..], copy.layers_of(pos), "row {}", pos);
        }
        for _ in 0..4 {
            let a = rng.below(n as u64 + 1) as usize;
            let b = a + rng.below((n - a) as u64 + 1) as usize;
            let spans: Vec<_> = view.spans_of(&rows[a..b]).collect();
            prop_assert_eq!(spans, copy.spans_of(a..b));
        }

        let mut s = session(Arc::new(view), n);
        let mut now = 0i64;
        for _ in 0..8 {
            // Seek to a third of a tick anywhere from ten ticks before the
            // first row to ten after the last: on a row's tick, between
            // rows, before and after them all.
            let thirds = rng.below(3 * (span_ticks as u64 + 20)) as i64 - 30;
            let to = TimePoint::from_seconds(Rational::from(thirds) / (freq * Rational::from(3)));
            s.pending = s.plan.seek(rows, to);
            prop_assert_eq!(&s.pending, &copy.seek(to), "seek to {:?}", to);
            s.rate = (1 + rng.below(4) as u32, 1 + rng.below(4) as u32);
            now += rng.below(1_000) as i64;
            let at = TimePoint::ZERO + TimeDelta::from_millis(now);
            s.anchor(rows, at);
            let anchor_rel = copy.anchor_rel(&s.pending, s.rate);
            // Serve a few rows without re-anchoring: the anchor stays put.
            for _ in 0..3 {
                for pos in s.pending.clone() {
                    let copied = at + TimeDelta::from_seconds(copy.rel(pos, s.rate) - anchor_rel);
                    prop_assert_eq!(
                        s.queued_deadline(rows, pos),
                        copied,
                        "row {} of {:?} at rate {:?}",
                        pos,
                        s.pending,
                        s.rate
                    );
                }
                let served = rng.below(s.pending.len() as u64 + 1) as usize;
                s.pending.start += served;
            }
        }
    }
    Ok(())
}

/// Plays `stream` on a one-session server and through `PlaybackSim` on
/// one cost model at `num/den` × normal speed, and compares the two.
fn server_matches_player(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = TestRng::from_seed(seed);
    // Real bytes behind every span: each layer is appended in row order.
    let mut store = MemBlobStore::new();
    let blob = store.create().unwrap();
    let mut start = rng.below(10) as i64;
    let entries: Vec<ElementEntry> = (0..1 + rng.below(24))
        .map(|_| {
            start += [0, 1, 1, 2, 5][rng.below(5) as usize];
            let spans: Vec<ByteSpan> = (0..1 + rng.below(3))
                .map(|_| {
                    let len = 1 + rng.below(4_000) as usize;
                    store.append(blob, &vec![7u8; len]).unwrap()
                })
                .collect();
            ElementEntry::simple(start, rng.below(2) as i64, spans[0])
                .with_layers(spans)
                .unwrap()
        })
        .collect();
    let system =
        TimeSystem::new([Rational::from(25), Rational::new(30_000, 1_001)][rng.below(2) as usize])
            .unwrap();
    let stream =
        StreamInterp::new(MediaDescriptor::new(MediaKind::Video), system, entries).unwrap();
    // Round rates keep every sum of service times inside `Rational`'s
    // range on both sides.
    let cost = CostModel::bandwidth_only(50_000 * (1 + rng.below(40)))
        .with_decode_rate(100_000 * rng.below(40))
        .with_overhead_us(10 * rng.below(300));
    let (num, den) = (1 + rng.below(4) as u32, 1 + rng.below(4) as u32);

    let capacity = Capacity::new(cost.bandwidth)
        .with_decode_rate(cost.decode_rate)
        .with_overhead_us(cost.overhead_us)
        .admit_all();
    let db = catalog(stream.clone(), store, blob);
    let mut server = Server::new(db, capacity).with_tracer(Tracer::with_capacity(1 << 12));
    let t0 = TimePoint::ZERO + TimeDelta::from_millis(rng.below(500) as i64);
    let Response::Opened {
        session: Some(id), ..
    } = server
        .request(
            t0,
            Request::Open {
                object: "clip".into(),
            },
        )
        .unwrap()
    else {
        return Err(TestCaseError::fail("AdmitAll admits"));
    };
    server
        .request(
            t0,
            Request::SetRate {
                session: id,
                num,
                den,
            },
        )
        .unwrap();
    server.request(t0, Request::Play { session: id }).unwrap();
    let stats = server.finish();

    let player_trace = Tracer::with_capacity(1 << 12);
    let jobs = schedule_at_rate(&stream, None, num, den).unwrap();
    let sim = PlaybackSim::new(cost)
        .with_startup(1)
        .run_traced(&jobs, &[], &player_trace, None);

    prop_assert_eq!(stats.elements_served, jobs.len());
    prop_assert_eq!(stats.dropped_elements, 0);
    prop_assert_eq!(stats.deadline_misses, sim.misses);
    let session = server.session(id).unwrap().stats();
    prop_assert_eq!(session.max_lateness, sim.max_lateness);
    let lateness = |trace: &Tracer, name: &str| -> Vec<i64> {
        trace
            .snapshot()
            .records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.attr_i64(ATTR_LATENESS_US))
            .collect()
    };
    prop_assert_eq!(
        lateness(server.tracer(), ELEMENT_SPAN),
        lateness(&player_trace, "player.element")
    );
    Ok(())
}

/// A seek instant whose tick count overflows `i64` is a request the
/// server must still answer: past the end leaves nothing pending, before
/// the start leaves everything, as the copy's comparison in seconds does.
#[test]
fn seek_saturates_far_outside_the_table() {
    let mut rng = TestRng::from_seed(7);
    let stream = loop {
        let stream = random_stream(&mut rng);
        if !stream.is_empty() {
            break stream;
        }
    };
    let mut store = MemBlobStore::new();
    let blob = store.create().unwrap();
    let db = catalog(stream.clone(), store, blob);
    let view = ObjectPlan::new(&db, "clip", None).unwrap();
    let copy = CopiedPlan::build(&stream, None);
    let rows = view.rows(&db);
    for secs in [i64::MAX / 2, i64::MIN / 2] {
        let to = TimePoint::from_secs(secs);
        assert_eq!(view.seek(rows, to), copy.seek(to), "seek to {secs} s");
    }
    assert!(view
        .seek(rows, TimePoint::from_secs(i64::MAX / 2))
        .is_empty());
    assert_eq!(
        view.seek(rows, TimePoint::from_secs(i64::MIN / 2)).len(),
        rows.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_view_agrees_with_the_copied_plan(seed in any::<u64>()) {
        view_matches_copy(seed)?;
    }

    #[test]
    fn one_session_server_keeps_the_players_clock(seed in any::<u64>()) {
        server_matches_player(seed)?;
    }
}
