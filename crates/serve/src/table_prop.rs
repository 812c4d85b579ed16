//! Property test for the session table: random request scripts, interleaved
//! with every lever that re-plans, re-prices or sheds sessions, on a
//! capacity tight enough that degraded admissions and upgrades happen.
//!
//! After every step the server's running tallies must equal a recount
//! ([`Server::check_invariants`]) and every session's `remaining()` must
//! equal a `BTreeSet` of pending positions the test maintains itself — the
//! representation the session's `pending` range replaced. The whole
//! deterministic surface (stats, metrics render, trace bytes) must repeat
//! exactly run to run, and stats and metrics at 1 and 4 workers.

use crate::{
    shard_of, Capacity, Request, Response, Server, ShardedDb, ShardedServer, SHARD_SESSION_STRIDE,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;
use tbm_blob::{FaultPlan, FaultyBlobStore, MemBlobStore};
use tbm_codec::dct::DctParams;
use tbm_core::SessionId;
use tbm_interp::capture::capture_video_scalable;
use tbm_interp::Interpretation;
use tbm_media::gen::{render_frames, VideoPattern};
use tbm_obs::Tracer;
use tbm_player::{demanded_rate, schedule_from_interp};
use tbm_time::{TimeDelta, TimePoint, TimeSystem};

type Store = FaultyBlobStore<MemBlobStore>;

const SHARDS: usize = 3;
const OBJECTS: usize = 5;
const FRAMES: usize = 12;
/// PAL: one element every 40 ms.
const FRAME_MS: i64 = 40;

fn t(ms: i64) -> TimePoint {
    TimePoint::ZERO + TimeDelta::from_millis(ms)
}

fn names() -> Vec<String> {
    (0..OBJECTS).map(|i| format!("movie{i}")).collect()
}

/// `OBJECTS` identical scalable movies spread over `SHARDS` mildly faulty
/// stores, plus one movie's full and base-layer demand in bytes/s.
fn fixture(seed: u64) -> (ShardedDb<Store>, u64, u64) {
    let mut stores: Vec<MemBlobStore> = (0..SHARDS).map(|_| MemBlobStore::new()).collect();
    let frames = render_frames(VideoPattern::MovingBar, 0, FRAMES, 48, 32);
    let mut interps = Vec::new();
    let mut demand = (0, 0);
    for name in names() {
        let owner = shard_of(&name, seed, SHARDS);
        let (blob, interp) = capture_video_scalable(
            &mut stores[owner],
            &frames,
            TimeSystem::PAL,
            DctParams::default(),
        )
        .unwrap();
        let stream = interp.stream("video1").unwrap().clone();
        let rate = |layers| {
            let jobs = schedule_from_interp(&stream, layers);
            demanded_rate(&jobs, stream.system()).unwrap().ceil() as u64
        };
        demand = (rate(None), rate(Some(1)));
        let mut renamed = Interpretation::new(blob);
        renamed.add_stream(&name, stream).unwrap();
        interps.push(renamed);
    }
    let faulty = stores
        .into_iter()
        .enumerate()
        .map(|(i, store)| {
            let plan = FaultPlan::new(seed ^ (i as u64 + 1))
                .with_transient(0.1)
                .with_corruption(0.05);
            FaultyBlobStore::new(store, plan)
        })
        .collect();
    let mut db = ShardedDb::with_stores(faulty, seed);
    for interp in interps {
        db.register_interpretation(interp).unwrap();
    }
    (db, demand.0, demand.1)
}

/// One step of a script. Session-addressed steps carry a pick that is
/// reduced modulo the sessions admitted so far (dead ones included, so
/// refused requests are part of the script).
#[derive(Debug, Clone, Copy)]
enum Step {
    Open(usize),
    Play(usize),
    Pause(usize),
    Seek(usize, i64),
    SetRate(usize, u32, u32),
    Close(usize),
    ForceDegrade,
    ReleaseDegrade,
    Shed(usize),
    /// Every shard's budget becomes this many full sessions (plus one base).
    SetCapacity(u64),
}

fn step() -> impl Strategy<Value = (Step, i64)> {
    (0u8..16, 0usize..64, 0u32..4, 0i64..90).prop_map(|(kind, pick, arg, dt)| {
        let step = match kind {
            0..=3 => Step::Open(pick),
            4..=6 => Step::Play(pick),
            7 => Step::Pause(pick),
            // Forwards and backwards, and past either end of the movie.
            8 | 9 => Step::Seek(
                pick,
                (pick as i64 * 37) % (FRAMES as i64 * FRAME_MS + 80) - 40,
            ),
            10 => Step::SetRate(pick, [1, 2, 1, 3][arg as usize], [1, 1, 2, 2][arg as usize]),
            11 => Step::Close(pick),
            12 => Step::ForceDegrade,
            13 => Step::ReleaseDegrade,
            14 => Step::Shed(pick),
            _ => Step::SetCapacity(arg as u64),
        };
        (step, dt)
    })
}

/// What the test believes about one admitted session.
struct Model {
    id: SessionId,
    pending: BTreeSet<usize>,
    /// `stats().elements` already reflected in `pending`.
    accounted: usize,
}

/// Takes the elements each session was served since the last call out of
/// its model (lowest positions first: a session is served in order), then
/// holds the server to the model and to its own invariants.
fn settle(server: &ShardedServer<Store>, models: &mut [Model]) -> Result<(), TestCaseError> {
    for m in models.iter_mut() {
        let s = server.session(m.id).expect("admitted sessions stay listed");
        let served = s.stats().elements - m.accounted;
        prop_assert!(
            served <= m.pending.len(),
            "{} served more than pended",
            m.id
        );
        for _ in 0..served {
            m.pending.pop_first();
        }
        m.accounted += served;
        prop_assert_eq!(s.remaining(), m.pending.len(), "{}", m.id);
    }
    prop_assert_eq!(server.check_invariants(), Ok(()));
    Ok(())
}

/// Runs `script` at `workers` workers, on `tracer`, and returns the
/// deterministic surface: stats, metrics render and Chrome trace bytes.
fn run(
    seed: u64,
    script: &[(Step, i64)],
    workers: usize,
    tracer: Tracer,
) -> Result<(String, String, Vec<u8>), TestCaseError> {
    let (db, full, base) = fixture(seed);
    let budget = |fulls: u64| Capacity::new(fulls * full + base + 1);
    let mut server = ShardedServer::new(db, budget(2))
        .with_cache_budget(1 << 20)
        .with_tracer(tracer);
    server.set_workers(workers);
    let names = names();
    let mut models: Vec<Model> = Vec::new();
    let mut now = 0i64;
    for &(step, dt) in script {
        now += dt;
        let at = t(now);
        // Serve what is due first, so the step itself moves no element.
        server.run_until(at);
        settle(&server, &mut models)?;
        let pick = |p: usize| (!models.is_empty()).then(|| p % models.len());
        match step {
            Step::Open(p) => {
                let object = names[p % OBJECTS].clone();
                let Response::Opened { session, .. } =
                    server.request(at, Request::Open { object }).unwrap()
                else {
                    panic!("Open answers Opened");
                };
                if let Some(id) = session {
                    models.push(Model {
                        id,
                        pending: (0..FRAMES).collect(),
                        accounted: 0,
                    });
                }
            }
            Step::Seek(p, to_ms) => {
                if let Some(i) = pick(p) {
                    let session = models[i].id;
                    let to = t(to_ms);
                    if server.request(at, Request::Seek { session, to }).is_ok() {
                        models[i].pending = (0..FRAMES)
                            .filter(|&pos| pos as i64 * FRAME_MS >= to_ms)
                            .collect();
                    }
                }
            }
            Step::Play(p) | Step::Pause(p) | Step::Close(p) | Step::SetRate(p, ..) => {
                if let Some(i) = pick(p) {
                    let session = models[i].id;
                    // A refusal (wrong state, rate over budget) is a
                    // legitimate answer; only the table must stay sound.
                    let _ = server.request(
                        at,
                        match step {
                            Step::Play(_) => Request::Play { session },
                            Step::Pause(_) => Request::Pause { session },
                            Step::Close(_) => Request::Close { session },
                            Step::SetRate(_, num, den) => Request::SetRate { session, num, den },
                            _ => unreachable!(),
                        },
                    );
                }
            }
            Step::ForceDegrade => server.shards_mut().iter_mut().for_each(|s| {
                s.force_degrade(at);
            }),
            Step::ReleaseDegrade => server.shards_mut().iter_mut().for_each(|s| {
                s.release_degrade(at);
            }),
            Step::Shed(p) => {
                let shard = p % SHARDS;
                let mut expect = 0;
                for m in models.iter_mut() {
                    let mine = (m.id.raw() / SHARD_SESSION_STRIDE) as usize == shard;
                    if mine && server.session(m.id).unwrap().is_active() {
                        expect += m.pending.len();
                        m.accounted += m.pending.len();
                        m.pending.clear();
                    }
                }
                let shed = server.shards_mut()[shard].shed_pending(at);
                prop_assert_eq!(shed, expect);
            }
            Step::SetCapacity(fulls) => server
                .shards_mut()
                .iter_mut()
                .for_each(|s: &mut Server<Store>| s.set_capacity(budget(fulls))),
        }
        settle(&server, &mut models)?;
    }
    let stats = server.finish();
    settle(&server, &mut models)?;
    // Attribution read in place gives the same report as the snapshot.
    prop_assert_eq!(
        server.attribution(),
        tbm_obs::attribute(&server.trace().records)
    );
    let mut trace = Vec::new();
    server.trace_to_writer(&mut trace).unwrap();
    Ok((format!("{stats:?}"), server.metrics().render(), trace))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn session_table_matches_its_model_and_replays_exactly(
        seed in 0u64..1_000,
        script in proptest::collection::vec(step(), 1..48),
    ) {
        let first = run(seed, &script, 1, Tracer::with_capacity(1 << 16))?;
        prop_assert!(
            first == run(seed, &script, 1, Tracer::with_capacity(1 << 16))?,
            "two runs of one script differ"
        );
        // A traced drive never reaches the pool, so the worker arm runs
        // untraced; stats and metrics match the traced run's.
        let (stats, metrics, _) = run(seed, &script, 4, Tracer::disabled())?;
        prop_assert!(
            (first.0, first.1) == (stats, metrics),
            "1 traced and 4 untraced workers differ"
        );
    }
}

/// The script shapes the property is about do occur: degraded admissions,
/// upgrades, forced degradations and sheds all fire somewhere in the
/// generator's range (otherwise the property would pass vacuously).
#[test]
fn generated_scripts_reach_the_degraded_paths() {
    let mut rng = proptest::test_runner::TestRng::for_test("table_prop_coverage");
    let strategy = proptest::collection::vec(step(), 40..48);
    let (mut degraded, mut upgraded, mut forced, mut dropped) = (0, 0, 0, 0);
    for seed in 0..24 {
        let script = strategy.generate(&mut rng);
        let (_, metrics, _) = run(seed, &script, 1, Tracer::disabled()).unwrap();
        let count = |name: &str| {
            metrics
                .lines()
                .find_map(|l| l.strip_prefix(&format!("counter {name} ")))
                .map_or(0, |v| v.parse::<u64>().unwrap())
        };
        degraded += count("serve.sessions.admitted_degraded");
        upgraded += count("serve.sessions.upgraded");
        forced += count("serve.sessions.force_degraded");
        dropped += count("serve.elements.dropped");
    }
    assert!(
        degraded > 0 && upgraded > 0 && forced > 0 && dropped > 0,
        "degraded {degraded}, upgraded {upgraded}, forced {forced}, dropped {dropped}"
    );
}
