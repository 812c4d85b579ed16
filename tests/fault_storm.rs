//! Integration test: the robustness pipeline end to end — a seeded fault
//! storm (corruption + transient errors + truncation) over a captured Fig. 2
//! movie, played back through the resilient player with checksum detection
//! and graceful degradation, plus catalog damage/salvage at the db layer.

use tbm::codec::dct::DctParams;
use tbm::interp::capture;
use tbm::media::gen::{AudioSignal, VideoPattern};
use tbm::player::{demanded_rate, schedule_from_interp};
use tbm::prelude::*;
use tbm::serve::{Request, Response, Server};
use tbm::time::TimePoint;

const N: usize = 120;
const W: u32 = 96;
const H: u32 = 64;
const SPF: usize = 1764;

fn captured_movie() -> (MemBlobStore, tbm::interp::capture::AvCapture) {
    let mut store = MemBlobStore::new();
    let frames = tbm::media::gen::render_frames(VideoPattern::MovingBar, 0, N, W, H);
    let audio = AudioSignal::Sine {
        hz: 440.0,
        amplitude: 8000,
    }
    .generate(0, N * SPF, 44_100, 2);
    let cap = capture::capture_av_interleaved(
        &mut store,
        &frames,
        &audio,
        SPF,
        TimeSystem::PAL,
        DctParams::default(),
        Some(QualityFactor::Video(VideoQuality::Vhs)),
    )
    .unwrap();
    (store, cap)
}

/// The ISSUE's acceptance storm: ≥ 1 % corruption plus transient errors.
fn storm(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_transient(0.05)
        .with_corruption(0.02)
        .with_truncation(0.01)
}

fn resilient_player(v: &StreamInterp) -> ResilientPlayer {
    let demand = demanded_rate(&schedule_from_interp(v, None), TimeSystem::PAL)
        .unwrap()
        .to_f64();
    let sim = PlaybackSim::new(CostModel::bandwidth_only((demand * 1.5) as u64)).with_startup(3);
    ResilientPlayer::new(sim)
}

#[test]
fn fault_storm_playback_completes_and_accounts_for_every_fault() {
    let (store, cap) = captured_movie();
    let v = cap.interpretation.stream("video1").unwrap();
    let player = resilient_player(v);

    let faulty = FaultyBlobStore::new(store, storm(7));
    let report = player.play(&faulty, cap.blob, v);

    // Playback completed: one fate per scheduled element, no panic.
    assert_eq!(report.fates.len(), N);
    assert_eq!(
        report.stats.elements,
        N - report.stats.dropped,
        "every element is either presented (possibly degraded) or dropped"
    );

    // The storm actually injected faults of both required classes...
    let fs = faulty.stats();
    assert!(fs.corrupted_reads > 0, "storm must corrupt some reads");
    assert!(
        fs.transient_errors > 0,
        "storm must inject transient errors"
    );

    // ...and the player detected them via checksums / retry exhaustion:
    // every unrecoverable fault is accounted as degraded or dropped, and
    // retry-hidden transients show up as recoveries.
    assert!(report.faults_detected > 0);
    assert_eq!(
        report.faults_detected,
        report.stats.degraded + report.stats.dropped
    );
    assert!(
        report.stats.recovered > 0,
        "retries must hide some transients"
    );

    // The checksum layer sees the same corruption the player saw.
    let verify = v.verify_all(&faulty, cap.blob);
    assert!(verify.verified > 0);
    assert!(!verify.is_clean(), "storm leaves detectable corruption");
}

#[test]
fn same_seed_reproduces_identical_outcome() {
    let (store, cap) = captured_movie();
    let v = cap.interpretation.stream("video1").unwrap();
    let player = resilient_player(v);

    let a = player.play(&FaultyBlobStore::new(store.clone(), storm(7)), cap.blob, v);
    let b = player.play(&FaultyBlobStore::new(store.clone(), storm(7)), cap.blob, v);
    assert_eq!(a.stats, b.stats, "the storm is a pure function of the seed");
    assert_eq!(a.fates, b.fates);

    let c = player.play(&FaultyBlobStore::new(store, storm(8)), cap.blob, v);
    assert!(
        a.stats != c.stats || a.fates != c.fates,
        "a different seed must produce a different storm"
    );
}

#[test]
fn degradation_ladder_orders_policies_by_fidelity() {
    // On a scalable capture, DropLayers converts whole-element losses into
    // reduced-fidelity presentation; RepeatLast freezes; Skip drops.
    let mut store = MemBlobStore::new();
    let frames = tbm::media::gen::render_frames(VideoPattern::MovingBar, 0, 60, W, H);
    let (blob, interp) =
        capture::capture_video_scalable(&mut store, &frames, TimeSystem::PAL, DctParams::default())
            .unwrap();
    let v = interp.stream("video1").unwrap();
    let player = |p| {
        let demand = demanded_rate(&schedule_from_interp(v, None), TimeSystem::PAL)
            .unwrap()
            .to_f64();
        let sim =
            PlaybackSim::new(CostModel::bandwidth_only((demand * 1.5) as u64)).with_startup(3);
        ResilientPlayer::new(sim).with_policy(p)
    };
    let run = |p| {
        player(p).play(
            &FaultyBlobStore::new(store.clone(), storm(11).with_corruption(0.05)),
            blob,
            v,
        )
    };

    let drop_layers = run(DegradationPolicy::DropLayers);
    let repeat = run(DegradationPolicy::RepeatLast);
    let skip = run(DegradationPolicy::Skip);

    let base = |r: &ResilientReport| {
        r.fates
            .iter()
            .filter(|f| matches!(f, ElementFate::BaseLayers { .. }))
            .count()
    };
    assert!(
        base(&drop_layers) > 0,
        "DropLayers must salvage base layers"
    );
    assert_eq!(base(&repeat), 0);
    assert_eq!(
        skip.stats.dropped,
        repeat.stats.degraded + repeat.stats.dropped
    );
    assert_eq!(repeat.stats.dropped, 0, "RepeatLast never drops");
    // Same storm, so total non-intact elements agree across policies.
    assert_eq!(
        drop_layers.faults_detected + drop_layers.stats.recovered,
        skip.faults_detected + skip.stats.recovered
    );
}

#[test]
fn damaged_catalog_is_detected_and_salvage_never_panics() {
    // Build a catalog with every reference kind, serialize, then damage it.
    let mut db = MediaDb::new();
    let frames = tbm::media::gen::render_frames(VideoPattern::MovingBar, 0, 6, W, H);
    let audio = AudioSignal::Sine {
        hz: 330.0,
        amplitude: 8000,
    }
    .generate(0, 6 * SPF, 44_100, 2);
    let cap = capture::capture_av_interleaved(
        db.store_mut(),
        &frames,
        &audio,
        SPF,
        TimeSystem::PAL,
        DctParams::default(),
        None,
    )
    .unwrap();
    db.register_interpretation(cap.interpretation).unwrap();
    db.create_derived(
        "clip",
        Node::derive(Op::VideoReverse, vec![Node::source("video1")]),
    )
    .unwrap();
    let bytes = db.catalog_to_bytes().unwrap();

    // Clean bytes load; every bit flip is detected by the footer checksum.
    assert!(MediaDb::catalog_from_bytes(MemBlobStore::new(), &bytes).is_ok());
    for pos in (0..bytes.len()).step_by(97) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x04;
        match MediaDb::catalog_from_bytes(MemBlobStore::new(), &bad) {
            Err(tbm::db::DbError::CorruptCatalog { .. }) => {}
            other => panic!("flip at {pos} not detected: {other:?}"),
        }
    }

    // Truncation: strict load refuses; salvage recovers a record prefix
    // with no dangling references and an honest loss report.
    let cut = bytes.len() / 2;
    assert!(MediaDb::catalog_from_bytes(MemBlobStore::new(), &bytes[..cut]).is_err());
    let (salvaged, report) =
        MediaDb::catalog_salvage_from_bytes(MemBlobStore::new(), &bytes[..cut]);
    assert!(!report.is_clean());
    assert_eq!(
        salvaged.interpretations().len(),
        report.interpretations.recovered
    );
    for o in salvaged.objects() {
        if let tbm::db::Origin::Derived { derivation } = &o.origin {
            assert!(salvaged.derivation(*derivation).is_some());
        }
    }

    // Undamaged salvage is lossless.
    let (full, report) = MediaDb::catalog_salvage_from_bytes(MemBlobStore::new(), &bytes);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(full.objects().len(), db.objects().len());
}

#[test]
fn atomic_save_and_salvage_on_disk() {
    let dir = std::env::temp_dir().join(format!("tbm-fault-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = MediaDb::open(&dir).unwrap();
        db.register_value(
            "score",
            MediaValue::Music(tbm::derive::MusicClip::new(
                tbm::media::gen::major_scale(0, 60, 1, 480, 400),
                480,
                120,
            )),
        )
        .unwrap();
        db.save().unwrap();
    }

    // A stale temp file from a crashed save must not shadow the catalog.
    std::fs::write(dir.join(CATALOG_TMP), b"half-written garbage").unwrap();
    let db = MediaDb::open(&dir).unwrap();
    assert!(matches!(db.materialize("score"), Ok(MediaValue::Music(_))));
    assert!(
        !dir.join(CATALOG_TMP).exists(),
        "stale temp file is discarded"
    );

    // Corrupt the catalog on disk: open refuses, salvage still answers.
    let path = dir.join(tbm::db::CATALOG_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        MediaDb::open(&dir),
        Err(tbm::db::DbError::CorruptCatalog { .. })
    ));
    let (_salvaged, report) = MediaDb::salvage(&dir).unwrap();
    assert!(!report.is_clean());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn player_and_server_walk_one_ladder() {
    // One scalable stream under the same seeded storm, once played by the
    // resilient player and once served to a single session with no cache.
    // A `FaultyBlobStore`'s faults are a pure function of (seed, blob,
    // span, attempt) and both callers go through `fetch_layer` and
    // `ElementFate::decide`, so every element meets the same fate.
    let mut store = MemBlobStore::new();
    let frames = tbm::media::gen::render_frames(VideoPattern::MovingBar, 0, 40, W, H);
    let (blob, interp) =
        capture::capture_video_scalable(&mut store, &frames, TimeSystem::PAL, DctParams::default())
            .unwrap();
    let v = interp.stream("video1").unwrap();
    let (mut recovered, mut degraded, mut dropped) = (0, 0, 0);
    for seed in 0..40 {
        let plan = FaultPlan::new(seed)
            .with_transient(0.2)
            .with_corruption(0.1)
            .with_truncation(0.05);
        let played = resilient_player(v).play(&FaultyBlobStore::new(store.clone(), plan), blob, v);

        let mut db = MediaDb::with_store(FaultyBlobStore::new(store.clone(), plan));
        db.register_interpretation(interp.clone()).unwrap();
        let mut server = Server::new(db, Capacity::new(1 << 40));
        let Response::Opened {
            session: Some(session),
            ..
        } = server
            .request(
                TimePoint::ZERO,
                Request::Open {
                    object: "video1".into(),
                },
            )
            .unwrap()
        else {
            panic!("the one session must be admitted");
        };
        server
            .request(TimePoint::ZERO, Request::Play { session })
            .unwrap();
        let served = server.finish();
        server.check_invariants().unwrap();

        assert_eq!(
            (
                served.recovered,
                served.degraded_elements,
                served.dropped_elements,
                served.faults_detected
            ),
            (
                played.stats.recovered,
                played.stats.degraded,
                played.stats.dropped,
                played.faults_detected
            ),
            "player and server disagree under seed {seed}"
        );
        recovered += played.stats.recovered;
        degraded += played.stats.degraded;
        dropped += played.stats.dropped;
    }
    assert!(
        recovered > 0 && degraded > 0 && dropped > 0,
        "the storms must reach every rung: {recovered} recovered, {degraded} degraded, {dropped} dropped"
    );
}
