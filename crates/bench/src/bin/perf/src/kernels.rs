//! Isolated per-layer kernels: one public function of one crate, timed on
//! a fixed input with the in-binary timer. They run in every traced run,
//! whatever the workload, so each layer has a number that is comparable
//! across workloads and commits; the traced workload says how much of a
//! repetition a layer is, the kernel says how fast the layer is.

use crate::drive::drive;
use crate::fixtures::{balanced_names, serve_frames, Catalog, Scratch};
use crate::gen::{churn_script, storm_hot_script, ChurnShape, Script};
use crate::timer::{now_ns, time_kernel, Summary};
use crate::trace::Trace;
use crate::workload::Counters;
use std::hint::black_box;
use std::time::Duration;
use tbm_blob::{ByteSpan, MemBlobStore};
use tbm_codec::dct::{self, DctParams};
use tbm_codec::interframe::{self, GopParams};
use tbm_codec::{adpcm, scalable};
use tbm_compose::{Component, ComponentKind, Composer, MultimediaObject};
use tbm_core::{crc32, BlobId};
use tbm_db::MediaDb;
use tbm_derive::{AudioClip, EditCut, Expander, MediaValue, Node, Op, VideoClip};
use tbm_interp::capture::capture_video_scalable;
use tbm_media::gen::{render_frames, AudioSignal, VideoPattern};
use tbm_obs::{Category, MetricsRegistry, SpanId, Tracer, LATENCY_BUCKETS_US};
use tbm_player::{schedule_from_interp, CostModel, PlaybackSim};
use tbm_query::{
    Aggregate, ErrorBound, HealthMonitor, Metric, Segment, SegmentModel, Selector, SeriesKey,
    SeriesSink, SloRule, TelemetryStore,
};
use tbm_serve::{Capacity, SegmentCache, ShardedServer};
use tbm_time::{Rational, TimeDelta, TimePoint, TimeSystem};

/// Wall budget of one timed kernel.
const BUDGET: Duration = Duration::from_millis(40);
/// Samples every kernel takes at least.
const MIN_SAMPLES: usize = 10;

fn kernel(op: impl FnMut()) -> Summary {
    time_kernel(MIN_SAMPLES, BUDGET, op)
}

/// One drain of a `storm_hot`-shaped server (8 shards, 16 objects,
/// `elements` per object, everything cached after first touch): wall
/// nanoseconds of `finish()` per element served.
fn drain_ns_per_event(
    catalog: &Catalog,
    stores: &[MemBlobStore],
    script: &Script,
    tracer: Option<Tracer>,
) -> f64 {
    let mut server = ShardedServer::new(
        catalog.sharded_db(stores.to_vec()),
        crate::storm::generous(),
    )
    .with_cache_budget(4 * catalog.max_shard_bytes());
    if let Some(tracer) = tracer {
        server = server.with_tracer(tracer);
    }
    let out = drive(
        &mut server,
        script,
        &catalog.names,
        &Trace::disabled(),
        None,
        |_, _| {},
    );
    assert_eq!(out.errors + out.refused, 0, "kernel storm must be admitted");
    let t0 = now_ns();
    let stats = server.finish();
    let ns = now_ns() - t0;
    ns as f64 / stats.global.elements_served.max(1) as f64
}

/// Runs every kernel and returns the per-layer metrics they define.
pub fn run_all() -> Counters {
    let mut out = Counters::new();

    // --- time ---------------------------------------------------------
    let (a, b) = (Rational::new(355, 113), Rational::new(1, 25));
    out.insert(
        "time.rational_add_ns",
        kernel(|| {
            black_box(black_box(a) + black_box(b));
        })
        .median,
    );
    let t = Rational::new(1_234_567, 90_000);
    out.insert(
        "time.micros_conv_ns",
        kernel(|| {
            black_box(tbm_obs::micros(black_box(t)));
        })
        .median,
    );

    // --- core ---------------------------------------------------------
    let block: Vec<u8> = (0..65_536u32).map(|i| (i * 31 % 251) as u8).collect();
    let crc = kernel(|| {
        black_box(crc32(black_box(&block)));
    });
    out.insert("core.crc32_mb_per_s", block.len() as f64 / crc.median * 1e3);

    // --- obs ----------------------------------------------------------
    let mut registry = MetricsRegistry::new();
    for i in 0..32 {
        registry.inc(format!("serve.counter{i}"), 1);
    }
    out.insert(
        "obs.metrics.inc_ns",
        kernel(|| registry.inc("serve.elements.served", 1)).median,
    );
    let mut v = 0u64;
    out.insert(
        "obs.metrics.observe_ns",
        kernel(|| {
            v = (v + 37) % 5_000;
            registry.observe("serve.service_us", &LATENCY_BUCKETS_US, v);
        })
        .median,
    );
    out.insert(
        "obs.metrics.render_us",
        kernel(|| {
            black_box(registry.render());
        })
        .median
            / 1e3,
    );
    for (name, tracer) in [
        ("obs.tracer.event_ns_disabled", Tracer::disabled()),
        (
            "obs.tracer.event_ns_enabled",
            Tracer::with_capacity(1 << 12),
        ),
    ] {
        out.insert(
            name,
            kernel(|| {
                // The attribute vector is built at the call site, as the
                // serve loop builds it, so the disabled path pays for it.
                tracer.event(
                    "cache.hit",
                    Category::Cache,
                    TimePoint::ZERO,
                    SpanId::NONE,
                    Some(7),
                    vec![("layer", 1usize.into()), ("bytes", 300u64.into())],
                );
            })
            .median,
        );
    }

    // --- serve.cache, serve.capacity ----------------------------------
    let spans: Vec<ByteSpan> = (0..1024).map(|i| ByteSpan::new(i * 256, 256)).collect();
    let mut cache = SegmentCache::new(1024 * 256);
    for s in &spans {
        cache.insert(BlobId::new(0), *s, vec![0u8; 256]);
    }
    let mut i = 0usize;
    out.insert(
        "serve.cache.get_ns",
        kernel(|| {
            i = (i + 1) % spans.len();
            black_box(cache.get(BlobId::new(0), spans[i]).is_some());
        })
        .median,
    );
    // Half the budget: every insert of the cycle evicts.
    let mut cache = SegmentCache::new(512 * 256);
    out.insert(
        "serve.cache.insert_ns",
        kernel(|| {
            i = (i + 1) % spans.len();
            cache.insert(BlobId::new(0), spans[i], vec![0u8; 256]);
        })
        .median,
    );
    let capacity = Capacity::new(5_544_000);
    let (committed, demand) = (
        Rational::new(7_673 * 300, 1),
        Rational::new(14_732 * 25, 48),
    );
    out.insert(
        "serve.capacity.fits_ns",
        kernel(|| {
            black_box(capacity.fits_staged(
                black_box(committed),
                black_box(committed),
                black_box(demand),
                black_box(demand),
            ));
        })
        .median,
    );

    // --- serve.server: the session-count curve, and the tracer's price --
    const SCALE_ELEMENTS: usize = 8;
    let mut stores: Vec<MemBlobStore> = (0..8).map(|_| MemBlobStore::new()).collect();
    let catalog = Catalog::capture(
        &mut stores,
        balanced_names(16, 8),
        &serve_frames(SCALE_ELEMENTS),
    );
    for (name, sessions) in [
        ("serve.scale.ns_per_event_1k", 1024),
        ("serve.scale.ns_per_event_4k", 4096),
        ("serve.scale.ns_per_event_16k", 16_384),
    ] {
        let script = storm_hot_script(0, sessions, 16);
        out.insert(name, drain_ns_per_event(&catalog, &stores, &script, None));
    }
    let script = storm_hot_script(0, 2048, 16);
    let off = drain_ns_per_event(&catalog, &stores, &script, None);
    let on = drain_ns_per_event(
        &catalog,
        &stores,
        &script,
        Some(Tracer::with_capacity(1 << 16)),
    );
    out.insert("obs.tracer_on.ns_per_event", on - off);

    // --- codec ----------------------------------------------------------
    let frames = render_frames(VideoPattern::ShiftingGradient, 0, 12, 160, 120);
    let params = DctParams::default();
    out.insert(
        "codec.dct.encode_ns_per_frame",
        kernel(|| {
            black_box(dct::encode_frame(&frames[0], params));
        })
        .median,
    );
    let encoded = dct::encode_frame(&frames[0], params);
    out.insert(
        "codec.dct.decode_ns_per_frame",
        kernel(|| {
            black_box(dct::decode_frame(&encoded).expect("own encoding"));
        })
        .median,
    );
    out.insert(
        "codec.scalable.encode_ns_per_frame",
        kernel(|| {
            black_box(scalable::encode_layered(&frames[0], params));
        })
        .median,
    );
    let layered = scalable::encode_layered(&frames[0], params);
    out.insert(
        "codec.scalable.decode_full_ns_per_frame",
        kernel(|| {
            black_box(scalable::decode_full(&layered).expect("own encoding"));
        })
        .median,
    );
    let gop = GopParams::default();
    out.insert(
        "codec.interframe.encode_ns_per_frame",
        kernel(|| {
            black_box(interframe::encode_sequence(&frames, gop).expect("12 frames"));
        })
        .median
            / frames.len() as f64,
    );
    let sequence = interframe::encode_sequence(&frames, gop).expect("12 frames");
    out.insert(
        "codec.interframe.decode_ns_per_frame",
        kernel(|| {
            black_box(interframe::decode_sequence(&sequence).expect("own encoding"));
        })
        .median
            / frames.len() as f64,
    );
    let second = AudioSignal::Chirp {
        from_hz: 220.0,
        to_hz: 880.0,
        sweep_frames: 44_100,
        amplitude: 9000,
    }
    .generate(0, 44_100, 44_100, 2);
    out.insert(
        "codec.adpcm.encode_ns_per_s",
        kernel(|| {
            black_box(adpcm::encode_blocks(&second, 1764));
        })
        .median,
    );
    let blocks = adpcm::encode_blocks(&second, 1764);
    out.insert(
        "codec.adpcm.decode_ns_per_s",
        kernel(|| {
            black_box(adpcm::decode_blocks(&blocks).expect("own encoding"));
        })
        .median,
    );

    // --- interp, player --------------------------------------------------
    let small = serve_frames(SCALE_ELEMENTS);
    out.insert(
        "interp.capture_ns_per_element",
        kernel(|| {
            let mut store = MemBlobStore::new();
            black_box(
                capture_video_scalable(&mut store, &small, TimeSystem::PAL, params)
                    .expect("capture into memory"),
            );
        })
        .median
            / small.len() as f64,
    );
    let mut store = MemBlobStore::new();
    let long = serve_frames(250);
    let (_, interp) = capture_video_scalable(&mut store, &long, TimeSystem::PAL, params)
        .expect("capture into memory");
    let stream = interp.stream("video1").expect("captured stream");
    let mut tick = 0i64;
    out.insert(
        "interp.index_lookup_ns",
        kernel(|| {
            tick = (tick + 97) % 250;
            black_box(stream.element_at(tick).expect("tick in range"));
        })
        .median,
    );
    let jobs = schedule_from_interp(stream, None);
    let sim = PlaybackSim::new(CostModel::bandwidth_only(1_000_000));
    out.insert(
        "player.sim_ns_per_element",
        kernel(|| {
            black_box(sim.run(&jobs));
        })
        .median
            / jobs.len() as f64,
    );

    // --- derive, compose --------------------------------------------------
    let clip = VideoClip::new(
        render_frames(VideoPattern::ShiftingGradient, 0, 50, 160, 120),
        TimeSystem::PAL,
    );
    let other = VideoClip::new(
        render_frames(VideoPattern::MovingBar, 0, 50, 160, 120),
        TimeSystem::PAL,
    );
    let mut expander = Expander::new();
    expander.add_source("a", MediaValue::Video(clip));
    expander.add_source("b", MediaValue::Video(other));
    expander.add_source(
        "tone",
        MediaValue::Audio(AudioClip::new(second.clone(), 44_100)),
    );
    let fade = Node::derive(
        Op::Fade { frames: 25 },
        vec![Node::source("a"), Node::source("b")],
    );
    let edit = Node::derive(
        Op::VideoEdit {
            cuts: vec![
                EditCut {
                    input: 0,
                    from: 10,
                    to: 35,
                },
                EditCut {
                    input: 1,
                    from: 0,
                    to: 25,
                },
            ],
        },
        vec![Node::source("a"), fade.clone()],
    );
    out.insert(
        "derive.expand_ns_per_element",
        kernel(|| {
            black_box(expander.expand(&edit).expect("well-typed derivation"));
        })
        .median
            / 50.0,
    );
    let mut idx = 0usize;
    out.insert(
        "derive.pull_frame_ns",
        kernel(|| {
            idx = (idx + 1) % 25;
            black_box(expander.pull_frame(&fade, idx).expect("index in range"));
        })
        .median,
    );
    let mut programme = MultimediaObject::new("kernel");
    for (name, kind, media) in [
        ("picture", ComponentKind::Video, edit.clone()),
        ("sound", ComponentKind::Audio, Node::source("tone")),
    ] {
        programme
            .add_component(
                Component::new(name, kind, media, TimePoint::ZERO, TimeDelta::from_secs(1))
                    .expect("positive duration"),
            )
            .expect("distinct names");
    }
    let composer = Composer::new(&expander, 160, 120);
    let mut k = 0i64;
    out.insert(
        "compose.render_ns_per_frame",
        kernel(|| {
            k = (k + 1) % 25;
            let at = TimePoint::from_seconds(Rational::new(k, 25));
            black_box(
                composer
                    .render_video_frame(&programme, at)
                    .expect("render a frame"),
            );
        })
        .median,
    );
    out.insert(
        "compose.mix_ns_per_100ms",
        kernel(|| {
            k = (k + 1) % 9;
            let from = TimePoint::ZERO + TimeDelta::from_millis(k * 100);
            black_box(
                composer
                    .mix_audio_window(&programme, from, TimeDelta::from_millis(100))
                    .expect("mix a window"),
            );
        })
        .median,
    );

    // --- db -----------------------------------------------------------------
    let scratch = Scratch::new("kernel-db");
    let mut db = MediaDb::open(scratch.path()).expect("open an empty archive");
    let (_, interp) = capture_video_scalable(db.store_mut(), &small, TimeSystem::PAL, params)
        .expect("capture to disk");
    db.register_interpretation(interp).expect("fresh catalog");
    db.create_derived(
        "cut",
        Node::derive(
            Op::VideoEdit {
                cuts: vec![EditCut {
                    input: 0,
                    from: 1,
                    to: 5,
                }],
            },
            vec![Node::source("video1")],
        ),
    )
    .expect("well-typed derivation");
    out.insert(
        "db.save_ms",
        time_kernel(5, BUDGET, || db.save().expect("persist the catalog")).median / 1e6,
    );
    out.insert(
        "db.load_ms",
        time_kernel(5, BUDGET, || {
            black_box(MediaDb::open(scratch.path()).expect("reopen the archive"));
        })
        .median
            / 1e6,
    );

    // --- query ------------------------------------------------------------
    let mut sink = SeriesSink::new(ErrorBound::percent(5.0));
    let mut n = 0u32;
    out.insert(
        "query.sink.append_ns",
        kernel(|| {
            n += 1;
            // A slow ramp with a step every 64 ticks: linear runs that the
            // bound closes and reopens, as node load does.
            sink.append(1_000.0 + f64::from(n % 64) * 3.0 + f64::from(n / 64 % 7) * 500.0);
            if n.is_multiple_of(4096) {
                black_box(sink.drain());
            }
        })
        .median,
    );
    let interval = TimeDelta::from_millis(40);
    let mut store = TelemetryStore::new(TimePoint::ZERO, interval);
    let mut samples: Vec<(SeriesKey, f64)> = Vec::new();
    for shard in 0..32u16 {
        let key = SeriesKey {
            node: shard % 4,
            shard: Some(shard),
            metric: Metric::LatenessUs,
            degraded: false,
        };
        samples.push((key, f64::from(shard) * 10.0));
        for run in 0..25u32 {
            store.ingest(
                key,
                Segment {
                    start_tick: run * 20,
                    count: 20,
                    error_pct: 5.0,
                    model: SegmentModel::Linear {
                        first: f64::from(run * 7 + u32::from(shard)),
                        slope: 1.5,
                    },
                },
            );
        }
    }
    let selector = Selector::metric(Metric::LatenessUs);
    out.insert(
        "query.aggregate_us",
        kernel(|| {
            black_box(store.aggregate(&selector, Aggregate::Quantile(99)));
        })
        .median
            / 1e3,
    );
    let mut monitor = HealthMonitor::new(interval)
        .rule(SloRule::p99_full_lateness_below(2_000.0))
        .rule(SloRule::drop_rate_below(1.0))
        .rule(SloRule::no_unverified_serves())
        .rule(SloRule::load_skew_below(60.0));
    let mut ticks = 0i64;
    out.insert(
        "query.health.observe_tick_us",
        kernel(|| {
            let at = TimePoint::ZERO + TimeDelta::from_millis(40 * ticks);
            ticks += 1;
            black_box(monitor.observe_tick(at, &samples));
        })
        .median
            / 1e3,
    );

    // --- bench --------------------------------------------------------------
    let shape = ChurnShape {
        sessions: 2_000,
        objects: 32,
        mean_gap_us: 2_000,
        element_us: 40_000,
        elements: 48,
    };
    let steps = churn_script(0, shape).steps.len() as f64;
    out.insert(
        "bench.generator_ns_per_request",
        time_kernel(5, BUDGET, || {
            black_box(churn_script(black_box(0), shape));
        })
        .median
            / steps,
    );
    out
}
