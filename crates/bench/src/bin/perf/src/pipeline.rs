//! `media_pipeline`: the Fig. 5 layers the storms never touch, with the
//! write side measured beside the read side.
//!
//! Write: a 20 s, 160×120 PAL clip is captured four ways — interleaved
//! DCT + PCM, scalable DCT, interframe GOP, ADPCM — into a file-backed
//! [`MediaDb`], an edit-list + fade derivation and a two-component
//! multimedia object are registered, and the catalog is saved. Read: the
//! directory is reopened, every stream is looked up, read and decoded, the
//! derivation is expanded, and the multimedia object is rendered frame by
//! frame and mixed window by window. No server is involved, so a codec
//! change that trades encode time for decode time shows as ingest rate
//! moving against read-side throughput.

use crate::drive::Samples;
use crate::fixtures::Scratch;
use crate::gen::{edit_cuts, Fnv};
use crate::trace::Trace;
use crate::workload::{Ingest, Rep, RepCtx, Workload};
use tbm_blob::FileBlobStore;
use tbm_codec::dct::DctParams;
use tbm_codec::interframe::GopParams;
use tbm_compose::{Component, ComponentKind, Composer, MultimediaObject};
use tbm_core::{QualityFactor, VideoQuality};
use tbm_db::{MediaDb, CATALOG_FILE};
use tbm_derive::{EditCut, Expander, MediaValue, Node, Op};
use tbm_interp::capture;
use tbm_interp::Interpretation;
use tbm_media::gen::{render_frames, AudioSignal, VideoPattern};
use tbm_media::{AudioBuffer, Frame, PixelFormat};
use tbm_time::{AllenRelation, Rational, TimeDelta, TimePoint, TimeSystem};

/// Frame width.
pub const W: u32 = 160;
/// Frame height.
pub const H: u32 = 120;
/// Frames in the full-size clip: 20 s of PAL. (The issue asked for 10 s;
/// with those a repetition is 1.0 s on this host, under the 1.5 s it must
/// last.)
pub const FRAMES: usize = 500;
/// CD sample-frames per PAL frame.
pub const SPF: usize = 1764;
/// ADPCM block length, sample-frames.
pub const ADPCM_BLOCK: usize = 1764;
/// Cuts in the edit list. Twenty 2 s cuts make a 40 s programme out of
/// 20 s of material, and give a repetition the 1 000 frame pulls its own
/// p99 needs.
pub const CUTS: u32 = 20;
/// Frames per cut.
pub const CUT_FRAMES: u32 = 50;
/// Frames of the interframe clip faded in after the cuts.
pub const TAIL_FRAMES: u32 = 50;
/// Cross-fade length, frames.
pub const FADE_FRAMES: u32 = 25;
/// Frames of the derived `show`: cuts + tail − fade overlap.
pub const SHOW_FRAMES: u32 = CUTS * CUT_FRAMES + TAIL_FRAMES - FADE_FRAMES;

/// The codec tests' own round-trip tolerances: mean absolute difference
/// per sample against the YUV 4:2:0 source.
const DCT_MAX_MAD: f64 = 6.0;
const INTERFRAME_MAX_MAD: f64 = 8.0;

/// `media_pipeline`'s fixture: the raw clip and the seeded edit list.
#[derive(Debug)]
pub struct MediaPipeline {
    frames: Vec<Frame>,
    audio: AudioBuffer,
    cuts: Vec<(u32, u32)>,
}

/// Moves a capture's single stream under a new object name, so four
/// captures of one clip can share a catalog.
fn renamed(interp: &Interpretation, from: &str, to: &str) -> Interpretation {
    let mut out = Interpretation::new(interp.blob());
    out.add_stream(to, interp.stream(from).expect("captured stream").clone())
        .expect("fresh interpretation");
    out
}

/// What the listing check compares between the saved and the reopened
/// catalog: objects, streams, and every element's placement checksums.
fn listing(db: &MediaDb<FileBlobStore>) -> String {
    let mut out = format!("{:?}\n{:?}\n", db.object_columns(), db.stream_columns());
    for interp in db.interpretations() {
        for (name, stream) in interp.streams() {
            let mut h = Fnv::default();
            for e in stream.entries() {
                for sum in &e.checksums {
                    h.write(&sum.to_le_bytes());
                }
            }
            out.push_str(&format!("{name}: {:016x}\n", h.finish()));
        }
    }
    for d in db.derivations() {
        out.push_str(&format!("{:?}\n", d.node));
    }
    for m in db.multimedia_objects() {
        out.push_str(&format!("{:?}\n", m.object));
    }
    out
}

impl MediaPipeline {
    /// Renders the raw clip (the pipeline's input, so outside the timed
    /// write side) and draws the edit list.
    pub fn setup(seed: u64, frames: usize) -> MediaPipeline {
        assert!(
            frames >= TAIL_FRAMES as usize,
            "the clip must cover the faded-in tail"
        );
        MediaPipeline {
            frames: render_frames(VideoPattern::ShiftingGradient, 0, frames, W, H),
            audio: AudioSignal::Chirp {
                from_hz: 220.0,
                to_hz: 880.0,
                sweep_frames: (frames * SPF) as u64,
                amplitude: 9000,
            }
            .generate(0, frames * SPF, 44_100, 2),
            cuts: edit_cuts(seed, CUTS, CUT_FRAMES, frames as u32),
        }
    }

    fn raw_bytes(&self) -> u64 {
        let video = self.frames.len() as u64 * u64::from(W) * u64::from(H) * 3;
        let audio = self.audio.samples().len() as u64 * 2;
        // The clip's pixels go through three video captures, its samples
        // through two audio captures.
        3 * video + 2 * audio
    }

    fn show_node(&self) -> Node {
        let cut = Node::derive(
            Op::VideoEdit {
                cuts: self
                    .cuts
                    .iter()
                    .map(|&(from, to)| EditCut { input: 0, from, to })
                    .collect(),
            },
            vec![Node::source("video1")],
        );
        let tail = Node::derive(
            Op::VideoEdit {
                cuts: vec![EditCut {
                    input: 0,
                    from: 0,
                    to: TAIL_FRAMES,
                }],
            },
            vec![Node::source("video_gop")],
        );
        // `Fade` yields only the transition frames, so the show is a second
        // edit list: the cuts up to the overlap, the cross-fade, the rest of
        // the tail.
        let fade = Node::derive(
            Op::Fade {
                frames: FADE_FRAMES,
            },
            vec![cut.clone(), tail.clone()],
        );
        let body = CUTS * CUT_FRAMES - FADE_FRAMES;
        Node::derive(
            Op::VideoEdit {
                cuts: vec![
                    EditCut {
                        input: 0,
                        from: 0,
                        to: body,
                    },
                    EditCut {
                        input: 1,
                        from: 0,
                        to: FADE_FRAMES,
                    },
                    EditCut {
                        input: 2,
                        from: FADE_FRAMES,
                        to: TAIL_FRAMES,
                    },
                ],
            },
            vec![cut, fade, tail],
        )
    }

    /// The timed write side. Returns the saved catalog's listing and the
    /// bytes now on disk.
    fn write_side(&self, dir: &std::path::Path, trace: &Trace) -> (String, u64) {
        let open = trace.begin("db:open");
        let mut db = MediaDb::open(dir).expect("open an empty archive");
        trace.end(open);

        let open = trace.begin("interp:capture_av_interleaved");
        let av = capture::capture_av_interleaved(
            db.store_mut(),
            &self.frames,
            &self.audio,
            SPF,
            TimeSystem::PAL,
            DctParams::default(),
            Some(QualityFactor::Video(VideoQuality::Vhs)),
        )
        .expect("interleaved capture");
        trace.end(open);
        let open = trace.begin("interp:capture_video_scalable");
        let (_, scalable) = capture::capture_video_scalable(
            db.store_mut(),
            &self.frames,
            TimeSystem::PAL,
            DctParams::default(),
        )
        .expect("scalable capture");
        trace.end(open);
        let open = trace.begin("interp:capture_video_interframe");
        let (_, gop) = capture::capture_video_interframe(
            db.store_mut(),
            &self.frames,
            TimeSystem::PAL,
            GopParams::default(),
            None,
        )
        .expect("interframe capture");
        trace.end(open);
        let open = trace.begin("interp:capture_audio_adpcm");
        let (_, adpcm) =
            capture::capture_audio_adpcm(db.store_mut(), &self.audio, 44_100, ADPCM_BLOCK)
                .expect("ADPCM capture");
        trace.end(open);

        let open = trace.begin("db:register");
        db.register_interpretation(av.interpretation)
            .expect("register video1 + audio1");
        for (interp, from, to) in [
            (&scalable, "video1", "video_layered"),
            (&gop, "video1", "video_gop"),
            (&adpcm, "audio1", "audio_adpcm"),
        ] {
            db.register_interpretation(renamed(interp, from, to))
                .expect("register a renamed capture");
        }
        db.create_derived("show", self.show_node())
            .expect("register the derivation");
        let seconds = |frames: u32| TimeDelta::from_seconds(Rational::new(i64::from(frames), 25));
        let mut m = MultimediaObject::new("programme");
        m.add_component(
            Component::new(
                "show",
                ComponentKind::Video,
                Node::source("show"),
                TimePoint::ZERO,
                seconds(SHOW_FRAMES),
            )
            .expect("positive duration"),
        )
        .expect("first component");
        m.add_component(
            Component::new(
                "narration",
                ComponentKind::Audio,
                Node::source("audio_adpcm"),
                TimePoint::ZERO,
                seconds(self.frames.len() as u32),
            )
            .expect("positive duration"),
        )
        .expect("second component");
        m.add_constraint("narration", AllenRelation::Starts, "show")
            .expect("both components exist");
        db.add_multimedia(m).expect("valid multimedia object");
        trace.end(open);

        let open = trace.begin("db:save");
        db.save().expect("persist the catalog");
        trace.end(open);

        let on_disk = db.store().total_stored()
            + std::fs::metadata(dir.join(CATALOG_FILE))
                .expect("the catalog was just saved")
                .len();
        (listing(&db), on_disk)
    }
}

/// Bytes in every BLOB of a file store.
trait TotalStored {
    fn total_stored(&self) -> u64;
}

impl TotalStored for FileBlobStore {
    fn total_stored(&self) -> u64 {
        use tbm_blob::BlobStore;
        self.blob_ids()
            .into_iter()
            .map(|b| self.len(b).expect("listed blob"))
            .sum()
    }
}

fn mad(source: &Frame, decoded: &Frame) -> f64 {
    source
        .to_format(PixelFormat::Yuv420)
        .mean_abs_diff(decoded)
        .unwrap_or(f64::INFINITY)
}

impl Workload for MediaPipeline {
    fn rep(&self, ctx: &RepCtx, mut samples: Option<&mut Samples>) -> Rep {
        let trace = &ctx.trace;
        let scratch = Scratch::new("pipeline");
        let mut rep = Rep::default();
        let whole = trace.begin("bench:rep");

        let write = trace.begin("bench:write_side");
        let (saved_listing, on_disk) = self.write_side(scratch.path(), trace);
        let write_ns = trace.end(write);

        let read = trace.begin("bench:read_side");
        let open = trace.begin("db:open");
        let db = MediaDb::open(scratch.path()).expect("reopen the archive");
        trace.end(open);

        let mut expander = Expander::new();
        let mut decoded_elements = 0u64;
        const SOURCES: [(&str, &str); 5] = [
            ("video1", "codec:materialize.dct"),
            ("audio1", "codec:materialize.pcm"),
            ("video_layered", "codec:materialize.layered"),
            ("video_gop", "codec:materialize.gop"),
            ("audio_adpcm", "codec:materialize.adpcm"),
        ];
        for (name, span) in SOURCES {
            let open = trace.begin(span);
            let value = db.materialize(name).expect("decode a captured stream");
            trace.end(open);
            decoded_elements += db.stream_of(name).expect("captured stream").1.len() as u64;
            expander.add_source(name, value);
        }
        let show = db
            .provenance("show")
            .expect("show is registered")
            .expect("show is derived")
            .clone();
        let open = trace.begin("derive:expand");
        let expanded = expander.expand(&show).expect("expand the derivation");
        trace.end(open);
        let expanded_frames = match &expanded {
            MediaValue::Video(v) => v.len() as u64,
            _ => 0,
        };
        expander.add_source("show", expanded);

        let programme = &db
            .multimedia("programme")
            .expect("saved multimedia object")
            .object;
        let composer = Composer::new(&expander, W, H);
        // Rendered output is kept and hashed after the clock stops.
        let mut rendered = Vec::with_capacity(SHOW_FRAMES as usize);
        let mut mixed_windows = Vec::new();
        for k in 0..SHOW_FRAMES {
            let at = TimePoint::from_seconds(Rational::new(i64::from(k), 25));
            let open = trace.begin("compose:render_video_frame");
            let frame = composer
                .render_video_frame(programme, at)
                .expect("render a frame");
            let ns = trace.end(open);
            if let Some(samples) = samples.as_deref_mut() {
                samples.push(ns);
            }
            rendered.push(frame);
        }
        // The narration runs as long as the clip does.
        let windows = self.frames.len() as u32 * 40 / 100;
        for k in 0..windows {
            let from = TimePoint::ZERO + TimeDelta::from_millis(i64::from(k) * 100);
            let open = trace.begin("compose:mix_audio_window");
            let mixed = composer
                .mix_audio_window(programme, from, TimeDelta::from_millis(100))
                .expect("mix a window");
            trace.end(open);
            mixed_windows.push(mixed);
        }
        rep.wall_ns = trace.end(read);
        trace.end(whole);

        let mut output = Fnv::default();
        for frame in &rendered {
            output.write(frame.data());
        }
        for s in mixed_windows.iter().flat_map(|w| w.samples()) {
            output.write(&s.to_le_bytes());
        }
        rep.events = decoded_elements + expanded_frames + u64::from(SHOW_FRAMES + windows);
        rep.layer.insert("db.bytes_on_disk", on_disk as f64);
        rep.ingest = Some(Ingest {
            raw_bytes: self.raw_bytes(),
            stored_bytes: on_disk,
            wall_ns: write_ns,
        });
        rep.digest = Fnv::of(&format!(
            "{saved_listing}\n{on_disk}\n{:016x}",
            output.finish()
        ));

        // The reopened catalog lists what was saved.
        let reopened = listing(&db);
        rep.check(reopened == saved_listing, || {
            "the reopened MediaDb lists different objects, streams or checksums".to_owned()
        });
        rep.check(expanded_frames == u64::from(SHOW_FRAMES), || {
            format!("show expanded to {expanded_frames} frames, not {SHOW_FRAMES}")
        });
        // decode∘encode within each codec's own tolerance, on every 25th
        // frame and on the whole audio track.
        for (name, _) in SOURCES {
            match expander.source(name).expect("added above") {
                MediaValue::Video(clip) => {
                    let limit = if name == "video_gop" {
                        INTERFRAME_MAX_MAD
                    } else {
                        DCT_MAX_MAD
                    };
                    let (n, want) = (clip.frames.len(), self.frames.len());
                    rep.check(n == want, || format!("{name} decoded to {n} frames"));
                    for i in (0..n.min(want)).step_by(25) {
                        let d = mad(&self.frames[i], &clip.frames[i]);
                        rep.check(d < limit, || {
                            format!("{name} frame {i}: mean abs diff {d:.2} exceeds {limit}")
                        });
                    }
                }
                MediaValue::Audio(clip) => {
                    let (src, dec) = (self.audio.samples(), clip.buffer.samples());
                    let same_len = src.len() == dec.len();
                    rep.check(same_len, || format!("{name} decoded to a different length"));
                    if !same_len {
                        continue;
                    }
                    let err = (src
                        .iter()
                        .zip(dec)
                        .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                        .sum::<f64>()
                        / src.len() as f64)
                        .sqrt();
                    // PCM is lossless; ADPCM's own test allows a tenth of
                    // the signal's RMS.
                    let limit = if name == "audio1" {
                        0.0
                    } else {
                        self.audio.rms() / 10.0
                    };
                    rep.check(err <= limit, || {
                        format!("{name}: rms error {err:.1} exceeds {limit:.1}")
                    });
                }
                _ => rep.failures.push(format!("{name} decoded to no clip")),
            }
        }
        rep
    }

    fn ingest(&self) -> Ingest {
        // Set-up only renders the raw clip; ingest is the timed write side
        // and is reported per repetition.
        Ingest::default()
    }

    fn script_digest(&self) -> u64 {
        Fnv::of(&format!("{:?}", self.cuts))
    }

    fn verify(&self, _reference: &Rep) -> Option<Rep> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_round_trips_and_repeats_exactly() {
        let pipeline = MediaPipeline::setup(2, 60);
        let mut samples = Samples::default();
        let first = pipeline.rep(&RepCtx::untraced(1), Some(&mut samples));
        assert!(first.failures.is_empty(), "{:?}", first.failures);
        assert_eq!(samples.ns.len(), SHOW_FRAMES as usize);
        let ingest = first.ingest.expect("the write side ingests");
        assert_eq!(
            ingest.raw_bytes,
            3 * 60 * 160 * 120 * 3 + 2 * 60 * 1764 * 2 * 2
        );
        assert!(
            ingest.stored_bytes < ingest.raw_bytes / 4,
            "four codecs must compress"
        );
        assert_eq!(first.layer["db.bytes_on_disk"], ingest.stored_bytes as f64);
        // 5 streams of 60 elements, the show expanded, then rendered frame
        // by frame, and 2.4 s of narration mixed window by window.
        assert_eq!(first.events, 5 * 60 + 1025 + 1025 + 24);
        let second = pipeline.rep(&RepCtx::untraced(1), None);
        assert_eq!(first.digest, second.digest);
        assert_eq!(
            first.ingest.unwrap().stored_bytes,
            second.ingest.unwrap().stored_bytes
        );
        // Another seed cuts elsewhere: same amount of work, other pixels.
        let other = MediaPipeline::setup(3, 60);
        assert_ne!(other.script_digest(), pipeline.script_digest());
        let moved = other.rep(&RepCtx::untraced(1), None);
        assert_eq!(moved.events, first.events);
        assert_ne!(moved.digest, first.digest);
    }
}
