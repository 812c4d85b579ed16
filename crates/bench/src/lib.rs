//! Shared workload builders for the experiment binaries, and the
//! [`scenario`] library the root tests, examples and CI read as well.

#![deny(missing_docs)]

pub mod scenario;

use tbm_blob::MemBlobStore;
use tbm_codec::dct::DctParams;
use tbm_core::{QualityFactor, VideoQuality};
use tbm_interp::capture::{self, AvCapture};
use tbm_media::gen::{AudioSignal, VideoPattern};
use tbm_media::{AudioBuffer, Frame};
use tbm_time::TimeSystem;

/// CD sample pairs per PAL frame (the Fig. 2 interleave unit).
pub const SPF: usize = 1764;

/// Renders `n` frames of the standard workload pattern.
pub fn video_frames(n: usize, w: u32, h: u32) -> Vec<Frame> {
    tbm_media::gen::render_frames(VideoPattern::MovingBar, 0, n, w, h)
}

/// A 440 Hz stereo CD tone of `frames` sample-frames.
pub fn cd_tone(frames: usize) -> AudioBuffer {
    AudioSignal::Sine {
        hz: 440.0,
        amplitude: 9000,
    }
    .generate(0, frames, 44_100, 2)
}

/// Captures an interleaved AV clip of `n` frames into a fresh store.
pub fn captured_av(n: usize, w: u32, h: u32) -> (MemBlobStore, AvCapture) {
    let mut store = MemBlobStore::new();
    let cap = capture::capture_av_interleaved(
        &mut store,
        &video_frames(n, w, h),
        &cd_tone(n * SPF),
        SPF,
        TimeSystem::PAL,
        tbm_codec::quality::video_params(VideoQuality::Vhs),
        Some(QualityFactor::Video(VideoQuality::Vhs)),
    )
    .expect("capture");
    (store, cap)
}

/// Default DCT parameters for workloads.
pub fn dct_params() -> DctParams {
    DctParams::default()
}

/// Formats a byte count with binary units.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1024 * 1024 {
        format!("{:.2} MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 1024 {
        format!("{:.2} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Formats a rate in bytes/second with binary units.
pub fn fmt_rate(bps: f64) -> String {
    if bps >= 1024.0 * 1024.0 {
        format!("{:.2} MiB/s", bps / (1024.0 * 1024.0))
    } else if bps >= 1024.0 {
        format!("{:.2} KiB/s", bps / 1024.0)
    } else {
        format!("{bps:.0} B/s")
    }
}
