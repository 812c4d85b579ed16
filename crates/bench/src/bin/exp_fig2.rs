//! E2 / E9 — Figure 2 and the §2.2 interpretation issues.
//!
//! Reproduces the paper's §4.1 "Example of Interpretation": a PAL video
//! signal plus stereo CD audio, digitized, compressed and interleaved in
//! one BLOB; prints the two media descriptors exactly as the paper lists
//! them, the element-table excerpts, and measured vs paper data rates.
//! Then exercises each §2.2 layout issue (heterogeneity, interleaving,
//! padding, out-of-order, scalability) and reports per-layout overhead.
//!
//! Scale: the paper captures 10 minutes of 640×480; by default this runs
//! 2 seconds at 640×480 (structurally identical; every rate is per-second).
//! Pass a frame count to override: `exp_fig2 250`.
//!
//! ```text
//! cargo run --release -p tbm-bench --bin exp_fig2
//! ```

#![allow(clippy::format_in_format_args)] // computed cells padded by the outer format
use tbm_bench::{cd_tone, fmt_bytes, fmt_rate, video_frames, SPF};
use tbm_blob::MemBlobStore;
use tbm_codec::dct;
use tbm_codec::interframe::GopParams;
use tbm_codec::quality::video_params;
use tbm_core::{QualityFactor, VideoQuality};
use tbm_interp::capture;
use tbm_interp::TimeIndex;
use tbm_time::TimeSystem;

const W: u32 = 640;
const H: u32 = 480;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50);
    println!("E2 / Figure 2 — interpretation of a PAL + stereo-CD BLOB");
    println!("capture: {n} frames of {W}x{H} at 25 fps (paper: 15000 frames / 10 min)\n");

    // ------------------------------------------------------------------
    // The Fig. 2 capture.
    // ------------------------------------------------------------------
    let frames = video_frames(n, W, H);
    let audio = cd_tone(n * SPF);
    let mut store = MemBlobStore::new();
    let cap = capture::capture_av_interleaved(
        &mut store,
        &frames,
        &audio,
        SPF,
        TimeSystem::PAL,
        video_params(VideoQuality::Vhs),
        Some(QualityFactor::Video(VideoQuality::Vhs)),
    )
    .expect("capture");

    let v = cap.interpretation.stream("video1").unwrap();
    let a = cap.interpretation.stream("audio1").unwrap();
    println!("{}", v.descriptor());
    println!();
    println!("{}", a.descriptor());

    // ------------------------------------------------------------------
    // The interpretation tables (paper: "video1(elementNumber,
    // elementSize, blobPlacement)"; "audio1(elementNumber, blobPlacement)").
    // ------------------------------------------------------------------
    println!(
        "\nvideo1(elementNumber, elementSize, blobPlacement)  [first 5 of {}]",
        v.len()
    );
    for (i, e) in v.entries().iter().take(5).enumerate() {
        println!(
            "  ({i:>4}, {:>7}, {})",
            e.size,
            e.placement.as_single().unwrap()
        );
    }
    println!(
        "audio1(elementNumber, blobPlacement)               [first 5 of {}]",
        a.len()
    );
    for (i, e) in a.entries().iter().take(5).enumerate() {
        println!("  ({i:>4}, {})", e.placement.as_single().unwrap());
    }

    // ------------------------------------------------------------------
    // Data-rate arithmetic vs the paper's numbers.
    // ------------------------------------------------------------------
    let secs = n as f64 / 25.0;
    let raw_rate = 640.0 * 480.0 * 3.0 * 25.0;
    let video_bytes: u64 = v.entries().iter().map(|e| e.size).sum();
    let video_rate = video_bytes as f64 / secs;
    let audio_bytes: u64 = a.entries().iter().map(|e| e.size).sum();
    let audio_rate = audio_bytes as f64 / secs;
    let bpp = video_rate / 25.0 * 8.0 / (640.0 * 480.0);
    println!("\n{:<34}{:>16}{:>16}", "quantity", "paper", "measured");
    println!("{}", "-".repeat(66));
    println!(
        "{:<34}{:>16}{:>16}",
        "raw video rate",
        "~22 MByte/s",
        fmt_rate(raw_rate)
    );
    println!(
        "{:<34}{:>16}{:>16}",
        "compressed video rate",
        "~0.5 MByte/s",
        fmt_rate(video_rate)
    );
    println!("{:<34}{:>16}{:>16.3}", "video bits/pixel", "~0.5", bpp);
    println!(
        "{:<34}{:>16}{:>16}",
        "audio rate",
        "172 kByte/s",
        fmt_rate(audio_rate)
    );
    println!(
        "{:<34}{:>16}{:>16}",
        "audio chunk per frame",
        "1764 pairs",
        format!("{} pairs", SPF)
    );
    println!(
        "{:<34}{:>16}{:>16.1}",
        "compression vs raw",
        "~44:1",
        raw_rate / video_rate
    );

    // ------------------------------------------------------------------
    // The descriptive quality ladder (§2.2 "Quality Factors"): the schema
    // says "VHS quality"; only the codec layer knows the quantizer.
    // ------------------------------------------------------------------
    println!("\nquality-factor ladder (one 640x480 frame):");
    println!(
        "{:<22}{:>12}{:>12}{:>12}",
        "quality factor", "bytes", "bits/pixel", "PSNR (dB)"
    );
    println!("{}", "-".repeat(58));
    let probe = &frames[frames.len() / 2];
    let reference = probe.to_format(tbm_media::PixelFormat::Yuv420);
    for q in [
        tbm_core::VideoQuality::Preview,
        tbm_core::VideoQuality::Vhs,
        tbm_core::VideoQuality::Broadcast,
        tbm_core::VideoQuality::Studio,
    ] {
        let enc = dct::encode_frame(probe, video_params(q));
        let dec = dct::decode_frame(&enc).expect("own bitstream");
        let psnr = reference.psnr(&dec).unwrap();
        println!(
            "{:<22}{:>12}{:>12.3}{:>12.1}",
            QualityFactor::Video(q).name(),
            enc.len(),
            dct::bits_per_pixel(enc.len(), W, H),
            psnr
        );
    }

    // ------------------------------------------------------------------
    // E9 — the §2.2 layout issues, one BLOB each.
    // ------------------------------------------------------------------
    println!("\nE9 — §2.2 interpretation issues (reduced geometry 160x120, {n} frames)");
    let small = video_frames(n, 160, 120);
    let small_audio = cd_tone(n * SPF);

    // Interleaved (baseline).
    let mut s1 = MemBlobStore::new();
    let base = capture::capture_av_interleaved(
        &mut s1,
        &small,
        &small_audio,
        SPF,
        TimeSystem::PAL,
        dct::DctParams::default(),
        None,
    )
    .unwrap();

    // Padded (CD-I sectors).
    let mut s2 = MemBlobStore::new();
    let padded = capture::capture_av_padded(
        &mut s2,
        &small,
        &small_audio,
        SPF,
        TimeSystem::PAL,
        dct::DctParams::default(),
        None,
        2048,
    )
    .unwrap();

    // Out-of-order (interframe GOP).
    let mut s3 = MemBlobStore::new();
    let (_, gop_interp) = capture::capture_video_interframe(
        &mut s3,
        &small,
        TimeSystem::PAL,
        GopParams::default(),
        None,
    )
    .unwrap();
    let gop = gop_interp.stream("video1").unwrap();
    let gop_bytes = gop.total_bytes();
    // Show the physical placement order of the first GOP group.
    let mut order: Vec<usize> = (0..gop.len().min(4)).collect();
    order.sort_by_key(|&i| gop.entries()[i].placement.as_single().unwrap().offset);
    let one_indexed: Vec<usize> = order.iter().map(|i| i + 1).collect();

    // Scalable (two layers).
    let mut s4 = MemBlobStore::new();
    let (_, sc_interp) = capture::capture_video_scalable(
        &mut s4,
        &small,
        TimeSystem::PAL,
        dct::DctParams::default(),
    )
    .unwrap();
    let sc = sc_interp.stream("video1").unwrap();
    let sc_base: u64 = sc.entries().iter().map(|e| e.placement.prefix_len(1)).sum();
    let sc_total = sc.total_bytes();

    println!(
        "{:<26}{:>14}{:>14}  note",
        "layout", "BLOB bytes", "overhead"
    );
    println!("{}", "-".repeat(78));
    println!(
        "{:<26}{:>14}{:>14}  audio follows frame",
        "interleaved (Fig. 2)",
        fmt_bytes(base.blob_len),
        "0 B"
    );
    println!(
        "{:<26}{:>14}{:>14}  {}",
        "padded (CD-I, 2 KiB)",
        fmt_bytes(padded.blob_len),
        fmt_bytes(padded.padding_bytes),
        format!(
            "{:.1}% padding",
            100.0 * padded.padding_bytes as f64 / padded.blob_len as f64
        )
    );
    println!(
        "{:<26}{:>14}{:>14}  {}",
        "out-of-order (GOP)",
        fmt_bytes(gop_bytes),
        "0 B",
        format!("placement {one_indexed:?}")
    );
    println!(
        "{:<26}{:>14}{:>14}  {}",
        "scalable (2 layers)",
        fmt_bytes(sc_total),
        fmt_bytes(sc_total - sc_base),
        format!(
            "base = {:.0}% of bytes",
            100.0 * sc_base as f64 / sc_total as f64
        )
    );

    // ------------------------------------------------------------------
    // Index ablation: time → element lookup.
    // ------------------------------------------------------------------
    println!(
        "\nindex ablation: element-at-time lookup over {} entries",
        v.len()
    );
    let entries = v.entries();
    let probes: Vec<i64> = (0..10_000).map(|i| (i * 7) % n as i64).collect();
    let t0 = std::time::Instant::now();
    let mut acc = 0usize;
    for &p in &probes {
        acc += TimeIndex::lookup_scan(entries, p).unwrap();
    }
    let scan = t0.elapsed();
    let idx = TimeIndex::build(entries);
    let t1 = std::time::Instant::now();
    for &p in &probes {
        acc += idx.lookup(entries, p).unwrap();
    }
    let indexed = t1.elapsed();
    std::hint::black_box(acc);
    println!(
        "  linear scan : {:>10.1} ns/lookup",
        scan.as_nanos() as f64 / probes.len() as f64
    );
    println!(
        "  time index  : {:>10.1} ns/lookup ({:?} path, {:.0}x faster)",
        indexed.as_nanos() as f64 / probes.len() as f64,
        match idx {
            TimeIndex::Uniform { .. } => "uniform-stride",
            TimeIndex::Search { .. } => "binary-search",
        },
        scan.as_secs_f64() / indexed.as_secs_f64().max(1e-12)
    );
}
