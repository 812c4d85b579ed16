//! Block-DCT intraframe coder ("JPEG-like").
//!
//! Implements the compression step of the paper's Fig. 2 walk-through: "The
//! YUV frames are then JPEG compressed using a quality factor resulting in
//! about 0.5 bits per pixel (this will give VHS quality)." The pipeline is
//! the standard intraframe design:
//!
//! 1. convert to the chroma-subsampled YUV layout ([`tbm_media::PixelFormat::Yuv420`]),
//! 2. split each plane into 8×8 blocks (edge-replicated padding),
//! 3. forward DCT per block,
//! 4. quantize with JPEG's example luminance/chrominance matrices scaled by
//!    a quality percentage,
//! 5. zig-zag scan, then entropy-code: DC as a signed-Golomb delta from the
//!    previous block, ACs as `(zero-run, level)` pairs with an end-of-block
//!    sentinel.
//!
//! Because step 5 is variable-length, encoded frame sizes depend on content
//! and quality — *the* property that forces interpretation to keep explicit
//! `(elementSize, blobPlacement)` tables (paper §4.1). Frames are also
//! independently decodable, which is the paper's observation about JPEG
//! video: "since frames are compressed independently, it is easier to
//! rearrange the order of the frames and to playback in reverse or at
//! variable rates."
//!
//! The coder also exposes [`encode_plane_i16`]/[`decode_plane_i16`] on raw
//! centered planes. The crate's other frame coders (scalable layers,
//! interframe residuals) code their planes through the same crate-private
//! three-plane coder as [`encode_frame`].

use crate::{BitReader, BitWriter, CodecError};
use tbm_media::{Frame, PixelFormat};

/// JPEG Annex K luminance quantization matrix.
const LUMA_QUANT: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// JPEG Annex K chrominance quantization matrix.
const CHROMA_QUANT: [u16; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99, //
    18, 21, 26, 66, 99, 99, 99, 99, //
    24, 26, 56, 99, 99, 99, 99, 99, //
    47, 66, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99,
];

/// Zig-zag scan order for an 8×8 block.
const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// End-of-block sentinel for the AC run-length code (runs are ≤ 62).
const EOB_RUN: u64 = 63;

/// Encoder parameters. `quant_percent` scales the base quantization
/// matrices: 100 = JPEG's example tables, larger = coarser (smaller files,
/// lower fidelity). See [`crate::quality`] for the descriptive-quality
/// mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DctParams {
    /// Quantizer scale in percent (1..=3000).
    pub quant_percent: u16,
}

impl DctParams {
    /// Parameters at a given quantizer percentage.
    pub fn with_quant(quant_percent: u16) -> DctParams {
        DctParams {
            quant_percent: quant_percent.clamp(1, 3000),
        }
    }
}

impl Default for DctParams {
    fn default() -> DctParams {
        DctParams { quant_percent: 100 }
    }
}

fn scaled_quant(base: &[u16; 64], percent: u16) -> [i32; 64] {
    let mut q = [1i32; 64];
    for i in 0..64 {
        q[i] = ((base[i] as u32 * percent as u32 + 50) / 100).max(1) as i32;
    }
    q
}

/// Cosine basis: `COS[u][x] = cos((2x+1)uπ/16)`, computed once.
fn cos_table() -> &'static [[f64; 8]; 8] {
    static TABLE: std::sync::OnceLock<[[f64; 8]; 8]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0.0f64; 8]; 8];
        for (u, row) in t.iter_mut().enumerate() {
            for (x, v) in row.iter_mut().enumerate() {
                *v = ((2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0).cos();
            }
        }
        t
    })
}

fn fdct(block: &[f64; 64], out: &mut [f64; 64], cos: &[[f64; 8]; 8]) {
    // Separable: rows then columns.
    let mut tmp = [0.0f64; 64];
    for y in 0..8 {
        for u in 0..8 {
            let mut s = 0.0;
            for x in 0..8 {
                s += block[y * 8 + x] * cos[u][x];
            }
            tmp[y * 8 + u] = s;
        }
    }
    let norm = |k: usize| if k == 0 { (0.5f64).sqrt() } else { 1.0 };
    for u in 0..8 {
        for v in 0..8 {
            let mut s = 0.0;
            for y in 0..8 {
                s += tmp[y * 8 + u] * cos[v][y];
            }
            out[v * 8 + u] = 0.25 * norm(u) * norm(v) * s;
        }
    }
}

fn idct(block: &[f64; 64], out: &mut [f64; 64], cos: &[[f64; 8]; 8]) {
    let norm = |k: usize| if k == 0 { (0.5f64).sqrt() } else { 1.0 };
    let mut tmp = [0.0f64; 64];
    for v in 0..8 {
        for x in 0..8 {
            let mut s = 0.0;
            for u in 0..8 {
                s += norm(u) * block[v * 8 + u] * cos[u][x];
            }
            tmp[v * 8 + x] = s;
        }
    }
    for x in 0..8 {
        for y in 0..8 {
            let mut s = 0.0;
            for v in 0..8 {
                s += norm(v) * tmp[v * 8 + x] * cos[v][y];
            }
            out[y * 8 + x] = 0.25 * s;
        }
    }
}

/// Encodes one centered plane (values conceptually in ±1023) of geometry
/// `w × h` into `writer`. Used directly by the interframe coder for
/// residual planes.
pub fn encode_plane_i16(
    plane: &[i16],
    w: usize,
    h: usize,
    quant: &[i32; 64],
    writer: &mut BitWriter,
) {
    let cos = cos_table();
    let bw = w.div_ceil(8);
    let bh = h.div_ceil(8);
    let mut prev_dc = 0i64;
    let mut block = [0.0f64; 64];
    let mut coeffs = [0.0f64; 64];
    for by in 0..bh {
        for bx in 0..bw {
            // Gather with edge replication.
            for y in 0..8 {
                for x in 0..8 {
                    let sx = (bx * 8 + x).min(w - 1);
                    let sy = (by * 8 + y).min(h - 1);
                    block[y * 8 + x] = plane[sy * w + sx] as f64;
                }
            }
            fdct(&block, &mut coeffs, cos);
            // Quantize into zig-zag order.
            let mut q = [0i64; 64];
            for (zz, &pos) in ZIGZAG.iter().enumerate() {
                let v = coeffs[pos] / quant[pos] as f64;
                q[zz] = v.round() as i64;
            }
            // DC delta.
            writer.put_se(q[0] - prev_dc);
            prev_dc = q[0];
            // AC run-length pairs.
            let mut run = 0u64;
            for &level in q.iter().skip(1) {
                if level == 0 {
                    run += 1;
                } else {
                    writer.put_ue(run);
                    writer.put_se(level);
                    run = 0;
                }
            }
            writer.put_ue(EOB_RUN);
        }
    }
}

/// Decodes one centered plane of geometry `w × h` from `reader`.
pub fn decode_plane_i16(
    reader: &mut BitReader<'_>,
    w: usize,
    h: usize,
    quant: &[i32; 64],
) -> Result<Vec<i16>, CodecError> {
    let cos = cos_table();
    let bw = w.div_ceil(8);
    let bh = h.div_ceil(8);
    let mut plane = vec![0i16; w * h];
    let mut prev_dc = 0i64;
    let mut pixels = [0.0f64; 64];
    for by in 0..bh {
        for bx in 0..bw {
            let mut q = [0i64; 64];
            prev_dc += reader.get_se()?;
            q[0] = prev_dc;
            let mut zz = 1usize;
            loop {
                let run = reader.get_ue()?;
                if run == EOB_RUN {
                    break;
                }
                zz += run as usize;
                if zz >= 64 {
                    return Err(CodecError::malformed("dct", "AC index overflow"));
                }
                q[zz] = reader.get_se()?;
                zz += 1;
                if zz > 64 {
                    return Err(CodecError::malformed("dct", "AC index overflow"));
                }
            }
            // Dequantize out of zig-zag order.
            let mut coeffs = [0.0f64; 64];
            for (zz, &pos) in ZIGZAG.iter().enumerate() {
                coeffs[pos] = (q[zz] * quant[pos] as i64) as f64;
            }
            idct(&coeffs, &mut pixels, cos);
            // Scatter (skip padding).
            for y in 0..8 {
                for x in 0..8 {
                    let dx = bx * 8 + x;
                    let dy = by * 8 + y;
                    if dx < w && dy < h {
                        plane[dy * w + dx] =
                            pixels[y * 8 + x].round().clamp(-2048.0, 2047.0) as i16;
                    }
                }
            }
        }
    }
    Ok(plane)
}

/// The scaled quantization matrices for a parameter set: `(luma, chroma)`.
pub fn quant_matrices(params: DctParams) -> ([i32; 64], [i32; 64]) {
    (
        scaled_quant(&LUMA_QUANT, params.quant_percent),
        scaled_quant(&CHROMA_QUANT, params.quant_percent),
    )
}

/// The centered (±128) planes of a YUV 4:2:0 frame, luma first.
#[derive(Clone)]
pub(crate) struct Planes {
    pub(crate) y: Vec<i16>,
    pub(crate) u: Vec<i16>,
    pub(crate) v: Vec<i16>,
}

impl Planes {
    /// The planes of `frame`, converted to YUV 4:2:0 first.
    pub(crate) fn of(frame: &Frame) -> Planes {
        let f = frame.to_format(PixelFormat::Yuv420);
        let (w, h) = (f.width() as usize, f.height() as usize);
        let n = w * h;
        let c = w.div_ceil(2) * h.div_ceil(2);
        let d = f.data();
        let center = |b: &[u8]| -> Vec<i16> { b.iter().map(|&x| x as i16 - 128).collect() };
        Planes {
            y: center(&d[..n]),
            u: center(&d[n..n + c]),
            v: center(&d[n + c..]),
        }
    }

    /// `f` applied sample by sample to these planes and `other`'s.
    pub(crate) fn zip(&self, other: &Planes, f: impl Fn(i16, i16) -> i16) -> Planes {
        let zip = |a: &[i16], b: &[i16]| a.iter().zip(b).map(|(&a, &b)| f(a, b)).collect();
        Planes {
            y: zip(&self.y, &other.y),
            u: zip(&self.u, &other.u),
            v: zip(&self.v, &other.v),
        }
    }

    /// The `width × height` YUV 4:2:0 frame of these planes; `None` when
    /// their sizes do not fit that geometry.
    pub(crate) fn to_frame(&self, width: u32, height: u32) -> Option<Frame> {
        let mut data = Vec::with_capacity(PixelFormat::Yuv420.byte_len(width, height));
        for plane in [&self.y, &self.u, &self.v] {
            data.extend(plane.iter().map(|&v| (v + 128).clamp(0, 255) as u8));
        }
        Frame::from_raw(width, height, PixelFormat::Yuv420, data)
    }
}

/// Codes the [`Planes`] of one geometry as one bitstream, luma then the
/// two chroma planes, each through [`encode_plane_i16`] with its
/// quantization table.
pub(crate) struct PlaneCoder {
    /// Luma width.
    pub(crate) w: usize,
    /// Luma height.
    pub(crate) h: usize,
    /// Chroma width.
    pub(crate) cw: usize,
    /// Chroma height.
    pub(crate) ch: usize,
    lq: [i32; 64],
    cq: [i32; 64],
}

impl PlaneCoder {
    /// A coder for `w × h` luma at `params`' quantizer.
    pub(crate) fn new(w: usize, h: usize, params: DctParams) -> PlaneCoder {
        let (lq, cq) = quant_matrices(params);
        PlaneCoder {
            w,
            h,
            cw: w.div_ceil(2),
            ch: h.div_ceil(2),
            lq,
            cq,
        }
    }

    /// The bitstream of `p`.
    pub(crate) fn encode(&self, p: &Planes) -> Vec<u8> {
        let mut writer = BitWriter::new();
        encode_plane_i16(&p.y, self.w, self.h, &self.lq, &mut writer);
        encode_plane_i16(&p.u, self.cw, self.ch, &self.cq, &mut writer);
        encode_plane_i16(&p.v, self.cw, self.ch, &self.cq, &mut writer);
        writer.into_bytes()
    }

    /// The planes a bitstream of [`PlaneCoder::encode`] codes.
    pub(crate) fn decode(&self, data: &[u8]) -> Result<Planes, CodecError> {
        let mut reader = BitReader::new(data);
        Ok(Planes {
            y: decode_plane_i16(&mut reader, self.w, self.h, &self.lq)?,
            u: decode_plane_i16(&mut reader, self.cw, self.ch, &self.cq)?,
            v: decode_plane_i16(&mut reader, self.cw, self.ch, &self.cq)?,
        })
    }

    /// Encodes `p`, then reconstructs it as a decoder will see it — what
    /// a prediction loop must predict from (quantization in the loop, or
    /// encoder and decoder drift).
    pub(crate) fn encode_recon(&self, p: &Planes) -> (Vec<u8>, Planes) {
        let data = self.encode(p);
        let recon = self.decode(&data).expect("own bitstream decodes");
        (data, recon)
    }
}

/// Encodes a frame intraframe. Any input format is converted to the
/// chroma-subsampled YUV layout first (the Fig. 2 pipeline).
///
/// Output layout: `magic(2) | w(2) | h(2) | quant_percent(2) | bitstream`.
pub fn encode_frame(frame: &Frame, params: DctParams) -> Vec<u8> {
    let (width, height) = (frame.width(), frame.height());
    let coder = PlaneCoder::new(width as usize, height as usize, params);
    let bits = coder.encode(&Planes::of(frame));

    let mut out = Vec::with_capacity(8 + bits.len());
    out.extend_from_slice(b"DJ");
    out.extend_from_slice(&(width as u16).to_le_bytes());
    out.extend_from_slice(&(height as u16).to_le_bytes());
    out.extend_from_slice(&params.quant_percent.to_le_bytes());
    out.extend_from_slice(&bits);
    out
}

/// Decodes an intraframe-encoded frame to the chroma-subsampled YUV layout.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, CodecError> {
    if bytes.len() < 8 || &bytes[0..2] != b"DJ" {
        return Err(CodecError::malformed("dct", "bad magic/short header"));
    }
    let w = u16::from_le_bytes(bytes[2..4].try_into().expect("len")) as usize;
    let h = u16::from_le_bytes(bytes[4..6].try_into().expect("len")) as usize;
    let quant_percent = u16::from_le_bytes(bytes[6..8].try_into().expect("len"));
    if w == 0 || h == 0 {
        return Err(CodecError::bad_geometry("dct", "zero dimension"));
    }
    let coder = PlaneCoder::new(w, h, DctParams::with_quant(quant_percent));
    coder
        .decode(&bytes[8..])?
        .to_frame(w as u32, h as u32)
        .ok_or_else(|| CodecError::malformed("dct", "plane size mismatch"))
}

/// Convenience: encoded bits per source pixel (the paper's 0.5 bpp target).
pub fn bits_per_pixel(encoded_len: usize, width: u32, height: u32) -> f64 {
    encoded_len as f64 * 8.0 / (width as f64 * height as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbm_media::gen::VideoPattern;

    fn test_frame(idx: u64) -> Frame {
        VideoPattern::MovingBar.render(idx, 64, 48)
    }

    #[test]
    fn roundtrip_geometry_and_fidelity() {
        let src = test_frame(0);
        let enc = encode_frame(&src, DctParams::default());
        let dec = decode_frame(&enc).unwrap();
        assert_eq!(dec.width(), 64);
        assert_eq!(dec.height(), 48);
        assert_eq!(dec.format(), PixelFormat::Yuv420);
        let reference = src.to_format(PixelFormat::Yuv420);
        let mad = reference.mean_abs_diff(&dec).unwrap();
        assert!(mad < 6.0, "mean abs diff {mad:.2} too high at q=100");
    }

    #[test]
    fn lossy_not_identity() {
        // The paper: "encoding followed by decoding is not an identity
        // transformation."
        let src = VideoPattern::Noise(1).render(0, 32, 32);
        let dec = decode_frame(&encode_frame(&src, DctParams::default())).unwrap();
        let reference = src.to_format(PixelFormat::Yuv420);
        assert!(reference.mean_abs_diff(&dec).unwrap() > 0.0);
    }

    #[test]
    fn coarser_quantization_shrinks_output_and_degrades() {
        let src = test_frame(3);
        let fine = encode_frame(&src, DctParams::with_quant(50));
        let coarse = encode_frame(&src, DctParams::with_quant(800));
        assert!(
            coarse.len() < fine.len(),
            "coarse {} !< fine {}",
            coarse.len(),
            fine.len()
        );
        let reference = src.to_format(PixelFormat::Yuv420);
        let fine_err = reference
            .mean_abs_diff(&decode_frame(&fine).unwrap())
            .unwrap();
        let coarse_err = reference
            .mean_abs_diff(&decode_frame(&coarse).unwrap())
            .unwrap();
        assert!(coarse_err > fine_err);
    }

    #[test]
    fn sizes_vary_with_content() {
        // Flat frames compress far better than noise — variable element
        // sizes are the point of the interpretation tables.
        let flat = VideoPattern::Solid(40, 80, 120).render(0, 64, 64);
        let noisy = VideoPattern::Noise(7).render(0, 64, 64);
        let p = DctParams::default();
        let flat_len = encode_frame(&flat, p).len();
        let noisy_len = encode_frame(&noisy, p).len();
        assert!(
            noisy_len > flat_len * 3,
            "noise {noisy_len} should dwarf flat {flat_len}"
        );
    }

    #[test]
    fn frames_decode_independently() {
        // JPEG-style independence (paper §2.1): any frame decodes without
        // context, so reverse/variable-rate playback is possible.
        let frames: Vec<_> = (0..5).map(test_frame).collect();
        let encoded: Vec<_> = frames
            .iter()
            .map(|f| encode_frame(f, DctParams::default()))
            .collect();
        // Decode in reverse order.
        for (f, e) in frames.iter().zip(&encoded).rev() {
            let dec = decode_frame(e).unwrap();
            let reference = f.to_format(PixelFormat::Yuv420);
            assert!(reference.mean_abs_diff(&dec).unwrap() < 6.0);
        }
    }

    #[test]
    fn odd_dimensions_supported() {
        let src = VideoPattern::ShiftingGradient.render(2, 37, 23);
        let dec = decode_frame(&encode_frame(&src, DctParams::default())).unwrap();
        assert_eq!((dec.width(), dec.height()), (37, 23));
    }

    #[test]
    fn malformed_input_rejected() {
        assert!(decode_frame(&[]).is_err());
        assert!(decode_frame(b"XX123456").is_err());
        let mut enc = encode_frame(&test_frame(0), DctParams::default());
        enc.truncate(enc.len() / 2);
        assert!(decode_frame(&enc).is_err());
        // Zero dimensions.
        let bad = [b'D', b'J', 0, 0, 0, 0, 100, 0];
        assert!(decode_frame(&bad).is_err());
    }

    #[test]
    fn plane_roundtrip_exact_for_dc_only() {
        // A constant plane has only DC energy; quantized roundtrip should be
        // near-exact.
        let plane = vec![37i16; 16 * 16];
        let quant = scaled_quant(&LUMA_QUANT, 100);
        let mut w = BitWriter::new();
        encode_plane_i16(&plane, 16, 16, &quant, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let back = decode_plane_i16(&mut r, 16, 16, &quant).unwrap();
        for &v in &back {
            assert!((v - 37).abs() <= 8, "{v}");
        }
    }

    #[test]
    fn bpp_helper() {
        assert!((bits_per_pixel(100, 10, 10) - 8.0).abs() < 1e-12);
    }
}
