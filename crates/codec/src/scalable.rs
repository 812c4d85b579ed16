//! Two-layer scalable ("layered") coding.
//!
//! The paper's §2.2 lists *scalability* among the interpretation issues:
//!
//! > *"Certain representations for time-based media … allow presentation at
//! > different levels of detail. … bandwidth can be saved and processing
//! > reduced if the video sequence is 'scaled' to a lower resolution by
//! > ignoring parts of the storage unit."*
//!
//! [`encode_layered`] produces exactly that structure: a **base layer**
//! (the frame downsampled 2× and intraframe-coded) followed by an
//! **enhancement layer** (the residual between the source and the upsampled
//! base, intraframe-coded). A reader that stops after the base layer gets a
//! legitimate low-resolution picture; reading both layers restores full
//! fidelity. Interpretation records the two layers as separate spans of the
//! element's placement, so scaling is literally "ignoring parts of the
//! storage unit".

use crate::dct::{DctParams, PlaneCoder, Planes};
use crate::CodecError;
use tbm_media::Frame;

/// A frame encoded in two layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayeredFrame {
    /// Frame width (full resolution).
    pub width: u32,
    /// Frame height (full resolution).
    pub height: u32,
    /// Quantizer percentage used for both layers.
    pub quant_percent: u16,
    /// Base layer: half-resolution intraframe code.
    pub base: Vec<u8>,
    /// Enhancement layer: full-resolution residual code.
    pub enhancement: Vec<u8>,
}

impl LayeredFrame {
    /// Total encoded size (both layers).
    pub fn total_len(&self) -> usize {
        self.base.len() + self.enhancement.len()
    }

    /// Fraction of the bytes needed for base-only decoding.
    pub fn base_fraction(&self) -> f64 {
        if self.total_len() == 0 {
            return 0.0;
        }
        self.base.len() as f64 / self.total_len() as f64
    }
}

/// The plane coders of the two layers: full resolution (the enhancement
/// layer) and half (the base layer).
fn coders(width: u32, height: u32, dct: DctParams) -> (PlaneCoder, PlaneCoder) {
    let full = PlaneCoder::new(width as usize, height as usize, dct);
    let half = PlaneCoder::new(full.w.div_ceil(2).max(1), full.h.div_ceil(2).max(1), dct);
    (full, half)
}

/// 2× box downsample of one plane.
fn downsample(plane: &[i16], w: usize, h: usize) -> Vec<i16> {
    let ow = w.div_ceil(2).max(1);
    let oh = h.div_ceil(2).max(1);
    let mut out = vec![0i16; ow * oh];
    for oy in 0..oh {
        for ox in 0..ow {
            let mut sum = 0i32;
            let mut count = 0i32;
            for dy in 0..2 {
                for dx in 0..2 {
                    let x = ox * 2 + dx;
                    let y = oy * 2 + dy;
                    if x < w && y < h {
                        sum += plane[y * w + x] as i32;
                        count += 1;
                    }
                }
            }
            out[oy * ow + ox] = (sum / count) as i16;
        }
    }
    out
}

/// 2× nearest-neighbour upsample of one plane to `w × h`.
fn upsample(plane: &[i16], sw: usize, sh: usize, w: usize, h: usize) -> Vec<i16> {
    let mut out = vec![0i16; w * h];
    for y in 0..h {
        for x in 0..w {
            let sx = (x / 2).min(sw - 1);
            let sy = (y / 2).min(sh - 1);
            out[y * w + x] = plane[sy * sw + sx];
        }
    }
    out
}

fn down_planes(p: &Planes, g: &PlaneCoder) -> Planes {
    Planes {
        y: downsample(&p.y, g.w, g.h),
        u: downsample(&p.u, g.cw, g.ch),
        v: downsample(&p.v, g.cw, g.ch),
    }
}

fn up_planes(p: &Planes, from: &PlaneCoder, to: &PlaneCoder) -> Planes {
    Planes {
        y: upsample(&p.y, from.w, from.h, to.w, to.h),
        u: upsample(&p.u, from.cw, from.ch, to.cw, to.ch),
        v: upsample(&p.v, from.cw, from.ch, to.cw, to.ch),
    }
}

fn join(p: &Planes, width: u32, height: u32) -> Frame {
    p.to_frame(width, height).expect("consistent planes")
}

/// Encodes a frame into base + enhancement layers.
pub fn encode_layered(frame: &Frame, dct: DctParams) -> LayeredFrame {
    let width = frame.width();
    let height = frame.height();
    let (full, half) = coders(width, height, dct);
    let src = Planes::of(frame);

    // Enhancement predicts from the *reconstructed* base (quantization in
    // the loop), like any closed-loop layered coder. Every plane set is
    // bound to a name and lives to the end: freeing the downsampled and
    // residual planes early leaves the allocator's heap more fragmented
    // (`perf`'s `storm_cold`, which captures 256 objects this way, peaked
    // 5 MB higher).
    let base_planes = down_planes(&src, &full);
    let (base, base_recon) = half.encode_recon(&base_planes);
    let predicted = up_planes(&base_recon, &half, &full);
    let residual = src.zip(&predicted, |a, b| a - b);
    let enhancement = full.encode(&residual);
    LayeredFrame {
        width,
        height,
        quant_percent: dct.quant_percent,
        base,
        enhancement,
    }
}

/// The base layer of `lf`, decoded and upsampled to full geometry, with
/// the full-resolution coder.
fn base_up(lf: &LayeredFrame) -> Result<(Planes, PlaneCoder), CodecError> {
    let (full, half) = coders(lf.width, lf.height, DctParams::with_quant(lf.quant_percent));
    let base = half.decode(&lf.base)?;
    Ok((up_planes(&base, &half, &full), full))
}

/// Decodes the base layer only: a full-geometry frame at reduced detail
/// ("scaled to a lower resolution by ignoring parts of the storage unit").
pub fn decode_base(lf: &LayeredFrame) -> Result<Frame, CodecError> {
    let (up, _) = base_up(lf)?;
    Ok(join(&up, lf.width, lf.height))
}

/// Decodes both layers: full fidelity.
pub fn decode_full(lf: &LayeredFrame) -> Result<Frame, CodecError> {
    let (predicted, full) = base_up(lf)?;
    let residual = full.decode(&lf.enhancement)?;
    let recon = predicted.zip(&residual, |a, b| (a + b).clamp(-128, 127));
    Ok(join(&recon, lf.width, lf.height))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbm_media::gen::VideoPattern;
    use tbm_media::PixelFormat;

    fn src() -> Frame {
        VideoPattern::ShiftingGradient.render(4, 64, 48)
    }

    #[test]
    fn full_decode_beats_base_decode() {
        let f = src();
        let lf = encode_layered(&f, DctParams::default());
        let reference = f.to_format(PixelFormat::Yuv420);
        let base_err = reference.mean_abs_diff(&decode_base(&lf).unwrap()).unwrap();
        let full_err = reference.mean_abs_diff(&decode_full(&lf).unwrap()).unwrap();
        assert!(
            full_err < base_err,
            "full {full_err:.2} should beat base {base_err:.2}"
        );
        assert!(full_err < 6.0, "full fidelity too low: {full_err:.2}");
    }

    #[test]
    fn base_layer_is_a_fraction_of_the_bytes() {
        let lf = encode_layered(&src(), DctParams::default());
        let frac = lf.base_fraction();
        assert!(
            frac > 0.02 && frac < 0.8,
            "base fraction {frac:.2} out of expected range"
        );
        assert_eq!(lf.total_len(), lf.base.len() + lf.enhancement.len());
    }

    #[test]
    fn base_decode_ignores_enhancement_bytes() {
        // Corrupting the enhancement layer must not affect base decoding —
        // the definition of "ignoring parts of the storage unit".
        let mut lf = encode_layered(&src(), DctParams::default());
        let base_frame = decode_base(&lf).unwrap();
        for b in &mut lf.enhancement {
            *b ^= 0xA5;
        }
        assert_eq!(decode_base(&lf).unwrap(), base_frame);
    }

    #[test]
    fn geometry_preserved_including_odd() {
        let f = VideoPattern::MovingBar.render(0, 33, 21);
        let lf = encode_layered(&f, DctParams::default());
        let b = decode_base(&lf).unwrap();
        let full = decode_full(&lf).unwrap();
        assert_eq!((b.width(), b.height()), (33, 21));
        assert_eq!((full.width(), full.height()), (33, 21));
    }

    #[test]
    fn truncated_layers_error() {
        let mut lf = encode_layered(&src(), DctParams::default());
        lf.base.truncate(2);
        assert!(decode_base(&lf).is_err());
        assert!(decode_full(&lf).is_err());
    }
}
