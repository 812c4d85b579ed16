//! Interframe GOP coder ("MPEG-like") with out-of-order element placement.
//!
//! The paper's §2.2 lists *out-of-order elements* among the interpretation
//! issues:
//!
//! > *"Some compression techniques, such as MPEG, exploit similarities
//! > between consecutive elements. 'Key' elements are identified from which
//! > intermediate elements can be constructed by interpolation. Because key
//! > elements are needed at an early stage during decoding, they may be
//! > placed in storage units prior to the intermediate elements. For
//! > example, with a sequence of four elements where the first and last are
//! > 'keys,' the placement order could be 1,4,2,3."*
//!
//! This coder reproduces that structure with real prediction:
//!
//! * **I frames** — intraframe (DCT) coded, no references.
//! * **P frames** — residual against the most recent reconstructed anchor.
//! * **B frames** — residual against the *average* of the two bracketing
//!   anchors ("constructed by interpolation"); they decode *after* the later
//!   anchor, so decode order ≠ display order.
//!
//! With two B frames per anchor gap, a 4-frame sequence whose first and
//! last frames are anchors encodes in exactly the paper's `1,4,2,3` order
//! (see [`decode_order_indices`] and its test).

use crate::dct::{DctParams, PlaneCoder, Planes};
use crate::CodecError;
use tbm_core::{ElementDescriptor, StreamElement};
use tbm_media::Frame;

/// Frame kinds in the GOP structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Intraframe-coded key ("key elements" in the paper's wording).
    I,
    /// Predicted from the previous anchor.
    P,
    /// Interpolated between two anchors.
    B,
}

impl FrameKind {
    /// Single-letter name.
    pub fn letter(self) -> char {
        match self {
            FrameKind::I => 'I',
            FrameKind::P => 'P',
            FrameKind::B => 'B',
        }
    }
}

/// GOP structure parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GopParams {
    /// Display distance between I frames (≥ 1). Anchors at multiples of
    /// `b_frames + 1` that are also multiples of `gop_size` are I; other
    /// anchors are P.
    pub gop_size: usize,
    /// Number of B frames between consecutive anchors (0 disables
    /// reordering).
    pub b_frames: usize,
    /// Transform/quantizer parameters shared by all frames.
    pub dct: DctParams,
}

impl Default for GopParams {
    fn default() -> GopParams {
        GopParams {
            gop_size: 12,
            b_frames: 2,
            dct: DctParams::default(),
        }
    }
}

/// One encoded frame of a sequence, tagged with its display position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedVideoFrame {
    /// I/P/B.
    pub kind: FrameKind,
    /// Position in *presentation* order.
    pub display_index: usize,
    /// Entropy-coded plane data.
    pub data: Vec<u8>,
}

impl StreamElement for EncodedVideoFrame {
    fn byte_size(&self) -> u64 {
        self.data.len() as u64 + 1
    }

    fn descriptor_token(&self) -> u64 {
        match self.kind {
            FrameKind::I => 1,
            FrameKind::P => 2,
            FrameKind::B => 3,
        }
    }

    fn element_descriptor(&self) -> ElementDescriptor {
        ElementDescriptor::from_pairs([("frame kind", self.kind.letter().to_string())])
    }
}

/// An encoded sequence: geometry plus frames in **decode order**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedSequence {
    /// Frame width.
    pub width: u32,
    /// Frame height.
    pub height: u32,
    /// GOP parameters used.
    pub params: GopParams,
    /// Frames in decode (storage) order.
    pub frames: Vec<EncodedVideoFrame>,
}

fn diff(a: &Planes, b: &Planes) -> Planes {
    a.zip(b, |x, y| x - y)
}

fn add_clamped(base: &Planes, delta: &Planes) -> Planes {
    base.zip(delta, |x, y| (x + y).clamp(-128, 127))
}

fn average(a: &Planes, b: &Planes) -> Planes {
    a.zip(b, |x, y| ((x as i32 + y as i32) / 2) as i16)
}

/// The display indices of a `count`-frame sequence in decode order.
pub fn decode_order_indices(count: usize, params: GopParams) -> Vec<usize> {
    let step = params.b_frames + 1;
    let mut order = Vec::with_capacity(count);
    let mut a = 0usize;
    let mut prev_anchor: Option<usize> = None;
    while a < count {
        order.push(a);
        if let Some(p) = prev_anchor {
            for b in p + 1..a {
                order.push(b);
            }
        }
        prev_anchor = Some(a);
        a += step;
    }
    // Tail frames after the final anchor form a P chain in display order.
    if let Some(p) = prev_anchor {
        for t in p + 1..count {
            order.push(t);
        }
    }
    order
}

/// Encodes frames (display order) into an [`EncodedSequence`] (decode
/// order). All frames must share one geometry.
#[allow(clippy::needless_range_loop)] // display indices address the planes table
pub fn encode_sequence(frames: &[Frame], params: GopParams) -> Result<EncodedSequence, CodecError> {
    let first = match frames.first() {
        Some(f) => f,
        None => {
            return Ok(EncodedSequence {
                width: 0,
                height: 0,
                params,
                frames: Vec::new(),
            })
        }
    };
    let (w, h) = (first.width(), first.height());
    if frames.iter().any(|f| f.width() != w || f.height() != h) {
        return Err(CodecError::bad_geometry(
            "interframe",
            "all frames in a sequence must share geometry",
        ));
    }
    let coder = PlaneCoder::new(w as usize, h as usize, params.dct);
    let step = params.b_frames + 1;
    let gop = params.gop_size.max(1);

    let planes: Vec<Planes> = frames.iter().map(Planes::of).collect();
    let mut out = Vec::with_capacity(frames.len());

    let mut prev_anchor_recon: Option<Planes> = None;
    let mut prev_anchor_idx: Option<usize> = None;
    let mut a = 0usize;
    while a < frames.len() {
        // Anchor: I at GOP boundaries, else P.
        let (kind, residual_base) = if a.is_multiple_of(gop) || prev_anchor_recon.is_none() {
            (FrameKind::I, None)
        } else {
            (FrameKind::P, prev_anchor_recon.as_ref())
        };
        let target = match residual_base {
            None => planes[a].clone(),
            Some(base) => diff(&planes[a], base),
        };
        let (data, recon_residual) = coder.encode_recon(&target);
        let recon = match residual_base {
            None => recon_residual,
            Some(base) => add_clamped(base, &recon_residual),
        };
        out.push(EncodedVideoFrame {
            kind,
            display_index: a,
            data,
        });
        // B frames between the previous anchor and this one.
        if let (Some(pa), Some(pi)) = (prev_anchor_recon.as_ref(), prev_anchor_idx) {
            let interp = average(pa, &recon);
            for b in pi + 1..a {
                let bdata = coder.encode(&diff(&planes[b], &interp));
                out.push(EncodedVideoFrame {
                    kind: FrameKind::B,
                    display_index: b,
                    data: bdata,
                });
            }
        }
        prev_anchor_recon = Some(recon);
        prev_anchor_idx = Some(a);
        a += step;
    }
    // Tail: P chain after the final anchor.
    if let (Some(mut last), Some(pi)) = (prev_anchor_recon, prev_anchor_idx) {
        for t in pi + 1..frames.len() {
            let (data, recon_residual) = coder.encode_recon(&diff(&planes[t], &last));
            last = add_clamped(&last, &recon_residual);
            out.push(EncodedVideoFrame {
                kind: FrameKind::P,
                display_index: t,
                data,
            });
        }
    }
    Ok(EncodedSequence {
        width: w,
        height: h,
        params,
        frames: out,
    })
}

/// Decodes a sequence back to frames in **display order**.
pub fn decode_sequence(seq: &EncodedSequence) -> Result<Vec<Frame>, CodecError> {
    if seq.frames.is_empty() {
        return Ok(Vec::new());
    }
    let coder = PlaneCoder::new(seq.width as usize, seq.height as usize, seq.params.dct);
    let count = seq.frames.len();
    let mut display: Vec<Option<Frame>> = vec![None; count];
    let mut prev_anchor: Option<Planes> = None;
    let mut cur_anchor: Option<Planes> = None;
    let mut last_ref: Option<Planes> = None; // most recent I/P reconstruction
    for ef in &seq.frames {
        let residual = coder.decode(&ef.data)?;
        let recon = match ef.kind {
            FrameKind::I => residual,
            FrameKind::P => {
                let base = last_ref.as_ref().ok_or(CodecError::MissingReference {
                    wanted: ef.display_index,
                })?;
                add_clamped(base, &residual)
            }
            FrameKind::B => {
                let (pa, ca) = match (prev_anchor.as_ref(), cur_anchor.as_ref()) {
                    (Some(p), Some(c)) => (p, c),
                    _ => {
                        return Err(CodecError::MissingReference {
                            wanted: ef.display_index,
                        })
                    }
                };
                add_clamped(&average(pa, ca), &residual)
            }
        };
        if ef.kind != FrameKind::B {
            prev_anchor = cur_anchor.take();
            cur_anchor = Some(recon.clone());
            last_ref = Some(recon.clone());
        }
        if ef.display_index >= count {
            return Err(CodecError::malformed(
                "interframe",
                "display index out of range",
            ));
        }
        let frame = recon.to_frame(seq.width, seq.height);
        display[ef.display_index] = Some(frame.expect("plane sizes consistent"));
    }
    display
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            f.ok_or_else(|| CodecError::malformed("interframe", format!("frame {i} missing")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbm_media::gen::VideoPattern;
    use tbm_media::PixelFormat;

    fn clip(n: usize) -> Vec<Frame> {
        (0..n as u64)
            .map(|i| VideoPattern::MovingBar.render(i, 48, 32))
            .collect()
    }

    fn default_params() -> GopParams {
        GopParams {
            gop_size: 6,
            b_frames: 2,
            dct: DctParams::default(),
        }
    }

    #[test]
    fn paper_placement_order_1_4_2_3() {
        // "with a sequence of four elements where the first and last are
        // 'keys', the placement order could be 1,4,2,3" (1-indexed).
        let order = decode_order_indices(4, default_params());
        assert_eq!(order, vec![0, 3, 1, 2]);
        let one_indexed: Vec<_> = order.iter().map(|i| i + 1).collect();
        assert_eq!(one_indexed, vec![1, 4, 2, 3]);
    }

    #[test]
    fn decode_order_covers_all_frames_once() {
        for n in [1, 2, 3, 4, 7, 12, 13] {
            let mut order = decode_order_indices(n, default_params());
            order.sort_unstable();
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn no_b_frames_means_display_order() {
        let p = GopParams {
            b_frames: 0,
            ..default_params()
        };
        assert_eq!(decode_order_indices(5, p), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn roundtrip_reconstructs_all_frames() {
        let frames = clip(8);
        let seq = encode_sequence(&frames, default_params()).unwrap();
        assert_eq!(seq.frames.len(), 8);
        let decoded = decode_sequence(&seq).unwrap();
        assert_eq!(decoded.len(), 8);
        for (i, (src, dec)) in frames.iter().zip(&decoded).enumerate() {
            let reference = src.to_format(PixelFormat::Yuv420);
            let mad = reference.mean_abs_diff(dec).unwrap();
            assert!(mad < 8.0, "frame {i}: mad {mad:.2}");
        }
    }

    #[test]
    fn storage_order_matches_decode_order_indices() {
        let frames = clip(10);
        let params = default_params();
        let seq = encode_sequence(&frames, params).unwrap();
        let stored: Vec<_> = seq.frames.iter().map(|f| f.display_index).collect();
        assert_eq!(stored, decode_order_indices(10, params));
    }

    #[test]
    fn frame_kinds_follow_gop_pattern() {
        let frames = clip(13);
        let seq = encode_sequence(&frames, default_params()).unwrap();
        let kind_of = |display: usize| {
            seq.frames
                .iter()
                .find(|f| f.display_index == display)
                .unwrap()
                .kind
        };
        assert_eq!(kind_of(0), FrameKind::I);
        assert_eq!(kind_of(3), FrameKind::P);
        assert_eq!(kind_of(6), FrameKind::I); // gop_size = 6
        assert_eq!(kind_of(1), FrameKind::B);
        assert_eq!(kind_of(2), FrameKind::B);
    }

    #[test]
    fn interframe_beats_intraframe_on_slow_content() {
        // The paper: MPEG-style coding "exploit[s] similarities between
        // consecutive elements" and so outperforms JPEG-per-frame for a
        // given quality. MovingBar changes slowly frame-to-frame.
        let frames = clip(12);
        let inter = encode_sequence(&frames, default_params()).unwrap();
        let inter_bytes: usize = inter.frames.iter().map(|f| f.data.len()).sum();
        let intra_bytes: usize = frames
            .iter()
            .map(|f| crate::dct::encode_frame(f, DctParams::default()).len())
            .sum();
        assert!(
            inter_bytes < intra_bytes,
            "interframe {inter_bytes} should beat intraframe {intra_bytes}"
        );
    }

    #[test]
    fn element_descriptors_expose_frame_kind() {
        let frames = clip(4);
        let seq = encode_sequence(&frames, default_params()).unwrap();
        let i = &seq.frames[0];
        let b = seq.frames.iter().find(|f| f.kind == FrameKind::B).unwrap();
        assert_ne!(i.descriptor_token(), b.descriptor_token());
        assert_eq!(
            i.element_descriptor(),
            ElementDescriptor::from_pairs([("frame kind", "I")])
        );
    }

    #[test]
    fn mismatched_geometry_rejected() {
        let mut frames = clip(2);
        frames.push(VideoPattern::MovingBar.render(2, 24, 16));
        assert!(matches!(
            encode_sequence(&frames, default_params()),
            Err(CodecError::BadGeometry { .. })
        ));
    }

    #[test]
    fn empty_sequence() {
        let seq = encode_sequence(&[], default_params()).unwrap();
        assert!(seq.frames.is_empty());
        assert!(decode_sequence(&seq).unwrap().is_empty());
    }

    #[test]
    fn b_frame_without_anchors_rejected() {
        let frames = clip(4);
        let mut seq = encode_sequence(&frames, default_params()).unwrap();
        // Corrupt: make the stream start with a B frame.
        seq.frames.swap(0, 2);
        assert!(decode_sequence(&seq).is_err());
    }

    #[test]
    fn single_frame_is_an_i_frame() {
        let frames = clip(1);
        let seq = encode_sequence(&frames, default_params()).unwrap();
        assert_eq!(seq.frames.len(), 1);
        assert_eq!(seq.frames[0].kind, FrameKind::I);
        assert_eq!(decode_sequence(&seq).unwrap().len(), 1);
    }
}
