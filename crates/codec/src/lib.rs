//! # tbm-codec — real codecs for the reproduction
//!
//! The paper's modeling issues — variable element sizes, heterogeneous
//! element descriptors, out-of-order placement, scalability, descriptive
//! quality factors — all originate in *compression*. This crate implements
//! working software codecs so those properties arise genuinely rather than
//! being faked (see DESIGN.md's substitution record):
//!
//! * [`pcm`] — uncompressed 16-bit PCM (the CD-audio media type; uniform
//!   streams).
//! * [`adpcm`] — an IMA-style ADPCM coder whose per-block predictor/step
//!   parameters are exactly the paper's example of *element descriptors*
//!   on heterogeneous streams.
//! * [`dct`] — a block-DCT intraframe coder ("JPEG-like"): 8×8 DCT,
//!   quality-scaled quantization, zig-zag, RLE + exp-Golomb entropy coding.
//!   Produces genuinely variable-sized frames, driving Fig. 2's
//!   interpretation tables.
//! * [`interframe`] — a GOP coder ("MPEG-like") with I/P/B frames whose
//!   decode order differs from presentation order — the paper's
//!   "out-of-order elements" placement `1,4,2,3`.
//! * [`scalable`] — a two-layer (base + enhancement) coder; dropping the
//!   enhancement layer is the paper's scalability: "bandwidth can be saved
//!   … if the video sequence is 'scaled' to a lower resolution by ignoring
//!   parts of the storage unit."
//! * [`quality`] — the mapping from descriptive [`tbm_core::QualityFactor`]s
//!   to low-level encoder parameters, which the paper insists must not be
//!   visible at the data-modeling level.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adpcm;
mod bits;
pub mod dct;
mod error;
pub mod interframe;
pub mod pcm;
pub mod quality;
pub mod scalable;

pub use bits::{BitReader, BitWriter};
pub use error::CodecError;

#[cfg(test)]
mod tests {
    use crate::interframe::{decode_sequence, encode_sequence, GopParams};
    use crate::scalable::{decode_base, decode_full, encode_layered};
    use crate::{dct, dct::DctParams};
    use tbm_core::crc32;
    use tbm_media::gen::VideoPattern;
    use tbm_media::Frame;

    /// The three frame codecs share one YUV plane coder; the CRC-32 of
    /// what each writes — and reads back — pins every bitstream byte
    /// through any change to it. Odd geometry covers the edge padding.
    #[test]
    fn frame_codecs_write_pinned_bitstreams() {
        let frame = |i| VideoPattern::MovingBar.render(i, 37, 23);
        let pixels = |f: &Frame| crc32(f.data());
        let p = DctParams::default();

        let intra = dct::encode_frame(&frame(0), p);
        let intra_back = pixels(&dct::decode_frame(&intra).unwrap());

        let layered = encode_layered(&frame(1), p);
        let base_back = pixels(&decode_base(&layered).unwrap());
        let full_back = pixels(&decode_full(&layered).unwrap());

        // I B B P P P: an anchor pair with its B frames, then a P tail.
        let gop = GopParams {
            gop_size: 4,
            b_frames: 2,
            dct: p,
        };
        let seq = encode_sequence(&(0..6).map(frame).collect::<Vec<_>>(), gop).unwrap();
        let coded: Vec<u8> = seq.frames.iter().flat_map(|f| f.data.clone()).collect();
        let gop_back: Vec<u8> = decode_sequence(&seq)
            .unwrap()
            .iter()
            .flat_map(|f| f.data().to_vec())
            .collect();

        assert_eq!(
            [
                crc32(&intra),
                intra_back,
                crc32(&layered.base),
                crc32(&layered.enhancement),
                base_back,
                full_back,
                crc32(&coded),
                crc32(&gop_back),
            ],
            [
                0x847e_738d,
                0x6a91_79c0,
                0x6f3d_033b,
                0xdbf9_427c,
                0x11c7_3059,
                0xa38d_e4e8,
                0x0b52_4f9f,
                0xd6cb_5155,
            ]
        );
    }
}
