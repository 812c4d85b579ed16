//! CRC32 (IEEE 802.3) checksums.
//!
//! The paper argues that interpretation data "is crucial and the task should
//! not be left to applications" — a BLOB whose interpretation is lost is
//! "meaningless data". The same holds for the bytes themselves: a silently
//! flipped bit in a BLOB or in the catalog yields garbage frames with no
//! diagnosis. Every integrity check in the workspace (per-element checksums
//! in `tbm-interp`, the catalog footer in `tbm-db`) uses this one CRC32 so
//! the values are comparable across layers.

/// A streaming CRC32 (IEEE polynomial, reflected, as used by zip/png).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

/// Slice-by-8 lookup tables for the reflected IEEE polynomial `0xEDB88320`.
///
/// `TABLES[0]` is the classic one-byte table. `TABLES[k][i]` is the CRC of
/// byte `i` followed by `k` zero bytes, so eight bytes fold into the state
/// with eight independent lookups instead of eight dependent ones.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

impl Crc32 {
    /// A fresh checksum state.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes` into the checksum: eight bytes per step, then a
    /// bytewise tail. The value depends only on the bytes fed, not on how
    /// they were split across calls.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// The CRC32 of `bytes` in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table, byte-at-a-time CRC32 that `Crc32::update` replaced,
    /// kept as the reference the slice-by-8 kernel is checked against.
    fn bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0, |crc, &b| {
            (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
        })
    }

    /// `n` seeded pseudo-random bytes.
    fn noise(n: usize) -> Vec<u8> {
        let mut rng = proptest::test_runner::TestRng::for_test("crc32");
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_length_and_alignment() {
        let buf = noise(64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "start {start}, len {len}");
            }
        }
        for len in [4 << 10, 64 << 10] {
            let block = noise(len + 3);
            assert_eq!(crc32(&block[3..]), bytewise(&block[3..]), "len {len}");
        }
    }

    #[test]
    fn every_two_way_split_streams_to_the_same_value() {
        let data = noise(40);
        let whole = crc32(&data);
        assert_eq!(whole, bytewise(&data));
        for cut in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            assert_eq!(c.finish(), whole, "split at {cut}");
        }
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"interpretation of time-based media";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        data[500] = 0x55;
        let before = crc32(&data);
        data[700] ^= 0x01;
        assert_ne!(before, crc32(&data));
    }
}
