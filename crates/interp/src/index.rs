//! Index structures over element tables.
//!
//! The paper notes that "existing storage systems for time-based media use
//! multiple index structures, allowing rapid lookup of the element occurring
//! at a specific time … (for example, QuickTime uses up to seven indexes for
//! a single timed stream)," and that these indexes "should not be visible to
//! applications." Two live here:
//!
//! * [`TimeIndex`] — time → element-number. For constant-frequency streams
//!   it degenerates to a stride computation (O(1)); otherwise it binary
//!   searches the ordered starts (O(log n)). The `exp_fig2` benchmark
//!   ablates these against a naive linear scan.
//! * [`ChunkedIndex`] — element-number → byte offset at reduced memory: one
//!   base offset per chunk of elements plus per-element sizes, trading a
//!   short scan (≤ chunk size) for not storing one span per element. This is
//!   the table-size/lookup-cost design choice DESIGN.md calls out for
//!   ablation.

use crate::ElementEntry;
use tbm_blob::ByteSpan;

/// Time → element lookup strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimeIndex {
    /// Constant-frequency fast path: element `(t − start) / duration`.
    Uniform {
        /// Start of the first element.
        start: i64,
        /// Common element duration (> 0).
        duration: i64,
        /// Element count.
        count: usize,
    },
    /// General path: binary search over ordered starts, then a walk back
    /// over overlaps bounded by the longest duration.
    Search {
        /// The stream's longest element duration: an element starting
        /// before `tick` and at or before `tick - max_duration` cannot
        /// cover `tick`, so neither can any element before it.
        max_duration: i64,
    },
}

impl TimeIndex {
    /// Chooses the best index for a table of entries (assumed start-ordered).
    pub fn build(entries: &[ElementEntry]) -> TimeIndex {
        if let Some(first) = entries.first() {
            let d = first.duration;
            if d > 0 {
                let uniform = entries
                    .iter()
                    .enumerate()
                    .all(|(i, e)| e.duration == d && e.start == first.start + (i as i64) * d);
                if uniform {
                    return TimeIndex::Uniform {
                        start: first.start,
                        duration: d,
                        count: entries.len(),
                    };
                }
            }
        }
        TimeIndex::Search {
            max_duration: entries.iter().map(|e| e.duration).max().unwrap_or(0),
        }
    }

    /// The element number active at `tick`, if any.
    pub fn lookup(&self, entries: &[ElementEntry], tick: i64) -> Option<usize> {
        match *self {
            TimeIndex::Uniform {
                start,
                duration,
                count,
            } => {
                if tick < start {
                    return None;
                }
                let idx = ((tick - start) / duration) as usize;
                (idx < count).then_some(idx)
            }
            TimeIndex::Search { max_duration } => {
                if entries.is_empty() || tick < entries[0].start {
                    return None;
                }
                let n = entries.partition_point(|e| e.start <= tick);
                // Walk back over ties/overlaps to an element covering `tick`,
                // no further than the longest duration reaches: in a gap the
                // walk stops after the elements that could still cover it.
                for (i, e) in entries[..n].iter().enumerate().rev() {
                    if covers(e, tick) {
                        return Some(i);
                    }
                    if e.start < tick && e.start.saturating_add(max_duration) <= tick {
                        return None;
                    }
                }
                None
            }
        }
    }

    /// Reference implementation: linear scan (the no-index baseline the
    /// benchmark compares against). Like `lookup`, overlapping coverage
    /// resolves to the *most recently started* covering element.
    pub fn lookup_scan(entries: &[ElementEntry], tick: i64) -> Option<usize> {
        entries
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, e)| covers(e, tick).then_some(i))
    }
}

/// Whether `e` is active at `tick`: an event (duration 0) at its instant,
/// an element over its half-open interval.
fn covers(e: &ElementEntry, tick: i64) -> bool {
    if e.duration == 0 {
        e.start == tick
    } else {
        e.start <= tick && tick < e.end()
    }
}

/// A two-level element-number → placement index.
///
/// Stores `offsets[c]` = byte offset of the first element of chunk `c`, plus
/// all element sizes; the offset of element `i` is the chunk base plus the
/// sizes of the elements before it within the chunk. Memory: one `u64` per
/// element (size) + one per chunk, versus the full table's span per element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkedIndex {
    chunk_size: usize,
    chunk_offsets: Vec<u64>,
    sizes: Vec<u64>,
}

impl ChunkedIndex {
    /// Builds from contiguous single-span entries (each element's bytes
    /// immediately follow the previous element's). Returns `None` when the
    /// layout is not contiguous, or entries are layered.
    pub fn build(entries: &[ElementEntry], chunk_size: usize) -> Option<ChunkedIndex> {
        let chunk_size = chunk_size.max(1);
        let mut chunk_offsets = Vec::with_capacity(entries.len().div_ceil(chunk_size));
        let mut sizes = Vec::with_capacity(entries.len());
        let mut expect: Option<u64> = None;
        for (i, e) in entries.iter().enumerate() {
            let span = e.placement.as_single()?;
            if let Some(x) = expect {
                if span.offset != x {
                    return None;
                }
            }
            if i % chunk_size == 0 {
                chunk_offsets.push(span.offset);
            }
            sizes.push(span.len);
            expect = Some(span.end());
        }
        Some(ChunkedIndex {
            chunk_size,
            chunk_offsets,
            sizes,
        })
    }

    /// Number of elements indexed.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` when no elements are indexed.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// The placement of element `i`: chunk base + intra-chunk size scan.
    pub fn placement(&self, i: usize) -> Option<ByteSpan> {
        if i >= self.sizes.len() {
            return None;
        }
        let chunk = i / self.chunk_size;
        let mut offset = self.chunk_offsets[chunk];
        for j in chunk * self.chunk_size..i {
            offset += self.sizes[j];
        }
        Some(ByteSpan::new(offset, self.sizes[i]))
    }

    /// Approximate memory footprint in bytes (for the ablation report).
    pub fn memory_bytes(&self) -> usize {
        self.chunk_offsets.len() * 8 + self.sizes.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_entries(n: usize, dur: i64, size: u64) -> Vec<ElementEntry> {
        let mut at = 0u64;
        (0..n)
            .map(|i| {
                let e = ElementEntry::simple(i as i64 * dur, dur, ByteSpan::new(at, size));
                at += size;
                e
            })
            .collect()
    }

    fn variable_entries() -> Vec<ElementEntry> {
        // Variable sizes, contiguous placement, continuous timing.
        let sizes = [10u64, 25, 5, 40, 15];
        let mut at = 0u64;
        let mut start = 0i64;
        sizes
            .iter()
            .map(|&z| {
                let e = ElementEntry::simple(start, 2, ByteSpan::new(at, z));
                at += z;
                start += 2;
                e
            })
            .collect()
    }

    #[test]
    fn uniform_fast_path_selected_and_correct() {
        let entries = uniform_entries(100, 1, 4);
        let idx = TimeIndex::build(&entries);
        assert!(matches!(idx, TimeIndex::Uniform { .. }));
        for t in [0i64, 1, 57, 99] {
            assert_eq!(idx.lookup(&entries, t), Some(t as usize));
            assert_eq!(TimeIndex::lookup_scan(&entries, t), Some(t as usize));
        }
        assert_eq!(idx.lookup(&entries, -1), None);
        assert_eq!(idx.lookup(&entries, 100), None);
    }

    #[test]
    fn search_path_for_gappy_streams() {
        let entries = vec![
            ElementEntry::simple(0, 5, ByteSpan::new(0, 3)),
            ElementEntry::simple(10, 5, ByteSpan::new(3, 3)),
        ];
        let idx = TimeIndex::build(&entries);
        assert_eq!(idx, TimeIndex::Search { max_duration: 5 });
        assert_eq!(idx.lookup(&entries, 3), Some(0));
        assert_eq!(idx.lookup(&entries, 7), None); // in the gap
        assert_eq!(idx.lookup(&entries, 12), Some(1));
        assert_eq!(idx.lookup(&entries, 15), None);
    }

    #[test]
    fn search_matches_scan_on_events() {
        let entries = vec![
            ElementEntry::simple(5, 0, ByteSpan::new(0, 3)),
            ElementEntry::simple(9, 0, ByteSpan::new(3, 3)),
        ];
        let idx = TimeIndex::build(&entries);
        for t in 0..12 {
            assert_eq!(
                idx.lookup(&entries, t),
                TimeIndex::lookup_scan(&entries, t),
                "t = {t}"
            );
        }
    }

    #[test]
    fn variable_durations_fall_back_to_search() {
        let entries = vec![
            ElementEntry::simple(0, 2, ByteSpan::new(0, 3)),
            ElementEntry::simple(2, 3, ByteSpan::new(3, 3)),
        ];
        assert_eq!(
            TimeIndex::build(&entries),
            TimeIndex::Search { max_duration: 3 }
        );
    }

    #[test]
    fn chunked_index_agrees_with_full_table() {
        let entries = variable_entries();
        for chunk in [1usize, 2, 3, 16] {
            let ci = ChunkedIndex::build(&entries, chunk).unwrap();
            assert_eq!(ci.len(), entries.len());
            for (i, e) in entries.iter().enumerate() {
                assert_eq!(
                    ci.placement(i),
                    e.placement.as_single(),
                    "chunk {chunk} elem {i}"
                );
            }
            assert_eq!(ci.placement(99), None);
        }
    }

    #[test]
    fn chunked_index_rejects_non_contiguous() {
        let entries = vec![
            ElementEntry::simple(0, 1, ByteSpan::new(0, 10)),
            ElementEntry::simple(1, 1, ByteSpan::new(999, 10)),
        ];
        assert!(ChunkedIndex::build(&entries, 4).is_none());
    }

    #[test]
    fn chunked_index_rejects_layered() {
        let e = ElementEntry::simple(0, 1, ByteSpan::new(0, 10))
            .with_layers(vec![ByteSpan::new(0, 5), ByteSpan::new(5, 5)])
            .unwrap();
        assert!(ChunkedIndex::build(&[e], 4).is_none());
    }

    #[test]
    fn memory_accounting() {
        let entries = uniform_entries(100, 1, 4);
        let ci = ChunkedIndex::build(&entries, 10).unwrap();
        assert_eq!(ci.memory_bytes(), 10 * 8 + 100 * 8);
        assert!(!ci.is_empty());
    }
}
