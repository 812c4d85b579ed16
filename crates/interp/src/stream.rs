//! One media object's interpretation: descriptor + element table + indexes.

use crate::{ElementEntry, InterpError, TimeIndex};
use tbm_blob::BlobStore;
use tbm_core::{BlobId, MediaDescriptor};
use tbm_time::TimeSystem;

/// Outcome of [`StreamInterp::verify_all`]: how each element's bytes checked
/// out against the recorded checksums.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Elements whose every layer matched its checksum.
    pub verified: usize,
    /// Elements with no recorded checksums (nothing to check).
    pub unchecked: usize,
    /// Elements with at least one checksum mismatch.
    pub corrupt: Vec<usize>,
    /// Elements whose bytes could not be read at all.
    pub unreadable: Vec<usize>,
}

impl VerifyReport {
    /// `true` when no element was corrupt or unreadable.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.unreadable.is_empty()
    }
}

/// The interpretation of one media object within a BLOB (one of the "set of
/// media objects" of Definition 5).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamInterp {
    descriptor: MediaDescriptor,
    system: TimeSystem,
    entries: Vec<ElementEntry>,
    time_index: TimeIndex,
    key_index: Vec<usize>,
}

impl StreamInterp {
    /// Builds a stream interpretation, validating entry ordering
    /// (Definition 3 constraints carry over: starts ordered, durations ≥ 0).
    pub fn new(
        descriptor: MediaDescriptor,
        system: TimeSystem,
        entries: Vec<ElementEntry>,
    ) -> Result<StreamInterp, InterpError> {
        for (i, e) in entries.iter().enumerate() {
            if e.duration < 0 {
                return Err(InterpError::InvalidEntries {
                    detail: format!("entry {i} has negative duration {}", e.duration),
                });
            }
            if i > 0 && e.start < entries[i - 1].start {
                return Err(InterpError::InvalidEntries {
                    detail: format!(
                        "entry {i} starts at {} before previous start {}",
                        e.start,
                        entries[i - 1].start
                    ),
                });
            }
            if e.size != e.placement.total_len() {
                return Err(InterpError::InvalidEntries {
                    detail: format!("entry {i} size disagrees with placement"),
                });
            }
            if e.has_checksums() && e.checksums.len() != e.placement.layer_count() {
                return Err(InterpError::InvalidEntries {
                    detail: format!(
                        "entry {i} has {} checksums for {} layers",
                        e.checksums.len(),
                        e.placement.layer_count()
                    ),
                });
            }
        }
        let time_index = TimeIndex::build(&entries);
        let key_index = entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.is_key.then_some(i))
            .collect();
        Ok(StreamInterp {
            descriptor,
            system,
            entries,
            time_index,
            key_index,
        })
    }

    /// The media descriptor of the interpreted object.
    pub fn descriptor(&self) -> &MediaDescriptor {
        &self.descriptor
    }

    /// The stream's discrete time system.
    pub fn system(&self) -> TimeSystem {
        self.system
    }

    /// The element table (start-ordered).
    pub fn entries(&self) -> &[ElementEntry] {
        &self.entries
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the stream has no elements.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for element `i`.
    pub fn entry(&self, i: usize) -> Result<&ElementEntry, InterpError> {
        self.entries.get(i).ok_or(InterpError::NoSuchElement {
            index: i,
            len: self.entries.len(),
        })
    }

    /// The element number active at discrete time `tick` — the "rapid
    /// lookup of the element occurring at a specific time".
    pub fn element_at(&self, tick: i64) -> Result<usize, InterpError> {
        self.time_index
            .lookup(&self.entries, tick)
            .ok_or(InterpError::NoElementAtTime { tick })
    }

    /// The most recent *key* element at or before element `i` — the seek
    /// entry point for interframe-coded streams (decode must start at a
    /// key).
    pub fn key_before(&self, i: usize) -> Result<usize, InterpError> {
        if i >= self.entries.len() {
            return Err(InterpError::NoSuchElement {
                index: i,
                len: self.entries.len(),
            });
        }
        let pos = self.key_index.partition_point(|&k| k <= i);
        if pos == 0 {
            // No key at or before i; treat element 0 as the decode origin.
            Ok(0)
        } else {
            Ok(self.key_index[pos - 1])
        }
    }

    /// Indices of all key elements.
    pub fn key_elements(&self) -> &[usize] {
        &self.key_index
    }

    /// Discrete span `[first start, max end)`, if non-empty.
    pub fn tick_span(&self) -> Option<(i64, i64)> {
        let first = self.entries.first()?;
        let end = self.entries.iter().map(ElementEntry::end).max()?;
        Some((first.start, end))
    }

    /// Total encoded bytes across all elements.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
    }

    /// Reads element `i`'s bytes (all layers) from the BLOB.
    pub fn read_element<S: BlobStore + ?Sized>(
        &self,
        store: &S,
        blob: BlobId,
        i: usize,
    ) -> Result<Vec<u8>, InterpError> {
        let e = self.entry(i)?;
        let mut out = Vec::with_capacity(e.size as usize);
        for &span in e.placement.layers() {
            let mut part = store.read(blob, span)?;
            out.append(&mut part);
        }
        Ok(out)
    }

    /// Reads only the first `layers` layers of element `i` — scalable access
    /// ("ignoring parts of the storage unit").
    pub fn read_element_layers<S: BlobStore + ?Sized>(
        &self,
        store: &S,
        blob: BlobId,
        i: usize,
        layers: usize,
    ) -> Result<Vec<u8>, InterpError> {
        let e = self.entry(i)?;
        if layers == 0 || layers > e.placement.layer_count() {
            return Err(InterpError::NoSuchLayer {
                layer: layers,
                available: e.placement.layer_count(),
            });
        }
        let mut out = Vec::with_capacity(e.placement.prefix_len(layers) as usize);
        for &span in &e.placement.layers()[..layers] {
            let mut part = store.read(blob, span)?;
            out.append(&mut part);
        }
        Ok(out)
    }

    /// Verifies the first `layers` layers of element `i` against the
    /// recorded checksums. Returns `Ok(true)` if all requested layers
    /// verified, `Ok(false)` if the entry carries no checksums (nothing to
    /// check), and [`InterpError::CorruptElement`] on the first mismatch.
    pub fn verify_element_layers<S: BlobStore + ?Sized>(
        &self,
        store: &S,
        blob: BlobId,
        i: usize,
        layers: usize,
    ) -> Result<bool, InterpError> {
        let e = self.entry(i)?;
        if layers == 0 || layers > e.placement.layer_count() {
            return Err(InterpError::NoSuchLayer {
                layer: layers,
                available: e.placement.layer_count(),
            });
        }
        if !e.has_checksums() {
            return Ok(false);
        }
        for (layer, (&span, &expected)) in e.placement.layers()[..layers]
            .iter()
            .zip(&e.checksums)
            .enumerate()
        {
            let actual = tbm_core::crc32(&store.read(blob, span)?);
            if actual != expected {
                return Err(InterpError::CorruptElement {
                    index: i,
                    layer,
                    expected,
                    actual,
                });
            }
        }
        Ok(true)
    }

    /// Verifies all layers of element `i`; see
    /// [`StreamInterp::verify_element_layers`].
    pub fn verify_element<S: BlobStore + ?Sized>(
        &self,
        store: &S,
        blob: BlobId,
        i: usize,
    ) -> Result<bool, InterpError> {
        self.verify_element_layers(store, blob, i, self.entry(i)?.placement.layer_count())
    }

    /// Verifies every element, collecting outcomes instead of stopping at
    /// the first problem — the audit entry point for salvage and fsck-style
    /// tooling.
    pub fn verify_all<S: BlobStore + ?Sized>(&self, store: &S, blob: BlobId) -> VerifyReport {
        let mut report = VerifyReport::default();
        for i in 0..self.entries.len() {
            match self.verify_element(store, blob, i) {
                Ok(true) => report.verified += 1,
                Ok(false) => report.unchecked += 1,
                Err(InterpError::CorruptElement { .. }) => report.corrupt.push(i),
                Err(_) => report.unreadable.push(i),
            }
        }
        report
    }

    /// A derived *view* of the table: keeps only entries selected by
    /// `keep`, renumbering elements — the paper's observation that "a
    /// second interpretation can be formed simply by removing table entries
    /// or changing their element number. The effect resembles video
    /// editing."
    pub fn filtered_view(
        &self,
        mut keep: impl FnMut(usize, &ElementEntry) -> bool,
    ) -> StreamInterp {
        let entries: Vec<ElementEntry> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(i, e)| keep(*i, e))
            .map(|(_, e)| e.clone())
            .collect();
        StreamInterp::new(self.descriptor.clone(), self.system, entries)
            .expect("filtering preserves ordering")
    }

    /// A derived view that renumbers elements per `order` (indices into the
    /// original table): the paper's other alternative-interpretation move,
    /// "changing their element number. The effect resembles video editing
    /// which involves cutting and reordering video sequences."
    ///
    /// Selected elements are re-timed onto a continuous grid preserving
    /// each element's duration (a reordering is only presentable with fresh
    /// start times). Fails if any index is out of range.
    pub fn reordered_view(&self, order: &[usize]) -> Result<StreamInterp, InterpError> {
        let mut entries = Vec::with_capacity(order.len());
        let mut at = self.entries.first().map(|e| e.start).unwrap_or(0);
        for &i in order {
            let src = self.entry(i)?;
            let mut e = src.clone();
            e.start = at;
            at += e.duration;
            entries.push(e);
        }
        StreamInterp::new(self.descriptor.clone(), self.system, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbm_blob::{ByteSpan, MemBlobStore};
    use tbm_core::MediaKind;

    fn desc() -> MediaDescriptor {
        MediaDescriptor::new(MediaKind::Video)
    }

    fn entries_contiguous(sizes: &[u64]) -> Vec<ElementEntry> {
        let mut at = 0u64;
        sizes
            .iter()
            .enumerate()
            .map(|(i, &z)| {
                let e = ElementEntry::simple(i as i64, 1, ByteSpan::new(at, z));
                at += z;
                e
            })
            .collect()
    }

    #[test]
    fn validation_rejects_bad_tables() {
        let bad_order = vec![
            ElementEntry::simple(5, 1, ByteSpan::new(0, 1)),
            ElementEntry::simple(3, 1, ByteSpan::new(1, 1)),
        ];
        assert!(StreamInterp::new(desc(), TimeSystem::PAL, bad_order).is_err());

        let bad_dur = vec![ElementEntry::simple(0, -1, ByteSpan::new(0, 1))];
        assert!(StreamInterp::new(desc(), TimeSystem::PAL, bad_dur).is_err());

        let mut bad_size = ElementEntry::simple(0, 1, ByteSpan::new(0, 5));
        bad_size.size = 99;
        assert!(StreamInterp::new(desc(), TimeSystem::PAL, vec![bad_size]).is_err());
    }

    #[test]
    fn lookup_and_reads() {
        let mut store = MemBlobStore::new();
        let blob = store.create().unwrap();
        store.append(blob, b"aaabbbbbcc").unwrap();
        let entries = entries_contiguous(&[3, 5, 2]);
        let si = StreamInterp::new(desc(), TimeSystem::PAL, entries).unwrap();
        assert_eq!(si.len(), 3);
        assert_eq!(si.element_at(1).unwrap(), 1);
        assert_eq!(si.read_element(&store, blob, 0).unwrap(), b"aaa");
        assert_eq!(si.read_element(&store, blob, 1).unwrap(), b"bbbbb");
        assert_eq!(si.read_element(&store, blob, 2).unwrap(), b"cc");
        assert!(si.read_element(&store, blob, 3).is_err());
        assert_eq!(si.total_bytes(), 10);
        assert_eq!(si.tick_span(), Some((0, 3)));
    }

    #[test]
    fn key_index_seeks() {
        let mut entries = entries_contiguous(&[4, 4, 4, 4, 4, 4]);
        // Keys at 0 and 3 (an I-frame every 3).
        for (i, e) in entries.iter_mut().enumerate() {
            e.is_key = i % 3 == 0;
        }
        let si = StreamInterp::new(desc(), TimeSystem::PAL, entries).unwrap();
        assert_eq!(si.key_elements(), &[0, 3]);
        assert_eq!(si.key_before(0).unwrap(), 0);
        assert_eq!(si.key_before(2).unwrap(), 0);
        assert_eq!(si.key_before(3).unwrap(), 3);
        assert_eq!(si.key_before(5).unwrap(), 3);
        assert!(si.key_before(6).is_err());
    }

    #[test]
    fn layered_reads() {
        let mut store = MemBlobStore::new();
        let blob = store.create().unwrap();
        store.append(blob, b"BASEENHANCE").unwrap();
        let e = ElementEntry::simple(0, 1, ByteSpan::new(0, 11))
            .with_layers(vec![ByteSpan::new(0, 4), ByteSpan::new(4, 7)])
            .unwrap();
        let si = StreamInterp::new(desc(), TimeSystem::PAL, vec![e]).unwrap();
        assert_eq!(si.read_element_layers(&store, blob, 0, 1).unwrap(), b"BASE");
        assert_eq!(si.read_element(&store, blob, 0).unwrap(), b"BASEENHANCE");
        assert!(matches!(
            si.read_element_layers(&store, blob, 0, 3),
            Err(InterpError::NoSuchLayer { .. })
        ));
        assert!(si.read_element_layers(&store, blob, 0, 0).is_err());
    }

    #[test]
    fn filtered_view_renumbers() {
        let entries = entries_contiguous(&[1, 1, 1, 1]);
        let si = StreamInterp::new(desc(), TimeSystem::PAL, entries).unwrap();
        // Keep even elements only — "removing table entries".
        let view = si.filtered_view(|i, _| i % 2 == 0);
        assert_eq!(view.len(), 2);
        assert_eq!(view.entry(0).unwrap().start, 0);
        assert_eq!(view.entry(1).unwrap().start, 2);
        // Original untouched (non-destructive).
        assert_eq!(si.len(), 4);
    }

    #[test]
    fn reordered_view_renumbers_and_retimes() {
        let entries = entries_contiguous(&[10, 20, 30, 40]);
        let si = StreamInterp::new(desc(), TimeSystem::PAL, entries).unwrap();
        // Reverse order with a repeat — "cutting and reordering".
        let view = si.reordered_view(&[3, 1, 1, 0]).unwrap();
        assert_eq!(view.len(), 4);
        // Continuous re-timing.
        let starts: Vec<i64> = view.entries().iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![0, 1, 2, 3]);
        // Placements reference the original BLOB bytes.
        assert_eq!(
            view.entry(0).unwrap().placement.as_single(),
            si.entry(3).unwrap().placement.as_single()
        );
        assert_eq!(
            view.entry(1).unwrap().placement.as_single(),
            view.entry(2).unwrap().placement.as_single()
        );
        // Original untouched; bad indices rejected.
        assert_eq!(si.len(), 4);
        assert!(si.reordered_view(&[9]).is_err());
    }

    #[test]
    fn verify_detects_corruption() {
        let mut store = MemBlobStore::new();
        let blob = store.create().unwrap();
        store.append(blob, b"BASEENHANCE").unwrap();
        let e = ElementEntry::simple(0, 1, ByteSpan::new(0, 11))
            .with_layers(vec![ByteSpan::new(0, 4), ByteSpan::new(4, 7)])
            .unwrap()
            .with_checksums_from(&store, blob)
            .unwrap();
        let plain = ElementEntry::simple(1, 1, ByteSpan::new(0, 4)); // no checksums
        let si = StreamInterp::new(desc(), TimeSystem::PAL, vec![e, plain]).unwrap();

        assert!(si.verify_element(&store, blob, 0).unwrap());
        assert!(!si.verify_element(&store, blob, 1).unwrap());
        let report = si.verify_all(&store, blob);
        assert!(report.is_clean());
        assert_eq!((report.verified, report.unchecked), (1, 1));

        // Corrupt the enhancement layer only: base-layer verification still
        // passes, full verification names layer 1.
        use tbm_blob::{FaultPlan, FaultyBlobStore};
        let faulty = FaultyBlobStore::new(store, FaultPlan::new(11).with_corruption(1.0));
        assert!(matches!(
            si.verify_element(&faulty, blob, 0),
            Err(InterpError::CorruptElement { index: 0, .. })
        ));
        let report = si.verify_all(&faulty, blob);
        assert!(!report.is_clean());
        assert_eq!(report.corrupt, vec![0]);
    }

    #[test]
    fn verify_mismatched_checksum_count_rejected() {
        let mut e = ElementEntry::simple(0, 1, ByteSpan::new(0, 4));
        e.checksums = vec![1, 2]; // two checksums, one layer
        assert!(StreamInterp::new(desc(), TimeSystem::PAL, vec![e]).is_err());
    }

    #[test]
    fn empty_stream() {
        let si = StreamInterp::new(desc(), TimeSystem::PAL, vec![]).unwrap();
        assert!(si.is_empty());
        assert_eq!(si.tick_span(), None);
        assert!(si.element_at(0).is_err());
    }
}
