//! Property tests over interpretation tables, indexes and capture layouts.

use proptest::prelude::*;
use tbm_blob::{BlobStore, ByteSpan, MemBlobStore};
use tbm_core::{MediaDescriptor, MediaKind};
use tbm_interp::{ChunkedIndex, ElementEntry, Interpretation, StreamInterp, TimeIndex};
use tbm_time::TimeSystem;

/// An element duration: mostly a tick or a few, sometimes long enough to
/// span dozens of later elements — which is what bounds the time index's
/// walk back over overlaps.
fn duration() -> impl Strategy<Value = i64> {
    (0i64..5, 5i64..160, 0u8..8)
        .prop_map(|(short, long, pick)| if pick == 0 { long } else { short })
}

/// Random valid, contiguous-placement element tables.
fn contiguous_entries() -> impl Strategy<Value = Vec<ElementEntry>> {
    prop::collection::vec((0i64..4, duration(), 1u64..200, any::<bool>()), 1..80).prop_map(|raw| {
        let mut at = 0u64;
        let mut t = 0i64;
        raw.into_iter()
            .map(|(gap, dur, size, key)| {
                t += gap;
                let mut e = ElementEntry::simple(t, dur, ByteSpan::new(at, size));
                e.is_key = key;
                at += size;
                t += 0; // starts ordered but may repeat
                e
            })
            .collect()
    })
}

proptest! {
    /// The chosen time index always agrees with the linear-scan reference.
    #[test]
    fn time_index_agrees_with_scan(entries in contiguous_entries(), probe in -3i64..500) {
        let idx = TimeIndex::build(&entries);
        prop_assert_eq!(
            idx.lookup(&entries, probe),
            TimeIndex::lookup_scan(&entries, probe),
            "probe {}", probe
        );
    }

    /// The chunked index agrees with the full table at every chunk size.
    #[test]
    fn chunked_index_agrees(entries in contiguous_entries(), chunk in 1usize..32) {
        let ci = ChunkedIndex::build(&entries, chunk).expect("contiguous layout");
        for (i, e) in entries.iter().enumerate() {
            prop_assert_eq!(ci.placement(i), e.placement.as_single());
        }
        prop_assert_eq!(ci.placement(entries.len()), None);
    }

    /// StreamInterp accepts exactly the tables that satisfy Definition 3.
    #[test]
    fn validation_matches_definition(entries in contiguous_entries(), swap in any::<(u8, u8)>()) {
        let desc = MediaDescriptor::new(MediaKind::Video);
        // Valid as generated.
        prop_assert!(StreamInterp::new(desc.clone(), TimeSystem::PAL, entries.clone()).is_ok());
        // A start-order violation is rejected.
        if entries.len() >= 2 {
            let i = swap.0 as usize % entries.len();
            let j = swap.1 as usize % entries.len();
            if entries[i].start != entries[j].start {
                let mut bad = entries.clone();
                bad.swap(i, j);
                prop_assert!(StreamInterp::new(desc, TimeSystem::PAL, bad).is_err());
            }
        }
    }

    /// Reading every element back through the interpretation returns the
    /// exact bytes written, regardless of extent fragmentation.
    #[test]
    fn element_reads_roundtrip(sizes in prop::collection::vec(1usize..300, 1..30),
                               extent in 1usize..256) {
        let mut store = MemBlobStore::with_extent_size(extent);
        let blob = store.create().unwrap();
        let mut entries = Vec::new();
        let mut originals = Vec::new();
        let mut at = 0u64;
        for (i, &size) in sizes.iter().enumerate() {
            let data: Vec<u8> = (0..size).map(|j| (i * 31 + j) as u8).collect();
            store.append(blob, &data).unwrap();
            entries.push(ElementEntry::simple(i as i64, 1, ByteSpan::new(at, size as u64)));
            at += size as u64;
            originals.push(data);
        }
        let stream = StreamInterp::new(
            MediaDescriptor::new(MediaKind::Video),
            TimeSystem::PAL,
            entries,
        )
        .unwrap();
        for (i, original) in originals.iter().enumerate() {
            prop_assert_eq!(&stream.read_element(&store, blob, i).unwrap(), original);
        }
    }

    /// `key_before` returns the nearest preceding key (or 0) for all
    /// configurations.
    #[test]
    fn key_before_is_nearest(entries in contiguous_entries(), probe in 0usize..80) {
        let stream = StreamInterp::new(
            MediaDescriptor::new(MediaKind::Video),
            TimeSystem::PAL,
            entries.clone(),
        )
        .unwrap();
        if probe >= entries.len() {
            prop_assert!(stream.key_before(probe).is_err());
            return Ok(());
        }
        let k = stream.key_before(probe).unwrap();
        let expected = (0..=probe).rev().find(|&i| entries[i].is_key).unwrap_or(0);
        prop_assert_eq!(k, expected);
    }

    /// Views are non-destructive and renumber densely.
    #[test]
    fn filtered_views(entries in contiguous_entries(), modulus in 1usize..5) {
        let stream = StreamInterp::new(
            MediaDescriptor::new(MediaKind::Video),
            TimeSystem::PAL,
            entries.clone(),
        )
        .unwrap();
        let view = stream.filtered_view(|i, _| i % modulus == 0);
        prop_assert_eq!(view.len(), entries.len().div_ceil(modulus));
        prop_assert_eq!(stream.len(), entries.len());
        // The view's entries are exactly the kept originals, in order.
        for (vi, e) in view.entries().iter().enumerate() {
            prop_assert_eq!(e, &entries[vi * modulus]);
        }
    }
}

/// Interpretation-level invariant: views never alias or mutate the original.
#[test]
fn interpretation_views_are_independent() {
    let mut interp = Interpretation::new(tbm_core::BlobId::new(0));
    for name in ["a", "b", "c"] {
        let entries = vec![ElementEntry::simple(0, 1, ByteSpan::new(0, 1))];
        interp
            .add_stream(
                name,
                StreamInterp::new(
                    MediaDescriptor::new(MediaKind::Audio),
                    TimeSystem::CD_AUDIO,
                    entries,
                )
                .unwrap(),
            )
            .unwrap();
    }
    let view = interp.view(&["b"]).unwrap();
    assert_eq!(view.stream_names(), vec!["b"]);
    assert_eq!(interp.stream_names(), vec!["a", "b", "c"]);
}
