//! A BLOB's interpretation: the named set of media objects within it.

use crate::{InterpError, StreamInterp};
use tbm_core::BlobId;

/// Definition 5's mapping from a BLOB to a set of media objects.
///
/// Streams are named the way the paper's Fig. 2/Fig. 4 examples name them
/// (`video1`, `audio1`, …). Alternative interpretations — "only the audio
/// sequence is visible" — are produced as cheap *views* rather than by
/// modifying the original: the paper warns that "modification of an
/// interpretation is questionable … it is probably a better practice if a
/// BLOB has a single, complete, interpretation."
#[derive(Debug, Clone, PartialEq)]
pub struct Interpretation {
    blob: BlobId,
    streams: Vec<(String, StreamInterp)>,
}

impl Interpretation {
    /// Creates an empty interpretation of `blob`.
    pub fn new(blob: BlobId) -> Interpretation {
        Interpretation {
            blob,
            streams: Vec::new(),
        }
    }

    /// The interpreted BLOB.
    pub fn blob(&self) -> BlobId {
        self.blob
    }

    /// Adds a named stream. Names must be unique.
    pub fn add_stream(&mut self, name: &str, stream: StreamInterp) -> Result<(), InterpError> {
        if self.streams.iter().any(|(n, _)| n == name) {
            return Err(InterpError::DuplicateStream {
                name: name.to_owned(),
            });
        }
        self.streams.push((name.to_owned(), stream));
        Ok(())
    }

    /// Looks up a stream by name.
    pub fn stream(&self, name: &str) -> Result<&StreamInterp, InterpError> {
        self.streams
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
            .ok_or_else(|| InterpError::NoSuchStream {
                name: name.to_owned(),
            })
    }

    /// The stream at position `i` of [`Interpretation::streams`].
    pub fn stream_at(&self, i: usize) -> Option<&StreamInterp> {
        self.streams.get(i).map(|(_, s)| s)
    }

    /// All stream names, in insertion order.
    pub fn stream_names(&self) -> Vec<&str> {
        self.streams.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Iterates `(name, stream)` pairs.
    pub fn streams(&self) -> impl Iterator<Item = (&str, &StreamInterp)> {
        self.streams.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Number of media objects in the interpretation.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// `true` when no media objects are mapped.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// An alternative interpretation keeping only the named streams — the
    /// paper's "alternative view of the BLOB (e.g., only the audio sequence
    /// is visible)". The original is untouched.
    pub fn view(&self, names: &[&str]) -> Result<Interpretation, InterpError> {
        let mut out = Interpretation::new(self.blob);
        for &name in names {
            let s = self.stream(name)?;
            out.add_stream(name, s.clone())?;
        }
        Ok(out)
    }

    /// Total encoded bytes across all streams (excludes padding and any
    /// unreferenced regions of the BLOB).
    pub fn mapped_bytes(&self) -> u64 {
        self.streams.iter().map(|(_, s)| s.total_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ElementEntry;
    use tbm_blob::ByteSpan;
    use tbm_core::{MediaDescriptor, MediaKind};
    use tbm_time::TimeSystem;

    fn stream(n: usize) -> StreamInterp {
        let entries = (0..n)
            .map(|i| ElementEntry::simple(i as i64, 1, ByteSpan::new(i as u64 * 10, 10)))
            .collect();
        StreamInterp::new(
            MediaDescriptor::new(MediaKind::Video),
            TimeSystem::PAL,
            entries,
        )
        .unwrap()
    }

    #[test]
    fn add_and_lookup() {
        let mut interp = Interpretation::new(BlobId::new(0));
        interp.add_stream("video1", stream(3)).unwrap();
        interp.add_stream("audio1", stream(5)).unwrap();
        assert_eq!(interp.len(), 2);
        assert_eq!(interp.stream_names(), vec!["video1", "audio1"]);
        assert_eq!(interp.stream("video1").unwrap().len(), 3);
        assert_eq!(interp.stream_at(1).unwrap().len(), 5);
        assert!(interp.stream_at(2).is_none());
        assert!(interp.stream("nope").is_err());
        assert_eq!(interp.mapped_bytes(), 80);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut interp = Interpretation::new(BlobId::new(0));
        interp.add_stream("a", stream(1)).unwrap();
        assert!(matches!(
            interp.add_stream("a", stream(1)),
            Err(InterpError::DuplicateStream { .. })
        ));
    }

    #[test]
    fn audio_only_view() {
        let mut interp = Interpretation::new(BlobId::new(7));
        interp.add_stream("video1", stream(3)).unwrap();
        interp.add_stream("audio1", stream(5)).unwrap();
        let v = interp.view(&["audio1"]).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v.blob(), BlobId::new(7));
        assert!(v.stream("video1").is_err());
        // Original still complete.
        assert_eq!(interp.len(), 2);
        assert!(interp.view(&["ghost"]).is_err());
    }
}
