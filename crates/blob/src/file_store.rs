//! File-backed BLOB store: one file per BLOB under a directory.

use crate::{BlobError, BlobStore, ByteSpan};
use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use tbm_core::BlobId;

/// A [`BlobStore`] persisting each BLOB as `<dir>/<id>.blob`.
///
/// An append opens the BLOB's file in append mode and writes straight
/// through (no user-space buffer). A read is one positional read
/// (`pread`) on a file handle the store keeps open: handles are opened on
/// first use and held in a bounded table (64 per store, replaced
/// round-robin when full), so a read formats no path and opens nothing
/// once its BLOB's handle is cached. Appends land in the same file the
/// cached handle refers to, so later reads see them.
///
/// While open, the store **owns its directory**: lengths are tracked in
/// memory and handles stay open, so files that something else truncates,
/// replaces or deletes underneath it are not noticed (a replaced file
/// keeps serving its old bytes until its handle is recycled).
///
/// This is intentionally simple — the paper treats BLOB layout as "a
/// performance issue and not directly relevant to data modeling" — but it
/// is a real, durable store usable by `tbm-db` for persistence and by
/// benchmarks for measuring I/O-bound access patterns.
#[derive(Debug)]
pub struct FileBlobStore {
    dir: PathBuf,
    lens: Vec<u64>,
    open_report: OpenReport,
    /// Interior mutability because reads take `&self`; the store stays
    /// `Send` (not `Sync`), which is all the serving pool asks of a store.
    handles: RefCell<Handles>,
}

/// Why a file in the store directory was not adopted by [`FileBlobStore::open`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SkipReason {
    /// A `*.blob` file whose stem is not a decimal id (e.g. `x.blob`).
    NonNumericName,
    /// A numeric `*.blob` file beyond a hole in the id sequence; adoption
    /// stops at the first missing id, so this file's bytes are unreachable.
    AfterHole {
        /// The first missing id — the hole that stopped adoption.
        missing_id: u64,
    },
}

/// What [`FileBlobStore::open`] adopted and what it had to skip.
///
/// A hole in the id sequence (say `0.blob`, `1.blob`, `3.blob`) means some
/// BLOB file was lost or the directory was tampered with; the store adopts
/// the dense prefix (`0`, `1`) but — rather than silently truncating the id
/// space — records every skipped file here so callers can alert, salvage, or
/// refuse to proceed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Number of BLOBs adopted (ids `0..adopted`).
    pub adopted: usize,
    /// Files present in the directory but not adopted, with reasons.
    pub skipped: Vec<(String, SkipReason)>,
}

impl OpenReport {
    /// `true` if every `*.blob` file in the directory was adopted.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty()
    }
}

/// Most read handles a store keeps open at once.
const MAX_OPEN: usize = 64;

/// The open read handles: at most [`MAX_OPEN`] `(blob id, file)` pairs, and
/// for every BLOB the slot its handle sits in, so a lookup is two indexed
/// loads whatever the table holds.
#[derive(Debug, Default)]
struct Handles {
    open: Vec<(usize, File)>,
    /// Indexed by BLOB id; `NO_SLOT` when the BLOB has no open handle.
    slot_of: Vec<u8>,
    /// The slot the next newcomer replaces once the table is full.
    next_victim: usize,
}

const NO_SLOT: u8 = u8::MAX;
const _: () = assert!(MAX_OPEN <= NO_SLOT as usize);

impl Handles {
    /// The open handle of BLOB `id` (already bounds-checked by the
    /// caller), opening `path()` and recycling a slot if it has none.
    fn get(&mut self, id: usize, path: impl FnOnce() -> PathBuf) -> std::io::Result<&File> {
        if self.slot_of.len() <= id {
            self.slot_of.resize(id + 1, NO_SLOT);
        }
        let mut slot = self.slot_of[id] as usize;
        if slot == NO_SLOT as usize {
            let file = File::open(path())?;
            if self.open.len() < MAX_OPEN {
                slot = self.open.len();
                self.open.push((id, file));
            } else {
                slot = self.next_victim;
                self.next_victim = (slot + 1) % MAX_OPEN;
                let (evicted, _) = std::mem::replace(&mut self.open[slot], (id, file));
                self.slot_of[evicted] = NO_SLOT;
            }
            self.slot_of[id] = slot as u8;
        }
        Ok(&self.open[slot].1)
    }
}

/// Fills `buf` from `file` at `offset` without moving a file cursor.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Fills `buf` from `file` at `offset` (seek, then read, on the shared
/// cursor: the store is not `Sync`, so no other read interleaves).
#[cfg(not(unix))]
fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

impl FileBlobStore {
    /// Opens (or creates) a store rooted at `dir`. Existing `*.blob` files
    /// with numeric names are adopted in id order; files that cannot be
    /// adopted (non-numeric names, or ids beyond a hole in the sequence) are
    /// listed in [`FileBlobStore::open_report`] rather than silently ignored.
    pub fn open(dir: impl AsRef<Path>) -> Result<FileBlobStore, BlobError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut ids: Vec<(u64, u64, String)> = Vec::new(); // (id, len, name)
        let mut skipped: Vec<(String, SkipReason)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(stem) = name.strip_suffix(".blob") {
                if let Ok(id) = stem.parse::<u64>() {
                    ids.push((id, entry.metadata()?.len(), name));
                } else {
                    skipped.push((name, SkipReason::NonNumericName));
                }
            }
        }
        ids.sort_unstable_by_key(|(id, _, _)| *id);
        // Adopt a dense prefix; a hole means external tampering or data loss,
        // so everything past it is unreachable — but reported, not hidden.
        let mut lens = Vec::new();
        let mut hole: Option<u64> = None;
        for (expect, (id, len, name)) in ids.into_iter().enumerate() {
            match hole {
                None if id == expect as u64 => lens.push(len),
                None => {
                    let missing_id = expect as u64;
                    hole = Some(missing_id);
                    skipped.push((name, SkipReason::AfterHole { missing_id }));
                }
                Some(missing_id) => {
                    skipped.push((name, SkipReason::AfterHole { missing_id }));
                }
            }
        }
        skipped.sort();
        let open_report = OpenReport {
            adopted: lens.len(),
            skipped,
        };
        Ok(FileBlobStore {
            dir,
            lens,
            open_report,
            handles: RefCell::default(),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What [`FileBlobStore::open`] adopted and skipped.
    pub fn open_report(&self) -> &OpenReport {
        &self.open_report
    }

    fn path(&self, blob: BlobId) -> PathBuf {
        self.dir.join(format!("{}.blob", blob.raw()))
    }

    fn check(&self, blob: BlobId) -> Result<(), BlobError> {
        if (blob.raw() as usize) < self.lens.len() {
            Ok(())
        } else {
            Err(BlobError::NotFound(blob))
        }
    }
}

impl BlobStore for FileBlobStore {
    fn create(&mut self) -> Result<BlobId, BlobError> {
        let id = BlobId::new(self.lens.len() as u64);
        File::create(self.path(id))?;
        self.lens.push(0);
        Ok(id)
    }

    fn append(&mut self, blob: BlobId, data: &[u8]) -> Result<ByteSpan, BlobError> {
        self.check(blob)?;
        let mut f = OpenOptions::new().append(true).open(self.path(blob))?;
        f.write_all(data)?;
        let offset = self.lens[blob.raw() as usize];
        self.lens[blob.raw() as usize] = offset + data.len() as u64;
        Ok(ByteSpan::new(offset, data.len() as u64))
    }

    fn read_into(&self, blob: BlobId, span: ByteSpan, buf: &mut [u8]) -> Result<(), BlobError> {
        assert_eq!(
            buf.len() as u64,
            span.len,
            "buffer length must equal span length"
        );
        self.check(blob)?;
        let blob_len = self.lens[blob.raw() as usize];
        if span.end() > blob_len {
            return Err(BlobError::OutOfBounds {
                blob,
                offset: span.offset,
                len: span.len,
                blob_len,
            });
        }
        let mut handles = self.handles.borrow_mut();
        let file = handles.get(blob.raw() as usize, || self.path(blob))?;
        read_exact_at(file, buf, span.offset)?;
        Ok(())
    }

    fn len(&self, blob: BlobId) -> Result<u64, BlobError> {
        self.check(blob)?;
        Ok(self.lens[blob.raw() as usize])
    }

    fn contains(&self, blob: BlobId) -> bool {
        (blob.raw() as usize) < self.lens.len()
    }

    fn blob_ids(&self) -> Vec<BlobId> {
        (0..self.lens.len() as u64).map(BlobId::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tbm-blob-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_append_read_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut s = FileBlobStore::open(&dir).unwrap();
        let b = s.create().unwrap();
        let s1 = s.append(b, b"hello ").unwrap();
        let s2 = s.append(b, b"disk").unwrap();
        assert_eq!(s1, ByteSpan::new(0, 6));
        assert_eq!(s2, ByteSpan::new(6, 4));
        assert_eq!(s.read_all(b).unwrap(), b"hello disk");
        assert_eq!(s.read(b, ByteSpan::new(6, 4)).unwrap(), b"disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_adopts_existing_blobs() {
        let dir = temp_dir("reopen");
        {
            let mut s = FileBlobStore::open(&dir).unwrap();
            let a = s.create().unwrap();
            let b = s.create().unwrap();
            s.append(a, b"aaa").unwrap();
            s.append(b, b"bbbb").unwrap();
        }
        let s = FileBlobStore::open(&dir).unwrap();
        assert_eq!(s.blob_ids().len(), 2);
        assert_eq!(s.len(BlobId::new(0)).unwrap(), 3);
        assert_eq!(s.len(BlobId::new(1)).unwrap(), 4);
        assert_eq!(s.read_all(BlobId::new(1)).unwrap(), b"bbbb");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_reports_holes_and_foreign_files() {
        let dir = temp_dir("holes");
        {
            let mut s = FileBlobStore::open(&dir).unwrap();
            for _ in 0..4 {
                s.create().unwrap();
            }
            s.append(BlobId::new(3), b"tail").unwrap();
        }
        // Punch a hole at id 2 and drop in a foreign file.
        std::fs::remove_file(dir.join("2.blob")).unwrap();
        std::fs::write(dir.join("extra.blob"), b"??").unwrap();

        let s = FileBlobStore::open(&dir).unwrap();
        assert_eq!(s.blob_ids().len(), 2); // dense prefix 0, 1
        let report = s.open_report();
        assert!(!report.is_clean());
        assert_eq!(report.adopted, 2);
        assert_eq!(
            report.skipped,
            vec![
                (
                    "3.blob".to_string(),
                    SkipReason::AfterHole { missing_id: 2 }
                ),
                ("extra.blob".to_string(), SkipReason::NonNumericName),
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_open_has_empty_report() {
        let dir = temp_dir("clean");
        {
            let mut s = FileBlobStore::open(&dir).unwrap();
            s.create().unwrap();
        }
        let s = FileBlobStore::open(&dir).unwrap();
        assert!(s.open_report().is_clean());
        assert_eq!(s.open_report().adopted, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_is_visible_through_an_already_open_read_handle() {
        let dir = temp_dir("append-visible");
        let mut s = FileBlobStore::open(&dir).unwrap();
        let b = s.create().unwrap();
        s.append(b, b"first").unwrap();
        assert_eq!(s.read_all(b).unwrap(), b"first"); // opens and caches the handle
        let tail = s.append(b, b" second").unwrap();
        assert_eq!(s.read(b, tail).unwrap(), b" second");
        assert_eq!(s.read_all(b).unwrap(), b"first second");
        assert_eq!(s.handles.borrow().open.len(), 1, "one handle, reused");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(target_os = "linux")]
    fn open_descriptors() -> usize {
        std::fs::read_dir("/proc/self/fd").unwrap().count()
    }

    #[test]
    fn more_blobs_than_handles_all_read_back_with_bounded_descriptors() {
        let dir = temp_dir("many");
        let mut s = FileBlobStore::open(&dir).unwrap();
        let payload = |i: u64| format!("blob {i} payload").into_bytes();
        for i in 0..200 {
            let b = s.create().unwrap();
            s.append(b, &payload(i)).unwrap();
        }
        #[cfg(target_os = "linux")]
        let before = open_descriptors();
        // Round-robin over three times the table: every read of the second
        // pass finds its handle already recycled.
        for _pass in 0..2 {
            for i in 0..200 {
                assert_eq!(s.read_all(BlobId::new(i)).unwrap(), payload(i));
            }
        }
        let handles = s.handles.borrow();
        assert_eq!(handles.open.len(), MAX_OPEN);
        let cached = handles.slot_of.iter().filter(|&&slot| slot != NO_SLOT);
        assert_eq!(cached.count(), MAX_OPEN);
        for (slot, (id, _)) in handles.open.iter().enumerate() {
            assert_eq!(handles.slot_of[*id] as usize, slot);
        }
        // Other tests of this process open files concurrently, so allow
        // some slack: what matters is 64-ish, not 200.
        #[cfg(target_os = "linux")]
        assert!(
            open_descriptors() <= before + MAX_OPEN + 32,
            "{} descriptors open, {before} before the reads",
            open_descriptors()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_moved_to_another_thread_keeps_reading() {
        let dir = temp_dir("moved");
        let mut s = FileBlobStore::open(&dir).unwrap();
        let a = s.create().unwrap();
        let b = s.create().unwrap();
        s.append(a, b"here").unwrap();
        s.append(b, b"there").unwrap();
        assert_eq!(s.read_all(a).unwrap(), b"here"); // a's handle is open, b's is not
        let s = std::thread::spawn(move || {
            assert_eq!(s.read_all(a).unwrap(), b"here");
            assert_eq!(s.read_all(b).unwrap(), b"there");
            s.append(b, b"!").unwrap();
            s
        })
        .join()
        .unwrap();
        assert_eq!(s.read_all(b).unwrap(), b"there!");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_bounds_rejected() {
        let dir = temp_dir("oob");
        let mut s = FileBlobStore::open(&dir).unwrap();
        let b = s.create().unwrap();
        s.append(b, b"xy").unwrap();
        assert!(matches!(
            s.read(b, ByteSpan::new(0, 3)),
            Err(BlobError::OutOfBounds { .. })
        ));
        assert!(matches!(
            s.read(BlobId::new(5), ByteSpan::new(0, 1)),
            Err(BlobError::NotFound(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
