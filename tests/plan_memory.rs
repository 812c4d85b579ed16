//! A server keeps no per-element copy of its catalog: the first `Open` of
//! a scalable object leaves the server holding a bounded number of bytes
//! more, however many elements the object has. Sessions read the
//! catalog's own element table; the only per-object state is the plan of
//! each fidelity.
//!
//! The bytes are counted by a global allocator wrapper, so this binary
//! holds one test: a second one running alongside would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use tbm::blob::ByteSpan;
use tbm::core::{BlobId, MediaDescriptor, MediaKind};
use tbm::db::MediaDb;
use tbm::interp::{ElementEntry, Interpretation, StreamInterp};
use tbm::serve::{Capacity, Request, Response, Server};
use tbm::time::{TimePoint, TimeSystem};

/// The system allocator, keeping a running count of the bytes live.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the wrapper only
// adds to and subtracts from a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A catalog with one PAL object of `n` two-layer elements. Open reads no
/// element bytes, so the BLOB the spans point into is never written.
fn scalable_catalog(n: usize) -> MediaDb {
    let entries = (0..n as u64)
        .map(|i| {
            let (base, enh) = (
                ByteSpan::new(i * 300, 100),
                ByteSpan::new(i * 300 + 100, 200),
            );
            ElementEntry::simple(i as i64, 1, base)
                .with_layers(vec![base, enh])
                .unwrap()
        })
        .collect();
    let stream = StreamInterp::new(
        MediaDescriptor::new(MediaKind::Video),
        TimeSystem::PAL,
        entries,
    )
    .unwrap();
    let mut interp = Interpretation::new(BlobId::new(0));
    interp.add_stream("movie", stream).unwrap();
    let mut db = MediaDb::new();
    db.register_interpretation(interp).unwrap();
    db
}

/// Bytes still allocated after the first `Open` of an `n`-element
/// scalable object that were not before it.
fn retained_by_first_open(n: usize) -> isize {
    let mut server = Server::new(scalable_catalog(n), Capacity::new(1 << 40).admit_all());
    let before = LIVE.load(Ordering::Relaxed);
    let response = server.request(
        TimePoint::ZERO,
        Request::Open {
            object: "movie".into(),
        },
    );
    let after = LIVE.load(Ordering::Relaxed);
    assert!(matches!(
        response,
        Ok(Response::Opened {
            session: Some(_),
            ..
        })
    ));
    after - before
}

#[test]
fn first_open_retains_bytes_independent_of_the_element_count() {
    let small = retained_by_first_open(1_000);
    let large = retained_by_first_open(100_000);
    // Two plans, one session, the plan table: a few KiB at any size. A
    // copy of the table would cost tens of bytes per element per fidelity
    // — megabytes here.
    assert!(
        large <= small + 1024 && large < 16 << 10,
        "first Open retained {small} B at 1 000 elements, {large} B at 100 000"
    );
}
