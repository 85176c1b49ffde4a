//! The labelers' allocation contract, counted at the allocator: this test
//! binary installs a counting global allocator over [`System`] and labels
//! warm frames under it.
//!
//! * A warm sequential labeler (`bfs`, `fast`, `propagate`) makes **no
//!   allocation at all** on a repeat call; `fast` fills the grid's
//!   component records too, in the grid's own reused buffer.
//! * The multithreaded tiled engine (`parallel`, `tiled`) keeps no per-call
//!   vectors, but still spawns its scoped workers and collects their join
//!   handles, so a repeat call does allocate; it makes **no frame-sized
//!   allocation** (none of [`BIG`] bytes or more).
//! * A warm [`OutOfCoreLabeler`] streaming a frame into a counting sink
//!   makes no frame-sized allocation, and with one tile column (one tile
//!   per band, labeled on the calling thread) **no allocation at all**.
//!
//! The counters are process-wide atomics, so worker-thread allocations
//! count too; the tests take [`SERIAL`] so that no other test's
//! allocations land in a counted window. The zero check of the sequential
//! labelers reads the calling thread's own count as well: the test
//! harness's bookkeeping for a test that just finished runs on other
//! threads and could otherwise land in that window.

use slap_repro::cc::engine::registry;
use slap_repro::image::stream::BitmapRows;
use slap_repro::image::{gen, Connectivity, FastLabeler, LabelGrid, OutOfCoreLabeler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Allocations of at least this many bytes count as frame-sized: a 256²
/// label grid is 256 KiB, while per-call bookkeeping holds one entry per
/// tile, band or worker.
const BIG: usize = 128 << 10;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static BIG_CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocation calls made on this thread (const-initialized, so reading
    /// it never allocates).
    static MINE: Cell<usize> = const { Cell::new(0) };
}

/// Counts every `alloc`, `alloc_zeroed` and `realloc` (by its new size);
/// frees are not counted.
struct Counting;

fn count(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    if size >= BIG {
        BIG_CALLS.fetch_add(1, Relaxed);
    }
    let _ = MINE.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// atomics and a const thread-local, never the heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

/// What the allocator saw during one counted window.
#[derive(Debug)]
struct Allocs {
    /// On every thread.
    calls: usize,
    bytes: usize,
    big: usize,
    /// On the calling thread.
    mine: usize,
}

fn snapshot() -> Allocs {
    Allocs {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        big: BIG_CALLS.load(Relaxed),
        mine: MINE.with(Cell::get),
    }
}

/// Runs `f` and returns the allocations made meanwhile.
fn allocs_during(f: impl FnOnce()) -> Allocs {
    let before = snapshot();
    f();
    let after = snapshot();
    Allocs {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        big: after.big - before.big,
        mine: after.mine - before.mine,
    }
}

const FRAMES: [&str; 2] = ["random50", "blobs"];
const CONNS: [Connectivity; 2] = [Connectivity::Four, Connectivity::Eight];

#[test]
fn a_third_warm_call_allocates_nothing_frame_sized() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut broken = Vec::new();
    for info in registry() {
        let mut session = info.kind.session(2);
        let mut grid = LabelGrid::new_background(1, 1);
        for name in FRAMES {
            let img = gen::by_name(name, 256, 1).unwrap();
            for conn in CONNS {
                session.label_into(&img, conn, &mut grid);
                session.label_into(&img, conn, &mut grid);
                let seen = allocs_during(|| {
                    session.label_into(&img, conn, &mut grid);
                });
                let kept = if info.multithreaded {
                    seen.big == 0
                } else {
                    seen.mine == 0 && seen.big == 0
                };
                if !kept {
                    broken.push(format!("{} {name} {conn:?}: {seen:?}", info.kind));
                }
            }
        }
    }
    assert!(broken.is_empty(), "warm calls allocated: {broken:#?}");
}

#[test]
fn a_warm_band_labeler_allocates_nothing_frame_sized() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut broken = Vec::new();
    for tiles_x in [1, 2] {
        let mut labeler = OutOfCoreLabeler::new(128, tiles_x);
        for name in FRAMES {
            // 1024 columns, so that one 128-row band of random50 holds
            // 256 KiB of runs: a band arena rebuilt per call is frame-sized.
            let img = gen::by_name_dims(name, 256, 1024, 1).unwrap();
            for conn in CONNS {
                let want = FastLabeler::new().count_components(&img, conn);
                let stream = |labeler: &mut OutOfCoreLabeler| {
                    let mut records = 0usize;
                    let src = &mut BitmapRows::new(&img);
                    labeler
                        .label_source_with(src, conn, |_| records += 1)
                        .unwrap();
                    records
                };
                stream(&mut labeler);
                stream(&mut labeler);
                let mut records = 0;
                let seen = allocs_during(|| records = stream(&mut labeler));
                assert_eq!(records, want, "{name} {conn:?} tiles_x {tiles_x}");
                if seen.big != 0 || (tiles_x == 1 && seen.mine != 0) {
                    broken.push(format!("tiles_x {tiles_x} {name} {conn:?}: {seen:?}"));
                }
            }
        }
    }
    assert!(broken.is_empty(), "warm streams allocated: {broken:#?}");
}
