//! A counting global allocator: a binary installs [`CountingAlloc`] and
//! diffs snapshots of [`thread`] or [`process`]. Sizes are as requested, so
//! the system allocator's rounding up to its chunk sizes is invisible here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

/// Allocator requests, refused ones too: a snapshot, or a difference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocCounts {
    /// `alloc` calls (`alloc_zeroed` goes through `alloc`).
    pub allocs: usize,
    /// `realloc` calls.
    pub reallocs: usize,
    /// `dealloc` calls.
    pub deallocs: usize,
    /// Bytes requested and not yet freed. A thread's reading goes down
    /// when it frees a block another thread allocated.
    pub live_bytes: isize,
    /// `dealloc` and `realloc` calls on a block of a watched layout
    /// ([`CountingAlloc::watching`]): a `realloc` may move the block.
    pub watched_frees: usize,
}

impl AllocCounts {
    /// What happened between the snapshot `earlier` and this one.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            allocs: self.allocs - earlier.allocs,
            reallocs: self.reallocs - earlier.reallocs,
            deallocs: self.deallocs - earlier.deallocs,
            live_bytes: self.live_bytes - earlier.live_bytes,
            watched_frees: self.watched_frees - earlier.watched_frees,
        }
    }

    /// The requests that may take memory: `alloc` and `realloc` calls.
    pub fn allocs_and_reallocs(self) -> usize {
        self.allocs + self.reallocs
    }
}

thread_local! {
    /// This thread's counts: `Copy` and const initialised, so never dropped.
    static THREAD: Cell<AllocCounts> = const {
        Cell::new(AllocCounts { allocs: 0, reallocs: 0, deallocs: 0, live_bytes: 0, watched_frees: 0 })
    };
}

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static REALLOCS: AtomicUsize = AtomicUsize::new(0);
static DEALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static WATCHED_FREES: AtomicUsize = AtomicUsize::new(0);

/// The calling thread's counts since it started.
pub fn thread() -> AllocCounts {
    THREAD.with(Cell::get)
}

/// The process's counts since it started.
pub fn process() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.load(Relaxed),
        reallocs: REALLOCS.load(Relaxed),
        deallocs: DEALLOCS.load(Relaxed),
        live_bytes: LIVE_BYTES.load(Relaxed),
        watched_frees: WATCHED_FREES.load(Relaxed),
    }
}

/// Counts one event, picked by `count`, that moves `bytes` into the heap.
fn record(count: fn(&mut AllocCounts) -> &mut usize, process: &AtomicUsize, bytes: isize) {
    THREAD.with(|cell| {
        let mut counts = cell.get();
        *count(&mut counts) += 1;
        counts.live_bytes += bytes;
        cell.set(counts);
    });
    process.fetch_add(1, Relaxed);
    LIVE_BYTES.fetch_add(bytes, Relaxed);
}

/// The system allocator, counting.
#[derive(Debug, Default)]
pub struct CountingAlloc {
    watch: Option<fn(Layout) -> bool>,
}

impl CountingAlloc {
    /// Counts every event; [`AllocCounts::watched_frees`] stays zero.
    pub const fn new() -> Self {
        Self { watch: None }
    }

    /// Also counts the frees of blocks whose layout `watch` accepts. A
    /// closure that captures nothing coerces to the `fn` pointer.
    pub const fn watching(watch: fn(Layout) -> bool) -> Self {
        Self { watch: Some(watch) }
    }
}

// SAFETY: every method forwards its request to `System` unchanged, so the
// blocks and their layouts are `System`'s. The counting around it touches
// only atomics and a const-initialised thread-local without a destructor,
// so it neither allocates nor can find the thread-local torn down.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(|c| &mut c.allocs, &ALLOCS, layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(|c| &mut c.deallocs, &DEALLOCS, -(layout.size() as isize));
        if self.watch.is_some_and(|watch| watch(layout)) {
            record(|c| &mut c.watched_frees, &WATCHED_FREES, 0);
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size as isize - layout.size() as isize;
        record(|c| &mut c.reallocs, &REALLOCS, grown);
        if self.watch.is_some_and(|watch| watch(layout)) {
            record(|c| &mut c.watched_frees, &WATCHED_FREES, 0);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
