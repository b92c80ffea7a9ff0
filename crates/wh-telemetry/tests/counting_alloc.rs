//! The counting allocator counts what a thread asks for, in that thread's
//! counts and the process's only.

use std::alloc::Layout;
use std::hint::black_box;

use wh_telemetry::alloc::{self, CountingAlloc};

/// A block of a layout nothing else in this binary allocates.
#[repr(align(64))]
struct Watched([u8; 4160]);

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::watching(|layout| layout == Layout::new::<Watched>());

#[test]
fn counts_what_each_thread_asks_for() {
    let (process, mine) = (alloc::process(), alloc::thread());
    let mut block: Vec<u8> = black_box(Vec::with_capacity(100));
    block.reserve_exact(200);
    let held = alloc::thread().since(mine);
    drop(black_box(block));
    let freed = alloc::thread().since(mine);
    assert_eq!((held.allocs, held.reallocs, held.deallocs), (1, 1, 0));
    assert_eq!(
        (held.live_bytes, freed.deallocs, freed.live_bytes),
        (200, 1, 0)
    );
    // Another thread's counts show in the process's, not in this thread's.
    let theirs = std::thread::spawn(|| {
        let before = alloc::thread();
        let block = black_box(Box::new(Watched([7; 4160])));
        assert_eq!(block.0[4159], 7);
        drop(block);
        alloc::thread().since(before)
    })
    .join()
    .unwrap();
    assert_eq!(
        (theirs.allocs, theirs.deallocs, theirs.live_bytes),
        (1, 1, 0)
    );
    assert_eq!(theirs.watched_frees, 1);
    assert_eq!(alloc::thread().since(mine).watched_frees, 0);
    let everyone = alloc::process().since(process);
    assert_eq!(everyone.watched_frees, 1);
    assert!(everyone.allocs_and_reallocs() >= freed.allocs_and_reallocs() + theirs.allocs);
    // A `realloc` may move its block, so growing a watched one frees it.
    let mut grown: Vec<Watched> = black_box(Vec::with_capacity(1));
    grown.reserve_exact(2);
    drop(black_box(grown));
    assert_eq!(alloc::thread().since(mine).watched_frees, 1);
}
