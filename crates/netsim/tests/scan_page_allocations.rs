//! A served scan page costs no heap block per pair: the server streams
//! each pair from the index's cursor into the response frame instead of
//! building the page as owned keys first.
//!
//! A binary of its own, because the counting allocator is global: it sees
//! every thread of the process, and this file runs one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use index_traits::ConcurrentOrderedIndex;
use netsim::{KvService, WireRequest};
use wormhole::Wormhole;

/// Counts `alloc` calls; the default `realloc` allocates through it too.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_scan_page_allocates_no_block_per_pair() {
    let index = Wormhole::new();
    for i in 0..20_000u64 {
        index.set(format!("key-{i:08}").as_bytes(), i);
    }
    let service = KvService::with_batch_size(Arc::new(index), 16);
    // 64 scans in 4 messages each way, every page full: 20 pairs or 1.
    let scans = |limit| -> Vec<WireRequest> {
        (0..64u64)
            .map(|i| WireRequest::Scan {
                start: format!("key-{:08}", i * 271).into_bytes(),
                limit,
            })
            .collect()
    };
    let (wide, narrow) = (scans(20), scans(1));
    // Warm up: the first run pays for thread-local and epoch state.
    service.run(&wide);
    service.run(&narrow);
    let allocs = |requests: &[WireRequest]| {
        let before = ALLOCS.load(Ordering::Relaxed);
        let stats = service.run(requests);
        assert_eq!(stats.operations, 64);
        ALLOCS.load(Ordering::Relaxed) - before
    };
    let (wide, narrow) = (allocs(&wide), allocs(&narrow));
    // Owned pages would cost at least 19 key copies more per scan.
    assert!(
        wide < narrow + 64,
        "64 pages of 20 pairs took {wide} blocks, of 1 pair {narrow}"
    );
}
