//! The index's memory footprint: the live heap bytes per key a counting
//! allocator sees while it holds a keyset, beside what `stats()` reports.
//!
//! Each cell builds one index on the test's own thread, so the difference
//! of two per-thread snapshots is exactly what the build left allocated.
//! Cells: the keysets `Az1`, `K3`, `K4` and `Url`; the fronts `Wormhole`
//! and a 4-shard `ShardedWormhole`; built by `set` and by `from_sorted`;
//! and one `Wormhole` after a churn that merges leaves and leaves retired
//! blocks queued for reclamation. Run it in release (400 k keys a keyset;
//! 50 k in debug) to print the table:
//!
//! ```text
//! cargo test --release --test footprint -- --nocapture
//! ```
//!
//! It checks that `stats()` is within 1 % of the allocator in every built
//! cell, and every cell's live bytes per key against a ceiling: today's
//! reading + 2 %, per build profile. That is a ratchet: a change that
//! shrinks the index lowers its ceilings in the same diff. After churn the
//! bytes still queued in garbage bins and QSBR callbacks, which `stats()`
//! does not count, are the difference of the two readings and get their
//! own column. The last column is the published MetaTrieHT's share
//! (`WormholeMetrics::meta_bytes`, summed over shards); the concurrent
//! index holds a second table of the same size, which `stats()` counts.
//!
//! What the count cannot see: it counts requested sizes, so the system
//! allocator's rounding of a block up to its chunk size (a 40-byte key
//! block lives in a 48-byte chunk) is invisible, and so is its own
//! per-chunk overhead. Resident memory stays the benchmark's reading.

use wormhole_repro::sharded::{ShardedConfig, ShardedWormhole};
use wormhole_repro::telemetry::alloc::{self, CountingAlloc};
use wormhole_repro::traits::{ConcurrentOrderedIndex, FromSorted, IndexStats};
use wormhole_repro::workloads::{self, KeysetId};
use wormhole_repro::wormhole::{Wormhole, WormholeConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const KEYS: usize = if cfg!(debug_assertions) {
    50_000
} else {
    400_000
};

/// The cells of one keyset, in the order of [`CEILINGS`]' rows.
const CELLS: [&str; 5] = [
    "Wormhole set",
    "Wormhole from_sorted",
    "4 shards set",
    "4 shards from_sorted",
    "Wormhole after churn",
];

/// Ceilings on live bytes per key, by keyset, cell ([`CELLS`]) and build
/// profile: today's reading + 2 %.
const CEILINGS: [(KeysetId, [[f64; 5]; 2]); 4] = [
    (
        KeysetId::Az1,
        [
            [79.6, 75.4, 84.3, 78.7, 102.6],
            [83.2, 83.5, 83.6, 83.8, 103.3],
        ],
    ),
    (
        KeysetId::K3,
        [
            [43.4, 43.2, 54.8, 48.7, 61.9],
            [43.3, 40.7, 44.5, 41.7, 58.0],
        ],
    ),
    (
        KeysetId::K4,
        [
            [51.7, 51.4, 62.0, 56.9, 70.9],
            [51.5, 49.2, 52.7, 49.8, 66.2],
        ],
    ),
    (
        KeysetId::Url,
        [
            [145.4, 145.1, 148.1, 146.6, 180.0],
            [137.8, 136.1, 138.4, 136.8, 158.9],
        ],
    ),
];

/// What one cell's build left allocated on this thread (`live`), how much
/// of that was retired blocks its `reclaim` then freed (`queued`), the
/// index's own account of the rest, and the bytes of its published
/// MetaTrieHT (`meta`).
struct Reading {
    live: usize,
    queued: usize,
    stats: IndexStats,
    meta: usize,
}

/// How a cell's front is read besides `stats()`: its retired blocks freed,
/// its published tables' bytes.
trait Front: ConcurrentOrderedIndex<u64> {
    fn reclaim(&self);
    fn meta_bytes(&self) -> usize;
}

impl Front for Wormhole<u64> {
    fn reclaim(&self) {
        Wormhole::reclaim(self);
    }

    fn meta_bytes(&self) -> usize {
        self.metrics().meta_bytes.get() as usize
    }
}

impl Front for ShardedWormhole<u64> {
    fn reclaim(&self) {
        (0..self.shard_count()).for_each(|i| self.shard(i).reclaim());
    }

    fn meta_bytes(&self) -> usize {
        self.wormhole_metrics().meta_bytes.get() as usize
    }
}

fn measure<I: Front>(build: impl FnOnce() -> I) -> Reading {
    let before = alloc::thread();
    let index = build();
    let live = alloc::thread().since(before).live_bytes;
    index.reclaim();
    let held = alloc::thread().since(before).live_bytes;
    let bytes = |b: isize| usize::try_from(b).expect("a build leaves bytes allocated");
    Reading {
        live: bytes(live),
        queued: bytes(live - held),
        stats: index.stats(),
        meta: index.meta_bytes(),
    }
}

/// Deletes three keys in four of the first half (their leaves merge),
/// puts one in eight of them back and overwrites the second half.
fn churn(index: &Wormhole<u64>, keys: &[Vec<u8>]) {
    let half = keys.len() / 2;
    for (i, key) in keys[..half].iter().enumerate() {
        if i % 4 != 0 {
            index.del(key);
        }
    }
    for (i, key) in keys[..half].iter().enumerate().skip(1).step_by(8) {
        index.set(key, i as u64);
    }
    for (i, key) in keys[half..].iter().enumerate() {
        index.set(key, i as u64);
    }
}

fn footprint(id: KeysetId) {
    let keys = workloads::generate(id, KEYS, 7).keys;
    let mut sorted = keys.clone();
    sorted.sort();
    let pairs = || {
        sorted
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u64))
    };
    let set_all = |index: &dyn ConcurrentOrderedIndex<u64>| {
        for (i, key) in keys.iter().enumerate() {
            index.set(key, i as u64);
        }
    };
    let readings = [
        measure(|| {
            let index = Wormhole::new();
            set_all(&index);
            index
        }),
        measure(|| Wormhole::from_sorted(WormholeConfig::default(), pairs())),
        measure(|| {
            let index = ShardedWormhole::with_config(ShardedConfig::from_sample(4, &sorted));
            set_all(&index);
            index
        }),
        measure(|| ShardedWormhole::from_sorted(ShardedConfig::from_sample(4, &sorted), pairs())),
        measure(|| {
            let index = Wormhole::new();
            set_all(&index);
            churn(&index, &keys);
            index
        }),
    ];

    let profile = usize::from(!cfg!(debug_assertions));
    let ceilings = CEILINGS.iter().find(|(k, _)| *k == id).unwrap().1[profile];
    let mut table = format!(
        "{:<6} {:<22} {:>8} {:>10} {:>10} {:>8} {:>8} {:>8}\n",
        "keyset", "cell", "keys", "live B/key", "- payload", "queued", "stats", "meta"
    );
    let mut failures = Vec::new();
    for (c, (name, reading)) in CELLS.iter().zip(&readings).enumerate() {
        let Reading {
            live,
            queued,
            stats,
            meta,
        } = reading;
        let per_key = |bytes: usize| bytes as f64 / stats.keys as f64;
        table += &format!(
            "{:<6} {:<22} {:>8} {:>10.2} {:>10.2} {:>8.2} {:>8.2} {:>8.2}\n",
            id.name(),
            name,
            stats.keys,
            per_key(*live),
            per_key(live - stats.key_bytes),
            per_key(*queued),
            per_key(stats.total_bytes()),
            per_key(*meta),
        );
        let held = live - queued;
        if c < 4 && stats.total_bytes().abs_diff(held) * 100 > held {
            failures.push(format!(
                "{name}: stats() {} B, held {held} B",
                stats.total_bytes()
            ));
        }
        if per_key(*live) > ceilings[c] {
            failures.push(format!(
                "{name}: {:.2} B/key > ceiling {}",
                per_key(*live),
                ceilings[c]
            ));
        }
    }
    print!("{table}");
    assert!(failures.is_empty(), "{}: {failures:#?}", id.name());
}

#[test]
fn az1() {
    footprint(KeysetId::Az1);
}

#[test]
fn k3() {
    footprint(KeysetId::K3);
}

#[test]
fn k4() {
    footprint(KeysetId::K4);
}

#[test]
fn url() {
    footprint(KeysetId::Url);
}
