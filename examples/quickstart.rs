//! Quickstart: the Wormhole index as an ordered key-value map.
//!
//! Run with: `cargo run --release --example quickstart`

use index_traits::{is_prefix_of, ConcurrentOrderedIndex, OrderedIndex};
use wormhole::{Wormhole, WormholeConfig, WormholeUnsafe};

fn main() {
    // ----------------------------------------------------------------
    // The thread-safe index: share it freely across threads.
    // ----------------------------------------------------------------
    let index: Wormhole<String> = Wormhole::new();
    let names = [
        "Aaron", "Abbe", "Andrew", "Austin", "Denice", "Jacob", "James", "Jason", "John", "Joseph",
        "Julian", "Justin",
    ];
    for (i, name) in names.iter().enumerate() {
        index.set(name.as_bytes(), format!("person #{i}"));
    }

    println!("lookup James   -> {:?}", index.get(b"James"));
    println!("lookup Brown   -> {:?}", index.get(b"Brown"));

    // Range query: every key at or after "Brown", like the paper's example
    // of searching between keys that are not in the index.
    println!("\nrange from \"Brown\", 4 keys:");
    for (key, value) in index.range_from(b"Brown", 4) {
        println!("  {} -> {}", String::from_utf8_lossy(&key), value);
    }

    // Prefix query: all keys starting with "J".
    println!("\nkeys with prefix \"J\":");
    for (key, _) in index.range_from(b"J", usize::MAX) {
        if !is_prefix_of(b"J", &key) {
            break;
        }
        println!("  {}", String::from_utf8_lossy(&key));
    }

    // Deletion.
    index.del(b"Jacob");
    println!(
        "\nafter deleting Jacob, lookup -> {:?}",
        index.get(b"Jacob")
    );
    println!("total keys: {}", index.len());

    // ----------------------------------------------------------------
    // The thread-unsafe variant (the paper's "Wormhole-unsafe"): the same
    // structure without locks, for single-threaded or externally
    // synchronised use. `WormholeConfig::rung` builds either variant on any
    // rung of the paper's Figure 11 ladder of §3 optimisations.
    // ----------------------------------------------------------------
    let config = WormholeConfig::optimized().with_leaf_capacity(64);
    let mut single: WormholeUnsafe<u64> = WormholeUnsafe::with_config(config);
    for i in 0..10_000u64 {
        single.set(format!("key-{i:06}").as_bytes(), i);
    }
    println!(
        "\nthread-unsafe index: {} keys across {} leaf nodes, {} meta items",
        single.len(),
        single.leaf_count(),
        single.meta_items()
    );
    let stats = single.stats();
    println!(
        "memory: {:.2} MB total ({:.2} MB structure)",
        stats.total_bytes() as f64 / 1e6,
        stats.structure_bytes as f64 / 1e6
    );
}
