//! A bucketized cuckoo hash table in the style of libcuckoo / MemC3, used as
//! the unordered-index comparison point in the Wormhole evaluation
//! (Figures 13 and 14). It serves point operations only, through its own
//! methods ([`CuckooHashTable::get`], `set`, `del`): a hash table has no
//! key order, so none of `index_traits`' ordered contracts fits it.
//!
//! * 4-way set-associative buckets;
//! * partial-key cuckoo hashing: the alternate bucket is derived from the
//!   primary bucket and a 16-bit tag, so displacements never need to rehash
//!   the full key;
//! * breadth-first search for an eviction path (bounded depth), falling back
//!   to doubling the table when no path exists;
//! * 16-bit tags stored inline so most negative lookups never touch the key
//!   bytes — the same trick Wormhole applies in its MetaTrieHT and leaves.

pub mod table;

pub use table::CuckooHashTable;

/// Slots per bucket (libcuckoo's default associativity).
pub const SLOTS_PER_BUCKET: usize = 4;

/// Maximum depth of the BFS eviction search before the table resizes.
pub const MAX_BFS_DEPTH: usize = 5;
