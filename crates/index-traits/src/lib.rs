//! Shared traits and byte-key utilities for the Wormhole reproduction.
//!
//! Every ordered index in this workspace — the Wormhole index itself and
//! the four ordered baselines it is evaluated against (B+ tree, skip list,
//! ART, Masstree) — implements the traits defined here so that the
//! benchmark harness, examples, and integration tests can drive any of them
//! through a single interface. The cuckoo hash table of Figure 13 serves
//! point operations only and implements no trait here: its `get`, `set`
//! and `del` are its own methods.
//!
//! Keys are raw byte strings (`&[u8]`), matching the paper's model of keys as
//! token strings where each byte is a token. Values are a generic parameter
//! `V`; the benchmark harness instantiates `V = u64` (the paper measures index
//! cost only and "skips access of values"), while the examples use richer
//! value types.

pub mod key;
pub mod scan;
pub mod traits;

pub use key::{common_prefix_len, immediate_successor_into, is_prefix_of, successor_key};
pub use scan::{Cursor, CursorSource, ScanBatch, ScanPage, Take};
pub use traits::{ConcurrentOrderedIndex, DurableIndex, FromSorted, IndexStats, OrderedIndex};
