//! Hashing primitives used throughout the Wormhole index reproduction.
//!
//! The Wormhole paper (§3.1) relies on three hashing facilities:
//!
//! * An *incremental* hash over key prefixes. During the binary search on
//!   prefix lengths the search repeatedly extends an already-hashed prefix;
//!   [`crc32c_append`] continues from the state of the longest prefix known
//!   to exist instead of rehashing it, so every key byte is hashed once
//!   (the search keeps that state itself, see `wormhole::meta`). The paper
//!   uses CRC-32c; so do we, on the CPU's CRC instruction where it has one.
//! * A 16-bit *tag* derived from the full hash, stored next to pointers in
//!   hash slots and leaf nodes so that most comparisons touch only one cache
//!   line.
//! * A mixing step that spreads CRC values across the full 64-bit space for
//!   use as a bucket index (CRC alone is a poor bucket spreader for short,
//!   similar inputs).
//!
//! Everything here is implemented from scratch with `const` table
//! generation, so the crate has no dependencies; the only `unsafe` is the
//! call into the feature-detected hardware CRC kernel.

pub mod crc32c;
pub mod mix;
pub mod tag;

pub use crc32c::{crc32c, crc32c_append};
pub use mix::{mix64, xorshift_mix};
pub use tag::{tag16, tag8_match_mask, tag_position_hint};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_reexports_work() {
        let h = crc32c(b"wormhole");
        assert_eq!(h, crc32c_append(0, b"wormhole"));
        let _ = tag16(h);
        let _ = mix64(h as u64);
    }
}
