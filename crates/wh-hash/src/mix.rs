//! Finalising mixers that spread hash values across the 64-bit space.
//!
//! CRC-32c is an excellent error-detection code but a mediocre bucket
//! spreader for short, structured inputs: nearby keys produce nearby CRCs.
//! The hash tables in this workspace (the MetaTrieHT and the cuckoo baseline)
//! therefore pass the CRC through a strong avalanche mixer before using it as
//! a bucket index. The mixers here are the finalisers from SplitMix64 and
//! xorshift-multiply, both public-domain constructions.

/// SplitMix64 finaliser: a full-avalanche 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Xorshift-multiply mixer (Stafford variant 13), used where a second
/// independent hash function is needed (cuckoo hashing's second bucket).
#[inline]
pub fn xorshift_mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_avalanches() {
        assert_eq!(mix64(42), mix64(42));
        // Flipping one input bit should flip roughly half the output bits.
        let a = mix64(0x1234_5678);
        let b = mix64(0x1234_5679);
        let flipped = (a ^ b).count_ones();
        assert!(flipped >= 16, "only {flipped} bits flipped");
    }

    #[test]
    fn xorshift_mix_differs_from_mix64() {
        for x in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            if x != 0 {
                assert_ne!(mix64(x), xorshift_mix(x));
            }
        }
    }

    #[test]
    fn bucket_mapping_is_roughly_uniform() {
        // The tables' mapping: the low bits of the mixed CRC of nearby,
        // structured keys, whose raw CRCs differ in few bits.
        let nbuckets = 16;
        let mut counts = vec![0usize; nbuckets];
        let samples = 160_000u64;
        for x in 0..samples {
            let key = format!("user-{x:08}");
            counts[mix64(crate::crc32c(key.as_bytes()) as u64) as usize & (nbuckets - 1)] += 1;
        }
        let expected = samples as usize / nbuckets;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > expected * 9 / 10 && c < expected * 11 / 10,
                "bucket {i} has {c}, expected ~{expected}"
            );
        }
    }
}
