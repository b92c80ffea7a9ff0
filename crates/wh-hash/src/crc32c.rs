//! CRC-32c (Castagnoli): the CPU's CRC instruction where there is one, a
//! slice-by-8 table kernel everywhere else.
//!
//! CRC-32c uses the reflected polynomial `0x82F63B78`, which is the one the
//! x86 `crc32` (SSE 4.2) and the AArch64 `crc32c*` instructions implement,
//! so [`crc32c_append`] runs on them when the CPU has them (detected at run
//! time) and is bit-identical to the portable kernel either way. The
//! portable kernel's tables are built at compile time with `const fn`, so
//! there is no runtime initialisation and no external dependency; it
//! processes eight bytes per step on bulk data and the tail byte by byte,
//! matching the classic slice-by-8 kernels used by `libcrc32c` and the
//! paper's C implementation. It stays as the fallback and as the oracle the
//! tests compare the hardware kernel against.

/// The reflected CRC-32c polynomial.
pub const POLY_REFLECTED: u32 = 0x82F6_3B78;

/// Number of slice tables used by the bulk kernel.
const SLICES: usize = 8;

/// Builds the 8 × 256 lookup tables at compile time.
const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY_REFLECTED
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut slice = 1usize;
    while slice < SLICES {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[slice - 1][i];
            tables[slice][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        slice += 1;
    }
    tables
}

/// Compile-time generated slice-by-8 tables.
static TABLES: [[u32; 256]; SLICES] = build_tables();

/// Processes a single byte with the table-driven kernel.
#[inline(always)]
fn step_byte(state: u32, byte: u8) -> u32 {
    (state >> 8) ^ TABLES[0][((state ^ byte as u32) & 0xFF) as usize]
}

/// Processes eight bytes at once with the slice-by-8 kernel.
#[inline(always)]
fn step_u64(state: u32, chunk: &[u8]) -> u32 {
    debug_assert_eq!(chunk.len(), 8);
    let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
    let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][((lo >> 24) & 0xFF) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][((hi >> 24) & 0xFF) as usize]
}

/// The portable slice-by-8 kernel behind [`crc32c_append`]: the fallback on
/// CPUs without a CRC instruction, and the oracle the hardware kernels are
/// tested against.
#[inline]
fn crc32c_append_sw(state: u32, data: &[u8]) -> u32 {
    let mut crc = !state;
    let mut rest = data;
    while rest.len() >= 8 {
        crc = step_u64(crc, &rest[..8]);
        rest = &rest[8..];
    }
    for &b in rest {
        crc = step_byte(crc, b);
    }
    !crc
}

/// [`crc32c_append`] on the SSE 4.2 `crc32` instruction: eight bytes per
/// step, then one four-, two- and one-byte step for the tail, so a short
/// prefix extension (the LPM's common case) is a handful of dependent
/// 3-cycle instructions.
///
/// # Safety
///
/// The CPU must support SSE 4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_append_hw(state: u32, data: &[u8]) -> u32 {
    use core::arch::x86_64::{_mm_crc32_u16, _mm_crc32_u32, _mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(!state);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        crc = _mm_crc32_u64(crc, word);
    }
    let mut crc = crc as u32;
    let mut rest = chunks.remainder();
    if rest.len() >= 4 {
        let word = u32::from_le_bytes(rest[..4].try_into().expect("4-byte chunk"));
        crc = _mm_crc32_u32(crc, word);
        rest = &rest[4..];
    }
    if rest.len() >= 2 {
        crc = _mm_crc32_u16(crc, u16::from_le_bytes([rest[0], rest[1]]));
        rest = &rest[2..];
    }
    if let [byte] = rest {
        crc = _mm_crc32_u8(crc, *byte);
    }
    !crc
}

/// [`crc32c_append`] on the AArch64 CRC extension (`crc32cx`/`crc32cb`).
///
/// # Safety
///
/// The CPU must support the `crc` feature.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "crc")]
unsafe fn crc32c_append_hw(state: u32, data: &[u8]) -> u32 {
    use core::arch::aarch64::{__crc32cb, __crc32cd};
    let mut crc = !state;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        crc = __crc32cd(crc, word);
    }
    for &byte in chunks.remainder() {
        crc = __crc32cb(crc, byte);
    }
    !crc
}

/// Whether this CPU has the CRC-32c instruction the hardware kernel uses.
/// The detection macro caches its answer, so this is one relaxed load.
#[cfg(target_arch = "x86_64")]
#[inline]
fn hw_available() -> bool {
    std::arch::is_x86_feature_detected!("sse4.2")
}

/// Whether this CPU has the CRC-32c instructions the hardware kernel uses.
/// The detection macro caches its answer, so this is one relaxed load.
#[cfg(target_arch = "aarch64")]
#[inline]
fn hw_available() -> bool {
    std::arch::is_aarch64_feature_detected!("crc")
}

/// Continues a CRC-32c computation over `data`, starting from `state`.
///
/// `state` is the *internal* (pre-finalisation) state: `0` for a fresh hash.
/// The returned value is again an internal state; callers that need the
/// conventional finalised CRC should invert the bits, but the Wormhole index
/// only uses the raw state as hash material, so no finalisation is applied.
#[inline]
pub fn crc32c_append(state: u32, data: &[u8]) -> u32 {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if hw_available() {
        // SAFETY: the required CPU feature was just detected.
        return unsafe { crc32c_append_hw(state, data) };
    }
    crc32c_append_sw(state, data)
}

/// Computes the CRC-32c of `data` in one shot.
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference implementation used to validate the tables.
    fn crc32c_reference(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY_REFLECTED
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_vector_123456789() {
        // The canonical CRC-32c check value for "123456789" is 0xE3069283.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc32c(b""), 0);
    }

    /// The canonical CRC-32c vector table from RFC 3720 §B.4 (iSCSI, the
    /// polynomial's defining use). The WAL frames every record with this
    /// CRC ([`wh-durable`]'s torn-tail detection), so these vectors pin
    /// the on-disk checksum against any future change to the kernel —
    /// a table or folding rewrite that drifts from the standard would
    /// silently invalidate every existing log file.
    #[test]
    fn rfc3720_vector_table() {
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        let vectors: [(&[u8], u32); 4] = [
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (i, (input, expected)) in vectors.iter().enumerate() {
            assert_eq!(crc32c(input), *expected, "RFC 3720 vector {i}");
        }
    }

    /// The incremental form must agree with the vector table too — WAL
    /// snapshot writing streams through `crc32c_append` chunk by chunk.
    #[test]
    fn rfc3720_vectors_hold_under_chunked_append() {
        let zeros = [0u8; 32];
        for chunk in [1usize, 3, 8, 13, 32] {
            let mut state = 0u32;
            for piece in zeros.chunks(chunk) {
                state = crc32c_append(state, piece);
            }
            assert_eq!(state, 0x8A91_36AA, "chunk size {chunk}");
        }
    }

    #[test]
    fn matches_reference_on_various_lengths() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        for len in [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 1024] {
            assert_eq!(
                crc32c(&data[..len]),
                crc32c_reference(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn append_is_equivalent_to_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            let piecewise = crc32c_append(crc32c_append(0, a), b);
            assert_eq!(piecewise, crc32c(data), "split at {split}");
        }
    }

    /// The hardware kernel (when this CPU has one) and the slice-by-8
    /// kernel must be the same function: random inputs of 0–300 bytes, cut
    /// in two at every position, through the public entry point and the
    /// portable kernel alike.
    #[test]
    fn hardware_and_software_kernels_agree_at_every_split_point() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in (0..=300usize).chain([64, 128, 255, 256]) {
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let seed = next() as u32;
            let whole = crc32c_append_sw(seed, &data);
            assert_eq!(crc32c_append(seed, &data), whole, "length {len}");
            for split in 0..=len {
                let (a, b) = data.split_at(split);
                assert_eq!(
                    crc32c_append(crc32c_append(seed, a), b),
                    whole,
                    "length {len}, split at {split}"
                );
                assert_eq!(
                    crc32c_append_sw(crc32c_append(seed, a), b),
                    whole,
                    "length {len}, split at {split} (mixed kernels)"
                );
            }
        }
        assert_eq!(crc32c_append_sw(0, b"123456789"), 0xE306_9283);
    }

    #[test]
    fn different_inputs_rarely_collide() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0u32..10_000 {
            seen.insert(crc32c(&i.to_le_bytes()));
        }
        // CRC-32c over distinct 4-byte inputs is injective.
        assert_eq!(seen.len(), 10_000);
    }
}
