//! Binary-envelope primitives shared by every on-disk and on-wire
//! format in the workspace.
//!
//! The shard format (`rte_eda::shard`), the frame format
//! (`rte_net::frame`) and the checkpoint format (`rte_fed::checkpoint`)
//! all checksum with CRC-32/IEEE. This leaf crate holds the one
//! implementation they share; it depends on nothing, so both `rte-eda`
//! and `rte-net` (which never see each other) can use it.
//!
//! It also holds [`SplitMix64`], the seed-expanding generator that
//! `rte_tensor::rng` and `rte_net`'s clocks, chaos and retry streams share.

// Pure safe Rust; all workspace `unsafe` lives in `rte_tensor::simd`
// (rte-lint rule L1 enforces this).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Reflected CRC-32/IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing tables: `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// sixteen lookups advance the register over sixteen input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                POLY ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32/IEEE of `bytes` (the zlib `crc32`: init `!0`, final xor `!0`).
///
/// Slicing-by-16: sixteen table lookups per 16-byte block, then a
/// bytewise tail for the last `len % 16` bytes. Only the block's first
/// four bytes meet the running CRC; the other twelve lookups are folded
/// first, so the loop-carried chain is one lookup and two XORs per block
/// instead of one lookup per byte. Same value as the bytewise loop on
/// every input (`tests::matches_the_bytewise_oracle`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let ahead = ((t[11][b[4] as usize] ^ t[10][b[5] as usize])
            ^ (t[9][b[6] as usize] ^ t[8][b[7] as usize]))
            ^ ((t[7][b[8] as usize] ^ t[6][b[9] as usize])
                ^ (t[5][b[10] as usize] ^ t[4][b[11] as usize]))
            ^ ((t[3][b[12] as usize] ^ t[2][b[13] as usize])
                ^ (t[1][b[14] as usize] ^ t[0][b[15] as usize]));
        let c = crc.to_le_bytes();
        crc = ((t[15][(b[0] ^ c[0]) as usize] ^ t[14][(b[1] ^ c[1]) as usize])
            ^ (t[13][(b[2] ^ c[2]) as usize] ^ t[12][(b[3] ^ c[3]) as usize]))
            ^ ahead;
    }
    for &byte in blocks.remainder() {
        crc = t[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// SplitMix64: seeds and derives the workspace's `Xoshiro256` streams,
/// and draws the async schedule, chaos and retry-jitter decisions.
///
/// # Example
///
/// ```
/// use rte_codec::SplitMix64;
///
/// let mut sm = SplitMix64::new(42);
/// let a = sm.next_u64();
/// let b = sm.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[lo, hi]` (inclusive; `lo` when the range is
    /// degenerate). Modulo bias is irrelevant here — these are latency
    /// *shapes* for a simulator, not statistics.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // Compare against the top 53 bits as a uniform in [0, 1).
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop every format used before the slicing
    /// tables: one lookup per byte, nothing to get wrong.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn matches_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn every_short_length_matches_the_oracle() {
        // Every block/tail split around the first few 16-byte blocks.
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=bytes.len() {
            assert_eq!(crc32(&bytes[..len]), crc32_bytewise(&bytes[..len]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random contents, random lengths 0..=4096, and every start
        /// offset 0..16 into the backing buffer — so block boundaries
        /// land on every alignment (unaligned heads) and every tail
        /// length 0..16 occurs.
        #[test]
        fn matches_the_bytewise_oracle(
            words in collection::vec(any::<u32>(), 1028),
            len in 0usize..4097,
        ) {
            // 4096 + 16 random bytes: room for the longest slice at the
            // last offset.
            let buffer: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            for offset in 0..16 {
                let slice = &buffer[offset..offset + len];
                prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
            }
        }
    }
}
