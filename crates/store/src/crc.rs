//! CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Every checksum the store, the WAL and the ingest manifest write goes
//! through [`Crc32::update`], which picks one of two implementations by
//! what it can observe — the input length and the CPU — and nothing else:
//!
//! * **Carry-less multiply** (x86-64 with PCLMULQDQ and SSE4.1, inputs of
//!   at least 64 bytes): four 128-bit lanes fold 64 bytes per step,
//!   collapse into one lane, then a Barrett reduction leaves the 32-bit
//!   register — the scheme of Intel's "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ" white paper, as zlib, Linux and
//!   crc32fast use it. The last 0–15 bytes go through the portable path.
//! * **Slicing-by-8** (every host, and every input shorter than 64 bytes):
//!   eight table lookups advance the register over eight bytes.
//!
//! Both compute the same polynomial, so stored checksums do not depend on
//! which one ran; the tests below compare them, and a bitwise reference,
//! on every length up to 1 KiB at every alignment.

// Slicing-by-8 tables: table 0 is the classic Sarwate byte table, table
// j extends it by one byte of zero-padding, so eight lookups advance the
// register over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = t[0][(t[j - 1][i] & 0xFF) as usize] ^ (t[j - 1][i] >> 8);
            i += 1;
        }
        j += 1;
    }
    t
};

/// Streaming CRC32 accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::MIN_LEN && clmul::available() {
            // SAFETY: `clmul::update` is compiled for PCLMULQDQ and
            // SSE4.1, and the CPU has just reported both.
            self.0 = unsafe { clmul::update(self.0, bytes) };
            return;
        }
        self.0 = update_sliced(self.0, bytes);
    }

    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC32 of a whole byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Advance the (non-inverted) CRC register `c` over `bytes`, eight bytes
/// per step: the portable path, and the tail of the carry-less one.
fn update_sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input the kernel takes: one 64-byte group fills the four
    /// lanes.
    pub(super) const MIN_LEN: usize = 64;

    // Folding constants for the IEEE polynomial P(x), each `x^n mod P(x)`
    // bit-reflected and shifted left by one: K1/K2 (n = 512 ± 32) carry a
    // lane forward over four lanes, K3/K4 (n = 128 ± 32) over one lane,
    // and K5 (n = 64) folds the last 64 bits down to 32. For the Barrett
    // reduction, `P_X` is P(x) and `U_PRIME` is floor(x^64 / P(x)), both
    // as 33-bit reflected values.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Whether this CPU can run [`update`]. `is_x86_feature_detected!`
    /// caches its answer, so this costs two relaxed loads after the first
    /// call.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advance the (non-inverted) CRC register `crc` over `bytes` with
    /// carry-less multiplication, returning the same register value
    /// [`super::update_sliced`] would.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1 (see [`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(crc: u32, bytes: &[u8]) -> u32 {
        let (first, rest) = bytes.split_at(MIN_LEN);
        let mut x0 = _mm_xor_si128(load(first, 0), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = load(first, 1);
        let mut x2 = load(first, 2);
        let mut x3 = load(first, 3);

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut groups = rest.chunks_exact(MIN_LEN);
        for g in &mut groups {
            x0 = fold(x0, load(g, 0), k1k2);
            x1 = fold(x1, load(g, 1), k1k2);
            x2 = fold(x2, load(g, 2), k1k2);
            x3 = fold(x3, load(g, 3), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x0, x1, k3k4);
        x = fold(x, x2, k3k4);
        x = fold(x, x3, k3k4);
        let mut blocks = groups.remainder().chunks_exact(16);
        for b in &mut blocks {
            x = fold(x, load(b, 0), k3k4);
        }

        // 128 → 64 bits: fold the low half into the high half, then the
        // low 32 bits of that into the rest.
        let mask32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction 64 → 32 bits (reflected variant, so the result
        // is the second 32-bit lane rather than the first).
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, mask32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::update_sliced(c, blocks.remainder())
    }

    /// `a` carried forward by the distance `k` encodes, folded into `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(b, _mm_xor_si128(lo, hi))
    }

    /// The `i`th 16-byte block of `bytes`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(bytes: &[u8], i: usize) -> __m128i {
        let block = &bytes[i * 16..i * 16 + 16];
        let lo = i64::from_le_bytes(block[..8].try_into().unwrap());
        let hi = i64::from_le_bytes(block[8..].try_into().unwrap());
        _mm_set_epi64x(hi, lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One bit per step, straight from the polynomial: shares no table or
    /// folding constant with either implementation under test.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    fn sliced(bytes: &[u8]) -> u32 {
        update_sliced(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// Deterministic bytes that are not periodic at any power of two.
    fn data(len: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    fn check_all_paths(slice: &[u8], what: &str) {
        let want = bitwise(slice);
        assert_eq!(sliced(slice), want, "slicing-by-8, {what}");
        assert_eq!(crc32(slice), want, "dispatched, {what}");
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(sliced(b"123456789"), 0xCBF4_3926);
        assert_eq!(bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(sliced(b""), 0);
    }

    #[test]
    fn every_short_length_at_every_offset_matches_bitwise_reference() {
        let buf = data(1024 + 16);
        for off in 0..=16 {
            for len in 0..=1024 {
                check_all_paths(&buf[off..off + len], &format!("len {len} offset {off}"));
            }
        }
    }

    #[test]
    fn long_inputs_at_every_offset_match_bitwise_reference() {
        let buf = data((1 << 20) + 16);
        for len in [4095, 4096, 65537, 1 << 20] {
            for off in 0..=16 {
                check_all_paths(&buf[off..off + len], &format!("len {len} offset {off}"));
            }
        }
    }

    #[test]
    fn streaming_splits_match_one_shot() {
        let buf = data(70_000);
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % bound as u64) as usize
        };
        for len in [0, 1, 63, 64, 65, 127, 128, 129, 200, 1000, 4096, 65537] {
            let whole = &buf[..len];
            let want = bitwise(whole);
            for trial in 0..32 {
                // Cut points anywhere, so pieces land on both sides of the
                // 64-byte dispatch threshold and mid-block for both paths.
                let mut cuts: Vec<usize> = (0..1 + trial % 6).map(|_| next(len + 1)).collect();
                cuts.sort_unstable();
                let mut c = Crc32::new();
                let mut reg = 0xFFFF_FFFFu32;
                let mut at = 0;
                for cut in cuts.into_iter().chain([len]) {
                    c.update(&whole[at..cut]);
                    reg = update_sliced(reg, &whole[at..cut]);
                    at = cut;
                }
                assert_eq!(c.finish(), want, "dispatched, len {len} trial {trial}");
                assert_eq!(reg ^ 0xFFFF_FFFF, want, "sliced, len {len} trial {trial}");
            }
        }
    }
}
