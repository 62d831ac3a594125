//! IEEE CRC-32 (the polynomial of zip, gzip and PNG): the checksum that
//! frames every journal and base-segment record.
//!
//! Two paths compute the same bits. Slicing-by-8 folds eight bytes per
//! step through eight 1 KiB tables and runs on every CPU. On x86-64 with
//! PCLMULQDQ and SSE4.1, which the CPU reports at run time, the bulk of
//! an input is folded by carry-less multiplication instead: 64-byte
//! blocks four 128-bit lanes at a time, then 16-byte blocks, then a
//! Barrett reduction to 32 bits, after Gopal et al., "Fast CRC
//! Computation for Generic Polynomials Using PCLMULQDQ Instruction"
//! (Intel, 2009), with the reflected-polynomial constants zlib and Linux
//! use. The bytes after the last 16-byte block, and inputs too short to
//! fold, finish on slicing-by-8. No option selects a path: the CPU does.

/// IEEE CRC-32 of `bytes`.
///
/// ```
/// assert_eq!(tvdp_kernel::crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(tvdp_kernel::crc32(b""), 0);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    !carry_less(!0, bytes).unwrap_or_else(|| sliced(!0, bytes))
}

/// Slicing-by-8 from CRC register `c` (the pre-inverted state): eight
/// table lookups fold eight input bytes per step.
fn sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut octets = bytes.chunks_exact(8);
    for o in &mut octets {
        let lo = c ^ u32::from_le_bytes([o[0], o[1], o[2], o[3]]);
        let hi = u32::from_le_bytes([o[4], o[5], o[6], o[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in octets.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// `CRC32_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC32_TABLES[k][b]` is the CRC state after byte `b` and then `k`
/// zero bytes.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The register after `bytes` on the carry-less path, or `None` where
/// that path does not run: a CPU without the features, another
/// architecture, or fewer than [`clmul::FOLD_MIN`] bytes.
#[cfg(target_arch = "x86_64")]
fn carry_less(c: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() < clmul::FOLD_MIN || !clmul::detected() {
        return None;
    }
    // SAFETY: the CPU reports PCLMULQDQ and SSE4.1, the features `fold`
    // is compiled for (SSE2 is baseline on x86-64).
    Some(unsafe { clmul::fold(c, bytes) })
}

#[cfg(not(target_arch = "x86_64"))]
fn carry_less(_: u32, _: &[u8]) -> Option<u32> {
    None
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest input [`fold`] takes: one 16-byte block per lane.
    pub(super) const FOLD_MIN: usize = 64;

    // Folding constants for the bit-reflected IEEE polynomial: each is
    // `x^n mod P(x)` for the fold distance it serves, reflected and
    // shifted left by one, as Gopal et al. tabulate them.
    /// Carries a lane 512 bits forward (`K1` its low half, `K2` its high).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Carries a lane 128 bits forward (`K3` low, `K4` high).
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// Folds 64 bits down to 32 ahead of the Barrett step.
    const K5: i64 = 0x1_63cd_6124;
    /// The reflected polynomial `P'(x)`, and `μ = x^64 / P(x)` reflected.
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Whether this CPU has what [`fold`] is compiled for.
    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// The CRC register after `bytes`, from register `c`: folds every
    /// whole 16-byte block by carry-less multiplication and finishes the
    /// rest on slicing-by-8. Shorter than [`FOLD_MIN`], it is all rest.
    ///
    /// # Safety
    ///
    /// Calling it is `unsafe` outside code compiled for these features:
    /// the caller must know that the CPU has PCLMULQDQ and SSE4.1
    /// ([`detected`]).
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) fn fold(c: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let [b3, b2, b1, b0, rest @ ..] = blocks else {
            return super::sliced(c, bytes);
        };
        let mut x3 = _mm_xor_si128(load(b3), _mm_cvtsi32_si128(c as i32));
        let (mut x2, mut x1, mut x0) = (load(b2), load(b1), load(b0));

        // Four lanes, 64 bytes a step.
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(4);
        for q in &mut quads {
            x3 = fold_into(x3, load(&q[0]), k1k2);
            x2 = fold_into(x2, load(&q[1]), k1k2);
            x1 = fold_into(x1, load(&q[2]), k1k2);
            x0 = fold_into(x0, load(&q[3]), k1k2);
        }

        // The four lanes into one, then one 16-byte block a step.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x3, x2, k3k4);
        x = fold_into(x, x1, k3k4);
        x = fold_into(x, x0, k3k4);
        for b in quads.remainder() {
            x = fold_into(x, load(b), k3k4);
        }

        // 128 bits to 64, 64 to 32, then the Barrett reduction (the
        // reflected variant leaves the register in the upper half).
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::sliced(c, tail)
    }

    /// `acc` carried forward by the distance `keys` encode, added to
    /// `block`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, block: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(block, lo), hi)
    }

    /// The 16 bytes of `block` as one register.
    #[inline(always)]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `loadu` takes any
        // alignment.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::for_each_case;

    /// CRC-32 a bit at a time, straight from the reflected polynomial:
    /// shares no table or code with either path under test.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
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
        !c
    }

    /// Whether this host runs the carry-less path: then every input of
    /// [`clmul::FOLD_MIN`] bytes or more must take it.
    fn host_folds() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            clmul::detected()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// `crc32`, the sliced path alone and (on a host that folds) the
    /// carry-less path alone all equal the reference on `bytes`.
    fn check(bytes: &[u8], what: &str) {
        let want = crc32_bitwise(bytes);
        assert_eq!(crc32(bytes), want, "{what}");
        assert_eq!(!sliced(!0, bytes), want, "sliced, {what}");
        let folded = carry_less(!0, bytes);
        #[cfg(target_arch = "x86_64")]
        if host_folds() && bytes.len() >= clmul::FOLD_MIN {
            assert_eq!(folded.map(|c| !c), Some(want), "carry-less, {what}");
            return;
        }
        assert_eq!(folded, None, "{what}: no carry-less path here");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_short_length_and_offset() {
        // Miri interprets every instruction: fewer lengths and offsets,
        // still past two 64-byte blocks and every 16-byte tail.
        let (max_len, offset_step) = if cfg!(miri) { (160, 5) } else { (300, 1) };
        let mut rng = crate::rng::Rng::seed_from_u64(0xC3C3);
        let buf: Vec<u8> = (0..max_len + 16).map(|_| rng.next_u64() as u8).collect();
        for offset in (0..16).step_by(offset_step) {
            for len in 0..=max_len {
                check(
                    &buf[offset..offset + len],
                    &format!("{len} byte(s) at +{offset}"),
                );
            }
        }
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_on_long_inputs() {
        let (cases, max_len) = if cfg!(miri) { (2, 4_096) } else { (8, 2 << 20) };
        let mut lens = vec![4_095, 4_096, 9_186];
        for_each_case(cases, |_, rng| lens.push(rng.gen_range(0..=max_len)));
        let mut rng = crate::rng::Rng::seed_from_u64(0x5EED);
        for (i, len) in lens.into_iter().enumerate() {
            if cfg!(miri) && len > max_len {
                continue;
            }
            let offset = i % 16;
            let buf: Vec<u8> = (0..offset + len).map(|_| rng.next_u64() as u8).collect();
            check(&buf[offset..], &format!("{len} byte(s) at +{offset}"));
        }
    }

    #[test]
    fn a_host_with_the_features_takes_the_carry_less_path() {
        let folded = carry_less(!0, &[0x5A; 256]);
        assert_eq!(folded.is_some(), host_folds());
        assert_eq!(carry_less(!0, &[0x5A; 63]), None);
    }
}
