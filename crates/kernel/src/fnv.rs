//! FNV-1a 64: the non-cryptographic hash behind every pinned digest (a
//! store's dump, the API's route transcript) and the edge transport's
//! payload checksum.

/// FNV-1a 64's offset basis: the hash of no bytes.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 of `bytes`, continuing from `hash` ([`FNV64_OFFSET`] to
/// start), so a digest can be folded over many pieces.
///
/// ```
/// use tvdp_kernel::{fnv64, FNV64_OFFSET};
/// assert_eq!(fnv64(FNV64_OFFSET, b""), FNV64_OFFSET);
/// assert_eq!(fnv64(FNV64_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(fnv64(fnv64(FNV64_OFFSET, b"foo"), b"bar"), 0x8594_4171_f739_67e8);
/// ```
pub fn fnv64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
