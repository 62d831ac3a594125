//! Expanding a vector stored without its zeros.
//!
//! A vector of `n` floats stored sparse is a presence bitmap of
//! `n.div_ceil(8)` bytes, LSB-first, whose bit `i` is set where element
//! `i` was kept, and the kept elements' little-endian bits in order.
//! [`expand`] writes the dense vector back: each set bit takes the next
//! kept float, every other element is `+0.0`. It only moves bits, so NaN
//! payloads, subnormals and `-0.0` (whose bits are not zero, so it is
//! kept) come back as they went in.

/// Writes the dense vector of `bitmap` and `packed` into `out`, and
/// returns how many floats of `packed` it took.
///
/// Element `i` of `out` is the next float of `packed` (four
/// little-endian bytes each) where bit `i % 8` of `bitmap[i / 8]` is
/// set, and `+0.0` where it is clear; every element is written, and
/// bits past `out.len()` are ignored. `packed` may run on past the
/// floats the bits take: a caller that does not know where they end
/// passes everything that follows the bitmap and learns it from the
/// count. `None` means `packed` ran out first; the elements left then
/// are `+0.0`.
///
/// ```
/// let packed: Vec<u8> = [1.5f32, -0.0].iter().flat_map(|f| f.to_le_bytes()).collect();
/// let mut out = [9.0f32; 10];
/// assert_eq!(tvdp_kernel::expand(&[0b0000_0100, 0b0000_0010], &packed, &mut out), Some(2));
/// assert_eq!(out[2], 1.5);
/// assert_eq!(out[9].to_bits(), (-0.0f32).to_bits());
/// assert!(out.iter().enumerate().all(|(i, f)| i == 2 || i == 9 || f.to_bits() == 0));
/// assert_eq!(tvdp_kernel::expand(&[0b0000_0100, 0b0000_0010], &packed[..4], &mut out), None);
/// ```
pub fn expand(bitmap: &[u8], packed: &[u8], out: &mut [f32]) -> Option<usize> {
    let floats = packed.as_chunks::<4>().0;
    let mut kept = 0;
    let bytes = bitmap.iter().copied().chain(std::iter::repeat(0));
    for (byte, block) in bytes.zip(out.chunks_mut(8)) {
        for (j, slot) in block.iter_mut().enumerate() {
            // Every element reads the next kept float and masks it by its
            // bit, so no branch hangs on the bitmap.
            let bit = u32::from((byte >> j) & 1);
            let next = floats.get(kept).map_or(0, |f| u32::from_le_bytes(*f));
            *slot = f32::from_bits(next & 0u32.wrapping_sub(bit));
            kept += bit as usize;
        }
    }
    (kept <= floats.len()).then_some(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{for_each_case, Rng};

    /// What a writer stores for `dense`: the bitmap of its non-zero bits
    /// and those elements' bits in order.
    fn sparse(dense: &[f32]) -> (Vec<u8>, Vec<u8>) {
        let mut bitmap = vec![0u8; dense.len().div_ceil(8)];
        let mut packed = Vec::new();
        for (i, v) in dense.iter().enumerate() {
            if v.to_bits() != 0 {
                bitmap[i / 8] |= 1 << (i % 8);
                packed.extend_from_slice(&v.to_le_bytes());
            }
        }
        (bitmap, packed)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// [`expand`] into `n` floats of garbage, since every element must
    /// be written: the count it returned and the bits it wrote.
    fn run(bitmap: &[u8], packed: &[u8], n: usize) -> (Option<usize>, Vec<u32>) {
        let mut out = vec![f32::from_bits(0x7fc0_dead); n];
        let kept = expand(bitmap, packed, &mut out);
        (kept, bits(&out))
    }

    /// The specification, one set bit at a time: what [`expand`] must
    /// return and write for any input.
    fn model(bitmap: &[u8], packed: &[u8], n: usize) -> (Option<usize>, Vec<u32>) {
        let mut out = vec![0u32; n];
        let floats = packed.as_chunks::<4>().0;
        let mut kept = 0;
        for (i, slot) in out.iter_mut().enumerate() {
            if bitmap.get(i / 8).is_some_and(|b| b >> (i % 8) & 1 == 1) {
                let Some(f) = floats.get(kept) else {
                    return (None, out);
                };
                *slot = u32::from_le_bytes(*f);
                kept += 1;
            }
        }
        (Some(kept), out)
    }

    /// A float that is not `+0.0`, drawn from the awkward ones half the
    /// time: NaNs with payloads, subnormals, `-0.0`, infinities.
    fn awkward(rng: &mut Rng) -> f32 {
        let f = match rng.gen_range(0..10u32) {
            0 => f32::from_bits(0x7f80_0001 | rng.gen_range(0..0x7f_ffffu32)),
            1 => f32::from_bits(0xffc0_0000 | rng.gen_range(0..0x3f_ffffu32)),
            2 => f32::from_bits(rng.gen_range(1..0x80_0000u32)),
            3 => -0.0,
            4 => f32::NEG_INFINITY,
            _ => rng.gen_range(-4.0f32..4.0),
        };
        if f.to_bits() == 0 {
            1.0
        } else {
            f
        }
    }

    /// The input's bits come back at every length 0–17, at 50 and at
    /// 480, over all-zero, all-set and random bitmaps of awkward floats;
    /// `-0.0` is never dropped.
    #[test]
    fn expand_gives_back_the_dense_bits() {
        let cases = if cfg!(miri) { 3 } else { 24 };
        let lens: Vec<usize> = (0..=17).chain([50, 480]).collect();
        for_each_case(cases, |case, rng| {
            for &n in &lens {
                for fill in ["zero", "set", "random"] {
                    let dense: Vec<f32> = (0..n)
                        .map(|_| match fill {
                            "zero" => 0.0,
                            "set" => awkward(rng),
                            _ if rng.gen_range(0..10u32) < 3 => 0.0,
                            _ => awkward(rng),
                        })
                        .collect();
                    let (bitmap, mut packed) = sparse(&dense);
                    let kept = Some(packed.len() / 4);
                    let got = run(&bitmap, &packed, n);
                    assert_eq!(got, (kept, bits(&dense)), "case {case}, {n} {fill}");
                    // Bytes after the floats the bits take change nothing.
                    packed.extend((0..rng.gen_range(1..40usize)).map(|_| rng.next_u64() as u8));
                    let got = run(&bitmap, &packed, n);
                    assert_eq!(got, (kept, bits(&dense)), "case {case}, {n} {fill}, more");
                }
            }
        });
        // `-0.0` has a bit set, so it is kept and comes back as itself.
        let dense = [-0.0f32, 0.0, -0.0, 1.0, 0.0, 0.0, 0.0, 0.0, -0.0];
        let (bitmap, packed) = sparse(&dense);
        assert_eq!(bitmap, [0b0000_1101, 0b0000_0001]);
        assert_eq!(run(&bitmap, &packed, dense.len()), (Some(4), bits(&dense)));
    }

    /// Inputs no writer makes (bits past the end, too few packed floats,
    /// a short or long bitmap) do not panic, and give the count and the
    /// bits the one-bit-at-a-time model gives.
    #[test]
    fn malformed_inputs_match_the_model() {
        let cases = if cfg!(miri) { 8 } else { 400 };
        for_each_case(cases, |case, rng| {
            let n = rng.gen_range(0..70usize);
            let bitmap: Vec<u8> = (0..rng.gen_range(0..12usize))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let packed: Vec<u8> = (0..rng.gen_range(0..300usize))
                .map(|_| rng.next_u64() as u8)
                .collect();
            assert_eq!(
                run(&bitmap, &packed, n),
                model(&bitmap, &packed, n),
                "case {case}"
            );
        });
    }
}
