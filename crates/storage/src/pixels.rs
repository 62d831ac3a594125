//! The one form stored pixels take below the API: a lossless
//! predictive code.
//!
//! An RGB image is coded as three planes (red, then green, then blue),
//! each walked in raster order. Every sample is predicted from its
//! already-decoded neighbours in the same plane: the mean of the left
//! and the upper one, rounded down, or the one of them the image's
//! first row or column has, or 0 for the plane's first sample.
//! The prediction error, taken modulo 256 so that it fits a byte, is
//! folded by zig-zag (0, −1, 1, −2, … become 0, 1, 2, 3, …) and the
//! folded values are cut into blocks of [`BLOCK`] samples — the last
//! one may be shorter, and a block may run from one plane into the
//! next. A block starts with a 3-bit header:
//!
//! * `0..=6` — every value of the block as a Golomb–Rice code with that
//!   parameter `k`: `value >> k` zero bits and a one bit, then the
//!   `k` low bits of the value;
//! * `7` — the escape: every value as 8 plain bits, so no block costs
//!   more than its raw bytes and its header.
//!
//! The encoder gives each block the cheapest of the eight. Bits are
//! packed most significant first and the last byte is padded with
//! zero bits. The width and height are not part of the code: the op
//! carrying it holds them ([`crate::wal::PixelBlob`]), and they fix how
//! many samples, and so how many blocks, the code holds.
//!
//! A code of `n` samples in `b` blocks is therefore between
//! `3b + n` and `3b + 8n` bits long ([`coded_len_ok`]). The decoder
//! checks that first, so it never allocates more than eight bytes of
//! image per coded byte it was given, and then refuses, with a typed
//! [`PixelError`], a Rice value past 255, a code cut short, and bytes
//! or non-zero padding after the last block. Hostile bytes that pass
//! every check decode to some image of the stated shape.

use tvdp_vision::Image;

/// Samples per block: each block carries its own code parameter.
pub const BLOCK: usize = 64;

/// Bits of a block header.
const HEADER_BITS: u32 = 3;

/// The header value that marks a block of 8-bit plain values.
const ESCAPE: u32 = 7;

/// Why bytes did not decode as the code of an image of a given shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PixelError {
    /// A dimension is zero, the sample count overflows, or the code's
    /// length lies outside what a code of that many samples can take.
    Length {
        /// Stated width in pixels.
        width: usize,
        /// Stated height in pixels.
        height: usize,
        /// Bytes of the code.
        len: usize,
    },
    /// A Rice code claims a value above 255.
    Overflow {
        /// Index of the sample, in plane order.
        sample: usize,
    },
    /// The code ends inside a block.
    Truncated {
        /// Index of the sample being read, in plane order.
        sample: usize,
    },
    /// Bytes, or non-zero padding bits, follow the last block.
    Trailing,
}

impl std::fmt::Display for PixelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PixelError::Length { width, height, len } => write!(
                f,
                "a {len} byte pixel code is impossible for a {width}x{height} image"
            ),
            PixelError::Overflow { sample } => {
                write!(f, "pixel code sample {sample} is past 255")
            }
            PixelError::Truncated { sample } => {
                write!(f, "pixel code ends inside sample {sample}")
            }
            PixelError::Trailing => write!(f, "bytes follow the pixel code's last block"),
        }
    }
}

impl std::error::Error for PixelError {}

/// Samples of a `width` x `height` RGB image; `None` when a dimension
/// is zero or the count overflows.
fn samples(width: usize, height: usize) -> Option<usize> {
    width.checked_mul(height)?.checked_mul(3).filter(|&n| n > 0)
}

/// Whether a code of `len` bytes can hold a `width` x `height` image:
/// both dimensions non-zero and `len` between the shortest code of that
/// many samples (every value 0 at `k = 0`) and the longest (every block
/// escaped). Returns the sample count when it can.
pub fn coded_len_ok(width: usize, height: usize, len: usize) -> Option<usize> {
    let n = samples(width, height)?;
    let blocks = n.div_ceil(BLOCK);
    let bytes = |bits: usize| bits.div_ceil(8);
    let shortest = bytes(n.checked_add(blocks.checked_mul(HEADER_BITS as usize)?)?);
    let longest = bytes(
        n.checked_mul(8)?
            .checked_add(blocks * HEADER_BITS as usize)?,
    );
    (shortest..=longest).contains(&len).then_some(n)
}

/// The prediction of a sample from its left and upper neighbours:
/// their mean, rounded down.
#[inline]
fn mean(left: u8, up: u8) -> u8 {
    ((u16::from(left) + u16::from(up)) / 2) as u8
}

/// Folds channel `c` of the interleaved `row` into `out`, one value per
/// pixel, predicting each sample from the row's pixel to its left and
/// `up`'s pixel above it ([`mean`]); the first row has only the left
/// neighbour (0 for its first pixel), the first column only the upper.
fn fold_row(row: &[u8], up: Option<&[u8]>, c: usize, out: &mut [u8]) {
    let channel = |px: &[u8]| px[c];
    let mut samples = row.chunks_exact(3).map(channel);
    let mut out = out.iter_mut();
    let mut left = 0;
    if let Some(up) = up {
        let mut up = up.chunks_exact(3).map(channel);
        if let (Some(s), Some(u), Some(o)) = (samples.next(), up.next(), out.next()) {
            *o = fold(s, u);
            left = s;
        }
        for ((s, u), o) in samples.zip(up).zip(out) {
            *o = fold(s, mean(left, u));
            left = s;
        }
    } else {
        for (s, o) in samples.zip(out) {
            *o = fold(s, left);
            left = s;
        }
    }
}

/// [`fold_row`] undone in place: channel `c` of `row` holds folded
/// values and gets the samples, `up` being the row above, already
/// unfolded.
fn unfold_row(row: &mut [u8], up: Option<&[u8]>, c: usize) {
    let mut samples = row.chunks_exact_mut(3).map(|px| &mut px[c]);
    let mut left = 0;
    if let Some(up) = up {
        let mut up = up.chunks_exact(3).map(|px| px[c]);
        if let (Some(s), Some(u)) = (samples.next(), up.next()) {
            *s = unfold(*s, u);
            left = *s;
        }
        for (s, u) in samples.zip(up) {
            *s = unfold(*s, mean(left, u));
            left = *s;
        }
    } else {
        for s in samples {
            *s = unfold(*s, left);
            left = *s;
        }
    }
}

/// Zig-zag fold of a prediction error taken modulo 256.
#[inline]
fn fold(sample: u8, prediction: u8) -> u8 {
    let e = sample.wrapping_sub(prediction) as i8;
    ((e << 1) ^ (e >> 7)) as u8
}

/// The sample whose folded error from `prediction` is `folded`.
#[inline]
fn unfold(folded: u8, prediction: u8) -> u8 {
    let e = (folded >> 1) ^ (folded & 1).wrapping_neg();
    prediction.wrapping_add(e)
}

/// Codes `image`. The bytes are a pure function of the pixels.
pub fn encode(image: &Image) -> Vec<u8> {
    let (width, raw) = (image.width(), image.raw());
    let mut folded = vec![0; raw.len()];
    let mut out = folded.chunks_exact_mut(width);
    for c in 0..3 {
        let mut up = None;
        for (row, out) in raw.chunks_exact(3 * width).zip(&mut out) {
            fold_row(row, up, c, out);
            up = Some(row);
        }
    }
    let mut out = BitWriter::with_capacity(raw.len());
    for block in folded.chunks(BLOCK) {
        // What a Rice code at `k` spends on the block: the quotients,
        // plus a one bit and `k` low bits per value.
        let mut best = (ESCAPE, 8 * block.len() as u32);
        for k in 0..ESCAPE {
            // At most 64 values of at most 255: the sum fits a `u16`.
            let quotients = u32::from(block.iter().map(|&v| u16::from(v >> k)).sum::<u16>());
            let bits = quotients + (k + 1) * block.len() as u32;
            if bits < best.1 {
                best = (k, bits);
            }
        }
        let k = best.0;
        out.put(k, HEADER_BITS);
        for &v in block {
            let v = u32::from(v);
            if k == ESCAPE {
                out.put(v, 8);
            } else {
                // `v >> k` zeros, a one, the low bits: the zeros are the
                // leading bits of a `q + 1 + k` bit field holding the rest.
                let (q, rest) = (v >> k, (1 << k) | (v & ((1 << k) - 1)));
                if q + 1 + k > 32 {
                    out.put_zeros(q);
                    out.put(rest, k + 1);
                } else {
                    out.put(rest, q + 1 + k);
                }
            }
        }
    }
    out.finish()
}

/// Decodes the code of a `width` x `height` image. Refuses, before it
/// allocates anything, a length no code of that shape can have
/// ([`coded_len_ok`]).
pub fn decode(width: usize, height: usize, coded: &[u8]) -> Result<Image, PixelError> {
    let n = coded_len_ok(width, height, coded.len()).ok_or(PixelError::Length {
        width,
        height,
        len: coded.len(),
    })?;
    // First the folded values, each at its sample's place in the
    // interleaved raster; then each plane is unfolded in raster order,
    // so a sample's neighbours are final before it is.
    let mut raw = vec![0u8; n];
    let (plane, stride) = (n / 3, width * 3);
    let mut bits = BitReader::new(coded);
    // Sample `s` of the code is sample `i` of plane `c`.
    let (mut c, mut i) = (0, 0);
    for first in (0..n).step_by(BLOCK) {
        let k = bits
            .take(HEADER_BITS)
            .ok_or(PixelError::Truncated { sample: first })?;
        for sample in first..(first + BLOCK).min(n) {
            let v = if k == ESCAPE {
                bits.take(8)
            } else {
                bits.rice(k).map_err(|()| PixelError::Overflow { sample })?
            };
            raw[i * 3 + c] = v.ok_or(PixelError::Truncated { sample })? as u8;
            i += 1;
            if i == plane {
                (c, i) = (c + 1, 0);
            }
        }
    }
    bits.finish()?;
    for c in 0..3 {
        for y in 0..height {
            let (done, rest) = raw.split_at_mut(y * stride);
            let up = (y > 0).then(|| &done[(y - 1) * stride..]);
            unfold_row(&mut rest[..stride], up, c);
        }
    }
    Ok(Image::from_raw(width, height, raw))
}

/// Packs bits most significant first.
struct BitWriter {
    out: Vec<u8>,
    /// Pending bits, in the low `len` (below 32) bits.
    acc: u64,
    len: u32,
}

impl BitWriter {
    fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            out: Vec::with_capacity(bytes),
            acc: 0,
            len: 0,
        }
    }

    /// Appends the low `n` (at most 32) bits of `v`.
    #[inline]
    fn put(&mut self, v: u32, n: u32) {
        self.acc = (self.acc << n) | u64::from(v);
        self.len += n;
        if self.len >= 32 {
            self.len -= 32;
            self.out
                .extend_from_slice(&((self.acc >> self.len) as u32).to_be_bytes());
        }
    }

    /// Appends `n` zero bits.
    fn put_zeros(&mut self, mut n: u32) {
        while n > 32 {
            self.put(0, 32);
            n -= 32;
        }
        self.put(0, n);
    }

    /// The bytes, the last one padded with zero bits.
    fn finish(mut self) -> Vec<u8> {
        let pad = (8 - self.len % 8) % 8;
        self.acc <<= pad;
        self.len += pad;
        while self.len > 0 {
            self.len -= 8;
            self.out.push((self.acc >> self.len) as u8);
        }
        self.out.shrink_to_fit();
        self.out
    }
}

/// Reads bits most significant first.
struct BitReader<'a> {
    rest: &'a [u8],
    /// Buffered bits, in the high `len` (at most 63) bits; the rest are
    /// zero.
    acc: u64,
    len: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            rest: bytes,
            acc: 0,
            len: 0,
        }
    }

    /// Buffers whole bytes while they fit: a word at a time, then one
    /// at a time near the end.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.rest.first_chunk::<8>() {
            let bytes = (63 - self.len) / 8;
            let keep = self.len + 8 * bytes;
            self.acc |= (u64::from_be_bytes(*word) >> self.len) & !(u64::MAX >> keep);
            self.len = keep;
            self.rest = &self.rest[bytes as usize..];
            return;
        }
        while self.len <= 55 {
            let Some((&byte, rest)) = self.rest.split_first() else {
                return;
            };
            self.acc |= u64::from(byte) << (56 - self.len);
            self.len += 8;
            self.rest = rest;
        }
    }

    /// The next `n` (at most 8) bits, or `None` past the end.
    #[inline]
    fn take(&mut self, n: u32) -> Option<u32> {
        if self.len < n {
            self.refill();
            if self.len < n {
                return None;
            }
        }
        // Two shifts, so that `n = 0` shifts by 64 nowhere.
        let v = ((self.acc >> 1) >> (63 - n)) as u32;
        self.acc <<= n;
        self.len -= n;
        Some(v)
    }

    /// Counts zero bits up to and past the next one bit: `Ok(None)`
    /// when the code ends first, `Err(())` past `max` zeros.
    fn zeros(&mut self, max: u32) -> Result<Option<u32>, ()> {
        let mut q = 0;
        loop {
            if self.len == 0 {
                self.refill();
                if self.len == 0 {
                    return Ok(None);
                }
            }
            let z = self.acc.leading_zeros().min(self.len);
            q += z;
            if q > max {
                return Err(());
            }
            if z < self.len {
                self.acc <<= z + 1;
                self.len -= z + 1;
                return Ok(Some(q));
            }
            self.acc = 0;
            self.len = 0;
        }
    }

    /// One Rice value at `k`: `Ok(None)` when the code ends first,
    /// `Err(())` when it is past 255.
    #[inline]
    fn rice(&mut self, k: u32) -> Result<Option<u32>, ()> {
        if self.len < 32 {
            self.refill();
        }
        // The common case: the zeros, the one and the low bits are all
        // buffered.
        let q = self.acc.leading_zeros();
        let bits = q + 1 + k;
        if bits <= self.len && q <= 255 >> k {
            let v = (q << k) | ((self.acc << (q + 1) >> 1) >> (63 - k)) as u32;
            self.acc <<= bits;
            self.len -= bits;
            return Ok(Some(v));
        }
        Ok(self
            .zeros(255 >> k)?
            .and_then(|q| Some(q << k | self.take(k)?)))
    }

    /// Refuses whole bytes, or non-zero padding bits, left over.
    fn finish(self) -> Result<(), PixelError> {
        if self.rest.is_empty() && self.len < 8 && self.acc == 0 {
            Ok(())
        } else {
            Err(PixelError::Trailing)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_and_unfold_are_inverse_over_every_pair() {
        for prediction in 0..=255u8 {
            let mut seen = [false; 256];
            for sample in 0..=255u8 {
                let folded = fold(sample, prediction);
                assert_eq!(unfold(folded, prediction), sample);
                seen[folded as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "fold is a bijection");
        }
        // Small errors fold to small values, either sign.
        assert_eq!(fold(10, 10), 0);
        assert_eq!(fold(9, 10), 1);
        assert_eq!(fold(11, 10), 2);
        assert_eq!(fold(0, 255), 2);
    }

    #[test]
    fn a_one_pixel_image_pins_the_bits() {
        // Samples 7, 8, 9 are each their plane's first, predicted 0:
        // folded 14, 16, 18. At k = 3 (17 bits and the header; k = 4
        // ties, the lower k wins) each is 1 or 2 zeros, a one and its 3
        // low bits:
        //   k = 3 | 14: 0 1 110 | 16: 00 1 000 | 18: 00 1 010 | padding
        //   011     01110         001000         001010         0000
        let coded = encode(&Image::from_raw(1, 1, vec![7, 8, 9]));
        assert_eq!(coded, vec![0b0110_1110, 0b0010_0000, 0b1010_0000]);
        assert_eq!(decode(1, 1, &coded).unwrap().raw(), &[7, 8, 9]);
    }

    #[test]
    fn the_length_bounds_are_the_shortest_and_longest_codes() {
        // 3 samples, one block: 3 + 3 = 6 bits .. 3 + 24 = 27 bits.
        assert_eq!(coded_len_ok(1, 1, 0), None);
        assert_eq!(coded_len_ok(1, 1, 1), Some(3));
        assert_eq!(coded_len_ok(1, 1, 4), Some(3));
        assert_eq!(coded_len_ok(1, 1, 5), None);
        // A constant image is its shortest code; full-range noise is at
        // most its longest.
        let flat = Image::from_fn(48, 48, |_, _| [0, 0, 0]);
        let n = 48 * 48 * 3;
        assert_eq!(encode(&flat).len(), (n + 3 * n / BLOCK).div_ceil(8));
        assert_eq!(coded_len_ok(0, 5, 10), None);
        assert_eq!(coded_len_ok(usize::MAX, 2, 10), None);
        assert_eq!(coded_len_ok(1 << 40, 1 << 40, usize::MAX), None);
    }
}
