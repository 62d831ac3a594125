//! Offline stand-in for the `rand` 0.8 API surface the TVDP workspace
//! uses: `StdRng::seed_from_u64`, `Rng::{gen_range, gen_bool}` and
//! `SliceRandom::shuffle`. The generator is SplitMix64 — statistically
//! sound, deterministic in the seed, but NOT stream-compatible with the
//! published crate.

use std::ops::{Range, RangeInclusive};

/// Source of raw 64-bit words.
pub trait RngCore {
    /// The next word of the stream.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// A generator whose whole stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `gen_range` can draw uniformly.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[lo, hi)` or, when `inclusive`, `[lo, hi]`.
    fn sample<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
}

/// A range `gen_range` accepts.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample(lo, hi, true, rng)
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self {
                let span = (hi as i128 - lo as i128) + inclusive as i128;
                assert!(span > 0, "gen_range: empty range");
                // Multiply-shift keeps the draw unbiased to 2^-64.
                let draw = ((rng.next_u64() as u128 * span as u128) >> 64) as i128;
                (lo as i128 + draw) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self {
                assert!(lo < hi || (inclusive && lo == hi), "gen_range: empty range");
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let v = (lo as f64 + unit * (hi as f64 - lo as f64)) as $t;
                // Rounding to the narrower type may land on `hi`.
                if !inclusive && v >= hi { lo } else { v }
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// The user-facing sampling methods.
pub trait Rng: RngCore {
    /// Uniform draw from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators.
pub mod rngs {
    /// SplitMix64 under the published crate's default-generator name.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl super::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self { state: seed }
        }
    }
}

/// Slice helpers.
pub mod seq {
    use super::Rng;

    /// Random reordering and selection on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Fisher-Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
        /// One uniformly chosen element, `None` on an empty slice.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}
