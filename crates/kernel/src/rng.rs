//! The workspace's one seeded pseudo-random generator.
//!
//! [`Rng`] is SplitMix64: 64 bits of state, a full-period stream that is a
//! pure function of the seed, and nothing else. Every synthetic corpus,
//! model initialisation, fault schedule and seeded test in the workspace
//! draws from it, so its streams are pinned by a golden-vector test below:
//! changing a draw changes every published experiment table.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 generator, deterministic in its seed.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator whose whole stream is a function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` from the top 53 bits of one word.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw from `lo..hi` or `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        self.unit() < p
    }

    /// Fisher–Yates shuffle, from the top of the slice down.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.gen_range(0..=i));
        }
    }
}

/// A number type [`Rng::gen_range`] can draw uniformly.
pub trait Uniform: Sized {
    /// Uniform draw from `[lo, hi)` or, when `inclusive`, `[lo, hi]`.
    fn sample(lo: Self, hi: Self, inclusive: bool, rng: &mut Rng) -> Self;
}

/// A range [`Rng::gen_range`] accepts: `lo..hi` or `lo..=hi`. Generic over
/// the element type so a call site's expected type picks the literal type,
/// as in `let x: f32 = rng.gen_range(-1.0..1.0)`.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

impl<T: Uniform> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut Rng) -> T {
        T::sample(self.start, self.end, false, rng)
    }
}

impl<T: Uniform> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut Rng) -> T {
        let (lo, hi) = self.into_inner();
        T::sample(lo, hi, true, rng)
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn sample(lo: Self, hi: Self, inclusive: bool, rng: &mut Rng) -> Self {
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
        impl Uniform for $t {
            fn sample(lo: Self, hi: Self, inclusive: bool, rng: &mut Rng) -> Self {
                assert!(lo < hi || (inclusive && lo == hi), "gen_range: empty range");
                // Computed in f64, then narrowed.
                let v = (lo as f64 + rng.unit() * (hi as f64 - lo as f64)) as $t;
                // Rounding to the narrower type may land on `hi`.
                if !inclusive && v >= hi { lo } else { v }
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// Runs `body` over `cases` independently seeded generators: the property
/// runner behind the workspace's `prop_*` tests. The case number is the
/// seed, and a failing case is reported with it, so
/// `body(case, &mut Rng::seed_from_u64(case))` replays it alone.
///
/// # Panics
///
/// Re-raises the first panic of `body`, after naming the case.
// tvdp-lint: allow(dead_api, reason = "(a) test support: every crate's property tests run through it")
pub fn for_each_case(cases: u64, mut body: impl FnMut(u64, &mut Rng)) {
    for case in 0..cases {
        let mut rng = Rng::seed_from_u64(case);
        let run = std::panic::AssertUnwindSafe(|| body(case, &mut rng));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("property failed at case seed {case} of {cases}");
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden vectors, taken from the benchmark's stand-in `rand`
    /// (`examples/e2e/stubs/rand`): the benchmark corpus and every
    /// experiment table are functions of these streams, so a drift must fail
    /// here first.
    #[test]
    fn streams_are_pinned() {
        let mut a = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..3).map(|_| a.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
        let mut b = Rng::seed_from_u64(42);
        let first: Vec<u64> = (0..3).map(|_| b.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xBDD7_3226_2FEB_6E95,
                0x28EF_E333_B266_F103,
                0x4752_6757_130F_9F52
            ]
        );
    }

    #[test]
    fn gen_range_is_pinned_for_every_supported_type() {
        let mut r = Rng::seed_from_u64(7);
        assert_eq!(r.gen_range(0u8..200), 77);
        assert_eq!(r.gen_range(0u8..=255), 4);
        assert_eq!(r.gen_range(10u16..1000), 901);
        assert_eq!(r.gen_range(10u16..=1000), 587);
        assert_eq!(r.gen_range(5u32..1_000_000), 452_444);
        assert_eq!(r.gen_range(5u32..=1_000_000), 249_435);
        assert_eq!(r.gen_range(0u64..u64::MAX), 8_632_209_307_422_871_797);
        assert_eq!(r.gen_range(0u64..=u64::MAX), 6_051_947_643_683_389_182);
        assert_eq!(r.gen_range(3usize..97), 15);
        assert_eq!(r.gen_range(3usize..=97), 42);
        assert_eq!(r.gen_range(-100i8..100), -80);
        assert_eq!(r.gen_range(-128i8..=127), 117);
        assert_eq!(r.gen_range(-12i16..12), 10);
        assert_eq!(r.gen_range(-12i16..=12), 9);
        assert_eq!(r.gen_range(-1000i32..1000), 728);
        assert_eq!(r.gen_range(-1000i32..=1000), 97);
        assert_eq!(r.gen_range(i64::MIN..i64::MAX), 7_002_636_727_014_905_518);
        assert_eq!(r.gen_range(i64::MIN..=i64::MAX), -3_203_068_631_530_133_817);
        assert_eq!(r.gen_range(-5isize..5), 1);
        assert_eq!(r.gen_range(-5isize..=5), 3);
        assert_eq!(r.gen_range(-1.0f32..1.0).to_bits(), 0x3EB2_C19E);
        assert_eq!(r.gen_range(-1.0f32..=1.0).to_bits(), 0xBF49_5F5C);
        assert_eq!(
            r.gen_range(-180.0f64..180.0).to_bits(),
            0xC04C_0013_835D_1786
        );
        assert_eq!(
            r.gen_range(-180.0f64..=180.0).to_bits(),
            0xC03B_711F_E017_FC78
        );
        assert!(!r.gen_bool(0.5));
    }

    #[test]
    fn shuffle_is_pinned_and_a_permutation() {
        let mut items: Vec<u32> = (0..10).collect();
        Rng::seed_from_u64(3).shuffle(&mut items);
        assert_eq!(items, [5, 7, 2, 8, 3, 9, 0, 4, 6, 1]);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn draws_stay_inside_their_range() {
        let mut r = Rng::seed_from_u64(11);
        for _ in 0..10_000 {
            assert!((-3..7).contains(&r.gen_range(-3i32..7)));
            assert!((0..=4).contains(&r.gen_range(0usize..=4)));
            let f = r.gen_range(0.25f32..0.5);
            assert!((0.25..0.5).contains(&f));
            let d = r.gen_range(-1e-9f64..=1e-9);
            assert!((-1e-9..=1e-9).contains(&d));
        }
        assert_eq!(r.gen_range(5u8..=5), 5);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(0).gen_range(4u32..4);
    }

    #[test]
    fn for_each_case_seeds_each_case_with_its_number() {
        let mut seen = Vec::new();
        for_each_case(4, |case, rng| seen.push((case, rng.next_u64())));
        let expect: Vec<(u64, u64)> = (0..4)
            .map(|c| (c, Rng::seed_from_u64(c).next_u64()))
            .collect();
        assert_eq!(seen, expect);
    }
}
