//! Property-based tests of the visual substrate.

use tvdp_kernel::rng::{for_each_case, Rng};
use tvdp_vision::{rgb_to_hsv, Augmentation, ColorHistogramExtractor, FeatureExtractor, Image};

const CASES: u64 = 256;

fn arb_image(rng: &mut Rng) -> Image {
    let (w, h, seed) = (rng.gen_range(4..24), rng.gen_range(4..24), rng.next_u64());
    Image::from_fn(w, h, |x, y| {
        // SplitMix-style deterministic pixels.
        let mut z = seed ^ ((x as u64) << 32) ^ (y as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        [(z >> 8) as u8, (z >> 24) as u8, (z >> 40) as u8]
    })
}

#[test]
fn hsv_in_range_for_all_pixels() {
    for_each_case(CASES, |_, rng| {
        let r = rng.gen_range(0u8..=255);
        let g = rng.gen_range(0u8..=255);
        let b = rng.gen_range(0u8..=255);
        let (h, s, v) = rgb_to_hsv([r, g, b]);
        assert!((0.0..360.0).contains(&h));
        assert!((0.0..=1.0).contains(&s));
        assert!((0.0..=1.0).contains(&v));
        // Achromatic pixels have zero saturation.
        if r == g && g == b {
            assert_eq!(s, 0.0);
        }
    });
}

#[test]
fn color_histogram_invariant_under_flips() {
    for_each_case(CASES, |_, rng| {
        let img = arb_image(rng);
        // Flips and rotations permute pixels, never change them, so the
        // color histogram must be bit-identical.
        let extractor = ColorHistogramExtractor::new(8, 8, 8);
        let base = extractor.extract(&img);
        for op in [
            Augmentation::FlipHorizontal,
            Augmentation::FlipVertical,
            Augmentation::Rotate90,
            Augmentation::Rotate180,
            Augmentation::Rotate270,
        ] {
            let transformed = extractor.extract(&op.apply(&img));
            assert_eq!(&base, &transformed, "histogram changed under {:?}", op);
        }
    });
}

#[test]
fn histogram_l1_normalized() {
    for_each_case(CASES, |_, rng| {
        let img = arb_image(rng);
        let extractor = ColorHistogramExtractor::paper_default();
        let h = extractor.extract(&img);
        assert_eq!(h.len(), 50);
        let sum: f32 = h.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum {}", sum);
        assert!(h.iter().all(|&v| v >= 0.0));
    });
}

#[test]
fn flips_are_involutions() {
    for_each_case(CASES, |_, rng| {
        let img = arb_image(rng);
        for op in [
            Augmentation::FlipHorizontal,
            Augmentation::FlipVertical,
            Augmentation::Rotate180,
        ] {
            assert_eq!(
                op.apply(&op.apply(&img)),
                img.clone(),
                "{:?} not an involution",
                op
            );
        }
    });
}

#[test]
fn rotations_preserve_pixel_multiset() {
    for_each_case(CASES, |_, rng| {
        let img = arb_image(rng);
        let mut base: Vec<[u8; 3]> = Vec::new();
        for y in 0..img.height() {
            for x in 0..img.width() {
                base.push(img.get(x, y));
            }
        }
        base.sort_unstable();
        let rotated = Augmentation::Rotate90.apply(&img);
        let mut rot: Vec<[u8; 3]> = Vec::new();
        for y in 0..rotated.height() {
            for x in 0..rotated.width() {
                rot.push(rotated.get(x, y));
            }
        }
        rot.sort_unstable();
        assert_eq!(base, rot);
    });
}

#[test]
fn brightness_monotone() {
    for_each_case(CASES, |_, rng| {
        let img = arb_image(rng);
        let delta = rng.gen_range(1i16..80);
        let brighter = Augmentation::Brightness { delta }.apply(&img);
        for (a, b) in img.raw().iter().zip(brighter.raw()) {
            assert!(b >= a, "brightness lowered a pixel");
        }
        let darker = Augmentation::Brightness { delta: -delta }.apply(&img);
        for (a, b) in img.raw().iter().zip(darker.raw()) {
            assert!(b <= a, "darkening raised a pixel");
        }
    });
}

#[test]
fn resize_preserves_value_range() {
    for_each_case(CASES, |_, rng| {
        let img = arb_image(rng);
        let w = rng.gen_range(2usize..32);
        let h = rng.gen_range(2usize..32);
        let resized = img.resize(w, h);
        assert_eq!(resized.width(), w);
        assert_eq!(resized.height(), h);
        let (min, max) = img
            .raw()
            .iter()
            .fold((255u8, 0u8), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        // Bilinear interpolation cannot exceed the source extremes.
        for &v in resized.raw() {
            assert!(v >= min && v <= max, "{v} outside [{min}, {max}]");
        }
    });
}
