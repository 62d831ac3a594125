//! Image augmentation operators.
//!
//! The paper's storage layer distinguishes *original* from *augmented*
//! visual data, citing the Python `Augmentor` library for synthesizing
//! augmented images via cropping, rotation, etc. This module provides the
//! corresponding operators; the storage crate records augmentation lineage.

use tvdp_kernel::rng::Rng;

use crate::image::Image;

/// A deterministic augmentation operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Augmentation {
    /// Mirror around the vertical axis.
    FlipHorizontal,
    /// Mirror around the horizontal axis.
    FlipVertical,
    /// Rotate 90° clockwise.
    Rotate90,
    /// Rotate 180°.
    Rotate180,
    /// Rotate 270° clockwise.
    Rotate270,
    /// Crop a centred region covering `fraction` of each axis, then resize
    /// back to the original size. `fraction` in `(0, 1]`.
    CenterCropZoom {
        /// Fraction of each axis kept.
        fraction: f32,
    },
    /// Add `delta` to every channel (saturating).
    Brightness {
        /// Additive shift in `[-255, 255]`.
        delta: i16,
    },
    /// Scale contrast around mid-gray by `factor`.
    Contrast {
        /// Multiplicative factor; 1.0 is identity.
        factor: f32,
    },
    /// Add seeded Gaussian pixel noise with standard deviation `sigma`.
    GaussianNoise {
        /// Noise standard deviation in 8-bit units.
        sigma: f32,
        /// RNG seed so augmentation is reproducible.
        seed: u64,
    },
}

impl Augmentation {
    /// Applies the operator, producing a new image.
    pub fn apply(&self, img: &Image) -> Image {
        let (w, h) = (img.width(), img.height());
        match *self {
            Augmentation::FlipHorizontal => Image::from_fn(w, h, |x, y| img.get(w - 1 - x, y)),
            Augmentation::FlipVertical => Image::from_fn(w, h, |x, y| img.get(x, h - 1 - y)),
            Augmentation::Rotate90 => Image::from_fn(h, w, |x, y| img.get(y, h - 1 - x)),
            Augmentation::Rotate180 => Image::from_fn(w, h, |x, y| img.get(w - 1 - x, h - 1 - y)),
            Augmentation::Rotate270 => Image::from_fn(h, w, |x, y| img.get(w - 1 - y, x)),
            Augmentation::CenterCropZoom { fraction } => {
                let f = fraction.clamp(0.05, 1.0);
                let cw = ((w as f32 * f).round() as usize).max(1);
                let ch = ((h as f32 * f).round() as usize).max(1);
                let x0 = (w - cw) / 2;
                let y0 = (h - ch) / 2;
                img.crop(x0, y0, cw, ch).resize(w, h)
            }
            Augmentation::Brightness { delta } => Image::from_fn(w, h, |x, y| {
                let px = img.get(x, y);
                [
                    (px[0] as i16 + delta).clamp(0, 255) as u8,
                    (px[1] as i16 + delta).clamp(0, 255) as u8,
                    (px[2] as i16 + delta).clamp(0, 255) as u8,
                ]
            }),
            Augmentation::Contrast { factor } => Image::from_fn(w, h, |x, y| {
                let px = img.get(x, y);
                let adjust = |v: u8| ((v as f32 - 128.0) * factor + 128.0).clamp(0.0, 255.0) as u8;
                [adjust(px[0]), adjust(px[1]), adjust(px[2])]
            }),
            Augmentation::GaussianNoise { sigma, seed } => {
                let mut rng = Rng::seed_from_u64(seed);
                Image::from_fn(w, h, |x, y| {
                    let px = img.get(x, y);
                    let mut out = [0u8; 3];
                    for c in 0..3 {
                        let u1: f32 = rng.gen_range(1e-7..1.0f32);
                        let u2: f32 = rng.gen_range(0.0..1.0f32);
                        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
                        out[c] = (px[c] as f32 + z * sigma).clamp(0.0, 255.0) as u8;
                    }
                    out
                })
            }
        }
    }

    /// A short machine-readable name for provenance records.
    pub fn tag(&self) -> String {
        match self {
            Augmentation::FlipHorizontal => "flip_h".into(),
            Augmentation::FlipVertical => "flip_v".into(),
            Augmentation::Rotate90 => "rot90".into(),
            Augmentation::Rotate180 => "rot180".into(),
            Augmentation::Rotate270 => "rot270".into(),
            Augmentation::CenterCropZoom { fraction } => format!("crop{fraction:.2}"),
            Augmentation::Brightness { delta } => format!("bright{delta:+}"),
            Augmentation::Contrast { factor } => format!("contrast{factor:.2}"),
            Augmentation::GaussianNoise { sigma, .. } => format!("noise{sigma:.1}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Image {
        Image::from_fn(8, 6, |x, y| [(x * 10) as u8, (y * 10) as u8, 7])
    }

    #[test]
    fn double_flip_is_identity() {
        let img = sample();
        let back = Augmentation::FlipHorizontal.apply(&Augmentation::FlipHorizontal.apply(&img));
        assert_eq!(back, img);
        let back_v = Augmentation::FlipVertical.apply(&Augmentation::FlipVertical.apply(&img));
        assert_eq!(back_v, img);
    }

    #[test]
    fn four_rot90_is_identity() {
        let img = sample();
        let mut r = img.clone();
        for _ in 0..4 {
            r = Augmentation::Rotate90.apply(&r);
        }
        assert_eq!(r, img);
    }

    #[test]
    fn rotations_compose() {
        let img = sample();
        let r180 = Augmentation::Rotate180.apply(&img);
        let r90_twice = Augmentation::Rotate90.apply(&Augmentation::Rotate90.apply(&img));
        assert_eq!(r180, r90_twice);
        let r270 = Augmentation::Rotate270.apply(&img);
        let r90_thrice = Augmentation::Rotate90.apply(&r90_twice);
        assert_eq!(r270, r90_thrice);
    }

    #[test]
    fn rotate_swaps_dimensions() {
        let img = sample();
        let r = Augmentation::Rotate90.apply(&img);
        assert_eq!((r.width(), r.height()), (6, 8));
    }

    #[test]
    fn brightness_clamps() {
        let img = Image::from_fn(2, 2, |_, _| [250, 5, 128]);
        let up = Augmentation::Brightness { delta: 20 }.apply(&img);
        assert_eq!(up.get(0, 0), [255, 25, 148]);
        let down = Augmentation::Brightness { delta: -20 }.apply(&img);
        assert_eq!(down.get(0, 0), [230, 0, 108]);
    }

    #[test]
    fn contrast_identity_at_one() {
        let img = sample();
        let same = Augmentation::Contrast { factor: 1.0 }.apply(&img);
        assert_eq!(same, img);
        // Zero factor collapses to mid-gray.
        let flat = Augmentation::Contrast { factor: 0.0 }.apply(&img);
        assert!(flat.raw().iter().all(|&v| v == 128));
    }

    #[test]
    fn crop_zoom_keeps_size() {
        let img = sample();
        let z = Augmentation::CenterCropZoom { fraction: 0.5 }.apply(&img);
        assert_eq!((z.width(), z.height()), (8, 6));
    }

    #[test]
    fn noise_deterministic_and_bounded() {
        let img = sample();
        let op = Augmentation::GaussianNoise {
            sigma: 10.0,
            seed: 3,
        };
        let a = op.apply(&img);
        let b = op.apply(&img);
        assert_eq!(a, b);
        assert_ne!(a, img);
    }

    #[test]
    fn tags_are_distinct() {
        let tags: Vec<String> = [
            Augmentation::FlipHorizontal,
            Augmentation::Rotate90,
            Augmentation::Brightness { delta: 5 },
            Augmentation::Contrast { factor: 1.2 },
        ]
        .iter()
        .map(Augmentation::tag)
        .collect();
        let mut dedup = tags.clone();
        dedup.dedup();
        assert_eq!(tags, dedup);
    }
}
