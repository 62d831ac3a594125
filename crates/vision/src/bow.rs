//! Bag-of-visual-words encoding over SIFT descriptors.
//!
//! The paper builds its SIFT-BoW features by clustering SIFT key points
//! from 80% of the dataset into 1000 visual words with k-means, then
//! representing each image as a histogram of word occurrences.

use tvdp_ml::KMeans;

use crate::image::Image;
use crate::sift::SiftExtractor;
use crate::{FeatureExtractor, FeatureKind};

/// A fitted BoW encoder: a visual-word dictionary plus the SIFT extractor
/// used to produce descriptors.
#[derive(Debug, Clone)]
pub struct BowEncoder {
    dictionary: KMeans,
    sift: SiftExtractor,
}

impl BowEncoder {
    /// Builds the visual dictionary by clustering the descriptors of the
    /// `training` images into `vocabulary_size` words.
    ///
    /// # Panics
    ///
    /// Panics when the training images yield fewer descriptors than
    /// `vocabulary_size` (the dictionary would be degenerate).
    pub fn train(
        training: &[Image],
        sift: SiftExtractor,
        vocabulary_size: usize,
        seed: u64,
    ) -> Self {
        let mut descriptors = Vec::new();
        for img in training {
            for (_, d) in sift.detect_and_describe(img) {
                descriptors.push(d);
            }
        }
        assert!(
            descriptors.len() >= vocabulary_size,
            "only {} descriptors for a {vocabulary_size}-word vocabulary",
            descriptors.len()
        );
        let dictionary = KMeans::fit(&descriptors, vocabulary_size, 25, seed);
        Self { dictionary, sift }
    }

    /// Vocabulary size.
    pub fn vocabulary_size(&self) -> usize {
        self.dictionary.k()
    }
}

impl FeatureExtractor for BowEncoder {
    fn dim(&self) -> usize {
        self.dictionary.k()
    }

    fn kind(&self) -> FeatureKind {
        FeatureKind::SiftBow
    }

    fn extract(&self, image: &Image) -> Vec<f32> {
        let mut hist = vec![0.0f32; self.dim()];
        let pairs = self.sift.detect_and_describe(image);
        for (_, d) in &pairs {
            hist[self.dictionary.assign(d)] += 1.0;
        }
        // L1-normalize so images with different keypoint counts compare.
        // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
        let total: f32 = hist.iter().sum();
        if total > 0.0 {
            for h in &mut hist {
                *h /= total;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(seed: u8) -> Image {
        // Deterministic texture with blob structure varying by seed.
        Image::from_fn(48, 48, |x, y| {
            let v = ((x * (3 + seed as usize) + y * 7) % 23) as u8 * 11;
            let blob = {
                let dx = x as f32 - 16.0 - seed as f32;
                let dy = y as f32 - 24.0;
                if (dx * dx + dy * dy).sqrt() < 7.0 {
                    200
                } else {
                    0
                }
            };
            [v.saturating_add(blob), v, v / 2]
        })
    }

    fn trained_encoder() -> BowEncoder {
        let imgs: Vec<Image> = (0..6).map(textured).collect();
        BowEncoder::train(&imgs, SiftExtractor::new(), 8, 42)
    }

    #[test]
    fn encoding_is_normalized_histogram() {
        let enc = trained_encoder();
        assert_eq!(enc.vocabulary_size(), 8);
        let h = enc.extract(&textured(3));
        assert_eq!(h.len(), 8);
        let sum: f32 = h.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
        assert!(h.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn flat_image_encodes_to_zero_histogram() {
        let enc = trained_encoder();
        let flat = Image::from_fn(48, 48, |_, _| [90, 90, 90]);
        let h = enc.extract(&flat);
        assert!(h.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deterministic_training() {
        let imgs: Vec<Image> = (0..6).map(textured).collect();
        let a = BowEncoder::train(&imgs, SiftExtractor::new(), 8, 7);
        let b = BowEncoder::train(&imgs, SiftExtractor::new(), 8, 7);
        assert_eq!(a.extract(&textured(2)), b.extract(&textured(2)));
    }

    #[test]
    #[should_panic(expected = "descriptors")]
    fn too_small_training_set_panics() {
        let flat = vec![Image::from_fn(16, 16, |_, _| [50, 50, 50])];
        let _ = BowEncoder::train(&flat, SiftExtractor::new(), 100, 0);
    }
}
