//! Visual substrate for the Translational Visual Data Platform.
//!
//! Implements the *visual descriptors* of the TVDP data model (paper
//! Section IV-A) as genuine pixel-level computation:
//!
//! * [`color::ColorHistogramExtractor`] — HSV color histogram with the
//!   paper's 20/20/10 bin layout,
//! * [`sift`] + [`bow`] — a SIFT-style keypoint detector/descriptor and a
//!   k-means bag-of-visual-words encoder (the paper clusters SIFT key
//!   points into a 1000-word dictionary),
//! * [`cnn::CnnExtractor`] — a seeded random-convolution network producing
//!   dense embeddings (the stand-in for the paper's fine-tuned Caffe CNN;
//!   see DESIGN.md for the substitution argument),
//! * [`augment`] — the image-augmentation operators the paper's storage
//!   layer tracks as *augmented* (vs original) visual data.
//!
//! All extractors implement [`FeatureExtractor`] so the analysis and
//! platform layers can treat feature families uniformly.

pub mod augment;
pub mod bow;
pub mod cnn;
pub mod color;
pub mod gradient;
pub mod image;
pub mod sift;

pub use augment::Augmentation;
pub use bow::BowEncoder;
pub use cnn::{CnnConfig, CnnExtractor};
pub use color::{rgb_to_hsv, ColorHistogramExtractor};
pub use image::Image;
pub use sift::{Keypoint, SiftConfig, SiftExtractor};

/// The feature families of the paper's evaluation (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FeatureKind {
    /// HSV color histogram.
    ColorHistogram,
    /// SIFT bag-of-visual-words.
    SiftBow,
    /// CNN embedding.
    Cnn,
}

impl FeatureKind {
    /// Display name matching the paper's figure labels.
    pub fn label(&self) -> &'static str {
        match self {
            FeatureKind::ColorHistogram => "Color Histogram",
            FeatureKind::SiftBow => "SIFT-BoW",
            FeatureKind::Cnn => "CNN",
        }
    }
}

/// Extracts a fixed-dimensional feature vector from an image.
pub trait FeatureExtractor {
    /// Output dimensionality (constant per extractor instance).
    fn dim(&self) -> usize;

    /// Which feature family this extractor produces.
    fn kind(&self) -> FeatureKind;

    /// Computes the feature vector; output length equals [`Self::dim`].
    fn extract(&self, image: &Image) -> Vec<f32>;

    /// Extracts features for a batch of images.
    fn extract_batch(&self, images: &[Image]) -> Vec<Vec<f32>> {
        images.iter().map(|img| self.extract(img)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_kind_labels() {
        assert_eq!(FeatureKind::ColorHistogram.label(), "Color Histogram");
        assert_eq!(FeatureKind::SiftBow.label(), "SIFT-BoW");
        assert_eq!(FeatureKind::Cnn.label(), "CNN");
    }
}
