//! Seeded random-convolution CNN feature extractor.
//!
//! Stands in for the paper's fine-tuned Caffe CNN features. The network is
//! a real convolutional pipeline — 3×3 convolutions, ReLU, 2×2 max
//! pooling, repeated over several stages — whose filter weights are drawn
//! once from a seeded Gaussian (He-scaled) instead of being learned.
//! Random-feature convnets are a well-studied approximation of trained
//! embeddings: they genuinely respond to multi-scale spatial structure,
//! which is what lets them dominate color histograms and BoW in the
//! reproduction of the paper's Fig. 6 ordering.
//!
//! The final descriptor concatenates per-channel averages over a 2×2
//! spatial grid of the last feature map, preserving coarse layout, then
//! L2-normalizes.

use tvdp_kernel::rng::Rng;

use crate::image::Image;
use crate::{FeatureExtractor, FeatureKind};

/// Network architecture and determinism knobs.
#[derive(Debug, Clone)]
pub struct CnnConfig {
    /// Input images are bilinearly resized to this square size first.
    pub input_size: usize,
    /// Output channels per stage; each stage halves spatial resolution.
    pub stage_channels: Vec<usize>,
    /// Seed for the filter weights.
    pub seed: u64,
    /// Cells per axis in the final spatial-grid pooling (2 ⇒ 2×2 grid).
    pub pool_grid: usize,
}

impl Default for CnnConfig {
    fn default() -> Self {
        Self {
            input_size: 48,
            stage_channels: vec![12, 24, 48],
            seed: 0x7dbf,
            pool_grid: 3,
        }
    }
}

/// One convolution stage: 3×3 kernels, `in_ch → out_ch`.
#[derive(Debug, Clone)]
struct ConvStage {
    in_ch: usize,
    out_ch: usize,
    /// Weights laid out `[out][in][ky][kx]`, flattened.
    weights: Vec<f32>,
}

impl ConvStage {
    fn new(in_ch: usize, out_ch: usize, rng: &mut Rng) -> Self {
        let fan_in = (in_ch * 9) as f32;
        let scale = (2.0 / fan_in).sqrt(); // He initialization
        let weights = (0..out_ch * in_ch * 9)
            .map(|_| {
                // Box-Muller from two uniforms for a Gaussian sample.
                let u1: f32 = rng.gen_range(1e-7..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
                z * scale
            })
            .collect();
        Self {
            in_ch,
            out_ch,
            weights,
        }
    }

    #[inline]
    fn w(&self, o: usize, i: usize, ky: usize, kx: usize) -> f32 {
        self.weights[((o * self.in_ch + i) * 3 + ky) * 3 + kx]
    }

    /// conv3x3 (same padding, clamped borders) + ReLU + 2x2 max pool.
    fn forward(&self, input: &FeatureMap) -> FeatureMap {
        debug_assert_eq!(input.channels, self.in_ch);
        let (w, h) = (input.width, input.height);
        let mut conv = FeatureMap::zeros(self.out_ch, w, h);
        for o in 0..self.out_ch {
            for y in 0..h {
                for x in 0..w {
                    let mut acc = 0.0f32;
                    for i in 0..self.in_ch {
                        for ky in 0..3usize {
                            for kx in 0..3usize {
                                let sy = (y + ky).saturating_sub(1).min(h - 1);
                                let sx = (x + kx).saturating_sub(1).min(w - 1);
                                // tvdp-lint: allow(float_reduction, reason = "in-order loop accumulation over a fixed traversal; single-threaded, bit-stable across runs and thread counts")
                                acc += self.w(o, i, ky, kx) * input.get(i, sx, sy);
                            }
                        }
                    }
                    conv.set(o, x, y, acc.max(0.0)); // ReLU
                }
            }
        }
        conv.max_pool2()
    }
}

/// A multi-channel feature map.
#[derive(Debug, Clone)]
struct FeatureMap {
    channels: usize,
    width: usize,
    height: usize,
    data: Vec<f32>, // [channel][y][x]
}

impl FeatureMap {
    fn zeros(channels: usize, width: usize, height: usize) -> Self {
        Self {
            channels,
            width,
            height,
            data: vec![0.0; channels * width * height],
        }
    }

    #[inline]
    fn get(&self, c: usize, x: usize, y: usize) -> f32 {
        self.data[(c * self.height + y) * self.width + x]
    }

    #[inline]
    fn set(&mut self, c: usize, x: usize, y: usize, v: f32) {
        self.data[(c * self.height + y) * self.width + x] = v;
    }

    fn max_pool2(&self) -> FeatureMap {
        let nw = (self.width / 2).max(1);
        let nh = (self.height / 2).max(1);
        let mut out = FeatureMap::zeros(self.channels, nw, nh);
        for c in 0..self.channels {
            for y in 0..nh {
                for x in 0..nw {
                    let mut m = f32::NEG_INFINITY;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let sy = (y * 2 + dy).min(self.height - 1);
                            let sx = (x * 2 + dx).min(self.width - 1);
                            m = m.max(self.get(c, sx, sy));
                        }
                    }
                    out.set(c, x, y, m);
                }
            }
        }
        out
    }
}

/// The random-convolution feature extractor.
#[derive(Debug, Clone)]
pub struct CnnExtractor {
    config: CnnConfig,
    stages: Vec<ConvStage>,
}

impl CnnExtractor {
    /// Builds the network with default architecture (32×32 input,
    /// 8→16→32 channels, 2×2 grid pooling ⇒ 128-d descriptor).
    pub fn new() -> Self {
        Self::with_config(CnnConfig::default())
    }

    /// Builds the network from an explicit configuration.
    pub fn with_config(config: CnnConfig) -> Self {
        assert!(config.input_size >= 8, "input too small");
        assert!(!config.stage_channels.is_empty(), "need at least one stage");
        assert!(config.pool_grid >= 1, "pool grid must be positive");
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut stages = Vec::with_capacity(config.stage_channels.len());
        let mut in_ch = 3;
        for &out_ch in &config.stage_channels {
            assert!(out_ch > 0, "zero-channel stage");
            stages.push(ConvStage::new(in_ch, out_ch, &mut rng));
            in_ch = out_ch;
        }
        Self { config, stages }
    }

    fn image_to_map(&self, image: &Image) -> FeatureMap {
        let resized = image.resize(self.config.input_size, self.config.input_size);
        let s = self.config.input_size;
        let mut map = FeatureMap::zeros(3, s, s);
        for y in 0..s {
            for x in 0..s {
                let px = resized.get(x, y);
                for (c, &v) in px.iter().enumerate() {
                    map.set(c, x, y, v as f32 / 255.0 - 0.5);
                }
            }
        }
        map
    }
}

impl Default for CnnExtractor {
    fn default() -> Self {
        Self::new()
    }
}

impl FeatureExtractor for CnnExtractor {
    fn dim(&self) -> usize {
        // Per channel: one average per grid cell plus one global max.
        #[expect(
            clippy::expect_used,
            reason = "constructor asserts stage_channels is non-empty"
        )]
        let last = *self.config.stage_channels.last().expect("non-empty stages");
        last * (self.config.pool_grid * self.config.pool_grid + 1)
    }

    fn kind(&self) -> FeatureKind {
        FeatureKind::Cnn
    }

    fn extract(&self, image: &Image) -> Vec<f32> {
        let mut map = self.image_to_map(image);
        for stage in &self.stages {
            map = stage.forward(&map);
        }
        // Spatial-grid average pooling plus a global max per channel.
        let g = self.config.pool_grid;
        let per_chan = g * g + 1;
        let mut out = vec![0.0f32; self.dim()];
        for c in 0..map.channels {
            let mut global_max = f32::NEG_INFINITY;
            for gy in 0..g {
                for gx in 0..g {
                    let x0 = map.width * gx / g;
                    let x1 = (map.width * (gx + 1) / g).max(x0 + 1).min(map.width);
                    let y0 = map.height * gy / g;
                    let y1 = (map.height * (gy + 1) / g).max(y0 + 1).min(map.height);
                    let mut acc = 0.0f32;
                    let mut count = 0usize;
                    for y in y0..y1 {
                        for x in x0..x1 {
                            let v = map.get(c, x, y);
                            // tvdp-lint: allow(float_reduction, reason = "in-order loop accumulation over a fixed traversal; single-threaded, bit-stable across runs and thread counts")
                            acc += v;
                            global_max = global_max.max(v);
                            count += 1;
                        }
                    }
                    out[c * per_chan + gy * g + gx] = acc / count.max(1) as f32;
                }
            }
            out[c * per_chan + g * g] = global_max;
        }
        tvdp_kernel::normalize(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scene(kind: u8) -> Image {
        Image::from_fn(48, 48, |x, y| match kind {
            // Vertical stripes.
            0 => {
                if x % 8 < 4 {
                    [220, 220, 220]
                } else {
                    [30, 30, 30]
                }
            }
            // Horizontal stripes.
            1 => {
                if y % 8 < 4 {
                    [220, 220, 220]
                } else {
                    [30, 30, 30]
                }
            }
            // Centre blob.
            _ => {
                let dx = x as f32 - 24.0;
                let dy = y as f32 - 24.0;
                if (dx * dx + dy * dy).sqrt() < 10.0 {
                    [200, 60, 60]
                } else {
                    [60, 60, 200]
                }
            }
        })
    }

    #[test]
    fn default_dim_is_480() {
        let cnn = CnnExtractor::new();
        assert_eq!(cnn.dim(), 480, "48 channels x (3x3 grid + global max)");
        assert_eq!(cnn.kind(), FeatureKind::Cnn);
    }

    #[test]
    fn output_unit_norm_and_correct_len() {
        let cnn = CnnExtractor::new();
        let f = cnn.extract(&scene(2));
        assert_eq!(f.len(), 480);
        let norm: f32 = f.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = CnnExtractor::new().extract(&scene(0));
        let b = CnnExtractor::new().extract(&scene(0));
        assert_eq!(a, b);
        let other_seed = CnnExtractor::with_config(CnnConfig {
            seed: 99,
            ..Default::default()
        });
        assert_ne!(a, other_seed.extract(&scene(0)));
    }

    #[test]
    fn distinguishes_structures_color_cannot() {
        // Vertical vs horizontal stripes have identical color statistics
        // but different spatial structure: CNN embeddings must differ
        // substantially.
        let cnn = CnnExtractor::new();
        let v = cnn.extract(&scene(0));
        let h = cnn.extract(&scene(1));
        let cos: f32 = v.iter().zip(&h).map(|(a, b)| a * b).sum();
        assert!(
            cos < 0.995,
            "stripe orientations indistinguishable (cos={cos})"
        );
        // Same structure is self-similar.
        let v2 = cnn.extract(&scene(0));
        let self_cos: f32 = v.iter().zip(&v2).map(|(a, b)| a * b).sum();
        assert!(self_cos > 0.999);
    }

    #[test]
    fn embedding_stable_under_small_brightness_change() {
        let base = scene(2);
        let brighter = Image::from_fn(48, 48, |x, y| {
            let px = base.get(x, y);
            [
                px[0].saturating_add(10),
                px[1].saturating_add(10),
                px[2].saturating_add(10),
            ]
        });
        let cnn = CnnExtractor::new();
        let a = cnn.extract(&base);
        let b = cnn.extract(&brighter);
        let cos: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!(
            cos > 0.95,
            "brightness shift destroyed embedding: cos={cos}"
        );
    }

    #[test]
    fn handles_non_square_input() {
        let img = Image::from_fn(64, 32, |x, _| [(x * 4) as u8, 0, 0]);
        let f = CnnExtractor::new().extract(&img);
        assert_eq!(f.len(), 480);
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
