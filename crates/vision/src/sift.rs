//! SIFT-style keypoint detection and description.
//!
//! A compact re-implementation of the pipeline the paper uses for its
//! SIFT-BoW features: difference-of-Gaussians keypoint detection on a
//! small scale stack, dominant-orientation assignment, and the classic
//! 4×4-cell × 8-orientation-bin = 128-dimensional gradient descriptor
//! (Lowe 2004), with descriptor normalization and the 0.2 clamping step.

use crate::gradient::{gaussian_blur, mag_ori, sobel, GrayImage};
use crate::image::Image;

/// Detector/descriptor configuration.
#[derive(Debug, Clone, Copy)]
pub struct SiftConfig {
    /// Base smoothing sigma.
    pub base_sigma: f32,
    /// Multiplicative sigma step between stack levels.
    pub sigma_step: f32,
    /// Number of Gaussian levels (yields `levels - 1` DoG layers).
    pub levels: usize,
    /// Absolute DoG response threshold for a keypoint.
    pub contrast_threshold: f32,
    /// Keep at most this many strongest keypoints per image.
    pub max_keypoints: usize,
}

impl Default for SiftConfig {
    fn default() -> Self {
        Self {
            base_sigma: 1.0,
            sigma_step: 1.6,
            levels: 4,
            contrast_threshold: 0.015,
            max_keypoints: 120,
        }
    }
}

/// A detected interest point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Keypoint {
    /// Column in pixels.
    pub x: usize,
    /// Row in pixels.
    pub y: usize,
    /// Index of the DoG layer the extremum was found in.
    pub scale: usize,
    /// Absolute DoG response (strength).
    pub response: f32,
    /// Dominant gradient orientation in radians.
    pub orientation: f32,
}

/// SIFT-style extractor producing 128-d descriptors.
#[derive(Debug, Clone, Default)]
pub struct SiftExtractor {
    config: SiftConfig,
}

impl SiftExtractor {
    /// Extractor with default configuration.
    pub fn new() -> Self {
        Self {
            config: SiftConfig::default(),
        }
    }

    /// Detects keypoints and computes their 128-d descriptors.
    pub fn detect_and_describe(&self, image: &Image) -> Vec<(Keypoint, Vec<f32>)> {
        let gray = GrayImage::new(image.width(), image.height(), image.to_gray());
        let (stack, dogs) = self.build_scale_space(&gray);
        let mut kps = self.find_extrema(&dogs);
        for kp in &mut kps {
            kp.orientation = Self::dominant_orientation(&stack[kp.scale + 1], kp.x, kp.y);
        }
        kps.sort_by(|a, b| b.response.total_cmp(&a.response));
        kps.truncate(self.config.max_keypoints);
        kps.into_iter()
            .map(|kp| {
                let desc = Self::describe(&stack[kp.scale + 1], &kp);
                (kp, desc)
            })
            .collect()
    }

    fn build_scale_space(&self, gray: &GrayImage) -> (Vec<GrayImage>, Vec<GrayImage>) {
        let mut stack = Vec::with_capacity(self.config.levels);
        let mut sigma = self.config.base_sigma;
        for _ in 0..self.config.levels {
            stack.push(gaussian_blur(gray, sigma));
            sigma *= self.config.sigma_step;
        }
        let dogs: Vec<GrayImage> = stack
            .windows(2)
            .map(|w| {
                let mut d = GrayImage::zeros(gray.width, gray.height);
                for i in 0..d.data.len() {
                    d.data[i] = w[1].data[i] - w[0].data[i];
                }
                d
            })
            .collect();
        (stack, dogs)
    }

    /// Local extrema in scale space. Simplification relative to full SIFT:
    /// a keypoint must be a *strict* extremum in its 8-neighbourhood within
    /// one DoG layer and dominate (non-strictly) the same pixel in the
    /// adjacent layers. The non-strict scale test keeps blob centres whose
    /// scale response is monotone over our short scale stack.
    fn find_extrema(&self, dogs: &[GrayImage]) -> Vec<Keypoint> {
        let mut kps = Vec::new();
        let threshold = self.config.contrast_threshold;
        for s in 1..dogs.len() - 1 {
            let (w, h) = (dogs[s].width, dogs[s].height);
            for y in 1..h.saturating_sub(1) {
                for x in 1..w.saturating_sub(1) {
                    let v = dogs[s].get(x as isize, y as isize);
                    if v.abs() < threshold {
                        continue;
                    }
                    let mut is_max = true;
                    let mut is_min = true;
                    'nbr: for dy in -1isize..=1 {
                        for dx in -1isize..=1 {
                            if dy == 0 && dx == 0 {
                                continue;
                            }
                            let n = dogs[s].get(x as isize + dx, y as isize + dy);
                            if n >= v {
                                is_max = false;
                            }
                            if n <= v {
                                is_min = false;
                            }
                            if !is_max && !is_min {
                                break 'nbr;
                            }
                        }
                    }
                    if !is_max && !is_min {
                        continue;
                    }
                    let below = dogs[s - 1].get(x as isize, y as isize);
                    let above = dogs[s + 1].get(x as isize, y as isize);
                    let scale_ok = if is_max {
                        v >= below && v >= above
                    } else {
                        v <= below && v <= above
                    };
                    if scale_ok {
                        kps.push(Keypoint {
                            x,
                            y,
                            scale: s,
                            response: v.abs(),
                            orientation: 0.0,
                        });
                    }
                }
            }
        }
        kps
    }

    /// Peak of a 36-bin gradient-orientation histogram around `(x, y)`.
    fn dominant_orientation(level: &GrayImage, x: usize, y: usize) -> f32 {
        const BINS: usize = 36;
        let mut hist = [0.0f32; BINS];
        let radius = 6isize;
        let (gx_img, gy_img) = sobel(level);
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                let (px, py) = (x as isize + dx, y as isize + dy);
                let (m, o) = mag_ori(gx_img.get(px, py), gy_img.get(px, py));
                let w =
                    (-((dx * dx + dy * dy) as f32) / (2.0 * (radius as f32 / 2.0).powi(2))).exp();
                let bin =
                    (((o + std::f32::consts::PI) / (2.0 * std::f32::consts::PI) * BINS as f32)
                        as usize)
                        .min(BINS - 1);
                hist[bin] += m * w;
            }
        }
        let best = hist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        (best as f32 + 0.5) / BINS as f32 * 2.0 * std::f32::consts::PI - std::f32::consts::PI
    }

    /// The 4×4×8 gradient-histogram descriptor, rotated to the keypoint
    /// orientation, normalized with 0.2 clamping.
    fn describe(level: &GrayImage, kp: &Keypoint) -> Vec<f32> {
        const CELLS: usize = 4;
        const OBINS: usize = 8;
        const PATCH: isize = 8; // half-width: 16x16 patch
        let mut desc = vec![0.0f32; CELLS * CELLS * OBINS];
        let (sin_o, cos_o) = kp.orientation.sin_cos();
        let (gx_img, gy_img) = sobel(level);
        for dy in -PATCH..PATCH {
            for dx in -PATCH..PATCH {
                // Rotate the sample offset into the keypoint frame.
                let rx = cos_o * dx as f32 + sin_o * dy as f32;
                let ry = -sin_o * dx as f32 + cos_o * dy as f32;
                let cell_x = ((rx + PATCH as f32) / (2.0 * PATCH as f32) * CELLS as f32)
                    .floor()
                    .clamp(0.0, (CELLS - 1) as f32) as usize;
                let cell_y = ((ry + PATCH as f32) / (2.0 * PATCH as f32) * CELLS as f32)
                    .floor()
                    .clamp(0.0, (CELLS - 1) as f32) as usize;
                let (px, py) = (kp.x as isize + dx, kp.y as isize + dy);
                let (m, o) = mag_ori(gx_img.get(px, py), gy_img.get(px, py));
                let rel = o - kp.orientation;
                let rel = rel.rem_euclid(2.0 * std::f32::consts::PI);
                let bin =
                    ((rel / (2.0 * std::f32::consts::PI) * OBINS as f32) as usize).min(OBINS - 1);
                desc[(cell_y * CELLS + cell_x) * OBINS + bin] += m;
            }
        }
        // Normalize, clamp at 0.2, renormalize (illumination robustness).
        normalize(&mut desc);
        for v in &mut desc {
            *v = v.min(0.2);
        }
        normalize(&mut desc);
        desc
    }
}

use tvdp_kernel::normalize;

#[cfg(test)]
mod tests {
    use super::*;

    /// An image with a bright blob on dark background — a classic corner-rich
    /// target for DoG detection.
    fn blob_image() -> Image {
        Image::from_fn(48, 48, |x, y| {
            let dx = x as f32 - 24.0;
            let dy = y as f32 - 24.0;
            let d = (dx * dx + dy * dy).sqrt();
            if d < 6.0 {
                [255, 255, 255]
            } else {
                [20, 20, 20]
            }
        })
    }

    impl SiftExtractor {
        fn detect(&self, image: &Image) -> Vec<Keypoint> {
            let pairs = self.detect_and_describe(image);
            pairs.into_iter().map(|(kp, _)| kp).collect()
        }
    }

    #[test]
    fn flat_image_has_no_keypoints() {
        let img = Image::from_fn(48, 48, |_, _| [128, 128, 128]);
        let kps = SiftExtractor::new().detect(&img);
        assert!(
            kps.is_empty(),
            "found {} keypoints on flat image",
            kps.len()
        );
    }

    #[test]
    fn blob_yields_keypoints_near_center() {
        let kps = SiftExtractor::new().detect(&blob_image());
        assert!(!kps.is_empty(), "no keypoints detected");
        let near = kps
            .iter()
            .any(|kp| (kp.x as f32 - 24.0).abs() < 8.0 && (kp.y as f32 - 24.0).abs() < 8.0);
        assert!(near, "no keypoint near the blob: {kps:?}");
    }

    #[test]
    fn descriptors_are_unit_norm_128d() {
        let pairs = SiftExtractor::new().detect_and_describe(&blob_image());
        assert!(!pairs.is_empty());
        for (_, d) in &pairs {
            assert_eq!(d.len(), 128, "4x4 cells x 8 bins");
            let norm: f32 = d.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-3, "norm {norm}");
            assert!(d.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn keypoints_sorted_by_response_and_capped() {
        let config = SiftConfig {
            max_keypoints: 5,
            ..Default::default()
        };
        let kps = SiftExtractor { config }.detect(&blob_image());
        assert!(kps.len() <= 5);
        for w in kps.windows(2) {
            assert!(w[0].response >= w[1].response);
        }
    }

    #[test]
    fn higher_threshold_fewer_keypoints() {
        let img = blob_image();
        let loose = SiftExtractor {
            config: SiftConfig {
                contrast_threshold: 0.005,
                ..Default::default()
            },
        }
        .detect(&img)
        .len();
        let strict = SiftExtractor {
            config: SiftConfig {
                contrast_threshold: 0.08,
                ..Default::default()
            },
        }
        .detect(&img)
        .len();
        assert!(strict <= loose, "strict {strict} > loose {loose}");
    }

    #[test]
    fn descriptor_similar_under_small_shift() {
        // The descriptor of the blob centre should resemble the descriptor
        // of the same blob shifted by two pixels.
        let a = blob_image();
        let b = Image::from_fn(48, 48, |x, y| a.get_clamped(x as isize - 2, y as isize));
        let ea = SiftExtractor::new().detect_and_describe(&a);
        let eb = SiftExtractor::new().detect_and_describe(&b);
        let (_, da) = &ea[0];
        let (_, db) = &eb[0];
        let dot: f32 = da.iter().zip(db.iter()).map(|(x, y)| x * y).sum();
        assert!(dot > 0.5, "shift destroyed descriptor similarity: {dot}");
    }
}
