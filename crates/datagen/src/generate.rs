//! End-to-end dataset generation: scenes + acquisition metadata.

use tvdp_kernel::rng::Rng;

use tvdp_geo::Fov;
use tvdp_vision::Image;

use crate::classes::CleanlinessClass;
use crate::scene::{render, render_styled, SceneParams};
use crate::streets::StreetGrid;

/// Generator configuration. Defaults are a scaled-down stand-in for the
/// paper's 22K-image LASAN dataset, sized so full feature extraction and
/// training stay laptop-fast; raise `n_images` toward 22_000 to approach
/// paper scale.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Number of images to generate.
    pub n_images: usize,
    /// Square image edge length in pixels.
    pub image_size: usize,
    /// Master seed; everything downstream is deterministic in it.
    pub seed: u64,
    /// Relative class frequencies in [`CleanlinessClass::ALL`] order.
    pub class_weights: [f64; 5],
    /// Probability of a graffiti co-label per class (same order).
    pub graffiti_rates: [f64; 5],
    /// Capture-period start (Unix seconds).
    pub period_start: i64,
    /// Capture-period length in seconds.
    pub period_len: i64,
    /// Number of distinct uploader ids to simulate.
    pub n_uploaders: u64,
    /// When set, each ~650 m district gets a persistent appearance
    /// (architectural palette): images captured in the same district
    /// share a color cast. Real streetscapes have this place-appearance
    /// correlation; the scene-localization experiment (paper ref [23])
    /// depends on it.
    pub appearance_by_block: bool,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            n_images: 1500,
            image_size: 48,
            seed: 0xC1EA,
            // Clean dominates real street imagery; incident classes are
            // rarer but well represented (the paper's set was curated).
            class_weights: [0.18, 0.18, 0.18, 0.16, 0.30],
            graffiti_rates: [0.15, 0.30, 0.30, 0.10, 0.08],
            period_start: 1_546_300_800, // 2019-01-01, the paper's era
            period_len: 90 * 24 * 3600,
            n_uploaders: 12,
            appearance_by_block: false,
        }
    }
}

/// One generated image with its ground truth and acquisition metadata.
#[derive(Debug, Clone)]
pub struct SyntheticImage {
    /// Pixels.
    pub image: Image,
    /// Ground-truth cleanliness class.
    pub cleanliness: CleanlinessClass,
    /// Ground-truth graffiti co-label (hidden from cleanliness training;
    /// used by the translational experiment).
    pub graffiti: bool,
    /// Camera field of view on the street grid.
    pub fov: Fov,
    /// Capture timestamp (Unix seconds).
    pub captured_at: i64,
    /// Upload timestamp (capture + transfer delay).
    pub uploaded_at: i64,
    /// Uploader-supplied keywords (noisy: class words plus generic ones).
    pub keywords: Vec<String>,
    /// Simulated uploader id.
    pub uploader: u64,
}

/// Generates a deterministic dataset per `config`.
pub fn generate(config: &DatasetConfig) -> Vec<SyntheticImage> {
    assert!(config.n_images > 0, "empty dataset requested");
    // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
    let total_weight: f64 = config.class_weights.iter().sum();
    assert!(total_weight > 0.0, "class weights sum to zero");

    let grid = StreetGrid::downtown_la();
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(config.n_images);
    for _ in 0..config.n_images {
        // Class by weighted draw.
        let mut draw = rng.gen_range(0.0..total_weight);
        let mut class = CleanlinessClass::Clean;
        for (i, &w) in config.class_weights.iter().enumerate() {
            if draw < w {
                class = CleanlinessClass::ALL[i];
                break;
            }
            draw -= w;
        }
        let graffiti = rng.gen_bool(config.graffiti_rates[class.index()]);
        let params = SceneParams::sample(config.image_size, &mut rng);
        // RNG order differs between the modes on purpose: the default
        // path preserves the calibrated stream (render before FOV);
        // district mode needs the position first to derive the palette.
        let (image, fov) = if config.appearance_by_block {
            let fov = grid.sample_fov(&mut rng);
            // Deterministic district palette: buildings in one district
            // share a facade paint. SplitMix64 over the district cell
            // picks a stable, saturated wall color.
            let block_row = ((fov.camera.lat - 34.0) / 0.006) as i64;
            let block_col = ((fov.camera.lon + 118.3) / 0.006) as i64;
            let mut z = (block_row as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ (block_col as u64).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 30)).wrapping_mul(0x94D049BB133111EB);
            let wall = [
                60.0 + ((z >> 8) & 0xFF) as f32 / 255.0 * 160.0,
                60.0 + ((z >> 24) & 0xFF) as f32 / 255.0 * 160.0,
                60.0 + ((z >> 40) & 0xFF) as f32 / 255.0 * 160.0,
            ];
            (
                render_styled(class, graffiti, &params, &mut rng, Some(wall)),
                fov,
            )
        } else {
            let image = render(class, graffiti, &params, &mut rng);
            (image, grid.sample_fov(&mut rng))
        };
        let captured_at = config.period_start + rng.gen_range(0..config.period_len.max(1));
        let uploaded_at = captured_at + rng.gen_range(30..3600 * 6);

        // Keywords: 60% of images carry one class keyword; most carry a
        // generic street word; graffiti sometimes mentioned.
        let mut keywords = Vec::new();
        if rng.gen_bool(0.6) {
            let pool = class.keyword_pool();
            keywords.push(pool[rng.gen_range(0..pool.len())].to_string());
        }
        if rng.gen_bool(0.8) {
            const GENERIC: [&str; 4] = ["street", "sidewalk", "downtown", "la"];
            keywords.push(GENERIC[rng.gen_range(0..GENERIC.len())].to_string());
        }
        if graffiti && rng.gen_bool(0.4) {
            keywords.push("graffiti".to_string());
        }

        out.push(SyntheticImage {
            image,
            cleanliness: class,
            graffiti,
            fov,
            captured_at,
            uploaded_at,
            keywords,
            uploader: rng.gen_range(0..config.n_uploaders),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DatasetConfig {
        DatasetConfig {
            n_images: 120,
            image_size: 32,
            ..Default::default()
        }
    }

    #[test]
    fn generates_requested_count_with_all_classes() {
        let data = generate(&small_config());
        assert_eq!(data.len(), 120);
        for class in CleanlinessClass::ALL {
            assert!(
                data.iter().any(|d| d.cleanliness == class),
                "class {class:?} absent from 120 samples"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate(&small_config());
        let b = generate(&small_config());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.image, y.image);
            assert_eq!(x.cleanliness, y.cleanliness);
            assert_eq!(x.captured_at, y.captured_at);
        }
        let c = generate(&DatasetConfig {
            seed: 1,
            ..small_config()
        });
        assert!(a.iter().zip(&c).any(|(x, y)| x.image != y.image));
    }

    #[test]
    fn class_weights_respected() {
        let config = DatasetConfig {
            n_images: 600,
            image_size: 16,
            class_weights: [0.0, 0.0, 0.0, 0.0, 1.0],
            ..Default::default()
        };
        let data = generate(&config);
        assert!(data
            .iter()
            .all(|d| d.cleanliness == CleanlinessClass::Clean));
    }

    #[test]
    fn timestamps_ordered_and_in_period() {
        let config = small_config();
        for d in generate(&config) {
            assert!(d.captured_at >= config.period_start);
            assert!(d.captured_at < config.period_start + config.period_len);
            assert!(d.uploaded_at > d.captured_at);
        }
    }

    #[test]
    fn fovs_on_the_grid() {
        let grid = StreetGrid::downtown_la();
        for d in generate(&small_config()) {
            assert!(grid.region().contains(&d.fov.camera));
        }
    }

    #[test]
    fn graffiti_rate_tracks_config() {
        let config = DatasetConfig {
            n_images: 400,
            image_size: 16,
            graffiti_rates: [1.0; 5],
            ..Default::default()
        };
        let data = generate(&config);
        assert!(data.iter().all(|d| d.graffiti));
        let config0 = DatasetConfig {
            graffiti_rates: [0.0; 5],
            ..config
        };
        assert!(generate(&config0).iter().all(|d| !d.graffiti));
    }

    #[test]
    fn keywords_sometimes_match_class() {
        let data = generate(&DatasetConfig {
            n_images: 300,
            image_size: 16,
            ..Default::default()
        });
        let with_class_word = data
            .iter()
            .filter(|d| {
                d.keywords
                    .iter()
                    .any(|k| d.cleanliness.keyword_pool().contains(&k.as_str()))
            })
            .count();
        // Around 60% carry a class keyword.
        assert!(with_class_word > 100, "only {with_class_word} of 300");
        assert!(with_class_word < 250);
    }
}

#[cfg(test)]
mod block_appearance_tests {
    use super::*;

    fn district(lat: f64, lon: f64) -> (i64, i64) {
        (
            ((lat - 34.0) / 0.006) as i64,
            ((lon + 118.3) / 0.006) as i64,
        )
    }

    #[test]
    fn district_mode_is_deterministic_and_distinct() {
        let base = DatasetConfig {
            n_images: 60,
            image_size: 16,
            ..Default::default()
        };
        let styled = generate(&DatasetConfig {
            appearance_by_block: true,
            ..base.clone()
        });
        let styled2 = generate(&DatasetConfig {
            appearance_by_block: true,
            ..base.clone()
        });
        for (a, b) in styled.iter().zip(&styled2) {
            assert_eq!(a.image, b.image);
            assert_eq!(a.fov.camera, b.fov.camera);
        }
        // Distinct from the default mode.
        let plain = generate(&base);
        assert!(styled.iter().zip(&plain).any(|(a, b)| a.image != b.image));
    }

    #[test]
    fn same_district_images_share_a_palette() {
        let styled = generate(&DatasetConfig {
            n_images: 240,
            image_size: 16,
            appearance_by_block: true,
            ..Default::default()
        });
        // Mean-RGB distance within a district must be clearly smaller
        // than across districts (persistent facade paint).
        let rgb: Vec<[f32; 3]> = styled.iter().map(|d| d.image.mean_rgb()).collect();
        let dist = |a: [f32; 3], b: [f32; 3]| -> f64 {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| f64::from((x - y) * (x - y)))
                .sum::<f64>()
                .sqrt()
        };
        let mut within = (0.0, 0usize);
        let mut across = (0.0, 0usize);
        for i in 0..styled.len() {
            for j in (i + 1)..styled.len() {
                let di = district(styled[i].fov.camera.lat, styled[i].fov.camera.lon);
                let dj = district(styled[j].fov.camera.lat, styled[j].fov.camera.lon);
                let d = dist(rgb[i], rgb[j]);
                if di == dj {
                    within = (within.0 + d, within.1 + 1);
                } else {
                    across = (across.0 + d, across.1 + 1);
                }
            }
        }
        let within_mean = within.0 / within.1 as f64;
        let across_mean = across.0 / across.1 as f64;
        assert!(
            within_mean < across_mean * 0.95,
            "no palette coherence: within {within_mean:.1} vs across {across_mean:.1}"
        );
    }
}
