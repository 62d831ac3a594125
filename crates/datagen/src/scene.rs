//! Procedural street-scene rendering.
//!
//! Scenes are composed of a building wall, a sidewalk band, and a street
//! band, with class-specific foreground objects. Difficulty is calibrated
//! to reproduce the per-class structure of the paper's Fig. 7: vegetation
//! has a strong color signature (easiest), while encampment tarps vary in
//! color so their signal is mostly structural (hardest).

use tvdp_kernel::rng::Rng;

use tvdp_vision::Image;

use crate::classes::CleanlinessClass;

/// Per-image rendering conditions.
#[derive(Debug, Clone, Copy)]
pub struct SceneParams {
    /// Square image edge length in pixels.
    pub size: usize,
    /// Global brightness multiplier (time of day).
    pub illumination: f32,
    /// Per-channel color cast multipliers (camera white balance).
    pub color_cast: [f32; 3],
    /// Gaussian pixel-noise sigma in 8-bit units.
    pub noise_sigma: f32,
}

impl SceneParams {
    /// Samples realistic conditions.
    pub fn sample(size: usize, rng: &mut Rng) -> Self {
        Self {
            size,
            illumination: rng.gen_range(0.55..1.35),
            color_cast: [
                rng.gen_range(0.8..1.2),
                rng.gen_range(0.8..1.2),
                rng.gen_range(0.8..1.2),
            ],
            noise_sigma: rng.gen_range(3.0..9.0),
        }
    }
}

/// A float RGB canvas for compositing before quantization.
struct Canvas {
    size: usize,
    data: Vec<[f32; 3]>,
}

impl Canvas {
    fn new(size: usize) -> Self {
        Self {
            size,
            data: vec![[0.0; 3]; size * size],
        }
    }

    #[inline]
    fn set(&mut self, x: usize, y: usize, c: [f32; 3]) {
        if x < self.size && y < self.size {
            self.data[y * self.size + x] = c;
        }
    }

    #[inline]
    fn get(&self, x: usize, y: usize) -> [f32; 3] {
        self.data[y * self.size + x]
    }

    fn fill_rect(&mut self, x0: f32, y0: f32, x1: f32, y1: f32, c: [f32; 3]) {
        let s = self.size as f32;
        let (xa, xb) = ((x0 * s) as usize, ((x1 * s) as usize).min(self.size));
        let (ya, yb) = ((y0 * s) as usize, ((y1 * s) as usize).min(self.size));
        for y in ya..yb {
            for x in xa..xb {
                self.set(x, y, c);
            }
        }
    }

    fn fill_ellipse(&mut self, cx: f32, cy: f32, rx: f32, ry: f32, c: [f32; 3]) {
        let s = self.size as f32;
        let (cx, cy, rx, ry) = (cx * s, cy * s, rx * s, ry * s);
        let x0 = ((cx - rx).floor().max(0.0)) as usize;
        let x1 = (((cx + rx).ceil()) as usize).min(self.size);
        let y0 = ((cy - ry).floor().max(0.0)) as usize;
        let y1 = (((cy + ry).ceil()) as usize).min(self.size);
        for y in y0..y1 {
            for x in x0..x1 {
                let dx = (x as f32 - cx) / rx.max(1e-6);
                let dy = (y as f32 - cy) / ry.max(1e-6);
                if dx * dx + dy * dy <= 1.0 {
                    self.set(x, y, c);
                }
            }
        }
    }

    /// Multiplies the existing colors in a rectangle (shadow casting).
    fn shade_rect(&mut self, x0: f32, y0: f32, x1: f32, y1: f32, factor: f32) {
        let s = self.size as f32;
        let (xa, xb) = ((x0 * s) as usize, ((x1 * s) as usize).min(self.size));
        let (ya, yb) = ((y0 * s) as usize, ((y1 * s) as usize).min(self.size));
        for y in ya..yb {
            for x in xa..xb {
                let c = self.get(x, y);
                self.set(x, y, shade(c, factor));
            }
        }
    }

    /// Filled triangle with apex at the top — a tent silhouette.
    fn fill_tent(&mut self, cx: f32, base_y: f32, half_w: f32, height: f32, c: [f32; 3]) {
        let s = self.size as f32;
        let (cx, base_y, half_w, height) = (cx * s, base_y * s, half_w * s, height * s);
        let y0 = ((base_y - height).max(0.0)) as usize;
        let y1 = (base_y as usize).min(self.size);
        for y in y0..y1 {
            // Width grows linearly from apex to base.
            let frac = (y as f32 - (base_y - height)) / height.max(1e-6);
            let w = half_w * frac;
            let xa = ((cx - w).max(0.0)) as usize;
            let xb = ((cx + w) as usize).min(self.size);
            for x in xa..xb {
                self.set(x, y, c);
            }
        }
    }
}

fn shade(base: [f32; 3], amount: f32) -> [f32; 3] {
    [base[0] * amount, base[1] * amount, base[2] * amount]
}

/// Renders one labelled street scene with the default (random) wall tone.
pub fn render(
    class: CleanlinessClass,
    graffiti: bool,
    params: &SceneParams,
    rng: &mut Rng,
) -> Image {
    render_styled(class, graffiti, params, rng, None)
}

/// Renders one labelled street scene; `wall_base` overrides the building
/// facade color (used for persistent district palettes).
pub fn render_styled(
    class: CleanlinessClass,
    graffiti: bool,
    params: &SceneParams,
    rng: &mut Rng,
    wall_base: Option<[f32; 3]>,
) -> Image {
    let size = params.size;
    assert!(size >= 16, "scene too small to carry structure");
    let mut canvas = Canvas::new(size);

    // --- Background bands -------------------------------------------------
    // Building wall hue varies per image so color alone cannot identify the
    // background.
    // The random tone is always drawn so the RNG stream is identical
    // whether or not a district palette overrides it (keeps every other
    // aspect of a dataset comparable across modes).
    let random_tone: [f32; 3] = {
        let tone = rng.gen_range(0.0f32..1.0);
        [
            120.0 + 60.0 * tone + rng.gen_range(-10.0..10.0),
            105.0 + 45.0 * tone + rng.gen_range(-10.0..10.0),
            90.0 + 40.0 * tone + rng.gen_range(-10.0..10.0),
        ]
    };
    let wall_base = wall_base.unwrap_or(random_tone);
    let wall_h = rng.gen_range(0.38f32..0.5);
    let sidewalk_h = rng.gen_range(0.2f32..0.3);
    canvas.fill_rect(0.0, 0.0, 1.0, wall_h, wall_base);
    // Brick-like horizontal seams on the wall.
    let seam = shade(wall_base, 0.8);
    let mut y = 0.06f32;
    while y < wall_h {
        canvas.fill_rect(0.0, y, 1.0, y + 0.012, seam);
        // tvdp-lint: allow(float_reduction, reason = "in-order loop accumulation over a fixed traversal; single-threaded, bit-stable across runs and thread counts")
        y += rng.gen_range(0.07..0.1);
    }
    let sidewalk = [168.0 + rng.gen_range(-12.0f32..12.0); 3];
    canvas.fill_rect(0.0, wall_h, 1.0, wall_h + sidewalk_h, sidewalk);
    let street = [92.0 + rng.gen_range(-10.0f32..10.0); 3];
    canvas.fill_rect(0.0, wall_h + sidewalk_h, 1.0, 1.0, street);
    // Curb line.
    canvas.fill_rect(
        0.0,
        wall_h + sidewalk_h - 0.015,
        1.0,
        wall_h + sidewalk_h,
        shade(sidewalk, 0.6),
    );

    // --- Class-independent street clutter ----------------------------------
    // Parked cars, posters, and cast shadows appear in every class. They
    // inject strong color variance uncorrelated with the label, so color
    // histograms cannot carry the classification alone (as in real street
    // imagery); structural features must do the work.
    if rng.gen_bool(0.55) {
        // Parked car: saturated rectangle low in the street band.
        let w = rng.gen_range(0.2f32..0.35);
        let x = rng.gen_range(0.0f32..(1.0 - w));
        let car_top = wall_h + sidewalk_h + rng.gen_range(0.02..0.08);
        let car: [f32; 3] = [
            rng.gen_range(20.0f32..235.0),
            rng.gen_range(20.0f32..235.0),
            rng.gen_range(20.0f32..235.0),
        ];
        canvas.fill_rect(x, car_top, x + w, (car_top + 0.12).min(1.0), car);
        canvas.fill_rect(
            x + w * 0.1,
            car_top - 0.05,
            x + w * 0.9,
            car_top,
            shade(car, 0.8),
        );
    }
    if rng.gen_bool(0.45) {
        // Poster / storefront sign on the wall.
        let w = rng.gen_range(0.1f32..0.22);
        let x = rng.gen_range(0.0f32..(1.0 - w));
        let y0 = rng.gen_range(0.02f32..(wall_h - 0.15).max(0.03));
        let sign: [f32; 3] = [
            rng.gen_range(40.0f32..250.0),
            rng.gen_range(40.0f32..250.0),
            rng.gen_range(40.0f32..250.0),
        ];
        canvas.fill_rect(x, y0, x + w, y0 + rng.gen_range(0.08..0.14), sign);
    }
    if rng.gen_bool(0.4) {
        // Building shadow across part of the scene.
        let w = rng.gen_range(0.25f32..0.6);
        let x = rng.gen_range(0.0f32..(1.0 - w));
        canvas.shade_rect(x, 0.0, x + w, 1.0, rng.gen_range(0.55..0.8));
    }

    // --- Graffiti (co-label for the translational experiment) -------------
    if graffiti {
        let strokes = rng.gen_range(2..5);
        for _ in 0..strokes {
            let color = [
                rng.gen_range(120.0f32..255.0),
                rng.gen_range(30.0f32..200.0),
                rng.gen_range(120.0f32..255.0),
            ];
            let mut x = rng.gen_range(0.05f32..0.85);
            let mut yy = rng.gen_range(0.05f32..wall_h - 0.08);
            for _ in 0..rng.gen_range(6..14) {
                canvas.fill_rect(x, yy, x + 0.04, yy + 0.025, color);
                x = (x + rng.gen_range(-0.05f32..0.07)).clamp(0.0, 0.92);
                yy = (yy + rng.gen_range(-0.03f32..0.03)).clamp(0.0, wall_h - 0.03);
            }
        }
    }

    // --- Class foreground --------------------------------------------------
    let ground_top = wall_h + 0.02;
    let ground_bottom = 0.95;
    match class {
        CleanlinessClass::Clean => {}
        CleanlinessClass::BulkyItem => {
            // One large box-like object (furniture) with a darker side face.
            let w = rng.gen_range(0.28f32..0.45);
            let h = rng.gen_range(0.2f32..0.32);
            let x = rng.gen_range(0.05f32..(0.95 - w));
            let yb = rng.gen_range((ground_top + h)..ground_bottom);
            let body: [f32; 3] = [
                rng.gen_range(90.0f32..150.0),
                rng.gen_range(60.0f32..105.0),
                rng.gen_range(40.0f32..80.0),
            ];
            canvas.fill_rect(x, yb - h, x + w, yb, body);
            canvas.fill_rect(x, yb - h, x + w * 0.25, yb, shade(body, 0.65));
            // Cushion seams.
            canvas.fill_rect(x, yb - h * 0.5, x + w, yb - h * 0.45, shade(body, 0.8));
        }
        CleanlinessClass::IllegalDumping => {
            // A scatter of small dark bags and debris.
            let n = rng.gen_range(5..10);
            let cx = rng.gen_range(0.2f32..0.8);
            for _ in 0..n {
                let ex = (cx + rng.gen_range(-0.22f32..0.22)).clamp(0.03, 0.97);
                let ey = rng.gen_range(ground_top + 0.05..ground_bottom);
                let r = rng.gen_range(0.03f32..0.07);
                let dark = rng.gen_range(25.0f32..70.0);
                let bag = [
                    dark + rng.gen_range(0.0..25.0),
                    dark + rng.gen_range(0.0..20.0),
                    dark + rng.gen_range(0.0..30.0),
                ];
                canvas.fill_ellipse(ex, ey, r, r * rng.gen_range(0.6..1.0), bag);
            }
        }
        CleanlinessClass::Encampment => {
            // 1-3 tents; tarp color varies (blue common, but gray/green
            // occur), so shape carries most of the signal.
            let n = rng.gen_range(1..4);
            for _ in 0..n {
                let cx = rng.gen_range(0.15f32..0.85);
                let base_y = rng.gen_range(ground_top + 0.18..ground_bottom);
                let half_w = rng.gen_range(0.12f32..0.2);
                let h = rng.gen_range(0.16f32..0.26);
                let tarp = match rng.gen_range(0..4) {
                    0 | 1 => [
                        rng.gen_range(30.0f32..80.0),
                        rng.gen_range(70.0f32..120.0),
                        rng.gen_range(150.0f32..220.0),
                    ],
                    2 => [150.0, 150.0, 155.0],
                    _ => [
                        rng.gen_range(60.0f32..90.0),
                        rng.gen_range(110.0f32..150.0),
                        rng.gen_range(60.0f32..90.0),
                    ],
                };
                canvas.fill_tent(cx, base_y, half_w, h, tarp);
                // Shaded right panel gives the tent its 3-D silhouette.
                canvas.fill_tent(
                    cx + half_w * 0.45,
                    base_y,
                    half_w * 0.55,
                    h * 0.96,
                    shade(tarp, 0.6),
                );
            }
        }
        CleanlinessClass::OvergrownVegetation => {
            // High-frequency green texture patches along the walkway.
            let patches = rng.gen_range(2..4);
            for _ in 0..patches {
                let px = rng.gen_range(0.0f32..0.7);
                let pw = rng.gen_range(0.25f32..0.45);
                let py = rng.gen_range(ground_top..(ground_bottom - 0.2));
                let ph = rng.gen_range(0.15f32..0.3);
                let s = size as f32;
                for yy in ((py * s) as usize)..(((py + ph) * s) as usize).min(size) {
                    for xx in ((px * s) as usize)..(((px + pw) * s) as usize).min(size) {
                        // Leafy speckle: green with strong per-pixel variance.
                        let g = rng.gen_range(90.0f32..200.0);
                        canvas.set(xx, yy, [g * 0.35, g, g * 0.3]);
                    }
                }
            }
        }
    }

    // --- Photometric conditions + sensor noise -----------------------------
    Image::from_fn(size, size, |x, y| {
        let c = canvas.get(x, y);
        let mut out = [0u8; 3];
        for ch in 0..3 {
            let u1: f32 = rng.gen_range(1e-7..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            let v = c[ch] * params.illumination * params.color_cast[ch] + z * params.noise_sigma;
            out[ch] = v.clamp(0.0, 255.0) as u8;
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render_one(class: CleanlinessClass, seed: u64) -> Image {
        let mut rng = Rng::seed_from_u64(seed);
        let params = SceneParams::sample(48, &mut rng);
        render(class, false, &params, &mut rng)
    }

    #[test]
    fn deterministic_under_seed() {
        let a = render_one(CleanlinessClass::Encampment, 7);
        let b = render_one(CleanlinessClass::Encampment, 7);
        assert_eq!(a, b);
        let c = render_one(CleanlinessClass::Encampment, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn vegetation_is_greener_than_clean() {
        // Average over several renders to beat the background variance.
        let mut veg_green = 0.0;
        let mut clean_green = 0.0;
        for seed in 0..10 {
            let v = render_one(CleanlinessClass::OvergrownVegetation, seed).mean_rgb();
            let c = render_one(CleanlinessClass::Clean, seed + 100).mean_rgb();
            veg_green += f64::from(v[1] - (v[0] + v[2]) / 2.0);
            clean_green += f64::from(c[1] - (c[0] + c[2]) / 2.0);
        }
        assert!(
            veg_green > clean_green + 20.0,
            "vegetation green excess {veg_green} vs clean {clean_green}"
        );
    }

    #[test]
    fn dumping_is_darker_than_clean() {
        let mut dump = 0.0;
        let mut clean = 0.0;
        for seed in 0..10 {
            let d = render_one(CleanlinessClass::IllegalDumping, seed).mean_rgb();
            let c = render_one(CleanlinessClass::Clean, seed).mean_rgb();
            dump += f64::from(d[0] + d[1] + d[2]);
            clean += f64::from(c[0] + c[1] + c[2]);
        }
        assert!(dump < clean, "dumping {dump} not darker than clean {clean}");
    }

    #[test]
    fn graffiti_changes_the_wall() {
        let mut rng1 = Rng::seed_from_u64(5);
        let mut rng2 = Rng::seed_from_u64(5);
        let params = SceneParams {
            size: 48,
            illumination: 1.0,
            color_cast: [1.0; 3],
            noise_sigma: 0.0,
        };
        let plain = render(CleanlinessClass::Clean, false, &params, &mut rng1);
        let tagged = render(CleanlinessClass::Clean, true, &params, &mut rng2);
        assert_ne!(plain, tagged);
    }

    #[test]
    fn all_classes_render_at_various_sizes() {
        for class in CleanlinessClass::ALL {
            for size in [16, 32, 64] {
                let mut rng = Rng::seed_from_u64(1);
                let params = SceneParams::sample(size, &mut rng);
                let img = render(class, true, &params, &mut rng);
                assert_eq!(img.width(), size);
                assert_eq!(img.height(), size);
            }
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_scene_rejected() {
        let mut rng = Rng::seed_from_u64(0);
        let params = SceneParams {
            size: 8,
            illumination: 1.0,
            color_cast: [1.0; 3],
            noise_sigma: 0.0,
        };
        let _ = render(CleanlinessClass::Clean, false, &params, &mut rng);
    }
}
