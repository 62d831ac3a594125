//! In-memory RGB images.

/// An 8-bit RGB raster image, row-major, interleaved channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

/// Bytes of a `width` x `height` RGB raster; `None` when it is empty or
/// its size overflows `usize`.
fn raw_len(width: usize, height: usize) -> Option<usize> {
    width.checked_mul(height)?.checked_mul(3).filter(|&n| n > 0)
}

impl Image {
    /// A black image of the given size.
    ///
    /// # Panics
    ///
    /// Panics on zero width or height.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "degenerate image {width}x{height}");
        Self {
            width,
            height,
            data: vec![0; width * height * 3],
        }
    }

    /// Builds an image by evaluating `f(x, y) -> [r, g, b]` per pixel.
    pub fn from_fn<F: FnMut(usize, usize) -> [u8; 3]>(
        width: usize,
        height: usize,
        mut f: F,
    ) -> Self {
        let mut img = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, f(x, y));
            }
        }
        img
    }

    /// Reconstructs an image from raw interleaved RGB bytes.
    ///
    /// # Panics
    ///
    /// Panics on zero width or height, or when `data.len() != width *
    /// height * 3`.
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0, "degenerate image {width}x{height}");
        assert_eq!(
            Some(data.len()),
            raw_len(width, height),
            "raw buffer size mismatch"
        );
        Self {
            width,
            height,
            data,
        }
    }

    /// [`Image::from_raw`] for untrusted shapes: `None` on zero width or
    /// height, or when `data` is not exactly `width * height * 3` bytes,
    /// an overflowing product included.
    pub fn try_from_raw(width: usize, height: usize, data: Vec<u8>) -> Option<Self> {
        (Some(data.len()) == raw_len(width, height)).then_some(Self {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw interleaved RGB bytes.
    pub fn raw(&self) -> &[u8] {
        &self.data
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y * self.width + x) * 3
    }

    /// Pixel at `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> [u8; 3] {
        let i = self.idx(x, y);
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Sets pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        let i = self.idx(x, y);
        self.data[i] = rgb[0];
        self.data[i + 1] = rgb[1];
        self.data[i + 2] = rgb[2];
    }

    /// Pixel with coordinates clamped to the image bounds.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> [u8; 3] {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.get(cx, cy)
    }

    /// Luminance (Rec. 601) in `[0, 1]` as a row-major buffer.
    pub fn to_gray(&self) -> Vec<f32> {
        self.data
            .chunks_exact(3)
            .map(|px| (0.299 * px[0] as f32 + 0.587 * px[1] as f32 + 0.114 * px[2] as f32) / 255.0)
            .collect()
    }

    /// Bilinear resize to `(new_w, new_h)`.
    pub fn resize(&self, new_w: usize, new_h: usize) -> Image {
        assert!(new_w > 0 && new_h > 0, "degenerate target size");
        let mut out = Image::new(new_w, new_h);
        let sx = self.width as f32 / new_w as f32;
        let sy = self.height as f32 / new_h as f32;
        for y in 0..new_h {
            for x in 0..new_w {
                let fx = (x as f32 + 0.5) * sx - 0.5;
                let fy = (y as f32 + 0.5) * sy - 0.5;
                let x0 = fx.floor() as isize;
                let y0 = fy.floor() as isize;
                let dx = fx - x0 as f32;
                let dy = fy - y0 as f32;
                let mut px = [0u8; 3];
                let p00 = self.get_clamped(x0, y0);
                let p10 = self.get_clamped(x0 + 1, y0);
                let p01 = self.get_clamped(x0, y0 + 1);
                let p11 = self.get_clamped(x0 + 1, y0 + 1);
                for (c, out) in px.iter_mut().enumerate() {
                    let v = p00[c] as f32 * (1.0 - dx) * (1.0 - dy)
                        + p10[c] as f32 * dx * (1.0 - dy)
                        + p01[c] as f32 * (1.0 - dx) * dy
                        + p11[c] as f32 * dx * dy;
                    *out = v.round().clamp(0.0, 255.0) as u8;
                }
                out.set(x, y, px);
            }
        }
        out
    }

    /// Crops the rectangle `[x, x+w) x [y, y+h)`.
    ///
    /// # Panics
    ///
    /// Panics when the rectangle exceeds the image bounds.
    pub fn crop(&self, x: usize, y: usize, w: usize, h: usize) -> Image {
        assert!(w > 0 && h > 0, "degenerate crop");
        assert!(
            x + w <= self.width && y + h <= self.height,
            "crop out of bounds"
        );
        Image::from_fn(w, h, |cx, cy| self.get(x + cx, y + cy))
    }

    /// Mean per-channel value, useful for exposure statistics.
    // tvdp-lint: allow(dead_api, reason = "(a) test support: tvdp-datagen's scene and corpus tests compare class colours through it")
    pub fn mean_rgb(&self) -> [f32; 3] {
        let mut acc = [0.0f64; 3];
        for px in self.data.chunks_exact(3) {
            for c in 0..3 {
                acc[c] += px[c] as f64;
            }
        }
        let n = (self.width * self.height) as f64;
        [
            (acc[0] / n) as f32,
            (acc[1] / n) as f32,
            (acc[2] / n) as f32,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut img = Image::new(4, 3);
        img.set(2, 1, [10, 20, 30]);
        assert_eq!(img.get(2, 1), [10, 20, 30]);
        assert_eq!(img.get(0, 0), [0, 0, 0]);
    }

    #[test]
    fn from_fn_layout() {
        let img = Image::from_fn(3, 2, |x, y| [x as u8, y as u8, 0]);
        assert_eq!(img.get(2, 1), [2, 1, 0]);
        assert_eq!(img.width(), 3);
        assert_eq!(img.height(), 2);
    }

    #[test]
    fn raw_roundtrip() {
        let img = Image::from_fn(2, 2, |x, y| [(x * 50) as u8, (y * 50) as u8, 7]);
        let raw = img.raw().to_vec();
        let back = Image::from_raw(2, 2, raw);
        assert_eq!(back, img);
    }

    #[test]
    fn gray_range_and_extremes() {
        let mut img = Image::new(2, 1);
        img.set(0, 0, [255, 255, 255]);
        let g = img.to_gray();
        assert!((g[0] - 1.0).abs() < 1e-5);
        assert_eq!(g[1], 0.0);
    }

    #[test]
    fn resize_preserves_constant_image() {
        let img = Image::from_fn(8, 8, |_, _| [100, 150, 200]);
        let r = img.resize(4, 4);
        assert_eq!(r.width(), 4);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(r.get(x, y), [100, 150, 200]);
            }
        }
        // Upscale too.
        let up = img.resize(16, 16);
        assert_eq!(up.get(8, 8), [100, 150, 200]);
    }

    #[test]
    fn resize_interpolates_gradient() {
        let img = Image::from_fn(10, 1, |x, _| [(x * 25) as u8, 0, 0]);
        let r = img.resize(5, 1);
        // Red channel should remain monotone.
        let reds: Vec<u8> = (0..5).map(|x| r.get(x, 0)[0]).collect();
        assert!(reds.windows(2).all(|w| w[0] <= w[1]), "{reds:?}");
    }

    #[test]
    fn crop_extracts_region() {
        let img = Image::from_fn(6, 6, |x, y| [(x + 10 * y) as u8, 0, 0]);
        let c = img.crop(2, 3, 2, 2);
        assert_eq!(c.get(0, 0)[0], (2 + 30) as u8);
        assert_eq!(c.get(1, 1)[0], (3 + 40) as u8);
    }

    #[test]
    fn try_from_raw_refuses_what_from_raw_would_panic_on() {
        assert!(Image::try_from_raw(2, 1, vec![7; 6]).is_some());
        assert!(Image::try_from_raw(0, 0, Vec::new()).is_none());
        assert!(Image::try_from_raw(0, 5, Vec::new()).is_none());
        assert!(Image::try_from_raw(2, 1, vec![7; 5]).is_none());
        // The product wraps to 2 in release; checked, it is a refusal.
        assert!(Image::try_from_raw(6_148_914_691_236_517_206, 1, vec![7; 2]).is_none());
        assert!(Image::try_from_raw(usize::MAX, usize::MAX, vec![7; 3]).is_none());
    }

    #[test]
    #[should_panic(expected = "crop out of bounds")]
    fn crop_rejects_overflow() {
        let img = Image::new(4, 4);
        let _ = img.crop(2, 2, 4, 1);
    }

    #[test]
    fn mean_rgb_of_known_image() {
        let img = Image::from_fn(2, 1, |x, _| if x == 0 { [0, 0, 0] } else { [200, 100, 50] });
        let m = img.mean_rgb();
        assert_eq!(m, [100.0, 50.0, 25.0]);
    }
}
