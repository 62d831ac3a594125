//! Figure 8: average inference time per (model, device) pair.
//!
//! The paper transfers street-cleanliness models built on MobileNetV1,
//! MobileNetV2, and InceptionV3 to a desktop, a Raspberry Pi 3 B+, and a
//! smartphone, and reports mean inference latency on a log10 scale. This
//! experiment replays that grid on the analytical device simulator.

use tvdp_edge::{simulate_inference, DeviceClass, MODEL_ZOO};

/// Configuration for the Fig. 8 replay.
#[derive(Debug, Clone)]
pub struct Fig8Config {
    /// Inferences simulated per (model, device) cell (paper averages over
    /// its test set).
    pub runs: usize,
    /// Seed for latency jitter.
    pub seed: u64,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Self {
            runs: 200,
            seed: 0xF18,
        }
    }
}

/// One cell of the latency grid.
#[derive(Debug, Clone)]
pub struct Fig8Cell {
    /// Model name.
    pub model: String,
    /// Device label.
    pub device: String,
    /// Mean latency, ms.
    pub mean_ms: f64,
    /// `log10(mean_ms)` — the paper's axis.
    pub log10_ms: f64,
}

/// The full latency grid.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// All (model, device) cells.
    pub cells: Vec<Fig8Cell>,
}

impl Fig8Result {
    /// Mean latency for one (model, device) pair.
    pub fn mean_ms(&self, model: &str, device: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.model == model && c.device == device)
            .map(|c| c.mean_ms)
    }

    /// Orders of magnitude between the RPi and the desktop, averaged over
    /// models (the paper reports ≈1.5).
    pub fn rpi_desktop_orders(&self) -> f64 {
        let mut acc = 0.0;
        let mut n = 0;
        for m in MODEL_ZOO {
            let rpi = self.mean_ms(m.name, DeviceClass::RaspberryPi.label());
            let desk = self.mean_ms(m.name, DeviceClass::Desktop.label());
            if let (Some(r), Some(d)) = (rpi, desk) {
                acc += (r / d).log10();
                n += 1;
            }
        }
        acc / n.max(1) as f64
    }
}

/// Runs the Fig. 8 grid.
pub fn run_fig8(config: &Fig8Config) -> Fig8Result {
    let mut cells = Vec::new();
    for model in MODEL_ZOO {
        for class in DeviceClass::ALL {
            let stats = simulate_inference(&model, &class.profile(), config.runs, config.seed);
            cells.push(Fig8Cell {
                model: model.name.to_string(),
                device: class.label().to_string(),
                mean_ms: stats.mean_ms,
                log10_ms: stats.log10_mean(),
            });
        }
    }
    Fig8Result { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_complete_and_shaped_like_the_paper() {
        let result = run_fig8(&Fig8Config { runs: 50, seed: 1 });
        assert_eq!(result.cells.len(), 9, "3 models x 3 devices");
        // Desktop in tens of ms for the mobile nets.
        let desk_mnv1 = result.mean_ms("MobileNetV1", "Desktop").unwrap();
        assert!((5.0..100.0).contains(&desk_mnv1), "{desk_mnv1}");
        // RPi in the thousands for Inception.
        let rpi_inc = result.mean_ms("InceptionV3", "Raspberry PI").unwrap();
        assert!(rpi_inc > 1_000.0, "{rpi_inc}");
        // ~1.5 orders between RPi and desktop.
        let orders = result.rpi_desktop_orders();
        assert!((1.0..2.3).contains(&orders), "{orders}");
        // Smartphone strictly between.
        for m in MODEL_ZOO {
            let d = result.mean_ms(m.name, "Desktop").unwrap();
            let p = result.mean_ms(m.name, "Smartphone").unwrap();
            let r = result.mean_ms(m.name, "Raspberry PI").unwrap();
            assert!(d < p && p < r, "{}: {d} {p} {r}", m.name);
        }
    }
}
