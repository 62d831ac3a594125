//! Analytical inference-latency simulation.
//!
//! `latency = overhead + FLOPs / effective_throughput`, with seeded
//! multiplicative jitter modelling scheduler/thermal variance. The paper
//! measures wall-clock inference on physical devices; this cost model
//! reproduces the *relative* structure its Fig. 8 reports (which device
//! tier is how many orders of magnitude slower).

use tvdp_kernel::rng::Rng;

use crate::device::DeviceProfile;
use crate::model::ModelSpec;

/// Summary statistics over simulated runs.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Minimum observed.
    pub min_ms: f64,
    /// Maximum observed.
    pub max_ms: f64,
    /// Number of simulated inferences.
    pub runs: usize,
}

impl LatencyStats {
    /// `log10(mean_ms)` — the paper plots Fig. 8 on a log scale.
    pub fn log10_mean(&self) -> f64 {
        self.mean_ms.log10()
    }
}

/// Deterministic single-inference latency (no jitter), in ms.
pub fn nominal_latency_ms(model: &ModelSpec, device: &DeviceProfile) -> f64 {
    device.per_inference_overhead_ms + model.mflops / device.effective_gflops
}

/// Simulates `runs` inferences of `model` on `device` with ±jitter.
pub fn simulate_inference(
    model: &ModelSpec,
    device: &DeviceProfile,
    runs: usize,
    seed: u64,
) -> LatencyStats {
    assert!(runs >= 1, "need at least one run");
    let nominal = nominal_latency_ms(model, device);
    let mut rng =
        Rng::seed_from_u64(seed ^ model.mflops.to_bits() ^ device.effective_gflops.to_bits());
    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for _ in 0..runs {
        // Multiplicative jitter: mostly small, occasional 1.5x stalls
        // (GC, thermal throttling, background load).
        let base: f64 = rng.gen_range(0.92..1.12);
        let stall = if rng.gen_bool(0.05) {
            rng.gen_range(1.2..1.6)
        } else {
            1.0
        };
        let t = nominal * base * stall;
        // tvdp-lint: allow(float_reduction, reason = "in-order loop accumulation over a fixed traversal; single-threaded, bit-stable across runs and thread counts")
        sum += t;
        min = min.min(t);
        max = max.max(t);
    }
    LatencyStats {
        mean_ms: sum / runs as f64,
        min_ms: min,
        max_ms: max,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceClass;
    use crate::model::zoo_model;

    #[test]
    fn nominal_matches_cost_model() {
        let m = zoo_model("MobileNetV1").unwrap();
        let d = DeviceClass::Desktop.profile();
        let expected = 2.0 + 569.0 / 50.0;
        assert!((nominal_latency_ms(&m, &d) - expected).abs() < 1e-9);
    }

    #[test]
    fn desktop_tens_of_ms_rpi_thousands() {
        let m = zoo_model("MobileNetV1").unwrap();
        let desktop = simulate_inference(&m, &DeviceClass::Desktop.profile(), 100, 1);
        let rpi = simulate_inference(&m, &DeviceClass::RaspberryPi.profile(), 100, 1);
        assert!(
            (5.0..100.0).contains(&desktop.mean_ms),
            "desktop {} ms",
            desktop.mean_ms
        );
        assert!(rpi.mean_ms > 400.0, "rpi {} ms", rpi.mean_ms);
        // Paper: RPi ~1.5 orders of magnitude slower than desktop class.
        let orders = rpi.log10_mean() - desktop.log10_mean();
        assert!((1.0..2.3).contains(&orders), "separation {orders} orders");
    }

    #[test]
    fn bigger_model_slower_on_every_device() {
        let small = zoo_model("MobileNetV2").unwrap();
        let big = zoo_model("InceptionV3").unwrap();
        for class in DeviceClass::ALL {
            let p = class.profile();
            assert!(nominal_latency_ms(&big, &p) > nominal_latency_ms(&small, &p));
        }
    }

    #[test]
    fn stats_consistent_and_deterministic() {
        let m = zoo_model("InceptionV3").unwrap();
        let d = DeviceClass::Smartphone.profile();
        let a = simulate_inference(&m, &d, 200, 9);
        let b = simulate_inference(&m, &d, 200, 9);
        assert_eq!(a.mean_ms, b.mean_ms);
        assert!(a.min_ms <= a.mean_ms && a.mean_ms <= a.max_ms);
        assert_eq!(a.runs, 200);
        // Jitter bounded: min within 10% below nominal.
        let nominal = nominal_latency_ms(&m, &d);
        assert!(a.min_ms >= nominal * 0.9);
        assert!(a.max_ms <= nominal * 1.12 * 1.6 + 1e-9);
    }
}
