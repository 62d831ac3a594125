//! Edge-device capability profiles.

/// The three device tiers of the paper's Fig. 8 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// A common desktop machine.
    Desktop,
    /// A modern smartphone.
    Smartphone,
    /// A Raspberry Pi 3 B+.
    RaspberryPi,
}

impl DeviceClass {
    /// All classes, fastest first.
    pub const ALL: [DeviceClass; 3] = [
        DeviceClass::Desktop,
        DeviceClass::Smartphone,
        DeviceClass::RaspberryPi,
    ];

    /// Display name matching the paper's figure.
    pub fn label(self) -> &'static str {
        match self {
            DeviceClass::Desktop => "Desktop",
            DeviceClass::Smartphone => "Smartphone",
            DeviceClass::RaspberryPi => "Raspberry PI",
        }
    }

    /// The canonical profile for this class.
    pub fn profile(self) -> DeviceProfile {
        match self {
            // Effective CNN throughputs (not peak): calibrated so the
            // simulated latencies land in the regimes the paper reports —
            // desktop in tens of ms for mobile nets, the RPi in seconds,
            // i.e. ~1.5 orders of magnitude apart.
            DeviceClass::Desktop => DeviceProfile {
                name: "Desktop",
                class: DeviceClass::Desktop,
                effective_gflops: 50.0,
                memory_mb: 16_384,
                bandwidth_mbps: 500.0,
                per_inference_overhead_ms: 2.0,
                battery_limited: false,
            },
            DeviceClass::Smartphone => DeviceProfile {
                name: "Smartphone",
                class: DeviceClass::Smartphone,
                effective_gflops: 6.0,
                memory_mb: 4_096,
                bandwidth_mbps: 40.0,
                per_inference_overhead_ms: 6.0,
                battery_limited: true,
            },
            DeviceClass::RaspberryPi => DeviceProfile {
                name: "Raspberry PI 3 B+",
                class: DeviceClass::RaspberryPi,
                effective_gflops: 0.9,
                memory_mb: 1_024,
                bandwidth_mbps: 20.0,
                per_inference_overhead_ms: 15.0,
                battery_limited: false,
            },
        }
    }
}

/// Concrete capabilities of one edge device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Tier.
    pub class: DeviceClass,
    /// Sustained CNN throughput, GFLOP/s.
    pub effective_gflops: f64,
    /// RAM available to the model, MB.
    pub memory_mb: u64,
    /// Uplink bandwidth, Mbit/s.
    pub bandwidth_mbps: f64,
    /// Fixed per-inference overhead (image decode, memory traffic), ms.
    pub per_inference_overhead_ms: f64,
    /// Whether energy budget constrains sustained workloads.
    pub battery_limited: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_ordered_by_throughput() {
        let d = DeviceClass::Desktop.profile();
        let s = DeviceClass::Smartphone.profile();
        let r = DeviceClass::RaspberryPi.profile();
        assert!(d.effective_gflops > s.effective_gflops);
        assert!(s.effective_gflops > r.effective_gflops);
        // ~1.5+ orders of magnitude between desktop and RPi.
        assert!(d.effective_gflops / r.effective_gflops >= 30.0);
    }

    #[test]
    fn labels_match_paper_figure() {
        assert_eq!(DeviceClass::RaspberryPi.label(), "Raspberry PI");
        assert_eq!(DeviceClass::ALL.len(), 3);
    }
}
