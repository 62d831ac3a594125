//! The model zoo: analysis models at different complexities.
//!
//! The paper's edge experiment transfers street-cleanliness models built
//! by transfer learning on three pretrained networks. The specs below
//! carry the published compute/size figures of those architectures (at
//! 224×224 / 299×299 inputs), which drive the latency simulation and the
//! dispatcher's accuracy-vs-cost trade-off.

/// A deployable model variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSpec {
    /// Architecture name.
    pub name: &'static str,
    /// Multiply-accumulates per inference, in MFLOPs.
    pub mflops: f64,
    /// Parameter count in millions (drives download size and memory).
    pub params_millions: f64,
    /// Square input resolution in pixels.
    pub input_px: u32,
    /// Relative task accuracy proxy in `[0, 1]` (transfer-learning
    /// fine-tuned; ordering follows the architectures' ImageNet results).
    pub accuracy: f64,
}

impl ModelSpec {
    /// Approximate serialized size in bytes (float32 weights).
    pub fn download_bytes(&self) -> u64 {
        (self.params_millions * 1e6 * 4.0) as u64
    }

    /// Approximate runtime memory footprint in MB (weights + activations
    /// rule of thumb: 2x weights).
    pub fn memory_mb(&self) -> u64 {
        ((self.params_millions * 4.0 * 2.0) as u64).max(1)
    }
}

/// The paper's three transfer-learning bases, smallest to largest.
pub const MODEL_ZOO: [ModelSpec; 3] = [
    ModelSpec {
        name: "MobileNetV2",
        mflops: 300.0,
        params_millions: 3.4,
        input_px: 224,
        accuracy: 0.72,
    },
    ModelSpec {
        name: "MobileNetV1",
        mflops: 569.0,
        params_millions: 4.2,
        input_px: 224,
        accuracy: 0.706,
    },
    ModelSpec {
        name: "InceptionV3",
        mflops: 5_700.0,
        params_millions: 23.8,
        input_px: 299,
        accuracy: 0.779,
    },
];

/// Looks a zoo model up by name (the edge crate's tests name models).
#[cfg(test)]
pub(crate) fn zoo_model(name: &str) -> Option<ModelSpec> {
    MODEL_ZOO.iter().copied().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_has_papers_three_models() {
        for name in ["MobileNetV1", "MobileNetV2", "InceptionV3"] {
            assert!(zoo_model(name).is_some(), "{name} missing");
        }
        assert!(zoo_model("ResNet50").is_none());
    }

    #[test]
    fn inception_is_biggest_and_most_accurate() {
        let inception = zoo_model("InceptionV3").unwrap();
        for m in MODEL_ZOO {
            assert!(inception.mflops >= m.mflops);
            assert!(inception.accuracy >= m.accuracy);
            assert!(inception.download_bytes() >= m.download_bytes());
        }
    }

    #[test]
    fn sizes_are_physical() {
        let v2 = zoo_model("MobileNetV2").unwrap();
        // 3.4M float32 params ≈ 13.6 MB download.
        assert_eq!(v2.download_bytes(), 13_600_000);
        assert!(v2.memory_mb() >= 27);
    }
}
