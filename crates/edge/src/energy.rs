//! Energy accounting for on-device inference.
//!
//! The paper lists *battery capacity* among the edge capabilities the
//! dispatcher must respect (Section VI). This module models per-inference
//! energy as active power × compute time and converts a device's battery
//! budget into an inference budget, which [`crate::dispatch`] can use as
//! an additional constraint.

use crate::device::DeviceProfile;
use crate::latency::nominal_latency_ms;
use crate::model::ModelSpec;

/// Power characteristics of a device class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerProfile {
    /// Power drawn while running inference, watts.
    pub active_w: f64,
    /// Battery capacity in watt-hours; `None` for mains-powered devices.
    pub battery_wh: Option<f64>,
}

impl PowerProfile {
    /// Canonical power profile for a device (mains desktop, battery
    /// phone, mains-or-powerbank RPi).
    pub fn for_device(device: &DeviceProfile) -> Self {
        match device.class {
            crate::device::DeviceClass::Desktop => Self {
                active_w: 120.0,
                battery_wh: None,
            },
            crate::device::DeviceClass::Smartphone => {
                // ~4000 mAh at 3.85 V ≈ 15.4 Wh.
                Self {
                    active_w: 4.5,
                    battery_wh: Some(15.4),
                }
            }
            crate::device::DeviceClass::RaspberryPi => {
                // Often deployed on a 20 Wh power bank in the field.
                Self {
                    active_w: 5.5,
                    battery_wh: Some(20.0),
                }
            }
        }
    }
}

/// Energy of one inference in joules.
pub fn energy_per_inference_j(
    model: &ModelSpec,
    device: &DeviceProfile,
    power: &PowerProfile,
) -> f64 {
    let seconds = nominal_latency_ms(model, device) / 1000.0;
    power.active_w * seconds
}

/// How many inferences one battery charge sustains; `None` when the
/// device is mains-powered (unbounded).
pub fn inferences_per_charge(
    model: &ModelSpec,
    device: &DeviceProfile,
    power: &PowerProfile,
) -> Option<u64> {
    let battery_j = power.battery_wh? * 3600.0;
    Some((battery_j / energy_per_inference_j(model, device, power)).floor() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceClass;
    use crate::model::zoo_model;

    #[test]
    fn energy_scales_with_model_size() {
        let phone = DeviceClass::Smartphone.profile();
        let power = PowerProfile::for_device(&phone);
        let small = energy_per_inference_j(&zoo_model("MobileNetV2").unwrap(), &phone, &power);
        let big = energy_per_inference_j(&zoo_model("InceptionV3").unwrap(), &phone, &power);
        assert!(
            big > small * 5.0,
            "Inception ({big} J) vs MobileNetV2 ({small} J)"
        );
        assert!(small > 0.0);
    }

    #[test]
    fn desktop_is_unbounded_phone_is_not() {
        let desktop = DeviceClass::Desktop.profile();
        let phone = DeviceClass::Smartphone.profile();
        let model = zoo_model("MobileNetV1").unwrap();
        assert_eq!(
            inferences_per_charge(&model, &desktop, &PowerProfile::for_device(&desktop)),
            None
        );
        let n = inferences_per_charge(&model, &phone, &PowerProfile::for_device(&phone))
            .expect("battery-powered");
        // 15.4 Wh / (4.5 W × ~0.1 s) ≈ hundreds of thousands — sanity band.
        assert!(n > 10_000, "{n}");
        assert!(n < 10_000_000, "{n}");
    }

    #[test]
    fn smaller_model_gives_more_inferences_per_charge() {
        let phone = DeviceClass::Smartphone.profile();
        let power = PowerProfile::for_device(&phone);
        let small =
            inferences_per_charge(&zoo_model("MobileNetV2").unwrap(), &phone, &power).unwrap();
        let big =
            inferences_per_charge(&zoo_model("InceptionV3").unwrap(), &phone, &power).unwrap();
        assert!(small > big * 5);
    }
}
