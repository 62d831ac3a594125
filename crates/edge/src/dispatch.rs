//! Capability-aware model dispatch.
//!
//! "A high-end device can run a more complex version of the model which
//! potentially can provide more accurate results; a low-end device can
//! run a simpler version much faster but with less accurate results"
//! (paper Section VI). The dispatcher picks, per device, the most
//! accurate zoo model that fits the device's memory and meets the
//! requested latency budget.

use crate::device::DeviceProfile;
use crate::energy::{inferences_per_charge, PowerProfile};
use crate::latency::nominal_latency_ms;
use crate::model::ModelSpec;

/// Why a dispatcher could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchError {
    /// The model zoo was empty; there is nothing to dispatch.
    EmptyZoo,
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::EmptyZoo => write!(f, "empty model zoo"),
        }
    }
}

impl std::error::Error for DispatchError {}

/// Requirements a dispatched model must satisfy.
#[derive(Debug, Clone, Copy)]
pub struct DispatchConstraints {
    /// Upper bound on per-inference latency, ms.
    pub max_latency_ms: f64,
    /// Lower bound on model accuracy (proxy), if any.
    pub min_accuracy: Option<f64>,
    /// For battery-powered devices: the model must sustain at least this
    /// many inferences per charge. Ignored on mains power.
    pub min_inferences_per_charge: Option<u64>,
}

impl Default for DispatchConstraints {
    fn default() -> Self {
        Self {
            max_latency_ms: 1_000.0,
            min_accuracy: None,
            min_inferences_per_charge: None,
        }
    }
}

/// Observed uplink conditions a degraded-mode dispatch accounts for,
/// typically fed from the transport's send reports and the device's
/// circuit breaker.
#[derive(Debug, Clone, Copy)]
pub struct LinkConditions {
    /// Measured goodput toward the device, Mbit/s; `None` means assume
    /// the device profile's nominal bandwidth.
    pub effective_bandwidth_mbps: Option<f64>,
    /// How long the round can wait for the model weights, seconds.
    pub download_budget_s: f64,
    /// Whether the device's circuit breaker is currently open.
    pub breaker_open: bool,
}

impl LinkConditions {
    /// Below this measured bandwidth the link is considered collapsed
    /// and no model download is attempted at all.
    pub const MIN_USABLE_MBPS: f64 = 0.1;

    /// Nominal conditions: profile bandwidth, generous budget, breaker
    /// closed.
    pub fn nominal() -> Self {
        LinkConditions {
            effective_bandwidth_mbps: None,
            download_budget_s: f64::INFINITY,
            breaker_open: false,
        }
    }
}

/// Why a dispatch decision fell short of the preferred model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// No zoo model satisfies the device + constraint combination.
    NoQualifyingModel,
    /// The device's circuit breaker is open; don't push bytes at it.
    BreakerOpen,
    /// Measured bandwidth is below the usable floor.
    BandwidthCollapsed,
    /// The preferred model's weights cannot download within the budget.
    DownloadBudgetExceeded,
}

/// Outcome of a link-aware dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DispatchDecision {
    /// Deploy the preferred model; the link can carry it.
    Deploy(ModelSpec),
    /// Deploy a smaller model than capability alone would pick.
    Degraded {
        /// The model actually deployed.
        chosen: ModelSpec,
        /// What capability-only dispatch would have picked.
        preferred: ModelSpec,
        /// Why the fallback happened.
        reason: DegradeReason,
    },
    /// Keep inference on the server; ship nothing to the device.
    ServerSide {
        /// Why no on-device model is viable right now.
        reason: DegradeReason,
    },
}

/// Chooses models from a zoo for heterogeneous devices.
///
/// ```
/// use tvdp_edge::{
///     DeviceClass, DispatchConstraints, DispatchDecision, LinkConditions, ModelDispatcher,
///     MODEL_ZOO,
/// };
///
/// let dispatcher = ModelDispatcher::new(MODEL_ZOO.to_vec()).unwrap();
/// let constraints = DispatchConstraints { max_latency_ms: 700.0, ..Default::default() };
/// let link = LinkConditions::nominal();
/// // A desktop affords InceptionV3 within 700 ms; a Raspberry Pi cannot.
/// let desktop = dispatcher.dispatch(&DeviceClass::Desktop.profile(), &constraints, &link);
/// let rpi = dispatcher.dispatch(&DeviceClass::RaspberryPi.profile(), &constraints, &link);
/// assert!(matches!(desktop, DispatchDecision::Deploy(m) if m.name == "InceptionV3"));
/// assert!(matches!(rpi, DispatchDecision::Deploy(m) if m.name.starts_with("MobileNet")));
/// ```
#[derive(Debug, Clone)]
pub struct ModelDispatcher {
    zoo: Vec<ModelSpec>,
}

impl ModelDispatcher {
    /// A dispatcher over the given model variants; rejects an empty zoo
    /// with a typed error instead of panicking.
    pub fn new(zoo: Vec<ModelSpec>) -> Result<Self, DispatchError> {
        if zoo.is_empty() {
            return Err(DispatchError::EmptyZoo);
        }
        Ok(Self { zoo })
    }

    /// All zoo models qualifying for `device` under `constraints`, most
    /// accurate first (ties broken toward the cheaper model).
    fn qualifying(
        &self,
        device: &DeviceProfile,
        constraints: &DispatchConstraints,
    ) -> Vec<ModelSpec> {
        let power = PowerProfile::for_device(device);
        let mut out: Vec<ModelSpec> = self
            .zoo
            .iter()
            .filter(|m| m.memory_mb() <= device.memory_mb)
            .filter(|m| nominal_latency_ms(m, device) <= constraints.max_latency_ms)
            .filter(|m| constraints.min_accuracy.is_none_or(|a| m.accuracy >= a))
            .filter(|m| {
                match (
                    constraints.min_inferences_per_charge,
                    inferences_per_charge(m, device, &power),
                ) {
                    (Some(need), Some(have)) => have >= need,
                    _ => true, // mains power or no energy constraint
                }
            })
            .copied()
            .collect();
        out.sort_by(|a, b| {
            b.accuracy
                .total_cmp(&a.accuracy)
                // Ties: prefer the cheaper model.
                .then(a.mflops.total_cmp(&b.mflops))
        });
        out
    }

    /// Capability dispatch under observed link conditions: picks the
    /// most accurate model that fits `device` under `constraints`,
    /// degrades to the next-smaller qualifying model when the preferred
    /// weights cannot be downloaded within the budget, and falls back to
    /// server-side inference when nothing fits, the breaker is open or
    /// bandwidth has collapsed. Over [`LinkConditions::nominal`] the
    /// answer is [`DispatchDecision::Deploy`] or
    /// [`DegradeReason::NoQualifyingModel`] for every device whose
    /// profile bandwidth clears [`LinkConditions::MIN_USABLE_MBPS`].
    pub fn dispatch(
        &self,
        device: &DeviceProfile,
        constraints: &DispatchConstraints,
        link: &LinkConditions,
    ) -> DispatchDecision {
        let candidates = self.qualifying(device, constraints);
        let Some(preferred) = candidates.first().copied() else {
            return DispatchDecision::ServerSide {
                reason: DegradeReason::NoQualifyingModel,
            };
        };
        if link.breaker_open {
            return DispatchDecision::ServerSide {
                reason: DegradeReason::BreakerOpen,
            };
        }
        let bandwidth = link
            .effective_bandwidth_mbps
            .unwrap_or(device.bandwidth_mbps);
        if bandwidth < LinkConditions::MIN_USABLE_MBPS {
            return DispatchDecision::ServerSide {
                reason: DegradeReason::BandwidthCollapsed,
            };
        }
        let download_s = |m: &ModelSpec| (m.download_bytes() as f64 * 8.0) / (bandwidth * 1e6);
        let fitting = candidates
            .iter()
            .find(|m| download_s(m) <= link.download_budget_s)
            .copied();
        match fitting {
            Some(chosen) if chosen == preferred => DispatchDecision::Deploy(chosen),
            Some(chosen) => DispatchDecision::Degraded {
                chosen,
                preferred,
                reason: DegradeReason::DownloadBudgetExceeded,
            },
            None => DispatchDecision::ServerSide {
                reason: DegradeReason::DownloadBudgetExceeded,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceClass;
    use crate::model::MODEL_ZOO;

    fn dispatcher() -> ModelDispatcher {
        ModelDispatcher::new(MODEL_ZOO.to_vec()).unwrap()
    }

    /// The model a nominal link deploys; `None` when nothing qualifies.
    pub(super) fn pick(
        device: &DeviceProfile,
        constraints: &DispatchConstraints,
    ) -> Option<ModelSpec> {
        match dispatcher().dispatch(device, constraints, &LinkConditions::nominal()) {
            DispatchDecision::Deploy(m) => Some(m),
            DispatchDecision::ServerSide {
                reason: DegradeReason::NoQualifyingModel,
            } => None,
            other => panic!("a nominal link never degrades: {other:?}"),
        }
    }

    #[test]
    fn empty_zoo_is_a_typed_error() {
        assert_eq!(
            ModelDispatcher::new(Vec::new()).unwrap_err(),
            DispatchError::EmptyZoo
        );
    }

    #[test]
    fn desktop_gets_the_big_model() {
        let m = pick(
            &DeviceClass::Desktop.profile(),
            &DispatchConstraints::default(),
        )
        .unwrap();
        assert_eq!(m.name, "InceptionV3");
    }

    #[test]
    fn rpi_gets_a_mobile_model_under_tight_latency() {
        let constraints = DispatchConstraints {
            max_latency_ms: 700.0,
            min_accuracy: None,
            ..Default::default()
        };
        let m = pick(&DeviceClass::RaspberryPi.profile(), &constraints).unwrap();
        assert!(m.name.starts_with("MobileNet"), "got {}", m.name);
    }

    #[test]
    fn impossible_constraints_yield_none() {
        let constraints = DispatchConstraints {
            max_latency_ms: 0.1,
            min_accuracy: None,
            ..Default::default()
        };
        assert!(pick(&DeviceClass::RaspberryPi.profile(), &constraints).is_none());
        // Accuracy floor nothing meets.
        let constraints = DispatchConstraints {
            max_latency_ms: 1e9,
            min_accuracy: Some(0.99),
            ..Default::default()
        };
        assert!(pick(&DeviceClass::Desktop.profile(), &constraints).is_none());
    }

    #[test]
    fn accuracy_floor_excludes_weak_models() {
        let constraints = DispatchConstraints {
            max_latency_ms: 1e9,
            min_accuracy: Some(0.75),
            ..Default::default()
        };
        let m = pick(&DeviceClass::RaspberryPi.profile(), &constraints).unwrap();
        assert_eq!(m.name, "InceptionV3", "only Inception meets 0.75");
    }

    #[test]
    fn fleet_dispatch_is_per_device() {
        let devices: Vec<_> = DeviceClass::ALL.iter().map(|c| c.profile()).collect();
        let constraints = DispatchConstraints {
            max_latency_ms: 200.0,
            min_accuracy: None,
            ..Default::default()
        };
        let picks: Vec<_> = devices.iter().map(|d| pick(d, &constraints)).collect();
        // Desktop can afford Inception within 200 ms; RPi cannot.
        assert_eq!(picks[0].unwrap().name, "InceptionV3");
        assert!(picks[2].is_none_or(|m| m.name != "InceptionV3"));
    }

    #[test]
    fn degraded_dispatch_falls_back_to_smaller_model() {
        let desktop = DeviceClass::Desktop.profile();
        let constraints = DispatchConstraints::default();
        // Nominal link: the preferred (biggest) model deploys.
        assert_eq!(
            dispatcher().dispatch(&desktop, &constraints, &LinkConditions::nominal()),
            DispatchDecision::Deploy(MODEL_ZOO[2])
        );
        // Budget only a MobileNet download fits: Inception is 95.2 MB,
        // MobileNetV2 13.6 MB; at 10 Mbit/s they need ~76 s and ~11 s.
        let tight = LinkConditions {
            effective_bandwidth_mbps: Some(10.0),
            download_budget_s: 20.0,
            breaker_open: false,
        };
        match dispatcher().dispatch(&desktop, &constraints, &tight) {
            DispatchDecision::Degraded {
                chosen,
                preferred,
                reason,
            } => {
                assert!(chosen.name.starts_with("MobileNet"), "got {}", chosen.name);
                assert_eq!(preferred.name, "InceptionV3");
                assert_eq!(reason, DegradeReason::DownloadBudgetExceeded);
            }
            other => panic!("expected a degraded pick, got {other:?}"),
        }
    }

    #[test]
    fn degraded_dispatch_goes_server_side_when_link_is_dead() {
        let phone = DeviceClass::Smartphone.profile();
        let constraints = DispatchConstraints::default();
        let open = LinkConditions {
            breaker_open: true,
            ..LinkConditions::nominal()
        };
        assert_eq!(
            dispatcher().dispatch(&phone, &constraints, &open),
            DispatchDecision::ServerSide {
                reason: DegradeReason::BreakerOpen
            }
        );
        let collapsed = LinkConditions {
            effective_bandwidth_mbps: Some(0.01),
            download_budget_s: 1e9,
            breaker_open: false,
        };
        assert_eq!(
            dispatcher().dispatch(&phone, &constraints, &collapsed),
            DispatchDecision::ServerSide {
                reason: DegradeReason::BandwidthCollapsed
            }
        );
        // Budget nothing fits: even the smallest model is too slow.
        let hopeless = LinkConditions {
            effective_bandwidth_mbps: Some(1.0),
            download_budget_s: 0.5,
            breaker_open: false,
        };
        assert_eq!(
            dispatcher().dispatch(&phone, &constraints, &hopeless),
            DispatchDecision::ServerSide {
                reason: DegradeReason::DownloadBudgetExceeded
            }
        );
    }
}

#[cfg(test)]
mod energy_dispatch_tests {
    use super::*;
    use crate::device::DeviceClass;
    use crate::energy::{inferences_per_charge, PowerProfile};
    use crate::model::MODEL_ZOO;

    #[test]
    fn battery_budget_downgrades_the_phone_model() {
        let phone = DeviceClass::Smartphone.profile();
        let power = PowerProfile::for_device(&phone);
        // Find a budget Inception cannot sustain but MobileNetV2 can.
        let inception = inferences_per_charge(&MODEL_ZOO[2], &phone, &power).expect("battery");
        let constraints = DispatchConstraints {
            max_latency_ms: 1e9,
            min_accuracy: None,
            min_inferences_per_charge: Some(inception + 1),
        };
        let pick = super::tests::pick(&phone, &constraints).expect("a mobile net qualifies");
        assert!(pick.name.starts_with("MobileNet"), "got {}", pick.name);
    }

    #[test]
    fn energy_constraint_ignored_on_mains_power() {
        let desktop = DeviceClass::Desktop.profile();
        let constraints = DispatchConstraints {
            max_latency_ms: 1e9,
            min_accuracy: None,
            min_inferences_per_charge: Some(u64::MAX),
        };
        let pick =
            super::tests::pick(&desktop, &constraints).expect("desktop unconstrained by battery");
        assert_eq!(pick.name, "InceptionV3");
    }
}
