//! Property-based tests of the edge substrate: the dispatcher never
//! violates its constraints and never leaves a better model on the table.

use tvdp_edge::{
    inferences_per_charge, nominal_latency_ms, DegradeReason, DeviceClass, DispatchConstraints,
    DispatchDecision, LinkConditions, ModelDispatcher, ModelSpec, PowerProfile,
};
use tvdp_kernel::rng::{for_each_case, Rng};

const CASES: u64 = 128;

fn arb_model(i: usize, rng: &mut Rng) -> ModelSpec {
    // Leak a unique name: ModelSpec carries &'static str; fine in tests.
    let name: &'static str = Box::leak(format!("model-{i}").into_boxed_str());
    ModelSpec {
        name,
        mflops: rng.gen_range(50.0..8_000.0),
        params_millions: rng.gen_range(0.5..40.0),
        input_px: 224,
        accuracy: rng.gen_range(0.5..0.95),
    }
}

fn arb_zoo(rng: &mut Rng) -> Vec<ModelSpec> {
    (0..rng.gen_range(1usize..6))
        .map(|i| arb_model(i, rng))
        .collect()
}

fn arb_device(rng: &mut Rng) -> DeviceClass {
    [
        DeviceClass::Desktop,
        DeviceClass::Smartphone,
        DeviceClass::RaspberryPi,
    ][rng.gen_range(0..3)]
}

#[test]
fn dispatch_honours_every_constraint() {
    for_each_case(CASES, |_, rng| {
        let zoo = arb_zoo(rng);
        let class = arb_device(rng);
        let max_latency = rng.gen_range(1.0f64..20_000.0);
        let min_accuracy = rng.gen_bool(0.5).then(|| rng.gen_range(0.4f64..0.99));
        let min_charge = rng
            .gen_bool(0.5)
            .then(|| rng.gen_range(1_000u64..1_000_000));
        let device = class.profile();
        let power = PowerProfile::for_device(&device);
        let constraints = DispatchConstraints {
            max_latency_ms: max_latency,
            min_accuracy,
            min_inferences_per_charge: min_charge,
        };
        let dispatcher = ModelDispatcher::new(zoo.clone()).expect("non-empty zoo");
        match dispatcher.dispatch(&device, &constraints, &LinkConditions::nominal()) {
            DispatchDecision::Deploy(picked) => {
                assert!(nominal_latency_ms(&picked, &device) <= max_latency);
                if let Some(floor) = min_accuracy {
                    assert!(picked.accuracy >= floor);
                }
                assert!(picked.memory_mb() <= device.memory_mb);
                if let (Some(need), Some(have)) =
                    (min_charge, inferences_per_charge(&picked, &device, &power))
                {
                    assert!(have >= need);
                }
                // Optimality: no qualifying model is strictly more accurate.
                for m in &zoo {
                    let qualifies = m.memory_mb() <= device.memory_mb
                        && nominal_latency_ms(m, &device) <= max_latency
                        && min_accuracy.is_none_or(|a| m.accuracy >= a)
                        && match (min_charge, inferences_per_charge(m, &device, &power)) {
                            (Some(need), Some(have)) => have >= need,
                            _ => true,
                        };
                    if qualifies {
                        assert!(
                            m.accuracy <= picked.accuracy,
                            "{} ({}) beats picked {} ({})",
                            m.name,
                            m.accuracy,
                            picked.name,
                            picked.accuracy
                        );
                    }
                }
            }
            DispatchDecision::ServerSide {
                reason: DegradeReason::NoQualifyingModel,
            } => {
                // Nothing in the zoo qualifies.
                for m in &zoo {
                    let qualifies = m.memory_mb() <= device.memory_mb
                        && nominal_latency_ms(m, &device) <= max_latency
                        && min_accuracy.is_none_or(|a| m.accuracy >= a)
                        && match (min_charge, inferences_per_charge(m, &device, &power)) {
                            (Some(need), Some(have)) => have >= need,
                            _ => true,
                        };
                    assert!(
                        !qualifies,
                        "{} qualifies but dispatch kept inference server-side",
                        m.name
                    );
                }
            }
            other => panic!("a nominal link never degrades: {other:?}"),
        }
    });
}

#[test]
fn latency_monotone_in_model_size() {
    for_each_case(CASES, |_, rng| {
        let class = arb_device(rng);
        let mflops = rng.gen_range(10.0f64..10_000.0);
        let device = class.profile();
        let small = ModelSpec {
            name: "small",
            mflops,
            params_millions: 1.0,
            input_px: 224,
            accuracy: 0.5,
        };
        let big = ModelSpec {
            name: "big",
            mflops: mflops * 2.0,
            params_millions: 2.0,
            input_px: 224,
            accuracy: 0.6,
        };
        assert!(nominal_latency_ms(&big, &device) > nominal_latency_ms(&small, &device));
    });
}
