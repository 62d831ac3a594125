//! Cross-crate integration of the Action layer: dispatch, energy limits,
//! latency simulation, and the crowd-based learning loop working on one
//! fleet.

use tvdp::edge::learning::run_crowd_learning;
use tvdp::edge::{
    energy_per_inference_j, inferences_per_charge, simulate_inference, CrowdLearningConfig,
    DeviceClass, DispatchConstraints, DispatchDecision, EdgeNode, LinkConditions, ModelDispatcher,
    PowerProfile, SelectionStrategy, UplinkConfig, MODEL_ZOO,
};
use tvdp::ml::{Dataset, LinearSvm};

#[test]
fn fleet_dispatch_energy_and_latency_are_consistent() {
    let dispatcher = ModelDispatcher::new(MODEL_ZOO.to_vec()).expect("zoo is non-empty");
    for class in DeviceClass::ALL {
        let device = class.profile();
        let power = PowerProfile::for_device(&device);
        let constraints = DispatchConstraints {
            max_latency_ms: 800.0,
            min_accuracy: None,
            min_inferences_per_charge: Some(5_000),
        };
        let DispatchDecision::Deploy(model) =
            dispatcher.dispatch(&device, &constraints, &LinkConditions::nominal())
        else {
            panic!("{class:?} got no model under a generous budget");
        };
        // The dispatched model honours the latency constraint when
        // actually simulated.
        let stats = simulate_inference(&model, &device, 100, 42);
        assert!(
            stats.mean_ms <= 800.0 * 1.2,
            "{class:?}/{}: simulated {} ms breaks the 800 ms dispatch promise",
            model.name,
            stats.mean_ms
        );
        // And the energy constraint, when the device has a battery.
        if let Some(per_charge) = inferences_per_charge(&model, &device, &power) {
            assert!(
                per_charge >= 5_000,
                "{class:?}: only {per_charge} inferences per charge"
            );
        }
        assert!(energy_per_inference_j(&model, &device, &power) > 0.0);
    }
}

#[test]
fn learning_loop_runs_on_dispatched_fleet() {
    // A two-blob problem distributed over the three device tiers.
    let mut train_x = Vec::new();
    let mut train_y = Vec::new();
    for i in 0..10 {
        let j = (i % 5) as f32 * 0.1;
        train_x.push(vec![j, j]);
        train_y.push(0);
        train_x.push(vec![3.0 + j, 3.0 - j]);
        train_y.push(1);
    }
    let train = Dataset::new(train_x, train_y, 2);
    let mut test_x = Vec::new();
    let mut test_y = Vec::new();
    for i in 0..60 {
        let j = (i % 20) as f32 * 0.07;
        test_x.push(vec![j, 0.5 - j]);
        test_y.push(0);
        test_x.push(vec![3.0 - j, 2.5 + j]);
        test_y.push(1);
    }
    let test = Dataset::new(test_x, test_y, 2);

    let mut edges: Vec<EdgeNode> = DeviceClass::ALL
        .iter()
        .enumerate()
        .map(|(i, _)| EdgeNode {
            id: i as u64,
            pool: (0..60)
                .map(|k| {
                    let class = k % 2;
                    let j = (k % 12) as f32 * 0.09;
                    (vec![class as f32 * 3.0 + j, class as f32 * 3.0 - j], class)
                })
                .collect(),
        })
        .collect();

    let report = run_crowd_learning(
        &train,
        &test,
        &mut edges,
        &CrowdLearningConfig {
            rounds: 3,
            per_edge_budget_bytes: 96, // 12 two-dim f32 vectors
            feature_bytes: 8,
            raw_image_bytes: 6_912,
            strategy: SelectionStrategy::Margin,
            seed: 7,
        },
        &UplinkConfig::reliable(7),
        LinearSvm::new,
    );
    let (initial, last) = (&report.rounds[0], &report.rounds[report.rounds.len() - 1]);
    assert!(last.test_f1 >= initial.test_f1 - 0.02);
    assert!(report.bandwidth_saving > 0.99);
    // Each edge shipped at most its budget each round.
    for r in &report.rounds[1..] {
        assert!(r.uploaded <= 3 * 12);
    }
}
