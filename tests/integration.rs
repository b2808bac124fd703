//! Cross-crate integration tests: streams → classifiers → detectors →
//! metrics → harness, exercised together the way the experiment binaries use
//! them. Kept deliberately small (a few thousand instances per test) so the
//! whole suite stays fast.

use rbm_im::RbmIm;
use rbm_im_detectors::DriftDetector;
use rbm_im_harness::experiment1::{run_experiment1, BuildConfigSerde, Experiment1Config};
use rbm_im_harness::experiment2::{run_experiment2, Experiment2Config};
use rbm_im_harness::experiment3::{run_experiment3, Experiment3Config};
use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig};
use rbm_im_harness::registry::{paper_detectors, DetectorRegistry, DetectorSpec};
use rbm_im_harness::report::{format_fig8, format_fig9, format_table3};
use rbm_im_metrics::evaluate_detections;
use rbm_im_streams::drift::DriftKind;
use rbm_im_streams::registry::{all_benchmarks, benchmark_by_name, BuildConfig};
use rbm_im_streams::scenarios::{scenario3, ScenarioConfig};
use rbm_im_streams::{DataStream, StreamExt};

#[test]
fn registry_streams_feed_the_full_pipeline() {
    // A real-world substitute and an artificial benchmark, run end-to-end
    // through the pipeline with two detectors each.
    let build = BuildConfig { scale_divisor: 500, seed: 11, n_drifts: 1, dynamic_imbalance: true };
    let run = RunConfig { metric_window: 500, max_instances: Some(2_000), ..Default::default() };
    for name in ["Electricity", "RBF5"] {
        let spec = benchmark_by_name(name).unwrap();
        for detector in ["RBM-IM", "PerfSim"] {
            let result = PipelineBuilder::new()
                .boxed_stream(spec.build(&build))
                .detector_spec(DetectorSpec::new(detector))
                .config(run)
                .run()
                .unwrap();
            assert!(result.instances > 0, "{name}/{detector} processed nothing");
            assert!(result.pm_auc.is_finite());
            assert!(result.pm_gmean.is_finite());
        }
    }
}

#[test]
fn every_benchmark_in_the_registry_builds_and_emits() {
    let build =
        BuildConfig { scale_divisor: 2_000, seed: 3, n_drifts: 1, dynamic_imbalance: false };
    for spec in all_benchmarks() {
        let mut stream = spec.build(&build);
        let sample = stream.take_instances(300);
        assert!(!sample.is_empty(), "{} emitted nothing", spec.name);
        assert_eq!(sample[0].num_features(), spec.features, "{}", spec.name);
    }
}

#[test]
fn experiment1_pipeline_produces_table_and_ranks() {
    let config = Experiment1Config {
        detectors: ["FHDDM", "DDM-OCI", "RBM-IM"].map(DetectorSpec::new).to_vec(),
        build: BuildConfigSerde {
            seed: 5,
            scale_divisor: 500,
            n_drifts: 1,
            dynamic_imbalance: true,
        },
        run: RunConfig { metric_window: 400, max_instances: Some(2_000), ..Default::default() },
        benchmarks: vec!["RBF5".into(), "Hyperplane5".into(), "Poker".into()],
    };
    let result = run_experiment1(&config, |_| {});
    assert_eq!(result.runs.len(), 9);
    let table = format_table3(&result, "pmAUC");
    assert!(table.contains("RBM-IM") && table.contains("Poker"));
    let friedman = result.friedman_pm_auc().unwrap();
    assert_eq!(friedman.average_ranks.len(), 3);
    let bayes = result.bayesian_vs("DDM-OCI", 1.0, 2_000, 1).unwrap();
    assert!((bayes.p_left + bayes.p_rope + bayes.p_right - 1.0).abs() < 1e-9);
}

#[test]
fn experiment2_and_3_pipelines_produce_series() {
    let e2 = Experiment2Config {
        detectors: vec![DetectorSpec::new("RBM-IM"), DetectorSpec::new("RDDM")],
        num_features: 8,
        num_classes: 4,
        length: 3_000,
        imbalance_ratio: 20.0,
        n_drifts: 1,
        seed: 9,
        classes_with_drift: vec![1, 4],
        run: RunConfig { metric_window: 400, ..Default::default() },
    };
    let r2 = run_experiment2(&e2, |_, _| {});
    assert_eq!(r2.points.len(), 2);
    assert!(format_fig8(&r2).contains("classes drift"));

    let e3 = Experiment3Config {
        detectors: vec![DetectorSpec::new("RBM-IM"), DetectorSpec::new("RDDM")],
        num_features: 8,
        num_classes: 4,
        length: 3_000,
        imbalance_ratios: vec![20.0, 100.0],
        n_drifts: 1,
        seed: 9,
        run: RunConfig { metric_window: 400, ..Default::default() },
    };
    let r3 = run_experiment3(&e3, |_, _| {});
    assert_eq!(r3.points.len(), 2);
    assert!(format_fig9(&r3).contains("IR = 20"));
}

#[test]
fn rbm_im_detects_scenario3_local_drift_end_to_end() {
    // Scenario 3 with a single drifting minority class; RBM-IM standalone
    // (no classifier in the loop) must catch at least one of the injected
    // local drifts within a generous horizon.
    let config = ScenarioConfig {
        num_features: 10,
        num_classes: 5,
        length: 20_000,
        imbalance_ratio: 25.0,
        n_drifts: 2,
        drift_kind: DriftKind::Sudden,
        seed: 31,
    };
    let mut scenario = scenario3(&config, 1);
    let mut detector = RbmIm::with_defaults(10, 5);
    let mut alarms = Vec::new();
    while let Some(instance) = scenario.stream.next_instance() {
        if detector.observe_instance(&instance).is_drift() {
            alarms.push(instance.index);
        }
    }
    let quality = evaluate_detections(&scenario.drift_positions, &alarms, 6_000);
    assert!(
        quality.detected >= 1,
        "RBM-IM should catch at least one local drift (positions {:?}, alarms {:?})",
        scenario.drift_positions,
        alarms
    );
}

#[test]
fn skew_insensitive_detectors_outrank_standard_ones_on_imbalanced_drift() {
    // A compact version of the paper's headline claim (RQ1/RQ2): on a
    // drifting, highly imbalanced multi-class stream the classifier driven
    // by RBM-IM should not be worse than the one driven by a standard
    // error-rate detector.
    let config = ScenarioConfig {
        num_features: 10,
        num_classes: 5,
        length: 12_000,
        imbalance_ratio: 50.0,
        n_drifts: 2,
        drift_kind: DriftKind::Sudden,
        seed: 17,
    };
    let run = RunConfig { metric_window: 800, ..Default::default() };
    let rbm = PipelineBuilder::new()
        .boxed_stream(scenario3(&config, 2).stream)
        .detector_spec(DetectorSpec::new("RBM-IM"))
        .config(run)
        .run()
        .unwrap();
    let standard = PipelineBuilder::new()
        .boxed_stream(scenario3(&config, 2).stream)
        .detector_spec(DetectorSpec::new("FHDDM"))
        .config(run)
        .run()
        .unwrap();
    // On short scaled-down streams the classifier reset triggered by a
    // (correct) detection temporarily costs a few pmGM points, so the margin
    // here is deliberately generous; the full-length comparison is the job
    // of the experiment1 binary.
    assert!(
        rbm.pm_gmean >= standard.pm_gmean - 12.0,
        "RBM-IM-driven pmGM ({:.2}) should not trail the standard detector ({:.2}) materially",
        rbm.pm_gmean,
        standard.pm_gmean
    );
    assert!(rbm.pm_auc.is_finite() && standard.pm_auc.is_finite());
}

#[test]
fn boxed_detectors_share_one_interface() {
    // The harness stores detectors as trait objects; make sure every paper
    // detector works through that interface on a real stream slice.
    let spec = benchmark_by_name("RBF5").unwrap();
    let build =
        BuildConfig { scale_divisor: 1_000, seed: 2, n_drifts: 1, dynamic_imbalance: false };
    let mut stream = spec.build(&build);
    let instances = stream.take_instances(600);
    for detector_spec in paper_detectors() {
        let mut detector =
            DetectorRegistry::global().build(&detector_spec, spec.features, spec.classes).unwrap();
        for inst in &instances {
            let obs = rbm_im_detectors::Observation::new(&inst.features, inst.class, inst.class);
            detector.update(&obs);
        }
        assert_eq!(detector.name(), detector_spec.label());
    }
}
