//! Fig. 8 bench: local-drift sweep (1 vs all classes drifting) for RBM-IM
//! and one skew-insensitive baseline, on a compact Scenario-3 stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig};
use rbm_im_harness::registry::DetectorSpec;
use rbm_im_streams::scenarios::{scenario3, ScenarioConfig};

fn bench_fig8(c: &mut Criterion) {
    rbm_im_bench::print_runner_metadata();
    let mut group = c.benchmark_group("fig8_local_drift");
    group.sample_size(10);
    let config = ScenarioConfig {
        num_features: 10,
        num_classes: 5,
        length: 3_000,
        imbalance_ratio: 50.0,
        n_drifts: 1,
        seed: 7,
        ..Default::default()
    };
    let run = RunConfig { metric_window: 500, ..Default::default() };
    for classes_with_drift in [1usize, 5] {
        for detector in ["RBM-IM", "DDM-OCI"] {
            let id = format!("{}-k{}", detector, classes_with_drift);
            group.bench_with_input(BenchmarkId::new("scenario3", id), &(), |b, _| {
                b.iter(|| {
                    let scenario = scenario3(&config, classes_with_drift);
                    PipelineBuilder::new()
                        .boxed_stream(scenario.stream)
                        .detector_spec(DetectorSpec::new(detector))
                        .config(run)
                        .run()
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
