//! Fig. 9 bench: imbalance-ratio sweep (IR 50 vs IR 500) on a compact
//! Scenario-2 stream for RBM-IM and one standard baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig};
use rbm_im_harness::registry::DetectorSpec;
use rbm_im_streams::scenarios::{scenario2, ScenarioConfig};

fn bench_fig9(c: &mut Criterion) {
    rbm_im_bench::print_runner_metadata();
    let mut group = c.benchmark_group("fig9_imbalance");
    group.sample_size(10);
    let run = RunConfig { metric_window: 500, ..Default::default() };
    for ir in [50.0, 500.0] {
        let config = ScenarioConfig {
            num_features: 10,
            num_classes: 5,
            length: 3_000,
            imbalance_ratio: ir,
            n_drifts: 1,
            seed: 13,
            ..Default::default()
        };
        for detector in ["RBM-IM", "RDDM"] {
            let id = format!("{}-ir{}", detector, ir);
            group.bench_with_input(BenchmarkId::new("scenario2", id), &(), |b, _| {
                b.iter(|| {
                    let scenario = scenario2(&config);
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

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
