//! Table III bench: one prequential run (detector + CSPT classifier +
//! pmAUC/pmGM) per paper detector on a scaled-down benchmark stream.
//!
//! The bench measures the wall-clock cost of a full evaluation cell; the
//! printed pmAUC values (via `--nocapture`-style stderr) are produced by the
//! `experiment1` binary, not here. Workloads are kept tiny so `cargo bench`
//! completes in minutes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig};
use rbm_im_harness::registry::paper_detectors;
use rbm_im_streams::registry::{benchmark_by_name, BuildConfig};

fn bench_table3(c: &mut Criterion) {
    rbm_im_bench::print_runner_metadata();
    let mut group = c.benchmark_group("table3_detectors");
    group.sample_size(10);
    let build =
        BuildConfig { seed: 42, scale_divisor: 1_000, n_drifts: 1, dynamic_imbalance: true };
    let run = RunConfig { metric_window: 500, max_instances: Some(2_000), ..Default::default() };
    let spec = benchmark_by_name("RBF5").expect("RBF5 exists");
    for detector in paper_detectors() {
        group.bench_with_input(BenchmarkId::new("rbf5", detector.label()), &detector, |b, d| {
            b.iter(|| {
                PipelineBuilder::new()
                    .boxed_stream(spec.build(&build))
                    .detector_spec(d.clone())
                    .config(run)
                    .run()
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table3);
criterion_main!(benches);
