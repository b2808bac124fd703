//! Pipeline hot-path baseline: instances/second of the prequential loop in
//! per-instance mode (`detector_batch = 1`, the paper's protocol) versus
//! batched mode (`detector_batch = 50`, RBM-IM's natural mini-batch), for
//! RBM-IM and ADWIN. Future PRs optimizing the hot loop should compare
//! against these numbers.
//!
//! RBM-IM's share of this loop (detect + CD-k train per mini-batch) runs on
//! the flat-matrix `rbm_im::linalg` kernels; see the `rbm_train` bench for
//! the isolated kernel-level comparison against the retained seed
//! implementation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig};
use rbm_im_harness::registry::DetectorSpec;
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::stream::BoundedStream;

const INSTANCES: u64 = 4_000;

fn bench_pipeline_throughput(c: &mut Criterion) {
    rbm_im_bench::print_runner_metadata();
    let mut group = c.benchmark_group("pipeline_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(INSTANCES));
    for detector in ["RBM-IM", "ADWIN"] {
        for batch in [1usize, 50] {
            let id = format!("{}-batch{}", detector, batch);
            let run = RunConfig { metric_window: 500, detector_batch: batch, ..Default::default() };
            group.bench_with_input(BenchmarkId::new("rbf", id), &(), |b, _| {
                b.iter(|| {
                    let stream =
                        BoundedStream::new(RandomRbfGenerator::new(10, 4, 2, 0.0, 5), INSTANCES);
                    PipelineBuilder::new()
                        .stream(stream)
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

criterion_group!(benches, bench_pipeline_throughput);
criterion_main!(benches);
