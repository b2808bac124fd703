//! Detector overhead bench (the "Avg. test time / Avg. update time" rows of
//! Table III): per-observation update cost of every detector on a fixed
//! pre-generated slice of an imbalanced drifting stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rbm_im_detectors::Observation;
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_streams::registry::{benchmark_by_name, BuildConfig};
use rbm_im_streams::StreamExt;

fn bench_overhead(c: &mut Criterion) {
    rbm_im_bench::print_runner_metadata();
    let build =
        BuildConfig { seed: 42, scale_divisor: 1_000, n_drifts: 1, dynamic_imbalance: true };
    let spec = benchmark_by_name("RBF5").expect("RBF5 exists");
    let mut stream = spec.build(&build);
    let instances = stream.take_instances(2_000);

    let mut group = c.benchmark_group("detector_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(instances.len() as u64));
    let names = [
        "WSTD",
        "RDDM",
        "FHDDM",
        "PerfSim",
        "DDM-OCI",
        "RBM-IM",
        "DDM",
        "EDDM",
        "ADWIN",
        "HDDM-A",
        "HDDM-W",
        "PageHinkley",
        "CUSUM",
        "ECDD",
    ];
    for name in names {
        group.bench_with_input(
            BenchmarkId::new("update", name),
            &DetectorSpec::new(name),
            |b, detector_spec| {
                b.iter(|| {
                    let mut detector = DetectorRegistry::global()
                        .build(detector_spec, spec.features, spec.classes)
                        .unwrap();
                    for (i, inst) in instances.iter().enumerate() {
                        let obs = Observation::new(
                            &inst.features,
                            inst.class,
                            (inst.class + i % 2) % spec.classes,
                        );
                        detector.update(&obs);
                    }
                    detector
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
