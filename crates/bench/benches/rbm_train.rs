//! `rbm_train`: microbenchmark of the RBM CD-k hot loops.
//!
//! Compares the flat-matrix batch-level trainer (`RbmNetwork::train_batch`
//! on the `linalg` kernels, zero steady-state allocations) against the
//! retained seed implementation (`reference::ReferenceRbmNetwork`,
//! per-instance CD-k over `Vec<Vec<f64>>`) at the paper's default
//! mini-batch size (50), plus the per-class reconstruction-error pass the
//! detector runs before every training step. The two implementations are
//! bitwise-identical in output (see `crates/rbm/tests/equivalence.rs`), so
//! any gap is pure kernel speed. `BENCH_rbm_train.json` records the
//! measured baseline; the acceptance bar for the flat path is ≥2× the
//! reference's training throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rbm_im::network::{RbmNetwork, RbmNetworkConfig, Workspace};
use rbm_im::reference::ReferenceRbmNetwork;
use rbm_im_streams::generators::GaussianMixtureGenerator;
use rbm_im_streams::{MiniBatch, StreamExt};

/// The paper's default mini-batch size (Tab. II).
const BATCH: usize = 50;
/// Batches cycled through per measurement so the trainers see fresh data.
const ROTATION: usize = 64;

fn make_batches(num_features: usize, num_classes: usize, seed: u64) -> Vec<MiniBatch> {
    let mut stream = GaussianMixtureGenerator::balanced(num_features, num_classes, 1, seed);
    (0..ROTATION)
        .map(|_| MiniBatch { start_index: 0, instances: stream.take_instances(BATCH) })
        .collect()
}

fn bench_rbm_train(c: &mut Criterion) {
    rbm_im_bench::print_runner_metadata();
    let mut group = c.benchmark_group("rbm_train");
    group.sample_size(10);
    group.throughput(Throughput::Elements(BATCH as u64));
    // Two shapes: the harness default (10 features) and a wider stream where
    // the GEMMs dominate outright.
    for &(num_features, num_classes) in &[(10usize, 4usize), (40, 4)] {
        let shape = format!("{num_features}f{num_classes}c");
        let config = RbmNetworkConfig::default();
        let batches = make_batches(num_features, num_classes, 7);

        group.bench_with_input(BenchmarkId::new("train/flat", &shape), &(), |b, _| {
            let mut net = RbmNetwork::new(num_features, num_classes, config);
            let mut i = 0usize;
            b.iter(|| {
                let err = net.train_batch(&batches[i % ROTATION]);
                i += 1;
                err
            })
        });
        group.bench_with_input(BenchmarkId::new("train/reference", &shape), &(), |b, _| {
            let mut net = ReferenceRbmNetwork::new(num_features, num_classes, config);
            let mut i = 0usize;
            b.iter(|| {
                let err = net.train_batch(&batches[i % ROTATION]);
                i += 1;
                err
            })
        });

        // The detector's per-batch detection pass (Eq. 27) ahead of
        // training, through the immutable `_with` scoring surface with a
        // caller-owned workspace (the only scoring surface since the `&mut
        // self` variants were removed).
        group.bench_with_input(BenchmarkId::new("errors/flat", &shape), &(), |b, _| {
            let mut net = RbmNetwork::new(num_features, num_classes, config);
            for batch in batches.iter().take(8) {
                net.train_batch(batch);
            }
            let flat: Vec<(Vec<f64>, Vec<usize>)> = batches
                .iter()
                .map(|batch| {
                    let mut features = Vec::new();
                    let mut classes = Vec::new();
                    for inst in &batch.instances {
                        features.extend_from_slice(&inst.features);
                        classes.push(inst.class);
                    }
                    (features, classes)
                })
                .collect();
            let mut ws = Workspace::default();
            let mut errs = Vec::new();
            let mut i = 0usize;
            b.iter(|| {
                let (features, classes) = &flat[i % ROTATION];
                net.reconstruction_errors_flat_with(&mut ws, features, classes, &mut errs);
                i += 1;
                errs.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("errors/reference", &shape), &(), |b, _| {
            let mut net = ReferenceRbmNetwork::new(num_features, num_classes, config);
            for batch in batches.iter().take(8) {
                net.train_batch(batch);
            }
            let mut i = 0usize;
            b.iter(|| {
                let errs = net.batch_reconstruction_errors(&batches[i % ROTATION]);
                i += 1;
                errs
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rbm_train);
criterion_main!(benches);
