//! `linalg_kernels`: kernel-level microbenchmark of the CD-k hot loops in
//! `rbm_im::linalg`, isolating each kernel from the training loop so a
//! kernel change is directly attributable.
//!
//! Two shapes bracket the serving reality: `narrow` is the harness default
//! (10 visible features + 4 classes, hidden ≈ 7, batch 50) and `wide`
//! (80 visible + 4 classes, hidden 40, batch 100) is the largest stream of
//! the paper's Table I at a doubled mini-batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbm_im::linalg::{
    cdk_bias_gradient, cdk_weight_gradient, gemm_acc, sigmoid_in_place, softmax_cols_in_place,
    DenseMatrix,
};

/// Deterministic pseudo-random matrix fill (xorshift; no rand dependency).
fn filled(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    })
}

struct Shape {
    name: &'static str,
    visible: usize,
    hidden: usize,
    batch: usize,
}

const SHAPES: &[Shape] = &[
    Shape { name: "narrow", visible: 10, hidden: 7, batch: 50 },
    Shape { name: "wide", visible: 80, hidden: 40, batch: 100 },
];

fn bench_linalg_kernels(c: &mut Criterion) {
    rbm_im_bench::print_runner_metadata();
    let mut group = c.benchmark_group("linalg_kernels");
    group.sample_size(20);

    for shape in SHAPES {
        let Shape { name, visible, hidden, batch } = *shape;

        // gemm_acc: hidden-activation product h += W^T-layout GEMM —
        // (hidden × visible) · (visible × batch).
        let a = filled(hidden, visible, 1);
        let b_mat = filled(visible, batch, 2);
        group.bench_with_input(BenchmarkId::new("gemm_acc", name), &(), |bench, _| {
            let mut c_mat = DenseMatrix::zeros(hidden, batch);
            bench.iter(|| {
                c_mat.fill(0.0);
                gemm_acc(&mut c_mat, &a, &b_mat);
                c_mat.get(0, 0)
            })
        });

        // cdk_weight_gradient: ΔW from the positive/negative phase
        // visible/hidden states — the single hottest CD-k kernel.
        let x0 = filled(visible, batch, 3);
        let xk = filled(visible, batch, 4);
        let h0 = filled(hidden, batch, 5);
        let hk = filled(hidden, batch, 6);
        let weights: Vec<f64> = (0..batch).map(|i| 1.0 + (i % 3) as f64 * 0.25).collect();
        group.bench_with_input(BenchmarkId::new("cdk_weight_gradient", name), &(), |bench, _| {
            let mut d = DenseMatrix::zeros(visible, hidden);
            bench.iter(|| {
                d.fill(0.0);
                cdk_weight_gradient(&mut d, &weights, &x0, &h0, &xk, &hk);
                d.get(0, 0)
            })
        });

        // cdk_bias_gradient: Δa over visible rows.
        group.bench_with_input(BenchmarkId::new("cdk_bias_gradient", name), &(), |bench, _| {
            let mut d = vec![0.0; visible];
            bench.iter(|| {
                d.iter_mut().for_each(|v| *v = 0.0);
                cdk_bias_gradient(&mut d, &weights, &x0, &xk);
                d[0]
            })
        });

        // Activation kernels: the `exp`-bound slice of CD-k.
        let logits = filled(hidden, batch, 7);
        group.bench_with_input(BenchmarkId::new("sigmoid", name), &(), |bench, _| {
            let mut m = logits.clone();
            bench.iter(|| {
                m.as_mut_slice().copy_from_slice(logits.as_slice());
                sigmoid_in_place(m.as_mut_slice());
                m.get(0, 0)
            })
        });
        let scores = filled(4, batch, 8);
        group.bench_with_input(BenchmarkId::new("softmax_cols", name), &(), |bench, _| {
            let mut m = scores.clone();
            bench.iter(|| {
                m.as_mut_slice().copy_from_slice(scores.as_slice());
                softmax_cols_in_place(&mut m);
                m.get(0, 0)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_linalg_kernels);
criterion_main!(benches);
