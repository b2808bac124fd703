//! Equivalence suite: the flat-kernel [`RbmNetwork`] must reproduce the
//! retained naive reference implementation exactly.
//!
//! The flat implementation promises more than "numerically close": its
//! kernels accumulate every sum in the reference's element order and its
//! batched Gibbs chain consumes the RNG stream in the reference's
//! per-instance draw order, so weights, errors, and probabilities should be
//! *bitwise* identical. The property tests below assert the contractual
//! ≤ 1e-12 agreement across random shapes, batches, label noise, and Gibbs
//! depths; the fixed-shape test at the bottom pins the stronger bitwise
//! guarantee (which is what keeps drift positions of the RBM-IM detector
//! unchanged relative to the seed).

use proptest::prelude::*;
use rbm_im::network::{RbmNetwork, RbmNetworkConfig, Workspace};
use rbm_im::reference::ReferenceRbmNetwork;
use rbm_im_streams::{Instance, MiniBatch};

const TOL: f64 = 1e-12;

fn batch_from(instances: Vec<Instance>) -> MiniBatch {
    MiniBatch { start_index: 0, instances }
}

/// Per-class reconstruction errors of a mini-batch through the flat
/// network's immutable `_with` scoring surface.
fn flat_batch_errors(net: &RbmNetwork, ws: &mut Workspace, batch: &MiniBatch) -> Vec<Option<f64>> {
    let mut features = Vec::new();
    let mut classes = Vec::new();
    for inst in &batch.instances {
        features.extend_from_slice(&inst.features);
        classes.push(inst.class);
    }
    let mut out = Vec::new();
    net.reconstruction_errors_flat_with(ws, &features, &classes, &mut out);
    out
}

/// Builds the per-instance stream of a deterministic pseudo-random batch:
/// `n` instances of `num_features` features in [-5, 5], with classes drawn
/// from `0..num_classes + 1` so that roughly one in `num_classes + 1`
/// instances carries an out-of-range label (which both implementations must
/// skip identically).
fn synth_instances(n: usize, num_features: usize, num_classes: usize, seed: u64) -> Vec<Instance> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let features: Vec<f64> = (0..num_features)
                .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 * 10.0 - 5.0)
                .collect();
            let class = (next() % (num_classes as u64 + 1)) as usize;
            Instance::new(features, class)
        })
        .collect()
}

fn assert_close(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            (g - w).abs() <= TOL,
            "{label}[{i}]: flat {g} vs reference {w} (diff {})",
            (g - w).abs()
        );
    }
}

fn assert_networks_match(flat: &mut RbmNetwork, naive: &ReferenceRbmNetwork, context: &str) {
    let num_visible = naive.a.len();
    let num_hidden = naive.num_hidden();
    let num_classes = naive.c.len();
    for i in 0..num_visible {
        assert_close(&format!("{context}: w[{i}]"), flat.w().row(i), &naive.w[i]);
    }
    for j in 0..num_hidden {
        assert_close(&format!("{context}: u[{j}]"), flat.u().row(j), &naive.u[j]);
    }
    assert_close(&format!("{context}: a"), flat.a(), &naive.a);
    assert_close(&format!("{context}: b"), flat.b(), &naive.b);
    assert_close(&format!("{context}: c"), flat.c(), &naive.c);
    assert_eq!(flat.class_counts(), naive.class_counts(), "{context}: class counts");
    for class in 0..num_classes {
        let (g, w) = (flat.class_weight(class), naive.class_weight(class));
        assert!((g - w).abs() <= TOL, "{context}: class_weight({class}): {g} vs {w}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Training on random shapes/batches/Gibbs depths keeps every parameter
    /// of the two implementations within 1e-12, along with the returned
    /// batch errors and the per-class reconstruction errors.
    #[test]
    fn train_batch_updates_match(
        shape in (1usize..9, 2usize..6, 1usize..4, 0u64..10_000),
        batch_size in 1usize..40,
        fraction_step in 0usize..4
    ) {
        let (num_features, num_classes, gibbs_steps, seed) = shape;
        let config = RbmNetworkConfig {
            hidden_fraction: 0.25 + fraction_step as f64 * 0.25,
            gibbs_steps,
            seed,
            ..Default::default()
        };
        let mut flat = RbmNetwork::new(num_features, num_classes, config);
        let mut naive = ReferenceRbmNetwork::new(num_features, num_classes, config);
        assert_networks_match(&mut flat, &naive, "construction");
        for round in 0..4 {
            let batch = batch_from(synth_instances(
                batch_size,
                num_features,
                num_classes,
                seed ^ (round as u64 + 1),
            ));
            let flat_err = flat.train_batch(&batch);
            let naive_err = naive.train_batch(&batch);
            prop_assert!(
                (flat_err - naive_err).abs() <= TOL,
                "round {round}: training error {flat_err} vs {naive_err}"
            );
            assert_networks_match(&mut flat, &naive, &format!("round {round}"));
            let mut ws = Workspace::default();
            let flat_errors = flat_batch_errors(&flat, &mut ws, &batch);
            let naive_errors = naive.batch_reconstruction_errors(&batch);
            for (class, (g, w)) in flat_errors.iter().zip(naive_errors.iter()).enumerate() {
                match (g, w) {
                    (None, None) => {}
                    (Some(g), Some(w)) => prop_assert!(
                        (g - w).abs() <= TOL,
                        "round {round}: class {class} error {g} vs {w}"
                    ),
                    _ => prop_assert!(false, "round {round}: class {class} presence mismatch"),
                }
            }
        }
    }

    /// Hidden/visible/class probabilities, free-energy prediction, and
    /// single-instance reconstruction errors agree on trained networks.
    #[test]
    fn inference_paths_match(
        shape in (1usize..9, 2usize..6, 0u64..10_000),
        probe_count in 1usize..10
    ) {
        let (num_features, num_classes, seed) = shape;
        let config = RbmNetworkConfig { seed, ..Default::default() };
        let mut flat = RbmNetwork::new(num_features, num_classes, config);
        let mut naive = ReferenceRbmNetwork::new(num_features, num_classes, config);
        // A little training so ranges and weights are non-trivial.
        for round in 0..3 {
            let batch =
                batch_from(synth_instances(25, num_features, num_classes, seed ^ (round + 40)));
            flat.train_batch(&batch);
            naive.train_batch(&batch);
        }
        let probes = synth_instances(probe_count, num_features, num_classes, seed ^ 77);
        for (p, probe) in probes.iter().enumerate() {
            let v = naive.normalize(&probe.features);
            let mut z = vec![0.0; num_classes];
            if probe.class < num_classes {
                z[probe.class] = 1.0;
            }
            let h_flat = flat.hidden_probabilities(&v, &z);
            let h_naive = naive.hidden_probabilities(&v, &z);
            assert_close(&format!("probe {p}: hidden"), &h_flat, &h_naive);
            assert_close(
                &format!("probe {p}: visible"),
                &flat.visible_probabilities(&h_naive),
                &naive.visible_probabilities(&h_naive),
            );
            assert_close(
                &format!("probe {p}: class"),
                &flat.class_probabilities(&h_naive),
                &naive.class_probabilities(&h_naive),
            );
            let mut ws = Workspace::default();
            let (ge, we) =
                (flat.reconstruction_error_with(&mut ws, probe), naive.reconstruction_error(probe));
            prop_assert!(
                (ge - we).abs() <= TOL,
                "probe {p}: reconstruction error {ge} vs {we}"
            );
            prop_assert_eq!(
                flat.predict(&probe.features),
                naive.predict(&probe.features),
                "probe {p}: prediction"
            );
        }
    }
}

/// The stronger pin: at a fixed representative shape the two
/// implementations are not merely close but **bitwise identical** after
/// every batch — training errors, weights, and per-class errors. This is
/// the property that guarantees the refactor cannot move any drift
/// position of the RBM-IM detector relative to the seed.
#[test]
fn flat_network_is_bitwise_identical_at_fixed_shape() {
    for gibbs_steps in [1usize, 2, 3] {
        let config = RbmNetworkConfig { gibbs_steps, ..Default::default() };
        let mut flat = RbmNetwork::new(10, 4, config);
        let mut naive = ReferenceRbmNetwork::new(10, 4, config);
        let mut ws = Workspace::default();
        for round in 0..20u64 {
            let batch = batch_from(synth_instances(50, 10, 4, 1000 + round));
            let flat_err = flat.train_batch(&batch);
            let naive_err = naive.train_batch(&batch);
            assert_eq!(flat_err, naive_err, "k={gibbs_steps} round {round}: training error");
            for i in 0..10 {
                assert_eq!(flat.w().row(i), &naive.w[i][..], "k={gibbs_steps} round {round}: w");
            }
            for j in 0..naive.num_hidden() {
                assert_eq!(flat.u().row(j), &naive.u[j][..], "k={gibbs_steps} round {round}: u");
            }
            assert_eq!(flat.a(), &naive.a[..]);
            assert_eq!(flat.b(), &naive.b[..]);
            assert_eq!(flat.c(), &naive.c[..]);
            assert_eq!(
                flat_batch_errors(&flat, &mut ws, &batch),
                naive.batch_reconstruction_errors(&batch),
                "k={gibbs_steps} round {round}: per-class errors"
            );
        }
    }
}
