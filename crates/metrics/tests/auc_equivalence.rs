//! Bitwise equivalence of [`WindowedMultiClassAuc::auc`] (one sort per
//! class) with the pairwise definition (one filter and sort per ordered
//! class pair), kept here as the reference.
//!
//! Windows are tie-heavy (quantized scores, signed zeros), may miss
//! classes or hold a single one, wrap around the ring buffer several times,
//! and are also rebuilt through `restore_state` from the reference's
//! checkpoint. Every comparison is on `to_bits()`.

use proptest::prelude::*;
use proptest::TestRng;
use rbm_im_metrics::WindowedMultiClassAuc;

/// The pairwise pmAUC: a `VecDeque` window, and for every ordered pair
/// `(i, j)` of present classes a fresh sort of the class-`i` scores of the
/// class-`i` and class-`j` instances with midrank tie handling.
mod reference {
    use serde::Serialize;
    use std::collections::VecDeque;

    pub struct PairwiseAuc {
        num_classes: usize,
        capacity: usize,
        window: VecDeque<(Vec<f64>, usize)>,
    }

    impl PairwiseAuc {
        pub fn new(num_classes: usize, capacity: usize) -> Self {
            PairwiseAuc { num_classes, capacity, window: VecDeque::with_capacity(capacity) }
        }

        pub fn record(&mut self, scores: &[f64], true_class: usize) {
            if self.window.len() == self.capacity {
                self.window.pop_front();
            }
            self.window.push_back((scores.to_vec(), true_class));
        }

        fn pairwise_auc(&self, class_i: usize, class_j: usize) -> Option<f64> {
            let scores_i: Vec<f64> = self
                .window
                .iter()
                .filter(|(_, c)| *c == class_i)
                .map(|(s, _)| s[class_i])
                .collect();
            let scores_j: Vec<f64> = self
                .window
                .iter()
                .filter(|(_, c)| *c == class_j)
                .map(|(s, _)| s[class_i])
                .collect();
            if scores_i.is_empty() || scores_j.is_empty() {
                return None;
            }
            let mut combined: Vec<(f64, bool)> = scores_i
                .iter()
                .map(|&s| (s, true))
                .chain(scores_j.iter().map(|&s| (s, false)))
                .collect();
            combined.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("scores must not be NaN"));
            let mut rank_sum_i = 0.0;
            let mut idx = 0usize;
            let n = combined.len();
            while idx < n {
                let mut j = idx;
                while j + 1 < n && combined[j + 1].0 == combined[idx].0 {
                    j += 1;
                }
                let avg_rank = (idx + j) as f64 / 2.0 + 1.0;
                for item in &combined[idx..=j] {
                    if item.1 {
                        rank_sum_i += avg_rank;
                    }
                }
                idx = j + 1;
            }
            let n_i = scores_i.len() as f64;
            let n_j = scores_j.len() as f64;
            let u = rank_sum_i - n_i * (n_i + 1.0) / 2.0;
            Some(u / (n_i * n_j))
        }

        pub fn auc(&self) -> f64 {
            let mut sum = 0.0;
            let mut count = 0usize;
            for i in 0..self.num_classes {
                for j in 0..self.num_classes {
                    if i == j {
                        continue;
                    }
                    if let Some(a) = self.pairwise_auc(i, j) {
                        sum += a;
                        count += 1;
                    }
                }
            }
            if count == 0 {
                0.5
            } else {
                sum / count as f64
            }
        }

        pub fn snapshot_state(&self) -> serde::Value {
            serde::Value::object(vec![
                ("num_classes", self.num_classes.serialize_value()),
                ("capacity", self.capacity.serialize_value()),
                ("window", self.window.serialize_value()),
            ])
        }
    }
}

/// A random window feed: which classes occur and how often, and how
/// coarsely scores are quantized.
struct Feed {
    rng: TestRng,
    classes: Vec<usize>,
    levels: u64,
    signed: bool,
}

impl Feed {
    fn new(z: usize, seed: u64, single_class: bool) -> Self {
        let mut rng = TestRng::seed(seed);
        let mut classes: Vec<usize> = (0..z).filter(|_| rng.below(3) != 0).collect();
        if classes.is_empty() || single_class {
            classes = vec![rng.below(z as u64) as usize];
        }
        // Skew: repeat early classes so later ones are rare.
        let skewed: Vec<usize> =
            classes.iter().enumerate().flat_map(|(k, &c)| vec![c; classes.len() - k]).collect();
        let levels = [1, 2, 3, 8, 64, 0][rng.below(6) as usize];
        let signed = rng.below(2) == 0;
        Feed { rng, classes: skewed, levels, signed }
    }

    fn next(&mut self, z: usize) -> (Vec<f64>, usize) {
        let class = self.classes[self.rng.below(self.classes.len() as u64) as usize];
        let scores = (0..z)
            .map(|c| {
                let u = self.rng.unit_f64();
                let raw = if c == class { 0.25 + 0.75 * u } else { u };
                let mut s = if self.levels == 0 {
                    raw
                } else {
                    (raw * self.levels as f64).floor() / self.levels as f64
                };
                if self.signed {
                    s -= 0.5;
                }
                if s == 0.0 && self.rng.below(2) == 0 {
                    s = -0.0;
                }
                s
            })
            .collect();
        (scores, class)
    }
}

fn restored_from(
    reference: &reference::PairwiseAuc,
    z: usize,
    cap: usize,
) -> WindowedMultiClassAuc {
    let json = serde_json::to_string(&reference.snapshot_state()).unwrap();
    let mut auc = WindowedMultiClassAuc::new(z, cap);
    auc.restore_state(&serde_json::parse_value(&json).unwrap()).unwrap();
    assert_eq!(serde_json::to_string(&auc.snapshot_state()).unwrap(), json);
    auc
}

fn check(sort_once: &WindowedMultiClassAuc, pairwise: &reference::PairwiseAuc, at: usize) {
    let (got, want) = (sort_once.auc(), pairwise.auc());
    assert_eq!(got.to_bits(), want.to_bits(), "after {at} records: {got} != {want}");
    assert_eq!(sort_once.snapshot_state(), pairwise.snapshot_state(), "window after {at} records");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sort_once_auc_is_bitwise_the_pairwise_auc(
        z in 2usize..13,
        cap in 1usize..1201,
        seed in 0u64..1_000_000_000,
        shape in 0usize..8,
    ) {
        // Small windows half of the time, so wrap-around is dense.
        let cap = if shape % 2 == 0 { 1 + cap % 24 } else { cap };
        let mut feed = Feed::new(z, seed, shape == 1);
        let mut fast = WindowedMultiClassAuc::new(z, cap);
        let mut pairwise = reference::PairwiseAuc::new(z, cap);
        let total = cap * 3 + cap / 2 + 1;
        let restore_at = total / 3;
        let mut restored: Option<WindowedMultiClassAuc> = None;
        for n in 1..=total {
            let (scores, class) = feed.next(z);
            fast.record(&scores, class);
            pairwise.record(&scores, class);
            if let Some(r) = restored.as_mut() {
                r.record(&scores, class);
            }
            if n == restore_at {
                restored = Some(restored_from(&pairwise, z, cap));
            }
            if n % (cap.max(8) / 2) == 0 || n == total {
                check(&fast, &pairwise, n);
                if let Some(r) = restored.as_ref() {
                    check(r, &pairwise, n);
                }
            }
        }
        prop_assert_eq!(fast.len(), cap.min(total));
    }
}

#[test]
fn single_class_and_empty_windows_are_chance_level() {
    let mut fast = WindowedMultiClassAuc::new(4, 5);
    let mut pairwise = reference::PairwiseAuc::new(4, 5);
    check(&fast, &pairwise, 0);
    for k in 0..12 {
        let scores = [0.1 * k as f64, 0.5, -0.0, 0.0];
        fast.record(&scores, 2);
        pairwise.record(&scores, 2);
        check(&fast, &pairwise, k + 1);
    }
    assert_eq!(fast.auc(), 0.5);
}
