//! Windowed multi-class AUC (the "pmAUC" of the paper).
//!
//! Following Wang & Minku (2020), the prequential multi-class AUC keeps a
//! sliding window of the most recent `(score vector, true class)` pairs and
//! computes the Hand & Till M-measure over the window: the average, over all
//! ordered class pairs `(i, j)`, of the probability that a random window
//! instance of class `i` receives a higher class-`i` score than a random
//! window instance of class `j` (ties count one half).
//!
//! The window makes the metric *prequential* (it follows the current state
//! of the stream) and the pairwise averaging makes it insensitive to class
//! imbalance — the property the paper's evaluation depends on.
//!
//! # One sort per class
//!
//! `A(i | j)` is the Mann–Whitney statistic of the class-`i` scores of the
//! class-`i` and class-`j` instances: rank those `n_i + n_j` values (tied
//! values share their mean rank), sum the ranks of the class-`i` ones and
//! subtract `n_i (n_i + 1) / 2`. Computed pair by pair this costs
//! `Z(Z − 1)` filters and sorts of the window for `Z` classes.
//!
//! [`WindowedMultiClassAuc::auc`] instead sorts the whole window once per
//! class `i` present, by class-`i` score, and walks its tie groups (runs of
//! equal scores) in ascending order. Restricted to classes `{i, j}`, each
//! group is exactly one tie group of the pairwise ranking, starting at
//! position `pos = seen_i + seen_j` (the class-`i` and class-`j` items in
//! earlier groups) with size `g = in_group_i + in_group_j`. So one pass adds
//! the midrank `(2·pos + g − 1) / 2 + 1` once per class-`i` item of the
//! group to the rank sum of every pair `(i, j)` at the same time.
//!
//! The result is bit-identical to the pairwise computation. Each rank sum
//! receives the same `f64` addends in the same order (groups ascending; the
//! midrank is computed from the same integer), the pairs are averaged in the
//! same `i`, `j` order, and the order *inside* a tie group cannot matter, so
//! an unstable sort suffices. Sorting is on the IEEE total-order bits of
//! the score with `-0.0` folded onto `0.0`, which orders and ties exactly
//! as `f64` comparison does; a NaN score panics whenever the pairwise form
//! would have had to compare it.
//!
//! The window itself is a flat ring buffer (`Z` scores plus one class per
//! slot), so recording an instance into a full window allocates nothing.

/// Sliding-window multi-class AUC estimator.
#[derive(Debug, Clone)]
pub struct WindowedMultiClassAuc {
    num_classes: usize,
    capacity: usize,
    /// Per-class scores of each window slot, `num_classes` per slot. Grows
    /// to `capacity` slots, then acts as a ring buffer.
    scores: Vec<f64>,
    /// True class of each window slot.
    classes: Vec<u32>,
    /// Slot of the oldest entry (0 until the window is full).
    head: usize,
}

impl WindowedMultiClassAuc {
    /// Creates an estimator over `num_classes` classes with a window of
    /// `capacity` recent predictions (the paper uses 1000).
    ///
    /// # Panics
    /// Panics if `num_classes < 2` or `capacity == 0`.
    pub fn new(num_classes: usize, capacity: usize) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        assert!(u32::try_from(num_classes).is_ok(), "too many classes");
        assert!(capacity > 0, "window capacity must be > 0");
        WindowedMultiClassAuc {
            num_classes,
            capacity,
            scores: Vec::new(),
            classes: Vec::new(),
            head: 0,
        }
    }

    /// Adds one prediction (per-class scores and the true class).
    ///
    /// # Panics
    /// Panics if `scores.len() != num_classes` or `true_class` is out of
    /// range.
    pub fn record(&mut self, scores: &[f64], true_class: usize) {
        assert_eq!(scores.len(), self.num_classes, "score vector length mismatch");
        assert!(true_class < self.num_classes, "true class out of range");
        let z = self.num_classes;
        if self.classes.len() < self.capacity {
            reserve_capped(&mut self.classes, 1, self.capacity);
            reserve_capped(&mut self.scores, z, self.capacity * z);
            self.classes.push(true_class as u32);
            self.scores.extend_from_slice(scores);
        } else {
            let slot = self.head;
            self.classes[slot] = true_class as u32;
            self.scores[slot * z..(slot + 1) * z].copy_from_slice(scores);
            self.head = if slot + 1 == self.capacity { 0 } else { slot + 1 };
        }
    }

    /// Number of predictions currently in the window.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The multi-class AUC over the current window: the mean of
    /// `A(i | j)` over all ordered pairs of classes present in the window.
    /// Returns 0.5 (chance level) if fewer than two classes are present.
    ///
    /// # Panics
    /// Panics if two or more classes are present and a window score of a
    /// present class is NaN.
    pub fn auc(&self) -> f64 {
        let z = self.num_classes;
        let mut support = vec![0usize; z];
        for &c in &self.classes {
            support[c as usize] += 1;
        }
        let present: Vec<usize> = (0..z).filter(|&c| support[c] > 0).collect();
        if present.len() < 2 {
            return 0.5;
        }
        let mut keys: Vec<(u64, u32)> = Vec::with_capacity(self.classes.len());
        let mut rank_sums = vec![0.0f64; z];
        let mut seen = vec![0usize; z];
        let mut in_group = vec![0usize; z];
        let mut sum = 0.0;
        let mut count = 0usize;
        for &i in &present {
            keys.clear();
            keys.extend(
                self.classes
                    .iter()
                    .zip(self.scores.chunks_exact(z))
                    .map(|(&c, s)| (order_key(s[i]), c)),
            );
            keys.sort_unstable_by_key(|&(key, _)| key);
            rank_sums.fill(0.0);
            seen.fill(0);
            for group in keys.chunk_by(|a, b| a.0 == b.0) {
                for &(_, c) in group {
                    in_group[c as usize] += 1;
                }
                let g_i = in_group[i];
                if g_i > 0 {
                    for &j in present.iter().filter(|&&j| j != i) {
                        let pos = seen[i] + seen[j];
                        let g = g_i + in_group[j];
                        let avg_rank = (pos + pos + g - 1) as f64 / 2.0 + 1.0;
                        // Added once per item, not multiplied, so the rank
                        // sum rounds exactly as the pairwise form's does.
                        for _ in 0..g_i {
                            rank_sums[j] += avg_rank;
                        }
                    }
                }
                for &(_, c) in group {
                    seen[c as usize] += in_group[c as usize];
                    in_group[c as usize] = 0;
                }
            }
            let n_i = support[i] as f64;
            for &j in present.iter().filter(|&&j| j != i) {
                let n_j = support[j] as f64;
                let u = rank_sums[j] - n_i * (n_i + 1.0) / 2.0;
                sum += u / (n_i * n_j);
                count += 1;
            }
        }
        sum / count as f64
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.scores.clear();
        self.classes.clear();
        self.head = 0;
    }

    /// Captures the window contents as a serde value (checkpoint support);
    /// restored with [`WindowedMultiClassAuc::restore_state`] onto an
    /// estimator of the same shape. The `window` field lists the
    /// `[scores, class]` pairs oldest first.
    pub fn snapshot_state(&self) -> serde::Value {
        use serde::Serialize;
        let z = self.num_classes;
        let oldest_first = (self.head..self.classes.len()).chain(0..self.head);
        let window = oldest_first
            .map(|slot| {
                (&self.scores[slot * z..(slot + 1) * z], self.classes[slot] as usize)
                    .serialize_value()
            })
            .collect();
        serde::Value::object(vec![
            ("num_classes", self.num_classes.serialize_value()),
            ("capacity", self.capacity.serialize_value()),
            ("window", serde::Value::Array(window)),
        ])
    }

    /// Restores state captured by [`WindowedMultiClassAuc::snapshot_state`].
    pub fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let num_classes: usize = state.field("num_classes")?;
        let capacity: usize = state.field("capacity")?;
        if num_classes != self.num_classes || capacity != self.capacity {
            return Err(serde::Error::msg(format!(
                "auc window shape mismatch: snapshot is {num_classes} classes / capacity \
                 {capacity}, estimator is {} / {}",
                self.num_classes, self.capacity
            )));
        }
        let window: Vec<(Vec<f64>, usize)> = state.field("window")?;
        if window.len() > capacity {
            return Err(serde::Error::msg(format!(
                "auc window holds {} entries, capacity is {capacity}",
                window.len()
            )));
        }
        if let Some((scores, class)) =
            window.iter().find(|(s, c)| s.len() != num_classes || *c >= num_classes)
        {
            return Err(serde::Error::msg(format!(
                "auc window entry has {} scores and class {class}, estimator has {num_classes} \
                 classes",
                scores.len()
            )));
        }
        self.classes = window.iter().map(|&(_, c)| c as u32).collect();
        self.scores = Vec::with_capacity(window.len() * num_classes);
        for (scores, _) in &window {
            self.scores.extend_from_slice(scores);
        }
        self.head = 0;
        Ok(())
    }
}

/// Reserves room for `extra` more items, growing geometrically like
/// `Vec::push` but never beyond `limit` items in total.
fn reserve_capped<T>(v: &mut Vec<T>, extra: usize, limit: usize) {
    if v.capacity() - v.len() < extra {
        v.reserve_exact(v.len().max(extra).min(limit - v.len()));
    }
}

/// Sort key whose integer order and equality match `f64` comparison of
/// non-NaN scores: the IEEE total-order bits, with `-0.0` folded onto
/// `0.0` so the two tie as they do under `==`.
///
/// # Panics
/// Panics on NaN.
fn order_key(score: f64) -> u64 {
    assert!(!score.is_nan(), "scores must not be NaN");
    let bits = if score == 0.0 { 0.0f64 } else { score }.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-hot score vector helper.
    fn one_hot(n: usize, class: usize, confidence: f64) -> Vec<f64> {
        let rest = (1.0 - confidence) / (n as f64 - 1.0);
        (0..n).map(|c| if c == class { confidence } else { rest }).collect()
    }

    #[test]
    fn perfect_scores_give_auc_one() {
        let mut auc = WindowedMultiClassAuc::new(3, 100);
        for i in 0..60 {
            let class = i % 3;
            auc.record(&one_hot(3, class, 0.9), class);
        }
        assert!((auc.auc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_scores_give_auc_half() {
        let mut auc = WindowedMultiClassAuc::new(4, 400);
        // Identical scores for every instance: all pairwise comparisons tie.
        for i in 0..400 {
            auc.record(&[0.25, 0.25, 0.25, 0.25], i % 4);
        }
        assert!((auc.auc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inverted_scores_give_auc_zero() {
        let mut auc = WindowedMultiClassAuc::new(2, 100);
        for i in 0..100 {
            let class = i % 2;
            // Score is always higher for the wrong class.
            let scores = if class == 0 { vec![0.1, 0.9] } else { vec![0.9, 0.1] };
            auc.record(&scores, class);
        }
        assert!(auc.auc() < 1e-12);
    }

    #[test]
    fn imbalance_does_not_inflate_auc() {
        // A classifier that always scores class 0 highest: on a 99:1
        // imbalanced window its accuracy would be 99%, but its AUC must be
        // 0.5 because it cannot separate the classes.
        let mut auc = WindowedMultiClassAuc::new(2, 1000);
        for i in 0..1000 {
            let class = if i % 100 == 0 { 1 } else { 0 };
            auc.record(&[0.8, 0.2], class);
        }
        assert!((auc.auc() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn partial_separation_is_between_half_and_one() {
        let mut auc = WindowedMultiClassAuc::new(2, 200);
        for i in 0..200 {
            let class = i % 2;
            // Class-1 instances score a bit higher on class 1, with overlap.
            let s1 =
                if class == 1 { 0.5 + (i % 7) as f64 * 0.05 } else { 0.4 + (i % 5) as f64 * 0.05 };
            auc.record(&[1.0 - s1, s1], class);
        }
        let a = auc.auc();
        assert!(a > 0.55 && a < 0.95, "auc = {a}");
    }

    #[test]
    fn missing_class_falls_back_gracefully() {
        let mut auc = WindowedMultiClassAuc::new(3, 50);
        for _ in 0..20 {
            auc.record(&one_hot(3, 0, 0.9), 0);
        }
        // Only one class present → chance level by definition.
        assert_eq!(auc.auc(), 0.5);
        // Two of three classes present: only those pairs count.
        for _ in 0..20 {
            auc.record(&one_hot(3, 1, 0.9), 1);
        }
        assert!((auc.auc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_slides() {
        let mut auc = WindowedMultiClassAuc::new(2, 10);
        // Fill with bad predictions, then push 10 perfect ones: the bad ones
        // must be evicted entirely.
        for i in 0..10 {
            let class = i % 2;
            let scores = if class == 0 { vec![0.1, 0.9] } else { vec![0.9, 0.1] };
            auc.record(&scores, class);
        }
        for i in 0..10 {
            let class = i % 2;
            auc.record(&one_hot(2, class, 0.95), class);
        }
        assert_eq!(auc.len(), 10);
        assert!((auc.auc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_window() {
        let mut auc = WindowedMultiClassAuc::new(2, 10);
        auc.record(&[0.4, 0.6], 1);
        assert!(!auc.is_empty());
        auc.reset();
        assert!(auc.is_empty());
        assert_eq!(auc.auc(), 0.5);
    }

    #[test]
    fn signed_zeros_tie() {
        let mut auc = WindowedMultiClassAuc::new(2, 10);
        auc.record(&[0.5, 0.0], 0);
        auc.record(&[0.5, -0.0], 1);
        assert_eq!(auc.auc(), 0.5);
    }

    #[test]
    #[should_panic(expected = "scores must not be NaN")]
    fn nan_score_of_a_present_class_panics() {
        let mut auc = WindowedMultiClassAuc::new(3, 10);
        auc.record(&[0.2, f64::NAN, 0.1], 0);
        auc.record(&[0.2, 0.7, 0.1], 1);
        auc.auc();
    }

    #[test]
    fn nan_score_of_an_absent_class_is_never_compared() {
        let mut auc = WindowedMultiClassAuc::new(3, 10);
        auc.record(&[0.8, 0.2, f64::NAN], 0);
        auc.record(&[0.3, 0.7, f64::NAN], 1);
        assert_eq!(auc.auc(), 1.0);
    }

    #[test]
    fn restore_rejects_malformed_windows() {
        let mut auc = WindowedMultiClassAuc::new(2, 2);
        let bad = |window: &str| {
            serde_json::parse_value(&format!(
                r#"{{"num_classes":2,"capacity":2,"window":{window}}}"#
            ))
            .unwrap()
        };
        assert!(auc.restore_state(&bad("[[[0.1,0.9],1]]")).is_ok());
        assert!(auc.restore_state(&bad("[[[0.1],1]]")).is_err());
        assert!(auc.restore_state(&bad("[[[0.1,0.9],2]]")).is_err());
        assert!(auc.restore_state(&bad("[[[0.1,0.9],1],[[0.1,0.9],1],[[0.1,0.9],1]]")).is_err());
        assert_eq!(auc.len(), 1);
    }

    #[test]
    #[should_panic]
    fn wrong_score_length_rejected() {
        WindowedMultiClassAuc::new(3, 10).record(&[0.5, 0.5], 0);
    }
}
