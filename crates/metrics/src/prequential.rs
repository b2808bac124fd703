//! The prequential (test-then-train) evaluator.
//!
//! Every instance is first used to *test* the current classifier (its
//! prediction and per-class scores are recorded) and only then to train it.
//! Metrics are computed over a sliding window of `window_size` recent
//! predictions (the paper uses `W = 1000`), and the quantities reported in
//! Table III are the averages of those windowed metrics sampled once per
//! window over the whole stream.

use crate::auc::WindowedMultiClassAuc;
use crate::confusion::StreamingConfusionMatrix;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A point-in-time snapshot of the windowed metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrequentialSnapshot {
    /// Stream position at which the snapshot was taken.
    pub position: u64,
    /// Windowed multi-class AUC (pmAUC), in `[0, 1]`.
    pub pm_auc: f64,
    /// Windowed multi-class G-mean (pmGM), in `[0, 1]`.
    pub pm_gmean: f64,
    /// Windowed accuracy.
    pub accuracy: f64,
    /// Windowed Cohen's kappa.
    pub kappa: f64,
}

/// Sliding-window prequential evaluator combining pmAUC and pmGM.
#[derive(Debug, Clone)]
pub struct PrequentialEvaluator {
    num_classes: usize,
    window_size: usize,
    auc: WindowedMultiClassAuc,
    window_confusion: StreamingConfusionMatrix,
    /// Recent (true, predicted) pairs backing the windowed confusion matrix.
    recent: VecDeque<(usize, usize)>,
    /// Snapshots taken every `window_size` instances.
    snapshots: Vec<PrequentialSnapshot>,
    /// Total instances processed.
    count: u64,
    /// Running sums for stream-average metrics (computed from snapshots at
    /// the end, but also accumulated per instance for robustness on short
    /// streams).
    sum_auc: f64,
    sum_gmean: f64,
    samples: u64,
}

impl PrequentialEvaluator {
    /// Creates an evaluator with the given class count and window size.
    pub fn new(num_classes: usize, window_size: usize) -> Self {
        assert!(window_size > 0, "window size must be > 0");
        PrequentialEvaluator {
            num_classes,
            window_size,
            auc: WindowedMultiClassAuc::new(num_classes, window_size),
            window_confusion: StreamingConfusionMatrix::new(num_classes),
            recent: VecDeque::with_capacity(window_size),
            snapshots: Vec::new(),
            count: 0,
            sum_auc: 0.0,
            sum_gmean: 0.0,
            samples: 0,
        }
    }

    /// Records one tested instance: the true class, the predicted class and
    /// the per-class scores used for AUC.
    pub fn record(&mut self, true_class: usize, predicted_class: usize, scores: &[f64]) {
        self.auc.record(scores, true_class);
        if self.recent.len() == self.window_size {
            let (t, p) = self.recent.pop_front().expect("window non-empty");
            self.window_confusion.unrecord(t, p);
        }
        self.recent.push_back((true_class, predicted_class));
        self.window_confusion.record(true_class, predicted_class);
        self.count += 1;
        // Sample the windowed metrics once per full window (and once the
        // first window has filled), mirroring MOA's evaluation cadence.
        if self.count.is_multiple_of(self.window_size as u64) {
            let snap = self.snapshot();
            self.sum_auc += snap.pm_auc;
            self.sum_gmean += snap.pm_gmean;
            self.samples += 1;
            self.snapshots.push(snap);
        }
    }

    /// Current windowed metrics.
    pub fn snapshot(&self) -> PrequentialSnapshot {
        PrequentialSnapshot {
            position: self.count,
            pm_auc: self.auc.auc(),
            pm_gmean: self.window_confusion.g_mean(),
            accuracy: self.window_confusion.accuracy(),
            kappa: self.window_confusion.kappa(),
        }
    }

    /// The confusion matrix of the current window: windowed accuracy and
    /// kappa without the cost of a pmAUC.
    pub fn window_confusion(&self) -> &StreamingConfusionMatrix {
        &self.window_confusion
    }

    /// All periodic snapshots collected so far (one per full window).
    pub fn snapshots(&self) -> &[PrequentialSnapshot] {
        &self.snapshots
    }

    /// Stream-averaged pmAUC: the mean of the periodic windowed snapshots
    /// (falling back to the current window if the stream was shorter than
    /// one window).
    pub fn average_pm_auc(&self) -> f64 {
        if self.samples == 0 {
            self.auc.auc()
        } else {
            self.sum_auc / self.samples as f64
        }
    }

    /// Stream-averaged pmGM.
    pub fn average_pm_gmean(&self) -> f64 {
        if self.samples == 0 {
            self.window_confusion.g_mean()
        } else {
            self.sum_gmean / self.samples as f64
        }
    }

    /// Total number of instances processed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of classes being evaluated.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Window size.
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    /// Captures the evaluator's complete mutable state — the AUC window,
    /// the windowed confusion matrix, the periodic-snapshot history and the
    /// running stream averages — as a serde value. Restored with
    /// [`PrequentialEvaluator::restore_state`] onto an evaluator built with
    /// the same class count and window size, the evaluator continues
    /// bitwise-identically to one that was never checkpointed.
    pub fn snapshot_state(&self) -> serde::Value {
        serde::Value::object(vec![
            ("num_classes", self.num_classes.serialize_value()),
            ("window_size", self.window_size.serialize_value()),
            ("auc", self.auc.snapshot_state()),
            ("window_confusion", self.window_confusion.serialize_value()),
            ("recent", self.recent.serialize_value()),
            ("snapshots", self.snapshots.serialize_value()),
            ("count", self.count.serialize_value()),
            ("sum_auc", self.sum_auc.serialize_value()),
            ("sum_gmean", self.sum_gmean.serialize_value()),
            ("samples", self.samples.serialize_value()),
        ])
    }

    /// Restores state captured by [`PrequentialEvaluator::snapshot_state`].
    /// Fails if the snapshot was taken with a different class count or
    /// window size.
    pub fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let num_classes: usize = state.field("num_classes")?;
        let window_size: usize = state.field("window_size")?;
        if num_classes != self.num_classes || window_size != self.window_size {
            return Err(serde::Error::msg(format!(
                "evaluator shape mismatch: snapshot is {num_classes} classes / window \
                 {window_size}, evaluator is {} / {}",
                self.num_classes, self.window_size
            )));
        }
        self.auc.restore_state(state.req("auc")?)?;
        self.window_confusion =
            StreamingConfusionMatrix::deserialize_value(state.req("window_confusion")?)?;
        if self.window_confusion.num_classes() != self.num_classes {
            return Err(serde::Error::msg("confusion matrix class count mismatch"));
        }
        self.recent = state.field("recent")?;
        self.snapshots = state.field("snapshots")?;
        self.count = state.field("count")?;
        self.sum_auc = state.field("sum_auc")?;
        self.sum_gmean = state.field("sum_gmean")?;
        self.samples = state.field("samples")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_hot(n: usize, class: usize) -> Vec<f64> {
        (0..n).map(|c| if c == class { 0.9 } else { 0.1 / (n as f64 - 1.0) }).collect()
    }

    #[test]
    fn perfect_predictions_max_out_metrics() {
        let mut ev = PrequentialEvaluator::new(3, 100);
        for i in 0..1000u64 {
            let c = (i % 3) as usize;
            ev.record(c, c, &one_hot(3, c));
        }
        assert_eq!(ev.count(), 1000);
        assert!((ev.average_pm_auc() - 1.0).abs() < 1e-9);
        assert!((ev.average_pm_gmean() - 1.0).abs() < 1e-9);
        let snap = ev.snapshot();
        assert!((snap.accuracy - 1.0).abs() < 1e-12);
        assert!((snap.kappa - 1.0).abs() < 1e-12);
        assert_eq!(ev.snapshots().len(), 10);
    }

    #[test]
    fn majority_guessing_scores_poorly_on_skew_aware_metrics() {
        // 95:5 imbalance, classifier always predicts the majority class with
        // a constant score: accuracy is high but pmAUC ≈ 0.5 and pmGM = 0.
        let mut ev = PrequentialEvaluator::new(2, 200);
        for i in 0..2000u64 {
            let true_class = if i % 20 == 0 { 1 } else { 0 };
            ev.record(true_class, 0, &[0.7, 0.3]);
        }
        let snap = ev.snapshot();
        assert!(snap.accuracy > 0.9);
        assert!((ev.average_pm_auc() - 0.5).abs() < 0.01, "pmAUC = {}", ev.average_pm_auc());
        assert_eq!(ev.average_pm_gmean(), 0.0);
        assert!(snap.kappa.abs() < 0.05);
    }

    #[test]
    fn windowed_metric_recovers_after_a_bad_phase() {
        let mut ev = PrequentialEvaluator::new(2, 100);
        // 500 bad predictions then 500 perfect ones: the final window view
        // must be perfect even though the average remembers the bad phase.
        for i in 0..500u64 {
            let c = (i % 2) as usize;
            ev.record(c, 1 - c, &one_hot(2, 1 - c));
        }
        for i in 0..500u64 {
            let c = (i % 2) as usize;
            ev.record(c, c, &one_hot(2, c));
        }
        let snap = ev.snapshot();
        assert!((snap.pm_auc - 1.0).abs() < 1e-9);
        assert!((snap.pm_gmean - 1.0).abs() < 1e-9);
        let avg = ev.average_pm_auc();
        assert!(avg > 0.4 && avg < 0.8, "average must blend both phases, got {avg}");
    }

    #[test]
    fn short_stream_falls_back_to_current_window() {
        let mut ev = PrequentialEvaluator::new(2, 1000);
        for i in 0..50u64 {
            let c = (i % 2) as usize;
            ev.record(c, c, &one_hot(2, c));
        }
        // No full window yet — averages come from the live window.
        assert!(ev.snapshots().is_empty());
        assert!((ev.average_pm_auc() - 1.0).abs() < 1e-9);
        assert!((ev.average_pm_gmean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_positions_are_window_aligned() {
        let mut ev = PrequentialEvaluator::new(2, 50);
        for i in 0..175u64 {
            let c = (i % 2) as usize;
            ev.record(c, c, &one_hot(2, c));
        }
        let positions: Vec<u64> = ev.snapshots().iter().map(|s| s.position).collect();
        assert_eq!(positions, vec![50, 100, 150]);
        assert_eq!(ev.window_size(), 50);
        assert_eq!(ev.num_classes(), 2);
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        PrequentialEvaluator::new(2, 0);
    }

    /// Checkpoint at an awkward mid-window cut, serialize to JSON, restore
    /// into a fresh evaluator, continue: every metric must match the
    /// uninterrupted evaluator bitwise.
    #[test]
    fn checkpoint_roundtrip_is_bitwise_identical() {
        let mut uninterrupted = PrequentialEvaluator::new(3, 100);
        let mut head = PrequentialEvaluator::new(3, 100);
        let score = |i: u64, c: usize| {
            let mut s = one_hot(3, c);
            // Slightly noisy scores so AUC state is non-trivial.
            s[(i % 3) as usize] += 0.01 * ((i % 7) as f64);
            s
        };
        for i in 0..537u64 {
            let true_class = (i % 3) as usize;
            let predicted = if i % 5 == 0 { (true_class + 1) % 3 } else { true_class };
            uninterrupted.record(true_class, predicted, &score(i, true_class));
            head.record(true_class, predicted, &score(i, true_class));
        }
        let json = serde_json::to_string(&head.snapshot_state()).unwrap();
        let mut resumed = PrequentialEvaluator::new(3, 100);
        resumed.restore_state(&serde_json::parse_value(&json).unwrap()).unwrap();
        for i in 537..1_483u64 {
            let true_class = (i % 3) as usize;
            let predicted = if i % 4 == 0 { (true_class + 2) % 3 } else { true_class };
            uninterrupted.record(true_class, predicted, &score(i, true_class));
            resumed.record(true_class, predicted, &score(i, true_class));
        }
        assert_eq!(resumed.snapshot(), uninterrupted.snapshot());
        assert_eq!(resumed.average_pm_auc(), uninterrupted.average_pm_auc());
        assert_eq!(resumed.average_pm_gmean(), uninterrupted.average_pm_gmean());
        assert_eq!(resumed.snapshots(), uninterrupted.snapshots());
        assert_eq!(resumed.count(), uninterrupted.count());

        // Shape mismatches are rejected, not silently accepted.
        let mut wrong = PrequentialEvaluator::new(4, 100);
        assert!(wrong.restore_state(&serde_json::parse_value(&json).unwrap()).is_err());
    }
}
