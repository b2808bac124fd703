//! Per-instance pipeline stepping: the prequential test/detect/train core
//! of [`PipelineBuilder::run`](crate::pipeline::PipelineBuilder::run),
//! exposed as a pausable state machine.
//!
//! [`PipelineBuilder::run`](crate::pipeline::PipelineBuilder::run) owns a
//! stream and drives it to exhaustion; a
//! serving shard owns *many* streams and interleaves them as ingest
//! arrives, so it needs the same loop body with the stream inverted out:
//! feed one [`Instance`], get the events, keep the state. That is
//! [`PipelineStepper`]. `run` itself is implemented on top of this type, so
//! a sequential pipeline run and a sharded serving run execute literally
//! the same code per instance — which is what makes the serving layer's
//! determinism pin (identical drift offsets and metrics at any shard count,
//! matching the sequential run) hold by construction rather than by
//! coincidence.
//!
//! The stepper preserves the run loop's exact semantics, including the
//! batched-detector mode: with `RunConfig::detector_batch > 1`,
//! observations are buffered after training and flushed through
//! `update_batch` when the micro-batch fills ([`PipelineStepper::flush`]
//! handles the trailing partial batch at detach/shutdown, exactly like the
//! trailing flush at stream exhaustion).

use crate::checkpoint::CheckpointError;
use crate::pipeline::{PipelineError, PipelineEvent, RunConfig, RunResult};
use crate::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_classifiers::{argmax, CostSensitivePerceptronTree, OnlineClassifier};
use rbm_im_detectors::{DetectorState, DriftDetector, Observation};
use rbm_im_metrics::{PrequentialEvaluator, PrequentialSnapshot};
use rbm_im_streams::{Instance, StreamSchema};
use std::time::Instant;

/// The prequential loop body as a feedable state machine: one classifier,
/// one detector, one evaluator, plus the reused buffers of the hot path.
/// Events (drift / warning / snapshot) are delivered to the `on_event`
/// callback passed to each call, using the same borrowed
/// [`PipelineEvent`] type the builder's sinks receive.
pub struct PipelineStepper<C: OnlineClassifier = CostSensitivePerceptronTree> {
    classifier: C,
    detector: Box<dyn DriftDetector + Send>,
    detector_label: String,
    config: RunConfig,
    batch_size: usize,
    evaluator: PrequentialEvaluator,
    detections: Vec<u64>,
    detector_update_seconds: f64,
    test_seconds: f64,
    train_seconds: f64,
    processed: u64,
    // Buffers reused across the whole stream: per-class scores, per-signal
    // drift attribution, batched observations and their positions.
    scores: Vec<f64>,
    drifted: Vec<usize>,
    drift_offsets: Vec<usize>,
    pending: Vec<(Instance, usize)>,
    last_state: DetectorState,
}

impl PipelineStepper<CostSensitivePerceptronTree> {
    /// A stepper with the paper's base classifier (CSPT built from the
    /// schema) and the detector resolved from `spec` against `registry`.
    pub fn from_spec(
        registry: &DetectorRegistry,
        spec: &DetectorSpec,
        schema: &StreamSchema,
        config: RunConfig,
    ) -> Result<Self, PipelineError> {
        let detector = registry.build(spec, schema.num_features, schema.num_classes)?;
        let classifier = CostSensitivePerceptronTree::new(schema.num_features, schema.num_classes);
        Ok(PipelineStepper::new(classifier, detector, spec.label(), schema.num_classes, config))
    }
}

impl<C: OnlineClassifier> PipelineStepper<C> {
    /// Assembles a stepper from pre-built parts.
    pub fn new(
        classifier: C,
        detector: Box<dyn DriftDetector + Send>,
        detector_label: String,
        num_classes: usize,
        config: RunConfig,
    ) -> Self {
        let batch_size = config.detector_batch.max(1);
        PipelineStepper {
            classifier,
            detector,
            detector_label,
            config,
            batch_size,
            evaluator: PrequentialEvaluator::new(num_classes, config.metric_window),
            detections: Vec::new(),
            detector_update_seconds: 0.0,
            test_seconds: 0.0,
            train_seconds: 0.0,
            processed: 0,
            scores: Vec::with_capacity(num_classes),
            drifted: Vec::with_capacity(num_classes),
            drift_offsets: Vec::with_capacity(batch_size),
            pending: Vec::with_capacity(batch_size),
            last_state: DetectorState::Stable,
        }
    }

    /// Processes one instance: test (predict + record metrics), detect,
    /// train — the exact loop body of a sequential pipeline run. Drift /
    /// warning / snapshot events fire into `on_event` as they occur.
    pub fn step(&mut self, instance: Instance, on_event: &mut dyn FnMut(&PipelineEvent<'_>)) {
        // Test.
        let test_start = Instant::now();
        self.classifier.predict_scores_into(&instance.features, &mut self.scores);
        let predicted = argmax(&self.scores);
        self.evaluator.record(instance.class, predicted, &self.scores);
        self.test_seconds += test_start.elapsed().as_secs_f64();

        // Detect (per-instance mode): straight through `update`, so drift
        // reaction (classifier reset) happens before this instance is
        // learned, exactly like the paper's protocol. Batched mode instead
        // buffers after training, below.
        if self.batch_size == 1 {
            let observation = Observation {
                features: &instance.features,
                true_class: instance.class,
                predicted_class: predicted,
                correct: predicted == instance.class,
            };
            let update_start = Instant::now();
            let state = self.detector.update(&observation);
            self.detector_update_seconds += update_start.elapsed().as_secs_f64();
            if state.is_drift() {
                self.detections.push(instance.index);
                self.detector.drifted_classes_into(&mut self.drifted);
                on_event(&PipelineEvent::Drift {
                    position: instance.index,
                    classes: &self.drifted,
                });
                if self.config.reset_on_drift {
                    self.classifier.reset();
                }
            } else if state.is_warning() && !self.last_state.is_warning() {
                on_event(&PipelineEvent::Warning { position: instance.index });
            }
            self.last_state = state;
        }

        // Train.
        let train_start = Instant::now();
        self.classifier.learn(&instance);
        self.train_seconds += train_start.elapsed().as_secs_f64();
        self.processed += 1;

        if let Some(every) = self.config.snapshot_every {
            if every > 0 && self.processed.is_multiple_of(every) {
                on_event(&PipelineEvent::Snapshot {
                    position: instance.index,
                    snapshot: self.evaluator.snapshot(),
                });
            }
        }

        // Batched detection: move the (already learned) instance into the
        // pending buffer — no feature clone — and flush through
        // `update_batch` when full. A drift found in the flush resets the
        // classifier from the next instance on (batching already trades
        // reaction latency for throughput; per-instance mode keeps the
        // paper's exact reset-before-learn ordering).
        if self.batch_size > 1 {
            self.pending.push((instance, predicted));
            if self.pending.len() >= self.batch_size {
                self.flush(on_event);
            }
        }
    }

    /// Flushes a pending partial detector micro-batch (no-op in
    /// per-instance mode or when nothing is pending). A sequential run
    /// flushes at stream exhaustion; a serving shard flushes at stream
    /// detach and server shutdown.
    pub fn flush(&mut self, on_event: &mut dyn FnMut(&PipelineEvent<'_>)) {
        if self.pending.is_empty() {
            return;
        }
        let observations: Vec<Observation<'_>> = self
            .pending
            .iter()
            .map(|(instance, predicted)| Observation {
                features: &instance.features,
                true_class: instance.class,
                predicted_class: *predicted,
                correct: *predicted == instance.class,
            })
            .collect();
        let update_start = Instant::now();
        let state = self.detector.update_batch(&observations, &mut self.drift_offsets);
        self.detector_update_seconds += update_start.elapsed().as_secs_f64();
        drop(observations);
        if !self.drift_offsets.is_empty() {
            self.detector.drifted_classes_into(&mut self.drifted);
            for i in 0..self.drift_offsets.len() {
                let position = self.pending[self.drift_offsets[i]].0.index;
                self.detections.push(position);
                on_event(&PipelineEvent::Drift { position, classes: &self.drifted });
            }
            if self.config.reset_on_drift {
                self.classifier.reset();
            }
        } else if state.is_warning() && !self.last_state.is_warning() {
            on_event(&PipelineEvent::Warning {
                position: self.pending.last().expect("pending not empty").0.index,
            });
        }
        self.last_state = state;
        self.pending.clear();
    }

    /// Number of instances processed so far.
    pub fn instances(&self) -> u64 {
        self.processed
    }

    /// Positions at which the detector signalled drift so far.
    pub fn detections(&self) -> &[u64] {
        &self.detections
    }

    /// The detector label recorded in results.
    pub fn detector_label(&self) -> &str {
        &self.detector_label
    }

    /// Current windowed metrics.
    pub fn snapshot(&self) -> PrequentialSnapshot {
        self.evaluator.snapshot()
    }

    /// Flushes any pending micro-batch (emitting its events) and closes the
    /// stepper into a [`RunResult`], returning the detector alongside so
    /// callers can reclaim state (the serving layer returns pooled RBM
    /// workspaces this way).
    pub fn finish(
        mut self,
        stream_label: impl Into<String>,
        on_event: &mut dyn FnMut(&PipelineEvent<'_>),
    ) -> (RunResult, Box<dyn DriftDetector + Send>) {
        self.flush(on_event);
        let window = self.evaluator.window_confusion();
        let (accuracy, kappa) = (window.accuracy(), window.kappa());
        let result = RunResult {
            detector: self.detector_label,
            stream: stream_label.into(),
            pm_auc: self.evaluator.average_pm_auc() * 100.0,
            pm_gmean: self.evaluator.average_pm_gmean() * 100.0,
            accuracy: accuracy * 100.0,
            kappa,
            instances: self.processed,
            detections: self.detections,
            detector_update_seconds: self.detector_update_seconds,
            test_seconds: self.test_seconds,
            train_seconds: self.train_seconds,
        };
        (result, self.detector)
    }

    /// Mutable access to the detector (tests / diagnostics; the serving
    /// layer uses it to install pooled workspaces after construction).
    pub fn detector_mut(&mut self) -> &mut (dyn DriftDetector + Send) {
        &mut *self.detector
    }

    /// The stepper's run configuration.
    pub fn config(&self) -> RunConfig {
        self.config
    }

    /// Captures the stepper's complete mutable state as a serde value: the
    /// classifier, the detector, the prequential evaluator, the partially
    /// filled detector micro-batch (`pending` — instances already learned
    /// but not yet seen by the detector), and the run counters. Restored
    /// with [`PipelineStepper::restore_state`] onto a stepper freshly built
    /// from the same spec / schema / config, stepping continues
    /// **bitwise-identically** to an uninterrupted run — this is the
    /// mechanism behind `rbm-im-serve`'s live shard migration and
    /// restart-from-disk. Fails if the classifier or detector does not
    /// implement the snapshot contract.
    pub fn state_snapshot(&self) -> Result<serde::Value, CheckpointError> {
        use serde::{Serialize, Value};
        let classifier = self.classifier.snapshot_state().ok_or_else(|| {
            CheckpointError::Unsupported("the classifier does not implement snapshot_state".into())
        })?;
        let detector = self.detector.snapshot_state().ok_or_else(|| {
            CheckpointError::Unsupported(format!(
                "detector `{}` does not implement snapshot_state",
                self.detector.name()
            ))
        })?;
        Ok(Value::object(vec![
            ("classifier", classifier),
            ("detector", detector),
            ("evaluator", self.evaluator.snapshot_state()),
            ("detections", self.detections.serialize_value()),
            ("detector_update_seconds", self.detector_update_seconds.serialize_value()),
            ("test_seconds", self.test_seconds.serialize_value()),
            ("train_seconds", self.train_seconds.serialize_value()),
            ("processed", self.processed.serialize_value()),
            ("pending", self.pending.serialize_value()),
            ("last_state", self.last_state.serialize_value()),
        ]))
    }

    /// Restores state captured by [`PipelineStepper::state_snapshot`] onto
    /// this stepper (which must have been built from the same detector
    /// spec, stream schema, and run configuration).
    pub fn restore_state(&mut self, state: &serde::Value) -> Result<(), CheckpointError> {
        self.classifier.restore_state(state.req("classifier")?)?;
        self.detector.restore_state(state.req("detector")?)?;
        self.evaluator.restore_state(state.req("evaluator")?)?;
        self.detections = state.field("detections")?;
        self.detector_update_seconds = state.field("detector_update_seconds")?;
        self.test_seconds = state.field("test_seconds")?;
        self.train_seconds = state.field("train_seconds")?;
        self.processed = state.field("processed")?;
        self.pending = state.field("pending")?;
        self.last_state = state.field("last_state")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbm_im_streams::scenarios::{scenario1, ScenarioConfig};
    use rbm_im_streams::DataStream;

    fn collect_events(event: &PipelineEvent<'_>, drifts: &mut Vec<u64>, warnings: &mut u64) {
        match event {
            PipelineEvent::Drift { position, .. } => drifts.push(*position),
            PipelineEvent::Warning { .. } => *warnings += 1,
            PipelineEvent::Snapshot { .. } => {}
        }
    }

    /// The stepper driven manually must agree exactly with
    /// `PipelineBuilder::run` over the same stream — in both per-instance
    /// and micro-batched detector modes.
    #[test]
    fn stepping_matches_builder_run() {
        for detector_batch in [1usize, 37] {
            let config = RunConfig { metric_window: 500, detector_batch, ..Default::default() };
            let scenario = scenario1(&ScenarioConfig {
                length: 6_000,
                num_features: 8,
                num_classes: 3,
                imbalance_ratio: 10.0,
                n_drifts: 1,
                ..Default::default()
            });
            let mut stream = scenario.stream;

            let schema = stream.schema().clone();
            let mut stepper = PipelineStepper::from_spec(
                DetectorRegistry::global(),
                &DetectorSpec::new("RBM-IM"),
                &schema,
                config,
            )
            .unwrap();
            let mut drifts = Vec::new();
            let mut warnings = 0u64;
            while let Some(instance) = stream.next_instance() {
                stepper.step(instance, &mut |e| collect_events(e, &mut drifts, &mut warnings));
            }
            let (stepped, _detector) = stepper.finish(schema.name.clone(), &mut |e| {
                collect_events(e, &mut drifts, &mut warnings)
            });

            stream.restart();
            let run = crate::pipeline::PipelineBuilder::new()
                .stream(stream)
                .detector_spec(DetectorSpec::new("RBM-IM"))
                .config(config)
                .run()
                .unwrap();

            assert_eq!(stepped.detections, run.detections, "batch={detector_batch}");
            assert_eq!(drifts, run.detections);
            assert_eq!(stepped.instances, run.instances);
            assert_eq!(stepped.pm_auc, run.pm_auc);
            assert_eq!(stepped.pm_gmean, run.pm_gmean);
            assert_eq!(stepped.accuracy, run.accuracy);
            assert_eq!(stepped.kappa, run.kappa);
        }
    }
}
