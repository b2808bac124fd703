//! What a prequential run produced, compared bit for bit, and the
//! test-then-train reference loop the benchmark checks the program
//! against.

use crate::trace::{Tracer, ROOT};
use rbm_im_classifiers::{argmax, CostSensitivePerceptronTree, OnlineClassifier};
use rbm_im_detectors::Observation;
use rbm_im_harness::pipeline::{RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_metrics::PrequentialEvaluator;
use rbm_im_streams::DataStream;

/// The result fields of a run that must repeat exactly: instance count,
/// drift positions and the bits of every quality metric. Wall-clock
/// fields of [`RunResult`] are left out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Instances processed.
    pub instances: u64,
    /// Drift positions.
    pub detections: Vec<u64>,
    /// Bits of pmAUC, pmGM, accuracy and kappa.
    pub metric_bits: [u64; 4],
}

impl Outcome {
    /// The comparable part of a program result.
    pub fn of(result: &RunResult) -> Self {
        Outcome {
            instances: result.instances,
            detections: result.detections.clone(),
            metric_bits: [
                result.pm_auc.to_bits(),
                result.pm_gmean.to_bits(),
                result.accuracy.to_bits(),
                result.kappa.to_bits(),
            ],
        }
    }

    /// FNV-1a 64 digest of the outcome.
    pub fn digest(&self) -> u64 {
        let mut words = vec![self.instances, self.detections.len() as u64];
        words.extend(&self.detections);
        words.extend(self.metric_bits);
        fnv(&words)
    }
}

/// FNV-1a 64 over little-endian words.
pub fn fnv(words: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Digest of a list of outcomes (a whole grid).
pub fn digest_all(outcomes: &[Outcome]) -> u64 {
    fnv(&outcomes.iter().map(Outcome::digest).collect::<Vec<_>>())
}

/// Span names of the reference loop, one per layer call.
pub mod span {
    /// One test-then-train step; its self time is the loop's own glue.
    pub const INSTANCE: &str = "harness.instance";
    /// `DataStream::next_instance`.
    pub const NEXT: &str = "streams.next";
    /// `OnlineClassifier::predict_scores_into`.
    pub const PREDICT: &str = "classifiers.predict";
    /// `PrequentialEvaluator::record`.
    pub const RECORD: &str = "metrics.record";
    /// `DriftDetector::update`.
    pub const UPDATE: &str = "detectors.update";
    /// `OnlineClassifier::learn`.
    pub const LEARN: &str = "classifiers.learn";
}

/// Runs `f` inside a span named `name` under `parent` when tracing.
fn layer<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: u32,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, f),
        None => f(),
    }
}

/// The paper's test-then-train loop written against each layer's public
/// functions: predict, record, detect, reset on drift, learn, with the
/// paper's classifier (CSPT) and the detector resolved from `spec`. It is
/// the reference the program's own loop must match bit for bit, and, with
/// a tracer, the traced loop whose spans give each layer's self time.
/// Supports per-instance detection (`detector_batch == 1`) only.
pub fn reference_run(
    stream: &mut dyn DataStream,
    spec: &DetectorSpec,
    config: &RunConfig,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    assert_eq!(config.detector_batch, 1, "the reference loop detects per instance");
    let schema = stream.schema().clone();
    let mut classifier = CostSensitivePerceptronTree::new(schema.num_features, schema.num_classes);
    let mut detector = DetectorRegistry::global()
        .build(spec, schema.num_features, schema.num_classes)
        .expect("benchmark detector specs resolve");
    let mut evaluator = PrequentialEvaluator::new(schema.num_classes, config.metric_window);
    let mut scores = Vec::with_capacity(schema.num_classes);
    let mut detections = Vec::new();
    let mut instances = 0u64;
    while config.max_instances.is_none_or(|limit| instances < limit) {
        let step = tracer.as_deref_mut().map_or(ROOT, |t| t.open(span::INSTANCE, ROOT));
        let next = layer(&mut tracer, span::NEXT, step, || stream.next_instance());
        if let Some(instance) = &next {
            let predicted = layer(&mut tracer, span::PREDICT, step, || {
                classifier.predict_scores_into(&instance.features, &mut scores);
                argmax(&scores)
            });
            layer(&mut tracer, span::RECORD, step, || {
                evaluator.record(instance.class, predicted, &scores)
            });
            let observation = Observation {
                features: &instance.features,
                true_class: instance.class,
                predicted_class: predicted,
                correct: predicted == instance.class,
            };
            let state = layer(&mut tracer, span::UPDATE, step, || detector.update(&observation));
            if state.is_drift() {
                detections.push(instance.index);
                if config.reset_on_drift {
                    classifier.reset();
                }
            }
            layer(&mut tracer, span::LEARN, step, || classifier.learn(instance));
            instances += 1;
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.close(step);
        }
        if next.is_none() {
            break;
        }
    }
    let snapshot = evaluator.snapshot();
    Outcome {
        instances,
        detections,
        metric_bits: [
            (evaluator.average_pm_auc() * 100.0).to_bits(),
            (evaluator.average_pm_gmean() * 100.0).to_bits(),
            (snapshot.accuracy * 100.0).to_bits(),
            snapshot.kappa.to_bits(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SelfTimes;
    use rbm_im_harness::pipeline::PipelineBuilder;
    use rbm_im_streams::registry::{benchmark_by_name, BuildConfig};

    #[test]
    fn reference_loop_matches_the_program_bit_for_bit() {
        let build = BuildConfig { seed: 5, scale_divisor: 500, ..Default::default() };
        let spec_rbm = benchmark_by_name("RBF5").unwrap();
        let config =
            RunConfig { metric_window: 200, max_instances: Some(1_500), ..Default::default() };
        for detector in ["RBM-IM", "DDM-OCI"] {
            let spec = DetectorSpec::new(detector);
            let program = PipelineBuilder::new()
                .boxed_stream(spec_rbm.build(&build))
                .detector_spec(spec.clone())
                .config(config)
                .run()
                .unwrap();
            let mut tracer = Tracer::with_capacity(16_000);
            let traced =
                reference_run(&mut *spec_rbm.build(&build), &spec, &config, Some(&mut tracer));
            let plain = reference_run(&mut *spec_rbm.build(&build), &spec, &config, None);
            assert_eq!(Outcome::of(&program), plain, "{detector}");
            assert_eq!(traced, plain, "{detector}: tracing changes nothing");
            let mut times = SelfTimes::default();
            tracer.drain_into(&mut times);
            assert_eq!(times.count(span::INSTANCE), 1_500);
            assert_eq!(times.count(span::UPDATE), 1_500);
        }
    }

    #[test]
    fn digests_see_every_field() {
        let base = Outcome { instances: 10, detections: vec![3], metric_bits: [1, 2, 3, 4] };
        let mut other = base.clone();
        other.metric_bits[3] = 5;
        assert_ne!(base.digest(), other.digest());
        let mut moved = base.clone();
        moved.detections = vec![4];
        assert_ne!(base.digest(), moved.digest());
        assert_eq!(base.digest(), base.clone().digest());
    }
}
