//! Class-imbalance operators: static and dynamic imbalance ratios, and
//! class-role switching.
//!
//! The paper's benchmarks combine concept drift with (i) a high imbalance
//! ratio between the largest and smallest class (IR up to 348 on the
//! real-world streams, and swept from 50 to 500 in Experiment 3), (ii)
//! *dynamic* imbalance where the ratio changes during the stream, and (iii)
//! *class-role switching* where minority classes become majority and vice
//! versa (Scenarios 2 and 3).
//!
//! [`ImbalanceProfile`] describes the target class distribution as a
//! function of the stream position; [`ImbalancedStream`] imposes it on any
//! base stream by class-targeted rejection sampling: the wrapper first draws
//! the desired class from the target distribution, then pulls instances
//! from the base stream until one of that class appears. Base generators
//! are roughly balanced, so the expected number of pulls is the class
//! count.
//!
//! The pulls go through the discard path [`DataStream::next_of_class`],
//! which leaves the base stream exactly where `next_instance` would. For
//! the generators that draw the class first (RandomRBF, Gaussian mixture,
//! also behind a [`ConceptSequenceStream`](crate::drift::ConceptSequenceStream)
//! or a box), a rejected candidate costs only its random draws (class,
//! centroid or cluster, and `2·F` uniforms for `F` features) and the
//! concept's bookkeeping (counters, RBF centroid movement), not the
//! Box–Muller transforms and feature allocation of a built instance. Other
//! base streams build each candidate and the wrapper drops it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instance::{Instance, StreamSchema};
use crate::stream::DataStream;

/// Target class distribution as a function of stream position.
#[derive(Debug, Clone, PartialEq)]
pub enum ImbalanceProfile {
    /// Fixed class weights for the whole stream (need not be normalized).
    Static(Vec<f64>),
    /// Linear interpolation between a start and an end weight vector over
    /// `period` instances (clamped at the end distribution afterwards).
    /// This models a *dynamic imbalance ratio*.
    LinearShift {
        /// Weights at position 0.
        start: Vec<f64>,
        /// Weights at position `period` and beyond.
        end: Vec<f64>,
        /// Number of instances over which the interpolation runs.
        period: u64,
    },
    /// Class-role switching: the weight vector is rotated by one position
    /// every `interval` instances, so the majority role moves from class to
    /// class (Scenario 2/3 of the taxonomy).
    RoleSwitching {
        /// Base weights (rotated over time).
        weights: Vec<f64>,
        /// Number of instances between consecutive rotations.
        interval: u64,
    },
}

impl ImbalanceProfile {
    /// Builds a geometric multi-class imbalance profile with the given
    /// maximum imbalance ratio: class 0 receives weight `ir`, the last class
    /// weight 1, intermediate classes interpolate geometrically. This is the
    /// standard way multi-class IR is reported in the paper (ratio between
    /// the largest and smallest class).
    pub fn geometric(num_classes: usize, ir: f64) -> Self {
        assert!(num_classes >= 2);
        assert!(ir >= 1.0, "imbalance ratio must be >= 1, got {ir}");
        let weights = (0..num_classes)
            .map(|c| ir.powf(1.0 - c as f64 / (num_classes as f64 - 1.0)))
            .collect();
        ImbalanceProfile::Static(weights)
    }

    /// The (unnormalized) class weights at stream position `t`.
    pub fn weights_at(&self, t: u64) -> Vec<f64> {
        let mut w = Vec::new();
        self.weights_into(t, &mut w);
        w
    }

    /// Writes the class weights at position `t` into `out`, reusing its
    /// allocation.
    fn weights_into(&self, t: u64, out: &mut Vec<f64>) {
        out.clear();
        match self {
            ImbalanceProfile::Static(w) => out.extend_from_slice(w),
            ImbalanceProfile::LinearShift { start, end, period } => {
                let alpha = if *period == 0 { 1.0 } else { (t as f64 / *period as f64).min(1.0) };
                out.extend(
                    start.iter().zip(end.iter()).map(|(s, e)| s * (1.0 - alpha) + e * alpha),
                );
            }
            ImbalanceProfile::RoleSwitching { weights, interval } => {
                let shift =
                    if *interval == 0 { 0 } else { (t / interval) as usize % weights.len() };
                out.resize(weights.len(), 0.0);
                for (i, &w) in weights.iter().enumerate() {
                    out[(i + shift) % weights.len()] = w;
                }
            }
        }
    }

    /// Normalized class probabilities at position `t`.
    pub fn probabilities_at(&self, t: u64) -> Vec<f64> {
        let w = self.weights_at(t);
        let total: f64 = w.iter().sum();
        assert!(total > 0.0, "class weights must sum to a positive value");
        w.iter().map(|x| x / total).collect()
    }

    /// Imbalance ratio (max weight / min positive weight) at position `t`.
    pub fn imbalance_ratio_at(&self, t: u64) -> f64 {
        let w = self.weights_at(t);
        let max = w.iter().cloned().fold(f64::MIN, f64::max);
        let min = w.iter().cloned().filter(|x| *x > 0.0).fold(f64::MAX, f64::min);
        if min == f64::MAX {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// Number of classes covered by the profile.
    pub fn num_classes(&self) -> usize {
        match self {
            ImbalanceProfile::Static(w) => w.len(),
            ImbalanceProfile::LinearShift { start, .. } => start.len(),
            ImbalanceProfile::RoleSwitching { weights, .. } => weights.len(),
        }
    }
}

/// Wrapper imposing an [`ImbalanceProfile`] on a base stream via
/// class-targeted rejection sampling.
pub struct ImbalancedStream<S> {
    inner: S,
    schema: StreamSchema,
    profile: ImbalanceProfile,
    seed: u64,
    rng: StdRng,
    counter: u64,
    /// Upper bound on base-stream pulls per emitted instance, to guard
    /// against pathological base streams that never produce some class.
    max_rejections: usize,
    /// Class weights at the current position, reused across instances.
    weights: Vec<f64>,
}

impl<S: DataStream> ImbalancedStream<S> {
    /// Wraps `inner` with the given target profile.
    ///
    /// # Panics
    /// Panics if the profile's class count does not match the stream schema
    /// or any weight vector has a non-positive sum.
    pub fn new(inner: S, profile: ImbalanceProfile, seed: u64) -> Self {
        let schema = inner.schema().renamed(format!("{}-imbalanced", inner.schema().name));
        assert_eq!(
            profile.num_classes(),
            schema.num_classes,
            "profile classes must match stream classes"
        );
        // Validate that weights are usable at t = 0.
        let _ = profile.probabilities_at(0);
        ImbalancedStream {
            inner,
            schema,
            profile,
            seed,
            rng: StdRng::seed_from_u64(seed),
            counter: 0,
            max_rejections: 10_000,
            weights: Vec::new(),
        }
    }

    /// The active profile.
    pub fn profile(&self) -> &ImbalanceProfile {
        &self.profile
    }

    /// Draws the target class by inverse CDF over the normalized weights
    /// (the same arithmetic as [`ImbalanceProfile::probabilities_at`],
    /// without its allocations).
    fn sample_target_class(&mut self) -> usize {
        self.profile.weights_into(self.counter, &mut self.weights);
        let total: f64 = self.weights.iter().sum();
        assert!(total > 0.0, "class weights must sum to a positive value");
        let u: f64 = self.rng.gen();
        let mut acc = 0.0;
        for (c, w) in self.weights.iter().enumerate() {
            acc += w / total;
            if u <= acc {
                return c;
            }
        }
        self.weights.len() - 1
    }
}

impl<S: DataStream> DataStream for ImbalancedStream<S> {
    fn next_instance(&mut self) -> Option<Instance> {
        let target = self.sample_target_class();
        for _ in 0..self.max_rejections {
            if let Some(mut inst) = self.inner.next_of_class(target)? {
                inst.index = self.counter;
                self.counter += 1;
                return Some(inst);
            }
        }
        // The base stream failed to produce the target class within the
        // rejection budget (e.g. a generator whose concept no longer covers
        // that class). Fall back to the next available instance so the
        // stream keeps flowing rather than silently stalling.
        let mut inst = self.inner.next_instance()?;
        inst.index = self.counter;
        self.counter += 1;
        Some(inst)
    }

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn restart(&mut self) {
        self.inner.restart();
        self.rng = StdRng::seed_from_u64(self.seed);
        self.counter = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GaussianMixtureGenerator, RandomRbfGenerator};
    use crate::stream::StreamExt;

    #[test]
    fn geometric_profile_has_requested_ir() {
        let p = ImbalanceProfile::geometric(5, 100.0);
        assert!((p.imbalance_ratio_at(0) - 100.0).abs() < 1e-9);
        let probs = p.probabilities_at(0);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Monotone decreasing class probabilities.
        for w in probs.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn linear_shift_interpolates() {
        let p = ImbalanceProfile::LinearShift {
            start: vec![10.0, 1.0],
            end: vec![1.0, 10.0],
            period: 100,
        };
        assert_eq!(p.weights_at(0), vec![10.0, 1.0]);
        assert_eq!(p.weights_at(50), vec![5.5, 5.5]);
        assert_eq!(p.weights_at(100), vec![1.0, 10.0]);
        assert_eq!(p.weights_at(1000), vec![1.0, 10.0]);
        assert!((p.imbalance_ratio_at(0) - 10.0).abs() < 1e-12);
        assert!((p.imbalance_ratio_at(50) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn role_switching_rotates_majority() {
        let p = ImbalanceProfile::RoleSwitching { weights: vec![9.0, 3.0, 1.0], interval: 100 };
        let w0 = p.weights_at(0);
        let w1 = p.weights_at(150);
        let w2 = p.weights_at(250);
        assert_eq!(w0, vec![9.0, 3.0, 1.0]);
        assert_eq!(w1, vec![1.0, 9.0, 3.0]);
        assert_eq!(w2, vec![3.0, 1.0, 9.0]);
        // After a full cycle the original roles return.
        assert_eq!(p.weights_at(300), w0);
    }

    #[test]
    fn imbalanced_stream_matches_target_distribution() {
        let base = RandomRbfGenerator::new(5, 4, 2, 0.0, 3);
        let profile = ImbalanceProfile::Static(vec![60.0, 25.0, 10.0, 5.0]);
        let mut stream = ImbalancedStream::new(base, profile, 11);
        let dist = stream.empirical_class_distribution(8000);
        assert!((dist[0] - 0.60).abs() < 0.03, "class 0: {}", dist[0]);
        assert!((dist[1] - 0.25).abs() < 0.03, "class 1: {}", dist[1]);
        assert!((dist[2] - 0.10).abs() < 0.02, "class 2: {}", dist[2]);
        assert!((dist[3] - 0.05).abs() < 0.02, "class 3: {}", dist[3]);
    }

    #[test]
    fn high_ir_still_produces_minority_instances() {
        let base = GaussianMixtureGenerator::balanced(6, 5, 2, 5);
        let profile = ImbalanceProfile::geometric(5, 200.0);
        let mut stream = ImbalancedStream::new(base, profile, 17);
        let sample = stream.take_instances(20_000);
        let minority = sample.iter().filter(|i| i.class == 4).count();
        assert!(minority > 0, "minority class must still appear");
        let majority = sample.iter().filter(|i| i.class == 0).count();
        assert!(majority > 50 * minority.max(1) / 2, "majority {majority}, minority {minority}");
    }

    #[test]
    fn role_switching_stream_changes_majority_over_time() {
        let base = RandomRbfGenerator::new(4, 3, 2, 0.0, 6);
        let profile =
            ImbalanceProfile::RoleSwitching { weights: vec![20.0, 4.0, 1.0], interval: 3000 };
        let mut stream = ImbalancedStream::new(base, profile, 8);
        let sample = stream.take_instances(9000);
        let majority_of = |slice: &[Instance]| -> usize {
            let mut counts = [0usize; 3];
            for i in slice {
                counts[i.class] += 1;
            }
            counts.iter().enumerate().max_by_key(|(_, &c)| c).map(|(i, _)| i).unwrap()
        };
        assert_eq!(majority_of(&sample[..3000]), 0);
        assert_eq!(majority_of(&sample[3000..6000]), 1);
        assert_eq!(majority_of(&sample[6000..]), 2);
    }

    #[test]
    fn restart_is_deterministic() {
        let base = RandomRbfGenerator::new(4, 3, 2, 0.0, 9);
        let profile = ImbalanceProfile::geometric(3, 20.0);
        let mut stream = ImbalancedStream::new(base, profile, 31);
        let a = stream.take_instances(500);
        stream.restart();
        let b = stream.take_instances(500);
        assert_eq!(a, b);
    }

    #[test]
    fn indices_are_restamped_sequentially() {
        let base = RandomRbfGenerator::new(3, 3, 1, 0.0, 2);
        let mut stream = ImbalancedStream::new(base, ImbalanceProfile::geometric(3, 10.0), 4);
        let sample = stream.take_instances(50);
        for (i, inst) in sample.iter().enumerate() {
            assert_eq!(inst.index, i as u64);
        }
    }

    #[test]
    #[should_panic]
    fn profile_class_mismatch_rejected() {
        let base = RandomRbfGenerator::new(3, 3, 1, 0.0, 2);
        ImbalancedStream::new(base, ImbalanceProfile::geometric(5, 10.0), 0);
    }

    #[test]
    #[should_panic]
    fn geometric_rejects_ir_below_one() {
        ImbalanceProfile::geometric(3, 0.5);
    }
}
