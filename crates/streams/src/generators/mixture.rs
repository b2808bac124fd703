//! Gaussian mixture generator with per-class clusters.
//!
//! This is the workhorse behind the synthetic substitutes for the paper's
//! real-world benchmarks (Table I, top half): each class owns one or more
//! Gaussian clusters whose means/covariance scales are drawn at
//! construction. The generator supports:
//!
//! * class-conditional sampling, and a discard path
//!   ([`DataStream::next_of_class`]) that skips building the candidates the
//!   imbalance wrapper rejects,
//! * per-class concept changes (shifting or redrawing a class's clusters —
//!   i.e. local real drift),
//! * global concept changes (redrawing all clusters).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instance::{Instance, StreamSchema};
use crate::stream::DataStream;

/// Cluster parameters of one class.
#[derive(Debug, Clone)]
pub struct GaussianClass {
    /// Cluster means, one vector per cluster.
    pub means: Vec<Vec<f64>>,
    /// Per-cluster spherical standard deviation.
    pub spreads: Vec<f64>,
}

/// Gaussian mixture stream.
pub struct GaussianMixtureGenerator {
    schema: StreamSchema,
    seed: u64,
    rng: StdRng,
    classes: Vec<GaussianClass>,
    clusters_per_class: usize,
    counter: u64,
}

impl GaussianMixtureGenerator {
    /// Creates a mixture with `num_classes` classes, each owning
    /// `clusters_per_class` random clusters in a `num_features`-dimensional
    /// unit cube; classes are sampled uniformly (balanced).
    pub fn balanced(
        num_features: usize,
        num_classes: usize,
        clusters_per_class: usize,
        seed: u64,
    ) -> Self {
        assert!(num_features >= 1);
        assert!(num_classes >= 2);
        assert!(clusters_per_class >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let classes = (0..num_classes)
            .map(|_| Self::random_class(num_features, clusters_per_class, &mut rng))
            .collect();
        let schema = StreamSchema::new(
            format!("gmm-d{num_features}-c{num_classes}"),
            num_features,
            num_classes,
        );
        GaussianMixtureGenerator { schema, seed, rng, classes, clusters_per_class, counter: 0 }
    }

    fn random_class(num_features: usize, clusters: usize, rng: &mut StdRng) -> GaussianClass {
        let means = (0..clusters)
            .map(|_| (0..num_features).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let spreads = (0..clusters).map(|_| rng.gen_range(0.03..0.15)).collect();
        GaussianClass { means, spreads }
    }

    /// Generates one instance of the requested class (class-conditional
    /// sampling): picks one of the class's clusters and draws a spherical
    /// Gaussian around its mean.
    pub fn generate_for_class(&mut self, class: usize) -> Instance {
        assert!(class < self.schema.num_classes, "class {class} out of range");
        self.draw(class, true).expect("a kept draw builds an instance")
    }

    /// Consumes the random draws of one instance of `class`; builds the
    /// instance only when `keep` is set, so a discarded draw skips the
    /// Box–Muller transforms and the allocation but leaves the generator
    /// exactly where a kept one would.
    fn draw(&mut self, class: usize, keep: bool) -> Option<Instance> {
        let cluster = self.rng.gen_range(0..self.clusters_per_class);
        let (mean, spread) =
            (&self.classes[class].means[cluster], self.classes[class].spreads[cluster]);
        let mut features = Vec::with_capacity(if keep { mean.len() } else { 0 });
        for &m in mean {
            let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = self.rng.gen::<f64>();
            if keep {
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                features.push(m + z * spread);
            }
        }
        let index = self.counter;
        self.counter += 1;
        keep.then(|| Instance::with_index(features, class, index))
    }

    /// Shifts every cluster mean of the listed classes by a random offset of
    /// the given magnitude — a local real drift of controllable severity.
    pub fn shift_classes(&mut self, classes: &[usize], magnitude: f64) {
        for &c in classes {
            assert!(c < self.schema.num_classes);
            for mean in self.classes[c].means.iter_mut() {
                for m in mean.iter_mut() {
                    *m += self.rng.gen_range(-magnitude..magnitude);
                    *m = m.clamp(0.0, 1.0);
                }
            }
        }
    }

    /// Redraws the clusters of the listed classes — a sudden local drift.
    pub fn regenerate_classes(&mut self, classes: &[usize]) {
        for &c in classes {
            assert!(c < self.schema.num_classes);
            self.classes[c] = Self::random_class(
                self.schema.num_features,
                self.clusters_per_class,
                &mut self.rng,
            );
        }
    }

    /// Redraws every class — a sudden global drift.
    pub fn regenerate_all(&mut self) {
        let all: Vec<usize> = (0..self.schema.num_classes).collect();
        self.regenerate_classes(&all);
    }

    /// Read access to a class's current cluster definition.
    pub fn class_parameters(&self, class: usize) -> &GaussianClass {
        &self.classes[class]
    }
}

impl DataStream for GaussianMixtureGenerator {
    fn next_instance(&mut self) -> Option<Instance> {
        let class = self.rng.gen_range(0..self.schema.num_classes);
        self.draw(class, true)
    }

    fn next_of_class(&mut self, target: usize) -> Option<Option<Instance>> {
        let class = self.rng.gen_range(0..self.schema.num_classes);
        Some(self.draw(class, class == target))
    }

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn restart(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.classes = (0..self.schema.num_classes)
            .map(|_| {
                Self::random_class(self.schema.num_features, self.clusters_per_class, &mut rng)
            })
            .collect();
        self.rng = rng;
        self.counter = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamExt;

    #[test]
    fn class_conditional_generation() {
        let mut g = GaussianMixtureGenerator::balanced(5, 4, 2, 7);
        for c in 0..4 {
            assert_eq!(g.generate_for_class(c).class, c);
        }
    }

    #[test]
    fn shift_moves_only_selected_classes() {
        let mut g = GaussianMixtureGenerator::balanced(6, 3, 2, 9);
        let before0 = g.class_parameters(0).means.clone();
        let before2 = g.class_parameters(2).means.clone();
        g.shift_classes(&[2], 0.4);
        assert_eq!(g.class_parameters(0).means, before0);
        assert_ne!(g.class_parameters(2).means, before2);
    }

    #[test]
    fn regenerate_all_changes_everything() {
        let mut g = GaussianMixtureGenerator::balanced(6, 3, 2, 10);
        let before: Vec<_> = (0..3).map(|c| g.class_parameters(c).means.clone()).collect();
        g.regenerate_all();
        for (c, b) in before.iter().enumerate() {
            assert_ne!(&g.class_parameters(c).means, b);
        }
    }

    #[test]
    fn features_cluster_around_means() {
        let mut g = GaussianMixtureGenerator::balanced(4, 2, 1, 13);
        let mean = g.class_parameters(0).means[0].clone();
        let sample: Vec<Instance> = (0..500).map(|_| g.generate_for_class(0)).collect();
        let mut avg = [0.0; 4];
        for inst in &sample {
            for (a, f) in avg.iter_mut().zip(inst.features.iter()) {
                *a += f / sample.len() as f64;
            }
        }
        for (a, m) in avg.iter().zip(mean.iter()) {
            assert!((a - m).abs() < 0.05, "empirical mean {a} should be near cluster mean {m}");
        }
    }

    #[test]
    fn restart_is_deterministic() {
        let mut g = GaussianMixtureGenerator::balanced(5, 3, 2, 21);
        let a = g.take_instances(150);
        g.shift_classes(&[0, 1], 0.5);
        g.restart();
        assert_eq!(a, g.take_instances(150));
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_class() {
        GaussianMixtureGenerator::balanced(3, 2, 1, 0).generate_for_class(9);
    }
}
