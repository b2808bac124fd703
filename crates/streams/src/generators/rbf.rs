//! RandomRBF generator (multi-class, with optional centroid drift).
//!
//! Instances are drawn from per-class sets of radial basis (Gaussian)
//! centroids scattered in the unit hypercube — the MOA `RandomRBFGenerator`.
//! Because every centroid is owned by a class, this generator supports
//! *class-conditional* generation ([`RandomRbfGenerator::generate_for_class`]).
//! It draws the class before anything else, so the imbalance wrapper's
//! discard path ([`DataStream::next_of_class`]) skips building candidates of
//! other classes. It models two kinds of drift:
//!
//! * **global drift**: all centroids move with a constant speed along random
//!   directions (`RandomRBFGeneratorDrift` behaviour) — an incremental real
//!   drift; alternatively [`RandomRbfGenerator::regenerate`] redraws every
//!   centroid (a sudden drift);
//! * **local drift**: [`RandomRbfGenerator::regenerate_classes`] redraws the
//!   centroids of a chosen subset of classes only, which is exactly the
//!   paper's Experiment 2 setup (drift injected into the `k` smallest
//!   classes).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instance::{Instance, StreamSchema};
use crate::stream::DataStream;

/// A single radial basis centroid.
#[derive(Debug, Clone)]
struct Centroid {
    center: Vec<f64>,
    /// Standard deviation of the spherical Gaussian around the center.
    spread: f64,
    /// Per-dimension drift direction (unit vector), used when `speed > 0`.
    direction: Vec<f64>,
}

/// Multi-class RandomRBF generator.
pub struct RandomRbfGenerator {
    schema: StreamSchema,
    seed: u64,
    rng: StdRng,
    /// `centroids[class]` is the list of centroids owned by that class.
    centroids: Vec<Vec<Centroid>>,
    centroids_per_class: usize,
    /// Per-instance centroid movement magnitude (0 = stationary concept).
    speed: f64,
    counter: u64,
}

impl RandomRbfGenerator {
    /// Creates a generator with `num_classes * centroids_per_class`
    /// centroids in a `num_features`-dimensional unit cube. `speed` is the
    /// per-instance centroid displacement (incremental drift; `0.0` for a
    /// stationary concept).
    pub fn new(
        num_features: usize,
        num_classes: usize,
        centroids_per_class: usize,
        speed: f64,
        seed: u64,
    ) -> Self {
        assert!(num_features >= 1);
        assert!(num_classes >= 2);
        assert!(centroids_per_class >= 1);
        assert!(speed >= 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let centroids = (0..num_classes)
            .map(|_| {
                (0..centroids_per_class)
                    .map(|_| Self::random_centroid(num_features, &mut rng))
                    .collect()
            })
            .collect();
        let schema = StreamSchema::new(
            format!("rbf-d{num_features}-c{num_classes}"),
            num_features,
            num_classes,
        );
        RandomRbfGenerator { schema, seed, rng, centroids, centroids_per_class, speed, counter: 0 }
    }

    fn random_centroid(num_features: usize, rng: &mut StdRng) -> Centroid {
        let center: Vec<f64> = (0..num_features).map(|_| rng.gen_range(0.0..1.0)).collect();
        let spread = rng.gen_range(0.02..0.12);
        // Random unit direction for incremental drift.
        let mut direction: Vec<f64> = (0..num_features).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let norm: f64 = direction.iter().map(|d| d * d).sum::<f64>().sqrt().max(1e-12);
        for d in direction.iter_mut() {
            *d /= norm;
        }
        Centroid { center, spread, direction }
    }

    /// Redraws every centroid — a sudden global real drift.
    pub fn regenerate(&mut self) {
        let classes: Vec<usize> = (0..self.schema.num_classes).collect();
        self.regenerate_classes(&classes);
    }

    /// Redraws the centroids of the listed classes only — a sudden *local*
    /// real drift affecting just those classes.
    pub fn regenerate_classes(&mut self, classes: &[usize]) {
        for &c in classes {
            assert!(c < self.schema.num_classes, "class {c} out of range");
            self.centroids[c] = (0..self.centroids_per_class)
                .map(|_| Self::random_centroid(self.schema.num_features, &mut self.rng))
                .collect();
        }
    }

    /// Generates one instance of the requested class (class-conditional
    /// sampling): picks one of the class's centroids and draws a spherical
    /// Gaussian around it.
    pub fn generate_for_class(&mut self, class: usize) -> Instance {
        assert!(class < self.schema.num_classes, "class {class} out of range");
        self.draw(class, true).expect("a kept draw builds an instance")
    }

    /// Consumes the random draws of one instance of `class` and advances
    /// the concept; builds the instance only when `keep` is set, so a
    /// discarded draw skips the Box–Muller transforms and the allocation
    /// but leaves the generator exactly where a kept one would.
    fn draw(&mut self, class: usize, keep: bool) -> Option<Instance> {
        let idx = self.rng.gen_range(0..self.centroids_per_class);
        let centroid = &self.centroids[class][idx];
        let mut features = Vec::with_capacity(if keep { centroid.center.len() } else { 0 });
        for &m in &centroid.center {
            // Box–Muller standard normal.
            let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = self.rng.gen::<f64>();
            if keep {
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                features.push(m + z * centroid.spread);
            }
        }
        self.advance_centroids();
        let index = self.counter;
        self.counter += 1;
        keep.then(|| Instance::with_index(features, class, index))
    }

    fn advance_centroids(&mut self) {
        if self.speed == 0.0 {
            return;
        }
        for class in self.centroids.iter_mut() {
            for c in class.iter_mut() {
                for (x, d) in c.center.iter_mut().zip(c.direction.iter_mut()) {
                    *x += *d * self.speed;
                    // Bounce off the unit cube walls.
                    if *x < 0.0 {
                        *x = -*x;
                        *d = -*d;
                    } else if *x > 1.0 {
                        *x = 2.0 - *x;
                        *d = -*d;
                    }
                }
            }
        }
    }

    /// Current centroid centers of a class (diagnostics / tests).
    pub fn class_centroids(&self, class: usize) -> Vec<Vec<f64>> {
        self.centroids[class].iter().map(|c| c.center.clone()).collect()
    }
}

impl DataStream for RandomRbfGenerator {
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
        self.centroids = (0..self.schema.num_classes)
            .map(|_| {
                (0..self.centroids_per_class)
                    .map(|_| Self::random_centroid(self.schema.num_features, &mut rng))
                    .collect()
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
    fn class_conditional_generation_honors_class() {
        let mut g = RandomRbfGenerator::new(10, 6, 3, 0.0, 4);
        for c in 0..6 {
            for _ in 0..20 {
                assert_eq!(g.generate_for_class(c).class, c);
            }
        }
    }

    #[test]
    fn stationary_centroids_do_not_move() {
        let mut g = RandomRbfGenerator::new(5, 3, 2, 0.0, 8);
        let before = g.class_centroids(0);
        g.take_instances(1000);
        assert_eq!(g.class_centroids(0), before);
    }

    #[test]
    fn drifting_centroids_move_and_stay_in_bounds() {
        let mut g = RandomRbfGenerator::new(5, 3, 2, 0.001, 8);
        let before = g.class_centroids(1);
        g.take_instances(2000);
        let after = g.class_centroids(1);
        assert_ne!(before, after);
        for c in &after {
            for &x in c {
                assert!((-0.01..=1.01).contains(&x), "centroid left the unit cube: {x}");
            }
        }
    }

    #[test]
    fn regenerate_classes_only_affects_selected() {
        let mut g = RandomRbfGenerator::new(6, 4, 2, 0.0, 15);
        let before0 = g.class_centroids(0);
        let before3 = g.class_centroids(3);
        g.regenerate_classes(&[3]);
        assert_eq!(g.class_centroids(0), before0, "untouched class must keep its centroids");
        assert_ne!(g.class_centroids(3), before3, "drifted class must change");
    }

    #[test]
    fn regenerate_all_changes_every_class() {
        let mut g = RandomRbfGenerator::new(6, 3, 2, 0.0, 16);
        let before: Vec<_> = (0..3).map(|c| g.class_centroids(c)).collect();
        g.regenerate();
        for (c, b) in before.iter().enumerate() {
            assert_ne!(&g.class_centroids(c), b);
        }
    }

    #[test]
    fn local_drift_shifts_class_distribution() {
        // The empirical mean of the drifted class must change after
        // regeneration, while a non-drifted class stays (statistically) put.
        let mut g = RandomRbfGenerator::new(8, 4, 3, 0.0, 99);
        let mean_of = |insts: &[Instance]| -> Vec<f64> {
            let mut m = vec![0.0; 8];
            for i in insts {
                for (acc, v) in m.iter_mut().zip(i.features.iter()) {
                    *acc += v / insts.len() as f64;
                }
            }
            m
        };
        let before_drift: Vec<Instance> = (0..400).map(|_| g.generate_for_class(2)).collect();
        let before_stable: Vec<Instance> = (0..400).map(|_| g.generate_for_class(0)).collect();
        g.regenerate_classes(&[2]);
        let after_drift: Vec<Instance> = (0..400).map(|_| g.generate_for_class(2)).collect();
        let after_stable: Vec<Instance> = (0..400).map(|_| g.generate_for_class(0)).collect();
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
        };
        let moved = dist(&mean_of(&before_drift), &mean_of(&after_drift));
        let stayed = dist(&mean_of(&before_stable), &mean_of(&after_stable));
        assert!(
            moved > 3.0 * stayed || moved > 0.1,
            "drifted class moved {moved}, stable {stayed}"
        );
        assert!(stayed < 0.1, "stable class should not move much, moved {stayed}");
    }

    #[test]
    fn restart_reproduces_sequence() {
        let mut g = RandomRbfGenerator::new(7, 5, 2, 0.002, 33);
        let a = g.take_instances(200);
        g.restart();
        let b = g.take_instances(200);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn generate_for_class_rejects_out_of_range() {
        RandomRbfGenerator::new(3, 2, 1, 0.0, 0).generate_for_class(5);
    }
}
