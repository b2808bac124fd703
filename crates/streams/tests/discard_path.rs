//! Equivalence of the discard path `DataStream::next_of_class` with
//! `next_instance`.
//!
//! A probe stream is pulled only through `next_of_class(target)` and a twin
//! built from the same seed only through `next_instance`. Every kept
//! instance must equal the twin's, every discard must match a twin instance
//! of another class, and afterwards the next 100 `next_instance` results of
//! both streams must agree, so a discarded pull left the probe in exactly
//! the twin's state.

use proptest::prelude::*;
use rbm_im_streams::drift::{ConceptSequenceStream, DriftEvent, DriftKind, DriftSchedule};
use rbm_im_streams::generators::{
    GaussianMixtureGenerator, HyperplaneGenerator, RandomRbfGenerator,
};
use rbm_im_streams::{DataStream, StreamExt};

const FEATURES: usize = 6;
const CLASSES: usize = 4;

fn assert_discard_path_matches<S: DataStream>(
    build: impl Fn(u64) -> S,
    seed: u64,
    target: usize,
    pulls: usize,
) {
    let mut probe = build(seed);
    let mut twin = build(seed);
    for pull in 0..pulls {
        let expected = twin.next_instance();
        let got = probe.next_of_class(target);
        match expected {
            None => assert_eq!(got, None, "pull {pull}: twin exhausted"),
            Some(inst) if inst.class == target => {
                assert_eq!(got, Some(Some(inst)), "pull {pull}: kept instance differs")
            }
            Some(inst) => {
                assert_eq!(got, Some(None), "pull {pull}: class {} must be discarded", inst.class)
            }
        }
    }
    assert_eq!(
        probe.take_instances(100),
        twin.take_instances(100),
        "streams diverged after {pulls} pulls for class {target}"
    );
}

fn rbf(speed: f64) -> impl Fn(u64) -> RandomRbfGenerator {
    move |seed| RandomRbfGenerator::new(FEATURES, CLASSES, 3, speed, seed)
}

fn mixture(seed: u64) -> GaussianMixtureGenerator {
    GaussianMixtureGenerator::balanced(FEATURES, CLASSES, 2, seed)
}

/// Three concepts (drifting RBF, Gaussian mixture, a default-path
/// hyperplane) with two transitions of `kind` inside the first 150 pulls.
fn concept_sequence(kind: DriftKind) -> impl Fn(u64) -> ConceptSequenceStream {
    move |seed| {
        let concepts: Vec<Box<dyn DataStream + Send>> = vec![
            Box::new(RandomRbfGenerator::new(FEATURES, CLASSES, 2, 0.01, seed)),
            Box::new(mixture(seed ^ 1)),
            Box::new(HyperplaneGenerator::new(FEATURES, CLASSES, 0.001, seed ^ 2)),
        ];
        let schedule = DriftSchedule {
            events: vec![
                DriftEvent { position: 40, width: 30, kind },
                DriftEvent { position: 100, width: 30, kind },
            ],
        };
        ConceptSequenceStream::new(concepts, schedule, seed ^ 3)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stationary_rbf(seed in 0u64..1_000_000, target in 0usize..CLASSES, pulls in 1usize..200) {
        assert_discard_path_matches(rbf(0.0), seed, target, pulls);
    }

    #[test]
    fn drifting_rbf(seed in 0u64..1_000_000, target in 0usize..CLASSES, pulls in 1usize..200) {
        assert_discard_path_matches(rbf(0.02), seed, target, pulls);
    }

    #[test]
    fn gaussian_mixture(seed in 0u64..1_000_000, target in 0usize..CLASSES, pulls in 1usize..200) {
        assert_discard_path_matches(mixture, seed, target, pulls);
    }

    #[test]
    fn sudden_concept_sequence(
        seed in 0u64..1_000_000, target in 0usize..CLASSES, pulls in 1usize..200
    ) {
        assert_discard_path_matches(concept_sequence(DriftKind::Sudden), seed, target, pulls);
    }

    #[test]
    fn gradual_concept_sequence(
        seed in 0u64..1_000_000, target in 0usize..CLASSES, pulls in 1usize..200
    ) {
        assert_discard_path_matches(concept_sequence(DriftKind::Gradual), seed, target, pulls);
    }

    #[test]
    fn boxed_stream(seed in 0u64..1_000_000, target in 0usize..CLASSES, pulls in 1usize..200) {
        let boxed = |seed| -> Box<dyn DataStream + Send> { Box::new(rbf(0.02)(seed)) };
        assert_discard_path_matches(boxed, seed, target, pulls);
    }
}
