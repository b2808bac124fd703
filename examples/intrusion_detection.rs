//! Cyber-security scenario from the paper's introduction: multiple attack
//! types appear with very different frequencies (multi-class, extremely
//! imbalanced) and individual attack families evolve over time to bypass
//! defences, while legitimate traffic stays stationary.
//!
//! The example models 1 legitimate-traffic class (majority) plus 4 attack
//! classes with a 200:1 overall imbalance. Two attack families mutate
//! mid-stream (local real drift). A cost-sensitive perceptron tree driven by
//! RBM-IM is compared against the same classifier driven by DDM-OCI, using
//! the paper's pmAUC / pmGM metrics.
//!
//! Run with: `cargo run -p rbm-im-harness --release --example intrusion_detection`

use rbm_im_harness::pipeline::{run_grid, GridStream, RunConfig};
use rbm_im_harness::registry::DetectorSpec;
use rbm_im_streams::drift::local::{LocalDriftEvent, LocalDriftStream};
use rbm_im_streams::drift::DriftKind;
use rbm_im_streams::generators::GaussianMixtureGenerator;
use rbm_im_streams::imbalance::{ImbalanceProfile, ImbalancedStream};
use rbm_im_streams::stream::BoundedStream;
use rbm_im_streams::DataStream;

/// Builds the intrusion-detection stream: class 0 = legitimate traffic,
/// classes 1–4 = attack families; families 3 and 4 (the rarest) mutate at
/// one third and two thirds of the stream.
fn build_stream(seed: u64, length: u64) -> impl DataStream + Send {
    let base = GaussianMixtureGenerator::balanced(16, 5, 2, seed);
    let events = vec![
        LocalDriftEvent {
            affected_classes: vec![3],
            position: length / 3,
            width: length / 30,
            kind: DriftKind::Incremental,
            magnitude: 0.6,
        },
        LocalDriftEvent {
            affected_classes: vec![4],
            position: 2 * length / 3,
            width: 0,
            kind: DriftKind::Sudden,
            magnitude: 0.8,
        },
    ];
    let drifting = LocalDriftStream::new(base, events, seed ^ 0xA11CE);
    // Traffic mix: overwhelmingly legitimate, attacks increasingly rare.
    let profile = ImbalanceProfile::Static(vec![200.0, 20.0, 8.0, 3.0, 1.0]);
    BoundedStream::new(ImbalancedStream::new(drifting, profile, seed ^ 0xBEEF), length)
}

fn main() {
    let length = 40_000;
    println!("intrusion-detection stream: 5 classes, 200:1 imbalance, 2 local attack mutations\n");
    let run_config = RunConfig { metric_window: 1000, ..Default::default() };

    // One parallel grid: three detectors, one stream. Every cell rebuilds
    // the identical deterministic stream, so the comparison is fair and the
    // run exploits all cores.
    let detectors = ["RBM-IM", "DDM-OCI", "FHDDM"].map(DetectorSpec::new);
    let streams = vec![GridStream::new("intrusion", move || Box::new(build_stream(2024, length)))];
    let results = run_grid(&detectors, &streams, &run_config).expect("grid resolves");
    for result in &results {
        println!(
            "{:<10}  pmAUC {:6.2}%  pmGM {:6.2}%  accuracy {:6.2}%  drift signals {:3}  (detector update time {:.2}s)",
            result.detector,
            result.pm_auc,
            result.pm_gmean,
            result.accuracy,
            result.drift_count(),
            result.detector_update_seconds
        );
    }
    println!(
        "\nThe skew-insensitive detectors keep the classifier's pmGM well above zero by\n\
         triggering retraining when the rare attack families mutate; an error-rate\n\
         detector barely notices because mutated attacks are a tiny share of traffic."
    );
}
