//! Miniature Table III: runs the paper's six detectors on a handful of
//! benchmark streams from the registry (scaled down) and prints the
//! pmAUC/pmGM table with Friedman average ranks — the same pipeline the
//! `experiment1` binary uses for the full 24-benchmark table.
//!
//! Run with: `cargo run -p rbm-im-harness --release --example detector_comparison`

use rbm_im_harness::experiment1::{run_experiment1, BuildConfigSerde, Experiment1Config};
use rbm_im_harness::pipeline::RunConfig;
use rbm_im_harness::report::{format_ranking, format_table3};

fn main() {
    let config = Experiment1Config {
        build: BuildConfigSerde {
            seed: 42,
            scale_divisor: 100,
            n_drifts: 2,
            dynamic_imbalance: true,
        },
        run: RunConfig { metric_window: 1000, max_instances: Some(15_000), ..Default::default() },
        benchmarks: vec![
            "RBF5".into(),
            "Hyperplane5".into(),
            "Aggrawal5".into(),
            "RandomTree5".into(),
            "Electricity".into(),
            "Poker".into(),
        ],
        ..Default::default()
    };
    eprintln!("running 6 detectors x 6 benchmarks (this takes a minute or two)...\n");
    let result = run_experiment1(&config, |r| {
        eprintln!("  {:<14} {:<10} pmAUC {:6.2}", r.stream, r.detector, r.pm_auc);
    });
    println!("{}", format_table3(&result, "pmAUC"));
    println!("{}", format_table3(&result, "pmGM"));
    println!("{}", format_ranking(&result, "pmAUC", 0.05));
}
