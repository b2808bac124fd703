//! Regenerates Table III (pmAUC / pmGM / timing for the six detectors over
//! the 24 benchmarks) together with the Friedman / Bonferroni–Dunn ranking
//! (Figs. 4–5) and the Bayesian signed pairwise comparisons (Figs. 6–7).
//!
//! Usage:
//! ```text
//! cargo run -p rbm-im-harness --release --bin experiment1 -- \
//!     [--scale N] [--seed S] [--benchmarks name1,name2] [--max-instances N] \
//!     [--threads T] [--json out.json]
//! ```
//! `--scale 1` reproduces paper-length streams (slow); the default of 20
//! finishes in minutes. The grid runs on all cores by default; `--threads`
//! pins the rayon worker count (results are identical either way).

use rbm_im_harness::experiment1::{run_experiment1, Experiment1Config};
use rbm_im_harness::report::{format_ranking, format_table3, to_json};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = Experiment1Config::default();
    let mut json_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                config.build.scale_divisor = args[i + 1].parse().expect("--scale needs an integer");
                i += 2;
            }
            "--threads" => {
                threads = Some(args[i + 1].parse().expect("--threads needs an integer"));
                i += 2;
            }
            "--seed" => {
                config.build.seed = args[i + 1].parse().expect("--seed needs an integer");
                i += 2;
            }
            "--benchmarks" => {
                config.benchmarks = args[i + 1].split(',').map(|s| s.trim().to_string()).collect();
                i += 2;
            }
            "--max-instances" => {
                config.run.max_instances =
                    Some(args[i + 1].parse().expect("--max-instances needs an integer"));
                i += 2;
            }
            "--json" => {
                json_path = Some(args[i + 1].clone());
                i += 2;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "Experiment 1: {} detectors x {} benchmarks (scale 1/{})",
        config.detectors.len(),
        if config.benchmarks.is_empty() { 24 } else { config.benchmarks.len() },
        config.build.scale_divisor
    );
    let run = |config: &Experiment1Config| {
        run_experiment1(config, |r| {
            eprintln!(
                "  {:<14} {:<10} pmAUC {:6.2}  pmGM {:6.2}  drifts {:4}  ({} instances)",
                r.stream,
                r.detector,
                r.pm_auc,
                r.pm_gmean,
                r.drift_count(),
                r.instances
            );
        })
    };
    let result = match threads {
        Some(t) => rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("thread pool")
            .install(|| run(&config)),
        None => run(&config),
    };

    println!("{}", format_table3(&result, "pmAUC"));
    println!("{}", format_table3(&result, "pmGM"));
    println!("{}", format_ranking(&result, "pmAUC", 0.05));
    println!("{}", format_ranking(&result, "pmGM", 0.05));
    for opponent in ["PerfSim", "DDM-OCI"] {
        match result.bayesian_vs(opponent, 1.0, 20_000, 42) {
            Ok(outcome) => println!(
                "Bayesian signed test RBM-IM vs {}: p(RBM-IM better) = {:.3}, p(rope) = {:.3}, p({} better) = {:.3}",
                opponent,
                outcome.p_left,
                outcome.p_rope,
                opponent,
                outcome.p_right
            ),
            Err(e) => println!("Bayesian signed test vs {} unavailable: {e}", opponent),
        }
    }
    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&result.runs)).expect("failed to write JSON results");
        eprintln!("wrote raw results to {path}");
    }
}
