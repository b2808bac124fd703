//! Output pin of Experiments 1–3 on tiny configurations: the printed
//! Table III (without its wall-clock `upd time [s]` row), the Friedman /
//! Bonferroni–Dunn ranking, the Fig. 8 and Fig. 9 series tables, and every
//! run's `(stream, detector, pmAUC bits, pmGM bits, drift offsets)` must
//! match `golden/experiments.txt` byte for byte.
//!
//! Each configuration leaves `detectors` at its default (the paper's six,
//! in Table III column order), so a change to how the line-up is named or
//! built that alters any header, column order or number fails here.

use rbm_im_harness::experiment1::{run_experiment1, BuildConfigSerde, Experiment1Config};
use rbm_im_harness::experiment2::{run_experiment2, Experiment2Config};
use rbm_im_harness::experiment3::{run_experiment3, Experiment3Config};
use rbm_im_harness::pipeline::{RunConfig, RunResult};
use rbm_im_harness::report::{format_fig8, format_fig9, format_ranking, format_table3};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/experiments.txt");

fn run_line(out: &mut String, run: &RunResult) {
    writeln!(
        out,
        "{} | {} | {:016x} | {:016x} | {:?}",
        run.stream,
        run.detector,
        run.pm_auc.to_bits(),
        run.pm_gmean.to_bits(),
        run.detections
    )
    .unwrap();
}

/// `format_table3` minus the timing row, which reads the wall clock.
fn table3_without_timing(table: &str) -> String {
    table.lines().filter(|l| !l.starts_with("upd time [s]")).map(|l| format!("{l}\n")).collect()
}

fn render() -> String {
    let run = RunConfig { metric_window: 500, max_instances: Some(6_000), ..Default::default() };
    let mut out = String::new();

    let e1 = run_experiment1(
        &Experiment1Config {
            build: BuildConfigSerde {
                seed: 42,
                scale_divisor: 100,
                n_drifts: 1,
                dynamic_imbalance: true,
            },
            run,
            benchmarks: vec!["RBF5".into(), "Aggrawal5".into()],
            ..Default::default()
        },
        |_| {},
    );
    out.push_str("== experiment 1\n");
    out.push_str(&table3_without_timing(&format_table3(&e1, "pmAUC")));
    out.push_str(&table3_without_timing(&format_table3(&e1, "pmGM")));
    out.push_str(&format_ranking(&e1, "pmAUC", 0.05));
    out.push_str(&format_ranking(&e1, "pmGM", 0.05));
    e1.runs.iter().for_each(|r| run_line(&mut out, r));

    let e2 = run_experiment2(
        &Experiment2Config {
            num_features: 6,
            num_classes: 3,
            length: 6_000,
            imbalance_ratio: 10.0,
            n_drifts: 1,
            seed: 42,
            classes_with_drift: vec![1, 3],
            run,
            ..Default::default()
        },
        |_, _| {},
    );
    out.push_str("== experiment 2\n");
    out.push_str(&format_fig8(&e2));
    e2.points.iter().flat_map(|p| &p.runs).for_each(|r| run_line(&mut out, r));

    let e3 = run_experiment3(
        &Experiment3Config {
            num_features: 6,
            num_classes: 3,
            length: 6_000,
            imbalance_ratios: vec![20.0, 50.0],
            n_drifts: 1,
            seed: 42,
            run,
            ..Default::default()
        },
        |_, _| {},
    );
    out.push_str("== experiment 3\n");
    out.push_str(&format_fig9(&e3));
    e3.points.iter().flat_map(|p| &p.runs).for_each(|r| run_line(&mut out, r));
    out
}

#[test]
fn experiment_outputs_match_the_golden_pin() {
    let actual = render();
    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "experiment output drifted from golden/experiments.txt at line {}\n--- actual ---\n{actual}",
            first + 1
        );
    }
}
