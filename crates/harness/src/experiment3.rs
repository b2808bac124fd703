//! Experiment 3 — robustness to increasing imbalance ratio (Fig. 9).
//!
//! For each synthetic configuration the paper sweeps the multi-class
//! imbalance ratio over {50, 100, 200, 300, 400, 500} while keeping global
//! drift, dynamic imbalance and class-role switching active (Scenario 2),
//! and reports the pmAUC of the classifier driven by each detector.

use crate::experiment2::pm_auc_series;
use crate::pipeline::{run_grid_observed, GridStream, RunConfig, RunResult};
use crate::registry::{paper_detectors, DetectorSpec};
use rbm_im_streams::drift::DriftKind;
use rbm_im_streams::scenarios::{scenario2, ScenarioConfig};
use serde::{Deserialize, Serialize};

/// Configuration of Experiment 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment3Config {
    /// Detectors to evaluate.
    pub detectors: Vec<DetectorSpec>,
    /// Number of features of the synthetic stream.
    pub num_features: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Stream length in instances.
    pub length: u64,
    /// Imbalance ratios to sweep (the paper's grid when empty).
    pub imbalance_ratios: Vec<f64>,
    /// Number of global drift events.
    pub n_drifts: usize,
    /// Seed.
    pub seed: u64,
    /// Prequential run settings.
    pub run: RunConfig,
}

impl Default for Experiment3Config {
    fn default() -> Self {
        Experiment3Config {
            detectors: paper_detectors(),
            num_features: 20,
            num_classes: 5,
            length: 50_000,
            imbalance_ratios: vec![50.0, 100.0, 200.0, 300.0, 400.0, 500.0],
            n_drifts: 2,
            seed: 42,
            run: RunConfig::default(),
        }
    }
}

/// One point of the Fig. 9 series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImbalancePoint {
    /// Imbalance ratio at this point.
    pub imbalance_ratio: f64,
    /// Run outcome of each detector.
    pub runs: Vec<RunResult>,
}

/// Full outcome of Experiment 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Experiment3Result {
    /// Swept points in increasing imbalance ratio.
    pub points: Vec<ImbalancePoint>,
    /// Detector order.
    pub detectors: Vec<DetectorSpec>,
}

impl Experiment3Result {
    /// pmAUC series of the detector labelled `detector`, aligned with
    /// `points`.
    pub fn series(&self, detector: &str) -> Vec<f64> {
        pm_auc_series(self.points.iter().map(|p| p.runs.as_slice()), detector)
    }
}

/// Runs the imbalance-ratio sweep: all (ratio × detector) cells form one
/// parallel grid. `progress` fires live as each cell completes (completion
/// order); the returned points are in deterministic ratio order.
pub fn run_experiment3(
    config: &Experiment3Config,
    progress: impl FnMut(f64, &RunResult) + Send,
) -> Experiment3Result {
    let ratios = if config.imbalance_ratios.is_empty() {
        vec![50.0, 100.0, 200.0, 300.0, 400.0, 500.0]
    } else {
        config.imbalance_ratios.clone()
    };
    let streams: Vec<GridStream> = ratios
        .iter()
        .map(|&ir| {
            let scenario_config = ScenarioConfig {
                num_features: config.num_features,
                num_classes: config.num_classes,
                length: config.length,
                imbalance_ratio: ir,
                n_drifts: config.n_drifts,
                drift_kind: DriftKind::Sudden,
                seed: config.seed,
            };
            GridStream::new(format!("scenario2-ir{ir}"), move || scenario2(&scenario_config).stream)
        })
        .collect();
    // Recover the swept ratio of a completed cell from its stream label.
    let ir_by_name: std::collections::BTreeMap<String, f64> =
        streams.iter().map(|s| s.name.clone()).zip(ratios.iter().copied()).collect();
    let progress = std::sync::Mutex::new(progress);
    let results = run_grid_observed(&config.detectors, &streams, &config.run, |run| {
        let ir = ir_by_name[&run.stream];
        (progress.lock().expect("progress sink poisoned"))(ir, run);
    })
    .expect("every configured detector resolves against the default registry");
    let mut points = Vec::new();
    for (chunk, &ir) in results.chunks(config.detectors.len().max(1)).zip(ratios.iter()) {
        points.push(ImbalancePoint { imbalance_ratio: ir, runs: chunk.to_vec() });
    }
    Experiment3Result { points, detectors: config.detectors.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_point_per_ratio() {
        let config = Experiment3Config {
            detectors: vec![DetectorSpec::new("DDM"), DetectorSpec::new("RBM-IM")],
            num_features: 8,
            num_classes: 3,
            length: 4_000,
            imbalance_ratios: vec![10.0, 50.0],
            n_drifts: 1,
            seed: 5,
            run: RunConfig { metric_window: 500, ..Default::default() },
        };
        let mut calls = 0usize;
        let result = run_experiment3(&config, |_, _| calls += 1);
        assert_eq!(calls, 4);
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.points[0].imbalance_ratio, 10.0);
        let series = result.series("RBM-IM");
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_ratio_list_falls_back_to_paper_grid() {
        let config = Experiment3Config { imbalance_ratios: Vec::new(), ..Default::default() };
        assert!(config.imbalance_ratios.is_empty());
        // The fallback grid is applied inside run_experiment3; validate the
        // constant here to keep it in sync with the paper.
        let expected = [50.0, 100.0, 200.0, 300.0, 400.0, 500.0];
        assert_eq!(Experiment3Config::default().imbalance_ratios, expected);
    }
}
