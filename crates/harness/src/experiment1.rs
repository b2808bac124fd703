//! Experiment 1 — detector comparison over the 24 benchmark streams
//! (Table III) with Friedman / Bonferroni–Dunn ranking (Figs. 4–5) and
//! Bayesian signed pairwise tests (Figs. 6–7).
//!
//! The full grid (detectors × benchmarks) runs through the rayon-parallel
//! [`run_grid`](crate::pipeline::run_grid), one deterministic cell per
//! pair, so wall-clock time scales
//! with the core count while the output stays byte-identical to a
//! single-threaded run.

use crate::pipeline::{run_grid_observed, GridStream, RunConfig, RunResult};
use crate::registry::{paper_detectors, DetectorSpec};
use rbm_im_stats::bayesian::{bayesian_signed_test, BayesianSignedOutcome};
use rbm_im_stats::friedman::{bonferroni_dunn_critical_difference, friedman_test, FriedmanResult};
use rbm_im_streams::registry::{all_benchmarks, BenchmarkSpec, BuildConfig};
use serde::{Deserialize, Serialize};

/// Configuration of Experiment 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment1Config {
    /// Detectors to compare (defaults to the paper's six).
    pub detectors: Vec<DetectorSpec>,
    /// Stream construction (seed, length scaling, drift count, dynamic IR).
    pub build: BuildConfigSerde,
    /// Prequential run settings.
    pub run: RunConfig,
    /// Optional restriction to a subset of benchmark names (all 24 if empty).
    pub benchmarks: Vec<String>,
}

/// Serializable mirror of [`BuildConfig`] (which lives in the streams crate
/// and intentionally stays serde-free).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BuildConfigSerde {
    /// Reproducibility seed.
    pub seed: u64,
    /// Divisor applied to the published stream lengths.
    pub scale_divisor: u64,
    /// Number of injected drifts per artificial stream.
    pub n_drifts: usize,
    /// Whether artificial streams use a dynamic imbalance ratio.
    pub dynamic_imbalance: bool,
}

impl From<BuildConfigSerde> for BuildConfig {
    fn from(value: BuildConfigSerde) -> Self {
        BuildConfig {
            seed: value.seed,
            scale_divisor: value.scale_divisor,
            n_drifts: value.n_drifts,
            dynamic_imbalance: value.dynamic_imbalance,
        }
    }
}

impl Default for Experiment1Config {
    fn default() -> Self {
        Experiment1Config {
            detectors: paper_detectors(),
            build: BuildConfigSerde {
                seed: 42,
                scale_divisor: 20,
                n_drifts: 3,
                dynamic_imbalance: true,
            },
            run: RunConfig::default(),
            benchmarks: Vec::new(),
        }
    }
}

/// Full outcome of Experiment 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Experiment1Result {
    /// One row per (benchmark × detector).
    pub runs: Vec<RunResult>,
    /// Benchmark names in evaluation order.
    pub benchmarks: Vec<String>,
    /// Detector order used for the rank analysis.
    pub detectors: Vec<DetectorSpec>,
}

impl Experiment1Result {
    /// pmAUC matrix `[detector][benchmark]`.
    pub fn pm_auc_matrix(&self) -> Vec<Vec<f64>> {
        self.metric_matrix(|r| r.pm_auc)
    }

    /// pmGM matrix `[detector][benchmark]`.
    pub fn pm_gmean_matrix(&self) -> Vec<Vec<f64>> {
        self.metric_matrix(|r| r.pm_gmean)
    }

    fn metric_matrix(&self, metric: impl Fn(&RunResult) -> f64) -> Vec<Vec<f64>> {
        self.detectors
            .iter()
            .map(|d| {
                let label = d.label();
                self.benchmarks
                    .iter()
                    .map(|b| {
                        self.runs
                            .iter()
                            .find(|r| r.detector == label && &r.stream == b)
                            .map(&metric)
                            .unwrap_or(f64::NAN)
                    })
                    .collect()
            })
            .collect()
    }

    /// Friedman test over the pmAUC matrix (Fig. 4 input).
    pub fn friedman_pm_auc(&self) -> rbm_im_stats::Result<FriedmanResult> {
        friedman_test(&self.pm_auc_matrix(), true)
    }

    /// Friedman test over the pmGM matrix (Fig. 5 input).
    pub fn friedman_pm_gmean(&self) -> rbm_im_stats::Result<FriedmanResult> {
        friedman_test(&self.pm_gmean_matrix(), true)
    }

    /// Bonferroni–Dunn critical difference for this comparison.
    pub fn critical_difference(&self, alpha: f64) -> rbm_im_stats::Result<f64> {
        bonferroni_dunn_critical_difference(self.detectors.len(), self.benchmarks.len(), alpha)
    }

    /// Bayesian signed test of RBM-IM against the detector labelled
    /// `opponent` on pmAUC (Figs. 6–7; the rope is expressed in pmAUC
    /// percentage points).
    pub fn bayesian_vs(
        &self,
        opponent: &str,
        rope: f64,
        samples: usize,
        seed: u64,
    ) -> rbm_im_stats::Result<BayesianSignedOutcome> {
        let matrix = self.pm_auc_matrix();
        let index = |label: &str| self.detectors.iter().position(|d| d.label() == label);
        let rbm_idx = index("RBM-IM").expect("RBM-IM must be part of the comparison");
        let opp_idx = index(opponent).expect("opponent must be part of the comparison");
        bayesian_signed_test(&matrix[rbm_idx], &matrix[opp_idx], rope, samples, seed)
    }

    /// Average detector update time in seconds, per detector label.
    pub fn average_update_seconds(&self) -> Vec<(String, f64)> {
        self.detectors
            .iter()
            .map(|d| {
                let label = d.label();
                let rows: Vec<&RunResult> =
                    self.runs.iter().filter(|r| r.detector == label).collect();
                let avg = if rows.is_empty() {
                    0.0
                } else {
                    rows.iter().map(|r| r.detector_update_seconds).sum::<f64>() / rows.len() as f64
                };
                (label, avg)
            })
            .collect()
    }
}

/// Selects the benchmarks requested by the configuration.
pub fn selected_benchmarks(config: &Experiment1Config) -> Vec<BenchmarkSpec> {
    let all = all_benchmarks();
    if config.benchmarks.is_empty() {
        all
    } else {
        all.into_iter()
            .filter(|b| config.benchmarks.iter().any(|n| n.eq_ignore_ascii_case(&b.name)))
            .collect()
    }
}

/// Runs Experiment 1: every configured detector on every configured
/// benchmark, as one parallel grid. `progress` is called live as each cell
/// completes (completion order, so long grids show progress); the returned
/// result is in deterministic benchmark-major grid order. Pass `|_| {}` to
/// ignore progress.
pub fn run_experiment1(
    config: &Experiment1Config,
    progress: impl FnMut(&RunResult) + Send,
) -> Experiment1Result {
    let build: BuildConfig = config.build.into();
    let specs = selected_benchmarks(config);
    let streams: Vec<GridStream> =
        specs.iter().map(|s| GridStream::from_benchmark(s.clone(), build)).collect();
    let progress = std::sync::Mutex::new(progress);
    let runs = run_grid_observed(&config.detectors, &streams, &config.run, |run| {
        (progress.lock().expect("progress sink poisoned"))(run)
    })
    .expect("every configured detector resolves against the default registry");
    Experiment1Result {
        runs,
        benchmarks: specs.iter().map(|s| s.name.clone()).collect(),
        detectors: config.detectors.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately tiny configuration so the experiment machinery can be
    /// exercised inside unit tests.
    fn tiny_config() -> Experiment1Config {
        Experiment1Config {
            detectors: ["FHDDM", "DDM-OCI", "RBM-IM"].map(DetectorSpec::new).to_vec(),
            build: BuildConfigSerde {
                seed: 7,
                scale_divisor: 400,
                n_drifts: 1,
                dynamic_imbalance: true,
            },
            run: RunConfig { metric_window: 500, max_instances: Some(2_500), ..Default::default() },
            benchmarks: vec!["RBF5".into(), "Aggrawal5".into()],
        }
    }

    #[test]
    fn tiny_experiment_produces_full_matrix() {
        let config = tiny_config();
        let mut seen = 0usize;
        let result = run_experiment1(&config, |_| seen += 1);
        assert_eq!(seen, 6);
        assert_eq!(result.runs.len(), 6);
        assert_eq!(result.benchmarks.len(), 2);
        let matrix = result.pm_auc_matrix();
        assert_eq!(matrix.len(), 3);
        assert_eq!(matrix[0].len(), 2);
        assert!(matrix.iter().flatten().all(|v| v.is_finite()));
        let gm = result.pm_gmean_matrix();
        assert!(gm.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn rank_analysis_runs_on_experiment_output() {
        let result = run_experiment1(&tiny_config(), |_| {});
        let friedman = result.friedman_pm_auc().unwrap();
        assert_eq!(friedman.average_ranks.len(), 3);
        let cd = result.critical_difference(0.05).unwrap();
        assert!(cd > 0.0);
        let bayes = result.bayesian_vs("DDM-OCI", 1.0, 2_000, 3).unwrap();
        let total = bayes.p_left + bayes.p_rope + bayes.p_right;
        assert!((total - 1.0).abs() < 1e-9);
        let timings = result.average_update_seconds();
        assert_eq!(timings.len(), 3);
    }

    #[test]
    fn benchmark_selection_filters() {
        let mut config = Experiment1Config {
            benchmarks: vec!["rbf5".into(), "electricity".into()],
            ..Default::default()
        };
        let specs = selected_benchmarks(&config);
        assert_eq!(specs.len(), 2);
        config.benchmarks.clear();
        assert_eq!(selected_benchmarks(&config).len(), 24);
    }
}
