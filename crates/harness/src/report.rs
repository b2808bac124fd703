//! Result formatting: plain-text tables matching the layout of the paper's
//! tables/figures, plus JSON serialization of every experiment artifact.

use crate::experiment1::Experiment1Result;
use crate::experiment2::Experiment2Result;
use crate::experiment3::Experiment3Result;
use crate::registry::DetectorSpec;
use serde::Serialize;

/// Formats the Table III analogue: one row per benchmark, one column per
/// detector, for the chosen metric (`"pmAUC"` or `"pmGM"`).
pub fn format_table3(result: &Experiment1Result, metric: &str) -> String {
    let matrix = match metric {
        "pmGM" => result.pm_gmean_matrix(),
        _ => result.pm_auc_matrix(),
    };
    let mut out = String::new();
    out.push_str(&format!("{:<16}", format!("Dataset ({metric})")));
    for d in &result.detectors {
        out.push_str(&format!("{:>10}", d.label()));
    }
    out.push('\n');
    for (j, bench) in result.benchmarks.iter().enumerate() {
        out.push_str(&format!("{:<16}", truncate(bench, 15)));
        for row in &matrix {
            out.push_str(&format!("{:>10.2}", row[j]));
        }
        out.push('\n');
    }
    // Rank row (Friedman average ranks), as in the paper's last row.
    if let Ok(friedman) =
        if metric == "pmGM" { result.friedman_pm_gmean() } else { result.friedman_pm_auc() }
    {
        out.push_str(&format!("{:<16}", "avg rank"));
        for r in &friedman.average_ranks {
            out.push_str(&format!("{:>10.2}", r));
        }
        out.push('\n');
    }
    // Timing rows.
    out.push_str(&format!("{:<16}", "upd time [s]"));
    for (_, t) in result.average_update_seconds() {
        out.push_str(&format!("{:>10.3}", t));
    }
    out.push('\n');
    out
}

/// Formats the Bonferroni–Dunn summary used for Figs. 4 and 5.
pub fn format_ranking(result: &Experiment1Result, metric: &str, alpha: f64) -> String {
    let friedman = match if metric == "pmGM" {
        result.friedman_pm_gmean()
    } else {
        result.friedman_pm_auc()
    } {
        Ok(f) => f,
        Err(e) => return format!("ranking unavailable: {e}"),
    };
    let cd = result.critical_difference(alpha).unwrap_or(f64::NAN);
    let mut out = String::new();
    out.push_str(&format!(
        "Friedman ({metric}): chi2 = {:.3}, p = {:.2e}; Bonferroni-Dunn CD (alpha={alpha}) = {:.3}\n",
        friedman.chi_squared, friedman.p_value, cd
    ));
    let mut ranked: Vec<(String, f64)> =
        result.detectors.iter().map(DetectorSpec::label).zip(friedman.average_ranks).collect();
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("ranks are not NaN"));
    for (d, r) in ranked {
        out.push_str(&format!("  {:<10} rank {:.2}\n", d, r));
    }
    out
}

/// Formats a Fig. 8 / Fig. 9 style series table: rows are sweep points,
/// columns are detectors.
pub fn format_series_table(
    header: &str,
    xs: &[String],
    detectors: &[DetectorSpec],
    series: &[Vec<f64>],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<24}", header));
    for d in detectors {
        out.push_str(&format!("{:>10}", d.label()));
    }
    out.push('\n');
    for (i, x) in xs.iter().enumerate() {
        out.push_str(&format!("{:<24}", truncate(x, 23)));
        for s in series {
            out.push_str(&format!("{:>10.2}", s.get(i).copied().unwrap_or(f64::NAN)));
        }
        out.push('\n');
    }
    out
}

/// Fig. 8 table from an Experiment 2 result.
pub fn format_fig8(result: &Experiment2Result) -> String {
    let xs: Vec<String> =
        result.points.iter().map(|p| format!("{} classes drift", p.classes_with_drift)).collect();
    let series: Vec<Vec<f64>> =
        result.detectors.iter().map(|d| result.series(&d.label())).collect();
    format_series_table("pmAUC vs drifting classes", &xs, &result.detectors, &series)
}

/// Fig. 9 table from an Experiment 3 result.
pub fn format_fig9(result: &Experiment3Result) -> String {
    let xs: Vec<String> =
        result.points.iter().map(|p| format!("IR = {}", p.imbalance_ratio)).collect();
    let series: Vec<Vec<f64>> =
        result.detectors.iter().map(|d| result.series(&d.label())).collect();
    format_series_table("pmAUC vs imbalance ratio", &xs, &result.detectors, &series)
}

/// Serializes any experiment artifact to pretty JSON.
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"))
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        s[..max].to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment1::{run_experiment1, BuildConfigSerde, Experiment1Config};
    use crate::pipeline::RunConfig;

    fn tiny_result() -> Experiment1Result {
        let config = Experiment1Config {
            detectors: vec![DetectorSpec::new("FHDDM"), DetectorSpec::new("RBM-IM")],
            build: BuildConfigSerde {
                seed: 1,
                scale_divisor: 500,
                n_drifts: 1,
                dynamic_imbalance: false,
            },
            run: RunConfig { metric_window: 400, max_instances: Some(1_500), ..Default::default() },
            benchmarks: vec!["RBF5".into(), "RandomTree5".into()],
        };
        run_experiment1(&config, |_| {})
    }

    #[test]
    fn table3_contains_all_rows_and_columns() {
        let result = tiny_result();
        let table = format_table3(&result, "pmAUC");
        assert!(table.contains("RBF5"));
        assert!(table.contains("RandomTree5"));
        assert!(table.contains("FHDDM"));
        assert!(table.contains("RBM-IM"));
        assert!(table.contains("avg rank"));
        assert!(table.contains("upd time"));
        let gm = format_table3(&result, "pmGM");
        assert!(gm.contains("pmGM"));
    }

    #[test]
    fn ranking_report_mentions_cd() {
        let result = tiny_result();
        let report = format_ranking(&result, "pmAUC", 0.05);
        assert!(report.contains("Bonferroni-Dunn CD"));
        assert!(report.contains("RBM-IM"));
    }

    #[test]
    fn series_table_and_json_are_well_formed() {
        let xs = vec!["IR = 50".to_string(), "IR = 100".to_string()];
        let detectors = vec![DetectorSpec::new("DDM"), DetectorSpec::new("RBM-IM")];
        let series = vec![vec![60.0, 55.0], vec![80.0, 78.0]];
        let table = format_series_table("pmAUC vs IR", &xs, &detectors, &series);
        assert!(table.contains("IR = 50"));
        assert!(table.contains("80.00"));
        let json = to_json(&detectors);
        assert!(json.contains("RBM-IM"));
    }

    #[test]
    fn truncate_cuts_long_names() {
        assert_eq!(truncate("short", 10), "short");
        assert_eq!(truncate("averylongbenchmarkname", 5), "avery");
    }
}
