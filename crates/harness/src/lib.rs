//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Sec. VI) from the building blocks in the other crates.
//!
//! Everything runs through the unified **Pipeline API**:
//!
//! * [`pipeline::PipelineBuilder`] — one prequential run: a stream, an
//!   [`rbm_im_classifiers::OnlineClassifier`] (the paper's CSPT by default),
//!   a drift detector (pre-built or resolved by spec), allocation-free
//!   buffers in the hot loop, optional detector mini-batching and event
//!   sinks;
//! * [`registry::DetectorRegistry`] / [`registry::DetectorSpec`] — the open,
//!   string-keyed detector catalogue (`"adwin(delta=0.01)"` is a valid
//!   spec); new detectors register without touching this crate;
//! * [`pipeline::run_grid`] — the rayon-parallel detectors × streams grid
//!   with deterministic per-cell seeding that experiments 1–3 are built on;
//! * [`registry::paper_detectors`] — the paper's Table III line-up as six
//!   specs labelled with the table's column headers.
//!
//! | Paper artifact | Module | Binary / bench |
//! |---|---|---|
//! | Table I (benchmark inventory) | [`rbm_im_streams::registry`] | `cargo run -p rbm-im-harness --release --bin table1` |
//! | Table III (pmAUC / pmGM / timing, 6 detectors × 24 streams) | [`experiment1`] | `--bin experiment1`, bench `table3_detectors` |
//! | Fig. 4 & 5 (Bonferroni–Dunn ranks) | [`experiment1`] | `--bin experiment1` |
//! | Fig. 6 & 7 (Bayesian signed tests) | [`experiment1`] | `--bin experiment1` |
//! | Fig. 8 (pmAUC vs number of locally drifting classes) | [`experiment2`] | `--bin experiment2`, bench `fig8_local_drift` |
//! | Fig. 9 (pmAUC vs imbalance ratio) | [`experiment3`] | `--bin experiment3`, bench `fig9_imbalance` |
//! | Detector overhead (Table III bottom rows) | [`pipeline`] timing fields | bench `detector_overhead` |
//! | Design-choice ablations (DESIGN.md) | [`ablation`] | bench `ablation_rbm` |
//!
//! The harness scales stream lengths down by default (`BuildConfig::default`)
//! so the complete Table III regenerates in minutes on a laptop; pass
//! `--scale 1` to the binaries for paper-scale streams.

#![warn(missing_docs)]

pub mod ablation;
pub mod checkpoint;
pub mod experiment1;
pub mod experiment2;
pub mod experiment3;
pub mod pipeline;
pub mod registry;
pub mod report;
pub mod stepper;
pub mod tuning;

pub use checkpoint::{CheckpointError, PipelineCheckpoint};
pub use pipeline::{run_grid, GridStream, PipelineBuilder, PipelineEvent, RunConfig, RunResult};
pub use registry::{DetectorRegistry, DetectorSpec};
pub use stepper::PipelineStepper;
