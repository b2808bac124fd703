//! RBM-IM — the trainable, skew-insensitive concept drift detector that is
//! the paper's primary contribution (Sec. V).
//!
//! The detector is a three-layer Restricted Boltzmann Machine:
//!
//! * a **visible layer** `v` over the (min–max normalized) feature vector,
//! * a **hidden layer** `h` of binary units,
//! * a **class layer** `z` holding a softmax encoding of the label,
//!
//! trained online on mini-batches with Contrastive Divergence (CD-k) and a
//! **class-balanced negative log-likelihood loss** based on the effective
//! number of samples (Cui et al., CVPR 2019), which prevents majority
//! classes from dominating the learned representation.
//!
//! Drift detection (Sec. V-B) works per class:
//!
//! 1. every arriving mini-batch is *first* pushed through the network to
//!    obtain the average **reconstruction error** of each class
//!    (Eq. 22–27),
//! 2. the **trend** of that error is maintained as the slope of a linear
//!    regression over a self-adaptive sliding window of recent batches
//!    (Eq. 28–37, with ADWIN providing the adaptive window length),
//! 3. a **Granger causality test on first differences** compares the trend
//!    series of the previous window with the current one; when no causal
//!    relationship is found *and* the reconstruction error has moved
//!    materially, a drift is signalled **for that class** (the paper's
//!    detection rule, Sec. V-B), and independently an ADWIN monitor on the
//!    per-class reconstruction error provides the self-adaptive windowing
//!    the paper attributes to \[19\],
//! 4. the network then trains on the batch, so the detector follows the
//!    stream (changing imbalance ratios, class-role switches) without any
//!    manually set thresholds.
//!
//! The public entry point is [`RbmIm`], which implements the
//! [`DriftDetector`](rbm_im_detectors::DriftDetector) trait used by every
//! other detector in the reproduction, plus per-class attribution through
//! `drifted_classes`.
//!
//! # Layers
//!
//! * [`linalg`] — flat row-major [`linalg::DenseMatrix`] plus the blocked,
//!   auto-vectorizable GEMM/GEMV/sigmoid/softmax kernels every hot loop
//!   runs on (and the one shared `softmax_in_place`, re-exported by the
//!   classifiers crate);
//! * [`network`] — the three-layer RBM with batch-level CD-k over a
//!   zero-allocation [`network::Workspace`];
//! * [`mod@reference`] — the retained naive per-instance implementation, the
//!   ground truth of the equivalence suite and the baseline of the
//!   `rbm_train` microbenchmark;
//! * [`trend`] / [`detector`] — per-class trend tracking and the RBM-IM
//!   drift rule on top.

#![warn(missing_docs)]

pub mod detector;
pub mod linalg;
pub mod network;
pub mod pool;
pub mod reference;
pub mod trend;

pub use detector::{RbmIm, RbmImConfig};
pub use linalg::DenseMatrix;
pub use network::{RbmNetwork, RbmNetworkConfig, Workspace};
pub use pool::WorkspacePool;
pub use reference::ReferenceRbmNetwork;
pub use trend::TrendTracker;
