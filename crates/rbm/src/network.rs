//! The three-layer Restricted Boltzmann Machine underlying RBM-IM, on flat
//! matrix kernels.
//!
//! Architecture (paper Eq. 6–12): a visible layer `v` of `V` units holding
//! the normalized feature vector, a hidden layer `h` of `H` binary units and
//! a class layer `z` of `Z` softmax units. Connections exist between `v`–`h`
//! (weights `w`) and `h`–`z` (weights `u`); there are no intra-layer
//! connections. Training minimizes the class-balanced negative
//! log-likelihood (Eq. 13) with Contrastive Divergence (CD-k, Eq. 16–21) on
//! mini-batches.
//!
//! Unlike the retained per-instance reference ([`crate::reference`]), this
//! implementation stores every matrix flat and row-major
//! ([`crate::linalg::DenseMatrix`]) and runs CD-k **batch-level**: the
//! mini-batch is stacked into feature-major `V×N` / `Z×N` matrices (the
//! batch is the contiguous SIMD dimension) and the positive phase, the
//! Gibbs chain, and the reconstruction errors each become a handful of
//! GEMMs over the whole batch. All scratch lives in a reusable
//! [`Workspace`], so steady-state training performs zero heap allocations.
//! The kernels fix their accumulation order (see [`crate::linalg`]) and the
//! Gibbs-chain uniforms are pre-drawn per instance in arrival order, so the
//! results — including the RNG stream — are bitwise-identical to the
//! reference implementation for training, reconstruction errors, and the
//! layer probabilities. The one deliberate exception is
//! [`RbmNetwork::predict`]: it hoists the class-independent `v·w` term out
//! of the class loop (an O(Z·V·H) → O((V+Z)·H) saving), which re-associates
//! the free-energy sum — predictions agree with the reference up to
//! last-ulp rounding of near-exact ties, not bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbm_im_streams::{Instance, MiniBatch};

use crate::linalg::{
    axpy, cdk_bias_gradient, cdk_weight_gradient, dot, gemm2_acc, gemm_acc, gemv_acc, gemv_t_acc,
    momentum_update, sigmoid_in_place, softmax_cols_in_place, softmax_in_place, transpose_into,
    DenseMatrix,
};

/// Hyper-parameters of the RBM network (the RBM-IM rows of Tab. II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbmNetworkConfig {
    /// Number of hidden units, expressed as a fraction of the visible units
    /// (the paper's grid: 0.25·V … 1.0·V). The absolute count is
    /// `max(4, fraction * num_features)`.
    pub hidden_fraction: f64,
    /// Absolute hidden-unit count override. When `Some`, it takes precedence
    /// over [`RbmNetworkConfig::hidden_fraction`] (the registry's
    /// `rbm(hidden=60)` spec parameter lands here); the floor of 4 units
    /// still applies.
    pub hidden_units: Option<usize>,
    /// Learning rate η of the gradient updates (Eq. 17).
    pub learning_rate: f64,
    /// Number of Gibbs sampling steps k in CD-k.
    pub gibbs_steps: usize,
    /// β parameter of the effective-number-of-samples class-balanced loss;
    /// weights are `(1 − β) / (1 − β^{n_c})`.
    pub class_balance_beta: f64,
    /// Weight-decay (L2) coefficient applied to the connection weights.
    pub weight_decay: f64,
    /// Momentum applied to gradient updates (0 disables it).
    pub momentum: f64,
    /// RNG seed.
    pub seed: u64,
    /// Opt-in CD-k kernel timing: every batched kernel call records its
    /// duration into the global metrics registry as
    /// `rbm_kernel_seconds{kernel}` (when [`rbm_im_obs::enabled`]). Pure
    /// observation — never changes results — but it pays a clock read and
    /// a histogram update per kernel call, so it stays off by default.
    pub kernel_timing: bool,
}

impl Default for RbmNetworkConfig {
    fn default() -> Self {
        RbmNetworkConfig {
            hidden_fraction: 0.5,
            hidden_units: None,
            learning_rate: 0.05,
            gibbs_steps: 1,
            class_balance_beta: 0.99,
            weight_decay: 1e-4,
            momentum: 0.5,
            seed: 42,
            kernel_timing: false,
        }
    }
}

/// Reusable scratch buffers of the batched CD-k trainer.
///
/// The batched data flow stacks a mini-batch of `N` instances into
/// **feature-major** matrices — layer units × batch, so the batch is the
/// contiguous dimension every kernel vectorizes over (layer widths are
/// often single-digit; the batch is 25–100) — and pushes the whole stack
/// through each phase at once:
///
/// ```text
/// pack       v0: V×N  (normalized features)   z0: Z×N  (one-hot labels)
/// positive   h0 = σ(b ⊕ wᵀ·v0 + u·z0)                — 1 fused GEMM pair
/// sample     hs = 1[uniforms < h0]     (uniforms pre-drawn per instance)
/// gibbs ×k   vk = σ(a ⊕ w·hs)   zk = softmax(c ⊕ uᵀ·hs)      — 2 GEMMs
///            hk = σ(b ⊕ wᵀ·vk + u·zk)               — 1 fused GEMM pair
/// gradient   dw += Σₙ wₙ·(v0ₙh0ₙᵀ − vkₙhkₙᵀ)   (batch-reduced fused
///            du += Σₙ wₙ·(h0ₙz0ₙᵀ − hkₙzkₙᵀ)      outer products)
/// update     w/u/a/b/c via fused momentum + weight-decay kernels
/// ```
///
/// (`⊕` = bias broadcast across the batch, `wₙ` = the class-balanced weight
/// of instance `n`'s class, computed once per batch into `class_weights`.)
///
/// Every buffer is re-shaped with [`DenseMatrix::resize`] /
/// [`DenseMatrix::reshape_uninit`] / `Vec::resize`, which never release
/// capacity: after the first mini-batch of a given shape, training touches
/// the allocator exactly zero times (`crates/rbm/tests/no_alloc.rs`
/// enforces this with a counting allocator).
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Normalized visible batch, feature-major `V×N`.
    v0: DenseMatrix,
    /// One-hot class batch, `Z×N`.
    z0: DenseMatrix,
    /// Positive-phase hidden probabilities, `H×N`.
    h0: DenseMatrix,
    /// Hidden samples driving the Gibbs chain, `H×N`.
    hs: DenseMatrix,
    /// Reconstructed visible batch, `V×N`.
    vk: DenseMatrix,
    /// Reconstructed class batch, `Z×N`.
    zk: DenseMatrix,
    /// Negative-phase hidden probabilities, `H×N`.
    hk: DenseMatrix,
    /// Pre-drawn sampling uniforms, `N×(k·H)`, drawn instance-major so the
    /// RNG stream matches the reference's per-instance draw order exactly.
    uniforms: DenseMatrix,
    /// Cached transpose `wᵀ: H×V`, refreshed once per batch.
    wt: DenseMatrix,
    /// Cached transpose `uᵀ: Z×H`, refreshed once per batch.
    ut: DenseMatrix,
    /// Gradient accumulator for `w`, `V×H`.
    dw: DenseMatrix,
    /// Gradient accumulator for `u`, `H×Z`.
    du: DenseMatrix,
    /// Bias gradient accumulators.
    da: Vec<f64>,
    db: Vec<f64>,
    dc: Vec<f64>,
    /// Per-class loss weights, computed once per batch (length `Z`).
    class_weights: Vec<f64>,
    /// Per-packed-instance loss weights (length `N`), gathered from
    /// `class_weights` for the blocked gradient kernels.
    instance_weights: Vec<f64>,
    /// Classes of the packed (valid-label) instances, in arrival order.
    packed_classes: Vec<usize>,
    /// Per-class error sums/counts for `batch_reconstruction_errors`.
    err_sums: Vec<f64>,
    err_counts: Vec<usize>,
    /// Staging buffers for the `MiniBatch`-based entry points.
    staged_features: Vec<f64>,
    staged_classes: Vec<usize>,
}

/// The three-layer RBM on flat storage.
#[derive(Debug, Clone)]
pub struct RbmNetwork {
    num_visible: usize,
    num_hidden: usize,
    num_classes: usize,
    config: RbmNetworkConfig,
    /// Visible–hidden weights, `V×H` row-major (`w[i·H + j]` connects `v_i`
    /// to `h_j`).
    w: DenseMatrix,
    /// Hidden–class weights, `H×Z` row-major (`u[j·Z + k]` connects `h_j`
    /// to `z_k`).
    u: DenseMatrix,
    /// Visible biases `a_i`.
    a: Vec<f64>,
    /// Hidden biases `b_j`.
    b: Vec<f64>,
    /// Class biases `c_k`.
    c: Vec<f64>,
    /// Momentum buffers (same shapes as `w` / `u`).
    w_vel: DenseMatrix,
    u_vel: DenseMatrix,
    /// Per-class instance counts (for the class-balanced loss weights).
    class_counts: Vec<u64>,
    /// Online per-feature min/max used to normalize inputs into [0, 1].
    feature_min: Vec<f64>,
    feature_max: Vec<f64>,
    rng: StdRng,
    batches_trained: u64,
    workspace: Workspace,
}

impl RbmNetwork {
    /// Creates an untrained network for the given schema.
    pub fn new(num_features: usize, num_classes: usize, config: RbmNetworkConfig) -> Self {
        assert!(num_features > 0);
        assert!(num_classes >= 2);
        assert!(config.hidden_fraction > 0.0);
        assert!(config.learning_rate > 0.0);
        assert!(config.gibbs_steps >= 1);
        assert!(config.class_balance_beta > 0.0 && config.class_balance_beta < 1.0);
        let num_hidden = hidden_count(num_features, &config);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scale = 0.1;
        // Row-major fill order matches the reference's nested loops, so both
        // implementations consume the same RNG stream at construction.
        let w =
            DenseMatrix::from_fn(num_features, num_hidden, |_, _| (rng.gen::<f64>() - 0.5) * scale);
        let u =
            DenseMatrix::from_fn(num_hidden, num_classes, |_, _| (rng.gen::<f64>() - 0.5) * scale);
        RbmNetwork {
            num_visible: num_features,
            num_hidden,
            num_classes,
            config,
            w,
            u,
            a: vec![0.0; num_features],
            b: vec![0.0; num_hidden],
            c: vec![0.0; num_classes],
            w_vel: DenseMatrix::zeros(num_features, num_hidden),
            u_vel: DenseMatrix::zeros(num_hidden, num_classes),
            class_counts: vec![0; num_classes],
            feature_min: vec![f64::INFINITY; num_features],
            feature_max: vec![f64::NEG_INFINITY; num_features],
            rng,
            batches_trained: 0,
            workspace: Workspace::default(),
        }
    }

    /// Number of hidden units.
    pub fn num_hidden(&self) -> usize {
        self.num_hidden
    }

    /// Number of mini-batches trained on so far.
    pub fn batches_trained(&self) -> u64 {
        self.batches_trained
    }

    /// Per-class instance counts accumulated during training.
    pub fn class_counts(&self) -> &[u64] {
        &self.class_counts
    }

    /// The visible–hidden weight matrix (`V×H`, row-major). Exposed for
    /// diagnostics and the equivalence suite.
    pub fn w(&self) -> &DenseMatrix {
        &self.w
    }

    /// The hidden–class weight matrix (`H×Z`, row-major).
    pub fn u(&self) -> &DenseMatrix {
        &self.u
    }

    /// Visible biases.
    pub fn a(&self) -> &[f64] {
        &self.a
    }

    /// Hidden biases.
    pub fn b(&self) -> &[f64] {
        &self.b
    }

    /// Class biases.
    pub fn c(&self) -> &[f64] {
        &self.c
    }

    /// Min–max normalizes one feature value using the running range of
    /// feature `i` (features never observed to vary map to 0.5).
    #[inline]
    fn normalize_one(&self, i: usize, x: f64) -> f64 {
        normalize_value(self.feature_min[i], self.feature_max[i], x)
    }

    fn observe_ranges(&mut self, features: &[f64]) {
        // Branch-free min/max so the loop vectorizes (equivalent to the
        // reference's comparisons for all non-NaN inputs).
        for ((&x, lo), hi) in
            features.iter().zip(self.feature_min.iter_mut()).zip(self.feature_max.iter_mut())
        {
            *lo = lo.min(x);
            *hi = hi.max(x);
        }
    }

    /// Hidden activation probabilities given visible values and a class
    /// one-hot/soft encoding (Eq. 10). Single-vector form used by tests and
    /// the equivalence suite; the training path computes whole batches with
    /// one GEMM instead.
    pub fn hidden_probabilities(&self, v: &[f64], z: &[f64]) -> Vec<f64> {
        let mut act = self.b.clone();
        gemv_t_acc(&mut act, &self.w, v);
        gemv_acc(&mut act, &self.u, z);
        sigmoid_in_place(&mut act);
        act
    }

    /// Visible reconstruction probabilities given hidden values (Eq. 11).
    pub fn visible_probabilities(&self, h: &[f64]) -> Vec<f64> {
        let mut act = self.a.clone();
        gemv_acc(&mut act, &self.w, h);
        sigmoid_in_place(&mut act);
        act
    }

    /// Class reconstruction probabilities (softmax, Eq. 12).
    pub fn class_probabilities(&self, h: &[f64]) -> Vec<f64> {
        let mut act = self.c.clone();
        gemv_t_acc(&mut act, &self.u, h);
        softmax_in_place(&mut act);
        act
    }

    /// Class-balanced loss weight of a class (Eq. 13): the inverse effective
    /// number of samples, normalized so the average weight over observed
    /// classes is 1. Diagnostic entry point; the training loop computes all
    /// classes at once with [`RbmNetwork::class_weights_into`].
    pub fn class_weight(&self, class: usize) -> f64 {
        let mut weights = vec![0.0; self.num_classes];
        self.class_weights_into(&mut weights);
        weights[class]
    }

    /// Computes the class-balanced loss weight of every class into `out`
    /// (resized to the class count). One call per mini-batch replaces the
    /// seed's per-instance recomputation, which allocated a fresh `raw`
    /// vector over all classes for every instance.
    pub fn class_weights_into(&self, out: &mut Vec<f64>) {
        let beta = self.config.class_balance_beta;
        out.clear();
        out.extend(self.class_counts.iter().map(|&n| {
            if n == 0 {
                // Unseen classes get the weight of a single-instance class.
                (1.0 - beta) / (1.0 - beta.powi(1))
            } else {
                (1.0 - beta) / (1.0 - beta.powi(n.min(i32::MAX as u64) as i32))
            }
        }));
        let mean: f64 = out.iter().sum::<f64>() / out.len() as f64;
        if mean <= 0.0 {
            out.fill(1.0);
        } else {
            for w in out.iter_mut() {
                *w /= mean;
            }
        }
    }

    /// Predicts the class of an instance by comparing free energies: for
    /// each candidate class `k` the free energy of the configuration
    /// `(v, z = 1_k)` is computed and the lowest-energy class wins (the
    /// standard discriminative read-out of a classification RBM). The
    /// shared `v·w` contribution is hoisted out of the class loop (one
    /// transposed GEMV instead of `Z` of them) — this re-associates the
    /// free-energy sum relative to the reference, so predictions match it
    /// up to last-ulp rounding of near-exact ties rather than bitwise (the
    /// detector path never calls this). Used by examples and tests; RBM-IM
    /// itself is a detector, not the stream classifier.
    pub fn predict(&self, features: &[f64]) -> usize {
        let v: Vec<f64> =
            features.iter().enumerate().map(|(i, &x)| self.normalize_one(i, x)).collect();
        let visible_term = dot(&v, &self.a);
        // act[j] = b_j + Σ_i v_i w_ij, shared across classes.
        let mut act = self.b.clone();
        gemv_t_acc(&mut act, &self.w, &v);
        let mut best = (0usize, f64::NEG_INFINITY);
        for k in 0..self.num_classes {
            // -F(v, k) = Σ_i a_i v_i + c_k + Σ_j softplus(act_j + u_jk)
            let mut neg_free_energy = visible_term + self.c[k];
            for (j, &act_j) in act.iter().enumerate() {
                let x = act_j + self.u.get(j, k);
                // softplus(x) = ln(1 + e^x), computed stably.
                neg_free_energy += if x > 30.0 { x } else { (1.0 + x.exp()).ln() };
            }
            if neg_free_energy > best.1 {
                best = (k, neg_free_energy);
            }
        }
        best.0
    }

    /// Packs the valid-label instances of a flat batch into the given
    /// workspace's `v0` / `z0` matrices (normalizing features) and records
    /// their classes. Returns the number of packed rows.
    fn pack_batch_in(&self, ws: &mut Workspace, features: &[f64], classes: &[usize]) -> usize {
        assert_eq!(
            features.len(),
            classes.len() * self.num_visible,
            "flat batch shape mismatch: expected {} features per instance",
            self.num_visible
        );
        let kept = classes.iter().filter(|&&c| c < self.num_classes).count();
        ws.v0.reshape_uninit(self.num_visible, kept);
        ws.z0.resize(self.num_classes, kept);
        ws.packed_classes.clear();
        let mut col = 0;
        for (n, &class) in classes.iter().enumerate() {
            if class >= self.num_classes {
                continue;
            }
            let src = &features[n * self.num_visible..(n + 1) * self.num_visible];
            // Writes walk the instance's column of the feature-major matrix.
            for (i, &x) in src.iter().enumerate() {
                *ws.v0.get_mut(i, col) =
                    normalize_value(self.feature_min[i], self.feature_max[i], x);
            }
            *ws.z0.get_mut(class, col) = 1.0;
            ws.packed_classes.push(class);
            col += 1;
        }
        kept
    }

    /// Stages a `MiniBatch` into flat buffers and hands it to `run`.
    fn with_staged<R>(
        &mut self,
        batch: &MiniBatch,
        run: impl FnOnce(&mut Self, &[f64], &[usize]) -> R,
    ) -> R {
        let mut features = std::mem::take(&mut self.workspace.staged_features);
        let mut classes = std::mem::take(&mut self.workspace.staged_classes);
        features.clear();
        classes.clear();
        for instance in &batch.instances {
            assert_eq!(instance.features.len(), self.num_visible, "feature count mismatch");
            features.extend_from_slice(&instance.features);
            classes.push(instance.class);
        }
        let out = run(self, &features, &classes);
        self.workspace.staged_features = features;
        self.workspace.staged_classes = classes;
        out
    }

    /// Reconstruction error of a single labeled instance (Eq. 22–26): the
    /// root of the summed squared differences between the instance (features
    /// plus one-hot label) and its reconstruction, scored against
    /// caller-owned scratch. Scoring never mutates the model, so read paths
    /// never need `&mut` access to the network and one [`Workspace`] (e.g.
    /// checked out of a [`WorkspacePool`](crate::pool::WorkspacePool)) can
    /// serve any number of networks. Allocation-free once `ws` has grown to
    /// the largest shape it has seen. This is the only single-instance
    /// scoring surface — the old `&mut self` variant that borrowed the
    /// network's internal scratch is gone.
    pub fn reconstruction_error_with(&self, ws: &mut Workspace, instance: &Instance) -> f64 {
        assert_eq!(instance.features.len(), self.num_visible, "feature count mismatch");
        // Single-row batch through the same kernels; invalid labels keep an
        // all-zero class row (matching the reference).
        ws.v0.reshape_uninit(self.num_visible, 1);
        ws.z0.resize(self.num_classes, 1);
        for (i, &x) in instance.features.iter().enumerate() {
            *ws.v0.get_mut(i, 0) = normalize_value(self.feature_min[i], self.feature_max[i], x);
        }
        if instance.class < self.num_classes {
            *ws.z0.get_mut(instance.class, 0) = 1.0;
        }
        self.refresh_transposes_in(ws);
        self.reconstruct_packed_in(ws, 1);
        self.packed_column_error_in(ws, 0).sqrt()
    }

    /// Squared reconstruction error of packed instance (column) `n`:
    /// visible terms in ascending feature order, then class terms in
    /// ascending class order — the reference's accumulation order
    /// (Eq. 22–26).
    fn packed_column_error_in(&self, ws: &Workspace, n: usize) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.num_visible {
            let d = ws.v0.get(i, n) - ws.vk.get(i, n);
            acc += d * d;
        }
        for k in 0..self.num_classes {
            let d = ws.z0.get(k, n) - ws.zk.get(k, n);
            acc += d * d;
        }
        acc
    }

    /// Average reconstruction error of each class over a flat mini-batch —
    /// the per-class detection pass (Eq. 27) — against caller-owned scratch:
    /// `features` holds `classes.len()` rows of `num_features` values;
    /// classes absent from the batch yield `None`. Scoring never mutates
    /// the model, so concurrent read paths can share one network and pool
    /// their workspaces. Clears and fills `out`; allocation-free once `out`
    /// and the workspace have grown to shape. This is the only batch
    /// scoring surface — the old `&mut self` variants
    /// (`batch_reconstruction_errors`, `reconstruction_errors_flat_into`)
    /// that borrowed the network's internal scratch are gone.
    pub fn reconstruction_errors_flat_with(
        &self,
        ws: &mut Workspace,
        features: &[f64],
        classes: &[usize],
        out: &mut Vec<Option<f64>>,
    ) {
        let kept = self.pack_batch_in(ws, features, classes);
        self.refresh_transposes_in(ws);
        self.reconstruct_packed_in(ws, kept);
        ws.err_sums.clear();
        ws.err_sums.resize(self.num_classes, 0.0);
        ws.err_counts.clear();
        ws.err_counts.resize(self.num_classes, 0);
        for n in 0..kept {
            let err = self.packed_column_error_in(ws, n).sqrt();
            let class = ws.packed_classes[n];
            ws.err_sums[class] += err;
            ws.err_counts[class] += 1;
        }
        out.clear();
        out.extend(ws.err_sums.iter().zip(ws.err_counts.iter()).map(|(&s, &c)| {
            if c == 0 {
                None
            } else {
                Some(s / c as f64)
            }
        }));
    }

    /// Refreshes the cached transposes `wᵀ` / `uᵀ` from the current weights
    /// so every GEMM in the batched path can run in contiguous axpy form.
    fn refresh_transposes_in(&self, ws: &mut Workspace) {
        transpose_into(&mut ws.wt, &self.w);
        transpose_into(&mut ws.ut, &self.u);
    }

    /// One deterministic mean-field reconstruction of the packed batch
    /// (feature-major: every matrix is layer units × batch, so the batch is
    /// the contiguous SIMD dimension): `h0 = σ(b ⊕ wᵀ·v0 + u·z0)`, then
    /// `vk = σ(a ⊕ w·h0)` and `zk = softmax(c ⊕ uᵀ·h0)`. Requires
    /// `pack_batch_in` and `refresh_transposes_in` to have run on `ws`.
    fn reconstruct_packed_in(&self, ws: &mut Workspace, kept: usize) {
        let timing = self.config.kernel_timing;
        ws.h0.reshape_uninit(self.num_hidden, kept);
        ws.h0.broadcast_cols(&self.b);
        timed(timing, "gemm2", || gemm2_acc(&mut ws.h0, &ws.wt, &ws.v0, &self.u, &ws.z0));
        timed(timing, "sigmoid", || sigmoid_in_place(ws.h0.as_mut_slice()));

        ws.vk.reshape_uninit(self.num_visible, kept);
        ws.vk.broadcast_cols(&self.a);
        timed(timing, "gemm", || gemm_acc(&mut ws.vk, &self.w, &ws.h0));
        timed(timing, "sigmoid", || sigmoid_in_place(ws.vk.as_mut_slice()));

        ws.zk.reshape_uninit(self.num_classes, kept);
        ws.zk.broadcast_cols(&self.c);
        timed(timing, "gemm", || gemm_acc(&mut ws.zk, &ws.ut, &ws.h0));
        timed(timing, "softmax", || softmax_cols_in_place(&mut ws.zk));
    }

    /// Trains the network on one mini-batch with CD-k and the class-balanced
    /// loss (Eq. 16–21). Returns the mean (weighted) reconstruction error of
    /// the batch before the update, which doubles as a cheap training
    /// diagnostic.
    pub fn train_batch(&mut self, batch: &MiniBatch) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        self.with_staged(batch, |net, features, classes| net.train_flat(features, classes))
    }

    /// Flat-batch trainer: `features` holds `classes.len()` rows of
    /// `num_features` values each (row-major). This is the batched CD-k hot
    /// path — the detector feeds its internal mini-batch buffer here without
    /// materializing any `Instance`. Steady state performs zero heap
    /// allocations: all scratch lives in the [`Workspace`].
    pub fn train_flat(&mut self, features: &[f64], classes: &[usize]) -> f64 {
        let n_total = classes.len();
        if n_total == 0 {
            return 0.0;
        }
        // Validate the batch shape before touching any state: a malformed
        // batch must not leave partial range/count updates behind.
        assert_eq!(
            features.len(),
            n_total * self.num_visible,
            "flat batch shape mismatch: expected {} features per instance",
            self.num_visible
        );
        // Update normalization ranges and class counts first so the weights
        // reflect the batch about to be learned.
        for (n, &class) in classes.iter().enumerate() {
            self.observe_ranges(&features[n * self.num_visible..(n + 1) * self.num_visible]);
            if class < self.num_classes {
                self.class_counts[class] += 1;
            }
        }

        let lr = self.config.learning_rate / n_total as f64;
        let momentum = self.config.momentum;
        let decay = self.config.weight_decay;
        let gibbs_steps = self.config.gibbs_steps;
        let (num_visible, num_hidden, num_classes) =
            (self.num_visible, self.num_hidden, self.num_classes);

        // The scratch workspace is moved out for the duration of the batch
        // (and moved back below) so the batched kernels can borrow it
        // mutably alongside `&self` model state — the same mechanism that
        // lets the `_with` scoring variants run on caller-owned workspaces.
        let mut workspace = std::mem::take(&mut self.workspace);
        let ws = &mut workspace;

        let kept = self.pack_batch_in(ws, features, classes);
        self.refresh_transposes_in(ws);

        // Per-class loss weights, once per batch (the class counts are fixed
        // for the duration of the batch, so per-instance recomputation — as
        // the seed did — yields the exact same values).
        self.class_weights_into(&mut ws.class_weights);

        // Pre-draw every Gibbs-sampling uniform, instance-major: instance n
        // consumes draws [n·kH, (n+1)·kH) exactly as the reference's
        // per-instance chain does, so the RNG streams stay identical. With
        // CD-1 (the default) there is exactly one sampling round and the
        // instance-major order coincides with sampling row by row, so the
        // draws can feed the comparison directly without the staging matrix.
        if gibbs_steps > 1 {
            ws.uniforms.reshape_uninit(kept, gibbs_steps * num_hidden);
            for n in 0..kept {
                for slot in ws.uniforms.row_mut(n).iter_mut() {
                    *slot = self.rng.gen::<f64>();
                }
            }
        }

        // Positive phase over the whole batch (feature-major):
        // h0 = σ(b ⊕ wᵀ·v0 + u·z0), one fused GEMM pair with the batch as
        // the contiguous inner dimension.
        let timing = self.config.kernel_timing;
        ws.h0.reshape_uninit(num_hidden, kept);
        ws.h0.broadcast_cols(&self.b);
        timed(timing, "gemm2", || gemm2_acc(&mut ws.h0, &ws.wt, &ws.v0, &self.u, &ws.z0));
        timed(timing, "sigmoid", || sigmoid_in_place(ws.h0.as_mut_slice()));

        // First hidden sample (instance-major draws walk the columns).
        ws.hs.reshape_uninit(num_hidden, kept);
        if gibbs_steps > 1 {
            sample_columns(&mut ws.hs, &ws.h0, &ws.uniforms, 0, num_hidden);
        } else {
            for n in 0..kept {
                for j in 0..num_hidden {
                    let p = ws.h0.get(j, n);
                    *ws.hs.get_mut(j, n) = if self.rng.gen::<f64>() < p { 1.0 } else { 0.0 };
                }
            }
        }

        // Gibbs chain (negative phase), batch-level.
        ws.vk.reshape_uninit(num_visible, kept);
        ws.zk.reshape_uninit(num_classes, kept);
        ws.hk.reshape_uninit(num_hidden, kept);
        for step in 0..gibbs_steps {
            ws.vk.broadcast_cols(&self.a);
            timed(timing, "gemm", || gemm_acc(&mut ws.vk, &self.w, &ws.hs));
            timed(timing, "sigmoid", || sigmoid_in_place(ws.vk.as_mut_slice()));

            ws.zk.broadcast_cols(&self.c);
            timed(timing, "gemm", || gemm_acc(&mut ws.zk, &ws.ut, &ws.hs));
            timed(timing, "softmax", || softmax_cols_in_place(&mut ws.zk));

            ws.hk.broadcast_cols(&self.b);
            timed(timing, "gemm2", || gemm2_acc(&mut ws.hk, &ws.wt, &ws.vk, &self.u, &ws.zk));
            timed(timing, "sigmoid", || sigmoid_in_place(ws.hk.as_mut_slice()));

            if step + 1 < gibbs_steps {
                sample_columns(&mut ws.hs, &ws.hk, &ws.uniforms, step + 1, num_hidden);
            } else {
                // Final step uses probabilities (standard CD-k practice).
                ws.hs.as_mut_slice().copy_from_slice(ws.hk.as_slice());
            }
        }

        // Accumulate weighted gradients: ⟨data⟩ − ⟨reconstruction⟩, as
        // instance-blocked positive-minus-negative outer products (the
        // outer-product formulation of the gradient GEMMs, ordered to keep
        // the reference's one-addend-per-instance accumulation).
        ws.dw.resize(num_visible, num_hidden);
        ws.du.resize(num_hidden, num_classes);
        ws.da.clear();
        ws.da.resize(num_visible, 0.0);
        ws.db.clear();
        ws.db.resize(num_hidden, 0.0);
        ws.dc.clear();
        ws.dc.resize(num_classes, 0.0);
        ws.instance_weights.clear();
        ws.instance_weights.extend(ws.packed_classes.iter().map(|&c| ws.class_weights[c]));
        let weights = &ws.instance_weights;
        timed(timing, "cdk_weight_grad", || {
            cdk_weight_gradient(&mut ws.dw, weights, &ws.v0, &ws.h0, &ws.vk, &ws.hk)
        });
        timed(timing, "cdk_weight_grad", || {
            cdk_weight_gradient(&mut ws.du, weights, &ws.h0, &ws.z0, &ws.hk, &ws.zk)
        });
        timed(timing, "cdk_bias_grad", || cdk_bias_gradient(&mut ws.da, weights, &ws.v0, &ws.vk));
        timed(timing, "cdk_bias_grad", || cdk_bias_gradient(&mut ws.db, weights, &ws.h0, &ws.hk));
        timed(timing, "cdk_bias_grad", || cdk_bias_gradient(&mut ws.dc, weights, &ws.z0, &ws.zk));
        let mut total_error = 0.0;
        for n in 0..kept {
            let weight = ws.instance_weights[n];
            let mut err = 0.0;
            for i in 0..num_visible {
                let d = ws.v0.get(i, n) - ws.vk.get(i, n);
                err += d * d;
            }
            for k in 0..num_classes {
                let d = ws.z0.get(k, n) - ws.zk.get(k, n);
                err += d * d;
            }
            total_error += weight * err.sqrt();
        }

        // Apply updates with momentum and weight decay (fused flat kernels).
        momentum_update(
            self.w.as_mut_slice(),
            self.w_vel.as_mut_slice(),
            ws.dw.as_slice(),
            lr,
            momentum,
            decay,
        );
        momentum_update(
            self.u.as_mut_slice(),
            self.u_vel.as_mut_slice(),
            ws.du.as_slice(),
            lr,
            momentum,
            decay,
        );
        axpy(&mut self.a, lr, &ws.da);
        axpy(&mut self.b, lr, &ws.db);
        axpy(&mut self.c, lr, &ws.dc);
        self.workspace = workspace;
        self.batches_trained += 1;
        total_error / n_total as f64
    }

    /// Installs `ws` as the network's internal scratch workspace, returning
    /// the previous one. A workspace checked out of a
    /// [`WorkspacePool`](crate::pool::WorkspacePool) carries the grown
    /// buffer capacities of every batch shape it has ever processed, so a
    /// freshly attached detector adopting a pooled workspace skips the
    /// warm-up allocations entirely.
    pub fn adopt_workspace(&mut self, ws: Workspace) -> Workspace {
        std::mem::replace(&mut self.workspace, ws)
    }

    /// Takes the internal scratch workspace out of the network (leaving an
    /// empty one behind), e.g. to return it to a
    /// [`WorkspacePool`](crate::pool::WorkspacePool) when the network is
    /// dropped.
    pub fn take_workspace(&mut self) -> Workspace {
        std::mem::take(&mut self.workspace)
    }

    /// Forgets everything (used when the harness fully reinitializes the
    /// detector). The scratch workspace — pure capacity, no model state —
    /// is carried over so adopted/pooled buffers survive resets.
    pub fn reset(&mut self) {
        let ws = std::mem::take(&mut self.workspace);
        *self = RbmNetwork::new(self.num_visible, self.num_classes, self.config);
        self.workspace = ws;
    }

    /// Captures the network's complete mutable state — weights, biases,
    /// momentum buffers, class counts, normalization ranges, the RNG state
    /// (as lossless hex words) and the batch counter — as a serde value.
    /// The scratch [`Workspace`] is pure capacity and is **never**
    /// serialized; a restored network keeps (or rebuilds) its own. Restored
    /// with [`RbmNetwork::restore_state`] onto a network built with the
    /// same shape and configuration, training and scoring continue
    /// **bitwise identically** — including the Gibbs-chain RNG stream — to
    /// a network that was never checkpointed.
    pub fn snapshot_state(&self) -> serde::Value {
        use serde::{Serialize, Value};
        let rng: Vec<Value> = self.rng.state().iter().map(|&w| Value::from_u64_hex(w)).collect();
        Value::object(vec![
            ("num_visible", self.num_visible.serialize_value()),
            ("num_hidden", self.num_hidden.serialize_value()),
            ("num_classes", self.num_classes.serialize_value()),
            ("w", matrix_to_value(&self.w)),
            ("u", matrix_to_value(&self.u)),
            ("a", self.a.serialize_value()),
            ("b", self.b.serialize_value()),
            ("c", self.c.serialize_value()),
            ("w_vel", matrix_to_value(&self.w_vel)),
            ("u_vel", matrix_to_value(&self.u_vel)),
            ("class_counts", self.class_counts.serialize_value()),
            ("feature_min", self.feature_min.serialize_value()),
            ("feature_max", self.feature_max.serialize_value()),
            ("rng", Value::Array(rng)),
            ("batches_trained", self.batches_trained.serialize_value()),
        ])
    }

    /// Restores state captured by [`RbmNetwork::snapshot_state`]. Fails if
    /// the snapshot was taken at a different layer shape. The internal
    /// scratch workspace is left untouched (it holds no model state).
    pub fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let num_visible: usize = state.field("num_visible")?;
        let num_hidden: usize = state.field("num_hidden")?;
        let num_classes: usize = state.field("num_classes")?;
        if num_visible != self.num_visible
            || num_hidden != self.num_hidden
            || num_classes != self.num_classes
        {
            return Err(serde::Error::msg(format!(
                "network shape mismatch: snapshot is {num_visible}v/{num_hidden}h/{num_classes}z, \
                 network is {}v/{}h/{}z",
                self.num_visible, self.num_hidden, self.num_classes
            )));
        }
        self.w = matrix_from_value(state.req("w")?, self.num_visible, self.num_hidden)?;
        self.u = matrix_from_value(state.req("u")?, self.num_hidden, self.num_classes)?;
        self.a = state.field("a")?;
        self.b = state.field("b")?;
        self.c = state.field("c")?;
        self.w_vel = matrix_from_value(state.req("w_vel")?, self.num_visible, self.num_hidden)?;
        self.u_vel = matrix_from_value(state.req("u_vel")?, self.num_hidden, self.num_classes)?;
        self.class_counts = state.field("class_counts")?;
        self.feature_min = state.field("feature_min")?;
        self.feature_max = state.field("feature_max")?;
        for (name, vec, want) in [
            ("a", self.a.len(), self.num_visible),
            ("b", self.b.len(), self.num_hidden),
            ("c", self.c.len(), self.num_classes),
            ("class_counts", self.class_counts.len(), self.num_classes),
            ("feature_min", self.feature_min.len(), self.num_visible),
            ("feature_max", self.feature_max.len(), self.num_visible),
        ] {
            if vec != want {
                return Err(serde::Error::msg(format!(
                    "network `{name}` length mismatch: snapshot has {vec}, expected {want}"
                )));
            }
        }
        let serde::Value::Array(rng_words) = state.req("rng")? else {
            return Err(serde::Error::msg("network `rng` must be an array"));
        };
        if rng_words.len() != 4 {
            return Err(serde::Error::msg("network `rng` must hold 4 state words"));
        }
        let mut words = [0u64; 4];
        for (slot, value) in words.iter_mut().zip(rng_words) {
            *slot = value.as_u64_hex()?;
        }
        self.rng = StdRng::from_state(words);
        self.batches_trained = state.field("batches_trained")?;
        Ok(())
    }
}

/// Serializes a matrix as `{rows, cols, data}` (row-major flat data).
fn matrix_to_value(m: &DenseMatrix) -> serde::Value {
    use serde::{Serialize, Value};
    Value::object(vec![
        ("rows", m.rows().serialize_value()),
        ("cols", m.cols().serialize_value()),
        ("data", m.as_slice().serialize_value()),
    ])
}

/// Rebuilds a matrix serialized by [`matrix_to_value`], validating its
/// shape against the expected dimensions.
fn matrix_from_value(
    value: &serde::Value,
    want_rows: usize,
    want_cols: usize,
) -> Result<DenseMatrix, serde::Error> {
    let rows: usize = value.field("rows")?;
    let cols: usize = value.field("cols")?;
    let data: Vec<f64> = value.field("data")?;
    if rows != want_rows || cols != want_cols || data.len() != rows * cols {
        return Err(serde::Error::msg(format!(
            "matrix shape mismatch: snapshot is {rows}×{cols} ({} values), expected \
             {want_rows}×{want_cols}",
            data.len()
        )));
    }
    let mut m = DenseMatrix::zeros(rows, cols);
    m.as_mut_slice().copy_from_slice(&data);
    Ok(m)
}

/// The hidden-layer width implied by a config: the absolute
/// `hidden_units` override when present, otherwise `hidden_fraction` of the
/// visible layer; both floored at 4 units. Shared with the retained
/// reference implementation so the two always agree on network shape.
pub(crate) fn hidden_count(num_features: usize, config: &RbmNetworkConfig) -> usize {
    config
        .hidden_units
        .unwrap_or_else(|| (num_features as f64 * config.hidden_fraction).round() as usize)
        .max(4)
}

/// Min–max normalizes `x` into `[0, 1]` over the running range `[lo, hi]`;
/// degenerate or never-observed ranges map to 0.5. The single definition of
/// the normalization expression (shared by `predict`, batch packing, and the
/// single-instance error path), matching the reference bit for bit.
#[inline]
fn normalize_value(lo: f64, hi: f64, x: f64) -> f64 {
    if !lo.is_finite() || !hi.is_finite() || hi - lo < 1e-12 {
        0.5
    } else {
        ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
    }
}

/// Runs one batched CD-k kernel call under the opt-in
/// [`RbmNetworkConfig::kernel_timing`] guard.
#[inline(always)]
fn timed(timing: bool, kernel: &'static str, run: impl FnOnce()) {
    let _timer = KernelTimer::start(timing, kernel);
    run();
}

/// Drop-guard of the opt-in kernel timing: armed only when timing is asked
/// for *and* observability is globally enabled, it records the elapsed
/// nanoseconds into `rbm_kernel_seconds{kernel}` in the global registry on
/// drop.
struct KernelTimer {
    kernel: &'static str,
    start: Option<std::time::Instant>,
}

impl KernelTimer {
    #[inline]
    fn start(timing: bool, kernel: &'static str) -> KernelTimer {
        let start = (timing && rbm_im_obs::enabled()).then(std::time::Instant::now);
        KernelTimer { kernel, start }
    }
}

impl Drop for KernelTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            rbm_im_obs::global()
                .histogram("rbm_kernel_seconds", &[("kernel", self.kernel)])
                .record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// `dst[j][n] ← 1` iff `uniforms[n][round·h + j] < probs[j][n]` — the
/// batched Bernoulli sampling step over feature-major matrices, reading the
/// pre-drawn (instance-major) uniforms of the given Gibbs round.
fn sample_columns(
    dst: &mut DenseMatrix,
    probs: &DenseMatrix,
    uniforms: &DenseMatrix,
    round: usize,
    h: usize,
) {
    for n in 0..dst.cols() {
        let u = &uniforms.row(n)[round * h..(round + 1) * h];
        for (j, &uj) in u.iter().enumerate() {
            *dst.get_mut(j, n) = if uj < probs.get(j, n) { 1.0 } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbm_im_streams::generators::GaussianMixtureGenerator;
    use rbm_im_streams::imbalance::{ImbalanceProfile, ImbalancedStream};
    use rbm_im_streams::StreamExt;

    fn batch_from(instances: Vec<Instance>) -> MiniBatch {
        MiniBatch { start_index: instances.first().map(|i| i.index).unwrap_or(0), instances }
    }

    /// Flattens instances into the `(features, classes)` form the flat
    /// scoring/training entry points take.
    fn flatten(instances: &[Instance]) -> (Vec<f64>, Vec<usize>) {
        let mut features = Vec::new();
        let mut classes = Vec::new();
        for inst in instances {
            features.extend_from_slice(&inst.features);
            classes.push(inst.class);
        }
        (features, classes)
    }

    #[test]
    fn construction_respects_hidden_fraction() {
        let net = RbmNetwork::new(
            20,
            5,
            RbmNetworkConfig { hidden_fraction: 0.25, ..Default::default() },
        );
        assert_eq!(net.num_hidden(), 5);
        // Floor of 4 hidden units for tiny inputs.
        let tiny =
            RbmNetwork::new(3, 2, RbmNetworkConfig { hidden_fraction: 0.25, ..Default::default() });
        assert_eq!(tiny.num_hidden(), 4);
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let mut stream = GaussianMixtureGenerator::balanced(8, 3, 1, 7);
        let mut net = RbmNetwork::new(8, 3, RbmNetworkConfig::default());
        // Measure error on a held-out probe batch before and after training.
        let probe = batch_from(stream.take_instances(100));
        // Warm the normalization ranges so the before/after comparison is fair.
        let warm = batch_from(stream.take_instances(50));
        net.train_batch(&warm);
        let mut ws = Workspace::default();
        let before: f64 =
            probe.instances.iter().map(|i| net.reconstruction_error_with(&mut ws, i)).sum::<f64>()
                / 100.0;
        for _ in 0..60 {
            let batch = batch_from(stream.take_instances(50));
            net.train_batch(&batch);
        }
        let after: f64 =
            probe.instances.iter().map(|i| net.reconstruction_error_with(&mut ws, i)).sum::<f64>()
                / 100.0;
        assert!(
            after < before * 0.9,
            "training should reduce reconstruction error: before {before}, after {after}"
        );
        assert_eq!(net.batches_trained(), 61);
    }

    #[test]
    fn reconstruction_error_rises_after_concept_change() {
        // Train on one mixture; the reconstruction error of data from a
        // different mixture must be higher than on the training concept.
        let mut concept_a = GaussianMixtureGenerator::balanced(6, 3, 1, 11);
        let mut concept_b = GaussianMixtureGenerator::balanced(6, 3, 1, 999);
        let mut net = RbmNetwork::new(6, 3, RbmNetworkConfig::default());
        for _ in 0..80 {
            let batch = batch_from(concept_a.take_instances(50));
            net.train_batch(&batch);
        }
        let mut ws = Workspace::default();
        let err_a: f64 = concept_a
            .take_instances(200)
            .iter()
            .map(|i| net.reconstruction_error_with(&mut ws, i))
            .sum::<f64>()
            / 200.0;
        let err_b: f64 = concept_b
            .take_instances(200)
            .iter()
            .map(|i| net.reconstruction_error_with(&mut ws, i))
            .sum::<f64>()
            / 200.0;
        assert!(
            err_b > err_a * 1.05,
            "unseen concept should reconstruct worse: trained {err_a}, new {err_b}"
        );
    }

    #[test]
    fn per_class_errors_reported_only_for_present_classes() {
        let mut stream = GaussianMixtureGenerator::balanced(5, 4, 1, 3);
        let mut net = RbmNetwork::new(5, 4, RbmNetworkConfig::default());
        let batch = batch_from(stream.take_instances(60));
        net.train_batch(&batch);
        let only_class_zero: Vec<Instance> =
            (0..20).map(|_| stream.generate_for_class(0)).collect();
        let (features, classes) = flatten(&only_class_zero);
        let mut ws = Workspace::default();
        let mut errors = Vec::new();
        net.reconstruction_errors_flat_with(&mut ws, &features, &classes, &mut errors);
        assert!(errors[0].is_some());
        assert!(errors[1].is_none());
        assert!(errors[2].is_none());
        assert!(errors[3].is_none());
    }

    #[test]
    fn class_weights_favor_minorities() {
        let base = GaussianMixtureGenerator::balanced(5, 3, 1, 17);
        let profile = ImbalanceProfile::Static(vec![50.0, 10.0, 1.0]);
        let mut stream = ImbalancedStream::new(base, profile, 5);
        let mut net = RbmNetwork::new(5, 3, RbmNetworkConfig::default());
        for _ in 0..40 {
            let batch = batch_from(stream.take_instances(50));
            net.train_batch(&batch);
        }
        let w_majority = net.class_weight(0);
        let w_minority = net.class_weight(2);
        assert!(
            w_minority > w_majority,
            "minority weight {w_minority} must exceed majority weight {w_majority}"
        );
        assert!(net.class_counts()[0] > net.class_counts()[2]);
    }

    #[test]
    fn class_weights_into_matches_per_class_queries() {
        let mut stream = GaussianMixtureGenerator::balanced(5, 3, 1, 17);
        let mut net = RbmNetwork::new(5, 3, RbmNetworkConfig::default());
        for _ in 0..10 {
            let batch = batch_from(stream.take_instances(50));
            net.train_batch(&batch);
        }
        let mut all = Vec::new();
        net.class_weights_into(&mut all);
        assert_eq!(all.len(), 3);
        for (class, &weight) in all.iter().enumerate() {
            assert_eq!(weight, net.class_weight(class));
        }
    }

    #[test]
    fn prediction_is_better_than_chance_after_training() {
        // The default (detector-sized) network is deliberately small; give
        // the classification probe a wider hidden layer and a faster
        // learning rate, as one would when using the RBM as a classifier.
        let mut stream = GaussianMixtureGenerator::balanced(6, 3, 1, 23);
        let cfg =
            RbmNetworkConfig { hidden_fraction: 2.0, learning_rate: 0.2, ..Default::default() };
        let mut net = RbmNetwork::new(6, 3, cfg);
        for _ in 0..200 {
            let batch = batch_from(stream.take_instances(50));
            net.train_batch(&batch);
        }
        let test = stream.take_instances(300);
        let correct = test.iter().filter(|i| net.predict(&i.features) == i.class).count();
        let accuracy = correct as f64 / test.len() as f64;
        assert!(accuracy > 0.6, "RBM class layer should beat chance (1/3), got {accuracy}");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut net = RbmNetwork::new(4, 2, RbmNetworkConfig::default());
        let err = net.train_batch(&MiniBatch { instances: vec![], start_index: 0 });
        assert_eq!(err, 0.0);
        assert_eq!(net.batches_trained(), 0);
    }

    #[test]
    fn reset_forgets_training() {
        let mut stream = GaussianMixtureGenerator::balanced(5, 3, 1, 31);
        let mut net = RbmNetwork::new(5, 3, RbmNetworkConfig::default());
        for _ in 0..20 {
            let batch = batch_from(stream.take_instances(50));
            net.train_batch(&batch);
        }
        net.reset();
        assert_eq!(net.batches_trained(), 0);
        assert!(net.class_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut s1 = GaussianMixtureGenerator::balanced(5, 3, 1, 3);
        let mut s2 = GaussianMixtureGenerator::balanced(5, 3, 1, 3);
        let mut n1 = RbmNetwork::new(5, 3, RbmNetworkConfig::default());
        let mut n2 = RbmNetwork::new(5, 3, RbmNetworkConfig::default());
        for _ in 0..10 {
            let b1 = batch_from(s1.take_instances(40));
            let b2 = batch_from(s2.take_instances(40));
            let e1 = n1.train_batch(&b1);
            let e2 = n2.train_batch(&b2);
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn flat_and_minibatch_entry_points_agree() {
        let mut stream = GaussianMixtureGenerator::balanced(6, 3, 1, 9);
        let mut via_batch = RbmNetwork::new(6, 3, RbmNetworkConfig::default());
        let mut via_flat = RbmNetwork::new(6, 3, RbmNetworkConfig::default());
        let mut ws = Workspace::default();
        for _ in 0..15 {
            let batch = batch_from(stream.take_instances(30));
            let (features, classes) = flatten(&batch.instances);
            let e1 = via_batch.train_batch(&batch);
            let e2 = via_flat.train_flat(&features, &classes);
            assert_eq!(e1, e2);
            let mut errs1 = Vec::new();
            let mut errs2 = Vec::new();
            via_batch.reconstruction_errors_flat_with(&mut ws, &features, &classes, &mut errs1);
            via_flat.reconstruction_errors_flat_with(&mut ws, &features, &classes, &mut errs2);
            assert_eq!(errs1, errs2);
        }
    }

    /// Checkpoint at an arbitrary batch boundary, serialize to JSON,
    /// restore onto a fresh network: further training — including the
    /// Gibbs-chain RNG stream — must be bitwise-identical to the
    /// uninterrupted network's.
    #[test]
    fn checkpoint_roundtrip_training_is_bitwise_identical() {
        let mut stream = GaussianMixtureGenerator::balanced(6, 3, 1, 55);
        let config = RbmNetworkConfig { gibbs_steps: 2, ..Default::default() };
        let mut uninterrupted = RbmNetwork::new(6, 3, config);
        let mut head = RbmNetwork::new(6, 3, config);
        let mut batches = Vec::new();
        for _ in 0..20 {
            batches.push(flatten(&stream.take_instances(30)));
        }
        for (features, classes) in &batches[..7] {
            assert_eq!(
                uninterrupted.train_flat(features, classes),
                head.train_flat(features, classes)
            );
        }
        let json = serde_json::to_string(&head.snapshot_state()).unwrap();
        let mut resumed = RbmNetwork::new(6, 3, config);
        resumed.restore_state(&serde_json::parse_value(&json).unwrap()).unwrap();
        let mut ws = Workspace::default();
        for (features, classes) in &batches[7..] {
            let mut expected = Vec::new();
            let mut got = Vec::new();
            uninterrupted.reconstruction_errors_flat_with(
                &mut ws,
                features,
                classes,
                &mut expected,
            );
            resumed.reconstruction_errors_flat_with(&mut ws, features, classes, &mut got);
            assert_eq!(expected, got, "scoring must match after restore");
            assert_eq!(
                uninterrupted.train_flat(features, classes),
                resumed.train_flat(features, classes),
                "training (and its RNG stream) must match after restore"
            );
        }
        assert_eq!(uninterrupted.w().as_slice(), resumed.w().as_slice());
        assert_eq!(uninterrupted.u().as_slice(), resumed.u().as_slice());
        assert_eq!(uninterrupted.batches_trained(), resumed.batches_trained());

        // A different shape refuses the snapshot.
        let mut wrong = RbmNetwork::new(7, 3, config);
        assert!(wrong.restore_state(&serde_json::parse_value(&json).unwrap()).is_err());
    }

    /// Opt-in kernel timing observes, never steers: a network trained and
    /// scored with `kernel_timing` records one `rbm_kernel_seconds`
    /// observation per kernel call and stays bitwise-equal to an untimed
    /// twin.
    #[test]
    fn kernel_timing_records_without_perturbing_results() {
        let mut stream = GaussianMixtureGenerator::balanced(6, 3, 1, 13);
        let batches: Vec<_> = (0..4).map(|_| flatten(&stream.take_instances(40))).collect();
        // Scores then trains every batch; logs the per-class errors and the
        // training error of each.
        let run = |net: &mut RbmNetwork| {
            let (mut ws, mut errors, mut log) = (Workspace::default(), Vec::new(), Vec::new());
            for (features, classes) in &batches {
                net.reconstruction_errors_flat_with(&mut ws, features, classes, &mut errors);
                log.extend_from_slice(&errors);
                log.push(Some(net.train_flat(features, classes)));
            }
            log
        };
        let observations =
            || rbm_im_obs::global().snapshot().merged_histogram("rbm_kernel_seconds").count();
        let mut plain = RbmNetwork::new(6, 3, RbmNetworkConfig::default());
        let mut timed =
            RbmNetwork::new(6, 3, RbmNetworkConfig { kernel_timing: true, ..Default::default() });

        rbm_im_obs::force_enabled(true);
        let before = observations();
        let timed_log = run(&mut timed);
        let after = observations();
        rbm_im_obs::force_enabled(false);

        // CD-1: scoring runs 6 kernels, training 2 + 6 + 5.
        assert_eq!(after - before, 4 * (6 + 13), "one observation per timed kernel call");
        assert_eq!(run(&mut plain), timed_log, "timing must never perturb results");
        assert_eq!(plain.w(), timed.w());
        assert_eq!(plain.u(), timed.u());
        assert_eq!((plain.a(), plain.b(), plain.c()), (timed.a(), timed.b(), timed.c()));
    }

    #[test]
    fn gibbs_chain_depth_changes_the_updates() {
        // k=1 and k=3 must consume different RNG stream lengths and produce
        // different weights — a smoke test that the pre-drawn uniforms wire
        // the deeper chain correctly.
        let mut stream = GaussianMixtureGenerator::balanced(5, 3, 1, 41);
        let data = stream.take_instances(50);
        let mut k1 = RbmNetwork::new(5, 3, RbmNetworkConfig::default());
        let mut k3 =
            RbmNetwork::new(5, 3, RbmNetworkConfig { gibbs_steps: 3, ..Default::default() });
        k1.train_batch(&batch_from(data.clone()));
        k3.train_batch(&batch_from(data));
        assert_ne!(k1.w().as_slice(), k3.w().as_slice());
    }

    #[test]
    #[should_panic]
    fn invalid_config_rejected() {
        RbmNetwork::new(5, 3, RbmNetworkConfig { gibbs_steps: 0, ..Default::default() });
    }
}
