//! Dense linear-algebra kernels backing the flat-matrix RBM.
//!
//! Everything in this module operates on **flat row-major** storage: a
//! matrix with `rows × cols` entries keeps element `(r, c)` at index
//! `r * cols + c` of one contiguous `Vec<f64>`. Compared to the seed's
//! `Vec<Vec<f64>>` (one heap allocation per row, a pointer chase per row
//! access) this layout is cache-friendly, allocation-free once sized, and
//! auto-vectorizable: every kernel below keeps its inner loop over
//! contiguous slices so LLVM emits SIMD from safe code, without intrinsics.
//!
//! **Reproducibility contract.** The batched CD-k trainer promises results
//! bitwise-identical to the retained per-instance reference implementation
//! ([`crate::reference`]). Floating-point addition is not associative, so
//! every kernel here fixes its accumulation order to the one the reference
//! uses: [`gemm_acc`] adds rank-1 contributions in ascending inner-dimension
//! order (`c[r][j] += a[r][0]·b[0][j]`, then `a[r][1]·b[1][j]`, …), which is
//! exactly the order of the reference's scalar `act += v[i] * w[i][j]`
//! loops. Blocked variants only tile the *independent* output dimensions
//! (rows and column panels), never the reduction, so tiling cannot change
//! the rounding. The kernels still vectorize because the element-wise
//! accumulation (`axpy`) parallelizes across output columns, not across the
//! reduction.
//!
//! **One execution path.** Each kernel is a single sequential function.
//! The paper's shapes (10–80 visible units, hidden 0.25–1·V, mini-batches
//! of 50) are too small for row-level parallelism to pay: measured on a
//! 2-core runner, splitting output rows across a worker pool was slower
//! than the sequential kernel on every kernel and shape. Parallelism lives
//! at coarser grains instead — one stream per shard worker, one grid cell
//! per `run_grid` thread.

/// A dense row-major matrix over `f64`.
///
/// Element `(r, c)` lives at `data[r * cols + c]`; each row is one
/// contiguous `cols`-long slice, so row access is a single slice index and
/// row-wise kernels (axpy, sigmoid, softmax) run over contiguous memory.
/// [`DenseMatrix::resize`] re-shapes in place without shrinking the backing
/// allocation, which is what lets the training [`Workspace`](crate::network::Workspace)
/// (`crate::network::Workspace`) reach a zero-allocation steady state: the
/// first mini-batch grows every buffer to its working size and subsequent
/// batches reuse the capacity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix by evaluating `f(row, col)` in row-major order.
    ///
    /// The row-major evaluation order is part of the contract: the RBM
    /// weight initialization draws its RNG stream in exactly this order, so
    /// it must match the reference implementation's nested
    /// row-outer/column-inner loops.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Re-shapes the matrix to `rows × cols`, zero-filling the contents.
    ///
    /// Never releases the backing allocation: growing beyond any previously
    /// seen size allocates once, after which all re-shapes are free. This is
    /// the primitive behind the zero-allocation steady state of the training
    /// workspace.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Re-shapes the matrix to `rows × cols` **without** zero-filling: the
    /// contents are unspecified (stale values from earlier shapes may
    /// linger). For buffers whose every element is overwritten right after
    /// re-shaping (bias broadcasts, packed inputs, pre-drawn uniforms), this
    /// skips [`DenseMatrix::resize`]'s memset. Same no-shrink capacity
    /// behaviour as `resize`.
    pub fn reshape_uninit(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        if self.data.len() < len {
            self.data.resize(len, 0.0);
        } else {
            self.data.truncate(len);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Borrows row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access (bounds-checked).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access (bounds-checked).
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// The whole storage as one flat slice (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole storage as one flat mutable slice (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Fills row `r` with `src[r]` (broadcast along columns). This seeds a
    /// **feature-major** activation matrix (layer units × batch) with its
    /// bias vector: every instance (column) starts from the same bias.
    pub fn broadcast_cols(&mut self, src: &[f64]) {
        assert_eq!(src.len(), self.rows, "broadcast length must match row count");
        for (r, &value) in src.iter().enumerate() {
            self.row_mut(r).fill(value);
        }
    }
}

/// `y[j] += alpha * x[j]` over contiguous slices — the vectorizable core of
/// every GEMM/GEMV here. Each output element receives exactly one addend, so
/// the kernel is embarrassingly parallel across `j` and LLVM unrolls it into
/// packed SIMD adds/mults.
#[inline]
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yj, &xj) in y.iter_mut().zip(x.iter()) {
        *yj += alpha * xj;
    }
}

/// Sequential dot product. Accumulates in ascending index order (the
/// reference implementation's order); deliberately *not* unrolled into
/// multiple accumulators, which would change the rounding.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut acc = 0.0;
    for (&xi, &yi) in x.iter().zip(y.iter()) {
        acc += xi * yi;
    }
    acc
}

/// Column panel width of the blocked GEMM. 256 doubles (2 KiB per panel
/// row) keeps a few panel rows of `b` resident in L1 while still giving the
/// axpy inner loop long contiguous runs.
const GEMM_PANEL: usize = 256;

/// Blocked GEMM accumulate: `c += a · b` with `a: m×k`, `b: k×n`, `c: m×n`.
///
/// Row-major throughout. The loop nest is panel-of-`n` outer, rows of `c`
/// next, reduction (`k`) innermost-but-one, with the element-wise update
/// over the column panel innermost — i.e. the outer-product formulation of
/// GEMM. The reduction is unrolled four-wide, but each output element still
/// receives its `k` addends **one at a time, in ascending order** (the
/// unrolled body is a chain of separate `t += aᵢ·bᵢⱼ` statements, which the
/// compiler may not reassociate), so the result is bitwise-identical to the
/// naive ordered triple loop while the column loop vectorizes and the
/// per-iteration slicing overhead is amortized — this matters at RBM sizes,
/// where the hidden dimension is often in the single digits.
pub fn gemm_acc(c: &mut DenseMatrix, a: &DenseMatrix, b: &DenseMatrix) {
    assert_eq!(a.cols, b.rows, "gemm inner dimensions must agree");
    assert_eq!(c.rows, a.rows, "gemm output rows must match a");
    assert_eq!(c.cols, b.cols, "gemm output cols must match b");
    let (rows, n, k) = (c.rows, c.cols, a.cols);
    let (c, a, b) = (&mut c.data[..], &a.data[..], &b.data[..]);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + GEMM_PANEL).min(n);
        let width = j1 - j0;
        // Register block of four output rows: one slice of each `b` row per
        // reduction step serves four independent accumulation streams,
        // which amortizes the slicing and gives the column loop ILP even at
        // single-digit widths (RBM hidden/class layers are that narrow).
        let mut r0 = 0;
        while r0 + 4 <= rows {
            let (block, _) = c[r0 * n..].split_at_mut(4 * n);
            let mut crows = block.chunks_exact_mut(n);
            let c0 = &mut crows.next().unwrap()[j0..j1];
            let c1 = &mut crows.next().unwrap()[j0..j1];
            let c2 = &mut crows.next().unwrap()[j0..j1];
            let c3 = &mut crows.next().unwrap()[j0..j1];
            let (ar0, ar1, ar2, ar3) = (
                &a[r0 * k..(r0 + 1) * k],
                &a[(r0 + 1) * k..(r0 + 2) * k],
                &a[(r0 + 2) * k..(r0 + 3) * k],
                &a[(r0 + 3) * k..(r0 + 4) * k],
            );
            // All five slices have length exactly `width`, so the indexed
            // loop below carries no bounds checks after LLVM folds them.
            let (c0, c1, c2, c3) =
                (&mut c0[..width], &mut c1[..width], &mut c2[..width], &mut c3[..width]);
            for i in 0..k {
                let b_row = &b[i * n + j0..i * n + j1][..width];
                let (a0, a1, a2, a3) = (ar0[i], ar1[i], ar2[i], ar3[i]);
                for j in 0..width {
                    let bj = b_row[j];
                    c0[j] += a0 * bj;
                    c1[j] += a1 * bj;
                    c2[j] += a2 * bj;
                    c3[j] += a3 * bj;
                }
            }
            r0 += 4;
        }
        for r in r0..rows {
            let a_row = &a[r * k..(r + 1) * k];
            let c_row = &mut c[r * n + j0..r * n + j1];
            for (i, &a_ri) in a_row.iter().enumerate() {
                let b_row = &b[i * n + j0..i * n + j1];
                axpy(c_row, a_ri, b_row);
            }
        }
        j0 = j1;
    }
}

/// Fused double-GEMM accumulate: `c += a1 · b1 + a2 · b2` with
/// `a1: m×k1`, `b1: k1×n`, `a2: m×k2`, `b2: k2×n`, `c: m×n`.
///
/// Exactly [`gemm_acc`] run twice — all `a1·b1` addends land before any
/// `a2·b2` addend, each in ascending reduction order, matching the
/// reference's "visible terms, then class terms" activation sums — but each
/// output row block is sliced and traversed once instead of twice. This is
/// the hidden-layer activation kernel: `h = σ(b ⊕ v·w + z·uᵀ)` feeds both
/// phases of CD-k.
pub fn gemm2_acc(
    c: &mut DenseMatrix,
    a1: &DenseMatrix,
    b1: &DenseMatrix,
    a2: &DenseMatrix,
    b2: &DenseMatrix,
) {
    assert_eq!(a1.cols, b1.rows, "gemm2 first inner dimensions must agree");
    assert_eq!(a2.cols, b2.rows, "gemm2 second inner dimensions must agree");
    assert_eq!(c.rows, a1.rows, "gemm2 output rows must match a1");
    assert_eq!(c.rows, a2.rows, "gemm2 output rows must match a2");
    assert_eq!(c.cols, b1.cols, "gemm2 output cols must match b1");
    assert_eq!(c.cols, b2.cols, "gemm2 output cols must match b2");
    let (rows, n) = (c.rows, c.cols);
    let (k1, k2) = (a1.cols, a2.cols);
    let (c, a1, b1, a2, b2) =
        (&mut c.data[..], &a1.data[..], &b1.data[..], &a2.data[..], &b2.data[..]);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + GEMM_PANEL).min(n);
        let width = j1 - j0;
        let mut r0 = 0;
        while r0 + 4 <= rows {
            let (block, _) = c[r0 * n..].split_at_mut(4 * n);
            let mut crows = block.chunks_exact_mut(n);
            let c0 = &mut crows.next().unwrap()[j0..j1];
            let c1 = &mut crows.next().unwrap()[j0..j1];
            let c2 = &mut crows.next().unwrap()[j0..j1];
            let c3 = &mut crows.next().unwrap()[j0..j1];
            let (c0, c1, c2, c3) =
                (&mut c0[..width], &mut c1[..width], &mut c2[..width], &mut c3[..width]);
            for (a, b, k) in [(a1, b1, k1), (a2, b2, k2)] {
                let (ar0, ar1, ar2, ar3) = (
                    &a[r0 * k..(r0 + 1) * k],
                    &a[(r0 + 1) * k..(r0 + 2) * k],
                    &a[(r0 + 2) * k..(r0 + 3) * k],
                    &a[(r0 + 3) * k..(r0 + 4) * k],
                );
                for i in 0..k {
                    let b_row = &b[i * n + j0..i * n + j1][..width];
                    let (a0, a1, a2, a3) = (ar0[i], ar1[i], ar2[i], ar3[i]);
                    for j in 0..width {
                        let bj = b_row[j];
                        c0[j] += a0 * bj;
                        c1[j] += a1 * bj;
                        c2[j] += a2 * bj;
                        c3[j] += a3 * bj;
                    }
                }
            }
            r0 += 4;
        }
        for r in r0..rows {
            let c_row = &mut c[r * n + j0..r * n + j1];
            for (a, b, k) in [(a1, b1, k1), (a2, b2, k2)] {
                for (i, &a_ri) in a[r * k..(r + 1) * k].iter().enumerate() {
                    let b_row = &b[i * n + j0..i * n + j1];
                    axpy(c_row, a_ri, b_row);
                }
            }
        }
        j0 = j1;
    }
}

/// GEMV accumulate against a transposed matrix: `y += aᵀ · x` with
/// `a: k×n`, `x: k`, `y: n`.
///
/// Runs as `k` axpys over the rows of `a`, so the memory access is
/// contiguous (no strided column walks) and each `y[j]` accumulates in
/// ascending-`i` order — the reference's `act += v[i] * w[i][j]` order.
pub fn gemv_t_acc(y: &mut [f64], a: &DenseMatrix, x: &[f64]) {
    assert_eq!(x.len(), a.rows, "gemv_t input length must match rows");
    assert_eq!(y.len(), a.cols, "gemv_t output length must match cols");
    for (i, &xi) in x.iter().enumerate() {
        axpy(y, xi, a.row(i));
    }
}

/// Row-dot GEMV accumulate: `y[r] += a.row(r) · x` with `a: m×n`, `x: n`,
/// `y: m`.
///
/// Each output element continues accumulating from its current value, one
/// addend at a time in ascending column order — the order of the
/// reference's `act += h[j] * w[i][j]` loops, so results are
/// bitwise-identical to them. Rows of `a` are contiguous, so the access
/// pattern streams memory even though the reduction itself stays scalar.
pub fn gemv_acc(y: &mut [f64], a: &DenseMatrix, x: &[f64]) {
    assert_eq!(y.len(), a.rows, "gemv output length must match rows");
    assert_eq!(x.len(), a.cols, "gemv input length must match cols");
    for (r, yr) in y.iter_mut().enumerate() {
        let mut acc = *yr;
        for (&av, &xv) in a.row(r).iter().zip(x.iter()) {
            acc += av * xv;
        }
        *yr = acc;
    }
}

/// Writes the transpose of `src` into `dst` (re-shaping `dst` as needed).
///
/// The flat RBM stores `w: V×H` and `u: H×Z` row-major and refreshes the
/// transposes `wᵀ: H×V`, `uᵀ: Z×H` once per mini-batch, so that *every*
/// GEMM in the batched CD-k can run in the contiguous axpy form above —
/// an O(V·H) copy buys O(N·V·H) worth of contiguous accesses.
pub fn transpose_into(dst: &mut DenseMatrix, src: &DenseMatrix) {
    dst.resize(src.cols, src.rows);
    for r in 0..src.rows {
        let row = &src.data[r * src.cols..(r + 1) * src.cols];
        for (c, &v) in row.iter().enumerate() {
            dst.data[c * src.rows + r] = v;
        }
    }
}

/// Fused logistic sigmoid: `x[j] ← 1 / (1 + e^(−x[j]))` in place.
pub fn sigmoid_in_place(x: &mut [f64]) {
    for v in x.iter_mut() {
        *v = 1.0 / (1.0 + (-*v).exp());
    }
}

/// In-place numerically stable softmax: replaces raw scores with the
/// softmax distribution (uniform for degenerate inputs) without any
/// allocation.
///
/// This is the one shared softmax of the workspace: the RBM's class-layer
/// reconstruction (Eq. 12) and every classifier in `rbm-im-classifiers`
/// (which re-exports it) use this exact implementation, so the two can
/// never drift apart numerically.
pub fn softmax_in_place(scores: &mut [f64]) {
    if scores.is_empty() {
        return;
    }
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
    }
    let total: f64 = scores.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        let uniform = 1.0 / scores.len() as f64;
        scores.fill(uniform);
        return;
    }
    for s in scores.iter_mut() {
        *s /= total;
    }
}

/// Batched CD-k weight gradient over **feature-major** activations:
/// `d[i][j] += Σₙ weights[n] · (x0[i][n]·h0[j][n] − xk[i][n]·hk[j][n])`
/// with `d: V×H`, `x0`/`xk`: `V×N`, `h0`/`hk`: `H×N`.
///
/// Each gradient element is a weighted batch reduction of the fused
/// positive-minus-negative outer product. The reduction runs over `n` in
/// ascending order with each addend kept as the reference's exact
/// expression `w·(x0·h0 − xk·hk)` (no factoring of `w·x0` out, which would
/// re-associate the multiplies), so the result is bitwise-identical to the
/// per-instance loop. Four `j` columns are interleaved per pass to give the
/// serial reduction chains ILP, and all operand rows are contiguous.
pub fn cdk_weight_gradient(
    d: &mut DenseMatrix,
    weights: &[f64],
    x0: &DenseMatrix,
    h0: &DenseMatrix,
    xk: &DenseMatrix,
    hk: &DenseMatrix,
) {
    let batch = weights.len();
    assert_eq!(x0.cols, batch, "x0 batch mismatch");
    assert_eq!(xk.cols, batch, "xk batch mismatch");
    assert_eq!(h0.cols, batch, "h0 batch mismatch");
    assert_eq!(hk.cols, batch, "hk batch mismatch");
    assert_eq!(d.rows, x0.rows, "gradient rows must match x height");
    assert_eq!(d.cols, h0.rows, "gradient cols must match h height");
    let (rows, h) = (d.rows, d.cols);
    let (d, x0, xk, h0, hk) =
        (&mut d.data[..], &x0.data[..], &xk.data[..], &h0.data[..], &hk.data[..]);
    for i in 0..rows {
        let x0r = &x0[i * batch..(i + 1) * batch];
        let xkr = &xk[i * batch..(i + 1) * batch];
        let d_row = &mut d[i * h..(i + 1) * h];
        let mut j = 0;
        while j + 4 <= h {
            let (h0a, h0b, h0c, h0d) = (
                &h0[j * batch..(j + 1) * batch],
                &h0[(j + 1) * batch..(j + 2) * batch],
                &h0[(j + 2) * batch..(j + 3) * batch],
                &h0[(j + 3) * batch..(j + 4) * batch],
            );
            let (hka, hkb, hkc, hkd) = (
                &hk[j * batch..(j + 1) * batch],
                &hk[(j + 1) * batch..(j + 2) * batch],
                &hk[(j + 2) * batch..(j + 3) * batch],
                &hk[(j + 3) * batch..(j + 4) * batch],
            );
            let (mut s0, mut s1, mut s2, mut s3) =
                (d_row[j], d_row[j + 1], d_row[j + 2], d_row[j + 3]);
            for n in 0..batch {
                let (w, p, q) = (weights[n], x0r[n], xkr[n]);
                s0 += w * (p * h0a[n] - q * hka[n]);
                s1 += w * (p * h0b[n] - q * hkb[n]);
                s2 += w * (p * h0c[n] - q * hkc[n]);
                s3 += w * (p * h0d[n] - q * hkd[n]);
            }
            d_row[j] = s0;
            d_row[j + 1] = s1;
            d_row[j + 2] = s2;
            d_row[j + 3] = s3;
            j += 4;
        }
        while j < h {
            let h0r = &h0[j * batch..(j + 1) * batch];
            let hkr = &hk[j * batch..(j + 1) * batch];
            let mut acc = d_row[j];
            for n in 0..batch {
                acc += weights[n] * (x0r[n] * h0r[n] - xkr[n] * hkr[n]);
            }
            d_row[j] = acc;
            j += 1;
        }
    }
}

/// Batched CD-k bias gradient over **feature-major** activations:
/// `d[i] += Σₙ weights[n] · (x0[i][n] − xk[i][n])`, reduced in ascending
/// instance order. Two unit rows are interleaved per pass so the serial
/// reduction chains overlap.
pub fn cdk_bias_gradient(d: &mut [f64], weights: &[f64], x0: &DenseMatrix, xk: &DenseMatrix) {
    let batch = weights.len();
    assert_eq!(x0.cols, batch, "x0 batch mismatch");
    assert_eq!(xk.cols, batch, "xk batch mismatch");
    assert_eq!(d.len(), x0.rows, "bias gradient length mismatch");
    let (x0, xk) = (&x0.data[..], &xk.data[..]);
    let mut i = 0;
    while i + 2 <= d.len() {
        let x0a = &x0[i * batch..(i + 1) * batch];
        let x0b = &x0[(i + 1) * batch..(i + 2) * batch];
        let xka = &xk[i * batch..(i + 1) * batch];
        let xkb = &xk[(i + 1) * batch..(i + 2) * batch];
        let (mut s0, mut s1) = (d[i], d[i + 1]);
        for n in 0..batch {
            let w = weights[n];
            s0 += w * (x0a[n] - xka[n]);
            s1 += w * (x0b[n] - xkb[n]);
        }
        d[i] = s0;
        d[i + 1] = s1;
        i += 2;
    }
    if i < d.len() {
        let x0r = &x0[i * batch..(i + 1) * batch];
        let xkr = &xk[i * batch..(i + 1) * batch];
        let mut acc = d[i];
        for n in 0..batch {
            acc += weights[n] * (x0r[n] - xkr[n]);
        }
        d[i] = acc;
    }
}

/// In-place column softmax over a **feature-major** matrix (`Z` class rows
/// × `N` instance columns): each column is replaced by its stable softmax,
/// with exactly the op order of [`softmax_in_place`] (max-subtract, exp,
/// ascending-order sum, divide; uniform for degenerate columns).
pub fn softmax_cols_in_place(m: &mut DenseMatrix) {
    let (z, n) = (m.rows, m.cols);
    let data = &mut m.data[..z * n];
    for col in 0..n {
        let mut max = f64::NEG_INFINITY;
        for k in 0..z {
            max = f64::max(max, data[k * n + col]);
        }
        let mut total = 0.0;
        for k in 0..z {
            let e = (data[k * n + col] - max).exp();
            data[k * n + col] = e;
            total += e;
        }
        if total <= 0.0 || !total.is_finite() {
            let uniform = 1.0 / z as f64;
            for k in 0..z {
                data[k * n + col] = uniform;
            }
            continue;
        }
        for k in 0..z {
            data[k * n + col] /= total;
        }
    }
}

/// Fused momentum + weight-decay parameter update over flat storage:
/// `vel ← momentum·vel + lr·(grad − decay·param)`, `param += vel`.
///
/// One pass over three contiguous slices; vectorizes across elements.
pub fn momentum_update(
    param: &mut [f64],
    vel: &mut [f64],
    grad: &[f64],
    lr: f64,
    momentum: f64,
    decay: f64,
) {
    assert_eq!(param.len(), vel.len(), "momentum update length mismatch");
    assert_eq!(param.len(), grad.len(), "momentum update length mismatch");
    for ((p, v), &g) in param.iter_mut().zip(vel.iter_mut()).zip(grad.iter()) {
        *v = momentum * *v + lr * (g - decay * *p);
        *p += *v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_matrix_layout_is_row_major() {
        let m = DenseMatrix::from_fn(3, 4, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0, 13.0]);
        assert_eq!(m.get(2, 3), 23.0);
        assert_eq!(m.as_slice()[4], 10.0);
    }

    #[test]
    fn resize_keeps_capacity_and_zeroes() {
        let mut m = DenseMatrix::zeros(4, 4);
        m.fill(7.0);
        let ptr = m.as_slice().as_ptr();
        m.resize(2, 3);
        assert_eq!(m.as_slice(), &[0.0; 6]);
        m.resize(4, 4);
        assert_eq!(m.as_slice().as_ptr(), ptr, "re-growing within capacity must not reallocate");
    }

    #[test]
    fn gemm_matches_naive_triple_loop_bitwise() {
        let a = DenseMatrix::from_fn(5, 7, |r, c| ((r * 31 + c * 17) % 13) as f64 * 0.37 - 2.0);
        let b = DenseMatrix::from_fn(7, 9, |r, c| ((r * 5 + c * 3) % 11) as f64 * 0.21 - 1.0);
        let mut c = DenseMatrix::from_fn(5, 9, |r, c| (r + c) as f64 * 0.01);
        let mut naive = c.clone();
        gemm_acc(&mut c, &a, &b);
        for r in 0..5 {
            for j in 0..9 {
                let mut acc = naive.get(r, j);
                for i in 0..7 {
                    acc += a.get(r, i) * b.get(i, j);
                }
                *naive.get_mut(r, j) = acc;
            }
        }
        assert_eq!(c, naive, "blocked gemm must be bitwise-identical to the ordered triple loop");
    }

    #[test]
    fn gemm_blocking_covers_wide_outputs() {
        // Wider than one column panel so the j0 loop takes several steps.
        let n = GEMM_PANEL + 37;
        let a = DenseMatrix::from_fn(2, 3, |r, c| (r + c) as f64);
        let b = DenseMatrix::from_fn(3, n, |r, c| ((r + c) % 7) as f64);
        let mut c = DenseMatrix::zeros(2, n);
        gemm_acc(&mut c, &a, &b);
        for r in 0..2 {
            for j in 0..n {
                let expect: f64 = (0..3).map(|i| a.get(r, i) * b.get(i, j)).sum();
                assert!((c.get(r, j) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemv_t_matches_per_column_dots() {
        let a = DenseMatrix::from_fn(4, 6, |r, c| (r * 6 + c) as f64 * 0.1);
        let x = [1.0, -2.0, 0.5, 3.0];
        let mut y = vec![0.25; 6];
        gemv_t_acc(&mut y, &a, &x);
        for (j, &yj) in y.iter().enumerate() {
            let mut expect = 0.25;
            for (i, &xi) in x.iter().enumerate() {
                expect += a.get(i, j) * xi;
            }
            assert_eq!(yj, expect);
        }
    }

    #[test]
    fn transpose_round_trips() {
        let m = DenseMatrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        let mut t = DenseMatrix::default();
        transpose_into(&mut t, &m);
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        let mut back = DenseMatrix::default();
        transpose_into(&mut back, &t);
        assert_eq!(back, m);
    }

    #[test]
    fn softmax_is_stable_and_normalized() {
        let mut s = vec![1000.0, 1001.0, 999.0];
        softmax_in_place(&mut s);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[1] > s[0] && s[0] > s[2]);
        let mut degenerate = vec![f64::NEG_INFINITY, f64::NEG_INFINITY];
        softmax_in_place(&mut degenerate);
        assert_eq!(degenerate, vec![0.5, 0.5]);
        let mut empty: Vec<f64> = vec![];
        softmax_in_place(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn momentum_update_applies_decay_and_velocity() {
        let mut p = [1.0, -1.0];
        let mut v = [0.5, 0.0];
        let g = [0.1, 0.2];
        momentum_update(&mut p, &mut v, &g, 0.1, 0.9, 0.01);
        let v0 = 0.9 * 0.5 + 0.1 * (0.1 - 0.01 * 1.0);
        let v1 = 0.1 * (0.2 + 0.01);
        assert_eq!(v, [v0, v1]);
        assert_eq!(p, [1.0 + v0, -1.0 + v1]);
    }

    #[test]
    fn dot_is_an_ordered_sum() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }
}
