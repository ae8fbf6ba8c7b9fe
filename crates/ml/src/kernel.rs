//! Runtime-dispatched SIMD microkernels for the inference hot path: the MLP
//! tile forward pass, the per-sample GEMV, and feature standardization
//! ([`standardize_rows`]).
//!
//! The batched forward pass ([`crate::Mlp::predict_batch_into`]) evaluates
//! each full tile of [`crate::Mlp::LANES`] samples in one transposed weight
//! pass ([`tile_forward`]) and every sample outside a full tile — a batch of
//! one, or the ragged tail of any batch — through one per-sample GEMV
//! ([`gemv_forward`]) that vectorizes across output neurons instead of
//! samples. This module picks the widest kernel the host supports at first
//! use — AVX2+FMA on x86_64, NEON on aarch64 — and falls back to the
//! portable scalar code otherwise.
//!
//! Numerical contract:
//!
//! - The **scalar** kernel is bitwise-identical to the seed per-sample
//!   implementation (`acc = b; acc += w·x` left to right, one rounding per
//!   multiply and per add).
//! - The **SIMD** kernels keep the same left-to-right summation order per
//!   output (no reassociation, no split accumulators) but use fused
//!   multiply-add, which rounds once per `w·x + acc` instead of twice. The
//!   result is *not* bitwise-equal to scalar; it is pinned by max-ULP-bounded
//!   equivalence tests instead (`tests/kernel_dispatch.rs`).
//! - A given kernel is deterministic and batch-composition-independent. The
//!   GEMV runs each output's exact tile chain — `acc = b`, then
//!   `acc = fma(w, x, acc)` (SIMD) or `acc += w·x` (scalar) for `k` left to
//!   right, then the tile's ReLU — only spread across output neurons rather
//!   than samples, so a sample's bits are the same whether it lands in a
//!   full tile or in the GEMV, and do not depend on what else shared its
//!   micro-batch. Outputs left over after the last full group of 8 (e.g. an
//!   `out_dim = 1` head) run the same chain one output at a time with
//!   [`f32::mul_add`] (SIMD) or `acc += w·x` (scalar).
//! - Feature **standardization** ([`standardize_rows`]) is bitwise-identical
//!   across every kernel and platform. Its `ln(1 + x)` is the in-tree
//!   [`log1p`] (no libm, no FMA; Rust never contracts a separate multiply
//!   and add), so the AVX2 copy of the row loop, the SSE2/NEON
//!   auto-vectorized loop and a scalar build all round identically. Against
//!   the earlier libm-based normalizer, predictions drifted once by at most
//!   1e-5 relative (pinned by `tests/kernel_dispatch.rs`); they no longer
//!   depend on the host's libm.
//!
//! Dispatch can be forced to scalar two ways: the `CONCORDE_FORCE_SCALAR`
//! environment variable (read once per process; any value except `0`/empty
//! counts — this is what the CI scalar leg sets), or a thread-scoped
//! [`forced_scalar`] guard for tests and benches that compare both paths in
//! one process without racing other threads.

use std::cell::Cell;
use std::sync::OnceLock;

/// Which tile microkernel [`active_kernel`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable scalar tile — bitwise-identical to the seed implementation.
    Scalar,
    /// x86_64 AVX2 + FMA (8-lane f32, single-rounded multiply-add).
    Avx2Fma,
    /// aarch64 NEON (2 × 4-lane f32, single-rounded multiply-add).
    Neon,
}

impl KernelKind {
    /// Stable lowercase name for logs and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2Fma => "avx2_fma",
            KernelKind::Neon => "neon",
        }
    }
}

fn env_forces_scalar() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("CONCORDE_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

fn detect() -> KernelKind {
    static DETECTED: OnceLock<KernelKind> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return KernelKind::Avx2Fma;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            // NEON is architecturally mandatory on aarch64.
            return KernelKind::Neon;
        }
        #[allow(unreachable_code)]
        KernelKind::Scalar
    })
}

thread_local! {
    static THREAD_FORCE_SCALAR: Cell<bool> = const { Cell::new(false) };
}

/// RAII guard from [`forced_scalar`]: scalar dispatch on this thread until
/// dropped.
pub struct ScalarGuard {
    prev: bool,
}

impl Drop for ScalarGuard {
    fn drop(&mut self) {
        THREAD_FORCE_SCALAR.with(|f| f.set(self.prev));
    }
}

/// Forces [`active_kernel`] to [`KernelKind::Scalar`] **on the current
/// thread** for the guard's lifetime. Thread-scoped on purpose: tests that
/// compare scalar vs SIMD run concurrently with tests that rely on a stable
/// kernel, and a process-global toggle would race them.
pub fn forced_scalar() -> ScalarGuard {
    THREAD_FORCE_SCALAR.with(|f| {
        let prev = f.replace(true);
        ScalarGuard { prev }
    })
}

/// The kernel the calling thread's next forward pass will use.
pub fn active_kernel() -> KernelKind {
    if THREAD_FORCE_SCALAR.with(Cell::get) || env_forces_scalar() {
        KernelKind::Scalar
    } else {
        detect()
    }
}

/// [`active_kernel`]'s name — for serve-side logs and build-info metrics.
pub fn kernel_name() -> &'static str {
    active_kernel().name()
}

/// The widest SIMD kernel the host supports, ignoring any scalar override
/// (what the scalar-vs-SIMD equivalence tests probe).
pub fn detected_kernel() -> KernelKind {
    detect()
}

/// Computes one full transposed tile with the given SIMD kernel: for each
/// output `o` of the layer, `LANES` simultaneous dot products
///
/// ```text
/// dst[(base + t) * out_dim + o] = relu?( b[o] + Σ_k w[o·in_dim + k] · tile[k·LANES + t] )
/// ```
///
/// for every lane `t < LANES`. `tile` is the transposed activation tile
/// (`in_dim × LANES`, lane-major); `dst` is the row-major output activation
/// buffer.
///
/// # Panics
///
/// Panics on shape mismatches (the SIMD code indexes unchecked).
///
/// Calling this with [`KernelKind::Scalar`] is a logic error — the scalar
/// tile lives in `mlp.rs` so its bit-pinned code path stays in one place.
#[allow(clippy::too_many_arguments)] // mirrors the GEMV signature; a params struct would just rename the fields
pub(crate) fn tile_forward(
    kind: KernelKind,
    w: &[f32],
    b: &[f32],
    in_dim: usize,
    out_dim: usize,
    tile: &[f32],
    dst: &mut [f32],
    base: usize,
    relu: bool,
) {
    assert_eq!(w.len(), in_dim * out_dim);
    assert_eq!(b.len(), out_dim);
    assert!(tile.len() >= in_dim * crate::Mlp::LANES);
    assert!(dst.len() >= (base + crate::Mlp::LANES) * out_dim);
    match kind {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe {
            // SAFETY: dispatch only selects Avx2Fma after runtime detection
            // of avx2+fma; slice bounds are checked above.
            x86::tile_forward_avx2(w, b, in_dim, out_dim, tile, dst, base, relu);
        },
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => unsafe {
            // SAFETY: NEON is mandatory on aarch64; bounds checked above.
            neon::tile_forward_neon(w, b, in_dim, out_dim, tile, dst, base, relu);
        },
        _ => unreachable!("scalar tiles are evaluated in mlp.rs, not dispatched here"),
    }
}

/// The outputs of a layer the GEMV evaluates in groups of 8 (the rest run
/// one at a time): `out_dim` rounded down to a multiple of 8.
pub(crate) fn gemv_grouped(out_dim: usize) -> usize {
    out_dim / 8 * 8
}

/// One sample through one layer with the given SIMD kernel, vectorized
/// across output neurons:
///
/// ```text
/// y[o] = relu?( b[o] + Σ_k w[o·in_dim + k] · x[k] )
/// ```
///
/// For the first [`gemv_grouped`]`(out_dim)` outputs it broadcasts `x[k]`
/// and fuses it into 8-output accumulators read from `wt`, the transposed
/// weights of those outputs (`wt[k · grouped + o] = w[o · in_dim + k]`);
/// the remaining outputs run their chain one at a time over row-major `w`.
/// Each output's arithmetic is exactly its [`tile_forward`] lane chain (see
/// the module docs), so the result is bitwise equal to the same sample
/// inside a full tile.
///
/// # Panics
///
/// Panics on shape mismatches (the SIMD code indexes unchecked). Calling
/// this with [`KernelKind::Scalar`] is a logic error — the scalar arm lives
/// in `mlp.rs` next to the scalar tile.
#[allow(clippy::too_many_arguments)] // the layer's parts plus one sample; a params struct would just rename the fields
pub(crate) fn gemv_forward(
    kind: KernelKind,
    w: &[f32],
    wt: &[f32],
    b: &[f32],
    in_dim: usize,
    out_dim: usize,
    x: &[f32],
    y: &mut [f32],
    relu: bool,
) {
    assert_eq!(w.len(), in_dim * out_dim);
    assert_eq!(wt.len(), in_dim * gemv_grouped(out_dim));
    assert_eq!(b.len(), out_dim);
    assert_eq!(x.len(), in_dim);
    assert_eq!(y.len(), out_dim);
    match kind {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe {
            // SAFETY: dispatch only selects Avx2Fma after runtime detection
            // of avx2+fma; slice bounds are checked above.
            x86::gemv_avx2(w, wt, b, in_dim, out_dim, x, y, relu);
        },
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => unsafe {
            // SAFETY: NEON is mandatory on aarch64; bounds checked above.
            neon::gemv_neon(w, wt, Some(b), in_dim, 0, out_dim, x, y, relu);
        },
        _ => unreachable!("the scalar GEMV is evaluated in mlp.rs, not dispatched here"),
    }
}

/// [`gemv_forward`] over the input columns `cols` only, from a zero
/// accumulator and with no activation — one input segment's share of a
/// layer's pre-activation — for each of `n = ys.len() / out_dim` rows:
///
/// ```text
/// ys[i·out_dim + o] = Σ_{k ∈ cols} w[o·in_dim + k] · xs[i·stride + k − cols.start]
/// ```
///
/// `w` and `wt` are the whole layer's row-major and transposed weights; the
/// segment's rows of `wt` are contiguous, so nothing is copied. Each output
/// runs the GEMV chain (`acc = 0`, then `acc = fma(w, x, acc)` for `k` left
/// to right), so a row's projection is bitwise the same whichever batch
/// asks for it.
///
/// # Panics
///
/// Panics on shape mismatches. Calling this with [`KernelKind::Scalar`] is
/// a logic error, as for [`gemv_forward`].
#[allow(clippy::too_many_arguments)] // the layer's parts, a column range and the rows
pub(crate) fn gemv_project(
    kind: KernelKind,
    w: &[f32],
    wt: &[f32],
    in_dim: usize,
    out_dim: usize,
    cols: std::ops::Range<usize>,
    xs: &[f32],
    stride: usize,
    ys: &mut [f32],
) {
    let grouped = gemv_grouped(out_dim);
    let len = cols.len();
    assert_eq!(w.len(), in_dim * out_dim);
    assert_eq!(wt.len(), in_dim * grouped);
    assert!(cols.start <= cols.end && cols.end <= in_dim);
    assert!(out_dim > 0 && ys.len().is_multiple_of(out_dim));
    let n = ys.len() / out_dim;
    assert!(n == 0 || (n - 1) * stride + len <= xs.len());
    let wt = &wt[cols.start * grouped..cols.end * grouped];
    match kind {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe {
            // SAFETY: dispatch only selects Avx2Fma after runtime detection
            // of avx2+fma; slice bounds are checked above.
            x86::gemv_rows_avx2(w, wt, in_dim, cols.start, out_dim, xs, stride, len, ys);
        },
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => {
            for (i, y) in ys.chunks_exact_mut(out_dim).enumerate() {
                let x = &xs[i * stride..i * stride + len];
                // SAFETY: NEON is mandatory on aarch64; bounds checked above.
                unsafe { neon::gemv_neon(w, wt, None, in_dim, cols.start, out_dim, x, y, false) };
            }
        }
        _ => unreachable!("the scalar projection is evaluated in mlp.rs, not dispatched here"),
    }
}

/// Eight zero biases: what a bias-free GEMV loads in place of `b[o..o + 8]`.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
static ZERO_BIAS: [f32; 8] = [0.0; 8];

/// The per-output chain of [`gemv_forward`] for the outputs past the last
/// full group of 8: `acc = b[o]`, then `acc = fma(w, x, acc)` left to right.
/// Inlined into each kernel so [`f32::mul_add`] compiles to that target's
/// fused instruction.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
fn fused_dot(row: &[f32], x: &[f32], bias: f32) -> f32 {
    let mut acc = bias;
    for (&wv, &xv) in row.iter().zip(x) {
        acc = wv.mul_add(xv, acc);
    }
    acc
}

/// Cephes `logf` minimax coefficients for `ln(1 + f) ≈ f − f²/2 + f³·P(f)`
/// on `f ∈ [√½ − 1, √2 − 1)`, highest degree first.
const LOG_P: [f32; 9] = [
    0.070_376_836,
    -0.115_146_1,
    0.116_769_984,
    -0.124_201_41,
    0.142_493_23,
    -0.166_680_57,
    0.200_007_14,
    -0.249_999_94,
    0.333_333_3,
];
/// `ln 2` split so `e · LN2_HI` is exact for every binade exponent `e`.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -0.000_212_194_44;

/// `ln(1 + x)` for the feature normalizer: deterministic, branch-free, and
/// within 1 ULP of the correctly rounded result for every non-negative
/// finite `x` (tested on a strided sweep of all of them).
///
/// Inputs follow the normalizer's clamp: negatives, `−0` and NaN evaluate
/// as `+0`. `+inf` maps to `+inf`; when `1 + x` rounds to 1 (tiny and
/// subnormal `x`) the result is `x` itself.
///
/// Uses no libm call and no fused multiply-add, so the same bits come out
/// of the scalar, SSE2, AVX2 and NEON builds — which is what lets
/// [`standardize_rows`] vectorize without a per-kernel numerical contract.
#[inline(always)]
pub fn log1p(x: f32) -> f32 {
    let x = if x > 0.0 { x } else { 0.0 };
    let u = 1.0 + x;
    // u = 2^e · m with m ∈ [√½, √2): biasing the bits by 1 − √½ carries
    // mantissas at or above √2 into the next exponent.
    let ix = u.to_bits().wrapping_add(0x3f80_0000 - 0x3f35_04f3);
    let e = ((ix >> 23) as i32 - 127) as f32;
    let f = f32::from_bits((ix & 0x007f_ffff) + 0x3f35_04f3) - 1.0;
    // First-order correction for the rounding error of `1 + x`.
    let c = (x - (u - 1.0)) / u;
    let z = f * f;
    let mut p = LOG_P[0];
    for &k in &LOG_P[1..] {
        p = p * f + k;
    }
    let y = f * z * p + (e * LN2_LO + c) - 0.5 * z;
    let r = f + y + e * LN2_HI;
    let r = if u == 1.0 { x } else { r };
    if x == f32::INFINITY {
        x
    } else {
        r
    }
}

/// Standardizes row-major `xs` (`n × mean.len()`) in place:
/// `x ← (tx(x) − mean) / std` per column, with `tx` = [`log1p`] when
/// `log_first` and the identity otherwise. Division is a true division.
///
/// On x86_64 with AVX2 the row loop runs in an AVX2 copy of the same code
/// (chosen by [`active_kernel`]); elsewhere the portable loop
/// auto-vectorizes. Every path returns the same bits.
///
/// # Panics
///
/// Panics if `mean` and `std` differ in length or `xs` is not a whole
/// number of rows.
pub fn standardize_rows(xs: &mut [f32], mean: &[f32], std: &[f32], log_first: bool) {
    assert_eq!(mean.len(), std.len(), "mean/std length mismatch");
    assert!(
        xs.len().is_multiple_of(mean.len().max(1)),
        "xs is not a whole number of rows"
    );
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe {
            // SAFETY: dispatch only selects Avx2Fma after runtime detection
            // of avx2+fma.
            x86::standardize_rows_avx2(xs, mean, std, log_first);
        },
        _ => standardize_rows_portable(xs, mean, std, log_first),
    }
}

/// The standardization row loop, inlined into each dispatch target so it
/// is compiled (and vectorized) for that target's instruction set.
#[inline(always)]
fn standardize_rows_portable(xs: &mut [f32], mean: &[f32], std: &[f32], log_first: bool) {
    let dim = mean.len();
    if dim == 0 {
        return;
    }
    for row in xs.chunks_exact_mut(dim) {
        for ((x, &m), &s) in row.iter_mut().zip(mean).zip(std) {
            *x = standardize(*x, m, s, log_first);
        }
    }
}

/// One element of [`standardize_rows`]: `(tx(v) − mean) / std`.
#[inline(always)]
fn standardize(v: f32, mean: f32, std: f32, log_first: bool) -> f32 {
    let t = if log_first { log1p(v) } else { v };
    (t - mean) / std
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::Mlp;
    use std::arch::x86_64::*;

    /// [`super::standardize_rows_portable`] compiled for AVX2 (8 lanes
    /// instead of SSE2's 4). `fma` is enabled to match the dispatch kind,
    /// but nothing here can use it: Rust never contracts a multiply and an
    /// add into an FMA, so the output equals the portable loop bit for bit.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn standardize_rows_avx2(
        xs: &mut [f32],
        mean: &[f32],
        std: &[f32],
        log_first: bool,
    ) {
        super::standardize_rows_portable(xs, mean, std, log_first);
    }

    /// AVX2+FMA transposed-tile kernel. Outputs are processed four at a time
    /// so four independent FMA chains are in flight (the single-chain
    /// latency, ~4 cycles, would otherwise bound throughput); each output's
    /// own accumulation stays strictly left-to-right over `k`, so the only
    /// divergence from the scalar kernel is FMA's single rounding.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA, and the slices must have the
    /// shapes [`super::tile_forward`] asserts.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tile_forward_avx2(
        w: &[f32],
        b: &[f32],
        in_dim: usize,
        out_dim: usize,
        tile: &[f32],
        dst: &mut [f32],
        base: usize,
        relu: bool,
    ) {
        debug_assert_eq!(Mlp::LANES, 8);
        let tp = tile.as_ptr();
        let zero = _mm256_setzero_ps();
        let mut o = 0usize;
        while o + 4 <= out_dim {
            let r0 = w.as_ptr().add(o * in_dim);
            let r1 = w.as_ptr().add((o + 1) * in_dim);
            let r2 = w.as_ptr().add((o + 2) * in_dim);
            let r3 = w.as_ptr().add((o + 3) * in_dim);
            let mut a0 = _mm256_set1_ps(*b.get_unchecked(o));
            let mut a1 = _mm256_set1_ps(*b.get_unchecked(o + 1));
            let mut a2 = _mm256_set1_ps(*b.get_unchecked(o + 2));
            let mut a3 = _mm256_set1_ps(*b.get_unchecked(o + 3));
            for k in 0..in_dim {
                let x = _mm256_loadu_ps(tp.add(k * Mlp::LANES));
                a0 = _mm256_fmadd_ps(_mm256_set1_ps(*r0.add(k)), x, a0);
                a1 = _mm256_fmadd_ps(_mm256_set1_ps(*r1.add(k)), x, a1);
                a2 = _mm256_fmadd_ps(_mm256_set1_ps(*r2.add(k)), x, a2);
                a3 = _mm256_fmadd_ps(_mm256_set1_ps(*r3.add(k)), x, a3);
            }
            if relu {
                a0 = _mm256_max_ps(a0, zero);
                a1 = _mm256_max_ps(a1, zero);
                a2 = _mm256_max_ps(a2, zero);
                a3 = _mm256_max_ps(a3, zero);
            }
            scatter(a0, dst, base, out_dim, o);
            scatter(a1, dst, base, out_dim, o + 1);
            scatter(a2, dst, base, out_dim, o + 2);
            scatter(a3, dst, base, out_dim, o + 3);
            o += 4;
        }
        while o < out_dim {
            let row = w.as_ptr().add(o * in_dim);
            let mut acc = _mm256_set1_ps(*b.get_unchecked(o));
            for k in 0..in_dim {
                let x = _mm256_loadu_ps(tp.add(k * Mlp::LANES));
                acc = _mm256_fmadd_ps(_mm256_set1_ps(*row.add(k)), x, acc);
            }
            if relu {
                acc = _mm256_max_ps(acc, zero);
            }
            scatter(acc, dst, base, out_dim, o);
            o += 1;
        }
    }

    /// Writes the lanes of `acc` to their strided row-major positions
    /// `dst[(base + t) * out_dim + o]`.
    #[inline(always)]
    unsafe fn scatter(acc: __m256, dst: &mut [f32], base: usize, out_dim: usize, o: usize) {
        let mut tmp = [0.0f32; Mlp::LANES];
        _mm256_storeu_ps(tmp.as_mut_ptr(), acc);
        for (t, &v) in tmp.iter().enumerate() {
            *dst.get_unchecked_mut((base + t) * out_dim + o) = v;
        }
    }

    /// AVX2+FMA per-sample GEMV ([`super::gemv_forward`]).
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA, and the slices must have the
    /// shapes [`super::gemv_forward`] asserts.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gemv_avx2(
        w: &[f32],
        wt: &[f32],
        b: &[f32],
        in_dim: usize,
        out_dim: usize,
        x: &[f32],
        y: &mut [f32],
        relu: bool,
    ) {
        gemv_body(
            w,
            wt,
            b.as_ptr(),
            1,
            in_dim,
            0,
            out_dim,
            x,
            y.as_mut_ptr(),
            relu,
        );
    }

    /// [`super::gemv_project`]: each row's bias-free chain over a column
    /// range. The range is walked in blocks of `wt` rows that fit in L1,
    /// every row finishing a block before the next block starts, so a long
    /// segment streams its weights from L2 once per call rather than once
    /// per row. A block resumes each output's chain from the partial sum it
    /// stored, so the arithmetic is exactly the unblocked chain.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA, and the slices must have the
    /// shapes [`super::gemv_project`] asserts (`wt` holds just the range's
    /// transposed rows).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gemv_rows_avx2(
        w: &[f32],
        wt: &[f32],
        in_dim: usize,
        c0: usize,
        out_dim: usize,
        xs: &[f32],
        stride: usize,
        len: usize,
        ys: &mut [f32],
    ) {
        let grouped = super::gemv_grouped(out_dim);
        let block = (4096 / grouped.max(1)).max(8);
        let n = ys.len() / out_dim;
        let yp = ys.as_mut_ptr();
        let mut k0 = 0;
        loop {
            let k1 = (k0 + block).min(len);
            let wt = &wt[k0 * grouped..k1 * grouped];
            for i in 0..n {
                let y = yp.add(i * out_dim);
                let (bp, bstep) = if k0 == 0 {
                    (super::ZERO_BIAS.as_ptr(), 0)
                } else {
                    (y.cast_const(), 1)
                };
                let x = &xs[i * stride + k0..i * stride + k1];
                gemv_body(w, wt, bp, bstep, in_dim, c0 + k0, out_dim, x, y, false);
            }
            k0 = k1;
            if k0 >= len {
                break;
            }
        }
    }

    /// The GEMV over input columns `c0..c0 + x.len()` of a layer whose rows
    /// are `in_dim` long; `wt` holds just those columns' transposed rows.
    /// Output `o` starts its chain from `*bp.add(o * bstep)` (a bias, zeros
    /// with `bstep = 0`, or — aliasing `yp` — the chain's partial sum) and
    /// is written to `*yp.add(o)`; each output group is loaded before it is
    /// stored. Eight groups of 8 outputs run per pass where the layer is
    /// that wide (a short segment's chain is only a few FMAs long, so fewer
    /// chains would wait on FMA latency), then four, then one; each lane is
    /// one output's left-to-right chain.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA; `bp` and `yp` valid for `out_dim` outputs; `wt` at
    /// least `x.len() × gemv_grouped(out_dim)` long; `w` row-major
    /// `out_dim × in_dim` with `c0 + x.len() <= in_dim`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    #[inline]
    unsafe fn gemv_body(
        w: &[f32],
        wt: &[f32],
        bp: *const f32,
        bstep: usize,
        in_dim: usize,
        c0: usize,
        out_dim: usize,
        x: &[f32],
        yp: *mut f32,
        relu: bool,
    ) {
        let grouped = super::gemv_grouped(out_dim);
        let len = x.len();
        let (tp, xp) = (wt.as_ptr(), x.as_ptr());
        let zero = _mm256_setzero_ps();
        let mut o = 0usize;
        while o + 64 <= grouped {
            let mut a = [zero; 8];
            for (g, a) in a.iter_mut().enumerate() {
                *a = _mm256_loadu_ps(bp.add((o + 8 * g) * bstep));
            }
            for k in 0..len {
                let xk = _mm256_set1_ps(*xp.add(k));
                let row = tp.add(k * grouped + o);
                for (g, a) in a.iter_mut().enumerate() {
                    *a = _mm256_fmadd_ps(_mm256_loadu_ps(row.add(8 * g)), xk, *a);
                }
            }
            for (g, a) in a.iter().enumerate() {
                let v = if relu { _mm256_max_ps(*a, zero) } else { *a };
                _mm256_storeu_ps(yp.add(o + 8 * g), v);
            }
            o += 64;
        }
        while o + 32 <= grouped {
            let mut a0 = _mm256_loadu_ps(bp.add(o * bstep));
            let mut a1 = _mm256_loadu_ps(bp.add((o + 8) * bstep));
            let mut a2 = _mm256_loadu_ps(bp.add((o + 16) * bstep));
            let mut a3 = _mm256_loadu_ps(bp.add((o + 24) * bstep));
            for k in 0..len {
                let xk = _mm256_set1_ps(*xp.add(k));
                let row = tp.add(k * grouped + o);
                a0 = _mm256_fmadd_ps(_mm256_loadu_ps(row), xk, a0);
                a1 = _mm256_fmadd_ps(_mm256_loadu_ps(row.add(8)), xk, a1);
                a2 = _mm256_fmadd_ps(_mm256_loadu_ps(row.add(16)), xk, a2);
                a3 = _mm256_fmadd_ps(_mm256_loadu_ps(row.add(24)), xk, a3);
            }
            if relu {
                a0 = _mm256_max_ps(a0, zero);
                a1 = _mm256_max_ps(a1, zero);
                a2 = _mm256_max_ps(a2, zero);
                a3 = _mm256_max_ps(a3, zero);
            }
            _mm256_storeu_ps(yp.add(o), a0);
            _mm256_storeu_ps(yp.add(o + 8), a1);
            _mm256_storeu_ps(yp.add(o + 16), a2);
            _mm256_storeu_ps(yp.add(o + 24), a3);
            o += 32;
        }
        while o < grouped {
            let mut acc = _mm256_loadu_ps(bp.add(o * bstep));
            for k in 0..len {
                let row = tp.add(k * grouped + o);
                acc = _mm256_fmadd_ps(_mm256_loadu_ps(row), _mm256_set1_ps(*xp.add(k)), acc);
            }
            if relu {
                acc = _mm256_max_ps(acc, zero);
            }
            _mm256_storeu_ps(yp.add(o), acc);
            o += 8;
        }
        for o in grouped..out_dim {
            let row = &w[o * in_dim + c0..o * in_dim + c0 + len];
            let acc = super::fused_dot(row, x, *bp.add(o * bstep));
            // `_mm256_max_ps(acc, 0)` lane for lane: NaN and ±0 give +0.
            *yp.add(o) = if !relu || acc > 0.0 { acc } else { 0.0 };
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use crate::Mlp;
    use std::arch::aarch64::*;

    /// NEON transposed-tile kernel: the 8-lane tile is two `float32x4`
    /// registers; two outputs in flight keep four independent FMA chains
    /// active. Per-output summation order matches the scalar kernel exactly
    /// (left to right), FMA rounding aside.
    ///
    /// # Safety
    ///
    /// The slices must have the shapes [`super::tile_forward`] asserts.
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tile_forward_neon(
        w: &[f32],
        b: &[f32],
        in_dim: usize,
        out_dim: usize,
        tile: &[f32],
        dst: &mut [f32],
        base: usize,
        relu: bool,
    ) {
        debug_assert_eq!(Mlp::LANES, 8);
        let tp = tile.as_ptr();
        let mut o = 0usize;
        while o + 2 <= out_dim {
            let r0 = w.as_ptr().add(o * in_dim);
            let r1 = w.as_ptr().add((o + 1) * in_dim);
            let mut a0l = vdupq_n_f32(*b.get_unchecked(o));
            let mut a0h = a0l;
            let mut a1l = vdupq_n_f32(*b.get_unchecked(o + 1));
            let mut a1h = a1l;
            for k in 0..in_dim {
                let xl = vld1q_f32(tp.add(k * Mlp::LANES));
                let xh = vld1q_f32(tp.add(k * Mlp::LANES + 4));
                let w0 = *r0.add(k);
                let w1 = *r1.add(k);
                a0l = vfmaq_n_f32(a0l, xl, w0);
                a0h = vfmaq_n_f32(a0h, xh, w0);
                a1l = vfmaq_n_f32(a1l, xl, w1);
                a1h = vfmaq_n_f32(a1h, xh, w1);
            }
            if relu {
                let z = vdupq_n_f32(0.0);
                a0l = vmaxq_f32(a0l, z);
                a0h = vmaxq_f32(a0h, z);
                a1l = vmaxq_f32(a1l, z);
                a1h = vmaxq_f32(a1h, z);
            }
            scatter(a0l, a0h, dst, base, out_dim, o);
            scatter(a1l, a1h, dst, base, out_dim, o + 1);
            o += 2;
        }
        while o < out_dim {
            let row = w.as_ptr().add(o * in_dim);
            let mut al = vdupq_n_f32(*b.get_unchecked(o));
            let mut ah = al;
            for k in 0..in_dim {
                let xl = vld1q_f32(tp.add(k * Mlp::LANES));
                let xh = vld1q_f32(tp.add(k * Mlp::LANES + 4));
                let wv = *row.add(k);
                al = vfmaq_n_f32(al, xl, wv);
                ah = vfmaq_n_f32(ah, xh, wv);
            }
            if relu {
                let z = vdupq_n_f32(0.0);
                al = vmaxq_f32(al, z);
                ah = vmaxq_f32(ah, z);
            }
            scatter(al, ah, dst, base, out_dim, o);
            o += 1;
        }
    }

    #[inline(always)]
    unsafe fn scatter(
        lo: float32x4_t,
        hi: float32x4_t,
        dst: &mut [f32],
        base: usize,
        out_dim: usize,
        o: usize,
    ) {
        let mut tmp = [0.0f32; Mlp::LANES];
        vst1q_f32(tmp.as_mut_ptr(), lo);
        vst1q_f32(tmp.as_mut_ptr().add(4), hi);
        for (t, &v) in tmp.iter().enumerate() {
            *dst.get_unchecked_mut((base + t) * out_dim + o) = v;
        }
    }

    /// NEON per-sample GEMV ([`super::gemv_forward`]) over the input
    /// columns `c0..c0 + x.len()`, as [`super::gemv_project`] needs (see the
    /// AVX2 kernel): two groups of 8 outputs (four `float32x4` accumulators,
    /// four FMA chains) in flight; each lane is one output's left-to-right
    /// chain.
    ///
    /// # Safety
    ///
    /// The slices must have the shapes [`super::gemv_forward`] /
    /// [`super::gemv_project`] assert.
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gemv_neon(
        w: &[f32],
        wt: &[f32],
        b: Option<&[f32]>,
        in_dim: usize,
        c0: usize,
        out_dim: usize,
        x: &[f32],
        y: &mut [f32],
        relu: bool,
    ) {
        let grouped = super::gemv_grouped(out_dim);
        let len = x.len();
        // Without a bias every group loads the same eight zeros.
        let (bp, bstep) = match b {
            Some(b) => (b.as_ptr(), 1),
            None => (super::ZERO_BIAS.as_ptr(), 0),
        };
        let (tp, xp, yp) = (wt.as_ptr(), x.as_ptr(), y.as_mut_ptr());
        let z = vdupq_n_f32(0.0);
        let mut o = 0usize;
        while o + 16 <= grouped {
            let mut a0 = vld1q_f32(bp.add(o * bstep));
            let mut a1 = vld1q_f32(bp.add((o + 4) * bstep));
            let mut a2 = vld1q_f32(bp.add((o + 8) * bstep));
            let mut a3 = vld1q_f32(bp.add((o + 12) * bstep));
            for k in 0..len {
                let xk = *xp.add(k);
                let row = tp.add(k * grouped + o);
                a0 = vfmaq_n_f32(a0, vld1q_f32(row), xk);
                a1 = vfmaq_n_f32(a1, vld1q_f32(row.add(4)), xk);
                a2 = vfmaq_n_f32(a2, vld1q_f32(row.add(8)), xk);
                a3 = vfmaq_n_f32(a3, vld1q_f32(row.add(12)), xk);
            }
            if relu {
                a0 = vmaxq_f32(a0, z);
                a1 = vmaxq_f32(a1, z);
                a2 = vmaxq_f32(a2, z);
                a3 = vmaxq_f32(a3, z);
            }
            vst1q_f32(yp.add(o), a0);
            vst1q_f32(yp.add(o + 4), a1);
            vst1q_f32(yp.add(o + 8), a2);
            vst1q_f32(yp.add(o + 12), a3);
            o += 16;
        }
        while o < grouped {
            let mut lo = vld1q_f32(bp.add(o * bstep));
            let mut hi = vld1q_f32(bp.add((o + 4) * bstep));
            for k in 0..len {
                let xk = *xp.add(k);
                let row = tp.add(k * grouped + o);
                lo = vfmaq_n_f32(lo, vld1q_f32(row), xk);
                hi = vfmaq_n_f32(hi, vld1q_f32(row.add(4)), xk);
            }
            if relu {
                lo = vmaxq_f32(lo, z);
                hi = vmaxq_f32(hi, z);
            }
            vst1q_f32(yp.add(o), lo);
            vst1q_f32(yp.add(o + 4), hi);
            o += 8;
        }
        for o in grouped..out_dim {
            let row = &w[o * in_dim + c0..o * in_dim + c0 + len];
            let mut acc = super::fused_dot(row, x, b.map_or(0.0, |b| b[o]));
            if relu {
                // The tile's own `vmaxq_f32`, so NaN and ±0 round-trip alike.
                let mut tmp = [0.0f32; 4];
                vst1q_f32(tmp.as_mut_ptr(), vmaxq_f32(vdupq_n_f32(acc), z));
                acc = tmp[0];
            }
            y[o] = acc;
        }
    }
}

/// Distance in units-in-the-last-place between two finite `f32`s — the
/// metric the SIMD-vs-scalar equivalence tests bound. Implemented over the
/// monotone integer mapping of IEEE-754, so it is exact across signs and
/// zero crossings; any non-finite operand yields `u32::MAX`.
pub fn ulp_distance(a: f32, b: f32) -> u32 {
    if !a.is_finite() || !b.is_finite() {
        return u32::MAX;
    }
    // Map the float's bits onto a monotone signed scale.
    fn key(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        i64::from(if bits < 0 { i32::MIN - bits } else { bits })
    }
    (key(a) - key(b)).unsigned_abs().min(u64::from(u32::MAX)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert!(ulp_distance(f32::MIN_POSITIVE, -f32::MIN_POSITIVE) > 0);
        assert_eq!(ulp_distance(f32::NAN, 1.0), u32::MAX);
        assert_eq!(ulp_distance(1.0, f32::INFINITY), u32::MAX);
    }

    #[test]
    fn forced_scalar_is_scoped_to_the_guard() {
        let outer = active_kernel();
        {
            let _g = forced_scalar();
            assert_eq!(active_kernel(), KernelKind::Scalar);
            {
                let _g2 = forced_scalar();
                assert_eq!(active_kernel(), KernelKind::Scalar);
            }
            assert_eq!(
                active_kernel(),
                KernelKind::Scalar,
                "inner drop must not unforce"
            );
        }
        assert_eq!(active_kernel(), outer);
    }

    #[test]
    fn log1p_special_values() {
        // The normalizer's clamp: negatives, −0 and NaN all evaluate as +0.
        for x in [
            0.0f32,
            -0.0,
            -0.5,
            -1.0,
            -f32::MAX,
            f32::NEG_INFINITY,
            f32::NAN,
        ] {
            assert_eq!(log1p(x).to_bits(), 0.0f32.to_bits(), "log1p({x})");
        }
        // `1 + x == 1`: tiny and subnormal inputs come back unchanged.
        let tiny = [
            f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            f32::MIN_POSITIVE,
            1e-30,
            f32::EPSILON / 4.0,
        ];
        for x in tiny {
            assert_eq!(1.0 + x, 1.0);
            assert_eq!(log1p(x).to_bits(), x.to_bits(), "log1p({x:e})");
        }
        assert_eq!(log1p(f32::INFINITY), f32::INFINITY);
        let max = log1p(f32::MAX);
        let want = f64::from(f32::MAX).ln_1p() as f32;
        assert!(ulp_distance(max, want) <= 1, "log1p(MAX) = {max} vs {want}");
        assert_eq!(log1p(1.0), std::f32::consts::LN_2);
    }

    #[test]
    fn log1p_is_within_one_ulp_on_a_strided_sweep() {
        // Every 2003rd non-negative finite f32 (~1.07M inputs, every binade
        // and scattered low mantissa bits) against f64 ln_1p rounded to f32.
        // The stride keeps the debug-build test around a second.
        let (mut worst, mut worst_x) = (0u32, 0.0f32);
        for bits in (0..0x7f80_0000u32).step_by(2003) {
            let x = f32::from_bits(bits);
            let want = f64::from(x).ln_1p() as f32;
            let d = ulp_distance(log1p(x), want);
            if d > worst {
                (worst, worst_x) = (d, x);
            }
        }
        assert!(worst <= 1, "log1p off by {worst} ULP at x = {worst_x:e}");
    }

    #[test]
    fn standardize_rows_is_bitwise_equal_across_kernels() {
        let dim = 37; // not a multiple of any vector width
        let mean: Vec<f32> = (0..dim).map(|k| (k as f32 * 0.3).sin()).collect();
        let std: Vec<f32> = (0..dim)
            .map(|k| 0.5 + (k as f32 * 0.7).cos().abs())
            .collect();
        let xs: Vec<f32> = (0..dim * 5)
            .map(|i| match i % 9 {
                0 => -1.0,
                1 => f32::NAN,
                2 => 1e-30,
                _ => ((i as f32) * 0.37).sin().abs() * 10f32.powi(i as i32 % 7),
            })
            .collect();
        for log_first in [false, true] {
            let mut dispatched = xs.clone();
            standardize_rows(&mut dispatched, &mean, &std, log_first);
            let mut scalar = xs.clone();
            {
                let _g = forced_scalar();
                standardize_rows(&mut scalar, &mean, &std, log_first);
            }
            for (i, (a, b)) in dispatched.iter().zip(&scalar).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "element {i} (log_first={log_first})"
                );
                let tx = if log_first { log1p(xs[i]) } else { xs[i] };
                let want = (tx - mean[i % dim]) / std[i % dim];
                assert_eq!(a.to_bits(), want.to_bits(), "element {i} vs scalar formula");
            }
        }
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(KernelKind::Scalar.name(), "scalar");
        assert_eq!(KernelKind::Avx2Fma.name(), "avx2_fma");
        assert_eq!(KernelKind::Neon.name(), "neon");
    }
}
