//! Fully connected multi-layer perceptron with ReLU activations.
//!
//! Concorde's ML component is a shallow MLP (paper §4: input → 256 → 128 → 1).
//! This implementation keeps the model immutable during gradient computation
//! (`&self`), so data-parallel training can shard a minibatch across threads
//! and sum the per-shard [`MlpGrads`].

use std::sync::OnceLock;

use rand::Rng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use crate::kernel::{self, KernelKind};

/// One dense layer: `y = W x + b` with `W` stored row-major `[out][in]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension.
    pub out_dim: usize,
    /// Weights, row-major `[out_dim × in_dim]`.
    pub w: Vec<f32>,
    /// Biases, `[out_dim]`.
    pub b: Vec<f32>,
}

impl Linear {
    /// Xavier/Glorot-uniform initialization.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut ChaCha12Rng) -> Self {
        let bound = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Linear {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
        }
    }

    /// The weights of the first [`kernel::gemv_grouped`]`(out_dim)` outputs,
    /// transposed to `[in_dim × grouped]` for the SIMD GEMV.
    fn transposed(&self) -> Vec<f32> {
        let grouped = kernel::gemv_grouped(self.out_dim);
        let mut wt = vec![0.0f32; self.in_dim * grouped];
        for (o, row) in self.w.chunks_exact(self.in_dim).take(grouped).enumerate() {
            for (k, &v) in row.iter().enumerate() {
                wt[k * grouped + o] = v;
            }
        }
        wt
    }

    #[inline]
    fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.in_dim);
        debug_assert_eq!(out.len(), self.out_dim);
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.b[o];
            for (wv, xv) in row.iter().zip(x) {
                acc += wv * xv;
            }
            *out_v = acc;
        }
    }
}

/// Gradients matching an [`Mlp`]'s parameters; summable across shards.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpGrads {
    /// Per-layer `(dW, db)`.
    pub layers: Vec<(Vec<f32>, Vec<f32>)>,
    /// Number of samples accumulated (for averaging).
    pub count: usize,
}

impl MlpGrads {
    /// Zero gradients shaped like `mlp`.
    pub fn zeros_like(mlp: &Mlp) -> Self {
        MlpGrads {
            layers: mlp
                .layers
                .iter()
                .map(|l| (vec![0.0; l.w.len()], vec![0.0; l.b.len()]))
                .collect(),
            count: 0,
        }
    }

    /// Accumulates another shard's gradients.
    pub fn merge(&mut self, other: &MlpGrads) {
        for ((w, b), (ow, ob)) in self.layers.iter_mut().zip(&other.layers) {
            for (a, x) in w.iter_mut().zip(ow) {
                *a += x;
            }
            for (a, x) in b.iter_mut().zip(ob) {
                *a += x;
            }
        }
        self.count += other.count;
    }

    /// Scales all gradients by `1 / count` (no-op when empty).
    pub fn average(&mut self) {
        if self.count == 0 {
            return;
        }
        let s = 1.0 / self.count as f32;
        for (w, b) in &mut self.layers {
            for x in w.iter_mut() {
                *x *= s;
            }
            for x in b.iter_mut() {
                *x *= s;
            }
        }
        self.count = 1;
    }
}

/// Reusable activation arena for [`Mlp::predict_batch_into`]: two ping-pong
/// batch buffers plus a transposed tile for the microkernel.
///
/// Grows on demand and is never shrunk; a serving worker keeps one per
/// thread so steady-state batched inference performs no allocations.
#[derive(Debug, Default, Clone)]
pub struct MlpScratch {
    a: Vec<f32>,
    b: Vec<f32>,
    tile: Vec<f32>,
}

impl MlpScratch {
    /// Ensures the ping-pong buffers hold `n × width` activations and the
    /// tile holds one `width × LANES` block.
    fn reserve(&mut self, n: usize, width: usize) {
        let need = n * width;
        if self.a.len() < need {
            self.a.resize(need, 0.0);
            self.b.resize(need, 0.0);
        }
        let tneed = width * Mlp::LANES;
        if self.tile.len() < tneed {
            self.tile.resize(tneed, 0.0);
        }
    }

    /// Both ping-pong buffers, mutably.
    fn split(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.a, &mut self.b)
    }

    /// Ping-pong buffers plus the transposed tile, mutably.
    fn parts(&mut self) -> (&mut [f32], &mut [f32], &mut [f32]) {
        (&mut self.a, &mut self.b, &mut self.tile)
    }
}

/// ReLU MLP with a scalar output head.
#[derive(Clone, Serialize, Deserialize)]
pub struct Mlp {
    /// Dense layers; ReLU between all but the last.
    layers: Vec<Linear>,
    /// Per-layer transposed weights for the SIMD GEMV, built on its first
    /// use and dropped by [`Mlp::layers_mut`], so they never go stale.
    #[serde(skip)]
    transposed: OnceLock<Vec<Vec<f32>>>,
}

impl std::fmt::Debug for Mlp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mlp")
            .field("layers", &self.layers)
            .finish_non_exhaustive()
    }
}

/// Equal when the layers are: the transposed weights are derived from them.
impl PartialEq for Mlp {
    fn eq(&self, other: &Self) -> bool {
        self.layers == other.layers
    }
}

impl Mlp {
    /// Samples evaluated simultaneously by the batched kernel (one tile).
    pub const LANES: usize = 8;

    /// Builds an MLP with the given layer sizes, e.g. `[3873, 256, 128, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(dims: &[usize], rng: &mut ChaCha12Rng) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            transposed: OnceLock::new(),
        }
    }

    /// The dense layers; ReLU between all but the last.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// The dense layers, mutably (training). Drops the GEMV's transposed
    /// weights; the next forward pass that needs them rebuilds them.
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        self.transposed = OnceLock::new();
        &mut self.layers
    }

    /// Each layer's transposed GEMV weights, built once on first use.
    fn transposed(&self) -> &[Vec<f32>] {
        self.transposed
            .get_or_init(|| self.layers.iter().map(Linear::transposed).collect())
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Forward pass for one sample; returns the scalar prediction.
    ///
    /// Routed through [`Mlp::predict_batch_into`] with `n = 1` — the
    /// per-sample GEMV — over a thread-local scratch arena, so steady-state
    /// calls perform **zero heap allocations** (pinned by
    /// `tests/predict_alloc.rs`) and a single prediction is bitwise-identical
    /// to the same sample inside any batch, whatever kernel is active.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn predict(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        thread_local! {
            static SCRATCH: std::cell::RefCell<MlpScratch> =
                std::cell::RefCell::new(MlpScratch::default());
        }
        SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            let mut y = [0.0f32];
            self.predict_batch_into(x, &mut y, &mut scratch);
            y[0]
        })
    }

    /// Forward pass over a row-major batch `xs` (`n × input_dim`), writing one
    /// scalar prediction per row into `out`.
    ///
    /// This is where batching pays even on one core. The per-sample path is
    /// a chain of dependent `acc += w·x` FMAs — bound by FP latency, not
    /// throughput — and re-streams every weight matrix per sample. This
    /// kernel transposes each full [`Mlp::LANES`]-sample tile of activations
    /// and evaluates the tile's dot products *simultaneously*: one weight
    /// pass per tile, `LANES` independent accumulator chains. Samples outside
    /// a full tile (a batch of one, a ragged tail) go through a per-sample
    /// GEMV that instead runs independent chains across output neurons, over
    /// weights transposed once per model. Both are dispatched through
    /// [`crate::kernel::active_kernel`]: AVX2/FMA or NEON when the host
    /// supports it, the scalar code otherwise.
    ///
    /// Numerical contract (see the [`crate::kernel`] docs):
    ///
    /// - Under the **scalar** kernel, each sample's accumulation runs in
    ///   exactly [`Mlp::predict`]'s seed order (`acc = b; acc += w·x`, left
    ///   to right), so outputs are bitwise identical to the seed per-sample
    ///   path — interleaving *across* samples reorders nothing *within* a
    ///   sample.
    /// - Under a **SIMD** kernel, summation order is unchanged but FMA
    ///   rounds once per term; outputs are ULP-close to scalar, not equal.
    /// - Under *any* kernel, a sample's output is bitwise-independent of the
    ///   batch it rides in: the GEMV computes each output with the same
    ///   left-to-right chain and the same ReLU as a tile lane, so a sample
    ///   gets the same bits in a full tile or outside one.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not a whole number of rows or `out` is not `n` long.
    pub fn predict_batch_into(&self, xs: &[f32], out: &mut [f32], scratch: &mut MlpScratch) {
        self.forward_from(0, xs, out, scratch);
    }

    /// [`Mlp::predict_batch_into`] from the second layer on: `hs` holds one
    /// row of first-layer activations per sample (`n × layers()[0].out_dim`,
    /// bias and ReLU already applied), and layers `1..` run exactly as in
    /// the full pass. With a single layer, `out` is the rows' first
    /// element. This is the back half of a factored first layer (see
    /// [`Mlp::project_cols`]).
    ///
    /// # Panics
    ///
    /// Panics if `hs` is not a whole number of rows or `out` is not `n` long.
    pub fn predict_from_hidden_into(&self, hs: &[f32], out: &mut [f32], scratch: &mut MlpScratch) {
        self.forward_from(1, hs, out, scratch);
    }

    /// First-layer projection of one input segment, for each of `n =
    /// out.len() / layers()[0].out_dim` rows:
    ///
    /// ```text
    /// out[i·h + o] = Σ_{k ∈ cols} W0[o][k] · xs[i·stride + k − cols.start]
    /// ```
    ///
    /// accumulated from zero with no bias and no activation, so the first
    /// layer's pre-activation is `b0` plus the projections of segments that
    /// tile the input. Runs the per-sample GEMV chain over the cached
    /// transposed weights (no weights are copied) — under the scalar
    /// kernel `acc += w·x` left to right, as the dense scalar kernel does;
    /// a row's result depends only on its own values, never on the other
    /// rows.
    ///
    /// # Panics
    ///
    /// Panics if `cols` leaves the input, `out` is not whole rows, or `xs`
    /// is too short for `n` rows at `stride`.
    pub fn project_cols(
        &self,
        cols: std::ops::Range<usize>,
        xs: &[f32],
        stride: usize,
        out: &mut [f32],
    ) {
        let layer = &self.layers[0];
        let (in_dim, h, len) = (layer.in_dim, layer.out_dim, cols.len());
        assert!(cols.end <= in_dim, "columns past the input dimension");
        assert_eq!(out.len() % h, 0, "out is not a whole number of rows");
        let n = out.len() / h;
        assert!(
            n == 0 || (n - 1) * stride + len <= xs.len(),
            "xs too short for {n} rows"
        );
        let kind = kernel::active_kernel();
        let wt = &self.transposed()[0];
        if kind != KernelKind::Scalar {
            kernel::gemv_project(kind, &layer.w, wt, in_dim, h, cols, xs, stride, out);
            return;
        }
        // Each output's chain is `acc = 0; acc += w·x` for k left to right;
        // walking k outermost over the transposed weights runs the grouped
        // outputs' chains side by side (and lets them vectorize).
        let grouped = kernel::gemv_grouped(h);
        let wt = &wt[cols.start * grouped..cols.end * grouped];
        for (i, y) in out.chunks_exact_mut(h).enumerate() {
            let x = &xs[i * stride..i * stride + len];
            let (head, tail) = y.split_at_mut(grouped);
            head.fill(0.0);
            if grouped > 0 {
                for (&xk, w) in x.iter().zip(wt.chunks_exact(grouped)) {
                    for (acc, &wv) in head.iter_mut().zip(w) {
                        *acc += wv * xk;
                    }
                }
            }
            for (o, y) in (grouped..).zip(tail) {
                let row = &layer.w[o * in_dim + cols.start..o * in_dim + cols.end];
                let mut acc = 0.0f32;
                for (wv, xv) in row.iter().zip(x) {
                    acc += wv * xv;
                }
                *y = acc;
            }
        }
    }

    /// The batched forward pass from layer `first` on; `xs` rows are that
    /// layer's inputs.
    fn forward_from(&self, first: usize, xs: &[f32], out: &mut [f32], scratch: &mut MlpScratch) {
        let dim = match self.layers.get(first) {
            Some(layer) => layer.in_dim,
            None => self.layers[first - 1].out_dim,
        };
        assert_eq!(xs.len() % dim.max(1), 0, "xs is not a whole number of rows");
        let n = xs.len() / dim;
        assert_eq!(out.len(), n, "output length mismatch");
        if n == 0 {
            return;
        }
        if first == self.layers.len() {
            for (o, row) in out.iter_mut().zip(xs.chunks_exact(dim)) {
                *o = row[0];
            }
            return;
        }
        let kind = kernel::active_kernel();
        // Sized for the layers that run: a pass from the hidden layer never
        // needs input-width buffers.
        let width = self.layers[first..]
            .iter()
            .map(|l| l.out_dim.max(l.in_dim))
            .max()
            .unwrap_or(0);
        scratch.reserve(n, width);
        let last = self.layers.len() - 1;
        let full = n - n % Self::LANES;
        let transposed = (kind != KernelKind::Scalar && full < n).then(|| self.transposed());

        // Layer-by-layer over the whole batch: activations for the current
        // layer's input live in one buffer, outputs accumulate in the other.
        scratch.split().0[..n * dim].copy_from_slice(xs);
        let mut cur_w = dim;
        let mut cur_buf = 0usize;
        for (li, layer) in self.layers.iter().enumerate().skip(first) {
            let (in_dim, out_dim) = (layer.in_dim, layer.out_dim);
            let relu = li != last;
            let (a, b, tile) = scratch.parts();
            let (src, dst) = if cur_buf == 0 { (a, b) } else { (b, a) };
            for block in (0..full).step_by(Self::LANES) {
                // Transpose the tile: tile[k * LANES + t] = sample t's
                // feature k (contiguous lanes for the inner loop).
                for t in 0..Self::LANES {
                    let row = &src[(block + t) * cur_w..(block + t) * cur_w + in_dim];
                    for (k, &v) in row.iter().enumerate() {
                        tile[k * Self::LANES + t] = v;
                    }
                }
                if kind != KernelKind::Scalar {
                    kernel::tile_forward(
                        kind, &layer.w, &layer.b, in_dim, out_dim, tile, dst, block, relu,
                    );
                    continue;
                }
                for o in 0..out_dim {
                    let row = &layer.w[o * in_dim..(o + 1) * in_dim];
                    let mut acc = [layer.b[o]; Self::LANES];
                    for (k, &wv) in row.iter().enumerate() {
                        let lanes = &tile[k * Self::LANES..(k + 1) * Self::LANES];
                        for t in 0..Self::LANES {
                            acc[t] += wv * lanes[t];
                        }
                    }
                    for (t, &v) in acc.iter().enumerate() {
                        dst[(block + t) * out_dim + o] = v;
                    }
                }
                if relu {
                    for v in &mut dst[block * out_dim..(block + Self::LANES) * out_dim] {
                        *v = v.max(0.0);
                    }
                }
            }
            // Samples outside a full tile: the per-sample GEMV, each
            // output's chain identical to its tile lane.
            for s in full..n {
                let x = &src[s * cur_w..s * cur_w + in_dim];
                let y = &mut dst[s * out_dim..(s + 1) * out_dim];
                if let Some(wt) = transposed {
                    kernel::gemv_forward(
                        kind, &layer.w, &wt[li], &layer.b, in_dim, out_dim, x, y, relu,
                    );
                } else {
                    layer.forward_into(x, y);
                    if relu {
                        for v in y {
                            *v = v.max(0.0);
                        }
                    }
                }
            }
            cur_w = out_dim;
            cur_buf ^= 1;
        }
        let (a, b) = scratch.split();
        let fin = if cur_buf == 0 { a } else { b };
        for (s, o) in out.iter_mut().enumerate() {
            *o = fin[s * cur_w];
        }
    }

    /// Allocating convenience wrapper over [`Mlp::predict_batch_into`].
    pub fn predict_batch(&self, xs: &[f32]) -> Vec<f32> {
        let dim = self.input_dim().max(1);
        let mut out = vec![0.0f32; xs.len() / dim];
        let mut scratch = MlpScratch::default();
        self.predict_batch_into(xs, &mut out, &mut scratch);
        out
    }

    /// Computes loss and parameter gradients over a shard of samples.
    ///
    /// `xs` is row-major `[n × input_dim]`; `ys` the labels; `dloss` maps
    /// `(prediction, label)` to `(loss, dloss/dprediction)`.
    /// Returns the summed gradients (average with [`MlpGrads::average`]) and
    /// the mean loss over the shard.
    pub fn grad_batch<F>(&self, xs: &[f32], ys: &[f32], dloss: F) -> (MlpGrads, f64)
    where
        F: Fn(f32, f32) -> (f32, f32),
    {
        let input_dim = self.input_dim();
        let n = ys.len();
        assert_eq!(xs.len(), n * input_dim, "xs shape mismatch");
        let mut grads = MlpGrads::zeros_like(self);
        let mut total_loss = 0.0f64;
        let nl = self.layers.len();

        // Per-sample activations (small: hidden sizes).
        let mut acts: Vec<Vec<f32>> = Vec::with_capacity(nl + 1);
        for s in 0..n {
            let x = &xs[s * input_dim..(s + 1) * input_dim];
            acts.clear();
            acts.push(x.to_vec());
            for (li, layer) in self.layers.iter().enumerate() {
                let mut out = vec![0.0f32; layer.out_dim];
                layer.forward_into(acts.last().unwrap(), &mut out);
                if li != nl - 1 {
                    for v in &mut out {
                        *v = v.max(0.0);
                    }
                }
                acts.push(out);
            }
            let pred = acts[nl][0];
            let (loss, dpred) = dloss(pred, ys[s]);
            total_loss += f64::from(loss);

            // Backward.
            let mut delta = vec![0.0f32; 1];
            delta[0] = dpred;
            for li in (0..nl).rev() {
                let layer = &self.layers[li];
                let a_in = &acts[li];
                let (gw, gb) = &mut grads.layers[li];
                for (o, &d) in delta.iter().enumerate() {
                    gb[o] += d;
                    let row = &mut gw[o * layer.in_dim..(o + 1) * layer.in_dim];
                    for (g, &a) in row.iter_mut().zip(a_in) {
                        *g += d * a;
                    }
                }
                if li > 0 {
                    let mut prev = vec![0.0f32; layer.in_dim];
                    for (o, &d) in delta.iter().enumerate() {
                        let row = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                        for (p, &wv) in prev.iter_mut().zip(row) {
                            *p += d * wv;
                        }
                    }
                    // ReLU derivative gate (a_in is post-activation).
                    for (p, &a) in prev.iter_mut().zip(a_in) {
                        if a <= 0.0 {
                            *p = 0.0;
                        }
                    }
                    delta = prev;
                }
            }
            grads.count += 1;
        }
        (grads, total_loss / n.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(42)
    }

    #[test]
    fn shapes_and_param_count() {
        let m = Mlp::new(&[10, 8, 4, 1], &mut rng());
        assert_eq!(m.input_dim(), 10);
        assert_eq!(m.num_params(), 10 * 8 + 8 + 8 * 4 + 4 + 4 + 1);
        let y = m.predict(&[0.1; 10]);
        assert!(y.is_finite());
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut r = rng();
        let m = Mlp::new(&[6, 5, 1], &mut r);
        let xs: Vec<f32> = (0..18).map(|i| (i as f32 * 0.37).sin()).collect();
        let ys = vec![1.5f32, 0.7, 2.2];
        let sq = |p: f32, y: f32| ((p - y) * (p - y), 2.0 * (p - y));
        let (grads, _) = m.grad_batch(&xs, &ys, sq);

        let eps = 1e-3f32;
        let loss_of = |m: &Mlp| {
            let mut total = 0.0f64;
            for s in 0..3 {
                let p = m.predict(&xs[s * 6..(s + 1) * 6]);
                total += f64::from((p - ys[s]) * (p - ys[s]));
            }
            total
        };
        // Spot-check a handful of weight coordinates in each layer.
        for li in 0..2 {
            let wlen = m.layers[li].w.len();
            for &wi in [0usize, 3, 7].iter().filter(|&&wi| wi < wlen) {
                let mut mp = m.clone();
                mp.layers_mut()[li].w[wi] += eps;
                let mut mm = m.clone();
                mm.layers_mut()[li].w[wi] -= eps;
                let num = (loss_of(&mp) - loss_of(&mm)) / (2.0 * f64::from(eps));
                let ana = f64::from(grads.layers[li].0[wi]);
                assert!(
                    (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                    "layer {li} w[{wi}]: numeric {num} vs analytic {ana}"
                );
            }
            let mut mp = m.clone();
            mp.layers_mut()[li].b[0] += eps;
            let mut mm = m.clone();
            mm.layers_mut()[li].b[0] -= eps;
            let num = (loss_of(&mp) - loss_of(&mm)) / (2.0 * f64::from(eps));
            let ana = f64::from(grads.layers[li].1[0]);
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "layer {li} b[0]"
            );
        }
    }

    #[test]
    fn merge_equals_single_batch() {
        let m = Mlp::new(&[4, 3, 1], &mut rng());
        let xs: Vec<f32> = (0..16).map(|i| i as f32 * 0.1).collect();
        let ys = vec![1.0f32, 2.0, 3.0, 4.0];
        let sq = |p: f32, y: f32| ((p - y) * (p - y), 2.0 * (p - y));
        let (full, _) = m.grad_batch(&xs, &ys, sq);
        let (mut a, _) = m.grad_batch(&xs[..8], &ys[..2], sq);
        let (b, _) = m.grad_batch(&xs[8..], &ys[2..], sq);
        a.merge(&b);
        for (la, lf) in a.layers.iter().zip(&full.layers) {
            for (x, y) in la.0.iter().zip(&lf.0) {
                assert!((x - y).abs() < 1e-4);
            }
        }
        assert_eq!(a.count, full.count);
    }

    #[test]
    fn average_scales_by_count() {
        let m = Mlp::new(&[2, 1], &mut rng());
        let sq = |p: f32, y: f32| ((p - y) * (p - y), 2.0 * (p - y));
        let (mut g, _) = m.grad_batch(&[1.0, 2.0, 1.0, 2.0], &[1.0, 1.0], sq);
        let before = g.layers[0].0[0];
        g.average();
        assert!((g.layers[0].0[0] - before / 2.0).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn predict_rejects_wrong_dim() {
        let m = Mlp::new(&[4, 1], &mut rng());
        let _ = m.predict(&[1.0, 2.0]);
    }

    #[test]
    fn batch_matches_single_bitwise() {
        let m = Mlp::new(&[7, 9, 5, 1], &mut rng());
        let n = 33;
        let xs: Vec<f32> = (0..n * 7)
            .map(|i| ((i as f32) * 0.71).sin() * 3.0)
            .collect();
        let batch = m.predict_batch(&xs);
        assert_eq!(batch.len(), n);
        for s in 0..n {
            let single = m.predict(&xs[s * 7..(s + 1) * 7]);
            assert_eq!(single.to_bits(), batch[s].to_bits(), "row {s} diverged");
        }
    }

    #[test]
    fn batch_scratch_is_reusable_across_batch_sizes() {
        let m = Mlp::new(&[3, 8, 1], &mut rng());
        let mut scratch = MlpScratch::default();
        for n in [64usize, 1, 17, 128] {
            let xs: Vec<f32> = (0..n * 3).map(|i| i as f32 * 0.01 - 1.0).collect();
            let mut out = vec![0.0f32; n];
            m.predict_batch_into(&xs, &mut out, &mut scratch);
            for s in 0..n {
                assert_eq!(
                    out[s].to_bits(),
                    m.predict(&xs[s * 3..(s + 1) * 3]).to_bits()
                );
            }
        }
    }

    #[test]
    fn column_projections_tile_the_first_layer() {
        // 70 → 64 → 1 (the 64-output GEMV pass) and 70 → 12 → 1 (8 grouped
        // outputs plus four run one at a time).
        for h in [64usize, 12] {
            let m = Mlp::new(&[70, h, 1], &mut rng());
            let xs: Vec<f32> = (0..5 * 70)
                .map(|i| ((i as f32) * 0.43).sin() * 2.0)
                .collect();
            let cuts = [0usize, 17, 18, 45, 70];
            for scalar in [false, true] {
                let _g = scalar.then(crate::forced_scalar);
                let w0 = &m.layers()[0];
                for row in xs.chunks_exact(70) {
                    let mut h_sum = w0.b.clone();
                    for c in cuts.windows(2) {
                        let mut p = vec![0.0f32; h];
                        m.project_cols(c[0]..c[1], &row[c[0]..], 70, &mut p);
                        for (a, v) in h_sum.iter_mut().zip(&p) {
                            *a += v;
                        }
                    }
                    let mut dense = vec![0.0f32; h];
                    w0.forward_into(row, &mut dense);
                    for (a, d) in h_sum.iter().zip(&dense) {
                        assert!((a - d).abs() <= 1e-4 * (1.0 + d.abs()), "{a} vs {d}");
                    }
                }
                // Rows projected together equal rows projected alone.
                let mut all = vec![0.0f32; 5 * h];
                m.project_cols(17..45, &xs[17..], 70, &mut all);
                for (i, got) in all.chunks_exact(h).enumerate() {
                    let mut one = vec![0.0f32; h];
                    m.project_cols(17..45, &xs[i * 70 + 17..], 70, &mut one);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(&one), "row {i} (scalar={scalar})");
                }
            }
        }
    }

    #[test]
    fn forward_from_hidden_matches_the_full_pass_under_scalar() {
        let _g = crate::forced_scalar();
        let m = Mlp::new(&[9, 16, 5, 1], &mut rng());
        let n = 19;
        let xs: Vec<f32> = (0..n * 9)
            .map(|i| ((i as f32) * 0.29).cos() * 3.0)
            .collect();
        let full = m.predict_batch(&xs);
        let w0 = &m.layers()[0];
        let mut hs = vec![0.0f32; n * 16];
        for (x, h) in xs.chunks_exact(9).zip(hs.chunks_exact_mut(16)) {
            w0.forward_into(x, h);
            for v in h.iter_mut() {
                *v = v.max(0.0);
            }
        }
        let mut out = vec![0.0f32; n];
        m.predict_from_hidden_into(&hs, &mut out, &mut MlpScratch::default());
        for (a, b) in out.iter().zip(&full) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A single-layer network's "hidden" rows are its outputs.
        let one = Mlp::new(&[4, 1], &mut rng());
        let mut out = [0.0f32; 2];
        one.predict_from_hidden_into(&[1.5, -2.0], &mut out, &mut MlpScratch::default());
        assert_eq!(out, [1.5, -2.0]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let m = Mlp::new(&[4, 1], &mut rng());
        assert!(m.predict_batch(&[]).is_empty());
    }
}
