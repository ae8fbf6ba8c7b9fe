//! Int8-weight inference: [`QuantizedMlp`] plus the fused
//! dequantize-assembly input path ([`QuantFeatureBuf`]).
//!
//! Weights are quantized **per output channel** to `i8` (symmetric,
//! `w ≈ w_scale[o] · q`), the contract "A Learned Performance Model for
//! TPUs" serves perf models with at fleet scale. Accumulation is exact where
//! it matters:
//!
//! - **First layer** (real-valued standardized input): `f32` accumulate of
//!   `z_k · q[k][o]` — the input is not quantized, so the only error is the
//!   weight rounding.
//! - **Hidden layers** (non-negative post-ReLU input): per-sample dynamic
//!   `u8` activation quantization with an **`i32` accumulate** of
//!   `u8 × i8` products — integer-exact, so scalar and vectorized builds of
//!   this loop cannot diverge.
//!
//! The fused path ([`QuantizedMlp::predict_segments`]) consumes encoded
//! arena blocks *directly*: [`QuantFeatureBuf`] carries raw `u8` payload
//! bytes plus their per-block affine `(scale, offset)`, and the first-layer
//! GEMV dequantizes + standardizes each element in registers while
//! accumulating — the f32 feature vector is never materialized in memory
//! (pinned by the counting-allocator test `tests/fused_alloc.rs`).

use serde::{Deserialize, Serialize};

use crate::kernel;
use crate::mlp::{Linear, Mlp};

/// One dense layer with `i8` weights: `y = w_scale ⊙ (Q x) + b`, where `Q`
/// holds `i8` quantized weights and `w_scale` is per **output** channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantLinear {
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension.
    pub out_dim: usize,
    /// Quantized weights, **transposed** `[in_dim × out_dim]` (input-major),
    /// so the axpy-style forward streams one contiguous row per input
    /// element.
    pub qw_t: Vec<i8>,
    /// Per-output-channel dequantization scale: `w[o][k] ≈ w_scale[o] ·
    /// qw_t[k][o]`.
    pub w_scale: Vec<f32>,
    /// Biases, kept in `f32` (they are added after dequantization).
    pub b: Vec<f32>,
}

impl QuantLinear {
    /// Quantizes one f32 layer: symmetric per-output-channel `amax / 127`.
    pub fn from_f32(l: &Linear) -> QuantLinear {
        let (in_dim, out_dim) = (l.in_dim, l.out_dim);
        let mut w_scale = vec![0.0f32; out_dim];
        for (o, s) in w_scale.iter_mut().enumerate() {
            let row = &l.w[o * in_dim..(o + 1) * in_dim];
            let amax = row.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
            *s = if amax > 0.0 { amax / 127.0 } else { 1.0 };
        }
        let mut qw_t = vec![0i8; in_dim * out_dim];
        for o in 0..out_dim {
            let inv = 1.0 / w_scale[o];
            for k in 0..in_dim {
                let q = (l.w[o * in_dim + k] * inv).round().clamp(-127.0, 127.0);
                qw_t[k * out_dim + o] = q as i8;
            }
        }
        QuantLinear {
            in_dim,
            out_dim,
            qw_t,
            w_scale,
            b: l.b.clone(),
        }
    }

    /// First-layer forward: `f32` accumulate over a real-valued input.
    /// `acc` must hold `out_dim` zeroed accumulators; the caller folds in
    /// bias and scale via [`QuantLinear::finish_f32`].
    #[inline]
    fn accumulate_f32(&self, z: &[f32], acc: &mut [f32]) {
        debug_assert_eq!(z.len(), self.in_dim);
        for (k, &zv) in z.iter().enumerate() {
            if zv != 0.0 {
                axpy_i8(
                    acc,
                    zv,
                    &self.qw_t[k * self.out_dim..(k + 1) * self.out_dim],
                );
            }
        }
    }

    /// Applies bias + per-channel scale to raw `f32` accumulators.
    #[inline]
    fn finish_f32(&self, acc: &[f32], out: &mut [f32], relu: bool) {
        for ((y, &a), (&s, &b)) in out
            .iter_mut()
            .zip(acc)
            .zip(self.w_scale.iter().zip(&self.b))
        {
            let v = b + s * a;
            *y = if relu { v.max(0.0) } else { v };
        }
    }

    /// Hidden-layer forward over `u8`-quantized activations with an exact
    /// `i32` accumulate: `out[o] = b[o] + (w_scale[o] · a_scale) · Σ_k
    /// qa[k] · qw[k][o]`.
    #[inline]
    fn forward_u8_into(
        &self,
        qa: &[u8],
        a_scale: f32,
        iacc: &mut [i32],
        out: &mut [f32],
        relu: bool,
    ) {
        debug_assert_eq!(qa.len(), self.in_dim);
        let iacc = &mut iacc[..self.out_dim];
        iacc.fill(0);
        for (k, &q) in qa.iter().enumerate() {
            if q != 0 {
                let row = &self.qw_t[k * self.out_dim..(k + 1) * self.out_dim];
                let qv = i32::from(q);
                for (a, &w) in iacc.iter_mut().zip(row) {
                    *a += qv * i32::from(w);
                }
            }
        }
        for ((y, &a), (&s, &b)) in out
            .iter_mut()
            .zip(iacc.iter())
            .zip(self.w_scale.iter().zip(&self.b))
        {
            let v = b + (s * a_scale) * a as f32;
            *y = if relu { v.max(0.0) } else { v };
        }
    }
}

/// `acc[o] += z · qrow[o]` over one transposed weight row. Plain code on
/// purpose: the `i8 → f32` widen + FMA pattern auto-vectorizes, and the
/// first layer dominates quantized inference cost.
#[inline]
fn axpy_i8(acc: &mut [f32], z: f32, qrow: &[i8]) {
    for (a, &q) in acc.iter_mut().zip(qrow) {
        *a += z * f32::from(q);
    }
}

/// Reusable working memory for [`QuantizedMlp`] forward passes. Grows on
/// demand, never shrinks — steady-state inference allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct QuantScratch {
    /// First-layer f32 accumulators.
    acc: Vec<f32>,
    /// Hidden-layer i32 accumulators.
    iacc: Vec<i32>,
    /// Quantized activations.
    qa: Vec<u8>,
    /// Ping-pong activation buffers.
    a: Vec<f32>,
    b: Vec<f32>,
}

impl QuantScratch {
    fn reserve(&mut self, width: usize) {
        if self.acc.len() < width {
            self.acc.resize(width, 0.0);
            self.iacc.resize(width, 0);
            self.qa.resize(width, 0);
            self.a.resize(width, 0.0);
            self.b.resize(width, 0.0);
        }
    }
}

/// An [`Mlp`] with `i8` weights (see the module docs for the accumulation
/// contract). Convert with [`Mlp::quantize`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedMlp {
    /// Quantized dense layers; ReLU between all but the last.
    pub layers: Vec<QuantLinear>,
}

impl Mlp {
    /// Quantizes every layer to `i8` weights with per-output-channel scales.
    pub fn quantize(&self) -> QuantizedMlp {
        QuantizedMlp {
            layers: self.layers.iter().map(QuantLinear::from_f32).collect(),
        }
    }
}

impl QuantizedMlp {
    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Widest layer dimension (scratch sizing).
    pub fn max_dim(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.out_dim.max(l.in_dim))
            .max()
            .unwrap_or(0)
    }

    /// Total quantized weight bytes (the footprint win over `f32`).
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.qw_t.len()).sum()
    }

    /// Forward pass over an already-standardized input vector `z`.
    ///
    /// Bitwise-identical to [`QuantizedMlp::predict_segments`] fed segments
    /// that dequantize + standardize to the same values — the fused path
    /// reorders nothing.
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` differs from the input dimension.
    pub fn predict(&self, z: &[f32], scratch: &mut QuantScratch) -> f32 {
        let l0 = &self.layers[0];
        assert_eq!(z.len(), l0.in_dim, "input dimension mismatch");
        scratch.reserve(self.max_dim());
        let acc = &mut scratch.acc[..l0.out_dim];
        acc.fill(0.0);
        l0.accumulate_f32(z, acc);
        self.finish_from_first(scratch)
    }

    /// Fused first-layer forward: consumes encoded feature segments
    /// directly, dequantizing (`offset + scale · q`, the arena contract) and
    /// standardizing ([`kernel::standardize`]) each element **in registers**
    /// while accumulating into the first layer — no f32 feature vector is
    /// ever written to memory.
    ///
    /// # Panics
    ///
    /// Panics if the segment element count or `mean`/`std` lengths differ
    /// from the input dimension.
    pub fn predict_segments(
        &self,
        feats: &QuantFeatureBuf,
        mean: &[f32],
        std: &[f32],
        log1p: bool,
        scratch: &mut QuantScratch,
    ) -> f32 {
        let l0 = &self.layers[0];
        assert_eq!(feats.len(), l0.in_dim, "segment element count mismatch");
        assert_eq!(mean.len(), l0.in_dim, "normalizer mean length mismatch");
        assert_eq!(std.len(), l0.in_dim, "normalizer std length mismatch");
        scratch.reserve(self.max_dim());
        let acc = &mut scratch.acc[..l0.out_dim];
        acc.fill(0.0);
        let out_dim = l0.out_dim;
        let mut k = 0usize;
        let (mut u8_pos, mut f32_pos) = (0usize, 0usize);
        for seg in &feats.segs {
            match *seg {
                QuantSeg::U8 { len, scale, offset } => {
                    for &q in &feats.u8_data[u8_pos..u8_pos + len] {
                        let v = offset + scale * f32::from(q);
                        let z = kernel::standardize(v, mean[k], std[k], log1p);
                        if z != 0.0 {
                            axpy_i8(acc, z, &l0.qw_t[k * out_dim..(k + 1) * out_dim]);
                        }
                        k += 1;
                    }
                    u8_pos += len;
                }
                QuantSeg::F32 { len } => {
                    for &v in &feats.f32_data[f32_pos..f32_pos + len] {
                        let z = kernel::standardize(v, mean[k], std[k], log1p);
                        if z != 0.0 {
                            axpy_i8(acc, z, &l0.qw_t[k * out_dim..(k + 1) * out_dim]);
                        }
                        k += 1;
                    }
                    f32_pos += len;
                }
            }
        }
        debug_assert_eq!(k, l0.in_dim);
        self.finish_from_first(scratch)
    }

    /// Folds bias/scale into the first layer's accumulators, then runs the
    /// remaining layers with `u8`-activation / `i32`-accumulate forwards.
    fn finish_from_first(&self, scratch: &mut QuantScratch) -> f32 {
        let last = self.layers.len() - 1;
        let l0 = &self.layers[0];
        {
            let (acc, a) = (&scratch.acc[..l0.out_dim], &mut scratch.a[..l0.out_dim]);
            l0.finish_f32(acc, a, last != 0);
        }
        let mut cur = 0usize; // 0 = scratch.a, 1 = scratch.b
        for (li, layer) in self.layers.iter().enumerate().skip(1) {
            let QuantScratch { iacc, qa, a, b, .. } = scratch;
            let (src, dst) = if cur == 0 {
                (&*a, &mut *b)
            } else {
                (&*b, &mut *a)
            };
            let x = &src[..layer.in_dim];
            // Dynamic activation quantization: post-ReLU activations are
            // ≥ 0, so the affine is zero-point-free (`a ≈ a_scale · qa`).
            let amax = x.iter().fold(0.0f32, |m, &v| m.max(v));
            let qa = &mut qa[..layer.in_dim];
            let a_scale = if amax > 0.0 {
                let inv = 255.0 / amax;
                for (q, &v) in qa.iter_mut().zip(x) {
                    *q = (v * inv).round().min(255.0) as u8;
                }
                amax / 255.0
            } else {
                qa.fill(0);
                0.0
            };
            layer.forward_u8_into(qa, a_scale, iacc, &mut dst[..layer.out_dim], li != last);
            cur ^= 1;
        }
        if cur == 0 {
            scratch.a[0]
        } else {
            scratch.b[0]
        }
    }

    /// Batched forward over row-major standardized inputs (`n ×
    /// input_dim`), one scalar per row. The quantized batch path is a
    /// per-sample loop: the first layer's axpy already streams weights once
    /// per sample, and hidden layers are a small fraction of the work.
    ///
    /// # Panics
    ///
    /// Panics if `zs` is not a whole number of rows or `out` is not `n` long.
    pub fn predict_batch_into(&self, zs: &[f32], out: &mut [f32], scratch: &mut QuantScratch) {
        let dim = self.input_dim();
        assert_eq!(zs.len() % dim.max(1), 0, "zs is not a whole number of rows");
        assert_eq!(out.len(), zs.len() / dim.max(1), "output length mismatch");
        for (row, y) in zs.chunks_exact(dim).zip(out.iter_mut()) {
            *y = self.predict(row, scratch);
        }
    }
}

/// One encoded segment of a [`QuantFeatureBuf`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantSeg {
    /// `len` raw `u8` elements dequantizing as `offset + scale · q` (the
    /// int8 arena-block affine).
    U8 {
        /// Element count.
        len: usize,
        /// Block dequantization scale.
        scale: f32,
        /// Block dequantization offset.
        offset: f32,
    },
    /// `len` plain `f32` elements (lossless blocks, scalars, f16 blocks
    /// pre-converted exactly).
    F32 {
        /// Element count.
        len: usize,
    },
}

/// A feature vector in **encoded** form: a sequence of segments over two
/// backing pools (`u8` payload bytes, `f32` values). The assembly side
/// (`FeatureStore::features_quantized_into`) appends blocks without
/// dequantizing int8 payloads; the consumption side
/// ([`QuantizedMlp::predict_segments`]) fuses dequantization into the first
/// GEMV. Pools keep their capacity across [`QuantFeatureBuf::clear`], so a
/// warm buffer assembles with zero heap allocations.
#[derive(Debug, Default, Clone)]
pub struct QuantFeatureBuf {
    u8_data: Vec<u8>,
    f32_data: Vec<f32>,
    segs: Vec<QuantSeg>,
    len: usize,
}

impl QuantFeatureBuf {
    /// Empties the buffer, keeping all capacity.
    pub fn clear(&mut self) {
        self.u8_data.clear();
        self.f32_data.clear();
        self.segs.clear();
        self.len = 0;
    }

    /// Total feature elements across all segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The segment list (tests and diagnostics).
    pub fn segments(&self) -> &[QuantSeg] {
        &self.segs
    }

    /// Appends one raw int8 arena block with its affine params.
    pub fn push_u8_block(&mut self, bytes: &[u8], scale: f32, offset: f32) {
        self.u8_data.extend_from_slice(bytes);
        self.segs.push(QuantSeg::U8 {
            len: bytes.len(),
            scale,
            offset,
        });
        self.len += bytes.len();
    }

    /// Appends plain `f32` elements (coalesced into the previous `F32`
    /// segment when adjacent).
    pub fn push_f32_slice(&mut self, vs: &[f32]) {
        self.f32_data.extend_from_slice(vs);
        self.note_f32(vs.len());
    }

    /// Appends one plain `f32` element.
    pub fn push_f32(&mut self, v: f32) {
        self.f32_data.push(v);
        self.note_f32(1);
    }

    /// Appends `len` `f32` elements produced by `fill` writing into the
    /// freshly extended tail (how `MicroArch::encode_into` and arena
    /// `write_entry` land without an intermediate buffer).
    pub fn push_f32_with(&mut self, len: usize, fill: impl FnOnce(&mut [f32])) {
        let start = self.f32_data.len();
        self.f32_data.resize(start + len, 0.0);
        fill(&mut self.f32_data[start..]);
        self.note_f32(len);
    }

    fn note_f32(&mut self, len: usize) {
        if len == 0 {
            return;
        }
        if let Some(QuantSeg::F32 { len: l }) = self.segs.last_mut() {
            *l += len;
        } else {
            self.segs.push(QuantSeg::F32 { len });
        }
        self.len += len;
    }

    /// Dequantizes every segment into `out` — the reference the fused path
    /// is tested against. Element arithmetic (`offset + scale · q`) matches
    /// the arena `write_entry` contract exactly.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn materialize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len, "output buffer length mismatch");
        let mut k = 0usize;
        let (mut u8_pos, mut f32_pos) = (0usize, 0usize);
        for seg in &self.segs {
            match *seg {
                QuantSeg::U8 { len, scale, offset } => {
                    for &q in &self.u8_data[u8_pos..u8_pos + len] {
                        out[k] = offset + scale * f32::from(q);
                        k += 1;
                    }
                    u8_pos += len;
                }
                QuantSeg::F32 { len } => {
                    out[k..k + len].copy_from_slice(&self.f32_data[f32_pos..f32_pos + len]);
                    k += len;
                    f32_pos += len;
                }
            }
        }
    }

    /// Allocating [`QuantFeatureBuf::materialize_into`].
    pub fn materialize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len];
        self.materialize_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(7)
    }

    #[test]
    fn quantize_roundtrips_weights_within_half_step() {
        let m = Mlp::new(&[12, 9, 1], &mut rng());
        let q = m.quantize();
        for (l, ql) in m.layers.iter().zip(&q.layers) {
            for o in 0..l.out_dim {
                for k in 0..l.in_dim {
                    let w = l.w[o * l.in_dim + k];
                    let back = ql.w_scale[o] * f32::from(ql.qw_t[k * ql.out_dim + o]);
                    assert!(
                        (w - back).abs() <= ql.w_scale[o] * 0.5 + 1e-7,
                        "w {w} vs dequant {back} (scale {})",
                        ql.w_scale[o]
                    );
                }
            }
        }
    }

    #[test]
    fn quantized_predictions_track_f32() {
        let m = Mlp::new(&[24, 16, 8, 1], &mut rng());
        let q = m.quantize();
        let mut scratch = QuantScratch::default();
        for s in 0..32 {
            let z: Vec<f32> = (0..24)
                .map(|i| ((i + s * 13) as f32 * 0.61).sin())
                .collect();
            let yf = m.predict(&z);
            let yq = q.predict(&z, &mut scratch);
            assert!(
                (yf - yq).abs() <= 0.05 * yf.abs() + 0.05,
                "sample {s}: f32 {yf} vs int8 {yq}"
            );
        }
    }

    #[test]
    fn segments_match_materialized_bitwise() {
        let m = Mlp::new(&[10, 7, 1], &mut rng());
        let q = m.quantize();
        let mut buf = QuantFeatureBuf::default();
        buf.push_u8_block(&[0, 3, 255, 17], 0.25, -1.5);
        buf.push_f32_slice(&[0.5, -2.0, 3.25]);
        buf.push_f32(4.0);
        buf.push_f32_with(2, |t| {
            t[0] = 9.0;
            t[1] = 0.125;
        });
        assert_eq!(buf.len(), 10);
        let mean = vec![0.3f32; 10];
        let std = vec![1.7f32; 10];
        let mut scratch = QuantScratch::default();
        for log1p in [false, true] {
            let fused = q.predict_segments(&buf, &mean, &std, log1p, &mut scratch);
            let mut z = buf.materialize();
            kernel::standardize_rows(&mut z, &mean, &std, log1p);
            let direct = q.predict(&z, &mut scratch);
            assert_eq!(
                fused.to_bits(),
                direct.to_bits(),
                "fused vs materialized diverged (log1p={log1p})"
            );
        }
    }

    #[test]
    fn batch_matches_single() {
        let m = Mlp::new(&[6, 5, 1], &mut rng());
        let q = m.quantize();
        let mut scratch = QuantScratch::default();
        let zs: Vec<f32> = (0..6 * 11).map(|i| (i as f32 * 0.17).cos()).collect();
        let mut out = vec![0.0f32; 11];
        q.predict_batch_into(&zs, &mut out, &mut scratch);
        for (s, &y) in out.iter().enumerate() {
            let single = q.predict(&zs[s * 6..(s + 1) * 6], &mut scratch);
            assert_eq!(y.to_bits(), single.to_bits(), "row {s}");
        }
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut buf = QuantFeatureBuf::default();
        buf.push_u8_block(&[1, 2, 3], 1.0, 0.0);
        buf.push_f32_slice(&[1.0, 2.0]);
        let (cu, cf, cs) = (
            buf.u8_data.capacity(),
            buf.f32_data.capacity(),
            buf.segs.capacity(),
        );
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(
            (cu, cf, cs),
            (
                buf.u8_data.capacity(),
                buf.f32_data.capacity(),
                buf.segs.capacity()
            )
        );
    }

    #[test]
    fn all_zero_hidden_activations_are_fine() {
        // A layer whose output ReLUs to all-zeros must not divide by zero in
        // the dynamic activation quantizer.
        let mut m = Mlp::new(&[4, 3, 1], &mut rng());
        for l in &mut m.layers {
            for w in &mut l.w {
                *w = -w.abs(); // all-negative weights
            }
            for b in &mut l.b {
                *b = -1.0;
            }
        }
        let q = m.quantize();
        let mut scratch = QuantScratch::default();
        let y = q.predict(&[1.0, 2.0, 3.0, 4.0], &mut scratch);
        assert!(y.is_finite());
        assert_eq!(y, q.layers.last().unwrap().b[0]);
    }
}
