//! The Concorde predictor: feature normalizer + MLP, with artifact save/load.
//!
//! Inference is *factored* at the first layer. The layer is linear, so its
//! pre-activation is the bias plus one projection per input segment
//! ([`FeatureLayout`]'s primary blocks, the store-constant stall group, the
//! per-memory-configuration group, and the per-architecture misprediction
//! and parameter dims). A design-space batch over one store repeats most
//! store entries, so each distinct entry is standardized and projected
//! once, and each row only sums its segments' projections (in column
//! order) before the rest of the network runs.

use std::collections::HashMap;
use std::path::Path;

use concorde_cyclesim::MicroArch;
use concorde_ml::{kernel, Mlp, MlpScratch};
use serde::{Deserialize, Serialize};

use crate::features::{
    EntryPlan, FeatureLayout, FeatureStore, FeatureVariant, SegmentSource, Segments, MAX_SEGMENTS,
};

/// Reusable buffers for the batched serving predictor
/// ([`ConcordePredictor::predict_batch_into`]): the arch-dedup table, the
/// entry plan, the first-layer projections and the activation arena. One
/// per worker; with a warm scratch the whole group evaluation allocates
/// nothing.
#[derive(Default)]
pub struct PredictScratch {
    /// MLP activation arena (layers after the first).
    pub mlp: MlpScratch,
    dedup: ArchDedup,
    plan: EntryPlan,
    layer0: Layer0Scratch,
}

/// Linear-time batch dedup keyed on every field of the architecture (all
/// integers, so equal keys are bit-identical architectures). Keys come off
/// the wire, so the map keeps std's keyed hasher.
#[derive(Default)]
struct ArchDedup {
    index: HashMap<MicroArch, u32>,
    /// Distinct architectures in first-appearance order.
    uniq: Vec<MicroArch>,
    /// Each row's index into `uniq`.
    map: Vec<u32>,
}

impl ArchDedup {
    fn run(&mut self, archs: &[MicroArch]) {
        self.index.clear();
        self.uniq.clear();
        self.map.clear();
        for arch in archs {
            let next = self.uniq.len() as u32;
            let at = *self.index.entry(*arch).or_insert(next);
            if at == next {
                self.uniq.push(*arch);
            }
            self.map.push(at);
        }
    }
}

/// The factored first layer's buffers.
#[derive(Default)]
struct Layer0Scratch {
    /// One segment's raw, then standardized, input rows — or one whole
    /// input row (single-row predictions).
    xs: Vec<f32>,
    /// Projected rows (first-layer width), segment after segment.
    proj: Vec<f32>,
    /// Segment `j`'s projections start at row `bases[j]` of `proj`.
    bases: [usize; MAX_SEGMENTS],
    /// First-layer activations, one row per prediction.
    hidden: Vec<f32>,
    /// Raw network outputs.
    raw: Vec<f32>,
}

/// Per-dimension standardization fitted on the training set.
///
/// All Concorde features are non-negative with heavy-tailed latency dims, so
/// the normalizer optionally applies `ln(1 + x)` before standardizing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    /// Feature means (in transformed space).
    pub mean: Vec<f32>,
    /// Feature standard deviations (floored to avoid division blowups).
    pub std: Vec<f32>,
    /// Apply `ln(1 + max(x, 0))` ([`kernel::log1p`]) before standardizing.
    pub log1p: bool,
}

impl Normalizer {
    /// Fits mean/std over row-major samples `xs` (`n × dim`), optionally in
    /// `ln(1 + x)` space.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or misshapen.
    pub fn fit(xs: &[f32], dim: usize, log1p: bool) -> Self {
        assert!(
            dim > 0 && !xs.is_empty() && xs.len().is_multiple_of(dim),
            "bad sample shape"
        );
        let n = xs.len() / dim;
        // The serving transform exactly (`kernel::log1p` clamps to ≥ 0), so
        // training and serving standardize the same values.
        let tx = |x: f32| if log1p { kernel::log1p(x) } else { x };
        let mut mean = vec![0.0f64; dim];
        for row in xs.chunks_exact(dim) {
            for (m, &x) in mean.iter_mut().zip(row) {
                *m += f64::from(tx(x));
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0f64; dim];
        for row in xs.chunks_exact(dim) {
            for ((v, m), &x) in var.iter_mut().zip(&mean).zip(row) {
                let d = f64::from(tx(x)) - *m;
                *v += d * d;
            }
        }
        // Floor each std relative to the dimension's magnitude: dims that are
        // constant up to float jitter would otherwise amplify that jitter by
        // orders of magnitude and destabilize training.
        let std = var
            .iter()
            .zip(&mean)
            .map(|(v, m)| {
                let floor = (m.abs() + 1.0) * 1e-4;
                ((v / n as f64).sqrt().max(floor)) as f32
            })
            .collect();
        Normalizer {
            mean: mean.iter().map(|m| *m as f32).collect(),
            std,
            log1p,
        }
    }

    /// Standardizes one feature vector in place.
    pub fn apply(&self, x: &mut [f32]) {
        debug_assert_eq!(x.len(), self.mean.len());
        self.apply_batch(x);
    }

    /// Standardizes a row-major batch in place — bitwise equal to
    /// [`Normalizer::apply`] per row, under every kernel
    /// ([`kernel::standardize_rows`]).
    pub fn apply_batch(&self, xs: &mut [f32]) {
        kernel::standardize_rows(xs, &self.mean, &self.std, self.log1p);
    }

    /// Standardizes rows that hold only the feature columns `cols` —
    /// bitwise equal to those columns of [`Normalizer::apply_batch`].
    fn apply_cols(&self, cols: std::ops::Range<usize>, xs: &mut [f32]) {
        let (mean, std) = (&self.mean[cols.clone()], &self.std[cols]);
        kernel::standardize_rows(xs, mean, std, self.log1p);
    }
}

/// A trained Concorde model: layout, normalizer, and MLP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConcordePredictor {
    /// Feature layout the model was trained with.
    pub layout: FeatureLayout,
    /// Input standardization.
    pub normalizer: Normalizer,
    /// The MLP `g(z, p) → CPI`.
    pub mlp: Mlp,
    /// The MLP predicts `ln(CPI)`; the prediction is exponentiated. Keeps the
    /// paper's relative-error loss while letting a small network span the
    /// 0.3–100+ CPI range.
    pub log_output: bool,
    /// Predictions are clamped to the label range observed in training
    /// (widened 2×): a guard against catastrophic extrapolation on inputs far
    /// outside the training distribution.
    #[serde(default)]
    pub output_clamp: Option<(f64, f64)>,
}

impl ConcordePredictor {
    /// Predicts CPI from an already-assembled raw feature vector.
    ///
    /// Bitwise equal to [`ConcordePredictor::predict`] and to
    /// [`ConcordePredictor::predict_batch_into`] for the architecture the
    /// vector was assembled for: every path standardizes and projects the
    /// same segment values with the same kernels.
    pub fn predict_features(&self, features: &[f32]) -> f64 {
        assert_eq!(
            features.len(),
            self.layout.dim(),
            "feature dimension mismatch"
        );
        thread_local! {
            static SCRATCH: std::cell::RefCell<PredictScratch> =
                std::cell::RefCell::new(PredictScratch::default());
        }
        SCRATCH.with(|s| {
            let PredictScratch {
                mlp, plan, layer0, ..
            } = &mut *s.borrow_mut();
            layer0.xs.clear();
            layer0.xs.extend_from_slice(features);
            self.forward_row(&mut plan.local, layer0, mlp);
            self.postprocess(f64::from(layer0.raw[0]))
        })
    }

    /// Predicts CPI for `arch` using a precomputed [`FeatureStore`].
    pub fn predict(&self, store: &FeatureStore, arch: &MicroArch) -> f64 {
        let f = store.features(arch, self.layout.variant);
        self.predict_features(&f)
    }

    /// Maps one raw MLP output to CPI.
    #[inline]
    fn postprocess(&self, o: f64) -> f64 {
        let y = if self.log_output {
            o.clamp(-8.0, 8.0).exp()
        } else {
            o.max(1e-3)
        };
        match self.output_clamp {
            Some((lo, hi)) => y.clamp(lo, hi),
            None => y,
        }
    }

    /// Predicts CPI for every architecture in `archs` against one store —
    /// [`ConcordePredictor::predict_batch_into`] with a fresh scratch.
    /// Results are bitwise identical to mapping
    /// [`ConcordePredictor::predict`] over `archs`.
    pub fn predict_batch(&self, store: &FeatureStore, archs: &[MicroArch]) -> Vec<f64> {
        let mut out = Vec::with_capacity(archs.len());
        self.predict_batch_into(store, archs, &mut PredictScratch::default(), &mut out);
        out
    }

    /// Zero-allocation batched prediction: the serving workers' group
    /// evaluation path.
    ///
    /// 1. Distinct architectures are found in linear time.
    /// 2. Each one's store entries are resolved once per segment
    ///    ([`FeatureStore::plan_entries`]), and each segment's distinct
    ///    entries are listed once.
    /// 3. Every distinct entry is standardized and projected through its
    ///    columns of the first layer once; the per-architecture dims
    ///    (misprediction rate, parameters) once per distinct architecture.
    /// 4. Each distinct architecture's first-layer activation is the bias
    ///    plus its segments' projections in column order, then ReLU, and one
    ///    batched pass runs the remaining layers; results scatter back to
    ///    every requesting row.
    ///
    /// A row's projections depend only on its own values, so `out` equals
    /// [`ConcordePredictor::predict`] per row bitwise, in any batch order
    /// and with any repeats. Against the dense first layer (one chain over
    /// the whole standardized row) it differs by float reassociation only.
    ///
    /// `out` is cleared and refilled; with warm buffers nothing allocates.
    pub fn predict_batch_into(
        &self,
        store: &FeatureStore,
        archs: &[MicroArch],
        scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) {
        let PredictScratch {
            mlp,
            dedup,
            plan,
            layer0,
        } = scratch;
        dedup.run(archs);
        let uniq = &dedup.uniq;
        if let [arch] = uniq.as_slice() {
            // Nothing to share: assemble the one row and skip the plan.
            layer0.xs.resize(self.layout.dim(), 0.0);
            store.features_into(arch, self.layout.variant, &mut layer0.xs);
            self.forward_row(&mut plan.local, layer0, mlp);
            let y = self.postprocess(f64::from(layer0.raw[0]));
            out.clear();
            out.resize(archs.len(), y);
            return;
        }
        let segments = self.layout.segments();
        store.plan_entries(uniq, &segments, plan);
        self.project_segments(&segments, layer0, |j, xs| {
            let seg = segments[j];
            match seg.source {
                SegmentSource::Mispredict => {
                    xs.extend(uniq.iter().map(|a| store.mispredict_feature(a.predictor)));
                }
                SegmentSource::Params => {
                    xs.resize(uniq.len() * seg.len, 0.0);
                    for (a, row) in uniq.iter().zip(xs.chunks_exact_mut(seg.len)) {
                        a.encode_into(row);
                    }
                }
                source => {
                    let entries = &plan.entries[plan.starts[j]..plan.starts[j + 1]];
                    xs.resize(entries.len() * seg.len, 0.0);
                    for (&e, row) in entries.iter().zip(xs.chunks_exact_mut(seg.len)) {
                        store.write_segment(source, e as usize, row);
                    }
                }
            }
        });
        self.finish(uniq.len(), &segments, &plan.local, layer0, mlp);
        let raw = &layer0.raw;
        out.clear();
        out.extend(
            dedup
                .map
                .iter()
                .map(|&u| self.postprocess(f64::from(raw[u as usize]))),
        );
    }

    /// The factored first layer over the one raw row in `l0.xs`:
    /// standardized in one pass, each segment projected straight from it
    /// (what [`ConcordePredictor::project_segments`] computes segment by
    /// segment, bit for bit), then the rest of the network into `l0.raw[0]`.
    fn forward_row(&self, local: &mut Vec<u32>, l0: &mut Layer0Scratch, mlp: &mut MlpScratch) {
        let segments = self.layout.segments();
        let h = self.mlp.layers()[0].out_dim;
        self.normalizer.apply(&mut l0.xs);
        l0.proj.clear();
        l0.proj.resize(segments.len() * h, 0.0);
        for (j, (seg, proj)) in segments.iter().zip(l0.proj.chunks_exact_mut(h)).enumerate() {
            l0.bases[j] = j;
            self.mlp
                .project_cols(seg.cols(), &l0.xs[seg.start..], seg.len, proj);
        }
        local.clear();
        local.resize(segments.len(), 0);
        self.finish(1, &segments, local, l0, mlp);
    }

    /// Projects every segment's rows through its first-layer columns.
    /// `fill(j, xs)` writes segment `j`'s raw rows into the empty `xs`;
    /// they are standardized in place and projected into `l0.proj` from row
    /// `l0.bases[j]` on.
    fn project_segments(
        &self,
        segments: &Segments,
        l0: &mut Layer0Scratch,
        mut fill: impl FnMut(usize, &mut Vec<f32>),
    ) {
        let h = self.mlp.layers()[0].out_dim;
        l0.proj.clear();
        for (j, seg) in segments.iter().enumerate() {
            l0.xs.clear();
            fill(j, &mut l0.xs);
            let rows = l0.xs.len() / seg.len;
            self.normalizer.apply_cols(seg.cols(), &mut l0.xs);
            let at = l0.proj.len();
            l0.bases[j] = at / h;
            l0.proj.resize(at + rows * h, 0.0);
            self.mlp
                .project_cols(seg.cols(), &l0.xs, seg.len, &mut l0.proj[at..]);
        }
    }

    /// Sums each of the `n` rows' segment projections onto the first-layer
    /// bias in column order (`local[u * segments + j]` picks row `u`'s
    /// projection within segment `j`), applies the ReLU, and runs the
    /// remaining layers into `l0.raw`.
    fn finish(
        &self,
        n: usize,
        segments: &Segments,
        local: &[u32],
        l0: &mut Layer0Scratch,
        mlp: &mut MlpScratch,
    ) {
        let first = &self.mlp.layers()[0];
        let h = first.out_dim;
        let relu = self.mlp.layers().len() > 1;
        let n_seg = segments.len();
        l0.hidden.clear();
        l0.hidden.resize(n * h, 0.0);
        for (u, acc) in l0.hidden.chunks_exact_mut(h).enumerate() {
            acc.copy_from_slice(&first.b);
            for (j, &at) in local[u * n_seg..(u + 1) * n_seg].iter().enumerate() {
                let row = (l0.bases[j] + at as usize) * h;
                for (a, &p) in acc.iter_mut().zip(&l0.proj[row..row + h]) {
                    *a += p;
                }
            }
            if relu {
                for a in acc.iter_mut() {
                    // NaN and ±0 give +0, as the tile's `max(acc, 0)` does.
                    *a = if *a > 0.0 { *a } else { 0.0 };
                }
            }
        }
        l0.raw.clear();
        l0.raw.resize(n, 0.0);
        self.mlp
            .predict_from_hidden_into(&l0.hidden, &mut l0.raw, mlp);
    }

    /// Feature variant this model consumes.
    pub fn variant(&self) -> FeatureVariant {
        self.layout.variant
    }

    /// Serializes the predictor to JSON at `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O or serialization error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let f = std::fs::File::create(path)?;
        serde_json::to_writer(std::io::BufWriter::new(f), self).map_err(std::io::Error::other)
    }

    /// Loads a predictor previously written by [`ConcordePredictor::save`].
    ///
    /// # Errors
    ///
    /// Returns any I/O or deserialization error, and an
    /// [`InvalidData`](std::io::ErrorKind::InvalidData) error for a model
    /// whose shapes do not fit together or that holds a non-finite value
    /// (normalizer lengths against `layout.dim()`, the layer chain, finite
    /// values), which would otherwise panic or answer NaN on its first
    /// prediction.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let f = std::fs::File::open(path)?;
        let model: Self =
            serde_json::from_reader(std::io::BufReader::new(f)).map_err(std::io::Error::other)?;
        model.check_shape().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("misshapen model {}: {e}", path.display()),
            )
        })?;
        Ok(model)
    }

    /// Checks what every prediction relies on: the normalizer has one mean
    /// and one positive standard deviation per input dimension, the layers
    /// chain from `layout.dim()` inputs to one output with weight and bias
    /// vectors of their declared sizes, and every value is finite.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    fn check_shape(&self) -> Result<(), String> {
        let dim = self.layout.dim();
        let norm = &self.normalizer;
        if norm.mean.len() != dim || norm.std.len() != dim {
            return Err(format!(
                "normalizer has {} means and {} deviations for {dim} input dimensions",
                norm.mean.len(),
                norm.std.len()
            ));
        }
        if let Some(j) = norm.mean.iter().position(|m| !m.is_finite()) {
            return Err(format!("normalizer mean {j} is not finite"));
        }
        if let Some(j) = norm.std.iter().position(|s| !(s.is_finite() && *s > 0.0)) {
            return Err(format!(
                "normalizer deviation {j} is not a finite positive number"
            ));
        }
        let layers = self.mlp.layers();
        if layers.is_empty() {
            return Err("the MLP has no layers".into());
        }
        let mut inputs = dim;
        for (l, layer) in layers.iter().enumerate() {
            if layer.in_dim != inputs {
                return Err(format!(
                    "layer {l} takes {} inputs but receives {inputs}",
                    layer.in_dim
                ));
            }
            if Some(layer.w.len()) != layer.in_dim.checked_mul(layer.out_dim)
                || layer.b.len() != layer.out_dim
            {
                return Err(format!(
                    "layer {l} ({} → {}) holds {} weights and {} biases",
                    layer.in_dim,
                    layer.out_dim,
                    layer.w.len(),
                    layer.b.len()
                ));
            }
            if layer.w.iter().chain(&layer.b).any(|x| !x.is_finite()) {
                return Err(format!("layer {l} holds a non-finite parameter"));
            }
            inputs = layer.out_dim;
        }
        if inputs != 1 {
            return Err(format!("the MLP has {inputs} outputs, not 1"));
        }
        if let Some((lo, hi)) = self.output_clamp {
            if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
                return Err(format!("output clamp ({lo}, {hi}) is not a finite range"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concorde_analytic::distribution::Encoding;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn normalizer_standardizes() {
        // Two dims: constant 5, and {0, 10}.
        let xs = vec![5.0f32, 0.0, 5.0, 10.0];
        let n = Normalizer::fit(&xs, 2, false);
        assert!((n.mean[0] - 5.0).abs() < 1e-6);
        assert!((n.mean[1] - 5.0).abs() < 1e-6);
        let mut x = vec![5.0f32, 10.0];
        n.apply(&mut x);
        assert!(x[0].abs() < 1e-3, "constant dim -> 0");
        assert!((x[1] - 1.0).abs() < 1e-5, "one std above mean");
    }

    #[test]
    fn constant_dims_do_not_explode() {
        let xs = vec![1.0f32; 30];
        let n = Normalizer::fit(&xs, 3, false);
        let mut x = vec![100.0f32, 100.0, 100.0];
        n.apply(&mut x);
        for v in x {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let layout = FeatureLayout {
            encoding: Encoding { levels: 4 },
            variant: FeatureVariant::Base,
        };
        let dim = layout.dim();
        let model = ConcordePredictor {
            layout,
            normalizer: Normalizer {
                mean: vec![0.0; dim],
                std: vec![1.0; dim],
                log1p: false,
            },
            mlp: Mlp::new(&[dim, 8, 1], &mut rng),
            log_output: true,
            output_clamp: None,
        };
        let dir = std::env::temp_dir().join("concorde_model_test.json");
        model.save(&dir).unwrap();
        let loaded = ConcordePredictor::load(&dir).unwrap();
        let x = vec![0.5f32; dim];
        assert!((model.predict_features(&x) - loaded.predict_features(&x)).abs() < 1e-9);
        std::fs::remove_file(&dir).ok();
    }

    fn tiny_model(seed: u64) -> ConcordePredictor {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let layout = FeatureLayout {
            encoding: Encoding { levels: 4 },
            variant: FeatureVariant::Base,
        };
        let dim = layout.dim();
        ConcordePredictor {
            layout,
            normalizer: Normalizer {
                mean: vec![0.0; dim],
                std: vec![1.0; dim],
                log1p: false,
            },
            mlp: Mlp::new(&[dim, 8, 4, 1], &mut rng),
            log_output: true,
            output_clamp: None,
        }
    }

    /// Saves `model`, loads it back and returns the load error's kind and
    /// message.
    fn load_error(model: &ConcordePredictor, name: &str) -> (std::io::ErrorKind, String) {
        let path = std::env::temp_dir().join(format!(
            "concorde_misshapen_{name}_{}.json",
            std::process::id()
        ));
        model.save(&path).unwrap();
        let err = ConcordePredictor::load(&path).expect_err("a misshapen model must not load");
        std::fs::remove_file(&path).ok();
        (err.kind(), err.to_string())
    }

    #[test]
    fn misshapen_models_fail_to_load_with_invalid_data() {
        assert_eq!(tiny_model(3).check_shape(), Ok(()));

        // A 10-entry normalizer against a wider layout.
        let mut short = tiny_model(3);
        short.normalizer.mean.truncate(10);
        let (kind, msg) = load_error(&short, "normalizer");
        assert_eq!(kind, std::io::ErrorKind::InvalidData);
        assert!(msg.contains("10 means"), "{msg}");

        // A hidden layer that expects more inputs than the one before it
        // gives, with weights that fit its own declared shape.
        let mut broken = tiny_model(3);
        {
            let layer = &mut broken.mlp.layers_mut()[1];
            layer.in_dim += 1;
            layer.w.resize(layer.in_dim * layer.out_dim, 0.0);
        }
        let (kind, msg) = load_error(&broken, "chain");
        assert_eq!(kind, std::io::ErrorKind::InvalidData);
        assert!(
            msg.contains("layer 1 takes 9 inputs but receives 8"),
            "{msg}"
        );

        // Two outputs.
        let mut wide = tiny_model(3);
        {
            let last = wide.mlp.layers_mut().last_mut().unwrap();
            last.out_dim = 2;
            last.w.resize(last.in_dim * 2, 0.0);
            last.b.resize(2, 0.0);
        }
        assert!(wide.check_shape().unwrap_err().contains("2 outputs"));

        // Weights that do not fit the declared shape.
        let mut ragged = tiny_model(3);
        ragged.mlp.layers_mut()[0].w.pop();
        assert!(ragged.check_shape().unwrap_err().contains("layer 0"));

        // Non-finite values: JSON cannot carry them, so check in memory.
        let mut nan = tiny_model(3);
        nan.mlp.layers_mut()[2].b[0] = f32::NAN;
        assert!(nan.check_shape().unwrap_err().contains("non-finite"));
        let mut zero_std = tiny_model(3);
        zero_std.normalizer.std[4] = 0.0;
        assert!(zero_std.check_shape().unwrap_err().contains("deviation 4"));
        let mut inf_mean = tiny_model(3);
        inf_mean.normalizer.mean[0] = f32::INFINITY;
        assert!(inf_mean.check_shape().unwrap_err().contains("mean 0"));
        let mut clamp = tiny_model(3);
        clamp.output_clamp = Some((2.0, 1.0));
        assert!(clamp.check_shape().unwrap_err().contains("clamp"));
    }

    #[test]
    fn predictions_are_positive() {
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let layout = FeatureLayout {
            encoding: Encoding { levels: 4 },
            variant: FeatureVariant::Base,
        };
        let dim = layout.dim();
        let model = ConcordePredictor {
            layout,
            normalizer: Normalizer {
                mean: vec![0.0; dim],
                std: vec![1.0; dim],
                log1p: true,
            },
            mlp: Mlp::new(&[dim, 4, 1], &mut rng),
            log_output: true,
            output_clamp: Some((0.5, 10.0)),
        };
        for s in 0..20 {
            let x = vec![s as f32 * -3.0; dim];
            assert!(model.predict_features(&x) > 0.0);
        }
    }
}
