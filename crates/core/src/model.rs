//! The Concorde predictor: feature normalizer + MLP, with artifact save/load.

use std::path::Path;

use concorde_cyclesim::MicroArch;
use concorde_ml::{kernel, Mlp, MlpScratch};
use serde::{Deserialize, Serialize};

use crate::features::{AssemblyScratch, FeatureLayout, FeatureStore, FeatureVariant};

/// Reusable buffers for the batched serving predictor
/// ([`ConcordePredictor::predict_batch_into`]): the activation arena, the
/// assembly plan, and the arch-dedup tables. One per worker; with a warm
/// scratch the whole group evaluation allocates nothing.
#[derive(Default)]
pub struct PredictScratch {
    /// MLP activation arena (f32 forward pass).
    pub mlp: MlpScratch,
    asm: AssemblyScratch,
    uniq: Vec<MicroArch>,
    map: Vec<u32>,
    xs: Vec<f32>,
    raw: Vec<f32>,
    uniq_out: Vec<f64>,
}

/// Deduplicates `archs` by linear scan (`MicroArch` is `PartialEq`-only:
/// `PredictorKind::Simple` carries a float), filling `uniq` with the
/// distinct architectures in first-appearance order and `map` with each
/// row's index into `uniq`.
fn dedup_archs(archs: &[MicroArch], uniq: &mut Vec<MicroArch>, map: &mut Vec<u32>) {
    uniq.clear();
    map.clear();
    map.reserve(archs.len());
    for arch in archs {
        let at = match uniq.iter().position(|u| u == arch) {
            Some(i) => i,
            None => {
                uniq.push(*arch);
                uniq.len() - 1
            }
        };
        map.push(at as u32);
    }
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
    pub fn predict_features(&self, features: &[f32]) -> f64 {
        let mut x = features.to_vec();
        self.normalizer.apply(&mut x);
        self.postprocess(f64::from(self.mlp.predict(&x)))
    }

    /// Predicts CPI for `arch` using a precomputed [`FeatureStore`].
    pub fn predict(&self, store: &FeatureStore, arch: &MicroArch) -> f64 {
        let f = store.features(arch, self.layout.variant);
        self.predict_features(&f)
    }

    /// Maps one raw MLP output to CPI (shared by the scalar and batch paths).
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

    /// Batched [`ConcordePredictor::predict_features`] over a row-major
    /// buffer of `n × dim` raw features, normalizing in place.
    ///
    /// `scratch` is the reusable activation arena; with a warm scratch the
    /// only allocation is the returned vector. Outputs are bitwise identical
    /// to calling `predict_features` per row.
    pub fn predict_features_batch(
        &self,
        features: &mut [f32],
        scratch: &mut MlpScratch,
    ) -> Vec<f64> {
        self.normalizer.apply_batch(features);
        let n = features.len() / self.normalizer.mean.len().max(1);
        let mut raw = vec![0.0f32; n];
        self.mlp.predict_batch_into(features, &mut raw, scratch);
        raw.into_iter()
            .map(|o| self.postprocess(f64::from(o)))
            .collect()
    }

    /// Predicts CPI for every architecture in `archs` against one store.
    ///
    /// Feature assembly happens per architecture (quantized lookups), then a
    /// single batched MLP forward pass covers the whole slice. Results are
    /// bitwise identical to mapping [`ConcordePredictor::predict`] over
    /// `archs`.
    pub fn predict_batch(&self, store: &FeatureStore, archs: &[MicroArch]) -> Vec<f64> {
        let mut scratch = MlpScratch::default();
        self.predict_batch_with(store, archs, &mut scratch)
    }

    /// [`ConcordePredictor::predict_batch`] with a caller-owned scratch arena
    /// (what serving workers use to keep the hot loop allocation-free).
    pub fn predict_batch_with(
        &self,
        store: &FeatureStore,
        archs: &[MicroArch],
        scratch: &mut MlpScratch,
    ) -> Vec<f64> {
        let dim = self.layout.dim();
        // One buffer for the whole batch; each row is assembled in place by
        // the zero-allocation `features_into` path.
        let mut xs = vec![0.0f32; archs.len() * dim];
        for (arch, row) in archs.iter().zip(xs.chunks_exact_mut(dim)) {
            store.features_into(arch, self.layout.variant, row);
        }
        self.predict_features_batch(&mut xs, scratch)
    }

    /// Zero-allocation batched f32 prediction: the serving workers' group
    /// evaluation path.
    ///
    /// Distinct architectures are deduplicated (linear scan — batches repeat
    /// sweep points heavily), features are assembled once per distinct arch
    /// in arena-coherent order ([`FeatureStore::features_into_many`]), one
    /// batched forward pass covers the distinct rows, and results scatter
    /// back to every requesting row. Per-row independence of the batch
    /// kernel (pinned by the batch-vs-single property tests) makes the
    /// dedup bitwise-invisible: `out` equals
    /// [`ConcordePredictor::predict_batch_with`] exactly.
    ///
    /// `out` is cleared and refilled; with warm buffers nothing allocates.
    pub fn predict_batch_into(
        &self,
        store: &FeatureStore,
        archs: &[MicroArch],
        scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) {
        dedup_archs(archs, &mut scratch.uniq, &mut scratch.map);
        let dim = self.layout.dim();
        scratch.xs.clear();
        scratch.xs.resize(scratch.uniq.len() * dim, 0.0);
        store.features_into_many(
            &scratch.uniq,
            self.layout.variant,
            &mut scratch.xs,
            &mut scratch.asm,
        );
        self.normalizer.apply_batch(&mut scratch.xs);
        scratch.raw.clear();
        scratch.raw.resize(scratch.uniq.len(), 0.0);
        self.mlp
            .predict_batch_into(&scratch.xs, &mut scratch.raw, &mut scratch.mlp);
        scratch.uniq_out.clear();
        scratch
            .uniq_out
            .extend(scratch.raw.iter().map(|&o| self.postprocess(f64::from(o))));
        out.clear();
        out.extend(scratch.map.iter().map(|&u| scratch.uniq_out[u as usize]));
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
    /// Returns any I/O or deserialization error.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let f = std::fs::File::open(path)?;
        serde_json::from_reader(std::io::BufReader::new(f)).map_err(std::io::Error::other)
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
