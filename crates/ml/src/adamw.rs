//! AdamW optimizer (decoupled weight decay; Loshchilov & Hutter) — the paper's
//! training setup (§4: weight decay 0.3, LR 0.001 halving on a step schedule).

use serde::{Deserialize, Serialize};

use crate::mlp::{Mlp, MlpGrads};

/// AdamW state and hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdamW {
    /// Base learning rate.
    pub lr: f32,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    step: u64,
    m: Vec<(Vec<f32>, Vec<f32>)>,
    v: Vec<(Vec<f32>, Vec<f32>)>,
}

impl AdamW {
    /// Creates an optimizer with the paper's defaults (LR 0.001, decay 0.3)
    /// for the given model.
    pub fn new(model: &Mlp, lr: f32, weight_decay: f32) -> Self {
        let zeros = || {
            model
                .layers()
                .iter()
                .map(|l| (vec![0.0f32; l.w.len()], vec![0.0f32; l.b.len()]))
                .collect::<Vec<_>>()
        };
        AdamW {
            lr,
            weight_decay,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m: zeros(),
            v: zeros(),
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Applies one update with averaged gradients `g` and learning-rate scale
    /// `lr_scale` (the schedule's multiplier; 1.0 = base LR).
    ///
    /// # Panics
    ///
    /// Panics if the gradient shapes don't match the model.
    pub fn apply(&mut self, model: &mut Mlp, g: &MlpGrads, lr_scale: f32) {
        assert_eq!(
            g.layers.len(),
            model.layers().len(),
            "gradient shape mismatch"
        );
        self.step += 1;
        let t = self.step as f32;
        let lr = self.lr * lr_scale;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);

        for (li, layer) in model.layers_mut().iter_mut().enumerate() {
            let (gw, gb) = &g.layers[li];
            let (mw, mb) = &mut self.m[li];
            let (vw, vb) = &mut self.v[li];
            // Weights: Adam moment update + decoupled decay.
            for i in 0..layer.w.len() {
                mw[i] = self.beta1 * mw[i] + (1.0 - self.beta1) * gw[i];
                vw[i] = self.beta2 * vw[i] + (1.0 - self.beta2) * gw[i] * gw[i];
                let mhat = mw[i] / bc1;
                let vhat = vw[i] / bc2;
                layer.w[i] -=
                    lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * layer.w[i]);
            }
            // Biases: no weight decay.
            for i in 0..layer.b.len() {
                mb[i] = self.beta1 * mb[i] + (1.0 - self.beta1) * gb[i];
                vb[i] = self.beta2 * vb[i] + (1.0 - self.beta2) * gb[i] * gb[i];
                let mhat = mb[i] / bc1;
                let vhat = vb[i] / bc2;
                layer.b[i] -= lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// Learning-rate schedule that halves the rate at each listed step (paper §4:
/// halves after {10, 14, 18, 22}k steps).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HalvingSchedule {
    /// Steps at which the LR halves.
    pub milestones: Vec<u64>,
}

impl HalvingSchedule {
    /// The paper's milestone schedule.
    pub fn paper() -> Self {
        HalvingSchedule {
            milestones: vec![10_000, 14_000, 18_000, 22_000],
        }
    }

    /// Scaled milestones for shorter runs.
    pub fn scaled(total_steps: u64) -> Self {
        HalvingSchedule {
            milestones: vec![
                total_steps * 10 / 24,
                total_steps * 14 / 24,
                total_steps * 18 / 24,
                total_steps * 22 / 24,
            ],
        }
    }

    /// LR multiplier at `step`.
    pub fn scale(&self, step: u64) -> f32 {
        let halvings = self.milestones.iter().filter(|&&m| step >= m).count() as i32;
        0.5f32.powi(halvings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn adamw_fits_a_linear_function() {
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let mut model = Mlp::new(&[3, 16, 1], &mut rng);
        let mut opt = AdamW::new(&model, 0.01, 0.0);
        use rand::Rng;
        // y = 2 x0 - x1 + 0.5 x2 + 1
        let data: Vec<(Vec<f32>, f32)> = (0..256)
            .map(|_| {
                let x: Vec<f32> = (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let y = 2.0 * x[0] - x[1] + 0.5 * x[2] + 1.0;
                (x, y)
            })
            .collect();
        let sq = |p: f32, y: f32| ((p - y) * (p - y), 2.0 * (p - y));
        let mut last = f64::MAX;
        for epoch in 0..300 {
            let xs: Vec<f32> = data.iter().flat_map(|(x, _)| x.clone()).collect();
            let ys: Vec<f32> = data.iter().map(|(_, y)| *y).collect();
            let (mut g, loss) = model.grad_batch(&xs, &ys, sq);
            g.average();
            opt.apply(&mut model, &g, 1.0);
            if epoch == 299 {
                last = loss;
            }
        }
        assert!(last < 0.01, "AdamW failed to fit: final loss {last}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let mut model = Mlp::new(&[2, 1], &mut rng);
        let norm_before: f32 = model.layers()[0].w.iter().map(|w| w * w).sum();
        let mut opt = AdamW::new(&model, 0.01, 0.5);
        let g = MlpGrads::zeros_like(&model); // zero gradients: decay only
        for _ in 0..50 {
            opt.apply(&mut model, &g, 1.0);
        }
        let norm_after: f32 = model.layers()[0].w.iter().map(|w| w * w).sum();
        assert!(
            norm_after < norm_before * 0.9,
            "{norm_before} -> {norm_after}"
        );
    }

    #[test]
    fn halving_schedule() {
        let s = HalvingSchedule::paper();
        assert_eq!(s.scale(0), 1.0);
        assert_eq!(s.scale(9_999), 1.0);
        assert_eq!(s.scale(10_000), 0.5);
        assert_eq!(s.scale(15_000), 0.25);
        assert_eq!(s.scale(30_000), 0.0625);
        let sc = HalvingSchedule::scaled(2400);
        assert_eq!(sc.scale(999), 1.0);
        assert_eq!(sc.scale(1000), 0.5);
    }

    #[test]
    fn step_counter_advances() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut model = Mlp::new(&[2, 1], &mut rng);
        let mut opt = AdamW::new(&model, 0.01, 0.0);
        assert_eq!(opt.steps(), 0);
        let g = MlpGrads::zeros_like(&model);
        opt.apply(&mut model, &g, 1.0);
        assert_eq!(opt.steps(), 1);
    }
}
