//! Percentile encoding of performance distributions (paper §4).
//!
//! Each throughput-bound timeseries (or latency series) is summarized as a
//! fixed-size vector: `L` equally spaced percentiles of the empirical CDF,
//! `L` equally spaced percentiles of the *size-weighted* distribution (each
//! sample weighted by its value, highlighting the tail), and the mean — the
//! paper's `2 × 50 + 1 = 101`-dimensional encoding, parameterized here so the
//! scaled-down profile can use fewer levels.

use serde::{Deserialize, Serialize};

/// Encoding configuration: `levels` percentiles per half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Encoding {
    /// Number of equally spaced percentiles taken from each distribution.
    pub levels: usize,
}

impl Encoding {
    /// The paper's 101-dimensional encoding (50 + 50 + mean).
    pub fn paper() -> Self {
        Encoding { levels: 50 }
    }

    /// Compact default for the scaled-down reproduction (16 + 16 + mean = 33).
    pub fn compact() -> Self {
        Encoding { levels: 16 }
    }

    /// Output dimension: `2 × levels + 1`.
    pub fn dim(&self) -> usize {
        2 * self.levels + 1
    }

    /// Encodes `samples` (unsorted) into the fixed-size feature vector.
    ///
    /// Empty inputs encode as all zeros.
    pub fn encode(&self, samples: &[f64]) -> Vec<f32> {
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
        self.encode_sorted(&sorted)
    }

    /// Encodes an integer-valued series (e.g. window counts, latencies).
    ///
    /// Bitwise equal to `encode` over the samples widened to `f64`: the
    /// integers are sorted first, which is cheaper, and since
    /// `f64::from(u32)` is exact and monotone and equal integers widen to
    /// identical bits, the widened sorted sequence is exactly the one
    /// `encode` sorts into.
    pub fn encode_u32(&self, samples: &[u32]) -> Vec<f32> {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let sorted: Vec<f64> = sorted.into_iter().map(f64::from).collect();
        self.encode_sorted(&sorted)
    }

    /// The encoding of an ascending sample sequence.
    fn encode_sorted(&self, sorted: &[f64]) -> Vec<f32> {
        let d = self.dim();
        if sorted.is_empty() {
            return vec![0.0; d];
        }
        let n = sorted.len();
        let mut out = Vec::with_capacity(d);

        // Plain percentiles.
        for i in 0..self.levels {
            let q = (i as f64 + 0.5) / self.levels as f64;
            let idx = ((q * n as f64) as usize).min(n - 1);
            out.push(sorted[idx] as f32);
        }

        // Size-weighted percentiles: each sample weighted by its value.
        let total: f64 = sorted.iter().sum();
        if total <= 0.0 {
            out.extend(std::iter::repeat_n(0.0f32, self.levels));
        } else {
            let mut cum = 0.0;
            let mut idx = 0usize;
            for i in 0..self.levels {
                let q = (i as f64 + 0.5) / self.levels as f64 * total;
                while idx < n - 1 && cum + sorted[idx] < q {
                    cum += sorted[idx];
                    idx += 1;
                }
                out.push(sorted[idx] as f32);
            }
        }

        // Mean.
        out.push((sorted.iter().sum::<f64>() / n as f64) as f32);
        debug_assert_eq!(out.len(), d);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims() {
        assert_eq!(Encoding::paper().dim(), 101);
        assert_eq!(Encoding::compact().dim(), 33);
    }

    #[test]
    fn constant_distribution_encodes_constant() {
        let e = Encoding { levels: 8 };
        let v = e.encode(&[3.0; 100]);
        assert_eq!(v.len(), 17);
        for x in v {
            assert!((x - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn percentiles_are_sorted_and_bounded() {
        let e = Encoding { levels: 10 };
        let samples: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        let v = e.encode(&samples);
        let (plain, rest) = v.split_at(10);
        let (weighted, mean) = rest.split_at(10);
        for w in plain.windows(2) {
            assert!(w[0] <= w[1], "plain percentiles sorted");
        }
        for w in weighted.windows(2) {
            assert!(w[0] <= w[1], "weighted percentiles sorted");
        }
        let lo = *samples
            .iter()
            .min_by(|a, b| a.partial_cmp(b).unwrap())
            .unwrap() as f32;
        let hi = *samples
            .iter()
            .max_by(|a, b| a.partial_cmp(b).unwrap())
            .unwrap() as f32;
        for &x in plain.iter().chain(weighted) {
            assert!(x >= lo && x <= hi);
        }
        let want_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean[0] as f64 - want_mean).abs() < 1e-3);
    }

    #[test]
    fn size_weighting_emphasizes_tail() {
        let e = Encoding { levels: 10 };
        // 90 small values, 10 huge ones.
        let mut s = vec![1.0; 90];
        s.extend(vec![100.0; 10]);
        let v = e.encode(&s);
        let plain_median = v[5];
        let weighted_median = v[15];
        assert!(
            weighted_median > plain_median,
            "{weighted_median} <= {plain_median}"
        );
        assert_eq!(weighted_median, 100.0, "by mass, the tail dominates");
    }

    #[test]
    fn empty_and_zero_inputs() {
        let e = Encoding { levels: 4 };
        assert_eq!(e.encode(&[]), vec![0.0; 9]);
        let z = e.encode(&[0.0, 0.0]);
        assert_eq!(z, vec![0.0; 9]);
    }

    #[test]
    fn u32_encoding_matches_f64() {
        let e = Encoding { levels: 4 };
        let a = e.encode_u32(&[1, 2, 3, 4]);
        let b = e.encode(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }
}
