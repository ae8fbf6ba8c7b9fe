//! Percentile encoding of performance distributions (paper §4).
//!
//! Each throughput-bound timeseries (or latency series) is summarized as a
//! fixed-size vector: `L` equally spaced percentiles of the empirical CDF,
//! `L` equally spaced percentiles of the *size-weighted* distribution (each
//! sample weighted by its value, highlighting the tail), and the mean — the
//! paper's `2 × 50 + 1 = 101`-dimensional encoding, parameterized here so the
//! scaled-down profile can use fewer levels.

use serde::{Deserialize, Serialize};

/// [`Encoding::encode_u32`] counts values in a histogram when they span at
/// most this many distinct integers per sample, and sorts them otherwise:
/// counting costs one pass over the samples plus one over the span, so it
/// beats a sort while the span stays within a small multiple of the length.
const HIST_SPAN_PER_SAMPLE: usize = 4;

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
    /// Bitwise equal to `encode` over the samples widened to `f64`. When
    /// the values span at most four distinct integers per sample and their
    /// sum is at most 2^53, the encoding is read off a histogram of the
    /// values: every partial sum `encode` forms is then an integer that
    /// `f64` holds exactly, so exact integer sums reproduce it. Wider series
    /// are sorted as integers, which gives the same sequence `encode` sorts
    /// into, since widening is exact and monotone.
    pub fn encode_u32(&self, samples: &[u32]) -> Vec<f32> {
        let n = samples.len();
        if n == 0 {
            return vec![0.0; self.dim()];
        }
        let (mut lo, mut hi, mut total) = (u32::MAX, 0u32, 0u64);
        for &x in samples {
            lo = lo.min(x);
            hi = hi.max(x);
            total = total.saturating_add(u64::from(x));
        }
        let span = (hi - lo) as usize + 1;
        if span <= HIST_SPAN_PER_SAMPLE.saturating_mul(n) && total <= 1 << 53 {
            let mut counts = vec![0u32; span];
            for &x in samples {
                counts[(x - lo) as usize] += 1;
            }
            return self.encode_histogram(lo, &counts, n, total);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let sorted: Vec<f64> = sorted.into_iter().map(f64::from).collect();
        self.encode_sorted(&sorted)
    }

    /// `encode_sorted` over the ascending sequence holding `counts[j]`
    /// copies of `lo + j`: `n` samples summing to `total` ≤ 2^53.
    fn encode_histogram(&self, lo: u32, counts: &[u32], n: usize, total: u64) -> Vec<f32> {
        /// A position in the sorted sequence: bucket `b`, `t` of its
        /// samples before it, `idx` samples before it in all.
        struct Cursor<'c> {
            counts: &'c [u32],
            b: usize,
            t: u32,
            idx: usize,
        }
        impl Cursor<'_> {
            /// Moves past exhausted buckets, so `b` holds sample `idx`.
            fn settle(&mut self) {
                while self.t == self.counts[self.b] {
                    self.b += 1;
                    self.t = 0;
                }
            }
        }
        let value = |b: usize| u64::from(lo) + b as u64;
        let mut out = Vec::with_capacity(self.dim());

        // Plain percentiles: sample `⌊q n⌋`, as `encode_sorted` indexes.
        let mut at = Cursor {
            counts,
            b: 0,
            t: 0,
            idx: 0,
        };
        for i in 0..self.levels {
            let q = (i as f64 + 0.5) / self.levels as f64;
            let target = ((q * n as f64) as usize).min(n - 1);
            while at.idx < target {
                at.settle();
                let step = ((counts[at.b] - at.t) as usize).min(target - at.idx);
                at.t += step as u32;
                at.idx += step;
            }
            at.settle();
            out.push(value(at.b) as f32);
        }

        // Size-weighted percentiles. `encode_sorted` steps past sample `x`
        // while `cum + x < q`; with `cum` and `x` integers that is
        // `cum + x < ⌈q⌉`, so a run of equal values is skipped in one step.
        if total == 0 {
            out.extend(std::iter::repeat_n(0.0f32, self.levels));
        } else {
            let mut at = Cursor {
                counts,
                b: 0,
                t: 0,
                idx: 0,
            };
            let mut cum = 0u64;
            for i in 0..self.levels {
                let q = (i as f64 + 0.5) / self.levels as f64 * total as f64;
                let q_ceil = q.ceil() as u64;
                loop {
                    at.settle();
                    if at.idx >= n - 1 {
                        break;
                    }
                    let v = value(at.b);
                    let avail = ((counts[at.b] - at.t) as usize).min(n - 1 - at.idx);
                    // Zeros always fit: `cum < q` holds throughout.
                    let fits = q_ceil
                        .saturating_sub(cum + 1)
                        .checked_div(v)
                        .map_or(avail, |k| k.min(avail as u64) as usize);
                    cum += fits as u64 * v;
                    at.t += fits as u32;
                    at.idx += fits;
                    if fits < avail {
                        break;
                    }
                }
                at.settle();
                out.push(value(at.b) as f32);
            }
        }

        // Mean.
        out.push((total as f64 / n as f64) as f32);
        debug_assert_eq!(out.len(), self.dim());
        out
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `encode_u32` against sort-then-`encode` over the widened samples.
    fn assert_matches_encode(samples: &[u32], what: &str) {
        let widened: Vec<f64> = samples.iter().map(|&x| f64::from(x)).collect();
        for levels in [1, 8, 16, 50] {
            let e = Encoding { levels };
            assert_eq!(
                bits(&e.encode_u32(samples)),
                bits(&e.encode(&widened)),
                "{what}, {levels} levels, {} samples",
                samples.len()
            );
        }
    }

    /// A seeded series of `len` samples in `base .. base + spread` that
    /// touches both ends, so its span is exactly `spread`.
    fn series(len: usize, base: u32, spread: u32, zeros_pct: u64, seed: u64) -> Vec<u32> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut v: Vec<u32> = (0..len)
            .map(|_| {
                if next() % 100 < zeros_pct {
                    base
                } else {
                    base + (next() % u64::from(spread)) as u32
                }
            })
            .collect();
        if len >= 2 {
            v[0] = base + (spread - 1);
            v[len - 1] = base;
        }
        v
    }

    #[test]
    fn histogram_bound_is_exact_on_both_sides() {
        for len in [2usize, 3, 17, 256, 4096] {
            let at = (HIST_SPAN_PER_SAMPLE * len) as u32;
            for spread in [at - 1, at, at + 1] {
                for base in [0, 1000, u32::MAX - spread + 1] {
                    let v = series(len, base, spread, 30, len as u64 + u64::from(spread));
                    assert_matches_encode(&v, &format!("span {spread} from {base}"));
                }
            }
        }
    }

    #[test]
    fn sums_beyond_2_pow_53_fall_back_to_the_sort() {
        // A narrow span, so only the sum keeps the histogram out.
        let len = (1usize << 21) + 3;
        let v: Vec<u32> = (0..len).map(|i| u32::MAX - (i % 5) as u32).collect();
        let total: u64 = v.iter().map(|&x| u64::from(x)).sum();
        assert!(total > 1 << 53);
        let widened: Vec<f64> = v.iter().map(|&x| f64::from(x)).collect();
        let e = Encoding { levels: 16 };
        assert_eq!(bits(&e.encode_u32(&v)), bits(&e.encode(&widened)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 96, ..Default::default() })]

        /// Bit for bit the sort-then-`encode` result, at every length up to
        /// 5000, on spans either side of the histogram bound, with values
        /// at 0 and at `u32::MAX`, and with heavy duplication.
        #[test]
        fn encode_u32_equals_sorted_encode(
            len in 0usize..5000,
            shape in 0u8..6,
            zeros_pct in 0u64..95,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let per = (HIST_SPAN_PER_SAMPLE * len.max(1)) as u32;
            let (base, spread) = match shape {
                0 => (0, 8),
                1 => (0, per),
                2 => (7, per + 1 + (seed % 97) as u32),
                3 => (u32::MAX - per + 1, per),
                4 => (0, u32::MAX),
                _ => (1, u32::MAX),
            };
            let mut v = series(len, base, spread, zeros_pct, seed);
            if shape == 5 && len >= 2 {
                v[0] = 0;
                v[len - 1] = u32::MAX;
            }
            assert_matches_encode(&v, &format!("shape {shape}"));
        }
    }
}
