//! Fixed-window throughput series (paper §3.2.1, Eq. 5).
//!
//! Analytical models produce per-instruction completion "marks" (commit or
//! readiness cycles); this module converts them into throughput bounds over
//! consecutive `k`-instruction windows. Windows whose duration is zero (the
//! resource imposes no constraint there) are capped at [`THROUGHPUT_CAP`].

/// Upper cap (IPC) applied to unconstrained windows. Well above the widest
/// Table 1 resource (12-wide), so the cap never masks a real bound.
pub const THROUGHPUT_CAP: f64 = 64.0;

/// Default window length (instructions). The paper uses `k = 400` on 100k+
/// regions; we default to 256 on the scaled-down regions (README,
/// "Reproducing the paper") — "any value of k in the order of the ROB size
/// works well" (§3.2.1).
pub const DEFAULT_WINDOW: usize = 256;

/// Number of complete `k`-windows over `n` instructions (at least 1 when
/// `n > 0`: a trailing short window is counted as one window).
pub fn window_count(n: usize, k: usize) -> usize {
    if n == 0 {
        0
    } else {
        (n / k).max(1)
    }
}

/// Converts per-instruction completion marks into per-window throughput
/// (Eq. 5: `thr_j = k / (c_{kj} - c_{k(j-1)})`), capping unconstrained
/// windows at [`THROUGHPUT_CAP`].
pub fn throughput_from_marks(marks: &[u64], k: usize) -> Vec<f64> {
    assert!(k > 0, "window length must be positive");
    let n = marks.len();
    let mut out = Vec::with_capacity(window_count(n, k));
    let mut prev = 0u64;
    let mut start = 0usize;
    while start < n {
        let end = (start + k).min(n);
        // Skip a trailing fragment unless it is the only window.
        if end - start < k && !out.is_empty() {
            break;
        }
        let mark = marks[end - 1];
        let dur = mark.saturating_sub(prev);
        let len = (end - start) as f64;
        out.push(if dur == 0 {
            THROUGHPUT_CAP
        } else {
            (len / dur as f64).min(THROUGHPUT_CAP)
        });
        prev = mark;
        start = end;
    }
    out
}

/// Per-window counts of instructions matching a predicate.
pub fn window_counts<F: Fn(usize) -> bool>(n: usize, k: usize, pred: F) -> Vec<u32> {
    assert!(k > 0, "window length must be positive");
    let mut out = Vec::with_capacity(window_count(n, k));
    let mut start = 0usize;
    while start < n {
        let end = (start + k).min(n);
        if end - start < k && !out.is_empty() {
            break;
        }
        out.push((start..end).filter(|&i| pred(i)).count() as u32);
        start = end;
    }
    out
}

/// Bandwidth-style throughput bound per window: `k / n_class × width`
/// (paper Eq. 6), capped.
pub fn bandwidth_bound(counts: &[u32], k: usize, width: u32) -> Vec<f64> {
    counts
        .iter()
        .map(|&c| {
            if c == 0 {
                THROUGHPUT_CAP
            } else {
                (k as f64 / f64::from(c) * f64::from(width)).min(THROUGHPUT_CAP)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq5_throughput() {
        // marks: instruction i commits at 2(i+1): throughput 0.5 everywhere.
        let marks: Vec<u64> = (1..=12).map(|i| 2 * i).collect();
        let thr = throughput_from_marks(&marks, 4);
        assert_eq!(thr.len(), 3);
        for t in thr {
            assert!((t - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_duration_windows_are_capped() {
        let marks = vec![5, 5, 5, 5, 5, 5, 5, 5];
        let thr = throughput_from_marks(&marks, 4);
        assert!((thr[0] - 0.8).abs() < 1e-12, "4 instructions over 5 cycles");
        assert_eq!(thr[1], THROUGHPUT_CAP, "second window has zero duration");
    }

    #[test]
    fn short_trace_single_window() {
        let marks = vec![1, 2, 3];
        let thr = throughput_from_marks(&marks, 400);
        assert_eq!(thr.len(), 1);
        assert!((thr[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trailing_fragment_dropped() {
        let marks: Vec<u64> = (1..=10).collect();
        let thr = throughput_from_marks(&marks, 4);
        assert_eq!(thr.len(), 2, "10 = 2 full windows of 4 + fragment");
    }

    #[test]
    fn counts_and_bandwidth() {
        let c = window_counts(8, 4, |i| i % 2 == 0);
        assert_eq!(c, vec![2, 2]);
        let b = bandwidth_bound(&c, 4, 3);
        assert!((b[0] - 6.0).abs() < 1e-12);
        let empty = bandwidth_bound(&[0], 4, 3);
        assert_eq!(empty[0], THROUGHPUT_CAP);
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn zero_k_rejected() {
        let _ = throughput_from_marks(&[1], 0);
    }
}
