//! Load-queue and store-queue analytical models (paper §3.2.1).
//!
//! Identical to the ROB model except that (i) only the queue's instruction
//! kind occupies entries and (ii) there are no dependency constraints — an
//! operation starts as soon as it obtains a slot. Non-queue instructions are
//! free and incur no latency. Because `s_i = a_i = c_{i-Q}` is non-decreasing,
//! the recurrence runs as a simple sequential loop and Algorithm 1's
//! non-decreasing-request precondition holds trivially.

use crate::memory_model::MemoryModel;
use crate::trace_analysis::{DataLatencies, TraceInfo};

/// Which queue to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Load queue (uses Algorithm 1's adjusted load latencies).
    Load,
    /// Store queue (stores have fixed latency).
    Store,
}

/// Runs the queue model; returns per-*instruction* commit marks: entry `i` is
/// the commit cycle of the latest queue operation at or before instruction
/// `i` (0 until the first queue op), ready for window throughput (Eq. 5).
///
/// # Panics
///
/// Panics if `size == 0`.
pub fn queue_model(info: &TraceInfo, data: &DataLatencies, size: u32, kind: QueueKind) -> Vec<u64> {
    assert!(size >= 1, "queue size must be at least 1");
    let n = info.len();
    let q = size as usize;
    let mut mem = MemoryModel::new(info, data);
    // Ring buffer of the last `q` queue-op commit cycles.
    let mut ring: Vec<u64> = vec![0; q];
    let mut qcount = 0usize;
    let mut last_c = 0u64;
    let mut marks = Vec::with_capacity(n);

    for i in 0..n {
        let is_kind = match kind {
            QueueKind::Load => info.ops[i].is_load(),
            QueueKind::Store => info.ops[i].is_store(),
        };
        if is_kind {
            let a = if qcount >= q { ring[qcount % q] } else { 0 };
            let s = a;
            let f = mem.resp_cycle(s, i, kind == QueueKind::Load);
            let c = f.max(last_c);
            ring[qcount % q] = c;
            qcount += 1;
            last_c = c;
        }
        marks.push(last_c);
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_analysis::{analyze_data, analyze_static};
    use crate::window::throughput_from_marks;
    use concorde_cache::MemConfig;
    use concorde_trace::{by_id, generate_region};

    fn setup(id: &str, n: usize) -> (TraceInfo, DataLatencies) {
        let t = generate_region(&by_id(id).unwrap(), 0, 0, n).instrs;
        (
            analyze_static(&t),
            analyze_data(&[], &t, MemConfig::default()),
        )
    }

    #[test]
    fn marks_are_monotone_and_full_length() {
        let (info, data) = setup("P11", 6000);
        for kind in [QueueKind::Load, QueueKind::Store] {
            let m = queue_model(&info, &data, 12, kind);
            assert_eq!(m.len(), info.len());
            for w in m.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn bigger_queue_never_decreases_throughput() {
        let (info, data) = setup("S1", 8000);
        let mut prev = 0.0;
        for q in [1u32, 2, 4, 8, 16, 64, 256] {
            let m = queue_model(&info, &data, q, QueueKind::Load);
            let total = *m.last().unwrap();
            let thr = info.len() as f64 / total.max(1) as f64;
            assert!(thr >= prev - 1e-9, "LQ {q}: {thr} < {prev}");
            prev = thr;
        }
    }

    #[test]
    fn lq1_serializes_loads() {
        let (info, data) = setup("S1", 4000);
        let m = queue_model(&info, &data, 1, QueueKind::Load);
        // With one slot, each load waits for the previous commit: the total
        // time is at least the sum of a RAM-latency fraction of loads.
        let loads = info.ops.iter().filter(|o| o.is_load()).count() as u64;
        let total = *m.last().unwrap();
        assert!(
            total >= loads * 4,
            "serial loads must cost at least L1 each"
        );
    }

    #[test]
    fn load_queue_ignores_non_loads() {
        let (info, data) = setup("O1", 4000);
        let m256 = queue_model(&info, &data, 256, QueueKind::Load);
        // Huge queue: every load starts at cycle 0; marks equal the max of
        // per-line adjusted latencies seen so far, far below a serial sum.
        let total = *m256.last().unwrap();
        let m1 = queue_model(&info, &data, 1, QueueKind::Load);
        assert!(total < *m1.last().unwrap());
    }

    #[test]
    fn store_queue_uses_fixed_latency() {
        let (info, data) = setup("P4", 4000); // store-heavy
        let m = queue_model(&info, &data, 1, QueueKind::Store);
        let stores = info.ops.iter().filter(|o| o.is_store()).count() as u64;
        let total = *m.last().unwrap();
        // Each store costs its fixed latency (1 cycle) serially at SQ=1.
        assert_eq!(total, stores);
    }

    #[test]
    fn window_throughput_bounds_behave() {
        let (info, data) = setup("P11", 8000);
        let small = queue_model(&info, &data, 4, QueueKind::Load);
        let big = queue_model(&info, &data, 256, QueueKind::Load);
        let ts: f64 = throughput_from_marks(&small, 256).iter().sum();
        let tb: f64 = throughput_from_marks(&big, 256).iter().sum();
        assert!(
            tb >= ts,
            "bigger LQ window bounds must not shrink: {tb} vs {ts}"
        );
    }
}
