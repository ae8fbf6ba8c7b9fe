//! The trace-driven memory state machine of paper Algorithm 1.
//!
//! Corrects the naïve in-order latency estimates with two ordering principles:
//!
//! 1. the response cycle for consecutive loads to the same cache line is
//!    non-decreasing (a later load cannot complete before the fill an earlier
//!    load started);
//! 2. the access *levels* of loads to the same line are determined by their
//!    issue order, not program order (the queue of per-line latencies from
//!    the in-order simulation is consumed in `RespCycle`-call order).
//!
//! Callers must invoke [`MemoryModel::resp_cycle`] in non-decreasing request
//! order per cache line; the ROB/queue models guarantee this globally by
//! executing instructions in start-time order (paper footnote 3).
//!
//! The per-line state lives in a flat array indexed by the dense load-line
//! ids that [`analyze_static`](crate::trace_analysis::analyze_static) assigns
//! ([`TraceInfo::load_line`]), and a line's latency queue is read through
//! [`TraceInfo::line_loads`]: the k-th latency of a line is the in-order
//! estimate of the k-th load to it in program order. Nothing is hashed per
//! access. This pairing is only meaningful when the [`TraceInfo`] and the
//! [`DataLatencies`] come from the same instructions (`analyze_static` and
//! `analyze_data` over one region).

use crate::trace_analysis::{DataLatencies, TraceInfo};

/// Per-line state of Algorithm 1.
#[derive(Debug, Clone, Copy, Default)]
struct LineState {
    access_counter: usize,
    last_req_cycle: u64,
    last_resp_cycle: u64,
}

/// Algorithm 1's state machine. One instance serves one model run (the
/// per-line access counters are consumed as loads execute).
#[derive(Debug)]
pub struct MemoryModel<'a> {
    info: &'a TraceInfo,
    latencies: &'a DataLatencies,
    lines: Vec<LineState>,
}

impl<'a> MemoryModel<'a> {
    /// Creates a fresh state machine over the in-order latency estimates.
    ///
    /// `info` and `latencies` must describe the same instructions
    /// (`analyze_static` and `analyze_data` over one region).
    ///
    /// # Panics
    ///
    /// Panics if the two disagree on the instruction count.
    pub fn new(info: &'a TraceInfo, latencies: &'a DataLatencies) -> Self {
        assert_eq!(
            info.len(),
            latencies.exec_latency.len(),
            "TraceInfo and DataLatencies must come from the same instructions"
        );
        MemoryModel {
            info,
            latencies,
            lines: vec![LineState::default(); info.load_lines()],
        }
    }

    /// Returns the execution-completion cycle for instruction `idx` issued at
    /// `req_cycle` (paper Algorithm 1, `RespCycle`).
    ///
    /// `is_load` selects the adjusted path, and requires `idx` to be a load;
    /// non-loads simply add their estimated execution time.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if requests to the same cache line arrive with
    /// decreasing request cycles (the algorithm's precondition).
    pub fn resp_cycle(&mut self, req_cycle: u64, idx: usize, is_load: bool) -> u64 {
        let exec_latency = &self.latencies.exec_latency;
        if !is_load {
            return req_cycle + u64::from(exec_latency[idx]);
        }
        let line = self.info.load_line[idx];
        let st = &mut self.lines[line as usize];
        debug_assert!(
            req_cycle >= st.last_req_cycle,
            "requests to load line {line} must be non-decreasing ({req_cycle} < {})",
            st.last_req_cycle
        );
        st.last_req_cycle = req_cycle;
        // Consume latencies in issue order (principle 2). If the model issues
        // more loads to a line than the in-order simulation observed (cannot
        // happen when built from the same trace), fall back to the last one.
        let loads = self.info.loads_on_line(line);
        let k = st.access_counter.min(loads.len() - 1);
        let exec = u64::from(exec_latency[loads[k] as usize]);
        st.access_counter += 1;
        // Non-decreasing response (principle 1).
        let resp = (req_cycle + exec).max(st.last_resp_cycle);
        st.last_resp_cycle = resp;
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_analysis::analyze_static;
    use concorde_trace::{Instruction, OpClass, LINE_BYTES};

    /// A region of loads to the given data lines (`None` = a non-memory
    /// instruction), with hand-set in-order latency estimates.
    fn region(lines: &[Option<u64>], exec: Vec<u32>) -> (TraceInfo, DataLatencies) {
        let instrs: Vec<Instruction> = lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                let pc = 4 * i as u64;
                match line {
                    Some(l) => Instruction::load(pc, l * LINE_BYTES + 8, [None; 2], None),
                    None => Instruction::compute(pc, OpClass::IntAlu, [None; 2], None),
                }
            })
            .collect();
        (
            analyze_static(&instrs),
            DataLatencies { exec_latency: exec },
        )
    }

    #[test]
    fn paper_example_merged_fill() {
        // Two loads to the same line; in-order sim said RAM (200) then L1 (4).
        // Issued at cycles 0 and 1: both must complete no earlier than the fill.
        let (info, d) = region(&[Some(7), Some(7)], vec![200, 4]);
        let mut m = MemoryModel::new(&info, &d);
        let r0 = m.resp_cycle(0, 0, true);
        let r1 = m.resp_cycle(1, 1, true);
        assert_eq!(r0, 200);
        assert_eq!(r1, 200, "second load waits for the in-flight fill");
    }

    #[test]
    fn issue_order_determines_levels() {
        // Same two loads, issued in reverse program order: the first issuer
        // pays the miss, the second (later) gets the hit but still respects
        // the non-decreasing response rule.
        let (info, d) = region(&[Some(7), Some(7)], vec![200, 4]);
        let mut m = MemoryModel::new(&info, &d);
        // Program-order instruction 1 issues first at cycle 0.
        let r1 = m.resp_cycle(0, 1, true);
        // Program-order instruction 0 issues at cycle 5.
        let r0 = m.resp_cycle(5, 0, true);
        assert_eq!(r1, 200, "first issuer takes the miss latency");
        assert_eq!(r0, 200, "hit completes at 9 but is clamped to the fill");
    }

    #[test]
    fn distinct_lines_are_independent() {
        let (info, d) = region(&[Some(1), Some(2)], vec![200, 10]);
        let mut m = MemoryModel::new(&info, &d);
        assert_eq!(m.resp_cycle(0, 0, true), 200);
        assert_eq!(m.resp_cycle(0, 1, true), 10);
    }

    #[test]
    fn non_loads_pass_through() {
        let (info, d) = region(&[None, None], vec![3, 18]);
        let mut m = MemoryModel::new(&info, &d);
        assert_eq!(m.resp_cycle(10, 0, false), 13);
        assert_eq!(m.resp_cycle(2, 1, false), 20);
    }

    #[test]
    fn responses_non_decreasing_under_spaced_requests() {
        let (info, d) = region(&[Some(3); 4], vec![200, 4, 4, 4]);
        let mut m = MemoryModel::new(&info, &d);
        let mut prev = 0;
        for (i, req) in [0u64, 50, 120, 300].iter().enumerate() {
            let r = m.resp_cycle(*req, i, true);
            assert!(r >= prev, "resp {r} < prev {prev}");
            prev = r;
        }
        // The last request at 300 is past the fill: completes as an L1 hit.
        assert_eq!(prev, 304);
    }
}
