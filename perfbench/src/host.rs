//! Host clocks and noise diagnostics: process CPU time, host steal time and
//! the core count.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed so far by every thread of this process,
/// at nanosecond resolution.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark builds for), and the clock
    // id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Host-wide steal time so far, in seconds, from the `cpu` line of
/// `/proc/stat` (eighth value, in `USER_HZ` = 100 ticks per second). `None`
/// where the file is missing or malformed.
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Process CPU and host steal at one instant; differences between two
/// samples give the diagnostics printed next to each run.
#[derive(Clone, Copy)]
pub struct HostSample {
    cpu: Duration,
    steal: Option<f64>,
}

impl HostSample {
    /// Samples both clocks now.
    pub fn now() -> Self {
        HostSample {
            cpu: process_cpu(),
            steal: steal_seconds(),
        }
    }

    /// `(process CPU seconds, host steal seconds)` elapsed since `earlier`.
    pub fn since(&self, earlier: &HostSample) -> (f64, f64) {
        let cpu = self.cpu.saturating_sub(earlier.cpu).as_secs_f64();
        let steal = match (self.steal, earlier.steal) {
            (Some(a), Some(b)) => (a - b).max(0.0),
            _ => 0.0,
        };
        (cpu, steal)
    }
}
