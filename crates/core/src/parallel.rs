//! Tiny deterministic parallel-map used across the crate's compute paths.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..n)` across `threads` workers, the calling thread and
/// `threads - 1` scoped threads (work-stealing by atomic counter); falls
/// back to a serial loop for one thread or tiny `n`. Output
/// order is by index, so results are deterministic regardless of scheduling.
pub fn parallel_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, threads: usize, f: F) -> Vec<T> {
    parallel_map_with(n, threads, || (), |_, i| f(i))
}

/// [`parallel_map`] where each worker makes one state with `init` and hands
/// it to every task it runs, so tasks can reuse working memory. `f` must
/// not let its result depend on what the state held before.
pub fn parallel_map_with<S, T: Send, I: Fn() -> S + Sync, F: Fn(&mut S, usize) -> T + Sync>(
    n: usize,
    threads: usize,
    init: I,
    f: F,
) -> Vec<T> {
    let threads = threads.min(n);
    if threads <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || {
        let mut state = init();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let out = f(&mut state, i);
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("all tasks completed")
        })
        .collect()
}

/// `parallel_map` over all available cores.
pub fn parallel_map_all<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    parallel_map(n, threads, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_ordered_for_any_thread_count() {
        let want: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [1, 2, 4, 9] {
            assert_eq!(parallel_map(100, threads, |i| i * i), want);
        }
        assert_eq!(parallel_map_all(100, |i| i * i), want);
    }

    #[test]
    fn each_worker_keeps_its_state() {
        // Each task sees how many tasks its worker has run, itself included.
        let count = |ran: &mut usize, _| {
            *ran += 1;
            *ran
        };
        let serial = parallel_map_with(50, 1, || 0usize, count);
        assert_eq!(serial, (1..=50).collect::<Vec<_>>());
        let seen = parallel_map_with(50, 3, || 0usize, count);
        // Every worker counts 1, 2, 3, …, so a count m appears no more
        // often than m - 1 does, and 1 appears once per worker that ran.
        let times = |m: usize| seen.iter().filter(|&&r| r == m).count();
        assert!((1..=3).contains(&times(1)), "{seen:?}");
        for m in 2..=50 {
            assert!(times(m) <= times(m - 1), "{seen:?}");
        }
    }

    #[test]
    fn empty_and_oversubscribed() {
        assert_eq!(parallel_map(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(3, 64, |i| i), vec![0, 1, 2]);
    }
}
