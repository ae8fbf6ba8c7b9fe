//! Reusable response slots: the warm path's replacement for per-request
//! `mpsc::channel()` pairs.
//!
//! `submit()` used to allocate a fresh mpsc channel (sender + receiver +
//! internal queue) for every request. A [`SlotPool`] instead recycles a slab
//! of [`SlotInner`]s: acquiring a slot pops a free index (no allocation when
//! warm), the worker delivers through an [`SlotSender`], and dropping the
//! [`SlotReceiver`] bumps the slot's **generation** and returns it to the
//! free list. A parked job can hold its sender arbitrarily long: if the
//! receiver has moved on, the generation no longer matches and the late
//! delivery is discarded instead of leaking into a recycled request. The
//! legacy mpsc path stays available as a compatibility shim via
//! [`crate::service::ResponseTx`].

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::PredictResponse;

/// One response slot: a generation-tagged mailbox holding at most one
/// response per generation, so warm deliveries never allocate.
#[derive(Debug)]
struct SlotInner {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Debug)]
struct SlotState {
    /// Bumped every time the receiver releases the slot; senders carrying a
    /// stale generation are ignored.
    gen: u64,
    msg: Option<PredictResponse>,
}

/// A recycling slab of response slots. One per service.
#[derive(Debug, Default)]
pub struct SlotPool {
    inner: Mutex<PoolInner>,
}

#[derive(Debug, Default)]
struct PoolInner {
    slots: Vec<Arc<SlotInner>>,
    free: Vec<u32>,
}

impl SlotPool {
    /// Acquires a slot, growing the slab only when the free list is empty.
    pub fn acquire(self: &Arc<Self>) -> SlotReceiver {
        let (slot, idx) = {
            let mut p = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            match p.free.pop() {
                Some(idx) => (Arc::clone(&p.slots[idx as usize]), idx),
                None => {
                    let slot = Arc::new(SlotInner {
                        state: Mutex::new(SlotState { gen: 0, msg: None }),
                        cv: Condvar::new(),
                    });
                    p.slots.push(Arc::clone(&slot));
                    (slot, (p.slots.len() - 1) as u32)
                }
            }
        };
        let gen = slot.state.lock().unwrap_or_else(|e| e.into_inner()).gen;
        SlotReceiver {
            slot,
            gen,
            idx,
            pool: Arc::clone(self),
        }
    }

    /// Slots currently live (acquired at least once).
    pub fn capacity(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .slots
            .len()
    }
}

/// Receiving half of a slot, held by the submitter. Dropping it retires the
/// generation and recycles the slot.
#[derive(Debug)]
pub struct SlotReceiver {
    slot: Arc<SlotInner>,
    gen: u64,
    idx: u32,
    pool: Arc<SlotPool>,
}

impl SlotReceiver {
    /// A sender delivering into this slot's current generation.
    pub fn sender(&self) -> SlotSender {
        SlotSender {
            slot: Arc::clone(&self.slot),
            gen: self.gen,
        }
    }

    /// Blocks until a response is delivered.
    pub fn recv(&self) -> PredictResponse {
        let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = st.msg.take() {
                return r;
            }
            st = self.slot.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks until a response is delivered or `timeout` elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<PredictResponse> {
        let deadline = Instant::now() + timeout;
        let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = st.msg.take() {
                return Some(r);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .slot
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = g;
        }
    }

    /// A response if one is already waiting (non-blocking).
    pub fn try_recv(&self) -> Option<PredictResponse> {
        self.slot
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .msg
            .take()
    }
}

impl Drop for SlotReceiver {
    fn drop(&mut self) {
        {
            let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
            // Retire this generation: any sender still holding it becomes a
            // no-op, and a leftover response never leaks into the next
            // request.
            st.gen = st.gen.wrapping_add(1);
            st.msg = None;
        }
        self.pool
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .free
            .push(self.idx);
    }
}

/// Sending half of a slot, carried inside a queued/parked job. Cloneable;
/// deliveries against a retired generation are silently dropped (the same
/// contract as sending on a closed mpsc channel).
#[derive(Debug, Clone)]
pub struct SlotSender {
    slot: Arc<SlotInner>,
    gen: u64,
}

impl SlotSender {
    /// Delivers `resp` unless the receiver has already released the slot.
    /// The service answers each request once, so a generation receives at
    /// most one response.
    pub fn send(&self, resp: PredictResponse) {
        let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.gen == self.gen {
            st.msg = Some(resp);
            self.slot.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_then_ignores_a_late_sender_and_recycles() {
        let pool = Arc::new(SlotPool::default());
        let rx = pool.acquire();
        let tx = rx.sender();
        tx.send(PredictResponse::ok(1, 1.0, false, 5));
        assert_eq!(rx.recv().cpi, Some(1.0));
        drop(rx);
        // A sender that outlives its receiver delivers into a retired
        // generation: a no-op, even before the slot is handed out again.
        tx.send(PredictResponse::ok(1, 2.0, false, 9));
        // Same slab slot is reused, and the late delivery is not in it.
        let rx2 = pool.acquire();
        assert_eq!(pool.capacity(), 1);
        assert!(rx2.try_recv().is_none(), "late delivery must not leak");
        drop(rx2);
    }

    #[test]
    fn stale_generation_is_dropped() {
        let pool = Arc::new(SlotPool::default());
        let rx = pool.acquire();
        let stale = rx.sender();
        drop(rx); // retire the generation
        let rx2 = pool.acquire(); // recycles the same slot
        stale.send(PredictResponse::ok(7, 1.0, false, 1));
        assert!(rx2.try_recv().is_none(), "stale delivery must not leak");
        let fresh = rx2.sender();
        fresh.send(PredictResponse::ok(8, 2.0, false, 1));
        assert_eq!(rx2.recv().id, 8);
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let pool = Arc::new(SlotPool::default());
        let rx = pool.acquire();
        assert!(rx.recv_timeout(Duration::from_millis(5)).is_none());
        let tx = rx.sender();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(PredictResponse::ok(3, 1.5, true, 2));
        });
        let got = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(got.id, 3);
        h.join().unwrap();
    }

    #[test]
    fn cross_thread_wakeup() {
        let pool = Arc::new(SlotPool::default());
        let rx = pool.acquire();
        let tx = rx.sender();
        let h = std::thread::spawn(move || tx.send(PredictResponse::ok(9, 0.5, false, 1)));
        assert_eq!(rx.recv().id, 9);
        h.join().unwrap();
    }
}
