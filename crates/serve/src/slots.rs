//! Reusable response slots: the one reply channel between a submitted job
//! and its submitter.
//!
//! A [`SlotPool`] recycles a slab of `SlotInner`s: [`SlotPool::channel`]
//! pops a free index (no allocation when warm) and hands out one
//! [`SlotSender`], carried inside the job, and one [`SlotReceiver`], held
//! by the submitter. Dropping the receiver bumps the slot's **generation**
//! and returns it to the free list. A parked job can hold its sender
//! arbitrarily long: if the receiver has moved on, the generation no longer
//! matches and the late delivery is discarded instead of leaking into a
//! recycled request.
//!
//! A sender dropped without sending closes its generation, so the receiver
//! gets [`ServeError::Disconnected`] instead of waiting forever: a job the
//! engine loses unanswered still gets exactly one (error) reply.

use std::sync::{Arc, Condvar, Mutex};

use crate::protocol::PredictResponse;
use crate::service::ServeError;

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
    /// The generation's sender has sent or been dropped: once `msg` is
    /// taken, nothing more will arrive.
    closed: bool,
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
    /// Acquires a slot, growing the slab only when the free list is empty,
    /// and returns its one sender and its receiver.
    pub fn channel(self: &Arc<Self>) -> (SlotSender, SlotReceiver) {
        let (slot, idx) = {
            let mut p = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            match p.free.pop() {
                Some(idx) => (Arc::clone(&p.slots[idx as usize]), idx),
                None => {
                    let slot = Arc::new(SlotInner {
                        state: Mutex::new(SlotState {
                            gen: 0,
                            msg: None,
                            closed: false,
                        }),
                        cv: Condvar::new(),
                    });
                    p.slots.push(Arc::clone(&slot));
                    (slot, (p.slots.len() - 1) as u32)
                }
            }
        };
        let gen = slot.state.lock().unwrap_or_else(|e| e.into_inner()).gen;
        let tx = SlotSender {
            slot: Arc::clone(&slot),
            gen,
        };
        let rx = SlotReceiver {
            slot,
            idx,
            pool: Arc::clone(self),
        };
        (tx, rx)
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
    idx: u32,
    pool: Arc<SlotPool>,
}

impl SlotReceiver {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] when the job was dropped without an
    /// answer, or when its one answer has already been received.
    pub fn recv(&self) -> Result<PredictResponse, ServeError> {
        let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = st.msg.take() {
                return Ok(r);
            }
            if st.closed {
                return Err(ServeError::Disconnected);
            }
            st = self.slot.cv.wait(st).unwrap_or_else(|e| e.into_inner());
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
            st.closed = false;
        }
        self.pool
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .free
            .push(self.idx);
    }
}

/// Sending half of a slot, carried inside a queued or parked job.
/// Deliveries against a retired generation are silently dropped; dropping
/// the sender unsent answers the receiver with
/// [`ServeError::Disconnected`].
#[derive(Debug)]
pub struct SlotSender {
    slot: Arc<SlotInner>,
    gen: u64,
}

impl SlotSender {
    /// Delivers `resp` unless the receiver has already released the slot.
    /// The service answers each request once, so a generation receives at
    /// most one response.
    pub fn send(&self, resp: PredictResponse) {
        self.close(Some(resp));
    }

    /// Closes this generation with `resp` as its one message, unless it is
    /// already closed or retired.
    fn close(&self, resp: Option<PredictResponse>) {
        let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.gen == self.gen && !st.closed {
            st.msg = resp;
            st.closed = true;
            self.slot.cv.notify_all();
        }
    }
}

impl Drop for SlotSender {
    fn drop(&mut self) {
        self.close(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_then_ignores_a_late_sender_and_recycles() {
        let pool = Arc::new(SlotPool::default());
        let (tx, rx) = pool.channel();
        tx.send(PredictResponse::ok(1, 1.0, false, 5));
        assert_eq!(rx.recv().unwrap().cpi, Some(1.0));
        // One answer per request: the next receive reports the closed slot.
        assert_eq!(rx.recv().unwrap_err(), ServeError::Disconnected);
        drop(rx);
        // A sender that outlives its receiver delivers into a retired
        // generation: a no-op, even before the slot is handed out again.
        tx.send(PredictResponse::ok(1, 2.0, false, 9));
        // Same slab slot is reused, and the late delivery is not in it.
        let (_tx2, rx2) = pool.channel();
        assert_eq!(pool.capacity(), 1);
        assert!(rx2.try_recv().is_none(), "late delivery must not leak");
    }

    #[test]
    fn stale_generation_is_dropped() {
        let pool = Arc::new(SlotPool::default());
        let (stale, rx) = pool.channel();
        drop(rx); // retire the generation
        let (fresh, rx2) = pool.channel(); // recycles the same slot
        stale.send(PredictResponse::ok(7, 1.0, false, 1));
        assert!(rx2.try_recv().is_none(), "stale delivery must not leak");
        fresh.send(PredictResponse::ok(8, 2.0, false, 1));
        assert_eq!(rx2.recv().unwrap().id, 8);
    }

    #[test]
    fn dropped_sender_disconnects_its_receiver_only() {
        let pool = Arc::new(SlotPool::default());
        let (stale, rx) = pool.channel();
        drop(rx);
        let (tx, rx) = pool.channel();
        // An unsent stale sender leaves the recycled slot open…
        drop(stale);
        assert!(rx.try_recv().is_none());
        // …while this generation's unsent sender answers its receiver,
        // blocked or not, with the disconnect error.
        let h = std::thread::spawn(move || drop(tx));
        assert_eq!(rx.recv().unwrap_err(), ServeError::Disconnected);
        h.join().unwrap();
    }

    #[test]
    fn cross_thread_wakeup() {
        let pool = Arc::new(SlotPool::default());
        let (tx, rx) = pool.channel();
        let h = std::thread::spawn(move || tx.send(PredictResponse::ok(9, 0.5, false, 1)));
        assert_eq!(rx.recv().unwrap().id, 9);
        h.join().unwrap();
    }
}
