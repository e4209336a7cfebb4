//! Runtime-aware synchronization primitives.
//!
//! Everything here is built from `parking_lot::Mutex` + the runtime's
//! [`Event`] cells with *re-check loops*, so the same code is correct on both
//! the virtual-time and wall-clock backends (events may wake spuriously via
//! broadcasts).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::runtime::{Event, Runtime};
use crate::task::{self, block_on};

/// Error returned by [`Channel`] operations once the channel is closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Closed;

impl std::fmt::Display for Closed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed")
    }
}
impl std::error::Error for Closed {}

struct ChannelInner<T> {
    q: Mutex<VecDeque<T>>,
    /// Set under the `q` lock, so `send` and `recv` see it in order with the
    /// items; `is_closed` reads it without the lock.
    closed: AtomicBool,
}

/// An unbounded MPMC FIFO channel whose blocking `recv` is runtime-aware.
///
/// This is the structure behind SEMPLAR's I/O queue (paper Fig. 2): the
/// compute thread enqueues I/O requests; I/O threads block on `recv` via a
/// condition-variable-style event instead of busy-waiting (paper §4.3).
pub struct Channel<T> {
    rt: Arc<dyn Runtime>,
    inner: Arc<ChannelInner<T>>,
    items: Event,
}

impl<T> Clone for Channel<T> {
    fn clone(&self) -> Self {
        Channel {
            rt: self.rt.clone(),
            inner: self.inner.clone(),
            items: self.items.clone(),
        }
    }
}

impl<T> Channel<T> {
    /// Create an empty channel bound to `rt`'s event mechanism.
    pub fn new(rt: &Arc<dyn Runtime>) -> Channel<T> {
        Channel {
            rt: rt.clone(),
            inner: Arc::new(ChannelInner {
                q: Mutex::new(VecDeque::new()),
                closed: AtomicBool::new(false),
            }),
            items: rt.event(),
        }
    }

    /// Enqueue an item, waking one blocked receiver.
    pub fn send(&self, v: T) -> Result<(), Closed> {
        {
            let mut q = self.inner.q.lock();
            if self.inner.closed.load(Ordering::Relaxed) {
                return Err(Closed);
            }
            q.push_back(v);
        }
        self.items.signal();
        Ok(())
    }

    /// Dequeue without blocking: `None` while the channel is open and empty.
    fn try_recv(&self) -> Option<Result<T, Closed>> {
        let mut q = self.inner.q.lock();
        match q.pop_front() {
            Some(v) => Some(Ok(v)),
            None => self
                .inner
                .closed
                .load(Ordering::Relaxed)
                .then_some(Err(Closed)),
        }
    }

    /// Dequeue, blocking until an item arrives or the channel closes empty.
    pub fn recv(&self) -> Result<T, Closed> {
        block_on(&self.rt, self.recv_async())
    }

    /// [`Channel::recv`] as an `async` wait, for a [`Task`](crate::Task).
    pub async fn recv_async(&self) -> Result<T, Closed> {
        loop {
            if let Some(r) = self.try_recv() {
                return r;
            }
            task::wait(&self.items).await;
        }
    }

    /// Close the channel: senders fail, receivers drain then see [`Closed`].
    pub fn close(&self) {
        let q = self.inner.q.lock();
        self.inner.closed.store(true, Ordering::Release);
        drop(q);
        self.items.notify_all();
        // Wake receivers that were blocked with no items pending.
        self.items.signal_n(64);
    }

    /// True once [`Channel::close`] has been called (queued items may still
    /// be drained by receivers).
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.inner.q.lock().len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A counting semaphore.
#[derive(Clone)]
pub struct Semaphore {
    rt: Arc<dyn Runtime>,
    ev: Event,
}

impl Semaphore {
    /// Create with `permits` initial permits.
    pub fn new(rt: &Arc<dyn Runtime>, permits: usize) -> Semaphore {
        let ev = rt.event();
        ev.signal_n(permits);
        Semaphore { rt: rt.clone(), ev }
    }

    /// Consume one permit, blocking until available.
    pub fn acquire(&self) {
        block_on(&self.rt, self.acquire_async());
    }

    /// [`Semaphore::acquire`] as an `async` wait, for a
    /// [`Task`](crate::Task): the permit is the task's once it resumes.
    pub async fn acquire_async(&self) {
        task::wait(&self.ev).await;
    }

    /// Release one permit.
    pub fn release(&self) {
        self.ev.signal();
    }
}

struct BarrierInner {
    arrived: usize,
    generation: u64,
    /// Event for the *current* generation; replaced by each leader so
    /// next-generation waiters can never steal this generation's permits.
    ev: Event,
}

/// A reusable N-party barrier (used for MPI_Barrier and phase alignment in
/// the benchmarks).
pub struct Barrier {
    n: usize,
    rt: Arc<dyn Runtime>,
    inner: Mutex<BarrierInner>,
}

impl Barrier {
    /// A barrier for `n` parties. `n` must be at least 1.
    pub fn new(rt: &Arc<dyn Runtime>, n: usize) -> Arc<Barrier> {
        assert!(n >= 1, "barrier needs at least one party");
        Arc::new(Barrier {
            n,
            rt: rt.clone(),
            inner: Mutex::new(BarrierInner {
                arrived: 0,
                generation: 0,
                ev: rt.event(),
            }),
        })
    }

    /// Block until all `n` parties have called `wait`. Returns `true` for
    /// exactly one "leader" party per generation.
    pub fn wait(&self) -> bool {
        let (gen0, ev) = {
            let mut g = self.inner.lock();
            g.arrived += 1;
            if g.arrived == self.n {
                g.arrived = 0;
                g.generation += 1;
                // Bank one permit per waiter of this generation on the OLD
                // event: a waiter that has not blocked yet still finds its
                // permit, so the wakeup cannot be lost.
                let old = std::mem::replace(&mut g.ev, self.rt.event());
                drop(g);
                old.signal_n(self.n - 1);
                return true;
            }
            (g.generation, g.ev.clone())
        };
        loop {
            if self.inner.lock().generation != gen0 {
                return false;
            }
            ev.wait();
        }
    }
}

/// A runtime-aware mutual-exclusion lock.
///
/// Unlike `parking_lot::Mutex`, blocking on an `RtMutex` goes through the
/// runtime's event mechanism, so the virtual-time engine knows the waiter is
/// blocked. **Rule of thumb for this codebase:** any lock that may be held
/// across a sleeping/transferring operation (e.g. a TCP connection busy with
/// an RTT-long request) must be an `RtMutex`; `parking_lot` locks are only
/// for short, non-blocking critical sections.
pub struct RtMutex<T> {
    sem: Semaphore,
    value: Mutex<T>,
}

impl<T> RtMutex<T> {
    /// Wrap `value` in a runtime-aware lock.
    pub fn new(rt: &Arc<dyn Runtime>, value: T) -> RtMutex<T> {
        RtMutex {
            sem: Semaphore::new(rt, 1),
            value: Mutex::new(value),
        }
    }

    /// Acquire the lock, blocking through the runtime.
    pub fn lock(&self) -> RtMutexGuard<'_, T> {
        self.sem.acquire();
        // The semaphore admits exactly one holder, so the inner lock is
        // always free here; it exists only to provide interior mutability.
        let inner = self
            .value
            .try_lock()
            .expect("RtMutex inner lock contended despite semaphore");
        RtMutexGuard {
            owner: self,
            inner: Some(inner),
        }
    }
}

/// RAII guard for [`RtMutex`]. Releases the lock on drop.
pub struct RtMutexGuard<'a, T> {
    owner: &'a RtMutex<T>,
    inner: Option<parking_lot::MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for RtMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard already released")
    }
}

impl<T> std::ops::DerefMut for RtMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard already released")
    }
}

impl<T> Drop for RtMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the inner lock before waking the next holder.
        self.inner = None;
        self.owner.sem.release();
    }
}

/// A write-once cell whose readers block until the value is published: the
/// one request handle of this system, behind SEMPLAR's `Request` (`MPIO_Wait`)
/// and every SRB reply (`SrbConn::submit`). A thread waits on it
/// ([`wait`](Self::wait)), a task awaits [`wait_async`](Self::wait_async).
pub struct OnceCellBlocking<T> {
    rt: Arc<dyn Runtime>,
    slot: Mutex<Option<T>>,
    ev: Event,
}

impl<T: Clone> OnceCellBlocking<T> {
    /// An empty cell.
    pub fn new(rt: &Arc<dyn Runtime>) -> Arc<OnceCellBlocking<T>> {
        Arc::new(OnceCellBlocking {
            rt: rt.clone(),
            slot: Mutex::new(None),
            ev: rt.event(),
        })
    }

    /// Publish the value. Panics if already set.
    pub fn set(&self, v: T) {
        let mut g = self.slot.lock();
        assert!(g.is_none(), "OnceCellBlocking set twice");
        *g = Some(v);
        drop(g);
        self.ev.notify_all();
        self.ev.signal();
    }

    /// Non-blocking read.
    pub fn get(&self) -> Option<T> {
        self.slot.lock().clone()
    }

    /// Block until the value is published, then return a clone.
    pub fn wait(&self) -> T {
        block_on(&self.rt, self.wait_async())
    }

    /// [`OnceCellBlocking::wait`] as an `async` wait, for a
    /// [`Task`](crate::Task).
    pub async fn wait_async(&self) -> T {
        loop {
            if let Some(v) = self.get() {
                // Cascade the permit so every other waiter wakes too.
                self.ev.signal();
                return v;
            }
            task::wait(&self.ev).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::spawn;
    use crate::sim::simulate;
    use crate::{Dur, RealRuntime};

    fn both_runtimes(test: impl Fn(Arc<dyn Runtime>) + Send + Sync + Clone + 'static) {
        test(RealRuntime::new().handle());
        let t2 = test.clone();
        simulate(t2);
    }

    #[test]
    fn channel_fifo_order() {
        both_runtimes(|rt| {
            let ch: Channel<u32> = Channel::new(&rt);
            for i in 0..10 {
                ch.send(i).unwrap();
            }
            for i in 0..10 {
                assert_eq!(ch.recv().unwrap(), i);
            }
        });
    }

    #[test]
    fn channel_blocking_recv() {
        both_runtimes(|rt| {
            let ch: Channel<&'static str> = Channel::new(&rt);
            let ch2 = ch.clone();
            let rt2 = rt.clone();
            let h = spawn(&rt, "producer", move || {
                rt2.sleep(Dur::from_millis(5));
                ch2.send("hello").unwrap();
            });
            assert_eq!(ch.recv().unwrap(), "hello");
            h.join_unwrap();
        });
    }

    #[test]
    fn channel_close_drains_then_errors() {
        both_runtimes(|rt| {
            let ch: Channel<u32> = Channel::new(&rt);
            ch.send(1).unwrap();
            ch.close();
            assert_eq!(ch.recv(), Ok(1));
            assert_eq!(ch.recv(), Err(Closed));
            assert_eq!(ch.send(2), Err(Closed));
        });
    }

    #[test]
    fn channel_many_producers_one_consumer() {
        both_runtimes(|rt| {
            let ch: Channel<u64> = Channel::new(&rt);
            let mut hs = Vec::new();
            for p in 0..4u64 {
                let ch2 = ch.clone();
                hs.push(spawn(&rt, &format!("p{p}"), move || {
                    for i in 0..25 {
                        ch2.send(p * 100 + i).unwrap();
                    }
                }));
            }
            let mut got = Vec::new();
            for _ in 0..100 {
                got.push(ch.recv().unwrap());
            }
            got.sort_unstable();
            let mut want: Vec<u64> = (0..4)
                .flat_map(|p| (0..25).map(move |i| p * 100 + i))
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
            for h in hs {
                h.join_unwrap();
            }
        });
    }

    #[test]
    fn barrier_synchronizes_parties() {
        both_runtimes(|rt| {
            let b = Barrier::new(&rt, 4);
            let hits = Arc::new(Mutex::new(0usize));
            let mut hs = Vec::new();
            for i in 0..4 {
                let b2 = b.clone();
                let hits2 = hits.clone();
                let rt2 = rt.clone();
                hs.push(spawn(&rt, &format!("b{i}"), move || {
                    rt2.sleep(Dur::from_millis(i as u64));
                    *hits2.lock() += 1;
                    b2.wait();
                    // After the barrier, all 4 increments must be visible.
                    assert_eq!(*hits2.lock(), 4);
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
        });
    }

    #[test]
    fn barrier_is_reusable() {
        both_runtimes(|rt| {
            let b = Barrier::new(&rt, 2);
            let b2 = b.clone();
            let h = spawn(&rt, "peer", move || {
                for _ in 0..5 {
                    b2.wait();
                }
            });
            let mut leader_count = 0;
            for _ in 0..5 {
                if b.wait() {
                    leader_count += 1;
                }
            }
            h.join_unwrap();
            assert!(leader_count <= 5);
        });
    }

    #[test]
    fn once_cell_blocks_until_set() {
        both_runtimes(|rt| {
            let c: Arc<OnceCellBlocking<u32>> = OnceCellBlocking::new(&rt);
            assert_eq!(c.get(), None);
            let c2 = c.clone();
            let rt2 = rt.clone();
            let h = spawn(&rt, "setter", move || {
                rt2.sleep(Dur::from_millis(2));
                c2.set(99);
            });
            assert_eq!(c.wait(), 99);
            assert_eq!(c.get(), Some(99));
            h.join_unwrap();
        });
    }

    #[test]
    fn rtmutex_serializes_engine_blocking_holders() {
        // The holder sleeps (engine-blocked) while holding the lock; a
        // parking_lot mutex here would wedge the virtual clock.
        both_runtimes(|rt| {
            let m = Arc::new(RtMutex::new(&rt, 0u32));
            let mut hs = Vec::new();
            for i in 0..4 {
                let m2 = m.clone();
                let rt2 = rt.clone();
                hs.push(spawn(&rt, &format!("h{i}"), move || {
                    let mut g = m2.lock();
                    let v = *g;
                    rt2.sleep(Dur::from_millis(2));
                    *g = v + 1; // no lost updates despite the sleep
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
            assert_eq!(*m.lock(), 4);
        });
    }

    #[test]
    fn semaphore_limits_concurrency() {
        both_runtimes(|rt| {
            let sem = Arc::new(Semaphore::new(&rt, 2));
            let active = Arc::new(Mutex::new((0usize, 0usize))); // (current, max)
            let mut hs = Vec::new();
            for i in 0..6 {
                let sem2 = sem.clone();
                let a2 = active.clone();
                let rt2 = rt.clone();
                hs.push(spawn(&rt, &format!("s{i}"), move || {
                    sem2.acquire();
                    {
                        let mut g = a2.lock();
                        g.0 += 1;
                        g.1 = g.1.max(g.0);
                    }
                    rt2.sleep(Dur::from_millis(1));
                    a2.lock().0 -= 1;
                    sem2.release();
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
            assert!(active.lock().1 <= 2, "semaphore admitted >2 at once");
        });
    }
}
