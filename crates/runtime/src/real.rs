//! The wall-clock [`Runtime`] backend.
//!
//! Semantics mirror [`SimRuntime`](crate::SimRuntime) — same [`Event`]
//! contract, same join behaviour — but time is real: `sleep` parks the OS
//! thread and `now` reads a monotonic clock. Unit tests and the runnable
//! examples use this backend; the WAN-scale experiments use virtual time.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::runtime::{Event, EventApi, JoinHandle, Runtime, Wake};
use crate::task::{TaskCell, TaskCtx, TaskStep, Waker, WakerKind};
use crate::time::{Dur, Time};

/// Wall-clock runtime. `now()` is measured from construction.
pub struct RealRuntime {
    start: Instant,
}

impl Default for RealRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl RealRuntime {
    /// Create a runtime whose clock starts at [`Time::ZERO`] now.
    pub fn new() -> RealRuntime {
        RealRuntime {
            start: Instant::now(),
        }
    }

    /// A shareable `Arc<dyn Runtime>` handle.
    pub fn handle(&self) -> Arc<dyn Runtime> {
        Arc::new(RealRuntime { start: self.start })
    }
}

impl Runtime for RealRuntime {
    fn now(&self) -> Time {
        Time(self.start.elapsed().as_nanos() as u64)
    }

    fn sleep(&self, d: Dur) {
        if d.is_zero() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_nanos(d.as_nanos()));
    }

    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send + 'static>) -> JoinHandle {
        let done: Event = self.event();
        let (mut handle, exit) = JoinHandle::new(done);
        let t = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(f));
                exit.finish(r.err());
            })
            .expect("spawn thread");
        handle.set_thread(t);
        handle
    }

    /// A task is a loop on a thread of its own: poll, then sleep or wait on
    /// the event its [`Waker`] signals, which also cuts a sleep short — or
    /// on the event the task itself names.
    fn spawn_task(&self, mut cell: TaskCell) {
        let mut task = cell.task.take().expect("a fresh cell holds its task");
        let (rt, wake, name) = (self.handle(), self.event(), cell.label());
        let mut waited = None;
        let poll_loop = move || loop {
            let waker = Waker(WakerKind::Real(wake.clone()));
            let now = rt.now();
            let step = task.poll(&mut TaskCtx {
                rt: &rt,
                now,
                waker,
                wake: waited.take(),
            });
            match step {
                TaskStep::Sleep(d) => drop(wake.wait_timeout(d)),
                TaskStep::Park => wake.wait(),
                TaskStep::Done => return,
                wait @ TaskStep::Wait(..) => waited = wait.block(&rt),
            }
        };
        // Joiners are released when the loop ends, by `Done` or by a panic.
        let run = move || {
            let r = catch_unwind(AssertUnwindSafe(poll_loop));
            cell.finish();
            r.unwrap_or_else(|p| resume_unwind(p));
        };
        self.spawn(&name, Box::new(run));
    }

    fn event(&self) -> Event {
        Arc::new(RealEvent {
            inner: Mutex::new(RealEventInner {
                permits: 0,
                waiters: 0,
                broadcast_gen: 0,
            }),
            cond: Condvar::new(),
        })
    }
}

struct RealEventInner {
    permits: usize,
    waiters: usize,
    /// Incremented on every `notify_all`; waiters that observe a change
    /// return as signaled even without a permit (matching the sim contract
    /// that broadcasts release current waiters without banking permits).
    broadcast_gen: u64,
}

struct RealEvent {
    inner: Mutex<RealEventInner>,
    cond: Condvar,
}

impl EventApi for RealEvent {
    fn wait(&self) {
        let mut g = self.inner.lock();
        let gen0 = g.broadcast_gen;
        g.waiters += 1;
        loop {
            if g.permits > 0 {
                g.permits -= 1;
                break;
            }
            if g.broadcast_gen != gen0 {
                break;
            }
            self.cond.wait(&mut g);
        }
        g.waiters -= 1;
    }

    fn wait_timeout(&self, d: Dur) -> Wake {
        let deadline = Instant::now()
            + std::time::Duration::from_nanos(d.as_nanos().min(
                // Cap so `Instant + Duration` cannot overflow on any platform.
                60 * 60 * 24 * 365 * 1_000_000_000,
            ));
        let mut g = self.inner.lock();
        let gen0 = g.broadcast_gen;
        g.waiters += 1;
        let wake = loop {
            if g.permits > 0 {
                g.permits -= 1;
                break Wake::Signaled;
            }
            if g.broadcast_gen != gen0 {
                break Wake::Signaled;
            }
            if self.cond.wait_until(&mut g, deadline).timed_out() {
                // One final re-check: a signal may have raced the timeout.
                if g.permits > 0 {
                    g.permits -= 1;
                    break Wake::Signaled;
                }
                break Wake::Timeout;
            }
        };
        g.waiters -= 1;
        wake
    }

    fn signal(&self) {
        let mut g = self.inner.lock();
        g.permits += 1;
        drop(g);
        self.cond.notify_one();
    }

    fn notify_all(&self) {
        let mut g = self.inner.lock();
        g.broadcast_gen += 1;
        drop(g);
        self.cond.notify_all();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::spawn;
    use std::sync::atomic::{AtomicUsize, Ordering as AO};

    #[test]
    fn now_is_monotonic() {
        let rt = RealRuntime::new();
        let a = rt.now();
        let b = rt.now();
        assert!(b >= a);
    }

    #[test]
    fn sleep_passes_wall_time() {
        let rt = RealRuntime::new();
        let a = rt.now();
        rt.sleep(Dur::from_millis(20));
        assert!(rt.now() - a >= Dur::from_millis(15));
    }

    #[test]
    fn event_roundtrip() {
        let rt: Arc<dyn Runtime> = RealRuntime::new().handle();
        let ev = rt.event();
        let ev2 = ev.clone();
        let h = spawn(&rt, "w", move || {
            ev2.wait();
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        ev.signal();
        h.join_unwrap();
    }

    #[test]
    fn wait_timeout_expires() {
        let rt = RealRuntime::new();
        let ev = rt.event();
        assert_eq!(ev.wait_timeout(Dur::from_millis(10)), Wake::Timeout);
        ev.signal();
        assert_eq!(ev.wait_timeout(Dur::from_millis(10)), Wake::Signaled);
    }

    #[test]
    fn notify_all_releases_waiters() {
        let rt: Arc<dyn Runtime> = RealRuntime::new().handle();
        let ev = rt.event();
        let n = Arc::new(AtomicUsize::new(0));
        let mut hs = Vec::new();
        for _ in 0..4 {
            let ev2 = ev.clone();
            let n2 = n.clone();
            hs.push(spawn(&rt, "w", move || {
                ev2.wait();
                n2.fetch_add(1, AO::SeqCst);
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        ev.notify_all();
        for h in hs {
            h.join_unwrap();
        }
        assert_eq!(n.load(AO::SeqCst), 4);
    }

    #[test]
    fn join_propagates_panics() {
        let rt: Arc<dyn Runtime> = RealRuntime::new().handle();
        let h = spawn(&rt, "p", || panic!("real-boom"));
        assert!(h.join().is_err());
    }
}
