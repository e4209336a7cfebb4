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

use crate::runtime::{Alarm, AlarmApi, Event, EventApi, JoinHandle, Runtime, Wake};
use crate::task::{TaskCell, TaskCtx, TaskStep};
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

    /// A task is a loop on a thread of its own: poll, then block the thread
    /// as the step says.
    fn spawn_task(&self, mut cell: TaskCell) {
        let (mut task, rt) = cell.task.take().expect("a fresh cell holds its task");
        let name = cell.label();
        let mut wake = None;
        let poll_loop = move || loop {
            let now = rt.now();
            match task.poll(&mut TaskCtx { rt: &rt, now, wake }) {
                TaskStep::Done => return,
                step => wake = step.block(&rt),
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

    /// The alarm's first `set` starts a thread that sleeps until the instant
    /// it is aimed at; the thread ends when the alarm is dropped.
    fn alarm(&self) -> Alarm {
        Box::new(RealAlarm {
            start: self.start,
            shared: Arc::new((Mutex::new(AlarmState::default()), Condvar::new())),
        })
    }

    fn event(&self) -> Event {
        Arc::new(RealEvent {
            inner: Mutex::new(RealEventInner {
                permits: 0,
                broadcast_gen: 0,
            }),
            cond: Condvar::new(),
        })
    }
}

#[derive(Default)]
struct AlarmState {
    /// What the alarm is aimed at, until it fires or is cleared.
    target: Option<(Time, Event)>,
    /// The timer thread has been started.
    running: bool,
    /// The alarm was dropped: the timer thread returns.
    dropped: bool,
}

type AlarmShared = Arc<(Mutex<AlarmState>, Condvar)>;

struct RealAlarm {
    start: Instant,
    shared: AlarmShared,
}

impl RealAlarm {
    /// The timer thread: wait for the target's instant, re-reading the
    /// target whenever `set`, `clear` or the drop wakes it.
    fn run(start: Instant, shared: AlarmShared) {
        let (state, cond) = &*shared;
        let mut g = state.lock();
        while !g.dropped {
            let Some((at, _)) = &g.target else {
                cond.wait(&mut g);
                continue;
            };
            let deadline = start + std::time::Duration::from_nanos(at.as_nanos());
            if Instant::now() < deadline {
                cond.wait_until(&mut g, deadline);
                continue;
            }
            let (_, ev) = g.target.take().expect("checked above");
            drop(g);
            ev.signal();
            g = state.lock();
        }
    }
}

impl AlarmApi for RealAlarm {
    fn set(&self, ev: &Event, at: Time) {
        let mut g = self.shared.0.lock();
        g.target = Some((at, ev.clone()));
        if !std::mem::replace(&mut g.running, true) {
            let (start, shared) = (self.start, self.shared.clone());
            std::thread::Builder::new()
                .name("alarm".into())
                .spawn(move || Self::run(start, shared))
                .expect("spawn alarm thread");
        }
        self.shared.1.notify_one();
    }

    fn clear(&self) {
        self.shared.0.lock().target = None;
        self.shared.1.notify_one();
    }
}

impl Drop for RealAlarm {
    fn drop(&mut self) {
        self.shared.0.lock().dropped = true;
        self.shared.1.notify_one();
    }
}

struct RealEventInner {
    permits: usize,
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
        self.wait_timeout(Dur::MAX);
    }

    fn wait_timeout(&self, d: Dur) -> Wake {
        // A year at most, so `Instant + Duration` cannot overflow anywhere.
        let year = 60 * 60 * 24 * 365 * 1_000_000_000;
        let deadline = Instant::now() + std::time::Duration::from_nanos(d.as_nanos().min(year));
        let mut g = self.inner.lock();
        let (gen0, mut timed_out) = (g.broadcast_gen, false);
        loop {
            if g.permits > 0 {
                g.permits -= 1;
                break Wake::Signaled;
            }
            if g.broadcast_gen != gen0 {
                break Wake::Signaled;
            }
            if timed_out {
                break Wake::Timeout;
            }
            // Once timed out, re-check once: a signal may race the timeout.
            timed_out = self.cond.wait_until(&mut g, deadline).timed_out();
        }
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
    fn an_alarm_fires_where_it_was_last_aimed() {
        // Margins of hundreds of ms: a loaded host may stall this thread
        // between two calls, and only the last target may ever fire.
        let rt = RealRuntime::new();
        let (ev, alarm) = (rt.event(), rt.alarm());
        let ms = |n| Dur::from_millis(n);
        let t0 = rt.now();
        alarm.set(&ev, t0 + ms(60_000));
        alarm.set(&ev, t0 + ms(20)); // earlier
        assert_eq!(ev.wait_timeout(ms(30_000)), Wake::Signaled);
        assert!(rt.now() - t0 >= ms(20));
        let t1 = rt.now();
        alarm.set(&ev, t1 + ms(300));
        alarm.set(&ev, t1 + ms(600)); // later
        assert_eq!(ev.wait_timeout(ms(450)), Wake::Timeout);
        assert_eq!(ev.wait_timeout(ms(30_000)), Wake::Signaled);
        assert!(rt.now() - t1 >= ms(600));
        alarm.set(&ev, rt.now() + ms(300));
        alarm.clear();
        assert_eq!(ev.wait_timeout(ms(400)), Wake::Timeout);
        let t2 = rt.now() + ms(300);
        for i in 0..1_000 {
            alarm.set(&ev, t2 + Dur::from_nanos(i));
        }
        assert_eq!(ev.wait_timeout(ms(30_000)), Wake::Signaled);
        assert_eq!(ev.wait_timeout(ms(100)), Wake::Timeout, "fired once");
    }

    #[test]
    fn join_propagates_panics() {
        let rt: Arc<dyn Runtime> = RealRuntime::new().handle();
        let h = spawn(&rt, "p", || panic!("real-boom"));
        assert!(h.join().is_err());
    }
}
