//! Event-driven micro-actors ("tasks") multiplexed onto one engine actor.
//!
//! The virtual-time engine maps every actor onto a real OS thread — faithful
//! to the paper's thread-per-connection SEMPLAR client, but a hard ceiling on
//! how many simulated entities one process can host (`fig_scale` tops out
//! around 4×10³ threads). A [`Task`] is the event-driven alternative: a
//! poll-style state machine owned by a [`TaskExecutor`], which drives *all*
//! of its tasks from a single engine actor. An idle task costs its state
//! machine plus a queue slot — a few hundred bytes — so one executor can
//! host 10⁵–10⁶ concurrent sessions.
//!
//! Tasks cooperate instead of blocking:
//!
//! * [`Task::poll`] runs the machine until it cannot progress, then returns
//!   a [`TaskStep`]: sleep for a duration, park until woken, or done.
//! * A parked task is woken by its [`Waker`] — a cheap clonable handle that
//!   completion callbacks (e.g. a transport response demultiplexer) invoke
//!   from any actor. Wakes are coalesced: waking a task twice before it is
//!   polled queues it once.
//! * **`poll` must not block through the runtime.** No sleeps, no event
//!   waits, no synchronous I/O — any of those would stall every other task
//!   on the executor. Uncontended fast paths (banked semaphore permits,
//!   free mutexes) are fine.
//!
//! The executor keeps the simulation faithful: its driver actor sleeps via
//! the engine exactly until the earliest task deadline, so virtual time
//! advances identically whether entities are threads or tasks, and the
//! whole schedule stays deterministic (ready tasks run in wake order,
//! timers in `(due, arm-order)`).

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering as AtOrd};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::runtime::{Event, Runtime};
use crate::sync::Channel;
use crate::time::{Dur, Time};

/// What a task wants after one poll.
#[derive(Debug)]
pub enum TaskStep {
    /// Re-poll after `d` of virtual time (a modelled delay: an arrival
    /// offset, a think time, a retry backoff).
    Sleep(Dur),
    /// Park until [`Waker::wake`] is called (a completion callback will
    /// deliver it). A task that parks without having handed its waker to
    /// anyone sleeps forever — the executor cannot tell the difference.
    Park,
    /// The task is finished; drop it and release its join handle.
    Done,
}

/// An event-driven micro-actor: a state machine polled by a
/// [`TaskExecutor`].
pub trait Task: Send + 'static {
    /// Advance the machine as far as it can go without blocking, then say
    /// what to do next. `cx` carries the current virtual time and the
    /// task's waker (clone it into completion callbacks before parking).
    fn poll(&mut self, cx: &mut TaskCtx<'_>) -> TaskStep;
}

/// Per-poll context handed to [`Task::poll`].
pub struct TaskCtx<'a> {
    /// The runtime driving the executor (for `now`, spawning helpers, …).
    /// Do **not** call blocking operations (`sleep`, `Event::wait`) on it
    /// from inside `poll`.
    pub rt: &'a Arc<dyn Runtime>,
    /// Virtual time at the start of this poll.
    pub now: Time,
    /// The polled task's waker. Clone into any completion callback that
    /// should un-park the task.
    pub waker: Waker,
}

struct WakerInner {
    id: u64,
    ready: Channel<u64>,
    queued: AtomicBool,
}

/// A cheap clonable handle that re-queues its task for polling.
///
/// Safe to invoke from any actor (a demux daemon, another task's poll, a
/// timer) and idempotent between polls: waking an already-queued task is a
/// no-op.
#[derive(Clone)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

impl Waker {
    /// Queue the task for another poll (coalesced).
    pub fn wake(&self) {
        if !self.inner.queued.swap(true, AtOrd::SeqCst) {
            // The executor may already have shut down (task finished and
            // executor drained) — a stray late wake is harmless.
            let _ = self.inner.ready.send(self.inner.id);
        }
    }
}

struct TaskEntry {
    task: Box<dyn Task>,
    waker: Waker,
    done: Event,
    /// Set while the task sits in the sleeper heap, so a stray wake cannot
    /// double-poll it ahead of its deadline.
    sleeping: bool,
}

/// One armed task timer. Reversed ordering so the max-heap pops the
/// earliest `(due, seq)` first — same idiom as the engine's timer heap.
struct Sleeper {
    due: u64,
    seq: u64,
    id: u64,
}

impl PartialEq for Sleeper {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for Sleeper {}
impl PartialOrd for Sleeper {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Sleeper {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

#[derive(Default)]
struct ExecState {
    tasks: HashMap<u64, TaskEntry>,
    sleepers: BinaryHeap<Sleeper>,
    next_id: u64,
    next_seq: u64,
    /// True while a driver actor is alive. The driver exits when its last
    /// task completes and is respawned by the next `spawn`.
    driver_live: bool,
    driver_gen: u64,
    spawned_total: u64,
    peak_live: usize,
}

struct ExecInner {
    rt: Arc<dyn Runtime>,
    name: String,
    ready: Channel<u64>,
    state: Mutex<ExecState>,
}

/// Lifetime counters for one executor.
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskStats {
    /// Tasks ever spawned on this executor.
    pub spawned: u64,
    /// Largest number of simultaneously live tasks.
    pub peak_live: usize,
    /// Currently live tasks.
    pub live: usize,
}

/// Completion handle for one spawned task.
pub struct TaskHandle {
    done: Event,
}

impl TaskHandle {
    /// Block the calling *actor* (not task) until the task completes.
    pub fn join(&self) {
        self.done.wait();
    }
}

/// Drives any number of [`Task`]s from a single engine actor.
///
/// The driver actor is spawned lazily on the first task and exits when the
/// last live task completes, so an executor parked in a finished
/// simulation holds no thread. All tasks of one executor run on one
/// thread: their polls are serialized, which is what makes short
/// uncontended lock fast-paths safe inside `poll`.
pub struct TaskExecutor {
    inner: Arc<ExecInner>,
}

impl TaskExecutor {
    /// An executor whose driver actor is named `name` in diagnostics.
    pub fn new(rt: &Arc<dyn Runtime>, name: &str) -> TaskExecutor {
        TaskExecutor {
            inner: Arc::new(ExecInner {
                rt: rt.clone(),
                name: name.to_string(),
                ready: Channel::new(rt),
                state: Mutex::new(ExecState::default()),
            }),
        }
    }

    /// Spawn a task. It is queued immediately and first polled when the
    /// driver actor runs.
    pub fn spawn(&self, task: Box<dyn Task>) -> TaskHandle {
        let inner = &self.inner;
        let done = inner.rt.event();
        let (start_driver, gen) = {
            let mut st = inner.state.lock();
            let id = st.next_id;
            st.next_id += 1;
            let waker = Waker {
                inner: Arc::new(WakerInner {
                    id,
                    ready: inner.ready.clone(),
                    queued: AtomicBool::new(false),
                }),
            };
            st.tasks.insert(
                id,
                TaskEntry {
                    task,
                    waker: waker.clone(),
                    done: done.clone(),
                    sleeping: false,
                },
            );
            st.spawned_total += 1;
            st.peak_live = st.peak_live.max(st.tasks.len());
            let start = if st.driver_live {
                false
            } else {
                st.driver_live = true;
                st.driver_gen += 1;
                true
            };
            // First poll comes through the ready queue like any wake.
            waker.wake();
            (start, st.driver_gen)
        };
        inner.rt.task_spawned();
        if start_driver {
            let inner2 = inner.clone();
            let label = format!("{}/driver-{gen}", inner.name);
            inner.rt.spawn(&label, Box::new(move || drive(inner2)));
        }
        TaskHandle { done }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> TaskStats {
        let st = self.inner.state.lock();
        TaskStats {
            spawned: st.spawned_total,
            peak_live: st.peak_live,
            live: st.tasks.len(),
        }
    }
}

/// The driver loop: runs ready tasks, sleeps to the earliest task
/// deadline, exits when no task is left.
fn drive(inner: Arc<ExecInner>) {
    let rt = inner.rt.clone();
    loop {
        // Fire every sleeper whose deadline has arrived.
        let now = rt.now();
        loop {
            let id = {
                let mut st = inner.state.lock();
                match st.sleepers.peek() {
                    Some(s) if s.due <= now.as_nanos() => {
                        let s = st.sleepers.pop().expect("peeked");
                        if let Some(e) = st.tasks.get_mut(&s.id) {
                            if e.sleeping {
                                e.sleeping = false;
                                Some(s.id)
                            } else {
                                None // woken early; already queued
                            }
                        } else {
                            None
                        }
                    }
                    _ => break,
                }
            };
            if let Some(id) = id {
                poll_one(&inner, &rt, id);
            }
        }
        // Drain the ready queue (tasks woken by completions or spawns).
        while let Some(id) = inner.ready.try_recv() {
            let runnable = {
                let mut st = inner.state.lock();
                match st.tasks.get_mut(&id) {
                    Some(e) => {
                        e.waker.inner.queued.store(false, AtOrd::SeqCst);
                        if e.sleeping {
                            // Woken ahead of a pending timer: cancel it so
                            // the stale heap entry is ignored on pop.
                            e.sleeping = false;
                        }
                        true
                    }
                    None => false, // late wake for a finished task
                }
            };
            if runnable {
                poll_one(&inner, &rt, id);
            }
        }
        // Nothing ready: sleep to the next deadline, or park on the ready
        // channel, or exit if no tasks remain.
        let next_due = {
            let mut st = inner.state.lock();
            // Drop cancelled heap entries so they don't wake us spuriously.
            while let Some(s) = st.sleepers.peek() {
                let stale = st.tasks.get(&s.id).map(|e| !e.sleeping).unwrap_or(true);
                if stale {
                    st.sleepers.pop();
                } else {
                    break;
                }
            }
            if !inner.ready.is_empty() {
                continue; // raced with a wake while holding the lock
            }
            if st.tasks.is_empty() {
                st.driver_live = false;
                return;
            }
            st.sleepers.peek().map(|s| s.due)
        };
        match next_due {
            Some(due) => {
                let now = rt.now().as_nanos();
                if due > now {
                    // recv_timeout doubles as the timer: an early wake
                    // delivers a ready id, the timeout fires the sleeper.
                    if let Ok(Some(id)) = inner.ready.recv_timeout(Dur::from_nanos(due - now)) {
                        requeue_front(&inner, id);
                    }
                }
            }
            None => {
                // All tasks parked: wait indefinitely for a wake.
                match inner.ready.recv() {
                    Ok(id) => requeue_front(&inner, id),
                    Err(_) => return, // channel closed: runtime tearing down
                }
            }
        }
    }
}

/// A ready id pulled out by the blocking waits goes back to the front of
/// the loop via a direct poll (the queue flag is still set, keeping
/// coalescing correct until we clear it).
fn requeue_front(inner: &Arc<ExecInner>, id: u64) {
    let rt = inner.rt.clone();
    let runnable = {
        let mut st = inner.state.lock();
        match st.tasks.get_mut(&id) {
            Some(e) => {
                e.waker.inner.queued.store(false, AtOrd::SeqCst);
                e.sleeping = false;
                true
            }
            None => false,
        }
    };
    if runnable {
        poll_one(inner, &rt, id);
    }
}

fn poll_one(inner: &Arc<ExecInner>, rt: &Arc<dyn Runtime>, id: u64) {
    // Take the task out so `poll` runs without the executor lock held —
    // completion callbacks fired during the poll may wake other tasks.
    let (mut task, waker) = {
        let mut st = inner.state.lock();
        match st.tasks.get_mut(&id) {
            Some(e) => {
                let placeholder: Box<dyn Task> = Box::new(Tombstone);
                (std::mem::replace(&mut e.task, placeholder), e.waker.clone())
            }
            None => return,
        }
    };
    let mut cx = TaskCtx {
        rt,
        now: rt.now(),
        waker,
    };
    let step = task.poll(&mut cx);
    let mut st = inner.state.lock();
    let Some(e) = st.tasks.get_mut(&id) else {
        return;
    };
    e.task = task;
    match step {
        TaskStep::Sleep(d) => {
            let due = cx.now.as_nanos().saturating_add(d.as_nanos());
            e.sleeping = true;
            let seq = st.next_seq;
            st.next_seq += 1;
            st.sleepers.push(Sleeper { due, seq, id });
        }
        TaskStep::Park => {}
        TaskStep::Done => {
            let e = st.tasks.remove(&id).expect("present above");
            drop(st);
            e.done.signal();
            e.done.notify_all();
            inner.rt.task_finished();
        }
    }
}

/// Placeholder task briefly occupying a slot while the real machine is
/// being polled; it is never itself polled.
struct Tombstone;
impl Task for Tombstone {
    fn poll(&mut self, _cx: &mut TaskCtx<'_>) -> TaskStep {
        unreachable!("tombstone task polled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use std::sync::atomic::AtomicUsize;

    /// Sleeps `n` times then finishes.
    struct Napper {
        left: u32,
        step: Dur,
        log: Arc<Mutex<Vec<(u32, Time)>>>,
        id: u32,
    }
    impl Task for Napper {
        fn poll(&mut self, cx: &mut TaskCtx<'_>) -> TaskStep {
            if self.left == 0 {
                self.log.lock().push((self.id, cx.now));
                return TaskStep::Done;
            }
            self.left -= 1;
            TaskStep::Sleep(self.step)
        }
    }

    #[test]
    fn tasks_sleep_on_virtual_time() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        simulate(move |rt| {
            let ex = TaskExecutor::new(&rt, "ex");
            let h1 = ex.spawn(Box::new(Napper {
                left: 3,
                step: Dur::from_millis(10),
                log: l2.clone(),
                id: 1,
            }));
            let h2 = ex.spawn(Box::new(Napper {
                left: 1,
                step: Dur::from_millis(50),
                log: l2.clone(),
                id: 2,
            }));
            h1.join();
            h2.join();
            assert_eq!(rt.now(), Time::ZERO + Dur::from_millis(50));
            let st = ex.stats();
            assert_eq!(st.spawned, 2);
            assert_eq!(st.peak_live, 2);
            assert_eq!(st.live, 0);
        });
        let got = log.lock().clone();
        assert_eq!(
            got,
            vec![
                (1, Time::ZERO + Dur::from_millis(30)),
                (2, Time::ZERO + Dur::from_millis(50)),
            ]
        );
    }

    /// Parks until an external completion wakes it.
    struct WaitsForSignal {
        delivered: Arc<AtomicBool>,
        armed: bool,
        out: Arc<Mutex<Option<Time>>>,
    }
    impl Task for WaitsForSignal {
        fn poll(&mut self, cx: &mut TaskCtx<'_>) -> TaskStep {
            if self.delivered.load(AtOrd::SeqCst) {
                *self.out.lock() = Some(cx.now);
                return TaskStep::Done;
            }
            self.armed = true;
            TaskStep::Park
        }
    }

    #[test]
    fn waker_unparks_a_task() {
        let out = Arc::new(Mutex::new(None));
        let o2 = out.clone();
        simulate(move |rt| {
            let ex = TaskExecutor::new(&rt, "ex");
            let delivered = Arc::new(AtomicBool::new(false));
            let d2 = delivered.clone();
            let h = ex.spawn(Box::new(WaitsForSignal {
                delivered,
                armed: false,
                out: o2.clone(),
            }));
            // Fish the waker out via a second task is overkill here: wake
            // through a helper actor that flips the flag then re-queues.
            let waker = {
                // Reach the waker through the executor state.
                let st = ex.inner.state.lock();
                st.tasks.values().next().unwrap().waker.clone()
            };
            let rt2 = rt.clone();
            crate::runtime::spawn(&rt, "completer", move || {
                rt2.sleep(Dur::from_millis(25));
                d2.store(true, AtOrd::SeqCst);
                waker.wake();
            });
            h.join();
        });
        assert_eq!(*out.lock(), Some(Time::ZERO + Dur::from_millis(25)));
    }

    #[test]
    fn hundred_thousand_idle_tasks_are_cheap() {
        // The scale claim in miniature: 100k tasks each sleep once; the
        // whole run uses a handful of OS threads and finishes quickly.
        let done = Arc::new(AtomicUsize::new(0));
        let d2 = done.clone();
        simulate(move |rt| {
            let ex = TaskExecutor::new(&rt, "swarm");
            struct OneNap {
                d: Dur,
                done: Arc<AtomicUsize>,
                slept: bool,
            }
            impl Task for OneNap {
                fn poll(&mut self, _cx: &mut TaskCtx<'_>) -> TaskStep {
                    if self.slept {
                        self.done.fetch_add(1, AtOrd::SeqCst);
                        TaskStep::Done
                    } else {
                        self.slept = true;
                        TaskStep::Sleep(self.d)
                    }
                }
            }
            let mut last = None;
            for i in 0..100_000u64 {
                last = Some(ex.spawn(Box::new(OneNap {
                    d: Dur::from_micros(1 + i % 977),
                    done: d2.clone(),
                    slept: false,
                })));
            }
            last.unwrap().join();
            let st = ex.stats();
            assert_eq!(st.spawned, 100_000);
            assert_eq!(st.peak_live, 100_000);
        });
        assert_eq!(done.load(AtOrd::SeqCst), 100_000);
    }

    #[test]
    fn driver_exits_and_respawns_between_waves() {
        simulate(|rt| {
            let ex = TaskExecutor::new(&rt, "waves");
            let log = Arc::new(Mutex::new(Vec::new()));
            ex.spawn(Box::new(Napper {
                left: 1,
                step: Dur::from_millis(1),
                log: log.clone(),
                id: 1,
            }))
            .join();
            rt.sleep(Dur::from_millis(5));
            // First wave drained; the driver actor has exited. A second
            // spawn must bring it back.
            ex.spawn(Box::new(Napper {
                left: 1,
                step: Dur::from_millis(1),
                log: log.clone(),
                id: 2,
            }))
            .join();
            assert_eq!(log.lock().len(), 2);
        });
    }
}
