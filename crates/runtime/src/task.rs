//! Event-driven micro-actors ("tasks"): the actor body that costs no thread.
//!
//! A thread actor is the right price for code that needs a stack (the
//! paper's compute and I/O threads, an MPI rank) and a needless one for
//! entities that only ever wait. A [`Task`] is a poll-style state machine
//! instead — a scale-out client, a server's connection handler, a stream's
//! demultiplexer and sender, the fault injector, a membership monitor. The
//! virtual-time engine's dispatcher polls it inline, on whichever thread
//! just gave up the baton, from the ready queue and timer heap that schedule
//! threads too; an idle task costs its state machine plus a table slot — a
//! few hundred bytes — so one simulation hosts 10⁵–10⁶ concurrent sessions.
//! (Under wall-clock time each task is a small loop on a thread of its own.)
//!
//! Tasks cooperate instead of blocking:
//!
//! * [`Task::poll`] runs the machine until it cannot progress, then returns
//!   a [`TaskStep`]: sleep for a duration, wait on an [`Event`] exactly as a
//!   thread would, or done. A task awaiting a reply waits on its cell's
//!   event ([`poll_wait`](crate::sync::OnceCellBlocking::poll_wait)).
//! * A task in [`TaskStep::Wait`] sits in the event's waiter queue among the
//!   threads blocked on the same cell and is released in arrival order; a
//!   banked permit is consumed on the spot and the task polled again before
//!   any other actor runs, which is what `wait()` returning at once is.
//! * **`poll` must not block through the runtime.** No sleeps, no event
//!   waits, no synchronous I/O: the polling thread holds the baton on the
//!   task's behalf, so the engine panics with `Task::poll blocked through
//!   the runtime` and fails the run. Uncontended fast paths (banked
//!   semaphore permits, free mutexes) are fine.
//!
//! Virtual time advances identically whether entities are threads or tasks,
//! and the schedule stays deterministic: woken tasks and threads run in wake
//! order, all timers fire in `(due, arm-order)`, and a task's reaches a
//! [`ScheduleHook`](crate::ScheduleHook) as `<executor>/<n>/task sleep` or
//! `<executor>/<n>/event wait (timeout)`.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::sim::WaitSlot;
use crate::{Dur, Event, Runtime, Time, Wake};

/// What a task wants after one poll.
pub enum TaskStep {
    /// Re-poll after `d` of virtual time (a modelled delay: an arrival
    /// offset, a think time, a retry backoff). `Sleep(ZERO)` still yields:
    /// a machine standing in for a thread's `sleep` skips a zero delay.
    Sleep(Dur),
    /// Block exactly as a thread would in `event.wait()` (`None`) or
    /// `event.wait_timeout(d)`: same waiter queue, same timer. The next
    /// poll's [`TaskCtx::wake`] says how the wait ended.
    Wait(Event, Option<Dur>),
    /// The task is finished; drop it and release its join handle.
    Done,
}

impl TaskStep {
    /// Carry the step out by blocking the calling thread actor: how a
    /// thread drives a step machine a task would be polled through.
    pub fn block(self, rt: &Arc<dyn Runtime>) -> Option<Wake> {
        match self {
            TaskStep::Sleep(d) => rt.sleep(d),
            TaskStep::Wait(ev, Some(d)) => return Some(ev.wait_timeout(d)),
            TaskStep::Wait(ev, None) => {
                ev.wait();
                return Some(Wake::Signaled);
            }
            TaskStep::Done => unreachable!("only a task finishes"),
        }
        None
    }
}

/// An event-driven micro-actor: a state machine polled by its runtime.
pub trait Task: Send + 'static {
    /// Advance the machine as far as it can go without blocking, then say
    /// what to do next. `cx` carries the current virtual time and how the
    /// last wait ended.
    fn poll(&mut self, cx: &mut TaskCtx<'_>) -> TaskStep;
}

/// Per-poll context handed to [`Task::poll`].
pub struct TaskCtx<'a> {
    /// The runtime the task runs on (for `now`, spawning helpers, …).
    /// Do **not** call blocking operations (`sleep`, `Event::wait`) on it
    /// from inside `poll`.
    pub rt: &'a Arc<dyn Runtime>,
    /// Virtual time at the start of this poll.
    pub now: Time,
    /// How the [`TaskStep::Wait`] this poll resumes from ended; `None` after
    /// any other step. A machine that waited for a *permit* holds one only
    /// if this is [`Wake::Signaled`].
    pub wake: Option<Wake>,
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

/// A spawned task as its runtime keeps it: the state machine, taken out for
/// each poll, plus what names it and publishes its completion. Built by
/// [`TaskExecutor::spawn`], consumed by [`Runtime::spawn_task`].
pub struct TaskCell {
    pub(crate) task: Option<Box<dyn Task>>,
    /// The wait the task is blocked in, if its last step was a
    /// [`TaskStep::Wait`]: read for the next poll's [`TaskCtx::wake`].
    pub(crate) wait: Option<Arc<WaitSlot>>,
    /// A daemon task does not keep the simulation alive.
    pub(crate) daemon: bool,
    exec: Arc<ExecShared>,
    n: u64,
    done: Event,
}

/// What a [`TaskExecutor`] shares with the tasks it spawned.
struct ExecShared {
    rt: Arc<dyn Runtime>,
    name: String,
    stats: Mutex<TaskStats>,
}

impl TaskCell {
    /// The runtime to hand the task in its [`TaskCtx`].
    pub(crate) fn rt(&self) -> &Arc<dyn Runtime> {
        &self.exec.rt
    }

    /// `<executor>/<n>`, for a [`Choice`](crate::Choice), a deadlock row or
    /// a panic. Formatted on demand: 10⁵ idle tasks carry no 10⁵ strings.
    pub(crate) fn label(&self) -> String {
        format!("{}/{}", self.exec.name, self.n)
    }

    /// The task returned [`TaskStep::Done`]: release its joiners.
    pub(crate) fn finish(&self) {
        self.exec.stats.lock().live -= 1;
        self.done.signal();
        // Keep signalling so multiple joiners all wake.
        self.done.notify_all();
    }
}

/// Completion handle for one spawned task.
pub struct TaskHandle(Event);

impl TaskHandle {
    /// Block the calling *actor* (not task) until the task completes.
    pub fn join(&self) {
        self.0.wait();
    }
}

/// Spawns [`Task`]s onto a runtime under one name and counts them; the
/// runtime schedules them (see the module docs). Under virtual time one
/// actor runs at a time, so polls never overlap — which is what makes short
/// uncontended lock fast-paths safe inside `poll`.
pub struct TaskExecutor(Arc<ExecShared>);

impl TaskExecutor {
    /// An executor whose tasks are named `name/<n>` in diagnostics, `n`
    /// counting from 0 in spawn order.
    pub fn new(rt: &Arc<dyn Runtime>, name: &str) -> TaskExecutor {
        TaskExecutor(Arc::new(ExecShared {
            rt: rt.clone(),
            name: name.to_string(),
            stats: Mutex::default(),
        }))
    }

    /// Spawn a task. It is queued immediately and first polled once the
    /// spawner blocks, behind every actor already ready.
    pub fn spawn(&self, task: Box<dyn Task>) -> TaskHandle {
        self.spawn_inner(task, false)
    }

    /// Spawn a *daemon* task: one that does not keep the simulation alive
    /// (a connection handler idle on its request channel); once only
    /// daemons remain it is dropped where it waits.
    pub fn spawn_daemon(&self, task: Box<dyn Task>) -> TaskHandle {
        self.spawn_inner(task, true)
    }

    fn spawn_inner(&self, task: Box<dyn Task>, daemon: bool) -> TaskHandle {
        let n = {
            let mut st = self.0.stats.lock();
            st.spawned += 1;
            st.live += 1;
            st.peak_live = st.peak_live.max(st.live);
            st.spawned - 1
        };
        let done = self.0.rt.event();
        self.0.rt.spawn_task(TaskCell {
            task: Some(task),
            wait: None,
            daemon,
            exec: self.0.clone(),
            n,
            done: done.clone(),
        });
        TaskHandle(done)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> TaskStats {
        *self.0.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{panic_message, simulate, SimRuntime};
    use std::sync::atomic::{AtomicUsize, Ordering as AtOrd};

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

    /// Run `root` as the root actor beside a thread actor blocked for good;
    /// return how the root ended and how the bystander did.
    fn run_beside_a_bystander(
        root: impl FnOnce(Arc<dyn Runtime>) + Send + 'static,
    ) -> (String, String) {
        let sim = SimRuntime::new();
        let rt = sim.handle();
        let bystander = Arc::new(Mutex::new(None));
        let (rt2, b2) = (rt.clone(), bystander.clone());
        let root = rt.spawn(
            "root",
            Box::new(move || {
                let ev = rt2.event();
                *b2.lock() = Some(crate::runtime::spawn(&rt2, "bystander", move || ev.wait()));
                rt2.sleep(Dur::from_millis(1)); // the bystander is parked now
                root(rt2);
            }),
        );
        sim.wait_done(); // must not hang on the bystander or on a task
        let msg = |h: crate::JoinHandle| panic_message(&*h.join().expect_err("the run must fail"));
        let bystander = bystander.lock().take().expect("bystander spawned");
        (msg(root), msg(bystander))
    }

    /// Breaks the rule: sleeps through the runtime inside `poll`.
    struct BlocksInPoll;
    impl Task for BlocksInPoll {
        fn poll(&mut self, cx: &mut TaskCtx<'_>) -> TaskStep {
            cx.rt.sleep(Dur::from_millis(1));
            TaskStep::Done
        }
    }

    #[test]
    fn a_poll_that_blocks_through_the_runtime_panics_and_poisons() {
        let (root, bystander) = run_beside_a_bystander(|rt| {
            let ex = TaskExecutor::new(&rt, "ex");
            ex.spawn(Box::new(Napper {
                left: 0,
                step: Dur::ZERO,
                log: Default::default(),
                id: 0,
            }));
            ex.spawn(Box::new(BlocksInPoll)).join(); // polled inside this join
        });
        let what = "Task::poll blocked through the runtime (ex/1: sleep)";
        assert_eq!(root, what);
        assert_eq!(bystander, format!("simulation poisoned: {what}"));
    }

    struct PanicsInPoll;
    impl Task for PanicsInPoll {
        fn poll(&mut self, _cx: &mut TaskCtx<'_>) -> TaskStep {
            panic!("boom-7")
        }
    }

    #[test]
    fn a_panicking_poll_poisons_and_unwinds_the_polling_thread() {
        let (root, bystander) = run_beside_a_bystander(|rt| {
            TaskExecutor::new(&rt, "ex")
                .spawn(Box::new(PanicsInPoll))
                .join();
        });
        assert_eq!(root, "boom-7", "the unwind resumes on the thread polling");
        assert_eq!(
            bystander,
            "simulation poisoned: panic in a task ex/0: boom-7"
        );
    }

    #[test]
    fn a_hung_swarm_is_a_deadlock_that_names_its_tasks() {
        let hang = |n: usize| {
            run_beside_a_bystander(move |rt| {
                let ex = TaskExecutor::new(&rt, "swarm");
                let never = rt.event();
                let hs: Vec<_> = (0..n)
                    .map(|_| ex.spawn(waits_once(&never, None, "", &Default::default())))
                    .collect();
                hs[0].join();
            })
            .0
        };
        let two = hang(2);
        assert!(two.starts_with("simulation deadlock at 0.001000s"), "{two}");
        for row in [
            "actor #2 \"swarm/0\": blocked on event wait",
            "actor #3 \"swarm/1\": blocked on event wait",
        ] {
            assert!(two.contains(row), "{two}");
        }
        assert!(!two.contains("more"), "{two}");
        // root, bystander and the first 30 tasks make the 32 rows.
        let many = hang(100);
        assert!(many.contains("\"swarm/29\"") && !many.contains("\"swarm/30\""));
        assert!(
            many.ends_with("\n  … and 70 more (100 tasks blocked)"),
            "{many}"
        );
    }

    /// Always pick the last eligible event, and keep what was offered.
    #[derive(Default)]
    struct PickLast(Mutex<Vec<Vec<String>>>);
    impl crate::ScheduleHook for PickLast {
        fn choose(&self, _now: Time, _fp: u64, eligible: &[crate::Choice]) -> usize {
            let labels = eligible.iter().map(crate::Choice::label).collect();
            self.0.lock().push(labels);
            eligible.len() - 1
        }
    }

    #[test]
    fn task_timers_are_choices_a_schedule_hook_can_reorder() {
        let order = |hook: Option<Arc<PickLast>>| {
            let sim = SimRuntime::new();
            if let Some(h) = hook {
                sim.set_schedule_hook(h, Dur::ZERO);
            }
            sim.run_root(|rt| {
                let ex = TaskExecutor::new(&rt, "ex");
                let log = Arc::new(Mutex::new(Vec::new()));
                let hs: Vec<_> = (0..2)
                    .map(|id| {
                        ex.spawn(Box::new(Napper {
                            left: 1,
                            step: Dur::from_millis(5),
                            log: log.clone(),
                            id,
                        }))
                    })
                    .collect();
                hs.iter().for_each(TaskHandle::join);
                let got: Vec<u32> = log.lock().iter().map(|&(id, _)| id).collect();
                got
            })
        };
        assert_eq!(order(None), [0, 1], "arm order without a hook");
        let hook = Arc::new(PickLast::default());
        assert_eq!(order(Some(hook.clone())), [1, 0]);
        assert_eq!(
            *hook.0.lock(),
            [["ex/0/task sleep", "ex/1/task sleep"]],
            "one choice point, both tasks offered"
        );
    }

    /// A task written as its `poll` closure.
    struct FnTask<F>(F);
    impl<F: FnMut(&mut TaskCtx<'_>) -> TaskStep + Send + 'static> Task for FnTask<F> {
        fn poll(&mut self, cx: &mut TaskCtx<'_>) -> TaskStep {
            (self.0)(cx)
        }
    }

    /// `(tag, how the wait ended, when)` per finished [`waits_once`].
    type WaitLog = Arc<Mutex<Vec<(&'static str, Option<Wake>, Time)>>>;

    /// Waits on `ev` once (as `ev.wait()` / `ev.wait_timeout(d)` would),
    /// logs it and finishes.
    fn waits_once(
        ev: &Event,
        timeout: Option<Dur>,
        tag: &'static str,
        log: &WaitLog,
    ) -> Box<dyn Task> {
        let (ev, log, mut waited) = (ev.clone(), log.clone(), false);
        Box::new(FnTask(move |cx: &mut TaskCtx<'_>| {
            if !std::mem::replace(&mut waited, true) {
                return TaskStep::Wait(ev.clone(), timeout);
            }
            log.lock().push((tag, cx.wake, cx.now));
            TaskStep::Done
        }))
    }

    #[test]
    fn a_thread_and_a_task_on_one_event_are_released_in_arrival_order() {
        let order = |task_first: bool| {
            simulate(move |rt| {
                let ex = TaskExecutor::new(&rt, "ex");
                let log = Arc::new(Mutex::new(Vec::new()));
                let ev = rt.event();
                let thread = |rt: &Arc<dyn Runtime>| {
                    let (ev, log, rt2) = (ev.clone(), log.clone(), rt.clone());
                    crate::runtime::spawn(rt, "thread", move || {
                        ev.wait();
                        log.lock().push(("thread", Some(Wake::Signaled), rt2.now()));
                    })
                };
                // Spawn order is first-run order, hence arrival order.
                let (h, t) = if task_first {
                    let h = ex.spawn(waits_once(&ev, None, "task", &log));
                    (h, thread(&rt))
                } else {
                    let t = thread(&rt);
                    (ex.spawn(waits_once(&ev, None, "task", &log)), t)
                };
                rt.sleep(Dur::from_millis(1)); // both are waiting now
                ev.signal();
                rt.sleep(Dur::from_millis(1)); // one permit, one waiter released
                ev.signal();
                h.join();
                t.join_unwrap();
                let got = log.lock().clone();
                got
            })
        };
        let at = |ms| Time::ZERO + Dur::from_millis(ms);
        let (task, thread) = ("task", "thread");
        let s = Some(Wake::Signaled);
        assert_eq!(order(true), [(task, s, at(1)), (thread, s, at(2))]);
        assert_eq!(order(false), [(thread, s, at(1)), (task, s, at(2))]);
    }

    #[test]
    fn a_wait_on_a_banked_permit_is_repolled_before_any_other_ready_actor() {
        let log = simulate(|rt| {
            let ex = TaskExecutor::new(&rt, "ex");
            let log = Arc::new(Mutex::new(Vec::new()));
            let ev = rt.event();
            ev.signal(); // banked: `ev.wait()` would return without yielding
            let h = ex.spawn(waits_once(&ev, None, "waiter", &log));
            let (log2, rt2) = (log.clone(), rt.clone());
            let other = crate::runtime::spawn(&rt, "other", move || {
                log2.lock().push(("other", None, rt2.now()));
            });
            h.join(); // both are ready, the task first
            other.join_unwrap();
            let got = log.lock().clone();
            got
        });
        assert_eq!(
            log,
            [
                ("waiter", Some(Wake::Signaled), Time::ZERO),
                ("other", None, Time::ZERO)
            ]
        );
    }

    #[test]
    fn a_timed_out_wait_sees_timeout_and_leaves_no_waiter_behind() {
        let sim = SimRuntime::new();
        let log = sim.run_root(|rt| {
            let ex = TaskExecutor::new(&rt, "ex");
            let log = Arc::new(Mutex::new(Vec::new()));
            let ev = rt.event();
            let d = Dur::from_millis(3);
            ex.spawn(waits_once(&ev, Some(d), "timed", &log)).join();
            // The expired wait's queue entry must not swallow this signal.
            let h = ex.spawn(waits_once(&ev, Some(Dur::MAX), "later", &log));
            rt.sleep(Dur::from_millis(1));
            ev.signal();
            h.join();
            // A zero timeout is a poll of the permit count, not a wait.
            ex.spawn(waits_once(&ev, Some(Dur::ZERO), "zero", &log))
                .join();
            let got = log.lock().clone();
            got
        });
        let at = |ms| Time::ZERO + Dur::from_millis(ms);
        assert_eq!(
            log,
            [
                ("timed", Some(Wake::Timeout), at(3)),
                ("later", Some(Wake::Signaled), at(4)),
                ("zero", Some(Wake::Timeout), at(4)),
            ]
        );
        // One timer for the timed wait, one for the root's sleep; `MAX` and
        // zero arm none.
        assert_eq!(sim.stats().timers_armed, 2);
    }

    /// Signals `.0` when dropped.
    struct SignalOnDrop(Event);
    impl Drop for SignalOnDrop {
        fn drop(&mut self) {
            self.0.signal();
        }
    }

    #[test]
    fn a_blocked_daemon_task_neither_outlives_the_run_nor_drops_under_the_engine_lock() {
        let sim = SimRuntime::new();
        let (ex, dropped) = sim.run_root(|rt| {
            let ex = TaskExecutor::new(&rt, "daemons");
            let (never, dropped) = (rt.event(), rt.event());
            let guard = SignalOnDrop(dropped.clone());
            ex.spawn_daemon(Box::new(FnTask(move |_: &mut TaskCtx<'_>| {
                let _held = &guard;
                TaskStep::Wait(never.clone(), None)
            })));
            // A second one asleep: its pending timer must not run the clock.
            ex.spawn_daemon(Box::new(FnTask(|_: &mut TaskCtx<'_>| {
                TaskStep::Sleep(Dur::from_secs(3600))
            })));
            rt.sleep(Dur::from_millis(2));
            (ex, dropped)
        });
        // `run_root` returned, so the daemons kept nothing alive; and the
        // destructor's `signal` — which takes the engine lock — has run.
        assert_eq!(dropped.wait_timeout(Dur::ZERO), Wake::Signaled);
        assert_eq!(
            sim.now(),
            Time::ZERO + Dur::from_millis(2),
            "ends with the root"
        );
        let s = sim.stats();
        assert_eq!((s.clock_advances, s.tasks_spawned), (1, 2));
        assert_eq!(ex.stats().spawned, 2);
    }

    #[test]
    fn a_daemon_task_that_finishes_leaves_the_live_count_alone() {
        // The root must still be able to finish the run after a daemon task
        // returned `Done`: only non-daemons count towards completion.
        let end = simulate(|rt| {
            let ex = TaskExecutor::new(&rt, "ex");
            ex.spawn_daemon(Box::new(FnTask(|_: &mut TaskCtx<'_>| TaskStep::Done)))
                .join();
            let h = ex.spawn(Box::new(Napper {
                left: 1,
                step: Dur::from_millis(4),
                log: Default::default(),
                id: 0,
            }));
            h.join();
            rt.now()
        });
        assert_eq!(end, Time::ZERO + Dur::from_millis(4));
    }

    #[test]
    fn a_hung_server_is_a_deadlock_that_names_what_its_tasks_wait_on() {
        let report = run_beside_a_bystander(|rt| {
            let ex = TaskExecutor::new(&rt, "orion/conn");
            let never = rt.event();
            let hs: Vec<_> = (0..40)
                .map(|_| ex.spawn(waits_once(&never, None, "", &Default::default())))
                .collect();
            hs[0].join();
        })
        .0;
        assert!(
            report.contains("actor #7 \"orion/conn/5\": blocked on event wait"),
            "{report}"
        );
        assert!(
            report.ends_with("\n  … and 10 more (40 tasks blocked)"),
            "{report}"
        );
    }

    #[test]
    fn tasks_run_on_the_wall_clock_runtime_too() {
        let rt: Arc<dyn Runtime> = crate::RealRuntime::new().handle();
        let ex = TaskExecutor::new(&rt, "real");
        let log = Arc::new(Mutex::new(Vec::new()));
        let nap = ex.spawn(Box::new(Napper {
            left: 2,
            step: Dur::from_millis(5),
            log: log.clone(),
            id: 1,
        }));
        nap.join();
        let (_, at) = log.lock()[0];
        assert!(
            at >= Time::ZERO + Dur::from_millis(10),
            "two 5 ms naps: {at}"
        );
        // A task blocked on an event: a timeout first, then a signal.
        let (ev, waits) = (rt.event(), Arc::new(Mutex::new(Vec::new())));
        let d = Some(Dur::from_millis(5));
        ex.spawn(waits_once(&ev, d, "timed", &waits)).join();
        let h = ex.spawn(waits_once(&ev, None, "signalled", &waits));
        ev.signal();
        h.join();
        let how: Vec<_> = waits.lock().iter().map(|&(tag, w, _)| (tag, w)).collect();
        assert_eq!(
            how,
            [
                ("timed", Some(Wake::Timeout)),
                ("signalled", Some(Wake::Signaled))
            ]
        );
        let st = ex.stats();
        assert_eq!((st.spawned, st.live), (3, 0));
    }
}
