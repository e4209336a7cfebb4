//! Event-driven micro-actors ("tasks"): the actor body that costs no thread.
//!
//! A thread actor is the right price for code that needs a stack (the
//! paper's compute and I/O threads, an MPI rank) and a needless one for
//! entities that only ever wait. A [`Task`] is polled instead — a scale-out
//! client, a server's connection handler, a stream's demultiplexer and
//! sender, the fault injector, a membership monitor. The virtual-time
//! engine's dispatcher polls it inline, on whichever thread just gave up the
//! baton, from the ready queue and timer heap that schedule threads too; an
//! idle task costs its state plus a table slot — a few hundred bytes — so
//! one simulation hosts 10⁵–10⁶ concurrent sessions. (Under wall-clock time
//! each task is a small loop on a thread of its own.)
//!
//! A task is written as the blocking code it stands for: an `async` body,
//! spawned as a pinned boxed future, which is a [`Task`]. Its waits are
//! leaf futures — [`sleep`], [`wait`] and those built on
//! them (`Channel::recv_async`, `OnceCellBlocking::wait_async`,
//! `Semaphore::acquire_async`, a network message, a disk operation). A leaf
//! hands the [`TaskStep`] it needs to whatever drives the future and
//! returns `Pending`; the adapter returns that step from [`Task::poll`] and
//! hands the next poll's [`TaskCtx::wake`] back to the leaf. A thread actor
//! drives the same future with [`block_on`], which blocks in each step
//! (`TaskStep::block`), so each wait is written once and its blocking form
//! is a `block_on` of it. The hand-off is a thread-local slot filled and
//! emptied around each poll: std has no safe way to carry data through a
//! `Waker`, and one poll never interleaves with another on its thread.
//!
//! * A task in [`TaskStep::Wait`] sits in the event's waiter queue among the
//!   threads blocked on the same cell and is released in arrival order; a
//!   banked permit is consumed on the spot and the task polled again before
//!   any other actor runs, which is what `wait()` returning at once is.
//! * **A poll must not block through the runtime.** No blocking sleeps or
//!   event waits inside an `async` body or a `poll`: the polling thread
//!   holds the baton on the task's behalf, so the engine panics with
//!   `Task::poll blocked through the runtime` and fails the run. Uncontended
//!   fast paths (banked semaphore permits, free mutexes, a blocking call
//!   whose leaf is ready at once) are fine.
//!
//! Virtual time advances identically whether entities are threads or tasks,
//! and the schedule stays deterministic: woken tasks and threads run in wake
//! order, all timers fire in `(due, arm-order)`, and a task's reaches a
//! [`ScheduleHook`](crate::ScheduleHook) as `<executor>/<n>/task sleep` or
//! `<executor>/<n>/event wait (timeout)`.

use std::cell::Cell;
use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::{Dur, Event, Runtime, Time, Wake};

/// What a task wants after one poll.
pub enum TaskStep {
    /// Re-poll after `d` of virtual time (a modelled delay: an arrival
    /// offset, a think time, a retry backoff). `Sleep(ZERO)` still yields.
    Sleep(Dur),
    /// Block exactly as a thread would in `event.wait()` (`None`) or
    /// `event.wait_timeout(d)`: same waiter queue, same timer. The next
    /// poll's [`TaskCtx::wake`] says how the wait ended.
    Wait(Event, Option<Dur>),
    /// The task is finished; drop it and release its join handle.
    Done,
}

impl TaskStep {
    /// Carry the step out by blocking the calling thread actor: how
    /// [`block_on`] drives a future a task would be polled through.
    pub(crate) fn block(self, rt: &Arc<dyn Runtime>) -> Option<Wake> {
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

thread_local! {
    /// The step the leaf future being polled on this thread yields.
    static STEP: Cell<Option<TaskStep>> = const { Cell::new(None) };
    /// How the step a leaf yielded ended, for that leaf when it resumes.
    static WAKE: Cell<Option<Wake>> = const { Cell::new(None) };
}

/// The one leaf: yields its step once to whatever polls it, then resolves
/// to how that step ended (`None` after a sleep).
struct Yield(Option<TaskStep>);

impl Future for Yield {
    type Output = Option<Wake>;
    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<Option<Wake>> {
        match self.0.take() {
            Some(step) => {
                STEP.set(Some(step));
                Poll::Pending
            }
            None => Poll::Ready(WAKE.take()),
        }
    }
}

/// Sleep for `d` of the runtime's time (`TaskStep::Sleep`). A zero `d`
/// still yields, so a body standing in for a thread's `sleep` skips a zero
/// delay itself.
pub async fn sleep(d: Dur) {
    Yield(Some(TaskStep::Sleep(d))).await;
}

/// Wait on `ev` as `ev.wait()` does (`TaskStep::Wait`, no timeout).
pub async fn wait(ev: &Event) {
    Yield(Some(TaskStep::Wait(ev.clone(), None))).await;
}

/// Wait on `ev` as `ev.wait_timeout(d)` does: [`Wake::Signaled`] if a
/// permit (or a broadcast) came first.
#[cfg(test)]
pub(crate) async fn wait_timeout(ev: &Event, d: Dur) -> Wake {
    let step = TaskStep::Wait(ev.clone(), Some(d));
    Yield(Some(step))
        .await
        .expect("a wait resumes with how it ended")
}

/// Poll `fut` once, resuming the leaf it waits in with `wake`: its output,
/// or the step its leaf yielded.
fn drive<F: Future + ?Sized>(fut: Pin<&mut F>, wake: Option<Wake>) -> Result<F::Output, TaskStep> {
    WAKE.set(wake);
    let polled = fut.poll(&mut Context::from_waker(Waker::noop()));
    WAKE.set(None);
    match polled {
        Poll::Ready(out) => Ok(out),
        Poll::Pending => Err(STEP
            .take()
            .expect("a task's future awaited something other than a runtime wait")),
    }
}

/// Run `fut` to completion on the calling thread actor, blocking in every
/// step its leaves yield: the blocking form of an `async` wait.
pub fn block_on<F: Future>(rt: &Arc<dyn Runtime>, fut: F) -> F::Output {
    let mut fut = pin!(fut);
    let mut wake = None;
    loop {
        match drive(fut.as_mut(), wake) {
            Ok(out) => return out,
            Err(step) => wake = step.block(rt),
        }
    }
}

/// A task written as an `async` body: each poll runs it to its next wait
/// and returns that wait's step.
impl<F: Future<Output = ()> + Send + ?Sized + 'static> Task for Pin<Box<F>> {
    fn poll(&mut self, cx: &mut TaskCtx<'_>) -> TaskStep {
        drive(self.as_mut(), cx.wake)
            .err()
            .unwrap_or(TaskStep::Done)
    }
}

/// An event-driven micro-actor, polled by its runtime.
pub trait Task: Send + 'static {
    /// Run as far as the task can go without blocking, then say what to do
    /// next. `cx` carries the current virtual time and how the
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

/// A spawned task as its runtime keeps it: the task and the runtime to
/// hand it in its [`TaskCtx`], taken out together for each poll, plus what
/// names it and publishes its completion. Built by
/// [`TaskExecutor::spawn`], consumed by [`Runtime::spawn_task`].
pub struct TaskCell {
    pub(crate) task: Option<(Box<dyn Task>, Arc<dyn Runtime>)>,
    /// Its last step was a [`TaskStep::Wait`], so the next poll's
    /// [`TaskCtx::wake`] says how that wait ended.
    pub(crate) waited: bool,
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
    /// Tasks spawned so far: the next task's `<n>`.
    spawned: AtomicU64,
}

impl TaskCell {
    /// `<executor>/<n>`, for a [`Choice`](crate::Choice), a deadlock row or
    /// a panic. Formatted on demand: 10⁵ idle tasks carry no 10⁵ strings.
    pub(crate) fn label(&self) -> String {
        format!("{}/{}", self.exec.name, self.n)
    }

    /// The task returned [`TaskStep::Done`]: release its joiners.
    pub(crate) fn finish(&self) {
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
            spawned: AtomicU64::new(0),
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
        let n = self.0.spawned.fetch_add(1, Ordering::Relaxed);
        let done = self.0.rt.event();
        self.0.rt.spawn_task(TaskCell {
            task: Some((task, self.0.rt.clone())),
            waited: false,
            daemon,
            exec: self.0.clone(),
            n,
            done: done.clone(),
        });
        TaskHandle(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{panic_message, simulate, SimRuntime};
    use parking_lot::Mutex;
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
        let sim = SimRuntime::new();
        sim.run_root(move |rt| {
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
        });
        let s = sim.stats();
        assert_eq!((s.tasks_spawned, s.peak_live_tasks), (2, 2));
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
        let sim = SimRuntime::new();
        sim.run_root(move |rt| {
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
        });
        let s = sim.stats();
        assert_eq!((s.tasks_spawned, s.peak_live_tasks), (100_000, 100_000));
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
        // The hand-written rule-breaker, and an `async` body that sleeps
        // through the runtime instead of awaiting `sleep`.
        type MakeTask = fn(&Arc<dyn Runtime>) -> Box<dyn Task>;
        let blockers: [MakeTask; 2] = [
            |_| Box::new(BlocksInPoll),
            |rt| {
                let rt = rt.clone();
                Box::new(Box::pin(async move { rt.sleep(Dur::from_millis(1)) }))
            },
        ];
        for blocker in blockers {
            let (root, bystander) = run_beside_a_bystander(move |rt| {
                let ex = TaskExecutor::new(&rt, "ex");
                ex.spawn(Box::new(Napper {
                    left: 0,
                    step: Dur::ZERO,
                    log: Default::default(),
                    id: 0,
                }));
                ex.spawn(blocker(&rt)).join(); // polled inside this join
            });
            let what = "Task::poll blocked through the runtime (ex/1: sleep)";
            assert_eq!(root, what);
            assert_eq!(bystander, format!("simulation poisoned: {what}"));
        }
    }

    /// `(id, instant)` per step a [`Script`] or [`script`] has finished.
    type StepLog = Arc<Mutex<Vec<(u32, Time)>>>;

    /// By hand: sleep 2 ms, a 3 ms wait on `never` that times out, a zero
    /// sleep, then a wait on `go`; logging after each.
    struct Script {
        k: u8,
        id: u32,
        never: Event,
        go: Event,
        log: StepLog,
    }
    impl Task for Script {
        fn poll(&mut self, cx: &mut TaskCtx<'_>) -> TaskStep {
            if self.k > 0 {
                self.log.lock().push((self.id, cx.now));
            }
            self.k += 1;
            match self.k {
                1 => TaskStep::Sleep(Dur::from_millis(2)),
                2 => TaskStep::Wait(self.never.clone(), Some(Dur::from_millis(3))),
                3 => {
                    assert_eq!(cx.wake, Some(Wake::Timeout));
                    TaskStep::Sleep(Dur::ZERO)
                }
                4 => TaskStep::Wait(self.go.clone(), None),
                _ => {
                    assert_eq!(cx.wake, Some(Wake::Signaled));
                    TaskStep::Done
                }
            }
        }
    }

    /// [`Script`] as an `async` body.
    async fn script(rt: Arc<dyn Runtime>, id: u32, never: Event, go: Event, log: StepLog) {
        let note = || log.lock().push((id, rt.now()));
        sleep(Dur::from_millis(2)).await;
        note();
        let d = Dur::from_millis(3);
        assert_eq!(wait_timeout(&never, d).await, Wake::Timeout);
        note();
        sleep(Dur::ZERO).await;
        note();
        wait(&go).await;
        note();
    }

    /// Offers every pending event within the window, fires the earliest,
    /// and keeps each offer as `(label, due)`.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<Vec<(String, Time)>>>);
    impl crate::ScheduleHook for Recorder {
        fn choose(&self, _now: Time, _fp: u64, eligible: &[crate::Choice]) -> usize {
            let offer = eligible.iter().map(|c| (c.label(), c.at)).collect();
            self.0.lock().push(offer);
            0
        }
    }

    #[test]
    fn an_async_body_keeps_the_schedule_of_its_hand_written_twin() {
        // Two copies of the script as tasks, by hand or as `async` bodies,
        // or one on a thread actor through `block_on`; `go` at 10 ms.
        let run = |how: &'static str| {
            let sim = SimRuntime::new();
            let hook = Arc::new(Recorder::default());
            sim.set_schedule_hook(hook.clone(), Dur::from_secs(1));
            let log = sim.run_root(move |rt| {
                let ex = TaskExecutor::new(&rt, "ex");
                let log = StepLog::default();
                let (never, go) = (rt.event(), rt.event());
                let copies = if how == "thread" { 1 } else { 2 };
                let spawned: Vec<Box<dyn FnOnce()>> = (0..copies)
                    .map(|id| {
                        let args = (never.clone(), go.clone(), log.clone());
                        let body = script(
                            rt.clone(),
                            id,
                            args.0.clone(),
                            args.1.clone(),
                            args.2.clone(),
                        );
                        let joined: Box<dyn FnOnce()> = match how {
                            "hand" => {
                                let (never, go, log) = args;
                                let h = ex.spawn(Box::new(Script {
                                    k: 0,
                                    id,
                                    never,
                                    go,
                                    log,
                                }));
                                Box::new(move || h.join())
                            }
                            "async" => {
                                let h = ex.spawn(Box::new(Box::pin(body)));
                                Box::new(move || h.join())
                            }
                            _ => {
                                let rt2 = rt.clone();
                                let t = crate::runtime::spawn(&rt, "thread", move || {
                                    block_on(&rt2, body)
                                });
                                Box::new(move || t.join_unwrap())
                            }
                        };
                        joined
                    })
                    .collect();
                rt.sleep(Dur::from_millis(10));
                go.signal_n(copies as usize);
                spawned.into_iter().for_each(|join| join());
                let got = log.lock().clone();
                got
            });
            let offers = hook.0.lock().clone();
            (log, offers)
        };
        let at = |ms| Time::ZERO + Dur::from_millis(ms);
        let (hand, hand_offers) = run("hand");
        assert_eq!(
            hand,
            [
                (0, at(2)),
                (1, at(2)),
                (0, at(5)),
                (1, at(5)),
                (0, at(5)),
                (1, at(5)),
                (0, at(10)),
                (1, at(10)),
            ]
        );
        assert!(
            hand_offers
                .iter()
                .flatten()
                .any(|(l, _)| l == "ex/1/event wait (timeout)"),
            "{hand_offers:?}"
        );
        assert_eq!(run("async"), (hand.clone(), hand_offers));
        let (thread, _) = run("thread");
        let first: Vec<_> = hand.into_iter().filter(|&(id, _)| id == 0).collect();
        assert_eq!(thread, first, "block_on reaches the same instants");
    }

    #[test]
    fn a_leaf_sees_its_timeout_and_claims_a_permit_only_when_signaled() {
        let sim = SimRuntime::new();
        let log = sim.run_root(|rt| {
            let ex = TaskExecutor::new(&rt, "ex");
            let log = Arc::new(Mutex::new(Vec::new()));
            let ev = rt.event();
            let (ev2, log2, rt2) = (ev.clone(), log.clone(), rt.clone());
            ex.spawn(Box::new(Box::pin(async move {
                let wake = wait_timeout(&ev2, Dur::from_millis(3)).await;
                log2.lock().push(("timed", wake, rt2.now()));
            })))
            .join();
            ev.signal(); // banked: the expired wait took nothing
            let (ev2, log2, rt2) = (ev.clone(), log.clone(), rt.clone());
            ex.spawn(Box::new(Box::pin(async move {
                let wake = wait_timeout(&ev2, Dur::from_millis(1)).await;
                log2.lock().push(("banked", wake, rt2.now()));
            })))
            .join();
            // The signalled wait claimed the permit: none is left.
            assert_eq!(ev.wait_timeout(Dur::ZERO), Wake::Timeout);
            // A semaphore's permit: the second acquirer waits for the release.
            let sem = crate::sync::Semaphore::new(&rt, 1);
            let hs: Vec<_> = (0..2)
                .map(|id| {
                    let (sem, log, rt) = (sem.clone(), log.clone(), rt.clone());
                    ex.spawn(Box::new(Box::pin(async move {
                        sem.acquire_async().await;
                        let tag = ["first", "second"][id];
                        log.lock().push((tag, Wake::Signaled, rt.now()));
                        sleep(Dur::from_millis(2)).await;
                        sem.release();
                    })))
                })
                .collect();
            hs.iter().for_each(TaskHandle::join);
            let got = log.lock().clone();
            got
        });
        let at = |ms| Time::ZERO + Dur::from_millis(ms);
        assert_eq!(
            log,
            [
                ("timed", Wake::Timeout, at(3)),
                ("banked", Wake::Signaled, at(3)),
                ("first", Wake::Signaled, at(3)),
                ("second", Wake::Signaled, at(5)),
            ]
        );
        assert_eq!(sim.stats().timers_armed, 3, "3 ms wait and two 2 ms sleeps");
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
        let (_ex, dropped) = sim.run_root(|rt| {
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
    }
}
