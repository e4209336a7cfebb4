//! The virtual-time runtime.
//!
//! # Model
//!
//! The engine is a plain discrete-event dispatcher over *actors*. An actor
//! with a stack (an MPI rank, a SEMPLAR compute or I/O thread) is a **real
//! OS thread**, the engine's coroutine; one that only ever waits (a swarm
//! client session, a server connection handler, a stream's demultiplexer and
//! sender) is a poll-style [`Task`](crate::Task) state machine. Exactly one
//! actor holds the *baton* and runs; every other thread is parked. Actors
//! may only block through the engine — a thread via [`Runtime::sleep`] or an
//! engine-created [`Event`], a task by returning a [`TaskStep`] that sleeps
//! or waits on such an event — and the baton moves only when its holder
//! blocks or exits. Then one loop, `dispatch`, hands it on:
//!
//! * to the head of the **ready queue** — actors woken by a signal, a
//!   broadcast or a timer, and freshly spawned ones, in the
//!   order they were woken — or,
//! * when nobody is ready, it fires exactly **one** pending event, the
//!   earliest by `(due time, arm order)`, moving the virtual clock to its
//!   due time; the woken actor becomes ready and gets the baton.
//!
//! A thread gets the baton by being unparked, once the dispatcher has let go
//! of the engine lock; a task is polled on the spot by whichever thread is
//! dispatching, and the loop goes on: a thread is parked only when the next
//! ready actor *is* a thread.
//!
//! Waking only enqueues: a signalled waiter runs after its signaller blocks,
//! a child after its spawner blocks. Virtual time therefore advances in
//! discrete hops, never passes while any actor still has work to do, and the
//! whole interleaving — same-instant order included — is a function of the
//! program, not of the host's thread scheduler. The price is host
//! parallelism: actors never burn CPU side by side.
//!
//! A [`ScheduleHook`] replaces only the "earliest" in the second bullet with
//! its own pick among the events due within a window; the default schedule
//! is the hook that always picks index 0.
//!
//! If every actor is blocked and no event is pending, the simulation has
//! genuinely deadlocked; the engine panics with a table of every actor and
//! what it is blocked on, then poisons itself. Poison voids the baton: every
//! parked actor is released at once, sees the poison and unwinds.
//!
//! # Why threads at all, rather than an event loop?
//!
//! The point of this reproduction is to run the *actual* SEMPLAR
//! implementation — compute thread, FIFO I/O queue, condition-variable
//! wakeups (Fig. 2 of the paper) — not a model of it. Mapping each simulated
//! thread onto a real thread lets the identical library code run under
//! virtual time (for the WAN-scale experiments) and wall-clock time (unit
//! tests, examples) without modification. So threads are for code that
//! needs a stack — those compute and I/O threads, MPI ranks,
//! `CompressedWriter` — and a state machine costs none.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering as AtOrd};
use std::sync::Arc;
use std::thread::Thread;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::runtime::{Alarm, AlarmApi, Event, EventApi, JoinHandle, Runtime, Wake};
use crate::task::{TaskCell, TaskCtx, TaskStep};
use crate::time::{Dur, Time};

thread_local! {
    static CURRENT_ACTOR: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
    /// Set alongside [`CURRENT_ACTOR`]: the actor belongs to an engine
    /// marked with [`SimRuntime::mark_quiet`].
    static QUIET_ACTOR: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True while the calling thread runs, or polls, an actor of an engine
/// marked with [`SimRuntime::mark_quiet`]: a panic hook asks this to leave
/// the panics of such engines to their owner.
pub fn on_quiet_actor() -> bool {
    QUIET_ACTOR.with(|q| q.get())
}

const SLOT_PENDING: u8 = 0;
const SLOT_SIGNALED: u8 = 1;
const SLOT_TIMEOUT: u8 = 2;

/// One blocked wait, or an alarm's pending timer. All fields are only
/// mutated while the engine lock is held — but an alarm's `clear` and drop,
/// which only mark its slot stale; the atomics exist purely to avoid
/// `unsafe` interior mutability. A slot is pending only while its owner is
/// blocked on it: registering it (in an event's waiter list, the timer
/// heap) and blocking happen under one hold of the engine lock.
pub(crate) struct WaitSlot {
    state: AtomicU8,
    actor: u64,
    /// Explicit [`Runtime::schedule_point`] label, if this wait is one.
    tag: Option<Arc<str>>,
    /// An alarm's slot wakes no actor: its timer signals this event.
    alarm: Option<Event>,
}

impl WaitSlot {
    fn new(actor: u64, tag: Option<&str>) -> Arc<WaitSlot> {
        Arc::new(WaitSlot {
            state: AtomicU8::new(SLOT_PENDING),
            actor,
            tag: tag.map(Arc::from),
            alarm: None,
        })
    }

    fn is_woken(&self) -> bool {
        self.state.load(AtOrd::Relaxed) != SLOT_PENDING
    }

    /// How the wait ended, as the waiter is told.
    fn wake(&self) -> Option<Wake> {
        match self.state.load(AtOrd::Relaxed) {
            SLOT_SIGNALED => Some(Wake::Signaled),
            SLOT_TIMEOUT => Some(Wake::Timeout),
            _ => None,
        }
    }
}

struct TimerEntry {
    at: u64,
    seq: u64,
    slot: Arc<WaitSlot>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    // Reversed so the BinaryHeap (a max-heap) pops the earliest timer first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One eligible wake at a schedule choice point: a pending timer (or
/// [`Runtime::schedule_point`] yield) the engine could fire next.
#[derive(Clone, Debug)]
pub struct Choice {
    /// Name of the actor that would wake.
    pub actor: String,
    /// What the actor is blocked on (`"sleep"`, `"event wait (timeout)"`,
    /// `"schedule point"`).
    pub blocked_on: &'static str,
    /// The virtual time the wake would happen at (its due time, or the
    /// current instant if the event was already deferred past it).
    pub at: Time,
    /// Explicit label, when the wait is a tagged
    /// [`Runtime::schedule_point`].
    pub tag: Option<Arc<str>>,
}

impl Choice {
    /// A short human-readable label for traces and taxonomy: the explicit
    /// tag when present, otherwise `actor/blocked_on`.
    pub fn label(&self) -> String {
        match &self.tag {
            Some(t) => t.to_string(),
            None => format!("{}/{}", self.actor, self.blocked_on),
        }
    }
}

/// A pluggable scheduler for systematic exploration.
///
/// The dispatcher fires one pending event whenever no actor is ready. With
/// a hook installed via [`SimRuntime::set_schedule_hook`], "which one" is
/// the hook's decision: the engine collects *every* pending event due
/// within `window` of the earliest one and asks the hook which to fire
/// next; the chosen actor runs until it blocks again, then the remaining
/// (still-eligible) events plus any newly due ones form the next choice
/// point. Choosing index 0 always reproduces the default schedule:
/// eligible events are presented sorted by `(effective time, arm order)`.
///
/// `choose` is called with the engine lock held: it must not call back
/// into the runtime (no sleeps, spawns, or event ops) and should be a pure
/// function of its arguments plus the hook's own bookkeeping.
pub trait ScheduleHook: Send + Sync {
    /// Pick which of `eligible` (always ≥ 2 entries) fires next, by index.
    /// `fingerprint` hashes the engine state at this point (virtual time,
    /// every actor's name and block reason, the pending eligible set) for
    /// visited-state dedup.
    fn choose(&self, now: Time, fingerprint: u64, eligible: &[Choice]) -> usize;
}

struct ActorInfo {
    /// What the actor is blocked on (for diagnostics) and the wait itself
    /// (so poison and quiescence can release it); `None` while the actor
    /// runs or sits in the ready queue.
    blocked: Option<(&'static str, Arc<WaitSlot>)>,
    /// A thread actor's OS thread, once it has started: what a hand-off
    /// unparks.
    thread: Option<Thread>,
    body: Body,
}

/// What runs when an actor gets the baton.
enum Body {
    /// Code with a stack, on a thread of its own, under this name.
    Thread(String),
    /// A state machine the dispatcher polls inline.
    Task(TaskCell),
}

impl ActorInfo {
    fn new(body: Body) -> ActorInfo {
        ActorInfo {
            blocked: None,
            thread: None,
            body,
        }
    }

    fn name(&self) -> Cow<'_, str> {
        match &self.body {
            Body::Thread(name) => Cow::Borrowed(name),
            Body::Task(cell) => Cow::Owned(cell.label()),
        }
    }

    /// Daemon tasks (e.g. server connection handlers idle on their request
    /// channel) do not keep the simulation alive: when only daemons remain,
    /// they are dropped where they wait. A thread is never a daemon.
    fn daemon(&self) -> bool {
        matches!(&self.body, Body::Task(cell) if cell.daemon)
    }

    fn blocked_on(&self) -> &'static str {
        self.blocked.as_ref().map_or("(exiting)", |b| b.0)
    }
}

#[derive(Default)]
struct EngineState {
    now: u64,
    /// The baton: the one actor executing simulation code.
    running: Option<u64>,
    /// The thread `dispatch` just gave the baton to, for `release` to
    /// unpark once the lock is down.
    handoff: Option<Thread>,
    /// Actors woken (or spawned) but not yet run, in wake order.
    ready: VecDeque<u64>,
    /// Indexed by actor id — ids are dense and never reused — so a lookup
    /// is an index and iteration is in spawn order; `None` once it has left.
    actors: Vec<Option<ActorInfo>>,
    timers: BinaryHeap<TimerEntry>,
    next_seq: u64,
    poisoned: bool,
    /// Human-readable cause of the poisoning (first panic / deadlock).
    poison_cause: String,
    /// The counters [`SimRuntime::stats`] reports.
    stats: SimStats,
    /// Live thread actors, live tasks, and live non-daemon actors of either
    /// kind: the simulation is complete when the last reaches zero.
    live_threads: usize,
    live_tasks: usize,
    live_nondaemon: usize,
    /// Systematic-exploration scheduler, if installed. `None` fires the
    /// earliest pending event, which is what a hook picking index 0 does.
    hook: Option<Arc<dyn ScheduleHook>>,
    /// Eligibility window (ns): pending events within this much of the
    /// earliest one are presented together as one choice point.
    hook_window: u64,
    /// Events pulled into an eligible set but not yet fired (the hook
    /// deferred them past their due time). Always empty without a hook.
    deferred: Vec<TimerEntry>,
}

pub(crate) struct Engine {
    state: Mutex<EngineState>,
    /// `EngineState::now`, for [`Runtime::now`] without the lock.
    clock: AtomicU64,
    /// Signalled when the last actor may have left, for [`SimRuntime::wait_done`];
    /// actors never wait on it (each parks on its own thread).
    done: Condvar,
    /// Set by [`SimRuntime::mark_quiet`].
    quiet: AtomicBool,
    /// Alarms not yet dropped: each may hold one live timer entry. Kept
    /// off the lock, since a network may be dropped while it is held.
    alarms: AtomicUsize,
}

type Guard<'a> = MutexGuard<'a, EngineState>;

impl EngineState {
    /// Enter `info` as a new actor at the back of the ready queue: it first
    /// runs when its spawner blocks; a spawner outside the simulation finds
    /// the baton free and starts it.
    fn register(&mut self, info: ActorInfo) -> u64 {
        if self.poisoned {
            panic!("cannot spawn into a poisoned simulation");
        }
        let id = self.actors.len() as u64;
        self.live_nondaemon += usize::from(!info.daemon());
        self.actors.push(Some(info));
        self.ready.push_back(id);
        id
    }

    /// Actor `id`, unless it has left.
    fn actor(&mut self, id: u64) -> Option<&mut ActorInfo> {
        self.actors.get_mut(id as usize)?.as_mut()
    }

    /// Actors that have not left: the simulation is over at zero.
    fn live(&self) -> usize {
        self.live_threads + self.live_tasks
    }

    /// The actors that have not left, with their ids, in spawn order.
    fn live_actors(&self) -> impl Iterator<Item = (u64, &ActorInfo)> {
        (self.actors.iter().enumerate()).filter_map(|(id, a)| Some((id as u64, a.as_ref()?)))
    }

    fn task_cell(&mut self, id: u64) -> &mut TaskCell {
        match self.actor(id).map(|a| &mut a.body) {
            Some(Body::Task(cell)) => cell,
            _ => unreachable!("actor #{id} is not a registered task"),
        }
    }

    /// Record that actor `id`, about to give up the baton, waits on `slot`.
    fn block_on(&mut self, id: u64, why: &'static str, slot: Arc<WaitSlot>) {
        let info = self.actor(id).expect("blocking actor registered");
        info.blocked = Some((why, slot));
    }
}

impl Engine {
    fn current_actor(&self) -> u64 {
        CURRENT_ACTOR.with(|c| c.get()).unwrap_or_else(|| {
            panic!(
                "blocking SimRuntime operation called from a thread that is not a \
                 registered actor; spawn work via SimRuntime::spawn (or run_root)"
            )
        })
    }

    /// Mark `slot` woken and queue its owner behind every actor already
    /// ready. Never moves the baton.
    fn wake(&self, st: &mut EngineState, slot: &WaitSlot, reason: u8) {
        if slot.is_woken() {
            return;
        }
        slot.state.store(reason, AtOrd::Relaxed);
        if let Some(info) = st.actor(slot.actor) {
            info.blocked = None;
            st.ready.push_back(slot.actor);
        }
    }

    /// The one scheduler. With the baton free, hand it to the next ready
    /// actor — note a thread in `handoff` and return, or poll a task here
    /// and go on — and while nobody is ready, fire one pending event. A
    /// no-op while an actor holds the baton, so callers that may run outside
    /// the simulation (a harness thread spawning or signalling) call it
    /// unconditionally, and pass the guard it returns to `release`. Takes
    /// the engine lock and gives it back: it is released around each poll.
    fn dispatch<'a>(self: &'a Arc<Self>, mut st: Guard<'a>) -> Guard<'a> {
        while !st.poisoned && st.running.is_none() {
            if let Some(id) = st.ready.pop_front() {
                st.running = Some(id);
                let info = st.actor(id).expect("ready actor registered");
                if let Body::Task(_) = info.body {
                    st = self.poll_task(st, id);
                } else if CURRENT_ACTOR.with(|c| c.get()) != Some(id) {
                    // (Our own timer may have been the next event; and a
                    // child whose thread has not started yet finds the
                    // baton when it does.)
                    st.handoff = info.thread.clone();
                }
                continue;
            }
            if st.live() == 0 {
                break;
            }
            // Daemons do not keep the simulation alive: once every
            // non-daemon actor has exited, a daemon's pending timer (a
            // heartbeat loop, a periodic monitor) must not advance the
            // clock forever. Drop them instead.
            if st.live_nondaemon == 0 {
                st = self.quiesce(st);
                continue;
            }
            // Drop events whose waiters were already woken by a signal.
            st.deferred.retain(|e| !e.slot.is_woken());
            while st.timers.peek().is_some_and(|e| e.slot.is_woken()) {
                st.timers.pop();
            }
            if st.deferred.is_empty() && st.timers.peek().is_none() {
                self.deadlock(&mut st);
            }
            let e = match st.hook.clone() {
                None => st.timers.pop().expect("pending set checked non-empty"),
                Some(hook) => self.choose_event(&mut st, &*hook),
            };
            // A deferred event's due time may be in the past, in which
            // case it fires "now".
            if e.at > st.now {
                st.now = e.at;
                self.clock.store(e.at, AtOrd::Relaxed);
                st.stats.clock_advances += 1;
            }
            match &e.slot.alarm {
                None => self.wake(&mut st, &e.slot, SLOT_TIMEOUT),
                Some(ev) => {
                    e.slot.state.store(SLOT_TIMEOUT, AtOrd::Relaxed);
                    sim_event(ev).signal_locked(&mut st);
                }
            }
        }
        st
    }

    /// Drop the engine lock, then unpark the thread `dispatch` handed the
    /// baton to. Woken under the lock, on one CPU it would preempt its
    /// waker only to wait for the mutex the waker still holds.
    fn release(&self, mut st: Guard<'_>) {
        let next = st.handoff.take();
        drop(st);
        next.iter().for_each(Thread::unpark);
    }

    /// Poll task `id`, which holds the baton, on this thread with the engine
    /// unlocked; then apply the step it returns and free the baton — unless
    /// a banked permit (or a zero timeout) ends the wait it asks for at
    /// once, as a thread's `wait()` returns without yielding: then it is
    /// polled again, baton kept. For the poll the task's id is the thread's
    /// current actor, so a blocking call made inside it reaches `block`
    /// under that id and is refused there.
    fn poll_task<'a>(self: &'a Arc<Self>, mut st: Guard<'a>, id: u64) -> Guard<'a> {
        let now = Time(st.now);
        let cell = st.task_cell(id);
        let mut task = cell.task.take().expect("one poll of a task at a time");
        let mut wake = cell.wait.take().and_then(|slot| slot.wake());
        let rt = cell.rt().clone();
        loop {
            drop(st);
            let outer = CURRENT_ACTOR.with(|c| c.replace(Some(id)));
            let outer_quiet = QUIET_ACTOR.with(|q| q.replace(self.quiet.load(AtOrd::Relaxed)));
            let mut cx = TaskCtx { rt: &rt, now, wake };
            let step = catch_unwind(AssertUnwindSafe(|| task.poll(&mut cx)));
            CURRENT_ACTOR.with(|c| c.set(outer));
            QUIET_ACTOR.with(|q| q.set(outer_quiet));
            st = self.state.lock();
            let step = step.unwrap_or_else(|p| {
                let name = st.task_cell(id).label();
                let cause = format!("panic in a task {name}: {}", panic_message(&*p));
                self.poison(&mut st, &cause);
                resume_unwind(p)
            });
            let (slot, why, waited) = match step {
                TaskStep::Done => {
                    // Publish completion *before* freeing the baton, for the
                    // reason a thread does (see `spawn_inner`): the joiner
                    // must be ready before the dispatcher looks for someone
                    // to run.
                    let info = st.actors[id as usize].take().expect("polled task");
                    drop(st);
                    if let Body::Task(cell) = &info.body {
                        cell.finish();
                    }
                    let daemon = info.daemon();
                    drop((info, task));
                    st = self.state.lock();
                    st.live_tasks -= 1;
                    st.live_nondaemon -= usize::from(!daemon);
                    if st.live() == 0 {
                        self.done.notify_all();
                    }
                    break;
                }
                TaskStep::Wait(ev, timeout) => {
                    let sim = ev.as_any().downcast_ref::<SimEvent>();
                    let Some(sim) = sim.filter(|e| Arc::ptr_eq(&e.eng, self)) else {
                        let msg = "TaskStep::Wait on an event of another runtime";
                        self.poison(&mut st, msg);
                        panic!("{msg}");
                    };
                    match sim.begin_wait(&mut st, timeout, || id) {
                        Ok(w) => {
                            wake = Some(w);
                            continue;
                        }
                        Err((slot, why)) => (slot, why, true),
                    }
                }
                TaskStep::Sleep(d) => {
                    let slot = WaitSlot::new(id, None);
                    self.push_timer(&mut st, now.0.saturating_add(d.as_nanos()), slot.clone());
                    (slot, "task sleep", false)
                }
            };
            let cell = st.task_cell(id);
            cell.task = Some(task);
            cell.wait = waited.then(|| slot.clone());
            st.block_on(id, why, slot);
            break;
        }
        st.running = None;
        st
    }

    /// The exploration schedule: collect every pending event due within
    /// `hook_window` of the earliest and let the [`ScheduleHook`] pick the
    /// one to fire. Events the hook passes over stay eligible (they fire
    /// late, at the chosen event's time) — that is exactly the
    /// delivery-order freedom a message-level model checker explores.
    fn choose_event(&self, st: &mut EngineState, hook: &dyn ScheduleHook) -> TimerEntry {
        let now = st.now;
        // Earliest effective wake time over every pending event.
        let heap_min = st.timers.peek().map(|e| e.at);
        let def_min = st.deferred.iter().map(|e| e.at.max(now)).min();
        let base = heap_min
            .into_iter()
            .chain(def_min)
            .min()
            .expect("pending set checked non-empty");
        let cutoff = base.saturating_add(st.hook_window);
        while let Some(e) = st.timers.peek() {
            if e.slot.is_woken() {
                st.timers.pop();
                continue;
            }
            if e.at > cutoff {
                break;
            }
            let e = st.timers.pop().expect("peeked");
            st.deferred.push(e);
        }
        // Deterministic presentation order: index 0 is always what the
        // default schedule would fire next.
        st.deferred.sort_by_key(|e| (e.at.max(now), e.seq));
        let idx = if st.deferred.len() == 1 {
            0
        } else {
            let eligible: Vec<Choice> = st
                .deferred
                .iter()
                .map(|e| {
                    // An alarm wakes whoever waits on its event first.
                    let (actor, blocked_on) = match &e.slot.alarm {
                        Some(ev) => (sim_event(ev).first_waiter(), Some("alarm")),
                        None => (Some(e.slot.actor), None),
                    };
                    let info = actor.and_then(|id| st.actors.get(id as usize)?.as_ref());
                    Choice {
                        actor: info.map(|a| a.name().into_owned()).unwrap_or_default(),
                        blocked_on: blocked_on
                            .unwrap_or_else(|| info.map_or("(exiting)", ActorInfo::blocked_on)),
                        at: Time(e.at.max(now)),
                        tag: e.slot.tag.clone(),
                    }
                })
                .collect();
            st.stats.choice_points += 1;
            st.stats.choice_alternatives += eligible.len() as u64;
            let fp = fingerprint_locked(st);
            // A hook that panics or picks out of range fails the run like a
            // deadlock does: poison first, so no parked actor is stranded.
            catch_unwind(AssertUnwindSafe(|| {
                let i = hook.choose(Time(now), fp, &eligible);
                assert!(
                    i < eligible.len(),
                    "ScheduleHook chose {i} of {} eligible events",
                    eligible.len()
                );
                i
            }))
            .unwrap_or_else(|p| {
                self.poison(st, &panic_message(&*p));
                resume_unwind(p)
            })
        };
        st.deferred.remove(idx)
    }

    /// Only blocked daemon tasks remain: the simulation is complete. They
    /// are taken off the table — their slots marked, so the waiter entries
    /// and timers they leave are skipped — and dropped with the engine
    /// unlocked and the baton withheld: a state machine's destructor may
    /// signal an event.
    fn quiesce<'a>(&'a self, mut st: Guard<'a>) -> Guard<'a> {
        let mut tasks = Vec::new();
        for slot in st.actors.iter_mut() {
            if let Some((_, wait)) = slot.as_ref().and_then(|a| a.blocked.as_ref()) {
                wait.state.store(SLOT_SIGNALED, AtOrd::Relaxed);
                tasks.extend(slot.take());
            }
        }
        st.live_tasks -= tasks.len();
        st.running = Some(u64::MAX);
        drop(st);
        drop(tasks);
        st = self.state.lock();
        st.running = None;
        self.done.notify_all();
        st
    }

    /// Every actor is blocked and nothing can wake one: report and poison.
    /// The table is capped — a hung swarm is 10⁵ blocked tasks.
    fn deadlock(&self, st: &mut EngineState) -> ! {
        const ROWS: usize = 32;
        let mut table = String::new();
        for (id, a) in st.live_actors().take(ROWS) {
            let (name, why) = (a.name(), a.blocked_on());
            table.push_str(&format!("\n  actor #{id} {name:?}: blocked on {why}"));
        }
        let more = st.live().saturating_sub(ROWS);
        if more > 0 {
            let tasks = st.live_tasks;
            table.push_str(&format!("\n  … and {more} more ({tasks} tasks blocked)"));
        }
        let msg = format!(
            "simulation deadlock at {}: every actor is blocked and no timer is pending{table}",
            Time(st.now)
        );
        self.poison(st, &msg);
        panic!("{msg}");
    }

    /// Void the baton: release every parked thread, ready or blocked, to see
    /// the poison and unwind. `dispatch` does nothing from here on, so no
    /// task is polled again; [`SimRuntime::wait_done`] drops them.
    fn poison(&self, st: &mut EngineState, cause: &str) {
        if !st.poisoned {
            st.poisoned = true;
            st.poison_cause = cause.to_string();
        }
        for a in st.actors.iter_mut().flatten() {
            if let Some((_, slot)) = a.blocked.take() {
                slot.state.store(SLOT_SIGNALED, AtOrd::Relaxed);
            }
            a.thread.iter().for_each(Thread::unpark);
        }
        if st.live_threads == 0 {
            self.done.notify_all();
        }
    }

    /// Park the calling actor's thread until it holds the baton (or the
    /// engine is poisoned), first waking whoever `dispatch` handed it to.
    fn park_until_running<'a>(&'a self, mut st: Guard<'a>, me: u64) -> Guard<'a> {
        while st.running != Some(me) && !st.poisoned {
            self.release(st);
            std::thread::park();
            st = self.state.lock();
        }
        if st.poisoned {
            panic!("simulation poisoned: {}", st.poison_cause);
        }
        st
    }

    /// First thing on a new actor's thread: publish where to unpark it,
    /// then wait for the baton like any other ready actor.
    fn start(&self, id: u64) {
        let mut st = self.state.lock();
        let info = st.actor(id).expect("actor registered by spawn");
        info.thread = Some(std::thread::current());
        self.park_until_running(st, id);
    }

    /// Block the current actor on `slot` and pass the baton on. Takes the
    /// engine lock the caller registered the slot under. Returns the wake
    /// reason.
    fn block(self: &Arc<Self>, mut st: Guard<'_>, slot: &Arc<WaitSlot>, why: &'static str) -> Wake {
        if st.poisoned {
            panic!("simulation poisoned: {}", st.poison_cause);
        }
        debug_assert_eq!(st.running, Some(slot.actor), "blocking without the baton");
        if let Some(Body::Task(cell)) = st.actor(slot.actor).map(|a| &a.body) {
            // The caller is a thread polling this task: parking it here
            // would strand the baton it holds on the task's behalf.
            let msg = format!(
                "Task::poll blocked through the runtime ({}: {why})",
                cell.label()
            );
            self.poison(&mut st, &msg);
            panic!("{msg}");
        }
        st.block_on(slot.actor, why, slot.clone());
        st.running = None;
        let st = self.dispatch(st);
        drop(self.park_until_running(st, slot.actor));
        debug_assert!(slot.is_woken(), "woken slot left pending");
        slot.wake()
            .expect("a thread's wait ends in a signal or its timeout")
    }

    fn push_timer(&self, st: &mut EngineState, at: u64, slot: Arc<WaitSlot>) {
        let seq = st.next_seq;
        st.next_seq += 1;
        st.stats.timers_armed += 1;
        st.timers.push(TimerEntry { at, seq, slot });
        // A wake that beats a timer, or an alarm set again, leaves its entry
        // behind; an actor or an alarm has at most one live one, so sweep
        // once stale ones are most of the heap.
        let alarms = self.alarms.load(AtOrd::Relaxed);
        if st.timers.len() > 2 * (st.live() + alarms) + 64 {
            st.timers.retain(|e| !e.slot.is_woken());
        }
    }

    fn schedule_point(self: &Arc<Self>, tag: &str) {
        let mut st = self.state.lock();
        // Without a hook this is free: no timer, no hand-off.
        if st.hook.is_none() {
            return;
        }
        let slot = WaitSlot::new(self.current_actor(), Some(tag));
        let at = st.now;
        self.push_timer(&mut st, at, slot.clone());
        self.block(st, &slot, "schedule point");
    }

    fn exit(self: &Arc<Self>, id: u64) {
        let mut st = self.state.lock();
        st.actors[id as usize].take().expect("exiting actor");
        st.live_threads -= 1;
        st.live_nondaemon -= 1;
        if st.running == Some(id) {
            st.running = None;
        }
        let st = self.dispatch(st);
        if st.live_threads == 0 {
            // Perhaps the last actor; let anyone in wait_done() look.
            self.done.notify_all();
        }
        self.release(st);
    }
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Counters describing a finished (or running) simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    /// How many times the virtual clock hopped forward.
    pub clock_advances: u64,
    /// Thread actors ever spawned over the run — every one of these cost
    /// a real OS thread.
    pub actors_spawned: u64,
    /// The largest number of simultaneously live thread actors.
    pub peak_live_actors: usize,
    /// Event-driven tasks ever spawned on
    /// [`TaskExecutor`](crate::task::TaskExecutor)s bound to this runtime —
    /// these cost a state machine, not a thread.
    pub tasks_spawned: u64,
    /// The largest number of simultaneously live event-driven tasks.
    pub peak_live_tasks: usize,
    /// Timers armed over the run: sleeps, timed waits and alarm settings.
    pub timers_armed: u64,
    /// Scheduler choice points faced: instants where an installed
    /// [`ScheduleHook`] saw ≥ 2 eligible events. Always 0 on the default
    /// schedule (no hook), where simultaneity is resolved in arm order.
    pub choice_points: u64,
    /// Total eligible alternatives summed over all choice points — the
    /// exploration fan-out a model checker would face on this run.
    pub choice_alternatives: u64,
}

/// Hash the schedulable state of the engine: the instant, every actor's
/// name / block reason (as an order-independent multiset; at a choice point
/// every actor is blocked), and the pending eligible set. Two runs that reach the same fingerprint
/// at a choice point are (to this abstraction) in the same state, so a
/// model checker can prune the repeat subtree.
fn fingerprint_locked(st: &EngineState) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut actors: Vec<(Cow<'_, str>, &str, bool)> = st
        .live_actors()
        .map(|(_, a)| (a.name(), a.blocked_on(), a.daemon()))
        .collect();
    actors.sort_unstable();
    let mut pending: Vec<(u64, &str)> = st
        .deferred
        .iter()
        .map(|e| {
            let label: &str = match &e.slot.tag {
                Some(t) => t,
                None => "",
            };
            (e.at.max(st.now) - st.now, label)
        })
        .collect();
    pending.sort_unstable();
    // Unkeyed DefaultHasher: deterministic across runs and processes (the
    // ShardMap / pool route-key idiom).
    let mut h = DefaultHasher::new();
    st.now.hash(&mut h);
    actors.hash(&mut h);
    pending.hash(&mut h);
    h.finish()
}

/// The virtual-time [`Runtime`]. See the module docs for the model.
pub struct SimRuntime {
    eng: Arc<Engine>,
}

impl Default for SimRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl SimRuntime {
    /// Create a fresh simulation with the clock at [`Time::ZERO`].
    pub fn new() -> SimRuntime {
        SimRuntime {
            eng: Arc::new(Engine {
                state: Mutex::new(EngineState::default()),
                clock: AtomicU64::new(0),
                done: Condvar::new(),
                quiet: AtomicBool::new(false),
                alarms: AtomicUsize::new(0),
            }),
        }
    }

    /// Mark this engine quiet: its owner reports the panics of its actors
    /// itself (the model checker turns them into violations), so a panic
    /// hook may skip them — see [`on_quiet_actor`]. Mark before spawning
    /// the workload. Other engines in the process are untouched.
    pub fn mark_quiet(&self) {
        self.eng.quiet.store(true, AtOrd::Relaxed);
    }

    /// A shareable `Arc<dyn Runtime>` handle.
    pub fn handle(&self) -> Arc<dyn Runtime> {
        Arc::new(SimRuntime {
            eng: self.eng.clone(),
        })
    }

    /// Block the *calling OS thread* (which must not be an actor) until every
    /// actor has exited — every thread actor, if the simulation was
    /// poisoned: the tasks it stranded are dropped here, after the engine
    /// lock, because a state machine's destructor may signal an event.
    pub fn wait_done(&self) {
        let mut st = self.eng.state.lock();
        while st.live_threads > 0 || !(st.poisoned || st.live() == 0) {
            self.eng.done.wait(&mut st);
        }
        let stranded = std::mem::take(&mut st.actors);
        drop(st);
        drop(stranded);
    }

    /// Spawn `f` as the root actor, wait for the whole simulation to finish,
    /// and return `f`'s result. Panics from any actor propagate, and so does
    /// a failure after the root returned: a thread it left blocked for good
    /// is a deadlock.
    pub fn run_root<T, F>(&self, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(Arc<dyn Runtime>) -> T + Send + 'static,
    {
        let rt = self.handle();
        let out: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let out2 = out.clone();
        let h = self.handle().spawn(
            "root",
            Box::new(move || {
                let v = f(rt);
                *out2.lock() = Some(v);
            }),
        );
        self.wait_done();
        h.join_unwrap();
        let st = self.eng.state.lock();
        if st.poisoned {
            panic!("{}", st.poison_cause);
        }
        drop(st);
        let v = out.lock().take();
        v.expect("root actor did not produce a value")
    }

    /// Simulation counters.
    pub fn stats(&self) -> SimStats {
        self.eng.state.lock().stats
    }

    /// Install a [`ScheduleHook`] for systematic exploration. `window` is
    /// the eligibility window: pending events due within `window` of the
    /// earliest one are presented together as one choice point, so the
    /// hook can reorder (delay) nearby events against each other. Install
    /// before spawning the workload; a window of zero still serializes
    /// exactly-simultaneous wakes through the hook.
    pub fn set_schedule_hook(&self, hook: Arc<dyn ScheduleHook>, window: Dur) {
        let mut st = self.eng.state.lock();
        st.hook = Some(hook);
        st.hook_window = window.as_nanos();
    }
}

/// One-shot helper: build a [`SimRuntime`], run `f` as the root actor, and
/// return its result once the simulation drains.
pub fn simulate<T, F>(f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(Arc<dyn Runtime>) -> T + Send + 'static,
{
    SimRuntime::new().run_root(f)
}

impl Runtime for SimRuntime {
    fn now(&self) -> Time {
        Time(self.eng.clock.load(AtOrd::Relaxed))
    }

    fn sleep(&self, d: Dur) {
        if d.is_zero() {
            return;
        }
        let slot = WaitSlot::new(self.eng.current_actor(), None);
        let mut st = self.eng.state.lock();
        let at = st.now.saturating_add(d.as_nanos());
        self.eng.push_timer(&mut st, at, slot.clone());
        self.eng.block(st, &slot, "sleep");
    }

    /// A thread actor is never a daemon: the simulation ends only once it
    /// has returned, and one left blocked is a deadlock that names it.
    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send + 'static>) -> JoinHandle {
        let done = self.event();
        let (mut handle, exit) = JoinHandle::new(done);
        let id = {
            let mut st = self.eng.state.lock();
            let id = st.register(ActorInfo::new(Body::Thread(name.to_string())));
            st.stats.actors_spawned += 1;
            st.live_threads += 1;
            st.stats.peak_live_actors = st.stats.peak_live_actors.max(st.live_threads);
            self.eng.release(self.eng.dispatch(st));
            id
        };
        let eng = self.eng.clone();
        let t = std::thread::Builder::new()
            .name(format!("sim:{name}"))
            .spawn(move || {
                CURRENT_ACTOR.with(|c| c.set(Some(id)));
                QUIET_ACTOR.with(|q| q.set(eng.quiet.load(AtOrd::Relaxed)));
                let r = catch_unwind(AssertUnwindSafe(|| {
                    eng.start(id);
                    f()
                }));
                // Poison on a panic, so the rest of the simulation unwinds
                // instead of hanging on events this actor will never signal.
                let payload = r.err().inspect(|p| {
                    let cause = format!("panic in an actor: {}", panic_message(&**p));
                    eng.poison(&mut eng.state.lock(), &cause);
                });
                // Publish completion *before* deregistering: a joiner must be
                // ready before our exit passes the baton on, otherwise the
                // engine would see a spurious deadlock.
                exit.finish(payload);
                eng.exit(id);
            })
            .expect("spawn sim actor thread");
        handle.set_thread(t);
        handle
    }

    fn event(&self) -> Event {
        Arc::new(SimEvent {
            eng: self.eng.clone(),
            inner: Mutex::new(EventInner::default()),
        })
    }

    fn alarm(&self) -> Alarm {
        self.eng.alarms.fetch_add(1, AtOrd::Relaxed);
        Box::new(SimAlarm {
            eng: self.eng.clone(),
            armed: Mutex::new(None),
        })
    }

    fn schedule_point(&self, tag: &str) {
        self.eng.schedule_point(tag);
    }

    fn spawn_task(&self, cell: TaskCell) {
        let mut st = self.eng.state.lock();
        st.register(ActorInfo::new(Body::Task(cell)));
        st.stats.tasks_spawned += 1;
        st.live_tasks += 1;
        st.stats.peak_live_tasks = st.stats.peak_live_tasks.max(st.live_tasks);
        self.eng.release(self.eng.dispatch(st));
    }
}

#[derive(Default)]
struct EventInner {
    permits: usize,
    waiters: VecDeque<Arc<WaitSlot>>,
}

/// An [`Event`] bound to a virtual-time engine.
///
/// Lock order is strictly engine-state → event-inner; every method takes the
/// engine lock first, so the two locks can never deadlock against each other.
struct SimEvent {
    eng: Arc<Engine>,
    inner: Mutex<EventInner>,
}

impl SimEvent {
    /// The front half of `wait()` (`timeout` `None`) and `wait_timeout(d)`,
    /// for a thread and for a task alike: take a banked permit or time out
    /// at once, else join the waiter queue, arm the timeout, and say what
    /// to block on. `actor` is asked only then: a thread outside the
    /// simulation (a harness joining after `wait_done`) finds its permit.
    fn begin_wait(
        &self,
        st: &mut EngineState,
        timeout: Option<Dur>,
        actor: impl FnOnce() -> u64,
    ) -> Result<Wake, (Arc<WaitSlot>, &'static str)> {
        let mut inner = self.inner.lock();
        if inner.permits > 0 {
            inner.permits -= 1;
            return Ok(Wake::Signaled);
        }
        if timeout == Some(Dur::ZERO) {
            return Ok(Wake::Timeout);
        }
        let slot = WaitSlot::new(actor(), None);
        inner.waiters.push_back(slot.clone());
        let Some(d) = timeout else {
            return Err((slot, "event wait"));
        };
        if d != Dur::MAX {
            let at = st.now.saturating_add(d.as_nanos());
            self.eng.push_timer(st, at, slot.clone());
        }
        Err((slot, "event wait (timeout)"))
    }

    /// One signal, under the engine lock the caller holds: wake the first
    /// waiter a timeout has not already woken, or bank a permit.
    fn signal_locked(&self, st: &mut EngineState) {
        let mut inner = self.inner.lock();
        let waiter = std::iter::from_fn(|| inner.waiters.pop_front()).find(|w| !w.is_woken());
        match waiter {
            Some(w) => self.eng.wake(st, &w, SLOT_SIGNALED),
            None => inner.permits += 1,
        }
    }

    /// The actor a signal would wake now, if any.
    fn first_waiter(&self) -> Option<u64> {
        let inner = self.inner.lock();
        inner
            .waiters
            .iter()
            .find(|w| !w.is_woken())
            .map(|w| w.actor)
    }
}

/// The engine's own cell behind an [`Event`] it made.
fn sim_event(ev: &Event) -> &SimEvent {
    ev.as_any()
        .downcast_ref::<SimEvent>()
        .expect("an alarm's event is a SimRuntime event")
}

/// An [`Alarm`] bound to a virtual-time engine: at most one timer entry,
/// replaced on every `set`. An entry that is replaced, cleared or dropped
/// is marked woken, so the dispatcher and `push_timer` sweep it like a
/// timer a signal beat.
struct SimAlarm {
    eng: Arc<Engine>,
    /// The pending entry's slot (which holds the event) and due time.
    armed: Mutex<Option<(Arc<WaitSlot>, u64)>>,
}

impl SimAlarm {
    /// Mark the pending entry, if any, stale.
    fn unset(armed: &mut Option<(Arc<WaitSlot>, u64)>) {
        if let Some((slot, ..)) = armed.take() {
            slot.state.store(SLOT_TIMEOUT, AtOrd::Relaxed);
        }
    }
}

impl AlarmApi for SimAlarm {
    fn set(&self, ev: &Event, at: Time) {
        assert!(
            Arc::ptr_eq(&sim_event(ev).eng, &self.eng),
            "an alarm signals an event of its own runtime"
        );
        let mut st = self.eng.state.lock();
        let mut armed = self.armed.lock();
        // Aimed as before: keep the entry, and its place among the timers
        // due at the same instant.
        if let Some((slot, due)) = &*armed {
            let same = slot.alarm.as_ref().is_some_and(|e| Arc::ptr_eq(e, ev));
            if !slot.is_woken() && *due == at.0 && same {
                return;
            }
        }
        Self::unset(&mut armed);
        let slot = Arc::new(WaitSlot {
            state: AtomicU8::new(SLOT_PENDING),
            actor: u64::MAX,
            tag: None,
            alarm: Some(ev.clone()),
        });
        *armed = Some((slot.clone(), at.0));
        drop(armed);
        self.eng.push_timer(&mut st, at.0, slot);
        self.eng.release(self.eng.dispatch(st));
    }

    /// Like the drop, without the engine lock: a stale mark is all it takes.
    fn clear(&self) {
        Self::unset(&mut self.armed.lock());
    }
}

/// Without the engine lock: a task that owns a network may be dropped by
/// an unwinding poll that holds it. A marked slot is skipped by the
/// dispatcher and swept by `push_timer` whoever marks it.
impl Drop for SimAlarm {
    fn drop(&mut self) {
        Self::unset(self.armed.get_mut());
        self.eng.alarms.fetch_sub(1, AtOrd::Relaxed);
    }
}

impl EventApi for SimEvent {
    fn wait(&self) {
        let mut st = self.eng.state.lock();
        if let Err((slot, why)) = self.begin_wait(&mut st, None, || self.eng.current_actor()) {
            self.eng.block(st, &slot, why);
        }
    }

    fn wait_timeout(&self, d: Dur) -> Wake {
        let mut st = self.eng.state.lock();
        match self.begin_wait(&mut st, Some(d), || self.eng.current_actor()) {
            Ok(wake) => wake,
            Err((slot, why)) => self.eng.block(st, &slot, why),
        }
    }

    fn signal(&self) {
        self.signal_n(1);
    }

    /// `n` signals under one hold of the engine lock.
    fn signal_n(&self, n: usize) {
        let mut st = self.eng.state.lock();
        for _ in 0..n {
            self.signal_locked(&mut st);
        }
        self.eng.release(self.eng.dispatch(st));
    }

    fn notify_all(&self) {
        let mut st = self.eng.state.lock();
        let mut inner = self.inner.lock();
        while let Some(w) = inner.waiters.pop_front() {
            self.eng.wake(&mut st, &w, SLOT_SIGNALED);
        }
        drop(inner);
        self.eng.release(self.eng.dispatch(st));
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
    fn sleep_advances_virtual_time_instantly() {
        let wall = std::time::Instant::now();
        let end = simulate(|rt| {
            rt.sleep(Dur::from_secs(3600));
            rt.now()
        });
        assert_eq!(end, Time::ZERO + Dur::from_secs(3600));
        assert!(wall.elapsed().as_secs() < 5, "virtual hour took wall time");
    }

    #[test]
    fn sleepers_wake_in_timestamp_order() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = order.clone();
        simulate(move |rt| {
            let mut hs = Vec::new();
            for (i, ms) in [(0u32, 30u64), (1, 10), (2, 20)] {
                let rt2 = rt.clone();
                let o = o2.clone();
                hs.push(spawn(&rt, &format!("s{i}"), move || {
                    rt2.sleep(Dur::from_millis(ms));
                    o.lock().push((i, rt2.now().as_nanos()));
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
        });
        let got = order.lock().clone();
        let mut sorted = got.clone();
        sorted.sort_by_key(|&(_, t)| t);
        assert_eq!(got, sorted);
        assert_eq!(
            got.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
    }

    #[test]
    fn event_signal_wakes_waiter_without_time_passing() {
        let t = simulate(|rt| {
            let ev = rt.event();
            let ev2 = ev.clone();
            let rt2 = rt.clone();
            let h = spawn(&rt, "waiter", move || {
                ev2.wait();
                let _ = rt2.now();
            });
            rt.sleep(Dur::from_millis(5));
            ev.signal();
            h.join_unwrap();
            rt.now()
        });
        assert_eq!(t, Time::ZERO + Dur::from_millis(5));
    }

    #[test]
    fn event_permits_count() {
        simulate(|rt| {
            let ev = rt.event();
            ev.signal();
            ev.signal();
            assert_eq!(ev.wait_timeout(Dur::from_millis(1)), Wake::Signaled);
            assert_eq!(ev.wait_timeout(Dur::from_millis(1)), Wake::Signaled);
            assert_eq!(ev.wait_timeout(Dur::from_millis(1)), Wake::Timeout);
        });
    }

    #[test]
    fn wait_timeout_times_out_at_exact_virtual_instant() {
        let (start, end) = simulate(|rt| {
            let ev = rt.event();
            let s = rt.now();
            assert_eq!(ev.wait_timeout(Dur::from_millis(250)), Wake::Timeout);
            (s, rt.now())
        });
        assert_eq!(end - start, Dur::from_millis(250));
    }

    #[test]
    fn signal_beats_timeout() {
        simulate(|rt| {
            let ev = rt.event();
            let ev2 = ev.clone();
            let rt2 = rt.clone();
            let h = spawn(&rt, "signaller", move || {
                rt2.sleep(Dur::from_millis(10));
                ev2.signal();
            });
            assert_eq!(ev.wait_timeout(Dur::from_secs(100)), Wake::Signaled);
            assert_eq!(rt.now(), Time::ZERO + Dur::from_millis(10));
            h.join_unwrap();
        });
    }

    #[test]
    fn notify_all_releases_every_waiter() {
        let woken = Arc::new(AtomicUsize::new(0));
        let w2 = woken.clone();
        simulate(move |rt| {
            let ev = rt.event();
            let mut hs = Vec::new();
            for i in 0..8 {
                let ev2 = ev.clone();
                let w = w2.clone();
                hs.push(spawn(&rt, &format!("w{i}"), move || {
                    ev2.wait();
                    w.fetch_add(1, AO::SeqCst);
                }));
            }
            rt.sleep(Dur::from_millis(1)); // let them all block
            ev.notify_all();
            for h in hs {
                h.join_unwrap();
            }
        });
        assert_eq!(woken.load(AO::SeqCst), 8);
    }

    #[test]
    fn join_returns_after_child_exits() {
        let t = simulate(|rt| {
            let rt2 = rt.clone();
            let h = spawn(&rt, "child", move || {
                rt2.sleep(Dur::from_secs(2));
            });
            h.join_unwrap();
            rt.now()
        });
        assert_eq!(t, Time::ZERO + Dur::from_secs(2));
    }

    #[test]
    fn join_propagates_panic_payload() {
        let sim = SimRuntime::new();
        let rt = sim.handle();
        let h = rt.spawn(
            "panicker",
            Box::new(|| {
                panic!("boom-42");
            }),
        );
        sim.wait_done();
        let err = h.join().unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom-42");
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected_and_reported() {
        simulate(|rt| {
            let ev = rt.event();
            ev.wait(); // nobody will ever signal
        });
    }

    #[test]
    fn many_actors_interleave_consistently() {
        // 20 actors each sleep 10 times; total virtual time is the max, and
        // every actor observes monotonically non-decreasing time.
        let end = simulate(|rt| {
            let mut hs = Vec::new();
            for i in 0..20u64 {
                let rt2 = rt.clone();
                hs.push(spawn(&rt, &format!("a{i}"), move || {
                    let mut last = rt2.now();
                    for _ in 0..10 {
                        rt2.sleep(Dur::from_micros(i + 1));
                        let now = rt2.now();
                        assert!(now >= last);
                        last = now;
                    }
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
            rt.now()
        });
        assert_eq!(end, Time::ZERO + Dur::from_micros(200)); // 20µs * 10
    }

    #[test]
    fn stats_track_advances_and_actors() {
        let sim = SimRuntime::new();
        sim.run_root(|rt| {
            let rt2 = rt.clone();
            let h = spawn(&rt, "x", move || rt2.sleep(Dur::from_millis(1)));
            rt.sleep(Dur::from_millis(2));
            h.join_unwrap();
        });
        let s = sim.stats();
        assert!(s.clock_advances >= 2);
        assert!(s.peak_live_actors >= 2);
        // Two sleeps arm two timers (timed waits would count here too).
        assert!(s.timers_armed >= 2, "{}", s.timers_armed);
    }

    #[test]
    fn children_run_in_spawn_order_after_the_spawner_blocks() {
        let log = simulate(|rt| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let hs: Vec<_> = (0..5)
                .map(|i| {
                    let l = log.clone();
                    spawn(&rt, &format!("c{i}"), move || l.lock().push(i))
                })
                .collect();
            log.lock().push(99); // the spawner still holds the baton
            for h in hs {
                h.join_unwrap();
            }
            let got = log.lock().clone();
            got
        });
        assert_eq!(log, vec![99, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn signalled_waiters_run_fifo_after_the_signaller_blocks() {
        let log = simulate(|rt| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let evs: Vec<Event> = (0..4).map(|_| rt.event()).collect();
            let hs: Vec<_> = (0..4)
                .map(|i| {
                    let (ev, l) = (evs[i].clone(), log.clone());
                    spawn(&rt, &format!("w{i}"), move || {
                        ev.wait();
                        l.lock().push(i);
                    })
                })
                .collect();
            rt.sleep(Dur::from_millis(1)); // all four are parked on their events
            for i in [2, 0, 3, 1] {
                evs[i].signal();
            }
            log.lock().push(99); // signalling only enqueues
            for h in hs {
                h.join_unwrap();
            }
            let got = log.lock().clone();
            got
        });
        assert_eq!(log, vec![99, 2, 0, 3, 1], "wake order, not spawn order");
    }

    #[test]
    fn threads_outside_the_simulation_can_spawn_and_signal() {
        // No run_root: the harness thread spawns the first actor itself
        // (which must start the dispatcher) and later signals an event a
        // parked actor waits on, while the root holds the baton in a
        // host-level wait the two channels sequence.
        let sim = SimRuntime::new();
        let rt = sim.handle();
        let ev = rt.event();
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let woke = Arc::new(Mutex::new(None));
        let (rt2, ev2, woke2) = (rt.clone(), ev.clone(), woke.clone());
        let root = rt.spawn(
            "root",
            Box::new(move || {
                let rt3 = rt2.clone();
                let waiter = spawn(&rt2, "waiter", move || {
                    *woke2.lock() = Some((ev2.wait_timeout(Dur::MAX), rt3.now()));
                });
                rt2.sleep(Dur::from_millis(1)); // the waiter is parked now
                parked_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                waiter.join_unwrap();
            }),
        );
        parked_rx.recv().unwrap();
        ev.signal();
        go_tx.send(()).unwrap();
        sim.wait_done();
        root.join_unwrap();
        let at = Time::ZERO + Dur::from_millis(1);
        assert_eq!(*woke.lock(), Some((Wake::Signaled, at)));
    }

    #[test]
    fn a_panic_releases_ready_and_blocked_actors() {
        let sim = SimRuntime::new();
        let rt = sim.handle();
        let children = Arc::new(Mutex::new(Vec::new()));
        let ready_ran = Arc::new(AtomicBool::new(false));
        let (rt2, c2, ran2) = (rt.clone(), children.clone(), ready_ran.clone());
        let root = rt.spawn(
            "root",
            Box::new(move || {
                let ev = rt2.event();
                c2.lock().push(spawn(&rt2, "blocked", move || ev.wait()));
                rt2.sleep(Dur::from_millis(1)); // "blocked" is parked on its event
                c2.lock().push(spawn(&rt2, "ready", move || {
                    ran2.store(true, AO::SeqCst);
                }));
                panic!("boom"); // "ready" is queued but has never held the baton
            }),
        );
        sim.wait_done(); // must not hang on either child
        let msg = |h: JoinHandle| panic_message(&*h.join().unwrap_err());
        assert_eq!(msg(root), "boom");
        for h in children.lock().drain(..) {
            assert_eq!(msg(h), "simulation poisoned: panic in an actor: boom");
        }
        assert!(!ready_ran.load(AO::SeqCst), "ran in a poisoned simulation");
    }

    #[test]
    fn zero_sleep_is_noop() {
        simulate(|rt| {
            rt.sleep(Dur::ZERO);
            assert_eq!(rt.now(), Time::ZERO);
        });
    }

    /// Always pick the default (earliest) eligible event.
    struct PickFirst;
    impl ScheduleHook for PickFirst {
        fn choose(&self, _now: Time, _fp: u64, _eligible: &[Choice]) -> usize {
            0
        }
    }

    /// Always defer as long as possible: pick the last eligible event.
    struct PickLast;
    impl ScheduleHook for PickLast {
        fn choose(&self, _now: Time, _fp: u64, eligible: &[Choice]) -> usize {
            eligible.len() - 1
        }
    }

    fn ordered_sleepers(
        hook: Option<(Arc<dyn ScheduleHook>, Dur)>,
        delays_us: Vec<u64>,
    ) -> (Vec<(usize, u64)>, SimStats) {
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = order.clone();
        let sim = SimRuntime::new();
        if let Some((h, w)) = hook {
            sim.set_schedule_hook(h, w);
        }
        sim.run_root(move |rt| {
            let mut hs = Vec::new();
            for (i, us) in delays_us.into_iter().enumerate() {
                let rt2 = rt.clone();
                let o = o2.clone();
                hs.push(spawn(&rt, &format!("s{i}"), move || {
                    rt2.sleep(Dur::from_micros(us));
                    o.lock().push((i, rt2.now().as_nanos()));
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
        });
        let stats = sim.stats();
        let got = order.lock().clone();
        (got, stats)
    }

    /// Panics at the first choice point.
    struct Bomb;
    impl ScheduleHook for Bomb {
        fn choose(&self, _now: Time, _fp: u64, _eligible: &[Choice]) -> usize {
            panic!("hook-bomb")
        }
    }

    #[test]
    #[should_panic(expected = "simulation poisoned: hook-bomb")]
    fn a_panicking_hook_fails_the_run_instead_of_stranding_it() {
        let sim = SimRuntime::new();
        sim.set_schedule_hook(Arc::new(Bomb), Dur::ZERO);
        sim.run_root(|rt| {
            for i in 0..2 {
                let rt2 = rt.clone();
                spawn(&rt, &format!("s{i}"), move || {
                    rt2.sleep(Dur::from_micros(10))
                });
            }
            // Exits without ever blocking, so the choice between the two
            // sleepers is faced inside its exit — outside any actor body.
            spawn(&rt, "last", || {});
            rt.sleep(Dur::from_secs(1));
        });
    }

    #[test]
    fn hook_default_choice_reproduces_plain_order() {
        let (plain, pstats) = ordered_sleepers(None, vec![30, 10, 10, 20]);
        let (hooked, hstats) =
            ordered_sleepers(Some((Arc::new(PickFirst), Dur::ZERO)), vec![30, 10, 10, 20]);
        // Exact order, same-instant pair included: the two 10µs sleepers
        // fire in arm order on both paths.
        assert_eq!(
            plain,
            vec![(1, 10_000), (2, 10_000), (3, 20_000), (0, 30_000)]
        );
        assert_eq!(
            plain, hooked,
            "picking index 0 must be the default schedule"
        );
        assert_eq!(pstats.choice_points, 0, "no hook, no choice points");
        // The two 10µs sleepers collide at one instant: one choice point
        // with two alternatives.
        assert_eq!(hstats.choice_points, 1);
        assert_eq!(hstats.choice_alternatives, 2);
    }

    #[test]
    fn hook_can_defer_events_within_the_window() {
        // 10µs and 12µs sleeps, 5µs window: both eligible together, and
        // PickLast fires the 12µs one first; the deferred 10µs event then
        // fires late, at t=12µs.
        let (got, stats) = ordered_sleepers(
            Some((Arc::new(PickLast), Dur::from_micros(5))),
            vec![10, 12],
        );
        assert_eq!(
            got,
            vec![
                (1, Dur::from_micros(12).as_nanos()),
                (0, Dur::from_micros(12).as_nanos()),
            ],
            "the passed-over event must fire late, not never"
        );
        assert!(stats.choice_points >= 1);
    }

    #[test]
    fn hook_window_excludes_far_events() {
        // 10µs and 200µs sleeps, 5µs window: never simultaneous, so even
        // PickLast cannot reorder them.
        let (got, stats) = ordered_sleepers(
            Some((Arc::new(PickLast), Dur::from_micros(5))),
            vec![10, 200],
        );
        assert_eq!(
            got.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![0, 1],
            "events outside the window keep their order"
        );
        assert_eq!(stats.choice_points, 0);
    }

    #[test]
    fn schedule_point_is_free_without_hook() {
        let sim = SimRuntime::new();
        let end = sim.run_root(|rt| {
            rt.schedule_point("noop");
            rt.now()
        });
        assert_eq!(end, Time::ZERO);
        assert_eq!(sim.stats().timers_armed, 0, "no hook, no timer");
    }

    #[test]
    fn schedule_point_is_explorable_under_a_hook() {
        // Two actors each pass a tagged schedule point "at the same time";
        // PickLast reverses their continuation order.
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = order.clone();
        let sim = SimRuntime::new();
        sim.set_schedule_hook(Arc::new(PickLast), Dur::from_micros(5));
        sim.run_root(move |rt| {
            let mut hs = Vec::new();
            for i in 0..2 {
                let rt2 = rt.clone();
                let o = o2.clone();
                hs.push(spawn(&rt, &format!("p{i}"), move || {
                    rt2.sleep(Dur::from_micros(10));
                    rt2.schedule_point(&format!("point-{i}"));
                    o.lock().push(i);
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
        });
        // PickLast fires sleeper 1 first; its schedule point re-enters the
        // eligible set against sleeper 0's wake, and PickLast keeps
        // deferring the earliest — actor 1 finishes first.
        assert_eq!(*order.lock(), vec![1, 0]);
    }

    #[test]
    fn an_alarm_fires_where_it_was_last_aimed() {
        let sim = SimRuntime::new();
        sim.run_root(|rt| {
            let (ev, other, alarm) = (rt.event(), rt.event(), rt.alarm());
            let at = |ms| Time::ZERO + Dur::from_millis(ms);
            alarm.set(&ev, at(10));
            alarm.set(&ev, at(5)); // earlier
            ev.wait();
            assert_eq!(rt.now(), at(5));
            alarm.set(&ev, at(20));
            alarm.set(&ev, at(30)); // later
            ev.wait();
            assert_eq!(rt.now(), at(30));
            alarm.set(&other, at(40)); // another event: `ev` is not signalled
            assert_eq!(ev.wait_timeout(Dur::from_millis(20)), Wake::Timeout);
            other.wait();
            assert_eq!(
                rt.now(),
                at(50),
                "the alarm fired at 40 ms, into a banked permit"
            );
            alarm.set(&ev, at(60));
            alarm.clear();
            assert_eq!(ev.wait_timeout(Dur::from_millis(100)), Wake::Timeout);
            alarm.set(&ev, at(100)); // in the past: fires at once
            ev.wait();
            assert_eq!(rt.now(), at(150));
        });
        // Seven sets arm seven timers; clearing and firing arm none.
        assert_eq!(sim.stats().timers_armed, 7 + 2, "plus the two timed waits");
    }

    #[test]
    fn an_alarm_due_now_fires_once_the_ready_queue_drains() {
        let log = simulate(|rt| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let (ev, alarm) = (rt.event(), rt.alarm());
            let hs: Vec<_> = (0..3)
                .map(|i| {
                    let l = log.clone();
                    spawn(&rt, &format!("c{i}"), move || l.lock().push(i))
                })
                .collect();
            alarm.set(&ev, rt.now());
            log.lock().push(99); // the alarm only armed a timer
            ev.wait(); // the three children run first
            log.lock().push(100);
            hs.into_iter().for_each(JoinHandle::join_unwrap);
            assert_eq!(rt.now(), Time::ZERO);
            let got = log.lock().clone();
            got
        });
        assert_eq!(log, vec![99, 0, 1, 2, 100]);
    }

    #[test]
    fn a_re_aimed_alarm_leaves_a_bounded_heap() {
        let sim = SimRuntime::new();
        let eng = sim.eng.clone();
        sim.run_root(move |rt| {
            let (ev, alarm) = (rt.event(), rt.alarm());
            let mut peak = 0;
            for i in 0..10_000u64 {
                alarm.set(&ev, rt.now() + Dur::from_micros(1 + i % 7));
                peak = peak.max(eng.state.lock().timers.len());
            }
            // One root, one alarm: the sweep keeps the heap near 2·2 + 64.
            assert!(peak <= 2 * 2 + 64 + 1, "{peak} timer entries");
            ev.wait();
            assert_eq!(rt.now(), Time::ZERO + Dur::from_micros(1 + 9_999 % 7));
            assert_eq!(
                ev.wait_timeout(Dur::from_millis(1)),
                Wake::Timeout,
                "fired once"
            );
        });
    }

    const ROUNDS: usize = 200;

    /// Run `case` on a thread of its own and fail, naming `entry`, unless it
    /// finishes within 10 s: a hand-off that never unparks its successor
    /// strands the baton, and the suite would hang instead of failing.
    fn under_watchdog(entry: &str, case: impl FnOnce() + Send + 'static) {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            case();
            let _ = tx.send(());
        });
        // A hung case's thread is left behind: joining it would hang too.
        let finished = rx.recv_timeout(std::time::Duration::from_secs(10));
        if let Err(RecvTimeoutError::Timeout) = finished {
            panic!("baton stranded: {entry} hung for 10 s");
        }
        if let Err(p) = h.join() {
            panic!("{entry}: {}", panic_message(&*p));
        }
    }

    /// The root builds the case with `setup`, then holds the baton in a
    /// host-level wait while this (harness) thread calls the poke it
    /// returned, `ROUNDS` times. After each poke the root sleeps, and its
    /// block hands the baton to whichever thread the poke made ready.
    fn poked_from_the_harness<P: FnMut() + Send + 'static>(
        setup: impl FnOnce(&Arc<dyn Runtime>) -> P + Send + 'static,
    ) {
        use std::sync::mpsc::channel;
        let sim = SimRuntime::new();
        let rt = sim.handle();
        let ((poke_tx, poke_rx), (held_tx, held_rx), (go_tx, go_rx)) =
            (channel(), channel(), channel());
        let rt2 = rt.clone();
        let root = rt.spawn(
            "root",
            Box::new(move || {
                poke_tx.send(setup(&rt2)).unwrap();
                for _ in 0..ROUNDS {
                    rt2.sleep(Dur::from_micros(1)); // whoever was poked runs
                    held_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                }
                rt2.sleep(Dur::from_micros(1));
            }),
        );
        let mut poke = poke_rx.recv().unwrap();
        for _ in 0..ROUNDS {
            held_rx.recv().unwrap();
            poke();
            go_tx.send(()).unwrap();
        }
        sim.wait_done();
        root.join_unwrap();
    }

    /// A thread that waits on `ev` `ROUNDS` times, counting in `n`.
    fn waits_rounds(rt: &Arc<dyn Runtime>, ev: &Event, n: &Arc<AtomicUsize>) {
        let (ev, n) = (ev.clone(), n.clone());
        spawn(rt, "waiter", move || {
            for _ in 0..ROUNDS {
                ev.wait();
                n.fetch_add(1, AO::SeqCst);
            }
        });
    }

    /// Signals `ev` at every poll but the first, then waits on `poke`; done
    /// after `ROUNDS` pokes.
    struct SignalsWhenPoked {
        ev: Event,
        poke: Event,
        polls: usize,
    }
    impl crate::Task for SignalsWhenPoked {
        fn poll(&mut self, _cx: &mut TaskCtx<'_>) -> TaskStep {
            if self.polls > 0 {
                self.ev.signal();
            }
            self.polls += 1;
            if self.polls > ROUNDS {
                TaskStep::Done
            } else {
                TaskStep::Wait(self.poke.clone(), None)
            }
        }
    }

    #[test]
    fn every_thread_to_thread_hand_off_wakes_its_successor() {
        under_watchdog("a thread blocking", || {
            simulate(|rt| {
                let (ping, pong) = (rt.event(), rt.event());
                let (ping2, pong2) = (ping.clone(), pong.clone());
                let peer = spawn(&rt, "peer", move || {
                    for _ in 0..ROUNDS {
                        ping2.wait();
                        pong2.signal();
                    }
                });
                for _ in 0..ROUNDS {
                    ping.signal();
                    pong.wait();
                }
                peer.join_unwrap();
            })
        });
        under_watchdog("a thread exiting", || {
            simulate(|rt| (0..ROUNDS).for_each(|_| spawn(&rt, "child", || {}).join_unwrap()))
        });
        let ran = Arc::new(AtomicUsize::new(0));
        let n = ran.clone();
        under_watchdog("spawn from a harness thread", move || {
            poked_from_the_harness(move |rt| {
                let rt = rt.clone();
                move || {
                    let n = n.clone();
                    spawn(&rt, "late", move || {
                        n.fetch_add(1, AO::SeqCst);
                    });
                }
            })
        });
        assert_eq!(ran.swap(0, AO::SeqCst), ROUNDS);
        let n = ran.clone();
        under_watchdog("Event::signal from a harness thread", move || {
            poked_from_the_harness(move |rt| {
                let ev = rt.event();
                waits_rounds(rt, &ev, &n);
                move || ev.signal()
            })
        });
        assert_eq!(ran.swap(0, AO::SeqCst), ROUNDS);
        let n = ran.clone();
        under_watchdog(
            "a task's event signalled from a harness thread",
            move || {
                poked_from_the_harness(move |rt| {
                    let (ev, poke) = (rt.event(), rt.event());
                    waits_rounds(rt, &ev, &n);
                    let task = SignalsWhenPoked {
                        ev,
                        poke: poke.clone(),
                        polls: 0,
                    };
                    crate::TaskExecutor::new(rt, "poked").spawn(Box::new(task));
                    move || poke.signal()
                })
            },
        );
        assert_eq!(ran.load(AO::SeqCst), ROUNDS);
    }
}
