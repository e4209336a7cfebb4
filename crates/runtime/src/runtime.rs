//! The [`Runtime`] abstraction.
//!
//! Everything in the SEMPLAR stack — the SRB client/server, the message
//! passing runtime, and the asynchronous I/O engine itself — blocks and
//! sleeps only through a [`Runtime`] handle. This gives us two
//! interchangeable execution modes:
//!
//! * [`SimRuntime`](crate::SimRuntime): virtual time. Code that needs a
//!   stack (the paper's compute and I/O threads, an MPI rank) is a real OS
//!   thread, one of which runs at a time; an entity that only waits (a
//!   server's connection handler, a stream's demultiplexer and sender, a
//!   swarm client) is a [`Task`](crate::Task), an `async` body polled by
//!   the dispatcher. The clock jumps to the next pending timer whenever all
//!   actors are blocked.
//!   Experiments over transoceanic links finish in milliseconds of wall time
//!   and produce the same interleaving, hence the same timings, every run.
//! * [`RealRuntime`](crate::RealRuntime): wall-clock time, plain
//!   `std::thread` primitives. Used by unit tests and the runnable examples.
//!
//! The blocking primitive is the [`Event`], a counting semaphore with an
//! optional timeout and a broadcast. All higher-level structures
//! ([`Channel`](crate::sync::Channel), [`Barrier`](crate::sync::Barrier), …)
//! are built from `Event` + `Mutex` with re-check loops, so spurious wakeups
//! (including broadcasts) are always safe.

use std::any::Any;
use std::sync::Arc;

use crate::task::TaskCell;
use crate::time::{Dur, Time};

/// Why a blocked waiter resumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// A permit was delivered via [`EventApi::signal`] or the waiter was
    /// released by [`EventApi::notify_all`].
    Signaled,
    /// The timeout passed first.
    Timeout,
}

/// A counting-semaphore style wait/notify cell.
///
/// `signal` adds one permit (waking one waiter if present); `wait` consumes a
/// permit, blocking until one is available. `notify_all` releases every
/// current waiter *without* banking permits — waiters treat it as a spurious
/// wakeup and must re-check their condition.
pub trait EventApi: Send + Sync {
    /// Block until a permit is available (or a broadcast releases us).
    fn wait(&self);

    /// Block until a permit is available, a broadcast releases us, or `d`
    /// elapses. Returns [`Wake::Timeout`] only if the timeout fired first.
    fn wait_timeout(&self, d: Dur) -> Wake;

    /// Add one permit, waking one waiter if any is blocked.
    fn signal(&self);

    /// Add `n` permits.
    fn signal_n(&self, n: usize) {
        for _ in 0..n {
            self.signal();
        }
    }

    /// Wake every currently blocked waiter without banking permits.
    fn notify_all(&self);

    /// The concrete cell, so the engine that made it can block a
    /// [`Task`](crate::Task) on it ([`TaskStep::Wait`](crate::TaskStep::Wait)).
    #[doc(hidden)]
    fn as_any(&self) -> &dyn Any;
}

/// A shared handle to an event cell.
pub type Event = Arc<dyn EventApi>;

/// An [`Event`] the runtime signals at an instant of its clock: one timer
/// an owner re-targets instead of arming a new one per change.
///
/// [`set`](AlarmApi::set) aims it at an event and an instant, replacing
/// whatever it was aimed at; when the clock reaches that instant the event
/// gets one [`signal`](EventApi::signal) and the alarm is unset. Under
/// [`SimRuntime`](crate::SimRuntime) an alarm due now fires only once no
/// actor is ready, like any timer, and counts as one.
pub trait AlarmApi: Send + Sync {
    /// Signal `ev` at `at` (at once if `at` has passed), instead of what
    /// the alarm was set to before.
    fn set(&self, ev: &Event, at: Time);

    /// Unset the alarm: nothing fires until the next `set`.
    fn clear(&self);
}

/// An owned alarm handle; dropping it unsets the alarm.
pub type Alarm = Box<dyn AlarmApi>;

/// The result of joining a spawned actor: `Err` carries the panic payload.
pub type JoinResult = Result<(), Box<dyn Any + Send + 'static>>;

struct JoinShared {
    done: Event,
    payload: parking_lot::Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// Handle to a spawned actor. Joining blocks through the runtime, so it is
/// safe to call from inside other actors in simulated time.
pub struct JoinHandle {
    shared: Arc<JoinShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl JoinHandle {
    pub(crate) fn new(done: Event) -> (JoinHandle, ActorExit) {
        let shared = Arc::new(JoinShared {
            done,
            payload: parking_lot::Mutex::new(None),
        });
        (
            JoinHandle {
                shared: shared.clone(),
                thread: None,
            },
            ActorExit { shared },
        )
    }

    pub(crate) fn set_thread(&mut self, t: std::thread::JoinHandle<()>) {
        self.thread = Some(t);
    }

    /// Wait for the actor to finish. Returns the panic payload if it
    /// panicked.
    pub fn join(mut self) -> JoinResult {
        self.shared.done.wait();
        if let Some(t) = self.thread.take() {
            // The actor has already signalled `done`, so the OS thread is at
            // (or moments from) exit; this join does not block in any way the
            // virtual clock needs to know about.
            let _ = t.join();
        }
        match self.shared.payload.lock().take() {
            Some(p) => Err(p),
            None => Ok(()),
        }
    }

    /// Wait for the actor to finish, propagating its panic if it panicked.
    pub fn join_unwrap(self) {
        if let Err(p) = self.join() {
            std::panic::resume_unwind(p);
        }
    }
}

/// Used by runtime implementations to publish an actor's exit.
pub(crate) struct ActorExit {
    shared: Arc<JoinShared>,
}

impl ActorExit {
    pub(crate) fn finish(&self, panic: Option<Box<dyn Any + Send + 'static>>) {
        if let Some(p) = panic {
            *self.shared.payload.lock() = Some(p);
        }
        self.shared.done.signal();
        // Keep signalling so multiple waiters (join + watchdogs) all wake.
        self.shared.done.notify_all();
    }
}

/// An execution environment: a clock, a sleeper, a spawner, and a factory
/// for blocking [`Event`] cells.
pub trait Runtime: Send + Sync {
    /// The current time on this runtime's clock.
    fn now(&self) -> Time;

    /// Block the calling actor for `d`.
    fn sleep(&self, d: Dur);

    /// Spawn a named actor. The name appears in deadlock diagnostics. A
    /// thread keeps the simulation alive until it returns; only a
    /// [daemon task](crate::TaskExecutor::spawn_daemon) does not.
    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send + 'static>) -> JoinHandle;

    /// Create a fresh event cell bound to this runtime.
    fn event(&self) -> Event;

    /// Create an unset [`Alarm`] on this runtime's clock.
    fn alarm(&self) -> Alarm;

    /// Declare an explorable schedule point labelled `tag`. A no-op (zero
    /// cost, no blocking) everywhere except under a virtual-time runtime
    /// with a [schedule hook](crate::SimRuntime::set_schedule_hook)
    /// installed, where the calling actor's continuation becomes an
    /// eligible event the exploration strategy can order against every
    /// other pending event in the window. Protocol code sprinkles these at
    /// decision points a model checker should control: replaying a
    /// reconcile extent, copying a block of a re-shard.
    fn schedule_point(&self, _tag: &str) {}

    /// Take on an event-driven [`Task`](crate::task::Task): poll it now and
    /// after every sleep or wake it asks for, until it is done. Called by
    /// [`TaskExecutor::spawn`](crate::TaskExecutor::spawn). The virtual-time
    /// runtime makes the task an actor of its own dispatcher, counted apart
    /// from thread actors in [`SimStats`](crate::SimStats).
    fn spawn_task(&self, cell: TaskCell);
}

/// Convenience: spawn with a closure instead of a boxed closure.
pub fn spawn<F>(rt: &Arc<dyn Runtime>, name: &str, f: F) -> JoinHandle
where
    F: FnOnce() + Send + 'static,
{
    rt.spawn(name, Box::new(f))
}
