//! # semplar-runtime
//!
//! Execution substrate for the SEMPLAR remote I/O reproduction (Ali &
//! Lauria, *Improving the Performance of Remote I/O Using Asynchronous
//! Primitives*, HPDC 2006).
//!
//! The paper's experiments ran on three production clusters talking to the
//! SDSC SRB server over real wide-area networks. This crate provides the
//! piece that makes a faithful laptop-scale reproduction possible: a
//! **virtual-time runtime** ([`SimRuntime`]) in which every simulated thread
//! is a real OS thread, all blocking goes through the engine, one actor runs
//! at a time in an order the program alone decides, and the clock jumps
//! forward only when every actor is blocked. The *identical* library code
//! also runs under the wall-clock backend ([`RealRuntime`]).
//!
//! ```
//! use semplar_runtime::{simulate, Dur};
//!
//! let end = simulate(|rt| {
//!     rt.sleep(Dur::from_secs(182)); // a transoceanic eternity, instantly
//!     rt.now()
//! });
//! assert_eq!(end.as_secs_f64(), 182.0);
//! ```

#![warn(missing_docs)]

mod real;
mod runtime;
mod sim;
pub mod sync;
pub mod task;
mod time;
pub mod trace;

pub use real::RealRuntime;
pub use runtime::{spawn, Alarm, AlarmApi, Event, EventApi, JoinHandle, JoinResult, Runtime, Wake};
pub use sim::{on_quiet_actor, simulate, Choice, ScheduleHook, SimRuntime, SimStats};
pub use task::{block_on, Task, TaskCtx, TaskExecutor, TaskHandle, TaskStep};
pub use time::{Dur, Time};
pub use trace::{Span, Trace};
