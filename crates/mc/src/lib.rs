//! # semplar-mc
//!
//! A bounded model checker for the SEMPLAR recovery and replication
//! protocols, in the spirit of message-level checkers like dslab-mp but
//! built over this repo's **virtual-time runtime** instead of an event
//! queue of messages.
//!
//! The seeded fault plans used by the regression suite explore exactly one
//! interleaving per seed. This crate explores *all* of them, up to a
//! bound: [`SimRuntime`](semplar_runtime::SimRuntime) exposes a schedule
//! hook that is consulted whenever more than one timer is eligible within
//! a window. A task's timers are choices under its own label
//! (`faults/injector/0/task sleep` is when the next fault lands,
//! `membership/monitor/<shard>/task sleep` a heartbeat or vote hop), and
//! thread code marks its decision points (`replicator/ship-block`,
//! `reconcile/resume-block`, `reshard/copy-block`) with
//! [`schedule_point`](semplar_runtime::Runtime::schedule_point). The
//! [`explore`] driver enumerates schedules by stateless re-execution —
//! depth-first over prefixes of choice indices, visited-state hashing for
//! pruning — runs a bounded [`Scenario`] under each, checks its
//! invariants, and on violation emits a serialized [`McTrace`] that
//! replays the exact interleaving as a failing test.
//!
//! ```no_run
//! use semplar_mc::{explore, ExploreCfg, FederationScenario};
//!
//! let report = explore(&FederationScenario::quick(7), &ExploreCfg::default());
//! assert_eq!(report.violations, 0);
//! println!("{}", report.summary());
//! ```

#![warn(missing_docs)]

mod explore;
mod lease;
mod promotion;
mod scenario;
mod script;
mod trace;

pub use explore::{explore, ExploreCfg, ExploreReport};
pub use lease::{LeaseBroken, LeaseObservation, LeaseScenario};
pub use promotion::{PromotionObservation, PromotionScenario};
pub use scenario::{BrokenInvariant, FederationScenario, RunObservation, Scenario};
pub use script::{ChoiceRecord, ScriptHook};
pub use trace::McTrace;
