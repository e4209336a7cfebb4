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
//! `membership/monitor/<shard>/task sleep` a heartbeat or vote hop,
//! `federation/replicator/0/task sleep` a replicated block's disk charge or
//! wire time), and thread code marks its decision points
//! (`reconcile/resume-block`, `reshard/copy-block`) with
//! [`schedule_point`](semplar_runtime::Runtime::schedule_point). The
//! [`explore`] driver enumerates schedules by stateless re-execution —
//! depth-first over prefixes of choice indices, visited-state hashing for
//! pruning — runs a bounded [`Scenario`] under each, checks its
//! invariants, and on violation emits a serialized [`McTrace`] that
//! replays the exact interleaving as a failing test.
//!
//! Two scenarios exist. [`FederationScenario`] is the one federated crash
//! drill — its `quick`, `double_crash` and `promotion` configurations are
//! what the checker explores, and `fig_federation`/`fig_federation_ha`
//! print its plain-engine runs at their own sizes. [`LeaseScenario`]
//! checks lease coherence across a crash. Both run through one harness
//! that turns a panic or deadlock inside the simulation into a violation;
//! the engines it schedules are quiet, so a panic hook it installs once
//! keeps their panics off stderr and prints every other engine's.
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
mod scenario;
mod script;
mod trace;

pub use explore::{explore, ExploreCfg, ExploreReport};
pub use lease::{LeaseObservation, LeaseScenario};
pub use scenario::{BrokenInvariant, FederationScenario, RunObservation, Scenario};
pub use script::{ChoiceRecord, ScriptHook};
pub use trace::McTrace;

/// Checks of the drill's `promotion` configuration: a crash that a governed
/// federation answers by voting the replica in.
#[cfg(test)]
mod promotion {
    #[cfg(test)]
    mod tests {
        use crate::{explore, ExploreCfg, FederationScenario, ScriptHook};
        use semplar_srb::TransitionKind;

        #[test]
        fn default_schedule_promotes_and_converges() {
            let sc = FederationScenario::promotion(7);
            let obs = sc
                .observe(Some(ScriptHook::default_schedule()))
                .expect("run");
            assert!(obs.failovers > 0, "crash never forced a failover");
            let promoted: Vec<_> = obs.promotions.promotions().collect();
            assert_eq!(
                promoted.len(),
                1,
                "exactly one promotion: {:?}",
                obs.promotions
            );
            assert_eq!(promoted[0].epoch, 2);
            assert_eq!(promoted[0].primary, 1);
            // n = 4 seats, f = 1: the vote needed 3 echoes and 3 readies, and
            // with one seat crashed that is exactly what it got.
            assert_eq!((promoted[0].echoes, promoted[0].readies), (3, 3));
            assert!(
                obs.promotions
                    .entries
                    .iter()
                    .any(|e| e.kind == TransitionKind::Rejoined),
                "the deposed primary never rejoined: {:?}",
                obs.promotions
            );
            assert_eq!(obs.primaries[obs.promotions.entries[0].shard], 1);
            assert!(obs.choice_points > 0, "no schedule choice points surfaced");
        }

        #[test]
        fn observation_is_deterministic_per_seed() {
            let sc = FederationScenario::promotion(11);
            let a = sc.observe(None).expect("run a");
            let b = sc.observe(None).expect("run b");
            assert_eq!(a, b, "same seed must give a bit-identical observation");
        }

        #[test]
        fn small_exploration_finds_no_violations() {
            let report = explore(
                &FederationScenario::promotion(7),
                &ExploreCfg {
                    depth: 3,
                    max_executions: 8,
                    ..ExploreCfg::default()
                },
            );
            assert!(report.executions >= 2, "scenario exposed too few schedules");
            assert_eq!(report.violations, 0, "{:?}", report.counterexample);
        }
    }
}
