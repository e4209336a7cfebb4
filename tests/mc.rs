//! The bounded model checker, end to end from the umbrella crate.
//!
//! Two pins matter here. First, installing a schedule hook with the
//! default single-schedule strategy must be **invisible**: for any seed
//! and crash timing, the hooked run reproduces the plain engine's seeded
//! replay bit-identically — same fault ledger, same reconciliation
//! ledger, same checksums. That property is what lets the explorer claim
//! that schedule index 0 at every point *is* today's deterministic
//! schedule, so every committed golden trace and CI diff stays valid with
//! the model checker in the tree. Second, exploration itself is
//! deterministic and the counterexample pipeline round-trips.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use semplar_repro::mc::{
    explore, BrokenInvariant, ChoiceRecord, ExploreCfg, FederationScenario, LeaseScenario, McTrace,
    PromotionScenario, Scenario, ScriptHook,
};
use semplar_repro::runtime::Dur;

fn scenario(seed: u64, crash_ms: u64, down_ms: u64) -> FederationScenario {
    let mut sc = FederationScenario::quick(seed);
    sc.crash_at = Dur::from_millis(crash_ms);
    sc.crash_down_for = Dur::from_millis(down_ms);
    sc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite pin: the default-schedule hook reproduces the plain
    /// seeded replay bit-identically across seeds and crash timings —
    /// same `FaultStats`, same `ReconcileLedger`, same checksums, same
    /// failover counts.
    #[test]
    fn default_strategy_reproduces_seeded_replay(
        seed in 0u64..1000,
        crash_ms in 40u64..160,
        down_ms in 80u64..200,
    ) {
        let sc = scenario(seed, crash_ms, down_ms);
        let plain = sc.observe(None).expect("plain run");
        let mut hooked = sc
            .observe(Some(ScriptHook::default_schedule()))
            .expect("hooked run");
        prop_assert_eq!(plain.choice_points, 0, "plain engine has no choice points");
        prop_assert!(hooked.choice_points > 0, "hook saw no choice points");
        hooked.choice_points = 0;
        prop_assert_eq!(&plain.fault_stats, &hooked.fault_stats);
        prop_assert_eq!(&plain.ledger, &hooked.ledger);
        prop_assert_eq!(&plain.primary_sums, &hooked.primary_sums);
        prop_assert_eq!(&plain.replica_sums, &hooked.replica_sums);
        prop_assert_eq!(plain, hooked, "full observation must be bit-identical");
    }
}

/// Bounded exploration of the federation crash scenario is deterministic:
/// two invocations produce identical reports, including fingerprint-based
/// state counts.
#[test]
fn exploration_summary_is_deterministic() {
    let cfg = ExploreCfg {
        depth: 4,
        max_executions: 24,
        ..ExploreCfg::default()
    };
    let a = explore(&FederationScenario::quick(7), &cfg);
    let b = explore(&FederationScenario::quick(7), &cfg);
    assert_eq!(a, b);
    assert_eq!(a.violations, 0);
    assert!(a.executions >= 4);
}

/// Counterexample coverage: a deliberately broken invariant produces a
/// schedule trace that survives serialization and replays to the same
/// deterministic failure; the identical schedule is clean without it.
#[test]
fn counterexample_trace_replays_deterministically() {
    let broken = FederationScenario::quick(13).with_broken(BrokenInvariant::NoFailoverEver);
    let report = explore(
        &broken,
        &ExploreCfg {
            depth: 3,
            max_executions: 16,
            ..ExploreCfg::default()
        },
    );
    let trace = report.counterexample.expect("violation must be found");
    let parsed = McTrace::parse(&trace.serialize()).expect("trace parses");
    assert_eq!(parsed, trace);
    let first = broken.run(ScriptHook::follow(parsed.choices.clone()));
    let second = broken.run(ScriptHook::follow(parsed.choices.clone()));
    assert!(first.is_err(), "trace must replay to a failure");
    assert_eq!(first, second, "replay must be deterministic");
    assert_eq!(
        FederationScenario::quick(13).run(ScriptHook::follow(parsed.choices)),
        Ok(()),
        "same schedule, invariant restored: must pass"
    );
}

/// Run `observe` twice under one script that leaves the default schedule
/// at each of the first three choice points (taking the last eligible
/// event instead of the first); return both runs' decisions and outcomes.
fn twice_under_one_script<O>(
    observe: impl Fn(Arc<ScriptHook>) -> Result<O, String>,
) -> [(Vec<ChoiceRecord>, Result<O, String>); 2] {
    let mut script = Vec::new();
    for _ in 0..3 {
        let probe = ScriptHook::follow(script.clone());
        observe(probe.clone()).expect("probe run");
        match probe.records().get(script.len()) {
            Some(point) => script.push(point.alternatives - 1),
            None => break,
        }
    }
    assert!(!script.is_empty(), "scenario surfaced no choice point");
    [(); 2].map(|()| {
        let hook = ScriptHook::follow(script.clone());
        let outcome = observe(hook.clone());
        (hook.records(), outcome)
    })
}

/// The model checker's own invariant, same script ⇒ same observed order:
/// with spinning host threads competing for the CPUs, every scenario run
/// twice under one script faces the same choice points with the same
/// eligible events and fingerprints, and observes the same outcome.
#[test]
fn same_script_same_observed_order_under_host_load() {
    let stop = Arc::new(AtomicBool::new(false));
    let spinners: Vec<_> = (0..4)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    let fed = twice_under_one_script(|h| FederationScenario::quick(7).observe(Some(h)));
    let promo = twice_under_one_script(|h| PromotionScenario::quick(7).observe(Some(h)));
    let lease = twice_under_one_script(|h| LeaseScenario::quick(7).observe(Some(h)));
    stop.store(true, Ordering::Relaxed);
    for s in spinners {
        s.join().unwrap();
    }
    assert_eq!(fed[0], fed[1], "federation");
    assert_eq!(promo[0], promo[1], "promotion");
    assert_eq!(lease[0], lease[1], "lease");
}
