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
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use semplar_repro::clusters::{das2, Testbed};
use semplar_repro::mc::{
    explore, BrokenInvariant, ChoiceRecord, ExploreCfg, FederationScenario, LeaseScenario, McTrace,
    PromotionScenario, Scenario, ScriptHook,
};
use semplar_repro::runtime::{spawn, Dur, SimRuntime, Task, TaskCtx, TaskExecutor, TaskStep};
use semplar_repro::semplar::{OpenFlags, Payload};
use semplar_repro::workloads::{run_swarm, SwarmParams};

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

    /// The same pin for a swarm, whose sessions are tasks: their timers are
    /// choices now, and index 0 at each is still the plain engine's order.
    #[test]
    fn default_strategy_reproduces_a_swarm(seed in 0u64..1000) {
        let swarm = |hook: Option<Arc<ScriptHook>>| {
            let sim = SimRuntime::new();
            if let Some(h) = hook {
                // Arrivals never tie, so give the hook a window that
                // gathers neighbouring sessions' timers into one point.
                sim.set_schedule_hook(h, Dur::from_micros(300));
            }
            let report = sim.run_root(move |rt| {
                let params = SwarmParams {
                    clients: 6,
                    streams_per_node: 3,
                    think: Dur::from_micros(50),
                    seed,
                    ..SwarmParams::quick()
                };
                run_swarm(&Testbed::new(rt, das2(), 2), &params)
            });
            (format!("{report:?}"), sim.stats().choice_points)
        };
        let (plain, plain_points) = swarm(None);
        let hook = ScriptHook::default_schedule();
        let (hooked, hooked_points) = swarm(Some(hook.clone()));
        prop_assert_eq!(plain_points, 0, "plain engine has no choice points");
        prop_assert!(hooked_points > 0, "hook saw no choice points");
        let offered = hook.records().into_iter().flat_map(|r| r.eligible);
        prop_assert!(
            offered.filter(|l| l.ends_with("/task sleep")).count() >= 2,
            "no point offered the hook two sessions' timers"
        );
        prop_assert!(plain.contains("ok: true") && !plain.contains("ok: false"));
        prop_assert_eq!(plain, hooked);
    }
}

/// Two tasks of one executor nap 5 ms and so come due at one instant; the
/// planted invariant claims the one spawned first always finishes first.
struct TwoTaskRace {
    planted: bool,
}

struct Napper {
    id: u32,
    slept: bool,
    finished: Arc<Mutex<Vec<u32>>>,
}

impl Task for Napper {
    fn poll(&mut self, _cx: &mut TaskCtx<'_>) -> TaskStep {
        if std::mem::replace(&mut self.slept, true) {
            self.finished.lock().unwrap().push(self.id);
            return TaskStep::Done;
        }
        TaskStep::Sleep(Dur::from_millis(5))
    }
}

impl Scenario for TwoTaskRace {
    fn name(&self) -> &str {
        "two-task-race"
    }

    fn run(&self, hook: Arc<ScriptHook>) -> Result<(), String> {
        let sim = SimRuntime::new();
        sim.set_schedule_hook(hook, Dur::ZERO);
        let finished = sim.run_root(|rt| {
            let ex = TaskExecutor::new(&rt, "race");
            let finished = Arc::new(Mutex::new(Vec::new()));
            let hs: Vec<_> = (0..2)
                .map(|id| {
                    ex.spawn(Box::new(Napper {
                        id,
                        slept: false,
                        finished: finished.clone(),
                    }))
                })
                .collect();
            hs.iter().for_each(|h| h.join());
            let order = finished.lock().unwrap().clone();
            order
        });
        if self.planted && finished != [0, 1] {
            return Err(format!("task 0 must finish first, saw {finished:?}"));
        }
        Ok(())
    }
}

/// Task timers are explorable: `explore` reorders two tasks of one
/// executor that come due together, finds the planted violation, and its
/// trace replays to it; the default schedule is clean.
#[test]
fn explore_finds_a_two_task_same_instant_race() {
    let racy = TwoTaskRace { planted: true };
    assert_eq!(racy.run(ScriptHook::default_schedule()), Ok(()));
    let report = explore(&racy, &ExploreCfg::default());
    assert_eq!(report.violations, 1);
    let trace = report.counterexample.expect("violation must be found");
    let trace = McTrace::parse(&trace.serialize()).expect("trace parses");
    let replay = ScriptHook::follow(trace.choices.clone());
    assert_eq!(
        racy.run(replay.clone()),
        Err("task 0 must finish first, saw [1, 0]".into())
    );
    let point = &replay.records()[0];
    assert_eq!(point.eligible, ["race/0/task sleep", "race/1/task sleep"]);
    assert_eq!(point.label, "race/1/task sleep");
    assert_eq!(
        TwoTaskRace { planted: false }.run(ScriptHook::follow(trace.choices)),
        Ok(()),
        "same schedule, invariant restored: must pass"
    );
}

/// Two clients on two nodes write 1 MB each from the same instant over
/// symmetric paths, so their connection handlers' timers tie at every stage
/// — the overhead sleep, the seek, the transfer on the disk they share.
/// Returns the order the writes were acknowledged in.
fn two_handlers_in_lockstep(hook: Arc<ScriptHook>) -> Vec<usize> {
    let sim = SimRuntime::new();
    sim.set_schedule_hook(hook, Dur::ZERO);
    sim.run_root(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), 2);
        let acked = Arc::new(Mutex::new(Vec::new()));
        let conns: Vec<_> = (0..2)
            .map(|node| {
                let conn = tb.server.connect(tb.route(node), "semplar", "hpdc06");
                let conn = conn.unwrap();
                let fd = conn
                    .open(&format!("/o{node}"), OpenFlags::CreateRw)
                    .unwrap();
                (node, conn, fd)
            })
            .collect();
        let clients: Vec<_> = conns
            .into_iter()
            .map(|(node, conn, fd)| {
                let acked = acked.clone();
                spawn(&rt, &format!("client{node}"), move || {
                    conn.write(fd, 0, Payload::sized(1 << 20)).unwrap();
                    acked.lock().unwrap().push(node);
                })
            })
            .collect();
        clients.into_iter().for_each(|c| c.join_unwrap());
        let order = acked.lock().unwrap().clone();
        order
    })
}

/// A connection's timers are explorable at both ends: handlers are tasks,
/// so their same-instant disk completions reach the hook as one choice
/// point labelled with the handlers' names, and taking the other branch
/// there reorders the acknowledgements; a per-open stream's sender is a
/// task too, offered under the stream's label.
#[test]
fn two_handlers_disk_completions_are_one_choice_point() {
    let stock = ScriptHook::default_schedule();
    // (The second flow's arrival re-rates the first, whose handler re-arms
    // behind it: the stock schedule completes connection 1's first.)
    assert_eq!(two_handlers_in_lockstep(stock.clone()), [1, 0]);
    let records = stock.records();
    let tied = |r: &ChoiceRecord, why: &str| {
        let mut offered = r.eligible.clone();
        offered.sort();
        offered == [0, 1].map(|c| format!("orion/conn/{c}/{why}"))
    };
    let sleeps = records.iter().filter(|r| tied(r, "task sleep"));
    assert_eq!(sleeps.count(), 3, "overhead, seek, response latency");
    // So are the client side's: each `connect` stream's sender is task 1
    // under the stream's label, and the two frames' latency sleeps and wire
    // transfers tie. (A demultiplexer waits untimed: it arms nothing for
    // the hook to reorder.)
    let offered = |r: &ChoiceRecord, why: &str| {
        r.eligible == [0, 1].map(|c| format!("orion/mux-{c}/1/{why}"))
    };
    assert!(offered(&records[0], "task sleep"), "{:?}", records[0]);
    let wire = "event wait (timeout)";
    assert!(offered(&records[1], wire), "{:?}", records[1]);
    // The first tied flow wait between the handlers is the disk's: the
    // responses go out only after it.
    let disk = records
        .iter()
        .position(|r| tied(r, "event wait (timeout)"))
        .expect("the disk completions tie");
    assert_eq!(records[disk].label, "orion/conn/1/event wait (timeout)");
    // Let connection 0's transfer complete first: it answers first.
    let mut script: Vec<_> = records[..disk].iter().map(|r| r.chosen).collect();
    script.push(1);
    let flipped = ScriptHook::follow(script);
    assert_eq!(two_handlers_in_lockstep(flipped.clone()), [0, 1]);
    assert_eq!(
        flipped.records()[disk].label,
        "orion/conn/0/event wait (timeout)"
    );
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
