//! Bounded model checking of the federation recovery protocol.
//!
//! Explores `FederationScenario::quick` — the federated crash drill that
//! `fig_federation` and `fig_federation_ha` run at larger sizes — over every
//! reachable schedule up to a depth bound: fault timing (the injector
//! task's timer), the replicator task's disk-charge and wire timers,
//! reconcile resume-block replay points and every other task's timers are
//! all explorable events. Each
//! execution re-runs the whole scenario
//! from scratch under a scripted schedule and checks the recovery
//! invariants (no acked byte lost, reconcile converges, primary/replica
//! checksums equal, no deadlock, bounded divergence queue).
//!
//! Exploration is exhaustive up to the bound and fully deterministic, so
//! the summary is bit-identical across invocations — CI diffs `--quick`
//! against `results/fig_mc_quick.txt`. The final section injects a
//! deliberately broken invariant and prints the counterexample schedule
//! trace the explorer pins on it, demonstrating the replay pipeline.

use semplar_bench::{flags, Table};
use semplar_mc::{explore, BrokenInvariant, ExploreCfg, FederationScenario, Scenario, ScriptHook};

fn main() {
    let [quick] = flags(["--quick"]);
    let (depth, max_executions) = if quick { (13, 2000) } else { (20, 8000) };
    let seed = 7u64;
    let scenario = FederationScenario::quick(seed);
    let (crash_at, down_for) = scenario.crash.expect("the quick drill crashes");
    let cfg = ExploreCfg {
        depth,
        max_executions,
        prune_visited: true,
        stop_on_violation: false,
    };
    let report = explore(&scenario, &cfg);

    let mut t = Table::new(
        &format!(
            "Bounded model check: 2-shard federation, {}x{} KiB files, primary crash \
             at t={:.1}s for {:.1}s (DFS, depth {depth}, cap {max_executions}, seed {seed})",
            scenario.files,
            scenario.bytes_per_file >> 10,
            crash_at.as_secs_f64(),
            down_for.as_secs_f64(),
        ),
        &["metric", "value"],
    );
    t.row(vec![
        "distinct interleavings executed".into(),
        report.executions.to_string(),
    ]);
    t.row(vec![
        "invariant violations".into(),
        report.violations.to_string(),
    ]);
    t.row(vec![
        "choice points (total)".into(),
        report.choice_points.to_string(),
    ]);
    t.row(vec![
        "max eligible events at one point".into(),
        report.max_alternatives.to_string(),
    ]);
    t.row(vec![
        "max choice points in one run".into(),
        report.max_points_per_run.to_string(),
    ]);
    t.row(vec![
        "unique runtime states".into(),
        report.unique_states.to_string(),
    ]);
    t.row(vec![
        "subtrees pruned (visited states)".into(),
        report.pruned.to_string(),
    ]);
    t.row(vec![
        "frontier truncated by cap".into(),
        report.truncated.to_string(),
    ]);
    t.print();
    println!("summary: {}", report.summary());
    assert_eq!(
        report.violations, 0,
        "invariant violation: {:?}",
        report.counterexample
    );

    // Counterexample pipeline demo: break an invariant on purpose and show
    // the replayable trace the explorer emits.
    println!();
    println!("injected violation (invariant deliberately broken: NoFailoverEver):");
    let broken = FederationScenario::quick(seed).with_broken(BrokenInvariant::NoFailoverEver);
    let breport = explore(
        &broken,
        &ExploreCfg {
            stop_on_violation: true,
            ..cfg
        },
    );
    let trace = breport
        .counterexample
        .expect("broken invariant must yield a counterexample");
    print!("{}", trace.serialize());
    let replay = broken.run(ScriptHook::follow(trace.choices.clone()));
    println!(
        "replay: {}",
        match &replay {
            Ok(()) => "PASSED (trace failed to reproduce!)".to_string(),
            Err(e) => format!("reproduces deterministically ({e})"),
        }
    );
    assert!(
        replay.is_err(),
        "counterexample trace must replay to failure"
    );
    assert_eq!(
        FederationScenario::quick(seed).run(ScriptHook::follow(trace.choices)),
        Ok(()),
        "the same schedule must be clean without the broken invariant"
    );
}
