//! Bounded systematic exploration.
//!
//! The explorer enumerates schedules by *stateless re-execution*: each
//! candidate schedule is a prefix of choice indices, executed from scratch
//! against a fresh virtual-time simulation with a [`ScriptHook`]. After an
//! execution, every choice point the run revealed **beyond** its scripted
//! prefix is expanded: for point `i` with `n` eligible events, the
//! prefixes `recorded[..i] + [alt]` for `alt in 1..n` are pushed onto the
//! worklist. Prefixes never end in 0, so every executed schedule is a
//! distinct interleaving by construction.
//!
//! Two bounds keep the tree finite: `depth` caps how many choice points
//! deep expansion reaches, and `max_executions` caps the total run count
//! (reported as a truncated frontier). Visited-state hashing prunes
//! re-expansion: if the runtime fingerprint at point `i` has already been
//! expanded with alternative `alt`, the subtree is assumed explored — the
//! fingerprint covers the clock, every actor's blocking state, and the
//! pending event multiset, which is exactly the state a schedule decision
//! can depend on.
//!
//! A scenario that is not a function of its schedule shows up as a
//! scripted index out of range for its point; that run fails with
//! `schedule diverged at point k (wanted i of n)` (see [`ScriptHook`]) and
//! is reported like any other violation, with the trace that led there.

use std::collections::{HashSet, VecDeque};

use crate::scenario::Scenario;
use crate::script::ScriptHook;
use crate::trace::McTrace;

/// Worklist discipline for the exploration frontier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Depth-first: dives to the depth bound quickly; smallest frontier.
    Dfs,
    /// Breadth-first: finds shallow counterexamples first.
    Bfs,
}

/// Bounds and knobs for one exploration.
#[derive(Clone, Debug)]
pub struct ExploreCfg {
    /// Worklist discipline.
    pub strategy: Strategy,
    /// Maximum choice-point depth expanded (points beyond it always take
    /// the default event).
    pub depth: usize,
    /// Hard cap on executions; hitting it truncates the frontier.
    pub max_executions: u64,
    /// Prune alternatives whose (state fingerprint, alternative) pair was
    /// already expanded from an earlier execution.
    pub prune_visited: bool,
    /// Stop at the first invariant violation instead of exploring on.
    pub stop_on_violation: bool,
    /// Partial-order reduction: skip alternatives that the scenario's
    /// [`Scenario::commutes`] oracle declares independent of the event the
    /// default schedule took at the same point (the swapped interleaving
    /// is a transposition of one already explored). Off by default — the
    /// committed `fig_mc` summaries predate the reduction and must not
    /// change.
    pub por: bool,
}

impl Default for ExploreCfg {
    fn default() -> ExploreCfg {
        ExploreCfg {
            strategy: Strategy::Dfs,
            depth: 8,
            max_executions: 2000,
            prune_visited: true,
            stop_on_violation: true,
            por: false,
        }
    }
}

/// What one bounded exploration did and found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Schedules executed — each one a distinct interleaving.
    pub executions: u64,
    /// Executions that violated an invariant.
    pub violations: u64,
    /// The first violation's replayable trace, if any.
    pub counterexample: Option<McTrace>,
    /// Choice points encountered, summed over all executions.
    pub choice_points: u64,
    /// Largest eligible-event set seen at any single choice point.
    pub max_alternatives: usize,
    /// Most choice points seen in a single execution.
    pub max_points_per_run: usize,
    /// Distinct runtime state fingerprints observed at choice points.
    pub unique_states: u64,
    /// Alternatives skipped by visited-state pruning.
    pub pruned: u64,
    /// Alternatives skipped by partial-order reduction (commuting pairs).
    pub pruned_por: u64,
    /// Whether partial-order reduction was enabled for this exploration.
    pub por: bool,
    /// True when `max_executions` cut the frontier short.
    pub truncated: bool,
}

impl ExploreReport {
    /// The deterministic one-line summary diffed by CI. The
    /// `pruned_por` field only appears when the reduction was enabled,
    /// so summaries from POR-off runs — including every committed
    /// `fig_mc` output — render exactly as they did before POR existed.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "executions={} violations={} choice_points={} max_alternatives={} \
             max_points_per_run={} unique_states={} pruned={} truncated={}",
            self.executions,
            self.violations,
            self.choice_points,
            self.max_alternatives,
            self.max_points_per_run,
            self.unique_states,
            self.pruned,
            self.truncated,
        );
        if self.por {
            s.push_str(&format!(" pruned_por={}", self.pruned_por));
        }
        s
    }
}

/// Run a bounded exploration of `scenario` under `cfg`.
pub fn explore(scenario: &dyn Scenario, cfg: &ExploreCfg) -> ExploreReport {
    semplar_runtime::set_quiet_panics(true);
    let mut report = ExploreReport {
        por: cfg.por,
        ..ExploreReport::default()
    };
    let mut worklist: VecDeque<Vec<usize>> = VecDeque::new();
    worklist.push_back(Vec::new());
    let mut expanded: HashSet<(u64, usize)> = HashSet::new();
    let mut states: HashSet<u64> = HashSet::new();
    while let Some(prefix) = match cfg.strategy {
        Strategy::Dfs => worklist.pop_back(),
        Strategy::Bfs => worklist.pop_front(),
    } {
        if report.executions >= cfg.max_executions {
            report.truncated = true;
            break;
        }
        let hook = ScriptHook::follow(prefix.clone());
        let outcome = scenario.run(hook.clone());
        let records = hook.records();
        report.executions += 1;
        report.choice_points += records.len() as u64;
        report.max_points_per_run = report.max_points_per_run.max(records.len());
        for r in &records {
            report.max_alternatives = report.max_alternatives.max(r.alternatives);
            states.insert(r.fingerprint);
        }
        if let Err(violation) = outcome {
            report.violations += 1;
            if report.counterexample.is_none() {
                report.counterexample =
                    Some(McTrace::from_records(scenario.name(), &violation, &records));
            }
            if cfg.stop_on_violation {
                break;
            }
            // A violating run's suffix is not a schedule worth expanding.
            continue;
        }
        // Expand only points this run decided freshly (beyond its prefix).
        for i in prefix.len()..records.len().min(cfg.depth) {
            for alt in 1..records[i].alternatives {
                // Partial-order reduction: if the alternative commutes
                // with the event this run took here, the schedule that
                // fires it first is a transposition of one in the
                // explored subtree — same successor state, nothing new.
                if cfg.por
                    && scenario.commutes(
                        &records[i].eligible[records[i].chosen],
                        &records[i].eligible[alt],
                    )
                {
                    report.pruned_por += 1;
                    continue;
                }
                if cfg.prune_visited && !expanded.insert((records[i].fingerprint, alt)) {
                    report.pruned += 1;
                    continue;
                }
                let mut next: Vec<usize> = records[..i].iter().map(|r| r.chosen).collect();
                next.push(alt);
                worklist.push_back(next);
            }
        }
    }
    report.unique_states = states.len() as u64;
    semplar_runtime::set_quiet_panics(false);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    use semplar_runtime::{spawn, Dur, SimRuntime};

    /// `n` actors sleep to within one window of each other, then record
    /// their completion order.
    fn race(hook: Arc<ScriptHook>, n: usize) -> Vec<usize> {
        let sim = SimRuntime::new();
        sim.set_schedule_hook(hook, Dur::from_micros(10));
        sim.run_root(move |rt| {
            let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let mut hs = Vec::new();
            for i in 0..n {
                let rt2 = rt.clone();
                let o = order.clone();
                hs.push(spawn(&rt, &format!("t{i}"), move || {
                    rt2.sleep(Dur::from_micros(5 + i as u64));
                    o.lock().push(i);
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
            let o = order.lock().clone();
            o
        })
    }

    /// A toy scenario: a three-way [`race`]. The "invariant" is
    /// configurable so tests can inject a violation.
    struct Toy {
        /// Completion orders treated as violations.
        forbidden: Vec<Vec<usize>>,
    }

    impl Scenario for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn run(&self, hook: Arc<ScriptHook>) -> Result<(), String> {
            let order = race(hook, 3);
            if self.forbidden.contains(&order) {
                return Err(format!("forbidden order {order:?}"));
            }
            Ok(())
        }
    }

    /// Not a function of its schedule: the first execution races three
    /// actors, every later one only two.
    struct Shrinking {
        runs: AtomicUsize,
    }

    impl Scenario for Shrinking {
        fn name(&self) -> &str {
            "shrinking"
        }
        fn run(&self, hook: Arc<ScriptHook>) -> Result<(), String> {
            let n = if self.runs.fetch_add(1, Ordering::SeqCst) == 0 {
                3
            } else {
                2
            };
            std::panic::catch_unwind(move || race(hook, n))
                .map(|_| ())
                .map_err(|p| match p.downcast::<String>() {
                    Ok(msg) => format!("simulation panicked: {msg}"),
                    Err(_) => "simulation panicked".to_string(),
                })
        }
    }

    /// Two independent groups of two actors: `a0,a1` race onto one order
    /// vector, `b0,b1` onto another. Cross-group pairs touch disjoint
    /// state and commute; same-group pairs race on a shared vec and must
    /// stay ordered. The "invariant" forbids configurable group-a orders.
    struct TwoGroups {
        forbidden_a: Vec<Vec<usize>>,
    }

    impl Scenario for TwoGroups {
        fn name(&self) -> &str {
            "two-groups"
        }
        fn run(&self, hook: Arc<ScriptHook>) -> Result<(), String> {
            let sim = SimRuntime::new();
            sim.set_schedule_hook(hook, Dur::from_micros(10));
            let order_a = sim.run_root(|rt| {
                let oa = Arc::new(parking_lot::Mutex::new(Vec::new()));
                let ob = Arc::new(parking_lot::Mutex::new(Vec::new()));
                let mut hs = Vec::new();
                for (group, o) in [("a", &oa), ("b", &ob)] {
                    for i in 0..2usize {
                        let rt2 = rt.clone();
                        let o = o.clone();
                        hs.push(spawn(&rt, &format!("{group}{i}"), move || {
                            rt2.sleep(Dur::from_micros(5 + i as u64));
                            o.lock().push(i);
                        }));
                    }
                }
                for h in hs {
                    h.join_unwrap();
                }
                let o = oa.lock().clone();
                o
            });
            if self.forbidden_a.contains(&order_a) {
                return Err(format!("forbidden group-a order {order_a:?}"));
            }
            Ok(())
        }
        fn commutes(&self, a: &str, b: &str) -> bool {
            // Labels are `a0/sleep`, `b1/sleep`, ...: cross-group events
            // write disjoint vectors, same-group events race.
            let group = |l: &str| l.as_bytes().first().copied();
            group(a) != group(b)
        }
    }

    #[test]
    fn explores_every_permutation_of_a_three_way_race() {
        let report = explore(
            &Toy { forbidden: vec![] },
            &ExploreCfg {
                prune_visited: false,
                ..ExploreCfg::default()
            },
        );
        // 3 simultaneous-window events: 3! = 6 interleavings, each hit
        // exactly once (prefixes never end in 0).
        assert_eq!(report.executions, 6);
        assert_eq!(report.violations, 0);
        assert!(report.counterexample.is_none());
        assert_eq!(report.max_alternatives, 3);
        assert!(!report.truncated);
    }

    #[test]
    fn por_prunes_commuting_interleavings_without_losing_coverage() {
        let mk = |por| ExploreCfg {
            por,
            prune_visited: false,
            stop_on_violation: false,
            ..ExploreCfg::default()
        };
        // Same-group races fully explored either way: the reversed
        // group-a order is reachable only by reordering a0/a1, which the
        // oracle refuses to prune — POR must still find the violation.
        let sc = TwoGroups {
            forbidden_a: vec![vec![1, 0]],
        };
        let full = explore(&sc, &mk(false));
        let por = explore(&sc, &mk(true));
        assert!(full.violations > 0);
        assert!(
            por.violations > 0,
            "POR pruned the only path to the violation"
        );
        assert!(por.pruned_por > 0, "oracle never fired");
        assert!(
            por.executions < full.executions,
            "POR executed {} schedules, full exploration {}",
            por.executions,
            full.executions
        );
        assert!(!full.por);
        assert!(por.por);
    }

    #[test]
    fn por_field_appears_in_summaries_only_when_enabled() {
        let off = explore(&Toy { forbidden: vec![] }, &ExploreCfg::default());
        assert!(!off.summary().contains("pruned_por"));
        let on = explore(
            &Toy { forbidden: vec![] },
            &ExploreCfg {
                por: true,
                ..ExploreCfg::default()
            },
        );
        // The toy's oracle is the default (nothing commutes): POR runs
        // the identical exploration, only the summary grows the field.
        assert!(on.summary().ends_with("pruned_por=0"));
        assert_eq!(off.executions, on.executions);
        assert_eq!(off.unique_states, on.unique_states);
    }

    #[test]
    fn exploration_is_deterministic() {
        let cfg = ExploreCfg::default();
        let a = explore(&Toy { forbidden: vec![] }, &cfg);
        let b = explore(&Toy { forbidden: vec![] }, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn finds_and_replays_a_violation() {
        // Forbid the reverse order — only systematic exploration reaches it.
        let toy = Toy {
            forbidden: vec![vec![2, 1, 0]],
        };
        let report = explore(&toy, &ExploreCfg::default());
        assert_eq!(report.violations, 1);
        let trace = report.counterexample.expect("counterexample");
        assert!(trace.violation.contains("[2, 1, 0]"));
        // The serialized trace replays to the same deterministic failure.
        let parsed = crate::trace::McTrace::parse(&trace.serialize()).expect("parse");
        let replay = toy.run(ScriptHook::follow(parsed.choices.clone()));
        assert_eq!(replay, Err("forbidden order [2, 1, 0]".to_string()));
        // And the default schedule passes.
        assert_eq!(toy.run(ScriptHook::default_schedule()), Ok(()));
    }

    #[test]
    fn a_diverging_scenario_is_reported_not_followed() {
        let sc = Shrinking {
            runs: AtomicUsize::new(0),
        };
        let report = explore(&sc, &ExploreCfg::default());
        // The first run offers index 2 at point 0; no later run has such
        // an event, and must fail rather than quietly take another.
        assert_eq!(report.violations, 1);
        let trace = report.counterexample.expect("divergence is reported");
        assert!(
            trace
                .violation
                .ends_with("schedule diverged at point 0 (wanted 2 of 2)"),
            "{}",
            trace.violation
        );
    }

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
        let runs: Vec<_> = (0..10)
            .map(|_| {
                let hook = ScriptHook::follow(vec![2, 1]);
                (race(hook.clone(), 3), hook.records())
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        for s in spinners {
            s.join().unwrap();
        }
        assert_eq!(runs[0].0, vec![2, 1, 0]);
        assert!(runs.iter().all(|r| r == &runs[0]), "{runs:?}");
    }

    #[test]
    fn bfs_visits_the_same_interleavings_as_dfs() {
        let mk = |strategy| ExploreCfg {
            strategy,
            prune_visited: false,
            ..ExploreCfg::default()
        };
        let d = explore(&Toy { forbidden: vec![] }, &mk(Strategy::Dfs));
        let b = explore(&Toy { forbidden: vec![] }, &mk(Strategy::Bfs));
        assert_eq!(d.executions, b.executions);
        assert_eq!(d.unique_states, b.unique_states);
    }

    #[test]
    fn execution_cap_truncates_the_frontier() {
        let report = explore(
            &Toy { forbidden: vec![] },
            &ExploreCfg {
                max_executions: 3,
                prune_visited: false,
                ..ExploreCfg::default()
            },
        );
        assert_eq!(report.executions, 3);
        assert!(report.truncated);
    }
}
