//! The model checker's quietness is scoped to the engines it schedules.
//!
//! Exploring drives simulations into panics on purpose (deadlocks, violated
//! invariants) and reports them as violations, so `mc` keeps their panic
//! messages off stderr. Every other simulation in the process must still
//! print its panics, whether or not an exploration is running on another
//! thread. This is a test binary of its own so that the order of panic
//! hooks is fixed: the recording hook below is installed first, and `mc`'s
//! hook, installed by the first scheduled run, hands it every panic it
//! does not silence.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use semplar_repro::mc::{explore, ExploreCfg, FederationScenario, Scenario, ScriptHook};
use semplar_repro::runtime::{simulate, SimRuntime};

/// Every panic message the process raised, in order.
static RECORDED: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// One execution of the federated drill under the explorer's hook, then a
/// panic in a quiet engine, then a pause until the other thread's plain
/// simulation has panicked.
struct Paused {
    started: Mutex<Sender<()>>,
    resume: Mutex<Receiver<()>>,
}

impl Scenario for Paused {
    fn name(&self) -> &str {
        "paused"
    }

    fn run(&self, hook: Arc<ScriptHook>) -> Result<(), String> {
        let drill = FederationScenario::quick(7).run(hook);
        let quiet = SimRuntime::new();
        quiet.mark_quiet();
        let boom = catch_unwind(AssertUnwindSafe(|| {
            quiet.run_root(|_| panic!("quiet-engine-boom"))
        }));
        assert!(boom.is_err(), "the quiet engine's panic propagates");
        self.started.lock().unwrap().send(()).unwrap();
        self.resume.lock().unwrap().recv().unwrap();
        drill
    }
}

#[test]
fn a_plain_simulation_prints_its_panic_while_another_thread_explores() {
    std::panic::set_hook(Box::new(|info| {
        let payload = info.payload();
        let msg = (payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        RECORDED.lock().unwrap().push(msg);
    }));
    let (started, explore_started) = channel();
    let (resume, paused) = channel();
    let scenario = Paused {
        started: Mutex::new(started),
        resume: Mutex::new(paused),
    };
    let cfg = ExploreCfg {
        depth: 0,
        max_executions: 1,
        ..ExploreCfg::default()
    };
    let explorer = std::thread::spawn(move || explore(&scenario, &cfg));
    explore_started.recv().unwrap();
    let plain = std::thread::spawn(|| simulate(|_| panic!("plain-simulation-boom"))).join();
    assert!(plain.is_err(), "the plain simulation's panic propagates");
    resume.send(()).unwrap();
    let report = explorer.join().expect("explore returns");
    assert_eq!((report.executions, report.violations), (1, 0));

    let recorded = RECORDED.lock().unwrap().clone();
    assert!(
        recorded.iter().any(|m| m == "plain-simulation-boom"),
        "{recorded:?}"
    );
    assert!(
        !recorded.iter().any(|m| m.contains("quiet-engine-boom")),
        "{recorded:?}"
    );
}
