//! The paper's application workloads under the availability fault plan.
//!
//! MPI-BLAST (asynchronous result writes) and the 2D Laplace solver
//! (asynchronous overlapped checkpoints) each run fault-free, then again
//! with the seeded availability mix — WAN link flaps, a vault stall, a
//! connection reset, and a server crash + restart — injected at the start
//! of the run, so client-side recovery happens *inside* the compute/I-O
//! overlap window. The runs must complete (the retry path absorbs every
//! fault); the table reports how much of the fault cost the overlap hides.
//! Entirely in virtual time and seeded, so output is bit-identical across
//! invocations.

use std::sync::Arc;

use semplar_bench::{availability_plan, flags, print_fault_ledger, with_testbed, Table};
use semplar_clusters::{das2, Testbed};
use semplar_faults::FaultStats;
use semplar_runtime::Dur;
use semplar_workloads::{run_blast, run_laplace, BlastParams, LaplaceMode, LaplaceParams};

/// Max-per-rank phase times of one run, seconds.
struct Phases {
    exec: f64,
    compute: f64,
    io: f64,
}

struct Arm {
    clean: Phases,
    faulted: Phases,
    faults: FaultStats,
}

/// `run` fault-free, then again under the fig_availability mix, its
/// timeline stretched to the clean execution time so every event lands
/// mid-run.
fn arm(tb: &Arc<Testbed>, seed: u64, run: impl Fn() -> Phases) -> Arm {
    let clean = run();
    let s = |twelfths: f64| Dur::from_secs_f64(twelfths * (clean.exec / 12.0));
    let at = [s(2.0), s(4.0), s(6.0), s(8.0)];
    let inj =
        availability_plan(seed, tb.wan_links().0, at, s(0.6)).inject(&tb.rt, &tb.net, &tb.server);
    let faulted = run();
    inj.wait();
    Arm {
        clean,
        faulted,
        faults: inj.stats(),
    }
}

fn main() {
    let [quick] = flags(["--quick"]);
    let (procs, queries, laplace) = if quick {
        (
            3usize,
            60usize,
            LaplaceParams {
                checkpoints: 2,
                ..LaplaceParams::default()
            },
        )
    } else {
        (4usize, 150usize, LaplaceParams::default())
    };
    let seed = 42u64;

    let ((blast, laplace), _) = with_testbed(das2(), procs, move |tb| {
        let bp = BlastParams::calibrated(&tb.spec, queries, 4.0).with_async(true);
        let blast = arm(&tb, seed, || {
            let r = run_blast(&tb, procs, bp);
            Phases {
                exec: r.exec_secs,
                compute: r.compute_secs,
                io: r.io_secs,
            }
        });
        let lp = LaplaceParams {
            mode: LaplaceMode::AsyncOverlap,
            ..laplace
        };
        let laplace = arm(&tb, seed + 1, || {
            let r = run_laplace(&tb, procs, lp);
            Phases {
                exec: r.exec_secs,
                compute: r.compute_secs,
                io: r.io_secs,
            }
        });
        (blast, laplace)
    });

    let mut t = Table::new(
        &format!(
            "Workloads under the availability fault plan (das2, {procs} procs, seed {seed}): \
             WAN flaps + vault stall + conn reset + server crash, injected at run start"
        ),
        &[
            "workload",
            "clean (s)",
            "faulted (s)",
            "slowdown",
            "compute (s)",
            "io (s)",
            "faults injected",
        ],
    );
    for (name, arm) in [
        ("MPI-BLAST async", &blast),
        ("Laplace async-overlap", &laplace),
    ] {
        t.row(vec![
            name.into(),
            format!("{:.1}", arm.clean.exec),
            format!("{:.1}", arm.faulted.exec),
            format!("{:.2}x", arm.faulted.exec / arm.clean.exec.max(1e-9)),
            format!("{:.1}", arm.faulted.compute),
            format!("{:.1}", arm.faulted.io),
            arm.faults.injected().to_string(),
        ]);
    }
    t.print();

    for (name, arm) in [("blast", &blast), ("laplace", &laplace)] {
        print_fault_ledger(
            &format!("{name} fault ledger (virtual time from injection)"),
            &arm.faults,
        );
        assert_eq!(
            arm.faults.crashes, 1,
            "{name}: the server crash never landed"
        );
        assert!(
            arm.faulted.exec >= arm.clean.exec,
            "{name}: faulted run faster than clean?"
        );
    }
}
