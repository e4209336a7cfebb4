//! Remote collective I/O study (the paper's §9 future work, measured):
//! naive strided writes vs two-phase aggregation vs two-phase with
//! asynchronous aggregator writes, on the DAS-2 → SDSC path.

use semplar_bench::{flags, with_testbed, Table};
use semplar_clusters::das2;
use semplar_workloads::{run_collective, CollectiveMode, CollectiveParams};

fn main() {
    let [quick] = flags(["--quick"]);
    let procs_list: &[usize] = if quick { &[4] } else { &[2, 4, 8, 12] };

    let mut t = Table::new(
        "§9 future work: remote collective I/O (das2, 64×N matrix of 8 KiB cells)",
        &[
            "procs",
            "naive (s)",
            "two-phase sync (s)",
            "two-phase async (s)",
            "naive ops",
            "2-phase ops",
        ],
    );
    for &n in procs_list {
        let ((naive, sync2, async2), _) = with_testbed(das2(), n, move |tb| {
            let p = |mode| CollectiveParams {
                rows: 64,
                cell_bytes: 8 * 1024,
                aggregators: (n / 2).max(1),
                bands: 4,
                steps: 4,
                compute_per_step: 0.5,
                mode,
            };
            (
                run_collective(&tb, n, p(CollectiveMode::Naive)),
                run_collective(&tb, n, p(CollectiveMode::TwoPhaseSync)),
                run_collective(&tb, n, p(CollectiveMode::TwoPhaseAsync)),
            )
        });
        t.row(vec![
            n.to_string(),
            format!("{:.1}", naive.exec_secs),
            format!("{:.1}", sync2.exec_secs),
            format!("{:.1}", async2.exec_secs),
            naive.remote_ops.to_string(),
            sync2.remote_ops.to_string(),
        ]);
    }
    t.print();
    println!(
        "Aggregation turns hundreds of RTT-bound small writes into a few large\n\
         transfers; asynchronous aggregator writes additionally overlap each\n\
         band's exchange with the previous band's WAN write — the answer to the\n\
         paper's closing question about async primitives and collective I/O."
    );
}
