//! §7.1 contention experiment: 2D Laplace with overlap + two connections.
//!
//! The paper's counter-intuitive result: combining overlap with the double
//! connection yields "approximately the same \[time\] as the highest of the
//! two (overlapping alone)" because of I/O-bus contention between the
//! interconnect and Ethernet NICs; restructuring the code (moving the
//! `MPIO_Wait` from position 1 to position 2, so remote I/O no longer
//! overlaps MPI communication) recovers the double-connection time.

use semplar_bench::table::secs;
use semplar_bench::{flags, with_testbed, Table};
use semplar_clusters::das2;
use semplar_workloads::{run_laplace, LaplaceMode, LaplaceParams};

fn main() {
    let [quick] = flags(["--quick"]);
    let base = if quick {
        LaplaceParams {
            grid: 1201,
            checkpoints: 4,
            ..LaplaceParams::default()
        }
    } else {
        LaplaceParams {
            checkpoints: 6,
            ..LaplaceParams::default()
        }
    };
    let n = if quick { 2 } else { 4 };

    let ([overlap_alone, two_streams_alone, naive, restructured], _) =
        with_testbed(das2(), n, move |tb| {
            [
                (LaplaceMode::AsyncOverlap, 1),
                (LaplaceMode::Sync, 2),
                (LaplaceMode::AsyncOverlap, 2),
                (LaplaceMode::AsyncNoCommOverlap, 2),
            ]
            .map(|(mode, streams)| {
                run_laplace(
                    &tb,
                    n,
                    LaplaceParams {
                        mode,
                        streams,
                        ..base
                    },
                )
                .exec_secs
            })
        });
    let mut t = Table::new(
        &format!("§7.1 contention experiment (das2, {n} procs): 2D Laplace"),
        &["configuration", "exec (s)"],
    );
    for (label, exec) in [
        ("overlap alone (1 stream)", overlap_alone),
        ("two streams alone (no overlap)", two_streams_alone),
        ("combined, wait at position 1 (naive)", naive),
        ("combined, wait at position 2 (restructured)", restructured),
    ] {
        t.row(vec![label.into(), secs(exec)]);
    }
    t.print();
    println!(
        "naive combined / overlap-alone = {:.2} (paper: ~1.0 — the 2nd stream's benefit is lost)",
        naive / overlap_alone
    );
    println!(
        "restructured / two-streams-alone = {:.2} (paper: ~1.0 — restructuring recovers it)",
        restructured / two_streams_alone
    );
}
