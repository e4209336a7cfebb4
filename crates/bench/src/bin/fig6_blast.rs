//! Figure 6: MPI-BLAST execution time vs number of processors on the
//! DAS-2, OSC P4, and TG-NCSA clusters — synchronous vs asynchronous I/O
//! plus the maximum-speedup bound.
//!
//! Paper reference points: async improves average execution time by 20 %
//! (DAS-2), 26 % (OSC), 22 % (TG-NCSA); 92–97 % of the maximum expected
//! speedup is achieved.

use semplar_bench::table::{pct, secs};
use semplar_bench::{flags, mean_ratio, with_testbed, Table};
use semplar_clusters::all_clusters;
use semplar_workloads::{run_blast, BlastParams};

struct Row {
    procs: usize,
    sync: f64,
    asy: f64,
    /// Expected time under complete overlap.
    bound: f64,
}

impl Row {
    /// Fraction of the maximum possible speedup achieved (paper: 92–97 %).
    fn overlap_fraction(&self) -> f64 {
        let max_speedup = self.sync / self.bound;
        let achieved = self.sync / self.asy;
        achieved / max_speedup
    }
}

fn main() {
    let [quick] = flags(["--quick"]);
    let (procs, queries): (&[usize], usize) = if quick {
        (&[2, 4, 8], 120)
    } else {
        (&[2, 3, 4, 6, 8, 10, 13], 2425)
    };
    let max_procs = *procs.iter().max().expect("non-empty sweep");

    for spec in all_clusters() {
        let name = spec.name;
        let (rows, _) = with_testbed(spec, max_procs, move |tb| {
            procs
                .iter()
                .map(|&n| {
                    let base = BlastParams::calibrated(&tb.spec, queries, 4.0);
                    let sync = run_blast(&tb, n, base.with_async(false));
                    let asy = run_blast(&tb, n, base.with_async(true));
                    Row {
                        procs: n,
                        sync: sync.exec_secs,
                        asy: asy.exec_secs,
                        // Paper §7.1: the larger of the measured compute
                        // and I/O phases (the part of the run that cannot
                        // overlap is negligible here as in the paper).
                        bound: sync.compute_secs.max(sync.io_secs),
                    }
                })
                .collect::<Vec<_>>()
        });
        let mut t = Table::new(
            &format!("Fig. 6 ({name}): MPI-BLAST execution time"),
            &[
                "procs",
                "sync (s)",
                "async (s)",
                "max-speedup (s)",
                "gain",
                "overlap",
            ],
        );
        for r in &rows {
            t.row(vec![
                r.procs.to_string(),
                secs(r.sync),
                secs(r.asy),
                secs(r.bound),
                pct(1.0 - r.asy / r.sync),
                format!("{:.0}%", r.overlap_fraction() * 100.0),
            ]);
        }
        t.print();
        let gain = mean_ratio(rows.iter().map(|r| (r.sync, r.asy))) - 1.0;
        let overlap = rows.iter().map(|r| r.overlap_fraction()).sum::<f64>() / rows.len() as f64;
        let paper = match name {
            "das2" => "paper: sync +20% slower, 92% overlap",
            "osc" => "paper: sync +26% slower, 97% overlap",
            _ => "paper: sync +22% slower, 96% overlap",
        };
        println!(
            "{name}: sync slower by {} on average | overlap {:.0}% of max speedup   ({paper})",
            pct(gain),
            overlap * 100.0
        );
    }
}
