//! Figure 7: 2D Laplace solver execution time vs number of processors —
//! synchronous vs asynchronous (overlap) vs the maximum-speedup bound, plus
//! the two-TCP-streams variant.
//!
//! Paper reference points: async improves average execution time by 7 %
//! (DAS-2), 9 % (OSC), 6 % (TG-NCSA) — the 9:1 I/O:compute ratio bounds the
//! gain; two TCP streams cut execution time by 38 % on DAS-2 and 23 % on
//! TG-NCSA but are NAT-bound on OSC; 96–97 % of the maximum expected
//! speedup is achieved.

use semplar_bench::table::{pct, secs};
use semplar_bench::{flags, mean_ratio, with_testbed, Table};
use semplar_clusters::all_clusters;
use semplar_workloads::{run_laplace, LaplaceMode, LaplaceParams};

struct Row {
    procs: usize,
    sync: f64,
    asy: f64,
    /// Expected time under complete overlap.
    bound: f64,
    two_streams: f64,
}

impl Row {
    /// Fraction of the maximum possible overlap speedup achieved.
    fn overlap_fraction(&self) -> f64 {
        (self.sync / self.asy) / (self.sync / self.bound)
    }
}

fn main() {
    let [quick] = flags(["--quick"]);
    let (procs, base): (&[usize], LaplaceParams) = if quick {
        (
            &[2, 4],
            LaplaceParams {
                grid: 1201,
                checkpoints: 2,
                ..LaplaceParams::default()
            },
        )
    } else {
        (&[1, 2, 4, 6, 8, 10, 12], LaplaceParams::default())
    };
    let max_procs = *procs.iter().max().expect("non-empty sweep");

    for spec in all_clusters() {
        let name = spec.name;
        let (rows, _) = with_testbed(spec, max_procs, move |tb| {
            procs
                .iter()
                .map(|&n| {
                    let run = |mode, streams| {
                        run_laplace(
                            &tb,
                            n,
                            LaplaceParams {
                                mode,
                                streams,
                                ..base
                            },
                        )
                    };
                    let sync = run(LaplaceMode::Sync, 1);
                    let asy = run(LaplaceMode::AsyncOverlap, 1);
                    let two = run(LaplaceMode::Sync, 2);
                    Row {
                        procs: n,
                        sync: sync.exec_secs,
                        asy: asy.exec_secs,
                        bound: sync.compute_secs.max(sync.io_secs),
                        two_streams: two.exec_secs,
                    }
                })
                .collect::<Vec<_>>()
        });
        let mut t = Table::new(
            &format!("Fig. 7 ({name}): 2D Laplace solver execution time"),
            &[
                "procs",
                "sync (s)",
                "async (s)",
                "max-speedup (s)",
                "2 streams (s)",
                "async gain",
                "2-stream gain",
            ],
        );
        for r in &rows {
            t.row(vec![
                r.procs.to_string(),
                secs(r.sync),
                secs(r.asy),
                secs(r.bound),
                secs(r.two_streams),
                pct(1.0 - r.asy / r.sync),
                pct(1.0 - r.two_streams / r.sync),
            ]);
        }
        t.print();
        let gain = mean_ratio(rows.iter().map(|r| (r.sync, r.asy))) - 1.0;
        let two = 1.0 - mean_ratio(rows.iter().map(|r| (r.two_streams, r.sync)));
        let overlap = rows.iter().map(|r| r.overlap_fraction()).sum::<f64>() / rows.len() as f64;
        let paper = match name {
            "das2" => "paper: sync +7% slower than async, two-stream -38% exec, 96% overlap",
            "osc" => "paper: sync +9% slower than async, two-stream NAT-bound, 97% overlap",
            _ => "paper: sync +6% slower than async, two-stream -23% exec, 97% overlap",
        };
        println!(
            "{name}: sync slower than async by {} | 2 streams cut exec by {} | overlap {:.0}%   ({paper})",
            pct(gain),
            pct(two),
            overlap * 100.0
        );
    }
}
