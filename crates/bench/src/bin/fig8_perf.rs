//! Figure 8: ROMIO `perf` aggregate I/O bandwidth with one vs two
//! concurrent TCP streams per node, on DAS-2 (up to 30 processors) and
//! TG-NCSA (up to 10).
//!
//! Paper reference points (averages over the sweep): two streams improve
//! write bandwidth by 43 % and read bandwidth by 96 % on DAS-2; by 24 % and
//! 75 % on TG-NCSA. Each node reads/writes a 32 MB array.

use semplar_bench::table::{mbps, pct};
use semplar_bench::{flags, mean_ratio, with_testbed, Table};
use semplar_clusters::{das2, tg_ncsa};
use semplar_workloads::{run_perf, PerfParams};

fn main() {
    let [quick] = flags(["--quick"]);
    let bytes_per_proc: u64 = if quick { 8 << 20 } else { 32 << 20 };
    let das2_procs: &[usize] = if quick {
        &[2, 8]
    } else {
        &[1, 2, 4, 8, 12, 16, 20, 25, 30]
    };
    let tg_procs: &[usize] = if quick {
        &[2, 6]
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    };

    for (spec, procs, paper) in [
        (das2(), das2_procs, "paper: write +43%, read +96%"),
        (tg_ncsa(), tg_procs, "paper: write +24%, read +75%"),
    ] {
        let name = spec.name;
        let max_procs = *procs.iter().max().expect("non-empty sweep");
        // Per process count: the one-stream and the two-stream report.
        let ((rows, net, cache), sim) = with_testbed(spec, max_procs, move |tb| {
            let rows: Vec<_> = procs
                .iter()
                .map(|&n| {
                    let run = |streams| {
                        run_perf(
                            &tb,
                            n,
                            PerfParams {
                                bytes_per_proc,
                                streams,
                            },
                        )
                    };
                    (run(1), run(2))
                })
                .collect();
            (rows, tb.net.stats(), tb.server.cache_stats())
        });
        let mut t = Table::new(
            &format!("Fig. 8 ({name}): perf aggregate I/O bandwidth (Mb/s)"),
            &[
                "procs",
                "write 1-stream",
                "write 2-stream",
                "read 1-stream",
                "read 2-stream",
            ],
        );
        for (one, two) in &rows {
            t.row(vec![
                one.procs.to_string(),
                mbps(one.write_mbps),
                mbps(two.write_mbps),
                mbps(one.read_mbps),
                mbps(two.read_mbps),
            ]);
        }
        t.print();
        let wgain = mean_ratio(
            rows.iter()
                .map(|(one, two)| (two.write_mbps, one.write_mbps)),
        );
        let rgain = mean_ratio(rows.iter().map(|(one, two)| (two.read_mbps, one.read_mbps)));
        println!(
            "{name}: average two-stream gain — write {}, read {}   ({paper})",
            pct(wgain - 1.0),
            pct(rgain - 1.0)
        );
        println!(
            "{name}: netsim allocator — {} recomputes, {:.1} flows touched each, \
             {} settles skipped, {} signals",
            net.recomputes,
            net.flows_touched as f64 / net.recomputes.max(1) as f64,
            net.settles_skipped,
            net.signals,
        );
        println!(
            "{name}: scheduler — {} clock advances, {} peak actors, \
             {} choice points / {} alternatives (exploration hook inactive)",
            sim.clock_advances, sim.peak_live_actors, sim.choice_points, sim.choice_alternatives,
        );
        println!(
            "{name}: engine — {} thread actors spawned (peak {}), \
             {} event-driven tasks spawned (peak {})",
            sim.actors_spawned, sim.peak_live_actors, sim.tasks_spawned, sim.peak_live_tasks,
        );
        println!(
            "{name}: server block cache — {} hits, {} misses, {} evictions, \
             {} bytes saved (cache disabled in this figure; see fig_cache)",
            cache.hits, cache.misses, cache.evictions, cache.bytes_saved,
        );
        // Host-dependent, so not part of the diffable stdout: the
        // allocator's wall clock, and a timer count that moves with the
        // host's interleaving of same-instant actors.
        eprintln!(
            "{name}: host-dependent — allocator {:.1} ms total, {} timers armed",
            net.alloc_nanos as f64 / 1e6,
            sim.timers_armed,
        );
    }
}
