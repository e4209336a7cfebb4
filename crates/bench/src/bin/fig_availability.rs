//! Availability under injected faults: the ROMIO `perf` shared-file write
//! on DAS-2, fault-free vs under a seeded fault plan (two WAN link flaps,
//! a vault stall, a server crash + restart, a connection reset).
//!
//! The run is entirely in virtual time and every fault is drawn from the
//! seeded plan, so the output is bit-identical across invocations — CI
//! diffs it against `results/fig_availability.txt`.

use std::sync::{Arc, Mutex};

use semplar::{OpenFlags, Payload, RecoveryStats, SrbFs, StripeUnit, StripedFile};
use semplar_bench::table::mbps;
use semplar_bench::{availability_plan, flags, print_fault_ledger, settle, with_testbed, Table};
use semplar_clusters::{das2, Testbed};
use semplar_runtime::{spawn, Dur};

/// One `perf`-style shared-file write: every rank writes `bytes` at its own
/// section of `path` over `streams` connections. Returns the aggregate
/// bandwidth in Mb/s and the recovery counters summed over every mount.
fn shared_write(
    tb: &Arc<Testbed>,
    procs: usize,
    bytes: u64,
    streams: usize,
    path: &'static str,
) -> (f64, RecoveryStats) {
    let rt = tb.rt.clone();
    let mounts: Arc<Mutex<Vec<Arc<SrbFs>>>> = Arc::default();
    let t0 = rt.now();
    let handles: Vec<_> = (0..procs)
        .map(|rank| {
            let tb = tb.clone();
            let mounts = mounts.clone();
            spawn(&rt, &format!("avail/rank{rank}"), move || {
                let fs = tb.srbfs(rank);
                mounts.lock().unwrap().push(fs.clone());
                let f = StripedFile::open(
                    &tb.rt,
                    &fs,
                    path,
                    OpenFlags::CreateRw,
                    streams,
                    StripeUnit::Even,
                )
                .expect("open availability file");
                f.write_at(rank as u64 * bytes, Payload::sized(bytes))
                    .expect("availability write");
                f.close().expect("close availability file");
            })
        })
        .collect();
    for h in handles {
        h.join_unwrap();
    }
    let elapsed = (rt.now() - t0).as_secs_f64();
    let mut rec = RecoveryStats::default();
    for fs in mounts.lock().unwrap().iter() {
        let s = fs.recovery_stats();
        rec.disconnects += s.disconnects;
        rec.reconnects += s.reconnects;
        rec.recovered_ops += s.recovered_ops;
        rec.recovery_time += s.recovery_time;
    }
    (procs as f64 * bytes as f64 * 8.0 / elapsed / 1e6, rec)
}

fn main() {
    let [quick] = flags(["--quick"]);
    // The crash lands 4 s after the reset. A cut is noticed when it
    // happens, so by then every rank has backed off (100 ms base delay),
    // redialed and resumed its write; and the write is still running,
    // because at either size even the fault-free one takes longer than
    // the 6 s the crash waits (7.5 s quick, 13.4 s full).
    let crash_at = Dur::from_secs(6);
    let (procs, bytes) = if quick { (2, 4 << 20) } else { (4, 8 << 20) };
    let streams = 2;
    let seed = 7u64;

    let ((baseline_mbps, faulted_mbps, rec, faults), _) = with_testbed(das2(), procs, move |tb| {
        let (baseline_mbps, _) = shared_write(&tb, procs, bytes, streams, "/avail-baseline");
        let at = [
            Dur::from_millis(500),
            Dur::from_millis(900),
            Dur::from_secs(2),
            crash_at,
        ];
        let inj = availability_plan(seed, tb.wan_links().0, at, Dur::from_millis(400))
            .inject(&tb.rt, &tb.net, &tb.server);
        let (faulted_mbps, rec) = shared_write(&tb, procs, bytes, streams, "/avail-faulted");
        settle(&tb.rt, &inj);
        (baseline_mbps, faulted_mbps, rec, inj.stats())
    });

    let mut t = Table::new(
        &format!(
            "Availability (das2): perf write, {procs} procs x {} MiB, {streams} streams, seed {seed}",
            bytes >> 20
        ),
        &["metric", "value"],
    );
    // Mean virtual time from a failure to the completion of the affected
    // operation.
    let mean_recovery_secs = if rec.recovered_ops == 0 {
        0.0
    } else {
        rec.recovery_time.as_secs_f64() / rec.recovered_ops as f64
    };
    for (metric, value) in [
        ("write fault-free", mbps(baseline_mbps)),
        ("write under faults", mbps(faulted_mbps)),
        (
            "goodput",
            format!("{:.1} %", faulted_mbps / baseline_mbps * 100.0),
        ),
        ("disconnects seen", rec.disconnects.to_string()),
        ("reconnects", rec.reconnects.to_string()),
        ("ops recovered", rec.recovered_ops.to_string()),
        (
            "total recovery time",
            format!("{:.3} s", rec.recovery_time.as_secs_f64()),
        ),
        (
            "mean recovery latency",
            format!("{mean_recovery_secs:.3} s"),
        ),
        ("connections severed", faults.conns_severed.to_string()),
    ] {
        t.row(vec![metric.into(), value]);
    }
    t.print();
    print_fault_ledger("fault ledger (virtual time)", &faults);
}
