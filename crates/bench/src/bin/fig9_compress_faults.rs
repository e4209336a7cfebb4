//! The Fig. 9 compression pipeline under injected faults: the
//! async-compressed write on DAS-2, fault-free vs under the same seeded
//! fault plan as `fig_availability` (WAN link flaps, a vault stall, a
//! connection reset, a server crash + restart).
//!
//! The pipeline retains each compressed frame until the server
//! acknowledges it, so a severed connection costs a re-ship of at most
//! `depth` frames — never a recompression. Entirely in virtual time and
//! seeded, so the output is bit-identical across invocations — CI diffs
//! `--quick` against `results/fig9_compress_faults_quick.txt`.

use std::sync::Arc;

use semplar_bench::table::mbps;
use semplar_bench::{availability_plan, flags, print_fault_ledger, settle, with_testbed, Table};
use semplar_clusters::das2;
use semplar_runtime::Dur;
use semplar_workloads::{estgen, run_compress, CompressMode, CompressParams};

fn main() {
    let [quick] = flags(["--quick"]);
    // The crash lands on the connections the ranks re-established after
    // the reset (at +2 s), while the write is still running.
    let (procs, file_bytes, crash_at) = if quick {
        (2, 8 << 20, Dur::from_secs(8))
    } else {
        (4, 32 << 20, Dur::from_secs(16))
    };
    let seed = 7u64;
    let data = Arc::new(estgen::generate(
        file_bytes as usize,
        2006,
        &estgen::EstGenConfig::default(),
    ));

    let ((base, faulted, faults), _) = with_testbed(das2(), procs, move |tb| {
        let params = CompressParams {
            file_bytes,
            mode: CompressMode::AsyncCompressed,
            ..CompressParams::default()
        };
        let base = run_compress(&tb, procs, data.clone(), params);
        let at = [
            Dur::from_millis(500),
            Dur::from_millis(900),
            Dur::from_secs(2),
            crash_at,
        ];
        let inj = availability_plan(seed, tb.wan_links().0, at, Dur::from_millis(400))
            .inject(&tb.rt, &tb.net, &tb.server);
        let faulted = run_compress(&tb, procs, data, params);
        settle(&tb.rt, &inj);
        (base, faulted, inj.stats())
    });

    let mut t = Table::new(
        &format!(
            "Compression under faults (das2): {procs} procs x {} MiB async-compressed, seed {seed}",
            file_bytes >> 20
        ),
        &["metric", "value"],
    );
    let rec = &faulted.recovery;
    for (metric, value) in [
        ("write fault-free", mbps(base.agg_write_mbps)),
        ("write under faults", mbps(faulted.agg_write_mbps)),
        (
            "goodput",
            format!(
                "{:.1} %",
                faulted.agg_write_mbps / base.agg_write_mbps * 100.0
            ),
        ),
        ("lz ratio", format!("{:.2}", faulted.ratio)),
        (
            "frames re-shipped (no recompress)",
            faulted.resumed_frames.to_string(),
        ),
        ("disconnects seen", rec.disconnects.to_string()),
        ("reconnects", rec.reconnects.to_string()),
        ("ops recovered", rec.recovered_ops.to_string()),
        (
            "total recovery time",
            format!("{:.3} s", rec.recovery_time.as_secs_f64()),
        ),
        ("connections severed", faults.conns_severed.to_string()),
    ] {
        t.row(vec![metric.into(), value]);
    }
    t.print();
    print_fault_ledger("fault ledger (virtual time)", &faults);
}
