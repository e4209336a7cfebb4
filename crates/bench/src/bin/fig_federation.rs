//! Federated SRB: sharded MCAT, write-path replication, reconciliation.
//!
//! The same round-robin multi-file write runs twice — fault-free, then
//! with a seeded crash of the primary owning the first file, landing
//! mid-write. During the outage writes and reads fail over to the shard's
//! replica (the replicator is quiesced first, so every acked byte is
//! durable there); once the primary restarts, the replica's divergent
//! suffix is replayed back in order. Zero acked bytes may be lost: both
//! arms must end with bit-identical per-file checksums on every primary
//! and every replica. Entirely in virtual time and seeded, so the output
//! is bit-identical across invocations — CI diffs `--quick` against
//! `results/fig_federation_quick.txt`.

use semplar_bench::table::mbps;
use semplar_bench::{federation_run, flags, print_fault_ledger, shipped, FedRun, Table};
use semplar_runtime::Dur;

fn main() {
    let [quick] = flags(["--quick"]);
    let (files, bytes_per_file, chunk, crash_at, down_for) = if quick {
        (2usize, 6u64 << 20, 1u64 << 20, 1_000u64, 1_500u64)
    } else {
        (3usize, 16u64 << 20, 2u64 << 20, 2_500u64, 3_000u64)
    };
    let (crash_at, down_for) = (Dur::from_millis(crash_at), Dur::from_millis(down_for));
    let run = FedRun {
        shards: 2,
        files,
        bytes_per_file,
        chunk,
        seed: 23,
        crash: None,
        membership: None,
    };
    let clean = federation_run(run);
    let faulted = federation_run(FedRun {
        crash: Some((crash_at, down_for)),
        ..run
    });
    // Zero acked-byte loss: after reconciliation every file checksums
    // bit-identically to the fault-free run on the primary *and* the
    // replica.
    let converged =
        faulted.primary_sums == clean.primary_sums && faulted.replica_sums == clean.primary_sums;

    let mut t = Table::new(
        &format!(
            "Federated SRB ({} shards x primary+replica, 50 Mb/s client paths): \
             {files} x {} MiB files, shard-0 owner crashed at t={:.1}s for {:.1}s, seed {}",
            run.shards,
            bytes_per_file >> 20,
            crash_at.as_secs_f64(),
            down_for.as_secs_f64(),
            run.seed
        ),
        &["metric", "value"],
    );
    t.row(vec!["fault-free write".into(), mbps(clean.mbps)]);
    t.row(vec![
        "fault-free time".into(),
        format!("{:.3} s", clean.secs),
    ]);
    t.row(vec!["faulted write".into(), mbps(faulted.mbps)]);
    t.row(vec![
        "faulted time".into(),
        format!("{:.3} s", faulted.secs),
    ]);
    t.row(vec![
        "goodput retained".into(),
        format!("{:.1} %", 100.0 * faulted.mbps / clean.mbps.max(1e-9)),
    ]);
    t.row(vec![
        "ops failed over to replica".into(),
        faulted.failovers.to_string(),
    ]);
    t.row(vec![
        "mid-outage federated read".into(),
        if faulted.outage_read_ok {
            "bytes intact".into()
        } else {
            "MISMATCH".to_string()
        },
    ]);
    t.row(vec![
        "reconciliation rounds".into(),
        faulted.reconcile.rounds.to_string(),
    ]);
    t.row(vec![
        "extents replayed".into(),
        faulted.reconcile.entries.len().to_string(),
    ]);
    t.row(vec![
        "bytes replayed to primary".into(),
        format!("{} MiB", faulted.reconcile.bytes >> 20),
    ]);
    t.row(vec![
        "recovery time".into(),
        format!("{:.3} s", faulted.recovery.recovery_time.as_secs_f64()),
    ]);
    for (s, (r, _)) in faulted.repl.iter().enumerate() {
        t.row(vec![format!("shard {s} replicated"), shipped(r)]);
    }
    t.row(vec![
        "checksums (faulted vs fault-free)".into(),
        if converged {
            "bit-identical on primaries and replicas".into()
        } else {
            "DIVERGED".to_string()
        },
    ]);
    for (i, sum) in faulted.primary_sums.iter().enumerate() {
        t.row(vec![format!("file {i} adler32"), format!("{sum:08x}")]);
    }
    t.print();

    print_fault_ledger("fault ledger (virtual time)", &faulted.faults);
    assert!(converged, "acked bytes lost: checksums diverged");
}
