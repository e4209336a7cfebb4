//! The federation subsystem, end to end: a sharded MCAT with write-path
//! replication must survive a seeded crash of a shard primary mid-write
//! with zero acked-byte loss, and the whole recovery — failover ops,
//! reconciliation ledger, final checksums — must replay bit-identically
//! for the same seed.

use std::sync::Arc;

use proptest::prelude::*;
use semplar::{AdioFile, AdioFs, FedFs, FedShard, OpenFlags, Payload, ReconcileLedger, SrbFs};
use semplar_repro::clusters::FedTestbed;
use semplar_repro::faults::FaultPlan;
use semplar_repro::runtime::{simulate, Dur};
use semplar_repro::semplar;
use semplar_repro::srb::adler32;

const SHARDS: usize = 2;
const FILES: usize = 2;
const BYTES_PER_FILE: u64 = 3 << 20;
const CHUNK: u64 = 512 << 10;

/// The deterministic byte at `offset + k` of federation file `file`.
fn pattern(file: usize, offset: u64, len: u64) -> Vec<u8> {
    (0..len)
        .map(|k| (((offset + k) as usize).wrapping_mul(131) + file * 29 + 17) as u8)
        .collect()
}

/// Everything observable about one federation run.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RunResult {
    ledger: ReconcileLedger,
    primary_sums: Vec<u32>,
    replica_sums: Vec<u32>,
    failovers: u64,
    reconciles: u64,
    reconciled_bytes: u64,
    /// Deepest the divergence queue ever got across all shards.
    div_high_water: u64,
    /// Deepest any shard's replicator backlog ever got.
    repl_high_water: u64,
}

/// Write FILES files round-robin through a SHARDS-shard federation; with
/// `crash` set, the primary owning the first file crashes mid-write and
/// restarts, exercising failover and reconciliation.
fn federation_run(seed: u64, crash: Option<(Dur, Dur)>) -> RunResult {
    simulate(move |rt| {
        let FedTestbed { net, shards } = FedTestbed::new(&rt, SHARDS, false, None);
        let fed = FedFs::new(&rt, shards);
        fed.mk_coll_all("/fed").expect("mk /fed");
        let paths: Vec<String> = (0..FILES).map(|i| format!("/fed/data{i}")).collect();
        let inj = crash.map(|(at, down_for)| {
            FaultPlan::new(seed).server_crash_at(at, down_for).inject(
                &rt,
                &net,
                fed.shards()[fed.shard_of(&paths[0])].primary.server(),
            )
        });

        let mut handles: Vec<Box<dyn AdioFile>> = paths
            .iter()
            .map(|p| fed.open(p, OpenFlags::CreateRw).expect("open"))
            .collect();
        let mut outage_read_checked = false;
        for c in 0..BYTES_PER_FILE / CHUNK {
            for (i, h) in handles.iter_mut().enumerate() {
                let data = Payload::bytes(pattern(i, c * CHUNK, CHUNK));
                assert_eq!(h.write_at(c * CHUNK, &data).expect("write"), CHUNK);
            }
            if !outage_read_checked && fed.failovers() > 0 {
                // Mid-outage read through the federation: the replica must
                // serve every acked byte of the crashed shard's file.
                let mut r = fed.open(&paths[0], OpenFlags::Read).expect("ro open");
                let got = r.read_at(0, CHUNK).expect("outage read");
                let _ = r.close();
                assert_eq!(
                    got.data().expect("real bytes"),
                    &pattern(0, 0, CHUNK)[..],
                    "acked bytes lost during outage"
                );
                outage_read_checked = true;
            }
        }
        for mut h in handles {
            h.close().expect("close");
        }
        if let Some(inj) = &inj {
            assert!(inj.stats().injected() >= 1, "crash never landed");
            while !inj.done() {
                rt.sleep(Dur::from_millis(100));
            }
        }
        while !fed.reconcile() {
            rt.sleep(Dur::from_millis(50));
        }
        for shard in fed.shards() {
            if let Some(repl) = &shard.replicator {
                repl.quiesce();
            }
        }
        if crash.is_some() {
            assert!(outage_read_checked, "outage never observed by a failover");
        }
        let sums = |pick: fn(&FedShard) -> &Arc<SrbFs>| -> Vec<u32> {
            paths
                .iter()
                .map(|p| {
                    let conn = pick(&fed.shards()[fed.shard_of(p)])
                        .admin_conn()
                        .expect("admin conn");
                    let sum = conn.checksum(p).expect("checksum");
                    let _ = conn.disconnect();
                    sum
                })
                .collect()
        };
        let recovery = fed.recovery_stats();
        RunResult {
            ledger: fed.reconcile_ledger(),
            primary_sums: sums(|s| &s.primary),
            replica_sums: sums(|s| &s.replica),
            failovers: fed.failovers(),
            reconciles: recovery.reconciles,
            reconciled_bytes: recovery.reconciled_bytes,
            div_high_water: fed.divergence_high_water(),
            repl_high_water: fed
                .shards()
                .iter()
                .filter_map(|s| s.replicator.as_ref())
                .map(|r| r.stats().queue_high_water)
                .max()
                .unwrap_or(0),
        }
    })
}

/// Checksums every run must converge to: the adler32 of each file's
/// deterministic contents, independent of any fault plan.
fn expected_sums() -> Vec<u32> {
    (0..FILES)
        .map(|i| adler32(&pattern(i, 0, BYTES_PER_FILE)))
        .collect()
}

/// A seeded crash of a shard primary mid-write loses zero acked bytes:
/// after reconciliation, primaries and replicas all checksum identically
/// to the fault-free run (and to the written bytes themselves).
#[test]
fn shard_crash_mid_write_loses_no_acked_bytes() {
    let crash = Some((Dur::from_millis(300), Dur::from_millis(500)));
    let clean = federation_run(7, None);
    let faulted = federation_run(7, crash);
    let expected = expected_sums();
    assert_eq!(
        clean.primary_sums, expected,
        "fault-free run wrote wrong bytes"
    );
    assert_eq!(
        clean.replica_sums, expected,
        "replication diverged fault-free"
    );
    assert_eq!(faulted.primary_sums, expected, "primary lost acked bytes");
    assert_eq!(faulted.replica_sums, expected, "replica lost acked bytes");
    assert!(faulted.failovers > 0, "crash never forced a failover");
    assert!(
        !faulted.ledger.entries.is_empty(),
        "nothing was reconciled despite failovers"
    );
    assert!(faulted.reconciles >= 1);
    assert_eq!(faulted.reconciled_bytes, faulted.ledger.bytes);
    assert_eq!(clean.failovers, 0);
    assert_eq!(clean.ledger, ReconcileLedger::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The divergence queue is **bounded**: however the crash timing
    /// lands, the failover queue can never hold more extents than the
    /// workload wrote in total — each queued entry is one acked chunk,
    /// drained in order by reconciliation, never duplicated. A leak here
    /// (replays re-queued, drains lost) blows straight past the cap.
    /// The replicator backlog obeys the same cap on its side.
    #[test]
    fn divergence_queue_is_bounded_by_written_extents(
        seed in 0u64..1000,
        crash_ms in 100u64..500,
        down_ms in 100u64..600,
    ) {
        let cap = (FILES as u64) * (BYTES_PER_FILE / CHUNK);
        let crash = Some((Dur::from_millis(crash_ms), Dur::from_millis(down_ms)));
        let run = federation_run(seed, crash);
        prop_assert!(
            run.div_high_water <= cap,
            "divergence queue leaked: high-water {} > {} written extents",
            run.div_high_water,
            cap
        );
        prop_assert!(
            run.repl_high_water <= cap,
            "replicator backlog leaked: high-water {} > {} written extents",
            run.repl_high_water,
            cap
        );
        // The bound is meaningful: a mid-write crash actually queued
        // divergence before reconciliation drained it.
        prop_assert!(run.failovers == 0 || run.div_high_water >= 1);
    }
}

/// Same seed ⇒ bit-identical recovery: the reconciliation ledger (entries,
/// order, byte counts) and the post-reconcile checksums replay exactly.
#[test]
fn same_seed_reconciliation_is_bit_identical() {
    let crash = Some((Dur::from_millis(300), Dur::from_millis(500)));
    let a = federation_run(23, crash);
    let b = federation_run(23, crash);
    assert_eq!(a, b, "same seed must replay bit-identically");
    assert!(
        !a.ledger.entries.is_empty(),
        "plan never exercised reconciliation"
    );
}
