//! Storage-tier caches must be invisible to correctness: with the server
//! block cache and client read leases enabled, every read returns exactly
//! the bytes the cache-off run returns — across seeds, fault plans (link
//! flaps, connection resets, a server crash), cross-client overwrites, and
//! a federation shard failover mid-read. Only the virtual clock is allowed
//! to differ.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use semplar::{AdioFile, AdioFs, FedFs, FedShard, SrbFs, SrbFsConfig};
use semplar_repro::clusters::{das2, FedTestbed, Testbed, PASSWORD, USER};
use semplar_repro::faults::FaultPlan;
use semplar_repro::runtime::{simulate, spawn, Dur};
use semplar_repro::semplar;
use semplar_repro::semplar::{File, OpenFlags, Payload};
use semplar_repro::srb::{adler32, CacheSpec};

/// The deterministic byte at `offset + k` of object `file`, version `v`.
fn pattern(file: usize, v: usize, offset: u64, len: u64) -> Vec<u8> {
    (0..len)
        .map(|k| (((offset + k) as usize).wrapping_mul(131) + file * 29 + v * 71 + 17) as u8)
        .collect()
}

const RANK_BYTES: u64 = 600_000;
const SHARED_BYTES: u64 = 256 << 10;

/// Everything content-observable about one chaos run. Virtual times are
/// deliberately absent: caches change *when* things happen, never *what*.
#[derive(Debug, PartialEq)]
struct Observed {
    /// adler32 of every read the run performs, in program order.
    reads: Vec<u32>,
    /// Final server-side checksums of every object.
    finals: Vec<u32>,
}

/// Two ranks write and read back their own objects while a seeded plan
/// flaps the WAN, resets every connection, and crashes the server; then
/// the main thread exercises cross-client coherence on a shared object:
/// fs0 leases a read, fs1 overwrites, fs0 must re-read the new bytes.
fn chaos_run(seed: u64, caches: bool) -> (Observed, u64, u64) {
    simulate(move |rt| {
        let tb = Testbed::new(rt.clone(), das2(), 2);
        if caches {
            tb.server.set_block_cache(CacheSpec {
                block: 64 << 10,
                capacity: 4 << 20,
            });
        }
        let fs: Vec<Arc<SrbFs>> = (0..2)
            .map(|n| {
                SrbFs::new(
                    tb.server.clone(),
                    SrbFsConfig {
                        lease_capacity: caches.then_some(8 << 20),
                        ..SrbFsConfig::new(tb.route(n), USER, PASSWORD)
                    },
                )
            })
            .collect();
        let (wan_up, _) = tb.wan_links();
        let plan = FaultPlan::new(seed)
            .link_flap(wan_up, Dur::from_millis(100), Dur::from_millis(200), 2)
            .conn_reset_at(Dur::from_millis(400))
            .server_crash_at(Dur::from_millis(900), Dur::from_millis(300));
        let inj = plan.inject(&rt, &tb.net, &tb.server);

        let rank_reads: Arc<Mutex<Vec<(usize, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..2usize)
            .map(|rank| {
                let tb = tb.clone();
                let fs = fs[rank].clone();
                let rank_reads = rank_reads.clone();
                spawn(&rt, &format!("rank{rank}"), move || {
                    let path = format!("/d{rank}");
                    let f = File::open(&tb.rt, &fs, &path, OpenFlags::CreateRw).expect("open");
                    f.write_at(0, &Payload::bytes(pattern(rank, 1, 0, RANK_BYTES)))
                        .expect("write");
                    // Read back twice: the second pass re-reads bytes a
                    // lease may now hold — both must equal what we wrote.
                    for _ in 0..2 {
                        let got = f.read_at(0, RANK_BYTES).expect("read");
                        let bytes = got.data().expect("real bytes");
                        assert_eq!(bytes, &pattern(rank, 1, 0, RANK_BYTES)[..]);
                        rank_reads.lock().unwrap().push((rank, adler32(bytes)));
                    }
                    f.close().expect("close");
                })
            })
            .collect();
        for h in handles {
            h.join_unwrap();
        }
        while !inj.done() {
            rt.sleep(Dur::from_millis(50));
        }

        // Cross-client coherence, sequenced on the main thread so the
        // expected bytes are unambiguous: fs0 reads (and may lease) the
        // shared object, fs1 overwrites a middle range, fs0 re-reads.
        let mut reads = Vec::new();
        let a = File::open(&tb.rt, &fs[0], "/shared", OpenFlags::CreateRw).expect("open a");
        let b = File::open(&tb.rt, &fs[1], "/shared", OpenFlags::CreateRw).expect("open b");
        a.write_at(0, &Payload::bytes(pattern(9, 1, 0, SHARED_BYTES)))
            .expect("seed shared");
        for _ in 0..2 {
            let got = a.read_at(0, SHARED_BYTES).expect("read shared");
            reads.push(adler32(got.data().expect("real bytes")));
        }
        // A second client reading the same object goes to the server (its
        // own lease is cold) and is served from the block cache the first
        // client's read just installed.
        let got = b.read_at(0, SHARED_BYTES).expect("cross-client read");
        assert_eq!(
            got.data().expect("real bytes"),
            &pattern(9, 1, 0, SHARED_BYTES)[..]
        );
        reads.push(adler32(got.data().unwrap()));
        let (lo, len) = (SHARED_BYTES / 4, SHARED_BYTES / 2);
        b.write_at(lo, &Payload::bytes(pattern(9, 2, lo, len)))
            .expect("overwrite shared");
        let mut want = pattern(9, 1, 0, SHARED_BYTES);
        want[lo as usize..(lo + len) as usize].copy_from_slice(&pattern(9, 2, lo, len));
        let got = a.read_at(0, SHARED_BYTES).expect("re-read shared");
        assert_eq!(
            got.data().expect("real bytes"),
            &want[..],
            "stale read after an overlapping cross-client write"
        );
        reads.push(adler32(got.data().unwrap()));
        a.close().expect("close a");
        b.close().expect("close b");

        let mut rr = rank_reads.lock().unwrap().clone();
        rr.sort_by_key(|(rank, _)| *rank);
        let mut all: Vec<u32> = rr.into_iter().map(|(_, s)| s).collect();
        all.append(&mut reads);

        let conn = tb.server.connect(tb.route(0), "semplar", "hpdc06").unwrap();
        let finals = vec![
            conn.checksum("/d0").unwrap(),
            conn.checksum("/d1").unwrap(),
            conn.checksum("/shared").unwrap(),
        ];
        conn.disconnect().unwrap();

        let lease_hits = fs.iter().map(|f| f.lease_stats().hits).sum();
        (
            Observed { reads: all, finals },
            lease_hits,
            tb.server.cache_stats().hits,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Cache-on ≡ cache-off: same reads, same final server checksums, for
    /// any seed — and the cache-on run really did serve from its caches.
    #[test]
    fn caches_are_transparent_under_faults(seed in any::<u64>()) {
        let (off, _, _) = chaos_run(seed, false);
        let (on, lease_hits, cache_hits) = chaos_run(seed, true);
        prop_assert_eq!(&off, &on, "seed {} diverged with caches on", seed);
        prop_assert!(lease_hits > 0, "lease cache never hit");
        prop_assert!(cache_hits > 0, "block cache never hit");
        // And both match the bytes the workload actually wrote.
        for (rank, got) in off.finals[..2].iter().enumerate() {
            prop_assert_eq!(*got, adler32(&pattern(rank, 1, 0, RANK_BYTES)));
        }
    }
}

const FILES: usize = 2;
const BYTES_PER_FILE: u64 = 2 << 20;
const CHUNK: u64 = 256 << 10;

/// Write FILES files through a 2-shard federation with caches on or off; a
/// seeded crash fails the first file's shard over mid-run while a leased
/// re-read of chunk 0 is interleaved with every write. After
/// reconciliation chunk 0 is overwritten and re-read: the lease must not
/// serve pre-failover bytes.
fn federation_run(seed: u64, caches: bool) -> (Vec<u32>, Vec<u32>, u64, u64) {
    simulate(move |rt| {
        let FedTestbed { net, shards } = FedTestbed::new(&rt, 2, false, caches.then_some(8 << 20));
        if caches {
            for seat in shards.iter().flat_map(|s| [&s.primary, &s.replica]) {
                seat.server().set_block_cache(CacheSpec {
                    block: 64 << 10,
                    capacity: 4 << 20,
                });
            }
        }
        let fed = FedFs::new(&rt, shards);
        fed.mk_coll_all("/fed").expect("mk /fed");
        let paths: Vec<String> = (0..FILES).map(|i| format!("/fed/data{i}")).collect();
        let inj = FaultPlan::new(seed)
            .server_crash_at(Dur::from_millis(300), Dur::from_millis(500))
            .inject(
                &rt,
                &net,
                fed.shards()[fed.shard_of(&paths[0])].primary.server(),
            );

        let mut handles: Vec<Box<dyn AdioFile>> = paths
            .iter()
            .map(|p| fed.open(p, OpenFlags::CreateRw).expect("open"))
            .collect();
        let mut failover_read = false;
        for c in 0..BYTES_PER_FILE / CHUNK {
            for (i, h) in handles.iter_mut().enumerate() {
                let data = Payload::bytes(pattern(i, 1, c * CHUNK, CHUNK));
                assert_eq!(h.write_at(c * CHUNK, &data).expect("write"), CHUNK);
            }
            if c > 0 {
                // Leased re-read of chunk 0 interleaved with the writes —
                // with the crash landing mid-loop, at least one of these is
                // a read across the shard failover.
                let got = handles[0].read_at(0, CHUNK).expect("chunk-0 read");
                assert_eq!(
                    got.data().expect("real bytes"),
                    &pattern(0, 1, 0, CHUNK)[..],
                    "acked bytes lost across failover"
                );
                failover_read |= fed.failovers() > 0;
            }
        }
        assert!(inj.stats().injected() >= 1, "crash never landed");
        assert!(failover_read, "no read ever crossed the failover");
        while !inj.done() {
            rt.sleep(Dur::from_millis(100));
        }
        while !fed.reconcile() {
            rt.sleep(Dur::from_millis(50));
        }

        // Post-reconcile overwrite of the chunk the lease is warmest on:
        // the re-read must see the new bytes, not the pre-failover lease.
        handles[0]
            .write_at(0, &Payload::bytes(pattern(0, 2, 0, CHUNK)))
            .expect("overwrite");
        let got = handles[0].read_at(0, CHUNK).expect("re-read");
        assert_eq!(
            got.data().expect("real bytes"),
            &pattern(0, 2, 0, CHUNK)[..],
            "stale lease read after an acked overlapping write"
        );
        for mut h in handles {
            h.close().expect("close");
        }
        for shard in fed.shards() {
            if let Some(repl) = &shard.replicator {
                repl.quiesce();
            }
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
        let lease_hits = fed
            .shards()
            .iter()
            .map(|s| s.primary.lease_stats().hits + s.replica.lease_stats().hits)
            .sum();
        (
            sums(|s| &s.primary),
            sums(|s| &s.replica),
            fed.failovers(),
            lease_hits,
        )
    })
}

/// The checksums every federation run must converge to: file 0 carries the
/// post-reconcile overwrite of chunk 0, file 1 is untouched v1 bytes.
fn fed_expected() -> Vec<u32> {
    (0..FILES)
        .map(|i| {
            let mut want = pattern(i, 1, 0, BYTES_PER_FILE);
            if i == 0 {
                want[..CHUNK as usize].copy_from_slice(&pattern(0, 2, 0, CHUNK));
            }
            adler32(&want)
        })
        .collect()
}

/// A shard failover mid-read is invisible to cached clients: cache-on and
/// cache-off converge to the same primary and replica checksums, which are
/// the checksums of the bytes actually written.
#[test]
fn caches_are_transparent_across_shard_failover() {
    let expected = fed_expected();
    let (p_off, r_off, fo_off, _) = federation_run(7, false);
    let (p_on, r_on, fo_on, lease_hits) = federation_run(7, true);
    assert_eq!(p_off, expected, "cache-off primaries lost bytes");
    assert_eq!(r_off, expected, "cache-off replicas diverged");
    assert_eq!(p_on, expected, "cache-on primaries lost bytes");
    assert_eq!(r_on, expected, "cache-on replicas diverged");
    assert!(fo_off > 0 && fo_on > 0, "crash never forced a failover");
    assert!(lease_hits > 0, "lease cache never hit across the failover");
}
