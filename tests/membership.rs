//! Membership, epochs, and live re-sharding, end to end from the umbrella
//! crate.
//!
//! Three pins. First, the whole promotion drill — lease expiry, quorum
//! vote, epoch bump, fenced restart, certified rejoin — replays
//! **bit-identically** per seed: the promotion ledger, fault ledger,
//! checksums, and final role assignment are all part of the observation
//! the proptest compares. Second, epoch fencing at the server is exact:
//! stale-epoch mutations are refused with `StaleEpoch`, restarts
//! hard-fence until certification, and reads stay admissible throughout.
//! Third, live re-sharding migrates the namespace onto a new shard map
//! while traffic continues and cuts over atomically.

use proptest::prelude::*;
use semplar_repro::clusters::FedTestbed;
use semplar_repro::mc::PromotionScenario;
use semplar_repro::netsim::{Bw, Network};
use semplar_repro::runtime::{simulate, Dur};
use semplar_repro::semplar::{AdioFs, FedFs, OpenFlags, Payload, SrbFs, SrbFsConfig};
use semplar_repro::srb::{ConnRoute, RetryPolicy, SrbServer, SrbServerCfg, TransitionKind};
use std::sync::atomic::Ordering;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Tentpole pin: for any seed, two runs of the promotion drill
    /// produce **equal observations** — same promotion ledger (entries,
    /// vote counts, virtual timestamps), same fault ledger, same final
    /// checksums on both seats, same failover count, same epochs. The
    /// protocol has no hidden nondeterminism.
    #[test]
    fn promotion_ledger_is_bit_identical_per_seed(seed in 0u64..500) {
        let sc = PromotionScenario::quick(seed);
        let a = sc.observe(None).expect("first run upholds all invariants");
        let b = sc.observe(None).expect("second run upholds all invariants");
        prop_assert_eq!(&a, &b, "same seed must replay bit-identically");
        // The drill actually drilled: the lease expired and the replica
        // was promoted at a bumped epoch.
        prop_assert!(a.ledger.promotions().count() >= 1);
        prop_assert!(a.failovers >= 1);
    }
}

/// The promotion drill, single seed, with the ledger pulled apart: one
/// `Promoted` entry for the crashed shard at exactly `base_epoch + 1`
/// with a committed quorum (echoes and readies over threshold), followed
/// by a `Rejoined` entry for the deposed primary, and an untouched peer
/// shard still at the base epoch.
#[test]
fn promotion_commits_exactly_one_epoch_bump() {
    let sc = PromotionScenario::quick(42);
    let obs = sc.observe(None).expect("run upholds all invariants");
    let promos: Vec<_> = obs.ledger.promotions().cloned().collect();
    assert_eq!(promos.len(), 1, "exactly one promotion: {:?}", obs.ledger);
    let p = &promos[0];
    assert_eq!(p.epoch, 2, "promotion bumps the base epoch by one");
    assert_eq!(p.primary, 1, "the replica seat takes the primary role");
    assert!(p.echoes >= 3 && p.readies >= 3, "vote under quorum: {p:?}");
    assert!(
        obs.ledger
            .entries
            .iter()
            .any(|t| t.kind == TransitionKind::Rejoined && t.shard == p.shard),
        "deposed primary never rejoined: {:?}",
        obs.ledger
    );
    // The peer shard was never disturbed.
    let peer = 1 - p.shard;
    assert_eq!(obs.final_epochs[peer], 1);
    assert_eq!(obs.final_primaries[peer], 0);
    // And the crashed shard converged under its new primary.
    assert_eq!(obs.final_epochs[p.shard], 2);
    assert_eq!(obs.final_primaries[p.shard], 1);
    assert_eq!(obs.primary_sums, obs.replica_sums, "seats diverged");
}

/// Server-side epoch fencing, exercised directly through a mount's epoch
/// stamp: in-epoch writes pass, stale-epoch writes are refused with
/// `StaleEpoch`, restarts hard-fence every mutation until the new epoch is
/// certified, and reads are never fenced.
#[test]
fn fencing_refuses_stale_epoch_writes() {
    simulate(|rt| {
        let net = Network::new(rt.clone());
        let route = |name: &str| ConnRoute {
            fwd: vec![net.add_link(&format!("{name}-f"), Bw::mbps(100.0), Dur::from_millis(1))],
            rev: vec![net.add_link(&format!("{name}-r"), Bw::mbps(100.0), Dur::from_millis(1))],
            send_cap: None,
            recv_cap: None,
            bus: None,
        };
        let server = SrbServer::new(net.clone(), SrbServerCfg::default());
        server.mcat().add_user("u", "p");
        server.enable_epoch_fencing(1);
        let fs = SrbFs::new(
            server.clone(),
            SrbFsConfig {
                retry: RetryPolicy::none(),
                ..SrbFsConfig::new(route("fence"), "u", "p")
            },
        );
        let stamp = fs.epoch_stamp();
        stamp.store(1, Ordering::SeqCst);

        let mut f = fs.open("/za", OpenFlags::CreateRw).expect("open");
        let data = Payload::bytes(vec![7u8; 4096]);
        assert_eq!(f.write_at(0, &data).expect("in-epoch write"), 4096);

        // The world moved to epoch 2 but this mount still stamps 1: the
        // server refuses the mutation and says which epoch is current.
        server.certify_epoch(2);
        match f.write_at(4096, &data) {
            Err(e) => {
                let msg = format!("{e:?}");
                assert!(msg.contains("StaleEpoch"), "expected StaleEpoch, got {msg}");
            }
            Ok(_) => panic!("stale-epoch write must be refused"),
        }
        assert!(server.fenced_rejects() >= 1);
        // Reads are never fenced — a stale client can still audit.
        assert_eq!(f.read_at(0, 4096).expect("read").len(), 4096);

        // Catch up: the same handle works again at the current epoch.
        stamp.store(2, Ordering::SeqCst);
        assert_eq!(f.write_at(4096, &data).expect("caught-up write"), 4096);
        f.close().expect("close");

        // A restart hard-fences regardless of the carried epoch — even
        // un-epoched frames are refused — until membership certifies the
        // server back in. A fresh mount sidesteps the severed conn pool.
        server.crash();
        server.restart();
        assert!(server.is_fenced(), "restart must hard-fence");
        let fresh = SrbFs::new(
            server.clone(),
            SrbFsConfig {
                retry: RetryPolicy::none(),
                ..SrbFsConfig::new(route("fence2"), "u", "p")
            },
        );
        let rejects0 = server.fenced_rejects();
        let mut f = fresh.open("/za", OpenFlags::CreateRw).expect("reopen");
        assert!(
            f.write_at(8192, &data).is_err(),
            "hard fence must refuse even un-epoched mutations"
        );
        assert!(server.fenced_rejects() > rejects0);
        server.certify_epoch(2);
        assert!(!server.is_fenced());
        assert_eq!(f.write_at(8192, &data).expect("post-certify write"), 4096);
        f.close().expect("close");
    });
}

/// Live re-sharding: a federation provisioned with three shards but
/// routing over two migrates its namespace onto all three while reads
/// continue. Mid-migration reads of moving paths are double-routed; the
/// cutover bumps the map version atomically; afterwards every file reads
/// back bit-identically from its (possibly new) owner.
#[test]
fn live_resharding_migrates_and_cuts_over() {
    simulate(|rt| {
        let shards = FedTestbed::new(&rt, 3, false, None).shards;
        let fed = FedFs::with_active_shards(&rt, shards, 2);
        fed.mk_coll_all("/fed").expect("mkcoll");
        let files = 8usize;
        let len = 256u64 << 10;
        let pattern = |i: usize| -> Vec<u8> {
            (0..len)
                .map(|k| (k as usize * 31 + i * 7 + 3) as u8)
                .collect()
        };
        let paths: Vec<String> = (0..files).map(|i| format!("/fed/m{i}")).collect();
        for (i, p) in paths.iter().enumerate() {
            let mut f = fed.open(p, OpenFlags::CreateRw).expect("open");
            assert_eq!(
                f.write_at(0, &Payload::bytes(pattern(i))).expect("write"),
                len
            );
            f.close().expect("close");
        }
        let v0 = fed.map_version();
        let owners_before: Vec<usize> = paths.iter().map(|p| fed.shard_of(p)).collect();
        fed.begin_reshard(3, &paths);
        assert!(fed.resharding());
        // Keep reading while the migrator copies underneath: every read of
        // a moving path is double-routed and must return current bytes.
        let mut reads = 0usize;
        while fed.resharding() {
            let i = reads % files;
            let mut f = fed.open(&paths[i], OpenFlags::Read).expect("ro open");
            let got = f.read_at(0, len).expect("mid-migration read");
            assert_eq!(
                got.data(),
                Some(&pattern(i)[..]),
                "stale mid-migration read"
            );
            let _ = f.close();
            reads += 1;
            rt.sleep(Dur::from_millis(5));
            assert!(reads < 10_000, "re-shard never completed");
        }
        let stats = fed.migration_stats();
        let owners_after: Vec<usize> = paths.iter().map(|p| fed.shard_of(p)).collect();
        assert_eq!(stats.completed, 1, "cutover never committed");
        assert!(stats.moved_paths >= 1, "map change moved nothing");
        assert_eq!(
            stats.moved_paths as usize,
            owners_before
                .iter()
                .zip(&owners_after)
                .filter(|(a, b)| a != b)
                .count(),
            "moved-path count disagrees with the map delta"
        );
        assert!(stats.moved_bytes >= stats.moved_paths * len);
        assert!(stats.double_routed_reads >= 1, "reads never double-routed");
        assert_eq!(fed.map_version(), v0 + 1, "cutover bumps the map version");
        assert!(owners_after.contains(&2), "no path landed on the new shard");
        // Post-cutover: everything reads back from its new owner.
        for (i, p) in paths.iter().enumerate() {
            let mut f = fed.open(p, OpenFlags::Read).expect("final open");
            assert_eq!(
                f.read_at(0, len).expect("final read").data(),
                Some(&pattern(i)[..])
            );
            f.close().expect("close");
        }
    });
}

/// Writes racing a re-shard are never lost: traffic keeps overwriting
/// moving paths while the migrator copies, chases the dirty tail, and
/// attempts cutover. A write still on the wire pins the cutover open
/// until its extent reaches the dirty tail (the server acks *before* the
/// client resumes, so recording it after the fact leaves a loss window);
/// afterwards every file must read back exactly as the write history says.
#[test]
fn resharding_never_loses_acked_writes() {
    simulate(|rt| {
        let shards = FedTestbed::new(&rt, 3, false, None).shards;
        let fed = FedFs::with_active_shards(&rt, shards, 2);
        fed.mk_coll_all("/fed").expect("mkcoll");
        let files = 6usize;
        let len = 128u64 << 10;
        let chunk = 32u64 << 10;
        let paths: Vec<String> = (0..files).map(|i| format!("/fed/w{i}")).collect();
        // A byte-accurate model of every file, updated alongside each write.
        let mut model: Vec<Vec<u8>> = (0..files)
            .map(|i| {
                (0..len)
                    .map(|k| (k as usize * 13 + i * 5 + 1) as u8)
                    .collect()
            })
            .collect();
        for (i, p) in paths.iter().enumerate() {
            let mut f = fed.open(p, OpenFlags::CreateRw).expect("open");
            assert_eq!(
                f.write_at(0, &Payload::bytes(model[i].clone()))
                    .expect("seed write"),
                len
            );
            f.close().expect("close");
        }
        fed.begin_reshard(3, &paths);
        // Keep overwriting rotating chunks of every path while the
        // migrator runs, for the first rounds — each write races the
        // snapshot copy, the dirty chase, and the cutover clean check —
        // then stop and let the tail go dry.
        let mut round = 0u64;
        while fed.resharding() {
            if round < 12 {
                for (i, p) in paths.iter().enumerate() {
                    let off = (round % (len / chunk)) * chunk;
                    let data: Vec<u8> = (0..chunk)
                        .map(|k| ((off + k) as usize * 29 + i * 17 + round as usize * 7 + 3) as u8)
                        .collect();
                    let mut f = fed.open(p, OpenFlags::CreateRw).expect("rw open");
                    assert_eq!(
                        f.write_at(off, &Payload::bytes(data.clone()))
                            .expect("mid-migration write"),
                        chunk
                    );
                    f.close().expect("close");
                    model[i][off as usize..(off + chunk) as usize].copy_from_slice(&data);
                }
            }
            round += 1;
            rt.sleep(Dur::from_millis(2));
            assert!(round < 10_000, "re-shard never completed under writes");
        }
        assert_eq!(
            fed.migration_stats().completed,
            1,
            "cutover never committed"
        );
        // Every acked byte — seed writes, snapshot-raced overwrites, and
        // dirty-chased tails alike — survives the cutover.
        for (i, p) in paths.iter().enumerate() {
            let mut f = fed.open(p, OpenFlags::Read).expect("final open");
            assert_eq!(
                f.read_at(0, len).expect("final read").data(),
                Some(&model[i][..]),
                "acked bytes lost across the cutover on {p}"
            );
            f.close().expect("close");
        }
    });
}
