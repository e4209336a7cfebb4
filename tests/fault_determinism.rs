//! Determinism of the fault subsystem: the same `FaultPlan` seed over the
//! same workload must produce a bit-identical virtual history — the same
//! `FaultStats` ledger (times and all), the same recovery counters, the
//! same final file bytes, and the same end-of-run clock.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use semplar_repro::clusters::{das2, Testbed};
use semplar_repro::faults::{FaultPlan, FaultStats};
use semplar_repro::runtime::{simulate, spawn, Dur, Time};
use semplar_repro::semplar::{File, OpenFlags, Payload, RecoveryStats};
use semplar_repro::srb::proto::Request;
use semplar_repro::srb::{ConnPool, PoolPolicy, RetryPolicy};

/// Everything observable about one chaos run.
#[derive(Debug, PartialEq)]
struct RunTrace {
    faults: FaultStats,
    recovery: Vec<RecoveryStats>,
    checksums: Vec<u32>,
    end: Time,
}

/// Two ranks write real data to their own objects while a seeded plan
/// flaps the WAN, resets every connection, and crashes the server; both
/// writes must still land, recovered transparently.
fn chaos_run(seed: u64) -> RunTrace {
    simulate(move |rt| {
        let tb = Testbed::new(rt.clone(), das2(), 2);
        let (wan_up, _) = tb.wan_links();
        let plan = FaultPlan::new(seed)
            .link_flap(wan_up, Dur::from_millis(100), Dur::from_millis(200), 2)
            .conn_reset_at(Dur::from_millis(400))
            .server_crash_at(Dur::from_millis(900), Dur::from_millis(300));
        let inj = plan.inject(&rt, &tb.net, &tb.server);

        let recovery: Arc<Mutex<Vec<(usize, RecoveryStats)>>> = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..2usize)
            .map(|rank| {
                let tb = tb.clone();
                let recovery = recovery.clone();
                spawn(&rt, &format!("rank{rank}"), move || {
                    let fs = tb.srbfs(rank);
                    let data: Vec<u8> = (0..600_000u32)
                        .map(|i| ((i as usize * (rank + 3)) % 251) as u8)
                        .collect();
                    let f = File::open(&tb.rt, &fs, &format!("/d{rank}"), OpenFlags::CreateRw)
                        .expect("open");
                    f.write_at(0, &Payload::bytes(data)).expect("write");
                    f.close().expect("close");
                    recovery.lock().unwrap().push((rank, fs.recovery_stats()));
                })
            })
            .collect();
        for h in handles {
            h.join_unwrap();
        }
        while !inj.done() {
            rt.sleep(Dur::from_millis(50));
        }

        let conn = tb.server.connect(tb.route(0), "semplar", "hpdc06").unwrap();
        let checksums = (0..2)
            .map(|rank| conn.checksum(&format!("/d{rank}")).unwrap())
            .collect();
        conn.disconnect().unwrap();

        let mut rec = recovery.lock().unwrap().clone();
        rec.sort_by_key(|(rank, _)| *rank);
        RunTrace {
            faults: inj.stats(),
            recovery: rec.into_iter().map(|(_, s)| s).collect(),
            checksums,
            end: rt.now(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed, same workload ⇒ bit-identical traces across two runs,
    /// and the bytes that land are the bytes that were written.
    #[test]
    fn same_seed_replays_the_same_history(seed in any::<u64>()) {
        let a = chaos_run(seed);
        let b = chaos_run(seed);
        prop_assert_eq!(&a, &b, "seed {} diverged", seed);
        // The faults really happened and were really recovered from.
        prop_assert!(a.faults.crashes == 1 && a.faults.restarts == 1);
        prop_assert!(a.faults.link_downs == 2 && a.faults.link_ups == 2);
        // And the content is exactly what the ranks wrote.
        for (rank, got) in a.checksums.iter().enumerate() {
            let data: Vec<u8> = (0..600_000u32)
                .map(|i| ((i as usize * (rank + 3)) % 251) as u8)
                .collect();
            prop_assert_eq!(*got, semplar_repro::srb::adler32(&data));
        }
    }
}

/// Two sessions — on one shared stream, or under `PerOpen` on a stream
/// each — have three 256 KiB writes apiece submitted, issued interleaved, so
/// a shared stream's order is not session order, when every connection is
/// reset: the order `(virtual ns, session, write, acked)` in which the
/// completions fire.
fn stream_cut_log(policy: PoolPolicy) -> Vec<(u64, usize, u64, bool)> {
    simulate(move |rt| {
        let tb = Testbed::new(rt.clone(), das2(), 1);
        let none = RetryPolicy::none();
        let pool = ConnPool::new(tb.server.clone(), "semplar", "hpdc06", policy, none);
        let log = Arc::new(Mutex::new(Vec::new()));
        let conns: Vec<_> = (0..2)
            .map(|s| {
                let conn = pool.session(&tb.route(0), None).unwrap();
                let fd = conn.open(&format!("/s{s}"), OpenFlags::CreateRw).unwrap();
                (conn, fd)
            })
            .collect();
        for i in 0..3u64 {
            for (s, (conn, fd)) in conns.iter().enumerate() {
                let (log, rt2) = (log.clone(), rt.clone());
                let req = Request::Write {
                    fd: *fd,
                    offset: i << 18,
                    payload: Payload::sized(1 << 18),
                };
                let done = move |r: Result<_, _>| {
                    let at = rt2.now().as_nanos();
                    log.lock().unwrap().push((at, s, i, r.is_ok()));
                };
                conn.submit(req, Box::new(done)).unwrap();
            }
        }
        FaultPlan::new(7)
            .conn_reset_at(Dur::from_millis(100))
            .inject(&rt, &tb.net, &tb.server);
        rt.sleep(Dur::from_secs(2));
        let got = log.lock().unwrap().clone();
        got
    })
}

#[test]
fn a_cut_fails_a_shared_streams_exchanges_in_the_same_order_every_run() {
    let shared = PoolPolicy::Shared {
        max_streams: 1,
        max_inflight: 8,
    };
    for policy in [shared, PoolPolicy::PerOpen] {
        let first = stream_cut_log(policy);
        let failed = first.iter().filter(|&&(.., ok)| !ok).count();
        assert_eq!(first.len(), 6);
        assert!(failed >= 4, "only {failed} in flight at the cut: {first:?}");
        // The failures are in issue order — `seq` order — on each stream.
        let stream = |session: usize| match policy {
            PoolPolicy::Shared { .. } => 0,
            PoolPolicy::PerOpen => session,
        };
        for on in 0..2 {
            let cut = first.iter().filter(|e| !e.3 && stream(e.1) == on);
            let order: Vec<_> = cut.map(|e| (e.2, e.1)).collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]), "{first:?}");
        }
        for i in 0..10 {
            assert_eq!(stream_cut_log(policy), first, "{policy:?}, repeat {i}");
        }
    }
}
