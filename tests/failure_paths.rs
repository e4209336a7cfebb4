//! Failure-injection tests: errors must surface cleanly through every layer
//! (SRB protocol → ADIO → async engine → Request), misuse must be loud
//! rather than wedging the virtual clock, and the recovery machinery must
//! bring transfers through link flaps, server crashes, and dead streams.

use semplar_repro::clusters::{das2, FedTestbed, Testbed, PASSWORD, USER};
use semplar_repro::faults::FaultPlan;
use semplar_repro::runtime::sync::Barrier;
use semplar_repro::runtime::{simulate, spawn, Dur, SimRuntime};
use semplar_repro::semplar::{
    FedFs, File, IoError, MemFs, OpenFlags, Payload, RecoveryStats, SrbFs, SrbFsConfig, StripeUnit,
    StripedFile,
};
use semplar_repro::srb::{adler32, RetryPolicy, SrbError};

#[test]
fn open_missing_file_fails_fast() {
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), 1);
        let fs = tb.srbfs(0);
        let err = File::open(&rt, &fs, "/ghost", OpenFlags::Read)
            .err()
            .expect("must fail");
        assert!(
            matches!(err, IoError::Srb(SrbError::NotFound(_))),
            "{err:?}"
        );
    });
}

#[test]
fn bad_credentials_are_rejected_at_connect() {
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), 1);
        let mut route = tb.route(0);
        route.send_cap = None;
        let err = tb
            .server
            .connect(route, "intruder", "guess")
            .err()
            .expect("must fail");
        assert_eq!(err, SrbError::PermissionDenied);
    });
}

#[test]
fn write_errors_propagate_through_the_async_engine() {
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), 1);
        let fs = tb.srbfs(0);
        // Create the object, then reopen read-only.
        let f = File::open(&rt, &fs, "/ro", OpenFlags::CreateRw).unwrap();
        f.write_at(0, &Payload::sized(10)).unwrap();
        f.close().unwrap();
        let f = File::open(&rt, &fs, "/ro", OpenFlags::Read).unwrap();
        let err = f.iwrite_at(0, Payload::sized(1)).wait().unwrap_err();
        assert!(
            matches!(err, IoError::Srb(SrbError::InvalidArg(_))),
            "{err:?}"
        );
        // The engine survives the error and keeps serving.
        let ok = f.iread_at(0, 10).wait().unwrap();
        assert_eq!(ok.bytes, 10);
        f.close().unwrap();
    });
}

#[test]
fn requests_after_close_fail_with_closed() {
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), 1);
        let fs = tb.srbfs(0);
        let f = File::open(&rt, &fs, "/c", OpenFlags::CreateRw).unwrap();
        f.close().unwrap();
        let err = f.iwrite_at(0, Payload::sized(1)).wait().unwrap_err();
        assert!(matches!(err, IoError::Closed), "{err:?}");
        let err = f.write_at(0, &Payload::sized(1)).unwrap_err();
        assert!(matches!(err, IoError::Closed), "{err:?}");
    });
}

#[test]
fn double_close_is_idempotent() {
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), 1);
        let fs = tb.srbfs(0);
        let f = File::open(&rt, &fs, "/dc", OpenFlags::CreateRw).unwrap();
        f.close().unwrap();
        f.close().unwrap();
    });
}

#[test]
fn abandoned_files_do_not_wedge_the_simulation() {
    // Opening a file spawns a server-side handler (daemon) and, after the
    // first async op, an I/O thread (daemon). Dropping everything without
    // close() must still let the simulation terminate.
    let end = simulate(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), 1);
        let fs = tb.srbfs(0);
        let f = File::open(&rt, &fs, "/leak", OpenFlags::CreateRw).unwrap();
        f.iwrite_at(0, Payload::sized(1000)).wait().unwrap();
        std::mem::forget(f); // deliberately leak without close
        rt.sleep(Dur::from_millis(1));
        rt.now()
    });
    assert!(end >= semplar_repro::runtime::Time::ZERO);
}

/// Create-or-open is idempotent across sessions: eight sessions open the
/// same fresh path with `CreateRw` at the same virtual instant, 200 paths in
/// a row. The server's lookup-then-create is not atomic, so the losers of
/// each race must open the winner's object rather than see `AlreadyExists`.
#[test]
fn racing_create_rw_opens_all_get_an_fd_on_one_object() {
    const SESSIONS: usize = 8;
    const PATHS: usize = 200;
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), SESSIONS);
        let admin = tb.server.connect(tb.route(0), USER, PASSWORD).unwrap();
        admin.mk_coll("/race").unwrap();
        let barrier = Barrier::new(&rt, SESSIONS);
        let racers: Vec<_> = (0..SESSIONS)
            .map(|n| {
                let conn = tb.server.connect(tb.route(n), USER, PASSWORD).unwrap();
                let barrier = barrier.clone();
                spawn(&rt, &format!("racer{n}"), move || {
                    for i in 0..PATHS {
                        barrier.wait();
                        let path = format!("/race/p{i}");
                        let fd = conn
                            .open(&path, OpenFlags::CreateRw)
                            .unwrap_or_else(|e| panic!("session {n} lost the race on {path}: {e}"));
                        conn.close_fd(fd).unwrap();
                    }
                    conn.disconnect().unwrap();
                })
            })
            .collect();
        for h in racers {
            h.join_unwrap();
        }
        assert_eq!(admin.list("/race").unwrap().len(), PATHS);
        admin.disconnect().unwrap();
    });
}

/// A failed simulation surfaces its *first* panic. The root panics while it
/// and a parked sibling actor each hold an open `File` with a live I/O
/// thread; the sibling unwinds on the poisoned engine, and `File`'s
/// destructor must not block on (and panic in) that engine a second time —
/// a panic while unwinding aborts the whole test process.
#[test]
fn root_panic_with_open_files_surfaces_the_original_message() {
    let sim = SimRuntime::new();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_root(|rt| {
            let fs = MemFs::new(rt.clone());
            // The first async call spawns the file's I/O thread.
            let open = |path: &str| {
                let f = File::open(&rt, &fs, path, OpenFlags::CreateRw).unwrap();
                f.iwrite_at(0, Payload::sized(1)).wait().unwrap();
                f
            };
            let never = rt.event();
            let held_by_sibling = open("/sibling");
            let _sibling = spawn(&rt, "sibling", move || {
                let _held = held_by_sibling;
                never.wait();
            });
            let _held = open("/root");
            rt.sleep(Dur::from_millis(1)); // the sibling is parked by now
            panic!("root boom");
        })
    }));
    let payload = result.expect_err("the root's panic must propagate");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"root boom"));
}

#[test]
fn unlink_missing_object_errors() {
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), 1);
        let conn = tb.server.connect(tb.route(0), "semplar", "hpdc06").unwrap();
        assert!(matches!(conn.unlink("/none"), Err(SrbError::NotFound(_))));
        // And the connection still works afterwards.
        conn.mk_coll("/alive").unwrap();
        assert_eq!(conn.list("/alive").unwrap(), Vec::<String>::new());
        conn.disconnect().unwrap();
    });
}

#[test]
fn reads_past_eof_truncate_posix_style_through_the_whole_stack() {
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), 1);
        let fs = tb.srbfs(0);
        let f = File::open(&rt, &fs, "/eof", OpenFlags::CreateRw).unwrap();
        f.write_at(0, &Payload::bytes(vec![1; 100])).unwrap();
        assert_eq!(f.read_at(90, 50).unwrap().len(), 10);
        assert_eq!(f.read_at(100, 50).unwrap().len(), 0);
        assert_eq!(f.iread_at(95, 50).wait().unwrap().bytes, 5);
        f.close().unwrap();
    });
}

/// A WAN flap mid-transfer stalls the flow but never surfaces an error:
/// TCP rides out the outage, the write completes byte-identical, and the
/// run is longer than a fault-free one by at least the outage.
#[test]
fn link_flap_mid_transfer_stalls_then_resumes_byte_identically() {
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), 1);
        let fs = tb.srbfs(0);
        let data: Vec<u8> = (0..300_000u32).map(|i| (i % 241) as u8).collect();

        // Fault-free reference run.
        let t0 = rt.now();
        let f = File::open(&rt, &fs, "/ref", OpenFlags::CreateRw).unwrap();
        f.write_at(0, &Payload::bytes(data.clone())).unwrap();
        f.close().unwrap();
        let clean = rt.now() - t0;

        // Same write under a 500 ms WAN outage.
        let (wan_up, _) = tb.wan_links();
        let plan =
            FaultPlan::new(11).link_flap(wan_up, Dur::from_millis(200), Dur::from_millis(500), 1);
        let inj = plan.inject(&rt, &tb.net, &tb.server);
        let t1 = rt.now();
        let f = File::open(&rt, &fs, "/flap", OpenFlags::CreateRw).unwrap();
        f.write_at(0, &Payload::bytes(data.clone())).unwrap();
        f.close().unwrap();
        let flapped = rt.now() - t1;

        assert!(inj.done(), "flap events must have fired");
        assert_eq!(inj.stats().link_downs, 1);
        // Most of the outage is felt end-to-end (the slice spent on the
        // response leg or in op overheads hides a little of it).
        assert!(
            flapped >= clean + Dur::from_millis(300),
            "outage not felt: clean {clean:?}, flapped {flapped:?}"
        );
        // The stall is invisible to the client — no disconnect, no retry.
        assert_eq!(fs.recovery_stats(), RecoveryStats::default());

        let conn = tb.server.connect(tb.route(0), "semplar", "hpdc06").unwrap();
        assert_eq!(conn.checksum("/flap").unwrap(), adler32(&data));
        conn.disconnect().unwrap();
    });
}

/// A server crash during an `iwrite` surfaces exactly one transient error
/// through the async engine (recovery disabled); after the restart a retry
/// of the same write lands byte-identical.
#[test]
fn server_crash_mid_iwrite_surfaces_once_and_a_retry_succeeds() {
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), 1);
        let fs = SrbFs::new(
            tb.server.clone(),
            SrbFsConfig {
                retry: RetryPolicy::none(),
                ..SrbFsConfig::new(tb.route(0), "semplar", "hpdc06")
            },
        );
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 7 % 251) as u8).collect();

        let f = File::open(&rt, &fs, "/w", OpenFlags::CreateRw).unwrap();
        let req = f.iwrite_at(0, Payload::bytes(data.clone()));
        rt.sleep(Dur::from_millis(50));
        assert!(tb.server.crash() >= 1, "a live connection must be severed");

        let err = req.wait().unwrap_err();
        assert!(err.is_transient(), "want transient disconnect, got {err:?}");
        // The dead handle closes without a second error.
        f.close().unwrap();

        tb.server.restart();
        let f = File::open(&rt, &fs, "/w", OpenFlags::CreateRw).unwrap();
        f.write_at(0, &Payload::bytes(data.clone())).unwrap();
        f.close().unwrap();

        let conn = tb.server.connect(tb.route(0), "semplar", "hpdc06").unwrap();
        assert_eq!(conn.checksum("/w").unwrap(), adler32(&data));
        conn.disconnect().unwrap();
    });
}

/// When every stream of a striped file is dead (the shard's primary
/// crashed for good), a striped read over a federated mount falls over to
/// the shard's replica and still returns the right bytes. Replica
/// read-failover lives in `FedFs`; `StripedFile` composes with it as with
/// any other `AdioFs`.
#[test]
fn striped_read_fails_over_to_a_federated_replica() {
    simulate(|rt| {
        let FedTestbed { shards, .. } = FedTestbed::new(&rt, 1, false, None);
        let primary = shards[0].primary.server().clone();
        let fed = FedFs::new(&rt, shards);

        // Seed the object and let the write-path replicator mirror it.
        let data: Vec<u8> = (0..500_000u32).map(|i| (i * 13 % 239) as u8).collect();
        let f = File::open(&rt, &fed, "/d", OpenFlags::CreateRw).unwrap();
        f.write_at(0, &Payload::bytes(data.clone())).unwrap();
        f.close().unwrap();
        let forward = fed.shards()[0].replicator.as_ref().unwrap();
        forward.quiesce();

        let sf = StripedFile::open(&rt, &fed, "/d", OpenFlags::Read, 2, StripeUnit::Even).unwrap();

        // Primary goes down for good: every stream's primary handle is dead.
        primary.crash();

        let got = sf.read_at(0, data.len() as u64).unwrap();
        assert_eq!(got.data().unwrap(), &data[..], "replica bytes differ");
        assert!(fed.failovers() >= 1, "read did not use the failover path");
        sf.close().unwrap();
    });
}
