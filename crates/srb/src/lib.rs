//! # semplar-srb
//!
//! A from-scratch Storage Resource Broker — the remote-storage substrate the
//! SEMPLAR paper builds on (Ali & Lauria, HPDC 2006, §3.1).
//!
//! The real SRB (SDSC, v3.2.1 in the paper) gives applications a logical
//! remote filesystem: a metadata catalog (MCAT) that maps a `/collection/…`
//! namespace onto storage resources, servers that broker POSIX-like I/O to
//! their vaults, and a synchronous request/response wire protocol. This
//! crate reimplements that essence over the simulated WAN:
//!
//! * [`Mcat`] — collections, data-object records, users;
//! * [`Vault`] — the object store with a shared-disk bandwidth model;
//! * [`SrbServer`] — per-connection handler actors behind round-robin NICs;
//! * [`SrbConn`] — the client handle: a logical *session* bound to a
//!   [`Transport`] stream — its own (one stream per open, the paper's
//!   behaviour) or a [`ConnPool`] slot's, shared with other sessions.
//!   Every call is one tagged exchange: [`SrbConn::submit`], or that plus a
//!   wait.
//!
//! The protocol's cost structure (a full RTT per synchronous call, payload
//! transfer under per-stream TCP window caps, disk and NIC sharing at the
//! server) is what the paper's three asynchronous optimizations exploit.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod federation;
pub mod mcat;
pub mod membership;
pub mod pool;
pub mod proto;
pub mod qos;
pub mod retry;
pub mod server;
pub mod transport;
pub mod types;
pub mod vault;

pub use cache::{BlockCache, CacheSpec, CacheStats};
pub use client::SrbConn;
pub use federation::{ReplStats, Replicator, ShardMap, REPL_BLOCK};
pub use mcat::Mcat;
pub use membership::{
    GovernedPair, Membership, MembershipCfg, PromotionHook, PromotionLedger, TransitionKind,
    TransitionRecord,
};
pub use pool::{ConnPool, PoolPolicy};
pub use proto::{SessionId, TenantId};
pub use qos::TenantScheduler;
pub use retry::RetryPolicy;
pub use server::{
    ConnRoute, LeaseBreak, LeaseBreakHook, ServerStats, SrbServer, SrbServerCfg, WriteHook,
};
pub use transport::{IoMeter, MeterSnapshot, Transport};
pub use types::{adler32, ObjStat, OpenFlags, Payload, SrbError, SrbResult};
pub use vault::{DiskSpec, Vault};

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_netsim::{Bw, Network};
    use semplar_runtime::sync::OnceCellBlocking;
    use semplar_runtime::{simulate, spawn, Dur, Runtime, SimRuntime};
    use std::sync::Arc;

    /// A client one 10 ms / 100 Mb/s hop away from the server.
    fn setup(rt: &Arc<dyn Runtime>) -> (Arc<SrbServer>, ConnRoute) {
        let (_, server, route) = setup_net(rt);
        (server, route)
    }

    /// [`setup`], plus the network: `route.fwd[0]` is the client's uplink.
    pub(crate) fn setup_net(rt: &Arc<dyn Runtime>) -> (Arc<Network>, Arc<SrbServer>, ConnRoute) {
        let net = Network::new(rt.clone());
        let up = net.add_link("uplink-up", Bw::mbps(100.0), Dur::from_millis(10));
        let down = net.add_link("uplink-down", Bw::mbps(100.0), Dur::from_millis(10));
        let server = SrbServer::new(net.clone(), SrbServerCfg::default());
        server.mcat().add_user("alin", "pw");
        let route = ConnRoute {
            fwd: vec![up],
            rev: vec![down],
            send_cap: None,
            recv_cap: None,
            bus: None,
        };
        (net, server, route)
    }

    #[test]
    fn connect_authenticates() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            assert!(server.connect(route.clone(), "alin", "pw").is_ok());
            assert!(matches!(
                server.connect(route, "alin", "bad").err(),
                Some(SrbError::PermissionDenied)
            ));
            assert_eq!(server.stats().connections, 1);
        });
    }

    #[test]
    fn a_handler_serves_a_round_trip_on_the_wall_clock_runtime() {
        // The same state machine, each on a thread of its own: every `Wait`
        // and `Sleep` it returns is carried out by blocking.
        let rt: Arc<dyn Runtime> = semplar_runtime::RealRuntime::new().handle();
        let net = Network::new(rt.clone());
        let l = net.add_link("lan", Bw::gbps(1.0), Dur::from_micros(50));
        let server = SrbServer::new(net, SrbServerCfg::default());
        server.mcat().add_user("alin", "pw");
        let route = ConnRoute {
            fwd: vec![l],
            rev: vec![l],
            send_cap: None,
            recv_cap: None,
            bus: None,
        };
        let conn = server.connect(route, "alin", "pw").unwrap();
        let fd = conn.open("/real", OpenFlags::CreateRw).unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 253) as u8).collect();
        assert_eq!(
            conn.write(fd, 0, Payload::bytes(data.clone())).unwrap(),
            100_000
        );
        assert_eq!(
            conn.read(fd, 10, 1000).unwrap().data().unwrap(),
            &data[10..1010]
        );
        assert_eq!(conn.checksum("/real").unwrap(), adler32(&data));
        conn.close_fd(fd).unwrap();
        conn.disconnect().unwrap();
        assert_eq!(server.stats().requests, 6);
    }

    #[test]
    #[should_panic(expected = "actor #1 \"orion/conn/0\": blocked on event wait")]
    fn a_hang_reports_the_idle_handler_by_connection_and_what_it_waits_on() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            let _conn = server.connect(route, "alin", "pw").unwrap();
            rt.event().wait(); // the client never sends; nothing else can run
        });
    }

    #[test]
    #[should_panic(expected = "Task::poll blocked through the runtime (bad/0: sleep)")]
    fn a_task_that_charges_the_vault_by_blocking_fails_the_run() {
        struct BlockingWrite(Arc<Vault>);
        impl semplar_runtime::Task for BlockingWrite {
            fn poll(&mut self, _: &mut semplar_runtime::TaskCtx<'_>) -> semplar_runtime::TaskStep {
                // What a handler must not do: `poll_disk` is for tasks.
                self.0.write(1, 0, &Payload::sized(4096));
                semplar_runtime::TaskStep::Done
            }
        }
        simulate(|rt| {
            let vault = Vault::new(rt.clone(), DiskSpec::default());
            semplar_runtime::TaskExecutor::new(&rt, "bad")
                .spawn(Box::new(BlockingWrite(vault)))
                .join();
        });
    }

    #[test]
    fn full_file_lifecycle_roundtrips_data() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            let conn = server.connect(route, "alin", "pw").unwrap();
            conn.mk_coll("/home").unwrap();
            conn.create("/home/est.fasta").unwrap();
            let fd = conn.open("/home/est.fasta", OpenFlags::ReadWrite).unwrap();
            conn.write(fd, 0, Payload::bytes(b"ACGTACGT".to_vec()))
                .unwrap();
            conn.write(fd, 4, Payload::bytes(b"TTTT".to_vec())).unwrap();
            let back = conn.read(fd, 0, 8).unwrap();
            assert_eq!(back.data().unwrap(), b"ACGTTTTT");
            assert_eq!(conn.stat("/home/est.fasta").unwrap().size, 8);
            assert_eq!(conn.list("/home").unwrap(), vec!["/home/est.fasta"]);
            conn.close_fd(fd).unwrap();
            conn.unlink("/home/est.fasta").unwrap();
            conn.disconnect().unwrap();
        });
    }

    #[test]
    fn every_sync_call_pays_a_round_trip() {
        let elapsed = simulate(|rt| {
            let (server, route) = setup(&rt);
            let conn = server.connect(route, "alin", "pw").unwrap();
            conn.mk_coll("/c").unwrap();
            let t0 = rt.now();
            for i in 0..5 {
                conn.create(&format!("/c/o{i}")).unwrap();
            }
            rt.now() - t0
        });
        // 5 metadata ops × ≥20 ms RTT each; tiny payloads.
        assert!(elapsed >= Dur::from_millis(100), "elapsed {elapsed}");
        assert!(elapsed < Dur::from_millis(130), "elapsed {elapsed}");
    }

    #[test]
    fn bulk_write_is_bandwidth_dominated() {
        let elapsed = simulate(|rt| {
            let (server, route) = setup(&rt);
            let conn = server.connect(route, "alin", "pw").unwrap();
            let fd = conn.open("/data", OpenFlags::CreateRw).unwrap();
            let t0 = rt.now();
            conn.write(fd, 0, Payload::sized(10_000_000)).unwrap();
            rt.now() - t0
        });
        // 80 Mbit at 100 Mb/s = 0.8 s (+ RTT + disk). Must be near 0.85 s.
        let s = elapsed.as_secs_f64();
        assert!((0.8..1.0).contains(&s), "elapsed {elapsed}");
    }

    #[test]
    fn per_stream_window_cap_limits_throughput() {
        let elapsed = simulate(|rt| {
            let net = Network::new(rt.clone());
            let up = net.add_link("up", Bw::mbps(100.0), Dur::ZERO);
            let down = net.add_link("down", Bw::mbps(100.0), Dur::ZERO);
            let server = SrbServer::new(net, SrbServerCfg::default());
            server.mcat().add_user("u", "p");
            let route = ConnRoute {
                fwd: vec![up],
                rev: vec![down],
                send_cap: Some(Bw::mbps(8.0)),
                recv_cap: Some(Bw::mbps(8.0)),
                bus: None,
            };
            let conn = server.connect(route, "u", "p").unwrap();
            let fd = conn.open("/x", OpenFlags::CreateRw).unwrap();
            let t0 = rt.now();
            conn.write(fd, 0, Payload::sized(1_000_000)).unwrap();
            rt.now() - t0
        });
        // 8 Mbit at the 8 Mb/s window cap ≈ 1 s even though the link is 100.
        let s = elapsed.as_secs_f64();
        assert!((1.0..1.1).contains(&s), "elapsed {elapsed}");
    }

    #[test]
    fn two_connections_from_one_node_progress_concurrently() {
        // The §7.2 mechanism at SRB level: two window-capped streams move
        // a file section in roughly half the time of one.
        let (one, two) = simulate(|rt| {
            let net = Network::new(rt.clone());
            let up = net.add_link("up", Bw::mbps(100.0), Dur::ZERO);
            let down = net.add_link("down", Bw::mbps(100.0), Dur::ZERO);
            let server = SrbServer::new(net, SrbServerCfg::default());
            server.mcat().add_user("u", "p");
            let route = ConnRoute {
                fwd: vec![up],
                rev: vec![down],
                send_cap: Some(Bw::mbps(8.0)),
                recv_cap: Some(Bw::mbps(8.0)),
                bus: None,
            };
            // One stream, 2 MB.
            let c1 = server.connect(route.clone(), "u", "p").unwrap();
            let fd1 = c1.open("/one", OpenFlags::CreateRw).unwrap();
            let t0 = rt.now();
            c1.write(fd1, 0, Payload::sized(2_000_000)).unwrap();
            let one = rt.now() - t0;

            // Two streams, 1 MB each, concurrently.
            let c2 = server.connect(route.clone(), "u", "p").unwrap();
            let c3 = server.connect(route, "u", "p").unwrap();
            let fd2 = c2.open("/two", OpenFlags::CreateRw).unwrap();
            let fd3 = c3.open("/two", OpenFlags::CreateRw).unwrap();
            let t1 = rt.now();
            let h = spawn(&rt, "stream-b", move || {
                c3.write(fd3, 1_000_000, Payload::sized(1_000_000)).unwrap();
            });
            c2.write(fd2, 0, Payload::sized(1_000_000)).unwrap();
            h.join_unwrap();
            (one, rt.now() - t1)
        });
        let speedup = one.as_secs_f64() / two.as_secs_f64();
        assert!(
            speedup > 1.8,
            "two-stream speedup only {speedup:.2}x ({one} vs {two})"
        );
    }

    #[test]
    fn error_paths_surface_cleanly() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            let conn = server.connect(route, "alin", "pw").unwrap();
            assert!(matches!(
                conn.open("/missing", OpenFlags::Read),
                Err(SrbError::NotFound(_))
            ));
            assert!(matches!(conn.read(99, 0, 10), Err(SrbError::BadFd(99))));
            let fd = conn.open("/ro", OpenFlags::CreateRw).unwrap();
            conn.close_fd(fd).unwrap();
            assert!(matches!(
                conn.write(fd, 0, Payload::sized(1)),
                Err(SrbError::BadFd(_))
            ));
            let fd = conn.open("/ro", OpenFlags::Read).unwrap();
            assert!(matches!(
                conn.write(fd, 0, Payload::sized(1)),
                Err(SrbError::InvalidArg(_))
            ));
            conn.disconnect().unwrap();
            assert!(matches!(
                conn.stat("/ro"),
                Err(SrbError::Disconnected { .. })
            ));
        });
    }

    /// Two servers on one network, federated: replicate an object across
    /// the inter-server link and read it back from the peer (§8).
    #[test]
    fn federation_replicates_objects_to_a_peer() {
        simulate(|rt| {
            let net = Network::new(rt.clone());
            // Client ↔ primary.
            let c_up = net.add_link("c-up", Bw::mbps(100.0), Dur::from_millis(5));
            let c_down = net.add_link("c-down", Bw::mbps(100.0), Dur::from_millis(5));
            // Primary ↔ peer (a fast data-center interconnect).
            let f_up = net.add_link("fed-up", Bw::gbps(1.0), Dur::from_millis(1));
            let f_down = net.add_link("fed-down", Bw::gbps(1.0), Dur::from_millis(1));

            let primary = SrbServer::new(net.clone(), SrbServerCfg::default());
            primary.mcat().add_user("u", "p");
            let peer = SrbServer::new(
                net.clone(),
                SrbServerCfg {
                    name: "peer".into(),
                    ..SrbServerCfg::default()
                },
            );
            peer.mcat().add_user("fed-svc", "secret");
            primary.add_peer(
                "sdsc-mirror",
                peer.clone(),
                ConnRoute {
                    fwd: vec![f_up],
                    rev: vec![f_down],
                    send_cap: None,
                    recv_cap: None,
                    bus: None,
                },
                "fed-svc",
                "secret",
            );

            let conn = primary
                .connect(
                    ConnRoute {
                        fwd: vec![c_up],
                        rev: vec![c_down],
                        send_cap: None,
                        recv_cap: None,
                        bus: None,
                    },
                    "u",
                    "p",
                )
                .unwrap();
            conn.mk_coll("/proj").unwrap();
            let fd = conn.open("/proj/data", OpenFlags::CreateRw).unwrap();
            let data: Vec<u8> = (0..3_000_000u32).map(|i| (i % 253) as u8).collect();
            conn.write(fd, 0, Payload::bytes(data.clone())).unwrap();
            conn.close_fd(fd).unwrap();

            // Replicate and check the metadata.
            conn.replicate("/proj/data", "sdsc-mirror").unwrap();
            assert_eq!(conn.stat("/proj/data").unwrap().replicas, 2);

            // Unknown peers error cleanly.
            assert!(matches!(
                conn.replicate("/proj/data", "nowhere"),
                Err(SrbError::NotFound(_))
            ));
            conn.disconnect().unwrap();

            // Read the copy straight from the peer.
            let pconn = peer
                .connect(
                    ConnRoute {
                        fwd: vec![f_up],
                        rev: vec![f_down],
                        send_cap: None,
                        recv_cap: None,
                        bus: None,
                    },
                    "fed-svc",
                    "secret",
                )
                .unwrap();
            assert_eq!(pconn.stat("/proj/data").unwrap().size, data.len() as u64);
            let fd = pconn.open("/proj/data", OpenFlags::Read).unwrap();
            let back = pconn.read(fd, 0, data.len() as u64).unwrap();
            assert_eq!(back.data().unwrap(), &data[..]);
            pconn.disconnect().unwrap();
            assert_eq!(peer.stats().bytes_written, data.len() as u64);
        });
    }

    /// [`setup`]'s server and client route, with a peer `"mirror"` one
    /// 1 Gb/s, 1 ms hop away; last, the route from the server to the peer.
    fn peered(rt: &Arc<dyn Runtime>) -> (Arc<SrbServer>, Arc<SrbServer>, ConnRoute, ConnRoute) {
        let (net, primary, route) = setup_net(rt);
        let peer = SrbServer::new(
            net.clone(),
            SrbServerCfg {
                name: "peer".into(),
                ..SrbServerCfg::default()
            },
        );
        peer.mcat().add_user("fed-svc", "secret");
        let fed = ConnRoute {
            fwd: vec![net.add_link("fed-up", Bw::gbps(1.0), Dur::from_millis(1))],
            rev: vec![net.add_link("fed-down", Bw::gbps(1.0), Dur::from_millis(1))],
            send_cap: None,
            recv_cap: None,
            bus: None,
        };
        primary.add_peer("mirror", peer.clone(), fed.clone(), "fed-svc", "secret");
        (primary, peer, route, fed)
    }

    /// Write `len` patterned bytes to `path` through `conn`; return them.
    fn write_object(conn: &SrbConn, path: &str, len: u32) -> Vec<u8> {
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let fd = conn.open(path, OpenFlags::CreateRw).unwrap();
        conn.write(fd, 0, Payload::bytes(data.clone())).unwrap();
        conn.close_fd(fd).unwrap();
        data
    }

    #[test]
    fn a_replicate_whose_peer_crashes_mid_copy_completes_after_the_restart() {
        simulate(|rt| {
            let (primary, peer, route, fed) = peered(&rt);
            let conn = primary.connect(route, "alin", "pw").unwrap();
            let data = write_object(&conn, "/obj", 3_000_000);
            // The first of three 1 MiB blocks is on the wire 20 ms in.
            let (rt2, peer2) = (rt.clone(), peer.clone());
            let chaos = spawn(&rt, "chaos", move || {
                rt2.sleep(Dur::from_millis(20));
                assert!(peer2.crash() >= 1, "the copy's stream was live");
                rt2.sleep(Dur::from_millis(300));
                peer2.restart();
            });
            let t0 = rt.now();
            conn.replicate("/obj", "mirror").unwrap();
            assert!(rt.now() - t0 > Dur::from_millis(320), "outwaited the crash");
            chaos.join_unwrap();
            assert_eq!(conn.stat("/obj").unwrap().replicas, 2);
            conn.disconnect().unwrap();
            let pconn = peer.connect(fed, "fed-svc", "secret").unwrap();
            assert_eq!(pconn.checksum("/obj").unwrap(), types::adler32(&data));
            pconn.disconnect().unwrap();
        });
    }

    #[test]
    fn serving_a_replicate_spawns_no_actor() {
        let actors = |replicates: usize| {
            let sim = SimRuntime::new();
            sim.run_root(move |rt| {
                let (primary, _, route, _) = peered(&rt);
                let conn = primary.connect(route, "alin", "pw").unwrap();
                write_object(&conn, "/obj", 100_000);
                for _ in 0..replicates {
                    conn.replicate("/obj", "mirror").unwrap();
                }
                conn.disconnect().unwrap();
            });
            sim.stats().actors_spawned
        };
        // The peer's replicator is the one thread `add_peer` starts.
        assert_eq!(actors(3), actors(0));
    }

    #[test]
    fn replication_charges_transfer_time() {
        let elapsed = simulate(|rt| {
            let net = Network::new(rt.clone());
            let c_up = net.add_link("c-up", Bw::gbps(1.0), Dur::ZERO);
            let c_down = net.add_link("c-down", Bw::gbps(1.0), Dur::ZERO);
            // Slow federation link: 8 Mb/s.
            let f_up = net.add_link("fed-up", Bw::mbps(8.0), Dur::from_millis(10));
            let f_down = net.add_link("fed-down", Bw::mbps(8.0), Dur::from_millis(10));
            let primary = SrbServer::new(net.clone(), SrbServerCfg::default());
            primary.mcat().add_user("u", "p");
            let peer = SrbServer::new(net.clone(), SrbServerCfg::default());
            peer.mcat().add_user("s", "s");
            primary.add_peer(
                "mirror",
                peer,
                ConnRoute {
                    fwd: vec![f_up],
                    rev: vec![f_down],
                    send_cap: None,
                    recv_cap: None,
                    bus: None,
                },
                "s",
                "s",
            );
            let conn = primary
                .connect(
                    ConnRoute {
                        fwd: vec![c_up],
                        rev: vec![c_down],
                        send_cap: None,
                        recv_cap: None,
                        bus: None,
                    },
                    "u",
                    "p",
                )
                .unwrap();
            let fd = conn.open("/big", OpenFlags::CreateRw).unwrap();
            conn.write(fd, 0, Payload::sized(1_000_000)).unwrap();
            conn.close_fd(fd).unwrap();
            let t0 = rt.now();
            conn.replicate("/big", "mirror").unwrap();
            let dt = rt.now() - t0;
            conn.disconnect().unwrap();
            dt
        });
        // 8 Mbit over the 8 Mb/s federation link ≈ 1 s (+ per-chunk RTTs).
        let s = elapsed.as_secs_f64();
        assert!((1.0..1.3).contains(&s), "replication took {elapsed}");
    }

    #[test]
    fn checksums_verify_transfers_without_reading_back() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            let conn = server.connect(route, "alin", "pw").unwrap();
            let fd = conn.open("/sum", OpenFlags::CreateRw).unwrap();
            let data = b"The quick brown fox jumps over the lazy dog".to_vec();
            conn.write(fd, 0, Payload::bytes(data.clone())).unwrap();
            let remote = conn.checksum("/sum").unwrap();
            assert_eq!(remote, types::adler32(&data));
            // Sparse objects cannot be checksummed.
            let fd2 = conn.open("/sparse", OpenFlags::CreateRw).unwrap();
            conn.write(fd2, 0, Payload::sized(100)).unwrap();
            assert!(matches!(
                conn.checksum("/sparse"),
                Err(SrbError::InvalidArg(_))
            ));
            assert!(matches!(conn.checksum("/nope"), Err(SrbError::NotFound(_))));
            conn.disconnect().unwrap();
        });
    }

    #[test]
    fn adler32_matches_reference_vectors() {
        // Classic test vectors.
        assert_eq!(types::adler32(b""), 1);
        assert_eq!(types::adler32(b"Wikipedia"), 0x11E6_0398);
        // Large input exercises the modular chunking.
        let big = vec![0xABu8; 1_000_000];
        let c = types::adler32(&big);
        assert_eq!(types::adler32(&big), c);
    }

    #[test]
    fn server_counts_traffic() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            let conn = server.connect(route, "alin", "pw").unwrap();
            let fd = conn.open("/t", OpenFlags::CreateRw).unwrap();
            conn.write(fd, 0, Payload::sized(1000)).unwrap();
            conn.read(fd, 0, 400).unwrap();
            let st = server.stats();
            assert_eq!(st.bytes_written, 1000);
            assert_eq!(st.bytes_read, 400);
            assert!(st.requests >= 3);
        });
    }

    #[test]
    fn crash_severs_connections_and_restart_preserves_state() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            let conn = server.connect(route.clone(), "alin", "pw").unwrap();
            let fd = conn.open("/f", OpenFlags::CreateRw).unwrap();
            conn.write(fd, 0, Payload::bytes(vec![7; 100])).unwrap();
            assert_eq!(conn.acked_bytes(), 100);

            assert_eq!(server.crash(), 1);
            assert!(server.is_crashed());
            // The live handle errors and reports how far it got.
            assert_eq!(
                conn.write(fd, 100, Payload::sized(10)).unwrap_err(),
                SrbError::Disconnected { acked: 100 }
            );
            // New connections are refused while down, transiently.
            let refused = server.connect(route.clone(), "alin", "pw").err().unwrap();
            assert!(refused.is_transient(), "{refused}");

            server.restart();
            // MCAT and vault state survived the crash.
            let conn2 = server.connect(route, "alin", "pw").unwrap();
            let fd2 = conn2.open("/f", OpenFlags::Read).unwrap();
            assert_eq!(
                conn2.read(fd2, 0, 100).unwrap().data().unwrap(),
                &[7u8; 100][..]
            );
            conn2.disconnect().unwrap();
        });
    }

    #[test]
    fn crash_mid_transfer_delivers_the_error_to_the_blocked_caller() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            let conn = server.connect(route, "alin", "pw").unwrap();
            let fd = conn.open("/big", OpenFlags::CreateRw).unwrap();
            let s2 = server.clone();
            let rt2 = rt.clone();
            let h = spawn(&rt, "chaos", move || {
                rt2.sleep(Dur::from_millis(1));
                s2.crash();
            });
            // 64 MiB needs seconds on this link; the crash at 1 ms cuts it.
            let err = conn.write(fd, 0, Payload::sized(64 << 20)).unwrap_err();
            assert!(err.is_transient(), "{err}");
            h.join_unwrap();
        });
    }

    #[test]
    fn connection_reset_cuts_streams_without_downing_the_server() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            let conn = server.connect(route.clone(), "alin", "pw").unwrap();
            assert_eq!(server.reset_all_connections(), 1);
            assert!(conn.mk_coll("/x").unwrap_err().is_transient());
            // The server itself is fine: new connections work at once.
            let conn2 = server.connect(route, "alin", "pw").unwrap();
            conn2.mk_coll("/y").unwrap();
            conn2.disconnect().unwrap();
        });
    }

    fn shared_pool(server: &Arc<SrbServer>, max_streams: usize) -> Arc<ConnPool> {
        ConnPool::new(
            server.clone(),
            "alin",
            "pw",
            PoolPolicy::Shared {
                max_streams,
                max_inflight: 8,
            },
            RetryPolicy::none(),
        )
    }

    type Reply = Arc<OnceCellBlocking<SrbResult<proto::RespFrame>>>;

    /// Submit a `len`-byte write at offset 0.
    fn submit_write(conn: &SrbConn, fd: u32, len: u64) -> Reply {
        let payload = Payload::sized(len);
        conn.submit(proto::Request::Write {
            fd,
            offset: 0,
            payload,
        })
    }

    /// The bytes a write's reply acknowledges, `None` before it is in.
    fn written(reply: &Reply) -> Option<u64> {
        match reply.get()?.map(|f| f.resp) {
            Ok(proto::Response::Written(n)) => Some(n),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn submit_completes_on_a_session_that_owns_its_stream() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            let conn = server.connect(route, "alin", "pw").unwrap();
            let fd = conn.open("/f", OpenFlags::CreateRw).unwrap();
            let replies = [100, 200].map(|len| submit_write(&conn, fd, len));
            // Queued, not waited for; the blocking call behind them is
            // answered third on the depth-1 stream.
            assert_eq!(replies.each_ref().map(written), [None, None]);
            assert_eq!(conn.stat("/f").unwrap().size, 200);
            assert_eq!(replies.each_ref().map(written), [Some(100), Some(200)]);
            assert_eq!(conn.acked_bytes(), 300);
            conn.disconnect().unwrap();
        });
    }

    /// The most tasks alive at once over a run of `f`. One stream is three:
    /// the server's handler, the client's demux and its sender.
    fn peak_live_tasks(f: impl FnOnce(Arc<dyn Runtime>) + Send + 'static) -> usize {
        let sim = SimRuntime::new();
        sim.run_root(f);
        sim.stats().peak_live_tasks
    }

    #[test]
    fn a_disconnected_stream_leaves_no_task_behind() {
        let peak = peak_live_tasks(|rt| {
            let (server, route) = setup(&rt);
            for i in 0..200 {
                let conn = server.connect(route.clone(), "alin", "pw").unwrap();
                let fd = conn.open("/f", OpenFlags::CreateRw).unwrap();
                conn.write(fd, i * 100, Payload::sized(100)).unwrap();
                conn.disconnect().unwrap();
            }
        });
        assert_eq!(peak, 3, "200 per-open cycles, one stream at a time");
    }

    #[test]
    fn a_redialed_slot_leaves_no_task_of_the_dead_stream_behind() {
        let peak = peak_live_tasks(|rt| {
            let (server, route) = setup(&rt);
            let pool = shared_pool(&server, 1);
            let mut conn = pool.session(&route, None).unwrap();
            for _ in 0..20 {
                let fd = conn.open("/f", OpenFlags::CreateRw).unwrap();
                // The cut finds the frame 5 ms into its 10 ms of latency.
                let reply = submit_write(&conn, fd, 4096);
                rt.sleep(Dur::from_millis(5));
                assert_eq!(server.reset_all_connections(), 1);
                rt.sleep(Dur::from_millis(1));
                let cut = reply.get().expect("released at the cut");
                assert!(matches!(cut, Err(SrbError::Disconnected { .. })));
                // The frame runs out before the slot is redialed.
                rt.sleep(Dur::from_millis(10));
                conn = pool.reconnect(&route, &conn).unwrap().0;
            }
            assert_eq!(server.stats().connections, 21);
        });
        assert_eq!(peak, 3, "21 streams on one slot, one at a time");
    }

    #[test]
    fn sessions_on_a_shared_stream_have_isolated_fd_namespaces() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            let pool = shared_pool(&server, 1);
            let a = pool.session(&route, None).unwrap();
            let b = pool.session(&route, None).unwrap();
            // Both sessions ride ONE stream (one handler at the server)...
            assert_eq!(server.stats().connections, 1);
            assert_eq!(server.live_conn_count(), 1);
            a.mk_coll("/iso").unwrap();
            // ...yet each gets its own fd table: both first opens yield fd 3.
            let fd_a = a.open("/iso/a", OpenFlags::CreateRw).unwrap();
            let fd_b = b.open("/iso/b", OpenFlags::CreateRw).unwrap();
            assert_eq!(fd_a, 3);
            assert_eq!(fd_b, 3);
            a.write(fd_a, 0, Payload::bytes(b"AAAA".to_vec())).unwrap();
            b.write(fd_b, 0, Payload::bytes(b"BB".to_vec())).unwrap();
            // The same number names different objects in each namespace.
            assert_eq!(a.read(fd_a, 0, 8).unwrap().data().unwrap(), b"AAAA");
            assert_eq!(b.read(fd_b, 0, 8).unwrap().data().unwrap(), b"BB");
            // Closing A's fd 3 must not disturb B's fd 3.
            a.close_fd(fd_a).unwrap();
            assert!(matches!(a.read(fd_a, 0, 1), Err(SrbError::BadFd(3))));
            assert_eq!(b.read(fd_b, 0, 8).unwrap().data().unwrap(), b"BB");
            // Ending session A leaves the stream (and B) fully usable.
            a.disconnect().unwrap();
            assert_eq!(b.stat("/iso/b").unwrap().size, 2);
            assert_eq!(server.live_conn_count(), 1);
            b.disconnect().unwrap();
        });
    }

    #[test]
    fn shared_pool_caps_streams_and_pins_land_on_distinct_slots() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            let pool = shared_pool(&server, 2);
            // Pins 0/1 land on distinct slots; pin 2 wraps onto slot 0.
            let s0 = pool.session(&route, Some(0)).unwrap();
            let s1 = pool.session(&route, Some(1)).unwrap();
            let s2 = pool.session(&route, Some(2)).unwrap();
            assert_eq!(server.stats().connections, 2);
            assert_eq!(pool.live_streams(), 2);
            // All three sessions work concurrently over the two streams.
            s0.mk_coll("/p").unwrap();
            let h: Vec<_> = [(&s0, "/p/x"), (&s1, "/p/y"), (&s2, "/p/z")]
                .into_iter()
                .map(|(s, path)| {
                    let fd = s.open(path, OpenFlags::CreateRw).unwrap();
                    s.write(fd, 0, Payload::sized(100_000)).unwrap();
                    s.close_fd(fd).unwrap();
                    path
                })
                .collect();
            for path in h {
                assert_eq!(s0.stat(path).unwrap().size, 100_000);
            }
        });
    }

    #[test]
    fn one_flap_on_a_shared_stream_triggers_one_redial() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            let pool = shared_pool(&server, 1);
            let a = pool.session(&route, None).unwrap();
            let b = pool.session(&route, None).unwrap();
            a.mk_coll("/flap").unwrap();
            assert_eq!(server.stats().connections, 1);
            assert_eq!(server.reset_all_connections(), 1);
            assert!(a.mk_coll("/flap/a").unwrap_err().is_transient());
            assert!(b.stat("/flap").unwrap_err().is_transient());
            // First reconnect dials a fresh stream...
            let (a2, shared_a) = pool.reconnect(&route, &a).unwrap();
            assert!(!shared_a);
            // ...the second piggybacks on it: still 2 connections total.
            let (b2, shared_b) = pool.reconnect(&route, &b).unwrap();
            assert!(shared_b);
            assert_eq!(server.stats().connections, 2);
            a2.mk_coll("/flap/a").unwrap();
            assert_eq!(b2.list("/flap").unwrap(), vec!["/flap/a"]);
        });
    }

    #[test]
    fn multiplexed_exchanges_share_one_stream_concurrently() {
        simulate(|rt| {
            let (server, route) = setup(&rt);
            let pool = shared_pool(&server, 1);
            let conns: Vec<_> = (0..4)
                .map(|_| Arc::new(pool.session(&route, None).unwrap()))
                .collect();
            conns[0].mk_coll("/mux").unwrap();
            let t0 = rt.now();
            let handles: Vec<_> = conns
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let c = c.clone();
                    spawn(&rt, &format!("mux-client-{i}"), move || {
                        let fd = c.open(&format!("/mux/f{i}"), OpenFlags::CreateRw).unwrap();
                        c.write(fd, 0, Payload::sized(1_000_000)).unwrap();
                        c.close_fd(fd).unwrap();
                    })
                })
                .collect();
            for h in handles {
                h.join_unwrap();
            }
            let elapsed = rt.now() - t0;
            // Four 1 MB writes over one 100 Mb/s stream: the payloads must
            // serialize (~320 ms of wire time), but the small open/close
            // round trips overlap thanks to multiplexing — the whole thing
            // fits well under four back-to-back sequential clients would
            // take, while still reflecting one shared wire.
            assert_eq!(server.stats().connections, 1);
            assert!(
                elapsed < Dur::from_millis(700),
                "multiplexed batch took {elapsed:?}"
            );
            for i in 0..4 {
                assert_eq!(
                    conns[0].stat(&format!("/mux/f{i}")).unwrap().size,
                    1_000_000
                );
            }
        });
    }
}
