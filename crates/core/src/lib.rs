//! # semplar
//!
//! A reproduction of **SEMPLAR** — the SRB-Enabled MPI-IO Library for
//! Access to Remote storage — extended with the asynchronous primitives of
//! Ali & Lauria, *Improving the Performance of Remote I/O Using Asynchronous
//! Primitives* (HPDC 2006).
//!
//! The library stacks up exactly as the paper's Fig. 1/Fig. 2 describe:
//!
//! ```text
//!   File (MPI-IO-style API: read_at/write_at/iread_at/iwrite_at/wait/test)
//!     │                          │
//!     │ sync calls               │ async calls → FIFO I/O queue → I/O threads
//!     ▼                          ▼                 (each servicing the sync op)
//!   ADIO (AdioFs/AdioFile) ───────
//!     ├─ SrbFs   — one TCP connection per open, to the SRB server
//!     └─ MemFs   — local in-memory backend (UFS stand-in)
//! ```
//!
//! On top of the core API sit the paper's three optimizations:
//!
//! 1. **Computation/I-O overlap** — issue [`File::iwrite_at`], compute, then
//!    [`Request::wait`] (§7.1);
//! 2. **Multiple TCP connections per node** — [`StripedFile`] opens the file
//!    N times and schedules blocks across the streams (§7.2, incl. the
//!    paper's library-level future work);
//! 3. **On-the-fly compression** — [`CompressedWriter`] pipelines LZ
//!    compression of 1 MB blocks with their transmission (§7.3).

#![warn(missing_docs)]

pub mod adio;
pub mod engine;
pub mod fedfs;
pub mod file;
pub mod lease;
pub mod pipeline;
pub mod request;
pub mod srbfs;
pub mod stripe;

pub use adio::{
    merge_extents, pack_extents, split_packed, AdioFile, AdioFs, IoError, IoResult, MemFs,
};
pub use engine::{EngineCfg, EngineStats};
pub use fedfs::{FedFs, FedShard, MigrationStats, ReconcileLedger};
pub use file::File;
pub use lease::LeaseCache;
pub use pipeline::{CompressedReader, CompressedWriter, ComputeModel, DEFAULT_BLOCK};
pub use request::{Request, Status};
pub use srbfs::{RecoveryStats, SrbFs, SrbFsConfig, RESUME_BLOCK};
pub use stripe::{MultiRequest, StripeStats, StripeUnit, StripedFile};

// Re-export the substrate types users need at the API surface.
pub use semplar_srb::{IoMeter, MeterSnapshot, OpenFlags, Payload};

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_netsim::{Bw, Network};
    use semplar_runtime::{simulate, Dur, Runtime};
    use semplar_srb::vault::DiskSpec;
    use semplar_srb::{ConnRoute, SrbServer, SrbServerCfg};
    use std::sync::Arc;

    fn slow_memfs(rt: &Arc<dyn Runtime>) -> Arc<MemFs> {
        MemFs::with_disk(
            rt.clone(),
            DiskSpec {
                bandwidth: Bw::mbyte_per_s(10.0),
                seek: Dur::ZERO,
                ..DiskSpec::default()
            },
        )
    }

    #[test]
    fn sync_file_roundtrip_on_memfs() {
        simulate(|rt| {
            let fs = MemFs::new();
            let f = File::open(&rt, &fs, "/a", OpenFlags::CreateRw).unwrap();
            f.write_at(0, &Payload::bytes(b"semplar".to_vec())).unwrap();
            assert_eq!(f.read_at(0, 7).unwrap().data().unwrap(), b"semplar");
            assert_eq!(f.size().unwrap(), 7);
            f.close().unwrap();
        });
    }

    #[test]
    fn async_write_completes_and_persists() {
        simulate(|rt| {
            let fs = MemFs::new();
            let f = File::open(&rt, &fs, "/a", OpenFlags::CreateRw).unwrap();
            let r = f.iwrite_at(0, Payload::bytes(vec![7; 100]));
            let st = r.wait().unwrap();
            assert_eq!(st.bytes, 100);
            assert_eq!(f.read_at(0, 100).unwrap().len(), 100);
            f.close().unwrap();
            assert_eq!(fs.get("/a").unwrap(), vec![7; 100]);
        });
    }

    /// Regression: a submit against a closed engine must fail *and* leave
    /// the `submitted` counter untouched — it used to count the job first
    /// and then fail the enqueue, so `submitted` could exceed what would
    /// ever complete.
    #[test]
    fn rejected_submit_is_not_counted() {
        simulate(|rt| {
            let fs = MemFs::new();
            fs.put("/r", b"payload".to_vec());
            let f = File::open(&rt, &fs, "/r", OpenFlags::Read).unwrap();
            f.iread_at(0, 7).wait().unwrap();
            f.close().unwrap();
            let before = f.engine_stats();
            assert_eq!(before.submitted, 1);
            assert_eq!(before.completed, 1);
            assert!(f.iread_at(0, 7).wait().is_err());
            let after = f.engine_stats();
            assert_eq!(after.submitted, before.submitted);
            assert_eq!(after.completed, before.completed);
        });
    }

    #[test]
    fn async_read_returns_data_in_status() {
        simulate(|rt| {
            let fs = MemFs::new();
            fs.put("/r", b"async-data".to_vec());
            let f = File::open(&rt, &fs, "/r", OpenFlags::Read).unwrap();
            let st = f.iread_at(6, 4).wait().unwrap();
            assert_eq!(st.data.unwrap().data().unwrap(), b"data");
            f.close().unwrap();
        });
    }

    /// The paper's core premise, in one test: a 1 s write overlapped with
    /// 1 s of computation takes ~1 s with asynchronous I/O and ~2 s with
    /// synchronous I/O.
    #[test]
    fn overlap_hides_io_behind_computation() {
        let (sync_t, async_t) = simulate(|rt| {
            let fs = slow_memfs(&rt); // 10 MB/s disk
            let payload = || Payload::sized(10_000_000); // 1 s of I/O

            let f = File::open(&rt, &fs, "/sync", OpenFlags::CreateRw).unwrap();
            let t0 = rt.now();
            f.write_at(0, &payload()).unwrap(); // 1 s
            rt.sleep(Dur::from_secs(1)); // "compute" 1 s
            let sync_t = rt.now() - t0;
            f.close().unwrap();

            let f = File::open(&rt, &fs, "/async", OpenFlags::CreateRw).unwrap();
            let t0 = rt.now();
            let req = f.iwrite_at(0, payload());
            rt.sleep(Dur::from_secs(1)); // compute while the I/O thread writes
            req.wait().unwrap();
            let async_t = rt.now() - t0;
            f.close().unwrap();
            (sync_t, async_t)
        });
        assert!((sync_t.as_secs_f64() - 2.0).abs() < 1e-6, "sync {sync_t}");
        assert!(
            (async_t.as_secs_f64() - 1.0).abs() < 1e-3,
            "async {async_t}"
        );
    }

    #[test]
    fn test_polls_without_blocking() {
        simulate(|rt| {
            let fs = slow_memfs(&rt);
            let f = File::open(&rt, &fs, "/t", OpenFlags::CreateRw).unwrap();
            let req = f.iwrite_at(0, Payload::sized(5_000_000)); // 0.5 s
            assert!(req.test().is_none(), "write completed implausibly fast");
            rt.sleep(Dur::from_secs(1));
            match req.test() {
                Some(Ok(st)) => assert_eq!(st.bytes, 5_000_000),
                other => panic!("expected completion, got {other:?}"),
            }
            f.close().unwrap();
        });
    }

    #[test]
    fn queued_requests_complete_in_fifo_order() {
        simulate(|rt| {
            let fs = slow_memfs(&rt);
            let f = File::open(&rt, &fs, "/fifo", OpenFlags::CreateRw).unwrap();
            let r1 = f.iwrite_at(0, Payload::sized(1_000_000));
            let r2 = f.iwrite_at(1_000_000, Payload::sized(1_000_000));
            let r3 = f.iwrite_at(2_000_000, Payload::sized(1_000_000));
            // If r3 is done, FIFO servicing means r1 and r2 are done too.
            r3.wait().unwrap();
            assert!(r1.test().is_some() && r2.test().is_some());
            let stats = f.engine_stats();
            assert_eq!(stats.submitted, 3);
            assert_eq!(stats.completed, 3);
            assert_eq!(stats.threads_spawned, 1, "default engine is one thread");
            f.close().unwrap();
        });
    }

    #[test]
    fn io_thread_spawns_lazily_by_default() {
        simulate(|rt| {
            let fs = MemFs::new();
            let f = File::open(&rt, &fs, "/lazy", OpenFlags::CreateRw).unwrap();
            assert_eq!(f.engine_stats().threads_spawned, 0);
            f.iwrite_at(0, Payload::sized(1)).wait().unwrap();
            assert_eq!(f.engine_stats().threads_spawned, 1);
            f.close().unwrap();
        });
    }

    #[test]
    fn io_threads_start_together_on_the_first_async_call() {
        simulate(|rt| {
            let fs = MemFs::new();
            let f = File::open_with(
                &rt,
                &fs,
                "/pool",
                OpenFlags::CreateRw,
                EngineCfg { io_threads: 3 },
            )
            .unwrap();
            assert_eq!(f.engine_stats().threads_spawned, 0);
            f.iwrite_at(0, Payload::sized(1)).wait().unwrap();
            assert_eq!(f.engine_stats().threads_spawned, 3);
            f.close().unwrap();
        });
    }

    #[test]
    fn wait_all_collects_statuses() {
        simulate(|rt| {
            let fs = MemFs::new();
            let f = File::open(&rt, &fs, "/wa", OpenFlags::CreateRw).unwrap();
            let reqs: Vec<Request> = (0..4)
                .map(|i| f.iwrite_at(i * 10, Payload::sized(10)))
                .collect();
            let sts = Request::wait_all(&reqs).unwrap();
            assert_eq!(sts.len(), 4);
            assert!(sts.iter().all(|s| s.bytes == 10));
            assert!(reqs.iter().all(|r| r.test().is_some()));
            f.close().unwrap();
        });
    }

    #[test]
    fn zero_length_ops_complete_immediately() {
        simulate(|rt| {
            let fs = MemFs::new();
            let f = File::open(&rt, &fs, "/z", OpenFlags::CreateRw).unwrap();
            assert_eq!(f.iwrite_at(0, Payload::sized(0)).wait().unwrap().bytes, 0);
            assert_eq!(f.iread_at(0, 0).wait().unwrap().bytes, 0);
            let list = vec![(0, 0), (8, 0)];
            assert_eq!(f.iread_list(list.clone()).wait().unwrap().bytes, 0);
            let w = f.iwrite_list_with(list, Payload::sized(0), true);
            assert_eq!(w.wait().unwrap().bytes, 0);
            // None of them reached the engine, so none crossed the wire.
            assert_eq!(f.engine_stats().submitted, 0);
            assert_eq!(f.engine_stats().threads_spawned, 0);
            f.close().unwrap();
        });
    }

    #[test]
    fn errors_propagate_through_requests() {
        simulate(|rt| {
            let fs = MemFs::new();
            fs.put("/ro", vec![1, 2, 3]);
            let f = File::open(&rt, &fs, "/ro", OpenFlags::Read).unwrap();
            let err = f.iwrite_at(0, Payload::sized(1)).wait().unwrap_err();
            assert!(matches!(err, IoError::BadAccess(_)));
            f.close().unwrap();
        });
    }

    fn srb_fixture(rt: &Arc<dyn Runtime>, cap_mbps: f64) -> Arc<SrbFs> {
        let net = Network::new(rt.clone());
        let up = net.add_link("up", Bw::mbps(100.0), Dur::from_millis(5));
        let down = net.add_link("down", Bw::mbps(100.0), Dur::from_millis(5));
        let server = SrbServer::new(net, SrbServerCfg::default());
        server.mcat().add_user("u", "p");
        SrbFs::new(
            server,
            SrbFsConfig::new(
                ConnRoute {
                    fwd: vec![up],
                    rev: vec![down],
                    send_cap: Some(Bw::mbps(cap_mbps)),
                    recv_cap: Some(Bw::mbps(cap_mbps)),
                    bus: None,
                },
                "u",
                "p",
            ),
        )
    }

    #[test]
    fn srbfs_roundtrips_real_data_through_the_full_stack() {
        simulate(|rt| {
            let fs = srb_fixture(&rt, 50.0);
            let f = File::open(&rt, &fs, "/remote", OpenFlags::CreateRw).unwrap();
            let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
            f.iwrite_at(0, Payload::bytes(data.clone())).wait().unwrap();
            let back = f.read_at(0, 10_000).unwrap();
            assert_eq!(back.data().unwrap(), &data[..]);
            f.close().unwrap();
        });
    }

    /// §7.2's headline: two window-capped streams nearly double throughput,
    /// via the library-level StripedFile.
    #[test]
    fn striped_file_doubles_window_limited_throughput() {
        let (one, two) = simulate(|rt| {
            let fs = srb_fixture(&rt, 8.0); // 8 Mb/s per-stream cap
            let mb = 4_000_000u64;

            let f1 = StripedFile::open(&rt, &fs, "/one", OpenFlags::CreateRw, 1, StripeUnit::Even)
                .unwrap();
            let t0 = rt.now();
            f1.write_at(0, Payload::sized(mb)).unwrap();
            let one = rt.now() - t0;
            f1.close().unwrap();

            let f2 = StripedFile::open(&rt, &fs, "/two", OpenFlags::CreateRw, 2, StripeUnit::Even)
                .unwrap();
            let t0 = rt.now();
            f2.write_at(0, Payload::sized(mb)).unwrap();
            let two = rt.now() - t0;
            f2.close().unwrap();
            (one, two)
        });
        let speedup = one.as_secs_f64() / two.as_secs_f64();
        assert!(
            speedup > 1.7,
            "expected ~2x from double streams, got {speedup:.2} ({one} vs {two})"
        );
    }

    #[test]
    fn striped_reads_reassemble_in_order() {
        simulate(|rt| {
            let fs = MemFs::new();
            let data: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
            fs.put("/s", data.clone());
            let f = StripedFile::open(&rt, &fs, "/s", OpenFlags::Read, 3, StripeUnit::Bytes(64))
                .unwrap();
            let back = f.read_at(0, 1000).unwrap();
            assert_eq!(back.data().unwrap(), &data[..]);
            // Unaligned range.
            let back = f.read_at(100, 333).unwrap();
            assert_eq!(back.data().unwrap(), &data[100..433]);
            f.close().unwrap();
        });
    }

    #[test]
    fn striped_writes_preserve_data_across_streams() {
        simulate(|rt| {
            let fs = MemFs::new();
            let data: Vec<u8> = (0..100_000u32).map(|i| (i * 7 % 256) as u8).collect();
            let f = StripedFile::open(
                &rt,
                &fs,
                "/sw",
                OpenFlags::CreateRw,
                4,
                StripeUnit::Bytes(1024),
            )
            .unwrap();
            f.write_at(0, Payload::bytes(data.clone())).unwrap();
            f.close().unwrap();
            assert_eq!(fs.get("/sw").unwrap(), data);
        });
    }

    #[test]
    fn wait_any_returns_the_fastest_request() {
        simulate(|rt| {
            let slow = slow_memfs(&rt); // 10 MB/s
            let fast = MemFs::new();
            let f_slow = File::open(&rt, &slow, "/s", OpenFlags::CreateRw).unwrap();
            let f_fast = File::open(&rt, &fast, "/f", OpenFlags::CreateRw).unwrap();
            let t0 = rt.now();
            let reqs = vec![
                f_slow.iwrite_at(0, Payload::sized(10_000_000)), // 1 s
                f_fast.iwrite_at(0, Payload::sized(10_000_000)), // instant
            ];
            let (idx, res) = Request::wait_any(&rt, &reqs);
            assert_eq!(idx, 1, "the fast backend should win");
            assert_eq!(res.unwrap().bytes, 10_000_000);
            assert!(rt.now() - t0 < Dur::from_millis(100));
            // The slow one still completes.
            reqs[0].wait().unwrap();
            f_slow.close().unwrap();
            f_fast.close().unwrap();
        });
    }

    #[test]
    fn compressed_writer_roundtrips() {
        simulate(|rt| {
            let fs = MemFs::new();
            let codec = semplar_compress::Lzf;
            let data: Vec<u8> = b"GATTACA".repeat(50_000); // 350 KB, compressible
            let f = File::open(&rt, &fs, "/z", OpenFlags::CreateRw).unwrap();
            let mut w = CompressedWriter::new(&f, &codec).block_size(64 * 1024);
            w.write(&data).unwrap();
            let (bin, bout) = w.finish().unwrap();
            assert_eq!(bin, data.len() as u64);
            assert!(bout < bin / 2, "poor ratio: {bout}/{bin}");
            let back = CompressedReader::read_all(&f, &codec).unwrap();
            assert_eq!(back, data);
            f.close().unwrap();
        });
    }

    /// §7.3's mechanism: with the pipeline, compression time hides behind
    /// transmission; synchronously it adds up.
    #[test]
    fn pipelined_compression_beats_synchronous() {
        let (sync_t, async_t) = simulate(|rt| {
            let codec = semplar_compress::Lzf;
            // Nearly incompressible data so transmission time is comparable
            // to the modelled compression time (the regime where pipelining
            // matters most is compute ≈ transfer).
            let mut x: u64 = 0x2545F4914F6CDD1D;
            let data: Vec<u8> = (0..8 << 20)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 24) as u8
                })
                .collect();
            let cpu = semplar_netsim::Cpu::new(rt.clone(), 2.0, 1.0);
            let model = ComputeModel {
                cpu,
                rate: Bw::mbyte_per_s(10.0), // deliberately slow to expose the effect
            };
            let run = |depth: usize, path: &str| {
                let fs = slow_memfs(&rt);
                let f = File::open(&rt, &fs, path, OpenFlags::CreateRw).unwrap();
                let t0 = rt.now();
                let mut w = CompressedWriter::new(&f, &codec)
                    .depth(depth)
                    .compute_model(model.clone());
                w.write(&data).unwrap();
                w.finish().unwrap();
                let dt = rt.now() - t0;
                f.close().unwrap();
                dt
            };
            (run(0, "/sync"), run(2, "/async"))
        });
        assert!(
            async_t.as_secs_f64() < sync_t.as_secs_f64() * 0.75,
            "pipelining gained too little: {async_t} vs {sync_t}"
        );
    }

    /// Build a server+fs pair (no stream caps) so tests can reach the
    /// server for fault injection and server-side checksums. `tune` edits
    /// the paper-default mount config before the mount is built.
    fn srb_pair(
        rt: &Arc<dyn Runtime>,
        tune: impl FnOnce(&mut SrbFsConfig),
    ) -> (Arc<semplar_srb::SrbServer>, Arc<SrbFs>) {
        let net = Network::new(rt.clone());
        let up = net.add_link("up", Bw::mbps(100.0), Dur::from_millis(5));
        let down = net.add_link("down", Bw::mbps(100.0), Dur::from_millis(5));
        let server = SrbServer::new(net, SrbServerCfg::default());
        server.mcat().add_user("u", "p");
        let mut cfg = SrbFsConfig::new(
            ConnRoute {
                fwd: vec![up],
                rev: vec![down],
                send_cap: None,
                recv_cap: None,
                bus: None,
            },
            "u",
            "p",
        );
        tune(&mut cfg);
        let fs = SrbFs::new(server.clone(), cfg);
        (server, fs)
    }

    /// `SrbFsConfig::new` is the mount `SrbFs::new` built before the
    /// config carried these values: per-open streams, the default retry
    /// policy, no stream routes, sieving off across holes, leases off.
    #[test]
    fn config_defaults_are_the_paper_mount() {
        let cfg = SrbFsConfig::new(
            ConnRoute {
                fwd: vec![],
                rev: vec![],
                send_cap: None,
                recv_cap: None,
                bus: None,
            },
            "u",
            "p",
        );
        assert_eq!(cfg.pool, semplar_srb::PoolPolicy::PerOpen);
        assert_eq!(cfg.retry, semplar_srb::RetryPolicy::default());
        assert!(cfg.stream_routes.is_empty());
        assert_eq!(cfg.sieve_threshold, 0.0);
        assert_eq!(cfg.lease_capacity, None);
    }

    /// Read leases end to end: the second read of a leased range touches
    /// neither the wire nor the disk — it completes in zero virtual time.
    #[test]
    fn leased_reads_are_served_locally_after_first_fetch() {
        simulate(|rt| {
            let (_server, fs) = srb_pair(&rt, |c| c.lease_capacity = Some(1 << 20));
            let data: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
            let f = File::open(&rt, &fs, "/hot", OpenFlags::CreateRw).unwrap();
            let written = Payload::bytes(data.clone());
            f.write_at(0, &written).unwrap();
            let first = f.read_at(0, 20_000).unwrap();
            assert_eq!(first.data().unwrap(), &data[..]);
            let t0 = rt.now();
            let second = f.read_at(4_000, 8_000).unwrap();
            assert_eq!(
                rt.now() - t0,
                Dur::ZERO,
                "warm read should not hit the wire"
            );
            assert_eq!(second.data().unwrap(), &data[4_000..12_000]);
            // No copy on the way: the vault kept the written buffer, the
            // wire read is a view of it, and so is the lease hit.
            let buffer = |p: &Payload| match p {
                Payload::Bytes(buf, _) => buf.clone(),
                Payload::Sized(_) => panic!("real bytes were written"),
            };
            for read in [&first, &second] {
                assert!(std::sync::Arc::ptr_eq(&buffer(read), &buffer(&written)));
            }
            let s = fs.lease_stats();
            assert_eq!(s.hits, 1);
            assert!(s.bytes_saved >= 8_000);
            f.close().unwrap();
        });
    }

    /// Coherence: an acked overlapping write — through a *different* open —
    /// revokes the lease, so the next read returns the new bytes.
    #[test]
    fn overlapping_write_revokes_the_lease() {
        simulate(|rt| {
            let (_server, fs) = srb_pair(&rt, |c| c.lease_capacity = Some(1 << 20));
            let f = File::open(&rt, &fs, "/coh", OpenFlags::CreateRw).unwrap();
            f.write_at(0, &Payload::bytes(vec![1u8; 1000])).unwrap();
            assert_eq!(
                f.read_at(0, 1000).unwrap().data().unwrap(),
                &[1u8; 1000][..]
            );
            let g = File::open(&rt, &fs, "/coh", OpenFlags::CreateRw).unwrap();
            g.write_at(500, &Payload::bytes(vec![2u8; 100])).unwrap();
            g.close().unwrap();
            let back = f.read_at(0, 1000).unwrap();
            let bytes = back.data().unwrap();
            assert_eq!(&bytes[..500], &[1u8; 500][..]);
            assert_eq!(&bytes[500..600], &[2u8; 100][..]);
            assert!(fs.lease_stats().invalidations >= 1);
            f.close().unwrap();
        });
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The list path is semantically identical to the loop of
        /// single-extent ops it replaces: same bytes on the server
        /// (server-side checksums agree), same bytes read back —
        /// across every sieve threshold, across stripe streams, and
        /// across a mid-list transient connection reset.
        #[test]
        fn list_ops_match_single_op_sequence(
            lens in proptest::collection::vec((1u64..3000, 0u64..3000), 1..8),
            base in 0u64..4096,
            threshold_sel in 0u8..3,
            streams in 1usize..4,
            fault in any::<bool>(),
        ) {
            simulate(move |rt| {
                let (server, fs) = srb_pair(&rt, |c| {
                    c.sieve_threshold = [0.0, 0.5, 1.0][threshold_sel as usize]
                });
                let mut extents = Vec::new();
                let mut off = base;
                for &(len, gap) in &lens {
                    extents.push((off, len));
                    off += len + gap;
                }
                let total: u64 = extents.iter().map(|&(_, l)| l).sum();
                let packed: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();

                // Reference: one synchronous write per extent.
                let f = File::open(&rt, &fs, "/single", OpenFlags::CreateRw).unwrap();
                let mut cursor = 0usize;
                for &(eoff, elen) in &extents {
                    let piece = packed[cursor..cursor + elen as usize].to_vec();
                    cursor += elen as usize;
                    prop_assert_eq!(f.write_at(eoff, &Payload::bytes(piece)).unwrap(), elen);
                }
                f.close().unwrap();

                // List path, optionally striped, optionally hit by a
                // transient fault right before the list op so the
                // whole-list idempotent retry has to re-issue it.
                let (n, back) = if streams == 1 {
                    let f = File::open(&rt, &fs, "/list", OpenFlags::CreateRw).unwrap();
                    if fault {
                        server.reset_all_connections();
                    }
                    let n = f.write_list(&extents, &Payload::bytes(packed.clone())).unwrap();
                    if fault {
                        server.reset_all_connections();
                    }
                    let back = f.read_list(&extents).unwrap();
                    f.close().unwrap();
                    (n, back)
                } else {
                    let f = StripedFile::open(
                        &rt, &fs, "/list", OpenFlags::CreateRw,
                        streams, StripeUnit::Bytes(1024),
                    ).unwrap();
                    if fault {
                        server.reset_all_connections();
                    }
                    let n = f.write_list(&extents, &Payload::bytes(packed.clone())).unwrap();
                    if fault {
                        server.reset_all_connections();
                    }
                    let back = f.read_list(&extents).unwrap();
                    f.close().unwrap();
                    (n, back)
                };
                prop_assert_eq!(n, total);
                prop_assert_eq!(back.data().unwrap(), &packed[..]);

                // Bit-identical files, per the server's own checksums.
                let admin = fs.admin_conn().unwrap();
                prop_assert_eq!(
                    admin.checksum("/single").unwrap(),
                    admin.checksum("/list").unwrap()
                );
            });
        }

        /// The hole mask: write-back sieving (threshold 1.0 forces the
        /// read-modify-write path whenever the list has holes) must never
        /// alter a byte the caller didn't write.
        #[test]
        fn write_back_sieving_preserves_unwritten_bytes(
            lens in proptest::collection::vec((1u64..800, 1u64..800), 2..8),
            base in 0u64..512,
        ) {
            simulate(move |rt| {
                let (_server, fs) = srb_pair(&rt, |c| c.sieve_threshold = 1.0);
                let mut extents = Vec::new();
                let mut off = base;
                for &(len, gap) in &lens {
                    extents.push((off, len));
                    off += len + gap;
                }
                let total: u64 = extents.iter().map(|&(_, l)| l).sum();
                let size = off + 256; // slack past the last extent
                let original: Vec<u8> = (0..size).map(|i| (i.wrapping_mul(7) % 253) as u8).collect();
                let packed: Vec<u8> = (0..total).map(|i| (0xA0 ^ (i % 97)) as u8).collect();

                let f = File::open(&rt, &fs, "/holes", OpenFlags::CreateRw).unwrap();
                f.write_at(0, &Payload::bytes(original.clone())).unwrap();
                prop_assert_eq!(f.write_list(&extents, &Payload::bytes(packed.clone())).unwrap(), total);

                let mut expected = original;
                let mut cursor = 0usize;
                for &(eoff, elen) in &extents {
                    expected[eoff as usize..(eoff + elen) as usize]
                        .copy_from_slice(&packed[cursor..cursor + elen as usize]);
                    cursor += elen as usize;
                }
                let back = f.read_at(0, size).unwrap();
                prop_assert_eq!(back.data().unwrap(), &expected[..]);
                prop_assert_eq!(f.size().unwrap(), size);
                f.close().unwrap();
            });
        }
    }
}
