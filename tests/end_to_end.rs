//! Full-stack integration tests: SEMPLAR → SRB → simulated WAN → vault,
//! with real data integrity checks and timing invariants, on the paper's
//! cluster models.

use semplar_repro::clusters::{das2, osc, tg_ncsa, Testbed};
use semplar_repro::compress::Lzf;
use semplar_repro::mpi::run_world;
use semplar_repro::runtime::{simulate, Dur};
use semplar_repro::semplar::{
    CompressedReader, CompressedWriter, File, OpenFlags, Payload, Request, StripeUnit, StripedFile,
};
use semplar_repro::workloads::estgen::{generate, EstGenConfig};

fn pattern(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| ((i as u64 * 31 + seed as u64) % 251) as u8)
        .collect()
}

#[test]
fn data_survives_the_transoceanic_path_on_every_cluster() {
    for spec in [das2(), osc(), tg_ncsa()] {
        let name = spec.name;
        simulate(move |rt| {
            let tb = Testbed::new(rt.clone(), spec, 1);
            let fs = tb.srbfs(0);
            let f = File::open(&rt, &fs, "/e2e", OpenFlags::CreateRw).unwrap();
            let data = pattern(200_000, 7);
            // Mixed sync/async writes at overlapping offsets.
            f.write_at(0, &Payload::bytes(data[..100_000].to_vec()))
                .unwrap();
            f.iwrite_at(100_000, Payload::bytes(data[100_000..].to_vec()))
                .wait()
                .unwrap();
            f.iwrite_at(50_000, Payload::bytes(data[50_000..60_000].to_vec()))
                .wait()
                .unwrap();
            let back = f.read_at(0, 200_000).unwrap();
            assert_eq!(back.data().unwrap(), &data[..], "corruption on {name}");
            assert_eq!(f.size().unwrap(), 200_000);
            f.close().unwrap();
        });
    }
}

#[test]
fn concurrent_ranks_write_disjoint_regions_of_a_shared_file() {
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), tg_ncsa(), 6);
        let tb2 = tb.clone();
        run_world(tb.topo.clone(), 6, move |r| {
            let rt = r.runtime().clone();
            let fs = tb2.srbfs(r.rank);
            let f = File::open(&rt, &fs, "/shared", OpenFlags::CreateRw).unwrap();
            let mine = pattern(10_000, r.rank as u8);
            f.write_at(r.rank as u64 * 10_000, &Payload::bytes(mine))
                .unwrap();
            r.barrier();
            // Every rank reads every region back and checks it.
            for other in 0..r.size {
                let got = f.read_at(other as u64 * 10_000, 10_000).unwrap();
                assert_eq!(
                    got.data().unwrap(),
                    &pattern(10_000, other as u8)[..],
                    "rank {} read bad data for region {other}",
                    r.rank
                );
            }
            f.close().unwrap();
        });
    });
}

#[test]
fn async_write_really_overlaps_modelled_computation_on_das2() {
    let (sync_t, async_t) = simulate(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), 1);
        let fs = tb.srbfs(0);
        let bytes = 4 << 20; // ~11.6 s at the 2.88 Mb/s window cap
        let compute = Dur::from_secs(10);

        let f = File::open(&rt, &fs, "/sync", OpenFlags::CreateRw).unwrap();
        let t0 = rt.now();
        f.write_at(0, &Payload::sized(bytes)).unwrap();
        tb.compute(0, compute);
        let sync_t = (rt.now() - t0).as_secs_f64();
        f.close().unwrap();

        let f = File::open(&rt, &fs, "/async", OpenFlags::CreateRw).unwrap();
        let t0 = rt.now();
        let req = f.iwrite_at(0, Payload::sized(bytes));
        tb.compute(0, compute);
        req.wait().unwrap();
        let async_t = (rt.now() - t0).as_secs_f64();
        f.close().unwrap();
        (sync_t, async_t)
    });
    assert!(
        async_t < sync_t - 9.0,
        "overlap should hide ~10 s of compute: sync {sync_t:.1}s async {async_t:.1}s"
    );
    // And async can never beat max(compute, io).
    assert!(async_t >= 10.0);
}

#[test]
fn striped_files_roundtrip_real_data_over_the_wan() {
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), tg_ncsa(), 1);
        let fs = tb.srbfs(0);
        let f = StripedFile::open(
            &rt,
            &fs,
            "/striped",
            OpenFlags::CreateRw,
            3,
            StripeUnit::Bytes(64 * 1024),
        )
        .unwrap();
        let data = pattern(1_000_000, 3);
        f.write_at(0, Payload::bytes(data.clone())).unwrap();
        let back = f.read_at(0, 1_000_000).unwrap();
        assert_eq!(back.data().unwrap(), &data[..]);
        f.close().unwrap();
    });
}

#[test]
fn compressed_pipeline_roundtrips_est_data_over_the_wan() {
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), osc(), 1);
        let fs = tb.srbfs(0);
        let f = File::open(&rt, &fs, "/est.lzf", OpenFlags::CreateRw).unwrap();
        let data = generate(1 << 20, 5, &EstGenConfig::default());
        let codec = Lzf;
        let mut w = CompressedWriter::new(&f, &codec).block_size(128 * 1024);
        w.write(&data).unwrap();
        let (bin, bout) = w.finish().unwrap();
        assert_eq!(bin, data.len() as u64);
        assert!(bout < bin, "EST text must compress");
        let back = CompressedReader::read_all(&f, &codec).unwrap();
        assert_eq!(back, data);
        f.close().unwrap();
        // The server only ever saw compressed bytes.
        assert_eq!(tb.server.stats().bytes_written, bout);
    });
}

#[test]
fn many_outstanding_requests_complete_exactly_once() {
    simulate(|rt| {
        let tb = Testbed::new(rt.clone(), tg_ncsa(), 1);
        let fs = tb.srbfs(0);
        let f = File::open(&rt, &fs, "/q", OpenFlags::CreateRw).unwrap();
        let reqs: Vec<Request> = (0..50)
            .map(|i| f.iwrite_at(i * 1000, Payload::sized(1000)))
            .collect();
        let statuses = Request::wait_all(&reqs).unwrap();
        assert_eq!(statuses.len(), 50);
        assert!(statuses.iter().all(|s| s.bytes == 1000));
        let stats = f.engine_stats();
        assert_eq!(stats.submitted, 50);
        assert_eq!(stats.completed, 50);
        assert_eq!(f.size().unwrap(), 50_000);
        f.close().unwrap();
    });
}

#[test]
fn per_op_round_trips_show_up_in_virtual_time() {
    // 20 tiny synchronous writes on DAS-2 must cost at least 20 RTTs.
    let elapsed = simulate(|rt| {
        let tb = Testbed::new(rt.clone(), das2(), 1);
        let fs = tb.srbfs(0);
        let f = File::open(&rt, &fs, "/tiny", OpenFlags::CreateRw).unwrap();
        let t0 = rt.now();
        for i in 0..20u64 {
            f.write_at(i * 64, &Payload::sized(64)).unwrap();
        }
        let dt = rt.now() - t0;
        f.close().unwrap();
        dt
    });
    assert!(
        elapsed >= Dur::from_millis(20 * 182),
        "20 sync ops cannot beat 20 RTTs: {elapsed}"
    );
    assert!(
        elapsed < Dur::from_millis(20 * 182 + 600),
        "overhead blew up: {elapsed}"
    );
}

#[test]
fn virtual_time_is_deterministic_across_runs() {
    let run = || {
        simulate(|rt| {
            let tb = Testbed::new(rt.clone(), das2(), 4);
            let tb2 = tb.clone();
            let times = run_world(tb.topo.clone(), 4, move |r| {
                let rt = r.runtime().clone();
                let fs = tb2.srbfs(r.rank);
                let f =
                    File::open(&rt, &fs, &format!("/d{}", r.rank), OpenFlags::CreateRw).unwrap();
                r.barrier();
                let t0 = rt.now();
                f.write_at(0, &Payload::sized(1 << 20)).unwrap();
                r.barrier();
                let dt = (rt.now() - t0).as_nanos();
                f.close().unwrap();
                dt
            });
            times
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "virtual timings must be reproducible");
}
