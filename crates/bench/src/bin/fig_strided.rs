//! Noncontiguous remote access: the Thakur et al. gap at WAN latency.
//!
//! A strided fragment pattern over one 100 Mb/s / 91 ms-OWD stream, three
//! ways: per-fragment requests (one RTT each), protocol-level list-I/O
//! (whole extent table in one exchange), and data sieving (one covering
//! extent, holes on the wire but never in the goodput meter). A second
//! table runs the collective version on das2: naive per-cell writes vs the
//! same pattern batched through list-I/O vs two-phase aggregation.
//!
//! Entirely in virtual time and seeded, so the output is bit-identical
//! across invocations — CI diffs `--quick` against
//! `results/fig_strided_quick.txt`.

use semplar::{File, OpenFlags, Payload, SrbFs, SrbFsConfig};
use semplar_bench::{flags, with_testbed, Table};
use semplar_clusters::das2;
use semplar_netsim::{Bw, Network};
use semplar_runtime::{simulate, Dur};
use semplar_srb::{ConnRoute, SrbServer, SrbServerCfg};
use semplar_workloads::{run_collective, CollectiveMode, CollectiveParams};

/// How an arm of the first table reaches its fragments.
#[derive(Clone, Copy, PartialEq)]
enum Strategy {
    /// Each fragment with its own request (one RTT apiece).
    PerFragment,
    /// The whole extent list in one list-I/O exchange.
    ListIo,
    /// List-I/O with sieving threshold 1.0: hole bytes ride the wire for a
    /// single covering extent in each direction.
    Sieving,
}

struct Arm {
    write_secs: f64,
    read_secs: f64,
    /// Server requests the timed phases consumed (the RTT-bound quantity).
    requests: u64,
    /// Payload bytes the client's stream meter credited across the run.
    /// Goodput is payload-only: sieved holes and read-modify-write
    /// overhead must not show up here, so every arm meters the same count.
    metered_bytes: u64,
}

/// `frags` fragments of `frag_bytes` every `stride` bytes, written and
/// read back on one 100 Mb/s / 91 ms-OWD stream in a fresh simulation.
fn strided(strategy: Strategy, frags: u64, frag_bytes: u64, stride: u64) -> Arm {
    assert!(frag_bytes <= stride, "fragments must not overlap");
    simulate(move |rt| {
        let net = Network::new(rt.clone());
        let route = ConnRoute {
            fwd: vec![net.add_link("up", Bw::mbps(100.0), Dur::from_millis(91))],
            rev: vec![net.add_link("down", Bw::mbps(100.0), Dur::from_millis(91))],
            send_cap: None,
            recv_cap: None,
            bus: None,
        };
        let server = SrbServer::new(net, SrbServerCfg::default());
        server.mcat().add_user("u", "p");
        let fs = SrbFs::new(
            server.clone(),
            SrbFsConfig {
                sieve_threshold: if strategy == Strategy::Sieving {
                    1.0
                } else {
                    0.0
                },
                ..SrbFsConfig::new(route, "u", "p")
            },
        );
        let extents: Vec<(u64, u64)> = (0..frags).map(|i| (i * stride, frag_bytes)).collect();
        let total = frags * frag_bytes;
        let span = (frags - 1) * stride + frag_bytes;
        let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        let f = File::open(&rt, &fs, "/strided", OpenFlags::CreateRw).expect("open strided");
        // Prepopulate the span so write-back sieving has real hole bytes to
        // preserve, and every arm times the same starting file state.
        f.write_at(
            0,
            &Payload::bytes((0..span).map(|i| (i % 13) as u8).collect()),
        )
        .expect("prepopulate");
        let meter0 = f.meter().map_or(0, |m| m.payload_bytes);
        let req0 = server.stats().requests;

        let t0 = rt.now();
        if strategy == Strategy::PerFragment {
            let mut cursor = 0usize;
            for &(off, len) in &extents {
                let piece = data[cursor..cursor + len as usize].to_vec();
                cursor += len as usize;
                f.write_at(off, &Payload::bytes(piece))
                    .expect("fragment write");
            }
        } else {
            f.write_list(&extents, &Payload::bytes(data.clone()))
                .expect("list write");
        }
        let t1 = rt.now();
        let back: Vec<u8> = if strategy == Strategy::PerFragment {
            let mut out = Vec::with_capacity(total as usize);
            for &(off, len) in &extents {
                out.extend_from_slice(
                    f.read_at(off, len)
                        .expect("fragment read")
                        .data()
                        .expect("real"),
                );
            }
            out
        } else {
            f.read_list(&extents)
                .expect("list read")
                .data()
                .expect("real")
                .to_vec()
        };
        let t2 = rt.now();
        assert_eq!(back, data, "strided read-back mismatch");

        let requests = server.stats().requests - req0;
        let metered_bytes = f.meter().map_or(0, |m| m.payload_bytes) - meter0;
        f.close().expect("close strided");
        Arm {
            write_secs: (t1 - t0).as_secs_f64(),
            read_secs: (t2 - t1).as_secs_f64(),
            requests,
            metered_bytes,
        }
    })
}

fn main() {
    let [quick] = flags(["--quick"]);
    let frags: u64 = if quick { 32 } else { 128 };
    let frag_bytes: u64 = 4 * 1024;
    let stride: u64 = 16 * 1024; // hole fraction 0.75
    let rows = if quick { 16 } else { 64 };

    let arms = [
        ("per-fragment", Strategy::PerFragment),
        ("list-I/O", Strategy::ListIo),
        ("data sieving", Strategy::Sieving),
    ]
    .map(|(name, strategy)| (name, strided(strategy, frags, frag_bytes, stride)));
    let base = arms[0].1.write_secs + arms[0].1.read_secs;

    let mut t = Table::new(
        &format!(
            "Strided access over the WAN (100 Mb/s, 91 ms OWD): {frags} x {} KiB fragments, \
             {} KiB stride, write + read back",
            frag_bytes >> 10,
            stride >> 10
        ),
        &[
            "strategy",
            "write (s)",
            "read (s)",
            "requests",
            "metered payload",
            "speedup",
        ],
    );
    for (name, a) in &arms {
        t.row(vec![
            name.to_string(),
            format!("{:.3}", a.write_secs),
            format!("{:.3}", a.read_secs),
            a.requests.to_string(),
            format!("{} KiB", a.metered_bytes >> 10),
            format!("{:.1}x", base / (a.write_secs + a.read_secs)),
        ]);
    }
    t.print();

    // The collective face of the same gap: the `rows x 4` column-distributed
    // matrix write on das2, each arm in its own fresh simulation.
    let reports = [
        CollectiveMode::Naive,
        CollectiveMode::NaiveList,
        CollectiveMode::TwoPhaseSync,
    ]
    .map(|mode| {
        let params = CollectiveParams {
            rows,
            cell_bytes: 8 * 1024,
            aggregators: 2,
            bands: 4,
            steps: 1,
            compute_per_step: 0.0,
            mode,
        };
        with_testbed(das2(), 4, move |tb| run_collective(&tb, 4, params)).0
    });
    let naive_secs = reports[0].exec_secs;
    let mut t = Table::new(
        &format!("Collective strided write on das2: {rows} x 4 cells of 8 KiB, 4 ranks"),
        &["strategy", "exec (s)", "remote ops", "speedup"],
    );
    for r in &reports {
        t.row(vec![
            format!("{:?}", r.mode),
            format!("{:.3}", r.exec_secs),
            r.remote_ops.to_string(),
            format!("{:.1}x", naive_secs / r.exec_secs),
        ]);
    }
    t.print();
}
