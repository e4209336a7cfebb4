//! Degraded-link striping: one striped write on a multi-homed client with
//! a seeded single-link degrade (stream 0's uplink throttled 4×), with
//! round-robin vs goodput-adaptive block placement.
//!
//! Round-robin keeps feeding the throttled path its full share of blocks,
//! so the slow stream gates the whole write; the adaptive scheduler weighs
//! placement by each stream's measured goodput and rebalances mid-write.
//! Entirely in virtual time and seeded, so the output is bit-identical
//! across invocations — CI diffs `--quick` against
//! `results/fig_degrade_quick.txt`.

use semplar::{OpenFlags, Payload, SrbFs, SrbFsConfig, StripeStats, StripeUnit, StripedFile};
use semplar_bench::table::mbps;
use semplar_bench::{flags, print_fault_ledger, Table};
use semplar_faults::{FaultPlan, FaultStats};
use semplar_netsim::{Bw, Network};
use semplar_runtime::{simulate, Dur};
use semplar_srb::{ConnRoute, SrbServer, SrbServerCfg};

const STREAMS: usize = 2;
const BLOCK: u64 = 1 << 20;
/// Capacity multiplier applied to stream 0's uplink (0.25 = 4× slower).
const FACTOR: f64 = 0.25;
const SEED: u64 = 11;

/// One arm in a fresh simulation: a multi-homed client (one 50 Mb/s path
/// per stream) writes `bytes` over a striped file while the seeded plan
/// throttles stream 0's uplink `degrade_at` into the run. Returns (virtual
/// seconds, placement stats, fault ledger).
fn degrade_write(unit: StripeUnit, bytes: u64, degrade_at: Dur) -> (f64, StripeStats, FaultStats) {
    simulate(move |rt| {
        let net = Network::new(rt.clone());
        let routes: Vec<ConnRoute> = (0..STREAMS)
            .map(|i| ConnRoute {
                fwd: vec![net.add_link(&format!("up{i}"), Bw::mbps(50.0), Dur::from_millis(10))],
                rev: vec![net.add_link(&format!("down{i}"), Bw::mbps(50.0), Dur::from_millis(10))],
                send_cap: None,
                recv_cap: None,
                bus: None,
            })
            .collect();
        let server = SrbServer::new(net.clone(), SrbServerCfg::default());
        server.mcat().add_user("u", "p");
        let fs = SrbFs::new(
            server.clone(),
            SrbFsConfig {
                stream_routes: routes.clone(),
                ..SrbFsConfig::new(routes[0].clone(), "u", "p")
            },
        );
        // The degrade persists past the end of the write (restore far out);
        // the run ends when the root closure returns.
        let inj = FaultPlan::new(SEED)
            .link_degrade_at(routes[0].fwd[0], degrade_at, FACTOR, Dur::from_secs(3600))
            .inject(&rt, &net, &server);

        let f = StripedFile::open(&rt, &fs, "/deg", OpenFlags::CreateRw, STREAMS, unit)
            .expect("open degrade file");
        let t0 = rt.now();
        let req = f.iwrite_at(0, Payload::sized(bytes));
        let total = req.wait().expect("degrade write");
        assert_eq!(total, bytes, "short striped write");
        let secs = (rt.now() - t0).as_secs_f64();
        let stats = f.stripe_stats();
        f.close().expect("close degrade file");
        (secs, stats, inj.stats())
    })
}

fn main() {
    let [quick] = flags(["--quick"]);
    let bytes: u64 = if quick { 16 << 20 } else { 64 << 20 };
    let degrade_at = Dur::from_millis(200);

    // Same write, same seeded degrade. Under round-robin the throttled
    // stream carries `1/streams` of the blocks and gates the whole
    // operation; the adaptive scheduler re-weights placement by the
    // measured goodput and keeps every path busy until the end.
    let (rr_secs, _, _) = degrade_write(StripeUnit::Bytes(BLOCK), bytes, degrade_at);
    let (adaptive_secs, stats, faults) =
        degrade_write(StripeUnit::Adaptive { block: BLOCK }, bytes, degrade_at);
    let write_mbps = |secs: f64| bytes as f64 * 8.0 / secs / 1e6;

    let mut t = Table::new(
        &format!(
            "Degraded link (2x50 Mb/s paths): {} MiB striped write, {STREAMS} streams, \
             1 MiB blocks, uplink 0 at {FACTOR}x from t={:.1}s, seed {SEED}",
            bytes >> 20,
            degrade_at.as_secs_f64()
        ),
        &["metric", "value"],
    );
    t.row(vec!["round-robin write".into(), mbps(write_mbps(rr_secs))]);
    t.row(vec!["round-robin time".into(), format!("{rr_secs:.3} s")]);
    t.row(vec![
        "adaptive write".into(),
        mbps(write_mbps(adaptive_secs)),
    ]);
    t.row(vec![
        "adaptive time".into(),
        format!("{adaptive_secs:.3} s"),
    ]);
    t.row(vec![
        "adaptive speedup".into(),
        format!("{:.2}x", write_mbps(adaptive_secs) / write_mbps(rr_secs)),
    ]);
    for (i, (blocks, by)) in stats.blocks.iter().zip(stats.bytes.iter()).enumerate() {
        t.row(vec![
            format!("stream {i} carried"),
            format!("{blocks} blocks / {} MiB", by >> 20),
        ]);
    }
    t.row(vec![
        "blocks migrated off home".into(),
        stats.migrated.to_string(),
    ]);
    t.row(vec![
        "blocks requeued on failure".into(),
        stats.requeued.to_string(),
    ]);
    t.print();
    print_fault_ledger("fault ledger (virtual time)", &faults);
}
