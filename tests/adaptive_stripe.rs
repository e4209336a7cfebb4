//! Goodput-adaptive striping, end to end: the adaptive scheduler must
//! replay bit-identically under a seeded fault plan and must beat
//! round-robin placement when one path degrades.

use std::sync::Arc;

use proptest::prelude::*;
use semplar_repro::faults::{FaultPlan, FaultStats};
use semplar_repro::netsim::{Bw, LinkId, Network};
use semplar_repro::runtime::{simulate, Dur, Time};
use semplar_repro::semplar::{
    OpenFlags, Payload, SrbFs, SrbFsConfig, StripeStats, StripeUnit, StripedFile,
};
use semplar_repro::srb::{adler32, ConnRoute, SrbServer, SrbServerCfg};

/// A multi-homed client: one 50 Mb/s, 10 ms path per stream to the same
/// server. Returns the per-stream routes and the uplink ids.
fn multihome(net: &Network, streams: usize) -> (Vec<ConnRoute>, Vec<LinkId>) {
    let mut routes = Vec::with_capacity(streams);
    let mut ups = Vec::with_capacity(streams);
    for i in 0..streams {
        let up = net.add_link(&format!("up{i}"), Bw::mbps(50.0), Dur::from_millis(10));
        let down = net.add_link(&format!("down{i}"), Bw::mbps(50.0), Dur::from_millis(10));
        ups.push(up);
        routes.push(ConnRoute {
            fwd: vec![up],
            rev: vec![down],
            send_cap: None,
            recv_cap: None,
            bus: None,
        });
    }
    (routes, ups)
}

/// Everything observable about one degraded-link striped write.
#[derive(Debug, PartialEq)]
struct DegradeTrace {
    secs: f64,
    end: Time,
    stats: StripeStats,
    faults: FaultStats,
    checksum: u32,
}

/// One striped write of `data` over two paths while a seeded plan throttles
/// stream 0's uplink to a quarter of its rate at t=200 ms.
fn degrade_run(unit: StripeUnit, seed: u64, data: Arc<Vec<u8>>) -> DegradeTrace {
    simulate(move |rt| {
        let net = Network::new(rt.clone());
        let (routes, ups) = multihome(&net, 2);
        let server = SrbServer::new(net.clone(), SrbServerCfg::default());
        server.mcat().add_user("u", "p");
        let fs = SrbFs::new(
            server.clone(),
            SrbFsConfig {
                stream_routes: routes.clone(),
                ..SrbFsConfig::new(routes[0].clone(), "u", "p")
            },
        );
        let plan = FaultPlan::new(seed).link_degrade_at(
            ups[0],
            Dur::from_millis(200),
            0.25,
            Dur::from_secs(3600),
        );
        let inj = plan.inject(&rt, &net, &server);

        let f = StripedFile::open(&rt, &fs, "/deg", OpenFlags::CreateRw, 2, unit)
            .expect("open striped file");
        let t0 = rt.now();
        let req = f.iwrite_at(0, Payload::bytes((*data).clone()));
        let total = req.wait_rebalanced().expect("degraded write");
        assert_eq!(total, data.len() as u64, "short striped write");
        let secs = (rt.now() - t0).as_secs_f64();
        let stats = f.stripe_stats();
        f.close().expect("close striped file");

        let conn = server
            .connect(routes[0].clone(), "u", "p")
            .expect("verify conn");
        let checksum = conn.checksum("/deg").expect("checksum");
        conn.disconnect().expect("disconnect");

        DegradeTrace {
            secs,
            end: rt.now(),
            stats,
            faults: inj.stats(),
            checksum,
        }
    })
}

fn patterned(len: usize, seed: u64) -> Arc<Vec<u8>> {
    let k = seed | 1;
    Arc::new(
        (0..len)
            .map(|i| ((i as u64).wrapping_mul(k) >> 3) as u8)
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed, same fault plan ⇒ the adaptive scheduler replays a
    /// bit-identical history: placement counters, fault ledger, final
    /// clock, and the bytes that land.
    #[test]
    fn adaptive_replays_bit_identical_under_faults(seed in any::<u64>()) {
        let data = patterned(4 << 20, seed);
        let unit = StripeUnit::Adaptive { block: 512 << 10 };
        let a = degrade_run(unit, seed, data.clone());
        let b = degrade_run(unit, seed, data.clone());
        prop_assert_eq!(&a, &b, "seed {} diverged", seed);
        // The degrade really happened and the bytes are the bytes written.
        prop_assert_eq!(a.faults.ledger.len(), 1);
        prop_assert_eq!(a.checksum, adler32(&data));
        let placed: u64 = a.stats.blocks.iter().sum();
        prop_assert_eq!(placed, 8, "4 MiB / 512 KiB blocks");
    }
}

/// Under a 4x single-link degrade the adaptive scheduler must beat
/// round-robin by a wide margin, by migrating queued blocks off the
/// throttled stream's home slots.
#[test]
fn adaptive_beats_round_robin_under_degrade() {
    let data = patterned(16 << 20, 11);
    let rr = degrade_run(StripeUnit::Bytes(1 << 20), 11, data.clone());
    let ad = degrade_run(StripeUnit::Adaptive { block: 1 << 20 }, 11, data);

    assert_eq!(rr.checksum, ad.checksum, "both layouts land the same bytes");
    assert!(
        ad.secs * 1.5 < rr.secs,
        "adaptive {:.3}s should be at least 1.5x faster than round-robin {:.3}s",
        ad.secs,
        rr.secs
    );
    assert!(
        ad.stats.migrated > 0,
        "no blocks migrated off the slow home"
    );
    assert!(
        ad.stats.blocks[1] > ad.stats.blocks[0],
        "the healthy stream should carry the majority: {:?}",
        ad.stats.blocks
    );
}

/// `with_stream_routes` really pins stream `i` to route `i % n`: an evenly
/// striped write over two single-link routes pushes roughly half the
/// payload bits over each uplink.
#[test]
fn stream_routes_pin_streams_to_their_links() {
    simulate(|rt| {
        let net = Network::new(rt.clone());
        let (routes, ups) = multihome(&net, 2);
        let server = SrbServer::new(net.clone(), SrbServerCfg::default());
        server.mcat().add_user("u", "p");
        let fs = SrbFs::new(
            server,
            SrbFsConfig {
                stream_routes: routes.clone(),
                ..SrbFsConfig::new(routes[0].clone(), "u", "p")
            },
        );
        let f = StripedFile::open(&rt, &fs, "/pin", OpenFlags::CreateRw, 2, StripeUnit::Even)
            .expect("open striped file");
        let bytes = 4u64 << 20;
        f.write_at(0, Payload::sized(bytes)).expect("striped write");
        f.close().expect("close striped file");

        let total_bits = bytes as f64 * 8.0;
        for (i, up) in ups.iter().enumerate() {
            let moved = net.link_bits_moved(*up);
            assert!(
                moved > total_bits * 0.4,
                "uplink {i} carried only {moved} of {total_bits} payload bits"
            );
        }
    });
}
