//! Quickstart: stand up an SRB server, open a remote file through SEMPLAR,
//! and overlap a write with computation using the asynchronous primitives.
//!
//! Runs under **wall-clock time** (`RealRuntime`) with a millisecond-scale
//! shaped network, so you can watch the overlap happen for real:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use semplar_repro::netsim::{Bw, Network};
use semplar_repro::runtime::{Dur, RealRuntime, Runtime};
use semplar_repro::semplar::{File, OpenFlags, Payload, SrbFs, SrbFsConfig};
use semplar_repro::srb::{ConnRoute, SrbServer, SrbServerCfg};

fn main() {
    // 1. A wall-clock runtime and a lightly shaped network: 20 ms RTT,
    //    80 Mb/s each way — a fast metro link.
    let rt: Arc<dyn Runtime> = RealRuntime::new().handle();
    let net = Network::new(rt.clone());
    let up = net.add_link("uplink", Bw::mbps(80.0), Dur::from_millis(10));
    let down = net.add_link("downlink", Bw::mbps(80.0), Dur::from_millis(10));

    // 2. An SRB server (MCAT + vault) with one registered user.
    let server = SrbServer::new(net, SrbServerCfg::default());
    server.mcat().add_user("demo", "demo");

    // 3. An SRBFS mount: every File::open creates its own TCP connection.
    let fs = SrbFs::new(
        server.clone(),
        SrbFsConfig::new(
            ConnRoute {
                fwd: vec![up],
                rev: vec![down],
                send_cap: None,
                recv_cap: None,
                bus: None,
            },
            "demo",
            "demo",
        ),
    );

    // 4. Create a collection in the MCAT namespace, then open a remote file
    //    and write 2 MB asynchronously while the "application" computes.
    let admin = fs.admin_conn().expect("admin connection");
    admin.mk_coll("/demo").expect("create collection");
    admin.disconnect().expect("disconnect admin");
    let file =
        File::open(&rt, &fs, "/demo/results.dat", OpenFlags::CreateRw).expect("open remote file");
    let data: Vec<u8> = (0..2 << 20).map(|i| (i % 251) as u8).collect();

    let t0 = rt.now();
    let request = file.iwrite_at(0, Payload::bytes(data.clone())); // MPI_File_iwrite
    println!(
        "write issued at {} — computing while it flies...",
        rt.now() - t0
    );

    // Simulated computation phase (the paper's loop body).
    let mut acc = 0u64;
    for i in 0..20_000_000u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }

    let status = request.wait().expect("remote write"); // MPIO_Wait
    println!(
        "write of {} bytes complete at {} (compute result {acc:#x})",
        status.bytes,
        rt.now() - t0
    );

    // 5. Read it back synchronously and verify integrity end-to-end.
    let back = file.read_at(0, data.len() as u64).expect("remote read");
    assert_eq!(back.data().expect("real data"), &data[..], "corruption!");
    println!("read back {} bytes — contents verified", back.len());

    file.close().expect("close");
    let stats = server.stats();
    println!(
        "server saw {} connections, {} requests, {} bytes written",
        stats.connections, stats.requests, stats.bytes_written
    );
}
