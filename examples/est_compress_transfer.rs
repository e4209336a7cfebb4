//! On-the-fly compression of EST (nucleotide) data into a remote SRB file,
//! with the full round trip: generate → pipeline-compress → transmit →
//! read back → decompress → verify (paper §7.3, end to end, wall-clock).
//!
//! ```text
//! cargo run --release --example est_compress_transfer
//! ```

use std::sync::Arc;

use semplar_repro::compress::Lzf;
use semplar_repro::netsim::{Bw, Network};
use semplar_repro::runtime::{Dur, RealRuntime, Runtime};
use semplar_repro::semplar::{
    CompressedReader, CompressedWriter, File, OpenFlags, SrbFs, SrbFsConfig,
};
use semplar_repro::srb::{ConnRoute, SrbServer, SrbServerCfg};
use semplar_repro::workloads::estgen::{generate, EstGenConfig};

fn main() {
    let rt: Arc<dyn Runtime> = RealRuntime::new().handle();
    let net = Network::new(rt.clone());
    let up = net.add_link("up", Bw::mbps(60.0), Dur::from_millis(8));
    let down = net.add_link("down", Bw::mbps(60.0), Dur::from_millis(8));
    let server = SrbServer::new(net, SrbServerCfg::default());
    server.mcat().add_user("est", "pw");
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
            "est",
            "pw",
        ),
    );

    // 8 MB of synthetic human-EST-like FASTA text.
    let data = generate(8 << 20, 42, &EstGenConfig::default());
    println!("generated {} bytes of EST text", data.len());

    let admin = fs.admin_conn().expect("admin connection");
    admin.mk_coll("/genbank").expect("create collection");
    admin.disconnect().expect("disconnect");
    let file = File::open(&rt, &fs, "/genbank/est.lzf", OpenFlags::CreateRw).expect("open");
    let codec = Lzf;

    let t0 = rt.now();
    let mut writer = CompressedWriter::new(&file, &codec)
        .block_size(1 << 20)
        .depth(2);
    writer.write(&data).expect("pipeline write");
    let (bytes_in, bytes_out) = writer.finish().expect("flush");
    let elapsed = rt.now() - t0;
    println!(
        "shipped {bytes_in} app bytes as {bytes_out} wire bytes (ratio {:.2}) in {elapsed}",
        bytes_out as f64 / bytes_in as f64
    );
    println!(
        "application-level bandwidth: {:.1} Mb/s over a 60 Mb/s link",
        bytes_in as f64 * 8.0 / elapsed.as_secs_f64() / 1e6
    );

    let t0 = rt.now();
    let back = CompressedReader::read_all(&file, &codec).expect("read back");
    println!(
        "read + decompressed {} bytes in {}",
        back.len(),
        rt.now() - t0
    );
    assert_eq!(back, data, "round trip corrupted the sequences");
    println!("sequences verified byte-for-byte");

    file.close().expect("close");
    println!(
        "server stored {} bytes (compressed on the wire and at rest)",
        server.stats().bytes_written
    );
}
