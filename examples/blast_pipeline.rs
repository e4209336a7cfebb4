//! A real sequence-search pipeline: build a nucleotide database, run
//! seed-and-extend local alignment (the BLAST skeleton) for a stream of
//! queries, and write each query's hit report to a remote SRB file with the
//! one-deep asynchronous pipeline the paper's MPI-BLAST uses — search of
//! query *k+1* overlaps the write of query *k*'s results.
//!
//! ```text
//! cargo run --release --example blast_pipeline
//! ```

use std::sync::Arc;

use semplar_repro::netsim::{Bw, Network};
use semplar_repro::runtime::{Dur, RealRuntime, Runtime};
use semplar_repro::semplar::{File, OpenFlags, Payload, Request, SrbFs, SrbFsConfig};
use semplar_repro::srb::{ConnRoute, SrbServer, SrbServerCfg};
use semplar_repro::workloads::blast::SeqIndex;
use semplar_repro::workloads::estgen::{generate, EstGenConfig};

fn main() {
    let rt: Arc<dyn Runtime> = RealRuntime::new().handle();
    let net = Network::new(rt.clone());
    let up = net.add_link("up", Bw::mbps(40.0), Dur::from_millis(10));
    let down = net.add_link("down", Bw::mbps(40.0), Dur::from_millis(10));
    let server = SrbServer::new(net, SrbServerCfg::default());
    server.mcat().add_user("blast", "pw");
    let fs = SrbFs::new(
        server,
        SrbFsConfig::new(
            ConnRoute {
                fwd: vec![up],
                rev: vec![down],
                send_cap: None,
                recv_cap: None,
                bus: None,
            },
            "blast",
            "pw",
        ),
    );

    // Database: 1 MB of EST text, k-mer indexed ONCE (as BLAST does);
    // queries are slices of it with a mutation, so every query has a
    // guaranteed alignment to find.
    let db = generate(1 << 20, 11, &EstGenConfig::default());
    let queries: Vec<Vec<u8>> = (0..24)
        .map(|i| {
            let start = (i * 39_337) % (db.len() - 400);
            let mut q = db[start..start + 300].to_vec();
            q[37] ^= 1; // a point mutation
            q
        })
        .collect();
    let index = SeqIndex::new(db.clone(), 12);

    let admin = fs.admin_conn().expect("admin connection");
    admin.mk_coll("/blast").expect("create collection");
    admin.disconnect().expect("disconnect");
    let out = File::open(&rt, &fs, "/blast/hits.txt", OpenFlags::CreateRw).expect("open output");
    let t0 = rt.now();
    let mut offset = 0u64;
    let mut pending: Option<Request> = None;
    let mut total_hits = 0usize;
    for (qid, q) in queries.iter().enumerate() {
        // Search (real computation).
        let hits = index.search(q);
        total_hits += hits.len();
        let best = hits.iter().max_by_key(|h| h.len);
        let mut report = format!("query {qid}: {} hits\n", hits.len());
        if let Some(b) = best {
            report.push_str(&format!(
                "  best: db[{}..{}] ~ query[{}..{}] ({} nt)\n",
                b.db_pos,
                b.db_pos + b.len,
                b.query_pos,
                b.query_pos + b.len,
                b.len
            ));
        }
        // One-deep pipeline: wait for the previous report's write, then
        // issue this one — search overlapped I/O, exactly Fig. 5.
        if let Some(p) = pending.take() {
            p.wait().expect("report write");
        }
        let bytes = report.into_bytes();
        let len = bytes.len() as u64;
        pending = Some(out.iwrite_at(offset, Payload::bytes(bytes)));
        offset += len;
    }
    if let Some(p) = pending.take() {
        p.wait().expect("final write");
    }
    println!(
        "searched {} queries ({total_hits} hits) and wrote {offset} report bytes in {}",
        queries.len(),
        rt.now() - t0
    );

    let report = out.read_at(0, offset).expect("read reports");
    let text = String::from_utf8(report.data().expect("real data").to_vec()).expect("utf8");
    assert_eq!(text.matches("query ").count(), queries.len());
    assert!(
        text.lines().filter(|l| l.contains("best:")).count() >= queries.len() * 9 / 10,
        "most queries should align back to the database"
    );
    println!(
        "first report lines:\n{}",
        text.lines().take(4).collect::<Vec<_>>().join("\n")
    );
    out.close().expect("close");
}
