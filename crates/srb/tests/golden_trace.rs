//! Golden-trace test: the request stream a per-open client puts on the
//! wire. `tests/golden/peropen.trace` is the server-side request trace
//! (per-connection order, session and `seq` tags, wire sizes) of the
//! workload below — two `SrbServer::connect` sessions, each on a stream of
//! its own — and this test replays the workload and compares line for line.
//! A second test adds a list-I/O session and checks the other two are
//! untouched.
//!
//! Regenerate with `SEMPLAR_WRITE_GOLDEN=1 cargo test -p semplar-srb
//! --test golden_trace` — only do that intentionally: the point of the
//! fixture is to pin the wire behaviour across refactors.

use std::sync::Arc;

use semplar_netsim::{Bw, Network};
use semplar_runtime::{simulate, spawn, Dur, Runtime};
use semplar_srb::{ConnRoute, OpenFlags, Payload, SrbServer, SrbServerCfg};

fn workload(rt: &Arc<dyn Runtime>) -> Vec<String> {
    workload_with_list(rt, false)
}

fn workload_with_list(rt: &Arc<dyn Runtime>, with_list: bool) -> Vec<String> {
    let net = Network::new(rt.clone());
    let up = net.add_link("up", Bw::mbps(100.0), Dur::from_millis(10));
    let down = net.add_link("down", Bw::mbps(100.0), Dur::from_millis(10));
    let server = SrbServer::new(net, SrbServerCfg::default());
    server.mcat().add_user("alin", "pw");
    server.enable_request_trace();
    let route = ConnRoute {
        fwd: vec![up],
        rev: vec![down],
        send_cap: None,
        recv_cap: None,
        bus: None,
    };

    // Connections are created sequentially (deterministic ids), then the
    // two clients run concurrently: interleaving across connections is
    // irrelevant because the trace is grouped per connection.
    let c1 = server.connect(route.clone(), "alin", "pw").unwrap();
    let c2 = server.connect(route.clone(), "alin", "pw").unwrap();
    let c3 = with_list.then(|| server.connect(route, "alin", "pw").unwrap());
    c1.mk_coll("/g").unwrap();

    let h1 = spawn(rt, "client-a", move || {
        c1.create("/g/a").unwrap();
        let fd = c1.open("/g/a", OpenFlags::ReadWrite).unwrap();
        let block: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        c1.write(fd, 0, Payload::bytes(block.clone())).unwrap();
        c1.write(fd, 100_000, Payload::bytes(block)).unwrap();
        c1.read(fd, 0, 65_536).unwrap();
        c1.stat("/g/a").unwrap();
        c1.list("/g").unwrap();
        c1.checksum("/g/a").unwrap();
        c1.close_fd(fd).unwrap();
        c1.disconnect().unwrap();
    });
    let h2 = spawn(rt, "client-b", move || {
        let fd = c2.open("/g/b", OpenFlags::CreateRw).unwrap();
        c2.write(fd, 0, Payload::sized(300_000)).unwrap();
        c2.read(fd, 0, 4_096).unwrap();
        c2.stat("/g/b").unwrap();
        c2.close_fd(fd).unwrap();
        c2.unlink("/g/b").unwrap();
        c2.disconnect().unwrap();
    });
    let h3 = c3.map(|c3| {
        spawn(rt, "client-c", move || {
            let fd = c3.open("/g/c", OpenFlags::CreateRw).unwrap();
            let extents = [(0u64, 1000u64), (5000, 2000), (9000, 500)];
            let packed: Vec<u8> = (0..3500u32).map(|i| (i % 251) as u8).collect();
            c3.write_list(fd, &extents, Payload::bytes(packed), None)
                .unwrap();
            c3.read_list(fd, &extents, None).unwrap();
            c3.close_fd(fd).unwrap();
            c3.disconnect().unwrap();
        })
    });
    h1.join_unwrap();
    h2.join_unwrap();
    if let Some(h3) = h3 {
        h3.join_unwrap();
    }
    server.take_request_trace()
}

#[test]
fn peropen_request_stream_matches_pre_refactor_golden() {
    let trace = simulate(|rt| workload(&rt));
    let got = trace.join("\n") + "\n";
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/peropen.trace");
    if std::env::var("SEMPLAR_WRITE_GOLDEN").is_ok() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden fixture present");
    assert_eq!(
        got, want,
        "PerOpen request stream drifted from the golden trace"
    );
}

/// The list-I/O protocol extension is strictly additive: with a third
/// client exercising `readlist`/`writelist` on the same server, the
/// non-list clients' request streams stay byte-identical to the golden
/// fixture, and only the list client's connection carries the new ops.
#[test]
fn list_io_leaves_non_list_request_streams_untouched() {
    let trace = simulate(|rt| workload_with_list(&rt, true));
    let non_list: Vec<&str> = trace
        .iter()
        .map(String::as_str)
        .filter(|l| l.starts_with("conn=0 ") || l.starts_with("conn=1 "))
        .collect();
    let got = non_list.join("\n") + "\n";
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/peropen.trace");
    let want = std::fs::read_to_string(path).expect("golden fixture present");
    assert_eq!(
        got, want,
        "adding a list-I/O client changed the non-list request streams"
    );
    let list_lines: Vec<&String> = trace.iter().filter(|l| l.starts_with("conn=2 ")).collect();
    assert!(
        list_lines.iter().any(|l| l.contains("op=writelist")),
        "list client never framed a writelist: {list_lines:?}"
    );
    assert!(
        list_lines.iter().any(|l| l.contains("op=readlist")),
        "list client never framed a readlist: {list_lines:?}"
    );
}
