//! Scale-out: thousands of simulated clients against one SRB server,
//! per-open connections (paper-faithful, one TCP stream per open) vs the
//! shared multiplexed pool (`PoolPolicy::Shared`).
//!
//! Every client is a task (an `async` body), not a thread: the whole run is one OS
//! thread whatever the client count. The default figure opens a file per
//! client and then writes them all at once, under either policy;
//! `--actors` runs open-loop sessions over the shared pool instead, out to
//! 10⁵ clients (`results/fig_scale_actors*.txt`).
//!
//! Either way the run is entirely in virtual time and fault-free, so the
//! output is bit-identical across invocations — CI diffs every variant
//! against its `results/fig_scale*.txt`. The engine's counters go to
//! stderr.

use std::future::Future;

use semplar_bench::{engine_footer, flags, with_testbed, Table};
use semplar_clusters::{das2, PASSWORD, USER};
use semplar_netsim::NetStats;
use semplar_runtime::{task, Event, SimStats, TaskExecutor, TaskHandle};
use semplar_srb::proto::{Request, Response};
use semplar_srb::{ConnPool, OpenFlags, Payload, PoolPolicy, RetryPolicy, SrbConn};
use semplar_workloads::{run_swarm, SwarmParams};

const NODES: usize = 16;

fn aggregate_mbps(clients: usize, bytes: u64, secs: f64) -> f64 {
    (clients as u64 * bytes) as f64 * 8.0 / 1e6 / secs
}

/// Actor-mode scale-out: sessions arrive open-loop (heavy-tailed gaps
/// around 500 µs, seeded), and each opens its own object over the node's
/// shared pool, writes 64 KiB, closes and retires.
fn run_actors(quick: bool) {
    let bytes = 64 * 1024u64;
    let (streams, inflight) = (8, 64);
    let scales: &[usize] = if quick { &[2_000] } else { &[10_000, 100_000] };
    let mut t = Table::new(
        &format!(
            "Actor-mode scale-out (das2): {NODES} nodes, per-client {} KiB write, event-driven sessions",
            bytes >> 10
        ),
        &[
            "clients",
            "policy",
            "conns accepted",
            "completed",
            "span s",
            "aggregate Mb/s",
        ],
    );
    let mut engine_lines = Vec::new();
    for &clients in scales {
        let ((completed, connections, secs), sim) = with_testbed(das2(), NODES, move |tb| {
            // One tenant, 500 µs gaps, seed 42, as `quick`; one write each.
            let params = SwarmParams {
                clients,
                streams_per_node: streams,
                inflight_per_stream: inflight,
                writes: 1,
                reads: 0,
                bytes_per_op: bytes,
                coll: "/scale".into(),
                ..SwarmParams::quick()
            };
            let report = run_swarm(&tb, &params);
            (
                report.completed(),
                tb.server.stats().connections,
                report.secs,
            )
        });
        let mbps = aggregate_mbps(clients, bytes, secs);
        eprintln!(
            "fig_scale --actors: {clients} clients: {connections} conns, \
             {completed}/{clients} completed, {mbps:.1} Mb/s"
        );
        engine_lines.push(format!(
            "{clients} clients: {}, {} clock advances",
            engine_footer(&sim),
            sim.clock_advances,
        ));
        t.row(vec![
            clients.to_string(),
            format!("shared({streams}x{inflight})"),
            connections.to_string(),
            completed.to_string(),
            format!("{secs:.3}"),
            format!("{mbps:.1}"),
        ]);
    }
    t.print();
    for l in engine_lines {
        println!("{l}");
    }
}

/// One scale-out client: open its own object, signal `opened`, wait for
/// `go`, write, close the file and end the session. Each request is
/// submitted on its session and its reply cell awaited.
async fn client(conn: SrbConn, path: String, bytes: u64, opened: Event, go: Event) {
    let open = Request::Open(path.clone(), OpenFlags::CreateRw);
    let Response::Fd(fd) = exchange(&conn, &path, open).await else {
        panic!("{path}: the open returned no descriptor");
    };
    opened.signal();
    task::wait(&go).await;
    let payload = Payload::sized(bytes);
    let write = Request::Write {
        fd,
        offset: 0,
        payload,
    };
    exchange(&conn, &path, write).await;
    exchange(&conn, &path, Request::Close(fd)).await;
    exchange(&conn, &path, Request::Disconnect).await;
}

/// Submit `req` on `conn` now and await its reply, which must be a
/// success. Not an `async fn`, so the request is not kept in every
/// client's future while it waits.
fn exchange<'a>(
    conn: &SrbConn,
    path: &'a str,
    req: Request,
) -> impl Future<Output = Response> + 'a {
    let reply = conn.submit(req);
    async move {
        let got = reply.wait_async().await.map(|f| f.resp);
        match got.unwrap_or_else(|e| panic!("{path}: {e}")) {
            resp @ (Response::Fd(_) | Response::Written(_) | Response::Ok) => resp,
            other => panic!("{path}: unexpected reply {other:?}"),
        }
    }
}

/// `NODES * procs` clients each open their own object and, once every file
/// is open, write `bytes` at once. `PerOpen` is the paper's mount (every
/// open dials its own TCP connection, §4); `Shared` multiplexes a node's
/// sessions over a bounded stream set. The WAN is the bottleneck either
/// way, so aggregate bandwidth should match while the server's footprint
/// collapses from `clients` to `NODES * max_streams`. Returns (connections
/// accepted, live handlers with every file open, write-phase seconds).
fn run_clients(
    procs: usize,
    bytes: u64,
    policy: PoolPolicy,
) -> ((u64, usize, f64, NetStats), SimStats) {
    with_testbed(das2(), NODES, move |tb| {
        let (rt, server) = (tb.rt.clone(), tb.server.clone());
        let setup = server.connect(tb.route(0), USER, PASSWORD).unwrap();
        setup.mk_coll("/scale").unwrap();
        setup.disconnect().unwrap();
        // The root dials every client's session, node by node. Clients then
        // rendezvous twice: each signals `opened` with its file open (the
        // server's peak footprint), and `go` releases the write phase.
        let pools: Vec<_> = (0..NODES)
            .map(|_| ConnPool::new(server.clone(), USER, PASSWORD, policy, RetryPolicy::none()))
            .collect();
        let (opened, go) = (rt.event(), rt.event());
        let clients: Vec<_> = (0..NODES * procs)
            .map(|i| {
                let conn = pools[i / procs]
                    .session(&tb.route(i / procs), None)
                    .unwrap();
                let path = format!("/scale/n{}p{}", i / procs, i % procs);
                client(conn, path, bytes, opened.clone(), go.clone())
            })
            .collect();
        let tasks = TaskExecutor::new(&rt, "client");
        let handles: Vec<TaskHandle> = (clients.into_iter())
            .map(|c| tasks.spawn(Box::new(Box::pin(c))))
            .collect();
        handles.iter().for_each(|_| opened.wait());
        let (live, conns) = (server.live_conn_count(), server.stats().connections);
        let t0 = rt.now();
        go.signal_n(handles.len());
        handles.iter().for_each(TaskHandle::join);
        let secs = (rt.now() - t0).as_secs_f64();
        (conns, live, secs, tb.net.stats())
    })
}

fn main() {
    let [quick, actors] = flags(["--quick", "--actors"]);
    if actors {
        return run_actors(quick);
    }
    let bytes = 256 * 1024u64;
    let (streams, inflight) = (4, 8);
    // procs per node: 16 nodes x {64,128,256} = 1024/2048/4096 clients.
    let scales: &[usize] = if quick { &[16] } else { &[64, 128, 256] };

    let mut t = Table::new(
        &format!(
            "Scale-out (das2): {NODES} nodes, per-client {} KiB write, per-open vs shared pool",
            bytes >> 10
        ),
        &[
            "clients",
            "policy",
            "conns accepted",
            "live handlers",
            "write s",
            "aggregate Mb/s",
        ],
    );
    for &procs in scales {
        for (policy, pool) in [
            ("per-open".to_string(), PoolPolicy::PerOpen),
            (
                format!("shared({streams}x{inflight})"),
                PoolPolicy::Shared {
                    max_streams: streams,
                    max_inflight: inflight,
                },
            ),
        ] {
            let clients = NODES * procs;
            let ((connections, live, secs, net), sim) = run_clients(procs, bytes, pool);
            let mbps = aggregate_mbps(clients, bytes, secs);
            eprintln!(
                "fig_scale: {clients} clients / {policy}: {connections} conns, \
                 {live} live, {mbps:.1} Mb/s; {}, {} timers armed, {} clock advances, \
                 {} netsim signals",
                engine_footer(&sim),
                sim.timers_armed,
                sim.clock_advances,
                net.signals
            );
            t.row(vec![
                clients.to_string(),
                policy,
                connections.to_string(),
                live.to_string(),
                format!("{secs:.3}"),
                format!("{mbps:.1}"),
            ]);
        }
    }
    t.print();
}
