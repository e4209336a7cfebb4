//! Scale-out: thousands of simulated clients against one SRB server,
//! per-open connections (paper-faithful, one TCP stream per open) vs the
//! shared multiplexed pool (`PoolPolicy::Shared`).
//!
//! `--actors` switches to the event-driven client substrate: sessions are
//! poll-style tasks on one executor instead of thread actors, which
//! pushes the axis to 10⁵ clients (`results/fig_scale_actors*.txt`).
//!
//! Either way the run is entirely in virtual time and fault-free, so the
//! output is bit-identical across invocations — CI diffs the `--quick`
//! variants against `results/fig_scale_quick.txt` and
//! `results/fig_scale_actors_quick.txt`.

use std::sync::Arc;

use semplar::{AdioFs, OpenFlags, Payload, SrbFs, SrbFsConfig};
use semplar_bench::{engine_footer, flags, with_testbed, Table};
use semplar_clusters::{das2, PASSWORD, USER};
use semplar_runtime::sync::Barrier;
use semplar_runtime::{spawn, Dur};
use semplar_srb::{PoolPolicy, TenantId};
use semplar_workloads::{run_swarm, SwarmParams, TenantMix};

const NODES: usize = 16;

fn aggregate_mbps(clients: usize, bytes: u64, secs: f64) -> f64 {
    (clients as u64 * bytes) as f64 * 8.0 / 1e6 / secs
}

/// Actor-mode scale-out: the sessions arrive open-loop (heavy-tailed gaps
/// around 500 µs, seeded), each opens its own object over the node's
/// shared pool, writes 64 KiB, closes, and retires — all as poll-style
/// tasks on a single executor, as are the streams' demultiplexers and
/// senders and the server's handlers: the run is one OS thread.
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
            let params = SwarmParams {
                clients,
                streams_per_node: streams,
                inflight_per_stream: inflight,
                mix: TenantMix::single(TenantId(1)),
                writes: 1,
                reads: 0,
                bytes_per_op: bytes,
                mean_gap: Dur::from_micros(500),
                think: Dur::ZERO,
                seed: 42,
                real_payload: false,
                coll: "/scale".into(),
                abuse: None,
                per_tenant_streams: false,
                skew: None,
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

/// Thread-actor scale-out: `NODES * procs` lightweight clients each open
/// their own object and, after a global barrier, write `bytes`
/// concurrently. `PerOpen` is the paper-faithful mount (every open dials
/// its own TCP connection, §4 of the paper); `Shared` multiplexes all of a
/// node's sessions over a bounded stream set. The WAN is the shared
/// bottleneck either way, so the aggregate bandwidth should match while
/// the server's connection footprint collapses from `clients` to
/// `NODES * max_streams`. Returns (connections accepted, live handlers
/// while every client held its file open, write-phase seconds).
fn run_threads(procs: usize, bytes: u64, pool: PoolPolicy) -> (u64, usize, f64) {
    let clients = NODES * procs;
    with_testbed(das2(), NODES, move |tb| {
        let rt = tb.rt.clone();
        let mounts: Vec<Arc<SrbFs>> = (0..NODES)
            .map(|n| {
                SrbFs::new(
                    tb.server.clone(),
                    SrbFsConfig {
                        pool,
                        ..SrbFsConfig::new(tb.route(n), USER, PASSWORD)
                    },
                )
            })
            .collect();
        let setup = mounts[0].admin_conn().unwrap();
        setup.mk_coll("/scale").unwrap();
        setup.disconnect().unwrap();

        // Clients rendezvous twice: `opened` marks every file open (the
        // server's peak footprint), `go` releases the write phase.
        let opened = Barrier::new(&rt, clients + 1);
        let go = Barrier::new(&rt, clients + 1);
        let handles: Vec<_> = (0..NODES)
            .flat_map(|n| (0..procs).map(move |p| (n, p)))
            .map(|(n, p)| {
                let fs = mounts[n].clone();
                let opened = opened.clone();
                let go = go.clone();
                spawn(&rt, &format!("cl{n}-{p}"), move || {
                    let mut f = fs
                        .open(&format!("/scale/n{n}p{p}"), OpenFlags::CreateRw)
                        .unwrap();
                    opened.wait();
                    go.wait();
                    f.write_at(0, &Payload::sized(bytes)).unwrap();
                    f.close().unwrap();
                })
            })
            .collect();

        opened.wait();
        let live = tb.server.live_conn_count();
        let conns = tb.server.stats().connections;
        let t0 = rt.now();
        go.wait();
        for h in handles {
            h.join_unwrap();
        }
        (conns, live, (rt.now() - t0).as_secs_f64())
    })
    .0
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
            let (connections, live, secs) = run_threads(procs, bytes, pool);
            let mbps = aggregate_mbps(clients, bytes, secs);
            eprintln!(
                "fig_scale: {clients} clients / {policy}: {connections} conns, \
                 {live} live, {mbps:.1} Mb/s"
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
