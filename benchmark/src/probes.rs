//! Isolation probes: single-purpose loops that call one layer's public
//! functions directly, so a layer's own cost can be read without the rest
//! of the stack. Each probe reports the median of [`BATCHES`] batches; the
//! cheap ones run ≥ 10⁴ iterations in total, the ones that pay for hundreds
//! of parked OS threads per step run fewer (their step is milliseconds).
//!
//! Probes do not depend on the workload or the seed; they run once per
//! traced run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use semplar_clusters::{das2, Testbed, PASSWORD, USER};
use semplar_netsim::net::replay::Harness;
use semplar_netsim::net::{BusSpec, DeviceClass};
use semplar_netsim::{Bw, LinkId, Network};
use semplar_runtime::sync::Channel;
use semplar_runtime::{
    simulate, spawn, Dur, RealRuntime, Runtime, Task, TaskCtx, TaskExecutor, TaskStep,
};
use semplar_srb::{
    adler32, BlockCache, CacheSpec, ConnPool, DiskSpec, Mcat, OpenFlags, Payload, PoolPolicy,
    RetryPolicy, SrbConn, TenantId, TenantScheduler, Vault,
};
use semplar_workloads::estgen;

use crate::measure::median;
use crate::workloads::LayerMap;

const BATCHES: usize = 5;
const MIB: f64 = (1 << 20) as f64;

/// Median over [`BATCHES`] batches of the host nanoseconds one call of
/// `step` takes, `iters` calls per batch.
fn ns_per_iter(iters: usize, mut step: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                step();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// MiB/s when every iteration moves `bytes`.
fn mib_per_s(bytes: usize, ns_per_iter: f64) -> f64 {
    bytes as f64 / MIB / (ns_per_iter / 1e9)
}

/// Two actors hand a baton back and forth with a 1 µs sleep per round —
/// one clock advance each — while `parked` more actors sit blocked on
/// events. Returns host ns per advance: the engine's wake-all cost curve.
fn pingpong_ns(parked: usize, rounds: usize) -> f64 {
    simulate(move |rt| {
        let herd: Vec<_> = (0..parked)
            .map(|i| {
                let ev = rt.event();
                let ev2 = ev.clone();
                (ev, spawn(&rt, &format!("parked-{i}"), move || ev2.wait()))
            })
            .collect();
        let (ping, pong) = (rt.event(), rt.event());
        let peer = {
            let (rt2, ping, pong) = (rt.clone(), ping.clone(), pong.clone());
            spawn(&rt, "peer", move || {
                for _ in 0..BATCHES * rounds {
                    ping.wait();
                    rt2.sleep(Dur::from_micros(1));
                    pong.signal();
                }
            })
        };
        let ns = ns_per_iter(rounds, || {
            ping.signal();
            pong.wait();
        });
        peer.join_unwrap();
        for (ev, h) in herd {
            ev.signal();
            h.join_unwrap();
        }
        ns
    })
}

/// Spawn and join an empty actor, host µs.
fn spawn_join_us() -> f64 {
    simulate(|rt| ns_per_iter(400, || spawn(&rt, "probe", || {}).join_unwrap()) / 1e3)
}

/// A task that sleeps `step` of virtual time `left` more times.
struct Stepper {
    left: usize,
    step: Dur,
}

impl Task for Stepper {
    fn poll(&mut self, _cx: &mut TaskCtx<'_>) -> TaskStep {
        if self.left == 0 {
            return TaskStep::Done;
        }
        self.left -= 1;
        TaskStep::Sleep(self.step)
    }
}

/// One executor step (a 1 µs task sleep) with 10⁴ other tasks parked in
/// the executor's timer heap, host ns.
fn task_step_ns() -> f64 {
    const PARKED: usize = 10_000;
    const STEPS: usize = 2_000;
    simulate(|rt| {
        let ex = TaskExecutor::new(&rt, "probe");
        let parked: Vec<_> = (0..PARKED)
            .map(|_| {
                ex.spawn(Box::new(Stepper {
                    left: 1,
                    step: Dur::from_secs(1),
                }))
            })
            .collect();
        // Let every parked task take its first poll and settle in the heap.
        rt.sleep(Dur::from_millis(1));
        let ns = ns_per_iter(1, || {
            ex.spawn(Box::new(Stepper {
                left: STEPS,
                step: Dur::from_micros(1),
            }))
            .join();
        }) / STEPS as f64;
        for h in parked {
            h.join();
        }
        ns
    })
}

/// Uncontended channel send + receive, host ns.
fn channel_ns() -> f64 {
    simulate(|rt| {
        let ch: Channel<u64> = Channel::new(&rt);
        ns_per_iter(20_000, || {
            ch.send(black_box(7)).expect("open channel");
            black_box(ch.recv().expect("open channel"));
        })
    })
}

/// One flow arrival + departure under `flows` long-lived background flows
/// (8 per link, distinct caps around the fair share), host ns per event.
fn netsim_event_ns(flows: usize) -> f64 {
    // The engine `Network::new` would pick, without naming it.
    let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
    let mut h = Harness::new(Network::new(rt).alloc_mode());
    let links: Vec<LinkId> = (0..flows.div_ceil(8))
        .map(|i| h.add_link(&format!("l{i}"), Bw::mbps(100.0)))
        .collect();
    let bus = h.add_bus(BusSpec::default());
    for f in 0..flows {
        let cap = 6.0e6 + (f % 8) as f64 * 2.0e6 + f as f64 * 1e3;
        h.start(&[links[f / 8]], 1e15, Some(cap), &[(bus, DeviceClass::Wan)]);
    }
    let mut churn = h.start(&[links[0]], 1e15, None, &[]);
    ns_per_iter(2_000, || {
        h.tick(Dur::from_micros(5));
        h.finish(churn);
        h.tick(Dur::from_micros(5));
        churn = h.start(&[links[0]], 1e15, None, &[]);
    }) / 2.0
}

/// One 1-byte write round trip on `conn`, host µs.
fn exchange_us(conn: &SrbConn) -> f64 {
    let fd = conn
        .open("/probe", OpenFlags::CreateRw)
        .expect("open probe object");
    let us = ns_per_iter(400, || {
        conn.write(fd, 0, Payload::bytes(vec![7]))
            .expect("probe write");
    }) / 1e3;
    conn.close_fd(fd).expect("close probe object");
    conn.disconnect().expect("disconnect probe session");
    us
}

/// `(exclusive, multiplexed)`: the same round trip over a per-open stream
/// and over a `Shared` pool's stream.
fn exchange_probes() -> (f64, f64) {
    simulate(|rt| {
        let tb = Testbed::new(rt, das2(), 1);
        let route = tb.route(0);
        let exclusive = exchange_us(
            &tb.server
                .connect(route.clone(), USER, PASSWORD)
                .expect("connect"),
        );
        let pool = ConnPool::new(
            tb.server.clone(),
            USER,
            PASSWORD,
            PoolPolicy::Shared {
                max_streams: 1,
                max_inflight: 8,
            },
            RetryPolicy::none(),
        );
        pool.warm(&route).expect("warm pool");
        let mux = exchange_us(&pool.session(&route, Some(0)).expect("pooled session"));
        (exclusive, mux)
    })
}

/// `(write, read, cache hit)`: real 64 KiB vault ops in MiB/s of host time,
/// and `BlockCache::serve_read` on a resident block in host ns.
fn vault_probes() -> (f64, f64, f64) {
    const OP: usize = 64 << 10;
    const SLOTS: u64 = 64;
    simulate(|rt| {
        let vault = Vault::new(rt, DiskSpec::default());
        vault.create(1);
        let block = Payload::bytes(vec![0xA5; OP]);
        let mut i = 0u64;
        let write = ns_per_iter(2_000, || {
            vault.write(1, (i % SLOTS) * OP as u64, &block);
            i += 1;
        });
        let read = ns_per_iter(2_000, || {
            black_box(vault.read(1, (i % SLOTS) * OP as u64, OP as u64));
            i += 1;
        });
        let cache = BlockCache::new(CacheSpec::default());
        cache.serve_read(&vault, 1, 0, OP as u64);
        let hit = ns_per_iter(2_000, || {
            black_box(cache.serve_read(&vault, 1, 0, OP as u64));
        });
        (mib_per_s(OP, write), mib_per_s(OP, read), hit)
    })
}

/// Uncontended `TenantScheduler::admit` + `done`, host ns.
fn qos_admit_ns() -> f64 {
    simulate(|rt| {
        let sched = TenantScheduler::new(&rt, 1 << 20, 4);
        ns_per_iter(2_000, || {
            sched.admit(TenantId(1), 4096);
            sched.done(TenantId(1), 4096);
        })
    })
}

/// `Mcat::lookup` over 1,000 objects, host ns.
fn mcat_lookup_ns() -> f64 {
    let mcat = Mcat::new();
    mcat.mk_coll("/p").expect("probe collection");
    let paths: Vec<String> = (0..1_000).map(|i| format!("/p/o{i}")).collect();
    for p in &paths {
        mcat.create_obj(p, "probe").expect("probe object");
    }
    let mut i = 0;
    ns_per_iter(20_000, || {
        black_box(mcat.lookup(&paths[i % paths.len()]).expect("probe lookup"));
        i += 1;
    })
}

/// Run every probe.
pub fn run() -> LayerMap {
    let mut m = LayerMap::new();
    m.insert("runtime.probe.pingpong_ns", pingpong_ns(0, 2_000));
    m.insert("runtime.probe.herd64_ns", pingpong_ns(64, 200));
    m.insert("runtime.probe.herd384_ns", pingpong_ns(384, 40));
    m.insert("runtime.probe.spawn_join_us", spawn_join_us());
    m.insert("runtime.probe.task_step_ns", task_step_ns());
    m.insert("runtime.probe.channel_ns", channel_ns());
    m.insert("netsim.probe.event_ns_16", netsim_event_ns(16));
    m.insert("netsim.probe.event_ns_256", netsim_event_ns(256));
    let (exclusive, mux) = exchange_probes();
    m.insert("srb.probe.exchange_host_us", exclusive);
    m.insert("srb.probe.exchange_mux_host_us", mux);
    let (write, read, hit) = vault_probes();
    m.insert("srb.probe.vault_write_mb_per_s", write);
    m.insert("srb.probe.vault_read_mb_per_s", read);
    m.insert("srb.probe.cache_hit_ns", hit);
    let buf = vec![0x5Au8; 64 << 10];
    m.insert(
        "srb.probe.adler32_mb_per_s",
        mib_per_s(
            buf.len(),
            ns_per_iter(2_000, || {
                black_box(adler32(black_box(&buf)));
            }),
        ),
    );
    let payload = Payload::bytes(vec![0x5A; 1 << 20]);
    let mut off = 0u64;
    m.insert(
        "srb.probe.payload_slice_mb_per_s",
        mib_per_s(
            64 << 10,
            ns_per_iter(2_000, || {
                black_box(payload.slice(off % (15 << 16), 64 << 10));
                off += 64 << 10;
            }),
        ),
    );
    m.insert("srb.probe.qos_admit_ns", qos_admit_ns());
    m.insert("srb.probe.mcat_lookup_ns", mcat_lookup_ns());
    let mut seed = 0;
    m.insert(
        "workloads.estgen_mb_per_s",
        mib_per_s(
            1 << 20,
            ns_per_iter(2, || {
                seed += 1;
                black_box(estgen::generate(
                    1 << 20,
                    seed,
                    &estgen::EstGenConfig::default(),
                ));
            }),
        ),
    );
    m
}
