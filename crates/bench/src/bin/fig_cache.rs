//! Storage tier v2: the server block cache and client read leases over a
//! concurrency-aware disk model.
//!
//! The testbed is deliberately disk-bound: TG-NCSA geometry with WAN-tuned
//! TCP windows (so the network is not the constraint) over a 1 MB/s +
//! 2 ms-seek vault with dslab-style concurrency degradation. Three pass
//! arms read a working set twice — cold, then warm:
//!
//! * **hot set / server cache** — the set fits the cache; the warm pass
//!   serves every block from memory and skips the disk entirely;
//! * **scan / over capacity** — the set is larger than the cache, so a
//!   sequential re-scan evicts ahead of itself (LRU's classic failure);
//! * **client leases** — lease-granted reads are cached *client-side*; the
//!   warm pass makes zero wire round-trips and completes in zero virtual
//!   time.
//!
//! A second table runs a Zipf(0.99)-skewed client swarm against the same
//! slow vault with the cache off and on.
//!
//! Entirely in virtual time and seeded — CI diffs `--quick` against
//! `results/fig_cache_quick.txt`.

use std::sync::Arc;

use semplar::{File, LeaseStats, OpenFlags, Payload, SrbFs, SrbFsConfig};
use semplar_bench::{flags, Table};
use semplar_clusters::{tg_ncsa, ClusterSpec, Testbed, PASSWORD, USER};
use semplar_netsim::Bw;
use semplar_runtime::{simulate, Dur, Runtime};
use semplar_srb::vault::DiskSpec;
use semplar_srb::{CacheSpec, CacheStats};
use semplar_workloads::{run_swarm, AccessSkew, SwarmParams};

/// The disk-bound testbed: TG-NCSA geometry with WAN-tuned TCP windows, so
/// a single stream is limited by the 220 Mb/s WAN share rather than the
/// window — which leaves the slowed vault (1 MB/s + 2 ms seek, dslab-style
/// concurrency degradation 0.3 so concurrent misses also contend) as the
/// cold bottleneck. `cache_bytes > 0` installs a server block cache of
/// that capacity and `block`-byte blocks.
fn testbed(rt: &Arc<dyn Runtime>, nodes: usize, block: u64, cache_bytes: u64) -> Arc<Testbed> {
    let tb = Testbed::with_server_disk(
        rt.clone(),
        ClusterSpec {
            send_window: 4 << 20,
            recv_window: 4 << 20,
            ..tg_ncsa()
        },
        nodes,
        DiskSpec {
            bandwidth: Bw::mbyte_per_s(1.0),
            seek: Dur::from_millis(2),
            degradation: 0.3,
        },
    );
    if cache_bytes > 0 {
        tb.server.set_block_cache(CacheSpec {
            block,
            capacity: cache_bytes,
        });
    }
    tb
}

struct PassArm {
    name: &'static str,
    cold_secs: f64,
    warm_secs: f64,
    /// Bytes the application read per pass.
    pass_bytes: u64,
    /// Server block-cache counters after both passes.
    cache: CacheStats,
    /// Client lease-cache counters after both passes (zeros unless the
    /// arm enables leases).
    lease: LeaseStats,
}

impl PassArm {
    /// Warm-over-cold speedup; `None` when the warm pass took zero
    /// virtual time (pure client-cache hits — no wire, no disk).
    fn speedup(&self) -> Option<f64> {
        (self.warm_secs > 0.0).then(|| self.cold_secs / self.warm_secs)
    }
}

/// One pass arm: write `objects` objects of `obj_bytes` each, then read
/// them all twice (cold, warm). `leases` additionally turns on client
/// read leases of the cache's capacity.
fn pass_arm(
    name: &'static str,
    objects: usize,
    obj_bytes: u64,
    cache_bytes: u64,
    leases: bool,
) -> PassArm {
    simulate(move |rt| {
        let tb = testbed(&rt, 1, 256 << 10, cache_bytes);
        let fs = SrbFs::new(
            tb.server.clone(),
            SrbFsConfig {
                lease_capacity: leases.then_some(cache_bytes.max(1)),
                ..SrbFsConfig::new(tb.route(0), USER, PASSWORD)
            },
        );
        let admin = fs.admin_conn().unwrap();
        admin.mk_coll("/cache").unwrap();
        admin.disconnect().unwrap();
        for i in 0..objects {
            let f = File::open(&rt, &fs, &format!("/cache/o{i}"), OpenFlags::CreateRw).unwrap();
            f.write_at(0, &Payload::sized(obj_bytes)).unwrap();
            f.close().unwrap();
        }
        // Open once, read twice: the passes time the *reads*, not the
        // per-object open/close round-trips.
        let files: Vec<File> = (0..objects)
            .map(|i| File::open(&rt, &fs, &format!("/cache/o{i}"), OpenFlags::Read).unwrap())
            .collect();
        let pass = || {
            let t0 = rt.now();
            for f in &files {
                let got = f.read_at(0, obj_bytes).unwrap();
                assert_eq!(got.len(), obj_bytes);
            }
            (rt.now() - t0).as_secs_f64()
        };
        let cold_secs = pass();
        let warm_secs = pass();
        for f in files {
            f.close().unwrap();
        }
        PassArm {
            name,
            cold_secs,
            warm_secs,
            pass_bytes: objects as u64 * obj_bytes,
            cache: tb.server.cache_stats(),
            lease: fs.lease_stats(),
        }
    })
}

/// The swarm arm: `clients` sessions, 1 write + 4 reads of 64 KiB each,
/// Zipf(0.99) over `hot_objects` shared objects. Returns (first arrival to
/// last completion in virtual seconds, sessions completed, server
/// block-cache counters).
fn swarm_arm(clients: usize, hot_objects: usize, cache_bytes: u64) -> (f64, usize, CacheStats) {
    simulate(move |rt| {
        let tb = testbed(&rt, 2, 64 << 10, cache_bytes);
        let params = SwarmParams {
            clients,
            writes: 1,
            reads: 4,
            bytes_per_op: 64 << 10,
            skew: Some(AccessSkew {
                theta: 0.99,
                hot_objects,
            }),
            coll: "/zipf".into(),
            ..SwarmParams::quick()
        };
        let report = run_swarm(&tb, &params);
        (report.secs, report.completed(), tb.server.cache_stats())
    })
}

fn main() {
    let [quick] = flags(["--quick"]);
    let obj: u64 = if quick { 512 << 10 } else { 2 << 20 };
    let hot = if quick { 4 } else { 8 };
    let scan = if quick { 24 } else { 48 };
    let cache_bytes: u64 = if quick { 4 << 20 } else { 16 << 20 };
    let clients = if quick { 48 } else { 192 };

    let arms = [
        pass_arm("no cache (baseline)", hot, obj, 0, false),
        pass_arm("server cache, hot set", hot, obj, cache_bytes, false),
        pass_arm(
            "server cache, scan > capacity (LRU)",
            scan,
            obj,
            cache_bytes,
            false,
        ),
        pass_arm("client leases, hot set", hot, obj, cache_bytes, true),
    ];

    let mut t = Table::new(
        &format!(
            "Block cache & read leases on a disk-bound vault (1 MB/s + 2 ms seek): \
             two passes over {} x {} KiB objects, {} MiB cache",
            hot,
            obj >> 10,
            cache_bytes >> 20
        ),
        &[
            "arm",
            "cold (s)",
            "warm (s)",
            "cold Mb/s",
            "speedup",
            "hits",
            "misses",
            "evict",
            "saved KiB",
        ],
    );
    for a in &arms {
        // Client-lease hits never reach the server; fold both tiers into
        // one hit/saved column so every arm reads the same way.
        let hits = a.cache.hits + a.lease.hits;
        let misses = a.cache.misses + a.lease.misses;
        let saved = a.cache.bytes_saved + a.lease.bytes_saved;
        t.row(vec![
            a.name.into(),
            format!("{:.3}", a.cold_secs),
            format!("{:.3}", a.warm_secs),
            format!("{:.1}", a.pass_bytes as f64 * 8.0 / a.cold_secs / 1e6),
            match a.speedup() {
                Some(s) => format!("{s:.1}x"),
                None => "inf (zero-wire)".into(),
            },
            hits.to_string(),
            misses.to_string(),
            a.cache.evictions.to_string(),
            (saved >> 10).to_string(),
        ]);
    }
    t.print();

    let mut t = Table::new(
        &format!(
            "Zipf(0.99) swarm on the same vault: {clients} clients, 1 write + 4 reads \
             of 64 KiB over {hot} hot objects"
        ),
        &["arm", "secs", "completed", "hits", "misses", "hit rate"],
    );
    for (name, cache_bytes) in [("swarm, no cache", 0), ("swarm, server cache", cache_bytes)] {
        let (secs, completed, cache) = swarm_arm(clients, hot, cache_bytes);
        let total = cache.hits + cache.misses;
        t.row(vec![
            name.into(),
            format!("{secs:.3}"),
            completed.to_string(),
            cache.hits.to_string(),
            cache.misses.to_string(),
            if total == 0 {
                "-".into()
            } else {
                format!("{:.0}%", cache.hits as f64 * 100.0 / total as f64)
            },
        ]);
    }
    t.print();

    let hot_speedup = arms[1].speedup().unwrap_or(f64::INFINITY);
    println!(
        "\nwarm hot-set speedup {hot_speedup:.1}x (acceptance: >= 5x); \
         client-lease arm: {} local hits, {} wire reads across both passes",
        arms[3].lease.hits, arms[3].lease.misses
    );
}
