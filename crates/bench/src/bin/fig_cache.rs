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

use semplar_bench::{fig_cache_arm, fig_cache_swarm, Table};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let obj: u64 = if quick { 512 << 10 } else { 2 << 20 };
    let hot = if quick { 4 } else { 8 };
    let scan = if quick { 24 } else { 48 };
    let cache_bytes: u64 = if quick { 4 << 20 } else { 16 << 20 };
    let clients = if quick { 48 } else { 192 };

    let arms = [
        fig_cache_arm("no cache (baseline)", hot, obj, 0, false),
        fig_cache_arm("server cache, hot set", hot, obj, cache_bytes, false),
        fig_cache_arm(
            "server cache, scan > capacity (LRU)",
            scan,
            obj,
            cache_bytes,
            false,
        ),
        fig_cache_arm("client leases, hot set", hot, obj, cache_bytes, true),
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
            a.name.clone(),
            format!("{:.3}", a.cold_secs),
            format!("{:.3}", a.warm_secs),
            format!("{:.1}", a.cold_mbps()),
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

    let swarm = [
        fig_cache_swarm("swarm, no cache", clients, hot, 0),
        fig_cache_swarm("swarm, server cache", clients, hot, cache_bytes),
    ];
    let mut t = Table::new(
        &format!(
            "Zipf(0.99) swarm on the same vault: {clients} clients, 1 write + 4 reads \
             of 64 KiB over {hot} hot objects"
        ),
        &["arm", "secs", "completed", "hits", "misses", "hit rate"],
    );
    for s in &swarm {
        let total = s.cache.hits + s.cache.misses;
        t.row(vec![
            s.name.clone(),
            format!("{:.3}", s.secs),
            s.completed.to_string(),
            s.cache.hits.to_string(),
            s.cache.misses.to_string(),
            if total == 0 {
                "-".into()
            } else {
                format!("{:.0}%", s.cache.hits as f64 * 100.0 / total as f64)
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
