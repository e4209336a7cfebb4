//! The benchmark's contract in one place: every metric it reports, and the
//! `BENCHMARK.json` manifest generated from the same tables (a unit test
//! keeps the committed file equal to [`manifest`]).

use crate::workloads::{Workload, ALL};

/// Seconds one run measures by default (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 20;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of a single layer, reported by the traced run only.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Host-clock metrics are in `s`, `ops/s`, `threads`; virtual-clock metrics
/// carry a `sim_` unit so the two clocks are never confused.
///
/// The bounds are what the 2-core reference VM can resolve: medians of
/// host times move by 1–5 % from run to run on an idle box and up to 15 %
/// on a busy one, and `cache_mixed`'s virtual-time results by 4–7 % from
/// seed to seed (its hit ratio depends on the Zipf draws). On *one* seed every `sim_*` value and `peak_threads`
/// repeat exactly, and a host-only change must leave them identical —
/// `selfcheck` holds them to that, whatever the bound says.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("cpu_s", "s", "lower", 0.25),
    e2e("ops_per_wall_s", "ops/s", "higher", 0.25),
    e2e("peak_threads", "threads", "lower", 0.01),
    e2e("sim_makespan_s", "sim_s", "lower", 0.25),
    e2e("sim_write_mbps", "sim_Mb/s", "higher", 0.25),
    e2e("sim_p50_ms", "sim_ms", "lower", 0.25),
    e2e("sim_tail_ms", "sim_ms", "lower", 0.25),
];

pub const PER_LAYER: &[PerLayer] = &[
    // host: diagnostics of the run itself.
    layer("host.cpus_allowed", "count", "lower"),
    layer("host.passes", "count", "higher"),
    layer("host.peak_rss_mb", "MiB", "lower"),
    layer("host.user_s", "s", "lower"),
    layer("host.sys_s", "s", "lower"),
    layer("host.sys_share", "ratio", "lower"),
    layer("host.wall_spread", "ratio", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.spans", "count", "lower"),
    // Virtual-time results that are not end-to-end on every workload.
    layer("sim.read_mbps", "sim_Mb/s", "higher"),
    layer("sim.latency_samples", "count", "higher"),
    layer("sim.tail_percentile", "%", "higher"),
    layer("sim.repeat_exact", "ratio", "higher"),
    // runtime
    layer("runtime.clock_advances", "count", "lower"),
    layer("runtime.timers_armed", "count", "lower"),
    layer("runtime.actors_spawned", "count", "lower"),
    layer("runtime.peak_live_actors", "count", "lower"),
    layer("runtime.tasks_spawned", "count", "lower"),
    layer("runtime.peak_live_tasks", "count", "lower"),
    layer("runtime.host_us_per_advance", "us", "lower"),
    layer("runtime.probe.pingpong_ns", "ns", "lower"),
    layer("runtime.probe.herd64_ns", "ns", "lower"),
    layer("runtime.probe.herd384_ns", "ns", "lower"),
    layer("runtime.probe.spawn_join_us", "us", "lower"),
    layer("runtime.probe.task_step_ns", "ns", "lower"),
    layer("runtime.probe.channel_ns", "ns", "lower"),
    // netsim
    layer("netsim.recomputes", "count", "lower"),
    layer("netsim.flows_touched", "count", "lower"),
    layer("netsim.flows_per_recompute", "ratio", "lower"),
    layer("netsim.signals", "count", "lower"),
    layer("netsim.settles_skipped", "count", "higher"),
    layer("netsim.alloc_ms", "ms", "lower"),
    layer("netsim.alloc_share", "ratio", "lower"),
    layer("netsim.probe.event_ns_16", "ns", "lower"),
    layer("netsim.probe.event_ns_256", "ns", "lower"),
    // mpi
    layer("mpi.msgs", "count", "lower"),
    layer("mpi.halo_v_ms", "sim_ms", "lower"),
    layer("mpi.barrier_v_ms", "sim_ms", "lower"),
    // core
    layer("core.engine.submitted", "count", "lower"),
    layer("core.engine.completed", "count", "higher"),
    layer("core.engine.io_threads", "count", "lower"),
    layer("core.engine.queue_wait_v_ms", "sim_ms", "lower"),
    layer("core.engine.wait_blocked_share", "ratio", "lower"),
    layer("core.engine.submit_host_ns", "ns", "lower"),
    layer("core.stripe.blocks", "count", "lower"),
    layer("core.stripe.bytes_imbalance", "ratio", "lower"),
    layer("core.stripe.migrated", "count", "lower"),
    layer("core.adio.calls", "count", "lower"),
    layer("core.adio.open_v_ms", "sim_ms", "lower"),
    layer("core.adio.write_v_ms_p50", "sim_ms", "lower"),
    layer("core.adio.write_v_ms_p99", "sim_ms", "lower"),
    layer("core.adio.read_v_ms_p50", "sim_ms", "lower"),
    layer("core.adio.read_v_ms_p99", "sim_ms", "lower"),
    layer("core.pipeline.blocks", "count", "lower"),
    layer("core.pipeline.stall_v_ms", "sim_ms", "lower"),
    layer("core.srbfs.recovered_ops", "count", "lower"),
    // compress
    layer("compress.calls", "count", "lower"),
    layer("compress.in_mb", "MiB", "lower"),
    layer("compress.ratio", "ratio", "lower"),
    layer("compress.compress_mb_per_s", "MiB/s", "higher"),
    layer("compress.decompress_mb_per_s", "MiB/s", "higher"),
    layer("compress.host_share", "ratio", "lower"),
    // srb
    layer("srb.server.connections", "count", "lower"),
    layer("srb.server.requests", "count", "lower"),
    layer("srb.server.bytes_written", "bytes", "lower"),
    layer("srb.server.bytes_read", "bytes", "lower"),
    layer("srb.server.requests_per_op", "ratio", "lower"),
    layer("srb.transport.exchanges", "count", "lower"),
    layer("srb.transport.latency_v_ms", "sim_ms", "lower"),
    layer("srb.cache.hits", "count", "higher"),
    layer("srb.cache.misses", "count", "lower"),
    layer("srb.cache.hit_ratio", "ratio", "higher"),
    layer("srb.cache.evictions", "count", "lower"),
    layer("srb.cache.bytes_saved_mb", "MiB", "higher"),
    layer("srb.request_digest", "count", "lower"),
    layer("srb.probe.exchange_host_us", "us", "lower"),
    layer("srb.probe.exchange_mux_host_us", "us", "lower"),
    layer("srb.probe.vault_write_mb_per_s", "MiB/s", "higher"),
    layer("srb.probe.vault_read_mb_per_s", "MiB/s", "higher"),
    layer("srb.probe.adler32_mb_per_s", "MiB/s", "higher"),
    layer("srb.probe.payload_slice_mb_per_s", "MiB/s", "higher"),
    layer("srb.probe.cache_hit_ns", "ns", "lower"),
    layer("srb.probe.qos_admit_ns", "ns", "lower"),
    layer("srb.probe.mcat_lookup_ns", "ns", "lower"),
    // clusters, workloads
    layer("clusters.testbed_new_ms", "ms", "lower"),
    layer("workloads.estgen_mb_per_s", "MiB/s", "higher"),
    layer("workloads.sessions_ok", "count", "higher"),
    layer("workloads.arrival_late_v_ms", "sim_ms", "lower"),
];

/// Why each workload exists (one line, ≤ 200 characters, with its frozen
/// size and loop type).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::SwarmWrite => {
            "100 task sessions x 1 sized 64 KiB write, 16 nodes x 8 streams, open loop: ~360 thread \
             actors, so the runtime's wake-all herd does the work; core, compress and mpi are bypassed"
        }
        Workload::OverlapCkpt => {
            "4 ranks x 400 cycles of halo + compute overlapped with 2-stream slab iwrite, then iread back, \
             closed loop: core engine/stripe, mpi and netsim churn with few actors; herd and codec bypassed"
        }
        Workload::CompressPipeline => {
            "2 ranks x 10 x 16 MiB EST through CompressedWriter(Lzf), read back, Adler-32 checked, closed \
             loop: user-CPU-bound codec and real-byte copies; runtime herd bypassed"
        }
        Workload::CacheMixed => {
            "1200 sessions of 1 write + 4 reads x 64 KiB real bytes, Zipf(0.99) over 64 objects, 2 MiB block \
             cache on a 1 MB/s disk, open loop: reads beside writes, hot set twice the cache"
        }
    }
}

/// The `BENCHMARK.json` text.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \
          \"benchmark/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows = |rows: Vec<String>| rows.join(",\n");
    s += "  \"workloads\": [\n";
    s += &rows(
        ALL.iter()
            .map(|&w| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name(),
                    why(w)
                )
            })
            .collect(),
    );
    s += "\n  ],\n  \"end_to_end\": [\n";
    s += &rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    );
    s += "\n  ],\n  \"per_layer\": [\n";
    s += &rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    );
    s += "\n  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `-- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_obeys_the_contract_limits() {
        let names: Vec<&str> = ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(
                well_formed(n, 64, "_.-") && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(well_formed(u, 16, "_/%.-"), "{u}");
        }
        for b in END_TO_END
            .iter()
            .map(|m| m.better)
            .chain(PER_LAYER.iter().map(|m| m.better))
        {
            assert!(b == "lower" || b == "higher");
        }
        assert!((2..=8).contains(&ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == "lower");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for &w in &ALL {
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n') && !why(w).contains('"'),
                "{}",
                w.name()
            );
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() <= 64 << 10);
    }
}
