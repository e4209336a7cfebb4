//! # semplar-bench
//!
//! The harness that regenerates every figure of the paper's evaluation
//! (§7). Each `fig*` function runs the corresponding experiment in virtual
//! time and returns printable rows; the binaries under `src/bin/` and the
//! `figures` bench target print them as tables alongside the paper's
//! reported numbers.
//!
//! | Figure | Experiment | Function |
//! |--------|------------|----------|
//! | Fig. 6 | MPI-BLAST execution time, sync vs async vs max-speedup | [`fig6_blast`] |
//! | Fig. 7 | 2D Laplace execution time, + two TCP streams | [`fig7_laplace`] |
//! | §7.1   | overlap + double-connection bus contention | [`contention_experiment`] |
//! | Fig. 8 | ROMIO perf aggregate bandwidth, one vs two streams | [`fig8_perf`] |
//! | Fig. 9 | on-the-fly compression aggregate write bandwidth | [`fig9_compress`] |

#![warn(missing_docs)]

use std::sync::{Arc, Mutex};

use semplar::{
    AdioFile, AdioFs, FedFs, FedShard, File, OpenFlags, Payload, ReconcileLedger, RecoveryStats,
    SrbFs, SrbFsConfig, StripeStats, StripeUnit, StripedFile,
};
use semplar_clusters::{ClusterSpec, Testbed};
use semplar_faults::{FaultPlan, FaultStats};
use semplar_netsim::{Bw, NetStats, Network};
use semplar_runtime::sync::Barrier;
use semplar_runtime::{spawn, Dur, SimRuntime, SimStats};
use semplar_srb::vault::DiskSpec;
use semplar_srb::{
    CacheSpec, CacheStats, ConnRoute, MembershipCfg, PoolPolicy, PromotionLedger, ReplStats,
    Replicator, RetryPolicy, SrbServer, SrbServerCfg, TenantId, TenantScheduler,
};
use semplar_workloads::{
    estgen, run_blast, run_collective, run_compress, run_laplace, run_perf, run_swarm, BlastParams,
    CollectiveMode, CollectiveParams, CollectiveReport, CompressMode, CompressParams, LaplaceMode,
    LaplaceParams, OpShape, PerfParams, SwarmParams, TenantMix,
};

pub mod table;
pub use table::Table;

/// Run `f` inside a fresh virtual-time simulation with a testbed of
/// `nodes` nodes of `spec`.
pub fn with_testbed<T, F>(spec: ClusterSpec, nodes: usize, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(Arc<Testbed>) -> T + Send + 'static,
{
    let sim = SimRuntime::new();
    sim.run_root(move |rt| {
        let tb = Testbed::new(rt, spec, nodes);
        f(tb)
    })
}

/// [`with_testbed`], also returning the simulation's [`SimStats`] so
/// callers can report scheduler counters (clock advances, choice points)
/// alongside their results.
pub fn with_testbed_stats<T, F>(spec: ClusterSpec, nodes: usize, f: F) -> (T, SimStats)
where
    T: Send + 'static,
    F: FnOnce(Arc<Testbed>) -> T + Send + 'static,
{
    let sim = SimRuntime::new();
    let out = sim.run_root(move |rt| {
        let tb = Testbed::new(rt, spec, nodes);
        f(tb)
    });
    let stats = sim.stats();
    (out, stats)
}

/// One row of the Fig. 6 table.
#[derive(Clone, Copy, Debug)]
pub struct BlastRow {
    /// Processes (master + workers).
    pub procs: usize,
    /// Synchronous execution time, s.
    pub sync_secs: f64,
    /// Asynchronous execution time, s.
    pub async_secs: f64,
    /// Expected time with perfect overlap: max(compute, I/O) phases.
    pub max_speedup_secs: f64,
}

impl BlastRow {
    /// Fraction of the maximum possible speedup achieved (paper: 92–97 %).
    pub fn overlap_fraction(&self) -> f64 {
        let max_speedup = self.sync_secs / self.max_speedup_secs;
        let achieved = self.sync_secs / self.async_secs;
        achieved / max_speedup
    }

    /// Async improvement over sync (paper: 20–26 %).
    pub fn gain(&self) -> f64 {
        1.0 - self.async_secs / self.sync_secs
    }
}

/// Fig. 6: MPI-BLAST execution time vs processes on one cluster.
pub fn fig6_blast(spec: ClusterSpec, procs: &[usize], queries: usize) -> Vec<BlastRow> {
    let max_procs = procs.iter().copied().max().unwrap_or(2);
    let procs = procs.to_vec();
    with_testbed(spec.clone(), max_procs, move |tb| {
        procs
            .iter()
            .map(|&n| {
                let base = BlastParams::calibrated(&tb.spec, queries, 4.0);
                let sync = run_blast(&tb, n, base.with_async(false));
                let asy = run_blast(&tb, n, base.with_async(true));
                // Paper §7.1: expected time under complete overlap is the
                // larger of the measured compute and I/O phases (plus the
                // part of the run that cannot overlap, which is negligible
                // here as in the paper).
                let expected = sync.compute_secs.max(sync.io_secs);
                BlastRow {
                    procs: n,
                    sync_secs: sync.exec_secs,
                    async_secs: asy.exec_secs,
                    max_speedup_secs: expected,
                }
            })
            .collect()
    })
}

/// One row of the Fig. 7 table.
#[derive(Clone, Copy, Debug)]
pub struct LaplaceRow {
    /// Processes.
    pub procs: usize,
    /// Synchronous execution time, s.
    pub sync_secs: f64,
    /// Asynchronous (overlap) execution time, s.
    pub async_secs: f64,
    /// Expected time with perfect overlap.
    pub max_speedup_secs: f64,
    /// Two-TCP-streams execution time, s.
    pub two_stream_secs: f64,
}

impl LaplaceRow {
    /// Async improvement over sync (paper: 6–9 %).
    pub fn gain(&self) -> f64 {
        1.0 - self.async_secs / self.sync_secs
    }

    /// Two-stream improvement over sync (paper: −38 % DAS-2, −23 % TG).
    pub fn two_stream_gain(&self) -> f64 {
        1.0 - self.two_stream_secs / self.sync_secs
    }

    /// Fraction of the maximum possible overlap speedup achieved.
    pub fn overlap_fraction(&self) -> f64 {
        (self.sync_secs / self.async_secs) / (self.sync_secs / self.max_speedup_secs)
    }
}

/// Default Laplace parameters for the figure runs.
pub fn laplace_defaults() -> LaplaceParams {
    LaplaceParams::default()
}

/// Fig. 7: 2D Laplace solver execution time vs processes on one cluster.
pub fn fig7_laplace(spec: ClusterSpec, procs: &[usize], base: LaplaceParams) -> Vec<LaplaceRow> {
    let max_procs = procs.iter().copied().max().unwrap_or(1);
    let procs = procs.to_vec();
    with_testbed(spec, max_procs, move |tb| {
        procs
            .iter()
            .map(|&n| {
                let sync = run_laplace(
                    &tb,
                    n,
                    LaplaceParams {
                        mode: LaplaceMode::Sync,
                        streams: 1,
                        ..base
                    },
                );
                let asy = run_laplace(
                    &tb,
                    n,
                    LaplaceParams {
                        mode: LaplaceMode::AsyncOverlap,
                        streams: 1,
                        ..base
                    },
                );
                let two = run_laplace(
                    &tb,
                    n,
                    LaplaceParams {
                        mode: LaplaceMode::Sync,
                        streams: 2,
                        ..base
                    },
                );
                LaplaceRow {
                    procs: n,
                    sync_secs: sync.exec_secs,
                    async_secs: asy.exec_secs,
                    max_speedup_secs: sync.compute_secs.max(sync.io_secs),
                    two_stream_secs: two.exec_secs,
                }
            })
            .collect()
    })
}

/// Result of the §7.1 contention experiment.
#[derive(Clone, Copy, Debug)]
pub struct ContentionResult {
    /// Overlap alone (1 stream), s.
    pub overlap_alone: f64,
    /// Two streams alone (no overlap), s.
    pub two_streams_alone: f64,
    /// Both optimizations, naive structure (wait pos. 1), s.
    pub combined_naive: f64,
    /// Both optimizations, restructured (wait pos. 2), s.
    pub combined_restructured: f64,
}

/// §7.1: the counter-intuitive overlap × double-connection interaction.
pub fn contention_experiment(spec: ClusterSpec, n: usize, base: LaplaceParams) -> ContentionResult {
    with_testbed(spec, n, move |tb| {
        let run = |mode, streams| {
            run_laplace(
                &tb,
                n,
                LaplaceParams {
                    mode,
                    streams,
                    ..base
                },
            )
            .exec_secs
        };
        ContentionResult {
            overlap_alone: run(LaplaceMode::AsyncOverlap, 1),
            two_streams_alone: run(LaplaceMode::Sync, 2),
            combined_naive: run(LaplaceMode::AsyncOverlap, 2),
            combined_restructured: run(LaplaceMode::AsyncNoCommOverlap, 2),
        }
    })
}

/// One row of the Fig. 8 table.
#[derive(Clone, Copy, Debug)]
pub struct PerfRow {
    /// Processes.
    pub procs: usize,
    /// Aggregate write bandwidth, one stream, Mb/s.
    pub write_one: f64,
    /// Aggregate read bandwidth, one stream, Mb/s.
    pub read_one: f64,
    /// Aggregate write bandwidth, two streams, Mb/s.
    pub write_two: f64,
    /// Aggregate read bandwidth, two streams, Mb/s.
    pub read_two: f64,
}

/// Fig. 8: ROMIO perf aggregate bandwidth, one vs two streams per node.
pub fn fig8_perf(spec: ClusterSpec, procs: &[usize], bytes_per_proc: u64) -> Vec<PerfRow> {
    fig8_perf_with_stats(spec, procs, bytes_per_proc).0
}

/// [`fig8_perf`] plus the network's allocation-engine counters for the
/// whole sweep (how much work the incremental engine did and skipped) and
/// the server block-cache counters (all zeros in the stock, cache-off
/// configuration — the line pins that the baseline runs uncached).
pub fn fig8_perf_with_stats(
    spec: ClusterSpec,
    procs: &[usize],
    bytes_per_proc: u64,
) -> (Vec<PerfRow>, NetStats, SimStats, semplar_srb::CacheStats) {
    let max_procs = procs.iter().copied().max().unwrap_or(1);
    let procs = procs.to_vec();
    let ((rows, net, cache), sim) = with_testbed_stats(spec, max_procs, move |tb| {
        let rows = procs
            .iter()
            .map(|&n| {
                let one = run_perf(
                    &tb,
                    n,
                    PerfParams {
                        bytes_per_proc,
                        streams: 1,
                    },
                );
                let two = run_perf(
                    &tb,
                    n,
                    PerfParams {
                        bytes_per_proc,
                        streams: 2,
                    },
                );
                PerfRow {
                    procs: n,
                    write_one: one.write_mbps,
                    read_one: one.read_mbps,
                    write_two: two.write_mbps,
                    read_two: two.read_mbps,
                }
            })
            .collect();
        (rows, tb.net.stats(), tb.server.cache_stats())
    });
    (rows, net, sim, cache)
}

/// One row of the Fig. 9 table.
#[derive(Clone, Copy, Debug)]
pub struct CompressRow {
    /// Processes.
    pub procs: usize,
    /// Synchronous write bandwidth, Mb/s (application bytes).
    pub sync_mbps: f64,
    /// Asynchronous compressed write bandwidth, Mb/s (application bytes).
    pub async_mbps: f64,
    /// Compression ratio achieved.
    pub ratio: f64,
}

/// Fig. 9: on-the-fly compression aggregate write bandwidth.
pub fn fig9_compress(spec: ClusterSpec, procs: &[usize], file_bytes: u64) -> Vec<CompressRow> {
    let max_procs = procs.iter().copied().max().unwrap_or(1);
    let procs = procs.to_vec();
    let data = Arc::new(estgen::generate(
        file_bytes as usize,
        2006,
        &estgen::EstGenConfig::default(),
    ));
    with_testbed(spec, max_procs, move |tb| {
        procs
            .iter()
            .map(|&n| {
                let base = CompressParams {
                    file_bytes,
                    ..CompressParams::default()
                };
                let sync = run_compress(
                    &tb,
                    n,
                    data.clone(),
                    CompressParams {
                        mode: CompressMode::SyncUncompressed,
                        ..base
                    },
                );
                let asy = run_compress(
                    &tb,
                    n,
                    data.clone(),
                    CompressParams {
                        mode: CompressMode::AsyncCompressed,
                        ..base
                    },
                );
                CompressRow {
                    procs: n,
                    sync_mbps: sync.agg_write_mbps,
                    async_mbps: asy.agg_write_mbps,
                    ratio: asy.ratio,
                }
            })
            .collect()
    })
}

/// The paper's execution-time statistic: "the average execution time of
/// the benchmark increased by X% for the synchronous I/O run" — i.e. how
/// much slower the baseline's average is than the improved variant's:
/// `mean(base)/mean(improved) − 1`.
pub fn avg_gain(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (mut base_sum, mut imp_sum) = (0.0, 0.0);
    for (base, improved) in pairs {
        base_sum += base;
        imp_sum += improved;
    }
    if imp_sum == 0.0 {
        0.0
    } else {
        base_sum / imp_sum - 1.0
    }
}

/// The paper's "decreases the average execution time by X%" statistic:
/// `1 − mean(improved)/mean(base)`.
pub fn avg_reduction(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (mut base_sum, mut imp_sum) = (0.0, 0.0);
    for (base, improved) in pairs {
        base_sum += base;
        imp_sum += improved;
    }
    if base_sum == 0.0 {
        0.0
    } else {
        1.0 - imp_sum / base_sum
    }
}

/// The paper's bandwidth statistic: "the average write bandwidth using two
/// TCP streams was X% more" — the improved curve's mean over the baseline
/// curve's mean, minus one.
pub fn avg_bw_gain(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (mut base_sum, mut imp_sum) = (0.0, 0.0);
    for (base, improved) in pairs {
        base_sum += base;
        imp_sum += improved;
    }
    if base_sum == 0.0 {
        0.0
    } else {
        imp_sum / base_sum - 1.0
    }
}

/// Result of the availability experiment: the §7 ROMIO `perf` write
/// pattern (every node writes its file section over striped connections),
/// run once fault-free and once under a seeded [`FaultPlan`].
#[derive(Clone, Debug)]
pub struct AvailabilityReport {
    /// Processes (one per node).
    pub procs: usize,
    /// TCP streams per node.
    pub streams: usize,
    /// Bytes written per process.
    pub bytes_per_proc: u64,
    /// Fault-plan seed.
    pub seed: u64,
    /// Aggregate write bandwidth without faults, Mb/s.
    pub baseline_mbps: f64,
    /// Aggregate write bandwidth under the fault plan, Mb/s.
    pub faulted_mbps: f64,
    /// What the injector actually did (virtual-time ledger + counters).
    pub faults: FaultStats,
    /// Client-side recovery counters summed over every mount.
    pub recovery: RecoveryStats,
}

impl AvailabilityReport {
    /// Goodput under faults as a fraction of the fault-free baseline.
    pub fn goodput_fraction(&self) -> f64 {
        self.faulted_mbps / self.baseline_mbps
    }

    /// Mean virtual time from a failure to the completion of the affected
    /// operation.
    pub fn mean_recovery_secs(&self) -> f64 {
        if self.recovery.recovered_ops == 0 {
            0.0
        } else {
            self.recovery.recovery_time.as_secs_f64() / self.recovery.recovered_ops as f64
        }
    }
}

/// One `perf`-style shared-file write: every rank writes `bytes` at its own
/// section of `path` over `streams` connections. Returns the aggregate
/// bandwidth and the summed recovery counters.
fn availability_write(
    tb: &Arc<Testbed>,
    procs: usize,
    bytes: u64,
    streams: usize,
    path: String,
) -> (f64, RecoveryStats) {
    let rt = tb.rt.clone();
    let mounts: Arc<Mutex<Vec<Arc<SrbFs>>>> = Arc::new(Mutex::new(Vec::new()));
    let t0 = rt.now();
    let handles: Vec<_> = (0..procs)
        .map(|rank| {
            let tb = tb.clone();
            let mounts = mounts.clone();
            let path = path.clone();
            spawn(&rt, &format!("avail/rank{rank}"), move || {
                let fs = tb.srbfs(rank);
                mounts.lock().unwrap().push(fs.clone());
                let f = StripedFile::open(
                    &tb.rt,
                    &fs,
                    &path,
                    OpenFlags::CreateRw,
                    streams,
                    StripeUnit::Even,
                )
                .expect("open availability file");
                f.write_at(rank as u64 * bytes, Payload::sized(bytes))
                    .expect("availability write");
                f.close().expect("close availability file");
            })
        })
        .collect();
    for h in handles {
        h.join_unwrap();
    }
    let elapsed = (rt.now() - t0).as_secs_f64();
    let mut rec = RecoveryStats::default();
    for fs in mounts.lock().unwrap().iter() {
        let s = fs.recovery_stats();
        rec.disconnects += s.disconnects;
        rec.reconnects += s.reconnects;
        rec.recovered_ops += s.recovered_ops;
        rec.recovery_time += s.recovery_time;
    }
    (procs as f64 * bytes as f64 * 8.0 / elapsed / 1e6, rec)
}

/// Availability under injected faults: run the `perf` write fault-free,
/// then again under a seeded plan mixing WAN link flaps, a vault stall, a
/// connection reset at `reset_at`, and a server crash + restart at
/// `crash_at`. Entirely in virtual time, so the report is bit-identical
/// for the same seed.
///
/// The wire model charges a send's full transfer time to the sender, so a
/// client pushing a large payload into a severed connection only observes
/// the cut when that charge completes — place `crash_at` after the
/// post-reset reconnects to hit live connections again.
pub fn fig_availability(
    spec: ClusterSpec,
    procs: usize,
    bytes_per_proc: u64,
    streams: usize,
    seed: u64,
    reset_at: Dur,
    crash_at: Dur,
) -> AvailabilityReport {
    with_testbed(spec, procs, move |tb| {
        let (baseline_mbps, _) = availability_write(
            &tb,
            procs,
            bytes_per_proc,
            streams,
            "/avail-baseline".into(),
        );

        let (wan_up, _) = tb.wan_links();
        let plan = FaultPlan::new(seed)
            .link_flap(wan_up, Dur::from_millis(500), Dur::from_millis(300), 2)
            .vault_stall_at(Dur::from_millis(900), 4 << 20)
            .conn_reset_at(reset_at)
            .server_crash_at(crash_at, Dur::from_millis(400));
        let inj = plan.inject(&tb.rt, &tb.net, &tb.server);
        let (faulted_mbps, recovery) =
            availability_write(&tb, procs, bytes_per_proc, streams, "/avail-faulted".into());
        while !inj.done() {
            tb.rt.sleep(Dur::from_millis(50));
        }

        AvailabilityReport {
            procs,
            streams,
            bytes_per_proc,
            seed,
            baseline_mbps,
            faulted_mbps,
            faults: inj.stats(),
            recovery,
        }
    })
}

/// One workload arm of [`fig_workload_faults`]: the same run fault-free
/// and under a seeded availability plan, with the injector's ledger.
#[derive(Clone, Debug)]
pub struct WorkloadFaultsArm {
    /// Fault-free execution time, s.
    pub clean_secs: f64,
    /// Execution time under the plan, s.
    pub faulted_secs: f64,
    /// Max per-rank compute time under the plan, s.
    pub faulted_compute_secs: f64,
    /// Max per-rank I/O-blocked time under the plan, s.
    pub faulted_io_secs: f64,
    /// What the injector did (virtual-time ledger + counters).
    pub faults: FaultStats,
}

impl WorkloadFaultsArm {
    /// Execution-time inflation caused by the plan.
    pub fn slowdown(&self) -> f64 {
        self.faulted_secs / self.clean_secs.max(1e-9)
    }
}

/// Result of [`fig_workload_faults`]: BLAST and Laplace, each fault-free
/// then faulted.
#[derive(Clone, Debug)]
pub struct WorkloadFaultsReport {
    /// Processes used by both workloads.
    pub procs: usize,
    /// Fault-plan seed (Laplace uses `seed + 1`).
    pub seed: u64,
    /// MPI-BLAST with asynchronous writes.
    pub blast: WorkloadFaultsArm,
    /// 2D Laplace with asynchronous overlapped checkpoints.
    pub laplace: WorkloadFaultsArm,
}

/// Carried-over ROADMAP item: the paper's application workloads under the
/// availability fault plan, so recovery lands *inside* the compute/I-O
/// overlap window instead of inside a dedicated I/O benchmark. Each
/// workload runs fault-free, then again with a seeded plan (WAN link
/// flaps, a vault stall, a connection reset, a server crash + restart)
/// injected at its start. The asynchronous engine's retained requests and
/// the client retry path must absorb every fault: the runs complete, and
/// the faulted execution time reflects recovery overlapped with compute.
/// Entirely virtual time + seeded ⇒ bit-identical output per seed.
pub fn fig_workload_faults(
    spec: ClusterSpec,
    procs: usize,
    queries: usize,
    laplace: LaplaceParams,
    seed: u64,
) -> WorkloadFaultsReport {
    with_testbed(spec, procs, move |tb| {
        let (wan_up, _) = tb.wan_links();
        let availability_plan = |seed: u64, scale: f64| {
            // The same fault mix as `fig_availability`, with its timeline
            // stretched by `scale` so every event lands mid-run.
            let s = |secs: f64| Dur::from_secs_f64(secs * scale);
            FaultPlan::new(seed)
                .link_flap(wan_up, s(2.0), Dur::from_millis(300), 2)
                .vault_stall_at(s(4.0), 4 << 20)
                .conn_reset_at(s(6.0))
                .server_crash_at(s(8.0), s(0.6))
        };
        let wait = |inj: &semplar_faults::FaultInjector| {
            while !inj.done() {
                tb.rt.sleep(Dur::from_millis(100));
            }
        };

        // MPI-BLAST, asynchronous writes.
        let bp = BlastParams::calibrated(&tb.spec, queries, 4.0).with_async(true);
        let blast_clean = run_blast(&tb, procs, bp);
        let inj = availability_plan(seed, blast_clean.exec_secs / 12.0)
            .inject(&tb.rt, &tb.net, &tb.server);
        let blast_faulted = run_blast(&tb, procs, bp);
        wait(&inj);
        let blast = WorkloadFaultsArm {
            clean_secs: blast_clean.exec_secs,
            faulted_secs: blast_faulted.exec_secs,
            faulted_compute_secs: blast_faulted.compute_secs,
            faulted_io_secs: blast_faulted.io_secs,
            faults: inj.stats(),
        };

        // 2D Laplace, asynchronous overlapped checkpoints.
        let lp = LaplaceParams {
            mode: LaplaceMode::AsyncOverlap,
            ..laplace
        };
        let lap_clean = run_laplace(&tb, procs, lp);
        let inj = availability_plan(seed + 1, lap_clean.exec_secs / 12.0)
            .inject(&tb.rt, &tb.net, &tb.server);
        let lap_faulted = run_laplace(&tb, procs, lp);
        wait(&inj);
        let laplace = WorkloadFaultsArm {
            clean_secs: lap_clean.exec_secs,
            faulted_secs: lap_faulted.exec_secs,
            faulted_compute_secs: lap_faulted.compute_secs,
            faulted_io_secs: lap_faulted.io_secs,
            faults: inj.stats(),
        };

        WorkloadFaultsReport {
            procs,
            seed,
            blast,
            laplace,
        }
    })
}

/// Result of the Fig. 9 compression pipeline run under the availability
/// fault plan: the async-compressed write, once fault-free and once with
/// the same seeded WAN flaps / vault stall / connection reset / server
/// crash used by [`fig_availability`].
#[derive(Clone, Debug)]
pub struct CompressFaultsReport {
    /// Nodes writing concurrently.
    pub procs: usize,
    /// Source bytes per node.
    pub file_bytes: u64,
    /// Fault-plan seed.
    pub seed: u64,
    /// Async-compressed aggregate write bandwidth without faults, Mb/s.
    pub baseline_mbps: f64,
    /// Async-compressed aggregate write bandwidth under the plan, Mb/s.
    pub faulted_mbps: f64,
    /// Compression ratio achieved under faults.
    pub ratio: f64,
    /// Compressed frames re-shipped from their retained copies instead of
    /// being recompressed, summed over ranks.
    pub resumed_frames: u64,
    /// Client-side recovery counters from the faulted run.
    pub recovery: RecoveryStats,
    /// What the injector actually did (virtual-time ledger + counters).
    pub faults: FaultStats,
}

impl CompressFaultsReport {
    /// Goodput under faults as a fraction of the fault-free baseline.
    pub fn goodput_fraction(&self) -> f64 {
        self.faulted_mbps / self.baseline_mbps
    }
}

/// The Fig. 9 compression workload under the [`fig_availability`] fault
/// plan. The pipeline's retained compressed frames mean a severed
/// connection costs a re-ship of at most `depth` frames, never a
/// recompression. Entirely in virtual time and seeded, so the report is
/// bit-identical for the same inputs.
pub fn fig9_compress_faults(
    spec: ClusterSpec,
    procs: usize,
    file_bytes: u64,
    seed: u64,
    reset_at: Dur,
    crash_at: Dur,
) -> CompressFaultsReport {
    let data = Arc::new(estgen::generate(
        file_bytes as usize,
        2006,
        &estgen::EstGenConfig::default(),
    ));
    with_testbed(spec, procs, move |tb| {
        let params = CompressParams {
            file_bytes,
            mode: CompressMode::AsyncCompressed,
            ..CompressParams::default()
        };
        let base = run_compress(&tb, procs, data.clone(), params);

        let (wan_up, _) = tb.wan_links();
        let plan = FaultPlan::new(seed)
            .link_flap(wan_up, Dur::from_millis(500), Dur::from_millis(300), 2)
            .vault_stall_at(Dur::from_millis(900), 4 << 20)
            .conn_reset_at(reset_at)
            .server_crash_at(crash_at, Dur::from_millis(400));
        let inj = plan.inject(&tb.rt, &tb.net, &tb.server);
        let faulted = run_compress(&tb, procs, data.clone(), params);
        while !inj.done() {
            tb.rt.sleep(Dur::from_millis(50));
        }

        CompressFaultsReport {
            procs,
            file_bytes,
            seed,
            baseline_mbps: base.agg_write_mbps,
            faulted_mbps: faulted.agg_write_mbps,
            ratio: faulted.ratio,
            resumed_frames: faulted.resumed_frames,
            recovery: faulted.recovery,
            faults: inj.stats(),
        }
    })
}

/// One row of the scale experiment: many clients, one server.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Total simulated client processes (`nodes * procs_per_node`).
    pub clients: usize,
    /// Pool policy label (`per-open` or `shared(SxI)`).
    pub policy: String,
    /// Cumulative TCP connections the server accepted over the run.
    pub connections: u64,
    /// Live server-side handler count sampled while every client held its
    /// file open — the server's peak concurrent-connection footprint.
    pub live_handlers: usize,
    /// Virtual seconds of the concurrent write phase.
    pub secs: f64,
    /// Aggregate client bandwidth over the write phase, Mb/s.
    pub mbps: f64,
}

/// Scale-out: `nodes * procs` lightweight clients each open their own
/// object and, after a global barrier, write `bytes` concurrently.
///
/// `policy = None` mounts the paper-faithful per-open SRBFS (every open
/// dials its own TCP connection, §4 of the paper); `Some(Shared { .. })`
/// multiplexes all of a node's sessions over a bounded stream set via the
/// connection pool. The WAN is the shared bottleneck either way, so the
/// aggregate bandwidth should match while the server's connection
/// footprint collapses from `clients` to `nodes * max_streams`.
pub fn fig_scale(
    spec: ClusterSpec,
    nodes: usize,
    procs: usize,
    bytes: u64,
    policy: Option<PoolPolicy>,
) -> ScaleRow {
    let label = match policy {
        None | Some(PoolPolicy::PerOpen) => "per-open".to_string(),
        Some(PoolPolicy::Shared {
            max_streams,
            max_inflight,
        }) => format!("shared({max_streams}x{max_inflight})"),
    };
    let clients = nodes * procs;
    let (connections, live_handlers, secs) = with_testbed(spec, nodes, move |tb| {
        let rt = tb.rt.clone();
        let mounts: Vec<Arc<SrbFs>> = (0..nodes)
            .map(|n| match policy {
                None => tb.srbfs(n),
                Some(p) => tb.srbfs_pooled(n, p),
            })
            .collect();
        let setup = mounts[0].admin_conn().unwrap();
        setup.mk_coll("/scale").unwrap();
        setup.disconnect().unwrap();

        // Clients rendezvous twice: `opened` marks every file open (the
        // server's peak footprint), `go` releases the write phase.
        let opened = Barrier::new(&rt, clients + 1);
        let go = Barrier::new(&rt, clients + 1);
        let handles: Vec<_> = (0..nodes)
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
    });
    ScaleRow {
        clients,
        policy: label,
        connections,
        live_handlers,
        secs,
        mbps: (clients as u64 * bytes) as f64 * 8.0 / 1e6 / secs,
    }
}

/// One row of the actor-mode scale experiment: the same many-clients /
/// one-server shape as [`fig_scale`], but every client session is an
/// event-driven [`Task`](semplar_runtime::Task) on one executor instead
/// of a thread actor, which is what lets the axis reach 10⁵ clients.
#[derive(Clone, Debug)]
pub struct ActorScaleRow {
    /// Client sessions driven as event-driven tasks.
    pub clients: usize,
    /// Pool policy label (`shared(SxI)`).
    pub policy: String,
    /// Cumulative TCP connections the server accepted over the run.
    pub connections: u64,
    /// Sessions that completed their full open → write → close sequence.
    pub completed: usize,
    /// Virtual seconds from first arrival to last completion.
    pub secs: f64,
    /// Aggregate client bandwidth over the run, Mb/s.
    pub mbps: f64,
    /// Engine counters: thread actors vs event-driven tasks, separately.
    pub sim: SimStats,
}

/// Actor-mode scale-out: `clients` sessions arrive open-loop (heavy-tailed
/// gaps around `mean_gap`, seeded), each opens its own object over the
/// node's shared pool, writes `bytes`, closes, and retires its session —
/// all as poll-style tasks on a single executor, so the OS-thread
/// footprint is the node count plus the pool daemons, not the client
/// count.
#[allow(clippy::too_many_arguments)]
pub fn fig_scale_actors(
    spec: ClusterSpec,
    nodes: usize,
    clients: usize,
    bytes: u64,
    max_streams: usize,
    max_inflight: usize,
    mean_gap: Dur,
    seed: u64,
) -> ActorScaleRow {
    let ((completed, connections, secs), sim) = with_testbed_stats(spec, nodes, move |tb| {
        let params = SwarmParams {
            clients,
            streams_per_node: max_streams,
            inflight_per_stream: max_inflight,
            mix: TenantMix::single(TenantId(1)),
            writes: 1,
            reads: 0,
            bytes_per_op: bytes,
            mean_gap,
            think: Dur::ZERO,
            seed,
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
    ActorScaleRow {
        clients,
        policy: format!("shared({max_streams}x{max_inflight})"),
        connections,
        completed,
        secs,
        mbps: (clients as u64 * bytes) as f64 * 8.0 / 1e6 / secs,
        sim,
    }
}

/// One arm of the multi-tenant fairness experiment.
#[derive(Clone, Debug)]
pub struct TenantArm {
    /// Arm label (`fair/drr`, `abusive/fifo`, `abusive/drr`).
    pub label: String,
    /// Virtual seconds from first arrival to last completion.
    pub secs: f64,
    /// Per tenant: id, session count, p99 session goodput in Mb/s (the
    /// slowest-1 % boundary of per-session application goodput).
    pub tenants: Vec<(u32, usize, f64)>,
    /// Engine counters for the arm's simulation.
    pub sim: SimStats,
}

impl TenantArm {
    /// p99 goodput of tenant `id`, Mb/s.
    pub fn p99(&self, id: u32) -> f64 {
        self.tenants
            .iter()
            .find(|&&(t, _, _)| t == id)
            .map(|&(_, _, g)| g)
            .expect("tenant present")
    }
}

/// The tenant the abusive arms hand the oversized shape to.
pub const ABUSIVE_TENANT: u32 = 9;

/// DRR quantum for the tenant arms: bytes of service credit per
/// round-robin visit. At 64 KiB a well-behaved 16 KiB op glides through
/// in one visit while an abusive 256 KiB op must accumulate four.
const TENANT_QUANTUM: u64 = 64 << 10;
/// Concurrent service slots the DRR gate grants. Sized so the gate is not
/// the bottleneck at the fair arrival rate (a slot is held across the
/// response's WAN delivery, ~1 RTT/2 on das2) and only bites when a
/// backlogged tenant tries to monopolise the stage.
const TENANT_WIDTH: usize = 48;

/// One arm of `fig_tenants` in a fresh simulation: four well-behaved
/// tenants (2 × 16 KiB writes + 1 read per session) plus tenant
/// [`ABUSIVE_TENANT`], which in the abusive arms blasts 8 × 256 KiB
/// writes per session instead.
///
/// `tenant_aware = false` is the legacy deployment: every tenant's
/// sessions multiplex over one shared pool per node, FIFO service — an
/// abusive request parks every session behind it on its stream (§HoL).
/// `tenant_aware = true` is the refactored stack: each tenant dials its
/// own pooled streams (separate user communities) and the server installs
/// the per-tenant DRR gate, so abuse is confined to the abuser's own
/// streams and byte share.
pub fn fig_tenants_arm(
    spec: ClusterSpec,
    nodes: usize,
    clients: usize,
    mean_gap: Dur,
    seed: u64,
    abusive: bool,
    tenant_aware: bool,
) -> TenantArm {
    let label = format!(
        "{}/{}",
        if abusive { "abusive" } else { "fair" },
        if tenant_aware { "drr" } else { "fifo" }
    );
    let ((tenants, secs), sim) = with_testbed_stats(spec, nodes, move |tb| {
        if tenant_aware {
            tb.server.set_tenant_scheduler(TenantScheduler::new(
                &tb.rt,
                TENANT_QUANTUM,
                TENANT_WIDTH,
            ));
        }
        let params = SwarmParams {
            clients,
            // Comparable aggregate stream budget per node either way: seven
            // shared streams, or two per tenant across the five tenants.
            // Seven is deliberate: clients sharing a pooled connection are
            // `i, i + nodes*streams, ...`, so the legacy arms only mix
            // tenants on a stream when `nodes * streams` is not a multiple
            // of the tenant cycle (8 × 7 = 56 ≡ 1 mod 5). A multiple (say
            // ten streams) would silently partition the "shared" pool by
            // tenant and hide the head-of-line damage this arm measures.
            streams_per_node: if tenant_aware { 2 } else { 7 },
            inflight_per_stream: 8,
            mix: TenantMix::new(&[
                (TenantId(1), 1),
                (TenantId(2), 1),
                (TenantId(3), 1),
                (TenantId(4), 1),
                (TenantId(ABUSIVE_TENANT), 1),
            ]),
            writes: 2,
            reads: 1,
            bytes_per_op: 16 << 10,
            mean_gap,
            think: Dur::ZERO,
            seed,
            real_payload: false,
            coll: "/tenants".into(),
            abuse: abusive.then_some((
                TenantId(ABUSIVE_TENANT),
                OpShape {
                    writes: 8,
                    reads: 0,
                    bytes_per_op: 256 << 10,
                },
            )),
            per_tenant_streams: tenant_aware,
            skew: None,
        };
        let report = run_swarm(&tb, &params);
        assert_eq!(report.completed(), clients, "incomplete tenant swarm");
        let mut sessions: std::collections::BTreeMap<u32, usize> = Default::default();
        for o in &report.outcomes {
            *sessions.entry(o.tenant.0).or_insert(0) += 1;
        }
        let tenants: Vec<(u32, usize, f64)> = report
            .p99_goodput_by_tenant()
            .into_iter()
            .map(|(t, bps)| (t.0, sessions[&t.0], bps / 1e6))
            .collect();
        (tenants, report.secs)
    });
    TenantArm {
        label,
        secs,
        tenants,
        sim,
    }
}

/// The multi-tenant fairness experiment, four arms over identical seeded
/// arrivals: fair and abusive on the legacy shared-stream FIFO server,
/// fair and abusive on the tenant-aware stack (per-tenant streams + DRR
/// gate). The figure's claim is that with one abusive tenant the legacy
/// deployment collapses every tenant's p99 goodput, while on the
/// tenant-aware stack every non-abusive tenant stays within 10 % of its
/// all-fair baseline.
pub fn fig_tenants(
    spec: ClusterSpec,
    nodes: usize,
    clients: usize,
    mean_gap: Dur,
    seed: u64,
) -> Vec<TenantArm> {
    vec![
        fig_tenants_arm(spec.clone(), nodes, clients, mean_gap, seed, false, false),
        fig_tenants_arm(spec.clone(), nodes, clients, mean_gap, seed, true, false),
        fig_tenants_arm(spec.clone(), nodes, clients, mean_gap, seed, false, true),
        fig_tenants_arm(spec, nodes, clients, mean_gap, seed, true, true),
    ]
}

/// Result of the degraded-link striping experiment: one striped write with
/// round-robin block placement vs the goodput-adaptive scheduler, under an
/// identical seeded [`FaultPlan`] that throttles stream 0's uplink.
#[derive(Clone, Debug)]
pub struct DegradeReport {
    /// Striped streams (each on its own physical path).
    pub streams: usize,
    /// Bytes written.
    pub bytes: u64,
    /// Stripe/scheduling block size.
    pub block: u64,
    /// Capacity multiplier applied to stream 0's uplink (0.25 = 4× slower).
    pub factor: f64,
    /// Fault-plan seed.
    pub seed: u64,
    /// Virtual seconds the degrade lands after the write starts.
    pub degrade_at_secs: f64,
    /// Round-robin (`StripeUnit::Bytes`) write bandwidth, Mb/s.
    pub rr_mbps: f64,
    /// Round-robin write time, virtual seconds.
    pub rr_secs: f64,
    /// Adaptive (`StripeUnit::Adaptive`) write bandwidth, Mb/s.
    pub adaptive_mbps: f64,
    /// Adaptive write time, virtual seconds.
    pub adaptive_secs: f64,
    /// Placement ledger of the adaptive run.
    pub stats: StripeStats,
    /// What the injector did during the adaptive run (identical plan and
    /// seed in the round-robin run).
    pub faults: FaultStats,
}

impl DegradeReport {
    /// Adaptive bandwidth over round-robin bandwidth.
    pub fn speedup(&self) -> f64 {
        self.adaptive_mbps / self.rr_mbps
    }
}

/// One arm of the degrade experiment in a fresh simulation: a multi-homed
/// client (one 50 Mb/s path per stream) writes `bytes` over a striped file
/// while a seeded plan throttles stream 0's uplink to `factor` of its
/// capacity. Returns (virtual seconds, placement stats, fault ledger).
fn degrade_write(
    unit: StripeUnit,
    streams: usize,
    bytes: u64,
    factor: f64,
    seed: u64,
    degrade_at: Dur,
) -> (f64, StripeStats, FaultStats) {
    let sim = SimRuntime::new();
    sim.run_root(move |rt| {
        let net = Network::new(rt.clone());
        let mut routes = Vec::with_capacity(streams);
        let mut up0 = None;
        for i in 0..streams {
            let up = net.add_link(&format!("up{i}"), Bw::mbps(50.0), Dur::from_millis(10));
            let down = net.add_link(&format!("down{i}"), Bw::mbps(50.0), Dur::from_millis(10));
            if i == 0 {
                up0 = Some(up);
            }
            routes.push(ConnRoute {
                fwd: vec![up],
                rev: vec![down],
                send_cap: None,
                recv_cap: None,
                bus: None,
            });
        }
        let server = SrbServer::new(net.clone(), SrbServerCfg::default());
        server.mcat().add_user("u", "p");
        let fs = SrbFs::with_stream_routes(
            server.clone(),
            SrbFsConfig {
                route: routes[0].clone(),
                user: "u".into(),
                password: "p".into(),
            },
            routes.clone(),
            PoolPolicy::PerOpen,
            RetryPolicy::default(),
        );
        // The degrade persists past the end of the write (restore far out);
        // the run ends when the root closure returns.
        let plan = FaultPlan::new(seed).link_degrade_at(
            up0.expect("stream 0 uplink"),
            degrade_at,
            factor,
            Dur::from_secs(3600),
        );
        let inj = plan.inject(&rt, &net, &server);

        let f = StripedFile::open(&rt, &fs, "/deg", OpenFlags::CreateRw, streams, unit)
            .expect("open degrade file");
        let t0 = rt.now();
        let req = f.iwrite_at(0, Payload::sized(bytes));
        let total = req.wait_rebalanced().expect("degrade write");
        assert_eq!(total, bytes, "short striped write");
        let secs = (rt.now() - t0).as_secs_f64();
        let stats = f.stripe_stats();
        f.close().expect("close degrade file");
        (secs, stats, inj.stats())
    })
}

/// The degraded-link experiment: same write, same seeded single-link
/// degrade, with round-robin vs goodput-adaptive block placement. Under
/// round-robin the throttled stream carries `1/streams` of the blocks and
/// gates the whole operation; the adaptive scheduler re-weights placement
/// by the measured goodput and keeps every path busy until the end.
pub fn fig_degrade(
    streams: usize,
    bytes: u64,
    block: u64,
    factor: f64,
    seed: u64,
    degrade_at: Dur,
) -> DegradeReport {
    let (rr_secs, _, _) = degrade_write(
        StripeUnit::Bytes(block),
        streams,
        bytes,
        factor,
        seed,
        degrade_at,
    );
    let (adaptive_secs, stats, faults) = degrade_write(
        StripeUnit::Adaptive { block },
        streams,
        bytes,
        factor,
        seed,
        degrade_at,
    );
    let mbps = |secs: f64| bytes as f64 * 8.0 / secs / 1e6;
    DegradeReport {
        streams,
        bytes,
        block,
        factor,
        seed,
        degrade_at_secs: degrade_at.as_secs_f64(),
        rr_mbps: mbps(rr_secs),
        rr_secs,
        adaptive_mbps: mbps(adaptive_secs),
        adaptive_secs,
        stats,
        faults,
    }
}

/// Result of the federation experiment: the same round-robin multi-file
/// write against a sharded federation, fault-free vs with a seeded crash
/// of one shard's primary mid-write.
#[derive(Clone, Debug)]
pub struct FederationReport {
    /// Shards in the federation (each a primary + replica server pair).
    pub shards: usize,
    /// Files written (hash-routed across the shards).
    pub files: usize,
    /// Bytes per file.
    pub bytes_per_file: u64,
    /// Fault-plan seed.
    pub seed: u64,
    /// Virtual seconds the primary crash lands after the writes start.
    pub crash_at_secs: f64,
    /// Virtual seconds the crashed primary stays down.
    pub down_for_secs: f64,
    /// Fault-free write time, virtual seconds.
    pub fault_free_secs: f64,
    /// Fault-free write goodput, Mb/s.
    pub fault_free_mbps: f64,
    /// Faulted-arm write time, virtual seconds (failover + reconciliation
    /// overlap the write).
    pub faulted_secs: f64,
    /// Faulted-arm write goodput, Mb/s.
    pub faulted_mbps: f64,
    /// Operations the federation served from a replica during the outage.
    pub failovers: u64,
    /// Federation recovery counters of the faulted arm.
    pub recovery: RecoveryStats,
    /// Deterministic replay ledger of the faulted arm.
    pub ledger: ReconcileLedger,
    /// Per-shard replicator counters of the faulted arm.
    pub repl: Vec<ReplStats>,
    /// Per-file checksums on the owning primaries, faulted arm.
    pub primary_sums: Vec<u32>,
    /// Per-file checksums on the replicas, faulted arm.
    pub replica_sums: Vec<u32>,
    /// Per-file checksums of the fault-free arm (primaries).
    pub fault_free_sums: Vec<u32>,
    /// The mid-outage federated read returned exactly the written bytes.
    pub outage_read_ok: bool,
    /// What the injector did in the faulted arm.
    pub faults: FaultStats,
}

impl FederationReport {
    /// Zero acked-byte loss: after reconciliation, every file checksums
    /// bit-identically to the fault-free run on the primary *and* the
    /// replica.
    pub fn converged(&self) -> bool {
        self.primary_sums == self.fault_free_sums && self.replica_sums == self.fault_free_sums
    }
}

/// The deterministic byte at `pos` of federation file `file`.
fn fed_pattern(file: usize, offset: u64, len: u64) -> Vec<u8> {
    (0..len)
        .map(|k| (((offset + k) as usize).wrapping_mul(131) + file * 29 + 17) as u8)
        .collect()
}

/// One arm of one federation run.
struct FedArm {
    secs: f64,
    primary_sums: Vec<u32>,
    replica_sums: Vec<u32>,
    failovers: u64,
    recovery: RecoveryStats,
    ledger: ReconcileLedger,
    repl: Vec<ReplStats>,
    outage_read_ok: bool,
    faults: Option<FaultStats>,
}

/// One federation run in a fresh simulation: `shards` primary/replica
/// server pairs on one network, a per-shard write-path [`Replicator`], and
/// `files` files written round-robin in `chunk`-byte pieces through a
/// [`FedFs`]. With `crash = Some((at, down_for))` a seeded plan crashes
/// the primary that owns the first file mid-write: writes and reads fail
/// over to its replica, and the divergent suffix is replayed back once the
/// primary restarts.
fn federation_run(
    shards: usize,
    files: usize,
    bytes_per_file: u64,
    chunk: u64,
    seed: u64,
    crash: Option<(Dur, Dur)>,
) -> FedArm {
    let sim = SimRuntime::new();
    sim.run_root(move |rt| {
        let net = Network::new(rt.clone());
        let mut fed_shards = Vec::with_capacity(shards);
        let mut primary_servers = Vec::with_capacity(shards);
        for s in 0..shards {
            let route = |name: String, bw_mbps: f64, lat_ms: u64| ConnRoute {
                fwd: vec![net.add_link(
                    &format!("{name}-fwd"),
                    Bw::mbps(bw_mbps),
                    Dur::from_millis(lat_ms),
                )],
                rev: vec![net.add_link(
                    &format!("{name}-rev"),
                    Bw::mbps(bw_mbps),
                    Dur::from_millis(lat_ms),
                )],
                send_cap: None,
                recv_cap: None,
                bus: None,
            };
            let primary = SrbServer::new(net.clone(), SrbServerCfg::default());
            let replica = SrbServer::new(net.clone(), SrbServerCfg::default());
            primary.mcat().add_user("u", "p");
            replica.mcat().add_user("u", "p");
            // The replication service account on the replica.
            replica.mcat().add_user("fed", "fed");
            let cfg = |r: ConnRoute| SrbFsConfig {
                route: r,
                user: "u".into(),
                password: "p".into(),
            };
            // Federated failover IS the recovery: a crashed primary then
            // refuses instantly instead of the client backing off.
            let primary_fs = SrbFs::with_retry(
                primary.clone(),
                cfg(route(format!("s{s}-client-primary"), 50.0, 10)),
                RetryPolicy::none(),
            );
            let replica_fs = SrbFs::with_retry(
                replica.clone(),
                cfg(route(format!("s{s}-client-replica"), 50.0, 10)),
                RetryPolicy::none(),
            );
            // Fast server-to-server path for the replication stream.
            let repl = Replicator::start(
                &rt,
                primary.clone(),
                replica,
                route(format!("s{s}-repl"), 1000.0, 1),
                "fed",
                "fed",
                RetryPolicy::default(),
            );
            primary_servers.push(primary);
            fed_shards.push(FedShard {
                primary: primary_fs,
                replica: replica_fs,
                replicator: Some(repl),
                reverse: None,
            });
        }
        let fed = FedFs::new(&rt, fed_shards);
        fed.mk_coll_all("/fed").expect("mk /fed everywhere");
        let paths: Vec<String> = (0..files).map(|i| format!("/fed/data{i}")).collect();
        // The crash targets the primary that owns the first file, so the
        // outage is guaranteed to land on an actively written shard.
        let inj = crash.map(|(at, down_for)| {
            FaultPlan::new(seed).server_crash_at(at, down_for).inject(
                &rt,
                &net,
                &primary_servers[fed.shard_of(&paths[0])],
            )
        });

        let mut handles: Vec<Box<dyn AdioFile>> = paths
            .iter()
            .map(|p| fed.open(p, OpenFlags::CreateRw).expect("open federated"))
            .collect();
        let chunks = bytes_per_file / chunk;
        let mut outage_read_ok = None;
        let t0 = rt.now();
        for c in 0..chunks {
            for (i, h) in handles.iter_mut().enumerate() {
                let data = Payload::bytes(fed_pattern(i, c * chunk, chunk));
                let n = h.write_at(c * chunk, &data).expect("federated write");
                assert_eq!(n, chunk, "short federated write");
            }
            // First failover observed: read the crashed shard's file back
            // through the federation mid-outage. The replicator is
            // quiesced and the replica serves every acked byte.
            if outage_read_ok.is_none() && fed.failovers() > 0 {
                let mut r = fed.open(&paths[0], OpenFlags::Read).expect("outage open");
                let got = r.read_at(0, chunk).expect("outage read");
                let _ = r.close();
                outage_read_ok = Some(got.data() == Some(&fed_pattern(0, 0, chunk)[..]));
            }
        }
        let secs = (rt.now() - t0).as_secs_f64();
        for mut h in handles {
            h.close().expect("close federated");
        }
        // Let the plan finish (the restart may land after the writes), then
        // replay whatever divergence remains and settle replication.
        if let Some(inj) = &inj {
            while !inj.done() {
                rt.sleep(Dur::from_millis(100));
            }
        }
        while !fed.reconcile() {
            rt.sleep(Dur::from_millis(50));
        }
        for shard in fed.shards() {
            if let Some(repl) = &shard.replicator {
                repl.quiesce();
            }
        }
        let mut primary_sums = Vec::with_capacity(files);
        let mut replica_sums = Vec::with_capacity(files);
        for p in &paths {
            let shard = &fed.shards()[fed.shard_of(p)];
            let conn = shard.primary.admin_conn().expect("primary admin");
            primary_sums.push(conn.checksum(p).expect("primary checksum"));
            let _ = conn.disconnect();
            let conn = shard.replica.admin_conn().expect("replica admin");
            replica_sums.push(conn.checksum(p).expect("replica checksum"));
            let _ = conn.disconnect();
        }
        FedArm {
            secs,
            primary_sums,
            replica_sums,
            failovers: fed.failovers(),
            recovery: fed.recovery_stats(),
            ledger: fed.reconcile_ledger(),
            repl: fed
                .shards()
                .iter()
                .filter_map(|s| s.replicator.as_ref())
                .map(|r| r.stats())
                .collect(),
            outage_read_ok: outage_read_ok.unwrap_or(crash.is_none()),
            faults: inj.map(|i| i.stats()),
        }
    })
}

/// The federation experiment: identical round-robin writes of `files`
/// files across a sharded federation, fault-free vs with the seeded crash
/// of one shard's primary `crash_at` into the write (down for `down_for`).
/// Zero acked bytes may be lost: the faulted arm must reconcile to
/// checksums bit-identical to the fault-free arm on primaries *and*
/// replicas.
pub fn fig_federation(
    shards: usize,
    files: usize,
    bytes_per_file: u64,
    chunk: u64,
    seed: u64,
    crash_at: Dur,
    down_for: Dur,
) -> FederationReport {
    let clean = federation_run(shards, files, bytes_per_file, chunk, seed, None);
    let faulted = federation_run(
        shards,
        files,
        bytes_per_file,
        chunk,
        seed,
        Some((crash_at, down_for)),
    );
    let total_bits = (files as u64 * bytes_per_file) as f64 * 8.0;
    FederationReport {
        shards,
        files,
        bytes_per_file,
        seed,
        crash_at_secs: crash_at.as_secs_f64(),
        down_for_secs: down_for.as_secs_f64(),
        fault_free_secs: clean.secs,
        fault_free_mbps: total_bits / clean.secs / 1e6,
        faulted_secs: faulted.secs,
        faulted_mbps: total_bits / faulted.secs / 1e6,
        failovers: faulted.failovers,
        recovery: faulted.recovery,
        ledger: faulted.ledger,
        repl: faulted.repl,
        primary_sums: faulted.primary_sums,
        replica_sums: faulted.replica_sums,
        fault_free_sums: clean.primary_sums,
        outage_read_ok: faulted.outage_read_ok,
        faults: faulted.faults.expect("faulted arm has an injector"),
    }
}

/// Result of the federation HA experiment: the federated write workload
/// run fault-free, with failover-only recovery (PR 5), and with membership
/// governance (epochs, quorum promotion, fencing) plus the replica block
/// cache — all against the same seeded mid-write crash of one shard's
/// primary.
#[derive(Clone, Debug)]
pub struct FederationHaReport {
    /// Shards in the federation (each a governed primary + replica pair).
    pub shards: usize,
    /// Files written (hash-routed across the shards).
    pub files: usize,
    /// Bytes per file.
    pub bytes_per_file: u64,
    /// Fault-plan seed.
    pub seed: u64,
    /// Virtual seconds the primary crash lands after the writes start.
    pub crash_at_secs: f64,
    /// Virtual seconds the crashed primary stays down.
    pub down_for_secs: f64,
    /// Membership heartbeat cadence, milliseconds.
    pub heartbeat_ms: u64,
    /// Membership lease timeout, milliseconds.
    pub lease_ms: u64,
    /// Fault-free write time, virtual seconds.
    pub fault_free_secs: f64,
    /// Fault-free write goodput, Mb/s.
    pub fault_free_mbps: f64,
    /// Failover-only arm write time / goodput.
    pub failover_secs: f64,
    /// Failover-only arm goodput, Mb/s.
    pub failover_mbps: f64,
    /// Promotion arm write time / goodput.
    pub promo_secs: f64,
    /// Promotion arm goodput, Mb/s.
    pub promo_mbps: f64,
    /// Replica-served operations per arm (failover-only, promotion).
    pub failovers: [u64; 2],
    /// Divergence-queue high-water mark per arm (failover-only, promotion).
    pub div_high_water: [u64; 2],
    /// The promotion arm's membership transition ledger.
    pub ledger: PromotionLedger,
    /// Final epoch per shard in the promotion arm.
    pub epochs: Vec<u64>,
    /// Final primary seat per shard in the promotion arm.
    pub primaries: Vec<usize>,
    /// Replica block-cache counters of the crashed shard, promotion arm.
    pub replica_cache: CacheStats,
    /// Stale-epoch mutations the fenced old primary rejected.
    pub fenced_rejects: u64,
    /// Per-shard forward/reverse replicator counters, promotion arm.
    pub repl: Vec<(ReplStats, ReplStats)>,
    /// Per-file checksums: fault-free arm.
    pub fault_free_sums: Vec<u32>,
    /// Per-file checksums on both seats, failover-only arm.
    pub failover_sums: (Vec<u32>, Vec<u32>),
    /// Per-file checksums on both seats, promotion arm.
    pub promo_sums: (Vec<u32>, Vec<u32>),
    /// The mid-outage federated read returned the written bytes (per arm).
    pub outage_read_ok: [bool; 2],
    /// What the injector did in the promotion arm.
    pub faults: FaultStats,
}

impl FederationHaReport {
    /// Zero acked-byte loss across every arm: all six checksum vectors are
    /// bit-identical to the fault-free run.
    pub fn converged(&self) -> bool {
        self.failover_sums.0 == self.fault_free_sums
            && self.failover_sums.1 == self.fault_free_sums
            && self.promo_sums.0 == self.fault_free_sums
            && self.promo_sums.1 == self.fault_free_sums
    }
}

/// The promotion arm: the same federated write as [`federation_run`], but
/// with every shard under membership governance (forward + reverse
/// replicators, epoch fencing, quorum promotion) and the replica of every
/// pair fronted by a PR-9 block cache so failover reads during the outage
/// are warm. Returns the arm plus membership observables.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn federation_ha_run(
    shards: usize,
    files: usize,
    bytes_per_file: u64,
    chunk: u64,
    seed: u64,
    crash: (Dur, Dur),
    heartbeat: Dur,
    lease: Dur,
) -> (
    FedArm,
    PromotionLedger,
    Vec<u64>,
    Vec<usize>,
    CacheStats,
    u64,
    u64,
    Vec<(ReplStats, ReplStats)>,
) {
    let sim = SimRuntime::new();
    sim.run_root(move |rt| {
        let net = Network::new(rt.clone());
        let mut fed_shards = Vec::with_capacity(shards);
        let mut primary_servers = Vec::with_capacity(shards);
        let mut replica_servers = Vec::with_capacity(shards);
        for s in 0..shards {
            let route = |name: String, bw_mbps: f64, lat_ms: u64| ConnRoute {
                fwd: vec![net.add_link(
                    &format!("{name}-fwd"),
                    Bw::mbps(bw_mbps),
                    Dur::from_millis(lat_ms),
                )],
                rev: vec![net.add_link(
                    &format!("{name}-rev"),
                    Bw::mbps(bw_mbps),
                    Dur::from_millis(lat_ms),
                )],
                send_cap: None,
                recv_cap: None,
                bus: None,
            };
            let primary = SrbServer::new(net.clone(), SrbServerCfg::default());
            let replica = SrbServer::new(net.clone(), SrbServerCfg::default());
            for srv in [&primary, &replica] {
                srv.mcat().add_user("u", "p");
                srv.mcat().add_user("fed", "fed");
            }
            // Satellite of PR 10: the replica carries the PR-9 block cache,
            // so mid-outage failover reads are served from warm memory.
            replica.set_block_cache(CacheSpec::default());
            let cfg = |r: ConnRoute| SrbFsConfig {
                route: r,
                user: "u".into(),
                password: "p".into(),
            };
            let primary_fs = SrbFs::with_retry(
                primary.clone(),
                cfg(route(format!("s{s}-client-primary"), 50.0, 10)),
                RetryPolicy::none(),
            );
            let replica_fs = SrbFs::with_retry(
                replica.clone(),
                cfg(route(format!("s{s}-client-replica"), 50.0, 10)),
                RetryPolicy::none(),
            );
            let forward = Replicator::start(
                &rt,
                primary.clone(),
                replica.clone(),
                route(format!("s{s}-repl"), 1000.0, 1),
                "fed",
                "fed",
                RetryPolicy::default(),
            );
            let reverse = Replicator::start_inactive(
                &rt,
                replica.clone(),
                primary.clone(),
                route(format!("s{s}-repl-rev"), 1000.0, 1),
                "fed",
                "fed",
                RetryPolicy::default(),
            );
            primary_servers.push(primary);
            replica_servers.push(replica);
            fed_shards.push(FedShard {
                primary: primary_fs,
                replica: replica_fs,
                replicator: Some(forward),
                reverse: Some(reverse),
            });
        }
        let fed = FedFs::new(&rt, fed_shards);
        let membership = fed.enable_membership(MembershipCfg {
            heartbeat_every: heartbeat,
            lease_timeout: lease,
            hop_delay: Dur::from_millis(1),
            base_epoch: 1,
            witnesses: 0,
        });
        fed.mk_coll_all("/fed").expect("mk /fed everywhere");
        let paths: Vec<String> = (0..files).map(|i| format!("/fed/data{i}")).collect();
        let crashed_shard = fed.shard_of(&paths[0]);
        let (at, down_for) = crash;
        let inj = FaultPlan::new(seed).server_crash_at(at, down_for).inject(
            &rt,
            &net,
            &primary_servers[crashed_shard],
        );

        let mut handles: Vec<Box<dyn AdioFile>> = paths
            .iter()
            .map(|p| fed.open(p, OpenFlags::CreateRw).expect("open federated"))
            .collect();
        let chunks = bytes_per_file / chunk;
        let mut outage_read_ok = None;
        let t0 = rt.now();
        for c in 0..chunks {
            for (i, h) in handles.iter_mut().enumerate() {
                let data = Payload::bytes(fed_pattern(i, c * chunk, chunk));
                let n = h.write_at(c * chunk, &data).expect("federated write");
                assert_eq!(n, chunk, "short federated write");
            }
            if outage_read_ok.is_none() && fed.failovers() > 0 {
                let mut r = fed.open(&paths[0], OpenFlags::Read).expect("outage open");
                let got = r.read_at(0, chunk).expect("outage read");
                let _ = r.close();
                outage_read_ok = Some(got.data() == Some(&fed_pattern(0, 0, chunk)[..]));
            }
        }
        let secs = (rt.now() - t0).as_secs_f64();
        // Untimed warm-read pair against the promoted seat: the first
        // populates its block cache, the second must be served from it.
        {
            let mut r = fed.open(&paths[0], OpenFlags::Read).expect("warm open");
            for _ in 0..2 {
                let got = r.read_at(0, chunk).expect("warm read");
                assert_eq!(
                    got.data(),
                    Some(&fed_pattern(0, 0, chunk)[..]),
                    "warm read bytes"
                );
            }
            let _ = r.close();
        }
        for mut h in handles {
            h.close().expect("close federated");
        }
        while !inj.done() {
            rt.sleep(Dur::from_millis(100));
        }
        // The deposed primary restarts hard-fenced; membership certifies it
        // back in as the shard's replica. Wait for the rejoin, then settle
        // replication in both directions and replay any residue.
        let mut rounds = 0;
        while primary_servers[crashed_shard].is_fenced() {
            rounds += 1;
            assert!(rounds < 600, "deposed primary never rejoined");
            rt.sleep(Dur::from_millis(10));
        }
        while !fed.reconcile() {
            rt.sleep(Dur::from_millis(50));
        }
        for shard in fed.shards() {
            for repl in [&shard.replicator, &shard.reverse].into_iter().flatten() {
                repl.quiesce();
            }
        }
        let mut primary_sums = Vec::with_capacity(files);
        let mut replica_sums = Vec::with_capacity(files);
        for p in &paths {
            let shard = &fed.shards()[fed.shard_of(p)];
            let conn = shard.primary.admin_conn().expect("primary admin");
            primary_sums.push(conn.checksum(p).expect("primary checksum"));
            let _ = conn.disconnect();
            let conn = shard.replica.admin_conn().expect("replica admin");
            replica_sums.push(conn.checksum(p).expect("replica checksum"));
            let _ = conn.disconnect();
        }
        let arm = FedArm {
            secs,
            primary_sums,
            replica_sums,
            failovers: fed.failovers(),
            recovery: fed.recovery_stats(),
            ledger: fed.reconcile_ledger(),
            repl: Vec::new(),
            outage_read_ok: outage_read_ok.unwrap_or(false),
            faults: Some(inj.stats()),
        };
        let repl = fed
            .shards()
            .iter()
            .map(|s| {
                (
                    s.replicator.as_ref().expect("forward").stats(),
                    s.reverse.as_ref().expect("reverse").stats(),
                )
            })
            .collect();
        (
            arm,
            membership.ledger(),
            (0..shards).map(|s| membership.epoch(s)).collect(),
            (0..shards).map(|s| membership.primary_of(s)).collect(),
            replica_servers[crashed_shard].cache_stats(),
            primary_servers[crashed_shard].fenced_rejects(),
            fed.divergence_high_water(),
            repl,
        )
    })
}

/// The federation HA experiment (PR 10): the same federated write run
/// three ways — fault-free, failover-only (PR 5 recovery), and under
/// membership governance where the crashed primary's lease expires, the
/// replica is promoted by quorum vote at a bumped epoch, and the deposed
/// primary rejoins fenced. The promotion arm must retain strictly more
/// goodput than failover-only (writes stop detouring once the replica
/// *is* the primary) with zero acked-byte loss on any seat.
#[allow(clippy::too_many_arguments)]
pub fn fig_federation_ha(
    shards: usize,
    files: usize,
    bytes_per_file: u64,
    chunk: u64,
    seed: u64,
    crash_at: Dur,
    down_for: Dur,
    heartbeat: Dur,
    lease: Dur,
) -> FederationHaReport {
    let clean = federation_run(shards, files, bytes_per_file, chunk, seed, None);
    let failover = federation_run(
        shards,
        files,
        bytes_per_file,
        chunk,
        seed,
        Some((crash_at, down_for)),
    );
    let (promo, ledger, epochs, primaries, replica_cache, fenced_rejects, promo_hw, repl) =
        federation_ha_run(
            shards,
            files,
            bytes_per_file,
            chunk,
            seed,
            (crash_at, down_for),
            heartbeat,
            lease,
        );
    let total_bits = (files as u64 * bytes_per_file) as f64 * 8.0;
    FederationHaReport {
        shards,
        files,
        bytes_per_file,
        seed,
        crash_at_secs: crash_at.as_secs_f64(),
        down_for_secs: down_for.as_secs_f64(),
        heartbeat_ms: heartbeat.as_millis(),
        lease_ms: lease.as_millis(),
        fault_free_secs: clean.secs,
        fault_free_mbps: total_bits / clean.secs / 1e6,
        failover_secs: failover.secs,
        failover_mbps: total_bits / failover.secs / 1e6,
        promo_secs: promo.secs,
        promo_mbps: total_bits / promo.secs / 1e6,
        failovers: [failover.failovers, promo.failovers],
        div_high_water: [
            failover
                .repl
                .iter()
                .map(|r| r.queue_high_water)
                .max()
                .unwrap_or(0),
            promo_hw,
        ],
        ledger,
        epochs,
        primaries,
        replica_cache,
        fenced_rejects,
        repl,
        fault_free_sums: clean.primary_sums,
        failover_sums: (failover.primary_sums, failover.replica_sums),
        promo_sums: (promo.primary_sums, promo.replica_sums),
        outage_read_ok: [failover.outage_read_ok, promo.outage_read_ok],
        faults: promo.faults.expect("promotion arm has an injector"),
    }
}

/// One arm of the strided-access comparison (`fig_strided`).
#[derive(Clone, Copy, Debug)]
pub struct StridedArm {
    /// Access strategy.
    pub name: &'static str,
    /// Strided write time, s.
    pub write_secs: f64,
    /// Strided read-back time, s.
    pub read_secs: f64,
    /// Server requests the timed phases consumed (the RTT-bound quantity).
    pub requests: u64,
    /// Payload bytes the client's stream meter credited across the run.
    /// Goodput is payload-only: sieved holes and read-modify-write
    /// overhead must not show up here, so every arm meters the same count.
    pub metered_bytes: u64,
}

/// The Thakur et al. noncontiguous-access gap, reproduced over a WAN: a
/// strided fragment pattern (`frags` fragments of `frag_bytes` every
/// `stride` bytes) written and read back on one 100 Mb/s / 91 ms-OWD
/// stream. `arm` 0 accesses each fragment with its own request (one RTT
/// apiece); arm 1 ships the whole extent list in one list-I/O exchange;
/// arm 2 turns on data sieving (threshold 1.0), trading hole bytes on the
/// wire for a single covering extent in each direction.
pub fn fig_strided_arm(arm: usize, frags: u64, frag_bytes: u64, stride: u64) -> StridedArm {
    assert!(frag_bytes <= stride, "fragments must not overlap");
    let sim = SimRuntime::new();
    sim.run_root(move |rt| {
        let net = Network::new(rt.clone());
        let up = net.add_link("up", Bw::mbps(100.0), Dur::from_millis(91));
        let down = net.add_link("down", Bw::mbps(100.0), Dur::from_millis(91));
        let server = SrbServer::new(net, SrbServerCfg::default());
        server.mcat().add_user("u", "p");
        let fs = SrbFs::new(
            server.clone(),
            SrbFsConfig {
                route: ConnRoute {
                    fwd: vec![up],
                    rev: vec![down],
                    send_cap: None,
                    recv_cap: None,
                    bus: None,
                },
                user: "u".into(),
                password: "p".into(),
            },
        );
        let (name, threshold) = match arm {
            0 => ("per-fragment", 0.0),
            1 => ("list-I/O", 0.0),
            _ => ("data sieving", 1.0),
        };
        fs.set_sieve_threshold(threshold);
        let extents: Vec<(u64, u64)> = (0..frags).map(|i| (i * stride, frag_bytes)).collect();
        let total = frags * frag_bytes;
        let span = (frags - 1) * stride + frag_bytes;
        let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        let f = File::open(&rt, &fs, "/strided", OpenFlags::CreateRw).expect("open strided");
        // Prepopulate the span so write-back sieving has real hole bytes to
        // preserve, and every arm times the same starting file state.
        f.write_at(
            0,
            &Payload::bytes((0..span).map(|i| (i % 13) as u8).collect()),
        )
        .expect("prepopulate");
        let meter0 = f.meter().map_or(0, |m| m.payload_bytes);
        let req0 = server.stats().requests;

        let t0 = rt.now();
        if arm == 0 {
            let mut cursor = 0usize;
            for &(off, len) in &extents {
                let piece = data[cursor..cursor + len as usize].to_vec();
                cursor += len as usize;
                f.write_at(off, &Payload::bytes(piece))
                    .expect("fragment write");
            }
        } else {
            f.write_list(&extents, &Payload::bytes(data.clone()))
                .expect("list write");
        }
        let t1 = rt.now();
        let back: Vec<u8> = if arm == 0 {
            let mut out = Vec::with_capacity(total as usize);
            for &(off, len) in &extents {
                out.extend_from_slice(
                    f.read_at(off, len)
                        .expect("fragment read")
                        .data()
                        .expect("real"),
                );
            }
            out
        } else {
            f.read_list(&extents)
                .expect("list read")
                .data()
                .expect("real")
                .to_vec()
        };
        let t2 = rt.now();
        assert_eq!(back, data, "strided read-back mismatch");

        let requests = server.stats().requests - req0;
        let metered_bytes = f.meter().map_or(0, |m| m.payload_bytes) - meter0;
        f.close().expect("close strided");
        StridedArm {
            name,
            write_secs: (t1 - t0).as_secs_f64(),
            read_secs: (t2 - t1).as_secs_f64(),
            requests,
            metered_bytes,
        }
    })
}

/// The collective face of the same gap: the `rows x 4` column-distributed
/// matrix write on das2, naive per-cell vs naive-with-list-I/O vs
/// two-phase aggregation. Each arm runs in its own fresh simulation.
pub fn fig_strided_collective(rows: usize) -> Vec<CollectiveReport> {
    [
        CollectiveMode::Naive,
        CollectiveMode::NaiveList,
        CollectiveMode::TwoPhaseSync,
    ]
    .into_iter()
    .map(|mode| {
        with_testbed(semplar_clusters::das2(), 4, move |tb| {
            run_collective(
                &tb,
                4,
                CollectiveParams {
                    rows,
                    cell_bytes: 8 * 1024,
                    aggregators: 2,
                    bands: 4,
                    steps: 1,
                    compute_per_step: 0.0,
                    mode,
                },
            )
        })
    })
    .collect()
}

/// One row of the `fig_cache` pass table: a cold sequential pass over a
/// working set, then a second ("warm") pass over the same bytes, on a
/// deliberately disk-bound testbed.
#[derive(Clone, Debug)]
pub struct CachePassRow {
    /// Arm label.
    pub name: String,
    /// First-pass (cold) wall time, virtual seconds.
    pub cold_secs: f64,
    /// Second-pass (warm) wall time, virtual seconds.
    pub warm_secs: f64,
    /// Bytes the application read per pass.
    pub pass_bytes: u64,
    /// Server block-cache counters after both passes.
    pub cache: semplar_srb::CacheStats,
    /// Client lease-cache counters after both passes (zeros unless the
    /// arm enables leases).
    pub lease: semplar::LeaseStats,
}

impl CachePassRow {
    /// Application goodput of the cold pass, Mb/s.
    pub fn cold_mbps(&self) -> f64 {
        self.pass_bytes as f64 * 8.0 / self.cold_secs / 1e6
    }

    /// Warm-over-cold speedup; `None` when the warm pass took zero
    /// virtual time (pure client-cache hits — no wire, no disk).
    pub fn speedup(&self) -> Option<f64> {
        (self.warm_secs > 0.0).then(|| self.cold_secs / self.warm_secs)
    }
}

/// The cluster for the cache experiment: TG-NCSA geometry with WAN-tuned
/// TCP windows, so a single stream is limited by the 220 Mb/s WAN share
/// rather than the window — which leaves the (slowed) vault as the cold
/// bottleneck.
fn cache_cluster() -> ClusterSpec {
    ClusterSpec {
        send_window: 4 << 20,
        recv_window: 4 << 20,
        ..semplar_clusters::tg_ncsa()
    }
}

/// The slowed server disk: 1 MB/s + 2 ms seek, with dslab-style
/// concurrency degradation (0.3) so concurrent misses also contend.
fn cache_disk() -> DiskSpec {
    DiskSpec {
        bandwidth: Bw::mbyte_per_s(1.0),
        seek: Dur::from_millis(2),
        degradation: 0.3,
    }
}

/// One `fig_cache` arm: write `objects` objects of `obj_bytes` each, then
/// read them all twice (cold, warm). `cache_bytes > 0` installs a server
/// block cache of that capacity; `leases`
/// additionally turns on client read leases (same capacity).
pub fn fig_cache_arm(
    name: &str,
    objects: usize,
    obj_bytes: u64,
    cache_bytes: u64,
    leases: bool,
) -> CachePassRow {
    let name = name.to_string();
    let sim = SimRuntime::new();
    sim.run_root(move |rt| {
        let tb = Testbed::with_server_disk(rt.clone(), cache_cluster(), 1, cache_disk());
        if cache_bytes > 0 {
            tb.server.set_block_cache(CacheSpec {
                block: 256 << 10,
                capacity: cache_bytes,
            });
        }
        let fs = tb.srbfs(0);
        if leases {
            fs.enable_read_leases(cache_bytes.max(1));
        }
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
        CachePassRow {
            name,
            cold_secs,
            warm_secs,
            pass_bytes: objects as u64 * obj_bytes,
            cache: tb.server.cache_stats(),
            lease: fs.lease_stats(),
        }
    })
}

/// One row of the `fig_cache` swarm table: a Zipf-skewed client swarm on
/// the disk-bound testbed, with and without the server block cache.
#[derive(Clone, Debug)]
pub struct CacheSwarmRow {
    /// Arm label.
    pub name: String,
    /// First arrival to last completion, virtual seconds.
    pub secs: f64,
    /// Sessions that completed fully.
    pub completed: usize,
    /// Server block-cache counters after the run.
    pub cache: semplar_srb::CacheStats,
}

/// The swarm arm: `clients` sessions, 1 write + 4 reads of 64 KiB each,
/// Zipf(0.99) over `hot_objects` shared objects.
pub fn fig_cache_swarm(
    name: &str,
    clients: usize,
    hot_objects: usize,
    cache_bytes: u64,
) -> CacheSwarmRow {
    let name = name.to_string();
    let sim = SimRuntime::new();
    sim.run_root(move |rt| {
        let tb = Testbed::with_server_disk(rt.clone(), cache_cluster(), 2, cache_disk());
        if cache_bytes > 0 {
            tb.server.set_block_cache(CacheSpec {
                block: 64 << 10,
                capacity: cache_bytes,
            });
        }
        let params = SwarmParams {
            clients,
            writes: 1,
            reads: 4,
            bytes_per_op: 64 << 10,
            skew: Some(semplar_workloads::AccessSkew {
                theta: 0.99,
                hot_objects,
            }),
            coll: "/zipf".into(),
            ..SwarmParams::quick()
        };
        let report = run_swarm(&tb, &params);
        CacheSwarmRow {
            name,
            secs: report.secs,
            completed: report.completed(),
            cache: tb.server.cache_stats(),
        }
    })
}
