//! # semplar-bench
//!
//! What the figure binaries under `src/bin/` share. Every binary owns its
//! figure — parameters, scenario, table — and regenerates one table of the
//! paper's evaluation (§7) or of this reproduction's extensions, printing
//! it beside the paper's reported numbers. This library holds only what at
//! least two of them use: the command-line flag parser, the
//! one-simulation-one-testbed runner, the table printer, the availability
//! fault plan, two footer formatters, the paper's mean-ratio statistic and
//! the federated-write run behind `fig_federation` and `fig_federation_ha`.

#![warn(missing_docs)]

use std::sync::Arc;

use semplar::{AdioFile, AdioFs, FedFs, OpenFlags, Payload, ReconcileLedger, RecoveryStats};
use semplar_clusters::{ClusterSpec, FedTestbed, Testbed};
use semplar_faults::{FaultPlan, FaultStats};
use semplar_netsim::LinkId;
use semplar_runtime::{Dur, SimRuntime, SimStats, Time};
use semplar_srb::{CacheSpec, CacheStats, MembershipCfg, PromotionLedger, ReplStats};

pub mod table;
pub use table::Table;

/// Which of the flags this binary knows were given on the command line,
/// one `bool` per entry of `known`. Any other argument prints a usage
/// line and exits with status 2 — a typo such as `--quik` must not
/// silently run the full-size figure.
pub fn flags<const N: usize>(known: [&str; N]) -> [bool; N] {
    parse_flags(known, std::env::args()).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2)
    })
}

/// [`flags`] over an explicit argument list (program name first); `Err`
/// carries the message to print.
fn parse_flags<const N: usize>(
    known: [&str; N],
    mut args: impl Iterator<Item = String>,
) -> Result<[bool; N], String> {
    let bin = args.next().unwrap_or_default();
    let mut given = [false; N];
    for arg in args {
        match known.iter().position(|k| *k == arg) {
            Some(i) => given[i] = true,
            None => {
                let usage = known.map(|k| format!(" [{k}]")).concat();
                return Err(format!("unknown argument `{arg}`\nusage: {bin}{usage}"));
            }
        }
    }
    Ok(given)
}

/// Run `f` inside a fresh virtual-time simulation with a testbed of
/// `nodes` nodes of `spec`; returns `f`'s result and the simulation's
/// engine counters.
pub fn with_testbed<T, F>(spec: ClusterSpec, nodes: usize, f: F) -> (T, SimStats)
where
    T: Send + 'static,
    F: FnOnce(Arc<Testbed>) -> T + Send + 'static,
{
    let sim = SimRuntime::new();
    let out = sim.run_root(move |rt| f(Testbed::new(rt, spec, nodes)));
    (out, sim.stats())
}

/// The paper's sweep statistic: the mean of each pair's first member over
/// the mean of its second. "Sync is X % slower on average" is
/// `mean_ratio((sync, async)) − 1`; "two streams give X % more bandwidth"
/// is `mean_ratio((two, one)) − 1`.
pub fn mean_ratio(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for (a, b) in pairs {
        num += a;
        den += b;
    }
    num / den
}

/// The availability fault mix: two 300 ms flaps of the WAN uplink, a
/// 4 MiB vault stall, a reset of every connection, and a server crash
/// that restarts after `down_for` — starting at the four offsets of `at`,
/// in that order, from the moment the plan is injected.
///
/// A cut is noticed when it happens, so the reset's reconnects follow it
/// by a backoff and a handshake: place the crash after them, and before
/// the run ends, to hit live connections again.
pub fn availability_plan(seed: u64, wan_up: LinkId, at: [Dur; 4], down_for: Dur) -> FaultPlan {
    let [flap, stall, reset, crash] = at;
    FaultPlan::new(seed)
        .link_flap(wan_up, flap, Dur::from_millis(300), 2)
        .vault_stall_at(stall, 4 << 20)
        .conn_reset_at(reset)
        .server_crash_at(crash, down_for)
}

/// Print an injector's ledger, one event per line, under `title`.
pub fn print_fault_ledger(title: &str, faults: &FaultStats) {
    println!("{title}:");
    for (at, what) in &faults.ledger {
        println!("  [{:9.3} s] {what}", (*at - Time::ZERO).as_secs_f64());
    }
}

/// The engine-counter footer: thread actors vs event-driven tasks.
pub fn engine_footer(sim: &SimStats) -> String {
    format!(
        "engine — {} thread actors spawned (peak {}), {} tasks spawned (peak {})",
        sim.actors_spawned, sim.peak_live_actors, sim.tasks_spawned, sim.peak_live_tasks
    )
}

/// One replicator's counters as a table cell.
pub fn shipped(r: &ReplStats) -> String {
    format!(
        "{} extents / {} blocks / {} MiB ({} re-ships)",
        r.enqueued,
        r.shipped_blocks,
        r.shipped_bytes >> 20,
        r.reships
    )
}

/// One federated-write run: what to write, and what goes wrong.
#[derive(Clone, Copy, Debug)]
pub struct FedRun {
    /// Shards (each a primary + replica server pair).
    pub shards: usize,
    /// Files written, hash-routed across the shards.
    pub files: usize,
    /// Bytes per file.
    pub bytes_per_file: u64,
    /// Bytes per write; files are written round-robin one chunk at a time.
    pub chunk: u64,
    /// Fault-plan seed.
    pub seed: u64,
    /// `(at, down_for)`: crash the primary owning file 0 this long after
    /// injection and restart it `down_for` later, so the outage lands on
    /// an actively written shard. `None` runs fault-free.
    pub crash: Option<(Dur, Dur)>,
    /// Put every shard under membership governance (reverse replicators,
    /// epoch fencing, quorum promotion) with a block cache on every
    /// replica. `None` is the failover-only federation.
    pub membership: Option<MembershipCfg>,
}

/// What one [`federation_run`] observed.
#[derive(Clone, Debug)]
pub struct FedArm {
    /// Virtual seconds the writes took (failover and reconciliation
    /// overlap them).
    pub secs: f64,
    /// Write goodput over those seconds, Mb/s.
    pub mbps: f64,
    /// Per-file checksums on seat 0 of the owning shard, after settling.
    pub primary_sums: Vec<u32>,
    /// Per-file checksums on seat 1 of the owning shard, after settling.
    pub replica_sums: Vec<u32>,
    /// The first read through the federation after a failover returned
    /// exactly the written bytes (`false` when none was observed in a
    /// crashed run).
    pub outage_read_ok: bool,
    /// Operations served by a seat other than the shard's primary.
    pub failovers: u64,
    /// Deepest any shard's divergence queue got, in extents.
    pub div_high_water: u64,
    /// Federation recovery counters.
    pub recovery: RecoveryStats,
    /// Deterministic replay ledger of the reconciliation rounds.
    pub reconcile: ReconcileLedger,
    /// Per shard: forward replicator counters, and the reverse
    /// replicator's when governed.
    pub repl: Vec<(ReplStats, Option<ReplStats>)>,
    /// What the injector did (empty without a crash).
    pub faults: FaultStats,
    /// Membership transitions (empty when ungoverned).
    pub promotions: PromotionLedger,
    /// Final epoch per shard (empty when ungoverned).
    pub epochs: Vec<u64>,
    /// Final primary seat per shard.
    pub primaries: Vec<usize>,
    /// Block-cache counters of the crashed shard's replica.
    pub replica_cache: CacheStats,
    /// Stale-epoch mutations the crashed shard's fenced old primary
    /// rejected.
    pub fenced_rejects: u64,
}

/// The deterministic bytes of federation file `file` at `offset`.
fn fed_pattern(file: usize, offset: u64, len: u64) -> Vec<u8> {
    (0..len)
        .map(|k| (((offset + k) as usize).wrapping_mul(131) + file * 29 + 17) as u8)
        .collect()
}

/// One federated write in a fresh simulation: `run.files` files written
/// round-robin in `run.chunk`-byte pieces through a [`FedFs`] over a
/// [`FedTestbed`]. Under `run.crash` writes and reads fail over to the
/// crashed shard's replica; failover-only, the divergent suffix is
/// replayed back once the primary restarts; governed, the replica is
/// promoted when the lease expires and the deposed primary rejoins fenced
/// and catches up over the reverse replicator. The arm is collected after
/// the plan, reconciliation and replication have all settled.
pub fn federation_run(run: FedRun) -> FedArm {
    SimRuntime::new().run_root(move |rt| {
        let governed = run.membership.is_some();
        let FedTestbed { net, shards } = FedTestbed::new(&rt, run.shards, governed, None);
        if governed {
            // Mid-outage failover reads are then served from warm memory.
            for shard in &shards {
                shard.replica.server().set_block_cache(CacheSpec::default());
            }
        }
        let fed = FedFs::new(&rt, shards);
        let membership = run.membership.map(|cfg| fed.enable_membership(cfg));
        fed.mk_coll_all("/fed").expect("mk /fed everywhere");
        let paths: Vec<String> = (0..run.files).map(|i| format!("/fed/data{i}")).collect();
        let crashed = &fed.shards()[fed.shard_of(&paths[0])];
        let inj = run.crash.map(|(at, down_for)| {
            FaultPlan::new(run.seed)
                .server_crash_at(at, down_for)
                .inject(&rt, &net, crashed.primary.server())
        });

        let mut handles: Vec<Box<dyn AdioFile>> = paths
            .iter()
            .map(|p| fed.open(p, OpenFlags::CreateRw).expect("open federated"))
            .collect();
        let mut outage_read_ok = None;
        let t0 = rt.now();
        for c in 0..run.bytes_per_file / run.chunk {
            for (i, h) in handles.iter_mut().enumerate() {
                let data = Payload::bytes(fed_pattern(i, c * run.chunk, run.chunk));
                let n = h.write_at(c * run.chunk, &data).expect("federated write");
                assert_eq!(n, run.chunk, "short federated write");
            }
            // First failover observed: read the crashed shard's file back
            // through the federation mid-outage. The replicator is
            // quiesced and the replica serves every acked byte.
            if outage_read_ok.is_none() && fed.failovers() > 0 {
                let mut r = fed.open(&paths[0], OpenFlags::Read).expect("outage open");
                let got = r.read_at(0, run.chunk).expect("outage read");
                let _ = r.close();
                outage_read_ok = Some(got.data() == Some(&fed_pattern(0, 0, run.chunk)[..]));
            }
        }
        let secs = (rt.now() - t0).as_secs_f64();
        if governed {
            // Untimed warm-read pair against the promoted seat: the first
            // populates its block cache, the second must be served from it.
            let mut r = fed.open(&paths[0], OpenFlags::Read).expect("warm open");
            for _ in 0..2 {
                let got = r.read_at(0, run.chunk).expect("warm read");
                let want = fed_pattern(0, 0, run.chunk);
                assert_eq!(got.data(), Some(&want[..]), "warm read bytes");
            }
            let _ = r.close();
        }
        for mut h in handles {
            h.close().expect("close federated");
        }
        // Let the plan finish (the restart may land after the writes), then
        // let the federation converge: a deposed primary is certified back
        // in, the divergence is replayed and replication drained.
        if let Some(inj) = &inj {
            inj.wait();
        }
        fed.converge().expect("federation converges");
        let sums = |seat: usize| -> Vec<u32> {
            paths
                .iter()
                .map(|p| {
                    let shard = &fed.shards()[fed.shard_of(p)];
                    let fs = [&shard.primary, &shard.replica][seat];
                    let conn = fs.admin_conn().expect("admin conn");
                    let sum = conn.checksum(p).expect("checksum");
                    let _ = conn.disconnect();
                    sum
                })
                .collect()
        };
        FedArm {
            secs,
            mbps: (run.files as u64 * run.bytes_per_file) as f64 * 8.0 / secs / 1e6,
            primary_sums: sums(0),
            replica_sums: sums(1),
            outage_read_ok: outage_read_ok.unwrap_or(run.crash.is_none()),
            failovers: fed.failovers(),
            div_high_water: fed.divergence_high_water(),
            recovery: fed.recovery_stats(),
            reconcile: fed.reconcile_ledger(),
            repl: fed
                .shards()
                .iter()
                .map(|s| {
                    let forward = s.replicator.as_ref().expect("forward replicator");
                    (forward.stats(), s.reverse.as_ref().map(|r| r.stats()))
                })
                .collect(),
            faults: inj.map(|i| i.stats()).unwrap_or_default(),
            promotions: membership.as_ref().map(|m| m.ledger()).unwrap_or_default(),
            epochs: membership
                .iter()
                .flat_map(|m| (0..run.shards).map(|s| m.epoch(s)))
                .collect(),
            primaries: (0..run.shards).map(|s| fed.primary_seat_of(s)).collect(),
            replica_cache: crashed.replica.server().cache_stats(),
            fenced_rejects: crashed.primary.server().fenced_rejects(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn flags_report_which_known_arguments_were_given() {
        let known = ["--quick", "--actors"];
        assert_eq!(parse_flags(known, args(&["fig"])), Ok([false, false]));
        assert_eq!(
            parse_flags(known, args(&["fig", "--actors"])),
            Ok([false, true])
        );
        assert_eq!(
            parse_flags(known, args(&["fig", "--actors", "--quick"])),
            Ok([true, true])
        );
    }

    #[test]
    fn flags_reject_anything_else_with_a_usage_line() {
        let err = parse_flags(["--quick"], args(&["fig_availability", "--quik"])).unwrap_err();
        assert!(err.contains("unknown argument `--quik`"), "{err}");
        assert!(err.ends_with("usage: fig_availability [--quick]"), "{err}");
        // A binary without flags takes no arguments at all.
        let err = parse_flags([], args(&["ablations", "--quick"])).unwrap_err();
        assert!(err.ends_with("usage: ablations"), "{err}");
    }

    #[test]
    fn mean_ratio_is_the_ratio_of_the_means() {
        let pairs = [(3.0, 1.0), (5.0, 3.0)];
        assert_eq!(mean_ratio(pairs.into_iter()), 2.0);
    }
}
