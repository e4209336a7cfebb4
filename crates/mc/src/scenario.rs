//! The bounded scenarios the model checker explores.
//!
//! A [`Scenario`] is a self-contained, bounded, virtual-time experiment:
//! each call to [`Scenario::run`] builds a **fresh** simulation, installs
//! the given [`ScriptHook`], executes the workload, and checks its
//! invariants, returning `Err(violation)` when one fails. Runs must be
//! deterministic given the hook's script — that is what makes a recorded
//! counterexample replayable.
//!
//! The flagship scenario is [`FederationScenario`]: a 2-shard federated
//! namespace with write-path replication, a mid-write crash+restart of
//! the primary that owns the first file, failover writes and reads,
//! and post-restart reconciliation — the protocol stack from PR 5, now
//! under *every* reachable schedule instead of one seeded one. Invariants:
//!
//! 1. **No acked byte lost** — a mid-outage read through the federation
//!    returns exactly the written prefix, and final checksums on every
//!    primary *and* replica equal the checksum of the written pattern.
//! 2. **Reconcile converges** — within `FedFs::converge`'s bound the
//!    divergence queues drain.
//! 3. **Primary/replica convergence** — post-reconcile checksums match
//!    across the pair.
//! 4. **No deadlock** — a poisoned simulation (every actor blocked, no
//!    timer pending) is reported as a violation, not a hang.
//! 5. **Bounded divergence** — the divergence queue never exceeds the
//!    number of extents actually written.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use semplar::{AdioFile, AdioFs, FedFs, FedShard, OpenFlags, Payload, ReconcileLedger, SrbFs};
use semplar_clusters::FedTestbed;
use semplar_faults::{FaultInjector, FaultPlan, FaultStats};
use semplar_runtime::{Dur, Runtime, SimRuntime};
use semplar_srb::adler32;

use crate::script::ScriptHook;

/// A bounded, deterministic, invariant-checked experiment.
pub trait Scenario: Send + Sync {
    /// Name recorded in counterexample traces.
    fn name(&self) -> &str;

    /// Execute one schedule from scratch. `Ok(())` means every invariant
    /// held; `Err` carries the violation message.
    fn run(&self, hook: Arc<ScriptHook>) -> Result<(), String>;
}

/// A deliberately broken invariant, used to prove the counterexample
/// pipeline works end to end. Test-only in spirit: nothing in the repo
/// enables one outside tests and the `--broken` flag of the bench bin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrokenInvariant {
    /// Assert that no operation ever fails over to a replica — guaranteed
    /// false under a mid-write primary crash, so exploration must find
    /// and pin a schedule that violates it.
    NoFailoverEver,
}

/// Everything observable about one federation run. Two runs with equal
/// observations behaved bit-identically at the protocol level.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunObservation {
    /// The fault injector's ledger (virtual-time stamped).
    pub fault_stats: FaultStats,
    /// The federation's reconciliation ledger.
    pub ledger: ReconcileLedger,
    /// Per-file checksums on the owning primaries.
    pub primary_sums: Vec<u32>,
    /// Per-file checksums on the replicas.
    pub replica_sums: Vec<u32>,
    /// Operations served by replicas during the outage.
    pub failovers: u64,
    /// Completed reconciliation rounds.
    pub reconciles: u64,
    /// Bytes replayed by reconciliation.
    pub reconciled_bytes: u64,
    /// Schedule choice points hit during the run.
    pub choice_points: u64,
}

/// The 2-shard mid-write crash/reconcile scenario (see module docs).
#[derive(Clone, Debug)]
pub struct FederationScenario {
    /// Seed for the fault plan.
    pub seed: u64,
    /// Shard count (primary+replica pairs).
    pub shards: usize,
    /// Files written round-robin across the namespace.
    pub files: usize,
    /// Bytes written per file.
    pub bytes_per_file: u64,
    /// Write chunk size.
    pub chunk: u64,
    /// When the owning primary crashes (virtual time from workload start).
    pub crash_at: Dur,
    /// How long it stays down.
    pub crash_down_for: Dur,
    /// Eligibility window handed to the schedule hook: pending events
    /// within this span of the earliest one become one choice point.
    pub window: Dur,
    /// When set, a **second** fault plan crashes the *other* shard's
    /// primary at the given (start, down-for) — overlapping the first
    /// outage, so for a stretch every shard is serving from its replica
    /// at once. The invariants are unchanged: acked bytes survive, both
    /// pairs reconverge.
    pub second_crash: Option<(Dur, Dur)>,
    /// Optional deliberately broken invariant.
    pub broken: Option<BrokenInvariant>,
}

impl FederationScenario {
    /// The bounded exploration payload: 2 shards, 2 files of 256 KiB in
    /// 64 KiB chunks, primary crash at 100 ms for 150 ms. Small enough
    /// that thousands of schedules run in seconds, large enough that the
    /// crash lands mid-write with unshipped replication blocks in flight.
    pub fn quick(seed: u64) -> FederationScenario {
        FederationScenario {
            seed,
            shards: 2,
            files: 2,
            bytes_per_file: 256 << 10,
            chunk: 64 << 10,
            crash_at: Dur::from_millis(100),
            crash_down_for: Dur::from_millis(150),
            window: Dur::from_millis(5),
            second_crash: None,
            broken: None,
        }
    }

    /// [`FederationScenario::quick`] plus an overlapping crash of the
    /// *second* shard's primary: shard 0 is down 100–250 ms, shard 1 is
    /// down 140–290 ms, so from 140 ms to 250 ms **no** primary is up and
    /// every operation in the namespace is running on replicas.
    pub fn double_crash(seed: u64) -> FederationScenario {
        FederationScenario {
            second_crash: Some((Dur::from_millis(140), Dur::from_millis(150))),
            ..FederationScenario::quick(seed)
        }
    }

    /// The same scenario with a deliberately broken invariant installed.
    pub fn with_broken(mut self, broken: BrokenInvariant) -> FederationScenario {
        self.broken = Some(broken);
        self
    }

    /// The deterministic byte at `offset + k` of file `file`.
    fn pattern(file: usize, offset: u64, len: u64) -> Vec<u8> {
        (0..len)
            .map(|k| (((offset + k) as usize).wrapping_mul(131) + file * 29 + 17) as u8)
            .collect()
    }

    /// Execute one schedule and return the full observation. `hook: None`
    /// runs the plain engine (no hook installed at all) — the baseline
    /// the default-schedule hook must match bit-for-bit.
    pub fn observe(&self, hook: Option<Arc<ScriptHook>>) -> Result<RunObservation, String> {
        let sim = SimRuntime::new();
        if let Some(h) = hook {
            sim.set_schedule_hook(h, self.window);
        }
        let cfg = self.clone();
        let result = catch_unwind(AssertUnwindSafe(|| sim.run_root(move |rt| cfg.body(rt))));
        let choice_points = sim.stats().choice_points;
        match result {
            Ok(Ok(mut obs)) => {
                obs.choice_points = choice_points;
                Ok(obs)
            }
            Ok(Err(violation)) => Err(violation),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "opaque panic".to_string());
                Err(format!("simulation panicked: {msg}"))
            }
        }
    }

    /// The workload body, run as the simulation's root actor.
    fn body(&self, rt: Arc<dyn Runtime>) -> Result<RunObservation, String> {
        let FedTestbed { net, shards } = FedTestbed::new(&rt, self.shards, false, None);
        let fed = FedFs::new(&rt, shards);
        fed.mk_coll_all("/fed")
            .map_err(|e| format!("mk /fed: {e:?}"))?;
        let paths: Vec<String> = (0..self.files).map(|i| format!("/fed/data{i}")).collect();
        let first_shard = fed.shard_of(&paths[0]);
        let mut injectors = vec![FaultPlan::new(self.seed)
            .server_crash_at(self.crash_at, self.crash_down_for)
            .inject(&rt, &net, fed.shards()[first_shard].primary.server())];
        if let Some((at, down_for)) = self.second_crash {
            // The overlapping outage lands on the *other* pair's primary.
            let other = (first_shard + 1) % self.shards;
            injectors.push(
                FaultPlan::new(self.seed ^ 0xd0b1e)
                    .server_crash_at(at, down_for)
                    .inject(&rt, &net, fed.shards()[other].primary.server()),
            );
        }
        let inj = &injectors[0];

        let mut handles: Vec<Box<dyn AdioFile>> = Vec::with_capacity(paths.len());
        for p in &paths {
            handles.push(
                fed.open(p, OpenFlags::CreateRw)
                    .map_err(|e| format!("open {p}: {e:?}"))?,
            );
        }
        let chunks = self.bytes_per_file / self.chunk;
        let total_extents = chunks as usize * self.files;
        let mut outage_read_checked = false;
        for c in 0..chunks {
            for (i, h) in handles.iter_mut().enumerate() {
                let data = Payload::bytes(Self::pattern(i, c * self.chunk, self.chunk));
                let n = h
                    .write_at(c * self.chunk, &data)
                    .map_err(|e| format!("write {}@{}: {e:?}", paths[i], c * self.chunk))?;
                if n != self.chunk {
                    return Err(format!(
                        "short write on {}: {n} != {}",
                        paths[i], self.chunk
                    ));
                }
            }
            // Invariant 5: divergence stays bounded by what was written.
            let div = fed.divergent_extents();
            if div > total_extents {
                return Err(format!(
                    "divergence queue unbounded: {div} extents queued, only {total_extents} written"
                ));
            }
            if !outage_read_checked && fed.failovers() > 0 {
                // Invariant 1 (during the outage): the replica must serve
                // every acked byte of the crashed shard's file.
                let mut r = fed
                    .open(&paths[0], OpenFlags::Read)
                    .map_err(|e| format!("outage open: {e:?}"))?;
                let got = r
                    .read_at(0, self.chunk)
                    .map_err(|e| format!("outage read: {e:?}"))?;
                let _ = r.close();
                let want = Self::pattern(0, 0, self.chunk);
                if got.data().map(|d| d != &want[..]).unwrap_or(true) {
                    return Err("acked bytes lost during outage".to_string());
                }
                outage_read_checked = true;
            }
        }
        for mut h in handles {
            h.close().map_err(|e| format!("close: {e:?}"))?;
        }
        injectors.iter().for_each(FaultInjector::wait);
        // Invariant 2: the federation converges in bounded virtual time.
        fed.converge().map_err(|e| {
            format!(
                "federation did not converge ({e}): {} divergent extents",
                fed.divergent_extents()
            )
        })?;
        if fed.divergent_extents() != 0 {
            return Err("divergence queue not drained after reconcile".to_string());
        }
        // Invariants 1 + 3: every primary and replica checksum equals the
        // checksum of the bytes the workload wrote.
        let sums = |pick: fn(&FedShard) -> &Arc<SrbFs>| -> Result<Vec<u32>, String> {
            paths
                .iter()
                .map(|p| {
                    let conn = pick(&fed.shards()[fed.shard_of(p)])
                        .admin_conn()
                        .map_err(|e| format!("admin conn: {e:?}"))?;
                    let sum = conn
                        .checksum(p)
                        .map_err(|e| format!("checksum {p}: {e:?}"))?;
                    let _ = conn.disconnect();
                    Ok(sum)
                })
                .collect()
        };
        let primary_sums = sums(|s| &s.primary)?;
        let replica_sums = sums(|s| &s.replica)?;
        for (i, p) in paths.iter().enumerate() {
            let want = adler32(&Self::pattern(i, 0, self.bytes_per_file));
            if primary_sums[i] != want {
                return Err(format!(
                    "acked bytes lost: primary checksum mismatch on {p}"
                ));
            }
            if replica_sums[i] != want {
                return Err(format!("replica diverged: checksum mismatch on {p}"));
            }
        }
        if self.broken == Some(BrokenInvariant::NoFailoverEver) && fed.failovers() > 0 {
            return Err(format!(
                "injected invariant: {} operations failed over",
                fed.failovers()
            ));
        }
        let recovery = fed.recovery_stats();
        Ok(RunObservation {
            fault_stats: inj.stats(),
            ledger: fed.reconcile_ledger(),
            primary_sums,
            replica_sums,
            failovers: fed.failovers(),
            reconciles: recovery.reconciles,
            reconciled_bytes: recovery.reconciled_bytes,
            choice_points: 0,
        })
    }
}

impl Scenario for FederationScenario {
    fn name(&self) -> &str {
        if self.second_crash.is_some() {
            "federation-double-crash"
        } else {
            "federation-crash"
        }
    }

    fn run(&self, hook: Arc<ScriptHook>) -> Result<(), String> {
        self.observe(Some(hook)).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, ExploreCfg, McTrace};

    #[test]
    fn default_schedule_upholds_every_invariant() {
        let sc = FederationScenario::quick(7);
        let obs = sc
            .observe(Some(ScriptHook::default_schedule()))
            .expect("run");
        assert!(obs.failovers > 0, "crash never forced a failover");
        assert!(obs.reconciled_bytes > 0, "nothing was reconciled");
        assert!(obs.choice_points > 0, "no schedule choice points surfaced");
    }

    #[test]
    fn default_hook_matches_the_plain_engine_bit_for_bit() {
        let sc = FederationScenario::quick(11);
        let plain = sc.observe(None).expect("plain run");
        let mut hooked = sc
            .observe(Some(ScriptHook::default_schedule()))
            .expect("hooked run");
        assert_eq!(plain.choice_points, 0);
        assert!(hooked.choice_points > 0);
        hooked.choice_points = 0;
        assert_eq!(
            plain, hooked,
            "the default-schedule strategy must reproduce the stock engine"
        );
    }

    #[test]
    fn double_crash_upholds_every_invariant() {
        let sc = FederationScenario::double_crash(7);
        let obs = sc
            .observe(Some(ScriptHook::default_schedule()))
            .expect("double-crash run");
        assert!(obs.failovers > 0, "neither outage forced a failover");
        assert!(obs.reconciled_bytes > 0, "nothing was reconciled");
        // Both pairs reconverged: the checksum loop inside the run already
        // proved every sum matches the written pattern.
        assert_eq!(obs.primary_sums, obs.replica_sums);
    }

    #[test]
    fn double_crash_exploration_finds_no_violations() {
        let report = explore(
            &FederationScenario::double_crash(7),
            &ExploreCfg {
                depth: 3,
                max_executions: 10,
                ..ExploreCfg::default()
            },
        );
        assert!(report.executions >= 4, "scenario exposed too few schedules");
        assert_eq!(report.violations, 0, "{:?}", report.counterexample);
    }

    #[test]
    fn small_exploration_finds_no_violations() {
        let report = explore(
            &FederationScenario::quick(7),
            &ExploreCfg {
                depth: 3,
                max_executions: 12,
                ..ExploreCfg::default()
            },
        );
        assert!(report.executions >= 4, "scenario exposed too few schedules");
        assert_eq!(report.violations, 0, "{:?}", report.counterexample);
    }

    #[test]
    fn broken_invariant_yields_a_replayable_counterexample() {
        let sc = FederationScenario::quick(7).with_broken(BrokenInvariant::NoFailoverEver);
        let report = explore(
            &sc,
            &ExploreCfg {
                depth: 3,
                max_executions: 12,
                ..ExploreCfg::default()
            },
        );
        assert_eq!(report.violations, 1);
        let trace = report.counterexample.expect("counterexample trace");
        assert!(trace.violation.contains("injected invariant"));
        // Round-trip through the text format, then replay: the violation
        // must reproduce deterministically.
        let parsed = McTrace::parse(&trace.serialize()).expect("trace parses");
        let replay = sc.run(ScriptHook::follow(parsed.choices.clone()));
        let replay2 = sc.run(ScriptHook::follow(parsed.choices));
        assert!(replay.is_err(), "replay did not reproduce the violation");
        assert_eq!(replay, replay2, "replay must be deterministic");
        // Without the broken invariant the very same schedule is clean.
        let healthy = FederationScenario::quick(7);
        assert_eq!(healthy.run(ScriptHook::follow(trace.choices)), Ok(()));
    }
}
