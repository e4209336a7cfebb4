//! The membership/promotion scenario: primary crash → lease expiry →
//! quorum promotion → fenced restart → rejoin, under bounded exploration.
//!
//! [`PromotionScenario`] extends the federation crash drill with the PR-10
//! membership subsystem: the crashed primary's lease expires, the monitor
//! runs the collapsed Bracha vote, the replica seat is promoted at a bumped
//! epoch, the divergence backlog drains through the *reverse* replicator,
//! and the deposed primary restarts hard-fenced and rejoins as replica.
//! Invariants checked on every explored schedule:
//!
//! 1. **No acked byte lost** — a mid-outage federated read returns the
//!    written prefix, and after convergence *both* seats' checksums equal
//!    the checksum of the written pattern.
//! 2. **Exactly one primary per epoch** — the promotion ledger never maps
//!    one `(shard, epoch)` to two different primary seats, and promotions
//!    bump the shard epoch by exactly one.
//! 3. **Convergence** — the promotion commits, the deposed primary is
//!    re-certified, divergence drains, and replication quiesces, all in
//!    bounded virtual time.
//! 4. **No deadlock** — a poisoned simulation is a violation, not a hang.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use semplar::{AdioFile, AdioFs, FedFs, OpenFlags, Payload};
use semplar_clusters::FedTestbed;
use semplar_faults::{FaultPlan, FaultStats};
use semplar_runtime::{Dur, Runtime, SimRuntime};
use semplar_srb::{adler32, MembershipCfg, PromotionLedger, TransitionKind};

use crate::script::ScriptHook;
use crate::Scenario;

/// Everything observable about one promotion run. Two runs with equal
/// observations behaved bit-identically at the protocol level — the
/// membership proptest pins this per seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PromotionObservation {
    /// The fault injector's ledger (virtual-time stamped).
    pub fault_stats: FaultStats,
    /// The membership transition ledger (promotions, rejoins).
    pub ledger: PromotionLedger,
    /// Per-file checksums on the seat holding the primary role at the end.
    pub primary_sums: Vec<u32>,
    /// Per-file checksums on the other seat.
    pub replica_sums: Vec<u32>,
    /// Operations served via failover during the outage.
    pub failovers: u64,
    /// Final epoch per shard.
    pub final_epochs: Vec<u64>,
    /// Final primary seat per shard.
    pub final_primaries: Vec<usize>,
    /// Schedule choice points hit during the run.
    pub choice_points: u64,
}

/// The 2-shard promotion drill (see module docs).
#[derive(Clone, Debug)]
pub struct PromotionScenario {
    /// Seed for the fault plan.
    pub seed: u64,
    /// Shard count (governed primary+replica pairs).
    pub shards: usize,
    /// Files written round-robin across the namespace.
    pub files: usize,
    /// Bytes written per file.
    pub bytes_per_file: u64,
    /// Write chunk size.
    pub chunk: u64,
    /// When the owning primary crashes (virtual time from workload start).
    pub crash_at: Dur,
    /// How long it stays down. Must exceed `lease_timeout` by enough for
    /// the vote to commit while the old primary is still dark.
    pub crash_down_for: Dur,
    /// Membership tuning (heartbeat cadence, lease, vote hop delay).
    pub membership: MembershipCfg,
    /// Eligibility window handed to the schedule hook.
    pub window: Dur,
}

impl PromotionScenario {
    /// The bounded exploration payload: 2 governed shards, 2 files of
    /// 256 KiB in 64 KiB chunks, primary crash at 100 ms for 250 ms with a
    /// 10 ms heartbeat and 40 ms lease — the lease expires and the vote
    /// commits mid-outage, and the restart lands after promotion so the
    /// deposed primary comes back fenced into the old epoch.
    pub fn quick(seed: u64) -> PromotionScenario {
        PromotionScenario {
            seed,
            shards: 2,
            files: 2,
            bytes_per_file: 256 << 10,
            chunk: 64 << 10,
            crash_at: Dur::from_millis(100),
            crash_down_for: Dur::from_millis(250),
            membership: MembershipCfg {
                heartbeat_every: Dur::from_millis(10),
                lease_timeout: Dur::from_millis(40),
                hop_delay: Dur::from_millis(1),
                base_epoch: 1,
                witnesses: 0,
            },
            window: Dur::from_millis(5),
        }
    }

    /// The deterministic byte at `offset + k` of file `file`.
    fn pattern(file: usize, offset: u64, len: u64) -> Vec<u8> {
        (0..len)
            .map(|k| (((offset + k) as usize).wrapping_mul(137) + file * 41 + 11) as u8)
            .collect()
    }

    /// Execute one schedule and return the full observation. `hook: None`
    /// runs the plain engine.
    pub fn observe(&self, hook: Option<Arc<ScriptHook>>) -> Result<PromotionObservation, String> {
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

    /// Ledger invariant 2: each `(shard, epoch)` owned by exactly one
    /// primary seat; promotions bump the epoch by exactly one.
    fn check_ledger(&self, ledger: &PromotionLedger) -> Result<(), String> {
        let mut owner: std::collections::HashMap<(usize, u64), usize> =
            std::collections::HashMap::new();
        let mut last_epoch = vec![self.membership.base_epoch.max(1); self.shards];
        for e in &ledger.entries {
            if let Some(&prev) = owner.get(&(e.shard, e.epoch)) {
                if prev != e.primary {
                    return Err(format!(
                        "split brain: shard {} epoch {} has primaries {} and {}",
                        e.shard, e.epoch, prev, e.primary
                    ));
                }
            } else {
                owner.insert((e.shard, e.epoch), e.primary);
            }
            match e.kind {
                TransitionKind::Promoted => {
                    if e.epoch != last_epoch[e.shard] + 1 {
                        return Err(format!(
                            "promotion on shard {} jumped epoch {} -> {}",
                            e.shard, last_epoch[e.shard], e.epoch
                        ));
                    }
                    last_epoch[e.shard] = e.epoch;
                }
                TransitionKind::Resharded => last_epoch[e.shard] = e.epoch,
                TransitionKind::Rejoined => {
                    if e.epoch != last_epoch[e.shard] {
                        return Err(format!(
                            "rejoin on shard {} certified epoch {} but {} is in force",
                            e.shard, e.epoch, last_epoch[e.shard]
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The workload body, run as the simulation's root actor.
    fn body(&self, rt: Arc<dyn Runtime>) -> Result<PromotionObservation, String> {
        let FedTestbed { net, shards } = FedTestbed::new(&rt, self.shards, true, None);
        let fed = FedFs::new(&rt, shards);
        let membership = fed.enable_membership(self.membership);
        fed.mk_coll_all("/fed")
            .map_err(|e| format!("mk /fed: {e:?}"))?;
        let paths: Vec<String> = (0..self.files).map(|i| format!("/fed/ha{i}")).collect();
        let first_shard = fed.shard_of(&paths[0]);
        let old_primary = fed.shards()[first_shard].primary.server().clone();
        let inj = FaultPlan::new(self.seed)
            .server_crash_at(self.crash_at, self.crash_down_for)
            .inject(&rt, &net, &old_primary);

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
            if fed.divergent_extents() > total_extents {
                return Err("divergence queue unbounded".to_string());
            }
            if !outage_read_checked && fed.failovers() > 0 {
                // Invariant 1 (during the outage): every acked byte of the
                // crashed shard's file is readable through the federation.
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
        // The injector must finish (crash + restart) in bounded time.
        let mut waited = 0;
        while !inj.done() {
            waited += 1;
            if waited > 600 {
                return Err("fault injector stalled".to_string());
            }
            rt.sleep(Dur::from_millis(10));
        }
        // Invariant 3a: the lease expired and a promotion committed.
        let mut waited = 0;
        while !membership
            .ledger()
            .promotions()
            .any(|e| e.shard == first_shard)
        {
            waited += 1;
            if waited > 200 {
                return Err("lease expiry never produced a promotion".to_string());
            }
            rt.sleep(Dur::from_millis(10));
        }
        if fed.primary_seat_of(first_shard) != 1 {
            return Err("promotion committed but the role never swapped".to_string());
        }
        // Invariant 3b: the deposed primary is re-certified into the new
        // epoch (it restarted hard-fenced).
        let mut waited = 0;
        while old_primary.is_fenced() {
            waited += 1;
            if waited > 200 {
                return Err("deposed primary never rejoined".to_string());
            }
            rt.sleep(Dur::from_millis(10));
        }
        // Invariant 3c: replication quiesces in both directions and the
        // divergence queues drain.
        for shard in fed.shards() {
            for repl in [&shard.replicator, &shard.reverse].into_iter().flatten() {
                repl.quiesce();
            }
        }
        let mut rounds = 0;
        while !fed.reconcile() {
            rounds += 1;
            if rounds > 400 {
                return Err(format!(
                    "reconcile did not converge: {} divergent extents",
                    fed.divergent_extents()
                ));
            }
            rt.sleep(Dur::from_millis(10));
        }
        if fed.divergent_extents() != 0 {
            return Err("divergence queue not drained".to_string());
        }
        // Invariant 1 (final): both seats hold exactly the written bytes.
        let sums = |primary_role: bool| -> Result<Vec<u32>, String> {
            paths
                .iter()
                .map(|p| {
                    let shard = fed.shard_of(p);
                    let fs = if primary_role {
                        fed.primary_fs(shard)
                    } else {
                        fed.replica_fs(shard)
                    };
                    let conn = fs.admin_conn().map_err(|e| format!("admin conn: {e:?}"))?;
                    let sum = conn
                        .checksum(p)
                        .map_err(|e| format!("checksum {p}: {e:?}"))?;
                    let _ = conn.disconnect();
                    Ok(sum)
                })
                .collect()
        };
        let primary_sums = sums(true)?;
        let replica_sums = sums(false)?;
        for (i, p) in paths.iter().enumerate() {
            let want = adler32(&Self::pattern(i, 0, self.bytes_per_file));
            if primary_sums[i] != want {
                return Err(format!("acked bytes lost: primary mismatch on {p}"));
            }
            if replica_sums[i] != want {
                return Err(format!("deposed primary diverged: replica mismatch on {p}"));
            }
        }
        let ledger = membership.ledger();
        // Invariant 2: exactly one primary per (shard, epoch).
        self.check_ledger(&ledger)?;
        Ok(PromotionObservation {
            fault_stats: inj.stats(),
            ledger,
            primary_sums,
            replica_sums,
            failovers: fed.failovers(),
            final_epochs: (0..self.shards).map(|s| membership.epoch(s)).collect(),
            final_primaries: (0..self.shards).map(|s| membership.primary_of(s)).collect(),
            choice_points: 0,
        })
    }
}

impl Scenario for PromotionScenario {
    fn name(&self) -> &str {
        "membership-promotion"
    }

    fn run(&self, hook: Arc<ScriptHook>) -> Result<(), String> {
        self.observe(Some(hook)).map(|_| ())
    }

    /// Same argument as [`FederationScenario`](crate::FederationScenario):
    /// two ship-block events eligible together belong to different
    /// replicator daemons with disjoint targets, so they commute. All
    /// membership points (heartbeats, vote rounds) share the shard
    /// governance state and stay ordered.
    fn commutes(&self, a: &str, b: &str) -> bool {
        a == "replicator/ship-block" && b == "replicator/ship-block"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, ExploreCfg};

    #[test]
    fn default_schedule_promotes_and_converges() {
        let sc = PromotionScenario::quick(7);
        let obs = sc
            .observe(Some(ScriptHook::default_schedule()))
            .expect("run");
        assert!(obs.failovers > 0, "crash never forced a failover");
        let promoted: Vec<_> = obs.ledger.promotions().collect();
        assert_eq!(promoted.len(), 1, "exactly one promotion: {:?}", obs.ledger);
        assert_eq!(promoted[0].epoch, 2);
        assert_eq!(promoted[0].primary, 1);
        // n = 4 seats, f = 1: the vote needed 3 echoes and 3 readies, and
        // with one seat crashed that is exactly what it got.
        assert_eq!((promoted[0].echoes, promoted[0].readies), (3, 3));
        assert!(
            obs.ledger
                .entries
                .iter()
                .any(|e| e.kind == TransitionKind::Rejoined),
            "the deposed primary never rejoined: {:?}",
            obs.ledger
        );
        assert_eq!(obs.final_primaries[obs.ledger.entries[0].shard], 1);
        assert!(obs.choice_points > 0, "no schedule choice points surfaced");
    }

    #[test]
    fn observation_is_deterministic_per_seed() {
        let sc = PromotionScenario::quick(11);
        let a = sc.observe(None).expect("run a");
        let b = sc.observe(None).expect("run b");
        assert_eq!(a, b, "same seed must give a bit-identical observation");
    }

    #[test]
    fn small_exploration_finds_no_violations() {
        let report = explore(
            &PromotionScenario::quick(7),
            &ExploreCfg {
                depth: 3,
                max_executions: 8,
                por: true,
                ..ExploreCfg::default()
            },
        );
        assert!(report.executions >= 2, "scenario exposed too few schedules");
        assert_eq!(report.violations, 0, "{:?}", report.counterexample);
    }
}
