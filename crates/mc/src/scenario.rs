//! The federated crash drill, and the harness every scenario runs in.
//!
//! A [`Scenario`] is a self-contained, bounded, virtual-time experiment:
//! each call to [`Scenario::run`] builds a **fresh** simulation, installs
//! the given [`ScriptHook`], executes the workload, and checks its
//! invariants, returning `Err(violation)` when one fails. Runs must be
//! deterministic given the hook's script — that is what makes a recorded
//! counterexample replayable.
//!
//! [`FederationScenario`] is the one federated crash drill: files written
//! round-robin through a [`FedFs`], the primary owning file 0 crashed
//! mid-write and restarted, the crashed file read back mid-outage, then
//! `converge` and a checksum of both seats. Its configurations are the
//! model checker's ([`quick`](FederationScenario::quick),
//! [`double_crash`](FederationScenario::double_crash),
//! [`promotion`](FederationScenario::promotion)) and the federation
//! figures' arms. Invariants:
//!
//! 1. **No acked byte lost** — the mid-outage read through the federation
//!    returns exactly the written prefix, and final checksums on both seats
//!    of every shard equal the checksum of the written pattern.
//! 2. **Reconcile converges** — within `FedFs::converge`'s bound the
//!    divergence queues drain.
//! 3. **Bounded divergence** — the divergence queue's high-water mark never
//!    exceeds the number of extents actually written.
//! 4. **One primary per epoch** (governed runs) — the crash outlasting the
//!    lease promotes the replica seat, no `(shard, epoch)` has two primary
//!    seats, and promotions bump the epoch by exactly one.
//! 5. **No deadlock** — a poisoned simulation (every actor blocked, no
//!    timer pending) is reported as a violation, not a hang.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};

use semplar::{AdioFile, AdioFs, FedFs, OpenFlags, Payload, ReconcileLedger, RecoveryStats};
use semplar_clusters::FedTestbed;
use semplar_faults::{FaultInjector, FaultPlan, FaultStats};
use semplar_runtime::{on_quiet_actor, Dur, Runtime, SimRuntime};
use semplar_srb::{
    adler32, CacheSpec, CacheStats, MembershipCfg, PromotionLedger, ReplStats, TransitionKind,
    BASE_EPOCH,
};

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
/// enables one outside tests and the demo section of `fig_mc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrokenInvariant {
    /// Assert that no operation ever fails over to a replica — guaranteed
    /// false under a mid-write primary crash, so exploration must find
    /// and pin a schedule that violates it.
    NoFailoverEver,
    /// Assert that no lease is ever invalidated — guaranteed false under a
    /// primary crash (`Change::Crashed` lapses every lease); checked by
    /// [`LeaseScenario`](crate::LeaseScenario).
    NoLeaseBreakEver,
}

/// Run `body` as the root actor of a fresh simulation — under `hook` when
/// one is given, on the plain engine otherwise — and return its result
/// with the run's schedule choice points. A panic inside the simulation (a
/// deadlock report among them) is a violation, not a crash of the checker;
/// under a hook the engine is quiet, so exploring prints none of them.
pub(crate) fn observe<T: Send + 'static>(
    hook: Option<Arc<ScriptHook>>,
    window: Dur,
    body: impl FnOnce(Arc<dyn Runtime>) -> Result<T, String> + Send + 'static,
) -> Result<(T, u64), String> {
    let sim = SimRuntime::new();
    if let Some(h) = hook {
        quiet_panics();
        sim.mark_quiet();
        sim.set_schedule_hook(h, window);
    }
    match catch_unwind(AssertUnwindSafe(|| sim.run_root(body))) {
        Ok(out) => out.map(|t| (t, sim.stats().choice_points)),
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

/// Install, once per process, a panic hook that skips the panics of quiet
/// engines — the runs [`observe`] schedules, which report them as
/// violations — and hands every other panic to the hook it replaced.
fn quiet_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !on_quiet_actor() {
                prev(info);
            }
        }));
    });
}

/// Everything observable about one drill. Two runs with equal observations
/// behaved bit-identically at the protocol level.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunObservation {
    /// Virtual seconds the writes took (failover, promotion and
    /// reconciliation overlap them).
    pub secs: f64,
    /// Per-file checksums on seat 0 (the initial primary) of the owning
    /// shard, after convergence.
    pub primary_sums: Vec<u32>,
    /// Per-file checksums on seat 1 (the initial replica).
    pub replica_sums: Vec<u32>,
    /// A failover was observed and the read through the federation that
    /// followed it returned the written bytes.
    pub outage_read_checked: bool,
    /// Operations served by a seat other than the shard's primary.
    pub failovers: u64,
    /// Deepest any shard's divergence queue got, in extents.
    pub div_high_water: u64,
    /// Federation recovery counters.
    pub recovery: RecoveryStats,
    /// The federation's reconciliation ledger.
    pub reconcile: ReconcileLedger,
    /// Per shard: forward replicator counters, and the reverse
    /// replicator's when governed.
    pub repl: Vec<(ReplStats, Option<ReplStats>)>,
    /// Each injector's ledger (virtual-time stamped), in plan order.
    pub faults: Vec<FaultStats>,
    /// Membership transitions (empty when ungoverned).
    pub promotions: PromotionLedger,
    /// Final epoch per shard (empty when ungoverned).
    pub epochs: Vec<u64>,
    /// Final primary seat per shard.
    pub primaries: Vec<usize>,
    /// Block-cache counters of the crashed shard's replica seat.
    pub replica_cache: CacheStats,
    /// Stale-epoch mutations the crashed shard's seat 0 rejected.
    pub fenced_rejects: u64,
    /// Schedule choice points hit during the run.
    pub choice_points: u64,
}

/// The federated crash drill (see module docs).
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
    /// `(at, down_for)`: crash the primary owning file 0 this long after
    /// the workload starts and restart it `down_for` later. `None` runs
    /// fault-free.
    pub crash: Option<(Dur, Dur)>,
    /// When set, a **second** fault plan crashes the *other* shard's
    /// primary at the given (start, down-for) — overlapping the first
    /// outage, so for a stretch every shard is serving from its replica
    /// at once. The invariants are unchanged: acked bytes survive, both
    /// pairs reconverge.
    pub second_crash: Option<(Dur, Dur)>,
    /// Put every shard under membership governance (reverse replicators,
    /// epoch fencing, quorum promotion) with a block cache on every
    /// replica. `None` is the failover-only federation.
    pub membership: Option<MembershipCfg>,
    /// Eligibility window handed to the schedule hook: pending events
    /// within this span of the earliest one become one choice point.
    pub window: Dur,
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
            crash: Some((Dur::from_millis(100), Dur::from_millis(150))),
            second_crash: None,
            membership: None,
            window: Dur::from_millis(5),
            broken: None,
        }
    }

    /// [`FederationScenario::quick`] plus an overlapping crash of the
    /// *second* shard's primary: shard 0 is down 100–250 ms, shard 1 is
    /// down 140–290 ms, so from 140 ms to 250 ms **no** primary is up and
    /// every operation in the namespace is running on replicas.
    #[cfg(test)]
    pub(crate) fn double_crash(seed: u64) -> FederationScenario {
        FederationScenario {
            second_crash: Some((Dur::from_millis(140), Dur::from_millis(150))),
            ..FederationScenario::quick(seed)
        }
    }

    /// [`FederationScenario::quick`] under membership governance, with the
    /// primary down 100–350 ms, a 10 ms heartbeat and a 40 ms lease: the
    /// lease expires and the vote commits mid-outage, and the restart lands
    /// after the promotion, so the deposed primary comes back fenced into
    /// the old epoch and rejoins as replica.
    pub fn promotion(seed: u64) -> FederationScenario {
        FederationScenario {
            crash: Some((Dur::from_millis(100), Dur::from_millis(250))),
            membership: Some(MembershipCfg {
                heartbeat_every: Dur::from_millis(10),
                lease_timeout: Dur::from_millis(40),
            }),
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
        let cfg = self.clone();
        let (mut obs, choice_points) = observe(hook, self.window, move |rt| cfg.body(rt))?;
        obs.choice_points = choice_points;
        Ok(obs)
    }

    /// The workload body, run as the simulation's root actor.
    fn body(&self, rt: Arc<dyn Runtime>) -> Result<RunObservation, String> {
        let governed = self.membership.is_some();
        let FedTestbed { net, shards } = FedTestbed::new(&rt, self.shards, governed, None);
        if governed {
            // Mid-outage failover reads are then served from warm memory.
            for shard in &shards {
                shard.replica.server().set_block_cache(CacheSpec::default());
            }
        }
        let fed = FedFs::new(&rt, shards);
        let membership = self.membership.map(|cfg| fed.enable_membership(cfg));
        fed.mk_coll_all("/fed")
            .map_err(|e| format!("mk /fed: {e:?}"))?;
        let paths: Vec<String> = (0..self.files).map(|i| format!("/fed/data{i}")).collect();
        let first_shard = fed.shard_of(&paths[0]);
        let crashed = &fed.shards()[first_shard];
        // The overlapping outage lands on the *other* pair's primary.
        let other = &fed.shards()[(first_shard + 1) % self.shards];
        let plans = [
            (self.seed, crashed, self.crash),
            (self.seed ^ 0xd0b1e, other, self.second_crash),
        ];
        let injectors: Vec<FaultInjector> = plans
            .into_iter()
            .filter_map(|(seed, shard, crash)| {
                let (at, down_for) = crash?;
                let plan = FaultPlan::new(seed).server_crash_at(at, down_for);
                Some(plan.inject(&rt, &net, shard.primary.server()))
            })
            .collect();

        let mut handles: Vec<Box<dyn AdioFile>> = Vec::with_capacity(paths.len());
        for p in &paths {
            handles.push(
                fed.open(p, OpenFlags::CreateRw)
                    .map_err(|e| format!("open {p}: {e:?}"))?,
            );
        }
        // Invariant 1 through the federation: `times` reads of file 0's
        // first chunk on one handle all return the written bytes.
        let want = Self::pattern(0, 0, self.chunk);
        let read_back = |what: &str, times: usize| -> Result<(), String> {
            let mut r = fed
                .open(&paths[0], OpenFlags::Read)
                .map_err(|e| format!("{what} open: {e:?}"))?;
            for _ in 0..times {
                let got = r
                    .read_at(0, self.chunk)
                    .map_err(|e| format!("{what} read: {e:?}"))?;
                if got.data() != Some(&want[..]) {
                    return Err(format!("acked bytes lost: {what} read of {}", paths[0]));
                }
            }
            let _ = r.close();
            Ok(())
        };
        let chunks = self.bytes_per_file / self.chunk;
        let mut outage_read_checked = false;
        let t0 = rt.now();
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
            // First failover observed: the replicator is quiesced and the
            // replica serves every acked byte of the crashed shard's file.
            if !outage_read_checked && fed.failovers() > 0 {
                read_back("mid-outage", 1)?;
                outage_read_checked = true;
            }
        }
        let secs = (rt.now() - t0).as_secs_f64();
        if governed {
            // Untimed warm-read pair against the promoted seat: the first
            // populates its block cache, the second is served from it.
            read_back("warm", 2)?;
        }
        for mut h in handles {
            h.close().map_err(|e| format!("close: {e:?}"))?;
        }
        injectors.iter().for_each(FaultInjector::wait);
        if let (Some(m), Some(_)) = (&membership, self.crash) {
            // Invariant 4: the outage outlasts the lease, so by the restart
            // a promotion has committed and the roles have swapped.
            if !m.ledger().promotions().any(|e| e.shard == first_shard) {
                return Err("lease expiry never produced a promotion".to_string());
            }
            if fed.primary_seat_of(first_shard) != 1 {
                return Err("promotion committed but the role never swapped".to_string());
            }
        }
        // Invariant 2: the federation converges in bounded virtual time —
        // a deposed primary is certified back in, the divergence replayed
        // and replication drained.
        fed.converge().map_err(|e| {
            format!(
                "federation did not converge ({e}): {} divergent extents",
                fed.divergent_extents()
            )
        })?;
        if fed.divergent_extents() != 0 {
            return Err("divergence queue not drained after reconcile".to_string());
        }
        // Invariant 3: the high-water mark saw every peak of every queue.
        let written = chunks * self.files as u64;
        if fed.divergence_high_water() > written {
            return Err(format!(
                "divergence queue unbounded: high-water {} extents, only {written} written",
                fed.divergence_high_water()
            ));
        }
        // Invariant 1, final: both seats hold exactly the written bytes.
        let sums = |seat: usize| -> Result<Vec<u32>, String> {
            paths
                .iter()
                .map(|p| {
                    let shard = &fed.shards()[fed.shard_of(p)];
                    let conn = [&shard.primary, &shard.replica][seat]
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
        let primary_sums = sums(0)?;
        let replica_sums = sums(1)?;
        for (i, p) in paths.iter().enumerate() {
            let want = adler32(&Self::pattern(i, 0, self.bytes_per_file));
            if primary_sums[i] != want {
                return Err(format!("acked bytes lost: seat 0 checksum mismatch on {p}"));
            }
            if replica_sums[i] != want {
                return Err(format!("seats diverged: seat 1 checksum mismatch on {p}"));
            }
        }
        let promotions = membership.as_ref().map(|m| m.ledger()).unwrap_or_default();
        check_ledger(&promotions, self.shards)?;
        if self.broken == Some(BrokenInvariant::NoFailoverEver) && fed.failovers() > 0 {
            return Err(format!(
                "injected invariant: {} operations failed over",
                fed.failovers()
            ));
        }
        Ok(RunObservation {
            secs,
            primary_sums,
            replica_sums,
            outage_read_checked,
            failovers: fed.failovers(),
            div_high_water: fed.divergence_high_water(),
            recovery: fed.recovery_stats(),
            reconcile: fed.reconcile_ledger(),
            repl: fed
                .shards()
                .iter()
                .map(|s| {
                    let forward = s.replicator.as_ref().map(|r| r.stats());
                    (
                        forward.unwrap_or_default(),
                        s.reverse.as_ref().map(|r| r.stats()),
                    )
                })
                .collect(),
            faults: injectors.iter().map(FaultInjector::stats).collect(),
            promotions,
            epochs: membership
                .iter()
                .flat_map(|m| (0..self.shards).map(|s| m.epoch(s)))
                .collect(),
            primaries: (0..self.shards).map(|s| fed.primary_seat_of(s)).collect(),
            replica_cache: crashed.replica.server().cache_stats(),
            fenced_rejects: crashed.primary.server().fenced_rejects(),
            choice_points: 0,
        })
    }
}

/// Invariant 4 on the membership ledger: each `(shard, epoch)` is owned by
/// exactly one primary seat, and promotions bump the epoch by exactly one.
fn check_ledger(ledger: &PromotionLedger, shards: usize) -> Result<(), String> {
    let mut owner: HashMap<(usize, u64), usize> = HashMap::new();
    let mut last_epoch = vec![BASE_EPOCH; shards];
    for e in &ledger.entries {
        let prev = *owner.entry((e.shard, e.epoch)).or_insert(e.primary);
        if prev != e.primary {
            return Err(format!(
                "split brain: shard {} epoch {} has primaries {} and {}",
                e.shard, e.epoch, prev, e.primary
            ));
        }
        match e.kind {
            TransitionKind::Promoted if e.epoch != last_epoch[e.shard] + 1 => {
                return Err(format!(
                    "promotion on shard {} jumped epoch {} -> {}",
                    e.shard, last_epoch[e.shard], e.epoch
                ));
            }
            TransitionKind::Rejoined if e.epoch != last_epoch[e.shard] => {
                return Err(format!(
                    "rejoin on shard {} certified epoch {} but {} is in force",
                    e.shard, e.epoch, last_epoch[e.shard]
                ));
            }
            TransitionKind::Promoted | TransitionKind::Resharded => last_epoch[e.shard] = e.epoch,
            TransitionKind::Rejoined => {}
        }
    }
    Ok(())
}

impl Scenario for FederationScenario {
    fn name(&self) -> &str {
        match (self.membership, self.second_crash) {
            (Some(_), _) => "membership-promotion",
            (None, Some(_)) => "federation-double-crash",
            (None, None) => "federation-crash",
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

    /// The promotion arm of `fig_federation_ha --quick`: 2 x 6 MiB files in
    /// 1 MiB chunks, the owner of file 0 down 0.8–2.3 s, a 50 ms heartbeat
    /// and a 200 ms lease, seed 23.
    fn ha_figure_arm() -> FederationScenario {
        FederationScenario {
            seed: 23,
            bytes_per_file: 6 << 20,
            chunk: 1 << 20,
            crash: Some((Dur::from_millis(800), Dur::from_millis(1_500))),
            membership: Some(MembershipCfg {
                heartbeat_every: Dur::from_millis(50),
                lease_timeout: Dur::from_millis(200),
            }),
            ..FederationScenario::quick(23)
        }
    }

    #[test]
    fn default_schedule_upholds_every_invariant() {
        let sc = FederationScenario::quick(7);
        let obs = sc
            .observe(Some(ScriptHook::default_schedule()))
            .expect("run");
        assert!(obs.failovers > 0, "crash never forced a failover");
        assert!(obs.reconcile.bytes > 0, "nothing was reconciled");
        assert!(obs.outage_read_checked, "no mid-outage read");
        assert!(obs.choice_points > 0, "no schedule choice points surfaced");
    }

    /// Every configuration, the figure's promotion arm among them: the same
    /// seed gives the same observation, and the default-schedule hook
    /// reproduces the plain engine bit for bit. The figure's arm is also
    /// model-checked a little way in.
    #[test]
    fn default_hook_matches_the_plain_engine_bit_for_bit() {
        let rows = [
            FederationScenario::quick(11),
            FederationScenario::double_crash(11),
            FederationScenario::promotion(11),
            ha_figure_arm(),
        ];
        for sc in &rows {
            let plain = sc.observe(None).expect("plain run");
            let again = sc.observe(None).expect("second plain run");
            assert_eq!(plain, again, "{}: same seed, same observation", sc.name());
            let mut hooked = sc
                .observe(Some(ScriptHook::default_schedule()))
                .expect("hooked run");
            assert_eq!(plain.choice_points, 0);
            assert!(hooked.choice_points > 0, "{}", sc.name());
            hooked.choice_points = 0;
            assert_eq!(
                plain,
                hooked,
                "{}: the default-schedule strategy must reproduce the stock engine",
                sc.name()
            );
        }
        let report = explore(
            &ha_figure_arm(),
            &ExploreCfg {
                depth: 2,
                max_executions: 4,
                ..ExploreCfg::default()
            },
        );
        assert_eq!(report.violations, 0, "{:?}", report.counterexample);
    }

    #[test]
    fn double_crash_upholds_every_invariant() {
        let sc = FederationScenario::double_crash(7);
        let obs = sc
            .observe(Some(ScriptHook::default_schedule()))
            .expect("double-crash run");
        assert!(obs.failovers > 0, "neither outage forced a failover");
        assert!(obs.reconcile.bytes > 0, "nothing was reconciled");
        // Both pairs reconverged: the checksum loop inside the run already
        // proved every sum matches the written pattern.
        assert_eq!(obs.primary_sums, obs.replica_sums);
    }

    /// The observation carries both outages' ledgers, so comparing two
    /// double-crash runs compares the second outage too.
    #[test]
    fn double_crash_observation_records_both_outages() {
        let obs = FederationScenario::double_crash(7)
            .observe(None)
            .expect("double-crash run");
        let count = |f: fn(&FaultStats) -> u64| obs.faults.iter().map(f).sum::<u64>();
        assert_eq!(count(|f| f.crashes), 2);
        assert_eq!(count(|f| f.restarts), 2);
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
