//! Lease coherence under crash/failover interleavings.
//!
//! [`LeaseScenario`] is the storage-tier-v2 counterpart of
//! [`FederationScenario`](crate::FederationScenario): one federated shard
//! (primary + replica + replicator) with the **server block cache and
//! client read leases enabled**, a writer and a lease-holding reader on
//! the same object, and a mid-run crash of the primary. The writer keeps
//! publishing new versions of overlapping byte ranges; after every *acked*
//! overlapping write the reader re-reads the whole object. Invariants:
//!
//! 1. **No stale lease read** — a read issued after an acked overlapping
//!    write returns the new bytes, never a lease snapshot from before the
//!    write. This must hold across the crash (leases lapse on
//!    `Change::Crashed`), across failover writes (which the primary never
//!    reports as a change, so they revoke its leases explicitly), and
//!    across reconciliation.
//! 2. **Caches converge** — after reconcile, primary and replica checksum
//!    to the bytes of the final version, with caches on.
//! 3. **No deadlock** — a poisoned simulation is a violation, not a hang.
//!
//! The scenario is explored by [`explore`](crate::explore) across every
//! reachable crash/failover interleaving up to the bound.

use std::sync::Arc;

use semplar::{AdioFile, AdioFs, FedFs, OpenFlags, Payload, SrbFs};
use semplar_clusters::FedTestbed;
use semplar_faults::{FaultPlan, FaultStats};
use semplar_runtime::{Dur, Runtime};
use semplar_srb::{adler32, CacheSpec, CacheStats};

use crate::scenario::{observe, BrokenInvariant, Scenario};
use crate::script::ScriptHook;

/// Everything observable about one lease-coherence run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LeaseObservation {
    /// The fault injector's ledger.
    pub fault_stats: FaultStats,
    /// Combined lease-cache counters across the shard's two mounts.
    pub lease: CacheStats,
    /// Server block-cache hits (primary + replica).
    pub cache_hits: u64,
    /// Operations served by the replica during the outage.
    pub failovers: u64,
    /// Final checksum (identical on primary and replica, or the run errs).
    pub checksum: u32,
    /// Schedule choice points hit during the run.
    pub choice_points: u64,
}

/// The crash/failover lease-coherence scenario (see module docs).
#[derive(Clone, Debug)]
pub struct LeaseScenario {
    /// Seed for the fault plan.
    pub seed: u64,
    /// Object size in bytes.
    pub bytes: u64,
    /// Overlapping-write granule; versions land at `chunk/2` alignment so
    /// they straddle cache-block boundaries.
    pub chunk: u64,
    /// Number of overwrite rounds (versions 2..=versions).
    pub versions: usize,
    /// When the primary crashes (virtual time from workload start).
    pub crash_at: Dur,
    /// How long it stays down.
    pub crash_down_for: Dur,
    /// Eligibility window handed to the schedule hook.
    pub window: Dur,
    /// Optional deliberately broken invariant
    /// ([`BrokenInvariant::NoLeaseBreakEver`]).
    pub broken: Option<BrokenInvariant>,
}

impl LeaseScenario {
    /// The bounded exploration payload: a 256 KiB object, 64 KiB granule,
    /// six versions, primary crash at 100 ms for 150 ms — small enough to
    /// explore in seconds, timed so the crash lands between two versions
    /// with the reader's lease warm.
    pub fn quick(seed: u64) -> LeaseScenario {
        LeaseScenario {
            seed,
            bytes: 256 << 10,
            chunk: 64 << 10,
            versions: 6,
            crash_at: Dur::from_millis(100),
            crash_down_for: Dur::from_millis(150),
            window: Dur::from_millis(5),
            broken: None,
        }
    }

    /// The same scenario with a deliberately broken invariant installed.
    pub fn with_broken(mut self, broken: BrokenInvariant) -> LeaseScenario {
        self.broken = Some(broken);
        self
    }

    /// The deterministic byte at `offset + k` of version `v`.
    fn pattern(v: usize, offset: u64, len: u64) -> Vec<u8> {
        (0..len)
            .map(|k| (((offset + k) as usize).wrapping_mul(131) + v * 71 + 17) as u8)
            .collect()
    }

    /// The half-open range version `v >= 2` overwrites: chunk-sized, at
    /// `chunk/2` alignment so it straddles block and lease boundaries.
    fn overwrite_range(&self, v: usize) -> (u64, u64) {
        let slots = (self.bytes / self.chunk).max(2) - 1;
        let base = ((v as u64 - 2) % slots) * self.chunk;
        (base + self.chunk / 2, self.chunk)
    }

    /// Execute one schedule and return the full observation. `hook: None`
    /// runs the plain engine.
    pub fn observe(&self, hook: Option<Arc<ScriptHook>>) -> Result<LeaseObservation, String> {
        let cfg = self.clone();
        let (mut obs, choice_points) = observe(hook, self.window, move |rt| cfg.body(rt))?;
        obs.choice_points = choice_points;
        Ok(obs)
    }

    /// The workload body, run as the simulation's root actor.
    fn body(&self, rt: Arc<dyn Runtime>) -> Result<LeaseObservation, String> {
        let FedTestbed { net, shards } = FedTestbed::new(&rt, 1, false, Some(8 << 20));
        let primary = shards[0].primary.server().clone();
        let replica = shards[0].replica.server().clone();
        for server in [&primary, &replica] {
            server.set_block_cache(CacheSpec {
                block: 64 << 10,
                capacity: 4 << 20,
            });
        }
        let fed = FedFs::new(&rt, shards);
        fed.mk_coll_all("/lease")
            .map_err(|e| format!("mk /lease: {e:?}"))?;
        let path = "/lease/obj";
        let inj = FaultPlan::new(self.seed)
            .server_crash_at(self.crash_at, self.crash_down_for)
            .inject(&rt, &net, &primary);

        let mut w = fed
            .open(path, OpenFlags::CreateRw)
            .map_err(|e| format!("open writer: {e:?}"))?;
        let mut r = fed
            .open(path, OpenFlags::CreateRw)
            .map_err(|e| format!("open reader: {e:?}"))?;

        // Version 1: the full object; the reader warms its lease on it.
        let mut want = Self::pattern(1, 0, self.bytes);
        w.write_at(0, &Payload::bytes(want.clone()))
            .map_err(|e| format!("seed write: {e:?}"))?;
        let check = |r: &mut Box<dyn AdioFile>, want: &[u8], v: usize| -> Result<(), String> {
            let got = r
                .read_at(0, want.len() as u64)
                .map_err(|e| format!("read v{v}: {e:?}"))?;
            if got.data().map(|d| d != want).unwrap_or(true) {
                return Err(format!(
                    "stale lease read after an acked overlapping write (version {v})"
                ));
            }
            Ok(())
        };
        check(&mut r, &want, 1)?;

        for v in 2..=self.versions {
            let (lo, len) = self.overwrite_range(v);
            let data = Self::pattern(v, lo, len);
            let n = w
                .write_at(lo, &Payload::bytes(data.clone()))
                .map_err(|e| format!("write v{v}: {e:?}"))?;
            if n != len {
                return Err(format!("short write v{v}: {n} != {len}"));
            }
            want[lo as usize..(lo + len) as usize].copy_from_slice(&data);
            // Invariant 1: the write above is acked, so this read — and an
            // immediate lease-warm repeat — must both see version v.
            check(&mut r, &want, v)?;
            check(&mut r, &want, v)?;
        }
        w.close().map_err(|e| format!("close writer: {e:?}"))?;
        r.close().map_err(|e| format!("close reader: {e:?}"))?;

        inj.wait();
        fed.converge()
            .map_err(|e| format!("federation did not converge: {e}"))?;

        // Invariant 2: both sides converge to the final version's bytes.
        let sum_on = |fs: &Arc<SrbFs>| -> Result<u32, String> {
            let conn = fs.admin_conn().map_err(|e| format!("admin conn: {e:?}"))?;
            let sum = conn
                .checksum(path)
                .map_err(|e| format!("checksum: {e:?}"))?;
            let _ = conn.disconnect();
            Ok(sum)
        };
        let shard = &fed.shards()[0];
        let p_sum = sum_on(&shard.primary)?;
        let r_sum = sum_on(&shard.replica)?;
        let expect = adler32(&want);
        if p_sum != expect {
            return Err("primary diverged from the acked version history".to_string());
        }
        if r_sum != expect {
            return Err("replica diverged from the acked version history".to_string());
        }

        let lease = shard.primary.lease_stats() + shard.replica.lease_stats();
        if self.broken == Some(BrokenInvariant::NoLeaseBreakEver) && lease.invalidations > 0 {
            return Err(format!(
                "injected invariant: {} lease invalidations",
                lease.invalidations
            ));
        }
        Ok(LeaseObservation {
            fault_stats: inj.stats(),
            lease,
            cache_hits: primary.cache_stats().hits + replica.cache_stats().hits,
            failovers: fed.failovers(),
            checksum: p_sum,
            choice_points: 0,
        })
    }
}

impl Scenario for LeaseScenario {
    fn name(&self) -> &str {
        "lease-coherence"
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
    fn default_schedule_upholds_lease_coherence() {
        let sc = LeaseScenario::quick(7);
        let obs = sc
            .observe(Some(ScriptHook::default_schedule()))
            .expect("run");
        assert!(obs.lease.hits > 0, "the reader's lease never hit");
        assert!(
            obs.lease.invalidations > 0,
            "no overlapping write ever revoked a lease"
        );
        assert!(obs.fault_stats.crashes == 1, "crash never landed");
        assert!(obs.choice_points > 0, "no schedule choice points surfaced");
    }

    #[test]
    fn default_hook_matches_the_plain_engine_bit_for_bit() {
        let sc = LeaseScenario::quick(11);
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
    fn exploration_finds_no_stale_lease_reads() {
        let report = explore(
            &LeaseScenario::quick(7),
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
        let sc = LeaseScenario::quick(7).with_broken(BrokenInvariant::NoLeaseBreakEver);
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
        let parsed = McTrace::parse(&trace.serialize()).expect("trace parses");
        let replay = sc.run(ScriptHook::follow(parsed.choices));
        assert!(replay.is_err(), "replay did not reproduce the violation");
        // Without the broken invariant the very same schedule is clean.
        let healthy = LeaseScenario::quick(7);
        assert_eq!(healthy.run(ScriptHook::follow(trace.choices)), Ok(()));
    }
}
