//! The federated ADIO backend: shard-routed mounts with write-path replica
//! failover, restart reconciliation, and (opt-in) membership governance.
//!
//! [`FedFs`] glues the server-side federation pieces ([`ShardMap`] routing
//! and the [`Replicator`] write-path replication) into one [`AdioFs`]
//! mount:
//!
//! * **Sharded MCAT** — every path is owned by exactly one shard
//!   (deterministic hash partition); opens and metadata ops go to the
//!   owning shard's primary, so `File`/`StripedFile` spread their sessions
//!   across servers through each mount's existing connection pool.
//! * **Write failover** — a transient failure on a shard primary (crash,
//!   reset) fails the write over to the shard's replica and records the
//!   extent in a per-shard *divergence queue*. Blocks are idempotent (same
//!   bytes, same offsets), so the overlap between the replica copy and
//!   whatever the primary had already acknowledged is harmless — no acked
//!   byte is ever lost.
//! * **Read failover** — reads fail over to the replica too; before the
//!   first failover read the shard's replicator is quiesced, so every byte
//!   the primary ever acknowledged is durable on the replica when the read
//!   is served.
//! * **Reconciliation** — once the primary is reachable again (the
//!   crash/restart plan from `semplar-faults` restores it), the next
//!   operation on the shard replays the divergence queue *in order* from
//!   the replica back to the primary in [`RESUME_BLOCK`] blocks, recording
//!   each replayed extent, the bytes and the completed rounds in a
//!   deterministic [`ReconcileLedger`]. Replayed writes are changes on the
//!   primary like any other, so the replicator re-ships them and both copies
//!   converge bit-identically.
//! * **Membership** — [`FedFs::enable_membership`] puts every shard under
//!   the `srb::membership` lease/epoch protocol. A primary outage that
//!   outlives the lease then *promotes* the replica: roles swap, the
//!   divergence backlog drains asynchronously through the shard's reverse
//!   replicator (new primary → old primary) instead of synchronously in
//!   the client path, and the deposed primary is fenced by epoch until it
//!   rejoins as replica. Without it, roles never move: the replica serves
//!   an outage and the primary is reconciled when it returns.
//! * **Live re-sharding** — [`FedFs::begin_reshard`] migrates the
//!   namespace onto a different number of active shards *under traffic*: a
//!   migrator thread copies moving paths to their new owners and returns
//!   once the old copies are gone; meanwhile writes keep routing
//!   to the old owner (dirtied extents are chased; a write still on the
//!   wire pins the cutover open until its extent is recorded), reads of
//!   moving paths are double-routed (old owner authoritative, new owner
//!   as fallback), and the cutover to the new [`ShardMap`] version is
//!   atomic — at an epoch bump when membership is enabled, so writes
//!   routed by the old map are fenced.
//!
//! Reconcile replay and the re-shard copies are one block copier. A copy
//! waits on the events that end what refused it, and [`FedFs::converge`]
//! is the one wait for the whole federation to settle. One wait polls the
//! clock: a failover write refused for a stale epoch sleeps 10 ms and
//! retries, at most 100 times, while the promoted seat's epoch is
//! certified.
//!
//! Shard mounts should be built with [`RetryPolicy::none`]
//! (federated failover *is* the recovery — a crashed primary then refuses
//! instantly and the client moves on, instead of backing off for seconds).
//!
//! [`RetryPolicy::none`]: semplar_srb::RetryPolicy::none

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use semplar_runtime::{Dur, Event, Runtime, Wake};
use semplar_srb::{
    IoMeter, Membership, MembershipCfg, OpenFlags, Payload, Replicator, ShardMap, SrbError,
};

use crate::adio::{AdioFile, AdioFs, IoError, IoResult};
use crate::srbfs::{RecoveryStats, SrbFs, RESUME_BLOCK};

/// One shard of the federation: its two seats and the replicators between
/// them. `primary`/`replica` name the *initial* roles (seat 0 and seat 1);
/// under membership governance a promotion can swap which seat currently
/// holds the primary role — [`FedFs`] tracks the live role per shard and
/// routes accordingly.
pub struct FedShard {
    /// Seat 0: mount of the shard's initial primary server.
    pub primary: Arc<SrbFs>,
    /// Seat 1: mount of the shard's initial replica server.
    pub replica: Arc<SrbFs>,
    /// The seat0→seat1 (forward) write-path replicator, if wired. Read
    /// failover quiesces it so acked-but-unshipped extents land before the
    /// read.
    pub replicator: Option<Arc<Replicator>>,
    /// The seat1→seat0 (reverse) replicator, required for membership
    /// governance: it drains the divergence backlog and carries
    /// post-promotion writes back to the deposed primary. `None` keeps the
    /// shard a static failover-only pair.
    pub reverse: Option<Arc<Replicator>>,
}

/// Deterministic record of everything reconciliation replayed: one
/// `(path, offset, len)` entry per extent, in replay order. Same seed ⇒
/// bit-identical ledger (pinned by the federation fault test).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReconcileLedger {
    /// Replayed extents in order.
    pub entries: Vec<(String, u64, u64)>,
    /// Total bytes replayed.
    pub bytes: u64,
    /// Completed reconciliation rounds (one per drained shard queue).
    pub rounds: u64,
}

/// Cumulative live re-sharding counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Paths whose bytes were copied to a new owning shard.
    pub moved_paths: u64,
    /// Bytes copied between owners (initial snapshot + dirty replays).
    pub moved_bytes: u64,
    /// Dirty extents re-copied because traffic wrote to a moving path
    /// after its snapshot (the chase-the-tail loop).
    pub dirty_replays: u64,
    /// Reads served on paths that were mid-migration (the router consulted
    /// both owners; the old owner stayed authoritative).
    pub double_routed_reads: u64,
    /// Completed re-shard cutovers.
    pub completed: u64,
}

struct ShardState {
    /// Extents written to the failover seat while the primary seat was
    /// unreachable, in write order — the divergent suffix.
    divergence: Mutex<VecDeque<(String, u64, u64)>>,
    /// Guards a reconciliation round so concurrent callers neither replay
    /// twice nor treat the shard as clean mid-replay.
    reconciling: AtomicBool,
    /// Set once a failover read has quiesced the replicator (later
    /// failover reads already know the queue order is preserved).
    quiesced: AtomicBool,
    /// Seat index (0 or 1) currently holding the primary role.
    primary_seat: AtomicUsize,
    /// Bumped on every role swap. Open [`FedFile`]s compare it against the
    /// generation they bound under and rebind when it moved — a handle
    /// bound to a deposed primary must not fail over *to* it.
    role_gen: AtomicU64,
    /// Notified as each reconciliation round ends.
    replayed: Event,
}

/// Live re-sharding state while a migration is in flight.
struct RemapState {
    /// The map that takes effect at cutover.
    to: ShardMap,
    /// `(path, old_shard, new_shard)` for every path that changes owner.
    moving: Vec<(String, usize, usize)>,
    /// Extents written to moving paths since their snapshot copy; the
    /// migrator chases this tail and only cuts over once it is empty.
    dirty: VecDeque<(String, u64, u64)>,
    /// Writes to moving paths currently on the wire. A dirty extent is
    /// only recorded once the server acks, and the server applies the
    /// write *before* the client resumes (the response transfer is a
    /// scheduling point) — so the cutover must also wait for this count
    /// to reach zero, or it could take its clean check inside that
    /// window, delete the old owner's copy, and lose the acked bytes.
    inflight: usize,
    /// Notified as each of those writes completes.
    write_done: Event,
}

/// How long [`FedFs::converge`] waits for a crashed or fenced seat.
const CONVERGE_BOUND: Dur = Dur::from_secs(10);

/// A federated filesystem over N shards — see the module docs.
pub struct FedFs {
    rt: Arc<dyn Runtime>,
    /// Current routing function. Interior-mutable for live re-sharding:
    /// the version bumps at each cutover. Routing only ever spans the
    /// *active* prefix of `shards`.
    map: Mutex<ShardMap>,
    shards: Vec<FedShard>,
    state: Vec<ShardState>,
    ledger: Mutex<ReconcileLedger>,
    recovery: Mutex<RecoveryStats>,
    /// High-water mark across all shards' divergence queues. Unbounded
    /// growth here is exactly what membership promotion prevents; the
    /// federation tests fail if it passes their configured cap.
    div_high_water: AtomicU64,
    membership: Mutex<Option<Arc<Membership>>>,
    remap: Mutex<Option<RemapState>>,
    migration: Mutex<MigrationStats>,
}

impl FedFs {
    /// A federation over `shards` (at least one), all active. The shard map
    /// is sized to the vector, so path routing is a pure function of the
    /// shard count.
    pub fn new(rt: &Arc<dyn Runtime>, shards: Vec<FedShard>) -> Arc<FedFs> {
        let n = shards.len();
        FedFs::with_active_shards(rt, shards, n)
    }

    /// A federation where only the first `active` of `shards` take routing
    /// traffic; the rest are pre-provisioned targets for a later
    /// [`FedFs::begin_reshard`]. `active` must be in `1..=shards.len()`.
    pub fn with_active_shards(
        rt: &Arc<dyn Runtime>,
        shards: Vec<FedShard>,
        active: usize,
    ) -> Arc<FedFs> {
        assert!(!shards.is_empty(), "a federation needs at least one shard");
        assert!(
            (1..=shards.len()).contains(&active),
            "active shard count out of range"
        );
        // A wired reverse replicator must start dormant: seat 0 holds the
        // primary role until a promotion says otherwise, and two live
        // hooks would ping-pong every forward ship back as a reverse one.
        // (Membership re-activates the reverse direction at promotion.)
        for s in &shards {
            if let Some(rev) = &s.reverse {
                rev.set_active(false);
            }
        }
        let state = shards
            .iter()
            .map(|_| ShardState {
                divergence: Mutex::new(VecDeque::new()),
                reconciling: AtomicBool::new(false),
                quiesced: AtomicBool::new(false),
                primary_seat: AtomicUsize::new(0),
                role_gen: AtomicU64::new(0),
                replayed: rt.event(),
            })
            .collect();
        Arc::new(FedFs {
            rt: rt.clone(),
            map: Mutex::new(ShardMap::new(active)),
            shards,
            state,
            ledger: Mutex::new(ReconcileLedger::default()),
            recovery: Mutex::new(RecoveryStats::default()),
            div_high_water: AtomicU64::new(0),
            membership: Mutex::new(None),
            remap: Mutex::new(None),
            migration: Mutex::default(),
        })
    }

    /// The current path→shard routing function.
    pub fn shard_map(&self) -> ShardMap {
        *self.map.lock()
    }

    /// The current map version (bumps at every re-shard cutover).
    pub fn map_version(&self) -> u64 {
        self.map.lock().version()
    }

    /// The shard that owns `path` under the current map.
    pub fn shard_of(&self, path: &str) -> usize {
        self.map.lock().shard_of(path)
    }

    /// The shards (seat mounts) of this federation, active and
    /// pre-provisioned alike.
    pub fn shards(&self) -> &[FedShard] {
        &self.shards
    }

    /// The seat index currently holding `shard`'s primary role.
    pub fn primary_seat_of(&self, shard: usize) -> usize {
        self.state[shard].primary_seat.load(Ordering::SeqCst)
    }

    fn role_gen(&self, shard: usize) -> u64 {
        self.state[shard].role_gen.load(Ordering::SeqCst)
    }

    fn seat_fs(&self, shard: usize, seat: usize) -> &Arc<SrbFs> {
        if seat == 0 {
            &self.shards[shard].primary
        } else {
            &self.shards[shard].replica
        }
    }

    /// Mount of the seat currently in the primary role for `shard`.
    pub(crate) fn primary_fs(&self, shard: usize) -> &Arc<SrbFs> {
        self.seat_fs(shard, self.primary_seat_of(shard))
    }

    /// Mount of the seat currently in the replica role for `shard`.
    pub(crate) fn replica_fs(&self, shard: usize) -> &Arc<SrbFs> {
        self.seat_fs(shard, 1 - self.primary_seat_of(shard))
    }

    /// The replicator shipping in the current primary→replica direction.
    fn active_replicator(&self, shard: usize) -> Option<&Arc<Replicator>> {
        if self.primary_seat_of(shard) == 0 {
            self.shards[shard].replicator.as_ref()
        } else {
            self.shards[shard].reverse.as_ref()
        }
    }

    /// Put every shard under membership governance (see the module docs
    /// and [`semplar_srb::membership`]). Every shard needs both its forward
    /// and reverse replicators wired. Returns the membership handle (epoch
    /// queries, the promotion ledger).
    pub fn enable_membership(self: &Arc<Self>, cfg: MembershipCfg) -> Arc<Membership> {
        let pairs = self
            .shards
            .iter()
            .map(|s| semplar_srb::GovernedPair {
                servers: [s.primary.server().clone(), s.replica.server().clone()],
                forward: s
                    .replicator
                    .clone()
                    .expect("membership needs the forward replicator wired"),
                reverse: s
                    .reverse
                    .clone()
                    .expect("membership needs the reverse replicator wired"),
            })
            .collect();
        let m = Membership::start(&self.rt, cfg, pairs);
        for (i, s) in self.shards.iter().enumerate() {
            // Every session of either seat's mount follows the shard epoch.
            m.register_stamp(i, s.primary.epoch_stamp());
            m.register_stamp(i, s.replica.epoch_stamp());
            let fed = self.clone();
            m.set_promotion_hook(
                i,
                Arc::new(move |shard, _epoch, new_primary| fed.on_promoted(shard, new_primary)),
            );
        }
        *self.membership.lock() = Some(m.clone());
        m
    }

    /// Promotion callback from the membership monitor: swap the shard's
    /// roles and hand back the divergence backlog for the reverse
    /// replicator to drain. Runs inside the monitor task's poll, so it must
    /// not block; the role bump and the queue drain are atomic under the
    /// divergence lock so an in-flight failover write either lands in the
    /// drained batch or sees the new role and routes itself (see
    /// [`FedFile::write_failover`]).
    fn on_promoted(&self, shard: usize, new_primary: usize) -> Vec<(String, u64, u64)> {
        let state = &self.state[shard];
        let drained: Vec<(String, u64, u64)> = {
            let mut q = state.divergence.lock();
            state.primary_seat.store(new_primary, Ordering::SeqCst);
            state.role_gen.fetch_add(1, Ordering::SeqCst);
            q.drain(..).collect()
        };
        // The next failover read (if any) must quiesce the *reverse*
        // replicator, not the forward one it may have quiesced before.
        state.quiesced.store(false, Ordering::SeqCst);
        // Roles changed under live readers: coherence over warmth.
        self.shards[shard].primary.invalidate_lease_all();
        self.shards[shard].replica.invalidate_lease_all();
        // A copy waiting for the deposed seat to come back now routes to
        // the new primary instead.
        let deposed = self.seat_fs(shard, 1 - new_primary).server();
        deposed.state_changed().notify_all();
        drained
    }

    /// Create a collection on every shard's seats (metadata is broadcast:
    /// any shard may own paths under it). Existing collections are
    /// tolerated.
    pub fn mk_coll_all(&self, path: &str) -> IoResult<()> {
        for shard in &self.shards {
            for fs in [&shard.primary, &shard.replica] {
                let conn = fs.admin_conn()?;
                let r = conn.mk_coll(path);
                let _ = conn.disconnect();
                match r {
                    Ok(()) | Err(SrbError::AlreadyExists(_)) => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        Ok(())
    }

    /// Operations served by a replica because the owning primary was
    /// unreachable.
    pub fn failovers(&self) -> u64 {
        self.recovery.lock().disconnects
    }

    /// Snapshot of the cumulative reconciliation ledger.
    pub fn reconcile_ledger(&self) -> ReconcileLedger {
        self.ledger.lock().clone()
    }

    /// Federation-level recovery counters: primary disconnects observed,
    /// operations completed via failover, and time spent reconciling (the
    /// rounds and bytes are in [`FedFs::reconcile_ledger`]).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery.lock().clone()
    }

    /// Extents currently awaiting replay (divergence across all shards).
    pub fn divergent_extents(&self) -> usize {
        self.state.iter().map(|s| s.divergence.lock().len()).sum()
    }

    /// High-water mark of any shard's divergence queue depth.
    pub fn divergence_high_water(&self) -> u64 {
        self.div_high_water.load(Ordering::Relaxed)
    }

    /// Block until the federation is at rest: every seat up and unfenced,
    /// every divergence queue replayed (every extent written to a replica
    /// during an outage is on its primary), every replicator drained. It
    /// waits on the first blocked seat's
    /// [`state_changed`](semplar_srb::SrbServer::state_changed) event,
    /// never on a timer; `Err` if a seat is still down or fenced after
    /// 10 s of virtual time, or if the replay then fails.
    pub fn converge(&self) -> IoResult<()> {
        let deadline = self.rt.now() + CONVERGE_BOUND;
        let stuck = Err(IoError::Srb(SrbError::Disconnected { acked: 0 }));
        let seats = || self.shards.iter().flat_map(|s| [&s.primary, &s.replica]);
        while let Some(fs) = seats().find(|fs| fs.server().is_crashed() || fs.server().is_fenced())
        {
            let left = deadline.since(self.rt.now());
            if left.is_zero() || fs.server().state_changed().wait_timeout(left) == Wake::Timeout {
                return stuck;
            }
        }
        if !(0..self.shards.len()).all(|i| self.try_reconcile(i)) {
            return stuck;
        }
        for shard in &self.shards {
            for repl in [&shard.replicator, &shard.reverse].into_iter().flatten() {
                repl.quiesce();
            }
        }
        Ok(())
    }

    /// True while ops on `shard` must keep using the replica: divergence
    /// queued, or a replay currently in flight.
    fn shard_degraded(&self, shard: usize) -> bool {
        self.state[shard].reconciling.load(Ordering::SeqCst)
            || !self.state[shard].divergence.lock().is_empty()
    }

    fn note_failover(&self) {
        let mut st = self.recovery.lock();
        st.disconnects += 1;
        st.recovered_ops += 1;
    }

    /// Drain the replicator queue before the first failover read on a
    /// shard, so the replica holds every byte the primary ever acked.
    fn quiesce_for_reads(&self, shard: usize) {
        if self.state[shard].quiesced.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(repl) = self.active_replicator(shard) {
            repl.quiesce();
        }
    }

    /// True for errors the federation can route around: transient stream
    /// failures, and stale-epoch rejections (the seat we talked to lost —
    /// or has not yet reclaimed — write authority; another seat has it).
    fn routable(e: &IoError) -> bool {
        e.is_transient() || matches!(e, IoError::Srb(SrbError::StaleEpoch { .. }))
    }

    /// One reconciliation attempt for `shard`: replay its divergence queue
    /// (in order) from the replica to the primary in [`RESUME_BLOCK`]
    /// blocks. Returns true if the queue is empty afterwards. A primary
    /// that is still down refuses its first open instantly (no time
    /// charged under `RetryPolicy::none`), so probing is cheap; unreplayed
    /// entries are put back in order.
    fn try_reconcile(&self, shard: usize) -> bool {
        let state = &self.state[shard];
        if state.reconciling.swap(true, Ordering::SeqCst) {
            // Another actor is mid-replay; the shard stays degraded here.
            return false;
        }
        let pending: Vec<(String, u64, u64)> = {
            let mut q = state.divergence.lock();
            q.drain(..).collect()
        };
        if pending.is_empty() {
            state.reconciling.store(false, Ordering::SeqCst);
            return true;
        }
        let t0 = self.rt.now();
        let mut replayed: Vec<(String, u64, u64)> = Vec::new();
        let mut replayed_bytes = 0u64;
        let mut failed = false;
        let mut rest = pending.into_iter();
        for (path, offset, len) in rest.by_ref() {
            let (src, dst) = (self.replica_fs(shard), self.primary_fs(shard));
            match self.copy_blocks(src, dst, &path, offset, len, "reconcile/resume-block") {
                Ok(_) => {
                    replayed_bytes += len;
                    replayed.push((path, offset, len));
                }
                Err(e) if FedFs::routable(&e) => {
                    // Primary (or replica) still unreachable — or fenced,
                    // awaiting epoch certification: requeue this extent and
                    // stop — order must be preserved.
                    let mut q = state.divergence.lock();
                    q.push_front((path, offset, len));
                    failed = true;
                    break;
                }
                Err(_) => {
                    // Permanent error (object unlinked mid-outage): the
                    // extent can never be replayed; drop it.
                }
            }
        }
        if failed {
            // Everything after the failed extent, back in order.
            let mut q = state.divergence.lock();
            for entry in rest.rev() {
                q.push_front(entry);
            }
        }
        if !replayed.is_empty() {
            // A round moved bytes between copies outside any one server's
            // view of its changes (replays fire the primary's hooks, but
            // the shard is changing roles under live readers).
            // Revoke all leases on both mounts — coherence over warmth
            // across the transition.
            self.shards[shard].primary.invalidate_lease_all();
            self.shards[shard].replica.invalidate_lease_all();
            let mut ledger = self.ledger.lock();
            ledger.bytes += replayed_bytes;
            ledger.entries.extend(replayed);
            if !failed {
                ledger.rounds += 1;
            }
            self.recovery.lock().recovery_time += self.rt.now() - t0;
        }
        state.reconciling.store(false, Ordering::SeqCst);
        state.replayed.notify_all();
        !failed
    }

    /// The one block copier between mounts: `[offset, offset + len)` of
    /// `path` from `src` to `dst` (created there if missing) in
    /// [`RESUME_BLOCK`] blocks, each a schedule point named `tag`, until
    /// `len` or a short read (so `u64::MAX` copies the whole object).
    /// Returns the bytes copied. Writes on `dst` fire its change hooks, so
    /// its replicator re-ships them and keeps that pair converged.
    fn copy_blocks(
        &self,
        src: &Arc<SrbFs>,
        dst: &Arc<SrbFs>,
        path: &str,
        offset: u64,
        len: u64,
        tag: &str,
    ) -> IoResult<u64> {
        // Probe the destination first (instant refusal while crashed) so a
        // dead one costs nothing — no source reads are wasted.
        let mut dst = dst.open(path, OpenFlags::CreateRw)?;
        let mut src = src.open(path, OpenFlags::Read)?;
        let mut copy = |mut done: u64| loop {
            let blk = RESUME_BLOCK.min(len - done);
            if blk == 0 {
                return Ok(done);
            }
            self.rt.schedule_point(tag);
            let data = src.read_at(offset + done, blk)?;
            if !data.is_empty() {
                dst.write_at(offset + done, &data)?;
            }
            done += data.len();
            if data.len() < blk {
                return Ok(done);
            }
        };
        let result = copy(0);
        let _ = src.close();
        let _ = dst.close();
        result
    }

    // ---- live re-sharding ------------------------------------------------

    /// Start migrating the namespace onto the first `target_active` shards
    /// (which may be more or fewer than today's active count, but at most
    /// the provisioned total). `paths` is the population to consider —
    /// paths whose owner changes under the new map are snapshot-copied to
    /// their new owner by a background thread while traffic continues,
    /// dirtied extents are chased, and the cutover is atomic once the tail
    /// is dry. With membership enabled, the cutover also bumps every
    /// shard's epoch so writes routed by the old map are fenced.
    pub fn begin_reshard(self: &Arc<Self>, target_active: usize, paths: &[String]) {
        assert!(
            (1..=self.shards.len()).contains(&target_active),
            "target shard count out of range"
        );
        let from = self.shard_map();
        let to = ShardMap::versioned(target_active, from.version() + 1);
        let moving: Vec<(String, usize, usize)> = paths
            .iter()
            .filter_map(|p| {
                let a = from.shard_of(p);
                let b = to.shard_of(p);
                (a != b).then(|| (p.clone(), a, b))
            })
            .collect();
        {
            let mut remap = self.remap.lock();
            assert!(remap.is_none(), "a re-shard is already in flight");
            *remap = Some(RemapState {
                to,
                moving,
                dirty: VecDeque::new(),
                inflight: 0,
                write_done: self.rt.event(),
            });
        }
        let fed = self.clone();
        self.rt
            .spawn("fedfs/migrator", Box::new(move || fed.migrate()));
    }

    /// True while a re-shard migration is in flight.
    pub fn resharding(&self) -> bool {
        self.remap.lock().is_some()
    }

    /// Snapshot of the re-sharding counters.
    pub fn migration_stats(&self) -> MigrationStats {
        *self.migration.lock()
    }

    /// If `path` is mid-migration, its `(old_shard, new_shard)` owners.
    fn moving_owners(&self, path: &str) -> Option<(usize, usize)> {
        self.remap.lock().as_ref().and_then(|r| {
            r.moving
                .iter()
                .find(|(p, _, _)| p == path)
                .map(|&(_, a, b)| (a, b))
        })
    }

    /// Declare a write to `path` *before* it goes on the wire. If the path
    /// is mid-migration, the re-shard cutover is pinned open (the in-flight
    /// count blocks the migrator's clean check) until the matching
    /// [`FedFs::end_remap_write`] records the outcome — the acked extent
    /// must reach the dirty tail before the cutover may delete the old
    /// owner's copy. Returns whether the cutover was pinned.
    fn begin_remap_write(&self, path: &str) -> bool {
        let mut remap = self.remap.lock();
        if let Some(r) = remap.as_mut() {
            if r.moving.iter().any(|(p, _, _)| p == path) {
                r.inflight += 1;
                return true;
            }
        }
        false
    }

    /// Close out a write declared via [`FedFs::begin_remap_write`]:
    /// record the acked extent (if any) in the migrator's dirty tail and
    /// release the cutover pin. Also records the extent when a re-shard
    /// started *during* the write (`pinned` false but the path is moving
    /// now) — the snapshot copy may already have run past it.
    fn end_remap_write(&self, pinned: bool, path: &str, acked: Option<(u64, u64)>) {
        let mut remap = self.remap.lock();
        if let Some(r) = remap.as_mut() {
            if let Some((offset, len)) = acked {
                if r.moving.iter().any(|(p, _, _)| p == path) {
                    r.dirty.push_back((path.to_string(), offset, len));
                }
            }
            if pinned {
                r.inflight -= 1;
                r.write_done.notify_all();
            }
        }
    }

    /// Record a read of a mid-migration path (double-routed).
    fn note_remap_read(&self, path: &str) {
        if self.moving_owners(path).is_some() {
            self.migration.lock().double_routed_reads += 1;
        }
    }

    /// The migrator thread: copy every moving path whole (the snapshot),
    /// chase the dirty tail until it is dry, cut the map over atomically,
    /// delete the old owners' copies and return.
    fn migrate(self: Arc<Self>) {
        let moving = self.remap.lock().as_ref().map(|r| r.moving.clone());
        let moving = moving.expect("set by begin_reshard");
        let mut batch: Vec<_> = moving
            .iter()
            .map(|(p, ..)| (p.clone(), 0, u64::MAX))
            .collect();
        loop {
            for (path, offset, len) in batch {
                let (tag, snapshot) = match len {
                    u64::MAX => ("reshard/copy-path", true),
                    _ => ("reshard/dirty-replay", false),
                };
                self.rt.schedule_point(tag);
                // Only writes to moving paths dirty the tail.
                let (_, a, b) = moving.iter().find(|(p, ..)| *p == path).expect("moving");
                if let Some(bytes) = self.move_extent(&path, *a, *b, offset, len) {
                    let mut st = self.migration.lock();
                    st.moved_bytes += bytes;
                    st.moved_paths += snapshot as u64;
                    st.dirty_replays += !snapshot as u64;
                }
            }
            // Atomic cutover: flip the map under both the routing and the
            // remap lock, but only if no write dirtied the tail and none is
            // still on the wire (its dirty extent is recorded only after the
            // ack — cutting over inside that window would drop acked bytes
            // with the old owner's copy). Nothing here blocks on virtual
            // time, so the flip is a single scheduling step.
            let mut map = self.map.lock();
            let mut remap = self.remap.lock();
            let r = remap.as_mut().expect("only the migrator ends a re-shard");
            batch = r.dirty.drain(..).collect();
            if !batch.is_empty() || r.inflight > 0 {
                let write_done = r.write_done.clone();
                drop(remap);
                drop(map);
                if batch.is_empty() {
                    // A write is still on the wire (or behind a fence): its
                    // completion may dirty the tail, so re-check then.
                    write_done.wait();
                }
                continue;
            }
            let st = remap.take().expect("remap checked above");
            *map = st.to;
            drop(remap);
            drop(map);
            // Epoch bump fences writes still routed by the old map (when
            // membership governs the federation).
            if let Some(m) = self.membership.lock().clone() {
                m.note_reshard();
            }
            // The map swap above IS the cutover; count it before the
            // (time-consuming) cleanup below, so observers who saw
            // `resharding()` go false read a settled counter.
            self.migration.lock().completed += 1;
            // The old owners' copies are garbage now; drop them so a stale
            // route cannot read a frozen object.
            for (path, a, _) in &st.moving {
                let _ = self.primary_fs(*a).delete(path);
                let _ = self.replica_fs(*a).delete(path);
            }
            return;
        }
    }

    /// Copy `[offset, offset + len)` of a moving `path` from its old owner
    /// `a` to its new owner `b`. `a`'s divergence is replayed first, so its
    /// primary holds every acked byte; whatever refuses is waited out, for
    /// as long as it takes. Returns the bytes copied, or `None` if the
    /// object does not exist on `a` or the copy fails for good.
    fn move_extent(&self, path: &str, a: usize, b: usize, offset: u64, len: u64) -> Option<u64> {
        loop {
            if self.try_reconcile(a) {
                let (src, dst) = (self.primary_fs(a), self.primary_fs(b));
                match self.copy_blocks(src, dst, path, offset, len, "reshard/copy-block") {
                    Ok(n) => return Some(n),
                    Err(e) if FedFs::routable(&e) => {}
                    Err(e) => {
                        // A missing source leaves behind the empty object
                        // the copy created on the destination.
                        if matches!(e, IoError::Srb(SrbError::NotFound(_))) {
                            let _ = dst.delete(path);
                        }
                        return None;
                    }
                }
            }
            // Wait for what refused to change: a seat down or fenced comes
            // back (or is deposed), a replay in flight ends. A cut with
            // every seat up is retried at once.
            let seats = [self.primary_fs(a), self.replica_fs(a), self.primary_fs(b)];
            let state = &self.state[a];
            match seats
                .iter()
                .find(|fs| fs.server().is_crashed() || fs.server().is_fenced())
            {
                Some(fs) => fs.server().state_changed().wait(),
                None if state.reconciling.load(Ordering::SeqCst) => state.replayed.wait(),
                None => {}
            }
        }
    }

    /// Fallback read for a mid-migration path whose old owner is
    /// unreachable: serve from the new owner's (possibly still-chasing)
    /// copy. `None` when the path is not migrating.
    fn remap_read_fallback(&self, path: &str, offset: u64, len: u64) -> Option<IoResult<Payload>> {
        let (_, b) = self.moving_owners(path)?;
        let r = self
            .primary_fs(b)
            .open(path, OpenFlags::Read)
            .and_then(|mut f| {
                let r = f.read_at(offset, len);
                let _ = f.close();
                r
            });
        Some(r)
    }
}

impl AdioFs for Arc<FedFs> {
    fn open(&self, path: &str, flags: OpenFlags) -> IoResult<Box<dyn AdioFile>> {
        self.open_pinned(path, flags, None)
    }

    fn open_pinned(
        &self,
        path: &str,
        flags: OpenFlags,
        pin: Option<usize>,
    ) -> IoResult<Box<dyn AdioFile>> {
        let shard = self.shard_of(path);
        let mut file = FedFile {
            fed: self.clone(),
            shard,
            path: path.to_string(),
            flags,
            pin,
            primary: None,
            replica: None,
            gen: self.role_gen(shard),
            map_version: self.map_version(),
            closed: false,
        };
        // Bind to the owning primary eagerly when it is healthy; a
        // transient refusal defers to per-op failover (a CreateRw open can
        // be replayed, and reads go to the replica).
        if !self.shard_degraded(shard) {
            match file.open_primary() {
                Ok(()) => {}
                Err(e) if FedFs::routable(&e) => {
                    self.note_failover();
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Box::new(file))
    }

    fn delete(&self, path: &str) -> IoResult<()> {
        let shard = self.shard_of(path);
        let r = self.primary_fs(shard).delete(path);
        // Best-effort on the replica: it may not have the object yet.
        let _ = self.replica_fs(shard).delete(path);
        r
    }

    fn name(&self) -> &'static str {
        "fedfs"
    }
}

/// An open federated file: primary handle plus lazily-opened replica
/// failover handle.
struct FedFile {
    fed: Arc<FedFs>,
    shard: usize,
    path: String,
    flags: OpenFlags,
    pin: Option<usize>,
    primary: Option<Box<dyn AdioFile>>,
    replica: Option<Box<dyn AdioFile>>,
    /// Role generation of `shard` when the handles were bound.
    gen: u64,
    /// Map version when `shard` was computed.
    map_version: u64,
    closed: bool,
}

impl FedFile {
    fn open_primary(&mut self) -> IoResult<()> {
        if self.primary.is_none() {
            let f = self
                .fed
                .primary_fs(self.shard)
                .open_pinned(&self.path, self.flags, self.pin)?;
            self.primary = Some(f);
        }
        Ok(())
    }

    /// The replica handle, opened on first use. Writable files open
    /// `CreateRw` — during an outage the object may not exist on the
    /// replica yet (created on the primary, replication still in flight).
    fn replica_file(&mut self) -> IoResult<&mut Box<dyn AdioFile>> {
        if self.replica.is_none() {
            let flags = if self.flags.writable() {
                OpenFlags::CreateRw
            } else {
                OpenFlags::Read
            };
            let f = self
                .fed
                .replica_fs(self.shard)
                .open_pinned(&self.path, flags, self.pin)?;
            self.replica = Some(f);
        }
        Ok(self.replica.as_mut().expect("replica handle just opened"))
    }

    /// Refuse a closed handle, and re-route one whose world changed since
    /// its handles were bound: a promotion swapped the shard's roles (role
    /// generation moved), or a re-shard cutover moved the path to a
    /// different shard (map version moved). Stale handles are dropped; the
    /// next use rebinds against the current owner/roles. Neither version
    /// ever moves without membership or re-sharding.
    fn refresh_route(&mut self) -> IoResult<()> {
        if self.closed {
            return Err(IoError::Closed);
        }
        let ver = self.fed.map_version();
        let moved = ver != self.map_version;
        if moved {
            self.map_version = ver;
            self.shard = self.fed.shard_of(&self.path);
        }
        let gen = self.fed.role_gen(self.shard);
        if moved || gen != self.gen {
            self.gen = gen;
            self.primary = None;
            self.replica = None;
        }
        Ok(())
    }

    /// Write `data` to the failover seat and queue the extent for replay —
    /// unless that seat was *promoted* while the write was in flight, in
    /// which case the write is already a primary write and the extent is
    /// handed straight to the (now active) reverse replicator.
    fn write_failover(&mut self, offset: u64, data: &Payload) -> IoResult<u64> {
        /// How many 10 ms certification waits a stale-epoch write sits out
        /// before surfacing the error. Certification normally lands within
        /// a heartbeat (tens of milliseconds); a second of virtual time
        /// means the quorum is unreachable and the epoch may never certify.
        const STALE_EPOCH_WAITS: u32 = 100;
        let gen0 = self.fed.role_gen(self.shard);
        let mut stale_waits = 0u32;
        let n = loop {
            let f = self.replica_file()?;
            match f.write_at(offset, data) {
                Ok(n) => break n,
                Err(e @ IoError::Srb(SrbError::StaleEpoch { .. })) => {
                    // The seat was promoted out from under this write and
                    // the mount's epoch stamp hasn't advanced yet: wait out
                    // the certification and resend at the new epoch. Bounded
                    // — an uncertifiable seat (no reachable quorum) must
                    // surface the error, not spin forever.
                    stale_waits += 1;
                    if stale_waits > STALE_EPOCH_WAITS {
                        return Err(e);
                    }
                    self.fed.rt.sleep(semplar_runtime::Dur::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        };
        let state = &self.fed.state[self.shard];
        let mut promoted_under_us = false;
        {
            // Atomic with the promotion hook's drain: either this extent is
            // in the queue when promotion drains it, or we observe the new
            // generation here and route it ourselves.
            let mut q = state.divergence.lock();
            if self.fed.role_gen(self.shard) == gen0 {
                q.push_back((self.path.clone(), offset, n));
                let depth = q.len() as u64;
                drop(q);
                self.fed.div_high_water.fetch_max(depth, Ordering::Relaxed);
            } else {
                promoted_under_us = true;
            }
        }
        if promoted_under_us {
            if let Some(repl) = self.fed.active_replicator(self.shard) {
                repl.enqueue_extent(&self.path, offset, n);
            }
        }
        // The write landed on the replica, so the *primary* never reported
        // it as a change — revoke the primary mount's cached lease bytes
        // for the range explicitly, or a lease-holding reader could keep
        // serving pre-failover bytes after the shard reconciles. (The
        // replica mount's own hook fired on the write above.)
        self.fed
            .primary_fs(self.shard)
            .invalidate_lease_range(&self.path, offset, n);
        Ok(n)
    }

    /// The routed body of [`AdioFile::write_at`]: primary write with
    /// failover, minus the re-shard bookkeeping (the caller pins the
    /// cutover open around this whole call).
    fn write_at_routed(&mut self, offset: u64, data: &Payload) -> IoResult<u64> {
        if let Some(r) = self.on_primary(|f| f.write_at(offset, data)) {
            return r;
        }
        // The whole payload goes to the replica. Any prefix the primary
        // acknowledged before the cut is also in the extent — replay is
        // idempotent (same bytes, same offsets), so the overlap is
        // harmless and no acked byte can be lost.
        self.write_failover(offset, data)
    }

    /// Run `op` on the primary handle if the shard settles. `Some` is the
    /// answer; `None` means fail over — the failover is counted and a
    /// handle that failed routably is dropped.
    fn on_primary<T>(
        &mut self,
        op: impl FnOnce(&mut Box<dyn AdioFile>) -> IoResult<T>,
    ) -> Option<IoResult<T>> {
        if self.settle() {
            let r = self.open_primary().and_then(|()| {
                op(self
                    .primary
                    .as_mut()
                    .expect("primary bound by open_primary"))
            });
            match r {
                Err(e) if FedFs::routable(&e) => self.primary = None,
                r => return Some(r),
            }
        }
        self.fed.note_failover();
        None
    }

    /// Reconcile-first: replay any divergence on this shard before
    /// touching the primary, so replayed and new writes stay ordered and
    /// reads never see a stale primary. Returns true if the primary is
    /// clean (use it), false if the shard must stay on the replica.
    fn settle(&mut self) -> bool {
        if !self.fed.shard_degraded(self.shard) {
            return true;
        }
        if self.fed.try_reconcile(self.shard) {
            // Primary is live and caught up; rebind to it.
            self.primary = None;
            self.open_primary().is_ok()
        } else {
            false
        }
    }
}

impl AdioFile for FedFile {
    fn read_at(&mut self, offset: u64, len: u64) -> IoResult<Payload> {
        self.refresh_route()?;
        self.fed.note_remap_read(&self.path);
        if let Some(r) = self.on_primary(|f| f.read_at(offset, len)) {
            return r;
        }
        // Failover read: make sure everything the primary acked reached
        // the replica, then serve from it.
        self.fed.quiesce_for_reads(self.shard);
        match self.replica_file().and_then(|f| f.read_at(offset, len)) {
            Ok(p) => Ok(p),
            Err(e) if FedFs::routable(&e) => {
                // Both seats unreachable. Mid-migration, the new owner's
                // chasing copy can still serve the read (double routing).
                match self.fed.remap_read_fallback(&self.path, offset, len) {
                    Some(r) => r,
                    None => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    fn write_at(&mut self, offset: u64, data: &Payload) -> IoResult<u64> {
        self.refresh_route()?;
        // Pin the re-shard cutover open *before* the write goes on the
        // wire: the server applies and acks before this client resumes, so
        // recording the dirty extent only afterwards would leave a window
        // where the migrator sees a dry tail, cuts over, and deletes the
        // old owner's copy — losing the acked bytes.
        let pinned = self.fed.begin_remap_write(&self.path);
        let result = self.write_at_routed(offset, data);
        self.fed.end_remap_write(
            pinned,
            &self.path,
            result.as_ref().ok().map(|&n| (offset, n)),
        );
        result
    }

    fn size(&mut self) -> IoResult<u64> {
        self.refresh_route()?;
        if let Some(r) = self.on_primary(|f| f.size()) {
            return r;
        }
        self.fed.quiesce_for_reads(self.shard);
        self.replica_file()?.size()
    }

    fn meter(&self) -> Option<Arc<IoMeter>> {
        self.primary
            .as_ref()
            .and_then(|f| f.meter())
            .or_else(|| self.replica.as_ref().and_then(|f| f.meter()))
    }

    fn close(&mut self) -> IoResult<()> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        if let Some(mut f) = self.primary.take() {
            let _ = f.close();
        }
        if let Some(mut f) = self.replica.take() {
            let _ = f.close();
        }
        Ok(())
    }
}
