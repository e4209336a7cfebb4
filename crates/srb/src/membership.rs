//! Shard membership: leases, epochs, quorum promotion, and fencing.
//!
//! Without it a shard's replica only serves reads, and a long primary outage
//! grows the divergence queue without bound. This module turns each
//! primary/replica pair into a governed shard with a high-availability
//! protocol, entirely on virtual time so every run is deterministic and
//! explorable:
//!
//! * **Leases & heartbeats** — a per-shard monitor heartbeats the current
//!   primary every [`MembershipCfg::heartbeat_every`]. A primary that misses
//!   heartbeats for [`MembershipCfg::lease_timeout`] loses its lease. The
//!   monitor only sleeps and waits: it is a task, `membership/monitor/<n>`.
//! * **Quorum promotion** — on lease expiry the monitor runs a collapsed,
//!   deterministic Bracha-style reliable-broadcast vote over all federation
//!   seats (every server in every governed shard, plus optional witness
//!   seats): a *send* round proposes `(shard, epoch+1, replica)`, an *echo*
//!   round must gather ⌈(n+f+1)/2⌉ echoes, and a *ready* round must gather
//!   2f+1 readies (with the classic f+1 amplification rule) before the
//!   promotion is delivered. Seats are honest and rounds take one
//!   [`MembershipCfg::hop_delay`] each, so the counts collapse to the live
//!   seat count — but the thresholds genuinely gate: with n = 4 seats and
//!   f = 1, a promotion needs 3 live seats, which is exactly what one
//!   crashed primary leaves.
//! * **Epoch fencing** — every promotion bumps the shard epoch. Epochs ride
//!   the spare bytes of the fixed 256-byte wire header
//!   ([`ReqFrame::epoch`](crate::proto::ReqFrame)); servers under
//!   [`SrbServer::enable_epoch_fencing`] reject stale-epoch mutations, and a
//!   restarted old primary comes back *hard-fenced* — it cannot accept a
//!   single write until the monitor certifies its epoch — so a deposed
//!   primary can never split the brain.
//! * **Reverse reconciliation** — at promotion the deposed primary's
//!   divergence backlog (writes acked on the *replica* while the primary
//!   was down, queued by `semplar::fedfs`) drains through the shard's
//!   *reverse* replicator (new primary → old primary), and the old primary
//!   rejoins as the replica of the new epoch. The existing
//!   [`Replicator`] retained-block machinery does the shipping; membership
//!   only flips which direction is active.
//!
//! Everything here is opt-in: without a [`Membership`] instance no server
//! fences, no monitor runs, frames carry epoch 0, and a shard's roles never
//! move.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use semplar_runtime::sync::OnceCellBlocking;
use semplar_runtime::{Dur, Runtime, Task, TaskCtx, TaskExecutor, TaskStep, Time};

use crate::federation::Replicator;
use crate::server::SrbServer;

/// Tuning knobs for the lease/heartbeat/promotion protocol.
#[derive(Clone, Copy, Debug)]
pub struct MembershipCfg {
    /// How often each shard monitor heartbeats its primary.
    pub heartbeat_every: Dur,
    /// Lease duration: a primary silent for this long is deposed.
    pub lease_timeout: Dur,
    /// One-way message delay charged per vote round (send, echo, ready).
    pub hop_delay: Dur,
    /// Epoch certified on every server when governance starts (≥ 1; epoch 0
    /// means "unfenced" on the wire).
    pub base_epoch: u64,
    /// Extra always-live witness seats in the vote (tie-breakers for tiny
    /// federations; 0 keeps the quorum exactly the federation's servers).
    pub witnesses: usize,
}

impl Default for MembershipCfg {
    fn default() -> Self {
        MembershipCfg {
            heartbeat_every: Dur::from_millis(25),
            lease_timeout: Dur::from_millis(100),
            hop_delay: Dur::from_millis(1),
            base_epoch: 1,
            witnesses: 0,
        }
    }
}

/// One governed shard handed to [`Membership::start`]: its two seats and
/// the replicators in both directions between them.
pub struct GovernedPair {
    /// Seat 0 (the initial primary) and seat 1 (the initial replica).
    pub servers: [Arc<SrbServer>; 2],
    /// Seat 0 → seat 1 replication (active while seat 0 is primary).
    pub forward: Arc<Replicator>,
    /// Seat 1 → seat 0 replication (activated at promotion).
    pub reverse: Arc<Replicator>,
}

/// What kind of membership transition a ledger entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransitionKind {
    /// A quorum vote elevated the replica seat to primary.
    Promoted,
    /// A fenced (restarted) seat was re-certified into the current epoch.
    Rejoined,
    /// A live re-shard cut over; every governed shard's epoch bumped.
    Resharded,
}

/// One committed membership transition. The ledger of these is the
/// subsystem's externally visible history — the promotion proptest pins it
/// bit-identical per seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransitionRecord {
    /// Virtual time the transition committed.
    pub at: Time,
    /// Governed shard index.
    pub shard: usize,
    /// Epoch in force after the transition.
    pub epoch: u64,
    /// Seat index holding the primary role after the transition.
    pub primary: usize,
    /// Echo votes gathered (promotions only; 0 otherwise).
    pub echoes: u32,
    /// Ready votes gathered (promotions only; 0 otherwise).
    pub readies: u32,
    /// What happened.
    pub kind: TransitionKind,
}

/// The ordered history of membership transitions across all shards.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PromotionLedger {
    /// Transitions in commit order.
    pub entries: Vec<TransitionRecord>,
}

impl PromotionLedger {
    /// Promotion entries only.
    pub fn promotions(&self) -> impl Iterator<Item = &TransitionRecord> {
        self.entries
            .iter()
            .filter(|e| e.kind == TransitionKind::Promoted)
    }
}

/// Callback into the client/federation layer at the moment a promotion
/// commits: `(shard, new_epoch, new_primary_seat)`. Returns the shard's
/// drained divergence backlog — `(path, offset, len)` extents acked on the
/// old replica that the *old primary* is missing — which membership feeds
/// into the reverse replicator.
pub type PromotionHook = Arc<dyn Fn(usize, u64, usize) -> Vec<(String, u64, u64)> + Send + Sync>;

struct ShardGov {
    servers: [Arc<SrbServer>; 2],
    forward: Arc<Replicator>,
    reverse: Arc<Replicator>,
    /// Current epoch (monotone; starts at `base_epoch`).
    epoch: AtomicU64,
    /// Seat index currently holding the primary lease.
    primary: AtomicUsize,
    /// Virtual time of the last heartbeat the primary answered.
    last_beat: Mutex<Time>,
    /// Epoch stamps to advance on every transition: the replicators' own
    /// stamps plus any client-mount stamps registered via
    /// [`Membership::register_stamp`]. All sessions sharing a stamp move to
    /// the new epoch atomically.
    stamps: Mutex<Vec<Arc<AtomicU64>>>,
    hook: Mutex<Option<PromotionHook>>,
}

/// The membership service: per-shard monitor tasks plus the shared vote
/// and ledger state. One instance governs an entire federation.
pub struct Membership {
    rt: Arc<dyn Runtime>,
    cfg: MembershipCfg,
    shards: Vec<ShardGov>,
    ledger: Mutex<PromotionLedger>,
}

impl Membership {
    /// Put `pairs` under membership governance: enable epoch fencing on
    /// every seat at [`MembershipCfg::base_epoch`], stamp both replicators
    /// of each pair into the epoch, deactivate the reverse replicators
    /// (seat 0 starts as primary), and spawn one monitor task per shard.
    pub fn start(
        rt: &Arc<dyn Runtime>,
        cfg: MembershipCfg,
        pairs: Vec<GovernedPair>,
    ) -> Arc<Membership> {
        assert!(!pairs.is_empty(), "membership needs at least one shard");
        let base = cfg.base_epoch.max(1);
        let now = rt.now();
        let shards: Vec<ShardGov> = pairs
            .into_iter()
            .map(|p| {
                for s in &p.servers {
                    s.enable_epoch_fencing(base);
                }
                // Replication starts in the forward direction only; both
                // daemons' connections carry the shard epoch from now on.
                p.forward.set_active(true);
                p.reverse.set_active(false);
                let f_stamp = p.forward.epoch_stamp();
                let r_stamp = p.reverse.epoch_stamp();
                f_stamp.store(base, Ordering::SeqCst);
                r_stamp.store(base, Ordering::SeqCst);
                ShardGov {
                    servers: p.servers,
                    forward: p.forward,
                    reverse: p.reverse,
                    epoch: AtomicU64::new(base),
                    primary: AtomicUsize::new(0),
                    last_beat: Mutex::new(now),
                    stamps: Mutex::new(vec![f_stamp, r_stamp]),
                    hook: Mutex::new(None),
                }
            })
            .collect();
        let m = Arc::new(Membership {
            rt: rt.clone(),
            cfg: MembershipCfg {
                base_epoch: base,
                ..cfg
            },
            shards,
            ledger: Mutex::new(PromotionLedger::default()),
        });
        let monitors = TaskExecutor::new(rt, "membership/monitor");
        for shard in 0..m.shards.len() {
            monitors.spawn_daemon(Box::new(Monitor {
                m: m.clone(),
                shard,
                watch: Watch::Start,
            }));
        }
        m
    }

    /// Register a client-side epoch stamp with `shard`; it is immediately
    /// set to the shard's current epoch and advanced on every transition.
    pub fn register_stamp(&self, shard: usize, stamp: Arc<AtomicU64>) {
        let gov = &self.shards[shard];
        stamp.store(gov.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        gov.stamps.lock().push(stamp);
    }

    /// Install the promotion callback for `shard` (see [`PromotionHook`]).
    pub fn set_promotion_hook(&self, shard: usize, hook: PromotionHook) {
        *self.shards[shard].hook.lock() = Some(hook);
    }

    /// The epoch currently in force for `shard`.
    pub fn epoch(&self, shard: usize) -> u64 {
        self.shards[shard].epoch.load(Ordering::SeqCst)
    }

    /// The seat index currently holding `shard`'s primary lease.
    pub fn primary_of(&self, shard: usize) -> usize {
        self.shards[shard].primary.load(Ordering::SeqCst)
    }

    /// Snapshot of the transition ledger.
    pub fn ledger(&self) -> PromotionLedger {
        self.ledger.lock().clone()
    }

    /// A live re-shard committed: bump every governed shard's epoch, certify
    /// both seats into it, and advance all stamps. Writes routed by the old
    /// shard map now carry a stale epoch and are fenced — the re-sharding
    /// cutover is atomic at this bump.
    pub fn note_reshard(&self) {
        for (s, gov) in self.shards.iter().enumerate() {
            let e = gov.epoch.fetch_add(1, Ordering::SeqCst) + 1;
            for srv in &gov.servers {
                // A seat that restarted and is still hard-fenced has not
                // been re-admitted; certifying it here would silently lift
                // the fence with no `Rejoined` record. Leave it fenced —
                // the monitor's certify_rejoin path admits it into the
                // (post-reshard) epoch and writes the ledger entry.
                if !srv.is_fenced() {
                    srv.certify_epoch(e);
                }
            }
            for st in gov.stamps.lock().iter() {
                st.store(e, Ordering::SeqCst);
            }
            self.ledger.lock().entries.push(TransitionRecord {
                at: self.rt.now(),
                shard: s,
                epoch: e,
                primary: gov.primary.load(Ordering::SeqCst),
                echoes: 0,
                readies: 0,
                kind: TransitionKind::Resharded,
            });
        }
    }

    /// Total vote seats: every server of every governed shard, plus
    /// configured witnesses.
    fn seat_count(&self) -> usize {
        2 * self.shards.len() + self.cfg.witnesses
    }

    /// Seats currently able to vote (witnesses never crash).
    fn live_seats(&self) -> usize {
        self.cfg.witnesses
            + self
                .shards
                .iter()
                .flat_map(|g| g.servers.iter())
                .filter(|s| !s.is_crashed())
                .count()
    }

    /// A heartbeat: refresh a live primary's lease and certify fenced
    /// rejoiners; `true` once the lease expired and a live replica stands.
    fn beat(&self, shard: usize) -> bool {
        let gov = &self.shards[shard];
        let p = gov.primary.load(Ordering::SeqCst);
        let r = 1 - p;
        if !gov.servers[p].is_crashed() {
            *gov.last_beat.lock() = self.rt.now();
            // A restarted seat comes back hard-fenced; certify it into the
            // current epoch so it can serve again. The primary itself hits
            // this after a sub-lease blip; the deposed primary hits it
            // after promotion, as a rejoin.
            for seat in [p, r] {
                if gov.servers[seat].is_fenced() && !gov.servers[seat].is_crashed() {
                    self.certify_rejoin(shard, seat);
                }
            }
            return false;
        }
        let silent = self.rt.now().since(*gov.last_beat.lock());
        // The replica can only take over if it is alive.
        silent >= self.cfg.lease_timeout && !gov.servers[r].is_crashed()
    }

    /// Commit a delivered promotion, the forward replicator drained: flip
    /// replication direction, hand the divergence backlog to the reverse
    /// replicator, certify the new primary into the bumped epoch, and
    /// advance every registered stamp.
    fn promote(&self, shard: usize, echoes: u32, readies: u32) {
        let gov = &self.shards[shard];
        let new_primary = 1 - gov.primary.load(Ordering::SeqCst);
        gov.forward.set_active(false);
        // Activate the reverse direction *before* the client layer starts
        // routing writes to the new primary, so no post-promotion write can
        // slip past the (now reverse) replication hook.
        gov.reverse.set_active(true);
        let epoch = gov.epoch.load(Ordering::SeqCst) + 1;
        // The client layer swaps roles and returns the divergence backlog:
        // extents acked by the replica-as-failover-target that the deposed
        // primary is missing. They drain new-primary → old-primary.
        let hook = gov.hook.lock().clone();
        if let Some(h) = hook {
            for (path, off, len) in h(shard, epoch, new_primary) {
                gov.reverse.enqueue_extent(&path, off, len);
            }
        }
        gov.servers[new_primary].certify_epoch(epoch);
        gov.epoch.store(epoch, Ordering::SeqCst);
        for st in gov.stamps.lock().iter() {
            st.store(epoch, Ordering::SeqCst);
        }
        gov.primary.store(new_primary, Ordering::SeqCst);
        *gov.last_beat.lock() = self.rt.now();
        self.ledger.lock().entries.push(TransitionRecord {
            at: self.rt.now(),
            shard,
            epoch,
            primary: new_primary,
            echoes,
            readies,
            kind: TransitionKind::Promoted,
        });
    }

    /// Certify a restarted, hard-fenced seat into the current epoch. If it
    /// was a deposed primary, its stale writes have been fenced since the
    /// restart; from here it serves as the shard's replica.
    fn certify_rejoin(&self, shard: usize, seat: usize) {
        let gov = &self.shards[shard];
        let epoch = gov.epoch.load(Ordering::SeqCst);
        gov.servers[seat].certify_epoch(epoch);
        self.ledger.lock().entries.push(TransitionRecord {
            at: self.rt.now(),
            shard,
            epoch,
            primary: gov.primary.load(Ordering::SeqCst),
            echoes: 0,
            readies: 0,
            kind: TransitionKind::Rejoined,
        });
    }
}

/// Where a shard's monitor waits: spawned, between heartbeats, in the hop
/// of the send, echo or ready round (with the votes gathered), or — the
/// vote delivered — for the forward replicator to drain (`None` once it
/// has): everything the old primary ever acked must reach the new primary
/// before it takes authority. Its vault survives the crash, so the queue
/// can always drain; this is the zero-acked-byte-loss half of the protocol.
enum Watch {
    Start,
    Beat,
    Send,
    Echo(u32),
    Ready(u32, u32),
    Drain(u32, u32, Option<Arc<OnceCellBlocking<()>>>),
}

/// A shard's monitor. Its collapsed, deterministic Bracha vote: n seats,
/// f = ⌊(n−1)/3⌋ faults, echo ≥ ⌈(n+f+1)/2⌉, ready ≥ 2f+1.
struct Monitor {
    m: Arc<Membership>,
    shard: usize,
    watch: Watch,
}

impl Task for Monitor {
    fn poll(&mut self, _cx: &mut TaskCtx<'_>) -> TaskStep {
        let (m, shard) = (&self.m, self.shard);
        let n = m.seat_count();
        let f = (n - 1) / 3;
        let hop = || Some(TaskStep::Sleep(m.cfg.hop_delay));
        let heartbeat = || Some(TaskStep::Sleep(m.cfg.heartbeat_every));
        let live = || m.live_seats() as u32;
        loop {
            let (watch, step) = match std::mem::replace(&mut self.watch, Watch::Beat) {
                Watch::Beat if m.beat(shard) => (Watch::Send, hop()),
                // Every live, honest seat echoes the proposal.
                Watch::Send => (Watch::Echo(live()), hop()),
                // Seats that saw an echo quorum broadcast ready; the f+1
                // rule lets stragglers join, so every live seat is ready.
                Watch::Echo(e) if e as usize >= (n + f + 1).div_ceil(2) => {
                    (Watch::Ready(e, live()), hop())
                }
                Watch::Ready(e, r) if r as usize > 2 * f => {
                    (Watch::Drain(e, r, m.shards[shard].forward.drained()), None)
                }
                Watch::Drain(e, r, Some(cell)) => match cell.poll_wait() {
                    Err(wait) => (Watch::Drain(e, r, Some(cell)), Some(wait)),
                    Ok(()) => (Watch::Drain(e, r, None), None),
                },
                Watch::Drain(e, r, None) => {
                    m.promote(shard, e, r);
                    (Watch::Beat, heartbeat())
                }
                // Spawned, a live or unreplaceable primary, or a vote short
                // of quorum.
                _ => (Watch::Beat, heartbeat()),
            };
            self.watch = watch;
            if let Some(step) = step {
                return step;
            }
        }
    }
}
