//! Server-side federation: sharded namespace routing and write-path
//! replication.
//!
//! The paper's client talks to a single production server; real SRB
//! deployments federate many zones. This module provides the two server-side
//! halves of our federation subsystem:
//!
//! * [`ShardMap`] — a deterministic hash partition of the `/collection/…`
//!   path namespace over N shard servers. Every path maps to exactly one
//!   shard for any N, with no coordination and no shared state, so any
//!   client computes the same placement (the sharded-MCAT analogue of SRB
//!   zone federation).
//! * [`Replicator`] — asynchronous write-path replication from a shard
//!   primary to its replica. It hangs off the primary's
//!   [write hook](crate::server::SrbServer::set_write_hook): every durable
//!   vault write enqueues its extent, and a daemon ships the bytes to the
//!   replica in acked [`REPL_BLOCK`]-sized blocks. A block is *retained
//!   until acked* — transient failures redial and re-ship the same bytes
//!   (the `CompressedWriter` frame-retention idiom applied to replication)
//!   — so everything the primary ever acknowledged eventually reaches the
//!   replica, and reads can fail over with zero acked-byte loss.
//!
//! The client-side half (shard-routed mounts, replica failover on reads and
//! writes, and restart reconciliation) lives in `semplar::fedfs`, built on
//! these pieces.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use semplar_runtime::sync::Channel;
use semplar_runtime::Runtime;

use crate::client::SrbConn;
use crate::retry::RetryPolicy;
use crate::server::{ConnRoute, SrbServer};
use crate::types::{OpenFlags, Payload, SrbError, SrbResult};

/// Replication block size: extents are shipped to the replica in acked
/// blocks of at most this many bytes (the same 1 MiB granularity as the
/// client-side write-resume ledger).
pub const REPL_BLOCK: u64 = 1 << 20;

/// A deterministic hash partition of the path namespace over `shards`
/// servers.
///
/// Uses the same fixed-key `DefaultHasher` idiom as the connection pool's
/// route keys: no randomized state, so the mapping is identical across
/// clients, runs, and processes. Total: every valid path maps to exactly
/// one shard in `0..shards`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
    version: u64,
}

impl ShardMap {
    /// A map over `shards` servers. `shards` must be at least 1.
    pub fn new(shards: usize) -> ShardMap {
        ShardMap::versioned(shards, 0)
    }

    /// A map over `shards` servers at map version `version`. Versions order
    /// re-sharding generations: routing itself depends only on the shard
    /// count, but a versioned map lets clients detect that their placement
    /// is stale after a live re-shard and refresh their routes.
    pub fn versioned(shards: usize, version: u64) -> ShardMap {
        assert!(shards >= 1, "a federation needs at least one shard");
        ShardMap { shards, version }
    }

    /// Number of shards in the federation.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Re-sharding generation this map belongs to (0 = the initial layout).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The shard that owns `path`. Deterministic and total: the same path
    /// always lands on the same shard, and every path lands on some shard.
    pub fn shard_of(&self, path: &str) -> usize {
        use std::hash::{Hash, Hasher};
        // Unkeyed DefaultHasher: deterministic across runs (no RandomState).
        let mut h = std::collections::hash_map::DefaultHasher::new();
        path.hash(&mut h);
        (h.finish() % self.shards as u64) as usize
    }
}

/// One replication work item: an extent of `path` that became durable on
/// the primary and must reach the replica.
struct ReplJob {
    path: String,
    offset: u64,
    len: u64,
}

/// Cumulative replicator counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplStats {
    /// Extents enqueued by the primary's write hook.
    pub enqueued: u64,
    /// Blocks acknowledged by the replica.
    pub shipped_blocks: u64,
    /// Payload bytes acknowledged by the replica.
    pub shipped_bytes: u64,
    /// Blocks re-shipped from their retained copy after a transient
    /// failure (redial + replay).
    pub reships: u64,
    /// Extents dropped because their object vanished from the primary's
    /// catalog before shipping (unlinked mid-flight).
    pub skipped: u64,
    /// High-water mark of the job queue depth (extents waiting to ship).
    /// A primary outage grows this; membership promotion is what bounds it
    /// — the federation tests fail if it exceeds the configured cap.
    pub queue_high_water: u64,
}

/// Asynchronous write-path replication from a shard primary to its replica.
///
/// Construction registers a write hook on the primary and spawns a daemon
/// that drains the queue on virtual time. The daemon acts as a *client* of
/// the replica over `route`: connection setup, WAN transfer, and the
/// replica's disk work all charge time to it, never to the writer whose
/// write triggered the job — replication is invisible to the compute path
/// (the TASIO shape).
pub struct Replicator {
    rt: Arc<dyn Runtime>,
    primary: Arc<SrbServer>,
    replica: Arc<SrbServer>,
    route: ConnRoute,
    user: String,
    password: String,
    retry: RetryPolicy,
    jobs: Channel<ReplJob>,
    busy: AtomicBool,
    /// While clear, the write hook drops events instead of enqueuing them.
    /// Membership gates replicator direction with this: only the *current*
    /// primary's forward replicator is active, so a deposed primary's
    /// leftover hook cannot ping-pong freshly reconciled bytes back.
    active: AtomicBool,
    /// Membership-epoch stamp for the daemon's client connections to the
    /// target server. Shared with (and advanced by) the membership layer;
    /// stays 0 — un-epoched — outside membership governance.
    epoch: Arc<AtomicU64>,
    enqueued: AtomicU64,
    shipped_blocks: AtomicU64,
    shipped_bytes: AtomicU64,
    reships: AtomicU64,
    skipped: AtomicU64,
    high_water: AtomicU64,
}

impl Replicator {
    /// Wire `primary` to `replica`: register the write hook and start the
    /// shipping daemon. `route` is the network path from the primary to the
    /// replica; `user`/`password` the federation service account on the
    /// replica; `retry`'s backoff schedule paces re-ships (blocks are
    /// retained and re-shipped indefinitely — replication never gives up on
    /// a transient failure, it just waits).
    pub fn start(
        rt: &Arc<dyn Runtime>,
        primary: Arc<SrbServer>,
        replica: Arc<SrbServer>,
        route: ConnRoute,
        user: &str,
        password: &str,
        retry: RetryPolicy,
    ) -> Arc<Replicator> {
        Replicator::start_with(rt, primary, replica, route, user, password, retry, true)
    }

    /// Like [`Replicator::start`], but the write hook begins *inactive*:
    /// events are dropped until [`Replicator::set_active`] turns it on.
    /// This is the right constructor for a shard's *reverse* replicator —
    /// membership activates it at promotion. Constructing it live would
    /// leave both directions' hooks armed at once: every forward ship
    /// fires the replica's write hook, which enqueues a reverse ship,
    /// which fires the primary's hook again — an unbounded ping-pong.
    pub fn start_inactive(
        rt: &Arc<dyn Runtime>,
        primary: Arc<SrbServer>,
        replica: Arc<SrbServer>,
        route: ConnRoute,
        user: &str,
        password: &str,
        retry: RetryPolicy,
    ) -> Arc<Replicator> {
        Replicator::start_with(rt, primary, replica, route, user, password, retry, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn start_with(
        rt: &Arc<dyn Runtime>,
        primary: Arc<SrbServer>,
        replica: Arc<SrbServer>,
        route: ConnRoute,
        user: &str,
        password: &str,
        retry: RetryPolicy,
        active: bool,
    ) -> Arc<Replicator> {
        let repl = Arc::new(Replicator {
            rt: rt.clone(),
            primary: primary.clone(),
            replica,
            route,
            user: user.to_string(),
            password: password.to_string(),
            retry,
            jobs: Channel::new(rt),
            busy: AtomicBool::new(false),
            active: AtomicBool::new(active),
            epoch: Arc::new(AtomicU64::new(0)),
            enqueued: AtomicU64::new(0),
            shipped_blocks: AtomicU64::new(0),
            shipped_bytes: AtomicU64::new(0),
            reships: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        });
        let hook = repl.clone();
        primary.set_write_hook(Arc::new(move |path, offset, len| {
            if !hook.active.load(Ordering::SeqCst) {
                return;
            }
            hook.push_job(path.to_string(), offset, len);
        }));
        let daemon = repl.clone();
        rt.spawn_daemon("federation/replicator", Box::new(move || daemon.run()));
        repl
    }

    /// Snapshot of the replicator counters.
    pub fn stats(&self) -> ReplStats {
        ReplStats {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            shipped_blocks: self.shipped_blocks.load(Ordering::Relaxed),
            shipped_bytes: self.shipped_bytes.load(Ordering::Relaxed),
            reships: self.reships.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            queue_high_water: self.high_water.load(Ordering::Relaxed),
        }
    }

    fn push_job(&self, path: String, offset: u64, len: u64) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        let _ = self.jobs.send(ReplJob { path, offset, len });
        self.high_water
            .fetch_max(self.jobs.len() as u64, Ordering::Relaxed);
    }

    /// Enqueue one extent directly, bypassing the write hook. Membership
    /// uses this at promotion to drain the deposed primary's divergence
    /// backlog into the *reverse* replicator (new primary → old primary).
    pub fn enqueue_extent(&self, path: &str, offset: u64, len: u64) {
        self.push_job(path.to_string(), offset, len);
    }

    /// Gate the write hook: while inactive, write events are dropped
    /// (already-queued jobs still ship). See the `active` field.
    pub fn set_active(&self, active: bool) {
        self.active.store(active, Ordering::SeqCst);
    }

    /// The shared epoch stamp the daemon's connections carry. The
    /// membership layer advances it so post-promotion ships are accepted by
    /// an epoch-fenced target once certified.
    pub fn epoch_stamp(&self) -> Arc<AtomicU64> {
        self.epoch.clone()
    }

    /// Extents queued or currently being shipped.
    pub fn pending(&self) -> usize {
        self.jobs.len() + self.busy.load(Ordering::SeqCst) as usize
    }

    /// Block (on virtual time) until the replication queue is fully
    /// drained: every extent acked by the primary so far is durable on the
    /// replica when this returns.
    pub fn quiesce(&self) {
        while self.pending() > 0 {
            self.rt.sleep(semplar_runtime::Dur::from_millis(10));
        }
    }

    /// Stop the daemon after the queue drains (drops further hook events).
    pub fn stop(&self) {
        self.jobs.close();
    }

    fn run(self: Arc<Self>) {
        let mut conn: Option<SrbConn> = None;
        let mut fds: HashMap<String, u32> = HashMap::new();
        let mut colls: HashSet<String> = HashSet::new();
        while let Ok(job) = self.jobs.recv() {
            self.busy.store(true, Ordering::SeqCst);
            self.ship_job(&job, &mut conn, &mut fds, &mut colls);
            self.busy.store(false, Ordering::SeqCst);
        }
    }

    fn ship_job(
        &self,
        job: &ReplJob,
        conn: &mut Option<SrbConn>,
        fds: &mut HashMap<String, u32>,
        colls: &mut HashSet<String>,
    ) {
        // The primary's vault is authoritative and survives crashes, so
        // shipping continues even while the primary is refusing clients.
        let rec = match self.primary.mcat().lookup(&job.path) {
            Ok(r) => r,
            Err(_) => {
                self.skipped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let end = job.offset + job.len;
        let mut off = job.offset;
        while off < end {
            let len = REPL_BLOCK.min(end - off);
            // Under a schedule hook, when to ship each block (relative to
            // faults and reconcile replay) is an explorable choice.
            self.rt.schedule_point("replicator/ship-block");
            // Read once; the block is retained in memory until the replica
            // acks it, so a failed ship replays the exact same bytes.
            let data = self.primary.vault().read(rec.obj_id, off, len);
            let key = rec.obj_id ^ off;
            let mut attempt = 0u32;
            loop {
                match self.ship_block(conn, fds, colls, &job.path, off, data.clone()) {
                    Ok(()) => break,
                    Err(e) if e.is_transient() => {
                        // Sever the cached stream and replay the retained
                        // block after a deterministic backoff. Never give
                        // up: the replica coming back is the only way the
                        // queue drains, and faults here are injected ones.
                        *conn = None;
                        fds.clear();
                        self.reships.fetch_add(1, Ordering::Relaxed);
                        self.rt.sleep(self.retry.backoff(key, attempt.min(8)));
                        attempt += 1;
                    }
                    Err(SrbError::StaleEpoch { .. }) => {
                        // The target restarted fenced and has not been
                        // re-certified yet. Unlike client writes, the
                        // replicator *must* outwait the fence — membership
                        // certifies the target as part of its rejoin, and
                        // the retained block then lands. The stream itself
                        // is healthy; just back off and replay.
                        self.reships.fetch_add(1, Ordering::Relaxed);
                        self.rt.sleep(self.retry.backoff(key, attempt.min(8)));
                        attempt += 1;
                    }
                    Err(_) => {
                        self.skipped.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
            self.shipped_blocks.fetch_add(1, Ordering::Relaxed);
            self.shipped_bytes.fetch_add(data.len(), Ordering::Relaxed);
            off += len;
        }
    }

    fn ship_block(
        &self,
        conn: &mut Option<SrbConn>,
        fds: &mut HashMap<String, u32>,
        colls: &mut HashSet<String>,
        path: &str,
        offset: u64,
        data: Payload,
    ) -> SrbResult<()> {
        if conn.is_none() {
            let c = self
                .replica
                .connect(self.route.clone(), &self.user, &self.password)?;
            // Under membership governance the daemon's frames carry the
            // shared epoch stamp; outside it the stamp stays 0 (un-epoched).
            c.set_epoch_source(self.epoch.clone());
            *conn = Some(c);
        }
        let c = conn.as_ref().expect("connection just established");
        let fd = match fds.get(path) {
            Some(&fd) => fd,
            None => {
                // mkdir -p the parent collections on the replica, once per
                // prefix per daemon lifetime.
                let mut prefix = String::new();
                for comp in path.split('/').filter(|s| !s.is_empty()) {
                    let next = format!("{prefix}/{comp}");
                    if next != path && !colls.contains(&next) {
                        match c.mk_coll(&next) {
                            Ok(()) | Err(SrbError::AlreadyExists(_)) => {
                                colls.insert(next.clone());
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    prefix = next;
                }
                let fd = c.open(path, OpenFlags::CreateRw)?;
                fds.insert(path.to_string(), fd);
                fd
            }
        };
        c.write(fd, offset, data)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_netsim::{Bw, Network};
    use semplar_runtime::{simulate, Dur};

    use crate::server::SrbServerCfg;
    use crate::types::adler32;

    fn pair(rt: &Arc<dyn Runtime>) -> (Arc<SrbServer>, Arc<SrbServer>, ConnRoute, ConnRoute) {
        let net = Network::new(rt.clone());
        let c_up = net.add_link("c-up", Bw::mbps(100.0), Dur::from_millis(5));
        let c_down = net.add_link("c-down", Bw::mbps(100.0), Dur::from_millis(5));
        let r_up = net.add_link("r-up", Bw::gbps(1.0), Dur::from_millis(1));
        let r_down = net.add_link("r-down", Bw::gbps(1.0), Dur::from_millis(1));
        let primary = SrbServer::new(net.clone(), SrbServerCfg::default());
        primary.mcat().add_user("u", "p");
        let replica = SrbServer::new(
            net,
            SrbServerCfg {
                name: "replica".into(),
                ..SrbServerCfg::default()
            },
        );
        replica.mcat().add_user("fed", "fed");
        let client_route = ConnRoute {
            fwd: vec![c_up],
            rev: vec![c_down],
            send_cap: None,
            recv_cap: None,
            bus: None,
        };
        let repl_route = ConnRoute {
            fwd: vec![r_up],
            rev: vec![r_down],
            send_cap: None,
            recv_cap: None,
            bus: None,
        };
        (primary, replica, client_route, repl_route)
    }

    #[test]
    fn shard_map_is_deterministic_and_total() {
        for n in 1..=7 {
            let m = ShardMap::new(n);
            for path in ["/a", "/a/b", "/proj/data/est.fasta", "/x/y/z/w"] {
                let s = m.shard_of(path);
                assert!(s < n);
                assert_eq!(s, m.shard_of(path), "same path, same shard");
                assert_eq!(s, ShardMap::new(n).shard_of(path), "map state is pure");
            }
        }
        // One shard owns everything.
        let m = ShardMap::new(1);
        assert_eq!(m.shard_of("/anything/at/all"), 0);
    }

    proptest::proptest! {
        /// Satellite: shard routing is deterministic and total — every path
        /// maps to exactly one shard in range, stable across evaluations and
        /// independently constructed maps, for any shard count.
        #[test]
        fn shard_routing_deterministic_and_total(
            segs in proptest::collection::vec(
                proptest::collection::vec(proptest::any::<u8>(), 1..12),
                1..6,
            ),
            n in 1usize..16,
        ) {
            const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
            let path: String = segs
                .iter()
                .map(|seg| {
                    let s: String = seg
                        .iter()
                        .map(|&b| ALPHA[b as usize % ALPHA.len()] as char)
                        .collect();
                    format!("/{s}")
                })
                .collect();
            let a = ShardMap::new(n).shard_of(&path);
            let b = ShardMap::new(n).shard_of(&path);
            proptest::prop_assert!(a < n, "shard {} out of range for n={}", a, n);
            proptest::prop_assert_eq!(a, b, "routing must be a pure function of (path, n)");
        }
    }

    #[test]
    fn writes_replicate_asynchronously_with_matching_checksums() {
        simulate(|rt| {
            let (primary, replica, c_route, r_route) = pair(&rt);
            let repl = Replicator::start(
                &rt,
                primary.clone(),
                replica.clone(),
                r_route.clone(),
                "fed",
                "fed",
                RetryPolicy::default(),
            );

            let conn = primary.connect(c_route, "u", "p").unwrap();
            conn.mk_coll("/fed").unwrap();
            let fd = conn.open("/fed/obj", OpenFlags::CreateRw).unwrap();
            let data: Vec<u8> = (0..2_500_000u32).map(|i| (i % 251) as u8).collect();
            // Two writes: an initial extent and an overwrite tail.
            conn.write(fd, 0, Payload::bytes(data.clone())).unwrap();
            conn.write(fd, 1000, Payload::bytes(vec![7u8; 4096]))
                .unwrap();
            conn.close_fd(fd).unwrap();
            conn.disconnect().unwrap();

            repl.quiesce();
            let st = repl.stats();
            assert_eq!(st.enqueued, 2);
            // 2.5 MB extent = 3 blocks, plus the small overwrite.
            assert_eq!(st.shipped_blocks, 4);
            assert_eq!(st.shipped_bytes, data.len() as u64 + 4096);
            assert_eq!(st.reships, 0);

            // The replica's bytes are bit-identical to the primary's.
            let sum = |s: &Arc<SrbServer>| {
                let id = s.mcat().lookup("/fed/obj").unwrap().obj_id;
                adler32(&s.vault().bytes_of(id).unwrap())
            };
            let (p_sum, r_sum) = (sum(&primary), sum(&replica));
            assert_eq!(p_sum, r_sum);
            let mut expect = data;
            expect[1000..1000 + 4096].copy_from_slice(&[7u8; 4096]);
            assert_eq!(p_sum, adler32(&expect));
        });
    }

    #[test]
    fn retained_blocks_survive_replica_resets() {
        simulate(|rt| {
            let (primary, replica, c_route, r_route) = pair(&rt);
            let repl = Replicator::start(
                &rt,
                primary.clone(),
                replica.clone(),
                r_route,
                "fed",
                "fed",
                RetryPolicy::default(),
            );
            let conn = primary.connect(c_route, "u", "p").unwrap();
            let fd = conn.open("/obj", OpenFlags::CreateRw).unwrap();
            let data: Vec<u8> = (0..3_000_000u32).map(|i| (i % 241) as u8).collect();
            conn.write(fd, 0, Payload::bytes(data.clone())).unwrap();

            // Sever the replication stream mid-drain; the retained block is
            // re-shipped over a fresh connection.
            let rt2 = rt.clone();
            let replica2 = replica.clone();
            semplar_runtime::spawn(&rt, "chaos", move || {
                rt2.sleep(Dur::from_millis(30));
                replica2.reset_all_connections();
            })
            .join_unwrap();

            repl.quiesce();
            assert!(repl.stats().reships >= 1, "{:?}", repl.stats());
            let id = replica.mcat().lookup("/obj").unwrap().obj_id;
            let r_sum = adler32(&replica.vault().bytes_of(id).unwrap());
            assert_eq!(r_sum, adler32(&data), "replica bytes intact after reset");
            conn.disconnect().unwrap();
        });
    }
}
