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
//! * [`Replicator`] — the one server-to-server copier. A shard primary's
//!   replicator hangs off its
//!   [write hook](crate::server::SrbServer::set_write_hook): every durable
//!   vault write enqueues its extent. A federated peer's replicator
//!   (`SrbServer::add_peer`) keeps its hook off and ships what `Replicate`
//!   asks for. Either way a daemon task ships the bytes in acked
//!   [`REPL_BLOCK`]-sized blocks, each *retained until acked* — transient
//!   failures redial and re-ship the same bytes (the `CompressedWriter`
//!   frame-retention idiom applied to replication) — so everything the
//!   source ever acknowledged eventually reaches the target, and reads can
//!   fail over with zero acked-byte loss.
//!
//! The client-side half (shard-routed mounts, replica failover on reads and
//! writes, and restart reconciliation) lives in `semplar::fedfs`, built on
//! these pieces.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use semplar_runtime::sync::{Channel, Closed, OnceCellBlocking};
use semplar_runtime::{Dur, Event, Runtime, Task, TaskCtx, TaskExecutor, TaskStep};

use crate::client::SrbConn;
use crate::mcat::Mcat;
use crate::proto::{Request, RespFrame, Response};
use crate::retry::RetryPolicy;
use crate::server::{ConnRoute, Dial, SrbServer};
use crate::types::{OpenFlags, Payload, SrbError, SrbResult};
use crate::vault::{DiskOp, Vault};

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

/// How a shipped job ended, filled in before its event is signalled: `Ok`
/// once its last block is acked.
pub(crate) type Outcome = Arc<Mutex<Option<SrbResult<()>>>>;

/// One replication work item: an extent of `path` that became durable on
/// the primary and must reach the replica, and who waits for it, if anyone.
struct ReplJob {
    path: String,
    offset: u64,
    len: u64,
    done: Option<(Event, Outcome)>,
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

/// Asynchronous replication from a source server to a target.
///
/// Construction registers a write hook on the source and spawns a daemon
/// task, `federation/replicator/0`, that drains the queue on virtual time,
/// acting as a *client* of the target over `route`: connection setup,
/// WAN transfer, and the target's disk work all charge time to it, never to
/// the writer whose write triggered the job — replication is invisible to
/// the compute path (the TASIO shape). The replicator is held by cycles
/// (the source's write hook, a membership promotion hook), so nothing
/// closes its queue: the task waits on it until the simulation drops it.
pub struct Replicator {
    rt: Arc<dyn Runtime>,
    jobs: Channel<ReplJob>,
    /// Jobs enqueued whose last block is not yet acked, and the cell the
    /// next drain sets (made by the first `quiesce` that has to wait).
    drain: Mutex<(usize, Option<Arc<OnceCellBlocking<()>>>)>,
    /// While clear, the write hook drops events instead of enqueuing them.
    /// Membership gates replicator direction with this: only the *current*
    /// primary's forward replicator is active, so a deposed primary's
    /// leftover hook cannot ping-pong freshly reconciled bytes back.
    active: AtomicBool,
    /// Membership-epoch stamp for the shipping task's connections to the
    /// target server. Shared with (and advanced by) the membership layer;
    /// stays 0 — un-epoched — outside membership governance.
    epoch: Arc<AtomicU64>,
    stats: Mutex<ReplStats>,
}

impl Replicator {
    /// Wire `primary` to `replica`: register the write hook and start the
    /// shipping task. `route` is the network path from the primary to the
    /// replica; `user`/`password` the federation service account on the
    /// replica; `retry`'s backoff schedule paces re-ships (blocks are
    /// retained and re-shipped indefinitely — replication never gives up on
    /// a transient failure, it just waits). The hook starts active; see
    /// [`Replicator::set_active`] for a shard's reverse replicator.
    pub fn start(
        rt: &Arc<dyn Runtime>,
        primary: Arc<SrbServer>,
        replica: Arc<SrbServer>,
        route: ConnRoute,
        user: &str,
        password: &str,
        retry: RetryPolicy,
    ) -> Arc<Replicator> {
        let repl = Arc::new(Replicator {
            rt: rt.clone(),
            jobs: Channel::new(rt),
            drain: Mutex::default(),
            active: AtomicBool::new(true),
            epoch: Arc::new(AtomicU64::new(0)),
            stats: Mutex::default(),
        });
        let hook = repl.clone();
        primary.set_write_hook(Arc::new(move |path, offset, len| {
            if hook.active.load(Ordering::SeqCst) {
                hook.enqueue_extent(path, offset, len);
            }
        }));
        let (user, password) = (user.to_string(), password.to_string());
        let shipper = Shipper {
            repl: repl.clone(),
            mcat: primary.mcat().clone(),
            vault: primary.vault().clone(),
            retry,
            dial: Box::new(move || replica.dial(route.clone(), &user, &password, 1)),
            conn: None,
            fds: HashMap::new(),
            colls: HashSet::new(),
            state: Shipping::Idle,
        };
        TaskExecutor::new(rt, "federation/replicator").spawn_daemon(Box::new(shipper));
        repl
    }

    /// Snapshot of the replicator counters.
    pub fn stats(&self) -> ReplStats {
        *self.stats.lock()
    }

    fn push_job(&self, path: &str, offset: u64, len: u64, done: Option<(Event, Outcome)>) {
        // Pending from here until its last block is acked.
        self.drain.lock().0 += 1;
        let path = path.to_string();
        let _ = self.jobs.send(ReplJob {
            path,
            offset,
            len,
            done,
        });
        let mut st = self.stats.lock();
        st.enqueued += 1;
        st.queue_high_water = st.queue_high_water.max(self.jobs.len() as u64);
    }

    /// Enqueue one extent directly, bypassing the write hook. Membership
    /// uses this at promotion to drain the deposed primary's divergence
    /// backlog into the *reverse* replicator (new primary → old primary).
    pub fn enqueue_extent(&self, path: &str, offset: u64, len: u64) {
        self.push_job(path, offset, len, None);
    }

    /// Ship the first `len` bytes of `path` (a whole object: `Replicate`).
    /// The event is signalled once the outcome is in: `Ok` when the last
    /// block is acked, the error if the object vanished or the target
    /// refused for good.
    pub(crate) fn ship(&self, path: &str, len: u64) -> (Event, Outcome) {
        let (done, out) = (self.rt.event(), Outcome::default());
        self.push_job(path, 0, len, Some((done.clone(), out.clone())));
        (done, out)
    }

    /// Gate the write hook: while inactive, write events are dropped
    /// (already-queued jobs still ship). See the `active` field. A shard's
    /// *reverse* replicator is made inactive right after `start`, before
    /// anything can write — membership activates it at promotion. Left live,
    /// both directions' hooks would be armed at once: every forward ship
    /// fires the replica's write hook, which enqueues a reverse ship, which
    /// fires the primary's hook again — an unbounded ping-pong.
    pub fn set_active(&self, active: bool) {
        self.active.store(active, Ordering::SeqCst);
    }

    /// The shared epoch stamp the shipping task's connections carry. The
    /// membership layer advances it so post-promotion ships are accepted by
    /// an epoch-fenced target once certified.
    pub fn epoch_stamp(&self) -> Arc<AtomicU64> {
        self.epoch.clone()
    }

    /// Block (on virtual time) until the replication queue is fully
    /// drained: every extent enqueued so far is durable on the replica
    /// when this returns — at the instant its last block is acked.
    pub fn quiesce(&self) {
        if let Some(drained) = self.drained() {
            drained.wait();
        }
    }

    /// The non-blocking half of [`Replicator::quiesce`]: `None` once every
    /// extent enqueued so far is acked, else the cell its last ack sets.
    pub fn drained(&self) -> Option<Arc<OnceCellBlocking<()>>> {
        let mut d = self.drain.lock();
        let (pending, cell) = &mut *d;
        let fresh = || OnceCellBlocking::new(&self.rt);
        (*pending > 0).then(|| cell.get_or_insert_with(fresh).clone())
    }

    /// A shipped job's outcome is in: tell its waiter, if any, and
    /// release the drain once it was the last pending job.
    fn finish(&self, job: ReplJob, r: SrbResult<()>) {
        if let Some((done, out)) = job.done {
            *out.lock() = Some(r);
            done.signal();
        }
        let mut d = self.drain.lock();
        d.0 -= 1;
        let pending = d.0;
        if let Some(drained) = d.1.take_if(|_| pending == 0) {
            drop(d);
            drained.set(());
        }
    }
}

/// The block of a job being shipped.
struct Block {
    /// Its `offset` is the block's, its `len` what is left to ship.
    job: ReplJob,
    obj_id: u64,
    /// Read once; retained until the target acks it, so a failed ship
    /// replays the exact same bytes.
    data: Payload,
    /// Failed ships of this block so far.
    attempt: u32,
}

/// The exchange a [`Shipping::Call`] waits for.
enum Call {
    /// `mkdir -p` of the target's parent collections, one at a time.
    MkColl(String),
    Open,
    Write,
}

/// Where the [`Shipper`] is blocked.
enum Shipping {
    /// On the job queue.
    Idle,
    /// The block's disk read on the source.
    Read(Block, DiskOp),
    /// Connecting to the target.
    Dial(Block, Box<Dial>),
    /// One exchange with the target, until its reply.
    Call(Block, Call, Arc<OnceCellBlocking<SrbResult<RespFrame>>>),
    /// The backoff before a re-ship, while still to be slept.
    Backoff(Block, Option<Dur>),
}

/// A replicator's daemon task: ships the queued jobs one block at a time,
/// reading the source's catalog and vault (it holds those, not the server:
/// the vault survives crashes, so shipping goes on while the source refuses
/// clients) and acting as a client of the target over one stream it
/// redials after a cut.
struct Shipper {
    repl: Arc<Replicator>,
    mcat: Arc<Mcat>,
    vault: Arc<Vault>,
    retry: RetryPolicy,
    /// Starts a connection to the target under the federation account.
    dial: Box<dyn Fn() -> Dial + Send>,
    conn: Option<SrbConn>,
    /// Descriptors open on the target, by path, and collections made there.
    fds: HashMap<String, u32>,
    colls: HashSet<String>,
    state: Shipping,
}

impl Shipper {
    /// Read the block at `job.offset` (at least one, so even an empty
    /// object reaches the target).
    fn read(&self, job: ReplJob, obj_id: u64) -> Shipping {
        let data = self.vault.load(obj_id, job.offset, REPL_BLOCK.min(job.len));
        let op = DiskOp::new(data.len());
        let block = Block {
            job,
            obj_id,
            data,
            attempt: 0,
        };
        Shipping::Read(block, op)
    }

    /// Ship `b`: dial the target if there is no stream, make the missing
    /// parent collections, open the object once, then write.
    fn next_call(&mut self, b: Block) -> Shipping {
        let Some(conn) = &self.conn else {
            return Shipping::Dial(b, Box::new((self.dial)()));
        };
        let path = &b.job.path;
        let mut prefix = String::new();
        let missing = path.split('/').filter(|c| !c.is_empty()).find_map(|c| {
            prefix = format!("{prefix}/{c}");
            (prefix != *path && !self.colls.contains(&prefix)).then(|| prefix.clone())
        });
        let (call, req) = match (self.fds.get(path), missing) {
            (Some(&fd), _) => {
                let (offset, payload) = (b.job.offset, b.data.clone());
                (
                    Call::Write,
                    Request::Write {
                        fd,
                        offset,
                        payload,
                    },
                )
            }
            (None, Some(coll)) => (Call::MkColl(coll.clone()), Request::MkColl(coll)),
            (None, None) => (Call::Open, Request::Open(path.clone(), OpenFlags::CreateRw)),
        };
        Shipping::Call(b, call, conn.submit(req))
    }

    /// Shipping `b` failed with `e`. Replay the retained block after a
    /// deterministic backoff, over a fresh stream if this one was cut.
    /// Never give up: the target coming back is the only way the queue
    /// drains, and faults here are injected ones. A target that restarted
    /// fenced (`StaleEpoch`) is outwaited too: unlike client writes, the
    /// replicator *must* land the block once membership certifies it.
    fn failed(&mut self, mut b: Block, e: SrbError) -> Shipping {
        let r = &self.repl;
        if !(e.is_transient() || matches!(e, SrbError::StaleEpoch { .. })) {
            r.stats.lock().skipped += 1;
            r.finish(b.job, Err(e));
            return Shipping::Idle;
        }
        if e.is_transient() {
            self.conn = None;
            self.fds.clear();
        }
        r.stats.lock().reships += 1;
        let backoff = self
            .retry
            .backoff(b.obj_id ^ b.job.offset, b.attempt.min(8));
        b.attempt += 1;
        Shipping::Backoff(b, Some(backoff))
    }

    /// The target acked `b`: on to the job's next block, or the next job.
    fn shipped(&mut self, mut b: Block) -> Shipping {
        let mut st = self.repl.stats.lock();
        st.shipped_blocks += 1;
        st.shipped_bytes += b.data.len();
        drop(st);
        let len = REPL_BLOCK.min(b.job.len);
        (b.job.offset, b.job.len) = (b.job.offset + len, b.job.len - len);
        if b.job.len == 0 {
            self.repl.finish(b.job, Ok(()));
            return Shipping::Idle;
        }
        self.read(b.job, b.obj_id)
    }
}

impl Task for Shipper {
    fn poll(&mut self, _cx: &mut TaskCtx<'_>) -> TaskStep {
        let r = self.repl.clone();
        loop {
            self.state = match std::mem::replace(&mut self.state, Shipping::Idle) {
                Shipping::Idle => match r.jobs.poll_recv() {
                    Err(wait) => return wait,
                    Ok(Err(Closed)) => return TaskStep::Done,
                    Ok(Ok(job)) => match self.mcat.lookup(&job.path) {
                        Ok(rec) => self.read(job, rec.obj_id),
                        Err(e) => {
                            r.stats.lock().skipped += 1;
                            r.finish(job, Err(e));
                            Shipping::Idle
                        }
                    },
                },
                Shipping::Read(b, mut op) => match self.vault.poll_disk(&mut op) {
                    Some(step) => {
                        self.state = Shipping::Read(b, op);
                        return step;
                    }
                    None => self.next_call(b),
                },
                Shipping::Dial(b, mut dial) => match dial.poll() {
                    Err(step) => {
                        self.state = Shipping::Dial(b, dial);
                        return step;
                    }
                    Ok(Err(e)) => self.failed(b, e),
                    Ok(Ok(stream)) => {
                        // Under membership governance the stream's frames
                        // carry the shared epoch stamp; outside it the
                        // stamp stays 0 (un-epoched).
                        let conn = SrbConn::on(stream, None);
                        conn.set_epoch_source(r.epoch.clone());
                        self.conn = Some(conn);
                        self.next_call(b)
                    }
                },
                Shipping::Call(b, call, reply) => match reply.poll_wait() {
                    Err(step) => {
                        self.state = Shipping::Call(b, call, reply);
                        return step;
                    }
                    Ok(res) => match (res.map(|frame| frame.resp), call) {
                        (Ok(Response::Written(_)), Call::Write) => self.shipped(b),
                        (Ok(Response::Fd(fd)), Call::Open) => {
                            self.fds.insert(b.job.path.clone(), fd);
                            self.next_call(b)
                        }
                        (
                            Ok(Response::Ok | Response::Error(SrbError::AlreadyExists(_))),
                            Call::MkColl(coll),
                        ) => {
                            self.colls.insert(coll);
                            self.next_call(b)
                        }
                        (Ok(Response::Error(e)) | Err(e), _) => self.failed(b, e),
                        (Ok(other), _) => {
                            let e = SrbError::InvalidArg(format!("unexpected reply {other:?}"));
                            self.failed(b, e)
                        }
                    },
                },
                Shipping::Backoff(b, Some(d)) if !d.is_zero() => {
                    self.state = Shipping::Backoff(b, None);
                    return TaskStep::Sleep(d);
                }
                Shipping::Backoff(b, _) => self.next_call(b),
            };
        }
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
    fn quiesce_returns_the_instant_the_last_block_is_acked() {
        simulate(|rt| {
            let (primary, replica, c_route, r_route) = pair(&rt);
            let landed = Arc::new(Mutex::new(None));
            let (landed2, rt2) = (landed.clone(), rt.clone());
            replica.set_write_hook(Arc::new(move |_, _, _| *landed2.lock() = Some(rt2.now())));
            let repl = Replicator::start(
                &rt,
                primary.clone(),
                replica,
                r_route,
                "fed",
                "fed",
                RetryPolicy::default(),
            );
            let conn = primary.connect(c_route, "u", "p").unwrap();
            let fd = conn.open("/one", OpenFlags::CreateRw).unwrap();
            conn.write(fd, 0, Payload::sized(4096)).unwrap();
            repl.quiesce();
            // The ack trails the block landing on the replica by the return
            // hop's 1 ms latency and the response's few µs on the wire.
            let landed = landed.lock().expect("the block reached the replica");
            let lag = rt.now() - landed;
            assert_eq!(repl.stats().shipped_blocks, 1);
            assert!(lag >= Dur::from_millis(1), "{lag}");
            assert!(lag < Dur::from_micros(1_050), "{lag}");
            conn.disconnect().unwrap();
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
