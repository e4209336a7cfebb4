//! The SRB server.
//!
//! Models `orion.sdsc.edu` (§5 of the paper): a large SMP with several
//! gigabit NICs fronting an MCAT and a storage vault. Each accepted client
//! connection gets its own handler — the analogue of the per-connection
//! server thread — which serializes that connection's requests, charges
//! per-operation processing overhead, performs vault/MCAT work, and
//! transmits the response over the connection's reverse path through one of
//! the server NICs (assigned round-robin at connect time, like IP-level
//! load balancing across `orion`'s interfaces).
//!
//! A handler only ever waits, so it is a [`Task`], not a thread: a state
//! machine over *receive → overhead → admission → disk → wire* whose every
//! state is one place a per-connection thread would block, on the same
//! event. Serving a request is therefore split: `SrbServer::begin` does
//! everything up to the request's one disk charge without blocking, the
//! handler charges it, and a continuation finishes. Only `Replicate` — a
//! whole nested client session against a peer — needs a stack, and borrows
//! one for as long as it runs.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use semplar_netsim::net::Message;
use semplar_netsim::net::{BusId, DeviceClass, XferOpts};
use semplar_netsim::{Bw, LinkId, Network};
use semplar_runtime::sync::{Channel, Closed};
use semplar_runtime::{Dur, Event, Runtime, Task, TaskCtx, TaskExecutor, TaskStep, Wake};

use crate::cache::{BlockCache, CacheSpec, CacheStats};
use crate::client::SrbConn;
use crate::mcat::Mcat;
use crate::proto::{ReqFrame, Request, RespFrame, Response, SessionId, TenantId, WIRE_HDR};
use crate::qos::TenantScheduler;
use crate::transport::Transport;
use crate::types::{adler32, OpenFlags, Payload, SrbError, SrbResult};
use crate::vault::{DiskOp, DiskSpec, Vault};

/// Server sizing parameters.
#[derive(Clone, Debug)]
pub struct SrbServerCfg {
    /// Server name (actor/diagnostic label).
    pub name: String,
    /// Number of data NICs (orion has 6).
    pub nics: usize,
    /// Per-NIC bandwidth, each direction.
    pub nic_bw: Bw,
    /// Disk subsystem.
    pub disk: DiskSpec,
    /// Per-request processing/catalog overhead.
    pub op_overhead: Dur,
    /// Name of the default storage resource objects are created on.
    pub resource: String,
}

impl Default for SrbServerCfg {
    fn default() -> Self {
        SrbServerCfg {
            name: "orion".into(),
            nics: 6,
            nic_bw: Bw::gbps(1.0),
            disk: DiskSpec::default(),
            op_overhead: Dur::from_micros(300),
            resource: "sdsc-vault".into(),
        }
    }
}

/// How a client reaches the server: the link paths between the client node
/// and the server's NICs, plus the per-stream TCP window caps in each
/// direction. Cluster models construct these.
#[derive(Clone, Debug)]
pub struct ConnRoute {
    /// Links from client to server (NIC appended by the server).
    pub fwd: Vec<LinkId>,
    /// Links from server to client (NIC prepended by the server).
    pub rev: Vec<LinkId>,
    /// Per-stream cap client→server (TCP send-window / RTT).
    pub send_cap: Option<Bw>,
    /// Per-stream cap server→client (TCP receive-window / RTT).
    pub recv_cap: Option<Bw>,
    /// The client node's I/O bus (for the §7.1 contention model); both
    /// directions of this connection DMA across it as [`DeviceClass::Wan`].
    pub bus: Option<BusId>,
}

impl ConnRoute {
    /// Transfer options for traffic on this connection.
    pub fn opts(&self, cap: Option<Bw>) -> XferOpts {
        XferOpts {
            cap,
            buses: self.bus.iter().map(|&b| (b, DeviceClass::Wan)).collect(),
        }
    }
}

/// Cumulative server-side counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Total connections accepted.
    pub connections: u64,
    /// Requests served.
    pub requests: u64,
    /// Payload bytes written into the vault.
    pub bytes_written: u64,
    /// Payload bytes read out of the vault.
    pub bytes_read: u64,
}

struct FdEntry {
    path: String,
    obj_id: u64,
    flags: OpenFlags,
}

/// One session's slice of handler state: its fd namespace. Keyed by
/// [`SessionId`] so sessions multiplexed over a shared stream cannot
/// observe each other's descriptors.
struct SessionSpace {
    fds: std::collections::HashMap<u32, FdEntry>,
    next_fd: u32,
}

impl SessionSpace {
    /// The object behind `fd`, if it is open for reading.
    fn readable(&self, fd: u32) -> SrbResult<u64> {
        let e = self.fds.get(&fd).ok_or(SrbError::BadFd(fd))?;
        if !e.flags.readable() {
            return Err(SrbError::InvalidArg("fd not open for read".into()));
        }
        Ok(e.obj_id)
    }

    /// The object behind `fd` and its path, if it is open for writing.
    fn writable(&self, fd: u32) -> SrbResult<(u64, String)> {
        let e = self.fds.get(&fd).ok_or(SrbError::BadFd(fd))?;
        if !e.flags.writable() {
            return Err(SrbError::InvalidArg("fd not open for write".into()));
        }
        Ok((e.obj_id, e.path.clone()))
    }
}

impl Default for SessionSpace {
    fn default() -> Self {
        SessionSpace {
            fds: Default::default(),
            // First descriptor is 3 (0-2 notionally taken by stdio).
            next_fd: 3,
        }
    }
}

struct Peer {
    server: Arc<SrbServer>,
    route: ConnRoute,
    user: String,
    password: String,
}

/// Both directions of one live connection, as registered for fault injection.
type ConnChannels = (Channel<ReqFrame>, Channel<RespFrame>);

/// Observer invoked after every durable vault write, with `(path, offset,
/// len)`. Federation hangs its replication queue off this and client-side
/// read-lease caches hang their revocation off it; hooks broadcast — every
/// registered hook fires for every write. The default is no hooks, which
/// costs nothing.
pub type WriteHook = Arc<dyn Fn(&str, u64, u64) + Send + Sync>;

/// An out-of-band lease-break event: something other than an ordinary
/// overlapping write invalidated whatever read leases clients may hold.
#[derive(Clone, Debug)]
pub enum LeaseBreak {
    /// The object was unlinked; any cached bytes for it are void.
    Unlink {
        /// Logical path of the removed object.
        path: String,
    },
    /// The server crashed. All leases it ever granted lapse: writes may
    /// land elsewhere (a shard replica) while this server is down, and its
    /// write-hook broadcast is silent for those.
    ServerLost,
}

/// Observer for [`LeaseBreak`] events; registered alongside write hooks by
/// clients that cache lease-granted reads.
pub type LeaseBreakHook = Arc<dyn Fn(&LeaseBreak) + Send + Sync>;

/// Per-connection request trace, keyed by connection id so concurrent
/// handlers produce a deterministic ordering.
type RequestTrace = std::collections::BTreeMap<u64, Vec<String>>;

/// The Storage Resource Broker server.
pub struct SrbServer {
    rt: Arc<dyn Runtime>,
    net: Arc<Network>,
    cfg: SrbServerCfg,
    nic_in: Vec<LinkId>,
    nic_out: Vec<LinkId>,
    next_nic: AtomicUsize,
    next_conn: AtomicU64,
    mcat: Arc<Mcat>,
    vault: Arc<Vault>,
    /// Spawns the connection handlers: handler `n` serves connection `n`.
    handlers: TaskExecutor,
    peers: Mutex<std::collections::HashMap<String, Peer>>,
    /// Channels of every live connection, by connection id, so a crash or
    /// a reset can sever them from the outside — in that order.
    live_conns: Mutex<std::collections::BTreeMap<u64, ConnChannels>>,
    /// While set, the server refuses new connections (fault injection).
    crashed: AtomicBool,
    /// When enabled, every request is recorded (per connection, in arrival
    /// order) — the golden-trace tests pin the wire behaviour with this.
    trace: Mutex<Option<RequestTrace>>,
    /// Broadcast after each completed vault write (federation replication,
    /// client lease revocation).
    write_hooks: Mutex<Vec<WriteHook>>,
    /// Broadcast on unlink and crash (client lease revocation).
    lease_breaks: Mutex<Vec<LeaseBreakHook>>,
    /// Per-object write epoch, bumped by every mutation; reads sample it
    /// *before* touching the vault and return it as their lease grant.
    lease_epochs: Mutex<std::collections::HashMap<u64, u64>>,
    /// Optional block cache in front of the vault. `None` (the default)
    /// leaves the read path bit-identical to the uncached server.
    cache: Mutex<Option<Arc<BlockCache>>>,
    /// Optional per-tenant fair queueing across the vault + NIC stage.
    /// `None` (the default) skips admission entirely and leaves request
    /// service bit-identical to the pre-QoS server.
    qos: Mutex<Option<Arc<TenantScheduler>>>,
    /// Minimum membership epoch this server accepts on data mutations.
    /// `0` (the default) disables epoch fencing entirely and leaves request
    /// handling bit-identical to the pre-membership server.
    min_epoch: AtomicU64,
    /// When set, [`SrbServer::restart`] hard-fences the server: every data
    /// mutation is refused until [`SrbServer::certify_epoch`] re-certifies
    /// it. Installed by `enable_epoch_fencing`; a restarted old primary can
    /// then never accept a write before the membership layer has told it
    /// which epoch the world is in.
    fence_on_restart: AtomicBool,
    /// Hard fence: refuse all data mutations regardless of carried epoch.
    fenced: AtomicBool,
    /// Mutations refused by the fence / stale-epoch check.
    fenced_rejects: AtomicU64,
    connections: AtomicU64,
    requests: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl SrbServer {
    /// Stand up a server on `net`, creating its NIC links.
    pub fn new(net: Arc<Network>, cfg: SrbServerCfg) -> Arc<SrbServer> {
        let rt = net.runtime().clone();
        let nic_in = (0..cfg.nics)
            .map(|i| net.add_link(&format!("{}/nic{i}-in", cfg.name), cfg.nic_bw, Dur::ZERO))
            .collect();
        let nic_out = (0..cfg.nics)
            .map(|i| net.add_link(&format!("{}/nic{i}-out", cfg.name), cfg.nic_bw, Dur::ZERO))
            .collect();
        let vault = Vault::new(rt.clone(), cfg.disk);
        let handlers = TaskExecutor::new(&rt, &format!("{}/conn", cfg.name));
        Arc::new(SrbServer {
            rt,
            net,
            cfg,
            nic_in,
            nic_out,
            next_nic: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            mcat: Arc::new(Mcat::new()),
            vault,
            handlers,
            peers: Mutex::new(Default::default()),
            live_conns: Mutex::new(Default::default()),
            crashed: AtomicBool::new(false),
            trace: Mutex::new(None),
            write_hooks: Mutex::new(Vec::new()),
            lease_breaks: Mutex::new(Vec::new()),
            lease_epochs: Mutex::new(Default::default()),
            cache: Mutex::new(None),
            qos: Mutex::new(None),
            min_epoch: AtomicU64::new(0),
            fence_on_restart: AtomicBool::new(false),
            fenced: AtomicBool::new(false),
            fenced_rejects: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        })
    }

    /// The metadata catalog (for account setup and test assertions).
    pub fn mcat(&self) -> &Arc<Mcat> {
        &self.mcat
    }

    /// The runtime the server charges time against.
    pub fn runtime(&self) -> &Arc<dyn Runtime> {
        &self.rt
    }

    /// The storage vault (for fault injection and test assertions).
    pub fn vault(&self) -> &Arc<Vault> {
        &self.vault
    }

    /// Fault injection: crash the server. Every live connection is severed
    /// — clients blocked on a response and clients issuing new requests get
    /// [`SrbError::Disconnected`] — and [`SrbServer::connect`] refuses until
    /// [`SrbServer::restart`]. MCAT and vault state survive (the paper's
    /// server keeps its catalog in a database); only connection state is
    /// lost. Returns the number of connections severed.
    pub fn crash(&self) -> usize {
        self.crashed.store(true, Ordering::SeqCst);
        let severed = self.reset_all_connections();
        // The block cache is volatile server memory: a crash loses it, and
        // the restarted server warms up from a cold cache.
        if let Some(c) = self.cache.lock().as_ref() {
            c.clear();
        }
        // Every lease this server granted lapses with it: while it is down,
        // writes can land on a failover replica without this server's
        // write-hook broadcast ever firing, so clients must drop their
        // cached reads now.
        let breaks = self.lease_breaks.lock().clone();
        for h in &breaks {
            h(&LeaseBreak::ServerLost);
        }
        severed
    }

    /// Fault injection: bring a crashed server back. Connections severed by
    /// the crash stay dead — clients must reconnect — but all catalog and
    /// vault state is exactly as the crash left it. Under epoch fencing the
    /// restarted server comes back *fenced*: it refuses every data mutation
    /// until the membership layer certifies its epoch, so a deposed primary
    /// cannot accept writes it no longer has the authority to ack.
    pub fn restart(&self) {
        if self.fence_on_restart.load(Ordering::SeqCst) {
            self.fenced.store(true, Ordering::SeqCst);
        }
        self.crashed.store(false, Ordering::SeqCst);
    }

    /// True while the server is down.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Connections currently registered with the server (established and
    /// not yet severed or disconnected).
    pub fn live_conn_count(&self) -> usize {
        self.live_conns.lock().len()
    }

    /// Fault injection: sever every live connection (an RST on each TCP
    /// stream) without taking the server down, in connection order — the
    /// order their waiters are released in. Returns how many were cut.
    pub fn reset_all_connections(&self) -> usize {
        let conns = std::mem::take(&mut *self.live_conns.lock());
        for (req_ch, resp_ch) in conns.values() {
            req_ch.close();
            resp_ch.close();
        }
        conns.len()
    }

    /// Register a federated peer this server can replicate objects to
    /// (paper §8). `route` is the network path from this server to the
    /// peer; the credentials are the service account used for federation.
    pub fn add_peer(
        &self,
        name: &str,
        server: Arc<SrbServer>,
        route: ConnRoute,
        user: &str,
        password: &str,
    ) {
        self.peers.lock().insert(
            name.to_string(),
            Peer {
                server,
                route,
                user: user.to_string(),
                password: password.to_string(),
            },
        );
    }

    fn replicate(&self, path: &str, peer_name: &str) -> SrbResult<()> {
        let (peer_server, route, user, password) = {
            let g = self.peers.lock();
            let p = g
                .get(peer_name)
                .ok_or_else(|| SrbError::NotFound(format!("peer {peer_name}")))?;
            (
                p.server.clone(),
                p.route.clone(),
                p.user.clone(),
                p.password.clone(),
            )
        };
        let rec = self.mcat.lookup(path)?;
        // Federation: this server acts as a *client* of the peer. The
        // connection, transfer, and the peer's disk work all charge real
        // (virtual) time to the stack the handler borrowed for it.
        let conn = peer_server.connect(route, &user, &password)?;
        // mkdir -p the parent collections on the peer.
        let mut prefix = String::new();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let next = format!("{prefix}/{comp}");
            if next != path {
                match conn.mk_coll(&next) {
                    Ok(()) | Err(SrbError::AlreadyExists(_)) => {}
                    Err(e) => {
                        let _ = conn.disconnect();
                        return Err(e);
                    }
                }
            }
            prefix = next;
        }
        let fd = conn.open(path, OpenFlags::CreateRw)?;
        // Stream the object in 1 MiB chunks (disk read here, WAN transfer
        // and peer disk write inside `conn.write`).
        const CHUNK: u64 = 1 << 20;
        let mut off = 0u64;
        while off < rec.size {
            let len = CHUNK.min(rec.size - off);
            let data = self.vault.read(rec.obj_id, off, len);
            conn.write(fd, off, data)?;
            off += len;
        }
        conn.close_fd(fd)?;
        conn.disconnect()?;
        self.mcat.add_replica(path)?;
        Ok(())
    }

    /// Register an observer called after every completed vault write with
    /// `(path, offset, len)`. Hooks accumulate — federation's replication
    /// queue and client lease revocation each register one and all of them
    /// fire per write, in registration order. A hook runs inside the
    /// connection handler's poll and must not block.
    pub fn set_write_hook(&self, hook: WriteHook) {
        self.write_hooks.lock().push(hook);
    }

    /// Register an observer for out-of-band [`LeaseBreak`] events (unlink,
    /// server crash). Hooks accumulate, like write hooks.
    pub fn add_lease_break_hook(&self, hook: LeaseBreakHook) {
        self.lease_breaks.lock().push(hook);
    }

    /// Put a block cache with the given geometry in front of the vault.
    /// Reads served entirely from cache skip the disk; writes go through
    /// to the vault and invalidate overlapping blocks. Off by default.
    pub fn set_block_cache(&self, spec: CacheSpec) -> Arc<BlockCache> {
        let cache = Arc::new(BlockCache::new(spec));
        *self.cache.lock() = Some(cache.clone());
        cache
    }

    /// Snapshot of the block cache counters (zeros when no cache is
    /// installed).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .lock()
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// The object's current write epoch (0 if never mutated).
    fn lease_epoch(&self, obj_id: u64) -> u64 {
        *self.lease_epochs.lock().get(&obj_id).unwrap_or(&0)
    }

    /// Bump the object's write epoch; every outstanding lease granted at an
    /// older epoch is now void.
    fn bump_lease_epoch(&self, obj_id: u64) {
        *self.lease_epochs.lock().entry(obj_id).or_insert(0) += 1;
    }

    fn fire_write_hooks(&self, path: &str, offset: u64, len: u64) {
        let hooks = self.write_hooks.lock().clone();
        for h in &hooks {
            h(path, offset, len);
        }
    }

    /// Install per-tenant deficit-round-robin fair queueing. Every request
    /// is then admitted under its frame's [`TenantId`]
    /// before the handler charges vault and NIC time, so tenants share the
    /// server's bottlenecks in proportion to the scheduler's quanta rather
    /// than their offered load. Keep the `TenantScheduler` handle to read
    /// the per-tenant byte ledgers afterwards.
    pub fn set_tenant_scheduler(&self, sched: Arc<TenantScheduler>) {
        *self.qos.lock() = Some(sched);
    }

    /// Enable membership-epoch fencing, certifying `initial` (≥ 1) as the
    /// current epoch. From here on, data mutations (write, writelist,
    /// unlink) whose frames carry a non-zero epoch below the certified
    /// minimum are refused with [`SrbError::StaleEpoch`], and every restart
    /// hard-fences the server until [`SrbServer::certify_epoch`] runs.
    /// Un-epoched frames (epoch 0) are never stale-checked — fencing is
    /// opt-in per client population — but the post-restart hard fence
    /// refuses them too.
    pub fn enable_epoch_fencing(&self, initial: u64) {
        self.min_epoch.store(initial.max(1), Ordering::SeqCst);
        self.fence_on_restart.store(true, Ordering::SeqCst);
        self.fenced.store(false, Ordering::SeqCst);
    }

    /// Certify `epoch` as current: lift the post-restart hard fence and
    /// raise the stale-mutation floor (the floor never moves backwards).
    pub fn certify_epoch(&self, epoch: u64) {
        self.min_epoch.fetch_max(epoch.max(1), Ordering::SeqCst);
        self.fenced.store(false, Ordering::SeqCst);
    }

    /// The certified minimum epoch (0 = fencing disabled).
    pub fn min_epoch(&self) -> u64 {
        self.min_epoch.load(Ordering::SeqCst)
    }

    /// True while the post-restart hard fence holds (awaiting
    /// [`SrbServer::certify_epoch`]).
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::SeqCst)
    }

    /// Mutations refused by the fence / stale-epoch check so far.
    pub fn fenced_rejects(&self) -> u64 {
        self.fenced_rejects.load(Ordering::Relaxed)
    }

    /// The fencing verdict for one frame; `None` means admit. Only
    /// mutations are fenced — writes, unlink, rmcoll (namespace removal),
    /// and replicate (which pushes this server's object data to a peer on
    /// its own authority). Additive metadata ops (mkcoll, create, open,
    /// stat) stay admissible so a fenced server can still be probed and
    /// prepared for reconciliation.
    fn fence_check(&self, epoch: u64, req: &Request) -> Option<SrbError> {
        let min = self.min_epoch.load(Ordering::SeqCst);
        if min == 0 {
            return None; // fencing disabled: pre-membership behaviour
        }
        if !matches!(
            req,
            Request::Write { .. }
                | Request::WriteList { .. }
                | Request::Unlink(_)
                | Request::RmColl(_)
                | Request::Replicate { .. }
        ) {
            return None;
        }
        let stale = self.fenced.load(Ordering::SeqCst) || (epoch > 0 && epoch < min);
        if stale {
            self.fenced_rejects.fetch_add(1, Ordering::Relaxed);
            Some(SrbError::StaleEpoch {
                sent: epoch,
                current: min,
            })
        } else {
            None
        }
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }

    /// Start recording every request (tag, session, op, wire size), grouped
    /// per connection. Test instrumentation for the golden-trace fixtures.
    pub fn enable_request_trace(&self) {
        *self.trace.lock() = Some(Default::default());
    }

    /// Stop recording and return the trace: one line per request, grouped
    /// by connection id ascending, arrival order within each connection.
    pub fn take_request_trace(&self) -> Vec<String> {
        self.trace
            .lock()
            .take()
            .map(|m| m.into_values().flatten().collect())
            .unwrap_or_default()
    }

    fn trace_request(&self, conn: u64, frame: &ReqFrame) {
        if let Some(t) = self.trace.lock().as_mut() {
            t.entry(conn).or_default().push(format!(
                "conn={conn} sess={} seq={} op={} wire={}",
                frame.session,
                frame.seq,
                frame.req.op_name(),
                frame.wire_size()
            ));
        }
    }

    /// Shared connection plumbing: refuse if crashed, assign a NIC, charge
    /// the TCP + SRB handshake (one round trip) to the caller, authenticate,
    /// register the stream's channels, and spawn the per-connection handler
    /// task. Returns the forward path and channel pair for the transport.
    fn establish(
        self: &Arc<Self>,
        route: &ConnRoute,
        user: &str,
        password: &str,
    ) -> SrbResult<(Vec<LinkId>, ConnChannels, u64)> {
        // A crashed server refuses immediately (connection refused): no
        // handshake time is charged, the caller's retry backoff paces the
        // reconnect attempts.
        if self.is_crashed() {
            return Err(SrbError::Disconnected { acked: 0 });
        }
        let nic = self.next_nic.fetch_add(1, Ordering::Relaxed) % self.cfg.nics.max(1);
        let mut fwd = route.fwd.clone();
        fwd.push(self.nic_in[nic]);
        let mut rev = vec![self.nic_out[nic]];
        rev.extend_from_slice(&route.rev);

        // Handshake: connection setup + auth exchange, one full RTT, charged
        // to the connecting actor.
        self.net
            .send_message_opts(&fwd, WIRE_HDR, &route.opts(route.send_cap));
        self.rt.sleep(self.cfg.op_overhead);
        let auth = self.mcat.authenticate(user, password);
        self.net
            .send_message_opts(&rev, WIRE_HDR, &route.opts(route.recv_cap));
        auth?;

        self.connections.fetch_add(1, Ordering::Relaxed);
        let conn_id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let req_ch: Channel<ReqFrame> = Channel::new(&self.rt);
        let resp_ch: Channel<RespFrame> = Channel::new(&self.rt);
        self.live_conns
            .lock()
            .insert(conn_id, (req_ch.clone(), resp_ch.clone()));

        // Daemon: an idle connection handler waiting on its request channel
        // must not keep the simulation alive (clients that crash or never
        // disconnect would otherwise wedge the virtual clock).
        self.handlers.spawn_daemon(Box::new(Handler {
            server: self.clone(),
            conn_id,
            req_ch: req_ch.clone(),
            resp_ch: resp_ch.clone(),
            rev,
            rev_opts: route.opts(route.recv_cap),
            sessions: Default::default(),
            state: Serving::Idle,
        }));

        Ok((fwd, (req_ch, resp_ch), conn_id))
    }

    /// Dial a stream of its own for one session: one exchange at a time,
    /// torn down by [`SrbConn::disconnect`] — the paper's connection per
    /// `MPI_File_open`, and what the `PerOpen` pool policy uses.
    pub fn connect(
        self: &Arc<Self>,
        route: ConnRoute,
        user: &str,
        password: &str,
    ) -> SrbResult<SrbConn> {
        let transport = self.connect_transport(route, user, password, 1)?;
        Ok(SrbConn::on(transport, None))
    }

    /// Dial a stream carrying up to `max_inflight` concurrent tagged
    /// exchanges. A [`ConnPool`](crate::pool::ConnPool) slot opens its
    /// sessions on one.
    pub fn connect_transport(
        self: &Arc<Self>,
        route: ConnRoute,
        user: &str,
        password: &str,
        max_inflight: usize,
    ) -> SrbResult<Arc<Transport>> {
        let (fwd, chans, conn_id) = self.establish(&route, user, password)?;
        Ok(Transport::new(
            self.rt.clone(),
            self.net.clone(),
            fwd,
            route.opts(route.send_cap),
            chans,
            &format!("{}/mux-{conn_id}", self.cfg.name),
            max_inflight,
        ))
    }

    /// The non-blocking first phase of serving `req`: everything up to the
    /// request's one disk charge. An `Err` is the reply to a request refused
    /// outright.
    fn begin(&self, req: Request, space: &mut SessionSpace) -> SrbResult<Served> {
        let reply = |resp| Ok(Served::Reply(resp, None));
        match req {
            Request::MkColl(p) => {
                self.mcat.mk_coll(&p)?;
                reply(Response::Ok)
            }
            Request::RmColl(p) => {
                self.mcat.rm_coll(&p)?;
                reply(Response::Ok)
            }
            Request::Create(p) => {
                let id = self.mcat.create_obj(&p, &self.cfg.resource)?;
                self.vault.create(id);
                reply(Response::Ok)
            }
            Request::Open(p, flags) => {
                let rec = match self.mcat.lookup(&p) {
                    Ok(r) => r,
                    Err(SrbError::NotFound(_)) if flags == OpenFlags::CreateRw => {
                        // Lookup-then-create is not atomic across sessions:
                        // `AlreadyExists` here means another session created
                        // the object in between, so open theirs.
                        match self.mcat.create_obj(&p, &self.cfg.resource) {
                            Ok(id) => self.vault.create(id),
                            Err(SrbError::AlreadyExists(_)) => {}
                            Err(e) => return Err(e),
                        }
                        self.mcat.lookup(&p)?
                    }
                    Err(e) => return Err(e),
                };
                let fd = space.next_fd;
                space.next_fd += 1;
                space.fds.insert(
                    fd,
                    FdEntry {
                        path: p,
                        obj_id: rec.obj_id,
                        flags,
                    },
                );
                reply(Response::Fd(fd))
            }
            Request::Close(fd) => {
                space.fds.remove(&fd).ok_or(SrbError::BadFd(fd))?;
                reply(Response::Ok)
            }
            Request::Read { fd, offset, len } => {
                let obj_id = space.readable(fd)?;
                // Lease grant: sample the write epoch BEFORE the read. If a
                // write slips in during the disk access the grant is already
                // stale — the conservative direction. (Sampling after could
                // stamp a fresh epoch onto pre-write bytes.)
                let grant = Some(self.lease_epoch(obj_id));
                // The bytes are the vault's as of now; the disk time they
                // cost is charged before they go out.
                let Some(cache) = self.cache.lock().clone() else {
                    let data = self.vault.load(obj_id, offset, len);
                    return Ok(Served::disk(data.len(), move |srv| {
                        Ok(srv.read_done(data, grant))
                    }));
                };
                match cache.begin_read(obj_id, offset, len) {
                    Ok(data) => {
                        let (resp, lease) = self.read_done(data, grant);
                        Ok(Served::Reply(resp, lease))
                    }
                    Err(miss) => {
                        let fetched = self.vault.load_extents(obj_id, &miss.extents);
                        let bytes = fetched.iter().map(|p| p.len()).sum();
                        Ok(Served::disk(bytes, move |srv| {
                            Ok(srv.read_done(cache.finish_read(miss, fetched), grant))
                        }))
                    }
                }
            }
            Request::Write {
                fd,
                offset,
                payload,
            } => {
                let (obj_id, path) = space.writable(fd)?;
                Ok(self.begin_write(obj_id, path, vec![(offset, payload.len())], payload))
            }
            Request::ReadList { fd, extents } => {
                let obj_id = space.readable(fd)?;
                // One vault pass for the whole list: a single seek plus one
                // packed transfer, instead of a disk pass per extent.
                let data = self.vault.load_list(obj_id, &extents);
                Ok(Served::disk(data.len(), move |srv| {
                    Ok(srv.read_done(data, None))
                }))
            }
            Request::WriteList {
                fd,
                extents,
                payload,
            } => {
                let (obj_id, path) = space.writable(fd)?;
                let total: u64 = extents.iter().map(|&(_, l)| l).sum();
                if total != payload.len() {
                    return Err(SrbError::InvalidArg(format!(
                        "packed payload is {} bytes but extents sum to {total}",
                        payload.len()
                    )));
                }
                Ok(self.begin_write(obj_id, path, extents, payload))
            }
            Request::Stat(p) => reply(Response::Stat(self.mcat.stat(&p)?)),
            Request::Unlink(p) => {
                let id = self.mcat.unlink(&p)?;
                self.vault.remove(id);
                if let Some(c) = self.cache.lock().clone() {
                    c.invalidate_obj(id);
                }
                self.bump_lease_epoch(id);
                let breaks = self.lease_breaks.lock().clone();
                for h in &breaks {
                    h(&LeaseBreak::Unlink { path: p.clone() });
                }
                reply(Response::Ok)
            }
            Request::List(p) => reply(Response::Names(self.mcat.list(&p)?)),
            Request::Checksum(p) => {
                // A full disk read of the object, then the sum of the bytes
                // it held when the read began.
                let rec = self.mcat.lookup(&p)?;
                let data = self.vault.bytes_of(rec.obj_id)?;
                Ok(Served::disk(data.len() as u64, move |_| {
                    Ok((Response::Checksum(adler32(&data)), None))
                }))
            }
            Request::Replicate { path, peer } => Ok(Served::Stack(path, peer)),
            // EndSession is resolved by the handler (it retires the whole
            // session space); reaching here means a stray frame.
            Request::EndSession | Request::Disconnect => reply(Response::Ok),
        }
    }

    /// A write of `payload`, packed back-to-back for `extents` (one extent
    /// for a plain write): one disk charge for the packed bytes, then the
    /// store and everything that must see it.
    fn begin_write(
        &self,
        obj_id: u64,
        path: String,
        extents: Vec<(u64, u64)>,
        payload: Payload,
    ) -> Served {
        let total = payload.len();
        // For cache invalidation the dirty range starts at the lowest write
        // offset or the old EOF, whichever is lower: a write past EOF
        // zero-fills the gap, so cached EOF-short blocks in between are
        // stale too.
        let old_size = self.vault.size(obj_id);
        Served::disk(total, move |srv| {
            let new_size = srv.vault.store_list(obj_id, &extents, &payload);
            if let Some(c) = srv.cache.lock().clone() {
                // One conservative sweep over the whole dirtied span.
                let lo = extents.iter().map(|&(o, _)| o).min().unwrap_or(0);
                let hi = extents.iter().map(|&(o, l)| o + l).max().unwrap_or(0);
                c.invalidate_range(obj_id, old_size.min(lo), hi);
            }
            srv.bump_lease_epoch(obj_id);
            srv.mcat.update_size(&path, new_size)?;
            srv.bytes_written.fetch_add(total, Ordering::Relaxed);
            // Fire per extent so replication ships exactly the packed
            // bytes — never the holes between extents.
            for &(off, len) in &extents {
                srv.fire_write_hooks(&path, off, len);
            }
            Ok((Response::Written(total), None))
        })
    }

    fn read_done(&self, data: Payload, grant: Option<u64>) -> Reply {
        self.bytes_read.fetch_add(data.len(), Ordering::Relaxed);
        (Response::Data(data), grant)
    }
}

/// A response and, for reads, its lease grant (the object's write epoch
/// sampled before the read).
type Reply = (Response, Option<u64>);

/// The rest of a request, run once its disk charge has been paid.
type Finish = Box<dyn FnOnce(&SrbServer) -> SrbResult<Reply> + Send>;

/// What is left of a request after [`SrbServer::begin`].
enum Served {
    /// Nothing: answered from the catalog (or the cache) alone.
    Reply(Response, Option<u64>),
    /// One disk operation of so many bytes, then the continuation.
    Disk(u64, Finish),
    /// `Replicate { path, peer }`: a nested blocking client session, which
    /// needs a stack.
    Stack(String, String),
}

impl Served {
    fn disk(
        bytes: u64,
        finish: impl FnOnce(&SrbServer) -> SrbResult<Reply> + Send + 'static,
    ) -> Served {
        Served::Disk(bytes, Box::new(finish))
    }
}

/// The frame fields a request's reply needs, kept while it is served.
struct Job {
    seq: u64,
    session: SessionId,
    tenant: TenantId,
    req_wire: u64,
    /// `Disconnect`: the handler ends after replying.
    last: bool,
    /// The fair-queueing gate this request was admitted through, if any.
    qos: Option<Arc<TenantScheduler>>,
}

/// Where a connection handler is blocked: each state is one blocking call
/// of the per-connection server thread it stands for.
enum Serving {
    /// `req_ch.recv()`.
    Idle,
    /// `sleep(op_overhead)`.
    Overhead(ReqFrame),
    /// `qos.admit()`: waiting for DRR to signal the ticket.
    Admit(Job, u64, Request, Event),
    /// The request's disk charge; the continuation finishes it.
    Disk(Job, DiskOp, Finish),
    /// `replicate()` running on a borrowed stack, which leaves its result
    /// in the slot and signals the event.
    Stack(Job, Event, Arc<Mutex<Option<SrbResult<()>>>>),
    /// The response on its way over the reverse path.
    Wire(Job, RespFrame, Message),
}

/// One connection's handler: serves its requests strictly in arrival order,
/// one at a time, until the client disconnects, drops the channel, or a
/// fault severs the connection from outside.
struct Handler {
    server: Arc<SrbServer>,
    conn_id: u64,
    req_ch: Channel<ReqFrame>,
    resp_ch: Channel<RespFrame>,
    rev: Vec<LinkId>,
    rev_opts: XferOpts,
    /// One fd namespace per session on this stream; a per-open stream only
    /// ever populates session 0.
    sessions: std::collections::HashMap<SessionId, SessionSpace>,
    state: Serving,
}

impl Handler {
    /// Past admission: resolve the request as far as its disk charge.
    fn serve(&mut self, job: Job, epoch: u64, req: Request) -> Serving {
        let srv = &self.server;
        let served = if matches!(req, Request::EndSession) {
            self.sessions.remove(&job.session);
            Ok(Served::Reply(Response::Ok, None))
        } else if let Some(e) = srv.fence_check(epoch, &req) {
            Err(e)
        } else {
            srv.begin(req, self.sessions.entry(job.session).or_default())
        };
        match served {
            Ok(Served::Reply(resp, lease)) => Self::reply(job, resp, lease),
            Ok(Served::Disk(bytes, finish)) => Serving::Disk(job, DiskOp::new(bytes), finish),
            Ok(Served::Stack(path, peer)) => {
                let (done, out) = (srv.rt.event(), Arc::new(Mutex::new(None)));
                let (srv2, done2, out2) = (srv.clone(), done.clone(), out.clone());
                srv.rt.spawn_daemon(
                    &format!("{}/conn-{}/stack", srv.cfg.name, self.conn_id),
                    Box::new(move || {
                        let r = srv2.replicate(&path, &peer);
                        *out2.lock() = Some(r);
                        done2.signal();
                    }),
                );
                Serving::Stack(job, done, out)
            }
            Err(e) => Self::reply(job, Response::Error(e), None),
        }
    }

    fn reply(job: Job, resp: Response, lease: Option<u64>) -> Serving {
        let frame = RespFrame {
            seq: job.seq,
            session: job.session,
            lease,
            resp,
        };
        let msg = Message::new(frame.wire_size());
        Serving::Wire(job, frame, msg)
    }
}

impl Task for Handler {
    fn poll(&mut self, cx: &mut TaskCtx<'_>) -> TaskStep {
        let srv = self.server.clone();
        loop {
            self.state = match std::mem::replace(&mut self.state, Serving::Idle) {
                Serving::Idle => match self.req_ch.poll_recv() {
                    Err(wait) => return wait,
                    Ok(Err(Closed)) => break,
                    Ok(Ok(frame)) => {
                        srv.requests.fetch_add(1, Ordering::Relaxed);
                        srv.trace_request(self.conn_id, &frame);
                        if !srv.cfg.op_overhead.is_zero() {
                            self.state = Serving::Overhead(frame);
                            return TaskStep::Sleep(srv.cfg.op_overhead);
                        }
                        Serving::Overhead(frame)
                    }
                },
                Serving::Overhead(frame) => {
                    let req_wire = frame.wire_size();
                    let ReqFrame {
                        seq,
                        session,
                        tenant,
                        epoch,
                        req,
                    } = frame;
                    // Per-tenant fair queueing (when installed) gates the
                    // vault + response-NIC stage: the handler waits here
                    // until DRR grants this tenant a service slot. The DRR
                    // cost is the bytes the request moves through the gated
                    // stage — its own wire size plus, for reads, the
                    // response payload it pulls — so megabyte writes *and*
                    // megabyte reads drain a tenant's credit while
                    // header-sized ops glide through.
                    let qos = srv.qos.lock().clone();
                    let ticket = qos.as_ref().map(|q| {
                        let pulled = match &req {
                            Request::Read { len, .. } => *len,
                            Request::ReadList { extents, .. } => {
                                extents.iter().map(|&(_, l)| l).sum()
                            }
                            _ => 0,
                        };
                        q.enqueue(tenant, req_wire + pulled)
                    });
                    let job = Job {
                        seq,
                        session,
                        tenant,
                        req_wire,
                        last: matches!(req, Request::Disconnect),
                        qos,
                    };
                    match ticket {
                        None => self.serve(job, epoch, req),
                        Some(ticket) => {
                            self.state = Serving::Admit(job, epoch, req, ticket.clone());
                            return TaskStep::Wait(ticket, None);
                        }
                    }
                }
                Serving::Admit(job, epoch, req, ticket) => {
                    if cx.wake != Some(Wake::Signaled) {
                        self.state = Serving::Admit(job, epoch, req, ticket.clone());
                        return TaskStep::Wait(ticket, None);
                    }
                    self.serve(job, epoch, req)
                }
                Serving::Disk(job, mut op, finish) => {
                    if let Some(step) = srv.vault.poll_disk(&mut op) {
                        self.state = Serving::Disk(job, op, finish);
                        return step;
                    }
                    let (resp, lease) = finish(&srv).unwrap_or_else(|e| (Response::Error(e), None));
                    Self::reply(job, resp, lease)
                }
                Serving::Stack(job, done, out) => {
                    let Some(r) = out.lock().take() else {
                        self.state = Serving::Stack(job, done.clone(), out.clone());
                        return TaskStep::Wait(done, None);
                    };
                    let resp = r.map_or_else(Response::Error, |()| Response::Ok);
                    Self::reply(job, resp, None)
                }
                Serving::Wire(job, frame, mut msg) => {
                    if let Some(step) = srv.net.poll_message(&mut msg, &self.rev, &self.rev_opts) {
                        self.state = Serving::Wire(job, frame, msg);
                        return step;
                    }
                    if let Some(q) = &job.qos {
                        q.done(job.tenant, job.req_wire + frame.wire_size());
                    }
                    if self.resp_ch.send(frame).is_err() || job.last {
                        break;
                    }
                    Serving::Idle
                }
            };
        }
        srv.live_conns.lock().remove(&self.conn_id);
        TaskStep::Done
    }
}
