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
//! A handler only ever waits, so it is a task, not a thread: an `async`
//! body over *receive → overhead → admission → disk → wire* whose every
//! await is one place a per-connection thread would block, on the same
//! event. Serving a request awaits, in place, the one thing it waits for:
//! its disk charge, or for `Replicate` the peer replicator's completion.

use std::collections::HashMap;
use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use semplar_netsim::net::{BusId, DeviceClass, XferOpts};
use semplar_netsim::{Bw, LinkId, Network};
use semplar_runtime::sync::Channel;
use semplar_runtime::task;
use semplar_runtime::{block_on, Dur, Event, Runtime, TaskExecutor};

use crate::cache::{BlockCache, CacheSpec, CacheStats};
use crate::client::SrbConn;
use crate::federation::Replicator;
use crate::mcat::Mcat;
use crate::proto::{ReqFrame, Request, RespFrame, Response, SessionId, WIRE_HDR};
use crate::qos::TenantScheduler;
use crate::retry::RetryPolicy;
use crate::transport::Transport;
use crate::types::{adler32, OpenFlags, Payload, SrbError, SrbResult};
use crate::vault::{DiskSpec, Vault};

/// Number of data NICs (orion has 6).
const NICS: usize = 6;
/// Per-NIC bandwidth, each direction.
const NIC_BW: Bw = Bw::gbps(1.0);
/// Per-request processing/catalog overhead.
const OP_OVERHEAD: Dur = Dur::from_micros(300);
/// Name of the storage resource objects are created on.
const RESOURCE: &str = "sdsc-vault";

/// Server parameters.
#[derive(Clone, Debug)]
pub struct SrbServerCfg {
    /// Server name (actor/diagnostic label).
    pub name: String,
    /// Disk subsystem.
    pub disk: DiskSpec,
}

impl Default for SrbServerCfg {
    fn default() -> Self {
        SrbServerCfg {
            name: "orion".into(),
            disk: DiskSpec::default(),
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
    pub(crate) fn opts(&self, cap: Option<Bw>) -> XferOpts {
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

/// Both directions of one live connection, as registered for fault injection.
type ConnChannels = (Channel<ReqFrame>, Channel<RespFrame>);

/// A change to the server's data that whoever mirrors or caches it must
/// hear of: federation replication acts on writes, a leased mount's read
/// cache on all three.
#[derive(Clone, Debug)]
pub enum Change<'a> {
    /// A durable vault write of `len` bytes at `offset` of `path`.
    Wrote {
        /// Logical path of the written object.
        path: &'a str,
        /// First byte written.
        offset: u64,
        /// Bytes written.
        len: u64,
    },
    /// The object was unlinked.
    Unlinked {
        /// Logical path of the removed object.
        path: &'a str,
    },
    /// The server crashed. While it is down, writes can land on a failover
    /// replica without this server ever reporting them, so whatever a
    /// client cached from it is void.
    Crashed,
}

/// Observer of every [`Change`], registered with
/// [`SrbServer::add_change_hook`].
pub type ChangeHook = Arc<dyn Fn(&Change<'_>) + Send + Sync>;

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
    /// The replicator `Replicate` ships through, by peer name.
    peers: Mutex<std::collections::HashMap<String, Arc<Replicator>>>,
    /// Channels of every live connection, by connection id, so a crash or
    /// a reset can sever them from the outside — in that order.
    live_conns: Mutex<std::collections::BTreeMap<u64, ConnChannels>>,
    /// While set, the server refuses new connections (fault injection).
    crashed: AtomicBool,
    state_changed: Event,
    /// When enabled, every request is recorded (per connection, in arrival
    /// order) — the golden-trace tests pin the wire behaviour with this.
    trace: Mutex<Option<RequestTrace>>,
    /// Told of every write, unlink and crash, in registration order
    /// (federation replication, client lease revocation).
    change_hooks: Mutex<Vec<ChangeHook>>,
    /// Optional block cache in front of the vault. `None` (the default)
    /// sends every read to the disk.
    cache: Mutex<Option<Arc<BlockCache>>>,
    /// Optional per-tenant fair queueing across the vault + NIC stage.
    /// `None` (the default) serves each connection's requests as they
    /// arrive, with no admission step.
    qos: Mutex<Option<Arc<TenantScheduler>>>,
    /// Minimum membership epoch this server accepts on data mutations.
    /// `0` (the default) checks no epoch and never fences.
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
        let nic_in = (0..NICS)
            .map(|i| net.add_link(&format!("{}/nic{i}-in", cfg.name), NIC_BW, Dur::ZERO))
            .collect();
        let nic_out = (0..NICS)
            .map(|i| net.add_link(&format!("{}/nic{i}-out", cfg.name), NIC_BW, Dur::ZERO))
            .collect();
        let vault = Vault::new(rt.clone(), cfg.disk);
        let handlers = TaskExecutor::new(&rt, &format!("{}/conn", cfg.name));
        Arc::new(SrbServer {
            state_changed: rt.event(),
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
            change_hooks: Mutex::new(Vec::new()),
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
        self.changed(&Change::Crashed);
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
        self.state_changed.notify_all();
    }

    /// True while the server is down.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Notified (every waiter released, no permit banked) on each restart
    /// and [`SrbServer::certify_epoch`]: wait on it, then re-check
    /// [`SrbServer::is_crashed`] / [`SrbServer::is_fenced`].
    pub fn state_changed(&self) -> &Event {
        &self.state_changed
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

    /// Register a federated peer to replicate objects to (paper §8): a
    /// [`Replicator`] with its change hook off ships what `Replicate` asks
    /// for, over `route` under the peer's federation service account.
    pub fn add_peer(
        self: &Arc<Self>,
        name: &str,
        server: Arc<SrbServer>,
        route: ConnRoute,
        user: &str,
        password: &str,
    ) {
        let repl = Replicator::start(
            &self.rt,
            self.clone(),
            server,
            route,
            user,
            password,
            RetryPolicy::default(),
        );
        repl.set_active(false);
        self.peers.lock().insert(name.to_string(), repl);
    }

    /// The counters of the replicator that ships `Replicate`s to `peer`.
    #[cfg(test)]
    pub(crate) fn peer_stats(&self, peer: &str) -> crate::ReplStats {
        self.peers.lock()[peer].stats()
    }

    /// Register an observer of every [`Change`]. Hooks accumulate —
    /// federation's replication queue and each leased mount register one —
    /// and every hook hears every change, in registration order. A hook
    /// runs inside the connection handler's poll and must not block.
    pub fn add_change_hook(&self, hook: ChangeHook) {
        self.change_hooks.lock().push(hook);
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

    fn changed(&self, change: &Change<'_>) {
        let hooks = self.change_hooks.lock().clone();
        for h in &hooks {
            h(change);
        }
    }

    /// Install per-tenant deficit-round-robin fair queueing. Every request
    /// is then admitted under its frame's [`TenantId`](crate::proto::TenantId)
    /// before the handler charges vault and NIC time, so tenants share the
    /// server's bottlenecks in proportion to the scheduler's quanta rather
    /// than their offered load.
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
        self.state_changed.notify_all();
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
            return None; // no epoch certified: nothing is fenced
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

    /// Dial a stream carrying up to `max_inflight` exchanges: the TCP + SRB
    /// handshake, one round trip charged to the caller, then the stream
    /// opened. A crashed server refuses at once (connection refused): no
    /// handshake time is charged, the caller's retry backoff paces the
    /// reconnect attempts.
    pub(crate) async fn dial(
        self: &Arc<Self>,
        route: ConnRoute,
        user: &str,
        password: &str,
        max_inflight: usize,
    ) -> SrbResult<Arc<Transport>> {
        if self.is_crashed() {
            return Err(SrbError::Disconnected { acked: 0 });
        }
        let nic = self.next_nic.fetch_add(1, Ordering::Relaxed) % NICS;
        let (mut fwd, mut rev) = (route.fwd.clone(), route.rev.clone());
        fwd.push(self.nic_in[nic]);
        rev.insert(0, self.nic_out[nic]);
        let opts = (route.opts(route.send_cap), route.opts(route.recv_cap));
        // Connection setup on its way over the forward path; the server's
        // processing, then its reply with the authentication's outcome.
        self.net.send_message_async(&fwd, WIRE_HDR, &opts.0).await;
        task::sleep(OP_OVERHEAD).await;
        let auth = self.mcat.authenticate(user, password);
        self.net.send_message_async(&rev, WIRE_HDR, &opts.1).await;
        auth.map(|()| self.open_stream((fwd, rev), opts, max_inflight))
    }

    /// The handshake is done: register the stream's channels and spawn its
    /// handler, then the transport's demux and sender.
    fn open_stream(
        self: &Arc<Self>,
        (fwd, rev): (Vec<LinkId>, Vec<LinkId>),
        (send_opts, recv_opts): (XferOpts, XferOpts),
        max_inflight: usize,
    ) -> Arc<Transport> {
        self.connections.fetch_add(1, Ordering::Relaxed);
        let conn_id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let chans: ConnChannels = (Channel::new(&self.rt), Channel::new(&self.rt));
        self.live_conns.lock().insert(conn_id, chans.clone());
        // Daemon: an idle connection handler waiting on its request channel
        // must not keep the simulation alive (clients that crash or never
        // disconnect would otherwise wedge the virtual clock).
        let handler = self.clone().serve(conn_id, chans.clone(), rev, recv_opts);
        self.handlers.spawn_daemon(Box::new(Box::pin(handler)));
        let label = format!("{}/mux-{conn_id}", self.cfg.name);
        let (rt, net) = (self.rt.clone(), self.net.clone());
        Transport::new(rt, net, fwd, send_opts, chans, &label, max_inflight)
    }

    /// One connection's handler, the per-connection server thread as a
    /// task: serves its requests strictly in arrival order, one at a time,
    /// until the client disconnects, drops the channel, or a fault severs
    /// the connection from outside. Each await is where that thread blocks:
    /// receive, overhead, admission, the disk or the awaited work, the wire.
    ///
    /// An `async move` block rather than an `async fn`, which would keep
    /// each argument twice in the future: once as passed, once as moved in.
    fn serve(
        self: Arc<Self>,
        conn_id: u64,
        (req_ch, resp_ch): ConnChannels,
        rev: Vec<LinkId>,
        rev_opts: XferOpts,
    ) -> impl Future<Output = ()> + Send + 'static {
        // One fd namespace per session on this stream; a per-open stream
        // only ever populates session 0.
        let mut sessions: HashMap<SessionId, SessionSpace> = HashMap::new();
        async move {
            loop {
                // Taken apart at once: a whole frame held across the awaits
                // below would sit in this future beside its own fields.
                let (
                    req_wire,
                    ReqFrame {
                        seq,
                        session,
                        tenant,
                        epoch,
                        req,
                    },
                ) = {
                    let Ok(frame) = req_ch.recv_async().await else {
                        break;
                    };
                    self.requests.fetch_add(1, Ordering::Relaxed);
                    self.trace_request(conn_id, &frame);
                    (frame.wire_size(), frame)
                };
                task::sleep(OP_OVERHEAD).await;
                // Per-tenant fair queueing (when installed) gates the vault +
                // response-NIC stage: the handler waits here until DRR grants
                // this tenant a service slot. The DRR cost is the bytes the
                // request moves through the gated stage — its own wire size
                // plus, for reads, the response payload it pulls — so megabyte
                // writes *and* megabyte reads drain a tenant's credit while
                // header-sized ops glide through.
                let qos = self.qos.lock().clone();
                if let Some(q) = &qos {
                    let pulled = match &req {
                        Request::Read { len, .. } => *len,
                        Request::ReadList { extents, .. } => extents.iter().map(|&(_, l)| l).sum(),
                        _ => 0,
                    };
                    task::wait(&q.enqueue(tenant, req_wire + pulled)).await;
                }
                let last = matches!(req, Request::Disconnect);
                let outcome = if matches!(req, Request::EndSession) {
                    sessions.remove(&session);
                    Ok(Response::Ok)
                } else if let Some(e) = self.fence_check(epoch, &req) {
                    Err(e)
                } else {
                    self.handle(req, sessions.entry(session).or_default()).await
                };
                let frame = RespFrame {
                    seq,
                    session,
                    resp: outcome.unwrap_or_else(Response::Error),
                };
                let resp_wire = frame.wire_size();
                self.net
                    .send_message_async(&rev, resp_wire, &rev_opts)
                    .await;
                if let Some(q) = &qos {
                    q.done(tenant, req_wire + resp_wire);
                }
                if resp_ch.send(frame).is_err() || last {
                    break;
                }
            }
            self.live_conns.lock().remove(&conn_id);
        }
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
    pub(crate) fn connect_transport(
        self: &Arc<Self>,
        route: ConnRoute,
        user: &str,
        password: &str,
        max_inflight: usize,
    ) -> SrbResult<Arc<Transport>> {
        block_on(&self.rt, self.dial(route, user, password, max_inflight))
    }

    /// Serve `req` against the catalog and the vault. The request's one
    /// disk charge, or the work it waits for elsewhere, is awaited in
    /// place. An `Err` is the reply to a request refused outright.
    async fn handle(&self, req: Request, space: &mut SessionSpace) -> SrbResult<Response> {
        let req = match req {
            Request::Write {
                fd,
                offset,
                payload,
            } => Request::WriteList {
                fd,
                extents: vec![(offset, payload.len())],
                payload,
            },
            req => req,
        };
        match req {
            Request::MkColl(p) => {
                self.mcat.mk_coll(&p)?;
                Ok(Response::Ok)
            }
            Request::RmColl(p) => {
                self.mcat.rm_coll(&p)?;
                Ok(Response::Ok)
            }
            Request::Create(p) => {
                let id = self.mcat.create_obj(&p, RESOURCE)?;
                self.vault.create(id);
                Ok(Response::Ok)
            }
            Request::Open(p, flags) => {
                let rec = match self.mcat.lookup(&p) {
                    Ok(r) => r,
                    Err(SrbError::NotFound(_)) if flags == OpenFlags::CreateRw => {
                        // Lookup-then-create is not atomic across sessions:
                        // `AlreadyExists` here means another session created
                        // the object in between, so open theirs.
                        match self.mcat.create_obj(&p, RESOURCE) {
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
                Ok(Response::Fd(fd))
            }
            Request::Close(fd) => {
                space.fds.remove(&fd).ok_or(SrbError::BadFd(fd))?;
                Ok(Response::Ok)
            }
            Request::Read { fd, offset, len } => {
                let obj_id = space.readable(fd)?;
                // The bytes are the vault's as of now; the disk time they
                // cost is charged before they go out.
                let Some(cache) = self.cache.lock().clone() else {
                    let data = self.vault.load(obj_id, offset, len);
                    self.vault.charge_disk_async(data.len()).await;
                    return Ok(self.read_done(data));
                };
                let miss = match cache.begin_read(obj_id, offset, len) {
                    Ok(data) => return Ok(self.read_done(data)),
                    Err(miss) => miss,
                };
                let fetched = self.vault.load_extents(obj_id, &miss.extents);
                let bytes = fetched.iter().map(|p| p.len()).sum();
                self.vault.charge_disk_async(bytes).await;
                Ok(self.read_done(cache.finish_read(miss, fetched)))
            }
            Request::ReadList { fd, extents } => {
                let obj_id = space.readable(fd)?;
                // One vault pass for the whole list: a single seek plus one
                // packed transfer, instead of a disk pass per extent.
                let data = self.vault.load_list(obj_id, &extents);
                self.vault.charge_disk_async(data.len()).await;
                Ok(self.read_done(data))
            }
            // A write of `payload`, packed back-to-back for `extents` (one
            // extent for a plain write): one disk charge for the packed
            // bytes, then the store and everything that must see it.
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
                // For cache invalidation the dirty range starts at the
                // lowest write offset or the old EOF, whichever is lower: a
                // write past EOF zero-fills the gap, so cached EOF-short
                // blocks in between are stale too.
                let old_size = self.vault.size(obj_id);
                self.vault.charge_disk_async(total).await;
                let new_size = self.vault.store_list(obj_id, &extents, &payload);
                if let Some(c) = self.cache.lock().clone() {
                    // One conservative sweep over the whole dirtied span.
                    let lo = extents.iter().map(|&(o, _)| o).min().unwrap_or(0);
                    let hi = extents.iter().map(|&(o, l)| o + l).max().unwrap_or(0);
                    c.invalidate_range(obj_id, old_size.min(lo), hi);
                }
                self.mcat.update_size(&path, new_size)?;
                self.bytes_written.fetch_add(total, Ordering::Relaxed);
                // Fire per extent so replication ships exactly the packed
                // bytes — never the holes between extents.
                for &(offset, len) in &extents {
                    self.changed(&Change::Wrote {
                        path: &path,
                        offset,
                        len,
                    });
                }
                Ok(Response::Written(total))
            }
            Request::Stat(p) => Ok(Response::Stat(self.mcat.stat(&p)?)),
            Request::Unlink(p) => {
                let id = self.mcat.unlink(&p)?;
                self.vault.remove(id);
                if let Some(c) = self.cache.lock().clone() {
                    c.invalidate_obj(id);
                }
                self.changed(&Change::Unlinked { path: &p });
                Ok(Response::Ok)
            }
            Request::List(p) => Ok(Response::Names(self.mcat.list(&p)?)),
            Request::Checksum(p) => {
                // A full disk read of the object, then the sum of the bytes
                // it held when the read began.
                let rec = self.mcat.lookup(&p)?;
                let data = self.vault.bytes_of(rec.obj_id)?;
                self.vault.charge_disk_async(data.len() as u64).await;
                Ok(Response::Checksum(adler32(&data)))
            }
            Request::Replicate { path, peer } => {
                let repl = self.peers.lock().get(&peer).cloned();
                let repl = repl.ok_or_else(|| SrbError::NotFound(format!("peer {peer}")))?;
                // The reply waits for the peer's replicator to ack it all.
                let done = repl.ship(&path, self.mcat.lookup(&path)?.size);
                done.wait_async().await?;
                self.mcat.add_replica(&path)?;
                Ok(Response::Ok)
            }
            Request::Write { .. } => unreachable!("served as a one-extent list"),
            // EndSession is resolved by the handler (it retires the whole
            // session space); reaching here means a stray frame.
            Request::EndSession | Request::Disconnect => Ok(Response::Ok),
        }
    }

    fn read_done(&self, data: Payload) -> Response {
        self.bytes_read.fetch_add(data.len(), Ordering::Relaxed);
        Response::Data(data)
    }
}
