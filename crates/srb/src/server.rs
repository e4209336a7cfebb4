//! The SRB server.
//!
//! Models `orion.sdsc.edu` (§5 of the paper): a large SMP with several
//! gigabit NICs fronting an MCAT and a storage vault. Each accepted client
//! connection gets its own handler actor — the analogue of the per-
//! connection server thread — which serializes that connection's requests,
//! charges per-operation processing overhead, performs vault/MCAT work, and
//! transmits the response over the connection's reverse path through one of
//! the server NICs (assigned round-robin at connect time, like IP-level
//! load balancing across `orion`'s interfaces).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use semplar_netsim::net::{BusId, DeviceClass, XferOpts};
use semplar_netsim::{Bw, LinkId, Network};
use semplar_runtime::sync::Channel;
use semplar_runtime::{Dur, Runtime};

use crate::cache::{BlockCache, CacheSpec, CacheStats};
use crate::client::SrbConn;
use crate::mcat::Mcat;
use crate::proto::{ReqFrame, Request, RespFrame, Response, SessionId, WIRE_HDR};
use crate::qos::TenantScheduler;
use crate::transport::Transport;
use crate::types::{OpenFlags, SrbError, SrbResult};
use crate::vault::{DiskSpec, Vault};

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

impl Default for SessionSpace {
    fn default() -> Self {
        SessionSpace {
            fds: Default::default(),
            // First descriptor is 3, like the pre-refactor per-connection
            // table (0-2 notionally taken by stdio).
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
    peers: Mutex<std::collections::HashMap<String, Peer>>,
    /// Channels of every live connection, keyed by connection id, so a
    /// crash or a per-connection reset can sever them from the outside.
    live_conns: Mutex<std::collections::HashMap<u64, ConnChannels>>,
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
        let conns: Vec<_> = self.live_conns.lock().drain().collect();
        for (_, (req_ch, resp_ch)) in &conns {
            req_ch.close();
            resp_ch.close();
        }
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
        conns.len()
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
    /// stream) without taking the server down. Returns how many were cut.
    pub fn reset_all_connections(&self) -> usize {
        let conns: Vec<_> = self.live_conns.lock().drain().collect();
        for (_, (req_ch, resp_ch)) in &conns {
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
        // (virtual) time to this handler actor.
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
    /// fire per write, in registration order. A hook runs on the
    /// connection-handler actor and must not block.
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
    /// is then admitted under its frame's [`TenantId`](crate::proto::TenantId)
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
    /// actor. Returns the forward path and channel pair for the transport.
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

        let server = self.clone();
        let handler_req = req_ch.clone();
        let handler_resp = resp_ch.clone();
        let rev2 = rev.clone();
        let rev_opts = route.opts(route.recv_cap);
        // Daemon: an idle connection handler parked on its request channel
        // must not keep the simulation alive (clients that crash or never
        // disconnect would otherwise wedge the virtual clock).
        self.rt.spawn_daemon(
            &format!("{}/conn-{conn_id}", self.cfg.name),
            Box::new(move || {
                server.serve_connection(conn_id, handler_req, handler_resp, rev2, rev_opts);
            }),
        );

        Ok((fwd, (req_ch, resp_ch), conn_id))
    }

    /// Establish an exclusive connection: one stream, one session, one
    /// exchange at a time — the pre-refactor behaviour, and what the
    /// `PerOpen` pool policy uses.
    pub fn connect(
        self: &Arc<Self>,
        route: ConnRoute,
        user: &str,
        password: &str,
    ) -> SrbResult<SrbConn> {
        let (fwd, chans, _conn_id) = self.establish(&route, user, password)?;
        let transport = Transport::exclusive(
            self.rt.clone(),
            self.net.clone(),
            fwd,
            route.opts(route.send_cap),
            chans,
        );
        Ok(SrbConn::exclusive(transport))
    }

    /// Establish a multiplexed stream carrying up to `max_inflight`
    /// concurrent tagged exchanges. Sessions are opened on it through a
    /// [`ConnPool`](crate::pool::ConnPool).
    pub fn connect_transport(
        self: &Arc<Self>,
        route: ConnRoute,
        user: &str,
        password: &str,
        max_inflight: usize,
    ) -> SrbResult<Arc<Transport>> {
        let (fwd, chans, conn_id) = self.establish(&route, user, password)?;
        Ok(Transport::multiplexed(
            self.rt.clone(),
            self.net.clone(),
            fwd,
            route.opts(route.send_cap),
            chans,
            &format!("{}/mux-{conn_id}", self.cfg.name),
            max_inflight,
        ))
    }

    fn serve_connection(
        &self,
        conn_id: u64,
        req_ch: Channel<ReqFrame>,
        resp_ch: Channel<RespFrame>,
        rev: Vec<LinkId>,
        rev_opts: XferOpts,
    ) {
        // One fd namespace per session on this stream; exclusive streams
        // only ever populate session 0.
        let mut sessions: std::collections::HashMap<SessionId, SessionSpace> = Default::default();
        // Loop until the client disconnects, drops the channel, or a fault
        // severs the connection from outside.
        while let Ok(frame) = req_ch.recv() {
            self.requests.fetch_add(1, Ordering::Relaxed);
            self.trace_request(conn_id, &frame);
            self.rt.sleep(self.cfg.op_overhead);
            let req_wire = frame.wire_size();
            let ReqFrame {
                seq,
                session,
                tenant,
                epoch,
                req,
            } = frame;
            // Per-tenant fair queueing (when installed) gates the vault +
            // response-NIC stage: the handler parks here until DRR grants
            // this tenant a service slot. The DRR cost is the bytes the
            // request moves through the gated stage — its own wire size
            // plus, for reads, the response payload it pulls — so megabyte
            // writes *and* megabyte reads drain a tenant's credit while
            // header-sized ops glide through.
            let qos = self.qos.lock().clone();
            if let Some(q) = &qos {
                let cost = req_wire
                    + match &req {
                        Request::Read { len, .. } => *len,
                        Request::ReadList { extents, .. } => extents.iter().map(|&(_, l)| l).sum(),
                        _ => 0,
                    };
                q.admit(tenant, cost);
            }
            let last = matches!(req, Request::Disconnect);
            let (resp, lease) = if matches!(req, Request::EndSession) {
                sessions.remove(&session);
                (Response::Ok, None)
            } else if let Some(e) = self.fence_check(epoch, &req) {
                (Response::Error(e), None)
            } else {
                let space = sessions.entry(session).or_default();
                self.handle(req, space)
            };
            let frame = RespFrame {
                seq,
                session,
                lease,
                resp,
            };
            self.net
                .send_message_opts(&rev, frame.wire_size(), &rev_opts);
            if let Some(q) = &qos {
                q.done(tenant, req_wire + frame.wire_size());
            }
            if resp_ch.send(frame).is_err() {
                break;
            }
            if last {
                break;
            }
        }
        self.live_conns.lock().remove(&conn_id);
    }

    fn handle(&self, req: Request, space: &mut SessionSpace) -> (Response, Option<u64>) {
        match self.handle_inner(req, space) {
            Ok(r) => r,
            Err(e) => (Response::Error(e), None),
        }
    }

    /// Serve one request; returns the response plus, for reads, the lease
    /// grant (the object's write epoch sampled before the read).
    fn handle_inner(
        &self,
        req: Request,
        space: &mut SessionSpace,
    ) -> SrbResult<(Response, Option<u64>)> {
        match req {
            Request::MkColl(p) => {
                self.mcat.mk_coll(&p)?;
                Ok((Response::Ok, None))
            }
            Request::RmColl(p) => {
                self.mcat.rm_coll(&p)?;
                Ok((Response::Ok, None))
            }
            Request::Create(p) => {
                let id = self.mcat.create_obj(&p, &self.cfg.resource)?;
                self.vault.create(id);
                Ok((Response::Ok, None))
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
                Ok((Response::Fd(fd), None))
            }
            Request::Close(fd) => {
                space.fds.remove(&fd).ok_or(SrbError::BadFd(fd))?;
                Ok((Response::Ok, None))
            }
            Request::Read { fd, offset, len } => {
                let obj_id = {
                    let e = space.fds.get(&fd).ok_or(SrbError::BadFd(fd))?;
                    if !e.flags.readable() {
                        return Err(SrbError::InvalidArg("fd not open for read".into()));
                    }
                    e.obj_id
                };
                // Lease grant: sample the write epoch BEFORE the read. If a
                // write slips in during the disk access the grant is already
                // stale — the conservative direction. (Sampling after could
                // stamp a fresh epoch onto pre-write bytes.)
                let grant = self.lease_epoch(obj_id);
                let cache = self.cache.lock().clone();
                let data = match &cache {
                    Some(c) => c.serve_read(&self.vault, obj_id, offset, len),
                    None => self.vault.read(obj_id, offset, len),
                };
                self.bytes_read.fetch_add(data.len(), Ordering::Relaxed);
                Ok((Response::Data(data), Some(grant)))
            }
            Request::Write {
                fd,
                offset,
                payload,
            } => {
                let (obj_id, path) = {
                    let e = space.fds.get(&fd).ok_or(SrbError::BadFd(fd))?;
                    if !e.flags.writable() {
                        return Err(SrbError::InvalidArg("fd not open for write".into()));
                    }
                    (e.obj_id, e.path.clone())
                };
                let n = payload.len();
                // For cache invalidation the dirty range starts at the
                // write offset or the old EOF, whichever is lower: a write
                // past EOF zero-fills the gap, so cached EOF-short blocks
                // in `[old_size, offset)` are stale too.
                let old_size = self.vault.size(obj_id);
                let new_size = self.vault.write(obj_id, offset, &payload);
                if let Some(c) = self.cache.lock().clone() {
                    c.invalidate_range(obj_id, old_size.min(offset), offset + n);
                }
                self.bump_lease_epoch(obj_id);
                self.mcat.update_size(&path, new_size)?;
                self.bytes_written.fetch_add(n, Ordering::Relaxed);
                self.fire_write_hooks(&path, offset, n);
                Ok((Response::Written(n), None))
            }
            Request::ReadList { fd, extents } => {
                let obj_id = {
                    let e = space.fds.get(&fd).ok_or(SrbError::BadFd(fd))?;
                    if !e.flags.readable() {
                        return Err(SrbError::InvalidArg("fd not open for read".into()));
                    }
                    e.obj_id
                };
                // One vault pass for the whole list: a single seek plus one
                // packed transfer, instead of a disk pass per extent.
                let data = self.vault.read_list(obj_id, &extents);
                self.bytes_read.fetch_add(data.len(), Ordering::Relaxed);
                Ok((Response::Data(data), None))
            }
            Request::WriteList {
                fd,
                extents,
                payload,
            } => {
                let (obj_id, path) = {
                    let e = space.fds.get(&fd).ok_or(SrbError::BadFd(fd))?;
                    if !e.flags.writable() {
                        return Err(SrbError::InvalidArg("fd not open for write".into()));
                    }
                    (e.obj_id, e.path.clone())
                };
                let total: u64 = extents.iter().map(|&(_, l)| l).sum();
                if total != payload.len() {
                    return Err(SrbError::InvalidArg(format!(
                        "packed payload is {} bytes but extents sum to {total}",
                        payload.len()
                    )));
                }
                let old_size = self.vault.size(obj_id);
                let new_size = self.vault.write_list(obj_id, &extents, &payload);
                if let Some(c) = self.cache.lock().clone() {
                    // One conservative sweep over the whole dirtied span
                    // (including any zero-filled gap past the old EOF).
                    let lo = extents.iter().map(|&(o, _)| o).min().unwrap_or(0);
                    let hi = extents.iter().map(|&(o, l)| o + l).max().unwrap_or(0);
                    c.invalidate_range(obj_id, old_size.min(lo), hi);
                }
                self.bump_lease_epoch(obj_id);
                self.mcat.update_size(&path, new_size)?;
                self.bytes_written.fetch_add(total, Ordering::Relaxed);
                // Fire per extent so replication ships exactly the packed
                // bytes — never the holes between extents.
                for &(off, len) in &extents {
                    self.fire_write_hooks(&path, off, len);
                }
                Ok((Response::Written(total), None))
            }
            Request::Stat(p) => Ok((Response::Stat(self.mcat.stat(&p)?), None)),
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
                Ok((Response::Ok, None))
            }
            Request::List(p) => Ok((Response::Names(self.mcat.list(&p)?), None)),
            Request::Checksum(p) => {
                let rec = self.mcat.lookup(&p)?;
                Ok((Response::Checksum(self.vault.checksum(rec.obj_id)?), None))
            }
            Request::Replicate { path, peer } => {
                self.replicate(&path, &peer)?;
                Ok((Response::Ok, None))
            }
            // EndSession is resolved in `serve_connection` (it retires the
            // whole session space); reaching here means a stray frame.
            Request::EndSession => Ok((Response::Ok, None)),
            Request::Disconnect => Ok((Response::Ok, None)),
        }
    }
}
