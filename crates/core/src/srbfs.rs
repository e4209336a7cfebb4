//! The SRBFS ADIO backend: SEMPLAR's high-performance ADIO implementation
//! for the SRB remote filesystem (paper §3.2).
//!
//! Every `open` establishes a **fresh TCP connection** to the SRB server —
//! this is the paper's design ("the network connection is established during
//! the call to the `MPI_File_open` function") and the hook the §7.2
//! multi-stream optimization exploits: opening the same file twice yields
//! two independent connections that the asynchronous interface can drive
//! simultaneously.
//!
//! SRBFS files also carry the recovery machinery for WAN faults: a
//! transient failure (connection reset, server crash) triggers a
//! [`RetryPolicy`]-paced reconnect, after which a failed write resumes in
//! 1 MiB blocks from the last acknowledged byte of the operation rather
//! than replaying the whole transfer. The fault-free path is untouched —
//! a clean run issues exactly the same requests as before.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use semplar_runtime::Dur;
use semplar_srb::{
    adler32, CacheStats, Change, ConnPool, ConnRoute, IoMeter, OpenFlags, Payload, PoolPolicy,
    RetryPolicy, SrbConn, SrbError, SrbServer,
};

use crate::adio::{merge_extents, pack_extents, split_packed, AdioFile, AdioFs, IoError, IoResult};
use crate::lease::LeaseCache;

/// Resume granularity after a reconnect: the remainder of an interrupted
/// write is re-issued in blocks of this size, so a second cut loses at
/// most one unacknowledged block (matches the replication chunk).
pub const RESUME_BLOCK: u64 = 1 << 20;

/// Everything that defines one mount, fixed when the mount is built.
#[derive(Clone)]
pub struct SrbFsConfig {
    /// How this node reaches the server.
    pub route: ConnRoute,
    /// SRB account.
    pub user: String,
    /// SRB password.
    pub password: String,
    /// How opens map onto TCP streams. `PerOpen` reproduces the paper
    /// exactly; `Shared` multiplexes opens over a bounded set of streams
    /// for scale-out.
    pub pool: PoolPolicy,
    /// Pacing of reconnects after a transient failure
    /// ([`RetryPolicy::none`] disables recovery).
    pub retry: RetryPolicy,
    /// Pin-indexed route table: stream `i` of a striped file (pin `i`)
    /// dials `stream_routes[i % len]` instead of `route`, giving sibling
    /// streams physically distinct paths — a multi-homed client, where a
    /// single-link degrade hits one stream and not the others. Empty means
    /// every open uses `route`.
    pub stream_routes: Vec<ConnRoute>,
    /// Data-sieving hole-fraction threshold, clamped to `[0, 1]`. A
    /// coalesced list op whose merged extents leave a hole fraction at or
    /// below this is served by one covering transfer (read: fetch and
    /// slice; write: read-modify-write under the hole mask) instead of a
    /// wire list. `0.0` sieves only fully contiguous runs; `1.0` always
    /// moves one covering extent no matter how sparse the list is.
    pub sieve_threshold: f64,
    /// Capacity in payload bytes of the client-side read-lease cache;
    /// `None` disables leases and every read goes to the wire.
    /// Full-length reads are kept locally and served with zero wire
    /// round-trips until revoked; revocation arrives as the server's
    /// [`Change`]s (overlapping writes, unlinks, its crash) and from
    /// federation failover/reconcile transitions.
    pub lease_capacity: Option<u64>,
}

impl SrbFsConfig {
    /// The paper's mount: one TCP stream per open
    /// ([`PoolPolicy::PerOpen`]), the default [`RetryPolicy`], no stream
    /// routes, no sieving across holes, no read leases.
    pub fn new(route: ConnRoute, user: &str, password: &str) -> SrbFsConfig {
        SrbFsConfig {
            route,
            user: user.into(),
            password: password.into(),
            pool: PoolPolicy::PerOpen,
            retry: RetryPolicy::default(),
            stream_routes: Vec::new(),
            sieve_threshold: 0.0,
            lease_capacity: None,
        }
    }
}

/// Client-side recovery counters, all in virtual time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// Transient failures observed on file operations.
    pub disconnects: u64,
    /// Successful reconnects that dialed a new TCP stream (+ reopen).
    pub reconnects: u64,
    /// Reconnects satisfied by rebinding to a shared stream another session
    /// had already redialed — one link flap, one handshake, however many
    /// sessions rode the stream.
    pub shared_reconnects: u64,
    /// Operations that failed transiently and eventually completed.
    pub recovered_ops: u64,
    /// Total virtual time spent inside recovery (first failure of an
    /// operation to its eventual completion), summed over operations.
    pub recovery_time: Dur,
}

/// The SRB-backed filesystem for one client node.
pub struct SrbFs {
    server: Arc<SrbServer>,
    cfg: SrbFsConfig,
    /// Sessions come from here; the pool also owns the [`RetryPolicy`]
    /// pacing reconnects.
    pool: Arc<ConnPool>,
    /// The read-lease cache, when `cfg.lease_capacity` asked for one.
    lease: Option<Arc<LeaseCache>>,
    recovery: Mutex<RecoveryStats>,
    /// Mount-wide membership-epoch stamp: every session this mount opens
    /// (admin, pooled, reconnected) carries it, so the membership layer can
    /// advance the whole mount's view of the shard epoch in one store.
    /// Stays 0 — un-epoched, never fenced — outside membership governance.
    epoch: Arc<AtomicU64>,
    next_file: AtomicU64,
}

impl SrbFs {
    /// An SRBFS mount that will connect to `server` as `cfg` describes.
    /// With leases on, the cache's change hook is registered on `server`
    /// here. Server hooks fire in registration order, so build a
    /// leased mount before starting a `Replicator` on the same server.
    pub fn new(server: Arc<SrbServer>, mut cfg: SrbFsConfig) -> Arc<SrbFs> {
        cfg.sieve_threshold = cfg.sieve_threshold.clamp(0.0, 1.0);
        let pool = ConnPool::new(
            server.clone(),
            &cfg.user,
            &cfg.password,
            cfg.pool,
            cfg.retry.clone(),
        );
        let lease = cfg.lease_capacity.map(|capacity| {
            let cache = Arc::new(LeaseCache::new(capacity));
            let c = cache.clone();
            server.add_change_hook(Arc::new(move |change| match *change {
                Change::Wrote { path, offset, len } => {
                    c.invalidate_range(path, offset, offset + len)
                }
                Change::Unlinked { path } => c.invalidate_path(path),
                Change::Crashed => c.invalidate_all(),
            }));
            cache
        });
        Arc::new(SrbFs {
            server,
            cfg,
            pool,
            lease,
            recovery: Mutex::new(RecoveryStats::default()),
            epoch: Arc::new(AtomicU64::new(0)),
            next_file: AtomicU64::new(0),
        })
    }

    /// The route an open with placement hint `pin` dials: the pin-indexed
    /// stream route when a table is configured, `cfg.route` otherwise.
    fn route_for(&self, pin: Option<usize>) -> &ConnRoute {
        match pin {
            Some(p) if !self.cfg.stream_routes.is_empty() => {
                &self.cfg.stream_routes[p % self.cfg.stream_routes.len()]
            }
            _ => &self.cfg.route,
        }
    }

    /// The server this mount dials (membership governance, test assertions).
    pub fn server(&self) -> &Arc<SrbServer> {
        &self.server
    }

    /// The mount-wide membership-epoch stamp (see the `epoch` field). The
    /// membership layer registers this with the governed shard so every
    /// session's frames follow the shard epoch.
    pub fn epoch_stamp(&self) -> Arc<AtomicU64> {
        self.epoch.clone()
    }

    /// Snapshot of the recovery counters across every file opened through
    /// this mount.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery.lock().clone()
    }

    /// Snapshot of the lease-cache counters (zeros when leases are off).
    pub fn lease_stats(&self) -> CacheStats {
        self.lease.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Revoke cached lease bytes overlapping `[offset, offset+len)` of
    /// `path`. Federation calls this when a write lands on a *replica*
    /// (failover) — the primary never reports that write as a [`Change`].
    pub(crate) fn invalidate_lease_range(&self, path: &str, offset: u64, len: u64) {
        if let Some(c) = &self.lease {
            c.invalidate_range(path, offset, offset + len);
        }
    }

    /// Revoke every cached lease byte. Federation calls this on reconcile
    /// rounds and shard role transitions, where per-range accounting is not
    /// worth the complexity.
    pub(crate) fn invalidate_lease_all(&self) {
        if let Some(c) = &self.lease {
            c.invalidate_all();
        }
    }

    /// One-off administrative connection (collection setup, cleanup).
    pub fn admin_conn(&self) -> IoResult<SrbConn> {
        let conn =
            self.server
                .connect(self.cfg.route.clone(), &self.cfg.user, &self.cfg.password)?;
        conn.set_epoch_source(self.epoch.clone());
        Ok(conn)
    }
}

/// Write-path coalescing: sort the extents and fuse exactly-adjacent runs,
/// reordering the packed payload pieces to match. Returns `None` when the
/// extents overlap — list order then determines the final bytes, so the
/// caller must frame the list exactly as given.
fn coalesce_write(extents: &[(u64, u64)], data: &Payload) -> Option<(Vec<(u64, u64)>, Payload)> {
    // Cursor of each extent's bytes within the packed payload (list order).
    let mut cursors = Vec::with_capacity(extents.len());
    let mut c = 0u64;
    for &(_, len) in extents {
        cursors.push(c);
        c += len;
    }
    let mut order: Vec<usize> = (0..extents.len()).filter(|&i| extents[i].1 > 0).collect();
    order.sort_by_key(|&i| extents[i].0);
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(order.len());
    let mut pieces: Vec<Payload> = Vec::with_capacity(order.len());
    for &i in &order {
        let (off, len) = extents[i];
        pieces.push(data.slice(cursors[i], len));
        if let Some(last) = merged.last_mut() {
            let end = last.0 + last.1;
            if off < end {
                return None;
            }
            if off == end {
                last.1 += len;
                continue;
            }
        }
        merged.push((off, len));
    }
    Some((merged, pack_extents(&pieces)))
}

struct SrbFile {
    fs: Arc<SrbFs>,
    conn: SrbConn,
    fd: u32,
    path: String,
    flags: OpenFlags,
    /// The route this file dialed (a stream route for pinned opens) —
    /// reconnects must redial the same path, not `cfg.route`.
    route: ConnRoute,
    /// Jitter key: distinct per open, stable per file, so two streams on
    /// the same path do not retry in lock-step.
    key: u64,
    closed: bool,
}

impl AdioFs for Arc<SrbFs> {
    fn open(&self, path: &str, flags: OpenFlags) -> IoResult<Box<dyn AdioFile>> {
        self.open_pinned(path, flags, None)
    }

    fn open_pinned(
        &self,
        path: &str,
        flags: OpenFlags,
        pin: Option<usize>,
    ) -> IoResult<Box<dyn AdioFile>> {
        let route = self.route_for(pin).clone();
        let conn = self.pool.session(&route, pin)?;
        conn.set_epoch_source(self.epoch.clone());
        let fd = conn.open(path, flags)?;
        let file_id = self.next_file.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(SrbFile {
            fs: self.clone(),
            conn,
            fd,
            path: path.to_string(),
            flags,
            route,
            key: (adler32(path.as_bytes()) as u64) | (file_id << 32),
            closed: false,
        }))
    }

    fn delete(&self, path: &str) -> IoResult<()> {
        let conn = self.admin_conn()?;
        let r = conn.unlink(path);
        let _ = conn.disconnect();
        Ok(r?)
    }

    fn name(&self) -> &'static str {
        "srbfs"
    }
}

impl SrbFile {
    /// Replace the dead session with a fresh one and reopen the file.
    /// Fails transiently while the server is still down, so callers run it
    /// under the retry policy. Pooled sessions reconnect at the *transport*
    /// level: the first session on a flapped stream redials it
    /// (`reconnects`), every other session rebinds to the fresh stream
    /// without a new handshake (`shared_reconnects`).
    fn reconnect(&mut self) -> Result<(), SrbError> {
        let (conn, shared) = self.fs.pool.reconnect(&self.route, &self.conn)?;
        conn.set_epoch_source(self.fs.epoch.clone());
        let fd = conn.open(&self.path, self.flags)?;
        self.conn = conn;
        self.fd = fd;
        let mut st = self.fs.recovery.lock();
        if shared {
            st.shared_reconnects += 1;
        } else {
            st.reconnects += 1;
        }
        Ok(())
    }

    /// Run a wire operation with the standard transient-failure recovery.
    /// Only idempotent operations go through here: reads, stats and list
    /// exchanges (same bytes at the same offsets), so a cut anywhere
    /// safely replays the whole exchange.
    fn with_idempotent_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut SrbFile) -> Result<T, SrbError>,
    ) -> IoResult<T> {
        match op(self) {
            Ok(v) => Ok(v),
            Err(e) if !e.is_transient() => Err(e.into()),
            Err(_) => self.recover(op),
        }
    }

    /// Recovery after a transient failure of `op`: reconnect under the
    /// retry policy and re-run `op` until it completes, accounting the
    /// episode in the mount's [`RecoveryStats`].
    fn recover<T>(
        &mut self,
        mut op: impl FnMut(&mut SrbFile) -> Result<T, SrbError>,
    ) -> IoResult<T> {
        let rt = self.conn.runtime().clone();
        let t0 = rt.now();
        self.fs.recovery.lock().disconnects += 1;
        let policy = self.fs.pool.retry().clone();
        let key = self.key;
        let out = policy.run(&rt, key, |_| {
            self.reconnect()?;
            op(self)
        })?;
        let mut st = self.fs.recovery.lock();
        st.recovered_ops += 1;
        st.recovery_time += rt.now() - t0;
        Ok(out)
    }

    /// Recovery tail of an interrupted write: re-issue the remainder in
    /// [`RESUME_BLOCK`] pieces starting at `done` (bytes of this operation
    /// the server already acknowledged). `done` survives further cuts, so
    /// each retry resumes at the last acknowledged block instead of offset
    /// zero. Blocks are idempotent (same bytes, same offsets), which keeps
    /// an unacknowledged-but-applied server write harmless.
    fn resume_write(&mut self, offset: u64, data: &Payload, mut done: u64) -> IoResult<u64> {
        let total = data.len();
        self.recover(|me| {
            while done < total {
                let blk = RESUME_BLOCK.min(total - done);
                me.conn.write(me.fd, offset + done, data.slice(done, blk))?;
                done += blk;
            }
            Ok(total)
        })
    }
}

impl AdioFile for SrbFile {
    fn read_at(&mut self, offset: u64, len: u64) -> IoResult<Payload> {
        if self.closed {
            return Err(IoError::Closed);
        }
        let read = |me: &mut SrbFile| me.conn.read(me.fd, offset, len);
        let Some(cache) = self.fs.lease.clone() else {
            return self.with_idempotent_retry(read);
        };
        // Lease fast path: a cached entry covering the range is served
        // locally — zero wire round-trips. On a miss, the revocation
        // counter is snapshotted *before* the wire read, so a change that
        // lands while it is out (a racing write, a crash that cut it) keeps
        // the bytes out of the cache. They are still returned — the server
        // produced them, so they are a legal linearization.
        if let Some(p) = cache.lookup(&self.path, offset, len) {
            return Ok(p);
        }
        let snap = cache.revocation();
        let p = self.with_idempotent_retry(read)?;
        // Only full-length reads are cached: a short read means the range
        // crossed EOF, and such an entry could serve bytes a later
        // extending write would not invalidate.
        if p.len() == len {
            cache.insert_if(snap, &self.path, offset, &p);
        }
        Ok(p)
    }

    fn write_at(&mut self, offset: u64, data: &Payload) -> IoResult<u64> {
        if self.closed {
            return Err(IoError::Closed);
        }
        // Fault-free path: one request for the whole payload, exactly as
        // without recovery. The ledger snapshot lets the recovery path
        // below tell how much of *this* operation the server had already
        // acknowledged when the cut happened.
        let before = self.conn.acked_bytes();
        match self.conn.write(self.fd, offset, data.clone()) {
            Ok(n) => Ok(n),
            Err(e) if !e.is_transient() => Err(e.into()),
            Err(SrbError::Disconnected { acked }) => {
                // Recovery: seed the resume point from the acked-byte
                // ledger carried by the disconnect — bytes the server
                // acknowledged for this operation need not be re-sent.
                let done = acked.saturating_sub(before).min(data.len());
                self.resume_write(offset, data, done)
            }
            Err(_) => self.resume_write(offset, data, 0),
        }
    }

    fn read_list(&mut self, extents: &[(u64, u64)]) -> IoResult<Payload> {
        if self.closed {
            return Err(IoError::Closed);
        }
        let total: u64 = extents.iter().map(|&(_, l)| l).sum();
        if total == 0 {
            return Ok(Payload::sized(0));
        }
        if extents.len() == 1 {
            return self.read_at(extents[0].0, extents[0].1);
        }
        let merged = merge_extents(extents);
        let start = merged[0].0;
        let end = merged.last().map(|&(o, l)| o + l).unwrap();
        let span = end - start;
        let useful: u64 = merged.iter().map(|&(_, l)| l).sum();
        let hole_frac = 1.0 - useful as f64 / span as f64;
        let pieces: Vec<Payload> = if hole_frac <= self.fs.cfg.sieve_threshold {
            // Data sieving: one covering fetch, then slice the runs out of
            // it. The meter hint caps goodput at the requested bytes — the
            // hole bytes ride the wire but are not application goodput.
            let covering =
                self.with_idempotent_retry(|me| me.conn.read_sieved(me.fd, start, span, useful))?;
            merged
                .iter()
                .map(|&(off, len)| covering.slice(off - start, len))
                .collect()
        } else {
            // List-I/O: the merged extent table in one exchange; the reply
            // packs exactly the useful bytes, so no meter hint is needed.
            let reply = self.with_idempotent_retry(|me| me.conn.read_list(me.fd, &merged))?;
            split_packed(&merged, &reply)
        };
        // Map each caller extent back out of its containing merged run.
        let mut out = Vec::with_capacity(extents.len());
        for &(off, len) in extents {
            if len == 0 {
                out.push(Payload::sized(0));
                continue;
            }
            let idx = merged.partition_point(|&(moff, _)| moff <= off) - 1;
            out.push(pieces[idx].slice(off - merged[idx].0, len));
        }
        Ok(pack_extents(&out))
    }

    fn write_list(&mut self, extents: &[(u64, u64)], data: &Payload) -> IoResult<u64> {
        self.write_list_with(extents, data, true)
    }

    fn write_list_with(
        &mut self,
        extents: &[(u64, u64)],
        data: &Payload,
        sieve: bool,
    ) -> IoResult<u64> {
        if self.closed {
            return Err(IoError::Closed);
        }
        let total: u64 = extents.iter().map(|&(_, l)| l).sum();
        debug_assert_eq!(
            total,
            data.len(),
            "packed payload must match the extent table"
        );
        if total == 0 {
            return Ok(0);
        }
        if extents.len() == 1 {
            return self.write_at(extents[0].0, data);
        }
        let Some((merged, packed)) = coalesce_write(extents, data) else {
            // Overlapping extents: list order decides the final bytes, so
            // frame exactly what the caller gave us.
            return self
                .with_idempotent_retry(|me| me.conn.write_list(me.fd, extents, data.clone()));
        };
        if merged.len() == 1 {
            // The gap-merge fused everything into one contiguous run: a
            // plain write, which also brings the resume-from-acked-byte
            // recovery machinery.
            return self.write_at(merged[0].0, &packed);
        }
        let start = merged[0].0;
        let end = merged.last().map(|&(o, l)| o + l).unwrap();
        let span = end - start;
        let hole_frac = (span - total) as f64 / span as f64;
        if sieve && hole_frac <= self.fs.cfg.sieve_threshold && packed.data().is_some() {
            // Write-back sieving under the hole mask: fetch the covering
            // extent (pure overhead, metered at zero goodput), overlay the
            // caller's runs on it, and write the whole span back — one
            // exchange pair instead of an RTT per run. Bytes under the
            // holes keep exactly what the read returned, so unwritten gaps
            // are never clobbered.
            self.with_idempotent_retry(|me| {
                let covering = me.conn.read_sieved(me.fd, start, span, 0)?;
                let Some(old) = covering.data() else {
                    // A sparse object has no hole bytes to preserve; the
                    // wire list applies the runs without inventing any.
                    return me.conn.write_list(me.fd, &merged, packed.clone());
                };
                let mut base = old.to_vec();
                base.resize(span as usize, 0);
                let bytes = packed.data().expect("checked real");
                let mut cursor = 0usize;
                for &(off, len) in &merged {
                    let at = (off - start) as usize;
                    base[at..at + len as usize]
                        .copy_from_slice(&bytes[cursor..cursor + len as usize]);
                    cursor += len as usize;
                }
                me.conn
                    .write_sieved(me.fd, start, Payload::bytes(base), total)
            })?;
            Ok(total)
        } else {
            self.with_idempotent_retry(|me| me.conn.write_list(me.fd, &merged, packed.clone()))
        }
    }

    fn meter(&self) -> Option<Arc<IoMeter>> {
        Some(self.conn.meter_handle())
    }

    fn size(&mut self) -> IoResult<u64> {
        if self.closed {
            return Err(IoError::Closed);
        }
        let stat = self.with_idempotent_retry(|me| me.conn.stat(&me.path))?;
        Ok(stat.size)
    }

    fn close(&mut self) -> IoResult<()> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        // A connection already severed by a fault has nothing left to
        // close; the server-side descriptors died with its handler.
        match self.conn.close_fd(self.fd) {
            Ok(()) => {}
            Err(e) if e.is_transient() => return Ok(()),
            Err(e) => return Err(e.into()),
        }
        match self.conn.disconnect() {
            Ok(()) => Ok(()),
            Err(e) if e.is_transient() => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}
