//! The SRB client session: a POSIX-like remote file API over a transport.
//!
//! An [`SrbConn`] is a logical session — an fd namespace on the server plus
//! the acked-byte ledger recovery resumes from — bound to a
//! [`Transport`](crate::transport::Transport) stream. A session from
//! [`SrbServer::connect`](crate::server::SrbServer::connect) owns its stream
//! (the paper's SEMPLAR dials one per `MPI_File_open`, and two when
//! double-streaming, §7.2) and tears it down on `disconnect`; a session from
//! a [`ConnPool`](crate::pool::ConnPool) slot shares the slot's stream with
//! other sessions and only retires its own namespace. Every call is
//! [`SrbConn::submit`]'s exchange, waited for.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use semplar_runtime::Runtime;

use crate::pool::SlotTicket;
use crate::proto::{Request, RespFrame, Response, SessionId, TenantId};
use crate::transport::Transport;
use crate::types::{ObjStat, OpenFlags, Payload, SrbError, SrbResult};

/// A live session with an SRB server. Obtain via
/// [`SrbServer::connect`](crate::server::SrbServer::connect) (a stream of
/// its own) or [`ConnPool::session`](crate::pool::ConnPool::session).
pub struct SrbConn {
    transport: Arc<Transport>,
    session: SessionId,
    /// Which pool slot the transport came from, for transport-level
    /// reconnect. `None`: the session owns its stream, and `disconnect`
    /// tears the whole transport down instead of retiring one fd namespace.
    origin: Option<SlotTicket>,
    /// Cumulative payload bytes the server has acknowledged on this
    /// session (successful reads + writes). Reported inside
    /// [`SrbError::Disconnected`] so recovery can resume rather than replay.
    /// `Arc` so asynchronous completions ([`SrbConn::submit`]) can credit
    /// it after the issuing call has returned.
    acked: Arc<AtomicU64>,
    /// Tenant tag stamped on every request this session issues (0 =
    /// untagged). Rides the fixed wire header, so it changes no wire size.
    tenant: AtomicU32,
    /// Shared membership-epoch source, read at frame construction time and
    /// stamped into the fixed wire header. Sessions default to a private
    /// zero source ("un-epoched"); mounts under membership governance
    /// share one source per mount so the membership layer can advance
    /// every live session's view at a promotion or rejoin.
    epoch: parking_lot::Mutex<Arc<AtomicU64>>,
}

/// What a completed exchange means for the session's ledger: credit the
/// payload bytes a response acknowledges, or report the cut with the bytes
/// acknowledged so far.
fn settle(acked: &AtomicU64, frame: Option<RespFrame>) -> SrbResult<RespFrame> {
    match frame.as_ref().map(|f| &f.resp) {
        Some(Response::Written(n)) => acked.fetch_add(*n, Ordering::Relaxed),
        Some(Response::Data(p)) => acked.fetch_add(p.len(), Ordering::Relaxed),
        _ => 0,
    };
    frame.ok_or_else(|| SrbError::Disconnected {
        acked: acked.load(Ordering::Relaxed),
    })
}

impl SrbConn {
    /// A session on `transport`: one of a pool slot's (`origin`), or the
    /// stream's owner.
    pub(crate) fn on(transport: Arc<Transport>, origin: Option<SlotTicket>) -> SrbConn {
        let session = transport.open_session();
        SrbConn {
            transport,
            session,
            origin,
            acked: Arc::new(AtomicU64::new(0)),
            tenant: AtomicU32::new(0),
            epoch: parking_lot::Mutex::new(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Tag every subsequent request from this session with `tenant`, the
    /// accounting principal the server's per-tenant fair queueing bills
    /// work to. Sessions default to tenant 0 (untagged).
    pub fn set_tenant(&self, tenant: TenantId) {
        self.tenant.store(tenant.0, Ordering::Relaxed);
    }

    /// The tenant tag this session currently stamps on requests.
    pub fn tenant(&self) -> TenantId {
        TenantId(self.tenant.load(Ordering::Relaxed))
    }

    pub(crate) fn origin(&self) -> Option<&SlotTicket> {
        self.origin.as_ref()
    }

    /// Stamp every subsequent request with the membership epoch read from
    /// `source` at frame-construction time. Mounts governed by
    /// `srb::membership` share one source per mount; ungoverned sessions
    /// keep their private zero source and stay un-epoched (never fenced).
    pub fn set_epoch_source(&self, source: Arc<AtomicU64>) {
        *self.epoch.lock() = source;
    }

    /// The membership epoch this session currently stamps on requests.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.lock().load(Ordering::Relaxed)
    }

    /// Issue one synchronous request/response exchange: the forward
    /// transfer, the server's processing, disk and response transfer all
    /// pass before it returns.
    fn call(&self, req: Request) -> SrbResult<Response> {
        self.call_hinted(req, None)
    }

    /// Like [`SrbConn::call`] but caps the goodput meter's byte count at
    /// `useful` — the sieving path transfers covering extents whose slack
    /// must not count as application goodput.
    fn call_hinted(&self, req: Request, useful: Option<u64>) -> SrbResult<Response> {
        self.call_granted(req, useful).map(|(resp, _)| resp)
    }

    /// Like [`SrbConn::call_hinted`], also returning the response header's
    /// lease grant.
    fn call_granted(
        &self,
        req: Request,
        useful: Option<u64>,
    ) -> SrbResult<(Response, Option<u64>)> {
        let (tenant, epoch) = (self.tenant(), self.current_epoch());
        let frame = self
            .transport
            .exchange_granted(self.session, tenant, epoch, req, useful);
        settle(&self.acked, frame).map(|f| (f.resp, f.lease))
    }

    /// Issue a request asynchronously: the call returns as soon as the
    /// request is queued for transmission, and `complete` fires from the
    /// transport's demultiplexer when the response (or the stream's death,
    /// as `Err(Disconnected)`) arrives. This is the event-driven client
    /// path — a task-mode actor submits here and its waker runs inside
    /// `complete`, so ten-thousand idle sessions hold no blocked thread.
    pub fn submit(
        &self,
        req: Request,
        complete: Box<dyn FnOnce(SrbResult<Response>) + Send>,
    ) -> SrbResult<()> {
        let acked = Arc::clone(&self.acked);
        self.transport.submit(
            self.session,
            self.tenant(),
            self.current_epoch(),
            req,
            None,
            Box::new(move |frame| complete(settle(&acked, frame).map(|f| f.resp))),
        );
        Ok(())
    }

    /// Cumulative payload bytes acknowledged by the server on this
    /// session so far (reads + writes that completed).
    pub fn acked_bytes(&self) -> u64 {
        self.acked.load(Ordering::Relaxed)
    }

    /// The goodput meter of the stream this session currently rides. On a
    /// shared transport the meter aggregates every session on the stream —
    /// which is exactly the slot-level view schedulers want.
    pub fn meter_handle(&self) -> Arc<crate::transport::IoMeter> {
        self.transport.meter().clone()
    }

    fn expect_ok(&self, req: Request) -> SrbResult<()> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            Response::Error(e) => Err(e),
            other => Err(SrbError::InvalidArg(format!("unexpected reply {other:?}"))),
        }
    }

    /// Create a collection.
    pub fn mk_coll(&self, path: &str) -> SrbResult<()> {
        self.expect_ok(Request::MkColl(path.to_string()))
    }

    /// Remove an empty collection.
    pub fn rm_coll(&self, path: &str) -> SrbResult<()> {
        self.expect_ok(Request::RmColl(path.to_string()))
    }

    /// Register a new data object.
    pub fn create(&self, path: &str) -> SrbResult<()> {
        self.expect_ok(Request::Create(path.to_string()))
    }

    /// Open a data object.
    pub fn open(&self, path: &str, flags: OpenFlags) -> SrbResult<u32> {
        match self.call(Request::Open(path.to_string(), flags))? {
            Response::Fd(fd) => Ok(fd),
            Response::Error(e) => Err(e),
            other => Err(SrbError::InvalidArg(format!("unexpected reply {other:?}"))),
        }
    }

    /// Close a descriptor.
    pub fn close_fd(&self, fd: u32) -> SrbResult<()> {
        self.expect_ok(Request::Close(fd))
    }

    /// Read up to `len` bytes at `offset`.
    pub fn read(&self, fd: u32, offset: u64, len: u64) -> SrbResult<Payload> {
        match self.call(Request::Read { fd, offset, len })? {
            Response::Data(p) => Ok(p),
            Response::Error(e) => Err(e),
            other => Err(SrbError::InvalidArg(format!("unexpected reply {other:?}"))),
        }
    }

    /// Read up to `len` bytes at `offset`, also returning the server's
    /// lease grant from the response header — the object's write epoch
    /// sampled before the read. A caller holding the grant may cache the
    /// bytes until the lease is revoked (write-hook broadcast) or broken
    /// (unlink, server loss, shard failover).
    pub fn read_leased(&self, fd: u32, offset: u64, len: u64) -> SrbResult<(Payload, Option<u64>)> {
        match self.call_granted(Request::Read { fd, offset, len }, None)? {
            (Response::Data(p), grant) => Ok((p, grant)),
            (Response::Error(e), _) => Err(e),
            (other, _) => Err(SrbError::InvalidArg(format!("unexpected reply {other:?}"))),
        }
    }

    /// Write `payload` at `offset`, returning bytes written.
    pub fn write(&self, fd: u32, offset: u64, payload: Payload) -> SrbResult<u64> {
        match self.call(Request::Write {
            fd,
            offset,
            payload,
        })? {
            Response::Written(n) => Ok(n),
            Response::Error(e) => Err(e),
            other => Err(SrbError::InvalidArg(format!("unexpected reply {other:?}"))),
        }
    }

    /// Read many extents in one exchange (list-I/O). The reply packs the
    /// extents' data back-to-back in list order, each truncated at EOF.
    /// `useful`, when given, caps the goodput meter's byte count — the
    /// data-sieving path reads one covering extent but only `useful` of it
    /// is application data.
    pub fn read_list(
        &self,
        fd: u32,
        extents: &[(u64, u64)],
        useful: Option<u64>,
    ) -> SrbResult<Payload> {
        match self.call_hinted(
            Request::ReadList {
                fd,
                extents: extents.to_vec(),
            },
            useful,
        )? {
            Response::Data(p) => Ok(p),
            Response::Error(e) => Err(e),
            other => Err(SrbError::InvalidArg(format!("unexpected reply {other:?}"))),
        }
    }

    /// Write many extents in one exchange (list-I/O). `payload` packs the
    /// extents' data back-to-back in list order; returns total bytes
    /// written. `useful` caps the goodput meter as in
    /// [`SrbConn::read_list`].
    pub fn write_list(
        &self,
        fd: u32,
        extents: &[(u64, u64)],
        payload: Payload,
        useful: Option<u64>,
    ) -> SrbResult<u64> {
        match self.call_hinted(
            Request::WriteList {
                fd,
                extents: extents.to_vec(),
                payload,
            },
            useful,
        )? {
            Response::Written(n) => Ok(n),
            Response::Error(e) => Err(e),
            other => Err(SrbError::InvalidArg(format!("unexpected reply {other:?}"))),
        }
    }

    /// A single contiguous read whose goodput accounting is capped at
    /// `useful` bytes — the data-sieving covering fetch.
    pub fn read_sieved(&self, fd: u32, offset: u64, len: u64, useful: u64) -> SrbResult<Payload> {
        match self.call_hinted(Request::Read { fd, offset, len }, Some(useful))? {
            Response::Data(p) => Ok(p),
            Response::Error(e) => Err(e),
            other => Err(SrbError::InvalidArg(format!("unexpected reply {other:?}"))),
        }
    }

    /// A single contiguous write whose goodput accounting is capped at
    /// `useful` bytes — the write-back of a sieved covering extent.
    pub fn write_sieved(
        &self,
        fd: u32,
        offset: u64,
        payload: Payload,
        useful: u64,
    ) -> SrbResult<u64> {
        match self.call_hinted(
            Request::Write {
                fd,
                offset,
                payload,
            },
            Some(useful),
        )? {
            Response::Written(n) => Ok(n),
            Response::Error(e) => Err(e),
            other => Err(SrbError::InvalidArg(format!("unexpected reply {other:?}"))),
        }
    }

    /// Object metadata.
    pub fn stat(&self, path: &str) -> SrbResult<ObjStat> {
        match self.call(Request::Stat(path.to_string()))? {
            Response::Stat(s) => Ok(s),
            Response::Error(e) => Err(e),
            other => Err(SrbError::InvalidArg(format!("unexpected reply {other:?}"))),
        }
    }

    /// Remove a data object.
    pub fn unlink(&self, path: &str) -> SrbResult<()> {
        self.expect_ok(Request::Unlink(path.to_string()))
    }

    /// Immediate children of a collection.
    pub fn list(&self, path: &str) -> SrbResult<Vec<String>> {
        match self.call(Request::List(path.to_string()))? {
            Response::Names(n) => Ok(n),
            Response::Error(e) => Err(e),
            other => Err(SrbError::InvalidArg(format!("unexpected reply {other:?}"))),
        }
    }

    /// Server-side Adler-32 checksum of a whole object — verify a transfer
    /// without pulling the bytes back over the WAN.
    pub fn checksum(&self, path: &str) -> SrbResult<u32> {
        match self.call(Request::Checksum(path.to_string()))? {
            Response::Checksum(c) => Ok(c),
            Response::Error(e) => Err(e),
            other => Err(SrbError::InvalidArg(format!("unexpected reply {other:?}"))),
        }
    }

    /// Replicate an object to a federated peer server (§8). Blocks until
    /// the copy completes on the peer.
    pub fn replicate(&self, path: &str, peer: &str) -> SrbResult<()> {
        self.expect_ok(Request::Replicate {
            path: path.to_string(),
            peer: peer.to_string(),
        })
    }

    /// Gracefully end the session. A session that owns its stream tears
    /// the connection down; one on a pool slot only retires its fd
    /// namespace, leaving the stream to the slot's other sessions. Further
    /// calls on a torn-down stream fail with [`SrbError::Disconnected`].
    pub fn disconnect(&self) -> SrbResult<()> {
        if self.origin.is_none() {
            let r = self.expect_ok(Request::Disconnect);
            self.transport.close();
            r
        } else {
            self.expect_ok(Request::EndSession)
        }
    }

    /// The runtime this session charges time against.
    pub fn runtime(&self) -> &Arc<dyn Runtime> {
        self.transport.runtime()
    }
}
