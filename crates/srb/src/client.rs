//! The SRB client session: a POSIX-like remote file API over a transport.
//!
//! An [`SrbConn`] is a logical session — an fd namespace on the server plus
//! the acked-byte ledger recovery resumes from — bound to a [`Transport`]
//! stream. A session from
//! [`SrbServer::connect`](crate::server::SrbServer::connect) owns its stream
//! (the paper's SEMPLAR dials one per `MPI_File_open`, and two when
//! double-streaming, §7.2) and tears it down on `disconnect`; a session from
//! a [`ConnPool`](crate::pool::ConnPool) slot shares the slot's stream with
//! other sessions and only retires its own namespace. Every call is
//! [`SrbConn::submit`]'s exchange, waited for.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use semplar_runtime::sync::OnceCellBlocking;
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
    /// stamped into the fixed wire header. Unset, a session is un-epoched
    /// and stamps 0; mounts under membership governance set one source per
    /// mount on each fresh session, so the membership layer can advance
    /// every live session's view at a promotion or rejoin.
    epoch: OnceLock<Arc<AtomicU64>>,
}

/// A reply as the caller's value: the success variant `$want` yields `$v`,
/// a server error is the error, and any other reply is `InvalidArg`.
macro_rules! reply {
    ($resp:expr, $want:pat => $v:expr) => {
        match $resp {
            $want => Ok($v),
            Response::Error(e) => Err(e),
            other => Err(SrbError::InvalidArg(format!("unexpected reply {other:?}"))),
        }
    };
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
            epoch: OnceLock::new(),
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
    /// `srb::membership` share one source per mount; sessions without one
    /// stay un-epoched (never fenced). Set once, on a fresh session: a
    /// second call panics.
    pub fn set_epoch_source(&self, source: Arc<AtomicU64>) {
        if self.epoch.set(source).is_err() {
            panic!("SrbConn::set_epoch_source called twice on one session");
        }
    }

    /// The membership epoch this session currently stamps on requests.
    pub(crate) fn current_epoch(&self) -> u64 {
        self.epoch.get().map_or(0, |e| e.load(Ordering::Relaxed))
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
        self.submit_hinted(req, useful).wait().map(|f| f.resp)
    }

    /// Issue a request asynchronously and return the cell its reply fills:
    /// the response frame, or `Err(Disconnected)` if the stream dies first.
    /// The call returns as soon as the request is queued for transmission —
    /// SEMPLAR's request handle at transport granularity. A thread waits on
    /// the cell; a task awaits
    /// [`wait_async`](OnceCellBlocking::wait_async), so ten thousand idle
    /// sessions hold no blocked thread.
    ///
    /// [`Request::Disconnect`] ends the session as [`SrbConn::disconnect`]
    /// does: a session on a pool slot sends `EndSession` instead, and one
    /// that owns its stream closes it once the reply (or the cut) is in.
    pub fn submit(&self, req: Request) -> Arc<OnceCellBlocking<SrbResult<RespFrame>>> {
        self.submit_hinted(req, None)
    }

    /// [`SrbConn::submit`] with the goodput meter capped at `useful`.
    fn submit_hinted(
        &self,
        req: Request,
        useful: Option<u64>,
    ) -> Arc<OnceCellBlocking<SrbResult<RespFrame>>> {
        let cell = OnceCellBlocking::new(self.runtime());
        let (reply, acked) = (cell.clone(), Arc::clone(&self.acked));
        let (req, owned) = match req {
            Request::Disconnect if self.origin.is_some() => (Request::EndSession, None),
            Request::Disconnect => (req, Some(Arc::clone(&self.transport))),
            req => (req, None),
        };
        let (tenant, epoch) = (self.tenant(), self.current_epoch());
        let complete = Box::new(move |frame| {
            reply.set(settle(&acked, frame));
            owned.iter().for_each(|t| t.close());
        });
        self.transport
            .submit(self.session, tenant, epoch, req, useful, complete);
        cell
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

    /// Create a collection.
    pub fn mk_coll(&self, path: &str) -> SrbResult<()> {
        reply!(self.call(Request::MkColl(path.to_string()))?, Response::Ok => ())
    }

    /// Register a new data object.
    pub fn create(&self, path: &str) -> SrbResult<()> {
        reply!(self.call(Request::Create(path.to_string()))?, Response::Ok => ())
    }

    /// Open a data object.
    pub fn open(&self, path: &str, flags: OpenFlags) -> SrbResult<u32> {
        reply!(self.call(Request::Open(path.to_string(), flags))?, Response::Fd(fd) => fd)
    }

    /// Close a descriptor.
    pub fn close_fd(&self, fd: u32) -> SrbResult<()> {
        reply!(self.call(Request::Close(fd))?, Response::Ok => ())
    }

    /// Read up to `len` bytes at `offset`.
    pub fn read(&self, fd: u32, offset: u64, len: u64) -> SrbResult<Payload> {
        reply!(self.call(Request::Read { fd, offset, len })?, Response::Data(p) => p)
    }

    /// Write `payload` at `offset`, returning bytes written.
    pub fn write(&self, fd: u32, offset: u64, payload: Payload) -> SrbResult<u64> {
        let req = Request::Write {
            fd,
            offset,
            payload,
        };
        reply!(self.call(req)?, Response::Written(n) => n)
    }

    /// Read many extents in one exchange (list-I/O). The reply packs the
    /// extents' data back-to-back in list order, each truncated at EOF.
    pub fn read_list(&self, fd: u32, extents: &[(u64, u64)]) -> SrbResult<Payload> {
        let extents = extents.to_vec();
        reply!(self.call(Request::ReadList { fd, extents })?, Response::Data(p) => p)
    }

    /// Write many extents in one exchange (list-I/O). `payload` packs the
    /// extents' data back-to-back in list order; returns total bytes
    /// written.
    pub fn write_list(&self, fd: u32, extents: &[(u64, u64)], payload: Payload) -> SrbResult<u64> {
        let extents = extents.to_vec();
        let req = Request::WriteList {
            fd,
            extents,
            payload,
        };
        reply!(self.call(req)?, Response::Written(n) => n)
    }

    /// A single contiguous read whose goodput accounting is capped at
    /// `useful` bytes — the data-sieving covering fetch.
    pub fn read_sieved(&self, fd: u32, offset: u64, len: u64, useful: u64) -> SrbResult<Payload> {
        let resp = self.call_hinted(Request::Read { fd, offset, len }, Some(useful))?;
        reply!(resp, Response::Data(p) => p)
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
        let req = Request::Write {
            fd,
            offset,
            payload,
        };
        reply!(self.call_hinted(req, Some(useful))?, Response::Written(n) => n)
    }

    /// Object metadata.
    pub fn stat(&self, path: &str) -> SrbResult<ObjStat> {
        reply!(self.call(Request::Stat(path.to_string()))?, Response::Stat(s) => s)
    }

    /// Remove a data object.
    pub fn unlink(&self, path: &str) -> SrbResult<()> {
        reply!(self.call(Request::Unlink(path.to_string()))?, Response::Ok => ())
    }

    /// Immediate children of a collection.
    pub fn list(&self, path: &str) -> SrbResult<Vec<String>> {
        reply!(self.call(Request::List(path.to_string()))?, Response::Names(n) => n)
    }

    /// Server-side Adler-32 checksum of a whole object — verify a transfer
    /// without pulling the bytes back over the WAN.
    pub fn checksum(&self, path: &str) -> SrbResult<u32> {
        reply!(self.call(Request::Checksum(path.to_string()))?, Response::Checksum(c) => c)
    }

    /// Replicate an object to a federated peer server (§8). Blocks until
    /// the copy completes on the peer.
    pub fn replicate(&self, path: &str, peer: &str) -> SrbResult<()> {
        let (path, peer) = (path.to_string(), peer.to_string());
        reply!(self.call(Request::Replicate { path, peer })?, Response::Ok => ())
    }

    /// Gracefully end the session. A session that owns its stream tears
    /// the connection down; one on a pool slot only retires its fd
    /// namespace, leaving the stream to the slot's other sessions. Further
    /// calls on a torn-down stream fail with [`SrbError::Disconnected`].
    /// A [`SrbConn::submit`] of [`Request::Disconnect`], waited for (the
    /// server answers a session's end with `Ok`).
    pub fn disconnect(&self) -> SrbResult<()> {
        self.submit(Request::Disconnect).wait().map(drop)
    }

    /// The runtime this session charges time against.
    pub fn runtime(&self) -> &Arc<dyn Runtime> {
        self.transport.runtime()
    }
}
