//! The MPI-IO-style file API.
//!
//! [`File`] mirrors the slice of MPI-IO that SEMPLAR implements and the
//! paper's benchmarks use: explicit-offset, non-collective reads and writes
//! with individual file pointers, in synchronous (`MPI_File_read/write`) and
//! asynchronous (`MPI_File_iread/iwrite` + `MPIO_Wait`/`MPIO_Test`) forms.
//! The asynchronous calls go through the Fig. 2 engine
//! ([`crate::engine`]); the synchronous calls take the connection directly.

use std::sync::Arc;

use semplar_runtime::sync::RtMutex;
use semplar_runtime::Runtime;
use semplar_srb::{OpenFlags, Payload};

use crate::adio::{AdioFs, IoError, IoResult};
use crate::engine::{EngineCfg, EngineStats, IoEngine, IoOp};
use crate::request::{Request, Status};

/// An open file with synchronous and asynchronous I/O.
pub struct File {
    rt: Arc<dyn Runtime>,
    inner: Arc<RtMutex<Box<dyn crate::adio::AdioFile>>>,
    engine: Arc<IoEngine>,
    /// The backend stream's goodput meter, captured at open so schedulers
    /// can read it without taking `inner` (which an I/O thread holds for
    /// the whole duration of a block transfer). If the backend later
    /// reconnects onto a fresh stream the handle goes stale (it stops
    /// updating); adaptive consumers treat a failed stream as out of the
    /// operation anyway.
    meter: Option<Arc<semplar_srb::IoMeter>>,
}

impl File {
    /// Open `path` on `fs` with the default engine (one lazily spawned I/O
    /// thread). The analogue of `MPI_File_open`: on SRBFS this call
    /// establishes the file's TCP connection to the server.
    pub fn open(
        rt: &Arc<dyn Runtime>,
        fs: &dyn AdioFs,
        path: &str,
        flags: OpenFlags,
    ) -> IoResult<File> {
        File::open_with(rt, fs, path, flags, EngineCfg::default())
    }

    /// Open with explicit engine configuration (thread count, prespawn).
    pub fn open_with(
        rt: &Arc<dyn Runtime>,
        fs: &dyn AdioFs,
        path: &str,
        flags: OpenFlags,
        cfg: EngineCfg,
    ) -> IoResult<File> {
        File::open_pinned(rt, fs, path, flags, cfg, None)
    }

    /// Open with a transport-placement pin (see [`AdioFs::open_pinned`]):
    /// striped files use this to land sibling streams on distinct pooled
    /// transports so they stay truly independent connections.
    pub fn open_pinned(
        rt: &Arc<dyn Runtime>,
        fs: &dyn AdioFs,
        path: &str,
        flags: OpenFlags,
        cfg: EngineCfg,
        pin: Option<usize>,
    ) -> IoResult<File> {
        let adio = fs.open_pinned(path, flags, pin)?;
        let meter = adio.meter();
        let inner = Arc::new(RtMutex::new(rt, adio));
        let engine = IoEngine::new(rt.clone(), cfg, inner.clone());
        Ok(File {
            rt: rt.clone(),
            inner,
            engine,
            meter,
        })
    }

    /// Synchronous read at an explicit offset (`MPI_File_read_at`).
    pub fn read_at(&self, offset: u64, len: u64) -> IoResult<Payload> {
        self.inner.lock().read_at(offset, len)
    }

    /// Synchronous write at an explicit offset (`MPI_File_write_at`).
    pub fn write_at(&self, offset: u64, data: &Payload) -> IoResult<u64> {
        self.inner.lock().write_at(offset, data)
    }

    /// Asynchronous read (`MPI_File_iread_at`): returns immediately with a
    /// [`Request`]; the data arrives in [`Status::data`].
    pub fn iread_at(&self, offset: u64, len: u64) -> Request {
        if len == 0 {
            return Request::ready(
                &self.rt,
                Ok(Status {
                    bytes: 0,
                    data: Some(Payload::sized(0)),
                }),
            );
        }
        let (req, done) = Request::new(&self.rt);
        if let Err(e) = self.engine.submit(IoOp::Read { offset, len }, done.clone()) {
            done.set(Err(e));
        }
        req
    }

    /// Asynchronous write (`MPI_File_iwrite_at`). The payload moves into
    /// the request — the buffer-reuse hazard the paper warns about is ruled
    /// out by ownership.
    pub fn iwrite_at(&self, offset: u64, data: Payload) -> Request {
        if data.is_empty() {
            return Request::ready(
                &self.rt,
                Ok(Status {
                    bytes: 0,
                    data: None,
                }),
            );
        }
        let (req, done) = Request::new(&self.rt);
        if let Err(e) = self
            .engine
            .submit(IoOp::Write { offset, data }, done.clone())
        {
            done.set(Err(e));
        }
        req
    }

    /// Synchronous list-I/O read: many `(offset, len)` extents in one
    /// operation, returning their data packed back-to-back in list order
    /// (each extent truncated at EOF). On SRBFS this is one wire exchange —
    /// one WAN RTT for the whole list instead of one per fragment.
    pub fn read_list(&self, extents: &[(u64, u64)]) -> IoResult<Payload> {
        self.inner.lock().read_list(extents)
    }

    /// Synchronous list-I/O write: `data` packs the extents' bytes
    /// back-to-back in list order. Returns total bytes written.
    pub fn write_list(&self, extents: &[(u64, u64)], data: &Payload) -> IoResult<u64> {
        self.inner.lock().write_list(extents, data)
    }

    /// Asynchronous list-I/O read: like [`File::read_list`] but queued to
    /// the engine, pipelining like any other async op.
    pub fn iread_list(&self, extents: Vec<(u64, u64)>) -> Request {
        if extents.iter().map(|&(_, l)| l).sum::<u64>() == 0 {
            return Request::ready(
                &self.rt,
                Ok(Status {
                    bytes: 0,
                    data: Some(Payload::sized(0)),
                }),
            );
        }
        let (req, done) = Request::new(&self.rt);
        if let Err(e) = self.engine.submit(IoOp::ReadList { extents }, done.clone()) {
            done.set(Err(e));
        }
        req
    }

    /// Asynchronous list-I/O write: like [`File::write_list`] but queued to
    /// the engine. The packed payload moves into the request.
    pub fn iwrite_list(&self, extents: Vec<(u64, u64)>, data: Payload) -> Request {
        self.iwrite_list_with(extents, data, true)
    }

    /// [`File::iwrite_list`] with an explicit sieving opt-out (see
    /// [`crate::adio::AdioFile::write_list_with`]): the striping layer
    /// passes `sieve = false` because its sub-lists' holes belong to
    /// sibling streams writing concurrently.
    pub(crate) fn iwrite_list_with(
        &self,
        extents: Vec<(u64, u64)>,
        data: Payload,
        sieve: bool,
    ) -> Request {
        if data.is_empty() {
            return Request::ready(
                &self.rt,
                Ok(Status {
                    bytes: 0,
                    data: None,
                }),
            );
        }
        let (req, done) = Request::new(&self.rt);
        if let Err(e) = self.engine.submit(
            IoOp::WriteList {
                extents,
                data,
                sieve,
            },
            done.clone(),
        ) {
            done.set(Err(e));
        }
        req
    }

    /// Current file size.
    pub fn size(&self) -> IoResult<u64> {
        self.inner.lock().size()
    }

    /// Drain outstanding asynchronous work, stop the I/O threads, and close
    /// the underlying file (`MPI_File_close`; on SRBFS this terminates the
    /// TCP connection).
    pub fn close(&self) -> IoResult<()> {
        self.engine.shutdown();
        self.inner.lock().close()
    }

    /// The backend stream's goodput meter, if the backend measures one
    /// (see the field docs for staleness after a reconnect).
    pub fn meter_handle(&self) -> Option<&Arc<semplar_srb::IoMeter>> {
        self.meter.as_ref()
    }

    /// Snapshot of the backend stream's telemetry, if measured.
    pub fn meter(&self) -> Option<semplar_srb::MeterSnapshot> {
        self.meter.as_ref().map(|m| m.snapshot())
    }

    /// Engine counters (tests, ablations).
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The runtime this file charges time against.
    pub fn runtime(&self) -> &Arc<dyn Runtime> {
        &self.rt
    }
}

impl Drop for File {
    fn drop(&mut self) {
        // Best-effort: stop I/O threads if the user forgot to close. Errors
        // are ignored (the connection may already be gone).
        self.engine.shutdown_in_drop();
    }
}

/// Convenience: open, run `f`, and always close (even on early return).
pub fn with_file<T>(
    rt: &Arc<dyn Runtime>,
    fs: &dyn AdioFs,
    path: &str,
    flags: OpenFlags,
    f: impl FnOnce(&File) -> IoResult<T>,
) -> IoResult<T> {
    let file = File::open(rt, fs, path, flags)?;
    let out = f(&file);
    let close = file.close();
    match (out, close) {
        (Ok(v), Ok(())) => Ok(v),
        (Ok(_), Err(e)) => Err(e),
        (Err(e), _) => Err(e),
    }
}

// Re-export for users matching on errors.
pub use crate::adio::IoError as FileError;

#[allow(unused_imports)]
use IoError as _IoErrorDocAnchor;
