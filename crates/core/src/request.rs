//! Asynchronous request handles: the reproduction's `MPIO_Request`.
//!
//! `MPI_File_iread`/`iwrite` return immediately with a [`Request`]; the
//! compute thread later calls [`Request::wait`] (`MPIO_Wait`) or polls
//! [`Request::test`] (`MPIO_Test`) — paper §4.2. The paper's caveat applies
//! unchanged: the I/O buffer must not be reused until the request completes;
//! here the type system enforces it, since the payload is moved into the
//! request and handed back through [`Status`].

use std::sync::Arc;

use parking_lot::Mutex;

use semplar_runtime::sync::OnceCellBlocking;
use semplar_runtime::{Event, Runtime};
use semplar_srb::Payload;

use crate::adio::{IoError, IoResult};

/// Completion information for a finished request.
#[derive(Clone, Debug)]
pub struct Status {
    /// Bytes read or written.
    pub bytes: u64,
    /// For reads: the data that arrived.
    pub data: Option<Payload>,
}

/// Shared completion state: the blocking cell plus any watcher events
/// registered by multiplexed waits ([`Request::wait_any`]).
pub(crate) struct ReqShared {
    cell: Arc<OnceCellBlocking<IoResult<Status>>>,
    watchers: Mutex<Vec<Event>>,
}

impl ReqShared {
    /// Publish the result and wake watchers. Called exactly once.
    pub(crate) fn set(&self, result: IoResult<Status>) {
        self.cell.set(result);
        for w in self.watchers.lock().drain(..) {
            w.signal();
        }
    }
}

pub(crate) type Completion = Arc<ReqShared>;

/// Handle to an in-flight asynchronous I/O operation.
#[derive(Clone)]
pub struct Request {
    shared: Completion,
}

impl Request {
    pub(crate) fn new(rt: &Arc<dyn Runtime>) -> (Request, Completion) {
        let shared = Arc::new(ReqShared {
            cell: OnceCellBlocking::new(rt),
            watchers: Mutex::new(Vec::new()),
        });
        (
            Request {
                shared: shared.clone(),
            },
            shared,
        )
    }

    /// Register `ev` to be signalled when this request completes; signals
    /// immediately if it already has.
    fn watch(&self, ev: &Event) {
        let mut w = self.shared.watchers.lock();
        if self.shared.cell.get().is_some() {
            drop(w);
            ev.signal();
        } else {
            w.push(ev.clone());
        }
    }

    /// A request that is already complete (used by degenerate cases such as
    /// zero-length transfers).
    pub(crate) fn ready(rt: &Arc<dyn Runtime>, result: IoResult<Status>) -> Request {
        let (req, cell) = Request::new(rt);
        cell.set(result);
        req
    }

    /// Block until the operation completes (`MPIO_Wait`).
    pub fn wait(&self) -> IoResult<Status> {
        self.shared.cell.wait()
    }

    /// Non-blocking completion probe (`MPIO_Test`): `None` while in flight.
    pub fn test(&self) -> Option<IoResult<Status>> {
        self.shared.cell.get()
    }

    /// Block until *any* request in `reqs` completes (`MPIO_Waitany`);
    /// returns its index and result. Panics on an empty slice.
    pub(crate) fn wait_any(rt: &Arc<dyn Runtime>, reqs: &[Request]) -> (usize, IoResult<Status>) {
        assert!(!reqs.is_empty(), "wait_any on no requests");
        let ev = rt.event();
        for r in reqs {
            r.watch(&ev);
        }
        loop {
            for (i, r) in reqs.iter().enumerate() {
                if let Some(res) = r.test() {
                    return (i, res);
                }
            }
            ev.wait();
        }
    }

    /// Wait for every request in `reqs`, returning the first error if any
    /// failed (`MPIO_Waitall`).
    pub fn wait_all(reqs: &[Request]) -> IoResult<Vec<Status>> {
        let mut out = Vec::with_capacity(reqs.len());
        let mut first_err: Option<IoError> = None;
        for r in reqs {
            match r.wait() {
                Ok(s) => out.push(s),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            None => Ok(out),
            Some(e) => Err(e),
        }
    }
}
