//! The multi-threaded asynchronous I/O engine — the paper's Fig. 2.
//!
//! A compute thread calling an asynchronous I/O function places the request
//! in a FIFO **I/O queue** and returns immediately; dedicated **I/O
//! threads** dequeue requests and service them by calling the corresponding
//! *synchronous* ADIO operation (so the asynchronous capability stays
//! orthogonal to every other optimization, §4.2–4.3). Idle I/O threads park
//! on the queue's condition variable rather than polling, and the engine can
//! be configured with:
//!
//! * a single lazily spawned I/O thread (the paper's §7.1 configuration:
//!   "the first call to an asynchronous MPI file I/O function spawns the
//!   I/O thread"), or
//! * a pre-spawned pool (the §7.2 configuration), with the paper's guidance
//!   that parallelism only materializes when each thread drives its own TCP
//!   stream.

use std::sync::Arc;

use parking_lot::Mutex;

use semplar_runtime::sync::Channel;
use semplar_runtime::{JoinHandle, Runtime};
use semplar_srb::Payload;

use crate::adio::{AdioFile, IoError, IoResult};
use crate::request::{Completion, Status};
use semplar_runtime::sync::RtMutex;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineCfg {
    /// Number of I/O threads servicing this engine's queue.
    pub io_threads: usize,
    /// Spawn the threads at engine creation (`true`) or on the first
    /// asynchronous call (`false`, the paper's default).
    pub prespawn: bool,
}

impl Default for EngineCfg {
    fn default() -> Self {
        EngineCfg {
            io_threads: 1,
            prespawn: false,
        }
    }
}

pub(crate) enum IoOp {
    Read {
        offset: u64,
        len: u64,
    },
    Write {
        offset: u64,
        data: Payload,
    },
    ReadList {
        extents: Vec<(u64, u64)>,
    },
    WriteList {
        extents: Vec<(u64, u64)>,
        data: Payload,
        sieve: bool,
    },
}

pub(crate) struct IoJob {
    pub op: IoOp,
    pub done: Completion,
}

/// Cumulative engine counters (for tests and ablation benches).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Jobs enqueued.
    pub submitted: u64,
    /// Jobs completed by I/O threads.
    pub completed: u64,
    /// I/O threads spawned.
    pub threads_spawned: usize,
}

struct EngineInner {
    threads: Vec<JoinHandle>,
    spawned: usize,
    shut_down: bool,
}

/// The asynchronous I/O engine attached to one open file.
pub(crate) struct IoEngine {
    rt: Arc<dyn Runtime>,
    cfg: EngineCfg,
    queue: Channel<IoJob>,
    file: Arc<RtMutex<Box<dyn AdioFile>>>,
    inner: Mutex<EngineInner>,
    stats: Mutex<EngineStats>,
}

impl IoEngine {
    pub fn new(
        rt: Arc<dyn Runtime>,
        cfg: EngineCfg,
        file: Arc<RtMutex<Box<dyn AdioFile>>>,
    ) -> Arc<IoEngine> {
        assert!(cfg.io_threads >= 1, "engine needs at least one I/O thread");
        let engine = Arc::new(IoEngine {
            queue: Channel::new(&rt),
            rt,
            cfg,
            file,
            inner: Mutex::new(EngineInner {
                threads: Vec::new(),
                spawned: 0,
                shut_down: false,
            }),
            stats: Mutex::new(EngineStats::default()),
        });
        if cfg.prespawn {
            engine.ensure_threads();
        }
        engine
    }

    /// Spawn the I/O thread(s) if not yet running (lazy path: first async
    /// call; subsequent calls find them already alive, §4.3).
    fn ensure_threads(self: &Arc<Self>) {
        let mut g = self.inner.lock();
        if g.shut_down || g.spawned > 0 {
            return;
        }
        for i in 0..self.cfg.io_threads {
            let me = self.clone();
            // Daemon: an idle I/O thread parked on the queue's condition
            // variable must not keep the simulation alive if the file is
            // abandoned without close().
            let h = self
                .rt
                .spawn_daemon(&format!("io-thread-{i}"), Box::new(move || me.io_loop()));
            g.threads.push(h);
            g.spawned += 1;
        }
        self.stats.lock().threads_spawned = g.spawned;
    }

    /// The I/O thread body: dequeue in FIFO order, service via the
    /// synchronous ADIO call, publish completion.
    fn io_loop(&self) {
        while let Ok(job) = self.queue.recv() {
            let result = {
                // One request at a time crosses this file's connection; with
                // several I/O threads on one connection they serialize here
                // (the paper's observation that multiple I/O threads need
                // multiple TCP streams to add parallelism).
                let mut f = self.file.lock();
                match job.op {
                    IoOp::Read { offset, len } => f.read_at(offset, len).map(|p| Status {
                        bytes: p.len(),
                        data: Some(p),
                    }),
                    IoOp::Write { offset, data } => f.write_at(offset, &data).map(|n| Status {
                        bytes: n,
                        data: None,
                    }),
                    IoOp::ReadList { extents } => f.read_list(&extents).map(|p| Status {
                        bytes: p.len(),
                        data: Some(p),
                    }),
                    IoOp::WriteList {
                        extents,
                        data,
                        sieve,
                    } => f.write_list_with(&extents, &data, sieve).map(|n| Status {
                        bytes: n,
                        data: None,
                    }),
                }
            };
            self.stats.lock().completed += 1;
            job.done.set(result);
        }
    }

    /// Enqueue a job (compute-thread side of Fig. 2). Never blocks: the
    /// queue is unbounded.
    pub fn submit(self: &Arc<Self>, op: IoOp, done: Completion) -> IoResult<()> {
        self.ensure_threads();
        self.queue
            .send(IoJob { op, done })
            .map_err(|_| IoError::Closed)?;
        // Count only jobs actually enqueued: a submit against a shut-down
        // engine must not inflate `submitted` past what can ever complete.
        self.stats.lock().submitted += 1;
        Ok(())
    }

    /// Counters snapshot.
    pub fn stats(&self) -> EngineStats {
        *self.stats.lock()
    }

    /// Stop accepting work and hand back the I/O threads, which drain the
    /// queue and exit. Empty on every call after the first.
    fn stop(&self) -> Vec<JoinHandle> {
        let mut g = self.inner.lock();
        if g.shut_down {
            return Vec::new();
        }
        g.shut_down = true;
        self.queue.close();
        std::mem::take(&mut g.threads)
    }

    /// Stop accepting work, let the I/O threads drain the queue, and join
    /// them, re-raising an I/O thread's panic.
    pub fn shutdown(&self) {
        for t in self.stop() {
            t.join_unwrap();
        }
    }

    /// [`IoEngine::shutdown`] for destructors. Joining blocks through the
    /// runtime, which panics once the simulation is poisoned; a thread that
    /// is already unwinding would then abort the process and bury the first
    /// panic. So while unwinding only close the queue — the I/O threads are
    /// daemons and exit on their own — and otherwise join without re-raising
    /// (`close` is the call that reports an I/O thread's panic).
    pub fn shutdown_in_drop(&self) {
        let threads = self.stop();
        if std::thread::panicking() {
            return;
        }
        for t in threads {
            let _ = t.join();
        }
    }
}
