//! The rank world: spawn, point-to-point messaging and a barrier.
//!
//! Each rank is an actor; messages are typed values handed between rank
//! mailboxes with the wire time charged to the sender through the
//! [`Topology`]. The subset implemented is what the paper's benchmarks use:
//! eager send/recv with tag and source matching (MPI-BLAST's master/worker
//! protocol, the Laplace solver's halo exchange) and a barrier.

use std::any::Any;
use std::sync::Arc;

use parking_lot::Mutex;

use semplar_runtime::sync::Barrier;
use semplar_runtime::{Event, Runtime};

use crate::topology::Topology;

/// Message tag (like an MPI tag).
pub type Tag = u32;

/// Wire-size header charged per message in addition to the payload.
pub const MSG_HDR: u64 = 64;

struct Envelope {
    src: usize,
    tag: Tag,
    data: Box<dyn Any + Send>,
}

struct Mailbox {
    q: Mutex<Vec<Envelope>>,
    ev: Event,
}

impl Mailbox {
    fn deliver(&self, env: Envelope) {
        self.q.lock().push(env);
        self.ev.signal();
    }

    fn take(&self, src: Option<usize>, tag: Tag) -> Envelope {
        loop {
            {
                let mut q = self.q.lock();
                if let Some(pos) = q
                    .iter()
                    .position(|e| e.tag == tag && src.is_none_or(|s| e.src == s))
                {
                    return q.remove(pos);
                }
            }
            self.ev.wait();
        }
    }
}

/// A rank's handle to the world (communicator + rank id).
pub struct Rank {
    /// This rank's id, `0..size`.
    pub rank: usize,
    /// World size.
    pub size: usize,
    rt: Arc<dyn Runtime>,
    topo: Arc<Topology>,
    boxes: Arc<Vec<Arc<Mailbox>>>,
    barrier: Arc<Barrier>,
}

impl Rank {
    /// The runtime this world runs on.
    pub fn runtime(&self) -> &Arc<dyn Runtime> {
        &self.rt
    }

    /// Eager send: charges `MSG_HDR + bytes` of wire time to the caller,
    /// then deposits `value` in `dst`'s mailbox. `bytes` is the modelled
    /// payload size (typed values don't have a canonical wire encoding).
    pub fn send<T: Any + Send>(&self, dst: usize, tag: Tag, value: T, bytes: u64) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        self.topo.deliver(self.rank, dst, MSG_HDR + bytes);
        self.boxes[dst].deliver(Envelope {
            src: self.rank,
            tag,
            data: Box::new(value),
        });
    }

    /// Blocking receive with tag and optional source matching. Returns the
    /// source rank and the value. Panics if the received value's type does
    /// not match `T` (a protocol bug, like a mismatched MPI datatype).
    pub fn recv<T: Any + Send>(&self, src: Option<usize>, tag: Tag) -> (usize, T) {
        let env = self.boxes[self.rank].take(src, tag);
        let val = env
            .data
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("rank {}: type mismatch on tag {tag}", self.rank));
        (env.src, *val)
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// Run an `n`-rank world: spawns one actor per rank, waits for all of them,
/// and returns their results in rank order. Panics propagate.
pub fn run_world<T, F>(topo: Arc<Topology>, n: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Rank) -> T + Send + Sync + 'static,
{
    assert!(n >= 1);
    let rt = topo.network().runtime().clone();
    let boxes: Arc<Vec<Arc<Mailbox>>> = Arc::new(
        (0..n)
            .map(|_| {
                Arc::new(Mailbox {
                    q: Mutex::new(Vec::new()),
                    ev: rt.event(),
                })
            })
            .collect(),
    );
    let barrier = Barrier::new(&rt, n);
    let f = Arc::new(f);
    let results: Arc<Mutex<Vec<Option<T>>>> = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    let mut handles = Vec::with_capacity(n);
    for rank in 0..n {
        let ctx = Rank {
            rank,
            size: n,
            rt: rt.clone(),
            topo: topo.clone(),
            boxes: boxes.clone(),
            barrier: barrier.clone(),
        };
        let f2 = f.clone();
        let res2 = results.clone();
        handles.push(rt.spawn(
            &format!("rank-{rank}"),
            Box::new(move || {
                let out = f2(ctx);
                res2.lock()[rank] = Some(out);
            }),
        ));
    }
    for h in handles {
        h.join_unwrap();
    }
    let mut g = results.lock();
    g.drain(..)
        .map(|v| v.expect("rank died silently"))
        .collect()
}
