//! Multi-stream striped files — the paper's §7.2 optimization, implemented
//! at the library level (its stated future work).
//!
//! In the paper's experiment, each node calls `MPI_File_open` twice on the
//! same file; each open yields an independent TCP connection, and
//! asynchronous writes on the two descriptors advance simultaneously,
//! "ideally doubling the observed throughput". [`StripedFile`] packages
//! that pattern: it opens the file `streams` times (one connection + one
//! I/O thread per stream, the paper's ideal one-stream-per-thread mapping)
//! and splits every operation into `unit`-sized blocks assigned round-robin
//! across the streams.
//!
//! The split-TCP approach is *not feasible with synchronous I/O*: a blocking
//! write cannot drive two connections at once. Accordingly even
//! [`StripedFile::write_at`] is internally asynchronous — it fans the blocks
//! out as `iwrite`s and waits for all of them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use semplar_runtime::Runtime;
use semplar_srb::{IoMeter, OpenFlags, Payload};

use crate::adio::{pack_extents, split_packed, AdioFs, IoError, IoResult};
use crate::engine::EngineCfg;
use crate::file::File;
use crate::request::{Request, Status};

/// Blocks the adaptive scheduler keeps in flight per stream. Two matches
/// the paper's two-consecutive-blocks pipeline: enough to keep a stream
/// busy across the scheduler's reaction time, small enough that a degraded
/// stream strands at most this many blocks.
const ADAPTIVE_WINDOW: usize = 2;

/// A stream whose EWMA goodput falls below this fraction of the fastest
/// sibling stops receiving new blocks entirely (it keeps its in-flight
/// ones). Above the gate, allocation is proportional to goodput — a 4×
/// degraded stream still carries ~1/5 of the blocks, which finishes sooner
/// than handing everything to the fast siblings. The gate only cuts off
/// streams so slow that even a proportional share would gate the tail.
const ADAPTIVE_GATE: f64 = 1.0 / 6.0;

/// How often a banned or hard-gated stream is probed with a single block:
/// once every this many harvested completions (per stream), and only while
/// it has nothing in flight and at least one other block remains queued. A
/// probe that completes lifts the ban (and refreshes a gated stream's
/// goodput EWMA) so a recovered stream rejoins the WFQ allocation instead
/// of staying cut off for the rest of the operation; a probe that fails
/// re-queues like any failed block and the stream waits out another period.
const PROBE_EVERY: u64 = 4;

/// How one operation's byte range is divided across the streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StripeUnit {
    /// Fixed-size blocks assigned round-robin by global block index.
    Bytes(u64),
    /// Each operation is split into `streams` contiguous, equal chunks —
    /// the paper's two-descriptor pattern (each connection carries half of
    /// the node's file section).
    Even,
    /// Fixed-size blocks assigned to streams **at completion pace** by
    /// observed goodput: each block goes to the stream with the smallest
    /// weighted virtual finish tag `(bytes issued + block) / goodput`, so
    /// allocation tracks each stream's measured bytes/sec and rebalances
    /// mid-operation as the [`IoMeter`] estimates move. With uniform
    /// goodput (or no telemetry, e.g. [`MemFs`](crate::MemFs)) the tags
    /// tie and placement degenerates to exactly `Bytes(block)`'s
    /// round-robin. Deterministic on virtual time: same seed, same fault
    /// plan ⇒ bit-identical placement.
    Adaptive {
        /// Block size in bytes (the scheduling granule).
        block: u64,
    },
}

/// Placement ledger of the adaptive scheduler, accumulated over every
/// adaptive operation on one [`StripedFile`]. Derived entirely from
/// virtual-time completion order, so two runs with the same seed and fault
/// plan compare equal with `==`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StripeStats {
    /// Blocks completed per stream.
    pub blocks: Vec<u64>,
    /// Bytes completed per stream.
    pub bytes: Vec<u64>,
    /// Blocks placed on a stream other than their round-robin home, whether
    /// the goodput imbalance steered them or a failure re-queued them.
    pub migrated: u64,
    /// Blocks re-queued onto siblings after their stream failed in flight.
    pub requeued: u64,
    /// Single-block probes issued to banned or hard-gated streams.
    pub probes: u64,
    /// Banned streams readmitted to the WFQ after a probe completed.
    pub unbans: u64,
}

/// A file striped across several independent connections.
pub struct StripedFile {
    files: Arc<Vec<File>>,
    /// Per-stream goodput meters captured at open (None for backends
    /// without telemetry; the scheduler then weighs streams uniformly).
    meters: Arc<Vec<Option<Arc<IoMeter>>>>,
    unit: StripeUnit,
    failovers: Arc<AtomicU64>,
    stats: Arc<Mutex<StripeStats>>,
}

/// Mutable state of one adaptive striped operation (behind a mutex in the
/// [`MultiRequest`]). Blocks are issued incrementally — at most
/// [`ADAPTIVE_WINDOW`] in flight per stream — so the scheduler can steer
/// later blocks by goodput observed while earlier ones transferred.
struct AdaptiveSched {
    /// Layout indices not yet issued, in order. Failed blocks re-enter at
    /// the front so byte order is preserved as far as possible.
    queue: VecDeque<usize>,
    /// (layout index, stream, request) per in-flight block.
    inflight: Vec<(usize, usize, Request)>,
    statuses: Vec<Option<Status>>,
    /// Final stream per layout index (starts at the round-robin home).
    placement: Vec<usize>,
    /// Bytes issued per stream this operation — the WFQ virtual time.
    issued_bytes: Vec<u64>,
    inflight_count: Vec<usize>,
    /// Streams that failed a block mid-operation: they keep nothing new
    /// until a probe block completes on them.
    banned: Vec<bool>,
    /// Completions harvested this operation — the probe clock.
    completions: u64,
    /// `completions` value at each stream's last probe.
    last_probe: Vec<u64>,
    requeued: u64,
    probes: u64,
    unbans: u64,
    /// First permanent error, surfaced by the next wait.
    fatal: Option<IoError>,
    recorded: bool,
    meters: Arc<Vec<Option<Arc<IoMeter>>>>,
    stats: Arc<Mutex<StripeStats>>,
}

/// A bundle of per-block requests from one striped operation.
pub struct MultiRequest {
    reqs: Vec<Request>,
    /// (stream, offset, len) per block, for reassembling striped reads.
    layout: Vec<(usize, u64, u64)>,
    /// Base offset of the whole operation and, for writes, its payload —
    /// enough to re-issue any block on another stream.
    base: u64,
    data: Option<Payload>,
    files: Arc<Vec<File>>,
    failovers: Arc<AtomicU64>,
    /// Present iff the operation uses [`StripeUnit::Adaptive`]; then `reqs`
    /// stays empty and blocks live in the scheduler instead.
    sched: Option<Mutex<AdaptiveSched>>,
}

impl MultiRequest {
    /// Wait for every block (`MPIO_Waitall`); returns total bytes moved.
    pub fn wait(&self) -> IoResult<u64> {
        Ok(self.settle()?.iter().map(|s| s.bytes).sum())
    }

    /// Wait with mid-operation rebalancing. On an adaptive operation this
    /// *is* the drive loop — queued blocks migrate to faster siblings as
    /// goodput estimates move, and a failed stream's blocks re-queue at the
    /// front — so this is just [`wait`](Self::wait) under the name the
    /// semantics deserve. On fixed layouts it degenerates to plain `wait`
    /// (re-issue happens only after failure, the old path).
    pub fn wait_rebalanced(&self) -> IoResult<u64> {
        self.wait()
    }

    /// Wait for every block of a striped read and reassemble the payload in
    /// offset order.
    pub fn wait_read(&self) -> IoResult<Payload> {
        assemble_read(&self.layout, &self.settle()?)
    }

    fn settle(&self) -> IoResult<Vec<Status>> {
        match &self.sched {
            Some(_) => self.settle_adaptive(),
            None => self.settle_fixed(),
        }
    }

    /// Wait for all blocks, then give transiently failed ones a second life
    /// on a surviving stream.
    fn settle_fixed(&self) -> IoResult<Vec<Status>> {
        let raw: Vec<IoResult<Status>> = self.reqs.iter().map(|r| r.wait()).collect();
        let mut out = Vec::with_capacity(raw.len());
        for (i, r) in raw.into_iter().enumerate() {
            let st = match r {
                Ok(s) => s,
                Err(e) if e.is_transient() => self.failover_block(i, e)?,
                Err(e) => return Err(e),
            };
            out.push(st);
        }
        Ok(out)
    }

    /// Re-issue block `i` synchronously on the other streams in
    /// deterministic order. Returns `orig` when none can serve the block.
    fn failover_block(&self, i: usize, orig: crate::adio::IoError) -> IoResult<Status> {
        let (stream, off, len) = self.layout[i];
        let n = self.files.len();
        for k in 1..n {
            let s = (stream + k) % n;
            let r = match &self.data {
                Some(d) => self.files[s]
                    .write_at(off, &d.slice(off - self.base, len))
                    .map(|bytes| Status { bytes, data: None }),
                None => self.files[s].read_at(off, len).map(|p| Status {
                    bytes: p.len(),
                    data: Some(p),
                }),
            };
            if let Ok(st) = r {
                self.failovers.fetch_add(1, Ordering::Relaxed);
                return Ok(st);
            }
        }
        Err(orig)
    }

    /// `true` once all blocks have completed (`MPIO_Testall`). On adaptive
    /// operations this also pumps the scheduler: completed blocks are
    /// harvested and the freed window slots refilled, all without blocking.
    pub fn test(&self) -> bool {
        match &self.sched {
            None => Request::test_all(&self.reqs),
            Some(mx) => {
                let mut s = mx.lock();
                self.harvest_ready(&mut s);
                self.assign_blocks(&mut s);
                s.fatal.is_some() || (s.queue.is_empty() && s.inflight.is_empty())
            }
        }
    }

    /// Number of per-stream block requests in this bundle.
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    /// True if the operation was empty.
    pub fn is_empty(&self) -> bool {
        self.layout.is_empty()
    }

    // -- adaptive drive loop -------------------------------------------------

    /// Drive the adaptive operation to completion: keep each eligible
    /// stream's window full, harvest completions as they land, re-queue a
    /// failed stream's block onto the survivors, and record placement stats.
    fn settle_adaptive(&self) -> IoResult<Vec<Status>> {
        let mx = self.sched.as_ref().expect("settle_adaptive without sched");
        let rt = self.files[0].runtime().clone();
        loop {
            let waiters: Vec<Request> = {
                let mut s = mx.lock();
                if let Some(e) = &s.fatal {
                    return Err(e.clone());
                }
                self.assign_blocks(&mut s);
                if s.inflight.is_empty() {
                    if s.queue.is_empty() {
                        // Everything completed (or the op was empty).
                        self.record_stats(&mut s);
                        return Ok(s
                            .statuses
                            .iter()
                            .map(|o| o.clone().expect("settled without status"))
                            .collect());
                    }
                    // Queue non-empty but nothing assignable: every stream
                    // is banned. Fall back to the synchronous drain (the
                    // backends' own retry/reconnect is the second chance).
                    self.drain_banned(&mut s)?;
                    continue;
                }
                s.inflight.iter().map(|(_, _, r)| r.clone()).collect()
            };
            // Wait unlocked so completions (I/O threads) are free to land.
            let (idx, _res) = Request::wait_any(&rt, &waiters);
            let mut s = mx.lock();
            self.harvest_one(&mut s, idx);
            if let Some(e) = &s.fatal {
                return Err(e.clone());
            }
        }
    }

    /// Harvest in-flight entry `idx` (which has completed).
    fn harvest_one(&self, s: &mut AdaptiveSched, idx: usize) {
        let (li, stream, req) = s.inflight.remove(idx);
        s.inflight_count[stream] -= 1;
        s.completions += 1;
        match req.wait() {
            Ok(st) => {
                s.statuses[li] = Some(st);
                if s.banned[stream] {
                    // A probe came back: the stream (and its backend's
                    // reconnect) is live again — readmit it to the WFQ.
                    s.banned[stream] = false;
                    s.unbans += 1;
                }
            }
            Err(e) if e.is_transient() => {
                // The slowness path and the failure path unify here: the
                // stream is cut off from new blocks (like a fully gated
                // one) and this block re-queues for the siblings.
                s.banned[stream] = true;
                s.requeued += 1;
                s.queue.push_front(li);
            }
            Err(e) => s.fatal = Some(e),
        }
    }

    /// Non-blocking sweep: harvest every in-flight block that has already
    /// completed.
    fn harvest_ready(&self, s: &mut AdaptiveSched) {
        loop {
            let Some(idx) = s.inflight.iter().position(|(_, _, r)| r.test().is_some()) else {
                return;
            };
            self.harvest_one(s, idx);
        }
    }

    /// Issue queued blocks until the next block's chosen stream has a full
    /// window (then stop — spilling to the second-best stream would break
    /// round-robin equivalence under uniform goodput) or nothing is
    /// assignable.
    fn assign_blocks(&self, s: &mut AdaptiveSched) {
        let n = self.files.len();
        while let Some(&li) = s.queue.front() {
            // Weigh streams by EWMA goodput. Unmeasured streams (no meter,
            // or no payload exchanged yet) optimistically get the best
            // known weight so they are probed rather than starved; with no
            // measurements at all every weight is 1.0 and the WFQ tags
            // degenerate to exact round-robin.
            let mut weights = vec![0.0f64; n];
            let mut max_known = 0.0f64;
            for (i, w) in weights.iter_mut().enumerate() {
                if s.banned[i] {
                    continue;
                }
                if let Some(m) = &s.meters[i] {
                    let g = m.snapshot().goodput_bps;
                    if g > 0.0 {
                        *w = g;
                        max_known = max_known.max(g);
                    }
                }
            }
            let fallback = if max_known > 0.0 { max_known } else { 1.0 };
            // Periodic recovery probe: a banned stream — or one hard-gated
            // below ADAPTIVE_GATE, whose goodput EWMA would otherwise stay
            // frozen because it receives no blocks — gets one block every
            // PROBE_EVERY completions, idle streams first. Only while at
            // least one more block stays queued, so the operation's tail is
            // never staked on a possibly-dead stream.
            if s.queue.len() >= 2 {
                let probe = (0..n).find(|&i| {
                    let gated =
                        !s.banned[i] && weights[i] > 0.0 && weights[i] < ADAPTIVE_GATE * max_known;
                    (s.banned[i] || gated)
                        && s.inflight_count[i] == 0
                        && s.completions >= s.last_probe[i] + PROBE_EVERY
                });
                if let Some(stream) = probe {
                    s.queue.pop_front();
                    s.last_probe[stream] = s.completions;
                    s.probes += 1;
                    let (_, off, blen) = self.layout[li];
                    s.placement[li] = stream;
                    s.issued_bytes[stream] += blen;
                    s.inflight_count[stream] += 1;
                    let req = match &self.data {
                        Some(d) => {
                            self.files[stream].iwrite_at(off, d.slice(off - self.base, blen))
                        }
                        None => self.files[stream].iread_at(off, blen),
                    };
                    s.inflight.push((li, stream, req));
                    continue;
                }
            }
            let (home, _, len) = self.layout[li];
            let mut best: Option<(f64, usize)> = None;
            // Visit streams home-first so WFQ ties resolve to the
            // round-robin placement (the home sequence starts at
            // `(offset / block) % n`, not at stream 0).
            for k in 0..n {
                let i = (home + k) % n;
                if s.banned[i] {
                    continue;
                }
                if weights[i] == 0.0 {
                    weights[i] = fallback;
                } else if weights[i] < ADAPTIVE_GATE * max_known {
                    // Degraded below the gate: keeps its in-flight blocks
                    // but receives no new ones. The fastest stream always
                    // has w == max_known, so somebody stays eligible.
                    continue;
                }
                let tag = (s.issued_bytes[i] + len) as f64 / weights[i];
                if best.is_none_or(|(bt, _)| tag < bt) {
                    best = Some((tag, i));
                }
            }
            let Some((_, stream)) = best else {
                return; // every stream banned — caller drains synchronously
            };
            if s.inflight_count[stream] >= ADAPTIVE_WINDOW {
                return; // window full: wait for a completion, don't spill
            }
            s.queue.pop_front();
            let (_, off, blen) = self.layout[li];
            s.placement[li] = stream;
            s.issued_bytes[stream] += blen;
            s.inflight_count[stream] += 1;
            let req = match &self.data {
                Some(d) => self.files[stream].iwrite_at(off, d.slice(off - self.base, blen)),
                None => self.files[stream].iread_at(off, blen),
            };
            s.inflight.push((li, stream, req));
        }
    }

    /// Every stream is banned and blocks remain: try each synchronously
    /// (the backend's internal reconnect+retry is the second chance), in
    /// deterministic home-first order.
    fn drain_banned(&self, s: &mut AdaptiveSched) -> IoResult<()> {
        let n = self.files.len();
        while let Some(li) = s.queue.pop_front() {
            let (home, off, len) = self.layout[li];
            let mut served = None;
            let mut last_err = None;
            for k in 0..n {
                let stream = (home + k) % n;
                let r = match &self.data {
                    Some(d) => self.files[stream]
                        .write_at(off, &d.slice(off - self.base, len))
                        .map(|bytes| Status { bytes, data: None }),
                    None => self.files[stream].read_at(off, len).map(|p| Status {
                        bytes: p.len(),
                        data: Some(p),
                    }),
                };
                match r {
                    Ok(st) => {
                        served = Some((stream, st));
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            match served {
                Some((stream, st)) => {
                    if stream != home {
                        self.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    s.placement[li] = stream;
                    s.statuses[li] = Some(st);
                }
                None => return Err(last_err.expect("drain with no streams")),
            }
        }
        Ok(())
    }

    /// Fold this operation's placement into the file-level [`StripeStats`].
    fn record_stats(&self, s: &mut AdaptiveSched) {
        if s.recorded {
            return;
        }
        s.recorded = true;
        let mut g = s.stats.lock();
        for (li, &(home, _, _)) in self.layout.iter().enumerate() {
            let stream = s.placement[li];
            g.blocks[stream] += 1;
            g.bytes[stream] += s.statuses[li].as_ref().map_or(0, |st| st.bytes);
            if stream != home {
                g.migrated += 1;
            }
        }
        g.requeued += s.requeued;
        g.probes += s.probes;
        g.unbans += s.unbans;
    }
}

fn assemble_read(layout: &[(usize, u64, u64)], statuses: &[Status]) -> IoResult<Payload> {
    // Sort blocks by offset; stop at the first short block (EOF).
    let mut idx: Vec<usize> = (0..layout.len()).collect();
    idx.sort_by_key(|&i| layout[i].1);
    let all_real = statuses
        .iter()
        .all(|s| s.data.as_ref().is_some_and(|d| d.data().is_some()));
    if all_real {
        let mut out = Vec::new();
        for &i in &idx {
            let d = statuses[i].data.as_ref().expect("read status without data");
            out.extend_from_slice(d.data().expect("checked real"));
            if statuses[i].bytes < layout[i].2 {
                break; // short read: EOF inside this block
            }
        }
        Ok(Payload::bytes(out))
    } else {
        let mut total = 0u64;
        for &i in &idx {
            total += statuses[i].bytes;
            if statuses[i].bytes < layout[i].2 {
                break;
            }
        }
        Ok(Payload::sized(total))
    }
}

impl StripedFile {
    /// Open `path` over `streams` connections with `unit`-byte striping.
    /// Each stream gets one pre-spawned I/O thread.
    pub fn open(
        rt: &Arc<dyn Runtime>,
        fs: &dyn AdioFs,
        path: &str,
        flags: OpenFlags,
        streams: usize,
        unit: StripeUnit,
    ) -> IoResult<StripedFile> {
        assert!(streams >= 1, "need at least one stream");
        if let StripeUnit::Bytes(u) | StripeUnit::Adaptive { block: u } = unit {
            assert!(u >= 1, "stripe unit must be positive");
        }
        let mut files = Vec::with_capacity(streams);
        for i in 0..streams {
            // Stream `i` takes pool slot `i`, so under a shared connection
            // pool the §7.2 double-streaming still gets truly independent
            // transports instead of multiplexing onto one stream.
            files.push(File::open_pinned(
                rt,
                fs,
                path,
                flags,
                EngineCfg {
                    io_threads: 1,
                    prespawn: true,
                },
                Some(i),
            )?);
        }
        let meters = files.iter().map(|f| f.meter_handle().cloned()).collect();
        Ok(StripedFile {
            files: Arc::new(files),
            meters: Arc::new(meters),
            unit,
            failovers: Arc::new(AtomicU64::new(0)),
            stats: Arc::new(Mutex::new(StripeStats {
                blocks: vec![0; streams],
                bytes: vec![0; streams],
                ..StripeStats::default()
            })),
        })
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.files.len()
    }

    /// Per-stream goodput meters captured at open (`None` entries for
    /// backends without telemetry). Distinct `Arc`s mean distinct
    /// underlying transports — how tests verify stream placement.
    pub fn stream_meters(&self) -> Vec<Option<Arc<IoMeter>>> {
        self.meters.as_ref().clone()
    }

    /// Blocks that were re-issued on another stream after their home
    /// stream failed.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// The stripe unit this file was opened with.
    pub fn unit(&self) -> StripeUnit {
        self.unit
    }

    /// Placement ledger accumulated over this file's adaptive operations
    /// (zeros for fixed layouts — only [`StripeUnit::Adaptive`] records).
    pub fn stripe_stats(&self) -> StripeStats {
        self.stats.lock().clone()
    }

    /// Split `[offset, offset+len)` into stripe blocks: (stream, off, len).
    fn blocks(&self, offset: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let n = self.files.len() as u64;
        let mut out = Vec::new();
        match self.unit {
            // Adaptive uses Bytes' tiling; `stream` is the round-robin
            // *home* the scheduler starts from (and reverts to under
            // uniform goodput).
            StripeUnit::Bytes(unit) | StripeUnit::Adaptive { block: unit } => {
                let mut off = offset;
                let end = offset + len;
                while off < end {
                    let block_idx = off / unit;
                    let block_end = ((block_idx + 1) * unit).min(end);
                    let stream = (block_idx % n) as usize;
                    out.push((stream, off, block_end - off));
                    off = block_end;
                }
            }
            StripeUnit::Even => {
                let chunk = len.div_ceil(n);
                let mut off = offset;
                let end = offset + len;
                let mut stream = 0usize;
                while off < end {
                    let this = chunk.min(end - off);
                    out.push((stream, off, this));
                    off += this;
                    stream += 1;
                }
            }
        }
        out
    }

    /// Asynchronous striped write: every block is queued on its stream's
    /// I/O thread; all streams transfer concurrently. Under
    /// [`StripeUnit::Adaptive`] blocks are instead issued incrementally by
    /// the goodput scheduler (the first window starts here, the rest as
    /// completions land).
    pub fn iwrite_at(&self, offset: u64, data: Payload) -> MultiRequest {
        let layout = self.blocks(offset, data.len());
        if matches!(self.unit, StripeUnit::Adaptive { .. }) {
            return self.adaptive_request(layout, offset, Some(data));
        }
        let reqs = layout
            .iter()
            .map(|&(stream, off, len)| {
                self.files[stream].iwrite_at(off, data.slice(off - offset, len))
            })
            .collect();
        MultiRequest {
            reqs,
            layout,
            base: offset,
            data: Some(data),
            files: self.files.clone(),
            failovers: self.failovers.clone(),
            sched: None,
        }
    }

    /// Asynchronous striped read.
    pub fn iread_at(&self, offset: u64, len: u64) -> MultiRequest {
        let layout = self.blocks(offset, len);
        if matches!(self.unit, StripeUnit::Adaptive { .. }) {
            return self.adaptive_request(layout, offset, None);
        }
        let reqs = layout
            .iter()
            .map(|&(stream, off, len)| self.files[stream].iread_at(off, len))
            .collect();
        MultiRequest {
            reqs,
            layout,
            base: offset,
            data: None,
            files: self.files.clone(),
            failovers: self.failovers.clone(),
            sched: None,
        }
    }

    /// Build a scheduler-backed [`MultiRequest`] and issue the first window
    /// so the transfer is in flight when this returns (the async-overlap
    /// contract of `iwrite`/`iread`).
    fn adaptive_request(
        &self,
        layout: Vec<(usize, u64, u64)>,
        base: u64,
        data: Option<Payload>,
    ) -> MultiRequest {
        let n = self.files.len();
        let sched = AdaptiveSched {
            queue: (0..layout.len()).collect(),
            inflight: Vec::new(),
            statuses: vec![None; layout.len()],
            placement: layout.iter().map(|&(home, _, _)| home).collect(),
            issued_bytes: vec![0; n],
            inflight_count: vec![0; n],
            banned: vec![false; n],
            completions: 0,
            last_probe: vec![0; n],
            requeued: 0,
            probes: 0,
            unbans: 0,
            fatal: None,
            recorded: false,
            meters: self.meters.clone(),
            stats: self.stats.clone(),
        };
        let mr = MultiRequest {
            reqs: Vec::new(),
            layout,
            base,
            data,
            files: self.files.clone(),
            failovers: self.failovers.clone(),
            sched: Some(Mutex::new(sched)),
        };
        {
            let mut s = mr.sched.as_ref().expect("just built").lock();
            mr.assign_blocks(&mut s);
        }
        mr
    }

    /// Striped list-I/O read: each caller extent is tiled by the stripe
    /// layout, the per-stream sub-extents are issued as **one list op per
    /// stream** (one exchange per stream instead of one per fragment), and
    /// the pieces are reassembled in caller order, packed back-to-back.
    ///
    /// List ops keep the static home placement even under adaptive units:
    /// a stream's sub-list is a single indivisible exchange, so there is no
    /// block-level schedule left to adapt.
    pub fn read_list(&self, extents: &[(u64, u64)]) -> IoResult<Payload> {
        let n = self.files.len();
        let mut per_stream: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        // For reassembly: each caller extent's pieces as (stream, index
        // within that stream's sub-list), in offset order.
        let mut pieces_of: Vec<Vec<(usize, usize)>> = vec![Vec::new(); extents.len()];
        for (ei, &(off, len)) in extents.iter().enumerate() {
            if len == 0 {
                continue;
            }
            for (stream, boff, blen) in self.blocks(off, len) {
                pieces_of[ei].push((stream, per_stream[stream].len()));
                per_stream[stream].push((boff, blen));
            }
        }
        let reqs: Vec<Option<Request>> = per_stream
            .iter()
            .enumerate()
            .map(|(s, exts)| (!exts.is_empty()).then(|| self.files[s].iread_list(exts.clone())))
            .collect();
        let mut stream_pieces: Vec<Vec<Payload>> = Vec::with_capacity(n);
        for (s, r) in reqs.iter().enumerate() {
            match r {
                None => stream_pieces.push(Vec::new()),
                Some(req) => {
                    let st = req.wait()?;
                    let packed = st.data.clone().unwrap_or(Payload::sized(st.bytes));
                    stream_pieces.push(split_packed(&per_stream[s], &packed));
                }
            }
        }
        // Concatenate each extent's pieces in offset order: a short piece
        // means EOF inside it, and every later piece of that extent is
        // empty (it starts past EOF), so plain concatenation reproduces the
        // per-extent POSIX truncation.
        let mut out = Vec::with_capacity(extents.len());
        for (ei, &(_, len)) in extents.iter().enumerate() {
            if len == 0 {
                out.push(Payload::sized(0));
                continue;
            }
            let parts: Vec<Payload> = pieces_of[ei]
                .iter()
                .map(|&(s, i)| stream_pieces[s][i].clone())
                .collect();
            out.push(pack_extents(&parts));
        }
        Ok(pack_extents(&out))
    }

    /// Striped list-I/O write: `data` packs the extents' bytes back-to-back
    /// in list order; each extent is tiled by the stripe layout and every
    /// stream receives its sub-list as one list op. Extents must not
    /// overlap — sibling streams transfer concurrently, so overlapping
    /// extents have no defined order across streams.
    pub fn write_list(&self, extents: &[(u64, u64)], data: &Payload) -> IoResult<u64> {
        /// One stream's share of the list: its sub-extents and their data.
        type SubList = (Vec<(u64, u64)>, Vec<Payload>);
        let n = self.files.len();
        let mut per_stream: Vec<SubList> = (0..n).map(|_| (Vec::new(), Vec::new())).collect();
        let mut cursor = 0u64;
        for &(off, len) in extents {
            for (stream, boff, blen) in self.blocks(off, len) {
                per_stream[stream].0.push((boff, blen));
                per_stream[stream]
                    .1
                    .push(data.slice(cursor + (boff - off), blen));
            }
            cursor += len;
        }
        let reqs: Vec<Option<Request>> = per_stream
            .iter()
            .enumerate()
            .map(|(s, (exts, pieces))| {
                // sieve = false: this sub-list's holes are sibling streams'
                // bytes in flight — a read-modify-write of the covering
                // span would race them and resurrect stale data.
                (!exts.is_empty()).then(|| {
                    self.files[s].iwrite_list_with(exts.clone(), pack_extents(pieces), false)
                })
            })
            .collect();
        let mut total = 0u64;
        for req in reqs.iter().flatten() {
            total += req.wait()?.bytes;
        }
        Ok(total)
    }

    /// Blocking striped write (fan out + wait all).
    pub fn write_at(&self, offset: u64, data: Payload) -> IoResult<u64> {
        self.iwrite_at(offset, data).wait()
    }

    /// Blocking striped read.
    pub fn read_at(&self, offset: u64, len: u64) -> IoResult<Payload> {
        self.iread_at(offset, len).wait_read()
    }

    /// Close every stream.
    pub fn close(&self) -> IoResult<()> {
        let mut first_err = None;
        for f in self.files.iter() {
            if let Err(e) = f.close() {
                first_err = first_err.or(Some(e));
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adio::{AdioFile, AdioFs, IoError, IoResult, MemFs};
    use proptest::prelude::*;
    use semplar_runtime::simulate;

    fn layout_for(
        streams: usize,
        unit: StripeUnit,
        offset: u64,
        len: u64,
    ) -> Vec<(usize, u64, u64)> {
        simulate(move |rt| {
            let fs = MemFs::new(rt.clone());
            let f = StripedFile::open(&rt, &fs, "/l", OpenFlags::CreateRw, streams, unit).unwrap();
            let blocks = f.blocks(offset, len);
            f.close().unwrap();
            blocks
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Stripe layouts exactly tile the requested byte range: contiguous,
        /// non-overlapping, in order, with valid stream indices.
        #[test]
        fn blocks_tile_the_range_exactly(
            streams in 1usize..6,
            unit_kind in 0u8..3,
            unit_bytes in 1u64..5000,
            offset in 0u64..100_000,
            len in 1u64..200_000,
        ) {
            let unit = match unit_kind {
                0 => StripeUnit::Bytes(unit_bytes),
                1 => StripeUnit::Even,
                _ => StripeUnit::Adaptive { block: unit_bytes },
            };
            let blocks = layout_for(streams, unit, offset, len);
            prop_assert!(!blocks.is_empty());
            let mut cursor = offset;
            for &(stream, off, blen) in &blocks {
                prop_assert!(stream < streams, "stream index out of range");
                prop_assert_eq!(off, cursor, "gap or overlap in layout");
                prop_assert!(blen > 0);
                cursor += blen;
            }
            prop_assert_eq!(cursor, offset + len, "layout does not cover range");
        }

        /// Even striping balances: largest and smallest per-stream totals
        /// differ by at most one chunk.
        #[test]
        fn even_striping_is_balanced(
            streams in 1usize..6,
            len in 1u64..1_000_000,
        ) {
            let blocks = layout_for(streams, StripeUnit::Even, 0, len);
            let mut totals = vec![0u64; streams];
            for &(stream, _, blen) in &blocks {
                totals[stream] += blen;
            }
            let max = *totals.iter().max().unwrap();
            let min = *totals.iter().min().unwrap();
            let chunk = len.div_ceil(streams as u64);
            prop_assert!(max - min <= chunk, "imbalance {max}-{min} > chunk {chunk}");
            prop_assert_eq!(totals.iter().sum::<u64>(), len);
        }

        /// Striped writes followed by striped reads round-trip arbitrary
        /// data at arbitrary offsets, across both stripe kinds.
        #[test]
        fn striped_roundtrip_property(
            streams in 1usize..5,
            unit in prop_oneof![
                (16u64..4096).prop_map(StripeUnit::Bytes),
                Just(StripeUnit::Even),
                (16u64..4096).prop_map(|b| StripeUnit::Adaptive { block: b })
            ],
            offset in 0u64..10_000,
            data in proptest::collection::vec(any::<u8>(), 1..20_000),
        ) {
            let ok = simulate(move |rt| {
                let fs = MemFs::new(rt.clone());
                let f = StripedFile::open(&rt, &fs, "/rt", OpenFlags::CreateRw, streams, unit)
                    .unwrap();
                f.write_at(offset, Payload::bytes(data.clone())).unwrap();
                let back = f.read_at(offset, data.len() as u64).unwrap();
                let ok = back.data().unwrap() == &data[..];
                f.close().unwrap();
                ok
            });
            prop_assert!(ok);
        }

        /// With uniform goodput (MemFs has no meters, so every stream weighs
        /// the same) the adaptive scheduler's placement must be *exactly*
        /// round-robin: no block leaves its home stream.
        #[test]
        fn adaptive_uniform_goodput_is_round_robin(
            streams in 1usize..5,
            block in 64u64..2048,
            offset in 0u64..10_000,
            len in 1u64..50_000,
        ) {
            let (stats, homes) = simulate(move |rt| {
                let fs = MemFs::new(rt.clone());
                let f = StripedFile::open(
                    &rt, &fs, "/ad", OpenFlags::CreateRw, streams,
                    StripeUnit::Adaptive { block },
                ).unwrap();
                let homes: Vec<usize> =
                    f.blocks(offset, len).iter().map(|&(h, _, _)| h).collect();
                f.write_at(offset, Payload::sized(len)).unwrap();
                let stats = f.stripe_stats();
                f.close().unwrap();
                (stats, homes)
            });
            prop_assert_eq!(stats.migrated, 0, "uniform goodput moved blocks");
            prop_assert_eq!(stats.requeued, 0);
            let mut rr = vec![0u64; streams];
            for h in homes {
                rr[h] += 1;
            }
            prop_assert_eq!(&stats.blocks, &rr, "per-stream counts differ from RR");
            prop_assert_eq!(stats.bytes.iter().sum::<u64>(), len);
        }

        /// Striped list ops round-trip arbitrary disjoint extent lists and
        /// leave the holes between extents untouched.
        #[test]
        fn striped_list_roundtrip_property(
            streams in 1usize..4,
            unit in prop_oneof![
                (16u64..2048).prop_map(StripeUnit::Bytes),
                (16u64..2048).prop_map(|b| StripeUnit::Adaptive { block: b })
            ],
            lens in proptest::collection::vec((1u64..2000, 0u64..2000), 1..8),
            seed in any::<u64>(),
        ) {
            // Build sorted disjoint extents from (len, gap) pairs.
            let mut extents = Vec::new();
            let mut off = seed % 4096;
            for &(len, gap) in &lens {
                extents.push((off, len));
                off += len + gap;
            }
            let total: u64 = extents.iter().map(|&(_, l)| l).sum();
            let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
            let ok = simulate(move |rt| {
                let fs = MemFs::new(rt.clone());
                let f = StripedFile::open(&rt, &fs, "/sl", OpenFlags::CreateRw, streams, unit)
                    .unwrap();
                let n = f.write_list(&extents, &Payload::bytes(data.clone())).unwrap();
                let back = f.read_list(&extents).unwrap();
                let ok = n == total && back.data().unwrap() == &data[..];
                f.close().unwrap();
                ok
            });
            prop_assert!(ok);
        }
    }

    #[test]
    fn adaptive_write_read_roundtrip_and_stats() {
        simulate(|rt| {
            let fs = MemFs::new(rt.clone());
            let data: Vec<u8> = (0..30_000u32).map(|i| (i * 13 % 256) as u8).collect();
            let f = StripedFile::open(
                &rt,
                &fs,
                "/ad",
                OpenFlags::CreateRw,
                3,
                StripeUnit::Adaptive { block: 4096 },
            )
            .unwrap();
            let req = f.iwrite_at(0, Payload::bytes(data.clone()));
            assert_eq!(req.wait_rebalanced().unwrap(), data.len() as u64);
            let back = f.read_at(0, data.len() as u64).unwrap();
            assert_eq!(back.data().unwrap(), &data[..]);
            let stats = f.stripe_stats();
            assert_eq!(
                stats.blocks.iter().sum::<u64>(),
                16,
                "8 write + 8 read blocks"
            );
            assert_eq!(stats.bytes.iter().sum::<u64>(), 2 * data.len() as u64);
            f.close().unwrap();
        });
    }

    /// MemFs wrapper whose pin-0 stream fails writes transiently while a
    /// shared fuse holds, then heals — the minimal backend for exercising
    /// the ban → probe → un-ban path deterministically.
    struct FlakyFs {
        inner: Arc<MemFs>,
        failures_left: Arc<Mutex<u32>>,
    }

    struct FlakyFile {
        inner: Box<dyn AdioFile>,
        flaky: bool,
        failures_left: Arc<Mutex<u32>>,
    }

    impl AdioFile for FlakyFile {
        fn read_at(&mut self, offset: u64, len: u64) -> IoResult<Payload> {
            self.inner.read_at(offset, len)
        }
        fn write_at(&mut self, offset: u64, data: &Payload) -> IoResult<u64> {
            if self.flaky {
                let mut left = self.failures_left.lock();
                if *left > 0 {
                    *left -= 1;
                    return Err(IoError::Srb(semplar_srb::SrbError::Disconnected {
                        acked: 0,
                    }));
                }
            }
            self.inner.write_at(offset, data)
        }
        fn size(&mut self) -> IoResult<u64> {
            self.inner.size()
        }
        fn close(&mut self) -> IoResult<()> {
            self.inner.close()
        }
    }

    impl AdioFs for FlakyFs {
        fn open(&self, path: &str, flags: OpenFlags) -> IoResult<Box<dyn AdioFile>> {
            self.open_pinned(path, flags, None)
        }
        fn open_pinned(
            &self,
            path: &str,
            flags: OpenFlags,
            pin: Option<usize>,
        ) -> IoResult<Box<dyn AdioFile>> {
            Ok(Box::new(FlakyFile {
                inner: self.inner.open_pinned(path, flags, pin)?,
                flaky: pin == Some(0),
                failures_left: self.failures_left.clone(),
            }))
        }
        fn delete(&self, path: &str) -> IoResult<()> {
            self.inner.delete(path)
        }
        fn name(&self) -> &'static str {
            "flakyfs"
        }
    }

    /// A stream banned after transient failures is probed with a single
    /// block once the probe period elapses, and a successful probe readmits
    /// it to the WFQ so it carries blocks again — the operation completes
    /// with every byte intact instead of leaving the stream cut off.
    #[test]
    fn banned_stream_is_probed_and_readmitted() {
        simulate(|rt| {
            let fs = FlakyFs {
                inner: MemFs::new(rt.clone()),
                // Both of stream 0's first-window blocks fail; after that
                // the stream is healthy and the probe can succeed.
                failures_left: Arc::new(Mutex::new(2)),
            };
            let data: Vec<u8> = (0..16_384u32).map(|i| (i % 241) as u8).collect();
            let f = StripedFile::open(
                &rt,
                &fs,
                "/flaky",
                OpenFlags::CreateRw,
                2,
                StripeUnit::Adaptive { block: 1024 },
            )
            .unwrap();
            assert_eq!(
                f.write_at(0, Payload::bytes(data.clone())).unwrap(),
                data.len() as u64
            );
            let stats = f.stripe_stats();
            assert_eq!(stats.requeued, 2, "both first-window blocks requeued");
            assert!(stats.probes >= 1, "banned stream never probed");
            assert_eq!(stats.unbans, 1, "successful probe must lift the ban");
            assert!(
                stats.blocks[0] >= 2,
                "readmitted stream carried only {} blocks",
                stats.blocks[0]
            );
            let back = f.read_at(0, data.len() as u64).unwrap();
            assert_eq!(back.data().unwrap(), &data[..]);
            f.close().unwrap();
        });
    }

    #[test]
    fn adaptive_test_pumps_to_completion() {
        simulate(|rt| {
            let fs = MemFs::new(rt.clone());
            let f = StripedFile::open(
                &rt,
                &fs,
                "/tp",
                OpenFlags::CreateRw,
                2,
                StripeUnit::Adaptive { block: 1024 },
            )
            .unwrap();
            let req = f.iwrite_at(0, Payload::sized(64 * 1024));
            // Poll like MPIO_Test: each call pumps the scheduler forward.
            while !req.test() {
                rt.sleep(semplar_runtime::Dur::from_micros(10));
            }
            assert_eq!(req.wait().unwrap(), 64 * 1024);
            f.close().unwrap();
        });
    }
}
