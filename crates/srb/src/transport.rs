//! The transport layer: one physical stream carrying tagged exchanges.
//!
//! Pre-refactor, `SrbConn` owned the raw exchange machinery (links, channel
//! pair, serializing lock) directly — one TCP stream per logical connection,
//! one exchange in flight. This module extracts that machinery into
//! [`Transport`] so the session layer above it can be bound to a stream in
//! two ways:
//!
//! * **Exclusive** — the stream belongs to exactly one session and carries
//!   one exchange at a time behind a runtime lock. The operation sequence
//!   (lock, charge forward transfer, enqueue, block on response) is
//!   instruction-for-instruction the pre-refactor `SrbConn::call`, so the
//!   default `PerOpen` pool policy produces a bit-identical request stream
//!   and identical virtual timing.
//! * **Multiplexed** — many sessions share the stream. Each exchange takes a
//!   stream-unique `seq` tag, sends under a send-side lock (a TCP stream
//!   serializes bytes, so concurrent frames must queue for the wire), and
//!   parks on a per-exchange cell; a demultiplexer routes tagged responses
//!   back to their issuers. An `inflight` semaphore bounds outstanding
//!   exchanges per stream, and the FIFO-ish wakeup order of the runtime
//!   semaphore gives fair tag scheduling across sessions.
//!
//! A multiplexed stream's two helpers only ever wait, so they are
//! [`Task`]s, not threads, spawned under the stream's label: the `Demux`
//! (blocked where a thread would sit in `resp_ch.recv()`) and, from the
//! first asynchronous submit on, the `Sender` (a job queue, then the
//! inflight permit, the send lock and the wire — the blocking calls of a
//! synchronous exchange, made on the submitter's behalf).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use semplar_netsim::net::{Message, XferOpts};
use semplar_netsim::{LinkId, Network};
use semplar_runtime::sync::{Channel, Closed, OnceCellBlocking, RtMutex, Semaphore};
use semplar_runtime::{Runtime, Task, TaskCtx, TaskExecutor, TaskStep, Wake};

use crate::proto::{ReqFrame, Request, RespFrame, Response, SessionId, TenantId};

type RespCell = Arc<OnceCellBlocking<Option<RespFrame>>>;

/// Completion to run when an async submit's tagged response arrives (or the
/// stream dies, delivering `None`). Runs inside the demultiplexer's poll: it
/// must not block through the runtime — store the result and wake a task.
pub type SubmitCallback = Box<dyn FnOnce(Option<Response>) + Send>;

/// One in-flight exchange awaiting its tagged response: a parked thread's
/// cell (synchronous [`Transport::exchange`]) or an event-driven submit's
/// completion callback.
enum Pending {
    Cell(RespCell),
    Callback {
        cb: SubmitCallback,
        /// The submit's inflight permit, once the [`Sender`] has taken one
        /// for it: whoever settles the exchange gives it back.
        permit: bool,
    },
}

/// EWMA smoothing factor for the per-stream goodput/latency estimates. A
/// fixed constant (not wall-clock dependent) keeps the meter deterministic
/// on virtual time: the same exchange history always produces the same
/// estimate, bit for bit.
const METER_ALPHA: f64 = 0.25;

/// Point-in-time view of one stream's [`IoMeter`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MeterSnapshot {
    /// EWMA goodput in payload bytes/second, over exchanges that carried
    /// payload (writes sent, read data received). `0.0` until the first
    /// payload-bearing exchange completes.
    pub goodput_bps: f64,
    /// EWMA exchange latency in seconds (every exchange, payload or not).
    pub latency_s: f64,
    /// Completed exchanges.
    pub exchanges: u64,
    /// Cumulative payload bytes acknowledged over this stream.
    pub payload_bytes: u64,
}

struct MeterInner {
    ewma_bps: f64,
    ewma_latency_s: f64,
    exchanges: u64,
    payload_bytes: u64,
}

/// Per-stream goodput telemetry, sampled on virtual time at exchange
/// completion. One meter per [`Transport`]; the adaptive stripe scheduler
/// reads them per stream.
///
/// Recording is passive — it never sleeps, locks the runtime, or otherwise
/// perturbs virtual timing — so metered and unmetered runs are bit-identical.
pub struct IoMeter {
    inner: Mutex<MeterInner>,
}

impl IoMeter {
    fn new() -> Arc<IoMeter> {
        Arc::new(IoMeter {
            inner: Mutex::new(MeterInner {
                ewma_bps: 0.0,
                ewma_latency_s: 0.0,
                exchanges: 0,
                payload_bytes: 0,
            }),
        })
    }

    /// Record one completed exchange: `bytes` of payload acknowledged over
    /// `elapsed_s` of virtual time. Non-payload exchanges (`bytes == 0`)
    /// update only the latency estimate, so control traffic (open, stat,
    /// close) does not drag the goodput estimate toward zero.
    fn complete(&self, bytes: u64, elapsed_s: f64) {
        let mut g = self.inner.lock();
        g.exchanges += 1;
        g.payload_bytes += bytes;
        if elapsed_s > 0.0 {
            let first = g.exchanges == 1;
            g.ewma_latency_s = if first {
                elapsed_s
            } else {
                METER_ALPHA * elapsed_s + (1.0 - METER_ALPHA) * g.ewma_latency_s
            };
            if bytes > 0 {
                let rate = bytes as f64 / elapsed_s;
                g.ewma_bps = if g.ewma_bps == 0.0 {
                    rate
                } else {
                    METER_ALPHA * rate + (1.0 - METER_ALPHA) * g.ewma_bps
                };
            }
        }
    }

    /// Current estimates.
    pub fn snapshot(&self) -> MeterSnapshot {
        let g = self.inner.lock();
        MeterSnapshot {
            goodput_bps: g.ewma_bps,
            latency_s: g.ewma_latency_s,
            exchanges: g.exchanges,
            payload_bytes: g.payload_bytes,
        }
    }
}

enum Mode {
    /// One exchange at a time; timing-identical to the pre-split client.
    Exclusive { lock: RtMutex<()> },
    /// Tagged exchanges share the stream; a demux task routes responses.
    Multiplexed(Arc<Mux>),
}

/// What the exchanges sharing one multiplexed stream share.
struct Mux {
    /// In-flight exchanges awaiting their tagged response, by `seq`: a
    /// stream's death fails them in the order they were issued.
    pending: Mutex<BTreeMap<u64, Pending>>,
    /// Bounds outstanding exchanges on this stream.
    inflight: Semaphore,
    /// Serializes frames onto the wire — one TCP stream sends bytes in
    /// order, so concurrent exchanges queue for the forward path. One
    /// permit: a lock its holder can keep across polls.
    send_lock: Semaphore,
    /// Set by the demux task when the stream dies.
    dead: AtomicBool,
    /// Queue feeding the lazily spawned [`Sender`] that charges forward
    /// transfers on behalf of async submits. `None` until the first
    /// [`Transport::submit_hinted`].
    sender: Mutex<Option<Channel<ReqFrame>>>,
    /// Spawns this stream's tasks, named `<label>/<n>`: the demux is 0.
    tasks: TaskExecutor,
}

impl Mux {
    /// Deliver `frame` — `None`: the stream died — to the exchange `entry`
    /// stood for.
    fn settle(&self, entry: Pending, frame: Option<RespFrame>) {
        match entry {
            Pending::Cell(cell) => cell.set(frame),
            Pending::Callback { cb, permit } => {
                if permit {
                    self.inflight.release();
                }
                cb(frame.map(|f| f.resp));
            }
        }
    }

    /// Fail the exchange tagged `seq`, unless it has been settled already.
    fn fail(&self, seq: u64) {
        let entry = self.pending.lock().remove(&seq);
        if let Some(entry) = entry {
            self.settle(entry, None);
        }
    }
}

/// Routes tagged responses to the exchange that issued them. A daemon,
/// because an idle shared stream must not keep the simulation alive. On
/// stream death it marks the transport dead *while holding the pending
/// lock* (so no exchange can register a cell afterwards) and then fails
/// every parked exchange.
struct Demux {
    resp_ch: Channel<RespFrame>,
    mux: Arc<Mux>,
}

impl Task for Demux {
    fn poll(&mut self, _cx: &mut TaskCtx<'_>) -> TaskStep {
        let mux = &self.mux;
        loop {
            let frame = match self.resp_ch.poll_recv() {
                Err(wait) => return wait,
                Ok(Err(Closed)) => break,
                Ok(Ok(frame)) => frame,
            };
            let entry = mux.pending.lock().remove(&frame.seq);
            if let Some(entry) = entry {
                mux.settle(entry, Some(frame));
            }
        }
        let orphans = {
            let mut g = mux.pending.lock();
            mux.dead.store(true, Ordering::SeqCst);
            std::mem::take(&mut *g)
        };
        for entry in orphans.into_values() {
            mux.settle(entry, None);
        }
        TaskStep::Done
    }
}

/// Where a [`Sender`] is blocked: each state is one blocking call of a
/// synchronous exchange's send half.
enum Sending {
    /// `jobs.recv()`.
    Idle,
    /// `inflight.acquire()`.
    Permit(ReqFrame),
    /// `send_lock.acquire()`.
    Lock(ReqFrame),
    /// The frame on its way over the forward path.
    Wire(ReqFrame, Message),
}

/// Serializes async submits onto the wire in submission order, charging
/// each forward transfer; the inflight permit it takes for a submit is the
/// exchange's from the send until it is settled. A dead stream gets no more
/// bytes: a frame dequeued after the cut is failed on the spot, and one the
/// cut caught queueing for the permit or the lock is dropped there.
struct Sender {
    transport: Arc<Transport>,
    jobs: Channel<ReqFrame>,
    state: Sending,
}

impl Task for Sender {
    fn poll(&mut self, cx: &mut TaskCtx<'_>) -> TaskStep {
        let t = &self.transport;
        let Mode::Multiplexed(mux) = &t.mode else {
            unreachable!("sender on a non-multiplexed transport");
        };
        // A permit is ours only if the wait for it ended in a signal.
        let granted = cx.wake == Some(Wake::Signaled);
        loop {
            self.state = match std::mem::replace(&mut self.state, Sending::Idle) {
                Sending::Idle => match self.jobs.poll_recv() {
                    Err(wait) => return wait,
                    Ok(Err(Closed)) => return TaskStep::Done,
                    Ok(Ok(frame)) if !t.is_alive() => {
                        mux.fail(frame.seq);
                        Sending::Idle
                    }
                    Ok(Ok(frame)) => {
                        self.state = Sending::Permit(frame);
                        return mux.inflight.acquire_step();
                    }
                },
                Sending::Permit(frame) if !granted => {
                    self.state = Sending::Permit(frame);
                    return mux.inflight.acquire_step();
                }
                Sending::Permit(frame) => {
                    self.state = Sending::Lock(frame);
                    return mux.send_lock.acquire_step();
                }
                Sending::Lock(frame) if !granted => {
                    self.state = Sending::Lock(frame);
                    return mux.send_lock.acquire_step();
                }
                Sending::Lock(frame) => {
                    let claimed = match mux.pending.lock().get_mut(&frame.seq) {
                        Some(Pending::Callback { permit, .. }) if t.is_alive() => {
                            *permit = true;
                            true
                        }
                        _ => false,
                    };
                    if claimed {
                        let msg = Message::new(frame.wire_size());
                        Sending::Wire(frame, msg)
                    } else {
                        mux.send_lock.release();
                        mux.inflight.release();
                        mux.fail(frame.seq);
                        Sending::Idle
                    }
                }
                Sending::Wire(frame, mut msg) => {
                    if let Some(step) = t.net.poll_message(&mut msg, &t.fwd, &t.fwd_opts) {
                        self.state = Sending::Wire(frame, msg);
                        return step;
                    }
                    let seq = frame.seq;
                    let sent = t.req_ch.send(frame).is_ok();
                    mux.send_lock.release();
                    if !sent {
                        mux.fail(seq);
                    }
                    Sending::Idle
                }
            };
        }
    }
}

/// A physical stream to the server: the forward link path plus the
/// request/response channel pair registered with the server's handler.
pub struct Transport {
    rt: Arc<dyn Runtime>,
    net: Arc<Network>,
    fwd: Vec<LinkId>,
    fwd_opts: XferOpts,
    req_ch: Channel<ReqFrame>,
    resp_ch: Channel<RespFrame>,
    next_seq: AtomicU64,
    next_session: AtomicU64,
    mode: Mode,
    meter: Arc<IoMeter>,
}

impl Transport {
    /// An exclusive (one-session) transport — the pre-refactor connection.
    pub(crate) fn exclusive(
        rt: Arc<dyn Runtime>,
        net: Arc<Network>,
        fwd: Vec<LinkId>,
        fwd_opts: XferOpts,
        chans: (Channel<ReqFrame>, Channel<RespFrame>),
    ) -> Arc<Transport> {
        let lock = RtMutex::new(&rt, ());
        Self::new(rt, net, fwd, fwd_opts, chans, Mode::Exclusive { lock })
    }

    /// A multiplexed transport carrying up to `max_inflight` concurrent
    /// exchanges. Spawns the demultiplexer, task 0 of executor `label`.
    pub(crate) fn multiplexed(
        rt: Arc<dyn Runtime>,
        net: Arc<Network>,
        fwd: Vec<LinkId>,
        fwd_opts: XferOpts,
        chans: (Channel<ReqFrame>, Channel<RespFrame>),
        label: &str,
        max_inflight: usize,
    ) -> Arc<Transport> {
        let mux = Arc::new(Mux {
            pending: Default::default(),
            inflight: Semaphore::new(&rt, max_inflight.max(1)),
            send_lock: Semaphore::new(&rt, 1),
            dead: AtomicBool::new(false),
            sender: Mutex::new(None),
            tasks: TaskExecutor::new(&rt, label),
        });
        mux.tasks.spawn_daemon(Box::new(Demux {
            resp_ch: chans.1.clone(),
            mux: mux.clone(),
        }));
        Self::new(rt, net, fwd, fwd_opts, chans, Mode::Multiplexed(mux))
    }

    fn new(
        rt: Arc<dyn Runtime>,
        net: Arc<Network>,
        fwd: Vec<LinkId>,
        fwd_opts: XferOpts,
        (req_ch, resp_ch): (Channel<ReqFrame>, Channel<RespFrame>),
        mode: Mode,
    ) -> Arc<Transport> {
        Arc::new(Transport {
            rt,
            net,
            fwd,
            fwd_opts,
            req_ch,
            resp_ch,
            next_seq: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            mode,
            meter: IoMeter::new(),
        })
    }

    /// Allocate the next session id on this transport. Exclusive transports
    /// call this exactly once (session 0).
    pub fn open_session(&self) -> SessionId {
        SessionId(self.next_session.fetch_add(1, Ordering::Relaxed))
    }

    /// One tagged request/response exchange on behalf of `session`. Charges
    /// the forward transfer to the caller; the server handler charges
    /// processing, disk, and the response transfer before replying. Fails
    /// with [`Closed`] when the stream is severed.
    pub fn exchange(&self, session: SessionId, req: Request) -> Result<Response, Closed> {
        self.exchange_hinted(session, TenantId::default(), 0, req, None)
    }

    /// Like [`Transport::exchange`], but meters at most `useful` payload
    /// bytes when the hint is given. Sieved transfers use this so the
    /// covering extent's slack — bytes fetched or written only to bridge
    /// holes — never inflates the goodput estimate: the meter sees the
    /// application's bytes, the wire still carries the whole transfer.
    pub(crate) fn exchange_hinted(
        &self,
        session: SessionId,
        tenant: TenantId,
        epoch: u64,
        req: Request,
        useful: Option<u64>,
    ) -> Result<Response, Closed> {
        self.exchange_granted(session, tenant, epoch, req, useful)
            .map(|(resp, _)| resp)
    }

    /// Like [`Transport::exchange_hinted`], but also surfaces the response
    /// frame's lease grant (the header field the server stamps on reads).
    /// Clients that cache lease-granted reads call this; everything else
    /// goes through [`Transport::exchange_hinted`] and drops the grant.
    pub(crate) fn exchange_granted(
        &self,
        session: SessionId,
        tenant: TenantId,
        epoch: u64,
        req: Request,
        useful: Option<u64>,
    ) -> Result<(Response, Option<u64>), Closed> {
        let t0 = self.rt.now();
        let r = match &self.mode {
            Mode::Exclusive { lock } => {
                let _g = lock.lock();
                let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                let frame = ReqFrame {
                    seq,
                    session,
                    tenant,
                    epoch,
                    req,
                };
                let send = || -> Result<(Response, Option<u64>), Closed> {
                    self.net
                        .send_message_opts(&self.fwd, frame.wire_size(), &self.fwd_opts);
                    self.req_ch.send(frame).map_err(|_| Closed)?;
                    let resp = self.resp_ch.recv().map_err(|_| Closed)?;
                    debug_assert_eq!(resp.seq, seq, "exclusive stream reordered a response");
                    Ok((resp.resp, resp.lease))
                };
                send()
            }
            Mode::Multiplexed(mux) => {
                mux.inflight.acquire();
                let frame = ReqFrame {
                    seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
                    session,
                    tenant,
                    epoch,
                    req,
                };
                let r = self.exchange_mux(mux, frame);
                mux.inflight.release();
                r.map(|frame| (frame.resp, frame.lease))
            }
        };
        if let Ok((resp, _)) = &r {
            // Payload bytes the exchange actually moved: data received
            // for reads, bytes the server acknowledged for writes.
            let actual = match resp {
                Response::Data(p) => p.len(),
                Response::Written(n) => *n,
                _ => 0,
            };
            let bytes = useful.map_or(actual, |u| u.min(actual));
            self.meter
                .complete(bytes, (self.rt.now() - t0).as_secs_f64());
        }
        r
    }

    fn exchange_mux(&self, mux: &Mux, frame: ReqFrame) -> Result<RespFrame, Closed> {
        let seq = frame.seq;
        let cell: RespCell = OnceCellBlocking::new(&self.rt);
        {
            // Registering under the pending lock pairs with the demux
            // task's dead-marking under the same lock: either the demux
            // sees this cell when it drains, or we see `dead` here.
            let mut g = mux.pending.lock();
            if mux.dead.load(Ordering::SeqCst) {
                return Err(Closed);
            }
            g.insert(seq, Pending::Cell(cell.clone()));
        }
        mux.send_lock.acquire();
        self.net
            .send_message_opts(&self.fwd, frame.wire_size(), &self.fwd_opts);
        let sent = self.req_ch.send(frame).is_ok();
        mux.send_lock.release();
        if !sent {
            mux.pending.lock().remove(&seq);
            return Err(Closed);
        }
        cell.wait().ok_or(Closed)
    }

    /// Submit one exchange **without blocking the caller**: the request is
    /// handed to this stream's [`Sender`] (which queues for the inflight
    /// budget and charges the forward transfer on the caller's behalf) and
    /// `cb` runs when the tagged response arrives — or with `None` if the
    /// stream dies first. Only multiplexed transports support this; the
    /// exclusive mode's whole point is its serialized blocking timing.
    ///
    /// This is the client half of the paper's asynchronous primitives at
    /// transport granularity: an event-driven session issues `submit` and
    /// parks its state machine, and the completion wakes it — no thread
    /// pinned per outstanding operation.
    pub(crate) fn submit_hinted(
        self: &Arc<Self>,
        session: SessionId,
        tenant: TenantId,
        epoch: u64,
        req: Request,
        useful: Option<u64>,
        cb: SubmitCallback,
    ) {
        let Mode::Multiplexed(mux) = &self.mode else {
            panic!("async submit requires a multiplexed transport");
        };
        let t0 = self.rt.now();
        // Wrap the completion with meter accounting, mirroring
        // `exchange_hinted`'s bookkeeping (payload bytes capped by the
        // `useful` hint; elapsed time spans submit → response).
        let meter = self.meter.clone();
        let rt = self.rt.clone();
        let cb: SubmitCallback = Box::new(move |resp: Option<Response>| {
            if let Some(r) = &resp {
                let actual = match r {
                    Response::Data(p) => p.len(),
                    Response::Written(n) => *n,
                    _ => 0,
                };
                let bytes = useful.map_or(actual, |u| u.min(actual));
                meter.complete(bytes, (rt.now() - t0).as_secs_f64());
            }
            cb(resp);
        });
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut g = mux.pending.lock();
            if mux.dead.load(Ordering::SeqCst) {
                drop(g);
                cb(None);
                return;
            }
            g.insert(seq, Pending::Callback { cb, permit: false });
        }
        let frame = ReqFrame {
            seq,
            session,
            tenant,
            epoch,
            req,
        };
        let jobs = {
            let mut g = mux.sender.lock();
            g.get_or_insert_with(|| {
                let jobs: Channel<ReqFrame> = Channel::new(&self.rt);
                mux.tasks.spawn_daemon(Box::new(Sender {
                    transport: self.clone(),
                    jobs: jobs.clone(),
                    state: Sending::Idle,
                }));
                jobs
            })
            .clone()
        };
        if jobs.send(frame).is_err() {
            // Sender shut down (stream severed): fail through the pending
            // map so the demux drain / this path never double-fires.
            mux.fail(seq);
        }
    }

    /// This stream's goodput telemetry. The meter is owned by the transport
    /// (it dies with the stream); per-stream weights are the stripe
    /// scheduler's job.
    pub fn meter(&self) -> &Arc<IoMeter> {
        &self.meter
    }

    /// True while the stream can still carry exchanges. Checks the channel
    /// itself as well as the demux task's flag, so a sever is visible to
    /// the pool immediately — not only after the demux has been polled.
    pub fn is_alive(&self) -> bool {
        if self.req_ch.is_closed() || self.resp_ch.is_closed() {
            return false;
        }
        match &self.mode {
            Mode::Exclusive { .. } => true,
            Mode::Multiplexed(mux) => !mux.dead.load(Ordering::SeqCst),
        }
    }

    /// Sever the stream from the client side (both channel directions).
    pub fn close(&self) {
        self.req_ch.close();
        self.resp_ch.close();
    }

    /// The runtime this transport charges time against.
    pub fn runtime(&self) -> &Arc<dyn Runtime> {
        &self.rt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::setup_net;
    use crate::types::{OpenFlags, Payload};
    use semplar_runtime::{simulate, spawn, Dur};

    const MB: u64 = 1_000_000;

    /// `sem` holds exactly `n` permits: `n` acquires succeed at once and
    /// one more blocks until a release.
    fn assert_permits(rt: &Arc<dyn Runtime>, sem: &Semaphore, n: usize, what: &str) {
        let t0 = rt.now();
        (0..n).for_each(|_| sem.acquire()); // short of `n`, a deadlock panic
        let extra = Arc::new(AtomicBool::new(false));
        let (sem2, extra2) = (sem.clone(), extra.clone());
        let h = spawn(rt, "one-more", move || {
            sem2.acquire();
            extra2.store(true, Ordering::SeqCst);
        });
        rt.sleep(Dur::from_millis(1));
        assert!(!extra.load(Ordering::SeqCst), "{what}: more than {n}");
        (0..=n).for_each(|_| sem.release());
        h.join_unwrap();
        assert_eq!(
            rt.now() - t0,
            Dur::from_millis(1),
            "{what}: an acquire waited"
        );
    }

    /// How each async write ended, in completion order: `(index, acked)`.
    type Log = Arc<Mutex<Vec<(u64, bool)>>>;

    /// Submit a sized 1 MB write at `i` MB; its completion logs `i`.
    fn submit_write(t: &Arc<Transport>, fd: u32, i: u64, log: &Log) {
        let req = Request::Write {
            fd,
            offset: i * MB,
            payload: Payload::sized(MB),
        };
        let log = log.clone();
        let cb = Box::new(move |r: Option<Response>| log.lock().push((i, r.is_some())));
        t.submit_hinted(SessionId(0), TenantId::default(), 0, req, None, cb);
    }

    /// One multiplexed stream `max_inflight` deep with `/f` open on it.
    fn stream(
        rt: &Arc<dyn Runtime>,
        max_inflight: usize,
    ) -> (Arc<Network>, Arc<crate::SrbServer>, Arc<Transport>, u32) {
        let (net, server, route) = setup_net(rt);
        let t = server
            .connect_transport(route, "alin", "pw", max_inflight)
            .unwrap();
        let open = Request::Open("/f".into(), OpenFlags::CreateRw);
        let Ok(Response::Fd(fd)) = t.exchange(t.open_session(), open) else {
            panic!("open failed");
        };
        (net, server, t, fd)
    }

    #[test]
    fn a_dead_stream_gets_no_more_bytes_and_fails_its_submits_in_seq_order() {
        simulate(|rt| {
            let (net, server, t, fd) = stream(&rt, 8);
            let up = t.fwd[0];
            let log = Log::default();
            let before = net.link_bits_moved(up);
            (0..4).for_each(|i| submit_write(&t, fd, i, &log));
            // 10 ms of latency, then 80 ms of wire per frame: the cut finds
            // the first frame half sent and three queued behind it.
            rt.sleep(Dur::from_millis(50));
            let cut = rt.now();
            assert_eq!(server.reset_all_connections(), 1);
            rt.sleep(Dur::from_millis(1));
            // Every completion has fired, once, failed, in issue order, at
            // the instant of the cut.
            assert_eq!(*log.lock(), [0, 1, 2, 3].map(|i| (i, false)));
            assert_eq!(rt.now() - cut, Dur::from_millis(1));
            rt.sleep(Dur::from_secs(1));
            assert_eq!(log.lock().len(), 4, "a completion fired twice");
            // The frame on the wire at the cut ran out; nothing followed it.
            let moved = net.link_bits_moved(up) - before;
            let frame = 8.0 * MB as f64;
            assert!((frame..frame + 1e4).contains(&moved), "{moved} bits");
            assert!(!t.is_alive());
        });
    }

    #[test]
    fn permits_are_conserved_whichever_state_the_cut_finds_the_sender_in() {
        // (what the sender is blocked in at the cut, inflight depth, async
        // submits, a synchronous 1 MB exchange holding the send lock, when)
        for (state, depth, submits, sync_holder, cut_ms) in [
            ("wire", 8, 4, false, 50),
            ("permit", 1, 2, false, 95),
            ("lock", 8, 2, true, 50),
        ] {
            simulate(move |rt| {
                let (_, server, t, fd) = stream(&rt, depth);
                let log = Log::default();
                let holder = sync_holder.then(|| {
                    let t2 = t.clone();
                    spawn(&rt, "sync", move || {
                        let payload = Payload::sized(MB);
                        let req = Request::Write {
                            fd,
                            offset: 9 * MB,
                            payload,
                        };
                        assert!(t2.exchange(SessionId(0), req).is_err());
                    })
                });
                rt.sleep(Dur::from_millis(1)); // the holder has the lock
                (0..submits).for_each(|i| submit_write(&t, fd, i, &log));
                rt.sleep(Dur::from_millis(cut_ms));
                assert_eq!(server.reset_all_connections(), 1);
                rt.sleep(Dur::from_secs(1));
                holder.into_iter().for_each(|h| h.join_unwrap());
                let want: Vec<_> = (0..submits).map(|i| (i, false)).collect();
                assert_eq!(*log.lock(), want, "{state}");
                let Mode::Multiplexed(mux) = &t.mode else {
                    unreachable!()
                };
                assert!(mux.pending.lock().is_empty(), "{state}");
                assert_permits(&rt, &mux.inflight, depth, state);
                assert_permits(&rt, &mux.send_lock, 1, state);
            });
        }
    }
}
