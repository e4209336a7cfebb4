//! The transport layer: one physical stream carrying tagged exchanges.
//!
//! A [`Transport`] is a TCP stream to the server: the forward link path, the
//! request/response channel pair registered with the server's handler, and
//! the map of exchanges awaiting their response. Every exchange takes a
//! stream-unique `seq` tag and goes through `Transport::submit`, which
//! registers its completion and queues its frame; nothing else puts a frame
//! on the wire. A blocking exchange is a `submit` whose completion fills a
//! cell, followed by a wait on that cell — the paper's blocking call is its
//! asynchronous primitive plus `MPIO_Wait`.
//!
//! Streams differ only in depth and owner. `max_inflight` bounds the
//! exchanges outstanding at once: 1 for the stream a
//! [`SrbServer::connect`](crate::SrbServer::connect) session owns (one
//! stream per open, one exchange at a time — the paper's client), more for a
//! [`ConnPool`](crate::ConnPool) slot whose sessions share it.
//!
//! A stream's two helpers only ever wait, so they are [`Task`]s, not
//! threads, spawned with the stream under its label. The `Sender` (task 1)
//! takes frames off the job queue in submission order and, for each, waits
//! for an inflight permit and then drives the frame over the forward path:
//! one TCP stream sends its bytes in order, and one sender sends one frame
//! at a time. The `Demux` (task 0) waits on the response channel and settles
//! the pending exchange each response's `seq` names. When the stream is
//! severed the demux marks it dead under the pending lock, closes the job
//! queue and fails every pending exchange in `seq` order, at that instant:
//! a frame already on the wire runs out, nothing follows it, and both tasks
//! finish.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use semplar_netsim::net::{Message, XferOpts};
use semplar_netsim::{LinkId, Network};
use semplar_runtime::sync::{Channel, Closed, Semaphore};
use semplar_runtime::{Runtime, Task, TaskCtx, TaskExecutor, TaskStep, Time, Wake};

use crate::proto::{ReqFrame, Request, RespFrame, Response, SessionId, TenantId};

/// Completion of one exchange: its tagged response frame, or `None` if the
/// stream died first. Runs inside the demultiplexer's poll (or, on a dead
/// stream, inside `submit`): it must not block through the runtime — store
/// the result and wake whoever waits for it.
pub(crate) type Completion = Box<dyn FnOnce(Option<RespFrame>) + Send>;

/// One exchange awaiting its tagged response, from `submit` until whoever
/// settles it.
struct Pending {
    complete: Completion,
    /// Set once the [`Sender`] has taken an inflight permit for this
    /// exchange: whoever settles the entry gives the permit back.
    permit: bool,
    /// When it was submitted, and the cap on the payload bytes the meter
    /// may count for it.
    t0: Time,
    useful: Option<u64>,
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

/// Routes tagged responses to the exchange that issued them. A daemon,
/// because an idle stream must not keep the simulation alive. On stream
/// death it marks the transport dead *while holding the pending lock* (so no
/// exchange can register afterwards), closes the job queue (so the sender
/// finishes too) and then fails every pending exchange.
struct Demux(Arc<Transport>);

impl Task for Demux {
    fn poll(&mut self, _cx: &mut TaskCtx<'_>) -> TaskStep {
        let t = &self.0;
        loop {
            let frame = match t.resp_ch.poll_recv() {
                Err(wait) => return wait,
                Ok(Err(Closed)) => break,
                Ok(Ok(frame)) => frame,
            };
            let entry = t.pending.lock().remove(&frame.seq);
            if let Some(entry) = entry {
                t.settle(entry, Some(frame));
            }
        }
        let orphans = {
            let mut g = t.pending.lock();
            t.dead.store(true, Ordering::SeqCst);
            std::mem::take(&mut *g)
        };
        t.jobs.close();
        for entry in orphans.into_values() {
            t.settle(entry, None);
        }
        TaskStep::Done
    }
}

/// Where a [`Sender`] is blocked.
enum Sending {
    /// On the job queue.
    Idle,
    /// On the inflight semaphore, for this frame's permit.
    Permit(ReqFrame),
    /// The frame on its way over the forward path.
    Wire(ReqFrame, Message),
}

/// Puts the stream's frames on the wire, one at a time in submission order,
/// charging each forward transfer; the inflight permit it takes for a frame
/// is the exchange's from the send until it is settled. A dead stream gets
/// no more bytes: a frame dequeued after the cut is failed on the spot, and
/// one the cut caught waiting for its permit is dropped there. Finishes
/// when the job queue is closed and drained.
struct Sender {
    transport: Arc<Transport>,
    state: Sending,
}

impl Task for Sender {
    fn poll(&mut self, cx: &mut TaskCtx<'_>) -> TaskStep {
        let t = &self.transport;
        // A permit is ours only if the wait for it ended in a signal.
        let granted = cx.wake == Some(Wake::Signaled);
        loop {
            self.state = match std::mem::replace(&mut self.state, Sending::Idle) {
                Sending::Idle => match t.jobs.poll_recv() {
                    Err(wait) => return wait,
                    Ok(Err(Closed)) => return TaskStep::Done,
                    Ok(Ok(frame)) if !t.is_alive() => {
                        t.fail(frame.seq);
                        Sending::Idle
                    }
                    Ok(Ok(frame)) => {
                        self.state = Sending::Permit(frame);
                        return t.inflight.acquire_step();
                    }
                },
                Sending::Permit(frame) if !granted => {
                    self.state = Sending::Permit(frame);
                    return t.inflight.acquire_step();
                }
                Sending::Permit(frame) => {
                    let claimed = match t.pending.lock().get_mut(&frame.seq) {
                        Some(entry) if t.is_alive() => {
                            entry.permit = true;
                            true
                        }
                        _ => false,
                    };
                    if claimed {
                        let msg = Message::new(frame.wire_size());
                        Sending::Wire(frame, msg)
                    } else {
                        t.inflight.release();
                        t.fail(frame.seq);
                        Sending::Idle
                    }
                }
                Sending::Wire(frame, mut msg) => {
                    if let Some(step) = t.net.poll_message(&mut msg, &t.fwd, &t.fwd_opts) {
                        self.state = Sending::Wire(frame, msg);
                        return step;
                    }
                    let seq = frame.seq;
                    if t.req_ch.send(frame).is_err() {
                        t.fail(seq);
                    }
                    Sending::Idle
                }
            };
        }
    }
}

/// A physical stream to the server: the forward link path, the
/// request/response channel pair registered with the server's handler, and
/// what the exchanges sharing the stream share.
pub struct Transport {
    rt: Arc<dyn Runtime>,
    net: Arc<Network>,
    fwd: Vec<LinkId>,
    fwd_opts: XferOpts,
    req_ch: Channel<ReqFrame>,
    resp_ch: Channel<RespFrame>,
    next_seq: AtomicU64,
    next_session: AtomicU64,
    /// Exchanges awaiting their tagged response, by `seq`: a stream's death
    /// fails them in the order they were issued.
    pending: Mutex<BTreeMap<u64, Pending>>,
    /// Bounds outstanding exchanges on this stream.
    inflight: Semaphore,
    /// Set by the demux task when the stream dies.
    dead: AtomicBool,
    /// Frames queued for the [`Sender`], in submission order.
    jobs: Channel<ReqFrame>,
    meter: Arc<IoMeter>,
}

impl Transport {
    /// A stream carrying up to `max_inflight` concurrent exchanges. Spawns
    /// its demultiplexer and its sender, tasks 0 and 1 of executor `label`.
    pub(crate) fn new(
        rt: Arc<dyn Runtime>,
        net: Arc<Network>,
        fwd: Vec<LinkId>,
        fwd_opts: XferOpts,
        (req_ch, resp_ch): (Channel<ReqFrame>, Channel<RespFrame>),
        label: &str,
        max_inflight: usize,
    ) -> Arc<Transport> {
        let tasks = TaskExecutor::new(&rt, label);
        let t = Arc::new(Transport {
            net,
            fwd,
            fwd_opts,
            req_ch,
            resp_ch,
            next_seq: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            pending: Default::default(),
            inflight: Semaphore::new(&rt, max_inflight.max(1)),
            dead: AtomicBool::new(false),
            jobs: Channel::new(&rt),
            meter: IoMeter::new(),
            rt,
        });
        tasks.spawn_daemon(Box::new(Demux(t.clone())));
        tasks.spawn_daemon(Box::new(Sender {
            transport: t.clone(),
            state: Sending::Idle,
        }));
        t
    }

    /// Allocate the next session id on this transport.
    pub fn open_session(&self) -> SessionId {
        SessionId(self.next_session.fetch_add(1, Ordering::Relaxed))
    }

    /// Deliver `frame` — `None`: the stream died — to the exchange `entry`
    /// stood for, returning its permit and metering a completed exchange.
    fn settle(&self, entry: Pending, frame: Option<RespFrame>) {
        if entry.permit {
            self.inflight.release();
        }
        if let Some(frame) = &frame {
            // Payload bytes the exchange actually moved: data received for
            // reads, bytes the server acknowledged for writes.
            let actual = match &frame.resp {
                Response::Data(p) => p.len(),
                Response::Written(n) => *n,
                _ => 0,
            };
            let bytes = entry.useful.map_or(actual, |u| u.min(actual));
            let elapsed = self.rt.now() - entry.t0;
            self.meter.complete(bytes, elapsed.as_secs_f64());
        }
        (entry.complete)(frame);
    }

    /// Fail the exchange tagged `seq`, unless it has been settled already.
    fn fail(&self, seq: u64) {
        let entry = self.pending.lock().remove(&seq);
        if let Some(entry) = entry {
            self.settle(entry, None);
        }
    }

    /// Submit one exchange on behalf of `session` **without blocking the
    /// caller**: the request is queued for this stream's [`Sender`] (which
    /// waits for the inflight budget and charges the forward transfer; the
    /// server handler charges processing, disk and the response transfer
    /// before replying) and `complete` runs when the tagged response arrives
    /// — or with `None` if the stream dies first, or is dead already.
    ///
    /// This is the paper's asynchronous primitive at transport granularity:
    /// [`SrbConn::submit`](crate::SrbConn::submit) makes `complete` fill a
    /// reply cell its caller waits on or polls — no thread pinned per
    /// outstanding operation.
    ///
    /// The meter counts at most `useful` payload bytes when the hint is
    /// given. Sieved transfers use this so the covering extent's slack —
    /// bytes moved only to bridge holes — never inflates the goodput
    /// estimate: the meter sees the application's bytes, the wire still
    /// carries the whole transfer.
    pub(crate) fn submit(
        &self,
        session: SessionId,
        tenant: TenantId,
        epoch: u64,
        req: Request,
        useful: Option<u64>,
        complete: Completion,
    ) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        {
            // Registering under the pending lock pairs with the demux
            // task's dead-marking under the same lock: either the demux
            // sees this entry when it drains, or we see `dead` here.
            let mut g = self.pending.lock();
            if self.dead.load(Ordering::SeqCst) {
                drop(g);
                complete(None);
                return;
            }
            let entry = Pending {
                complete,
                permit: false,
                t0: self.rt.now(),
                useful,
            };
            g.insert(seq, entry);
        }
        let frame = ReqFrame {
            seq,
            session,
            tenant,
            epoch,
            req,
        };
        if self.jobs.send(frame).is_err() {
            self.fail(seq);
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
        !(self.req_ch.is_closed() || self.resp_ch.is_closed() || self.dead.load(Ordering::SeqCst))
    }

    /// Sever the stream from the client side: both channel directions, and
    /// the job queue.
    pub fn close(&self) {
        self.req_ch.close();
        self.resp_ch.close();
        self.jobs.close();
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
    use semplar_runtime::sync::OnceCellBlocking;
    use semplar_runtime::{simulate, spawn, Dur, SimRuntime};

    const MB: u64 = 1_000_000;

    impl Transport {
        /// One blocking exchange of an untagged, un-epoched request: a
        /// `submit`, then a wait for its completion. Fails with [`Closed`]
        /// when the stream is severed.
        fn exchange(&self, session: SessionId, req: Request) -> Result<Response, Closed> {
            let cell = OnceCellBlocking::new(&self.rt);
            let done = cell.clone();
            let complete = Box::new(move |frame: Option<RespFrame>| done.set(frame));
            self.submit(session, TenantId::default(), 0, req, None, complete);
            cell.wait().map(|frame| frame.resp).ok_or(Closed)
        }
    }

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

    /// How each 1 MB write ended, in completion order: `(index, acked)`.
    type Log = Arc<Mutex<Vec<(u64, bool)>>>;

    /// A sized 1 MB write at `i` MB.
    fn write_req(fd: u32, i: u64) -> Request {
        Request::Write {
            fd,
            offset: i * MB,
            payload: Payload::sized(MB),
        }
    }

    /// Submit write `i`; its completion logs it.
    fn submit_write(t: &Arc<Transport>, fd: u32, i: u64, log: &Log) {
        let log = log.clone();
        let complete = Box::new(move |r: Option<RespFrame>| log.lock().push((i, r.is_some())));
        let tenant = TenantId::default();
        t.submit(SessionId(0), tenant, 0, write_req(fd, i), None, complete);
    }

    /// Issue write `i` as a thread's blocking exchange, which logs it on
    /// return; the exchange is cut, and returns `after` the thread started.
    fn spawn_blocking_write(t: &Arc<Transport>, fd: u32, i: u64, log: &Log, after: Dur) {
        let (t, log, rt) = (t.clone(), log.clone(), t.rt.clone());
        let t0 = rt.now();
        spawn(&rt.clone(), "blocking", move || {
            let r = t.exchange(SessionId(0), write_req(fd, i));
            log.lock().push((i, r.is_ok()));
            assert_eq!(
                rt.now() - t0,
                after,
                "the waiter was not released at the cut"
            );
        });
    }

    /// One stream `max_inflight` deep with `/f` open on it.
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
        // The first of four writes is a submit, or a thread's blocking
        // exchange (woken by its completion, so it logs after the rest).
        for (blocking, order) in [(false, [0, 1, 2, 3]), (true, [1, 2, 3, 0])] {
            simulate(move |rt| {
                let (net, server, t, fd) = stream(&rt, 8);
                let up = t.fwd[0];
                let log = Log::default();
                let before = net.link_bits_moved(up);
                if blocking {
                    spawn_blocking_write(&t, fd, 0, &log, Dur::from_millis(50));
                } else {
                    submit_write(&t, fd, 0, &log);
                }
                rt.sleep(Dur::from_millis(1));
                (1..4).for_each(|i| submit_write(&t, fd, i, &log));
                // 10 ms of latency, then 80 ms of wire per frame: the cut
                // finds the first frame half sent and three queued behind it.
                rt.sleep(Dur::from_millis(49));
                let cut = rt.now();
                assert_eq!(server.reset_all_connections(), 1);
                rt.sleep(Dur::from_millis(1));
                // Every completion has fired, once, failed, in issue order,
                // at the instant of the cut.
                assert_eq!(*log.lock(), order.map(|i| (i, false)));
                assert_eq!(rt.now() - cut, Dur::from_millis(1));
                rt.sleep(Dur::from_secs(1));
                assert_eq!(log.lock().len(), 4, "a completion fired twice");
                // The frame on the wire at the cut ran out; nothing followed
                // it — nor does a blocking exchange on the dead stream, which
                // returns at once.
                let now = rt.now();
                assert!(t.exchange(SessionId(0), write_req(fd, 4)).is_err());
                assert_eq!(rt.now(), now);
                let moved = net.link_bits_moved(up) - before;
                let frame = 8.0 * MB as f64;
                assert!((frame..frame + 1e4).contains(&moved), "{moved} bits");
                assert!(!t.is_alive());
            });
        }
    }

    #[test]
    fn permits_are_conserved_whichever_state_the_cut_finds_the_sender_in() {
        // (what the sender is blocked in at the cut, inflight depth, async
        // submits, a blocking 1 MB exchange issued between the first two,
        // when)
        for (state, depth, submits, blocking, cut_ms) in [
            ("wire", 8, 4, false, 50),
            ("permit", 1, 2, false, 95),
            ("permit, for a blocked thread", 1, 2, true, 95),
        ] {
            let sim = SimRuntime::new();
            sim.run_root(move |rt| {
                let (_, server, t, fd) = stream(&rt, depth);
                let log = Log::default();
                submit_write(&t, fd, 0, &log);
                if blocking {
                    let after = Dur::from_millis(1 + cut_ms);
                    spawn_blocking_write(&t, fd, 9, &log, after);
                }
                rt.sleep(Dur::from_millis(1)); // the thread has submitted
                (1..submits).for_each(|i| submit_write(&t, fd, i, &log));
                rt.sleep(Dur::from_millis(cut_ms));
                assert_eq!(server.reset_all_connections(), 1);
                rt.sleep(Dur::from_secs(1));
                let mut want: Vec<_> = (0..submits).map(|i| (i, false)).collect();
                want.extend(blocking.then_some((9, false)));
                assert_eq!(*log.lock(), want, "{state}");
                assert!(t.pending.lock().is_empty(), "{state}");
                assert_permits(&rt, &t.inflight, depth, state);
                // The dead stream's handler, demux and sender are gone: a
                // second stream's three take their places.
                stream(&rt, depth);
            });
            assert_eq!(sim.stats().peak_live_tasks, 3, "{state}");
        }
    }
}
