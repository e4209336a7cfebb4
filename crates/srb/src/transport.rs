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
//!   parks on a per-exchange cell; a demultiplexer daemon routes tagged
//!   responses back to their issuers. An `inflight` semaphore bounds
//!   outstanding exchanges per stream, and the FIFO-ish wakeup order of the
//!   runtime semaphore gives fair tag scheduling across sessions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use semplar_netsim::net::XferOpts;
use semplar_netsim::{LinkId, Network};
use semplar_runtime::sync::{Channel, Closed, OnceCellBlocking, RtMutex, Semaphore};
use semplar_runtime::Runtime;

use crate::proto::{ReqFrame, Request, RespFrame, Response, SessionId, TenantId};

type RespCell = Arc<OnceCellBlocking<Option<RespFrame>>>;

/// Completion to run when an async submit's tagged response arrives (or the
/// stream dies, delivering `None`). Runs on the demux daemon: it must not
/// block through the runtime — store the result and wake a task.
pub type SubmitCallback = Box<dyn FnOnce(Option<Response>) + Send>;

/// One in-flight exchange awaiting its tagged response: a parked thread's
/// cell (synchronous [`Transport::exchange`]) or an event-driven submit's
/// completion callback.
enum Pending {
    Cell(RespCell),
    Callback(SubmitCallback),
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
    /// Tagged exchanges share the stream; a demux daemon routes responses.
    Multiplexed {
        /// In-flight exchanges awaiting their tagged response.
        pending: Arc<Mutex<HashMap<u64, Pending>>>,
        /// Bounds outstanding exchanges on this stream.
        inflight: Semaphore,
        /// Serializes frames onto the wire — one TCP stream sends bytes in
        /// order, so concurrent exchanges queue for the forward path.
        send_lock: RtMutex<()>,
        /// Set by the demux daemon when the stream dies.
        dead: Arc<AtomicBool>,
        /// Queue feeding the lazily spawned sender daemon that charges
        /// forward transfers on behalf of async submits. `None` until the
        /// first [`Transport::submit_hinted`]; purely synchronous
        /// transports never pay for the extra daemon.
        sender: Mutex<Option<Channel<ReqFrame>>>,
    },
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
    /// Diagnostic label (the demux daemon's name); names the sender daemon.
    label: String,
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
        let (req_ch, resp_ch) = chans;
        let lock = RtMutex::new(&rt, ());
        Arc::new(Transport {
            rt,
            net,
            fwd,
            fwd_opts,
            req_ch,
            resp_ch,
            next_seq: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            mode: Mode::Exclusive { lock },
            meter: IoMeter::new(),
            label: String::new(),
        })
    }

    /// A multiplexed transport carrying up to `max_inflight` concurrent
    /// exchanges. Spawns the demultiplexer daemon (named `label`).
    pub(crate) fn multiplexed(
        rt: Arc<dyn Runtime>,
        net: Arc<Network>,
        fwd: Vec<LinkId>,
        fwd_opts: XferOpts,
        chans: (Channel<ReqFrame>, Channel<RespFrame>),
        label: &str,
        max_inflight: usize,
    ) -> Arc<Transport> {
        let (req_ch, resp_ch) = chans;
        let pending: Arc<Mutex<HashMap<u64, Pending>>> = Arc::new(Mutex::new(Default::default()));
        let dead = Arc::new(AtomicBool::new(false));
        let inflight = Semaphore::new(&rt, max_inflight.max(1));
        let send_lock = RtMutex::new(&rt, ());

        // Demux daemon: routes tagged responses to the exchange that issued
        // them. A daemon because an idle shared stream must not keep the
        // simulation alive. On stream death it marks the transport dead
        // *while holding the pending lock* (so no exchange can register a
        // cell afterwards) and then fails every parked exchange.
        let demux_pending = pending.clone();
        let demux_dead = dead.clone();
        let demux_resp = resp_ch.clone();
        let demux_inflight = inflight.clone();
        rt.spawn_daemon(
            label,
            Box::new(move || {
                while let Ok(frame) = demux_resp.recv() {
                    let entry = demux_pending.lock().remove(&frame.seq);
                    match entry {
                        Some(Pending::Cell(cell)) => cell.set(Some(frame)),
                        Some(Pending::Callback(cb)) => {
                            // Async submits hold their inflight permit from
                            // the sender daemon's send to this completion.
                            demux_inflight.release();
                            cb(Some(frame.resp));
                        }
                        None => {}
                    }
                }
                let orphans: Vec<Pending> = {
                    let mut g = demux_pending.lock();
                    demux_dead.store(true, Ordering::SeqCst);
                    g.drain().map(|(_, c)| c).collect()
                };
                for entry in orphans {
                    match entry {
                        Pending::Cell(cell) => cell.set(None),
                        Pending::Callback(cb) => {
                            demux_inflight.release();
                            cb(None);
                        }
                    }
                }
            }),
        );

        Arc::new(Transport {
            rt,
            net,
            fwd,
            fwd_opts,
            req_ch,
            resp_ch,
            next_seq: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            mode: Mode::Multiplexed {
                pending,
                inflight,
                send_lock,
                dead,
                sender: Mutex::new(None),
            },
            meter: IoMeter::new(),
            label: label.to_string(),
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
            Mode::Multiplexed {
                pending,
                inflight,
                send_lock,
                dead,
                ..
            } => {
                inflight.acquire();
                let r = self.exchange_mux(pending, send_lock, dead, session, tenant, epoch, req);
                inflight.release();
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

    #[allow(clippy::too_many_arguments)]
    fn exchange_mux(
        &self,
        pending: &Mutex<HashMap<u64, Pending>>,
        send_lock: &RtMutex<()>,
        dead: &AtomicBool,
        session: SessionId,
        tenant: TenantId,
        epoch: u64,
        req: Request,
    ) -> Result<RespFrame, Closed> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let cell: RespCell = OnceCellBlocking::new(&self.rt);
        {
            // Registering under the pending lock pairs with the demux
            // daemon's dead-marking under the same lock: either the daemon
            // sees this cell when it drains, or we see `dead` here.
            let mut g = pending.lock();
            if dead.load(Ordering::SeqCst) {
                return Err(Closed);
            }
            g.insert(seq, Pending::Cell(cell.clone()));
        }
        let frame = ReqFrame {
            seq,
            session,
            tenant,
            epoch,
            req,
        };
        {
            let _g = send_lock.lock();
            self.net
                .send_message_opts(&self.fwd, frame.wire_size(), &self.fwd_opts);
            if self.req_ch.send(frame).is_err() {
                pending.lock().remove(&seq);
                return Err(Closed);
            }
        }
        match cell.wait() {
            Some(resp) => Ok(resp),
            None => Err(Closed),
        }
    }

    /// Submit one exchange **without blocking the caller**: the request is
    /// handed to this stream's sender daemon (which queues for the inflight
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
        let Mode::Multiplexed {
            pending,
            dead,
            sender,
            ..
        } = &self.mode
        else {
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
            let mut g = pending.lock();
            if dead.load(Ordering::SeqCst) {
                drop(g);
                cb(None);
                return;
            }
            g.insert(seq, Pending::Callback(cb));
        }
        let frame = ReqFrame {
            seq,
            session,
            tenant,
            epoch,
            req,
        };
        let jobs = {
            let mut g = sender.lock();
            match &*g {
                Some(ch) => ch.clone(),
                None => {
                    let ch: Channel<ReqFrame> = Channel::new(&self.rt);
                    *g = Some(ch.clone());
                    self.spawn_sender(ch.clone());
                    ch
                }
            }
        };
        if jobs.send(frame).is_err() {
            // Sender shut down (stream severed): fail through the pending
            // map so the demux drain / this path never double-fires.
            if let Some(Pending::Callback(cb)) = pending.lock().remove(&seq) {
                cb(None);
            }
        }
    }

    /// The sender daemon: serializes async submits onto the wire in
    /// submission order, charging each forward transfer and holding an
    /// inflight permit from send until the demux daemon sees the response.
    fn spawn_sender(self: &Arc<Self>, jobs: Channel<ReqFrame>) {
        let me = self.clone();
        let name = format!("{}/sender", self.label);
        self.rt.spawn_daemon(
            &name,
            Box::new(move || {
                let Mode::Multiplexed {
                    inflight,
                    send_lock,
                    pending,
                    ..
                } = &me.mode
                else {
                    unreachable!("sender daemon on a non-multiplexed transport");
                };
                while let Ok(frame) = jobs.recv() {
                    inflight.acquire();
                    let seq = frame.seq;
                    let sent = {
                        let _g = send_lock.lock();
                        me.net
                            .send_message_opts(&me.fwd, frame.wire_size(), &me.fwd_opts);
                        me.req_ch.send(frame).is_ok()
                    };
                    if !sent {
                        inflight.release();
                        if let Some(Pending::Callback(cb)) = pending.lock().remove(&seq) {
                            cb(None);
                        }
                    }
                }
            }),
        );
    }

    /// This stream's goodput telemetry. The meter is owned by the transport
    /// (it dies with the stream); per-stream weights are the stripe
    /// scheduler's job.
    pub fn meter(&self) -> &Arc<IoMeter> {
        &self.meter
    }

    /// True while the stream can still carry exchanges. Checks the channel
    /// itself as well as the demux daemon's flag, so a sever is visible to
    /// the pool immediately — not only after the daemon has been scheduled.
    pub fn is_alive(&self) -> bool {
        if self.req_ch.is_closed() || self.resp_ch.is_closed() {
            return false;
        }
        match &self.mode {
            Mode::Exclusive { .. } => true,
            Mode::Multiplexed { dead, .. } => !dead.load(Ordering::SeqCst),
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
