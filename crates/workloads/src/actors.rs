//! Event-driven client swarms: the 10⁵-client scale workload.
//!
//! The paper's SEMPLAR client is a thread per connection; a simulated
//! client only waits, so it need not hold a stack. This module drives the
//! paper's open → write/read-loop → close session as a task, an `async`
//! body: each request goes through [`SrbConn::submit`], the session awaits
//! the reply cell it hands back (filled by the stream's response
//! demultiplexer), and an idle session costs a few hundred bytes rather
//! than a thread stack, so one simulation hosts 10⁵ of them.
//!
//! Arrivals are open-loop and heavy-tailed ([`heavy_tailed_arrivals`]):
//! an exponential body with a bounded Pareto tail, the burst-and-lull
//! shape of real multi-user storage front ends, spread across a weighted
//! [`TenantMix`].

use std::future::Future;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use semplar_clusters::{Testbed, PASSWORD, USER};
use semplar_runtime::{task, Dur, Runtime, TaskExecutor};
use semplar_srb::proto::{Request, Response};
use semplar_srb::{ConnPool, OpenFlags, Payload, PoolPolicy, RetryPolicy, SrbConn, TenantId};

/// Open-loop, heavy-tailed arrival offsets for `n` clients, deterministic
/// from `seed`. Gaps are drawn from an exponential body (90 %) with a
/// bounded Pareto tail (10 %, α = 1.5, capped at 50× the nominal gap) —
/// mostly steady trickle, occasionally a long lull then a burst. Offsets
/// are strictly increasing (ties broken by at least 1 ns) so no two
/// clients share an arrival instant.
pub fn heavy_tailed_arrivals(seed: u64, n: usize, mean_gap: Dur) -> Vec<Dur> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_a221);
    let mean = (mean_gap.as_nanos() as f64).max(1.0);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            let u = u.clamp(1e-12, 1.0 - 1e-12);
            let gap = if rng.gen_bool(0.9) {
                // Exponential body around 0.6× the nominal gap.
                -(1.0 - u).ln() * mean * 0.6
            } else {
                // Pareto tail: x_m / u^(1/α), α = 1.5, capped at 50× mean.
                (mean * 0.6 / u.powf(1.0 / 1.5)).min(mean * 50.0)
            };
            t += gap.max(1.0);
            Dur::from_nanos(t as u64)
        })
        .collect()
}

/// A weighted tenant mix: client `i` is assigned a tenant by weighted
/// round-robin over the cumulative weights, so the assignment is a pure
/// function of the index (no RNG state shared with arrivals).
#[derive(Clone, Debug)]
pub struct TenantMix {
    weights: Vec<(TenantId, u32)>,
    total: u32,
}

impl TenantMix {
    /// A mix from `(tenant, weight)` pairs; weights are relative shares.
    pub fn new(weights: &[(TenantId, u32)]) -> TenantMix {
        let weights: Vec<_> = weights.iter().copied().filter(|&(_, w)| w > 0).collect();
        let total = weights.iter().map(|&(_, w)| w).sum::<u32>().max(1);
        TenantMix { weights, total }
    }

    /// Every client in one tenant.
    pub(crate) fn single(tenant: TenantId) -> TenantMix {
        TenantMix::new(&[(tenant, 1)])
    }

    /// The tenant of client `i`.
    pub(crate) fn assign(&self, i: usize) -> TenantId {
        let slot = (i as u64 % self.total as u64) as u32;
        let mut acc = 0;
        for &(t, w) in &self.weights {
            acc += w;
            if slot < acc {
                return t;
            }
        }
        TenantId::default()
    }
}

/// The per-session operation shape: how many sequential writes and reads,
/// and how large each is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpShape {
    /// Sequential writes per session (offset `k · bytes_per_op`).
    pub writes: u32,
    /// Sequential reads per session after the writes.
    pub reads: u32,
    /// Payload bytes per operation.
    pub bytes_per_op: u64,
}

impl OpShape {
    fn total_ops(self) -> u32 {
        self.writes + self.reads
    }
}

/// Access skew across the swarm's objects: instead of every client owning
/// its private object (`{coll}/c{i}`), clients target a shared hot set of
/// `hot_objects` objects (`{coll}/h{j}`), with object `j` drawn from a
/// Zipf(`theta`) distribution by a deterministic per-client hash. `theta
/// = 0.0` spreads clients uniformly over the hot set; larger values
/// concentrate them on the lowest ranks (classic 0.99 ≈ "80/20"). The
/// knob that gives the block cache and read leases a hot set to hit.
#[derive(Clone, Copy, Debug)]
pub struct AccessSkew {
    /// Zipf exponent; 0 = uniform over the hot set.
    pub theta: f64,
    /// Number of distinct objects the swarm touches.
    pub hot_objects: usize,
}

/// splitmix64: deterministic 64-bit mix for per-client draws.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The Zipf rank (0-based) client `client` lands on: inverse-CDF over the
/// normalized harmonic weights, driven by a hash of `(seed, client)`.
fn zipf_rank(seed: u64, client: u64, n: usize, theta: f64) -> usize {
    debug_assert!(n > 0);
    let u =
        (mix64(seed ^ client.wrapping_mul(0x9E3779B97F4A7C15)) >> 11) as f64 / (1u64 << 53) as f64;
    let h: f64 = (1..=n).map(|k| (k as f64).powf(-theta)).sum();
    let mut acc = 0.0;
    for k in 1..=n {
        acc += (k as f64).powf(-theta) / h;
        if u <= acc {
            return k - 1;
        }
    }
    n - 1
}

/// The object path client `i` opens: its private `{coll}/c{i}` without
/// skew, a Zipf-ranked member of the shared hot set with it.
fn path_for(p: &SwarmParams, client: usize) -> String {
    match p.skew {
        None => format!("{}/c{}", p.coll, client),
        Some(s) => format!(
            "{}/h{}",
            p.coll,
            zipf_rank(p.seed, client as u64, s.hot_objects.max(1), s.theta)
        ),
    }
}

/// Parameters for one swarm run.
#[derive(Clone, Debug)]
pub struct SwarmParams {
    /// Total client sessions.
    pub clients: usize,
    /// Pooled streams per node (`PoolPolicy::Shared`).
    pub streams_per_node: usize,
    /// Concurrent tagged exchanges per stream.
    pub inflight_per_stream: usize,
    /// Tenant assignment across clients.
    pub mix: TenantMix,
    /// Sequential writes per session (offset `k · bytes_per_op`).
    pub writes: u32,
    /// Sequential reads per session after the writes.
    pub reads: u32,
    /// Payload bytes per operation.
    pub bytes_per_op: u64,
    /// Nominal inter-arrival gap (see [`heavy_tailed_arrivals`]).
    pub mean_gap: Dur,
    /// Modelled client think time before each data operation.
    pub think: Dur,
    /// Seed for the arrival process.
    pub seed: u64,
    /// Carry real (checksummable) bytes instead of size-only payloads.
    /// Keep `false` at 10⁵ clients; the equivalence tests set it.
    pub real_payload: bool,
    /// Collection the sessions' objects live under.
    pub coll: String,
    /// Optional abusive-tenant override: sessions of this tenant issue the
    /// given shape instead of the baseline `writes`/`reads`/`bytes_per_op`.
    pub abuse: Option<(TenantId, OpShape)>,
    /// Give each tenant its own pooled streams per node instead of
    /// interleaving all tenants on one pool. The server handles one
    /// request per connection at a time, so tenants sharing a stream share
    /// its head-of-line — partitioning isolates that, as separate user
    /// communities dialing their own connections would.
    pub per_tenant_streams: bool,
    /// Optional access skew: route clients onto a shared Zipf-weighted hot
    /// set instead of private per-client objects. `None` (the default)
    /// gives every client an object of its own.
    pub skew: Option<AccessSkew>,
}

impl SwarmParams {
    /// A small, fast default: 64 clients, one tenant, 2 writes + 1 read
    /// of 64 KiB each.
    pub fn quick() -> SwarmParams {
        SwarmParams {
            clients: 64,
            streams_per_node: 4,
            inflight_per_stream: 8,
            mix: TenantMix::single(TenantId(1)),
            writes: 2,
            reads: 1,
            bytes_per_op: 64 << 10,
            mean_gap: Dur::from_micros(500),
            think: Dur::ZERO,
            seed: 42,
            real_payload: false,
            coll: "/swarm".into(),
            abuse: None,
            per_tenant_streams: false,
            skew: None,
        }
    }

    /// The operation shape `tenant`'s sessions run.
    pub(crate) fn shape_for(&self, tenant: TenantId) -> OpShape {
        match self.abuse {
            Some((t, shape)) if t == tenant => shape,
            _ => OpShape {
                writes: self.writes,
                reads: self.reads,
                bytes_per_op: self.bytes_per_op,
            },
        }
    }
}

/// What one client session did.
#[derive(Clone, Copy, Debug)]
pub struct SessionOutcome {
    /// The session's tenant tag.
    pub tenant: TenantId,
    /// Virtual arrival time, ns.
    pub arrival_ns: u64,
    /// Virtual completion time, ns.
    pub done_ns: u64,
    /// Payload bytes the server acknowledged for this session.
    pub payload_bytes: u64,
    /// False if any operation returned an error.
    pub ok: bool,
}

impl SessionOutcome {
    /// The session's application goodput, bits per second of its lifetime.
    pub(crate) fn goodput_bps(&self) -> f64 {
        let secs = (self.done_ns.saturating_sub(self.arrival_ns)) as f64 / 1e9;
        if secs <= 0.0 {
            return 0.0;
        }
        self.payload_bytes as f64 * 8.0 / secs
    }
}

/// Result of one swarm run.
#[derive(Debug)]
pub struct SwarmReport {
    /// Per-client outcomes, indexed by client id (deterministic order).
    pub outcomes: Vec<SessionOutcome>,
    /// Virtual seconds from first arrival to last completion.
    pub secs: f64,
}

impl SwarmReport {
    /// Sessions that completed fully.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.ok).count()
    }

    /// Total acknowledged payload bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.outcomes.iter().map(|o| o.payload_bytes).sum()
    }

    /// Per-tenant p99 session goodput (the slowest 1 % boundary), bits/s,
    /// keyed in tenant order. Tenants with no sessions are omitted.
    pub fn p99_goodput_by_tenant(&self) -> Vec<(TenantId, f64)> {
        let mut by_tenant: std::collections::BTreeMap<TenantId, Vec<f64>> = Default::default();
        for o in &self.outcomes {
            by_tenant.entry(o.tenant).or_default().push(o.goodput_bps());
        }
        by_tenant
            .into_iter()
            .map(|(t, mut v)| {
                v.sort_by(|a, b| a.partial_cmp(b).expect("finite goodput"));
                let idx = (v.len().saturating_sub(1)) / 100; // 1st percentile from the bottom
                (t, v[idx])
            })
            .collect()
    }
}

/// The operation shape of every session, by client index.
fn session_shapes(p: &SwarmParams) -> Vec<OpShape> {
    (0..p.clients)
        .map(|i| p.shape_for(p.mix.assign(i)))
        .collect()
}

/// Every payload one swarm writes, as one immutable buffer: the 0..251
/// cycle, 250 bytes longer than the largest operation in `shapes`, so
/// each write is a view of it ([`payload_for`]). Size-only when the swarm
/// carries no real bytes.
fn swarm_pattern(p: &SwarmParams, shapes: &[OpShape]) -> Payload {
    let len = shapes.iter().map(|s| s.bytes_per_op).max().unwrap_or(0) + 250;
    if p.real_payload {
        Payload::bytes((0..len).map(|k| (k % 251) as u8).collect())
    } else {
        Payload::sized(len)
    }
}

/// The deterministic payload of write `op` of `client` (checksum
/// fixture): byte `k` is `(client·131 + op·31 + k) mod 251`, which is
/// `pattern` from that start on — no bytes copied.
fn payload_for(pattern: &Payload, shape: OpShape, client: usize, op: u32) -> Payload {
    let start = (client as u64 * 131 + op as u64 * 31) % 251;
    pattern.slice(start, shape.bytes_per_op)
}

/// Data op `op_idx` of the session.
fn op_request(pattern: &Payload, shape: OpShape, client: usize, op_idx: u32, fd: u32) -> Request {
    if op_idx < shape.writes {
        Request::Write {
            fd,
            offset: op_idx as u64 * shape.bytes_per_op,
            payload: payload_for(pattern, shape, client, op_idx),
        }
    } else {
        let k = (op_idx - shape.writes) as u64;
        Request::Read {
            fd,
            offset: (k % shape.writes.max(1) as u64) * shape.bytes_per_op,
            len: shape.bytes_per_op,
        }
    }
}

/// One event-driven client session.
struct Session {
    rt: Arc<dyn Runtime>,
    params: Arc<SwarmParams>,
    /// The swarm's one payload buffer ([`swarm_pattern`]).
    pattern: Payload,
    shape: OpShape,
    client: usize,
    conn: Arc<SrbConn>,
    path: String,
    arrival: Dur,
    outcomes: Arc<Mutex<Vec<Option<SessionOutcome>>>>,
}

impl Session {
    /// Sleep out the arrival offset, run the session's requests, and
    /// report how it went.
    async fn run(self) {
        if self.arrival > Dur::ZERO {
            task::sleep(self.arrival).await;
        }
        let arrival_ns = self.rt.now().as_nanos();
        let ok = self.requests().await.is_some();
        self.outcomes.lock()[self.client] = Some(SessionOutcome {
            tenant: self.conn.tenant(),
            arrival_ns,
            done_ns: self.rt.now().as_nanos(),
            payload_bytes: self.conn.acked_bytes(),
            ok,
        });
    }

    /// Open, each data op after its think time, close, end the session:
    /// `None` at the first reply that is not the expected one.
    async fn requests(&self) -> Option<()> {
        let open = Request::Open(self.path.clone(), OpenFlags::CreateRw);
        let Response::Fd(fd) = self.exchange(open).await? else {
            return None;
        };
        for k in 0..self.shape.total_ops() {
            if self.params.think > Dur::ZERO {
                task::sleep(self.params.think).await;
            }
            let req = op_request(&self.pattern, self.shape, self.client, k, fd);
            let (Response::Written(_) | Response::Data(_)) = self.exchange(req).await? else {
                return None;
            };
        }
        let Response::Ok = self.exchange(Request::Close(fd)).await? else {
            return None;
        };
        let Response::Ok = self.exchange(Request::EndSession).await? else {
            return None;
        };
        Some(())
    }

    /// Submit `req` now and wait for its reply. Not an `async fn`, so the
    /// request is not kept in every session's future while it waits.
    fn exchange(&self, req: Request) -> impl Future<Output = Option<Response>> {
        let reply = self.conn.submit(req);
        async move { reply.wait_async().await.ok().map(|frame| frame.resp) }
    }
}

/// Run a client swarm against `tb`'s server.
///
/// Clients are dealt round-robin across the testbed's nodes; client `i`
/// pins pool slot `i / nodes` (mod `streams_per_node`), and every pool is
/// pre-warmed in index order, so the mapping from client to server-side
/// connection is a pure function of `i`.
pub fn run_swarm(tb: &Testbed, params: &SwarmParams) -> SwarmReport {
    let rt = tb.rt.clone();
    let nodes = tb.nodes();
    let params = Arc::new(params.clone());

    // Setup: the collection, one pool per node, warmed.
    let setup = tb
        .server
        .connect(tb.route(0), USER, PASSWORD)
        .expect("setup connect");
    match setup.mk_coll(&params.coll) {
        Ok(()) => {}
        Err(e) => assert!(
            matches!(e, semplar_srb::SrbError::AlreadyExists(_)),
            "mk_coll: {e}"
        ),
    }
    setup.disconnect().expect("setup disconnect");

    // Pools keyed by (node, tenant-partition): one per node by default,
    // one per tenant per node when `per_tenant_streams` is set. Warmed in
    // key order so the client → server-connection mapping is a pure
    // function of the client index either way.
    let pool_key = |i: usize| {
        let node = i % nodes;
        let part = if params.per_tenant_streams {
            params.mix.assign(i).0
        } else {
            0
        };
        (node, part)
    };
    let mut pools: std::collections::BTreeMap<(usize, u32), Arc<ConnPool>> = Default::default();
    for i in 0..params.clients {
        pools.entry(pool_key(i)).or_insert_with(|| {
            ConnPool::new(
                tb.server.clone(),
                USER,
                PASSWORD,
                PoolPolicy::Shared {
                    max_streams: params.streams_per_node,
                    max_inflight: params.inflight_per_stream,
                },
                RetryPolicy::none(),
            )
        });
    }
    for (&(n, _), pool) in &pools {
        pool.warm(&tb.route(n)).expect("warm pool");
    }

    // Sessions up front (cheap once the pools are warm), tenants tagged.
    // Each pool deals its clients round-robin across its slots via the pin.
    let arrivals = heavy_tailed_arrivals(params.seed, params.clients, params.mean_gap);
    let mut pins: std::collections::BTreeMap<(usize, u32), usize> = Default::default();
    let conns: Vec<Arc<SrbConn>> = (0..params.clients)
        .map(|i| {
            let key = pool_key(i);
            let pin = {
                let c = pins.entry(key).or_insert(0);
                let p = *c;
                *c += 1;
                p
            };
            let conn = pools[&key]
                .session(&tb.route(key.0), Some(pin))
                .expect("pooled session");
            conn.set_tenant(params.mix.assign(i));
            Arc::new(conn)
        })
        .collect();

    let shapes = session_shapes(&params);
    let pattern = swarm_pattern(&params, &shapes);
    let outcomes: Arc<Mutex<Vec<Option<SessionOutcome>>>> =
        Arc::new(Mutex::new((0..params.clients).map(|_| None).collect()));
    let t0 = rt.now();

    let ex = TaskExecutor::new(&rt, "swarm");
    let handles: Vec<_> = (0..params.clients)
        .map(|i| {
            let session = Session {
                rt: rt.clone(),
                params: params.clone(),
                pattern: pattern.clone(),
                shape: shapes[i],
                client: i,
                conn: conns[i].clone(),
                path: path_for(&params, i),
                arrival: arrivals[i],
                outcomes: outcomes.clone(),
            };
            ex.spawn(Box::new(Box::pin(session.run())))
        })
        .collect();
    for h in handles {
        h.join();
    }

    let secs = (rt.now() - t0).as_secs_f64();
    let outcomes = outcomes
        .lock()
        .iter()
        .map(|o| o.expect("every client reports"))
        .collect();
    SwarmReport { outcomes, secs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_clusters::das2;
    use semplar_runtime::SimRuntime;

    fn tiny_params() -> SwarmParams {
        SwarmParams {
            clients: 6,
            streams_per_node: 3,
            inflight_per_stream: 4,
            mix: TenantMix::new(&[(TenantId(1), 2), (TenantId(2), 1)]),
            writes: 2,
            reads: 1,
            bytes_per_op: 8 << 10,
            mean_gap: Dur::from_micros(200),
            think: Dur::ZERO,
            seed: 7,
            real_payload: true,
            coll: "/sw".into(),
            abuse: None,
            per_tenant_streams: false,
            skew: None,
        }
    }

    /// The per-client payload as a fresh buffer, copied out of one 0..251
    /// cycle a slice at a time: what every write allocated before the
    /// swarm shared one pattern, kept as the oracle of [`payload_for`].
    fn client_bytes(client: usize, op: u32, len: u64) -> Vec<u8> {
        let cycle: [u8; 251] = std::array::from_fn(|i| i as u8);
        let len = len as usize;
        let mut out = Vec::with_capacity(len);
        let mut from = ((client as u64 * 131 + op as u64 * 31) % 251) as usize;
        while out.len() < len {
            let n = (cycle.len() - from).min(len - out.len());
            out.extend_from_slice(&cycle[from..from + n]);
            from = 0;
        }
        out
    }

    #[test]
    fn client_bytes_match_the_per_byte_formula() {
        // The pattern as first written, one `% 251` per byte: the oracle.
        let oracle = |client: usize, op: u32, len: u64| -> Vec<u8> {
            (0..len)
                .map(|k| ((client as u64 * 131 + op as u64 * 31 + k) % 251) as u8)
                .collect()
        };
        let mut p = tiny_params();
        p.clients = 1;
        p.bytes_per_op = 64 << 10;
        let pattern = swarm_pattern(&p, &session_shapes(&p));
        for (client, op) in [(0, 0), (1, 0), (0, 1), (7, 3), (250, 9), (99_999, 4)] {
            for len in [0, 1, 250, 251, 252, 64 << 10] {
                let want = oracle(client, op, len);
                assert_eq!(
                    client_bytes(client, op, len),
                    want,
                    "client {client} op {op} len {len}"
                );
                let shape = OpShape {
                    bytes_per_op: len,
                    ..p.shape_for(TenantId(1))
                };
                let view = payload_for(&pattern, shape, client, op);
                assert_eq!(
                    view.data().unwrap(),
                    &want[..],
                    "view: client {client} op {op} len {len}"
                );
            }
        }

        // Two tenants with different operation sizes share one pattern,
        // long enough for the larger; every write is still a full view.
        let mut p = tiny_params();
        p.abuse = Some((
            TenantId(2),
            OpShape {
                writes: 3,
                reads: 0,
                bytes_per_op: 100_000,
            },
        ));
        let shapes = session_shapes(&p);
        let pattern = swarm_pattern(&p, &shapes);
        assert_eq!(pattern.len(), 100_250);
        let sizes: std::collections::BTreeSet<u64> =
            shapes.iter().map(|s| s.bytes_per_op).collect();
        assert_eq!(sizes.into_iter().collect::<Vec<_>>(), [8 << 10, 100_000]);
        for (client, &shape) in shapes.iter().enumerate() {
            for op in 0..shape.writes {
                let view = payload_for(&pattern, shape, client, op);
                assert_eq!(
                    view.data().unwrap(),
                    &client_bytes(client, op, shape.bytes_per_op)[..],
                    "client {client} op {op}"
                );
            }
        }
        // Without real bytes the pattern is size-only, and so is each write.
        p.real_payload = false;
        let sized = payload_for(&swarm_pattern(&p, &shapes), shapes[2], 2, 2);
        assert_eq!((sized.len(), sized.data()), (100_000, None));
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_deterministic() {
        let a = heavy_tailed_arrivals(3, 1000, Dur::from_micros(100));
        let b = heavy_tailed_arrivals(3, 1000, Dur::from_micros(100));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // Nominal mean is respected within a factor of ~3 either way.
        let mean_ns = a.last().unwrap().as_nanos() as f64 / 1000.0;
        assert!((30_000.0..300_000.0).contains(&mean_ns), "mean {mean_ns}");
    }

    #[test]
    fn tenant_mix_is_proportional_and_deterministic() {
        let mix = TenantMix::new(&[(TenantId(1), 3), (TenantId(2), 1)]);
        let counts = (0..400).fold([0usize; 2], |mut acc, i| {
            match mix.assign(i) {
                TenantId(1) => acc[0] += 1,
                TenantId(2) => acc[1] += 1,
                t => panic!("unexpected tenant {t}"),
            }
            acc
        });
        assert_eq!(counts, [300, 100]);
    }

    #[test]
    fn zipf_skew_is_deterministic_and_concentrates_on_low_ranks() {
        let mut p = tiny_params();
        p.skew = Some(AccessSkew {
            theta: 0.99,
            hot_objects: 8,
        });
        let paths: Vec<String> = (0..500).map(|i| path_for(&p, i)).collect();
        assert_eq!(paths, (0..500).map(|i| path_for(&p, i)).collect::<Vec<_>>());
        // Every path lands in the hot set.
        assert!(paths.iter().all(|s| {
            let r: usize = s.strip_prefix("/sw/h").unwrap().parse().unwrap();
            r < 8
        }));
        // Zipf(0.99) over 8 ranks puts ~37% on rank 0 — far above uniform.
        let rank0 = paths.iter().filter(|s| s.as_str() == "/sw/h0").count();
        assert!(rank0 > 125, "rank 0 got {rank0}/500, expected skewed mass");
        // Uniform (theta 0) spreads out: rank 0 near 1/8 of the draws.
        p.skew = Some(AccessSkew {
            theta: 0.0,
            hot_objects: 8,
        });
        let rank0_uni = (0..500).filter(|&i| path_for(&p, i) == "/sw/h0").count();
        assert!(
            (30..125).contains(&rank0_uni),
            "uniform rank 0 got {rank0_uni}/500"
        );
    }

    /// A skewed swarm runs to completion and the server holds only hot-set
    /// objects (no private `/c{i}` paths were ever created).
    #[test]
    fn skewed_swarm_touches_only_the_hot_set() {
        let mut params = tiny_params();
        params.skew = Some(AccessSkew {
            theta: 0.99,
            hot_objects: 2,
        });
        let sim = SimRuntime::new();
        sim.run_root(move |rt| {
            let tb = Testbed::new(rt, das2(), 2);
            let report = run_swarm(&tb, &params);
            assert_eq!(report.completed(), 6);
            let admin = tb.server.connect(tb.route(0), USER, PASSWORD).unwrap();
            for i in 0..params.clients {
                let private = format!("{}/c{i}", params.coll);
                assert!(
                    admin.stat(&private).is_err(),
                    "{private} should not exist under skew"
                );
            }
            assert!(admin.stat(&format!("{}/h0", params.coll)).is_ok());
            admin.disconnect().unwrap();
        });
    }

    #[test]
    fn task_swarm_completes_and_counts_tasks() {
        let sim = SimRuntime::new();
        let report = sim.run_root(|rt| {
            let tb = Testbed::new(rt, das2(), 2);
            run_swarm(&tb, &tiny_params())
        });
        assert_eq!(report.completed(), 6);
        // Three tasks (handler, demux, sender) for the setup connection and
        // for each of the two pools' three streams, then one per session.
        assert_eq!(sim.stats().tasks_spawned, 3 + 2 * 3 * 3 + 6);
        // 2 writes acked + 1 read acked per session.
        assert_eq!(report.payload_bytes(), 6 * 3 * (8 << 10));
    }

    /// A small fig_tenants-shaped arm: five equal tenants, tenant 9
    /// optionally abusive (8 × 256 KiB writes vs 2 × 16 KiB + read), on
    /// either the legacy shared-stream FIFO stack or the tenant-aware one
    /// (per-tenant streams + server DRR gate). Returns p99 session
    /// goodput per tenant, bits/s.
    fn tenant_arm(abusive: bool, tenant_aware: bool) -> Vec<(TenantId, f64)> {
        let sim = SimRuntime::new();
        sim.run_root(move |rt| {
            let tb = Testbed::new(rt, das2(), 4);
            if tenant_aware {
                tb.server
                    .set_tenant_scheduler(semplar_srb::TenantScheduler::new(&tb.rt, 64 << 10, 48));
            }
            let params = SwarmParams {
                clients: 100,
                // 4 nodes x 7 shared streams: 28 is coprime-enough to the
                // 5-tenant cycle that shared connections genuinely mix
                // tenants (see the fig_tenants binary).
                streams_per_node: if tenant_aware { 2 } else { 7 },
                inflight_per_stream: 8,
                mix: TenantMix::new(&[
                    (TenantId(1), 1),
                    (TenantId(2), 1),
                    (TenantId(3), 1),
                    (TenantId(4), 1),
                    (TenantId(9), 1),
                ]),
                writes: 2,
                reads: 1,
                bytes_per_op: 16 << 10,
                mean_gap: Dur::from_millis(10),
                think: Dur::ZERO,
                seed: 42,
                real_payload: false,
                coll: "/tn".into(),
                abuse: abusive.then_some((
                    TenantId(9),
                    OpShape {
                        writes: 8,
                        reads: 0,
                        bytes_per_op: 256 << 10,
                    },
                )),
                per_tenant_streams: tenant_aware,
                skew: None,
            };
            let report = run_swarm(&tb, &params);
            assert_eq!(report.completed(), params.clients);
            report.p99_goodput_by_tenant()
        })
    }

    /// Satellite claim behind `fig_tenants`: with one abusive tenant, the
    /// tenant-aware stack keeps every other tenant's p99 goodput within
    /// 10 % of its all-fair baseline — while the legacy shared-FIFO stack
    /// shows real damage, so the isolation being measured is not vacuous.
    #[test]
    fn drr_isolates_tenants_where_shared_fifo_collapses() {
        let worst = |base: &[(TenantId, f64)], arm: &[(TenantId, f64)]| {
            base.iter()
                .zip(arm)
                .filter(|(&(t, _), _)| t != TenantId(9))
                .map(|(&(_, b), &(_, a))| (b - a) / b * 100.0)
                .fold(f64::MIN, f64::max)
        };
        let fifo = worst(&tenant_arm(false, false), &tenant_arm(true, false));
        let drr = worst(&tenant_arm(false, true), &tenant_arm(true, true));
        assert!(
            fifo > 10.0,
            "shared FIFO shows no head-of-line damage ({fifo:.1}%) — the \
             isolation claim would be vacuous"
        );
        assert!(
            drr < 10.0,
            "tenant-aware stack broke the isolation claim: {drr:.1}%"
        );
    }
}
