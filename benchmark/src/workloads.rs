//! The four workloads. Each `pass` builds a fresh `SimRuntime` + `Testbed`,
//! drives the program through its public API only, checks the outputs, and
//! returns virtual-time results plus the layers' public counters.
//!
//! | workload | stresses | bypasses |
//! |---|---|---|
//! | `swarm_write` | runtime engine (359 thread actors), transport, server sessions | `core`, `compress`, `mpi` |
//! | `overlap_ckpt` | `core` engine queue + stripe, `mpi`, netsim flow churn | `compress`, block cache |
//! | `compress_pipeline` | `compress`, the real-byte data path, `core::pipeline` | runtime herd, `mpi` traffic |
//! | `cache_mixed` | `srb::cache`, vault, reads beside writes with real bytes | `core`, `compress`, `mpi` |

use std::collections::BTreeMap;
use std::sync::Arc;

use semplar::{
    AdioFs, CompressedReader, CompressedWriter, ComputeModel, File, MultiRequest, OpenFlags,
    Payload, SrbFs, StripeUnit, StripedFile,
};
use semplar_clusters::{das2, tg_ncsa, ClusterSpec, Testbed, PASSWORD, USER};
use semplar_compress::{Codec, Lzf};
use semplar_mpi::{run_world, Rank};
use semplar_netsim::{Bw, NetStats};
use semplar_runtime::{Dur, Runtime, SimRuntime, SimStats};
use semplar_srb::{adler32, CacheSpec, DiskSpec, ServerStats};
use semplar_workloads::{estgen, heavy_tailed_arrivals, run_swarm, AccessSkew, SwarmParams};

use crate::measure::{unit_draw, Fnv};
use crate::trace::{Span, TracedCodec, TracedFs, Tracer, Tracing};

/// Workload-specific per-layer values, keyed by metric name.
pub type LayerMap = BTreeMap<&'static str, f64>;

/// The benchmark's workloads, in the order `--all` runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SwarmWrite,
    OverlapCkpt,
    CompressPipeline,
    CacheMixed,
}

pub const ALL: [Workload; 4] = [
    Workload::SwarmWrite,
    Workload::OverlapCkpt,
    Workload::CompressPipeline,
    Workload::CacheMixed,
];

// Frozen sizes (calibrated on the 2-core reference box; see the README).
// One timed pass is a few seconds of host time, so several fit in a run.

/// `swarm_write`: task sessions per pass.
const SWARM_SESSIONS: usize = 100;
/// `cache_mixed`: task sessions per pass.
const CACHE_SESSIONS: usize = 1200;
/// `overlap_ckpt`: checkpoint cycles per pass.
const CKPT_CYCLES: usize = 400;
/// `compress_pipeline`: objects each rank ships, reads back and deletes.
const COMPRESS_ROUNDS: usize = 10;

const CKPT_RANKS: usize = 4;
const CKPT_STREAMS: usize = 2;
const CKPT_SLAB: u64 = 256 << 10;
/// Halo-exchange + sweep iterations between two checkpoints.
const CKPT_INNER: usize = 8;
const CKPT_HALO_BYTES: u64 = 16 << 10;
/// Mean modelled compute per inner iteration: `CKPT_INNER` of them take
/// about as long as one slab write over two window-limited DAS-2 streams,
/// so compute : I/O ≈ 1 : 1 and overlap matters.
const CKPT_COMPUTE: Dur = Dur::from_millis(100);
const CKPT_PATH: &str = "/overlap-ckpt";

const COMPRESS_RANKS: usize = 2;
const COMPRESS_CORPUS: usize = 16 << 20;
const COMPRESS_BLOCK: usize = 1 << 20;

const OP_BYTES: u64 = 64 << 10;
const CACHE_HOT_OBJECTS: usize = 64;
const CACHE_READS: u32 = 4;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SwarmWrite => "swarm_write",
            Workload::OverlapCkpt => "overlap_ckpt",
            Workload::CompressPipeline => "compress_pipeline",
            Workload::CacheMixed => "cache_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pass size at `1/divisor` scale: sessions, cycles or rounds.
    pub fn size(self, divisor: usize) -> usize {
        let full = match self {
            Workload::SwarmWrite => SWARM_SESSIONS,
            Workload::OverlapCkpt => CKPT_CYCLES,
            Workload::CompressPipeline => COMPRESS_ROUNDS,
            Workload::CacheMixed => CACHE_SESSIONS,
        };
        (full / divisor).max(1)
    }

    /// Client data ops a pass of `size` issues: the workload's own
    /// `write`/`read` calls, a fixed count.
    pub fn ops(self, size: usize) -> u64 {
        let per_unit = match self {
            Workload::SwarmWrite => 1,
            Workload::CacheMixed => 1 + CACHE_READS as usize,
            // One slab write and one slab read per rank per cycle.
            Workload::OverlapCkpt => CKPT_RANKS * 2,
            // Per object: one `write` per block and one `read_all`.
            Workload::CompressPipeline => {
                COMPRESS_RANKS * (COMPRESS_CORPUS.div_ceil(COMPRESS_BLOCK) + 1)
            }
        };
        (size * per_unit) as u64
    }
}

/// Everything derived from `--seed`, generated in set-up. The program only
/// ever sees these (the swarms regenerate `arrivals` from the same seed
/// inside `run_swarm`; the copy here checks the generator ran on time).
pub struct Inputs {
    pub seed: u64,
    /// Swarms: scheduled arrival offsets.
    arrivals: Vec<Dur>,
    /// `overlap_ckpt`: modelled compute per `[rank][cycle · inner]`, the
    /// mean ±10 % — ranks are never perfectly balanced.
    compute: Vec<Vec<Dur>>,
    /// `compress_pipeline`: one EST corpus per rank, with its Adler-32.
    corpus: Vec<(Arc<Vec<u8>>, u32)>,
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64, size: usize) -> Inputs {
        let mut inputs = Inputs {
            seed,
            arrivals: Vec::new(),
            compute: Vec::new(),
            corpus: Vec::new(),
        };
        match w {
            Workload::SwarmWrite | Workload::CacheMixed => {
                inputs.arrivals = heavy_tailed_arrivals(seed, size, SwarmParams::quick().mean_gap);
            }
            Workload::OverlapCkpt => {
                inputs.compute = (0..CKPT_RANKS)
                    .map(|rank| {
                        (0..size * CKPT_INNER)
                            .map(|i| {
                                let jitter = 0.9 + 0.2 * unit_draw(seed, rank as u64, i as u64);
                                Dur::from_secs_f64(CKPT_COMPUTE.as_secs_f64() * jitter)
                            })
                            .collect()
                    })
                    .collect();
            }
            Workload::CompressPipeline => {
                inputs.corpus = (0..COMPRESS_RANKS)
                    .map(|rank| {
                        let text = estgen::generate(
                            COMPRESS_CORPUS,
                            seed.wrapping_mul(31).wrapping_add(rank as u64),
                            &estgen::EstGenConfig::default(),
                        );
                        let sum = adler32(&text);
                        (Arc::new(text), sum)
                    })
                    .collect();
            }
        }
        inputs
    }
}

/// Virtual-time results of one pass. A host-only change must leave every
/// field identical.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// First arrival (or start barrier) to last completion, virtual s.
    pub makespan_s: f64,
    /// Acked application write bits over the virtual span they ran in.
    pub write_mbps: f64,
    /// The same for reads; 0 when the workload reads nothing.
    pub read_mbps: f64,
    /// Latency of each unit of work, virtual ms: a session (swarms), a
    /// rank's checkpoint cycle, a rank's ship-and-read-back round.
    pub latencies_ms: Vec<f64>,
}

/// What one pass returns.
pub struct PassOutput {
    /// Client data ops the workload issued (its own write/read calls).
    pub attempted: u64,
    /// Ops that failed or whose output did not verify.
    pub failed: u64,
    pub sim: SimResult,
    /// Digest of the pass's verified outputs; identical across passes.
    pub digest: u64,
    /// The engine's counters (filled in once the simulation has ended).
    pub stats: SimStats,
    pub net: NetStats,
    /// Public counters of the layers this workload reaches.
    pub layer: LayerMap,
    /// Spans of a traced pass (empty otherwise).
    pub spans: Vec<Span>,
    /// Output checks that failed, in words.
    pub problems: Vec<String>,
}

/// Run one pass of `w` at `size`: a fresh simulation whose root actor is
/// the workload's driver.
pub fn pass(w: Workload, inputs: &Arc<Inputs>, size: usize, traced: bool) -> PassOutput {
    let inputs = inputs.clone();
    let sim = SimRuntime::new();
    let mut out = sim.run_root(move |rt| {
        let tracing = Tracing(traced.then(|| Tracer::new(rt.clone())));
        match w {
            Workload::SwarmWrite | Workload::CacheMixed => {
                swarm_pass(w, &inputs, size, rt, tracing)
            }
            Workload::OverlapCkpt => overlap_pass(inputs, size, rt, tracing),
            Workload::CompressPipeline => compress_pass(inputs, size, rt, tracing),
        }
    });
    // The engine's own counters are only readable from outside, once the
    // simulation has ended.
    out.stats = sim.stats();
    out
}

/// Build the pass's testbed (a span when tracing, which also turns the
/// server's request trace on).
fn testbed(tracing: &Tracing, build: impl FnOnce() -> Arc<Testbed>) -> Arc<Testbed> {
    let tb = tracing.span("clusters", "testbed.new", build);
    if tracing.0.is_some() {
        tb.server.enable_request_trace();
    }
    tb
}

fn check(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

fn mbps(bytes: u64, secs: f64) -> f64 {
    bytes as f64 * 8.0 / secs / 1e6
}

/// Server counters as per-layer values (plus the request digest when the
/// pass is traced); returns the counters for the output checks.
fn server_layer(
    layer: &mut LayerMap,
    tb: &Testbed,
    client_ops: u64,
    tracing: &Tracing,
) -> ServerStats {
    let s = tb.server.stats();
    layer.insert("srb.server.connections", s.connections as f64);
    layer.insert("srb.server.requests", s.requests as f64);
    layer.insert("srb.server.bytes_written", s.bytes_written as f64);
    layer.insert("srb.server.bytes_read", s.bytes_read as f64);
    layer.insert(
        "srb.server.requests_per_op",
        s.requests as f64 / client_ops as f64,
    );
    if tracing.0.is_some() {
        layer.insert("srb.request_digest", request_digest(tb));
    }
    s
}

/// FNV-1a of the server's request trace: any change means the wire
/// behaviour changed. Reported as a 48-bit count-like value so it survives
/// a trip through a JSON double exactly.
fn request_digest(tb: &Testbed) -> f64 {
    let mut h = Fnv::default();
    for line in tb.server.take_request_trace() {
        h.bytes(line.as_bytes());
    }
    (h.0 >> 16) as f64
}

// ---------------------------------------------------------------------------
// swarm_write and cache_mixed: `run_swarm`, open loop in virtual time.
// ---------------------------------------------------------------------------

/// The disk-bound testbed of `fig_cache`: TG-NCSA with WAN-tuned windows so
/// the (slowed, degrading) vault is the cold bottleneck.
fn cache_testbed(rt: Arc<dyn Runtime>) -> Arc<Testbed> {
    let spec = ClusterSpec {
        send_window: 4 << 20,
        recv_window: 4 << 20,
        ..tg_ncsa()
    };
    let disk = DiskSpec {
        bandwidth: Bw::mbyte_per_s(1.0),
        seek: Dur::from_millis(2),
        degradation: 0.3,
    };
    let tb = Testbed::with_server_disk(rt, spec, 2, disk);
    // 2 MiB of 64 KiB blocks under a 4 MiB hot set: the working set is
    // twice the cache.
    tb.server.set_block_cache(CacheSpec {
        block: OP_BYTES,
        capacity: 2 << 20,
        ..CacheSpec::default()
    });
    tb
}

fn swarm_pass(
    w: Workload,
    inputs: &Inputs,
    sessions: usize,
    rt: Arc<dyn Runtime>,
    tracing: Tracing,
) -> PassOutput {
    let cache_mixed = w == Workload::CacheMixed;
    let params = if cache_mixed {
        SwarmParams {
            clients: sessions,
            writes: 1,
            reads: CACHE_READS,
            bytes_per_op: OP_BYTES,
            real_payload: true,
            skew: Some(AccessSkew {
                theta: 0.99,
                hot_objects: CACHE_HOT_OBJECTS,
            }),
            seed: inputs.seed,
            coll: "/zipf".into(),
            ..SwarmParams::quick()
        }
    } else {
        SwarmParams {
            clients: sessions,
            streams_per_node: 8,
            inflight_per_stream: 64,
            writes: 1,
            reads: 0,
            bytes_per_op: OP_BYTES,
            seed: inputs.seed,
            coll: "/scale".into(),
            ..SwarmParams::quick()
        }
    };
    let tb = testbed(&tracing, || {
        if cache_mixed {
            cache_testbed(rt.clone())
        } else {
            Testbed::new(rt.clone(), das2(), 16)
        }
    });
    let report = tracing.span("workloads", "run_swarm", || run_swarm(&tb, &params));

    let attempted = w.ops(sessions);
    let ops_per_session = attempted / sessions as u64;
    let ok_sessions = report.completed() as u64;
    let write_bytes = sessions as u64 * params.writes as u64 * OP_BYTES;
    let read_bytes = sessions as u64 * params.reads as u64 * OP_BYTES;

    let mut layer = LayerMap::new();
    let server = server_layer(&mut layer, &tb, attempted, &tracing);
    let mut problems = Vec::new();
    check(&mut problems, ok_sessions == sessions as u64, || {
        format!("{ok_sessions} of {sessions} sessions completed ok")
    });
    check(
        &mut problems,
        report.payload_bytes() == write_bytes + read_bytes,
        || {
            format!(
                "sessions acked {} payload bytes, expected {}",
                report.payload_bytes(),
                write_bytes + read_bytes
            )
        },
    );
    check(
        &mut problems,
        (server.bytes_written, server.bytes_read) == (write_bytes, read_bytes),
        || {
            format!(
                "server moved {}/{} bytes written/read, expected {write_bytes}/{read_bytes}",
                server.bytes_written, server.bytes_read
            )
        },
    );

    // The generator's lateness: each session records its arrival when
    // its scheduled sleep returns, so in virtual time this must be 0.
    let first = report.outcomes[0].arrival_ns;
    let late_ns = report
        .outcomes
        .iter()
        .zip(&inputs.arrivals)
        .map(|(o, due)| (o.arrival_ns - first).abs_diff((*due - inputs.arrivals[0]).as_nanos()))
        .max()
        .unwrap_or(0);
    layer.insert("workloads.arrival_late_v_ms", late_ns as f64 / 1e6);
    layer.insert("workloads.sessions_ok", ok_sessions as f64);

    let mut digest = Fnv::default();
    for o in &report.outcomes {
        digest.u64(o.payload_bytes);
        digest.u64(o.ok as u64);
    }
    if cache_mixed {
        let c = tb.server.cache_stats();
        layer.insert("srb.cache.hits", c.hits as f64);
        layer.insert("srb.cache.misses", c.misses as f64);
        layer.insert(
            "srb.cache.hit_ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        );
        layer.insert("srb.cache.evictions", c.evictions as f64);
        layer.insert(
            "srb.cache.bytes_saved_mb",
            c.bytes_saved as f64 / (1 << 20) as f64,
        );
        check(
            &mut problems,
            c.hits + c.misses == sessions as u64 * CACHE_READS as u64,
            || {
                format!(
                    "cache saw {} reads, expected {}",
                    c.hits + c.misses,
                    sessions as u64 * CACHE_READS as u64
                )
            },
        );
        // Real payloads: every hot object must hold exactly one op's
        // bytes, and its server-side checksum folds into the digest.
        let admin = tb
            .server
            .connect(tb.route(0), USER, PASSWORD)
            .expect("admin connect");
        let mut objects = admin.list(&params.coll).expect("list hot set");
        objects.sort();
        check(
            &mut problems,
            !objects.is_empty() && objects.len() <= CACHE_HOT_OBJECTS,
            || {
                format!(
                    "{} objects in the hot set, expected 1..={CACHE_HOT_OBJECTS}",
                    objects.len()
                )
            },
        );
        for path in &objects {
            let size = admin.stat(path).expect("stat hot object").size;
            check(&mut problems, size == OP_BYTES, || {
                format!("{path} holds {size} bytes, expected {OP_BYTES}")
            });
            digest.bytes(path.as_bytes());
            digest.u64(admin.checksum(path).expect("checksum hot object") as u64);
        }
        admin.disconnect().expect("admin disconnect");
    }

    PassOutput {
        attempted,
        // A session that did not complete fails every op it owed.
        failed: (sessions as u64 - ok_sessions) * ops_per_session,
        sim: SimResult {
            makespan_s: report.secs,
            write_mbps: mbps(write_bytes, report.secs),
            read_mbps: mbps(read_bytes, report.secs),
            latencies_ms: report
                .outcomes
                .iter()
                .map(|o| (o.done_ns - o.arrival_ns) as f64 / 1e6)
                .collect(),
        },
        digest: digest.0,
        stats: SimStats::default(),
        net: tb.net.stats(),
        layer,
        spans: tracing.take_spans(),
        problems,
    }
}

// ---------------------------------------------------------------------------
// overlap_ckpt: the paper's own pattern (Fig. 2, §7.1–7.2), closed loop.
// ---------------------------------------------------------------------------

/// What one rank of `overlap_ckpt` reports.
#[derive(Default)]
struct CkptRank {
    ok_ops: u64,
    cycle_ms: Vec<f64>,
    write_end: f64,
    read_end: f64,
    blocks: u64,
    stream_bytes: Vec<u64>,
    exchanges: u64,
    latency_ms: Vec<f64>,
    migrated: u64,
    recovered: u64,
}

/// Halo exchange with both neighbours: eager sends, then receives.
fn halo(tracing: &Tracing, r: &Rank) {
    const TAG_UP: u32 = 11;
    const TAG_DOWN: u32 = 12;
    let send = |dst: usize, tag: u32| {
        tracing.span("mpi", "send", || r.send(dst, tag, (), CKPT_HALO_BYTES))
    };
    let recv = |src: usize, tag: u32| {
        tracing.span("mpi", "recv", || {
            let _ = r.recv::<()>(Some(src), tag);
        })
    };
    if r.rank > 0 {
        send(r.rank - 1, TAG_DOWN);
    }
    if r.rank + 1 < r.size {
        send(r.rank + 1, TAG_UP);
    }
    if r.rank > 0 {
        recv(r.rank - 1, TAG_UP);
    }
    if r.rank + 1 < r.size {
        recv(r.rank + 1, TAG_DOWN);
    }
}

/// A mount for `node`, wrapped in the ADIO decorator when tracing.
fn mount(tb: &Testbed, node: usize, tracing: &Tracing) -> (Arc<SrbFs>, Box<dyn AdioFs>) {
    let srbfs = tb.srbfs(node);
    let fs: Box<dyn AdioFs> = match &tracing.0 {
        Some(t) => Box::new(TracedFs {
            inner: srbfs.clone(),
            tracer: t.clone(),
        }),
        None => Box::new(srbfs.clone()),
    };
    (srbfs, fs)
}

fn ckpt_rank(tb: &Testbed, inputs: &Inputs, cycles: usize, tracing: &Tracing, r: Rank) -> CkptRank {
    let rt = r.runtime().clone();
    let (srbfs, fs) = mount(tb, r.rank, tracing);
    let open = |flags| {
        StripedFile::open(
            &rt,
            fs.as_ref(),
            CKPT_PATH,
            flags,
            CKPT_STREAMS,
            StripeUnit::Even,
        )
        .expect("open checkpoint file")
    };
    // Rank 0 creates the file; the others open it only once it exists
    // (concurrent create-or-open of one path races in the server).
    let f = if r.rank == 0 {
        let f = open(OpenFlags::CreateRw);
        r.barrier();
        f
    } else {
        r.barrier();
        open(OpenFlags::ReadWrite)
    };
    let offset = |cycle: usize| (cycle * r.size + r.rank) as u64 * CKPT_SLAB;

    let mut out = CkptRank::default();
    // Wait for an in-flight slab write ("position 1": it has overlapped
    // the whole compute phase since it was issued).
    let settle = |out: &mut CkptRank, (req, op): (MultiRequest, _)| {
        let bytes = tracing
            .span_in(op, "core", "multi.wait", || req.wait())
            .unwrap_or(0);
        tracing.end_op(op, bytes);
        out.ok_ops += (bytes == CKPT_SLAB) as u64;
    };

    r.barrier();
    let t0 = rt.now();
    let mut prev = None;
    for cycle in 0..cycles {
        let c0 = rt.now();
        tracing.span("workload", "cycle", || {
            for i in 0..CKPT_INNER {
                tracing.span("mpi", "halo", || halo(tracing, &r));
                tracing.span("clusters", "compute", || {
                    tb.compute(r.rank, inputs.compute[r.rank][cycle * CKPT_INNER + i])
                });
            }
            if let Some(p) = prev.take() {
                settle(&mut out, p);
            }
            let op = tracing.begin_op("core", "client.write", CKPT_PATH, offset(cycle), CKPT_SLAB);
            let req = tracing.span_in(op, "core", "stripe.iwrite_at", || {
                f.iwrite_at(offset(cycle), Payload::sized(CKPT_SLAB))
            });
            out.blocks += req.len() as u64;
            prev = Some((req, op));
            tracing.span("mpi", "barrier", || r.barrier());
        });
        out.cycle_ms.push((rt.now() - c0).as_secs_f64() * 1e3);
    }
    if let Some(p) = prev.take() {
        settle(&mut out, p);
    }
    r.barrier();
    out.write_end = (rt.now() - t0).as_secs_f64();

    // Read every slab back: all requests queue on the streams' I/O threads
    // at once, then complete in FIFO order.
    let reads: Vec<_> = (0..cycles)
        .map(|cycle| {
            let op = tracing.begin_op("core", "client.read", CKPT_PATH, offset(cycle), CKPT_SLAB);
            let req = tracing.span_in(op, "core", "stripe.iread_at", || {
                f.iread_at(offset(cycle), CKPT_SLAB)
            });
            out.blocks += req.len() as u64;
            (req, op)
        })
        .collect();
    for (req, op) in reads {
        let bytes = tracing
            .span_in(op, "core", "multi.wait", || req.wait_read())
            .map_or(0, |p| p.len());
        tracing.end_op(op, bytes);
        out.ok_ops += (bytes == CKPT_SLAB) as u64;
    }
    r.barrier();
    out.read_end = (rt.now() - t0).as_secs_f64();

    for m in f.stream_meters().into_iter().flatten() {
        let snap = m.snapshot();
        out.stream_bytes.push(snap.payload_bytes);
        out.exchanges += snap.exchanges;
        out.latency_ms.push(snap.latency_s * 1e3);
    }
    out.migrated = f.stripe_stats().migrated;
    f.close().expect("close checkpoint file");
    out.recovered = srbfs.recovery_stats().recovered_ops;
    out
}

fn overlap_pass(
    inputs: Arc<Inputs>,
    cycles: usize,
    rt: Arc<dyn Runtime>,
    tracing: Tracing,
) -> PassOutput {
    let tb = testbed(&tracing, || Testbed::new(rt.clone(), das2(), CKPT_RANKS));
    let (tb2, tracing2) = (tb.clone(), tracing.clone());
    let ranks = run_world(tb.topo.clone(), CKPT_RANKS, move |r| {
        ckpt_rank(&tb2, &inputs, cycles, &tracing2, r)
    });

    let sum = |f: fn(&CkptRank) -> u64| ranks.iter().map(f).sum::<u64>();
    let attempted = Workload::OverlapCkpt.ops(cycles);
    let ok_ops = sum(|r| r.ok_ops);
    let phase_bytes = (CKPT_RANKS * cycles) as u64 * CKPT_SLAB;
    let write_end = ranks.iter().map(|r| r.write_end).fold(0.0, f64::max);
    let read_end = ranks.iter().map(|r| r.read_end).fold(0.0, f64::max);

    let mut layer = LayerMap::new();
    let server = server_layer(&mut layer, &tb, attempted, &tracing);
    // `StripedFile` does not expose its streams' `EngineStats`, so the
    // `core.engine.*` counters stay absent (0) here; the stripe layer's own
    // block count is what the driver can see from outside.
    layer.insert("core.stripe.blocks", sum(|r| r.blocks) as f64);
    let stream_bytes: Vec<f64> = ranks
        .iter()
        .flat_map(|r| &r.stream_bytes)
        .map(|&b| b as f64)
        .collect();
    let mean = stream_bytes.iter().sum::<f64>() / stream_bytes.len().max(1) as f64;
    let spread = stream_bytes.iter().copied().fold(0.0, f64::max)
        - stream_bytes.iter().copied().fold(f64::MAX, f64::min);
    layer.insert(
        "core.stripe.bytes_imbalance",
        if mean > 0.0 { spread / mean } else { 0.0 },
    );
    layer.insert("core.stripe.migrated", sum(|r| r.migrated) as f64);
    layer.insert("core.srbfs.recovered_ops", sum(|r| r.recovered) as f64);
    layer.insert("srb.transport.exchanges", sum(|r| r.exchanges) as f64);
    let lat: Vec<f64> = ranks
        .iter()
        .flat_map(|r| r.latency_ms.iter().copied())
        .collect();
    layer.insert(
        "srb.transport.latency_v_ms",
        lat.iter().sum::<f64>() / lat.len().max(1) as f64,
    );

    let mut problems = Vec::new();
    check(&mut problems, ok_ops == attempted, || {
        format!("{ok_ops} of {attempted} slab ops moved a full slab")
    });
    check(
        &mut problems,
        (server.bytes_written, server.bytes_read) == (phase_bytes, phase_bytes),
        || {
            format!(
                "server moved {}/{} bytes written/read, expected {phase_bytes} each",
                server.bytes_written, server.bytes_read
            )
        },
    );
    let admin = tb
        .server
        .connect(tb.route(0), USER, PASSWORD)
        .expect("admin connect");
    let size = admin.stat(CKPT_PATH).expect("stat checkpoint file").size;
    admin.disconnect().expect("admin disconnect");
    check(&mut problems, size == phase_bytes, || {
        format!("checkpoint file holds {size} bytes, expected {phase_bytes}")
    });

    let mut digest = Fnv::default();
    digest.u64(ok_ops);
    digest.u64(size);
    digest.u64(server.bytes_written);
    digest.u64(server.bytes_read);
    PassOutput {
        attempted,
        failed: attempted - ok_ops,
        sim: SimResult {
            makespan_s: read_end,
            write_mbps: mbps(phase_bytes, write_end),
            read_mbps: mbps(phase_bytes, read_end - write_end),
            latencies_ms: ranks
                .iter()
                .flat_map(|r| r.cycle_ms.iter().copied())
                .collect(),
        },
        digest: digest.0,
        stats: SimStats::default(),
        net: tb.net.stats(),
        layer,
        spans: tracing.take_spans(),
        problems,
    }
}

// ---------------------------------------------------------------------------
// compress_pipeline: Fig. 9 with real bytes end to end, closed loop.
// ---------------------------------------------------------------------------

/// What one rank of `compress_pipeline` reports.
#[derive(Default)]
struct CompressRank {
    ok_rounds: u64,
    round_ms: Vec<f64>,
    write_s: f64,
    read_s: f64,
    wire_bytes: u64,
    digest: Fnv,
    submitted: u64,
    completed: u64,
    io_threads: u64,
    recovered: u64,
}

fn compress_rank(
    tb: &Testbed,
    inputs: &Inputs,
    rounds: usize,
    tracing: &Tracing,
    r: Rank,
) -> CompressRank {
    let rt = r.runtime().clone();
    let (srbfs, fs) = mount(tb, r.rank, tracing);
    let traced_codec = tracing.0.as_ref().map(|t| TracedCodec {
        inner: Lzf,
        tracer: t.clone(),
    });
    let codec: &dyn Codec = match &traced_codec {
        Some(c) => c,
        None => &Lzf,
    };
    let (corpus, corpus_sum) = &inputs.corpus[r.rank];
    let mut out = CompressRank::default();
    r.barrier();
    for round in 0..rounds {
        let path = format!("/est-{}-{round}", r.rank);
        let t0 = rt.now();
        let f = File::open(&rt, fs.as_ref(), &path, OpenFlags::CreateRw)
            .expect("open remote EST object");
        let mut w = CompressedWriter::new(&f, codec)
            .block_size(COMPRESS_BLOCK)
            .depth(2)
            .compute_model(ComputeModel {
                cpu: tb.cpu(r.rank).clone(),
                rate: Bw::mbyte_per_s(100.0),
            });
        for chunk in corpus.chunks(COMPRESS_BLOCK) {
            tracing
                .span_on("core", "pipeline.write", &path, || w.write(chunk))
                .expect("pipeline write");
        }
        let (raw, wire) = tracing
            .span("core", "pipeline.finish", || w.finish())
            .expect("pipeline finish");
        let t1 = rt.now();
        let back = tracing
            .span("core", "pipeline.read_all", || {
                CompressedReader::read_all(&f, codec)
            })
            .expect("read compressed object back");
        let t2 = rt.now();
        let back_sum = adler32(&back);
        out.ok_rounds += (raw == corpus.len() as u64
            && back.len() == corpus.len()
            && back_sum == *corpus_sum) as u64;
        out.wire_bytes += wire;
        out.digest.u64(wire);
        out.digest.u64(back_sum as u64);
        let e = f.engine_stats();
        out.submitted += e.submitted;
        out.completed += e.completed;
        out.io_threads += e.threads_spawned as u64;
        f.close().expect("close remote EST object");
        fs.delete(&path).expect("delete remote EST object");
        out.write_s += (t1 - t0).as_secs_f64();
        out.read_s += (t2 - t1).as_secs_f64();
        out.round_ms.push((rt.now() - t0).as_secs_f64() * 1e3);
    }
    out.recovered = srbfs.recovery_stats().recovered_ops;
    out
}

fn compress_pass(
    inputs: Arc<Inputs>,
    rounds: usize,
    rt: Arc<dyn Runtime>,
    tracing: Tracing,
) -> PassOutput {
    let tb = testbed(&tracing, || {
        Testbed::new(rt.clone(), das2(), COMPRESS_RANKS)
    });
    let t0 = rt.now();
    let (tb2, tracing2, inputs2) = (tb.clone(), tracing.clone(), inputs.clone());
    let ranks = run_world(tb.topo.clone(), COMPRESS_RANKS, move |r| {
        compress_rank(&tb2, &inputs2, rounds, &tracing2, r)
    });
    let makespan_s = (rt.now() - t0).as_secs_f64();

    let sum = |f: fn(&CompressRank) -> u64| ranks.iter().map(f).sum::<u64>();
    let objects = (COMPRESS_RANKS * rounds) as u64;
    let attempted = Workload::CompressPipeline.ops(rounds);
    let ok_rounds = sum(|r| r.ok_rounds);
    let app_bytes = objects * COMPRESS_CORPUS as u64;
    let wire_bytes = sum(|r| r.wire_bytes);

    let mut layer = LayerMap::new();
    let server = server_layer(&mut layer, &tb, attempted, &tracing);
    layer.insert("core.engine.submitted", sum(|r| r.submitted) as f64);
    layer.insert("core.engine.completed", sum(|r| r.completed) as f64);
    layer.insert("core.engine.io_threads", sum(|r| r.io_threads) as f64);
    layer.insert(
        "core.pipeline.blocks",
        (objects * COMPRESS_CORPUS.div_ceil(COMPRESS_BLOCK) as u64) as f64,
    );
    layer.insert("core.srbfs.recovered_ops", sum(|r| r.recovered) as f64);
    layer.insert("compress.ratio", wire_bytes as f64 / app_bytes as f64);

    let mut problems = Vec::new();
    check(&mut problems, ok_rounds == objects, || {
        format!("{ok_rounds} of {objects} objects read back with the source's Adler-32")
    });
    // Every frame (header + body) is written once and read once.
    check(
        &mut problems,
        (server.bytes_written, server.bytes_read) == (wire_bytes, wire_bytes),
        || {
            format!(
                "server moved {}/{} bytes written/read, expected {wire_bytes} each",
                server.bytes_written, server.bytes_read
            )
        },
    );

    let mut digest = Fnv::default();
    for r in &ranks {
        digest.u64(r.digest.0);
    }
    let slowest = |f: fn(&CompressRank) -> f64| ranks.iter().map(f).fold(0.0, f64::max);
    PassOutput {
        attempted,
        // An object that does not read back intact fails every op on it.
        failed: (objects - ok_rounds) * (attempted / objects),
        sim: SimResult {
            makespan_s,
            write_mbps: mbps(app_bytes, slowest(|r| r.write_s)),
            read_mbps: mbps(app_bytes, slowest(|r| r.read_s)),
            latencies_ms: ranks
                .iter()
                .flat_map(|r| r.round_ms.iter().copied())
                .collect(),
        },
        digest: digest.0,
        stats: SimStats::default(),
        net: tb.net.stats(),
        layer,
        spans: tracing.take_spans(),
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, at a tenth of its size: the output checks hold, two
    /// passes on one seed agree bit for bit, and the traced pass leaves
    /// virtual time alone while recording the layers the workload reaches.
    #[test]
    fn smoke_passes_verify_repeat_and_trace() {
        for w in ALL {
            let size = w.size(10);
            let inputs = Arc::new(Inputs::generate(w, 7, size));
            let plain = pass(w, &inputs, size, false);
            let traced = pass(w, &inputs, size, true);
            assert_eq!(plain.problems, Vec::<String>::new(), "{}", w.name());
            assert_eq!(traced.problems, Vec::<String>::new(), "{}", w.name());
            assert_eq!((plain.attempted, plain.failed), (w.ops(size), 0));
            assert_eq!(
                plain.sim,
                traced.sim,
                "{}: tracing moved virtual time",
                w.name()
            );
            assert_eq!(plain.digest, traced.digest, "{}", w.name());
            assert!(plain.spans.is_empty() && !traced.spans.is_empty());
            assert!(plain.sim.makespan_s > 0.0 && plain.sim.write_mbps > 0.0);
            assert_eq!(plain.stats.peak_live_actors, traced.stats.peak_live_actors);
            let reaches_core = matches!(w, Workload::OverlapCkpt | Workload::CompressPipeline);
            assert_eq!(
                traced.layer.contains_key("core.srbfs.recovered_ops"),
                reaches_core
            );
            // Only `File` exposes the engine's counters, never arithmetic.
            assert_eq!(
                traced.layer.contains_key("core.engine.submitted"),
                w == Workload::CompressPipeline
            );
            assert_eq!(
                traced.spans.iter().any(|s| s.layer == "core.adio"),
                reaches_core
            );
            assert_eq!(
                traced.spans.iter().any(|s| s.layer == "compress"),
                w == Workload::CompressPipeline
            );
            assert!(traced.layer["srb.request_digest"] > 0.0);
        }
    }

    #[test]
    fn inputs_depend_on_the_seed_and_only_on_it() {
        let a = Inputs::generate(Workload::OverlapCkpt, 1, 4);
        let b = Inputs::generate(Workload::OverlapCkpt, 1, 4);
        let c = Inputs::generate(Workload::OverlapCkpt, 2, 4);
        assert_eq!(a.compute, b.compute);
        assert_ne!(a.compute, c.compute);
        let mean = CKPT_COMPUTE.as_secs_f64();
        assert!(a
            .compute
            .iter()
            .flatten()
            .all(|d| { (0.9 * mean..1.1 * mean).contains(&d.as_secs_f64()) }));
        // A shorter schedule is a prefix of a longer one: the warm-up pass
        // runs on the head of the timed passes' inputs.
        let long = Inputs::generate(Workload::SwarmWrite, 1, 100);
        let short = Inputs::generate(Workload::SwarmWrite, 1, 10);
        assert_eq!(long.arrivals[..10], short.arrivals[..]);
    }
}
