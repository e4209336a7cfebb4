//! The on-the-fly compression workload (paper §7.3, Fig. 9).
//!
//! Each node reads a 100 MB text file of nucleotide sequences from local
//! disk and ships it to the remote SRB filesystem in 1 MB blocks, to an
//! independent file per node, on a dedicated dual-processor node. The
//! figure's two curves are:
//!
//! * **Synchronous Write** — the bandwidth a synchronous application gets:
//!   block-by-block blocking writes of the raw data (compression in the
//!   critical path is not worth it without asynchrony — the paper's
//!   feasibility condition — so the sync baseline writes uncompressed);
//! * **Asynchronous Write** — SEMPLAR's pipeline: LZ compression of block
//!   *k+1* (on the second CPU) and the local read overlap the transmission
//!   of block *k*; only compressed bytes cross the WAN.
//!
//! Reported bandwidth is **application bytes per second** (the 100 MB the
//! application logically moved), matching the figure's "aggregate I/O
//! bandwidth" on the uncompressed volume.
//!
//! Every rank of every run ships the same source text, so the codec is a
//! [`MemoLzf`]: each distinct block is compressed once and its stream
//! reused, which leaves every byte and every virtual instant as they were.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use semplar::{AdioFs, CompressedWriter, ComputeModel, File, OpenFlags, Payload, RecoveryStats};
use semplar_clusters::Testbed;
use semplar_compress::{Codec, Corrupt, Lzf};
use semplar_mpi::run_world;
use semplar_netsim::Bw;

/// Which arm of the experiment to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompressMode {
    /// Blocking uncompressed writes (the figure's "Synchronous Write").
    SyncUncompressed,
    /// Compression in the critical path + blocking writes (ablation: what
    /// compression costs *without* asynchrony).
    SyncCompressed,
    /// The paper's pipeline (the figure's "Asynchronous Write").
    AsyncCompressed,
}

/// [`Lzf`] over one shared source text, each distinct block compressed once.
///
/// A slice that lies inside the source is keyed by its offset and length
/// there; the first request compresses it and keeps the stream, later ones
/// append the kept copy. Any other slice is compressed as usual. The output
/// is `Lzf`'s byte for byte, and the modelled compute time is unchanged
/// because [`CompressedWriter`] charges its `ComputeModel` per block, not
/// per codec call.
pub struct MemoLzf {
    source: Arc<Vec<u8>>,
    streams: Mutex<HashMap<(usize, usize), Vec<u8>>>,
}

impl MemoLzf {
    /// A codec over `source`, with nothing compressed yet.
    pub fn new(source: Arc<Vec<u8>>) -> MemoLzf {
        MemoLzf {
            source,
            streams: Mutex::new(HashMap::new()),
        }
    }

    /// The source text the workload ships.
    pub(crate) fn source(&self) -> &[u8] {
        &self.source
    }

    /// Where `src` starts in the source text, if it is a view of it.
    fn offset_of(&self, src: &[u8]) -> Option<usize> {
        let off = (src.as_ptr() as usize).checked_sub(self.source.as_ptr() as usize)?;
        (off + src.len() <= self.source.len()).then_some(off)
    }
}

impl Codec for MemoLzf {
    fn name(&self) -> &'static str {
        Lzf.name()
    }
    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) {
        let Some(off) = self.offset_of(src) else {
            return Lzf.compress(src, dst);
        };
        let mut streams = self.streams.lock();
        let stream = streams.entry((off, src.len())).or_insert_with(|| {
            let mut stream = Vec::new();
            Lzf.compress(src, &mut stream);
            stream
        });
        dst.extend_from_slice(stream);
    }
    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<(), Corrupt> {
        Lzf.decompress(src, dst)
    }
}

/// Modelled compression throughput on the reference CPU (the paper
/// measured compression ~two orders of magnitude faster than the
/// compressed transmission).
const COMPRESS_RATE: Bw = Bw::mbyte_per_s(100.0);

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct CompressParams {
    /// Bytes of source text per node (paper: 100 MB).
    pub file_bytes: u64,
    /// Pipeline block size (paper: 1 MB).
    pub block: usize,
    /// Experiment arm.
    pub mode: CompressMode,
}

impl Default for CompressParams {
    fn default() -> Self {
        CompressParams {
            file_bytes: 100 << 20,
            block: 1 << 20,
            mode: CompressMode::AsyncCompressed,
        }
    }
}

/// Results from one run.
#[derive(Clone, Debug)]
pub struct CompressReport {
    /// Nodes writing concurrently.
    pub procs: usize,
    /// Experiment arm.
    pub mode: CompressMode,
    /// Aggregate application-byte write bandwidth, Mb/s.
    pub agg_write_mbps: f64,
    /// Compression ratio achieved (1.0 for the uncompressed arm).
    pub ratio: f64,
    /// Client-side recovery counters summed over every rank's mount.
    pub recovery: RecoveryStats,
    /// Compressed frames re-shipped from their retained copies after a
    /// transient pipeline failure, summed over ranks (async arm only).
    pub resumed_frames: u64,
}

/// Run the workload on `n` nodes of `tb`. `codec` holds the source text
/// (each node reads the same buffer; only sizes matter on the wire); pass
/// one codec to every run over that text so each block is compressed once.
pub fn run_compress(
    tb: &Arc<Testbed>,
    n: usize,
    codec: Arc<MemoLzf>,
    p: CompressParams,
) -> CompressReport {
    assert!(n <= tb.nodes());
    assert_eq!(
        codec.source().len() as u64,
        p.file_bytes,
        "source buffer must match file_bytes"
    );
    let tb2 = tb.clone();
    let results = run_world(tb.topo.clone(), n, move |r| {
        let rt = r.runtime().clone();
        let fs = tb2.srbfs(r.rank);
        let f = File::open(&rt, &fs, &format!("/est-{}", r.rank), OpenFlags::CreateRw)
            .expect("open remote EST file");

        r.barrier();
        let t0 = rt.now();
        let (ratio, resumed) = match p.mode {
            CompressMode::SyncUncompressed => {
                let mut off = 0u64;
                for chunk in codec.source().chunks(p.block) {
                    tb2.local_read(r.rank, chunk.len() as u64);
                    f.write_at(off, &Payload::sized(chunk.len() as u64))
                        .expect("sync write");
                    off += chunk.len() as u64;
                }
                (1.0, 0)
            }
            CompressMode::SyncCompressed | CompressMode::AsyncCompressed => {
                let depth = if p.mode == CompressMode::AsyncCompressed {
                    2 // the paper's two-consecutive-blocks pipeline
                } else {
                    0
                };
                let mut w = CompressedWriter::new(&f, &*codec)
                    .block_size(p.block)
                    .depth(depth)
                    .compute_model(ComputeModel {
                        cpu: tb2.cpu(r.rank).clone(),
                        rate: COMPRESS_RATE,
                    })
                    .sized_output();
                for chunk in codec.source().chunks(p.block) {
                    tb2.local_read(r.rank, chunk.len() as u64);
                    w.write(chunk).expect("pipeline write");
                }
                let (bin, bout) = w.finish().expect("pipeline finish");
                (bout as f64 / bin as f64, w.resumed_frames())
            }
        };
        let elapsed = (rt.now() - t0).as_secs_f64();
        f.close().expect("close remote EST file");
        let _ = fs.delete(&format!("/est-{}", r.rank)); // free vault memory
        (elapsed, ratio, fs.recovery_stats(), resumed)
    });

    let slowest = results.iter().map(|r| r.0).fold(0.0f64, f64::max);
    let ratio = results.iter().map(|r| r.1).fold(0.0f64, f64::max);
    let mut recovery = RecoveryStats::default();
    let mut resumed_frames = 0;
    for (_, _, rec, res) in &results {
        recovery.disconnects += rec.disconnects;
        recovery.reconnects += rec.reconnects;
        recovery.shared_reconnects += rec.shared_reconnects;
        recovery.recovered_ops += rec.recovered_ops;
        recovery.recovery_time += rec.recovery_time;
        resumed_frames += res;
    }
    CompressReport {
        procs: n,
        mode: p.mode,
        agg_write_mbps: n as f64 * p.file_bytes as f64 * 8.0 / slowest / 1e6,
        ratio,
        recovery,
        resumed_frames,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estgen::{generate, EstGenConfig};
    use semplar_clusters::{das2, tg_ncsa, Testbed};
    use semplar_runtime::simulate;

    fn small(mode: CompressMode) -> CompressParams {
        CompressParams {
            file_bytes: 8 << 20,
            block: 1 << 20,
            mode,
        }
    }

    fn est_8mb() -> Arc<MemoLzf> {
        Arc::new(MemoLzf::new(Arc::new(generate(
            8 << 20,
            99,
            &EstGenConfig::default(),
        ))))
    }

    /// The memo's streams are `Lzf`'s byte for byte; a block of the source
    /// is compressed once however often it is asked for, one of another
    /// length at the same offset is a block of its own, and a block of the
    /// same bytes elsewhere is compressed afresh and kept nowhere.
    #[test]
    fn memo_codec_matches_lzf_and_compresses_each_block_once() {
        let memo = MemoLzf::new(Arc::new(generate(3 << 16, 5, &EstGenConfig::default())));
        let src = memo.source();
        let lzf = |b: &[u8]| {
            let mut out = vec![7];
            Lzf.compress(b, &mut out);
            out
        };
        let copy = src[..1 << 16].to_vec();
        for block in [
            &src[..1 << 16],
            &src[1 << 16..],
            &src[..1 << 16],
            &src[..9],
            &copy,
        ] {
            let mut out = vec![7];
            memo.compress(block, &mut out);
            assert!(out == lzf(block), "{} bytes", block.len());
        }
        assert_eq!(memo.streams.lock().len(), 3);
    }

    #[test]
    fn async_compression_beats_sync_uncompressed_by_the_paper_margin() {
        for spec in [das2(), tg_ncsa()] {
            let name = spec.name;
            let data = est_8mb();
            let (sync, asy) = simulate(move |rt| {
                let tb = Testbed::new(rt, spec, 2);
                (
                    run_compress(&tb, 2, data.clone(), small(CompressMode::SyncUncompressed)),
                    run_compress(&tb, 2, data, small(CompressMode::AsyncCompressed)),
                )
            });
            let gain = asy.agg_write_mbps / sync.agg_write_mbps - 1.0;
            assert!(
                (0.5..=1.3).contains(&gain),
                "{name}: compression gain {gain:.2} outside band \
                 (sync {:.1} Mb/s, async {:.1} Mb/s, ratio {:.2})",
                sync.agg_write_mbps,
                asy.agg_write_mbps,
                asy.ratio
            );
        }
    }

    #[test]
    fn async_pipeline_beats_sync_compressed() {
        let data = est_8mb();
        let (syncc, asy) = simulate(move |rt| {
            let tb = Testbed::new(rt, das2(), 1);
            (
                run_compress(&tb, 1, data.clone(), small(CompressMode::SyncCompressed)),
                run_compress(&tb, 1, data, small(CompressMode::AsyncCompressed)),
            )
        });
        assert!(
            asy.agg_write_mbps > syncc.agg_write_mbps,
            "pipeline {:.1} vs critical-path {:.1} Mb/s",
            asy.agg_write_mbps,
            syncc.agg_write_mbps
        );
    }

    #[test]
    fn ratio_is_reported_from_real_compression() {
        let data = est_8mb();
        let rep = simulate(move |rt| {
            let tb = Testbed::new(rt, das2(), 1);
            run_compress(&tb, 1, data, small(CompressMode::AsyncCompressed))
        });
        assert!((0.40..=0.65).contains(&rep.ratio), "ratio {}", rep.ratio);
    }
}
