//! The LZF codec in isolation: encoder and decoder throughput, ratio and a
//! digest of the compressed stream, on the corpus the benchmark's
//! `compress_pipeline` workload ships (16 MiB of `estgen` text, seed 1, in
//! 1 MiB blocks). This is the number to quote for a codec change: the
//! benchmark's traced `compress.*_mb_per_s` also carry the pass's allocator
//! and cache state and move ± 20 % with them.
//!
//! ```text
//! taskset -c 0 cargo run --release --example codec_throughput
//! ```
//!
//! The stream is pinned: a ratio or digest other than the constants below
//! exits 1 (CI runs this once). A timing never fails it.

use std::hint::black_box;
use std::time::Instant;

use semplar_repro::compress::lzf;
use semplar_repro::srb::adler32;
use semplar_repro::workloads::estgen::{generate, EstGenConfig};

const CORPUS: usize = 16 << 20;
const BLOCK: usize = 1 << 20;
const ROUNDS: usize = 7;

/// Compressed bytes for the corpus, taken from the byte-wise codec this
/// one replaced (commit `0cb09db`).
const PINNED_BYTES: usize = 8_935_065;
/// Adler-32 of the blocks' compressed streams back to back, same source.
const PINNED_DIGEST: u32 = 0x71ab_88d9;

/// Best-of-`ROUNDS` MiB/s of `pass`, which handles the whole corpus once.
fn best_mib_per_s(mut pass: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        pass();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (CORPUS >> 20) as f64 / best
}

fn main() {
    let corpus = generate(CORPUS, 1, &EstGenConfig::default());
    let blocks: Vec<&[u8]> = corpus.chunks(BLOCK).collect();

    let mut streams: Vec<Vec<u8>> = vec![Vec::new(); blocks.len()];
    let enc = best_mib_per_s(|| {
        for (block, out) in blocks.iter().zip(&mut streams) {
            out.clear();
            lzf::compress(black_box(block), out);
        }
    });

    let mut back = Vec::with_capacity(BLOCK);
    let dec = best_mib_per_s(|| {
        for (block, stream) in blocks.iter().zip(&streams) {
            back.clear();
            lzf::decompress(black_box(stream), &mut back).expect("own stream decodes");
            assert_eq!(back.len(), block.len());
        }
    });
    for (block, stream) in blocks.iter().zip(&streams) {
        back.clear();
        lzf::decompress(stream, &mut back).expect("own stream decodes");
        assert!(back == *block, "round trip changed the data");
    }

    let bytes: usize = streams.iter().map(Vec::len).sum();
    let digest = adler32(&streams.concat());
    println!(
        "corpus            {} MiB in {} KiB blocks",
        CORPUS >> 20,
        BLOCK >> 10
    );
    println!("encoder_mib_per_s {enc:.0}");
    println!("decoder_mib_per_s {dec:.0}");
    println!(
        "ratio             {:.6}",
        bytes as f64 / corpus.len() as f64
    );
    println!("compressed_bytes  {bytes}");
    println!("stream_digest     {digest:#010x}");
    if (bytes, digest) != (PINNED_BYTES, PINNED_DIGEST) {
        eprintln!("stream changed: pinned {PINNED_BYTES} bytes, digest {PINNED_DIGEST:#010x}");
        std::process::exit(1);
    }
}
