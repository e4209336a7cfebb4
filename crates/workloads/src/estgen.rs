//! Synthetic EST (expressed sequence tag) data.
//!
//! The paper's MPI-BLAST benchmark searches "a subset of the sequences of
//! all human ESTs in GenBank at UCSC (687,158 sequences for a total size of
//! 256 MB)", and the compression experiment reads "a 100 MB text file
//! consisting of nucleotide sequences for the human EST" (§6, §7.3). We
//! cannot ship GenBank, so this module generates FASTA-formatted nucleotide
//! text with the statistical property that matters for the experiments:
//! **LZ compressibility around 2:1**, achieved with a mixture of fresh
//! random sequence, repeated motifs (biological sequence is full of
//! repeats), and poly-A tails (ESTs are mRNA-derived and poly-adenylated).

use std::collections::VecDeque;
use std::io::Write;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BASES: [u8; 4] = *b"ACGT";
/// How far back, past its own length, a repeat's source may start.
const REPEAT_WINDOW: usize = 6000;

/// Configuration for the generator.
#[derive(Clone, Debug)]
pub struct EstGenConfig {
    /// Mean sequence length between FASTA headers.
    pub mean_seq_len: usize,
    /// Probability that the next emitted chunk is a repeat of earlier
    /// material (the knob controlling compressibility).
    pub repeat_prob: f64,
    /// Repeated-chunk length range.
    pub repeat_len: (usize, usize),
}

impl Default for EstGenConfig {
    fn default() -> Self {
        EstGenConfig {
            mean_seq_len: 420, // typical EST read length
            repeat_prob: 0.58,
            repeat_len: (40, 200),
        }
    }
}

/// Generate `bytes` of FASTA-formatted EST-like text, deterministically
/// from `seed`.
///
/// Every byte outside a header line or a line break is a base, so the
/// generator keeps the spans of those (`dirty`, in write order) for the
/// window a repeat can reach: a repeat whose source misses them all is one
/// in-place copy, and only the part of one that overlaps a span is
/// filtered byte by byte.
pub fn generate(bytes: usize, seed: u64, cfg: &EstGenConfig) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(bytes + 128);
    let mut dirty: VecDeque<(usize, usize)> = VecDeque::new();
    let reach = cfg.repeat_len.1 + REPEAT_WINDOW;
    let mut seq_no = 0usize;
    let mut since_header = usize::MAX; // force an initial header
    while out.len() < bytes {
        if since_header >= cfg.mean_seq_len {
            seq_no += 1;
            let at = out.len();
            writeln!(out, ">EST{seq_no:07} synthetic human est").expect("a Vec takes every write");
            dirty.push_back((at, out.len()));
            since_header = 0;
            // Poly-A tail on the way out of the previous record shows up at
            // the start of some reads instead; emit one occasionally.
            if rng.gen_bool(0.3) {
                let n = rng.gen_range(8usize..30);
                out.extend(std::iter::repeat_n(b'A', n));
                since_header += n;
            }
            continue;
        }
        if rng.gen_bool(cfg.repeat_prob) && out.len() > cfg.repeat_len.1 + 2 {
            // Copy a chunk from recent history (an Alu-like repeat), minus
            // the header and newline bytes it spans.
            let len = rng.gen_range(cfg.repeat_len.0..=cfg.repeat_len.1);
            let window = REPEAT_WINDOW.min(out.len() - len);
            let start = out.len() - len - rng.gen_range(0..window.max(1));
            let (end, before) = (start + len, out.len());
            while dirty.front().is_some_and(|&(_, e)| e + reach <= before) {
                dirty.pop_front();
            }
            let mut at = start;
            for &(s, e) in dirty.range(dirty.partition_point(|&(_, e)| e <= start)..) {
                if s >= end {
                    break;
                }
                out.extend_from_within(at..s.max(at));
                for i in s.max(at)..e.min(end) {
                    if BASES.contains(&out[i]) {
                        out.push(out[i]);
                    }
                }
                at = e.min(end);
            }
            out.extend_from_within(at..end);
            since_header += out.len() - before;
        } else {
            // Fresh random sequence with a mildly skewed base composition
            // (GC content ~42%, like human ESTs): A, T, G, C below 0.29,
            // 0.58, 0.79 and 1.
            let len = rng.gen_range(20usize..120);
            out.extend((0..len).map(|_| {
                let r: f64 = rng.gen();
                b"ATGC"[(r >= 0.29) as usize + (r >= 0.58) as usize + (r >= 0.79) as usize]
            }));
            since_header += len;
        }
        // Wrap lines FASTA-style.
        if since_header % 60 < 3 {
            dirty.push_back((out.len(), out.len() + 1));
            out.push(b'\n');
        }
    }
    out.truncate(bytes);
    out
}

/// The generator as first written (a temporary copy and a byte filter per
/// repeat, an `if` chain per base): the oracle `generate` must match byte
/// for byte.
#[cfg(test)]
mod reference {
    use super::{EstGenConfig, BASES};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Generate `bytes` of FASTA-formatted EST-like text, deterministically
    /// from `seed`.
    pub(super) fn generate(bytes: usize, seed: u64, cfg: &EstGenConfig) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(bytes + 128);
        let mut seq_no = 0usize;
        let mut since_header = usize::MAX; // force an initial header
        while out.len() < bytes {
            if since_header >= cfg.mean_seq_len {
                seq_no += 1;
                out.extend_from_slice(format!(">EST{seq_no:07} synthetic human est\n").as_bytes());
                since_header = 0;
                // Poly-A tail on the way out of the previous record shows up at
                // the start of some reads instead; emit one occasionally.
                if rng.gen_bool(0.3) {
                    let n = rng.gen_range(8usize..30);
                    out.extend(std::iter::repeat_n(b'A', n));
                    since_header += n;
                }
                continue;
            }
            if rng.gen_bool(cfg.repeat_prob) && out.len() > cfg.repeat_len.1 + 2 {
                // Copy a chunk from recent history (an Alu-like repeat).
                let len = rng.gen_range(cfg.repeat_len.0..=cfg.repeat_len.1);
                let window = 6000.min(out.len() - len);
                let start = out.len() - len - rng.gen_range(0..window.max(1));
                let chunk: Vec<u8> = out[start..start + len].to_vec();
                // Strip newlines/header chars from the copied region.
                let clean: Vec<u8> = chunk.into_iter().filter(|b| BASES.contains(b)).collect();
                since_header += clean.len();
                out.extend(clean);
            } else {
                // Fresh random sequence with a mildly skewed base composition
                // (GC content ~42%, like human ESTs).
                let len = rng.gen_range(20usize..120);
                for _ in 0..len {
                    let r: f64 = rng.gen();
                    let b = if r < 0.29 {
                        b'A'
                    } else if r < 0.58 {
                        b'T'
                    } else if r < 0.79 {
                        b'G'
                    } else {
                        b'C'
                    };
                    out.push(b);
                }
                since_header += len;
            }
            // Wrap lines FASTA-style.
            if since_header % 60 < 3 {
                out.push(b'\n');
            }
        }
        out.truncate(bytes);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_compress::Codec;

    #[test]
    fn deterministic_for_a_seed() {
        let a = generate(10_000, 7, &EstGenConfig::default());
        let b = generate(10_000, 7, &EstGenConfig::default());
        let c = generate(10_000, 8, &EstGenConfig::default());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 10_000);
    }

    /// The oracle: every seed and size, including a cut inside the first
    /// header (37 bytes) and a 16 MiB corpus, matches the first-written
    /// generator byte for byte.
    #[test]
    fn matches_the_reference_generator_byte_for_byte() {
        let cfg = EstGenConfig::default();
        for seed in [1, 2, 31, 32, 99, 2006] {
            for bytes in [0, 1, 37, 4_095, (1 << 20) + 7, 16 << 20] {
                let (got, want) = (
                    generate(bytes, seed, &cfg),
                    reference::generate(bytes, seed, &cfg),
                );
                assert!(got == want, "seed {seed}, {bytes} bytes differ");
            }
        }
    }

    #[test]
    fn looks_like_fasta_nucleotides() {
        let data = generate(50_000, 1, &EstGenConfig::default());
        assert!(data.starts_with(b">EST"));
        let headers = data.iter().filter(|&&b| b == b'>').count();
        assert!(headers > 20, "only {headers} records in 50 KB");
        let acgt = data.iter().filter(|b| BASES.contains(b)).count();
        assert!(
            acgt as f64 / data.len() as f64 > 0.85,
            "not mostly nucleotides"
        );
    }

    /// The property the §7.3 experiment depends on: LZ-class compression
    /// lands near 2:1 on this data (paper-era LZO on EST text).
    #[test]
    fn lzf_ratio_is_near_one_half() {
        let data = generate(2 << 20, 42, &EstGenConfig::default());
        let ratio = semplar_compress::Lzf.ratio(&data);
        assert!(
            (0.40..=0.62).contains(&ratio),
            "LZF ratio {ratio:.3} outside the EST calibration band"
        );
    }
}
