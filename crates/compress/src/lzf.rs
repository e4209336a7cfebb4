//! A fast, byte-oriented LZ77 codec in the LZO/LZF family.
//!
//! The paper compresses 1 MB blocks of nucleotide text with miniLZO (§7.3),
//! chosen because it is "a relatively fast compression algorithm" whose
//! compression time is ~two orders of magnitude below the WAN transmission
//! time of the compressed data. This module implements the same class of
//! codec from scratch:
//!
//! * greedy LZ77 with a 3-byte hash-chain-free match finder,
//! * 8 KiB offset window, match lengths 3..=264,
//! * byte-aligned output (no entropy coding), so both directions run at
//!   hundreds of MB/s — the regime the paper's feasibility condition
//!   `T_comp + T_comp_xmit + T_decomp < T_uncomp_xmit` assumes.
//!
//! ## Stream format
//!
//! A sequence of tokens. The control byte `c` encodes:
//!
//! * `c < 0x20`: a literal run of `c + 1` bytes follows (1..=32 literals);
//! * otherwise a back-reference: `len3 = c >> 5` (1..=7). If `len3 == 7` an
//!   extension byte `e` follows and the match length is `9 + e`, else it is
//!   `len3 + 2`. The offset is `((c & 0x1F) << 8 | low) + 1` where `low` is
//!   the byte after the (optional) extension byte; offsets are 1..=8192.
//!
//! ## The encoder's two zones
//!
//! One greedy parse, compiled twice. In the **fast zone** — positions with
//! `MAX_LEN + 8` bytes to the end — nothing needs a clamp: one 8-byte load
//! serves the hash, the 3-byte verify, the first extension bytes and the
//! first seeds; longer matches extend a word at a time. The **tail** is the
//! byte-wise finder, every length clamped to the input. Both make the same
//! choice at every position, so the stream does not depend on where the
//! boundary falls; the byte-wise `mod reference` pins that in the tests.

/// Offsets must fit in 13 bits.
const MAX_OFF: usize = 1 << 13;
/// Maximum encodable match length (7 ⇒ extension byte, 9 + 255).
const MAX_LEN: usize = 264;
/// Minimum profitable match length.
const MIN_LEN: usize = 3;
/// Maximum literal-run length per token.
const MAX_LIT: usize = 32;

const HASH_BITS: u32 = 14;
/// Position + 1 of the latest occurrence of each hash; 0 = none yet.
type Table = [u32; 1 << HASH_BITS];

/// Hash of the three bytes in the low 24 bits of `v`.
#[inline]
fn hash3(v: u64) -> usize {
    ((v as u32 & 0x00FF_FFFF).wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// The bytes at `src[at..]`, little-endian: 8 in the fast zone, else 3.
fn load<const FAST: bool>(src: &[u8], at: usize) -> u64 {
    if FAST {
        u64::from_le_bytes(src[at..at + 8].try_into().expect("8 bytes"))
    } else {
        u32::from_le_bytes([src[at], src[at + 1], src[at + 2], 0]) as u64
    }
}

/// Compress `src`, appending to `dst`. Output for incompressible input is at
/// most `src.len() + src.len()/32 + 1` bytes.
pub fn compress(src: &[u8], dst: &mut Vec<u8>) {
    // Table entries are `u32`, so longer input goes piece by piece; a piece
    // never refers behind its first byte, so the token runs concatenate.
    for src in src.chunks(u32::MAX as usize) {
        let mut table: Box<Table> = Box::new([0; 1 << HASH_BITS]);
        // Written by index into a worst-case region (all literals), then cut.
        let base = dst.len();
        dst.resize(base + src.len() + src.len() / MAX_LIT + 1, 0);
        let out = &mut dst[base..];
        let at = parse::<true>(src, out, &mut table, (0, 0, 0));
        let (_, lit_start, o) = parse::<false>(src, out, &mut table, at);
        let o = put_literals(&src[lit_start..], out, o);
        dst.truncate(base + o);
    }
}

/// Write `lits` as literal-run tokens at `out[o..]`; returns the new `o`.
fn put_literals(lits: &[u8], out: &mut [u8], mut o: usize) -> usize {
    for run in lits.chunks(MAX_LIT) {
        out[o] = (run.len() - 1) as u8;
        out[o + 1..o + 1 + run.len()].copy_from_slice(run);
        o += 1 + run.len();
    }
    o
}

/// Match length at `i` against `cand`; under `MIN_LEN` means no match.
/// `FAST`: `w` is the word at `i` and every load is in bounds.
fn match_len<const FAST: bool>(src: &[u8], cand: usize, i: usize, w: u64) -> usize {
    if !FAST {
        let limit = (src.len() - i).min(MAX_LEN);
        return (0..limit)
            .take_while(|&k| src[cand + k] == src[i + k])
            .count();
    }
    let (mut x, mut len) = (w ^ load::<true>(src, cand), 0);
    // Lengths 3 and 4 leave by a predicted branch (72 % of EST matches are
    // three bytes); arithmetic on the XOR there measured slower.
    if x & 0x00FF_FFFF != 0 {
        return 0;
    }
    if x & 0xFF00_0000 != 0 {
        return 3;
    }
    if x & 0x00FF_0000_0000 != 0 {
        return 4;
    }
    while x == 0 && len + 8 < MAX_LEN {
        len += 8;
        x = load::<true>(src, i + len) ^ load::<true>(src, cand + len);
    }
    // `x == 0` here: the last word matched too, 64 / 8 more up to MAX_LEN.
    len + (x.trailing_zeros() / 8) as usize
}

/// The greedy parse over one zone, from and to `(i, lit_start, o)`: the
/// fast zone runs while `MAX_LEN + 8` bytes remain, the tail to the end.
fn parse<const FAST: bool>(
    src: &[u8],
    out: &mut [u8],
    table: &mut Table,
    (mut i, mut lit_start, mut o): (usize, usize, usize),
) -> (usize, usize, usize) {
    while i + if FAST { MAX_LEN + 8 } else { MIN_LEN } <= src.len() {
        let w = load::<FAST>(src, i);
        let h = hash3(w);
        let seen = table[h] as usize;
        table[h] = (i + 1) as u32;
        // `seen - 1 < i`, so `i - seen` is the 0-based offset on the wire.
        let off = i - seen;
        let matched = if seen == 0 || off >= MAX_OFF {
            0
        } else {
            match_len::<FAST>(src, seen - 1, i, w)
        };
        if matched < MIN_LEN {
            i += 1;
            continue;
        }
        o = put_literals(&src[lit_start..i], out, o);
        if matched <= 8 {
            out[o] = (((matched - 2) as u8) << 5) | ((off >> 8) as u8);
            o += 1;
        } else {
            out[o] = (7u8 << 5) | ((off >> 8) as u8);
            out[o + 1] = (matched - 9) as u8;
            o += 2;
        }
        out[o] = (off & 0xFF) as u8;
        o += 1;
        // Seed the hash table inside the match so later data can refer
        // back into it (cheap: every other position).
        let end = i + matched;
        let mut j = i + 1;
        if FAST {
            // The first three seeds are already in `w`.
            for k in [1, 3, 5] {
                if k < matched {
                    table[hash3(w >> (8 * k))] = (i + k + 1) as u32;
                }
            }
            j = i + 7;
        }
        while j + MIN_LEN <= src.len() && j < end {
            table[hash3(load::<FAST>(src, j))] = (j + 1) as u32;
            j += 2;
        }
        i = end;
        lit_start = i;
    }
    (i, lit_start, o)
}

/// Error returned when a compressed stream is malformed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Corrupt;

impl std::fmt::Display for Corrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt compressed stream")
    }
}
impl std::error::Error for Corrupt {}

/// Decompress `src`, appending to `dst`. Never panics on malformed input;
/// on `Err(Corrupt)` `dst` is truncated back to its length on entry, so a
/// bad frame leaves nothing behind.
pub fn decompress(src: &[u8], dst: &mut Vec<u8>) -> Result<(), Corrupt> {
    let base = dst.len();
    decode(src, dst, base).inspect_err(|_| dst.truncate(base))
}

/// The token loop; no back-reference may reach behind `dst[base]`.
fn decode(src: &[u8], dst: &mut Vec<u8>, base: usize) -> Result<(), Corrupt> {
    let mut i = 0usize;
    while i < src.len() {
        let c = src[i];
        i += 1;
        if c < 0x20 {
            let run = c as usize + 1;
            if i + run > src.len() {
                return Err(Corrupt);
            }
            dst.extend_from_slice(&src[i..i + run]);
            i += run;
        } else {
            let len3 = (c >> 5) as usize;
            let len = if len3 == 7 {
                let e = *src.get(i).ok_or(Corrupt)? as usize;
                i += 1;
                9 + e
            } else {
                len3 + 2
            };
            let low = *src.get(i).ok_or(Corrupt)? as usize;
            i += 1;
            let off = (((c & 0x1F) as usize) << 8 | low) + 1;
            if off > dst.len() - base {
                return Err(Corrupt);
            }
            let from = dst.len() - off;
            if off >= 8 && len <= 8 {
                // Nine in ten on EST text: a word in, a word out, cut to length.
                let word: [u8; 8] = dst[from..from + 8].try_into().expect("8 bytes");
                dst.extend_from_slice(&word);
                dst.truncate(from + off + len);
            } else if off >= len {
                dst.extend_from_within(from..from + len);
            } else {
                // Overlapping copies are the point (e.g. RLE-like matches).
                for k in from..from + len {
                    let b = dst[k];
                    dst.push(b);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
/// The byte-wise codec this module replaced (commit `0cb09db`), verbatim:
/// the oracle the tests hold the word-wise encoder and decoder to.
mod reference {
    use super::Corrupt;

    /// Offsets must fit in 13 bits.
    const MAX_OFF: usize = 1 << 13;
    /// Maximum encodable match length (7 ⇒ extension byte, 9 + 255).
    const MAX_LEN: usize = 264;
    /// Minimum profitable match length.
    const MIN_LEN: usize = 3;
    /// Maximum literal-run length per token.
    const MAX_LIT: usize = 32;

    const HASH_BITS: u32 = 14;

    #[inline]
    fn hash3(b: &[u8]) -> usize {
        let v = (b[0] as u32) | ((b[1] as u32) << 8) | ((b[2] as u32) << 16);
        ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
    }

    /// Compress `src`, appending to `dst`. Output for incompressible input is at
    /// most `src.len() + src.len()/32 + 1` bytes.
    pub(super) fn compress(src: &[u8], dst: &mut Vec<u8>) {
        dst.reserve(src.len() / 2 + 16);
        let n = src.len();
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut i = 0usize;
        let mut lit_start = 0usize;

        #[inline]
        fn flush_literals(src: &[u8], dst: &mut Vec<u8>, from: usize, to: usize) {
            let mut s = from;
            while s < to {
                let run = (to - s).min(MAX_LIT);
                dst.push((run - 1) as u8);
                dst.extend_from_slice(&src[s..s + run]);
                s += run;
            }
        }

        while i + MIN_LEN <= n {
            let h = hash3(&src[i..]);
            let cand = table[h];
            table[h] = i;
            let mut matched = 0usize;
            if cand != usize::MAX && i - cand <= MAX_OFF && src[cand..cand + 3] == src[i..i + 3] {
                let limit = (n - i).min(MAX_LEN);
                let mut l = 3;
                while l < limit && src[cand + l] == src[i + l] {
                    l += 1;
                }
                matched = l;
            }
            if matched >= MIN_LEN {
                flush_literals(src, dst, lit_start, i);
                let off = i - cand - 1; // 0-based on the wire
                if matched <= 8 {
                    dst.push((((matched - 2) as u8) << 5) | ((off >> 8) as u8));
                } else {
                    dst.push((7u8 << 5) | ((off >> 8) as u8));
                    dst.push((matched - 9) as u8);
                }
                dst.push((off & 0xFF) as u8);
                // Seed the hash table inside the match so later data can refer
                // back into it (cheap: every other position).
                let end = i + matched;
                let mut j = i + 1;
                while j + MIN_LEN <= n && j < end {
                    table[hash3(&src[j..])] = j;
                    j += 2;
                }
                i = end;
                lit_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(src, dst, lit_start, n);
    }

    /// Decompress `src`, appending to `dst`. Never panics on malformed input.
    pub(super) fn decompress(src: &[u8], dst: &mut Vec<u8>) -> Result<(), Corrupt> {
        let base = dst.len();
        let mut i = 0usize;
        while i < src.len() {
            let c = src[i];
            i += 1;
            if c < 0x20 {
                let run = c as usize + 1;
                if i + run > src.len() {
                    return Err(Corrupt);
                }
                dst.extend_from_slice(&src[i..i + run]);
                i += run;
            } else {
                let len3 = (c >> 5) as usize;
                let len = if len3 == 7 {
                    let e = *src.get(i).ok_or(Corrupt)? as usize;
                    i += 1;
                    9 + e
                } else {
                    len3 + 2
                };
                let low = *src.get(i).ok_or(Corrupt)? as usize;
                i += 1;
                let off = (((c & 0x1F) as usize) << 8 | low) + 1;
                let produced = dst.len() - base;
                if off > produced {
                    return Err(Corrupt);
                }
                let from = dst.len() - off;
                // Overlapping copies are the point (e.g. RLE-like matches).
                for i in from..from + len {
                    let b = dst[i];
                    dst.push(b);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compress then decompress `data` — with this codec and with the
    /// reference, which must agree byte for byte in both directions.
    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let mut c = Vec::new();
        compress(data, &mut c);
        let mut rc = Vec::new();
        reference::compress(data, &mut rc);
        assert!(
            c == rc,
            "stream differs from the reference, n={}",
            data.len()
        );
        decode_both(&c, b"").expect("decompress")
    }

    /// Decode `stream` after `prefix` with both decoders. They must agree on
    /// the verdict and on every byte of a valid stream, and on `Corrupt`
    /// this one must leave `dst` exactly as it was on entry.
    fn decode_both(stream: &[u8], prefix: &[u8]) -> Result<Vec<u8>, Corrupt> {
        let mut d = prefix.to_vec();
        let got = decompress(stream, &mut d);
        let mut rd = prefix.to_vec();
        assert_eq!(got, reference::decompress(stream, &mut rd));
        match got {
            Ok(()) => assert!(d == rd, "decoders disagree on a valid stream"),
            Err(Corrupt) => assert!(d == prefix, "a corrupt stream left bytes behind"),
        }
        got.map(|()| d.split_off(prefix.len()))
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// EST-like FASTA text: headers, fresh 4-letter sequence, repeats of
    /// earlier material inside the 8 KiB window, poly-A runs.
    fn est_like(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        let mut out = Vec::with_capacity(n + 256);
        while out.len() < n {
            let r = xorshift(&mut x);
            let len = 8 + (r >> 8) as usize % 160;
            match r % 8 {
                0 => {
                    out.extend_from_slice(format!(">EST{:07} synthetic est\n", r >> 40).as_bytes())
                }
                1..=4 if out.len() > 400 => {
                    let back = 1 + (r >> 20) as usize % out.len().min(8000);
                    let from = out.len() - back;
                    for k in from..from + len {
                        let b = out[k];
                        out.push(b);
                    }
                }
                5 => out.extend(std::iter::repeat_n(b'A', len / 4)),
                _ => out.extend((0..len).map(|_| b"ACGT"[(xorshift(&mut x) & 3) as usize])),
            }
        }
        out.truncate(n);
        out
    }

    #[test]
    fn every_prefix_of_est_text_matches_the_reference() {
        // 0..=600 crosses the fast zone's first position (n = MAX_LEN + 8)
        // and moves the fast/tail boundary across every token on the way.
        let data = est_like(600, 7);
        for n in 0..=data.len() {
            assert_eq!(roundtrip(&data[..n]), &data[..n], "n={n}");
        }
    }

    #[test]
    fn runs_noise_and_est_blocks_match_the_reference() {
        let mut x = 99u64;
        let noise: Vec<u8> = (0..200_000).map(|_| xorshift(&mut x) as u8).collect();
        let est = est_like(16 << 20, 1);
        let inputs = [&[b'A'; 100_000][..], &noise[..]];
        for data in inputs.into_iter().chain(est.chunks(1 << 20)) {
            assert!(roundtrip(data) == data);
        }
    }

    /// A 16-byte literal run, then one back-reference token.
    fn literals_then_match(off: usize, len: usize) -> Vec<u8> {
        let mut s = vec![15u8];
        s.extend(b"0123456789abcdef");
        if len <= 8 {
            s.push(((len - 2) as u8) << 5 | ((off - 1) >> 8) as u8);
        } else {
            s.extend([7 << 5 | ((off - 1) >> 8) as u8, (len - 9) as u8]);
        }
        s.push(((off - 1) & 0xFF) as u8);
        s
    }

    #[test]
    fn hand_built_back_references_decode_like_the_reference() {
        // Every copy shape: overlapping (off < len), off < 8 at every
        // length (never the word copy), word copies, extend_from_within.
        for off in 1..=16 {
            for len in 3..=264 {
                let out = decode_both(&literals_then_match(off, len), b"prefix:")
                    .unwrap_or_else(|_| panic!("off={off} len={len}"));
                assert_eq!(out.len(), 16 + len, "off={off} len={len}");
                for (k, &b) in out.iter().enumerate().skip(16) {
                    assert_eq!(b, out[k - off], "off={off} len={len} k={k}");
                }
            }
        }
    }

    #[test]
    fn back_reference_into_the_callers_prefix_is_corrupt() {
        // 16 bytes produced, offset 17..=24: in bounds of `dst`, which
        // holds a 32-byte prefix, but behind this stream's first byte.
        for off in 17..=24 {
            for len in [3, 8, 9, 264] {
                let prefix = [b'P'; 32];
                let got = decode_both(&literals_then_match(off, len), &prefix);
                assert_eq!(got, Err(Corrupt), "off={off} len={len}");
            }
        }
    }

    #[test]
    fn corrupt_stream_leaves_dst_as_on_entry() {
        let data = est_like(16 << 10, 3);
        let mut c = Vec::new();
        compress(&data, &mut c);
        let mut errors = 0;
        for cut in 0..c.len() {
            // A cut at a token boundary is a valid, shorter stream.
            match decode_both(&c[..cut], b"kept") {
                Ok(out) => assert!(data.starts_with(&out), "cut={cut}"),
                Err(Corrupt) => errors += 1,
            }
        }
        assert!(errors > c.len() / 2, "only {errors} cuts were corrupt");
    }

    #[test]
    fn streams_of_separate_calls_concatenate() {
        // What `compress` relies on for input beyond `u32::MAX` bytes.
        let data = est_like(40_000, 5);
        let (a, b) = data.split_at(23_456);
        let mut c = Vec::new();
        compress(a, &mut c);
        compress(b, &mut c);
        assert!(decode_both(&c, b"").unwrap() == data);
    }

    #[test]
    fn empty_roundtrip() {
        assert_eq!(roundtrip(b""), b"");
    }

    #[test]
    fn short_inputs_roundtrip() {
        for n in 0..20 {
            let data: Vec<u8> = (0..n).map(|i| i as u8).collect();
            assert_eq!(roundtrip(&data), data, "n={n}");
        }
    }

    #[test]
    fn repetitive_input_compresses_hard() {
        let data = vec![b'A'; 100_000];
        let mut c = Vec::new();
        compress(&data, &mut c);
        assert!(
            c.len() < data.len() / 50,
            "only {} -> {}",
            data.len(),
            c.len()
        );
        let mut d = Vec::new();
        decompress(&c, &mut d).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn dna_like_text_compresses_meaningfully() {
        // 4-letter alphabet with repeated motifs, like EST data.
        let motif = b"ACGTGGCTAACGGATTACAGCTT";
        let mut data = Vec::new();
        let mut x: u64 = 12345;
        while data.len() < 200_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if x.is_multiple_of(3) {
                data.extend_from_slice(motif);
            } else {
                for k in 0..16 {
                    data.push(b"ACGT"[((x >> (k * 2)) & 3) as usize]);
                }
            }
        }
        let mut c = Vec::new();
        compress(&data, &mut c);
        let ratio = c.len() as f64 / data.len() as f64;
        assert!(ratio < 0.8, "ratio {ratio}");
        let mut d = Vec::new();
        decompress(&c, &mut d).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn incompressible_input_expands_boundedly() {
        let mut x: u64 = 99;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xFF) as u8
            })
            .collect();
        let mut c = Vec::new();
        compress(&data, &mut c);
        assert!(c.len() <= data.len() + data.len() / 32 + 1);
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn long_matches_use_extension_byte() {
        let mut data = b"0123456789abcdef".repeat(40); // 640 bytes, long matches
        data.extend_from_slice(b"tail");
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn offsets_beyond_window_are_not_used() {
        // A motif, 10 KiB of noise (> 8 KiB window), then the motif again:
        // the second copy cannot reference the first; output must still
        // round-trip.
        let mut data = b"THE-QUICK-BROWN-FOX".to_vec();
        let mut x: u64 = 7;
        for _ in 0..10_240 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.push((x >> 32) as u8);
        }
        data.extend_from_slice(b"THE-QUICK-BROWN-FOX");
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let data = b"AAAAAAAAAABBBBBBBBBBAAAAAAAAAA".repeat(10);
        let mut c = Vec::new();
        compress(&data, &mut c);
        for cut in 0..c.len() {
            let _ = decode_both(&c[..cut], b""); // must not panic
        }
    }

    #[test]
    fn garbage_streams_never_panic() {
        let mut x: u64 = 3;
        for trial in 0..200 {
            let len = (trial % 64) + 1;
            let garbage: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x & 0xFF) as u8
                })
                .collect();
            let _ = decode_both(&garbage, b"");
        }
    }

    #[test]
    fn decompress_appends_after_existing_prefix() {
        let mut c = Vec::new();
        compress(b"hello world hello world", &mut c);
        let mut d = b"prefix:".to_vec();
        decompress(&c, &mut d).unwrap();
        assert_eq!(d, b"prefix:hello world hello world");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
                prop_assert_eq!(roundtrip(&data), data);
            }

            #[test]
            fn roundtrip_low_entropy(
                seed in proptest::collection::vec(0u8..4, 1..64),
                reps in 1usize..200,
            ) {
                let alphabet = b"ACGT";
                let unit: Vec<u8> = seed.iter().map(|&s| alphabet[s as usize]).collect();
                let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
                prop_assert_eq!(roundtrip(&data), data);
            }

            #[test]
            fn arbitrary_bytes_never_panic_decoder(
                garbage in proptest::collection::vec(any::<u8>(), 0..512)
            ) {
                let _ = decode_both(&garbage, b"pre");
            }
        }
    }
}
