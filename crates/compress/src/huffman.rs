//! Order-0 Huffman coding, and an LZ77+Huffman composite codec.
//!
//! The paper (§7.3) measured LZO-class compression two orders of magnitude
//! faster than the compressed transmission and concluded that the
//! asynchronous interface leaves headroom for "more advanced forms of
//! on-the-fly preprocessing... (e.g. more sophisticated compression
//! algorithms)". This module supplies that heavier codec for the ablations:
//! canonical Huffman over the byte stream, optionally applied to the
//! [`crate::lzf`] output (an LZ77+entropy combination, the deflate
//! recipe). On 4-letter nucleotide text the entropy stage alone approaches
//! the ~2 bits/char floor that byte-aligned LZ cannot reach.
//!
//! ## Stream format
//!
//! `[orig_len: u32 LE][256 × code_len: u8][padded bitstream]`. Code lengths
//! are canonical-Huffman lengths (0 = symbol absent, max 15); the decoder
//! rebuilds the same canonical code. A zero-length input is just the
//! header.

use crate::lzf;

/// Error for malformed Huffman streams.
pub use crate::lzf::Corrupt;

const MAX_CODE_LEN: usize = 15;

/// Build canonical code lengths for the byte frequencies via a simple
/// package-style approach: standard heap-based Huffman, then limit lengths
/// by flattening (rare with MAX_CODE_LEN = 15 and u32 counts).
fn code_lengths(freq: &[u64; 256]) -> [u8; 256] {
    #[derive(Clone)]
    struct Node {
        weight: u64,
        symbols: Vec<u8>,
    }
    let mut lens = [0u8; 256];
    let mut nodes: Vec<Node> = freq
        .iter()
        .enumerate()
        .filter(|&(_, &w)| w > 0)
        .map(|(s, &w)| Node {
            weight: w,
            symbols: vec![s as u8],
        })
        .collect();
    if nodes.is_empty() {
        return lens;
    }
    if nodes.len() == 1 {
        lens[nodes[0].symbols[0] as usize] = 1;
        return lens;
    }
    // Repeatedly merge the two lightest nodes; every symbol inside a merged
    // node gains one bit of depth.
    while nodes.len() > 1 {
        nodes.sort_by_key(|n| std::cmp::Reverse(n.weight));
        let a = nodes.pop().expect("len > 1");
        let b = nodes.pop().expect("len > 1");
        for &s in a.symbols.iter().chain(&b.symbols) {
            lens[s as usize] += 1;
        }
        let mut symbols = a.symbols;
        symbols.extend(b.symbols);
        nodes.push(Node {
            weight: a.weight + b.weight,
            symbols,
        });
    }
    // Depth can exceed 15 bits for Fibonacci-skewed distributions. Naively
    // clamping would violate the Kraft inequality and desynchronize the
    // decoder, so fall back to a flat 8-bit code (exactly Kraft-tight over
    // all 256 symbols) — correct always, merely incompressible.
    if lens.iter().any(|&l| l > MAX_CODE_LEN as u8) {
        return [8u8; 256];
    }
    lens
}

/// Assign canonical codes from lengths: shorter codes first, ties by symbol.
fn canonical_codes(lens: &[u8; 256]) -> [(u16, u8); 256] {
    let mut order: Vec<usize> = (0..256).filter(|&s| lens[s] > 0).collect();
    order.sort_by_key(|&s| (lens[s], s));
    let mut codes = [(0u16, 0u8); 256];
    let mut code: u16 = 0;
    let mut prev_len = 0u8;
    for &s in &order {
        let l = lens[s];
        code <<= l - prev_len;
        codes[s] = (code, l);
        code += 1;
        prev_len = l;
    }
    codes
}

/// Huffman-compress `src`, appending to `dst`.
pub fn huff_compress(src: &[u8], dst: &mut Vec<u8>) {
    dst.extend_from_slice(&(src.len() as u32).to_le_bytes());
    let mut freq = [0u64; 256];
    for &b in src {
        freq[b as usize] += 1;
    }
    let lens = code_lengths(&freq);
    dst.extend_from_slice(&lens);
    let codes = canonical_codes(&lens);
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    for &b in src {
        let (code, len) = codes[b as usize];
        acc = (acc << len) | code as u64;
        nbits += len as u32;
        while nbits >= 8 {
            nbits -= 8;
            dst.push((acc >> nbits) as u8);
        }
    }
    if nbits > 0 {
        dst.push((acc << (8 - nbits)) as u8);
    }
}

/// Decompress a [`huff_compress`] stream, appending to `dst`.
pub fn huff_decompress(src: &[u8], dst: &mut Vec<u8>) -> Result<(), Corrupt> {
    if src.len() < 4 + 256 {
        return Err(Corrupt);
    }
    let n = u32::from_le_bytes(src[0..4].try_into().expect("4 bytes")) as usize;
    let mut lens = [0u8; 256];
    lens.copy_from_slice(&src[4..260]);
    if n == 0 {
        return Ok(());
    }
    if lens.iter().all(|&l| l == 0) {
        return Err(Corrupt);
    }
    if lens.iter().any(|&l| l > MAX_CODE_LEN as u8) {
        return Err(Corrupt);
    }
    let codes = canonical_codes(&lens);
    // Decoding table: (code value, length) → symbol, looked up by walking
    // bits; a simple map keyed by (len, code) is fast enough here.
    let mut by_len: Vec<Vec<(u16, u8)>> = vec![Vec::new(); MAX_CODE_LEN + 1];
    for s in 0..256 {
        let (code, len) = codes[s];
        if lens[s] > 0 {
            by_len[len as usize].push((code, s as u8));
        }
    }
    for v in by_len.iter_mut() {
        v.sort_unstable();
    }
    let body = &src[260..];
    let mut bitpos = 0usize;
    let total_bits = body.len() * 8;
    for _ in 0..n {
        let mut code: u16 = 0;
        let mut len: usize = 0;
        loop {
            if bitpos >= total_bits || len >= MAX_CODE_LEN {
                // Ran out of bits, or no code of any legal length matches.
                return Err(Corrupt);
            }
            let bit = (body[bitpos / 8] >> (7 - bitpos % 8)) & 1;
            bitpos += 1;
            code = (code << 1) | bit as u16;
            len += 1;
            if let Ok(i) = by_len[len].binary_search_by_key(&code, |&(c, _)| c) {
                dst.push(by_len[len][i].1);
                break;
            }
        }
    }
    Ok(())
}

/// The composite LZ77 + Huffman codec (a deflate-like recipe): LZ removes
/// repeats, the entropy stage squeezes the 4-letter alphabet. Slower than
/// [`Lzf`](crate::Lzf) but visibly denser on nucleotide text. Like
/// [`lzf::decompress`], a `Corrupt` stream leaves `dst` as it was on entry.
#[derive(Clone, Copy, Debug, Default)]
pub struct LzHuf;

impl crate::Codec for LzHuf {
    fn name(&self) -> &'static str {
        "lzhuf"
    }
    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) {
        let mut lz = Vec::new();
        lzf::compress(src, &mut lz);
        huff_compress(&lz, dst);
    }
    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<(), Corrupt> {
        let mut lz = Vec::new();
        huff_decompress(src, &mut lz)?;
        lzf::decompress(&lz, dst)
    }
}

/// Pure entropy coding as its own codec (no LZ stage).
#[derive(Clone, Copy, Debug, Default)]
pub struct Huffman;

impl crate::Codec for Huffman {
    fn name(&self) -> &'static str {
        "huffman"
    }
    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) {
        huff_compress(src, dst);
    }
    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<(), Corrupt> {
        huff_decompress(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Codec;

    fn roundtrip_huff(data: &[u8]) -> Vec<u8> {
        let mut c = Vec::new();
        huff_compress(data, &mut c);
        let mut d = Vec::new();
        huff_decompress(&c, &mut d).expect("decode");
        d
    }

    #[test]
    fn huffman_roundtrips_simple_inputs() {
        for data in [
            &b""[..],
            &b"a"[..],
            &b"ab"[..],
            &b"aaaaaaaab"[..],
            &b"the quick brown fox jumps over the lazy dog"[..],
        ] {
            assert_eq!(roundtrip_huff(data), data);
        }
    }

    #[test]
    fn huffman_approaches_two_bits_on_nucleotides() {
        let mut x: u64 = 5;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                b"ACGT"[(x & 3) as usize]
            })
            .collect();
        let mut c = Vec::new();
        huff_compress(&data, &mut c);
        let bits_per_char = (c.len() - 260) as f64 * 8.0 / data.len() as f64;
        assert!(
            (1.95..=2.2).contains(&bits_per_char),
            "nucleotide entropy coding got {bits_per_char:.2} bits/char"
        );
        let mut d = Vec::new();
        huff_decompress(&c, &mut d).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn skewed_distributions_beat_two_bits() {
        // 90% 'A': entropy ≈ 0.7 bits for the A/rest split.
        let mut x: u64 = 9;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if x % 10 < 9 {
                    b'A'
                } else {
                    b"CGT"[(x % 3) as usize]
                }
            })
            .collect();
        let mut c = Vec::new();
        huff_compress(&data, &mut c);
        let bits_per_char = (c.len() - 260) as f64 * 8.0 / data.len() as f64;
        assert!(bits_per_char < 1.5, "{bits_per_char:.2} bits/char");
    }

    #[test]
    fn lzhuf_roundtrips_and_beats_lzf_on_est_text() {
        // Literal-heavy nucleotide text: byte-aligned LZ can barely touch it
        // (fresh 4-letter sequence has few long repeats), but the entropy
        // stage squeezes every literal toward 2 bits — the regime where the
        // heavier codec earns its CPU.
        let motif = b"ACGTGGCTAACGGATTACAGCTTGCAT";
        let mut data = Vec::new();
        let mut x: u64 = 33;
        while data.len() < 300_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            if x.is_multiple_of(5) {
                data.extend_from_slice(motif);
            } else {
                for k in 0..16 {
                    data.push(b"ACGT"[((x >> (k * 2)) & 3) as usize]);
                }
            }
        }
        let lzf_ratio = crate::Lzf.ratio(&data);
        let lzhuf_ratio = LzHuf.ratio(&data);
        assert!(
            lzhuf_ratio < lzf_ratio * 0.8,
            "lzhuf {lzhuf_ratio:.3} should clearly beat lzf {lzf_ratio:.3}"
        );
        let mut c = Vec::new();
        LzHuf.compress(&data, &mut c);
        let mut d = Vec::new();
        LzHuf.decompress(&c, &mut d).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let mut c = Vec::new();
        huff_compress(b"hello hello hello", &mut c);
        // Truncations.
        for cut in 0..c.len() {
            let mut d = Vec::new();
            let _ = huff_decompress(&c[..cut], &mut d);
        }
        // Bit flips in the table and body.
        #[allow(clippy::manual_is_multiple_of)]
        for i in (0..c.len()).step_by(7) {
            let mut bad = c.clone();
            bad[i] ^= 0x55;
            let mut d = Vec::new();
            let _ = huff_decompress(&bad, &mut d);
        }
        // Garbage headers.
        let mut d = Vec::new();
        assert_eq!(huff_decompress(&[1, 2, 3], &mut d), Err(Corrupt));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn huffman_roundtrips_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..3000)) {
                prop_assert_eq!(roundtrip_huff(&data), data);
            }

            #[test]
            fn lzhuf_roundtrips_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..3000)) {
                let mut c = Vec::new();
                LzHuf.compress(&data, &mut c);
                let mut d = Vec::new();
                LzHuf.decompress(&c, &mut d).unwrap();
                prop_assert_eq!(d, data);
            }

            #[test]
            fn decoder_survives_arbitrary_bytes(garbage in proptest::collection::vec(any::<u8>(), 0..600)) {
                let mut d = Vec::new();
                let _ = huff_decompress(&garbage, &mut d);
                let mut d2 = b"kept".to_vec();
                if LzHuf.decompress(&garbage, &mut d2).is_err() {
                    prop_assert_eq!(d2, b"kept");
                }
            }
        }
    }
}
