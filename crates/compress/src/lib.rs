//! # semplar-compress
//!
//! On-the-fly compression codecs for the SEMPLAR reproduction (paper §7.3).
//!
//! The paper pipelines miniLZO compression of 1 MB blocks with their WAN
//! transmission. This crate provides the same class of codec implemented
//! from scratch ([`lzf`], a byte-oriented LZ77 with an 8 KiB window) and an
//! LZ77 + Huffman composite ([`LzHuf`]), both behind the [`Codec`] trait so
//! the SEMPLAR pipeline and the benches can swap them.

#![warn(missing_docs)]

pub mod huffman;
pub mod lzf;

pub use huffman::LzHuf;
pub use lzf::Corrupt;

/// A block compressor/decompressor.
pub trait Codec: Send + Sync {
    /// Short name for reports ("lzf", "lzhuf").
    fn name(&self) -> &'static str;
    /// Compress `src`, appending to `dst`.
    fn compress(&self, src: &[u8], dst: &mut Vec<u8>);
    /// Decompress `src`, appending to `dst`.
    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<(), Corrupt>;

    /// Convenience: compressed size over original size for `src`.
    fn ratio(&self, src: &[u8]) -> f64 {
        if src.is_empty() {
            return 1.0;
        }
        let mut out = Vec::new();
        self.compress(src, &mut out);
        out.len() as f64 / src.len() as f64
    }
}

/// The LZO-class LZ77 codec (see [`lzf`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Lzf;

impl Codec for Lzf {
    fn name(&self) -> &'static str {
        "lzf"
    }
    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) {
        lzf::compress(src, dst);
    }
    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<(), Corrupt> {
        lzf::decompress(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codecs() -> Vec<Box<dyn Codec>> {
        vec![Box::new(Lzf), Box::new(LzHuf)]
    }

    #[test]
    fn all_codecs_roundtrip_mixed_data() {
        let mut data = Vec::new();
        data.extend_from_slice(&[7u8; 300]);
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog");
        data.extend_from_slice(&[0u8; 120]);
        for c in codecs() {
            let mut z = Vec::new();
            c.compress(&data, &mut z);
            let mut d = Vec::new();
            c.decompress(&z, &mut d)
                .unwrap_or_else(|e| panic!("{}: {e}", c.name()));
            assert_eq!(d, data, "{}", c.name());
        }
    }

    #[test]
    fn ratio_of_empty_is_one() {
        for c in codecs() {
            assert_eq!(c.ratio(b""), 1.0, "{}", c.name());
        }
    }
}
