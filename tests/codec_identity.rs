//! The LZF stream is pinned. Virtual time, `srb.request_digest` and every
//! `fig9_*` result depend on the exact compressed bytes, so a faster codec
//! must emit the same ones. The constants were taken from the byte-wise
//! codec at commit `0cb09db`, before the word-wise one replaced it;
//! `examples/codec_throughput.rs` prints the same three numbers.

use semplar_repro::compress::lzf;
use semplar_repro::srb::adler32;
use semplar_repro::workloads::estgen::{generate, EstGenConfig};

#[test]
fn est_corpus_compresses_to_the_pinned_stream() {
    let corpus = generate(16 << 20, 1, &EstGenConfig::default());
    let (mut streams, mut back) = (Vec::new(), Vec::new());
    for block in corpus.chunks(1 << 20) {
        let start = streams.len();
        lzf::compress(block, &mut streams);
        back.clear();
        lzf::decompress(&streams[start..], &mut back).expect("own stream decodes");
        assert!(back == block, "round trip changed the data");
    }
    assert_eq!(streams.len(), 8_935_065);
    assert_eq!(adler32(&streams), 0x71ab_88d9);
    let ratio = streams.len() as f64 / corpus.len() as f64;
    assert_eq!(format!("{ratio:.6}"), "0.532571");
}
