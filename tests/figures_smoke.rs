//! Small-scale versions of every figure, asserting the paper's qualitative
//! claims: who wins, in which direction, and where the crossovers are.
//! (The full-scale tables come from `cargo bench` / the `fig*` binaries.)

use semplar_repro::clusters::{das2, osc, tg_ncsa, Testbed};
use semplar_repro::runtime::simulate;
use semplar_repro::workloads::{
    run_blast, run_compress, run_laplace, run_perf, BlastParams, CompressMode, CompressParams,
    LaplaceMode, LaplaceParams, MemoLzf, PerfParams,
};
use std::sync::Arc;

#[test]
fn fig6_async_blast_wins_everywhere_and_scaling_holds() {
    for spec in [das2(), osc(), tg_ncsa()] {
        let name = spec.name;
        let spec2 = spec.clone();
        let rows = simulate(move |rt| {
            let tb = Testbed::new(rt, spec2.clone(), 8);
            let mut out = Vec::new();
            for n in [2usize, 4, 8] {
                let base = BlastParams::calibrated(&spec2, 80, 4.0);
                let s = run_blast(&tb, n, base.with_async(false));
                let a = run_blast(&tb, n, base.with_async(true));
                out.push((n, s.exec_secs, a.exec_secs));
            }
            out
        });
        for (n, s, a) in &rows {
            assert!(
                a < s,
                "{name} n={n}: async {a:.1}s should beat sync {s:.1}s"
            );
        }
        // Execution time decreases with more processors (paper Fig. 6).
        assert!(
            rows[2].1 < rows[0].1 && rows[2].2 < rows[0].2,
            "{name}: no scaling"
        );
    }
}

#[test]
fn fig7_ordering_on_das2_two_streams_beat_overlap_beats_sync() {
    let (sync1, over1, two) = simulate(|rt| {
        let tb = Testbed::new(rt, das2(), 2);
        let p = |mode, streams| LaplaceParams {
            grid: 901,
            mode,
            streams,
            ..LaplaceParams::default()
        };
        (
            run_laplace(&tb, 2, p(LaplaceMode::Sync, 1)).exec_secs,
            run_laplace(&tb, 2, p(LaplaceMode::AsyncOverlap, 1)).exec_secs,
            run_laplace(&tb, 2, p(LaplaceMode::Sync, 2)).exec_secs,
        )
    });
    assert!(
        over1 < sync1,
        "overlap must beat sync ({over1:.1} vs {sync1:.1})"
    );
    assert!(
        two < over1,
        "two streams must beat overlap ({two:.1} vs {over1:.1})"
    );
    // The overlap gain is bounded by the 9:1 I/O:compute ratio.
    let gain = 1.0 - over1 / sync1;
    assert!(
        gain < 0.15,
        "overlap gain {gain:.2} too large for a 9:1 ratio"
    );
}

#[test]
fn fig7_osc_nat_erases_two_stream_gains_at_scale() {
    let (two_gain_small, two_gain_large) = simulate(|rt| {
        let tb = Testbed::new(rt, osc(), 8);
        let p = |streams, n: usize| {
            let r = run_laplace(
                &tb,
                n,
                LaplaceParams {
                    grid: 901,
                    streams,
                    ..LaplaceParams::default()
                },
            );
            r.exec_secs
        };
        let g_small = 1.0 - p(2, 2) / p(1, 2);
        let g_large = 1.0 - p(2, 8) / p(1, 8);
        (g_small, g_large)
    });
    // At 8 procs the NAT is saturated: the second stream buys nothing.
    assert!(
        two_gain_large < 0.05,
        "NAT-bound two-stream gain should vanish, got {two_gain_large:.2}"
    );
    assert!(two_gain_small > two_gain_large - 1e-9);
}

#[test]
fn fig8_read_gains_exceed_write_gains() {
    // The receiver window is smaller than the send window, so doubling
    // streams helps reads more — on both measured clusters.
    for spec in [das2(), tg_ncsa()] {
        let name = spec.name;
        let (w1, r1, w2, r2) = simulate(move |rt| {
            let tb = Testbed::new(rt, spec, 4);
            let one = run_perf(
                &tb,
                4,
                PerfParams {
                    bytes_per_proc: 4 << 20,
                    streams: 1,
                },
            );
            let two = run_perf(
                &tb,
                4,
                PerfParams {
                    bytes_per_proc: 4 << 20,
                    streams: 2,
                },
            );
            (one.write_mbps, one.read_mbps, two.write_mbps, two.read_mbps)
        });
        assert!(
            r1 < w1,
            "{name}: reads should be slower than writes on one stream"
        );
        let wgain = w2 / w1;
        let rgain = r2 / r1;
        assert!(
            wgain > 1.5 && rgain > 1.5,
            "{name}: gains too small {wgain:.2}/{rgain:.2}"
        );
    }
}

#[test]
fn fig9_async_compression_wins_and_ratio_is_real() {
    let codec = Arc::new(MemoLzf::new(Arc::new(
        semplar_repro::workloads::estgen::generate(
            4 << 20,
            77,
            &semplar_repro::workloads::estgen::EstGenConfig::default(),
        ),
    )));
    for spec in [das2(), tg_ncsa()] {
        let name = spec.name;
        let d2 = codec.clone();
        let (sync_bw, async_bw, ratio) = simulate(move |rt| {
            let tb = Testbed::new(rt, spec, 2);
            let p = |mode| CompressParams {
                file_bytes: 4 << 20,
                mode,
                ..CompressParams::default()
            };
            let s = run_compress(&tb, 2, d2.clone(), p(CompressMode::SyncUncompressed));
            let a = run_compress(&tb, 2, d2.clone(), p(CompressMode::AsyncCompressed));
            (s.agg_write_mbps, a.agg_write_mbps, a.ratio)
        });
        assert!(
            async_bw > sync_bw * 1.4,
            "{name}: async-compressed {async_bw:.1} vs sync {sync_bw:.1} Mb/s"
        );
        assert!((0.35..0.75).contains(&ratio), "{name}: ratio {ratio}");
    }
}

#[test]
fn contention_anomaly_and_its_fix() {
    let (overlap, two, combined, restructured) = simulate(|rt| {
        let tb = Testbed::new(rt, das2(), 2);
        let p = |mode, streams| LaplaceParams {
            grid: 901,
            checkpoints: 5,
            mode,
            streams,
        };
        (
            run_laplace(&tb, 2, p(LaplaceMode::AsyncOverlap, 1)).exec_secs,
            run_laplace(&tb, 2, p(LaplaceMode::Sync, 2)).exec_secs,
            run_laplace(&tb, 2, p(LaplaceMode::AsyncOverlap, 2)).exec_secs,
            run_laplace(&tb, 2, p(LaplaceMode::AsyncNoCommOverlap, 2)).exec_secs,
        )
    });
    // The naive combination loses (almost) all of the two-stream benefit...
    assert!(
        combined > overlap * 0.8,
        "combined {combined:.1}s should degrade to ~overlap-alone {overlap:.1}s"
    );
    // ...and the restructured version recovers the two-stream time.
    assert!(
        (restructured - two).abs() / two < 0.1,
        "restructured {restructured:.1}s should match two-stream {two:.1}s"
    );
}
