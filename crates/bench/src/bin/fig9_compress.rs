//! Figure 9: on-the-fly data compression — aggregate write bandwidth of
//! synchronous vs asynchronous (pipelined, compressed) writes, on DAS-2 and
//! TG-NCSA. Each node ships a 100 MB nucleotide text file in 1 MB blocks.
//!
//! Paper reference points: average aggregate write bandwidth improves by
//! 83 % (DAS-2) and 84 % (TG-NCSA).

use std::sync::Arc;

use semplar_bench::table::{mbps, pct};
use semplar_bench::{flags, mean_ratio, with_testbed, Table};
use semplar_clusters::{das2, tg_ncsa};
use semplar_workloads::{estgen, run_compress, CompressMode, CompressParams};

fn main() {
    let [quick] = flags(["--quick"]);
    let file_bytes: u64 = if quick { 16 << 20 } else { 100 << 20 };
    let das2_procs: &[usize] = if quick {
        &[2, 6]
    } else {
        &[1, 3, 5, 7, 9, 11, 13]
    };
    let tg_procs: &[usize] = if quick { &[2, 6] } else { &[1, 3, 5, 7, 9, 11] };
    let data = Arc::new(estgen::generate(
        file_bytes as usize,
        2006,
        &estgen::EstGenConfig::default(),
    ));

    for (spec, procs, paper) in [
        (das2(), das2_procs, "paper: +83%"),
        (tg_ncsa(), tg_procs, "paper: +84%"),
    ] {
        let name = spec.name;
        let max_procs = *procs.iter().max().expect("non-empty sweep");
        let data = data.clone();
        // Per process count: the sync-uncompressed and the
        // async-compressed report.
        let (rows, _) = with_testbed(spec, max_procs, move |tb| {
            procs
                .iter()
                .map(|&n| {
                    let run = |mode| {
                        run_compress(
                            &tb,
                            n,
                            data.clone(),
                            CompressParams {
                                file_bytes,
                                mode,
                                ..CompressParams::default()
                            },
                        )
                    };
                    let sync = run(CompressMode::SyncUncompressed);
                    (sync, run(CompressMode::AsyncCompressed))
                })
                .collect::<Vec<_>>()
        });
        let mut t = Table::new(
            &format!("Fig. 9 ({name}): compression aggregate write bandwidth (Mb/s)"),
            &["procs", "sync write", "async write", "lz ratio"],
        );
        for (sync, asy) in &rows {
            t.row(vec![
                sync.procs.to_string(),
                mbps(sync.agg_write_mbps),
                mbps(asy.agg_write_mbps),
                format!("{:.2}", asy.ratio),
            ]);
        }
        t.print();
        let gain = mean_ratio(
            rows.iter()
                .map(|(sync, asy)| (asy.agg_write_mbps, sync.agg_write_mbps)),
        ) - 1.0;
        println!(
            "{name}: average async-compressed write gain {}   ({paper})",
            pct(gain)
        );
    }
}
