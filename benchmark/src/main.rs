//! # semplar-benchmark
//!
//! The repository's two-clock benchmark: *host* time (what the runtime →
//! netsim → srb → core stack costs to run) and *virtual* time (what the
//! modelled SRB/WAN does) on four workloads, with per-layer probes and a
//! traced run. See `README.md` beside this crate.
//!
//! ```text
//! semplar-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1|dir>
//! semplar-benchmark run --all [--seed <n>] [--seconds <s>] [--trace <dir>] [--smoke]
//! semplar-benchmark selfcheck [--seed <n>] [--seconds <s>]
//! semplar-benchmark manifest
//! ```
//!
//! The benchmark adds no threads of its own: one process, one simulation at
//! a time, one root actor. Every other OS thread is the program's own
//! scaffolding, and is itself a metric (`peak_threads`).

mod drivers;
mod layers;
mod measure;
mod metrics;
mod probes;
mod report;
mod run;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::RunArgs;
use workloads::{Workload, ALL};

fn usage() -> ! {
    eprintln!(
        "usage: semplar-benchmark [run|selfcheck|manifest] [--workload <name> | --all] \
         [--seed <n>] [--seconds <s>] [--trace <0|1|dir>] [--smoke]\n\
         workloads: {}",
        ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2);
}

/// Where `--trace 1` writes its span files: under the crate's own ignored
/// build directory, inside the checkout.
fn default_trace_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("trace")
}

fn main() -> ExitCode {
    let mut it = std::env::args().skip(1).peekable();
    let command = it
        .next_if(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "run".into());
    let (mut workload, mut all, mut seconds) = (None, false, None);
    let mut args = RunArgs {
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: None,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value()).unwrap_or_else(|| usage()))
            }
            "--all" => all = true,
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => None,
                    "1" => Some(default_trace_dir()),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    // A smoke run is the minimum number of passes unless told otherwise.
    args.seconds = seconds.unwrap_or(if args.smoke { 0.0 } else { args.seconds });
    if !args.seconds.is_finite() || args.seconds < 0.0 {
        usage();
    }

    let ok = match command.as_str() {
        "manifest" => {
            print!("{}", metrics::manifest());
            true
        }
        "selfcheck" => drivers::selfcheck(args.seed, args.seconds),
        "run" if all => drivers::run_all(&args),
        "run" => {
            let Some(w) = workload else { usage() };
            let report = run::run_workload(w, &args);
            // The result line: always the last line of standard output.
            println!("{}", report.to_json());
            report.correct
        }
        _ => usage(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
