//! The child-process modes: `run --all` and `selfcheck` run every workload in
//! a process of its own, sequentially, so CPU time, peak RSS and thread counts
//! are the workload's own, and compare the result lines.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::metrics::END_TO_END;
use crate::report::Report;
use crate::run::RunArgs;
use crate::workloads::{Workload, ALL};

/// Run one workload in a child process (so peak RSS and CPU time are the
/// workload's own), passing its output through. `None` if it died.
fn run_child(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: Option<&Path>,
    smoke: bool,
) -> Option<Report> {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.arg("--trace")
        .arg(trace.map_or("0".into(), |d| d.as_os_str().to_owned()));
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("run a child benchmark process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let report = lines.pop().and_then(Report::parse);
    for l in lines {
        println!("{l}");
    }
    report.filter(|r| out.status.success() == r.correct)
}

/// `run --all`: every workload in its own child process, sequentially.
pub fn run_all(args: &RunArgs) -> bool {
    let mut ok = true;
    for w in ALL {
        // The untraced run, then (with `--trace`) the traced one.
        for trace in std::iter::once(None).chain(args.trace.as_deref().map(Some)) {
            match run_child(w, args.seed, args.seconds, trace, args.smoke) {
                Some(r) => ok &= r.correct,
                None => {
                    println!("FAILED {}: the child process printed no result", w.name());
                    ok = false;
                }
            }
        }
    }
    println!(
        "{}",
        if ok {
            "all workloads correct"
        } else {
            "FAILED"
        }
    );
    ok
}

/// `selfcheck`: the whole set twice on the same build and seed. Virtual-time
/// metrics and the thread count must repeat exactly; host metrics must agree
/// within their bounds in either direction (the first child runs cold, so a
/// second run that is much *better* is as much a disagreement as a worse one).
pub fn selfcheck(seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in ALL {
        let runs: Vec<Option<Report>> = (0..2)
            .map(|_| run_child(w, seed, seconds, None, false))
            .collect();
        let [Some(a), Some(b)] = &runs[..] else {
            println!("FAILED {}: a child process printed no result", w.name());
            ok = false;
            continue;
        };
        ok &= a.correct && b.correct;
        for m in END_TO_END {
            let (x, y) = (
                a.value(m.name).unwrap_or(f64::NAN),
                b.value(m.name).unwrap_or(f64::NAN),
            );
            let exact = m.name.starts_with("sim_") || m.name == "peak_threads";
            let pass = if exact {
                x == y
            } else {
                ((y - x) / x).abs() <= m.bound
            };
            ok &= pass;
            rows.push(format!(
                "| {} | {} | {x:.6} | {y:.6} | {:+.2} % | {} | {} |",
                w.name(),
                m.name,
                (y - x) / x * 100.0,
                if exact {
                    "exact".into()
                } else {
                    format!("{} %", m.bound * 100.0)
                },
                if pass { "pass" } else { "FAIL" }
            ));
        }
    }
    println!("| workload | metric | run 1 | run 2 | difference | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for r in rows {
        println!("{r}");
    }
    println!(
        "{}",
        if ok {
            "selfcheck passed"
        } else {
            "selfcheck FAILED"
        }
    );
    ok
}
