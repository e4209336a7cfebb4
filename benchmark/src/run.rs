//! One run of one workload, in this process: set-up, timed passes, the
//! optional traced pass with the probes, and the report.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::measure::{self, median, percentile, tail_percentile, HostCost};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::Report;
use crate::workloads::{self, Inputs, LayerMap, PassOutput, Workload};
use crate::{layers, probes, trace};

/// Timed passes per run, at least: host metrics are the median of these.
const MIN_PASSES: usize = 3;
/// Set-ups per run: `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Relative drift of a `sim_*` value across the passes of one run beyond
/// which the run fails (the documented host-sensitive last digit stays far
/// inside it; exact repetition is reported as `sim.repeat_exact`).
const SIM_DRIFT: f64 = 1e-3;

/// What one run is asked to do.
pub struct RunArgs {
    pub seed: u64,
    /// Seconds of timed passes (the minimum number of passes always runs).
    pub seconds: f64,
    /// `None` = untraced run reporting the end-to-end metrics; `Some(dir)` =
    /// traced run reporting the per-layer metrics, spans written to `dir`.
    pub trace: Option<PathBuf>,
    /// Every size divided by ten.
    pub smoke: bool,
}

type TimedPass = (PassOutput, HostCost);

/// One pass, with a panic anywhere in the simulation turned into an error.
fn guarded_pass(
    w: Workload,
    inputs: &Arc<Inputs>,
    size: usize,
    traced: bool,
) -> (Result<PassOutput, String>, HostCost) {
    let inputs = inputs.clone();
    measure::timed(move || {
        std::panic::catch_unwind(move || workloads::pass(w, &inputs, size, traced)).map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "pass panicked".into())
        })
    })
}

/// Latency summary of one pass: `(p50, tail, tail percentile)`. Below
/// twenty samples (smoke sizes) no percentile has ten samples beyond it
/// and the tail falls back to the median.
fn latency_summary(latencies_ms: &[f64]) -> (f64, f64, f64) {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pct = tail_percentile(sorted.len()).unwrap_or(50.0);
    (percentile(&sorted, 50.0), percentile(&sorted, pct), pct)
}

/// The books of one run: ops attempted and failed, failed checks in words,
/// and the set-up times.
struct Ledger {
    w: Workload,
    size: usize,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    setups: Vec<f64>,
}

impl Ledger {
    /// Book a finished (or panicked) pass; returns its output when usable.
    /// A panicked pass counts every op failed.
    fn book(
        &mut self,
        what: &str,
        size: usize,
        pass: Result<PassOutput, String>,
    ) -> Option<PassOutput> {
        match pass {
            Ok(out) => {
                self.attempted += out.attempted;
                self.failed += out.failed;
                self.problems
                    .extend(out.problems.iter().map(|p| format!("{what}: {p}")));
                Some(out)
            }
            Err(panic) => {
                self.attempted += self.w.ops(size);
                self.failed += self.w.ops(size);
                self.problems.push(format!("{what}: panicked: {panic}"));
                None
            }
        }
    }

    /// One set-up: generate the inputs from the seed, then an untimed
    /// warm-up pass at a tenth of the pass size.
    fn set_up(&mut self, seed: u64) -> Arc<Inputs> {
        let (w, size) = (self.w, self.size);
        let t = Instant::now();
        let inputs = Arc::new(Inputs::generate(w, seed, size));
        let warm = (size / 10).max(1);
        let (pass, _) = guarded_pass(w, &inputs, warm, false);
        self.setups.push(t.elapsed().as_secs_f64());
        self.book("warm-up", warm, pass);
        inputs
    }

    /// Timed passes, tracing off, until `budget` seconds are used up (at
    /// least [`MIN_PASSES`]). Stops early at a panicked pass.
    fn timed_passes(&mut self, inputs: &Arc<Inputs>, budget: f64) -> Vec<TimedPass> {
        let mut passes: Vec<TimedPass> = Vec::new();
        let started = Instant::now();
        loop {
            let (pass, cost) = guarded_pass(self.w, inputs, self.size, false);
            let Some(out) = self.book(&format!("pass {}", passes.len()), self.size, pass) else {
                return passes;
            };
            passes.push((out, cost));
            let typical = median(&passes.iter().map(|p| p.1.wall_s).collect::<Vec<_>>());
            if passes.len() >= MIN_PASSES && started.elapsed().as_secs_f64() + typical > budget {
                return passes;
            }
        }
    }
}

/// Compare every pass's virtual-time results and digest with the first
/// pass's: `(repeated exactly, what drifted too far)`.
fn check_repeat(passes: &[TimedPass]) -> (bool, Vec<String>) {
    let scalars = |p: &PassOutput| {
        let (p50, tail, _) = latency_summary(&p.sim.latencies_ms);
        [
            p.sim.makespan_s,
            p.sim.write_mbps,
            p.sim.read_mbps,
            p50,
            tail,
        ]
    };
    let first = &passes[0].0;
    let mut exact = true;
    let mut problems = Vec::new();
    for (i, (p, _)) in passes.iter().enumerate().skip(1) {
        exact &= p.sim == first.sim;
        if p.digest != first.digest {
            problems.push(format!(
                "pass {i}: output digest {:x} differs from pass 0's {:x}",
                p.digest, first.digest
            ));
        }
        for (a, b) in scalars(first).into_iter().zip(scalars(p)) {
            if (a - b).abs() > SIM_DRIFT * a.abs() {
                problems.push(format!(
                    "pass {i}: virtual-time result {b} differs from pass 0's {a}"
                ));
            }
        }
    }
    (exact, problems)
}

/// Median over the passes of one host cost.
fn median_cost(passes: &[TimedPass], f: fn(&HostCost) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(&p.1)).collect::<Vec<_>>())
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(w: Workload, size: usize, setups: &[f64], passes: &[TimedPass]) -> LayerMap {
    let wall_s = median_cost(passes, |c| c.wall_s);
    let first = &passes[0].0;
    let (p50, tail, _) = latency_summary(&first.sim.latencies_ms);
    let peak_actors = passes
        .iter()
        .map(|p| p.0.stats.peak_live_actors)
        .max()
        .unwrap_or(0);
    LayerMap::from([
        ("setup_s", median(setups)),
        ("wall_s", wall_s),
        ("cpu_s", median_cost(passes, HostCost::cpu_s)),
        ("ops_per_wall_s", w.ops(size) as f64 / wall_s),
        // Every thread actor is an OS thread; + 1 for the main thread.
        ("peak_threads", (peak_actors + 1) as f64),
        ("sim_makespan_s", first.sim.makespan_s),
        ("sim_write_mbps", first.sim.write_mbps),
        ("sim_p50_ms", p50),
        ("sim_tail_ms", tail),
    ])
}

/// The per-layer metrics of a traced run: one more pass with the decorators
/// on, the probes, and the untraced passes' host diagnostics.
fn per_layer(run: &mut Ledger, inputs: &Arc<Inputs>, passes: &[TimedPass], dir: &Path) -> LayerMap {
    let walls: Vec<f64> = passes.iter().map(|p| p.1.wall_s).collect();
    let wall_s = median(&walls);
    let first = &passes[0].0;
    let (pass, cost) = guarded_pass(run.w, inputs, run.size, true);
    let mut m = probes::run();
    if let Some(traced) = run.book("traced pass", run.size, pass) {
        let file = dir.join(format!("{}.jsonl", run.w.name()));
        match trace::write_jsonl(&file, &traced.spans) {
            Ok(()) => println!(
                "# {} spans written to {}",
                traced.spans.len(),
                file.display()
            ),
            Err(e) => run
                .problems
                .push(format!("writing {}: {e}", file.display())),
        }
        if traced.sim != first.sim {
            // Tracing must not perturb virtual time.
            run.problems
                .push("traced pass: virtual-time results differ from the untraced passes'".into());
        }
        m.extend(traced.layer);
        layers::from_spans(&mut m, &traced.spans, cost.cpu_s());
        let (s, n) = (traced.stats, traced.net);
        m.insert("runtime.clock_advances", s.clock_advances as f64);
        m.insert("runtime.timers_armed", s.timers_armed as f64);
        m.insert("runtime.actors_spawned", s.actors_spawned as f64);
        m.insert("runtime.peak_live_actors", s.peak_live_actors as f64);
        m.insert("runtime.tasks_spawned", s.tasks_spawned as f64);
        m.insert("runtime.peak_live_tasks", s.peak_live_tasks as f64);
        m.insert(
            "runtime.host_us_per_advance",
            wall_s / s.clock_advances as f64 * 1e6,
        );
        m.insert("netsim.recomputes", n.recomputes as f64);
        m.insert("netsim.flows_touched", n.flows_touched as f64);
        m.insert(
            "netsim.flows_per_recompute",
            n.flows_touched as f64 / n.recomputes.max(1) as f64,
        );
        m.insert("netsim.signals", n.signals as f64);
        m.insert("netsim.settles_skipped", n.settles_skipped as f64);
        m.insert("netsim.alloc_ms", n.alloc_nanos as f64 / 1e6);
        m.insert(
            "netsim.alloc_share",
            n.alloc_nanos as f64 / 1e9 / cost.wall_s,
        );
        m.insert("trace.overhead_pct", (cost.wall_s / wall_s - 1.0) * 100.0);
    }
    let (user, sys) = (
        median_cost(passes, |c| c.user_s),
        median_cost(passes, |c| c.sys_s),
    );
    m.insert("host.passes", walls.len() as f64);
    m.insert("host.user_s", user);
    m.insert("host.sys_s", sys);
    m.insert("host.sys_share", sys / (user + sys));
    let spread =
        walls.iter().copied().fold(0.0, f64::max) - walls.iter().copied().fold(f64::MAX, f64::min);
    m.insert("host.wall_spread", spread / wall_s);
    let (_, _, tail_pct) = latency_summary(&first.sim.latencies_ms);
    m.insert("sim.read_mbps", first.sim.read_mbps);
    m.insert("sim.latency_samples", first.sim.latencies_ms.len() as f64);
    m.insert("sim.tail_percentile", tail_pct);
    m
}

/// Run one workload in this process and report it.
pub fn run_workload(w: Workload, args: &RunArgs) -> Report {
    let cpus = || std::thread::available_parallelism().map_or(0, |n| n.get());
    let online = cpus();
    match measure::pin_to_one_cpu() {
        Some(cpu) => println!("# {online} CPUs available; running on CPU {cpu} only"),
        None => println!(
            "# {online} CPUs available; NOT pinned (taskset failed): expect slower, noisier host times"
        ),
    }
    let mut run = Ledger {
        w,
        size: w.size(if args.smoke { 10 } else { 1 }),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        setups: Vec::new(),
    };
    let inputs = run.set_up(args.seed);
    // A traced run spends half its time on the untraced passes and the rest
    // on the traced pass and the probes.
    let budget = args.seconds / if args.trace.is_some() { 2.0 } else { 1.0 };
    let passes = run.timed_passes(&inputs, budget);
    if passes.is_empty() {
        for p in &run.problems {
            eprintln!("FAILED {}: {p}", w.name());
        }
        std::process::exit(1);
    }
    // The program's high-water mark, before the harness allocates inputs
    // again.
    let peak_rss_mb = measure::peak_rss_mib();
    // The first set-up ran before the process had warmed up at all; the
    // others run now, so the median is of like with like.
    for _ in 1..SETUP_REPS {
        run.set_up(args.seed);
    }
    let (exact, drifted) = check_repeat(&passes);
    run.problems.extend(drifted);

    // The manifest decides what is reported, and in which order.
    let (values, table): (LayerMap, Vec<(&str, &str)>) = match &args.trace {
        Some(dir) => {
            let mut m = per_layer(&mut run, &inputs, &passes, dir);
            m.insert("host.cpus_allowed", cpus() as f64);
            m.insert("host.peak_rss_mb", peak_rss_mb);
            m.insert("sim.repeat_exact", exact as u8 as f64);
            (m, PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
        }
        None => (
            end_to_end(w, run.size, &run.setups, &passes),
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
        ),
    };
    let unknown: Vec<_> = values
        .keys()
        .filter(|k| !table.iter().any(|(n, _)| n == *k))
        .collect();
    assert!(
        unknown.is_empty(),
        "metrics missing from the manifest: {unknown:?}"
    );
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        // A layer the workload bypasses reports 0.
        let value = values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            run.problems.push(format!("{name} is not a finite number"));
        }
        metrics.push((
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
            unit.to_string(),
        ));
    }

    let walls: Vec<f64> = passes
        .iter()
        .map(|p| (p.1.wall_s * 1e3).round() / 1e3)
        .collect();
    println!(
        "# {}: seed {}, size {}, host metrics are the median of n = {} timed passes, walls {walls:?}",
        w.name(),
        args.seed,
        run.size,
        walls.len(),
    );
    let latencies = &passes[0].0.sim.latencies_ms;
    println!(
        "# latency: n = {}, tail = p{}; ops attempted {}, failed {}",
        latencies.len(),
        latency_summary(latencies).2,
        run.attempted,
        run.failed
    );
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>20.6} {unit}");
    }
    for p in &run.problems {
        println!("FAILED {}: {p}", w.name());
    }
    let correct = run.problems.is_empty() && run.failed == 0;
    Report {
        correct,
        attempted: run.attempted,
        // A failed check with no op to pin it on still fails the run.
        failed: if correct { 0 } else { run.failed.max(1) },
        metrics,
    }
}
