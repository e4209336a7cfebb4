//! The 2D Laplace solver (paper §6, Fig. 7, and the §7.1 contention
//! experiment).
//!
//! Jacobi iteration on a fixed 3001×3001 grid, row-partitioned across
//! ranks, halo exchange between neighbours each sweep, and a periodic
//! checkpoint of the whole grid to a shared remote file using individual
//! file pointers and non-collective writes. The paper reports an I/O to
//! computation ratio of about 9:1, which bounds the overlap gain to 6–9 %.
//!
//! Three code structures reproduce the paper's variants:
//!
//! * [`LaplaceMode::Sync`] — blocking checkpoint writes (with one or two
//!   TCP streams; the two-stream blocking write is internally asynchronous,
//!   as §7.2 requires);
//! * [`LaplaceMode::AsyncOverlap`] — the checkpoint write is issued
//!   asynchronously and waited at the **end** of the next compute phase, so
//!   it overlaps both the sweeps and the MPI halo exchange (the paper's
//!   "wait at position 1" — the variant that triggers I/O-bus contention
//!   when combined with two streams);
//! * [`LaplaceMode::AsyncNoCommOverlap`] — the wait moved to the **top** of
//!   the cycle, before any MPI communication (the paper's "position 2"
//!   restructuring), which sacrifices the overlap but avoids the bus.

use std::sync::Arc;

use semplar::{OpenFlags, Payload, StripeUnit, StripedFile};
use semplar_clusters::Testbed;
use semplar_mpi::{run_world, Rank};
use semplar_runtime::Dur;

/// Which I/O structure the solver uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaplaceMode {
    /// Blocking checkpoint writes.
    Sync,
    /// Asynchronous writes overlapping computation *and* MPI communication
    /// (wait at position 1).
    AsyncOverlap,
    /// Asynchronous writes waited before any MPI communication (wait at
    /// position 2): no overlap, no bus contention.
    AsyncNoCommOverlap,
}

/// Solver parameters.
#[derive(Clone, Copy, Debug)]
pub struct LaplaceParams {
    /// Grid dimension (paper: 3001).
    pub grid: usize,
    /// Checkpoint cycles.
    pub checkpoints: usize,
    /// TCP streams per node.
    pub streams: usize,
    /// I/O structure.
    pub mode: LaplaceMode,
}

impl Default for LaplaceParams {
    fn default() -> Self {
        LaplaceParams {
            grid: 3001,
            checkpoints: 3,
            streams: 1,
            mode: LaplaceMode::Sync,
        }
    }
}

/// Timing from one solver run.
#[derive(Clone, Copy, Debug)]
pub struct LaplaceReport {
    /// Processes.
    pub procs: usize,
    /// Streams per node.
    pub streams: usize,
    /// I/O structure used.
    pub mode: LaplaceMode,
    /// Wall (virtual) execution time, seconds.
    pub exec_secs: f64,
    /// Max per-rank time spent in the compute+communication phase.
    pub compute_secs: f64,
    /// Max per-rank time spent blocked on I/O.
    pub io_secs: f64,
}

/// Bytes per grid point (f64).
const POINT: u64 = 8;
/// Jacobi sweeps per checkpoint cycle (calibrates the compute:I/O ratio).
const INNER_ITERS: usize = 25;
/// Point updates per second on the reference CPU (calibrated so the
/// paper's 9:1 I/O:compute ratio holds on DAS-2).
const POINT_RATE: f64 = 10e6;

fn rank_rows(grid: usize, n: usize, rank: usize) -> (usize, usize) {
    let base = grid / n;
    let extra = grid % n;
    let rows = base + usize::from(rank < extra);
    let start = rank * base + rank.min(extra);
    (start, rows)
}

fn cycle_compute(tb: &Arc<Testbed>, r: &Rank, p: &LaplaceParams, rows: usize) {
    const TAG_UP: u32 = 11;
    const TAG_DOWN: u32 = 12;
    let halo_bytes = p.grid as u64 * POINT;
    for _ in 0..INNER_ITERS {
        // Halo exchange with neighbours (eager sends, then receives).
        if r.rank > 0 {
            r.send(r.rank - 1, TAG_DOWN, (), halo_bytes);
        }
        if r.rank + 1 < r.size {
            r.send(r.rank + 1, TAG_UP, (), halo_bytes);
        }
        if r.rank > 0 {
            let _ = r.recv::<()>(Some(r.rank - 1), TAG_UP);
        }
        if r.rank + 1 < r.size {
            let _ = r.recv::<()>(Some(r.rank + 1), TAG_DOWN);
        }
        // The sweep itself.
        let points = rows as f64 * p.grid as f64;
        tb.compute(r.rank, Dur::from_secs_f64(points / POINT_RATE));
    }
}

/// Run the solver on `n` ranks of `tb`.
pub fn run_laplace(tb: &Arc<Testbed>, n: usize, p: LaplaceParams) -> LaplaceReport {
    assert!(n <= tb.nodes());
    let tb2 = tb.clone();
    let phases = run_world(tb.topo.clone(), n, move |r| {
        let rt = r.runtime().clone();
        let fs = tb2.srbfs(r.rank);
        let f = StripedFile::open(
            &rt,
            &fs,
            "/laplace-ckpt",
            OpenFlags::CreateRw,
            p.streams,
            StripeUnit::Even,
        )
        .expect("open checkpoint file");
        let (row0, rows) = rank_rows(p.grid, n, r.rank);
        let off = row0 as u64 * p.grid as u64 * POINT;
        let slab = rows as u64 * p.grid as u64 * POINT;

        let mut compute = 0.0f64;
        let mut io = 0.0f64;
        let mut prev: Option<semplar::MultiRequest> = None;

        r.barrier();
        let t0 = rt.now();
        for _ in 0..p.checkpoints {
            if p.mode == LaplaceMode::AsyncNoCommOverlap {
                // Position 2: drain the previous write before any MPI.
                let s = rt.now();
                if let Some(pr) = prev.take() {
                    pr.wait().expect("checkpoint write");
                }
                io += (rt.now() - s).as_secs_f64();
            }
            let s = rt.now();
            cycle_compute(&tb2, &r, &p, rows);
            compute += (rt.now() - s).as_secs_f64();

            match p.mode {
                LaplaceMode::Sync => {
                    let s = rt.now();
                    f.write_at(off, Payload::sized(slab)).expect("checkpoint");
                    io += (rt.now() - s).as_secs_f64();
                }
                LaplaceMode::AsyncOverlap => {
                    // Position 1: the previous write has been overlapping
                    // this whole cycle (sweeps + halo exchange).
                    let s = rt.now();
                    if let Some(pr) = prev.take() {
                        pr.wait().expect("checkpoint write");
                    }
                    io += (rt.now() - s).as_secs_f64();
                    prev = Some(f.iwrite_at(off, Payload::sized(slab)));
                }
                LaplaceMode::AsyncNoCommOverlap => {
                    prev = Some(f.iwrite_at(off, Payload::sized(slab)));
                }
            }
            // Checkpoint barrier: ranks align before the next cycle (and
            // in Sync mode, all MPI quiesces before the writes finish).
            r.barrier();
        }
        // Drain the pipeline.
        let s = rt.now();
        if let Some(pr) = prev.take() {
            pr.wait().expect("final checkpoint");
        }
        io += (rt.now() - s).as_secs_f64();
        r.barrier();
        let exec = (rt.now() - t0).as_secs_f64();
        f.close().expect("close checkpoint file");
        (exec, compute, io)
    });

    LaplaceReport {
        procs: n,
        streams: p.streams,
        mode: p.mode,
        exec_secs: phases.iter().map(|p| p.0).fold(0.0, f64::max),
        compute_secs: phases.iter().map(|p| p.1).fold(0.0, f64::max),
        io_secs: phases.iter().map(|p| p.2).fold(0.0, f64::max),
    }
}

/// A real Jacobi sweep, used by the wall-clock examples and correctness
/// tests (the virtual-time benchmarks charge modelled time instead).
pub fn jacobi_sweep(grid: &[f64], next: &mut [f64], cols: usize) {
    let rows = grid.len() / cols;
    for i in 1..rows - 1 {
        for j in 1..cols - 1 {
            next[i * cols + j] = 0.25
                * (grid[(i - 1) * cols + j]
                    + grid[(i + 1) * cols + j]
                    + grid[i * cols + j - 1]
                    + grid[i * cols + j + 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_clusters::{das2, Testbed};
    use semplar_runtime::simulate;

    fn small(mode: LaplaceMode, streams: usize) -> LaplaceParams {
        LaplaceParams {
            grid: 601,
            checkpoints: 3,
            streams,
            mode,
        }
    }

    #[test]
    fn rank_rows_partition_covers_grid() {
        for n in 1..=7 {
            for grid in [10, 13, 3001] {
                let mut total = 0;
                let mut next_start = 0;
                for rank in 0..n {
                    let (start, rows) = rank_rows(grid, n, rank);
                    assert_eq!(start, next_start);
                    next_start += rows;
                    total += rows;
                }
                assert_eq!(total, grid, "grid {grid} n {n}");
            }
        }
    }

    #[test]
    fn io_dominates_compute_roughly_nine_to_one_on_das2() {
        let rep = simulate(|rt| {
            let tb = Testbed::new(rt, das2(), 2);
            run_laplace(&tb, 2, small(LaplaceMode::Sync, 1))
        });
        let ratio = rep.io_secs / rep.compute_secs;
        assert!(
            (5.0..=14.0).contains(&ratio),
            "io:compute = {ratio:.1}, expected near 9:1 (io {:.1}s compute {:.1}s)",
            rep.io_secs,
            rep.compute_secs
        );
    }

    #[test]
    fn async_overlap_gains_modestly_with_nine_to_one_ratio() {
        let (sync, over) = simulate(|rt| {
            let tb = Testbed::new(rt, das2(), 2);
            (
                run_laplace(&tb, 2, small(LaplaceMode::Sync, 1)),
                run_laplace(&tb, 2, small(LaplaceMode::AsyncOverlap, 1)),
            )
        });
        let gain = 1.0 - over.exec_secs / sync.exec_secs;
        assert!(
            (0.03..=0.15).contains(&gain),
            "overlap gain {gain:.3} outside the paper's 6-9% band ({} vs {})",
            sync.exec_secs,
            over.exec_secs
        );
    }

    #[test]
    fn two_streams_beat_overlap_on_das2() {
        let (over, two) = simulate(|rt| {
            let tb = Testbed::new(rt, das2(), 2);
            (
                run_laplace(&tb, 2, small(LaplaceMode::AsyncOverlap, 1)),
                run_laplace(&tb, 2, small(LaplaceMode::Sync, 2)),
            )
        });
        assert!(
            two.exec_secs < over.exec_secs * 0.75,
            "two-stream {:.1}s should beat overlap {:.1}s by a wide margin",
            two.exec_secs,
            over.exec_secs
        );
    }

    /// The §7.1 counter-intuitive result: overlap + two streams collapses to
    /// the overlap-alone time (bus contention), and moving the wait to
    /// position 2 recovers the two-stream time.
    #[test]
    fn contention_erases_combined_optimization_until_restructured() {
        let (over1, combined, restructured, two) = simulate(|rt| {
            let tb = Testbed::new(rt, das2(), 2);
            // More checkpoints than the quick tests: the final write drains
            // with no MPI behind it (uncontended), so with few checkpoints
            // that tail skews the average.
            let longer = |mode, streams| LaplaceParams {
                checkpoints: 6,
                ..small(mode, streams)
            };
            (
                run_laplace(&tb, 2, longer(LaplaceMode::AsyncOverlap, 1)),
                run_laplace(&tb, 2, longer(LaplaceMode::AsyncOverlap, 2)),
                run_laplace(&tb, 2, longer(LaplaceMode::AsyncNoCommOverlap, 2)),
                run_laplace(&tb, 2, longer(LaplaceMode::Sync, 2)),
            )
        });
        // Combined ≈ overlap alone (within 15%).
        let rel = (combined.exec_secs - over1.exec_secs).abs() / over1.exec_secs;
        assert!(
            rel < 0.15,
            "combined {:.1}s should match overlap-alone {:.1}s",
            combined.exec_secs,
            over1.exec_secs
        );
        // Restructured ≈ the plain two-stream run, far below combined.
        let rel2 = (restructured.exec_secs - two.exec_secs).abs() / two.exec_secs;
        assert!(
            rel2 < 0.15,
            "restructured {:.1}s should match two-stream {:.1}s",
            restructured.exec_secs,
            two.exec_secs
        );
        assert!(restructured.exec_secs < combined.exec_secs * 0.8);
    }

    #[test]
    fn jacobi_sweep_relaxes_toward_boundary_average() {
        let cols = 8;
        let mut grid = vec![0.0; cols * cols];
        for cell in grid.iter_mut().take(cols) {
            *cell = 100.0; // hot top edge
        }
        let mut next = grid.clone();
        for _ in 0..200 {
            jacobi_sweep(&grid, &mut next, cols);
            std::mem::swap(&mut grid, &mut next);
        }
        // Interior points settle strictly between the boundary extremes.
        let mid = grid[(cols / 2) * cols + cols / 2];
        assert!(mid > 0.0 && mid < 100.0, "mid {mid}");
    }
}
