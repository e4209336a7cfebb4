//! A real 2D Laplace solver (actual Jacobi arithmetic, not a model) that
//! checkpoints its grid to a remote SRB file, comparing synchronous
//! checkpoints against asynchronous ones that overlap the next block of
//! sweeps — the paper's §7.1 pattern, live under wall-clock time.
//!
//! ```text
//! cargo run --release --example laplace_checkpoint
//! ```

use std::sync::Arc;

use semplar_repro::netsim::{Bw, Network};
use semplar_repro::runtime::{Dur, RealRuntime, Runtime};
use semplar_repro::semplar::{File, OpenFlags, Payload, Request, SrbFs, SrbFsConfig};
use semplar_repro::srb::{ConnRoute, SrbServer, SrbServerCfg};
use semplar_repro::workloads::laplace::jacobi_sweep;

const N: usize = 384; // grid side
const SWEEPS_PER_CKPT: usize = 2200; // sized so a checkpoint ≈ a sweep block
const CHECKPOINTS: usize = 5;

fn setup_fs(rt: &Arc<dyn Runtime>) -> Arc<SrbFs> {
    let net = Network::new(rt.clone());
    // A deliberately slow link (25 Mb/s, 15 ms one way) so checkpoints cost
    // real time worth hiding.
    let up = net.add_link("up", Bw::mbps(25.0), Dur::from_millis(15));
    let down = net.add_link("down", Bw::mbps(25.0), Dur::from_millis(15));
    let server = SrbServer::new(net, SrbServerCfg::default());
    server.mcat().add_user("laplace", "pw");
    SrbFs::new(
        server,
        SrbFsConfig::new(
            ConnRoute {
                fwd: vec![up],
                rev: vec![down],
                send_cap: None,
                recv_cap: None,
                bus: None,
            },
            "laplace",
            "pw",
        ),
    )
}

fn grid_bytes(grid: &[f64]) -> Vec<u8> {
    grid.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn run(rt: &Arc<dyn Runtime>, fs: &Arc<SrbFs>, path: &str, asynchronous: bool) -> (Dur, f64) {
    let file = File::open(rt, fs, path, OpenFlags::CreateRw).expect("open");
    // Hot top edge, cold elsewhere.
    let mut grid = vec![0.0f64; N * N];
    let mut next = grid.clone();
    for j in 0..N {
        grid[j] = 100.0;
        next[j] = 100.0;
    }

    let t0 = rt.now();
    let mut pending: Option<Request> = None;
    for _ in 0..CHECKPOINTS {
        for _ in 0..SWEEPS_PER_CKPT {
            jacobi_sweep(&grid, &mut next, N);
            std::mem::swap(&mut grid, &mut next);
        }
        let snapshot = Payload::bytes(grid_bytes(&grid));
        if asynchronous {
            // Wait for the previous checkpoint only now — it overlapped the
            // sweeps above.
            if let Some(p) = pending.take() {
                p.wait().expect("checkpoint write");
            }
            pending = Some(file.iwrite_at(0, snapshot));
        } else {
            file.write_at(0, &snapshot).expect("checkpoint write");
        }
    }
    if let Some(p) = pending.take() {
        p.wait().expect("final checkpoint");
    }
    let elapsed = rt.now() - t0;
    let center = grid[(N / 2) * N + N / 2];
    file.close().expect("close");
    (elapsed, center)
}

fn main() {
    let rt: Arc<dyn Runtime> = RealRuntime::new().handle();
    let fs = setup_fs(&rt);

    let (sync_t, sync_mid) = run(&rt, &fs, "/ckpt-sync", false);
    println!("synchronous checkpoints:  {sync_t}  (center temperature {sync_mid:.4})");

    let (async_t, async_mid) = run(&rt, &fs, "/ckpt-async", true);
    println!("asynchronous checkpoints: {async_t}  (center temperature {async_mid:.4})");

    assert!(
        (sync_mid - async_mid).abs() < 1e-12,
        "the physics must not depend on the I/O mode"
    );
    let gain = 1.0 - async_t.as_secs_f64() / sync_t.as_secs_f64();
    println!("overlap hid {:.0}% of the execution time", gain * 100.0);
}
