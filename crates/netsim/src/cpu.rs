//! Node CPU model.
//!
//! A [`Cpu`] is a pool of cores time-shared max-min fairly among runnable
//! tasks — it reuses the network's progressive-filling allocator with a
//! single "link" whose capacity is the core count and per-task caps of one
//! core. This is how the reproduction models the paper's dual-processor
//! nodes (§7.3: "running the application on dual CPU nodes will ensure that
//! the application's performance is not adversely affected by the overhead
//! associated with compression"): with two cores, a compression task and a
//! compute task proceed at full speed; with one core they time-share and the
//! compression overhead lands back on the critical path.

use std::sync::Arc;

use semplar_runtime::{Dur, Runtime};

use crate::net::{LinkId, Network};

/// A node's processor pool.
pub struct Cpu {
    net: Arc<Network>,
    link: LinkId,
    speed: f64,
}

impl Cpu {
    /// A CPU with `cores` cores, each running at `speed` relative to the
    /// reference machine (1.0 = reference). Work durations passed to
    /// [`Cpu::compute`] are expressed in reference-machine seconds.
    pub fn new(rt: Arc<dyn Runtime>, cores: f64, speed: f64) -> Arc<Cpu> {
        assert!(cores > 0.0 && speed > 0.0);
        let net = Network::new(rt);
        // Units are core-*nanoseconds* (not core-seconds) so that even
        // sub-millisecond work items sit far above the flow-completion
        // threshold of the fluid model.
        let link = net.add_link("cpu", crate::net::Bw::bps(cores * 1e9), Dur::ZERO);
        Arc::new(Cpu { net, link, speed })
    }

    /// Execute `work` reference-seconds of single-threaded computation,
    /// blocking the calling actor for the modelled duration (which stretches
    /// when more tasks than cores are runnable).
    pub fn compute(&self, work: Dur) {
        // A task can use at most one core (1e9 core-ns per second).
        self.net
            .transfer_units(&[self.link], work.as_nanos() as f64 / self.speed, Some(1e9));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_runtime::{simulate, spawn};

    #[test]
    fn single_task_runs_at_full_speed() {
        let elapsed = simulate(|rt| {
            let cpu = Cpu::new(rt.clone(), 2.0, 1.0);
            let t0 = rt.now();
            cpu.compute(Dur::from_secs(3));
            rt.now() - t0
        });
        assert!((elapsed.as_secs_f64() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn two_tasks_on_two_cores_do_not_interfere() {
        let elapsed = simulate(|rt| {
            let cpu = Cpu::new(rt.clone(), 2.0, 1.0);
            let cpu2 = cpu.clone();
            let t0 = rt.now();
            let h = spawn(&rt, "task2", move || cpu2.compute(Dur::from_secs(2)));
            cpu.compute(Dur::from_secs(2));
            h.join_unwrap();
            rt.now() - t0
        });
        assert!((elapsed.as_secs_f64() - 2.0).abs() < 1e-6, "{elapsed}");
    }

    #[test]
    fn three_tasks_on_two_cores_timeshare() {
        let elapsed = simulate(|rt| {
            let cpu = Cpu::new(rt.clone(), 2.0, 1.0);
            let t0 = rt.now();
            let mut hs = Vec::new();
            for i in 0..3 {
                let c = cpu.clone();
                hs.push(spawn(&rt, &format!("t{i}"), move || {
                    c.compute(Dur::from_secs(2));
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
            rt.now() - t0
        });
        // 3 tasks × 2 core-sec = 6 core-sec on 2 cores = 3 s wall.
        assert!((elapsed.as_secs_f64() - 3.0).abs() < 1e-6, "{elapsed}");
    }

    #[test]
    fn faster_cpu_shortens_work() {
        let elapsed = simulate(|rt| {
            let cpu = Cpu::new(rt.clone(), 1.0, 2.0); // 2x reference speed
            let t0 = rt.now();
            cpu.compute(Dur::from_secs(4));
            rt.now() - t0
        });
        assert!((elapsed.as_secs_f64() - 2.0).abs() < 1e-6, "{elapsed}");
    }
}
