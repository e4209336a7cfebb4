//! # semplar-mpi
//!
//! A thread-per-rank message-passing runtime over the simulated
//! interconnect — the substrate standing in for mpich-1.2.6 in the SEMPLAR
//! reproduction (Ali & Lauria, HPDC 2006).
//!
//! The paper's benchmarks use MPI for rank management, MPI-BLAST's
//! master/worker query distribution, and the Laplace solver's halo
//! exchange; crucially, on all three clusters *"most of the 'computation'
//! phase is actually spent in executing the MPI send/receive calls"*
//! (§7.1), and that traffic contends with remote I/O on the node's I/O bus.
//! Ranks here are real threads under the virtual-time runtime; every message
//! charges wire time through a [`Topology`], whose paths can traverse the
//! same I/O-bus links as SEMPLAR's TCP streams.

#![warn(missing_docs)]

pub mod topology;
pub mod world;

pub use topology::Topology;
pub use world::{run_world, Rank, Tag, MSG_HDR};

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_netsim::{Bw, Network};
    use semplar_runtime::{simulate, Dur, Runtime};
    use std::sync::Arc;

    fn topo(rt: &Arc<dyn Runtime>, n: usize) -> Arc<Topology> {
        let net = Network::new(rt.clone());
        Topology::uniform(
            net,
            n,
            Bw::gbps(2.0),
            Dur::from_micros(10),
            Dur::from_micros(5),
        )
    }

    #[test]
    fn send_recv_roundtrip() {
        simulate(|rt| {
            let t = topo(&rt, 2);
            let out = run_world(t, 2, |r| {
                if r.rank == 0 {
                    r.send(1, 7, String::from("hello"), 5);
                    0usize
                } else {
                    let (src, s) = r.recv::<String>(Some(0), 7);
                    assert_eq!((src, s.as_str()), (0, "hello"));
                    1
                }
            });
            assert_eq!(out, vec![0, 1]);
        });
    }

    #[test]
    fn recv_matches_tag_and_source() {
        simulate(|rt| {
            let t = topo(&rt, 3);
            run_world(t, 3, |r| match r.rank {
                0 => {
                    r.send(2, 1, 100u64, 8);
                }
                1 => {
                    r.send(2, 2, 200u64, 8);
                }
                _ => {
                    // Ask for tag 2 first even if tag 1 arrives earlier.
                    let (_, b) = r.recv::<u64>(None, 2);
                    let (_, a) = r.recv::<u64>(None, 1);
                    assert_eq!((a, b), (100, 200));
                }
            });
        });
    }

    #[test]
    fn messages_from_same_source_keep_order() {
        simulate(|rt| {
            let t = topo(&rt, 2);
            run_world(t, 2, |r| {
                if r.rank == 0 {
                    for i in 0..20u32 {
                        r.send(1, 9, i, 4);
                    }
                } else {
                    for i in 0..20u32 {
                        let (_, v) = r.recv::<u32>(Some(0), 9);
                        assert_eq!(v, i);
                    }
                }
            });
        });
    }

    #[test]
    fn message_time_is_charged_to_sender() {
        let elapsed = simulate(|rt| {
            let net = Network::new(rt.clone());
            let t = Topology::uniform(net, 2, Bw::mbps(8.0), Dur::from_millis(1), Dur::ZERO);
            let rt2 = rt.clone();
            let times = run_world(t, 2, move |r| {
                let t0 = rt2.now();
                if r.rank == 0 {
                    r.send(1, 0, (), 1_000_000 - MSG_HDR);
                } else {
                    let _ = r.recv::<()>(Some(0), 0);
                }
                rt2.now() - t0
            });
            times[0]
        });
        // 1 MB at 8 Mb/s = 1 s + 1 ms path latency (egress link).
        assert!((elapsed.as_secs_f64() - 1.001).abs() < 1e-6, "{elapsed}");
    }

    #[test]
    fn barrier_aligns_ranks() {
        simulate(|rt| {
            let t = topo(&rt, 4);
            let rt2 = rt.clone();
            let ends = run_world(t, 4, move |r| {
                rt2.sleep(Dur::from_millis(r.rank as u64 * 10));
                r.barrier();
                rt2.now()
            });
            for w in ends.windows(2) {
                assert_eq!(w[0], w[1], "ranks left barrier at different times");
            }
        });
    }

    #[test]
    fn halo_exchange_pattern_does_not_deadlock() {
        // Every rank sends to both neighbours then receives from both —
        // the Laplace solver's communication step.
        simulate(|rt| {
            let t = topo(&rt, 6);
            run_world(t, 6, |r| {
                let up = (r.rank + 1) % r.size;
                let down = (r.rank + r.size - 1) % r.size;
                r.send(up, 1, r.rank, 8192);
                r.send(down, 2, r.rank, 8192);
                let (_, from_down) = r.recv::<usize>(Some(down), 1);
                let (_, from_up) = r.recv::<usize>(Some(up), 2);
                assert_eq!(from_down, down);
                assert_eq!(from_up, up);
            });
        });
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_is_a_loud_protocol_error() {
        simulate(|rt| {
            let t = topo(&rt, 2);
            run_world(t, 2, |r| {
                if r.rank == 0 {
                    r.send(1, 0, 1u8, 1);
                } else {
                    let _ = r.recv::<u64>(Some(0), 0);
                }
            });
        });
    }

    #[test]
    fn world_of_one_trivially_works() {
        simulate(|rt| {
            let t = topo(&rt, 1);
            let vals = run_world(t, 1, |r| {
                r.barrier();
                r.send(0, 3, 5u8, 1);
                r.recv::<u8>(Some(0), 3)
            });
            assert_eq!(vals, vec![(0, 5)]);
        });
    }
}
