//! # semplar-clusters
//!
//! Models of the paper's experimental setup (§5): three client clusters —
//! DAS-2 (Amsterdam), the OSC Pentium 4 Xeon cluster, and the NCSA TeraGrid
//! cluster — talking to the SDSC SRB server `orion.sdsc.edu` across the
//! wide area.
//!
//! ## Calibration
//!
//! Link speeds, node hardware, and RTTs are the paper's own numbers where it
//! gives them (§5): DAS-2 has dual 1 GHz P-III nodes on 100 Mb/s uplinks and
//! a ~182 ms transoceanic RTT; OSC has dual 2.4 GHz Xeons behind a NAT host;
//! TG-NCSA has dual Itanium-2 nodes on a 40 Gb/s backbone with ~30 ms RTT;
//! orion is a 36-CPU Sun Fire 15000 with 6 data NICs. Quantities the paper
//! does *not* give — per-stream TCP windows, the effective WAN share toward
//! SDSC, the NAT host's capacity, bus-contention strength — are calibrated
//! so the reproduction lands in the paper's reported regimes (Figs. 6–9):
//! 2006-era default TCP windows (64 KiB send / 32–48 KiB receive) make a
//! single stream window-limited, which is the entire §7.2 mechanism.

#![warn(missing_docs)]

use std::sync::Arc;

use semplar::{FedShard, SrbFs, SrbFsConfig};
use semplar_mpi::Topology;
use semplar_netsim::net::{BusId, BusSpec};
use semplar_netsim::{Bw, Cpu, LinkId, Network};
use semplar_runtime::{Dur, Runtime};
use semplar_srb::{ConnRoute, Disk, DiskSpec, Replicator, RetryPolicy, SrbServer, SrbServerCfg};

/// Cores per node (all three clusters have dual-CPU nodes).
const CORES_PER_NODE: f64 = 2.0;
/// Interconnect NIC bandwidth (Myrinet / GigE fabric).
const IC_BW: Bw = Bw::gbps(2.0);

/// Static description of one client cluster.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Cluster name ("das2", "osc", "tg-ncsa").
    pub name: &'static str,
    /// Node speed relative to a 1 GHz Pentium III.
    pub cpu_speed: f64,
    /// Node WAN (Ethernet) NIC bandwidth.
    pub eth_bw: Bw,
    /// Cluster egress toward the Internet (the NAT host on OSC).
    pub uplink_bw: Bw,
    /// Effective share of the WAN path toward SDSC.
    pub wan_bw: Bw,
    /// One-way WAN delay (RTT/2).
    pub wan_owd: Dur,
    /// Interconnect per-hop latency.
    pub ic_latency: Dur,
    /// TCP send window per stream, bytes.
    pub send_window: u64,
    /// TCP receive window per stream, bytes.
    pub recv_window: u64,
    /// Node-local disk (source data for the compression experiment).
    pub local_disk: DiskSpec,
}

impl ClusterSpec {
    /// Round-trip time to the SRB server.
    pub fn rtt(&self) -> Dur {
        self.wan_owd * 2
    }

    /// Per-stream cap in the client→server direction: `send_window / RTT`.
    pub fn send_cap(&self) -> Bw {
        Bw::bps(self.send_window as f64 * 8.0 / self.rtt().as_secs_f64())
    }

    /// Per-stream cap in the server→client direction: `recv_window / RTT`.
    pub(crate) fn recv_cap(&self) -> Bw {
        Bw::bps(self.recv_window as f64 * 8.0 / self.rtt().as_secs_f64())
    }
}

/// DAS-2 (Vrije Universiteit, Amsterdam): the high-latency, low-bandwidth
/// point. Dual 1 GHz P-III, Myrinet, 100 Mb/s to the outside world, ~182 ms
/// RTT to SDSC over a transoceanic path.
pub fn das2() -> ClusterSpec {
    ClusterSpec {
        name: "das2",
        cpu_speed: 1.0,
        eth_bw: Bw::mbps(100.0),
        uplink_bw: Bw::gbps(1.0),
        // Calibrated so the sweep's average two-stream write gain matches
        // the paper's +43% (the shared transoceanic share saturates the
        // two-stream curve around 110 Mb/s in Fig. 8a).
        wan_bw: Bw::mbps(80.0),
        wan_owd: Dur::from_millis(91),
        ic_latency: Dur::from_micros(10),
        send_window: 64 * 1024,
        recv_window: 32 * 1024,
        local_disk: DiskSpec {
            bandwidth: Bw::mbyte_per_s(30.0),
            seek: Dur::from_millis(1),
            ..DiskSpec::default()
        },
    }
}

/// OSC Pentium 4 Xeon cluster: low latency, but the nodes have no public IP
/// addresses — every WAN stream funnels through the NAT host (§7.1: "the
/// bottleneck represented by the NAT host reduces the advantage of doubling
/// the number of connections").
pub fn osc() -> ClusterSpec {
    ClusterSpec {
        name: "osc",
        cpu_speed: 1.6, // 2.4 GHz P4 Xeon vs 1 GHz P-III
        eth_bw: Bw::mbps(100.0),
        uplink_bw: Bw::mbps(60.0), // the NAT host (binds by ~4 procs)
        wan_bw: Bw::mbps(400.0),
        wan_owd: Dur::from_millis(15),
        ic_latency: Dur::from_micros(10),
        send_window: 64 * 1024,
        recv_window: 32 * 1024,
        local_disk: DiskSpec {
            bandwidth: Bw::mbyte_per_s(40.0),
            seek: Dur::from_millis(1),
            ..DiskSpec::default()
        },
    }
}

/// NCSA TeraGrid cluster: dual Itanium-2 nodes, GigE per node, 40 Gb/s
/// TeraGrid backbone, ~30 ms RTT to SDSC.
pub fn tg_ncsa() -> ClusterSpec {
    ClusterSpec {
        name: "tg-ncsa",
        cpu_speed: 1.8, // 1.5 GHz Itanium 2
        eth_bw: Bw::gbps(1.0),
        uplink_bw: Bw::gbps(10.0),
        wan_bw: Bw::mbps(220.0), // the Fig. 8b saturation plateau
        wan_owd: Dur::from_millis(15),
        ic_latency: Dur::from_micros(8),
        // TeraGrid hosts shipped tuned TCP windows (32 Mb/s per stream at
        // 30 ms), calibrated against Fig. 8b's +24%/+75% averages.
        send_window: 120 * 1024,
        recv_window: 58 * 1024,
        local_disk: DiskSpec {
            bandwidth: Bw::mbyte_per_s(60.0),
            seek: Dur::from_millis(1),
            ..DiskSpec::default()
        },
    }
}

/// All three clusters, in the paper's presentation order.
pub fn all_clusters() -> Vec<ClusterSpec> {
    vec![das2(), osc(), tg_ncsa()]
}

/// A built testbed: `nodes` cluster nodes wired to an orion instance.
pub struct Testbed {
    /// The runtime everything charges time against.
    pub rt: Arc<dyn Runtime>,
    /// The shared network.
    pub net: Arc<Network>,
    /// The SRB server.
    pub server: Arc<SrbServer>,
    /// The cluster description this testbed was built from.
    pub spec: ClusterSpec,
    /// MPI interconnect over the same network (paths cross the node buses).
    pub topo: Arc<Topology>,
    nodes: usize,
    eth_out: Vec<LinkId>,
    eth_in: Vec<LinkId>,
    uplink_up: LinkId,
    uplink_down: LinkId,
    wan_up: LinkId,
    wan_down: LinkId,
    buses: Vec<BusId>,
    cpus: Vec<Arc<Cpu>>,
    /// Node-local disks, all on one disk network of their own.
    disks: Vec<Disk>,
}

/// Default SRB account used by the testbed.
pub const USER: &str = "semplar";
/// Password for [`USER`].
pub const PASSWORD: &str = "hpdc06";

impl Testbed {
    /// Build a testbed with `nodes` client nodes and the stock orion
    /// server (its disk is [`DiskSpec::default`]).
    pub fn new(rt: Arc<dyn Runtime>, spec: ClusterSpec, nodes: usize) -> Arc<Testbed> {
        Testbed::with_server_disk(rt, spec, nodes, DiskSpec::default())
    }

    /// Build a testbed whose server runs over a custom [`DiskSpec`] —
    /// bandwidth, seek, and concurrency degradation — keeping every other
    /// orion parameter. The knob for disk-bound experiments (`fig_cache`).
    pub fn with_server_disk(
        rt: Arc<dyn Runtime>,
        spec: ClusterSpec,
        nodes: usize,
        disk: DiskSpec,
    ) -> Arc<Testbed> {
        let net = Network::new(rt.clone());

        let eth_out: Vec<LinkId> = (0..nodes)
            .map(|i| net.add_link(&format!("{}/eth{i}-out", spec.name), spec.eth_bw, Dur::ZERO))
            .collect();
        let eth_in: Vec<LinkId> = (0..nodes)
            .map(|i| net.add_link(&format!("{}/eth{i}-in", spec.name), spec.eth_bw, Dur::ZERO))
            .collect();
        let uplink_up = net.add_link(
            &format!("{}/uplink-up", spec.name),
            spec.uplink_bw,
            Dur::ZERO,
        );
        let uplink_down = net.add_link(
            &format!("{}/uplink-down", spec.name),
            spec.uplink_bw,
            Dur::ZERO,
        );
        let wan_up = net.add_link(&format!("{}/wan-up", spec.name), spec.wan_bw, spec.wan_owd);
        let wan_down = net.add_link(
            &format!("{}/wan-down", spec.name),
            spec.wan_bw,
            spec.wan_owd,
        );

        let buses: Vec<BusId> = (0..nodes)
            .map(|_| net.add_bus(BusSpec::default()))
            .collect();
        let cpus: Vec<Arc<Cpu>> = (0..nodes)
            .map(|_| Cpu::new(rt.clone(), CORES_PER_NODE, spec.cpu_speed))
            .collect();

        // Interconnect fabric: per-node ingress/egress links; every message
        // DMAs across both endpoint I/O buses.
        let ic_out: Vec<LinkId> = (0..nodes)
            .map(|i| net.add_link(&format!("{}/ic{i}-out", spec.name), IC_BW, spec.ic_latency))
            .collect();
        let ic_in: Vec<LinkId> = (0..nodes)
            .map(|i| net.add_link(&format!("{}/ic{i}-in", spec.name), IC_BW, Dur::ZERO))
            .collect();
        let buses2 = buses.clone();
        let topo = Topology::new(net.clone(), Dur::from_micros(5), move |src, dst| {
            (
                vec![ic_out[src], ic_in[dst]],
                vec![buses2[src], buses2[dst]],
            )
        });

        // Node-local disks (a separate resource domain from the network).
        let disk_net = Network::new(rt.clone());
        let disks = (0..nodes)
            .map(|_| Disk::new(&disk_net, spec.local_disk))
            .collect();

        let server = SrbServer::new(
            net.clone(),
            SrbServerCfg {
                disk,
                ..SrbServerCfg::default()
            },
        );
        server.mcat().add_user(USER, PASSWORD);
        Arc::new(Testbed {
            rt,
            net,
            server,
            spec,
            topo,
            nodes,
            eth_out,
            eth_in,
            uplink_up,
            uplink_down,
            wan_up,
            wan_down,
            buses,
            cpus,
            disks,
        })
    }

    /// Number of client nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The shared WAN links, `(uplink direction, downlink direction)` —
    /// every node's traffic to the server crosses these, which makes them
    /// the natural target for link-fault injection.
    pub fn wan_links(&self) -> (LinkId, LinkId) {
        (self.wan_up, self.wan_down)
    }

    /// The WAN route from `node` to the server (per-stream caps included).
    pub fn route(&self, node: usize) -> ConnRoute {
        ConnRoute {
            fwd: vec![self.eth_out[node], self.uplink_up, self.wan_up],
            rev: vec![self.wan_down, self.uplink_down, self.eth_in[node]],
            send_cap: Some(self.spec.send_cap()),
            recv_cap: Some(self.spec.recv_cap()),
            bus: Some(self.buses[node]),
        }
    }

    /// An SRBFS mount for `node` (each `File::open` through it creates a
    /// fresh TCP connection, as in the paper).
    pub fn srbfs(&self, node: usize) -> Arc<SrbFs> {
        SrbFs::new(
            self.server.clone(),
            SrbFsConfig::new(self.route(node), USER, PASSWORD),
        )
    }

    /// The CPU pool of `node`.
    pub fn cpu(&self, node: usize) -> &Arc<Cpu> {
        &self.cpus[node]
    }

    /// Charge `work` reference-seconds of computation on `node`.
    pub fn compute(&self, node: usize, work: Dur) {
        self.cpus[node].compute(work);
    }

    /// Charge a local-disk read of `bytes` on `node`: the seek, then the
    /// transfer, `k` concurrent reads on one node sharing the degraded
    /// aggregate of `spec.local_disk` (see [`Disk`]).
    pub fn local_read(&self, node: usize, bytes: u64) {
        self.disks[node].charge(bytes);
    }
}

/// A federation testbed: primary/replica SRB server pairs on one network,
/// each pair with its two client mounts (50 Mb/s, 10 ms paths) and the
/// write-path replicators between its servers (1 Gb/s, 1 ms) — the
/// [`FedShard`]s a [`semplar::FedFs`] is built from.
pub struct FedTestbed {
    /// The network every server, mount and replicator shares.
    pub net: Arc<Network>,
    /// One shard per server pair; each seat's server is its mount's
    /// [`SrbFs::server`] (block caches and fault plans are installed there).
    pub shards: Vec<FedShard>,
}

impl FedTestbed {
    /// Build `shards` pairs. `reverse` wires every pair for membership
    /// governance: a dormant replica→primary replicator beside the forward
    /// one, and the `fed` replication account on both seats instead of the
    /// replica alone. `lease_capacity` turns on read leases of that size on
    /// every mount.
    ///
    /// Per pair the construction order is fixed — both servers, both
    /// mounts, the forward replicator, then the reverse one — because
    /// model-checked scenarios are schedule-sensitive, and because a
    /// mount's change hook must be registered on its server before the
    /// replicator's.
    pub fn new(
        rt: &Arc<dyn Runtime>,
        shards: usize,
        reverse: bool,
        lease_capacity: Option<u64>,
    ) -> FedTestbed {
        let net = Network::new(rt.clone());
        let route = |name: String, bw: Bw, owd: Dur| ConnRoute {
            fwd: vec![net.add_link(&format!("{name}-fwd"), bw, owd)],
            rev: vec![net.add_link(&format!("{name}-rev"), bw, owd)],
            send_cap: None,
            recv_cap: None,
            bus: None,
        };
        let shards = (0..shards)
            .map(|s| {
                let primary = SrbServer::new(net.clone(), SrbServerCfg::default());
                let replica = SrbServer::new(net.clone(), SrbServerCfg::default());
                primary.mcat().add_user("u", "p");
                replica.mcat().add_user("u", "p");
                replica.mcat().add_user("fed", "fed");
                if reverse {
                    primary.mcat().add_user("fed", "fed");
                }
                // Federated failover is the recovery: with no client retry
                // a crashed primary refuses at once instead of the client
                // backing off for seconds.
                let client = |seat: &str| SrbFsConfig {
                    retry: RetryPolicy::none(),
                    lease_capacity,
                    ..SrbFsConfig::new(
                        route(
                            format!("s{s}-client-{seat}"),
                            Bw::mbps(50.0),
                            Dur::from_millis(10),
                        ),
                        "u",
                        "p",
                    )
                };
                let primary_fs = SrbFs::new(primary.clone(), client("primary"));
                let replica_fs = SrbFs::new(replica.clone(), client("replica"));
                let repl_route =
                    |name: &str| route(format!("s{s}-{name}"), Bw::gbps(1.0), Dur::from_millis(1));
                let forward = Replicator::start(
                    rt,
                    primary.clone(),
                    replica.clone(),
                    repl_route("repl"),
                    "fed",
                    "fed",
                    RetryPolicy::default(),
                );
                let reverse = reverse.then(|| {
                    let reverse = Replicator::start(
                        rt,
                        replica,
                        primary,
                        repl_route("repl-rev"),
                        "fed",
                        "fed",
                        RetryPolicy::default(),
                    );
                    reverse.set_active(false);
                    reverse
                });
                FedShard {
                    primary: primary_fs,
                    replica: replica_fs,
                    replicator: Some(forward),
                    reverse,
                }
            })
            .collect();
        FedTestbed { net, shards }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semplar::{File, OpenFlags, Payload, StripeUnit, StripedFile};
    use semplar_runtime::{simulate, spawn};

    #[test]
    fn specs_have_sane_window_caps() {
        // DAS-2: 64 KiB / 182 ms ≈ 2.88 Mb/s; TG: 64 KiB / 30 ms ≈ 17.5 Mb/s.
        let d = das2();
        assert!(
            (d.send_cap().as_mbps() - 2.88).abs() < 0.01,
            "{}",
            d.send_cap().as_mbps()
        );
        assert!(d.recv_cap().as_mbps() < d.send_cap().as_mbps());
        let t = tg_ncsa();
        assert!(
            (t.send_cap().as_mbps() - 32.8).abs() < 0.1,
            "{}",
            t.send_cap().as_mbps()
        );
    }

    #[test]
    fn das2_single_stream_is_window_limited() {
        let elapsed = simulate(|rt| {
            let tb = Testbed::new(rt.clone(), das2(), 1);
            let fs = tb.srbfs(0);
            let f = File::open(&rt, &fs, "/x", OpenFlags::CreateRw).unwrap();
            let t0 = rt.now();
            f.write_at(0, &Payload::sized(1 << 20)).unwrap();
            let dt = rt.now() - t0;
            f.close().unwrap();
            dt
        });
        // 8.39 Mbit at 2.88 Mb/s ≈ 2.9 s — nowhere near the 100 Mb/s NIC.
        let s = elapsed.as_secs_f64();
        assert!((2.8..3.4).contains(&s), "elapsed {elapsed}");
    }

    #[test]
    fn das2_two_streams_double_throughput() {
        let (one, two) = simulate(|rt| {
            let tb = Testbed::new(rt.clone(), das2(), 1);
            let fs = tb.srbfs(0);
            let one_f =
                StripedFile::open(&rt, &fs, "/one", OpenFlags::CreateRw, 1, StripeUnit::Even)
                    .unwrap();
            let t0 = rt.now();
            one_f.write_at(0, Payload::sized(8 << 20)).unwrap();
            let one = rt.now() - t0;
            one_f.close().unwrap();

            let two_f =
                StripedFile::open(&rt, &fs, "/two", OpenFlags::CreateRw, 2, StripeUnit::Even)
                    .unwrap();
            let t0 = rt.now();
            two_f.write_at(0, Payload::sized(8 << 20)).unwrap();
            let two = rt.now() - t0;
            two_f.close().unwrap();
            (one, two)
        });
        let speedup = one.as_secs_f64() / two.as_secs_f64();
        assert!(speedup > 1.7, "speedup {speedup:.2} ({one} vs {two})");
    }

    #[test]
    fn osc_nat_caps_aggregate_bandwidth() {
        // 16 OSC nodes writing at once: aggregate pinned near the NAT's
        // 140 Mb/s no matter how many per-node streams run.
        let (agg_one, agg_two) = simulate(|rt| {
            let run = |streams: usize, rt: &Arc<dyn Runtime>| {
                let tb = Testbed::new(rt.clone(), osc(), 16);
                let bytes_per_node: u64 = 4 << 20;
                let t0 = rt.now();
                let mut hs = Vec::new();
                for n in 0..16 {
                    let fs = tb.srbfs(n);
                    let rt2 = rt.clone();
                    hs.push(spawn(rt, &format!("n{n}"), move || {
                        let f = StripedFile::open(
                            &rt2,
                            &fs,
                            &format!("/osc-{streams}-{n}"),
                            OpenFlags::CreateRw,
                            streams,
                            StripeUnit::Even,
                        )
                        .unwrap();
                        f.write_at(0, Payload::sized(bytes_per_node)).unwrap();
                        f.close().unwrap();
                    }));
                }
                for h in hs {
                    h.join_unwrap();
                }
                let dt = (rt.now() - t0).as_secs_f64();
                16.0 * (4 << 20) as f64 * 8.0 / dt / 1e6 // aggregate Mb/s
            };
            (run(1, &rt), run(2, &rt))
        });
        assert!(agg_one > 45.0, "one-stream aggregate {agg_one:.0} Mb/s");
        let gain = agg_two / agg_one;
        assert!(
            gain < 1.25,
            "NAT should cap the two-stream gain, got {gain:.2}x ({agg_one:.0} → {agg_two:.0})"
        );
    }

    /// The server-disk override plumbs through: a testbed built over a
    /// 1 MB/s vault takes ~10x longer to absorb a write than the stock
    /// 400 MB/s orion (the WAN is fast here, so the disk dominates).
    #[test]
    fn with_server_disk_makes_the_vault_the_bottleneck() {
        let (stock, slow) = simulate(|rt| {
            let run = |disk: Option<DiskSpec>| {
                let tb = match disk {
                    Some(d) => Testbed::with_server_disk(rt.clone(), tg_ncsa(), 1, d),
                    None => Testbed::new(rt.clone(), tg_ncsa(), 1),
                };
                let fs = tb.srbfs(0);
                let f = File::open(&rt, &fs, "/d", OpenFlags::CreateRw).unwrap();
                let t0 = rt.now();
                f.write_at(0, &Payload::sized(4 << 20)).unwrap();
                let dt = rt.now() - t0;
                f.close().unwrap();
                dt
            };
            (
                run(None),
                run(Some(DiskSpec {
                    bandwidth: Bw::mbyte_per_s(1.0),
                    seek: Dur::from_millis(5),
                    ..DiskSpec::default()
                })),
            )
        });
        assert!(
            slow.as_secs_f64() > stock.as_secs_f64() * 2.0,
            "slow vault should dominate: {slow} vs {stock}"
        );
    }

    /// Local-disk degradation: two concurrent readers on a fully degrading
    /// node disk (`degradation: 1.0` halves the aggregate) take about twice
    /// as long per op as two on a clean disk.
    #[test]
    fn node_disk_degradation_slows_concurrent_local_reads() {
        let (clean, degraded) = simulate(|rt| {
            let run = |degradation: f64| {
                let spec = ClusterSpec {
                    local_disk: DiskSpec {
                        bandwidth: Bw::mbyte_per_s(10.0),
                        seek: Dur::ZERO,
                        degradation,
                    },
                    ..das2()
                };
                let tb = Testbed::new(rt.clone(), spec, 2);
                let t0 = rt.now();
                let hs: Vec<_> = (0..2)
                    .map(|_| {
                        let tb = tb.clone();
                        spawn(&rt, "rd", move || {
                            // Both ops on node 0: they contend (or not).
                            tb.local_read(0, 10_000_000);
                        })
                    })
                    .collect();
                for h in hs {
                    h.join_unwrap();
                }
                rt.now() - t0
            };
            (run(0.0), run(1.0))
        });
        // Clean: two 1 s ops share the 10 MB/s link fairly → ~2 s total.
        // Degraded (1.0): aggregate halves to 5 MB/s while both run → ~4 s.
        assert!((clean.as_secs_f64() - 2.0).abs() < 0.1, "clean {clean}");
        assert!(degraded.as_secs_f64() > 3.5, "degraded {degraded}");
    }

    #[test]
    fn local_disk_and_compute_charge_time() {
        let (t_disk, t_cpu) = simulate(|rt| {
            let tb = Testbed::new(rt.clone(), das2(), 2);
            let t0 = rt.now();
            tb.local_read(0, 30_000_000); // 1 s at 30 MB/s
            let t_disk = rt.now() - t0;
            let t0 = rt.now();
            tb.compute(1, Dur::from_secs(2)); // 2 ref-sec at speed 1.0
            (t_disk, rt.now() - t0)
        });
        assert!((t_disk.as_secs_f64() - 1.001).abs() < 1e-6, "{t_disk}");
        assert!((t_cpu.as_secs_f64() - 2.0).abs() < 1e-6, "{t_cpu}");
    }

    /// Failover-only vs governed wiring: governance adds the dormant
    /// reverse replicator over its own path and the `fed` account on the
    /// primary seat; everything else is the same testbed.
    #[test]
    fn fed_testbed_governed_wiring_adds_only_the_reverse_path() {
        simulate(|rt| {
            let plain = FedTestbed::new(&rt, 2, false, None);
            let governed = FedTestbed::new(&rt, 2, true, None);
            let has_fed = |fs: &Arc<SrbFs>| fs.server().mcat().authenticate("fed", "fed").is_ok();
            for (p, g) in plain.shards.iter().zip(&governed.shards) {
                assert!(p.replicator.is_some() && p.reverse.is_none());
                assert!(g.replicator.is_some() && g.reverse.is_some());
                assert!(has_fed(&p.replica) && !has_fed(&p.primary));
                assert!(has_fed(&g.replica) && has_fed(&g.primary));
            }
            // Link ids count up from zero: after padding the plain network
            // with the two reverse-path links per shard it lacks, the next
            // link lands on the same id in both.
            for _ in 0..4 {
                plain.net.add_link("pad", Bw::mbps(1.0), Dur::ZERO);
            }
            assert_eq!(
                plain.net.add_link("probe", Bw::mbps(1.0), Dur::ZERO),
                governed.net.add_link("probe", Bw::mbps(1.0), Dur::ZERO)
            );

            // The reverse replicator is dormant: a write on the replica
            // seat enqueues nothing, a write on the primary seat ships
            // forward (and its echo on the replica is dropped too).
            let shard = &governed.shards[0];
            let (forward, reverse) = (
                shard.replicator.as_ref().unwrap(),
                shard.reverse.as_ref().unwrap(),
            );
            for (fs, path) in [
                (&shard.replica, "/on-replica"),
                (&shard.primary, "/on-primary"),
            ] {
                let f = File::open(&rt, fs, path, OpenFlags::CreateRw).unwrap();
                f.write_at(0, &Payload::sized(4096)).unwrap();
                f.close().unwrap();
            }
            forward.quiesce();
            assert_eq!(forward.stats().enqueued, 1);
            assert_eq!(reverse.stats().enqueued, 0);
        });
    }

    #[test]
    fn mpi_over_testbed_interconnect_works() {
        simulate(|rt| {
            let tb = Testbed::new(rt.clone(), tg_ncsa(), 4);
            // A ring: each rank passes on what it last received, so after
            // `size - 1` steps every rank has seen every other rank's id.
            let sums = semplar_mpi::run_world(tb.topo.clone(), 4, |r| {
                let (next, prev) = ((r.rank + 1) % r.size, (r.rank + r.size - 1) % r.size);
                let (mut sum, mut carry) = (r.rank as u64, r.rank as u64);
                for _ in 1..r.size {
                    r.send(next, 0, carry, 8);
                    carry = r.recv::<u64>(Some(prev), 0).1;
                    sum += carry;
                }
                sum
            });
            assert!(sums.iter().all(|&s| s == 6));
        });
    }
}
