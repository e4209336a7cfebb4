//! Interconnect topology: where MPI traffic flows.
//!
//! A [`Topology`] maps a (source rank, destination rank) pair to a link path
//! on the shared [`Network`], plus a per-message software latency. Cluster
//! models build topologies whose paths traverse each node's **I/O bus
//! link** as well as its interconnect NIC — that shared bus is what produces
//! the paper's §7.1 counter-intuitive result (overlapped MPI communication
//! and remote I/O contending inside the node).

use std::sync::Arc;

use semplar_netsim::net::{BusId, DeviceClass, XferOpts};
use semplar_netsim::{LinkId, Network};
use semplar_runtime::Dur;

/// Path function: (src, dst) → (links crossed, I/O buses crossed).
type PathFn = dyn Fn(usize, usize) -> (Vec<LinkId>, Vec<BusId>) + Send + Sync;

/// The interconnect seen by one MPI world.
pub struct Topology {
    net: Arc<Network>,
    paths: Box<PathFn>,
    /// Per-message software/NIC latency (on top of link latencies).
    pub sw_latency: Dur,
}

impl Topology {
    /// Build from an arbitrary path function.
    pub fn new(
        net: Arc<Network>,
        sw_latency: Dur,
        paths: impl Fn(usize, usize) -> (Vec<LinkId>, Vec<BusId>) + Send + Sync + 'static,
    ) -> Arc<Topology> {
        Arc::new(Topology {
            net,
            paths: Box::new(paths),
            sw_latency,
        })
    }

    /// A uniform switched fabric: every node gets an ingress and egress link
    /// of `nic_bw`; the path i→j is `[out_i, in_j]`.
    #[cfg(test)]
    pub(crate) fn uniform(
        net: Arc<Network>,
        nodes: usize,
        nic_bw: semplar_netsim::Bw,
        link_latency: Dur,
        sw_latency: Dur,
    ) -> Arc<Topology> {
        let outs: Vec<LinkId> = (0..nodes)
            .map(|i| net.add_link(&format!("ic/out{i}"), nic_bw, link_latency))
            .collect();
        let ins: Vec<LinkId> = (0..nodes)
            .map(|i| net.add_link(&format!("ic/in{i}"), nic_bw, Dur::ZERO))
            .collect();
        Topology::new(net, sw_latency, move |src, dst| {
            (vec![outs[src], ins[dst]], Vec::new())
        })
    }

    /// The network this topology charges traffic to.
    pub(crate) fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// Deliver a `bytes`-sized message from `src` to `dst`, blocking the
    /// caller for the modelled duration (eager-send semantics: the sender
    /// pays the wire time; the message is then instantly available).
    pub(crate) fn deliver(&self, src: usize, dst: usize, bytes: u64) {
        self.net.runtime().sleep(self.sw_latency);
        if src == dst {
            return; // self-sends cost only the software overhead
        }
        let (path, buses) = (self.paths)(src, dst);
        let opts = XferOpts {
            cap: None,
            buses: buses
                .into_iter()
                .map(|b| (b, DeviceClass::Interconnect))
                .collect(),
        };
        self.net.send_message_opts(&path, bytes, &opts);
    }
}
