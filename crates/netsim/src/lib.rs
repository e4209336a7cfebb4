//! # semplar-netsim
//!
//! Flow-level simulation of the wide-area and cluster networks used in the
//! SEMPLAR evaluation (Ali & Lauria, HPDC 2006).
//!
//! The paper's §7 phenomena are all *bandwidth-sharing and latency* effects:
//!
//! * a single WAN TCP stream is window-limited (`cwnd/RTT`) far below the
//!   node uplink, so a second stream per node nearly doubles throughput
//!   (Fig. 8);
//! * shared resources — the transoceanic path, the OSC NAT host, the SRB
//!   server NICs, a node's I/O bus — cap the aggregate and erase per-stream
//!   gains (§7.2, §7.1's counter-intuitive contention result);
//! * synchronous request/response ops pay a full RTT per call.
//!
//! A max-min-fair fluid model over a link graph captures exactly these
//! mechanisms. Flows start and stop as actors call
//! [`Network::transfer`]/[`Network::send_message_opts`]; rates are
//! recomputed by progressive filling at every change, and one alarm per
//! network wakes the owner of the earliest completion. The same allocator
//! doubles as the node CPU model ([`Cpu`]).

#![warn(missing_docs)]

pub mod cpu;
pub mod fair;
pub mod net;

pub use cpu::Cpu;
pub use net::{AllocMode, Bw, LinkId, NetStats, Network};
