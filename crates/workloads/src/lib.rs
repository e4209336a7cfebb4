//! # semplar-workloads
//!
//! The paper's benchmark programs (§6), runnable against any
//! [`Testbed`](semplar_clusters::Testbed):
//!
//! * [`perf`] — the ROMIO `perf` microbenchmark (Fig. 8);
//! * [`laplace`] — the OSC 2D Laplace solver with remote checkpointing
//!   (Fig. 7 and the §7.1 contention experiment);
//! * [`blast`] — the Ohio State MPI-BLAST master/worker search (Fig. 6);
//! * [`compressbench`] — the on-the-fly compression workload (Fig. 9);
//! * [`estgen`] — synthetic GenBank-EST-like nucleotide text with
//!   calibrated LZ compressibility;
//! * [`actors`] — event-driven client swarms (10⁵ sessions as poll-style
//!   tasks) with heavy-tailed open-loop arrivals over a tenant mix.

#![warn(missing_docs)]

pub mod actors;
pub mod blast;
pub mod collective;
pub mod compressbench;
pub mod estgen;
pub mod laplace;
pub mod perf;

pub use actors::{
    heavy_tailed_arrivals, run_swarm, AccessSkew, OpShape, SessionOutcome, SwarmParams,
    SwarmReport, TenantMix,
};
pub use blast::{run_blast, BlastParams, BlastReport};
pub use collective::{run_collective, CollectiveMode, CollectiveParams, CollectiveReport};
pub use compressbench::{run_compress, CompressMode, CompressParams, CompressReport};
pub use estgen::{generate, EstGenConfig};
pub use laplace::{run_laplace, LaplaceMode, LaplaceParams, LaplaceReport};
pub use perf::{run_perf, PerfParams, PerfReport};
