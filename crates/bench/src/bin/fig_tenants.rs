//! Multi-tenant fairness: per-tenant p99 session goodput while one tenant
//! goes abusive, legacy shared-stream FIFO service vs the tenant-aware
//! stack (per-tenant streams + the server's deficit-round-robin gate).
//!
//! Four arms, identical seeded arrivals: `fair/fifo` and `abusive/fifo`
//! (all tenants multiplexed over shared pools, no fair queueing — an
//! abusive 256 KiB request parks every session behind it on its stream),
//! then `fair/drr` and `abusive/drr` (each tenant on its own streams,
//! DRR gate installed). Tenant 9 turns abusive by blasting 8 × 256 KiB
//! writes per session instead of the well-behaved 2 × 16 KiB + read.
//!
//! The figure's claim: under the tenant-aware stack every non-abusive
//! tenant's p99 goodput stays within 10 % of its all-fair baseline.
//!
//! The run is entirely in virtual time and fault-free, so the output is
//! bit-identical across invocations — CI diffs the `--quick` variant
//! against `results/fig_tenants_quick.txt`.

use std::collections::BTreeMap;

use semplar_bench::{engine_footer, flags, with_testbed, Table};
use semplar_clusters::das2;
use semplar_runtime::{Dur, SimStats};
use semplar_srb::{TenantId, TenantScheduler};
use semplar_workloads::{run_swarm, OpShape, SwarmParams, TenantMix};

const NODES: usize = 8;
/// The tenant the abusive arms hand the oversized shape to.
const ABUSIVE_TENANT: u32 = 9;
/// DRR quantum: bytes of service credit per round-robin visit. At 64 KiB a
/// well-behaved 16 KiB op glides through in one visit while an abusive
/// 256 KiB op must accumulate four.
const QUANTUM: u64 = 64 << 10;
/// Concurrent service slots the DRR gate grants. Sized so the gate is not
/// the bottleneck at the fair arrival rate (a slot is held across the
/// response's WAN delivery, ~1 RTT/2 on das2) and only bites when a
/// backlogged tenant tries to monopolise the stage.
const WIDTH: usize = 48;

struct Arm {
    label: String,
    /// Virtual seconds from first arrival to last completion.
    secs: f64,
    /// Per tenant: (sessions, p99 session goodput in Mb/s — the slowest-1 %
    /// boundary of per-session application goodput).
    tenants: BTreeMap<u32, (usize, f64)>,
    sim: SimStats,
}

impl Arm {
    fn p99(&self, tenant: u32) -> f64 {
        self.tenants[&tenant].1
    }
}

/// One arm in a fresh simulation: four well-behaved tenants (2 × 16 KiB
/// writes + 1 read per session) plus [`ABUSIVE_TENANT`], which in the
/// abusive arms blasts 8 × 256 KiB writes per session instead.
///
/// `tenant_aware = false` is the legacy deployment: every tenant's
/// sessions multiplex over one shared pool per node, FIFO service — an
/// abusive request parks every session behind it on its stream.
/// `tenant_aware = true` is the refactored stack: each tenant dials its
/// own pooled streams (separate user communities) and the server installs
/// the per-tenant DRR gate, so abuse is confined to the abuser's own
/// streams and byte share.
fn arm(clients: usize, abusive: bool, tenant_aware: bool) -> Arm {
    let ((tenants, secs), sim) = with_testbed(das2(), NODES, move |tb| {
        if tenant_aware {
            tb.server
                .set_tenant_scheduler(TenantScheduler::new(&tb.rt, QUANTUM, WIDTH));
        }
        let params = SwarmParams {
            clients,
            // Comparable aggregate stream budget per node either way: seven
            // shared streams, or two per tenant across the five tenants.
            // Seven is deliberate: clients sharing a pooled connection are
            // `i, i + nodes*streams, ...`, so the legacy arms only mix
            // tenants on a stream when `nodes * streams` is not a multiple
            // of the tenant cycle (8 × 7 = 56 ≡ 1 mod 5). A multiple (say
            // ten streams) would silently partition the "shared" pool by
            // tenant and hide the head-of-line damage this arm measures.
            streams_per_node: if tenant_aware { 2 } else { 7 },
            inflight_per_stream: 8,
            mix: TenantMix::new(&[
                (TenantId(1), 1),
                (TenantId(2), 1),
                (TenantId(3), 1),
                (TenantId(4), 1),
                (TenantId(ABUSIVE_TENANT), 1),
            ]),
            writes: 2,
            reads: 1,
            bytes_per_op: 16 << 10,
            mean_gap: Dur::from_millis(25),
            think: Dur::ZERO,
            seed: 42,
            real_payload: false,
            coll: "/tenants".into(),
            abuse: abusive.then_some((
                TenantId(ABUSIVE_TENANT),
                OpShape {
                    writes: 8,
                    reads: 0,
                    bytes_per_op: 256 << 10,
                },
            )),
            per_tenant_streams: tenant_aware,
            skew: None,
        };
        let report = run_swarm(&tb, &params);
        assert_eq!(report.completed(), clients, "incomplete tenant swarm");
        let mut sessions: BTreeMap<u32, usize> = BTreeMap::new();
        for o in &report.outcomes {
            *sessions.entry(o.tenant.0).or_insert(0) += 1;
        }
        let tenants = report
            .p99_goodput_by_tenant()
            .into_iter()
            .map(|(t, bps)| (t.0, (sessions[&t.0], bps / 1e6)))
            .collect();
        (tenants, report.secs)
    });
    Arm {
        label: format!(
            "{}/{}",
            if abusive { "abusive" } else { "fair" },
            if tenant_aware { "drr" } else { "fifo" }
        ),
        secs,
        tenants,
        sim,
    }
}

fn main() {
    let [quick] = flags(["--quick"]);
    let clients = if quick { 500 } else { 2500 };

    let arms = [
        arm(clients, false, false),
        arm(clients, true, false),
        arm(clients, false, true),
        arm(clients, true, true),
    ];
    let [fair_fifo, abusive_fifo, fair_drr, abusive_drr] = &arms;

    let mut t = Table::new(
        &format!(
            "Multi-tenant fairness (das2): {NODES} nodes, {clients} sessions over 5 tenants, \
             tenant {ABUSIVE_TENANT} abusive, p99 session goodput (Mb/s)"
        ),
        &[
            "tenant",
            "sessions",
            "fair/fifo",
            "abusive/fifo",
            "fair/drr",
            "abusive/drr",
            "drr vs fair",
        ],
    );
    for (&tenant, &(sessions, _)) in &fair_fifo.tenants {
        let base = fair_drr.p99(tenant);
        let drr = abusive_drr.p99(tenant);
        let delta = (drr - base) / base * 100.0;
        t.row(vec![
            tenant.to_string(),
            sessions.to_string(),
            format!("{:.3}", fair_fifo.p99(tenant)),
            format!("{:.3}", abusive_fifo.p99(tenant)),
            format!("{base:.3}"),
            format!("{drr:.3}"),
            format!("{delta:+.1}%"),
        ]);
    }
    t.print();

    // Worst-case degradation across the non-abusive tenants, per pair.
    let worst = |baseline: &Arm, arm: &Arm| {
        baseline
            .tenants
            .iter()
            .filter(|&(&t, _)| t != ABUSIVE_TENANT)
            .map(|(&t, &(_, base))| (base - arm.p99(t)) / base * 100.0)
            .fold(f64::MIN, f64::max)
    };
    println!(
        "non-abusive worst-case p99 degradation vs matching fair baseline: \
         fifo {:.1}%, drr {:.1}% (claim: drr < 10%)",
        worst(fair_fifo, abusive_fifo),
        worst(fair_drr, abusive_drr),
    );
    for arm in &arms {
        println!(
            "{}: span {:.3}s, {}",
            arm.label,
            arm.secs,
            engine_footer(&arm.sim)
        );
    }
}
