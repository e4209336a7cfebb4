//! Pool-policy equivalence: multiplexing sessions over shared streams is a
//! *transport* decision and must never change *file* semantics. For any
//! interleaved striped write plan, a `Shared` pool produces exactly the
//! bytes a `PerOpen` (one-stream-per-open, paper-faithful) mount does.

use proptest::prelude::*;
use semplar_repro::clusters::{das2, Testbed, PASSWORD, USER};
use semplar_repro::runtime::{simulate, spawn};
use semplar_repro::semplar::{OpenFlags, Payload, SrbFs, SrbFsConfig, StripeUnit, StripedFile};
use semplar_repro::srb::PoolPolicy;
use std::sync::Arc;

/// One writer's slice of the plan: which block indices it writes, in order.
#[derive(Clone, Debug)]
struct Plan {
    writers: usize,
    streams: usize,
    block: u64,
    /// `ops[w]` = block indices writer `w` writes (deterministic data).
    ops: Vec<Vec<u8>>,
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (
        2usize..4,
        2usize..4,
        1u64..4,
        proptest::collection::vec(0u8..12, 2..6),
    )
        .prop_map(|(writers, streams, block_units, blocks)| Plan {
            writers,
            streams,
            block: block_units * 64 * 1024,
            ops: (0..writers)
                .map(|w| {
                    blocks
                        .iter()
                        .map(|b| b.wrapping_add(w as u8 * 3) % 12)
                        .collect()
                })
                .collect(),
        })
}

fn block_bytes(plan: &Plan, writer: usize, idx: u8) -> Vec<u8> {
    (0..plan.block)
        .map(|i| ((i as usize * 7 + writer * 31 + idx as usize * 13) % 251) as u8)
        .collect()
}

/// Run the interleaved striped write plan against `fs`, then read the whole
/// object back and checksum it server-side.
fn run_plan(plan: &Plan, policy: Option<PoolPolicy>) -> (Vec<u8>, u32, u64) {
    let plan = plan.clone();
    simulate(move |rt| {
        let tb = Testbed::new(rt.clone(), das2(), plan.writers);
        let mounts: Vec<Arc<SrbFs>> = (0..plan.writers)
            .map(|n| match policy {
                None => tb.srbfs(n),
                Some(pool) => SrbFs::new(
                    tb.server.clone(),
                    SrbFsConfig {
                        pool,
                        ..SrbFsConfig::new(tb.route(n), USER, PASSWORD)
                    },
                ),
            })
            .collect();
        let setup = mounts[0].admin_conn().unwrap();
        setup.mk_coll("/pool").unwrap();
        setup.disconnect().unwrap();
        // Concurrent writers, each striping its own ops over `streams`
        // connections to one shared object per writer (writers on separate
        // objects keeps the expected bytes well-defined under interleaving
        // while still interleaving many sessions on the wire).
        let handles: Vec<_> = (0..plan.writers)
            .map(|w| {
                let plan = plan.clone();
                let fs = mounts[w].clone();
                let rt = rt.clone();
                spawn(&rt.clone(), &format!("writer-{w}"), move || {
                    let f = StripedFile::open(
                        &rt,
                        &fs,
                        &format!("/pool/w{w}"),
                        OpenFlags::CreateRw,
                        plan.streams,
                        StripeUnit::Bytes(64 * 1024),
                    )
                    .unwrap();
                    let reqs: Vec<_> = plan.ops[w]
                        .iter()
                        .map(|&idx| {
                            f.iwrite_at(
                                idx as u64 * plan.block,
                                Payload::bytes(block_bytes(&plan, w, idx)),
                            )
                        })
                        .collect();
                    for r in reqs {
                        r.wait().unwrap();
                    }
                    f.close().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join_unwrap();
        }
        // Observe through a fresh admin connection: contents of writer 0's
        // object, server-side checksums and sizes of all of them.
        let admin = mounts[0].admin_conn().unwrap();
        let mut checksum = 0u32;
        let mut total = 0u64;
        for w in 0..plan.writers {
            let path = format!("/pool/w{w}");
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(admin.checksum(&path).unwrap());
            total += admin.stat(&path).unwrap().size;
        }
        let size0 = admin.stat("/pool/w0").unwrap().size;
        let fd = admin.open("/pool/w0", OpenFlags::Read).unwrap();
        let contents = admin
            .read(fd, 0, size0)
            .unwrap()
            .data()
            .map(|d| d.to_vec())
            .unwrap_or_default();
        admin.close_fd(fd).unwrap();
        admin.disconnect().unwrap();
        (contents, checksum, total)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `Shared` ≡ `PerOpen`: identical contents, checksums, and sizes for
    /// any interleaved striped write plan.
    #[test]
    fn shared_pool_is_semantically_identical_to_per_open(plan in plan_strategy()) {
        let per_open = run_plan(&plan, None);
        let shared = run_plan(
            &plan,
            Some(PoolPolicy::Shared { max_streams: 2, max_inflight: 4 }),
        );
        prop_assert_eq!(&per_open.0, &shared.0, "contents differ");
        prop_assert_eq!(per_open.1, shared.1, "checksums differ");
        prop_assert_eq!(per_open.2, shared.2, "sizes differ");
    }
}
