//! Per-tenant fair queueing for the server's shared bottlenecks.
//!
//! At 10⁵ multiplexed clients the server's NICs and vault are shared by
//! many unrelated user communities, and one abusive tenant can starve the
//! rest — the classic multi-tenant QoS problem the SRB's per-user
//! authentication hints at but never enforces. [`TenantScheduler`] is a
//! deterministic deficit round-robin (DRR) admission gate the server can
//! install in front of request service: each request is admitted under its
//! session's [`TenantId`] with a byte cost, tenants take turns spending a
//! per-round `quantum` of bytes, and at most `width` requests occupy the
//! vault/NIC stage at once. Without one (the default) the server admits
//! every request as it arrives and charges nothing for admission.
//!
//! DRR (Shreedhar & Varghese) rather than WFQ because its state is a pair
//! of integers per tenant and its grant order is a pure function of arrival
//! order — which makes the scheduler deterministic under the virtual-time
//! engine and cheap at 10⁵ clients.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use semplar_runtime::{EventApi, Runtime};

use crate::proto::TenantId;

/// One queued request waiting for admission.
struct Ticket {
    ev: Arc<dyn EventApi>,
    cost: u64,
}

/// Per-tenant DRR state: the deficit counter and the FIFO of waiting
/// tickets.
#[derive(Default)]
struct TenantQ {
    deficit: u64,
    queue: VecDeque<Ticket>,
}

struct SchedState {
    /// All tenants ever seen, keyed by tenant id so iteration order — and
    /// thus everything derived from it — is deterministic.
    tenants: BTreeMap<TenantId, TenantQ>,
    /// Active list: tenants with queued tickets, round-robin order.
    active: VecDeque<TenantId>,
    /// Requests currently admitted and not yet completed.
    in_service: usize,
}

/// Deterministic deficit-round-robin admission across tenants.
///
/// Install on a server with
/// [`SrbServer::set_tenant_scheduler`](crate::server::SrbServer::set_tenant_scheduler).
/// Handlers then call [`TenantScheduler::admit`] before touching the vault
/// and [`TenantScheduler::done`] after the response hits the wire, so the
/// `width` concurrent service slots cover exactly the vault + NIC stage.
pub struct TenantScheduler {
    rt: Arc<dyn Runtime>,
    quantum: u64,
    width: usize,
    state: Mutex<SchedState>,
}

impl TenantScheduler {
    /// A scheduler granting `width` concurrent service slots, with each
    /// tenant earning `quantum` bytes of service credit per round-robin
    /// visit. `quantum` should be at least the largest single request cost
    /// a well-behaved tenant issues (otherwise it just takes that tenant
    /// several visits to accumulate the credit — still fair, more churn).
    pub fn new(rt: &Arc<dyn Runtime>, quantum: u64, width: usize) -> Arc<TenantScheduler> {
        Arc::new(TenantScheduler {
            rt: rt.clone(),
            quantum: quantum.max(1),
            width: width.max(1),
            state: Mutex::new(SchedState {
                tenants: BTreeMap::new(),
                active: VecDeque::new(),
                in_service: 0,
            }),
        })
    }

    /// Block until this request is granted a service slot under `tenant`'s
    /// share. `cost` is the byte cost DRR charges against the tenant's
    /// deficit counter — callers use the request's wire size, so a tenant
    /// blasting megabyte writes drains its credit quickly while tenants
    /// issuing header-sized ops glide through.
    pub fn admit(&self, tenant: TenantId, cost: u64) {
        self.enqueue(tenant, cost).wait();
    }

    /// Queue a request for admission without blocking: the returned event
    /// is signalled once, when DRR grants the slot. [`TenantScheduler::admit`]
    /// waits on it; a connection handler returns the wait from its `poll`.
    pub(crate) fn enqueue(&self, tenant: TenantId, cost: u64) -> Arc<dyn EventApi> {
        let mut st = self.state.lock();
        let ev = self.rt.event();
        st.tenants
            .entry(tenant)
            .or_default()
            .queue
            .push_back(Ticket {
                ev: ev.clone(),
                cost,
            });
        if !st.active.contains(&tenant) {
            st.active.push_back(tenant);
        }
        self.dispatch(&mut st);
        ev
    }

    /// Release the service slot `admit` granted. DRR charges a request's
    /// cost when it is admitted, so neither the tenant nor the `served`
    /// bytes (request + response wire size) change any state here; the
    /// parameters keep the call symmetric with `admit`.
    pub fn done(&self, _tenant: TenantId, _served: u64) {
        let mut st = self.state.lock();
        st.in_service = st.in_service.saturating_sub(1);
        self.dispatch(&mut st);
    }

    /// Classic DRR: visit the tenant at the head of the active list, top
    /// its deficit up by one quantum, serve queued tickets while their cost
    /// fits the deficit, then rotate it to the back. Runs until every
    /// service slot is occupied or no tickets remain.
    fn dispatch(&self, st: &mut SchedState) {
        while st.in_service < self.width {
            let Some(&tenant) = st.active.front() else {
                return;
            };
            let q = st
                .tenants
                .get_mut(&tenant)
                .expect("active tenant has state");
            if q.queue.is_empty() {
                // Tenant drained since it was queued: retire it and forfeit
                // leftover credit, so an idle tenant cannot bank a burst.
                q.deficit = 0;
                st.active.pop_front();
                continue;
            }
            q.deficit = q.deficit.saturating_add(self.quantum);
            while st.in_service < self.width {
                let Some(head) = q.queue.front() else { break };
                if head.cost > q.deficit {
                    break;
                }
                let t = q.queue.pop_front().unwrap();
                q.deficit -= t.cost;
                st.in_service += 1;
                t.ev.signal();
            }
            // Rotate: drained tenants leave the list, backlogged ones go to
            // the back and re-earn credit next round.
            st.active.pop_front();
            let q = st.tenants.get_mut(&tenant).unwrap();
            if q.queue.is_empty() {
                q.deficit = 0;
            } else {
                st.active.push_back(tenant);
                // All slots busy with this tenant still backlogged: stop —
                // `done` resumes dispatch from here.
                if st.in_service >= self.width {
                    return;
                }
            }
        }
    }

    /// Requests currently holding a service slot.
    #[cfg(test)]
    fn in_service(&self) -> usize {
        self.state.lock().in_service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_runtime::{simulate, spawn, Dur};

    #[test]
    fn drr_splits_a_saturated_slot_evenly() {
        simulate(|rt| {
            let sched = TenantScheduler::new(&rt, 1 << 20, 1);
            let grants = Arc::new(Mutex::new(Vec::new()));
            let mut joins = Vec::new();
            // Two tenants, each queueing 8 equal-cost requests that take
            // 1 ms of "service" apiece; with width 1 the grants interleave.
            for tenant in [1u32, 2u32] {
                let sched = sched.clone();
                let rt2 = rt.clone();
                let grants = grants.clone();
                joins.push(spawn(&rt, &format!("t{tenant}"), move || {
                    for _ in 0..8 {
                        sched.admit(TenantId(tenant), 1 << 20);
                        grants.lock().push(tenant);
                        rt2.sleep(Dur::from_millis(1));
                        sched.done(TenantId(tenant), 1 << 20);
                    }
                }));
            }
            for j in joins {
                j.join_unwrap();
            }
            assert_eq!(*grants.lock(), [1, 2].repeat(8));
            assert_eq!(sched.in_service(), 0);
        });
    }

    #[test]
    fn backlogged_abuser_cannot_starve_cheap_tenants() {
        simulate(|rt| {
            // One service slot, 64 KiB quantum: each abusive 1 MiB request
            // needs 16 round-robin visits of credit, a 4 KiB request one.
            let sched = TenantScheduler::new(&rt, 64 << 10, 1);
            let last_done = Arc::new(Mutex::new(BTreeMap::<u32, u64>::new()));
            let mut joins = Vec::new();
            let record = |last: &Arc<Mutex<BTreeMap<u32, u64>>>, tenant: u32, now: u64| {
                let mut g = last.lock();
                let e = g.entry(tenant).or_insert(0);
                *e = (*e).max(now);
            };
            // Tenant 9 floods 32 one-megabyte requests at t=0 (each takes
            // 200 µs of service)...
            for i in 0..32 {
                let sched = sched.clone();
                let rt2 = rt.clone();
                let last = last_done.clone();
                joins.push(spawn(&rt, &format!("abuse-{i}"), move || {
                    sched.admit(TenantId(9), 1 << 20);
                    rt2.sleep(Dur::from_micros(200));
                    sched.done(TenantId(9), 1 << 20);
                    record(&last, 9, rt2.now().as_nanos());
                }));
            }
            // ...and two well-behaved tenants each submit 8 small requests
            // just after, landing behind the flood.
            for tenant in [1u32, 2] {
                for i in 0..8 {
                    let sched = sched.clone();
                    let rt2 = rt.clone();
                    let last = last_done.clone();
                    joins.push(spawn(&rt, &format!("t{tenant}-{i}"), move || {
                        rt2.sleep(Dur::from_micros(100));
                        sched.admit(TenantId(tenant), 4 << 10);
                        rt2.sleep(Dur::from_micros(200));
                        sched.done(TenantId(tenant), 4 << 10);
                        record(&last, tenant, rt2.now().as_nanos());
                    }));
                }
            }
            for j in joins {
                j.join_unwrap();
            }
            let last = last_done.lock();
            // DRR interleaves the cheap tenants through the flood: their 16
            // ops finish in a few milliseconds, far before the abusive
            // backlog drains (FIFO would park them behind ~31 × 200 µs of
            // flood plus their own service ≈ the full run).
            assert!(last[&1] < last[&9], "t1 {} vs t9 {}", last[&1], last[&9]);
            assert!(last[&2] < last[&9], "t2 {} vs t9 {}", last[&2], last[&9]);
            let cheap_ns = last[&1].max(last[&2]);
            assert!(
                cheap_ns < 6_000_000,
                "cheap tenants finished at {cheap_ns} ns — starved"
            );
        });
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// The scheduler is deterministic: re-running the same seeded
        /// workload admits every request at the same instant and in the
        /// same order, for any tenant count and service width.
        #[test]
        fn same_seed_yields_identical_ledgers(
            seed in 0u64..1024,
            tenants in 1u32..5,
            width in 1usize..4,
        ) {
            let run = |seed: u64| {
                simulate(move |rt| {
                    let sched = TenantScheduler::new(&rt, 128 << 10, width);
                    let admits = Arc::new(Mutex::new(Vec::new()));
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let mut joins = Vec::new();
                    for t in 1..=tenants {
                        for i in 0..4 {
                            let cost = 4096 * rng.gen_range(1..=64u64);
                            let arrive = Dur::from_micros(rng.gen_range(0..500u64));
                            let svc = Dur::from_micros(rng.gen_range(50..400u64));
                            let sched = sched.clone();
                            let rt2 = rt.clone();
                            let admits = admits.clone();
                            joins.push(spawn(&rt, &format!("p{t}-{i}"), move || {
                                rt2.sleep(arrive);
                                sched.admit(TenantId(t), cost);
                                admits.lock().push((t, i, rt2.now().as_nanos()));
                                rt2.sleep(svc);
                                sched.done(TenantId(t), cost);
                            }));
                        }
                    }
                    for j in joins {
                        j.join_unwrap();
                    }
                    let admits = admits.lock().clone();
                    assert_eq!(admits.len(), tenants as usize * 4);
                    admits
                })
            };
            prop_assert_eq!(run(seed), run(seed));
        }
    }
}
