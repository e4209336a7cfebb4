//! Connection pooling: how sessions get bound to transports.
//!
//! The ROADMAP north-star of thousands of simulated clients needs the
//! one-TCP-stream-per-`MPI_File_open` coupling (paper §3.2) broken. The
//! pool owns that decision via [`PoolPolicy`]:
//!
//! * [`PoolPolicy::PerOpen`] — every session gets its own exclusive stream,
//!   exactly the paper's SEMPLAR behaviour. The pool adds *no* locking or
//!   state on this path, so the request stream and virtual timing are
//!   bit-identical to the pre-refactor client.
//! * [`PoolPolicy::Shared`] — sessions multiplex over at most `max_streams`
//!   transports per route, each carrying up to `max_inflight` concurrent
//!   tagged exchanges. The server sees `max_streams` connections (and runs
//!   that many handler actors) no matter how many clients open files.
//!
//! The pool also owns transport-level recovery: when a shared stream dies,
//! the first session to notice reconnects it and every other session on
//! that slot piggybacks on the fresh transport instead of dialing its own
//! — one link flap, one handshake. The [`RetryPolicy`] that used to live in
//! `SrbFs` moves down here so recovery pacing is a property of the pool.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use semplar_runtime::sync::RtMutex;

use crate::client::SrbConn;
use crate::retry::RetryPolicy;
use crate::server::{ConnRoute, SrbServer};
use crate::transport::Transport;
use crate::types::SrbResult;

/// How the pool maps sessions onto transports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolPolicy {
    /// One exclusive stream per session (paper-faithful default).
    PerOpen,
    /// Multiplex sessions over a bounded set of shared streams per route.
    Shared {
        /// Streams per route (pool slots).
        max_streams: usize,
        /// Concurrent tagged exchanges per stream.
        max_inflight: usize,
    },
}

/// Where a pooled session's transport came from: which route group and
/// which slot. Lets [`ConnPool::reconnect`] rebind the session to the
/// slot's current stream — piggybacking if a sibling session already
/// redialed it after a flap.
#[derive(Clone, Copy, Debug)]
pub struct SlotTicket {
    route_key: u64,
    slot: usize,
}

struct Slot {
    transport: Option<Arc<Transport>>,
    /// Cumulative sessions bound to this slot (placement tiebreaker).
    assigned: u64,
}

struct RouteGroup {
    route: ConnRoute,
    slots: Vec<Slot>,
}

/// Per-route connection pool in front of one [`SrbServer`].
pub struct ConnPool {
    server: Arc<SrbServer>,
    user: String,
    password: String,
    policy: PoolPolicy,
    retry: RetryPolicy,
    /// Route groups keyed by the hash of the route's link paths. BTreeMap +
    /// a keyed deterministic hash keep iteration and placement reproducible.
    /// `RtMutex` because the lock is held across `connect_transport`, which
    /// sleeps for the handshake RTT.
    groups: RtMutex<BTreeMap<u64, RouteGroup>>,
}

/// A route's identity is its link paths (caps/bus ride along with the
/// links in every cluster model). `DefaultHasher` is keyed with fixed
/// constants, so this is stable across runs — placement is deterministic.
fn route_key(route: &ConnRoute) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    route.fwd.hash(&mut h);
    route.rev.hash(&mut h);
    h.finish()
}

impl ConnPool {
    /// A pool dialing `server` with the given credentials and policy.
    pub fn new(
        server: Arc<SrbServer>,
        user: &str,
        password: &str,
        policy: PoolPolicy,
        retry: RetryPolicy,
    ) -> Arc<ConnPool> {
        let groups = RtMutex::new(server.runtime(), BTreeMap::new());
        Arc::new(ConnPool {
            server,
            user: user.to_string(),
            password: password.to_string(),
            policy,
            retry,
            groups,
        })
    }

    /// The policy this pool was built with.
    pub fn policy(&self) -> PoolPolicy {
        self.policy
    }

    /// The retry policy governing reconnect pacing for sessions from this
    /// pool (moved down from `SrbFs`).
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The server this pool fronts.
    pub fn server(&self) -> &Arc<SrbServer> {
        &self.server
    }

    /// Open a session over `route`. Under `PerOpen` this is exactly
    /// `SrbServer::connect` — no pool state is touched. Under `Shared`,
    /// `pin` selects the slot (`pin % max_streams`, used by striped files
    /// to land sibling streams on distinct transports); unpinned sessions
    /// go to the least-assigned slot.
    pub fn session(&self, route: &ConnRoute, pin: Option<usize>) -> SrbResult<SrbConn> {
        let PoolPolicy::Shared {
            max_streams,
            max_inflight,
        } = self.policy
        else {
            return self
                .server
                .connect(route.clone(), &self.user, &self.password);
        };
        let max_streams = max_streams.max(1);
        let key = route_key(route);
        let mut g = self.groups.lock();
        let group = g.entry(key).or_insert_with(|| RouteGroup {
            route: route.clone(),
            slots: (0..max_streams)
                .map(|_| Slot {
                    transport: None,
                    assigned: 0,
                })
                .collect(),
        });
        let idx = match pin {
            Some(p) => p % max_streams,
            // Least-assigned slot, lowest index on ties: deterministic
            // round-robin-ish placement.
            None => (0..max_streams)
                .min_by_key(|&i| (group.slots[i].assigned, i))
                .expect("max_streams >= 1"),
        };
        let ticket = Self::bind(
            &self.server,
            &self.user,
            &self.password,
            key,
            group,
            idx,
            max_inflight,
        )?;
        let transport = group.slots[idx].transport.clone().unwrap();
        drop(g);
        Ok(SrbConn::session_on(transport, ticket))
    }

    /// Pre-dial every slot for `route` in index order, paying all the
    /// handshakes up front on the calling actor. Benchmarks use this so
    /// that pinned sessions find their transports already established —
    /// slot `i` is always connection `i` at the server no matter how the
    /// clients themselves get scheduled. No-op under [`PoolPolicy::PerOpen`]
    /// (exclusive streams are not pool state). Returns streams dialed.
    pub fn warm(&self, route: &ConnRoute) -> SrbResult<usize> {
        let PoolPolicy::Shared {
            max_streams,
            max_inflight,
        } = self.policy
        else {
            return Ok(0);
        };
        let max_streams = max_streams.max(1);
        let key = route_key(route);
        let mut g = self.groups.lock();
        let group = g.entry(key).or_insert_with(|| RouteGroup {
            route: route.clone(),
            slots: (0..max_streams)
                .map(|_| Slot {
                    transport: None,
                    assigned: 0,
                })
                .collect(),
        });
        let mut dialed = 0;
        for idx in 0..max_streams {
            let slot = &mut group.slots[idx];
            if !slot.transport.as_ref().is_some_and(|t| t.is_alive()) {
                let t = self.server.connect_transport(
                    group.route.clone(),
                    &self.user,
                    &self.password,
                    max_inflight,
                )?;
                slot.transport = Some(t);
                dialed += 1;
            }
        }
        Ok(dialed)
    }

    /// Ensure slot `idx` has a live transport (dialing one if needed) and
    /// account one more session on it. Returns the bind ticket.
    fn bind(
        server: &Arc<SrbServer>,
        user: &str,
        password: &str,
        route_key: u64,
        group: &mut RouteGroup,
        idx: usize,
        max_inflight: usize,
    ) -> SrbResult<SlotTicket> {
        let slot = &mut group.slots[idx];
        let live = slot.transport.as_ref().is_some_and(|t| t.is_alive());
        if !live {
            let t = server.connect_transport(group.route.clone(), user, password, max_inflight)?;
            slot.transport = Some(t);
        }
        slot.assigned += 1;
        Ok(SlotTicket {
            route_key,
            slot: idx,
        })
    }

    /// Replace a severed session with a fresh one. Returns the new session
    /// and whether the reconnect was *shared* — i.e. the session rebound to
    /// a stream some other session (or an earlier call) already redialed,
    /// so no new handshake was paid by the server for this caller.
    ///
    /// Unpooled sessions (`PerOpen`, or pre-pool callers) always dial a
    /// fresh exclusive stream over `route`.
    pub fn reconnect(&self, route: &ConnRoute, old: &SrbConn) -> SrbResult<(SrbConn, bool)> {
        let (PoolPolicy::Shared { max_inflight, .. }, Some(ticket)) = (self.policy, old.origin())
        else {
            return self
                .server
                .connect(route.clone(), &self.user, &self.password)
                .map(|c| (c, false));
        };
        let mut g = self.groups.lock();
        let group = g
            .get_mut(&ticket.route_key)
            .expect("pooled session's route group must exist");
        let slot = &mut group.slots[ticket.slot];
        // Shared iff the slot already carries a live stream — whether a
        // sibling session redialed it or the flap never reached this slot.
        let shared = slot.transport.as_ref().is_some_and(|t| t.is_alive());
        let new_ticket = Self::bind(
            &self.server,
            &self.user,
            &self.password,
            ticket.route_key,
            group,
            ticket.slot,
            max_inflight,
        )?;
        let transport = group.slots[ticket.slot].transport.clone().unwrap();
        drop(g);
        Ok((SrbConn::session_on(transport, new_ticket), shared))
    }

    /// Live pooled streams (transports whose stream is still up). Always 0
    /// under `PerOpen` — exclusive streams are not pool state.
    pub fn live_streams(&self) -> usize {
        self.groups
            .lock()
            .values()
            .flat_map(|g| &g.slots)
            .filter(|s| s.transport.as_ref().is_some_and(|t| t.is_alive()))
            .count()
    }
}
