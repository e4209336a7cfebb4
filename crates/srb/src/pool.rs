//! Connection pooling: how sessions get bound to streams.
//!
//! The paper's client dials one TCP stream per `MPI_File_open` (§3.2), so a
//! server's footprint grows with open files. The pool owns that decision
//! via [`PoolPolicy`]:
//!
//! * [`PoolPolicy::PerOpen`] — every session dials a stream of its own
//!   through [`SrbServer::connect`], exactly the paper's SEMPLAR behaviour.
//!   The pool keeps no state for such a session.
//! * [`PoolPolicy::Shared`] — sessions share at most `max_streams` streams
//!   per route (the pool's *slots*), each carrying up to `max_inflight`
//!   concurrent tagged exchanges. The server sees `max_streams` connections
//!   (and runs that many handlers) no matter how many clients open files.
//!
//! The pool also owns transport-level recovery: when a slot's stream dies,
//! the first session to notice redials it and every other session on that
//! slot rebinds to the fresh stream instead of dialing its own — one link
//! flap, one handshake. The [`RetryPolicy`] pacing recovery is the pool's.

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
    /// One stream per session, dialed at open (paper-faithful default).
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
    /// pool.
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
        let Some((max_streams, max_inflight)) = self.shared() else {
            return self.dial_own(route);
        };
        let key = route_key(route);
        let mut g = self.groups.lock();
        let group = Self::group(&mut g, key, route, max_streams);
        let slot = match pin {
            Some(p) => p % max_streams,
            // Least-assigned slot, lowest index on ties: deterministic
            // round-robin-ish placement.
            None => (0..max_streams)
                .min_by_key(|&i| (group.slots[i].assigned, i))
                .expect("max_streams >= 1"),
        };
        let ticket = SlotTicket {
            route_key: key,
            slot,
        };
        self.ensure_live(group, slot, max_inflight)?;
        Ok(Self::bind(group, ticket))
    }

    /// Pre-dial every slot for `route` in index order, paying all the
    /// handshakes up front on the calling actor. Benchmarks use this so
    /// that pinned sessions find their transports already established —
    /// slot `i` is always connection `i` at the server no matter how the
    /// clients themselves get scheduled. No-op under [`PoolPolicy::PerOpen`]
    /// (a session's own stream is not pool state). Returns streams dialed.
    pub fn warm(&self, route: &ConnRoute) -> SrbResult<usize> {
        let Some((max_streams, max_inflight)) = self.shared() else {
            return Ok(0);
        };
        let mut g = self.groups.lock();
        let group = Self::group(&mut g, route_key(route), route, max_streams);
        let mut dialed = 0;
        for slot in 0..max_streams {
            dialed += usize::from(self.ensure_live(group, slot, max_inflight)?);
        }
        Ok(dialed)
    }

    /// `(max_streams, max_inflight)` of a shared pool, at least one slot.
    fn shared(&self) -> Option<(usize, usize)> {
        match self.policy {
            PoolPolicy::PerOpen => None,
            PoolPolicy::Shared {
                max_streams,
                max_inflight,
            } => Some((max_streams.max(1), max_inflight)),
        }
    }

    /// A session on a stream of its own, outside the pool's slots.
    fn dial_own(&self, route: &ConnRoute) -> SrbResult<SrbConn> {
        self.server
            .connect(route.clone(), &self.user, &self.password)
    }

    /// `route`'s slot group, created empty on first use.
    fn group<'a>(
        groups: &'a mut BTreeMap<u64, RouteGroup>,
        key: u64,
        route: &ConnRoute,
        max_streams: usize,
    ) -> &'a mut RouteGroup {
        groups.entry(key).or_insert_with(|| RouteGroup {
            route: route.clone(),
            slots: (0..max_streams)
                .map(|_| Slot {
                    transport: None,
                    assigned: 0,
                })
                .collect(),
        })
    }

    /// Ensure `slot` carries a live stream; `true` if that took a dial.
    fn ensure_live(
        &self,
        group: &mut RouteGroup,
        slot: usize,
        max_inflight: usize,
    ) -> SrbResult<bool> {
        let stream = &mut group.slots[slot].transport;
        if stream.as_ref().is_some_and(|t| t.is_alive()) {
            return Ok(false);
        }
        *stream = Some(self.server.connect_transport(
            group.route.clone(),
            &self.user,
            &self.password,
            max_inflight,
        )?);
        Ok(true)
    }

    /// One more session on `ticket`'s slot, over the stream
    /// [`ConnPool::ensure_live`] left there.
    fn bind(group: &mut RouteGroup, ticket: SlotTicket) -> SrbConn {
        let slot = &mut group.slots[ticket.slot];
        slot.assigned += 1;
        let transport = slot
            .transport
            .clone()
            .expect("slot bound before it is live");
        SrbConn::on(transport, Some(ticket))
    }

    /// Replace a severed session with a fresh one. Returns the new session
    /// and whether the reconnect was *shared* — i.e. the session rebound to
    /// a stream some other session (or an earlier call) already redialed,
    /// so no new handshake was paid by the server for this caller.
    ///
    /// A session that owned its stream (`PerOpen`, or dialed outside any
    /// pool) always dials a fresh one over `route`.
    pub fn reconnect(&self, route: &ConnRoute, old: &SrbConn) -> SrbResult<(SrbConn, bool)> {
        let (Some((_, max_inflight)), Some(&ticket)) = (self.shared(), old.origin()) else {
            return self.dial_own(route).map(|c| (c, false));
        };
        let mut g = self.groups.lock();
        let group = g
            .get_mut(&ticket.route_key)
            .expect("pooled session's route group must exist");
        // Shared iff the slot already carries a live stream — whether a
        // sibling session redialed it or the flap never reached this slot.
        let shared = !self.ensure_live(group, ticket.slot, max_inflight)?;
        Ok((Self::bind(group, ticket), shared))
    }

    /// Live pooled streams (transports whose stream is still up). Always 0
    /// under `PerOpen` — a session's own stream is not pool state.
    pub fn live_streams(&self) -> usize {
        self.groups
            .lock()
            .values()
            .flat_map(|g| &g.slots)
            .filter(|s| s.transport.as_ref().is_some_and(|t| t.is_alive()))
            .count()
    }
}
