//! # semplar-faults
//!
//! Deterministic fault injection for the SEMPLAR stack.
//!
//! The paper's motivation is remote I/O to a production server over a real
//! WAN — an environment where links flap, servers restart, and TCP streams
//! get reset. This crate turns those hazards into a *schedule*: a
//! [`FaultPlan`] is a list of [`FaultEvent`]s with virtual-time stamps,
//! built either explicitly (`server_crash_at`) or from a seeded RNG
//! (`link_flap` spreads its outages with deterministic jitter). Injecting
//! the plan spawns a daemon task that sleeps to each event in turn and
//! applies it to live targets — the [`Network`]'s link capacities, the
//! [`SrbServer`]'s connection state, the vault's disk — and keeps a
//! [`FaultStats`] ledger of everything it did, stamped in virtual time. It
//! costs no thread, and under a schedule hook its timer is the choice point
//! that moves a fault against the workload's events.
//!
//! Because the clock is virtual and the jitter is seeded, the same plan
//! over the same workload produces bit-identical fault timings, ledgers,
//! and (given correct recovery) file contents, run after run. Chaos you
//! can put in a regression test.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};
use semplar_netsim::{Bw, LinkId, Network};
use semplar_runtime::sync::OnceCellBlocking;
use semplar_runtime::{Dur, Runtime, Task, TaskCtx, TaskExecutor, TaskStep, Time};
use semplar_srb::vault::DiskOp;
use semplar_srb::{SrbServer, Vault};

/// One scheduled fault. `at` is virtual time since injection.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Take a link down (capacity → 0; in-flight flows stall).
    LinkDown {
        /// When to inject.
        at: Dur,
        /// The link to cut.
        link: LinkId,
    },
    /// Restore a link downed earlier to its pre-fault capacity.
    LinkUp {
        /// When to inject.
        at: Dur,
        /// The link to restore.
        link: LinkId,
    },
    /// Scale a link's current capacity by `factor` (congestion, a flaky
    /// line card). `LinkUp` restores the capacity saved by the first
    /// degrade/down on that link.
    LinkDegrade {
        /// When to inject.
        at: Dur,
        /// The link to throttle.
        link: LinkId,
        /// Capacity multiplier in (0, 1].
        factor: f64,
    },
    /// Crash a server: sever every connection, refuse new ones.
    ServerCrash {
        /// When to inject.
        at: Dur,
        /// Which server in the injector's target list (0 for the single-
        /// server [`FaultPlan::inject`]).
        server: usize,
    },
    /// Bring a crashed server back (catalog and vault state intact).
    ServerRestart {
        /// When to inject.
        at: Dur,
        /// Which server in the injector's target list.
        server: usize,
    },
    /// Reset (RST) every live client connection without downing the server.
    ConnReset {
        /// When to inject.
        at: Dur,
    },
    /// Occupy the server's disk with `bytes` of competing traffic — the
    /// slow-vault fault. Concurrent vault I/O slows until it drains.
    VaultStall {
        /// When to inject.
        at: Dur,
        /// Competing disk traffic, bytes.
        bytes: u64,
    },
}

impl FaultEvent {
    /// The event's scheduled injection time.
    pub fn at(&self) -> Dur {
        match self {
            FaultEvent::LinkDown { at, .. }
            | FaultEvent::LinkUp { at, .. }
            | FaultEvent::LinkDegrade { at, .. }
            | FaultEvent::ServerCrash { at, .. }
            | FaultEvent::ServerRestart { at, .. }
            | FaultEvent::ConnReset { at }
            | FaultEvent::VaultStall { at, .. } => *at,
        }
    }
}

/// Ledger of what an injector actually did, stamped in virtual time.
/// Derived entirely from the virtual clock and the seeded plan, so two
/// runs of the same plan over the same workload compare equal with `==`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Every injected event: (virtual time of injection, description).
    pub ledger: Vec<(Time, String)>,
    /// Links taken down.
    pub link_downs: u64,
    /// Links restored.
    pub link_ups: u64,
    /// Links degraded.
    pub degrades: u64,
    /// Server crashes.
    pub crashes: u64,
    /// Server restarts.
    pub restarts: u64,
    /// Connection-reset events.
    pub resets: u64,
    /// Vault stalls started.
    pub stalls: u64,
    /// Connections severed by crashes and resets combined.
    pub conns_severed: u64,
}

impl FaultStats {
    /// Total events injected so far.
    pub fn injected(&self) -> usize {
        self.ledger.len()
    }
}

/// A deterministic schedule of faults.
///
/// ```ignore
/// let plan = FaultPlan::new(42)
///     .link_flap(wan_up, Dur::from_secs(2), Dur::from_millis(500), 3)
///     .server_crash_at(Dur::from_secs(10), Dur::from_secs(1))
///     .conn_reset_at(Dur::from_secs(15));
/// let injector = plan.inject(&rt, &net, &server);
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rng: StdRng,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan. `seed` drives every randomized choice the builder
    /// makes (flap jitter), so equal seeds build equal plans.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: StdRng::seed_from_u64(seed),
            events: Vec::new(),
        }
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Add one raw event.
    pub fn event(mut self, ev: FaultEvent) -> FaultPlan {
        self.events.push(ev);
        self
    }

    /// Flap `link` `times` times: the first outage starts at `first_at`
    /// and lasts `down_for`; subsequent outages repeat after a gap of one
    /// to two outage lengths, drawn from the plan's seeded RNG.
    pub fn link_flap(
        mut self,
        link: LinkId,
        first_at: Dur,
        down_for: Dur,
        times: u32,
    ) -> FaultPlan {
        let mut at = first_at;
        for _ in 0..times {
            self.events.push(FaultEvent::LinkDown { at, link });
            self.events.push(FaultEvent::LinkUp {
                at: at + down_for,
                link,
            });
            let gap = down_for.as_secs_f64() * (1.0 + self.rng.gen::<f64>());
            at = at + down_for + Dur::from_secs_f64(gap);
        }
        self
    }

    /// Throttle `link` to `factor` of its capacity at `at`, restoring it
    /// after `for_dur`.
    pub fn link_degrade_at(
        mut self,
        link: LinkId,
        at: Dur,
        factor: f64,
        for_dur: Dur,
    ) -> FaultPlan {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        self.events
            .push(FaultEvent::LinkDegrade { at, link, factor });
        self.events.push(FaultEvent::LinkUp {
            at: at + for_dur,
            link,
        });
        self
    }

    /// Crash the (single) server at `at` and restart it `down_for` later.
    pub fn server_crash_at(self, at: Dur, down_for: Dur) -> FaultPlan {
        self.server_crash_on(0, at, down_for)
    }

    /// Crash the `server`-th target of a multi-server injector at `at` and
    /// restart it `down_for` later. With [`FaultPlan::inject_multi`] the
    /// index selects from the target list; plain [`FaultPlan::inject`]
    /// accepts only index 0.
    pub fn server_crash_on(mut self, server: usize, at: Dur, down_for: Dur) -> FaultPlan {
        self.events.push(FaultEvent::ServerCrash { at, server });
        self.events.push(FaultEvent::ServerRestart {
            at: at + down_for,
            server,
        });
        self
    }

    /// Reset every live connection at `at`.
    pub fn conn_reset_at(mut self, at: Dur) -> FaultPlan {
        self.events.push(FaultEvent::ConnReset { at });
        self
    }

    /// Occupy the server disk with `bytes` of competing traffic at `at`.
    pub fn vault_stall_at(mut self, at: Dur, bytes: u64) -> FaultPlan {
        self.events.push(FaultEvent::VaultStall { at, bytes });
        self
    }

    /// Spawn the injector task: it replays this plan's events in time
    /// order against `net` and `server`, starting the clock at the moment
    /// of this call. It does not keep the simulation alive past the
    /// workload. Returns a handle for reading the [`FaultStats`].
    pub fn inject(
        &self,
        rt: &Arc<dyn Runtime>,
        net: &Arc<Network>,
        server: &Arc<SrbServer>,
    ) -> FaultInjector {
        self.inject_multi(rt, net, std::slice::from_ref(server))
    }

    /// Like [`FaultPlan::inject`], but against a *list* of servers so one
    /// plan can crash and restart different members of a federation.
    /// Server-targeted events pick their victim by index into `servers`;
    /// [`FaultEvent::ConnReset`] and [`FaultEvent::VaultStall`] always hit
    /// `servers[0]`. Panics if an event names an out-of-range index.
    pub fn inject_multi(
        &self,
        rt: &Arc<dyn Runtime>,
        net: &Arc<Network>,
        servers: &[Arc<SrbServer>],
    ) -> FaultInjector {
        assert!(
            !servers.is_empty(),
            "inject_multi needs at least one server"
        );
        for ev in &self.events {
            if let FaultEvent::ServerCrash { server, .. }
            | FaultEvent::ServerRestart { server, .. } = ev
            {
                assert!(
                    *server < servers.len(),
                    "event targets server {server} but only {} were given",
                    servers.len()
                );
            }
        }
        let mut events = self.events.clone();
        // Stable: simultaneous events fire in insertion order.
        events.sort_by_key(|e| e.at());
        let stats = Arc::new(Mutex::new(FaultStats::default()));
        let finished = OnceCellBlocking::new(rt);
        let handle = FaultInjector {
            stats: stats.clone(),
            finished: finished.clone(),
        };
        TaskExecutor::new(rt, "faults/injector").spawn_daemon(Box::new(Injector {
            start: rt.now(),
            events: events.into_iter().peekable(),
            net: net.clone(),
            servers: servers.to_vec(),
            saved: HashMap::new(),
            stalls: TaskExecutor::new(rt, "faults/vault-stall"),
            stats,
            finished,
        }));
        handle
    }
}

/// The injector: sleeps to the next due event and applies it, so a schedule
/// hook sees each fault instant as this task's timer.
struct Injector {
    start: Time,
    /// The plan, in time order, from the next event on.
    events: std::iter::Peekable<std::vec::IntoIter<FaultEvent>>,
    net: Arc<Network>,
    servers: Vec<Arc<SrbServer>>,
    /// Original capacities of links we have faulted, for LinkUp.
    saved: HashMap<LinkId, Bw>,
    /// Where vault stalls run, off the schedule's critical path.
    stalls: TaskExecutor,
    stats: Arc<Mutex<FaultStats>>,
    finished: Arc<OnceCellBlocking<()>>,
}

impl Injector {
    /// Apply `ev` now; returns the ledger entry and the connections severed.
    fn apply(&mut self, ev: &FaultEvent) -> (String, usize) {
        let (net, servers) = (&self.net, &self.servers);
        // Committed ledgers predate multi-server plans: keep the index-0
        // wording byte-identical.
        let who = |server: usize| match server {
            0 => "server".to_string(),
            s => format!("server {s}"),
        };
        match *ev {
            FaultEvent::LinkDown { link, .. } => {
                self.saved
                    .entry(link)
                    .or_insert_with(|| net.link_capacity(link));
                net.set_link_capacity(link, Bw::ZERO);
                (format!("link {:?} down", link), 0)
            }
            FaultEvent::LinkUp { link, .. } => {
                if let Some(cap) = self.saved.remove(&link) {
                    net.set_link_capacity(link, cap);
                }
                (format!("link {:?} up", link), 0)
            }
            FaultEvent::LinkDegrade { link, factor, .. } => {
                let cap = net.link_capacity(link);
                self.saved.entry(link).or_insert(cap);
                net.set_link_capacity(link, Bw::bps(cap.as_bps() * factor));
                (format!("link {:?} degraded x{}", link, factor), 0)
            }
            FaultEvent::ServerCrash { server, .. } => {
                let n = servers[server].crash();
                (format!("{} crash ({n} conns severed)", who(server)), n)
            }
            FaultEvent::ServerRestart { server, .. } => {
                servers[server].restart();
                (format!("{} restart", who(server)), 0)
            }
            FaultEvent::ConnReset { .. } => {
                let n = servers[0].reset_all_connections();
                (format!("connection reset ({n} conns severed)"), n)
            }
            FaultEvent::VaultStall { bytes, .. } => {
                self.stalls.spawn_daemon(Box::new(VaultStall {
                    vault: servers[0].vault().clone(),
                    op: DiskOp::new(bytes),
                }));
                (format!("vault stall ({bytes} bytes)"), 0)
            }
        }
    }
}

impl Task for Injector {
    fn poll(&mut self, cx: &mut TaskCtx<'_>) -> TaskStep {
        while let Some(due) = self.events.peek().map(|ev| self.start + ev.at()) {
            if due > cx.now {
                return TaskStep::Sleep(due - cx.now);
            }
            let ev = self.events.next().expect("peeked");
            let (entry, severed) = self.apply(&ev);
            let mut st = self.stats.lock();
            match ev {
                FaultEvent::LinkDown { .. } => st.link_downs += 1,
                FaultEvent::LinkUp { .. } => st.link_ups += 1,
                FaultEvent::LinkDegrade { .. } => st.degrades += 1,
                FaultEvent::ServerCrash { .. } => st.crashes += 1,
                FaultEvent::ServerRestart { .. } => st.restarts += 1,
                FaultEvent::ConnReset { .. } => st.resets += 1,
                FaultEvent::VaultStall { .. } => st.stalls += 1,
            }
            st.conns_severed += severed as u64;
            st.ledger.push((cx.now, entry));
        }
        self.finished.set(());
        TaskStep::Done
    }
}

/// The slow-vault fault: `op`'s competing bytes occupy the disk, sharing it
/// max-min fairly with the vault's own reads and writes until they drain.
struct VaultStall {
    vault: Arc<Vault>,
    op: DiskOp,
}

impl Task for VaultStall {
    fn poll(&mut self, _cx: &mut TaskCtx<'_>) -> TaskStep {
        self.vault.poll_disk(&mut self.op).unwrap_or(TaskStep::Done)
    }
}

/// Handle to a running (or finished) injector.
pub struct FaultInjector {
    stats: Arc<Mutex<FaultStats>>,
    /// Set once the plan's last event has been injected.
    finished: Arc<OnceCellBlocking<()>>,
}

impl FaultInjector {
    /// Snapshot of the ledger so far.
    pub fn stats(&self) -> FaultStats {
        self.stats.lock().clone()
    }

    /// True once every scheduled event has been injected.
    pub fn done(&self) -> bool {
        self.finished.get().is_some()
    }

    /// Block until every scheduled event has been injected: returns at the
    /// instant of the plan's last event (at once if it is past).
    pub fn wait(&self) {
        self.finished.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_runtime::simulate;

    #[test]
    fn equal_seeds_build_equal_plans() {
        use semplar_netsim::Bw;
        use semplar_runtime::RealRuntime;
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let net = Network::new(rt);
        let link = net.add_link("l", Bw::mbps(10.0), Dur::ZERO);
        let build = |seed| {
            FaultPlan::new(seed)
                .link_flap(link, Dur::from_secs(1), Dur::from_millis(300), 4)
                .server_crash_at(Dur::from_secs(5), Dur::from_secs(1))
                .conn_reset_at(Dur::from_secs(8))
                .events()
                .to_vec()
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8), "flap jitter must depend on the seed");
    }

    #[test]
    fn plan_events_carry_their_times() {
        let plan = FaultPlan::new(0)
            .vault_stall_at(Dur::from_secs(3), 1 << 20)
            .server_crash_at(Dur::from_secs(1), Dur::from_secs(2));
        let ats: Vec<Dur> = plan.events().iter().map(|e| e.at()).collect();
        assert_eq!(
            ats,
            vec![Dur::from_secs(3), Dur::from_secs(1), Dur::from_secs(3)]
        );
    }

    #[test]
    fn multi_server_plans_crash_the_named_target() {
        use semplar_srb::SrbServerCfg;

        let (crashed_a_mid, crashed_b_mid, stats) = simulate(|rt| {
            let net = Network::new(rt.clone());
            let a = SrbServer::new(net.clone(), SrbServerCfg::default());
            let b = SrbServer::new(net.clone(), SrbServerCfg::default());
            let plan =
                FaultPlan::new(3).server_crash_on(1, Dur::from_millis(100), Dur::from_millis(100));
            let inj = plan.inject_multi(&rt, &net, &[a.clone(), b.clone()]);
            rt.sleep(Dur::from_millis(150));
            let mid = (a.is_crashed(), b.is_crashed());
            rt.sleep(Dur::from_millis(100));
            assert!(!b.is_crashed(), "restarted");
            assert!(inj.done());
            (mid.0, mid.1, inj.stats())
        });
        assert!(!crashed_a_mid, "server 0 untouched");
        assert!(crashed_b_mid, "server 1 crashed");
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 1);
        assert!(stats.ledger[0].1.contains("server 1 crash"));
        assert!(stats.ledger[1].1.contains("server 1 restart"));
    }

    #[test]
    fn wait_returns_at_the_instant_of_the_last_event() {
        use semplar_srb::SrbServerCfg;
        simulate(|rt| {
            let net = Network::new(rt.clone());
            let s = SrbServer::new(net.clone(), SrbServerCfg::default());
            let t0 = rt.now();
            let inj = FaultPlan::new(5)
                .server_crash_at(Dur::from_millis(30), Dur::from_millis(47))
                .conn_reset_at(Dur::from_millis(12))
                .inject(&rt, &net, &s);
            assert!(!inj.done());
            inj.wait();
            assert_eq!(rt.now(), t0 + Dur::from_millis(77));
            assert!(inj.done() && !s.is_crashed());
            inj.wait(); // past: returns at once
            assert_eq!(rt.now(), t0 + Dur::from_millis(77));
        });
    }

    #[test]
    fn injecting_a_plan_spawns_no_thread() {
        use semplar_netsim::Bw;
        use semplar_runtime::SimRuntime;
        use semplar_srb::SrbServerCfg;

        let ms = Dur::from_millis;
        let sim = SimRuntime::new();
        let stats = sim.run_root(move |rt| {
            let net = Network::new(rt.clone());
            let link = net.add_link("l", Bw::mbps(10.0), Dur::ZERO);
            let s = SrbServer::new(net.clone(), SrbServerCfg::default());
            let t0 = rt.now();
            // One event of every kind; the degrade brings its own LinkUp.
            let inj = FaultPlan::new(9)
                .event(FaultEvent::LinkDown { at: ms(1), link })
                .event(FaultEvent::LinkUp { at: ms(2), link })
                .link_degrade_at(link, ms(3), 0.5, ms(1))
                .server_crash_at(ms(5), ms(1))
                .conn_reset_at(ms(7))
                .vault_stall_at(ms(8), 1 << 20)
                .inject(&rt, &net, &s);
            inj.wait();
            assert_eq!(rt.now(), t0 + ms(8), "returns at the last event");
            inj.stats()
        });
        let kinds = |s: &FaultStats| {
            let links = (s.link_downs, s.link_ups, s.degrades);
            (links, s.crashes, s.restarts, s.resets, s.stalls)
        };
        assert_eq!(kinds(&stats), ((1, 2, 1), 1, 1, 1, 1));
        // The root is the run's one thread; the injector and the stall that
        // is still draining when the run ends are tasks.
        let st = sim.stats();
        assert_eq!((st.actors_spawned, st.tasks_spawned), (1, 2));
    }

    #[test]
    #[should_panic(expected = "targets server 2")]
    fn out_of_range_target_panics_at_inject() {
        use semplar_srb::SrbServerCfg;
        simulate(|rt| {
            let net = Network::new(rt.clone());
            let s = SrbServer::new(net.clone(), SrbServerCfg::default());
            FaultPlan::new(0)
                .server_crash_on(2, Dur::from_millis(1), Dur::from_millis(1))
                .inject_multi(&rt, &net, &[s]);
        });
    }

    #[test]
    fn injector_replays_a_schedule_on_the_virtual_clock() {
        use semplar_netsim::Bw;
        use semplar_srb::{ConnRoute, SrbServerCfg};

        let stats = simulate(|rt| {
            let net = Network::new(rt.clone());
            let up = net.add_link("up", Bw::mbps(100.0), Dur::from_millis(10));
            let down = net.add_link("down", Bw::mbps(100.0), Dur::from_millis(10));
            let server = SrbServer::new(net.clone(), SrbServerCfg::default());
            server.mcat().add_user("u", "p");
            let route = ConnRoute {
                fwd: vec![up],
                rev: vec![down],
                send_cap: None,
                recv_cap: None,
                bus: None,
            };
            let conn = server.connect(route.clone(), "u", "p").unwrap();

            let plan = FaultPlan::new(1)
                .event(FaultEvent::LinkDown {
                    at: Dur::from_millis(100),
                    link: up,
                })
                .event(FaultEvent::LinkUp {
                    at: Dur::from_millis(200),
                    link: up,
                })
                .server_crash_at(Dur::from_millis(300), Dur::from_millis(100))
                .conn_reset_at(Dur::from_millis(500));
            let t0 = rt.now();
            let inj = plan.inject(&rt, &net, &server);

            rt.sleep(Dur::from_millis(250));
            assert_eq!(net.link_capacity(up), Bw::mbps(100.0), "restored");
            rt.sleep(Dur::from_millis(100)); // t=350: crashed
            assert!(server.is_crashed());
            assert!(conn.mk_coll("/x").unwrap_err().is_transient());
            rt.sleep(Dur::from_millis(100)); // t=450: restarted
            assert!(!server.is_crashed());
            rt.sleep(Dur::from_millis(100)); // t=550: reset done (no conns left)
            assert!(inj.done());
            (inj.stats(), t0)
        });
        let (stats, t0) = stats;
        assert_eq!(stats.link_downs, 1);
        assert_eq!(stats.link_ups, 1);
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.resets, 1);
        assert_eq!(stats.conns_severed, 1, "the crash severed the live conn");
        assert_eq!(stats.ledger.len(), 5);
        // Ledger times are exactly the scheduled offsets from injection.
        assert_eq!(stats.ledger[0].0, t0 + Dur::from_millis(100));
        assert_eq!(stats.ledger[4].0, t0 + Dur::from_millis(500));
    }
}
