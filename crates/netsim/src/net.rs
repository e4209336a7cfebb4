//! The shared-network object: links, flows, and blocking transfers.
//!
//! A [`Network`] is a set of links plus the currently active flows. An actor
//! moves data by calling [`Network::transfer`] (or the latency-inclusive
//! [`Network::send_message`]): the engine inserts a flow, recomputes the
//! max-min fair allocation, and the calling actor sleeps until its flow
//! drains. Each of the two is one step machine (`poll_flow`, and over it
//! [`Network::poll_message`], which a task calls from its own `poll`) that a
//! thread drives by blocking in every step it returns. Whenever any flow starts or finishes, every affected flow's
//! progress is settled at the current instant and its owner re-arms its
//! completion timer against the new rate — a standard fluid ("piecewise
//! constant rate") model.
//!
//! # Incremental recomputation
//!
//! Rates only change for flows that share a link — directly or transitively
//! — with the flow that started or stopped. The engine therefore maintains a
//! link→flows adjacency index and, on each event, walks the connected
//! component around the event's links, settling and re-solving just that
//! component with a reusable [`Workspace`] (no steady-state allocation).
//! Flows in other components keep their rates and are settled lazily at
//! their own events. [`AllocMode::Batch`] keeps the original settle-all,
//! solve-everything engine as the semantic reference; the two produce
//! identical rate trajectories (see the differential tests), and
//! [`Network::stats`] exposes counters showing the incremental engine's
//! savings.

use std::sync::Arc;

use parking_lot::Mutex;

use semplar_runtime::{Dur, Event, Runtime, TaskStep, Time};

use crate::fair::{max_min_rates, FlowSpec, Workspace};

/// A bandwidth, stored in bits per second.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Bw(pub f64);

impl Bw {
    /// No bandwidth at all (a downed link).
    pub const ZERO: Bw = Bw(0.0);
    /// Bits per second.
    pub const fn bps(b: f64) -> Bw {
        Bw(b)
    }
    /// Megabits per second (10^6 bits/s, the paper's unit in Figs. 8-9).
    pub const fn mbps(m: f64) -> Bw {
        Bw(m * 1e6)
    }
    /// Gigabits per second.
    pub const fn gbps(g: f64) -> Bw {
        Bw(g * 1e9)
    }
    /// Megabytes per second.
    pub const fn mbyte_per_s(m: f64) -> Bw {
        Bw(m * 8e6)
    }
    /// The value in bits per second.
    pub fn as_bps(self) -> f64 {
        self.0
    }
    /// The value in megabits per second.
    pub fn as_mbps(self) -> f64 {
        self.0 / 1e6
    }
}

/// Identifier of a link within one [`Network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkId(pub(crate) usize);

/// Identifier of an I/O bus within one [`Network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BusId(pub(crate) usize);

/// Which device a flow's DMA traffic belongs to on its node's I/O bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceClass {
    /// The cluster interconnect NIC (Myrinet / GigE MPI fabric).
    Interconnect,
    /// The wide-area Ethernet NIC (SEMPLAR's TCP streams).
    Wan,
}

/// The I/O-bus contention model (paper §7.1).
///
/// The paper found that overlapping MPI communication with two-stream remote
/// I/O forfeited the second stream's benefit: "the reason for this
/// unexpected result is the I/O bus contention between the interconnect and
/// Ethernet network cards". Max-min fair sharing cannot produce this (a fair
/// allocator never hurts a small flow), because PCI arbitration is not fair:
/// interrupt and DMA contention disproportionately degrades the NICs.
///
/// This is modelled phenomenologically: when at least one *interconnect*
/// flow and at least `min_wan_streams` *WAN* flows are simultaneously active
/// on the same bus, every WAN flow on the bus becomes **contended** —
/// stickily, for its whole remaining lifetime (TCP that backs off under
/// interrupt starvation does not instantly recover) — and runs at
/// `penalty × rate`. A single window-limited WAN stream fits within the
/// bus's DMA slack (`min_wan_streams = 2` by default), which is why plain
/// computation/I-O overlap (§7.1) is unaffected while the combined
/// overlap+double-connection experiment collapses to single-stream speed.
#[derive(Clone, Copy, Debug)]
pub struct BusSpec {
    /// Rate multiplier applied to contended WAN flows (0 < penalty ≤ 1).
    pub penalty: f64,
    /// Number of concurrent WAN flows needed (with interconnect traffic) to
    /// trigger contention.
    pub min_wan_streams: usize,
}

impl Default for BusSpec {
    fn default() -> Self {
        BusSpec {
            penalty: 0.5,
            min_wan_streams: 2,
        }
    }
}

/// Options for [`Network::transfer_opts`].
#[derive(Clone, Debug, Default)]
pub struct XferOpts {
    /// Per-flow rate cap (TCP window limit).
    pub cap: Option<Bw>,
    /// I/O buses this flow's DMA crosses, with its device class on each.
    pub buses: Vec<(BusId, DeviceClass)>,
}

/// Which allocation engine a [`Network`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocMode {
    /// Settle every flow and re-solve the whole network on every event.
    /// This is the original engine, kept as the semantic reference and as
    /// the baseline for the allocator microbenchmarks.
    Batch,
    /// Settle and re-solve only the connected component the event touches
    /// (the default). Behaviourally identical to [`AllocMode::Batch`].
    Incremental,
}

/// Counters describing the allocation engine's work ([`Network::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Rate recomputations performed (one per flow arrival or departure).
    pub recomputes: u64,
    /// Total flows whose rate was re-derived, summed over recomputes;
    /// `flows_touched / recomputes` is the mean component size.
    pub flows_touched: u64,
    /// Flow settlements avoided because the flow's component was not
    /// involved in the event (always 0 in batch mode).
    pub settles_skipped: u64,
    /// Rate-change signals delivered to flow owners.
    pub signals: u64,
    /// Wall-clock nanoseconds spent inside recomputation (bus pass, solver,
    /// and rate application).
    pub alloc_nanos: u64,
}

struct LinkState {
    cap: f64, // bits/s
    latency: Dur,
    bits_moved: f64,
}

struct FlowState {
    path: Vec<usize>,
    cap: Option<f64>,
    /// Effective rate (post bus-contention penalty).
    rate: f64,
    /// Rate granted by the fair allocator (pre-penalty).
    alloc_rate: f64,
    /// Min penalty over this flow's WAN bus specs (1.0 when none apply).
    penalty: f64,
    bits_rem: f64,
    last_settle: Time,
    ev: Event,
    buses: Vec<(usize, DeviceClass)>,
    /// Sticky contention flag (see [`BusSpec`]).
    contended: bool,
}

struct BusState {
    spec: BusSpec,
    /// Active interconnect-class flows crossing this bus.
    ic_count: usize,
    /// Active WAN-class flows (slot indices) crossing this bus.
    wan: Vec<usize>,
}

struct NetInner {
    links: Vec<LinkState>,
    /// Slot indices of the active flows crossing each link.
    link_members: Vec<Vec<usize>>,
    buses: Vec<BusState>,
    /// Flow slab; completed flows leave `None` holes reused via `free`.
    slots: Vec<Option<FlowState>>,
    free: Vec<usize>,
    active: usize,
    completed_flows: u64,
    mode: AllocMode,
    /// Component-walk epoch; marks equal to it are "visited this walk".
    epoch: u64,
    link_mark: Vec<u64>,
    flow_mark: Vec<u64>,
    ws: Workspace,
    // Reusable event scratch.
    comp_flows: Vec<usize>,
    comp_links: Vec<usize>,
    bfs_stack: Vec<usize>,
    newly_contended: Vec<usize>,
    to_signal: Vec<Event>,
    stats: NetStats,
}

/// A simulated network shared by all actors of an experiment.
pub struct Network {
    rt: Arc<dyn Runtime>,
    inner: Mutex<NetInner>,
}

/// Threshold below which a flow counts as drained (half a bit).
const DONE_BITS: f64 = 0.5;
/// Rates below this are treated as stalled; the owner waits for a recompute.
const MIN_RATE: f64 = 1e-9;

/// A rate change smaller than this (relative) is not worth re-arming timers.
fn rate_changed(old: f64, new: f64) -> bool {
    (old - new).abs() > 1e-9 * new.max(1.0)
}

impl Network {
    /// An empty network using `rt` for time and blocking, running the
    /// incremental engine.
    pub fn new(rt: Arc<dyn Runtime>) -> Arc<Network> {
        Self::new_with_mode(rt, AllocMode::Incremental)
    }

    /// An empty network running the given allocation engine.
    pub fn new_with_mode(rt: Arc<dyn Runtime>, mode: AllocMode) -> Arc<Network> {
        Arc::new(Network {
            rt,
            inner: Mutex::new(NetInner {
                links: Vec::new(),
                link_members: Vec::new(),
                buses: Vec::new(),
                slots: Vec::new(),
                free: Vec::new(),
                active: 0,
                completed_flows: 0,
                mode,
                epoch: 0,
                link_mark: Vec::new(),
                flow_mark: Vec::new(),
                ws: Workspace::new(),
                comp_flows: Vec::new(),
                comp_links: Vec::new(),
                bfs_stack: Vec::new(),
                newly_contended: Vec::new(),
                to_signal: Vec::new(),
                stats: NetStats::default(),
            }),
        })
    }

    /// The runtime this network charges time against.
    pub fn runtime(&self) -> &Arc<dyn Runtime> {
        &self.rt
    }

    /// Which allocation engine this network runs.
    pub fn alloc_mode(&self) -> AllocMode {
        self.inner.lock().mode
    }

    /// Allocation-engine counters accumulated so far.
    pub fn stats(&self) -> NetStats {
        self.inner.lock().stats
    }

    /// Add a link with the given capacity and one-way latency contribution.
    /// `_name` labels the link where the topology is built; links are
    /// identified by their [`LinkId`] from here on and the name is not kept.
    pub fn add_link(&self, _name: &str, cap: Bw, latency: Dur) -> LinkId {
        let mut g = self.inner.lock();
        g.links.push(LinkState {
            cap: cap.as_bps(),
            latency,
            bits_moved: 0.0,
        });
        g.link_members.push(Vec::new());
        g.link_mark.push(0);
        LinkId(g.links.len() - 1)
    }

    /// Register an I/O bus with the given contention behaviour.
    pub fn add_bus(&self, spec: BusSpec) -> BusId {
        let mut g = self.inner.lock();
        g.buses.push(BusState {
            spec,
            ic_count: 0,
            wan: Vec::new(),
        });
        BusId(g.buses.len() - 1)
    }

    /// Change `link`'s capacity in place, rebalancing every affected flow.
    ///
    /// This is the fault-injection hook: a capacity of [`Bw::ZERO`] takes
    /// the link down (flows crossing it stall on their rate event until
    /// capacity returns — the solver hands zero-capacity links zero rates),
    /// and a scaled capacity models degradation. Progress made so far is
    /// settled at the old rates before the new capacity takes effect, in
    /// both allocation engines, so the engines stay bit-identical.
    pub fn set_link_capacity(&self, link: LinkId, cap: Bw) {
        let mut g = self.inner.lock();
        let now = self.rt.now();
        if g.mode == AllocMode::Batch {
            Self::settle_all(&mut g, now);
        }
        g.links[link.0].cap = cap.as_bps();
        match g.mode {
            AllocMode::Batch => Self::recompute_batch(&mut g),
            AllocMode::Incremental => Self::recompute_incremental(&mut g, None, &[link.0], now),
        }
    }

    /// Current capacity of `link`.
    pub fn link_capacity(&self, link: LinkId) -> Bw {
        Bw::bps(self.inner.lock().links[link.0].cap)
    }

    /// Sum of one-way latencies along `path`.
    pub fn path_latency(&self, path: &[LinkId]) -> Dur {
        let g = self.inner.lock();
        path.iter()
            .fold(Dur::ZERO, |acc, l| acc + g.links[l.0].latency)
    }

    /// Total bits that have crossed `link` so far (for assertions/stats).
    /// Settles every active flow to the present first, so the counter is
    /// exact at the moment of the call.
    pub fn link_bits_moved(&self, link: LinkId) -> f64 {
        let mut g = self.inner.lock();
        let now = self.rt.now();
        Self::settle_all(&mut g, now);
        g.links[link.0].bits_moved
    }

    /// Number of flows that have completed on this network.
    pub fn completed_flows(&self) -> u64 {
        self.inner.lock().completed_flows
    }

    /// Advance one flow's progress to `now` and accumulate link counters.
    fn settle_flow(g: &mut NetInner, slot: usize, now: Time) {
        let NetInner { slots, links, .. } = g;
        if let Some(f) = slots[slot].as_mut() {
            let dt = now.since(f.last_settle).as_secs_f64();
            if dt > 0.0 {
                let moved = (f.rate * dt).min(f.bits_rem.max(0.0));
                f.bits_rem -= moved;
                for &l in &f.path {
                    links[l].bits_moved += moved;
                }
            }
            f.last_settle = now;
        }
    }

    /// Advance every flow's progress to `now`.
    fn settle_all(g: &mut NetInner, now: Time) {
        for slot in 0..g.slots.len() {
            Self::settle_flow(g, slot, now);
        }
    }

    /// Insert a flow into the slab, adjacency index, and bus membership;
    /// marks newly contended WAN flows (into `g.newly_contended`).
    fn insert_flow_locked(
        g: &mut NetInner,
        path: Vec<usize>,
        cap: Option<f64>,
        units: f64,
        now: Time,
        ev: Event,
        buses: Vec<(usize, DeviceClass)>,
    ) -> usize {
        let penalty = buses
            .iter()
            .filter(|&&(_, c)| c == DeviceClass::Wan)
            .map(|&(b, _)| g.buses[b].spec.penalty)
            .fold(1.0f64, f64::min);
        let slot = match g.free.pop() {
            Some(s) => s,
            None => {
                g.slots.push(None);
                g.flow_mark.push(0);
                g.slots.len() - 1
            }
        };
        for &l in &path {
            g.link_members[l].push(slot);
        }
        for &(b, c) in &buses {
            match c {
                DeviceClass::Interconnect => g.buses[b].ic_count += 1,
                DeviceClass::Wan => g.buses[b].wan.push(slot),
            }
        }
        g.slots[slot] = Some(FlowState {
            path,
            cap,
            rate: 0.0,
            alloc_rate: 0.0,
            penalty,
            bits_rem: units,
            last_settle: now,
            ev,
            buses,
            contended: false,
        });
        g.active += 1;
        // Contention trigger: only an arrival can newly satisfy the
        // condition (departures shrink membership and the flag is sticky),
        // so checking the arriving flow's buses here is equivalent to the
        // batch engine's every-event scan over all buses.
        g.newly_contended.clear();
        let nbuses = g.slots[slot].as_ref().expect("just inserted").buses.len();
        for bi in 0..nbuses {
            let (b, _) = g.slots[slot].as_ref().expect("just inserted").buses[bi];
            let bus = &g.buses[b];
            if bus.ic_count == 0 || bus.wan.len() < bus.spec.min_wan_streams {
                continue;
            }
            for wi in 0..g.buses[b].wan.len() {
                let w = g.buses[b].wan[wi];
                let f = g.slots[w].as_mut().expect("bus member vanished");
                if !f.contended {
                    f.contended = true;
                    g.newly_contended.push(w);
                }
            }
        }
        slot
    }

    /// Remove a flow from the slab, adjacency index, and bus membership.
    fn remove_flow_locked(g: &mut NetInner, slot: usize) -> FlowState {
        let f = g.slots[slot].take().expect("own flow vanished");
        g.active -= 1;
        g.completed_flows += 1;
        g.free.push(slot);
        for &l in &f.path {
            let members = &mut g.link_members[l];
            let pos = members
                .iter()
                .position(|&s| s == slot)
                .expect("flow missing from link index");
            members.swap_remove(pos);
        }
        for &(b, c) in &f.buses {
            match c {
                DeviceClass::Interconnect => g.buses[b].ic_count -= 1,
                DeviceClass::Wan => {
                    let wan = &mut g.buses[b].wan;
                    let pos = wan
                        .iter()
                        .position(|&s| s == slot)
                        .expect("flow missing from bus index");
                    wan.swap_remove(pos);
                }
            }
        }
        g.newly_contended.clear();
        f
    }

    /// Batch reference engine: bus pass, whole-network solve, apply.
    fn recompute_batch(g: &mut NetInner) {
        let t0 = std::time::Instant::now();
        // Bus-contention pass over the maintained membership (the flag is
        // sticky, so re-marking already-contended flows is a no-op).
        for b in 0..g.buses.len() {
            if g.buses[b].ic_count == 0 {
                continue;
            }
            if g.buses[b].wan.len() < g.buses[b].spec.min_wan_streams {
                continue;
            }
            for wi in 0..g.buses[b].wan.len() {
                let w = g.buses[b].wan[wi];
                g.slots[w].as_mut().expect("bus member vanished").contended = true;
            }
        }
        let caps: Vec<f64> = g.links.iter().map(|l| l.cap).collect();
        let ids: Vec<usize> = g
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| i)
            .collect();
        let specs: Vec<FlowSpec> = ids
            .iter()
            .map(|&i| {
                let f = g.slots[i].as_ref().expect("listed flow");
                FlowSpec {
                    path: &f.path,
                    cap: f.cap,
                }
            })
            .collect();
        let rates = max_min_rates(&caps, &specs);
        drop(specs);
        g.to_signal.clear();
        for (&slot, rate) in ids.iter().zip(rates) {
            let f = g.slots[slot].as_mut().expect("listed flow");
            f.alloc_rate = rate;
            let eff = if f.contended {
                // Penalized flows underutilize their allocation — that is
                // the point: bus arbitration wastes cycles, it does not
                // hand them to anyone else.
                rate * f.penalty
            } else {
                rate
            };
            if rate_changed(f.rate, eff) {
                f.rate = eff;
                g.to_signal.push(f.ev.clone());
            }
        }
        g.stats.recomputes += 1;
        g.stats.flows_touched += ids.len() as u64;
        g.stats.signals += g.to_signal.len() as u64;
        g.stats.alloc_nanos += t0.elapsed().as_nanos() as u64;
        // Signal after releasing all flow borrows; each owner re-polls and
        // re-arms its completion timer against the new rate. Signals bank a
        // permit, so an owner that has not blocked yet cannot miss one.
        for i in 0..g.to_signal.len() {
            g.to_signal[i].signal();
        }
        g.to_signal.clear();
    }

    /// Incremental engine: walk the connected component around the event,
    /// settle it, solve it, apply. `seed_flow` is the arriving flow (if
    /// any); `seed_links` are the departing flow's links (if any).
    fn recompute_incremental(
        g: &mut NetInner,
        seed_flow: Option<usize>,
        seed_links: &[usize],
        now: Time,
    ) {
        let t0 = std::time::Instant::now();
        g.epoch += 1;
        let ep = g.epoch;
        g.comp_flows.clear();
        g.comp_links.clear();
        g.bfs_stack.clear();
        {
            let NetInner {
                slots,
                link_members,
                link_mark,
                flow_mark,
                bfs_stack,
                comp_flows,
                comp_links,
                ..
            } = g;
            if let Some(s) = seed_flow {
                flow_mark[s] = ep;
                bfs_stack.push(s);
            }
            for &l in seed_links {
                if link_mark[l] != ep {
                    link_mark[l] = ep;
                    comp_links.push(l);
                    for &m in &link_members[l] {
                        if flow_mark[m] != ep {
                            flow_mark[m] = ep;
                            bfs_stack.push(m);
                        }
                    }
                }
            }
            while let Some(s) = bfs_stack.pop() {
                comp_flows.push(s);
                let f = slots[s].as_ref().expect("marked flow vanished");
                for &l in &f.path {
                    if link_mark[l] != ep {
                        link_mark[l] = ep;
                        comp_links.push(l);
                        for &m in &link_members[l] {
                            if flow_mark[m] != ep {
                                flow_mark[m] = ep;
                                bfs_stack.push(m);
                            }
                        }
                    }
                }
            }
            // Slot order == the batch engine's flow iteration order, which
            // keeps the two engines' arithmetic identical.
            comp_flows.sort_unstable();
        }
        for i in 0..g.comp_flows.len() {
            let s = g.comp_flows[i];
            Self::settle_flow(g, s, now);
        }
        let mut skipped = (g.active - g.comp_flows.len()) as u64;
        {
            let NetInner {
                slots,
                links,
                ws,
                comp_flows,
                comp_links,
                ..
            } = g;
            ws.begin(links.len());
            for &l in comp_links.iter() {
                ws.add_link(l, links[l].cap);
            }
            for &s in comp_flows.iter() {
                let f = slots[s].as_ref().expect("component flow vanished");
                ws.add_flow(f.cap, &f.path);
            }
            ws.solve();
        }
        g.to_signal.clear();
        for i in 0..g.comp_flows.len() {
            let s = g.comp_flows[i];
            let alloc = g.ws.rates()[i];
            let f = g.slots[s].as_mut().expect("component flow vanished");
            f.alloc_rate = alloc;
            let eff = if f.contended {
                alloc * f.penalty
            } else {
                alloc
            };
            if rate_changed(f.rate, eff) {
                f.rate = eff;
                g.to_signal.push(f.ev.clone());
            }
        }
        // WAN flows newly penalized by the arrival but living in another
        // component: their allocation is untouched (the penalty wastes the
        // allocation rather than redistributing it), so only their
        // effective rate needs updating — no second solve.
        let mut extra_touched = 0u64;
        for i in 0..g.newly_contended.len() {
            let w = g.newly_contended[i];
            if g.flow_mark[w] == ep {
                continue; // already handled by the component pass
            }
            Self::settle_flow(g, w, now);
            skipped -= 1;
            extra_touched += 1;
            let f = g.slots[w].as_mut().expect("contended flow vanished");
            let eff = f.alloc_rate * f.penalty;
            if rate_changed(f.rate, eff) {
                f.rate = eff;
                g.to_signal.push(f.ev.clone());
            }
        }
        g.newly_contended.clear();
        g.stats.recomputes += 1;
        g.stats.flows_touched += g.comp_flows.len() as u64 + extra_touched;
        g.stats.settles_skipped += skipped;
        g.stats.signals += g.to_signal.len() as u64;
        g.stats.alloc_nanos += t0.elapsed().as_nanos() as u64;
        for i in 0..g.to_signal.len() {
            g.to_signal[i].signal();
        }
        g.to_signal.clear();
    }

    /// Start a flow at `now`: settle (batch: everything; incremental: the
    /// affected component, inside the recompute), index, recompute.
    fn begin_flow_locked(
        g: &mut NetInner,
        now: Time,
        path: Vec<usize>,
        cap: Option<f64>,
        units: f64,
        ev: Event,
        buses: Vec<(usize, DeviceClass)>,
    ) -> usize {
        if g.mode == AllocMode::Batch {
            Self::settle_all(g, now);
        }
        let slot = Self::insert_flow_locked(g, path, cap, units, now, ev, buses);
        match g.mode {
            AllocMode::Batch => Self::recompute_batch(g),
            AllocMode::Incremental => Self::recompute_incremental(g, Some(slot), &[], now),
        }
        slot
    }

    /// End the flow in `slot` at `now` (caller has already settled it) and
    /// redistribute its bandwidth.
    fn end_flow_locked(g: &mut NetInner, now: Time, slot: usize) {
        if g.mode == AllocMode::Batch {
            // Everyone's rate may change below; their progress so far ran at
            // the old rate and must be banked first. (The incremental engine
            // settles the affected component inside its recompute.)
            Self::settle_all(g, now);
        }
        let f = Self::remove_flow_locked(g, slot);
        match g.mode {
            AllocMode::Batch => Self::recompute_batch(g),
            AllocMode::Incremental => Self::recompute_incremental(g, None, &f.path, now),
        }
    }

    /// Move `bytes` through `path`, blocking the calling actor until the
    /// flow drains under max-min fair sharing. `flow_cap` models a per-flow
    /// ceiling such as a TCP window limit. Latency is *not* included — see
    /// [`Network::send_message`].
    pub fn transfer(&self, path: &[LinkId], bytes: u64, flow_cap: Option<Bw>) {
        self.transfer_opts(
            path,
            bytes,
            &XferOpts {
                cap: flow_cap,
                buses: Vec::new(),
            },
        );
    }

    /// Move `bytes` through `path` with full options (per-flow cap and I/O
    /// bus tags for the contention model).
    pub fn transfer_opts(&self, path: &[LinkId], bytes: u64, opts: &XferOpts) {
        self.drain(self.begin_opts(path, bytes, opts));
    }

    /// Like [`Network::transfer`] but in raw capacity units (used by the CPU
    /// model, where a "unit" is one core-nanosecond of work).
    pub fn transfer_units(&self, path: &[LinkId], units: f64, flow_cap: Option<f64>) {
        self.drain(self.begin_units(path, units, flow_cap, &[]));
    }

    /// The blocking driver of `poll_flow`.
    fn drain(&self, flow: Option<Flow>) {
        let Some(flow) = flow else { return };
        while let Some(step) = self.poll_flow(&flow) {
            step.block(&self.rt);
        }
    }

    /// Start moving `bytes` through `path` without blocking: the flow is
    /// inserted and every rate it disturbs recomputed now; its owner — a
    /// task's [`Message`], or a thread in [`Network::transfer_opts`] — then
    /// drives it with `poll_flow`. `None` when there is nothing to move:
    /// an empty transfer is no flow and no event.
    fn begin_opts(&self, path: &[LinkId], bytes: u64, opts: &XferOpts) -> Option<Flow> {
        let cap = opts.cap.map(|b| b.as_bps());
        self.begin_units(path, bytes as f64 * 8.0, cap, &opts.buses)
    }

    fn begin_units(
        &self,
        path: &[LinkId],
        units: f64,
        flow_cap: Option<f64>,
        buses: &[(BusId, DeviceClass)],
    ) -> Option<Flow> {
        if units <= 0.0 {
            return None;
        }
        let ev = self.rt.event();
        let mut g = self.inner.lock();
        let now = self.rt.now();
        let slot = Self::begin_flow_locked(
            &mut g,
            now,
            path.iter().map(|l| l.0).collect(),
            flow_cap,
            units,
            ev.clone(),
            buses.iter().map(|&(b, c)| (b.0, c)).collect(),
        );
        Some(Flow { slot, ev })
    }

    /// Settle `flow` to the present. `None`: it has drained, and has been
    /// removed and its bandwidth redistributed — do not poll it again.
    /// Otherwise the step to block in before the next poll: until the flow
    /// would drain at its current rate, or — stalled — until a recompute
    /// signals a new one; a rate change cuts either short.
    fn poll_flow(&self, flow: &Flow) -> Option<TaskStep> {
        let mut g = self.inner.lock();
        let now = self.rt.now();
        match g.mode {
            // The batch engine settles the world at every poll (the
            // original behaviour); the incremental engine settles
            // only this flow — nobody else's rate is changing.
            AllocMode::Batch => Self::settle_all(&mut g, now),
            AllocMode::Incremental => Self::settle_flow(&mut g, flow.slot, now),
        }
        let f = g.slots[flow.slot].as_ref().expect("own flow vanished");
        if f.bits_rem <= DONE_BITS {
            Self::end_flow_locked(&mut g, now, flow.slot);
            return None;
        }
        // +1ns guards against round-down re-poll spinning.
        let wait = (f.rate > MIN_RATE)
            .then(|| Dur::from_secs_f64(f.bits_rem / f.rate) + Dur::from_nanos(1));
        Some(TaskStep::Wait(flow.ev.clone(), wait))
    }

    /// Deliver a `bytes`-sized message over `path`: one-way latency plus the
    /// fluid transfer time. This is the building block for protocol messages
    /// (SRB requests/responses, MPI sends).
    pub fn send_message(&self, path: &[LinkId], bytes: u64, flow_cap: Option<Bw>) {
        let opts = XferOpts {
            cap: flow_cap,
            buses: Vec::new(),
        };
        self.send_message_opts(path, bytes, &opts);
    }

    /// [`Network::send_message`] with bus tags for the contention model.
    pub fn send_message_opts(&self, path: &[LinkId], bytes: u64, opts: &XferOpts) {
        let mut msg = Message::new(bytes);
        while let Some(step) = self.poll_message(&mut msg, path, opts) {
            step.block(&self.rt);
        }
    }

    /// Advance `msg` on its way over `path`: `None` once it has been
    /// delivered, otherwise the step to block in before the next poll.
    pub fn poll_message(
        &self,
        msg: &mut Message,
        path: &[LinkId],
        opts: &XferOpts,
    ) -> Option<TaskStep> {
        loop {
            match &msg.0 {
                &MsgState::New(bytes) => {
                    msg.0 = MsgState::Latent(bytes);
                    let lat = self.path_latency(path);
                    if !lat.is_zero() {
                        return Some(TaskStep::Sleep(lat));
                    }
                }
                &MsgState::Latent(bytes) => {
                    msg.0 = MsgState::Wire(self.begin_opts(path, bytes, opts));
                }
                MsgState::Wire(flow) => {
                    let step = flow.as_ref().and_then(|f| self.poll_flow(f));
                    if step.is_none() {
                        msg.0 = MsgState::Wire(None);
                    }
                    return step;
                }
            }
        }
    }
}

/// A transfer in progress on a [`Network`]: made by `begin_opts`, driven
/// by `poll_flow`.
struct Flow {
    slot: usize,
    /// Signalled whenever a recompute changes this flow's rate.
    ev: Event,
}

/// One protocol message in flight — the one-way latency, then the fluid
/// transfer — as a step machine: [`Network::poll_message`] drives it, from
/// a task's `poll` or from the blocking [`Network::send_message_opts`].
pub struct Message(MsgState);

enum MsgState {
    /// Not sent yet.
    New(u64),
    /// The latency has been slept (or was zero); the bytes go next.
    Latent(u64),
    /// On the wire; `None` once delivered (or with nothing to move).
    Wire(Option<Flow>),
}

impl Message {
    /// A message of `bytes` bytes, not yet sent.
    pub fn new(bytes: u64) -> Message {
        Message(MsgState::New(bytes))
    }
}

/// Thread-free replay driver for the allocation engines.
///
/// Drives flow arrivals/departures against a [`Network`] directly — no
/// actors, no blocking — with an explicit virtual clock. This is the
/// workhorse behind the batch-vs-incremental differential tests and the
/// allocator microbenchmarks; it is `doc(hidden)` because it bypasses the
/// blocking transfer API and is not a stable interface.
#[doc(hidden)]
pub mod replay {
    use super::*;
    use semplar_runtime::RealRuntime;

    /// A [`Network`] plus a manual clock and direct start/finish hooks.
    pub struct Harness {
        net: Arc<Network>,
        now: Time,
    }

    impl Harness {
        /// A fresh harness running the given engine.
        pub fn new(mode: AllocMode) -> Harness {
            let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
            Harness {
                net: Network::new_with_mode(rt, mode),
                now: Time::ZERO,
            }
        }

        /// The wrapped network.
        pub fn network(&self) -> &Arc<Network> {
            &self.net
        }

        /// Add a link (same as [`Network::add_link`]).
        pub fn add_link(&self, name: &str, cap: Bw) -> LinkId {
            self.net.add_link(name, cap, Dur::ZERO)
        }

        /// Add a bus (same as [`Network::add_bus`]).
        pub fn add_bus(&self, spec: BusSpec) -> BusId {
            self.net.add_bus(spec)
        }

        /// Advance the replay clock.
        pub fn tick(&mut self, d: Dur) {
            self.now += d;
        }

        /// Start a flow now; returns its slot handle.
        pub fn start(
            &mut self,
            path: &[LinkId],
            units: f64,
            cap: Option<f64>,
            buses: &[(BusId, DeviceClass)],
        ) -> usize {
            let ev = self.net.rt.event();
            let mut g = self.net.inner.lock();
            Network::begin_flow_locked(
                &mut g,
                self.now,
                path.iter().map(|l| l.0).collect(),
                cap,
                units,
                ev,
                buses.iter().map(|&(b, c)| (b.0, c)).collect(),
            )
        }

        /// Change a link's capacity now (same as
        /// [`Network::set_link_capacity`], against the replay clock).
        pub fn set_capacity(&mut self, link: LinkId, cap: Bw) {
            let mut g = self.net.inner.lock();
            if g.mode == AllocMode::Batch {
                Network::settle_all(&mut g, self.now);
            }
            g.links[link.0].cap = cap.as_bps();
            match g.mode {
                AllocMode::Batch => Network::recompute_batch(&mut g),
                AllocMode::Incremental => {
                    Network::recompute_incremental(&mut g, None, &[link.0], self.now)
                }
            }
        }

        /// Settle and terminate the flow in `slot` now (regardless of how
        /// many bits it still had — a departure is a departure to the
        /// allocator).
        pub fn finish(&mut self, slot: usize) {
            let mut g = self.net.inner.lock();
            Network::settle_flow(&mut g, slot, self.now);
            Network::end_flow_locked(&mut g, self.now, slot);
        }

        /// Effective rate of every active flow, indexed by slot (`None` for
        /// empty slots). Slot assignment is deterministic for a given event
        /// sequence, so two harnesses replaying the same trace can be
        /// compared slot-by-slot.
        pub fn rates_by_slot(&self) -> Vec<Option<f64>> {
            let g = self.net.inner.lock();
            g.slots.iter().map(|s| s.as_ref().map(|f| f.rate)).collect()
        }

        /// Bits moved per link, settled to the replay clock.
        pub fn bits_moved(&self) -> Vec<f64> {
            let mut g = self.net.inner.lock();
            let now = self.now;
            Network::settle_all(&mut g, now);
            g.links.iter().map(|l| l.bits_moved).collect()
        }

        /// Engine counters.
        pub fn stats(&self) -> NetStats {
            self.net.stats()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_runtime::{simulate, spawn};

    fn secs(t: Dur) -> f64 {
        t.as_secs_f64()
    }

    #[test]
    fn single_transfer_takes_bytes_over_bandwidth() {
        let elapsed = simulate(|rt| {
            let net = Network::new(rt.clone());
            let l = net.add_link("lan", Bw::mbps(8.0), Dur::ZERO);
            let t0 = rt.now();
            net.transfer(&[l], 1_000_000, None); // 8 Mbit over 8 Mb/s = 1 s
            rt.now() - t0
        });
        assert!((secs(elapsed) - 1.0).abs() < 1e-6, "{elapsed}");
    }

    #[test]
    fn flow_cap_limits_single_stream() {
        let elapsed = simulate(|rt| {
            let net = Network::new(rt.clone());
            let l = net.add_link("wan", Bw::mbps(100.0), Dur::ZERO);
            let t0 = rt.now();
            net.transfer(&[l], 1_000_000, Some(Bw::mbps(8.0)));
            rt.now() - t0
        });
        assert!((secs(elapsed) - 1.0).abs() < 1e-6, "{elapsed}");
    }

    /// A message sent by a task: `poll_message` driven from `poll`, where a
    /// thread would block in `send_message_opts`.
    struct Send {
        net: Arc<Network>,
        path: Vec<LinkId>,
        msg: Message,
        done: Arc<Mutex<Vec<(u64, Time)>>>,
        id: u64,
    }
    impl semplar_runtime::Task for Send {
        fn poll(&mut self, cx: &mut semplar_runtime::TaskCtx<'_>) -> TaskStep {
            let opts = XferOpts::default();
            match self.net.poll_message(&mut self.msg, &self.path, &opts) {
                Some(step) => step,
                None => {
                    self.done.lock().push((self.id, cx.now));
                    TaskStep::Done
                }
            }
        }
    }

    #[test]
    fn a_task_polling_a_flow_and_a_thread_blocking_in_it_keep_the_same_time() {
        // Three competing messages — 1, 2 and 3 MB over one 8 Mb/s link
        // with latency, so every departure re-rates the others — sent by
        // threads, or the second of them by a task.
        let run = |task: bool| {
            let sim = semplar_runtime::SimRuntime::new();
            let out = sim.run_root(move |rt| {
                let net = Network::new(rt.clone());
                let l = net.add_link("wan", Bw::mbps(8.0), Dur::from_millis(5));
                let done = Arc::new(Mutex::new(Vec::new()));
                let ex = semplar_runtime::TaskExecutor::new(&rt, "send");
                let (mut threads, mut tasks) = (Vec::new(), Vec::new());
                for id in 1..=3u64 {
                    let (net2, done2, rt2) = (net.clone(), done.clone(), rt.clone());
                    if task && id == 2 {
                        tasks.push(ex.spawn(Box::new(Send {
                            net: net2,
                            path: vec![l],
                            msg: Message::new(id * 1_000_000),
                            done: done2,
                            id,
                        })));
                        continue;
                    }
                    threads.push(spawn(&rt, &format!("send{id}"), move || {
                        net2.send_message(&[l], id * 1_000_000, None);
                        done2.lock().push((id, rt2.now()));
                    }));
                }
                threads.into_iter().for_each(|h| h.join_unwrap());
                tasks.iter().for_each(|h| h.join());
                let finished = done.lock().clone();
                (finished, net.stats().recomputes, net.stats().signals)
            });
            let s = sim.stats();
            (out, s.clock_advances, s.timers_armed)
        };
        let threads = run(false);
        assert_eq!((threads.0).0.len(), 3);
        assert_eq!(run(true), threads, "completion instants and engine work");
    }

    #[test]
    fn two_concurrent_transfers_share_the_link() {
        let elapsed = simulate(|rt| {
            let net = Network::new(rt.clone());
            let l = net.add_link("lan", Bw::mbps(8.0), Dur::ZERO);
            let t0 = rt.now();
            let net2 = net.clone();
            let h = spawn(&rt, "peer", move || {
                net2.transfer(&[l], 1_000_000, None);
            });
            net.transfer(&[l], 1_000_000, None);
            h.join_unwrap();
            rt.now() - t0
        });
        // Two 1s-alone transfers sharing fairly: both finish at t=2s.
        assert!((secs(elapsed) - 2.0).abs() < 1e-6, "{elapsed}");
    }

    #[test]
    fn link_down_stalls_flows_until_capacity_returns() {
        let elapsed = simulate(|rt| {
            let net = Network::new(rt.clone());
            let l = net.add_link("wan", Bw::mbps(8.0), Dur::ZERO);
            let net2 = net.clone();
            let h = spawn(&rt, "xfer", move || {
                net2.transfer(&[l], 1_000_000, None); // 1 s at 8 Mb/s
            });
            rt.sleep(Dur::from_millis(500));
            net.set_link_capacity(l, Bw::ZERO);
            assert_eq!(net.link_capacity(l).as_bps(), 0.0);
            rt.sleep(Dur::from_secs(2));
            net.set_link_capacity(l, Bw::mbps(8.0));
            h.join_unwrap();
            rt.now() - Time::ZERO
        });
        // 0.5 s of progress, a 2 s outage, then the remaining 0.5 s.
        assert!((secs(elapsed) - 3.0).abs() < 1e-6, "{elapsed}");
    }

    #[test]
    fn link_degrade_scales_completion_time() {
        let elapsed = simulate(|rt| {
            let net = Network::new(rt.clone());
            let l = net.add_link("wan", Bw::mbps(8.0), Dur::ZERO);
            let net2 = net.clone();
            let h = spawn(&rt, "xfer", move || {
                net2.transfer(&[l], 1_000_000, None);
            });
            // Halve the capacity halfway through: 0.5 s done, the other
            // 4 Mbit now drains at 4 Mb/s in 1 s.
            rt.sleep(Dur::from_millis(500));
            net.set_link_capacity(l, Bw::mbps(4.0));
            h.join_unwrap();
            rt.now() - Time::ZERO
        });
        assert!((secs(elapsed) - 1.5).abs() < 1e-6, "{elapsed}");
    }

    #[test]
    fn late_second_flow_slows_the_first() {
        let (t_first, t_second) = simulate(|rt| {
            let net = Network::new(rt.clone());
            let l = net.add_link("lan", Bw::mbps(8.0), Dur::ZERO);
            let net2 = net.clone();
            let rt2 = rt.clone();
            let h = spawn(&rt, "late", move || {
                rt2.sleep(Dur::from_millis(500));
                net2.transfer(&[l], 1_000_000, None);
            });
            let t0 = rt.now();
            net.transfer(&[l], 1_000_000, None);
            let t_first = rt.now() - t0;
            h.join_unwrap();
            // second flow: starts at 0.5s; shares until first done, then full
            // first: 0.5s alone (0.5 Mbyte moved) + remaining 0.5MB at half
            // rate = 1s more => finishes at 1.5s.
            (t_first, rt.now() - t0)
        });
        assert!((secs(t_first) - 1.5).abs() < 1e-6, "first {t_first}");
        // Second: 1s shared (0.5MB) + 0.5MB at full rate (0.5s) => done at 2s.
        assert!((secs(t_second) - 2.0).abs() < 1e-6, "second {t_second}");
    }

    #[test]
    fn message_includes_path_latency() {
        let elapsed = simulate(|rt| {
            let net = Network::new(rt.clone());
            let a = net.add_link("hop-a", Bw::mbps(8.0), Dur::from_millis(91));
            let b = net.add_link("hop-b", Bw::mbps(8.0), Dur::from_millis(91));
            let t0 = rt.now();
            net.send_message(&[a, b], 1_000_000, None);
            rt.now() - t0
        });
        // 182 ms latency + 1 s transfer.
        assert!((secs(elapsed) - 1.182).abs() < 1e-6, "{elapsed}");
    }

    #[test]
    fn two_capped_streams_double_throughput() {
        // The §7.2 mechanism: window cap 4 Mb/s on a 100 Mb/s link.
        let (one, two) = simulate(|rt| {
            let net = Network::new(rt.clone());
            let l = net.add_link("wan", Bw::mbps(100.0), Dur::ZERO);
            let t0 = rt.now();
            net.transfer(&[l], 1_000_000, Some(Bw::mbps(4.0)));
            let one = rt.now() - t0;

            let t1 = rt.now();
            let net2 = net.clone();
            let h = spawn(&rt, "stream2", move || {
                net2.transfer(&[l], 500_000, Some(Bw::mbps(4.0)));
            });
            net.transfer(&[l], 500_000, Some(Bw::mbps(4.0)));
            h.join_unwrap();
            (one, rt.now() - t1)
        });
        // One stream: 8 Mbit / 4 Mb/s = 2 s. Two streams, half the bytes
        // each, run concurrently at 4 Mb/s each: 1 s.
        assert!((secs(one) - 2.0).abs() < 1e-6, "{one}");
        assert!((secs(two) - 1.0).abs() < 1e-6, "{two}");
    }

    #[test]
    fn shared_nat_bottleneck_nullifies_extra_streams() {
        // 4 nodes × cap-4 streams through a 8 Mb/s NAT: doubling the number
        // of streams cannot raise aggregate throughput.
        let (t_one_each, t_two_each) = simulate(|rt| {
            let net = Network::new(rt.clone());
            let nat = net.add_link("nat", Bw::mbps(8.0), Dur::ZERO);
            let run = |streams_per_node: usize| {
                let t0 = rt.now();
                let mut hs = Vec::new();
                for n in 0..4 {
                    for s in 0..streams_per_node {
                        let net2 = net.clone();
                        let bytes = 1_000_000 / streams_per_node as u64;
                        hs.push(spawn(&rt, &format!("n{n}s{s}"), move || {
                            net2.transfer(&[nat], bytes, Some(Bw::mbps(4.0)));
                        }));
                    }
                }
                for h in hs {
                    h.join_unwrap();
                }
                rt.now() - t0
            };
            (run(1), run(2))
        });
        assert!(
            (secs(t_one_each) - secs(t_two_each)).abs() < 1e-3,
            "NAT-bound: one={t_one_each} two={t_two_each}"
        );
    }

    #[test]
    fn link_counters_track_bytes() {
        simulate(|rt| {
            let net = Network::new(rt.clone());
            let l = net.add_link("lan", Bw::mbps(8.0), Dur::ZERO);
            net.transfer(&[l], 250_000, None);
            let bits = net.link_bits_moved(l);
            assert!((bits - 2_000_000.0).abs() < 1.0, "{bits}");
            assert_eq!(net.completed_flows(), 1);
        });
    }

    #[test]
    fn bus_contention_penalizes_dual_wan_streams_under_mpi_traffic() {
        // One interconnect flow + two WAN streams on the same bus: the WAN
        // streams drop to half rate (sticky), so two streams move data no
        // faster than one did — the paper's §7.1 anomaly.
        let (one_clean, two_contended) = simulate(|rt| {
            let net = Network::new(rt.clone());
            let wan = net.add_link("wan", Bw::mbps(100.0), Dur::ZERO);
            let ic = net.add_link("myrinet", Bw::gbps(2.0), Dur::ZERO);
            let bus = net.add_bus(BusSpec {
                penalty: 0.5,
                min_wan_streams: 2,
            });
            let cap = Some(Bw::mbps(4.0));

            // Background interconnect traffic for the whole experiment.
            let net_ic = net.clone();
            let ic_h = spawn(&rt, "mpi-traffic", move || {
                net_ic.transfer_opts(
                    &[ic],
                    2_000_000_000, // 8 s at 2 Gb/s: outlives both WAN phases
                    &XferOpts {
                        cap: None,
                        buses: vec![(bus, DeviceClass::Interconnect)],
                    },
                );
            });

            // One WAN stream: below the trigger, runs at full cap.
            let t0 = rt.now();
            net.transfer_opts(
                &[wan],
                1_000_000,
                &XferOpts {
                    cap,
                    buses: vec![(bus, DeviceClass::Wan)],
                },
            );
            let one_clean = rt.now() - t0;

            // Two WAN streams: trigger fires, both run at half rate.
            let t1 = rt.now();
            let net2 = net.clone();
            let h = spawn(&rt, "wan2", move || {
                net2.transfer_opts(
                    &[wan],
                    500_000,
                    &XferOpts {
                        cap,
                        buses: vec![(bus, DeviceClass::Wan)],
                    },
                );
            });
            net.transfer_opts(
                &[wan],
                500_000,
                &XferOpts {
                    cap,
                    buses: vec![(bus, DeviceClass::Wan)],
                },
            );
            h.join_unwrap();
            let two_contended = rt.now() - t1;
            ic_h.join_unwrap();
            (one_clean, two_contended)
        });
        // One stream: 8 Mbit at 4 Mb/s = 2 s. Two contended streams: 4 Mbit
        // each at 2 Mb/s = 2 s — no better.
        assert!((secs(one_clean) - 2.0).abs() < 1e-6, "{one_clean}");
        assert!((secs(two_contended) - 2.0).abs() < 1e-6, "{two_contended}");
    }

    #[test]
    fn bus_contention_needs_interconnect_traffic() {
        // Two WAN streams with NO interconnect activity: no penalty.
        let elapsed = simulate(|rt| {
            let net = Network::new(rt.clone());
            let wan = net.add_link("wan", Bw::mbps(100.0), Dur::ZERO);
            let bus = net.add_bus(BusSpec::default());
            let cap = Some(Bw::mbps(4.0));
            let t0 = rt.now();
            let net2 = net.clone();
            let h = spawn(&rt, "wan2", move || {
                net2.transfer_opts(
                    &[wan],
                    500_000,
                    &XferOpts {
                        cap,
                        buses: vec![(bus, DeviceClass::Wan)],
                    },
                );
            });
            net.transfer_opts(
                &[wan],
                500_000,
                &XferOpts {
                    cap,
                    buses: vec![(bus, DeviceClass::Wan)],
                },
            );
            h.join_unwrap();
            rt.now() - t0
        });
        assert!((secs(elapsed) - 1.0).abs() < 1e-6, "{elapsed}");
    }

    #[test]
    fn contention_is_sticky_for_flow_lifetime() {
        // The interconnect flow ends early, but already-contended WAN flows
        // stay penalized until they finish.
        let elapsed = simulate(|rt| {
            let net = Network::new(rt.clone());
            let wan = net.add_link("wan", Bw::mbps(100.0), Dur::ZERO);
            let ic = net.add_link("myrinet", Bw::gbps(1.0), Dur::ZERO);
            let bus = net.add_bus(BusSpec {
                penalty: 0.5,
                min_wan_streams: 2,
            });
            let cap = Some(Bw::mbps(8.0));
            // Short interconnect burst (finishes in 8 ms).
            let net_ic = net.clone();
            let ic_h = spawn(&rt, "mpi-burst", move || {
                net_ic.transfer_opts(
                    &[ic],
                    1_000_000,
                    &XferOpts {
                        cap: None,
                        buses: vec![(bus, DeviceClass::Interconnect)],
                    },
                );
            });
            let t0 = rt.now();
            let net2 = net.clone();
            let h = spawn(&rt, "wan2", move || {
                net2.transfer_opts(
                    &[wan],
                    1_000_000,
                    &XferOpts {
                        cap,
                        buses: vec![(bus, DeviceClass::Wan)],
                    },
                );
            });
            net.transfer_opts(
                &[wan],
                1_000_000,
                &XferOpts {
                    cap,
                    buses: vec![(bus, DeviceClass::Wan)],
                },
            );
            h.join_unwrap();
            ic_h.join_unwrap();
            rt.now() - t0
        });
        // 8 Mbit at the penalized 4 Mb/s = 2 s (vs 1 s unpenalized).
        assert!((secs(elapsed) - 2.0).abs() < 1e-3, "{elapsed}");
    }

    #[test]
    fn late_wan_stream_joining_contended_bus_is_penalized_too() {
        // Two WAN streams trigger contention under MPI traffic; a third
        // stream arriving afterwards must also be contended on arrival —
        // the trigger re-fires for every arrival while the condition holds.
        let elapsed = simulate(|rt| {
            let net = Network::new(rt.clone());
            let wan = net.add_link("wan", Bw::mbps(100.0), Dur::ZERO);
            let ic = net.add_link("myrinet", Bw::gbps(2.0), Dur::ZERO);
            let bus = net.add_bus(BusSpec {
                penalty: 0.5,
                min_wan_streams: 2,
            });
            let cap = Some(Bw::mbps(4.0));
            let net_ic = net.clone();
            let ic_h = spawn(&rt, "mpi-traffic", move || {
                net_ic.transfer_opts(
                    &[ic],
                    2_000_000_000,
                    &XferOpts {
                        cap: None,
                        buses: vec![(bus, DeviceClass::Interconnect)],
                    },
                );
            });
            // Two long-lived WAN streams establish contention.
            let mut hs = Vec::new();
            for i in 0..2 {
                let net2 = net.clone();
                hs.push(spawn(&rt, &format!("wan{i}"), move || {
                    net2.transfer_opts(
                        &[wan],
                        1_000_000,
                        &XferOpts {
                            cap,
                            buses: vec![(bus, DeviceClass::Wan)],
                        },
                    );
                }));
            }
            // Third stream arrives later; measure its own transfer time.
            let rt2 = rt.clone();
            rt2.sleep(Dur::from_millis(100));
            let t0 = rt.now();
            net.transfer_opts(
                &[wan],
                500_000,
                &XferOpts {
                    cap,
                    buses: vec![(bus, DeviceClass::Wan)],
                },
            );
            let elapsed = rt.now() - t0;
            for h in hs {
                h.join_unwrap();
            }
            ic_h.join_unwrap();
            elapsed
        });
        // 4 Mbit at the penalized 2 Mb/s = 2 s (vs 1 s unpenalized).
        assert!((secs(elapsed) - 2.0).abs() < 1e-3, "{elapsed}");
    }

    #[test]
    fn zero_byte_transfer_is_free() {
        simulate(|rt| {
            let net = Network::new(rt.clone());
            let l = net.add_link("lan", Bw::mbps(8.0), Dur::ZERO);
            let t0 = rt.now();
            net.transfer(&[l], 0, None);
            assert_eq!(rt.now(), t0);
        });
    }

    #[test]
    fn many_flows_conserve_bytes() {
        // 20 concurrent flows with varied sizes: total bits over the link
        // equals total bits sent, and total time equals total bits / cap.
        let (elapsed, ok) = simulate(|rt| {
            let net = Network::new(rt.clone());
            let l = net.add_link("lan", Bw::mbps(80.0), Dur::ZERO);
            let t0 = rt.now();
            let mut hs = Vec::new();
            let mut total = 0u64;
            for i in 1..=20u64 {
                let bytes = i * 50_000;
                total += bytes;
                let net2 = net.clone();
                hs.push(spawn(&rt, &format!("f{i}"), move || {
                    net2.transfer(&[l], bytes, None);
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
            let elapsed = rt.now() - t0;
            let bits = net.link_bits_moved(l);
            ((elapsed, (bits - total as f64 * 8.0).abs() < 10.0),)
        })
        .0;
        // total = 50k * (1+..+20) = 10.5 MB = 84 Mbit over 80 Mb/s = 1.05 s
        assert!(ok, "byte conservation violated");
        assert!((secs(elapsed) - 1.05).abs() < 1e-4, "{elapsed}");
    }

    #[test]
    fn batch_mode_runs_the_same_workload() {
        // The reference engine stays fully functional behind the mode flag.
        let elapsed = simulate(|rt| {
            let net = Network::new_with_mode(rt.clone(), AllocMode::Batch);
            assert_eq!(net.alloc_mode(), AllocMode::Batch);
            let l = net.add_link("lan", Bw::mbps(8.0), Dur::ZERO);
            let t0 = rt.now();
            let net2 = net.clone();
            let h = spawn(&rt, "peer", move || {
                net2.transfer(&[l], 1_000_000, None);
            });
            net.transfer(&[l], 1_000_000, None);
            h.join_unwrap();
            rt.now() - t0
        });
        assert!((secs(elapsed) - 2.0).abs() < 1e-6, "{elapsed}");
    }

    #[test]
    fn both_modes_produce_identical_virtual_times() {
        // The same concurrent workload, run once per engine, must finish at
        // the same virtual instants (allocation is behaviourally identical).
        let run = |mode: AllocMode| {
            simulate(move |rt| {
                let net = Network::new_with_mode(rt.clone(), mode);
                let shared = net.add_link("shared", Bw::mbps(80.0), Dur::ZERO);
                let side = net.add_link("side", Bw::mbps(10.0), Dur::ZERO);
                let t0 = rt.now();
                let mut hs = Vec::new();
                for i in 1..=8u64 {
                    let net2 = net.clone();
                    let rt2 = rt.clone();
                    hs.push(spawn(&rt, &format!("s{i}"), move || {
                        rt2.sleep(Dur::from_millis(i * 13));
                        let cap = if i % 2 == 0 {
                            Some(Bw::mbps(6.0))
                        } else {
                            None
                        };
                        net2.transfer(&[shared], 400_000 + i * 37_000, cap);
                    }));
                }
                for i in 1..=4u64 {
                    let net2 = net.clone();
                    let rt2 = rt.clone();
                    hs.push(spawn(&rt, &format!("d{i}"), move || {
                        rt2.sleep(Dur::from_millis(i * 29));
                        net2.transfer(&[side], 200_000 + i * 11_000, None);
                    }));
                }
                let mut ends = Vec::new();
                for h in hs {
                    h.join_unwrap();
                }
                ends.push((rt.now() - t0).as_nanos());
                (ends, net.link_bits_moved(shared), net.link_bits_moved(side))
            })
        };
        let (ends_b, sb, db) = run(AllocMode::Batch);
        let (ends_i, si, di) = run(AllocMode::Incremental);
        for (a, b) in ends_b.iter().zip(&ends_i) {
            let diff = a.abs_diff(*b);
            assert!(diff <= 8, "virtual end times diverged: {a} vs {b}");
        }
        assert!((sb - si).abs() <= 1e-6 * sb.max(1.0), "{sb} vs {si}");
        assert!((db - di).abs() <= 1e-6 * db.max(1.0), "{db} vs {di}");
    }

    #[test]
    fn stats_show_component_scoped_work() {
        // Two disjoint components: events on one must not settle the other.
        let stats = simulate(|rt| {
            let net = Network::new_with_mode(rt.clone(), AllocMode::Incremental);
            let a = net.add_link("a", Bw::mbps(8.0), Dur::ZERO);
            let b = net.add_link("b", Bw::mbps(8.0), Dur::ZERO);
            let net_b = net.clone();
            let h = spawn(&rt, "other-component", move || {
                net_b.transfer(&[b], 2_000_000, None);
            });
            // Several short flows on `a` while `b`'s long flow is active.
            for _ in 0..5 {
                net.transfer(&[a], 100_000, None);
            }
            h.join_unwrap();
            net.stats()
        });
        assert!(stats.recomputes >= 12, "{stats:?}"); // 6 flows × start+stop
        assert!(
            stats.settles_skipped > 0,
            "disjoint component was settled: {stats:?}"
        );
        // Components here are single flows: mean touched size stays tiny.
        assert!(stats.flows_touched <= 2 * stats.recomputes, "{stats:?}");
    }

    #[test]
    fn batch_mode_reports_stats_without_skips() {
        let stats = simulate(|rt| {
            let net = Network::new_with_mode(rt.clone(), AllocMode::Batch);
            let a = net.add_link("a", Bw::mbps(8.0), Dur::ZERO);
            net.transfer(&[a], 100_000, None);
            net.transfer(&[a], 100_000, None);
            net.stats()
        });
        assert_eq!(stats.recomputes, 4);
        assert_eq!(stats.settles_skipped, 0);
        assert!(stats.signals >= 2, "{stats:?}");
    }

    mod differential {
        use super::super::replay::Harness;
        use super::*;
        use proptest::prelude::*;

        /// One randomized trace event.
        #[derive(Clone, Debug)]
        enum Op {
            Start {
                links: Vec<usize>,
                units: f64,
                cap: Option<f64>,
                wan_bus: bool,
                ic_bus: bool,
            },
            Finish(usize),
            Tick(u64),
            SetCap {
                link: usize,
                bps: f64,
            },
        }

        fn apply(
            h: &mut Harness,
            links: &[LinkId],
            buses: &[BusId],
            ops: &[Op],
        ) -> Vec<Vec<Option<f64>>> {
            let mut live: Vec<usize> = Vec::new();
            let mut snapshots = Vec::new();
            for op in ops {
                match op {
                    Op::Start {
                        links: ls,
                        units,
                        cap,
                        wan_bus,
                        ic_bus,
                    } => {
                        let path: Vec<LinkId> = ls.iter().map(|&i| links[i]).collect();
                        let mut tags = Vec::new();
                        if *wan_bus {
                            tags.push((buses[ls[0] % buses.len()], DeviceClass::Wan));
                        }
                        if *ic_bus {
                            tags.push((buses[ls[0] % buses.len()], DeviceClass::Interconnect));
                        }
                        live.push(h.start(&path, *units, *cap, &tags));
                    }
                    Op::Finish(k) => {
                        if !live.is_empty() {
                            let slot = live.remove(k % live.len());
                            h.finish(slot);
                        }
                    }
                    Op::Tick(ns) => h.tick(Dur::from_nanos(*ns)),
                    Op::SetCap { link, bps } => {
                        h.set_capacity(links[link % links.len()], Bw::bps(*bps));
                    }
                }
                snapshots.push(h.rates_by_slot());
            }
            // Drain everything so bits_moved comparisons cover whole flows.
            for slot in live {
                h.finish(slot);
            }
            snapshots.push(h.rates_by_slot());
            snapshots
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// Replaying the same ≥200-event random trace (arrivals with
            /// multi-link paths, caps and bus tags, departures, clock
            /// advances) through both engines yields identical rates after
            /// every event and identical per-link traffic totals.
            #[test]
            fn incremental_matches_batch(
                seeds in proptest::collection::vec(
                    (
                        0u64..4,                    // op selector bias
                        proptest::collection::vec(0usize..8, 1..4), // path seed
                        1_000.0f64..5e7,            // units
                        proptest::option::of(1e4f64..1e7), // cap
                        any::<u8>(),                // bus tagging + finish pick
                        1u64..40_000_000,           // tick ns
                    ),
                    200..260
                ),
            ) {
                let caps_mbps = [80.0, 8.0, 100.0, 1000.0, 40.0, 16.0, 250.0, 4.0];
                let mut ops = Vec::with_capacity(seeds.len());
                for (sel, pseed, units, cap, tag, tick) in &seeds {
                    let op = match sel {
                        0 => {
                            let mut ls: Vec<usize> = pseed.clone();
                            ls.sort_unstable();
                            ls.dedup();
                            Op::Start {
                                links: ls,
                                units: *units,
                                cap: *cap,
                                wan_bus: tag & 1 != 0,
                                ic_bus: tag & 2 != 0,
                            }
                        }
                        1 => Op::Finish(*tag as usize),
                        2 => Op::Tick(*tick),
                        // Capacity mutations, including full link-down
                        // (bps 0.0), must keep the engines bit-identical.
                        _ => Op::SetCap {
                            link: pseed[0],
                            bps: if tag & 4 != 0 { 0.0 } else { *units },
                        },
                    };
                    ops.push(op);
                }
                let build = |mode: AllocMode| {
                    let h = Harness::new(mode);
                    let links: Vec<LinkId> = caps_mbps
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| h.add_link(&format!("l{i}"), Bw::mbps(c)))
                        .collect();
                    let buses: Vec<BusId> = (0..3).map(|_| h.add_bus(BusSpec::default())).collect();
                    (h, links, buses)
                };
                let (mut hb, lb, bb) = build(AllocMode::Batch);
                let (mut hi, li, bi) = build(AllocMode::Incremental);
                let snaps_b = apply(&mut hb, &lb, &bb, &ops);
                let snaps_i = apply(&mut hi, &li, &bi, &ops);
                prop_assert_eq!(snaps_b.len(), snaps_i.len());
                for (step, (sb, si)) in snaps_b.iter().zip(&snaps_i).enumerate() {
                    prop_assert_eq!(sb.len(), si.len(), "slot count at step {}", step);
                    for (slot, (rb, ri)) in sb.iter().zip(si).enumerate() {
                        match (rb, ri) {
                            (None, None) => {}
                            (Some(a), Some(b)) => prop_assert_eq!(
                                a.to_bits(), b.to_bits(),
                                "rate diverged at step {} slot {}: {} vs {}",
                                step, slot, a, b
                            ),
                            _ => prop_assert!(false, "occupancy diverged at step {step} slot {slot}"),
                        }
                    }
                }
                let moved_b = hb.bits_moved();
                let moved_i = hi.bits_moved();
                for (l, (a, b)) in moved_b.iter().zip(&moved_i).enumerate() {
                    prop_assert!(
                        (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                        "link {} bits diverged: {} vs {}", l, a, b
                    );
                }
                prop_assert_eq!(
                    hb.network().completed_flows(),
                    hi.network().completed_flows()
                );
                let st = hi.stats();
                prop_assert_eq!(st.recomputes, hb.stats().recomputes);
            }
        }
    }
}
