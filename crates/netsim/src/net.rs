//! The shared-network object: links, flows, and blocking transfers.
//!
//! A [`Network`] is a set of links plus the currently active flows. An actor
//! moves data by calling [`Network::transfer`] (or the latency-inclusive
//! [`Network::send_message_opts`]): the engine inserts a flow, recomputes
//! the max-min fair allocation, and the calling actor sleeps until its flow
//! drains. Each of the two is one `async` wait (`drained`, and over it
//! [`Network::send_message_async`], which a task awaits) that a thread runs
//! with `block_on`. Whenever flows
//! start or finish, every affected flow is settled at the current instant
//! and re-rated — a standard fluid ("piecewise constant rate") model — and
//! its completion projected again. The network keeps one runtime alarm on
//! the event of the earliest projection; a rate change wakes nobody, and
//! the owner the alarm wakes ends every flow drained by then and signals
//! their owners. The first start of an instant solves at once; later ones
//! are solved together when the alarm, set to now, wakes one of them.
//!
//! # Incremental recomputation
//!
//! Rates only change for flows that share a link — directly or transitively
//! — with the flows that started or stopped. The engine therefore keeps a
//! link→flows index and walks just the connected component around the
//! event, settling and re-solving it with a reusable `Workspace`. The
//! differential test holds the rates at every instant bit for bit to a
//! whole-network progressive-filling solve, and [`Network::stats`] counts
//! the work the component walk saves.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use parking_lot::Mutex;

use semplar_runtime::task::{self, block_on};
use semplar_runtime::{Alarm, Dur, Event, Runtime, Time};

use crate::fair::Workspace;

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

/// Options for [`Network::send_message_opts`].
#[derive(Clone, Debug, Default)]
pub struct XferOpts {
    /// Per-flow rate cap (TCP window limit).
    pub cap: Option<Bw>,
    /// I/O buses this flow's DMA crosses, with its device class on each.
    pub buses: Vec<(BusId, DeviceClass)>,
}

/// The allocation engine a [`Network`] runs. There is one; the type stays
/// only because the frozen benchmark names it through
/// [`Network::alloc_mode`] and `net::replay::Harness::new(mode)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocMode {
    /// Settle and re-solve only the connected component the event touches.
    Incremental,
}

/// Counters describing the allocation engine's work ([`Network::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Rate recomputations performed (one per flow arrival, departure or
    /// link capacity change).
    pub recomputes: u64,
    /// Total flows whose rate was re-derived, summed over recomputes;
    /// `flows_touched / recomputes` is the mean component size. A departure
    /// that keeps every rate (see `recompute`) counts its flows too.
    pub flows_touched: u64,
    /// Flow settlements avoided because the flow's component was not
    /// involved in the event.
    pub settles_skipped: u64,
    /// Completion signals delivered to flow owners: one per flow another
    /// owner's poll ended (the owner whose poll ends its own flow needs none).
    pub signals: u64,
    /// Wall-clock nanoseconds spent inside recomputation: the component
    /// walk, settles, solver, rate application and bus pass.
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
    /// Projected completion instant; `None` while stalled.
    due: Option<Time>,
    /// The `dues` entry that is this flow's current one.
    due_seq: u64,
}

struct BusState {
    spec: BusSpec,
    /// Active interconnect-class flows crossing this bus.
    ic_count: usize,
    /// Active WAN-class flows (slot indices) crossing this bus.
    wan: Vec<usize>,
}

#[derive(Default)]
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
    /// Projected completions, earliest first, as `(due, seq, slot)`; an
    /// entry whose seq is no longer its flow's `due_seq` is stale.
    dues: BinaryHeap<Reverse<(Time, u64, usize)>>,
    next_seq: u64,
    /// Flows inserted but not yet solved: the next walk starts from them.
    pending: Vec<usize>,
    /// The instant of the last start: a second one is solved at its end.
    last_start: Option<Time>,
    /// Events of the flows the current poll ended for other owners.
    ended: Vec<Event>,
    /// The projection the alarm was last aimed at.
    aimed: Option<(Time, u64, usize)>,
    stats: NetStats,
}

/// A simulated network shared by all actors of an experiment.
pub struct Network {
    rt: Arc<dyn Runtime>,
    inner: Mutex<NetInner>,
    /// Aimed at the event of the earliest projected completion.
    alarm: Alarm,
}

/// Threshold below which a flow counts as drained (half a bit).
const DONE_BITS: f64 = 0.5;
/// Rates below this are stalled: no completion is projected.
const MIN_RATE: f64 = 1e-9;

#[cfg(test)]
thread_local! {
    /// Recomputes on this thread that kept every rate without a solve.
    static KEPT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Network {
    /// An empty network using `rt` for time and blocking.
    pub fn new(rt: Arc<dyn Runtime>) -> Arc<Network> {
        Arc::new(Network {
            alarm: rt.alarm(),
            rt,
            inner: Mutex::default(),
        })
    }

    /// The runtime this network charges time against.
    pub fn runtime(&self) -> &Arc<dyn Runtime> {
        &self.rt
    }

    /// Which allocation engine this network runs.
    pub fn alloc_mode(&self) -> AllocMode {
        AllocMode::Incremental
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
    /// settled at the old rates before the new capacity takes effect.
    pub fn set_link_capacity(&self, link: LinkId, cap: Bw) {
        let mut g = self.inner.lock();
        let now = self.rt.now();
        Self::set_capacity_locked(&mut g, now, link, cap);
        self.rearm(&mut g);
    }

    /// Set `link`'s capacity at `now` and re-solve its component; the
    /// recompute settles the component at the old rates first.
    fn set_capacity_locked(g: &mut NetInner, now: Time, link: LinkId, cap: Bw) {
        g.links[link.0].cap = cap.as_bps();
        Self::recompute(g, &[link.0], true, now, None);
    }

    /// Current capacity of `link`.
    pub fn link_capacity(&self, link: LinkId) -> Bw {
        Bw::bps(self.inner.lock().links[link.0].cap)
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
        // Contention trigger: only an arrival can newly satisfy the
        // condition (departures shrink membership and the flag is sticky),
        // so checking the arriving flow's buses here is equivalent to
        // scanning every bus at every event. The marks wait in
        // `newly_contended` for the next solve, which walks the arrival.
        let mut contended = false;
        for &(b, _) in &buses {
            let bus = &g.buses[b];
            if bus.ic_count == 0 || bus.wan.len() < bus.spec.min_wan_streams {
                continue;
            }
            for &w in &bus.wan {
                match g.slots[w].as_mut() {
                    None => contended = true, // the arrival's slot
                    Some(f) if !f.contended => {
                        f.contended = true;
                        g.newly_contended.push(w);
                    }
                    Some(_) => {}
                }
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
            contended,
            due: None,
            due_seq: 0,
        });
        g.active += 1;
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
        f
    }

    /// Queue `due` as `slot`'s projected completion; its old entry goes stale.
    fn set_due(g: &mut NetInner, slot: usize, due: Option<Time>) {
        g.next_seq += 1;
        let f = g.slots[slot].as_mut().expect("projected flow vanished");
        (f.due, f.due_seq) = (due, g.next_seq);
        g.dues.extend(due.map(|at| Reverse((at, g.next_seq, slot))));
    }

    /// The earliest current projection. Stale entries are dropped on the
    /// way: all at once when a solve has re-projected a whole component.
    fn earliest(g: &mut NetInner) -> Option<(Time, u64, usize)> {
        let (dues, slots, active) = (&mut g.dues, &g.slots, g.active);
        let current = |&Reverse((_, seq, s)): &Reverse<(Time, u64, usize)>| {
            slots[s].as_ref().is_some_and(|f| f.due_seq == seq)
        };
        if dues.len() > active * 3 / 2 + 64 {
            dues.retain(current);
        }
        while dues.peek().is_some_and(|e| !current(e)) {
            dues.pop();
        }
        dues.peek().map(|e| e.0)
    }

    /// Aim the alarm at the earliest projection: its owner's poll ends
    /// every flow drained by then.
    fn rearm(&self, g: &mut NetInner) {
        let next = Self::earliest(g);
        if std::mem::replace(&mut g.aimed, next) == next {
            return; // aimed there already: spare the engine's locks
        }
        match next {
            Some((at, _, s)) => self.alarm.set(&g.slots[s].as_ref().unwrap().ev, at),
            None => self.alarm.clear(),
        }
    }

    /// Walk the connected component around the pending flows and `seeds`
    /// (links a departure freed, or whose capacity changed if `resized`),
    /// settle it at `now`, and solve it. With `own` (a poll whose projection
    /// has come), first end each flow drained by its own projection; the
    /// events of those but `own` go to `ended`. A departure alone only
    /// raises link shares: if every flow left runs at its own cap, a solve
    /// would return those caps bit for bit, so each keeps its allocation.
    fn recompute(g: &mut NetInner, seeds: &[usize], resized: bool, now: Time, own: Option<usize>) {
        let t0 = std::time::Instant::now();
        let departure = !resized && g.pending.is_empty();
        g.epoch += 1;
        let ep = g.epoch;
        g.comp_flows.clear();
        g.comp_links.clear();
        let NetInner {
            slots,
            link_members,
            link_mark,
            flow_mark,
            bfs_stack,
            comp_flows,
            comp_links,
            pending,
            ..
        } = g;
        for s in pending.drain(..).chain(own) {
            if slots[s].is_some() && flow_mark[s] != ep {
                flow_mark[s] = ep;
                bfs_stack.push(s);
            }
        }
        let mut reach = |l: usize, stack: &mut Vec<usize>| {
            if link_mark[l] != ep {
                link_mark[l] = ep;
                comp_links.push(l);
                for &m in &link_members[l] {
                    if flow_mark[m] != ep {
                        flow_mark[m] = ep;
                        stack.push(m);
                    }
                }
            }
        };
        seeds.iter().for_each(|&l| reach(l, bfs_stack));
        while let Some(s) = bfs_stack.pop() {
            comp_flows.push(s);
            let f = slots[s].as_ref().expect("marked flow vanished");
            f.path.iter().for_each(|&l| reach(l, bfs_stack));
        }
        // Slot order == a whole-network solve's flow order, which keeps the
        // component's arithmetic identical to it.
        comp_flows.sort_unstable();
        for i in 0..g.comp_flows.len() {
            let s = g.comp_flows[i];
            Self::settle_flow(g, s, now);
            let f = g.slots[s].as_ref().expect("walked flow");
            let come = own == Some(s) || f.due.is_some_and(|d| d <= now);
            if own.is_some() && come && f.bits_rem <= DONE_BITS {
                let f = Self::remove_flow_locked(g, s);
                if own != Some(s) {
                    g.ended.push(f.ev);
                }
            }
        }
        let kept = {
            let NetInner {
                slots,
                links,
                ws,
                comp_flows,
                comp_links,
                ..
            } = g;
            comp_flows.retain(|&s| slots[s].is_some());
            let flow = |s: usize| slots[s].as_ref().expect("component flow vanished");
            let at_cap = |&s: &usize| flow(s).cap == Some(flow(s).alloc_rate);
            let kept = departure && comp_flows.iter().all(at_cap);
            if !kept {
                ws.begin(links.len());
                for &l in comp_links.iter() {
                    ws.add_link(l, links[l].cap);
                }
                for &s in comp_flows.iter() {
                    ws.add_flow(flow(s).cap, &flow(s).path);
                }
                ws.solve();
            }
            kept
        };
        #[cfg(test)]
        KEPT.with(|k| k.set(k.get() + u64::from(kept)));
        let mut skipped = (g.active - g.comp_flows.len()) as u64;
        for i in 0..g.comp_flows.len() {
            let s = g.comp_flows[i];
            let f = g.slots[s].as_mut().expect("component flow vanished");
            let alloc = if kept { f.alloc_rate } else { g.ws.rates()[i] };
            f.alloc_rate = alloc;
            // Penalized flows underutilize their allocation — that is the
            // point: bus arbitration wastes cycles, it does not hand them
            // to anyone else.
            let eff = if f.contended {
                alloc * f.penalty
            } else {
                alloc
            };
            Self::apply_rate(g, s, eff, now);
        }
        // WAN flows newly penalized by an arrival but living in another
        // component: their allocation is untouched (the penalty wastes the
        // allocation rather than redistributing it), so only their
        // effective rate needs updating — no second solve.
        let mut extra_touched = 0u64;
        for i in 0..g.newly_contended.len() {
            let w = g.newly_contended[i];
            if g.flow_mark[w] == ep || g.slots[w].is_none() {
                continue; // handled by the component pass, or ended since
            }
            Self::settle_flow(g, w, now);
            skipped -= 1;
            extra_touched += 1;
            let f = g.slots[w].as_ref().expect("checked above");
            Self::apply_rate(g, w, f.alloc_rate * f.penalty, now);
        }
        g.newly_contended.clear();
        g.stats.recomputes += 1;
        g.stats.flows_touched += g.comp_flows.len() as u64 + extra_touched;
        g.stats.settles_skipped += skipped;
        g.stats.alloc_nanos += t0.elapsed().as_nanos() as u64;
    }

    /// Give the flow in `slot`, settled at `now`, the rate `eff`; if that
    /// moves its rate or its projection has passed, project it again: now
    /// once drained, never while stalled, else a nanosecond past the
    /// instant it drains, so that a settle there finds it drained.
    fn apply_rate(g: &mut NetInner, slot: usize, eff: f64, now: Time) {
        let f = g.slots[slot].as_mut().expect("re-rated flow vanished");
        if f.rate == eff && f.due.is_none_or(|d| d > now) {
            return;
        }
        f.rate = eff;
        let due = if f.bits_rem <= DONE_BITS {
            Some(now)
        } else {
            let drained = || now + Dur::from_secs_f64(f.bits_rem / eff) + Dur::from_nanos(1);
            (eff > MIN_RATE).then(drained)
        };
        Self::set_due(g, slot, due);
    }

    /// Start a flow at `now`. The first start of an instant solves its
    /// component at once; a later one only joins `pending` and is projected
    /// to complete now, so the alarm wakes its owner once every actor ready
    /// at this instant has run, and that poll solves the whole burst once.
    fn start_locked(
        g: &mut NetInner,
        now: Time,
        path: &[LinkId],
        cap: Option<f64>,
        units: f64,
        ev: Event,
        buses: &[(BusId, DeviceClass)],
    ) -> usize {
        let path = path.iter().map(|l| l.0).collect();
        let buses = buses.iter().map(|&(b, c)| (b.0, c)).collect();
        let slot = Self::insert_flow_locked(g, path, cap, units, now, ev, buses);
        g.pending.push(slot);
        if g.last_start == Some(now) {
            Self::set_due(g, slot, Some(now));
        } else {
            g.last_start = Some(now);
            Self::recompute(g, &[], false, now, None);
        }
        slot
    }

    /// End the flow in `slot` at `now` (caller has already settled it) and
    /// redistribute its bandwidth.
    fn end_flow_locked(g: &mut NetInner, now: Time, slot: usize) {
        let f = Self::remove_flow_locked(g, slot);
        Self::recompute(g, &f.path, false, now, None);
    }

    /// Move `bytes` through `path`, blocking the calling actor until the
    /// flow drains under max-min fair sharing. `flow_cap` models a per-flow
    /// ceiling such as a TCP window limit. Latency is *not* included — see
    /// [`Network::send_message_opts`].
    pub fn transfer(&self, path: &[LinkId], bytes: u64, flow_cap: Option<Bw>) {
        let cap = flow_cap.map(|b| b.as_bps());
        self.drain(self.begin_units(path, bytes as f64 * 8.0, cap, &[]));
    }

    /// Move `bytes` through `path` with full options (per-flow cap and I/O
    /// bus tags for the contention model).
    #[cfg(test)]
    pub(crate) fn transfer_opts(&self, path: &[LinkId], bytes: u64, opts: &XferOpts) {
        self.drain(self.begin_opts(path, bytes, opts));
    }

    /// Like [`Network::transfer`] but in raw capacity units (used by the CPU
    /// model, where a "unit" is one core-nanosecond of work).
    pub(crate) fn transfer_units(&self, path: &[LinkId], units: f64, flow_cap: Option<f64>) {
        self.drain(self.begin_units(path, units, flow_cap, &[]));
    }

    /// Blocking form of [`Network::drained`].
    fn drain(&self, flow: Option<Flow>) {
        if let Some(flow) = flow {
            block_on(&self.rt, self.drained(flow));
        }
    }

    /// Wait until `flow` has drained: on its event, then `poll_flow`, until
    /// the flow is gone.
    async fn drained(&self, flow: Flow) {
        loop {
            task::wait(&flow.ev).await;
            if !self.poll_flow(&flow) {
                return;
            }
        }
    }

    /// Start moving `bytes` through `path` without blocking: the flow is
    /// inserted and every rate it disturbs recomputed by the end of this
    /// instant; its owner — [`Network::drained`], awaited by a task or
    /// blocked in by a thread — then drives it with `poll_flow`. `None`
    /// when there is nothing to move: an empty transfer is no flow and no
    /// event.
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
        let slot = Self::start_locked(&mut g, now, path, flow_cap, units, ev.clone(), buses);
        self.rearm(&mut g);
        Some(Flow { slot, ev })
    }

    /// Settle `flow` to the present. `false`: it has drained, and has been
    /// removed and its bandwidth redistributed — do not poll it again.
    /// `true`: wait on the flow's event before the next poll; the network's
    /// alarm signals it at the earliest projected completion and another
    /// owner's poll when it ends this flow. A rate change signals nobody.
    fn poll_flow(&self, flow: &Flow) -> bool {
        let mut g = self.inner.lock();
        let mine = |f: &FlowState| Arc::ptr_eq(&f.ev, &flow.ev);
        if !g.slots[flow.slot].as_ref().is_some_and(mine) {
            return false; // another owner's poll ended it
        }
        let now = self.rt.now();
        // Only this flow, unless its time has come.
        Self::settle_flow(&mut g, flow.slot, now);
        let f = g.slots[flow.slot].as_ref().expect("checked above");
        if f.bits_rem <= DONE_BITS || f.due.is_some_and(|d| d <= now) {
            Self::recompute(&mut g, &[], false, now, Some(flow.slot));
            g.stats.signals += g.ended.len() as u64;
            g.ended.drain(..).for_each(|ev| ev.signal());
            self.rearm(&mut g);
            return g.slots[flow.slot].is_some(); // `false`: ended by this poll
        }
        true
    }

    /// Deliver a `bytes`-sized message over `path`: one-way latency plus the
    /// fluid transfer time, with `opts`' cap and bus tags. This is the
    /// building block for protocol messages (SRB requests/responses, MPI
    /// sends).
    pub fn send_message_opts(&self, path: &[LinkId], bytes: u64, opts: &XferOpts) {
        block_on(&self.rt, self.send_message_async(path, bytes, opts));
    }

    /// [`Network::send_message_opts`] as an `async` wait, for a
    /// [`Task`](semplar_runtime::Task): the latency slept (none when it is
    /// zero), then the flow started and drained.
    pub async fn send_message_async(&self, path: &[LinkId], bytes: u64, opts: &XferOpts) {
        let lat = {
            let g = self.inner.lock();
            path.iter().fold(Dur::ZERO, |t, l| t + g.links[l.0].latency)
        };
        if !lat.is_zero() {
            task::sleep(lat).await;
        }
        // Started once the latency is over, and polled only once signalled:
        // a start that joined this instant's burst is solved with the burst.
        if let Some(flow) = self.begin_opts(path, bytes, opts) {
            self.drained(flow).await;
        }
    }
}

/// A transfer in progress on a [`Network`]: made by `begin_opts`, waited
/// on, then driven by `poll_flow` each time its event is signalled.
struct Flow {
    slot: usize,
    /// Signalled by the alarm when the flow's projection comes, or when
    /// another owner's poll ends it.
    ev: Event,
}

/// Thread-free replay harness for the allocation engine.
///
/// Drives flow arrivals/departures against a [`Network`] directly — no
/// actors, no blocking — with an explicit virtual clock. This is the
/// workhorse behind the differential test against the reference solver and
/// the benchmark's per-event allocator probe; it is `doc(hidden)` because it
/// bypasses the blocking transfer API and is not a stable interface.
#[doc(hidden)]
pub mod replay {
    use super::*;
    use semplar_runtime::RealRuntime;

    /// A [`Network`] plus a manual clock and direct start/finish hooks.
    pub struct Harness {
        pub(super) net: Arc<Network>,
        pub(super) now: Time,
    }

    impl Harness {
        /// A fresh harness running the given (the only) engine.
        pub fn new(mode: AllocMode) -> Harness {
            let AllocMode::Incremental = mode;
            let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
            Harness {
                net: Network::new(rt),
                now: Time::ZERO,
            }
        }

        /// Add a link (same as [`Network::add_link`]).
        pub fn add_link(&self, name: &str, cap: Bw) -> LinkId {
            self.net.add_link(name, cap, Dur::ZERO)
        }

        /// Add a bus (same as [`Network::add_bus`]).
        pub fn add_bus(&self, spec: BusSpec) -> BusId {
            self.net.add_bus(spec)
        }

        /// Advance the replay clock, first solving the starts still
        /// pending at the instant it leaves, as the network's alarm would.
        pub fn tick(&mut self, d: Dur) {
            let mut g = self.net.inner.lock();
            if !g.pending.is_empty() {
                Network::recompute(&mut g, &[], false, self.now, None);
            }
            Network::earliest(&mut g); // bounds the heap no alarm reads here
            self.now += d;
        }

        /// Start a flow now; returns its slot handle. As on the network, a
        /// second start at one instant is solved at the next [`tick`]
        /// (or the next finish or capacity change).
        ///
        /// [`tick`]: Harness::tick
        pub fn start(
            &mut self,
            path: &[LinkId],
            units: f64,
            cap: Option<f64>,
            buses: &[(BusId, DeviceClass)],
        ) -> usize {
            let ev = self.net.rt.event();
            let mut g = self.net.inner.lock();
            Network::start_locked(&mut g, self.now, path, cap, units, ev, buses)
        }

        /// Settle and terminate the flow in `slot` now (regardless of how
        /// many bits it still had — a departure is a departure to the
        /// allocator).
        pub fn finish(&mut self, slot: usize) {
            let mut g = self.net.inner.lock();
            Network::settle_flow(&mut g, slot, self.now);
            Network::end_flow_locked(&mut g, self.now, slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_runtime::{simulate, spawn};

    impl Network {
        /// Flows that have completed on this network.
        fn completed_flows(&self) -> u64 {
            self.inner.lock().completed_flows
        }
    }

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
                        tasks.push(ex.spawn(sender(&net2, l, id * 1_000_000, &done2, id)));
                        continue;
                    }
                    threads.push(spawn(&rt, &format!("send{id}"), move || {
                        net2.send_message_opts(&[l], id * 1_000_000, &XferOpts::default());
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
            net.send_message_opts(&[a, b], 1_000_000, &XferOpts::default());
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
    fn stats_show_component_scoped_work() {
        // Two disjoint components: events on one must not settle the other.
        let stats = simulate(|rt| {
            let net = Network::new(rt.clone());
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
    fn staggered_flows_complete_at_the_fluid_model_instants() {
        // One 8 Mb/s (1 MB/s) link. A: 1 MB at 0 s, alone until B (1 MB)
        // joins at 0.5 s; C (0.25 MB) joins at 1 s, when A has 0.25 MB left
        // and B 0.75 MB. A and C drain together at 1.75 s; B alone by 2.25 s.
        let (done, stats, completed) = simulate(|rt| {
            let net = Network::new(rt.clone());
            let l = net.add_link("wan", Bw::mbps(8.0), Dur::ZERO);
            let done = Arc::new(Mutex::new(Vec::new()));
            let hs: Vec<_> = [
                ("a", 0, 1_000_000),
                ("b", 500, 1_000_000),
                ("c", 1_000, 250_000),
            ]
            .into_iter()
            .map(|(name, at_ms, bytes)| {
                let (net, done, rt2) = (net.clone(), done.clone(), rt.clone());
                spawn(&rt, name, move || {
                    rt2.sleep(Dur::from_millis(at_ms));
                    net.transfer(&[l], bytes, None);
                    done.lock().push((name, rt2.now().as_nanos()));
                })
            })
            .collect();
            hs.into_iter().for_each(|h| h.join_unwrap());
            let done = done.lock().clone();
            (done, net.stats(), net.completed_flows())
        });
        let ms = |m: u64| m * 1_000_000;
        // The projection adds 1 ns so that a settle at it finds the flow
        // drained; A's and C's share it.
        assert_eq!(
            done,
            vec![
                ("a", ms(1_750) + 1),
                ("c", ms(1_750) + 1),
                ("b", ms(2_250) + 1)
            ]
        );
        assert!(stats.signals <= completed, "{stats:?}");
        assert_eq!(stats.signals, 1, "A's poll ends C: one signal");
    }

    /// A task that sends one message and records when it was delivered:
    /// `send_message_async` awaited where a thread would block in
    /// `send_message_opts`.
    fn sender(
        net: &Arc<Network>,
        l: LinkId,
        bytes: u64,
        done: &Arc<Mutex<Vec<(u64, Time)>>>,
        id: u64,
    ) -> Box<dyn semplar_runtime::Task> {
        let (net, done) = (net.clone(), done.clone());
        Box::new(Box::pin(async move {
            net.send_message_async(&[l], bytes, &XferOpts::default())
                .await;
            done.lock().push((id, net.rt.now()));
        }))
    }

    #[test]
    fn a_burst_of_equal_flows_is_solved_once_and_finishes_at_one_instant() {
        const FLOWS: u64 = 256;
        let sim = semplar_runtime::SimRuntime::new();
        let (done, stats) = sim.run_root(|rt| {
            let net = Network::new(rt.clone());
            let l = net.add_link("wan", Bw::mbps(100.0), Dur::ZERO);
            let done = Arc::new(Mutex::new(Vec::new()));
            let ex = semplar_runtime::TaskExecutor::new(&rt, "send");
            let hs: Vec<_> = (0..FLOWS)
                .map(|id| ex.spawn(sender(&net, l, 64 * 1024, &done, id)))
                .collect();
            hs.iter().for_each(|h| h.join());
            let done = done.lock().clone();
            (done, net.stats())
        });
        let want = Time::ZERO + Dur::from_secs_f64((FLOWS * 64 * 1024 * 8) as f64 / 100e6);
        assert_eq!(done.len() as u64, FLOWS);
        assert!(done.iter().all(|&(_, t)| t == done[0].1), "one instant");
        assert!(
            done[0].1.since(want) <= Dur::from_nanos(1),
            "{} vs {want}",
            done[0].1
        );
        // The first start solves, the other 255 once together, and the
        // completion once.
        assert!(stats.recomputes <= 3, "{stats:?}");
        assert_eq!(
            stats.signals,
            FLOWS - 1,
            "the poll that ends all signals the rest"
        );
        let timers = sim.stats().timers_armed;
        assert!(timers <= FLOWS + 3, "{timers} timers");
    }

    mod differential {
        use super::super::replay::Harness;
        use super::*;
        use crate::fair::reference::{max_min_rates, FlowSpec};
        use proptest::prelude::*;

        /// The replay hooks only this test needs.
        impl Harness {
            /// Change a link's capacity now (same as
            /// [`Network::set_link_capacity`], against the replay clock).
            pub fn set_capacity(&mut self, link: LinkId, cap: Bw) {
                Network::set_capacity_locked(&mut self.net.inner.lock(), self.now, link, cap);
            }

            /// Effective rate of every active flow, indexed by slot (`None` for
            /// empty slots). Slot assignment is deterministic for a given event
            /// sequence, so a replay can keep its own record of the flows by
            /// the slots [`Harness::start`] returns.
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

            /// Move the clock to the earliest projected completion (or
            /// stay, if a tick passed it) and run the poll the alarm wakes
            /// there: the poll route of a departure, which ends every flow
            /// drained by then. Returns the clock's step; `None`, having
            /// done nothing, when no completion is projected.
            pub fn poll_next(&mut self) -> Option<Dur> {
                let mut g = self.net.inner.lock();
                let (at, _, slot) = Network::earliest(&mut g)?;
                let step = at.since(self.now);
                self.now += step;
                Network::settle_flow(&mut g, slot, self.now);
                Network::recompute(&mut g, &[], false, self.now, Some(slot));
                g.ended.clear();
                Some(step)
            }
        }

        /// Departures on this thread that kept every rate without a solve.
        fn kept() -> u64 {
            KEPT.with(std::cell::Cell::get)
        }

        /// The test's own record of a live flow.
        struct Live {
            path: Vec<usize>,
            cap: Option<f64>,
            /// The one bus its tags name, and which tags it carries there.
            bus: usize,
            wan: bool,
            ic: bool,
            contended: bool,
            bits_rem: f64,
            rate: f64,
        }

        /// The network as a whole-network solve sees it: current link
        /// capacities and the live flows by the slot the harness gave them.
        struct Oracle {
            caps: Vec<f64>,
            spec: BusSpec,
            buses: usize,
            flows: Vec<Option<Live>>,
            bits_moved: Vec<f64>,
        }

        impl Oracle {
            /// The bus-contention rule over every bus: interconnect traffic
            /// plus `min_wan_streams` WAN flows marks every WAN flow on the
            /// bus, for the rest of its life.
            fn mark_contention(&mut self) {
                for b in 0..self.buses {
                    let on_bus = || self.flows.iter().flatten().filter(move |f| f.bus == b);
                    let ic = on_bus().any(|f| f.ic);
                    let wan = on_bus().filter(|f| f.wan).count();
                    if ic && wan >= self.spec.min_wan_streams {
                        for f in self.flows.iter_mut().flatten() {
                            f.contended |= f.bus == b && f.wan;
                        }
                    }
                }
            }

            /// Solve every live flow in slot order and penalize the
            /// contended ones.
            fn resolve(&mut self) {
                let specs: Vec<FlowSpec> = (self.flows.iter().flatten())
                    .map(|f| FlowSpec {
                        path: &f.path,
                        cap: f.cap,
                    })
                    .collect();
                let alloc = max_min_rates(&self.caps, &specs);
                for (f, a) in self.flows.iter_mut().flatten().zip(alloc) {
                    f.rate = if f.contended {
                        a * self.spec.penalty
                    } else {
                        a
                    };
                }
            }

            /// Integrate the rates over `dt`, each flow clamped at its units.
            fn advance(&mut self, dt: Dur) {
                for f in self.flows.iter_mut().flatten() {
                    let moved = (f.rate * dt.as_secs_f64()).min(f.bits_rem.max(0.0));
                    f.bits_rem -= moved;
                    for &l in &f.path {
                        self.bits_moved[l] += moved;
                    }
                }
            }

            /// The engine's rates must be the oracle's, bit for bit, slot by
            /// slot.
            fn check(&self, h: &Harness, step: usize) {
                let got = h.rates_by_slot();
                assert_eq!(got.len(), self.flows.len(), "slot count at step {step}");
                for (slot, (g, want)) in got.iter().zip(&self.flows).enumerate() {
                    match (g, want) {
                        (None, None) => {}
                        (Some(g), Some(want)) => assert_eq!(
                            g.to_bits(),
                            want.rate.to_bits(),
                            "rate diverged at step {step} slot {slot}: {g} vs {}",
                            want.rate
                        ),
                        _ => panic!("occupancy diverged at step {step} slot {slot}"),
                    }
                }
            }
        }

        /// One step of a random trace: op selector, path seed, units, cap,
        /// tag bits (bus tags, which flow departs and how, capacity kind)
        /// and tick.
        type Step = (u64, Vec<usize>, f64, Option<f64>, u8, u64);

        fn trace() -> impl Strategy<Value = Vec<Step>> {
            proptest::collection::vec(
                (
                    0u64..4,                                    // op selector bias
                    proptest::collection::vec(0usize..8, 1..4), // path seed
                    1_000.0f64..5e7,                            // units
                    proptest::option::of(1e4f64..1e7),          // cap
                    any::<u8>(),                                // tag bits
                    1u64..40_000_000,                           // tick ns
                ),
                200..260,
            )
        }

        /// Replay `trace` through the engine and hold it, at the end of
        /// every instant and after every event that solves, to exactly the
        /// rates a whole-network solve of the live flows gives; to one
        /// recompute per first start of an instant, per departure (by
        /// `finish` or by the poll route) and capacity change, and one for
        /// each instant's later starts together; and to the bits the
        /// oracle's rates move over every link. No event but a departure
        /// keeps its rates without a solve. With `window`, every flow's cap
        /// is far below any link's share and capacities only move by a
        /// nudge, so every departure with no start pending must keep them.
        fn replay(trace: &[Step], window: bool) {
            let caps_mbps = [80.0, 8.0, 100.0, 1000.0, 40.0, 16.0, 250.0, 4.0];
            let mut h = Harness::new(AllocMode::Incremental);
            let links: Vec<LinkId> = caps_mbps
                .iter()
                .enumerate()
                .map(|(i, &c)| h.add_link(&format!("l{i}"), Bw::mbps(c)))
                .collect();
            let spec = BusSpec::default();
            let buses: Vec<BusId> = (0..3).map(|_| h.add_bus(spec)).collect();
            let mut o = Oracle {
                caps: caps_mbps.iter().map(|&c| Bw::mbps(c).as_bps()).collect(),
                spec,
                buses: buses.len(),
                flows: Vec::new(),
                bits_moved: vec![0.0; links.len()],
            };
            // Live slots in start order, the solves so far, the instant of
            // the last start, and whether a later start at it awaits the
            // instant's end.
            let mut live: Vec<usize> = Vec::new();
            let mut solves = 0u64;
            let (mut last_start, mut deferred) = (None, false);
            let mut now = 0u64;
            // Whether an event kept its rates: only a departure with no
            // start pending may, and in the window regime it must.
            let check_kept = |kept_before: u64, departure: bool, step: usize| {
                let kept = kept() - kept_before;
                let want = u64::from(departure);
                assert!(kept <= want, "a solve was skipped at step {step}");
                assert!(
                    !window || kept == want,
                    "departure at step {step} was solved"
                );
            };
            for (step, (sel, pseed, units, cap, tag, tick)) in trace.iter().enumerate() {
                let (kept_before, pending) = (kept(), deferred);
                let cap = if window {
                    Some(cap.unwrap_or(1e7) * 1e-3)
                } else {
                    *cap
                };
                let solved = match sel {
                    0 => {
                        let mut ls: Vec<usize> = pseed.clone();
                        ls.sort_unstable();
                        ls.dedup();
                        let (wan, ic) = (tag & 1 != 0, tag & 2 != 0);
                        let bus = ls[0] % buses.len();
                        let mut tags = Vec::new();
                        if wan {
                            tags.push((buses[bus], DeviceClass::Wan));
                        }
                        if ic {
                            tags.push((buses[bus], DeviceClass::Interconnect));
                        }
                        let path: Vec<LinkId> = ls.iter().map(|&i| links[i]).collect();
                        let slot = h.start(&path, *units, cap, &tags);
                        if o.flows.len() <= slot {
                            o.flows.resize_with(slot + 1, || None);
                        }
                        o.flows[slot] = Some(Live {
                            path: ls,
                            cap,
                            bus,
                            wan,
                            ic,
                            contended: false,
                            bits_rem: *units,
                            rate: 0.0,
                        });
                        live.push(slot);
                        let first = last_start != Some(now);
                        last_start = Some(now);
                        deferred |= !first;
                        first
                    }
                    // The poll route: the clock jumps to the earliest
                    // projection, whose poll ends every flow drained by then.
                    1 if tag & 0x80 != 0 => match h.poll_next() {
                        Some(dt) => {
                            o.advance(dt);
                            now += dt.as_nanos();
                            let occupied = h.rates_by_slot();
                            live.retain(|&s| occupied[s].is_some());
                            for (f, got) in o.flows.iter_mut().zip(&occupied) {
                                if got.is_none() {
                                    *f = None;
                                }
                            }
                            true
                        }
                        None => false,
                    },
                    1 if !live.is_empty() => {
                        let slot = live.remove(*tag as usize % live.len());
                        h.finish(slot);
                        o.flows[slot] = None;
                        true
                    }
                    1 => false,
                    2 => {
                        let dt = Dur::from_nanos(*tick);
                        h.tick(dt);
                        let solved = std::mem::take(&mut deferred);
                        o.advance(dt);
                        now += tick;
                        solved
                    }
                    // Capacity changes: full link-down (0 bps), a nudge
                    // of 0–3.75e-9 relative that moves rates by a few
                    // ulps, or a new random capacity; in the window
                    // regime, only the nudge.
                    _ => {
                        let link = pseed[0] % links.len();
                        let bps = if window || tag & 8 != 0 {
                            o.caps[link] * (1.0 + f64::from(tag >> 4) * 2.5e-10)
                        } else if tag & 4 != 0 {
                            0.0
                        } else {
                            *units
                        };
                        h.set_capacity(links[link], Bw::bps(bps));
                        o.caps[link] = bps;
                        true
                    }
                };
                o.mark_contention();
                o.resolve();
                if solved {
                    solves += 1;
                    // A departure or capacity change solves the pending
                    // starts with it.
                    deferred &= *sel == 0;
                }
                check_kept(kept_before, *sel == 1 && solved && !pending, step);
                if !deferred {
                    o.check(&h, step);
                }
                assert_eq!(h.stats().recomputes, solves, "recomputes at step {step}");
            }
            // Drain everything so the traffic totals cover whole flows.
            for (i, slot) in live.into_iter().enumerate() {
                let kept_before = kept();
                h.finish(slot);
                o.flows[slot] = None;
                solves += 1;
                o.mark_contention();
                o.resolve();
                check_kept(kept_before, !std::mem::take(&mut deferred), trace.len() + i);
                o.check(&h, trace.len() + i);
                assert_eq!(h.stats().recomputes, solves);
            }
            for (l, (a, b)) in h.bits_moved().iter().zip(&o.bits_moved).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-6 * b.abs().max(1.0),
                    "link {l} bits diverged: {a} vs {b}"
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// Replaying a ≥200-event random trace (arrivals with multi-link
            /// paths, caps and bus tags, departures both ways, clock
            /// advances, capacity changes down to link-down) matches a
            /// whole-network solve bit for bit (see `replay`).
            #[test]
            fn incremental_matches_batch(steps in trace()) {
                replay(&steps, false);
            }

            /// The same with window-bound flows: every departure with no
            /// start pending keeps the rates without a solve, and they
            /// still match the whole-network solve bit for bit.
            #[test]
            fn window_bound_departures_keep_their_rates(steps in trace()) {
                replay(&steps, true);
            }
        }
    }
}
