//! Max-min fair rate allocation by progressive filling.
//!
//! Given a set of links with finite capacities and a set of flows, each
//! crossing a subset of the links and optionally carrying its own rate cap
//! (e.g. a TCP window limit `cwnd/RTT`), compute the max-min fair rate for
//! every flow: repeatedly find the most constrained resource (a bottleneck
//! link's equal share, or a flow's own cap), freeze the flows it binds, and
//! subtract their rates from the residual capacities.
//!
//! This is the standard fluid model for steady-state TCP bandwidth sharing
//! and is the mechanism behind all of the paper's §7.2 results: a single WAN
//! stream is window-limited far below the uplink capacity, so a second
//! stream from the same node nearly doubles throughput until a shared link
//! (the transoceanic path, the OSC NAT host, or the SRB server NICs)
//! saturates.

/// Rate assigned to a flow with an empty path and no cap. Effectively
/// "infinitely fast" while staying comfortably inside `f64`.
pub(crate) const UNCONSTRAINED_RATE: f64 = 1e30;

/// Heap entry for a link's current fair share. Ordered so that a max-heap
/// pops the *smallest* share first, ties broken toward the smallest link
/// index — the same choice the reference solver's linear scan makes.
struct LinkEntry {
    share: f64,
    link: u32,
}

impl PartialEq for LinkEntry {
    fn eq(&self, other: &Self) -> bool {
        self.share.total_cmp(&other.share).is_eq() && self.link == other.link
    }
}
impl Eq for LinkEntry {}
impl Ord for LinkEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .share
            .total_cmp(&self.share)
            .then_with(|| other.link.cmp(&self.link))
    }
}
impl PartialOrd for LinkEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Heap entry for a flow's own cap; pops smallest cap, then smallest index.
struct CapEntry {
    cap: f64,
    flow: u32,
}

impl PartialEq for CapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cap.total_cmp(&other.cap).is_eq() && self.flow == other.flow
    }
}
impl Eq for CapEntry {}
impl Ord for CapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .cap
            .total_cmp(&self.cap)
            .then_with(|| other.flow.cmp(&self.flow))
    }
}
impl PartialOrd for CapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable scratch for the heap-based progressive-filling solver.
///
/// This is the solver the network runs, O((F + P)·log L) for F flows with P
/// path entries against the test-only reference's O(F²·L); a long-lived
/// `Workspace` allocates nothing in steady state. [`crate::net::Network`]
/// registers only the links and flows of one connected component.
///
/// The freeze decisions replicate the reference solver's exactly — the same
/// bottleneck selection (smallest share, then smallest link index) and the
/// same one-at-a-time cap-before-share freeze order (smallest cap, then
/// smallest flow index) — so for a given component the computed rates are
/// bit-identical to a whole-network solve: the arithmetic applied to each
/// link never depends on how freezes in other components interleave. The
/// link heap keeps one invariant: every link with unfixed flows has an
/// entry no greater than its share. A freeze raises the shares it touches,
/// so it pushes nothing unless rounding lowers one below its newest entry.
///
/// Usage per solve: [`Workspace::begin`], then [`Workspace::add_link`] for
/// every link any registered flow crosses, then [`Workspace::add_flow`] per
/// flow (in a fixed order — rates come back positionally), then
/// [`Workspace::solve`] and [`Workspace::rates`].
#[derive(Default)]
pub(crate) struct Workspace {
    // Link-indexed scratch (sparse: only registered links are valid).
    residual: Vec<f64>,
    bound: Vec<f64>, // the share of the link's newest heap entry
    count: Vec<usize>,
    start: Vec<u32>,
    pos: Vec<u32>,
    comp_links: Vec<u32>,
    // Dense per-flow state.
    flow_cap: Vec<f64>, // +inf = no finite constraint of its own
    path_off: Vec<u32>,
    path_flat: Vec<u32>,
    fixed: Vec<bool>,
    rates: Vec<f64>,
    members: Vec<u32>,
    heap: std::collections::BinaryHeap<LinkEntry>,
    capped: std::collections::BinaryHeap<CapEntry>,
}

impl Workspace {
    /// Start a new solve over a network of `n_links` links total (link ids
    /// passed later must be `< n_links`).
    pub(crate) fn begin(&mut self, n_links: usize) {
        if self.residual.len() < n_links {
            self.residual.resize(n_links, 0.0);
            self.bound.resize(n_links, 0.0);
            self.count.resize(n_links, 0);
            self.start.resize(n_links, 0);
            self.pos.resize(n_links, 0);
        }
        self.comp_links.clear();
        self.flow_cap.clear();
        self.path_off.clear();
        self.path_flat.clear();
        self.path_off.push(0);
    }

    /// Register link `link` with capacity `cap` for this solve.
    pub(crate) fn add_link(&mut self, link: usize, cap: f64) {
        self.residual[link] = cap;
        self.count[link] = 0;
        self.comp_links.push(link as u32);
    }

    /// Register a flow; every link in `path` must have been registered.
    /// Returns the flow's dense index (also its position in [`rates`]).
    ///
    /// [`rates`]: Workspace::rates
    pub(crate) fn add_flow(&mut self, cap: Option<f64>, path: &[usize]) -> usize {
        let idx = self.flow_cap.len();
        self.flow_cap.push(match cap {
            Some(c) => c,
            None if path.is_empty() => UNCONSTRAINED_RATE,
            None => f64::INFINITY,
        });
        for &l in path {
            self.path_flat.push(l as u32);
            self.count[l] += 1;
        }
        self.path_off.push(self.path_flat.len() as u32);
        idx
    }

    /// Computed rate per flow, in [`add_flow`](Workspace::add_flow) order.
    pub(crate) fn rates(&self) -> &[f64] {
        &self.rates
    }

    fn share(&self, l: usize) -> f64 {
        self.residual[l].max(0.0) / self.count[l] as f64
    }

    fn push_share(&mut self, l: usize, share: f64) {
        self.bound[l] = share;
        self.heap.push(LinkEntry {
            share,
            link: l as u32,
        });
    }

    /// Take a flow frozen at `rate` off link `l`. Its share rises, unless
    /// rounding drops it below the link's newest entry: then push a new one.
    fn release(&mut self, l: usize, rate: f64) {
        self.residual[l] -= rate;
        self.count[l] -= 1;
        if self.count[l] > 0 && self.share(l) < self.bound[l] {
            self.push_share(l, self.share(l));
        }
    }

    /// Run progressive filling over the registered links and flows.
    pub(crate) fn solve(&mut self) {
        let nf = self.flow_cap.len();
        self.fixed.clear();
        self.fixed.resize(nf, false);
        self.rates.clear();
        self.rates.resize(nf, 0.0);
        if nf == 0 {
            return;
        }
        // Per-link member lists (CSR), in flow-index order.
        let mut cursor = 0u32;
        for i in 0..self.comp_links.len() {
            let l = self.comp_links[i] as usize;
            self.start[l] = cursor;
            self.pos[l] = cursor;
            cursor += self.count[l] as u32;
        }
        self.members.clear();
        self.members.resize(cursor as usize, 0);
        for f in 0..nf {
            for j in self.path_off[f]..self.path_off[f + 1] {
                let l = self.path_flat[j as usize] as usize;
                self.members[self.pos[l] as usize] = f as u32;
                self.pos[l] += 1;
            }
        }
        self.heap.clear();
        for i in 0..self.comp_links.len() {
            let l = self.comp_links[i] as usize;
            if self.count[l] > 0 {
                self.push_share(l, self.share(l));
            }
        }
        // Heapified in one pass, not one push per window-capped flow.
        let mut capped = std::mem::take(&mut self.capped).into_vec();
        capped.clear();
        capped.extend(self.flow_cap.iter().enumerate().filter_map(|(f, &c)| {
            c.is_finite().then_some(CapEntry {
                cap: c,
                flow: f as u32,
            })
        }));
        self.capped = capped.into();

        let mut remaining = nf;
        while remaining > 0 {
            // Tightest link share. Every live link has an entry no greater
            // than its share, so the first entry that still equals its
            // link's share is the minimum, ties to the smallest link index;
            // a stale one is pushed again at the link's share.
            let mut best_share = f64::INFINITY;
            let mut best_link = u32::MAX;
            while let Some(e) = self.heap.pop() {
                let l = e.link as usize;
                if self.count[l] == 0 {
                    continue;
                }
                let cur = self.share(l);
                if cur.total_cmp(&e.share).is_ne() {
                    self.push_share(l, cur);
                    continue;
                }
                best_share = e.share;
                best_link = e.link;
                break;
            }
            // A cap-bound flow freezes before the link share — one per
            // round, smallest cap first (ties to the smallest flow index),
            // matching the reference solver's value-ordered freeze sequence.
            let mut froze_cap = false;
            while let Some(top) = self.capped.peek() {
                if self.fixed[top.flow as usize] {
                    self.capped.pop();
                    continue;
                }
                if top.cap <= best_share {
                    let e = self.capped.pop().expect("peeked");
                    let f = e.flow as usize;
                    let c = self.flow_cap[f];
                    self.rates[f] = c;
                    self.fixed[f] = true;
                    remaining -= 1;
                    for j in self.path_off[f]..self.path_off[f + 1] {
                        self.release(self.path_flat[j as usize] as usize, c);
                    }
                    froze_cap = true;
                }
                break;
            }
            if froze_cap {
                if best_link != u32::MAX {
                    // Re-offer the popped candidate (still a lower bound).
                    self.heap.push(LinkEntry {
                        share: best_share,
                        link: best_link,
                    });
                }
                continue;
            }
            if best_link == u32::MAX {
                // No finite link constraint left.
                for f in 0..nf {
                    if !self.fixed[f] {
                        let c = self.flow_cap[f];
                        self.rates[f] = if c.is_finite() { c } else { UNCONSTRAINED_RATE };
                        self.fixed[f] = true;
                    }
                }
                break;
            }
            // Freeze the bottleneck link's unfixed members at the fair share.
            let bl = best_link as usize;
            let (ms, me) = (self.start[bl] as usize, self.pos[bl] as usize);
            for k in ms..me {
                let f = self.members[k] as usize;
                if self.fixed[f] {
                    continue;
                }
                self.rates[f] = best_share;
                self.fixed[f] = true;
                remaining -= 1;
                for j in self.path_off[f]..self.path_off[f + 1] {
                    self.release(self.path_flat[j as usize] as usize, best_share);
                }
            }
        }
    }
}

#[cfg(test)]
/// The whole-network progressive-filling solver, O(F²·L) per call: the
/// oracle the tests hold [`Workspace`] and the network's incremental
/// engine to, bit for bit.
pub(crate) mod reference {
    use super::UNCONSTRAINED_RATE;

    /// One flow: the link indices it traverses plus an optional per-flow
    /// cap in capacity units per second.
    #[derive(Clone, Debug)]
    pub(crate) struct FlowSpec<'a> {
        /// Indices into the link capacity array. May be empty for a purely
        /// cap-limited flow (e.g. the CPU model's single implicit resource).
        pub path: &'a [usize],
        /// Per-flow rate ceiling (`None` = unlimited).
        pub cap: Option<f64>,
    }

    /// Compute max-min fair rates.
    ///
    /// `link_caps[l]` is link `l`'s capacity. Returns one rate per flow, in
    /// the same units. Zero-capacity links yield zero rates for their flows.
    pub(crate) fn max_min_rates(link_caps: &[f64], flows: &[FlowSpec<'_>]) -> Vec<f64> {
        let nf = flows.len();
        let nl = link_caps.len();
        let mut rates = vec![0.0f64; nf];
        if nf == 0 {
            return rates;
        }
        let mut fixed = vec![false; nf];
        let mut residual: Vec<f64> = link_caps.to_vec();
        let mut count = vec![0usize; nl];
        for f in flows {
            for &l in f.path {
                count[l] += 1;
            }
        }
        let mut remaining = nf;
        while remaining > 0 {
            // The tightest share among links still carrying unfixed flows.
            let mut best_share = f64::INFINITY;
            let mut best_link = usize::MAX;
            for l in 0..nl {
                if count[l] > 0 {
                    let share = (residual[l]).max(0.0) / count[l] as f64;
                    if share < best_share {
                        best_share = share;
                        best_link = l;
                    }
                }
            }
            // A flow whose own cap binds before the link share is frozen at
            // its cap first — one flow per round, smallest cap first (ties to
            // the smallest flow index). Freezing strictly in value order keeps
            // the arithmetic sequence per link independent of how the rest of
            // the network groups into rounds, so solving a connected component
            // alone yields bit-identical rates to solving the whole network.
            let mut best_cap = f64::INFINITY;
            let mut best_capped = usize::MAX;
            for (i, f) in flows.iter().enumerate() {
                if fixed[i] {
                    continue;
                }
                let effective_cap = match f.cap {
                    Some(c) => c,
                    None if f.path.is_empty() => UNCONSTRAINED_RATE,
                    None => continue,
                };
                if effective_cap < best_cap {
                    best_cap = effective_cap;
                    best_capped = i;
                }
            }
            if best_capped != usize::MAX && best_cap <= best_share {
                rates[best_capped] = best_cap;
                fixed[best_capped] = true;
                remaining -= 1;
                for &l in flows[best_capped].path {
                    residual[l] -= best_cap;
                    count[l] -= 1;
                }
                continue;
            }
            if best_link == usize::MAX {
                // Remaining flows have no finite constraint at all.
                for (i, f) in flows.iter().enumerate() {
                    if !fixed[i] {
                        rates[i] = f.cap.unwrap_or(UNCONSTRAINED_RATE);
                        fixed[i] = true;
                    }
                }
                break;
            }
            // Freeze every unfixed flow on the bottleneck link at its share.
            for (i, f) in flows.iter().enumerate() {
                if fixed[i] || !f.path.contains(&best_link) {
                    continue;
                }
                rates[i] = best_share;
                fixed[i] = true;
                remaining -= 1;
                for &l in f.path {
                    residual[l] -= best_share;
                    count[l] -= 1;
                }
            }
        }
        rates
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{max_min_rates, FlowSpec};
    use super::*;

    fn rates(caps: &[f64], flows: &[(&[usize], Option<f64>)]) -> Vec<f64> {
        let specs: Vec<FlowSpec> = flows
            .iter()
            .map(|&(path, cap)| FlowSpec { path, cap })
            .collect();
        max_min_rates(caps, &specs)
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0), "{a} != {b}");
    }

    #[test]
    fn single_flow_gets_full_link() {
        let r = rates(&[100.0], &[(&[0], None)]);
        assert_close(r[0], 100.0);
    }

    #[test]
    fn equal_split_on_shared_link() {
        let r = rates(&[90.0], &[(&[0], None), (&[0], None), (&[0], None)]);
        for &x in &r {
            assert_close(x, 30.0);
        }
    }

    #[test]
    fn per_flow_cap_binds_before_link_share() {
        let r = rates(&[100.0], &[(&[0], Some(10.0)), (&[0], None)]);
        assert_close(r[0], 10.0);
        assert_close(r[1], 90.0); // the uncapped flow takes the slack
    }

    #[test]
    fn window_capped_streams_double_with_two_connections() {
        // The §7.2 mechanism in miniature: link 100, per-stream cap 11.
        let one = rates(&[100.0], &[(&[0], Some(11.0))]);
        let two = rates(&[100.0], &[(&[0], Some(11.0)), (&[0], Some(11.0))]);
        assert_close(one.iter().sum::<f64>(), 11.0);
        assert_close(two.iter().sum::<f64>(), 22.0);
    }

    #[test]
    fn shared_bottleneck_limits_aggregate() {
        // 10 capped streams through a NAT-like 50-unit link.
        let flows: Vec<(&[usize], Option<f64>)> = (0..10).map(|_| (&[0][..], Some(11.0))).collect();
        let r = rates(&[50.0], &flows);
        assert_close(r.iter().sum::<f64>(), 50.0);
        for &x in &r {
            assert_close(x, 5.0);
        }
    }

    #[test]
    fn multi_link_path_bound_by_tightest() {
        // Flow A crosses both links; flow B only the fat one.
        let r = rates(&[10.0, 100.0], &[(&[0, 1], None), (&[1], None)]);
        assert_close(r[0], 10.0);
        assert_close(r[1], 90.0);
    }

    #[test]
    fn classic_max_min_example() {
        // Three links of cap 10, 20, 30; flow 0 on all, flow 1 on {0},
        // flow 2 on {1}, flow 3 on {2}.
        let r = rates(
            &[10.0, 20.0, 30.0],
            &[(&[0, 1, 2], None), (&[0], None), (&[1], None), (&[2], None)],
        );
        assert_close(r[0], 5.0); // bottleneck link 0 splits 10 two ways
        assert_close(r[1], 5.0);
        assert_close(r[2], 15.0);
        assert_close(r[3], 25.0);
    }

    #[test]
    fn zero_capacity_link_starves_flows() {
        let r = rates(&[0.0, 100.0], &[(&[0, 1], None), (&[1], None)]);
        assert_close(r[0], 0.0);
        assert_close(r[1], 100.0);
    }

    #[test]
    fn empty_path_uncapped_is_unconstrained() {
        let r = rates(&[], &[(&[], None)]);
        assert_eq!(r[0], UNCONSTRAINED_RATE);
    }

    #[test]
    fn empty_path_with_cap_runs_at_cap() {
        let r = rates(&[], &[(&[], Some(3.5))]);
        assert_close(r[0], 3.5);
    }

    #[test]
    fn no_flows_is_empty() {
        assert!(rates(&[10.0], &[]).is_empty());
    }

    #[test]
    fn cpu_model_timeshares_cores() {
        // 2 "cores", 3 tasks each capped at 1 core: fair share 2/3 each.
        let flows: Vec<(&[usize], Option<f64>)> = (0..3).map(|_| (&[0][..], Some(1.0))).collect();
        let r = rates(&[2.0], &flows);
        for &x in &r {
            assert_close(x, 2.0 / 3.0);
        }
        // 2 tasks on 2 cores: each runs at full speed.
        let flows2: Vec<(&[usize], Option<f64>)> = (0..2).map(|_| (&[0][..], Some(1.0))).collect();
        let r2 = rates(&[2.0], &flows2);
        for &x in &r2 {
            assert_close(x, 1.0);
        }
    }

    fn ws_rates(caps: &[f64], flows: &[(&[usize], Option<f64>)]) -> Vec<f64> {
        let mut ws = Workspace::default();
        ws.begin(caps.len());
        for (l, &c) in caps.iter().enumerate() {
            ws.add_link(l, c);
        }
        for &(path, cap) in flows {
            ws.add_flow(cap, path);
        }
        ws.solve();
        ws.rates().to_vec()
    }

    type Case<'a> = (Vec<f64>, Vec<(&'a [usize], Option<f64>)>);

    /// A capacity whose twelfth, less itself, shared eleven ways, rounds
    /// one ulp below that twelfth.
    const TIE: f64 = 449.49106478873813;

    #[test]
    fn workspace_matches_batch_on_fixed_cases() {
        let cases: Vec<Case> = vec![
            (vec![100.0], vec![(&[0], None)]),
            (vec![90.0], vec![(&[0], None), (&[0], None), (&[0], None)]),
            (vec![100.0], vec![(&[0], Some(10.0)), (&[0], None)]),
            (vec![10.0, 100.0], vec![(&[0, 1], None), (&[1], None)]),
            (
                vec![10.0, 20.0, 30.0],
                vec![(&[0, 1, 2], None), (&[0], None), (&[1], None), (&[2], None)],
            ),
            (vec![0.0, 100.0], vec![(&[0, 1], None), (&[1], None)]),
            (vec![], vec![(&[], None), (&[], Some(3.5))]),
            (
                vec![50.0],
                (0..10).map(|_| (&[0usize][..], Some(11.0))).collect(),
            ),
            // Three links tied at one share. Freezing the flow over links 0
            // and 2 lowers link 2's share by one ulp, below link 1's, so
            // link 2 must be the next bottleneck.
            (
                vec![TIE / 12.0, TIE / 12.0, TIE],
                [&[0usize, 2][..], &[1, 2]]
                    .into_iter()
                    .chain(std::iter::repeat_n(&[2usize][..], 10))
                    .map(|p| (p, None))
                    .collect(),
            ),
        ];
        for (caps, flows) in cases {
            let batch = rates(&caps, &flows);
            let fast = ws_rates(&caps, &flows);
            assert_eq!(batch.len(), fast.len());
            for (a, b) in batch.iter().zip(&fast) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b} on {caps:?}");
            }
        }
    }

    #[test]
    fn workspace_is_reusable_without_reallocating() {
        let mut ws = Workspace::default();
        for round in 1..=5usize {
            ws.begin(3);
            for l in 0..3 {
                ws.add_link(l, 30.0 * (l + 1) as f64);
            }
            for f in 0..round {
                ws.add_flow(if f % 2 == 0 { None } else { Some(7.0) }, &[f % 3]);
            }
            ws.solve();
            assert_eq!(ws.rates().len(), round);
            for &r in ws.rates() {
                assert!(r.is_finite() && r >= 0.0);
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The heap solver reproduces the reference solver bit-for-bit
            /// on arbitrary whole-network inputs: same freeze decisions,
            /// same arithmetic order, hence identical `f64` results.
            #[test]
            fn workspace_matches_reference(
                caps in proptest::collection::vec(0.0f64..1000.0, 1..6),
                flow_seeds in proptest::collection::vec(
                    (proptest::collection::vec(0usize..6, 0..4), proptest::option::of(0.01f64..500.0)),
                    1..14
                ),
            ) {
                let nl = caps.len();
                let paths: Vec<Vec<usize>> = flow_seeds
                    .iter()
                    .map(|(p, _)| {
                        let mut v: Vec<usize> = p.iter().map(|x| x % nl).collect();
                        v.sort_unstable();
                        v.dedup();
                        v
                    })
                    .collect();
                let flows: Vec<(&[usize], Option<f64>)> = paths
                    .iter()
                    .zip(flow_seeds.iter())
                    .map(|(p, (_, cap))| (p.as_slice(), *cap))
                    .collect();
                let reference = rates(&caps, &flows);
                let fast = ws_rates(&caps, &flows);
                for (i, (a, b)) in reference.iter().zip(&fast).enumerate() {
                    prop_assert_eq!(a.to_bits(), b.to_bits(),
                        "flow {} diverged: {} vs {}", i, a, b);
                }
            }

            /// The shipped solver never oversubscribes a link, and its
            /// rates are non-negative and respect per-flow caps.
            #[test]
            fn allocation_is_feasible(
                caps in proptest::collection::vec(0.1f64..1000.0, 1..6),
                flow_seeds in proptest::collection::vec(
                    (proptest::collection::vec(0usize..6, 0..4), proptest::option::of(0.01f64..500.0)),
                    1..12
                ),
            ) {
                let nl = caps.len();
                let paths: Vec<Vec<usize>> = flow_seeds
                    .iter()
                    .map(|(p, _)| {
                        let mut v: Vec<usize> = p.iter().map(|x| x % nl).collect();
                        v.sort_unstable();
                        v.dedup();
                        v
                    })
                    .collect();
                let flows: Vec<(&[usize], Option<f64>)> = paths
                    .iter()
                    .zip(flow_seeds.iter())
                    .map(|(p, (_, cap))| (p.as_slice(), *cap))
                    .collect();
                let r = ws_rates(&caps, &flows);
                for (i, &(_, cap)) in flows.iter().enumerate() {
                    prop_assert!(r[i] >= -1e-9);
                    if let Some(c) = cap {
                        prop_assert!(r[i] <= c * (1.0 + 1e-9));
                    }
                }
                for (l, &cap) in caps.iter().enumerate() {
                    let load: f64 = flows
                        .iter()
                        .enumerate()
                        .filter(|(_, (path, _))| path.contains(&l))
                        .map(|(i, _)| r[i])
                        .sum();
                    prop_assert!(load <= cap * (1.0 + 1e-6) + 1e-6,
                        "link {l} oversubscribed: {load} > {cap}");
                }
            }

            /// What lets the network skip a departure's solve: when every
            /// flow but the one leaving froze at its own cap, a fresh solve
            /// without that flow gives each other flow the same rate, bit
            /// for bit. The flow leaving may be uncapped and link-bound.
            /// Each link carries the caps of the flows that stay plus the
            /// largest cap on it, scaled by 1 + its slack, so every cap
            /// binds; at a slack of 0, rounding may bind a link instead,
            /// and such a draw is skipped.
            #[test]
            fn a_departure_from_cap_bound_flows_keeps_their_rates(
                flow_seeds in proptest::collection::vec(
                    (proptest::collection::vec(0usize..6, 1..4), 0.01f64..100.0),
                    2..14
                ),
                slack in proptest::collection::vec(
                    prop_oneof![Just(0.0), 0.0f64..1e-12, 0.0f64..2.0],
                    6..7
                ),
                nl in 1usize..7,
                gone in 0usize..14,
                gone_capped in any::<bool>(),
            ) {
                let n = flow_seeds.len();
                let gone = gone % n;
                let paths: Vec<Vec<usize>> = flow_seeds
                    .iter()
                    .map(|(p, _)| {
                        let mut v: Vec<usize> = p.iter().map(|x| x % nl).collect();
                        v.sort_unstable();
                        v.dedup();
                        v
                    })
                    .collect();
                let links: Vec<f64> = (0..nl)
                    .map(|l| {
                        let on: Vec<usize> = (0..n).filter(|&f| paths[f].contains(&l)).collect();
                        let cap = |&f: &usize| flow_seeds[f].1;
                        let load: f64 = on.iter().filter(|&&f| f != gone).map(cap).sum();
                        load + on.iter().map(cap).fold(0.0, f64::max) * (1.0 + slack[l])
                    })
                    .collect();
                let flows: Vec<(&[usize], Option<f64>)> = (0..n)
                    .map(|f| (&paths[f][..], (f != gone || gone_capped).then_some(flow_seeds[f].1)))
                    .collect();
                let before = rates(&links, &flows);
                if (0..n).any(|f| f != gone && flows[f].1 != Some(before[f])) {
                    return;
                }
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let mut kept = before.clone();
                kept.remove(gone);
                let mut rest = flows.clone();
                rest.remove(gone);
                prop_assert_eq!(bits(&rates(&links, &rest)), bits(&kept));
                prop_assert_eq!(bits(&ws_rates(&links, &rest)), bits(&kept));
            }

            /// Work conservation: every flow is stopped by *something* — its
            /// own cap or a saturated link on its path.
            #[test]
            fn allocation_is_work_conserving(
                caps in proptest::collection::vec(1.0f64..1000.0, 1..5),
                nflows in 1usize..10,
            ) {
                // All flows cross all links, no caps: everyone gets an equal
                // share of the tightest link.
                let nl = caps.len();
                let path: Vec<usize> = (0..nl).collect();
                let flows: Vec<(&[usize], Option<f64>)> = (0..nflows).map(|_| (&path[..], None)).collect();
                let r = ws_rates(&caps, &flows);
                let tightest = caps.iter().cloned().fold(f64::INFINITY, f64::min);
                let want = tightest / nflows as f64;
                for &x in &r {
                    prop_assert!((x - want).abs() < 1e-6 * want.max(1.0));
                }
            }
        }
    }
}
