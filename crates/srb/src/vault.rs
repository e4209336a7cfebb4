//! The storage vault: where data objects physically live.
//!
//! A vault couples an object store with a disk model — a single shared
//! bandwidth resource plus a per-operation seek latency, so concurrent
//! connection handlers contend for the spindle the way SEMPLAR's parallel
//! TCP streams contend for `orion`'s storage backend. The two halves are
//! separable: [`Vault::poll_disk`] charges an operation's time, the pure
//! `store`/`load` forms move its data, and [`Vault::write`] /
//! [`Vault::read`] are both for a caller with a stack to block on.
//!
//! Objects store either real bytes or a sparse size-only extent, mirroring
//! [`crate::types::Payload`] — the timing model only needs sizes,
//! but correctness tests and the compression pipeline round-trip real data.
//!
//! Real bytes are kept as the payload views they were written with: an
//! object is a length plus non-overlapping immutable extents, and a hole
//! reads as zeros. A store trims the extents it overlaps to narrower views
//! and inserts its own piece; a load inside one extent hands back a view
//! of it, and only a load across extents or holes assembles a buffer. So
//! the bytes a client writes are the bytes the vault holds, the block cache
//! caches and a reader receives — none of them copied — and an object never
//! reallocates as it grows. What is kept follows
//! [`Payload::retained`]: a view that spans under half its buffer is
//! copied first, so nothing here pins more than twice its own bytes.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use semplar_netsim::net::{Message, XferOpts};
use semplar_netsim::{Bw, LinkId, Network};
use semplar_runtime::{Dur, Runtime, TaskStep};

use crate::types::{Payload, SrbError};

enum ObjData {
    /// `len` bytes: the extents, keyed by their start, plus zeros wherever
    /// none lies. Every extent is real, non-empty and ends by `len`.
    Real {
        len: u64,
        extents: BTreeMap<u64, Payload>,
    },
    Sparse(u64),
}

impl ObjData {
    fn empty() -> ObjData {
        ObjData::Real {
            len: 0,
            extents: BTreeMap::new(),
        }
    }

    fn len(&self) -> u64 {
        match self {
            ObjData::Real { len, .. } => *len,
            ObjData::Sparse(n) => *n,
        }
    }

    /// `[offset, offset + len)` clamped to the object, POSIX-style.
    fn clamp(&self, offset: u64, len: u64) -> (u64, u64) {
        let size = self.len();
        (offset.min(size), offset.saturating_add(len).min(size))
    }

    /// Overlay `piece` at `offset`, growing the object as needed. Real
    /// bytes cut the extents they overlap down to views of what is left
    /// and go in as one extent. Any size-only piece degrades the object to
    /// a sparse extent: the big bandwidth sweeps never read data back
    /// byte-for-byte.
    fn store(&mut self, offset: u64, piece: &Payload) {
        let end = offset + piece.len();
        match (piece.data(), &mut *self) {
            (Some(_), ObjData::Real { len, extents }) => {
                *len = (*len).max(end);
                if piece.is_empty() {
                    return;
                }
                let reaching_in = extents
                    .range(..offset)
                    .next_back()
                    .filter(|&(&s, p)| s + p.len() > offset)
                    .map(|(&s, _)| s);
                let cut: Vec<u64> = reaching_in
                    .into_iter()
                    .chain(extents.range(offset..end).map(|(&s, _)| s))
                    .collect();
                for s in cut {
                    let old = extents.remove(&s).expect("listed above");
                    let old_end = s + old.len();
                    if s < offset {
                        extents.insert(s, old.slice(0, offset - s).retained());
                    }
                    if old_end > end {
                        extents.insert(end, old.slice(end - s, old_end - end).retained());
                    }
                }
                extents.insert(offset, piece.retained());
            }
            _ => *self = ObjData::Sparse(self.len().max(end)),
        }
    }

    /// `[offset, offset + len)` truncated at EOF, POSIX-style: a view of
    /// the extent that covers it, or else a buffer of its own.
    fn load(&self, offset: u64, len: u64) -> Payload {
        let (start, end) = self.clamp(offset, len);
        match self {
            ObjData::Real { extents, .. } => {
                if let Some((&s, p)) = extents.range(..=start).next_back() {
                    if s + p.len() >= end {
                        return p.slice(start - s, end - start);
                    }
                }
                let mut out = Vec::with_capacity((end - start) as usize);
                copy_out(extents, start, end, &mut out);
                Payload::bytes(out)
            }
            ObjData::Sparse(_) => Payload::sized(end - start),
        }
    }
}

/// Append the bytes of `[start, end)` of a real object's `extents` to
/// `out`, zeros where no extent lies.
fn copy_out(extents: &BTreeMap<u64, Payload>, start: u64, end: u64, out: &mut Vec<u8>) {
    let at = out.len();
    out.resize(at + (end - start) as usize, 0);
    let first = extents
        .range(..start)
        .next_back()
        .map_or(start, |(&s, _)| s);
    for (&s, p) in extents.range(first..end) {
        let data = p.data().expect("a real object's extents carry bytes");
        let (lo, hi) = (s.max(start), (s + p.len()).min(end));
        if lo < hi {
            let into = at + (lo - start) as usize..at + (hi - start) as usize;
            out[into].copy_from_slice(&data[(lo - s) as usize..(hi - s) as usize]);
        }
    }
}

/// Disk performance parameters.
#[derive(Clone, Copy, Debug)]
pub struct DiskSpec {
    /// Sustained transfer bandwidth shared by all concurrent operations.
    pub bandwidth: Bw,
    /// Fixed positioning cost charged per operation.
    pub seek: Dur,
    /// Concurrency degradation (the dslab-storage `shared_disk` idiom):
    /// with `k` operations in flight, the spindle sustains an *aggregate*
    /// of `bandwidth / (1 + degradation · (k − 1))` — extra seeks and
    /// queue thrash eat into the streaming rate as concurrency grows. Each
    /// operation samples `k` at its start and is capped at its `1/k` share
    /// of that degraded aggregate for its whole transfer, which keeps the
    /// model deterministic. `0.0` (the default) disables the cap entirely:
    /// concurrent operations share the full bandwidth max-min fairly.
    pub degradation: f64,
}

impl Default for DiskSpec {
    fn default() -> Self {
        DiskSpec {
            // A 2006-era high-end storage array.
            bandwidth: Bw::mbyte_per_s(400.0),
            seek: Dur::from_micros(500),
            degradation: 0.0,
        }
    }
}

/// An object store with a modelled disk.
pub struct Vault {
    rt: Arc<dyn Runtime>,
    disk_net: Arc<Network>,
    disk: LinkId,
    spec: DiskSpec,
    /// Disk operations currently in flight (seek + transfer), sampled by
    /// each arriving operation to derive its concurrency-degraded cap.
    in_flight: AtomicUsize,
    objects: Mutex<HashMap<u64, ObjData>>,
}

impl Vault {
    /// Create a vault with the given disk characteristics.
    pub fn new(rt: Arc<dyn Runtime>, spec: DiskSpec) -> Arc<Vault> {
        let disk_net = Network::new(rt.clone());
        let disk = disk_net.add_link("disk", spec.bandwidth, spec.seek);
        Arc::new(Vault {
            rt,
            disk_net,
            disk,
            spec,
            in_flight: AtomicUsize::new(0),
            objects: Mutex::new(HashMap::new()),
        })
    }

    /// The disk characteristics this vault was built with.
    pub fn spec(&self) -> DiskSpec {
        self.spec
    }

    /// The per-operation bandwidth cap for an operation that starts with
    /// `k` operations in flight (itself included): its `1/k` share of the
    /// concurrency-degraded aggregate. `None` when no degradation is
    /// configured or the operation runs alone — the shared link's max-min
    /// fairness is then the whole model, exactly as before.
    fn concurrency_cap(&self, k: usize) -> Option<Bw> {
        if self.spec.degradation <= 0.0 || k <= 1 {
            return None;
        }
        let aggregate =
            self.spec.bandwidth.as_bps() / (1.0 + self.spec.degradation * (k as f64 - 1.0));
        Some(Bw::bps(aggregate / k as f64))
    }

    /// Advance one disk operation: `None` once its time has been charged,
    /// otherwise the step to block in before the next poll. The operation
    /// counts as in flight from its first poll to its last, and is a
    /// message over the disk link — whose latency is the seek — capped by
    /// the concurrency sampled at the start.
    pub fn poll_disk(&self, op: &mut DiskOp) -> Option<TaskStep> {
        let in_flight = &self.in_flight;
        let k = *(op.k).get_or_insert_with(|| in_flight.fetch_add(1, Ordering::SeqCst) + 1);
        let opts = XferOpts {
            cap: self.concurrency_cap(k),
            buses: Vec::new(),
        };
        let step = (self.disk_net).poll_message(&mut op.msg, &[self.disk], &opts);
        if step.is_none() {
            in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        step
    }

    /// The blocking driver of [`Vault::poll_disk`].
    fn charge_disk(&self, bytes: u64) {
        let mut op = DiskOp::new(bytes);
        while let Some(step) = self.poll_disk(&mut op) {
            step.block(&self.rt);
        }
    }

    /// Allocate an empty object slot.
    pub fn create(&self, obj_id: u64) {
        self.objects.lock().insert(obj_id, ObjData::empty());
    }

    /// Write `payload` at `offset`, charging disk time. Returns the new
    /// object size.
    pub fn write(&self, obj_id: u64, offset: u64, payload: &Payload) -> u64 {
        self.charge_disk(payload.len());
        self.store(obj_id, offset, payload)
    }

    /// Read `len` bytes at `offset`, charging disk time. Reads past the end
    /// are truncated, POSIX-style.
    pub fn read(&self, obj_id: u64, offset: u64, len: u64) -> Payload {
        let out = self.load(obj_id, offset, len);
        self.charge_disk(out.len());
        out
    }

    /// Read several extents in one vault pass, returning one payload per
    /// extent (each truncated at EOF, POSIX-style) but charging a single
    /// seek plus one disk transfer for the combined bytes. This is the
    /// block-cache miss path: a cache fill wants the missing blocks as
    /// separate payloads without paying a seek per block.
    pub fn read_extents(&self, obj_id: u64, extents: &[(u64, u64)]) -> Vec<Payload> {
        let out = self.load_extents(obj_id, extents);
        self.charge_disk(out.iter().map(|p| p.len()).sum());
        out
    }

    // The store itself, free of disk time: a connection handler charges
    // one `DiskOp` per request and does the data half of it with these.

    /// Overlay `payload` at `offset`. Returns the new object size.
    pub fn store(&self, obj_id: u64, offset: u64, payload: &Payload) -> u64 {
        self.store_list(obj_id, &[(offset, payload.len())], payload)
    }

    /// Overlay a packed list of extents: `payload` holds the extents' data
    /// back-to-back in list order; its length must match the sum of the
    /// extent lengths. Returns the new object size.
    pub fn store_list(&self, obj_id: u64, extents: &[(u64, u64)], payload: &Payload) -> u64 {
        let mut g = self.objects.lock();
        let obj = g.entry(obj_id).or_insert_with(ObjData::empty);
        let mut cursor = 0u64;
        for &(offset, len) in extents {
            obj.store(offset, &payload.slice(cursor, len));
            cursor += len;
        }
        obj.len()
    }

    /// `[offset, offset + len)` of the object, truncated at EOF.
    pub fn load(&self, obj_id: u64, offset: u64, len: u64) -> Payload {
        match self.objects.lock().get(&obj_id) {
            None => Payload::sized(0),
            Some(obj) => obj.load(offset, len),
        }
    }

    /// One payload per extent, each truncated at EOF.
    pub fn load_extents(&self, obj_id: u64, extents: &[(u64, u64)]) -> Vec<Payload> {
        let g = self.objects.lock();
        extents
            .iter()
            .map(|&(offset, len)| match g.get(&obj_id) {
                None => Payload::sized(0),
                Some(obj) => obj.load(offset, len),
            })
            .collect()
    }

    /// The extents packed back-to-back in list order, each truncated at
    /// EOF: what one list-I/O read returns.
    pub fn load_list(&self, obj_id: u64, extents: &[(u64, u64)]) -> Payload {
        let g = self.objects.lock();
        let Some(obj) = g.get(&obj_id) else {
            return Payload::sized(0);
        };
        let ranges = extents.iter().map(|&(offset, len)| obj.clamp(offset, len));
        match obj {
            ObjData::Real { extents: held, .. } => {
                let mut packed = Vec::new();
                for (start, end) in ranges {
                    copy_out(held, start, end, &mut packed);
                }
                Payload::bytes(packed)
            }
            ObjData::Sparse(_) => Payload::sized(ranges.map(|(start, end)| end - start).sum()),
        }
    }

    /// A copy of the whole object's bytes (empty if absent), for its
    /// checksum. Errors on sparse (size-only) objects — there are no bytes
    /// to sum.
    pub fn bytes_of(&self, obj_id: u64) -> Result<Vec<u8>, SrbError> {
        match self.objects.lock().get(&obj_id) {
            None => Ok(Vec::new()),
            Some(ObjData::Real { len, extents }) => {
                let mut out = Vec::with_capacity(*len as usize);
                copy_out(extents, 0, *len, &mut out);
                Ok(out)
            }
            Some(ObjData::Sparse(_)) => Err(SrbError::InvalidArg(
                "cannot checksum a sparse (size-only) object".into(),
            )),
        }
    }

    /// Current size of an object (0 if absent).
    pub fn size(&self, obj_id: u64) -> u64 {
        self.objects.lock().get(&obj_id).map_or(0, |o| o.len())
    }

    /// The extents an object holds, in order (none for a sparse or absent
    /// one).
    #[cfg(test)]
    pub(crate) fn extents(&self, obj_id: u64) -> Vec<(u64, Payload)> {
        match self.objects.lock().get(&obj_id) {
            Some(ObjData::Real { extents, .. }) => {
                extents.iter().map(|(&s, p)| (s, p.clone())).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Drop an object's storage.
    pub fn remove(&self, obj_id: u64) {
        self.objects.lock().remove(&obj_id);
    }
}

/// One disk operation's time — seek, then the transfer — as a step
/// machine: [`Vault::poll_disk`] drives it, from a connection handler's
/// `poll` or from the blocking [`Vault::write`] / [`Vault::read`].
pub struct DiskOp {
    msg: Message,
    /// Operations in flight when this one started, itself included.
    k: Option<usize>,
}

impl DiskOp {
    /// An operation moving `bytes` to or from the disk, not yet started.
    pub fn new(bytes: u64) -> DiskOp {
        let msg = Message::new(bytes);
        DiskOp { msg, k: None }
    }
}

/// The flat-`Vec` object store the extent map replaced, kept as the oracle
/// of the differential tests: `ObjData` verbatim, and the old `Vault`'s
/// data methods over a plain map.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use crate::types::{Payload, SrbError};

    enum ObjData {
        Real(Vec<u8>),
        Sparse(u64),
    }

    impl ObjData {
        fn len(&self) -> u64 {
            match self {
                ObjData::Real(v) => v.len() as u64,
                ObjData::Sparse(n) => *n,
            }
        }

        /// Overlay `piece` at `offset`, growing the object as needed. Any
        /// size-only piece degrades the object to a sparse extent: the big
        /// bandwidth sweeps never read data back byte-for-byte.
        fn store(&mut self, offset: u64, piece: &Payload) {
            let end = offset + piece.len();
            match (piece.data(), &mut *self) {
                (Some(data), ObjData::Real(v)) => {
                    if (v.len() as u64) < end {
                        v.resize(end as usize, 0);
                    }
                    v[offset as usize..end as usize].copy_from_slice(data);
                }
                _ => *self = ObjData::Sparse(self.len().max(end)),
            }
        }

        /// `[offset, offset + len)` truncated at EOF, POSIX-style, as a payload
        /// with a buffer of its own.
        fn load(&self, offset: u64, len: u64) -> Payload {
            match self {
                ObjData::Real(v) => {
                    let start = (offset as usize).min(v.len());
                    let end = ((offset + len) as usize).min(v.len());
                    Payload::bytes(v[start..end].to_vec())
                }
                ObjData::Sparse(n) => Payload::sized(n.saturating_sub(offset).min(len)),
            }
        }
    }

    #[derive(Default)]
    pub struct Objects(HashMap<u64, ObjData>);

    impl Objects {
        pub fn store_list(
            &mut self,
            obj_id: u64,
            extents: &[(u64, u64)],
            payload: &Payload,
        ) -> u64 {
            let obj = self.0.entry(obj_id).or_insert(ObjData::Real(Vec::new()));
            let mut cursor = 0u64;
            for &(offset, len) in extents {
                obj.store(offset, &payload.slice(cursor, len));
                cursor += len;
            }
            obj.len()
        }

        pub fn load(&self, obj_id: u64, offset: u64, len: u64) -> Payload {
            match self.0.get(&obj_id) {
                None => Payload::sized(0),
                Some(obj) => obj.load(offset, len),
            }
        }

        pub fn load_extents(&self, obj_id: u64, extents: &[(u64, u64)]) -> Vec<Payload> {
            extents
                .iter()
                .map(|&(offset, len)| self.load(obj_id, offset, len))
                .collect()
        }

        pub fn load_list(&self, obj_id: u64, extents: &[(u64, u64)]) -> Payload {
            match self.0.get(&obj_id) {
                None => Payload::sized(0),
                Some(ObjData::Real(v)) => {
                    let mut packed = Vec::new();
                    for &(offset, len) in extents {
                        let start = (offset as usize).min(v.len());
                        let end = ((offset + len) as usize).min(v.len());
                        packed.extend_from_slice(&v[start..end]);
                    }
                    Payload::bytes(packed)
                }
                Some(ObjData::Sparse(n)) => {
                    let total: u64 = extents
                        .iter()
                        .map(|&(offset, len)| n.saturating_sub(offset).min(len))
                        .sum();
                    Payload::sized(total)
                }
            }
        }

        pub fn bytes_of(&self, obj_id: u64) -> Result<Vec<u8>, SrbError> {
            match self.0.get(&obj_id) {
                None => Ok(Vec::new()),
                Some(ObjData::Real(v)) => Ok(v.clone()),
                Some(ObjData::Sparse(_)) => Err(SrbError::InvalidArg(
                    "cannot checksum a sparse (size-only) object".into(),
                )),
            }
        }

        pub fn size(&self, obj_id: u64) -> u64 {
            self.0.get(&obj_id).map_or(0, |o| o.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_runtime::{simulate, SimRuntime, Time};

    fn test_vault(rt: Arc<dyn Runtime>) -> Arc<Vault> {
        Vault::new(
            rt,
            DiskSpec {
                bandwidth: Bw::mbyte_per_s(100.0),
                seek: Dur::from_millis(1),
                ..DiskSpec::default()
            },
        )
    }

    #[test]
    fn write_then_read_roundtrips_real_data() {
        simulate(|rt| {
            let v = test_vault(rt);
            v.create(1);
            v.write(1, 0, &Payload::bytes(vec![1, 2, 3, 4]));
            v.write(1, 2, &Payload::bytes(vec![9, 9]));
            let r = v.read(1, 0, 4);
            assert_eq!(r.data().unwrap(), &[1, 2, 9, 9]);
        });
    }

    #[test]
    fn read_past_end_truncates() {
        simulate(|rt| {
            let v = test_vault(rt);
            v.create(1);
            v.write(1, 0, &Payload::bytes(vec![5; 10]));
            assert_eq!(v.read(1, 8, 100).len(), 2);
            assert_eq!(v.read(1, 50, 10).len(), 0);
        });
    }

    #[test]
    fn sparse_writes_track_extent_only() {
        simulate(|rt| {
            let v = test_vault(rt);
            v.create(2);
            v.write(2, 1_000_000, &Payload::sized(500_000));
            assert_eq!(v.size(2), 1_500_000);
            let r = v.read(2, 0, 2_000_000);
            assert_eq!(r.len(), 1_500_000);
            assert!(r.data().is_none());
        });
    }

    #[test]
    fn disk_time_is_charged() {
        let elapsed = simulate(|rt| {
            let v = test_vault(rt.clone());
            v.create(1);
            let t0 = rt.now();
            // 100 MB at 100 MB/s + 1 ms seek = ~1.001 s
            v.write(1, 0, &Payload::sized(100_000_000));
            rt.now() - t0
        });
        assert!((elapsed.as_secs_f64() - 1.001).abs() < 1e-6, "{elapsed}");
    }

    #[test]
    fn concurrent_writers_share_disk_bandwidth() {
        let elapsed = simulate(|rt| {
            let v = test_vault(rt.clone());
            let t0 = rt.now();
            let mut hs = Vec::new();
            for i in 0..2u64 {
                let v2 = v.clone();
                hs.push(semplar_runtime::spawn(&rt, &format!("w{i}"), move || {
                    v2.write(i, 0, &Payload::sized(50_000_000));
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
            rt.now() - t0
        });
        // 2 × 50 MB on a shared 100 MB/s disk ≈ 1 s (+ seeks).
        assert!((elapsed.as_secs_f64() - 1.001).abs() < 1e-3, "{elapsed}");
    }

    #[test]
    fn degradation_halves_aggregate_for_two_writers() {
        let elapsed = simulate(|rt| {
            let v = Vault::new(
                rt.clone(),
                DiskSpec {
                    bandwidth: Bw::mbyte_per_s(100.0),
                    seek: Dur::from_millis(1),
                    degradation: 1.0,
                },
            );
            let t0 = rt.now();
            let mut hs = Vec::new();
            for i in 0..2u64 {
                let v2 = v.clone();
                hs.push(semplar_runtime::spawn(&rt, &format!("w{i}"), move || {
                    v2.write(i, 0, &Payload::sized(50_000_000));
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
            rt.now() - t0
        });
        // degradation 1.0 with k=2 halves the aggregate to 50 MB/s, so each
        // writer gets a 25 MB/s cap: 50 MB each ≈ 2 s (+ seeks). The second
        // writer starts while the first is mid-seek (in_flight already 1),
        // so both sample k=2.
        assert!((elapsed.as_secs_f64() - 2.001).abs() < 1e-3, "{elapsed}");
    }

    #[test]
    fn degradation_zero_is_bit_identical_to_fair_sharing() {
        let elapsed = simulate(|rt| {
            let v = test_vault(rt.clone());
            let t0 = rt.now();
            let mut hs = Vec::new();
            for i in 0..2u64 {
                let v2 = v.clone();
                hs.push(semplar_runtime::spawn(&rt, &format!("w{i}"), move || {
                    v2.write(i, 0, &Payload::sized(50_000_000));
                }));
            }
            for h in hs {
                h.join_unwrap();
            }
            rt.now() - t0
        });
        assert!((elapsed.as_secs_f64() - 1.001).abs() < 1e-3, "{elapsed}");
    }

    #[test]
    fn single_op_never_degraded() {
        let elapsed = simulate(|rt| {
            let v = Vault::new(
                rt.clone(),
                DiskSpec {
                    bandwidth: Bw::mbyte_per_s(100.0),
                    seek: Dur::from_millis(1),
                    degradation: 4.0,
                },
            );
            v.create(1);
            let t0 = rt.now();
            v.write(1, 0, &Payload::sized(100_000_000));
            rt.now() - t0
        });
        // Alone on the disk, degradation never applies: still ~1.001 s.
        assert!((elapsed.as_secs_f64() - 1.001).abs() < 1e-6, "{elapsed}");
    }

    #[test]
    fn read_extents_matches_per_extent_reads_with_one_seek() {
        simulate(|rt| {
            let v = test_vault(rt.clone());
            v.create(1);
            v.write(1, 0, &Payload::bytes((0..100u8).collect()));
            let t0 = rt.now();
            let parts = v.read_extents(1, &[(0, 10), (50, 20), (95, 30)]);
            let took = rt.now() - t0;
            assert_eq!(parts.len(), 3);
            assert_eq!(parts[0].data().unwrap(), &(0..10u8).collect::<Vec<_>>()[..]);
            assert_eq!(
                parts[1].data().unwrap(),
                &(50..70u8).collect::<Vec<_>>()[..]
            );
            // Last extent truncated at EOF.
            assert_eq!(
                parts[2].data().unwrap(),
                &(95..100u8).collect::<Vec<_>>()[..]
            );
            // One seek (1 ms) for the whole list, not one per extent.
            assert!(took < Dur::from_millis(2), "{took}");
        });
    }

    #[test]
    fn the_pure_forms_move_the_data_and_poll_disk_charges_the_time() {
        simulate(|rt| {
            let v = test_vault(rt.clone());
            v.create(1);
            // Packed list store, then every way of reading it back: free.
            let packed = Payload::bytes((0..30u8).collect());
            assert_eq!(v.store_list(1, &[(0, 10), (50, 20)], &packed), 70);
            assert_eq!(
                v.load(1, 5, 10).data().unwrap(),
                &[5, 6, 7, 8, 9, 0, 0, 0, 0, 0]
            );
            let list = v.load_list(1, &[(50, 5), (0, 3), (65, 99)]);
            assert_eq!(
                list.data().unwrap(),
                &[10, 11, 12, 13, 14, 0, 1, 2, 25, 26, 27, 28, 29]
            );
            assert_eq!(
                v.load_extents(1, &[(0, 1), (69, 9)])[1].data().unwrap(),
                &[29]
            );
            assert_eq!(v.bytes_of(1).unwrap().len(), 70);
            v.store(2, 0, &Payload::sized(8));
            assert!(v.bytes_of(2).is_err(), "nothing to sum in a sized object");
            assert_eq!(rt.now(), Time::ZERO);
            // One operation's time: the 1 ms seek, then 1 MB at 100 MB/s.
            let mut op = DiskOp::new(1_000_000);
            while let Some(step) = v.poll_disk(&mut op) {
                step.block(&rt);
            }
            assert!(
                (rt.now().as_secs_f64() - 0.011).abs() < 1e-6,
                "{}",
                rt.now()
            );
        });
    }

    #[test]
    fn remove_frees_object() {
        simulate(|rt| {
            let v = test_vault(rt);
            v.create(1);
            v.write(1, 0, &Payload::sized(10));
            v.remove(1);
            assert_eq!(v.size(1), 0);
            assert_eq!(v.read(1, 0, 10).len(), 0);
        });
    }

    #[test]
    fn the_vault_keeps_whole_buffers_and_copies_small_views() {
        let v = Vault::new(SimRuntime::new().handle(), DiskSpec::default());
        // A whole buffer is held as it is, and a read inside it is a view.
        let whole = Payload::bytes((0..=255u8).cycle().take(64 << 10).collect());
        v.store(1, 0, &whole);
        assert!(Arc::ptr_eq(v.extents(1)[0].1.buffer(), whole.buffer()));
        let read = v.load(1, 100, 4096);
        assert!(Arc::ptr_eq(read.buffer(), whole.buffer()));
        assert_eq!(read.data().unwrap(), &whole.data().unwrap()[100..4196]);
        drop(read);
        // 4 KiB of a 1 MiB buffer is copied into a buffer of its own.
        let big = Payload::bytes(vec![7; 1 << 20]);
        v.store(2, 0, &big.slice(4096, 4096));
        let (_, held) = &v.extents(2)[0];
        assert!(!Arc::ptr_eq(held.buffer(), big.buffer()));
        assert_eq!(
            (held.buffer().len(), held.data().unwrap()),
            (4096, &[7; 4096][..])
        );
        // Overwriting the whole extent lets go of the written buffer.
        assert_eq!(Arc::strong_count(whole.buffer()), 2);
        v.store(1, 0, &Payload::bytes(vec![1; 64 << 10]));
        assert_eq!(Arc::strong_count(whole.buffer()), 1);
    }

    #[test]
    fn a_store_trims_the_extents_it_overlaps() {
        let v = Vault::new(SimRuntime::new().handle(), DiskSpec::default());
        let a = Payload::bytes(vec![1; 100]);
        v.store(1, 0, &a);
        v.store(1, 40, &Payload::bytes(vec![2; 10]));
        v.store(1, 120, &Payload::bytes(vec![3; 10]));
        let layout: Vec<(u64, u64)> = v.extents(1).iter().map(|(s, p)| (*s, p.len())).collect();
        assert_eq!(layout, [(0, 40), (40, 10), (50, 50), (120, 10)]);
        // The cut's half-buffer tail is still a view of it; its 40-byte
        // head was copied.
        let held = v.extents(1);
        assert!(Arc::ptr_eq(held[2].1.buffer(), a.buffer()));
        assert_eq!(held[0].1.buffer().len(), 40);
        // A load across pieces and the hole assembles them, zeros between.
        let d = v.load(1, 95, 30);
        assert_eq!(
            d.data().unwrap(),
            &[&[1; 5][..], &[0; 20], &[3; 5]].concat()[..]
        );
        assert_eq!(
            v.load(1, 118, 99).data().unwrap(),
            &[0, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3]
        );
    }

    mod properties {
        use super::super::reference;
        use super::*;
        use proptest::prelude::*;

        /// One store: `pieces` are `(offset, len)` extents, packed into one
        /// payload. `data` is `Some((fill, pad))` for real bytes — counting
        /// up from `fill`, handed over as a view with `pad` unrelated bytes
        /// on each side — and `None` for a size-only payload.
        #[derive(Clone, Debug)]
        struct Step {
            pieces: Vec<(u64, u64)>,
            list: bool,
            data: Option<(u8, usize)>,
            probes: Vec<(u64, u64)>,
        }

        impl Step {
            fn payload(&self) -> Payload {
                let total: u64 = self.pieces.iter().map(|&(_, l)| l).sum();
                let Some((fill, pad)) = self.data else {
                    return Payload::sized(total);
                };
                let mut buf = vec![0xEE; pad];
                buf.extend((0..total).map(|k| fill.wrapping_add(k as u8)));
                buf.extend(vec![0xEE; pad]);
                Payload::bytes(buf).slice(pad as u64, total)
            }
        }

        fn step() -> impl Strategy<Value = Step> {
            // One piece in seven is empty; one store in 25 is size-only,
            // which turns the object sparse for the rest of the sequence;
            // a third of the real pieces are a whole buffer.
            let piece = (0u64..320, (0u64..105).prop_map(|n| n.saturating_sub(15)));
            let data = (0u32..25, any::<u8>(), 0usize..300)
                .prop_map(|(k, fill, pad)| (k > 0).then_some((fill, pad.saturating_sub(100))));
            let probes = proptest::collection::vec((0u64..460, 0u64..160), 1..5);
            (
                proptest::collection::vec(piece, 1..4),
                any::<bool>(),
                data,
                probes,
            )
                .prop_map(|(mut pieces, list, data, probes)| {
                    if !list {
                        pieces.truncate(1);
                    }
                    Step {
                        pieces,
                        list,
                        data,
                        probes,
                    }
                })
        }

        fn seen(p: &Payload) -> (u64, Option<Vec<u8>>) {
            (p.len(), p.data().map(<[u8]>::to_vec))
        }

        proptest! {
            /// The extent vault answers every read exactly as the flat
            /// `Vec` store does after every step of a random store
            /// sequence: real, sized, overlapping, zero-length and
            /// past-EOF pieces.
            #[test]
            fn extents_read_back_exactly_as_the_flat_store(
                steps in proptest::collection::vec(step(), 1..24),
            ) {
                let v = Vault::new(SimRuntime::new().handle(), DiskSpec::default());
                let mut oracle = reference::Objects::default();
                for s in &steps {
                    let payload = s.payload();
                    let got = if s.list {
                        v.store_list(1, &s.pieces, &payload)
                    } else {
                        v.store(1, s.pieces[0].0, &payload)
                    };
                    prop_assert_eq!(got, oracle.store_list(1, &s.pieces, &payload));
                    prop_assert_eq!(v.size(1), oracle.size(1));
                    for &(offset, len) in &s.probes {
                        prop_assert_eq!(
                            seen(&v.load(1, offset, len)),
                            seen(&oracle.load(1, offset, len))
                        );
                    }
                    prop_assert_eq!(
                        seen(&v.load_list(1, &s.probes)),
                        seen(&oracle.load_list(1, &s.probes))
                    );
                    let ours: Vec<_> = v.load_extents(1, &s.probes).iter().map(seen).collect();
                    let theirs: Vec<_> =
                        oracle.load_extents(1, &s.probes).iter().map(seen).collect();
                    prop_assert_eq!(ours, theirs);
                    prop_assert_eq!(v.bytes_of(1), oracle.bytes_of(1));
                    prop_assert_eq!(seen(&v.load(2, 0, 10)), seen(&oracle.load(2, 0, 10)));
                }
            }
        }
    }
}
