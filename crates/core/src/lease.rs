//! Client-side read-lease cache for [`crate::SrbFs`].
//!
//! When the server grants a read lease (the grant epoch rides the spare
//! space of the fixed 256-byte response frame), the client may keep the
//! returned bytes and serve later overlapping reads locally — zero wire
//! round-trips, zero disk charges. Coherence comes from the server's
//! write-hook broadcast: every acked write (and unlink, and server crash)
//! reaches the mount, which invalidates the overlapped range *and* bumps a
//! global revocation counter.
//!
//! The revocation counter closes the classic fetch/invalidate race: a
//! reader snapshots the counter *before* issuing the wire read and only
//! inserts the payload if the counter is unchanged when the reply lands.
//! A write that raced the read in between bumps the counter, so the
//! possibly-stale payload is returned to the caller (the server produced
//! it; it is a legal linearization) but never cached.
//!
//! Only *full-length* reads are cached (returned length == requested
//! length), so an entry never extends past the file's EOF at insert time
//! and the write hook's `[offset, offset+len)` range is sufficient to
//! invalidate it — there is no client-side analogue of the server cache's
//! zero-fill-gap hazard.

use semplar_srb::Payload;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counters for the lease cache, mirroring [`semplar_srb::CacheStats`] on
/// the client side. `bytes_saved` counts payload bytes served locally that
/// would otherwise have crossed the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Reads fully served from the cache (no wire op at all).
    pub hits: u64,
    /// Reads that went to the wire.
    pub misses: u64,
    /// Payloads cached after a leased wire read.
    pub insertions: u64,
    /// Entries dropped to stay under the byte capacity.
    pub evictions: u64,
    /// Entries dropped by revocations (writes, unlinks, failover, crash).
    pub invalidations: u64,
    /// Bytes served locally instead of over the wire.
    pub bytes_saved: u64,
}

struct Entry {
    data: Payload,
    stamp: u64,
}

#[derive(Default)]
struct State {
    /// path → (offset → entry). Entries within a path never overlap: an
    /// insert drops every entry it intersects first.
    files: HashMap<String, BTreeMap<u64, Entry>>,
    /// LRU order: stamp → (path, offset).
    order: BTreeMap<u64, (String, u64)>,
    bytes: u64,
    tick: u64,
}

/// A byte-capacity LRU cache of lease-protected read payloads, shared by
/// every [`crate::srbfs::SrbFile`] of one mount.
pub struct LeaseCache {
    capacity: u64,
    state: Mutex<State>,
    /// Bumped by every invalidation; readers snapshot it around the wire
    /// call and refuse to insert if it moved (see module docs).
    revocation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    bytes_saved: AtomicU64,
}

impl LeaseCache {
    /// Create a cache holding at most `capacity` payload bytes.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "lease cache capacity must be positive");
        LeaseCache {
            capacity,
            state: Mutex::new(State::default()),
            revocation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            bytes_saved: AtomicU64::new(0),
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> LeaseStats {
        LeaseStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
        }
    }

    /// Payload bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.state.lock().unwrap().bytes
    }

    /// Current revocation counter; pass the value to [`Self::insert_if`]
    /// after the wire read completes.
    pub fn revocation(&self) -> u64 {
        self.revocation.load(Ordering::SeqCst)
    }

    /// Serve `[offset, offset+len)` of `path` if one cached entry fully
    /// covers it. Counts a hit/miss (zero-length reads count nothing and
    /// trivially hit).
    pub fn lookup(&self, path: &str, offset: u64, len: u64) -> Option<Payload> {
        if len == 0 {
            return Some(Payload::bytes(Vec::new()));
        }
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        let found = st.files.get(path).and_then(|file| {
            file.range(..=offset).next_back().and_then(|(&eoff, e)| {
                (eoff + e.data.len() >= offset + len)
                    .then(|| (eoff, e.data.slice(offset - eoff, len)))
            })
        });
        match found {
            Some((eoff, payload)) => {
                // Touch the entry to the LRU front.
                st.tick += 1;
                let stamp = st.tick;
                if let Some(e) = st.files.get_mut(path).and_then(|f| f.get_mut(&eoff)) {
                    let old = e.stamp;
                    e.stamp = stamp;
                    st.order.remove(&old);
                    st.order.insert(stamp, (path.to_string(), eoff));
                }
                drop(guard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_saved.fetch_add(len, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                drop(guard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Cache `data` as `[offset, offset+data.len())` of `path`, but only
    /// if no revocation landed since `snapshot` was taken (before the wire
    /// read was issued). Oversized payloads (> capacity/2) are never
    /// cached — one scan must not wipe the whole working set.
    pub fn insert_if(&self, snapshot: u64, path: &str, offset: u64, data: &Payload) {
        let len = data.len();
        if len == 0 || len > self.capacity / 2 {
            return;
        }
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        // Re-check under the lock: an invalidation serializes either
        // before (snapshot differs → skip) or after (it removes us).
        if self.revocation.load(Ordering::SeqCst) != snapshot {
            return;
        }
        // Drop every resident entry this one overlaps.
        Self::remove_overlaps(st, path, offset, offset + len, &self.invalidations);
        st.tick += 1;
        let stamp = st.tick;
        st.order.insert(stamp, (path.to_string(), offset));
        st.files.entry(path.to_string()).or_default().insert(
            offset,
            Entry {
                // Own the bytes: a view would keep its whole source buffer
                // (a server cache block, a sieved span) alive in here.
                data: data
                    .data()
                    .map_or_else(|| data.clone(), |d| Payload::bytes(d.into())),
                stamp,
            },
        );
        st.bytes += len;
        self.insertions.fetch_add(1, Ordering::Relaxed);
        // Evict coldest-first down to capacity.
        while st.bytes > self.capacity {
            let Some((&stamp, _)) = st.order.iter().next() else {
                break;
            };
            let (path, off) = st.order.remove(&stamp).unwrap();
            if let Some(file) = st.files.get_mut(&path) {
                if let Some(e) = file.remove(&off) {
                    st.bytes -= e.data.len();
                }
                if file.is_empty() {
                    st.files.remove(&path);
                }
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Revoke every entry of `path` overlapping `[start, end)` and bump
    /// the revocation counter. Called from the server's write-hook
    /// broadcast.
    pub fn invalidate_range(&self, path: &str, start: u64, end: u64) {
        self.revocation.fetch_add(1, Ordering::SeqCst);
        if end <= start {
            return;
        }
        let mut guard = self.state.lock().unwrap();
        Self::remove_overlaps(&mut guard, path, start, end, &self.invalidations);
    }

    /// Revoke every entry of `path` (unlink / lease break).
    pub fn invalidate_path(&self, path: &str) {
        self.revocation.fetch_add(1, Ordering::SeqCst);
        let mut st = self.state.lock().unwrap();
        if let Some(file) = st.files.remove(path) {
            for (_, e) in file {
                st.bytes -= e.data.len();
                st.order.remove(&e.stamp);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Revoke everything (server crash, shard failover, reconcile).
    pub fn invalidate_all(&self) {
        self.revocation.fetch_add(1, Ordering::SeqCst);
        let mut st = self.state.lock().unwrap();
        let dropped = st.order.len() as u64;
        *st = State {
            tick: st.tick,
            ..State::default()
        };
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }

    fn remove_overlaps(
        st: &mut State,
        path: &str,
        start: u64,
        end: u64,
        invalidations: &AtomicU64,
    ) {
        let Some(file) = st.files.get_mut(path) else {
            return;
        };
        // Entries never overlap each other, so at most one starts before
        // `start` and reaches into the range; the rest start inside it.
        let mut doomed: Vec<u64> = Vec::new();
        if let Some((&eoff, e)) = file.range(..start).next_back() {
            if eoff + e.data.len() > start {
                doomed.push(eoff);
            }
        }
        doomed.extend(file.range(start..end).map(|(&o, _)| o));
        let mut freed = 0u64;
        for off in doomed {
            if let Some(e) = file.remove(&off) {
                freed += e.data.len();
                st.order.remove(&e.stamp);
                invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
        if file.is_empty() {
            st.files.remove(path);
        }
        st.bytes -= freed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pay(n: u64, fill: u8) -> Payload {
        Payload::bytes(vec![fill; n as usize])
    }

    #[test]
    fn hit_serves_subrange_of_cached_entry() {
        let c = LeaseCache::new(1 << 20);
        c.insert_if(c.revocation(), "/a", 100, &pay(50, 7));
        let got = c.lookup("/a", 110, 20).unwrap();
        assert_eq!(got.data().unwrap(), &vec![7u8; 20][..]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.bytes_saved), (1, 0, 20));
        // Outside the entry: miss.
        assert!(c.lookup("/a", 99, 2).is_none());
        assert!(c.lookup("/a", 140, 20).is_none());
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn stale_snapshot_blocks_insert() {
        let c = LeaseCache::new(1 << 20);
        let snap = c.revocation();
        c.invalidate_range("/a", 0, 10); // racing write
        c.insert_if(snap, "/a", 0, &pay(10, 1));
        assert!(c.lookup("/a", 0, 10).is_none());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn overlapping_write_revokes_only_touched_entries() {
        let c = LeaseCache::new(1 << 20);
        c.insert_if(c.revocation(), "/a", 0, &pay(100, 1));
        c.insert_if(c.revocation(), "/a", 200, &pay(100, 2));
        c.insert_if(c.revocation(), "/a", 400, &pay(100, 3));
        c.invalidate_range("/a", 250, 260); // hits only the middle entry
        assert!(c.lookup("/a", 0, 100).is_some());
        assert!(c.lookup("/a", 200, 100).is_none());
        assert!(c.lookup("/a", 400, 100).is_some());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn lru_evicts_coldest_entry_under_pressure() {
        let c = LeaseCache::new(300);
        c.insert_if(c.revocation(), "/a", 0, &pay(100, 1));
        c.insert_if(c.revocation(), "/a", 100, &pay(100, 2));
        c.insert_if(c.revocation(), "/a", 200, &pay(100, 3));
        // Touch the first entry so the second is coldest.
        assert!(c.lookup("/a", 0, 100).is_some());
        c.insert_if(c.revocation(), "/b", 0, &pay(100, 4));
        assert!(c.lookup("/a", 100, 100).is_none(), "coldest should go");
        assert!(c.lookup("/a", 0, 100).is_some());
        assert!(c.lookup("/b", 0, 100).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.resident_bytes() <= 300);
    }

    #[test]
    fn oversized_payloads_are_never_cached() {
        let c = LeaseCache::new(100);
        c.insert_if(c.revocation(), "/a", 0, &pay(60, 1)); // > capacity/2
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn invalidate_path_and_all() {
        let c = LeaseCache::new(1 << 20);
        c.insert_if(c.revocation(), "/a", 0, &pay(10, 1));
        c.insert_if(c.revocation(), "/b", 0, &pay(10, 2));
        c.invalidate_path("/a");
        assert!(c.lookup("/a", 0, 10).is_none());
        assert!(c.lookup("/b", 0, 10).is_some());
        c.invalidate_all();
        assert!(c.lookup("/b", 0, 10).is_none());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn insert_replaces_overlapped_entries() {
        let c = LeaseCache::new(1 << 20);
        c.insert_if(c.revocation(), "/a", 0, &pay(100, 1));
        c.insert_if(c.revocation(), "/a", 50, &pay(100, 2));
        // The old [0,100) entry is gone; only [50,150) remains.
        assert!(c.lookup("/a", 0, 10).is_none());
        let got = c.lookup("/a", 60, 10).unwrap();
        assert_eq!(got.data().unwrap(), &vec![2u8; 10][..]);
        assert_eq!(c.resident_bytes(), 100);
    }
}
