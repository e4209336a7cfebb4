//! Client-side read-lease cache for [`crate::SrbFs`]: a mount's
//! full-length reads, kept in an [`Lru`] keyed by `(path, offset)` and
//! served locally — zero wire round-trips, zero disk charges.
//!
//! A lease is the absence of a revocation: the server's
//! [`Change`](semplar_srb::Change) hook reports every acked write, unlink
//! and crash, and the mount drops what each overlaps and bumps a revocation
//! counter. A reader snapshots the counter *before* the wire read and
//! inserts only if it has not moved, so the bytes of a read that raced a
//! write are returned (the server produced them: a legal linearization)
//! but never cached. Only full-length reads are cached, so an entry never
//! extends past EOF and a write's `[offset, offset+len)` is enough to
//! invalidate it — no analogue of the server cache's zero-fill-gap hazard.

use parking_lot::Mutex;
use semplar_srb::{CacheStats, Lru, Payload};

/// An entry's key: `(path, offset)`. Entries within a path never overlap:
/// an insert drops every entry it intersects first.
type Key = (String, u64);

struct State {
    lru: Lru<Key>,
    /// Bumped by every invalidation (see module docs).
    revocation: u64,
}

impl State {
    /// Drop `path`'s entries that overlap `[start, end)`.
    fn drop_overlaps(&mut self, path: &str, start: u64, end: u64) {
        if end <= start {
            return;
        }
        // At most one entry starts before `start` and reaches into the
        // range; the rest start inside it.
        let lo = self
            .lru
            .last_in(..(path.to_string(), start))
            .filter(|((p, off), data)| p == path && off + data.len() > start)
            .map_or(start, |((_, off), _)| *off);
        self.lru
            .invalidate((path.to_string(), lo)..(path.to_string(), end));
    }
}

/// A byte-capacity LRU cache of read payloads, shared by
/// every open file of one [`SrbFs`](crate::SrbFs) mount.
pub struct LeaseCache {
    capacity: u64,
    state: Mutex<State>,
}

impl LeaseCache {
    /// Create a cache holding at most `capacity` payload bytes.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "lease cache capacity must be positive");
        LeaseCache {
            capacity,
            state: Mutex::new(State {
                lru: Lru::new(capacity),
                revocation: 0,
            }),
        }
    }

    /// Snapshot of the counters. `bytes_saved` counts payload bytes served
    /// locally that would otherwise have crossed the wire.
    pub(crate) fn stats(&self) -> CacheStats {
        self.state.lock().lru.stats
    }

    /// Payload bytes currently resident.
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.state.lock().lru.bytes()
    }

    /// Current revocation counter; pass the value to [`Self::insert_if`]
    /// after the wire read completes.
    pub(crate) fn revocation(&self) -> u64 {
        self.state.lock().revocation
    }

    /// Serve `[offset, offset+len)` of `path` if one cached entry fully
    /// covers it. Counts a hit/miss (zero-length reads count nothing and
    /// trivially hit).
    pub(crate) fn lookup(&self, path: &str, offset: u64, len: u64) -> Option<Payload> {
        if len == 0 {
            return Some(Payload::bytes(Vec::new()));
        }
        let lru = &mut self.state.lock().lru;
        let covering = lru
            .last_in(..=(path.to_string(), offset))
            .filter(|((p, off), data)| p == path && off + data.len() >= offset + len)
            .map(|(key, _)| key.clone());
        let Some(key) = covering else {
            lru.stats.misses += 1;
            return None;
        };
        lru.stats.hits += 1;
        lru.stats.bytes_saved += len;
        lru.touch(&key).map(|data| data.slice(offset - key.1, len))
    }

    /// Cache `data` as `[offset, offset+data.len())` of `path`, but only
    /// if no revocation landed since `snapshot` was taken (before the wire
    /// read was issued). Oversized payloads (> capacity/2) are never
    /// cached — one scan must not wipe the whole working set.
    pub(crate) fn insert_if(&self, snapshot: u64, path: &str, offset: u64, data: &Payload) {
        let len = data.len();
        if len == 0 || len > self.capacity / 2 {
            return;
        }
        let mut st = self.state.lock();
        if st.revocation != snapshot {
            return;
        }
        st.drop_overlaps(path, offset, offset + len);
        st.lru.insert((path.to_string(), offset), data);
    }

    /// Revoke every entry of `path` overlapping `[start, end)` and bump
    /// the revocation counter. Called for every [`Change::Wrote`].
    ///
    /// [`Change::Wrote`]: semplar_srb::Change::Wrote
    pub(crate) fn invalidate_range(&self, path: &str, start: u64, end: u64) {
        let mut st = self.state.lock();
        st.revocation += 1;
        st.drop_overlaps(path, start, end);
    }

    /// Revoke every entry of `path` (unlink).
    pub(crate) fn invalidate_path(&self, path: &str) {
        self.invalidate_range(path, 0, u64::MAX);
    }

    /// Revoke everything (server crash, shard failover, reconcile).
    pub(crate) fn invalidate_all(&self) {
        let mut st = self.state.lock();
        st.revocation += 1;
        st.lru.invalidate(..);
    }

    /// The entry that starts at `offset` of `path`, if any.
    #[cfg(test)]
    fn entry(&self, path: &str, offset: u64) -> Option<Payload> {
        let key = (path.to_string(), offset);
        let st = self.state.lock();
        st.lru.last_in(key.clone()..=key).map(|(_, p)| p.clone())
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
    fn entries_share_whole_buffers_and_copy_small_views() {
        let buffer = |p: &Payload| match p {
            Payload::Bytes(buf, _) => buf.clone(),
            Payload::Sized(_) => panic!("a size-only payload has no buffer"),
        };
        let c = LeaseCache::new(64 << 10);
        let whole = pay(4096, 1);
        c.insert_if(c.revocation(), "/a", 0, &whole);
        let held = c.entry("/a", 0).unwrap();
        assert!(std::sync::Arc::ptr_eq(&buffer(&held), &buffer(&whole)));
        // 4 KiB of a 1 MiB buffer: kept as a 4 KiB copy.
        let big = pay(1 << 20, 2);
        c.insert_if(c.revocation(), "/b", 0, &big.slice(8192, 4096));
        let held = c.entry("/b", 0).unwrap();
        assert!(!std::sync::Arc::ptr_eq(&buffer(&held), &buffer(&big)));
        assert_eq!(buffer(&held).len(), 4096);
        assert_eq!(held.data().unwrap(), &[2; 4096][..]);
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
