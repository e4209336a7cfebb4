//! Server-side block cache in front of the vault.
//!
//! A fixed-capacity, write-through cache of aligned blocks. Hot-set reads
//! that hit entirely in cache skip the disk charge (no seek, no disk
//! transfer); misses fetch only the missing blocks in a
//! single vault pass via `Vault::read_extents`. Writes go
//! straight to the vault (write-through) and invalidate the overlapping
//! blocks, so replication, reconciliation, and checksums never see cache
//! state — the cache is a pure timing optimisation, invisible to contents.
//!
//! Coherence with concurrent fetches uses per-object version counters: a
//! miss records the object's version before touching the disk and only
//! inserts the fetched blocks if no invalidation bumped the version in
//! between. Without this, a read racing a write could insert pre-write
//! bytes *after* the write's invalidation swept the range.
//!
//! The blocks live in an [`Lru`], the store the client's read leases use
//! too. Everything is deterministic under the virtual-time runtime: eviction
//! order depends only on the sequence of cache operations (LRU by access
//! tick), never on hash iteration order.

use std::collections::{BTreeMap, HashMap};
use std::ops::{Add, RangeBounds};

use parking_lot::Mutex;

use crate::types::Payload;
use crate::vault::Vault;

/// Block cache configuration.
#[derive(Clone, Copy, Debug)]
pub struct CacheSpec {
    /// Cache block size in bytes; reads are served from aligned blocks of
    /// this size.
    pub block: u64,
    /// Total capacity in bytes of cached payload; the least-recently-used
    /// block is evicted to make room.
    pub capacity: u64,
}

impl Default for CacheSpec {
    fn default() -> Self {
        CacheSpec {
            block: 64 * 1024,
            capacity: 64 * 1024 * 1024,
        }
    }
}

/// The counters of an [`Lru`]: the server's block cache
/// (`SrbServer::cache_stats`) and a mount's read leases
/// (`SrbFs::lease_stats`) report the same ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served entirely from the cache (no disk, or no wire).
    pub hits: u64,
    /// Reads that had to fetch at least part of their bytes.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries inserted after a miss fetch.
    pub insertions: u64,
    /// Entries dropped because their bytes changed or went away (writes,
    /// unlinks, crashes, failovers).
    pub invalidations: u64,
    /// Payload bytes served from cached entries instead of being fetched.
    pub bytes_saved: u64,
}

impl Add for CacheStats {
    type Output = CacheStats;

    fn add(self, o: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            evictions: self.evictions + o.evictions,
            insertions: self.insertions + o.insertions,
            invalidations: self.invalidations + o.invalidations,
            bytes_saved: self.bytes_saved + o.bytes_saved,
        }
    }
}

/// A deterministic, byte-bounded, access-ordered payload store. Each entry
/// has an access stamp from one tick; inserting past `capacity` evicts the
/// coldest stamps first. The owner counts `hits`, `misses` and
/// `bytes_saved` in [`Lru::stats`]; the store counts the rest.
pub struct Lru<K> {
    capacity: u64,
    /// Key → (payload, access stamp).
    entries: BTreeMap<K, (Payload, u64)>,
    /// Access stamp → key, coldest first.
    order: BTreeMap<u64, K>,
    /// Payload bytes held.
    bytes: u64,
    tick: u64,
    /// Cumulative counters; dropping entries keeps them.
    pub stats: CacheStats,
}

impl<K: Ord + Clone> Lru<K> {
    /// An empty store that holds at most `capacity` payload bytes.
    pub fn new(capacity: u64) -> Lru<K> {
        Lru {
            capacity,
            entries: BTreeMap::new(),
            order: BTreeMap::new(),
            bytes: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Payload bytes held.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The entry under `key`, moved to the warm end.
    pub fn touch(&mut self, key: &K) -> Option<Payload> {
        let (data, stamp) = self.entries.get_mut(key)?;
        self.tick += 1;
        self.order.remove(stamp);
        *stamp = self.tick;
        self.order.insert(self.tick, key.clone());
        Some(data.clone())
    }

    /// The entry with the greatest key in `range`, left where it is.
    pub fn last_in(&self, range: impl RangeBounds<K>) -> Option<(&K, &Payload)> {
        let (k, (data, _)) = self.entries.range(range).next_back()?;
        Some((k, data))
    }

    /// Hold `data` under `key` at the warm end, replacing what `key` held,
    /// after evicting the coldest entries until it fits. The entry is
    /// [`Payload::retained`]: a small view of a big buffer is copied rather
    /// than pin the whole buffer.
    pub fn insert(&mut self, key: K, data: &Payload) {
        self.remove(&key);
        let len = data.len();
        while self.bytes + len > self.capacity {
            let Some(coldest) = self.order.values().next().cloned() else {
                break;
            };
            self.remove(&coldest);
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.order.insert(self.tick, key.clone());
        self.entries.insert(key, (data.retained(), self.tick));
        self.bytes += len;
        self.stats.insertions += 1;
    }

    /// Drop every entry whose key is in `range` (`..` drops them all).
    pub fn invalidate(&mut self, range: impl RangeBounds<K>) {
        let doomed: Vec<K> = self.entries.range(range).map(|(k, _)| k.clone()).collect();
        for key in doomed {
            self.remove(&key);
            self.stats.invalidations += 1;
        }
    }

    fn remove(&mut self, key: &K) {
        if let Some((data, stamp)) = self.entries.remove(key) {
            self.order.remove(&stamp);
            self.bytes -= data.len();
        }
    }
}

/// Block key: `(obj_id, block index)`. A cached block is the payload a vault
/// read of `[idx·block, idx·block + block)` returned at fetch time (shorter
/// than `block` only at EOF).
type Key = (u64, u64);

struct State {
    lru: Lru<Key>,
    /// Per-object invalidation counters (bumped by any invalidate touching
    /// the object); miss fetches only insert if unchanged since fetch start.
    versions: HashMap<u64, u64>,
}

impl State {
    fn version(&self, obj_id: u64) -> u64 {
        *self.versions.get(&obj_id).unwrap_or(&0)
    }

    /// Drop blocks `first..=last` of the object and bump its version, so
    /// in-flight miss fetches won't insert stale data.
    fn invalidate(&mut self, obj_id: u64, first: u64, last: u64) {
        *self.versions.entry(obj_id).or_insert(0) += 1;
        self.lru.invalidate((obj_id, first)..=(obj_id, last));
    }
}

/// A read that missed, between its lookup ([`BlockCache::begin_read`]) and
/// its fill ([`BlockCache::finish_read`]).
pub(crate) struct ReadMiss {
    /// The missing blocks, as vault extents to fetch in one pass.
    pub extents: Vec<(u64, u64)>,
    obj_id: u64,
    offset: u64,
    len: u64,
    /// The object's invalidation counter at lookup time.
    version: u64,
    /// One entry per block of the read, `None` where missing.
    blocks: Vec<Option<Payload>>,
}

/// A deterministic fixed-capacity block cache. See the module docs.
pub struct BlockCache {
    spec: CacheSpec,
    state: Mutex<State>,
}

impl BlockCache {
    /// Create an empty cache with the given geometry.
    pub fn new(spec: CacheSpec) -> BlockCache {
        assert!(spec.block > 0, "cache block size must be positive");
        assert!(
            spec.capacity >= spec.block,
            "cache capacity must hold at least one block"
        );
        BlockCache {
            spec,
            state: Mutex::new(State {
                lru: Lru::new(spec.capacity),
                versions: HashMap::new(),
            }),
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().lru.stats
    }

    /// Serve `read(obj_id, offset, len)` through the cache: blocks already
    /// resident cost nothing; missing blocks are fetched from the vault in
    /// one pass (one seek) and inserted. Returns exactly what
    /// `vault.read(obj_id, offset, len)` would have returned.
    pub fn serve_read(&self, vault: &Vault, obj_id: u64, offset: u64, len: u64) -> Payload {
        self.begin_read(obj_id, offset, len).unwrap_or_else(|miss| {
            let fetched = vault.read_extents(obj_id, &miss.extents);
            self.finish_read(miss, fetched)
        })
    }

    /// The lookup half of [`BlockCache::serve_read`]: the data on a hit,
    /// otherwise the extents to fetch from the vault — in one pass — and
    /// hand to [`BlockCache::finish_read`].
    pub(crate) fn begin_read(
        &self,
        obj_id: u64,
        offset: u64,
        len: u64,
    ) -> Result<Payload, ReadMiss> {
        if len == 0 {
            // Zero-length reads carry no bytes; skip the disk like a hit
            // but don't count them in the stats.
            return Ok(Payload::bytes(Vec::new()));
        }
        let block = self.spec.block;
        let first = offset / block;
        let last = (offset + len - 1) / block;

        // Clone resident blocks out, so eviction during the fetch can't
        // disturb assembly, and move them to the warm end, in block order
        // (deterministic).
        let mut st = self.state.lock();
        let blocks: Vec<Option<Payload>> = (first..=last)
            .map(|idx| st.lru.touch(&(obj_id, idx)))
            .collect();
        let version = st.version(obj_id);
        let extents: Vec<(u64, u64)> = (first..=last)
            .zip(&blocks)
            .filter_map(|(idx, b)| b.is_none().then_some((idx * block, block)))
            .collect();
        let read = ReadMiss {
            extents,
            obj_id,
            offset,
            len,
            version,
            blocks,
        };
        if read.extents.is_empty() {
            st.lru.stats.hits += 1;
            Ok(self.assemble(read, &mut st.lru.stats))
        } else {
            st.lru.stats.misses += 1;
            Err(read)
        }
    }

    /// The fill half of [`BlockCache::serve_read`]: `fetched` is what the
    /// vault returned for `miss.extents`. The blocks are inserted unless an
    /// invalidation reached the object since the lookup.
    pub(crate) fn finish_read(&self, mut miss: ReadMiss, fetched: Vec<Payload>) -> Payload {
        let block = self.spec.block;
        let first = miss.offset / block;
        let mut st = self.state.lock();
        let fresh = st.version(miss.obj_id) == miss.version;
        for (&(start, _), p) in miss.extents.iter().zip(fetched) {
            let idx = start / block;
            if fresh {
                st.lru.insert((miss.obj_id, idx), &p);
            }
            miss.blocks[(idx - first) as usize] = Some(p);
        }
        self.assemble(miss, &mut st.lru.stats)
    }

    /// Assemble the result exactly as the vault would have: walk blocks
    /// in order, slice out the requested range, stop at EOF (a block
    /// shorter than the requested in-block range), and count the bytes
    /// that came from resident blocks.
    fn assemble(&self, read: ReadMiss, stats: &mut CacheStats) -> Payload {
        let block = self.spec.block;
        let (offset, end) = (read.offset, read.offset + read.len);
        let mut pieces: Vec<Payload> = Vec::new();
        let mut saved = 0u64;
        for (idx, data) in (offset / block..).zip(read.blocks) {
            let blk_start = idx * block;
            let want_start = offset.max(blk_start) - blk_start;
            let want_len = end.min(blk_start + block) - (blk_start + want_start);
            let piece = data.expect("hit or fetched").slice(want_start, want_len);
            let got = piece.len();
            if !read.extents.iter().any(|&(start, _)| start == blk_start) {
                saved += got;
            }
            if got > 0 {
                pieces.push(piece);
            }
            if got < want_len {
                break; // EOF inside this block
            }
        }
        stats.bytes_saved += saved;

        // A read inside one block — the common hit — is that block's view,
        // no bytes copied. Otherwise concatenate: all-real pieces keep
        // their bytes; any sparse piece degrades the whole result to
        // size-only, mirroring the vault.
        if pieces.len() == 1 {
            return pieces.swap_remove(0);
        }
        match pieces.iter().map(Payload::data).collect::<Option<Vec<_>>>() {
            Some(bytes) => Payload::bytes(bytes.concat()),
            None => Payload::sized(pieces.iter().map(|p| p.len()).sum()),
        }
    }

    /// Drop all blocks overlapping `[start, end)` of the object.
    pub(crate) fn invalidate_range(&self, obj_id: u64, start: u64, end: u64) {
        if end > start {
            let block = self.spec.block;
            self.state
                .lock()
                .invalidate(obj_id, start / block, (end - 1) / block);
        }
    }

    /// Drop every block of the object (unlink).
    pub(crate) fn invalidate_obj(&self, obj_id: u64) {
        self.state.lock().invalidate(obj_id, 0, u64::MAX);
    }

    /// Drop everything (server crash: the cache is volatile memory). The
    /// cumulative stats survive (the dropped blocks count as
    /// invalidations); the blocks and the version counters reset.
    pub(crate) fn clear(&self) {
        let mut st = self.state.lock();
        st.lru.invalidate(..);
        st.versions.clear();
    }

    /// Bytes of payload currently cached (for tests).
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.state.lock().lru.bytes()
    }

    /// The payload cached for block `idx` of the object, if any.
    #[cfg(test)]
    fn block(&self, obj_id: u64, idx: u64) -> Option<Payload> {
        let key = (obj_id, idx);
        let st = self.state.lock();
        st.lru.last_in(key..=key).map(|(_, p)| p.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vault::DiskSpec;
    use semplar_netsim::Bw;
    use semplar_runtime::{simulate, Dur, Runtime};
    use std::sync::Arc;

    fn slow_vault(rt: Arc<dyn Runtime>) -> Arc<Vault> {
        Vault::new(
            rt,
            DiskSpec {
                bandwidth: Bw::mbyte_per_s(10.0),
                seek: Dur::from_millis(5),
                ..DiskSpec::default()
            },
        )
    }

    fn spec(block: u64, capacity: u64) -> CacheSpec {
        CacheSpec { block, capacity }
    }

    #[test]
    fn warm_read_skips_the_disk_entirely() {
        simulate(|rt| {
            let v = slow_vault(rt.clone());
            v.create(1);
            v.write(
                1,
                0,
                &Payload::bytes((0..=255u8).cycle().take(1 << 16).collect()),
            );
            let c = BlockCache::new(spec(4096, 1 << 20));
            let cold_t0 = rt.now();
            let a = c.serve_read(&v, 1, 100, 8000);
            let cold = rt.now() - cold_t0;
            let warm_t0 = rt.now();
            let b = c.serve_read(&v, 1, 100, 8000);
            let warm = rt.now() - warm_t0;
            assert_eq!(a.data().unwrap(), b.data().unwrap());
            assert_eq!(a.data().unwrap(), v.read(1, 100, 8000).data().unwrap());
            assert!(cold >= Dur::from_millis(5), "cold read must seek: {cold}");
            assert_eq!(warm, Dur::ZERO, "warm read must not touch the disk");
            let s = c.stats();
            assert_eq!((s.hits, s.misses), (1, 1));
            assert_eq!(s.bytes_saved, 8000);
        });
    }

    #[test]
    fn partial_hit_fetches_only_missing_blocks() {
        simulate(|rt| {
            let v = slow_vault(rt.clone());
            v.create(1);
            let data: Vec<u8> = (0..(4 * 4096u32)).map(|i| (i % 251) as u8).collect();
            v.write(1, 0, &Payload::bytes(data.clone()));
            let c = BlockCache::new(spec(4096, 1 << 20));
            c.serve_read(&v, 1, 0, 4096); // block 0 resident
            let r = c.serve_read(&v, 1, 0, 3 * 4096);
            assert_eq!(r.data().unwrap(), &data[..3 * 4096]);
            let s = c.stats();
            // Second read fetched blocks 1 and 2 only.
            assert_eq!(s.insertions, 3);
            assert_eq!(s.bytes_saved, 4096);
        });
    }

    #[test]
    fn reads_truncate_at_eof_like_the_vault() {
        simulate(|rt| {
            let v = slow_vault(rt.clone());
            v.create(1);
            v.write(1, 0, &Payload::bytes(vec![7u8; 100]));
            let c = BlockCache::new(spec(64, 1 << 20));
            for _ in 0..2 {
                // Cold then warm: both must truncate exactly like the vault.
                let r = c.serve_read(&v, 1, 50, 500);
                assert_eq!(r.len(), 50);
                assert_eq!(r.data().unwrap(), &vec![7u8; 50][..]);
            }
            assert_eq!(c.serve_read(&v, 1, 200, 10).len(), 0);
        });
    }

    #[test]
    fn invalidate_range_forces_refetch_of_new_bytes() {
        simulate(|rt| {
            let v = slow_vault(rt.clone());
            v.create(1);
            v.write(1, 0, &Payload::bytes(vec![1u8; 8192]));
            let c = BlockCache::new(spec(4096, 1 << 20));
            c.serve_read(&v, 1, 0, 8192);
            v.write(1, 4096, &Payload::bytes(vec![2u8; 100]));
            c.invalidate_range(1, 4096, 4196);
            let r = c.serve_read(&v, 1, 0, 8192);
            let d = r.data().unwrap();
            assert_eq!(&d[..4096], &vec![1u8; 4096][..]);
            assert_eq!(&d[4096..4196], &vec![2u8; 100][..]);
        });
    }

    #[test]
    fn lru_evicts_coldest_block_under_capacity_pressure() {
        simulate(|rt| {
            let v = slow_vault(rt.clone());
            v.create(1);
            v.write(1, 0, &Payload::bytes(vec![9u8; 4 * 1024]));
            // Capacity: two 1 KiB blocks.
            let c = BlockCache::new(spec(1024, 2048));
            c.serve_read(&v, 1, 0, 1024); // block 0
            c.serve_read(&v, 1, 1024, 1024); // block 1
            c.serve_read(&v, 1, 0, 1024); // touch block 0 (now MRU)
            c.serve_read(&v, 1, 2048, 1024); // block 2 evicts block 1
            let s = c.stats();
            assert_eq!(s.evictions, 1);
            // Block 0 must still be resident (it was re-touched).
            let before = c.stats().hits;
            c.serve_read(&v, 1, 0, 1024);
            assert_eq!(c.stats().hits, before + 1);
        });
    }

    #[test]
    fn sparse_objects_cache_as_size_only() {
        simulate(|rt| {
            let v = slow_vault(rt.clone());
            v.create(1);
            v.write(1, 0, &Payload::sized(8192));
            let c = BlockCache::new(spec(4096, 1 << 20));
            let a = c.serve_read(&v, 1, 0, 8192);
            let b = c.serve_read(&v, 1, 0, 8192);
            assert!(a.data().is_none() && b.data().is_none());
            assert_eq!(a.len(), 8192);
            assert_eq!(b.len(), 8192);
            assert_eq!(c.stats().hits, 1);
        });
    }

    #[test]
    fn cache_fills_hold_the_vaults_views() {
        simulate(|rt| {
            let v = slow_vault(rt);
            // One written buffer is what the vault holds, the cache caches
            // and the reader gets.
            let whole = Payload::bytes(vec![3; 64 << 10]);
            v.write(1, 0, &whole);
            let c = BlockCache::new(spec(64 << 10, 1 << 20));
            let read = c.serve_read(&v, 1, 0, 64 << 10);
            for held in [&v.extents(1)[0].1, &c.block(1, 0).unwrap(), &read] {
                assert!(Arc::ptr_eq(held.buffer(), whole.buffer()));
            }
            // A 4 KiB block of a 1 MiB extent is copied into the cache.
            let big = Payload::bytes(vec![9; 1 << 20]);
            v.write(2, 0, &big);
            let small = BlockCache::new(spec(4096, 1 << 20));
            small.serve_read(&v, 2, 8192, 4096);
            let held = small.block(2, 2).unwrap();
            assert!(!Arc::ptr_eq(held.buffer(), big.buffer()));
            assert_eq!(held.buffer().len(), 4096);
            assert_eq!(held.data().unwrap(), &[9; 4096][..]);
        });
    }

    #[test]
    fn unlink_drops_one_objects_blocks_and_a_crash_keeps_the_counters() {
        simulate(|rt| {
            let v = slow_vault(rt);
            for obj in [1, 2] {
                v.create(obj);
                v.write(obj, 0, &Payload::bytes(vec![obj as u8; 3 * 1024]));
            }
            let c = BlockCache::new(spec(1024, 1 << 20));
            c.serve_read(&v, 1, 0, 3 * 1024);
            c.serve_read(&v, 2, 0, 3 * 1024);
            // Unlink: only object 1's three blocks go, as invalidations.
            c.invalidate_obj(1);
            assert!((0..3).all(|i| c.block(1, i).is_none() && c.block(2, i).is_some()));
            assert_eq!(c.resident_bytes(), 3 * 1024);
            assert_eq!(c.state.lock().version(1), 1);
            let before = c.stats();
            assert_eq!((before.insertions, before.invalidations), (6, 3));
            // Crash: everything goes and the versions reset; the counters
            // carry on, the dropped blocks counted as invalidations.
            c.clear();
            assert_eq!(c.resident_bytes(), 0);
            assert_eq!(c.state.lock().version(1), 0);
            let after = CacheStats {
                invalidations: 6,
                ..before
            };
            assert_eq!(c.stats(), after);
            c.serve_read(&v, 2, 0, 1024);
            assert_eq!(c.stats().misses, before.misses + 1);
        });
    }

    #[test]
    fn capacity_is_respected() {
        simulate(|rt| {
            let v = slow_vault(rt.clone());
            v.create(1);
            v.write(1, 0, &Payload::bytes(vec![5u8; 64 * 1024]));
            let c = BlockCache::new(spec(1024, 8 * 1024));
            for i in 0..64u64 {
                c.serve_read(&v, 1, i * 1024, 1024);
            }
            assert!(c.resident_bytes() <= 8 * 1024);
            assert_eq!(c.stats().evictions, 64 - 8);
        });
    }
}
