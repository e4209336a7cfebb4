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
//! Everything is deterministic under the virtual-time runtime: eviction
//! order depends only on the sequence of cache operations (LRU by access
//! tick), never on hash iteration order.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Counters surfaced through `SrbServer::cache_stats` and printed by the
/// perf figures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served entirely from cache (zero disk charge).
    pub hits: u64,
    /// Reads that had to fetch at least one block from the vault.
    pub misses: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
    /// Blocks inserted after a miss fetch.
    pub insertions: u64,
    /// Payload bytes served from cached blocks instead of the disk.
    pub bytes_saved: u64,
}

/// Cache block: the payload that a vault read of `[idx·block, idx·block +
/// block)` returned at fetch time (shorter than `block` only at EOF) — a
/// view of the vault's own extent unless it spans under half that extent's
/// buffer ([`Payload::retained`]).
struct Block {
    data: Payload,
    /// LRU access tick; key into `State::lru_order`.
    stamp: u64,
}

type Key = (u64, u64); // (obj_id, block index)

#[derive(Default)]
struct State {
    blocks: HashMap<Key, Block>,
    /// Bytes of payload currently held.
    bytes: u64,
    /// Monotonic tick for LRU stamps.
    tick: u64,
    /// LRU: access stamp → key, oldest first.
    lru_order: BTreeMap<u64, Key>,
    /// Per-object invalidation counters (bumped by any invalidate touching
    /// the object); miss fetches only insert if unchanged since fetch start.
    versions: HashMap<u64, u64>,
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
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    bytes_saved: AtomicU64,
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
            state: Mutex::new(State::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            bytes_saved: AtomicU64::new(0),
        }
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            evictions: self.evictions.load(Ordering::SeqCst),
            insertions: self.insertions.load(Ordering::SeqCst),
            bytes_saved: self.bytes_saved.load(Ordering::SeqCst),
        }
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

        // Under the lock: clone resident blocks out, so eviction during
        // the fetch can't disturb assembly, and move their LRU stamps to
        // the front, in block order (deterministic).
        let mut blocks: Vec<Option<Payload>> = Vec::new();
        let version = {
            let mut st = self.state.lock();
            for idx in first..=last {
                let key = (obj_id, idx);
                let t = st.tick + 1;
                let hit = st
                    .blocks
                    .get_mut(&key)
                    .map(|b| (b.data.clone(), std::mem::replace(&mut b.stamp, t)));
                blocks.push(hit.map(|(data, old)| {
                    st.tick = t;
                    st.lru_order.remove(&old);
                    st.lru_order.insert(t, key);
                    data
                }));
            }
            *st.versions.get(&obj_id).unwrap_or(&0)
        };

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
            self.hits.fetch_add(1, Ordering::SeqCst);
            Ok(self.assemble(read))
        } else {
            self.misses.fetch_add(1, Ordering::SeqCst);
            Err(read)
        }
    }

    /// The fill half of [`BlockCache::serve_read`]: `fetched` is what the
    /// vault returned for `miss.extents`. The blocks are inserted unless an
    /// invalidation reached the object since the lookup.
    pub(crate) fn finish_read(&self, mut miss: ReadMiss, fetched: Vec<Payload>) -> Payload {
        let block = self.spec.block;
        let first = miss.offset / block;
        {
            let mut st = self.state.lock();
            let fresh = *st.versions.get(&miss.obj_id).unwrap_or(&0) == miss.version;
            for (&(start, _), p) in miss.extents.iter().zip(fetched) {
                let idx = start / block;
                if fresh {
                    self.insert_block(&mut st, (miss.obj_id, idx), p.retained());
                }
                miss.blocks[(idx - first) as usize] = Some(p);
            }
        }
        self.assemble(miss)
    }

    /// Assemble the result exactly as the vault would have: walk blocks
    /// in order, slice out the requested range, stop at EOF (a block
    /// shorter than the requested in-block range).
    fn assemble(&self, read: ReadMiss) -> Payload {
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
        self.bytes_saved.fetch_add(saved, Ordering::SeqCst);

        // A read inside one block — the common hit — is that block's view,
        // no bytes copied. Otherwise concatenate: all-real pieces keep
        // their bytes; any sparse piece degrades the whole result to
        // size-only, mirroring the vault.
        if pieces.len() == 1 {
            return pieces.swap_remove(0);
        }
        let total: u64 = pieces.iter().map(|p| p.len()).sum();
        if pieces.iter().all(|p| p.data().is_some()) {
            let mut out = Vec::with_capacity(total as usize);
            for p in &pieces {
                out.extend_from_slice(p.data().unwrap());
            }
            Payload::bytes(out)
        } else {
            Payload::sized(total)
        }
    }

    fn insert_block(&self, st: &mut State, key: Key, data: Payload) {
        // Replace any prior entry for the key first.
        self.remove_key(st, key);
        let sz = data.len();
        while st.bytes + sz > self.spec.capacity {
            let Some((_, &victim)) = st.lru_order.iter().next() else {
                break;
            };
            self.remove_key(st, victim);
            self.evictions.fetch_add(1, Ordering::SeqCst);
        }
        st.tick += 1;
        let tick = st.tick;
        st.lru_order.insert(tick, key);
        st.bytes += sz;
        st.blocks.insert(key, Block { data, stamp: tick });
        self.insertions.fetch_add(1, Ordering::SeqCst);
    }

    fn remove_key(&self, st: &mut State, key: Key) {
        if let Some(b) = st.blocks.remove(&key) {
            st.bytes -= b.data.len();
            st.lru_order.remove(&b.stamp);
        }
    }

    /// Drop all blocks overlapping `[start, end)` of the object and bump
    /// its version so in-flight miss fetches won't insert stale data.
    pub(crate) fn invalidate_range(&self, obj_id: u64, start: u64, end: u64) {
        if end <= start {
            return;
        }
        let block = self.spec.block;
        let first = start / block;
        let last = (end - 1) / block;
        let mut st = self.state.lock();
        *st.versions.entry(obj_id).or_insert(0) += 1;
        for idx in first..=last {
            self.remove_key(&mut st, (obj_id, idx));
        }
    }

    /// Drop every block of the object (unlink) and bump its version.
    pub(crate) fn invalidate_obj(&self, obj_id: u64) {
        let mut st = self.state.lock();
        *st.versions.entry(obj_id).or_insert(0) += 1;
        let keys: Vec<Key> = st
            .blocks
            .keys()
            .filter(|(o, _)| *o == obj_id)
            .copied()
            .collect();
        for k in keys {
            self.remove_key(&mut st, k);
        }
    }

    /// Drop everything (server crash: the cache is volatile memory). The
    /// cumulative stats survive; the block store, eviction state, and
    /// version counters reset.
    pub(crate) fn clear(&self) {
        *self.state.lock() = State::default();
    }

    /// Bytes of payload currently cached (for tests).
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.state.lock().bytes
    }

    /// The payload cached for block `idx` of the object, if any.
    #[cfg(test)]
    fn block(&self, obj_id: u64, idx: u64) -> Option<Payload> {
        let st = self.state.lock();
        st.blocks.get(&(obj_id, idx)).map(|b| b.data.clone())
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
