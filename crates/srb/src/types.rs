//! Common SRB data types: payloads, errors, metadata records.

use std::ops::Range;
use std::sync::Arc;

/// The bytes carried by a read or write.
///
/// The experiments in the paper move hundreds of megabytes per node; storing
/// and copying all of it would dominate the harness without changing any
/// timing (the fluid network model only needs sizes). `Payload` therefore
/// has two forms: [`Payload::Bytes`] carries real data (used by correctness
/// tests, the examples, and the compression pipeline, which needs real bytes
/// to compress), and [`Payload::Sized`] carries only a length (used by the
/// large bandwidth sweeps). The wire/disk cost model treats them
/// identically.
///
/// Real data is a *view*: a range of a shared, immutable buffer, so
/// [`clone`](Clone::clone) and [`slice`](Payload::slice) copy nothing, and
/// the same bytes can be held at once by the client that wrote them, the
/// vault that stores them, the block cache and a reader's lease cache. A
/// view keeps its whole buffer alive, so whatever outlives the request that
/// made a payload holds [`retained`](Payload::retained) instead: the view
/// itself when it spans at least half its buffer, otherwise a copy. Nothing
/// kept pins more than twice its own bytes.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Real bytes: this range of the shared buffer.
    Bytes(Arc<Vec<u8>>, Range<usize>),
    /// A size-only stand-in for `len` bytes.
    Sized(u64),
}

impl Payload {
    /// A payload owning real data.
    pub fn bytes(v: Vec<u8>) -> Payload {
        let all = 0..v.len();
        Payload::Bytes(Arc::new(v), all)
    }

    /// A size-only payload of `len` bytes.
    pub fn sized(len: u64) -> Payload {
        Payload::Sized(len)
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(_, view) => view.len() as u64,
            Payload::Sized(n) => *n,
        }
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The real data, if this payload carries any.
    pub fn data(&self) -> Option<&[u8]> {
        match self {
            Payload::Bytes(buf, view) => Some(&buf[view.clone()]),
            Payload::Sized(_) => None,
        }
    }

    /// A sub-range `[start, start+len)` of this payload, clamped to its
    /// length: a narrower view of the same buffer, no bytes copied. Used by
    /// striped I/O to split one logical operation across streams.
    pub fn slice(&self, start: u64, len: u64) -> Payload {
        let total = self.len();
        let start = start.min(total);
        let len = len.min(total - start);
        match self {
            Payload::Bytes(buf, view) => {
                let from = view.start + start as usize;
                Payload::Bytes(buf.clone(), from..from + len as usize)
            }
            Payload::Sized(_) => Payload::sized(len),
        }
    }

    /// This payload as something that may outlive its request: the view
    /// itself when it spans at least half its buffer, otherwise its bytes
    /// copied into an exact-size buffer of their own. The one retention
    /// rule of the vault, the block cache and the client lease cache.
    pub fn retained(&self) -> Payload {
        match self {
            Payload::Bytes(buf, view) if view.len() * 2 < buf.len() => {
                Payload::bytes(buf[view.clone()].to_vec())
            }
            _ => self.clone(),
        }
    }

    /// The buffer a real payload is a view of.
    #[cfg(test)]
    pub(crate) fn buffer(&self) -> &Arc<Vec<u8>> {
        match self {
            Payload::Bytes(buf, _) => buf,
            Payload::Sized(_) => panic!("a size-only payload has no buffer"),
        }
    }
}

/// Adler-32 checksum (RFC 1950) — the classic cheap integrity check of the
/// era, used by SRB-style `Schksum` operations.
///
/// The byte-serial recurrence (`a += x; b += a`) is split over `L` = 16
/// independent lanes: within a block of `k` rows of `L` bytes, lane `j`
/// keeps its byte sum `A_j` and the running sum of its prefix sums `B_j`,
/// which is Σ (k − row) · x. The block then adds `ΣA` to `a` and
/// `n·a + L·ΣB − Σ j·A_j` to `b` — exactly what the serial loop adds — and
/// both are reduced mod 65,521 once per block.
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u64 = 65_521;
    // The largest multiple of the lane count within zlib's 5,552-byte
    // bound; its lane sums stay far inside a u32.
    const BLOCK: usize = 5552 / ADLER_LANES * ADLER_LANES;
    let (mut a, mut b) = (1u64, 0u64);
    for block in data.chunks(BLOCK) {
        let rows = block.chunks_exact(ADLER_LANES);
        let tail = rows.remainder();
        let (mut la, mut lb) = ([0u32; ADLER_LANES], [0u32; ADLER_LANES]);
        for row in rows {
            for j in 0..ADLER_LANES {
                la[j] += row[j] as u32;
                lb[j] += la[j];
            }
        }
        let n = (block.len() - tail.len()) as u64;
        let sum_a: u64 = la.iter().map(|&x| x as u64).sum();
        let sum_b: u64 = lb.iter().map(|&x| x as u64).sum();
        let skew: u64 = la
            .iter()
            .enumerate()
            .map(|(j, &x)| j as u64 * x as u64)
            .sum();
        b += n * a + ADLER_LANES as u64 * sum_b - skew;
        a += sum_a;
        for &x in tail {
            a += x as u64;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    ((b << 16) | a) as u32
}

/// Bytes [`adler32`] sums side by side.
const ADLER_LANES: usize = 16;

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::bytes(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Payload {
        Payload::bytes(v.into())
    }
}

/// Errors surfaced by SRB operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SrbError {
    /// No such data object or collection.
    NotFound(String),
    /// Object or collection already exists.
    AlreadyExists(String),
    /// Parent collection missing.
    NoSuchCollection(String),
    /// Authentication failed.
    PermissionDenied,
    /// Unknown file descriptor.
    BadFd(u32),
    /// The connection was closed (by a crash, a reset, or `disconnect`).
    Disconnected {
        /// Cumulative payload bytes the server had acknowledged on this
        /// connection before the cut — a reconnecting client resumes from
        /// here rather than replaying the whole transfer.
        acked: u64,
    },
    /// Malformed request arguments.
    InvalidArg(String),
    /// The request carried a stale membership epoch (or the server is
    /// fenced after a restart, awaiting epoch certification). The write
    /// was rejected: this server is no longer — or not yet again — the
    /// primary the client believes it is. The client must refresh its
    /// shard roles/epoch and re-route.
    StaleEpoch {
        /// Epoch the request carried.
        sent: u64,
        /// Epoch the server currently requires (its certified minimum).
        current: u64,
    },
}

impl SrbError {
    /// True for errors a retry can plausibly cure (the connection died, the
    /// server is briefly down); false for semantic errors where replaying
    /// the same request would fail the same way. Recovery policies branch on
    /// this instead of string-matching messages.
    pub fn is_transient(&self) -> bool {
        matches!(self, SrbError::Disconnected { .. })
    }
}

impl std::fmt::Display for SrbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SrbError::NotFound(p) => write!(f, "no such object: {p}"),
            SrbError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            SrbError::NoSuchCollection(p) => write!(f, "no such collection: {p}"),
            SrbError::PermissionDenied => write!(f, "permission denied"),
            SrbError::BadFd(fd) => write!(f, "bad file descriptor: {fd}"),
            SrbError::Disconnected { acked } => {
                write!(f, "connection closed ({acked} bytes acknowledged)")
            }
            SrbError::InvalidArg(m) => write!(f, "invalid argument: {m}"),
            SrbError::StaleEpoch { sent, current } => {
                write!(f, "stale epoch {sent} (server requires {current})")
            }
        }
    }
}
impl std::error::Error for SrbError {}

/// Convenience alias.
pub type SrbResult<T> = Result<T, SrbError>;

/// How a data object is opened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenFlags {
    /// Read-only.
    Read,
    /// Write-only (object must exist; use `create` first).
    Write,
    /// Read and write.
    ReadWrite,
    /// Create if missing, then read/write.
    CreateRw,
}

impl OpenFlags {
    /// True if reads are permitted.
    pub fn readable(self) -> bool {
        !matches!(self, OpenFlags::Write)
    }
    /// True if writes are permitted.
    pub fn writable(self) -> bool {
        !matches!(self, OpenFlags::Read)
    }
}

/// Metadata returned by `stat`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjStat {
    /// Logical path within the SRB namespace.
    pub path: String,
    /// Size in bytes.
    pub size: u64,
    /// Name of the storage resource holding the object.
    pub resource: String,
    /// Number of replicas registered.
    pub replicas: u32,
}

/// The byte-serial Adler-32 that [`adler32`] replaced: the oracle it must
/// match at every length.
#[cfg(test)]
mod reference {
    pub(super) fn adler32(data: &[u8]) -> u32 {
        const MOD: u32 = 65_521;
        let mut a: u32 = 1;
        let mut b: u32 = 0;
        // Process in chunks small enough that the sums cannot overflow u32.
        for chunk in data.chunks(5552) {
            for &byte in chunk {
                a += byte as u32;
                b += a;
            }
            a %= MOD;
            b %= MOD;
        }
        (b << 16) | a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lane-parallel sum equals the byte-serial one: across the
    /// 5,552-byte reduction bound, around multiples of the lane block, on
    /// all-`0xFF` input (the largest sums a block can reach) and over
    /// 16 MiB plus an odd tail.
    #[test]
    fn adler32_matches_the_byte_serial_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..(16 << 20) + 13)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let ones = vec![0xFFu8; 1 << 20];
        let lane_block = 5552 / ADLER_LANES * ADLER_LANES;
        let mut lens = vec![0, 1, ADLER_LANES - 1, ADLER_LANES, 5_551, 5_552, 5_553];
        for k in [1, 2, 3, 7, 100] {
            lens.extend([k * lane_block - 1, k * lane_block, k * lane_block + 1]);
        }
        for len in lens.iter().copied().chain([ones.len()]) {
            for buf in [&noise[..len], &ones[..len]] {
                assert_eq!(adler32(buf), reference::adler32(buf), "{len} bytes");
            }
        }
        assert_eq!(adler32(&noise), reference::adler32(&noise), "16 MiB + 13");
        // A slice that starts off the buffer's alignment.
        assert_eq!(
            adler32(&noise[3..70_001]),
            reference::adler32(&noise[3..70_001])
        );
    }

    #[test]
    fn payload_lengths() {
        assert_eq!(Payload::sized(42).len(), 42);
        assert_eq!(Payload::bytes(vec![1, 2, 3]).len(), 3);
        assert!(Payload::sized(0).is_empty());
        assert!(!Payload::bytes(vec![0]).is_empty());
    }

    #[test]
    fn payload_data_access() {
        assert_eq!(Payload::bytes(vec![9, 8]).data(), Some(&[9u8, 8][..]));
        assert_eq!(Payload::sized(10).data(), None);
    }

    #[test]
    fn payload_views_share_one_buffer() {
        let p = Payload::bytes((0..100u8).collect());
        let v = p.slice(10, 50);
        assert_eq!((v.len(), v.is_empty()), (50, false));
        assert_eq!(v.data().unwrap(), &(10..60u8).collect::<Vec<_>>()[..]);
        // A slice of a slice is relative to the inner view, and clamps to it.
        let vv = v.slice(45, 20);
        assert_eq!(vv.data().unwrap(), &[55u8, 56, 57, 58, 59][..]);
        let past = v.slice(70, 5);
        assert_eq!((past.len(), past.is_empty()), (0, true));
        assert_eq!(past.data(), Some(&[][..]));
        // Same allocation throughout: nothing was copied.
        let base = p.data().unwrap().as_ptr() as usize;
        assert_eq!(vv.data().unwrap().as_ptr() as usize, base + 55);
    }

    #[test]
    fn retained_keeps_views_of_at_least_half_their_buffer() {
        let p = Payload::bytes((0..100u8).collect());
        for (start, len, shared) in [
            (0, 100, true),
            (10, 50, true),
            (0, 49, false),
            (99, 1, false),
        ] {
            let v = p.slice(start, len);
            let kept = v.retained();
            assert_eq!(kept.data(), v.data(), "{start}+{len}");
            assert_eq!(
                Arc::ptr_eq(kept.buffer(), p.buffer()),
                shared,
                "{start}+{len}"
            );
            // A copy is exact-size, so it is then a whole buffer of its own.
            assert_eq!(kept.buffer().len() as u64, if shared { 100 } else { len });
        }
        assert_eq!(Payload::sized(7).retained().len(), 7);
        assert!(Payload::sized(7).retained().data().is_none());
    }

    #[test]
    fn open_flags_permissions() {
        assert!(OpenFlags::Read.readable() && !OpenFlags::Read.writable());
        assert!(!OpenFlags::Write.readable() && OpenFlags::Write.writable());
        assert!(OpenFlags::ReadWrite.readable() && OpenFlags::ReadWrite.writable());
        assert!(OpenFlags::CreateRw.readable() && OpenFlags::CreateRw.writable());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Slicing never exceeds bounds and preserves data/kind.
            #[test]
            fn payload_slice_is_clamped_and_faithful(
                data in proptest::collection::vec(any::<u8>(), 0..2000),
                start in 0u64..3000,
                len in 0u64..3000,
                sized in any::<bool>(),
            ) {
                let p = if sized {
                    Payload::sized(data.len() as u64)
                } else {
                    Payload::bytes(data.clone())
                };
                let s = p.slice(start, len);
                let expect_len = len.min((data.len() as u64).saturating_sub(start));
                prop_assert_eq!(s.len(), expect_len);
                if !sized {
                    let a = start.min(data.len() as u64) as usize;
                    let b = (a + expect_len as usize).min(data.len());
                    prop_assert_eq!(s.data().unwrap(), &data[a..b]);
                } else {
                    prop_assert!(s.data().is_none());
                }
            }
        }
    }

    #[test]
    fn errors_display() {
        assert!(SrbError::NotFound("/x".into()).to_string().contains("/x"));
        assert!(SrbError::BadFd(7).to_string().contains('7'));
        assert!(SrbError::Disconnected { acked: 99 }
            .to_string()
            .contains("99"));
    }

    #[test]
    fn only_disconnects_are_transient() {
        assert!(SrbError::Disconnected { acked: 0 }.is_transient());
        assert!(SrbError::Disconnected { acked: 1 << 20 }.is_transient());
        for e in [
            SrbError::NotFound("/x".into()),
            SrbError::AlreadyExists("/x".into()),
            SrbError::NoSuchCollection("/x".into()),
            SrbError::PermissionDenied,
            SrbError::BadFd(3),
            SrbError::InvalidArg("m".into()),
            // A stale epoch is NOT transient: retrying the same frame at
            // the same server fails identically. The federation layer
            // handles it by refreshing roles and re-routing instead.
            SrbError::StaleEpoch {
                sent: 1,
                current: 2,
            },
        ] {
            assert!(!e.is_transient(), "{e}");
        }
    }
}
