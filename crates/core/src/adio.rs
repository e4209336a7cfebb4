//! The ADIO layer: an abstract device interface for I/O.
//!
//! ROMIO implements MPI-IO portably by programming against ADIO and letting
//! each filesystem supply an optimized ADIO implementation (paper §3.2,
//! Fig. 1: UFS / PVFS / NFS / SRBFS under one MPI-IO). This module defines
//! the same seam for the reproduction: [`File`](crate::file::File) is
//! implemented once over [`AdioFile`], and backends plug in underneath —
//! [`SrbFs`](crate::srbfs::SrbFs) for remote SRB objects, [`MemFs`] for
//! local/unit-test storage.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

#[cfg(test)]
use semplar_runtime::Runtime;
#[cfg(test)]
use semplar_srb::DiskSpec;
use semplar_srb::{Disk, OpenFlags, Payload, SrbError};

/// Errors surfaced by the I/O stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoError {
    /// Error from the SRB substrate.
    Srb(SrbError),
    /// No such file (local backends).
    NotFound(String),
    /// File exists (create collisions on local backends).
    AlreadyExists(String),
    /// Operation not permitted by the open flags.
    BadAccess(&'static str),
    /// The file or engine has been closed.
    Closed,
}

impl IoError {
    /// True for failures a retry can plausibly cure — delegates to
    /// [`SrbError::is_transient`]; every local error is permanent.
    pub fn is_transient(&self) -> bool {
        matches!(self, IoError::Srb(e) if e.is_transient())
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Srb(e) => write!(f, "srb: {e}"),
            IoError::NotFound(p) => write!(f, "not found: {p}"),
            IoError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            IoError::BadAccess(m) => write!(f, "bad access: {m}"),
            IoError::Closed => write!(f, "file closed"),
        }
    }
}
impl std::error::Error for IoError {}

impl From<SrbError> for IoError {
    fn from(e: SrbError) -> IoError {
        IoError::Srb(e)
    }
}

/// Result alias for I/O operations.
pub type IoResult<T> = Result<T, IoError>;

/// An open file on some ADIO backend. Implementations are `Send` so the
/// asynchronous engine's I/O thread can service them.
pub trait AdioFile: Send {
    /// Read up to `len` bytes at `offset` (short reads at EOF, POSIX-style).
    fn read_at(&mut self, offset: u64, len: u64) -> IoResult<Payload>;
    /// Write `data` at `offset`, returning bytes written.
    fn write_at(&mut self, offset: u64, data: &Payload) -> IoResult<u64>;
    /// Current file size.
    fn size(&mut self) -> IoResult<u64>;
    /// Flush and release resources (terminates the connection on SRBFS,
    /// matching the paper's `MPI_File_close`).
    fn close(&mut self) -> IoResult<()>;
    /// Read many `(offset, len)` extents, returning their data packed
    /// back-to-back in list order (each extent truncated at EOF). The
    /// default loops single reads — correct on any backend; SRBFS overrides
    /// it with one wire exchange (list-I/O or data sieving).
    fn read_list(&mut self, extents: &[(u64, u64)]) -> IoResult<Payload> {
        let mut parts = Vec::with_capacity(extents.len());
        for &(offset, len) in extents {
            parts.push(self.read_at(offset, len)?);
        }
        Ok(pack_extents(&parts))
    }

    /// Write many `(offset, len)` extents from `data`, which packs their
    /// bytes back-to-back in list order; returns total bytes written. The
    /// default loops single writes; SRBFS overrides with one exchange.
    fn write_list(&mut self, extents: &[(u64, u64)], data: &Payload) -> IoResult<u64> {
        let mut cursor = 0u64;
        let mut total = 0u64;
        for &(offset, len) in extents {
            total += self.write_at(offset, &data.slice(cursor, len))?;
            cursor += len;
        }
        Ok(total)
    }

    /// [`AdioFile::write_list`] with an explicit sieving opt-out. Write-back
    /// sieving read-modify-writes the covering span, which is only safe
    /// when this writer owns every byte of it; a caller whose holes belong
    /// to a concurrent writer (striped sub-lists) passes `sieve = false` to
    /// force the pure list exchange. The default ignores the flag — the
    /// single-op loop never sieves.
    fn write_list_with(
        &mut self,
        extents: &[(u64, u64)],
        data: &Payload,
        sieve: bool,
    ) -> IoResult<u64> {
        let _ = sieve;
        self.write_list(extents, data)
    }

    /// Goodput telemetry for the stream this file rides, if the backend
    /// measures one ([`IoMeter`](semplar_srb::IoMeter) on SRBFS). Local
    /// backends return `None` and schedulers fall back to uniform weights.
    fn meter(&self) -> Option<Arc<semplar_srb::IoMeter>> {
        None
    }
}

/// Concatenate per-extent payloads into one packed payload: all-real parts
/// pack to real bytes, anything size-only collapses to a size-only total.
pub fn pack_extents(parts: &[Payload]) -> Payload {
    if parts.iter().all(|p| p.data().is_some()) {
        let mut packed = Vec::with_capacity(parts.iter().map(|p| p.len() as usize).sum());
        for p in parts {
            packed.extend_from_slice(p.data().expect("checked real"));
        }
        Payload::bytes(packed)
    } else {
        Payload::sized(parts.iter().map(|p| p.len()).sum())
    }
}

/// The gap-merge pass: sort extents by offset and fuse overlapping or
/// exactly-adjacent neighbours into maximal runs. The result is sorted and
/// disjoint; zero-length extents are dropped. Coalescers run this before
/// framing so a fragmented request never carries redundant extent-table
/// entries for what is really one contiguous range.
pub fn merge_extents(extents: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sorted: Vec<(u64, u64)> = extents.iter().copied().filter(|&(_, l)| l > 0).collect();
    sorted.sort();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for (off, len) in sorted {
        match out.last_mut() {
            Some(&mut (loff, ref mut llen)) if off <= loff + *llen => {
                *llen = (*llen).max(off + len - loff);
            }
            _ => out.push((off, len)),
        }
    }
    out
}

/// Split a packed list-read reply back into per-extent payloads.
///
/// The server truncates each extent at EOF before packing, so a short reply
/// implies some tail of each extent fell past end-of-file. The file size `S`
/// consistent with the reply satisfies `Σ min(len_i, max(0, S - off_i)) ==
/// packed.len()`; that sum is monotone in `S`, and everywhere a plateau of
/// candidate sizes yields the same sum it also yields identical per-extent
/// lengths, so any solution reproduces the exact split.
pub fn split_packed(extents: &[(u64, u64)], packed: &Payload) -> Vec<Payload> {
    let total: u64 = extents.iter().map(|&(_, l)| l).sum();
    let lens: Vec<u64> = if packed.len() >= total {
        extents.iter().map(|&(_, l)| l).collect()
    } else {
        let served = |size: u64| -> u64 {
            extents
                .iter()
                .map(|&(off, len)| size.saturating_sub(off).min(len))
                .sum()
        };
        let mut lo = 0u64;
        let mut hi = extents
            .iter()
            .map(|&(off, len)| off + len)
            .max()
            .unwrap_or(0);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if served(mid) < packed.len() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        extents
            .iter()
            .map(|&(off, len)| lo.saturating_sub(off).min(len))
            .collect()
    };
    let mut cursor = 0u64;
    let mut out = Vec::with_capacity(extents.len());
    for l in lens {
        out.push(packed.slice(cursor, l));
        cursor += l;
    }
    out
}

/// A mountable filesystem backend.
pub trait AdioFs: Send + Sync {
    /// Open (or create, per `flags`) the file at `path`. On connection-
    /// oriented backends this establishes a fresh transport connection —
    /// SEMPLAR opens one TCP stream per `MPI_File_open` (§3.2).
    fn open(&self, path: &str, flags: OpenFlags) -> IoResult<Box<dyn AdioFile>>;
    /// Open with a transport-placement hint: backends with a connection
    /// pool route equal pins to the same pool slot and distinct pins to
    /// distinct slots (striped files pin stream `i` to slot `i` so sibling
    /// streams get truly independent connections). Backends without
    /// placement ignore the pin.
    fn open_pinned(
        &self,
        path: &str,
        flags: OpenFlags,
        pin: Option<usize>,
    ) -> IoResult<Box<dyn AdioFile>> {
        let _ = pin;
        self.open(path, flags)
    }
    /// Delete the file at `path`.
    fn delete(&self, path: &str) -> IoResult<()>;
    /// Backend name for diagnostics ("srbfs", "memfs").
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// MemFs: the local UFS-like backend.
// ---------------------------------------------------------------------------

struct MemFsInner {
    files: HashMap<String, Arc<Mutex<Vec<u8>>>>,
}

/// An in-memory local filesystem with an optional modelled disk, playing the
/// role of ROMIO's UFS backend: unit tests run SEMPLAR's full MPI-IO surface
/// against it without a server, and experiments use it as the "local I/O"
/// baseline the paper contrasts remote I/O with.
pub struct MemFs {
    inner: Mutex<MemFsInner>,
    disk: Option<Disk>,
}

impl MemFs {
    /// A MemFs with no modelled disk time (I/O completes instantly).
    pub fn new() -> Arc<MemFs> {
        Arc::new(MemFs {
            inner: Mutex::new(MemFsInner {
                files: HashMap::new(),
            }),
            disk: None,
        })
    }

    /// A MemFs whose operations charge time against a modelled local disk.
    #[cfg(test)]
    pub(crate) fn with_disk(rt: Arc<dyn Runtime>, spec: DiskSpec) -> Arc<MemFs> {
        Arc::new(MemFs {
            inner: Mutex::new(MemFsInner {
                files: HashMap::new(),
            }),
            disk: Some(Disk::new(&semplar_netsim::Network::new(rt), spec)),
        })
    }

    fn charge(&self, bytes: u64) {
        if let Some(disk) = &self.disk {
            disk.charge(bytes);
        }
    }

    /// Pre-populate a file (test/bench setup helper, no disk time charged).
    #[cfg(test)]
    pub(crate) fn put(&self, path: &str, data: Vec<u8>) {
        self.inner
            .lock()
            .files
            .insert(path.to_string(), Arc::new(Mutex::new(data)));
    }

    /// Read a whole file back (test helper, no disk time charged).
    #[cfg(test)]
    pub(crate) fn get(&self, path: &str) -> Option<Vec<u8>> {
        self.inner.lock().files.get(path).map(|f| f.lock().clone())
    }
}

struct MemFile {
    fs: Arc<MemFs>,
    data: Arc<Mutex<Vec<u8>>>,
    flags: OpenFlags,
    closed: bool,
}

impl AdioFs for Arc<MemFs> {
    fn open(&self, path: &str, flags: OpenFlags) -> IoResult<Box<dyn AdioFile>> {
        let mut g = self.inner.lock();
        let data = match g.files.get(path) {
            Some(d) => d.clone(),
            None if flags == OpenFlags::CreateRw => {
                let d = Arc::new(Mutex::new(Vec::new()));
                g.files.insert(path.to_string(), d.clone());
                d
            }
            None => return Err(IoError::NotFound(path.to_string())),
        };
        Ok(Box::new(MemFile {
            fs: self.clone(),
            data,
            flags,
            closed: false,
        }))
    }

    fn delete(&self, path: &str) -> IoResult<()> {
        self.inner
            .lock()
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| IoError::NotFound(path.to_string()))
    }

    fn name(&self) -> &'static str {
        "memfs"
    }
}

impl AdioFile for MemFile {
    fn read_at(&mut self, offset: u64, len: u64) -> IoResult<Payload> {
        if self.closed {
            return Err(IoError::Closed);
        }
        if !self.flags.readable() {
            return Err(IoError::BadAccess("not open for reading"));
        }
        let out = {
            let d = self.data.lock();
            let start = (offset as usize).min(d.len());
            let end = ((offset + len) as usize).min(d.len());
            d[start..end].to_vec()
        };
        self.fs.charge(out.len() as u64);
        Ok(Payload::bytes(out))
    }

    fn write_at(&mut self, offset: u64, data: &Payload) -> IoResult<u64> {
        if self.closed {
            return Err(IoError::Closed);
        }
        if !self.flags.writable() {
            return Err(IoError::BadAccess("not open for writing"));
        }
        self.fs.charge(data.len());
        let mut d = self.data.lock();
        let end = offset + data.len();
        if (d.len() as u64) < end {
            d.resize(end as usize, 0);
        }
        if let Some(bytes) = data.data() {
            d[offset as usize..end as usize].copy_from_slice(bytes);
        }
        // Size-only payloads just extend the file (zeros), mirroring the
        // vault's sparse behaviour closely enough for timing runs.
        Ok(data.len())
    }

    fn size(&mut self) -> IoResult<u64> {
        if self.closed {
            return Err(IoError::Closed);
        }
        Ok(self.data.lock().len() as u64)
    }

    fn close(&mut self) -> IoResult<()> {
        self.closed = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semplar_runtime::simulate;

    #[test]
    fn memfs_create_write_read() {
        simulate(|_| {
            let fs = MemFs::new();
            let mut f = fs.open("/x", OpenFlags::CreateRw).unwrap();
            f.write_at(0, &Payload::bytes(vec![1, 2, 3])).unwrap();
            f.write_at(5, &Payload::bytes(vec![9])).unwrap();
            assert_eq!(f.size().unwrap(), 6);
            let r = f.read_at(0, 10).unwrap();
            assert_eq!(r.data().unwrap(), &[1, 2, 3, 0, 0, 9]);
            f.close().unwrap();
            assert!(matches!(f.read_at(0, 1), Err(IoError::Closed)));
        });
    }

    #[test]
    fn memfs_missing_file_errors() {
        simulate(|_| {
            let fs = MemFs::new();
            assert!(matches!(
                fs.open("/nope", OpenFlags::Read),
                Err(IoError::NotFound(_))
            ));
            assert!(matches!(fs.delete("/nope"), Err(IoError::NotFound(_))));
        });
    }

    #[test]
    fn memfs_respects_access_flags() {
        simulate(|_| {
            let fs = MemFs::new();
            fs.put("/r", vec![1]);
            let mut f = fs.open("/r", OpenFlags::Read).unwrap();
            assert!(matches!(
                f.write_at(0, &Payload::sized(1)),
                Err(IoError::BadAccess(_))
            ));
            let mut w = fs.open("/r", OpenFlags::Write).unwrap();
            assert!(matches!(w.read_at(0, 1), Err(IoError::BadAccess(_))));
        });
    }

    #[test]
    fn memfs_disk_model_charges_time() {
        let elapsed = simulate(|rt| {
            let fs = MemFs::with_disk(
                rt.clone(),
                DiskSpec {
                    bandwidth: semplar_netsim::Bw::mbyte_per_s(50.0),
                    seek: semplar_runtime::Dur::from_millis(5),
                    ..DiskSpec::default()
                },
            );
            let mut f = fs.open("/big", OpenFlags::CreateRw).unwrap();
            let t0 = rt.now();
            f.write_at(0, &Payload::sized(50_000_000)).unwrap();
            rt.now() - t0
        });
        assert!((elapsed.as_secs_f64() - 1.005).abs() < 1e-6, "{elapsed}");
    }

    #[test]
    fn split_packed_reconstructs_eof_truncation() {
        // File is 20 bytes; extents reach past EOF from different offsets.
        let extents = [(0u64, 8u64), (10, 8), (18, 8), (30, 4)];
        let file: Vec<u8> = (0..20u8).collect();
        let parts: Vec<Payload> = extents
            .iter()
            .map(|&(off, len)| {
                let start = (off as usize).min(file.len());
                let end = ((off + len) as usize).min(file.len());
                Payload::bytes(file[start..end].to_vec())
            })
            .collect();
        let packed = pack_extents(&parts);
        let split = split_packed(&extents, &packed);
        assert_eq!(split.len(), parts.len());
        for (got, want) in split.iter().zip(&parts) {
            assert_eq!(got.data(), want.data());
        }
        // Nothing truncated: fast path.
        let full = [(0u64, 4u64), (8, 4)];
        let split = split_packed(&full, &Payload::sized(8));
        assert_eq!(split[0].len(), 4);
        assert_eq!(split[1].len(), 4);
    }

    #[test]
    fn default_list_ops_match_single_ops() {
        simulate(|_| {
            let fs = MemFs::new();
            let mut f = fs.open("/l", OpenFlags::CreateRw).unwrap();
            let extents = [(0u64, 3u64), (5, 3), (10, 3)];
            let data = Payload::bytes((1..=9u8).collect());
            assert_eq!(f.write_list(&extents, &data).unwrap(), 9);
            let packed = f.read_list(&extents).unwrap();
            assert_eq!(packed.data().unwrap(), &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
            // Holes between the extents stayed zero.
            let whole = f.read_at(0, 13).unwrap();
            assert_eq!(
                whole.data().unwrap(),
                &[1, 2, 3, 0, 0, 4, 5, 6, 0, 0, 7, 8, 9]
            );
        });
    }

    #[test]
    fn two_handles_share_one_file() {
        simulate(|_| {
            let fs = MemFs::new();
            let mut a = fs.open("/shared", OpenFlags::CreateRw).unwrap();
            let mut b = fs.open("/shared", OpenFlags::ReadWrite).unwrap();
            a.write_at(0, &Payload::bytes(b"halo".to_vec())).unwrap();
            assert_eq!(b.read_at(0, 4).unwrap().data().unwrap(), b"halo");
        });
    }
}
