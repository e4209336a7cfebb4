//! Span tracing from outside the program: benchmark-owned decorators at
//! the repository's trait seams, plus spans around the drivers' own calls.
//!
//! A [`Span`] records name, layer, operation id, parent, and both clocks:
//! virtual start/end (`rt.now()`) and host start/end (`Instant`). Spans
//! stay in memory and are written as JSON lines when the run ends. A
//! layer's self time is its span minus the part its children cover
//! ([`self_time`]); it is taken on the virtual clock only, because a span
//! that blocks inside the lock-step simulator also counts, on the host clock,
//! every other actor's run time.
//!
//! Nesting on one thread follows a thread-local stack ([`Tracer::span`]).
//! Work that crosses threads — an asynchronous request serviced by an I/O
//! thread — is tied together by a *client op* ([`Tracer::begin_op`]): the
//! driver opens it over a byte range of a path, and the ADIO decorator on
//! the I/O thread finds it again by `(path, offset)`.

use std::cell::RefCell;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use semplar::{AdioFile, AdioFs, IoMeter, IoResult, OpenFlags, Payload};
use semplar_compress::{Codec, Corrupt};
use semplar_runtime::Runtime;

use crate::measure::Fnv;

/// Index of a span in its tracer.
pub type SpanId = u32;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// Client operation this span belongs to (0 = none): spans of one
    /// request share it across threads.
    pub op: u32,
    pub layer: &'static str,
    pub name: &'static str,
    /// FNV-1a of the path a client op or ADIO call works on (0 = none):
    /// what ties a file's calls together after the fact.
    pub key: u64,
    /// Bytes the call moved (0 when not a data call).
    pub bytes: u64,
    pub v_start_ns: u64,
    pub v_end_ns: u64,
    pub h_start_ns: u64,
    pub h_end_ns: u64,
}

impl Span {
    pub fn v_ns(&self) -> u64 {
        self.v_end_ns - self.v_start_ns
    }
    pub fn h_ns(&self) -> u64 {
        self.h_end_ns - self.h_start_ns
    }
    pub fn v_ms(&self) -> f64 {
        self.v_ns() as f64 / 1e6
    }
}

/// A client op still open: the byte range of a path (by key) it covers.
struct OpenOp {
    key: u64,
    start: u64,
    end: u64,
    span: SpanId,
    op: u32,
}

#[derive(Default)]
struct TraceState {
    spans: Vec<Span>,
    ops: Vec<OpenOp>,
    next_op: u32,
}

thread_local! {
    /// Spans open on this thread, innermost last: `(span, op)`.
    static STACK: RefCell<Vec<(SpanId, u32)>> = const { RefCell::new(Vec::new()) };
}

fn path_key(path: &str) -> u64 {
    let mut h = Fnv::default();
    h.bytes(path.as_bytes());
    h.0
}

/// Where a new span hangs: its parent span and the client op it belongs to
/// (0 = none).
type Link = (Option<SpanId>, u32);

/// The innermost span open on this thread and its op: `(None, 0)` if none.
fn stack_top() -> Link {
    STACK.with(|s| {
        s.borrow()
            .last()
            .map_or((None, 0), |&(p, op)| (Some(p), op))
    })
}

/// Handle to a client op opened with [`Tracer::begin_op`].
#[derive(Clone, Copy, Debug)]
pub struct OpHandle {
    span: SpanId,
    op: u32,
}

/// The in-memory span store of one traced pass.
pub struct Tracer {
    rt: Arc<dyn Runtime>,
    epoch: Instant,
    state: Mutex<TraceState>,
}

impl Tracer {
    pub fn new(rt: Arc<dyn Runtime>) -> Arc<Tracer> {
        Arc::new(Tracer {
            rt,
            epoch: Instant::now(),
            state: Mutex::new(TraceState::default()),
        })
    }

    fn host_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceState> {
        // Every update leaves the store valid, so a panicking actor must
        // not hide the spans recorded so far.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn open(
        &self,
        (parent, op): Link,
        key: u64,
        layer: &'static str,
        name: &'static str,
    ) -> SpanId {
        let (v, h) = (self.rt.now().as_nanos(), self.host_ns());
        let mut st = self.lock();
        let id = st.spans.len() as SpanId;
        st.spans.push(Span {
            id,
            parent,
            op,
            layer,
            name,
            key,
            bytes: 0,
            v_start_ns: v,
            v_end_ns: v,
            h_start_ns: h,
            h_end_ns: h,
        });
        id
    }

    fn close(&self, id: SpanId, bytes: u64) {
        let (v, h) = (self.rt.now().as_nanos(), self.host_ns());
        let mut st = self.lock();
        let s = &mut st.spans[id as usize];
        s.v_end_ns = v;
        s.h_end_ns = h;
        s.bytes = bytes;
    }

    fn run<T>(
        &self,
        link: Link,
        key: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
        bytes: impl FnOnce(&T) -> u64,
    ) -> T {
        let id = self.open(link, key, layer, name);
        STACK.with(|s| s.borrow_mut().push((id, link.1)));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        self.close(id, bytes(&out));
        out
    }

    /// Record `f` as a span nested under whatever span is open on this
    /// thread (a root span if none is).
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_with(layer, name, f, |_| 0)
    }

    /// [`Tracer::span`], recording the bytes the call moved.
    pub fn span_with<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
        bytes: impl FnOnce(&T) -> u64,
    ) -> T {
        self.run(stack_top(), 0, layer, name, f, bytes)
    }

    /// [`Tracer::span`] for a call that works on `path`: the span carries
    /// the path's key, so it can be matched with the file's ADIO calls.
    pub fn span_on<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        path: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.run(stack_top(), path_key(path), layer, name, f, |_| 0)
    }

    /// Open a client op over `[offset, offset + len)` of `path`. It stays
    /// open — and findable from other threads — until [`Tracer::end_op`].
    pub fn begin_op(
        &self,
        layer: &'static str,
        name: &'static str,
        path: &str,
        offset: u64,
        len: u64,
    ) -> OpHandle {
        let (parent, _) = stack_top();
        let key = path_key(path);
        let op = {
            let mut st = self.lock();
            st.next_op += 1;
            st.next_op
        };
        let span = self.open((parent, op), key, layer, name);
        self.lock().ops.push(OpenOp {
            key,
            start: offset,
            end: offset.saturating_add(len),
            span,
            op,
        });
        OpHandle { span, op }
    }

    /// Record `f` as a child of the client op `h` (its submit or its wait).
    pub fn span_in<T>(
        &self,
        h: OpHandle,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.run((Some(h.span), h.op), 0, layer, name, f, |_| 0)
    }

    /// Close the client op `h`, recording the bytes it moved.
    pub fn end_op(&self, h: OpHandle, bytes: u64) {
        self.close(h.span, bytes);
        self.lock().ops.retain(|o| o.span != h.span);
    }

    /// The newest open client op on `path` covering `offset`.
    fn find_op(&self, key: u64, offset: u64) -> Option<Link> {
        let st = self.lock();
        st.ops
            .iter()
            .rev()
            .find(|o| o.key == key && (o.start..o.end).contains(&offset))
            .map(|o| (Some(o.span), o.op))
    }

    /// Record `f` as an ADIO call on `path`: a child of the client op
    /// covering `offset` when one is open, else of this thread's own span.
    fn adio<T>(
        &self,
        name: &'static str,
        path: &str,
        offset: u64,
        f: impl FnOnce() -> T,
        bytes: impl FnOnce(&T) -> u64,
    ) -> T {
        let key = path_key(path);
        let link = self.find_op(key, offset).unwrap_or_else(stack_top);
        self.run(link, key, "core.adio", name, f, bytes)
    }

    /// Hand over every span recorded so far, in id order.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

/// Tracing that may be off: the drivers call through this, so an untraced
/// (timed) pass runs the bare calls and a traced pass records them.
#[derive(Clone, Default)]
pub struct Tracing(pub Option<Arc<Tracer>>);

impl Tracing {
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.0 {
            Some(t) => t.span(layer, name, f),
            None => f(),
        }
    }

    pub fn span_on<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        path: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        match &self.0 {
            Some(t) => t.span_on(layer, name, path, f),
            None => f(),
        }
    }

    pub fn begin_op(
        &self,
        layer: &'static str,
        name: &'static str,
        path: &str,
        offset: u64,
        len: u64,
    ) -> Option<OpHandle> {
        self.0
            .as_ref()
            .map(|t| t.begin_op(layer, name, path, offset, len))
    }

    pub fn span_in<T>(
        &self,
        h: Option<OpHandle>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        match (&self.0, h) {
            (Some(t), Some(h)) => t.span_in(h, layer, name, f),
            _ => f(),
        }
    }

    pub fn end_op(&self, h: Option<OpHandle>, bytes: u64) {
        if let (Some(t), Some(h)) = (&self.0, h) {
            t.end_op(h, bytes);
        }
    }

    pub fn take_spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |t| t.take_spans())
    }
}

/// Write `spans` as JSON lines (one object per span) to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, v_self_ns) in spans.iter().zip(virtual_self_times(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\"key\":\"{:016x}\",\
             \"bytes\":{},\"v_start_ns\":{},\"v_end_ns\":{},\"v_self_ns\":{v_self_ns},\"h_start_ns\":{},\
             \"h_end_ns\":{}}}",
            s.id, parent, s.op, s.layer, s.name, s.key, s.bytes, s.v_start_ns, s.v_end_ns, s.h_start_ns, s.h_end_ns
        )?;
    }
    out.flush()
}

/// Self time of the interval `[start, end)`: its length minus the part the
/// `children` intervals cover. Children may overlap each other (requests
/// serviced concurrently) and may stick out of the parent (an asynchronous
/// child outliving the call that started it); only the union inside the
/// parent counts.
fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut frontier = start;
    for (s, e) in clipped {
        if e > frontier {
            covered += e - s.max(frontier);
            frontier = e;
        }
    }
    (end - start) - covered
}

/// Virtual self time of every span, indexed by span id.
fn virtual_self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.v_start_ns, s.v_end_ns));
        }
    }
    spans
        .iter()
        .map(|s| self_time(s.v_start_ns, s.v_end_ns, &children[s.id as usize]))
        .collect()
}

/// [`AdioFs`] decorator: the core ↔ srb boundary. Every ADIO call through
/// it (and through the files it opens) is a span.
pub struct TracedFs<F: AdioFs> {
    pub inner: F,
    pub tracer: Arc<Tracer>,
}

impl<F: AdioFs> AdioFs for TracedFs<F> {
    fn open(&self, path: &str, flags: OpenFlags) -> IoResult<Box<dyn AdioFile>> {
        self.open_pinned(path, flags, None)
    }

    fn open_pinned(
        &self,
        path: &str,
        flags: OpenFlags,
        pin: Option<usize>,
    ) -> IoResult<Box<dyn AdioFile>> {
        let file = self.tracer.adio(
            "open",
            path,
            0,
            || self.inner.open_pinned(path, flags, pin),
            |_| 0,
        )?;
        Ok(Box::new(TracedFile {
            inner: file,
            path: path.to_string(),
            tracer: self.tracer.clone(),
        }))
    }

    fn delete(&self, path: &str) -> IoResult<()> {
        self.tracer
            .adio("delete", path, 0, || self.inner.delete(path), |_| 0)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// [`AdioFile`] decorator opened by [`TracedFs`].
struct TracedFile {
    inner: Box<dyn AdioFile>,
    path: String,
    tracer: Arc<Tracer>,
}

fn payload_len(r: &IoResult<Payload>) -> u64 {
    r.as_ref().map_or(0, |p| p.len())
}

fn written(r: &IoResult<u64>) -> u64 {
    *r.as_ref().unwrap_or(&0)
}

impl AdioFile for TracedFile {
    fn read_at(&mut self, offset: u64, len: u64) -> IoResult<Payload> {
        let inner = &mut self.inner;
        self.tracer.adio(
            "read",
            &self.path,
            offset,
            || inner.read_at(offset, len),
            payload_len,
        )
    }

    fn write_at(&mut self, offset: u64, data: &Payload) -> IoResult<u64> {
        let inner = &mut self.inner;
        self.tracer.adio(
            "write",
            &self.path,
            offset,
            || inner.write_at(offset, data),
            written,
        )
    }

    fn size(&mut self) -> IoResult<u64> {
        let inner = &mut self.inner;
        self.tracer
            .adio("size", &self.path, 0, || inner.size(), |_| 0)
    }

    fn close(&mut self) -> IoResult<()> {
        let inner = &mut self.inner;
        self.tracer
            .adio("close", &self.path, 0, || inner.close(), |_| 0)
    }

    fn read_list(&mut self, extents: &[(u64, u64)]) -> IoResult<Payload> {
        let inner = &mut self.inner;
        let first = extents.first().map_or(0, |e| e.0);
        self.tracer.adio(
            "read",
            &self.path,
            first,
            || inner.read_list(extents),
            payload_len,
        )
    }

    fn write_list(&mut self, extents: &[(u64, u64)], data: &Payload) -> IoResult<u64> {
        self.write_list_with(extents, data, true)
    }

    fn write_list_with(
        &mut self,
        extents: &[(u64, u64)],
        data: &Payload,
        sieve: bool,
    ) -> IoResult<u64> {
        let inner = &mut self.inner;
        let first = extents.first().map_or(0, |e| e.0);
        self.tracer.adio(
            "write",
            &self.path,
            first,
            || inner.write_list_with(extents, data, sieve),
            written,
        )
    }

    fn meter(&self) -> Option<Arc<IoMeter>> {
        self.inner.meter()
    }
}

/// [`Codec`] decorator: every compress/decompress call is a span carrying
/// the uncompressed bytes it consumed or produced.
pub struct TracedCodec<C: Codec> {
    pub inner: C,
    pub tracer: Arc<Tracer>,
}

impl<C: Codec> Codec for TracedCodec<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) {
        let n = src.len() as u64;
        self.tracer.span_with(
            "compress",
            "compress",
            || self.inner.compress(src, dst),
            |_| n,
        );
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<(), Corrupt> {
        let grown = std::cell::Cell::new(0);
        self.tracer.span_with(
            "compress",
            "decompress",
            || {
                let before = dst.len();
                let r = self.inner.decompress(src, dst);
                grown.set((dst.len() - before) as u64);
                r
            },
            |_| grown.get(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time(10, 110, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 80)]), 60);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 60), (40, 80)]), 30);
        // A child nested in another adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Children sticking out are clipped; ones outside are ignored.
        assert_eq!(
            self_time(100, 200, &[(50, 120), (180, 300), (300, 400)]),
            60
        );
        // Fully covered, in any order.
        assert_eq!(self_time(0, 10, &[(5, 10), (0, 5)]), 0);
        assert_eq!(self_time(0, 10, &[(0, 100)]), 0);
        // Zero-length spans and children.
        assert_eq!(self_time(5, 5, &[(0, 10)]), 0);
        assert_eq!(self_time(0, 10, &[(3, 3)]), 10);
    }

    #[test]
    fn spans_nest_by_thread_and_ops_link_across_threads() {
        let spans = semplar_runtime::simulate(|rt| {
            let t = Tracer::new(rt.clone());
            t.span("workload", "outer", || {
                t.span("mpi", "inner", || {
                    rt.sleep(semplar_runtime::Dur::from_millis(2))
                });
                let op = t.begin_op("core", "client.write", "/f", 100, 50);
                let t2 = t.clone();
                // Another actor (an I/O thread stand-in) finds the op by
                // path and offset, not by its own (empty) stack.
                semplar_runtime::spawn(&rt, "io", move || {
                    t2.adio("write", "/f", 120, || (), |_| 7);
                    t2.adio("write", "/other", 120, || (), |_| 0);
                })
                .join_unwrap();
                t.span_in(op, "core", "multi.wait", || ());
                t.end_op(op, 50);
            });
            t.take_spans()
        });
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let outer = by_name("outer");
        assert_eq!(outer.parent, None);
        assert_eq!(by_name("inner").parent, Some(outer.id));
        assert_eq!(by_name("inner").v_ns(), 2_000_000);
        let op = by_name("client.write");
        assert_eq!(op.parent, Some(outer.id));
        assert_eq!(op.bytes, 50);
        let writes: Vec<&Span> = spans.iter().filter(|s| s.name == "write").collect();
        assert_eq!(
            (writes[0].parent, writes[0].op, writes[0].bytes),
            (Some(op.id), op.op, 7)
        );
        assert_eq!((writes[1].parent, writes[1].op), (None, 0));
        assert_eq!(by_name("multi.wait").parent, Some(op.id));
        // The self-time pass sees inner and the op as outer's children:
        // all of outer's 2 ms of virtual time passed inside inner.
        let selfs = virtual_self_times(&spans);
        assert_eq!(outer.v_ns(), 2_000_000);
        assert_eq!(selfs[outer.id as usize], 0);
        assert_eq!(selfs[by_name("inner").id as usize], 2_000_000);
    }
}
