//! Per-layer metrics derived from a traced pass's spans. (Counter-based
//! values are filled in by the workload itself, probe values by
//! [`crate::probes`].)

use std::collections::{BTreeMap, VecDeque};

use crate::measure::{median, percentile};
use crate::trace::Span;
use crate::workloads::LayerMap;

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn sum_v_ms<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    spans.map(Span::v_ms).sum()
}

/// Fold the span-derived metrics of one traced pass into `m`. `cpu_s` is
/// the pass's own user + sys time.
///
/// Host time is read only off spans that never yield (the codec calls, the
/// `iwrite_at` submit, `Testbed::new`): a span that blocks inside the
/// lock-step simulator also counts every other actor's run time, so calls
/// that block report their virtual time and their count only.
pub fn from_spans(m: &mut LayerMap, spans: &[Span], cpu_s: f64) {
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    m.insert("trace.spans", spans.len() as f64);

    if let Some(tb) = named("testbed.new").next() {
        m.insert("clusters.testbed_new_ms", tb.h_ns() as f64 / 1e6);
    }

    // mpi: messages, and virtual time per checkpoint cycle.
    let cycles = named("cycle").count();
    if cycles > 0 {
        m.insert("mpi.msgs", named("send").count() as f64);
        m.insert("mpi.halo_v_ms", sum_v_ms(named("halo")) / cycles as f64);
        m.insert(
            "mpi.barrier_v_ms",
            sum_v_ms(named("barrier")) / cycles as f64,
        );
    }

    // core.engine: client ops against the ADIO calls that served them.
    let client_ops: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name.starts_with("client."))
        .collect();
    let by_id = |id| &spans[id as usize];
    let mut queue_wait_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == "core.adio" && (s.name == "read" || s.name == "write"))
        .filter_map(|s| {
            let op = by_id(s.parent?);
            op.name
                .starts_with("client.")
                .then(|| (s.v_start_ns - op.v_start_ns) as f64 / 1e6)
        })
        .collect();
    // A pipelined writer ships one frame per `write` call, in order, over
    // one I/O thread: the k-th ADIO write on a path serves the k-th call.
    let mut calls: BTreeMap<u64, VecDeque<&Span>> = BTreeMap::new();
    for s in named("pipeline.write") {
        calls.entry(s.key).or_default().push_back(s);
    }
    for s in spans
        .iter()
        .filter(|s| s.layer == "core.adio" && s.name == "write")
    {
        if let Some(call) = calls.get_mut(&s.key).and_then(VecDeque::pop_front) {
            queue_wait_ms.push(s.v_start_ns.saturating_sub(call.v_start_ns) as f64 / 1e6);
        }
    }
    if !queue_wait_ms.is_empty() {
        m.insert("core.engine.queue_wait_v_ms", median(&queue_wait_ms));
    }
    if !client_ops.is_empty() {
        let latency = sum_v_ms(client_ops.iter().copied());
        m.insert(
            "core.engine.wait_blocked_share",
            sum_v_ms(named("multi.wait")) / latency,
        );
        let submits: Vec<f64> = named("stripe.iwrite_at").map(|s| s.h_ns() as f64).collect();
        m.insert("core.engine.submit_host_ns", median(&submits));
    }

    // core.adio: every call through the decorator.
    let adio: Vec<&Span> = spans.iter().filter(|s| s.layer == "core.adio").collect();
    if !adio.is_empty() {
        m.insert("core.adio.calls", adio.len() as f64);
        let v_ms = |name: &str| {
            sorted(
                adio.iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.v_ms())
                    .collect(),
            )
        };
        let opens = v_ms("open");
        m.insert(
            "core.adio.open_v_ms",
            opens.iter().sum::<f64>() / opens.len().max(1) as f64,
        );
        for (name, p50, p99) in [
            (
                "write",
                "core.adio.write_v_ms_p50",
                "core.adio.write_v_ms_p99",
            ),
            ("read", "core.adio.read_v_ms_p50", "core.adio.read_v_ms_p99"),
        ] {
            let v = v_ms(name);
            if !v.is_empty() {
                m.insert(p50, percentile(&v, 50.0));
                m.insert(p99, percentile(&v, 99.0));
            }
        }
    }

    // core.pipeline: a `write` call that does not stall takes exactly the
    // modelled compression time, so the fastest call is the stall-free one.
    let writes: Vec<u64> = named("pipeline.write").map(Span::v_ns).collect();
    if let Some(&free) = writes.iter().min() {
        m.insert(
            "core.pipeline.stall_v_ms",
            writes.iter().map(|v| v - free).sum::<u64>() as f64 / 1e6,
        );
    }

    // compress: the codec's own host time.
    let codec = |name: &'static str| {
        let (bytes, ns) = named(name).fold((0u64, 0u64), |(b, n), s| (b + s.bytes, n + s.h_ns()));
        (
            named(name).count(),
            bytes as f64 / (1 << 20) as f64,
            ns as f64 / 1e9,
        )
    };
    let (n_c, mib_c, s_c) = codec("compress");
    let (n_d, mib_d, s_d) = codec("decompress");
    if n_c + n_d > 0 {
        m.insert("compress.calls", (n_c + n_d) as f64);
        m.insert("compress.in_mb", mib_c);
        if s_c > 0.0 {
            m.insert("compress.compress_mb_per_s", mib_c / s_c);
        }
        if s_d > 0.0 {
            m.insert("compress.decompress_mb_per_s", mib_d / s_d);
        }
        m.insert("compress.host_share", (s_c + s_d) / cpu_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn span(
        id: u32,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        key: u64,
        bytes: u64,
        v: (u64, u64),
        h: (u64, u64),
    ) -> Span {
        Span {
            id,
            parent,
            op: 0,
            layer,
            name,
            key,
            bytes,
            v_start_ns: v.0,
            v_end_ns: v.1,
            h_start_ns: h.0,
            h_end_ns: h.1,
        }
    }

    #[test]
    fn striped_ops_and_pipeline_calls_yield_queue_wait_and_stall() {
        let ms = 1_000_000;
        let spans = vec![
            // A striped client write served 2 ms and 6 ms after submit.
            span(
                0,
                None,
                "core",
                "client.write",
                1,
                0,
                (0, 10 * ms),
                (0, 100),
            ),
            span(
                1,
                Some(0),
                "core.adio",
                "write",
                1,
                0,
                (2 * ms, 5 * ms),
                (10, 20),
            ),
            span(
                2,
                Some(0),
                "core.adio",
                "write",
                1,
                0,
                (6 * ms, 9 * ms),
                (20, 30),
            ),
            span(
                3,
                Some(0),
                "core",
                "multi.wait",
                0,
                0,
                (5 * ms, 10 * ms),
                (50, 100),
            ),
            span(4, Some(0), "core", "stripe.iwrite_at", 0, 0, (0, 0), (0, 7)),
            // Two pipelined writes on another path; the second stalls 4 ms.
            span(
                5,
                None,
                "core",
                "pipeline.write",
                2,
                0,
                (0, 10 * ms),
                (0, 1),
            ),
            span(
                6,
                None,
                "core",
                "pipeline.write",
                2,
                0,
                (10 * ms, 24 * ms),
                (1, 2),
            ),
            span(
                7,
                None,
                "core.adio",
                "write",
                2,
                0,
                (10 * ms, 20 * ms),
                (1, 2),
            ),
            span(
                8,
                None,
                "core.adio",
                "write",
                2,
                0,
                (24 * ms, 30 * ms),
                (2, 3),
            ),
            span(
                9,
                Some(5),
                "compress",
                "compress",
                0,
                2 << 20,
                (0, 0),
                (0, 1_000_000_000),
            ),
        ];
        let mut m = LayerMap::new();
        from_spans(&mut m, &spans, 4.0);
        // Waits: 2, 6 (striped), 10, 14 (pipelined, call start → service start).
        assert_eq!(m["core.engine.queue_wait_v_ms"], 8.0);
        assert_eq!(m["core.engine.wait_blocked_share"], 0.5);
        assert_eq!(m["core.engine.submit_host_ns"], 7.0);
        assert_eq!(m["core.pipeline.stall_v_ms"], 4.0);
        assert_eq!(m["core.adio.calls"], 4.0);
        assert_eq!(m["core.adio.write_v_ms_p50"], 3.0);
        assert_eq!(m["core.adio.write_v_ms_p99"], 10.0);
        assert_eq!(m["compress.in_mb"], 2.0);
        assert_eq!(m["compress.compress_mb_per_s"], 2.0);
        assert_eq!(m["compress.host_share"], 0.25);
        assert!(!m.contains_key("mpi.msgs"));
    }
}
