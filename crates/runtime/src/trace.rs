//! Phase tracing and ASCII Gantt rendering.
//!
//! The paper's argument is about *when* things happen — the I/O phase
//! sliding under the computation phase (Fig. 2). [`Trace`] records labelled
//! spans of virtual (or wall) time on named tracks, and [`Trace::render`]
//! draws them as an aligned ASCII timeline so the overlap is visible in a
//! terminal:
//!
//! ```text
//! compute |CCCC....CCCC....CCCC....|
//! io      |....WWWWW...WWWWW...WWWW|
//! ```

use std::sync::Arc;

use parking_lot::Mutex;

use crate::runtime::Runtime;
use crate::time::Time;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Track (row) name, e.g. a thread or phase family.
    pub track: String,
    /// Span label; its first character fills the timeline cells.
    pub label: String,
    /// Start time.
    pub start: Time,
    /// End time.
    pub end: Time,
}

/// A collector of timing spans.
pub struct Trace {
    rt: Arc<dyn Runtime>,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    /// An empty trace bound to `rt`'s clock.
    pub fn new(rt: &Arc<dyn Runtime>) -> Arc<Trace> {
        Arc::new(Trace {
            rt: rt.clone(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Record the execution of `f` as a span on `track`.
    pub fn record<T>(&self, track: &str, label: &str, f: impl FnOnce() -> T) -> T {
        let start = self.rt.now();
        let out = f();
        self.add(track, label, start, self.rt.now());
        out
    }

    /// Record an interval measured elsewhere.
    pub fn add(&self, track: &str, label: &str, start: Time, end: Time) {
        self.spans.lock().push(Span {
            track: track.to_string(),
            label: label.to_string(),
            start,
            end: end.max(start),
        });
    }

    /// All recorded spans, in insertion order.
    #[cfg(test)]
    pub(crate) fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    /// Render an ASCII Gantt chart `width` cells wide. Tracks appear in
    /// first-use order; each span fills its cells with the first character
    /// of its label.
    pub fn render(&self, width: usize) -> String {
        let spans = self.spans.lock();
        if spans.is_empty() || width == 0 {
            return String::from("(empty trace)\n");
        }
        let t0 = spans.iter().map(|s| s.start).min().expect("non-empty");
        let t1 = spans.iter().map(|s| s.end).max().expect("non-empty");
        let total = (t1 - t0).as_secs_f64().max(1e-12);

        let mut tracks: Vec<String> = Vec::new();
        for s in spans.iter() {
            if !tracks.contains(&s.track) {
                tracks.push(s.track.clone());
            }
        }
        let name_w = tracks.iter().map(|t| t.len()).max().unwrap_or(0);

        let mut out = String::new();
        for track in &tracks {
            let mut row = vec![b'.'; width];
            for s in spans.iter().filter(|s| &s.track == track) {
                let a = ((s.start - t0).as_secs_f64() / total * width as f64) as usize;
                let b = ((s.end - t0).as_secs_f64() / total * width as f64).ceil() as usize;
                let ch = s.label.bytes().next().unwrap_or(b'#');
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = ch;
                }
            }
            out.push_str(&format!(
                "{track:<name_w$} |{}|\n",
                String::from_utf8(row).expect("ascii row")
            ));
        }
        out.push_str(&format!(
            "{:<name_w$}  0s{:>pad$}\n",
            "",
            format!("{total:.2}s"),
            pad = width - 1
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use crate::time::Dur;

    #[test]
    fn record_captures_virtual_intervals() {
        let spans = simulate(|rt| {
            let tr = Trace::new(&rt);
            tr.record("compute", "C", || rt.sleep(Dur::from_millis(10)));
            tr.record("io", "W", || rt.sleep(Dur::from_millis(30)));
            tr.spans()
        });
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].end - spans[0].start).as_millis(), 10);
        assert_eq!((spans[1].end - spans[1].start).as_millis(), 30);
        assert_eq!(spans[1].start, spans[0].end);
    }

    #[test]
    fn render_shows_tracks_and_proportions() {
        let text = simulate(|rt| {
            let tr = Trace::new(&rt);
            tr.record("compute", "C", || rt.sleep(Dur::from_millis(50)));
            tr.record("io", "W", || rt.sleep(Dur::from_millis(50)));
            tr.render(20)
        });
        assert!(text.contains("compute |"));
        assert!(text.contains("io      |"));
        // Each phase fills about half its row.
        let compute_row = text.lines().next().expect("row");
        let cs = compute_row.matches('C').count();
        assert!((9..=11).contains(&cs), "{text}");
    }

    #[test]
    fn overlapping_spans_on_different_tracks_share_columns() {
        let text = simulate(|rt| {
            let tr = Trace::new(&rt);
            let t0 = rt.now();
            rt.sleep(Dur::from_millis(40));
            let t1 = rt.now();
            tr.add("a", "A", t0, t1);
            tr.add("b", "B", t0, t1);
            tr.render(10)
        });
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("AAAAAAAAAA"));
        assert!(lines[1].contains("BBBBBBBBBB"));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let text = simulate(|rt| Trace::new(&rt).render(10));
        assert_eq!(text, "(empty trace)\n");
    }
}
