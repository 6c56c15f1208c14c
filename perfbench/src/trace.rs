//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name (the layer, e.g. `lang` or `runtime.sgemm`), a
//! start and end on the process's monotonic clock, its parent span, and
//! the iteration it belongs to. Every iteration opens one root span,
//! `bench`; the layer spans nest inside it. Spans stay in memory while
//! the run lasts and are written out as Chrome Trace Event JSON at the
//! end, so a run opens in Perfetto or `chrome://tracing`.
//!
//! With tracing off every call is a plain call: no clock reads, no
//! allocation.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Name of the root span of every iteration: the harness's own work
/// (input hand-off, oracle comparisons, bookkeeping) is its self time.
pub const ROOT: &str = "bench";

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    iter: u32,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iters: u32,
}

/// Per-layer self time summed over every traced iteration.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Self time in nanoseconds by span name.
    pub by_name: BTreeMap<&'static str, u64>,
    /// Summed duration of the root spans.
    pub root_ns: u64,
    /// Traced iterations.
    pub iterations: u32,
    /// Spans that escaped their parent or overlapped a sibling; each
    /// one would break the additivity of self times.
    pub malformed: usize,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer { enabled: false, origin, spans: Vec::new(), open: Vec::new(), iters: 0 }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside an open span");
        self.enabled = on;
    }

    /// Whether calls are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, iter: self.iters });
        self.open.push(idx);
    }

    fn close(&mut self) {
        let idx = self.open.pop().expect("close without open span");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Opens the root span of a new iteration (no-op when off).
    pub fn begin_iteration(&mut self) {
        if self.enabled {
            self.iters += 1;
            self.open(ROOT);
        }
    }

    /// Closes the iteration's root span (no-op when off).
    pub fn end_iteration(&mut self) {
        if self.enabled {
            self.close();
            assert!(self.open.is_empty(), "iteration ended with open spans");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Self time of every span — its duration minus the part its
    /// children cover — summed by name. Children are recorded in order
    /// on one thread, so they are disjoint; a child outside its parent
    /// or overlapping its predecessor is counted as malformed.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut last_child_end: Vec<Option<u64>> = vec![None; self.spans.len()];
        let mut out = SelfTimes { iterations: self.iters, ..SelfTimes::default() };
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            match s.parent {
                Some(p) => {
                    let parent = &self.spans[p];
                    let inside = parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns;
                    let after_sibling = last_child_end[p].is_none_or(|end| end <= s.start_ns);
                    if !inside || !after_sibling {
                        out.malformed += 1;
                    }
                    child_ns[p] += dur;
                    last_child_end[p] = Some(s.end_ns);
                }
                None => out.root_ns += dur,
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.by_name.entry(s.name).or_default() += own;
        }
        out
    }

    /// Writes the spans as Chrome Trace Event "complete" events, with the
    /// span's id, parent id and iteration in `args`. Whole iterations are
    /// written, at least one and then as many as fit in `max_events`, so
    /// that a request-heavy run stays a file a viewer opens.
    pub fn write_chrome(&self, path: &Path, max_events: usize) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut end = self.spans.len();
        if end > max_events {
            let cut = self.spans[max_events].iter;
            let first = self.spans.first().map_or(cut, |s| s.iter);
            end = self.spans.partition_point(|s| s.iter < cut.max(first + 1));
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        for (i, s) in self.spans[..end].iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"iter\":{}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.iter
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new(Instant::now());
        t.set_enabled(true);
        for _ in 0..3 {
            t.begin_iteration();
            t.span("a", || std::hint::black_box((0..1000).sum::<u64>()));
            t.span("b", || std::thread::sleep(std::time::Duration::from_micros(50)));
            t.end_iteration();
        }
        let st = t.self_times();
        assert_eq!(st.iterations, 3);
        assert_eq!(st.malformed, 0);
        assert_eq!(st.by_name.values().sum::<u64>(), st.root_ns);
        assert!(st.by_name["b"] >= 150_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        t.begin_iteration();
        assert_eq!(t.span("a", || 7), 7);
        t.end_iteration();
        let st = t.self_times();
        assert_eq!((st.iterations, st.root_ns), (0, 0));
        assert!(st.by_name.is_empty());
    }
}
