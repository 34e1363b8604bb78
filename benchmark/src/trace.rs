//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! each tgdkit crate (nothing inside the program is instrumented). Each
//! span carries a name, start and end offsets from the recorder's epoch,
//! the span that caused it, and a request id shared by every span of one
//! request (or one rewrite input, or one chase). They stay in memory until
//! [`Tracer::write_jsonl`] writes them out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// the spans it opens.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("span lock: no recorder panics");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span lock: no recorder panics")[id].end_ns = end;
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span lock: no recorder panics")
            .clone()
    }

    /// Total duration and total self time (duration minus the time its
    /// direct children cover) per span name, in seconds.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let spans = self.spans();
        let mut child_s = vec![0.0f64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_s[p] += s.duration_s();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += s.duration_s();
            e.1 += (s.duration_s() - child_s[i]).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Runs `f` in a span when tracing, or bare when not: the untraced path
/// pays nothing but the branch.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, request, |id| f(Some(id))),
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer::new();
        t.span("outer", None, 1, |outer| {
            t.span("inner", Some(outer), 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
        });
        let totals = t.totals();
        let (outer_total, outer_self) = totals["outer"];
        let (inner_total, _) = totals["inner"];
        assert!(inner_total >= 0.02);
        assert!(outer_total >= inner_total);
        assert!((outer_self - (outer_total - inner_total)).abs() < 1e-9);
    }
}
