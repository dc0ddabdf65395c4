//! In-memory spans, written as Chrome-trace JSON when a traced run ends.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (spans inside the engine are a later issue). Every
//! span carries the frame it belongs to and the span that caused it;
//! a span's self time is its duration minus what its children cover.

use crate::json::Json;
use std::path::Path;
use std::sync::Mutex;

/// Id of a recorded span (its index); `NO_PARENT` marks a root.
pub type SpanId = usize;
pub const NO_PARENT: SpanId = usize::MAX;
/// Frame id of spans that belong to no frame (link polls).
pub const NO_FRAME: i64 = -1;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The layer the time belongs to (crate or `core` module).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub frame: i64,
    pub parent: SpanId,
    /// Chrome-trace row; spans on one row must nest or not overlap.
    pub lane: u32,
}

/// Append-only span store, shareable with the engine's network thread
/// through the traced link.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn with_capacity(n: usize) -> Self {
        Self { spans: Mutex::new(Vec::with_capacity(n)) }
    }

    pub fn record(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("tracer mutex poisoned");
        spans.push(span);
        spans.len() - 1
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer mutex poisoned").clone()
    }

    /// Writes every span as a Chrome-trace "complete" event (load it in
    /// `chrome://tracing` or Perfetto). Timestamps are microseconds.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events: Vec<Json> = self
            .spans()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent =
                    if s.parent == NO_PARENT { Json::Null } else { Json::Num(s.parent as f64) };
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("cat", Json::Str(s.layer.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.lane))),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            ("parent", parent),
                            ("frame", Json::Num(s.frame as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", Json::Arr(events)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                kids[s.parent].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let mut covered = 0u64;
            let mut edge = s.start_ns;
            for &(a, b) in k.iter() {
                let a = a.max(edge);
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::read::parse;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span { name, layer: "core.engine", start_ns: start, end_ns: end, frame: 3, parent, lane: 1 }
    }

    #[test]
    fn self_time_is_the_span_minus_the_union_of_its_children() {
        let spans = [
            span("frame", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),  // overlaps a: union is 10..60
            span("c", 90, 130, 0), // clipped to the parent: 90..100
            span("leaf", 12, 20, 1),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 8, 30, 40, 8]);
    }

    #[test]
    fn chrome_trace_is_loadable_json_with_frame_and_parent() {
        let t = Tracer::with_capacity(4);
        let root = t.record(span("frame", 1_000, 9_000, NO_PARENT));
        t.record(span("core.zf", 2_000, 3_500, root));
        let dir = std::env::temp_dir().join(format!("agora-bench-trace-{}", std::process::id()));
        let path = dir.join("t.json");
        t.write_chrome(&path).unwrap();
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("core.zf"));
        assert_eq!(events[1].get("dur"), Some(&Json::Num(1.5)));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(args.get("frame"), Some(&Json::Num(3.0)));
        assert_eq!(events[0].get("args").unwrap().get("parent"), Some(&Json::Null));
    }
}
