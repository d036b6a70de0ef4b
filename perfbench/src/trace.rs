//! Traced runs. Spans are recorded only in the benchmark's own code, around
//! its calls into each layer's public API; they stay in memory until the
//! run ends, are written as one JSON-lines file, and the per-layer metrics
//! are derived from that file alone.

use crate::stats::median;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Layer call, e.g. `segment.pgseg`.
    pub name: String,
    /// Microseconds since the run started.
    pub start_us: f64,
    /// Microseconds since the run started.
    pub end_us: f64,
    /// Index of the enclosing span in the file, if any.
    pub parent: Option<u32>,
    /// The request this span serves (0 outside requests).
    pub request: u64,
}

/// One line of the span file: a span or a counter read at the end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Line {
    /// A timed interval.
    Span(Span),
    /// A named count or ratio read from the program's public counters.
    Counter(Counter),
}

/// A named value recorded once, at the end of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Counter {
    /// Metric name, e.g. `storage.compactions`.
    pub name: String,
    /// Its value.
    pub value: f64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    lines: Vec<Line>,
    spans: u32,
    request: u64,
    open: Option<u32>,
    last_request: Option<u32>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            lines: Vec::new(),
            spans: 0,
            request: 0,
            open: None,
            last_request: None,
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Time `f` as span `name`, a child of the open request span if any.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start_us = self.now_us();
        let out = f();
        self.push(name, start_us, self.open);
        out
    }

    fn push(&mut self, name: &str, start_us: f64, parent: Option<u32>) -> u32 {
        let end_us = self.now_us();
        let span = Span { name: name.to_string(), start_us, end_us, parent, request: self.request };
        self.lines.push(Line::Span(span));
        self.spans += 1;
        self.spans - 1
    }

    /// Run one request under a `request` span; spans recorded inside `f`
    /// become its children and carry its id. The parent span is written
    /// after its children (a span is written when it ends).
    pub fn request<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.request += 1;
        let start_us = self.now_us();
        // Children name the parent by the index it will take once written:
        // after every child. Record children first, then patch.
        let first_child = self.lines.len();
        self.open = Some(u32::MAX);
        let out = f(self);
        self.open = None;
        let id = self.spans;
        for line in &mut self.lines[first_child..] {
            if let Line::Span(s) = line {
                if s.parent == Some(u32::MAX) {
                    s.parent = Some(id);
                }
            }
        }
        self.last_request = Some(self.push("request", start_us, None));
        out
    }

    /// Record span `name` from `start` until now.
    pub fn record(&mut self, name: &str, start: Instant) {
        let start_us = start.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        self.push(name, start_us, self.open);
    }

    /// Time `f` as span `name` after a request ended: a call into one layer
    /// on that request's inputs, recorded as the request's child.
    pub fn probe<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start_us = self.now_us();
        let out = f();
        self.push(name, start_us, self.last_request);
        out
    }

    /// Time `f` once and record the interval under every name in `names`
    /// (one call that is both an API handler and a layer call).
    pub fn span_as<R>(&mut self, names: &[&str], f: impl FnOnce() -> R) -> R {
        let start_us = self.now_us();
        let out = f();
        for name in names {
            self.push(name, start_us, self.open);
        }
        out
    }

    /// Record a counter value.
    pub fn counter(&mut self, name: &str, value: f64) {
        self.lines.push(Line::Counter(Counter { name: name.to_string(), value }));
    }

    /// Write every line to `path` as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for line in &self.lines {
            text.push_str(&serde_json::to_string(line).expect("spans serialize"));
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

/// Read a span file back.
pub fn read(path: &std::path::Path) -> Result<Vec<Line>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines().map(|l| serde_json::from_str::<Line>(l).map_err(|e| e.to_string())).collect()
}

/// Per-layer metrics from a span file: each span name's median duration
/// (`<name>_ms`, or `<name>_us` for spans listed in `micro`) and every
/// counter as written.
pub fn derive(lines: &[Line], micro: &[&str]) -> BTreeMap<String, f64> {
    let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for line in lines {
        match line {
            Line::Span(s) => durations.entry(&s.name).or_default().push(s.end_us - s.start_us),
            Line::Counter(c) => {
                out.insert(c.name.clone(), c.value);
            }
        }
    }
    for (name, us) in durations {
        let m = median(&us).expect("non-empty by construction");
        if micro.contains(&name) {
            out.insert(format!("{name}_us"), m);
        } else {
            out.insert(format!("{name}_ms"), m / 1e3);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_point_at_their_request_and_share_its_id() {
        let mut t = Tracer::new();
        t.span("setup", || ());
        t.request(|t| {
            t.span("api.decode", || ());
            t.span("api.handle", || ());
        });
        t.request(|t| t.span("api.decode", || ()));
        t.probe("segment.pgseg", || ());
        let spans: Vec<&Span> = t
            .lines
            .iter()
            .filter_map(|l| match l {
                Line::Span(s) => Some(s),
                Line::Counter(_) => None,
            })
            .collect();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "setup",
                "api.decode",
                "api.handle",
                "request",
                "api.decode",
                "request",
                "segment.pgseg"
            ]
        );
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent, spans[3].parent), (Some(3), Some(3), None));
        assert_eq!((spans[1].request, spans[4].request), (1, 2));
        assert_eq!((spans[4].parent, spans[6].parent), (Some(5), Some(5)));
        assert_eq!(spans[6].request, 2);
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
    }

    #[test]
    fn file_round_trips_and_derives_medians_and_counters() {
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let mut t = Tracer::new();
        for _ in 0..3 {
            t.span("core.parallelism", || ());
            t.span("core.lineage", || std::thread::sleep(std::time::Duration::from_millis(2)));
        }
        t.counter("storage.compactions", 4.0);
        t.write(&path).unwrap();
        let lines = read(&path).unwrap();
        assert_eq!(lines, t.lines);
        let m = derive(&lines, &["core.parallelism"]);
        assert!(m["core.lineage_ms"] >= 2.0);
        assert!(m.contains_key("core.parallelism_us"));
        assert_eq!(m["storage.compactions"], 4.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
