//! The closed-loop client: one thread sends a request, waits for the reply,
//! then sends the next. It keeps the latency samples, the operation counts,
//! the busy time the end-to-end throughput divides by, and — in a traced
//! run — the span recorder.

use crate::trace::Tracer;
use prov_api::{ProvService, Request, Response};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What a request is, for sampling and for the traced run's extra spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Setup traffic: agents, root artifacts.
    Preamble,
    /// `RecordActivity`, sampled as `write`.
    Write,
    /// One-shot `Segment`, sampled as `segment`.
    Segment,
    /// `OpenSession` (not an end-to-end metric of its own).
    Open,
    /// `Expand` / `Restrict`; the pair is sampled as `adjust` by the caller.
    Adjust,
    /// `Summarize`, sampled as `summarize`.
    Summarize,
    /// Bounded `Lineage`, sampled as `lineage`.
    Lineage,
    /// Unbounded-descendants `Query`, sampled as `impact`.
    Impact,
    /// First page of a cursor walk.
    FirstPage,
    /// Resumed page of a cursor walk, sampled as `page`.
    Page,
    /// Property-filtered one-shot `Query`.
    Filter,
    /// `CloseSession`.
    Close,
}

impl Kind {
    fn sample(self) -> Option<&'static str> {
        Some(match self {
            Kind::Write => "write",
            Kind::Segment => "segment",
            Kind::Summarize => "summarize",
            Kind::Lineage => "lineage",
            Kind::Impact => "impact",
            Kind::Page => "page",
            _ => return None,
        })
    }
}

/// The client and everything it measured.
pub struct Client {
    /// The service under test.
    pub service: ProvService,
    /// Span recorder, in a traced run.
    pub tracer: Option<Tracer>,
    /// Latency samples in ms, by end-to-end metric stem.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Requests sent (plus opens and restart cycles, where counted).
    pub attempted: u64,
    /// Requests answered with an error; they are neither sampled nor
    /// counted as operations.
    pub failed: u64,
    /// Time spent inside timed operations; throughput divides by it.
    pub busy: Duration,
    /// Operations counted for throughput.
    pub ops: u64,
    /// Whether samples and throughput are being recorded (false in setup).
    pub measuring: bool,
    /// Id the service will give the next opened session.
    pub next_session: u64,
    /// Whether latency samples are recorded (false while a store is built
    /// under a set-up-only policy).
    pub sampling: bool,
    /// Response bytes of read requests in the measured phase, and their count.
    pub read_bytes: (u64, u64),
    /// Durability activity of sampled writes (traced runs).
    pub writes: WriteStats,
    /// Snapshot acquisitions of every service this client drove.
    pub snapshots: prov_core::SnapshotCounters,
    /// Rows scanned and rows returned by cursor pages (traced runs).
    pub page_scan: (u64, u64),
    /// `frontier_peak` of each impact query (traced runs).
    pub frontier: Vec<f64>,
}

/// What sampled writes cost the storage layer, from `DurabilityCounters`.
#[derive(Debug, Default, Clone, Copy)]
pub struct WriteStats {
    /// Writes observed.
    pub count: u64,
    /// Fsyncs they issued, compactions included.
    pub fsyncs: u64,
    /// Compactions they triggered.
    pub compactions: u64,
    /// WAL bytes appended by writes that did not compact, and their count.
    pub wal_bytes: (u64, u64),
}

impl Client {
    /// A client of `service`.
    pub fn new(service: ProvService, traced: bool) -> Client {
        Client {
            service,
            tracer: traced.then(Tracer::new),
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            busy: Duration::ZERO,
            ops: 0,
            measuring: false,
            next_session: 0,
            sampling: true,
            read_bytes: (0, 0),
            writes: WriteStats::default(),
            snapshots: prov_core::SnapshotCounters::default(),
            page_scan: (0, 0),
            frontier: Vec::new(),
        }
    }

    /// Serve `service` from now on (a restart); session ids start over.
    pub fn replace_service(&mut self, service: ProvService) -> ProvService {
        self.next_session = 0;
        let old = std::mem::replace(&mut self.service, service);
        let counters = old.db().snapshot_counters();
        self.snapshots.refreshes += counters.refreshes;
        self.snapshots.rebuilds += counters.rebuilds;
        self.snapshots.reuses += counters.reuses;
        old
    }

    /// Record one latency sample under `stem`.
    pub fn sample(&mut self, stem: &'static str, elapsed: Duration) {
        if self.sampling {
            self.samples.entry(stem).or_default().push(elapsed.as_secs_f64() * 1e3);
        }
    }

    /// Add `elapsed` to the busy time while measuring.
    pub fn busy(&mut self, elapsed: Duration) {
        if self.measuring {
            self.busy += elapsed;
        }
    }

    /// Send one request string and return the response string. Untraced,
    /// the request is timed from request bytes to response bytes around
    /// `handle_json`; traced, decode, handle and encode are separate spans.
    pub fn send(&mut self, request: &str, kind: Kind) -> String {
        let t = Instant::now();
        // Set-up traffic that is not sampled is not traced either.
        let response = match self.tracer.as_mut().filter(|_| self.sampling) {
            None => self.service.handle_json(request),
            Some(tracer) => traced(tracer, &mut self.service, request, kind),
        };
        let elapsed = t.elapsed();
        self.attempted += 1;
        if !answered(&response) {
            // A failed request is neither a sample nor a served operation.
            self.failed += 1;
            return response;
        }
        if let Some(stem) = kind.sample() {
            // Reads are sampled in the measured phase only; writes wherever
            // they are acknowledged under the default durability policy.
            if self.measuring || kind == Kind::Write {
                self.sample(stem, elapsed);
            }
        }
        if self.measuring {
            self.ops += 1;
            if kind != Kind::Write {
                self.read_bytes.0 += response.len() as u64;
                self.read_bytes.1 += 1;
            }
        }
        self.busy(elapsed);
        response
    }

    /// Send one `RecordActivity`; traced, also account what it cost the
    /// storage layer.
    pub fn write(&mut self, request: &str) {
        let observe = self.tracer.is_some() && self.sampling;
        let counters = |s: &ProvService| (s.db().durability_counters(), s.db().wal_bytes());
        let before = counters(&self.service);
        self.send(request, Kind::Write);
        if let (true, (Some(b), Some(wb)), (Some(a), Some(wa))) =
            (observe, before, counters(&self.service))
        {
            let w = &mut self.writes;
            w.count += 1;
            w.fsyncs += a.fsyncs - b.fsyncs;
            w.compactions += a.snapshots_written - b.snapshots_written;
            if a.snapshots_written == b.snapshots_written {
                w.wal_bytes.0 += wa - wb;
                w.wal_bytes.1 += 1;
            }
        }
    }

    /// Time a layer call on the inputs of the request just served, in a
    /// traced run; untraced, the call is skipped.
    pub fn probe(&mut self, name: &str, f: impl FnOnce(&ProvService)) {
        if let Some(tracer) = self.tracer.as_mut() {
            let service = &self.service;
            tracer.probe(name, || f(service));
        }
    }
}

/// Whether `response` answers its request rather than reporting an error.
pub fn answered(response: &str) -> bool {
    !response.starts_with("{\"Error\"")
}

/// The traced request path: the same three steps `handle_json` takes,
/// each under its own span. A lineage request first acquires the snapshot,
/// so a pending refresh is timed as `core.snapshot` and not inside the
/// handler; a write's handler is also `core.record_activity`.
fn traced(tracer: &mut Tracer, service: &mut ProvService, request: &str, kind: Kind) -> String {
    tracer.request(|t| {
        if kind == Kind::Lineage {
            t.span("core.snapshot", || drop(service.db().snapshot()));
        }
        let decoded = t.span("api.decode", || serde_json::from_str::<Request>(request));
        let response = match decoded {
            Ok(req) => match kind {
                Kind::Write => {
                    t.span_as(&["api.handle", "core.record_activity"], || service.handle(&req))
                }
                _ => t.span("api.handle", || service.handle(&req)),
            },
            // Parse failures take the untraced path, which reports them.
            Err(_) => return service.handle_json(request),
        };
        t.span("api.encode", || encode(&response))
    })
}

/// Serialize a response as `handle_json` does.
pub fn encode(response: &Response) -> String {
    serde_json::to_string(response).expect("responses always serialize")
}
