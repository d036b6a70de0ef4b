//! The two workloads. Each drives one `ProvService` through
//! `handle_json` from a single closed-loop client over a durable store in a
//! fresh directory, and every workload issues every request type, so every
//! end-to-end metric is measured on each of them; what differs is where the
//! work lands:
//!
//! * `explore` — read-only analyst tasks on a frozen ~20k-vertex graph: the
//!   work is in `segment`, `summary`, `store.query` and the wire encoding.
//!   Its writes and opens come with restarts, outside its operations.
//! * `cold_start` — restart cycles over an ~80k-vertex store (snapshot plus
//!   a WAL tail): the work is in the read side of `storage` and the index
//!   build.

use crate::check::{self, Ancestry, Check, Walk};
use crate::client::{self, Client, Kind};
use crate::gen::{self, History, TaskSpec};
use prov_api::{
    BoundarySpec, CloseSessionRequest, ExpandRequest, LineageDir, LineageRequest,
    OpenSessionRequest, ProvService, PsgDto, QueryRequest, QuerySpec, Request, Response,
    RestrictRequest, SegmentDto, SegmentOptions, SegmentRequest, SessionId, SummarizeRequest,
    VertexPredSpec,
};
use prov_core::{DurabilityPolicy, LineageDirection, ProvDb};
use prov_model::{VertexId, VertexKind};
use prov_segment::{PgSegQuery, PgSegSession};
use prov_store::storage::{column, wal, Io, StdIo, WalStorage};
use prov_store::{Pipeline, PropFilter, ProvGraph, ProvIndex, QueryCursor};
use prov_summary::{PgSumQuery, PropertyAggregation, SegmentRef};
use rand::Rng;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Where work directories and span files go, relative to the checkout.
pub const OUT_DIR: &str = ".perfbench";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Analyst tasks between two restarts of the explore service.
const TASKS_PER_REOPEN: u64 = 100;
/// Activities in the explore graph (~20k vertices).
const EXPLORE_ACTIVITIES: usize = 5_000;
/// Of those, the last ones, sent as acknowledged writes after set-up and
/// after every restart.
const EXPLORE_WRITES: usize = 200;
/// Activities in the cold-start store (~80k vertices).
const COLD_ACTIVITIES: usize = 20_000;
/// Writes acknowledged per restart cycle (the same records every cycle).
const WRITES_PER_CYCLE: usize = 8;
/// Analyst tasks per restart cycle.
const TASKS_PER_CYCLE: usize = 2;
/// Share of the cold-start history left in the WAL tail, in percent.
const COLD_TAIL_PERCENT: usize = 7;
/// Hop bound of every lineage request (four activities upstream).
const LINEAGE_HOPS: u32 = 8;
/// Rows per cursor page, and the walk's row limit.
const PAGE_ROWS: usize = 500;
const WALK_ROWS: usize = 3_000;
/// How far back the impact query starts when its frontier must stay small.
const IMPACT_BACK: usize = 150;
/// Every how many tasks the segment is re-evaluated by the CflrB reference.
const VERIFY_EVERY: u64 = 8;
/// Every how many restart cycles the recovered index is rebuilt and compared.
const INDEX_CHECK_EVERY: u64 = 4;

/// What one run produced besides the client's own counts.
pub struct Outcome {
    /// The client, with its samples, counts and (traced) spans.
    pub client: Client,
    /// Durations of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// `VmHWM` of the process when the measured phase ended, in MB: the
    /// output checks that follow it are not counted.
    pub peak_rss_mb: f64,
    /// Snapshot plus WAL bytes on disk at the end.
    pub disk_bytes: u64,
    /// Failed output checks.
    pub errors: Vec<String>,
}

/// A fresh store directory under [`OUT_DIR`], removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn fresh(tag: &str) -> WorkDir {
        let path = Path::new(OUT_DIR).join(format!("work-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("work directory can be created");
        WorkDir(path)
    }

    /// Fsync every file, so that the first acknowledged write does not pay
    /// for flushing bytes written before it.
    fn sync(&self) {
        for entry in std::fs::read_dir(&self.0).expect("work directory lists") {
            let file =
                std::fs::File::open(entry.expect("directory entry").path()).expect("file opens");
            file.sync_all().expect("file syncs");
        }
    }

    fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .expect("work directory lists")
            .map(|e| e.expect("directory entry").metadata().expect("file metadata").len())
            .sum()
    }

    fn names(&self) -> Vec<std::ffi::OsString> {
        std::fs::read_dir(&self.0)
            .expect("work directory lists")
            .map(|e| e.expect("directory entry").file_name())
            .collect()
    }

    /// A copy of the store's files in a fresh directory, kept on disk so
    /// that it does not count in the process's memory.
    fn copy(&self, tag: &str) -> WorkDir {
        let copy = WorkDir::fresh(tag);
        for name in self.names() {
            std::fs::copy(self.0.join(&name), copy.0.join(&name)).expect("store file copies");
        }
        copy
    }

    /// Put the directory back to the files of `from`: remove the others,
    /// copy and sync those whose bytes differ.
    fn restore(&self, from: &WorkDir) {
        let names = from.names();
        for name in self.names() {
            if !names.contains(&name) {
                std::fs::remove_file(self.0.join(&name)).expect("stale file removes");
            }
        }
        for name in &names {
            let (src, dst) = (from.0.join(name), self.0.join(name));
            if !same_bytes(&src, &dst) {
                std::fs::copy(&src, &dst).expect("store file restores");
                std::fs::File::open(&dst).and_then(|f| f.sync_all()).expect("store file syncs");
            }
        }
    }

    /// The path of the live file whose name starts with `prefix`.
    fn file(&self, prefix: &str) -> PathBuf {
        let mut names: Vec<String> = std::fs::read_dir(&self.0)
            .expect("work directory lists")
            .map(|e| e.expect("directory entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(prefix))
            .collect();
        names.sort();
        self.0.join(names.pop().expect("store file present"))
    }
}

/// Whether the files `a` and `b` both exist and hold the same bytes,
/// compared a block at a time.
fn same_bytes(a: &Path, b: &Path) -> bool {
    let (Ok(mut fa), Ok(mut fb)) = (std::fs::File::open(a), std::fs::File::open(b)) else {
        return false;
    };
    let len = |f: &std::fs::File| f.metadata().expect("file metadata").len();
    if len(&fa) != len(&fb) {
        return false;
    }
    let (mut ba, mut bb) = (vec![0u8; 1 << 16], vec![0u8; 1 << 16]);
    loop {
        let n = fa.read(&mut ba).expect("store file reads");
        if n == 0 {
            return true;
        }
        fb.read_exact(&mut bb[..n]).expect("store file reads");
        if ba[..n] != bb[..n] {
            return false;
        }
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Output checks collected over a run.
#[derive(Default)]
struct Checks {
    errors: Vec<String>,
    /// Lineage and impact answers by `(start, walk, hops, visible)`, checked
    /// against the benchmark's BFS at the end.
    answers: HashMap<(VertexId, bool, Option<u32>, usize), Vec<VertexId>>,
}

impl Checks {
    fn expect(&mut self, what: &str, result: Check) {
        if let Err(e) = result {
            self.fail(format!("{what}: {e}"));
        }
    }

    fn fail(&mut self, message: String) {
        if self.errors.len() < 16 {
            self.errors.push(message);
        }
    }

    /// Parse a response; error responses were counted as failed requests.
    fn parse(&mut self, what: &str, response: &str) -> Option<Response> {
        match serde_json::from_str::<Response>(response) {
            Ok(Response::Error(_)) => None,
            Ok(r) => Some(r),
            Err(e) => {
                self.fail(format!("{what}: unparseable response: {e}"));
                None
            }
        }
    }

    fn answer(
        &mut self,
        start: VertexId,
        walk: Walk,
        hops: Option<u32>,
        visible: usize,
        rows: Vec<VertexId>,
    ) {
        let key = (start, walk == Walk::Descendants, hops, visible);
        match self.answers.get(&key) {
            Some(seen) if *seen != rows => {
                self.fail(format!("{walk:?} of {start} changed between requests"))
            }
            Some(_) => {}
            None => {
                self.answers.insert(key, rows);
            }
        }
    }

    /// Check every recorded lineage and impact answer against a BFS over
    /// `graph`, which holds every vertex the answers could see.
    fn finish(&mut self, graph: &ProvGraph) {
        let ancestry = Ancestry::of(graph);
        let answers = std::mem::take(&mut self.answers);
        for ((start, down, hops, visible), rows) in answers {
            let walk = if down { Walk::Descendants } else { Walk::Ancestors };
            self.expect("lineage", check::lineage(&ancestry, start, walk, hops, visible, &rows));
        }
    }
}

/// Per-workload inputs and knobs.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether spans are recorded.
    pub traced: bool,
}

/// Loop whole rounds until the phase has lasted `seconds`; returns the
/// process's peak RSS at its end, in MB.
fn phase(c: &mut Client, seconds: f64, mut round: impl FnMut(&mut Client)) -> f64 {
    c.measuring = true;
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < seconds {
        round(c);
    }
    c.measuring = false;
    peak_rss_mb()
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present");
    kb / 1024.0
}

fn resolve(c: &Client, hist: &History, entity: usize) -> VertexId {
    let name = &hist.entities[entity].name;
    c.service.db().graph().vertex_by_name(name).unwrap_or_else(|| panic!("{name} was ingested"))
}

/// Open the store in `dir` as the serving database. The open is timed
/// (`open` sample); a traced run then times the read side piece by piece on
/// the same files, while the opened database is alive.
fn open(c: &mut Client, dir: &WorkDir) -> ProvDb {
    let t = Instant::now();
    let db = match c.tracer.as_mut() {
        Some(tracer) => tracer.span("core.provdb_open", || ProvDb::open(&dir.0)),
        None => ProvDb::open(&dir.0),
    }
    .expect("store opens");
    c.sample("open", t.elapsed());
    if let Some(tracer) = c.tracer.as_mut() {
        let io = StdIo::open(&dir.0).expect("store directory opens");
        let name = |p: &str| dir.file(p).file_name().unwrap().to_string_lossy().into_owned();
        let (snap, log) = tracer.span("storage.read", || {
            (io.read(&name("snapshot-")).unwrap(), io.read(&name("wal-")).unwrap())
        });
        let (snap, log) = (snap.expect("snapshot present"), log.expect("wal present"));
        tracer.counter("storage.snapshot_mb", snap.len() as f64 / 1e6);
        let (graph, seq) =
            tracer.span("storage.snapshot_decode", || column::decode_eager(&snap)).unwrap();
        black_box(tracer.span("storage.wal_scan", || wal::scan(&log, seq + 1)).unwrap());
        black_box(tracer.span("store.index.build", || ProvIndex::build(&graph)));
        drop(graph);
        black_box(tracer.span("storage.recover", || {
            WalStorage::open(Box::new(StdIo::open(&dir.0).unwrap()), DurabilityPolicy::default())
        }))
        .expect("store recovers");
    }
    db
}

/// Send activities `range` of `hist` as `RecordActivity` requests.
fn ingest(c: &mut Client, hist: &History, range: std::ops::Range<usize>) {
    for i in range {
        let request = hist.record_request(i);
        c.write(&request);
    }
}

/// Generate `activities` of history from `seed` (plus `extra` kept back).
fn generate(c: &mut Client, seed: u64, activities: usize) -> History {
    let t = Instant::now();
    let mut hist = History::new(seed, gen::ROOTS + 4 * activities);
    for _ in 0..activities {
        hist.next();
    }
    if let Some(tracer) = c.tracer.as_mut() {
        tracer.record("workload.generate", t);
    }
    hist
}

/// Set up a store of the first `build` activities of a fresh `activities`
/// history: sent through the wire without fsync (set-up traffic, not
/// sampled), compacted after all but `tail` of them, which stay in the WAL,
/// synced, then opened under the default policy to serve.
fn setup(
    c: &mut Client,
    seed: u64,
    activities: usize,
    build: usize,
    tail: usize,
    tag: &str,
) -> (History, WorkDir) {
    let hist = generate(c, seed, activities);
    let dir = WorkDir::fresh(tag);
    let unsynced = DurabilityPolicy { fsync_on_commit: false, ..DurabilityPolicy::never_compact() };
    let db = || {
        ProvDb::open_with_io(
            Box::new(StdIo::open(&dir.0).expect("store directory")),
            unsynced.clone(),
        )
    };
    c.sampling = false;
    c.replace_service(ProvService::from_db(db().expect("fresh store opens")));
    for request in gen::preamble() {
        c.send(&request, Kind::Preamble);
    }
    ingest(c, &hist, 0..build - tail);
    drop(c.replace_service(ProvService::new()));
    let mut compacting = db().expect("store reopens");
    match c.tracer.as_mut() {
        Some(tracer) => tracer.span("storage.compact", || compacting.compact()),
        None => compacting.compact(),
    }
    .expect("store compacts");
    c.replace_service(ProvService::from_db(compacting));
    ingest(c, &hist, build - tail..build);
    drop(c.replace_service(ProvService::new()));
    c.sampling = true;
    dir.sync();
    let serving = open(c, &dir);
    c.replace_service(ProvService::from_db(serving));
    (hist, dir)
}

/// Repeat `setup` [`SETUPS`] times, timing each, and keep the last.
fn setups<T>(c: &mut Client, mut setup: impl FnMut(&mut Client, usize) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        let out = setup(c, k);
        times.push(t.elapsed().as_secs_f64());
        kept = Some(out);
    }
    (kept.expect("at least one set-up"), times)
}

/// Check the store holds exactly what the client sent.
fn check_counts(checks: &mut Checks, graph: &ProvGraph, vertices: usize, edges: usize) {
    if (graph.vertex_count(), graph.edge_count()) != (vertices, edges) {
        checks.fail(format!(
            "store holds {}v/{}e, the stream sent {vertices}v/{edges}e",
            graph.vertex_count(),
            graph.edge_count()
        ));
    }
}

/// Reopen `dir` untimed after the run: the recovered graph must equal the
/// live one and pass `validate()`.
fn check_reopen(checks: &mut Checks, dir: &WorkDir, live: &ProvGraph) {
    let db = ProvDb::open(&dir.0).expect("store reopens");
    if db.graph() != live {
        checks.fail("reopened store differs from the live graph".into());
    }
    checks.expect("reopened graph", db.graph().validate());
}

/// The cursor walk: first versions of every artifact, capped.
fn walk_pipeline() -> Pipeline {
    Pipeline::from_kind(VertexKind::Entity)
        .filter(PropFilter::prop("version", 1i64))
        .limit(WALK_ROWS)
}

fn descendants(start: VertexId) -> Pipeline {
    let edges = prov_core::lineage::ancestry_edges(LineageDirection::Descendants);
    Pipeline::from_ids(vec![start]).traverse(&edges, 1, prov_store::Traverse::UNBOUNDED)
}

fn query(pipeline: &Pipeline, page_size: Option<usize>, cursor: Option<QueryCursor>) -> String {
    gen::wire(&Request::Query(QueryRequest {
        query: QuerySpec::Pipeline(pipeline.clone()),
        session: None,
        page_size,
        cursor,
        max_expansions: None,
        max_paths: None,
    }))
}

/// Send one query (first or resumed page, or one shot) and, traced, time
/// the evaluator and the paginator on the same inputs.
fn send_query(
    c: &mut Client,
    checks: &mut Checks,
    pipeline: &Pipeline,
    page_size: Option<usize>,
    cursor: Option<QueryCursor>,
    kind: Kind,
) -> Option<prov_api::QueryResponse> {
    let response = c.send(&query(pipeline, page_size, cursor), kind);
    if c.tracer.is_some() {
        let index = c.service.db().snapshot();
        let threads = c.service.db().parallelism();
        let plan = prov_store::Plan::compile(pipeline.clone()).expect("pipeline compiles");
        let watermark = cursor.map_or(index.cursor(), |k| k.watermark());
        let mut rows = Vec::new();
        c.probe("store.query.eval", |s| {
            rows = prov_store::evaluate_at(s.db().graph(), &index, &plan, watermark, threads)
                .unwrap()
                .rows;
        });
        c.probe("store.query.paginate", |_| {
            black_box(prov_store::paginate(&rows, watermark, cursor.as_ref(), page_size));
        });
    }
    match checks.parse("query", &response)? {
        Response::Query(q) => Some(q),
        other => {
            checks.fail(format!("query answered with {other:?}"));
            None
        }
    }
}

/// Segment-shaped responses: the DTO of a `Segment` or `Session` reply.
fn segment_of(
    checks: &mut Checks,
    what: &str,
    response: &str,
) -> Option<(Option<SessionId>, SegmentDto)> {
    let (session, segment) = match checks.parse(what, response)? {
        Response::Segment(r) => (None, r.segment),
        Response::Session(r) => (Some(r.session), r.segment),
        other => {
            checks.fail(format!("{what} answered with {other:?}"));
            return None;
        }
    };
    checks.expect(what, check::segment_closed(&segment));
    Some((session, segment))
}

/// One analyst task; `impact` is the entity whose descendants it asks for.
/// A failed request (counted by the client) cuts the task short.
fn task(
    c: &mut Client,
    checks: &mut Checks,
    hist: &History,
    spec: TaskSpec,
    impact: usize,
    verify: bool,
) {
    let name = |e: usize| prov_api::EntityRef::from(hist.entities[e].name.as_str());
    let ((s, d), (s2, d2)) = (spec.first, spec.second);
    let (s_id, impact_id) = (resolve(c, hist, s), resolve(c, hist, impact));
    let options = SegmentOptions::default();
    // Each stage is segmented inside its birth window (the "when" boundary),
    // as a wire boundary and as the same query for the library calls.
    let stages: Vec<(BoundarySpec, PgSegQuery)> = [spec.first, spec.second]
        .into_iter()
        .map(|(src, dst)| {
            let graph = c.service.db().graph();
            let (src, dst) = (resolve(c, hist, src), resolve(c, hist, dst));
            let window = prov_api::BirthWindow {
                from: graph.vertex(src).birth,
                to: graph.vertex(dst).birth + 1,
            };
            let spec = BoundarySpec::none().with_vertex(VertexPredSpec::BirthIn(window));
            let query = PgSegQuery::between(vec![src], vec![dst])
                .with_boundary(spec.resolve(graph).expect("birth windows resolve"));
            (spec, query)
        })
        .collect();

    // One-shot PgSeg.
    let request = gen::wire(&Request::Segment(SegmentRequest {
        src: vec![name(s)],
        dst: vec![name(d)],
        boundary: stages[0].0.clone(),
        options,
    }));
    let response = c.send(&request, Kind::Segment);
    let mut seg = None;
    c.probe("segment.pgseg", |svc| {
        seg = svc.db().segment(stages[0].1.clone(), &options.to_options()).ok()
    });
    c.probe("segment.dto", |svc| {
        black_box(SegmentDto::from_segment(svc.db().graph(), seg.as_ref().expect("segment")));
    });
    let Some((_, segment)) = segment_of(checks, "segment", &response) else { return };
    if verify {
        let reference =
            SegmentOptions { evaluator: Some(prov_api::EvaluatorSpec::CflrBitset), ..options };
        match c.service.db().segment(stages[0].1.clone(), &reference.to_options()) {
            Ok(r) => {
                checks.expect("segment vs CflrB", check::segment_matches(&segment, &r.vertices))
            }
            Err(e) => checks.fail(format!("CflrB reference failed: {e}")),
        }
    }

    // Induce once, adjust repeatedly; then a similar stage beside it.
    let mut own: Vec<PgSegSession> = Vec::new();
    let mut sessions = Vec::new();
    let mut inputs: Vec<Vec<VertexId>> = Vec::new();
    for ((src, dst), (boundary, query)) in [(s, d), (s2, d2)].into_iter().zip(&stages) {
        let request = gen::wire(&Request::OpenSession(OpenSessionRequest {
            src: vec![name(src)],
            dst: vec![name(dst)],
            boundary: boundary.clone(),
            options,
        }));
        let response = c.send(&request, Kind::Open);
        c.probe("segment.session_open", |svc| {
            own.push(
                svc.db()
                    .segment_session(query.clone(), &options.to_options())
                    .expect("session opens"),
            );
        });
        let Some((Some(id), segment)) = segment_of(checks, "open", &response) else { return };
        if id != SessionId::new(c.next_session) {
            checks.fail(format!("session {id} opened, {} expected", c.next_session));
        }
        c.next_session += 1;
        sessions.push(id);
        inputs.push(segment.vertex_ids());
        if sessions.len() > 1 {
            break;
        }
        let expand =
            gen::wire(&Request::Expand(ExpandRequest { session: id, roots: vec![name(s)], k: 1 }));
        let adjusting = Instant::now();
        let response = c.send(&expand, Kind::Adjust);
        c.probe("segment.expand", |_| own[0].expand(&[s_id], 1));
        let Some((_, _)) = segment_of(checks, "expand", &response) else { return };
        let boundary =
            BoundarySpec::none().with_vertex(VertexPredSpec::ExcludeKind(VertexKind::Agent));
        let restrict = gen::wire(&Request::Restrict(RestrictRequest {
            session: id,
            boundary: boundary.clone(),
        }));
        let response = c.send(&restrict, Kind::Adjust);
        if client::answered(&response) {
            c.sample("adjust", adjusting.elapsed());
        }
        c.probe("segment.restrict", |svc| {
            own[0].restrict(&boundary.resolve(svc.db().graph()).unwrap())
        });
        let Some((_, segment)) = segment_of(checks, "restrict", &response) else { return };
        if segment.vertices.iter().any(|v| v.kind == VertexKind::Agent) {
            checks.fail("restrict kept an agent".into());
        }
        inputs[0] = segment.vertex_ids();
    }

    // PgSum over both sessions.
    let request = gen::wire(&Request::Summarize(SummarizeRequest {
        sessions: sessions.clone(),
        k: None,
        entity_keys: vec![],
        activity_keys: vec![],
    }));
    let response = c.send(&request, Kind::Summarize);
    if c.tracer.is_some() {
        let aggregation = PropertyAggregation::ignore_all()
            .with_keys(VertexKind::Entity, &["filename"])
            .with_keys(VertexKind::Activity, &["command"]);
        let query = PgSumQuery::new(aggregation, 1);
        let segments: Vec<SegmentRef> = own.iter().map(|s| SegmentRef::from(s.segment())).collect();
        let mut psg = None;
        c.probe("summary.pgsum", |_| {
            psg = Some(prov_summary::pgsum(own[0].graph(), &segments, &query))
        });
        c.probe("summary.dto", |_| drop(black_box(PsgDto::from_psg(psg.as_ref().unwrap()))));
    }
    match checks.parse("summarize", &response) {
        Some(Response::Summary(r)) => {
            checks.expect("summary", check::summary(c.service.db().graph(), &inputs, &r.summary))
        }
        Some(other) => checks.fail(format!("summarize answered with {other:?}")),
        None => return,
    }

    // Bounded lineage of the first stage's product.
    if !lineage(c, checks, hist, d) {
        return;
    }

    // Impact: every descendant of `impact`, one shot.
    let visible = c.service.db().graph().vertex_count();
    let pipeline = descendants(impact_id);
    let Some(q) = send_query(c, checks, &pipeline, None, None, Kind::Impact) else { return };
    c.frontier.push(q.stats.query.frontier_peak as f64);
    checks.answer(impact_id, Walk::Descendants, None, visible, q.rows);

    // A cursor walk, page by page; its pages must add up to the one-shot answer.
    let pipeline = walk_pipeline();
    let (mut pages, mut cursor, mut kind) = (Vec::new(), None, Kind::FirstPage);
    loop {
        let Some(q) = send_query(c, checks, &pipeline, Some(PAGE_ROWS), cursor, kind) else {
            return;
        };
        c.page_scan.0 += q.stats.query.rows_scanned;
        c.page_scan.1 += q.rows.len() as u64;
        pages.push(q.rows);
        match q.cursor {
            Some(next) => (cursor, kind) = (Some(next), Kind::Page),
            None => break,
        }
    }
    let one_shot = match cursor {
        Some(k) => c.service.db().query_at(pipeline, k.watermark()),
        None => c.service.db().query(pipeline),
    };
    checks.expect(
        "cursor walk",
        check::walk(&pages, &one_shot.expect("walk pipeline evaluates").rows),
    );

    for session in sessions {
        c.send(&gen::wire(&Request::CloseSession(CloseSessionRequest { session })), Kind::Close);
    }
}

/// A bounded ancestors `Lineage` of `entity`; traced, the parallelism
/// lookup and the lineage engine are timed on the same input.
fn lineage(c: &mut Client, checks: &mut Checks, hist: &History, entity: usize) -> bool {
    let request = gen::wire(&Request::Lineage(LineageRequest {
        entity: hist.entities[entity].name.as_str().into(),
        direction: LineageDir::Ancestors,
        max_hops: Some(LINEAGE_HOPS),
    }));
    let visible = c.service.db().graph().vertex_count();
    let response = c.send(&request, Kind::Lineage);
    match checks.parse("lineage", &response) {
        Some(Response::Lineage(r)) => {
            c.probe("core.parallelism", |svc| {
                black_box(svc.db().parallelism());
            });
            c.probe("core.lineage", |svc| {
                drop(black_box(svc.db().lineage_within(
                    r.entity,
                    LineageDirection::Ancestors,
                    LINEAGE_HOPS,
                )))
            });
            checks.answer(r.entity, Walk::Ancestors, Some(LINEAGE_HOPS), visible, r.vertices);
            true
        }
        Some(other) => {
            checks.fail(format!("lineage answered with {other:?}"));
            false
        }
        None => false,
    }
}

/// Untimed end of a durable workload: counts, reopen equality, lineage BFS.
fn finish(
    mut c: Client,
    mut checks: Checks,
    hist: &History,
    dir: WorkDir,
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
) -> Outcome {
    let live: Arc<ProvGraph> = c.service.db().graph_shared();
    check_counts(&mut checks, &live, hist.expected_vertices(), hist.expected_edges());
    drop(c.replace_service(ProvService::new()));
    check_reopen(&mut checks, &dir, &live);
    checks.finish(&live);
    let disk_bytes = dir.bytes();
    Outcome { client: c, setup_s, peak_rss_mb, disk_bytes, errors: checks.errors }
}

/// `explore`: read-only analyst tasks on a frozen ~20k-vertex graph.
pub fn explore(run: &Run) -> Outcome {
    let mut c = Client::new(ProvService::new(), run.traced);
    let (n, durable) = (EXPLORE_ACTIVITIES, EXPLORE_WRITES);
    let ((hist, dir), setup_s) =
        setups(&mut c, |c, k| setup(c, run.seed, n, n - durable, 0, &format!("explore{k}")));
    // The last activities arrive as acknowledged writes on the serving store
    // after the timed set-up, and again after every restart, which starts
    // from the base store: the tasks always see the same graph.
    let base = dir.copy("explore-base");
    ingest(&mut c, &hist, n - durable..n);
    let mut checks = Checks::default();
    check_counts(
        &mut checks,
        c.service.db().graph(),
        hist.expected_vertices(),
        hist.expected_edges(),
    );
    let mut rng = gen::task_rng(run.seed);
    let n = hist.activities.len();
    let mut tasks = 0u64;
    let peak_rss_mb = phase(&mut c, run.seconds, |c| {
        if tasks > 0 && tasks.is_multiple_of(TASKS_PER_REOPEN) {
            // A restart, timed as an open: spread over the phase so that open
            // samples span the run, but not one of this workload's operations.
            c.measuring = false;
            drop(c.replace_service(ProvService::new()));
            dir.restore(&base);
            let db = open(c, &dir);
            c.replace_service(ProvService::from_db(db));
            ingest(c, &hist, n - durable..n);
            c.measuring = true;
        }
        let spec = hist.task(&mut rng, n / 10, n);
        // Early products: their descendants span most of the graph.
        let impact = gen::ROOTS + rng.gen_range(0..32usize);
        task(c, &mut checks, &hist, spec, impact, tasks.is_multiple_of(VERIFY_EVERY));
        tasks += 1;
    });
    finish(c, checks, &hist, dir, setup_s, peak_rss_mb)
}

/// An output of one of the last [`IMPACT_BACK`] of `n` activities. Every
/// descendant of it is younger, so an impact query from it keeps its BFS
/// frontier under `PAR_FRONTIER_MIN` and never starts the executor pool.
fn recent_output(hist: &History, rng: &mut rand::rngs::StdRng, n: usize) -> usize {
    hist.activities[rng.gen_range(n - IMPACT_BACK..n)].outputs[0]
}

/// `cold_start`: restart cycles `open → Lineage → Query → tasks → writes →
/// drop` over an ~80k-vertex store whose files are restored before each
/// cycle, so every cycle recovers the same bytes.
pub fn cold_start(run: &Run) -> Outcome {
    let mut c = Client::new(ProvService::new(), run.traced);
    let (n, tail) = (COLD_ACTIVITIES, COLD_ACTIVITIES * COLD_TAIL_PERCENT / 100);
    let ((mut hist, dir), setup_s) =
        setups(&mut c, |c, k| setup(c, run.seed, n, n, tail, &format!("cold{k}")));
    let mut checks = Checks::default();
    let (vertices, edges) = (hist.expected_vertices(), hist.expected_edges());
    let pristine = dir.copy("cold-pristine");
    let writes: Vec<String> = (0..WRITES_PER_CYCLE)
        .map(|_| {
            let i = hist.next();
            hist.record_request(i)
        })
        .collect();
    let mut rng = gen::task_rng(run.seed);
    let mut cycles = 0u64;
    drop(c.replace_service(ProvService::new()));
    let peak_rss_mb = phase(&mut c, run.seconds, |c| {
        dir.restore(&pristine);
        let t = Instant::now();
        let db = open(c, &dir);
        c.busy(t.elapsed());
        c.attempted += 1;
        check_counts(&mut checks, db.graph(), vertices, edges);
        if cycles.is_multiple_of(INDEX_CHECK_EVERY)
            && *db.snapshot() != ProvIndex::build(db.graph())
        {
            checks.fail("recovered index differs from ProvIndex::build".into());
        }
        c.replace_service(ProvService::from_db(db));
        let target = hist.activities[rng.gen_range(n / 10..n)].outputs[0];
        lineage(c, &mut checks, &hist, target);
        let template = &hist.activities[n - 1].command;
        let filter = Pipeline::from_kind(VertexKind::Activity)
            .filter(PropFilter::prop("command", template.as_str()));
        send_query(c, &mut checks, &filter, None, None, Kind::Filter);
        for k in 0..TASKS_PER_CYCLE {
            let spec = hist.task(&mut rng, n / 10, n);
            let impact = recent_output(&hist, &mut rng, n);
            task(
                c,
                &mut checks,
                &hist,
                spec,
                impact,
                k == 0 && cycles.is_multiple_of(VERIFY_EVERY),
            );
        }
        for write in &writes {
            c.write(write);
        }
        let t = Instant::now();
        drop(c.replace_service(ProvService::new()));
        c.busy(t.elapsed());
        cycles += 1;
    });
    // One more cycle, untimed, whose live graph the reopen must reproduce.
    dir.restore(&pristine);
    c.sampling = false;
    c.replace_service(ProvService::from_db(ProvDb::open(&dir.0).expect("store opens")));
    for write in &writes {
        c.write(write);
    }
    let live = c.service.db().graph_shared();
    check_counts(&mut checks, &live, hist.expected_vertices(), hist.expected_edges());
    drop(c.replace_service(ProvService::new()));
    check_reopen(&mut checks, &dir, &live);
    checks.finish(&live);
    let disk_bytes = dir.bytes();
    c.ops = cycles;
    Outcome { client: c, setup_s, peak_rss_mb, disk_bytes, errors: checks.errors }
}
