//! End-to-end benchmark of the provenance service.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Prints every metric with its unit and sample count, then, as the last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics untraced (`--trace 0`), the per-layer metrics
//! traced (`--trace 1`, which also writes the span file). Exits non-zero if
//! any output check fails or any request is answered with an error. See
//! `perfbench/README.md`.

mod check;
mod client;
mod gen;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use workloads::{Outcome, Run, OUT_DIR};

/// End-to-end metrics: name, unit, and the latency sample stem behind it.
const END_TO_END: [(&str, &str, Option<&str>); 11] = [
    ("setup_s", "s", None),
    ("peak_rss_mb", "MB", None),
    ("ops_per_s", "ops/s", None),
    ("lineage_p50_ms", "ms", Some("lineage")),
    ("segment_p50_ms", "ms", Some("segment")),
    ("adjust_p50_ms", "ms", Some("adjust")),
    ("summarize_p50_ms", "ms", Some("summarize")),
    ("impact_p50_ms", "ms", Some("impact")),
    ("page_p50_ms", "ms", Some("page")),
    ("open_p50_ms", "ms", Some("open")),
    ("disk_mb", "MB", None),
];

/// Printed beside the end-to-end metrics but not one of them: an
/// acknowledged write waits for an fsync, whose latency on a shared virtual
/// disk drifts between runs by more than any bound a gate could hold.
const PRINTED: [(&str, &str, Option<&str>); 1] = [("write_p50_ms", "ms", Some("write"))];

/// Per-layer metrics of a traced run, with units.
const PER_LAYER: [(&str, &str); 35] = [
    ("api.decode_ms", "ms"),
    ("api.handle_ms", "ms"),
    ("api.encode_ms", "ms"),
    ("api.response_kb", "KB"),
    ("segment.pgseg_ms", "ms"),
    ("segment.dto_ms", "ms"),
    ("segment.session_open_ms", "ms"),
    ("segment.expand_ms", "ms"),
    ("segment.restrict_ms", "ms"),
    ("summary.pgsum_ms", "ms"),
    ("summary.dto_ms", "ms"),
    ("store.query.eval_ms", "ms"),
    ("store.query.paginate_ms", "ms"),
    ("store.query.rows_scanned_per_row", "ratio"),
    ("store.query.frontier_peak", "count"),
    ("core.parallelism_us", "us"),
    ("core.snapshot_ms", "ms"),
    ("core.snapshot_refreshes", "count"),
    ("core.snapshot_rebuilds", "count"),
    ("core.lineage_ms", "ms"),
    ("core.record_activity_ms", "ms"),
    ("core.open_ms", "ms"),
    ("storage.fsyncs_per_write", "ratio"),
    ("storage.wal_bytes_per_write", "B"),
    ("storage.compactions", "count"),
    ("storage.compact_ms", "ms"),
    ("storage.fsync_ms", "ms"),
    ("storage.read_ms", "ms"),
    ("storage.snapshot_decode_ms", "ms"),
    ("storage.wal_scan_ms", "ms"),
    ("storage.recover_ms", "ms"),
    ("store.index.build_ms", "ms"),
    ("storage.snapshot_mb", "MB"),
    ("workload.generate_ms", "ms"),
    ("trace.ops_per_s", "ops/s"),
];

const WORKLOADS: [&str; 2] = ["explore", "cold_start"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    // `--seconds` has no default, so that a run cannot be shorter than the
    // `run_seconds` of BENCHMARK.json without saying so.
    let mut args = Args { workload: String::new(), seed: 1, seconds: f64::NAN, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be given, and positive".into());
    }
    Ok(args)
}

/// The end-to-end metrics of an untraced run, printed with their sample
/// counts and the tail each count supports.
fn end_to_end(out: &Outcome) -> Result<BTreeMap<&'static str, f64>, String> {
    let c = &out.client;
    let mut metrics = BTreeMap::new();
    for (name, unit, stem) in END_TO_END.into_iter().chain(PRINTED) {
        let (value, detail) = match (name, stem) {
            (_, Some(stem)) => {
                let samples = c.samples.get(stem).map(Vec::as_slice).unwrap_or_default();
                let s = stats::summarize(samples).ok_or(format!("no {stem} samples"))?;
                let tail = s.tail.map_or(String::new(), |(q, v)| format!(", p{q} {v:.4}"));
                (s.p50, format!("n={}{tail}", s.n))
            }
            ("setup_s", _) => (
                stats::median(&out.setup_s).expect("set-ups ran"),
                format!("n={}", out.setup_s.len()),
            ),
            ("peak_rss_mb", _) => (out.peak_rss_mb, "VmHWM at the end of the phase".into()),
            ("ops_per_s", _) => {
                let busy = c.busy.as_secs_f64();
                (c.ops as f64 / busy, format!("{} ops in {busy:.3} s busy", c.ops))
            }
            ("disk_mb", _) => (out.disk_bytes as f64 / 1e6, "snapshot + WAL".into()),
            _ => unreachable!("every metric is listed"),
        };
        if PRINTED.iter().any(|m| m.0 == name) {
            println!("  {name:<18} {value:>12.4} {unit:<6} ({detail}; printed, not a metric)");
            continue;
        }
        println!("  {name:<18} {value:>12.4} {unit:<6} ({detail})");
        metrics.insert(name, value);
    }
    Ok(metrics)
}

/// Close the traced run's books: counters, then write the span file and
/// derive the per-layer metrics from it.
fn per_layer(
    out: &mut Outcome,
    workload: &str,
    seed: u64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let c = &mut out.client;
    let tracer = c.tracer.as_mut().expect("traced run");
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let w = c.writes;
    for (name, value) in [
        ("api.response_kb", ratio(c.read_bytes.0, c.read_bytes.1) / 1e3),
        ("store.query.rows_scanned_per_row", ratio(c.page_scan.0, c.page_scan.1)),
        ("store.query.frontier_peak", stats::median(&c.frontier).unwrap_or(0.0)),
        ("core.snapshot_refreshes", c.snapshots.refreshes as f64),
        ("core.snapshot_rebuilds", c.snapshots.rebuilds as f64),
        ("storage.fsyncs_per_write", ratio(w.fsyncs, w.count)),
        ("storage.wal_bytes_per_write", ratio(w.wal_bytes.0, w.wal_bytes.1)),
        ("storage.compactions", w.compactions as f64),
        ("trace.ops_per_s", c.ops as f64 / c.busy.as_secs_f64()),
    ] {
        tracer.counter(name, value);
    }
    let path = Path::new(OUT_DIR).join(format!("trace-{workload}-seed{seed}.jsonl"));
    tracer.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut derived = trace::derive(&trace::read(&path)?, &["core.parallelism"]);
    let open = derived.get("core.provdb_open_ms").zip(derived.get("storage.recover_ms"));
    if let Some((db, storage)) = open {
        derived.insert("core.open_ms".into(), db - storage);
    }
    println!("  span file {}", path.display());
    let mut metrics = BTreeMap::new();
    for (name, unit) in PER_LAYER {
        let value = *derived.get(name).ok_or(format!("span file lacks {name}"))?;
        println!("  {name:<34} {value:>12.4} {unit}");
        metrics.insert(name, value);
    }
    Ok(metrics)
}

/// Time the device floor under a write: append plus fsync in the store's
/// filesystem, through the storage layer's own `Io`.
fn fsync_probe(tracer: &mut trace::Tracer) {
    use prov_store::storage::{Io, StdIo};
    let dir = Path::new(OUT_DIR).join(format!("fsync-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("probe directory");
    let mut io = StdIo::open(&dir).expect("probe directory opens");
    for _ in 0..100 {
        tracer.span("storage.fsync", || {
            io.append("probe", &[0u8; 128]).expect("append");
            io.sync("probe").expect("sync");
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(OUT_DIR).expect("output directory can be created");
    let run = Run { seed: args.seed, seconds: args.seconds, traced: args.trace };
    let mut out = match args.workload.as_str() {
        "explore" => workloads::explore(&run),
        _ => workloads::cold_start(&run),
    };
    if let Some(tracer) = out.client.tracer.as_mut() {
        fsync_probe(tracer);
    }
    let host_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed {} ({} s measured, {host_threads} host threads, {})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let metrics =
        if args.trace { per_layer(&mut out, &args.workload, args.seed) } else { end_to_end(&out) };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for e in &out.errors {
        println!("  CHECK FAILED: {e}");
    }
    let c = &out.client;
    if c.failed > 0 {
        println!("  CHECK FAILED: {} requests answered with an error", c.failed);
    }
    println!("  attempted {} failed {}", c.attempted, c.failed);
    let units: BTreeMap<&str, &str> =
        END_TO_END.iter().map(|m| (m.0, m.1)).chain(PER_LAYER).collect();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", units[name])
        })
        .collect();
    let correct = out.errors.is_empty() && c.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.attempted,
        c.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics this program prints are exactly those `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |name: &str, unit: &str| {
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\","))
        };
        for (name, unit, _) in END_TO_END {
            assert!(declared(name, unit), "{name} ({unit}) not declared");
        }
        for (name, unit) in PER_LAYER {
            assert!(declared(name, unit), "{name} ({unit}) not declared");
        }
        let names = text.matches("\"name\"").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\"")), "{w} not declared");
        }
    }
}
