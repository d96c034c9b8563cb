//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <build|serve_hot|serve_cold|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up, measures
//! for `--seconds` of wall time, checks that every answer it received
//! is correct, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end table ([`END_TO_END`]); with
//! `--trace 1` the same untraced measurement runs first, then a traced
//! one, and the metrics are the per-layer table ([`PER_LAYER`]). The
//! line before it is a detail record: host fingerprint, seeds,
//! workload parameters and every number the run computed.
//!
//! Workloads and metric definitions are documented in
//! `perfbench/README.md`.

mod client;
mod common;
mod ingest;
mod pipeline;
mod serve;
mod stats;
mod targets;

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system waits for or pays.
/// Every workload reports all of them; README.md gives each one's
/// meaning per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("first_answer_ms", "ms"),
    ("bytes_per_input_byte", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics from the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Reconciliation of the traced run with the untraced one.
    ("trace.overhead", "ratio"),
    ("stages.unaccounted", "ratio"),
    ("client.unaccounted", "ratio"),
    // Pipeline stages (core): the engine's own spans, slowest rank.
    ("scan.s", "s"),
    ("scan.tokenize_s", "s"),
    ("index.s", "s"),
    ("topic.s", "s"),
    ("assoc.s", "s"),
    ("docvec.s", "s"),
    ("clusproj.s", "s"),
    ("snapshot_write.s", "s"),
    ("stages.sum_s", "s"),
    ("build_p1.s", "s"),
    // Communication (spmd, ga) and the cost model (perfmodel).
    ("comm.msgs", "count"),
    ("comm.bytes", "bytes"),
    ("collective_wait.s", "s"),
    ("index.imbalance", "%"),
    ("perfmodel.virtual_s", "s"),
    // Snapshot container (store).
    ("snapshot.index_bytes", "bytes"),
    ("snapshot.sig_bytes", "bytes"),
    ("snapshot.ann_bytes", "bytes"),
    ("snapshot.total_bytes", "bytes"),
    // Load (state).
    ("load.ms", "ms"),
    ("server_start.ms", "ms"),
    // Transport (http, server), client-observed medians.
    ("client.connect_ms", "ms"),
    ("client.wait_ms", "ms"),
    ("client.read_ms", "ms"),
    ("server.request_ms", "ms"),
    ("unattributed_ms", "ms"),
    // Cache (lru).
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.resident_bytes", "bytes"),
    // Executor (request, query, store::codec), medians per request.
    ("parse.us", "us"),
    ("exec.term.eval_us", "us"),
    ("exec.term.serialize_us", "us"),
    ("exec.query.eval_us", "us"),
    ("exec.query.serialize_us", "us"),
    ("exec.search.eval_us", "us"),
    ("exec.search.serialize_us", "us"),
    ("exec.cluster.eval_us", "us"),
    ("exec.cluster.serialize_us", "us"),
    ("exec.rect.eval_us", "us"),
    ("exec.rect.serialize_us", "us"),
    ("exec.similar.eval_us", "us"),
    ("exec.similar.serialize_us", "us"),
    ("query.postings_touched", "count"),
    ("response.bytes", "bytes"),
    // IVF search (ann), means per /similar request.
    ("ann.candidates", "count"),
    ("ann.probed", "count"),
    // Ingest and live reads (ingest, live).
    ("wal.append_ms", "ms"),
    ("seal.ms", "ms"),
    ("live.load_ms", "ms"),
    ("live.segments_open_mean", "count"),
    ("live.segments_open_max", "count"),
    ("swap.ms", "ms"),
    ("compact.s", "s"),
    ("compact.bytes_rewritten", "bytes"),
    ("wal.bytes", "bytes"),
    ("segment.bytes", "bytes"),
    ("reader.qps", "1/s"),
    ("reader.p50_ms", "ms"),
    ("reader.p99_ms", "ms"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    /// Internal: build the workload snapshot at this path and exit
    /// (see `common::build_in_child`).
    pub emit_snapshot: Option<std::path::PathBuf>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut emit_snapshot = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--emit-snapshot" => emit_snapshot = Some(value()?.into()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if emit_snapshot.is_some() {
        workload.get_or_insert_with(String::new);
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        emit_snapshot,
        seed,
        seconds,
        trace,
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (builds, requests, appends).
    pub attempted: u64,
    /// Errors, 429s and wrong answers among them.
    pub failed: u64,
    /// Whole-run checks (beyond per-operation ones) that failed.
    pub check_failures: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra context for the detail record: key → JSON value.
    pub detail: BTreeMap<String, String>,
}

/// The table's own name for `name`; a name outside the table is a bug.
fn declared(table: &[(&'static str, &str)], name: &str) -> &'static str {
    table
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

impl Report {
    pub fn e2e(&mut self, name: &str, v: f64) {
        self.end_to_end.insert(declared(END_TO_END, name), v);
    }

    pub fn layer(&mut self, name: &str, v: f64) {
        self.layers.insert(declared(PER_LAYER, name), v);
    }

    pub fn note(&mut self, key: &str, json_value: String) {
        self.detail.insert(key.to_string(), json_value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.check_failures.push(msg);
        }
    }
}

/// Shortest round-trip JSON number; non-finite values become null.
pub fn num(v: f64) -> String {
    inspire_trace::json::num(v)
}

/// `[v * scale, …]` as a JSON array.
pub fn num_list(v: &[f64], scale: f64) -> String {
    let items: Vec<String> = v.iter().map(|x| num(x * scale)).collect();
    format!("[{}]", items.join(","))
}

fn metrics_json(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "metric {name} is {v}");
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(v))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <build|serve_hot|serve_cold|ingest> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Some(out) = &args.emit_snapshot {
        common::emit_snapshot(args.seed, out);
        return;
    }
    let ticks = common::host_cpu_ticks();
    let work = common::WorkDir::create(&args);
    let report = match args.workload.as_str() {
        "build" => pipeline::run(&args, &work),
        "serve_hot" => serve::run(&args, &work, serve::Kind::Hot),
        "serve_cold" => serve::run(&args, &work, serve::Kind::Cold),
        "ingest" => ingest::run(&args, &work),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    drop(work);

    let missing: Vec<&str> = END_TO_END
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !report.end_to_end.get(n).is_some_and(|v| v.is_finite()))
        .collect();
    assert!(
        missing.is_empty(),
        "end-to-end metrics not measured: {missing:?}"
    );

    let correct = report.failed == 0 && report.check_failures.is_empty();
    let mut detail = common::fingerprint(&args);
    if let Some(p) = ticks
        .zip(common::host_cpu_ticks())
        .and_then(|(a, b)| common::steal_pct(&a, &b))
    {
        detail.insert("host_steal_pct".into(), num(p));
    }
    detail.extend(report.detail);
    detail.insert(
        "end_to_end".into(),
        metrics_json(END_TO_END, &report.end_to_end),
    );
    if args.trace {
        detail.insert("per_layer".into(), metrics_json(PER_LAYER, &report.layers));
    }
    detail.insert(
        "fail_ratio".into(),
        num(report.failed as f64 / report.attempted.max(1) as f64),
    );
    detail.insert(
        "check_failures".into(),
        format!(
            "[{}]",
            report
                .check_failures
                .iter()
                .map(|m| format!("\"{}\"", inspire_trace::json::escape(m)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    let fields: Vec<String> = detail
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", inspire_trace::json::escape(k)))
        .collect();
    println!("{{\"perfbench_detail\":{{{}}}}}", fields.join(","));

    let metrics = if args.trace {
        metrics_json(PER_LAYER, &report.layers)
    } else {
        metrics_json(END_TO_END, &report.end_to_end)
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        report.attempted.max(1),
        report.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` at the repository
    /// root must name the same metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let v = inspire_trace::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = v
                .get(key)
                .and_then(|a| a.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }
}
