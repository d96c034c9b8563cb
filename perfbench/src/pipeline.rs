//! Workload `build`: the paper's pipeline, corpus bytes to a published
//! snapshot.
//!
//! Why it exists: getting a massive corpus through the parallel
//! pipeline quickly is the first half of what the paper sells. A 16 MiB
//! PubMed-flavoured corpus goes from memory to a snapshot on disk
//! through `run_engine` at P=2 with `snapshot_out` set, over and over
//! for the measured time. The scan, index, topic, association,
//! signature, clustering/projection and snapshot-write layers do all
//! the work; the serving layers do none, apart from the per-build
//! correctness check.
//!
//! Correctness: every snapshot must serve a fixed query set with
//! bodies identical to those of the set-up build.
//!
//! The traced run repeats the builds with the engine's span tracing on
//! (`EngineConfig::trace`) and reads each stage's time from the spans
//! the engine itself keeps around `scan::scan`, `index::invert`,
//! `select_topics`, `assoc::build`, `signature::generate` and
//! `cluster_documents`/`project_nd` (per-rank wall time inside each
//! `ctx.component` bracket, slowest rank), plus the snapshot write time
//! `write_engine_snapshot` reports.

use crate::common::{self, WorkDir, PROCS, SETUP_REPEATS};
use crate::serve;
use crate::stats::{median, Summary};
use crate::targets::{self, Mix, Target};
use crate::{num, num_list, Args, Report};
use corpus::SourceSet;
use inspire_core::pipeline::EngineRun;
use inspire_core::snapshot::SnapshotReport;
use inspire_core::tokenize::Tokenizer;
use inspire_core::{build_run_report, EngineConfig};
use inspire_serve::{execute, ServeState};
use spmd::Component;
use std::path::Path;
use std::time::Instant;

/// Queries each built snapshot must answer like the set-up build.
const CHECK_QUERIES: usize = 16;
/// Percentile of the builds `tail_ms` reports. With about a dozen
/// builds in a run, p90 is the second-slowest: it leaves out the one
/// build a burst of host contention hits, which the maximum would not.
const BUILD_TAIL_PCT: f64 = 90.0;

/// The engine's stage brackets, in pipeline order, and their metrics.
const STAGES: [(Component, &str); 6] = [
    (Component::Scan, "scan.s"),
    (Component::Index, "index.s"),
    (Component::Topic, "topic.s"),
    (Component::Assoc, "assoc.s"),
    (Component::DocVec, "docvec.s"),
    (Component::ClusProj, "clusproj.s"),
];

/// Open `path`, answer the check queries, and count the answers that
/// differ from `reference`.
fn check_snapshot(path: &Path, queries: &[Target], reference: &[String]) -> usize {
    let state = ServeState::load(path).expect("built snapshot loads");
    let mut wrong = 0;
    for (q, want) in queries.iter().zip(reference) {
        if !execute(&state, &q.request()).is_ok_and(|b| &b == want) {
            eprintln!("perfbench: build answered {} differently", q.url);
            wrong += 1;
        }
    }
    wrong
}

pub fn run(args: &Args, work: &WorkDir) -> Report {
    let mut r = Report::default();

    // Set-up: generate the corpus, run one warm-up build, and record
    // the check queries' bodies from it.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let set = common::corpus(args.seed);
        let path = work.file("reference.isnap");
        common::build_snapshot(&set, &path, PROCS);
        let state = ServeState::load(&path).expect("reference snapshot loads");
        let queries = targets::generate(&state, args.seed, CHECK_QUERIES, Mix::WithCluster);
        let reference: Vec<String> = queries
            .iter()
            .map(|q| execute(&state, &q.request()).expect("reference query answers"))
            .collect();
        setups.push(t0.elapsed().as_secs_f64());
        prepared = Some((set, queries, reference));
    }
    let (set, queries, reference) = prepared.expect("at least one set-up");
    r.e2e("setup_s", median(&setups).expect("set-up ran"));

    // Measured phase: whole builds, each checked after its clock stops.
    let out = work.file("build.isnap");
    let mut builds = Vec::new();
    let mut last: Option<EngineRun> = None;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    while builds.is_empty() || Instant::now() < deadline {
        let (run, secs) = common::build_snapshot(&set, &out, PROCS);
        builds.push(secs);
        r.attempted += 1;
        r.failed += u64::from(check_snapshot(&out, &queries, &reference) > 0);
        last = Some(run);
    }
    r.e2e("peak_rss_mib", common::peak_rss_mib());
    let run = last.expect("at least one build");
    let rep = run
        .master()
        .snapshot_report
        .clone()
        .expect("snapshot report");
    let docs = run.master().summary.total_docs as f64;
    let s = Summary::fixed(&builds, BUILD_TAIL_PCT).expect("builds ran");
    r.e2e("p50_ms", s.median * 1e3);
    r.e2e("tail_ms", s.tail * 1e3);
    r.e2e("throughput_per_s", docs / s.median);
    // Opening the last built snapshot, as `serve_cold` opens its own.
    let (first_s, load_s, first_ok) = serve::first_answer(&out, &queries[0], &reference[0]);
    r.check(first_ok, || {
        "a reloaded snapshot answered differently".into()
    });
    r.e2e("first_answer_ms", first_s * 1e3);
    r.e2e(
        "bytes_per_input_byte",
        rep.total_bytes as f64 / set.total_bytes() as f64,
    );
    r.note("builds", s.n.to_string());
    r.note("build_ms", num_list(&builds, 1e3));
    r.note("tail_pct", num(s.tail_pct));
    r.note("docs", num(docs));
    let summary = &run.master().summary;
    r.note("n_major", summary.n_major.to_string());
    r.note("m_dims", summary.m_dims.to_string());
    r.note("dim_expansions", summary.dim_expansions.to_string());
    r.note("corpus_bytes", set.total_bytes().to_string());
    r.note("snapshot_bytes", rep.total_bytes.to_string());
    r.note("check_queries", queries.len().to_string());

    if args.trace {
        traced(
            args, work, &mut r, &set, &queries, &reference, &run, &rep, s.median,
        );
        r.layer("load.ms", load_s * 1e3);
    }
    r
}

/// Seconds each stage took in `run`, from the engine's own spans:
/// wall time inside the stage's bracket on the slowest rank (the
/// signature stages add up over dimension expansions), then the
/// snapshot write.
fn stage_seconds(run: &EngineRun) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = STAGES
        .iter()
        .map(|&(c, name)| {
            let slowest = run.run.timers.iter().map(|t| t.get_wall(c));
            (name, slowest.fold(0.0, f64::max))
        })
        .collect();
    let write = run.master().snapshot_report.as_ref();
    out.push(("snapshot_write.s", write.map_or(0.0, |r| r.write_seconds)));
    out
}

/// The traced run: builds with the engine's span tracing on for the
/// measured time, one P=1 baseline build, a standalone tokenizer pass,
/// and the layer counts of the last untraced build.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    work: &WorkDir,
    r: &mut Report,
    set: &SourceSet,
    queries: &[Target],
    reference: &[String],
    run: &EngineRun,
    rep: &SnapshotReport,
    build_s: f64,
) {
    let out = work.file("traced.isnap");
    let cfg = EngineConfig {
        trace: true,
        ..common::engine_config(&out)
    };
    let mut per_stage: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len() + 1];
    let mut sums = Vec::new();
    let mut unaccounted = Vec::new();
    let mut totals = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    while totals.is_empty() || Instant::now() < deadline {
        let (traced_run, secs) = common::build_with(set, &cfg, PROCS);
        totals.push(secs);
        r.attempted += 1;
        r.failed += u64::from(check_snapshot(&out, queries, reference) > 0);
        let stages = stage_seconds(&traced_run);
        let sum: f64 = stages.iter().map(|(_, s)| s).sum();
        sums.push(sum);
        unaccounted.push(1.0 - sum / secs);
        for (v, (_, s)) in per_stage.iter_mut().zip(&stages) {
            v.push(*s);
        }
    }
    let names = STAGES.iter().map(|(_, n)| *n).chain(["snapshot_write.s"]);
    for (name, v) in names.zip(&per_stage) {
        r.layer(name, median(v).unwrap());
    }
    let traced_build = median(&totals).unwrap();
    r.layer("stages.sum_s", median(&sums).unwrap());
    r.layer("stages.unaccounted", median(&unaccounted).unwrap());
    r.note(
        "stages_unaccounted_vs_untraced",
        num(1.0 - median(&sums).unwrap() / build_s),
    );
    r.layer("trace.overhead", traced_build / build_s - 1.0);
    r.note("traced_builds", totals.len().to_string());
    r.note("traced_build_s", num(traced_build));

    // Scan sub-layer: the tokenizer alone over the same records.
    let tokenizer = Tokenizer::default();
    let mut tok = Vec::new();
    let mut tokens = 0u64;
    for _ in 0..3 {
        let t0 = Instant::now();
        tokens = 0;
        for src in &set.sources {
            for range in src.record_ranges() {
                for (_, text) in src.parse_record(range).fields {
                    tokens += tokenizer.tokenize_into(text, |t| {
                        std::hint::black_box(t);
                    });
                }
            }
        }
        tok.push(t0.elapsed().as_secs_f64());
    }
    r.layer("scan.tokenize_s", median(&tok).unwrap());
    r.note("tokens", tokens.to_string());

    // The single-rank baseline.
    let (_, p1) = common::build_snapshot(set, &work.file("p1.isnap"), 1);
    r.layer("build_p1.s", p1);

    // Communication, wait and the cost model, from the engine's stats.
    let report = build_run_report("perfbench build", &run.run, build_s);
    r.layer("comm.msgs", report.comm.messages as f64);
    r.layer("comm.bytes", report.comm.bytes as f64);
    r.layer(
        "collective_wait.s",
        report.stages.iter().map(|s| s.wait_max_s).sum(),
    );
    if let Some(ix) = report
        .stages
        .iter()
        .find(|s| s.name == Component::Index.label())
    {
        r.layer("index.imbalance", ix.imbalance_pct());
    }
    r.layer("perfmodel.virtual_s", run.virtual_time);

    serve::snapshot_layers(r, rep);
}
