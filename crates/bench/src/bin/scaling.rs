//! `scaling` — intra-rank pool scaling on the hot pipeline stages.
//!
//! Runs scan + inversion on a single rank at `threads_per_rank` 1..=W
//! and records, for each width:
//!
//! * the measured wall-clock (median and min over the iterations), and
//! * a **projected** speedup computed from the per-chunk wall-clock
//!   profile of the width-1 run: chunks are list-scheduled onto `w`
//!   virtual workers in index order (exactly the pool's queue
//!   discipline) and the projected time is the serial remainder plus
//!   the per-call makespans. The projection is host-independent, so it
//!   stays meaningful on single-core CI boxes where the measured curve
//!   is flat; both numbers land in the JSON so neither hides the other.
//!
//! ```text
//! scaling                 # full corpus, widths 1..=4, 5 iterations
//! scaling --smoke         # tiny fixture, 2 iterations (CI bench-smoke)
//! scaling --threads 8     # widen the sweep
//! scaling --iters 9       # more samples per width
//! ```
//!
//! The JSON also carries a `snapshot` section: one full-pipeline run
//! with `snapshot_out` set records the container's write wall-clock and
//! per-section byte counts, then the serving state (scan + inverted
//! index) is restored from the file on a single rank and timed, so the
//! report shows how much faster serving from a snapshot is than
//! re-running the pipeline on the same corpus.
//!
//! An `imbalance` section profiles one P=4 full-pipeline run on the
//! modeled cluster through the engine's run report: per-stage busy-time
//! imbalance across ranks, collective wait share, and the stage holding
//! the largest critical-path share (Figure 9's load-balance view).
//!
//! Output: `results/BENCH_intra_rank_scaling_<unix-ts>.json` plus an
//! append-only row in `results/scaling_history.md`.

use corpus::CorpusSpec;
use inspire_bench::{flag_num, history, results_dir};
use inspire_core::index::invert;
use inspire_core::pipeline::run_engine;
use inspire_core::scan::scan;
use inspire_core::{EngineConfig, EngineSnapshot};
use inspire_serve::{execute, ServeRequest, ServeState};
use perfmodel::CostModel;
use spmd::{Component, Runtime};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

struct WidthResult {
    threads: usize,
    wall_s_median: f64,
    wall_s_min: f64,
    measured_speedup: f64,
    projected_speedup: f64,
}

/// Per-stage communication counters from one scan+invert run, plus the
/// scan hot path's own accounting of batched vocabulary RPCs vs the
/// scalar message count the same run would have charged pre-batching.
struct CommReport {
    scan_msgs: u64,
    scan_bytes: u64,
    index_msgs: u64,
    index_bytes: u64,
    /// Index-stage messages that were destination-aggregated batches
    /// (cursor reservations, packed posting puts, term-stat accs).
    index_batched_msgs: u64,
    /// Scalar one-sided operations those batches folded away — what the
    /// pre-aggregation scatter would have charged for the same traffic.
    index_scalar_equiv: u64,
    vocab_rpc_msgs_batched: u64,
    vocab_rpc_scalar_equiv: u64,
}

impl CommReport {
    /// Scalar-equivalent vocabulary RPCs per charged batched message.
    fn batching_factor(&self) -> f64 {
        if self.vocab_rpc_msgs_batched > 0 {
            self.vocab_rpc_scalar_equiv as f64 / self.vocab_rpc_msgs_batched as f64
        } else {
            0.0
        }
    }

    /// Scalar-equivalent index-stage ops per charged batched message.
    fn index_batching_factor(&self) -> f64 {
        if self.index_batched_msgs > 0 {
            self.index_scalar_equiv as f64 / self.index_batched_msgs as f64
        } else {
            0.0
        }
    }
}

/// Snapshot timings from one full-pipeline run with `snapshot_out` set:
/// container write cost, per-section sizes, and the host wall-clock of
/// restoring the query-serving state back out of the file.
struct SnapshotBench {
    pipeline_wall_s: f64,
    write_s: f64,
    load_s: f64,
    /// Host wall-clock from `EngineSnapshot::open` through building the
    /// serving state to the first served query body.
    load_to_first_query_s: f64,
    total_bytes: u64,
    /// Bytes of the block-compressed index sections
    /// (postdir + postblk + postskp + dfv + tfv).
    index_compressed_bytes: u64,
    /// What the retired fixed-width layout would have spent on the same
    /// index (postoff + postdat + df + tf at their fixed element sizes).
    index_fixed_equiv_bytes: u64,
    sections: Vec<(String, u64)>,
}

impl SnapshotBench {
    /// How much faster loading the snapshot is than re-running the pipeline.
    fn load_speedup(&self) -> f64 {
        if self.load_s > 0.0 {
            self.pipeline_wall_s / self.load_s
        } else {
            0.0
        }
    }

    /// Fixed-width bytes per compressed byte for the index sections.
    fn index_compression_ratio(&self) -> f64 {
        if self.index_compressed_bytes > 0 {
            self.index_fixed_equiv_bytes as f64 / self.index_compressed_bytes as f64
        } else {
            0.0
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let max_threads = flag_num(&args, "--threads").unwrap_or(4).max(1);
    let iters = flag_num(&args, "--iters")
        .unwrap_or(if smoke { 2 } else { 5 })
        .max(1);

    let corpus_bytes = if smoke { 384 * 1024 } else { 2 * 1024 * 1024 };
    let src = CorpusSpec::pubmed(corpus_bytes, 2007).generate();
    let cfg = EngineConfig::default();

    // Profiled serial runs for the projection: keep the lowest-wall
    // sample (least scheduler noise) and project from that run alone, so
    // numerator and denominator come from the same execution.
    let mut best: Option<(u32, f64, Vec<Vec<f64>>)> = None;
    timed_run(&src, &cfg, 1); // warm caches before sampling
    for _ in 0..iters.max(3) {
        let sample = profiled_serial_run(&src, &cfg);
        if best.as_ref().is_none_or(|b| sample.1 < b.1) {
            best = Some(sample);
        }
    }
    let (docs, wall_prof, profile) = best.expect("at least one profiled run");
    let chunk_total: f64 = profile.iter().flatten().sum();

    let mut widths = Vec::new();
    let mut wall1_median = 0.0;
    for threads in 1..=max_threads {
        let mut samples: Vec<f64> = (0..iters).map(|_| timed_run(&src, &cfg, threads)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        let min = samples[0];
        if threads == 1 {
            wall1_median = median;
        }
        let serial_s = (wall_prof - chunk_total).max(0.0);
        let projected_s = serial_s + profile.iter().map(|g| makespan(g, threads)).sum::<f64>();
        widths.push(WidthResult {
            threads,
            wall_s_median: median,
            wall_s_min: min,
            measured_speedup: if median > 0.0 {
                wall1_median / median
            } else {
                0.0
            },
            projected_speedup: if projected_s > 0.0 {
                wall_prof / projected_s
            } else {
                0.0
            },
        });
    }

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let parallel_fraction = if wall_prof > 0.0 {
        (chunk_total / wall_prof).min(1.0)
    } else {
        0.0
    };

    let comm = comm_run(&src, &cfg);
    let snap_bench = snapshot_run(&src, &cfg);
    let imbalance = imbalance_run(&src, &cfg);
    // Compare against the newest prior BENCH JSON of the same shape, if
    // one exists, so the JSON records the measured wall-clock delta.
    let baseline_wall_s_1 = previous_wall1(smoke);
    let wall_clock_improvement = baseline_wall_s_1
        .filter(|_| wall1_median > 0.0)
        .map(|b| b / wall1_median);

    // Human-readable table.
    println!("intra-rank scaling — scan+invert, single rank, {docs} docs, {host_cpus} host cpu(s)");
    println!(
        "parallel fraction of the serial run: {:.1}%",
        parallel_fraction * 100.0
    );
    println!("threads  wall_s(median)  wall_s(min)  measured_x  projected_x");
    for w in &widths {
        println!(
            "{:>7}  {:>14.4}  {:>11.4}  {:>10.2}  {:>11.2}",
            w.threads, w.wall_s_median, w.wall_s_min, w.measured_speedup, w.projected_speedup
        );
    }
    println!(
        "comm: scan {} msgs / {} B, index {} msgs / {} B",
        comm.scan_msgs, comm.scan_bytes, comm.index_msgs, comm.index_bytes
    );
    println!(
        "vocab RPCs: {} batched messages for {} scalar-equivalent inserts ({:.1}x batching)",
        comm.vocab_rpc_msgs_batched,
        comm.vocab_rpc_scalar_equiv,
        comm.batching_factor()
    );
    println!(
        "index exchange: {} batched messages for {} scalar-equivalent ops ({:.1}x batching)",
        comm.index_batched_msgs,
        comm.index_scalar_equiv,
        comm.index_batching_factor()
    );
    if let (Some(b), Some(x)) = (baseline_wall_s_1, wall_clock_improvement) {
        println!("wall@1 vs previous run: {b:.4}s -> {wall1_median:.4}s ({x:.2}x)");
    }
    println!(
        "snapshot: {} B written in {:.4}s; serving load {:.4}s vs {:.4}s pipeline re-run ({:.1}x)",
        snap_bench.total_bytes,
        snap_bench.write_s,
        snap_bench.load_s,
        snap_bench.pipeline_wall_s,
        snap_bench.load_speedup()
    );
    println!(
        "index sections: {} B compressed vs {} B fixed-width equivalent ({:.2}x); \
         load-to-first-query {:.4}s",
        snap_bench.index_compressed_bytes,
        snap_bench.index_fixed_equiv_bytes,
        snap_bench.index_compression_ratio(),
        snap_bench.load_to_first_query_s
    );
    println!(
        "imbalance @P={IMBALANCE_PROCS}: max {:.1}% busy-time spread, critical-path stage {}",
        imbalance.max_imbalance_pct(),
        imbalance.critical_path_stage().unwrap_or("-")
    );

    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock before 1970")
        .as_secs();
    let json = to_json(
        smoke,
        corpus_bytes,
        docs,
        host_cpus,
        iters,
        parallel_fraction,
        &profile,
        &widths,
        &comm,
        &snap_bench,
        &imbalance,
        baseline_wall_s_1,
        wall_clock_improvement,
    );
    let json_path = results_dir().join(format!("BENCH_intra_rank_scaling_{ts}.json"));
    std::fs::write(&json_path, &json).expect("write BENCH json");
    // Stable pointer so CI validation never has to guess which
    // timestamped file the run just produced.
    let latest = results_dir().join("BENCH_latest.json");
    std::fs::write(&latest, &json).expect("write BENCH latest pointer");
    println!("wrote {}", json_path.display());
    println!("wrote {}", latest.display());

    append_history(
        ts,
        smoke,
        corpus_bytes,
        docs,
        host_cpus,
        &widths,
        &comm,
        &imbalance,
    );
}

/// Wall-clock seconds of scan + invert at the given pool width.
fn timed_run(src: &corpus::SourceSet, cfg: &EngineConfig, threads: usize) -> f64 {
    let rt = Runtime::new(Arc::new(CostModel::zero())).with_threads_per_rank(threads);
    let res = rt.run(1, |ctx| {
        let t0 = Instant::now();
        let s = scan(ctx, src, cfg);
        let idx = invert(ctx, &s, cfg);
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(idx.total_docs > 0);
        elapsed
    });
    res.results[0]
}

/// Serial run with chunk profiling on:
/// (total docs, wall seconds, per-call chunk times).
fn profiled_serial_run(src: &corpus::SourceSet, cfg: &EngineConfig) -> (u32, f64, Vec<Vec<f64>>) {
    let rt = Runtime::new(Arc::new(CostModel::zero()));
    let res = rt.run(1, |ctx| {
        ctx.pool().set_profiling(true);
        let t0 = Instant::now();
        let s = scan(ctx, src, cfg);
        let idx = invert(ctx, &s, cfg);
        let wall = t0.elapsed().as_secs_f64();
        ctx.pool().set_profiling(false);
        (idx.total_docs, wall, ctx.pool().take_profile())
    });
    res.results.into_iter().next().unwrap()
}

/// One serial scan+invert run with the stages bracketed in their
/// pipeline components, so the runtime's per-stage counters attribute
/// every charged operation (local or remote) to scan or index.
fn comm_run(src: &corpus::SourceSet, cfg: &EngineConfig) -> CommReport {
    let rt = Runtime::new(Arc::new(CostModel::zero()));
    let res = rt.run(1, |ctx| {
        let s = ctx.component(Component::Scan, || scan(ctx, src, cfg));
        let idx = ctx.component(Component::Index, || invert(ctx, &s, cfg));
        assert!(idx.total_docs > 0);
        let snap = ctx.stats.snapshot();
        CommReport {
            scan_msgs: snap.stage_msgs_for(Component::Scan),
            scan_bytes: snap.stage_bytes_for(Component::Scan),
            index_msgs: snap.stage_msgs_for(Component::Index),
            index_bytes: snap.stage_bytes_for(Component::Index),
            index_batched_msgs: snap.stage_batched_msgs_for(Component::Index),
            index_scalar_equiv: snap.stage_scalar_equiv_for(Component::Index),
            vocab_rpc_msgs_batched: s.vocab_rpc_msgs,
            vocab_rpc_scalar_equiv: s.vocab_rpc_scalar_equiv,
        }
    });
    res.results.into_iter().next().unwrap()
}

/// Full pipeline once with `snapshot_out` set, then a timed reload of
/// the serving state (scan + inverted index) from the written file.
fn snapshot_run(src: &corpus::SourceSet, cfg: &EngineConfig) -> SnapshotBench {
    let path = std::env::temp_dir().join(format!("va-bench-snapshot-{}.isnap", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let snap_cfg = EngineConfig {
        snapshot_out: Some(path.clone()),
        ..cfg.clone()
    };
    let t0 = Instant::now();
    let run = run_engine(1, Arc::new(CostModel::zero()), src, &snap_cfg);
    let pipeline_wall_s = t0.elapsed().as_secs_f64();
    let report = run
        .master()
        .snapshot_report
        .clone()
        .expect("snapshot_out run produces a report");

    let t0 = Instant::now();
    let snap = EngineSnapshot::open(&path).expect("snapshot reopens");
    let rt = Runtime::new(Arc::new(CostModel::zero()));
    rt.run(1, |ctx| {
        let s = snap.restore_scan(ctx).expect("scan restores");
        let idx = snap.restore_index(ctx).expect("index restores");
        assert!(idx.total_docs > 0 && s.vocab_size() > 0);
    });
    let load_s = t0.elapsed().as_secs_f64();

    // Cold-path serving: open → serving state → first query body. The
    // zero-copy read path makes this near-instant because postings stay
    // encoded in the mapped sections until a query touches them.
    let t0 = Instant::now();
    let qsnap = EngineSnapshot::open(&path).expect("snapshot reopens for serving");
    let state = ServeState::from_snapshot(qsnap).expect("serving state builds");
    let term = state.terms.get(state.terms.len() / 2).to_string();
    let body = execute(&state, &ServeRequest::Term { term, top: 5 }).expect("first query");
    assert!(!body.is_empty());
    let load_to_first_query_s = t0.elapsed().as_secs_f64();

    // Compression accounting against the retired fixed-width layout:
    // postoff (i64 per term + 1), postdat (u64 per posting), df (u32 per
    // term), tf (u64 per term).
    let dir = state
        .snapshot()
        .postings_dir()
        .expect("compressed index directory");
    let vocab = dir.vocab() as u64;
    let index_fixed_equiv_bytes =
        (vocab + 1) * 8 + dir.total_postings() * 8 + vocab * 4 + vocab * 8;
    let compressed_names = ["postdir", "postblk", "postskp", "dfv", "tfv"];
    let index_compressed_bytes = report
        .sections
        .iter()
        .filter(|(name, _)| compressed_names.contains(&name.as_str()))
        .map(|&(_, bytes)| bytes)
        .sum();
    let _ = std::fs::remove_file(&path);

    SnapshotBench {
        pipeline_wall_s,
        write_s: report.write_seconds,
        load_s,
        load_to_first_query_s,
        total_bytes: report.total_bytes,
        index_compressed_bytes,
        index_fixed_equiv_bytes,
        sections: report.sections,
    }
}

/// Processor count of the load-imbalance profile run.
const IMBALANCE_PROCS: usize = 4;

/// One full-pipeline run at P=4 on the modeled 2007 cluster, folded into
/// the engine's structured run report: per-stage busy-time imbalance,
/// collective wait share, and critical-path attribution.
fn imbalance_run(src: &corpus::SourceSet, cfg: &EngineConfig) -> inspire_trace::RunReport {
    let t0 = Instant::now();
    let run = run_engine(IMBALANCE_PROCS, Arc::new(CostModel::pnnl_2007()), src, cfg);
    inspire_core::build_run_report("scaling-imbalance", &run.run, t0.elapsed().as_secs_f64())
}

/// `wall_s_median` at width 1 from the newest prior BENCH JSON with the
/// same smoke flag, if any. Field-level scrape — no JSON parser offline.
fn previous_wall1(smoke: bool) -> Option<f64> {
    let mut newest: Option<(String, String)> = None;
    for entry in std::fs::read_dir(results_dir()).ok()?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_intra_rank_scaling_") || !name.ends_with(".json") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        if !text.contains(&format!("\"smoke\": {smoke}")) {
            continue;
        }
        // Timestamped names sort chronologically for equal-length stems.
        if newest.as_ref().is_none_or(|(n, _)| name > *n) {
            newest = Some((name, text));
        }
    }
    let (_, text) = newest?;
    let at = text.find("\"wall_s_median\": ")?;
    let rest = &text[at + "\"wall_s_median\": ".len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Greedy list-schedule makespan: chunks in index order, each to the
/// earliest-free of `w` workers — the pool's queue discipline.
fn makespan(chunks: &[f64], w: usize) -> f64 {
    let mut workers = vec![0.0f64; w.max(1)];
    for &c in chunks {
        let i = workers
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        workers[i] += c;
    }
    workers.iter().cloned().fold(0.0, f64::max)
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    smoke: bool,
    corpus_bytes: u64,
    docs: u32,
    host_cpus: usize,
    iters: usize,
    parallel_fraction: f64,
    profile: &[Vec<f64>],
    widths: &[WidthResult],
    comm: &CommReport,
    snap: &SnapshotBench,
    imbalance: &inspire_trace::RunReport,
    baseline_wall_s_1: Option<f64>,
    wall_clock_improvement: Option<f64>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"intra_rank_scaling\",\n");
    s.push_str("  \"stages\": \"scan+invert\",\n");
    s.push_str("  \"corpus\": \"pubmed\",\n");
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    s.push_str(&format!("  \"corpus_bytes\": {corpus_bytes},\n"));
    s.push_str(&format!("  \"docs\": {docs},\n"));
    s.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    s.push_str(&format!("  \"iters\": {iters},\n"));
    s.push_str(&format!("  \"chunk_calls\": {},\n", profile.len()));
    s.push_str(&format!(
        "  \"chunks\": {},\n",
        profile.iter().map(|g| g.len()).sum::<usize>()
    ));
    s.push_str(&format!(
        "  \"parallel_fraction\": {parallel_fraction:.6},\n"
    ));
    s.push_str("  \"comm\": {\n");
    s.push_str(&format!("    \"scan_msgs\": {},\n", comm.scan_msgs));
    s.push_str(&format!("    \"scan_bytes\": {},\n", comm.scan_bytes));
    s.push_str(&format!("    \"index_msgs\": {},\n", comm.index_msgs));
    s.push_str(&format!("    \"index_bytes\": {},\n", comm.index_bytes));
    s.push_str(&format!(
        "    \"index_batched_msgs\": {},\n",
        comm.index_batched_msgs
    ));
    s.push_str(&format!(
        "    \"index_scalar_equiv\": {},\n",
        comm.index_scalar_equiv
    ));
    s.push_str(&format!(
        "    \"index_batching_factor\": {:.4},\n",
        comm.index_batching_factor()
    ));
    s.push_str(&format!(
        "    \"vocab_rpc_msgs_batched\": {},\n",
        comm.vocab_rpc_msgs_batched
    ));
    s.push_str(&format!(
        "    \"vocab_rpc_scalar_equiv\": {},\n",
        comm.vocab_rpc_scalar_equiv
    ));
    s.push_str(&format!(
        "    \"vocab_rpc_batching_factor\": {:.4},\n",
        comm.batching_factor()
    ));
    s.push_str(&format!(
        "    \"baseline_wall_s_1\": {},\n",
        baseline_wall_s_1.map_or("null".into(), |v| format!("{v:.6}"))
    ));
    s.push_str(&format!(
        "    \"wall_clock_improvement\": {}\n",
        wall_clock_improvement.map_or("null".into(), |v| format!("{v:.4}"))
    ));
    s.push_str("  },\n");
    s.push_str("  \"snapshot\": {\n");
    s.push_str(&format!(
        "    \"pipeline_wall_s\": {:.6},\n",
        snap.pipeline_wall_s
    ));
    s.push_str(&format!("    \"write_s\": {:.6},\n", snap.write_s));
    s.push_str(&format!("    \"load_s\": {:.6},\n", snap.load_s));
    s.push_str(&format!(
        "    \"load_to_first_query_s\": {:.6},\n",
        snap.load_to_first_query_s
    ));
    s.push_str(&format!(
        "    \"load_speedup_vs_pipeline\": {:.4},\n",
        snap.load_speedup()
    ));
    s.push_str(&format!("    \"total_bytes\": {},\n", snap.total_bytes));
    s.push_str(&format!(
        "    \"index_compressed_bytes\": {},\n",
        snap.index_compressed_bytes
    ));
    s.push_str(&format!(
        "    \"index_fixed_equiv_bytes\": {},\n",
        snap.index_fixed_equiv_bytes
    ));
    s.push_str(&format!(
        "    \"index_compression_ratio\": {:.4},\n",
        snap.index_compression_ratio()
    ));
    s.push_str("    \"sections\": {\n");
    for (i, (name, bytes)) in snap.sections.iter().enumerate() {
        s.push_str(&format!(
            "      \"{name}\": {bytes}{}\n",
            if i + 1 < snap.sections.len() { "," } else { "" }
        ));
    }
    s.push_str("    }\n");
    s.push_str("  },\n");
    s.push_str("  \"imbalance\": {\n");
    s.push_str(&format!("    \"procs\": {IMBALANCE_PROCS},\n"));
    s.push_str(&format!(
        "    \"virtual_time_s\": {:.6},\n",
        imbalance.virtual_time_s
    ));
    s.push_str(&format!(
        "    \"critical_path_s\": {:.6},\n",
        imbalance.critical_path_s()
    ));
    s.push_str(&format!(
        "    \"critical_path_stage\": \"{}\",\n",
        imbalance.critical_path_stage().unwrap_or("")
    ));
    s.push_str(&format!(
        "    \"max_imbalance_pct\": {:.4},\n",
        imbalance.max_imbalance_pct()
    ));
    s.push_str("    \"stages\": [\n");
    for (i, row) in imbalance.stages.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"name\": \"{}\", \"busy_max_s\": {:.6}, \"busy_min_s\": {:.6}, \
             \"wait_max_s\": {:.6}, \"imbalance_pct\": {:.4}, \"wait_share_pct\": {:.4}}}{}\n",
            row.name,
            row.busy_max_s,
            row.busy_min_s,
            row.wait_max_s,
            row.imbalance_pct(),
            row.wait_share_pct(),
            if i + 1 < imbalance.stages.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("    ]\n");
    s.push_str("  },\n");
    s.push_str("  \"widths\": [\n");
    for (i, w) in widths.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"threads\": {}, \"wall_s_median\": {:.6}, \"wall_s_min\": {:.6}, \
             \"measured_speedup\": {:.4}, \"projected_speedup\": {:.4}}}{}\n",
            w.threads,
            w.wall_s_median,
            w.wall_s_min,
            w.measured_speedup,
            w.projected_speedup,
            if i + 1 < widths.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The pipeline-scaling history table, located by its comm-column
/// marker so rows land under this table even after other benches have
/// appended their own tables further down the file.
const COMM_TABLE: history::HistoryTable<'static> = history::HistoryTable {
    section: None,
    header: "| date (utc) | smoke | corpus_bytes | docs | host_cpus | wall_s@1 | wall_s@max | measured_x@max | projected_x@max | index_msgs | index_batch_x | imbal%@4 | crit_stage |",
    marker: "| index_msgs |",
};

/// Append one row to the append-only history table (created on first use).
#[allow(clippy::too_many_arguments)]
fn append_history(
    ts: u64,
    smoke: bool,
    corpus_bytes: u64,
    docs: u32,
    host_cpus: usize,
    widths: &[WidthResult],
    comm: &CommReport,
    imbalance: &inspire_trace::RunReport,
) {
    let path = results_dir().join("scaling_history.md");
    let first = widths.first().expect("at least width 1");
    let last = widths.last().expect("at least width 1");
    let row = format!(
        "| {} | {} | {} | {} | {} | {:.4} | {:.4} | {:.2} | {:.2} | {} | {:.1} | {:.1} | {} |",
        utc_date(ts),
        smoke,
        corpus_bytes,
        docs,
        host_cpus,
        first.wall_s_median,
        last.wall_s_median,
        last.measured_speedup,
        last.projected_speedup,
        comm.index_msgs,
        comm.index_batching_factor(),
        imbalance.max_imbalance_pct(),
        imbalance.critical_path_stage().unwrap_or("-"),
    );
    history::append_row(&path, &COMM_TABLE, &row).expect("append scaling history row");
    println!("appended {}", path.display());
}

/// Unix seconds → `YYYY-MM-DD` (civil-from-days, Hinnant's algorithm).
fn utc_date(ts: u64) -> String {
    let days = (ts / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}
