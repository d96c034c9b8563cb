//! `ingest` — live-ingestion benchmark + correctness harness.
//!
//! Builds a base snapshot from half of a generated corpus, then appends
//! the rest batch by batch through the WAL → seal path, measuring:
//!
//! - `wal_append_docs_per_s` — durable append throughput (fsync
//!   included),
//! - `seal_latency_s` — mean time from WAL durability to the sealed
//!   segment being manifest-live,
//! - `time_to_visibility_s` — worst observed append-start → the new
//!   documents answering queries through a freshly loaded merged view,
//!   loaded while the previous generation is still held as a server
//!   holds it (the CI gate: < 1 s on the smoke corpus),
//! - `write_amplification` — physical bytes on disk (WAL + segments +
//!   manifest) per logical input byte.
//!
//! Like `loadgen`, the benchmark doubles as a correctness harness:
//! every query body served by the merged (base + segments) view is
//! compared byte for byte against a from-scratch rebuild of the full
//! corpus, before and after compaction. `wrong_answers` must be zero or
//! the process exits 1.
//!
//! Output: `results/BENCH_ingest_<unix-ts>.json`, a stable copy at
//! `results/BENCH_ingest_latest.json`, and an append-only row in
//! `results/scaling_history.md`.

use corpus::{CorpusSpec, Source, SourceSet};
use inspire_bench::{flag_num, history, results_dir};
use inspire_core::pipeline::run_engine;
use inspire_core::query::SearchIndex;
use inspire_core::EngineConfig;
use inspire_ingest::IngestDir;
use inspire_serve::{execute, load_live_state, ServeRequest, ServeState};
use perfmodel::CostModel;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let size = flag_num(&args, "--size").unwrap_or(if smoke { 256 * 1024 } else { 1024 * 1024 });
    let seed = flag_num(&args, "--seed").unwrap_or(7) as u64;

    let set = CorpusSpec::pubmed(size as u64, seed).generate();
    let half = set.sources.len() / 2;
    assert!(half >= 1, "corpus too small to split (--size {size})");
    let base_set = SourceSet {
        sources: set.sources[..half].to_vec(),
    };
    let batches: Vec<Source> = set.sources[half..].to_vec();
    let logical_bytes: u64 = batches.iter().map(|s| s.data.len() as u64).sum();

    let tmp = std::env::temp_dir().join(format!("va-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create bench dir");
    let base_path = tmp.join("base.isnap");
    build_snapshot(&base_set, &base_path);
    eprintln!(
        "ingest bench: base {} docs, {} live batches ({} bytes)",
        count_docs(&base_path),
        batches.len(),
        logical_bytes
    );

    // Append every batch, measuring durability, seal, and visibility.
    let live_dir = tmp.join("live");
    let mut ing = IngestDir::create(&live_dir, Some(&base_path)).expect("create ingest dir");
    let mut docs_total: u64 = 0;
    let mut wal_s_total = 0.0_f64;
    let mut seal_s_total = 0.0_f64;
    let mut ttv_worst = 0.0_f64;
    let mut physical_segments: u64 = 0;
    // The generation being served, held while the next one loads, as a
    // server holds it.
    let mut served = load_live_state(&live_dir).expect("merged view loads");
    for src in batches {
        let before = ing.total_docs();
        let t0 = Instant::now();
        let stats = ing.append(src).expect("append batch");
        // Visibility is measured the way a reader sees it: a fresh
        // merged view over the manifest must already serve the batch.
        let state = load_live_state(&live_dir).expect("merged view loads");
        assert!(
            state.total_docs() == before + stats.docs,
            "sealed batch not visible in the merged view"
        );
        let ttv = t0.elapsed().as_secs_f64();
        served = state;
        docs_total += stats.docs as u64;
        wal_s_total += stats.wal_s;
        seal_s_total += stats.seal_s;
        ttv_worst = ttv_worst.max(ttv);
        physical_segments += stats.segment_bytes;
    }
    let batches_n = ing.manifest().segments.len();
    let wal_docs_per_s = if wal_s_total > 0.0 {
        docs_total as f64 / wal_s_total
    } else {
        0.0
    };
    let seal_latency_s = seal_s_total / batches_n.max(1) as f64;
    let physical_bytes = file_len(&live_dir.join(inspire_ingest::WAL_FILE))
        + physical_segments
        + file_len(&live_dir.join(inspire_ingest::MANIFEST_FILE));
    let write_amplification = if logical_bytes > 0 {
        physical_bytes as f64 / logical_bytes as f64
    } else {
        0.0
    };

    // Correctness: the merged view must serve byte-identical bodies to
    // a from-scratch rebuild of the same logical corpus — before and
    // after compaction.
    let clean_path = tmp.join("clean.isnap");
    build_snapshot(&set, &clean_path);
    let clean = ServeState::load(&clean_path).expect("clean snapshot loads");
    let requests = build_requests(&clean);
    let mut wrong = compare(&clean, &served, &requests);

    let segments_before = served.segments_open();
    let report = ing.compact().expect("compaction");
    let segments_after = ing.manifest().segments.len();
    if let Some(r) = &report {
        eprintln!(
            "ingest bench: compacted {} segments into 1 ({} bytes)",
            r.segments_before, r.bytes_written
        );
    }
    let compacted = load_live_state(&live_dir).expect("compacted view loads");
    wrong += compare(&clean, &compacted, &requests);

    println!(
        "live ingestion — {docs_total} docs over {batches_n} batches, base {} docs",
        ing.manifest().base_docs
    );
    println!(
        "wal {wal_docs_per_s:.0} docs/s (fsync), seal {:.1} ms mean, visibility {:.1} ms worst",
        seal_latency_s * 1e3,
        ttv_worst * 1e3
    );
    println!(
        "write amplification {write_amplification:.2}x ({physical_bytes} physical / {logical_bytes} logical bytes)"
    );
    println!(
        "{segments_before} segments → {segments_after} after compaction, {wrong} wrong answers over {} queries x2",
        requests.len()
    );
    if wrong > 0 {
        eprintln!("ingest bench: FAILED — merged bodies diverged from the full rebuild");
    }

    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock before 1970")
        .as_secs();
    let json = format!(
        "{{\n  \"bench\": \"ingest\",\n  \"smoke\": {smoke},\n  \"ingest\": {{\n    \
         \"docs\": {docs_total},\n    \"batches\": {batches_n},\n    \
         \"base_docs\": {},\n    \
         \"wal_append_docs_per_s\": {wal_docs_per_s:.2},\n    \
         \"seal_latency_s\": {seal_latency_s:.6},\n    \
         \"time_to_visibility_s\": {ttv_worst:.6},\n    \
         \"write_amplification\": {write_amplification:.4},\n    \
         \"logical_bytes\": {logical_bytes},\n    \"physical_bytes\": {physical_bytes},\n    \
         \"segments_before_compact\": {segments_before},\n    \
         \"segments_after_compact\": {segments_after},\n    \
         \"wrong_answers\": {wrong}\n  }}\n}}\n",
        ing.manifest().base_docs
    );
    let json_path = results_dir().join(format!("BENCH_ingest_{ts}.json"));
    std::fs::write(&json_path, &json).expect("write BENCH json");
    let latest = results_dir().join("BENCH_ingest_latest.json");
    std::fs::write(&latest, &json).expect("write BENCH latest pointer");
    println!("wrote {}", json_path.display());
    println!("wrote {}", latest.display());

    let row = format!(
        "| {} | {} | {} | {} | {:.0} | {:.4} | {:.4} | {:.2} | {} |",
        utc_date(ts),
        smoke,
        docs_total,
        batches_n,
        wal_docs_per_s,
        seal_latency_s,
        ttv_worst,
        write_amplification,
        wrong,
    );
    let path = results_dir().join("scaling_history.md");
    history::append_row(&path, &INGEST_TABLE, &row).expect("append ingest history row");
    println!("appended {}", path.display());

    let _ = std::fs::remove_dir_all(&tmp);
    if wrong > 0 {
        std::process::exit(1);
    }
}

/// The ingest-history table inside the shared history file.
const INGEST_TABLE: history::HistoryTable<'static> = history::HistoryTable {
    section: Some("## Live ingestion"),
    header:
        "| date (utc) | smoke | docs | batches | wal_docs_per_s | seal_s | ttv_s | write_amp | wrong |",
    marker: "| wal_docs_per_s |",
};

/// Full pipeline at P=1 with `snapshot_out` set.
fn build_snapshot(set: &SourceSet, out: &Path) {
    let cfg = EngineConfig {
        snapshot_out: Some(PathBuf::from(out)),
        ..EngineConfig::default()
    };
    let run = run_engine(1, Arc::new(CostModel::pnnl_2007()), set, &cfg);
    run.master()
        .snapshot_report
        .as_ref()
        .expect("snapshot written");
}

fn count_docs(snapshot: &Path) -> u32 {
    inspire_core::EngineSnapshot::open(snapshot)
        .expect("snapshot opens")
        .meta()
        .total_docs
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Mixed-kind request list drawn from the rebuilt snapshot's vocabulary
/// (identical to the merged vocabulary when nothing diverged).
fn build_requests(state: &ServeState) -> Vec<ServeRequest> {
    let len = state.terms.len();
    let mut terms: Vec<String> = Vec::new();
    for k in 0..len * 2 {
        let t = state.terms.get((len / 7 + k) % len);
        if t.len() >= 2
            && t.chars().all(|c| c.is_ascii_alphanumeric())
            && !matches!(t, "and" | "or" | "not")
            && !terms.iter().any(|o| o == t)
        {
            terms.push(t.to_string());
            if terms.len() == 12 {
                break;
            }
        }
    }
    let mut out = Vec::new();
    for pair in terms.chunks(2) {
        out.push(ServeRequest::Term {
            term: pair[0].clone(),
            top: 10,
        });
        if pair.len() == 2 {
            let expr = inspire_core::query::Query::parse(&format!("{} AND {}", pair[0], pair[1]))
                .expect("query parses");
            out.push(ServeRequest::Boolean { expr, top: 10 });
            out.push(ServeRequest::Search {
                text: format!("{} {}", pair[0], pair[1]),
                top: 5,
            });
        }
    }
    out
}

/// Execute every request against both states; count body mismatches.
fn compare(clean: &ServeState, live: &ServeState, requests: &[ServeRequest]) -> u64 {
    let mut wrong = 0;
    for req in requests {
        let a = execute(clean, req).expect("clean body");
        let b = execute(live, req).expect("live body");
        if a != b {
            wrong += 1;
            eprintln!("mismatch on {req:?}:\n  clean: {a}\n  live:  {b}");
        }
    }
    wrong
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
