//! Workload `ingest`: live appends beside live reads.
//!
//! Why it exists: it is the only workload that exercises the WAL,
//! seal, manifest, compaction and merge-on-read layers, and it does so
//! with writes beside reads. One writer appends small batches, taken
//! from a second corpus generated with a derived seed, onto the `build`
//! snapshot. For each append it calls `IngestDir::append` (the
//! program's own flush policy: the WAL record is fsynced before the
//! call returns), then `load_live_state` and `Server::swap_state`, and
//! then an HTTP probe for a term of the new batch; every 32 segments it
//! compacts. Beside it one reader client runs the `serve_cold` traffic
//! mix over HTTP.
//!
//! Correctness: each reader response must be a 200 with a JSON body,
//! each probe must return the merged view's new answer, and at the end
//! the merged view must answer a fixed query set byte-identically to a
//! clean rebuild of the same logical corpus, before and after a last
//! compaction.

use crate::client::{self, closed_loop, LoopOpts, Sample};
use crate::common::{self, WorkDir, FIRST_ANSWER_LOADS, PROCS, SETUP_REPEATS};
use crate::serve::{self, scrape};
use crate::stats::{median, Summary};
use crate::targets::{self, Mix, Target};
use crate::{num, Args, Report};
use corpus::{CorpusSpec, Source, SourceSet};
use inspire_core::tokenize::Tokenizer;
use inspire_ingest::{IngestDir, MANIFEST_FILE, WAL_FILE};
use inspire_serve::{execute, load_live_state, ServeState, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Bytes of the second corpus the batches come from, and per batch.
const BATCH_POOL_BYTES: u64 = 4 << 20;
const BATCH_BYTES: u64 = 4 << 10;
/// Compact whenever this many segments are open.
const COMPACT_EVERY: usize = 32;
/// Appends a phase makes at least, even if that takes longer than the
/// measured time.
const MIN_APPENDS: u64 = 200;
/// Open segments a phase ends with. Once the time is up, the writer
/// goes on (at most one compaction cycle) until exactly this many are
/// open, so every run leaves the directory in the same shape and the
/// final compaction and the reopened merged view (`first_answer_ms`,
/// `bytes_per_input_byte`) do the same work whenever the clock stopped.
const END_SEGMENTS: usize = COMPACT_EVERY / 2;
/// Reader targets (the `serve_cold` mix).
const READER_TARGETS: usize = 32_768;
/// Index queries the final merged view is compared on.
const CHECK_QUERIES: usize = 240;

/// The second seed: batches never repeat the base corpus.
fn batch_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x0ba7_c4e5
}

/// What one measured phase of appends observed.
#[derive(Default)]
struct Phase {
    ttv: Vec<f64>,
    wal: Vec<f64>,
    seal: Vec<f64>,
    live_load: Vec<f64>,
    swap: Vec<f64>,
    segments_open: Vec<f64>,
    compact: Vec<f64>,
    compact_bytes: f64,
    wal_bytes: f64,
    segment_bytes: f64,
    docs: f64,
    writer_wall: f64,
    appends: u64,
    bad_appends: u64,
    reader: Vec<Sample>,
    reader_wall: f64,
    appended: Vec<Source>,
    probes: Vec<String>,
}

/// A term of the batch to probe for: the first token of the batch's
/// first record that the indexing tokenizer keeps.
fn probe_term(src: &Source, tokenizer: &Tokenizer) -> Option<String> {
    let range = src.record_ranges().into_iter().next()?;
    let doc = src.parse_record(range);
    let mut found = None;
    for (_, text) in doc.fields {
        tokenizer.tokenize_into(text, |t| {
            if found.is_none() && t.bytes().all(|b| b.is_ascii_lowercase()) {
                found = Some(t.to_string());
            }
        });
    }
    found
}

/// Append batches until `seconds` pass, at least [`MIN_APPENDS`] were
/// made and [`END_SEGMENTS`] segments are open, with one reader client
/// beside.
fn phase(
    dir: &Path,
    server: &Server,
    batches: &[Source],
    reader_urls: &[String],
    seconds: f64,
    traced: bool,
) -> Phase {
    let mut ph = Phase::default();
    let addr = server.local_addr();
    let tokenizer = Tokenizer::default();
    let mut ing = IngestDir::open(dir).expect("ingest dir opens");
    let mut state = Arc::new(load_live_state(dir).expect("live state loads"));
    let stop = AtomicBool::new(false);
    let cursor = AtomicUsize::new(0);
    let opts = LoopOpts {
        clients: 1,
        traced,
        check_json: true,
    };
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let t0 = Instant::now();
            let samples = closed_loop(addr, reader_urls, opts, &cursor, &stop);
            (
                samples.into_iter().flatten().collect::<Vec<_>>(),
                t0.elapsed().as_secs_f64(),
            )
        });
        let start = Instant::now();
        for batch in batches {
            if ph.appends >= MIN_APPENDS
                && start.elapsed().as_secs_f64() >= seconds
                && ing.manifest().segments.len() == END_SEGMENTS
            {
                break;
            }
            let term = probe_term(batch, &tokenizer).expect("batch has an indexable term");
            let probe = format!("/term?t={term}&top=1");
            let req = Target {
                url: probe.clone(),
                kind: "term",
                terms: vec![term],
            }
            .request();
            let old = execute(&state, &req).expect("probe answers");

            let t0 = Instant::now();
            let stats = ing.append(batch.clone()).expect("append succeeds");
            let t1 = Instant::now();
            let next = Arc::new(load_live_state(dir).expect("live state loads"));
            let t2 = Instant::now();
            server.swap_state(Arc::clone(&next));
            let t3 = Instant::now();
            let resp = inspire_serve::http::get(addr, &probe, client::TIMEOUT);
            let ttv = t0.elapsed().as_secs_f64();

            let want = execute(&next, &req).expect("probe answers");
            let ok = resp.is_ok_and(|r| r.status == 200 && r.body == want) && want != old;
            ph.appends += 1;
            ph.bad_appends += u64::from(!ok);
            if !ok {
                eprintln!("perfbench: probe {probe} did not see append {}", ph.appends);
            }
            ph.ttv.push(ttv);
            ph.wal.push(stats.wal_s);
            ph.seal.push(stats.seal_s);
            ph.live_load.push((t2 - t1).as_secs_f64());
            ph.swap.push((t3 - t2).as_secs_f64());
            ph.segments_open.push(next.segments_open() as f64);
            ph.wal_bytes += stats.wal_bytes as f64;
            ph.segment_bytes += stats.segment_bytes as f64;
            ph.docs += f64::from(stats.docs);
            ph.appended.push(batch.clone());
            ph.probes.push(probe);
            state = next;

            if ing.manifest().segments.len() >= COMPACT_EVERY {
                let tc = Instant::now();
                let rep = ing.compact().expect("compaction succeeds");
                ph.compact.push(tc.elapsed().as_secs_f64());
                ph.compact_bytes += rep.map_or(0.0, |c| c.bytes_written as f64);
                state = Arc::new(load_live_state(dir).expect("live state loads"));
                server.swap_state(Arc::clone(&state));
            }
        }
        ph.writer_wall = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        (ph.reader, ph.reader_wall) = reader.join().expect("reader thread panicked");
    });
    ph
}

fn file_len(p: &Path) -> f64 {
    std::fs::metadata(p).map_or(0.0, |m| m.len() as f64)
}

/// Bytes the ingest directory holds in its WAL, live segments and
/// manifest.
fn disk_bytes(ing: &IngestDir) -> f64 {
    let dir = ing.dir();
    file_len(&dir.join(WAL_FILE))
        + file_len(&dir.join(MANIFEST_FILE))
        + ing
            .manifest()
            .segments
            .iter()
            .map(|s| file_len(&dir.join(&s.file)))
            .sum::<f64>()
}

/// Queries the final merged view must answer like a clean rebuild:
/// index kinds only (the layout of appended documents is not rebuilt
/// by ingestion), drawn from the merged view, plus every probe (last).
fn check_requests(live: &ServeState, seed: u64, probes: &[String]) -> Vec<Target> {
    let mut out: Vec<Target> =
        targets::generate(live, seed ^ 0xc4ec, CHECK_QUERIES * 3, Mix::NoCluster)
            .into_iter()
            .filter(|t| matches!(t.kind, "term" | "query" | "search"))
            .take(CHECK_QUERIES)
            .collect();
    out.extend(probes.iter().map(|p| Target {
        url: p.clone(),
        kind: "term",
        terms: Vec::new(),
    }));
    out
}

pub fn run(args: &Args, work: &WorkDir) -> Report {
    let mut r = Report::default();
    let base = work.file("base.isnap");
    let dirs = [work.file("live"), work.file("live-traced")];

    // Set-up: base corpus and snapshot, the batch corpus, a fresh
    // ingest directory (two for a traced run), the server over the
    // merged view, and the reader's targets.
    let mut setups = Vec::new();
    let mut starts = Vec::new();
    let mut current: Option<(Server, Vec<Source>, Vec<Target>)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((server, ..)) = current.take() {
            server.shutdown();
        }
        let t0 = Instant::now();
        common::build_in_child(args.seed, &base);
        let base_abs: PathBuf = std::fs::canonicalize(&base).expect("base snapshot path");
        let batches = CorpusSpec {
            source_bytes: BATCH_BYTES,
            ..CorpusSpec::pubmed(BATCH_POOL_BYTES, batch_seed(args.seed))
        }
        .generate()
        .sources;
        for d in &dirs[..1 + usize::from(args.trace)] {
            let _ = std::fs::remove_dir_all(d);
            IngestDir::create(d, Some(&base_abs)).expect("ingest dir created");
        }
        let state = Arc::new(load_live_state(&dirs[0]).expect("live state loads"));
        let list = targets::generate(&state, args.seed, READER_TARGETS, Mix::NoCluster);
        let (server, start_s) = common::start_server(Arc::clone(&state));
        setups.push(t0.elapsed().as_secs_f64());
        starts.push(start_s);
        current = Some((server, batches, list));
    }
    let (server, batches, list) = current.expect("at least one set-up");
    r.e2e("setup_s", median(&setups).unwrap());
    let urls: Vec<String> = list.iter().map(|t| t.url.clone()).collect();

    let ph = phase(&dirs[0], &server, &batches, &urls, args.seconds, false);
    r.e2e("peak_rss_mib", common::peak_rss_mib());
    account(&mut r, &ph);
    let ttv = Summary::tail_at(&ph.ttv, 95.0).expect("appends ran");
    r.e2e("p50_ms", ttv.median * 1e3);
    r.e2e("tail_ms", ttv.tail * 1e3);
    r.e2e("throughput_per_s", ph.appends as f64 / ph.writer_wall);
    let reader_lat: Vec<f64> = ph.reader.iter().map(|s| s.split.total).collect();
    let reader = Summary::tail_at(&reader_lat, 99.0).expect("the reader ran");
    r.note("reader_classes", serve::class_breakdown(&list, &ph.reader));
    r.note("reader_qps", num(reader.n as f64 / ph.reader_wall));
    r.note(
        "reader_latency_ms",
        crate::stats::ladder_json(&reader_lat, 1e3),
    );
    r.note("batch_seed", batch_seed(args.seed).to_string());
    r.note("appends", ph.appends.to_string());
    r.note("appended_docs", num(ph.docs));
    r.note("append_docs_per_s", num(ph.docs / ph.writer_wall));
    r.note("tail_pct", num(ttv.tail_pct));
    r.note("compactions", ph.compact.len().to_string());
    r.note("reader_requests", ph.reader.len().to_string());
    r.note(
        "flush_policy",
        "\"fsync of the WAL record on every append (IngestDir::append)\"".into(),
    );

    let traced = args.trace.then(|| {
        server.swap_state(Arc::new(
            load_live_state(&dirs[1]).expect("live state loads"),
        ));
        let before = scrape(server.local_addr());
        let t = phase(&dirs[1], &server, &batches, &urls, args.seconds, true);
        let after = scrape(server.local_addr());
        (t, before, after)
    });
    server.shutdown();

    // Whole-run checks on the untraced directory. The merged view is
    // read before and after a last compaction, and timed from opening
    // to its first answer, before the clean rebuild runs in this
    // process (a build leaves the allocator in another state, which
    // moves load times).
    let answers = |state: &ServeState, reqs: &[Target]| -> Vec<Option<String>> {
        reqs.iter()
            .map(|t| execute(state, &t.request()).ok())
            .collect()
    };
    let live = load_live_state(&dirs[0]).expect("live state loads");
    let reqs = check_requests(&live, args.seed, &ph.probes);
    let before_compaction = answers(&live, &reqs);
    drop(live);
    let mut ing = IngestDir::open(&dirs[0]).expect("ingest dir opens");
    ing.compact().expect("last compaction succeeds");
    let logical: f64 = ph.appended.iter().map(|s| s.data.len() as f64).sum();
    r.e2e("bytes_per_input_byte", disk_bytes(&ing) / logical);

    let probe = reqs.last().expect("at least one probe").request();
    let want = before_compaction.last().cloned().flatten();
    let mut firsts = Vec::new();
    for _ in 0..FIRST_ANSWER_LOADS {
        let t0 = Instant::now();
        let state = load_live_state(&dirs[0]).expect("live state loads");
        let ok = execute(&state, &probe).ok() == want;
        firsts.push(t0.elapsed().as_secs_f64());
        r.check(ok, || {
            "a reopened merged view answered the probe differently".into()
        });
    }
    r.e2e("first_answer_ms", median(&firsts).unwrap() * 1e3);
    let after_compaction = answers(&load_live_state(&dirs[0]).expect("live state loads"), &reqs);

    let base_set = common::corpus(args.seed);
    let clean_set = SourceSet {
        sources: base_set
            .sources
            .iter()
            .chain(&ph.appended)
            .cloned()
            .collect(),
    };
    let clean_path = work.file("clean.isnap");
    common::build_snapshot(&clean_set, &clean_path, PROCS);
    let clean = answers(
        &ServeState::load(&clean_path).expect("clean rebuild loads"),
        &reqs,
    );
    for (when, got) in [("before", &before_compaction), ("after", &after_compaction)] {
        let n = got.iter().zip(&clean).filter(|(a, b)| a != b).count();
        r.check(n == 0, || {
            format!("{n} answers differ from a clean rebuild {when} the last compaction")
        });
    }
    r.note("check_queries", reqs.len().to_string());

    if let Some((t, before, after)) = traced {
        account(&mut r, &t);
        let tttv = median(&t.ttv).expect("traced appends ran");
        r.layer("trace.overhead", tttv / ttv.median - 1.0);
        serve::transport_layers(&mut r, &t.reader, reader.median);
        serve::server_layers(&mut r, &before, &after, &t.reader);
        serve::cache_layers(&mut r, &before, &after);
        let dur = |v: &[f64]| median(v).unwrap_or(0.0) * 1e3;
        r.layer("wal.append_ms", dur(&t.wal));
        r.layer("seal.ms", dur(&t.seal));
        r.layer("live.load_ms", dur(&t.live_load));
        r.layer("swap.ms", dur(&t.swap));
        r.layer(
            "live.segments_open_mean",
            t.segments_open.iter().sum::<f64>() / t.segments_open.len().max(1) as f64,
        );
        r.layer(
            "live.segments_open_max",
            t.segments_open.iter().copied().fold(0.0, f64::max),
        );
        r.layer("compact.s", median(&t.compact).unwrap_or(0.0));
        r.layer("compact.bytes_rewritten", t.compact_bytes);
        r.layer("wal.bytes", t.wal_bytes);
        r.layer("segment.bytes", t.segment_bytes);
        let tlat: Vec<f64> = t.reader.iter().map(|s| s.split.total).collect();
        let treader = Summary::tail_at(&tlat, 99.0).expect("the traced reader ran");
        r.layer("reader.qps", treader.n as f64 / t.reader_wall);
        r.layer("reader.p50_ms", treader.median * 1e3);
        r.layer("reader.p99_ms", treader.tail * 1e3);
        r.note("traced_reader_tail_pct", num(treader.tail_pct));
        r.layer("server_start.ms", median(&starts).unwrap() * 1e3);
        r.note("traced_appends", t.appends.to_string());
    }
    r
}

/// Count one phase's operations and failures into the report.
fn account(r: &mut Report, ph: &Phase) {
    let reader_bad = ph
        .reader
        .iter()
        .filter(|s| s.status != 200 || !s.well_formed)
        .count() as u64;
    r.attempted += ph.appends + ph.reader.len() as u64;
    r.failed += ph.bad_appends + reader_bad;
}
