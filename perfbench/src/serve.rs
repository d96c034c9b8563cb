//! Workloads `serve_hot` and `serve_cold`: an analyst exploring a
//! published snapshot over HTTP.
//!
//! Both run a closed loop of two clients, each sending its next request
//! only after the last one answered, as an analyst clicking through
//! ThemeView does, against a server started with `ServeConfig::default()`
//! on an ephemeral port, over the snapshot the `build` workload makes.
//!
//! - `serve_hot` exists to load the transport: 64 distinct mixed-kind
//!   targets fit in the 1,024-entry result cache, so after one warm-up
//!   pass the HTTP transport, accept loop and cache do nearly all the
//!   work and the engine almost none.
//! - `serve_cold` exists to load the engine through the same transport:
//!   32,768 distinct targets (32x the cache) of the kinds term, AND,
//!   OR, search, similar and rect, so nearly every request misses the
//!   cache and postings decode, ranking and IVF search do real work. A
//!   cache or transport change that helps `serve_hot` and costs this
//!   traffic mix shows here.
//!
//! Correctness: every body must match `execute` on the same snapshot
//! byte for byte (compared through a 64-bit digest, after the clock
//! stops).

use crate::client::{self, closed_loop_for, digest, LoopOpts, Sample};
use crate::common::{self, WorkDir, CLIENTS, FIRST_ANSWER_LOADS, SETUP_REPEATS};
use crate::stats::{median, Summary};
use crate::targets::{self, Mix, Target};
use crate::{num, num_list, Args, Report};
use inspire_core::query::SearchIndex;
use inspire_core::snapshot::SnapshotReport;
use inspire_serve::request::split_target;
use inspire_serve::{execute, execute_timed, ServeRequest, ServeState, Server};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Hot,
    Cold,
}

/// Distinct targets per workload.
const HOT_TARGETS: usize = 64;
const COLD_TARGETS: usize = 32_768;
/// Targets the in-process executor pass of a traced run covers.
const EXEC_SAMPLE: usize = 3_000;

/// Counters scraped from `/metrics` (JSON).
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    pub hits: f64,
    pub misses: f64,
    pub evictions: f64,
    pub resident_bytes: f64,
    /// `serve_request_seconds` sample count and exact sum (ns).
    pub requests: f64,
    pub request_sum_ns: f64,
}

pub fn scrape(addr: SocketAddr) -> Scrape {
    let body = client::get_ok(addr, "/metrics").expect("/metrics answers");
    let v = inspire_trace::json::parse(&body).expect("/metrics is JSON");
    let cache = |k: &str| {
        v.get("cache")
            .and_then(|c| c.get(k))
            .and_then(|x| x.as_f64())
            .unwrap_or(0.0)
    };
    let hist = v.get("histograms").and_then(|h| h.as_arr()).and_then(|a| {
        a.iter()
            .find(|h| h.get("name").and_then(|n| n.as_str()) == Some("serve_request_seconds"))
    });
    let field = |k: &str| {
        hist.and_then(|h| h.get(k))
            .and_then(|x| x.as_f64())
            .unwrap_or(0.0)
    };
    Scrape {
        hits: cache("hits"),
        misses: cache("misses"),
        evictions: cache("evictions"),
        resident_bytes: cache("resident_bytes"),
        requests: field("count"),
        request_sum_ns: field("sum_ns"),
    }
}

/// Per sample, whether it was answered correctly: a 200 whose body's
/// digest equals that of the in-process answer to the same target.
/// Distinct targets are executed once each, split over two threads.
fn answered_right(state: &ServeState, targets: &[Target], samples: &[Sample]) -> Vec<bool> {
    let mut seen: Vec<usize> = samples.iter().map(|s| s.target).collect();
    seen.sort_unstable();
    seen.dedup();
    let half = seen.len().div_ceil(2);
    let expected: BTreeMap<usize, u64> = std::thread::scope(|s| {
        let parts: Vec<_> = seen
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&i| {
                            let body = execute(state, &targets[i].request());
                            (i, body.map_or(0, |b| digest(&b)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    samples
        .iter()
        .map(|s| s.status == 200 && expected.get(&s.target) == Some(&s.digest))
        .collect()
}

/// Length of the windows a measured phase is cut into, seconds.
const WINDOW_S: f64 = 1.0;

/// Per whole window of [`WINDOW_S`] (samples by completion time): the
/// tail latency (p95, seconds) and the correct answers per second.
/// `tail_ms` and `throughput_per_s` are the medians over the windows,
/// so a burst of contention from other guests of the host that covers
/// a few seconds of a run moves a few windows, not the median one. A
/// slowdown of the program moves every window.
fn windows(samples: &[Sample], right: &[bool], wall: f64) -> (Vec<f64>, Vec<f64>) {
    let n = ((wall / WINDOW_S).floor() as usize).max(1);
    let mut lat = vec![Vec::new(); n];
    let mut ok = vec![0usize; n];
    for (s, &good) in samples.iter().zip(right) {
        let w = (s.end_s / WINDOW_S) as usize;
        if w < n {
            lat[w].push(s.split.total);
            ok[w] += usize::from(good);
        }
    }
    lat.iter()
        .zip(&ok)
        .filter_map(|(l, &c)| Some((Summary::fixed(l, 95.0)?.tail, c as f64 / WINDOW_S)))
        .unzip()
}

/// Per traffic class ([`Target::class`]): its share of the requests,
/// its client latency ladder (ms), and its share of the requests at or
/// above the run's p95, as one JSON object. This measures the makeup
/// of the tail instead of leaving it to the assumed mix.
pub fn class_breakdown(list: &[Target], samples: &[Sample]) -> String {
    let mut all: Vec<f64> = samples.iter().map(|s| s.split.total).collect();
    all.sort_by(f64::total_cmp);
    let p95 = crate::stats::percentile(&all, 95.0).unwrap_or(f64::INFINITY);
    let mut by: BTreeMap<&str, (Vec<f64>, usize)> = BTreeMap::new();
    let mut in_tail = 0usize;
    for s in samples {
        let e = by.entry(list[s.target].class()).or_default();
        e.0.push(s.split.total);
        if s.split.total >= p95 {
            e.1 += 1;
            in_tail += 1;
        }
    }
    let n = samples.len().max(1) as f64;
    let fields: Vec<String> = by
        .iter()
        .map(|(class, (lat, tail))| {
            format!(
                "\"{class}\":{{\"share\":{},\"tail_share\":{},\"latency_ms\":{}}}",
                num(lat.len() as f64 / n),
                num(*tail as f64 / in_tail.max(1) as f64),
                crate::stats::ladder_json(lat, 1e3)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The store layer's byte counts for a snapshot.
pub fn snapshot_layers(r: &mut Report, rep: &SnapshotReport) {
    let bytes = |names: &[&str]| -> f64 {
        rep.sections
            .iter()
            .filter(|(n, _)| names.contains(&n.as_str()))
            .map(|(_, b)| *b as f64)
            .sum()
    };
    r.layer(
        "snapshot.index_bytes",
        bytes(&["postdir", "postblk", "postskp", "dfv", "tfv"]),
    );
    r.layer("snapshot.sig_bytes", bytes(&["sigs"]));
    r.layer(
        "snapshot.ann_bytes",
        bytes(&["qsig", "qscale", "qoff", "signrm", "ivfdoc", "ivfoff"]),
    );
    r.layer("snapshot.total_bytes", rep.total_bytes as f64);
}

/// Median time from opening `path` to the first correct answer, and
/// the median `ServeState::load` time, over repeated loads (seconds).
pub fn first_answer(path: &Path, target: &Target, want: &str) -> (f64, f64, bool) {
    let mut firsts = Vec::new();
    let mut loads = Vec::new();
    let mut ok = true;
    for _ in 0..FIRST_ANSWER_LOADS {
        let t0 = Instant::now();
        let state = ServeState::load(path).expect("snapshot loads");
        loads.push(t0.elapsed().as_secs_f64());
        ok &= execute(&state, &target.request()).is_ok_and(|b| b == want);
        firsts.push(t0.elapsed().as_secs_f64());
    }
    (median(&firsts).unwrap(), median(&loads).unwrap(), ok)
}

/// Client-side transport layers of a traced phase, and the share of
/// the untraced median they do not account for.
pub fn transport_layers(r: &mut Report, traced: &[Sample], untraced_p50_s: f64) {
    let med =
        |f: fn(&Sample) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let (c, w, rd) = (
        med(|s| s.split.connect),
        med(|s| s.split.wait),
        med(|s| s.split.read),
    );
    r.layer("client.connect_ms", c * 1e3);
    r.layer("client.wait_ms", w * 1e3);
    r.layer("client.read_ms", rd * 1e3);
    r.layer("client.unaccounted", 1.0 - (c + w + rd) / untraced_p50_s);
}

/// Server-side time per request over a phase and the client time it
/// does not see, both as exact means (ms).
pub fn server_layers(r: &mut Report, before: &Scrape, after: &Scrape, traced: &[Sample]) {
    let n = (after.requests - before.requests).max(1.0);
    let server_ms = (after.request_sum_ns - before.request_sum_ns) / n / 1e6;
    let client_ms =
        traced.iter().map(|s| s.split.total).sum::<f64>() / traced.len().max(1) as f64 * 1e3;
    r.layer("server.request_ms", server_ms);
    r.layer("unattributed_ms", client_ms - server_ms);
}

/// Share of cache lookups between two scrapes that hit.
fn hit_ratio(before: &Scrape, after: &Scrape) -> f64 {
    let hits = after.hits - before.hits;
    hits / (hits + after.misses - before.misses).max(1.0)
}

pub fn cache_layers(r: &mut Report, before: &Scrape, after: &Scrape) {
    r.layer("cache.hit_ratio", hit_ratio(before, after));
    r.layer("cache.evictions", after.evictions - before.evictions);
    r.layer("cache.resident_bytes", after.resident_bytes);
}

/// What the last set-up left running.
struct Setup {
    state: Arc<ServeState>,
    server: Server,
    list: Vec<Target>,
    rep: SnapshotReport,
    corpus_bytes: u64,
}

pub fn run(args: &Args, work: &WorkDir, kind: Kind) -> Report {
    let mut r = Report::default();
    let path = work.file("serve.isnap");

    // Set-up: corpus, snapshot, load, targets, server start (and for
    // the hot mix one warm-up pass that fills the cache).
    let mut setups = Vec::new();
    let mut starts = Vec::new();
    let mut current: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = current.take() {
            previous.server.shutdown();
        }
        let t0 = Instant::now();
        let (rep, corpus_bytes) = common::build_in_child(args.seed, &path);
        let state = Arc::new(ServeState::load(&path).expect("snapshot loads"));
        let list = match kind {
            Kind::Hot => targets::generate(&state, args.seed, HOT_TARGETS, Mix::WithCluster),
            Kind::Cold => targets::generate(&state, args.seed, COLD_TARGETS, Mix::NoCluster),
        };
        let (server, start_s) = common::start_server(Arc::clone(&state));
        if kind == Kind::Hot {
            for t in &list {
                client::get_ok(server.local_addr(), &t.url).expect("warm-up request answers");
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
        starts.push(start_s);
        current = Some(Setup {
            state,
            server,
            list,
            rep,
            corpus_bytes,
        });
    }
    let Setup {
        state,
        server,
        list,
        rep,
        corpus_bytes,
    } = current.expect("at least one set-up");
    r.e2e("setup_s", median(&setups).unwrap());
    let addr = server.local_addr();
    let urls: Vec<String> = list.iter().map(|t| t.url.clone()).collect();
    let cursor = AtomicUsize::new(0);

    // Measured phase.
    let opts = LoopOpts {
        clients: CLIENTS,
        traced: false,
        check_json: false,
    };
    let before = scrape(addr);
    let (samples, wall) = closed_loop_for(addr, &urls, opts, &cursor, args.seconds);
    let after = scrape(addr);
    r.e2e("peak_rss_mib", common::peak_rss_mib());
    let right = answered_right(&state, &list, &samples);
    let wrong = right.iter().filter(|&&ok| !ok).count() as u64;
    r.attempted += samples.len() as u64;
    r.failed += wrong;
    let lat: Vec<f64> = samples.iter().map(|s| s.split.total).collect();
    let s = Summary::tail_at(&lat, 95.0).expect("requests ran");
    let (window_tails, window_rates) = windows(&samples, &right, wall);
    r.e2e("p50_ms", s.median * 1e3);
    r.e2e(
        "tail_ms",
        median(&window_tails).expect("a whole window") * 1e3,
    );
    r.e2e("throughput_per_s", median(&window_rates).unwrap());
    let want = execute(&state, &list[0].request()).expect("first target answers");
    let (first_s, load_s, first_ok) = first_answer(&path, &list[0], &want);
    r.check(first_ok, || {
        "a reloaded snapshot answered differently".into()
    });
    r.e2e("first_answer_ms", first_s * 1e3);
    r.e2e(
        "bytes_per_input_byte",
        rep.total_bytes as f64 / corpus_bytes as f64,
    );
    r.note("requests", s.n.to_string());
    r.note("latency_ms", crate::stats::ladder_json(&lat, 1e3));
    r.note("tail_pct", "95".into());
    r.note("window_s", num(WINDOW_S));
    r.note("window_tail_ms", num_list(&window_tails, 1e3));
    r.note("window_throughput_per_s", num_list(&window_rates, 1.0));
    r.note(
        "run_throughput_per_s",
        num((samples.len() as u64 - wrong) as f64 / wall),
    );
    r.note("classes", class_breakdown(&list, &samples));
    r.note("mean_ms", num(s.mean * 1e3));
    r.note("distinct_targets", list.len().to_string());
    r.note("cache_hit_ratio", num(hit_ratio(&before, &after)));
    r.note("snapshot_bytes", rep.total_bytes.to_string());

    if args.trace {
        cache_layers(&mut r, &before, &after);
        let before = scrape(addr);
        let traced_opts = LoopOpts {
            traced: true,
            ..opts
        };
        let (traced, _) = closed_loop_for(addr, &urls, traced_opts, &cursor, args.seconds);
        let after = scrape(addr);
        r.attempted += traced.len() as u64;
        r.failed += answered_right(&state, &list, &traced)
            .iter()
            .filter(|&&ok| !ok)
            .count() as u64;
        let tlat: Vec<f64> = traced.iter().map(|s| s.split.total).collect();
        let tp50 = median(&tlat).expect("traced requests ran");
        r.layer("trace.overhead", tp50 / s.median - 1.0);
        transport_layers(&mut r, &traced, s.median);
        server_layers(&mut r, &before, &after, &traced);
        executor_layers(&mut r, &state, &list);
        snapshot_layers(&mut r, &rep);
        r.layer("load.ms", load_s * 1e3);
        r.layer("server_start.ms", median(&starts).unwrap() * 1e3);
        r.note("traced_requests", traced.len().to_string());
    }
    server.shutdown();
    r
}

/// In-process pass over (a prefix of) the target list: parse time,
/// per-kind evaluate and serialize time from `execute_timed`, postings
/// touched, response size, and IVF probe counts. Medians per request,
/// except the counts, which are means.
pub fn executor_layers(r: &mut Report, state: &ServeState, list: &[Target]) {
    let reps = (EXEC_SAMPLE / list.len()).max(1);
    let mut parse = Vec::new();
    let mut eval: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut ser: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut touched, mut touched_n) = (0.0, 0usize);
    let (mut bytes, mut bytes_n) = (0.0, 0usize);
    let (mut cands, mut probed, mut sim_n) = (0.0, 0.0, 0usize);
    for _ in 0..reps {
        for t in list.iter().take(EXEC_SAMPLE) {
            let t0 = Instant::now();
            let (path, params) = split_target(&t.url);
            let req = ServeRequest::parse(path, &params).expect("target parses");
            parse.push(t0.elapsed().as_secs_f64() * 1e6);
            let (body, timing) = execute_timed(state, &req).expect("target answers");
            eval.entry(t.kind)
                .or_default()
                .push(timing.eval_ns as f64 / 1e3);
            ser.entry(t.kind)
                .or_default()
                .push(timing.serialize_ns as f64 / 1e3);
            bytes += body.len() as f64;
            bytes_n += 1;
            if !t.terms.is_empty() {
                touched += t
                    .terms
                    .iter()
                    .filter_map(|w| state.term_id(w))
                    .map(|id| state.df(id) as f64)
                    .sum::<f64>();
                touched_n += 1;
            }
            if let ServeRequest::Similar {
                doc,
                text,
                top,
                nprobe,
            } = &req
            {
                let q = match (doc, text) {
                    (Some(d), _) => state.doc_signature(*d).map(|s| s.to_vec()),
                    (None, Some(t)) => state.embed_text(t),
                    _ => None,
                };
                if let Some(q) = q {
                    let (_, st) = state.similar(&q, *top, *nprobe);
                    cands += st.candidates as f64;
                    probed += st.probed as f64;
                    sim_n += 1;
                }
            }
        }
    }
    r.layer("parse.us", median(&parse).unwrap_or(0.0));
    for (k, v) in &eval {
        r.layer(&format!("exec.{k}.eval_us"), median(v).unwrap());
        r.layer(&format!("exec.{k}.serialize_us"), median(&ser[k]).unwrap());
    }
    r.layer("query.postings_touched", touched / touched_n.max(1) as f64);
    r.layer("response.bytes", bytes / bytes_n.max(1) as f64);
    r.layer("ann.candidates", cands / sim_n.max(1) as f64);
    r.layer("ann.probed", probed / sim_n.max(1) as f64);
}
