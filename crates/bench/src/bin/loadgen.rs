//! `loadgen` — concurrent load generator for the snapshot-serving tier.
//!
//! Drives many client threads of mixed-kind queries (`/term`, `/query`,
//! `/search`, `/cluster`, `/rect`) against a `vaengine serve` instance
//! and reports throughput, per-kind client-side latency percentiles,
//! and the server's own cache statistics. Every successful response is
//! checked byte-for-byte against the in-process [`execute`] oracle —
//! the exact code behind `vaengine query --json` — so the benchmark
//! doubles as a correctness harness: `wrong_answers` must be zero.
//!
//! ```text
//! loadgen --snapshot engine.isnap                     # in-process server
//! loadgen --snapshot engine.isnap --addr 127.0.0.1:7878   # external server
//! loadgen --snapshot engine.isnap --smoke             # CI serve-smoke sizing
//! loadgen --snapshot engine.isnap --clients 128 --requests 8192
//! loadgen --snapshot engine.isnap --flips 8           # hot-swap under load
//! ```
//!
//! `--flips N` (in-process only) hot-swaps the server's state N times
//! while the client herd is firing — the ingest generation-flip path —
//! and then **requires** zero errors and zero wrong answers: an
//! in-flight request must never 5xx or change bytes because the state
//! it started on was swapped out from under it.
//!
//! All client threads synchronize on a barrier **after** marking their
//! first request in flight and **before** sending it, so the reported
//! `max_in_flight` provably reaches the full client count — the CI
//! gate for "sustains ≥ N concurrent in-flight queries".
//!
//! In-process runs also measure the cost of request tracing: the same
//! herd first runs against a second server started with
//! `trace_requests: false`, and the reported (traced) run's throughput
//! is compared against that baseline as `trace_overhead_pct` in the
//! BENCH JSON. The untraced phase runs *first* so one-time warmup
//! (page cache, CPU ramp) lands on the baseline, not the measured run;
//! negative values simply mean the runs were within noise. External
//! `--addr` runs cannot control the server's config, so the field is
//! `null` there.
//!
//! Output: `results/BENCH_serving_<unix-ts>.json`, a stable copy at
//! `results/BENCH_serving_latest.json`, and an append-only row in
//! `results/scaling_history.md`.

use inspire_bench::{flag_num, flag_str, history, results_dir};
use inspire_serve::request::split_target;
use inspire_serve::{execute, http, ServeConfig, ServeRequest, ServeState, Server};
use inspire_trace::metrics::fmt_ns;
use inspire_trace::Registry;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

const TIMEOUT: Duration = Duration::from_secs(30);

/// Shared counters across all client threads.
#[derive(Default)]
struct Counters {
    ok: AtomicU64,
    errors: AtomicU64,
    rejected_429: AtomicU64,
    wrong_answers: AtomicU64,
    in_flight: AtomicUsize,
    max_in_flight: AtomicUsize,
}

/// Server-side cache statistics scraped from `/metrics` at the end of
/// the run.
struct CacheScrape {
    hits: u64,
    misses: u64,
    evictions: u64,
    hit_rate: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let snapshot = flag_str(&args, "--snapshot").unwrap_or_else(|| {
        eprintln!("usage: loadgen --snapshot <file.isnap> [--addr HOST:PORT] [--clients N] [--requests N] [--smoke]");
        std::process::exit(2);
    });
    let clients = flag_num(&args, "--clients").unwrap_or(64).max(1);
    let total_requests = flag_num(&args, "--requests")
        .unwrap_or(if smoke { 1280 } else { 4096 })
        .max(clients);
    let flips = flag_num(&args, "--flips").unwrap_or(0);

    let t_load = Instant::now();
    let state = Arc::new(ServeState::load(Path::new(&snapshot)).unwrap_or_else(|e| {
        eprintln!("loadgen: cannot load snapshot {snapshot}: {e}");
        std::process::exit(2);
    }));
    eprintln!(
        "loadgen: snapshot {snapshot} loaded in {:.1} ms",
        t_load.elapsed().as_secs_f64() * 1e3
    );

    // Either drive an already-running server or host one in-process on
    // an ephemeral port. The in-process queue is sized so the client
    // herd never sees 429 unless it is explicitly testing backpressure.
    let external = flag_str(&args, "--addr");
    let (addr, server) = match &external {
        Some(a) => (resolve(a), None),
        None => {
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                queue_depth: clients * 2,
                ..ServeConfig::default()
            };
            let server = Server::start(Arc::clone(&state), &cfg).unwrap_or_else(|e| {
                eprintln!("loadgen: cannot start in-process server: {e}");
                std::process::exit(2);
            });
            (server.local_addr(), Some(server))
        }
    };

    let health = http::get(addr, "/healthz", TIMEOUT).unwrap_or_else(|e| {
        eprintln!("loadgen: server at {addr} not answering /healthz: {e}");
        std::process::exit(2);
    });
    assert_eq!(health.status, 200, "unhealthy server at {addr}");

    // Mixed-kind target list with precomputed oracle bodies; every
    // served response must match its oracle byte for byte.
    let targets = build_targets(&state);
    let oracle: Vec<String> = targets
        .iter()
        .map(|t| {
            let (path, params) = split_target(t);
            let req = ServeRequest::parse(path, &params).expect("target parses");
            execute(&state, &req).expect("oracle executes")
        })
        .collect();
    eprintln!(
        "loadgen: {clients} clients, {total_requests} requests over {} targets against {addr}",
        targets.len()
    );

    if flips > 0 && server.is_none() {
        eprintln!("loadgen: --flips needs the in-process server (drop --addr)");
        std::process::exit(2);
    }
    // A second, independently loaded state for `--flips`: identical
    // answers, different allocation — swapping between the two is
    // exactly what an ingest generation flip does (minus new docs).
    let flip_state = if flips > 0 {
        Some(Arc::new(
            ServeState::load(Path::new(&snapshot)).unwrap_or_else(|e| {
                eprintln!("loadgen: cannot reload snapshot for --flips: {e}");
                std::process::exit(2);
            }),
        ))
    } else {
        None
    };

    // Tracing-overhead baseline (in-process only): the identical herd
    // first runs against a second server over the same state Arc with
    // request tracing disabled. Its throughput is the denominator of
    // `trace_overhead_pct`; the traced run below is the measured one.
    let qps_untraced = if server.is_some() {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: clients * 2,
            trace_requests: false,
            ..ServeConfig::default()
        };
        let baseline = Server::start(Arc::clone(&state), &cfg).unwrap_or_else(|e| {
            eprintln!("loadgen: cannot start untraced baseline server: {e}");
            std::process::exit(2);
        });
        let p = run_phase(
            baseline.local_addr(),
            &targets,
            &oracle,
            clients,
            total_requests,
            None,
        );
        baseline.shutdown();
        let qps = if p.wall_s > 0.0 {
            p.ok as f64 / p.wall_s
        } else {
            0.0
        };
        eprintln!(
            "loadgen: untraced baseline {qps:.0} req/s ({} ok, {:.3}s)",
            p.ok, p.wall_s
        );
        Some(qps)
    } else {
        None
    };

    let flipper = match (&server, &flip_state) {
        (Some(srv), Some(other)) => Some((srv, &state, other, flips)),
        _ => None,
    };
    let phase = run_phase(addr, &targets, &oracle, clients, total_requests, flipper);
    let wall_s = phase.wall_s;

    let mut merged = Registry::new();
    for r in &phase.registries {
        merged.merge(r);
    }

    let cache = scrape_cache(addr);
    if let Some(server) = server {
        let summary = server.shutdown();
        eprintln!(
            "loadgen: in-process server drained ({} served, {} errors)",
            summary.served, summary.errors
        );
    }

    let ok = phase.ok;
    let errors = phase.errors;
    let rejected = phase.rejected;
    let wrong = phase.wrong;
    let max_in_flight = phase.max_in_flight;
    let qps = if wall_s > 0.0 {
        ok as f64 / wall_s
    } else {
        0.0
    };
    let trace_overhead_pct = qps_untraced
        .filter(|&base| base > 0.0)
        .map(|base| (base - qps) / base * 100.0);

    println!(
        "serving load — {clients} clients, {total_requests} requests, {flips} state flips, {addr}"
    );
    println!(
        "{ok} ok, {errors} errors, {rejected} rejected (429), {wrong} wrong answers, max {max_in_flight} in flight"
    );
    println!("wall {wall_s:.3}s → {qps:.0} req/s");
    match (qps_untraced, trace_overhead_pct) {
        (Some(base), Some(pct)) => {
            println!("tracing overhead: {pct:+.2}% vs untraced baseline ({base:.0} req/s)")
        }
        _ => println!("tracing overhead: n/a (external server)"),
    }
    println!(
        "cache: {} hits / {} misses ({:.1}% hit rate), {} evictions",
        cache.hits,
        cache.misses,
        cache.hit_rate * 100.0,
        cache.evictions
    );
    println!("kind       count      p50      p95      p99");
    for h in merged.summaries() {
        println!(
            "{:<9} {:>6}  {:>7} {:>8} {:>8}",
            h.name,
            h.count,
            fmt_ns(h.p50_ns as f64),
            fmt_ns(h.p95_ns as f64),
            fmt_ns(h.p99_ns as f64)
        );
    }

    if wrong > 0 {
        eprintln!("loadgen: FAILED — {wrong} served bodies diverged from the single-shot oracle");
    }
    let flip_failure = flips > 0 && errors > 0;
    if flip_failure {
        eprintln!("loadgen: FAILED — {errors} requests errored while the state was hot-swapped");
    }

    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock before 1970")
        .as_secs();
    let json = to_json(
        smoke,
        &snapshot,
        clients,
        total_requests,
        flips,
        wall_s,
        qps,
        qps_untraced,
        trace_overhead_pct,
        ok,
        errors,
        rejected,
        wrong,
        max_in_flight,
        &cache,
        &merged,
    );
    let json_path = results_dir().join(format!("BENCH_serving_{ts}.json"));
    std::fs::write(&json_path, &json).expect("write BENCH json");
    let latest = results_dir().join("BENCH_serving_latest.json");
    std::fs::write(&latest, &json).expect("write BENCH latest pointer");
    println!("wrote {}", json_path.display());
    println!("wrote {}", latest.display());

    append_history(
        ts,
        smoke,
        clients,
        total_requests,
        qps,
        wrong,
        rejected,
        &cache,
        &merged,
    );

    if wrong > 0 || flip_failure {
        std::process::exit(1);
    }
}

/// Everything one herd run produces: wall time, the shared counters'
/// final values, and one latency registry per client thread.
struct PhaseResult {
    wall_s: f64,
    ok: u64,
    errors: u64,
    rejected: u64,
    wrong: u64,
    max_in_flight: usize,
    registries: Vec<Registry>,
}

/// Run one full client herd against `addr`: every client marks its
/// first request in flight, the barrier drops, and `total_requests`
/// spread across `clients` threads fire. `flipper` (main phase only)
/// hot-swaps the in-process server's state while the herd runs.
fn run_phase(
    addr: SocketAddr,
    targets: &[String],
    oracle: &[String],
    clients: usize,
    total_requests: usize,
    flipper: Option<(&Server, &Arc<ServeState>, &Arc<ServeState>, usize)>,
) -> PhaseResult {
    let counters = Counters::default();
    let barrier = Barrier::new(clients);
    let per_client = total_requests / clients;
    let remainder = total_requests % clients;

    let t0 = Instant::now();
    let registries: Vec<Registry> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let n = per_client + usize::from(c < remainder);
                let counters = &counters;
                let barrier = &barrier;
                s.spawn(move || client_loop(c, n, addr, targets, oracle, counters, barrier))
            })
            .collect();
        if let Some((srv, a, b, flips)) = flipper {
            s.spawn(move || {
                for i in 0..flips {
                    std::thread::sleep(Duration::from_millis(20));
                    let next = if i % 2 == 0 { b } else { a };
                    srv.swap_state(Arc::clone(next));
                }
            });
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    PhaseResult {
        wall_s: t0.elapsed().as_secs_f64(),
        ok: counters.ok.load(Ordering::Relaxed),
        errors: counters.errors.load(Ordering::Relaxed),
        rejected: counters.rejected_429.load(Ordering::Relaxed),
        wrong: counters.wrong_answers.load(Ordering::Relaxed),
        max_in_flight: counters.max_in_flight.load(Ordering::Relaxed),
        registries,
    }
}

/// One client thread: `n` requests round-robining the target list from
/// a per-client offset (so the herd mixes hits and misses), recording
/// client-observed latency per kind and verifying each 200 body.
fn client_loop(
    client: usize,
    n: usize,
    addr: SocketAddr,
    targets: &[String],
    oracle: &[String],
    counters: &Counters,
    barrier: &Barrier,
) -> Registry {
    let mut reg = Registry::new();
    for i in 0..n {
        let idx = (client + i) % targets.len();
        let target = &targets[idx];
        let kind = kind_of(target);

        let cur = counters.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        counters.max_in_flight.fetch_max(cur, Ordering::SeqCst);
        if i == 0 {
            // Every client has its first request marked in flight
            // before any of them sends: max_in_flight ≥ clients by
            // construction, and the herd genuinely fires at once.
            barrier.wait();
        }
        let t0 = Instant::now();
        let resp = http::get(addr, target, TIMEOUT);
        let elapsed = t0.elapsed();
        counters.in_flight.fetch_sub(1, Ordering::SeqCst);

        match resp {
            Ok(r) if r.status == 200 => {
                reg.observe(kind, elapsed);
                counters.ok.fetch_add(1, Ordering::Relaxed);
                if r.body != oracle[idx] {
                    counters.wrong_answers.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(r) if r.status == 429 => {
                counters.rejected_429.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(_) | Err(_) => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    reg
}

/// A mixed-kind target list drawn from the snapshot vocabulary: single
/// terms, boolean combinations, ranked text queries, plus cluster and
/// rectangle selections when the snapshot carries a layout.
fn build_targets(state: &ServeState) -> Vec<String> {
    let terms = pick_terms(state, 12);
    let mut out = Vec::new();
    for pair in terms.chunks(2) {
        out.push(format!("/term?t={}", pair[0]));
        if pair.len() == 2 {
            out.push(format!("/query?q={}+AND+{}", pair[0], pair[1]));
            out.push(format!("/query?q={}+OR+{}&top=7", pair[1], pair[0]));
            out.push(format!("/search?q={}+{}&top=5", pair[0], pair[1]));
        }
    }
    if state.has_layout() {
        out.push("/cluster?c=0&top=8".to_string());
        out.push("/rect?x0=-1e6&y0=-1e6&x1=1e6&y1=1e6&top=20".to_string());
    }
    out
}

/// Plain-word vocabulary terms, skipping boolean operators.
fn pick_terms(state: &ServeState, n: usize) -> Vec<String> {
    let len = state.terms.len();
    assert!(len > 0, "empty snapshot vocabulary");
    let mut out = Vec::new();
    for k in 0..len * 2 {
        let t = state.terms.get((len / 7 + k) % len);
        if t.len() >= 2
            && t.chars().all(|c| c.is_ascii_alphanumeric())
            && !matches!(t, "and" | "or" | "not")
            && !out.iter().any(|o| o == t)
        {
            out.push(t.to_string());
            if out.len() == n {
                return out;
            }
        }
    }
    assert!(
        out.len() >= 2,
        "not enough usable terms in vocabulary ({len} total)"
    );
    out
}

/// Latency-histogram name for a target: `client_<kind>_seconds`, the
/// client-side mirror of the server's `serve_<kind>_seconds` family.
fn kind_of(target: &str) -> &'static str {
    match target.split(['?', '/']).nth(1) {
        Some("term") => "client_term_seconds",
        Some("query") => "client_query_seconds",
        Some("search") => "client_search_seconds",
        Some("cluster") => "client_cluster_seconds",
        Some("rect") => "client_rect_seconds",
        _ => "client_other_seconds",
    }
}

/// Pull the server's cache counters out of `/metrics`.
fn scrape_cache(addr: SocketAddr) -> CacheScrape {
    let empty = CacheScrape {
        hits: 0,
        misses: 0,
        evictions: 0,
        hit_rate: 0.0,
    };
    let Ok(resp) = http::get(addr, "/metrics", TIMEOUT) else {
        return empty;
    };
    let Ok(v) = inspire_trace::json::parse(&resp.body) else {
        return empty;
    };
    let Some(cache) = v.get("cache") else {
        return empty;
    };
    let f = |k: &str| cache.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
    CacheScrape {
        hits: f("hits") as u64,
        misses: f("misses") as u64,
        evictions: f("evictions") as u64,
        hit_rate: f("hit_rate"),
    }
}

fn resolve(addr: &str) -> SocketAddr {
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| {
            eprintln!("loadgen: cannot resolve --addr {addr}");
            std::process::exit(2);
        })
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    smoke: bool,
    snapshot: &str,
    clients: usize,
    requests: usize,
    flips: usize,
    wall_s: f64,
    qps: f64,
    qps_untraced: Option<f64>,
    trace_overhead_pct: Option<f64>,
    ok: u64,
    errors: u64,
    rejected: u64,
    wrong: u64,
    max_in_flight: usize,
    cache: &CacheScrape,
    merged: &Registry,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"serving_load\",\n");
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    s.push_str(&format!(
        "  \"snapshot\": \"{}\",\n",
        inspire_trace::json::escape(snapshot)
    ));
    s.push_str("  \"serving\": {\n");
    s.push_str(&format!("    \"clients\": {clients},\n"));
    s.push_str(&format!("    \"requests\": {requests},\n"));
    s.push_str(&format!("    \"flips\": {flips},\n"));
    s.push_str(&format!("    \"wall_s\": {wall_s:.6},\n"));
    s.push_str(&format!("    \"qps\": {qps:.2},\n"));
    match qps_untraced {
        Some(v) => s.push_str(&format!("    \"qps_untraced\": {v:.2},\n")),
        None => s.push_str("    \"qps_untraced\": null,\n"),
    }
    match trace_overhead_pct {
        Some(v) => s.push_str(&format!("    \"trace_overhead_pct\": {v:.3},\n")),
        None => s.push_str("    \"trace_overhead_pct\": null,\n"),
    }
    s.push_str(&format!("    \"ok\": {ok},\n"));
    s.push_str(&format!("    \"errors\": {errors},\n"));
    s.push_str(&format!("    \"rejected_429\": {rejected},\n"));
    s.push_str(&format!("    \"wrong_answers\": {wrong},\n"));
    s.push_str(&format!("    \"max_in_flight\": {max_in_flight},\n"));
    s.push_str("    \"cache\": {\n");
    s.push_str(&format!("      \"hits\": {},\n", cache.hits));
    s.push_str(&format!("      \"misses\": {},\n", cache.misses));
    s.push_str(&format!("      \"evictions\": {},\n", cache.evictions));
    s.push_str(&format!("      \"hit_rate\": {:.6}\n", cache.hit_rate));
    s.push_str("    },\n");
    s.push_str("    \"kinds\": [\n");
    let sums = merged.summaries();
    for (i, h) in sums.iter().enumerate() {
        s.push_str(&format!(
            "      {}{}\n",
            h.to_json(),
            if i + 1 < sums.len() { "," } else { "" }
        ));
    }
    s.push_str("    ]\n");
    s.push_str("  }\n}\n");
    s
}

/// The serving-history table: its marker column locates it inside the
/// shared history file so rows land under this table even when other
/// benches have appended tables after it.
const SERVING_TABLE: history::HistoryTable<'static> = history::HistoryTable {
    section: Some("## Serving load"),
    header: "| date (utc) | smoke | clients | requests | serve_qps | search_p95 | cache_hit% | wrong | rejected |",
    marker: "| serve_qps |",
};

#[allow(clippy::too_many_arguments)]
fn append_history(
    ts: u64,
    smoke: bool,
    clients: usize,
    requests: usize,
    qps: f64,
    wrong: u64,
    rejected: u64,
    cache: &CacheScrape,
    merged: &Registry,
) {
    let path = results_dir().join("scaling_history.md");
    let search_p95 = merged
        .summaries()
        .iter()
        .find(|h| h.name == "client_search_seconds")
        .map(|h| fmt_ns(h.p95_ns as f64))
        .unwrap_or_else(|| "-".to_string());
    let row = format!(
        "| {} | {} | {} | {} | {:.0} | {} | {:.1} | {} | {} |",
        utc_date(ts),
        smoke,
        clients,
        requests,
        qps,
        search_p95,
        cache.hit_rate * 100.0,
        wrong,
        rejected,
    );
    history::append_row(&path, &SERVING_TABLE, &row).expect("append serving history row");
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
