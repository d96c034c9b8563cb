#!/usr/bin/env python3
"""Validate a BENCH JSON file produced by the bench binaries.

Replaces the old CI pattern of `grep -q '"key"'` against the newest
timestamped file: this actually parses the JSON, checks every section's
shape, types, and value ranges, and exits non-zero with a readable
message when something is off.

Usage:
  validate_bench.py results/BENCH_latest.json --kind scaling \
      [--max-index-msgs N] [--min-compression-ratio X]
  validate_bench.py results/BENCH_serving_latest.json --kind serving \
      [--require-zero-wrong] [--min-in-flight N] [--min-cache-hits N] \
      [--max-trace-overhead-pct X]
  validate_bench.py results/BENCH_postings_latest.json --kind postings \
      [--min-compression-ratio X]
  validate_bench.py results/BENCH_ingest_latest.json --kind ingest \
      [--max-ttv SECONDS] [--max-segments N]
  validate_bench.py results/BENCH_ann_latest.json --kind ann \
      [--min-recall-at-10 X] [--min-speedup X] [--min-compression-ratio X]
  validate_bench.py metrics.prom --kind prom [--require-ingest]

`--kind prom` validates a Prometheus text-format scrape of
`/metrics?format=prom` rather than a BENCH JSON: every sample family
must carry a `# TYPE` line, summary quantiles must be monotone, the
`_sum`/`_count` pairs must be consistent, and the serve-side metric
names the dashboards key on must be present (`--require-ingest` adds
the WAL/seal/compaction names a live ingest-backed server exposes).

Stdlib only — the CI image has no third-party Python packages.
"""

import argparse
import json
import sys

FAILURES = []


def fail(msg):
    FAILURES.append(msg)


def check(cond, msg):
    if not cond:
        fail(msg)
    return cond


def get(obj, path, typ):
    """Fetch a dotted path, checking presence and type; None on failure."""
    cur = obj
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            fail(f"missing field: {path}")
            return None
        cur = cur[part]
    # bool is an int subclass in Python; keep the check strict.
    if typ is float:
        ok = isinstance(cur, (int, float)) and not isinstance(cur, bool)
    elif typ is int:
        ok = isinstance(cur, int) and not isinstance(cur, bool)
    else:
        ok = isinstance(cur, typ)
    if not ok:
        fail(f"field {path}: expected {typ.__name__}, got {type(cur).__name__} ({cur!r})")
        return None
    return cur


def nonneg(obj, path, typ=float):
    v = get(obj, path, typ)
    if v is not None:
        check(v >= 0, f"field {path}: negative value {v}")
    return v


def check_histogram(h, where):
    ok = True
    for field in ("count", "min_ns", "max_ns", "p50_ns", "p95_ns", "p99_ns"):
        v = h.get(field)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            fail(f"{where}: bad {field}: {v!r}")
            ok = False
    if not isinstance(h.get("name"), str) or not h["name"]:
        fail(f"{where}: missing histogram name")
        ok = False
    if ok and h["count"] > 0:
        if not 0 < h["min_ns"] <= h["p50_ns"]:
            fail(f"{where}: min not in (0, p50]: min={h['min_ns']} p50={h['p50_ns']}")
        if not h["p50_ns"] <= h["p95_ns"] <= h["p99_ns"] <= h["max_ns"]:
            fail(
                f"{where}: percentiles not monotone: "
                f"p50={h['p50_ns']} p95={h['p95_ns']} p99={h['p99_ns']} max={h['max_ns']}"
            )


def validate_scaling(doc, args):
    check(get(doc, "bench", str) == "intra_rank_scaling", "bench kind is not intra_rank_scaling")
    pos_docs = get(doc, "docs", int)
    check(pos_docs is None or pos_docs > 0, "docs must be positive")
    pf = get(doc, "parallel_fraction", float)
    if pf is not None:
        check(0.0 <= pf <= 1.0, f"parallel_fraction out of [0,1]: {pf}")

    # comm: the aggregated-exchange counters CI used to grep for.
    for k in ("scan_msgs", "scan_bytes", "index_msgs", "index_bytes",
              "index_batched_msgs", "index_scalar_equiv",
              "vocab_rpc_msgs_batched", "vocab_rpc_scalar_equiv"):
        nonneg(doc, f"comm.{k}", int)
    for k in ("index_batching_factor", "vocab_rpc_batching_factor"):
        nonneg(doc, f"comm.{k}", float)
    index_msgs = doc.get("comm", {}).get("index_msgs")
    if args.max_index_msgs is not None and isinstance(index_msgs, int):
        check(
            index_msgs <= args.max_index_msgs,
            f"comm.index_msgs regressed: {index_msgs} > cap {args.max_index_msgs}",
        )

    # snapshot: write/load costs and section byte counts.
    for k in ("pipeline_wall_s", "write_s", "load_s", "load_to_first_query_s",
              "load_speedup_vs_pipeline"):
        nonneg(doc, f"snapshot.{k}", float)
    total = nonneg(doc, "snapshot.total_bytes", int)
    check(total is None or total > 0, "snapshot.total_bytes must be positive")

    # Block-compressed index accounting: compressed section bytes vs the
    # fixed-width equivalent, with an optional hard floor on the ratio.
    comp = nonneg(doc, "snapshot.index_compressed_bytes", int)
    check(comp is None or comp > 0, "snapshot.index_compressed_bytes must be positive")
    nonneg(doc, "snapshot.index_fixed_equiv_bytes", int)
    ratio = nonneg(doc, "snapshot.index_compression_ratio", float)
    if args.min_compression_ratio is not None and ratio is not None:
        check(
            ratio >= args.min_compression_ratio,
            f"snapshot.index_compression_ratio regressed: {ratio} < "
            f"floor {args.min_compression_ratio}",
        )
    sections = get(doc, "snapshot.sections", dict)
    if sections is not None:
        check(len(sections) > 0, "snapshot.sections is empty")
        for name, size in sections.items():
            check(
                isinstance(size, int) and size >= 0,
                f"snapshot.sections.{name}: bad byte count {size!r}",
            )

    # imbalance: the P=4 run-report digest.
    procs = get(doc, "imbalance.procs", int)
    check(procs is None or procs >= 2, f"imbalance.procs too small: {procs}")
    nonneg(doc, "imbalance.virtual_time_s", float)
    nonneg(doc, "imbalance.max_imbalance_pct", float)
    stages = get(doc, "imbalance.stages", list)
    if stages is not None:
        check(len(stages) > 0, "imbalance.stages is empty")
        for i, row in enumerate(stages):
            if not isinstance(row, dict) or "name" not in row:
                fail(f"imbalance.stages[{i}]: not a stage row")

    # widths: the scaling sweep itself.
    widths = get(doc, "widths", list)
    if widths is not None:
        check(len(widths) >= 1, "widths is empty")
        for i, w in enumerate(widths):
            if not isinstance(w, dict):
                fail(f"widths[{i}]: not an object")
                continue
            for k in ("wall_s_median", "wall_s_min", "measured_speedup", "projected_speedup"):
                v = w.get(k)
                if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                    fail(f"widths[{i}].{k}: bad value {v!r}")
            if w.get("threads") != i + 1:
                fail(f"widths[{i}].threads: expected {i + 1}, got {w.get('threads')!r}")


def validate_serving(doc, args):
    check(get(doc, "bench", str) == "serving_load", "bench kind is not serving_load")
    srv = get(doc, "serving", dict)
    if srv is None:
        return
    clients = nonneg(doc, "serving.clients", int)
    check(clients is None or clients > 0, "serving.clients must be positive")
    nonneg(doc, "serving.requests", int)
    nonneg(doc, "serving.wall_s", float)
    qps = nonneg(doc, "serving.qps", float)
    ok = nonneg(doc, "serving.ok", int)
    errors = nonneg(doc, "serving.errors", int)
    nonneg(doc, "serving.rejected_429", int)
    wrong = nonneg(doc, "serving.wrong_answers", int)
    max_in_flight = nonneg(doc, "serving.max_in_flight", int)

    check(ok is None or ok > 0, "serving.ok: no successful requests at all")
    check(qps is None or qps > 0, "serving.qps must be positive")
    check(errors is None or errors == 0, f"serving.errors: {errors} failed requests")
    if args.require_zero_wrong:
        check(wrong == 0, f"serving.wrong_answers: {wrong} bodies diverged from the oracle")
    if args.min_in_flight is not None:
        check(
            isinstance(max_in_flight, int) and max_in_flight >= args.min_in_flight,
            f"serving.max_in_flight: {max_in_flight} < required {args.min_in_flight}",
        )

    hits = nonneg(doc, "serving.cache.hits", int)
    nonneg(doc, "serving.cache.misses", int)
    nonneg(doc, "serving.cache.evictions", int)
    rate = get(doc, "serving.cache.hit_rate", float)
    if rate is not None:
        check(0.0 <= rate <= 1.0, f"serving.cache.hit_rate out of [0,1]: {rate}")
    if args.min_cache_hits is not None:
        check(
            isinstance(hits, int) and hits >= args.min_cache_hits,
            f"serving.cache.hits: {hits} < required {args.min_cache_hits}",
        )

    kinds = get(doc, "serving.kinds", list)
    if kinds is not None:
        check(len(kinds) > 0, "serving.kinds is empty")
        for h in kinds:
            if isinstance(h, dict):
                check_histogram(h, f"serving.kinds[{h.get('name', '?')}]")
            else:
                fail("serving.kinds: non-object entry")

    # Tracing overhead: present as a number for in-process runs, null
    # for external --addr runs. The cap only makes sense for the former,
    # so enforcing it against a null value is itself a failure.
    overhead = srv.get("trace_overhead_pct", "absent")
    if overhead == "absent":
        fail("missing field: serving.trace_overhead_pct")
    elif overhead is not None and (not isinstance(overhead, (int, float))
                                   or isinstance(overhead, bool)):
        fail(f"serving.trace_overhead_pct: bad value {overhead!r}")
    if args.max_trace_overhead_pct is not None:
        if not isinstance(overhead, (int, float)) or isinstance(overhead, bool):
            fail("serving.trace_overhead_pct: cap requested but no measured value "
                 "(external --addr run?)")
        else:
            check(
                overhead <= args.max_trace_overhead_pct,
                f"serving.trace_overhead_pct regressed: {overhead:.3f}% > "
                f"cap {args.max_trace_overhead_pct}%",
            )


def validate_postings(doc, args):
    check(get(doc, "bench", str) == "postings_codec", "bench kind is not postings_codec")
    for k in ("lists", "postings", "encoded_bytes", "fixed_width_bytes",
              "seek_lists", "seek_postings"):
        v = nonneg(doc, k, int)
        if k in ("lists", "postings", "encoded_bytes", "fixed_width_bytes"):
            check(v is None or v > 0, f"field {k} must be positive")
    for k in ("encode_mb_s", "encode_postings_s", "decode_mb_s", "decode_postings_s",
              "scalar_varint_mb_s", "unrolled_varint_mb_s", "seek_postings_s"):
        v = nonneg(doc, k, float)
        check(v is None or v > 0, f"field {k}: throughput must be positive")
    speedup = nonneg(doc, "unrolled_speedup", float)
    check(speedup is None or speedup > 0, "unrolled_speedup must be positive")
    ratio = nonneg(doc, "compression_ratio", float)
    if args.min_compression_ratio is not None and ratio is not None:
        check(
            ratio >= args.min_compression_ratio,
            f"compression_ratio regressed: {ratio} < floor {args.min_compression_ratio}",
        )


def validate_ingest(doc, args):
    check(get(doc, "bench", str) == "ingest", "bench kind is not ingest")
    ing = get(doc, "ingest", dict)
    if ing is None:
        return
    docs = nonneg(doc, "ingest.docs", int)
    check(docs is None or docs > 0, "ingest.docs must be positive")
    batches = nonneg(doc, "ingest.batches", int)
    check(batches is None or batches > 0, "ingest.batches must be positive")
    nonneg(doc, "ingest.base_docs", int)

    rate = nonneg(doc, "ingest.wal_append_docs_per_s", float)
    check(rate is None or rate > 0, "ingest.wal_append_docs_per_s must be positive")
    nonneg(doc, "ingest.seal_latency_s", float)
    ttv = nonneg(doc, "ingest.time_to_visibility_s", float)
    if args.max_ttv is not None and ttv is not None:
        check(
            ttv <= args.max_ttv,
            f"ingest.time_to_visibility_s regressed: {ttv} > cap {args.max_ttv}",
        )

    amp = nonneg(doc, "ingest.write_amplification", float)
    check(amp is None or amp >= 1.0,
          f"ingest.write_amplification below 1: {amp} (physical < logical?)")
    logical = nonneg(doc, "ingest.logical_bytes", int)
    check(logical is None or logical > 0, "ingest.logical_bytes must be positive")
    nonneg(doc, "ingest.physical_bytes", int)

    before = nonneg(doc, "ingest.segments_before_compact", int)
    after = nonneg(doc, "ingest.segments_after_compact", int)
    if before is not None and after is not None:
        check(after <= before,
              f"compaction grew the segment count: {before} -> {after}")
    if args.max_segments is not None and after is not None:
        check(
            after <= args.max_segments,
            f"ingest.segments_after_compact: {after} > ceiling {args.max_segments}",
        )

    wrong = nonneg(doc, "ingest.wrong_answers", int)
    check(wrong == 0,
          f"ingest.wrong_answers: {wrong} merged bodies diverged from the rebuild")


def validate_ann(doc, args):
    check(get(doc, "bench", str) == "ann", "bench kind is not ann")
    for k in ("corpus_bytes", "docs", "m_dims", "k_centroids", "queries",
              "top", "deep", "quantized_bytes", "exact_sig_bytes"):
        v = nonneg(doc, k, int)
        check(v is None or v > 0, f"field {k} must be positive")
    nonneg(doc, "exhaustive_q_per_s", float)

    # Headline operating point: recall/speedup floors are the CI gates.
    nprobe = nonneg(doc, "ann_nprobe", int)
    k_cent = doc.get("k_centroids")
    if nprobe is not None and isinstance(k_cent, int):
        check(1 <= nprobe <= k_cent,
              f"ann_nprobe out of range: {nprobe} not in [1, {k_cent}]")
    for field in ("ann_recall_at_10", "ann_recall_at_100"):
        r = nonneg(doc, field, float)
        check(r is None or r <= 1.0, f"{field} above 1: {r}")
    nonneg(doc, "ann_candidate_count", float)
    speedup = nonneg(doc, "ann_speedup_vs_exhaustive", float)
    recall10 = doc.get("ann_recall_at_10")
    if args.min_recall_at_10 is not None and isinstance(recall10, (int, float)):
        check(
            recall10 >= args.min_recall_at_10,
            f"ann_recall_at_10 regressed: {recall10} < floor {args.min_recall_at_10}",
        )
    if args.min_speedup is not None and speedup is not None:
        check(
            speedup >= args.min_speedup,
            f"ann_speedup_vs_exhaustive regressed: {speedup} < floor {args.min_speedup}",
        )

    # Quantized signature store must actually shrink the f64 sections.
    ratio = nonneg(doc, "sig_compression_ratio", float)
    if args.min_compression_ratio is not None and ratio is not None:
        check(
            ratio >= args.min_compression_ratio,
            f"sig_compression_ratio regressed: {ratio} < floor {args.min_compression_ratio}",
        )

    # The nprobe/recall curve: monotone nprobe, recall/speedup in range,
    # ending at the exact point (nprobe = k has recall 1.0 by identity).
    sweep = get(doc, "sweep", list)
    if sweep is not None:
        check(len(sweep) >= 2, "sweep has fewer than 2 points")
        last_np = 0
        for i, p in enumerate(sweep):
            if not isinstance(p, dict):
                fail(f"sweep[{i}]: not an object")
                continue
            np_ = p.get("nprobe")
            if not isinstance(np_, int) or np_ <= last_np:
                fail(f"sweep[{i}].nprobe: not strictly increasing ({np_!r} after {last_np})")
            else:
                last_np = np_
            for field in ("recall_at_10", "recall_at_100"):
                v = p.get(field)
                if not isinstance(v, (int, float)) or isinstance(v, bool) \
                        or not 0.0 <= v <= 1.0:
                    fail(f"sweep[{i}].{field}: bad recall {v!r}")
            for field in ("candidates", "q_per_s", "speedup"):
                v = p.get(field)
                if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                    fail(f"sweep[{i}].{field}: bad value {v!r}")
        if sweep and isinstance(sweep[-1], dict):
            tail = sweep[-1]
            if isinstance(k_cent, int) and tail.get("nprobe") != k_cent:
                fail(f"sweep does not end at nprobe = k ({tail.get('nprobe')!r} != {k_cent})")
            for field in ("recall_at_10", "recall_at_100"):
                v = tail.get(field)
                if isinstance(v, (int, float)) and v != 1.0:
                    fail(f"sweep[-1].{field}: nprobe = k must have recall 1.0, got {v}")


# Serve-side families every scrape must expose, whatever backs the
# server. Quantile/sum/count suffixes are derived, not listed.
PROM_REQUIRED_SERVE = (
    "serve_requests_total",
    "serve_errors_total",
    "serve_cache_hits_total",
    "serve_cache_misses_total",
    "serve_uptime_seconds",
    "snapshot_generation",
)

# Families only an ingest-dir-backed server exposes (WAL gauges are
# computed live; the histograms come from the ingest metrics sidecar).
PROM_REQUIRED_INGEST = (
    "wal_backlog_bytes",
    "wal_unsealed_records",
    "seal_latency_seconds",
    "compaction_duration_seconds",
    "time_to_visibility_seconds",
    "snapshot_generation",
)


def parse_prom(text):
    """Prometheus text format -> (samples, types).

    samples: base family name -> {sample name or (name, quantile): value}
    types:   family name -> declared type from its `# TYPE` line
    """
    samples = {}
    types = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        parts = line.split()
        if len(parts) != 2:
            fail(f"prom line {lineno}: expected 'name value', got {line!r}")
            continue
        name, raw = parts
        quantile = None
        if "{" in name:
            name, _, labels = name.partition("{")
            labels = labels.rstrip("}")
            for lab in labels.split(","):
                k, _, v = lab.partition("=")
                if k == "quantile":
                    quantile = v.strip('"')
        try:
            value = float(raw)
        except ValueError:
            fail(f"prom line {lineno}: bad sample value {raw!r}")
            continue
        base = name
        for suffix in ("_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in types:
                base = base[: -len(suffix)]
        fam = samples.setdefault(base, {})
        fam[(name, quantile) if quantile is not None else name] = value
    return samples, types


def validate_prom(text, args):
    samples, types = parse_prom(text)
    check(len(samples) > 0, "no samples in prom scrape")

    required = list(PROM_REQUIRED_SERVE)
    if args.require_ingest:
        required += [n for n in PROM_REQUIRED_INGEST if n not in required]
    for name in required:
        check(name in samples, f"required metric family missing: {name}")

    for base, fam in samples.items():
        if base not in types:
            fail(f"family {base}: samples without a # TYPE line")
            continue
        if types[base] != "summary":
            continue
        # Summaries: monotone quantiles and a consistent _sum/_count pair.
        quantiles = {k[1]: v for k, v in fam.items() if isinstance(k, tuple)}
        ordered = sorted(quantiles.items(), key=lambda kv: float(kv[0]))
        values = [v for _, v in ordered]
        check(values == sorted(values),
              f"family {base}: quantiles not monotone: {ordered}")
        total = fam.get(f"{base}_sum")
        count = fam.get(f"{base}_count")
        check(total is not None, f"family {base}: missing {base}_sum")
        check(count is not None, f"family {base}: missing {base}_count")
        if total is not None and count is not None:
            if count == 0:
                check(total == 0, f"family {base}: count 0 but sum {total}")
            else:
                check(total > 0, f"family {base}: count {count:.0f} but sum {total}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("path", help="BENCH JSON file to validate")
    ap.add_argument("--kind", choices=("scaling", "serving", "postings", "ingest", "ann", "prom"),
                    required=True)
    ap.add_argument("--max-index-msgs", type=int, default=None,
                    help="scaling: fail if comm.index_msgs exceeds this")
    ap.add_argument("--min-compression-ratio", type=float, default=None,
                    help="scaling/postings: fail if the compression ratio is below this")
    ap.add_argument("--require-zero-wrong", action="store_true",
                    help="serving: fail on any wrong_answers")
    ap.add_argument("--min-in-flight", type=int, default=None,
                    help="serving: fail if max_in_flight is below this")
    ap.add_argument("--min-cache-hits", type=int, default=None,
                    help="serving: fail if cache.hits is below this")
    ap.add_argument("--max-ttv", type=float, default=None,
                    help="ingest: fail if time_to_visibility_s exceeds this")
    ap.add_argument("--max-segments", type=int, default=None,
                    help="ingest: fail if segments_after_compact exceeds this")
    ap.add_argument("--max-trace-overhead-pct", type=float, default=None,
                    help="serving: fail if trace_overhead_pct exceeds this "
                         "(or is unmeasured)")
    ap.add_argument("--min-recall-at-10", type=float, default=None,
                    help="ann: fail if ann_recall_at_10 is below this")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="ann: fail if ann_speedup_vs_exhaustive is below this")
    ap.add_argument("--require-ingest", action="store_true",
                    help="prom: also require the WAL/seal/compaction families")
    args = ap.parse_args()

    # `prom` validates raw Prometheus text, not a BENCH JSON document.
    if args.kind == "prom":
        try:
            with open(args.path, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            print(f"validate_bench: {args.path}: {e}", file=sys.stderr)
            return 1
        validate_prom(text, args)
        if FAILURES:
            print(f"validate_bench: {args.path}: {len(FAILURES)} problem(s)",
                  file=sys.stderr)
            for msg in FAILURES:
                print(f"  - {msg}", file=sys.stderr)
            return 1
        print(f"validate_bench: {args.path}: ok (prom)")
        return 0

    try:
        with open(args.path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"validate_bench: {args.path}: {e}", file=sys.stderr)
        return 1

    if args.kind == "scaling":
        validate_scaling(doc, args)
    elif args.kind == "postings":
        validate_postings(doc, args)
    elif args.kind == "ingest":
        validate_ingest(doc, args)
    elif args.kind == "ann":
        validate_ann(doc, args)
    else:
        validate_serving(doc, args)

    if FAILURES:
        print(f"validate_bench: {args.path}: {len(FAILURES)} problem(s)", file=sys.stderr)
        for msg in FAILURES:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    print(f"validate_bench: {args.path}: ok ({args.kind})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
