#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and seed this runs the command in BENCHMARK.json
(from the repository root), collects the end-to-end metrics of the last
stdout line, and reports per metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance
between the quartiles as a share of the median. A spread is marked when
it exceeds a third of the metric's bound, or the bound itself.

    python3 perfbench/spread.py                          # 10 seeds, all workloads
    python3 perfbench/spread.py --workloads serve_cold --seeds 5
    python3 perfbench/spread.py --out perfbench/baseline/run.json

With --trace it also makes one traced run per workload (first seed) and
stores its per-layer metrics. With --against it compares each median
with that of an earlier --out file and marks a metric whose median got
worse by more than its bound:

    python3 perfbench/spread.py --out b.json --against perfbench/baseline/set1.json

The exit code is 1 when a run was not correct, a spread exceeds its
bound, or a median moved past its bound against the earlier set.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["perfbench_detail"] if len(lines) > 1 else {}
    return result, detail, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def markdown(record, bench):
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    first = next(iter(record["workloads"].values()))["runs"][0]["detail"]
    out = [f"# perfbench baseline\n",
           f"- git rev: `{first.get('git_rev')}`",
           f"- rustc: `{first.get('rustc')}`",
           f"- host CPUs: {first.get('host_cpus')}",
           f"- seeds: {record['seeds']}, {record['seconds']} s per run\n",
           "Spread = (q3 - q1) / median over the seeds "
           "(`statistics.quantiles(values, n=4)`).\n"]
    for w, entry in record["workloads"].items():
        runs = entry["runs"]
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        out.append(f"## {w}\n")
        out.append(f"{len(runs)} runs, {attempted} operations attempted, {failed} failed, "
                   f"all correct: {all(r['result']['correct'] for r in runs)}\n")
        compared = any("change" in s for s in entry["summary"].values())
        extra = " median vs earlier set |" if compared else ""
        out.append("| metric | unit | median | q1 | q3 | spread | bound |" + extra)
        out.append("|---|---|---|---|---|---|---|" + ("---|" if compared else ""))
        for name, s in entry["summary"].items():
            change = f" {s['change']:+.4f} |" if compared else ""
            out.append(f"| {name} | {units[name]} | {s['median']:.6g} | {s['q1']:.6g} | "
                       f"{s['q3']:.6g} | {s['spread']:.4f} | {s['bound']} |" + change)
        traced = entry.get("traced")
        if traced:
            out.append(f"\nTraced run (seed {traced['seed']}), per-layer metrics:\n")
            out.append("| metric | unit | value |")
            out.append("|---|---|---|")
            for name, m in traced["result"]["metrics"].items():
                out.append(f"| {name} | {m['unit']} | {m['value']:.6g} |")
        out.append("")
    return "\n".join(out) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", help="write all raw results and the summary here (JSON)")
    ap.add_argument("--md", help="write the summary tables here (Markdown)")
    ap.add_argument("--against", help="an earlier --out file to compare the medians with")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    record = {"command": bench["command"], "seconds": args.seconds,
              "seeds": seeds, "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        runs = []
        for s in seeds:
            result, detail, wall = run_once(bench["command"], w, s, args.seconds, False)
            runs.append({"seed": s, "wall_s": round(wall, 2), "result": result,
                         "detail": detail})
            vals = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{w} seed {s}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={wall:.1f}s {vals}", flush=True)
            ok &= result["correct"] and result["failed"] == 0
        summary = {}
        print(f"\n{w}: metric, median, q1, q3, spread, bound")
        for name, bound in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(vals)
            flag = "" if sp <= bound / 3 else (" > bound/3" if sp <= bound else " > BOUND")
            if sp > bound:
                ok = False
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                             "bound": bound}
            print(f"  {name:22s} {med:14.6g} {q1:14.6g} {q3:14.6g} {sp:8.4f} {bound}{flag}")
            before = earlier.get(w, {}).get("summary", {}).get(name)
            if before:
                change = med / before["median"] - 1
                worse = change if better[name] == "lower" else -change
                summary[name]["change"] = change
                print(f"  {'':22s} median {change:+.4f} against the earlier set"
                      + (" > BOUND" if worse > bound else ""))
                if worse > bound:
                    ok = False
        print(flush=True)
        entry = {"runs": runs, "summary": summary}
        if args.trace:
            result, detail, wall = run_once(bench["command"], w, seeds[0], args.seconds, True)
            entry["traced"] = {"seed": seeds[0], "wall_s": round(wall, 2),
                               "result": result, "detail": detail}
            ok &= result["correct"]
        record["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    if args.md:
        Path(args.md).write_text(markdown(record, bench))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
