#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, with the host they ran on.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workloads W,...] [--jsonl FILE] [--out FILE]
    python3 perfbench/spread.py --from results.jsonl [--out FILE]
    python3 perfbench/spread.py --from set1.jsonl --against set2.jsonl

Runs every workload --runs times, each with another seed (workloads
interleaved, so slow drifts of the host hit all of them alike), and
writes perfbench/spread.json: per workload and metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median.
It also gives the spread of setup_s had a run timed only its first
set-up, to show what the median over set-ups buys. --from summarizes
lines of {"workload", "seed", "detail", "result"} instead of running;
--jsonl FILE keeps the raw lines of a fresh run. --against compares
the medians of two sets against the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def host():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def run_all(workloads, seeds, seconds, jsonl):
    lines = []
    for seed in seeds:
        for w in workloads:
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            tail = out.stdout.strip().splitlines()
            rec = {"workload": w, "seed": seed,
                   "detail": json.loads(tail[-2]),
                   "result": json.loads(tail[-1])}
            lines.append(rec)
            if jsonl:
                with open(jsonl, "a") as f:
                    f.write(json.dumps(rec) + "\n")
            print(f"{w} seed {seed}: done", file=sys.stderr)
    return lines


def spread_of(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def summarize(lines):
    table = {}
    for w in WORKLOADS:
        recs = [l for l in lines if l["workload"] == w]
        if not recs:
            continue
        results = [l["result"] for l in recs]
        entry = {"runs": len(results),
                 "seeds": [l["seed"] for l in recs],
                 "all_correct": all(r["correct"] and r["failed"] == 0
                                    for r in results),
                 "metrics": {}}
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            entry["metrics"][name] = {
                "unit": results[0]["metrics"][name]["unit"],
                **spread_of(vals)}
        firsts = [l["detail"]["setup_s_samples"][0] for l in recs
                  if "detail" in l]
        if len(firsts) == len(recs):
            entry["setup_s_first_only"] = spread_of(firsts)
        table[w] = entry
    return table


def compare(a, b):
    """Second set's median against the first's, as a share, per metric."""
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in BENCH["end_to_end"]}
    ok = True
    for w in WORKLOADS:
        if w not in a or w not in b:
            continue
        for name, (bound, better) in bounds.items():
            m1 = a[w]["metrics"][name]["median"]
            m2 = b[w]["metrics"][name]["median"]
            worse = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
            flag = "ok" if worse <= bound else "WORSE THAN BOUND"
            ok = ok and worse <= bound
            print(f"{w:12s} {name:12s} {m1:14.4f} -> {m2:14.4f} "
                  f"worse by {worse:+.4f} (bound {bound}) {flag}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--from", dest="src")
    ap.add_argument("--against")
    ap.add_argument("--jsonl")
    ap.add_argument("--out", default=str(ROOT / "perfbench" / "spread.json"))
    a = ap.parse_args()
    load = lambda p: [json.loads(l) for l in open(p) if l.strip()]
    if a.src and a.against:
        sys.exit(0 if compare(summarize(load(a.src)),
                              summarize(load(a.against))) else 1)
    if a.src:
        lines = load(a.src)
    else:
        seeds = range(a.first_seed, a.first_seed + a.runs)
        lines = run_all(a.workloads.split(","), seeds, a.seconds, a.jsonl)
    doc = {"host": host(), "run_seconds": a.seconds,
           "workloads": summarize(lines)}
    Path(a.out).write_text(json.dumps(doc, indent=1) + "\n")
    for w, e in doc["workloads"].items():
        for name, m in e["metrics"].items():
            print(f"{w:12s} {name:12s} median {m['median']:14.4f} "
                  f"spread {m['spread']:.4f}")
        if "setup_s_first_only" in e:
            print(f"{w:12s} {'(setup_s, first set-up only)':30s} "
                  f"spread {e['setup_s_first_only']['spread']:.4f}")


if __name__ == "__main__":
    main()
