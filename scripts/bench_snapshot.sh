#!/usr/bin/env bash
# Performance snapshot + regression gate for the two simulator cores
# (docs/PERFORMANCE.md describes the methodology and the JSON schema).
#
#   scripts/bench_snapshot.sh --out FILE [--jobs N] [--reps N]
#                             [--baseline-bin PATH] [--full]
#       Runs bench_figure5 under both cores, the quiescent
#       micro-benchmark, bench_smoke, and the bench_daemon serving
#       load generator (direct vs routed topology,
#       docs/DAEMON.md#sharding); checks the byte-identity contract
#       along the way; writes a BENCH_*.json snapshot to FILE. --out
#       has no default, so a run never overwrites a committed
#       snapshot by accident.
#
#   scripts/bench_snapshot.sh --verify
#       Fast gate for scripts/check.sh: bench_smoke must produce
#       byte-identical sweep JSON under --core cycle and --core event,
#       and the event core must not be slower than the cycle core
#       (best-of-3, 10% guard band for machine noise).
#
# --baseline-bin names a bench_figure5 binary built from an older
# commit; when given, its wall-clock and path are recorded under
# "baseline" so the snapshot carries a cross-commit trajectory point
# (PERFORMANCE.md shows how to rebuild one).
#
# Benchmarks default to MSC_SMALL scale so the snapshot is cheap
# enough to refresh routinely; --full runs the paper-scale inputs.
set -euo pipefail

cd "$(dirname "$0")/.."

OUT=""
JOBS=4
REPS=3
BASELINE_BIN=""
VERIFY=0
SMALL=1
while [[ $# -gt 0 ]]; do
    case "$1" in
        --out) OUT="$2"; shift 2 ;;
        --jobs) JOBS="$2"; shift 2 ;;
        --reps) REPS="$2"; shift 2 ;;
        --baseline-bin) BASELINE_BIN="$2"; shift 2 ;;
        --full) SMALL=0; shift ;;
        --verify) VERIFY=1; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

if [[ "$VERIFY" == 0 && -z "$OUT" ]]; then
    echo "error: --out FILE is required (except with --verify)" >&2
    exit 2
fi

export MSC_SMALL=$SMALL

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target \
    bench_figure5 bench_smoke bench_micro bench_daemon >/dev/null

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# wall <cmd...>: prints the wall-clock of one run in ms.
wall() {
    local t0 t1
    t0=$(date +%s%N)
    "$@" >/dev/null
    t1=$(date +%s%N)
    echo $(( (t1 - t0) / 1000000 ))
}

# best_of <n> <var-prefix> <cmd...>: runs the command n times; stores
# the per-run times in <prefix>_runs (comma-separated) and the minimum
# in <prefix>_best. Best-of-N is the committed figure: external load
# only ever adds time, so the minimum is the cleanest estimate.
best_of() {
    local n=$1 prefix=$2
    shift 2
    local best="" runs="" t
    for ((i = 0; i < n; ++i)); do
        t=$(wall "$@")
        runs="$runs${runs:+,}$t"
        [[ -z "$best" || "$t" -lt "$best" ]] && best=$t
    done
    printf -v "${prefix}_runs" '%s' "$runs"
    printf -v "${prefix}_best" '%s' "$best"
}

if [[ "$VERIFY" == 1 ]]; then
    echo "== bench_snapshot --verify: core equivalence + no-slower gate"
    best_of 3 smoke_cycle ./build/bench/bench_smoke --jobs 2 \
        --core cycle --json "$TMP/smoke_cycle.json"
    best_of 3 smoke_event ./build/bench/bench_smoke --jobs 2 \
        --core event --json "$TMP/smoke_event.json"
    if ! cmp -s "$TMP/smoke_cycle.json" "$TMP/smoke_event.json"; then
        echo "FAIL: bench_smoke sweep JSON differs between cores" >&2
        exit 1
    fi
    echo "   cycle best ${smoke_cycle_best}ms (runs ${smoke_cycle_runs})"
    echo "   event best ${smoke_event_best}ms (runs ${smoke_event_runs})"
    if (( smoke_event_best * 10 > smoke_cycle_best * 11 )); then
        echo "FAIL: event core slower than cycle core on bench_smoke" \
             "(${smoke_event_best}ms vs ${smoke_cycle_best}ms," \
             "guard band 10%)" >&2
        exit 1
    fi
    echo "   OK: byte-identical, event not slower"
    exit 0
fi

echo "== bench_figure5 (--jobs $JOBS, $REPS reps per core)"
best_of "$REPS" f5_cycle ./build/bench/bench_figure5 --jobs "$JOBS" \
    --core cycle --json "$TMP/f5_cycle.json"
best_of "$REPS" f5_event ./build/bench/bench_figure5 --jobs "$JOBS" \
    --core event --json "$TMP/f5_event.json"
if ! cmp -s "$TMP/f5_cycle.json" "$TMP/f5_event.json"; then
    echo "FAIL: bench_figure5 sweep JSON differs between cores" >&2
    exit 1
fi
echo "   cycle best ${f5_cycle_best}ms  event best ${f5_event_best}ms" \
     "(byte-identical output)"

BASE_RUNS=""
BASE_BEST=""
if [[ -n "$BASELINE_BIN" ]]; then
    echo "== baseline bench_figure5 ($BASELINE_BIN)"
    best_of "$REPS" f5_base "$BASELINE_BIN" --jobs "$JOBS" \
        --json "$TMP/f5_base.json"
    BASE_RUNS=$f5_base_runs
    BASE_BEST=$f5_base_best
    echo "   baseline best ${f5_base_best}ms"
fi

echo "== bench_micro quiescent simulation"
./build/bench/bench_micro --benchmark_filter=BM_QuiescentSimulation \
    --benchmark_min_time=0.2 \
    --json "$TMP/micro.json" >/dev/null 2>&1

echo "== bench_smoke"
best_of 3 smoke_cycle ./build/bench/bench_smoke --jobs 2 \
    --core cycle --json "$TMP/smoke_cycle.json"
best_of 3 smoke_event ./build/bench/bench_smoke --jobs 2 \
    --core event --json "$TMP/smoke_event.json"
cmp -s "$TMP/smoke_cycle.json" "$TMP/smoke_event.json" ||
    { echo "FAIL: bench_smoke JSON differs between cores" >&2; exit 1; }

echo "== bench_daemon serving overhead (direct vs routed)"
./build/bench/bench_daemon --requests 64 --shards 4 --jobs 2 \
    --json "$TMP/daemon.json"

python3 - "$TMP" "$OUT" "$JOBS" "$REPS" "$SMALL" \
    "$f5_cycle_runs" "$f5_cycle_best" "$f5_event_runs" \
    "$f5_event_best" "$BASELINE_BIN" "$BASE_RUNS" "$BASE_BEST" \
    "$smoke_cycle_best" "$smoke_event_best" <<'EOF'
import json, os, platform, subprocess, sys

(tmp, out, jobs, reps, small, fc_runs, fc_best, fe_runs, fe_best,
 base_bin, base_runs, base_best, smoke_c, smoke_e) = sys.argv[1:]

def ints(csv):
    return [int(x) for x in csv.split(",")] if csv else []

sweep = json.load(open(os.path.join(tmp, "f5_event.json")))
cycles = insts = 0
cache = {k: 0 for k in ("l1i_accesses", "l1i_misses",
                        "l1d_accesses", "l1d_misses")}
for run in sweep["runs"]:
    m = run["metrics"]
    cycles += m["cycles"]
    insts += m["retired_insts"]
    for k in cache:
        cache[k] += m["memory"][k]

micro = json.load(open(os.path.join(tmp, "micro.json")))
quiescent = {}
for b in micro["benchmarks"]:
    core = "event" if b["name"].endswith("/event:1") else "cycle"
    quiescent[core] = {
        "sim_cycles_per_sec": b["items_per_second"],
        "skip_frac": b.get("skip_frac", 0.0),
    }

def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()

def git(*args):
    return subprocess.check_output(("git",) + args, text=True).strip()

fc, fe = int(fc_best), int(fe_best)
doc = {
    "schema": "msc.bench_snapshot",
    "schema_version": 2,
    "commit": git("rev-parse", "HEAD"),
    "host": {
        "uname": " ".join(platform.uname()),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": open("/proc/loadavg").read().split()[0],
    },
    "config": {
        "scale": "small" if small == "1" else "full",
        "jobs": int(jobs),
        "reps": int(reps),
        "timing": "best-of-N wall clock, ms",
    },
    "figure5": {
        "cycle_wall_ms": {"runs": ints(fc_runs), "best": fc},
        "event_wall_ms": {"runs": ints(fe_runs), "best": fe},
        "event_speedup_vs_cycle": round(fc / fe, 3),
        "json_byte_identical": True,
        "simulated_cycles": cycles,
        "retired_insts": insts,
        "event_sim_cycles_per_sec": round(cycles * 1000.0 / fe),
        "cache_counters": cache,
    },
    "micro_quiescent": quiescent,
    "smoke": {
        "cycle_wall_ms_best": int(smoke_c),
        "event_wall_ms_best": int(smoke_e),
        "json_byte_identical": True,
    },
    # bench_daemon's own msc.bench_daemon document, verbatim: warm
    # request latency through a direct daemon vs the 4-shard router
    # (docs/DAEMON.md#sharding).
    "daemon": json.load(open(os.path.join(tmp, "daemon.json"))),
}
if base_best:
    doc["baseline"] = {
        "description": "bench_figure5 at " + base_bin
                       + "; see docs/PERFORMANCE.md for the rebuild "
                       "recipe",
        "wall_ms": {"runs": ints(base_runs), "best": int(base_best)},
        "event_speedup_vs_baseline": round(int(base_best) / fe, 3),
    }

with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}: figure5 cycle {fc}ms / event {fe}ms "
      f"({fc / fe:.2f}x)"
      + (f", baseline {base_best}ms ({int(base_best) / fe:.2f}x)"
         if base_best else ""))
EOF
