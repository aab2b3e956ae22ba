#!/usr/bin/env bash
# Perf-regression tracking: run the fast --json benches, append one
# schema-versioned record (run manifests + result tables) to a JSONL
# history file, and compare the new record's numeric table cells against
# the previous one with a tolerance gate.
#
#   scripts/bench_history.sh [--history PATH] [--tolerance PCT] [--build DIR]
#
# Defaults: history BENCH_history.jsonl (repo root), tolerance 10%,
# build tree build-bench/ (configured Release here if missing). Exits 1
# when any previously recorded numeric cell regressed beyond tolerance
# (time-like columns count when they grow, rate-like when they shrink) —
# CI wires this as a non-blocking report, so a regression annotates the
# run instead of failing the merge.
#
# Each record is {"schema": 1, "recorded_at_utc": ..., "benches": {name:
# <bench --json document>}}; the per-bench documents carry the build
# provenance (git describe, compiler, flags) via obs::RunManifest, so a
# regression can always be traced to its commit.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

history="$repo/BENCH_history.jsonl"
tolerance=10
build="build-bench"
while [ "$#" -gt 0 ]; do
  case "$1" in
    --history)   history="$2"; shift 2 ;;
    --tolerance) tolerance="$2"; shift 2 ;;
    --build)     build="$2"; shift 2 ;;
    *) echo "usage: scripts/bench_history.sh [--history PATH] [--tolerance PCT] [--build DIR]" >&2
       exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

# Perf history tracks the fast production configuration: the machine's
# best SIMD backend unless the caller pins one. The backend lands in each
# record and a change re-establishes the baseline (no cross-backend
# comparison), so this is safe on any host.
export ORIGIN_BACKEND="${ORIGIN_BACKEND:-auto}"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" -j "$jobs" --target \
    fleet_scale bench_fleet_serve obs_overhead personalize

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The history benches: small enough to finish in CI minutes, numeric
# enough to catch a regression in the data path, the serve loop, or the
# observability overhead.
( cd "$build" && ./bench/fleet_scale --users 16 --slots 300 \
    --json "$tmp/fleet_scale.json" )
# Dense shards (16 sessions each) so the cross-session batching rows run
# at realistic panel occupancy; best-of-3 per cell damps co-tenant noise.
( cd "$build" && ./bench/fleet_serve --users 32 --slots 300 --shards 2 \
    --arrival-rate 8 --repeat 3 --json "$tmp/fleet_serve.json" )
# Lax tolerance here: at this small workload the 5% gate is noise-bound
# on shared CI runners, and aborting would lose the history record. The
# overhead column is still tolerance-compared against the previous
# record below; the strict gate runs standalone (bench/obs_overhead).
( cd "$build" && ./bench/obs_overhead --users 8 --slots 300 --tolerance 50 \
    --json "$tmp/obs_overhead.json" )
# Personalization: calibration wall at 1/2/8 threads, fine-tune serving
# overhead, delta-vs-full storage ratio (exits non-zero on any
# bit-identity divergence, which does abort the record).
( cd "$build" && ./bench/personalize --users 8 --slots 200 \
    --json "$tmp/personalize.json" )

# Host context for every record: core count and CPU model, so a number
# recorded on one machine is never tolerance-compared as if it came from
# another (the backend/SIMD fields below already pin the instruction set).
host_nproc="$jobs"
host_cpu="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null \
    | head -n 1)"
[ -n "$host_cpu" ] || host_cpu="unknown"

python3 - "$history" "$tolerance" "$host_nproc" "$host_cpu" \
    fleet_scale "$tmp/fleet_scale.json" \
    fleet_serve "$tmp/fleet_serve.json" \
    obs_overhead "$tmp/obs_overhead.json" \
    personalize "$tmp/personalize.json" <<'EOF'
import json, sys, time

history_path, tolerance = sys.argv[1], float(sys.argv[2])
host_nproc, host_cpu = int(sys.argv[3]), sys.argv[4]
pairs = sys.argv[5:]
benches = {pairs[i]: json.load(open(pairs[i + 1]))
           for i in range(0, len(pairs), 2)}

def manifest_param(doc, key, default):
    params = doc.get("params")
    if isinstance(params, dict) and key in params:
        return params[key]
    return default


# The active kernel backend (reference / avx2) and the machine's
# SIMD feature string, as stamped into every bench manifest. Rows from
# different backends are never tolerance-compared: a backend switch is a
# new baseline, not a regression.
backend = next((manifest_param(doc, "kernel_backend", None)
                for doc in benches.values()
                if manifest_param(doc, "kernel_backend", None)), "unknown")
simd = next((manifest_param(doc, "simd", None)
             for doc in benches.values()
             if manifest_param(doc, "simd", None)), "unknown")

record = {
    "schema": 1,
    "recorded_at_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "backend": backend,
    "simd": simd,
    "host": {"nproc": host_nproc, "cpu": host_cpu},
    "benches": benches,
}

previous = None
try:
    with open(history_path) as f:
        for line in f:
            line = line.strip()
            if line:
                previous = json.loads(line)
except FileNotFoundError:
    pass

with open(history_path, "a") as f:
    f.write(json.dumps(record, separators=(",", ":")) + "\n")
print(f"recorded -> {history_path} ({len(benches)} benches)")

if previous is None or previous.get("schema") != record["schema"]:
    print("no comparable previous record; baseline established")
    sys.exit(0)

prev_backend = previous.get("backend", "unknown")
if prev_backend != backend:
    print(f"kernel backend changed ({prev_backend} -> {backend}); "
          "baseline re-established, no comparison")
    sys.exit(0)

prev_host = previous.get("host")
if prev_host is not None and prev_host != record["host"]:
    print(f"host changed ({prev_host} -> {record['host']}); "
          "baseline re-established, no comparison")
    sys.exit(0)


def numeric(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


# Column direction: larger-is-worse for time/latency/overhead columns,
# smaller-is-worse for rate columns; anything else is informational.
def direction(col):
    c = col.lower()
    if any(k in c for k in ("wall", "us", "ms", " s", "overhead", "seconds")):
        return "up_bad"
    if any(k in c for k in ("/s", "per_s", "speedup")):
        return "down_bad"
    return None


regressions, compared = [], 0
for name, doc in benches.items():
    prev_doc = previous["benches"].get(name)
    if not prev_doc:
        continue
    for tname, rows in (doc.get("tables") or {}).items():
        prev_rows = (prev_doc.get("tables") or {}).get(tname)
        if not prev_rows or len(prev_rows) != len(rows):
            continue
        for i, row in enumerate(rows):
            for col, cell in row.items():
                d = direction(col)
                if d is None:
                    continue
                new, old = numeric(cell), numeric(prev_rows[i].get(col))
                if new is None or old is None or old == 0:
                    continue
                compared += 1
                delta_pct = 100.0 * (new - old) / abs(old)
                worse = delta_pct if d == "up_bad" else -delta_pct
                tag = f"{name}/{tname}[{i}].{col}"
                line = f"  {tag}: {old:g} -> {new:g} ({delta_pct:+.1f}%)"
                if worse > tolerance:
                    regressions.append(line)
                    print("REGRESSION" + line)
                else:
                    print("ok        " + line)

print(f"compared {compared} cells against the previous record "
      f"(tolerance {tolerance:g}%)")
if regressions:
    print(f"{len(regressions)} regression(s) beyond tolerance", file=sys.stderr)
    sys.exit(1)
print("no regressions beyond tolerance")
EOF
