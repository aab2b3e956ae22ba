#!/usr/bin/env bash
# Consolidated verification — one entry point for every bit-identity gate
# the paper numbers depend on:
#
#   data    — the data-path suite (label `data`: synthesis kernel vs the
#             preserved oracle, stream cursor vs materialized stream,
#             golden checksums + RNG draw-order pins) in Release and
#             Release+ASan. Guards the tentpole contract: fast synthesis
#             must be bit-identical to the reference, so every downstream
#             accuracy number is unchanged.
#   kernels — inference kernels + fleet concurrency suites (labels nn,
#             fleet, obs-fleet) in Release and Release+ASan, plus the
#             simulator's split-phase bit-identity cases.
#   train   — the training-path suite (label `nn`, which includes
#             test_train_kernels: backward kernels vs the naive oracle,
#             batched fit vs fit_reference, parallel train_system byte
#             identity) in Release and Release+ASan, plus a cold-cache
#             serial-vs-parallel pipeline determinism diff.
#   trace   — the -DORIGIN_TRACE=ON/OFF build switch: both configurations
#             build, pass the obs suite, and produce valid (event-free
#             when OFF) trace files; the OFF tree also proves the serve
#             flight recorder compiles out (bench/obs_overhead).
#   obs     — the observability suites (labels obs-fleet + serve) in
#             Release and Release+ASan, plus an HTTP smoke of the
#             Prometheus exposition and flight-recorder routes
#             (/metrics?format=prom, /trace/recent).
#   serve   — the serving-subsystem suite (label `serve`: bit-identity
#             across thread counts and snapshot/restore splits, the
#             cross-session panel ledger, the HTTP endpoint) in Release
#             and Release+ASan, plus an end-to-end smoke: boot
#             examples/fleet_serve on an ephemeral port and curl the
#             JSON/JSONL routes.
#   backends — the kernel-backend dispatch suite (label `backends`:
#             per-backend golden checksums, cross-backend tolerance grid,
#             int8-vs-float accuracy gate, serve bit-identity per backend)
#             under both ORIGIN_BACKEND=reference and ORIGIN_BACKEND=auto
#             (= best SIMD available), in Release and Release+ASan.
#   personalize — the per-user personalization suite (label `personalize`:
#             delta codec round-trips, parallel calibration bit-identity
#             at threads 1/2/8, fine-tuned serve bit-identity across
#             thread counts and a mid-flight snapshot/restore split) in
#             Release and Release+ASan, plus a cold-cache re-run of the
#             parallel-calibration determinism case against a fresh
#             ORIGIN_CACHE_DIR.
#   all     — everything above (default).
#
# Usage: scripts/verify.sh [data|kernels|train|trace|obs|serve|backends|personalize|all] [generator-args...]
# The data/kernels/train/obs/serve gates share the
# build-kernels-{release,asan}/ trees so a full `all` run configures each
# tree once; the trace gate owns build-trace-{on,off}/.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

gate="${1:-all}"
if [ "$#" -gt 0 ]; then shift; fi

jobs="$(nproc 2>/dev/null || echo 2)"

# Boots examples/fleet_serve from build-kernels-release on an ephemeral
# port, exports `smoke_port`/`smoke_pid`, and leaves the server lingering
# for curls. Caller must `wait "$smoke_pid"` when done.
serve_smoke_boot() {
  cmake --build "build-kernels-release" -j "$jobs" --target fleet_serve
  local out="build-kernels-release/serve_smoke.log"
  rm -f "$out"
  ( cd build-kernels-release && \
    ./examples/fleet_serve --users 4 --slots 60 --linger-s 45 \
        > serve_smoke.log 2>&1 ) &
  smoke_pid=$!
  smoke_port=""
  for _ in $(seq 1 300); do
    smoke_port="$(sed -n 's#^serving on http://127.0.0.1:\([0-9]*\)$#\1#p' \
        "$out" 2>/dev/null || true)"
    [ -n "$smoke_port" ] && break
    sleep 1
  done
  if [ -z "$smoke_port" ]; then
    echo "serve smoke: server never reported a port" >&2
    cat "$out" >&2 || true
    kill "$smoke_pid" 2>/dev/null || true
    exit 1
  fi
}

verify_data_config() {
  local sanitizer="$1" dir="$2"
  shift 2
  echo "=== data: sanitizer='${sanitizer:-none}' (${dir}) ==="
  cmake -B "$dir" -S "$repo" -DORIGIN_SANITIZE="$sanitizer" "$@" >/dev/null
  cmake --build "$dir" -j "$jobs" --target \
      test_data_golden test_stream_cursor test_signal_model test_dataset
  ctest --test-dir "$dir" -L data --output-on-failure -j "$jobs"
}

verify_data() {
  verify_data_config ""        "build-kernels-release" "$@"
  verify_data_config "address" "build-kernels-asan"    "$@"
  echo "=== data path verified (Release + ASan) ==="
}

verify_kernels_config() {
  local sanitizer="$1" dir="$2"
  shift 2
  echo "=== kernels: sanitizer='${sanitizer:-none}' (${dir}) ==="
  cmake -B "$dir" -S "$repo" -DORIGIN_SANITIZE="$sanitizer" "$@" >/dev/null
  cmake --build "$dir" -j "$jobs" --target \
      test_kernels test_simulator test_fleet test_fleet_runner test_obs
  # `-L 'nn|fleet'` is a regex OR (labels nn, fleet, obs-fleet); repeating
  # -L would intersect.
  ctest --test-dir "$dir" -L 'nn|fleet' --output-on-failure -j "$jobs"
  # The simulator's split-phase bit-identity cases (step_begin + external
  # classification + step_finish == step) are in the unlabeled simulator
  # suite; run that binary directly in both gates too.
  "$dir/tests/test_simulator" \
      --gtest_filter='*SplitPhase*' --gtest_brief=1
}

verify_kernels() {
  verify_kernels_config ""        "build-kernels-release" "$@"
  verify_kernels_config "address" "build-kernels-asan"    "$@"
  echo "=== inference kernels verified (Release + ASan) ==="
}

verify_train_config() {
  local sanitizer="$1" dir="$2"
  shift 2
  echo "=== train: sanitizer='${sanitizer:-none}' (${dir}) ==="
  cmake -B "$dir" -S "$repo" -DORIGIN_SANITIZE="$sanitizer" "$@" >/dev/null
  cmake --build "$dir" -j "$jobs" --target test_kernels test_train_kernels
  ctest --test-dir "$dir" -L nn --output-on-failure -j "$jobs"
}

verify_train() {
  verify_train_config ""        "build-kernels-release" "$@"
  verify_train_config "address" "build-kernels-asan"    "$@"
  # Cold-cache determinism: the parallel pipeline must write byte-identical
  # model files to a serial run (also covered by TrainSystemParallel.*;
  # repeated here against the Release tree as a standalone gate).
  ctest --test-dir "build-kernels-release" \
      -R "TrainSystemParallel" --output-on-failure
  echo "=== training path verified (Release + ASan + parallel determinism) ==="
}

verify_trace_config() {
  local flag="$1" dir="$2"
  shift 2
  echo "=== ORIGIN_TRACE=${flag} (${dir}) ==="
  cmake -B "$dir" -S "$repo" -DORIGIN_TRACE="$flag" "$@" >/dev/null
  cmake --build "$dir" -j "$jobs" --target test_obs test_flight \
      fleet_simulation obs_overhead
  ctest --test-dir "$dir" -L obs --output-on-failure -j "$jobs"

  local trace="$dir/verify_trace.json"
  "$dir/examples/fleet_simulation" --users 2 --slots 50 --threads 2 \
      --trace "$trace" > "$dir/verify_trace.out" 2>&1 || {
    cat "$dir/verify_trace.out"; return 1
  }
  # The trace must be valid JSON in both configurations; instrumentation
  # events (beyond the constant metadata records) only exist when ON.
  python3 - "$trace" "$flag" <<'EOF'
import json, sys
path, flag = sys.argv[1], sys.argv[2]
doc = json.load(open(path))
events = doc["traceEvents"]
instrumented = [e for e in events if e.get("ph") != "M"]
if flag == "ON":
    assert instrumented, "ORIGIN_TRACE=ON produced no instrumentation events"
else:
    assert not instrumented, (
        f"ORIGIN_TRACE=OFF still recorded {len(instrumented)} events")
manifest = json.load(open(path + ".manifest.json"))
assert manifest["build"]["trace_enabled"] == (flag == "ON"), \
    "manifest trace_enabled flag disagrees with the build configuration"
print(f"    trace ok: {len(events)} events "
      f"({len(instrumented)} instrumented), manifest consistent")
EOF
  if [ "$flag" = "OFF" ]; then
    # The serve flight recorder must compile out too: obs_overhead asserts
    # zero recorded events and structural-zero overhead in this tree.
    "$dir/bench/obs_overhead" --users 2 --slots 50 --repeat 1
  fi
}

verify_trace() {
  verify_trace_config ON "build-trace-on" "$@"
  verify_trace_config OFF "build-trace-off" "$@"
  echo "=== ORIGIN_TRACE verified in both configurations ==="
}

verify_obs_config() {
  local sanitizer="$1" dir="$2"
  shift 2
  echo "=== obs: sanitizer='${sanitizer:-none}' (${dir}) ==="
  cmake -B "$dir" -S "$repo" -DORIGIN_SANITIZE="$sanitizer" "$@" >/dev/null
  cmake --build "$dir" -j "$jobs" --target \
      test_obs test_flight test_serve test_serve_snapshot
  ctest --test-dir "$dir" -L 'obs|serve' --output-on-failure -j "$jobs"
}

verify_obs() {
  verify_obs_config ""        "build-kernels-release" "$@"
  verify_obs_config "address" "build-kernels-asan"    "$@"
  # HTTP smoke of the observability surface: the Prometheus exposition
  # must carry typed series, and the flight-recorder routes must answer.
  local smoke_pid smoke_port
  serve_smoke_boot
  curl -fsS --max-time 10 \
      "http://127.0.0.1:${smoke_port}/metrics?format=prom" \
      | grep -q '^# TYPE serve_slots_served_total counter$'
  curl -fsS --max-time 10 \
      "http://127.0.0.1:${smoke_port}/metrics?format=prom" \
      | grep -q '_bucket{le="+Inf"}'
  curl -fsS --max-time 10 \
      "http://127.0.0.1:${smoke_port}/trace/recent?n=16" \
      | grep -q '"kind"'
  curl -fsS --max-time 10 "http://127.0.0.1:${smoke_port}/status" \
      | grep -q '"slo"'
  wait "$smoke_pid"
  echo "=== observability verified (Release + ASan + prom/trace smoke on port ${smoke_port}) ==="
}

verify_serve_config() {
  local sanitizer="$1" dir="$2"
  shift 2
  echo "=== serve: sanitizer='${sanitizer:-none}' (${dir}) ==="
  cmake -B "$dir" -S "$repo" -DORIGIN_SANITIZE="$sanitizer" "$@" >/dev/null
  cmake --build "$dir" -j "$jobs" --target \
      test_serve test_serve_snapshot
  ctest --test-dir "$dir" -L serve --output-on-failure -j "$jobs"
}

verify_serve() {
  verify_serve_config ""        "build-kernels-release" "$@"
  verify_serve_config "address" "build-kernels-asan"    "$@"
  # End-to-end smoke: boot the serving example on a kernel-assigned
  # ephemeral port (no fixed port to collide with), then curl the JSON
  # and JSONL routes while it lingers.
  local smoke_pid smoke_port
  serve_smoke_boot
  curl -fsS --max-time 10 "http://127.0.0.1:${smoke_port}/healthz" \
      | grep -q '"status":"ok"'
  curl -fsS --max-time 10 "http://127.0.0.1:${smoke_port}/status" \
      | grep -q '"slots_served"'
  curl -fsS --max-time 10 "http://127.0.0.1:${smoke_port}/results?tail=3" \
      | grep -q '"predicted"'
  wait "$smoke_pid"
  echo "=== serve verified (Release + ASan + HTTP smoke on port ${smoke_port}) ==="
}

verify_backends_config() {
  local sanitizer="$1" dir="$2"
  shift 2
  echo "=== backends: sanitizer='${sanitizer:-none}' (${dir}) ==="
  cmake -B "$dir" -S "$repo" -DORIGIN_SANITIZE="$sanitizer" "$@" >/dev/null
  cmake --build "$dir" -j "$jobs" --target test_backends
  # Once under the reference backend and once under the best SIMD backend
  # the build/machine offers ("auto" = reference when SIMD is compiled out
  # or unsupported): the suite's golden checksums, cross-backend tolerance
  # grid and int8 accuracy gate must hold from either starting point.
  ORIGIN_BACKEND=reference \
      ctest --test-dir "$dir" -L backends --output-on-failure
  ORIGIN_BACKEND=auto \
      ctest --test-dir "$dir" -L backends --output-on-failure
}

verify_backends() {
  verify_backends_config ""        "build-kernels-release" "$@"
  verify_backends_config "address" "build-kernels-asan"    "$@"
  echo "=== kernel backends verified (reference + auto, Release + ASan) ==="
}

verify_personalize_config() {
  local sanitizer="$1" dir="$2"
  shift 2
  echo "=== personalize: sanitizer='${sanitizer:-none}' (${dir}) ==="
  cmake -B "$dir" -S "$repo" -DORIGIN_SANITIZE="$sanitizer" "$@" >/dev/null
  cmake --build "$dir" -j "$jobs" --target test_personalize
  ctest --test-dir "$dir" -L personalize --output-on-failure -j "$jobs"
}

verify_personalize() {
  verify_personalize_config ""        "build-kernels-release" "$@"
  verify_personalize_config "address" "build-kernels-asan"    "$@"
  # Cold-cache determinism: the parallel calibration must produce
  # bit-identical tables when every pipeline artifact is rebuilt from
  # scratch, not just when served from a warm model cache.
  local cold_cache
  cold_cache="$(mktemp -d)"
  ORIGIN_CACHE_DIR="$cold_cache" \
      "build-kernels-release/tests/test_personalize" \
      --gtest_filter='*CalibrateSystemBitIdenticalAcrossThreadCounts*'
  rm -rf "$cold_cache"
  echo "=== personalization verified (Release + ASan + cold-cache parallel calibration) ==="
}

case "$gate" in
  data)    verify_data "$@" ;;
  kernels) verify_kernels "$@" ;;
  train)   verify_train "$@" ;;
  trace)   verify_trace "$@" ;;
  obs)     verify_obs "$@" ;;
  serve)   verify_serve "$@" ;;
  backends) verify_backends "$@" ;;
  personalize) verify_personalize "$@" ;;
  all)
    verify_data "$@"
    verify_kernels "$@"
    verify_train "$@"
    verify_trace "$@"
    verify_obs "$@"
    verify_serve "$@"
    verify_backends "$@"
    verify_personalize "$@"
    echo "=== all verification gates passed ==="
    ;;
  *)
    echo "usage: scripts/verify.sh [data|kernels|train|trace|obs|serve|backends|personalize|all] [generator-args...]" >&2
    exit 2
    ;;
esac
