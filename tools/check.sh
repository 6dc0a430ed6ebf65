#!/usr/bin/env bash
# One-command pre-merge gate: builds and tests the full correctness matrix.
#
#   tools/check.sh            # plain + TSan + ASan/UBSan builds, ctest each
#   tools/check.sh --fast     # plain build + ctest only
#
# Each configuration uses its own build directory (build/, build-tsan/,
# build-asan/), mirroring the presets in CMakePresets.json, so incremental
# reruns are cheap. clang-tidy runs over src/ when installed; the gate does
# not fail merely because the tool is absent (CI images without clang still
# get the sanitizer matrix).
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

GENERATOR_ARGS=()
if command -v ninja > /dev/null 2>&1; then
  GENERATOR_ARGS=(-G Ninja)
fi

JOBS="$(nproc 2> /dev/null || echo 2)"

run_matrix_entry() {
  local name="$1" dir="$2"
  shift 2
  echo "==> [${name}] configure"
  cmake -B "${dir}" -S . "${GENERATOR_ARGS[@]}" "$@"
  echo "==> [${name}] build"
  cmake --build "${dir}" -j "${JOBS}"
  echo "==> [${name}] ctest"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

run_matrix_entry plain build

echo "==> [cwf-tidy] concurrency lint rules (src/ tools/ bench/ examples/)"
find src tools bench examples \( -name '*.cpp' -o -name '*.h' \) -print0 |
  xargs -0 ./build/tools/cwf-tidy/cwf_tidy

echo "==> [cwf-analyze] built-in graph catalog (--strict)"
./build/tools/cwf_analyze --strict

echo "==> [cwf-analyze] liveness classification (--liveness --strict)"
./build/tools/cwf_analyze --liveness --strict

echo "==> [cwf-analyze] channel schema verification (--schemas --strict)"
./build/tools/cwf_analyze --schemas --strict

echo "==> [obs] traced + profiled LRB segment, exposition scrape"
OBS_TMP="$(mktemp -d)"
./build/tools/cwf_lrb_serve --duration-s 60 \
  --bench "${OBS_TMP}/BENCH_lrb_QBS.json" --trace "${OBS_TMP}/trace.json" \
  --scrape-out "${OBS_TMP}/metrics.txt" \
  --profile-out "${OBS_TMP}/profile.txt" > /dev/null
grep -q '^# TYPE cwf_actor_firings_total counter$' "${OBS_TMP}/metrics.txt"
grep -q '"schema_version"' "${OBS_TMP}/BENCH_lrb_QBS.json"
grep -q '"host_phase_us"' "${OBS_TMP}/BENCH_lrb_QBS.json"
grep -q '"traceEvents"' "${OBS_TMP}/trace.json"
grep -q '^# coverage_pct ' "${OBS_TMP}/profile.txt"

echo "==> [perf-smoke] bench_compare vs committed baseline (warn-only)"
./build/tools/cwf_lrb_serve --duration-s 120 \
  --bench "${OBS_TMP}/BENCH_lrb_QBS.json" > /dev/null
./build/tools/bench_compare --warn-only \
  bench/baselines/BENCH_lrb_QBS.json "${OBS_TMP}/BENCH_lrb_QBS.json"
rm -rf "${OBS_TMP}"

echo "==> [ingest] zero-loss sweep under forced backpressure"
ING_TMP="$(mktemp -d)"
./build/bench/bench_ingest_scale --connections 500 --tuples-per-conn 100 \
  --capacity 1024 --staging-limit 64 --consumer-delay-us 300 \
  --consumer-batch 64 --expect-pauses \
  --bench "${ING_TMP}/BENCH_ingest_scale.json"
grep -q '"zero_loss": 1' "${ING_TMP}/BENCH_ingest_scale.json"

echo "==> [ingest] live serve smoke (cwf_lrb_serve --listen, 500 connections)"
./build/tools/cwf_lrb_serve --listen 0 --duration-s 15 --shards 2 \
  --feed-capacity 2048 --clients-max 600 \
  --scrape-out "${ING_TMP}/metrics.txt" > "${ING_TMP}/serve.log" 2>&1 &
ING_SERVE_PID=$!
sleep 2
ING_MPORT="$(awk '/serving metrics/{sub(/.*:/,"",$NF); print $NF}' "${ING_TMP}/serve.log")"
ING_IPORT="$(awk '/ingest listening/{sub(/.*:/,"",$NF); print $NF}' "${ING_TMP}/serve.log")"
./build/bench/bench_ingest_scale --connect "${ING_IPORT}" \
  --metrics "${ING_MPORT}" --connections 500 --tuples-per-conn 10 \
  --sender-threads 8 --verify-timeout-s 12
wait "${ING_SERVE_PID}"
grep -q 'live run: 5000 tuples from 500 connections' "${ING_TMP}/serve.log"
grep -q '^cwf_ingest_accepted_total 500' "${ING_TMP}/metrics.txt"
grep -q '^cwf_ingest_tuples_total{channel="lrb"} 5000' "${ING_TMP}/metrics.txt"
rm -rf "${ING_TMP}"

echo "==> [obs-off] profiler hooks compile out (-DCONFLUENCE_OBS=OFF)"
cmake -B build-noobs -S . "${GENERATOR_ARGS[@]}" -DCONFLUENCE_OBS=OFF > /dev/null
cmake --build build-noobs -j "${JOBS}" --target confluence cwf_lrb_serve \
  bench_compare obs_profile_test > /dev/null
# A compiled-out build must not reference the profile scope machinery from
# the hot-path objects — ports and the shared firing path (the classes still
# exist for tests and tools).
for obj in core/port core/director directors/scwf_director \
    directors/pncwf_director directors/ddf_director directors/sdf_director; do
  o="build-noobs/src/CMakeFiles/confluence.dir/${obj}.cpp.o"
  if [[ ! -f "${o}" ]]; then
    echo "error: ${o} missing" >&2
    exit 1
  fi
  if nm "${o}" | grep -q ScopedProfilePhase; then
    echo "error: ${obj}.cpp still references ScopedProfilePhase with OBS off" >&2
    exit 1
  fi
done

if [[ "${FAST}" == "0" ]]; then
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    run_matrix_entry tsan build-tsan -DCONFLUENCE_SANITIZE=thread

  ASAN_OPTIONS="detect_leaks=1 strict_string_checks=1" \
    UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
    run_matrix_entry asan-ubsan build-asan -DCONFLUENCE_SANITIZE=address,undefined
fi

if [[ "${FAST}" == "0" ]] && command -v clang++ > /dev/null 2>&1; then
  echo "==> [thread-safety] clang -Werror=thread-safety-analysis (preset: thread-safety)"
  cmake --preset thread-safety "${GENERATOR_ARGS[@]}"
  cmake --build build-ts -j "${JOBS}"
  # The negative-compilation fixtures (tests/analysis/negcompile) register
  # under this configuration: defective locking must fail to compile.
  ctest --test-dir build-ts --output-on-failure -L analysis -j "${JOBS}"
elif [[ "${FAST}" == "0" ]]; then
  echo "==> [thread-safety] clang not installed; skipping (annotations are no-ops under gcc)"
fi

if command -v clang-tidy > /dev/null 2>&1; then
  echo "==> [clang-tidy] src/ (preset: lint)"
  cmake --preset lint > /dev/null
  find src -name '*.cpp' -print0 |
    xargs -0 -n 8 -P "${JOBS}" clang-tidy -p build-lint --quiet
else
  echo "==> [clang-tidy] not installed; skipping (configuration: .clang-tidy)"
fi

echo "==> all checks passed"
