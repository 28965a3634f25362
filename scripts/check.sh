#!/usr/bin/env bash
# One-command verify: configure + build + ctest.
#   scripts/check.sh [--tier1|--tier2|--bench|--lint|--asan|--tidy|--chaos]
#                    [build-dir]             (extra CMake args via CMAKE_ARGS)
#
# Default runs every ctest suite. --tier1 runs only the fast unit/property
# suites (label tier1); --tier2 runs the end-to-end scenario regression
# harness (label tier2), which trains every scenario's SGM arm AND its
# output-weighted-rebuild arm at num_threads=1 and =4 and asserts the
# histories are byte-identical.
# --bench builds Release and runs the train-step benchmark, the full S1/S2
# rebuild benchmark (bench_overhead_sampling's GraphRebuildTauG rows: kNN
# PGM + ER embedding + LRD merge of the registered ldc_zeroeq and
# annular_ring_param kFull builds, 1 and 4 threads) and the
# serving-engine benchmark with SGM_BENCH_JSON=1, leaving
# BENCH_train_step.json, BENCH_overhead_sampling.json and BENCH_serve.json
# in the build dir (the perf-smoke / serve-smoke CI jobs do the same;
# compare against bench/baselines/).
# --lint runs the determinism lint (self-test first, then the tree) without
# building anything. --asan builds with SGM_ASAN=ON into <build-dir>-asan and
# runs tier1 under AddressSanitizer+UBSan. --tidy runs clang-tidy over src/
# using the compile_commands.json of the build dir (requires clang-tidy on
# PATH; CI provides it). --chaos is the failure-model gate: the failpoint /
# durability / recovery suite (test_robustness) under ASan+UBSan, then the
# serving degradation + socket fault suites (test_serve, test_socket) under
# TSan — every fault path exercised with memory and race checking on.
set -euo pipefail

cd "$(dirname "$0")/.."

TIER=""
case "${1:-}" in
  --tier1) TIER="tier1"; shift ;;
  --tier2) TIER="tier2"; shift ;;
  --bench) TIER="bench"; shift ;;
  --lint)  TIER="lint";  shift ;;
  --asan)  TIER="asan";  shift ;;
  --tidy)  TIER="tidy";  shift ;;
  --chaos) TIER="chaos"; shift ;;
esac
BUILD_DIR="${1:-build}"

if [[ "$TIER" == "lint" ]]; then
  python3 scripts/lint_determinism.py --self-test
  python3 scripts/lint_determinism.py
  exit 0
fi

if [[ "$TIER" == "asan" ]]; then
  BUILD_DIR="${1:-build-asan}"
  cmake -B "$BUILD_DIR" -S . -DSGM_ASAN=ON -DSGM_BUILD_BENCH=OFF \
    -DSGM_BUILD_EXAMPLES=OFF ${CMAKE_ARGS:-}
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$(nproc)"
  exit 0
fi

if [[ "$TIER" == "chaos" ]]; then
  ASAN_DIR="${1:-build-chaos-asan}"
  TSAN_DIR="${ASAN_DIR%-asan}-tsan"
  cmake -B "$ASAN_DIR" -S . -DSGM_ASAN=ON -DSGM_BUILD_BENCH=OFF \
    -DSGM_BUILD_EXAMPLES=OFF ${CMAKE_ARGS:-}
  cmake --build "$ASAN_DIR" -j "$(nproc)" --target test_robustness
  ctest --test-dir "$ASAN_DIR" -R test_robustness --output-on-failure
  cmake -B "$TSAN_DIR" -S . -DSGM_TSAN=ON -DSGM_BUILD_BENCH=OFF \
    -DSGM_BUILD_EXAMPLES=OFF ${CMAKE_ARGS:-}
  cmake --build "$TSAN_DIR" -j "$(nproc)" --target test_serve test_socket
  ctest --test-dir "$TSAN_DIR" -R 'test_serve|test_socket' \
    --output-on-failure
  exit 0
fi

cmake -B "$BUILD_DIR" -S . ${CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j "$(nproc)"

if [[ "$TIER" == "bench" ]]; then
  if [[ ! -x "$BUILD_DIR/bench_train_step" ]]; then
    echo "bench_train_step not built (Google Benchmark missing?)" >&2
    exit 1
  fi
  (cd "$BUILD_DIR" && SGM_BENCH_JSON=1 ./bench_train_step)
  echo "Wrote $BUILD_DIR/BENCH_train_step.json"
  (cd "$BUILD_DIR" && SGM_BENCH_JSON=1 ./bench_overhead_sampling \
    --benchmark_filter=GraphRebuildTauG)
  echo "Wrote $BUILD_DIR/BENCH_overhead_sampling.json"
  (cd "$BUILD_DIR" && SGM_BENCH_JSON=1 ./bench_serve)
  echo "Wrote $BUILD_DIR/BENCH_serve.json"
elif [[ "$TIER" == "tidy" ]]; then
  command -v clang-tidy >/dev/null || {
    echo "clang-tidy not found on PATH" >&2; exit 1; }
  mapfile -t TIDY_SOURCES < <(find src -name '*.cpp' | sort)
  clang-tidy -p "$BUILD_DIR" --quiet --warnings-as-errors='*' \
    "${TIDY_SOURCES[@]}"
elif [[ "$TIER" == "tier2" ]]; then
  ctest --test-dir "$BUILD_DIR" -L tier2 --output-on-failure
elif [[ "$TIER" == "tier1" ]]; then
  ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$(nproc)"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
fi
