#!/usr/bin/env bash
# One-shot correctness gate: format check, clang-tidy build,
# depmatch_analyze (lock discipline + layering + determinism +
# architecture staleness), UBSan test suite, ASan+TSan smoke runs of the
# benches' --smoke correctness gates plus the tsan_stress test suite (and,
# under ASan, the graph/core/service decoder suites), and
# the bench regression gate (fresh headlines vs every committed
# BENCH_*.json).
#
#   tools/check.sh            run every stage
#   tools/check.sh --fast     skip the sanitizer and bench stages
#                             (format+tidy+analyze)
#   BENCH_GATE=0 tools/check.sh   run everything but the bench gate
#
# Stages that need an optional tool (clang-format, clang-tidy) are
# SKIPPED with a notice when the tool is absent — the container image
# ships only gcc — so the gate degrades gracefully instead of failing on
# machines without LLVM. Everything else is mandatory.
#
# Exit code: 0 iff every stage that ran passed.

set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
FAST=0
[ "${1:-}" = "--fast" ] && FAST=1

failures=0
note()  { printf '\n== %s ==\n' "$*"; }
fail()  { printf 'FAIL: %s\n' "$*"; failures=$((failures + 1)); }
skip()  { printf 'SKIP: %s\n' "$*"; }

# ---- 1. clang-format ------------------------------------------------------
note "clang-format (style: .clang-format)"
if command -v clang-format >/dev/null 2>&1; then
  if find src tests bench tools -name '*.cc' -o -name '*.h' \
      | grep -v analyze_fixtures \
      | xargs clang-format --dry-run -Werror; then
    echo "format clean"
  else
    fail "clang-format found unformatted files"
  fi
else
  skip "clang-format not on PATH"
fi

# ---- 2. clang-tidy build --------------------------------------------------
note "clang-tidy (config: .clang-tidy, preset: tidy)"
if command -v clang-tidy >/dev/null 2>&1; then
  if cmake --preset tidy >/dev/null \
      && cmake --build --preset tidy -j "$JOBS"; then
    echo "tidy build clean"
  else
    fail "clang-tidy build reported findings"
  fi
else
  skip "clang-tidy not on PATH"
fi

# ---- 3. depmatch_analyze --------------------------------------------------
# Lock discipline, layering, determinism, and the legacy repo invariants,
# plus a staleness check: the committed docs/architecture.json must match
# what the analyzer derives from the current #include graph.
note "depmatch_analyze (lock discipline, layering, determinism)"
ARCH_FRESH="$(mktemp /tmp/depmatch_arch.XXXXXX.json)"
if cmake --preset default >/dev/null \
    && cmake --build --preset default -j "$JOBS" --target depmatch_analyze \
    && ./build/tools/depmatch_analyze --root "$ROOT" \
        --emit-arch "$ARCH_FRESH"; then
  if diff -u docs/architecture.json "$ARCH_FRESH"; then
    echo "analyze clean, architecture.json current"
  else
    fail "docs/architecture.json is stale; regenerate with \
./build/tools/depmatch_analyze --root . --emit-arch docs/architecture.json"
  fi
else
  fail "depmatch_analyze reported findings"
fi
rm -f "$ARCH_FRESH"

if [ "$FAST" = 1 ]; then
  note "fast mode: skipping sanitizer stages"
else
  # ---- 4. UBSan test suite ------------------------------------------------
  # The UBSan-only lane is fast enough to run the whole test suite, not
  # just the bench smokes — signed overflow, bad shifts, and misaligned
  # loads surface wherever the tests reach.
  note "UBSan test suite (preset: ubsan)"
  if cmake --preset ubsan >/dev/null \
      && cmake --build --preset ubsan -j "$JOBS" \
      && ctest --preset ubsan; then
    echo "ubsan suite clean"
  else
    fail "UBSan test suite failed"
  fi

  # ---- 5. ASan+UBSan smoke ------------------------------------------------
  # depbench's smoke builds its own ASan+UBSan tree (.bench_build/) and
  # runs every workload's correctness gates, including serve_ingest's
  # replay of each served response against the snapshot it names. The
  # decoder suites (graph_test: DMG1 and the CRC kernel; core_test: DMS1;
  # service_test: DMR1/DMP1 frames) run here too, because an over-read
  # past a buffer's tail is caught by ASan, not by stage 4. service_test
  # also boots the ASan-built depmatch_serve from a sharded store.
  note "ASan+UBSan smoke (preset: asan)"
  if cmake --preset asan >/dev/null \
      && cmake --build --preset asan -j "$JOBS" \
          --target bench_match_search bench_graph_build bench_pipeline \
          bench_catalog bench_catalog_scale bench_service \
          bench_incremental tsan_stress_test \
          graph_test core_test service_test \
      && ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/graph_test \
      && ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/core_test \
      && ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/service_test \
      && ASAN_OPTIONS=detect_leaks=1 ./build-asan/bench/bench_match_search --smoke \
      && ASAN_OPTIONS=detect_leaks=1 ./build-asan/bench/bench_pipeline --smoke \
      && ASAN_OPTIONS=detect_leaks=1 ./build-asan/bench/bench_catalog --smoke \
      && ASAN_OPTIONS=detect_leaks=1 ./build-asan/bench/bench_catalog_scale --smoke \
      && ASAN_OPTIONS=detect_leaks=1 ./build-asan/bench/bench_service --smoke \
      && ASAN_OPTIONS=detect_leaks=1 ./build-asan/bench/bench_incremental --smoke \
      && ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/tsan_stress_test \
      && ASAN_OPTIONS=detect_leaks=1 DEPMATCH_SANITIZE=address \
          bench/depbench/run.sh --smoke; then
    echo "asan smoke clean"
  else
    fail "ASan+UBSan smoke failed"
  fi

  # ---- 6. TSan stress -----------------------------------------------------
  # The daemon suite of service_test boots the TSan-built depmatch_serve
  # and stops it with SIGTERM.
  note "TSan stress (preset: tsan, ctest label: tsan_stress)"
  if cmake --preset tsan >/dev/null \
      && cmake --build --preset tsan -j "$JOBS" \
          --target tsan_stress_test bench_match_search bench_pipeline \
          bench_catalog bench_catalog_scale bench_service bench_incremental \
          service_test \
      && TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/tsan_stress_test \
      && TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/service_test \
          --gtest_filter='DepmatchServeTest.*' \
      && TSAN_OPTIONS=halt_on_error=1 ./build-tsan/bench/bench_match_search --smoke \
      && TSAN_OPTIONS=halt_on_error=1 ./build-tsan/bench/bench_pipeline --smoke \
      && TSAN_OPTIONS=halt_on_error=1 ./build-tsan/bench/bench_catalog --smoke \
      && TSAN_OPTIONS=halt_on_error=1 ./build-tsan/bench/bench_catalog_scale --smoke \
      && TSAN_OPTIONS=halt_on_error=1 ./build-tsan/bench/bench_service --smoke \
      && TSAN_OPTIONS=halt_on_error=1 ./build-tsan/bench/bench_incremental --smoke; then
    echo "tsan stress clean"
  else
    fail "TSan stress failed"
  fi

  # ---- 7. bench regression gate -------------------------------------------
  note "bench regression gate (tools/bench_gate.sh, all benches, tolerance 10%)"
  if tools/bench_gate.sh; then
    echo "bench gate clean"
  else
    fail "bench regression gate reported a >10% headline slowdown"
  fi
fi

note "summary"
if [ "$failures" -eq 0 ]; then
  echo "check.sh: all stages passed"
  exit 0
fi
echo "check.sh: $failures stage(s) failed"
exit 1
