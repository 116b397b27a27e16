#!/usr/bin/env bash
# Bench regression gate: re-measure the headline numbers of every
# committed BENCH_*.json and compare them against the committed values.
# A fresh headline more than BENCH_GATE_TOLERANCE percent slower than
# the committed one fails the gate — catching perf regressions the unit
# tests cannot see (the kernels stay bit-identical while getting slower).
#
#   tools/bench_gate.sh                 measure and compare all benches
#   tools/bench_gate.sh graph_build     gate a single bench
#   BENCH_GATE=0 tools/bench_gate.sh    skip (exit 0)
#
# Environment:
#   BENCH_GATE_TOLERANCE  allowed slowdown in percent (default 10)
#   BENCH_GATE_REPS       repetitions per data point (default 2; min-of-N
#                         absorbs scheduler noise better than one shot)
#   BENCH_GATE_ATTEMPTS   measurement attempts before failing (default 2:
#                         the committed minima are min-of-5 on a quiet
#                         machine, so a single noisy run re-measures once
#                         — the per-config minimum across attempts is
#                         compared — before the gate calls it a
#                         regression)
#   BENCH_GATE_BUILD      build directory (default build/)
#
# Compared values: the headline *_min_ms fields that precede results[]
# in each BENCH_*.json — the full results[] sweeps are too noisy for a
# hard gate at single-digit milliseconds; the headline minima are what
# the PR history tracks. Per bench:
#   graph_build    first 2 x dense_min_ms  (alphabet-32, alphabet-4096)
#   match_search   first 2 x new_min_ms    (cold, warm-cache search)
#   pipeline       first 1 x cached_min_ms (end-to-end with StatCache)
#   catalog        first 1 x prefilter_parallel_min_ms (top-k search)
#   catalog_scale  first 3 x search_min_ms (1K/10K/100K-entry tiers)
#   service        first 1 x serve_p99_ms  (1-client served search p99)
#   incremental    first 1 x append_speedup_x (append-vs-rebuild ratio;
#                  higher is better — gated with the `max` direction)
#
# A spec's optional 4th field is the direction: `min` (default; lower is
# better, fresh must stay under committed * (1 + tol)) or `max` (higher
# is better, fresh must stay over committed * (1 - tol)).
#
# Exit code: 0 on pass/skip, 1 on any regression or measurement failure.

set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

if [ "${BENCH_GATE:-1}" = "0" ]; then
  echo "bench_gate: skipped (BENCH_GATE=0)"
  exit 0
fi

TOLERANCE="${BENCH_GATE_TOLERANCE:-10}"
REPS="${BENCH_GATE_REPS:-2}"
ATTEMPTS="${BENCH_GATE_ATTEMPTS:-2}"
BUILD="${BENCH_GATE_BUILD:-$ROOT/build}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

# bench-name : headline key : expected count [: direction]
SPECS="
graph_build:dense_min_ms:2
match_search:new_min_ms:2
pipeline:cached_min_ms:1
catalog:prefilter_parallel_min_ms:1
catalog_scale:search_min_ms:3
service:serve_p99_ms:1
incremental:append_speedup_x:1:max
"

ONLY="${1:-}"

# The headline blocks precede results[], so the first N occurrences of
# the key in file order are the headline minima.
headline_minima() {  # json-file key count
  grep -o "\"$2\": *[0-9.]*" "$1" | grep -o '[0-9.]*$' | head -"$3"
}

compare() {  # bench-name committed-file best-file direction
  paste "$2" "$3" | awk -v tol="$TOLERANCE" -v bench="$1" -v dir="$4" '
    NF == 2 {
      if (dir == "max") {
        limit = $1 * (1 - tol / 100)
        bad = ($2 < limit)
      } else {
        limit = $1 * (1 + tol / 100)
        bad = ($2 > limit)
      }
      verdict = bad ? "REGRESSION" : "ok"
      printf "bench_gate: %-13s #%d  committed %8.2f      fresh %8.2f      %s\n",
             bench, NR, $1, $2, verdict
      if (bad) failed = 1
    }
    NF == 1 {
      printf "bench_gate: %-13s #%d  present in only one file; skipped\n",
             bench, NR
    }
    END { exit failed ? 1 : 0 }
  '
}

gate_one() {  # bench-name key count direction
  local name="$1" key="$2" count="$3" dir="$4"
  local committed="$ROOT/BENCH_$name.json"
  if [ ! -f "$committed" ]; then
    echo "bench_gate: $name skipped (no committed $committed)"
    return 0
  fi

  if ! cmake --build "$BUILD" --target "bench_$name" -j "$JOBS" \
      >/dev/null; then
    echo "bench_gate: FAIL (could not build bench_$name)"
    return 1
  fi

  local fresh best committed_minima
  fresh="$(mktemp /tmp/bench_gate.XXXXXX.json)"
  best="$(mktemp /tmp/bench_gate.XXXXXX.best)"
  committed_minima="$(mktemp /tmp/bench_gate.XXXXXX.committed)"
  headline_minima "$committed" "$key" "$count" > "$committed_minima"

  : > "$best"
  local attempt=0 rc=1
  while :; do
    attempt=$((attempt + 1))
    echo "bench_gate: measuring $name headline (attempt $attempt/$ATTEMPTS, reps=$REPS) ..."
    if ! DEPMATCH_BENCH_REPS="$REPS" "$BUILD/bench/bench_$name" "$fresh" \
        >/dev/null; then
      echo "bench_gate: FAIL (bench_$name run failed)"
      break
    fi
    # Fold this attempt into the element-wise best-so-far values (the
    # minimum for min-direction headlines, the maximum for max).
    if [ -s "$best" ]; then
      paste "$best" <(headline_minima "$fresh" "$key" "$count") \
        | awk -v dir="$dir" '{
            better = (dir == "max") ? ($2 > $1) : ($2 < $1)
            print (NF == 2 && better) ? $2 : $1
          }' > "$best.next"
      mv "$best.next" "$best"
    else
      headline_minima "$fresh" "$key" "$count" > "$best"
    fi
    if compare "$name" "$committed_minima" "$best" "$dir"; then
      rc=0
      break
    fi
    if [ "$attempt" -ge "$ATTEMPTS" ]; then
      echo "bench_gate: FAIL ($name headline >$TOLERANCE% over committed after $ATTEMPTS attempts)"
      break
    fi
    echo "bench_gate: $name over tolerance; re-measuring to rule out scheduler noise"
  done
  rm -f "$fresh" "$best" "$best.next" "$committed_minima"
  return "$rc"
}

failures=0
matched=0
for spec in $SPECS; do
  name="${spec%%:*}"
  rest="${spec#*:}"
  key="${rest%%:*}"
  rest="${rest#*:}"
  count="${rest%%:*}"
  case "$rest" in
    *:*) dir="${rest#*:}" ;;
    *) dir="min" ;;
  esac
  if [ -n "$ONLY" ] && [ "$name" != "$ONLY" ]; then
    continue
  fi
  matched=$((matched + 1))
  gate_one "$name" "$key" "$count" "$dir" || failures=$((failures + 1))
done

if [ -n "$ONLY" ] && [ "$matched" -eq 0 ]; then
  echo "bench_gate: FAIL (unknown bench '$ONLY')"
  exit 1
fi

if [ "$failures" -eq 0 ]; then
  echo "bench_gate: pass"
  exit 0
fi
echo "bench_gate: $failures bench(es) regressed"
exit 1
